// A product `pub fn` that only its own unit tests call: surface nothing
// ships, which the rule asks to delete, make private or move under
// `#[cfg(test)]`.
// path: crates/core/src/window.rs
// expect: test-only-pub

pub fn trim_window(items: &mut Vec<u64>, cap: usize) {
    let excess = items.len().saturating_sub(cap);
    items.drain(..excess);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_newest() {
        let mut items = vec![1, 2, 3];
        trim_window(&mut items, 2);
        assert_eq!(items, [2, 3]);
    }
}
