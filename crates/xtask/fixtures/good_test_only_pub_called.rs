// The same `pub fn`, now called from non-test code: clean.
// path: crates/core/src/window.rs
// expect: none

pub fn trim_window(items: &mut Vec<u64>, cap: usize) {
    let excess = items.len().saturating_sub(cap);
    items.drain(..excess);
}

fn push_bounded(items: &mut Vec<u64>, item: u64) {
    items.push(item);
    trim_window(items, 50);
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
