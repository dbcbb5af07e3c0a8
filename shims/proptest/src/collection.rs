//! Collection strategies.

use std::ops::Range;

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Generates `Vec`s whose length is drawn from `size` (half-open, like
/// proptest's `SizeRange` from a `Range`) and whose elements come from
/// `element`.
pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
    assert!(size.start < size.end, "empty size range");
    VecStrategy { element, size }
}

/// See [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = rng.in_inclusive(self.size.start as i128, self.size.end as i128 - 1) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_and_elements_respect_bounds() {
        let mut rng = TestRng::from_name("collection-tests");
        let strat = vec(5u64..8, 2..6);
        for _ in 0..300 {
            let v = strat.generate(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| (5..8).contains(&x)));
        }
    }

    #[test]
    fn zero_length_vectors_occur() {
        let mut rng = TestRng::from_name("collection-zero");
        let strat = vec(0u64..10, 0..3);
        assert!((0..200).any(|_| strat.generate(&mut rng).is_empty()));
    }
}
