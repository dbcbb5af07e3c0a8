//! The min-heap of the VMIS-kNN kernel.
//!
//! The kernel keeps two bounded heaps per request: `b_t`, a capacity-`m`
//! heap over candidate ids (the recency keys) that decides which candidate
//! to evict once the table is full, and `N_s`, a capacity-`k` heap over
//! `(similarity, id)` that keeps the top-k neighbours. Both are
//! insertion-heavy: an entry either pushes or replaces the root, and `b_t`
//! is heapified once, in bulk, the first time an eviction has to be decided.
//!
//! **The arity is fixed at 8.** The paper names octonary heaps as a
//! micro-optimisation (§3): a flatter tree has fewer levels to sift
//! through. Here the arity is a constant, not a knob, because it barely
//! matters: on the benchmark's `ecom-1m` index a request costs 7.7–8.9 µs
//! at every d ∈ {2, 4, 8, 16} (m = 500 and 1,000, two seeds), no arity is
//! more than 0.6 µs from another, and the outputs are identical
//! (EXPERIMENTS.md A1). `b_t` is built in 0.06–0.13 % of requests, so it is
//! `N_s` that sees the arity. We keep the paper's 8; that its gain over
//! binary heaps is within noise here is a stated deviation (DESIGN.md §3).
//!
//! Keys only need [`PartialOrd`]: the recommendation scores are `f32` and are
//! guaranteed finite by construction (weights and idf are finite, sums of
//! finitely many finite terms), so the partial order is total on the values
//! that actually occur. A `NaN` key would be rejected in debug builds.

/// Children per node.
const ARITY: usize = 8;

/// An octonary min-heap with payloads. The root (returned by
/// [`peek`](Self::peek) / [`pop`](Self::pop)) is the entry with the
/// **smallest** key.
#[derive(Debug, Clone)]
pub struct DaryHeap<K, V> {
    data: Vec<(K, V)>,
}

impl<K: PartialOrd + Copy, V: Copy> DaryHeap<K, V> {
    /// Creates an empty heap with space for `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { data: Vec::with_capacity(capacity) }
    }

    /// Number of entries currently in the heap.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the heap holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Removes all entries, keeping the allocation.
    #[inline]
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// The minimum entry, if any.
    #[inline]
    pub fn peek(&self) -> Option<&(K, V)> {
        self.data.first()
    }

    /// Inserts an entry in `O(log n)`.
    #[inline]
    pub fn push(&mut self, key: K, value: V) {
        debug_assert!(key.partial_cmp(&key).is_some(), "heap keys must not be NaN");
        self.data.push((key, value));
        let mut idx = self.data.len() - 1;
        while idx > 0 {
            let parent = (idx - 1) / ARITY;
            if self.data[idx].0 < self.data[parent].0 {
                self.data.swap(idx, parent);
                idx = parent;
            } else {
                break;
            }
        }
    }

    /// Removes and returns the minimum entry.
    pub fn pop(&mut self) -> Option<(K, V)> {
        let last = self.data.len().checked_sub(1)?;
        self.data.swap(0, last);
        let out = self.data.pop();
        if !self.data.is_empty() {
            self.sift_down(0);
        }
        out
    }

    /// Replaces the root with a new entry and restores the heap property,
    /// returning the old root. Equivalent to `pop` followed by `push`, but
    /// with a single sift. Panics if the heap is empty.
    pub fn replace_root(&mut self, key: K, value: V) -> (K, V) {
        debug_assert!(key.partial_cmp(&key).is_some(), "heap keys must not be NaN");
        let old = self.data[0];
        self.data[0] = (key, value);
        self.sift_down(0);
        old
    }

    /// Replaces the contents with `entries` and heapifies bottom-up in
    /// `O(n)` — cheaper than `n` pushes when the heap is only needed once
    /// the entries are already known.
    pub fn rebuild(&mut self, entries: impl IntoIterator<Item = (K, V)>) {
        self.data.clear();
        self.data.extend(entries);
        if self.data.len() > 1 {
            for idx in (0..=(self.data.len() - 2) / ARITY).rev() {
                self.sift_down(idx);
            }
        }
    }

    /// Iterates over entries in unspecified (heap) order.
    pub fn iter(&self) -> impl Iterator<Item = &(K, V)> {
        self.data.iter()
    }

    #[inline]
    fn sift_down(&mut self, mut idx: usize) {
        let len = self.data.len();
        loop {
            let first_child = idx * ARITY + 1;
            if first_child >= len {
                break;
            }
            let last_child = (first_child + ARITY).min(len);
            let mut min_child = first_child;
            for child in first_child + 1..last_child {
                if self.data[child].0 < self.data[min_child].0 {
                    min_child = child;
                }
            }
            if self.data[min_child].0 < self.data[idx].0 {
                self.data.swap(idx, min_child);
                idx = min_child;
            } else {
                break;
            }
        }
    }

    #[cfg(test)]
    pub(crate) fn is_valid_heap(&self) -> bool {
        (1..self.data.len()).all(|i| self.data[(i - 1) / ARITY].0 <= self.data[i].0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> DaryHeap<u64, u32> {
        DaryHeap::with_capacity(0)
    }

    fn drain_sorted(mut h: DaryHeap<u64, u32>) -> Vec<u64> {
        std::iter::from_fn(|| h.pop().map(|(k, _)| k)).collect()
    }

    #[test]
    fn empty_heap_behaviour() {
        let mut h = heap();
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        assert_eq!(h.peek(), None);
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn pop_yields_ascending_order_octonary() {
        let mut h = heap();
        for k in [5u64, 3, 8, 1, 9, 2, 7, 4, 6, 0] {
            h.push(k, k as u32);
        }
        assert_eq!(drain_sorted(h), (0..10).collect::<Vec<_>>());
        // Deep enough for three levels.
        let mut h = heap();
        for k in (0..100).rev() {
            h.push(k, 0);
        }
        assert_eq!(drain_sorted(h), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn replace_root_returns_old_minimum() {
        let mut h = heap();
        h.push(10, 1);
        h.push(20, 2);
        h.push(5, 3);
        let (old_key, old_val) = h.replace_root(15, 4);
        assert_eq!((old_key, old_val), (5, 3));
        assert_eq!(h.peek().map(|&(k, _)| k), Some(10));
        assert!(h.is_valid_heap());
        assert_eq!(h.pop(), Some((10, 1)));
        assert_eq!(h.pop(), Some((15, 4)));
        assert_eq!(h.pop(), Some((20, 2)));
        assert!(h.is_empty());
    }

    #[test]
    fn replace_root_with_new_minimum_stays_at_root() {
        let mut h = heap();
        h.push(10, 1);
        h.push(20, 2);
        h.replace_root(1, 9);
        assert_eq!(h.peek(), Some(&(1, 9)));
    }

    #[test]
    fn rebuild_heapifies() {
        let mut h = heap();
        h.push(99, 0);
        h.rebuild((0..40u64).map(|k| ((k * 37) % 41, k as u32)));
        assert!(h.is_valid_heap());
        let mut want: Vec<u64> = (0..40u64).map(|k| (k * 37) % 41).collect();
        want.sort_unstable();
        assert_eq!(drain_sorted(h.clone()), want);
        h.rebuild(std::iter::empty());
        assert!(h.is_empty());
    }

    #[test]
    fn duplicate_keys_are_allowed() {
        let mut h = heap();
        for v in 0..5 {
            h.push(7, v);
        }
        assert_eq!(h.len(), 5);
        let mut payloads: Vec<u32> = std::iter::from_fn(|| h.pop().map(|(_, v)| v)).collect();
        payloads.sort_unstable();
        assert_eq!(payloads, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn float_keys_work() {
        let mut h: DaryHeap<f32, u64> = DaryHeap::with_capacity(3);
        h.push(0.5, 1);
        h.push(0.25, 2);
        h.push(0.75, 3);
        assert_eq!(h.pop(), Some((0.25, 2)));
        assert_eq!(h.pop(), Some((0.5, 1)));
        assert_eq!(h.pop(), Some((0.75, 3)));
    }

    #[test]
    fn clear_retains_capacity_and_empties() {
        let mut h = DaryHeap::<u64, u32>::with_capacity(16);
        for k in 0..16 {
            h.push(k, 0);
        }
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn heap_property_maintained_under_mixed_ops() {
        let mut h = heap();
        for i in 0..50 {
            h.push((i * 37) % 101, i as u32);
            if i % 3 == 0 {
                h.pop();
            }
            if i % 7 == 0 && !h.is_empty() {
                h.replace_root(i, 0);
            }
            assert!(h.is_valid_heap(), "violated at step {i}");
        }
    }
}
