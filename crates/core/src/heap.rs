//! d-ary min-heaps.
//!
//! VMIS-kNN maintains two bounded heaps per request: `b_t`, a capacity-`m`
//! min-heap over session timestamps used to evict the oldest candidate
//! session, and `N_s`, a capacity-`k` min-heap over similarity scores used to
//! keep the top-k neighbours. The workload is insertion-heavy (every
//! candidate either pushes or replaces the root), and the paper notes that
//! **octonary heaps** (d = 8) outperform binary heaps here because a flatter
//! tree means fewer levels to sift through on insert, at the cost of more
//! comparisons on (rarer) removals.
//!
//! The heap is a min-heap over a key type `K` with an attached payload `V`.
//! Keys only need [`PartialOrd`]: the recommendation scores are `f32` and are
//! guaranteed finite by construction (weights and idf are finite, sums of
//! finitely many finite terms), so the partial order is total on the values
//! that actually occur. A `NaN` key would be rejected in debug builds.

/// A d-ary min-heap with payloads.
///
/// `D` is the arity; `D = 2` is a classic binary heap, `D = 8` the paper's
/// octonary heap. The root (returned by [`peek`](Self::peek) /
/// [`pop`](Self::pop)) is the entry with the **smallest** key.
#[derive(Debug, Clone)]
pub struct DaryHeap<K, V, const D: usize> {
    data: Vec<(K, V)>,
}

impl<K: PartialOrd + Copy, V: Copy, const D: usize> Default for DaryHeap<K, V, D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: PartialOrd + Copy, V: Copy, const D: usize> DaryHeap<K, V, D> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        assert!(D >= 2, "heap arity must be at least 2");
        Self { data: Vec::new() }
    }

    /// Creates an empty heap with space for `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(D >= 2, "heap arity must be at least 2");
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

    /// Inserts an entry in `O(log_D n)`.
    #[inline]
    pub fn push(&mut self, key: K, value: V) {
        debug_assert!(key.partial_cmp(&key).is_some(), "heap keys must not be NaN");
        self.data.push((key, value));
        self.sift_up(self.data.len() - 1);
    }

    /// Removes and returns the minimum entry in `O(D · log_D n)`.
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

    /// Iterates over entries in unspecified (heap) order.
    pub fn iter(&self) -> impl Iterator<Item = &(K, V)> {
        self.data.iter()
    }

    /// Consumes the heap and returns entries sorted by ascending key.
    pub fn into_sorted_vec(mut self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.data.len());
        while let Some(entry) = self.pop() {
            out.push(entry);
        }
        out
    }

    #[inline]
    fn sift_up(&mut self, mut idx: usize) {
        while idx > 0 {
            let parent = (idx - 1) / D;
            if self.data[idx].0 < self.data[parent].0 {
                self.data.swap(idx, parent);
                idx = parent;
            } else {
                break;
            }
        }
    }

    #[inline]
    fn sift_down(&mut self, mut idx: usize) {
        let len = self.data.len();
        loop {
            let first_child = idx * D + 1;
            if first_child >= len {
                break;
            }
            let last_child = (first_child + D).min(len);
            // Find the smallest child.
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
        (1..self.data.len()).all(|i| self.data[(i - 1) / D].0 <= self.data[i].0)
    }
}

/// Binary heap alias (d = 2).
pub type BinaryHeap2<K, V> = DaryHeap<K, V, 2>;
/// Octonary heap alias (d = 8), the paper's default.
pub type OctonaryHeap<K, V> = DaryHeap<K, V, 8>;

/// A d-ary min-heap whose arity is chosen at runtime.
///
/// Used by the VMIS-kNN pipeline so that heap arity can be an ordinary
/// configuration knob (the `A1` ablation benchmark sweeps it) without
/// monomorphising the whole recommendation path per arity. The const-generic
/// [`DaryHeap`] remains available where the arity is statically known.
#[derive(Debug, Clone)]
pub struct RuntimeDaryHeap<K, V> {
    data: Vec<(K, V)>,
    d: usize,
}

impl<K: PartialOrd + Copy, V: Copy> RuntimeDaryHeap<K, V> {
    /// Creates an empty heap of arity `d` (≥ 2) with preallocated `capacity`.
    pub fn with_arity_and_capacity(d: usize, capacity: usize) -> Self {
        assert!(d >= 2, "heap arity must be at least 2");
        Self { data: Vec::with_capacity(capacity), d }
    }

    /// The configured arity.
    #[inline]
    pub fn arity(&self) -> usize {
        self.d
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

    /// Removes all entries, keeping the allocation and arity.
    #[inline]
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// The minimum entry, if any.
    #[inline]
    pub fn peek(&self) -> Option<&(K, V)> {
        self.data.first()
    }

    /// Inserts an entry.
    #[inline]
    pub fn push(&mut self, key: K, value: V) {
        debug_assert!(key.partial_cmp(&key).is_some(), "heap keys must not be NaN");
        self.data.push((key, value));
        let mut idx = self.data.len() - 1;
        while idx > 0 {
            let parent = (idx - 1) / self.d;
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

    /// Replaces the contents with `entries` and heapifies bottom-up in
    /// `O(n)` — cheaper than `n` pushes when the heap is only needed once
    /// the entries are already known.
    pub fn rebuild(&mut self, entries: impl IntoIterator<Item = (K, V)>) {
        self.data.clear();
        self.data.extend(entries);
        if self.data.len() > 1 {
            for idx in (0..=(self.data.len() - 2) / self.d).rev() {
                self.sift_down(idx);
            }
        }
    }

    /// Replaces the root, returning the old root. Panics if empty.
    pub fn replace_root(&mut self, key: K, value: V) -> (K, V) {
        debug_assert!(key.partial_cmp(&key).is_some(), "heap keys must not be NaN");
        let old = self.data[0];
        self.data[0] = (key, value);
        self.sift_down(0);
        old
    }

    /// Iterates over entries in unspecified (heap) order.
    pub fn iter(&self) -> impl Iterator<Item = &(K, V)> {
        self.data.iter()
    }

    #[inline]
    fn sift_down(&mut self, mut idx: usize) {
        let len = self.data.len();
        loop {
            let first_child = idx * self.d + 1;
            if first_child >= len {
                break;
            }
            let last_child = (first_child + self.d).min(len);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_sorted<const D: usize>(mut h: DaryHeap<u64, u32, D>) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some((k, _)) = h.pop() {
            out.push(k);
        }
        out
    }

    #[test]
    fn empty_heap_behaviour() {
        let mut h: OctonaryHeap<u64, u32> = DaryHeap::new();
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        assert_eq!(h.peek(), None);
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn pop_yields_ascending_order_binary() {
        let mut h: BinaryHeap2<u64, u32> = DaryHeap::new();
        for k in [5u64, 3, 8, 1, 9, 2, 7, 4, 6, 0] {
            h.push(k, k as u32);
        }
        assert_eq!(drain_sorted(h), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn pop_yields_ascending_order_octonary() {
        let mut h: OctonaryHeap<u64, u32> = DaryHeap::new();
        for k in (0..100).rev() {
            h.push(k, 0);
        }
        assert_eq!(drain_sorted(h), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn replace_root_returns_old_minimum() {
        let mut h: OctonaryHeap<u64, u32> = DaryHeap::new();
        h.push(10, 1);
        h.push(20, 2);
        h.push(5, 3);
        let (old_key, old_val) = h.replace_root(15, 4);
        assert_eq!((old_key, old_val), (5, 3));
        assert_eq!(h.peek().map(|&(k, _)| k), Some(10));
        assert!(h.is_valid_heap());
    }

    #[test]
    fn replace_root_with_new_minimum_stays_at_root() {
        let mut h: BinaryHeap2<u64, u32> = DaryHeap::new();
        h.push(10, 1);
        h.push(20, 2);
        h.replace_root(1, 9);
        assert_eq!(h.peek(), Some(&(1, 9)));
    }

    #[test]
    fn duplicate_keys_are_allowed() {
        let mut h: DaryHeap<u64, u32, 4> = DaryHeap::new();
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
        let mut h: OctonaryHeap<f32, u64> = DaryHeap::new();
        h.push(0.5, 1);
        h.push(0.25, 2);
        h.push(0.75, 3);
        assert_eq!(h.pop(), Some((0.25, 2)));
        assert_eq!(h.pop(), Some((0.5, 1)));
        assert_eq!(h.pop(), Some((0.75, 3)));
    }

    #[test]
    fn clear_retains_capacity_and_empties() {
        let mut h: OctonaryHeap<u64, u32> = DaryHeap::with_capacity(16);
        for k in 0..16 {
            h.push(k, 0);
        }
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn into_sorted_vec_is_ascending() {
        let mut h: DaryHeap<u64, u32, 16> = DaryHeap::new();
        for k in [4u64, 1, 3, 2] {
            h.push(k, 0);
        }
        let keys: Vec<u64> = h.into_sorted_vec().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![1, 2, 3, 4]);
    }

    #[test]
    fn runtime_heap_matches_const_heap_behaviour() {
        for d in [2usize, 3, 4, 8, 16] {
            let mut h = RuntimeDaryHeap::<u64, u32>::with_arity_and_capacity(d, 8);
            assert_eq!(h.arity(), d);
            for k in [9u64, 2, 7, 4, 11, 0, 5] {
                h.push(k, k as u32);
            }
            let mut got = Vec::new();
            while let Some((k, _)) = h.pop() {
                got.push(k);
            }
            assert_eq!(got, vec![0, 2, 4, 5, 7, 9, 11], "arity {d}");
        }
    }

    #[test]
    fn runtime_heap_replace_root() {
        let mut h = RuntimeDaryHeap::<u64, u32>::with_arity_and_capacity(8, 4);
        h.push(3, 30);
        h.push(1, 10);
        h.push(2, 20);
        assert_eq!(h.replace_root(5, 50), (1, 10));
        assert_eq!(h.pop(), Some((2, 20)));
        assert_eq!(h.pop(), Some((3, 30)));
        assert_eq!(h.pop(), Some((5, 50)));
        assert!(h.is_empty());
        h.clear();
        assert_eq!(h.peek(), None);
    }

    #[test]
    fn runtime_heap_rebuild_heapifies() {
        for d in [2usize, 3, 8] {
            let mut h = RuntimeDaryHeap::<u64, u32>::with_arity_and_capacity(d, 4);
            h.push(99, 0);
            h.rebuild((0..40u64).map(|k| ((k * 37) % 41, k as u32)));
            let got: Vec<u64> = std::iter::from_fn(|| h.pop().map(|(k, _)| k)).collect();
            let mut want: Vec<u64> = (0..40u64).map(|k| (k * 37) % 41).collect();
            want.sort_unstable();
            assert_eq!(got, want, "arity {d}");
            h.rebuild(std::iter::empty());
            assert!(h.is_empty());
        }
    }

    #[test]
    fn heap_property_maintained_under_mixed_ops() {
        let mut h: DaryHeap<u64, u32, 4> = DaryHeap::new();
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
