//! Publication of the recommendation index.
//!
//! The daily rollover (Section 4.1) must swap a freshly built index while
//! requests keep being answered, and in-flight requests finish on the index
//! they started with. [`IndexHandle`] keeps the published `Arc` and its
//! generation in one mutex: a reader clones the `Arc` under the lock, a
//! writer swaps it under the lock, and each holds the lock for a few
//! instructions only.
//!
//! A mutex suffices because the handle's traffic is small next to the work
//! around it:
//!
//! * **reads** — on a node, one lock-free [`IndexHandle::generation`] per
//!   cacheable request and one [`IndexHandle::load_with_generation`] per
//!   cache miss, beside a VMIS-kNN run; on the router, one
//!   [`IndexHandle::load`] of the membership per forwarded predict and one
//!   per failover, beside a round trip to a node; eight loads per
//!   `/metrics` scrape;
//! * **writes** — the daily rollover (or `PUT /admin/index`), at most one
//!   ingest publish per `publish_interval` plus one per unlearn or flush,
//!   and the router's join, leave and publish.
//!
//! Concurrent readers already share the `Arc`'s strong count, so the lock
//! adds one more contended cache line to a load, not a new kind of cost.
//! The old value is dropped after the lock is released, so no reader waits
//! while an index is freed.

use std::sync::PoisonError;

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Arc, Mutex, MutexGuard};

/// A shared, atomically replaceable `Arc<T>` stamped with a publication
/// generation.
pub struct IndexHandle<T> {
    /// The published value and its generation: 1 for the initial value,
    /// +1 per [`IndexHandle::store`]. Read and written together, so a
    /// stamp always labels the value it was published with.
    current: Mutex<(Arc<T>, u64)>,
    /// A copy of `current`'s generation, written under its lock, so that
    /// [`IndexHandle::generation`] takes no lock. It only labels: a value
    /// is always read with the stamp beside it in `current`.
    generation: AtomicU64,
}

impl<T> IndexHandle<T> {
    /// Creates a handle publishing `value`.
    pub fn new(value: Arc<T>) -> Self {
        Self { current: Mutex::new((value, 1)), generation: AtomicU64::new(1) }
    }

    /// The one place the lock is taken. Every holder runs a few
    /// instructions and cannot panic, so a poisoned lock still holds a
    /// whole pair.
    fn locked(&self) -> MutexGuard<'_, (Arc<T>, u64)> {
        self.current.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the currently published value.
    pub fn load(&self) -> Arc<T> {
        self.load_with_generation().0
    }

    /// The current publication generation: 1 for the initial value, +1 per
    /// [`IndexHandle::store`]. One atomic load, no lock.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Returns the published value together with the generation it was
    /// published with. Both are read under one lock, so a result cached
    /// under this stamp was computed on exactly that publication: a stamp
    /// equal to the current generation proves a cached result came from the
    /// current index (the invariant the prediction cache's loom model
    /// checks).
    pub fn load_with_generation(&self) -> (Arc<T>, u64) {
        let current = self.locked();
        (Arc::clone(&current.0), current.1)
    }

    /// Publishes `value`; every later [`IndexHandle::load`] (on any thread)
    /// returns it. Readers that loaded the previous value keep it until
    /// they drop it; the handle's own reference is released after the lock.
    pub fn store(&self, value: Arc<T>) {
        let old = {
            let mut current = self.locked();
            let generation = current.1 + 1;
            self.generation.store(generation, Ordering::SeqCst);
            std::mem::replace(&mut *current, (value, generation)).0
        };
        drop(old);
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for IndexHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexHandle").field("current", &self.load()).finish()
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;

    #[test]
    fn load_returns_published_value() {
        let h = IndexHandle::new(Arc::new(41));
        assert_eq!(*h.load(), 41);
        h.store(Arc::new(42));
        assert_eq!(*h.load(), 42);
    }

    #[test]
    fn old_values_are_released_once_readers_leave() {
        let h = IndexHandle::new(Arc::new(String::from("first")));
        let pinned = h.load();
        h.store(Arc::new(String::from("second")));
        // The pre-swap reader still owns its value...
        assert_eq!(*pinned, "first");
        assert_eq!(Arc::strong_count(&pinned), 1, "handle gave up its reference");
        // ...and new readers see the new one.
        assert_eq!(*h.load(), "second");
    }

    #[test]
    fn generation_bumps_once_per_store() {
        let h = IndexHandle::new(Arc::new(0u64));
        assert_eq!(h.generation(), 1);
        let (v, g) = h.load_with_generation();
        assert_eq!((*v, g), (0, 1));
        h.store(Arc::new(1));
        h.store(Arc::new(2));
        assert_eq!(h.generation(), 3);
        let (v, g) = h.load_with_generation();
        assert_eq!((*v, g), (2, 3));
    }

    #[test]
    fn dropping_the_handle_releases_the_current_value() {
        let value = Arc::new(7u64);
        let h = IndexHandle::new(Arc::clone(&value));
        assert_eq!(Arc::strong_count(&value), 2);
        drop(h);
        assert_eq!(Arc::strong_count(&value), 1);
    }

    /// A published value whose `Drop` says that it started on `dropping`,
    /// then blocks until `release` is signalled.
    struct SlowDrop {
        id: u32,
        dropping: Option<std::sync::mpsc::Sender<()>>,
        release: Mutex<Option<std::sync::mpsc::Receiver<()>>>,
    }

    impl Drop for SlowDrop {
        fn drop(&mut self) {
            if let Some(dropping) = self.dropping.take() {
                dropping.send(()).unwrap();
                let release = self.release.get_mut().unwrap().take().unwrap();
                release.recv().unwrap();
            }
        }
    }

    #[test]
    fn a_load_while_the_old_value_drops_returns_the_new_value() {
        use std::sync::mpsc::channel;
        use std::time::Duration;
        let (dropping, started) = channel();
        let (release, released) = channel();
        let old = SlowDrop { id: 1, dropping: Some(dropping), release: Mutex::new(Some(released)) };
        let h = Arc::new(IndexHandle::new(Arc::new(old)));
        let writer = {
            let h = Arc::clone(&h);
            std::thread::spawn(move || {
                let new = SlowDrop { id: 2, dropping: None, release: Mutex::new(None) };
                h.store(Arc::new(new));
            })
        };
        // The writer is inside the old value's drop, and stays there until
        // released: a load that needs the handle's lock would wait on it.
        started.recv().unwrap();
        let (loaded, answer) = channel();
        let reader = {
            let h = Arc::clone(&h);
            std::thread::spawn(move || loaded.send(h.load().id).unwrap())
        };
        let seen = answer.recv_timeout(Duration::from_secs(10));
        release.send(()).unwrap();
        writer.join().unwrap();
        reader.join().unwrap();
        assert_eq!(seen, Ok(2), "a load waited while the old value was dropped");
    }

    /// A value whose invariant (`b == a + 1`) would be violated by a torn
    /// read of two halves from different versions.
    struct Versioned {
        a: u64,
        b: u64,
    }

    #[test]
    fn concurrent_loads_never_tear_and_never_block() {
        let h = Arc::new(IndexHandle::new(Arc::new(Versioned { a: 0, b: 1 })));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let progress: Arc<Vec<std::sync::atomic::AtomicU64>> =
            Arc::new((0..4).map(|_| std::sync::atomic::AtomicU64::new(0)).collect());
        let readers: Vec<_> = (0..4usize)
            .map(|r| {
                let h = Arc::clone(&h);
                let stop = Arc::clone(&stop);
                let progress = Arc::clone(&progress);
                std::thread::spawn(move || {
                    let mut reads = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let v = h.load();
                        assert_eq!(v.b, v.a + 1, "torn read across versions");
                        reads += 1;
                        progress[r].store(reads, Ordering::Relaxed);
                    }
                    reads
                })
            })
            .collect();
        // Swap until every reader has read at least once *while swaps were
        // in flight* — a fixed swap count can complete before the reader
        // threads are even scheduled.
        let mut round = 0u64;
        loop {
            round += 1;
            h.store(Arc::new(Versioned { a: round, b: round + 1 }));
            if round >= 2_000 && progress.iter().all(|p| p.load(Ordering::Relaxed) > 0) {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0, "readers must make progress throughout");
        }
        let last = h.load();
        assert_eq!((last.a, last.b), (round, round + 1));
    }
}
