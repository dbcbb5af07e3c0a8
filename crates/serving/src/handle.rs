//! Lock-free publication of the recommendation index.
//!
//! The daily rollover (Section 4.1) must swap a freshly built index under
//! live traffic. The seed implementation kept each pod's `VmisKnn` behind an
//! `RwLock<Arc<_>>`; even though writes are rare, every request paid a
//! read-lock acquisition, and a writer waiting on the lock could momentarily
//! convoy readers. [`IndexHandle`] replaces that with epoch-style
//! publication: the current value lives behind an `AtomicPtr` produced by
//! `Arc::into_raw`, readers pin it with two wait-free atomic ops, and the
//! single writer swaps the pointer and waits for the short pinning windows
//! to drain before dropping its reference to the old value — readers never
//! block, and in-flight requests finish on the index they started with.
//!
//! Reclamation protocol (RCU-flavoured): a reader bumps one of `SLOTS`
//! cache-line-padded guard counters, loads the pointer, bumps the `Arc`
//! strong count, and releases its guard. The writer swaps the pointer and
//! then spins until every guard counter reads zero; at that point every
//! reader that could have observed the *old* pointer has already secured its
//! own strong reference, so dropping the writer's reference is safe. The
//! guard is held only across two atomic increments — the writer's wait is
//! bounded and tiny, and rollovers are daily.
//!
//! The protocol is model-checked: `tests/loom_models.rs` explores the
//! reader/writer interleavings under the `loom` shim (build with
//! `--features loom`), including two seeded mutations — skipping
//! [`IndexHandle::wait_for_readers`] and weakening the orderings below —
//! that the checker must catch.

use crate::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use crate::sync::{self, Arc};

/// Number of reader guard slots. Readers hash their thread onto a slot, so
/// guard traffic from different cores rarely shares a cache line.
#[cfg(not(feature = "loom"))]
const SLOTS: usize = 16;
/// Under the model checker two slots keep the schedule tree tractable while
/// still exercising the multi-slot drain loop.
#[cfg(feature = "loom")]
const SLOTS: usize = 2;

/// Memory orderings of the four atomic operations the reclamation protocol
/// stands on, named so the model checker can prove which ones are
/// load-bearing (the `mutation-weak-orderings` feature swaps in the weaker
/// set below and `tests/loom_models.rs` asserts the checker rejects it).
///
/// Why SeqCst everywhere here: reader (`pin` then `ptr load`) and writer
/// (`ptr swap` then `guard load`) form a Dekker-style store/load pattern.
/// With anything weaker than SeqCst the writer's guard load may read a
/// *stale zero* from before the reader's pin — the writer then frees the
/// value while the reader, which loaded the old pointer, is still about to
/// bump its strong count: use-after-free. Acquire/Release only orders
/// loads *after* stores it synchronises with; it does not forbid the
/// store→load reordering this protocol must exclude.
#[cfg(not(feature = "mutation-weak-orderings"))]
mod ord {
    use super::Ordering;
    /// Reader's guard increment (`fetch_add`).
    pub const PIN: Ordering = Ordering::SeqCst;
    /// Reader's pointer load.
    pub const PTR_LOAD: Ordering = Ordering::SeqCst;
    /// Writer's pointer swap.
    pub const PTR_SWAP: Ordering = Ordering::SeqCst;
    /// Writer's guard drain loads.
    pub const GUARD_WAIT: Ordering = Ordering::SeqCst;
}
/// Seeded mutation: the plausible-looking Acquire/Release variant. The
/// model checker must find the stale-guard-read schedule that makes it
/// unsound.
#[cfg(feature = "mutation-weak-orderings")]
mod ord {
    use super::Ordering;
    // ORDERING: deliberately *wrong* partner set — the pin (Relaxed) no
    // longer participates in the SeqCst total order the Dekker-style
    // pin/swap handshake needs, so the loom model can catch the writer
    // freeing an index a pinned reader still sees. Compiled only under the
    // `mutation-weak-orderings` feature; never in production builds.
    pub const PIN: Ordering = Ordering::Relaxed;
    pub const PTR_LOAD: Ordering = Ordering::Acquire; // ORDERING: seeded mutation, see module comment
    pub const PTR_SWAP: Ordering = Ordering::AcqRel; // ORDERING: seeded mutation, see module comment
    pub const GUARD_WAIT: Ordering = Ordering::Acquire; // ORDERING: seeded mutation, see module comment
}

/// Pads a guard counter to its own cache line to prevent false sharing.
#[repr(align(64))]
struct PaddedCounter(AtomicUsize);

/// A shared, atomically replaceable `Arc<T>` with wait-free readers.
pub struct IndexHandle<T> {
    current: AtomicPtr<T>,
    /// Monotone publication counter: 1 for the initial value, bumped once
    /// per [`IndexHandle::store`] *after* the pointer swap. Consumers that
    /// cache results derived from the published value stamp them with a
    /// generation read *before* the pointer load
    /// ([`IndexHandle::load_with_generation`]); the swap-then-bump /
    /// read-then-load pairing (all SeqCst) guarantees a stamp is never
    /// newer than the value it labels, so a stamp equal to the current
    /// generation proves the cached result came from the current index.
    generation: AtomicU64,
    guards: [PaddedCounter; SLOTS],
}

impl<T> IndexHandle<T> {
    /// Creates a handle publishing `value`.
    pub fn new(value: Arc<T>) -> Self {
        Self {
            current: AtomicPtr::new(Arc::into_raw(value).cast_mut()),
            generation: AtomicU64::new(1),
            guards: std::array::from_fn(|_| PaddedCounter(AtomicUsize::new(0))),
        }
    }

    #[inline]
    fn slot(&self) -> &AtomicUsize {
        // Cheap per-thread slot choice; collisions only cost some sharing.
        &self.guards[serenade_telemetry::sync::shard_slot(SLOTS)].0
    }

    /// Returns the currently published value. Wait-free: two atomic
    /// increments and one atomic load; never blocks, regardless of
    /// concurrent [`IndexHandle::store`] calls.
    pub fn load(&self) -> Arc<T> {
        let guard = self.slot();
        guard.fetch_add(1, ord::PIN);
        let ptr = self.current.load(ord::PTR_LOAD);
        // SAFETY: guard-counter protocol, reader side. Our slot counter is
        // non-zero (the SeqCst `fetch_add` above is globally ordered before
        // this load), so a writer that swapped `current` before our load
        // cannot have passed `wait_for_readers` yet and has not dropped its
        // reference: `ptr` points at a live allocation with strong count
        // ≥ 1 for the whole window until the `fetch_sub` below. Bumping the
        // strong count first and then claiming it with `from_raw` therefore
        // never revives a freed Arc, and the handle's own reference (or the
        // writer's pre-drop reference) keeps the count balanced.
        let value = unsafe {
            Arc::increment_strong_count(ptr);
            Arc::from_raw(ptr)
        };
        // ORDERING: Release pairs with the writer's `GUARD_WAIT` drain
        // loads in `store` — it keeps the strong-count increment above
        // ordered before the guard drop that lets the writer proceed;
        // nothing after this line touches the pointee.
        guard.fetch_sub(1, Ordering::Release);
        value
    }

    /// The current publication generation: 1 for the initial value, +1 per
    /// [`IndexHandle::store`].
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Returns the published value together with a generation stamp that is
    /// **never newer than the value**: the stamp is read before the pointer,
    /// and the writer bumps the counter only after its swap, so under the
    /// SeqCst total order `stamp == g` implies the load returned the value
    /// of publication `g` or a later one. Derived results cached under this
    /// stamp therefore never label old-index output with a new generation —
    /// the invariant the prediction cache's loom model verifies.
    pub fn load_with_generation(&self) -> (Arc<T>, u64) {
        let generation = self.generation.load(Ordering::SeqCst);
        (self.load(), generation)
    }

    /// Atomically publishes `value`; every subsequent [`IndexHandle::load`]
    /// (on any thread) returns it. Waits for readers currently inside their
    /// two-instruction pin window, then releases the previous value.
    pub fn store(&self, value: Arc<T>) {
        let old = self.current.swap(Arc::into_raw(value).cast_mut(), ord::PTR_SWAP);
        // Strictly after the swap (SeqCst): once a reader observes the new
        // generation, its subsequent pointer load cannot return the old
        // index, which is what lets a generation match stand in for "this
        // cached list was computed on the live index".
        self.generation.fetch_add(1, Ordering::SeqCst);
        #[cfg(not(feature = "mutation-skip-wait-for-readers"))]
        self.wait_for_readers();
        // SAFETY: guard-counter protocol, writer side. `old` came out of
        // the swap above, so no future reader can load it any more, and
        // `wait_for_readers` has observed every guard slot at zero after
        // the swap — any reader that loaded `old` inside its pin window has
        // already executed its `increment_strong_count` (the increment is
        // ordered before its guard release). The strong count we reclaim
        // here is the one `Arc::into_raw` leaked when `old` was published,
        // so this `from_raw` is the unique reclamation of that reference.
        drop(unsafe { Arc::from_raw(old) });
    }

    /// Spins until every reader guard slot reads zero. Bounded and tiny:
    /// guards are only held across two atomic increments.
    #[cfg_attr(feature = "mutation-skip-wait-for-readers", allow(dead_code))]
    fn wait_for_readers(&self) {
        for guard in &self.guards {
            let mut spins = 0u32;
            while guard.0.load(ord::GUARD_WAIT) != 0 {
                spins += 1;
                if spins > 64 {
                    sync::yield_now();
                } else {
                    sync::spin_loop_hint();
                }
            }
        }
    }
}

impl<T> Drop for IndexHandle<T> {
    fn drop(&mut self) {
        // ORDERING: Relaxed with no partner: `&mut self` proves no reader
        // or writer is concurrent with the drop, so there is nothing to
        // order against.
        //
        // SAFETY: `current` always holds the pointer leaked by the
        // `Arc::into_raw` of the most recent `new`/`store` publication, and
        // exclusive access means no reader is inside its pin window, so
        // reclaiming that reference exactly once here is sound.
        drop(unsafe { Arc::from_raw(self.current.load(Ordering::Relaxed)) });
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
