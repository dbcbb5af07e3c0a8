//! Allocation budget of one whole publish — the merge, the snapshot and the
//! kernel over it — under a counting allocator (the pattern of
//! `crates/core/tests/steady_state_allocs.rs`).
//!
//! A ten-click batch at the recent end of the rank order may allocate the
//! last segment of sessions over again, O(touched) postings, and the two
//! things that stay O(items): the posting table's handles and the kernel's
//! idf table. Nothing may grow with the number of sessions or clicks
//! indexed: the same publish into an index four times the size allocates
//! the same bytes. `snapshot()` allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use serenade_core::index::SEGMENT_SESSIONS;
use serenade_core::{Click, VmisConfig, VmisKnn};
use serenade_index::IncrementalIndexer;

thread_local! {
    /// (allocations, bytes) requested by the current thread.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn count(bytes: usize) {
    // `try_with`: a thread that is shutting down may still allocate.
    let _ = ALLOCATED.try_with(|c| c.set((c.get().0 + 1, c.get().1 + bytes as u64)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a `Cell` in a
// const-initialised thread-local without a destructor, so it cannot
// allocate or unwind.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `layout` obligations are passed on as given.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    // SAFETY: `ptr` came from `System` through this allocator, with `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: `ptr` came from `System` through this allocator, with
    // `layout`; the caller guarantees `new_size` is valid for it.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    let after = ALLOCATED.with(Cell::get);
    (out, after.0 - before.0, after.1 - before.1)
}

const ITEMS: u64 = 12_000;

/// Publishes a ten-click batch at the recent end of an index of `sessions`
/// sessions of four clicks; returns the allocations and the bytes the
/// publish asked for, the latter without the posting table's.
fn recent_end_publish(sessions: u64) -> (u64, usize) {
    let mut state = 5u64;
    let mut log = Vec::new();
    for session in 0..sessions {
        for step in 0..4 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            log.push(Click::new(
                session,
                (state >> 33) % ITEMS,
                1_000 + session * 10 + step,
            ));
        }
    }
    let mut inc = IncrementalIndexer::new(500).expect("positive capacity");
    inc.apply_batch(&log).expect("seed batch");
    let newest = 1_000 + sessions * 10;
    let batch = |n: u64| -> Vec<Click> {
        (0..10)
            .map(|i| {
                Click::new(
                    sessions + n * 5 + i / 2,
                    (n * 31 + i * 17) % ITEMS,
                    newest + n * 10 + i,
                )
            })
            .collect()
    };
    // The first batch grows the indexer's own vectors (the retained log,
    // the external ids) past their seed capacity.
    inc.apply_batch(&batch(0)).expect("warm-up batch");
    inc.take_sharing();

    let measured = batch(1);
    let (kernel, allocations, bytes) = allocated_by(|| {
        inc.apply_batch(&measured).expect("measured batch");
        let generation = inc.snapshot().expect("non-empty");
        VmisKnn::new(generation, VmisConfig::default()).expect("valid config")
    });
    let ((), snapshot_allocations, _) = allocated_by(|| drop(inc.snapshot()));
    assert_eq!(snapshot_allocations, 0, "a snapshot is a handle clone");

    let sharing = inc.take_sharing();
    assert_eq!(
        (sharing.segments_copied, sharing.segments_shared),
        (1, sessions / SEGMENT_SESSIONS as u64),
        "a recent-end merge writes the last segment"
    );
    let table = kernel.index().bytes().posting_table;
    assert!(bytes as usize > table, "the posting table's handles are cloned");
    (allocations, bytes as usize - table)
}

#[test]
fn a_recent_end_publish_allocates_the_same_at_four_times_the_index() {
    // What a publish writes over again depends on how full the last
    // segment is, not on how many precede it: 1,000 sessions in it at both
    // sizes, 7 full segments before it at one and 29 at the other.
    let small = 7 * SEGMENT_SESSIONS as u64 + 1_000; // ≈ 30 k
    let large = 29 * SEGMENT_SESSIONS as u64 + 1_000; // ≈ 120 k
    let (small_allocations, small_bytes) = recent_end_publish(small);
    let (large_allocations, large_bytes) = recent_end_publish(large);
    assert!(
        small_bytes.abs_diff(large_bytes) * 20 <= small_bytes,
        "{small_bytes} bytes at {small} sessions, {large_bytes} at {large}: a publish grew \
         with the index"
    );
    // A full segment of this log: timestamp, offset, and four items with
    // their slots a session.
    let segment = SEGMENT_SESSIONS * (8 + 4 + 4 * (8 + 4));
    assert!(
        large_bytes < 4 * segment,
        "{large_bytes} bytes beside the posting table; one segment is {segment}"
    );
    for allocations in [small_allocations, large_allocations] {
        assert!(
            allocations < 200,
            "{allocations} allocations for a 10-click batch over {ITEMS} items"
        );
    }
}
