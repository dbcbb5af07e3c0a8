//! Allocation budget of one publish-sized merge, under a counting allocator
//! (the pattern of `crates/core/tests/steady_state_allocs.rs`).
//!
//! A ten-click batch at the recent end of the rank order may allocate the
//! next generation's flat columns and its posting table once each, plus
//! O(touched) postings — and nothing that grows with the item catalogue or
//! the retained log: no allocation per shared posting, no hash grouping of
//! the whole log, no second copy of a column. `snapshot()` allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use serenade_core::Click;
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

#[test]
fn a_recent_end_merge_allocates_one_generation_of_flat_columns() {
    const SESSIONS: u64 = 30_000;
    const ITEMS: u64 = 12_000;
    let mut state = 5u64;
    let mut log = Vec::new();
    for session in 0..SESSIONS {
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
    let newest = 1_000 + SESSIONS * 10;
    let batch = |n: u64| -> Vec<Click> {
        (0..10)
            .map(|i| {
                Click::new(
                    SESSIONS + n * 5 + i / 2,
                    (n * 31 + i * 17) % ITEMS,
                    newest + n * 10 + i,
                )
            })
            .collect()
    };
    // The first batch grows the log's vectors past their seed capacity.
    inc.apply_batch(&batch(0)).expect("warm-up batch");

    let measured = batch(1);
    let (generation, allocations, bytes) = allocated_by(|| {
        inc.apply_batch(&measured).expect("measured batch");
        inc.snapshot().expect("non-empty")
    });
    let ((), snapshot_allocations, _) = allocated_by(|| drop(inc.snapshot()));
    assert_eq!(snapshot_allocations, 0, "a snapshot is a handle clone");

    // One generation: timestamps, CSR offsets, CSR items, and a posting
    // table of 32-byte buckets at a load factor that can dip to 7/16.
    let stats = generation.stats();
    let columns =
        8 * stats.num_sessions + 4 * (stats.num_sessions + 1) + 8 * stats.session_item_entries;
    let table = 33 * stats.num_items * 16 / 7 + 64;
    // Ten touched postings of at most 500 4-byte entries, and change.
    let touched = 10 * 500 * 4 * 2 + 16 * 1024;
    assert!(
        bytes as usize <= columns + table + touched,
        "{bytes} bytes allocated; budget {columns} (columns) + {table} (table) + {touched} (touched)"
    );
    assert!(
        bytes as usize >= columns,
        "the flat columns are written anew: {bytes} < {columns}"
    );
    assert!(
        allocations < 200,
        "{allocations} allocations for a 10-click batch over {ITEMS} items"
    );
}
