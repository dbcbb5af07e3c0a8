//! Allocation counts of the warmed-up kernel under a counting allocator.
//!
//! `Scratch` promises that a steady-state request allocates nothing but
//! the list it returns. This suite holds it to that: the only allocation of
//! a warmed-up `recommend_with_scratch` is its result.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use serenade_core::{Click, ItemId, SessionIndex, VmisConfig, VmisKnn};

thread_local! {
    /// Allocations made by the current thread (tests run on their own).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: a thread that is shutting down may still allocate.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a `Cell` in a
// const-initialised thread-local without a destructor, so it cannot
// allocate or unwind.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `layout` obligations are passed on as given.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    // SAFETY: `ptr` came from `System` through this allocator, with `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: `ptr` came from `System` through this allocator, with
    // `layout`; the caller guarantees `new_size` is valid for it.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// 300 sessions of 6 items over 60 items: every window below has more
/// scored candidates than `how_many`, so extraction selects and truncates.
fn recommender() -> VmisKnn {
    let mut state = 7u64;
    let mut clicks = Vec::new();
    for session in 0..300u64 {
        for step in 0..6u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            clicks.push(Click::new(session, (state >> 33) % 60, session * 10 + step));
        }
    }
    let index = SessionIndex::build(&clicks, 500).expect("non-empty log");
    VmisKnn::new(index, VmisConfig::default()).expect("valid config")
}

const WINDOWS: [&[ItemId]; 4] = [&[1, 2, 3], &[10, 4], &[7, 8, 9, 1], &[30]];

#[test]
fn warmed_up_request_allocates_only_its_result() {
    let vmis = recommender();
    let mut scratch = vmis.scratch();
    for window in WINDOWS {
        vmis.recommend_with_scratch(window, &mut scratch);
    }
    for window in WINDOWS {
        let (recs, allocs) = allocations_of(|| vmis.recommend_with_scratch(window, &mut scratch));
        assert_eq!(recs.len(), vmis.config().how_many, "window {window:?} under-filled");
        assert_eq!(allocs, 1, "window {window:?}");
    }
}
