//! Live-byte peak of loading an index, under a counting allocator (the
//! pattern of `merge_allocs.rs`, tracking live bytes instead of requests).
//!
//! A node's peak RSS is reached while it loads: the artefact it read, plus
//! whatever `read_index` holds on the way to the finished index. The
//! contract: that is the index itself and nothing else — no payload-sized
//! copy of the artefact, no flat columns on the way to the segments, no
//! second posting table in a transport form — and `VmisKnn::new` allocates
//! its per-slot idf table and nothing else, not even in passing. The same
//! run checks `SessionIndex::bytes` and `VmisKnn::idf_bytes` (what
//! `/metrics` publishes as `serenade_index_bytes`) against the bytes the
//! allocator actually handed out.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use serenade_core::{Click, SessionIndex, VmisConfig, VmisKnn};
use serenade_index::{read_index, write_index};

thread_local! {
    /// (live, peak) bytes of the current thread's allocations.
    static LIVE: Cell<(i64, i64)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn grow(by: i64) {
    // `try_with`: a thread that is shutting down may still allocate.
    let _ = LIVE.try_with(|c| {
        let live = c.get().0 + by;
        c.set((live, c.get().1.max(live)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a `Cell` in a
// const-initialised thread-local without a destructor, so it cannot
// allocate or unwind.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `layout` obligations are passed on as given.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        System.alloc(layout)
    }

    // SAFETY: `ptr` came from `System` through this allocator, with `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    // SAFETY: `ptr` came from `System` through this allocator, with
    // `layout`; the caller guarantees `new_size` is valid for it.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`; returns its result, the live bytes it left behind and the
/// highest live bytes it reached, both relative to the start.
fn live_and_peak<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let start = LIVE.with(|c| {
        c.set((c.get().0, c.get().0));
        c.get().0
    });
    let out = f();
    let (live, peak) = LIVE.with(Cell::get);
    (out, (live - start) as usize, (peak - start) as usize)
}

/// 60k sessions of four clicks over 20k items, timestamps ascending.
fn artefact() -> Vec<u8> {
    let mut state = 3u64;
    let mut log = Vec::new();
    for session in 0..60_000u64 {
        for step in 0..4 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            log.push(Click::new(session, (state >> 33) % 20_000, 1_000 + session * 10 + step));
        }
    }
    let index = SessionIndex::build(&log, 500).expect("non-empty log");
    let mut bytes = Vec::new();
    write_index(&index, &mut bytes).expect("in-memory write");
    bytes
}

#[test]
fn loading_holds_the_finished_index_and_nothing_else() {
    const SLACK: usize = 4 * 1024;
    let artefact = artefact();

    let (index, index_bytes, load_peak) =
        live_and_peak(|| read_index(&artefact).expect("own artefact"));
    assert!(index.num_sessions() >= 60_000 && artefact.len() > 2_000_000);
    assert!(
        load_peak <= index_bytes + SLACK,
        "read_index peaked at {load_peak} live bytes for an index of {index_bytes} \
         (artefact: {} bytes)",
        artefact.len()
    );

    // The per-structure gauges add up to what the allocator handed out.
    let layout = index.bytes();
    assert!(
        layout.total().abs_diff(index_bytes) <= SLACK,
        "{layout:?} totals {}, allocated {index_bytes}",
        layout.total()
    );

    let (vmis, kernel_bytes, kernel_peak) =
        live_and_peak(|| VmisKnn::new(index, VmisConfig::default()).expect("valid config"));
    assert_eq!(vmis.idf_bytes(), 4 * vmis.index().slot_items().len());
    assert!(
        kernel_bytes.abs_diff(vmis.idf_bytes()) <= SLACK && kernel_peak == kernel_bytes,
        "VmisKnn::new peaked at {kernel_peak} and left {kernel_bytes} bytes behind for an idf \
         table of {}",
        vmis.idf_bytes()
    );
}
