//! Live-byte peak and allocation count of loading an index, under a
//! counting allocator (the pattern of `merge_allocs.rs`, tracking live bytes
//! beside requests).
//!
//! A node's peak RSS is reached while it loads: the artefact it read, plus
//! whatever `read_index` holds on the way to the finished index. An
//! artefact holds the rows and no postings, so a load derives the postings,
//! and the contract is: the finished index, and nothing beside it at the
//! peak. The derivation's scratch — holder counts, supports, posting
//! offsets and fill cursor, 16 bytes a slot — is at most what is still to
//! come when it is live: the 12-byte records, written from the supports
//! once the arena is filled, and the slot table of at least 4/3 buckets of
//! 4 bytes a slot, made after the supports are freed. There is no
//! payload-sized copy of the artefact and no flat column on the way to the
//! segments: each segment's rows are read into two `u32` buffers sized for
//! the largest segment and reused, which are freed before the postings are
//! derived. It is made with a constant number of
//! allocations plus a few a segment, none a posting; and `VmisKnn::new`
//! allocates its per-slot idf table and nothing else, not even in passing.
//! The same run checks `SessionIndex::bytes` and `VmisKnn::idf_bytes` (what
//! `/metrics` publishes as `serenade_index_bytes`) against the bytes the
//! allocator actually handed out.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use serenade_core::{Click, SessionIndex, VmisConfig, VmisKnn};
use serenade_index::{read_index, write_index};

thread_local! {
    /// (live, peak) bytes of the current thread's allocations.
    static LIVE: Cell<(i64, i64)> = const { Cell::new((0, 0)) };
    /// Allocations and reallocations the current thread requested.
    static REQUESTS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn grow(by: i64) {
    // `try_with`: a thread that is shutting down may still allocate.
    let _ = LIVE.try_with(|c| {
        let live = c.get().0 + by;
        c.set((live, c.get().1.max(live)));
    });
}

fn request() {
    let _ = REQUESTS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a `Cell` in a
// const-initialised thread-local without a destructor, so it cannot
// allocate or unwind.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `layout` obligations are passed on as given.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        request();
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
        request();
        grow(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`; returns its result, the live bytes it left behind and the
/// highest live bytes it reached, both relative to the start, and the
/// allocations it requested.
fn live_and_peak<T>(f: impl FnOnce() -> T) -> (T, usize, usize, u64) {
    let start = LIVE.with(|c| {
        c.set((c.get().0, c.get().0));
        c.get().0
    });
    let requests = REQUESTS.with(Cell::get);
    let out = f();
    let (live, peak) = LIVE.with(Cell::get);
    let requested = REQUESTS.with(Cell::get) - requests;
    (out, (live - start) as usize, (peak - start) as usize, requested)
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
    // The slot → item table, where each segment's columns lie until its
    // rows are read, the two buffers every segment's offsets and slots are
    // read into, the segment list and its shared copy; the job list and the
    // result list of the one counting job, its holder counts, the supports,
    // the room left in each posting, the posting offsets, the fill cursor,
    // the arena, the records, the item → slot table and the table of
    // arenas: seventeen.
    const ALLOCATIONS: u64 = 17;
    // A segment's timestamps, its offsets and its slots, each column at its
    // width, and its `Arc`.
    const PER_SEGMENT: u64 = 4;
    let artefact = artefact();

    let (index, index_bytes, load_peak, allocations) =
        live_and_peak(|| read_index(&artefact).expect("own artefact"));
    let slots = index.slot_items().len();
    assert!(index.num_sessions() >= 60_000 && artefact.len() > 500_000);
    assert!(
        load_peak <= index_bytes + SLACK,
        "read_index peaked at {load_peak} live bytes for an index of {index_bytes} and \
         {slots} slots (artefact: {} bytes)",
        artefact.len()
    );
    let segments = index.segments().len() as u64;
    assert!(index.num_items() > 15_000 && segments < 20);
    assert!(
        allocations <= ALLOCATIONS + PER_SEGMENT * segments,
        "read_index made {allocations} allocations for {segments} segments and {} postings",
        index.num_items()
    );

    // The per-structure gauges add up to what the allocator handed out.
    let layout = index.bytes();
    assert!(
        layout.total().abs_diff(index_bytes) <= SLACK,
        "{layout:?} totals {}, allocated {index_bytes}",
        layout.total()
    );

    let (vmis, kernel_bytes, kernel_peak, _) =
        live_and_peak(|| VmisKnn::new(index, VmisConfig::default()).expect("valid config"));
    assert_eq!(vmis.idf_bytes(), 4 * vmis.index().slot_items().len());
    assert!(
        kernel_bytes.abs_diff(vmis.idf_bytes()) <= SLACK && kernel_peak == kernel_bytes,
        "VmisKnn::new peaked at {kernel_peak} and left {kernel_bytes} bytes behind for an idf \
         table of {}",
        vmis.idf_bytes()
    );
}
