//! Live-byte peak and allocation count of loading an index, under a
//! counting allocator (the pattern of `build_allocs.rs`: every thread's
//! allocations, since a load runs on several).
//!
//! A node's peak RSS is reached while it loads: the artefact it read, plus
//! whatever `read_index` holds on the way to the finished index. An
//! artefact holds the rows and no postings, so a load derives the postings,
//! and the contract is: the finished index, and nothing beside it at the
//! peak, at every thread count. The per-slot tables are columns at their
//! narrowest widths, and the derivation's scratch stays below what is still
//! to come when it is live: the 4-byte holder counts are freed once the
//! supports are a column, and the fill counts each posting down in one
//! column at the width of the longest (2 bytes a slot at `m_max` 500),
//! while the arena column and the slot table of at least 4/3 buckets a slot
//! are still to be made. The postings are filled on the caller's thread
//! straight into the one arena: no share of them is held beside it. The
//! slot → item table is read from the artefact twice, to check it and to
//! write it at the width of its largest id, and never held at 8 bytes an
//! item. There is no payload-sized copy of the
//! artefact and no flat column on the way to the segments: each range of
//! segments reads its rows into one `u32` buffer sized for its largest
//! segment and reused, which is freed before the postings are derived. On
//! one thread a load makes a constant number of allocations plus a few a
//! segment, none a posting; and `VmisKnn::new` allocates its per-slot idf
//! table and nothing else, not even in passing.
//!
//! Deriving the postings on every thread once raised `node.browse`'s
//! `rss_mb` from 15.7–15.8 to 20.2–20.5 MB on `ecom-1m` at 2 threads,
//! because every range of segments filled its share of every posting apart
//! and the shares were then copied into the arena (EXPERIMENTS.md X25):
//! the loads at 2, 3 and 8 threads below hold that shape out.
//! The same run checks `SessionIndex::bytes` and `VmisKnn::idf_bytes` (what
//! `/metrics` publishes as `serenade_index_bytes`) against the bytes the
//! allocator actually handed out.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use serenade_core::{Click, SessionIndex, VmisConfig, VmisKnn};
use serenade_index::binfmt::read_index_with_threads;
use serenade_index::write_index;

/// Live bytes of every thread's allocations, and their peak.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
/// Allocations and reallocations every thread requested.
static REQUESTS: AtomicU64 = AtomicU64::new(0);

struct Counting;

fn grow(by: i64) {
    // Relaxed: statistics only; the test reads them after joining every
    // thread that allocated.
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn request() {
    // Relaxed: as `grow`.
    REQUESTS.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only two atomics,
// which cannot allocate or unwind.
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
/// allocations it requested. The only test in this binary, so no other test
/// allocates meanwhile.
fn live_and_peak<T>(f: impl FnOnce() -> T) -> (T, usize, usize, u64) {
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let requests = REQUESTS.load(Ordering::Relaxed);
    let out = f();
    let (live, peak) = (LIVE.load(Ordering::Relaxed), PEAK.load(Ordering::Relaxed));
    let requested = REQUESTS.load(Ordering::Relaxed) - requests;
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
    // The slot → item column and its `Arc`, the segment list, the job list
    // of the one range of segments, its row buffer and its result list,
    // the segment list's shared copy; the job list of the one counting job,
    // its holder counts, the support and start columns, the job list of the
    // one fill and its countdown column, the arena, the arena column, the
    // records' `Arc`, the item → slot table's buckets and its `Arc`, and
    // the table of arenas: nineteen.
    const ALLOCATIONS: u64 = 19;
    // A segment's timestamps, its offsets and its slots, each column at its
    // width, and its `Arc`.
    const PER_SEGMENT: u64 = 4;
    let artefact = artefact();

    for threads in [1, 2, 3, 8] {
        let (index, index_bytes, load_peak, allocations) = live_and_peak(|| {
            read_index_with_threads(&artefact, threads).expect("own artefact")
        });
        let slots = index.slot_items().len();
        assert!(index.num_sessions() >= 60_000 && artefact.len() > 500_000);
        assert!(
            load_peak <= index_bytes + SLACK,
            "threads {threads}: read_index peaked at {load_peak} live bytes for an index of \
             {index_bytes} and {slots} slots (artefact: {} bytes)",
            artefact.len()
        );
        let segments = index.segments().len() as u64;
        assert!(index.num_items() > 15_000 && segments < 20);
        // Each thread a load starts allocates beside it, so the count
        // holds on one.
        assert!(
            threads > 1 || allocations <= ALLOCATIONS + PER_SEGMENT * segments,
            "read_index made {allocations} allocations for {segments} segments and {} postings",
            index.num_items()
        );

        // The per-structure gauges add up to what the allocator handed out.
        let layout = index.bytes();
        assert!(
            layout.total().abs_diff(index_bytes) <= SLACK,
            "threads {threads}: {layout:?} totals {}, allocated {index_bytes}",
            layout.total()
        );
        if threads > 1 {
            continue;
        }

        let (vmis, kernel_bytes, kernel_peak, _) =
            live_and_peak(|| VmisKnn::new(index, VmisConfig::default()).expect("valid config"));
        assert_eq!(vmis.idf_bytes(), 4 * vmis.index().slot_items().len());
        assert!(
            kernel_bytes.abs_diff(vmis.idf_bytes()) <= SLACK && kernel_peak == kernel_bytes,
            "VmisKnn::new peaked at {kernel_peak} and left {kernel_bytes} bytes behind for an \
             idf table of {}",
            vmis.idf_bytes()
        );
    }
}
