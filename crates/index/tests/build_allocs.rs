//! Live-byte peak of building an index, under a counting allocator (the
//! pattern of `load_allocs.rs`, counted across threads because the build
//! runs on several).
//!
//! The build groups the click log into per-session runs and fills exact-size
//! posting ranges (`serenade_core::index`, the `build` module): beside the
//! index it is making it holds the runs — 16 bytes a click, less than the
//! log itself — and small per-session and per-item arrays, never a
//! hash map of vectors per session or per item. The contract: at its peak a
//! build holds at most the click log's bytes more than the finished index,
//! at any thread count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use serenade_dataset::{generate, SyntheticConfig};
use serenade_index::{build_parallel, BuilderConfig};

/// Live bytes of every thread's allocations, and their peak.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

struct Counting;

fn grow(by: i64) {
    // Relaxed: statistics only; the test reads them after joining every
    // thread that allocated.
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only two atomics,
// which cannot allocate or unwind.
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
/// highest live bytes it reached, both relative to the start. The only test
/// in this binary, so no other test allocates meanwhile.
fn live_and_peak<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let out = f();
    let (live, peak) = (LIVE.load(Ordering::Relaxed), PEAK.load(Ordering::Relaxed));
    (out, (live - start) as usize, (peak - start) as usize)
}

#[test]
fn a_build_holds_at_most_the_click_log_beside_the_index() {
    let clicks = generate(&SyntheticConfig::ecom_1m().scaled(0.1).with_seed(5)).clicks;
    let log_bytes = std::mem::size_of_val(&clicks[..]);
    assert!(clicks.len() > 100_000);
    for threads in [1, 2, 3] {
        let (index, index_bytes, peak) = live_and_peak(|| {
            build_parallel(&clicks, BuilderConfig { threads, m_max: 500 }).expect("non-empty log")
        });
        assert!(index.num_sessions() > 20_000);
        let transient = peak - index_bytes;
        assert!(
            transient <= log_bytes,
            "threads {threads}: the build peaked at {peak} live bytes for an index of \
             {index_bytes}: {:.2}× the {log_bytes}-byte click log beside it",
            transient as f64 / log_bytes as f64
        );
        drop(index);
    }
}
