//! Allocations of warmed-up request paths under a counting allocator.
//!
//! A request context is a full kernel `Scratch` (a candidate table and two
//! heaps, tens of kilobytes), so it belongs to a worker or a thread, never
//! to a request. This suite holds the entry points that have no worker to
//! borrow one from to that: `ServingCluster::handle` allocates only its
//! response, and a routed batch allocates nothing scratch-sized at all.

#![cfg(not(feature = "loom"))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use serenade_core::{Click, SessionIndex};
use serenade_serving::context::BatchContext;
use serenade_serving::engine::RecommendRequest;
use serenade_serving::node::{NodeConfig, ServingNode};
use serenade_serving::routerd::RouterCore;
use serenade_serving::server::RequestBackend;
use serenade_serving::{BusinessRules, EngineConfig, ServingCluster, ServingVariant};
use serenade_telemetry::TraceConfig;

/// Smallest allocation counted as "scratch-sized": a default `Scratch` is
/// several buffers of 8–12 KB (candidate table, its directory, the heaps),
/// while a proxied exchange's own buffers stay near 1 KB.
const LARGE: usize = 4 * 1024;

thread_local! {
    /// `(allocations, allocations of at least LARGE bytes)` made by the
    /// current thread (tests run on their own).
    static ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn count(size: usize) {
    // `try_with`: a thread that is shutting down may still allocate.
    let _ = ALLOCS.try_with(|c| {
        let (all, large) = c.get();
        c.set((all + 1, large + u64::from(size >= LARGE)));
    });
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

/// Runs `f`; returns its value and the `(all, large)` allocations it made
/// on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    let after = ALLOCS.with(Cell::get);
    (out, (after.0 - before.0, after.1 - before.1))
}

fn index() -> Arc<SessionIndex> {
    let mut clicks = Vec::new();
    for s in 0..40u64 {
        clicks.push(Click::new(s + 1, s % 6, 100 + s * 10));
        clicks.push(Click::new(s + 1, (s + 1) % 6, 101 + s * 10));
    }
    Arc::new(SessionIndex::build(&clicks, 500).unwrap())
}

fn req(session_id: u64, item: u64) -> RecommendRequest {
    RecommendRequest { session_id, item, consent: true, filter_adult: false }
}

#[test]
fn cluster_handle_is_traced_and_allocates_only_its_response() {
    let config = EngineConfig { variant: ServingVariant::Hist(2), ..EngineConfig::default() };
    let always_sample = TraceConfig { slots: 8, sample_every: 1, slow_threshold_us: 0 };
    let cluster =
        ServingCluster::with_trace_config(index(), 2, config, BusinessRules::none(), always_sample)
            .unwrap();
    assert!(cluster.telemetry().traces().snapshot().is_empty());
    cluster.handle(req(7, 0)).unwrap();
    let traces = cluster.telemetry().traces().snapshot();
    assert_eq!(traces.len(), 1, "a request made through `handle` is offered to the trace ring");
    assert!(traces[0].request_id > 0 && traces[0].postings_walked > 0, "{:?}", traces[0]);

    // Warm up: the thread's context, and session 7 up to its stored cap so
    // the session store stops growing its item list.
    for i in 0..80 {
        cluster.handle(req(7, i % 6)).unwrap();
    }
    for i in 0..6 {
        let (recs, (all, _)) = allocations_of(|| cluster.handle(req(7, i)).unwrap());
        assert!(!recs.is_empty());
        assert_eq!(all, 1, "item {i}: the response list and nothing else");
    }
}

#[test]
fn a_routed_batch_allocates_nothing_scratch_sized() {
    let node = ServingNode::start(index(), NodeConfig::default()).unwrap();
    let core = RouterCore::new(
        &[(0, node.data_addr(), node.ctrl_addr())],
        TraceConfig::default(),
        Duration::from_millis(500),
        1_000,
    );
    let reqs = [req(1, 0), req(2, 1), req(3, 2), req(4, 3)];
    // The worker's long-lived batch context, and one batch to warm the
    // upstream connection pool.
    let mut bctx = BatchContext::new();
    assert!(core.handle_recommend_batch(0, &reqs, &mut bctx).iter().all(Result::is_ok));
    let (results, (_, large)) =
        allocations_of(|| core.handle_recommend_batch(0, &reqs, &mut bctx));
    assert!(results.iter().all(|r| r.as_ref().is_ok_and(|recs| !recs.is_empty())));
    assert_eq!(core.failover_total(), 0);
    assert_eq!(large, 0, "no request context is built per routed batch");
    node.shutdown();
}
