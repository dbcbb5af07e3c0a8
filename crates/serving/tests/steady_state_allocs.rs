//! Allocations of warmed-up request paths under a counting allocator.
//!
//! A request context is a full kernel `Scratch` (a candidate table and two
//! heaps, tens of kilobytes), so it belongs to a worker or a thread, never
//! to a request. This suite holds the request paths to that: an
//! in-process caller's `ServingCluster::handle_with` on the context it
//! keeps allocates only its response; a predict the reactor runs inline allocates
//! what a parse and a response take and nothing scratch-sized; and a
//! forwarded predict reuses its upstream connection's buffers on the router.

#![cfg(not(feature = "loom"))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use serenade_core::{Click, SessionIndex};
use serenade_serving::engine::RecommendRequest;
use serenade_serving::node::{NodeConfig, ServingNode};
use serenade_serving::routerd::{RouterConfig, RouterDaemon};
use serenade_serving::{
    BusinessRules, EngineConfig, HttpClient, HttpServer, HttpServerConfig, RequestContext,
    ServingCluster, ServingVariant,
};
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

/// The same two counts over every thread of the process: what the server
/// threads of a socket test allocated is this minus the test thread's own.
static EVERYWHERE: AtomicU64 = AtomicU64::new(0);
static EVERYWHERE_LARGE: AtomicU64 = AtomicU64::new(0);

struct Counting;

fn count(size: usize) {
    EVERYWHERE.fetch_add(1, Ordering::SeqCst);
    EVERYWHERE_LARGE.fetch_add(u64::from(size >= LARGE), Ordering::SeqCst);
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

/// Runs `f` on this thread; returns its value and the `(all, large)`
/// allocations every *other* thread made meanwhile. Meaningful only under
/// [`alone`], and once `f`'s effects on those threads have settled (a
/// response read is one).
fn allocations_elsewhere_during<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let everywhere = || (EVERYWHERE.load(Ordering::SeqCst), EVERYWHERE_LARGE.load(Ordering::SeqCst));
    let before = everywhere();
    let (out, mine) = allocations_of(f);
    let after = everywhere();
    (out, (after.0 - before.0 - mine.0, after.1 - before.1 - mine.1))
}

/// Tests run on parallel threads; the ones that count other threads'
/// allocations take turns.
fn alone() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
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
    let _turn = alone();
    let config = EngineConfig { variant: ServingVariant::Hist(2), ..EngineConfig::default() };
    let always_sample = TraceConfig { slots: 8, sample_every: 1, slow_threshold_us: 0 };
    let cluster =
        ServingCluster::with_trace_config(index(), config, BusinessRules::none(), always_sample)
            .unwrap();
    assert!(cluster.telemetry().traces().snapshot().is_empty());
    let mut ctx = RequestContext::new();
    cluster.handle_with(req(7, 0), &mut ctx).unwrap();
    let traces = cluster.telemetry().traces().snapshot();
    assert_eq!(traces.len(), 1, "an in-process request is offered to the trace ring");
    assert!(traces[0].request_id > 0 && traces[0].postings_walked > 0, "{:?}", traces[0]);

    // Warm up: the caller's context, and session 7 up to its stored cap so
    // the session store stops growing its item list.
    for i in 0..80 {
        cluster.handle_with(req(7, i % 6), &mut ctx).unwrap();
    }
    for i in 0..6 {
        let (recs, (all, _)) = allocations_of(|| cluster.handle_with(req(7, i), &mut ctx).unwrap());
        assert!(!recs.is_empty());
        assert_eq!(all, 1, "item {i}: the response list and nothing else");
    }
}

/// One session's predict over `client`, which the server answers `200`.
fn predict(client: &mut HttpClient, item: u64) {
    let body = format!(r#"{{"session_id":7,"item_id":{item},"consent":true}}"#);
    let (status, answer) = client.post("/recommend", &body).unwrap();
    assert_eq!(status, 200, "{answer}");
}

/// Warms `addr` with one session up to its stored cap, then returns what
/// the server's threads allocate for one more predict: `(all, large)`, the
/// steady figure of six (the test harness's own threads report results
/// while a test holds its turn, so a stray extra allocation is noise; a
/// missing one is not possible).
fn server_side_allocations(addr: SocketAddr) -> (u64, u64) {
    let mut client = HttpClient::connect(addr).unwrap();
    for i in 0..80 {
        predict(&mut client, i % 6);
    }
    let mut counts: Vec<(u64, u64)> =
        (0..6).map(|i| allocations_elsewhere_during(|| predict(&mut client, i)).1).collect();
    counts.sort_unstable();
    assert_eq!(counts[0].0, counts[3].0, "no steady state: {counts:?}");
    counts[0]
}

#[test]
fn an_inline_predict_allocates_nothing_scratch_sized() {
    let _turn = alone();
    let cluster = Arc::new(
        ServingCluster::new(index(), 1, EngineConfig::default(), BusinessRules::none()).unwrap(),
    );
    let server = HttpServer::serve(Arc::clone(&cluster), HttpServerConfig::default()).unwrap();
    let (all, large) = server_side_allocations(server.addr());
    assert_eq!(server.metrics().predicts_inline.get(), 86, "every one ran on the reactor thread");
    assert_eq!(large, 0, "the reactor's context is reused, not rebuilt");
    assert!(all <= 12, "{all} allocations: more than parsing a request and framing a response take");
    server.shutdown();
}

#[test]
fn a_forwarded_predict_reuses_its_upstream_connections_buffers() {
    let _turn = alone();
    let node = ServingNode::start(index(), NodeConfig::default()).unwrap();
    let config = RouterConfig {
        // One probe at start, then none while allocations are counted.
        probe_interval: Duration::from_secs(3600),
        ..RouterConfig::default()
    };
    let router =
        RouterDaemon::start(&[(0, node.data_addr(), node.ctrl_addr())], config).unwrap();
    let (node_alone, _) = server_side_allocations(node.data_addr());
    // Router reactor + node reactor together.
    let (through_router, large) = server_side_allocations(router.addr());
    assert_eq!(router.core().failover_total(), 0);
    assert_eq!(large, 0, "no buffer is built per forwarded predict");
    let router_share = through_router - node_alone;
    assert!(
        router_share <= 8,
        "{router_share} allocations per forward on the router: more than parsing the client's \
         request and framing its response take — the upstream's frame and response buffers are reused"
    );
    router.shutdown();
    node.shutdown();
}
