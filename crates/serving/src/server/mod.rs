//! The event-driven request-lifecycle HTTP server.
//!
//! The serving front end, restructured from the seed's monolithic blocking
//! loop — first into an explicit request lifecycle, and now onto a
//! readiness-driven event loop (the paper's production requirement is a
//! hard latency SLA under heavy load, §5.6 — that demands defined behaviour
//! *under overload* and at high connection counts, not just on the happy
//! path):
//!
//! * [`parser`] — incremental, bounded HTTP/1.1 parser (pure state machine
//!   over bytes; head/header-count/body caps; property-tested);
//! * `reactor` — one thread per available core, each multiplexing the
//!   connections it accepted from the shared listener over its own
//!   epoll-style poller: non-blocking accepts/reads/writes, the
//!   per-connection state machine
//!   (`Idle → ReadingHead → ReadingBody → Handling → Writing`, with
//!   `Draining`/close terminal), state-split timeouts, admission control
//!   and the connection cap — concurrency is bounded by file descriptors,
//!   not threads. A reactor also *finishes* every predict it reads: a local
//!   one runs inline on its own request context (the Actix model: the
//!   thread that read the request answers it), and a tier that sends
//!   predicts elsewhere (the router) has them forwarded over upstream
//!   connections the reactor owns;
//! * `dispatch` — the bounded reactor→worker queue, served in arrival
//!   order, plus each reactor's worker→reactor completion queue;
//! * `worker` — the fixed worker pool serving the requests that may
//!   block and are not predicts (admin, ingest, unlearning, `/metrics`, the
//!   router's fan-out endpoints), one at a time;
//! * `backend` — what a tier tells the server: where a predict runs, how
//!   to run a local one, where a failed forward goes next;
//! * [`lifecycle`] — the admission/drain gate shared by reactors, workers
//!   and the shutdown controller (model-checked in `tests/loom_models.rs`);
//! * `conn` — endpoint routing and response rendering, shared by the
//!   reactors (predicts, sheds, rejects, timeouts) and the workers;
//! * [`metrics`] — shed/timeout/reject counters, per-state histograms and
//!   the per-path predict counters.
//!
//! # Endpoints
//!
//! The paper implements the serving component as an Actix web application;
//! this is the same protocol surface on the hand-rolled server:
//!
//! * `POST /recommend` with body
//!   `{"session_id": u64, "item_id": u64, "consent": bool, "filter_adult": bool}`
//!   → `{"recommendations": [{"item_id": …, "score": …}, …]}`
//! * `GET /health` → `{"status": "ok", "uptime_seconds": …, "index_generation": …}`
//!   (the router's liveness probe)
//! * `GET /metrics` → the full metric registry in Prometheus text
//!   exposition format (version 0.0.4): the node's one read-out of its
//!   request counters and per-stage latency histograms
//! * `GET /debug/slow` → the most recently traced requests, slowest first,
//!   with their per-stage latency breakdown and kernel work counters
//! * `POST /ingest`, `DELETE /ingest/session/{id}` → the streaming write
//!   path ([`crate::ingest`]), `404` unless ingest is enabled
//! * `PUT /admin/index`, `POST /admin/sessions/{export,import,forget}` → the
//!   router's control plane, served by every [`crate::ServingCluster`]
//!   ([`crate::node`]): artefact loads and session handoff, with
//!   `application/octet-stream` bodies; a router answers them `404`
//!
//! Every body is capped at `max_body_bytes` except under `/admin/`, where a
//! tier may allow more ([`RequestBackend::ADMIN_BODY_BYTES`]: a whole index
//! artefact on a node, nothing extra anywhere else).
//!
//! Request ids are assigned at ingress, so one id identifies a request
//! across the whole `http → cluster → engine` path and in the slow-request
//! traces.
//!
//! # Overload and framing
//!
//! * admission control sheds with `503` + a `retry-after: 1` header when
//!   the dispatch queue or the connection cap is full, and while the
//!   server drains. A predict never enters the dispatch queue, so
//!   `queue_capacity` does not shed it: under overload it waits in its
//!   socket for its reactor and degrades under `request_deadline`;
//! * framing violations answer a precise 4xx (`400` malformed request line
//!   or header, `413` oversized body, `431` oversized head) and close;
//! * slow clients get `408` after `request_read_timeout`; idle keep-alive
//!   connections are reaped after `idle_timeout`;
//! * admitted requests carry a deadline budget into the engine, which
//!   degrades to a depersonalised prediction rather than miss it.
//!
//! # Shutdown protocol
//!
//! [`HttpServer::shutdown`] drains instead of aborting: the gate flips to
//! DRAINING (new requests are shed with `503`), a waker kick makes every
//! reactor stop accepting and close each of its idle connections
//! *immediately* (its timer sweep runs every turn while draining), and the
//! controller waits until nothing is inflight, queued or open (or the grace
//! period expires, whereupon the gate is forced to STOPPED; each reactor
//! closes its remaining connections, and the controller closes the dispatch
//! queue, whose drained backlog lets workers answer what was admitted and
//! then exit). Every accepted request is answered or shed; none is silently
//! dropped.

pub mod lifecycle;
pub mod metrics;
pub mod parser;

pub(crate) mod backend;
pub(crate) mod conn;
mod dispatch;
pub(crate) mod reactor;
mod worker;

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serenade_telemetry::Registry;

use crate::sync::atomic::{AtomicUsize, Ordering};

use dispatch::DispatchQueue;
use reactor::{Reactor, Waker};

pub use backend::{ForwardTarget, PredictRoute, RequestBackend};
pub use lifecycle::{Admission, LifecycleGate};
pub use metrics::{ConnState, ServerMetrics};

/// Server configuration. [`Default`] keeps the seed's behaviour (generous
/// limits); the overload and drain tests tighten the knobs they exercise.
/// The reactor's tick (50 ms), the write budget for one response (5 s) and
/// the `retry-after` of a `503` (1 s) are constants of the reactor.
#[derive(Debug, Clone)]
pub struct HttpServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Threads serving non-predict requests (health, metrics, ingest,
    /// unlearning, admin). Predicts run on the reactors, one per core.
    pub workers: usize,
    /// Dispatch-queue capacity (admitted non-predict requests waiting for a
    /// worker); requests beyond it are shed with `503 + Retry-After`
    /// (min 1). A predict never queues: under overload it waits in its
    /// socket and degrades under `request_deadline`.
    pub queue_capacity: usize,
    /// Open-connection cap enforced at the accept gate; connections beyond
    /// it are answered `503 + Retry-After` and closed. `0` = unlimited
    /// (bounded only by the process fd limit).
    pub max_connections: usize,
    /// Largest accepted request body; bigger is `413` + close.
    pub max_body_bytes: usize,
    /// Cap on the request head (request line + headers); bigger is `431`.
    pub max_head_bytes: usize,
    /// Cap on the number of header lines; more is `431`.
    pub max_headers: usize,
    /// Requests served per connection before it is closed. `0` = unlimited.
    pub keepalive_max_requests: usize,
    /// Slow-client budget for one full request frame; exceeding it is
    /// `408` + close. `Duration::ZERO` is never exceeded in practice —
    /// pick a real budget.
    pub request_read_timeout: Duration,
    /// Idle keep-alive reaping budget. `Duration::ZERO` = never reap.
    pub idle_timeout: Duration,
    /// Per-request deadline budget, measured from the frame's first byte;
    /// threaded to the engine, which degrades (depersonalised fallback)
    /// instead of missing it. `Duration::ZERO` = no budget.
    pub request_deadline: Duration,
    /// How long shutdown waits for inflight/queued work before forcing.
    pub drain_grace: Duration,
}

impl Default for HttpServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 1024,
            max_connections: 0,
            max_body_bytes: 1 << 20,
            max_head_bytes: 8 * 1024,
            max_headers: 64,
            keepalive_max_requests: 0,
            request_read_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(60),
            request_deadline: Duration::from_secs(5),
            drain_grace: Duration::from_secs(5),
        }
    }
}

/// Coordination wakeup: the drain controller's quiescence wait parks here,
/// and reactor/worker state changes notify. A poisoned lock is entered like
/// every other lock in the workspace; the protected state is `()`.
#[derive(Debug, Default)]
pub(crate) struct Wakeup {
    lock: std::sync::Mutex<()>,
    cond: std::sync::Condvar,
}

impl Wakeup {
    pub(crate) fn notify_all(&self) {
        // Take the lock so a notify cannot slip between a waiter's state
        // check and its park.
        drop(self.lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner));
        self.cond.notify_all();
    }

    pub(crate) fn wait_timeout(&self, timeout: Duration) {
        let guard = self.lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = self.cond.wait_timeout(guard, timeout);
    }
}

/// State shared by the reactors, workers and the shutdown controller.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) config: HttpServerConfig,
    pub(crate) gate: LifecycleGate,
    pub(crate) metrics: ServerMetrics,
    /// Connections currently registered with a reactor (accepted, not yet
    /// closed) — the `serenade_server_open_connections` gauge, and what
    /// `max_connections` caps.
    pub(crate) open_connections: AtomicUsize,
    pub(crate) wakeup: Wakeup,
}

impl Shared {
    pub(crate) fn new(config: HttpServerConfig, registry: &Registry) -> Self {
        Self {
            config,
            gate: LifecycleGate::new(),
            metrics: ServerMetrics::new(registry),
            open_connections: AtomicUsize::new(0),
            wakeup: Wakeup::default(),
        }
    }
}

/// How often the drain controller re-checks quiescence between wakeups.
const DRAIN_TICK: Duration = Duration::from_millis(1);

/// A running server; dropping it (or calling [`HttpServer::shutdown`])
/// drains in-flight work and joins all threads.
pub struct HttpServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    queue: Arc<DispatchQueue>,
    /// One per reactor.
    wakers: Vec<Waker>,
    threads: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Starts serving `cluster` per `config`: one reactor per available
    /// core over one listening socket, and `config.workers` workers.
    pub fn serve<B: backend::RequestBackend>(
        cluster: Arc<B>,
        config: HttpServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let mut config = config;
        config.queue_capacity = config.queue_capacity.max(1);
        let workers = config.workers.max(1);
        let queue = Arc::new(DispatchQueue::new(config.queue_capacity));
        let registry = cluster.telemetry().registry();
        let shared = Arc::new(Shared::new(config, registry));
        let gauge = Arc::clone(&shared);
        registry.polled_gauge(
            "serenade_http_inflight_requests",
            "Requests currently between admission and completion.",
            &[],
            move || gauge.gate.inflight() as u64,
        );
        let gauge = Arc::clone(&queue);
        registry.polled_gauge(
            "serenade_http_queue_depth",
            "Admitted requests waiting for a worker.",
            &[],
            move || gauge.depth() as u64,
        );
        let gauge = Arc::clone(&shared);
        registry.polled_gauge(
            "serenade_server_open_connections",
            "Open connections multiplexed by the event loop.",
            &[],
            move || gauge.open_connections.load(Ordering::SeqCst) as u64,
        );

        // Sized like the index build: the reactor count is the machine's,
        // not a setting.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let reactors = (0..cores)
            .map(|_| {
                let listener = listener.try_clone()?;
                let (shared, queue) = (Arc::clone(&shared), Arc::clone(&queue));
                Reactor::new(listener, shared, Arc::clone(&cluster), queue)
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let wakers = reactors.iter().map(Reactor::waker).collect();
        let mut threads = Vec::with_capacity(cores + workers);
        for reactor in reactors {
            threads.push(std::thread::spawn(move || reactor.run()));
        }
        for _ in 0..workers {
            let queue = Arc::clone(&queue);
            let cluster = Arc::clone(&cluster);
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || worker::run(queue, cluster, shared)));
        }

        Ok(Self { addr, shared, queue, wakers, threads })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's lifecycle metrics (sheds, timeouts, per-state time) —
    /// live handles, also exported at `GET /metrics`.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// Requests currently between admission and completion.
    pub fn inflight_requests(&self) -> usize {
        self.shared.gate.inflight()
    }

    /// Connections currently registered with the reactors.
    pub fn open_connections(&self) -> usize {
        self.shared.open_connections.load(Ordering::SeqCst)
    }

    /// Stops the server: drain, then join all threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// The drain protocol (see the module docs). Idempotent.
    fn stop_and_join(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        if self.shared.gate.begin_drain() {
            // Kick every reactor out of its poll wait: each stops accepting
            // and closes its idle connections in that turn's sweep.
            self.wake_reactors();
            self.shared.wakeup.notify_all();
            let grace_until = Instant::now() + self.shared.config.drain_grace;
            loop {
                let quiesced = self.shared.gate.inflight() == 0
                    && self.shared.open_connections.load(Ordering::SeqCst) == 0
                    && self.queue.depth() == 0;
                if quiesced || Instant::now() >= grace_until {
                    break;
                }
                self.shared.wakeup.wait_timeout(DRAIN_TICK);
            }
            self.shared.gate.force_stop();
            // STOPPED: each reactor exits its loop, closing its remaining
            // connections; the closed queue lets the workers answer their
            // backlog and exit.
            self.wake_reactors();
            self.queue.close();
            self.shared.wakeup.notify_all();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    fn wake_reactors(&self) {
        for waker in &self.wakers {
            waker.wake();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;
    use crate::cluster::ServingCluster;
    use crate::engine::EngineConfig;
    use crate::json::{self, Value};
    use crate::rules::BusinessRules;
    use crate::transport::HttpClient;
    use serenade_core::{Click, SessionIndex};
    use std::io::{BufReader, Read, Write};
    use std::net::TcpStream;

    fn test_cluster() -> Arc<ServingCluster> {
        let mut clicks = Vec::new();
        for s in 0..40u64 {
            let ts = 100 + s * 10;
            clicks.push(Click::new(s + 1, s % 6, ts));
            clicks.push(Click::new(s + 1, (s + 1) % 6, ts + 1));
        }
        let index = Arc::new(SessionIndex::build(&clicks, 500).unwrap());
        Arc::new(
            ServingCluster::new(index, 1, EngineConfig::default(), BusinessRules::none())
                .unwrap(),
        )
    }

    fn start_server() -> (HttpServer, Arc<ServingCluster>) {
        let cluster = test_cluster();
        let server =
            HttpServer::serve(Arc::clone(&cluster), HttpServerConfig::default()).unwrap();
        (server, cluster)
    }

    #[test]
    fn health_endpoint_responds() {
        let (server, _cluster) = start_server();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let (status, body) = client.get("/health").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("ok"));
        let v = json::parse(&body).unwrap();
        assert!(v.get("uptime_seconds").and_then(Value::as_u64).is_some(), "{body}");
        assert_eq!(v.get("index_generation").and_then(Value::as_u64), Some(1), "{body}");
        server.shutdown();
    }

    #[test]
    fn metrics_endpoint_is_valid_prometheus_exposition() {
        let (server, cluster) = start_server();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        for item in 0..6u64 {
            let (status, _) = client
                .post(
                    "/recommend",
                    &format!(
                        r#"{{"session_id": {item}, "item_id": {}, "consent": true}}"#,
                        item % 6
                    ),
                )
                .unwrap();
            assert_eq!(status, 200);
        }
        let reloaded =
            [Click::new(1, 0, 10), Click::new(1, 1, 11), Click::new(2, 0, 20), Click::new(2, 1, 21)];
        cluster.reload_index(Arc::new(SessionIndex::build(&reloaded, 500).unwrap())).unwrap();
        cluster.enable_ingest(crate::IngestConfig::default(), &reloaded).unwrap();
        let (status, body) = client.get("/metrics").unwrap();
        assert_eq!(status, 200);
        // Structural conformance: unique family names with `# TYPE` lines,
        // unique series, per-series monotone cumulative buckets, `+Inf`
        // present and equal to `_count`.
        let exposition = serenade_promtext::parse(&body).unwrap();
        exposition.validate().unwrap();
        assert_eq!(exposition.kind("serenade_requests_total"), Some("counter"));
        assert_eq!(exposition.kind("serenade_request_duration_seconds"), Some("histogram"));
        assert_eq!(exposition.sum_values("serenade_requests_total", &[]), 6.0, "{body}");
        let total = exposition
            .histogram("serenade_request_duration_seconds", &[("stage", "total")])
            .unwrap();
        assert_eq!(total.count, 6.0);
        assert!(total.quantile_us(0.9) > 0);
        assert_eq!(exposition.value("serenade_index_generation", &[]), Some(2.0));
        assert_eq!(
            exposition.sum_values("serenade_index_rollover_duration_seconds_count", &[]),
            1.0
        );
        assert_eq!(exposition.sum_values("serenade_live_sessions", &[]), 6.0);
        // The request-lifecycle metrics are registered and counted.
        assert_eq!(exposition.kind("serenade_http_requests_total"), Some("counter"));
        assert!(exposition.sum_values("serenade_http_requests_total", &[]) >= 7.0, "{body}");
        assert_eq!(exposition.value("serenade_http_shed_total", &[("reason", "queue_full")]), Some(0.0));
        assert!(exposition.value("serenade_http_inflight_requests", &[]).is_some(), "{body}");
        // The node's whole family set, ingest included: a family added,
        // renamed or dropped shows up here first.
        let mut families: Vec<&str> =
            exposition.types.iter().map(|(name, _)| name.as_str()).collect();
        families.sort_unstable();
        assert_eq!(
            families,
            [
                "serenade_cache_entries",
                "serenade_cache_evictions_total",
                "serenade_cache_hit_duration_seconds",
                "serenade_cache_hits_total",
                "serenade_cache_insertions_total",
                "serenade_cache_misses_total",
                "serenade_cache_stale_total",
                "serenade_connection_state_seconds",
                "serenade_deadline_degraded_total",
                "serenade_depersonalised_total",
                "serenade_empty_responses_total",
                "serenade_errors_total",
                "serenade_handler_busy_nanoseconds_total",
                "serenade_http_connections_total",
                "serenade_http_inflight_requests",
                "serenade_http_predicts_total",
                "serenade_http_queue_depth",
                "serenade_http_rejects_total",
                "serenade_http_requests_total",
                "serenade_http_shed_total",
                "serenade_http_timeouts_total",
                "serenade_index_bytes",
                "serenade_index_dead_posting_entries",
                "serenade_index_dead_slots",
                "serenade_index_generation",
                "serenade_index_rollover_duration_seconds",
                "serenade_ingest_accepted_clicks_total",
                "serenade_ingest_deletions_total",
                "serenade_ingest_pending_clicks",
                "serenade_ingest_postings_copied_total",
                "serenade_ingest_postings_shared_total",
                "serenade_ingest_publish_duration_seconds",
                "serenade_ingest_publish_failures_total",
                "serenade_ingest_publisher_up",
                "serenade_ingest_publishes_total",
                "serenade_ingest_rejected_clicks_total",
                "serenade_ingest_segments_copied_total",
                "serenade_ingest_segments_shared_total",
                "serenade_ingest_unchanged_ranks_permille",
                "serenade_live_sessions",
                "serenade_request_duration_seconds",
                "serenade_requests_total",
                "serenade_server_open_connections",
                "serenade_session_evictions_total",
                "serenade_session_expirations_total",
                "serenade_sessions_bytes",
                "serenade_uptime_seconds",
            ],
            "{body}"
        );
        server.shutdown();
    }

    #[test]
    fn a_cluster_served_again_exposes_each_series_once() {
        let (server, cluster) = start_server();
        server.shutdown();
        let server = HttpServer::serve(Arc::clone(&cluster), HttpServerConfig::default()).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let (status, _) = client
            .post("/recommend", r#"{"session_id": 1, "item_id": 1, "consent": true}"#)
            .unwrap();
        assert_eq!(status, 200);
        let (status, body) = client.get("/metrics").unwrap();
        assert_eq!(status, 200);
        let exposition = serenade_promtext::parse(&body).unwrap();
        exposition.validate().unwrap();
        // The polled gauges read the live server: this scrape is its one
        // request in flight, on its one open connection.
        assert_eq!(exposition.value("serenade_http_inflight_requests", &[]), Some(1.0), "{body}");
        assert_eq!(exposition.value("serenade_server_open_connections", &[]), Some(1.0), "{body}");
        assert_eq!(exposition.sum_values("serenade_http_predicts_total", &[]), 1.0, "{body}");
        server.shutdown();
    }

    #[test]
    fn debug_slow_reports_per_stage_breakdowns() {
        let (server, _cluster) = start_server();
        // A socket predict runs the pipeline an in-process caller runs: the
        // body is byte for byte what `handle_with` on a twin cluster renders.
        let twin = test_cluster();
        let mut ctx = crate::context::RequestContext::new();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        for item in 0..5u64 {
            let (status, body) = client
                .post(
                    "/recommend",
                    &format!(r#"{{"session_id": 3, "item_id": {}, "consent": true}}"#, item % 6),
                )
                .unwrap();
            assert_eq!(status, 200);
            let req = crate::engine::RecommendRequest {
                session_id: 3,
                item: item % 6,
                consent: true,
                filter_adult: false,
            };
            let in_process = twin.handle_with(req, &mut ctx).unwrap();
            assert_eq!(body, conn::render_recommendations(&in_process), "item {item}");
        }
        let (status, body) = client.get("/debug/slow").unwrap();
        assert_eq!(status, 200, "{body}");
        let v = json::parse(&body).unwrap();
        let traces = v.get("traces").unwrap().elements().unwrap().collect::<Vec<_>>();
        assert!(!traces.is_empty(), "{body}");
        for t in &traces {
            assert!(t.get("request_id").and_then(Value::as_u64).unwrap() > 0);
            let total = t.get("total_us").and_then(Value::as_u64).unwrap();
            let stages = ["session_us", "predict_us", "policy_us"]
                .iter()
                .map(|f| t.get(f).and_then(Value::as_u64).unwrap())
                .sum::<u64>();
            // Stage micros are truncated individually, so they can undershoot
            // the (also truncated) total by at most the number of stages.
            assert!(stages <= total + 3, "stages {stages} vs total {total}");
            assert!(t.get("session_len").and_then(Value::as_u64).unwrap() >= 1);
            // Kernel work counters: every request here ran the kernel over
            // known items.
            let walked = t.get("postings_walked").and_then(Value::as_u64).unwrap();
            let candidates = t.get("candidates").and_then(Value::as_u64).unwrap();
            assert!(1 <= candidates && candidates <= walked, "{candidates} of {walked}");
        }
        // Traces are sorted slowest-first.
        let totals: Vec<u64> = traces
            .iter()
            .map(|t| t.get("total_us").and_then(Value::as_u64).unwrap())
            .collect();
        assert!(totals.windows(2).all(|w| w[0] >= w[1]), "{totals:?}");
        server.shutdown();
    }

    #[test]
    fn recommend_endpoint_returns_items() {
        let (server, cluster) = start_server();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let (status, body) = client
            .post("/recommend", r#"{"session_id": 7, "item_id": 0, "consent": true}"#)
            .unwrap();
        assert_eq!(status, 200, "{body}");
        let v = json::parse(&body).unwrap();
        let recs = v.get("recommendations").unwrap().elements().unwrap().collect::<Vec<_>>();
        assert!(!recs.is_empty());
        assert!(recs[0].get("item_id").unwrap().as_u64().is_some());
        // The session state landed in the engine's store.
        assert_eq!(cluster.stored_session_len(7), 1);
        server.shutdown();
    }

    #[test]
    fn keep_alive_supports_sequential_requests() {
        let (server, cluster) = start_server();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        for item in 0..5u64 {
            let (status, _) = client
                .post(
                    "/recommend",
                    &format!(r#"{{"session_id": 9, "item_id": {item}, "consent": true}}"#),
                )
                .unwrap();
            assert_eq!(status, 200);
        }
        assert_eq!(cluster.stored_session_len(9), 5);
        server.shutdown();
    }

    #[test]
    fn malformed_requests_get_400() {
        let (server, _cluster) = start_server();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let (status, body) = client.post("/recommend", "not json").unwrap();
        assert_eq!(status, 400);
        assert!(body.contains("error"));
        let (status, _) = client.post("/recommend", r#"{"item_id": 1}"#).unwrap();
        assert_eq!(status, 400);
        server.shutdown();
    }

    #[test]
    fn metrics_endpoint_reports_request_counters_per_stage() {
        let (server, _cluster) = start_server();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        for item in 0..4u64 {
            let (status, _) = client
                .post(
                    "/recommend",
                    &format!(r#"{{"session_id": 5, "item_id": {item}, "consent": true}}"#),
                )
                .unwrap();
            assert_eq!(status, 200);
        }
        let (status, body) = client.get("/metrics").unwrap();
        assert_eq!(status, 200, "{body}");
        let exposition = serenade_promtext::parse(&body).unwrap();
        assert_eq!(exposition.value("serenade_requests_total", &[]), Some(4.0), "{body}");
        // The engine exposes its latency end to end and per pipeline stage.
        for stage in ["total", "session", "predict", "policy"] {
            let histogram = exposition
                .histogram("serenade_request_duration_seconds", &[("stage", stage)])
                .unwrap_or_else(|| panic!("missing stage {stage}: {body}"));
            assert_eq!(histogram.count, 4.0, "{stage}");
        }
        server.shutdown();
    }

    /// Sends raw bytes and reads until the server closes the connection.
    /// EOF within the timeout therefore asserts the close itself.
    fn raw_exchange(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        stream.flush().unwrap();
        let mut response = String::new();
        BufReader::new(stream).read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn oversized_body_gets_413_and_the_connection_closes() {
        let (server, _cluster) = start_server();
        // Announce a 2 MiB body but send none: the server must answer
        // immediately (it cannot safely skip the unread body) and close.
        let response = raw_exchange(
            server.addr(),
            "POST /recommend HTTP/1.1\r\nhost: t\r\ncontent-length: 2097152\r\n\r\n",
        );
        assert!(response.starts_with("HTTP/1.1 413"), "{response}");
        assert!(response.contains("connection: close"), "{response}");
        assert!(response.contains("too large"), "{response}");
        server.shutdown();
    }

    #[test]
    fn malformed_content_length_gets_400_and_the_connection_closes() {
        let (server, _cluster) = start_server();
        let response = raw_exchange(
            server.addr(),
            "POST /recommend HTTP/1.1\r\nhost: t\r\ncontent-length: abc\r\n\r\n{}",
        );
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert!(response.contains("connection: close"), "{response}");
        assert!(response.contains("malformed content-length"), "{response}");
        server.shutdown();
    }

    #[test]
    fn server_stays_healthy_after_rejected_requests() {
        let (server, _cluster) = start_server();
        raw_exchange(
            server.addr(),
            "POST /recommend HTTP/1.1\r\nhost: t\r\ncontent-length: 9999999\r\n\r\n",
        );
        // A fresh connection is served normally afterwards.
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let (status, _) = client
            .post("/recommend", r#"{"session_id": 1, "item_id": 0, "consent": true}"#)
            .unwrap();
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn unknown_paths_get_404() {
        let (server, _cluster) = start_server();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let (status, _) = client.get("/nope").unwrap();
        assert_eq!(status, 404);
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_are_served() {
        let (server, cluster) = start_server();
        let addr = server.addr();
        let handles: Vec<_> = (0..6u64)
            .map(|sid| {
                std::thread::spawn(move || {
                    let mut client = HttpClient::connect(addr).unwrap();
                    for item in 0..10u64 {
                        let (status, _) = client
                            .post(
                                "/recommend",
                                &format!(
                                    r#"{{"session_id": {sid}, "item_id": {}, "consent": true}}"#,
                                    item % 6
                                ),
                            )
                            .unwrap();
                        assert_eq!(status, 200);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cluster.live_sessions(), 6);
        server.shutdown();
    }
}
