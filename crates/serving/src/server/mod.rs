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
//! * [`reactor`] — ONE thread multiplexing every connection over an
//!   epoll-style poller: non-blocking accepts/reads/writes, the
//!   per-connection state machine
//!   (`Idle → ReadingHead → ReadingBody → Handling → Writing`, with
//!   `Draining`/close terminal), state-split timeouts, admission control
//!   and the connection cap — concurrency is bounded by file descriptors,
//!   not threads. It also *finishes* the requests that have nobody to wait
//!   for: a predict that arrives alone runs inline on this thread, and a
//!   tier that sends predicts elsewhere (the router) has them forwarded
//!   over upstream connections the reactor owns;
//! * [`dispatch`] — the bounded reactor→worker queue, served in arrival
//!   order, plus the worker→reactor completion queue;
//! * [`worker`] — the fixed worker pool executing what the reactor did not:
//!   non-predict requests, and predicts from turns that had company, one
//!   at a time on each worker's own request context;
//! * [`backend`] — what a tier tells the server: where a predict runs, how
//!   to run a local one, where a failed forward goes next;
//! * [`lifecycle`] — the admission/drain gate and the parked-connection
//!   set shared by reactor, workers and the shutdown controller
//!   (model-checked in `tests/loom_models.rs`);
//! * [`conn`] — endpoint routing and response rendering, shared by the
//!   reactor (sheds, rejects, timeouts) and the workers;
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
//! * `GET /stats` → the engine's request counters and latency percentiles
//!   (JSON, as a one-element `pods` array)
//! * `GET /metrics` → the full metric registry in Prometheus text
//!   exposition format (version 0.0.4)
//! * `GET /debug/slow` → the slowest recently traced requests with their
//!   per-stage latency breakdown and kernel work counters
//! * `POST /ingest`, `DELETE /ingest/session/{id}` → the streaming write
//!   path ([`crate::ingest`]), `404` unless ingest is enabled
//! * `PUT /admin/index`, `POST /admin/sessions/{export,import,forget}` → the
//!   router's control plane, served only by a [`crate::node`]: artefact
//!   loads and session handoff, with `application/octet-stream` bodies; a
//!   router or a bare cluster server answers them `404`
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
//! * admission control sheds with `503` + a `retry-after` header when the
//!   dispatch queue, the connection cap or the inflight watermark is
//!   exceeded, and while the server drains;
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
//! DRAINING (new requests are shed with `503`), a waker kick makes the
//! reactor reap every parked idle connection *immediately* and stop
//! accepting, and the controller waits until nothing is inflight, queued or
//! open (or the grace period expires, whereupon the gate is forced to
//! STOPPED; the reactor closes every remaining connection and the dispatch
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

use crate::sync::atomic::{AtomicUsize, Ordering};

use dispatch::{CompletionQueue, DispatchQueue};
use reactor::{Reactor, Waker};

pub use backend::{ForwardTarget, PredictRoute, RequestBackend};
pub use lifecycle::{Admission, LifecycleGate, ParkDecision, ParkedSet};
pub use metrics::{ConnState, ServerMetrics};

/// Server configuration. [`Default`] keeps the seed's behaviour (generous
/// limits, no inflight watermark); the overload and drain tests tighten the
/// knobs they exercise.
#[derive(Debug, Clone)]
pub struct HttpServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads executing dispatched requests.
    pub workers: usize,
    /// Dispatch-queue capacity (admitted requests waiting for a worker);
    /// requests beyond it are shed with `503 + Retry-After` (min 1).
    pub queue_capacity: usize,
    /// Open-connection cap enforced at the accept gate; connections beyond
    /// it are answered `503 + Retry-After` and closed. `0` = unlimited
    /// (bounded only by the process fd limit).
    pub max_connections: usize,
    /// Inflight-request watermark; requests beyond it are shed with
    /// `503 + Retry-After`. `0` = unlimited.
    pub max_inflight_requests: usize,
    /// Largest accepted request body; bigger is `413` + close.
    pub max_body_bytes: usize,
    /// Cap on the request head (request line + headers); bigger is `431`.
    pub max_head_bytes: usize,
    /// Cap on the number of header lines; more is `431`.
    pub max_headers: usize,
    /// Requests served per connection before it is closed. `0` = unlimited.
    pub keepalive_max_requests: usize,
    /// Reactor tick: upper bound on how long the poller sleeps with no
    /// readiness, wake or timer traffic. Bounds timeout-sweep latency.
    pub read_timeout: Duration,
    /// Slow-client budget for one full request frame; exceeding it is
    /// `408` + close. `Duration::ZERO` is never exceeded in practice —
    /// pick a real budget.
    pub request_read_timeout: Duration,
    /// Budget for flushing one response to a slow reader.
    pub write_timeout: Duration,
    /// Idle keep-alive reaping budget. `Duration::ZERO` = never reap.
    pub idle_timeout: Duration,
    /// Per-request deadline budget, measured from the frame's first byte;
    /// threaded to the engine, which degrades (depersonalised fallback)
    /// instead of missing it. `Duration::ZERO` = no budget.
    pub request_deadline: Duration,
    /// How long shutdown waits for inflight/queued work before forcing.
    pub drain_grace: Duration,
    /// Value of the `retry-after` header on `503` sheds.
    pub retry_after_seconds: u32,
}

impl Default for HttpServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 1024,
            max_connections: 0,
            max_inflight_requests: 0,
            max_body_bytes: 1 << 20,
            max_head_bytes: 8 * 1024,
            max_headers: 64,
            keepalive_max_requests: 0,
            read_timeout: Duration::from_millis(50),
            request_read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(60),
            request_deadline: Duration::from_secs(5),
            drain_grace: Duration::from_secs(5),
            retry_after_seconds: 1,
        }
    }
}

/// Coordination wakeup: the drain controller's quiescence wait parks here,
/// and reactor/worker state changes notify. Uses `std::sync` directly (not
/// `parking_lot`) because the vendored `parking_lot` shim carries no
/// `Condvar`; lock poisoning is impossible to panic on — a poisoned guard
/// is recovered, the protected state is `()`.
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

/// State shared by the reactor, workers and the shutdown controller.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) config: HttpServerConfig,
    pub(crate) gate: LifecycleGate,
    pub(crate) metrics: ServerMetrics,
    /// Connections currently registered with the reactor (accepted, not yet
    /// closed) — the `serenade_server_open_connections` gauge.
    pub(crate) open_connections: AtomicUsize,
    pub(crate) wakeup: Wakeup,
    /// Idle connections eligible for immediate drain reaping.
    pub(crate) parked: ParkedSet,
}

/// How often the drain controller re-checks quiescence between wakeups.
const DRAIN_TICK: Duration = Duration::from_millis(1);

/// A running server; dropping it (or calling [`HttpServer::shutdown`])
/// drains in-flight work and joins all threads.
pub struct HttpServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    queue: Arc<DispatchQueue>,
    waker: Waker,
    threads: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Starts serving `cluster` per `config`.
    ///
    /// Registers the server's lifecycle metrics into the cluster's metric
    /// registry — run one `HttpServer` per cluster, or the families would
    /// be registered twice.
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
        let completions = Arc::new(CompletionQueue::new());
        let shared = Arc::new(Shared {
            config,
            gate: LifecycleGate::new(),
            metrics: ServerMetrics::new(),
            open_connections: AtomicUsize::new(0),
            wakeup: Wakeup::default(),
            parked: ParkedSet::new(),
        });

        let registry = cluster.telemetry().registry();
        shared.metrics.register_into(registry);
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
            "serenade_http_active_connections",
            "Connections currently registered with the reactor.",
            &[],
            move || gauge.open_connections.load(Ordering::SeqCst) as u64,
        );
        let gauge = Arc::clone(&shared);
        registry.polled_gauge(
            "serenade_server_open_connections",
            "Open connections multiplexed by the event loop.",
            &[],
            move || gauge.open_connections.load(Ordering::SeqCst) as u64,
        );

        let reactor = Reactor::new(
            listener,
            Arc::clone(&shared),
            Arc::clone(&cluster),
            Arc::clone(&queue),
            Arc::clone(&completions),
        )?;
        let waker = reactor.waker();
        let mut threads = Vec::with_capacity(workers + 1);
        threads.push(std::thread::spawn(move || reactor.run()));
        for _ in 0..workers {
            let queue = Arc::clone(&queue);
            let completions = Arc::clone(&completions);
            let cluster = Arc::clone(&cluster);
            let shared = Arc::clone(&shared);
            let waker = waker.clone();
            threads.push(std::thread::spawn(move || {
                worker::run(queue, completions, cluster, shared, waker)
            }));
        }

        Ok(Self { addr, shared, queue, waker, threads })
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

    /// Connections currently registered with the reactor.
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
            // Kick the reactor out of its poll wait: it stops accepting and
            // reaps every parked idle connection immediately.
            self.waker.wake();
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
            // STOPPED: the reactor exits its loop (closing all remaining
            // connections and the queue); close the queue here too in case
            // the reactor is already gone.
            self.waker.wake();
            self.queue.close();
            self.shared.wakeup.notify_all();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
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
    use crate::json::{self, JsonValue};
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
        assert!(v.get("uptime_seconds").and_then(JsonValue::as_u64).is_some(), "{body}");
        assert_eq!(v.get("index_generation").and_then(JsonValue::as_u64), Some(1), "{body}");
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
        cluster.reload_index(Arc::new(SessionIndex::build(
            &[Click::new(1, 0, 10), Click::new(1, 1, 11), Click::new(2, 0, 20), Click::new(2, 1, 21)],
            500,
        ).unwrap()))
        .unwrap();
        let (status, body) = client.get("/metrics").unwrap();
        assert_eq!(status, 200);
        // Structural conformance: unique family names with `# TYPE` lines,
        // unique series, per-series monotone cumulative buckets, `+Inf`
        // present and equal to `_count`.
        let exposition = serenade_telemetry::parse(&body).unwrap();
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
        let traces = v.get("traces").unwrap().as_array().unwrap();
        assert!(!traces.is_empty(), "{body}");
        for t in traces {
            assert!(t.get("request_id").and_then(JsonValue::as_u64).unwrap() > 0);
            let total = t.get("total_us").and_then(JsonValue::as_u64).unwrap();
            let stages = ["session_us", "predict_us", "policy_us"]
                .iter()
                .map(|f| t.get(f).and_then(JsonValue::as_u64).unwrap())
                .sum::<u64>();
            // Stage micros are truncated individually, so they can undershoot
            // the (also truncated) total by at most the number of stages.
            assert!(stages <= total + 3, "stages {stages} vs total {total}");
            assert!(t.get("session_len").and_then(JsonValue::as_u64).unwrap() >= 1);
            // Kernel work counters: every request here ran the kernel over
            // known items, far below the sample size.
            let walked = t.get("postings_walked").and_then(JsonValue::as_u64).unwrap();
            let candidates = t.get("candidates").and_then(JsonValue::as_u64).unwrap();
            assert!(1 <= candidates && candidates <= walked, "{candidates} of {walked}");
            assert_eq!(t.get("evicted").and_then(JsonValue::as_u64), Some(0));
        }
        // Traces are sorted slowest-first.
        let totals: Vec<u64> = traces
            .iter()
            .map(|t| t.get("total_us").and_then(JsonValue::as_u64).unwrap())
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
        let recs = v.get("recommendations").unwrap().as_array().unwrap();
        assert!(!recs.is_empty());
        assert!(recs[0].get("item_id").unwrap().as_u64().is_some());
        // The session state landed in the engine's store.
        assert_eq!(cluster.engine().stored_session_len(7), 1);
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
        assert_eq!(cluster.engine().stored_session_len(9), 5);
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
    fn stats_endpoint_reports_pod_counters() {
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
        let (status, body) = client.get("/stats").unwrap();
        assert_eq!(status, 200, "{body}");
        let v = json::parse(&body).unwrap();
        let pods = v.get("pods").unwrap().as_array().unwrap();
        assert_eq!(pods.len(), 1);
        let total: u64 = pods
            .iter()
            .map(|p| p.get("requests").unwrap().as_u64().unwrap())
            .sum();
        assert_eq!(total, 4);
        // The engine exposes latency percentiles, end to end and per
        // pipeline stage.
        assert!(pods
            .iter()
            .any(|p| p.get("p90_us").and_then(json::JsonValue::as_u64).is_some()));
        for field in ["session_p50_us", "predict_p90_us", "policy_p50_us"] {
            assert!(
                pods.iter().any(|p| p.get(field).and_then(json::JsonValue::as_u64).is_some()),
                "missing stage breakdown field {field}",
            );
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
    fn a_bare_cluster_server_has_no_admin_routes() {
        let (server, _cluster) = start_server();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let (status, _) =
            client.exchange("PUT", "/admin/index", Some(("application/octet-stream", b"SRN"))).unwrap();
        assert_eq!(status, 404);
        let response = raw_exchange(
            server.addr(),
            "PUT /admin/index HTTP/1.1\r\ncontent-type: application/octet-stream\r\ncontent-length: 2097152\r\n\r\n",
        );
        assert!(response.starts_with("HTTP/1.1 413"), "{response}");
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
