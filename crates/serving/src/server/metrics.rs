//! Lifecycle telemetry for the HTTP server.
//!
//! One [`ServerMetrics`] per server, made from the cluster's metric
//! [`Registry`] so the lifecycle shows up at `GET /metrics`:
//!
//! * shed counters by reason (`serenade_http_shed_total{reason=…}`) — the
//!   overload behaviour is only trustworthy if every shed is counted;
//! * timeout counters by kind (`serenade_http_timeouts_total{kind=…}`);
//! * framing rejects (`serenade_http_rejects_total`, the parser's 4xx);
//! * per-state connection time (`serenade_connection_state_seconds{state=…}`)
//!   — the histogram twin of the connection state machine, answering "where
//!   do connections spend their lives" (mostly `idle` on healthy keep-alive
//!   traffic, `handling` under load, `reading_head` under slowloris);
//! * accepted-connection and handled-request totals, and where each
//!   admitted predict ran (`serenade_http_predicts_total{path=…}`: `inline`
//!   on the reactor thread, `queued` to the worker pool, `forwarded` to a
//!   node) — the execution model is only legible if every path is counted;
//! * on a forwarding tier, the upstream connections the reactor holds open
//!   per node (`serenade_http_upstream_connections{node=…}`).
//!
//! A server started again on the same cluster records into the same series.
//! The inflight, queue-depth and open-connection *gauges* are registered by
//! [`super::HttpServer::serve`] as polled gauges over the live lifecycle
//! state — they are views, not separate bookkeeping, and each serve points
//! them at its own server.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use serenade_telemetry::{Counter, Gauge, Histogram, HistogramConfig, Registry};

/// The connection state machine's states, as carried by the per-state
/// duration histograms. `Closed` is terminal and zero-length, so it has no
/// histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Keep-alive connection waiting for the next request's first byte.
    Idle,
    /// Reading the request line and headers.
    ReadingHead,
    /// Head parsed; reading the declared body.
    ReadingBody,
    /// Between admission and the response: executing on the reactor
    /// thread, waiting for a worker, or waiting for an upstream node.
    Handling,
    /// Writing the response.
    Writing,
    /// Connection continuing only to answer/close during server drain.
    Draining,
}

/// All states with a duration histogram, in label order.
pub const CONN_STATES: [ConnState; 6] = [
    ConnState::Idle,
    ConnState::ReadingHead,
    ConnState::ReadingBody,
    ConnState::Handling,
    ConnState::Writing,
    ConnState::Draining,
];

impl ConnState {
    /// Index into the per-state histogram array.
    fn index(self) -> usize {
        match self {
            ConnState::Idle => 0,
            ConnState::ReadingHead => 1,
            ConnState::ReadingBody => 2,
            ConnState::Handling => 3,
            ConnState::Writing => 4,
            ConnState::Draining => 5,
        }
    }

    /// Prometheus label value for the state.
    pub fn label(self) -> &'static str {
        match self {
            ConnState::Idle => "idle",
            ConnState::ReadingHead => "reading_head",
            ConnState::ReadingBody => "reading_body",
            ConnState::Handling => "handling",
            ConnState::Writing => "writing",
            ConnState::Draining => "draining",
        }
    }
}

/// Counters and histograms for the request lifecycle. Shed/timeout/reject
/// counters are incremented at the exact decision point in the listener and
/// connection driver; the acceptance criterion "no request is silently
/// dropped" is auditable from these numbers.
#[derive(Debug)]
pub struct ServerMetrics {
    /// Connections accepted (and not shed at the accept gate).
    pub connections: Arc<Counter>,
    /// Requests dispatched to the engine (admitted past the gate).
    pub requests: Arc<Counter>,
    /// Sheds because the pending-connection queue was at capacity.
    pub shed_queue_full: Arc<Counter>,
    /// Sheds because the server was draining or stopped.
    pub shed_draining: Arc<Counter>,
    /// Connections answered 503-and-close at the accept gate because the
    /// reactor was already at `max_connections`.
    pub shed_connections: Arc<Counter>,
    /// Mid-frame reads that exceeded the slow-client budget (`408`).
    pub timeouts_read: Arc<Counter>,
    /// Response writes that exceeded the write timeout.
    pub timeouts_write: Arc<Counter>,
    /// Idle keep-alive connections reaped by the idle timeout.
    pub timeouts_idle: Arc<Counter>,
    /// Forwards that had no whole response from the node by their deadline.
    pub timeouts_upstream: Arc<Counter>,
    /// Predicts run to completion on the reactor thread.
    pub predicts_inline: Arc<Counter>,
    /// Predicts handed to the worker pool through the dispatch queue.
    pub predicts_queued: Arc<Counter>,
    /// Predicts sent to a node over an upstream connection (counted once
    /// per request, however many targets it took).
    pub predicts_forwarded: Arc<Counter>,
    /// Framing violations rejected by the parser (4xx + close).
    pub rejects: Arc<Counter>,
    /// Per-state connection durations, indexed by [`ConnState::index`].
    states: [Arc<Histogram>; 6],
}

impl ServerMetrics {
    /// The `serenade_http_*` counters and per-state histograms in
    /// `registry`.
    pub fn new(registry: &Registry) -> Self {
        let shed = |reason| {
            registry.counter(
                "serenade_http_shed_total",
                "Requests/connections shed with 503 by the admission control.",
                &[("reason", reason)],
            )
        };
        let timeout = |kind| {
            registry.counter(
                "serenade_http_timeouts_total",
                "Connections that hit a read/write/idle/upstream timeout.",
                &[("kind", kind)],
            )
        };
        let predicts = |path| {
            registry.counter(
                "serenade_http_predicts_total",
                "Admitted predicts by where they ran: on the reactor thread, \
                 on a worker, or on a node the reactor forwarded them to.",
                &[("path", path)],
            )
        };
        Self {
            connections: registry.counter(
                "serenade_http_connections_total",
                "Connections accepted by the listener.",
                &[],
            ),
            requests: registry.counter(
                "serenade_http_requests_total",
                "Requests admitted past the lifecycle gate.",
                &[],
            ),
            shed_queue_full: shed("queue_full"),
            shed_draining: shed("draining"),
            shed_connections: shed("connection_limit"),
            timeouts_read: timeout("read"),
            timeouts_write: timeout("write"),
            timeouts_idle: timeout("idle"),
            timeouts_upstream: timeout("upstream"),
            predicts_inline: predicts("inline"),
            predicts_queued: predicts("queued"),
            predicts_forwarded: predicts("forwarded"),
            rejects: registry.counter(
                "serenade_http_rejects_total",
                "Requests rejected by the parser for framing violations (4xx).",
                &[],
            ),
            states: CONN_STATES.map(|state| {
                registry.histogram(
                    "serenade_connection_state_seconds",
                    "Time connections spend in each lifecycle state.",
                    &[("state", state.label())],
                    HistogramConfig::default(),
                )
            }),
        }
    }

    /// Records time spent in one connection state. Alloc- and lock-free
    /// (R6): a histogram record is a couple of relaxed atomic adds.
    pub fn record_state(&self, state: ConnState, spent: Duration) {
        self.states[state.index()].record(spent);
    }
}

/// Registers and returns the series of `node` in the per-node gauge of
/// upstream connections a forwarding reactor holds open. The reactor calls
/// this the first time it dials a node, and never again for that address.
pub(super) fn upstream_connections_gauge(registry: &Registry, node: SocketAddr) -> Arc<Gauge> {
    registry.gauge(
        "serenade_http_upstream_connections",
        "Upstream connections the reactor holds open to a node, idle or in flight.",
        &[("node", &node.to_string())],
    )
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;

    #[test]
    fn registration_exposes_sheds_timeouts_and_state_histograms() {
        let registry = Registry::new();
        let m = ServerMetrics::new(&registry);
        m.connections.inc();
        m.shed_queue_full.inc();
        m.shed_draining.inc();
        m.shed_connections.inc();
        m.timeouts_idle.inc();
        m.rejects.inc();
        m.record_state(ConnState::Handling, Duration::from_micros(250));
        let text = registry.render();
        assert!(text.contains("serenade_http_connections_total 1"), "{text}");
        assert!(text.contains("serenade_http_shed_total{reason=\"queue_full\"} 1"), "{text}");
        assert!(text.contains("serenade_http_shed_total{reason=\"draining\"} 1"), "{text}");
        assert!(
            text.contains("serenade_http_shed_total{reason=\"connection_limit\"} 1"),
            "{text}"
        );
        assert!(text.contains("serenade_http_timeouts_total{kind=\"idle\"} 1"), "{text}");
        assert!(text.contains("serenade_http_rejects_total 1"), "{text}");
        assert!(
            text.contains("serenade_connection_state_seconds_count{state=\"handling\"} 1"),
            "{text}"
        );
        let exposition = serenade_telemetry::parse(&text).unwrap();
        exposition.validate().unwrap();
    }

    #[test]
    fn state_labels_are_unique_and_stable() {
        let labels: Vec<_> = CONN_STATES.iter().map(|s| s.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        assert_eq!(labels[0], "idle");
    }
}
