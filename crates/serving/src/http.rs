//! The HTTP front end: façade over [`crate::server`] plus a test client.
//!
//! The paper implements the serving component as an Actix web application;
//! this crate provides the same protocol surface on a hand-rolled threaded
//! server. The implementation lives in [`crate::server`] — a listener
//! thread with queue-depth admission control, a fixed worker pool, an
//! explicit per-connection state machine, deadline budgets and a graceful
//! drain protocol; this module re-exports the public types so existing
//! `serenade_serving::http::HttpServer` users keep working.
//!
//! Endpoints:
//!
//! * `POST /recommend` with body
//!   `{"session_id": u64, "item_id": u64, "consent": bool, "filter_adult": bool}`
//!   → `{"recommendations": [{"item_id": …, "score": …}, …]}`
//! * `GET /health` → `{"status": "ok", "uptime_seconds": …, "index_generation": …}`
//! * `GET /stats` → per-pod request counters and latency percentiles (JSON)
//! * `GET /metrics` → the full metric registry in Prometheus text
//!   exposition format (version 0.0.4)
//! * `GET /debug/slow` → the slowest recently traced requests with their
//!   per-stage latency breakdown
//!
//! Overload and lifecycle behaviour (new in the request-lifecycle refactor):
//!
//! * admission control sheds with `503` + a `retry-after` header when the
//!   pending-connection queue or the inflight watermark is exceeded, and
//!   while the server drains;
//! * framing violations answer a precise 4xx (`400` malformed request line
//!   or header, `413` oversized body, `431` oversized head) and close;
//! * slow clients get `408` after `request_read_timeout`; idle keep-alive
//!   connections are reaped after `idle_timeout`;
//! * admitted requests carry a deadline budget into the engine, which
//!   degrades to a depersonalised prediction rather than miss it.
//!
//! Request ids are assigned at ingress, so one id identifies a request
//! across the whole `http → cluster → engine` path and in the slow-request
//! traces.
//!
//! A [`HttpClient`] with keep-alive support is included for the load
//! generator and the tests.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

pub use crate::server::{HttpServer, HttpServerConfig};

/// A minimal keep-alive HTTP client for tests and the load generator.
///
/// One socket, one fd: requests are written straight through the read
/// buffer's inner stream (`get_mut`), which is sound because a response is
/// always fully consumed before the next request is written. The connection
/// ramp opens thousands of these, so the old `try_clone` (a second fd per
/// connection) would halve the fleet the fd limit allows.
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    addr: SocketAddr,
}

impl HttpClient {
    /// Connects to a server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { reader: BufReader::new(stream), addr })
    }

    /// Issues a POST and returns `(status, body)`.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        let writer = self.reader.get_mut();
        write!(
            writer,
            "POST {path} HTTP/1.1\r\nhost: {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
            self.addr,
            body.len()
        )?;
        writer.flush()?;
        self.read_response()
    }

    /// Issues a DELETE and returns `(status, body)` (the session-unlearning
    /// endpoint `DELETE /ingest/session/{id}` is the only consumer).
    pub fn delete(&mut self, path: &str) -> std::io::Result<(u16, String)> {
        let writer = self.reader.get_mut();
        write!(writer, "DELETE {path} HTTP/1.1\r\nhost: {}\r\n\r\n", self.addr)?;
        writer.flush()?;
        self.read_response()
    }

    /// Issues a GET and returns `(status, body)`.
    pub fn get(&mut self, path: &str) -> std::io::Result<(u16, String)> {
        let writer = self.reader.get_mut();
        write!(writer, "GET {path} HTTP/1.1\r\nhost: {}\r\n\r\n", self.addr)?;
        writer.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<(u16, String)> {
        let mut line = String::new();
        loop {
            line.clear();
            match self.reader.read_line(&mut line) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed",
                    ))
                }
                Ok(_) => break,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue
                }
                Err(e) => return Err(e),
            }
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status"))?;
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            self.reader.read_line(&mut header)?;
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().unwrap_or(0);
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok((
            status,
            String::from_utf8(body).map_err(|_| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "non-utf8 body")
            })?,
        ))
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;
    use crate::cluster::ServingCluster;
    use crate::engine::EngineConfig;
    use crate::json::{self, JsonValue};
    use crate::rules::BusinessRules;
    use serenade_core::{Click, SessionIndex};
    use std::sync::Arc;
    use std::time::Duration;

    fn start_server(pods: usize) -> (HttpServer, Arc<ServingCluster>) {
        let mut clicks = Vec::new();
        for s in 0..40u64 {
            let ts = 100 + s * 10;
            clicks.push(Click::new(s + 1, s % 6, ts));
            clicks.push(Click::new(s + 1, (s + 1) % 6, ts + 1));
        }
        let index = Arc::new(SessionIndex::build(&clicks, 500).unwrap());
        let cluster = Arc::new(
            ServingCluster::new(index, pods, EngineConfig::default(), BusinessRules::none())
                .unwrap(),
        );
        let server =
            HttpServer::serve(Arc::clone(&cluster), HttpServerConfig::default()).unwrap();
        (server, cluster)
    }

    #[test]
    fn health_endpoint_responds() {
        let (server, _cluster) = start_server(2);
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
        let (server, cluster) = start_server(2);
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
        let (server, _cluster) = start_server(1);
        let mut client = HttpClient::connect(server.addr()).unwrap();
        for item in 0..5u64 {
            let (status, _) = client
                .post(
                    "/recommend",
                    &format!(r#"{{"session_id": 3, "item_id": {}, "consent": true}}"#, item % 6),
                )
                .unwrap();
            assert_eq!(status, 200);
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
        let (server, cluster) = start_server(2);
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let (status, body) = client
            .post("/recommend", r#"{"session_id": 7, "item_id": 0, "consent": true}"#)
            .unwrap();
        assert_eq!(status, 200, "{body}");
        let v = json::parse(&body).unwrap();
        let recs = v.get("recommendations").unwrap().as_array().unwrap();
        assert!(!recs.is_empty());
        assert!(recs[0].get("item_id").unwrap().as_u64().is_some());
        // The session state landed on the right pod.
        assert_eq!(cluster.pod_for(7).stored_session_len(7), 1);
        server.shutdown();
    }

    #[test]
    fn keep_alive_supports_sequential_requests() {
        let (server, cluster) = start_server(1);
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
        assert_eq!(cluster.pod_for(9).stored_session_len(9), 5);
        server.shutdown();
    }

    #[test]
    fn malformed_requests_get_400() {
        let (server, _cluster) = start_server(1);
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
        let (server, _cluster) = start_server(2);
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
        assert_eq!(pods.len(), 2);
        let total: u64 = pods
            .iter()
            .map(|p| p.get("requests").unwrap().as_u64().unwrap())
            .sum();
        assert_eq!(total, 4);
        // The pod that served traffic exposes latency percentiles, end to
        // end and per pipeline stage.
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
        let (server, _cluster) = start_server(1);
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
        let (server, _cluster) = start_server(1);
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
        let (server, _cluster) = start_server(1);
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
        let (server, _cluster) = start_server(1);
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let (status, _) = client.get("/nope").unwrap();
        assert_eq!(status, 404);
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_are_served() {
        let (server, cluster) = start_server(2);
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
