//! Conformance tests for the request-lifecycle server: overload shedding,
//! graceful drain, framing limits and keep-alive caps — each exercised over
//! real sockets against deterministic server configurations.
//!
//! The determinism trick for the shed test: a backend whose `GET /hold`
//! parks the one worker on a latch the test opens, so the dispatch queue's
//! occupancy can be set up exactly and observed via the
//! `serenade_http_queue_depth` polled gauge before the over-capacity
//! request arrives.

#![cfg(not(feature = "loom"))]

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use serenade_core::{Click, ItemScore, SessionIndex};
use serenade_serving::engine::{EngineConfig, RecommendRequest};
use serenade_serving::json::{self, JsonValue};
use serenade_serving::server::parser::ParsedRequest;
use serenade_serving::server::{PredictRoute, RequestBackend};
use serenade_serving::{
    BusinessRules, ClusterTelemetry, HttpClient, HttpServer, HttpServerConfig, RequestContext,
    ServingCluster, ServingError,
};

fn cluster() -> Arc<ServingCluster> {
    let mut clicks = Vec::new();
    for s in 0..40u64 {
        let ts = 100 + s * 10;
        clicks.push(Click::new(s + 1, s % 6, ts));
        clicks.push(Click::new(s + 1, (s + 1) % 6, ts + 1));
    }
    let index = Arc::new(SessionIndex::build(&clicks, 500).unwrap());
    Arc::new(
        ServingCluster::new(index, 1, EngineConfig::default(), BusinessRules::none()).unwrap(),
    )
}

fn start(config: HttpServerConfig) -> (HttpServer, Arc<ServingCluster>) {
    let cluster = cluster();
    let server = HttpServer::serve(Arc::clone(&cluster), config).unwrap();
    (server, cluster)
}

/// Sends raw bytes and reads until the server closes the connection.
fn raw_exchange(addr: SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    BufReader::new(stream).read_to_string(&mut response).unwrap();
    response
}

const RECOMMEND: &str = r#"{"session_id": 1, "item_id": 0, "consent": true}"#;

fn post_recommend(client: &mut HttpClient) -> (u16, String) {
    client.post("/recommend", RECOMMEND).unwrap()
}

/// Reads exactly one `Content-Length`-framed response off `reader`.
fn read_one_response<R: std::io::BufRead>(reader: &mut R) -> (u16, String) {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let status: u16 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).unwrap();
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
    reader.read_exact(&mut body).unwrap();
    (status, String::from_utf8(body).unwrap())
}

/// Writes one keep-alive `POST /recommend` frame for `session_id` without
/// reading the response (so the dispatch sits in the server unanswered).
fn write_predict(stream: &mut TcpStream, session_id: u64) {
    let body = format!(r#"{{"session_id": {session_id}, "item_id": 0, "consent": true}}"#);
    write!(
        stream,
        "POST /recommend HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    stream.flush().unwrap();
}

/// Polls the cluster registry (in-process — no HTTP round-trip, so it works
/// while every worker is busy) until the dispatch-queue depth gauge reads
/// `want`.
fn await_queue_depth(cluster: &ServingCluster, want: f64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let text = cluster.telemetry().registry().render();
        let exposition = serenade_telemetry::parse(&text).unwrap();
        if exposition.value("serenade_http_queue_depth", &[]) == Some(want) {
            return;
        }
        assert!(Instant::now() < deadline, "queue depth never reached {want}");
        std::thread::yield_now();
    }
}

/// The serving tier, except that `GET /hold` parks the worker serving it
/// until [`Latched::release`] (or a 10 s safety timeout, so a failing test
/// cannot wedge the server's shutdown).
struct Latched {
    cluster: Arc<ServingCluster>,
    open: Mutex<bool>,
    opened: Condvar,
}

impl Latched {
    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }
}

impl RequestBackend for Latched {
    fn telemetry(&self) -> &Arc<ClusterTelemetry> {
        self.cluster.telemetry()
    }

    fn respond(&self, request: &ParsedRequest) -> (u16, Vec<u8>, &'static str) {
        if request.path != "/hold" {
            return self.cluster.respond(request);
        }
        let give_up = Instant::now() + Duration::from_secs(10);
        let mut open = self.open.lock().unwrap();
        while !*open && Instant::now() < give_up {
            open = self.opened.wait_timeout(open, Duration::from_millis(50)).unwrap().0;
        }
        (200, b"{}".to_vec(), "application/json")
    }

    fn route_predict(&self, _req: &RecommendRequest) -> PredictRoute {
        PredictRoute::Local
    }

    fn handle_recommend(
        &self,
        req: RecommendRequest,
        ctx: &mut RequestContext,
    ) -> Result<Vec<ItemScore>, ServingError> {
        self.cluster.handle_with(req, ctx)
    }
}

#[test]
fn queue_overflow_sheds_deterministically_with_503_and_retry_after() {
    // Determinism on the event loop: the single worker picks up a
    // `GET /hold` and parks on the latch; a `GET /health` then occupies the
    // one dispatch-queue slot, and the next request overflows the queue and
    // is shed on the reactor thread with 503 + retry-after — the connection
    // stays usable.
    let cluster = cluster();
    let backend = Arc::new(Latched {
        cluster: Arc::clone(&cluster),
        open: Mutex::new(false),
        opened: Condvar::new(),
    });
    let server = HttpServer::serve(
        Arc::clone(&backend),
        HttpServerConfig { workers: 1, queue_capacity: 1, ..HttpServerConfig::default() },
    )
    .unwrap();
    // Admitted, then taken by the worker: the queue is empty again while
    // the worker is parked.
    let mut held_a = TcpStream::connect(server.addr()).unwrap();
    held_a.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    held_a.write_all(b"GET /hold HTTP/1.1\r\nhost: t\r\n\r\n").unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.metrics().requests.get() < 1 {
        assert!(Instant::now() < deadline, "hold never admitted");
        std::thread::yield_now();
    }
    await_queue_depth(&cluster, 0.0);

    // A health check waits behind it: it fills the slot.
    let mut held_b = TcpStream::connect(server.addr()).unwrap();
    held_b.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    held_b.write_all(b"GET /health HTTP/1.1\r\nhost: t\r\n\r\n").unwrap();
    await_queue_depth(&cluster, 1.0);

    // Over capacity: shed with 503 + retry-after, connection kept alive.
    let mut shed = TcpStream::connect(server.addr()).unwrap();
    shed.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write_predict(&mut shed, 2);
    let mut reader = BufReader::new(shed.try_clone().unwrap());
    let mut head = String::new();
    loop {
        let mut line = String::new();
        std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
        if line.trim_end().is_empty() {
            break;
        }
        head.push_str(&line);
    }
    assert!(head.starts_with("HTTP/1.1 503"), "{head}");
    assert!(head.contains("retry-after: 1"), "{head}");
    assert!(head.contains("connection: keep-alive"), "{head}");
    assert_eq!(server.metrics().shed_queue_full.get(), 1);

    // Nothing was dropped: both held requests are answered once the latch
    // opens.
    backend.release();
    for stream in [held_a, held_b] {
        let mut reader = BufReader::new(stream);
        let (status, body) = read_one_response(&mut reader);
        assert_eq!(status, 200, "{body}");
    }
    server.shutdown();
}

#[test]
fn drain_answers_a_mid_frame_request_with_503_within_grace() {
    let (server, _cluster) = start(HttpServerConfig {
        workers: 1,
        drain_grace: Duration::from_secs(5),
        ..HttpServerConfig::default()
    });
    let shed_draining = Arc::clone(&server.metrics().shed_draining);

    // Round-trip first so the worker is driving this connection, then leave
    // a request half-sent: head complete, body short by five bytes.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let head = format!(
        "POST /recommend HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        RECOMMEND.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(RECOMMEND.as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let (status, _) = read_one_response(&mut reader);
    assert_eq!(status, 200);

    stream.write_all(head.as_bytes()).unwrap();
    stream
        .write_all(&RECOMMEND.as_bytes()[..RECOMMEND.len() - 5])
        .unwrap();
    stream.flush().unwrap();
    // Give the worker a poll tick to ingest the partial frame, so the drain
    // below observes a mid-frame connection, not an idle one.
    std::thread::sleep(Duration::from_millis(120));

    // Complete the frame shortly after the drain begins.
    let finisher = {
        let mut stream = stream.try_clone().unwrap();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            let tail = &RECOMMEND.as_bytes()[RECOMMEND.len() - 5..];
            let _ = stream.write_all(tail);
            let _ = stream.flush();
        })
    };

    let t0 = Instant::now();
    server.shutdown(); // blocks until drained and joined
    let drain_time = t0.elapsed();
    finisher.join().unwrap();
    assert!(
        drain_time < Duration::from_secs(4),
        "drain should finish well within the grace period, took {drain_time:?}"
    );

    // The half-sent request was not silently dropped: its frame completed
    // during the drain and was answered with a shed 503, then the
    // connection closed.
    let (status, body) = read_one_response(&mut reader);
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("overloaded"), "{body}");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();
    assert!(rest.is_empty(), "connection must close after the shed: {rest}");
    assert_eq!(shed_draining.get(), 1);
}

#[test]
fn drain_reaps_idle_connections_and_joins_quickly() {
    let (server, _cluster) = start(HttpServerConfig {
        workers: 2,
        drain_grace: Duration::from_secs(5),
        ..HttpServerConfig::default()
    });
    let mut idle = HttpClient::connect(server.addr()).unwrap();
    assert_eq!(post_recommend(&mut idle).0, 200);

    let t0 = Instant::now();
    server.shutdown();
    let drain_time = t0.elapsed();
    // An idle keep-alive connection has nothing in flight; it must not hold
    // the drain for the whole grace period.
    assert!(
        drain_time < Duration::from_secs(2),
        "idle connection stalled the drain: {drain_time:?}"
    );
    // The idle connection was closed cleanly, without a response on the wire.
    let err = idle.get("/health").unwrap_err();
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::UnexpectedEof
                | std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::ConnectionAborted
                | std::io::ErrorKind::BrokenPipe
        ),
        "unexpected error kind: {err:?}"
    );
}

#[test]
fn connection_cap_sheds_at_the_accept_gate_with_503() {
    let (server, _cluster) = start(HttpServerConfig {
        max_connections: 1,
        ..HttpServerConfig::default()
    });
    // Connection 1 is registered (a full round-trip proves it).
    let mut held = HttpClient::connect(server.addr()).unwrap();
    assert_eq!(post_recommend(&mut held).0, 200);

    // Over the cap: answered 503 + retry-after and closed, never registered.
    let response = raw_exchange(server.addr(), "GET /health HTTP/1.1\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 503"), "{response}");
    assert!(response.contains("retry-after: 1"), "{response}");
    assert!(response.contains("connection: close"), "{response}");
    assert_eq!(server.metrics().shed_connections.get(), 1);

    // The held connection is unaffected, and closing it frees capacity.
    assert_eq!(post_recommend(&mut held).0, 200);
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.open_connections() != 0 {
        assert!(Instant::now() < deadline, "closed connection never deregistered");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut fresh = HttpClient::connect(server.addr()).unwrap();
    assert_eq!(fresh.get("/health").unwrap().0, 200);
    server.shutdown();
}

#[test]
fn drain_reaps_many_parked_idle_connections_immediately() {
    let (server, _cluster) = start(HttpServerConfig {
        workers: 2,
        // Long grace and idle timeout: if the drain relied on either (or on
        // per-connection readiness) instead of the parked-set reap, this
        // test would stall well past the assertion bound.
        drain_grace: Duration::from_secs(10),
        idle_timeout: Duration::from_secs(60),
        ..HttpServerConfig::default()
    });
    // A mix of served-then-idle and never-spoke connections, all parked.
    let mut served: Vec<HttpClient> = (0..16)
        .map(|_| {
            let mut c = HttpClient::connect(server.addr()).unwrap();
            assert_eq!(c.get("/health").unwrap().0, 200);
            c
        })
        .collect();
    let silent: Vec<TcpStream> =
        (0..16).map(|_| TcpStream::connect(server.addr()).unwrap()).collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.open_connections() < 32 {
        assert!(Instant::now() < deadline, "connections never all registered");
        std::thread::yield_now();
    }
    // The parked fleet stays live: every served connection is woken and
    // answered again, round after round, and none of them is closed.
    for _ in 0..2 {
        for c in &mut served {
            assert_eq!(post_recommend(c).0, 200);
        }
    }
    assert_eq!(server.open_connections(), 32, "the served fleet must not churn");

    let t0 = Instant::now();
    server.shutdown();
    let drain_time = t0.elapsed();
    assert!(
        drain_time < Duration::from_secs(2),
        "32 parked idle connections must be reaped immediately, took {drain_time:?}"
    );
    for c in &mut served {
        assert!(c.get("/health").is_err(), "reaped connection still answered");
    }
    drop(silent);
}

#[test]
fn requests_after_drain_are_rejected_by_a_fresh_connect_failing() {
    let (server, _cluster) = start(HttpServerConfig::default());
    let addr = server.addr();
    server.shutdown();
    // The listener is gone: new connections are refused (or reset), never
    // silently accepted-and-dropped.
    let result = TcpStream::connect(addr)
        .and_then(|mut s| {
            s.set_read_timeout(Some(Duration::from_secs(2)))?;
            s.write_all(b"GET /health HTTP/1.1\r\n\r\n")?;
            let mut buf = String::new();
            BufReader::new(s).read_to_string(&mut buf)?;
            Ok(buf)
        })
        .unwrap_or_default();
    assert!(result.is_empty(), "a stopped server answered: {result}");
}

#[test]
fn malformed_request_line_is_400_not_404() {
    let (server, _cluster) = start(HttpServerConfig::default());
    for wire in ["\r\n\r\n", "GARBAGE\r\n\r\n", " /path\r\n\r\n"] {
        let response = raw_exchange(server.addr(), wire);
        assert!(
            response.starts_with("HTTP/1.1 400"),
            "wire {wire:?} should be 400: {response}"
        );
        assert!(response.contains("connection: close"), "{response}");
    }
    // The seed's parser reported these as 404 (empty method/path fell
    // through route matching); 404 must now be reserved for real paths.
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let (status, _) = client.get("/definitely-missing").unwrap();
    assert_eq!(status, 404);
    assert_eq!(server.metrics().rejects.get(), 3);
    server.shutdown();
}

#[test]
fn oversized_heads_get_431_and_close() {
    let (server, _cluster) = start(HttpServerConfig {
        max_head_bytes: 1024,
        max_headers: 8,
        ..HttpServerConfig::default()
    });
    // One header far past the byte cap.
    let mut wire = String::from("GET /health HTTP/1.1\r\nx-padding: ");
    wire.push_str(&"a".repeat(4096));
    wire.push_str("\r\n\r\n");
    let response = raw_exchange(server.addr(), &wire);
    assert!(response.starts_with("HTTP/1.1 431"), "{response}");
    assert!(response.contains("connection: close"), "{response}");

    // Too many headers, each small.
    let mut wire = String::from("GET /health HTTP/1.1\r\n");
    for i in 0..16 {
        wire.push_str(&format!("x-h{i}: v\r\n"));
    }
    wire.push_str("\r\n");
    let response = raw_exchange(server.addr(), &wire);
    assert!(response.starts_with("HTTP/1.1 431"), "{response}");
    assert_eq!(server.metrics().rejects.get(), 2);
    server.shutdown();
}

#[test]
fn keepalive_cap_closes_after_the_configured_request_count() {
    let (server, _cluster) = start(HttpServerConfig {
        keepalive_max_requests: 2,
        ..HttpServerConfig::default()
    });
    // Two pipelined requests: both answered, the second closes the
    // connection (cap reached), which read_to_string observes as EOF.
    let response = raw_exchange(
        server.addr(),
        "GET /health HTTP/1.1\r\n\r\nGET /health HTTP/1.1\r\n\r\nGET /health HTTP/1.1\r\n\r\n",
    );
    assert_eq!(response.matches("HTTP/1.1 200").count(), 2, "{response}");
    assert!(response.contains("connection: keep-alive"), "{response}");
    assert!(response.ends_with('}'), "second response must complete: {response}");
    let closes = response.matches("connection: close").count();
    assert_eq!(closes, 1, "exactly the capped response closes: {response}");
    server.shutdown();
}

#[test]
fn expired_deadline_degrades_but_still_answers_200() {
    let (server, cluster) = start(HttpServerConfig {
        // A deadline that has always already expired by the time the engine
        // checks it: every multi-item session degrades deterministically.
        request_deadline: Duration::from_nanos(1),
        ..HttpServerConfig::default()
    });
    let mut client = HttpClient::connect(server.addr()).unwrap();
    for item in 0..3u64 {
        let (status, body) = client
            .post(
                "/recommend",
                &format!(r#"{{"session_id": 77, "item_id": {item}, "consent": true}}"#),
            )
            .unwrap();
        // Degraded-but-valid: the response is still a 200 with items.
        assert_eq!(status, 200, "{body}");
        let v = json::parse(&body).unwrap();
        assert!(
            !v.get("recommendations").unwrap().as_array().unwrap().is_empty(),
            "{body}"
        );
    }
    // Session state kept evolving despite the degradation.
    assert_eq!(cluster.engine().stored_session_len(77), 3);
    // Requests 2 and 3 had multi-item views, so both degraded.
    let (status, body) = client.get("/stats").unwrap();
    assert_eq!(status, 200);
    let v = json::parse(&body).unwrap();
    let degraded: u64 = v
        .get("pods")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|p| p.get("degraded").and_then(JsonValue::as_u64).unwrap())
        .sum();
    assert_eq!(degraded, 2, "{body}");
    // And the telemetry counter agrees.
    let (_, metrics) = client.get("/metrics").unwrap();
    let exposition = serenade_telemetry::parse(&metrics).unwrap();
    assert_eq!(exposition.sum_values("serenade_deadline_degraded_total", &[]), 2.0);
    server.shutdown();
}

#[test]
fn slow_request_frame_times_out_with_408() {
    let (server, _cluster) = start(HttpServerConfig {
        request_read_timeout: Duration::from_millis(200),
        ..HttpServerConfig::default()
    });
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // Head promises a body that never arrives.
    stream
        .write_all(b"POST /recommend HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc")
        .unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    BufReader::new(stream).read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 408"), "{response}");
    assert!(response.contains("connection: close"), "{response}");
    assert_eq!(server.metrics().timeouts_read.get(), 1);
    server.shutdown();
}
