//! Golden wire bytes: every JSON body the product renders, byte for byte.
//!
//! Each body is taken off a real socket (a bare `HttpServer`, a
//! `ServingNode`, a `RouterDaemon`) and compared with the bytes the REST
//! surface has always sent: keys in sorted order, integral numbers without
//! a `.0`, scores as the `f64` widening of their `f32`. A field whose value
//! is a clock reading (uptime, latencies) is masked before the comparison,
//! so the test pins its presence and position, not its value.

#![cfg(not(feature = "loom"))]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use serenade_core::{Click, SessionIndex};
use serenade_index::binfmt;
use serenade_serving::engine::EngineConfig;
use serenade_serving::node::{encode_session_ids, encode_sessions, NodeConfig, ServingNode};
use serenade_serving::routerd::{RouterConfig, RouterDaemon};
use serenade_serving::{
    BusinessRules, HttpClient, HttpServer, HttpServerConfig, IngestConfig, ServingCluster,
};
use serenade_telemetry::TraceConfig;

fn clicks() -> Vec<Click> {
    let mut clicks = Vec::new();
    for s in 0..40u64 {
        let ts = 100 + s * 10;
        clicks.push(Click::new(s + 1, s % 6, ts));
        clicks.push(Click::new(s + 1, (s + 1) % 6, ts + 1));
    }
    clicks
}

fn index() -> Arc<SessionIndex> {
    Arc::new(SessionIndex::build(&clicks(), 500).unwrap())
}

fn cluster() -> Arc<ServingCluster> {
    let always_sample = TraceConfig { slots: 8, sample_every: 1, slow_threshold_us: 0 };
    Arc::new(
        ServingCluster::with_trace_config(
            index(),
            EngineConfig::default(),
            BusinessRules::none(),
            always_sample,
        )
        .unwrap(),
    )
}

/// Replaces the value of every `"field":<digits>` named in `fields` with
/// `N`, so clock readings compare equal.
fn mask(body: &str, fields: &[&str]) -> String {
    let mut out = body.to_string();
    for field in fields {
        let key = format!("\"{field}\":");
        let mut from = 0;
        while let Some(at) = out[from..].find(&key) {
            let start = from + at + key.len();
            let end = start + out[start..].bytes().take_while(u8::is_ascii_digit).count();
            assert!(end > start, "{field} is not a number in {body}");
            out.replace_range(start..end, "N");
            from = start;
        }
    }
    out
}

/// Sends `request` on a fresh connection and reads until the server closes.
fn raw_exchange(addr: SocketAddr, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(request).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

fn framed(status: &str, body: &str) -> String {
    format!(
        "HTTP/1.1 {status}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\
         connection: close\r\n\r\n{body}",
        body.len()
    )
}

#[test]
fn predict_bodies() {
    let server = HttpServer::serve(cluster(), HttpServerConfig::default()).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let predict = |client: &mut HttpClient, body: &str| client.post("/recommend", body).unwrap();
    assert_eq!(
        predict(&mut client, r#"{"session_id":7,"item_id":0}"#),
        (
            200,
            String::from(
                r#"{"recommendations":[{"item_id":0,"score":13.149984359741211},{"item_id":1,"score":6.613879203796387},{"item_id":5,"score":6.501452445983887}]}"#
            )
        )
    );
    assert_eq!(
        predict(&mut client, r#"{"session_id":7,"item_id":1}"#),
        (
            200,
            String::from(
                r#"{"recommendations":[{"item_id":1,"score":14.697510719299316},{"item_id":0,"score":12.47562313079834},{"item_id":2,"score":5.879003524780273},{"item_id":5,"score":3.2507262229919434}]}"#
            )
        )
    );
    assert_eq!(
        predict(&mut client, r#"{"session_id":8,"item_id":42,"consent":false}"#),
        (200, String::from(r#"{"recommendations":[]}"#))
    );
    assert_eq!(
        predict(&mut client, r#"{"item_id":1}"#),
        (400, String::from(r#"{"error":"missing session_id"}"#))
    );
    assert_eq!(
        predict(&mut client, "{\"session_id\":1,\"item_id\":1} x"),
        (400, String::from(r#"{"error":"invalid json: trailing characters at offset 29"}"#))
    );
    server.shutdown();
}

#[test]
fn endpoint_bodies() {
    let cluster = cluster();
    let server = HttpServer::serve(Arc::clone(&cluster), HttpServerConfig::default()).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();

    let (status, body) = client.get("/health").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        mask(&body, &["uptime_seconds"]),
        r#"{"index_generation":1,"status":"ok","uptime_seconds":N}"#
    );

    // Before any predict: an empty trace ring. The counters are read on
    // `/metrics` alone; `/stats` is not a route.
    assert_eq!(client.get("/stats").unwrap(), (404, String::from(r#"{"error":"not found"}"#)));
    assert_eq!(client.get("/debug/slow").unwrap(), (200, String::from(r#"{"traces":[]}"#)));

    assert_eq!(client.post("/recommend", r#"{"session_id":3,"item_id":2}"#).unwrap().0, 200);
    let (status, body) = client.get("/debug/slow").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        mask(&body, &["request_id", "total_us", "session_us", "predict_us", "policy_us"]),
        r#"{"traces":[{"candidates":14,"depersonalised":false,"policy_us":N,"postings_walked":14,"predict_us":N,"request_id":N,"session_len":1,"session_us":N,"total_us":N}]}"#
    );

    // Read-only: ingest and unlearning answer 404; unknown paths too.
    let not_enabled = String::from(r#"{"error":"ingest is not enabled on this cluster"}"#);
    assert_eq!(
        client.post("/ingest", r#"{"clicks":[]}"#).unwrap(),
        (404, not_enabled.clone())
    );
    assert_eq!(client.delete("/ingest/session/3").unwrap(), (404, not_enabled));
    assert_eq!(client.get("/nope").unwrap(), (404, String::from(r#"{"error":"not found"}"#)));
    server.shutdown();
}

#[test]
fn ingest_bodies() {
    let cluster = cluster();
    // Appends wait out a long publish interval, so the pending queue of
    // three fills up deterministically.
    let config = IngestConfig {
        max_pending_appends: 3,
        publish_interval: Duration::from_secs(60),
        ..IngestConfig::default()
    };
    cluster.enable_ingest(config, &clicks()).unwrap();
    let server = HttpServer::serve(Arc::clone(&cluster), HttpServerConfig::default()).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let batch = |n: u64| {
        let clicks: Vec<String> = (0..n)
            .map(|i| format!(r#"{{"session_id":900,"item_id":{i},"timestamp":{}}}"#, 9_000 + i))
            .collect();
        format!(r#"{{"clicks":[{}]}}"#, clicks.join(","))
    };
    assert_eq!(client.post("/ingest", &batch(2)).unwrap(), (202, String::from(r#"{"accepted":2}"#)));
    assert_eq!(
        client.post("/ingest", &batch(4)).unwrap(),
        (503, String::from(r#"{"error":"ingest queue is at capacity"}"#))
    );
    assert_eq!(
        client.post("/ingest", r#"{"clicks":[]}"#).unwrap(),
        (400, String::from(r#"{"error":"clicks array is empty"}"#))
    );
    assert_eq!(
        client.delete("/ingest/session/x").unwrap(),
        (400, String::from(r#"{"error":"session id must be an unsigned integer"}"#))
    );
    assert_eq!(
        client.delete("/ingest/session/12").unwrap(),
        (200, String::from(r#"{"deleted":true}"#))
    );
    assert_eq!(
        client.delete("/ingest/session/77777").unwrap(),
        (200, String::from(r#"{"deleted":false}"#))
    );
    server.shutdown();
}

#[test]
fn rejected_frames_and_sheds() {
    let config = HttpServerConfig {
        max_connections: 1,
        max_body_bytes: 64,
        request_read_timeout: Duration::from_millis(200),
        ..HttpServerConfig::default()
    };
    let server = HttpServer::serve(cluster(), config).unwrap();
    let addr = server.addr();
    assert_eq!(
        raw_exchange(addr, b"POST /recommend HTTP/1.1\r\ncontent-length: 65\r\n\r\n"),
        framed("413 Payload Too Large", r#"{"error":"request body too large"}"#)
    );
    assert_eq!(
        raw_exchange(addr, b"POST /recommend HTTP/1.1\r\ncontent-length: 2\r\n\r\n\xff\xfe"),
        framed("400 Bad Request", r#"{"error":"request body is not valid utf-8"}"#)
    );
    assert_eq!(
        raw_exchange(addr, b"GET\r\n\r\n"),
        framed("400 Bad Request", r#"{"error":"malformed request line: missing method or path"}"#)
    );
    // Half a head, then silence: the read budget runs out.
    assert_eq!(
        raw_exchange(addr, b"GET /health HTTP/1.1\r\n"),
        framed("408 Request Timeout", r#"{"error":"request read timed out"}"#)
    );
    // One connection held open: the next is shed at the accept gate.
    let mut held = HttpClient::connect(addr).unwrap();
    assert_eq!(held.get("/health").unwrap().0, 200);
    let shed = raw_exchange(addr, b"GET /health HTTP/1.1\r\n\r\n");
    let body = r#"{"error":"server overloaded"}"#;
    assert_eq!(
        shed,
        format!(
            "HTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\n\
             content-length: {}\r\nretry-after: 1\r\nconnection: close\r\n\r\n{body}",
            body.len()
        )
    );
    drop(held);
    server.shutdown();
}

#[test]
fn node_admin_bodies() {
    let node = ServingNode::start(index(), NodeConfig::default()).unwrap();
    let mut client = HttpClient::connect(node.data_addr()).unwrap();
    let mut send = |method: &str, path: &str, body: &[u8]| {
        let (status, body) =
            client.exchange(method, path, Some(("application/octet-stream", body))).unwrap();
        (status, String::from_utf8_lossy(&body).into_owned())
    };
    let mut artifact = Vec::new();
    binfmt::write_index(&index(), &mut artifact).unwrap();
    assert_eq!(
        send("PUT", "/admin/index", &artifact),
        (200, String::from(r#"{"index_generation":2}"#))
    );
    assert_eq!(
        send("PUT", "/admin/index", b"junk"),
        (400, String::from(r#"{"error":"artifact rejected: corrupt index artefact: short header"}"#))
    );
    assert_eq!(
        send("POST", "/admin/sessions/import", &encode_sessions(&[(5, vec![1, 2]), (6, vec![3])])),
        (200, String::from(r#"{"imported":2}"#))
    );
    assert_eq!(
        send("POST", "/admin/sessions/forget", &encode_session_ids(&[5, 99])),
        (200, String::from(r#"{"forgotten":1}"#))
    );
    assert_eq!(
        send("POST", "/admin/sessions/export", b"{}"),
        (400, String::from(r#"{"error":"export expects {\"cap\": N}"}"#))
    );
    assert_eq!(send("GET", "/admin/nope", b""), (404, String::from(r#"{"error":"not found"}"#)));
    node.shutdown();
}

#[test]
fn router_bodies() {
    let node = ServingNode::start(index(), NodeConfig::default()).unwrap();
    let ingest_node = ServingNode::start(index(), NodeConfig { node_id: 1, ..NodeConfig::default() })
        .unwrap();
    ingest_node.cluster().enable_ingest(IngestConfig::default(), &clicks()).unwrap();
    let config = RouterConfig { probe_interval: Duration::from_secs(3600), ..RouterConfig::default() };
    let router =
        RouterDaemon::start(&[(0, node.data_addr(), node.ctrl_addr())], config).unwrap();
    let mut client = HttpClient::connect(router.addr()).unwrap();

    assert_eq!(
        client.get("/health").unwrap(),
        (200, String::from(r#"{"live":1,"members":1,"role":"router","status":"ok"}"#))
    );
    let member = |id: u64, addr: SocketAddr| {
        format!(r#"{{"alive":true,"data_addr":"{addr}","id":{id}}}"#)
    };
    assert_eq!(
        client.get("/cluster/members").unwrap(),
        (200, format!(r#"{{"members":[{}]}}"#, member(0, node.data_addr())))
    );
    let join = format!(r#"{{"data_addr":"{}","id":1}}"#, ingest_node.data_addr());
    assert_eq!(
        client.post("/cluster/join", &join).unwrap(),
        (
            200,
            format!(
                r#"{{"members":[{},{}]}}"#,
                member(0, node.data_addr()),
                member(1, ingest_node.data_addr())
            )
        )
    );
    assert_eq!(
        client.post("/cluster/join", &join).unwrap(),
        (400, String::from(r#"{"error":"member 1 is already in the routing table"}"#))
    );

    // The ingest-enabled node refuses a published artifact with a `409`;
    // its reason comes back under `failed`.
    let mut artifact = Vec::new();
    binfmt::write_index(&index(), &mut artifact).unwrap();
    let path = std::env::temp_dir().join(format!("serenade-wire-{}.idx", std::process::id()));
    std::fs::write(&path, &artifact).unwrap();
    let publish = format!(r#"{{"path":"{}"}}"#, path.display());
    let (status, body) = client.post("/cluster/publish", &publish).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        body,
        r#"{"failed":[{"error":"index rejected: live ingest is this node's index writer; its next publish would undo a rollover","id":1}],"published":[0]}"#
    );

    // `/ingest` splits the batch by owner; the read-only node refuses its
    // share.
    let batch = r#"{"clicks":[{"session_id":1,"item_id":1,"timestamp":5},{"session_id":2,"item_id":1,"timestamp":5},{"session_id":3,"item_id":1,"timestamp":5},{"session_id":4,"item_id":1,"timestamp":5}]}"#;
    let (status, body) = client.post("/ingest", batch).unwrap();
    assert_eq!((status, body.as_str()), (503, r#"{"accepted":2,"failed":2}"#));
    assert_eq!(
        client.post("/ingest", r#"{"clicks":3}"#).unwrap(),
        (400, String::from(r#"{"error":"missing clicks array"}"#))
    );
    assert_eq!(
        client.delete("/ingest/session/1").unwrap(),
        (200, String::from(r#"{"deleted":true}"#))
    );
    assert_eq!(
        client.delete("/ingest/session/x").unwrap(),
        (400, String::from(r#"{"error":"invalid session id"}"#))
    );
    assert_eq!(
        client.post("/cluster/leave", r#"{"id":1}"#).unwrap(),
        (200, format!(r#"{{"members":[{}]}}"#, member(0, node.data_addr())))
    );
    assert_eq!(client.get("/nope").unwrap(), (404, String::from(r#"{"error":"not found"}"#)));
    router.shutdown();
    ingest_node.shutdown();
    node.shutdown();
}
