//! One request stream, every execution path, the same bytes.
//!
//! A predict runs where the tier says: inline on the reactor that read it
//! (one reactor per core), or — on the router — forwarded to a node. This
//! suite sends the same request sequence down each path, over one
//! connection and over many, and holds every response body to the bytes
//! `ServingCluster::handle_with` produces on a twin cluster, and holds the
//! path counters to proof that the path under test is the one that
//! actually ran.

#![cfg(not(feature = "loom"))]

use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use serenade_core::{Click, ItemScore, SessionIndex};
use serenade_serving::engine::RecommendRequest;
use serenade_serving::node::{NodeConfig, ServingNode};
use serenade_serving::routerd::{RouterConfig, RouterDaemon};
use serenade_serving::server::parser::ParsedRequest;
use serenade_serving::server::{PredictRoute, RequestBackend};
use serenade_serving::{
    BusinessRules, ClusterTelemetry, EngineConfig, HttpClient, HttpServer, HttpServerConfig,
    RequestContext, ServingCluster, ServingError,
};
use serenade_telemetry::TraceConfig;

const NODES: u64 = 2;
const SESSIONS: u64 = 32;
const CLICKS_PER_SESSION: u64 = 12;

fn index() -> Arc<SessionIndex> {
    let mut clicks = Vec::new();
    for s in 0..200u64 {
        let ts = 1_000 + s * 10;
        for k in 0..4 {
            clicks.push(Click::new(s + 1, (s * 7 + k * 3) % 40, ts + k));
        }
    }
    Arc::new(SessionIndex::build(&clicks, 500).unwrap())
}

fn cluster() -> Arc<ServingCluster> {
    Arc::new(
        ServingCluster::new(index(), 1, EngineConfig::default(), BusinessRules::none()).unwrap(),
    )
}

/// The request stream: every session clicks through a dozen items, one in
/// five requests withdrawing consent. Per-session order is what the answers
/// depend on; sessions interleave freely.
fn stream() -> Vec<RecommendRequest> {
    let mut reqs = Vec::new();
    for step in 0..CLICKS_PER_SESSION {
        for session_id in 1..=SESSIONS {
            reqs.push(RecommendRequest {
                session_id,
                item: (session_id * 5 + step * 11) % 40,
                consent: (session_id + step) % 5 != 0,
                filter_adult: false,
            });
        }
    }
    reqs
}

fn body_of(req: &RecommendRequest) -> String {
    format!(
        r#"{{"session_id":{},"item_id":{},"consent":{},"filter_adult":{}}}"#,
        req.session_id, req.item, req.consent, req.filter_adult
    )
}

/// The success body the server renders for `recs`.
fn rendered(recs: &[ItemScore]) -> String {
    let items: Vec<String> = recs
        .iter()
        .map(|r| format!(r#"{{"item_id":{},"score":{}}}"#, r.item, f64::from(r.score)))
        .collect();
    format!(r#"{{"recommendations":[{}]}}"#, items.join(","))
}

/// What `handle_with` answers on a twin cluster, request by request.
fn reference(reqs: &[RecommendRequest]) -> Vec<String> {
    let twin = cluster();
    let mut ctx = RequestContext::new();
    reqs.iter().map(|req| rendered(&twin.handle_with(*req, &mut ctx).unwrap())).collect()
}

/// Sends `reqs` in order over one connection.
fn send_all(addr: SocketAddr, reqs: &[RecommendRequest]) -> Vec<String> {
    let mut client = HttpClient::connect(addr).unwrap();
    reqs.iter()
        .map(|req| {
            let (status, body) = client.post("/recommend", &body_of(req)).unwrap();
            assert_eq!(status, 200, "{body}");
            body
        })
        .collect()
}

fn metric(telemetry: &ClusterTelemetry, name: &str, labels: &[(&str, &str)]) -> f64 {
    let text = telemetry.registry().render();
    serenade_promtext::parse(&text).unwrap().sum_values(name, labels)
}

fn predicts(telemetry: &ClusterTelemetry, path: &str) -> f64 {
    metric(telemetry, "serenade_http_predicts_total", &[("path", path)])
}

#[test]
fn one_connection_runs_every_predict_inline() {
    let reqs = stream();
    let served = cluster();
    let server = HttpServer::serve(Arc::clone(&served), HttpServerConfig::default()).unwrap();
    assert_eq!(send_all(server.addr(), &reqs), reference(&reqs));
    let n = reqs.len() as f64;
    let telemetry = served.telemetry();
    assert_eq!(predicts(telemetry, "inline"), n, "every local predict runs inline");
    assert_eq!(predicts(telemetry, "forwarded"), 0.0);
    assert_eq!(metric(telemetry, "serenade_http_predicts_total", &[]), n, "one path each");
    server.shutdown();
}

#[test]
fn concurrent_connections_run_every_predict_inline() {
    // Sixteen connections, two sessions each, released together step by
    // step: whichever reactor took a connection runs every predict it reads
    // from it to completion on its own context. (Which reactor takes which
    // connection is the scheduler's call; `server::reactor`'s unit tests
    // pin the one-accept-a-turn split and the shared connection cap.)
    const CONNECTIONS: u64 = 16;
    let reqs = stream();
    let expected = reference(&reqs);
    let served = cluster();
    let server = HttpServer::serve(Arc::clone(&served), HttpServerConfig::default()).unwrap();
    let addr = server.addr();
    let barrier = Arc::new(Barrier::new(CONNECTIONS as usize));
    let threads: Vec<_> = (0..CONNECTIONS)
        .map(|c| {
            let mine: Vec<(usize, RecommendRequest)> = reqs
                .iter()
                .copied()
                .enumerate()
                .filter(|(_, req)| req.session_id % CONNECTIONS == c)
                .collect();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                mine.into_iter()
                    .map(|(i, req)| {
                        barrier.wait();
                        let (status, body) = client.post("/recommend", &body_of(&req)).unwrap();
                        assert_eq!(status, 200, "{body}");
                        (i, body)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut answers = vec![String::new(); reqs.len()];
    for thread in threads {
        for (i, body) in thread.join().unwrap() {
            answers[i] = body;
        }
    }
    assert_eq!(answers, expected);
    let telemetry = served.telemetry();
    let n = reqs.len() as f64;
    assert_eq!(predicts(telemetry, "inline"), n, "every predict ran on the reactor that read it");
    assert_eq!(metric(telemetry, "serenade_http_predicts_total", &[]), n, "one path each");
    server.shutdown();
}

#[test]
fn a_router_forwards_every_predict_and_relays_the_same_bytes() {
    let reqs = stream();
    let nodes: Vec<ServingNode> = (0..NODES)
        .map(|node_id| {
            ServingNode::start(index(), NodeConfig { node_id, ..NodeConfig::default() }).unwrap()
        })
        .collect();
    let members: Vec<_> =
        nodes.iter().map(|node| (node.id(), node.data_addr(), node.ctrl_addr())).collect();
    // The probe is a request to the node like any other: one probe at
    // start, then none while the path counters are read.
    let config = RouterConfig { probe_interval: Duration::from_secs(3600), ..RouterConfig::default() };
    let router = RouterDaemon::start(&members, config).unwrap();
    assert_eq!(send_all(router.addr(), &reqs), reference(&reqs));

    let n = reqs.len() as f64;
    let routed = router.core().telemetry();
    assert_eq!(predicts(routed, "forwarded"), n);
    assert_eq!(predicts(routed, "inline"), 0.0, "a router runs none");
    assert_eq!(router.core().failover_total(), 0);
    assert_eq!(metric(routed, "serenade_router_upstream_seconds_count", &[]), n);
    for node in &nodes {
        let node_label = node.data_addr().to_string();
        let open = metric(routed, "serenade_http_upstream_connections", &[("node", &node_label)]);
        assert_eq!(open, 1.0, "one client at a time needs one connection per node");
    }
    // Each node saw a lone connection: the forwarded predicts ran inline.
    let ran_inline: f64 =
        nodes.iter().map(|node| predicts(node.cluster().telemetry(), "inline")).sum();
    assert_eq!(ran_inline, n);
    router.shutdown();
    for node in nodes {
        node.shutdown();
    }
}

/// A tier whose engine panics on item 13 and answers everything else with
/// the item itself.
struct Panicky(Arc<ClusterTelemetry>);

impl RequestBackend for Panicky {
    fn telemetry(&self) -> &Arc<ClusterTelemetry> {
        &self.0
    }

    fn respond(&self, _request: &ParsedRequest) -> (u16, Vec<u8>, &'static str) {
        (404, b"{}".to_vec(), "application/json")
    }

    fn route_predict(&self, _req: &RecommendRequest) -> PredictRoute {
        PredictRoute::Local
    }

    fn handle_recommend(
        &self,
        req: RecommendRequest,
        _ctx: &mut RequestContext,
    ) -> Result<Vec<ItemScore>, ServingError> {
        assert_ne!(req.item, 13, "unlucky item");
        Ok(vec![ItemScore { item: req.item, score: 1.0 }])
    }
}

#[test]
fn a_panicking_engine_call_on_the_inline_path_is_a_500_and_the_reactor_keeps_serving() {
    let backend = Arc::new(Panicky(Arc::new(ClusterTelemetry::new(TraceConfig::default()))));
    let server = HttpServer::serve(Arc::clone(&backend), HttpServerConfig::default()).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let mut ask = |item: u64| {
        client.post("/recommend", &format!(r#"{{"session_id":1,"item_id":{item}}}"#)).unwrap()
    };
    assert_eq!(ask(7), (200, rendered(&[ItemScore { item: 7, score: 1.0 }])));
    let (status, body) = ask(13);
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("request handler panicked") && body.contains("unlucky item"), "{body}");
    // Same connection, same reactor thread: still serving.
    assert_eq!(ask(8), (200, rendered(&[ItemScore { item: 8, score: 1.0 }])));
    assert_eq!(predicts(&backend.0, "inline"), 3.0, "all three ran on the reactor thread");
    assert_eq!(server.inflight_requests(), 0, "the panic released its admission slot");
    server.shutdown();
}

/// Writes `frames` pipelined copies of one predict on a single connection
/// (from a second thread, so neither side's socket buffer wedges the other)
/// and returns how many responses came back, each asserted to be `expect`.
fn flood(addr: SocketAddr, frames: usize, expect: &str) -> usize {
    use std::io::{BufRead, Read, Write};
    let body = body_of(&RecommendRequest { session_id: 1, item: 3, consent: false, filter_adult: false });
    let frame = format!(
        "POST /recommend HTTP/1.1\r\nhost: x\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let writing = std::thread::spawn(move || {
        // A thousand frames per write: the server's read loop finds its
        // buffer full pass after pass and slurps tens of thousands of frames
        // before it parses the first.
        let chunk = frame.repeat(1_000);
        for _ in 0..frames / 1_000 {
            if writer.write_all(chunk.as_bytes()).is_err() {
                return;
            }
        }
    });
    let mut reader = std::io::BufReader::new(stream);
    let mut answers = 0;
    let mut line = String::new();
    let mut body = Vec::new();
    while answers < frames {
        line.clear();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        assert_eq!(line.trim_end(), expect, "answer {answers}");
        let mut length = 0;
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if let Some(value) = line.strip_prefix("content-length:") {
                length = value.trim().parse().unwrap();
            }
            if line == "\r\n" {
                break;
            }
        }
        body.resize(length, 0);
        reader.read_exact(&mut body).unwrap();
        answers += 1;
    }
    writing.join().unwrap();
    answers
}

#[test]
fn a_pipelined_flood_on_one_connection_is_answered_frame_by_frame() {
    // Answering a frame must not nest inside answering the one before it:
    // the reactor's stack would then be as deep as one client's pipeline.
    const FRAMES: usize = 50_000;
    let served = cluster();
    let server = HttpServer::serve(Arc::clone(&served), HttpServerConfig::default()).unwrap();
    assert_eq!(flood(server.addr(), FRAMES, "HTTP/1.1 200 OK"), FRAMES);
    // Alone on its reactor, the connection has every frame run inline, one
    // after the other, by the loop that walks its buffered frames.
    assert_eq!(predicts(served.telemetry(), "inline"), FRAMES as f64);
    server.shutdown();

    // Same shape on a router with nowhere to forward: every frame is
    // answered on the spot with the empty list.
    let router = RouterDaemon::start(&[], RouterConfig::default()).unwrap();
    assert_eq!(flood(router.addr(), FRAMES, "HTTP/1.1 200 OK"), FRAMES);
    assert_eq!(predicts(router.core().telemetry(), "forwarded"), FRAMES as f64);
    router.shutdown();
}
