//! Socket-level conformance suite for the streaming ingest subsystem.
//!
//! Drives a real `HttpServer` over an ingest-enabled `ServingCluster` and
//! proves the write path's externally observable contract:
//!
//! * a `POST /ingest` burst is answered `202`, bumps the published index
//!   generation (visible via `GET /health`) and freshens recommendations
//!   served over the same live connection within a publish interval;
//! * `DELETE /ingest/session/{id}` removes the session from the click log
//!   and republishes — its co-occurrences stop influencing results served
//!   over a live connection, and the response says whether it existed;
//! * the endpoints degrade correctly: `404` on read-only clusters, `400`
//!   for malformed batches and ids, `503` when the append queue is full.

#![cfg(not(feature = "loom"))]

use std::sync::Arc;
use std::time::Duration;

use serenade_core::{Click, SessionIndex};
use serenade_serving::engine::EngineConfig;
use serenade_serving::ingest::MAX_PENDING_APPENDS;
use serenade_serving::{HttpClient, HttpServer, HttpServerConfig};
use serenade_serving::{BusinessRules, IngestConfig, ServingCluster};

/// Base click log: 40 two-click sessions walking a 6-item ring, plus one
/// distinctive session (id 2000) pairing items 77 and 5 — the unlearning
/// target. Item 42 appears nowhere.
fn seed_clicks() -> Vec<Click> {
    let mut clicks = Vec::new();
    for s in 0..40u64 {
        let ts = 100 + s * 10;
        clicks.push(Click::new(s + 1, s % 6, ts));
        clicks.push(Click::new(s + 1, (s + 1) % 6, ts + 1));
    }
    clicks.push(Click::new(2_000, 77, 9_000));
    clicks.push(Click::new(2_000, 5, 9_001));
    clicks
}

/// Cluster + HTTP server with ingest enabled; returns the server so the
/// caller keeps the listener alive. The short publish interval keeps the
/// burst test latency low; tests synchronise deterministically through the
/// pipeline's `flush` rather than sleeping.
fn serve_with_ingest(config: IngestConfig) -> (Arc<ServingCluster>, HttpServer) {
    let clicks = seed_clicks();
    let index = Arc::new(SessionIndex::build(&clicks, 500).unwrap());
    let cluster = Arc::new(
        ServingCluster::new(index, 1, EngineConfig::default(), BusinessRules::none())
            .unwrap(),
    );
    cluster.enable_ingest(config, &clicks).unwrap();
    let server =
        HttpServer::serve(Arc::clone(&cluster), HttpServerConfig::default()).unwrap();
    (cluster, server)
}

fn body(session_id: u64, item: u64) -> String {
    format!(r#"{{"session_id": {session_id}, "item_id": {item}, "consent": false}}"#)
}

/// Items recommended for a depersonalised single-item request.
fn recommended_items(client: &mut HttpClient, session_id: u64, item: u64) -> Vec<u64> {
    let (status, response) = client.post("/recommend", &body(session_id, item)).unwrap();
    assert_eq!(status, 200, "{response}");
    // Pull every `"item_id": N` out of the deterministic wire JSON.
    response
        .split("\"item_id\":")
        .skip(1)
        .map(|rest| {
            rest.chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .unwrap()
        })
        .collect()
}

/// The published index generation, as reported by `GET /health`.
fn health_generation(client: &mut HttpClient) -> u64 {
    let (status, response) = client.get("/health").unwrap();
    assert_eq!(status, 200, "{response}");
    let rest = response.split("\"index_generation\":").nth(1).unwrap();
    rest.chars().take_while(char::is_ascii_digit).collect::<String>().parse().unwrap()
}

#[test]
fn ingest_burst_bumps_generation_and_freshens_recommendations() {
    let (cluster, server) =
        serve_with_ingest(IngestConfig { publish_interval: Duration::from_millis(10) });
    let mut client = HttpClient::connect(server.addr()).unwrap();

    let generation_before = health_generation(&mut client);
    // Item 42 is not in the seed log: nothing to recommend for it yet.
    assert!(recommended_items(&mut client, 900, 42).is_empty());

    // A burst of live sessions pairing item 42 with item 0.
    let batch = r#"{"clicks": [
        {"session_id": 5000, "item_id": 0, "timestamp": 10000},
        {"session_id": 5000, "item_id": 42, "timestamp": 10001},
        {"session_id": 5001, "item_id": 42, "timestamp": 10002},
        {"session_id": 5001, "item_id": 0, "timestamp": 10003}
    ]}"#;
    let (status, response) = client.post("/ingest", batch).unwrap();
    assert_eq!(status, 202, "{response}");
    assert!(response.contains("\"accepted\":4"), "{response}");

    // Deterministic sync point instead of sleeping a publish interval.
    cluster.ingest().unwrap().flush().unwrap();

    let generation_after = health_generation(&mut client);
    assert!(
        generation_after > generation_before,
        "publish must bump the generation: {generation_before} -> {generation_after}"
    );
    // The same connection now serves the fresh co-occurrence.
    let recs = recommended_items(&mut client, 901, 42);
    assert!(recs.contains(&0), "live clicks must influence results: {recs:?}");
}

#[test]
fn deleting_a_session_over_http_stops_its_influence() {
    let (cluster, server) =
        serve_with_ingest(IngestConfig { publish_interval: Duration::from_millis(10) });
    let mut client = HttpClient::connect(server.addr()).unwrap();

    // Session 2000 is the only link between items 77 and 5.
    let recs = recommended_items(&mut client, 910, 77);
    assert!(recs.contains(&5), "seed log links 77 -> 5: {recs:?}");

    let (status, response) = client.delete("/ingest/session/2000").unwrap();
    assert_eq!(status, 200, "{response}");
    assert!(response.contains("\"deleted\":true"), "{response}");

    // The unlearning republish is synchronous: the very next request on
    // this live connection must no longer see the deleted co-occurrence.
    let recs = recommended_items(&mut client, 911, 77);
    assert!(!recs.contains(&5), "deleted session still influencing: {recs:?}");

    // Unlearning is idempotent; a second delete finds nothing.
    let (status, response) = client.delete("/ingest/session/2000").unwrap();
    assert_eq!(status, 200, "{response}");
    assert!(response.contains("\"deleted\":false"), "{response}");

    // The deletion also sticks across future publishes: new unrelated
    // clicks must not resurrect the tombstoned session.
    let (status, _) = client
        .post(
            "/ingest",
            r#"{"clicks": [{"session_id": 6000, "item_id": 1, "timestamp": 20000},
                           {"session_id": 6000, "item_id": 2, "timestamp": 20001}]}"#,
        )
        .unwrap();
    assert_eq!(status, 202);
    cluster.ingest().unwrap().flush().unwrap();
    let recs = recommended_items(&mut client, 912, 77);
    assert!(!recs.contains(&5), "tombstone must survive later publishes: {recs:?}");
}

#[test]
fn ingest_endpoints_are_404_on_read_only_clusters() {
    let clicks = seed_clicks();
    let index = Arc::new(SessionIndex::build(&clicks, 500).unwrap());
    let cluster = Arc::new(
        ServingCluster::new(index, 1, EngineConfig::default(), BusinessRules::none())
            .unwrap(),
    );
    let server =
        HttpServer::serve(Arc::clone(&cluster), HttpServerConfig::default()).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();

    let (status, response) = client
        .post(
            "/ingest",
            r#"{"clicks": [{"session_id": 1, "item_id": 2, "timestamp": 3}]}"#,
        )
        .unwrap();
    assert_eq!(status, 404, "{response}");
    let (status, response) = client.delete("/ingest/session/1").unwrap();
    assert_eq!(status, 404, "{response}");
    assert!(response.contains("not enabled"), "{response}");
}

#[test]
fn malformed_batches_and_ids_are_rejected_with_400() {
    let (_cluster, server) = serve_with_ingest(IngestConfig::default());
    let mut client = HttpClient::connect(server.addr()).unwrap();

    for bad in [
        r#"{"clicks": "nope"}"#,
        r#"{"clicks": []}"#,
        r#"{"clicks": [{"session_id": 1, "timestamp": 3}]}"#,
        r#"{}"#,
    ] {
        let (status, response) = client.post("/ingest", bad).unwrap();
        assert_eq!(status, 400, "batch {bad} -> {response}");
    }
    let (status, response) = client.delete("/ingest/session/not-a-number").unwrap();
    assert_eq!(status, 400, "{response}");
    assert!(response.contains("unsigned integer"), "{response}");
}

#[test]
fn full_append_queue_sheds_with_503() {
    // An hour-long interval: the bursts fill the queue and nothing drains
    // it while the test runs.
    let (_cluster, server) =
        serve_with_ingest(IngestConfig { publish_interval: Duration::from_secs(3_600) });
    let mut client = HttpClient::connect(server.addr()).unwrap();

    let two = r#"{"clicks": [
        {"session_id": 1, "item_id": 2, "timestamp": 3},
        {"session_id": 1, "item_id": 4, "timestamp": 5}
    ]}"#;
    let (status, response) = client.post("/ingest", two).unwrap();
    assert_eq!(status, 202, "{response}");
    // One click short of the bound, in bodies of at most 10,000 clicks.
    let mut pending = 2;
    while pending < MAX_PENDING_APPENDS - 1 {
        let n = 10_000.min(MAX_PENDING_APPENDS - 1 - pending);
        let clicks: Vec<String> = (0..n)
            .map(|i| format!(r#"{{"session_id": 2, "item_id": {i}, "timestamp": 7}}"#))
            .collect();
        let (status, response) =
            client.post("/ingest", &format!(r#"{{"clicks": [{}]}}"#, clicks.join(","))).unwrap();
        assert_eq!(status, 202, "{response}");
        pending += n;
    }
    let (status, response) = client.post("/ingest", two).unwrap();
    assert_eq!(status, 503, "full queue must shed: {response}");
    assert!(response.contains("capacity"), "{response}");
}
