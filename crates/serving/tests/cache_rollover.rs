//! Socket-level proof that the prediction cache never serves a stale list
//! across an index rollover.
//!
//! Drives a real `HttpServer` over a cache-enabled `ServingCluster`:
//! depersonalised `POST /recommend` traffic warms the cache on index A,
//! then the cluster rolls over to index B and the same requests are issued
//! again. Every post-rollover response must be byte-for-byte what a
//! reference cluster built directly on index B answers — if even one hot
//! entry survived the rollover, the comparison fails. The `/metrics`
//! exposition is checked alongside: the cache counters must account for the
//! warm-up hits and the post-rollover stale rejections.

#![cfg(not(feature = "loom"))]

use std::sync::Arc;

use serenade_core::{Click, SessionIndex};
use serenade_serving::engine::EngineConfig;
use serenade_serving::{HttpClient, HttpServer, HttpServerConfig};
use serenade_serving::{BusinessRules, ServingCluster};

/// Sessions walk the item ring with the given stride, so the stride decides
/// which items co-occur: stride 1 pairs each item with its ring neighbours,
/// stride 2 with the next-but-one items — materially different
/// recommendations for every item.
fn make_index(stride: u64) -> Arc<SessionIndex> {
    let mut clicks = Vec::new();
    for s in 0..30u64 {
        let ts = 100 + s * 10;
        clicks.push(Click::new(s + 1, s % 6, ts));
        clicks.push(Click::new(s + 1, (s + stride) % 6, ts + 1));
        clicks.push(Click::new(s + 1, (s + 2 * stride) % 6, ts + 2));
    }
    Arc::new(SessionIndex::build(&clicks, 500).unwrap())
}

fn cluster_on(index: Arc<SessionIndex>) -> Arc<ServingCluster> {
    Arc::new(
        ServingCluster::new(index, 1, EngineConfig::default(), BusinessRules::none())
            .unwrap(),
    )
}

/// A depersonalised request body: a fresh session id per call keeps the
/// response a pure function of `(item, index version)`.
fn body(session_id: u64, item: u64) -> String {
    format!(r#"{{"session_id": {session_id}, "item_id": {item}, "consent": false}}"#)
}

fn recommendations(client: &mut HttpClient, session_id: u64, item: u64) -> String {
    let (status, response) = client.post("/recommend", &body(session_id, item)).unwrap();
    assert_eq!(status, 200, "{response}");
    // The wire body is deterministic JSON; compare it verbatim.
    response
}

fn metric(client: &mut HttpClient, name: &str) -> f64 {
    let (status, exposition) = client.get("/metrics").unwrap();
    assert_eq!(status, 200);
    serenade_telemetry::parse(&exposition)
        .unwrap()
        .sum_values(name, &[])
}

#[test]
fn no_stale_recommendation_crosses_an_index_rollover() {
    let cluster = cluster_on(make_index(1));
    let server =
        HttpServer::serve(Arc::clone(&cluster), HttpServerConfig::default()).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();

    // Warm every item twice on index A: the second pass is all cache hits.
    let items: Vec<u64> = (0..6).collect();
    let before: Vec<String> = items
        .iter()
        .map(|&item| recommendations(&mut client, 10_000 + item, item))
        .collect();
    for (i, &item) in items.iter().enumerate() {
        assert_eq!(
            recommendations(&mut client, 20_000 + item, item),
            before[i],
            "a warm-cache hit must repeat the computed response"
        );
    }
    assert_eq!(metric(&mut client, "serenade_cache_hits_total"), 6.0);
    assert_eq!(metric(&mut client, "serenade_cache_misses_total"), 6.0);

    // The daily rollover: index B replaces A while the server keeps serving.
    cluster.reload_index(make_index(2)).unwrap();

    // Reference: a fresh cluster that has only ever seen index B.
    let reference = cluster_on(make_index(2));
    let reference_server =
        HttpServer::serve(Arc::clone(&reference), HttpServerConfig::default()).unwrap();
    let mut reference_client = HttpClient::connect(reference_server.addr()).unwrap();

    let mut changed = 0;
    for &item in &items {
        let after = recommendations(&mut client, 30_000 + item, item);
        let expected = recommendations(&mut reference_client, 30_000 + item, item);
        assert_eq!(
            after, expected,
            "post-rollover response for item {item} must come from index B"
        );
        if after != before[item as usize] {
            changed += 1;
        }
    }
    // The two indices are engineered to disagree, so serving a cached
    // index-A list would have been *visible* — the comparison above had
    // teeth for at least most items.
    assert!(changed >= 3, "rollover changed only {changed} of 6 answers");

    // Every hot entry was rejected by its stale generation stamp, exactly
    // once, and the recomputed entries serve hits again.
    assert_eq!(metric(&mut client, "serenade_cache_stale_total"), 6.0);
    for &item in &items {
        let again = recommendations(&mut client, 40_000 + item, item);
        let expected = recommendations(&mut reference_client, 40_000 + item, item);
        assert_eq!(again, expected);
    }
    assert_eq!(metric(&mut client, "serenade_cache_hits_total"), 12.0);
    assert!(metric(&mut client, "serenade_cache_entries") >= 6.0);

    server.shutdown();
    reference_server.shutdown();
}
