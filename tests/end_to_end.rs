//! End-to-end pipeline test: synthetic clickstream → temporal split →
//! (parallel) index build → binary artefact → serving cluster → HTTP — the
//! full production path of Figure 1 in one test binary.

use std::sync::Arc;

use serenade_core::{SessionId, SessionIndex, Recommender, VmisConfig, VmisKnn};
use serenade_dataset::{generate, split_last_days, SyntheticConfig};
use serenade_index::{build_parallel, read_index, write_index, BuilderConfig};
use serenade_metrics::{evaluate, EvalConfig};
use serenade_serving::engine::{EngineConfig, RecommendRequest, ServingVariant};
use serenade_serving::{HttpClient, HttpServer, HttpServerConfig};
use serenade_serving::{json, BusinessRules, RequestContext, ServingCluster};

fn assert_same_index(a: &SessionIndex, b: &SessionIndex) {
    assert_eq!(a.stats(), b.stats());
    for sid in 0..a.num_sessions() as SessionId {
        assert_eq!(a.session_timestamp(sid), b.session_timestamp(sid));
        assert_eq!(a.session_items(sid), b.session_items(sid));
    }
    for item in a.items() {
        assert_eq!(a.postings(item), b.postings(item));
        assert_eq!(a.item_support(item), b.item_support(item));
    }
}

#[test]
fn full_pipeline_from_clicks_to_http_responses() {
    // 1. Data.
    let dataset = generate(&SyntheticConfig::tiny());
    let split = split_last_days(&dataset.clicks, 1);
    assert!(!split.train.is_empty());
    assert!(!split.test.is_empty());

    // 2. Index: the parallel builder must equal the sequential reference.
    let sequential = SessionIndex::build(&split.train, 500).unwrap();
    let parallel =
        build_parallel(&split.train, BuilderConfig { threads: 4, m_max: 500 }).unwrap();
    assert_same_index(&sequential, &parallel);

    // 3. Artefact roundtrip.
    let mut artefact = Vec::new();
    write_index(&parallel, &mut artefact).unwrap();
    let loaded = read_index(&artefact[..]).unwrap();
    assert_same_index(&sequential, &loaded);

    // 4. Quality floor: the recommender predicts something useful.
    let index = Arc::new(loaded);
    let vmis = VmisKnn::new(Arc::clone(&index), VmisConfig::default()).unwrap();
    let eval = evaluate(
        &vmis,
        &split.test,
        &EvalConfig { cutoff: 20, max_events: Some(500), record_latency: false },
    );
    assert!(eval.events > 0);
    assert!(eval.hit_rate > 0.05, "hit rate {:.4} suspiciously low", eval.hit_rate);

    // 5. Serving cluster over the same index, via real HTTP.
    let cluster = Arc::new(
        ServingCluster::new(index, 1, EngineConfig::default(), BusinessRules::none()).unwrap(),
    );
    let server = HttpServer::serve(Arc::clone(&cluster), HttpServerConfig::default()).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();

    let session = &split.test[0];
    let mut last_body = String::new();
    for &item in session.items.iter().take(3) {
        let (status, body) = client
            .post(
                "/recommend",
                &format!(r#"{{"session_id": 1, "item_id": {item}, "consent": true}}"#),
            )
            .unwrap();
        assert_eq!(status, 200, "{body}");
        last_body = body;
    }
    let parsed = json::parse(&last_body).unwrap();
    let recs = parsed.get("recommendations").unwrap().elements().unwrap().collect::<Vec<_>>();
    assert!(!recs.is_empty(), "a known session must produce recommendations");
    assert!(recs.len() <= 21);
    assert_eq!(
        cluster.stored_session_len(1),
        3,
        "the session must accumulate in the engine's store"
    );
    server.shutdown();
}

#[test]
fn serving_variants_agree_with_direct_algorithm_calls() {
    let dataset = generate(&SyntheticConfig::tiny());
    let index = Arc::new(SessionIndex::build(&dataset.clicks, 500).unwrap());

    // Engine in `Full` view with no business rules must reproduce raw
    // VMIS-kNN predictions for the accumulated session.
    let mut engine_cfg = EngineConfig::default();
    engine_cfg.variant = ServingVariant::Full;
    engine_cfg.how_many = 10;
    let cluster = Arc::new(
        ServingCluster::new(Arc::clone(&index), 1, engine_cfg, BusinessRules::none()).unwrap(),
    );

    let mut vmis_cfg = VmisConfig::default();
    vmis_cfg.how_many = 20; // engine over-fetches 2x then truncates
    let vmis = VmisKnn::new(index, vmis_cfg).unwrap();

    let session: Vec<u64> = dataset.clicks.iter().take(4).map(|c| c.item_id).collect();
    let mut via_engine = Vec::new();
    let mut ctx = RequestContext::new();
    for &item in &session {
        via_engine = cluster
            .handle_with(
                RecommendRequest { session_id: 99, item, consent: true, filter_adult: false },
                &mut ctx,
            )
            .unwrap();
    }
    let mut direct = Recommender::recommend(&vmis, &session, 10);
    direct.truncate(10);
    assert_eq!(via_engine, direct);
}
