//! The serving process: one engine plus what only a process has.
//!
//! Mirrors one serving machine of the production deployment (Figure 1,
//! right): it holds a replica of the session-similarity index and its
//! partition of the evolving-session state. Session affinity across
//! machines is the router tier's job ([`crate::routerd`]), so a process
//! holds exactly one partition and runs exactly one [`Engine`]. Around it
//! sit the telemetry hub, the ingest pipeline and trace recording.
//!
//! The daily rollover ([`ServingCluster::reload_index`]) builds the
//! `VmisKnn` exactly once and publishes it atomically through the engine's
//! [`IndexHandle`](crate::handle::IndexHandle). If the build or validation
//! fails, nothing is published and the engine keeps serving the old index.
//! While live ingest is enabled its publisher is the index's one writer, and
//! a rollover is refused ([`RolloverError::IngestEnabled`]).

use std::cell::RefCell;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use serenade_core::{Click, CoreError, ItemScore, SessionIndex};
use serenade_telemetry::{TraceConfig, TraceSample};

use crate::cache::PredictionCache;
use crate::context::RequestContext;
use crate::engine::{build_recommender, Engine, EngineConfig, RecommendRequest};
use crate::error::ServingError;
use crate::ingest::epoch::EpochChange;
use crate::ingest::{IngestConfig, IngestPipeline};
use crate::rules::BusinessRules;
use crate::telemetry::ClusterTelemetry;

/// Why [`ServingCluster::reload_index`] published nothing. The old index
/// keeps serving either way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RolloverError {
    /// Live ingest is enabled: its publisher is the index's one writer, and
    /// its next publish would undo the rollover.
    IngestEnabled,
    /// The recommender could not be built over the index.
    Invalid(CoreError),
}

impl fmt::Display for RolloverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RolloverError::IngestEnabled => f.write_str(
                "live ingest is this node's index writer; its next publish would undo a rollover",
            ),
            RolloverError::Invalid(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RolloverError {}

/// A serving process's engine plus its telemetry hub and, once enabled,
/// its ingest pipeline.
pub struct ServingCluster {
    engine: Arc<Engine>,
    telemetry: Arc<ClusterTelemetry>,
    /// The streaming write path, set once by
    /// [`ServingCluster::enable_ingest`]; `None` for read-only clusters.
    ingest: OnceLock<Arc<IngestPipeline>>,
}

impl ServingCluster {
    /// Builds the process's engine over `index` (the recommender is built
    /// once, here). `pods` must be 1: sessions are partitioned across
    /// nodes by the router tier, never inside a process.
    pub fn new(
        index: Arc<SessionIndex>,
        pods: usize,
        config: EngineConfig,
        rules: BusinessRules,
    ) -> Result<Self, CoreError> {
        Self::with_trace_config(index, pods, config, rules, TraceConfig::default())
    }

    /// [`ServingCluster::new`] with an explicit slow-request trace
    /// configuration (ring size, sampling rate, slow threshold).
    pub fn with_trace_config(
        index: Arc<SessionIndex>,
        pods: usize,
        config: EngineConfig,
        rules: BusinessRules,
        trace: TraceConfig,
    ) -> Result<Self, CoreError> {
        if pods != 1 {
            return Err(CoreError::InvalidConfig {
                parameter: "pods",
                reason: format!(
                    "a serving process runs exactly one engine, not {pods}; \
                     partition sessions across nodes behind serenade-routerd"
                ),
            });
        }
        let engine = Arc::new(Engine::new(index, config, rules)?);
        let telemetry = Arc::new(ClusterTelemetry::new(trace));
        let registry = telemetry.registry();
        telemetry.watch_index(engine.index_handle());
        if let Some(cache) = engine.prediction_cache() {
            cache.register_into(registry);
        }
        engine.stats_handle().register_into(registry);
        let live = Arc::clone(&engine);
        registry.polled_gauge(
            "serenade_live_sessions",
            "Live (non-expired) sessions stored on the node.",
            &[],
            move || live.live_sessions() as u64,
        );
        let expirations = Arc::clone(&engine);
        registry.polled_counter(
            "serenade_session_expirations_total",
            "Sessions reclaimed lazily on access after their TTL elapsed.",
            &[],
            move || expirations.session_expiry_counts().0,
        );
        let evictions = Arc::clone(&engine);
        registry.polled_counter(
            "serenade_session_evictions_total",
            "Sessions reclaimed by the eager TTL eviction sweep.",
            &[],
            move || evictions.session_expiry_counts().1,
        );
        Ok(Self { engine, telemetry, ingest: OnceLock::new() })
    }

    /// The process's engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The prediction cache, if enabled.
    pub fn prediction_cache(&self) -> Option<&Arc<PredictionCache>> {
        self.engine.prediction_cache()
    }

    /// Enables the streaming write path: seeds an incremental indexer with
    /// `seed` (the click log the serving index was built from) and starts
    /// the publisher thread that mini-publishes through the engine's index
    /// handle. At most once per cluster; from then on the publisher is the
    /// single index writer, and [`ServingCluster::reload_index`] refuses.
    pub fn enable_ingest(
        &self,
        config: IngestConfig,
        seed: &[Click],
    ) -> Result<Arc<IngestPipeline>, CoreError> {
        let pipeline = IngestPipeline::start(
            config,
            seed,
            Arc::clone(self.engine.index_handle()),
            self.engine.config().clone(),
            self.engine.prediction_cache().cloned(),
            Arc::clone(&self.telemetry),
        )?;
        if self.ingest.set(Arc::clone(&pipeline)).is_err() {
            return Err(CoreError::InvalidConfig {
                parameter: "ingest",
                reason: String::from("ingest is already enabled on this cluster"),
            });
        }
        pipeline.metrics().register_into(self.telemetry.registry());
        {
            let pipeline = Arc::clone(&pipeline);
            self.telemetry.registry().polled_gauge(
                "serenade_ingest_pending_clicks",
                "Click events waiting for the next mini-publish.",
                &[],
                move || pipeline.pending_clicks() as u64,
            );
        }
        Ok(pipeline)
    }

    /// The streaming ingest pipeline, if enabled.
    pub fn ingest(&self) -> Option<&Arc<IngestPipeline>> {
        self.ingest.get()
    }

    /// Unlearns a session: removes it from the live index and republishes
    /// it (synchronous, through the ingest pipeline),
    /// then erases its evolving state from the session store so the session
    /// also stops influencing its *own* future requests. Returns whether
    /// the session existed in either. Requires ingest to be enabled.
    pub fn delete_session(&self, session_id: u64) -> Result<bool, ServingError> {
        let Some(pipeline) = self.ingest() else {
            return Err(ServingError::Internal("ingest is not enabled on this cluster"));
        };
        let in_index = pipeline.delete_session(session_id)?;
        let in_store = self.engine.forget_session(session_id);
        Ok(in_index || in_store)
    }

    /// The cluster's observability hub (metric registry, trace ring,
    /// request-id source).
    pub fn telemetry(&self) -> &Arc<ClusterTelemetry> {
        &self.telemetry
    }

    /// Feeds a served request back into the live index when the ingest
    /// hook is enabled. Consent-gated: depersonalised traffic never lands
    /// in the live index.
    fn feed_ingest(&self, req: &RecommendRequest) {
        if !req.consent {
            return;
        }
        if let Some(pipeline) = self.ingest() {
            pipeline.observe_request(req.session_id, req.item);
        }
    }

    /// Handles a request with a per-thread context:
    /// [`ServingCluster::handle_with`] for callers without worker state.
    pub fn handle(&self, req: RecommendRequest) -> Result<Vec<ItemScore>, ServingError> {
        thread_local! {
            static CTX: RefCell<RequestContext> = RefCell::new(RequestContext::new());
        }
        CTX.with(|ctx| self.handle_with(req, &mut ctx.borrow_mut()))
    }

    /// Handles a request, reusing the caller's per-worker
    /// [`RequestContext`]. A successful request is fed back into live
    /// ingest and offered to the slow-request trace ring (subject to its
    /// sampling knobs) with the per-stage breakdown left on the context. The
    /// id and kernel counters are consumed either way, so nothing stale
    /// leaks into the next request handled on this context.
    pub fn handle_with(
        &self,
        req: RecommendRequest,
        ctx: &mut RequestContext,
    ) -> Result<Vec<ItemScore>, ServingError> {
        let result = self.engine.handle_with(req, ctx);
        let request_id = ctx.take_request_id();
        let work = ctx.take_kernel_work();
        if result.is_err() {
            return result;
        }
        self.feed_ingest(&req);
        let timings = ctx.last_timings();
        self.telemetry.traces().record(&TraceSample {
            request_id: if request_id == 0 {
                self.telemetry.next_request_id()
            } else {
                request_id
            },
            total_us: timings.total().as_micros() as u64,
            session_us: timings.session.as_micros() as u64,
            predict_us: timings.predict.as_micros() as u64,
            policy_us: timings.policy.as_micros() as u64,
            session_len: ctx.session_len() as u64,
            // Degraded requests served the depersonalised fallback view,
            // so the trace marks them the same way.
            depersonalised: !req.consent || ctx.degraded(),
            postings_walked: work.postings_walked,
            candidates: work.candidates,
            evicted: work.evicted,
        });
        result
    }

    /// Live sessions in the session store.
    pub fn live_sessions(&self) -> usize {
        self.engine.live_sessions()
    }

    /// Runs the TTL sweep; returns how many sessions it evicted.
    pub fn evict_expired_sessions(&self) -> usize {
        self.engine.evict_expired_sessions()
    }

    /// The daily rollover (Figure 1's "index replication" arrow): builds
    /// the recommender from `index` exactly once and publishes it
    /// atomically. Readers never block, in-flight requests finish on the
    /// version they loaded, and session state survives. On error, the
    /// engine stays on the old index. A cluster with live ingest refuses:
    /// its publisher is the one index writer.
    pub fn reload_index(&self, index: Arc<SessionIndex>) -> Result<(), RolloverError> {
        if self.ingest().is_some() {
            return Err(RolloverError::IngestEnabled);
        }
        let started = Instant::now();
        let fresh = build_recommender(index, self.engine.config()).map_err(RolloverError::Invalid)?;
        let fresh = crate::sync::Arc::new(fresh);
        let handle = self.engine.index_handle();
        // A rollover replaces the whole neighbourhood structure: record an
        // all-items epoch (before the store — see the epoch-log contract)
        // so no cached entry survives via epoch revalidation.
        if let Some(cache) = self.engine.prediction_cache() {
            cache.epoch_log().record(handle.generation() + 1, EpochChange::All);
        }
        handle.store(fresh);
        self.telemetry.record_rollover(started.elapsed());
        Ok(())
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;
    use serenade_core::Click;

    fn index() -> Arc<SessionIndex> {
        let mut clicks = Vec::new();
        for s in 0..40u64 {
            let ts = 100 + s * 10;
            clicks.push(Click::new(s + 1, s % 6, ts));
            clicks.push(Click::new(s + 1, (s + 1) % 6, ts + 1));
        }
        Arc::new(SessionIndex::build(&clicks, 500).unwrap())
    }

    fn cluster() -> ServingCluster {
        ServingCluster::new(index(), 1, EngineConfig::default(), BusinessRules::none()).unwrap()
    }

    fn req(session_id: u64, item: u64) -> RecommendRequest {
        RecommendRequest { session_id, item, consent: true, filter_adult: false }
    }

    #[test]
    fn a_process_runs_exactly_one_engine() {
        for pods in [0, 2] {
            match ServingCluster::new(index(), pods, EngineConfig::default(), BusinessRules::none())
            {
                Err(CoreError::InvalidConfig { parameter, .. }) => assert_eq!(parameter, "pods"),
                other => panic!("{pods} pods must be rejected, got {:?}", other.err()),
            }
        }
        // A node builds its cluster with the one engine and serves from it.
        let node = crate::node::ServingNode::start(index(), Default::default()).unwrap();
        let mut client = crate::transport::HttpClient::connect(node.data_addr()).unwrap();
        let (status, _) = client
            .post("/recommend", r#"{"session_id": 5, "item_id": 1, "consent": true}"#)
            .unwrap();
        assert_eq!(status, 200);
        assert_eq!(node.cluster().engine().stored_session_len(5), 1);
        node.shutdown();
    }

    #[test]
    fn sticky_sessions_accumulate_on_one_pod() {
        let c = cluster();
        for i in 0..5 {
            c.handle(req(42, i % 6)).unwrap();
        }
        // The engine holds session 42, with all 5 clicks.
        assert_eq!(c.engine().stored_session_len(42), 5);
        assert_eq!(c.live_sessions(), 1);
    }

    #[test]
    fn handle_with_matches_handle() {
        let a = cluster();
        let b = cluster();
        let mut ctx = RequestContext::new();
        for sid in 0..10u64 {
            assert_eq!(a.handle_with(req(sid, sid % 6), &mut ctx).unwrap(), b.handle(req(sid, sid % 6)).unwrap());
        }
    }

    #[test]
    fn eviction_sweep_runs_on_all_pods() {
        let c = cluster();
        for sid in 0..10u64 {
            c.handle(req(sid, 0)).unwrap();
        }
        // Nothing has expired (default 30-minute TTL).
        assert_eq!(c.evict_expired_sessions(), 0);
        assert_eq!(c.live_sessions(), 10);
    }

    #[test]
    fn depersonalised_requests_share_one_prediction_cache() {
        let c = cluster();
        let shared = c.prediction_cache().expect("enabled by default");
        // Depersonalised requests from different sessions all hit the one
        // cache after the first computation.
        let dep = |sid| RecommendRequest {
            session_id: sid,
            item: 1,
            consent: false,
            filter_adult: false,
        };
        let first = c.handle(dep(0)).unwrap();
        for sid in 1..8u64 {
            assert_eq!(c.handle(dep(sid)).unwrap(), first);
        }
        assert_eq!((shared.hit_count(), shared.miss_count()), (7, 1));
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod ingest_tests {
    use super::*;
    use crate::ingest::IngestConfig;
    use serenade_core::Click;
    use std::time::Duration;

    fn seed_clicks() -> Vec<Click> {
        let mut clicks = Vec::new();
        for s in 0..40u64 {
            let ts = 100 + s * 10;
            clicks.push(Click::new(s + 1, s % 6, ts));
            clicks.push(Click::new(s + 1, (s + 1) % 6, ts + 1));
        }
        clicks
    }

    fn cluster_with_ingest(config: IngestConfig) -> (ServingCluster, Arc<IngestPipeline>) {
        let clicks = seed_clicks();
        let index = Arc::new(SessionIndex::build(&clicks, 500).unwrap());
        let cluster =
            ServingCluster::new(index, 1, EngineConfig::default(), BusinessRules::none())
                .unwrap();
        let pipeline = cluster.enable_ingest(config, &clicks).unwrap();
        (cluster, pipeline)
    }

    fn dep(session_id: u64, item: u64) -> RecommendRequest {
        RecommendRequest { session_id, item, consent: false, filter_adult: false }
    }

    #[test]
    fn ingested_clicks_become_visible_after_a_publish() {
        let (c, p) = cluster_with_ingest(IngestConfig {
            publish_interval: Duration::from_millis(5),
            ..IngestConfig::default()
        });
        let generation_before = c.engine().index_handle().generation();
        // Item 42 does not exist in the seed log: nothing to recommend.
        assert!(c.handle(dep(900, 42)).unwrap().is_empty());

        assert!(p.submit(&[Click::new(1_000, 0, 10_000), Click::new(1_000, 42, 10_001)]));
        let generation_after = p.flush().unwrap();
        assert!(generation_after > generation_before, "publish must bump the generation");
        assert_eq!(p.metrics().publishes(), 1);

        // The live co-occurrence (0, 42) is now served.
        let recs = c.handle(dep(901, 42)).unwrap();
        assert!(recs.iter().any(|r| r.item == 0), "fresh neighbourhood must serve: {recs:?}");
    }

    #[test]
    fn cluster_delete_purges_log_and_session_state() {
        let (c, _p) = cluster_with_ingest(IngestConfig {
            publish_interval: Duration::from_millis(5),
            ..IngestConfig::default()
        });
        // A consented request leaves evolving state in the session store.
        c.handle(RecommendRequest { session_id: 77, item: 3, consent: true, filter_adult: false })
            .unwrap();
        assert_eq!(c.engine().stored_session_len(77), 1);

        // Unlearning erases both the state and (here, absent) log entry.
        assert!(c.delete_session(77).unwrap(), "session state existed in the store");
        assert_eq!(c.engine().stored_session_len(77), 0);

        // Seed session 5 exists only in the click log — still "existed".
        assert!(c.delete_session(5).unwrap(), "session 5 was in the seed log");
        // A session nobody ever saw: nothing anywhere.
        assert!(!c.delete_session(999_999).unwrap());
    }

    #[test]
    fn cluster_delete_requires_ingest() {
        let clicks = seed_clicks();
        let index = Arc::new(SessionIndex::build(&clicks, 500).unwrap());
        let cluster =
            ServingCluster::new(index, 1, EngineConfig::default(), BusinessRules::none())
                .unwrap();
        assert!(cluster.delete_session(1).is_err());
    }

    #[test]
    fn observe_served_feeds_the_index() {
        let (c, p) = cluster_with_ingest(IngestConfig {
            publish_interval: Duration::from_millis(5),
            ..IngestConfig::default()
        });
        p.observe_served(4_000, 3, 10_000);
        p.observe_served(4_000, 99, 10_001);
        p.flush().unwrap();
        let recs = c.handle(dep(902, 99)).unwrap();
        assert!(recs.iter().any(|r| r.item == 3), "served clicks must reach the index: {recs:?}");
        assert_eq!(p.metrics().accepted_clicks(), 2);
    }

    #[test]
    fn deleted_session_stops_influencing_recommendations() {
        let (c, p) = cluster_with_ingest(IngestConfig {
            publish_interval: Duration::from_millis(5),
            ..IngestConfig::default()
        });
        assert!(p.submit(&[Click::new(2_000, 5, 10_000), Click::new(2_000, 77, 10_001)]));
        p.flush().unwrap();
        assert!(c.handle(dep(903, 77)).unwrap().iter().any(|r| r.item == 5));

        assert!(p.delete_session(2_000).unwrap(), "the session existed");
        assert!(
            c.handle(dep(904, 77)).unwrap().is_empty(),
            "the unlearned session must stop influencing predictions"
        );
        assert_eq!(p.metrics().deletions(), 1);
        // Unknown sessions report false but still tombstone.
        assert!(!p.delete_session(999_999).unwrap());
    }

    #[test]
    fn flush_with_nothing_pending_is_a_cheap_sync_point() {
        let (c, p) = cluster_with_ingest(IngestConfig::default());
        let generation = c.engine().index_handle().generation();
        assert_eq!(p.flush().unwrap(), generation, "no publish without work");
        assert_eq!(p.metrics().publishes(), 0);
    }

    #[test]
    fn full_queue_rejects_the_whole_batch() {
        // A long interval keeps the publisher from draining mid-test.
        let (_c, p) = cluster_with_ingest(IngestConfig {
            publish_interval: Duration::from_secs(30),
            max_pending_appends: 4,
            ..IngestConfig::default()
        });
        let click = |s| Click::new(s, 1, 10_000);
        assert!(p.submit(&[click(1), click(2), click(3)]));
        assert!(!p.submit(&[click(4), click(5)]), "3 + 2 exceeds the bound of 4");
        assert_eq!(p.pending_clicks(), 3, "rejected batches admit nothing");
        assert_eq!(p.metrics().rejected_clicks(), 2);
        assert!(p.submit(&[click(6)]), "room for one more");
    }

    #[test]
    fn mini_publish_revalidates_untouched_cache_entries() {
        let (c, p) = cluster_with_ingest(IngestConfig {
            publish_interval: Duration::from_millis(5),
            ..IngestConfig::default()
        });
        let cache = c.prediction_cache().unwrap();
        let warm = c.handle(dep(905, 1)).unwrap();
        assert_eq!(c.handle(dep(906, 1)).unwrap(), warm, "warm: second request hits");
        let hits_before = cache.hit_count();

        // A publish touching only brand-new items (40, 41).
        assert!(p.submit(&[Click::new(3_000, 40, 10_000), Click::new(3_000, 41, 10_001)]));
        p.flush().unwrap();

        assert_eq!(c.handle(dep(907, 1)).unwrap(), warm, "untouched entry still serves");
        assert_eq!(cache.revalidation_count(), 1, "served via epoch revalidation");
        assert_eq!(cache.hit_count(), hits_before + 1);
        assert_eq!(cache.stale_count(), 0, "no whole-generation eviction happened");
    }

    #[test]
    fn mini_publish_invalidates_touched_cache_entries() {
        let (c, p) = cluster_with_ingest(IngestConfig {
            publish_interval: Duration::from_millis(5),
            ..IngestConfig::default()
        });
        let cache = c.prediction_cache().unwrap();
        let before = c.handle(dep(908, 1)).unwrap();
        assert_eq!(c.handle(dep(909, 1)).unwrap(), before, "warm: second request hits");

        // A session containing item 1 changes item 1's neighbourhood.
        assert!(p.submit(&[Click::new(3_100, 1, 10_000), Click::new(3_100, 55, 10_001)]));
        p.flush().unwrap();

        let after = c.handle(dep(910, 1)).unwrap();
        assert_ne!(after, before, "the touched item's answer must be recomputed");
        assert!(after.iter().any(|r| r.item == 55), "and reflect the live click: {after:?}");
        assert_eq!(cache.stale_count(), 1, "the touched entry was invalidated");
        assert_eq!(cache.revalidation_count(), 0);
    }

    #[test]
    fn served_session_hook_feeds_consented_requests_only() {
        let (c, p) = cluster_with_ingest(IngestConfig {
            publish_interval: Duration::from_secs(30),
            observe_served: true,
            ..IngestConfig::default()
        });
        let consented =
            RecommendRequest { session_id: 700, item: 1, consent: true, filter_adult: false };
        c.handle(consented).unwrap();
        c.handle(dep(701, 1)).unwrap();
        assert_eq!(
            p.metrics().accepted_clicks(),
            1,
            "only the consented request feeds the index"
        );
        assert_eq!(p.pending_clicks(), 1);
    }

    #[test]
    fn served_session_hook_is_off_by_default() {
        let (c, p) = cluster_with_ingest(IngestConfig {
            publish_interval: Duration::from_secs(30),
            ..IngestConfig::default()
        });
        let consented =
            RecommendRequest { session_id: 702, item: 1, consent: true, filter_adult: false };
        c.handle(consented).unwrap();
        assert_eq!(p.metrics().accepted_clicks(), 0);
    }

    #[test]
    fn enable_ingest_is_at_most_once() {
        let (c, _p) = cluster_with_ingest(IngestConfig::default());
        assert!(c.ingest().is_some());
        c.enable_ingest(IngestConfig::default(), &seed_clicks())
            .expect_err("second enable must be rejected");
    }

    #[test]
    fn a_rollover_on_an_ingest_cluster_is_refused_and_ingest_keeps_the_index() {
        let (c, p) = cluster_with_ingest(IngestConfig {
            publish_interval: Duration::from_millis(5),
            ..IngestConfig::default()
        });
        let sessions = || c.engine().index_handle().load().index().num_sessions();
        assert_eq!(sessions(), 40);
        let generation = c.engine().index_handle().generation();

        // A different index: had it been published, the next mini-publish
        // would have stored the click merged into the seed over it.
        let mut clicks = seed_clicks();
        for s in 0..20u64 {
            clicks.push(Click::new(500 + s, (s + 3) % 6, 5_000 + s));
            clicks.push(Click::new(500 + s, (s + 4) % 6, 5_001 + s));
        }
        let rollover = c.reload_index(Arc::new(SessionIndex::build(&clicks, 500).unwrap()));
        assert_eq!(rollover, Err(RolloverError::IngestEnabled));
        assert_eq!(c.engine().index_handle().generation(), generation, "nothing was published");
        assert!(
            c.prediction_cache().unwrap().epoch_log().is_empty(),
            "no epoch was recorded for a publish that did not happen"
        );

        assert!(p.submit(&[Click::new(1_000, 0, 10_000), Click::new(1_000, 1, 10_001)]));
        p.flush().unwrap();
        assert_eq!(sessions(), 41, "the seed plus the click");
        assert_eq!(c.engine().index_handle().generation(), generation + 1);
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod rollover_tests {
    use super::*;
    use serenade_core::Click;

    fn make_index(offset: u64) -> Arc<SessionIndex> {
        let mut clicks = Vec::new();
        for s in 0..20u64 {
            let ts = 100 + s * 10;
            clicks.push(Click::new(s + 1, (s + offset) % 6, ts));
            clicks.push(Click::new(s + 1, (s + offset + 1) % 6, ts + 1));
        }
        Arc::new(SessionIndex::build(&clicks, 500).unwrap())
    }

    fn req(session_id: u64, item: u64) -> RecommendRequest {
        RecommendRequest { session_id, item, consent: true, filter_adult: false }
    }

    #[test]
    fn daily_rollover_changes_predictions_but_keeps_sessions() {
        let c = ServingCluster::new(
            make_index(0),
            1,
            EngineConfig::default(),
            BusinessRules::none(),
        )
        .unwrap();
        let before = c.handle(req(7, 1)).unwrap();
        assert_eq!(c.engine().stored_session_len(7), 1);

        // Overnight: a new index arrives and is published.
        c.reload_index(make_index(3)).unwrap();

        // Session state survived the rollover...
        assert_eq!(c.engine().stored_session_len(7), 1);
        // ...and predictions now come from the new index.
        let after = c.handle(req(8, 1)).unwrap();
        assert_ne!(before, after, "rollover must change the model");
        assert_eq!(c.engine().stored_session_len(7), 1);
    }

    #[test]
    fn rollover_invalidates_the_shared_cache() {
        let c = ServingCluster::new(
            make_index(0),
            1,
            EngineConfig::default(),
            BusinessRules::none(),
        )
        .unwrap();
        let dep = |sid: u64| RecommendRequest {
            session_id: sid,
            item: 1,
            consent: false,
            filter_adult: false,
        };
        let before = c.handle(dep(1)).unwrap();
        assert_eq!(c.handle(dep(2)).unwrap(), before, "warm: second request hits");

        c.reload_index(make_index(3)).unwrap();

        // The cached entry carries the old generation stamp: the next probe
        // rejects it and recomputes on the new index.
        let after = c.handle(dep(3)).unwrap();
        assert_ne!(after, before, "rollover must change the depersonalised answer");
        let cache = c.prediction_cache().unwrap();
        assert_eq!(cache.stale_count(), 1);
        assert_eq!(c.handle(dep(4)).unwrap(), after, "fresh entry serves hits again");
    }

    #[test]
    fn failed_rollover_leaves_every_pod_on_the_old_index() {
        let c = ServingCluster::new(
            make_index(0),
            1,
            EngineConfig::default(),
            BusinessRules::none(),
        )
        .unwrap();
        let before: Vec<_> = (0..6u64).map(|i| c.handle(req(100 + i, i % 6)).unwrap()).collect();
        let old = Arc::as_ptr(&c.engine().index_handle().load());

        // A broken artefact: posting capacity m_max = 2 cannot satisfy the
        // configured sample size m = 500, so validation rejects it.
        let clicks =
            vec![Click::new(1, 0, 10), Click::new(1, 1, 11), Click::new(2, 0, 20)];
        let broken = Arc::new(SessionIndex::build(&clicks, 2).unwrap());
        c.reload_index(broken).expect_err("validation must reject the artefact");

        // Atomic from the caller's view: the engine did not move.
        assert_eq!(Arc::as_ptr(&c.engine().index_handle().load()), old);
        let after: Vec<_> = (0..6u64).map(|i| c.handle(req(200 + i, i % 6)).unwrap()).collect();
        assert_eq!(before, after, "predictions must be unchanged");
    }

    #[test]
    fn requests_keep_flowing_during_concurrent_rollovers() {
        let c = Arc::new(
            ServingCluster::new(
                make_index(0),
                1,
                EngineConfig::default(),
                BusinessRules::none(),
            )
            .unwrap(),
        );
        let swapper = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                for round in 0..20u64 {
                    c.reload_index(make_index(round % 5)).unwrap();
                }
            })
        };
        let workers: Vec<_> = (0..4u64)
            .map(|sid| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    let mut ctx = RequestContext::new();
                    for i in 0..100u64 {
                        let recs = c.handle_with(req(sid, i % 6), &mut ctx).unwrap();
                        assert!(recs.len() <= 21);
                    }
                })
            })
            .collect();
        swapper.join().unwrap();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(c.live_sessions(), 4);
    }

    #[test]
    fn hot_swap_readers_observe_consistent_versions() {
        // Requests racing reload_index: every response must come from one
        // coherent index version (old or new), never a torn mixture, and
        // readers must keep making progress while swaps happen.
        let c = Arc::new(
            ServingCluster::new(
                make_index(0),
                1,
                EngineConfig::default(),
                BusinessRules::none(),
            )
            .unwrap(),
        );
        let indices: Vec<_> = (0..4u64).map(make_index).collect();
        // Expected response per index version, per probe item.
        let expectations: Vec<Vec<_>> = indices
            .iter()
            .map(|idx| {
                let probe = ServingCluster::new(
                    Arc::clone(idx),
                    1,
                    EngineConfig::default(),
                    BusinessRules::none(),
                )
                .unwrap();
                (0..6u64).map(|item| probe.handle(req(item + 1, item)).unwrap()).collect()
            })
            .collect();

        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        let stop = Arc::new(AtomicBool::new(false));
        let progress: Arc<Vec<AtomicU64>> =
            Arc::new((0..3).map(|_| AtomicU64::new(0)).collect());
        let readers: Vec<_> = (0..3u64)
            .map(|r| {
                let c = Arc::clone(&c);
                let stop = Arc::clone(&stop);
                let progress = Arc::clone(&progress);
                let expectations = expectations.clone();
                std::thread::spawn(move || {
                    let mut ctx = RequestContext::new();
                    let mut reads = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let item = reads % 6;
                        // Depersonalised requests leave no session state, so
                        // every response is a pure function of (item, index).
                        let recs = c.handle_with(
                            RecommendRequest {
                                session_id: 1_000 + r,
                                item,
                                consent: false,
                                filter_adult: false,
                            },
                            &mut ctx,
                        )
                        .unwrap();
                        assert!(
                            expectations.iter().any(|e| e[item as usize] == recs),
                            "response must match exactly one published version",
                        );
                        reads += 1;
                        progress[r as usize].store(reads, Ordering::Relaxed);
                    }
                    reads
                })
            })
            .collect();
        // Keep swapping until every reader has made progress *while swaps
        // were in flight* — a fixed swap count can finish before the reader
        // threads are even scheduled.
        let mut round = 0u64;
        loop {
            c.reload_index(Arc::clone(&indices[(round % 4) as usize])).unwrap();
            round += 1;
            if round >= 200 && progress.iter().all(|p| p.load(Ordering::Relaxed) > 0) {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0, "readers must not be blocked by swaps");
        }
    }
}
