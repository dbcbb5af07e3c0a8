//! The serving process's engine: the request pipeline over the node's
//! index replica and its partition of the evolving sessions.
//!
//! Mirrors one serving machine of the production deployment (Figure 1,
//! right): it holds a replica of the session-similarity index and its
//! partition of the evolving-session state. Session affinity across
//! machines is the router tier's job ([`crate::routerd`]), so a process
//! holds exactly one partition and runs exactly one [`ServingCluster`].
//! Beside the pipeline sit the telemetry hub, the ingest pipeline and trace
//! recording.
//!
//! [`ServingCluster::handle_with`] answers one shop-frontend request end to
//! end (Section 4.2) in three timed stages:
//!
//! 1. **Session stage** — update the evolving session in the node's
//!    [`TtlStore`] and extract the configured view of it. A node stores a
//!    session's last `vmis.max_session_len` clicks, the window the kernel
//!    reads.
//! 2. **Prediction stage** — answer a cacheable view from the prediction
//!    cache, or run VMIS-kNN over the view against the currently published
//!    index.
//! 3. **Policy stage** — apply business rules and truncate to the 21 items
//!    the product-detail-page slot needs.
//!
//! A request runs the whole pipeline alone on its caller's
//! [`RequestContext`] — the reactor thread that read it, or an in-process
//! caller — so its answer never depends on what else was in flight. The
//! recommender is read through an [`IndexHandle`]: a cache hit reads its
//! generation without a lock, and a miss clones the published index under
//! the handle's mutex.
//!
//! The daily rollover ([`ServingCluster::reload_index`]) builds the
//! `VmisKnn` exactly once and publishes it atomically through the
//! [`IndexHandle`]. If the build or validation fails, nothing is published
//! and the old index keeps serving. While live ingest is enabled its
//! publisher is the index's one writer, and a rollover is refused
//! ([`RolloverError::IngestEnabled`]).

use std::fmt;
use std::mem::size_of;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use serenade_core::{Click, CoreError, ItemId, ItemScore, KernelWork, SessionIndex, VmisKnn};
use serenade_kvstore::TtlStore;
use serenade_telemetry::TraceSample;

use crate::cache::{CacheKey, PredictionCache, ViewKind};
use crate::context::{RequestContext, StageTimings};
use crate::engine::{kernel_config, EngineConfig, RecommendRequest, ServingVariant};
use crate::error::ServingError;
use crate::handle::IndexHandle;
use crate::ingest::{IngestConfig, IngestPipeline};
use crate::rules::BusinessRules;
use crate::stats::ServingStats;
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

/// A serving process's engine: its index handle, business rules, session
/// store, configuration, stats and prediction cache, plus its telemetry
/// hub and, once enabled, its ingest pipeline.
///
/// The daily rollover (Section 4.1) and live ingest build the new index
/// once and publish it atomically through the [`IndexHandle`], and
/// in-flight requests finish against the index they started with.
pub struct ServingCluster {
    index: Arc<IndexHandle<VmisKnn>>,
    rules: BusinessRules,
    /// Each session's last `vmis.max_session_len` clicks, under the TTL.
    /// Shared with the polled session gauges on the metric registry.
    sessions: Arc<TtlStore<u64, Vec<ItemId>>>,
    config: EngineConfig,
    stats: ServingStats,
    /// Generation-aware prediction cache for single-item-view requests;
    /// `None` when disabled. Entries depend only on the item, the view
    /// kind and the index generation — never on per-user state.
    cache: Option<Arc<PredictionCache>>,
    telemetry: Arc<ClusterTelemetry>,
    /// The streaming write path, set once by
    /// [`ServingCluster::enable_ingest`]; `None` for read-only clusters.
    ingest: OnceLock<Arc<IngestPipeline>>,
}

impl ServingCluster {
    /// Builds the process's engine over `index` (the recommender is built
    /// once, here) with a default [`TtlStore`]. `pods` must be 1: sessions
    /// are partitioned across nodes by the router tier, never inside a
    /// process.
    pub fn new(
        index: Arc<SessionIndex>,
        pods: usize,
        config: EngineConfig,
        rules: BusinessRules,
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
        // The published value uses the sync-facade Arc, which the loom
        // feature swaps for the model checker's.
        let vmis = crate::sync::Arc::new(VmisKnn::new(index, kernel_config(&config, &rules))?);
        Ok(Self::over_index(Arc::new(IndexHandle::new(vmis)), config, rules))
    }

    /// Builds the engine over an explicit index handle, with a session
    /// store of `config.store`, and registers its metrics.
    pub fn over_index(
        index: Arc<IndexHandle<VmisKnn>>,
        config: EngineConfig,
        rules: BusinessRules,
    ) -> Self {
        let sessions = Arc::new(TtlStore::new(config.store));
        let telemetry = Arc::new(ClusterTelemetry::new());
        let registry = telemetry.registry();
        telemetry.watch_index(&index);
        let cache = config.cache.enabled.then(|| {
            let cache = Arc::new(PredictionCache::with_registry(registry));
            let polled = Arc::clone(&cache);
            registry.polled_gauge(
                "serenade_cache_entries",
                "Live prediction-cache entries across all shards.",
                &[],
                move || polled.len() as u64,
            );
            cache
        });
        let stats = ServingStats::new(registry);
        let live = Arc::clone(&sessions);
        registry.polled_gauge(
            "serenade_live_sessions",
            "Live (non-expired) sessions stored on the node.",
            &[],
            move || live.live_entries() as u64,
        );
        let stored = Arc::clone(&sessions);
        registry.polled_gauge(
            "serenade_sessions_bytes",
            "Heap bytes of the session store: its tables and the windows they hold, expired \
             sessions not yet reclaimed included.",
            &[],
            move || {
                let window_bytes = |window: &Vec<ItemId>| window.capacity() * size_of::<ItemId>();
                stored.heap_bytes(window_bytes) as u64
            },
        );
        let expirations = Arc::clone(&sessions);
        registry.polled_counter(
            "serenade_session_expirations_total",
            "Sessions reclaimed lazily on access after their TTL elapsed.",
            &[],
            move || expirations.expiry_counts().0,
        );
        let evictions = Arc::clone(&sessions);
        registry.polled_counter(
            "serenade_session_evictions_total",
            "Sessions reclaimed by the eager TTL eviction sweep.",
            &[],
            move || evictions.expiry_counts().1,
        );
        Self { index, rules, sessions, config, stats, cache, telemetry, ingest: OnceLock::new() }
    }

    /// The index handle (shared with the publishing side).
    pub fn index_handle(&self) -> &Arc<IndexHandle<VmisKnn>> {
        &self.index
    }

    /// The cluster's observability hub (metric registry, trace ring,
    /// request-id source).
    pub fn telemetry(&self) -> &Arc<ClusterTelemetry> {
        &self.telemetry
    }

    /// Enables the streaming write path: seeds an incremental indexer with
    /// `seed` (the click log the serving index was built from) and starts
    /// the publisher thread that mini-publishes through the index handle.
    /// At most once per cluster, checked before any start-up work; from
    /// then on the publisher is the single index writer, and
    /// [`ServingCluster::reload_index`] refuses.
    pub fn enable_ingest(
        &self,
        config: IngestConfig,
        seed: &[Click],
    ) -> Result<Arc<IngestPipeline>, CoreError> {
        let already_enabled = || CoreError::InvalidConfig {
            parameter: "ingest",
            reason: String::from("ingest is already enabled on this cluster"),
        };
        if self.ingest.get().is_some() {
            return Err(already_enabled());
        }
        let pipeline = IngestPipeline::start(
            config,
            seed,
            Arc::clone(&self.index),
            kernel_config(&self.config, &self.rules),
            Arc::clone(&self.telemetry),
        )?;
        // Two racing first calls both pass the check above; one loses here.
        if self.ingest.set(Arc::clone(&pipeline)).is_err() {
            return Err(already_enabled());
        }
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
        let in_store = self.forget_session(session_id);
        Ok(in_index || in_store)
    }

    /// Handles one frontend request through the three-stage pipeline,
    /// reusing the caller's per-worker [`RequestContext`]. Per-stage
    /// timings are recorded into the stats and left on the context. A
    /// successful request is then offered to the slow-request trace ring
    /// (subject to its sampling knobs). The
    /// ingress request id is consumed either way, so a stale id never
    /// reaches the next request handled on this context.
    ///
    /// If the context carries a deadline budget (set at HTTP ingress) that
    /// has already expired when the session stage completes, the pipeline
    /// degrades instead of blowing the SLA: the prediction runs over the
    /// displayed item only (the depersonalised view, whose cost is bounded
    /// by a single-item query), the context is marked degraded, and the
    /// `serenade_deadline_degraded_total` counter is bumped. The response
    /// stays valid — degraded, never dropped.
    ///
    /// Errors are pipeline invariant violations; the HTTP layer maps them
    /// to a `500` response (and they bump the error counter here).
    pub fn handle_with(
        &self,
        req: RecommendRequest,
        ctx: &mut RequestContext,
    ) -> Result<Vec<ItemScore>, ServingError> {
        let started = Instant::now();
        let request_id = ctx.take_request_id();
        ctx.set_degraded(false);
        let session_len = self.session_stage(&req, ctx).inspect_err(|_| self.stats.record_error())?;
        let session_done = Instant::now();
        if ctx.deadline_expired_at(session_done) && ctx.view.len() > 1 {
            // Budget already spent: fall back to the cheapest valid view —
            // the displayed item alone, exactly the depersonalised shape.
            let last = ctx.view.len() - 1;
            ctx.view.drain(..last);
            ctx.set_degraded(true);
            self.stats.record_degraded();
        }

        // Prediction stage. A cacheable view probes the cache first; a hit
        // performs no kernel work at all — one shard-mutex probe, no index
        // load: the generation comparison alone proves the entry was
        // computed on the index of the generation this request observes
        // (see [`IndexHandle::load_with_generation`]).
        let probe = self.cache.as_ref().zip(self.cache_key(&req, ctx));
        let hit = probe
            .and_then(|(cache, key)| Some((cache, cache.lookup(key, self.index.generation())?)));
        let (mut recs, work, predict) = match hit {
            Some((cache, list)) => {
                // Policy mutates the response per request, so the shared
                // list is cloned out.
                let recs = list.as_ref().clone();
                let predict = session_done.elapsed();
                cache.record_hit_duration(predict);
                (recs, KernelWork::default(), predict)
            }
            None => {
                let (vmis, generation) = self.index.load_with_generation();
                let recs = vmis.recommend_with_scratch(&ctx.view, &mut ctx.scratch);
                let predict = session_done.elapsed();
                // A cacheable miss stores its list back under the
                // generation that scored it.
                if let Some((cache, key)) = probe {
                    cache.store_list(key, generation, recs.clone());
                }
                (recs, ctx.scratch.work(), predict)
            }
        };

        // Policy stage and the request's bookkeeping.
        self.rules.apply(&mut recs, req.filter_adult);
        recs.truncate(self.config.how_many);
        let timings = StageTimings {
            session: session_done - started,
            predict,
            policy: (session_done + predict).elapsed(),
        };
        ctx.set_timings(timings);
        self.stats.record(timings, !req.consent, recs.len());
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
            session_len: session_len as u64,
            // Degraded requests served the depersonalised fallback view,
            // so the trace marks them the same way.
            depersonalised: !req.consent || ctx.degraded(),
            postings_walked: work.postings_walked,
            candidates: work.candidates,
        });
        Ok(recs)
    }

    /// Session stage: update the evolving session (or drop it, for
    /// no-consent requests) and write the configured view into `ctx`.
    /// Returns the stored session length, at most `vmis.max_session_len`
    /// (1 for a depersonalised request, which predicts from the displayed
    /// item alone).
    fn session_stage(
        &self,
        req: &RecommendRequest,
        ctx: &mut RequestContext,
    ) -> Result<usize, ServingError> {
        let view = &mut ctx.view;
        view.clear();
        if !req.consent {
            // Depersonalised: predict from the displayed item only, and drop
            // any previously stored state for this session.
            self.sessions.remove(&req.session_id);
            view.push(req.item);
            return Ok(1);
        }
        let window = self.config.vmis.max_session_len;
        let variant = self.config.variant;
        let item = req.item;
        self.sessions.update_or_insert(req.session_id, Vec::new, |items| {
            items.push(item);
            keep_last(items, window);
            match variant {
                ServingVariant::Hist(n) => {
                    view.extend_from_slice(&items[items.len().saturating_sub(n)..]);
                }
                // `items` is never empty here (we just pushed), so an
                // empty tail is an invariant violation, not a panic.
                ServingVariant::Recent => match items.last() {
                    Some(last) => view.push(*last),
                    None => {
                        return Err(ServingError::Internal(
                            "session empty after update in Recent variant",
                        ))
                    }
                },
                ServingVariant::Full => view.extend_from_slice(items),
            }
            Ok(items.len())
        })
    }

    /// Cache key for this request, or `None` when its view is not cacheable.
    /// Only views consisting of exactly the displayed item qualify: the
    /// depersonalised shape (no consent, or the deadline-degraded fallback)
    /// and the consented `Recent` variant, whose view is the most recent
    /// item by definition. Everything else depends on per-user session
    /// state and must run the kernel.
    fn cache_key(&self, req: &RecommendRequest, ctx: &RequestContext) -> Option<CacheKey> {
        if ctx.view.len() != 1 || ctx.view[0] != req.item {
            return None;
        }
        let view = if !req.consent || ctx.degraded() {
            ViewKind::Depersonalised
        } else if self.config.variant == ServingVariant::Recent {
            ViewKind::Recent
        } else {
            return None;
        };
        Some(CacheKey { item: req.item, view })
    }

    /// Number of clicks currently stored for a session.
    pub fn stored_session_len(&self, session_id: u64) -> usize {
        self.sessions.with_value(&session_id, Vec::len).unwrap_or(0)
    }

    /// Snapshots up to `cap` live sessions for ownership handoff — see
    /// [`TtlStore::export_live`]. The exporting node keeps serving; the
    /// handoff coordinator imports the snapshot into the new owners and
    /// then calls [`ServingCluster::forget_session`] here.
    pub fn export_sessions(&self, cap: usize) -> Vec<(u64, Vec<ItemId>)> {
        self.sessions.export_live(cap)
    }

    /// Installs a handed-off session. Imported history is *prepended* to
    /// whatever this node already holds for the id: during the handoff gap
    /// the new owner may have served the session fresh, and those clicks
    /// are newer than the snapshot, so they stay at the tail. The merge is
    /// trimmed to the stored window as on the request path. Returns the
    /// stored session length after the merge.
    pub fn import_session(&self, session_id: u64, mut items: Vec<ItemId>) -> usize {
        let window = self.config.vmis.max_session_len;
        self.sessions.update_or_insert(session_id, Vec::new, |existing| {
            if !existing.is_empty() {
                items.extend_from_slice(existing);
            }
            std::mem::swap(existing, &mut items);
            keep_last(existing, window);
            existing.len()
        })
    }

    /// Erases a session's evolving state from the store — live or expired —
    /// returning whether anything was dropped. The unlearning hook:
    /// [`ServingCluster::delete_session`] calls this so a session deleted
    /// from the click log also stops influencing its own future requests
    /// (and its clicks stop occupying the TTL store).
    pub fn forget_session(&self, session_id: u64) -> bool {
        self.sessions.forget(&session_id)
    }

    /// Live sessions in the session store.
    pub fn live_sessions(&self) -> usize {
        self.sessions.live_entries()
    }

    /// Runs the TTL sweep (the paper's 30-minute-inactivity cleanup);
    /// returns how many sessions it evicted.
    pub fn evict_expired_sessions(&self) -> usize {
        self.sessions.evict_expired()
    }

    /// The daily rollover (Figure 1's "index replication" arrow): builds
    /// the recommender from `index` exactly once and publishes it
    /// atomically. In-flight requests finish on the version they loaded,
    /// and session state survives. On error, the old index keeps serving.
    /// A cluster with live ingest refuses: its publisher is the one index
    /// writer.
    pub fn reload_index(&self, index: Arc<SessionIndex>) -> Result<(), RolloverError> {
        if self.ingest().is_some() {
            return Err(RolloverError::IngestEnabled);
        }
        let started = Instant::now();
        let fresh = VmisKnn::new(index, kernel_config(&self.config, &self.rules))
            .map_err(RolloverError::Invalid)?;
        self.index.store(crate::sync::Arc::new(fresh));
        self.telemetry.record_rollover(started.elapsed());
        Ok(())
    }
}

/// Trims a stored session to its last `window` clicks: the most that any
/// view, the deadline fallback or the kernel (`VmisKnn`'s window cap)
/// reads, so every answer is the one the untrimmed session would get.
fn keep_last(items: &mut Vec<ItemId>, window: usize) {
    let excess = items.len().saturating_sub(window);
    items.drain(..excess);
}

#[cfg(all(test, not(feature = "loom")))]
impl ServingCluster {
    /// The series `name{labels}` as `GET /metrics` renders it now.
    pub(crate) fn scraped(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let exposition = crate::telemetry::scrape(self.telemetry.registry());
        exposition.value(name, labels).unwrap_or_else(|| panic!("no series {name}")) as u64
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;
    use crate::engine::tests::{handle, index};
    use serenade_core::VmisConfig;
    use std::time::Duration;

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
        assert_eq!(node.cluster().stored_session_len(5), 1);
        node.shutdown();
    }

    /// 300 sessions of three to five clicks over 90 items: lists long enough
    /// that a kernel's 42 candidates and the 21 items served differ.
    fn wide_log() -> Vec<Click> {
        let mut state = 11u64;
        let mut clicks = Vec::new();
        for s in 0..300u64 {
            for step in 0..3 + s % 3 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                clicks.push(Click::new(s, (state >> 33) % 90, 1_000 + s * 10 + step));
            }
        }
        clicks
    }

    /// Each answer's items and score bits.
    fn bits(recs: &[ItemScore]) -> Vec<(ItemId, u32)> {
        recs.iter().map(|r| (r.item, r.score.to_bits())).collect()
    }

    #[test]
    fn without_rules_the_kernel_is_asked_for_the_served_list_and_answers_as_before() {
        let index = Arc::new(SessionIndex::build(&wide_log(), 500).unwrap());
        let config = EngineConfig::default();
        let rules = BusinessRules::none;
        let served = ServingCluster::new(Arc::clone(&index), 1, config.clone(), rules()).unwrap();
        assert_eq!(served.index_handle().load().config().how_many, config.how_many);
        // What a cluster without rules served before: twice the candidates,
        // cut to the served list by the policy stage.
        let twice = VmisConfig { how_many: 2 * config.how_many, ..config.vmis.clone() };
        let published = IndexHandle::new(crate::sync::Arc::new(VmisKnn::new(index, twice).unwrap()));
        let reference = ServingCluster::over_index(Arc::new(published), config.clone(), rules());
        // A replayed stream: 40 sessions growing one click at a time, one
        // request in five without consent, which the prediction cache serves.
        let (mut state, mut full) = (5u64, 0);
        for n in 0..600u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let (session_id, item) = (n % 40, (state >> 33) % 90);
            let req = RecommendRequest { session_id, item, consent: n % 5 != 0, filter_adult: false };
            let (answer, before) = (handle(&served, req).unwrap(), handle(&reference, req).unwrap());
            assert_eq!(bits(&answer), bits(&before), "request {n}: {req:?}");
            full += usize::from(answer.len() == config.how_many);
        }
        assert!(full > 300, "{full} of 600 answers fill the list");
    }

    #[test]
    fn a_node_stores_the_window_the_kernel_reads_and_answers_as_the_kernel_over_it() {
        let index = Arc::new(SessionIndex::build(&wide_log(), 500).unwrap());
        let window = VmisConfig::default().max_session_len;
        for variant in [ServingVariant::Full, ServingVariant::Hist(20)] {
            let config = EngineConfig { variant, ..EngineConfig::default() };
            let build = || {
                ServingCluster::new(Arc::clone(&index), 1, config.clone(), BusinessRules::none())
                    .unwrap()
            };
            let (a, b) = (build(), build());
            // Without rules the kernel is asked for the served list, so a
            // served answer is the kernel's answer over the last clicks.
            let kernel = a.index_handle().load();
            let mut scratch = serenade_core::Scratch::new();
            let mut expect = |clicks: &[ItemId]| {
                let last = &clicks[clicks.len().saturating_sub(window)..];
                bits(&kernel.recommend_with_scratch(last, &mut scratch))
            };
            let (mut state, mut clicks) = (17u64, Vec::new());
            let mut click = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) % 90
            };
            for n in 0..30 {
                clicks.push(click());
                let answer = bits(&handle(&a, req(7, clicks[n])).unwrap());
                assert_eq!(answer, expect(&clicks), "{variant:?}, click {n}");
            }
            assert_eq!(a.stored_session_len(7), window, "{variant:?}");

            // Handed off, the session keeps its answer on its next click.
            for (sid, items) in a.export_sessions(usize::MAX) {
                assert_eq!(b.import_session(sid, items), window);
            }
            clicks.push(click());
            let next = req(7, clicks[30]);
            let (moved, stayed) = (bits(&handle(&b, next).unwrap()), bits(&handle(&a, next).unwrap()));
            assert_eq!(moved, stayed, "{variant:?}");
            assert_eq!(moved, expect(&clicks), "{variant:?}");
            assert_eq!(b.stored_session_len(7), window, "{variant:?}");
        }
    }

    #[test]
    fn sticky_sessions_accumulate_in_one_store() {
        let c = cluster();
        for i in 0..5 {
            handle(&c, req(42, i % 5)).unwrap();
        }
        // The node's store holds session 42, with all 5 clicks.
        assert_eq!(c.stored_session_len(42), 5);
        assert_eq!(c.live_sessions(), 1);
    }

    #[test]
    fn the_sessions_gauge_weighs_the_stores_tables_and_windows() {
        let c = cluster();
        let bytes = || c.scraped("serenade_sessions_bytes", &[]);
        assert_eq!(bytes(), 0, "no shard has a table yet");
        // Twelve clicks: the window keeps the last 9 in a `Vec` grown to 16
        // items of 8 bytes. The session's shard has a table of 4 buckets of
        // 40 bytes (the id, the window and its deadline), a control byte a
        // bucket and a group of 16.
        for i in 0..12 {
            handle(&c, req(42, i % 5)).unwrap();
        }
        let table = 4 * 40 + 4 + 16;
        assert_eq!(bytes(), table + 16 * 8);
        // A depersonalised request stores nothing; unlearning frees the
        // window, and the table stays.
        handle(&c, RecommendRequest { consent: false, ..req(43, 1) }).unwrap();
        assert_eq!(bytes(), table + 16 * 8);
        assert!(c.forget_session(42));
        assert_eq!(bytes(), table);
    }

    #[test]
    fn eviction_sweep_keeps_unexpired_sessions() {
        let c = cluster();
        for sid in 0..10u64 {
            handle(&c, req(sid, 0)).unwrap();
        }
        // Nothing has expired (default 30-minute TTL).
        assert_eq!(c.evict_expired_sessions(), 0);
        assert_eq!(c.live_sessions(), 10);
    }

    #[test]
    fn depersonalised_requests_share_one_prediction_cache() {
        let c = cluster();
        // Depersonalised requests from different sessions all hit the one
        // cache after the first computation.
        let dep = |sid| RecommendRequest {
            session_id: sid,
            item: 1,
            consent: false,
            filter_adult: false,
        };
        let first = handle(&c, dep(0)).unwrap();
        for sid in 1..8u64 {
            assert_eq!(handle(&c, dep(sid)).unwrap(), first);
        }
        let hits = c.scraped("serenade_cache_hits_total", &[]);
        assert_eq!((hits, c.scraped("serenade_cache_misses_total", &[])), (7, 1));
    }

    #[test]
    fn trace_records_describe_the_request_that_wrote_them() {
        let c = ServingCluster::new(index(), 1, EngineConfig::default(), BusinessRules::none())
            .unwrap();
        let mut ctx = RequestContext::new();
        let mut traced = |id: u64, req: RecommendRequest, deadline: Option<Instant>| {
            ctx.set_deadline(deadline);
            ctx.set_request_id(id);
            c.handle_with(req, &mut ctx).unwrap();
            let traces = c.telemetry().traces().snapshot();
            *traces.iter().find(|t| t.request_id == id).expect("every request is traced")
        };
        let dep = |session_id, item| RecommendRequest {
            session_id,
            item,
            consent: false,
            filter_adult: false,
        };

        // Consented clicks on one session run the kernel over its history.
        for (id, item) in [(1, 0), (2, 1), (3, 2)] {
            let t = traced(id, req(7, item), None);
            assert_eq!(t.session_len, id, "the stored length after this click");
            assert!(!t.depersonalised);
            assert!(t.postings_walked > 0, "request {id} ran the kernel");
        }
        // A depersonalised miss runs the kernel on the displayed item.
        let miss = traced(4, dep(8, 3), None);
        assert!(miss.depersonalised);
        assert_eq!(miss.session_len, 1);
        assert!(miss.postings_walked > 0 && miss.candidates > 0, "{miss:?}");
        // The same item again is a cache hit: no kernel work at all.
        let hit = traced(5, dep(9, 3), None);
        assert!(hit.depersonalised);
        assert_eq!((hit.postings_walked, hit.candidates), (0, 0));
        // A consented request past its deadline serves the depersonalised
        // fallback view, and its trace says so.
        let late = traced(6, req(7, 4), Some(Instant::now() - Duration::from_millis(1)));
        assert!(late.depersonalised, "a degraded request is traced as depersonalised");
        assert_eq!(late.session_len, 4, "the session stage still ran");
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod ingest_tests {
    use super::*;
    use crate::engine::tests::handle;
    use crate::ingest::{IngestConfig, MAX_PENDING_APPENDS};
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

    /// Ingest publishing at most every `ms` milliseconds.
    fn every(ms: u64) -> IngestConfig {
        IngestConfig { publish_interval: Duration::from_millis(ms) }
    }

    fn cluster_with_ingest(config: IngestConfig) -> (ServingCluster, Arc<IngestPipeline>) {
        cluster_with_engine_and_ingest(EngineConfig::default(), config)
    }

    fn cluster_with_engine_and_ingest(
        engine: EngineConfig,
        config: IngestConfig,
    ) -> (ServingCluster, Arc<IngestPipeline>) {
        let clicks = seed_clicks();
        let index = Arc::new(SessionIndex::build(&clicks, 500).unwrap());
        let cluster = ServingCluster::new(index, 1, engine, BusinessRules::none()).unwrap();
        let pipeline = cluster.enable_ingest(config, &clicks).unwrap();
        (cluster, pipeline)
    }

    fn dep(session_id: u64, item: u64) -> RecommendRequest {
        RecommendRequest { session_id, item, consent: false, filter_adult: false }
    }

    #[test]
    fn rules_that_can_filter_get_twice_the_candidates_at_every_build() {
        let clicks = seed_clicks();
        let index = || Arc::new(SessionIndex::build(&clicks, 500).unwrap());
        let engine = EngineConfig::default;
        let plain = ServingCluster::new(index(), 1, engine(), BusinessRules::none()).unwrap();
        let adult = BusinessRules::new([], [3]);
        let filtered = ServingCluster::new(index(), 1, engine(), adult).unwrap();
        let candidates = || {
            let of = |c: &ServingCluster| c.index_handle().load().config().how_many;
            (of(&plain), of(&filtered))
        };
        assert_eq!(candidates(), (21, 42), "at start");
        plain.reload_index(index()).unwrap();
        filtered.reload_index(index()).unwrap();
        assert_eq!(candidates(), (21, 42), "after a rollover");
        for cluster in [&plain, &filtered] {
            let generation = cluster.index_handle().generation();
            let pipeline = cluster.enable_ingest(IngestConfig::default(), &clicks).unwrap();
            assert!(pipeline.submit(&[Click::new(1_000, 0, 10_000), Click::new(1_000, 1, 10_001)]));
            pipeline.flush().unwrap();
            assert_eq!(cluster.index_handle().generation(), generation + 1);
        }
        assert_eq!(candidates(), (21, 42), "after a mini-publish");
    }

    #[test]
    fn ingested_clicks_become_visible_after_a_publish() {
        let (c, p) = cluster_with_ingest(every(5));
        let generation_before = c.index_handle().generation();
        // Item 42 does not exist in the seed log: nothing to recommend.
        assert!(handle(&c, dep(900, 42)).unwrap().is_empty());

        assert!(p.submit(&[Click::new(1_000, 0, 10_000), Click::new(1_000, 42, 10_001)]));
        let generation_after = p.flush().unwrap();
        assert!(generation_after > generation_before, "publish must bump the generation");
        assert_eq!(c.scraped("serenade_ingest_publishes_total", &[]), 1);

        // The live co-occurrence (0, 42) is now served.
        let recs = handle(&c, dep(901, 42)).unwrap();
        assert!(recs.iter().any(|r| r.item == 0), "fresh neighbourhood must serve: {recs:?}");
    }

    #[test]
    fn cluster_delete_purges_log_and_session_state() {
        let (c, _p) = cluster_with_ingest(every(5));
        // A consented request leaves evolving state in the session store.
        handle(&c, RecommendRequest { session_id: 77, item: 3, consent: true, filter_adult: false })
            .unwrap();
        assert_eq!(c.stored_session_len(77), 1);

        // Unlearning erases both the state and (here, absent) log entry.
        assert!(c.delete_session(77).unwrap(), "session state existed in the store");
        assert_eq!(c.stored_session_len(77), 0);

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
    fn deleted_session_stops_influencing_recommendations() {
        let (c, p) = cluster_with_ingest(every(5));
        assert!(p.submit(&[Click::new(2_000, 5, 10_000), Click::new(2_000, 77, 10_001)]));
        p.flush().unwrap();
        assert!(handle(&c, dep(903, 77)).unwrap().iter().any(|r| r.item == 5));

        assert!(p.delete_session(2_000).unwrap(), "the session existed");
        assert!(
            handle(&c, dep(904, 77)).unwrap().is_empty(),
            "the unlearned session must stop influencing predictions"
        );
        assert_eq!(c.scraped("serenade_ingest_deletions_total", &[]), 1);
        // Unknown sessions report false but still tombstone.
        assert!(!p.delete_session(999_999).unwrap());
    }

    #[test]
    fn a_publisher_that_panics_fails_its_waiters_at_once_and_takes_no_more_work() {
        let (c, p) = cluster_with_ingest(every(5));
        assert_eq!(c.scraped("serenade_ingest_publisher_up", &[]), 1);
        let panic_session = crate::ingest::pipeline::PANIC_SESSION;
        assert!(p.submit(&[Click::new(panic_session, 0, 10_000)]));
        // The flush waits on the cycle that panics, or finds the publisher
        // already gone: either way it fails now, not after `SYNC_WAIT`.
        let started = std::time::Instant::now();
        assert!(p.flush().is_err(), "nothing was published");
        assert!(started.elapsed() < Duration::from_secs(5), "{:?}", started.elapsed());
        assert_eq!(c.scraped("serenade_ingest_publisher_up", &[]), 0);
        // Nothing will publish from here on, so nothing is accepted, and
        // the endpoint says why: retrying will not help.
        assert!(!p.submit(&[Click::new(1_001, 0, 10_001)]), "a dead publisher takes clicks");
        assert!(p.is_stopped());
        let ingest = crate::server::parser::ParsedRequest {
            method: String::from("POST"),
            path: String::from("/ingest"),
            body: br#"{"clicks":[{"session_id":1001,"item_id":0,"timestamp":10001}]}"#.to_vec(),
            close: false,
        };
        let (status, body, _) = crate::server::conn::respond(&ingest, &c);
        assert_eq!((status, body), (503, br#"{"error":"ingest publisher is stopped"}"#.to_vec()));
        assert_eq!(p.pending_clicks(), 0);
        let started = std::time::Instant::now();
        assert!(c.delete_session(1).is_err());
        assert!(p.flush().is_err());
        assert!(started.elapsed() < Duration::from_secs(1), "{:?}", started.elapsed());
        assert_eq!(c.scraped("serenade_ingest_publishes_total", &[]), 0);
    }

    #[test]
    fn flush_with_nothing_pending_is_a_cheap_sync_point() {
        let (c, p) = cluster_with_ingest(IngestConfig::default());
        let generation = c.index_handle().generation();
        assert_eq!(p.flush().unwrap(), generation, "no publish without work");
        assert_eq!(c.scraped("serenade_ingest_publishes_total", &[]), 0);
    }

    #[test]
    fn full_queue_rejects_the_whole_batch() {
        // A long interval keeps the publisher from draining mid-test.
        let (c, p) = cluster_with_ingest(every(30_000));
        let click = |s| Click::new(s, 1, 10_000);
        let almost_full: Vec<Click> = (0..MAX_PENDING_APPENDS as u64 - 1).map(click).collect();
        assert!(p.submit(&almost_full));
        assert!(!p.submit(&[click(4), click(5)]), "two more exceed the bound");
        assert!(!p.is_stopped(), "a full queue is not a stopped publisher");
        assert_eq!(p.pending_clicks(), MAX_PENDING_APPENDS - 1, "rejected batches admit nothing");
        assert_eq!(c.scraped("serenade_ingest_rejected_clicks_total", &[]), 2);
        assert!(p.submit(&[click(6)]), "room for one more");
    }

    #[test]
    fn a_cached_answer_after_a_mini_publish_is_the_kernels_answer() {
        // Two clusters from one seed, fed the same publishes; only one
        // caches. A long interval leaves every publish to the flushes.
        let ingest = every(30_000);
        let (cached, cached_pipeline) = cluster_with_ingest(ingest);
        let mut uncached_engine = EngineConfig::default();
        uncached_engine.cache.enabled = false;
        let (kernel, kernel_pipeline) = cluster_with_engine_and_ingest(uncached_engine, ingest);
        let seed_items: Vec<u64> = (0..6).collect();
        let bits = |recs: Vec<ItemScore>| -> Vec<(u64, u32)> {
            recs.into_iter().map(|r| (r.item, r.score.to_bits())).collect()
        };
        let mut request = 10_000;
        let mut ask = |c: &ServingCluster, item: u64| {
            request += 1;
            bits(handle(c, dep(request, item)).unwrap())
        };
        // Warm the cache on the seed generation.
        for &item in &seed_items {
            ask(&cached, item);
        }

        // Batches that touch only brand-new items (a changed session count
        // still moves every idf) alternate with batches that touch seed
        // items.
        let batches: [&[u64]; 5] = [&[40, 41], &[1, 55], &[42, 43], &[2, 3, 4], &[44, 45]];
        for (n, items) in (0u64..).zip(batches) {
            let clicks: Vec<Click> = (0u64..)
                .zip(items)
                .map(|(i, &item)| Click::new(3_000 + n, item, 20_000 + 10 * n + i))
                .collect();
            assert!(cached_pipeline.submit(&clicks) && kernel_pipeline.submit(&clicks));
            let generation = cached_pipeline.flush().unwrap();
            assert_eq!(kernel_pipeline.flush().unwrap(), generation);
            for &item in &seed_items {
                let answer = ask(&kernel, item);
                // The first probe after the publish and a plain hit after it.
                assert_eq!(ask(&cached, item), answer, "item {item} after batch {n}");
                assert_eq!(ask(&cached, item), answer, "item {item} after batch {n}, cache hit");
            }
        }
        assert!(cached.scraped("serenade_cache_hits_total", &[]) >= 30, "the cache served");
    }

    #[test]
    fn mini_publish_invalidates_touched_cache_entries() {
        let (c, p) = cluster_with_ingest(every(5));
        let before = handle(&c, dep(908, 1)).unwrap();
        assert_eq!(handle(&c, dep(909, 1)).unwrap(), before, "warm: second request hits");

        // A session containing item 1 changes item 1's neighbourhood.
        assert!(p.submit(&[Click::new(3_100, 1, 10_000), Click::new(3_100, 55, 10_001)]));
        p.flush().unwrap();

        let after = handle(&c, dep(910, 1)).unwrap();
        assert_ne!(after, before, "the touched item's answer must be recomputed");
        assert!(after.iter().any(|r| r.item == 55), "and reflect the live click: {after:?}");
        let stale = c.scraped("serenade_cache_stale_total", &[]);
        assert_eq!(stale, 1, "the touched entry was invalidated");
    }

    #[test]
    fn enable_ingest_is_at_most_once() {
        let (c, _p) = cluster_with_ingest(IngestConfig::default());
        assert!(c.ingest().is_some());
        match c.enable_ingest(IngestConfig::default(), &seed_clicks()) {
            Err(CoreError::InvalidConfig { parameter, .. }) => assert_eq!(parameter, "ingest"),
            other => panic!("a second enable must answer \"ingest\", got {:?}", other.err()),
        }
    }

    #[test]
    fn ingest_keeps_the_m_max_of_the_index_it_adopts() {
        // Served at `m_max` 50, not the 500 a default build uses: the
        // indexer adopts the served index as it is, so nothing is published
        // at start-up, and a live publish keeps the cap.
        let seed = seed_clicks();
        let index = Arc::new(SessionIndex::build(&seed, 50).unwrap());
        let vmis = serenade_core::VmisConfig { m: 50, ..EngineConfig::default().vmis };
        let engine = EngineConfig { vmis, ..EngineConfig::default() };
        let c = ServingCluster::new(index, 1, engine, BusinessRules::none()).unwrap();
        let generation = c.index_handle().generation();
        let p = c.enable_ingest(every(30_000), &seed).unwrap();
        assert_eq!(c.index_handle().generation(), generation, "no start-up publish");
        assert!(p.submit(&[Click::new(3_100, 1, 10_000), Click::new(3_100, 2, 10_001)]));
        assert!(p.flush().unwrap() > generation, "the live click is published");
        assert_eq!(c.scraped("serenade_ingest_publishes_total", &[]), 1);
        assert_eq!(c.index_handle().load().index().m_max(), 50);
    }

    #[test]
    fn a_rollover_on_an_ingest_cluster_is_refused_and_ingest_keeps_the_index() {
        let (c, p) = cluster_with_ingest(every(5));
        let sessions = || c.index_handle().load().index().num_sessions();
        assert_eq!(sessions(), 40);
        let generation = c.index_handle().generation();

        // A different index: had it been published, the next mini-publish
        // would have stored the click merged into the seed over it.
        let mut clicks = seed_clicks();
        for s in 0..20u64 {
            clicks.push(Click::new(500 + s, (s + 3) % 6, 5_000 + s));
            clicks.push(Click::new(500 + s, (s + 4) % 6, 5_001 + s));
        }
        let rollover = c.reload_index(Arc::new(SessionIndex::build(&clicks, 500).unwrap()));
        assert_eq!(rollover, Err(RolloverError::IngestEnabled));
        assert_eq!(c.index_handle().generation(), generation, "nothing was published");

        assert!(p.submit(&[Click::new(1_000, 0, 10_000), Click::new(1_000, 1, 10_001)]));
        p.flush().unwrap();
        assert_eq!(sessions(), 41, "the seed plus the click");
        assert_eq!(c.index_handle().generation(), generation + 1);
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod rollover_tests {
    use super::*;
    use crate::engine::tests::handle;
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
        let before = handle(&c, req(7, 1)).unwrap();
        assert_eq!(c.stored_session_len(7), 1);

        // Overnight: a new index arrives and is published.
        c.reload_index(make_index(3)).unwrap();

        // Session state survived the rollover...
        assert_eq!(c.stored_session_len(7), 1);
        // ...and predictions now come from the new index.
        let after = handle(&c, req(8, 1)).unwrap();
        assert_ne!(before, after, "rollover must change the model");
        assert_eq!(c.stored_session_len(7), 1);
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
        let before = handle(&c, dep(1)).unwrap();
        assert_eq!(handle(&c, dep(2)).unwrap(), before, "warm: second request hits");

        c.reload_index(make_index(3)).unwrap();

        // The cached entry carries the old generation stamp: the next probe
        // rejects it and recomputes on the new index.
        let after = handle(&c, dep(3)).unwrap();
        assert_ne!(after, before, "rollover must change the depersonalised answer");
        assert_eq!(c.scraped("serenade_cache_stale_total", &[]), 1);
        assert_eq!(handle(&c, dep(4)).unwrap(), after, "fresh entry serves hits again");
    }

    #[test]
    fn failed_rollover_keeps_serving_the_old_index() {
        let c = ServingCluster::new(
            make_index(0),
            1,
            EngineConfig::default(),
            BusinessRules::none(),
        )
        .unwrap();
        let before: Vec<_> = (0..6u64).map(|i| handle(&c, req(100 + i, i % 6)).unwrap()).collect();
        let old = Arc::as_ptr(&c.index_handle().load());

        // A broken artefact: posting capacity m_max = 2 cannot satisfy the
        // configured sample size m = 500, so validation rejects it.
        let clicks =
            vec![Click::new(1, 0, 10), Click::new(1, 1, 11), Click::new(2, 0, 20)];
        let broken = Arc::new(SessionIndex::build(&clicks, 2).unwrap());
        c.reload_index(broken).expect_err("validation must reject the artefact");

        // Atomic from the caller's view: the published index did not move.
        assert_eq!(Arc::as_ptr(&c.index_handle().load()), old);
        let after: Vec<_> = (0..6u64).map(|i| handle(&c, req(200 + i, i % 6)).unwrap()).collect();
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
                (0..6u64).map(|item| handle(&probe, req(item + 1, item)).unwrap()).collect()
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
