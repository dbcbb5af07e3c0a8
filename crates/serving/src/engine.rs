//! The recommendation engine: a serving node's request pipeline.
//!
//! Handles one shop-frontend request end to end (Section 4.2) as a
//! three-stage pipeline — see [`Engine::handle_with`]:
//!
//! 1. **Session stage** — update the evolving session in the node's
//!    [`SessionStore`] and extract the configured view of it.
//! 2. **Prediction stage** — run VMIS-kNN over the view, against the
//!    currently published index.
//! 3. **Policy stage** — apply business rules and truncate to the 21 items
//!    the product-detail-page slot needs.
//!
//! A request runs the whole pipeline alone on its caller's
//! [`RequestContext`] — the reactor thread, a worker, or an in-process
//! caller — so its answer never depends on what else was in flight.
//!
//! The two session views of the A/B test are first-class: `serenade-hist`
//! predicts from the last *two* items of the evolving session and
//! `serenade-recent` from the most recent item only (Section 5.2.3). Users
//! without personalisation consent get the depersonalised variant, which
//! uses only the currently displayed item and stores nothing.
//!
//! The engine is generic over its session store (defaulting to the sharded
//! [`TtlStore`]) and reads the recommender through a lock-free
//! [`IndexHandle`], which the daily rollover publishes to — the request
//! path takes no lock besides the store's per-shard mutex.

use serenade_core::{
    CoreError, ItemId, ItemScore, KernelWork, SessionIndex, VmisConfig, VmisKnn,
};
use serenade_kvstore::{SessionStore, StoreConfig, TtlStore};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use crate::cache::{CacheConfig, CacheKey, PredictionCache, ViewKind};
use crate::context::{RequestContext, StageTimings};
use crate::error::ServingError;
use crate::handle::IndexHandle;
use crate::rules::BusinessRules;
use crate::stats::ServingStats;

/// Which view of the evolving session feeds the prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingVariant {
    /// `serenade-hist`: the last `n` items (the A/B test used `n = 2`).
    Hist(usize),
    /// `serenade-recent`: only the most recent item.
    Recent,
    /// The full stored session window (bounded by `max_stored_session_len`).
    Full,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// VMIS-kNN hyperparameters.
    pub vmis: VmisConfig,
    /// Session view variant.
    pub variant: ServingVariant,
    /// Items per response (the shop frontend renders 21).
    pub how_many: usize,
    /// Cap on the stored session length.
    pub max_stored_session_len: usize,
    /// Session-store configuration (TTL, shards).
    pub store: StoreConfig,
    /// Prediction-cache configuration (see [`crate::cache`]).
    pub cache: CacheConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            vmis: VmisConfig::default(),
            variant: ServingVariant::Hist(2),
            how_many: 21,
            max_stored_session_len: 50,
            store: StoreConfig::default(),
            cache: CacheConfig::default(),
        }
    }
}

/// One frontend request: the user opened the product page of `item`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecommendRequest {
    /// Sticky session identifier.
    pub session_id: u64,
    /// The item whose product page triggered the request.
    pub item: ItemId,
    /// Personalisation consent flag (Section 4.2, depersonalisation).
    pub consent: bool,
    /// Whether adult products must be filtered for this shopper.
    pub filter_adult: bool,
}

/// Builds the serving recommender for `config` over a session index. The
/// engine owns the final list length; the algorithm is asked for a few
/// extra items so business-rule filtering does not starve slots.
pub(crate) fn build_recommender(
    index: Arc<SessionIndex>,
    config: &EngineConfig,
) -> Result<VmisKnn, CoreError> {
    let mut vmis_cfg = config.vmis.clone();
    vmis_cfg.how_many = config.how_many * 2;
    VmisKnn::new(index, vmis_cfg)
}

/// A stateful recommendation engine — one per serving node.
///
/// Generic over the session store `S` so the request path is written purely
/// against the [`SessionStore`] contract; the default is the sharded
/// in-memory [`TtlStore`]. The recommender is read through an
/// [`IndexHandle`]: the daily rollover (Section 4.1) and live ingest build
/// the new index once and publish it atomically through the handle, and
/// readers never block — in-flight requests finish against the index they
/// started with.
pub struct Engine<S: SessionStore<u64, Vec<ItemId>> = TtlStore<u64, Vec<ItemId>>> {
    index: Arc<IndexHandle<VmisKnn>>,
    rules: BusinessRules,
    sessions: S,
    config: EngineConfig,
    stats: ServingStats,
    /// Generation-aware prediction cache for single-item-view requests;
    /// `None` when disabled. Entries depend only on the item, the view
    /// kind and the index generation — never on per-user state.
    cache: Option<Arc<PredictionCache>>,
}

impl Engine {
    /// Creates an engine over a session index, with a default [`TtlStore`]
    /// and its own index handle.
    pub fn new(
        index: Arc<SessionIndex>,
        config: EngineConfig,
        rules: BusinessRules,
    ) -> Result<Self, CoreError> {
        // The published value uses the sync-facade Arc: under the loom
        // feature the handle's reclamation protocol is model-checked.
        let vmis = crate::sync::Arc::new(build_recommender(index, &config)?);
        let sessions = TtlStore::new(config.store);
        Ok(Engine::with_store(Arc::new(IndexHandle::new(vmis)), sessions, config, rules))
    }
}

impl<S: SessionStore<u64, Vec<ItemId>>> Engine<S> {
    /// Creates an engine over an explicit session store implementation.
    pub fn with_store(
        index: Arc<IndexHandle<VmisKnn>>,
        sessions: S,
        config: EngineConfig,
        rules: BusinessRules,
    ) -> Self {
        let cache =
            config.cache.enabled.then(|| Arc::new(PredictionCache::new(config.cache)));
        Self { index, rules, sessions, config, stats: ServingStats::new(), cache }
    }

    /// The engine's prediction cache, if enabled.
    pub fn prediction_cache(&self) -> Option<&Arc<PredictionCache>> {
        self.cache.as_ref()
    }

    /// The engine's index handle (shared with the publishing side).
    pub fn index_handle(&self) -> &Arc<IndexHandle<VmisKnn>> {
        &self.index
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Handles one frontend request through the three-stage pipeline,
    /// reusing the caller's per-worker [`RequestContext`]. Per-stage
    /// timings are recorded into the engine's stats and left on the context.
    ///
    /// If the context carries a deadline budget (set at HTTP ingress) that
    /// has already expired when the session stage completes, the pipeline
    /// degrades instead of blowing the SLA: the prediction runs over the
    /// displayed item only (the depersonalised view, whose cost is bounded
    /// by a single-item query), the context is marked degraded, and the
    /// engine's `serenade_deadline_degraded_total` counter is bumped. The
    /// response stays valid — degraded, never dropped.
    ///
    /// Errors are pipeline invariant violations; the HTTP layer maps them
    /// to a `500` response (and they bump the engine's error counter here).
    pub fn handle_with(
        &self,
        req: RecommendRequest,
        ctx: &mut RequestContext,
    ) -> Result<Vec<ItemScore>, ServingError> {
        let started = Instant::now();
        ctx.set_degraded(false);
        self.session_stage(&req, ctx).map_err(|e| self.failed(e))?;
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
        // computed on an index at least as new as the generation this
        // request observes (see the invariant on
        // [`IndexHandle::load_with_generation`]).
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
        ctx.record_kernel_work(work);
        self.rules.apply(&mut recs, req.filter_adult);
        recs.truncate(self.config.how_many);
        let timings = StageTimings {
            session: session_done - started,
            predict,
            policy: (session_done + predict).elapsed(),
        };
        ctx.set_timings(timings);
        self.stats.record(timings, !req.consent, recs.len());
        Ok(recs)
    }

    /// Handles one request with a per-thread context. Convenience wrapper
    /// over [`Engine::handle_with`] for callers without worker state.
    pub fn handle(&self, req: RecommendRequest) -> Result<Vec<ItemScore>, ServingError> {
        thread_local! {
            static CTX: RefCell<RequestContext> = RefCell::new(RequestContext::new());
        }
        CTX.with(|ctx| self.handle_with(req, &mut ctx.borrow_mut()))
    }

    /// Counts a pipeline error and hands it back.
    fn failed(&self, e: ServingError) -> ServingError {
        self.stats.record_error();
        e
    }

    /// Session stage: update the evolving session (or drop it, for
    /// no-consent requests) and write the configured view into `ctx`.
    fn session_stage(
        &self,
        req: &RecommendRequest,
        ctx: &mut RequestContext,
    ) -> Result<(), ServingError> {
        let view = &mut ctx.view;
        view.clear();
        let mut stored_len = 0usize;
        if req.consent {
            let max_len = self.config.max_stored_session_len;
            let variant = self.config.variant;
            let item = req.item;
            let stored_len_out = &mut stored_len;
            let result = self.sessions.update_or_insert(req.session_id, Vec::new, |items| {
                items.push(item);
                if items.len() > max_len {
                    let excess = items.len() - max_len;
                    items.drain(..excess);
                }
                *stored_len_out = items.len();
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
                Ok(())
            });
            ctx.set_session_len(stored_len);
            result
        } else {
            // Depersonalised: predict from the displayed item only, and drop
            // any previously stored state for this session.
            self.sessions.remove(&req.session_id);
            view.push(req.item);
            ctx.set_session_len(1);
            Ok(())
        }
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

    /// Request/latency statistics of this engine.
    pub fn stats(&self) -> crate::stats::StatsSnapshot {
        self.stats.snapshot()
    }

    /// The live stats collector, for registering this engine's counters and
    /// histograms into a metrics [`serenade_telemetry::Registry`].
    pub fn stats_handle(&self) -> &ServingStats {
        &self.stats
    }

    /// Cumulative `(lazily expired, swept)` session reclamation counts from
    /// this engine's store.
    pub fn session_expiry_counts(&self) -> (u64, u64) {
        self.sessions.expiry_counts()
    }

    /// Number of clicks currently stored for a session.
    pub fn stored_session_len(&self, session_id: u64) -> usize {
        self.sessions.with_value(&session_id, Vec::len).unwrap_or(0)
    }

    /// Erases a session's evolving state from this engine's store — live or
    /// expired — returning whether anything was dropped. The unlearning
    /// hook: [`crate::ServingCluster::delete_session`] calls this so a
    /// session deleted from the click log also stops influencing its own
    /// future requests (and its clicks stop occupying the TTL store).
    pub fn forget_session(&self, session_id: u64) -> bool {
        self.sessions.forget(&session_id)
    }

    /// Count of live sessions in this engine's store.
    pub fn live_sessions(&self) -> usize {
        self.sessions.live_entries()
    }

    /// Snapshots up to `cap` live sessions for ownership handoff — see
    /// [`SessionStore::export_live`]. The exporting node keeps serving; the
    /// handoff coordinator imports the snapshot into the new owners and
    /// then calls [`Engine::forget_session`] here.
    pub fn export_sessions(&self, cap: usize) -> Vec<(u64, Vec<ItemId>)> {
        self.sessions.export_live(cap)
    }

    /// Installs a handed-off session. Imported history is *prepended* to
    /// whatever this engine already holds for the id: during the handoff gap
    /// the new owner may have served the session fresh, and those clicks
    /// are newer than the snapshot, so they stay at the tail. The stored
    /// length cap applies as on the request path. Returns the stored
    /// session length after the merge.
    pub fn import_session(&self, session_id: u64, mut items: Vec<ItemId>) -> usize {
        let max_len = self.config.max_stored_session_len;
        self.sessions.update_or_insert(session_id, Vec::new, |existing| {
            if !existing.is_empty() {
                items.extend_from_slice(existing);
            }
            std::mem::swap(existing, &mut items);
            if existing.len() > max_len {
                let excess = existing.len() - max_len;
                existing.drain(..excess);
            }
            existing.len()
        })
    }

    /// Sweeps expired sessions (the paper's 30-minute-inactivity cleanup).
    pub fn evict_expired_sessions(&self) -> usize {
        self.sessions.evict_expired()
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;
    use serenade_core::Click;

    fn index() -> Arc<SessionIndex> {
        let mut clicks = Vec::new();
        for s in 0..30u64 {
            let ts = 100 + s * 10;
            clicks.push(Click::new(s + 1, s % 5, ts));
            clicks.push(Click::new(s + 1, (s + 1) % 5, ts + 1));
            clicks.push(Click::new(s + 1, (s + 2) % 5, ts + 2));
        }
        Arc::new(SessionIndex::build(&clicks, 500).unwrap())
    }

    fn engine(variant: ServingVariant, rules: BusinessRules) -> Engine {
        let config = EngineConfig { variant, how_many: 3, ..Default::default() };
        Engine::new(index(), config, rules).unwrap()
    }

    fn req(session_id: u64, item: ItemId) -> RecommendRequest {
        RecommendRequest { session_id, item, consent: true, filter_adult: false }
    }

    #[test]
    fn consented_requests_accumulate_session_state() {
        let e = engine(ServingVariant::Full, BusinessRules::none());
        assert!(!e.handle(req(7, 0)).unwrap().is_empty());
        assert!(!e.handle(req(7, 1)).unwrap().is_empty());
        assert_eq!(e.stored_session_len(7), 2);
        assert_eq!(e.live_sessions(), 1);
    }

    #[test]
    fn no_consent_clears_state_and_uses_current_item_only() {
        let e = engine(ServingVariant::Full, BusinessRules::none());
        e.handle(req(7, 0)).unwrap();
        e.handle(req(7, 1)).unwrap();
        let depersonalised = e.handle(RecommendRequest {
            session_id: 7,
            item: 2,
            consent: false,
            filter_adult: false,
        })
        .unwrap();
        assert_eq!(e.stored_session_len(7), 0, "state must be dropped");
        // Result equals a fresh single-item prediction.
        let e2 = engine(ServingVariant::Full, BusinessRules::none());
        let fresh = e2.handle(req(99, 2)).unwrap();
        assert_eq!(depersonalised, fresh);
    }

    #[test]
    fn recent_variant_matches_single_item_prediction() {
        let recent = engine(ServingVariant::Recent, BusinessRules::none());
        recent.handle(req(1, 0)).unwrap();
        let from_recent = recent.handle(req(1, 3)).unwrap();
        let fresh = engine(ServingVariant::Recent, BusinessRules::none()).handle(req(2, 3)).unwrap();
        assert_eq!(from_recent, fresh, "recent variant only sees the last item");
    }

    #[test]
    fn hist_variant_uses_last_two_items() {
        let hist = engine(ServingVariant::Hist(2), BusinessRules::none());
        hist.handle(req(1, 0)).unwrap();
        hist.handle(req(1, 1)).unwrap();
        let from_hist = hist.handle(req(1, 2)).unwrap(); // view = [1, 2]
        let pair = engine(ServingVariant::Hist(2), BusinessRules::none());
        pair.handle(req(5, 1)).unwrap();
        let fresh = pair.handle(req(5, 2)).unwrap(); // view = [1, 2]
        assert_eq!(from_hist, fresh);
    }

    #[test]
    fn business_rules_filter_responses() {
        let clean = engine(ServingVariant::Recent, BusinessRules::none());
        let baseline = clean.handle(req(1, 0)).unwrap();
        assert!(!baseline.is_empty());
        let banned = baseline[0].item;
        let filtered = engine(ServingVariant::Recent, BusinessRules::new([banned], []));
        let recs = filtered.handle(req(1, 0)).unwrap();
        assert!(recs.iter().all(|r| r.item != banned));
    }

    #[test]
    fn stored_sessions_are_capped() {
        let config = EngineConfig {
            variant: ServingVariant::Full,
            how_many: 3,
            max_stored_session_len: 4,
            ..Default::default()
        };
        let e = Engine::new(index(), config, BusinessRules::none()).unwrap();
        for i in 0..10 {
            e.handle(req(1, i % 5)).unwrap();
        }
        assert_eq!(e.stored_session_len(1), 4);
    }

    #[test]
    fn responses_respect_how_many() {
        let e = engine(ServingVariant::Full, BusinessRules::none());
        let recs = e.handle(req(1, 0)).unwrap();
        assert!(recs.len() <= 3);
        assert!(recs.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn concurrent_sessions_are_isolated() {
        let e = Arc::new(engine(ServingVariant::Full, BusinessRules::none()));
        let handles: Vec<_> = (0..8u64)
            .map(|sid| {
                let e = Arc::clone(&e);
                std::thread::spawn(move || {
                    let mut ctx = RequestContext::new();
                    for i in 0..20 {
                        e.handle_with(req(sid, (sid + i) % 5), &mut ctx).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(e.live_sessions(), 8);
        for sid in 0..8u64 {
            assert_eq!(e.stored_session_len(sid), 20);
        }
    }

    #[test]
    fn per_stage_timings_reach_stats_and_context() {
        let e = engine(ServingVariant::Full, BusinessRules::none());
        let mut ctx = RequestContext::new();
        for i in 0..5 {
            e.handle_with(req(1, i % 5), &mut ctx).unwrap();
        }
        let timings = ctx.last_timings();
        assert_eq!(
            timings.total(),
            timings.session + timings.predict + timings.policy,
        );
        let snap = e.stats();
        assert_eq!(snap.requests, 5);
        assert_eq!(snap.latency.unwrap().count, 5);
        assert_eq!(snap.session_latency.unwrap().count, 5);
        assert_eq!(snap.predict_latency.unwrap().count, 5);
        assert_eq!(snap.policy_latency.unwrap().count, 5);
    }

    #[test]
    fn expired_deadline_degrades_to_single_item_view() {
        use std::time::Duration;
        let e = engine(ServingVariant::Full, BusinessRules::none());
        let mut ctx = RequestContext::new();
        e.handle_with(req(7, 0), &mut ctx).unwrap();
        e.handle_with(req(7, 1), &mut ctx).unwrap();
        assert!(!ctx.degraded());
        // A deadline that has already passed forces the fallback view.
        ctx.set_deadline(Some(Instant::now() - Duration::from_millis(1)));
        let degraded = e.handle_with(req(7, 2), &mut ctx).unwrap();
        assert!(ctx.degraded());
        assert_eq!(e.stats().degraded, 1);
        // The degraded response equals a fresh single-item prediction.
        let fresh = engine(ServingVariant::Full, BusinessRules::none());
        let expected = fresh.handle(req(99, 2)).unwrap();
        assert_eq!(degraded, expected);
        // Session state was still updated before the checkpoint.
        assert_eq!(e.stored_session_len(7), 3);
        // With budget left, the same engine serves the full view again.
        ctx.set_deadline(Some(Instant::now() + Duration::from_secs(3600)));
        e.handle_with(req(7, 3), &mut ctx).unwrap();
        assert!(!ctx.degraded());
        assert_eq!(e.stats().degraded, 1);
    }

    fn dep(session_id: u64, item: ItemId, filter_adult: bool) -> RecommendRequest {
        RecommendRequest { session_id, item, consent: false, filter_adult }
    }

    #[test]
    fn depersonalised_repeats_hit_the_cache_and_stay_identical() {
        let e = engine(ServingVariant::Full, BusinessRules::none());
        let first = e.handle(dep(50, 2, false)).unwrap();
        let second = e.handle(dep(51, 2, false)).unwrap();
        assert_eq!(first, second, "a cache hit must be byte-identical to the computed list");
        let cache = e.prediction_cache().expect("cache is enabled by default");
        assert_eq!((cache.hit_count(), cache.miss_count()), (1, 1));
    }

    #[test]
    fn recent_variant_consented_requests_are_cached() {
        let e = engine(ServingVariant::Recent, BusinessRules::none());
        let a = e.handle(req(1, 3)).unwrap();
        let b = e.handle(req(2, 3)).unwrap();
        assert_eq!(a, b);
        let cache = e.prediction_cache().unwrap();
        assert_eq!(cache.hit_count(), 1, "same most-recent item, different session");
    }

    #[test]
    fn hist_variant_consented_requests_bypass_the_cache() {
        let e = engine(ServingVariant::Hist(2), BusinessRules::none());
        e.handle(req(1, 0)).unwrap();
        e.handle(req(1, 1)).unwrap();
        e.handle(req(2, 0)).unwrap();
        e.handle(req(2, 1)).unwrap();
        let cache = e.prediction_cache().unwrap();
        assert_eq!(
            (cache.hit_count(), cache.miss_count()),
            (0, 0),
            "session-dependent views must never touch the cache"
        );
    }

    #[test]
    fn disabling_the_cache_changes_nothing_but_the_counters() {
        let enabled = engine(ServingVariant::Full, BusinessRules::none());
        let disabled_cfg = EngineConfig {
            variant: ServingVariant::Full,
            how_many: 3,
            cache: CacheConfig { enabled: false, ..CacheConfig::default() },
            ..Default::default()
        };
        let disabled = Engine::new(index(), disabled_cfg, BusinessRules::none()).unwrap();
        assert!(disabled.prediction_cache().is_none());
        for item in [0u64, 2, 2, 4, 0] {
            assert_eq!(
                enabled.handle(dep(80, item, false)).unwrap(),
                disabled.handle(dep(80, item, false)).unwrap(),
            );
        }
        assert!(enabled.prediction_cache().unwrap().hit_count() > 0);
    }

    #[test]
    fn cached_hits_respect_per_user_adult_filter() {
        // The cache stores pre-policy lists: a user with filtering on and a
        // user with filtering off share the cache entry yet get different
        // responses — `filter_adult` must never leak between users.
        let clicks = vec![
            Click::new(1, 0, 10),
            Click::new(1, 7, 11),
            Click::new(2, 0, 20),
            Click::new(2, 7, 21),
            Click::new(3, 5, 30), // unrelated session: keeps idf(7) > 0
            Click::new(3, 6, 31),
        ];
        let idx = Arc::new(SessionIndex::build(&clicks, 500).unwrap());
        let mut rules = BusinessRules::none();
        rules.mark_adult(7);
        let e = Engine::new(idx, EngineConfig::default(), rules).unwrap();
        let unfiltered = e.handle(dep(1, 0, false)).unwrap();
        assert!(unfiltered.iter().any(|r| r.item == 7), "warm-up sees the adult item");
        let filtered = e.handle(dep(2, 0, true)).unwrap();
        assert!(filtered.iter().all(|r| r.item != 7), "cached hit must still filter");
        let unfiltered_again = e.handle(dep(3, 0, false)).unwrap();
        assert_eq!(unfiltered, unfiltered_again, "filtering must not poison the entry");
        assert_eq!(e.prediction_cache().unwrap().hit_count(), 2);
    }

    #[test]
    fn export_import_hands_sessions_between_engines() {
        let old_owner = engine(ServingVariant::Full, BusinessRules::none());
        let new_owner = engine(ServingVariant::Full, BusinessRules::none());
        old_owner.handle(req(7, 0)).unwrap();
        old_owner.handle(req(7, 1)).unwrap();
        old_owner.handle(req(8, 2)).unwrap();

        let exported = old_owner.export_sessions(usize::MAX);
        assert_eq!(exported.len(), 2);
        for (sid, items) in exported {
            new_owner.import_session(sid, items);
            old_owner.forget_session(sid);
        }
        assert_eq!(old_owner.live_sessions(), 0);
        assert_eq!(new_owner.stored_session_len(7), 2);
        assert_eq!(new_owner.stored_session_len(8), 1);

        // The handed-off session continues where it left off: the next
        // request on the new owner sees the full history.
        let continued = new_owner.handle(req(7, 2)).unwrap();
        let reference = engine(ServingVariant::Full, BusinessRules::none());
        reference.handle(req(7, 0)).unwrap();
        reference.handle(req(7, 1)).unwrap();
        assert_eq!(continued, reference.handle(req(7, 2)).unwrap());
    }

    #[test]
    fn import_keeps_fresh_clicks_after_imported_history() {
        // During the handoff gap the new owner already served the session
        // fresh; the imported snapshot must slot in *before* those clicks.
        let e = engine(ServingVariant::Full, BusinessRules::none());
        e.handle(req(7, 3)).unwrap(); // gap click on the new owner
        assert_eq!(e.import_session(7, vec![0, 1]), 3);
        let mut ctx = RequestContext::new();
        e.handle_with(req(7, 2), &mut ctx).unwrap();
        assert_eq!(ctx.view, vec![0, 1, 3, 2], "history, gap click, new click");
    }

    #[test]
    fn import_respects_the_stored_session_cap() {
        let config = EngineConfig {
            variant: ServingVariant::Full,
            how_many: 3,
            max_stored_session_len: 4,
            ..Default::default()
        };
        let e = Engine::new(index(), config, BusinessRules::none()).unwrap();
        e.handle(req(7, 0)).unwrap();
        let len = e.import_session(7, vec![1, 2, 3, 4, 0, 1]);
        assert_eq!(len, 4, "oldest imported items are dropped first");
        assert_eq!(e.stored_session_len(7), 4);
    }

    #[test]
    fn handle_with_matches_handle() {
        let a = engine(ServingVariant::Full, BusinessRules::none());
        let b = engine(ServingVariant::Full, BusinessRules::none());
        let mut ctx = RequestContext::new();
        for i in 0..6u64 {
            assert_eq!(a.handle_with(req(3, i % 5), &mut ctx).unwrap(), b.handle(req(3, i % 5)).unwrap());
        }
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod store_abstraction_tests {
    //! The engine must run unchanged over any [`SessionStore`] — exercised
    //! here with a deliberately naive mutex-over-hashmap store.

    use super::*;
    use parking_lot::Mutex;
    use serenade_core::Click;
    use std::collections::HashMap;

    #[derive(Default)]
    struct NaiveStore {
        map: Mutex<HashMap<u64, Vec<ItemId>>>,
    }

    impl SessionStore<u64, Vec<ItemId>> for NaiveStore {
        fn update_or_insert<T>(
            &self,
            key: u64,
            default: impl FnOnce() -> Vec<ItemId>,
            f: impl FnOnce(&mut Vec<ItemId>) -> T,
        ) -> T {
            f(self.map.lock().entry(key).or_insert_with(default))
        }

        fn with_value<T>(&self, key: &u64, f: impl FnOnce(&Vec<ItemId>) -> T) -> Option<T> {
            self.map.lock().get(key).map(f)
        }

        fn remove(&self, key: &u64) -> Option<Vec<ItemId>> {
            self.map.lock().remove(key)
        }

        fn contains(&self, key: &u64) -> bool {
            self.map.lock().contains_key(key)
        }

        fn evict_expired(&self) -> usize {
            0 // never expires
        }

        fn live_entries(&self) -> usize {
            self.map.lock().len()
        }

        fn clear(&self) {
            self.map.lock().clear()
        }
    }

    #[test]
    fn engine_runs_on_any_session_store() {
        let mut clicks = Vec::new();
        for s in 0..30u64 {
            let ts = 100 + s * 10;
            clicks.push(Click::new(s + 1, s % 5, ts));
            clicks.push(Click::new(s + 1, (s + 1) % 5, ts + 1));
        }
        let index = Arc::new(SessionIndex::build(&clicks, 500).unwrap());
        let config = EngineConfig {
            variant: ServingVariant::Full,
            how_many: 3,
            ..Default::default()
        };
        let vmis = Arc::new(build_recommender(Arc::clone(&index), &config).unwrap());
        let naive: Engine<NaiveStore> = Engine::with_store(
            Arc::new(IndexHandle::new(vmis)),
            NaiveStore::default(),
            config.clone(),
            BusinessRules::none(),
        );
        let ttl = Engine::new(index, config, BusinessRules::none()).unwrap();
        for i in 0..6u64 {
            let r = RecommendRequest {
                session_id: 1,
                item: i % 5,
                consent: true,
                filter_adult: false,
            };
            assert_eq!(naive.handle(r), ttl.handle(r), "store choice must not change results");
        }
        assert_eq!(naive.live_sessions(), 1);
        assert_eq!(naive.stored_session_len(1), 6);
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod ttl_tests {
    use super::*;
    use serenade_core::Click;

    fn tiny_index() -> Arc<SessionIndex> {
        let clicks = vec![
            Click::new(1, 0, 10),
            Click::new(1, 1, 11),
            Click::new(2, 0, 20),
            Click::new(2, 2, 21),
        ];
        Arc::new(SessionIndex::build(&clicks, 500).unwrap())
    }

    #[test]
    fn sessions_expire_after_inactivity() {
        let config = EngineConfig {
            variant: ServingVariant::Full,
            store: StoreConfig { shards: 2, ttl_ms: 40, touch_on_read: true },
            ..Default::default()
        };
        let e = Engine::new(tiny_index(), config, BusinessRules::none()).unwrap();
        e.handle(RecommendRequest { session_id: 5, item: 0, consent: true, filter_adult: false })
            .unwrap();
        assert_eq!(e.stored_session_len(5), 1);
        std::thread::sleep(std::time::Duration::from_millis(80));
        assert_eq!(e.stored_session_len(5), 0, "session must expire after the TTL");
        assert_eq!(e.evict_expired_sessions(), 0, "lazy expiry already removed it");
        // A new request restarts the session from scratch.
        e.handle(RecommendRequest { session_id: 5, item: 1, consent: true, filter_adult: false })
            .unwrap();
        assert_eq!(e.stored_session_len(5), 1);
    }

    #[test]
    fn eviction_sweep_counts_expired_sessions() {
        let config = EngineConfig {
            store: StoreConfig { shards: 2, ttl_ms: 30, touch_on_read: false },
            ..Default::default()
        };
        let e = Engine::new(tiny_index(), config, BusinessRules::none()).unwrap();
        for sid in 0..6u64 {
            e.handle(RecommendRequest {
                session_id: sid,
                item: 0,
                consent: true,
                filter_adult: false,
            })
            .unwrap();
        }
        std::thread::sleep(std::time::Duration::from_millis(60));
        assert_eq!(e.evict_expired_sessions(), 6);
        assert_eq!(e.live_sessions(), 0);
    }

    #[test]
    fn depersonalised_requests_respect_adult_filter() {
        let clicks = vec![
            Click::new(1, 0, 10),
            Click::new(1, 7, 11),
            Click::new(2, 0, 20),
            Click::new(2, 7, 21),
            Click::new(3, 5, 30), // unrelated session: keeps idf(7) > 0
            Click::new(3, 6, 31),
        ];
        let index = Arc::new(SessionIndex::build(&clicks, 500).unwrap());
        let mut rules = BusinessRules::none();
        rules.mark_adult(7);
        let e = Engine::new(index, EngineConfig::default(), rules).unwrap();
        let filtered = e.handle(RecommendRequest {
            session_id: 1,
            item: 0,
            consent: false,
            filter_adult: true,
        })
        .unwrap();
        assert!(filtered.iter().all(|r| r.item != 7));
        let unfiltered = e.handle(RecommendRequest {
            session_id: 2,
            item: 0,
            consent: false,
            filter_adult: false,
        })
        .unwrap();
        assert!(unfiltered.iter().any(|r| r.item == 7));
    }
}
