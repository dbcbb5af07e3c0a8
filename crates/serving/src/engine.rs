//! What configures a serving node's engine, and what a request carries.
//!
//! The pipeline itself is [`ServingCluster::handle_with`]; this module holds
//! the types it is configured and called with. The two session views of
//! the A/B test are first-class: `serenade-hist` predicts from the last
//! *two* items of the evolving session and `serenade-recent` from the most
//! recent item only (Section 5.2.3). Users without personalisation consent
//! get the depersonalised variant, which uses only the currently displayed
//! item and stores nothing.
//!
//! [`ServingCluster::handle_with`]: crate::ServingCluster::handle_with

use serenade_core::{ItemId, VmisConfig};
use serenade_kvstore::StoreConfig;

use crate::cache::CacheConfig;
use crate::rules::BusinessRules;

/// Which view of the evolving session feeds the prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingVariant {
    /// `serenade-hist`: the last `n` items (the A/B test used `n = 2`).
    Hist(usize),
    /// `serenade-recent`: only the most recent item.
    Recent,
    /// The whole stored session: its last `vmis.max_session_len` clicks,
    /// the window the kernel reads.
    Full,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// VMIS-kNN hyperparameters. Their `max_session_len` is also how many
    /// of a session's most recent clicks the node stores: the most that any
    /// view, the deadline fallback or the kernel reads.
    pub vmis: VmisConfig,
    /// Session view variant.
    pub variant: ServingVariant,
    /// Items per response (the shop frontend renders 21).
    pub how_many: usize,
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

/// The kernel's configuration for `config` on a cluster whose business
/// rules are `rules`. The engine owns the final list length. With no rules
/// the kernel is asked for exactly that many items; rules that can remove
/// items get twice as many, so that filtering does not starve slots. A
/// cluster's rules are fixed when it starts, so this is decided once.
pub(crate) fn kernel_config(config: &EngineConfig, rules: &BusinessRules) -> VmisConfig {
    let candidates = if rules.is_empty() { config.how_many } else { 2 * config.how_many };
    VmisConfig { how_many: candidates, ..config.vmis.clone() }
}

#[cfg(all(test, not(feature = "loom")))]
pub(crate) mod tests {
    //! The variants, the cache eligibility of each view and the session
    //! handoff, driven through the pipeline they configure.

    use super::*;
    use crate::error::ServingError;
    use crate::{BusinessRules, RequestContext, ServingCluster};
    use serenade_core::{Click, ItemScore, SessionIndex};
    use std::sync::Arc;
    use std::time::Instant;

    pub(crate) fn index() -> Arc<SessionIndex> {
        let mut clicks = Vec::new();
        for s in 0..30u64 {
            let ts = 100 + s * 10;
            clicks.push(Click::new(s + 1, s % 5, ts));
            clicks.push(Click::new(s + 1, (s + 1) % 5, ts + 1));
            clicks.push(Click::new(s + 1, (s + 2) % 5, ts + 2));
        }
        Arc::new(SessionIndex::build(&clicks, 500).unwrap())
    }

    fn engine(variant: ServingVariant, rules: BusinessRules) -> ServingCluster {
        let config = EngineConfig { variant, how_many: 3, ..Default::default() };
        ServingCluster::new(index(), 1, config, rules).unwrap()
    }

    fn req(session_id: u64, item: ItemId) -> RecommendRequest {
        RecommendRequest { session_id, item, consent: true, filter_adult: false }
    }

    /// Answers `req` the way an in-process caller does: `handle_with` on a
    /// context of its own.
    pub(crate) fn handle(
        cluster: &ServingCluster,
        req: RecommendRequest,
    ) -> Result<Vec<ItemScore>, ServingError> {
        cluster.handle_with(req, &mut RequestContext::new())
    }

    #[test]
    fn consented_requests_accumulate_session_state() {
        let e = engine(ServingVariant::Full, BusinessRules::none());
        assert!(!handle(&e, req(7, 0)).unwrap().is_empty());
        assert!(!handle(&e, req(7, 1)).unwrap().is_empty());
        assert_eq!(e.stored_session_len(7), 2);
        assert_eq!(e.live_sessions(), 1);
    }

    #[test]
    fn no_consent_clears_state_and_uses_current_item_only() {
        let e = engine(ServingVariant::Full, BusinessRules::none());
        handle(&e, req(7, 0)).unwrap();
        handle(&e, req(7, 1)).unwrap();
        let depersonalised = handle(&e, RecommendRequest {
            session_id: 7,
            item: 2,
            consent: false,
            filter_adult: false,
        })
        .unwrap();
        assert_eq!(e.stored_session_len(7), 0, "state must be dropped");
        // Result equals a fresh single-item prediction.
        let e2 = engine(ServingVariant::Full, BusinessRules::none());
        let fresh = handle(&e2, req(99, 2)).unwrap();
        assert_eq!(depersonalised, fresh);
    }

    #[test]
    fn recent_variant_matches_single_item_prediction() {
        let recent = engine(ServingVariant::Recent, BusinessRules::none());
        handle(&recent, req(1, 0)).unwrap();
        let from_recent = handle(&recent, req(1, 3)).unwrap();
        let fresh = handle(&engine(ServingVariant::Recent, BusinessRules::none()), req(2, 3)).unwrap();
        assert_eq!(from_recent, fresh, "recent variant only sees the last item");
    }

    #[test]
    fn hist_variant_uses_last_two_items() {
        let hist = engine(ServingVariant::Hist(2), BusinessRules::none());
        handle(&hist, req(1, 0)).unwrap();
        handle(&hist, req(1, 1)).unwrap();
        let from_hist = handle(&hist, req(1, 2)).unwrap(); // view = [1, 2]
        let pair = engine(ServingVariant::Hist(2), BusinessRules::none());
        handle(&pair, req(5, 1)).unwrap();
        let fresh = handle(&pair, req(5, 2)).unwrap(); // view = [1, 2]
        assert_eq!(from_hist, fresh);
    }

    #[test]
    fn business_rules_filter_responses() {
        let clean = engine(ServingVariant::Recent, BusinessRules::none());
        let baseline = handle(&clean, req(1, 0)).unwrap();
        assert!(!baseline.is_empty());
        let banned = baseline[0].item;
        let filtered = engine(ServingVariant::Recent, BusinessRules::new([banned], []));
        let recs = handle(&filtered, req(1, 0)).unwrap();
        assert!(recs.iter().all(|r| r.item != banned));
    }

    /// A `Full` engine whose kernel reads (and whose store keeps) the last
    /// `window` clicks of a session.
    fn full_window(window: usize) -> EngineConfig {
        let vmis = VmisConfig { max_session_len: window, ..VmisConfig::default() };
        EngineConfig { vmis, variant: ServingVariant::Full, how_many: 3, ..Default::default() }
    }

    #[test]
    fn stored_sessions_are_capped() {
        let config = full_window(4);
        let e = ServingCluster::new(index(), 1, config, BusinessRules::none()).unwrap();
        for i in 0..10 {
            handle(&e, req(1, i % 5)).unwrap();
        }
        assert_eq!(e.stored_session_len(1), 4);
    }

    #[test]
    fn responses_respect_how_many() {
        let e = engine(ServingVariant::Full, BusinessRules::none());
        let recs = handle(&e, req(1, 0)).unwrap();
        assert!(recs.len() <= 3);
        assert!(recs.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn concurrent_sessions_are_isolated() {
        // A window as long as each session, so every lost write would show.
        let config = full_window(20);
        let e = Arc::new(ServingCluster::new(index(), 1, config, BusinessRules::none()).unwrap());
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
        assert_eq!(e.scraped("serenade_requests_total", &[]), 5);
        for stage in ["total", "session", "predict", "policy"] {
            let count = e.scraped("serenade_request_duration_seconds_count", &[("stage", stage)]);
            assert_eq!(count, 5, "{stage}");
        }
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
        assert_eq!(e.scraped("serenade_deadline_degraded_total", &[]), 1);
        // The degraded response equals a fresh single-item prediction.
        let fresh = engine(ServingVariant::Full, BusinessRules::none());
        let expected = handle(&fresh, req(99, 2)).unwrap();
        assert_eq!(degraded, expected);
        // Session state was still updated before the checkpoint.
        assert_eq!(e.stored_session_len(7), 3);
        // With budget left, the same engine serves the full view again.
        ctx.set_deadline(Some(Instant::now() + Duration::from_secs(3600)));
        e.handle_with(req(7, 3), &mut ctx).unwrap();
        assert!(!ctx.degraded());
        assert_eq!(e.scraped("serenade_deadline_degraded_total", &[]), 1);
    }

    fn dep(session_id: u64, item: ItemId, filter_adult: bool) -> RecommendRequest {
        RecommendRequest { session_id, item, consent: false, filter_adult }
    }

    #[test]
    fn depersonalised_repeats_hit_the_cache_and_stay_identical() {
        let e = engine(ServingVariant::Full, BusinessRules::none());
        let first = handle(&e, dep(50, 2, false)).unwrap();
        let second = handle(&e, dep(51, 2, false)).unwrap();
        assert_eq!(first, second, "a cache hit must be byte-identical to the computed list");
        let hits = e.scraped("serenade_cache_hits_total", &[]);
        assert_eq!((hits, e.scraped("serenade_cache_misses_total", &[])), (1, 1));
    }

    #[test]
    fn recent_variant_consented_requests_are_cached() {
        let e = engine(ServingVariant::Recent, BusinessRules::none());
        let a = handle(&e, req(1, 3)).unwrap();
        let b = handle(&e, req(2, 3)).unwrap();
        assert_eq!(a, b);
        let hits = e.scraped("serenade_cache_hits_total", &[]);
        assert_eq!(hits, 1, "same most-recent item, different session");
    }

    #[test]
    fn hist_variant_consented_requests_bypass_the_cache() {
        let e = engine(ServingVariant::Hist(2), BusinessRules::none());
        handle(&e, req(1, 0)).unwrap();
        handle(&e, req(1, 1)).unwrap();
        handle(&e, req(2, 0)).unwrap();
        handle(&e, req(2, 1)).unwrap();
        let hits = e.scraped("serenade_cache_hits_total", &[]);
        assert_eq!(
            (hits, e.scraped("serenade_cache_misses_total", &[])),
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
            cache: CacheConfig { enabled: false },
            ..Default::default()
        };
        let disabled = ServingCluster::new(index(), 1, disabled_cfg, BusinessRules::none()).unwrap();
        let families = disabled.telemetry().registry().render();
        assert!(!families.contains("serenade_cache_"), "no cache, no cache series: {families}");
        for item in [0u64, 2, 2, 4, 0] {
            assert_eq!(
                handle(&enabled, dep(80, item, false)).unwrap(),
                handle(&disabled, dep(80, item, false)).unwrap(),
            );
        }
        assert!(enabled.scraped("serenade_cache_hits_total", &[]) > 0);
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
        let e = ServingCluster::new(idx, 1, EngineConfig::default(), rules).unwrap();
        let unfiltered = handle(&e, dep(1, 0, false)).unwrap();
        assert!(unfiltered.iter().any(|r| r.item == 7), "warm-up sees the adult item");
        let filtered = handle(&e, dep(2, 0, true)).unwrap();
        assert!(filtered.iter().all(|r| r.item != 7), "cached hit must still filter");
        let unfiltered_again = handle(&e, dep(3, 0, false)).unwrap();
        assert_eq!(unfiltered, unfiltered_again, "filtering must not poison the entry");
        assert_eq!(e.scraped("serenade_cache_hits_total", &[]), 2);
    }

    #[test]
    fn export_import_hands_sessions_between_engines() {
        let old_owner = engine(ServingVariant::Full, BusinessRules::none());
        let new_owner = engine(ServingVariant::Full, BusinessRules::none());
        handle(&old_owner, req(7, 0)).unwrap();
        handle(&old_owner, req(7, 1)).unwrap();
        handle(&old_owner, req(8, 2)).unwrap();

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
        let continued = handle(&new_owner, req(7, 2)).unwrap();
        let reference = engine(ServingVariant::Full, BusinessRules::none());
        handle(&reference, req(7, 0)).unwrap();
        handle(&reference, req(7, 1)).unwrap();
        assert_eq!(continued, handle(&reference, req(7, 2)).unwrap());
    }

    #[test]
    fn import_keeps_fresh_clicks_after_imported_history() {
        // During the handoff gap the new owner already served the session
        // fresh; the imported snapshot must slot in *before* those clicks.
        let e = engine(ServingVariant::Full, BusinessRules::none());
        handle(&e, req(7, 3)).unwrap(); // gap click on the new owner
        assert_eq!(e.import_session(7, vec![0, 1]), 3);
        let mut ctx = RequestContext::new();
        e.handle_with(req(7, 2), &mut ctx).unwrap();
        assert_eq!(ctx.view, vec![0, 1, 3, 2], "history, gap click, new click");
    }

    #[test]
    fn import_respects_the_stored_session_cap() {
        let config = full_window(4);
        let e = ServingCluster::new(index(), 1, config, BusinessRules::none()).unwrap();
        handle(&e, req(7, 0)).unwrap();
        let len = e.import_session(7, vec![1, 2, 3, 4, 0, 1]);
        assert_eq!(len, 4, "oldest imported items are dropped first");
        assert_eq!(e.stored_session_len(7), 4);
    }

    /// A context reused across requests answers as a fresh one does.
    #[test]
    fn handle_with_matches_handle() {
        let a = engine(ServingVariant::Full, BusinessRules::none());
        let b = engine(ServingVariant::Full, BusinessRules::none());
        let mut ctx = RequestContext::new();
        for i in 0..6u64 {
            assert_eq!(a.handle_with(req(3, i % 5), &mut ctx).unwrap(), handle(&b, req(3, i % 5)).unwrap());
        }
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod ttl_tests {
    use super::*;
    use crate::engine::tests::handle;
    use crate::{BusinessRules, ServingCluster};
    use serenade_core::{Click, SessionIndex};
    use std::sync::Arc;

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
            store: StoreConfig { ttl_ms: 40 },
            ..Default::default()
        };
        let e = ServingCluster::new(tiny_index(), 1, config, BusinessRules::none()).unwrap();
        handle(&e, RecommendRequest { session_id: 5, item: 0, consent: true, filter_adult: false })
            .unwrap();
        assert_eq!(e.stored_session_len(5), 1);
        std::thread::sleep(std::time::Duration::from_millis(80));
        assert_eq!(e.stored_session_len(5), 0, "session must expire after the TTL");
        assert_eq!(e.evict_expired_sessions(), 0, "lazy expiry already removed it");
        // A new request restarts the session from scratch.
        handle(&e, RecommendRequest { session_id: 5, item: 1, consent: true, filter_adult: false })
            .unwrap();
        assert_eq!(e.stored_session_len(5), 1);
    }

    #[test]
    fn eviction_sweep_counts_expired_sessions() {
        let config = EngineConfig {
            store: StoreConfig { ttl_ms: 30 },
            ..Default::default()
        };
        let e = ServingCluster::new(tiny_index(), 1, config, BusinessRules::none()).unwrap();
        for sid in 0..6u64 {
            handle(&e, RecommendRequest {
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
        let e = ServingCluster::new(index, 1, EngineConfig::default(), rules).unwrap();
        let filtered = handle(&e, RecommendRequest {
            session_id: 1,
            item: 0,
            consent: false,
            filter_adult: true,
        })
        .unwrap();
        assert!(filtered.iter().all(|r| r.item != 7));
        let unfiltered = handle(&e, RecommendRequest {
            session_id: 2,
            item: 0,
            consent: false,
            filter_adult: false,
        })
        .unwrap();
        assert!(unfiltered.iter().any(|r| r.item == 7));
    }
}
