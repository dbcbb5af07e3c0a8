//! Serving-side observability: per-engine request counters and latency.
//!
//! The paper's operational story (Sections 5.2.2–5.2.3, 7) rests on being
//! able to watch request rate, latency percentiles and core usage per
//! serving machine.
//! This module provides the in-process equivalent: a stats collector every
//! [`crate::engine::Engine`] feeds, exposed over HTTP as `GET /stats` and
//! queryable in-process for the dashboards the benchmarks print. Latency is
//! recorded per pipeline stage (session / predict / policy), so the
//! breakdown of where a request's time went is first-class.
//!
//! Recording is lock-free: counters are relaxed atomics and latency goes
//! into `serenade-telemetry`'s sharded log-linear histograms, so memory is
//! bounded at O(buckets × shards) per stage regardless of how many requests
//! the engine has served (the previous design kept every raw sample in striped
//! `LatencyRecorder`s, growing without bound). Percentiles reported in
//! [`StatsSnapshot`] are therefore estimates within
//! [`serenade_telemetry::REL_ERROR_BOUND`] of the exact order statistics;
//! `count`, `mean_us`, `min_us` and `max_us` stay exact.
//!
//! The same counter/histogram handles can be registered into a
//! [`Registry`] (see [`ServingStats::register_into`]) so `GET /metrics`
//! exposes them in Prometheus text format without double bookkeeping.

use std::sync::Arc;
use std::time::Duration;

use serenade_telemetry::{Counter, Histogram, HistogramConfig, LatencySummary, Registry};

use crate::context::StageTimings;

/// Latency histogram sizing. Production tracks up to an hour at ≤2%
/// relative error; the loom build shrinks the value range so a model
/// schedule's step budget is spent on interleavings, not bucket loads.
fn latency_config() -> HistogramConfig {
    #[cfg(feature = "loom")]
    {
        HistogramConfig { max_value_us: 63, shards: 2 }
    }
    #[cfg(not(feature = "loom"))]
    {
        HistogramConfig::default()
    }
}

/// Thread-safe request statistics for one engine.
#[derive(Debug)]
pub struct ServingStats {
    requests: Arc<Counter>,
    depersonalised: Arc<Counter>,
    degraded: Arc<Counter>,
    empty_responses: Arc<Counter>,
    errors: Arc<Counter>,
    busy_ns: Arc<Counter>,
    total: Arc<Histogram>,
    session: Arc<Histogram>,
    predict: Arc<Histogram>,
    policy: Arc<Histogram>,
}

impl Default for ServingStats {
    fn default() -> Self {
        Self {
            requests: Arc::new(Counter::new()),
            depersonalised: Arc::new(Counter::new()),
            degraded: Arc::new(Counter::new()),
            empty_responses: Arc::new(Counter::new()),
            errors: Arc::new(Counter::new()),
            busy_ns: Arc::new(Counter::new()),
            total: Arc::new(Histogram::new(latency_config())),
            session: Arc::new(Histogram::new(latency_config())),
            predict: Arc::new(Histogram::new(latency_config())),
            policy: Arc::new(Histogram::new(latency_config())),
        }
    }
}

/// A point-in-time snapshot of [`ServingStats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsSnapshot {
    /// Requests handled since startup.
    pub requests: u64,
    /// Requests served in depersonalised (no-consent) mode.
    pub depersonalised: u64,
    /// Requests degraded to the depersonalised fallback because their
    /// deadline budget expired mid-pipeline.
    pub degraded: u64,
    /// Requests that produced an empty recommendation list.
    pub empty_responses: u64,
    /// Requests that failed with a serving error (HTTP 5xx).
    pub errors: u64,
    /// Total busy time spent inside request handling.
    pub busy: Duration,
    /// End-to-end latency percentiles, if any requests were recorded.
    pub latency: Option<LatencySummary>,
    /// Session-stage latency (evolving-session update + view).
    pub session_latency: Option<LatencySummary>,
    /// Prediction-stage latency (VMIS-kNN).
    pub predict_latency: Option<LatencySummary>,
    /// Policy-stage latency (business rules + truncation).
    pub policy_latency: Option<LatencySummary>,
}

impl ServingStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one failed request (the engine returned a serving error).
    pub fn record_error(&self) {
        self.errors.inc();
    }

    /// Records one request that fell back to the degraded (depersonalised)
    /// path because its deadline budget expired mid-pipeline.
    pub fn record_degraded(&self) {
        self.degraded.inc();
    }

    /// Records one handled request with its per-stage timing breakdown.
    pub fn record(&self, timings: StageTimings, depersonalised: bool, response_len: usize) {
        let total = timings.total();
        self.requests.inc();
        if depersonalised {
            self.depersonalised.inc();
        }
        if response_len == 0 {
            self.empty_responses.inc();
        }
        self.busy_ns.add(total.as_nanos() as u64);
        self.total.record(total);
        self.session.record(timings.session);
        self.predict.record(timings.predict);
        self.policy.record(timings.policy);
    }

    /// Takes a snapshot (quantiles estimated from the bounded histograms,
    /// merged across recording shards; counts and extremes exact).
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.requests.get(),
            depersonalised: self.depersonalised.get(),
            degraded: self.degraded.get(),
            empty_responses: self.empty_responses.get(),
            errors: self.errors.get(),
            busy: Duration::from_nanos(self.busy_ns.get()),
            latency: self.total.snapshot().summary(),
            session_latency: self.session.snapshot().summary(),
            predict_latency: self.predict.snapshot().summary(),
            policy_latency: self.policy.snapshot().summary(),
        }
    }

    /// Registers these counters and stage histograms into `registry` under
    /// the serenade metric names. The registry shares the live handles — no
    /// copying, no separate bookkeeping.
    pub fn register_into(&self, registry: &Registry) {
        registry.counter_shared(
            "serenade_requests_total",
            "Requests handled since startup.",
            &[],
            Arc::clone(&self.requests),
        );
        registry.counter_shared(
            "serenade_depersonalised_total",
            "Requests served in depersonalised (no-consent) mode.",
            &[],
            Arc::clone(&self.depersonalised),
        );
        registry.counter_shared(
            "serenade_deadline_degraded_total",
            "Requests degraded to the depersonalised fallback on deadline expiry.",
            &[],
            Arc::clone(&self.degraded),
        );
        registry.counter_shared(
            "serenade_empty_responses_total",
            "Requests that produced an empty recommendation list.",
            &[],
            Arc::clone(&self.empty_responses),
        );
        registry.counter_shared(
            "serenade_errors_total",
            "Requests that failed with a serving error.",
            &[],
            Arc::clone(&self.errors),
        );
        registry.counter_shared(
            "serenade_handler_busy_nanoseconds_total",
            "Cumulative busy time spent inside request handling.",
            &[],
            Arc::clone(&self.busy_ns),
        );
        for (stage, histogram) in [
            ("total", &self.total),
            ("session", &self.session),
            ("predict", &self.predict),
            ("policy", &self.policy),
        ] {
            registry.histogram_shared(
                "serenade_request_duration_seconds",
                "Request latency by pipeline stage.",
                &[("stage", stage)],
                Arc::clone(histogram),
            );
        }
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;

    fn timings(session_us: u64, predict_us: u64, policy_us: u64) -> StageTimings {
        StageTimings {
            session: Duration::from_micros(session_us),
            predict: Duration::from_micros(predict_us),
            policy: Duration::from_micros(policy_us),
        }
    }

    #[test]
    fn counters_accumulate() {
        let s = ServingStats::new();
        s.record(timings(20, 70, 10), false, 21);
        s.record(timings(50, 200, 50), true, 0);
        let snap = s.snapshot();
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.depersonalised, 1);
        assert_eq!(snap.empty_responses, 1);
        assert_eq!(snap.busy, Duration::from_micros(400));
        let lat = snap.latency.unwrap();
        assert_eq!(lat.count, 2);
        assert_eq!(lat.max_us, 300);
    }

    #[test]
    fn per_stage_breakdowns_are_recorded() {
        let s = ServingStats::new();
        s.record(timings(10, 100, 1), false, 5);
        s.record(timings(30, 300, 3), false, 5);
        let snap = s.snapshot();
        assert_eq!(snap.session_latency.unwrap().max_us, 30);
        assert_eq!(snap.predict_latency.unwrap().max_us, 300);
        assert_eq!(snap.policy_latency.unwrap().max_us, 3);
        assert_eq!(snap.latency.unwrap().max_us, 333);
    }

    #[test]
    fn degraded_requests_are_counted_and_exported() {
        let registry = Registry::new();
        let s = ServingStats::new();
        s.register_into(&registry);
        s.record_degraded();
        s.record_degraded();
        assert_eq!(s.snapshot().degraded, 2);
        assert!(
            registry.render().contains("serenade_deadline_degraded_total 2"),
            "{}",
            registry.render()
        );
    }

    #[test]
    fn empty_stats_have_no_latency() {
        let snap = ServingStats::new().snapshot();
        assert_eq!(snap.requests, 0);
        assert!(snap.latency.is_none());
        assert!(snap.session_latency.is_none());
        assert!(snap.predict_latency.is_none());
        assert!(snap.policy_latency.is_none());
    }

    #[test]
    fn quantiles_stay_within_the_documented_bound() {
        let s = ServingStats::new();
        for us in 1..=1_000u64 {
            s.record(timings(0, us, 0), false, 5);
        }
        let lat = s.snapshot().predict_latency.unwrap();
        let tolerance = |exact: u64| (exact as f64 * serenade_telemetry::REL_ERROR_BOUND) as u64 + 1;
        assert!(lat.p50_us.abs_diff(500) <= tolerance(500), "p50 {}", lat.p50_us);
        assert!(lat.p90_us.abs_diff(900) <= tolerance(900), "p90 {}", lat.p90_us);
        assert!(lat.p995_us.abs_diff(995) <= tolerance(995), "p995 {}", lat.p995_us);
        assert_eq!(lat.min_us, 1);
        assert_eq!(lat.max_us, 1_000);
    }

    #[test]
    fn register_into_exposes_the_live_handles() {
        let registry = Registry::new();
        let s = ServingStats::new();
        s.register_into(&registry);
        s.record(timings(10, 100, 1), true, 0);
        s.record_error();
        let text = registry.render();
        assert!(text.contains("serenade_requests_total 1"), "{text}");
        assert!(text.contains("serenade_depersonalised_total 1"), "{text}");
        assert!(text.contains("serenade_empty_responses_total 1"), "{text}");
        assert!(text.contains("serenade_errors_total 1"), "{text}");
        assert!(
            text.contains("serenade_request_duration_seconds_count{stage=\"total\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("serenade_request_duration_seconds_count{stage=\"predict\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let s = std::sync::Arc::new(ServingStats::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        s.record(timings(2, 7, 1), false, 5);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = s.snapshot();
        assert_eq!(snap.requests, 4_000);
        assert_eq!(snap.latency.unwrap().count, 4_000);
        assert_eq!(snap.predict_latency.unwrap().count, 4_000);
    }
}
