//! Serving-side observability: per-engine request counters and latency.
//!
//! The paper's operational story (Sections 5.2.2–5.2.3, 7) rests on being
//! able to watch request rate, latency percentiles and core usage per
//! serving machine.
//! This module provides the in-process equivalent: the recorder every
//! [`crate::ServingCluster`] feeds. Latency is recorded per pipeline stage
//! (session / predict / policy), so the breakdown of where a request's time
//! went is first-class.
//!
//! Every counter and histogram is a series of the cluster's [`Registry`],
//! made by [`ServingStats::new`]; `GET /metrics` is their one read-out.
//! Recording is lock-free: counters are relaxed atomics and latency goes
//! into `serenade-telemetry`'s sharded log-linear histograms, so memory is
//! bounded at O(buckets × shards) per stage regardless of how many requests
//! the engine has served.

use std::sync::Arc;

use serenade_telemetry::{Counter, Histogram, HistogramConfig, Registry};

use crate::context::StageTimings;

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

impl ServingStats {
    /// The engine's `serenade_*` request counters and stage histograms in
    /// `registry`.
    pub fn new(registry: &Registry) -> Self {
        let stage = |stage| {
            registry.histogram(
                "serenade_request_duration_seconds",
                "Request latency by pipeline stage.",
                &[("stage", stage)],
                HistogramConfig::default(),
            )
        };
        Self {
            requests: registry.counter(
                "serenade_requests_total",
                "Requests handled since startup.",
                &[],
            ),
            depersonalised: registry.counter(
                "serenade_depersonalised_total",
                "Requests served in depersonalised (no-consent) mode.",
                &[],
            ),
            degraded: registry.counter(
                "serenade_deadline_degraded_total",
                "Requests degraded to the depersonalised fallback on deadline expiry.",
                &[],
            ),
            empty_responses: registry.counter(
                "serenade_empty_responses_total",
                "Requests that produced an empty recommendation list.",
                &[],
            ),
            errors: registry.counter(
                "serenade_errors_total",
                "Requests that failed with a serving error.",
                &[],
            ),
            busy_ns: registry.counter(
                "serenade_handler_busy_nanoseconds_total",
                "Cumulative busy time spent inside request handling.",
                &[],
            ),
            total: stage("total"),
            session: stage("session"),
            predict: stage("predict"),
            policy: stage("policy"),
        }
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
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;
    use crate::telemetry::scrape;
    use std::time::Duration;

    fn timings(session_us: u64, predict_us: u64, policy_us: u64) -> StageTimings {
        StageTimings {
            session: Duration::from_micros(session_us),
            predict: Duration::from_micros(predict_us),
            policy: Duration::from_micros(policy_us),
        }
    }

    /// `_count` and `_sum` (in microseconds) of one stage's histogram.
    fn stage(registry: &Registry, stage: &str) -> (f64, f64) {
        let m = scrape(registry);
        let h = m.histogram("serenade_request_duration_seconds", &[("stage", stage)]).unwrap();
        (h.count, (h.sum_seconds * 1e6).round())
    }

    #[test]
    fn counters_accumulate() {
        let registry = Registry::new();
        let s = ServingStats::new(&registry);
        s.record(timings(20, 70, 10), false, 21);
        s.record(timings(50, 200, 50), true, 0);
        let m = scrape(&registry);
        assert_eq!(m.value("serenade_requests_total", &[]), Some(2.0));
        assert_eq!(m.value("serenade_depersonalised_total", &[]), Some(1.0));
        assert_eq!(m.value("serenade_empty_responses_total", &[]), Some(1.0));
        assert_eq!(m.value("serenade_handler_busy_nanoseconds_total", &[]), Some(400_000.0));
        assert_eq!(stage(&registry, "total"), (2.0, 400.0));
    }

    #[test]
    fn per_stage_breakdowns_are_recorded() {
        let registry = Registry::new();
        let s = ServingStats::new(&registry);
        s.record(timings(10, 100, 1), false, 5);
        s.record(timings(30, 300, 3), false, 5);
        assert_eq!(stage(&registry, "session"), (2.0, 40.0));
        assert_eq!(stage(&registry, "predict"), (2.0, 400.0));
        assert_eq!(stage(&registry, "policy"), (2.0, 4.0));
        assert_eq!(stage(&registry, "total"), (2.0, 444.0));
    }

    #[test]
    fn degraded_requests_are_counted_and_exported() {
        let registry = Registry::new();
        let s = ServingStats::new(&registry);
        s.record_degraded();
        s.record_degraded();
        assert!(
            registry.render().contains("serenade_deadline_degraded_total 2"),
            "{}",
            registry.render()
        );
    }

    #[test]
    fn the_registry_renders_the_live_handles() {
        let registry = Registry::new();
        let s = ServingStats::new(&registry);
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
        let registry = Registry::new();
        let s = std::sync::Arc::new(ServingStats::new(&registry));
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
        assert_eq!(scrape(&registry).value("serenade_requests_total", &[]), Some(4_000.0));
        assert_eq!(stage(&registry, "total").0, 4_000.0);
        assert_eq!(stage(&registry, "predict").0, 4_000.0);
    }
}
