//! Latency recording and percentile summaries.
//!
//! The paper reports per-request prediction latencies as medians and high
//! percentiles (p75 / p90 / p99.5 in Figures 3a–3c). This module provides a
//! simple exact recorder (sorts on summary) — sample counts in our
//! experiments are small enough that a sketch is unnecessary. Production
//! serving uses the `serenade-telemetry` log-linear histogram instead.

use std::time::Duration;

pub use serenade_telemetry::LatencySummary;

/// Collects individual latency observations in microseconds; every
/// observation is retained and `summary()` sorts and reads percentiles
/// directly.
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    samples_us: Vec<u64>,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a recorder preallocated for `n` samples.
    pub fn with_capacity(n: usize) -> Self {
        Self { samples_us: Vec::with_capacity(n) }
    }

    /// Records one observation.
    pub fn record(&mut self, latency: Duration) {
        self.record_us(latency.as_micros() as u64);
    }

    /// Records one observation given in microseconds.
    pub fn record_us(&mut self, micros: u64) {
        self.samples_us.push(micros);
    }

    /// Number of observations recorded.
    pub fn len(&self) -> usize {
        self.samples_us.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples_us.is_empty()
    }

    /// Merges another recorder's samples into this one.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.samples_us.extend_from_slice(&other.samples_us);
    }

    /// Computes the summary; `None` if no samples were recorded.
    pub fn summary(&self) -> Option<LatencySummary> {
        if self.samples_us.is_empty() {
            return None;
        }
        let mut sorted = self.samples_us.clone();
        sorted.sort_unstable();
        let pct = |q: f64| -> u64 {
            let rank = (q * (sorted.len() - 1) as f64).round() as usize;
            sorted[rank]
        };
        let sum_us: u128 = sorted.iter().map(|&us| us as u128).sum();
        Some(LatencySummary {
            count: sorted.len(),
            mean_us: (sum_us / sorted.len() as u128) as u64,
            min_us: sorted[0],
            p50_us: pct(0.50),
            p75_us: pct(0.75),
            p90_us: pct(0.90),
            p99_us: pct(0.99),
            p995_us: pct(0.995),
            max_us: sorted[sorted.len() - 1],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_recorder_has_no_summary() {
        assert!(LatencyRecorder::new().summary().is_none());
        assert!(LatencyRecorder::new().is_empty());
    }

    #[test]
    fn summary_of_uniform_ramp() {
        let mut r = LatencyRecorder::with_capacity(1000);
        for us in 1..=1000u64 {
            r.record_us(us);
        }
        let s = r.summary().unwrap();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min_us, 1);
        assert_eq!(s.max_us, 1000);
        assert!((s.p50_us as i64 - 500).abs() <= 1, "p50 = {}", s.p50_us);
        assert!((s.p90_us as i64 - 900).abs() <= 1, "p90 = {}", s.p90_us);
        assert!((s.p995_us as i64 - 995).abs() <= 1);
        assert_eq!(s.mean_us, 500);
    }

    #[test]
    fn record_duration() {
        let mut r = LatencyRecorder::new();
        r.record(Duration::from_micros(42));
        assert_eq!(r.summary().unwrap().p50_us, 42);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = LatencyRecorder::new();
        let mut b = LatencyRecorder::new();
        a.record_us(1);
        b.record_us(3);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.summary().unwrap().max_us, 3);
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut r = LatencyRecorder::new();
        for us in [9u64, 2, 88, 31, 5, 77, 41, 3, 250, 6] {
            r.record_us(us);
        }
        let s = r.summary().unwrap();
        assert!(s.min_us <= s.p50_us);
        assert!(s.p50_us <= s.p75_us);
        assert!(s.p75_us <= s.p90_us);
        assert!(s.p90_us <= s.p99_us);
        assert!(s.p99_us <= s.p995_us);
        assert!(s.p995_us <= s.max_us);
    }

    #[test]
    fn display_contains_key_percentiles() {
        let mut r = LatencyRecorder::new();
        r.record_us(10);
        let text = r.summary().unwrap().to_string();
        assert!(text.contains("p90="));
        assert!(text.contains("p99.5="));
    }
}
