//! Property tests for the bounded log-linear histogram.
//!
//! Two claims the serving stack relies on are checked against randomly
//! generated workloads:
//!
//! 1. **Bounded error** — every quantile the histogram reports is within
//!    the documented relative-error bound of the *exact* order statistic,
//!    as computed by `serenade-metrics`' raw-sample `LatencyRecorder`
//!    (which shares the histogram's rank convention).
//! 2. **Merge fidelity** — recording from several threads, each on its own
//!    shard, and merging at snapshot time yields byte-for-byte the
//!    distribution a single shard records: sharding is an implementation
//!    detail, never a semantic one.

#![cfg(not(feature = "loom"))]

use proptest::collection::vec;
use proptest::prelude::*;
use serenade_metrics::LatencyRecorder;
use serenade_telemetry::{Histogram, HistogramConfig, REL_ERROR_BOUND};

/// Exact quantile via the raw-sample recorder's rank convention.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank]
}

proptest! {
    #[test]
    fn quantiles_stay_within_documented_bound_of_exact(
        samples in vec(0u64..20_000_000, 1..300),
    ) {
        let histogram = Histogram::default();
        let mut exact = LatencyRecorder::with_capacity(samples.len());
        for &v in &samples {
            histogram.record_us(v);
            exact.record_us(v);
        }
        let snap = histogram.snapshot();
        let summary = exact.summary().ok_or("no samples")?;
        prop_assert_eq!(snap.count as usize, summary.count);
        prop_assert_eq!(snap.min_us, summary.min_us);
        prop_assert_eq!(snap.max_us, summary.max_us);

        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 0.995, 1.0] {
            let est = snap.quantile_us(q);
            let exact = exact_quantile(&sorted, q);
            let tolerance = (exact as f64 * REL_ERROR_BOUND).ceil() as u64 + 1;
            prop_assert!(
                est.abs_diff(exact) <= tolerance,
                "q={}: estimate {} vs exact {} (tolerance {})",
                q, est, exact, tolerance
            );
        }

        // The recorder's named percentiles agree the same way.
        for (q, exact) in [
            (0.50, summary.p50_us),
            (0.75, summary.p75_us),
            (0.90, summary.p90_us),
            (0.995, summary.p995_us),
        ] {
            let est = snap.quantile_us(q);
            let tolerance = (exact as f64 * REL_ERROR_BOUND).ceil() as u64 + 1;
            prop_assert!(est.abs_diff(exact) <= tolerance);
        }
    }

    #[test]
    fn merged_shards_equal_single_shard_recording(
        samples in vec(0u64..20_000_000, 1..300),
    ) {
        // Each recording thread draws the next round-robin shard slot, so
        // the snapshot merges up to four shards' worth of the samples.
        let sharded = Histogram::new(HistogramConfig { shards: 4 });
        let single = Histogram::new(HistogramConfig { shards: 1 });
        std::thread::scope(|s| {
            for part in samples.chunks(samples.len().div_ceil(4)) {
                let sharded = &sharded;
                s.spawn(move || part.iter().for_each(|&v| sharded.record_us(v)));
            }
        });
        for &v in &samples {
            single.record_us(v);
        }
        let merged = sharded.snapshot();
        let reference = single.snapshot();
        prop_assert_eq!(merged.count, reference.count);
        prop_assert_eq!(merged.sum_us, reference.sum_us);
        prop_assert_eq!(merged.min_us, reference.min_us);
        prop_assert_eq!(merged.max_us, reference.max_us);
        prop_assert_eq!(merged.cumulative_buckets(), reference.cumulative_buckets());
        for q in [0.0, 0.5, 0.9, 0.995, 1.0] {
            prop_assert_eq!(merged.quantile_us(q), reference.quantile_us(q));
        }
    }
}
