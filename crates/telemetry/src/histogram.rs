//! Bounded log-linear latency histograms (HDR-style).
//!
//! The serving path needs latency percentiles that stay cheap forever: the
//! paper's Figure 3(b)/3(c) claims are 21-day, >1,000 rps operational
//! numbers, and a recorder that stores every raw sample grows without bound
//! under exactly that traffic. This histogram stores **counts per bucket**
//! instead: each power-of-two octave of the value range is subdivided into
//! `2^SUB_BITS = 32` linear sub-buckets, so memory is fixed
//! (`O(buckets × shards)`, independent of the number of observations) and
//! the relative error of any reported quantile is bounded by half a bucket
//! width — at most `2^-6 ≈ 1.6%`, documented as [`REL_ERROR_BOUND`] = 2%.
//! Values below `2^(SUB_BITS+1) = 64` are recorded exactly.
//!
//! Recording is wait-free and allocation-free: one relaxed `fetch_add` on
//! the bucket counter plus relaxed sum/min/max updates, on a per-worker
//! **shard** chosen thread-locally so concurrent recorders do not bounce a
//! shared cache line. Snapshots merge the shards; because every mutation is
//! an atomic read-modify-write, the merge is lossless — a property the loom
//! model in `tests/loom_telemetry.rs` checks over all interleavings.

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::shard_slot;

/// Linear sub-buckets per power-of-two octave, as a bit count.
const SUB_BITS: u32 = 5;

/// Sub-buckets per octave.
const SUB: u64 = 1 << SUB_BITS;

/// Documented bound on the relative error of quantile estimates: bucket
/// midpoints are within `2^-(SUB_BITS+1)` of any value in the bucket, i.e.
/// ~1.6%; we document (and property-test against) 2%.
pub const REL_ERROR_BOUND: f64 = 0.02;

/// Bucket index of `value` (values must already be clamped by the caller).
#[inline]
fn bucket_index(value: u64) -> usize {
    if value < SUB {
        value as usize
    } else {
        // `value >= 32` has at most 58 leading zeros, so `octave >= 5`.
        let octave = 63 - value.leading_zeros();
        let sub = ((value >> (octave - SUB_BITS)) & (SUB - 1)) as usize;
        ((((octave - SUB_BITS) as usize) + 1) << SUB_BITS) + sub
    }
}

/// Inclusive lower bound of bucket `index`.
#[inline]
fn bucket_lower(index: usize) -> u64 {
    let block = (index >> SUB_BITS) as u32;
    let sub = (index as u64) & (SUB - 1);
    if block == 0 {
        sub
    } else {
        let octave = block - 1 + SUB_BITS;
        (1u64 << octave) + (sub << (octave - SUB_BITS))
    }
}

/// Exclusive upper bound of bucket `index`.
#[inline]
fn bucket_upper(index: usize) -> u64 {
    let block = (index >> SUB_BITS) as u32;
    if block == 0 {
        bucket_lower(index) + 1
    } else {
        bucket_lower(index) + (1u64 << (block - 1))
    }
}

/// Midpoint of bucket `index` — the value quantile estimates report.
#[inline]
fn bucket_mid(index: usize) -> u64 {
    let lower = bucket_lower(index);
    lower + (bucket_upper(index) - lower) / 2
}

/// Largest representable value in microseconds; larger observations are
/// clamped into the top bucket. One hour: far beyond any serving latency,
/// and the bucket table stays under 1,000 entries (~7.5 KiB per shard). The
/// model-checked build shrinks the range so a schedule's step budget is
/// spent on interleavings, not bucket loads.
const MAX_VALUE_US: u64 = if cfg!(feature = "loom") { 63 } else { 3_600_000_000 };

/// Histogram configuration.
#[derive(Debug, Clone, Copy)]
pub struct HistogramConfig {
    /// Per-worker shards (rounded up to at least 1). More shards, less
    /// record-path cache-line sharing, proportionally more snapshot work.
    pub shards: usize,
}

impl Default for HistogramConfig {
    fn default() -> Self {
        Self { shards: if cfg!(feature = "loom") { 2 } else { 8 } }
    }
}

/// One shard: a bucket-count table plus sum/min/max, padded so two shards
/// never share a cache line.
#[repr(align(128))]
struct Shard {
    buckets: Box<[AtomicU64]>,
    sum_us: AtomicU64,
    min_us: AtomicU64,
    max_us: AtomicU64,
}

impl Shard {
    fn new(buckets: usize) -> Self {
        Self {
            buckets: (0..buckets).map(|_| AtomicU64::new(0)).collect(),
            sum_us: AtomicU64::new(0),
            min_us: AtomicU64::new(u64::MAX),
            max_us: AtomicU64::new(0),
        }
    }
}

/// A sharded, fixed-memory, mergeable log-linear histogram over `u64`
/// microsecond values. See the module docs for the design.
pub struct Histogram {
    shards: Box<[Shard]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new(HistogramConfig::default())
    }
}

impl Histogram {
    /// Creates an empty histogram per `config`.
    pub fn new(config: HistogramConfig) -> Self {
        let buckets = bucket_index(MAX_VALUE_US) + 1;
        Self { shards: (0..config.shards.max(1)).map(|_| Shard::new(buckets)).collect() }
    }

    /// Records one observation in microseconds. Wait-free: four relaxed
    /// atomic RMWs on this worker's shard, no lock, no allocation.
    #[inline]
    pub fn record_us(&self, value_us: u64) {
        self.record_into(shard_slot(self.shards.len()), value_us);
    }

    /// Records one observation given as a [`std::time::Duration`].
    #[inline]
    pub fn record(&self, value: std::time::Duration) {
        self.record_us(value.as_micros() as u64);
    }

    /// Records one observation into shard `shard` (in range).
    #[inline]
    fn record_into(&self, shard: usize, value_us: u64) {
        let v = value_us.min(MAX_VALUE_US);
        let shard = &self.shards[shard];
        // ORDERING: statistical counters with no partner; `snapshot` merges
        // racy per-shard reads and tolerates torn cross-field views (a
        // count/sum skew of a few in-flight observations).
        shard.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        shard.sum_us.fetch_add(v, Ordering::Relaxed); // ORDERING: see buckets above
        shard.min_us.fetch_min(v, Ordering::Relaxed); // ORDERING: see buckets above
        shard.max_us.fetch_max(v, Ordering::Relaxed); // ORDERING: see buckets above
    }

    /// Number of buckets per shard (memory is `buckets × shards × 8` bytes
    /// plus three words per shard, independent of the observation count).
    fn buckets(&self) -> usize {
        self.shards[0].buckets.len()
    }

    /// Merges all shards into a point-in-time [`HistogramSnapshot`].
    ///
    /// Taken concurrently with recorders, the snapshot is a consistent
    /// *subset*: every counted observation was recorded, none is counted
    /// twice. After the recording threads are joined the snapshot is exact.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self.shards[0].buckets.len();
        let mut counts = vec![0u64; buckets].into_boxed_slice();
        let mut sum = 0u64;
        let mut min = u64::MAX;
        let mut max = 0u64;
        for shard in self.shards.iter() {
            for (i, c) in shard.buckets.iter().enumerate() {
                // ORDERING: racy statistical read (partner: none); the
                // snapshot is advisory and tolerates in-flight updates.
                counts[i] += c.load(Ordering::Relaxed);
            }
            sum = sum.wrapping_add(shard.sum_us.load(Ordering::Relaxed)); // ORDERING: racy statistical read, partner: none
            min = min.min(shard.min_us.load(Ordering::Relaxed)); // ORDERING: racy statistical read, partner: none
            max = max.max(shard.max_us.load(Ordering::Relaxed)); // ORDERING: racy statistical read, partner: none
        }
        let count: u64 = counts.iter().sum();
        HistogramSnapshot { counts, count, sum_us: sum, min_us: min, max_us: max }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("shards", &self.shards.len())
            .field("buckets", &self.buckets())
            .finish()
    }
}

/// A merged point-in-time view of a [`Histogram`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    counts: Box<[u64]>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values in microseconds (wrapping beyond `u64`).
    pub sum_us: u64,
    /// Exact smallest observation (`u64::MAX` when empty).
    pub min_us: u64,
    /// Exact largest observation (0 when empty).
    pub max_us: u64,
}

impl HistogramSnapshot {
    /// Quantile estimate in microseconds, within [`REL_ERROR_BOUND`] of the
    /// exact order statistic (clamped to the observed `[min, max]` range).
    /// Uses the same rank convention as `serenade-metrics`'
    /// `LatencyRecorder`: the order statistic at `round(q × (n − 1))`.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return bucket_mid(i).clamp(self.min_us, self.max_us);
            }
        }
        self.max_us
    }

    /// Non-empty buckets as `(lower_us, upper_us, cumulative_count)` in
    /// ascending value order — the exposition renderer's input. Cumulative
    /// counts only change at these upper bounds, so a scraper interpolating
    /// between rendered bounds reconstructs the distribution exactly at
    /// bucket granularity.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64, u64)> {
        let mut out = Vec::new();
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                cumulative += c;
                out.push((bucket_lower(i), bucket_upper(i), cumulative));
            }
        }
        out
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..64u64 {
            let i = bucket_index(v);
            assert_eq!(bucket_lower(i), v, "value {v}");
            assert_eq!(bucket_upper(i), v + 1);
            assert_eq!(bucket_mid(i), v);
        }
    }

    #[test]
    fn bucket_bounds_are_contiguous_and_contain_their_values() {
        let mut prev_upper = 0;
        for i in 0..bucket_index(1 << 40) {
            let (lo, hi) = (bucket_lower(i), bucket_upper(i));
            assert_eq!(lo, prev_upper, "bucket {i} not contiguous");
            assert!(lo < hi);
            prev_upper = hi;
            // Round-trip: every bound maps back into its own bucket.
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi - 1), i);
        }
    }

    #[test]
    fn midpoint_relative_error_is_bounded() {
        let mut v = 1u64;
        while v < 1 << 40 {
            for probe in [v, v + v / 3, v + v / 2] {
                let mid = bucket_mid(bucket_index(probe));
                let err = (mid as f64 - probe as f64).abs() / probe as f64;
                assert!(
                    err <= REL_ERROR_BOUND,
                    "value {probe}: midpoint {mid} err {err:.4}"
                );
            }
            v *= 2;
        }
    }

    #[test]
    fn snapshot_counts_and_extremes_are_exact() {
        let h = Histogram::new(HistogramConfig { shards: 4 });
        for (i, v) in [3u64, 100, 7_500, 100, 1_000_000].into_iter().enumerate() {
            h.record_into(i % 4, v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.min_us, 3);
        assert_eq!(s.max_us, 1_000_000);
        assert_eq!(s.sum_us, 3 + 100 + 7_500 + 100 + 1_000_000);
    }

    #[test]
    fn values_above_the_clamp_land_in_the_top_bucket() {
        let h = Histogram::new(HistogramConfig { shards: 1 });
        h.record_us(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert!(s.max_us <= MAX_VALUE_US);
        assert!(s.quantile_us(1.0) <= MAX_VALUE_US);
    }

    #[test]
    fn quantiles_track_a_uniform_ramp() {
        let h = Histogram::default();
        for v in 1..=10_000u64 {
            h.record_us(v);
        }
        let s = h.snapshot();
        for (q, exact) in [(0.5, 5_000.0), (0.9, 9_000.0), (0.995, 9_950.0)] {
            let est = s.quantile_us(q) as f64;
            assert!(
                (est - exact).abs() <= exact * REL_ERROR_BOUND + 1.0,
                "q={q}: est {est} exact {exact}"
            );
        }
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_total() {
        let h = Histogram::default();
        for v in [5u64, 5, 70, 70, 70, 9_000] {
            h.record_us(v);
        }
        let s = h.snapshot();
        let buckets = s.cumulative_buckets();
        assert_eq!(buckets.len(), 3);
        let mut prev = 0;
        for &(lo, hi, c) in &buckets {
            assert!(lo < hi);
            assert!(c >= prev);
            prev = c;
        }
        assert_eq!(prev, s.count);
    }

    #[test]
    fn empty_snapshot_is_well_behaved() {
        let s = Histogram::default().snapshot();
        assert_eq!((s.count, s.sum_us), (0, 0));
        assert_eq!(s.quantile_us(0.9), 0);
        assert!(s.cumulative_buckets().is_empty());
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let h = std::sync::Arc::new(Histogram::default());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record_us(t * 1_000 + i % 997);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 40_000);
    }
}
