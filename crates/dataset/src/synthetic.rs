//! Synthetic e-commerce clickstream generator.
//!
//! Substitutes the paper's proprietary bol.com datasets (and, in offline
//! environments, the public downloads). The generative model is designed so
//! that the *phenomena the paper's experiments depend on* are present:
//!
//! * **Session-length distribution** — lognormal, calibrated per dataset to
//!   the Table 1 percentiles (median < 5 clicks, long tail: p99 ≈ 19 clicks
//!   for the public sets, ≈ 38 for the bol.com sets).
//! * **Item popularity** — Zipf-distributed: a few blockbusters, a long tail
//!   of rare items. This is what makes idf weighting and index truncation
//!   matter.
//! * **Within-session coherence** — consecutive clicks stay in a topical
//!   neighbourhood (a random walk over nearby item ranks). This creates the
//!   co-occurrence structure that nearest-neighbour methods exploit; without
//!   it no recommender could beat popularity.
//! * **Popularity drift** — the item popularity ranking rotates slowly from
//!   day to day, so *recent* sessions are more predictive than old ones —
//!   the property that motivates VMIS-kNN's recency-based sampling.
//!
//! Item ids are popularity ranks passed through a fixed mixing permutation,
//! so that neighbouring ids carry no accidental meaning for consumers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serenade_core::Click;

use crate::Dataset;

/// Parameters of the synthetic clickstream generator.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// Dataset name (used in reports).
    pub name: String,
    /// Number of sessions to generate.
    pub num_sessions: usize,
    /// Catalogue size.
    pub num_items: usize,
    /// Number of calendar days the log spans.
    pub days: u64,
    /// Mean of `ln(session length)`.
    pub length_log_mean: f64,
    /// Standard deviation of `ln(session length)`.
    pub length_log_sigma: f64,
    /// Hard cap on session length.
    pub max_session_len: usize,
    /// Lower bound on session length (Table 1 has p25 = 2 everywhere:
    /// single-click visits are filtered out upstream).
    pub min_session_len: usize,
    /// Zipf popularity exponent (≈ 1.0 for web traffic).
    pub zipf_exponent: f64,
    /// Probability that the next click stays in the current topical
    /// neighbourhood instead of jumping to a fresh popular item.
    pub coherence: f64,
    /// Scale (in popularity ranks) of the topical neighbourhood.
    pub locality: usize,
    /// Fraction of the catalogue the popularity ranking rotates per day.
    pub drift_per_day: f64,
    /// RNG seed — generation is fully deterministic given the config.
    pub seed: u64,
}

impl SyntheticConfig {
    /// Scales the dataset volume (sessions and catalogue) by `factor`,
    /// keeping the distributional shape. Useful to shrink the paper's
    /// 60m/90m/180m-click datasets to laptop size while preserving the
    /// relative proportions between them.
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        self.num_sessions = ((self.num_sessions as f64 * factor).round() as usize).max(10);
        self.num_items = ((self.num_items as f64 * factor).round() as usize).max(10);
        self
    }

    /// With a different seed (e.g. for the five `ecom-1m` samples of §5.1.1).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn base(
        name: &str,
        num_sessions: usize,
        num_items: usize,
        days: u64,
        log_mean: f64,
        log_sigma: f64,
        max_len: usize,
    ) -> Self {
        Self {
            name: name.to_string(),
            num_sessions,
            num_items,
            days,
            length_log_mean: log_mean,
            length_log_sigma: log_sigma,
            max_session_len: max_len,
            min_session_len: 2,
            zipf_exponent: 1.05,
            coherence: 0.8,
            locality: 4,
            drift_per_day: 0.004,
            seed: 42,
        }
    }

    /// Analogue of `retailrocket` (Table 1: 87k clicks, 23k sessions, 21k
    /// items, 10 days, short sessions: p50 = 2, p99 = 19).
    pub fn retailrocket() -> Self {
        Self::base("retailrocket", 23_000, 21_000, 10, 2f64.ln(), 0.97, 80)
    }

    /// Analogue of `rsc15` (31.7M clicks, 8.0M sessions, 37k items, 181
    /// days; p50 = 3, p99 = 19). Defaults to 1/100 scale; pass a different
    /// factor to [`SyntheticConfig::scaled`] as needed.
    pub fn rsc15() -> Self {
        Self::base("rsc15", 80_000, 37_000, 181, 3f64.ln(), 0.79, 80)
    }

    /// Analogue of the proprietary `ecom-1m` (1.15M clicks, 214k sessions,
    /// 111k items, 30 days; p50 = 4, p99 = 28).
    pub fn ecom_1m() -> Self {
        Self::base("ecom-1m", 214_000, 111_000, 30, 4f64.ln(), 0.84, 150)
    }

    /// Analogue of `ecom-60m` (67M clicks, 10.7M sessions, 1.76M items, 29
    /// days; p99 = 36). Defaults to 1/50 scale.
    pub fn ecom_60m() -> Self {
        Self::base("ecom-60m", 214_000, 35_000, 29, 4f64.ln(), 0.94, 200)
    }

    /// Analogue of `ecom-90m` (90M clicks, 13.8M sessions, 2.26M items, 91
    /// days; p99 = 38). Defaults to 1/50 scale.
    pub fn ecom_90m() -> Self {
        Self::base("ecom-90m", 276_000, 45_000, 91, 4f64.ln(), 0.97, 200)
    }

    /// Analogue of `ecom-180m` (189M clicks, 28.8M sessions, 3.31M items, 91
    /// days; p99 = 39). Defaults to 1/50 scale.
    pub fn ecom_180m() -> Self {
        Self::base("ecom-180m", 576_000, 66_000, 91, 4f64.ln(), 0.98, 200)
    }

    /// A tiny dataset for unit tests and quickstart examples.
    pub fn tiny() -> Self {
        Self::base("tiny", 2_000, 500, 7, 4f64.ln(), 0.9, 50)
    }
}

/// Cumulative-weight Zipf sampler over ranks `0..n`.
struct ZipfSampler {
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0);
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(exponent);
            cumulative.push(acc);
        }
        Self { cumulative }
    }

    /// Samples a rank in `0..n`; smaller ranks are more popular.
    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let u = rng.gen::<f64>() * total;
        self.cumulative.partition_point(|&c| c < u).min(self.cumulative.len() - 1)
    }
}

/// Feistel-style mixing of a rank into an item id, so consumers cannot
/// exploit `rank ≈ id` accidentally. Deterministic and injective on `0..n`
/// via cycle-walking.
fn mix_rank(rank: usize, n: usize, seed: u64) -> u64 {
    debug_assert!(rank < n);
    // Power-of-two Feistel over 2^bits >= n, walk cycles until inside range.
    let bits = usize::BITS - (n - 1).leading_zeros().max(1);
    let half = bits.div_ceil(2);
    let mask = (1u64 << half) - 1;
    let mut x = rank as u64;
    loop {
        let (mut l, mut r) = (x >> half, x & mask);
        for round in 0..3u64 {
            let f = (r.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed.wrapping_add(round))
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let nl = r;
            r = (l ^ (f & mask)) & mask;
            l = nl;
        }
        x = (l << half) | r;
        if (x as usize) < n {
            return x;
        }
    }
}

/// Approximate standard-normal sample via the Box–Muller transform.
fn sample_standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Generates a deterministic synthetic click log for `config`.
///
/// Sessions are spread over the configured number of days with increasing
/// timestamps. Within a session, clicks are ~30 seconds apart. The returned
/// clicks are ordered by timestamp.
pub fn generate(config: &SyntheticConfig) -> Dataset {
    assert!(config.num_sessions > 0 && config.num_items > 0 && config.days > 0);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let zipf = ZipfSampler::new(config.num_items, config.zipf_exponent);
    let n = config.num_items;
    let day_secs = 86_400u64;
    let sessions_per_day = config.num_sessions.div_ceil(config.days as usize).max(1);
    let drift_ranks = (config.drift_per_day * n as f64) as usize;

    let mut clicks = Vec::with_capacity(
        (config.num_sessions as f64 * config.length_log_mean.exp() * 1.3) as usize,
    );

    for s in 0..config.num_sessions {
        let day = (s / sessions_per_day) as u64;
        let day = day.min(config.days - 1);
        // Uniform second-of-day offset; capped so the session stays in-day.
        let offset = rng.gen_range(0..day_secs - 3_600);
        let start = day * day_secs + offset;

        // Lognormal session length, clamped to [1, max].
        let z = sample_standard_normal(&mut rng);
        let len = (config.length_log_mean + config.length_log_sigma * z).exp().round() as i64;
        let len = len.clamp(config.min_session_len.max(1) as i64, config.max_session_len as i64)
            as usize;

        // Popularity drift: today's rank r maps to base rank (r + day·drift).
        let drift = (day as usize).wrapping_mul(drift_ranks) % n;

        let mut anchor = zipf.sample(&mut rng);
        let session_id = s as u64 + 1;
        for c in 0..len {
            let rank = if c == 0 || rng.gen::<f64>() >= config.coherence {
                // Fresh draw from the (drifted) popularity distribution.
                anchor = zipf.sample(&mut rng);
                anchor
            } else {
                // Stay in the topical neighbourhood: geometric step around
                // the anchor, occasionally re-anchoring on the visited item.
                let step = sample_geometric(&mut rng, config.locality);
                let sign: bool = rng.gen();
                let next = if sign {
                    (anchor + step) % n
                } else {
                    (anchor + n - (step % n)) % n
                };
                if rng.gen::<f64>() < 0.25 {
                    anchor = next;
                }
                next
            };
            let drifted = (rank + drift) % n;
            let item = mix_rank(drifted, n, config.seed ^ 0xA5A5_5A5A);
            let jitter = rng.gen_range(0..10);
            clicks.push(Click::new(session_id, item, start + (c as u64) * 30 + jitter));
        }
    }
    clicks.sort_unstable_by_key(|c| (c.timestamp, c.session_id, c.item_id));
    Dataset::new(config.name.clone(), clicks)
}

/// Geometric step with mean ≈ `scale`, at least 1.
fn sample_geometric(rng: &mut StdRng, scale: usize) -> usize {
    let p = 1.0 / scale.max(1) as f64;
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    ((u.ln() / (1.0 - p).max(f64::EPSILON).ln()).ceil() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DatasetStats;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SyntheticConfig::tiny();
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.clicks, b.clicks);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&SyntheticConfig::tiny());
        let b = generate(&SyntheticConfig::tiny().with_seed(7));
        assert_ne!(a.clicks, b.clicks);
    }

    #[test]
    fn respects_catalogue_and_session_counts() {
        let cfg = SyntheticConfig::tiny();
        let d = generate(&cfg);
        let stats = DatasetStats::from_clicks("t", &d.clicks);
        assert_eq!(stats.sessions, cfg.num_sessions);
        assert!(stats.items <= cfg.num_items);
        assert!(stats.days <= cfg.days);
        assert!(d.clicks.iter().all(|c| c.session_id >= 1));
    }

    #[test]
    fn session_length_percentiles_are_calibrated() {
        // The ecom-style config must land near Table 1: p50 ≈ 4, p75 ≈ 7.
        let cfg = SyntheticConfig::ecom_1m().scaled(0.05);
        let stats = generate(&cfg).stats();
        assert!(
            (3.0..=5.0).contains(&stats.clicks_per_session_p50),
            "p50 = {}",
            stats.clicks_per_session_p50
        );
        assert!(
            (5.0..=9.0).contains(&stats.clicks_per_session_p75),
            "p75 = {}",
            stats.clicks_per_session_p75
        );
        assert!(
            stats.clicks_per_session_p99 >= 15.0,
            "p99 = {}",
            stats.clicks_per_session_p99
        );
    }

    #[test]
    fn popularity_is_skewed() {
        let d = generate(&SyntheticConfig::tiny());
        let mut counts: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for c in &d.clicks {
            *counts.entry(c.item_id).or_default() += 1;
        }
        let mut freqs: Vec<usize> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = freqs.iter().sum();
        let top10: usize = freqs.iter().take(freqs.len() / 10).sum();
        assert!(
            top10 as f64 > 0.3 * total as f64,
            "top-10% items should own >30% of clicks, got {:.2}%",
            100.0 * top10 as f64 / total as f64
        );
    }

    #[test]
    fn clicks_are_time_ordered() {
        let d = generate(&SyntheticConfig::tiny());
        assert!(d.clicks.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
    }

    #[test]
    fn mix_rank_is_injective() {
        let n = 1000;
        let mut seen = std::collections::HashSet::new();
        for r in 0..n {
            let id = mix_rank(r, n, 99);
            assert!((id as usize) < n);
            assert!(seen.insert(id), "collision at rank {r}");
        }
    }

    #[test]
    fn scaled_shrinks_volume() {
        let cfg = SyntheticConfig::ecom_1m().scaled(0.01);
        assert_eq!(cfg.num_sessions, 2_140);
        assert_eq!(cfg.num_items, 1_110);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn scaled_rejects_zero() {
        let _ = SyntheticConfig::tiny().scaled(0.0);
    }

    #[test]
    fn zipf_sampler_prefers_low_ranks() {
        let z = ZipfSampler::new(100, 1.2);
        let mut rng = StdRng::seed_from_u64(1);
        let mut low = 0;
        for _ in 0..10_000 {
            if z.sample(&mut rng) < 10 {
                low += 1;
            }
        }
        // Top-10 ranks should receive well over a third of draws at s=1.2.
        assert!(low > 3_500, "low-rank draws: {low}");
    }
}
