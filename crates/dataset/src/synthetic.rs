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
use rand::{Rng, RngCore, SeedableRng};
use serenade_core::sessions::{fill_parallel, run_parallel};
use serenade_core::{machine_threads, Click};

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

/// Cumulative-weight Zipf sampler over ranks `0..n`, with a guide table:
/// `guide[j]` is the first rank whose cumulative weight reaches the start of
/// the `j`-th of `n` equal slices of the total, so a draw walks the ranks of
/// its own slice instead of bisecting all `n`.
struct ZipfSampler {
    cumulative: Vec<f64>,
    guide: Vec<usize>,
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
        let mut guide = Vec::with_capacity(n);
        let mut rank = 0;
        for j in 0..n {
            let start = j as f64 * acc / n as f64;
            while rank < n - 1 && cumulative[rank] < start {
                rank += 1;
            }
            guide.push(rank);
        }
        Self { cumulative, guide }
    }

    /// Samples a rank in `0..n`; smaller ranks are more popular. The answer
    /// is the first rank whose cumulative weight is ≥ `u` (the last rank if
    /// none is), whatever rank the guide starts the search at.
    fn sample(&self, rng: &mut StdRng) -> usize {
        let c = &self.cumulative;
        let total = c[c.len() - 1];
        let u = rng.gen::<f64>() * total;
        let bucket = ((u / total * c.len() as f64) as usize).min(c.len() - 1);
        let mut rank = self.guide[bucket];
        while rank > 0 && c[rank - 1] >= u {
            rank -= 1;
        }
        while rank < c.len() - 1 && c[rank] < u {
            rank += 1;
        }
        rank
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

/// Seconds a day.
const DAY_SECS: u64 = 86_400;

/// Generates a deterministic synthetic click log for `config`, on
/// [`machine_threads`] threads (see [`generate_with_threads`]).
pub fn generate(config: &SyntheticConfig) -> Dataset {
    generate_with_threads(config, machine_threads())
}

/// Generates a deterministic synthetic click log for `config` on up to
/// `threads` threads; the log is the same for every `threads`.
///
/// Sessions are spread over the configured number of days with increasing
/// timestamps. Within a session, clicks are ~30 seconds apart. The returned
/// clicks are ordered by `(timestamp, session, item)`.
///
/// The draws are one xoshiro stream, session after session, so the stream
/// is first replayed on the caller's thread with nothing emitted — no Zipf
/// walk, no item lookup, no click written — which gives every day its
/// starting state and its first click. Then each thread generates a range
/// of days into its own part of the one output vector and sorts each day
/// in place with a stable counting sort by second of day: within a day,
/// generation order is ascending session id and a session's clicks lie at
/// least 21 s apart, so equal seconds hold distinct sessions in ascending
/// order and the sort yields the `(timestamp, session, item)` order. A
/// session that runs past midnight would break that, so if the replay
/// finds one, the log is sorted by comparison instead.
pub fn generate_with_threads(config: &SyntheticConfig, threads: usize) -> Dataset {
    assert!(config.num_sessions > 0 && config.num_items > 0 && config.days > 0);
    let model = Model::new(config);

    // The replay: each day's starting state, first session and first click.
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut days: Vec<(StdRng, usize, usize)> = Vec::with_capacity(config.days as usize);
    let (mut total, mut spills) = (0, false);
    for s in 0..config.num_sessions {
        let day = model.day(s);
        if days.len() as u64 == day {
            days.push((rng.clone(), s, total));
        }
        let (len, last) = model.session::<false>(s, &mut rng, |_| {});
        total += len;
        spills |= last >= (day + 1) * DAY_SECS;
    }
    let session_of = |day: usize| days.get(day).map_or(config.num_sessions, |d| d.1);
    let click_of = |day: usize| days.get(day).map_or(total, |d| d.2);

    // Ranges of days of about equal clicks, one a thread.
    let mut bounds: Vec<usize> = (0..threads.max(1))
        .map(|k| days.partition_point(|d| d.2 < k * total / threads.max(1)))
        .collect();
    bounds.push(days.len());
    bounds.dedup();
    let ranges: Vec<(usize, usize)> = bounds.windows(2).map(|w| (w[0], w[1])).collect();
    let parts = ranges.iter().map(|&(lo, hi)| ((lo, hi), click_of(hi) - click_of(lo)));
    let mut clicks = fill_parallel(parts.collect(), |(lo, hi), part| {
        let mut rng = days[lo].0.clone();
        for s in session_of(lo)..session_of(hi) {
            model.session::<true>(s, &mut rng, |click| part.push(click));
        }
    });

    if spills {
        sort_clicks(&mut clicks, threads);
    } else {
        // Each range's scratch — a count a second of day and a copy of its
        // largest day — allocated here, on the caller's thread.
        let (mut jobs, mut rest) = (Vec::with_capacity(ranges.len()), &mut clicks[..]);
        for &(lo, hi) in &ranges {
            let (range, tail) = std::mem::take(&mut rest).split_at_mut(click_of(hi) - click_of(lo));
            rest = tail;
            let largest = (lo..hi).map(|day| click_of(day + 1) - click_of(day)).max();
            let scratch = (vec![0u32; DAY_SECS as usize], Vec::with_capacity(largest.unwrap_or(0)));
            jobs.push((lo..hi, range, scratch));
        }
        run_parallel(jobs, |(days, mut range, (mut counts, mut copy))| {
            for day in days {
                let len = click_of(day + 1) - click_of(day);
                let (clicks, tail) = std::mem::take(&mut range).split_at_mut(len);
                sort_day(clicks, day as u64 * DAY_SECS, &mut counts, &mut copy);
                range = tail;
            }
        });
    }
    Dataset::new(config.name.clone(), clicks)
}

/// Sorts `clicks`, all of one day that starts at `midnight`, by second of
/// day, stably: a count a second, and the clicks copied out and scattered
/// back to where their second starts.
fn sort_day(clicks: &mut [Click], midnight: u64, counts: &mut [u32], copy: &mut Vec<Click>) {
    counts.fill(0);
    for c in clicks.iter() {
        counts[(c.timestamp - midnight) as usize] += 1;
    }
    let mut at = 0;
    for count in counts.iter_mut() {
        (*count, at) = (at, at + *count);
    }
    copy.clear();
    copy.extend_from_slice(clicks);
    for &c in copy.iter() {
        let to = &mut counts[(c.timestamp - midnight) as usize];
        clicks[*to as usize] = c;
        *to += 1;
    }
}

/// The generative model of a [`SyntheticConfig`]: what every session draws
/// from.
struct Model<'a> {
    config: &'a SyntheticConfig,
    zipf: ZipfSampler,
    /// Item id by popularity rank.
    items: Vec<u64>,
    sessions_per_day: usize,
    /// Ranks the popularity ranking rotates by a day.
    drift_ranks: usize,
}

impl<'a> Model<'a> {
    fn new(config: &'a SyntheticConfig) -> Self {
        let n = config.num_items;
        Self {
            config,
            zipf: ZipfSampler::new(n, config.zipf_exponent),
            items: (0..n).map(|rank| mix_rank(rank, n, config.seed ^ 0xA5A5_5A5A)).collect(),
            sessions_per_day: config.num_sessions.div_ceil(config.days as usize).max(1),
            drift_ranks: (config.drift_per_day * n as f64) as usize,
        }
    }

    /// The day session `s` starts on.
    fn day(&self, s: usize) -> u64 {
        ((s / self.sessions_per_day) as u64).min(self.config.days - 1)
    }

    /// A popularity rank drawn from `rng`: with `EMIT`, a Zipf sample;
    /// without, the same one draw, and no walk.
    #[inline]
    fn rank<const EMIT: bool>(&self, rng: &mut StdRng) -> usize {
        if EMIT {
            self.zipf.sample(rng)
        } else {
            rng.next_u64();
            0
        }
    }

    /// Draws session `s` from `rng`, every draw in order, and returns its
    /// click count and the timestamp of its last click. With `EMIT` its
    /// clicks go to `emit`; without, the Zipf walks, the item lookups and
    /// the clicks are skipped, and the stream is left where emitting would
    /// leave it.
    fn session<const EMIT: bool>(
        &self,
        s: usize,
        rng: &mut StdRng,
        mut emit: impl FnMut(Click),
    ) -> (usize, u64) {
        let config = self.config;
        let n = config.num_items;
        let day = self.day(s);
        // Uniform second-of-day offset, an hour short of midnight so that
        // most sessions end in their day (one that does not sends the log
        // to the comparison sort).
        let offset = rng.gen_range(0..DAY_SECS - 3_600);
        let start = day * DAY_SECS + offset;

        // Lognormal session length, clamped to [1, max].
        let z = sample_standard_normal(rng);
        let len = (config.length_log_mean + config.length_log_sigma * z).exp().round() as i64;
        let len = len.clamp(config.min_session_len.max(1) as i64, config.max_session_len as i64)
            as usize;

        // Popularity drift: today's rank r maps to base rank (r + day·drift).
        let drift = (day as usize).wrapping_mul(self.drift_ranks) % n;

        let mut anchor = self.rank::<EMIT>(rng);
        let mut last = start;
        for c in 0..len {
            let rank = if c == 0 || rng.gen::<f64>() >= config.coherence {
                // Fresh draw from the (drifted) popularity distribution.
                anchor = self.rank::<EMIT>(rng);
                anchor
            } else {
                // Stay in the topical neighbourhood: geometric step around
                // the anchor, occasionally re-anchoring on the visited item.
                let step = if EMIT {
                    sample_geometric(rng, config.locality)
                } else {
                    rng.next_u64();
                    0
                };
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
            let jitter = rng.gen_range(0..10);
            last = start + (c as u64) * 30 + jitter;
            if EMIT {
                emit(Click::new(s as u64 + 1, self.items[(rank + drift) % n], last));
            }
        }
        (len, last)
    }
}

/// Sorts `clicks` by `(timestamp, session, item)` on up to `threads`
/// threads: a slice is split at its median by that key, every click on the
/// side of the median it sorts to, and the two sides sort side by side, in
/// place. The key is the whole click, so equal keys are equal clicks and
/// the bytes are those of one sort on one thread (`generator_pinned.rs`).
fn sort_clicks(clicks: &mut [Click], threads: usize) {
    let key = |c: &Click| (c.timestamp, c.session_id, c.item_id);
    if threads < 2 || clicks.len() < 2 {
        clicks.sort_unstable_by_key(key);
        return;
    }
    let median = clicks.len() / 2;
    clicks.select_nth_unstable_by_key(median, key);
    let (low, high) = clicks.split_at_mut(median);
    run_parallel(vec![(low, threads / 2), (high, threads - threads / 2)], |(side, threads)| {
        sort_clicks(side, threads)
    });
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
