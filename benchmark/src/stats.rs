//! Percentile, window and spread arithmetic.

/// Length of one latency window. A reported percentile is the median, over
/// the windows of a phase, of each window's own percentile: one stall moves
/// one window, not the reported figure.
pub const WINDOW_NS: u64 = 1_000_000_000;

/// Nearest-rank percentile of an ascending slice: the smallest value with at
/// least `q` of the samples at or below it. `q` in `(0, 1]`.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unordered values (mean of the two middle values when even).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// `(max − min) / median`: the five-run spread of `REPEATABILITY.md`.
pub fn range_spread(values: &[f64]) -> Option<f64> {
    let m = median(values)?;
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (m != 0.0).then(|| (max - min) / m)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the "exclusive" method); needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let pos = (i + 1) * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        *slot = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    Some(out)
}

/// `(Q3 − Q1) / median`: the spread the benchmark contract is checked with.
pub fn iqr_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2)
}

/// Latency percentiles of one phase, in microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    /// p99 over every sample of the phase at once (diagnostic).
    pub p99_all_us: f64,
    pub samples: usize,
    pub windows: usize,
}

/// Summarises `(offset into the phase, latency)` samples, both in
/// nanoseconds. Only whole windows within `phase_ns` count.
pub fn summarize(samples: &[(u64, u64)], phase_ns: u64) -> Option<LatencySummary> {
    let windows = ((phase_ns / WINDOW_NS) as usize).max(1);
    let mut per_window: Vec<Vec<u64>> = vec![Vec::new(); windows];
    for &(offset, latency) in samples {
        if let Some(w) = per_window.get_mut((offset / WINDOW_NS) as usize) {
            w.push(latency);
        }
    }
    let mut all: Vec<u64> = Vec::with_capacity(samples.len());
    let mut p = [Vec::new(), Vec::new(), Vec::new()];
    for w in &mut per_window {
        if w.is_empty() {
            continue;
        }
        w.sort_unstable();
        for (slot, q) in p.iter_mut().zip([0.50, 0.90, 0.99]) {
            slot.push(percentile(w, q)? as f64 / 1e3);
        }
        all.extend_from_slice(w);
    }
    all.sort_unstable();
    Some(LatencySummary {
        p50_us: median(&p[0])?,
        p90_us: median(&p[1])?,
        p99_us: median(&p[2])?,
        p99_all_us: percentile(&all, 0.99)? as f64 / 1e3,
        samples: all.len(),
        windows: p[0].len(),
    })
}

/// Median of durations given in nanoseconds, in microseconds.
pub fn median_us(ns: &[u64]) -> f64 {
    let v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    median(&v).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_match_hand_computed_cases() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 0.5), Some(5));
        assert_eq!(percentile(&v, 0.9), Some(9));
        assert_eq!(percentile(&v, 0.99), Some(10));
        assert_eq!(percentile(&v, 1.0), Some(10));
        assert_eq!(percentile(&[7u64], 0.5), Some(7));
        assert_eq!(percentile::<u64>(&[], 0.5), None);
        // 200 samples: p99 is the 198th, leaving two beyond it.
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&v, 0.99), Some(198));
    }

    #[test]
    fn median_and_spreads_match_hand_computed_cases() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // (12 − 9) / 10
        assert_eq!(range_spread(&[10.0, 9.0, 12.0, 10.0, 11.0]), Some(0.3));
        // Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        assert_eq!(iqr_spread(&v), Some(1.0));
        // Python: statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
    }

    #[test]
    fn summary_takes_the_median_of_window_percentiles() {
        // Three windows with p50s of 1, 2 and 100 µs: the stall in the last
        // window does not move the reported p50.
        let mut samples = Vec::new();
        for (w, latency_us) in [(0u64, 1u64), (1, 2), (2, 100)] {
            for i in 0..10 {
                samples.push((w * WINDOW_NS + i, latency_us * 1_000));
            }
        }
        // A sample due after the phase is not counted.
        samples.push((3 * WINDOW_NS + 5, 1));
        let s = summarize(&samples, 3 * WINDOW_NS).unwrap();
        assert_eq!((s.p50_us, s.p90_us, s.p99_us), (2.0, 2.0, 2.0));
        assert_eq!((s.samples, s.windows), (30, 3));
        assert_eq!(s.p99_all_us, 100.0);
    }
}
