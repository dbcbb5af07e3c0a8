//! The incremental evaluation harness.
//!
//! For every test session `i₁ … i_L`, the harness replays the session the
//! way the shop frontend would: after each prefix `i₁ … i_t` (for
//! `t = 1 … L−1`) the recommender produces a top-`cutoff` list, which is
//! scored against the immediate next item `i_{t+1}` (MRR, HitRate) and
//! against all remaining items `i_{t+1} … i_L` (Precision, Recall, MAP).
//! Metric values are averaged over all prediction events, matching the
//! protocol of the comparison studies the paper replicates (Ludewig et al.).

use std::time::Instant;

use serenade_core::{FxHashSet, ItemId, Recommender};
use serenade_dataset::Session;

use crate::latency::LatencyRecorder;
use crate::ranking;

/// Evaluation parameters.
#[derive(Debug, Clone, Copy)]
pub struct EvalConfig {
    /// List length `N` for the `@N` metrics (the paper reports `@20`).
    pub cutoff: usize,
    /// Optional cap on the number of prediction events (for smoke tests).
    pub max_events: Option<usize>,
    /// Record per-prediction latencies.
    pub record_latency: bool,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self { cutoff: 20, max_events: None, record_latency: false }
    }
}

/// Aggregated evaluation outcome.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// Recommender name.
    pub name: String,
    /// Number of prediction events scored.
    pub events: usize,
    /// Mean reciprocal rank at the cutoff.
    pub mrr: f64,
    /// Hit rate (a.k.a. recall of the next item) at the cutoff.
    pub hit_rate: f64,
    /// Precision at the cutoff against the remaining session items.
    pub precision: f64,
    /// Recall at the cutoff against the remaining session items.
    pub recall: f64,
    /// Mean average precision at the cutoff.
    pub map: f64,
    /// Distinct items recommended at least once.
    pub distinct_recommended: usize,
    /// Per-prediction latencies, when requested.
    pub latency: Option<LatencyRecorder>,
}

#[derive(Default)]
struct Accumulator {
    events: usize,
    mrr: f64,
    hit: f64,
    precision: f64,
    recall: f64,
    map: f64,
    recommended: FxHashSet<ItemId>,
    latency: LatencyRecorder,
}

impl Accumulator {
    fn merge(&mut self, other: Accumulator) {
        self.events += other.events;
        self.mrr += other.mrr;
        self.hit += other.hit;
        self.precision += other.precision;
        self.recall += other.recall;
        self.map += other.map;
        self.recommended.extend(other.recommended);
        self.latency.merge(&other.latency);
    }

    fn into_result(self, name: &str, config: &EvalConfig) -> EvalResult {
        let n = self.events.max(1) as f64;
        EvalResult {
            name: name.to_string(),
            events: self.events,
            mrr: self.mrr / n,
            hit_rate: self.hit / n,
            precision: self.precision / n,
            recall: self.recall / n,
            map: self.map / n,
            distinct_recommended: self.recommended.len(),
            latency: config.record_latency.then_some(self.latency),
        }
    }
}

fn evaluate_sessions(
    recommender: &dyn Recommender,
    sessions: &[Session],
    config: &EvalConfig,
    budget: &mut usize,
) -> Accumulator {
    let mut acc = Accumulator::default();
    let mut prediction: Vec<ItemId> = Vec::with_capacity(config.cutoff);
    for session in sessions {
        for t in 1..session.items.len() {
            if *budget == 0 {
                return acc;
            }
            *budget -= 1;
            let prefix = &session.items[..t];
            let started = Instant::now();
            let scored = recommender.recommend(prefix, config.cutoff);
            if config.record_latency {
                acc.latency.record(started.elapsed());
            }
            prediction.clear();
            prediction.extend(scored.iter().map(|s| s.item));

            let next = session.items[t];
            let remaining: FxHashSet<ItemId> = session.items[t..].iter().copied().collect();

            acc.events += 1;
            acc.mrr += ranking::reciprocal_rank(&prediction, next);
            acc.hit += ranking::hit(&prediction, next);
            acc.precision += ranking::precision(&prediction, &remaining, config.cutoff);
            acc.recall += ranking::recall(&prediction, &remaining);
            acc.map += ranking::average_precision(&prediction, &remaining, config.cutoff);
            acc.recommended.extend(prediction.iter().copied());
        }
    }
    acc
}

/// Evaluates a recommender sequentially over the test sessions.
pub fn evaluate(
    recommender: &dyn Recommender,
    test: &[Session],
    config: &EvalConfig,
) -> EvalResult {
    let mut budget = config.max_events.unwrap_or(usize::MAX);
    let acc = evaluate_sessions(recommender, test, config, &mut budget);
    acc.into_result(recommender.name(), config)
}

/// Evaluates in parallel over `threads` worker threads (sessions are
/// partitioned; the metric averages are exact regardless of partitioning).
///
/// `max_events` is applied per partition as a proportional share.
pub fn evaluate_parallel<R: Recommender>(
    recommender: &R,
    test: &[Session],
    config: &EvalConfig,
    threads: usize,
) -> EvalResult {
    let threads = threads.max(1).min(test.len().max(1));
    if threads <= 1 {
        return evaluate(recommender, test, config);
    }
    let chunk = test.len().div_ceil(threads);
    let mut total = Accumulator::default();
    let partials = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for part in test.chunks(chunk) {
            let cfg = *config;
            handles.push(scope.spawn(move || {
                let mut budget = cfg
                    .max_events
                    .map(|m| m.div_ceil(threads))
                    .unwrap_or(usize::MAX);
                evaluate_sessions(recommender, part, &cfg, &mut budget)
            }));
        }
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect::<Vec<_>>()
    });
    for p in partials {
        total.merge(p);
    }
    total.into_result(recommender.name(), config)
}

impl std::fmt::Display for EvalResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: events={} MRR={:.4} HR={:.4} Prec={:.4} Recall={:.4} MAP={:.4}",
            self.name, self.events, self.mrr, self.hit_rate, self.precision, self.recall, self.map
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serenade_core::ItemScore;

    /// A recommender that always predicts a fixed list.
    struct Fixed(Vec<ItemId>);

    impl Recommender for Fixed {
        fn recommend(&self, _session: &[ItemId], how_many: usize) -> Vec<ItemScore> {
            self.0
                .iter()
                .take(how_many)
                .enumerate()
                .map(|(i, &item)| ItemScore::new(item, 1.0 / (i + 1) as f32))
                .collect()
        }
        fn name(&self) -> &str {
            "fixed"
        }
    }

    /// An oracle that always predicts the true next item (cheats by storing
    /// the sessions); used to pin the metric upper bounds.
    struct Oracle(Vec<Session>);

    impl Recommender for Oracle {
        fn recommend(&self, session: &[ItemId], _how_many: usize) -> Vec<ItemScore> {
            for s in &self.0 {
                if s.items.len() > session.len() && s.items[..session.len()] == *session {
                    return vec![ItemScore::new(s.items[session.len()], 1.0)];
                }
            }
            Vec::new()
        }
        fn name(&self) -> &str {
            "oracle"
        }
    }

    fn sessions() -> Vec<Session> {
        vec![
            Session { id: 1, items: vec![1, 2, 3], start: 0, end: 2 },
            Session { id: 2, items: vec![4, 5], start: 10, end: 11 },
        ]
    }

    #[test]
    fn oracle_achieves_perfect_next_item_metrics() {
        let test = sessions();
        let oracle = Oracle(test.clone());
        let r = evaluate(&oracle, &test, &EvalConfig::default());
        assert_eq!(r.events, 3); // (3-1) + (2-1)
        assert!((r.mrr - 1.0).abs() < 1e-12);
        assert!((r.hit_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hopeless_recommender_scores_zero() {
        let test = sessions();
        let fixed = Fixed(vec![99, 98]);
        let r = evaluate(&fixed, &test, &EvalConfig::default());
        assert_eq!(r.mrr, 0.0);
        assert_eq!(r.recall, 0.0);
        assert_eq!(r.map, 0.0);
        assert_eq!(r.distinct_recommended, 2);
    }

    #[test]
    fn fixed_list_partial_credit() {
        let test = vec![Session { id: 1, items: vec![1, 2], start: 0, end: 1 }];
        // Predicts [9, 2]: next item 2 at rank 2.
        let fixed = Fixed(vec![9, 2]);
        let cfg = EvalConfig { cutoff: 2, ..Default::default() };
        let r = evaluate(&fixed, &test, &cfg);
        assert_eq!(r.events, 1);
        assert!((r.mrr - 0.5).abs() < 1e-12);
        assert!((r.hit_rate - 1.0).abs() < 1e-12);
        assert!((r.precision - 0.5).abs() < 1e-12);
        assert!((r.recall - 1.0).abs() < 1e-12);
    }

    #[test]
    fn max_events_caps_work() {
        let test = sessions();
        let fixed = Fixed(vec![1]);
        let cfg = EvalConfig { max_events: Some(1), ..Default::default() };
        let r = evaluate(&fixed, &test, &cfg);
        assert_eq!(r.events, 1);
    }

    #[test]
    fn parallel_matches_sequential() {
        let test: Vec<Session> = (0..20)
            .map(|i| Session {
                id: i,
                items: vec![i % 5, (i + 1) % 5, (i + 2) % 5, (i * 3) % 5],
                start: i,
                end: i + 3,
            })
            .collect();
        let fixed = Fixed(vec![0, 1, 2]);
        let cfg = EvalConfig { cutoff: 3, ..Default::default() };
        let seq = evaluate(&fixed, &test, &cfg);
        let par = evaluate_parallel(&fixed, &test, &cfg, 4);
        assert_eq!(seq.events, par.events);
        assert!((seq.mrr - par.mrr).abs() < 1e-12);
        assert!((seq.precision - par.precision).abs() < 1e-12);
        assert!((seq.map - par.map).abs() < 1e-12);
    }

    #[test]
    fn latency_recording_toggles() {
        let test = sessions();
        let fixed = Fixed(vec![1]);
        let without = evaluate(&fixed, &test, &EvalConfig::default());
        assert!(without.latency.is_none());
        let cfg = EvalConfig { record_latency: true, ..Default::default() };
        let with = evaluate(&fixed, &test, &cfg);
        assert_eq!(with.latency.unwrap().len(), 3);
    }

    #[test]
    fn display_is_informative() {
        let test = sessions();
        let r = evaluate(&Fixed(vec![1]), &test, &EvalConfig::default());
        let text = r.to_string();
        assert!(text.contains("MRR="));
        assert!(text.contains("fixed"));
    }
}
