//! Temporal train/test splits.
//!
//! The paper evaluates with day-based holdout: the index is built from
//! historical sessions and the *last day* (Figure 2, Section 5.1.2) or the
//! *subsequent day* (Section 5.1.1) is used as the test set. Test sessions
//! are filtered to items that occur in the training data (a recommender
//! cannot retrieve an item it has never seen — the paper handles genuinely
//! new items with a separate system, see Section 4.1), and must still
//! contain at least two clicks so there is something to predict.

use crate::session::Session;
use serenade_core::sessions::{fill_parallel, run_parallel};
use serenade_core::{machine_threads, Click, FxHashMap, FxHashSet, ItemId, SessionRuns};

/// A train/test split of a click log.
#[derive(Debug, Clone)]
pub struct EvaluationSplit {
    /// Training clicks (used to build indices / fit baselines).
    pub train: Vec<Click>,
    /// Held-out test sessions (chronological, item-filtered, length ≥ 2).
    pub test: Vec<Session>,
}

impl EvaluationSplit {
    /// Number of next-item prediction events in the test set
    /// (`Σ (len − 1)` over test sessions).
    pub fn num_prediction_events(&self) -> usize {
        self.test.iter().map(|s| s.len() - 1).sum()
    }
}

/// Splits on a timestamp: sessions *ending* strictly before `cutoff` train,
/// sessions ending at/after it test. A session ends at or after `cutoff`
/// exactly when one of its clicks lies there, so only the held-out clicks
/// are grouped into sessions, in the order they end.
///
/// The clicks are sent to their sides on [`machine_threads`]
/// threads, each a range of the log: each marks its clicks of held-out
/// sessions in a bitmap, one lookup a click, and counts the rest; then each
/// copies its training clicks into its own part of `train`, which it is
/// the first to touch, and each range of `train` marks the test items it
/// holds. Training clicks keep their tuples and their order.
pub fn split_at(clicks: &[Click], cutoff: u64) -> EvaluationSplit {
    split_on(clicks, cutoff, machine_threads())
}

/// [`split_at`] on up to `threads` threads; the split is the same for
/// every `threads`.
fn split_on(clicks: &[Click], cutoff: u64, threads: usize) -> EvaluationSplit {
    let threads = threads.max(1);
    let held_out: FxHashSet<u64> =
        clicks.iter().filter(|c| c.timestamp >= cutoff).map(|c| c.session_id).collect();
    // Ranges of whole bitmap words.
    let per_thread = clicks.len().div_ceil(64).div_ceil(threads).max(1) * 64;
    let mut marks = vec![0u64; clicks.len().div_ceil(64)];
    let ranges = clicks.chunks(per_thread).zip(marks.chunks_mut(per_thread / 64));
    let trained = run_parallel(ranges.collect(), |(range, marks)| {
        for (block, mark) in range.chunks(64).zip(marks.iter_mut()) {
            for (at, c) in block.iter().enumerate() {
                *mark |= u64::from(held_out.contains(&c.session_id)) << at;
            }
        }
        range.len() - marks.iter().map(|mark| mark.count_ones() as usize).sum::<usize>()
    });
    let ranges = clicks.chunks(per_thread).zip(marks.chunks(per_thread / 64));
    let train = fill_parallel(ranges.zip(trained).collect(), |(range, marks), part| {
        for (block, &mark) in range.chunks(64).zip(marks) {
            for (at, c) in block.iter().enumerate() {
                if mark >> at & 1 == 0 {
                    part.push(*c);
                }
            }
        }
    });
    let held: Vec<Click> = (clicks.chunks(64).zip(&marks))
        .filter(|&(_, &mark)| mark != 0)
        .flat_map(|(block, &mark)| {
            block.iter().enumerate().filter(move |&(at, _)| mark >> at & 1 == 1).map(|(_, c)| *c)
        })
        .collect();
    drop(marks);
    let runs = &SessionRuns::group(&held, 1);
    drop(held);
    // Keep only test items known at training time, then re-check length.
    // The test items are the few, numbered densely: each range of `train`
    // looks its clicks' items up among them on a thread of its own, and
    // marks the ones it finds.
    let mut dense: FxHashMap<ItemId, usize> = FxHashMap::default();
    for &(_, item) in (0..runs.len()).flat_map(|rank| runs.run(rank)) {
        let next = dense.len();
        dense.entry(item).or_insert(next);
    }
    let per_thread = train.len().div_ceil(threads).max(1);
    let ranges = train.chunks(per_thread).map(|range| (range, vec![false; dense.len()]));
    let seen = run_parallel(ranges.collect(), |(range, mut seen)| {
        for c in range {
            if let Some(&item) = dense.get(&c.item_id) {
                seen[item] = true;
            }
        }
        seen
    });
    let known = |item: &ItemId| seen.iter().any(|seen| seen[dense[item]]);
    let test = (0..runs.len())
        .filter_map(|rank| {
            let mut s = Session::of(runs, rank);
            s.items.retain(known);
            (s.items.len() >= 2).then_some(s)
        })
        .collect();
    EvaluationSplit { train, test }
}

/// Holds out the last `days` calendar days (relative to the maximum
/// timestamp) as the test set.
pub fn split_last_days(clicks: &[Click], days: u64) -> EvaluationSplit {
    split_at(clicks, cutoff(clicks, days))
}

/// [`split_last_days`] on up to `threads` threads (see [`split_at`]); the
/// split is the same for every `threads`.
pub fn split_last_days_with_threads(
    clicks: &[Click],
    days: u64,
    threads: usize,
) -> EvaluationSplit {
    split_on(clicks, cutoff(clicks, days), threads)
}

/// The first timestamp of the last `days` calendar days of `clicks`.
fn cutoff(clicks: &[Click], days: u64) -> u64 {
    let max_ts = clicks.iter().map(|c| c.timestamp).max().unwrap_or(0);
    max_ts.saturating_sub(days.saturating_mul(86_400)).saturating_add(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clicks_over_days() -> Vec<Click> {
        // Day 0: sessions 1, 2; Day 1: session 3; Day 2: session 4.
        vec![
            Click::new(1, 10, 100),
            Click::new(1, 11, 110),
            Click::new(2, 10, 200),
            Click::new(2, 12, 210),
            Click::new(3, 11, 86_500),
            Click::new(3, 12, 86_510),
            Click::new(4, 10, 172_900),
            Click::new(4, 11, 172_910),
        ]
    }

    #[test]
    fn last_day_split_holds_out_final_day() {
        let split = split_last_days(&clicks_over_days(), 1);
        let train_sessions: FxHashSet<u64> = split.train.iter().map(|c| c.session_id).collect();
        assert_eq!(train_sessions.len(), 3);
        assert!(!train_sessions.contains(&4));
        assert_eq!(split.test.len(), 1);
        assert_eq!(split.test[0].id, 4);
    }

    #[test]
    fn unseen_items_are_filtered_from_test() {
        let mut clicks = clicks_over_days();
        clicks.push(Click::new(4, 999, 172_920)); // item unseen in training
        let split = split_last_days(&clicks, 1);
        assert_eq!(split.test[0].items, vec![10, 11]);
    }

    #[test]
    fn too_short_test_sessions_are_dropped() {
        let mut clicks = clicks_over_days();
        // Session 5 on the last day has one known item only.
        clicks.push(Click::new(5, 10, 172_950));
        let split = split_last_days(&clicks, 1);
        assert!(split.test.iter().all(|s| s.id != 5));
    }

    #[test]
    fn every_thread_count_splits_alike() {
        // Ranges of whole bitmap words: one, several and a short last one.
        let click = |s: u64, item, at| Click::new(s / 3, item, s * 200 + at);
        let clicks: Vec<Click> =
            (0..1_000u64).flat_map(|s| [click(s, s % 13, 0), click(s, s % 7, 1)]).collect();
        let one = split_last_days_with_threads(&clicks, 1, 1);
        assert!(one.train.len() > 100 && !one.test.is_empty());
        for threads in [2, 3, 8, 64] {
            let split = split_last_days_with_threads(&clicks, 1, threads);
            assert_eq!(split.train, one.train, "threads {threads}");
            assert_eq!(split.test, one.test, "threads {threads}");
        }
    }

    #[test]
    fn prediction_events_count() {
        let split = split_last_days(&clicks_over_days(), 1);
        assert_eq!(split.num_prediction_events(), 1); // one 2-click session
    }

    #[test]
    fn split_preserves_training_item_order() {
        let split = split_last_days(&clicks_over_days(), 1);
        // Session 1's items must stay [10, 11] in train after re-timestamping.
        let mut s1: Vec<(u64, u64)> = split
            .train
            .iter()
            .filter(|c| c.session_id == 1)
            .map(|c| (c.timestamp, c.item_id))
            .collect();
        s1.sort_unstable();
        let items: Vec<u64> = s1.into_iter().map(|(_, i)| i).collect();
        assert_eq!(items, vec![10, 11]);
    }
}
