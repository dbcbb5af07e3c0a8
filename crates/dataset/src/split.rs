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
use serenade_core::{Click, FxHashMap, FxHashSet, ItemId, SessionRuns};

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
pub fn split_at(clicks: &[Click], cutoff: u64) -> EvaluationSplit {
    let held_out: FxHashSet<u64> =
        clicks.iter().filter(|c| c.timestamp >= cutoff).map(|c| c.session_id).collect();
    let held: Vec<Click> =
        clicks.iter().filter(|c| held_out.contains(&c.session_id)).copied().collect();
    // Training clicks keep their original tuples and order.
    let mut train: Vec<Click> = Vec::with_capacity(clicks.len() - held.len());
    train.extend(clicks.iter().filter(|c| !held_out.contains(&c.session_id)));
    let runs = &SessionRuns::group(&held, 1);
    drop(held);
    // Keep only test items known at training time, then re-check length.
    // The test items are the few: every training click looks its item up
    // among them.
    let test_clicks = (0..runs.len()).flat_map(|rank| runs.run(rank));
    let mut known: FxHashMap<ItemId, bool> = test_clicks.map(|&(_, i)| (i, false)).collect();
    for c in &train {
        if let Some(known) = known.get_mut(&c.item_id) {
            *known = true;
        }
    }
    let test = (0..runs.len())
        .filter_map(|rank| {
            let mut s = Session::of(runs, rank);
            s.items.retain(|i| known[i]);
            (s.items.len() >= 2).then_some(s)
        })
        .collect();
    EvaluationSplit { train, test }
}

/// Holds out the last `days` calendar days (relative to the maximum
/// timestamp) as the test set.
pub fn split_last_days(clicks: &[Click], days: u64) -> EvaluationSplit {
    let max_ts = clicks.iter().map(|c| c.timestamp).max().unwrap_or(0);
    let cutoff = max_ts.saturating_sub(days.saturating_mul(86_400)).saturating_add(1);
    split_at(clicks, cutoff)
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
