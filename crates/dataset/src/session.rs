//! Sessionization: grouping a click log into chronologically ordered sessions.

use serenade_core::{Click, ItemId, SessionRuns, Timestamp};

/// A user session: the chronological item sequence of one session id.
///
/// Unlike the deduplicated per-session item lists inside the index, a
/// `Session` keeps repeated interactions — the evaluation protocol feeds the
/// raw sequence to the recommender exactly as the shop frontend would.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Session {
    /// External session identifier from the click log.
    pub id: u64,
    /// Items in click order (repeats preserved).
    pub items: Vec<ItemId>,
    /// Timestamp of the first click.
    pub start: Timestamp,
    /// Timestamp of the last click (the session timestamp used by the index).
    pub end: Timestamp,
}

impl Session {
    /// Number of clicks in the session.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if the session has no clicks.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The session at `rank` of a grouped log.
    pub(crate) fn of(runs: &SessionRuns, rank: usize) -> Self {
        let run = runs.run(rank);
        Session {
            id: runs.ext_id(rank),
            items: run.iter().map(|&(_, item)| item).collect(),
            start: run[0].0,
            end: runs.timestamp(rank),
        }
    }
}

/// Groups clicks into sessions ordered by ascending end timestamp
/// (ties broken by session id) — the order the index numbers them in.
/// Clicks within a session are ordered by timestamp (ties by item id, for
/// determinism).
pub fn sessionize(clicks: &[Click]) -> Vec<Session> {
    let runs = SessionRuns::group(clicks, 1);
    (0..runs.len()).map(|rank| Session::of(&runs, rank)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessionize_groups_and_orders() {
        let clicks = vec![
            Click::new(2, 20, 200),
            Click::new(1, 11, 101),
            Click::new(1, 10, 100),
            Click::new(2, 21, 210),
        ];
        let sessions = sessionize(&clicks);
        assert_eq!(sessions.len(), 2);
        assert_eq!(sessions[0].id, 1);
        assert_eq!(sessions[0].items, vec![10, 11]);
        assert_eq!(sessions[0].start, 100);
        assert_eq!(sessions[0].end, 101);
        assert_eq!(sessions[1].id, 2);
        assert_eq!(sessions[1].items, vec![20, 21]);
    }

    #[test]
    fn repeats_are_preserved() {
        let clicks = vec![
            Click::new(1, 5, 1),
            Click::new(1, 5, 2),
            Click::new(1, 6, 3),
            Click::new(1, 5, 4),
        ];
        let sessions = sessionize(&clicks);
        assert_eq!(sessions[0].items, vec![5, 5, 6, 5]);
        assert_eq!(sessions[0].len(), 4);
        assert!(!sessions[0].is_empty());
    }

    #[test]
    fn sessions_sorted_by_end_timestamp() {
        let clicks = vec![
            Click::new(9, 1, 500), // ends at 500
            Click::new(7, 2, 100),
            Click::new(7, 3, 600), // ends at 600
        ];
        let sessions = sessionize(&clicks);
        assert_eq!(sessions[0].id, 9);
        assert_eq!(sessions[1].id, 7);
    }

    #[test]
    fn empty_input_yields_no_sessions() {
        assert!(sessionize(&[]).is_empty());
    }
}
