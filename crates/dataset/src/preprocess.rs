//! Click-log preprocessing, matching the pipeline of the session-rec
//! comparison studies the paper replicates.
//!
//! * **Inactivity splitting** — the retailrocket log identifies *visitors*,
//!   not sessions; the standard preprocessing cuts a visitor's click stream
//!   into sessions wherever two consecutive clicks are more than 30 minutes
//!   apart.
//! * **Minimum item support** — items clicked fewer than `n` times carry no
//!   collaborative signal and are dropped (session-rec uses `n = 5`).
//! * **Minimum session length** — sessions shorter than two clicks cannot be
//!   evaluated and are dropped.
//!
//! The filters interact (dropping items can shorten sessions below the
//! minimum), so [`preprocess`] iterates them to a fixed point, like the
//! reference pipeline.

use serenade_core::{Click, FxHashMap, ItemId, SessionRuns, Timestamp};

/// Splits visitor click streams into sessions on inactivity gaps.
///
/// Clicks sharing a `session_id` (here: visitor id) are ordered by time; a
/// new session starts whenever the gap to the previous click exceeds
/// `max_gap_secs`. Returned clicks carry fresh, densely numbered session ids
/// (starting at 1, visitor by visitor in the order their streams end) and
/// are globally ordered by timestamp.
pub fn split_on_inactivity(clicks: &[Click], max_gap_secs: u64) -> Vec<Click> {
    let visitors = SessionRuns::group(clicks, 1);
    let mut out = Vec::with_capacity(clicks.len());
    let mut next_session: u64 = 1;
    for visitor in 0..visitors.len() {
        let mut prev_ts: Option<Timestamp> = None;
        for &(ts, item) in visitors.run(visitor) {
            if prev_ts.is_some_and(|p| ts.saturating_sub(p) > max_gap_secs) {
                next_session += 1;
            }
            out.push(Click::new(next_session, item, ts));
            prev_ts = Some(ts);
        }
        next_session += 1;
    }
    out.sort_unstable_by_key(|c| (c.timestamp, c.session_id, c.item_id));
    out
}

/// Drops clicks on items that occur fewer than `min_support` times.
pub fn filter_min_item_support(clicks: &[Click], min_support: usize) -> Vec<Click> {
    let mut counts: FxHashMap<ItemId, usize> = FxHashMap::default();
    for c in clicks {
        *counts.entry(c.item_id).or_insert(0) += 1;
    }
    clicks.iter().filter(|c| counts[&c.item_id] >= min_support).copied().collect()
}

/// Drops sessions with fewer than `min_len` clicks.
pub fn filter_min_session_length(clicks: &[Click], min_len: usize) -> Vec<Click> {
    let sessions = SessionRuns::group(clicks, 1);
    let long = |&(_, &rank): &(&Click, &u32)| sessions.run(rank as usize).len() >= min_len;
    clicks.iter().zip(sessions.click_ranks()).filter(long).map(|(c, _)| *c).collect()
}

/// The full session-rec preprocessing: inactivity splitting, then iterated
/// item-support and session-length filtering until stable.
pub fn preprocess(
    clicks: &[Click],
    max_gap_secs: u64,
    min_item_support: usize,
    min_session_len: usize,
) -> Vec<Click> {
    let mut current = split_on_inactivity(clicks, max_gap_secs);
    loop {
        let before = current.len();
        current = filter_min_item_support(&current, min_item_support);
        current = filter_min_session_length(&current, min_session_len);
        if current.len() == before {
            return current;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sessionize;

    #[test]
    fn gap_splitting_cuts_visitor_streams() {
        let clicks = vec![
            Click::new(9, 1, 0),
            Click::new(9, 2, 100),
            Click::new(9, 3, 100 + 1_801), // > 30 min after the previous click
            Click::new(9, 4, 100 + 1_900),
        ];
        let split = split_on_inactivity(&clicks, 1_800);
        let sessions = sessionize(&split);
        assert_eq!(sessions.len(), 2);
        assert_eq!(sessions[0].items, vec![1, 2]);
        assert_eq!(sessions[1].items, vec![3, 4]);
        // Fresh dense ids, not the visitor id.
        assert!(sessions.iter().all(|s| s.id != 9));
        assert_ne!(sessions[0].id, sessions[1].id);
    }

    #[test]
    fn gap_splitting_keeps_tight_streams_whole() {
        let clicks = vec![
            Click::new(1, 1, 0),
            Click::new(1, 2, 60),
            Click::new(1, 3, 120),
        ];
        let split = split_on_inactivity(&clicks, 1_800);
        assert_eq!(sessionize(&split).len(), 1);
    }

    #[test]
    fn distinct_visitors_never_merge() {
        let clicks = vec![Click::new(1, 1, 0), Click::new(2, 2, 1)];
        let split = split_on_inactivity(&clicks, 1_800);
        assert_eq!(sessionize(&split).len(), 2);
    }

    #[test]
    fn item_support_filter() {
        let clicks = vec![
            Click::new(1, 10, 0),
            Click::new(2, 10, 1),
            Click::new(3, 11, 2), // item 11 occurs once
        ];
        let filtered = filter_min_item_support(&clicks, 2);
        assert_eq!(filtered.len(), 2);
        assert!(filtered.iter().all(|c| c.item_id == 10));
    }

    #[test]
    fn session_length_filter() {
        let clicks = vec![
            Click::new(1, 10, 0),
            Click::new(1, 11, 1),
            Click::new(2, 12, 2), // singleton session
        ];
        let filtered = filter_min_session_length(&clicks, 2);
        assert!(filtered.iter().all(|c| c.session_id == 1));
    }

    #[test]
    fn preprocess_reaches_fixed_point() {
        // Item 20 is rare; dropping it shortens session 2 below 2 clicks,
        // which in turn makes item 21 rare — the cascade must resolve.
        let clicks = vec![
            Click::new(1, 10, 0),
            Click::new(1, 11, 10),
            Click::new(2, 20, 20),
            Click::new(2, 21, 30),
            Click::new(3, 10, 40),
            Click::new(3, 11, 50),
            Click::new(4, 21, 60),
            Click::new(4, 10, 70),
        ];
        let out = preprocess(&clicks, 1_800, 2, 2);
        // Only items 10/11 survive, in the three sessions that keep ≥2 clicks.
        assert!(out.iter().all(|c| c.item_id == 10 || c.item_id == 11));
        let sessions = sessionize(&out);
        assert!(sessions.iter().all(|s| s.len() >= 2));
    }

    #[test]
    fn empty_input_stays_empty() {
        assert!(split_on_inactivity(&[], 1_800).is_empty());
        assert!(preprocess(&[], 1_800, 5, 2).is_empty());
    }
}
