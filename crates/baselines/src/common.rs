//! Shared pieces of the nearest-neighbour baselines.
//!
//! The item-scoring stage (Algorithm 1/2, final loop) is identical across
//! VS-kNN and the VMIS analogues; centralising it here guarantees the
//! "equal predictive performance" the paper requires of all implementation
//! variants (Section 5.2.1).

use serenade_core::{FxHashMap, ItemId, ItemScore, SessionId, SessionItems, VmisConfig};

/// Builds the ω position map of the capped evolving session: latest 1-based
/// position per item. Returns the capped window and its position map.
pub fn session_window(
    session: &[ItemId],
    max_len: usize,
) -> (&[ItemId], FxHashMap<ItemId, usize>) {
    let window = if session.len() > max_len {
        &session[session.len() - max_len..]
    } else {
        session
    };
    let mut pos = FxHashMap::default();
    for (i, &item) in window.iter().enumerate() {
        pos.insert(item, i + 1);
    }
    (window, pos)
}

/// Scores all items of the neighbour sessions and returns the ranked top
/// `how_many` list — the same semantics as the core VMIS-kNN scorer.
///
/// `session_items` resolves a neighbour's (deduplicated) item list; `idf`
/// maps items to their precomputed idf weight (missing items weigh 1).
pub fn score_and_rank<'a>(
    neighbors: &[(SessionId, f32)],
    pos: &FxHashMap<ItemId, usize>,
    session_items: impl Fn(SessionId) -> SessionItems<'a>,
    idf: &FxHashMap<ItemId, f32>,
    config: &VmisConfig,
) -> Vec<ItemScore> {
    let wlen = pos.values().copied().max().unwrap_or(0);
    if wlen == 0 {
        return Vec::new();
    }
    let norm = if config.normalize_by_session_length { 1.0 / wlen as f32 } else { 1.0 };
    let mut scores: FxHashMap<ItemId, f32> = FxHashMap::default();
    // Canonical summation order (ascending session id), matching the core
    // scorer so all variants produce bit-identical f32 scores.
    let mut neighbors: Vec<(SessionId, f32)> = neighbors.to_vec();
    neighbors.sort_unstable_by_key(|&(sid, _)| sid);
    for &(sid, similarity) in &neighbors {
        let items = session_items(sid);
        let Some(max_pos) = items.iter().filter_map(|it| pos.get(&it)).copied().max() else {
            continue;
        };
        let lambda = config.match_weight.weight(max_pos, wlen);
        if lambda <= 0.0 {
            continue;
        }
        let session_weight = lambda * similarity * norm;
        for item in items.iter() {
            if config.exclude_session_items && pos.contains_key(&item) {
                continue;
            }
            let w = idf.get(&item).copied().unwrap_or(1.0);
            *scores.entry(item).or_insert(0.0) += session_weight * w;
        }
    }
    rank_scores(scores, config.how_many)
}

/// Ranks a score map: descending score, ascending item id on ties, positive
/// scores only, at most `how_many` entries.
pub fn rank_scores(scores: FxHashMap<ItemId, f32>, how_many: usize) -> Vec<ItemScore> {
    let mut out: Vec<ItemScore> = scores
        .into_iter()
        .filter(|&(_, s)| s > 0.0)
        .map(|(item, score)| ItemScore { item, score })
        .collect();
    let cmp = |a: &ItemScore, b: &ItemScore| {
        b.score.partial_cmp(&a.score).expect("finite scores").then(a.item.cmp(&b.item))
    };
    let n = how_many.min(out.len());
    if n == 0 {
        return Vec::new();
    }
    if n < out.len() {
        out.select_nth_unstable_by(n - 1, cmp);
        out.truncate(n);
    }
    out.sort_unstable_by(cmp);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_caps_to_most_recent() {
        let (w, pos) = session_window(&[1, 2, 3, 4], 2);
        assert_eq!(w, &[3, 4]);
        assert_eq!(pos.get(&3), Some(&1));
        assert_eq!(pos.get(&4), Some(&2));
        assert_eq!(pos.get(&1), None);
    }

    #[test]
    fn window_tracks_latest_duplicate_position() {
        let (_, pos) = session_window(&[7, 8, 7], 10);
        assert_eq!(pos.get(&7), Some(&3));
        assert_eq!(pos.get(&8), Some(&2));
    }

    #[test]
    fn rank_scores_orders_and_truncates() {
        let mut m: FxHashMap<ItemId, f32> = FxHashMap::default();
        m.insert(1, 0.5);
        m.insert(2, 0.9);
        m.insert(3, 0.9); // tie with 2: lower id first
        m.insert(4, 0.0); // dropped
        m.insert(5, -1.0); // dropped
        let ranked = rank_scores(m, 2);
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].item, 2);
        assert_eq!(ranked[1].item, 3);
    }

    #[test]
    fn rank_scores_empty() {
        assert!(rank_scores(FxHashMap::default(), 5).is_empty());
    }
}
