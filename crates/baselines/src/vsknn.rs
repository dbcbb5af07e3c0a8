//! The scan-based VS-kNN baseline (Figure 3a bottom, "VS-kNN").
//!
//! Mimics the original VS-kNN similarity computation: the historical data is
//! held in hash maps, and for every request the algorithm **first
//! materialises** the set of all sessions sharing at least one item with the
//! evolving session, sorts it to find the `m` most recent, and only then
//! computes similarities — paying for the full candidate-set intersection
//! and sort that VMIS-kNN's joint join-and-aggregate execution avoids.
//!
//! The baseline is built over the same [`SessionIndex`] data as VMIS-kNN and
//! produces **identical** neighbourhoods and scores (it sorts by the
//! composite `(timestamp, session id)` key, which orders sessions exactly
//! as the id alone — VMIS-kNN's key — does); the integration tests
//! verify this equivalence, which the paper requires of all implementation
//! variants (Section 5.2.1).

use std::sync::Arc;

use serenade_core::{
    CoreError, FxHashMap, FxHashSet, ItemId, ItemScore, Recommender, SessionId, SessionIndex,
    Timestamp, VmisConfig,
};

use crate::common;

/// Scan-based VS-kNN over the shared session data.
#[derive(Debug, Clone)]
pub struct VsKnnBaseline {
    index: Arc<SessionIndex>,
    config: VmisConfig,
    idf: FxHashMap<ItemId, f32>,
}

impl VsKnnBaseline {
    /// Creates the baseline over the same data as a VMIS-kNN index.
    pub fn new(
        index: impl Into<Arc<SessionIndex>>,
        config: VmisConfig,
    ) -> Result<Self, CoreError> {
        let index = index.into();
        config.validate(&index)?;
        let n = index.num_sessions();
        let mut idf = FxHashMap::default();
        for (item, posting) in index.postings_iter() {
            idf.insert(item, config.idf.weight(posting.support as usize, n));
        }
        Ok(Self { index, config, idf })
    }

    /// The active configuration.
    pub fn config(&self) -> &VmisConfig {
        &self.config
    }

    /// Computes the `k` closest sessions the VS-kNN way: materialise all
    /// matching sessions, sort for the `m` most recent, score, sort again.
    pub fn neighbors(&self, session: &[ItemId]) -> Vec<(SessionId, f32)> {
        let (window, pos) = common::session_window(session, self.config.max_session_len);
        if window.is_empty() {
            return Vec::new();
        }

        // Step 1: H_s — all historical sessions sharing at least one item.
        let mut candidates: FxHashSet<SessionId> = FxHashSet::default();
        for (&item, &p) in &pos {
            // Only the latest occurrence defines the item set; `pos` is
            // already deduplicated.
            let _ = p;
            if let Some(list) = self.index.postings(item) {
                candidates.extend(list);
            }
        }

        // Step 2: recency-based sample of size m (most recent first).
        let mut recent: Vec<(Timestamp, SessionId)> = candidates
            .into_iter()
            .map(|sid| (self.index.session_timestamp(sid), sid))
            .collect();
        recent.sort_unstable_by(|a, b| b.cmp(a));
        recent.truncate(self.config.m);

        // Step 3: decayed dot-product similarity per candidate. The π terms
        // are added in reverse window order — the same summation order as
        // the VMIS-kNN inner loop, so the f32 results match bit-for-bit.
        let wlen = window.len();
        let mut scored: Vec<(f32, Timestamp, SessionId)> = Vec::with_capacity(recent.len());
        for &(ts, sid) in &recent {
            let items = self.index.session_items(sid);
            let mut sim = 0.0f32;
            for (i, &item) in window.iter().enumerate().rev() {
                if pos[&item] != i + 1 {
                    continue; // duplicate occurrence
                }
                if items.contains(&item) {
                    sim += self.config.decay.weight(i + 1, wlen);
                }
            }
            if sim > 0.0 {
                scored.push((sim, ts, sid));
            }
        }

        // Step 4: top-k by (similarity, recency).
        scored.sort_unstable_by(|a, b| b.partial_cmp(a).expect("finite similarities"));
        scored.truncate(self.config.k);
        scored.into_iter().map(|(sim, _, sid)| (sid, sim)).collect()
    }
}

impl Recommender for VsKnnBaseline {
    fn recommend(&self, session: &[ItemId], how_many: usize) -> Vec<ItemScore> {
        let neighbors = self.neighbors(session);
        let (_, pos) = common::session_window(session, self.config.max_session_len);
        let mut recs = common::score_and_rank(
            &neighbors,
            &pos,
            |sid| self.index.session_items(sid),
            &self.idf,
            &self.config,
        );
        recs.truncate(how_many);
        recs
    }

    fn name(&self) -> &str {
        "vs-knn"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serenade_core::{Click, VmisKnn};

    fn history() -> Vec<Click> {
        vec![
            Click::new(10, 1, 100),
            Click::new(10, 2, 110),
            Click::new(20, 2, 200),
            Click::new(20, 3, 210),
            Click::new(30, 1, 300),
            Click::new(30, 3, 310),
            Click::new(30, 4, 320),
            Click::new(40, 2, 400),
            Click::new(40, 4, 410),
            Click::new(40, 5, 420),
        ]
    }

    #[test]
    fn neighbors_match_vmis_exactly() {
        let index = Arc::new(SessionIndex::build(&history(), 500).unwrap());
        let cfg = VmisConfig::default();
        let vs = VsKnnBaseline::new(Arc::clone(&index), cfg.clone()).unwrap();
        let vmis = VmisKnn::new(index, cfg).unwrap();
        let mut scratch = vmis.scratch();
        for session in [&[1u64, 2] as &[u64], &[2], &[5, 4], &[3, 1, 2]] {
            let mut a = vs.neighbors(session);
            let mut b: Vec<(SessionId, f32)> = vmis
                .neighbors_with_scratch(session, &mut scratch)
                .into_iter()
                .map(|n| (n.session, n.similarity))
                .collect();
            a.sort_unstable_by_key(|x| x.0);
            b.sort_unstable_by_key(|x| x.0);
            assert_eq!(a, b, "session {session:?}");
        }
    }

    #[test]
    fn recommendations_match_vmis_exactly() {
        let index = Arc::new(SessionIndex::build(&history(), 500).unwrap());
        let cfg = VmisConfig::default();
        let vs = VsKnnBaseline::new(Arc::clone(&index), cfg.clone()).unwrap();
        let vmis = VmisKnn::new(index, cfg).unwrap();
        for session in [&[1u64, 2] as &[u64], &[2], &[4, 5], &[1, 3, 2, 5]] {
            let a = Recommender::recommend(&vs, session, 21);
            let b = Recommender::recommend(&vmis, session, 21);
            assert_eq!(a, b, "session {session:?}");
        }
    }

    #[test]
    fn respects_m_sample() {
        let index = Arc::new(SessionIndex::build(&history(), 500).unwrap());
        let mut cfg = VmisConfig::default();
        cfg.m = 2;
        let vs = VsKnnBaseline::new(index, cfg).unwrap();
        let n = vs.neighbors(&[1, 2]);
        assert!(n.len() <= 2);
        // The two most recent matching sessions are C (id 2) and D (id 3).
        let mut ids: Vec<SessionId> = n.iter().map(|&(sid, _)| sid).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn empty_session_yields_nothing() {
        let index = Arc::new(SessionIndex::build(&history(), 500).unwrap());
        let vs = VsKnnBaseline::new(index, VmisConfig::default()).unwrap();
        assert!(vs.neighbors(&[]).is_empty());
        assert!(Recommender::recommend(&vs, &[], 10).is_empty());
    }
}
