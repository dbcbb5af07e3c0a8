//! The common interface all session-based recommenders implement.
//!
//! The evaluation harness, the baselines, the neural comparator and the
//! serving layer all speak this trait, so every experiment of the paper can
//! swap algorithms freely.

use crate::types::{ItemId, ItemScore};
use crate::vmis::{Scratch, VmisKnn};

/// A next-item recommender over evolving sessions.
///
/// Implementations must be `Sync` so evaluation can fan out across threads;
/// recommenders are immutable once fitted (the paper rebuilds indices
/// offline, Section 4.1).
pub trait Recommender: Sync {
    /// Scores the most likely next items for an evolving session, best
    /// first. At most `how_many` items; fewer (or none) when the session
    /// shares nothing with the model's history.
    fn recommend(&self, session: &[ItemId], how_many: usize) -> Vec<ItemScore>;

    /// Like [`Recommender::recommend`], but reusing caller-provided scratch
    /// buffers so steady-state callers (the serving hot path, tight
    /// evaluation loops) allocate nothing per request. The default
    /// implementation ignores the scratch; allocation-aware recommenders
    /// override it.
    fn recommend_with(
        &self,
        session: &[ItemId],
        how_many: usize,
        _scratch: &mut Scratch,
    ) -> Vec<ItemScore> {
        self.recommend(session, how_many)
    }

    /// A short human-readable name used in experiment reports.
    fn name(&self) -> &str;
}

impl Recommender for VmisKnn {
    fn recommend(&self, session: &[ItemId], how_many: usize) -> Vec<ItemScore> {
        let mut recs = VmisKnn::recommend(self, session);
        recs.truncate(how_many);
        recs
    }

    fn recommend_with(
        &self,
        session: &[ItemId],
        how_many: usize,
        scratch: &mut Scratch,
    ) -> Vec<ItemScore> {
        let mut recs = self.recommend_with_scratch(session, scratch);
        recs.truncate(how_many);
        recs
    }

    fn name(&self) -> &str {
        "vmis-knn"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::SessionIndex;
    use crate::types::Click;
    use crate::vmis::VmisConfig;

    #[test]
    fn vmisknn_implements_recommender() {
        let clicks = vec![
            Click::new(1, 10, 100),
            Click::new(1, 11, 101),
            Click::new(2, 10, 200),
            Click::new(2, 12, 201),
        ];
        let index = SessionIndex::build(&clicks, 500).unwrap();
        let v = VmisKnn::new(index, VmisConfig::default()).unwrap();
        let r: &dyn Recommender = &v;
        let recs = r.recommend(&[10], 1);
        assert!(recs.len() <= 1);
        assert_eq!(r.name(), "vmis-knn");
    }

    #[test]
    fn recommend_with_reuses_scratch_and_matches_recommend() {
        let clicks = vec![
            Click::new(1, 10, 100),
            Click::new(1, 11, 101),
            Click::new(2, 10, 200),
            Click::new(2, 12, 201),
            Click::new(3, 11, 300),
            Click::new(3, 12, 301),
        ];
        let index = SessionIndex::build(&clicks, 500).unwrap();
        let v = VmisKnn::new(index, VmisConfig::default()).unwrap();
        let mut scratch = crate::vmis::Scratch::new();
        for session in [&[10u64][..], &[10, 11], &[12, 10]] {
            assert_eq!(
                Recommender::recommend_with(&v, session, 5, &mut scratch),
                Recommender::recommend(&v, session, 5),
                "scratch reuse must not change results",
            );
        }
    }
}
