//! # serenade-baselines — comparison recommenders for the Serenade experiments
//!
//! Every algorithm the paper compares against, implemented from scratch:
//!
//! * [`vsknn`] — the scan-based **VS-kNN** baseline of the index-design
//!   microbenchmark (Figure 3a, bottom): holds the historical data in hash
//!   maps and first materialises the `m` most recent matching sessions
//!   before computing similarities. Produces *identical* neighbourhoods to
//!   VMIS-kNN (the test suite verifies this), just slower.
//! * [`vmis_noopt`] — **VMIS-kNN-no-opt**: the paper's Algorithm 2 walk as
//!   written — a candidate map, a `std` binary heap `b_t` that evicts the
//!   oldest candidate, no early stopping, a binary top-k heap — kept as the
//!   reference the kernel's sorted join is held to and timed against
//!   (DESIGN.md §3).
//! * [`itemknn`] — item-to-item collaborative filtering, the **legacy**
//!   production system of the A/B test (Section 5.2.3).
//! * [`popularity`] — the popularity baseline.
//! * [`seqrules`] — sequential rules, a strong lightweight sequence baseline
//!   from the session-rec literature.
//! * [`analogues`] — Rust behavioural analogues of the alternative
//!   implementations in Figure 3a (top): the pandas-style scan (VS-Py), the
//!   allocation-heavy variant (VMIS-Java), the join-materialising variant
//!   (VMIS-SQL) and the incremental variant (VMIS-Diff). See DESIGN.md for
//!   the substitution rationale.

#![warn(missing_docs)]

pub mod analogues;
pub mod common;
pub mod itemknn;
pub mod popularity;
pub mod seqrules;
pub mod vsknn;

pub use itemknn::ItemKnn;
pub use popularity::Popularity;
pub use seqrules::SequentialRules;
pub use vsknn::VsKnnBaseline;

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use serenade_core::vmis::Neighbor;
use serenade_core::{
    CoreError, FxHashMap, ItemId, ItemScore, Recommender, SessionId, SessionIndex, VmisConfig,
};

/// Constructs **VMIS-kNN-no-opt** over `index` (Section 5.1.3).
pub fn vmis_noopt(
    index: impl Into<Arc<SessionIndex>>,
    config: VmisConfig,
) -> Result<VmisNoOpt, CoreError> {
    let index = index.into();
    config.validate(&index)?;
    let idf = analogues::build_idf(&index, &config);
    Ok(VmisNoOpt { index, config, idf })
}

/// VMIS-kNN-no-opt: Algorithm 2's `neighbor_sessions_from_index` with
/// binary heaps and without early stopping. Each posting entry either adds
/// π to its candidate, is admitted while fewer than `m` are held, evicts
/// the oldest candidate (the root of `b_t`) if it is more recent, or is
/// passed over — and the walk reads every entry of every list. Ids order
/// sessions as `(timestamp, id)` does, so `b_t` holds ids. The answers are
/// the kernel's; only the route differs.
#[derive(Debug, Clone)]
pub struct VmisNoOpt {
    index: Arc<SessionIndex>,
    config: VmisConfig,
    idf: FxHashMap<ItemId, f32>,
}

/// The buffers [`VmisNoOpt`] reuses across requests, as the kernel reuses
/// its `Scratch`, so that the two can be timed against each other.
#[derive(Debug, Default)]
pub struct NoOptScratch {
    /// The candidates `r`: id → (similarity, match position).
    r: FxHashMap<SessionId, (f32, usize)>,
    /// `b_t`: min-heap of the candidates' ids, the recency keys.
    bt: BinaryHeap<Reverse<SessionId>>,
    /// `N_s`: min-heap of the top k by (similarity bits, id).
    topk: BinaryHeap<Reverse<(u32, SessionId)>>,
}

impl VmisNoOpt {
    /// The `k` nearest neighbour sessions in ascending id order, as
    /// `VmisKnn::neighbors_with_scratch` returns them.
    pub fn neighbors_with_scratch(
        &self,
        session: &[ItemId],
        scratch: &mut NoOptScratch,
    ) -> Vec<Neighbor> {
        let NoOptScratch { r, bt, topk } = scratch;
        let cfg = &self.config;
        r.clear();
        bt.clear();
        topk.clear();
        let window = &session[session.len().saturating_sub(cfg.max_session_len)..];
        let wlen = window.len();
        // Distinct items from the most recent position backwards.
        for (i, &item) in window.iter().enumerate().rev() {
            if window[i + 1..].contains(&item) {
                continue;
            }
            let Some(posting) = self.index.postings(item) else { continue };
            let (pi, pos) = (cfg.decay.weight(i + 1, wlen), i + 1);
            for &j in posting {
                if let Some((similarity, _)) = r.get_mut(&j) {
                    *similarity += pi;
                } else if r.len() < cfg.m {
                    r.insert(j, (pi, pos));
                    bt.push(Reverse(j));
                } else {
                    let mut oldest = bt.peek_mut().expect("b_t holds the m candidates");
                    if j > oldest.0 {
                        r.remove(&oldest.0);
                        *oldest = Reverse(j);
                        r.insert(j, (pi, pos));
                    }
                }
            }
        }
        for (&j, &(similarity, _)) in r.iter() {
            let key = (similarity.to_bits(), j);
            if topk.len() < cfg.k {
                topk.push(Reverse(key));
            } else if let Some(mut least) = topk.peek_mut().filter(|least| key > least.0) {
                *least = Reverse(key);
            }
        }
        let mut neighbors: Vec<Neighbor> = (topk.iter())
            .map(|&Reverse((_, j))| Neighbor { session: j, similarity: r[&j].0, match_pos: r[&j].1 })
            .collect();
        neighbors.sort_unstable_by_key(|n| n.session);
        neighbors
    }
}

impl Recommender for VmisNoOpt {
    fn recommend(&self, session: &[ItemId], how_many: usize) -> Vec<ItemScore> {
        let neighbors = self.neighbors_with_scratch(session, &mut NoOptScratch::default());
        let pairs: Vec<(SessionId, f32)> = neighbors.iter().map(|n| (n.session, n.similarity)).collect();
        let (_, pos) = common::session_window(session, self.config.max_session_len);
        let mut recs = common::score_and_rank(
            &pairs,
            &pos,
            |sid| self.index.session_items(sid),
            &self.idf,
            &self.config,
        );
        recs.truncate(how_many);
        recs
    }

    fn name(&self) -> &str {
        "vmis-no-opt"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serenade_core::{Click, VmisKnn};

    #[test]
    fn vmis_noopt_reuses_its_buffers() {
        // Item 1 is in every session: with m = 2 the walk fills the sample,
        // evicts, and passes over the oldest entries.
        let clicks: Vec<Click> = (0..6u64)
            .flat_map(|s| [Click::new(s, 1, 10 * s), Click::new(s, 2 + s % 3, 10 * s + 1)])
            .collect();
        let index = Arc::new(SessionIndex::build(&clicks, 500).unwrap());
        let config = VmisConfig { m: 2, k: 1, ..VmisConfig::default() };
        let noopt = vmis_noopt(Arc::clone(&index), config.clone()).unwrap();
        let vmis = VmisKnn::new(index, config).unwrap();
        let (mut reused, mut kernel) = (NoOptScratch::default(), vmis.scratch());
        for session in [&[1u64, 3] as &[u64], &[2], &[4, 1], &[1, 3]] {
            assert_eq!(
                noopt.neighbors_with_scratch(session, &mut reused),
                vmis.neighbors_with_scratch(session, &mut kernel),
                "session {session:?}"
            );
        }
    }
}
