//! Rust behavioural analogues of the alternative VMIS-kNN implementations
//! compared in Figure 3(a), top.
//!
//! The paper benchmarks its Rust implementation against VS-Py (pandas),
//! VMIS-Java (JVM), VMIS-SQL (DuckDB) and VMIS-Diff (differential dataflow).
//! We cannot run Python/Java/DuckDB here, but the *performance drivers* the
//! paper identifies are implementation strategies, not languages:
//!
//! * **full materialisation of intermediate results** (pandas dataframes,
//!   SQL nested subqueries) → [`PandasStyleVsKnn`], [`SqlStyleVmis`];
//! * **per-entry allocation and pointer indirection with no capacity
//!   control** (JVM object graphs, GC pressure) → [`AllocHeavyVmis`];
//! * **indexing every intermediate result to support incremental updates**
//!   (differential dataflow arrangements) → [`IncrementalVmis`].
//!
//! Each analogue isolates exactly one of those costs while producing
//! **bit-identical** predictions to the core implementation — the tests pin
//! this for every variant, which is the strongest form of the paper's
//! "equal predictive performance" requirement (Section 5.2.1).

use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::Arc;

use serenade_core::{
    CoreError, FxHashMap, ItemId, ItemScore, Recommender, SessionId, SessionIndex, Timestamp,
    VmisConfig,
};

use crate::common;

pub(crate) fn build_idf(index: &SessionIndex, config: &VmisConfig) -> FxHashMap<ItemId, f32> {
    let n = index.num_sessions();
    let mut idf = FxHashMap::default();
    for (item, posting) in index.postings_iter() {
        idf.insert(item, config.idf.weight(posting.support as usize, n));
    }
    idf
}

// ---------------------------------------------------------------------------
// VS-Py analogue
// ---------------------------------------------------------------------------

/// Pandas-style VS-kNN: every request materialises the complete join between
/// the evolving session and the matching historical sessions as a row table,
/// then runs group-by / sort / filter passes over fresh, SipHash-keyed
/// collections — the dataframe execution model of the Python reference code.
#[derive(Debug, Clone)]
pub struct PandasStyleVsKnn {
    index: Arc<SessionIndex>,
    config: VmisConfig,
    idf: FxHashMap<ItemId, f32>,
}

impl PandasStyleVsKnn {
    /// Creates the analogue over shared session data.
    pub fn new(
        index: impl Into<Arc<SessionIndex>>,
        config: VmisConfig,
    ) -> Result<Self, CoreError> {
        let index = index.into();
        config.validate(&index)?;
        let idf = build_idf(&index, &config);
        Ok(Self { index, config, idf })
    }
}

impl Recommender for PandasStyleVsKnn {
    fn recommend(&self, session: &[ItemId], how_many: usize) -> Vec<ItemScore> {
        let (window, pos) = common::session_window(session, self.config.max_session_len);
        if window.is_empty() {
            return Vec::new();
        }
        let wlen = window.len();

        // "merge": materialise every (item, session) match as a row.
        struct MatchRow {
            session: SessionId,
            timestamp: Timestamp,
            decay: f32,
        }
        let mut rows: Vec<MatchRow> = Vec::new();
        for (i, &item) in window.iter().enumerate().rev() {
            if pos[&item] != i + 1 {
                continue;
            }
            if let Some(posting) = self.index.postings(item) {
                let decay = self.config.decay.weight(i + 1, wlen);
                for &sid in posting {
                    rows.push(MatchRow {
                        session: sid,
                        // Deliberate `t` lookup per row: this analogue models
                        // the dataframe join against a separate timestamp
                        // column, which the kernel never reads.
                        timestamp: self.index.session_timestamp(sid),
                        decay,
                    });
                }
            }
        }

        // "groupby(session).agg(list)": per-session weight vectors in fresh
        // default-hasher maps (one Vec allocation per group).
        let mut groups: HashMap<SessionId, (Timestamp, Vec<f32>)> = HashMap::new();
        for row in rows {
            groups
                .entry(row.session)
                .or_insert_with(|| (row.timestamp, Vec::new()))
                .1
                .push(row.decay);
        }

        // "sort_values(timestamp).head(m)": full sort of all candidates.
        let mut by_recency: Vec<(Timestamp, SessionId)> =
            groups.iter().map(|(&sid, &(ts, _))| (ts, sid)).collect();
        by_recency.sort_unstable_by(|a, b| b.cmp(a));
        by_recency.truncate(self.config.m);

        // "sum" aggregation and top-k sort.
        let mut scored: Vec<(f32, Timestamp, SessionId)> = by_recency
            .into_iter()
            .map(|(ts, sid)| {
                let sim: f32 = groups[&sid].1.iter().copied().sum();
                (sim, ts, sid)
            })
            .collect();
        scored.sort_unstable_by(|a, b| b.partial_cmp(a).expect("finite"));
        scored.truncate(self.config.k);

        let neighbors: Vec<(SessionId, f32)> =
            scored.into_iter().map(|(sim, _, sid)| (sid, sim)).collect();
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
        "vs-py-analogue"
    }
}

// ---------------------------------------------------------------------------
// VMIS-Java analogue
// ---------------------------------------------------------------------------

/// Allocation-heavy VMIS-kNN: the same index-based algorithm, but with the
/// memory behaviour of a JVM implementation — boxed per-entry values
/// (pointer indirection like `java.lang.Double`), default-hasher maps grown
/// from zero capacity, fresh collections per request, and `std` binary heaps
/// rebuilt each time. No scratch reuse, no capacity control.
#[derive(Debug, Clone)]
pub struct AllocHeavyVmis {
    index: Arc<SessionIndex>,
    config: VmisConfig,
    idf: FxHashMap<ItemId, f32>,
}

impl AllocHeavyVmis {
    /// Creates the analogue over shared session data.
    pub fn new(
        index: impl Into<Arc<SessionIndex>>,
        config: VmisConfig,
    ) -> Result<Self, CoreError> {
        let index = index.into();
        config.validate(&index)?;
        let idf = build_idf(&index, &config);
        Ok(Self { index, config, idf })
    }
}

impl Recommender for AllocHeavyVmis {
    fn recommend(&self, session: &[ItemId], how_many: usize) -> Vec<ItemScore> {
        use std::cmp::Reverse;
        let (window, pos) = common::session_window(session, self.config.max_session_len);
        if window.is_empty() {
            return Vec::new();
        }
        let wlen = window.len();

        // Boxed similarity cells: every update dereferences a heap pointer.
        let mut r: HashMap<SessionId, Box<f32>> = HashMap::new();
        let mut bt: BinaryHeap<Reverse<(Timestamp, SessionId)>> = BinaryHeap::new();

        for (i, &item) in window.iter().enumerate().rev() {
            if pos[&item] != i + 1 {
                continue;
            }
            let Some(posting) = self.index.postings(item) else {
                continue;
            };
            let pi = self.config.decay.weight(i + 1, wlen);
            for &j in posting {
                if let Some(cell) = r.get_mut(&j) {
                    **cell += pi;
                    continue;
                }
                // Deliberate `t` chase per entry: this analogue models the
                // pointer-heavy layout, not the kernel's id-only keys.
                let key = (self.index.session_timestamp(j), j);
                if r.len() < self.config.m {
                    r.insert(j, Box::new(pi));
                    bt.push(Reverse(key));
                } else {
                    let Reverse(root) = *bt.peek().expect("heap non-empty");
                    if key > root {
                        bt.pop();
                        bt.push(Reverse(key));
                        r.remove(&root.1);
                        r.insert(j, Box::new(pi));
                    } else {
                        break; // early stopping still applies
                    }
                }
            }
        }

        let mut topk: BinaryHeap<Reverse<(f32ord, Timestamp, SessionId)>> = BinaryHeap::new();
        for (&sid, cell) in &r {
            let key = (f32ord(**cell), self.index.session_timestamp(sid), sid);
            if topk.len() < self.config.k {
                topk.push(Reverse(key));
            } else if key > topk.peek().expect("non-empty").0 {
                topk.pop();
                topk.push(Reverse(key));
            }
        }
        let neighbors: Vec<(SessionId, f32)> =
            topk.into_iter().map(|Reverse((sim, _, sid))| (sid, sim.0)).collect();
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
        "vmis-java-analogue"
    }
}

/// Totally ordered f32 wrapper for the `std` heap (scores are finite).
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(non_camel_case_types)]
struct f32ord(f32);

impl Eq for f32ord {}
impl PartialOrd for f32ord {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for f32ord {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("finite score")
    }
}

// ---------------------------------------------------------------------------
// VMIS-SQL analogue
// ---------------------------------------------------------------------------

/// SQL-style VMIS-kNN: executes the recommendation as the blocking
/// relational plan the paper's deeply nested subqueries induce — every stage
/// **fully materialises** its output before the next one starts:
///
/// 1. join the session items with the inverted index into a row table;
/// 2. `GROUP BY session` via sort-aggregate;
/// 3. `ORDER BY timestamp DESC LIMIT m`;
/// 4. `ORDER BY similarity DESC LIMIT k`;
/// 5. join neighbours with their item lists into a second row table;
/// 6. `GROUP BY item` via sort-aggregate for the final scores.
#[derive(Debug, Clone)]
pub struct SqlStyleVmis {
    index: Arc<SessionIndex>,
    config: VmisConfig,
    idf: FxHashMap<ItemId, f32>,
}

impl SqlStyleVmis {
    /// Creates the analogue over shared session data.
    pub fn new(
        index: impl Into<Arc<SessionIndex>>,
        config: VmisConfig,
    ) -> Result<Self, CoreError> {
        let index = index.into();
        config.validate(&index)?;
        let idf = build_idf(&index, &config);
        Ok(Self { index, config, idf })
    }
}

impl Recommender for SqlStyleVmis {
    fn recommend(&self, session: &[ItemId], how_many: usize) -> Vec<ItemScore> {
        let (window, pos) = common::session_window(session, self.config.max_session_len);
        if window.is_empty() {
            return Vec::new();
        }
        let wlen = window.len();

        // Stage 1: JOIN — (session, ts, decay, reverse_order) rows.
        let mut join: Vec<(SessionId, Timestamp, f32, usize)> = Vec::new();
        for (i, &item) in window.iter().enumerate().rev() {
            if pos[&item] != i + 1 {
                continue;
            }
            if let Some(posting) = self.index.postings(item) {
                let decay = self.config.decay.weight(i + 1, wlen);
                for &sid in posting {
                    // Deliberate `t` lookup per row (SQL join with the
                    // timestamp table), as in the dataframe analogue.
                    join.push((sid, self.index.session_timestamp(sid), decay, wlen - i));
                }
            }
        }

        // Stage 2: GROUP BY session (sort-aggregate). The secondary sort key
        // preserves reverse-window summation order within each group.
        join.sort_unstable_by_key(|&(sid, _, _, ord)| (sid, ord));
        let mut groups: Vec<(SessionId, Timestamp, f32)> = Vec::new();
        for &(sid, ts, decay, _) in &join {
            match groups.last_mut() {
                Some(last) if last.0 == sid => last.2 += decay,
                _ => groups.push((sid, ts, decay)),
            }
        }

        // Stage 3: ORDER BY ts DESC LIMIT m.
        groups.sort_unstable_by_key(|&(sid, ts, _)| std::cmp::Reverse((ts, sid)));
        groups.truncate(self.config.m);

        // Stage 4: ORDER BY similarity DESC LIMIT k.
        groups.sort_unstable_by(|a, b| {
            (b.2, b.1, b.0).partial_cmp(&(a.2, a.1, a.0)).expect("finite")
        });
        groups.truncate(self.config.k);

        // Stages 5+6: join neighbours with item lists, group by item.
        let neighbors: Vec<(SessionId, f32)> =
            groups.into_iter().map(|(sid, _, sim)| (sid, sim)).collect();
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
        "vmis-sql-analogue"
    }
}

// ---------------------------------------------------------------------------
// VMIS-Diff analogue
// ---------------------------------------------------------------------------

/// Differential-dataflow-style VMIS-kNN: maintains an **arrangement** — an
/// ordered index over *all* matched sessions, not just the top `m` — that is
/// updated incrementally as the evolving session grows, exactly like a
/// dataflow system that must keep every intermediate result indexed to
/// support updates. Queries read the arrangement and extract the answer.
///
/// Restricted to the linear-by-position decay (the paper's default), whose
/// unnormalised form `Σ position` is incrementally maintainable; the `1/len`
/// factor is applied at query time. Works on growing sessions without item
/// eviction; when the session exceeds `max_session_len`, the state is rebuilt
/// (a dataflow system would issue retractions — same asymptotic cost).
#[derive(Debug, Clone)]
pub struct IncrementalVmis {
    index: Arc<SessionIndex>,
    config: VmisConfig,
    idf: FxHashMap<ItemId, f32>,
}

/// Mutable per-evolving-session state of [`IncrementalVmis`].
#[derive(Debug)]
pub struct IncrementalSessionState {
    /// Raw item sequence observed so far.
    items: Vec<ItemId>,
    /// Arrangement: unnormalised similarity (Σ positions) per matched
    /// session, for **all** matched sessions — the memory cost the paper
    /// attributes to differential dataflow.
    arrangement: BTreeMap<SessionId, f64>,
    /// Latest contributed position per window item (for retractions on
    /// duplicate re-arrival).
    contributed: FxHashMap<ItemId, usize>,
}

impl IncrementalVmis {
    /// Creates the analogue over shared session data.
    ///
    /// # Errors
    ///
    /// Besides the usual validation, rejects decay functions other than
    /// [`serenade_core::DecayFunction::LinearByPosition`], which is the only
    /// one whose per-item contributions are incrementally maintainable.
    pub fn new(
        index: impl Into<Arc<SessionIndex>>,
        config: VmisConfig,
    ) -> Result<Self, CoreError> {
        let index = index.into();
        config.validate(&index)?;
        if config.decay != serenade_core::DecayFunction::LinearByPosition {
            return Err(CoreError::InvalidConfig {
                parameter: "decay",
                reason: "the incremental variant requires LinearByPosition decay".into(),
            });
        }
        let idf = build_idf(&index, &config);
        Ok(Self { index, config, idf })
    }

    /// Starts a new evolving session.
    pub fn start_session(&self) -> IncrementalSessionState {
        IncrementalSessionState {
            items: Vec::new(),
            arrangement: BTreeMap::new(),
            contributed: FxHashMap::default(),
        }
    }

    /// Feeds the next click and returns the updated recommendations.
    pub fn observe(
        &self,
        state: &mut IncrementalSessionState,
        item: ItemId,
        how_many: usize,
    ) -> Vec<ItemScore> {
        state.items.push(item);
        if state.items.len() > self.config.max_session_len
            || state.contributed.contains_key(&item)
        {
            // Window slide or duplicate: rebuild (≙ batched retractions).
            self.rebuild(state);
        } else {
            let p = state.items.len();
            state.contributed.insert(item, p);
            if let Some(posting) = self.index.postings(item) {
                for &sid in posting {
                    *state.arrangement.entry(sid).or_insert(0.0) += p as f64;
                }
            }
        }
        self.query(state, how_many)
    }

    fn rebuild(&self, state: &mut IncrementalSessionState) {
        state.arrangement.clear();
        state.contributed.clear();
        let from = state.items.len().saturating_sub(self.config.max_session_len);
        let window = state.items[from..].to_vec();
        for (i, &it) in window.iter().enumerate() {
            state.contributed.insert(it, i + 1);
        }
        for (&it, &p) in &state.contributed {
            // Use the *latest* position of each distinct item.
            if window[p - 1] != it {
                continue;
            }
            if let Some(posting) = self.index.postings(it) {
                for &sid in posting {
                    *state.arrangement.entry(sid).or_insert(0.0) += p as f64;
                }
            }
        }
    }

    /// Reads the arrangement: m most recent matches, top-k by similarity,
    /// then the shared scoring stage.
    ///
    /// The arrangement's maintained aggregate is the *unnormalised* `Σ pos`;
    /// the exact decayed similarity is recomputed over the (short) window
    /// for the `m` sampled candidates in the same f32 summation order as the
    /// core implementation, so the outputs are bit-identical — a dataflow
    /// system maintaining exact aggregates would behave the same way.
    fn query(&self, state: &IncrementalSessionState, how_many: usize) -> Vec<ItemScore> {
        let wlen = state.contributed.values().copied().max().unwrap_or(0);
        if wlen == 0 {
            return Vec::new();
        }
        let from = state.items.len().saturating_sub(self.config.max_session_len);
        let window = &state.items[from..];
        let mut recent: Vec<(Timestamp, SessionId)> = state
            .arrangement
            .keys()
            .map(|&sid| (self.index.session_timestamp(sid), sid))
            .collect();
        recent.sort_unstable_by(|a, b| b.cmp(a));
        recent.truncate(self.config.m);

        let mut scored: Vec<(f32, Timestamp, SessionId)> = recent
            .into_iter()
            .map(|(ts, sid)| {
                let items = self.index.session_items(sid);
                let mut sim = 0.0f32;
                for (i, &item) in window.iter().enumerate().rev() {
                    if state.contributed.get(&item) != Some(&(i + 1)) {
                        continue; // duplicate occurrence
                    }
                    if items.contains(&item) {
                        sim += self.config.decay.weight(i + 1, wlen);
                    }
                }
                (sim, ts, sid)
            })
            .filter(|&(sim, _, _)| sim > 0.0)
            .collect();
        scored.sort_unstable_by(|a, b| b.partial_cmp(a).expect("finite"));
        scored.truncate(self.config.k);

        let neighbors: Vec<(SessionId, f32)> =
            scored.into_iter().map(|(sim, _, sid)| (sid, sim)).collect();
        let pos: FxHashMap<ItemId, usize> =
            state.contributed.iter().map(|(&i, &p)| (i, p)).collect();
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
}

impl Recommender for IncrementalVmis {
    /// Stateless adapter: replays the prefix through a fresh state. Used for
    /// prediction-quality parity; latency experiments drive the stateful
    /// [`IncrementalVmis::observe`] API instead.
    fn recommend(&self, session: &[ItemId], how_many: usize) -> Vec<ItemScore> {
        let mut state = self.start_session();
        let mut out = Vec::new();
        for &item in session {
            out = self.observe(&mut state, item, how_many);
        }
        out
    }

    fn name(&self) -> &str {
        "vmis-diff-analogue"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serenade_core::{Click, VmisKnn};

    fn history() -> Vec<Click> {
        let mut clicks = Vec::new();
        // 40 sessions over 12 items with varied overlap.
        for s in 0..40u64 {
            let base = s % 12;
            let ts = 1_000 + s * 50;
            clicks.push(Click::new(s + 1, base, ts));
            clicks.push(Click::new(s + 1, (base + 1) % 12, ts + 1));
            if s % 3 == 0 {
                clicks.push(Click::new(s + 1, (base + 5) % 12, ts + 2));
            }
        }
        clicks
    }

    fn sessions() -> Vec<Vec<ItemId>> {
        vec![vec![0, 1], vec![3], vec![5, 6, 7], vec![11, 0, 1, 2], vec![9, 9, 10]]
    }

    fn reference() -> (Arc<SessionIndex>, VmisConfig, VmisKnn) {
        let index = Arc::new(SessionIndex::build(&history(), 500).unwrap());
        let mut cfg = VmisConfig::default();
        cfg.m = 10;
        cfg.k = 5;
        let vmis = VmisKnn::new(Arc::clone(&index), cfg.clone()).unwrap();
        (index, cfg, vmis)
    }

    #[test]
    fn pandas_analogue_matches_core_exactly() {
        let (index, cfg, vmis) = reference();
        let alt = PandasStyleVsKnn::new(index, cfg).unwrap();
        for s in sessions() {
            assert_eq!(
                Recommender::recommend(&alt, &s, 21),
                Recommender::recommend(&vmis, &s, 21),
                "session {s:?}"
            );
        }
    }

    #[test]
    fn alloc_heavy_analogue_matches_core_exactly() {
        let (index, cfg, vmis) = reference();
        let alt = AllocHeavyVmis::new(index, cfg).unwrap();
        for s in sessions() {
            assert_eq!(
                Recommender::recommend(&alt, &s, 21),
                Recommender::recommend(&vmis, &s, 21),
                "session {s:?}"
            );
        }
    }

    #[test]
    fn sql_analogue_matches_core_exactly() {
        let (index, cfg, vmis) = reference();
        let alt = SqlStyleVmis::new(index, cfg).unwrap();
        for s in sessions() {
            assert_eq!(
                Recommender::recommend(&alt, &s, 21),
                Recommender::recommend(&vmis, &s, 21),
                "session {s:?}"
            );
        }
    }

    #[test]
    fn incremental_analogue_matches_core_exactly() {
        let (index, cfg, vmis) = reference();
        let alt = IncrementalVmis::new(index, cfg).unwrap();
        for s in sessions() {
            assert_eq!(
                Recommender::recommend(&alt, &s, 21),
                Recommender::recommend(&vmis, &s, 21),
                "session {s:?}"
            );
        }
    }

    #[test]
    fn incremental_stateful_equals_stateless_replay() {
        let (index, cfg, _) = reference();
        let alt = IncrementalVmis::new(index, cfg).unwrap();
        let session = [0u64, 1, 5, 0, 2];
        let mut state = alt.start_session();
        let mut stateful = Vec::new();
        for (t, &item) in session.iter().enumerate() {
            stateful = alt.observe(&mut state, item, 21);
            let replay = Recommender::recommend(&alt, &session[..=t], 21);
            assert_eq!(stateful, replay, "prefix {}", t + 1);
        }
        assert!(!stateful.is_empty());
    }

    #[test]
    fn incremental_rejects_nonlinear_decay() {
        let index = Arc::new(SessionIndex::build(&history(), 500).unwrap());
        let mut cfg = VmisConfig::default();
        cfg.decay = serenade_core::DecayFunction::Harmonic;
        assert!(IncrementalVmis::new(index, cfg).is_err());
    }

    #[test]
    fn incremental_handles_window_slide() {
        let (index, mut cfg, _) = reference();
        cfg.max_session_len = 3;
        let alt = IncrementalVmis::new(index, cfg).unwrap();
        // 5 items with cap 3 — forces rebuilds.
        let session = [0u64, 1, 2, 3, 4];
        let mut state = alt.start_session();
        let mut last = Vec::new();
        for &item in &session {
            last = alt.observe(&mut state, item, 21);
        }
        let replay = Recommender::recommend(&alt, &session, 21);
        assert_eq!(last, replay);
    }

    #[test]
    fn analogues_handle_empty_and_unknown_sessions() {
        let (index, cfg, _) = reference();
        let recs: Vec<Box<dyn Recommender>> = vec![
            Box::new(PandasStyleVsKnn::new(Arc::clone(&index), cfg.clone()).unwrap()),
            Box::new(AllocHeavyVmis::new(Arc::clone(&index), cfg.clone()).unwrap()),
            Box::new(SqlStyleVmis::new(Arc::clone(&index), cfg.clone()).unwrap()),
            Box::new(IncrementalVmis::new(index, cfg).unwrap()),
        ];
        for r in &recs {
            assert!(r.recommend(&[], 10).is_empty(), "{}", r.name());
            assert!(r.recommend(&[424242], 10).is_empty(), "{}", r.name());
        }
    }
}
