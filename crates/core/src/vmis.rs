//! The VMIS-kNN online computation (Algorithm 2 of the paper).
//!
//! Given an evolving session and the prebuilt [`SessionIndex`], VMIS-kNN
//! computes the `k` most similar historical sessions out of the `m` most
//! recent sessions sharing at least one item, then scores all items occurring
//! in those neighbours. DESIGN.md §4.8 describes the memory layout.
//!
//! ## One join: sort the window's postings, cut at `m`
//!
//! Dense session ids are assigned in ascending `(timestamp, external id)`
//! order, so the id alone is the recency key (proof in [`crate::index`]'s
//! module docs) and the kernel never reads a timestamp. The join gathers
//! one `u64` key per posting entry of the window's distinct items,
//! `(!id) << 32 | step`, and sorts them: ids descending, and within an id
//! the window's steps from the most recent position backwards. Walking the
//! sorted keys folds each run of one id into a candidate — its π terms
//! added in step order, its match position that of its first step — and
//! stops at `m` distinct ids. The top `k` by `(similarity, id)` are then
//! selected in place and sorted by id, the scoring order.
//!
//! **Why the cut is exact.** A session `j` among the `m` most recent
//! sessions sharing an item with the window, holding window item `x`, is in
//! `x`'s posting list: a list truncated at `m_max ≥ m` that left `j` out
//! would hold `m` sessions more recent than `j`, all sharing `x`, and `j`
//! would not be among the `m` most recent. So every such session is
//! gathered with every one of its window items, its sum is complete and its
//! first step is its most recent shared item.
//!
//! This replaces the paper's candidate map, recency heap `b_t`, early
//! stopping and top-k heap `N_s` with a sort and a selection that compute
//! the same result directly; intermediate state is at most window × `m_max`
//! keys instead of `O(m)` (DESIGN.md §3). `serenade-baselines`' `vmis_noopt`
//! keeps the paper's walk as a reference, and the test suites hold it, the
//! scan-based VS-kNN baseline and this kernel to identical neighbour sets.

use std::cmp::Reverse;
use std::sync::Arc;

use crate::error::CoreError;
use crate::index::{Posting, Row, SessionIndex};
use crate::types::{ItemId, ItemScore, SessionId};
use crate::weights::{DecayFunction, IdfWeighting, MatchWeight};

/// Hyperparameters and implementation knobs of VMIS-kNN.
#[derive(Debug, Clone, PartialEq)]
pub struct VmisConfig {
    /// Sample size `m`: how many of the most recent matching historical
    /// sessions to consider. Must not exceed the index's `m_max`.
    pub m: usize,
    /// Number of nearest neighbour sessions `k`.
    pub k: usize,
    /// How many recommendations to return (the paper's frontend needs 21).
    pub how_many: usize,
    /// Maximum number of (most recent) evolving-session items to consider.
    /// The paper caps this to bound the per-request latency.
    pub max_session_len: usize,
    /// Decay function π over evolving-session positions.
    pub decay: DecayFunction,
    /// Match weight λ over the position of the most recent shared item.
    pub match_weight: MatchWeight,
    /// Idf weighting of candidate items.
    pub idf: IdfWeighting,
    /// Multiply similarities by `1/|s|` as in original VS-kNN. VMIS-kNN drops
    /// this constant factor (it does not change the ranking); enable it to
    /// reproduce VS-kNN scores bit-for-bit.
    pub normalize_by_session_length: bool,
    /// Remove items that already occur in the evolving session from the
    /// recommendation list (typically desired when serving product pages).
    pub exclude_session_items: bool,
}

impl Default for VmisConfig {
    /// Paper-flavoured defaults: `m = 500`, `k = 100`, 21 recommendations,
    /// session cap 9 (keeps the paper's λ non-zero across the window),
    /// linear decay, the paper's linear match weight, `log(|H|/h_i)` idf.
    fn default() -> Self {
        Self {
            m: 500,
            k: 100,
            how_many: 21,
            max_session_len: 9,
            decay: DecayFunction::LinearByPosition,
            match_weight: MatchWeight::PaperLinear,
            idf: IdfWeighting::Log,
            normalize_by_session_length: false,
            exclude_session_items: false,
        }
    }
}

impl VmisConfig {
    /// Validates the configuration against an index: every count positive,
    /// `m` within the index's posting capacity `m_max`. [`VmisKnn::new`] and
    /// the baselines that share its config call this, so they accept and
    /// reject exactly the same configs.
    pub fn validate(&self, index: &SessionIndex) -> Result<(), CoreError> {
        fn positive(name: &'static str, v: usize) -> Result<(), CoreError> {
            if v == 0 {
                Err(CoreError::InvalidConfig {
                    parameter: name,
                    reason: "must be positive".into(),
                })
            } else {
                Ok(())
            }
        }
        positive("m", self.m)?;
        positive("k", self.k)?;
        positive("how_many", self.how_many)?;
        positive("max_session_len", self.max_session_len)?;
        let m_max = index.m_max();
        if self.m > m_max {
            return Err(CoreError::InvalidConfig {
                parameter: "m",
                reason: format!(
                    "sample size {} exceeds the index posting capacity m_max = {m_max}",
                    self.m,
                ),
            });
        }
        Ok(())
    }
}

/// What an accumulator cell holds between requests. Every contribution
/// `session_weight * idf` is ≥ 0 and never `-0.0`, and `-0.0 + x` has the
/// bits of `x`, so a cell with these bits has not been scored this request.
const CLEAR: f32 = -0.0;

/// What one request made the kernel do, counted in plain (non-atomic)
/// words of its [`Scratch`] — the answer to "why was this request slow".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelWork {
    /// Posting entries gathered (Σ over the window's postings).
    pub postings_walked: u32,
    /// Candidate sessions kept: the distinct ids of the gathered entries,
    /// cut at `m`.
    pub candidates: u32,
    /// Neighbour sessions whose items were scored.
    pub neighbors_scored: u32,
    /// Distinct items that received a score.
    pub slots_touched: u32,
}

/// Reusable per-thread buffers for the online computation.
///
/// A production recommendation server keeps one `Scratch` per worker thread
/// so that a steady-state request allocates nothing but the list it returns
/// (Rust Performance Book: reuse workhorse collections).
///
/// The accumulator is one `f32` per slot of the index, holding `CLEAR`
/// (`-0.0`) between requests. A request lists each slot in `touched` before
/// it first writes the slot's cell, and the next request starts by clearing
/// exactly those cells, so a request that unwound halfway leaves nothing
/// behind for the next one on the same scratch.
#[derive(Debug)]
pub struct Scratch {
    /// `(π, 1-based position)` of each step of the window's traversal plan.
    plan: Vec<(f32, u32)>,
    /// One key per gathered posting entry: `(!id) << 32 | step`.
    keys: Vec<u64>,
    /// The candidates `r`, then the `k` neighbours in ascending id order —
    /// the canonical scoring order.
    cands: Vec<Candidate>,
    /// Accumulator slots of the window's items (`exclude_session_items`).
    excluded: Vec<u32>,
    /// Candidate item scores `d`, indexed by accumulator slot; `CLEAR`
    /// (`-0.0`) in every cell the current request has not scored.
    acc: Vec<f32>,
    /// Slots scored by the current request, in first-touch order.
    touched: Vec<u32>,
    /// Ranking keys of the positively scored slots, complemented so that
    /// ascending is best first (see `take_top`).
    rank: Vec<u64>,
    work: KernelWork,
}

impl Scratch {
    /// Creates scratch buffers sized for the default configuration. Buffers
    /// grow on demand, so a `Scratch` works with any [`VmisKnn`]; sizing for
    /// the actual config ([`Scratch::for_config`]) merely avoids the first
    /// few reallocations.
    pub fn new() -> Self {
        Self::for_config(&VmisConfig::default())
    }

    /// Creates scratch buffers sized for `config`. The accumulator is sized
    /// by the *index* (one cell per distinct item), which a config cannot
    /// know — it grows to the recommender's slot count on first use.
    pub fn for_config(config: &VmisConfig) -> Self {
        Self {
            plan: Vec::new(),
            keys: Vec::with_capacity(config.m),
            cands: Vec::with_capacity(config.m),
            excluded: Vec::new(),
            acc: Vec::new(),
            touched: Vec::new(),
            rank: Vec::new(),
            work: KernelWork::default(),
        }
    }

    /// Work counters of the most recent request run on this scratch.
    pub fn work(&self) -> KernelWork {
        self.work
    }

    /// Readies the buffers for a request over `slots` distinct items:
    /// clears the cells the previous request touched, in O(touched) rather
    /// than O(slots).
    fn clear(&mut self, slots: usize) {
        self.plan.clear();
        self.keys.clear();
        self.cands.clear();
        self.excluded.clear();
        for &slot in &self.touched {
            self.acc[slot as usize] = CLEAR;
        }
        self.touched.clear();
        self.work = KernelWork::default();
        if self.acc.len() < slots {
            self.acc.resize(slots, CLEAR);
        }
    }
}

impl Default for Scratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Starts loading the first cache line of `row` into every cache level, so
/// that a later read of it does not wait for memory. A no-op where there is
/// no prefetch instruction to ask for.
#[inline(always)]
fn prefetch(row: Row<'_>) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint: it reads no memory into the program and
    // cannot fault, whatever the address, so any pointer is sound.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(row.as_ptr().cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
}

/// One step of a window's traversal plan: `(item, π, 1-based position)`.
type Step = (ItemId, f32, u32);

/// One candidate session of the current request, 12 bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Candidate {
    session: SessionId,
    /// Decayed similarity `r_j`.
    similarity: f32,
    /// 1-based window position of the most recent item it shares with the
    /// window.
    match_pos: u32,
}

/// A neighbour session together with its similarity score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Dense id of the historical session.
    pub session: SessionId,
    /// Decayed dot-product similarity `r_n`.
    pub similarity: f32,
    /// 1-based window position of the most recent item shared with the
    /// evolving session (the argument of the match weight λ).
    pub match_pos: usize,
}

/// The VMIS-kNN recommender: a session index plus hyperparameters.
#[derive(Debug, Clone)]
pub struct VmisKnn {
    index: Arc<SessionIndex>,
    config: VmisConfig,
    /// Idf weight by accumulator slot: `config.idf.weight(h_i, |H|)` for the
    /// slot of an item with a posting, 1.0 for any other. It is all the
    /// kernel keeps beside the index — `|H|` moves with every publish, so
    /// this table is what a publish rebuilds; the slots themselves, in the
    /// slot table and beside every session's items, are the index's.
    idf: Box<[f32]>,
}

impl VmisKnn {
    /// Creates a recommender over `index` with the given configuration.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] if a parameter is out of range or `m`
    /// exceeds the index's posting capacity.
    pub fn new(index: impl Into<Arc<SessionIndex>>, config: VmisConfig) -> Result<Self, CoreError> {
        let index = index.into();
        config.validate(&index)?;
        let num_sessions = index.num_sessions();
        let weight = |posting: Posting| match posting.support {
            0 => 1.0,
            support => config.idf.weight(support as usize, num_sessions),
        };
        let idf = index.records().iter().map(weight).collect();
        Ok(Self { index, config, idf })
    }

    /// The underlying index.
    pub fn index(&self) -> &SessionIndex {
        &self.index
    }

    /// A clone of the shared index handle.
    pub fn index_handle(&self) -> Arc<SessionIndex> {
        Arc::clone(&self.index)
    }

    /// The active configuration.
    pub fn config(&self) -> &VmisConfig {
        &self.config
    }

    /// Heap bytes of what this recommender keeps beside the index: the
    /// per-slot idf table.
    pub fn idf_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.idf)
    }

    /// Creates scratch buffers sized for this recommender.
    pub fn scratch(&self) -> Scratch {
        Scratch::for_config(&self.config)
    }

    /// Computes next-item recommendations for an evolving session, allocating
    /// fresh scratch buffers. Prefer [`recommend_with_scratch`] on hot paths.
    ///
    /// [`recommend_with_scratch`]: Self::recommend_with_scratch
    pub fn recommend(&self, session: &[ItemId]) -> Vec<ItemScore> {
        let mut scratch = self.scratch();
        self.recommend_with_scratch(session, &mut scratch)
    }

    /// Computes next-item recommendations reusing caller-provided buffers.
    ///
    /// Returns at most `config.how_many` items, sorted by descending score
    /// (ties broken by ascending item id for determinism); items with a
    /// non-positive score are omitted. An empty or unknown-items-only session
    /// yields an empty list.
    pub fn recommend_with_scratch(
        &self,
        session: &[ItemId],
        scratch: &mut Scratch,
    ) -> Vec<ItemScore> {
        self.score_with_scratch(session, scratch);
        self.take_top(scratch)
    }

    /// Non-personalised variant (Section 4.2 "Depersonalisation"): only the
    /// currently displayed item is used for the prediction. It *is*
    /// `recommend_with_scratch(&[current_item], ..)` — the serving engine
    /// calls that directly with its one-item view for `consent = false`
    /// requests and prediction-cache misses; this name is kept for callers
    /// that hold an item rather than a session.
    pub fn recommend_depersonalised(
        &self,
        current_item: ItemId,
        scratch: &mut Scratch,
    ) -> Vec<ItemScore> {
        self.recommend_with_scratch(&[current_item], scratch)
    }

    /// Computes only the `k` nearest neighbour sessions (the
    /// `neighbor_sessions_from_index` function of Algorithm 2), in
    /// ascending session-id order. Exposed for the index-design
    /// microbenchmark (Figure 3a, bottom).
    pub fn neighbors_with_scratch(
        &self,
        session: &[ItemId],
        scratch: &mut Scratch,
    ) -> Vec<Neighbor> {
        self.fill_neighbors(session, scratch);
        (scratch.cands.iter())
            .map(|c| Neighbor {
                session: c.session,
                similarity: c.similarity,
                match_pos: c.match_pos as usize,
            })
            .collect()
    }

    /// Runs the join and the score phase of [`recommend_with_scratch`] and
    /// stops before extraction: the scores stay in `scratch`, and
    /// [`Scratch::work`] counts what was scored. Exposed, with
    /// [`take_top`], so that a probe can time the kernel's phases apart
    /// without a clock read inside it.
    ///
    /// [`recommend_with_scratch`]: Self::recommend_with_scratch
    /// [`take_top`]: Self::take_top
    pub fn score_with_scratch(&self, session: &[ItemId], scratch: &mut Scratch) {
        let window = self.fill_neighbors(session, scratch);
        self.score_items(window, scratch);
    }

    /// Caps an evolving session to its most recent `max_session_len` items.
    #[inline]
    fn cap_window<'a>(&self, session: &'a [ItemId]) -> &'a [ItemId] {
        &session[session.len().saturating_sub(self.config.max_session_len)..]
    }

    /// The traversal plan of a capped window: its distinct items from the
    /// most recent position backwards (an item counts at its *latest*
    /// occurrence), each with its decay weight π and 1-based position.
    fn steps<'a>(&'a self, window: &'a [ItemId]) -> impl Iterator<Item = Step> + 'a {
        let wlen = window.len();
        (0..wlen).rev().filter(move |&i| !window[i + 1..].contains(&window[i])).map(move |i| {
            (window[i], self.config.decay.weight(i + 1, wlen), (i + 1) as u32)
        })
    }

    /// Runs the join and the top-k similarity step for `session` (the
    /// module docs give the shape and why it is exact), leaving the `k`
    /// neighbours in `scratch.cands` in ascending id order. Returns the
    /// capped window.
    fn fill_neighbors<'a>(&self, session: &'a [ItemId], scratch: &mut Scratch) -> &'a [ItemId] {
        let window = self.cap_window(session);
        scratch.clear(self.idf.len());
        let Scratch { plan, keys, cands, work, .. } = scratch;
        for (item, pi, pos) in self.steps(window) {
            let step = plan.len() as u64;
            plan.push((pi, pos));
            if let Some(posting) = self.index.postings(item) {
                keys.extend(posting.iter().map(|&session| u64::from(!session) << 32 | step));
            }
        }
        work.postings_walked = keys.len() as u32;
        keys.sort_unstable();
        for &key in keys.iter() {
            let session = !((key >> 32) as u32);
            let (pi, pos) = plan[key as u32 as usize];
            if let Some(c) = cands.last_mut().filter(|c| c.session == session) {
                c.similarity += pi;
            } else if cands.len() == self.config.m {
                break;
            } else {
                cands.push(Candidate { session, similarity: pi, match_pos: pos });
            }
        }
        work.candidates = cands.len() as u32;
        // Similarities are positive, so their bits order as the floats do;
        // ties go to the more recent session.
        let k = self.config.k;
        if cands.len() > k {
            cands.select_nth_unstable_by_key(k - 1, |c| Reverse((c.similarity.to_bits(), c.session)));
            cands.truncate(k);
        }
        cands.sort_unstable_by_key(|c| c.session);
        window
    }

    /// Scores all items occurring in the neighbour sessions (Algorithm 2,
    /// lines 6–7): `d_i = Σ_n 1_n(i) · λ(max(ω(s)⊙n)) · r_n · idf_i`, where
    /// `max(ω(s)⊙n)` is the neighbour's recorded match position.
    ///
    /// One neighbour costs one contiguous read of its slots — each a few
    /// bytes, its segment's width, decoded by [`Row`] — and per item one idf
    /// and one 4-byte accumulator cell. First touch of a cell
    /// adds to `CLEAR` (`-0.0`), which gives the contribution's own bits —
    /// what a map's `or_insert(0.0)` followed by `+=` would store — so the
    /// f32 operations, and hence the output bits, are those of the plain
    /// formulation. A slot is listed in `touched` before its cell is first
    /// written, so the next request's `Scratch::clear` finds every cell
    /// this one wrote even if it unwinds halfway.
    ///
    /// The loop is bound by memory, not arithmetic (DESIGN.md §4.8): a
    /// batch's rows are located and prefetched before any is read, so their
    /// misses overlap, and a first touch is recorded without a branch — the
    /// slot is written past the listed end of `touched` every time and the
    /// end moves only when the cell was `CLEAR` — because a mispredicted
    /// first-touch test would stall the loads of the next row behind it.
    fn score_items(&self, window: &[ItemId], scratch: &mut Scratch) {
        let cfg = &self.config;
        let Scratch { cands, excluded, acc, touched, work, .. } = scratch;
        let wlen = window.len();
        let norm = if cfg.normalize_by_session_length { 1.0 / wlen as f32 } else { 1.0 };
        if cfg.exclude_session_items {
            // A window item's slot comes with its posting; an item without
            // one found no neighbour and has nothing to exclude.
            excluded.extend(window.iter().filter_map(|&item| self.index.item_slot(item)));
        }
        // Slices, not the `Vec`s, here and for `touched` below: the loop
        // keeps their lengths in registers instead of reading them again
        // after every store, and, testing `excluded` for emptiness before
        // searching it, runs without the search when nothing is excluded.
        let excluded = &excluded[..];
        // One bounds check covers both per-slot tables: `clear` made `acc`
        // at least as long as `idf`.
        let idf = &self.idf[..];
        let acc = &mut acc[..idf.len()];
        // Locate a batch of neighbours' slots, and prefetch each row, before
        // reading any: the session-offset lookups and the rows are
        // independent cache misses that overlap here, instead of each one
        // stalling the accumulation behind it.
        let mut runs: [(Row<'_>, f32); 32] = [(Row::default(), 0.0); 32];
        // `touched[..listed]` are the slots scored so far; `touched` itself
        // is longer while a batch runs, so every slot the batch writes is in
        // it before its cell is.
        let mut listed = touched.len();
        for neighbors in cands.chunks(runs.len()) {
            let (mut located, mut cells) = (0, 0);
            for c in neighbors {
                let lambda = cfg.match_weight.weight(c.match_pos as usize, wlen);
                if lambda > 0.0 {
                    let weight = lambda * c.similarity * norm;
                    let slots = self.index.session_slots(c.session);
                    prefetch(slots);
                    runs[located] = (slots, weight);
                    located += 1;
                    cells += slots.len();
                }
            }
            work.neighbors_scored += located as u32;
            touched.resize(listed + cells, 0);
            let spare = &mut touched[..];
            for &(slots, session_weight) in &runs[..located] {
                for slot in slots.iter() {
                    if !excluded.is_empty() && excluded.contains(&slot) {
                        continue;
                    }
                    let contribution = session_weight * idf[slot as usize];
                    debug_assert!(contribution.to_bits() != CLEAR.to_bits());
                    let a = &mut acc[slot as usize];
                    spare[listed] = slot;
                    listed += usize::from(a.to_bits() == CLEAR.to_bits());
                    *a += contribution;
                }
            }
        }
        touched.truncate(listed);
        work.slots_touched = listed as u32;
    }

    /// Extracts the `how_many` highest-scored items, descending, as an
    /// exactly-sized list — the request's only allocation — from the scores
    /// the last [`score_with_scratch`] left in `scratch`: the last phase of
    /// [`recommend_with_scratch`].
    ///
    /// Touched slots are ranked as `!(score bits << 32 | slot)`. Only
    /// positive scores are kept, and for positive floats the integer order
    /// of the bits is `total_cmp`'s order, so selecting and sorting the
    /// complemented keys as plain integers, ascending, gives "descending
    /// score" in the integers' own order (through a comparator that
    /// reverses it, extraction took a third longer; EXPERIMENTS.md X20) —
    /// and, among equal scores, an order by slot that means nothing: slots
    /// are numbered as items enter the index. Equal scores are frequent (a
    /// one-item window weighs all its neighbours alike) and must come out in
    /// ascending item id, so the ties are put right afterwards, through the
    /// slot → item table: the group that straddles the cut is selected by
    /// id, and each group left in the list is sorted by id. Only tied items
    /// have their ids read before the survivors are known.
    ///
    /// [`score_with_scratch`]: Self::score_with_scratch
    /// [`recommend_with_scratch`]: Self::recommend_with_scratch
    pub fn take_top(&self, scratch: &mut Scratch) -> Vec<ItemScore> {
        let Scratch { acc, touched, rank, .. } = scratch;
        rank.clear();
        rank.extend(touched.iter().filter_map(|&slot| {
            let score = acc[slot as usize];
            (score > 0.0).then(|| !(u64::from(score.to_bits()) << 32 | u64::from(slot)))
        }));
        let n = self.config.how_many.min(rank.len());
        if n == 0 {
            return Vec::new();
        }
        let slot_items = self.index.slot_items();
        let item = |key: &u64| slot_items.get(!*key as u32 as usize);
        if n < rank.len() {
            rank.select_nth_unstable(n - 1);
            // Items that tie with the last one in compete for its place and
            // the ones beside it by id: gather them around position n.
            let last = rank[n - 1] >> 32;
            let mut hi = n;
            for j in n..rank.len() {
                if rank[j] >> 32 == last {
                    rank.swap(j, hi);
                    hi += 1;
                }
            }
            if hi > n {
                let mut lo = n;
                for i in (0..n).rev() {
                    if rank[i] >> 32 == last {
                        lo -= 1;
                        rank.swap(i, lo);
                    }
                }
                rank[lo..hi].select_nth_unstable_by_key(n - lo - 1, item);
            }
            rank.truncate(n);
        }
        rank.sort_unstable();
        for tied in rank.chunk_by_mut(|a, b| a >> 32 == b >> 32) {
            if tied.len() > 1 {
                tied.sort_unstable_by_key(item);
            }
        }
        rank.iter()
            .map(|key| ItemScore { item: item(key), score: f32::from_bits((!key >> 32) as u32) })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::*;
    use crate::types::Click;

    /// History of four sessions over six items; timestamps strictly increase.
    fn history() -> Vec<Click> {
        vec![
            // session A (oldest): items 1, 2
            Click::new(10, 1, 100),
            Click::new(10, 2, 110),
            // session B: items 2, 3
            Click::new(20, 2, 200),
            Click::new(20, 3, 210),
            // session C: items 1, 3, 4
            Click::new(30, 1, 300),
            Click::new(30, 3, 310),
            Click::new(30, 4, 320),
            // session D (newest): items 2, 4, 5
            Click::new(40, 2, 400),
            Click::new(40, 4, 410),
            Click::new(40, 5, 420),
        ]
    }

    fn knn(config: VmisConfig) -> VmisKnn {
        let index = SessionIndex::build(&history(), 500).unwrap();
        VmisKnn::new(index, config).unwrap()
    }

    #[test]
    fn empty_session_yields_no_recommendations() {
        let v = knn(VmisConfig::default());
        assert!(v.recommend(&[]).is_empty());
    }

    #[test]
    fn unknown_items_yield_no_recommendations() {
        let v = knn(VmisConfig::default());
        assert!(v.recommend(&[999, 888]).is_empty());
    }

    #[test]
    fn recommendations_are_sorted_and_bounded() {
        let mut cfg = VmisConfig::default();
        cfg.how_many = 2;
        let v = knn(cfg);
        let recs = v.recommend(&[1, 2]);
        assert!(recs.len() <= 2);
        assert!(recs.windows(2).all(|w| w[0].score >= w[1].score));
        assert!(recs.iter().all(|r| r.score > 0.0 && r.score.is_finite()));
    }

    #[test]
    fn neighbors_respect_k() {
        let mut cfg = VmisConfig::default();
        cfg.k = 2;
        let v = knn(cfg);
        let mut scratch = v.scratch();
        let n = v.neighbors_with_scratch(&[2], &mut scratch);
        assert_eq!(n.len(), 2);
        // Item 2 occurs in sessions A, B, D; the two most similar with equal
        // similarity are the most recent: B and D.
        let ids: Vec<SessionId> = {
            let mut ids: Vec<_> = n.iter().map(|x| x.session).collect();
            ids.sort_unstable();
            ids
        };
        // Dense ids: A=0, B=1, C=2, D=3.
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn similarity_matches_hand_computation() {
        // Session [1, 2]: π(1) = 1/2, π(2) = 2/2 = 1.
        // Session A = {1, 2}: r = 1/2 + 1 = 3/2.
        // Session B = {2, 3}: r = 1.   Session C = {1,3,4}: r = 1/2.
        // Session D = {2,4,5}: r = 1.
        let v = knn(VmisConfig::default());
        let mut scratch = v.scratch();
        let mut n = v.neighbors_with_scratch(&[1, 2], &mut scratch);
        n.sort_by_key(|x| x.session);
        let sims: Vec<f32> = n.iter().map(|x| x.similarity).collect();
        assert_eq!(n.len(), 4);
        assert!((sims[0] - 1.5).abs() < 1e-6, "A: {}", sims[0]);
        assert!((sims[1] - 1.0).abs() < 1e-6, "B: {}", sims[1]);
        assert!((sims[2] - 0.5).abs() < 1e-6, "C: {}", sims[2]);
        assert!((sims[3] - 1.0).abs() < 1e-6, "D: {}", sims[3]);
    }

    #[test]
    fn m_bounds_the_candidate_set_to_most_recent() {
        let mut cfg = VmisConfig::default();
        cfg.m = 2;
        let v = knn(cfg);
        let mut scratch = v.scratch();
        let n = v.neighbors_with_scratch(&[1, 2], &mut scratch);
        // Only the 2 most recent matching sessions may survive in r.
        assert!(n.len() <= 2);
        let mut ids: Vec<SessionId> = n.iter().map(|x| x.session).collect();
        ids.sort_unstable();
        // Most recent sessions containing 1 or 2 are C (id 2) and D (id 3).
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn a_candidate_is_twelve_bytes() {
        assert_eq!(std::mem::size_of::<Candidate>(), 12);
    }

    #[test]
    fn exclude_session_items_filters_inputs() {
        let mut cfg = VmisConfig::default();
        cfg.exclude_session_items = true;
        let v = knn(cfg);
        let recs = v.recommend(&[1, 2]);
        assert!(recs.iter().all(|r| r.item != 1 && r.item != 2));
    }

    #[test]
    fn depersonalised_equals_single_item_session() {
        let v = knn(VmisConfig::default());
        let mut scratch = v.scratch();
        let a = v.recommend_depersonalised(2, &mut scratch);
        let b = v.recommend(&[2]);
        assert_eq!(a, b);
    }

    #[test]
    fn session_cap_uses_most_recent_items() {
        let mut cfg = VmisConfig::default();
        cfg.max_session_len = 1;
        let v = knn(cfg);
        // With cap 1 only the most recent item (2) is considered.
        let capped = v.recommend(&[1, 2]);
        let single = v.recommend(&[2]);
        assert_eq!(capped, single);
    }

    #[test]
    fn duplicate_items_use_latest_position() {
        let v = knn(VmisConfig::default());
        // [2, 1, 2] should equal [1, 2] in terms of the item set, with item 2
        // at the latest position — same as session [1, 2] for scoring.
        let a = v.recommend(&[2, 1, 2]);
        let b = v.recommend(&[1, 2]);
        // Positions differ (lengths 3 vs 2) so scores differ, but the two
        // must recommend the same item set ordering-independently.
        let items =
            |r: &[ItemScore]| { let mut v: Vec<_> = r.iter().map(|x| x.item).collect(); v.sort_unstable(); v };
        assert_eq!(items(&a), items(&b));
    }

    #[test]
    fn session_item_without_posting_weighs_one() {
        // Item 5 occurs only in session D = {2, 4, 5}; drop its posting the
        // way only a hand-assembled index can.
        let built = SessionIndex::build(&history(), 500).unwrap();
        let five = built.item_slot(5).unwrap();
        let slots = built.records().len();
        let dropped = [(five, Posting::default())];
        let records = Arc::new(built.records().patched(slots, slots, &dropped));
        let (arenas, segments) = (built.arenas().into(), built.segments().into());
        let (slot_table, slot_items) = (built.slot_table().clone(), built.slot_items().clone());
        let index = SessionIndex::from_generation(
            records, slot_table, arenas, segments, slot_items, built.m_max(),
        );
        let recs = VmisKnn::new(index, VmisConfig::default()).unwrap().recommend(&[2]);
        // λ(1, 1) · r_D · idf = 0.9 · 1 · 1.
        let five = recs.iter().find(|r| r.item == 5).expect("item 5 is scored");
        assert_eq!(five.score, MatchWeight::PaperLinear.weight(1, 1));
    }

    #[test]
    fn scratch_reuse_is_idempotent() {
        let v = knn(VmisConfig::default());
        let mut scratch = v.scratch();
        let first = v.recommend_with_scratch(&[1, 2], &mut scratch);
        let second = v.recommend_with_scratch(&[1, 2], &mut scratch);
        assert_eq!(first, second);
    }

    #[test]
    fn unwound_request_leaves_nothing_for_the_next() {
        let v = knn(VmisConfig::default());
        let mut scratch = v.scratch();
        // A request that unwinds after scoring: its cells are written and no
        // extraction follows.
        let window = v.fill_neighbors(&[1, 2], &mut scratch);
        v.score_items(window, &mut scratch);
        assert!(scratch.work().slots_touched > 0);
        for session in [&[1u64, 2] as &[u64], &[2, 4], &[3]] {
            assert_eq!(v.recommend_with_scratch(session, &mut scratch), v.recommend(session));
        }
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig { cases: 128 })]

        // The first-touch push has no branch: a slot is written past the
        // listed end of `touched` on every update and listed only when its
        // cell was clear. Whatever the window — repeated items, items the
        // index does not know (0, 11, 12), the window's own items excluded
        // or not — after each request, whole or cut off after scoring,
        // `touched` lists every cell that is not `CLEAR` once and nothing
        // else, which is what the next request's `clear` relies on.
        #[test]
        fn touched_lists_exactly_the_scored_cells(
            clicks in vec((1u64..=15, 1u64..=10, 0u64..=40), 1..80),
            k in 1usize..=8,
            exclude in any::<bool>(),
            requests in vec((vec(0u64..=12, 0..8), any::<bool>()), 1..8),
        ) {
            let clicks: Vec<Click> =
                clicks.into_iter().map(|(s, i, t)| Click::new(s, i, t)).collect();
            let config = VmisConfig { k, exclude_session_items: exclude, ..VmisConfig::default() };
            let v = VmisKnn::new(SessionIndex::build(&clicks, 500).unwrap(), config).unwrap();
            let mut scratch = v.scratch();
            for (window, whole) in &requests {
                if *whole {
                    let answer = v.recommend_with_scratch(window, &mut scratch);
                    prop_assert_eq!(answer, v.recommend(window));
                } else {
                    v.score_with_scratch(window, &mut scratch);
                }
                let listed: HashSet<u32> = scratch.touched.iter().copied().collect();
                prop_assert_eq!(listed.len(), scratch.touched.len(), "a slot listed twice");
                let scored: HashSet<u32> = (0..scratch.acc.len() as u32)
                    .filter(|&slot| scratch.acc[slot as usize].to_bits() != CLEAR.to_bits())
                    .collect();
                prop_assert_eq!(listed, scored);
                prop_assert_eq!(scratch.work().slots_touched as usize, scratch.touched.len());
            }
        }
    }

    #[test]
    fn item_in_every_session_is_touched_once_at_idf_zero() {
        // Item 1 is in both sessions, so its log idf is exactly 0 and every
        // contribution to it is +0.0: its cell must stop reading as clear.
        let clicks = vec![
            Click::new(1, 1, 10),
            Click::new(1, 2, 11),
            Click::new(2, 1, 20),
            Click::new(2, 3, 21),
        ];
        let v = VmisKnn::new(SessionIndex::build(&clicks, 500).unwrap(), VmisConfig::default())
            .unwrap();
        // Both neighbours: r = π(1, 1) = 1, λ(1, 1), idf of items 2 and 3 = ln 2.
        let score = MatchWeight::PaperLinear.weight(1, 1) * IdfWeighting::Log.weight(1, 2);
        let mut scratch = v.scratch();
        for _ in 0..2 {
            let recs = v.recommend_with_scratch(&[1], &mut scratch);
            assert_eq!(scratch.work().slots_touched, 3);
            let got: Vec<(ItemId, u32)> = recs.iter().map(|r| (r.item, r.score.to_bits())).collect();
            assert_eq!(got, vec![(2, score.to_bits()), (3, score.to_bits())]);
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let index = SessionIndex::build(&history(), 10).unwrap();
        for (param, cfg) in [
            ("m", VmisConfig { m: 0, ..VmisConfig::default() }),
            ("k", VmisConfig { k: 0, ..VmisConfig::default() }),
            ("how_many", VmisConfig { how_many: 0, ..VmisConfig::default() }),
            ("max_session_len", VmisConfig { max_session_len: 0, ..VmisConfig::default() }),
            ("m", VmisConfig { m: 11, ..VmisConfig::default() }), // > m_max = 10
        ] {
            let err = VmisKnn::new(index.clone(), cfg).unwrap_err();
            match err {
                CoreError::InvalidConfig { parameter, .. } => assert_eq!(parameter, param),
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn vs_knn_faithful_mode_changes_scores_not_ranking() {
        let vmis = knn(VmisConfig::default());
        let mut faithful_cfg = VmisConfig::default();
        faithful_cfg.normalize_by_session_length = true;
        let faithful = knn(faithful_cfg);
        let a = vmis.recommend(&[1, 2]);
        let b = faithful.recommend(&[1, 2]);
        let items = |r: &[ItemScore]| r.iter().map(|x| x.item).collect::<Vec<_>>();
        assert_eq!(items(&a), items(&b), "1/|s| is ranking-neutral");
        // But the absolute scores shrink by the factor 1/2.
        for (x, y) in a.iter().zip(&b) {
            assert!((y.score * 2.0 - x.score).abs() < 1e-5);
        }
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use crate::types::Click;

    #[test]
    fn k_may_exceed_m() {
        let clicks = vec![
            Click::new(1, 1, 10),
            Click::new(1, 2, 11),
            Click::new(2, 1, 20),
            Click::new(2, 3, 21),
        ];
        let index = SessionIndex::build(&clicks, 500).unwrap();
        let mut cfg = VmisConfig::default();
        cfg.m = 1;
        cfg.k = 50; // more neighbours requested than the sample can hold
        let v = VmisKnn::new(index, cfg).unwrap();
        let mut scratch = v.scratch();
        let n = v.neighbors_with_scratch(&[1], &mut scratch);
        assert_eq!(n.len(), 1, "at most m sessions can be neighbours");
    }

    #[test]
    fn how_many_larger_than_candidate_pool() {
        let clicks = vec![Click::new(1, 1, 10), Click::new(1, 2, 11)];
        let index = SessionIndex::build(&clicks, 500).unwrap();
        let mut cfg = VmisConfig::default();
        cfg.how_many = 1_000;
        cfg.idf = IdfWeighting::OnePlusLog; // keep single-session idf positive
        let v = VmisKnn::new(index, cfg).unwrap();
        let recs = v.recommend(&[1]);
        assert!(recs.len() <= 2, "cannot recommend more items than exist");
        assert!(!recs.is_empty());
    }

    #[test]
    fn items_in_every_session_score_zero_under_log_idf() {
        // log(|H|/h_i) = 0 when h_i = |H| — ubiquitous items are suppressed
        // entirely under the VMIS simplification (and kept under 1+log).
        let clicks = vec![
            Click::new(1, 1, 10),
            Click::new(1, 2, 11),
            Click::new(2, 1, 20),
            Click::new(2, 3, 21),
        ];
        let index = SessionIndex::build(&clicks, 500).unwrap();
        let log_variant = VmisKnn::new(index.clone(), VmisConfig::default()).unwrap();
        let recs = log_variant.recommend(&[2]);
        assert!(recs.iter().all(|r| r.item != 1), "ubiquitous item must score 0");
        let mut cfg = VmisConfig::default();
        cfg.idf = IdfWeighting::OnePlusLog;
        let vs_variant = VmisKnn::new(index, cfg).unwrap();
        let recs = vs_variant.recommend(&[2]);
        assert!(recs.iter().any(|r| r.item == 1), "1+log keeps it");
    }

    #[test]
    fn long_sessions_are_capped_to_window() {
        let mut clicks = Vec::new();
        for s in 0..10u64 {
            clicks.push(Click::new(s + 1, s % 4, 100 + s * 10));
            clicks.push(Click::new(s + 1, (s + 1) % 4, 101 + s * 10));
        }
        let index = SessionIndex::build(&clicks, 500).unwrap();
        let v = VmisKnn::new(index, VmisConfig::default()).unwrap();
        // A 30-item session: only the final max_session_len items matter.
        let long: Vec<ItemId> = (0..30).map(|i| i % 4).collect();
        let window = long[long.len() - v.config().max_session_len..].to_vec();
        assert_eq!(v.recommend(&long), v.recommend(&window));
    }

    #[test]
    fn scratch_pool_sizes_follow_config() {
        let clicks = vec![Click::new(1, 1, 10), Click::new(1, 2, 11)];
        let index = SessionIndex::build(&clicks, 500).unwrap();
        let cfg = VmisConfig { m: 1, k: 1, ..VmisConfig::default() };
        let v = VmisKnn::new(index, cfg).unwrap();
        // Indirect check: scratch sized for this config works for it, and
        // default-sized scratch answers the same.
        let mut scratch = v.scratch();
        let sized = v.recommend_with_scratch(&[1], &mut scratch);
        assert_eq!(sized, v.recommend_with_scratch(&[1], &mut Scratch::new()));
    }
}
