//! The VMIS-kNN online computation (Algorithm 2 of the paper).
//!
//! Given an evolving session and the prebuilt [`SessionIndex`], VMIS-kNN
//! computes the `k` most similar historical sessions out of the `m` most
//! recent sessions sharing at least one item, then scores all items occurring
//! in those neighbours. Intermediate state is bounded: a candidate table `r`
//! of at most `m` sessions ([`crate::candidates`]), a recency min-heap `b_t`
//! of capacity `m` driving eviction of the oldest candidate, and a top-k
//! min-heap `N_s`. DESIGN.md §4.8 describes the memory layout.
//!
//! Because each posting list is sorted by descending recency, the session
//! loop can **early-stop** as soon as the current historical session is no
//! more recent than the oldest session tracked in the full heap `b_t` — no
//! later entry of the posting list can be admitted either.
//!
//! ## Tie-breaking refinement
//!
//! The paper compares raw timestamps (`t_j > t_l`), which leaves eviction
//! undecided between sessions of equal timestamp. We order candidates by
//! the composite key `(timestamp, session id)`, a *strict* total order —
//! and since dense ids are assigned in ascending `(timestamp, external id)`
//! order, that key orders sessions exactly as the id alone does (proof in
//! [`crate::index`]'s module docs). So the kernel never reads a timestamp:
//! `b_t` is a heap of ids, the top-k key is `(similarity, id)`, and early
//! stopping compares ids. Eviction is deterministic under timestamp ties
//! and early stopping is **exact**: VMIS-kNN with and without early
//! stopping, and the scan-based VS-kNN baseline, all return identical
//! neighbour sets — a property the test suite verifies.

use std::sync::Arc;

use crate::candidates::{Candidate, CandidateTable};
use crate::error::CoreError;
use crate::heap::DaryHeap;
use crate::index::SessionIndex;
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
    /// Early stopping on the recency-sorted posting lists (Section 3).
    pub early_stopping: bool,
    /// Remove items that already occur in the evolving session from the
    /// recommendation list (typically desired when serving product pages).
    pub exclude_session_items: bool,
}

impl Default for VmisConfig {
    /// Paper-flavoured defaults: `m = 500`, `k = 100`, 21 recommendations,
    /// session cap 9 (keeps the paper's λ non-zero across the window),
    /// linear decay, the paper's linear match weight, `log(|H|/h_i)` idf,
    /// early stopping on.
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
            early_stopping: true,
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

/// One accumulator cell: `val` is the item's score `d_i` only while `epoch`
/// equals the scratch's current epoch; stale cells cost nothing to clear.
#[derive(Debug, Clone, Copy, Default)]
struct AccCell {
    epoch: u32,
    val: f32,
}

/// What one request made the kernel do, counted in plain (non-atomic)
/// words of its [`Scratch`] — the answer to "why was this request slow".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelWork {
    /// Posting entries read by the item-intersection loop.
    pub postings_walked: u32,
    /// Sessions admitted to the candidate table (evicted ones included).
    pub candidates: u32,
    /// Candidates evicted again because the table was full at `m`.
    pub evicted: u32,
    /// Posting walks cut short by early stopping.
    pub early_stops: u32,
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
#[derive(Debug)]
pub struct Scratch {
    /// The candidate sessions `r` with their similarities and match
    /// positions.
    table: CandidateTable,
    /// Min-heap `b_t` over the ids (the recency keys) of the candidates;
    /// built only once the table is full and an eviction has to be decided.
    bt: DaryHeap<SessionId, ()>,
    /// Min-heap `N_s` over (similarity, id) → dense candidate index, used
    /// only when there are more than `k` candidates.
    topk: DaryHeap<(f32, SessionId), u32>,
    /// The neighbours as `session << 32 | dense candidate index`, sorted —
    /// the canonical (ascending session id) scoring order.
    order: Vec<u64>,
    /// Accumulator slots of the window's items (`exclude_session_items`).
    excluded: Vec<u32>,
    /// Candidate item scores `d`, indexed by accumulator slot.
    acc: Vec<AccCell>,
    /// Current accumulator epoch; never 0, so fresh cells are always stale.
    epoch: u32,
    /// Slots touched this epoch, in first-touch order.
    touched: Vec<u32>,
    /// Ranking keys of the positively scored slots (see `take_top`).
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
            table: CandidateTable::with_capacity(config.m),
            bt: DaryHeap::with_capacity(config.m),
            topk: DaryHeap::with_capacity(config.k),
            order: Vec::with_capacity(config.k),
            excluded: Vec::new(),
            acc: Vec::new(),
            epoch: 1,
            touched: Vec::new(),
            rank: Vec::new(),
            work: KernelWork::default(),
        }
    }

    /// Work counters of the most recent request run on this scratch.
    pub fn work(&self) -> KernelWork {
        self.work
    }

    /// Test hook: restarts both epoch counters (candidate table and
    /// accumulator) at `epoch`, so a test can cross the wrap-around.
    #[doc(hidden)]
    pub fn set_epoch(&mut self, epoch: u32) {
        self.table.set_epoch(epoch);
        self.acc.fill(AccCell::default());
        self.epoch = epoch;
    }

    /// Readies the buffers for a request with sample size `m` over `slots`
    /// distinct items.
    fn clear(&mut self, m: usize, slots: usize) {
        self.table.reset(m);
        self.bt.clear();
        self.topk.clear();
        self.order.clear();
        self.excluded.clear();
        self.touched.clear();
        self.rank.clear();
        self.work = KernelWork::default();
        if self.acc.len() < slots {
            self.acc.resize(slots, AccCell::default());
        }
        // Advancing the epoch invalidates every accumulator cell in O(1).
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.acc.fill(AccCell::default());
            self.epoch = 1;
        }
    }
}

impl Default for Scratch {
    fn default() -> Self {
        Self::new()
    }
}

/// One step of a window's traversal plan: `(item, π, 1-based position)`.
type Step = (ItemId, f32, u32);

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
    /// postings and beside every session's items, are the index's.
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
        let mut idf: Box<[f32]> = vec![1.0; index.slot_items().len()].into();
        for (_, posting) in index.postings_iter() {
            idf[posting.slot as usize] = config.idf.weight(posting.support as usize, num_sessions);
        }
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
        let window = self.fill_neighbors(session, scratch);
        self.score_items(window, scratch);
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
        let cands = scratch.table.as_slice();
        scratch
            .order
            .iter()
            .map(|&packed| {
                let c = cands[packed as u32 as usize];
                Neighbor {
                    session: c.session,
                    similarity: c.similarity,
                    match_pos: c.match_pos as usize,
                }
            })
            .collect()
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

    /// One step of the item-intersection loop: merges `item`'s posting list
    /// into the candidate table with decay weight `pi`.
    ///
    /// **Match position.** A candidate records `pos`, the position of the
    /// item that admitted it, and scoring takes that as the position of the
    /// most recent item it shares with the window. Steps run from the most
    /// recent position backwards, so this holds if no earlier step's item
    /// `B` is also in the session `j` without having admitted it. Suppose
    /// one were. If `j` is in `B`'s posting list, the walk either rejected
    /// it or stopped early before it: the table was full and `b_t`'s root
    /// at least as recent as `j`. If `j` was truncated out of the list, the
    /// list holds `m_max ≥ m` sessions more recent than `j`; while the root
    /// is older than `j` none of them is rejected or evicted, so by the end
    /// of the walk either the table holds exactly those `m` sessions or the
    /// root has passed `j`. In every case the table is full with a root more
    /// recent than `j`, the root only ever gets more recent, and `j` is
    /// never admitted afterwards — a contradiction. (An evicted session is
    /// older than every later root for the same reason, so it never
    /// returns either.) `kernel_differential_props` checks the recorded
    /// position against a recomputation.
    #[inline]
    fn intersect_item(&self, (item, pi, pos): Step, scratch: &mut Scratch) {
        let cfg = &self.config;
        let Some(posting) = self.index.postings(item) else {
            return; // item unseen in the historical data
        };
        let Scratch { table, bt, work, .. } = scratch;
        let mut walked = 0u32;
        for &session in posting {
            walked += 1;
            let vacant = match table.find(session) {
                Ok(idx) => {
                    table.get_mut(idx).similarity += pi;
                    continue;
                }
                Err(vacant) => vacant,
            };
            let cand = Candidate { session, similarity: pi, match_pos: pos };
            if table.len() < cfg.m {
                table.insert_at(vacant, cand);
                continue;
            }
            if bt.is_empty() {
                // First decision at a full table: only now is `b_t` needed.
                bt.rebuild(table.as_slice().iter().map(|c| (c.session, ())));
            }
            let &(oldest, ()) = bt.peek().expect("bt non-empty when the table is full");
            if session > oldest {
                bt.replace_root(session, ());
                table.replace(oldest, cand);
                work.evicted += 1;
            } else if cfg.early_stopping {
                // Posting lists are strictly descending in the id, the
                // recency key: nothing further can enter.
                work.early_stops += 1;
                break;
            }
        }
        work.postings_walked += walked;
    }

    /// Top-k similarity step: leaves the `k` most similar candidates (ties
    /// to the more recent) in `scratch.order`, in ascending session-id
    /// order — the canonical order that keeps the f32 summation of the
    /// scoring step identical across all implementation variants.
    fn select_neighbors(&self, scratch: &mut Scratch) {
        let Scratch { table, topk, order, work, .. } = scratch;
        let cands = table.as_slice();
        work.candidates = cands.len() as u32 + work.evicted;
        let pack = |idx: u32| u64::from(cands[idx as usize].session) << 32 | u64::from(idx);
        if cands.len() <= self.config.k {
            order.extend((0..cands.len() as u32).map(pack));
        } else {
            for (idx, c) in cands.iter().enumerate() {
                let key = (c.similarity, c.session);
                if topk.len() < self.config.k {
                    topk.push(key, idx as u32);
                } else if key > topk.peek().expect("topk non-empty when full").0 {
                    topk.replace_root(key, idx as u32);
                }
            }
            order.extend(topk.iter().map(|&(_, idx)| pack(idx)));
        }
        order.sort_unstable();
    }

    /// Runs the item-intersection and top-k similarity steps for `session`,
    /// leaving the candidates and the neighbour order in `scratch`. Returns
    /// the capped window.
    fn fill_neighbors<'a>(&self, session: &'a [ItemId], scratch: &mut Scratch) -> &'a [ItemId] {
        let window = self.cap_window(session);
        scratch.clear(self.config.m, self.idf.len());
        for step in self.steps(window) {
            self.intersect_item(step, scratch);
        }
        self.select_neighbors(scratch);
        window
    }

    /// Scores all items occurring in the neighbour sessions (Algorithm 2,
    /// lines 6–7): `d_i = Σ_n 1_n(i) · λ(max(ω(s)⊙n)) · r_n · idf_i`, where
    /// `max(ω(s)⊙n)` is the neighbour's recorded match position.
    ///
    /// One neighbour costs one contiguous read of its 4-byte slots, and per
    /// item one idf and one accumulator cell. First touch of a cell
    /// *assigns*, as a map's `or_insert(0.0)` followed by `+=` would, so the
    /// f32 operations — and hence the output bits — are those of the plain
    /// formulation.
    fn score_items(&self, window: &[ItemId], scratch: &mut Scratch) {
        let cfg = &self.config;
        let Scratch { table, order, excluded, acc, epoch, touched, work, .. } = scratch;
        let wlen = window.len();
        let norm = if cfg.normalize_by_session_length { 1.0 / wlen as f32 } else { 1.0 };
        if cfg.exclude_session_items {
            // A window item's slot comes with its posting; an item without
            // one found no neighbour and has nothing to exclude.
            excluded.extend(window.iter().filter_map(|&item| self.index.item_slot(item)));
        }
        // One bounds check covers both per-slot tables: `clear` made `acc`
        // at least as long as `idf`.
        let idf = &self.idf[..];
        let acc = &mut acc[..idf.len()];
        let cands = table.as_slice();
        let e = *epoch;
        // Locate a batch of neighbours' slots before reading any: the
        // session-offset lookups are independent cache misses that overlap
        // here, instead of each one stalling the accumulation behind it.
        let mut runs: [(&[u32], f32); 32] = [(&[], 0.0); 32];
        for neighbors in order.chunks(runs.len()) {
            let mut located = 0;
            for &packed in neighbors {
                let c = cands[packed as u32 as usize];
                let lambda = cfg.match_weight.weight(c.match_pos as usize, wlen);
                if lambda > 0.0 {
                    let weight = lambda * c.similarity * norm;
                    runs[located] = (self.index.session_slots(c.session), weight);
                    located += 1;
                }
            }
            work.neighbors_scored += located as u32;
            for &(slots, session_weight) in &runs[..located] {
                for &slot in slots {
                    if excluded.contains(&slot) {
                        continue;
                    }
                    let idf = idf[slot as usize];
                    let a = &mut acc[slot as usize];
                    if a.epoch == e {
                        a.val += session_weight * idf;
                    } else {
                        *a = AccCell { epoch: e, val: session_weight * idf };
                        touched.push(slot);
                    }
                }
            }
        }
        work.slots_touched = touched.len() as u32;
    }

    /// Extracts the `how_many` highest-scored items, descending, as an
    /// exactly-sized list — the request's only allocation.
    ///
    /// Touched slots are ranked as `score bits << 32 | slot`. Only positive
    /// scores are kept, and for positive floats the integer order of the
    /// bits is `total_cmp`'s order, so selecting and sorting the keys as
    /// plain integers gives "descending score" — and, among equal scores, an
    /// order by slot that means nothing: slots are numbered as items enter
    /// the index. Equal scores are frequent (a one-item window weighs all
    /// its neighbours alike) and must come out in ascending item id, so the
    /// ties are put right afterwards, through the slot → item table: the
    /// group that straddles the cut is selected by id, and each group left
    /// in the list is sorted by id. Only tied items have their ids read
    /// before the survivors are known.
    fn take_top(&self, scratch: &mut Scratch) -> Vec<ItemScore> {
        let Scratch { acc, touched, rank, .. } = scratch;
        rank.extend(touched.iter().filter_map(|&slot| {
            let score = acc[slot as usize].val;
            (score > 0.0).then(|| u64::from(score.to_bits()) << 32 | u64::from(slot))
        }));
        let n = self.config.how_many.min(rank.len());
        if n == 0 {
            return Vec::new();
        }
        let slot_items = self.index.slot_items();
        let item = |key: &u64| slot_items[*key as u32 as usize];
        let descending = |a: &u64, b: &u64| b.cmp(a);
        if n < rank.len() {
            rank.select_nth_unstable_by(n - 1, descending);
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
        rank.sort_unstable_by(descending);
        for tied in rank.chunk_by_mut(|a, b| a >> 32 == b >> 32) {
            if tied.len() > 1 {
                tied.sort_unstable_by_key(item);
            }
        }
        rank.iter()
            .map(|key| ItemScore { item: item(key), score: f32::from_bits((key >> 32) as u32) })
            .collect()
    }
}

#[cfg(test)]
mod tests {
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
    fn early_stopping_does_not_change_results() {
        for m in [2, 500] {
            let with = VmisConfig { m, early_stopping: true, ..VmisConfig::default() };
            let without = VmisConfig { early_stopping: false, ..with.clone() };
            let v_with = knn(with);
            let v_without = knn(without);
            for session in [&[1u64, 2] as &[u64], &[2, 3], &[4], &[5, 1, 3], &[1, 2, 3]] {
                let a = v_with.recommend(session);
                let b = v_without.recommend(session);
                assert_eq!(a, b, "m {m}, session {session:?}");
            }
        }
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
        let mut postings = built.posting_table().clone();
        postings.remove(&5);
        let (arenas, segments) = (built.arenas().into(), built.segments().into());
        let slot_items = built.slot_items().clone();
        let index =
            SessionIndex::from_generation(postings, arenas, segments, slot_items, built.m_max());
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
