//! Incremental index maintenance (future work, Section 7).
//!
//! The production pipeline rebuilds the full index once per day, so new
//! items only become recommendable with a one-day delay. The incremental
//! indexer closes that gap: it **holds** the current [`SessionIndex`] and
//! folds click batches, deletions and retention drops into it through one
//! path, `merge`, which emits the next generation instead of rebuilding:
//!
//! 1. group only the batch; a session that is already indexed is re-ranked
//!    with its retained clicks, i.e. removed at its old rank and inserted at
//!    its new one;
//! 2. locate the old ranks by `(timestamp, external id)` — the order dense
//!    ids are assigned in — and take the first rank that changes, `cut`;
//! 3. in one linear pass write the sessions of the new rank order from the
//!    segment holding `cut` up — timestamps and the items' slots into
//!    new [`Segment`]s, external ids and clicks into the indexer's own
//!    columns — with the monotone old → new rank map of everything at or
//!    above `cut`; every segment wholly below `cut` is handed on by pointer;
//! 4. start from the previous posting table and rewrite only the postings
//!    of items that occur in a session at or above `cut` (their entries
//!    are renumbered ranks) or in a removed or inserted session (support
//!    ±1, entries dropped and merged in). A truncated posting that loses an
//!    entry refills by scanning older sessions for the item's slot.
//!
//! Every other posting array and every other segment is the previous
//! generation's, shared through its `Arc`: live traffic lands at the recent
//! end of the rank order, so `cut` is near the top and a merge allocates
//! O(delta) — at most the last segment or two and the touched postings —
//! plus what stays O(items): the posting table's handles are cloned, and a
//! merge that meets an item for the first time copies the slot → item
//! table to append to it. A batch of *old* timestamps (a backfill at rank
//! 0, or the retention window dropping its oldest session) renumbers every
//! rank, so every segment and every posting is written anew: the path
//! degrades to the cost of a build, never to a wrong index. [`Sharing`]
//! counts both cases. The result is always identical to
//! [`SessionIndex::build`] over [`retained_log`], which the differential
//! suites hold it to bit for bit.
//!
//! ## Slots
//!
//! An item keeps the accumulator slot it has (`serenade_core::index`): a
//! session copied into a new segment brings its slots along, and only an
//! item the index has not seen is given one, the next — never a slot the
//! table already holds, since the slots are the only record of a session's
//! items. An item whose last session leaves strands its slot, and if it
//! returns it is given a fresh one. Stranded slots cost a few bytes each in
//! the kernel's per-slot tables; a merge that writes every segment anyway
//! (`cut` = 0) numbers the live items afresh, and a merge that finds more
//! than one stranded slot per [`DEAD_SLOT_SHARE`] live ones is made such a
//! merge, so they stay bounded under any turnover of the catalogue.
//!
//! ## Click-log retention
//!
//! Re-ranking a session needs its earlier clicks, but retaining them forever
//! grows memory without bound. [`IncrementalIndexer::with_retained_clicks_cap`]
//! bounds the log: whenever it exceeds the cap, the oldest whole sessions
//! are dropped (never splitting a session, always keeping the newest one)
//! — the indexer degrades to a **sliding window** over the most recent
//! traffic, which is exactly the regime session-based recommenders operate
//! in. A dropped session's external id is forgotten with it, so if that id
//! reappears later it is treated as a new session.
//!
//! ## Deletion (unlearning)
//!
//! [`IncrementalIndexer::delete_session`] removes one session, so the next
//! [`snapshot`] is indistinguishable from a from-scratch build over a log
//! that never contained it — the GDPR-style unlearning contract. Unlike an
//! evicted session, a *deleted* session id is **tombstoned**: clicks for it
//! arriving in later batches are silently discarded instead of resurrecting
//! the session as new traffic.
//!
//! ## Touched-item tracking
//!
//! The indexer accumulates the items of every removed and inserted session
//! since the last [`drain_touched`] call — exactly the items whose posting
//! *content* may have changed (renumbering alone does not count). Publishers
//! drain this set per publish to drive *epoch-bucketed* cache invalidation:
//! a cached prediction for an untouched item survives the publish. The set
//! is a sound over-approximation of the semantic posting diff (see
//! [`crate::diff::changed_items`]), which the property suite verifies.
//!
//! [`snapshot`]: IncrementalIndexer::snapshot
//! [`retained_log`]: IncrementalIndexer::retained_log
//! [`drain_touched`]: IncrementalIndexer::drain_touched

use std::sync::Arc;

use serenade_core::index::{Posting, Segment, SEGMENT_SESSIONS};
use serenade_core::{
    Click, CoreError, FxHashMap, FxHashSet, ItemId, SessionId, SessionIndex, SessionRuns, Timestamp,
};

/// What sessions are ranked by: `(session timestamp, external id)`.
type Key = (Timestamp, u64);

/// A retained click, in the log of its session: the session's external id
/// is the log's key, not a column of it.
type LogEntry = (Timestamp, ItemId);

/// Live slots per stranded one a merge tolerates before it numbers slots
/// afresh (see the module docs).
const DEAD_SLOT_SHARE: usize = 4;

/// Items whose posting lists may have changed since the last drain — the
/// unit of epoch-bucketed cache invalidation (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TouchedItems {
    /// Every posting may have changed; invalidate unconditionally.
    All,
    /// Only these items' postings may have changed.
    Items(FxHashSet<ItemId>),
}

impl TouchedItems {
    /// `true` if `item` is in the touched set.
    pub fn contains(&self, item: ItemId) -> bool {
        match self {
            TouchedItems::All => true,
            TouchedItems::Items(set) => set.contains(&item),
        }
    }

    /// Number of touched items (`None` for [`TouchedItems::All`]).
    pub fn len(&self) -> Option<usize> {
        match self {
            TouchedItems::All => None,
            TouchedItems::Items(set) => Some(set.len()),
        }
    }

    /// `true` if no item is touched.
    pub fn is_empty(&self) -> bool {
        matches!(self, TouchedItems::Items(set) if set.is_empty())
    }
}

/// How much of the previous generations the merges since the last
/// [`IncrementalIndexer::take_sharing`] carried over untouched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sharing {
    /// Posting arrays handed on by pointer.
    pub postings_shared: u64,
    /// Posting arrays written anew: touched, or holding a renumbered rank.
    pub postings_copied: u64,
    /// Sessions below the first changed rank, summed over the merges...
    pub ranks_unchanged: u64,
    /// ...out of this many sessions. The ratio is 1 for traffic at the
    /// recent end and falls to 0 when a merge renumbers the whole index.
    pub ranks_total: u64,
    /// Segments handed on by pointer: those wholly below the first changed
    /// rank.
    pub segments_shared: u64,
    /// Segments written anew: from the one holding the first changed rank.
    pub segments_copied: u64,
}

/// A session the next generation gains: a new one, or an indexed one with
/// more clicks (whose old rank the same merge removes).
struct Pending {
    key: Key,
    /// Every retained click of the session, in `(timestamp, item)` order.
    clicks: Vec<LogEntry>,
    /// `clicks` deduplicated to first occurrences: the indexed item list.
    items: Vec<ItemId>,
}

/// Where a session of the next generation comes from: the rank it had, or
/// its place among the [`Pending`] ones.
#[derive(Clone, Copy)]
enum Source {
    Old(usize),
    New(usize),
}

/// Stateful incremental index maintainer.
#[derive(Debug, Clone)]
pub struct IncrementalIndexer {
    /// The current generation; without sessions until the first batch.
    index: SessionIndex,
    /// External id of each indexed session, by rank (its dense id).
    ext_ids: Vec<u64>,
    /// Timestamp of each indexed session by external id; with `ext_ids` it
    /// locates a session's rank by binary search on its [`Key`].
    session_ts: FxHashMap<u64, Timestamp>,
    /// The retained clicks as a CSR parallel to the index: session by
    /// session in rank order, `(timestamp, item)` order within a session.
    log: Vec<LogEntry>,
    log_offsets: Vec<u32>,
    /// Upper bound on `log.len()`; `usize::MAX` means unbounded.
    max_retained_clicks: usize,
    /// External ids of explicitly deleted sessions; their clicks are
    /// discarded from all future batches (no resurrection).
    tombstones: FxHashSet<u64>,
    /// Items whose postings may have changed since the last
    /// [`IncrementalIndexer::drain_touched`].
    touched: FxHashSet<ItemId>,
    sharing: Sharing,
    /// Number of retention compactions (oldest-session drops) — observability.
    compactions: usize,
    /// Number of sessions removed by [`IncrementalIndexer::delete_session`].
    deletions: usize,
}

impl IncrementalIndexer {
    /// Creates an empty indexer with the given posting capacity and an
    /// unbounded click log.
    pub fn new(m_max: usize) -> Result<Self, CoreError> {
        Self::with_retained_clicks_cap(m_max, usize::MAX)
    }

    /// Creates an empty indexer whose retained click log is bounded by
    /// `max_retained_clicks` (see the module docs for the sliding-window
    /// semantics this implies).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] if `m_max == 0` or the cap is zero.
    pub fn with_retained_clicks_cap(
        m_max: usize,
        max_retained_clicks: usize,
    ) -> Result<Self, CoreError> {
        if m_max == 0 {
            return Err(CoreError::InvalidConfig {
                parameter: "m_max",
                reason: "posting-list capacity must be positive".into(),
            });
        }
        if max_retained_clicks == 0 {
            return Err(CoreError::InvalidConfig {
                parameter: "max_retained_clicks",
                reason: "click-log retention cap must be positive".into(),
            });
        }
        Ok(Self {
            index: SessionIndex::from_generation(
                FxHashMap::default(),
                Arc::from([]),
                Arc::from([]),
                m_max,
            ),
            ext_ids: Vec::new(),
            session_ts: FxHashMap::default(),
            log: Vec::new(),
            log_offsets: vec![0],
            max_retained_clicks,
            tombstones: FxHashSet::default(),
            touched: FxHashSet::default(),
            sharing: Sharing::default(),
            compactions: 0,
            deletions: 0,
        })
    }

    /// Makes `index` the current generation of a fresh indexer, provided it
    /// is exactly the index of `seed` at this posting capacity and `seed`
    /// fits the retention cap: the click log and the rank → external-id
    /// column are derived from `seed`, nothing is indexed a second time.
    /// Returns `false`, leaving the indexer empty, when `index` is anything
    /// else; [`IncrementalIndexer::apply_batch`] then indexes `seed`.
    pub fn adopt(&mut self, index: &SessionIndex, seed: &[Click]) -> bool {
        if self.num_sessions() != 0
            || index.m_max() != self.index.m_max()
            || seed.len() > self.max_retained_clicks.min(u32::MAX as usize)
        {
            return false;
        }
        // The grouping is the log: sessions by rank, each run in
        // `(timestamp, item)` order.
        let runs = SessionRuns::group(seed, 1);
        let agrees = |rank: usize| {
            let items = index.session_items(rank as SessionId).iter();
            runs.timestamp(rank) == index.session_timestamp(rank as SessionId)
                && first_occurrences(runs.run(rank)).eq(items)
        };
        if runs.len() != index.num_sessions() || !(0..runs.len()).all(agrees) {
            return false;
        }
        let (ext_ids, log_offsets, mut log) = runs.into_log();
        // Room for live traffic on top of the seed, or the first merge would
        // double the log — copy it whole — to append a few clicks.
        log.reserve_exact(seed.len() / 8);
        let timestamp = |rank: usize| index.session_timestamp(rank as SessionId);
        self.session_ts =
            ext_ids.iter().enumerate().map(|(rank, &ext)| (ext, timestamp(rank))).collect();
        self.index = index.clone();
        (self.ext_ids, self.log, self.log_offsets) = (ext_ids, log, log_offsets);
        true
    }

    /// Number of sessions currently indexed.
    pub fn num_sessions(&self) -> usize {
        self.ext_ids.len()
    }

    /// How many retention compactions dropped old sessions from the log.
    pub fn compaction_count(&self) -> usize {
        self.compactions
    }

    /// How many sessions have been removed by explicit deletion.
    pub fn deletion_count(&self) -> usize {
        self.deletions
    }

    /// Number of tombstoned (explicitly deleted) session ids.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones.len()
    }

    /// Number of clicks currently retained.
    pub fn retained_clicks(&self) -> usize {
        self.log.len()
    }

    /// The retained click log, oldest session first: the traffic the index
    /// is equivalent to a from-scratch build over. Assembled on demand (the
    /// differential suites ask): the log itself stores no session ids.
    pub fn retained_log(&self) -> Vec<Click> {
        let clicks_of = |(rank, &ext): (usize, &u64)| {
            self.session_log(rank).iter().map(move |&(ts, item)| Click::new(ext, item, ts))
        };
        self.ext_ids.iter().enumerate().flat_map(clicks_of).collect()
    }

    /// Drains the accumulated touched-item set: the items whose postings may
    /// have changed since the previous drain. Publishers call this once per
    /// publish to bucket cache invalidation by epoch.
    pub fn drain_touched(&mut self) -> TouchedItems {
        TouchedItems::Items(std::mem::take(&mut self.touched))
    }

    /// Takes the sharing counts accumulated since the previous call.
    pub fn take_sharing(&mut self) -> Sharing {
        std::mem::take(&mut self.sharing)
    }

    /// The current generation: a handle on the index this indexer holds,
    /// not a copy of it.
    ///
    /// # Errors
    ///
    /// [`CoreError::EmptyDataset`] while no session is indexed.
    pub fn snapshot(&self) -> Result<SessionIndex, CoreError> {
        if self.num_sessions() == 0 {
            return Err(CoreError::EmptyDataset);
        }
        Ok(self.index.clone())
    }

    /// Folds a batch of clicks into the index. Clicks for tombstoned
    /// (explicitly deleted) sessions are discarded — a delete is permanent,
    /// late-arriving clicks must not resurrect the session. On an error
    /// nothing has changed.
    pub fn apply_batch(&mut self, batch: &[Click]) -> Result<(), CoreError> {
        let runs = SessionRuns::group(batch, 1);
        let mut removed = Vec::new();
        let mut pending = Vec::with_capacity(runs.len());
        for fresh in 0..runs.len() {
            let ext = runs.ext_id(fresh);
            if self.tombstones.contains(&ext) {
                continue;
            }
            let mut clicks = runs.run(fresh).to_vec();
            if let Some(rank) = self.rank_of(ext) {
                clicks.extend_from_slice(self.session_log(rank));
                clicks.sort_unstable();
                removed.push(rank as SessionId);
            }
            let newest = clicks.last().expect("a run holds at least one click").0;
            let items = first_occurrences(&clicks).collect();
            pending.push(Pending { key: (newest, ext), items, clicks });
        }
        removed.sort_unstable();
        self.merge(&removed, pending)?;
        self.enforce_retention()
    }

    /// Removes one session from the click log and the index, tombstoning its
    /// external id so later clicks cannot resurrect it. Returns `true` if
    /// the session was present, `false` if it was unknown (the tombstone is
    /// still laid).
    ///
    /// After this call [`IncrementalIndexer::snapshot`] is indistinguishable
    /// from a from-scratch build over a log that never contained the
    /// session — the unlearning contract of the differential suite.
    pub fn delete_session(&mut self, ext_id: u64) -> Result<bool, CoreError> {
        self.tombstones.insert(ext_id);
        let Some(rank) = self.rank_of(ext_id) else {
            return Ok(false);
        };
        self.merge(&[rank as SessionId], Vec::new())?;
        self.deletions += 1;
        Ok(true)
    }

    /// Enforces the click-log retention cap by dropping the oldest whole
    /// sessions (never the newest).
    fn enforce_retention(&mut self) -> Result<(), CoreError> {
        let over = self.log.len().saturating_sub(self.max_retained_clicks);
        let older = &self.log_offsets[..self.num_sessions().saturating_sub(1)];
        let dropped = older.partition_point(|&start| (start as usize) < over);
        if dropped == 0 {
            return Ok(()); // within the cap, or a single oversized session
        }
        self.compactions += 1;
        let removed: Vec<SessionId> = (0..dropped as SessionId).collect();
        self.merge(&removed, Vec::new())
    }

    /// Rank (dense id) of the indexed session with this external id.
    fn rank_of(&self, ext_id: u64) -> Option<usize> {
        let key = (*self.session_ts.get(&ext_id)?, ext_id);
        let key_at = |rank| (self.index.session_timestamp(rank as SessionId), self.ext_ids[rank]);
        Some(lower_bound(self.num_sessions(), key_at, key))
    }

    /// The retained clicks of the session at `rank`.
    fn session_log(&self, rank: usize) -> &[LogEntry] {
        &self.log[self.log_offsets[rank] as usize..self.log_offsets[rank + 1] as usize]
    }

    /// The one path every mutation takes (see the module docs): emits the
    /// generation without the sessions at the ascending ranks `removed` and
    /// with the `pending` ones. Nothing of `self` is written before the last
    /// step, so an error leaves log and index as they were.
    fn merge(&mut self, removed: &[SessionId], pending: Vec<Pending>) -> Result<(), CoreError> {
        if removed.is_empty() && pending.is_empty() {
            return Ok(());
        }
        let old = self.index.clone();
        let old_table = old.posting_table();
        let n_old = old.num_sessions();
        let old_key = |rank: usize| (old.session_timestamp(rank as SessionId), self.ext_ids[rank]);
        let first_gained = pending.iter().map(|p| p.key).min();
        let mut cut = first_gained
            .map_or(n_old, |key| lower_bound(n_old, old_key, key))
            .min(removed.first().map_or(n_old, |&r| r as usize));
        // Slots are numbered afresh by a merge that writes every segment
        // anyway; too many stranded ones make this merge one.
        if old.dead_slots() > old.num_items() / DEAD_SLOT_SHARE {
            cut = 0;
        }
        let renumber = cut == 0;
        // Segments wholly below `cut` are handed on; `base` is the first
        // rank written.
        let first_segment = cut / SEGMENT_SESSIONS;
        let base = first_segment * SEGMENT_SESSIONS;

        // The rank order from `base` up. The survivors are one ascending run,
        // which the stable sort detects and merges the few others into.
        let mut order: Vec<(Key, Source)> = (base..n_old)
            .filter(|&rank| removed.binary_search(&(rank as SessionId)).is_err())
            .map(|rank| (old_key(rank), Source::Old(rank)))
            .collect();
        order.extend(pending.iter().enumerate().map(|(k, p)| (p.key, Source::New(k))));
        order.sort_by_key(|&(key, _)| key);

        // An item keeps its slot; one without takes the next. When slots are
        // numbered afresh no item has one, and they go in order of appearance.
        let kept_slots = if renumber { 0 } else { old.slot_items().len() };
        let mut new_slot_items: Vec<ItemId> = Vec::new();
        let mut new_slots: FxHashMap<ItemId, u32> = FxHashMap::default();
        let mut slot_of = |item: ItemId| match old_table.get(&item) {
            Some(posting) if !renumber => posting.slot,
            _ => *new_slots.entry(item).or_insert_with(|| {
                new_slot_items.push(item);
                (kept_slots + new_slot_items.len() - 1) as u32
            }),
        };

        // The sessions from `base` up, segment by segment, with the new rank
        // of each old one (`MAX` for a removed one) and, per touched item,
        // how many sessions it lost and the ids it gained (ascending).
        let log_base = self.log_offsets[base] as usize;
        let gained_clicks: usize = pending.iter().map(|p| p.clicks.len()).sum();
        let mut log: Vec<LogEntry> =
            Vec::with_capacity(self.log.len() - log_base + gained_clicks);
        let mut log_off = Vec::with_capacity(order.len());
        let mut ext_ids = Vec::with_capacity(order.len());
        let mut segments: Vec<Arc<Segment>> = old.segments()[..first_segment].to_vec();
        let mut remap = vec![SessionId::MAX; n_old - base];
        let mut delta: FxHashMap<ItemId, (u32, Vec<SessionId>)> = FxHashMap::default();
        for &rank in removed {
            for item in old.session_items(rank).iter() {
                delta.entry(item).or_default().0 += 1;
            }
        }
        let len_of = |source: Source| match source {
            Source::Old(rank) => old.session_slots(rank as SessionId).len(),
            Source::New(k) => pending[k].items.len(),
        };
        let mut session = base as SessionId;
        for chunk in order.chunks(SEGMENT_SESSIONS) {
            // Sized exactly: a segment is allocated once and never shrunk.
            let entries = chunk.iter().map(|&(_, source)| len_of(source)).sum();
            let mut timestamps = Vec::with_capacity(chunk.len());
            let mut offsets = Vec::with_capacity(chunk.len() + 1);
            let mut slots = Vec::with_capacity(entries);
            offsets.push(0);
            for &((timestamp, ext_id), source) in chunk {
                match source {
                    Source::Old(rank) => {
                        if renumber {
                            let items = old.session_items(rank as SessionId);
                            slots.extend(items.iter().map(&mut slot_of));
                        } else {
                            slots.extend_from_slice(old.session_slots(rank as SessionId));
                        }
                        remap[rank - base] = session;
                        log.extend_from_slice(self.session_log(rank));
                    }
                    Source::New(k) => {
                        for &item in &pending[k].items {
                            delta.entry(item).or_default().1.push(session);
                            slots.push(slot_of(item));
                        }
                        log.extend_from_slice(&pending[k].clicks);
                    }
                }
                timestamps.push(timestamp);
                offsets.push(slots.len() as u32);
                ext_ids.push(ext_id);
                log_off.push((log_base + log.len()) as u32);
                session += 1;
            }
            segments.push(Arc::new(Segment::new(timestamps.into(), offsets.into(), slots.into())));
        }
        let n_new = base + order.len();
        if n_new.max(log_base + log.len()) > u32::MAX as usize {
            return Err(CoreError::TooManySessions(n_new));
        }
        let new_key =
            |rank: usize| if rank < base { old_key(rank) } else { order[rank - base].0 };
        let slots_at =
            |rank: usize| segments[rank / SEGMENT_SESSIONS].slots(rank % SEGMENT_SESSIONS);
        let new_rank =
            |old: SessionId| if (old as usize) < base { old } else { remap[old as usize - base] };

        // The postings: all shared, but for the items of a renumbered session
        // (every old session from `cut` up) and the touched ones.
        let touched: Vec<ItemId> = delta.keys().copied().collect();
        let mut rewrite: FxHashSet<ItemId> = touched.iter().copied().collect();
        for rank in cut..n_old {
            rewrite.extend(old.session_items(rank as SessionId).iter());
        }
        let m_max = old.m_max();
        let mut table = old_table.clone();
        let mut copied = 0;
        for &item in &rewrite {
            let (lost, gained) = delta.remove(&item).unwrap_or_default();
            let (was, was_support, was_slot) = match old_table.get(&item) {
                Some(posting) => (&posting.entries[..], posting.support, Some(posting.slot)),
                None => (&[][..], 0, None),
            };
            let support = was_support - lost + gained.len() as u32;
            if support == 0 {
                table.remove(&item);
                continue;
            }
            // A truncated posting left out only sessions older than its last
            // entry. A session gained down there competes with those, so it
            // is dropped here and found again by the refill scan below.
            let floor = match was.last() {
                Some(&last) if was_support as usize > was.len() => {
                    lower_bound(n_new, new_key, old_key(last as usize))
                }
                _ => 0,
            };
            let kept = was.iter().map(|&s| new_rank(s)).filter(|&s| s != SessionId::MAX);
            let gained = gained.into_iter().rev().filter(|&s| s as usize >= floor);
            let want = m_max.min(support as usize);
            let mut entries = merge_descending(kept, gained, want);
            let slot = new_slots
                .get(&item)
                .copied()
                .or(was_slot)
                .expect("an item is given its slot with the first session that lists it");
            let mut rank = floor;
            while entries.len() < want && rank > 0 {
                rank -= 1;
                if slots_at(rank).contains(&slot) {
                    entries.push(rank as SessionId);
                }
            }
            table.insert(item, Posting { entries: entries.into(), support, slot });
            copied += 1;
        }
        // The slot → item table is the old one unless this merge gave a slot.
        let slot_items = if new_slot_items.is_empty() && !renumber {
            Arc::clone(old.slot_items())
        } else {
            old.slot_items()[..kept_slots].iter().copied().chain(new_slot_items).collect()
        };

        for &rank in removed {
            self.session_ts.remove(&self.ext_ids[rank as usize]);
        }
        self.session_ts.extend(pending.iter().map(|p| (p.key.1, p.key.0)));
        self.ext_ids.truncate(base);
        self.ext_ids.append(&mut ext_ids);
        self.log_offsets.truncate(base + 1);
        self.log_offsets.append(&mut log_off);
        self.log.truncate(log_base);
        self.log.append(&mut log);
        self.touched.extend(touched);
        self.sharing.postings_copied += copied;
        self.sharing.postings_shared += table.len() as u64 - copied;
        self.sharing.ranks_unchanged += cut as u64;
        self.sharing.ranks_total += n_old as u64;
        self.sharing.segments_shared += first_segment as u64;
        self.sharing.segments_copied += (segments.len() - first_segment) as u64;
        self.index = SessionIndex::from_generation(table, segments.into(), slot_items, m_max);
        Ok(())
    }
}

/// First of `len` ranks whose key is not below `key`.
fn lower_bound(len: usize, key_at: impl Fn(usize) -> Key, key: Key) -> usize {
    let (mut lo, mut hi) = (0, len);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if key_at(mid) < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The items of time-ordered `clicks`, each at its first occurrence. A linear
/// scan per click, as in [`SessionIndex::build`]: the median session is short.
fn first_occurrences(clicks: &[LogEntry]) -> impl Iterator<Item = ItemId> + '_ {
    let first = |&(k, &(_, item)): &(usize, &LogEntry)| clicks[..k].iter().all(|c| c.1 != item);
    clicks.iter().enumerate().filter(first).map(|(_, &(_, item))| item)
}

/// The first `want` ids of two descending id streams, merged.
fn merge_descending(
    a: impl Iterator<Item = SessionId>,
    b: impl Iterator<Item = SessionId>,
    want: usize,
) -> Vec<SessionId> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    let mut out = Vec::with_capacity(want);
    while out.len() < want {
        let from_a = match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => x > y,
            (x, _) => x.is_some(),
        };
        match if from_a { a.next() } else { b.next() } {
            Some(entry) => out.push(entry),
            None => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(range: std::ops::Range<u64>, ts_base: u64) -> Vec<Click> {
        let mut out = Vec::new();
        for s in range {
            let ts = ts_base + s * 10;
            out.push(Click::new(s, s % 6, ts));
            out.push(Click::new(s, (s + 2) % 6, ts + 1));
        }
        out
    }

    fn assert_same(a: &SessionIndex, b: &SessionIndex) {
        assert_eq!(a.stats(), b.stats());
        for sid in 0..a.num_sessions() as SessionId {
            assert_eq!(a.session_timestamp(sid), b.session_timestamp(sid));
            assert_eq!(a.session_items(sid), b.session_items(sid));
        }
        for item in a.items() {
            assert_eq!(a.postings(item), b.postings(item), "item {item}");
            assert_eq!(a.item_support(item), b.item_support(item));
        }
    }

    #[test]
    fn append_only_batches_match_full_rebuild() {
        let b1 = batch(1..20, 1_000);
        let b2 = batch(20..35, 5_000);
        let b3 = batch(35..50, 9_000);
        let mut inc = IncrementalIndexer::new(7).unwrap();
        inc.apply_batch(&b1).unwrap();
        inc.apply_batch(&b2).unwrap();
        inc.apply_batch(&b3).unwrap();

        let mut all = b1;
        all.extend(b2);
        all.extend(b3);
        let reference = SessionIndex::build(&all, 7).unwrap();
        assert_same(&inc.snapshot().unwrap(), &reference);
    }

    #[test]
    fn reappearing_session_is_reranked_and_stays_correct() {
        let b1 = batch(1..10, 1_000);
        // Session 5 reappears with later clicks.
        let b2 = vec![Click::new(5, 3, 9_000), Click::new(5, 4, 9_001)];
        let mut inc = IncrementalIndexer::new(7).unwrap();
        inc.apply_batch(&b1).unwrap();
        inc.apply_batch(&b2).unwrap();

        let mut all = b1;
        all.extend(b2);
        let reference = SessionIndex::build(&all, 7).unwrap();
        assert_same(&inc.snapshot().unwrap(), &reference);
    }

    #[test]
    fn out_of_order_batch_is_merged_below_the_newest_and_stays_correct() {
        let b1 = batch(1..10, 10_000);
        let b2 = batch(10..15, 1_000); // older than everything in b1
        let mut inc = IncrementalIndexer::new(7).unwrap();
        inc.apply_batch(&b1).unwrap();
        inc.apply_batch(&b2).unwrap();

        let mut all = b1;
        all.extend(b2);
        let reference = SessionIndex::build(&all, 7).unwrap();
        assert_same(&inc.snapshot().unwrap(), &reference);
    }

    #[test]
    fn posting_truncation_keeps_most_recent() {
        let mut inc = IncrementalIndexer::new(2).unwrap();
        // Item 0 appears in 5 consecutive sessions.
        for s in 1..=5u64 {
            inc.apply_batch(&[
                Click::new(s, 0, s * 100),
                Click::new(s, s, s * 100 + 1),
            ])
            .unwrap();
        }
        let idx = inc.snapshot().unwrap();
        assert_eq!(idx.postings(0).unwrap(), &[4, 3]); // sids of sessions 5, 4
        assert_eq!(idx.item_support(0), Some(5));
    }

    #[test]
    fn heavy_truncation_snapshot_matches_from_scratch_build() {
        // A hot item hits the posting-compaction path many times over; the
        // snapshot must still be indistinguishable from a from-scratch build
        // over the same log (the satellite-task equality guarantee).
        let m_max = 3;
        let mut inc = IncrementalIndexer::new(m_max).unwrap();
        let mut all = Vec::new();
        for s in 1..=40u64 {
            let b = vec![
                Click::new(s, 0, s * 100),           // hot item in every session
                Click::new(s, 1 + s % 4, s * 100 + 1),
            ];
            inc.apply_batch(&b).unwrap();
            all.extend(b);
        }
        let reference = SessionIndex::build(&all, m_max).unwrap();
        assert_same(&inc.snapshot().unwrap(), &reference);
    }

    #[test]
    fn truncated_posting_refills_from_older_sessions() {
        // Item 0 is in all six sessions but its posting holds only two.
        let mut inc = IncrementalIndexer::new(2).unwrap();
        let mut log: Vec<Click> = (1..=6u64).map(|s| Click::new(s, 0, s * 100)).collect();
        inc.apply_batch(&log).unwrap();
        // Losing the newest entry pulls in the next older session...
        assert!(inc.delete_session(6).unwrap());
        log.retain(|c| c.session_id != 6);
        assert_same(&inc.snapshot().unwrap(), &SessionIndex::build(&log, 2).unwrap());
        assert_eq!(inc.snapshot().unwrap().postings(0).unwrap(), &[4, 3]);
        // ...and a session gained below the posting's oldest entry competes
        // with the sessions the posting left out, not with its entries.
        let backfill = [Click::new(7, 0, 150), Click::new(5, 9, 50)];
        inc.apply_batch(&backfill).unwrap();
        log.extend_from_slice(&backfill);
        assert_same(&inc.snapshot().unwrap(), &SessionIndex::build(&log, 2).unwrap());
        assert!(inc.delete_session(5).unwrap() && inc.delete_session(4).unwrap());
        log.retain(|c| c.session_id != 5 && c.session_id != 4);
        assert_same(&inc.snapshot().unwrap(), &SessionIndex::build(&log, 2).unwrap());
    }

    #[test]
    fn adopt_takes_over_the_index_of_the_seed_without_copying_it() {
        let seed = batch(1..40, 1_000);
        let served = SessionIndex::build(&seed, 7).unwrap();
        let mut inc = IncrementalIndexer::new(7).unwrap();
        assert!(inc.adopt(&served, &seed));
        assert_eq!((inc.num_sessions(), inc.retained_clicks()), (39, seed.len()));
        let held = inc.snapshot().unwrap();
        for (item, posting) in served.postings_iter() {
            assert!(Arc::ptr_eq(&posting.entries, &held.posting_table()[&item].entries));
        }
        // The adopted state merges like one this indexer built itself.
        let more = vec![Click::new(5, 3, 9_000), Click::new(90, 4, 9_001), Click::new(91, 2, 5)];
        inc.apply_batch(&more).unwrap();
        assert!(inc.delete_session(17).unwrap());
        let log: Vec<Click> =
            seed.iter().chain(&more).filter(|c| c.session_id != 17).copied().collect();
        assert_same(&inc.snapshot().unwrap(), &SessionIndex::build(&log, 7).unwrap());
        assert_same(&inc.snapshot().unwrap(), &SessionIndex::build(&inc.retained_log(), 7).unwrap());
    }

    #[test]
    fn adopt_refuses_anything_but_the_index_of_the_seed() {
        let seed = batch(1..40, 1_000);
        let served = SessionIndex::build(&seed, 7).unwrap();
        let mut other_items = seed.clone();
        other_items[3].item_id += 1;
        let refused = [
            (IncrementalIndexer::new(8).unwrap(), &seed[..]), // another m_max
            (IncrementalIndexer::new(7).unwrap(), &seed[2..]), // another session set
            (IncrementalIndexer::new(7).unwrap(), &other_items[..]), // another item list
            (IncrementalIndexer::with_retained_clicks_cap(7, 10).unwrap(), &seed[..]), // too long
        ];
        for (mut inc, log) in refused {
            assert!(!inc.adopt(&served, log));
            assert_eq!((inc.num_sessions(), inc.retained_clicks()), (0, 0));
            // The refusal leaves a working empty indexer behind.
            inc.apply_batch(&seed[..4]).unwrap();
            assert_eq!(inc.num_sessions(), 2);
        }
        let mut used = IncrementalIndexer::new(7).unwrap();
        used.apply_batch(&seed[..2]).unwrap();
        assert!(!used.adopt(&served, &seed), "only a fresh indexer adopts");
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut inc = IncrementalIndexer::new(5).unwrap();
        inc.apply_batch(&[]).unwrap();
        assert!(inc.snapshot().is_err());
        inc.apply_batch(&batch(1..3, 100)).unwrap();
        let before = inc.snapshot().unwrap().stats();
        inc.apply_batch(&[]).unwrap();
        assert_eq!(inc.snapshot().unwrap().stats(), before);
    }

    #[test]
    fn zero_capacity_is_rejected() {
        assert!(IncrementalIndexer::new(0).is_err());
        assert!(IncrementalIndexer::with_retained_clicks_cap(5, 0).is_err());
    }

    #[test]
    fn timestamp_tie_with_previous_batch_is_ranked_by_external_id() {
        let mut inc = IncrementalIndexer::new(5).unwrap();
        inc.apply_batch(&[Click::new(2, 1, 100)]).unwrap();
        // Same session timestamp as the indexed session and a smaller
        // external id: the new session ranks below it.
        inc.apply_batch(&[Click::new(1, 0, 100)]).unwrap();
        let all = vec![Click::new(1, 0, 100), Click::new(2, 1, 100)];
        let reference = SessionIndex::build(&all, 5).unwrap();
        assert_same(&inc.snapshot().unwrap(), &reference);
    }

    #[test]
    fn retained_click_log_is_bounded() {
        // 200 append-only batches of 2 clicks against a 40-click cap: the
        // log (and the indexed session count) must stay bounded instead of
        // growing linearly with traffic.
        let cap = 40;
        let mut inc = IncrementalIndexer::with_retained_clicks_cap(6, cap).unwrap();
        for s in 1..=200u64 {
            inc.apply_batch(&[Click::new(s, s % 6, s * 10), Click::new(s, (s + 2) % 6, s * 10 + 1)])
                .unwrap();
            assert!(
                inc.retained_clicks() <= cap,
                "log grew to {} clicks after session {s}",
                inc.retained_clicks()
            );
        }
        assert!(inc.compaction_count() > 0, "the cap must have been enforced");
        assert!(inc.num_sessions() <= cap, "indexed sessions follow the retained log");
    }

    #[test]
    fn retention_compaction_keeps_snapshot_consistent_with_retained_log() {
        let mut inc = IncrementalIndexer::with_retained_clicks_cap(4, 30).unwrap();
        for s in 1..=100u64 {
            inc.apply_batch(&[Click::new(s, s % 5, s * 10), Click::new(s, (s + 1) % 5, s * 10 + 1)])
                .unwrap();
        }
        assert!(inc.compaction_count() > 0);
        // The documented sliding-window contract: the snapshot equals a
        // from-scratch build over exactly the retained suffix of the log.
        let reference = SessionIndex::build(&inc.retained_log(), 4).unwrap();
        assert_same(&inc.snapshot().unwrap(), &reference);
    }

    #[test]
    fn stranded_slots_stay_bounded_under_catalogue_turnover() {
        use serenade_core::{VmisConfig, VmisKnn};
        let agrees_with_a_build = |inc: &IncrementalIndexer, m_max: usize| {
            let live = inc.snapshot().unwrap();
            let built = SessionIndex::build(&inc.retained_log(), m_max).unwrap();
            assert_same(&live, &built);
            let config = VmisConfig { m: m_max, ..VmisConfig::default() };
            let last = live.num_sessions() as SessionId - 1;
            let newest = live.session_items(last).iter().last().unwrap();
            assert_eq!(
                VmisKnn::new(live, config.clone()).unwrap().recommend(&[newest]),
                VmisKnn::new(built, config).unwrap().recommend(&[newest])
            );
        };
        // A window of 30 sessions sliding over ever-new items, twenty
        // catalogues' worth: every batch ends in a retention merge from rank
        // 0, which numbers the slots afresh.
        let mut inc = IncrementalIndexer::with_retained_clicks_cap(5, 60).unwrap();
        for s in 0..600u64 {
            inc.apply_batch(&[Click::new(s, s, s * 10), Click::new(s, s + 1, s * 10 + 1)]).unwrap();
            assert_eq!(inc.snapshot().unwrap().dead_slots(), 0, "after session {s}");
            agrees_with_a_build(&inc, 5);
        }
        assert!(inc.compaction_count() > 500);
        // No cap, and the turnover at the recent end, where no merge starts
        // at rank 0 of its own accord: 40 lasting sessions, then a session
        // of two new items that leaves again, 400 times over. Stranded slots
        // force a renumbering before they pass their share of the live ones.
        let mut inc = IncrementalIndexer::new(5).unwrap();
        let lasting: Vec<Click> =
            (0..40u64).flat_map(|s| [Click::new(s, s, 1_000 + s), Click::new(s, s + 1, 1_000 + s)]).collect();
        inc.apply_batch(&lasting).unwrap();
        inc.take_sharing();
        for s in 100..500u64 {
            inc.apply_batch(&[Click::new(s, 2 * s, s * 10_000), Click::new(s, 2 * s + 1, s * 10_000)])
                .unwrap();
            assert!(inc.delete_session(s).unwrap());
            let live = inc.snapshot().unwrap();
            assert!(
                live.dead_slots() <= live.num_items() / DEAD_SLOT_SHARE + 2,
                "{} slots stranded beside {} items after session {s}",
                live.dead_slots(),
                live.num_items()
            );
            agrees_with_a_build(&inc, 5);
        }
        // The renumbering merges are the only ones that started at rank 0.
        let sharing = inc.take_sharing();
        assert!(sharing.ranks_unchanged * 10 > sharing.ranks_total * 8, "{sharing:?}");
        assert!(sharing.ranks_unchanged < sharing.ranks_total);
    }

    #[test]
    fn delete_session_matches_build_without_it() {
        let mut inc = IncrementalIndexer::new(7).unwrap();
        let all = batch(1..20, 1_000);
        inc.apply_batch(&all).unwrap();
        assert!(inc.delete_session(5).unwrap());
        assert_eq!(inc.deletion_count(), 1);
        let without: Vec<Click> = all.iter().filter(|c| c.session_id != 5).copied().collect();
        let reference = SessionIndex::build(&without, 7).unwrap();
        assert_same(&inc.snapshot().unwrap(), &reference);
        // A second delete of the same session is a no-op, not an error.
        assert!(!inc.delete_session(5).unwrap());
        assert_eq!(inc.deletion_count(), 1);
        assert_same(&inc.snapshot().unwrap(), &reference);
    }

    #[test]
    fn deleting_unknown_session_lays_a_tombstone() {
        let mut inc = IncrementalIndexer::new(7).unwrap();
        inc.apply_batch(&batch(1..5, 1_000)).unwrap();
        assert!(!inc.delete_session(99).unwrap());
        assert_eq!(inc.tombstone_count(), 1);
        assert_eq!(inc.deletion_count(), 0);
        // The pre-delete index is untouched...
        let reference = SessionIndex::build(&batch(1..5, 1_000), 7).unwrap();
        assert_same(&inc.snapshot().unwrap(), &reference);
        // ...and clicks for the tombstoned id arriving later are discarded.
        inc.apply_batch(&[Click::new(99, 3, 90_000)]).unwrap();
        assert_same(&inc.snapshot().unwrap(), &reference);
    }

    #[test]
    fn tombstoned_session_cannot_be_resurrected_by_later_batches() {
        let mut inc = IncrementalIndexer::new(7).unwrap();
        let all = batch(1..10, 1_000);
        inc.apply_batch(&all).unwrap();
        assert!(inc.delete_session(3).unwrap());
        // A mixed batch: the tombstoned session's clicks are dropped, the
        // rest applies normally.
        inc.apply_batch(&[Click::new(3, 1, 50_000), Click::new(40, 2, 50_001)]).unwrap();
        let mut expected: Vec<Click> =
            all.iter().filter(|c| c.session_id != 3).copied().collect();
        expected.push(Click::new(40, 2, 50_001));
        let reference = SessionIndex::build(&expected, 7).unwrap();
        assert_same(&inc.snapshot().unwrap(), &reference);
    }

    #[test]
    fn eviction_and_deletion_compose() {
        // Delete a session that retention would also drop: neither path may
        // double-remove or resurrect it, and the sliding-window contract
        // must keep holding afterwards.
        let mut inc = IncrementalIndexer::with_retained_clicks_cap(5, 20).unwrap();
        for s in 1..=10u64 {
            inc.apply_batch(&[Click::new(s, s % 4, s * 10), Click::new(s, (s + 1) % 4, s * 10 + 1)])
                .unwrap();
        }
        // Session 9 is still retained; delete it, then push more traffic so
        // retention compacts around the hole.
        assert!(inc.delete_session(9).unwrap());
        for s in 11..=30u64 {
            inc.apply_batch(&[Click::new(s, s % 4, s * 10), Click::new(s, (s + 1) % 4, s * 10 + 1)])
                .unwrap();
        }
        assert!(inc.compaction_count() > 0);
        assert!(inc.retained_log().iter().all(|c| c.session_id != 9));
        let reference = SessionIndex::build(&inc.retained_log(), 5).unwrap();
        assert_same(&inc.snapshot().unwrap(), &reference);
    }

    #[test]
    fn deleting_the_only_session_empties_the_index() {
        let mut inc = IncrementalIndexer::new(5).unwrap();
        inc.apply_batch(&[Click::new(1, 0, 100), Click::new(1, 1, 101)]).unwrap();
        assert!(inc.delete_session(1).unwrap());
        assert_eq!(inc.num_sessions(), 0);
        assert_eq!(inc.retained_clicks(), 0);
        assert!(inc.snapshot().is_err(), "empty index has no snapshot");
        // The indexer keeps working after emptying out.
        inc.apply_batch(&[Click::new(2, 2, 200)]).unwrap();
        assert_eq!(inc.num_sessions(), 1);
    }

    #[test]
    fn new_session_touches_exactly_its_items() {
        let mut inc = IncrementalIndexer::new(7).unwrap();
        inc.apply_batch(&[Click::new(1, 3, 100), Click::new(1, 5, 101)]).unwrap();
        match inc.drain_touched() {
            TouchedItems::Items(set) => {
                let mut items: Vec<_> = set.into_iter().collect();
                items.sort_unstable();
                assert_eq!(items, vec![3, 5]);
            }
            TouchedItems::All => panic!("a merge reports a precise set"),
        }
        // Draining resets the accumulator.
        assert!(inc.drain_touched().is_empty());
    }

    #[test]
    fn deletion_touches_the_deleted_sessions_items() {
        let mut inc = IncrementalIndexer::new(7).unwrap();
        inc.apply_batch(&[
            Click::new(1, 3, 100),
            Click::new(1, 5, 101),
            Click::new(2, 7, 200),
        ])
        .unwrap();
        inc.drain_touched();
        assert!(inc.delete_session(1).unwrap());
        let touched = inc.drain_touched();
        assert!(touched.contains(3) && touched.contains(5));
        assert!(!touched.contains(7), "unrelated session's item must not be touched");
    }

    #[test]
    fn reappearing_session_touches_its_old_items_too() {
        let mut inc = IncrementalIndexer::new(7).unwrap();
        inc.apply_batch(&[Click::new(1, 3, 100), Click::new(2, 9, 200)]).unwrap();
        inc.drain_touched();
        // Session 1 reappears with a new item: its old item 3 moves in
        // recency and must be reported as touched alongside the new item.
        inc.apply_batch(&[Click::new(1, 4, 300)]).unwrap();
        let touched = inc.drain_touched();
        assert!(touched.contains(3) && touched.contains(4));
        assert!(!touched.contains(9));
    }

    #[test]
    fn single_oversized_session_is_kept_whole() {
        // One session bigger than the cap: retention never splits a session
        // and always keeps the newest, so the log may exceed the cap here.
        let mut inc = IncrementalIndexer::with_retained_clicks_cap(5, 3).unwrap();
        let b: Vec<Click> = (0..6).map(|i| Click::new(1, i, 100 + i)).collect();
        inc.apply_batch(&b).unwrap();
        assert_eq!(inc.retained_clicks(), 6);
        assert_eq!(inc.num_sessions(), 1);
    }
}
