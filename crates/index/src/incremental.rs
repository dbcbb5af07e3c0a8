//! Incremental index maintenance (future work, Section 7).
//!
//! The production pipeline rebuilds the full index once per day, so new
//! items only become recommendable with a one-day delay. The incremental
//! indexer closes that gap: it **holds** the current [`SessionIndex`] and
//! folds click batches, deletions and retention drops into it through one
//! path, `merge`, which emits the next generation instead of rebuilding:
//!
//! 1. group only the batch; a session that is already indexed is re-ranked
//!    from its row — removed at its old rank and inserted at its new one,
//!    its items those of its row and of the batch, its timestamp the newer
//!    of its own and the batch's newest click;
//! 2. locate the old ranks by `(timestamp, external id)` — the order dense
//!    ids are assigned in — and take the first rank that changes, `cut`;
//! 3. in one linear pass write the sessions of the new rank order from the
//!    segment holding `cut` up — timestamps and the items' slots into
//!    new [`Segment`]s, external ids into the indexer's own column — with
//!    the monotone old → new rank map of everything at or above `cut`;
//!    every segment wholly below `cut` is handed on by pointer;
//! 4. start from a copy of the previous record column and rewrite only the
//!    postings of items that occur in a session at or above `cut` (their
//!    entries are renumbered ranks) or in a removed or inserted session
//!    (support ±1, entries dropped and merged in), all into one fresh
//!    arena. A truncated posting that loses an entry refills by scanning
//!    older sessions for the item's slot.
//!
//! Every other posting and every other segment is the previous
//! generation's: the record is copied, the arena it points into and the
//! segment are shared through their `Arc`s. Live traffic lands at the
//! recent end of the rank order, so `cut` is near the top and a merge
//! allocates O(delta) — at most the last segment or two and one arena of
//! the touched postings — plus what stays O(items): the records are
//! copied, each field at its width unless an update needs a wider one, and
//! a merge that meets an item for the first time copies the slot → item
//! table and the item → slot table to add to them. A batch of *old*
//! timestamps (a backfill at rank 0, or the retention window dropping its
//! oldest session) renumbers every rank, so every segment and every posting
//! is written anew: the path degrades to the cost of a build, never to a
//! wrong index. [`Sharing`] counts both cases.
//!
//! ## The index is its own log
//!
//! The indexer keeps no click: a session is its row and its timestamp, and
//! that is all a re-rank needs. The kernel reads a row as a set
//! (`serenade_core::index`, *Rows are sets*), and every producer writes a
//! row in ascending item id, so the row of `clicks ∪ batch` is the sorted
//! union of the row of `clicks` and the batch's items, whatever order the
//! clicks came in. The result is always identical to
//! [`SessionIndex::build`] over the traffic of the sessions the indexer
//! holds ([`IncrementalIndexer::session_ids`]), which the differential
//! suites hold it to bit for bit, each against a model of that traffic of
//! its own.
//!
//! ## Slots
//!
//! An item keeps the accumulator slot it has (`serenade_core::index`): a
//! session copied into a new segment brings its slots along, and only an
//! item the index has not seen is given one, the next — never a slot the
//! table already holds, since the slots are the only record of a session's
//! items. An item whose last session leaves strands its slot — its record's
//! support is 0 — and if it returns it takes that slot back, found through
//! the item → slot table, which therefore only grows between renumberings.
//! Stranded slots cost a few bytes each in the index's and the kernel's
//! per-slot tables; a merge that writes every segment anyway (`cut` = 0)
//! numbers the live items afresh, by first appearance over the rows in rank
//! order, and a merge that finds more than one stranded slot per
//! `DEAD_SLOT_SHARE` live ones is made such a merge, so they stay bounded
//! under any turnover of the catalogue. Renumbering keeps each
//! row's order, so it stays canonical.
//!
//! ## Arenas
//!
//! A rewritten posting leaves its old entries dead in their arena
//! (`serenade_core::index`), which the held generation still shares. What
//! the merge observes decides when they go, never an option: a merge that
//! numbers slots afresh rewrites every posting anyway and keeps only its
//! fresh arena; a merge after which the dead entries outnumber the live
//! ones (`DEAD_ENTRY_SHARE`), or the arenas number more than
//! `MAX_ARENAS`, copies the live postings into one arena. Either way the
//! dead entries stay at most the live ones and the merge's copy of the
//! arena table stays short, under any churn of hot items.
//!
//! ## Retention
//!
//! What grows with traffic is the index itself.
//! [`IncrementalIndexer::with_retained_session_items_cap`] bounds it by
//! what it holds: whenever its session-item entries — the sum of its rows'
//! lengths — exceed the cap, the oldest whole sessions are dropped (never
//! splitting a session, always keeping the newest one) — the indexer
//! degrades to a **sliding window** over the most recent traffic, which is
//! exactly the regime session-based recommenders operate in. A dropped
//! session's external id is forgotten with it, so if that id reappears
//! later it is treated as a new session.
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
//! [`snapshot`]: IncrementalIndexer::snapshot

use std::sync::Arc;

use serenade_core::index::{Column, Posting, Segment, SlotTable, SEGMENT_SESSIONS};
use serenade_core::sessions::{class_of, for_each_of_class, merge_ascending, run_parallel};
use serenade_core::{
    Click, CoreError, FxHashMap, FxHashSet, ItemId, SessionId, SessionIndex, SessionRuns, Timestamp,
};

/// What sessions are ranked by: `(session timestamp, external id)`.
type Key = (Timestamp, u64);

/// Live slots per stranded one a merge tolerates before it numbers slots
/// afresh (see the module docs).
const DEAD_SLOT_SHARE: usize = 4;

/// Live posting entries per dead one a merge tolerates before it compacts
/// the arenas (see the module docs).
const DEAD_ENTRY_SHARE: usize = 1;

/// Arenas a generation may point into before a merge compacts them: every
/// merge copies the table of arenas and may add one.
const MAX_ARENAS: usize = 64;

/// How much of the previous generations the merges since the last
/// [`IncrementalIndexer::take_sharing`] carried over untouched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sharing {
    /// Postings whose entries were handed on where they lie.
    pub postings_shared: u64,
    /// Postings written anew: touched, holding a renumbered rank, or moved
    /// by a compaction of the arenas.
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
    /// The session's row: its distinct items, ascending.
    items: Vec<ItemId>,
}

/// Where a session of the next generation comes from: the rank it had, or
/// its place among the [`Pending`] ones.
#[derive(Clone, Copy)]
enum Source {
    Old(usize),
    New(usize),
}

/// A map from external session ids, split into one map a hash class of ids
/// ([`class_of`]): as many as the threads that adopted a seed filled, one
/// otherwise.
#[derive(Debug, Clone)]
struct ByClass(Vec<FxHashMap<u64, Timestamp>>);

impl ByClass {
    /// The map that holds `ext_id`, if any map does.
    fn map(&self, ext_id: u64) -> &FxHashMap<u64, Timestamp> {
        &self.0[class_of(ext_id, self.0.len())]
    }

    fn map_mut(&mut self, ext_id: u64) -> &mut FxHashMap<u64, Timestamp> {
        let classes = self.0.len();
        &mut self.0[class_of(ext_id, classes)]
    }
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
    session_ts: ByClass,
    /// Upper bound on the index's session-item entries; `usize::MAX` means
    /// unbounded.
    max_session_items: usize,
    /// External ids of explicitly deleted sessions; their clicks are
    /// discarded from all future batches (no resurrection).
    tombstones: FxHashSet<u64>,
    sharing: Sharing,
    /// Number of retention compactions (oldest-session drops) — observability.
    compactions: usize,
    /// Number of sessions removed by [`IncrementalIndexer::delete_session`].
    deletions: usize,
}

impl IncrementalIndexer {
    /// Creates an empty indexer with the given posting capacity and no
    /// retention cap.
    pub fn new(m_max: usize) -> Result<Self, CoreError> {
        Self::with_retained_session_items_cap(m_max, usize::MAX)
    }

    /// Creates an empty indexer whose index holds at most
    /// `max_session_items` session-item entries (see the module docs for the
    /// sliding-window semantics this implies).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] if `m_max == 0` or the cap is zero.
    pub fn with_retained_session_items_cap(
        m_max: usize,
        max_session_items: usize,
    ) -> Result<Self, CoreError> {
        if m_max == 0 {
            return Err(CoreError::InvalidConfig {
                parameter: "m_max",
                reason: "posting-list capacity must be positive".into(),
            });
        }
        if max_session_items == 0 {
            return Err(CoreError::InvalidConfig {
                parameter: "max_session_items",
                reason: "session-item retention cap must be positive".into(),
            });
        }
        Ok(Self {
            index: SessionIndex::from_generation(
                Arc::default(),
                SlotTable::new(&Column::default()),
                Arc::from([]),
                Arc::from([]),
                Arc::default(),
                m_max,
            ),
            ext_ids: Vec::new(),
            session_ts: ByClass(vec![FxHashMap::default()]),
            max_session_items,
            tombstones: FxHashSet::default(),
            sharing: Sharing::default(),
            compactions: 0,
            deletions: 0,
        })
    }

    /// Makes `index` the current generation of a fresh indexer, provided it
    /// is exactly the index of `seed` at this posting capacity and fits the
    /// retention cap: the rank → external-id column and the timestamps by
    /// external id are derived from `seed`, nothing is indexed a second time.
    /// Returns `false`, leaving the indexer empty, when `index` is anything
    /// else; [`IncrementalIndexer::apply_batch`] then indexes `seed`.
    ///
    /// Its passes over the seed run on `threads` threads, and the answer is
    /// the same for every `threads`:
    /// 1. each thread finds the newest click of the sessions of one hash
    ///    class of ids ([`class_of`]) and sorts their keys; the sorted
    ///    classes merge into the rank order, which must match the index's
    ///    timestamps, and each class's map takes its sessions' ranks;
    /// 2. each thread checks its class's clicks against the rows
    ///    (`rows_hold_exactly`);
    /// 3. each class's map gives its ranks' timestamps back, and the maps
    ///    stay split by class: the indexer looks a session up in its class's.
    ///
    /// It holds O(sessions) while it checks — the maps, the ids by rank and
    /// their sort keys — and one bit a session-item entry a thread, and
    /// nothing a click.
    pub fn adopt(&mut self, index: &SessionIndex, seed: &[Click], threads: usize) -> bool {
        if self.num_sessions() != 0
            || index.m_max() != self.index.m_max()
            || index.session_item_entries() > self.max_session_items
        {
            return false;
        }
        // 1. Each class's newest click a session; its keys, sorted, merge
        // into the rank order.
        let (sessions, classes) = (index.num_sessions(), threads.max(1));
        let (maps, sorted): (Vec<_>, Vec<_>) = run_parallel((0..classes).collect(), |class| {
            let mut newest: FxHashMap<u64, Timestamp> = FxHashMap::default();
            newest.reserve(sessions / classes);
            for_each_of_class(seed, |c| c.session_id, (class, classes), |c| {
                let ts = newest.entry(c.session_id).or_insert(c.timestamp);
                *ts = (*ts).max(c.timestamp);
            });
            let mut keys: Vec<Key> = newest.iter().map(|(&ext, &ts)| (ts, ext)).collect();
            keys.sort_unstable();
            (newest, keys)
        })
        .into_iter()
        .unzip();
        if sorted.iter().map(Vec::len).sum::<usize>() != sessions {
            return false;
        }
        // Each segment's timestamps decoded in order, against the keys.
        let mut timestamps = index.segments().iter().flat_map(|segment| segment.timestamps());
        let mut ext_ids = Vec::with_capacity(sessions);
        for (_, (ts, ext)) in merge_ascending(&sorted) {
            if timestamps.next() != Some(ts) {
                return false;
            }
            ext_ids.push(ext);
        }
        drop(sorted);
        // While the rows are checked the maps hold each session's rank, and
        // the rank then gives the timestamp back.
        let mut session_ts = ByClass(maps);
        run_parallel(session_ts.0.iter_mut().enumerate().collect(), |(class, map)| {
            for (rank, &ext) in ext_ids.iter().enumerate() {
                if class_of(ext, classes) == class {
                    map.insert(ext, rank as Timestamp);
                }
            }
        });
        // 2. The rows; 3. the timestamps.
        if !rows_hold_exactly(index, seed, &session_ts) {
            return false;
        }
        run_parallel(session_ts.0.iter_mut().collect(), |map| {
            map.values_mut().for_each(|ts| *ts = index.session_timestamp(*ts as SessionId));
        });
        self.ext_ids = ext_ids;
        self.session_ts = session_ts;
        self.index = index.clone();
        true
    }

    /// Number of sessions currently indexed.
    pub fn num_sessions(&self) -> usize {
        self.ext_ids.len()
    }

    /// External id of each indexed session, by rank (its dense id): the
    /// sessions whose traffic the index is the build of.
    pub fn session_ids(&self) -> &[u64] {
        &self.ext_ids
    }

    /// How many retention compactions dropped old sessions.
    pub fn compaction_count(&self) -> usize {
        self.compactions
    }

    /// How many sessions have been removed by explicit deletion.
    pub fn deletion_count(&self) -> usize {
        self.deletions
    }

    /// Number of session-item entries the index holds, all rows together:
    /// what the retention cap counts.
    pub fn retained_session_items(&self) -> usize {
        self.index.session_item_entries()
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
            let mut items: Vec<ItemId> = runs.run(fresh).iter().map(|&(_, item)| item).collect();
            let mut newest = runs.timestamp(fresh);
            if let Some(rank) = self.rank_of(ext) {
                items.extend(self.index.session_items(rank).iter());
                newest = newest.max(self.index.session_timestamp(rank));
                removed.push(rank);
            }
            items.sort_unstable();
            items.dedup();
            pending.push(Pending { key: (newest, ext), items });
        }
        removed.sort_unstable();
        self.merge(&removed, pending)?;
        self.enforce_retention()
    }

    /// Removes one session from the index, tombstoning its external id so
    /// later clicks cannot resurrect it. Returns `true` if the session was
    /// present, `false` if it was unknown (the tombstone is still laid).
    ///
    /// After this call [`IncrementalIndexer::snapshot`] is indistinguishable
    /// from a from-scratch build over a log that never contained the
    /// session — the unlearning contract of the differential suite.
    pub fn delete_session(&mut self, ext_id: u64) -> Result<bool, CoreError> {
        self.tombstones.insert(ext_id);
        let Some(rank) = self.rank_of(ext_id) else {
            return Ok(false);
        };
        self.merge(&[rank], Vec::new())?;
        self.deletions += 1;
        Ok(true)
    }

    /// Enforces the retention cap by dropping the oldest whole sessions
    /// (never the newest) until the rows dropped hold the excess.
    fn enforce_retention(&mut self) -> Result<(), CoreError> {
        let over = self.index.session_item_entries().saturating_sub(self.max_session_items);
        let (mut dropped, mut freed) = (0, 0);
        while freed < over && dropped + 1 < self.num_sessions() {
            freed += self.index.session_slots(dropped as SessionId).len();
            dropped += 1;
        }
        if dropped == 0 {
            return Ok(()); // within the cap, or a single oversized session
        }
        self.compactions += 1;
        let removed: Vec<SessionId> = (0..dropped as SessionId).collect();
        self.merge(&removed, Vec::new())
    }

    /// Rank (dense id) of the indexed session with this external id.
    fn rank_of(&self, ext_id: u64) -> Option<SessionId> {
        let key = (*self.session_ts.map(ext_id).get(&ext_id)?, ext_id);
        let key_at = |rank| (self.index.session_timestamp(rank as SessionId), self.ext_ids[rank]);
        Some(lower_bound(self.num_sessions(), key_at, key) as SessionId)
    }

    /// The one path every mutation takes (see the module docs): emits the
    /// generation without the sessions at the ascending ranks `removed` and
    /// with the `pending` ones. Nothing of `self` is written before the last
    /// step, so an error leaves the indexer as it was.
    fn merge(&mut self, removed: &[SessionId], pending: Vec<Pending>) -> Result<(), CoreError> {
        if removed.is_empty() && pending.is_empty() {
            return Ok(());
        }
        let old = self.index.clone();
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
        // which the stable sort detects and merges the few others into. Their
        // timestamps are decoded in order, a segment at a time.
        let mut order: Vec<(Key, Source)> = Vec::with_capacity(n_old - base + pending.len());
        for (k, segment) in old.segments()[first_segment..].iter().enumerate() {
            let lo = base + k * SEGMENT_SESSIONS;
            for (rank, timestamp) in (lo..).zip(segment.timestamps()) {
                if removed.binary_search(&(rank as SessionId)).is_err() {
                    order.push(((timestamp, self.ext_ids[rank]), Source::Old(rank)));
                }
            }
        }
        order.extend(pending.iter().enumerate().map(|(k, p)| (p.key, Source::New(k))));
        order.sort_by_key(|&(key, _)| key);

        // An item keeps its slot, or takes back the one it left; one without
        // takes the next. When slots are numbered afresh no item has one, and
        // they go in order of appearance.
        let kept_slots = if renumber { 0 } else { old.slot_items().len() };
        let mut new_slot_items: Vec<ItemId> = Vec::new();
        let mut new_slots: FxHashMap<ItemId, u32> = FxHashMap::default();
        let mut slot_of = |item: ItemId| match old.slot_of(item) {
            Some(slot) if !renumber => slot,
            _ => *new_slots.entry(item).or_insert_with(|| {
                new_slot_items.push(item);
                (kept_slots + new_slot_items.len() - 1) as u32
            }),
        };

        // The sessions from `base` up, segment by segment, with the new rank
        // of each old one (`MAX` for a removed one) and, per touched item,
        // how many sessions it lost and the ids it gained (ascending).
        let mut ext_ids = Vec::with_capacity(order.len());
        let mut segments: Vec<Arc<Segment>> = old.segments()[..first_segment].to_vec();
        let mut remap = vec![SessionId::MAX; n_old - base];
        let mut delta: FxHashMap<ItemId, (u32, Vec<SessionId>)> = FxHashMap::default();
        for &rank in removed {
            for item in old.session_items(rank).iter() {
                delta.entry(item).or_default().0 += 1;
            }
        }
        // A segment's rows, at 4 bytes an entry until its columns are made
        // at their widths: two buffers, reused from segment to segment.
        let (mut offsets, mut slots) = (Vec::new(), Vec::new());
        let mut session = base as SessionId;
        for chunk in order.chunks(SEGMENT_SESSIONS) {
            offsets.clear();
            slots.clear();
            offsets.push(0);
            for &((_, ext_id), source) in chunk {
                match source {
                    Source::Old(rank) => {
                        if renumber {
                            let items = old.session_items(rank as SessionId);
                            slots.extend(items.iter().map(&mut slot_of));
                        } else {
                            slots.extend(old.session_slots(rank as SessionId).iter());
                        }
                        remap[rank - base] = session;
                    }
                    Source::New(k) => {
                        for &item in &pending[k].items {
                            delta.entry(item).or_default().1.push(session);
                            slots.push(slot_of(item));
                        }
                    }
                }
                offsets.push(slots.len() as u32);
                ext_ids.push(ext_id);
                session += 1;
            }
            let timestamps = chunk.iter().map(|&((timestamp, _), _)| timestamp);
            segments.push(Arc::new(Segment::new(timestamps, &offsets, &slots)));
        }
        drop((offsets, slots));
        let n_new = base + order.len();
        if n_new > u32::MAX as usize {
            return Err(CoreError::TooManySessions(n_new));
        }
        let new_key =
            |rank: usize| if rank < base { old_key(rank) } else { order[rank - base].0 };
        let slots_at =
            |rank: usize| segments[rank / SEGMENT_SESSIONS].slots(rank % SEGMENT_SESSIONS);
        let new_rank =
            |old: SessionId| if (old as usize) < base { old } else { remap[old as usize - base] };

        // The postings: all shared, but for the items of a renumbered session
        // (every old session from `cut` up) and the touched ones, which this
        // merge writes into one fresh arena. A merge that numbers slots
        // afresh rewrites every posting, so the fresh arena is the only one.
        let mut rewrite: FxHashSet<ItemId> = delta.keys().copied().collect();
        for rank in cut..n_old {
            rewrite.extend(old.session_items(rank as SessionId).iter());
        }
        let m_max = old.m_max();
        // The rewritten records, by slot; the others are the old ones, and a
        // dead one a new slot.
        let mut updates: Vec<(u32, Posting)> = Vec::with_capacity(rewrite.len());
        let mut arenas = if renumber { Vec::new() } else { old.arenas().to_vec() };
        let fresh_arena = arenas.len() as u32;
        let mut fresh: Vec<SessionId> = Vec::new();
        let mut copied = 0;
        for &item in &rewrite {
            let (lost, gained) = delta.remove(&item).unwrap_or_default();
            let was_slot = old.slot_of(item);
            let was_record =
                was_slot.map_or_else(Posting::default, |s| old.records().get(s as usize));
            let was = match was_record.support {
                0 => &[][..],
                _ => old.entries(was_record),
            };
            let support = was_record.support - lost + gained.len() as u32;
            let slot = new_slots.get(&item).copied().or(was_slot.filter(|_| !renumber));
            if support == 0 {
                // A slot numbered afresh is only given to an item that stays.
                if let Some(slot) = slot {
                    updates.push((slot, Posting::default()));
                }
                continue;
            }
            let slot =
                slot.expect("an item is given its slot with the first session that lists it");
            // A truncated posting left out only sessions older than its last
            // entry. A session gained down there competes with those, so it
            // is dropped here and found again by the refill scan below.
            let floor = match was.last() {
                Some(&last) if was_record.support as usize > was.len() => {
                    lower_bound(n_new, new_key, old_key(last as usize))
                }
                _ => 0,
            };
            let kept = was.iter().map(|&s| new_rank(s)).filter(|&s| s != SessionId::MAX);
            let gained = gained.into_iter().rev().filter(|&s| s as usize >= floor);
            let want = m_max.min(support as usize);
            let start = fresh.len();
            merge_descending(kept, gained, want, &mut fresh);
            let mut rank = floor;
            while fresh.len() - start < want && rank > 0 {
                rank -= 1;
                if slots_at(rank).iter().any(|held| held == slot) {
                    fresh.push(rank as SessionId);
                }
            }
            let start = start as u32;
            updates.push((slot, Posting { support, arena: fresh_arena, start }));
            copied += 1;
        }
        if !fresh.is_empty() {
            arenas.push(fresh.into());
        }
        // The record columns are copied with the updates, each at a wider
        // width only if an update needs one; the slot tables are the old ones
        // unless this merge gave a slot.
        let slots = kept_slots + new_slot_items.len();
        let records = Arc::new(old.records().patched(kept_slots, slots, &updates));
        drop(updates);
        let slot_items = if new_slot_items.is_empty() && !renumber {
            Arc::clone(old.slot_items())
        } else {
            let new = (kept_slots..).zip(new_slot_items);
            Arc::new(old.slot_items().patched(kept_slots, slots, new))
        };
        let slot_table = if renumber {
            SlotTable::new(&slot_items)
        } else {
            old.slot_table().with_new_slots(&slot_items, kept_slots)
        };

        let written = (segments.len() - first_segment) as u64;
        let (arenas, segments) = (arenas.into(), segments.into());
        let mut index =
            SessionIndex::from_generation(records, slot_table, arenas, segments, slot_items, m_max);
        let items = index.num_items() as u64;
        // Dead arena entries stay bounded by the live ones, and the table of
        // arenas, which every merge copies, stays short.
        if index.dead_posting_entries() > index.posting_entries() / DEAD_ENTRY_SHARE
            || index.arenas().len() > MAX_ARENAS
        {
            index.compact_postings();
            copied = items;
        }

        for &rank in removed {
            let ext = self.ext_ids[rank as usize];
            self.session_ts.map_mut(ext).remove(&ext);
        }
        for &Pending { key: (ts, ext), .. } in &pending {
            self.session_ts.map_mut(ext).insert(ext, ts);
        }
        self.ext_ids.truncate(base);
        self.ext_ids.append(&mut ext_ids);
        self.sharing.postings_copied += copied;
        self.sharing.postings_shared += items - copied;
        self.sharing.ranks_unchanged += cut as u64;
        self.sharing.ranks_total += n_old as u64;
        self.sharing.segments_shared += first_segment as u64;
        self.sharing.segments_copied += written;
        self.index = index;
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

/// `true` if every row of `index` is the set of items its session clicks in
/// `seed`, each session's rank given by its external id in the map of its
/// class ([`class_of`]): each click finds its item in its session's row and
/// marks that entry, and every entry ends up marked — one bit an entry.
/// Each class's thread checks the clicks of its class into a bitmap of its
/// own, looking their sessions up in its own map; the bitmaps are then
/// or-ed.
fn rows_hold_exactly(index: &SessionIndex, seed: &[Click], rank_of: &ByClass) -> bool {
    // Where each segment's rows start among all the entries.
    let segments = index.segments();
    let mut bases = Vec::with_capacity(segments.len());
    let entries = segments.iter().fold(0, |at, segment| {
        bases.push(at);
        at + segment.slot_column().len()
    });
    let classes = rank_of.0.len();
    let marks = run_parallel(rank_of.0.iter().enumerate().collect(), |(class, ranks)| {
        let (mut marked, mut held) = (vec![0u64; entries.div_ceil(64)], true);
        let mut check = |batch: &mut Vec<(usize, ItemId)>| {
            for (rank, item) in batch.drain(..) {
                let items = index.session_items(rank as SessionId);
                let Some(at) = items.iter().position(|held| held == item) else {
                    held = false;
                    continue;
                };
                let (k, row) = (rank / SEGMENT_SESSIONS, rank % SEGMENT_SESSIONS);
                let entry = bases[k] + segments[k].row_start(row) + at;
                marked[entry / 64] |= 1 << (entry % 64);
            }
        };
        // A batch's ranks are looked up before its rows are read, so that
        // the lookups overlap, and then the rows they lead to.
        let mut batch = Vec::with_capacity(16);
        for_each_of_class(seed, |c| c.session_id, (class, classes), |c| {
            batch.push((ranks[&c.session_id] as usize, c.item_id));
            if batch.len() == batch.capacity() {
                check(&mut batch);
            }
        });
        check(&mut batch);
        held.then_some(marked)
    });
    let Some(marks) = marks.into_iter().collect::<Option<Vec<_>>>() else {
        return false;
    };
    let marked = marks.into_iter().reduce(|mut marked, other| {
        marked.iter_mut().zip(other).for_each(|(word, other)| *word |= other);
        marked
    });
    marked.iter().flatten().map(|word| word.count_ones() as usize).sum::<usize>() == entries
}

/// Appends to `out` the first `want` ids of two descending id streams,
/// merged.
fn merge_descending(
    a: impl Iterator<Item = SessionId>,
    b: impl Iterator<Item = SessionId>,
    want: usize,
    out: &mut Vec<SessionId>,
) {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    for _ in 0..want {
        let from_a = match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => x > y,
            (x, _) => x.is_some(),
        };
        match if from_a { a.next() } else { b.next() } {
            Some(entry) => out.push(entry),
            None => break,
        }
    }
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

    /// Keeps `log`, a model of the traffic fed to `inc`, to the sessions
    /// `inc` still holds: the log its index must be the build of.
    fn prune(log: &mut Vec<Click>, inc: &IncrementalIndexer) {
        let held: FxHashSet<u64> = inc.session_ids().iter().copied().collect();
        log.retain(|c| held.contains(&c.session_id));
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
        assert!(inc.adopt(&served, &seed, 1));
        assert_eq!((inc.num_sessions(), inc.retained_session_items()), (39, seed.len()));
        let mut by_rank: Vec<u64> = (1..40).collect();
        by_rank.sort_by_key(|&s| (1_000 + s * 10 + 1, s));
        assert_eq!(inc.session_ids(), &by_rank[..]);
        let held = inc.snapshot().unwrap();
        for item in served.items() {
            assert!(std::ptr::eq(served.postings(item).unwrap(), held.postings(item).unwrap()));
        }
        // The adopted state merges like one this indexer built itself.
        let more = vec![Click::new(5, 3, 9_000), Click::new(90, 4, 9_001), Click::new(91, 2, 5)];
        inc.apply_batch(&more).unwrap();
        assert!(inc.delete_session(17).unwrap());
        let log: Vec<Click> =
            seed.iter().chain(&more).filter(|c| c.session_id != 17).copied().collect();
        assert_same(&inc.snapshot().unwrap(), &SessionIndex::build(&log, 7).unwrap());
    }

    /// [`batch`] with its session ids spread over the whole `u64` range, so
    /// that every hash class of a few threads holds some.
    fn spread_batch(range: std::ops::Range<u64>, ts_base: u64) -> Vec<Click> {
        let spread = |c: Click| Click { session_id: c.session_id.wrapping_mul(0x9e37_79b9), ..c };
        batch(range, ts_base).into_iter().map(spread).collect()
    }

    #[test]
    fn adopt_refuses_anything_but_the_index_of_the_seed() {
        let seed = spread_batch(1..40, 1_000);
        let served = SessionIndex::build(&seed, 7).unwrap();
        let id = |s: u64| s.wrapping_mul(0x9e37_79b9);
        let mut other_items = seed.clone();
        other_items[3].item_id += 1;
        // Session 5 clicks items 5 and 1 at 1_050 and 1_051, session 6 items
        // 0 and 2 at 1_060 and 1_061.
        let mut one_more_item = seed.clone();
        one_more_item.push(Click::new(id(5), 3, 1_050)); // the row misses item 3
        let kept = |c: &Click| (c.session_id, c.timestamp) != (id(5), 1_050);
        let one_item_less: Vec<Click> = seed.iter().copied().filter(kept).collect();
        // Both sessions keep their newest clicks: only the rows tell.
        let mut moved = seed.clone();
        moved.iter_mut().filter(|c| c.timestamp == 1_050).for_each(|c| c.session_id = id(6));
        let mut unknown_session = seed.clone();
        unknown_session.push(Click::new(id(77), 1, 1_000)); // a session the index lacks
        let dropped: Vec<Click> = seed.iter().filter(|c| c.session_id != id(7)).copied().collect();
        let mut later = seed.clone();
        later.iter_mut().filter(|c| c.timestamp == 1_051).for_each(|c| c.timestamp += 1);
        // (m_max, retention cap, seed)
        let refused = [
            (8, usize::MAX, &seed[..]),           // another m_max
            (7, usize::MAX, &seed[2..]),          // another session set
            (7, usize::MAX, &other_items[..]),    // another item list
            (7, usize::MAX, &one_more_item[..]),  // a row missing an item
            (7, usize::MAX, &one_item_less[..]),  // a row with an extra one
            (7, usize::MAX, &moved[..]),          // a click in another session
            (7, usize::MAX, &unknown_session[..]),
            (7, usize::MAX, &dropped[..]),        // a session less
            (7, usize::MAX, &later[..]),          // a timestamp off by one
            (7, 10, &seed[..]),                   // over the retention cap
        ];
        for threads in [1, 2, 3, 8] {
            for (case, &(m_max, cap, log)) in refused.iter().enumerate() {
                let mut inc =
                    IncrementalIndexer::with_retained_session_items_cap(m_max, cap).unwrap();
                assert!(!inc.adopt(&served, log, threads), "case {case}, threads {threads}");
                assert_eq!((inc.num_sessions(), inc.retained_session_items()), (0, 0));
                assert!(inc.session_ids().is_empty());
                // The refusal leaves a working empty indexer behind.
                inc.apply_batch(&seed[..4]).unwrap();
                assert_eq!(inc.num_sessions(), 2);
            }
        }
        let mut used = IncrementalIndexer::new(7).unwrap();
        used.apply_batch(&seed[..2]).unwrap();
        assert!(!used.adopt(&served, &seed, 1), "only a fresh indexer adopts");
    }

    #[test]
    fn adopt_takes_over_the_same_state_at_every_thread_count() {
        let seed = spread_batch(1..200, 1_000);
        let served = SessionIndex::build(&seed, 7).unwrap();
        // Clicks for adopted sessions of every class, new sessions, and a
        // deletion: each finds its session through its class's map.
        let more: Vec<Click> = spread_batch(150..230, 5_000);
        let deleted = seed[7].session_id;
        let log: Vec<Click> =
            seed.iter().chain(&more).filter(|c| c.session_id != deleted).copied().collect();
        let expected = SessionIndex::build(&log, 7).unwrap();
        let mut one = IncrementalIndexer::new(7).unwrap();
        assert!(one.adopt(&served, &seed, 1));
        for threads in [1, 2, 3, 8] {
            let mut inc = IncrementalIndexer::new(7).unwrap();
            assert!(inc.adopt(&served, &seed, threads), "threads {threads}");
            assert_eq!(inc.session_ids(), one.session_ids(), "threads {threads}");
            assert!((0..inc.num_sessions()).all(|rank| {
                inc.rank_of(inc.session_ids()[rank]) == Some(rank as SessionId)
            }));
            inc.apply_batch(&more).unwrap();
            assert!(inc.delete_session(deleted).unwrap(), "threads {threads}");
            assert_same(&inc.snapshot().unwrap(), &expected);
        }
    }

    /// `index` with every row in the order of its session's first clicks in
    /// `seed`, as artefacts were written before rows were canonical.
    fn rows_in_first_click_order(index: &SessionIndex, seed: &[Click]) -> SessionIndex {
        let runs = SessionRuns::group(seed, 1);
        let segments: Vec<Arc<Segment>> = (index.segments().iter().enumerate())
            .map(|(k, segment)| {
                let (mut offsets, mut slots) = (vec![0u32], Vec::new());
                for row in 0..segment.len() {
                    for &(_, item) in runs.run(k * SEGMENT_SESSIONS + row) {
                        let slot = index.item_slot(item).unwrap();
                        if !slots[offsets[row] as usize..].contains(&slot) {
                            slots.push(slot);
                        }
                    }
                    offsets.push(slots.len() as u32);
                }
                Arc::new(Segment::new(segment.timestamps(), &offsets, &slots))
            })
            .collect();
        let (records, slot_table) = (Arc::new(index.records().clone()), index.slot_table().clone());
        let (arenas, slot_items) = (index.arenas().into(), Arc::clone(index.slot_items()));
        let (segments, m_max) = (segments.into(), index.m_max());
        SessionIndex::from_generation(records, slot_table, arenas, segments, slot_items, m_max)
    }

    #[test]
    fn adopt_takes_over_an_index_whose_rows_keep_first_clicks() {
        use serenade_core::{VmisConfig, VmisKnn};
        let config = VmisConfig { m: 7, how_many: 6, ..VmisConfig::default() };
        let sessions = [&[0][..], &[4], &[5, 1], &[1, 5], &[2, 0, 4], &[3, 3, 5]];
        let assert_agree = |a: SessionIndex, b: SessionIndex| {
            let a = VmisKnn::new(a, config.clone()).unwrap();
            let b = VmisKnn::new(b, config.clone()).unwrap();
            for session in sessions {
                assert_eq!(a.recommend(session), b.recommend(session), "{session:?}");
            }
        };
        // Sessions 4, 5, 10, 11, … click an item, then one with a smaller id.
        // Their index, with rows as artefacts before canonical rows held
        // them, answers as the build does. (Format version 4 rejects such
        // rows, so the index is made here, not loaded.)
        let seed = batch(1..40, 1_000);
        let built = SessionIndex::build(&seed, 7).unwrap();
        let legacy = rows_in_first_click_order(&built, &seed);
        assert_eq!(legacy.session_items(3), &[4, 0], "session 4, rank 3");
        assert_agree(legacy.clone(), built);
        let mut inc = IncrementalIndexer::new(7).unwrap();
        assert!(inc.adopt(&legacy, &seed, 1));
        // One merge: session 4 reappears and is re-ranked from its row, and
        // a new session lands on top of the untouched legacy rows.
        let more = [Click::new(4, 2, 9_000), Click::new(90, 5, 9_001), Click::new(90, 0, 9_002)];
        inc.apply_batch(&more).unwrap();
        let mut log = seed;
        log.extend_from_slice(&more);
        let live = inc.snapshot().unwrap();
        assert_eq!(live.session_items(38), &[0, 2, 4], "session 4, re-ranked");
        assert_eq!(live.session_items(3), &[5, 1], "session 5 keeps its legacy row");
        assert_agree(live, SessionIndex::build(&log, 7).unwrap());
    }

    #[test]
    fn a_publish_widens_only_the_per_slot_tables_it_outgrows() {
        // 300 sessions over six items: supports of 100, one byte a support,
        // an item id and a slot-table bucket.
        let mut inc = IncrementalIndexer::new(500).unwrap();
        let mut log = batch(0..300, 1_000);
        inc.apply_batch(&log).unwrap();
        let before = inc.snapshot().unwrap();
        let record_width =
            |index: &SessionIndex| (index.records().bytes() - 9) / index.records().len();
        let widths = |index: &SessionIndex| {
            (index.slot_items().width(), index.slot_table().buckets().width())
        };
        assert_eq!(widths(&before), (1, 1));
        // An item id past 2⁴⁰ and 200 more sessions of item 0, whose support
        // passes 255: the slot → item table and the support field widen, and
        // nothing else does.
        let mut more = vec![Click::new(1_000, 1 << 40, 10_000)];
        more.extend((0..200).map(|s| Click::new(2_000 + s, 0, 20_000 + s)));
        inc.apply_batch(&more).unwrap();
        log.extend_from_slice(&more);
        let after = inc.snapshot().unwrap();
        assert_same(&after, &SessionIndex::build(&log, 500).unwrap());
        assert_eq!(widths(&after), (6, 1));
        assert_eq!(record_width(&after), record_width(&before) + 1);
        assert_eq!(after.item_support(0), Some(300));
        // 250 new items: 257 slots outgrow one-byte buckets, and the slot
        // table is made afresh at two.
        let items: Vec<Click> =
            (0..250).map(|k| Click::new(3_000 + k, 100 + k, 30_000 + k)).collect();
        inc.apply_batch(&items).unwrap();
        log.extend_from_slice(&items);
        let grown = inc.snapshot().unwrap();
        assert_same(&grown, &SessionIndex::build(&log, 500).unwrap());
        assert_eq!(widths(&grown), (6, 2));
        // Every generation reads on as it was published.
        assert_eq!((widths(&before), before.item_support(0)), ((1, 1), Some(100)));
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
        assert!(IncrementalIndexer::with_retained_session_items_cap(5, 0).is_err());
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
    fn retained_session_items_are_bounded() {
        // 200 append-only batches of 2 items against a 40-entry cap: the
        // index (and the indexed session count) must stay bounded instead
        // of growing linearly with traffic.
        let cap = 40;
        let mut inc = IncrementalIndexer::with_retained_session_items_cap(6, cap).unwrap();
        for s in 1..=200u64 {
            inc.apply_batch(&[Click::new(s, s % 6, s * 10), Click::new(s, (s + 2) % 6, s * 10 + 1)])
                .unwrap();
            assert!(
                inc.retained_session_items() <= cap,
                "the index grew to {} session items after session {s}",
                inc.retained_session_items()
            );
        }
        assert!(inc.compaction_count() > 0, "the cap must have been enforced");
        assert_eq!(inc.num_sessions(), cap / 2, "the newest sessions that fit");
        // Repeated items count once: a session of 8 clicks over 2 items
        // holds 2 entries.
        let repeats: Vec<Click> = (0..8).map(|i| Click::new(500, i % 2, 10_000 + i)).collect();
        inc.apply_batch(&repeats).unwrap();
        assert_eq!(inc.retained_session_items(), cap);
    }

    #[test]
    fn retention_compaction_keeps_snapshot_the_build_of_the_held_sessions() {
        let mut inc = IncrementalIndexer::with_retained_session_items_cap(4, 30).unwrap();
        let mut log = Vec::new();
        for s in 1..=100u64 {
            let b = [Click::new(s, s % 5, s * 10), Click::new(s, (s + 1) % 5, s * 10 + 1)];
            inc.apply_batch(&b).unwrap();
            log.extend_from_slice(&b);
            prune(&mut log, &inc);
        }
        assert!(inc.compaction_count() > 0);
        // The documented sliding-window contract: the snapshot equals a
        // from-scratch build over exactly the retained suffix of the log.
        assert_eq!(log.len(), 30);
        let reference = SessionIndex::build(&log, 4).unwrap();
        assert_same(&inc.snapshot().unwrap(), &reference);
    }

    #[test]
    fn stranded_slots_stay_bounded_under_catalogue_turnover() {
        use serenade_core::{VmisConfig, VmisKnn};
        let agrees_with_a_build = |inc: &IncrementalIndexer, log: &[Click], m_max: usize| {
            let live = inc.snapshot().unwrap();
            let built = SessionIndex::build(log, m_max).unwrap();
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
        let mut inc = IncrementalIndexer::with_retained_session_items_cap(5, 60).unwrap();
        let mut log = Vec::new();
        for s in 0..600u64 {
            let b = [Click::new(s, s, s * 10), Click::new(s, s + 1, s * 10 + 1)];
            inc.apply_batch(&b).unwrap();
            log.extend_from_slice(&b);
            prune(&mut log, &inc);
            assert_eq!(inc.snapshot().unwrap().dead_slots(), 0, "after session {s}");
            agrees_with_a_build(&inc, &log, 5);
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
        let log = lasting;
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
            agrees_with_a_build(&inc, &log, 5);
        }
        // The renumbering merges are the only ones that started at rank 0.
        let sharing = inc.take_sharing();
        assert!(sharing.ranks_unchanged * 10 > sharing.ranks_total * 8, "{sharing:?}");
        assert!(sharing.ranks_unchanged < sharing.ranks_total);
    }

    #[test]
    fn dead_posting_entries_stay_bounded_under_hot_item_churn() {
        // 40 lasting sessions, each with an item of its own and one of three
        // hot items; then sessions of the three hot items alone at the
        // recent end. Each rewrites the hot postings and leaves their old
        // entries dead, until ten times the live entries have died.
        let mut inc = IncrementalIndexer::new(5).unwrap();
        let lasting: Vec<Click> = (0..40u64)
            .flat_map(|s| [Click::new(s, s, 1_000 + s), Click::new(s, 100 + s % 3, 1_000 + s)])
            .collect();
        inc.apply_batch(&lasting).unwrap();
        let mut log = lasting;
        let live = inc.snapshot().unwrap().posting_entries();
        let (mut died, mut compactions) = (0, 0);
        for s in 100u64.. {
            if died >= 10 * live {
                break;
            }
            let before = inc.snapshot().unwrap();
            let hot = [100, 101, 102].map(|item| Click::new(s, item, s * 10));
            inc.apply_batch(&hot).unwrap();
            log.extend_from_slice(&hot);
            let after = inc.snapshot().unwrap();
            died += hot.iter().map(|c| before.postings(c.item_id).unwrap().len()).sum::<usize>();
            let (dead, dead_before) = (after.dead_posting_entries(), before.dead_posting_entries());
            compactions += usize::from(dead < dead_before);
            assert!(
                dead <= after.posting_entries(),
                "{dead} dead entries beside {} live after session {s}",
                after.posting_entries()
            );
            assert_same(&after, &SessionIndex::build(&log, 5).unwrap());
        }
        assert!(compactions >= 5, "{compactions} compactions");
        // Sessions of new items only: no entry dies, yet the arenas — one a
        // merge — are compacted before they pass their cap.
        for s in 1_000..1_000 + 2 * MAX_ARENAS as u64 {
            let new_item = Click::new(s, 10_000 + s, s * 100);
            inc.apply_batch(&[new_item]).unwrap();
            log.push(new_item);
            let live = inc.snapshot().unwrap();
            assert!(live.arenas().len() <= MAX_ARENAS, "{} arenas", live.arenas().len());
            assert_eq!(live.postings(10_000 + s).unwrap(), &[live.num_sessions() as SessionId - 1]);
        }
        let built = SessionIndex::build(&log, 5).unwrap();
        assert_same(&inc.snapshot().unwrap(), &built);
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
        assert_eq!(inc.tombstones.len(), 1);
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
        let mut inc = IncrementalIndexer::with_retained_session_items_cap(5, 20).unwrap();
        let mut log = Vec::new();
        let mut feed = |inc: &mut IncrementalIndexer, s: u64| {
            let b = [Click::new(s, s % 4, s * 10), Click::new(s, (s + 1) % 4, s * 10 + 1)];
            inc.apply_batch(&b).unwrap();
            log.extend_from_slice(&b);
            prune(&mut log, inc);
        };
        for s in 1..=10u64 {
            feed(&mut inc, s);
        }
        // Session 9 is still retained; delete it, then push more traffic so
        // retention compacts around the hole.
        assert!(inc.delete_session(9).unwrap());
        for s in 11..=30u64 {
            feed(&mut inc, s);
        }
        assert!(inc.compaction_count() > 0);
        assert!(!inc.session_ids().contains(&9));
        prune(&mut log, &inc);
        let reference = SessionIndex::build(&log, 5).unwrap();
        assert_same(&inc.snapshot().unwrap(), &reference);
    }

    #[test]
    fn deleting_the_only_session_empties_the_index() {
        let mut inc = IncrementalIndexer::new(5).unwrap();
        inc.apply_batch(&[Click::new(1, 0, 100), Click::new(1, 1, 101)]).unwrap();
        assert!(inc.delete_session(1).unwrap());
        assert_eq!(inc.num_sessions(), 0);
        assert_eq!(inc.retained_session_items(), 0);
        assert!(inc.snapshot().is_err(), "empty index has no snapshot");
        // The indexer keeps working after emptying out.
        inc.apply_batch(&[Click::new(2, 2, 200)]).unwrap();
        assert_eq!(inc.num_sessions(), 1);
    }

    #[test]
    fn single_oversized_session_is_kept_whole() {
        // One session bigger than the cap: retention never splits a session
        // and always keeps the newest, so the index may exceed the cap here.
        let mut inc = IncrementalIndexer::with_retained_session_items_cap(5, 3).unwrap();
        let b: Vec<Click> = (0..6).map(|i| Click::new(1, i, 100 + i)).collect();
        inc.apply_batch(&b).unwrap();
        assert_eq!(inc.retained_session_items(), 6);
        assert_eq!(inc.num_sessions(), 1);
    }
}
