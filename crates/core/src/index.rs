//! The VMIS-kNN session-similarity index `(M, t)`.
//!
//! The index (Section 3 of the paper) consists of:
//!
//! * the inverted index `M`: a hash map from an item `i` to the array `m_i`
//!   of the (at most) `m` most recent historical sessions containing `i`,
//!   stored in **descending recency order** so the most recent session is
//!   the first entry — this enables early stopping;
//! * the timestamp array `t`: one integer timestamp per historical session,
//!   indexed by dense [`SessionId`], giving constant-time random access;
//! * per-session item lists (needed for the final item-scoring step) stored
//!   as accumulator slots in CSR layout to avoid per-session allocations;
//! * per-item support counts `h_i` (the number of historical sessions
//!   containing the item) for the idf weighting.
//!
//! ## The id is the recency key
//!
//! Sessions receive dense ids in ascending `(timestamp, external id)` order,
//! so for two sessions `a`, `b`: `(t_a, a) < (t_b, b) ⟺ a < b`. Proof:
//! `a < b` means `a` was numbered first, hence `t_a ≤ t_b`, hence `(t_a, a)
//! < (t_b, b)` lexicographically; both orders are strict and total, so the
//! converse follows by swapping `a` and `b`. The recency sample of VMIS-kNN
//! depends only on this *order*, never on a timestamp's magnitude, so a
//! posting stores ids alone and the kernel compares ids alone: "descending
//! recency" and "descending id" are one order. Every producer upholds the
//! invariant and [`SessionIndex::from_parts`] checks it on anything loaded
//! from outside; `t` survives as a column for the consumers that need a
//! time (incremental merges, snapshot diffing), not for ordering.
//!
//! ## Segments and slots
//!
//! The per-session columns — `t`, the CSR offsets and the items' slots — are
//! kept in [`Segment`]s of [`SEGMENT_SESSIONS`] sessions, each behind an [`Arc`]:
//! session `s` is row `s % SEGMENT_SESSIONS` of segment
//! `s / SEGMENT_SESSIONS`, every segment but the last is full. Consecutive
//! generations of a live index (`serenade_index::IncrementalIndexer`) share
//! every segment below the first rank a publish changed, as they share every
//! posting array it did not change, so a [`SessionIndex`] is a handle that
//! clones in constant time and a publish writes O(delta), not O(index).
//!
//! Each item has an **accumulator slot**: a small integer the scoring kernel
//! indexes its per-item tables by. The slot is a property of the index,
//! stored in the item's [`Posting`] and — as a `u32` stream — in every
//! segment, so scoring a session reads 4 bytes an item and never a hash
//! table. The slot stream is the only record of a session's items:
//! [`SessionIndex::session_items`] reads them back through
//! [`SessionIndex::slot_items`]. So a slot is assigned when the item first
//! appears, and it is neither renumbered nor handed to another item while
//! any segment holds it. Built and loaded indexes number items in ascending
//! id order; a live index appends, and numbers afresh only when it rewrites
//! every segment anyway. Slot numbering is not part of what an index *is*:
//! two indexes of the same log answer identically under any numbering.

use std::sync::Arc;

use crate::error::CoreError;
use crate::hash::FxHashMap;
use crate::types::{Click, ItemId, SessionId, Timestamp};

mod build;

const SEGMENT_SHIFT: u32 = 12;

/// Sessions per [`Segment`]. A constant: it is the unit a publish at the
/// recent end rewrites, and every reader divides by it.
pub const SEGMENT_SESSIONS: usize = 1 << SEGMENT_SHIFT;

/// Posting list of an item: the `m` most recent sessions containing it, plus
/// the total support count `h_i` over *all* historical sessions.
///
/// This is the one form a posting has — in the builders, in the binary
/// artefact and in memory: dense session ids, 4 bytes an entry. The id *is*
/// the recency key (see the module docs), so nothing else is stored with it.
#[derive(Debug, Clone)]
pub struct Posting {
    /// Session ids in strictly descending order — most recent first —
    /// truncated to the index's `m_max`. Shared, not copied, between index
    /// generations that agree on it.
    pub entries: Arc<[SessionId]>,
    /// `h_i`: number of historical sessions containing the item (before
    /// truncation to `m_max`).
    pub support: u32,
    /// The item's accumulator slot (see the module docs).
    /// [`SessionIndex::from_parts`] checks it against the slot table.
    pub slot: u32,
}

/// Aggregate statistics of a built index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// Number of historical sessions (|H|).
    pub num_sessions: usize,
    /// Number of distinct items (|I|).
    pub num_items: usize,
    /// Total number of posting entries across all items.
    pub posting_entries: usize,
    /// Length of the longest posting list (≤ m_max).
    pub max_posting_len: usize,
    /// Total number of (session, item) pairs stored for scoring.
    pub session_item_entries: usize,
}

/// Heap bytes of an index by structure, from the real layouts: every `Arc`
/// counted with its two reference counts, the posting table with all its
/// buckets and control bytes. (Allocator headers and size-class rounding
/// come on top; they are the allocator's, not the layout's.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexBytes {
    /// The posting arrays: 4 bytes an entry plus one `Arc` header a posting.
    pub postings: usize,
    /// The item → posting hash table: buckets, occupied or not.
    pub posting_table: usize,
    /// The CSR layout of the sessions: the offsets of every segment, the
    /// segment headers and the table of segment pointers.
    pub session_items: usize,
    /// The timestamp column `t`.
    pub timestamps: usize,
    /// The slot streams of every segment — a session item is its slot, 4
    /// bytes — and the slot → item table.
    pub slots: usize,
}

impl IndexBytes {
    /// All structures together.
    pub fn total(&self) -> usize {
        self.postings + self.posting_table + self.session_items + self.timestamps + self.slots
    }
}

/// Checks that the timestamps of the `n` sessions do not decrease with the
/// dense id — the invariant that makes the id the recency key, and with it
/// the whole kernel order.
fn check_recency(n: usize, timestamp: impl Fn(usize) -> Timestamp) -> Result<(), CoreError> {
    match (1..n).find(|&s| timestamp(s - 1) > timestamp(s)) {
        Some(older) => Err(CoreError::CorruptIndex(format!(
            "session {older} is older than session {}: timestamps must not decrease with the \
             dense id",
            older - 1
        ))),
        None => Ok(()),
    }
}

/// Checks that every posting list holds strictly descending ids of the `n`
/// sessions, no more of them than `m_max` and than its support.
fn check_postings(
    postings: &FxHashMap<ItemId, Posting>,
    n: usize,
    m_max: usize,
) -> Result<(), CoreError> {
    for (item, posting) in postings {
        let entries = &posting.entries;
        if entries.len() > m_max {
            return Err(CoreError::CorruptIndex(format!(
                "posting list of item {item} longer than m_max"
            )));
        }
        if (posting.support as usize) < entries.len() {
            return Err(CoreError::CorruptIndex(format!(
                "posting list of item {item} longer than its support"
            )));
        }
        // Strictly descending, so the first entry bounds all of them.
        if entries.first().is_some_and(|&newest| newest as usize >= n) {
            return Err(CoreError::CorruptIndex(format!(
                "posting list of item {item} references unknown session"
            )));
        }
        if entries.windows(2).any(|w| w[0] <= w[1]) {
            return Err(CoreError::CorruptIndex(format!(
                "posting list of item {item} not in descending recency order"
            )));
        }
    }
    Ok(())
}

/// Heap bytes of an `Arc<[T]>` of `len` elements: the two counts, then the
/// elements, padded to the alignment of the whole.
fn arc_slice_bytes<T>(len: usize) -> usize {
    let align = std::mem::align_of::<usize>().max(std::mem::align_of::<T>());
    (2 * std::mem::size_of::<usize>() + len * std::mem::size_of::<T>()).next_multiple_of(align)
}

/// [`SEGMENT_SESSIONS`] consecutive sessions (fewer in an index's last
/// segment): their timestamps and, in CSR layout, their items' accumulator
/// slots. Immutable once made; generations share it by pointer.
#[derive(Debug)]
pub struct Segment {
    timestamps: Box<[Timestamp]>,
    /// Row `r` owns `slots[offsets[r]..offsets[r + 1]]`.
    offsets: Box<[u32]>,
    slots: Box<[u32]>,
}

impl Segment {
    /// A segment of `timestamps.len()` sessions. The caller vouches that
    /// `offsets` starts at 0, does not decrease and ends at `slots.len()`.
    ///
    /// # Panics
    ///
    /// If the three columns do not describe the same sessions.
    pub fn new(timestamps: Box<[Timestamp]>, offsets: Box<[u32]>, slots: Box<[u32]>) -> Self {
        assert!((1..=SEGMENT_SESSIONS).contains(&timestamps.len()), "segment size");
        assert_eq!(offsets.len(), timestamps.len() + 1, "one offset a session, and one");
        assert_eq!(offsets.last().copied(), Some(slots.len() as u32), "offsets end at the slots");
        debug_assert!(offsets[0] == 0 && offsets.windows(2).all(|w| w[0] <= w[1]));
        Self { timestamps, offsets, slots }
    }

    /// Number of sessions.
    #[allow(clippy::len_without_is_empty)] // never empty, by construction
    pub fn len(&self) -> usize {
        self.timestamps.len()
    }

    /// Timestamp of the session in `row`.
    #[inline]
    pub fn timestamp(&self, row: usize) -> Timestamp {
        self.timestamps[row]
    }

    /// Accumulator slots of the session's items in `row`, first-occurrence
    /// order.
    #[inline]
    pub fn slots(&self, row: usize) -> &[u32] {
        &self.slots[self.offsets[row] as usize..self.offsets[row + 1] as usize]
    }

    /// The slot column: the slots of every row, row after row.
    #[inline]
    pub fn slot_column(&self) -> &[u32] {
        &self.slots
    }
}

/// The items of one historical session, read through its slots: a borrowed
/// view that allocates nothing (see the module docs). It compares equal to
/// another view, or to a slice, holding the same items in the same order.
#[derive(Clone, Copy)]
pub struct SessionItems<'a> {
    slots: &'a [u32],
    slot_items: &'a [ItemId],
}

impl<'a> SessionItems<'a> {
    /// The items, first-occurrence order.
    #[inline]
    pub fn iter(self) -> impl ExactSizeIterator<Item = ItemId> + DoubleEndedIterator + 'a {
        self.slots.iter().map(move |&slot| self.slot_items[slot as usize])
    }

    /// Number of items.
    #[allow(clippy::len_without_is_empty)] // never empty: a session has a click
    #[inline]
    pub fn len(self) -> usize {
        self.slots.len()
    }

    /// `true` if the session lists `item`.
    #[inline]
    pub fn contains(self, item: &ItemId) -> bool {
        self.iter().any(|listed| listed == *item)
    }

    /// The items, copied out.
    pub fn to_vec(self) -> Vec<ItemId> {
        self.iter().collect()
    }
}

impl PartialEq for SessionItems<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl<T: AsRef<[ItemId]> + ?Sized> PartialEq<T> for SessionItems<'_> {
    fn eq(&self, other: &T) -> bool {
        self.iter().eq(other.as_ref().iter().copied())
    }
}

impl std::fmt::Debug for SessionItems<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Flat per-session columns as a producer holds them before they become an
/// index — the bytes of an artefact in a decoder — read by position, so
/// [`SessionIndex::from_parts`] lays them out in segments without a copy in
/// between.
pub trait SessionColumns {
    /// Number of sessions.
    fn num_sessions(&self) -> usize;
    /// Number of `(session, item)` entries, all sessions together.
    fn num_entries(&self) -> usize;
    /// Timestamp of `session < num_sessions()`.
    fn timestamp(&self, session: usize) -> Timestamp;
    /// CSR offset of `session <= num_sessions()`: its items are the entries
    /// `offset(session)..offset(session + 1)`.
    fn offset(&self, session: usize) -> u32;
    /// Accumulator slot of the item of `entry < num_entries()`.
    fn slot(&self, entry: usize) -> u32;
}

/// The prebuilt `(M, t)` index over historical sessions. Cloning is a
/// handle copy: the clone shares every array with the original.
#[derive(Debug, Clone)]
pub struct SessionIndex {
    postings: Arc<FxHashMap<ItemId, Posting>>,
    /// The per-session columns; all segments but the last are full.
    segments: Arc<[Arc<Segment>]>,
    num_sessions: usize,
    /// Item of each accumulator slot. A slot whose item has left the index
    /// keeps its entry until slots are numbered afresh.
    slot_items: Arc<[ItemId]>,
    m_max: usize,
}

impl SessionIndex {
    /// Builds the index from a click log: [`SessionIndex::build_with_threads`]
    /// on the caller's thread alone.
    ///
    /// # Errors
    ///
    /// As [`SessionIndex::build_with_threads`].
    pub fn build(clicks: &[Click], m_max: usize) -> Result<Self, CoreError> {
        Self::build_with_threads(clicks, m_max, 1)
    }

    /// Assembles an index from pre-built parts (an artefact being loaded),
    /// validating all structural invariants and laying the columns out in
    /// segments.
    ///
    /// The offsets of `columns` must start at 0, be monotone and end at its
    /// number of entries. Its timestamps must be non-decreasing in the dense
    /// id — the invariant that makes the id the recency key, and with it the
    /// whole kernel order. Posting lists must be strictly descending valid
    /// session ids, no longer than `m_max` and no longer than their support.
    /// Slots are numbered as a built index numbers them: `slot_items` is
    /// strictly ascending, every slot has the posting of its item and every
    /// posting names its slot, and every slot in `columns` is below
    /// `slot_items.len()`.
    ///
    /// # Errors
    ///
    /// [`CoreError::CorruptIndex`] describing the first violated invariant.
    pub fn from_parts(
        postings: FxHashMap<ItemId, Posting>,
        columns: &impl SessionColumns,
        slot_items: Arc<[ItemId]>,
        m_max: usize,
    ) -> Result<Self, CoreError> {
        let n = columns.num_sessions();
        if m_max == 0 {
            return Err(CoreError::CorruptIndex("m_max must be positive".into()));
        }
        if n > u32::MAX as usize {
            return Err(CoreError::CorruptIndex(format!("{n} sessions exceed the u32 id space")));
        }
        if columns.offset(0) != 0 || columns.offset(n) as usize != columns.num_entries() {
            return Err(CoreError::CorruptIndex("items_offsets endpoints invalid".into()));
        }
        if (0..n).any(|s| columns.offset(s) > columns.offset(s + 1)) {
            return Err(CoreError::CorruptIndex("items_offsets not monotone".into()));
        }
        check_recency(n, |s| columns.timestamp(s))?;
        check_postings(&postings, n, m_max)?;
        if let Some(slot) = (1..slot_items.len()).find(|&s| slot_items[s - 1] >= slot_items[s]) {
            return Err(CoreError::CorruptIndex(format!(
                "slot table not strictly ascending at slot {slot}"
            )));
        }
        if postings.len() != slot_items.len() {
            return Err(CoreError::CorruptIndex(format!(
                "{} postings for {} slots",
                postings.len(),
                slot_items.len()
            )));
        }
        if let Some((item, posting)) =
            postings.iter().find(|(item, p)| slot_items.get(p.slot as usize) != Some(item))
        {
            return Err(CoreError::CorruptIndex(format!(
                "posting of item {item} names slot {}, which is not its item's",
                posting.slot
            )));
        }

        let mut segments = Vec::with_capacity(n.div_ceil(SEGMENT_SESSIONS));
        for lo in (0..n).step_by(SEGMENT_SESSIONS) {
            let hi = n.min(lo + SEGMENT_SESSIONS);
            let base = columns.offset(lo);
            // Exact-size iterators collect straight into the segment's arrays.
            let slots: Box<[u32]> =
                (base as usize..columns.offset(hi) as usize).map(|e| columns.slot(e)).collect();
            if let Some(slot) = slots.iter().find(|&&slot| slot as usize >= slot_items.len()) {
                return Err(CoreError::CorruptIndex(format!(
                    "session item slot {slot} is not below the slot count {}",
                    slot_items.len()
                )));
            }
            segments.push(Arc::new(Segment::new(
                (lo..hi).map(|s| columns.timestamp(s)).collect(),
                (lo..=hi).map(|s| columns.offset(s) - base).collect(),
                slots,
            )));
        }
        Ok(Self::from_generation(postings, segments.into(), slot_items, m_max))
    }

    /// Assembles an index **without** validating it: the caller vouches for
    /// every invariant [`SessionIndex::from_parts`] checks, that all
    /// `segments` but the last hold [`SEGMENT_SESSIONS`] sessions, and that
    /// slots agree — `slot_items[posting.slot]` is the posting's item, and
    /// every slot in a segment names an item its session holds. This is how
    /// the incremental indexer emits the next generation of a live index — the
    /// arrays it passes are mostly the previous generation's own `Arc`s.
    /// With no segments the result is the empty index only this constructor
    /// can make.
    pub fn from_generation(
        postings: FxHashMap<ItemId, Posting>,
        segments: Arc<[Arc<Segment>]>,
        slot_items: Arc<[ItemId]>,
        m_max: usize,
    ) -> Self {
        let full = segments.len().saturating_sub(1);
        debug_assert!(segments[..full].iter().all(|s| s.len() == SEGMENT_SESSIONS));
        debug_assert!(postings.iter().all(|(i, p)| slot_items.get(p.slot as usize) == Some(i)));
        debug_assert!(segments
            .iter()
            .all(|s| s.slots.iter().all(|&slot| (slot as usize) < slot_items.len())));
        let num_sessions = full * SEGMENT_SESSIONS + segments.last().map_or(0, |s| s.len());
        Self { postings: Arc::new(postings), segments, num_sessions, slot_items, m_max }
    }

    /// Posting list `m_i` of `item`: the ids of the most recent sessions
    /// containing it, strictly descending — most recent first. `None` if the
    /// item never occurred.
    #[inline]
    pub fn postings(&self, item: ItemId) -> Option<&[SessionId]> {
        self.postings.get(&item).map(|p| &*p.entries)
    }

    /// Support `h_i` of `item` (sessions containing it), if it occurred.
    #[inline]
    pub fn item_support(&self, item: ItemId) -> Option<u32> {
        self.postings.get(&item).map(|p| p.support)
    }

    /// Accumulator slot of `item`, if it has a posting.
    #[inline]
    pub fn item_slot(&self, item: ItemId) -> Option<u32> {
        self.postings.get(&item).map(|p| p.slot)
    }

    /// The whole posting table, as the next generation starts from it.
    pub fn posting_table(&self) -> &FxHashMap<ItemId, Posting> {
        &self.postings
    }

    /// The segments, in session order.
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// The slot → item table, as the next generation starts from it. It is
    /// as long as the kernel's per-slot tables have to be.
    pub fn slot_items(&self) -> &Arc<[ItemId]> {
        &self.slot_items
    }

    /// Slots no item holds any more: their items have left the index since
    /// slots were last numbered.
    pub fn dead_slots(&self) -> usize {
        self.slot_items.len() - self.postings.len()
    }

    #[inline]
    fn locate(&self, session: SessionId) -> (&Segment, usize) {
        let session = session as usize;
        (&self.segments[session >> SEGMENT_SHIFT], session & (SEGMENT_SESSIONS - 1))
    }

    /// Timestamp `t_h` of a historical session (constant-time array access).
    #[inline]
    pub fn session_timestamp(&self, session: SessionId) -> Timestamp {
        let (segment, row) = self.locate(session);
        segment.timestamp(row)
    }

    /// Deduplicated items of a historical session, first-occurrence order,
    /// read through their slots.
    #[inline]
    pub fn session_items(&self, session: SessionId) -> SessionItems<'_> {
        SessionItems { slots: self.session_slots(session), slot_items: &self.slot_items }
    }

    /// Accumulator slots of a historical session's items, in item order.
    #[inline]
    pub fn session_slots(&self, session: SessionId) -> &[u32] {
        let (segment, row) = self.locate(session);
        segment.slots(row)
    }

    /// Number of historical sessions `|H|`.
    #[inline]
    pub fn num_sessions(&self) -> usize {
        self.num_sessions
    }

    /// Number of distinct items `|I|`.
    #[inline]
    pub fn num_items(&self) -> usize {
        self.postings.len()
    }

    /// The maximum posting-list length this index was built for.
    #[inline]
    pub fn m_max(&self) -> usize {
        self.m_max
    }

    /// Iterates over all indexed items in unspecified order.
    pub fn items(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.postings.keys().copied()
    }

    /// Iterates over `(item, posting)` pairs in unspecified order.
    pub fn postings_iter(&self) -> impl Iterator<Item = (ItemId, &Posting)> {
        self.postings.iter().map(|(&i, p)| (i, p))
    }

    /// Computes aggregate statistics (sizes).
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            num_sessions: self.num_sessions(),
            num_items: self.num_items(),
            posting_entries: self.postings.values().map(|p| p.entries.len()).sum(),
            max_posting_len: self.postings.values().map(|p| p.entries.len()).max().unwrap_or(0),
            session_item_entries: self.segments.iter().map(|s| s.slots.len()).sum(),
        }
    }

    /// Heap bytes by structure (see [`IndexBytes`]). Walks the posting
    /// table: for a scrape, not for a request or a publish.
    pub fn bytes(&self) -> IndexBytes {
        // hashbrown's layout, recovered from the capacity it reports: a
        // power-of-two number of buckets of which 7/8 may fill (all but one
        // below 8 buckets), each a `(key, value)` slot plus one control
        // byte, and one trailing group of 16 control bytes.
        let buckets = match self.postings.capacity() {
            0 => 0,
            cap @ 1..=7 => cap + 1,
            cap => cap / 7 * 8,
        };
        let slot = std::mem::size_of::<(ItemId, Posting)>() + 1;
        let entries: usize = self.segments.iter().map(|s| s.slots.len()).sum();
        let sessions = self.num_sessions;
        let headers = self.segments.len() * (16 + std::mem::size_of::<Segment>())
            + arc_slice_bytes::<Arc<Segment>>(self.segments.len());
        IndexBytes {
            postings: self
                .postings
                .values()
                .map(|p| arc_slice_bytes::<SessionId>(p.entries.len()))
                .sum(),
            posting_table: if buckets == 0 { 0 } else { buckets * slot + 16 },
            session_items: 4 * (sessions + self.segments.len()) + headers,
            timestamps: 8 * sessions,
            slots: 4 * entries + arc_slice_bytes::<ItemId>(self.slot_items.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small deterministic click log: three sessions with increasing
    /// timestamps and overlapping items.
    fn sample_clicks() -> Vec<Click> {
        vec![
            Click::new(100, 1, 10),
            Click::new(100, 2, 11),
            Click::new(100, 1, 12), // duplicate item in session
            Click::new(200, 2, 20),
            Click::new(200, 3, 21),
            Click::new(300, 1, 30),
            Click::new(300, 3, 31),
        ]
    }

    /// An index taken apart into the flat parts a producer would hold.
    struct Parts {
        postings: FxHashMap<ItemId, Posting>,
        timestamps: Vec<Timestamp>,
        offsets: Vec<u32>,
        slots: Vec<u32>,
        slot_items: Vec<ItemId>,
        m_max: usize,
    }

    impl Parts {
        fn of(index: &SessionIndex) -> Self {
            let sessions = 0..index.num_sessions() as SessionId;
            let mut offsets = vec![0];
            let mut slots = Vec::new();
            for s in sessions.clone() {
                slots.extend_from_slice(index.session_slots(s));
                offsets.push(slots.len() as u32);
            }
            Self {
                postings: index.posting_table().clone(),
                timestamps: sessions.map(|s| index.session_timestamp(s)).collect(),
                offsets,
                slots,
                slot_items: index.slot_items().to_vec(),
                m_max: index.m_max(),
            }
        }

        fn assemble(mut self) -> Result<SessionIndex, CoreError> {
            let postings = std::mem::take(&mut self.postings);
            let slot_items = self.slot_items[..].into();
            SessionIndex::from_parts(postings, &self, slot_items, self.m_max)
        }
    }

    impl SessionColumns for Parts {
        fn num_sessions(&self) -> usize {
            self.timestamps.len()
        }

        fn num_entries(&self) -> usize {
            self.slots.len()
        }

        fn timestamp(&self, session: usize) -> Timestamp {
            self.timestamps[session]
        }

        fn offset(&self, session: usize) -> u32 {
            self.offsets[session]
        }

        fn slot(&self, entry: usize) -> u32 {
            self.slots[entry]
        }
    }

    #[test]
    fn build_assigns_dense_ids_in_timestamp_order() {
        let idx = SessionIndex::build(&sample_clicks(), 10).unwrap();
        assert_eq!(idx.num_sessions(), 3);
        // Session timestamps ascending with the dense id.
        assert_eq!(idx.session_timestamp(0), 12);
        assert_eq!(idx.session_timestamp(1), 21);
        assert_eq!(idx.session_timestamp(2), 31);
    }

    #[test]
    fn session_items_are_deduplicated_in_order() {
        let idx = SessionIndex::build(&sample_clicks(), 10).unwrap();
        assert_eq!(idx.session_items(0), &[1, 2]); // dup of item 1 removed
        assert_eq!(idx.session_items(1), &[2, 3]);
        assert_eq!(idx.session_items(2), &[1, 3]);
    }

    #[test]
    fn postings_are_descending_by_recency() {
        let idx = SessionIndex::build(&sample_clicks(), 10).unwrap();
        assert_eq!(idx.postings(1).unwrap(), &[2, 0]);
        assert_eq!(idx.postings(2).unwrap(), &[1, 0]);
        assert_eq!(idx.postings(3).unwrap(), &[2, 1]);
        assert_eq!(idx.postings(999), None);
    }

    #[test]
    fn a_posting_entry_is_four_bytes() {
        // The layout the RSS claim rests on: an entry is the dense id and
        // nothing else (DESIGN.md §4.8).
        let idx = SessionIndex::build(&sample_clicks(), 10).unwrap();
        assert_eq!(std::mem::size_of_val(&idx.postings(1).unwrap()[0]), 4);
        assert_eq!(idx.bytes().postings, 3 * (16 + 2 * 4));
    }

    #[test]
    fn a_session_item_is_four_bytes() {
        // A session item is its slot and nothing else; its id is read back
        // through the slot → item table (DESIGN.md §4.8). Six entries of 4
        // bytes, four 4-byte offsets for three sessions, the one segment —
        // three boxed columns behind an `Arc` — and the one-pointer table of
        // segments, and three 8-byte items in the slot table behind its `Arc`.
        let idx = SessionIndex::build(&sample_clicks(), 10).unwrap();
        let bytes = idx.bytes();
        assert_eq!(std::mem::size_of::<Segment>(), 3 * 16);
        assert_eq!(
            bytes.session_items + bytes.slots,
            6 * 4 + 4 * 4 + (16 + 3 * 16) + (16 + 8) + (16 + 3 * 8)
        );
    }

    #[test]
    fn postings_truncate_to_m_max_keeping_most_recent() {
        let idx = SessionIndex::build(&sample_clicks(), 1).unwrap();
        // Only the most recent session per item is kept...
        assert_eq!(idx.postings(1).unwrap(), &[2]);
        // ...but supports still count all containing sessions.
        assert_eq!(idx.item_support(1), Some(2));
        assert_eq!(idx.item_support(3), Some(2));
    }

    #[test]
    fn support_counts_sessions_not_clicks() {
        let idx = SessionIndex::build(&sample_clicks(), 10).unwrap();
        // Item 1 appears twice in session 100 but once in the support count.
        assert_eq!(idx.item_support(1), Some(2));
        assert_eq!(idx.item_support(2), Some(2));
    }

    #[test]
    fn empty_input_is_rejected() {
        assert!(matches!(SessionIndex::build(&[], 10), Err(CoreError::EmptyDataset)));
    }

    #[test]
    fn zero_m_max_is_rejected() {
        let err = SessionIndex::build(&sample_clicks(), 0).unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig { parameter: "m_max", .. }));
    }

    #[test]
    fn stats_are_consistent() {
        let idx = SessionIndex::build(&sample_clicks(), 10).unwrap();
        let stats = idx.stats();
        assert_eq!(stats.num_sessions, 3);
        assert_eq!(stats.num_items, 3);
        assert_eq!(stats.posting_entries, 6);
        assert_eq!(stats.session_item_entries, 6);
        assert_eq!(stats.max_posting_len, 2);
    }

    #[test]
    fn timestamp_ties_are_broken_deterministically() {
        // Two sessions with identical timestamps: ordered by external id.
        let clicks = vec![
            Click::new(2, 7, 100),
            Click::new(1, 8, 100),
        ];
        let idx = SessionIndex::build(&clicks, 10).unwrap();
        assert_eq!(idx.session_items(0), &[8]); // external 1 first
        assert_eq!(idx.session_items(1), &[7]);
    }

    #[test]
    fn roundtrip_through_parts_preserves_index() {
        let idx = SessionIndex::build(&sample_clicks(), 10).unwrap();
        let idx2 = Parts::of(&idx).assemble().unwrap();
        assert_eq!(idx2.stats(), idx.stats());
        assert_eq!(idx2.postings(1).unwrap(), &[2, 0]);
        assert_eq!(idx2.session_items(2), &[1, 3]);
    }

    #[test]
    fn from_parts_rejects_bad_offsets() {
        let mut parts = Parts::of(&SessionIndex::build(&sample_clicks(), 10).unwrap());
        parts.offsets[1] = 100; // out of range / non-monotone
        assert!(matches!(parts.assemble(), Err(CoreError::CorruptIndex(_))));
    }

    #[test]
    fn from_parts_rejects_unsorted_postings() {
        let mut parts = Parts::of(&SessionIndex::build(&sample_clicks(), 10).unwrap());
        parts.postings.get_mut(&1).unwrap().entries = [0, 2].into(); // ascending: wrong
        assert!(matches!(parts.assemble(), Err(CoreError::CorruptIndex(_))));
    }

    #[test]
    fn from_parts_rejects_unknown_and_repeated_sessions() {
        for bad in [[3, 0], [2, 2]] {
            let mut parts = Parts::of(&SessionIndex::build(&sample_clicks(), 10).unwrap());
            parts.postings.get_mut(&1).unwrap().entries = bad.into();
            assert!(matches!(parts.assemble(), Err(CoreError::CorruptIndex(_))), "{bad:?}");
        }
    }

    #[test]
    fn from_parts_rejects_timestamps_that_decrease_with_the_id() {
        // Unchecked, this would silently reverse the kernel's recency order:
        // ids are all it compares.
        let idx = SessionIndex::build(&sample_clicks(), 10).unwrap();
        let mut parts = Parts::of(&idx);
        parts.timestamps.swap(1, 2);
        assert!(matches!(parts.assemble(), Err(CoreError::CorruptIndex(m)) if m.contains("session 2")));
        // Ties are fine: equal timestamps are ordered by external id.
        let mut parts = Parts::of(&idx);
        parts.timestamps = vec![12, 21, 21];
        parts.assemble().unwrap();
    }

    #[test]
    fn from_parts_rejects_posting_longer_than_support() {
        let mut parts = Parts::of(&SessionIndex::build(&sample_clicks(), 10).unwrap());
        parts.postings.get_mut(&1).unwrap().support = 1; // posting has 2 entries
        assert!(matches!(parts.assemble(), Err(CoreError::CorruptIndex(_))));
    }

    #[test]
    fn slots_are_numbered_by_item_id_and_from_parts_checks_every_slot() {
        let idx = SessionIndex::build(&sample_clicks(), 10).unwrap();
        assert_eq!(&idx.slot_items()[..], &[1, 2, 3]);
        assert_eq!((idx.item_slot(3), idx.session_slots(1)), (Some(2), &[1, 2][..]));
        assert_eq!(idx.dead_slots(), 0);
        let rejection = |edit: fn(&mut Parts)| {
            let mut parts = Parts::of(&idx);
            edit(&mut parts);
            match parts.assemble() {
                Err(CoreError::CorruptIndex(reason)) => reason,
                other => panic!("expected a rejection, got {other:?}"),
            }
        };
        let reason = rejection(|p| p.slot_items.swap(0, 1));
        assert!(reason.contains("slot table not strictly ascending at slot 1"), "{reason}");
        let reason = rejection(|p| p.slots[3] = 3);
        assert!(reason.contains("slot 3 is not below the slot count 3"), "{reason}");
        // Item 1 is listed by two sessions but has no posting.
        let reason = rejection(|p| drop(p.postings.remove(&1)));
        assert!(reason.contains("2 postings for 3 slots"), "{reason}");
        let reason = rejection(|p| p.postings.get_mut(&3).unwrap().slot = 0);
        assert!(reason.contains("item 3 names slot 0"), "{reason}");
    }

    #[test]
    fn sessions_beyond_one_segment_are_found_in_theirs() {
        let n = SEGMENT_SESSIONS as u64 * 2 + 5;
        let clicks: Vec<Click> =
            (0..n).flat_map(|s| [Click::new(s, s % 7, s), Click::new(s, 7 + s % 3, s)]).collect();
        let idx = SessionIndex::build(&clicks, 10).unwrap();
        let sizes: Vec<usize> = idx.segments().iter().map(|s| s.len()).collect();
        assert_eq!(sizes, [SEGMENT_SESSIONS, SEGMENT_SESSIONS, 5]);
        for s in [0, SEGMENT_SESSIONS as u64 - 1, SEGMENT_SESSIONS as u64, n - 1] {
            assert_eq!(idx.session_timestamp(s as SessionId), s);
            assert_eq!(idx.session_items(s as SessionId), &[s % 7, 7 + s % 3]);
            let slots = idx.session_slots(s as SessionId);
            assert_eq!([idx.slot_items()[slots[0] as usize], idx.slot_items()[slots[1] as usize]], [s % 7, 7 + s % 3]);
        }
        assert_eq!(idx.stats().session_item_entries, 2 * n as usize);
    }

    #[test]
    fn single_session_dataset_builds() {
        let clicks = vec![Click::new(1, 5, 1), Click::new(1, 6, 2)];
        let idx = SessionIndex::build(&clicks, 500).unwrap();
        assert_eq!(idx.num_sessions(), 1);
        assert_eq!(idx.postings(5).unwrap(), &[0]);
        assert_eq!(idx.session_items(0), &[5, 6]);
    }
}
