//! The VMIS-kNN session-similarity index `(M, t)`.
//!
//! The index (Section 3 of the paper) consists of:
//!
//! * the inverted index `M`: for an item `i`, the array `m_i` of the (at
//!   most) `m` most recent historical sessions containing `i`, stored in
//!   **descending recency order** so the most recent session is the first
//!   entry — this enables early stopping. The arrays lie end to end in a few
//!   large `u32` arenas; the [`Records`], a [`Posting`] a slot, say where
//!   each lies, and the [`SlotTable`] finds an item's slot (see *Postings
//!   and arenas*);
//! * the timestamp array `t`: one integer timestamp per historical session,
//!   indexed by dense [`SessionId`], giving constant-time random access. It
//!   is non-decreasing in the id (see below), so each segment codes its
//!   share in Elias–Fano form, about `2 + log₂(span / n)` bits a session
//!   (under a byte on a day-long log) instead of 8 bytes, and reads any
//!   entry with one sampled select;
//! * per-session item lists (needed for the final item-scoring step) stored
//!   as accumulator slots in CSR layout to avoid per-session allocations,
//!   each in ascending item-id order (see *Rows are sets*), at the narrowest
//!   whole-byte width of their segment (see *Segments and slots*);
//! * per-item support counts `h_i` (the number of historical sessions
//!   containing the item) for the idf weighting, in the records.
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
//! invariant, and an artefact cannot break it: it stores each timestamp as
//! its increase over the one before (`serenade_index::binfmt`). `t`
//! survives as a column for the consumers that need a time — the artefact
//! writer, the live indexer's merges, the scan baselines — not for
//! ordering; no request path reads it.
//!
//! ## Segments and slots
//!
//! The per-session columns — `t`, the CSR offsets and the items' slots — are
//! kept in [`Segment`]s of [`SEGMENT_SESSIONS`] sessions, each behind an [`Arc`]:
//! session `s` is row `s % SEGMENT_SESSIONS` of segment
//! `s / SEGMENT_SESSIONS`, every segment but the last is full. Consecutive
//! generations of a live index (`serenade_index::IncrementalIndexer`) share
//! every segment below the first rank a publish changed, as they share every
//! posting it did not change, so a [`SessionIndex`] is a handle that clones
//! in constant time and a publish writes O(delta), not O(index).
//!
//! Each item has an **accumulator slot**: a small integer the scoring kernel
//! indexes its per-item tables by. The slot is a property of the index: the
//! [`SlotTable`] maps an item to it, the item's [`Posting`] is the record at
//! it, and every segment holds it in its slot column, so scoring a session
//! reads a few bytes an item and never a hash table. The slot column is the
//! only record of a session's items: [`SessionIndex::session_items`] reads
//! them back through [`SessionIndex::slot_items`]. So a slot is
//! assigned when the item first appears, and it is neither renumbered nor
//! handed to another item while any segment holds it; an item that leaves
//! keeps it, dead, and takes it back if it returns. Built and loaded
//! indexes number items in ascending id order; a live index appends, and
//! numbers afresh only when it rewrites every segment anyway. Slot
//! numbering is not part of what an index *is*: two indexes of the same log
//! answer identically under any numbering.
//!
//! A segment stores its slot column, and its row offsets, each at the
//! narrowest whole-byte width — 1 to 4 bytes — that holds the column's
//! largest value, chosen when the segment is made and read through one view,
//! [`Row`]: 3-byte slots below 2²⁴ items, 2-byte offsets below 65,536 slot
//! entries a segment. A segment a publish does not touch keeps its width, so
//! a catalogue that outgrows a width widens only the segments made after.
//!
//! The per-slot tables are [`Column`]s too, each made at its own narrowest
//! width: the three fields of the records, the slot → item table (`u64`
//! ids at 1 to 8 bytes, read as one 8-byte load) and the slot table's
//! buckets, which hold a slot plus one and 0 for an empty bucket. Every
//! writer knows each table's largest value when it makes it: the build and
//! a load write them from the supports and the decoded ids, and a publish
//! copies them with its changes, at a wider width only when a change needs
//! one.
//!
//! ## Rows are sets
//!
//! A session's row is the set of its items. The kernel reads it as one:
//! it adds one weight per slot, and ranks ties by item id, so the order of
//! a row cannot change a bit of an answer. Every producer writes a row in
//! one canonical order, ascending item id — the build and every merge of a
//! live index, and the artefact writer keeps it — which depends on no slot
//! numbering, so two indexes of the same log hold the same rows. A row in
//! another order (artefacts written before rows were canonical kept each
//! item at its first click) answers the same; an artefact now stores every
//! row strictly ascending, so a load makes none.
//!
//! ## Postings and arenas
//!
//! A posting's entries are a range of one of the index's arenas
//! (`Arc<[SessionId]>`), and its [`Posting`] record holds the support, the
//! arena and the range's start. The [`Records`] hold each field as a column
//! by slot, a support of 0 marking a dead slot; the item is
//! not stored with them, since the slot → item table already holds it. The
//! range holds `min(h_i, m_max)` entries: every producer keeps the `m_max`
//! most recent sessions of an item, or all of them, so the length follows
//! from the support and is not stored. `postings(item)` is a probe of the
//! [`SlotTable`] — a walk over narrow buckets, each hit confirmed through
//! the slot → item table — a read of each record field and one arena read.
//!
//! A build or a load writes one arena, postings by slot, with no allocation
//! per posting, and the record column beside it. A live merge writes the
//! postings it rewrites into one fresh arena and leaves the others where
//! they are: untouched records, and the arenas they point into, are the
//! previous generation's. The entries a rewritten posting leaves behind are
//! dead — no record points at them — until a merge copies the live ones
//! into one arena again
//! ([`SessionIndex::compact_postings`]; the indexer decides when).

use std::ops::Range;
use std::sync::Arc;

use crate::error::CoreError;
use crate::types::{Click, ItemId, SessionId, Timestamp};

mod build;
mod column;
mod elias_fano;
mod slot_table;

pub use build::BuildPhases;
pub use column::{Column, Row};
use elias_fano::EliasFano;
pub use slot_table::SlotTable;

const SEGMENT_SHIFT: u32 = 12;

/// Sessions per [`Segment`]. A constant: it is the unit a publish at the
/// recent end rewrites, and every reader divides by it.
pub const SEGMENT_SESSIONS: usize = 1 << SEGMENT_SHIFT;

/// An item's entry in `M`, the record at its slot: the support count `h_i`
/// over *all* historical sessions, and where its posting list lies. `Copy`;
/// the record of a dead slot has a support of 0. The index stores each
/// field in a column of its own ([`Records`]).
///
/// The entries are dense session ids, 4 bytes each, strictly descending —
/// most recent first — truncated to the index's `m_max`: the one form a
/// posting has in the builders, in the binary artefact and in memory. The
/// id *is* the recency key (see the module docs), so nothing else is stored
/// with it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Posting {
    /// `h_i`: number of historical sessions containing the item (before
    /// truncation to `m_max`); 0 for a slot whose item has no posting.
    pub support: u32,
    /// The arena holding the entries: an index into
    /// [`SessionIndex::arenas`].
    pub arena: u32,
    /// Where in that arena the entries start.
    pub start: u32,
}

impl Posting {
    /// Where the entries lie in their arena, in an index of posting
    /// capacity `m_max`: `min(h_i, m_max)` of them from `start`.
    #[inline]
    pub fn range(self, m_max: usize) -> Range<usize> {
        let start = self.start as usize;
        start..start + m_max.min(self.support as usize)
    }
}

/// The records of an index, by slot: each field of [`Posting`] a
/// [`Column`] at its own narrowest width. Cloning copies the columns.
#[derive(Debug, Clone, Default)]
pub struct Records {
    support: Column,
    start: Column,
    arena: Column,
}

impl Records {
    /// The record at `slot`: three masked loads.
    #[inline]
    pub fn get(&self, slot: usize) -> Posting {
        Posting {
            support: self.support.get(slot),
            arena: self.arena.get(slot),
            start: self.start.get(slot),
        }
    }

    /// Every record, by slot.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Posting> + '_ {
        (0..self.len()).map(|slot| self.get(slot))
    }

    /// Number of slots.
    #[allow(clippy::len_without_is_empty)] // `len() == 0` says it
    pub fn len(&self) -> usize {
        self.support.len()
    }

    /// Heap bytes of the three columns.
    pub fn bytes(&self) -> usize {
        self.support.bytes() + self.start.bytes() + self.arena.bytes()
    }

    /// The first `kept` records, then dead ones up to `len`, with `updates`
    /// — `(slot, record)` pairs — written over them (see
    /// [`Column::patched`]): what a publish makes of the previous
    /// generation's records.
    pub fn patched(&self, kept: usize, len: usize, updates: &[(u32, Posting)]) -> Self {
        let field = |column: &Column, field: fn(&Posting) -> u32| {
            let updates = updates.iter().map(move |(slot, p)| (*slot as usize, field(p)));
            column.patched(kept, len, updates)
        };
        Self {
            support: field(&self.support, |p| p.support),
            start: field(&self.start, |p| p.start),
            arena: field(&self.arena, |p| p.arena),
        }
    }
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
/// counted with its two reference counts, the slot table with all its
/// buckets. (Allocator headers and size-class rounding come on top; they
/// are the allocator's, not the layout's.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexBytes {
    /// The posting arenas: 4 bytes an entry, dead ones included, one `Arc`
    /// header an arena, and the table of arenas.
    pub postings: usize,
    /// What finds an item's posting: the [`Records`], a column a field, and
    /// the [`SlotTable`]'s buckets, occupied or not, each behind its `Arc`.
    pub posting_table: usize,
    /// The CSR layout of the sessions: the offsets of every segment, at its
    /// width, the segment headers and the table of segment pointers.
    pub session_items: usize,
    /// The timestamp column `t`: every segment's Elias–Fano array, about
    /// `2 + log₂(span / n)` bits a session.
    pub timestamps: usize,
    /// The slot columns of every segment — a session item is its slot, at
    /// its segment's width — and the slot → item table behind its `Arc`.
    pub slots: usize,
}

impl IndexBytes {
    /// All structures together.
    pub fn total(&self) -> usize {
        self.postings + self.posting_table + self.session_items + self.timestamps + self.slots
    }
}

/// A new arena of `len` entries, written in place by `fill`: one allocation
/// and no copy.
fn new_arena(len: usize, fill: impl FnOnce(&mut [SessionId])) -> Arc<[SessionId]> {
    // An exact-size iterator collects straight into the `Arc`'s allocation.
    let mut arena: Arc<[SessionId]> = (0..len).map(|_| 0).collect();
    fill(Arc::get_mut(&mut arena).expect("a new arena has no other owner"));
    arena
}

/// Where each of a run of ranges of lengths `lens`, laid end to end from
/// 0, starts: the running totals before each.
fn starts(lens: impl Iterator<Item = u32> + Clone) -> impl Iterator<Item = u32> + Clone {
    lens.scan(0, |total, len| {
        let start = *total;
        *total += len;
        Some(start)
    })
}

/// Heap bytes of an `Arc<[T]>` of `len` elements: the two counts, then the
/// elements, padded to the alignment of the whole.
fn arc_slice_bytes<T>(len: usize) -> usize {
    let align = std::mem::align_of::<usize>().max(std::mem::align_of::<T>());
    (2 * std::mem::size_of::<usize>() + len * std::mem::size_of::<T>()).next_multiple_of(align)
}

/// Heap bytes of an `Arc<T>` whose `T` owns `owned` heap bytes: the two
/// counts, the `T`, and what it owns.
fn arc_bytes<T>(owned: usize) -> usize {
    arc_slice_bytes::<T>(1) + owned
}

/// [`SEGMENT_SESSIONS`] consecutive sessions (fewer in an index's last
/// segment): their timestamps, in Elias–Fano form, and, in CSR layout, their
/// items' accumulator slots, the slots and the offsets each at the narrowest
/// whole-byte width that holds their largest value (see the module docs).
/// Immutable once made; generations share it by pointer.
#[derive(Debug)]
pub struct Segment {
    timestamps: EliasFano,
    /// Row `r` owns `slots[offsets[r]..offsets[r + 1]]`.
    offsets: Column,
    slots: Column,
}

impl Segment {
    /// A segment of as many sessions as `timestamps` yields, its rows
    /// `slots[offsets[r]..offsets[r + 1]]` copied in at their narrowest
    /// widths. The timestamp column is walked twice, to size its array and
    /// to fill it, so any cloneable iterator does and none is collected
    /// first. The caller vouches that `offsets` starts at 0 and does not
    /// decrease.
    ///
    /// # Panics
    ///
    /// If the timestamps decrease, or if the three columns do not describe
    /// the same sessions.
    pub fn new(
        timestamps: impl Iterator<Item = Timestamp> + Clone,
        offsets: &[u32],
        slots: &[u32],
    ) -> Self {
        Self::from_columns(EliasFano::new(timestamps), offsets, slots)
    }

    /// [`Segment::new`] for a timestamp column already coded.
    fn from_columns(timestamps: EliasFano, offsets: &[u32], slots: &[u32]) -> Self {
        let len = offsets.len().wrapping_sub(1);
        assert!((1..=SEGMENT_SESSIONS).contains(&len), "segment size");
        assert_eq!(offsets.last().copied(), Some(slots.len() as u32), "offsets end at the slots");
        debug_assert!(offsets[0] == 0 && offsets.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(timestamps.len(), len, "one offset a session, and one");
        let (offsets, slots) = (offsets.iter().copied(), slots.iter().copied());
        Self { timestamps, offsets: Column::new(offsets), slots: Column::new(slots) }
    }

    /// Number of sessions.
    #[allow(clippy::len_without_is_empty)] // never empty, by construction
    pub fn len(&self) -> usize {
        self.timestamps.len()
    }

    /// Timestamp of the session in `row`: a select in the Elias–Fano
    /// column, constant time.
    #[inline]
    pub fn timestamp(&self, row: usize) -> Timestamp {
        self.timestamps.get(row)
    }

    /// The timestamps of every row, in row order, decoded sequentially.
    #[inline]
    pub fn timestamps(&self) -> impl ExactSizeIterator<Item = Timestamp> + Clone + '_ {
        self.timestamps.iter()
    }

    /// Heap bytes of the timestamp column.
    pub fn timestamp_bytes(&self) -> usize {
        self.timestamps.bytes()
    }

    /// Accumulator slots of the session's items in `row`, in row order
    /// (see the module docs, *Rows are sets*).
    #[inline]
    pub fn slots(&self, row: usize) -> Row<'_> {
        self.slots.run(self.offsets.get(row) as usize..self.offsets.get(row + 1) as usize)
    }

    /// Where the slots of the session in `row` start in the slot column.
    #[inline]
    pub fn row_start(&self, row: usize) -> usize {
        self.offsets.get(row) as usize
    }

    /// The slot column: the slots of every row, row after row.
    #[inline]
    pub fn slot_column(&self) -> Row<'_> {
        self.slots.run(0..self.slots.len())
    }

    /// Bytes a slot: the narrowest whole-byte width that holds the
    /// segment's largest slot.
    pub fn slot_width(&self) -> usize {
        self.slots.width()
    }

    /// Bytes a row offset: the narrowest whole-byte width that holds the
    /// length of the slot column.
    pub fn offset_width(&self) -> usize {
        self.offsets.width()
    }

    /// Heap bytes of the slot column: a slot a [`Segment::slot_width`], and
    /// 3 bytes of padding.
    pub fn slot_bytes(&self) -> usize {
        self.slots.bytes()
    }

    /// Heap bytes of the offsets: one a row and one more, each of
    /// [`Segment::offset_width`] bytes, and 3 bytes of padding.
    pub fn offset_bytes(&self) -> usize {
        self.offsets.bytes()
    }
}

/// The items of one historical session, read through its slots: a borrowed
/// view that allocates nothing (see the module docs). It compares equal to
/// another view, or to a slice, holding the same items in the same order.
#[derive(Clone, Copy)]
pub struct SessionItems<'a> {
    slots: Row<'a>,
    slot_items: &'a Column<ItemId>,
}

impl<'a> SessionItems<'a> {
    /// The items, in row order.
    #[inline]
    pub fn iter(self) -> impl ExactSizeIterator<Item = ItemId> + DoubleEndedIterator + 'a {
        self.slots.iter().map(move |slot| self.slot_items.get(slot as usize))
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

/// The prebuilt `(M, t)` index over historical sessions. Cloning is a
/// handle copy: the clone shares every array with the original.
#[derive(Debug, Clone)]
pub struct SessionIndex {
    /// The record of each slot's item, by slot (see the module docs).
    records: Arc<Records>,
    /// Item → slot, for every slot of `slot_items`, dead ones included.
    slot_table: SlotTable,
    /// The arenas the records point into (see the module docs).
    arenas: Arc<[Arc<[SessionId]>]>,
    /// Entries the records hold, all postings together; the rest of the
    /// arenas is dead.
    live_entries: usize,
    /// Items with a posting: records whose support is not 0.
    num_items: usize,
    /// The per-session columns; all segments but the last are full.
    segments: Arc<[Arc<Segment>]>,
    num_sessions: usize,
    /// Item of each accumulator slot. A slot whose item has left the index
    /// keeps its entry until slots are numbered afresh.
    slot_items: Arc<Column<ItemId>>,
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

    /// Assembles an index **without** validating it: the caller vouches for
    /// every invariant [`SessionIndex::from_segments`] relies on, that all
    /// `segments` but the last hold [`SEGMENT_SESSIONS`] sessions, that
    /// every live record's range lies in its arena, no two overlapping, and
    /// that slots agree — `records` has one record a slot of `slot_items`,
    /// which holds distinct items, `slot_table` is the table of
    /// `slot_items`, and every slot in a segment names an item its session
    /// holds. This is how the incremental indexer emits the next generation
    /// of a live index — the arrays it passes are mostly the previous
    /// generation's own `Arc`s. With no segments the result is the empty
    /// index only this constructor can make.
    pub fn from_generation(
        records: Arc<Records>,
        slot_table: SlotTable,
        arenas: Arc<[Arc<[SessionId]>]>,
        segments: Arc<[Arc<Segment>]>,
        slot_items: Arc<Column<ItemId>>,
        m_max: usize,
    ) -> Self {
        let full = segments.len().saturating_sub(1);
        debug_assert!(segments[..full].iter().all(|s| s.len() == SEGMENT_SESSIONS));
        debug_assert_eq!(records.len(), slot_items.len());
        debug_assert!((slot_items.iter().zip(0..))
            .all(|(item, slot)| slot_table.get(item, &slot_items) == Some(slot)));
        debug_assert!(records.iter().filter(|p| p.support != 0).all(|p| {
            arenas.get(p.arena as usize).is_some_and(|arena| arena.get(p.range(m_max)).is_some())
        }));
        debug_assert!(segments
            .iter()
            .all(|s| s.slot_column().iter().all(|slot| (slot as usize) < slot_items.len())));
        let (mut live_entries, mut num_items) = (0, 0);
        for posting in records.iter().filter(|p| p.support != 0) {
            live_entries += posting.range(m_max).len();
            num_items += 1;
        }
        let num_sessions = full * SEGMENT_SESSIONS + segments.last().map_or(0, |s| s.len());
        Self {
            records,
            slot_table,
            arenas,
            live_entries,
            num_items,
            segments,
            num_sessions,
            slot_items,
            m_max,
        }
    }

    /// Posting list `m_i` of `item`: the ids of the most recent sessions
    /// containing it, strictly descending — most recent first. `None` if the
    /// item never occurred.
    #[inline]
    pub fn postings(&self, item: ItemId) -> Option<&[SessionId]> {
        self.record(item).map(|posting| self.entries(posting))
    }

    /// The record of `item`, if it has a posting.
    #[inline]
    fn record(&self, item: ItemId) -> Option<Posting> {
        let posting = self.records.get(self.slot_of(item)? as usize);
        (posting.support != 0).then_some(posting)
    }

    /// The entries `posting`, a record of this index, points at.
    #[inline]
    pub fn entries(&self, posting: Posting) -> &[SessionId] {
        &self.arenas[posting.arena as usize][posting.range(self.m_max)]
    }

    /// Support `h_i` of `item` (sessions containing it), if it occurred.
    #[inline]
    pub fn item_support(&self, item: ItemId) -> Option<u32> {
        self.record(item).map(|p| p.support)
    }

    /// Accumulator slot of `item`, if it has a posting.
    #[inline]
    pub fn item_slot(&self, item: ItemId) -> Option<u32> {
        self.slot_of(item).filter(|&slot| self.records.support.get(slot as usize) != 0)
    }

    /// The slot `item` holds, with or without a posting: an item that has
    /// left the index keeps its slot, dead, until slots are numbered afresh.
    #[inline]
    pub fn slot_of(&self, item: ItemId) -> Option<u32> {
        self.slot_table.get(item, &self.slot_items)
    }

    /// The records, by slot, as the next generation starts from them.
    pub fn records(&self) -> &Records {
        &self.records
    }

    /// The item → slot table, as the next generation starts from it.
    pub fn slot_table(&self) -> &SlotTable {
        &self.slot_table
    }

    /// The arenas the records point into, as the next generation starts
    /// from them.
    pub fn arenas(&self) -> &[Arc<[SessionId]>] {
        &self.arenas
    }

    /// Posting entries the records hold, all items together.
    pub fn posting_entries(&self) -> usize {
        self.live_entries
    }

    /// Arena entries no record points at: left behind by the postings live
    /// merges rewrote since the arenas were last compacted.
    pub fn dead_posting_entries(&self) -> usize {
        self.arenas.iter().map(|arena| arena.len()).sum::<usize>() - self.live_entries
    }

    /// Copies every posting into one new arena, end to end, by slot, and
    /// points the records at it, so no arena entry is dead. The supports are
    /// kept in place when this handle is the records' only owner, as it is
    /// straight after [`SessionIndex::from_generation`]; the starts and the
    /// arenas are columns made afresh.
    pub fn compact_postings(&mut self) {
        let Self { records, arenas, live_entries, m_max, .. } = self;
        let (records, m_max) = (Arc::make_mut(records), *m_max);
        let arena = new_arena(*live_entries, |to| {
            let mut at = 0;
            for posting in records.iter().filter(|p| p.support != 0) {
                let from = &arenas[posting.arena as usize][posting.range(m_max)];
                to[at..at + from.len()].copy_from_slice(from);
                at += from.len();
            }
        });
        let lens = records.support.iter().map(|support| m_max.min(support as usize) as u32);
        records.start = Column::new(starts(lens));
        records.arena = Column::new(std::iter::repeat_n(0, records.len()));
        *arenas = Arc::from([arena]);
    }

    /// The segments, in session order.
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// The slot → item table, as the next generation starts from it. It is
    /// as long as the kernel's per-slot tables have to be.
    pub fn slot_items(&self) -> &Arc<Column<ItemId>> {
        &self.slot_items
    }

    /// Slots no item holds any more: their items have left the index since
    /// slots were last numbered.
    pub fn dead_slots(&self) -> usize {
        self.slot_items.len() - self.num_items
    }

    #[inline]
    fn locate(&self, session: SessionId) -> (&Segment, usize) {
        let session = session as usize;
        (&self.segments[session >> SEGMENT_SHIFT], session & (SEGMENT_SESSIONS - 1))
    }

    /// Timestamp `t_h` of a historical session: constant time, one select in
    /// its segment's Elias–Fano column.
    #[inline]
    pub fn session_timestamp(&self, session: SessionId) -> Timestamp {
        let (segment, row) = self.locate(session);
        segment.timestamp(row)
    }

    /// Deduplicated items of a historical session, in row order (ascending
    /// item id for every index this crate makes), read through their slots.
    #[inline]
    pub fn session_items(&self, session: SessionId) -> SessionItems<'_> {
        SessionItems { slots: self.session_slots(session), slot_items: &self.slot_items }
    }

    /// Accumulator slots of a historical session's items, in row order.
    #[inline]
    pub fn session_slots(&self, session: SessionId) -> Row<'_> {
        let (segment, row) = self.locate(session);
        segment.slots(row)
    }

    /// Number of `(session, item)` entries, all rows together: a walk over
    /// the segments.
    pub fn session_item_entries(&self) -> usize {
        self.segments.iter().map(|s| s.slots.len()).sum()
    }

    /// Number of historical sessions `|H|`.
    #[inline]
    pub fn num_sessions(&self) -> usize {
        self.num_sessions
    }

    /// Number of distinct items `|I|`.
    #[inline]
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// The maximum posting-list length this index was built for.
    #[inline]
    pub fn m_max(&self) -> usize {
        self.m_max
    }

    /// Iterates over all indexed items, in slot order.
    pub fn items(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.postings_iter().map(|(item, _)| item)
    }

    /// Iterates over the `(item, posting)` pairs of the items with a
    /// posting, in slot order.
    pub fn postings_iter(&self) -> impl Iterator<Item = (ItemId, Posting)> + '_ {
        let pairs = self.slot_items.iter().zip(self.records.iter());
        pairs.filter(|(_, posting)| posting.support != 0)
    }

    /// Computes aggregate statistics (sizes).
    pub fn stats(&self) -> IndexStats {
        let len = |p: &Posting| p.range(self.m_max).len();
        IndexStats {
            num_sessions: self.num_sessions(),
            num_items: self.num_items(),
            posting_entries: self.live_entries,
            max_posting_len: self.postings_iter().map(|(_, p)| len(&p)).max().unwrap_or(0),
            session_item_entries: self.session_item_entries(),
        }
    }

    /// Heap bytes by structure (see [`IndexBytes`]): a walk over the
    /// segments and the arenas, not over the items.
    pub fn bytes(&self) -> IndexBytes {
        let column =
            |bytes: fn(&Segment) -> usize| self.segments.iter().map(|s| bytes(s)).sum::<usize>();
        let headers = self.segments.len() * (16 + std::mem::size_of::<Segment>())
            + arc_slice_bytes::<Arc<Segment>>(self.segments.len());
        let arenas: usize = self.arenas.iter().map(|a| arc_slice_bytes::<SessionId>(a.len())).sum();
        IndexBytes {
            postings: arenas + arc_slice_bytes::<Arc<[SessionId]>>(self.arenas.len()),
            posting_table: arc_bytes::<Records>(self.records.bytes())
                + arc_bytes::<Column>(self.slot_table.buckets().bytes()),
            session_items: column(Segment::offset_bytes) + headers,
            timestamps: column(Segment::timestamp_bytes),
            slots: column(Segment::slot_bytes) + arc_bytes::<Column>(self.slot_items.bytes()),
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
        // A row is in item-id order, not in the order of first clicks.
        let clicks = [Click::new(1, 9, 1), Click::new(1, 3, 2), Click::new(1, 9, 3)];
        assert_eq!(SessionIndex::build(&clicks, 10).unwrap().session_items(0), &[3, 9]);
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
        // Six of them in the one arena behind its `Arc` header, and the
        // one-arena table behind its own.
        let idx = SessionIndex::build(&sample_clicks(), 10).unwrap();
        assert_eq!(std::mem::size_of_val(&idx.postings(1).unwrap()[0]), 4);
        assert_eq!(idx.bytes().postings, (16 + 6 * 4) + (16 + 16));
    }

    #[test]
    fn a_posting_record_and_a_slot_bucket_take_their_narrowest_widths() {
        // A record is the support, the arena and the start, by slot, each
        // field a column at its narrowest width; a bucket of the slot table
        // is a slot plus one, the item read through the slot → item table
        // (DESIGN.md §4.8). Three records of three one-byte fields, each
        // field with its 3 bytes of padding, behind one `Arc` that holds the
        // three columns; and eight one-byte buckets with their padding,
        // behind an `Arc` that holds the column.
        let idx = SessionIndex::build(&sample_clicks(), 10).unwrap();
        let (records, buckets) = (idx.records(), idx.slot_table().buckets());
        let fields: Vec<(u32, u32)> = records.iter().map(|p| (p.support, p.start)).collect();
        assert_eq!(fields, [(2, 0), (2, 2), (2, 4)]);
        assert_eq!((buckets.len(), buckets.width()), (8, 1));
        let column = std::mem::size_of::<Column>();
        assert_eq!(column, 24);
        assert_eq!(
            idx.bytes().posting_table,
            (16 + 3 * column + 3 * (3 + 3)) + (16 + column + 8 + 3)
        );
        // 70,000 sessions of one item: a support of three bytes, and a
        // start and an arena of one.
        let clicks: Vec<Click> = (0..70_000).map(|s| Click::new(s, 9, s)).collect();
        let idx = SessionIndex::build(&clicks, 100_000).unwrap();
        assert_eq!(idx.records().bytes(), (3 + 3) + (1 + 3) + (1 + 3));
        assert_eq!(idx.records().get(0), Posting { support: 70_000, arena: 0, start: 0 });
    }

    #[test]
    fn a_session_item_is_its_slot_at_its_segments_width() {
        // A session item is its slot and nothing else, and a row offset is
        // its position, each at the narrowest whole-byte width that holds
        // its column's largest value; an item's id is read back through the
        // slot → item table (DESIGN.md §4.8). Slots 0–2 and offsets up to 6
        // take a byte: six slots and four offsets for three sessions, each
        // column with its 3 bytes of padding; the one segment — the
        // timestamp column and two byte columns of a width each, behind an
        // `Arc` — and the one-pointer table of segments; and three one-byte
        // items, with 7 bytes of padding, in the slot → item table behind
        // its `Arc`.
        let idx = SessionIndex::build(&sample_clicks(), 10).unwrap();
        let (segment, bytes) = (&idx.segments()[0], idx.bytes());
        assert_eq!((segment.slot_width(), segment.offset_width()), (1, 1));
        assert_eq!(std::mem::size_of::<Segment>(), 16 + 2 * 24);
        assert_eq!(
            bytes.session_items + bytes.slots,
            (6 + 3) + (4 + 3) + (16 + 16 + 2 * 24) + (16 + 8) + (16 + 24 + 3 + 7)
        );
        // 300 items take slots up to 299: two bytes a slot.
        let clicks: Vec<Click> = (0..300).map(|item| Click::new(item / 2, item, item)).collect();
        let wide = SessionIndex::build(&clicks, 10).unwrap();
        let segment = &wide.segments()[0];
        assert_eq!((segment.slot_width(), segment.slot_bytes()), (2, 300 * 2 + 3));
        assert_eq!((segment.offset_width(), segment.offset_bytes()), (2, 151 * 2 + 3));
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

    /// `idx` made again from its rows and slot table.
    fn from_its_segments(idx: &SessionIndex) -> SessionIndex {
        let (segments, slot_items) = (idx.segments().to_vec(), Arc::clone(idx.slot_items()));
        SessionIndex::from_segments(segments, slot_items, idx.m_max()).unwrap()
    }

    #[test]
    fn roundtrip_through_parts_preserves_index() {
        // The rows and the slot table are all an index is made of.
        let idx = SessionIndex::build(&sample_clicks(), 10).unwrap();
        let idx2 = from_its_segments(&idx);
        assert_eq!(idx2.stats(), idx.stats());
        assert_eq!(idx2.postings(1).unwrap(), &[2, 0]);
        assert_eq!(idx2.item_support(1), Some(2));
        assert_eq!(idx2.session_items(2), &[1, 3]);
    }

    #[test]
    fn postings_derived_on_any_thread_count_are_the_builds() {
        // Three full segments and a short one, built on one thread and on
        // several, and postings truncated to `m_max` across the segments.
        let n = SEGMENT_SESSIONS as u64 * 3 + 5;
        let clicks: Vec<Click> =
            (0..n).flat_map(|s| [Click::new(s, s % 7, s), Click::new(s, 7 + s % 3, s)]).collect();
        for (clicks, m_max) in [(sample_clicks(), 1), (clicks.clone(), 500), (clicks, 5_000)] {
            let idx = SessionIndex::build(&clicks, m_max).unwrap();
            for threads in [1, 2, 3, 8] {
                let built = SessionIndex::build_with_threads(&clicks, m_max, threads).unwrap();
                let idx2 = from_its_segments(&built);
                assert_eq!(idx2.stats(), idx.stats());
                for item in idx.items() {
                    assert_eq!(idx2.postings(item), idx.postings(item), "item {item}");
                    assert_eq!(idx2.item_support(item), idx.item_support(item), "item {item}");
                }
            }
        }
    }

    #[test]
    fn slots_are_numbered_by_item_id_and_from_segments_checks_every_slot_is_held() {
        let idx = SessionIndex::build(&sample_clicks(), 10).unwrap();
        assert!(idx.slot_items().iter().eq([1, 2, 3]));
        assert_eq!(idx.item_slot(3), Some(2));
        assert_eq!(idx.session_slots(1), [1, 2]);
        assert_eq!(idx.dead_slots(), 0);
        // An item no row holds would have no posting.
        let slot_items = Arc::new(Column::new([1, 2, 3, 4]));
        match SessionIndex::from_segments(idx.segments().to_vec(), slot_items, 10) {
            Err(CoreError::CorruptIndex(reason)) => {
                assert!(reason.contains("item 4 (slot 3) is in no session"), "{reason}")
            }
            other => panic!("expected a rejection, got {other:?}"),
        }
        let zero_cap = SessionIndex::from_segments(vec![], Arc::default(), 0);
        assert!(matches!(zero_cap, Err(CoreError::CorruptIndex(m)) if m.contains("m_max")));
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
            let items = slots.iter().map(|slot| idx.slot_items().get(slot as usize));
            assert!(items.eq([s % 7, 7 + s % 3]));
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
