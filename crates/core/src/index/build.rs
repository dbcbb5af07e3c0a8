//! The index build: the one way an index is made from a click log.
//!
//! It counts where a hash-of-vectors build would group, and follows the
//! paper's offline job (PAPER.md §4.2: sessionize, number the sessions,
//! invert):
//!
//! 1. [`SessionRuns::group`] puts each session's clicks in a sorted run and
//!    the runs in dense-id order;
//! 2. each click's item is remapped to a dense item number, and each run is
//!    deduplicated to the numbers' first occurrences straight into the
//!    segment's `u32` rows — an item's slot is then the rank of its id,
//!    and each row is sorted by slot into item-id order, the one order every
//!    producer writes a row in (`serenade_core::index`, *Rows are sets*) —
//!    and each segment is then made, its columns narrowed to their widths;
//! 3. supports are counted by slot, which gives each posting an exact-size
//!    range: `min(support, m_max)` entries;
//! 4. the ranges are filled by walking the sessions newest-first and
//!    stopping each item when its range is full, so every posting comes out
//!    strictly descending and truncated to `m_max` with no further work;
//!    the slot table is then made from the slot → item table.
//!
//! Steps 3–4 are [`SessionIndex::from_segments`], which a load of an
//! artefact calls too: an artefact holds the rows and no postings, so there
//! is one way to make a posting, and a posting cannot disagree with its
//! rows.
//!
//! The records' supports and starts are columns made at their widths from
//! the counts, before the fill, and the fill counts down what each range
//! still lacks in a column at the width of the longest: the scratch beside
//! the rows stays below the per-slot tables still to come, so a load peaks
//! at the finished index.
//!
//! Threads work on separate ranges of sessions, with no shuffle: they sort
//! the runs of a range of ranks, then number the slots of, count and fill
//! the postings from a range of segments. A range's share of a posting is
//! what the ranges of newer sessions leave of its `m_max`, so each thread
//! writes only its own entries. The postings are then copied into the
//! index's one arena by slot, each its shares, newest range first; one
//! range fills the arena in place.

use std::sync::Arc;

use super::{
    new_arena, starts, Column, EliasFano, Records, Segment, SessionIndex, SlotTable,
    SEGMENT_SESSIONS,
};
use crate::error::CoreError;
use crate::hash::FxHashMap;
use crate::sessions::{run_parallel, SessionRuns};
use crate::types::{Click, ItemId, SessionId};

impl SessionIndex {
    /// Builds the index from a click log, by counting (see the `build`
    /// module), with up to `threads` threads; the index is the same for
    /// every `threads`.
    ///
    /// `m_max` is the maximum posting-list length — the recency-sample upper
    /// bound `m` that the online algorithm may request. Sessions are formed
    /// by grouping clicks on their external session id; a session's timestamp
    /// is the maximum click timestamp it contains; a session's items are
    /// deduplicated and kept in ascending id order.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidConfig`] if `m_max == 0`.
    /// * [`CoreError::EmptyDataset`] if `clicks` yields no sessions.
    /// * [`CoreError::TooManySessions`] if there are more than `u32::MAX`
    ///   clicks, which bounds the sessions to the dense-id space.
    pub fn build_with_threads(
        clicks: &[Click],
        m_max: usize,
        threads: usize,
    ) -> Result<Self, CoreError> {
        if m_max == 0 {
            return Err(CoreError::InvalidConfig {
                parameter: "m_max",
                reason: "posting-list capacity must be positive".into(),
            });
        }
        if clicks.is_empty() {
            return Err(CoreError::EmptyDataset);
        }
        if clicks.len() > u32::MAX as usize {
            return Err(CoreError::TooManySessions(clicks.len()));
        }

        let runs = SessionRuns::group(clicks, threads);
        let (mut rows, items_by_number) = deduplicate(&runs);
        drop(runs);

        // An item's slot is the rank of its id.
        let mut by_id: Vec<(ItemId, u32)> = items_by_number.into_iter().zip(0..).collect();
        by_id.sort_unstable();
        let mut slot_of = vec![0u32; by_id.len()];
        for (slot, &(_, number)) in by_id.iter().enumerate() {
            slot_of[number as usize] = slot as u32;
        }
        let slot_items = Arc::new(Column::new(by_id.iter().map(|&(item, _)| item)));
        drop(by_id);

        // Per range of segments: its items' slots, each row in item-id order.
        let per_thread = rows.len().div_ceil(threads.max(1));
        run_parallel(rows.chunks_mut(per_thread).collect(), |rows| {
            for Rows { offsets, slots, .. } in rows.iter_mut() {
                for slot in slots.iter_mut() {
                    *slot = slot_of[*slot as usize];
                }
                for row in offsets.windows(2) {
                    slots[row[0] as usize..row[1] as usize].sort_unstable();
                }
            }
        });
        // Each segment's `u32` rows are freed as its narrow columns are made.
        let segments = (rows.into_iter())
            .map(|Rows { timestamps, offsets, slots }| {
                Arc::new(Segment::from_columns(timestamps, &offsets, &slots))
            })
            .collect();
        Self::from_segments(segments, slot_items, m_max, threads)
    }

    /// Makes the index of `segments`, whose slots `slot_items` names, by
    /// deriving its postings from the rows on up to `threads` threads: steps
    /// 3–4 of the build, and all a load of an artefact leaves to do (see the
    /// `build` module). The index is the same for every `threads`.
    ///
    /// The caller vouches for the rows: all `segments` but the last hold
    /// [`SEGMENT_SESSIONS`] sessions, timestamps do not decrease with the
    /// dense id, `slot_items` holds distinct items, and every row holds
    /// distinct slots below `slot_items.len()` in ascending order.
    ///
    /// # Errors
    ///
    /// [`CoreError::CorruptIndex`] if `m_max` is 0 or a slot's item is in no
    /// session, so that it would have no posting.
    pub fn from_segments(
        segments: Vec<Arc<Segment>>,
        slot_items: Arc<Column<ItemId>>,
        m_max: usize,
        threads: usize,
    ) -> Result<Self, CoreError> {
        if m_max == 0 {
            return Err(CoreError::CorruptIndex("m_max must be positive".into()));
        }
        // Step 3, per range of segments: how many of its sessions hold each
        // item.
        let slots = slot_items.len();
        let per_thread = segments.len().div_ceil(threads.max(1)).max(1);
        let mut shares = run_parallel(segments.chunks(per_thread).collect(), |segments| {
            let mut holders = vec![0u32; slots];
            for segment in segments {
                for slot in segment.slot_column().iter() {
                    holders[slot as usize] += 1;
                }
            }
            holders
        });
        let support: Column =
            Column::new((0..slots).map(|slot| shares.iter().map(|holders| holders[slot]).sum()));
        if let Some(slot) = support.iter().position(|support| support == 0) {
            return Err(CoreError::CorruptIndex(format!(
                "item {} (slot {slot}) is in no session",
                slot_items.get(slot)
            )));
        }
        let cap = u32::try_from(m_max).unwrap_or(u32::MAX);
        let lens = support.iter().map(|support| support.min(cap));
        let start = Column::new(starts(lens.clone()));

        // Step 4. One range fills the arena in place; more fill their shares
        // apart, and the shares are copied into the arena. Either way the
        // scratch — the counts, then a countdown a slot at the width of the
        // longest posting — weighs less than the slot table still to come
        // and the arena column, so a load peaks at the finished index
        // (`serenade_index`'s `tests/load_allocs.rs`).
        let arena = if shares.len() == 1 {
            drop(shares);
            let total = lens.clone().map(|len| len as usize).sum();
            new_arena(total, |arena| fill(&segments, 0, &start, Column::new(lens), arena))
        } else {
            // Each range's share of every posting: what the newer ranges
            // leave.
            let mut room: Vec<u32> = lens.collect();
            for share in shares.iter_mut().rev() {
                for (share, room) in share.iter_mut().zip(&mut room) {
                    *share = (*share).min(*room);
                    *room -= *share;
                }
            }
            drop(room);
            let jobs = segments.chunks(per_thread).zip(0..).zip(&shares).collect();
            let filled = run_parallel(jobs, |((range, k), share)| {
                let starts = Column::new(starts(share.iter().copied()));
                let mut ids = vec![0; share.iter().map(|&len| len as usize).sum()];
                fill(range, k * per_thread, &starts, Column::new(share.iter().copied()), &mut ids);
                (starts, ids)
            });
            assemble(slots, &filled)
        };
        let records = Records { support, start, arena: Column::new(std::iter::repeat_n(0, slots)) };
        let slot_table = SlotTable::new(&slot_items);
        let (records, arenas) = (Arc::new(records), Arc::from([arena]));
        Ok(Self::from_generation(records, slot_table, arenas, segments.into(), slot_items, m_max))
    }
}

/// A segment on its way through the build: its coded timestamps and, in
/// CSR layout, its rows at 4 bytes an entry, until its slots are final.
struct Rows {
    timestamps: EliasFano,
    offsets: Box<[u32]>,
    slots: Box<[u32]>,
}

/// Step 2: the rows of `runs`, a segment at a time, each item numbered by
/// first appearance and its number standing in for its slot, and the item
/// of each number.
fn deduplicate(runs: &SessionRuns) -> (Vec<Rows>, Vec<ItemId>) {
    let n = runs.len();
    let mut numbers: FxHashMap<ItemId, u32> = FxHashMap::default();
    let mut items_by_number: Vec<ItemId> = Vec::new();
    let mut segments = Vec::with_capacity(n.div_ceil(SEGMENT_SESSIONS));
    // A segment's item numbers, copied out of here at their exact size.
    let mut scratch: Vec<u32> = Vec::new();
    for lo in (0..n).step_by(SEGMENT_SESSIONS) {
        let hi = n.min(lo + SEGMENT_SESSIONS);
        scratch.clear();
        let mut offsets = Vec::with_capacity(hi - lo + 1);
        offsets.push(0u32);
        for rank in lo..hi {
            let first = scratch.len();
            for &(_, item) in runs.run(rank) {
                let number = *numbers.entry(item).or_insert_with(|| {
                    items_by_number.push(item);
                    (items_by_number.len() - 1) as u32
                });
                // A linear scan over the (short) session so far: the median
                // e-commerce session has fewer than five items.
                if !scratch[first..].contains(&number) {
                    scratch.push(number);
                }
            }
            offsets.push(scratch.len() as u32);
        }
        let timestamps = EliasFano::new((lo..hi).map(|rank| runs.timestamp(rank)));
        segments.push(Rows { timestamps, offsets: offsets.into(), slots: scratch[..].into() });
    }
    (segments, items_by_number)
}

/// Where the share of `slot` ends among `total` entries laid out by slot
/// from the offsets `starts`.
#[inline]
fn end_of(starts: &Column, slot: usize, total: usize) -> usize {
    if slot + 1 < starts.len() {
        starts.get(slot + 1) as usize
    } else {
        total
    }
}

/// Step 4 for a range of segments, the first of them segment `first`:
/// writes the range's share of every posting into `ids`, by slot from the
/// offsets `starts`, each share newest first; `left` holds the length of
/// each share and counts it down.
fn fill(
    segments: &[Arc<Segment>],
    first: usize,
    starts: &Column,
    mut left: Column,
    ids: &mut [SessionId],
) {
    for (at, segment) in segments.iter().enumerate().rev() {
        let base = ((first + at) * SEGMENT_SESSIONS) as SessionId;
        for row in (0..segment.len()).rev() {
            for slot in segment.slots(row).iter() {
                let slot = slot as usize;
                let lacks = left.count_down(slot);
                if lacks > 0 {
                    ids[end_of(starts, slot, ids.len()) - lacks as usize] = base + row as SessionId;
                }
            }
        }
    }
}

/// The postings laid out by slot in one arena, each its shares, newest
/// range first.
fn assemble(slots: usize, filled: &[(Column, Vec<SessionId>)]) -> Arc<[SessionId]> {
    let total = filled.iter().map(|(_, ids)| ids.len()).sum();
    new_arena(total, |arena| {
        let mut at = 0;
        for slot in 0..slots {
            for (starts, ids) in filled.iter().rev() {
                let share = &ids[starts.get(slot) as usize..end_of(starts, slot, ids.len())];
                arena[at..at + share.len()].copy_from_slice(share);
                at += share.len();
            }
        }
    })
}
