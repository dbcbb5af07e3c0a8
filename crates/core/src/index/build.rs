//! The index build: the one way an index is made from a click log.
//!
//! It counts where a hash-of-vectors build would group, and follows the
//! paper's offline job (PAPER.md §4.2: sessionize, number the sessions,
//! invert):
//!
//! 1. [`SessionRuns::group`] puts each session's clicks in a sorted run and
//!    the runs in dense-id order;
//! 2. the items are numbered by their ids: an item's slot is the rank of
//!    its id, found through the slot table made from the slot → item table.
//!    Each run is deduplicated straight into a row of slots, sorted by slot
//!    into item-id order, the one order every producer writes a row in
//!    (`serenade_core::index`, *Rows are sets*), and each segment is made,
//!    its columns narrowed to their widths;
//! 3. supports are counted by slot, which gives each posting an exact-size
//!    range: `min(support, m_max)` entries;
//! 4. the ranges are filled by walking the sessions newest-first and
//!    stopping each item when its range is full, so every posting comes out
//!    strictly descending and truncated to `m_max` with no further work.
//!
//! Steps 3–4 are [`SessionIndex::from_segments`], which a load of an
//! artefact calls too: an artefact holds the rows and no postings, so there
//! is one way to make a posting, and a posting cannot disagree with its
//! rows. A load makes the slot table last, after the postings.
//!
//! The records' supports and starts are columns made at their widths from
//! the counts, before the fill, and the fill counts down what each posting
//! still lacks in a column at the width of the longest: the scratch beside
//! the rows stays below the per-slot tables still to come, so a load peaks
//! at the finished index.
//!
//! Every pass over the clicks runs on `threads` threads, and the threads'
//! shares merge in O(sessions) or O(items):
//! - step 1's passes, split by hash class of sessions (see
//!   [`crate::sessions`]);
//! - the item numbering, split by hash class of items: each thread reads
//!   every click but collects and sorts only its class's items, and the
//!   sorted classes merge into the slot → item table;
//! - the rows: each thread makes a range of segments, looking each click's
//!   item up in the slot table. (Numbering each range's items by first
//!   appearance instead looks a click up once, not twice, but holds a map
//!   of nearly every item a thread beside the runs: 30 ms faster at 2
//!   threads on `ecom-1m`, and 5.7 MB more at the build's peak.);
//! - steps 3–4, split by range of slots: each thread reads every row,
//!   counts its own slots' supports into its part of the one count array,
//!   and fills its own slots' postings into its part of the one arena,
//!   newest session first. A row ascends, so a range's slots in it are a
//!   run, found with a branch or two a row. (Each range of segments once
//!   filled its share of every posting apart, and the shares were copied
//!   into the arena: they sat beside the index at a load's peak, 4.3–4.7
//!   MB more on a node, EXPERIMENTS.md X25.)
//!
//! `threads = 1` runs the same passes with one class and one range.

use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::{
    new_arena, starts, Column, EliasFano, Records, Segment, SessionIndex, SlotTable,
    SEGMENT_SESSIONS,
};
use crate::error::CoreError;
use crate::hash::FxHashSet;
use crate::sessions::{for_each_of_class, merge_ascending, run_parallel, GroupPhases, SessionRuns};
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
        Self::build_timed(clicks, m_max, threads).map(|(index, _)| index)
    }

    /// [`SessionIndex::build_with_threads`], with the wall time of each of
    /// its phases.
    ///
    /// # Errors
    ///
    /// As [`SessionIndex::build_with_threads`].
    pub fn build_timed(
        clicks: &[Click],
        m_max: usize,
        threads: usize,
    ) -> Result<(Self, BuildPhases), CoreError> {
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

        let mut phases = BuildPhases::default();
        let runs = SessionRuns::group_timed(clicks, threads, &mut phases.group);
        let t = Instant::now();
        let slot_items = number_items(&runs, threads);
        let slot_table = SlotTable::new(&slot_items);
        phases.items = t.elapsed();
        let t = Instant::now();
        let segments = make_segments(&runs, &slot_table, &slot_items, threads);
        drop(runs);
        phases.rows = t.elapsed();
        let t = Instant::now();
        let index = Self::derive_postings(segments, slot_items, Some(slot_table), m_max, threads)?;
        phases.postings = t.elapsed();
        Ok((index, phases))
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
        Self::derive_postings(segments, slot_items, None, m_max, threads)
    }

    /// [`SessionIndex::from_segments`] with the slot table of `slot_items`
    /// if the caller has made it already, else made last.
    fn derive_postings(
        segments: Vec<Arc<Segment>>,
        slot_items: Arc<Column<ItemId>>,
        slot_table: Option<SlotTable>,
        m_max: usize,
        threads: usize,
    ) -> Result<Self, CoreError> {
        if m_max == 0 {
            return Err(CoreError::CorruptIndex("m_max must be positive".into()));
        }
        // Step 3: how many sessions hold each slot. Each thread counts a
        // range of slots, reading every row.
        let slots = slot_items.len();
        let threads = threads.clamp(1, slots.max(1));
        let mut holders = vec![0u32; slots];
        let per_thread = slots.div_ceil(threads).max(1);
        let counts = holders.chunks_mut(per_thread).zip((0..).step_by(per_thread));
        run_parallel(counts.collect(), |(holders, first)| {
            // Every slot is read, and counted into the range's last holder
            // as 0 when it is not the range's: no branch a slot.
            let last = holders.len() - 1;
            for segment in &segments {
                for slot in segment.slot_column().iter() {
                    let mine = (slot as usize).wrapping_sub(first);
                    holders[mine.min(last)] += u32::from(mine <= last);
                }
            }
        });
        let support = Column::new(holders.iter().copied());
        drop(holders);
        if let Some(slot) = support.iter().position(|support| support == 0) {
            return Err(CoreError::CorruptIndex(format!(
                "item {} (slot {slot}) is in no session",
                slot_items.get(slot)
            )));
        }
        let cap = u32::try_from(m_max).unwrap_or(u32::MAX);
        let len = |slot: usize| support.get(slot).min(cap);
        let start = Column::new(starts((0..slots).map(len)));
        let total = (0..slots).map(|slot| len(slot) as usize).sum();

        // Step 4, into the one arena in place: each thread fills the
        // postings of a range of slots, about a thread's share of the
        // entries, reading every row. The scratch — a countdown a slot, at
        // the width of its range's longest posting, made here on the
        // caller's thread — weighs less than the slot table still to come
        // and the arena column, so a load peaks at the finished index
        // (`serenade_index`'s `tests/load_allocs.rs`).
        let arena = new_arena(total, |mut arena| {
            let mut jobs = Vec::with_capacity(threads);
            let (mut first, mut filled) = (0, 0);
            for slot in 0..slots {
                filled += len(slot) as usize;
                if slot + 1 == slots || filled * threads >= total * (jobs.len() + 1) {
                    let range = first..slot + 1;
                    let entries = end_of(&start, slot, total) - start.get(first) as usize;
                    let (ids, rest) = std::mem::take(&mut arena).split_at_mut(entries);
                    arena = rest;
                    let left = Column::new(range.clone().map(len));
                    jobs.push((range, ids, left));
                    first = slot + 1;
                }
            }
            run_parallel(jobs, |(range, ids, left)| fill(&segments, range, &start, left, ids));
        });
        let records = Records { support, start, arena: Column::new(std::iter::repeat_n(0, slots)) };
        let slot_table = slot_table.unwrap_or_else(|| SlotTable::new(&slot_items));
        let (records, arenas) = (Arc::new(records), Arc::from([arena]));
        Ok(Self::from_generation(records, slot_table, arenas, segments.into(), slot_items, m_max))
    }
}

/// Wall time of each phase of [`SessionIndex::build_timed`] (see the
/// `build` module).
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildPhases {
    /// Step 1, pass by pass.
    pub group: GroupPhases,
    /// Step 2's item numbering: the slot → item table and the slot table.
    pub items: Duration,
    /// Step 2's rows: the segments.
    pub rows: Duration,
    /// Steps 3–4: the postings.
    pub postings: Duration,
}

/// Step 2's numbering, on `threads` threads, each a hash class of items
/// ([`crate::sessions::class_of`]): every item of `runs` by slot. Each thread collects and
/// sorts the distinct items of its class, and the sorted classes merge into
/// the slot → item table.
fn number_items(runs: &SessionRuns, threads: usize) -> Arc<Column<ItemId>> {
    let classes = threads.max(1);
    let sorted = run_parallel((0..classes).collect(), |class| {
        let mut items: FxHashSet<ItemId> = FxHashSet::default();
        for_each_of_class(runs.clicks(), |&(_, item)| item, (class, classes), |&(_, item)| {
            items.insert(item);
        });
        let mut items: Vec<ItemId> = items.into_iter().collect();
        items.sort_unstable();
        items
    });
    Arc::new(Column::new(merge_ascending(&sorted).map(|(_, item)| item)))
}

/// Step 2's rows, on `threads` threads, each a range of segments: the
/// segments of `runs`, each row its session's slots, looked up in
/// `slot_table`, deduplicated and ascending.
fn make_segments(
    runs: &SessionRuns,
    slot_table: &SlotTable,
    slot_items: &Column<ItemId>,
    threads: usize,
) -> Vec<Arc<Segment>> {
    let n = runs.len();
    let segments = n.div_ceil(SEGMENT_SESSIONS);
    let per_thread = segments.div_ceil(threads.max(1)).max(1);
    let ranges =
        (0..segments).step_by(per_thread).map(|first| first..segments.min(first + per_thread));
    let made = run_parallel(ranges.collect(), |range| {
        // A segment's rows, copied out of here at their widths.
        let (mut offsets, mut slots) = (Vec::new(), Vec::new());
        range
            .map(|segment| {
                let lo = segment * SEGMENT_SESSIONS;
                let hi = n.min(lo + SEGMENT_SESSIONS);
                offsets.clear();
                offsets.push(0u32);
                slots.clear();
                for rank in lo..hi {
                    let first = slots.len();
                    for &(_, item) in runs.run(rank) {
                        let slot = slot_table.get(item, slot_items).expect("every item has a slot");
                        // A linear scan over the (short) session so far: the
                        // median e-commerce session has fewer than five items.
                        if !slots[first..].contains(&slot) {
                            slots.push(slot);
                        }
                    }
                    slots[first..].sort_unstable();
                    offsets.push(slots.len() as u32);
                }
                let timestamps = EliasFano::new((lo..hi).map(|rank| runs.timestamp(rank)));
                Arc::new(Segment::from_columns(timestamps, &offsets, &slots))
            })
            .collect::<Vec<_>>()
    });
    let mut segments = Vec::with_capacity(segments);
    made.into_iter().for_each(|range| segments.extend(range));
    segments
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

/// Step 4 for the slots `range`: writes their postings into `ids`, which
/// holds exactly those, laid out by slot from the offsets `starts`, each
/// newest first, reading every row newest first; `left` holds the length
/// of each of the range's postings and counts it down. A row ascends, so
/// the range's slots in it are a run: the slots before the run are passed
/// over and the row is left where the run ends, a mispredicted branch or
/// two a row, not one a slot that is not the range's.
fn fill(
    segments: &[Arc<Segment>],
    range: Range<usize>,
    starts: &Column,
    mut left: Column,
    ids: &mut [SessionId],
) {
    let offset = starts.get(range.start) as usize;
    let total = offset + ids.len();
    for (at, segment) in segments.iter().enumerate().rev() {
        let base = (at * SEGMENT_SESSIONS) as SessionId;
        for row in (0..segment.len()).rev() {
            for slot in segment.slots(row).iter() {
                let slot = slot as usize;
                if slot < range.start {
                    continue;
                }
                if slot >= range.end {
                    break;
                }
                let lacks = left.count_down(slot - range.start);
                if lacks > 0 {
                    let at = end_of(starts, slot, total) - offset - lacks as usize;
                    ids[at] = base + row as SessionId;
                }
            }
        }
    }
}
