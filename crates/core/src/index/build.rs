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
//!    segment's slot column — an item's slot is then the rank of its id,
//!    and each row is sorted by slot into item-id order, the one order every
//!    producer writes a row in (`serenade_core::index`, *Rows are sets*);
//! 3. supports are counted by slot, which gives each posting an exact-size
//!    range: `min(support, m_max)` entries;
//! 4. the ranges are filled by walking the sessions newest-first and
//!    stopping each item when its range is full, so every posting comes out
//!    strictly descending and truncated to `m_max` with no further work.
//!
//! Steps 3–4 are [`SessionIndex::from_segments`], which a load of an
//! artefact calls too: an artefact holds the rows and no postings, so there
//! is one way to make a posting, and a posting cannot disagree with its
//! rows.
//!
//! Threads work on separate ranges of sessions, with no shuffle: they sort
//! the runs of a range of ranks, then number the slots of, count and fill
//! the postings from a range of segments. A range's share of a posting is
//! what the ranges of newer sessions leave of its `m_max`, so each thread
//! writes only its own entries. The postings are then copied into the
//! index's one arena by slot, each its shares, newest range first; one
//! range fills the arena in place.

use std::sync::Arc;

use super::{new_arena, Posting, Segment, SessionIndex, SEGMENT_SESSIONS};
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
        let (mut segments, items_by_number) = deduplicate(&runs);
        drop(runs);

        // An item's slot is the rank of its id.
        let mut by_id: Vec<(ItemId, u32)> = items_by_number.into_iter().zip(0..).collect();
        by_id.sort_unstable();
        let mut slot_of = vec![0u32; by_id.len()];
        for (slot, &(_, number)) in by_id.iter().enumerate() {
            slot_of[number as usize] = slot as u32;
        }
        let slot_items: Arc<[ItemId]> = by_id.into_iter().map(|(item, _)| item).collect();

        // Per range of segments: its items' slots, each row in item-id order.
        let per_thread = segments.len().div_ceil(threads.max(1));
        run_parallel(segments.chunks_mut(per_thread).collect(), |segments| {
            for segment in segments.iter_mut() {
                for slot in segment.slots.iter_mut() {
                    *slot = slot_of[*slot as usize];
                }
                for row in segment.offsets.windows(2) {
                    segment.slots[row[0] as usize..row[1] as usize].sort_unstable();
                }
            }
        });
        let segments = segments.into_iter().map(Arc::new).collect();
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
        slot_items: Arc<[ItemId]>,
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
                for &slot in segment.slot_column() {
                    holders[slot as usize] += 1;
                }
            }
            holders
        });
        let supports: Vec<u32> =
            (0..slots).map(|slot| shares.iter().map(|holders| holders[slot]).sum()).collect();
        if let Some(slot) = supports.iter().position(|&support| support == 0) {
            return Err(CoreError::CorruptIndex(format!(
                "item {} (slot {slot}) is in no session",
                slot_items[slot]
            )));
        }
        // Each range's share of every posting: what the newer ranges leave.
        let cap = u32::try_from(m_max).unwrap_or(u32::MAX);
        let mut room: Vec<u32> = supports.iter().map(|&support| support.min(cap)).collect();
        for share in shares.iter_mut().rev() {
            for (share, room) in share.iter_mut().zip(&mut room) {
                *share = (*share).min(*room);
                *room -= *share;
            }
        }
        drop(room);

        // Step 4. One range fills the arena in place; more fill their shares
        // apart, and the shares are copied into the arena.
        let arena = if let [share] = &shares[..] {
            let starts = running_totals(share);
            new_arena(starts[slots] as usize, |arena| fill(&segments, 0, &starts, arena))
        } else {
            let jobs = segments.chunks(per_thread).zip(0..).zip(&shares).collect();
            let filled = run_parallel(jobs, |((range, k), share)| {
                let starts = running_totals(share);
                let mut ids = vec![0; starts[slots] as usize];
                fill(range, k * per_thread, &starts, &mut ids);
                (starts, ids)
            });
            assemble(slots, &filled)
        };
        // Only the supports outlive the fill: a load's peak is the finished
        // index and them (`serenade_index`'s `tests/load_allocs.rs`).
        drop(shares);
        let postings = records(&slot_items, &supports, m_max);
        Ok(Self::from_generation(postings, Arc::from([arena]), segments.into(), slot_items, m_max))
    }
}

/// Step 2: the segments of `runs`, each item numbered by first appearance
/// and its number standing in for its slot, and the item of each number.
fn deduplicate(runs: &SessionRuns) -> (Vec<Segment>, Vec<ItemId>) {
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
        let timestamps = (lo..hi).map(|rank| runs.timestamp(rank)).collect();
        segments.push(Segment::new(timestamps, offsets.into(), scratch[..].into()));
    }
    (segments, items_by_number)
}

/// 0, then the running totals of `lens`: CSR offsets.
fn running_totals(lens: &[u32]) -> Vec<u32> {
    let mut totals = Vec::with_capacity(lens.len() + 1);
    totals.push(0);
    totals.extend(lens.iter().scan(0, |total, &len| {
        *total += len;
        Some(*total)
    }));
    totals
}

/// Step 4 for a range of segments, the first of them segment `first`:
/// writes the range's share of every posting into `ids` as CSR by slot from
/// the offsets `starts`, each share newest first.
fn fill(segments: &[Arc<Segment>], first: usize, starts: &[u32], ids: &mut [SessionId]) {
    let slots = starts.len() - 1;
    let mut next = starts[..slots].to_vec();
    for (at, segment) in segments.iter().enumerate().rev() {
        let base = ((first + at) * SEGMENT_SESSIONS) as SessionId;
        for row in (0..segment.len()).rev() {
            for &slot in segment.slots(row) {
                let slot = slot as usize;
                if next[slot] < starts[slot + 1] {
                    ids[next[slot] as usize] = base + row as SessionId;
                    next[slot] += 1;
                }
            }
        }
    }
}

/// The postings laid out by slot in one arena, each its shares, newest
/// range first.
fn assemble(slots: usize, filled: &[(Vec<u32>, Vec<SessionId>)]) -> Arc<[SessionId]> {
    let total = filled.iter().map(|(_, ids)| ids.len()).sum();
    new_arena(total, |arena| {
        let mut at = 0;
        for slot in 0..slots {
            for (starts, ids) in filled.iter().rev() {
                let share = &ids[starts[slot] as usize..starts[slot + 1] as usize];
                arena[at..at + share.len()].copy_from_slice(share);
                at += share.len();
            }
        }
    })
}

/// The record of every slot's item for postings laid out by slot in arena
/// 0, each `min(support, m_max)` entries: one table, sized once.
fn records(slot_items: &[ItemId], supports: &[u32], m_max: usize) -> FxHashMap<ItemId, Posting> {
    let mut start = 0;
    let record = |((&item, &support), slot)| {
        let posting = Posting { support, slot, arena: 0, start };
        start += posting.range(m_max).len() as u32;
        (item, posting)
    };
    slot_items.iter().zip(supports).zip(0..).map(record).collect()
}
