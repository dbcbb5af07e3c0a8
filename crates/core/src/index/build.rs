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
//!    segment's slot column — an item's slot is then the rank of its id;
//! 3. supports are counted by slot, which gives each posting an exact-size
//!    range: `min(support, m_max)` entries;
//! 4. the ranges are filled by walking the sessions newest-first and
//!    stopping each item when its range is full, so every posting comes out
//!    strictly descending and truncated to `m_max` with no further work.
//!
//! Threads work on separate ranges of sessions, with no shuffle: they sort
//! the runs of a range of ranks, then number the slots of and fill the
//! postings from a range of segments. A range's share of a posting is what
//! the ranges of newer sessions leave of its `m_max`, so each thread writes
//! only its own entries, and the posting is the shares, newest range first. The result
//! is checked as [`SessionIndex::from_parts`] checks what it assembles.

use std::sync::Arc;

use super::{check_postings, check_recency, Posting, Segment, SessionIndex, SEGMENT_SESSIONS};
use crate::error::CoreError;
use crate::hash::{fx_map_with_capacity, FxHashMap};
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
    /// is the maximum click timestamp it contains; within a session items are
    /// ordered chronologically (ties by item id) and deduplicated to their
    /// first occurrence.
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
        let n = runs.len();
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

        // Per range of segments: its items' slots, and how many of its sessions
        // hold each item.
        let per_thread = segments.len().div_ceil(threads.max(1));
        let mut shares = run_parallel(segments.chunks_mut(per_thread).collect(), |segments| {
            let mut holders = vec![0u32; slot_items.len()];
            for slot in segments.iter_mut().flat_map(|segment| segment.slots.iter_mut()) {
                *slot = slot_of[*slot as usize];
                holders[*slot as usize] += 1;
            }
            holders
        });
        let supports: Vec<u32> = (0..slot_items.len())
            .map(|slot| shares.iter().map(|holders| holders[slot]).sum())
            .collect();
        // Each range's share of every posting: what the newer ranges leave.
        let cap = u32::try_from(m_max).unwrap_or(u32::MAX);
        let mut room: Vec<u32> = supports.iter().map(|&support| support.min(cap)).collect();
        for share in shares.iter_mut().rev() {
            for (share, room) in share.iter_mut().zip(&mut room) {
                *share = (*share).min(*room);
                *room -= *share;
            }
        }

        let segments: Vec<Arc<Segment>> = segments.into_iter().map(Arc::new).collect();
        let jobs = segments.chunks(per_thread).zip(0..).zip(shares).collect();
        let filled = run_parallel(jobs, |((range, k), share)| fill(range, k * per_thread, &share));
        let postings = assemble(&slot_items, &supports, &filled);
        check_recency(n, |s| segments[s / SEGMENT_SESSIONS].timestamp(s % SEGMENT_SESSIONS))?;
        check_postings(&postings, n, m_max)?;
        Ok(Self::from_generation(postings, segments.into(), slot_items, m_max))
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

/// Step 4 for a range of segments, the first of them segment `first`: the
/// range's `share` of every posting, as CSR by slot — offsets, then the ids,
/// each share newest first.
fn fill(segments: &[Arc<Segment>], first: usize, share: &[u32]) -> (Vec<u32>, Vec<SessionId>) {
    let mut starts = vec![0u32];
    starts.extend(share.iter().scan(0, |total, &share| {
        *total += share;
        Some(*total)
    }));
    let mut next = starts[..share.len()].to_vec();
    let mut ids = vec![0; starts[share.len()] as usize];
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
    (starts, ids)
}

/// The posting of every slot's item: its shares, newest range first.
fn assemble(
    slot_items: &[ItemId],
    supports: &[u32],
    filled: &[(Vec<u32>, Vec<SessionId>)],
) -> FxHashMap<ItemId, Posting> {
    let mut postings = fx_map_with_capacity(slot_items.len());
    let mut entries = Vec::new();
    for (slot, &item) in slot_items.iter().enumerate() {
        entries.clear();
        for (starts, ids) in filled.iter().rev() {
            entries.extend_from_slice(&ids[starts[slot] as usize..starts[slot + 1] as usize]);
        }
        let posting =
            Posting { entries: entries[..].into(), support: supports[slot], slot: slot as u32 };
        postings.insert(item, posting);
    }
    postings
}
