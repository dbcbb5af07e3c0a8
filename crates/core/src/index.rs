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
//!   in CSR layout to avoid per-session allocations;
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
//! Every array sits behind an [`Arc`]: a [`SessionIndex`] is a handle that
//! clones in constant time, and consecutive generations of a live index
//! (`serenade_index::IncrementalIndexer`) share every posting array a
//! publish did not change.

use std::sync::Arc;

use crate::error::CoreError;
use crate::hash::{fx_map_with_capacity, FxHashMap};
use crate::types::{Click, ExternalSessionId, ItemId, SessionId, SessionRef, Timestamp};

/// Posting list of an item: the `m` most recent sessions containing it, plus
/// the total support count `h_i` over *all* historical sessions.
///
/// This is the one form a posting has — in the builders, in the binary
/// artefact and in memory: dense session ids, 4 bytes an entry. The id *is*
/// the recency key (see the module docs), so nothing else is stored with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Posting {
    /// Session ids in strictly descending order — most recent first —
    /// truncated to the index's `m_max`. Shared, not copied, between index
    /// generations that agree on it.
    pub entries: Arc<[SessionId]>,
    /// `h_i`: number of historical sessions containing the item (before
    /// truncation to `m_max`).
    pub support: u32,
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
    /// The CSR item storage: flat item array and offsets.
    pub session_items: usize,
    /// The timestamp column `t`.
    pub timestamps: usize,
}

impl IndexBytes {
    /// All structures together.
    pub fn total(&self) -> usize {
        self.postings + self.posting_table + self.session_items + self.timestamps
    }
}

/// Heap bytes of an `Arc<[T]>` of `len` elements: the two counts, then the
/// elements, padded to the alignment of the whole.
fn arc_slice_bytes<T>(len: usize) -> usize {
    let align = std::mem::align_of::<usize>().max(std::mem::align_of::<T>());
    (2 * std::mem::size_of::<usize>() + len * std::mem::size_of::<T>()).next_multiple_of(align)
}

/// Raw parts of a [`SessionIndex`]: postings, timestamps, CSR item storage
/// (flat array + offsets) and the posting capacity `m_max` — the index's own
/// arrays, so a decoder that collects straight into them loads an artefact
/// without a second copy.
pub type IndexParts =
    (FxHashMap<ItemId, Posting>, Arc<[Timestamp]>, Arc<[ItemId]>, Arc<[u32]>, usize);

/// The prebuilt `(M, t)` index over historical sessions. Cloning is a
/// handle copy: the clone shares every array with the original.
#[derive(Debug, Clone)]
pub struct SessionIndex {
    postings: Arc<FxHashMap<ItemId, Posting>>,
    /// `t`: timestamp per session, indexed by dense `SessionId`.
    timestamps: Arc<[Timestamp]>,
    /// CSR storage of deduplicated per-session items (first-occurrence order).
    items_flat: Arc<[ItemId]>,
    items_offsets: Arc<[u32]>,
    m_max: usize,
}

impl SessionIndex {
    /// Builds the index from a click log.
    ///
    /// `m_max` is the maximum posting-list length — the recency-sample upper
    /// bound `m` that the online algorithm may request. Sessions are formed
    /// by grouping clicks on their external session id; a session's timestamp
    /// is the maximum click timestamp it contains; within a session items are
    /// ordered chronologically and deduplicated to their first occurrence.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidConfig`] if `m_max == 0`.
    /// * [`CoreError::EmptyDataset`] if `clicks` yields no sessions.
    /// * [`CoreError::TooManySessions`] if there are more than `u32::MAX`
    ///   distinct sessions.
    pub fn build(clicks: &[Click], m_max: usize) -> Result<Self, CoreError> {
        if m_max == 0 {
            return Err(CoreError::InvalidConfig {
                parameter: "m_max",
                reason: "posting-list capacity must be positive".into(),
            });
        }
        if clicks.is_empty() {
            return Err(CoreError::EmptyDataset);
        }

        // Group clicks per external session.
        let mut by_session: FxHashMap<ExternalSessionId, Vec<(Timestamp, ItemId)>> =
            fx_map_with_capacity(clicks.len() / 4);
        for c in clicks {
            by_session.entry(c.session_id).or_default().push((c.timestamp, c.item_id));
        }
        let num_sessions = by_session.len();
        if num_sessions > u32::MAX as usize {
            return Err(CoreError::TooManySessions(num_sessions));
        }

        // Order sessions by (timestamp, external id) ascending and assign ids.
        let mut order: Vec<(Timestamp, ExternalSessionId)> = by_session
            .iter()
            .map(|(&ext, clicks)| {
                let ts = clicks.iter().map(|&(t, _)| t).max().expect("non-empty session");
                (ts, ext)
            })
            .collect();
        order.sort_unstable();

        let mut timestamps = Vec::with_capacity(num_sessions);
        let mut items_flat: Vec<ItemId> = Vec::with_capacity(clicks.len());
        let mut items_offsets: Vec<u32> = Vec::with_capacity(num_sessions + 1);
        items_offsets.push(0);

        // Support counts and ascending-recency posting accumulation.
        let mut supports: FxHashMap<ItemId, u32> = fx_map_with_capacity(1024);

        for &(ts, ext) in &order {
            let mut session_clicks = by_session.remove(&ext).expect("session present");
            session_clicks.sort_unstable();
            timestamps.push(ts);
            let start = items_flat.len();
            for (_, item) in session_clicks {
                // Deduplicate to first occurrence: linear scan over the (short)
                // current session — the median e-commerce session has < 5 items.
                if !items_flat[start..].contains(&item) {
                    items_flat.push(item);
                    *supports.entry(item).or_insert(0) += 1;
                }
            }
            items_offsets.push(items_flat.len() as u32);
        }

        // Build posting lists: iterate sessions ascending (oldest→newest) and
        // push; keep only the last `m_max` entries, reversed to descending.
        let mut ascending: FxHashMap<ItemId, Vec<SessionId>> =
            fx_map_with_capacity(supports.len());
        for sid in 0..num_sessions {
            let s = items_offsets[sid] as usize;
            let e = items_offsets[sid + 1] as usize;
            for &item in &items_flat[s..e] {
                ascending.entry(item).or_default().push(sid as SessionId);
            }
        }
        let mut postings: FxHashMap<ItemId, Posting> = fx_map_with_capacity(ascending.len());
        for (item, sessions) in ascending {
            let support = sessions.len() as u32;
            let entries = sessions.iter().rev().take(m_max).copied().collect();
            postings.insert(item, Posting { entries, support });
        }

        Ok(Self::from_generation(
            postings,
            timestamps.into(),
            items_flat.into(),
            items_offsets.into(),
            m_max,
        ))
    }

    /// Assembles an index from pre-built parts (parallel builder,
    /// deserialisation), validating all structural invariants.
    ///
    /// `items_offsets` must have length `timestamps.len() + 1`, start at 0,
    /// be monotone and end at `items_flat.len()`. `timestamps` must be
    /// non-decreasing in the dense id — the invariant that makes the id the
    /// recency key, and with it the whole kernel order. Posting lists must
    /// be strictly descending valid session ids, no longer than `m_max` and
    /// no longer than their support.
    ///
    /// # Errors
    ///
    /// [`CoreError::CorruptIndex`] describing the first violated invariant.
    pub fn from_parts(
        postings: FxHashMap<ItemId, Posting>,
        timestamps: Arc<[Timestamp]>,
        items_flat: Arc<[ItemId]>,
        items_offsets: Arc<[u32]>,
        m_max: usize,
    ) -> Result<Self, CoreError> {
        let n = timestamps.len();
        if m_max == 0 {
            return Err(CoreError::CorruptIndex("m_max must be positive".into()));
        }
        if items_offsets.len() != n + 1 {
            return Err(CoreError::CorruptIndex(format!(
                "items_offsets has length {} but expected {}",
                items_offsets.len(),
                n + 1
            )));
        }
        if items_offsets.first() != Some(&0)
            || items_offsets.last().copied() != Some(items_flat.len() as u32)
        {
            return Err(CoreError::CorruptIndex("items_offsets endpoints invalid".into()));
        }
        if items_offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(CoreError::CorruptIndex("items_offsets not monotone".into()));
        }
        if let Some(older) = timestamps.windows(2).position(|w| w[0] > w[1]) {
            return Err(CoreError::CorruptIndex(format!(
                "session {} is older than session {older}: timestamps must not decrease with \
                 the dense id",
                older + 1
            )));
        }
        for (item, posting) in &postings {
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
        Ok(Self::from_generation(postings, timestamps, items_flat, items_offsets, m_max))
    }

    /// Assembles an index **without** validating it: the caller vouches for
    /// every invariant [`SessionIndex::from_parts`] checks. This is how the
    /// incremental indexer emits the next generation of a live index — the
    /// arrays it passes are mostly the previous generation's own `Arc`s.
    /// With no sessions (`items_offsets == [0]`) the result is the empty
    /// index only this constructor can make.
    pub fn from_generation(
        postings: FxHashMap<ItemId, Posting>,
        timestamps: Arc<[Timestamp]>,
        items_flat: Arc<[ItemId]>,
        items_offsets: Arc<[u32]>,
        m_max: usize,
    ) -> Self {
        debug_assert_eq!(items_offsets.len(), timestamps.len() + 1);
        debug_assert_eq!(items_offsets.last().copied(), Some(items_flat.len() as u32));
        Self { postings: Arc::new(postings), timestamps, items_flat, items_offsets, m_max }
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

    /// The whole posting table, as the next generation starts from it.
    pub fn posting_table(&self) -> &FxHashMap<ItemId, Posting> {
        &self.postings
    }

    /// The timestamp array `t`, ascending with the dense session id.
    #[inline]
    pub fn session_timestamps(&self) -> &[Timestamp] {
        &self.timestamps
    }

    /// CSR offsets into [`SessionIndex::session_items_flat`], one more than
    /// there are sessions.
    #[inline]
    pub fn session_offsets(&self) -> &[u32] {
        &self.items_offsets
    }

    /// Timestamp `t_h` of a historical session (constant-time array access).
    #[inline]
    pub fn session_timestamp(&self, session: SessionId) -> Timestamp {
        self.timestamps[session as usize]
    }

    /// Deduplicated items of a historical session, first-occurrence order.
    #[inline]
    pub fn session_items(&self, session: SessionId) -> &[ItemId] {
        let s = self.items_offsets[session as usize] as usize;
        let e = self.items_offsets[session as usize + 1] as usize;
        &self.items_flat[s..e]
    }

    /// CSR range of a session's items inside the flat item storage:
    /// `session_items(s)` equals `items_flat[session_span(s)]`. Exposed so
    /// consumers can maintain side-arrays parallel to the flat storage (the
    /// scoring stream of `VmisKnn` indexes with this range).
    #[inline]
    pub fn session_span(&self, session: SessionId) -> std::ops::Range<usize> {
        let s = self.items_offsets[session as usize] as usize;
        let e = self.items_offsets[session as usize + 1] as usize;
        s..e
    }

    /// The flat CSR item storage every [`SessionIndex::session_span`]
    /// indexes into: all sessions' items, in session order.
    #[inline]
    pub fn session_items_flat(&self) -> &[ItemId] {
        &self.items_flat
    }

    /// Borrowed view of one historical session.
    pub fn session(&self, session: SessionId) -> SessionRef<'_> {
        SessionRef {
            id: session,
            items: self.session_items(session),
            timestamp: self.session_timestamp(session),
        }
    }

    /// Number of historical sessions `|H|`.
    #[inline]
    pub fn num_sessions(&self) -> usize {
        self.timestamps.len()
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
            session_item_entries: self.items_flat.len(),
        }
    }

    /// Heap bytes by structure (see [`IndexBytes`]).
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
        IndexBytes {
            postings: self
                .postings
                .values()
                .map(|p| arc_slice_bytes::<SessionId>(p.entries.len()))
                .sum(),
            posting_table: if buckets == 0 { 0 } else { buckets * slot + 16 },
            session_items: arc_slice_bytes::<ItemId>(self.items_flat.len())
                + arc_slice_bytes::<u32>(self.items_offsets.len()),
            timestamps: arc_slice_bytes::<Timestamp>(self.timestamps.len()),
        }
    }

    /// Decomposes the index into its raw parts, the arguments of
    /// [`SessionIndex::from_parts`]. The posting table is copied only if
    /// another handle still shares it.
    pub fn into_parts(self) -> IndexParts {
        let postings = Arc::unwrap_or_clone(self.postings);
        (postings, self.timestamps, self.items_flat, self.items_offsets, self.m_max)
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
        let stats_before = idx.stats();
        let (p, t, f, o, m) = idx.into_parts();
        let idx2 = SessionIndex::from_parts(p, t, f, o, m).unwrap();
        assert_eq!(idx2.stats(), stats_before);
        assert_eq!(idx2.postings(1).unwrap(), &[2, 0]);
    }

    #[test]
    fn from_parts_rejects_bad_offsets() {
        let idx = SessionIndex::build(&sample_clicks(), 10).unwrap();
        let (p, t, f, o, m) = idx.into_parts();
        let mut o = o.to_vec();
        o[1] = 100; // out of range / non-monotone
        let err = SessionIndex::from_parts(p, t, f, o.into(), m).unwrap_err();
        assert!(matches!(err, CoreError::CorruptIndex(_)));
    }

    #[test]
    fn from_parts_rejects_unsorted_postings() {
        let idx = SessionIndex::build(&sample_clicks(), 10).unwrap();
        let (mut p, t, f, o, m) = idx.into_parts();
        p.get_mut(&1).unwrap().entries = [0, 2].into(); // ascending: wrong
        let err = SessionIndex::from_parts(p, t, f, o, m).unwrap_err();
        assert!(matches!(err, CoreError::CorruptIndex(_)));
    }

    #[test]
    fn from_parts_rejects_unknown_and_repeated_sessions() {
        for bad in [[3, 0], [2, 2]] {
            let idx = SessionIndex::build(&sample_clicks(), 10).unwrap();
            let (mut p, t, f, o, m) = idx.into_parts();
            p.get_mut(&1).unwrap().entries = bad.into();
            let err = SessionIndex::from_parts(p, t, f, o, m).unwrap_err();
            assert!(matches!(err, CoreError::CorruptIndex(_)), "{bad:?}");
        }
    }

    #[test]
    fn from_parts_rejects_timestamps_that_decrease_with_the_id() {
        // Unchecked, this would silently reverse the kernel's recency order:
        // ids are all it compares.
        let idx = SessionIndex::build(&sample_clicks(), 10).unwrap();
        let (p, t, f, o, m) = idx.into_parts();
        let mut t = t.to_vec();
        t.swap(1, 2);
        let err = SessionIndex::from_parts(p.clone(), t.into(), f.clone(), o.clone(), m);
        assert!(matches!(err, Err(CoreError::CorruptIndex(m)) if m.contains("session 2")));
        // Ties are fine: equal timestamps are ordered by external id.
        SessionIndex::from_parts(p, [12, 21, 21].into(), f, o, m).unwrap();
    }

    #[test]
    fn from_parts_rejects_posting_longer_than_support() {
        let idx = SessionIndex::build(&sample_clicks(), 10).unwrap();
        let (mut p, t, f, o, m) = idx.into_parts();
        p.get_mut(&1).unwrap().support = 1; // posting has 2 entries
        let err = SessionIndex::from_parts(p, t, f, o, m).unwrap_err();
        assert!(matches!(err, CoreError::CorruptIndex(_)));
    }

    #[test]
    fn single_session_dataset_builds() {
        let clicks = vec![Click::new(1, 5, 1), Click::new(1, 6, 2)];
        let idx = SessionIndex::build(&clicks, 500).unwrap();
        assert_eq!(idx.num_sessions(), 1);
        assert_eq!(idx.postings(5).unwrap(), &[0]);
        assert_eq!(idx.session(0).items, &[5, 6]);
    }
}
