//! The publish-epoch log: which items each index publication touched.
//!
//! Streaming ingest turns the daily rollover into a mini-publish every few
//! hundred milliseconds. Whole-generation cache invalidation would evict
//! every cached prediction on every publish even though a typical ingest
//! batch touches a handful of items; the epoch log records, per publication
//! generation, the set of items whose index neighbourhood changed
//! ([`serenade_index::IncrementalIndexer::drain_touched`], proven a sound
//! over-approximation of the semantic diff by the `deletion_props` suite).
//! A cached entry stamped `s` probed at generation `c` is still valid iff
//! **every** epoch in `(s, c]` is present in the log and none of them
//! touched the entry's item.
//!
//! ## The conservative direction
//!
//! Publishers record their epoch *before* the [`IndexHandle`] store that
//! makes the new generation visible. A prober that observes generation
//! `g+1` may therefore race the record only in the safe direction: if the
//! epoch is not in the log yet (or has aged out of the bounded window, or
//! the publisher crashed between record and store), [`EpochLog::still_valid`]
//! reports `false` and the cache falls back to whole-generation eviction.
//! False staleness costs a recompute; false validity would serve a
//! prediction whose neighbourhood moved — the former is always safe, the
//! latter can never happen. `tests/loom_models.rs` model-checks the
//! record-then-store / read-then-probe protocol and kills the
//! `mutation-skip-epoch-check` seeded mutation below.
//!
//! ## Bounded staleness of idf
//!
//! VMIS-kNN weighs every neighbour by `log(|H| / h_i)`, and `|H|` (total
//! session count) moves on every publish — so a revalidated entry's scores
//! can drift by the idf delta even though its neighbourhood is unchanged.
//! That drift is bounded by the cache's epoch window (at most 64
//! mini-publishes, seconds of traffic) and collapses to zero at the next
//! full rollover, which records [`EpochChange::All`] and evicts everything.
//! This is the deliberate freshness/throughput trade documented in
//! DESIGN.md §4.6.
//!
//! [`IndexHandle`]: crate::handle::IndexHandle

use std::collections::VecDeque;

use serenade_core::{FxHashSet, ItemId};
use serenade_index::TouchedItems;

use crate::sync::Mutex;

/// What one publication changed: everything (a full rollover or a rebuild
/// whose touched set was not tracked) or a specific item set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EpochChange {
    /// Every item may have changed; nothing survives this epoch.
    All,
    /// Exactly these items' neighbourhoods changed (an over-approximation
    /// is sound; an under-approximation is not).
    Items(FxHashSet<ItemId>),
}

impl EpochChange {
    /// Convenience constructor from any item iterator.
    pub fn items<I: IntoIterator<Item = ItemId>>(items: I) -> Self {
        Self::Items(items.into_iter().collect())
    }

    /// Whether this publication may have changed `item`'s neighbourhood.
    pub fn touches(&self, item: ItemId) -> bool {
        match self {
            Self::All => true,
            Self::Items(set) => set.contains(&item),
        }
    }
}

impl From<TouchedItems> for EpochChange {
    fn from(touched: TouchedItems) -> Self {
        match touched {
            TouchedItems::All => Self::All,
            TouchedItems::Items(set) => Self::Items(set),
        }
    }
}

/// A bounded log of `(generation, change)` records, newest at the back.
///
/// Writers are the index publishers (the ingest publisher thread and the
/// rollover path), which are externally serialised — generations arrive in
/// ascending order. Readers are cache probes. One mutex suffices: records
/// are rare (per publish) and probes only take the lock on a generation
/// mismatch, i.e. at most once per entry per publish.
#[derive(Debug)]
pub struct EpochLog {
    window: usize,
    epochs: Mutex<VecDeque<(u64, EpochChange)>>,
}

impl EpochLog {
    /// Creates a log retaining at most `window` epochs (clamped to ≥ 1).
    pub fn new(window: usize) -> Self {
        Self { window: window.max(1), epochs: Mutex::new(VecDeque::new()) }
    }

    /// Records what the publication that will bump the handle to
    /// `generation` changed. MUST be called *before* the corresponding
    /// [`IndexHandle::store`] — the record-then-store order is what makes a
    /// racing probe err on the stale side (see module docs).
    ///
    /// A non-ascending `generation` (two unserialised publishers — a
    /// contract violation) clears the log first: validity can then only be
    /// vouched for from this record on, which is conservative.
    ///
    /// [`IndexHandle::store`]: crate::handle::IndexHandle::store
    pub fn record(&self, generation: u64, change: EpochChange) {
        let mut epochs = self.epochs.lock();
        if epochs.back().is_some_and(|&(g, _)| g >= generation) {
            epochs.clear();
        }
        epochs.push_back((generation, change));
        while epochs.len() > self.window {
            epochs.pop_front();
        }
    }

    /// Whether an entry stamped `stamp` is still valid for `item` at
    /// generation `current`: every epoch in `(stamp, current]` must be in
    /// the log and none of them may touch `item`. Any gap — an unrecorded
    /// publish, an epoch that aged out of the window, a stamp from the
    /// future — reports `false`.
    pub fn still_valid(&self, item: ItemId, stamp: u64, current: u64) -> bool {
        if stamp >= current {
            // Equal stamps are exact hits (the cache handles them without
            // consulting us); a stamp from the future means the caller's
            // generation read is older than the entry — never vouch.
            return stamp == current;
        }
        if current - stamp > self.window as u64 {
            return false;
        }
        let epochs = self.epochs.lock();
        for generation in (stamp + 1)..=current {
            let Some(change) = epochs
                .iter()
                .find(|&&(g, _)| g == generation)
                .map(|(_, change)| change)
            else {
                return false;
            };
            #[cfg(not(feature = "mutation-skip-epoch-check"))]
            if change.touches(item) {
                return false;
            }
            #[cfg(feature = "mutation-skip-epoch-check")]
            // seeded mutation: vouch for any logged epoch regardless of
            // what it touched — the loom cache model must catch the stale
            // prediction this serves across a publish.
            let _ = (change, item);
        }
        true
    }

    /// Number of retained epochs (observability/tests).
    pub fn len(&self) -> usize {
        self.epochs.lock().len()
    }

    /// Whether no epoch has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;

    #[test]
    fn untouched_items_stay_valid_across_recorded_epochs() {
        let log = EpochLog::new(8);
        log.record(2, EpochChange::items([4, 5]));
        log.record(3, EpochChange::items([6]));
        assert!(log.still_valid(9, 1, 3), "item 9 untouched by either epoch");
        assert!(!log.still_valid(4, 1, 3), "item 4 touched at generation 2");
        assert!(!log.still_valid(6, 1, 3), "item 6 touched at generation 3");
        assert!(log.still_valid(6, 1, 2), "generation 3 not in (1, 2]");
    }

    #[test]
    fn all_change_invalidates_everything() {
        let log = EpochLog::new(8);
        log.record(2, EpochChange::All);
        assert!(!log.still_valid(9, 1, 2));
    }

    #[test]
    fn missing_epochs_are_conservative() {
        let log = EpochLog::new(8);
        log.record(3, EpochChange::items([4]));
        // Generation 2 was never recorded: the span (1, 3] has a gap.
        assert!(!log.still_valid(9, 1, 3));
        // The recorded tail alone is fine.
        assert!(log.still_valid(9, 2, 3));
    }

    #[test]
    fn window_bounds_validity() {
        let log = EpochLog::new(3);
        for g in 2..=10u64 {
            log.record(g, EpochChange::items([]));
        }
        assert_eq!(log.len(), 3, "window must bound retention");
        assert!(log.still_valid(9, 7, 10), "span inside the window");
        assert!(!log.still_valid(9, 6, 10), "span longer than the window");
        assert!(!log.still_valid(9, 1, 10), "aged-out epochs cannot vouch");
    }

    #[test]
    fn future_stamps_never_vouch() {
        let log = EpochLog::new(8);
        log.record(2, EpochChange::items([]));
        assert!(!log.still_valid(9, 5, 2), "stamp newer than current");
        assert!(log.still_valid(9, 2, 2), "equal stamp is trivially valid");
    }

    #[test]
    fn non_monotone_record_resets_conservatively() {
        let log = EpochLog::new(8);
        log.record(2, EpochChange::items([]));
        log.record(3, EpochChange::items([]));
        // A second publisher (contract violation) re-records generation 3.
        log.record(3, EpochChange::items([7]));
        assert!(!log.still_valid(9, 1, 3), "history before the reset is gone");
        log.record(4, EpochChange::items([]));
        assert!(log.still_valid(9, 2, 4), "validity resumes from the reset");
        assert!(!log.still_valid(7, 2, 4), "the re-recorded change counts");
    }
}
