//! Semantic snapshot diffing for epoch-bucketed cache invalidation.
//!
//! Two [`SessionIndex`] snapshots straddling a publish are *semantically*
//! equal for an item when its neighbourhood is unchanged: same support and
//! the same ordered list of posting sessions, where a session is compared by
//! its **content** `(timestamp, items)`, not its dense id — dense ids are
//! renumbered by every rebuild, so a raw posting comparison would flag every
//! item after any deletion or retention compaction.
//!
//! [`changed_items`] computes the set of items whose neighbourhood differs.
//! The property suite uses it to prove the incremental indexer's
//! touched-item tracking ([`crate::IncrementalIndexer::drain_touched`]) is a
//! sound over-approximation: every semantically changed item is reported as
//! touched, so an epoch-bucketed cache that only invalidates touched items
//! never serves a prediction whose neighbourhood has moved under it.

use serenade_core::{FxHashSet, ItemId, SessionIndex, SessionItems, Timestamp};

/// The content signature of one posting session: `(timestamp, items)`.
type SessionSig<'a> = (Timestamp, SessionItems<'a>);

/// The dense-id-independent signature of an item's neighbourhood in `index`:
/// its support and the content of its posting sessions, in posting order.
fn item_signature(index: &SessionIndex, item: ItemId) -> Option<(u32, Vec<SessionSig<'_>>)> {
    let posting = index.postings(item)?;
    let support = index.item_support(item)?;
    let sessions = posting
        .iter()
        .map(|&s| (index.session_timestamp(s), index.session_items(s)))
        .collect();
    Some((support, sessions))
}

/// Items whose neighbourhood (support or posting-session content) differs
/// between the two snapshots, including items present in only one of them.
/// The returned set is sorted for deterministic test output.
pub fn changed_items(a: &SessionIndex, b: &SessionIndex) -> Vec<ItemId> {
    let mut universe: FxHashSet<ItemId> = a.items().collect();
    universe.extend(b.items());
    let mut changed: Vec<ItemId> = universe
        .into_iter()
        .filter(|&item| item_signature(a, item) != item_signature(b, item))
        .collect();
    changed.sort_unstable();
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use serenade_core::Click;

    fn build(clicks: &[Click]) -> SessionIndex {
        SessionIndex::build(clicks, 100).unwrap()
    }

    #[test]
    fn identical_indexes_have_no_changed_items() {
        let clicks =
            vec![Click::new(1, 0, 10), Click::new(1, 1, 11), Click::new(2, 1, 20)];
        assert!(changed_items(&build(&clicks), &build(&clicks)).is_empty());
    }

    #[test]
    fn appended_session_touches_only_its_items() {
        let base = vec![Click::new(1, 0, 10), Click::new(1, 1, 11), Click::new(2, 2, 20)];
        let mut grown = base.clone();
        grown.push(Click::new(3, 1, 30));
        grown.push(Click::new(3, 5, 31));
        assert_eq!(changed_items(&build(&base), &build(&grown)), vec![1, 5]);
    }

    #[test]
    fn deletion_is_insensitive_to_dense_id_renumbering() {
        // Deleting session 1 shifts every later dense id; only the deleted
        // session's items may differ semantically.
        let base = vec![
            Click::new(1, 0, 10),
            Click::new(1, 7, 11),
            Click::new(2, 2, 20),
            Click::new(3, 3, 30),
        ];
        let without: Vec<Click> =
            base.iter().filter(|c| c.session_id != 1).copied().collect();
        assert_eq!(changed_items(&build(&base), &build(&without)), vec![0, 7]);
    }
}
