//! Randomized differential testing of session deletion (unlearning) and
//! touched-item tracking.
//!
//! The unlearning contract: after `delete_session(s)`, the published
//! snapshot must be indistinguishable from a from-scratch build over a click
//! log that never contained `s` — for *random* logs, configs, batch splits
//! and retention caps, including interleaved deletes and appends, and
//! regardless of whether the indexer took fast-path appends or rebuild
//! fallbacks along the way. Tombstones must hold: clicks for a deleted
//! session arriving after the delete are discarded, never resurrected.
//!
//! The epoch contract: the items drained by `drain_touched()` across a span
//! of mutations must be a superset of the *semantic* snapshot diff
//! (`changed_items`, below) over that span — the soundness
//! condition for epoch-bucketed cache invalidation (an untouched item's
//! cached prediction may survive the publish).

use proptest::collection::vec;
use proptest::prelude::*;
use serenade_core::{
    Click, FxHashSet, ItemId, SessionIndex, SessionItems, Timestamp, VmisConfig, VmisKnn,
};
use serenade_index::{IncrementalIndexer, TouchedItems};

/// The content signature of one posting session: `(timestamp, items)`.
type SessionSig<'a> = (Timestamp, SessionItems<'a>);

/// The dense-id-independent signature of an item's neighbourhood in `index`:
/// its support and the content of its posting sessions, in posting order. A
/// session is compared by its content, not its dense id, since ids are
/// renumbered by every deletion and retention drop.
fn item_signature(index: &SessionIndex, item: ItemId) -> Option<(u32, Vec<SessionSig<'_>>)> {
    let posting = index.postings(item)?;
    let support = index.item_support(item)?;
    let sessions = posting
        .iter()
        .map(|&s| (index.session_timestamp(s), index.session_items(s)))
        .collect();
    Some((support, sessions))
}

/// The semantic snapshot diff: items whose neighbourhood (support or
/// posting-session content) differs between the two snapshots, including
/// items present in only one of them, sorted.
fn changed_items(a: &SessionIndex, b: &SessionIndex) -> Vec<ItemId> {
    let mut universe: FxHashSet<ItemId> = a.items().collect();
    universe.extend(b.items());
    let mut changed: Vec<ItemId> = universe
        .into_iter()
        .filter(|&item| item_signature(a, item) != item_signature(b, item))
        .collect();
    changed.sort_unstable();
    changed
}

fn build(clicks: &[Click]) -> SessionIndex {
    SessionIndex::build(clicks, 100).unwrap()
}

#[test]
fn identical_indexes_have_no_changed_items() {
    let clicks = vec![Click::new(1, 0, 10), Click::new(1, 1, 11), Click::new(2, 1, 20)];
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
    let without: Vec<Click> = base.iter().filter(|c| c.session_id != 1).copied().collect();
    assert_eq!(changed_items(&build(&base), &build(&without)), vec![0, 7]);
}

/// Random click logs: small id spaces force collisions (shared items across
/// sessions, duplicate items within a session, timestamp ties).
fn clicks_strategy() -> impl Strategy<Value = Vec<Click>> {
    vec((1u64..=20, 1u64..=12, 0u64..=300), 1..120).prop_map(|triples| {
        triples
            .into_iter()
            .map(|(session, item, ts)| Click::new(session, item, ts))
            .collect()
    })
}

/// Random-but-valid configs spanning the knobs that alter the scoring path.
fn config_strategy() -> impl Strategy<Value = VmisConfig> {
    (1usize..=12, 1usize..=8, 1usize..=10, 1usize..=6, any::<bool>()).prop_map(
        |(m, k, how_many, max_session_len, exclude)| VmisConfig {
            m,
            k,
            how_many,
            max_session_len,
            exclude_session_items: exclude,
            ..VmisConfig::default()
        },
    )
}

/// The log split at arbitrary points.
fn batches<'a>(clicks: &'a [Click], splits: &[usize]) -> Vec<&'a [Click]> {
    let mut out = Vec::new();
    let mut start = 0;
    for &cut in splits {
        let end = cut.min(clicks.len()).max(start);
        out.push(&clicks[start..end]);
        start = end;
    }
    out.push(&clicks[start..]);
    out
}

/// Feeds the log to the indexer in batches split at arbitrary points.
fn apply_split(inc: &mut IncrementalIndexer, clicks: &[Click], splits: &[usize]) {
    for batch in batches(clicks, splits) {
        inc.apply_batch(batch).expect("batch applies");
    }
}

/// Keeps `model`, the traffic fed to `inc`, to the sessions `inc` still
/// holds: the log its index must be the build of.
fn prune(model: &mut Vec<Click>, inc: &IncrementalIndexer) {
    let held: FxHashSet<u64> = inc.session_ids().iter().copied().collect();
    model.retain(|c| held.contains(&c.session_id));
}

/// Asserts the two indexes are structurally identical.
fn assert_same(a: &SessionIndex, b: &SessionIndex) -> Result<(), String> {
    prop_assert_eq!(a.stats(), b.stats());
    for sid in 0..a.num_sessions() as u32 {
        prop_assert_eq!(a.session_items(sid), b.session_items(sid));
        prop_assert_eq!(a.session_timestamp(sid), b.session_timestamp(sid));
    }
    for item in a.items() {
        prop_assert_eq!(a.postings(item), b.postings(item));
        prop_assert_eq!(a.item_support(item), b.item_support(item));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn deletion_equals_scratch_build_without_the_session(
        clicks in clicks_strategy(),
        splits in vec(0usize..120, 0..4),
        m_max in 1usize..10,
        victim in 1u64..=20,
    ) {
        let mut inc = IncrementalIndexer::new(m_max).expect("positive m_max");
        apply_split(&mut inc, &clicks, &splits);
        let existed = clicks.iter().any(|c| c.session_id == victim);
        prop_assert_eq!(inc.delete_session(victim).expect("delete applies"), existed);

        let without: Vec<Click> =
            clicks.iter().filter(|c| c.session_id != victim).copied().collect();
        if without.is_empty() {
            prop_assert!(inc.snapshot().is_err(), "emptied index has no snapshot");
            return Ok(());
        }
        let reference = SessionIndex::build(&without, m_max).expect("non-empty log");
        assert_same(&inc.snapshot().expect("non-empty"), &reference)?;
    }

    #[test]
    fn deleted_session_never_influences_recommendations(
        clicks in clicks_strategy(),
        config in config_strategy(),
        splits in vec(0usize..120, 0..4),
        victim in 1u64..=20,
        session in vec(1u64..=14, 1..8),
    ) {
        let m_max = config.m.max(4);
        let without: Vec<Click> =
            clicks.iter().filter(|c| c.session_id != victim).copied().collect();
        if without.is_empty() {
            return Ok(()); // victim was the whole log: nothing to compare
        }

        let mut inc = IncrementalIndexer::new(m_max).expect("positive m_max");
        apply_split(&mut inc, &clicks, &splits);
        inc.delete_session(victim).expect("delete applies");
        let unlearned = VmisKnn::new(inc.snapshot().expect("non-empty"), config.clone())
            .expect("valid config");
        let reference = VmisKnn::new(
            SessionIndex::build(&without, m_max).expect("non-empty"),
            config,
        )
        .expect("valid config");
        prop_assert_eq!(
            unlearned.recommend(&session),
            reference.recommend(&session),
            "deleted session still influences predictions"
        );
    }

    #[test]
    fn tombstones_survive_interleaved_appends(
        before in clicks_strategy(),
        after in clicks_strategy(),
        splits in vec(0usize..120, 0..3),
        m_max in 1usize..10,
        victim in 1u64..=20,
    ) {
        // Delete between two traffic spans: clicks for the victim in the
        // second span must be discarded, everything else must apply.
        let mut inc = IncrementalIndexer::new(m_max).expect("positive m_max");
        apply_split(&mut inc, &before, &splits);
        inc.delete_session(victim).expect("delete applies");
        apply_split(&mut inc, &after, &splits);

        let expected: Vec<Click> = before
            .iter()
            .chain(after.iter())
            .filter(|c| c.session_id != victim)
            .copied()
            .collect();
        if expected.is_empty() {
            prop_assert!(inc.snapshot().is_err());
            return Ok(());
        }
        let reference = SessionIndex::build(&expected, m_max).expect("non-empty log");
        assert_same(&inc.snapshot().expect("non-empty"), &reference)?;
    }

    #[test]
    fn drained_touched_set_covers_the_semantic_diff(
        base in clicks_strategy(),
        more in clicks_strategy(),
        splits in vec(0usize..120, 0..3),
        m_max in 1usize..10,
        victim in 1u64..=20,
    ) {
        // Snapshot, mutate (appends + a delete), snapshot again: every item
        // the semantic diff reports changed must have been drained as
        // touched. The converse (precision) is not required — touched is an
        // over-approximation — but soundness is what cache validity needs.
        let mut inc = IncrementalIndexer::new(m_max).expect("positive m_max");
        apply_split(&mut inc, &base, &splits);
        let Ok(snap_before) = inc.snapshot() else { return Ok(()) };
        inc.drain_touched();

        apply_split(&mut inc, &more, &splits);
        inc.delete_session(victim).expect("delete applies");
        let Ok(snap_after) = inc.snapshot() else { return Ok(()) };

        let touched = inc.drain_touched();
        let diff = changed_items(&snap_before, &snap_after);
        match touched {
            TouchedItems::All => {}
            TouchedItems::Items(ref set) => {
                let missing: Vec<u64> =
                    diff.iter().filter(|i| !set.contains(i)).copied().collect();
                prop_assert!(
                    missing.is_empty(),
                    "semantically changed items not reported as touched: {:?} \
                     (touched = {:?})",
                    missing,
                    set
                );
            }
        }
    }

    #[test]
    fn retention_and_deletion_compose_on_random_logs(
        clicks in clicks_strategy(),
        splits in vec(0usize..120, 0..4),
        m_max in 1usize..10,
        cap in 10usize..60,
        victim in 1u64..=20,
    ) {
        // With a retention cap in play, a delete must still leave the index
        // equal to a from-scratch build over exactly the retained log (which
        // never contains the victim).
        let mut inc = IncrementalIndexer::with_retained_session_items_cap(m_max, cap)
            .expect("valid cap");
        // The model of the retained log, pruned after every call.
        let mut model = Vec::new();
        for batch in batches(&clicks, &splits) {
            inc.apply_batch(batch).expect("batch applies");
            model.extend_from_slice(batch);
            prune(&mut model, &inc);
            prop_assert!(inc.retained_session_items() <= cap || inc.num_sessions() == 1);
        }
        inc.delete_session(victim).expect("delete applies");
        prop_assert!(!inc.session_ids().contains(&victim));
        prune(&mut model, &inc);
        if model.is_empty() {
            prop_assert!(inc.snapshot().is_err());
            return Ok(());
        }
        let reference = SessionIndex::build(&model, m_max).expect("non-empty log");
        assert_same(&inc.snapshot().expect("non-empty"), &reference)?;
    }
}

/// The drained touched set must also cover pure-append spans (the publish
/// fast path) — checked deterministically here since the proptest above
/// always includes a delete.
#[test]
fn append_only_publish_touches_cover_the_diff() {
    let mut inc = IncrementalIndexer::new(6).expect("positive m_max");
    let mut log: Vec<Click> = Vec::new();
    for s in 1..=30u64 {
        log.push(Click::new(s, s % 7, s * 10));
        log.push(Click::new(s, (s + 3) % 7, s * 10 + 1));
    }
    inc.apply_batch(&log).expect("seed batch");
    let before = inc.snapshot().expect("non-empty");
    inc.drain_touched();

    inc.apply_batch(&[Click::new(31, 2, 1_000), Click::new(31, 9, 1_001)])
        .expect("append batch");
    let after = inc.snapshot().expect("non-empty");
    let touched = inc.drain_touched();
    for item in changed_items(&before, &after) {
        assert!(touched.contains(item), "item {item} changed but was not touched");
    }
}
