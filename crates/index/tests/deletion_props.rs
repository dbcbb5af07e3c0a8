//! Randomized differential testing of session deletion (unlearning).
//!
//! The unlearning contract: after `delete_session(s)`, the published
//! snapshot must be indistinguishable from a from-scratch build over a click
//! log that never contained `s` — for *random* logs, configs, batch splits
//! and retention caps, including interleaved deletes and appends, and
//! regardless of whether the indexer took fast-path appends or rebuild
//! fallbacks along the way. Tombstones must hold: clicks for a deleted
//! session arriving after the delete are discarded, never resurrected.

use proptest::collection::vec;
use proptest::prelude::*;
use serenade_core::{Click, FxHashSet, SessionIndex, VmisConfig, VmisKnn};
use serenade_index::IncrementalIndexer;

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
