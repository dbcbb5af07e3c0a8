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
//! ([`serenade_index::changed_items`]) over that span — the soundness
//! condition for epoch-bucketed cache invalidation (an untouched item's
//! cached prediction may survive the publish).

use proptest::collection::vec;
use proptest::prelude::*;
use serenade_core::{Click, SessionIndex, VmisConfig, VmisKnn};
use serenade_index::{changed_items, IncrementalIndexer, TouchedItems};

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

/// Feeds the log to the indexer in batches split at arbitrary points.
fn apply_split(inc: &mut IncrementalIndexer, clicks: &[Click], splits: &[usize]) {
    let mut start = 0;
    for &cut in splits {
        let end = cut.min(clicks.len()).max(start);
        inc.apply_batch(&clicks[start..end]).expect("batch applies");
        start = end;
    }
    inc.apply_batch(&clicks[start..]).expect("final batch applies");
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
        let mut inc = IncrementalIndexer::with_retained_clicks_cap(m_max, cap)
            .expect("valid cap");
        apply_split(&mut inc, &clicks, &splits);
        inc.delete_session(victim).expect("delete applies");
        prop_assert!(inc.retained_log().iter().all(|c| c.session_id != victim));
        if inc.retained_log().is_empty() {
            prop_assert!(inc.snapshot().is_err());
            return Ok(());
        }
        let reference =
            SessionIndex::build(&inc.retained_log(), m_max).expect("non-empty log");
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
