//! Randomized differential testing of three VMIS-kNN execution paths.
//!
//! The hand-built fixtures in the unit suites pin down specific behaviours;
//! this suite samples *random* click logs and configs: the core [`VmisKnn`]
//! kernel, [`AllocHeavyVmis`] (an independently written kernel — `std`
//! binary heaps and hash maps, no shared code with the kernel's sorted
//! join), and the core kernel over an
//! [`IncrementalIndexer::snapshot`] must produce bit-identical output — the
//! same guarantee DESIGN.md states for the fixture tests, now sampled from
//! a much larger input space (shrinking gives a minimal counterexample on
//! failure).

use proptest::collection::vec;
use proptest::prelude::*;
use serenade_baselines::analogues::AllocHeavyVmis;
use serenade_core::{Click, Recommender, SessionIndex, VmisConfig, VmisKnn};
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

/// Random evolving sessions drawn from the same item space as the history.
fn session_strategy() -> impl Strategy<Value = Vec<u64>> {
    vec(1u64..=14, 1..8)
}

/// Feeds the log to the incremental indexer in batches split at arbitrary
/// points, exercising both the append fast path and the rebuild fallback.
fn incremental_over(clicks: &[Click], splits: &[usize], m_max: usize) -> IncrementalIndexer {
    let mut inc = IncrementalIndexer::new(m_max).expect("positive m_max");
    let mut start = 0;
    for &cut in splits {
        let end = cut.min(clicks.len()).max(start);
        inc.apply_batch(&clicks[start..end]).expect("batch applies");
        start = end;
    }
    inc.apply_batch(&clicks[start..]).expect("final batch applies");
    inc
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn all_execution_paths_agree_on_random_inputs(
        clicks in clicks_strategy(),
        config in config_strategy(),
        sessions in vec(session_strategy(), 1..6),
        splits in vec(0usize..120, 0..4),
    ) {
        let m_max = config.m.max(4);
        let index = SessionIndex::build(&clicks, m_max).expect("non-empty log");
        let core = VmisKnn::new(index.clone(), config.clone()).expect("valid config");
        let independent = AllocHeavyVmis::new(index.clone(), config.clone()).expect("valid config");
        let inc = incremental_over(&clicks, &splits, m_max);
        let inc_core = VmisKnn::new(inc.snapshot().expect("non-empty"), config.clone())
            .expect("valid config");

        for session in &sessions {
            let reference = core.recommend(session);
            let via_independent = independent.recommend(session, config.how_many);
            prop_assert_eq!(
                &reference, &via_independent,
                "independent kernel diverged on session {:?}", session
            );
            let via_incremental = inc_core.recommend(session);
            prop_assert_eq!(
                &reference, &via_incremental,
                "incremental snapshot diverged on session {:?}", session
            );
        }
    }

    #[test]
    fn incremental_snapshot_equals_scratch_build_on_random_logs(
        clicks in clicks_strategy(),
        splits in vec(0usize..120, 0..4),
        m_max in 1usize..10,
    ) {
        let reference = SessionIndex::build(&clicks, m_max).expect("non-empty log");
        let inc = incremental_over(&clicks, &splits, m_max);
        let snapshot = inc.snapshot().expect("non-empty");
        prop_assert_eq!(snapshot.stats(), reference.stats());
        for sid in 0..reference.num_sessions() as u32 {
            prop_assert_eq!(snapshot.session_items(sid), reference.session_items(sid));
            prop_assert_eq!(snapshot.session_timestamp(sid), reference.session_timestamp(sid));
        }
        for item in reference.items() {
            prop_assert_eq!(snapshot.postings(item), reference.postings(item));
            prop_assert_eq!(snapshot.item_support(item), reference.item_support(item));
        }
    }
}
