//! Randomized differential testing of the batch VMIS-kNN kernel.
//!
//! The batching server coalesces concurrently-arriving requests and scores
//! them through [`VmisKnn::recommend_batch`]; its correctness contract is
//! that the batch path is **bit-identical** to N sequential
//! [`VmisKnn::recommend_with_scratch`] calls — same items, same f32 scores,
//! same order — for every batch composition. This suite samples that
//! contract over random click logs, configs and batches, including the
//! duplicate-heavy single-item batches the coalescing path produces for hot
//! product pages (shrinking yields a minimal counterexample on failure).

use proptest::collection::vec;
use proptest::prelude::*;
use serenade_core::{Click, ItemId, SessionIndex, VmisConfig, VmisKnn};

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
    (1usize..=12, 1usize..=8, 1usize..=10, 1usize..=6, any::<bool>(), any::<bool>()).prop_map(
        |(m, k, how_many, max_session_len, early_stopping, exclude)| VmisConfig {
            m,
            k,
            how_many,
            max_session_len,
            early_stopping,
            exclude_session_items: exclude,
            ..VmisConfig::default()
        },
    )
}

/// Random batches of evolving sessions. Sessions may be empty (a coalesced
/// request whose session expired) and the item space overlaps the history's
/// only partially, so unknown-item windows occur too.
fn batch_strategy() -> impl Strategy<Value = Vec<Vec<ItemId>>> {
    vec(vec(1u64..=14, 0..8), 0..24)
}

/// Duplicate-heavy batches: single-item windows drawn from a tiny item
/// space, the shape the server's coalescing path produces under a flash
/// crowd. Exercises the window-dedupe arm of the batch kernel.
fn hot_batch_strategy() -> impl Strategy<Value = Vec<Vec<ItemId>>> {
    vec(vec(1u64..=4, 1..2), 1..32)
}

fn assert_batch_matches_sequential(
    vmis: &VmisKnn,
    batches: &[Vec<Vec<ItemId>>],
) -> Result<(), String> {
    let mut batch_scratch = vmis.batch_scratch();
    let mut scratch = vmis.scratch();
    // One shared BatchScratch across all batches: reuse must not leak state.
    for batch in batches {
        let refs: Vec<&[ItemId]> = batch.iter().map(Vec::as_slice).collect();
        let out = vmis.recommend_batch(&refs, &mut batch_scratch);
        prop_assert_eq!(out.len(), batch.len());
        for (i, session) in batch.iter().enumerate() {
            let reference = vmis.recommend_with_scratch(session, &mut scratch);
            prop_assert_eq!(
                &out[i], &reference,
                "batch member {} ({:?}) diverged from the sequential kernel", i, session
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn batch_kernel_is_bit_identical_to_sequential(
        clicks in clicks_strategy(),
        config in config_strategy(),
        batches in vec(batch_strategy(), 1..4),
    ) {
        let index = SessionIndex::build(&clicks, config.m.max(4)).expect("non-empty log");
        let vmis = VmisKnn::new(index, config).expect("valid config");
        assert_batch_matches_sequential(&vmis, &batches)?;
    }

    #[test]
    fn duplicate_heavy_batches_are_bit_identical_too(
        clicks in clicks_strategy(),
        config in config_strategy(),
        batches in vec(hot_batch_strategy(), 1..4),
    ) {
        let index = SessionIndex::build(&clicks, config.m.max(4)).expect("non-empty log");
        let vmis = VmisKnn::new(index, config).expect("valid config");
        assert_batch_matches_sequential(&vmis, &batches)?;
    }
}
