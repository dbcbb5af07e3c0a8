//! The paper's walk against the kernel's sorted join.
//!
//! `vmis_noopt` walks the postings the way Algorithm 2 does — a candidate
//! map, a binary heap `b_t` that evicts the oldest candidate, no early
//! stopping — and `VmisKnn` sorts the window's posting entries by id and
//! cuts at `m`. Both define the neighbours as the `k` most similar of the
//! `m` most recent sessions sharing an item with the window, so on the
//! strategies of `serenade-core`'s `kernel_differential_props` — small id
//! spaces, `m` at or near the posting lengths, postings truncated at
//! `m_max`, timestamp ties, repeated window items — they must report the
//! same sessions with the same similarity bits and match positions.

use proptest::collection::vec;
use proptest::prelude::*;
use serenade_baselines::vmis_noopt;
use serenade_core::vmis::Neighbor;
use serenade_core::{Click, SessionId, SessionIndex, VmisConfig, VmisKnn};

/// Random click logs over a small id space; the timestamp range is a
/// parameter so callers can force heavy ties.
fn clicks_strategy(max_ts: u64) -> impl Strategy<Value = Vec<Click>> {
    vec((1u64..=20, 1u64..=12, 0u64..=max_ts), 1..120).prop_map(|triples| {
        triples
            .into_iter()
            .map(|(session, item, ts)| Click::new(session, item, ts))
            .collect()
    })
}

/// Random-but-valid configs; `m` stays small so it regularly lands exactly
/// on a posting length.
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

fn bits(neighbors: Vec<Neighbor>) -> Vec<(SessionId, u32, usize)> {
    neighbors.into_iter().map(|n| (n.session, n.similarity.to_bits(), n.match_pos)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn noopt_neighbors_equal_the_kernels(
        clicks in clicks_strategy(300),
        ties in any::<bool>(),
        config in config_strategy(),
        m_max_extra in 0usize..4,
        sessions in vec(vec(1u64..=14, 0..10), 1..8),
    ) {
        let clicks: Vec<Click> = clicks
            .into_iter()
            .map(|c| Click::new(c.session_id, c.item_id, if ties { c.timestamp % 4 } else { c.timestamp }))
            .collect();
        let index = SessionIndex::build(&clicks, config.m + m_max_extra).expect("non-empty log");
        let noopt = vmis_noopt(index.clone(), config.clone()).expect("valid config");
        let vmis = VmisKnn::new(index, config).expect("valid config");
        let (mut reference, mut kernel) = (Default::default(), vmis.scratch());
        for session in &sessions {
            prop_assert_eq!(
                bits(noopt.neighbors_with_scratch(session, &mut reference)),
                bits(vmis.neighbors_with_scratch(session, &mut kernel)),
                "session {:?}", session
            );
        }
    }
}
