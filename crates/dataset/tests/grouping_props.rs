//! Sessionization, the train/test split and the grouping under them
//! against a `BTreeMap` model.
//!
//! `sessionize` and `split_at` group through the counting pass the index
//! build uses (`serenade_core::SessionRuns`); this suite holds them to what
//! a session is, derived from nothing but the click log: repeats kept,
//! clicks in `(timestamp, item)` order, sessions in `(end, id)` order, and a
//! training set that is the input-order filter of the log. The grouping
//! itself is held to the model at every thread count, each thread owning a
//! hash class of session ids.

use std::collections::{BTreeMap, BTreeSet};

use proptest::collection::vec;
use proptest::prelude::*;
use serenade_core::{Click, SessionRuns};
use serenade_dataset::split::split_at;
use serenade_dataset::{sessionize, Session};

/// Random logs over a small id space, with timestamps that tie often and
/// verbatim repeated clicks.
fn clicks_strategy() -> impl Strategy<Value = Vec<Click>> {
    (vec((1u64..=15, 1u64..=10, 0u64..=40), 0..90), any::<bool>()).prop_map(|(triples, sparse)| {
        let mut clicks: Vec<Click> = triples
            .into_iter()
            .map(|(s, item, ts)| Click::new(if sparse { u64::MAX - s * 977 } else { s }, item, ts))
            .collect();
        let repeats: Vec<Click> = clicks.iter().step_by(5).copied().collect();
        clicks.extend(repeats);
        clicks
    })
}

/// Random logs of a few sessions whose ids lie far apart over the whole
/// `u64` range, so that every hash class of a few threads holds some, and
/// whose clicks share a handful of timestamps, so that sessions tie on
/// their ends.
fn spread_strategy() -> impl Strategy<Value = Vec<Click>> {
    (vec(any::<u64>(), 1..12), vec((0usize..12, 1u64..=10, 0u64..=4), 1..150)).prop_map(
        |(ids, clicks)| {
            (clicks.into_iter())
                .map(|(session, item, ts)| Click::new(ids[session % ids.len()], item, ts))
                .collect()
        },
    )
}

/// The sessions of `log` as the model has them, in `(end, id)` order.
fn model(log: &[Click]) -> Vec<Session> {
    let mut by_session = BTreeMap::<u64, Vec<(u64, u64)>>::new();
    for c in log {
        by_session.entry(c.session_id).or_default().push((c.timestamp, c.item_id));
    }
    let mut sessions: Vec<Session> = by_session
        .into_iter()
        .map(|(id, mut clicks)| {
            clicks.sort();
            Session {
                id,
                items: clicks.iter().map(|&(_, item)| item).collect(),
                start: clicks[0].0,
                end: clicks[clicks.len() - 1].0,
            }
        })
        .collect();
    sessions.sort_by_key(|s| (s.end, s.id));
    sessions
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128 })]

    #[test]
    fn sessionize_is_the_model(log in clicks_strategy()) {
        prop_assert_eq!(sessionize(&log), model(&log));
    }

    #[test]
    fn group_is_the_model_at_every_thread_count(log in spread_strategy()) {
        let sessions = model(&log);
        for threads in [1, 2, 3, 8] {
            let runs = SessionRuns::group(&log, threads);
            prop_assert_eq!(runs.len(), sessions.len(), "threads {}", threads);
            for (rank, session) in sessions.iter().enumerate() {
                prop_assert_eq!(runs.ext_id(rank), session.id, "threads {}", threads);
                let items: Vec<u64> = runs.run(rank).iter().map(|&(_, item)| item).collect();
                prop_assert_eq!(&items, &session.items, "threads {}", threads);
                prop_assert_eq!(runs.run(rank)[0].0, session.start, "threads {}", threads);
                prop_assert_eq!(runs.timestamp(rank), session.end, "threads {}", threads);
            }
        }
    }

    #[test]
    fn split_at_is_the_model(log in clicks_strategy(), cutoff in 0u64..=42) {
        let split = split_at(&log, cutoff);
        let sessions = model(&log);
        let test_ids: BTreeSet<u64> =
            sessions.iter().filter(|s| s.end >= cutoff).map(|s| s.id).collect();
        let train: Vec<Click> =
            log.iter().filter(|c| !test_ids.contains(&c.session_id)).copied().collect();
        let known: BTreeSet<u64> = train.iter().map(|c| c.item_id).collect();
        let test: Vec<Session> = sessions
            .into_iter()
            .filter(|s| s.end >= cutoff)
            .filter_map(|mut s| {
                s.items.retain(|i| known.contains(i));
                (s.items.len() >= 2).then_some(s)
            })
            .collect();
        prop_assert_eq!(split.train, train);
        prop_assert_eq!(split.test, test);
    }
}
