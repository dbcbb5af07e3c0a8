//! The dense session id is the recency key — for every index producer.
//!
//! The kernel orders sessions by id alone and a posting stores ids alone
//! (`serenade_core::index`, "The id is the recency key"). That is sound only
//! while every producer numbers sessions in ascending `(timestamp, external
//! id)` order and writes every posting strictly descending. This suite holds
//! each of them to it against an expectation derived from nothing but the
//! click log: `SessionIndex::build`, `build_parallel`, a `binfmt` round trip,
//! and every generation an `IncrementalIndexer` emits under appends,
//! reappearing sessions, out-of-order batches, deletes and retention drops —
//! with timestamps that tie four ways as often as not.
//!
//! The accumulator slot, by contrast, is *not* a key of anything: a live
//! index numbers items in the order they arrive, a built one by id, and the
//! kernel answers byte for byte the same over both — score ties included.

use proptest::collection::vec;
use proptest::prelude::*;
use serenade_core::{Click, ItemId, SessionId, SessionIndex, VmisConfig, VmisKnn};
use serenade_index::{build_parallel, read_index, write_index, BuilderConfig, IncrementalIndexer};

/// Random click logs over a small id space. Every session also clicks a
/// marker item of its own (at its earliest timestamp, so the session's
/// timestamp does not move): two sessions never have the same item list,
/// and an order swapped between two tied sessions cannot go unseen.
fn clicks_strategy() -> impl Strategy<Value = Vec<Click>> {
    (vec((1u64..=20, 1u64..=12, 0u64..=300), 1..80), any::<bool>()).prop_map(|(triples, ties)| {
        let mut clicks: Vec<Click> = triples
            .into_iter()
            .map(|(session, item, ts)| Click::new(session, item, if ties { ts % 4 } else { ts }))
            .collect();
        let mut earliest = std::collections::BTreeMap::new();
        for c in &clicks {
            let ts = earliest.entry(c.session_id).or_insert(c.timestamp);
            *ts = (*ts).min(c.timestamp);
        }
        clicks.extend(earliest.into_iter().map(|(s, ts)| Click::new(s, 100 + s, ts)));
        clicks
    })
}

/// The sessions of `log` as `(timestamp, external id, items)` in the order
/// dense ids must be assigned in.
fn ranked(log: &[Click]) -> Vec<(u64, u64, Vec<ItemId>)> {
    let mut by_session = std::collections::BTreeMap::<u64, Vec<(u64, ItemId)>>::new();
    for c in log {
        by_session.entry(c.session_id).or_default().push((c.timestamp, c.item_id));
    }
    let mut sessions: Vec<_> = by_session
        .into_iter()
        .map(|(ext, mut clicks)| {
            clicks.sort_unstable();
            let mut items = Vec::new();
            for &(_, item) in &clicks {
                if !items.contains(&item) {
                    items.push(item);
                }
            }
            (clicks.last().expect("grouped from a click").0, ext, items)
        })
        .collect();
    sessions.sort_unstable();
    sessions
}

/// `index` is the index of `log`: id order is `(timestamp, external id)`
/// order, and every posting is the strictly descending ids of the `m_max`
/// most recent sessions holding the item.
fn assert_id_is_recency_key(
    index: &SessionIndex,
    log: &[Click],
    m_max: usize,
) -> Result<(), String> {
    let sessions = ranked(log);
    prop_assert_eq!(index.num_sessions(), sessions.len());
    for (id, (timestamp, ext, items)) in sessions.iter().enumerate() {
        let id = id as SessionId;
        prop_assert_eq!(index.session_timestamp(id), *timestamp, "t[{}], session {}", id, ext);
        prop_assert_eq!(index.session_items(id), &items[..], "items of {}, session {}", id, ext);
    }
    let mut indexed = 0;
    for item in index.items() {
        let posting = index.postings(item).expect("listed item has a posting");
        prop_assert!(posting.windows(2).all(|w| w[0] > w[1]), "posting of {} not descending", item);
        let holders: Vec<SessionId> = (0..sessions.len())
            .rev()
            .filter(|&id| sessions[id].2.contains(&item))
            .map(|id| id as SessionId)
            .collect();
        prop_assert_eq!(index.item_support(item), Some(holders.len() as u32));
        prop_assert_eq!(posting, &holders[..m_max.min(holders.len())], "posting of {}", item);
        indexed += holders.len();
    }
    let listed: usize = sessions.iter().map(|s| s.2.len()).sum();
    prop_assert_eq!(indexed, listed, "an item went unindexed");
    Ok(())
}

#[test]
fn an_item_that_arrives_later_under_a_smaller_id_still_leads_a_score_tie() {
    // Sessions {1, 9} and, a publish later, {1, 5}: asked about item 1, items
    // 9 and 5 score the same bits (one session each, same similarity, same
    // support), and item 5 — the larger slot in the live index — must lead.
    let mut inc = IncrementalIndexer::new(10).expect("valid capacity");
    inc.apply_batch(&[Click::new(1, 1, 10), Click::new(1, 9, 11)]).expect("batch applies");
    inc.apply_batch(&[Click::new(2, 1, 20), Click::new(2, 5, 21)]).expect("batch applies");
    let live = inc.snapshot().expect("two sessions");
    let built = SessionIndex::build(&inc.retained_log(), 10).expect("two sessions");
    assert!(live.item_slot(5) > live.item_slot(9), "a live index numbers by arrival");
    assert!(built.item_slot(5) < built.item_slot(9), "a built index numbers by id");
    // `how_many` 1 decides the tie while selecting, 21 while sorting.
    for how_many in [1, 21] {
        let config = VmisConfig { m: 10, how_many, ..VmisConfig::default() };
        let answer = |index: &SessionIndex| -> Vec<(ItemId, u32)> {
            let kernel = VmisKnn::new(index.clone(), config.clone()).expect("valid config");
            kernel.recommend(&[1]).iter().map(|r| (r.item, r.score.to_bits())).collect()
        };
        let (live, built) = (answer(&live), answer(&built));
        assert_eq!(live, built, "how_many {how_many}");
        assert_eq!(live[0].0, 5, "how_many {how_many}");
        if let [five, nine] = live[..] {
            assert_eq!((nine.0, nine.1), (9, five.1), "a tie on the score bits");
        }
    }
}

/// One mutation of a live index.
#[derive(Debug, Clone)]
enum Op {
    /// A batch as generated: its sessions collide with indexed ones (they
    /// reappear) and its timestamps land anywhere (out of order).
    Anywhere(Vec<Click>),
    /// The same batch shifted past everything indexed so far: an append.
    AtRecentEnd(Vec<Click>),
    Delete(u64),
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        clicks_strategy().prop_map(Op::Anywhere),
        clicks_strategy().prop_map(Op::AtRecentEnd),
        (1u64..=20).prop_map(Op::Delete),
    ];
    vec(op, 1..10)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn batch_builders_and_the_artefact_number_sessions_by_recency(
        log in clicks_strategy(),
        m_max in 1usize..8,
        threads in 1usize..5,
    ) {
        let built = SessionIndex::build(&log, m_max).expect("non-empty log");
        assert_id_is_recency_key(&built, &log, m_max)?;
        let parallel =
            build_parallel(&log, BuilderConfig { threads, m_max }).expect("non-empty log");
        assert_id_is_recency_key(&parallel, &log, m_max)?;
        let mut artefact = Vec::new();
        write_index(&built, &mut artefact).expect("in-memory write");
        assert_id_is_recency_key(&read_index(&artefact).expect("own artefact"), &log, m_max)?;
    }

    #[test]
    fn every_incremental_generation_numbers_sessions_by_recency(
        ops in ops_strategy(),
        m_max in 1usize..8,
        cap in prop_oneof![Just(usize::MAX), 20usize..200],
    ) {
        let mut inc = IncrementalIndexer::with_retained_clicks_cap(m_max, cap).expect("valid caps");
        let mut newest = 0;
        for op in ops {
            match op {
                Op::Anywhere(batch) => inc.apply_batch(&batch).expect("batch applies"),
                Op::AtRecentEnd(mut batch) => {
                    batch.iter_mut().for_each(|c| c.timestamp += newest);
                    inc.apply_batch(&batch).expect("batch applies");
                }
                Op::Delete(ext) => {
                    inc.delete_session(ext).expect("delete applies");
                }
            }
            newest = inc.retained_log().iter().map(|c| c.timestamp).max().unwrap_or(newest);
            let Ok(generation) = inc.snapshot() else { continue };
            assert_id_is_recency_key(&generation, &inc.retained_log(), m_max)?;
            // However the generation came to number its slots, the kernel
            // over it answers as the kernel over a build of the same log.
            let built = SessionIndex::build(&inc.retained_log(), m_max).expect("non-empty log");
            let config = VmisConfig { m: m_max, k: 3, how_many: 4, ..VmisConfig::default() };
            let live = VmisKnn::new(generation, config.clone()).expect("valid config");
            let built = VmisKnn::new(built, config).expect("valid config");
            for item in 1..=12 {
                prop_assert_eq!(live.recommend(&[item, 1]), built.recommend(&[item, 1]));
            }
            // The retained log is kept in rank order, which names the
            // external id behind each dense id outright.
            let mut by_rank: Vec<u64> = inc.retained_log().iter().map(|c| c.session_id).collect();
            by_rank.dedup();
            let expected: Vec<u64> = ranked(&inc.retained_log()).iter().map(|s| s.1).collect();
            prop_assert_eq!(by_rank, expected);
        }
    }
}
