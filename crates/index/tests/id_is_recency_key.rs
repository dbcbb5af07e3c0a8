//! The dense session id is the recency key — for every index producer.
//!
//! The kernel orders sessions by id alone and a posting stores ids alone
//! (`serenade_core::index`, "The id is the recency key"). That is sound only
//! while every producer numbers sessions in ascending `(timestamp, external
//! id)` order and writes every posting strictly descending. This suite holds
//! each of them to it, and every row to its canonical order (distinct items,
//! ascending), against an expectation derived from nothing but the click
//! log: `SessionIndex::build`, `build_parallel`, a `binfmt` round trip, and
//! every generation an `IncrementalIndexer` emits under appends, reappearing
//! sessions, out-of-order batches, deletes and retention drops — the log it
//! was fed, pruned after every call to the sessions it still holds — with
//! timestamps that tie four ways as often as not. The build is also
//! held to it at posting caps 1, 2 and 500 and at 1, 2, 3 and 8 threads,
//! and its artefact to pinned bytes.
//!
//! The accumulator slot, by contrast, is *not* a key of anything: a live
//! index numbers items in the order they arrive, a built one by id, and the
//! kernel answers byte for byte the same over both — score ties included —
//! and the artefacts of both are the same bytes.

use std::collections::BTreeMap;

use proptest::collection::vec;
use proptest::prelude::*;
use serenade_core::index::SEGMENT_SESSIONS;
use serenade_core::{Click, FxHashSet, ItemId, SessionId, SessionIndex, VmisConfig, VmisKnn};
use serenade_dataset::{generate, split_last_days, SyntheticConfig};
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
        let mut earliest = BTreeMap::new();
        for c in &clicks {
            let ts = earliest.entry(c.session_id).or_insert(c.timestamp);
            *ts = (*ts).min(c.timestamp);
        }
        clicks.extend(earliest.into_iter().map(|(s, ts)| Click::new(s, 100 + s, ts)));
        clicks
    })
}

/// The sessions of `log` as `(timestamp, external id, items)` in the order
/// dense ids must be assigned in, each session's items distinct and
/// ascending: the canonical row.
fn ranked(log: &[Click]) -> Vec<(u64, u64, Vec<ItemId>)> {
    let mut by_session = BTreeMap::<u64, Vec<(u64, ItemId)>>::new();
    for c in log {
        by_session.entry(c.session_id).or_default().push((c.timestamp, c.item_id));
    }
    let mut sessions: Vec<_> = by_session
        .into_iter()
        .map(|(ext, clicks)| {
            let newest = clicks.iter().map(|&(ts, _)| ts).max().expect("grouped from a click");
            let mut items: Vec<ItemId> = clicks.iter().map(|&(_, item)| item).collect();
            items.sort_unstable();
            items.dedup();
            (newest, ext, items)
        })
        .collect();
    sessions.sort_unstable();
    sessions
}

/// `index` is the index of `log`: id order is `(timestamp, external id)`
/// order, every item's support counts the sessions holding it, every posting
/// is the strictly descending ids of the `m_max` most recent of them, and
/// every session item's slot names the item.
fn assert_id_is_recency_key(
    index: &SessionIndex,
    log: &[Click],
    m_max: usize,
) -> Result<(), String> {
    let sessions = ranked(log);
    prop_assert_eq!(index.num_sessions(), sessions.len());
    let mut holders = BTreeMap::<ItemId, Vec<SessionId>>::new();
    for (id, (timestamp, ext, items)) in sessions.iter().enumerate().rev() {
        let id = id as SessionId;
        prop_assert_eq!(index.session_timestamp(id), *timestamp, "t[{}], session {}", id, ext);
        prop_assert_eq!(index.session_items(id), &items[..], "items of {}, session {}", id, ext);
        let named: Vec<ItemId> =
            index.session_slots(id).iter().map(|s| index.slot_items().get(s as usize)).collect();
        prop_assert_eq!(&named, items, "slots of {}, session {}", id, ext);
        for &item in items {
            holders.entry(item).or_default().push(id);
        }
    }
    prop_assert_eq!(index.num_items(), holders.len(), "an item went unindexed");
    for (&item, holders) in &holders {
        let posting = index.postings(item).expect("every session item has a posting");
        let support = Some(holders.len() as u32);
        prop_assert_eq!(index.item_support(item), support, "support of {}", item);
        prop_assert_eq!(posting, &holders[..m_max.min(holders.len())], "posting of {}", item);
    }
    Ok(())
}

/// A log that stresses the build where the property logs above are too
/// small to reach: sessions across two `SEGMENT_SESSIONS` boundaries, sparse
/// external ids near `u64::MAX`, timestamps tied three ways, repeated items,
/// verbatim duplicate clicks, and an item in more than 500 sessions — all
/// in shuffled input order.
fn boundary_log() -> Vec<Click> {
    let sessions = 2 * SEGMENT_SESSIONS as u64 + 37;
    let mut log = Vec::new();
    for s in 0..sessions {
        let ext = u64::MAX - s.wrapping_mul(0x9E37_79B9) % (1 << 40);
        let ts = 1_000 + s / 3;
        log.push(Click::new(ext, s % 97, ts));
        log.push(Click::new(ext, 1_000 + s % 5, ts));
        if s % 3 == 0 {
            log.push(Click::new(ext, 7, ts)); // in every third session
        }
        if s % 4 == 0 {
            log.push(Click::new(ext, s % 97, ts)); // a verbatim duplicate
            log.push(Click::new(ext, s % 89, ts.saturating_sub(2)));
        }
    }
    let mut state = 17u64;
    for i in (1..log.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        log.swap(i, (state >> 33) as usize % (i + 1));
    }
    log
}

#[test]
fn every_cap_and_thread_count_builds_the_index_of_the_reference() {
    let log = boundary_log();
    for m_max in [1, 2, 500] {
        let reference = SessionIndex::build(&log, m_max).expect("non-empty log");
        assert_id_is_recency_key(&reference, &log, m_max).unwrap();
        for threads in [1, 2, 3, 8] {
            let built = build_parallel(&log, BuilderConfig { threads, m_max }).expect("non-empty");
            assert_id_is_recency_key(&built, &log, m_max)
                .unwrap_or_else(|e| panic!("m_max {m_max}, threads {threads}: {e}"));
            assert_eq!(artefact(&built), artefact(&reference), "m_max {m_max}, threads {threads}");
        }
    }
}

fn artefact(index: &SessionIndex) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_index(index, &mut bytes).expect("in-memory write");
    bytes
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let step = |hash: u64, &byte: &u8| (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01B3);
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, step)
}

#[test]
fn the_artefact_of_a_synthetic_day_is_pinned_at_every_thread_count() {
    // FNV-1a of `write_index` over the training part of `tiny` at seeds 1–3.
    // Pinned once for format version 4 (varints; the rows and the slot
    // table, no postings). The version-3 pins were re-pinned once when rows
    // became canonical (each session's items in ascending id, not in the
    // order of their first clicks), and the version-2 pins held what the
    // hash-grouping builders of earlier versions wrote.
    let pinned =
        [(1, 0xbcae_b63f_1a95_4515_u64), (2, 0x11f1_7830_f171_5bc9), (3, 0x64f8_6fb3_b562_3fba)];
    for (seed, expected) in pinned {
        let clicks = generate(&SyntheticConfig::tiny().with_seed(seed)).clicks;
        let train = split_last_days(&clicks, 1).train;
        for threads in [1, 2, 3, 8] {
            let config = BuilderConfig { threads, m_max: 500 };
            let index = build_parallel(&train, config).expect("non-empty");
            assert_eq!(fnv1a(&artefact(&index)), expected, "seed {seed}, threads {threads}");
        }
    }
}

#[test]
fn the_artefact_depends_on_the_content_not_the_slot_numbering() {
    // A live generation with a stranded slot (item 501 left with its only
    // session), an item that left with it and returned to its own slot
    // (500), and a new item whose id is below every other's (0): its slot
    // table is neither dense nor ascending, yet it writes the bytes of a
    // build of its log, which numbers slots by id.
    let mut inc = IncrementalIndexer::new(10).expect("valid capacity");
    let mut log: Vec<Click> = (0..40u64)
        .flat_map(|s| [Click::new(s, 1 + s % 20, 10 * s), Click::new(s, 1 + s * 7 % 20, 10 * s + 1)])
        .collect();
    inc.apply_batch(&log).expect("batch applies");
    let leaving = [Click::new(100, 500, 1_000), Click::new(100, 501, 1_001)];
    inc.apply_batch(&leaving).expect("applies");
    let first = inc.snapshot().expect("sessions remain").item_slot(500);
    assert!(inc.delete_session(100).expect("delete applies"));
    let returning = [Click::new(101, 500, 2_000), Click::new(101, 0, 2_001)];
    inc.apply_batch(&returning).expect("applies");
    log.extend_from_slice(&returning);
    let live = inc.snapshot().expect("sessions remain");
    let slot_items: Vec<ItemId> = live.slot_items().iter().collect();
    assert_eq!(live.dead_slots(), 1, "item 501's slot is stranded");
    assert_eq!(live.item_slot(500), first, "item 500 took its slot back");
    assert!(slot_items.windows(2).any(|w| w[0] > w[1]), "item 0 came last: {slot_items:?}");

    let built = SessionIndex::build(&log, 10).expect("non-empty log");
    assert_eq!(artefact(&live), artefact(&built));
}

#[test]
fn an_item_that_arrives_later_under_a_smaller_id_still_leads_a_score_tie() {
    // Sessions {1, 9} and, a publish later, {1, 5}: asked about item 1, items
    // 9 and 5 score the same bits (one session each, same similarity, same
    // support), and item 5 — the larger slot in the live index — must lead.
    let mut inc = IncrementalIndexer::new(10).expect("valid capacity");
    let log =
        [Click::new(1, 1, 10), Click::new(1, 9, 11), Click::new(2, 1, 20), Click::new(2, 5, 21)];
    inc.apply_batch(&log[..2]).expect("batch applies");
    inc.apply_batch(&log[2..]).expect("batch applies");
    let live = inc.snapshot().expect("two sessions");
    let built = SessionIndex::build(&log, 10).expect("two sessions");
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

/// Mutations of a live index, the first of them a batch in which item 1 is
/// in all twenty sessions: more than any `m_max` the properties draw, so
/// its posting is truncated.
fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        clicks_strategy().prop_map(Op::Anywhere),
        clicks_strategy().prop_map(Op::AtRecentEnd),
        (1u64..=20).prop_map(Op::Delete),
    ];
    let hot = (1..=20).map(|s| Click::new(s, 1, 3 * s)).collect();
    vec(op, 0..10).prop_map(move |ops| [vec![Op::Anywhere(Clone::clone(&hot))], ops].concat())
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
        let mut inc =
            IncrementalIndexer::with_retained_session_items_cap(m_max, cap).expect("valid caps");
        // The model of the retained log: every click fed, pruned after every
        // call to the sessions the indexer still holds.
        let mut log: Vec<Click> = Vec::new();
        let (mut newest, mut truncated) = (0, false);
        for op in ops {
            match op {
                Op::Anywhere(batch) => {
                    inc.apply_batch(&batch).expect("batch applies");
                    log.extend(batch);
                }
                Op::AtRecentEnd(mut batch) => {
                    batch.iter_mut().for_each(|c| c.timestamp += newest);
                    inc.apply_batch(&batch).expect("batch applies");
                    log.extend(batch);
                }
                Op::Delete(ext) => {
                    inc.delete_session(ext).expect("delete applies");
                }
            }
            let held: FxHashSet<u64> = inc.session_ids().iter().copied().collect();
            log.retain(|c| held.contains(&c.session_id));
            newest = log.iter().map(|c| c.timestamp).max().unwrap_or(newest);
            let Ok(generation) = inc.snapshot() else { continue };
            assert_id_is_recency_key(&generation, &log, m_max)?;
            // An artefact holds no postings, so its load derives them: they
            // must be the generation's own, truncated ones too.
            let loaded = read_index(&artefact(&generation)).expect("own artefact");
            prop_assert_eq!(loaded.num_items(), generation.num_items());
            for (item, posting) in generation.postings_iter() {
                prop_assert_eq!(loaded.postings(item), Some(generation.entries(posting)));
                prop_assert_eq!(loaded.item_support(item), Some(posting.support));
                truncated |= posting.support as usize > m_max;
            }
            // However the generation came to number its slots, the kernel
            // over it answers as the kernel over a build of the same log.
            let built = SessionIndex::build(&log, m_max).expect("non-empty log");
            let config = VmisConfig { m: m_max, k: 3, how_many: 4, ..VmisConfig::default() };
            let live = VmisKnn::new(generation, config.clone()).expect("valid config");
            let built = VmisKnn::new(built, config).expect("valid config");
            for item in 1..=12 {
                prop_assert_eq!(live.recommend(&[item, 1]), built.recommend(&[item, 1]));
            }
            // The external id behind each dense id.
            let expected: Vec<u64> = ranked(&log).iter().map(|s| s.1).collect();
            prop_assert_eq!(inc.session_ids(), &expected[..]);
        }
        prop_assert!(truncated, "no posting was truncated to m_max {}", m_max);
    }
}
