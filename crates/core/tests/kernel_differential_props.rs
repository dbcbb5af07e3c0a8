//! Randomized differential testing of the scoring-kernel hot path.
//!
//! The cache-conscious kernel layout — id-only postings whose id is the
//! recency key (`serenade-index`'s `id_is_recency_key` suite holds every
//! index producer to that), found through a table of 4-byte slots, the one
//! join that sorts the window's posting entries by id and cuts at `m`
//! distinct sessions, the in-place top-k selection, the 4-byte slot stream
//! and the dense 4-byte score accumulator, cleared from the previous
//! request's touched list — is an *internal* rearrangement: its correctness
//! contract is bit-identical output to the straightforward formulation.
//! This suite samples that contract over random click logs and configs,
//! leaning on the shapes that stress the layout specifically: timestamp
//! ties (where only the id tells two sessions apart), `m` at or near the
//! posting length (the cut), truncated postings (`m_max` below an item's
//! support), windows with repeated items, and scratch buffers reused across
//! recommenders. The strategies take the bounded path: some cases match
//! more than `m` sessions and keep exactly `m`
//! (`the_strategies_reach_the_bounded_path`).

use std::collections::HashSet;
use std::sync::Arc;

use serenade_core::index::{Column, Posting, Records, Segment, SlotTable};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serenade_core::{Click, ItemId, SessionIndex, VmisConfig, VmisKnn};

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

/// Random-but-valid configs spanning the knobs the kernel layout touches.
/// `m` stays small so it regularly lands exactly on a posting length — the
/// boundary of the cut.
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

/// `index` with every accumulator slot renumbered: reversed, so that slot
/// order is the opposite of item order, then rotated by `shift`.
fn with_slots_renumbered(index: &SessionIndex, shift: usize) -> SessionIndex {
    let n = index.slot_items().len();
    let renumbered = |slot: u32| ((n - 1 - slot as usize + shift) % n) as u32;
    let mut slot_items: Vec<ItemId> = vec![0; n];
    for (slot, item) in index.slot_items().iter().enumerate() {
        slot_items[renumbered(slot as u32) as usize] = item;
    }
    let records: Vec<(u32, Posting)> = (index.records().iter().enumerate())
        .map(|(slot, posting)| (renumbered(slot as u32), posting))
        .collect();
    let segments: Vec<Arc<Segment>> = index
        .segments()
        .iter()
        .map(|segment| {
            let rows = 0..segment.len();
            let offsets = std::iter::once(0).chain(rows.clone().scan(0, |end, row| {
                *end += segment.slots(row).len() as u32;
                Some(*end)
            }));
            let slots: Vec<u32> =
                rows.flat_map(|row| segment.slots(row).iter()).map(renumbered).collect();
            Arc::new(Segment::new(segment.timestamps(), &offsets.collect::<Vec<_>>(), &slots))
        })
        .collect();
    let (arenas, segments) = (index.arenas().into(), segments.into());
    let slot_items = Column::new(slot_items);
    let slot_table = SlotTable::new(&slot_items);
    let records = Records::default().patched(0, n, &records);
    let (records, slot_items) = (Arc::new(records), Arc::new(slot_items));
    SessionIndex::from_generation(records, slot_table, arenas, segments, slot_items, index.m_max())
}

fn bits(recs: Vec<serenade_core::ItemScore>) -> Vec<(ItemId, u32)> {
    recs.into_iter().map(|r| (r.item, r.score.to_bits())).collect()
}

#[test]
fn a_smaller_item_id_in_a_larger_slot_still_leads_a_score_tie() {
    // Sessions {1, 9} and {1, 5}: asked about item 1, items 9 and 5 score
    // the same bits. Built, item 5 has the smaller slot; renumbered, the
    // larger — as in a live index that met item 9 first.
    let clicks = [Click::new(1, 1, 10), Click::new(1, 9, 11), Click::new(2, 1, 20), Click::new(2, 5, 21)];
    let built = SessionIndex::build(&clicks, 10).expect("non-empty log");
    let renumbered = with_slots_renumbered(&built, 0);
    assert!(built.item_slot(5) < built.item_slot(9));
    assert!(renumbered.item_slot(5) > renumbered.item_slot(9));
    // `how_many` 1 decides the tie while selecting, 21 while sorting.
    for how_many in [1, 21] {
        let config = VmisConfig { m: 10, how_many, ..VmisConfig::default() };
        let expected = bits(VmisKnn::new(built.clone(), config.clone()).expect("valid").recommend(&[1]));
        let answer = bits(VmisKnn::new(renumbered.clone(), config).expect("valid").recommend(&[1]));
        assert_eq!(answer, expected, "how_many {how_many}");
        assert_eq!(expected[0].0, 5);
        if let [five, nine] = expected[..] {
            assert_eq!((nine.0, nine.1), (9, five.1), "a tie on the score bits");
        }
    }
}

#[test]
fn a_tie_that_straddles_the_cut_is_cut_by_item_id() {
    // One session lists item 1 and six others: asked about item 1, the six
    // tie, and a list of `how_many` of them is the `how_many` smallest ids
    // in order — whichever slots they hold. Items 1 and 40 are in a second
    // session too: twice the weight at well under half the idf, so they
    // come last, tied with each other.
    let mut clicks: Vec<Click> =
        [1, 35, 31, 36, 32, 34, 33, 40].iter().map(|&item| Click::new(1, item, 10 + item)).collect();
    clicks.extend([Click::new(2, 1, 100), Click::new(2, 40, 101), Click::new(3, 50, 200)]);
    let built = SessionIndex::build(&clicks, 10).expect("non-empty log");
    for shift in 0..4 {
        let renumbered = with_slots_renumbered(&built, shift);
        for how_many in 1..=8 {
            let config = VmisConfig { m: 10, how_many, ..VmisConfig::default() };
            let answer = bits(VmisKnn::new(renumbered.clone(), config.clone()).expect("valid").recommend(&[1]));
            let expected = bits(VmisKnn::new(built.clone(), config).expect("valid").recommend(&[1]));
            assert_eq!(answer, expected, "how_many {how_many}, shift {shift}");
            let items: Vec<ItemId> = expected.iter().map(|r| r.0).collect();
            assert_eq!(items, [31, 32, 33, 34, 35, 36, 1, 40][..how_many]);
        }
    }
}

#[test]
fn the_strategies_reach_the_bounded_path() {
    // 64 cases of the strategies the properties below draw from: some must
    // match more than `m` sessions — Σ|postings| > m — and keep exactly the
    // `m` most recent, or the suite proves the light path only.
    let cases = (clicks_strategy(50), config_strategy(), vec(1u64..=14, 1..6));
    let mut rng = TestRng::from_name("the_strategies_reach_the_bounded_path");
    let mut cut = 0;
    for _ in 0..64 {
        let (clicks, config, session) = cases.generate(&mut rng);
        let index = SessionIndex::build(&clicks, config.m.max(4)).expect("non-empty log");
        let vmis = VmisKnn::new(index, config).expect("valid config");
        let m = vmis.config().m;
        let window = &session[session.len().saturating_sub(vmis.config().max_session_len)..];
        let matched: HashSet<u32> =
            window.iter().filter_map(|&item| vmis.index().postings(item)).flatten().copied().collect();
        let mut scratch = vmis.scratch();
        vmis.recommend_with_scratch(&session, &mut scratch);
        let work = scratch.work();
        if matched.len() > m {
            assert!(work.postings_walked as usize > m);
            assert_eq!(work.candidates as usize, m, "{} sessions matched", matched.len());
            cut += 1;
        }
    }
    assert!(cut > 0, "no case was cut at m");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    // Slot numbering is not part of what an index is: the kernel over an
    // index whose slots run against item order answers byte for byte as the
    // kernel over the built one — ties on the score bits (frequent over
    // twelve items) included, with and without the window's own items.
    #[test]
    fn any_slot_numbering_answers_identically(
        clicks in clicks_strategy(30),
        config in config_strategy(),
        shift in 0usize..12,
        sessions in vec(vec(1u64..=14, 0..6), 1..8),
    ) {
        let built = SessionIndex::build(&clicks, config.m.max(4)).expect("non-empty log");
        let renumbered = with_slots_renumbered(&built, shift);
        let expected = VmisKnn::new(built, config.clone()).expect("valid config");
        let vmis = VmisKnn::new(renumbered, config).expect("valid config");
        let mut scratch = vmis.scratch();
        for session in &sessions {
            prop_assert_eq!(
                bits(vmis.recommend_with_scratch(session, &mut scratch)),
                bits(expected.recommend(session)),
                "session {:?}", session
            );
        }
    }

    // The depersonalised entry point is bit-identical to the session path
    // fed a one-item window — for known and unknown items, across scratch
    // reuse.
    #[test]
    fn depersonalised_path_matches_generic_single_item_window(
        clicks in clicks_strategy(300),
        config in config_strategy(),
        probes in vec(0u64..=15, 1..12),
    ) {
        let index = SessionIndex::build(&clicks, config.m.max(4)).expect("non-empty log");
        let vmis = VmisKnn::new(index, config).expect("valid config");
        let mut fast = vmis.scratch();
        let mut generic = vmis.scratch();
        for &item in &probes {
            prop_assert_eq!(
                vmis.recommend_depersonalised(item, &mut fast),
                vmis.recommend_with_scratch(&[item], &mut generic),
                "item {} diverged", item
            );
        }
    }

    // Heavy timestamp ties: with only four distinct timestamps the
    // composite `(timestamp, session)` order is decided almost entirely by
    // the session-id tie-break, so a kernel that ordered by anything but
    // the id shows up here first.
    #[test]
    fn timestamp_ties_keep_all_paths_identical(
        clicks in clicks_strategy(3),
        config in config_strategy(),
        session in vec(1u64..=14, 0..6),
    ) {
        let index = SessionIndex::build(&clicks, config.m.max(4)).expect("non-empty log");
        let vmis = VmisKnn::new(index, config).expect("valid config");
        let mut scratch = vmis.scratch();
        let reference = vmis.recommend(&session);
        prop_assert_eq!(vmis.recommend_with_scratch(&session, &mut scratch), reference.clone());
        if let [item] = session[..] {
            prop_assert_eq!(vmis.recommend_depersonalised(item, &mut scratch), reference);
        }
    }

    // (a) The match position a candidate records when it is admitted is the
    // position of the most recent item it shares with the window — also
    // when `m` is far below `m_max`, postings are truncated below an item's
    // support, the window repeats items and timestamps tie four ways.
    #[test]
    fn admission_position_is_the_most_recent_shared_item(
        clicks in clicks_strategy(300),
        ties in any::<bool>(),
        m in 1usize..8,
        m_max_extra in 1usize..4,
        session in vec(1u64..=14, 1..10),
    ) {
        let clicks: Vec<Click> = clicks
            .into_iter()
            .map(|c| Click::new(c.session_id, c.item_id, if ties { c.timestamp % 4 } else { c.timestamp }))
            .collect();
        let index = SessionIndex::build(&clicks, m + m_max_extra).expect("non-empty log");
        // k ≥ m: every surviving candidate is reported as a neighbour.
        let config = VmisConfig { m, k: 8, ..VmisConfig::default() };
        let vmis = VmisKnn::new(index, config).expect("valid config");
        let window = &session[session.len().saturating_sub(vmis.config().max_session_len)..];
        let mut scratch = vmis.scratch();
        for n in vmis.neighbors_with_scratch(&session, &mut scratch) {
            let items = vmis.index().session_items(n.session);
            let recomputed = window.iter().rposition(|it| items.contains(it)).map(|i| i + 1);
            prop_assert_eq!(Some(n.match_pos), recomputed, "session {}", n.session);
        }
    }

    // (b) One scratch serving two recommenders in turn — different index
    // sizes, the second with a larger `m` — answers like a fresh scratch.
    // This is what a worker's context sees across `swap_index` and
    // mini-publishes.
    #[test]
    fn scratch_reused_across_recommenders_matches_fresh(
        small in clicks_strategy(300),
        large in clicks_strategy(300),
        config in config_strategy(),
        m_extra in 1usize..20,
        sessions in vec(vec(1u64..=14, 0..6), 1..8),
    ) {
        let bigger = VmisConfig { m: config.m + m_extra, ..config.clone() };
        let small_len = small.len() / 3 + 1;
        let a = VmisKnn::new(
            SessionIndex::build(&small[..small_len], config.m.max(4)).expect("non-empty log"),
            config,
        ).expect("valid config");
        let b = VmisKnn::new(
            SessionIndex::build(&large, bigger.m).expect("non-empty log"),
            bigger,
        ).expect("valid config");
        let mut shared = a.scratch();
        for session in &sessions {
            for vmis in [&a, &b] {
                prop_assert_eq!(
                    vmis.recommend_with_scratch(session, &mut shared),
                    vmis.recommend(session)
                );
            }
        }
    }
}
