//! Randomized differential testing of the scoring-kernel hot path.
//!
//! The cache-conscious kernel layout — id-only postings whose id is the
//! recency key (`serenade-index`'s `id_is_recency_key` suite holds every
//! index producer to that), the bounded candidate table that records each
//! candidate's match position at admission, the 4-byte slot stream and
//! the dense epoch-stamped score accumulator — is an *internal*
//! rearrangement: its correctness contract is bit-identical output to the
//! straightforward formulation. This suite samples that contract over
//! random click logs and configs, leaning on the shapes that stress the
//! layout specifically: timestamp ties (where only the id tells two
//! sessions apart), `m` at or near the posting length (the early-stop and
//! eviction boundary), truncated postings (`m_max` below an item's
//! support), windows with repeated items, and scratch buffers reused across
//! recommenders and across an epoch wrap-around.

use std::collections::HashMap;
use std::sync::Arc;

use serenade_core::candidates::{Candidate, CandidateTable};
use serenade_core::index::{Posting, Segment};
use proptest::collection::vec;
use proptest::prelude::*;
use serenade_core::{Click, ItemId, Scratch, SessionIndex, VmisConfig, VmisKnn};

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
/// early-stop/heap-eviction boundary.
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

/// `index` with every accumulator slot renumbered: reversed, so that slot
/// order is the opposite of item order, then rotated by `shift`.
fn with_slots_renumbered(index: &SessionIndex, shift: usize) -> SessionIndex {
    let n = index.slot_items().len();
    let renumbered = |slot: u32| ((n - 1 - slot as usize + shift) % n) as u32;
    let mut slot_items: Vec<ItemId> = vec![0; n];
    for (slot, &item) in index.slot_items().iter().enumerate() {
        slot_items[renumbered(slot as u32) as usize] = item;
    }
    let postings = index
        .postings_iter()
        .map(|(item, p)| (item, Posting { slot: renumbered(p.slot), ..p }))
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
            Arc::new(Segment::new(
                rows.clone().map(|row| segment.timestamp(row)).collect(),
                offsets.collect(),
                rows.flat_map(|row| segment.slots(row)).map(|&slot| renumbered(slot)).collect(),
            ))
        })
        .collect();
    let (arenas, segments) = (index.arenas().into(), segments.into());
    SessionIndex::from_generation(postings, arenas, segments, slot_items.into(), index.m_max())
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
        let refs: Vec<&[ItemId]> = sessions.iter().map(Vec::as_slice).collect();
        let batch = vmis.recommend_batch(&refs, &mut vmis.batch_scratch());
        for (session, answer) in sessions.iter().zip(batch) {
            prop_assert_eq!(bits(answer), bits(expected.recommend(session)));
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

    // Early stopping is a pure optimisation at every `m`-vs-posting-length
    // boundary, through both entry points.
    #[test]
    fn early_stop_boundary_is_output_invariant(
        clicks in clicks_strategy(50),
        config in config_strategy(),
        session in vec(1u64..=14, 1..6),
    ) {
        let index = std::sync::Arc::new(
            SessionIndex::build(&clicks, config.m.max(4)).expect("non-empty log"),
        );
        let mut on = config.clone();
        on.early_stopping = true;
        let mut off = config;
        off.early_stopping = false;
        let vmis_on = VmisKnn::new(std::sync::Arc::clone(&index), on).expect("valid config");
        let vmis_off = VmisKnn::new(index, off).expect("valid config");
        prop_assert_eq!(vmis_on.recommend(&session), vmis_off.recommend(&session));
        let mut s_on = vmis_on.scratch();
        let mut s_off = vmis_off.scratch();
        prop_assert_eq!(
            vmis_on.recommend_depersonalised(session[0], &mut s_on),
            vmis_off.recommend_depersonalised(session[0], &mut s_off)
        );
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
        early_stopping in any::<bool>(),
        session in vec(1u64..=14, 1..10),
    ) {
        let clicks: Vec<Click> = clicks
            .into_iter()
            .map(|c| Click::new(c.session_id, c.item_id, if ties { c.timestamp % 4 } else { c.timestamp }))
            .collect();
        let index = SessionIndex::build(&clicks, m + m_max_extra).expect("non-empty log");
        // k ≥ m: every surviving candidate is reported as a neighbour.
        let config = VmisConfig { m, k: 8, early_stopping, ..VmisConfig::default() };
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

    // (c) The epoch counters of the candidate table and of the accumulator
    // wrap around without a stale cell ever being read as live.
    #[test]
    fn epoch_wrap_around_matches_fresh(
        clicks in clicks_strategy(300),
        config in config_strategy(),
        sessions in vec(vec(1u64..=14, 1..6), 4..8),
    ) {
        let index = SessionIndex::build(&clicks, config.m.max(4)).expect("non-empty log");
        let vmis = VmisKnn::new(index, config).expect("valid config");
        let mut scratch: Scratch = vmis.scratch();
        // Fill cells under an ordinary epoch first, then jump to the brink.
        vmis.recommend_with_scratch(&sessions[0], &mut scratch);
        scratch.set_epoch(u32::MAX - 1);
        for session in &sessions {
            prop_assert_eq!(
                vmis.recommend_with_scratch(session, &mut scratch),
                vmis.recommend(session)
            );
        }
    }

    // (d) The candidate table against a `HashMap` model: lookups, additions
    // to an existing candidate, admissions up to `m` of its `2·m` slots,
    // evictions at `m` (backward-shift deletion under wrap-around probe
    // runs) and resets, with every key re-probed after every step.
    #[test]
    fn candidate_table_matches_hashmap_model(
        m in 1usize..12,
        ops in vec((0u32..40, any::<bool>()), 1..200),
    ) {
        let mut table = CandidateTable::with_capacity(m);
        let mut model: HashMap<u32, Candidate> = HashMap::new();
        for (step, &(session, reset)) in ops.iter().enumerate() {
            if reset && step % 16 == 15 {
                table.reset(m);
                model.clear();
            }
            // `match_pos` doubles as the admission step the model evicts by.
            let fresh = Candidate { session, similarity: 1.0, match_pos: step as u32 };
            match table.find(session) {
                Ok(idx) => {
                    table.get_mut(idx).similarity += 0.5;
                    model.get_mut(&session).expect("model has it too").similarity += 0.5;
                }
                Err(vacant) if model.len() < m => {
                    table.insert_at(vacant, fresh);
                    model.insert(session, fresh);
                }
                Err(_) => {
                    // Evict the oldest admission, as the kernel's `b_t` would.
                    let evict = *model.iter().min_by_key(|(_, c)| c.match_pos).expect("full").0;
                    table.replace(evict, fresh);
                    model.remove(&evict);
                    model.insert(session, fresh);
                }
            }
            prop_assert_eq!(table.len(), model.len());
            for probe in 0..40 {
                let found = table.find(probe).ok().map(|idx| table.as_slice()[idx]);
                prop_assert_eq!(found, model.get(&probe).copied(), "session {}", probe);
            }
        }
    }
}
