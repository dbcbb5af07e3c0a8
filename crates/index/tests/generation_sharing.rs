//! Generations of the incrementally maintained index share arrays, so two
//! things have to hold that a rebuild-and-copy design got for free.
//!
//! **Aliasing safety:** a reader holding generation N keeps seeing exactly
//! the index of the log as it was at N, whatever is merged afterwards —
//! appends, reappearing sessions, out-of-order batches, deletes, retention
//! drops — while generation N+k is the index of the current retained log.
//!
//! **Sharing:** a batch at the recent end of the rank order leaves every
//! posting it did not touch or renumber, and every segment of sessions
//! wholly below the first rank it changed, pointer-equal to the previous
//! generation's — wherever that rank falls in its segment — and a batch at
//! rank 0, which can share nothing, still produces the right index.

use std::sync::Arc;

use serenade_core::index::SEGMENT_SESSIONS;
use serenade_core::{Click, FxHashSet, ItemId, SessionId, SessionIndex};
use serenade_index::{IncrementalIndexer, TouchedItems};

/// Deterministic pseudo-random stream (splitmix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % bound
    }
}

fn assert_same(a: &SessionIndex, b: &SessionIndex, what: &str) {
    assert_eq!(a.stats(), b.stats(), "{what}: stats");
    for sid in 0..a.num_sessions() as SessionId {
        assert_eq!(
            a.session_timestamp(sid),
            b.session_timestamp(sid),
            "{what}: t[{sid}]"
        );
        assert_eq!(
            a.session_items(sid),
            b.session_items(sid),
            "{what}: items of {sid}"
        );
    }
    for item in a.items() {
        assert_eq!(
            a.postings(item),
            b.postings(item),
            "{what}: posting of {item}"
        );
        assert_eq!(
            a.item_support(item),
            b.item_support(item),
            "{what}: support of {item}"
        );
    }
}

/// Postings of `next` that are the very same allocation as in `prev`.
fn shared_postings(prev: &SessionIndex, next: &SessionIndex) -> usize {
    let prev = prev.posting_table();
    next.postings_iter()
        .filter(|(item, p)| {
            prev.get(item)
                .is_some_and(|q| Arc::ptr_eq(&p.entries, &q.entries))
        })
        .count()
}

/// How many segments `next` took over from `prev` by pointer. They are the
/// first ones: once a rank has changed, every later segment is written anew.
fn shared_segments(prev: &SessionIndex, next: &SessionIndex) -> usize {
    let same = |(p, n): &(&Arc<_>, &Arc<_>)| Arc::ptr_eq(p, n);
    let pairs = || prev.segments().iter().zip(next.segments());
    let shared = pairs().take_while(same).count();
    assert_eq!(pairs().filter(same).count(), shared, "a shared segment above a written one");
    shared
}

#[test]
fn a_held_generation_never_changes_under_later_merges() {
    const M_MAX: usize = 4; // small: hot postings truncate, deletes refill them
    let mut rng = Rng(7);
    let mut inc = IncrementalIndexer::with_retained_clicks_cap(M_MAX, 300).unwrap();
    // (generation, the retained log it is the index of)
    let mut held: Vec<(SessionIndex, Vec<Click>)> = Vec::new();
    let mut next_session = 1u64;
    let mut now = 10_000u64;
    for step in 0..240 {
        match rng.next(10) {
            // New sessions at the recent end.
            0..=3 => {
                let mut batch = Vec::new();
                for _ in 0..1 + rng.next(3) {
                    for _ in 0..1 + rng.next(4) {
                        now += rng.next(3);
                        batch.push(Click::new(next_session, rng.next(25), now));
                    }
                    next_session += 1;
                }
                inc.apply_batch(&batch).unwrap();
            }
            // Indexed sessions reappear, some with clicks older than their own.
            4..=5 => {
                let batch: Vec<Click> = (0..1 + rng.next(4))
                    .map(|_| {
                        Click::new(
                            1 + rng.next(next_session),
                            rng.next(25),
                            now - rng.next(400),
                        )
                    })
                    .collect();
                inc.apply_batch(&batch).unwrap();
            }
            // An out-of-order batch: new sessions far below the newest.
            6..=7 => {
                let batch: Vec<Click> = (0..2 + rng.next(4))
                    .map(|i| Click::new(next_session + i % 2, rng.next(25), rng.next(now)))
                    .collect();
                next_session += 2;
                inc.apply_batch(&batch).unwrap();
            }
            // A delete, of a live session more often than not.
            _ => {
                inc.delete_session(1 + rng.next(next_session)).unwrap();
            }
        }
        if let Ok(generation) = inc.snapshot() {
            let reference = SessionIndex::build(&inc.retained_log(), M_MAX).unwrap();
            assert_same(
                &generation,
                &reference,
                &format!("step {step}, current generation"),
            );
            if step % 6 == 0 {
                held.push((generation, inc.retained_log()));
            }
        }
    }
    assert!(
        inc.compaction_count() > 0 && inc.deletion_count() > 0,
        "every kind of merge ran"
    );
    assert!(held.len() > 30);
    for (n, (generation, log)) in held.iter().enumerate() {
        let reference = SessionIndex::build(log, M_MAX).unwrap();
        assert_same(generation, &reference, &format!("held generation {n}"));
    }
}

/// 60k sessions of three clicks over 20k items, timestamps ascending.
fn large_log() -> Vec<Click> {
    let mut rng = Rng(11);
    let mut clicks = Vec::new();
    for session in 0..60_000u64 {
        for step in 0..3 {
            clicks.push(Click::new(
                session,
                rng.next(20_000),
                1_000 + session * 10 + step,
            ));
        }
    }
    clicks
}

fn touched(inc: &mut IncrementalIndexer) -> FxHashSet<ItemId> {
    match inc.drain_touched() {
        TouchedItems::Items(set) => set,
        TouchedItems::All => panic!("a merge reports a precise set"),
    }
}

#[test]
fn recent_end_batches_share_and_a_rank_zero_batch_still_indexes_right() {
    const M_MAX: usize = 50;
    let mut log = large_log();
    let mut inc = IncrementalIndexer::new(M_MAX).unwrap();
    inc.apply_batch(&log).unwrap();
    let (_, _) = (touched(&mut inc), inc.take_sharing());
    let g0 = inc.snapshot().unwrap();
    assert!(g0.num_sessions() >= 50_000);

    // Ten clicks in five sessions newer than everything: nothing is
    // renumbered, so all but the touched postings are handed on.
    let newest = 1_000 + 60_000 * 10;
    let batch: Vec<Click> = (0..10u64)
        .map(|i| Click::new(70_000 + i / 2, 100 + i * 7, newest + i))
        .collect();
    inc.apply_batch(&batch).unwrap();
    log.extend_from_slice(&batch);
    let g1 = inc.snapshot().unwrap();
    let touched_1 = touched(&mut inc);
    assert_eq!(touched_1.len(), 10);
    let shared = shared_postings(&g0, &g1);
    assert!(
        shared >= g1.num_items() - touched_1.len(),
        "{shared} of {} shared",
        g1.num_items()
    );
    let sharing = inc.take_sharing();
    assert_eq!(sharing.postings_shared as usize, shared);
    assert_eq!(sharing.postings_copied as usize, g1.num_items() - shared);
    assert_eq!(
        (sharing.ranks_unchanged, sharing.ranks_total),
        (60_000, 60_000)
    );
    // Every segment but the one the new sessions land in is handed on.
    let full = 60_000 / SEGMENT_SESSIONS;
    assert_eq!(shared_segments(&g0, &g1), full);
    assert_eq!(
        (sharing.segments_shared, sharing.segments_copied),
        (full as u64, 1)
    );
    assert_same(
        &g1,
        &SessionIndex::build(&log, M_MAX).unwrap(),
        "recent-end batch",
    );

    // A session 100 ranks below the top reappears: every session above its
    // old rank is renumbered, and only the items of those sessions (and the
    // touched ones) may be written anew.
    let cut = g1.num_sessions() - 100;
    let reappearing = [Click::new(60_000 - 95, 4_242, newest + 50)];
    let renumbered: FxHashSet<ItemId> = (cut..g1.num_sessions())
        .flat_map(|rank| g1.session_items(rank as SessionId).to_vec())
        .collect();
    inc.apply_batch(&reappearing).unwrap();
    log.extend_from_slice(&reappearing);
    let g2 = inc.snapshot().unwrap();
    let touched_2 = touched(&mut inc);
    let shared = shared_postings(&g1, &g2);
    assert!(
        shared >= g2.num_items() - touched_2.len() - renumbered.len(),
        "{shared} of {} shared, {} touched, {} renumbered",
        g2.num_items(),
        touched_2.len(),
        renumbered.len()
    );
    assert!(renumbered.len() < 400 && shared > g2.num_items() - 400);
    let sharing = inc.take_sharing();
    assert!(
        sharing.ranks_unchanged >= cut as u64 - 5 && sharing.ranks_unchanged < sharing.ranks_total
    );
    assert_eq!(shared_segments(&g1, &g2), cut / SEGMENT_SESSIONS);
    assert_same(
        &g2,
        &SessionIndex::build(&log, M_MAX).unwrap(),
        "reappearing session",
    );

    // A backfill below every indexed session: rank 0 changes, nothing can be
    // shared, and the result is still the index of the log. The generations
    // held above are untouched by it.
    let backfill = [Click::new(90_000, 5, 1), Click::new(90_000, 6, 2)];
    inc.apply_batch(&backfill).unwrap();
    let g3 = inc.snapshot().unwrap();
    assert_eq!(shared_postings(&g2, &g3), 0);
    assert_eq!(shared_segments(&g2, &g3), 0);
    let sharing = inc.take_sharing();
    assert_eq!((sharing.ranks_unchanged, sharing.segments_shared), (0, 0));
    log.extend_from_slice(&backfill);
    assert_same(
        &g3,
        &SessionIndex::build(&log, M_MAX).unwrap(),
        "rank-0 batch",
    );
    log.truncate(log.len() - backfill.len());
    assert_same(
        &g2,
        &SessionIndex::build(&log, M_MAX).unwrap(),
        "g2 after the backfill",
    );
}

/// `sessions` sessions of two clicks over 500 items, one a time unit;
/// session `s` is rank `s`.
fn two_click_log(sessions: u64) -> Vec<Click> {
    (0..sessions)
        .flat_map(|s| {
            [
                Click::new(s, s % 500, 1_000 + s),
                Click::new(s, (s * 7 + 3) % 500, 1_000 + s),
            ]
        })
        .collect()
}

#[test]
fn segments_below_the_first_changed_rank_are_shared_wherever_it_falls() {
    const M_MAX: usize = 20;
    const SEG: u64 = SEGMENT_SESSIONS as u64;
    let check = |inc: &IncrementalIndexer, what: &str| {
        let generation = inc.snapshot().unwrap();
        let reference = SessionIndex::build(&inc.retained_log(), M_MAX).unwrap();
        assert_same(&generation, &reference, what);
        generation
    };
    // Three segments, all full: the first changed rank of an append is 3·SEG,
    // exactly a segment edge, so nothing is written over again.
    let mut inc = IncrementalIndexer::new(M_MAX).unwrap();
    inc.apply_batch(&two_click_log(3 * SEG)).unwrap();
    let g0 = check(&inc, "seed");
    assert_eq!(g0.segments().len(), 3);
    inc.take_sharing();
    inc.apply_batch(&[Click::new(3 * SEG, 7, 1_000 + 3 * SEG)])
        .unwrap();
    let g1 = check(&inc, "append on a segment edge");
    assert_eq!((shared_segments(&g0, &g1), g1.segments().len()), (3, 4));
    let sharing = inc.take_sharing();
    assert_eq!((sharing.segments_shared, sharing.segments_copied), (3, 1));

    // A delete in the middle: rank SEG + 10 goes, every later session moves
    // down one rank, the first segment is untouched.
    assert!(inc.delete_session(SEG + 10).unwrap());
    let g2 = check(&inc, "delete in the second segment");
    assert_eq!((shared_segments(&g1, &g2), g2.segments().len()), (1, 3));
    assert_eq!(g2.session_items((2 * SEG) as SessionId), g1.session_items((2 * SEG + 1) as SessionId));
    let sharing = inc.take_sharing();
    assert_eq!(sharing.ranks_unchanged, SEG + 10);
    assert_eq!((sharing.segments_shared, sharing.segments_copied), (1, 2));

    // A delete of the first session of a segment: that segment is the first
    // one written.
    assert!(inc.delete_session(2 * SEG + 1).unwrap()); // rank 2·SEG since the delete above
    let g3 = check(&inc, "delete on a segment edge");
    assert_eq!(shared_segments(&g2, &g3), 2);
    assert_eq!(inc.take_sharing().ranks_unchanged, 2 * SEG);

    // The first changed rank is 0: nothing is shared.
    inc.apply_batch(&[Click::new(9 * SEG, 7, 1)]).unwrap();
    let g4 = check(&inc, "backfill below everything");
    assert_eq!(shared_segments(&g3, &g4), 0);
    let sharing = inc.take_sharing();
    assert_eq!((sharing.ranks_unchanged, sharing.segments_shared, sharing.segments_copied), (0, 0, 3));
    // The generations held along the way are what they were.
    assert_eq!(g1.num_sessions() as u64, 3 * SEG + 1);
    assert_eq!(g1.session_timestamp((SEG + 10) as SessionId), 1_000 + SEG + 10);
    assert_eq!(g2.session_timestamp((SEG + 10) as SessionId), 1_000 + SEG + 11);
}

#[test]
fn retention_eating_into_the_oldest_segment_rewrites_every_segment() {
    const M_MAX: usize = 20;
    const SEG: u64 = SEGMENT_SESSIONS as u64;
    // Room for two and a half segments of two-click sessions.
    let mut inc = IncrementalIndexer::with_retained_clicks_cap(M_MAX, 5 * SEGMENT_SESSIONS).unwrap();
    inc.apply_batch(&two_click_log(2 * SEG + SEG / 2)).unwrap();
    let g0 = inc.snapshot().unwrap();
    assert_eq!((inc.compaction_count(), g0.segments().len()), (0, 3));
    inc.take_sharing();
    // Ten more sessions push the ten oldest out: the first merge appends and
    // shares two segments, the retention merge starts at rank 0 and shares
    // none — the oldest segment loses a part, every session a rank.
    let more: Vec<Click> = two_click_log(2 * SEG + SEG / 2 + 10).split_off(g0.stats().session_item_entries);
    inc.apply_batch(&more).unwrap();
    let g1 = inc.snapshot().unwrap();
    assert_eq!(inc.compaction_count(), 1);
    assert_eq!(g1.num_sessions(), g0.num_sessions());
    assert_eq!(shared_segments(&g0, &g1), 0);
    assert_eq!(g1.session_items(0), g0.session_items(10));
    let sharing = inc.take_sharing();
    assert_eq!((sharing.segments_shared, sharing.segments_copied), (2, 1 + 3));
    assert_eq!(sharing.ranks_unchanged, g0.num_sessions() as u64);
    let reference = SessionIndex::build(&inc.retained_log(), M_MAX).unwrap();
    assert_same(&g1, &reference, "after retention");
    assert_same(&g0, &SessionIndex::build(&two_click_log(2 * SEG + SEG / 2), M_MAX).unwrap(), "held");
}

/// Every slot a segment of `next` shared with `prev` holds names the same
/// item in both generations: the slots are the only record of a session's
/// items, so a shared segment reads the same items through either table.
fn assert_shared_slots_stable(prev: &SessionIndex, next: &SessionIndex) {
    for segment in &next.segments()[..shared_segments(prev, next)] {
        for slot in (0..segment.len()).flat_map(|row| segment.slots(row)) {
            let slot = *slot as usize;
            assert_eq!(prev.slot_items()[slot], next.slot_items()[slot], "slot {slot}");
        }
    }
}

#[test]
fn an_item_that_leaves_and_returns_takes_a_fresh_slot() {
    const M_MAX: usize = 20;
    const SEG: u64 = SEGMENT_SESSIONS as u64;
    const ITEM: ItemId = 9_999;
    let check = |inc: &IncrementalIndexer, what: &str| {
        let generation = inc.snapshot().unwrap();
        let log = inc.retained_log();
        assert_same(&generation, &SessionIndex::build(&log, M_MAX).unwrap(), what);
        (generation, log)
    };
    // Two full segments of lasting sessions, then the item arrives at the
    // recent end...
    let mut inc = IncrementalIndexer::new(M_MAX).unwrap();
    inc.apply_batch(&two_click_log(2 * SEG)).unwrap();
    let arrival = [Click::new(5 * SEG, ITEM, 10_000 * SEG), Click::new(5 * SEG, 3, 10_000 * SEG)];
    inc.apply_batch(&arrival).unwrap();
    let (g0, log0) = check(&inc, "the item arrives");
    let first = g0.item_slot(ITEM).unwrap();

    // ...leaves with its only session, stranding its slot...
    assert!(inc.delete_session(5 * SEG).unwrap());
    let (g1, _) = check(&inc, "the item leaves");
    assert_eq!((g1.item_slot(ITEM), g1.dead_slots()), (None, 1));
    assert_eq!(g1.slot_items()[first as usize], ITEM, "a stranded slot keeps its entry");
    assert_shared_slots_stable(&g0, &g1);

    // ...and returns in a later batch, beside an item that is new too: both
    // are given slots past every one the table held, none is handed on.
    inc.apply_batch(&[
        Click::new(6 * SEG, 7, 20_000 * SEG),
        Click::new(6 * SEG, ITEM, 20_000 * SEG),
        Click::new(6 * SEG, ITEM + 1, 20_000 * SEG),
    ])
    .unwrap();
    let (g2, _) = check(&inc, "the item returns");
    let (again, new) = (g2.item_slot(ITEM).unwrap(), g2.item_slot(ITEM + 1).unwrap());
    let held = g1.slot_items().len() as u32;
    assert!(again >= held && new >= held && again != new, "{first} → {again}, {new}");
    assert_eq!(g2.slot_items()[first as usize], ITEM);
    assert_eq!(shared_segments(&g1, &g2), 2);
    assert_shared_slots_stable(&g1, &g2);

    // The generation that held the item first still reads it.
    assert_same(&g0, &SessionIndex::build(&log0, M_MAX).unwrap(), "g0 after the return");
    assert_eq!(g0.session_items((2 * SEG) as SessionId), &[3, ITEM]);
}
