//! The item → slot table and the record column against a `HashMap` model.
//!
//! A live index finds an item's posting through a table of 4-byte slots,
//! confirmed through the slot → item table, and the record at the slot; an
//! item that leaves keeps its slot, dead, and takes it back if it returns,
//! until a merge numbers slots afresh. This suite drives an
//! [`IncrementalIndexer`] through random batches, deletes, retention caps,
//! backfills and item turnover, and after every step holds `item_slot`,
//! `slot_of`, `item_support`, `postings`, `items()` and `num_items()` to a
//! model built from the log of the sessions the indexer holds. Across the
//! run, items must leave and come back to their own slots — `dead_slots()`
//! falling as they do — and merges must cross the dead-slot share that
//! makes them number slots afresh.

use std::collections::HashMap;

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serenade_core::{Click, FxHashSet, ItemId, SessionId, SessionIndex};
use serenade_index::IncrementalIndexer;

/// One step of traffic.
#[derive(Debug, Clone)]
enum Op {
    /// Clicks `(session, item)`; at the recent end, or below the newest
    /// session when `backfill`.
    Batch { clicks: Vec<(u64, ItemId)>, backfill: bool },
    /// Deletes one session.
    Delete(u64),
    /// A session of rare items that is deleted again: those of its items no
    /// other session holds leave, stranding their slots.
    Strand(Vec<ItemId>),
}

/// Common items 0..12, and rare ones 100..108 that come and go.
fn item() -> impl Strategy<Value = ItemId> {
    prop_oneof![0u64..12, 0u64..12, 100u64..108]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (vec((0u64..16, item()), 1..8), any::<bool>(), 0u8..4)
            .prop_map(|(clicks, old, k)| Op::Batch { clicks, backfill: old && k == 0 }),
        (vec((0u64..16, item()), 1..8), Just(false))
            .prop_map(|(clicks, backfill)| Op::Batch { clicks, backfill }),
        (0u64..16).prop_map(Op::Delete),
        vec(100u64..108, 1..6).prop_map(Op::Strand),
    ]
}

/// The model of one item: its support and its posting, newest first.
#[derive(Debug, Default, PartialEq)]
struct Expected {
    support: u32,
    postings: Vec<SessionId>,
}

/// Each item of `log`'s sessions, as a build of the log would index it:
/// sessions ranked by `(newest click, external id)`, postings the `m_max`
/// newest ranks.
fn model(log: &[Click], m_max: usize) -> HashMap<ItemId, Expected> {
    let mut sessions: HashMap<u64, (u64, FxHashSet<ItemId>)> = HashMap::new();
    for c in log {
        let (newest, items) = sessions.entry(c.session_id).or_default();
        *newest = (*newest).max(c.timestamp);
        items.insert(c.item_id);
    }
    let mut ranked: Vec<(u64, u64)> = sessions.iter().map(|(&ext, &(ts, _))| (ts, ext)).collect();
    ranked.sort_unstable();
    let mut model: HashMap<ItemId, Expected> = HashMap::new();
    for (rank, &(_, ext)) in ranked.iter().enumerate().rev() {
        for &item in &sessions[&ext].1 {
            let expected = model.entry(item).or_default();
            expected.support += 1;
            if expected.postings.len() < m_max {
                expected.postings.push(rank as SessionId);
            }
        }
    }
    model
}

/// What a run of cases reached.
#[derive(Debug, Default)]
struct Reached {
    /// Items that came back to the slot they had left.
    returned: usize,
    /// Steps after which fewer slots were dead, because items came back.
    dead_fell: usize,
    /// Steps that began past the dead-slot share and numbered slots afresh.
    renumbered: usize,
}

/// Holds `index` to `model` item by item, the slot tables included.
fn check(index: &SessionIndex, model: &HashMap<ItemId, Expected>) -> Result<(), String> {
    let slot_items = index.slot_items();
    prop_assert_eq!(index.num_items(), model.len());
    let mut items: Vec<ItemId> = index.items().collect();
    items.sort_unstable();
    let mut expected: Vec<ItemId> = model.keys().copied().collect();
    expected.sort_unstable();
    prop_assert_eq!(items, expected);
    let distinct: FxHashSet<ItemId> = slot_items.iter().copied().collect();
    prop_assert_eq!(distinct.len(), slot_items.len(), "a slot item twice: {:?}", slot_items);
    prop_assert_eq!(index.dead_slots(), slot_items.len() - model.len());
    for (slot, &item) in slot_items.iter().enumerate() {
        prop_assert_eq!(index.slot_of(item), Some(slot as u32), "item {}", item);
        let live = model.get(&item);
        prop_assert_eq!(index.item_slot(item), live.map(|_| slot as u32), "item {}", item);
        prop_assert_eq!(index.item_support(item), live.map(|e| e.support), "item {}", item);
        prop_assert_eq!(index.postings(item), live.map(|e| &e.postings[..]), "item {}", item);
    }
    for unknown in [12, 99, 108, 5_000, u64::MAX] {
        prop_assert!(!distinct.contains(&unknown), "{} was never clicked", unknown);
        prop_assert_eq!(index.slot_of(unknown), None);
        prop_assert_eq!(index.item_slot(unknown), None);
        prop_assert_eq!(index.item_support(unknown), None);
        prop_assert_eq!(index.postings(unknown), None);
    }
    Ok(())
}

/// The slots `next` took back from `prev`, when a step did not number them
/// afresh: every item keeps the slot it held, live or dead, and the dead
/// ones change by those that left — the step's new items included — and
/// those that came back.
fn check_kept(
    prev: &SessionIndex,
    next: &SessionIndex,
    reached: &mut Reached,
) -> Result<(), String> {
    if !next.slot_items().starts_with(prev.slot_items()) {
        if prev.dead_slots() > prev.num_items() / 4 {
            reached.renumbered += 1;
        }
        return Ok(());
    }
    let (mut returned, mut left) = (0, 0);
    for (slot, &item) in prev.slot_items().iter().enumerate() {
        let (was, is) = (prev.item_slot(item).is_some(), next.item_slot(item).is_some());
        prop_assert_eq!(next.slot_of(item), Some(slot as u32), "item {} moved", item);
        returned += usize::from(!was && is);
        left += usize::from(was && !is);
    }
    // A step's own items may leave in it too, as a stranding session's do.
    let new_slots = &next.slot_items()[prev.slot_items().len()..];
    left += new_slots.iter().filter(|&&item| next.item_slot(item).is_none()).count();
    prop_assert_eq!(next.dead_slots() + returned, prev.dead_slots() + left);
    reached.returned += returned;
    reached.dead_fell += usize::from(next.dead_slots() < prev.dead_slots());
    Ok(())
}

/// One case: `ops` fed to an indexer of posting capacity `m_max` and
/// retention cap `cap`, each step checked against the model.
fn run(m_max: usize, cap: usize, ops: &[Op], reached: &mut Reached) -> Result<(), String> {
    let mut inc = IncrementalIndexer::with_retained_session_items_cap(m_max, cap).unwrap();
    let (mut log, mut deleted): (Vec<Click>, FxHashSet<u64>) = Default::default();
    let (mut newest, mut stranded) = (1_000u64, 1_000u64);
    let mut prev: Option<SessionIndex> = None;
    for op in ops {
        match op {
            Op::Batch { clicks, backfill } => {
                let at = if *backfill { newest / 2 } else { newest + 10 };
                let batch: Vec<Click> = (clicks.iter().zip(0..))
                    .map(|(&(session, item), k)| Click::new(session, item, at + k))
                    .collect();
                inc.apply_batch(&batch).unwrap();
                log.extend(batch.iter().filter(|c| !deleted.contains(&c.session_id)));
            }
            Op::Delete(session) => {
                inc.delete_session(*session).unwrap();
                deleted.insert(*session);
                log.retain(|c| c.session_id != *session);
            }
            Op::Strand(items) => {
                stranded += 1;
                let batch: Vec<Click> =
                    items.iter().map(|&item| Click::new(stranded, item, newest + 10)).collect();
                inc.apply_batch(&batch).unwrap();
                inc.delete_session(stranded).unwrap();
            }
        }
        let held: FxHashSet<u64> = inc.session_ids().iter().copied().collect();
        log.retain(|c| held.contains(&c.session_id));
        newest = log.iter().map(|c| c.timestamp).max().unwrap_or(newest) + 10;
        let Ok(next) = inc.snapshot() else {
            prop_assert!(log.is_empty());
            prev = None;
            continue;
        };
        check(&next, &model(&log, m_max))?;
        if let Some(prev) = &prev {
            check_kept(prev, &next, reached)?;
        }
        prev = Some(next);
    }
    Ok(())
}

#[test]
fn slot_table_and_records_match_a_hashmap_model() {
    let cases = (1usize..5, prop_oneof![Just(usize::MAX), 12usize..48], vec(op(), 4..40));
    let mut rng = TestRng::from_name("slot_table_and_records_match_a_hashmap_model");
    let mut reached = Reached::default();
    for case in 0..64 {
        let (m_max, cap, ops) = cases.generate(&mut rng);
        if let Err(message) = run(m_max, cap, &ops, &mut reached) {
            panic!("case {case} failed: {message}\n  m_max {m_max}, cap {cap}, ops {ops:?}");
        }
    }
    assert!(reached.returned > 0 && reached.dead_fell > 0, "{reached:?}");
    assert!(reached.renumbered > 0, "no merge crossed the dead-slot share: {reached:?}");
}
