//! The per-slot tables of an index — the records, the slot → item table and
//! the item → slot table — at their narrowest whole-byte widths: every
//! record, every slot's item and every lookup reads back exactly, at every
//! width a table can take (supports and starts past 2²⁴, item ids past
//! 2³², up to 64 arenas), and a publish that brings wider values widens
//! only the columns that need it while the generation before it reads on
//! unchanged. Each column's size is the layout's: an entry a width and the
//! fixed padding, and nothing more.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;
use serenade_core::index::{Column, Posting, Records, SlotTable};
use serenade_core::{ItemId, SessionId, SessionIndex};

/// Zero bytes after a `u32` column's last entry, and after a `u64` one's.
const PADDING: usize = 3;
const PADDING_64: usize = 7;

/// Arenas a live index may point into before a merge compacts them.
const MAX_ARENAS: u32 = 64;

/// Bytes `value` needs: 1 to 8.
fn width_of(value: u64) -> usize {
    (1..8).find(|&width| value < 1 << (8 * width)).unwrap_or(8)
}

/// The largest value of `width` bytes.
fn top(width: usize) -> u64 {
    u64::MAX >> (64 - 8 * width)
}

/// Field widths of a record table: support and start bytes, and the number
/// of arenas.
type Widths = (usize, usize, u32);

/// The records of `raw` at `widths`: each field cut to its width, one record
/// in eight dead, and the first at the top of every field, so that each
/// field needs exactly its width.
fn records(
    raw: &[(u32, u32, u32, u32)],
    (support, start, arenas): Widths,
    len: usize,
) -> Vec<Posting> {
    let field = |value: u32, width: usize| value & top(width) as u32;
    (0..len)
        .map(|slot| match (slot, raw[slot % raw.len()]) {
            (0, _) => Posting {
                support: top(support) as u32,
                start: top(start) as u32,
                arena: arenas - 1,
            },
            (_, (_, _, _, 0)) => Posting::default(),
            (_, (s, t, a, _)) => {
                Posting { support: field(s, support), start: field(t, start), arena: a % arenas }
            }
        })
        .collect()
}

/// Bytes of the widest value of one field of `records`.
fn field_width(records: &[Posting], field: fn(&Posting) -> u32) -> usize {
    width_of(records.iter().map(field).max().unwrap_or(0).into())
}

/// Bytes a record: the widths of its three fields, each at least 1.
fn record_width(records: &[Posting]) -> usize {
    let support = field_width(records, |p| p.support);
    support + field_width(records, |p| p.start) + field_width(records, |p| p.arena)
}

/// Asserts that `records` reads back as `expected` and takes `width` bytes
/// a record and each column's padding.
fn assert_records(records: &Records, expected: &[Posting], width: usize) -> Result<(), String> {
    prop_assert_eq!(records.len(), expected.len());
    for (slot, &posting) in expected.iter().enumerate() {
        prop_assert_eq!(records.get(slot), posting, "slot {}", slot);
    }
    prop_assert!(records.iter().eq(expected.iter().copied()));
    prop_assert_eq!(records.bytes(), expected.len() * width + 3 * PADDING);
    Ok(())
}

/// An index over the slot → item table `items` whose records point into
/// `arenas` arenas, with the posting each slot must read back: every
/// slot's posting is a range of its arena, and a slot in four is dead.
fn index_of(items: &Column<ItemId>, arenas: u32) -> (SessionIndex, Vec<Option<Vec<SessionId>>>) {
    const M_MAX: u32 = 5;
    let arena_len = M_MAX + 3;
    let arena_list: Vec<Arc<[SessionId]>> =
        (0..arenas).map(|a| (0..arena_len).map(|j| a * 1_000 + j).collect()).collect();
    let (mut updates, mut postings) = (Vec::new(), Vec::new());
    for slot in 0..items.len() as u32 {
        let (arena, support) = (slot % arenas, slot % 4 * 5);
        let len = support.min(M_MAX);
        let start = slot % (arena_len - len + 1);
        let live = support != 0;
        let posting = if live { Posting { support, start, arena } } else { Posting::default() };
        updates.push((slot, posting));
        let range = start as usize..(start + len) as usize;
        postings.push(live.then(|| arena_list[arena as usize][range].to_vec()));
    }
    let index = SessionIndex::from_generation(
        Arc::new(Records::default().patched(0, items.len(), &updates)),
        SlotTable::new(items),
        arena_list.into(),
        Arc::from([]),
        Arc::new(items.clone()),
        M_MAX as usize,
    );
    (index, postings)
}

/// Every slot of `index` holds its item and finds its posting through the
/// slot table, and no item of `absent` is found.
fn assert_lookups(
    index: &SessionIndex,
    items: &[ItemId],
    postings: &[Option<Vec<SessionId>>],
    absent: &[ItemId],
) -> Result<(), String> {
    prop_assert_eq!(index.slot_items().len(), items.len());
    for (slot, (&item, posting)) in items.iter().zip(postings).enumerate() {
        prop_assert_eq!(index.slot_items().get(slot), item);
        prop_assert_eq!(index.slot_of(item), Some(slot as u32), "item {}", item);
        prop_assert_eq!(index.item_slot(item), posting.as_ref().map(|_| slot as u32));
        prop_assert_eq!(index.postings(item), posting.as_deref(), "item {}", item);
    }
    for &item in absent {
        prop_assert_eq!(index.slot_of(item), None, "item {} is in no slot", item);
        prop_assert_eq!(index.postings(item), None);
    }
    Ok(())
}

/// `raw` cut to `width` bytes, with the top of the width first, each id
/// once and none of `taken`, in order of first appearance.
fn distinct(raw: &[u64], width: usize, taken: &mut BTreeSet<ItemId>) -> Vec<ItemId> {
    let ids = std::iter::once(top(width)).chain(raw.iter().map(|&id| id & top(width)));
    ids.filter(|&id| taken.insert(id)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn records_read_back_at_every_width_and_across_a_widening_publish(
        widths in (1usize..=4, 1usize..=4, 1..=MAX_ARENAS),
        wider in (1usize..=4, 1usize..=4, 1..=MAX_ARENAS),
        raw in vec((any::<u32>(), any::<u32>(), any::<u32>(), 0u32..8), 1..160),
        kept in 0usize..=160,
        more in 0usize..40,
        slots in vec(any::<u32>(), 0..30),
    ) {
        let was = records(&raw, widths, raw.len());
        let all: Vec<(u32, Posting)> = (0..).zip(was.iter().copied()).collect();
        let built = Records::default().patched(0, was.len(), &all);
        assert_records(&built, &was, record_width(&was))?;

        // The publish keeps a prefix, adds slots, and writes updates — the
        // first of them the widest record of `wider` — over both.
        let kept = kept.min(was.len());
        let len = kept.max(1) + more;
        let fresh = records(&raw, wider, len);
        let updates: Vec<(u32, Posting)> = std::iter::once(0)
            .chain(slots.iter().map(|slot| slot % len as u32))
            .map(|slot| (slot, fresh[slot as usize]))
            .collect();
        let patched = built.patched(kept, len, &updates);
        let mut expected = was[..kept].to_vec();
        expected.resize(len, Posting::default());
        for &(slot, posting) in &updates {
            expected[slot as usize] = posting;
        }
        // A column that keeps entries keeps its width unless an update
        // needs a wider one; one that keeps none takes the updates' widths.
        let written: Vec<Posting> = updates.iter().map(|&(_, posting)| posting).collect();
        let width = |field: fn(&Posting) -> u32| {
            let needed = field_width(&written, field);
            if kept > 0 { needed.max(field_width(&was, field)) } else { needed }
        };
        let record = width(|p| p.support) + width(|p| p.start) + width(|p| p.arena);
        assert_records(&patched, &expected, record)?;
        // The generation before the publish reads on unchanged.
        assert_records(&built, &was, record_width(&was))?;
    }

    #[test]
    fn slot_items_and_lookups_read_back_at_every_width_and_across_a_widening_publish(
        width in 1usize..=8,
        wider in 1usize..=8,
        arenas in 1..=MAX_ARENAS,
        held in vec(any::<u64>(), 0..200),
        fresh in vec(any::<u64>(), 0..40),
    ) {
        let mut taken = BTreeSet::new();
        let held = distinct(&held, width, &mut taken);
        let fresh = distinct(&fresh, wider, &mut taken);
        let absent: Vec<ItemId> = [0, 1, 255, 256, 1 << 32, u64::MAX - 1, u64::MAX]
            .into_iter()
            .filter(|id| !taken.contains(id))
            .collect();

        let column = Column::new(held.iter().copied());
        prop_assert_eq!(column.width(), width);
        prop_assert_eq!(column.bytes(), held.len() * width + PADDING_64);
        prop_assert!(column.iter().eq(held.iter().copied()));
        let (index, postings) = index_of(&column, arenas);
        prop_assert_eq!(index.slot_table().buckets().width(), width_of(held.len() as u64));
        let not_held: Vec<ItemId> = absent.iter().chain(&fresh).copied().collect();
        assert_lookups(&index, &held, &postings, &not_held)?;

        // A publish that gives the fresh items the next slots: the slot →
        // item table widens if they need it, and the slot table takes them
        // in a copy, or afresh if they outgrow its buckets.
        let n = held.len();
        let grown = column.patched(n, n + fresh.len(), (n..).zip(fresh.iter().copied()));
        let items: Vec<ItemId> = held.iter().chain(&fresh).copied().collect();
        let grown_width = if fresh.is_empty() { width } else { width.max(wider) };
        prop_assert_eq!(grown.width(), grown_width);
        prop_assert_eq!(grown.bytes(), items.len() * grown_width + PADDING_64);
        let table = index.slot_table().with_new_slots(&grown, n);
        prop_assert_eq!(table.buckets().width(), width_of(items.len() as u64));
        let (all, all_postings) = index_of(&grown, arenas);
        let next = SessionIndex::from_generation(
            Arc::new(all.records().clone()),
            table,
            all.arenas().into(),
            Arc::from([]),
            Arc::new(grown),
            all.m_max(),
        );
        assert_lookups(&next, &items, &all_postings, &absent)?;
        // The generation before the publish finds exactly its own items.
        assert_lookups(&index, &held, &postings, &not_held)?;
    }
}
