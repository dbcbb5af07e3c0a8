//! The item → slot table: open addressing over narrow buckets, with no key
//! stored.
//!
//! A bucket holds a slot plus one, or 0 when it is empty, at the narrowest
//! whole-byte width that holds the number of slots: 3 bytes a bucket below
//! 2²⁴ − 1 slots. An item hashes (the Fx hash of [`crate::hash`], its top
//! bits) to a home bucket, and a lookup walks from there, one bucket at a
//! time, until it meets a slot whose entry in the index's slot → item table
//! is the item — so the item is read from that table, not stored a second
//! time here — or an empty bucket.
//!
//! The table holds every slot of the slot → item table it was made for, a
//! dead one (its item has left the index) included, so an item that
//! returns finds its own slot again. It therefore never deletes: a merge
//! that gives out new slots adds them, to a copy of the table or, once they
//! would fill more than 3/4 of it or outgrow its width, to a table made
//! afresh, and a merge that numbers slots afresh makes a new one.

use std::hash::BuildHasher;
use std::sync::Arc;

use super::column::width_of;
use super::Column;
use crate::hash::FxBuildHasher;
use crate::types::ItemId;

/// The item → slot table of an index (see the module docs). Cloning is a
/// handle copy.
#[derive(Debug, Clone)]
pub struct SlotTable {
    buckets: Arc<Column>,
}

impl SlotTable {
    /// The table of every slot of `slot_items`, which holds distinct items.
    pub fn new(slot_items: &Column<ItemId>) -> Self {
        let slots = slot_items.len();
        let mut buckets = Column::zeroed(buckets_for(slots), width_of(slots as u32));
        insert(&mut buckets, slot_items, 0);
        Self { buckets: Arc::new(buckets) }
    }

    /// This table, made for the first `from` slots of `slot_items`, with the
    /// slots `from..` added: itself, shared, when there are none; else a
    /// copy, or a table made afresh when they would fill this one past 3/4
    /// or need a wider bucket.
    pub fn with_new_slots(&self, slot_items: &Column<ItemId>, from: usize) -> Self {
        let slots = slot_items.len();
        if from == slots {
            return self.clone();
        }
        if buckets_for(slots) > self.buckets.len()
            || width_of(slots as u32) > self.buckets.width()
        {
            return Self::new(slot_items);
        }
        let mut buckets = Column::clone(&self.buckets);
        insert(&mut buckets, slot_items, from);
        Self { buckets: Arc::new(buckets) }
    }

    /// The slot holding `item`, confirmed through `slot_items`, the
    /// slot → item table this table was made for.
    #[inline]
    pub(crate) fn get(&self, item: ItemId, slot_items: &Column<ItemId>) -> Option<u32> {
        let mask = self.buckets.len() - 1;
        let mut at = home(item, self.buckets.len());
        loop {
            let slot = self.buckets.get(at).checked_sub(1)?;
            if slot_items.get(slot as usize) == item {
                return Some(slot);
            }
            at = (at + 1) & mask;
        }
    }

    /// The buckets, empty ones included: each a slot plus one, or 0.
    pub fn buckets(&self) -> &Column {
        &self.buckets
    }
}

/// Buckets for `slots` slots: a power of two, at least 4/3 of them and
/// one more, so at most 3/4 are full and a lookup always meets an empty one.
fn buckets_for(slots: usize) -> usize {
    (slots + slots / 3 + 1).next_power_of_two().max(2)
}

/// The home bucket of `item` among `len`, a power of two of at least 2: the
/// top bits of its Fx hash, which a multiplicative hash mixes best.
#[inline]
fn home(item: ItemId, len: usize) -> usize {
    (FxBuildHasher::default().hash_one(item) >> (64 - len.trailing_zeros())) as usize
}

/// Puts the slots `from..` of `slot_items` into `buckets`, each in the first
/// empty bucket from its item's home.
fn insert(buckets: &mut Column, slot_items: &Column<ItemId>, from: usize) {
    let mask = buckets.len() - 1;
    for (slot, item) in slot_items.iter().enumerate().skip(from) {
        let mut at = home(item, buckets.len());
        while let Some(held) = buckets.get(at).checked_sub(1) {
            debug_assert_ne!(slot_items.get(held as usize), item, "slot items are distinct");
            at = (at + 1) & mask;
        }
        buckets.set(at, slot as u32 + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_slot_is_found_and_no_other_item() {
        for n in [0, 1, 2, 3, 5, 96, 97, 1_000] {
            let items = Column::new((0..n).map(|k| k * 7_919 + 3));
            let table = SlotTable::new(&items);
            assert!(4 * n as usize <= 3 * table.buckets().len(), "{n} slots");
            for (slot, item) in items.iter().enumerate() {
                assert_eq!(table.get(item, &items), Some(slot as u32));
            }
            assert_eq!(table.get(1, &items), None);
        }
    }

    #[test]
    fn a_bucket_holds_the_slot_count_and_the_empty_mark() {
        // 255 slots fill buckets of 1 byte (0 empty, 1–255 a slot); the
        // 256th needs a second byte, so the table is made afresh.
        let items = Column::new((0..256u64).map(|k| k * 3));
        let table = SlotTable::new(&Column::new(items.iter().take(255)));
        assert_eq!((table.buckets().len(), table.buckets().width()), (512, 1));
        let wider = table.with_new_slots(&items, 255);
        assert_eq!((wider.buckets().len(), wider.buckets().width()), (512, 2));
        assert_eq!(wider.get(255 * 3, &items), Some(255));
    }

    #[test]
    fn new_slots_share_the_table_or_copy_it_or_grow_it() {
        let all: Vec<ItemId> = (0..40).map(|k| k * 13).collect();
        let (first, items) = (Column::new(all[..30].iter().copied()), Column::new(all.clone()));
        let table = SlotTable::new(&first);
        assert_eq!(table.buckets().len(), 64);
        let same = table.with_new_slots(&first, 30);
        assert!(std::ptr::eq(same.buckets(), table.buckets()), "nothing new, nothing copied");
        let copied = table.with_new_slots(&items, 30);
        assert_eq!(copied.buckets().len(), 64);
        let more = Column::new(all.iter().copied().chain([7, 9, 11, 17, 19, 23, 29, 31]));
        let grown = copied.with_new_slots(&more, 40);
        assert_eq!(grown.buckets().len(), 128, "48 slots fill 64 buckets past 3/4");
        assert_eq!((grown.get(7, &more), grown.get(31, &more)), (Some(40), Some(47)));
        for (slot, &item) in all.iter().enumerate() {
            assert_eq!(copied.get(item, &items), Some(slot as u32));
            assert_eq!(table.get(item, &items), (slot < 30).then_some(slot as u32));
        }
    }
}
