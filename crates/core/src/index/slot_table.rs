//! The item → slot table: open addressing over 4-byte slots, with no key
//! stored.
//!
//! A bucket holds a slot or [`EMPTY`]. An item hashes (the Fx hash of
//! [`crate::hash`], its top bits) to a home bucket, and a lookup walks from
//! there, one bucket at a time, until it meets a slot whose entry in the
//! index's slot → item table is the item — so the 8-byte item is read from
//! that table, not stored a second time here — or an empty bucket.
//!
//! The table holds every slot of the slot → item table it was made for, a
//! dead one (its item has left the index) included, so an item that
//! returns finds its own slot again. It therefore never deletes: a merge
//! that gives out new slots adds them, to a copy of the table or, once they
//! would fill more than 3/4 of it, to a table made afresh at the next
//! power of two, and a merge that numbers slots afresh makes a new one.

use std::hash::BuildHasher;
use std::sync::Arc;

use crate::hash::FxBuildHasher;
use crate::types::ItemId;

/// A bucket no slot occupies.
const EMPTY: u32 = u32::MAX;

/// The item → slot table of an index (see the module docs). Cloning is a
/// handle copy.
#[derive(Debug, Clone)]
pub struct SlotTable {
    buckets: Arc<[u32]>,
}

impl SlotTable {
    /// The table of every slot of `slot_items`, which holds distinct items.
    pub fn new(slot_items: &[ItemId]) -> Self {
        // An exact-size iterator collects straight into the `Arc`'s
        // allocation.
        let mut buckets: Arc<[u32]> = (0..buckets_for(slot_items.len())).map(|_| EMPTY).collect();
        let buckets_mut = Arc::get_mut(&mut buckets).expect("a new table has no other owner");
        insert(buckets_mut, slot_items, 0);
        Self { buckets }
    }

    /// This table, made for `slot_items[..from]`, with the slots `from..` of
    /// `slot_items` added: itself, shared, when there are none; else a copy,
    /// or a table made afresh when they would fill this one past 3/4.
    pub fn with_new_slots(&self, slot_items: &[ItemId], from: usize) -> Self {
        if from == slot_items.len() {
            return self.clone();
        }
        if buckets_for(slot_items.len()) > self.buckets.len() {
            return Self::new(slot_items);
        }
        let mut buckets: Arc<[u32]> = Arc::from(&self.buckets[..]);
        let buckets_mut = Arc::get_mut(&mut buckets).expect("a new table has no other owner");
        insert(buckets_mut, slot_items, from);
        Self { buckets }
    }

    /// The slot holding `item`, confirmed through `slot_items`, the
    /// slot → item table this table was made for.
    #[inline]
    pub(crate) fn get(&self, item: ItemId, slot_items: &[ItemId]) -> Option<u32> {
        let mask = self.buckets.len() - 1;
        let mut at = home(item, self.buckets.len());
        loop {
            let slot = self.buckets[at];
            if slot == EMPTY {
                return None;
            }
            if slot_items[slot as usize] == item {
                return Some(slot);
            }
            at = (at + 1) & mask;
        }
    }

    /// The buckets, empty ones included: 4 bytes each.
    pub fn buckets(&self) -> &[u32] {
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
fn insert(buckets: &mut [u32], slot_items: &[ItemId], from: usize) {
    let mask = buckets.len() - 1;
    for (slot, &item) in slot_items.iter().enumerate().skip(from) {
        let mut at = home(item, buckets.len());
        while buckets[at] != EMPTY {
            debug_assert_ne!(slot_items[buckets[at] as usize], item, "slot items are distinct");
            at = (at + 1) & mask;
        }
        buckets[at] = slot as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_slot_is_found_and_no_other_item() {
        for n in [0, 1, 2, 3, 5, 96, 97, 1_000] {
            let items: Vec<ItemId> = (0..n).map(|k| k * 7_919 + 3).collect();
            let table = SlotTable::new(&items);
            assert!(4 * n as usize <= 3 * table.buckets().len(), "{n} slots");
            for (slot, &item) in items.iter().enumerate() {
                assert_eq!(table.get(item, &items), Some(slot as u32));
            }
            assert_eq!(table.get(1, &items), None);
        }
    }

    #[test]
    fn new_slots_share_the_table_or_copy_it_or_grow_it() {
        let items: Vec<ItemId> = (0..40).map(|k| k * 13).collect();
        let table = SlotTable::new(&items[..30]);
        assert_eq!(table.buckets().len(), 64);
        let same = table.with_new_slots(&items[..30], 30);
        assert!(std::ptr::eq(same.buckets(), table.buckets()), "nothing new, nothing copied");
        let copied = table.with_new_slots(&items[..40], 30);
        assert_eq!(copied.buckets().len(), 64);
        let more = [&items[..], &[7, 9, 11, 17, 19, 23, 29, 31]].concat();
        let grown = copied.with_new_slots(&more, 40);
        assert_eq!(grown.buckets().len(), 128, "48 slots fill 64 buckets past 3/4");
        assert_eq!((grown.get(7, &more), grown.get(31, &more)), (Some(40), Some(47)));
        for (slot, &item) in items.iter().enumerate() {
            assert_eq!(copied.get(item, &items), Some(slot as u32));
            assert_eq!(table.get(item, &items), (slot < 30).then_some(slot as u32));
        }
    }
}
