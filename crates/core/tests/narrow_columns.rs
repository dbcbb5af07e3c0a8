//! The two per-session columns of a segment — the rows' slots and the row
//! offsets — at their narrowest whole-byte width: every row reads back
//! exactly and in order, whatever width its segment's largest slot needs,
//! and each column's size is the layout's, an entry a width and the fixed
//! padding, and nothing more.

use proptest::prelude::*;
use serenade_core::index::{Segment, SEGMENT_SESSIONS};

/// Zero bytes after a column's last entry, so that a 4-byte read at any
/// entry stays inside it.
const PADDING: usize = 3;

/// Bytes the largest of `values` needs: 1 to 4.
fn width_of(values: impl Iterator<Item = u32>) -> usize {
    match values.max().unwrap_or(0) {
        0..=0xff => 1,
        0x100..=0xffff => 2,
        0x1_0000..=0xff_ffff => 3,
        _ => 4,
    }
}

/// A segment of `rows`, one timestamp a row, and its offsets.
fn segment(rows: &[Vec<u32>]) -> (Segment, Vec<u32>) {
    let offsets: Vec<u32> = std::iter::once(0)
        .chain(rows.iter().scan(0, |end, row| {
            *end += row.len() as u32;
            Some(*end)
        }))
        .collect();
    let slots: Vec<u32> = rows.concat();
    (Segment::new(0..rows.len() as u64, &offsets, &slots), offsets)
}

/// Every row reads back, the column and the widths are the layout's.
fn assert_layout(rows: &[Vec<u32>]) -> Result<(), String> {
    let (segment, offsets) = segment(rows);
    let slots = rows.concat();
    prop_assert_eq!(segment.len(), rows.len());
    for (r, row) in rows.iter().enumerate() {
        prop_assert_eq!(segment.slots(r), row, "row {} of {}", r, rows.len());
        prop_assert!(segment.slots(r).iter().rev().eq(row.iter().rev().copied()));
        prop_assert_eq!(segment.slots(r).iter().len(), row.len());
    }
    prop_assert_eq!(segment.slot_column(), &slots);
    let slot_width = width_of(slots.iter().copied());
    let offset_width = width_of(offsets.iter().copied());
    prop_assert_eq!((segment.slot_width(), segment.offset_width()), (slot_width, offset_width));
    prop_assert_eq!(segment.slot_bytes(), slots.len() * slot_width + PADDING);
    prop_assert_eq!(segment.offset_bytes(), offsets.len() * offset_width + PADDING);
    Ok(())
}

/// Rows of 1–12 slots below the top of `width` bytes, with one slot at its
/// bottom, so that the largest slot needs exactly `width` bytes: a bare
/// segment holds any `u32`, 2²⁴ and past it included.
fn rows(width: u32) -> impl Strategy<Value = Vec<Vec<u32>>> {
    let top = if width == 4 { u32::MAX } else { (1 << (8 * width)) - 1 };
    let bottom = if width == 1 { 0 } else { 1 << (8 * (width - 1)) };
    let row = proptest::collection::vec(prop_oneof![0..=top, bottom..=top, Just(top)], 1..13);
    (proptest::collection::vec(row, 1..301), any::<u64>()).prop_map(move |(mut rows, at)| {
        let row = at as usize % rows.len();
        rows[row][0] = bottom;
        rows
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn one_byte_slots_read_back(rows in rows(1)) {
        assert_layout(&rows)?;
    }

    #[test]
    fn two_byte_slots_read_back(rows in rows(2)) {
        assert_layout(&rows)?;
    }

    #[test]
    fn three_byte_slots_read_back(rows in rows(3)) {
        assert_layout(&rows)?;
    }

    #[test]
    fn four_byte_slots_read_back(rows in rows(4)) {
        assert_layout(&rows)?;
    }
}

#[test]
fn a_slot_column_past_65535_entries_takes_three_byte_offsets() {
    // A full segment of 17 slots a row: 69,632 entries, so the last offsets
    // need a third byte; the slots stay at two.
    let rows: Vec<Vec<u32>> = (0..SEGMENT_SESSIONS as u32)
        .map(|r| (0..17).map(|k| (r * 31 + k * 997) % 40_000).collect())
        .collect();
    let (full, _) = segment(&rows);
    assert_eq!((full.offset_width(), full.slot_width()), (3, 2));
    assert_layout(&rows).unwrap();
    // At 65,535 entries, two bytes still do.
    let rows = vec![vec![7; 255]; 257];
    assert_eq!(rows.iter().map(Vec::len).sum::<usize>(), 65_535);
    assert_eq!(segment(&rows).0.offset_width(), 2);
    assert_layout(&rows).unwrap();
}
