//! A segment's per-session integer columns — the rows' slots and the row
//! offsets — each stored at the narrowest whole-byte width that holds its
//! largest value, and [`Row`], the one view every reader decodes them
//! through.
//!
//! An entry of width `w` (1 to 4 bytes) is its `w` low bytes, little-endian.
//! The column ends in [`PADDING`] bytes of zero, so an entry is read as one
//! unaligned 4-byte load masked to `w` bytes wherever it lies: no branch on
//! the width and no byte-at-a-time assembly in the loop that scores a row.
//! Whole bytes, not bits: a row packed at 17 bits a slot costs a shift and
//! a straddled word a read, and the score loop runs on its slots
//! (DESIGN.md §4.8).

use std::ops::Range;

/// Zero bytes after a column's last entry: enough for a 4-byte read at any
/// entry to stay inside the column.
pub(super) const PADDING: usize = 3;

/// `len` values of at most `width` bytes each, little-endian, and the
/// padding. Immutable once made.
#[derive(Debug)]
pub(super) struct Column {
    bytes: Box<[u8]>,
    width: u8,
}

impl Column {
    /// The column of `values`, at the narrowest width that holds the largest
    /// of them (1 byte for an empty or all-zero column): one allocation,
    /// written in place.
    pub(super) fn new(values: &[u32]) -> Self {
        let max = values.iter().copied().max().unwrap_or(0);
        let width = (u32::BITS - max.leading_zeros()).div_ceil(8).max(1) as usize;
        let mut bytes = vec![0; values.len() * width + PADDING].into_boxed_slice();
        for (to, value) in bytes.chunks_exact_mut(width).zip(values) {
            to.copy_from_slice(&value.to_le_bytes()[..width]);
        }
        Self { bytes, width: width as u8 }
    }

    /// Bytes an entry.
    #[inline]
    pub(super) fn width(&self) -> usize {
        usize::from(self.width)
    }

    /// Number of entries.
    pub(super) fn len(&self) -> usize {
        (self.bytes.len() - PADDING) / self.width()
    }

    /// Heap bytes: the entries and the padding.
    pub(super) fn bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Entry `i`.
    ///
    /// # Panics
    ///
    /// If `i` is not below [`Column::len`]: the 4 bytes read past its start
    /// then leave the column.
    #[inline]
    pub(super) fn get(&self, i: usize) -> u32 {
        let at = i * self.width();
        let word = u32::from_le_bytes(self.bytes[at..at + 4].try_into().expect("4 bytes"));
        word & mask(self.width())
    }

    /// Entries `range`, as a view.
    ///
    /// # Panics
    ///
    /// If `range` runs backwards or past the last entry.
    #[inline]
    pub(super) fn run(&self, range: Range<usize>) -> Row<'_> {
        let width = self.width();
        // The view's bytes are its entries and the `PADDING` after them:
        // slicing checks the range once, and every read `Row` makes then
        // stays inside them.
        let bytes = &self.bytes[range.start * width..range.end * width + PADDING];
        Row { bytes, len: range.end - range.start, width }
    }
}

/// The low `width` bytes of a word.
#[inline]
fn mask(width: usize) -> u32 {
    u32::MAX >> (32 - 8 * width)
}

/// A run of a segment's column, read `width` little-endian bytes an entry:
/// a row's slots, or a whole column. Borrowed, `Copy`, allocates nothing; it
/// compares equal to another view, or to a slice, holding the same values
/// in the same order.
#[derive(Clone, Copy)]
pub struct Row<'a> {
    /// The entries, then [`PADDING`] more bytes: `len * width + PADDING`.
    bytes: &'a [u8],
    len: usize,
    width: usize,
}

impl Default for Row<'_> {
    /// The empty run.
    fn default() -> Self {
        Row { bytes: &[0; PADDING], len: 0, width: 1 }
    }
}

impl<'a> Row<'a> {
    /// Number of entries.
    #[allow(clippy::len_without_is_empty)] // a row is never empty
    #[inline]
    pub fn len(self) -> usize {
        self.len
    }

    /// The entries, in order.
    #[inline]
    pub fn iter(self) -> impl ExactSizeIterator<Item = u32> + DoubleEndedIterator + Clone + 'a {
        let (start, width, mask) = (self.bytes.as_ptr(), self.width, mask(self.width));
        (0..self.len).map(move |i| {
            // SAFETY: `i < len`, and `bytes` holds `len * width + PADDING`
            // bytes (see `Column::run`): the 4 bytes from `i * width` end at
            // `(len - 1) * width + 4 ≤ len * width + PADDING`, inside
            // `bytes`. An unaligned read of plain bytes as a `u32` is valid
            // for any bit pattern.
            let word = unsafe { start.add(i * width).cast::<u32>().read_unaligned() };
            u32::from_le(word) & mask
        })
    }

    /// Where the run's bytes start: what a prefetch of its first cache line
    /// asks for.
    #[inline]
    pub(crate) fn as_ptr(self) -> *const u8 {
        self.bytes.as_ptr()
    }
}

impl PartialEq for Row<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl<T: AsRef<[u32]> + ?Sized> PartialEq<T> for Row<'_> {
    fn eq(&self, other: &T) -> bool {
        self.iter().eq(other.as_ref().iter().copied())
    }
}

impl std::fmt::Debug for Row<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_width_holds_its_largest_value_and_reads_back() {
        for (values, width) in [
            (vec![], 1),
            (vec![0, 0], 1),
            (vec![255, 3], 1),
            (vec![256, 0], 2),
            (vec![1, (1 << 16) - 1], 2),
            (vec![1 << 16, 7], 3),
            (vec![(1 << 24) - 1], 3),
            (vec![1 << 24, 0, 9], 4),
            (vec![u32::MAX, 1], 4),
        ] {
            let column = Column::new(&values);
            assert_eq!((column.width(), column.len()), (width, values.len()), "{values:?}");
            assert_eq!(column.bytes(), values.len() * width + PADDING);
            assert_eq!(column.run(0..values.len()), values);
            for (i, &value) in values.iter().enumerate() {
                assert_eq!(column.get(i), value);
                assert_eq!(column.run(i..i + 1), [value]);
            }
        }
        assert_eq!(Row::default(), [0u32; 0]);
    }

    #[test]
    #[should_panic]
    fn a_run_past_the_last_entry_is_refused() {
        Column::new(&[1, 2, 3]).run(2..4);
    }
}
