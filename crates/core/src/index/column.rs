//! The index's integer columns — a segment's slots and row offsets, the
//! record fields, the slot table's buckets and the slot → item table — each
//! stored at the narrowest whole-byte width that holds its largest value,
//! and [`Row`], the one view the kernel decodes a row's slots through.
//!
//! An entry of width `w` (1 to 4 bytes for a `u32` column, 1 to 8 for a
//! `u64` one) is its `w` low bytes, little-endian. The column ends in zero
//! bytes, one fewer than its type's size, so an entry is read as one
//! unaligned load of the type masked to `w` bytes wherever it lies: no
//! branch on the width and no byte-at-a-time assembly in the loop that
//! scores a row. Whole bytes, not bits: a row packed at 17 bits a slot costs
//! a shift and a straddled word a read, and the score loop runs on its
//! slots (DESIGN.md §4.8).

use std::marker::PhantomData;
use std::ops::{BitAnd, BitOr, Not, Range};

/// Zero bytes after a `u32` column's last entry: enough for a 4-byte read
/// at any entry to stay inside the column.
pub(super) const PADDING: usize = 3;

/// What a column holds: `u32` or `u64`. Its size is the load that reads an
/// entry, and the padding is one byte fewer.
pub trait Entry:
    Copy
    + Ord
    + Default
    + std::fmt::Debug
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + Not<Output = Self>
{
    /// Bytes of the type: the widest entry.
    const BYTES: usize;
    /// The value of the first [`Entry::BYTES`] bytes, little-endian.
    fn load(bytes: &[u8]) -> Self;
    /// Writes the value into the first [`Entry::BYTES`] bytes,
    /// little-endian.
    fn store(self, bytes: &mut [u8]);
    /// The value with its low `width` bytes set, 1 ≤ `width` ≤
    /// [`Entry::BYTES`].
    fn mask(width: usize) -> Self;
    /// Bits up to the highest one set.
    fn bits(self) -> u32;
}

macro_rules! entry {
    ($($t:ty),*) => {$(
        impl Entry for $t {
            const BYTES: usize = std::mem::size_of::<$t>();

            #[inline]
            fn load(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes[..Self::BYTES].try_into().expect("a whole entry"))
            }

            #[inline]
            fn store(self, bytes: &mut [u8]) {
                bytes[..Self::BYTES].copy_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn mask(width: usize) -> Self {
                <$t>::MAX >> (<$t>::BITS as usize - 8 * width)
            }

            #[inline]
            fn bits(self) -> u32 {
                <$t>::BITS - self.leading_zeros()
            }
        }
    )*};
}

entry!(u32, u64);

/// Bytes that hold `value`: at least 1.
pub(super) fn width_of<V: Entry>(value: V) -> usize {
    value.bits().div_ceil(8).max(1) as usize
}

/// `len` values of at most `width` bytes each, little-endian, and the
/// padding. Cloning copies the bytes.
#[derive(Debug, Clone)]
pub struct Column<V: Entry = u32> {
    bytes: Box<[u8]>,
    /// Number of entries, kept so that no reader divides by the width.
    len: u32,
    width: u8,
    entry: PhantomData<V>,
}

impl<V: Entry> Default for Column<V> {
    /// The empty column.
    fn default() -> Self {
        Self::zeroed(0, 1)
    }
}

impl<V: Entry> Column<V> {
    /// The column of `values`, at the narrowest width that holds the largest
    /// of them (1 byte for an empty or all-zero column): one allocation,
    /// written in place. `values` is walked twice, to size the column and
    /// to fill it, so any cloneable iterator does and none is collected
    /// first.
    pub fn new<I>(values: I) -> Self
    where
        I: IntoIterator<Item = V>,
        I::IntoIter: Clone,
    {
        let values = values.into_iter();
        let (len, max) =
            values.clone().fold((0, V::default()), |(len, max), v| (len + 1, max.max(v)));
        let mut column = Self::zeroed(len, width_of(max));
        // In ascending order each entry is one plain store of the whole
        // type: its bytes past the width are zeros over the next entries,
        // which are still zero, or over the padding. (`set`'s load and
        // store would stall on the store of the entry before.)
        let width = column.width();
        for (at, value) in (0..).step_by(width).zip(values) {
            debug_assert!(width_of(value) <= width, "the second walk yields the first's values");
            value.store(&mut column.bytes[at..at + V::BYTES]);
        }
        column
    }

    /// `len` zeros at `width` bytes each.
    pub(super) fn zeroed(len: usize, width: usize) -> Self {
        debug_assert!((1..=V::BYTES).contains(&width));
        let bytes = vec![0; len * width + V::BYTES - 1].into_boxed_slice();
        let len = u32::try_from(len).expect("a column holds at most u32::MAX entries");
        Self { bytes, len, width: width as u8, entry: PhantomData }
    }

    /// The first `kept` entries of this column, then zeros up to `len`,
    /// with `updates` — `(entry, value)` pairs — written over them: a new
    /// column at this one's width, or at the narrowest that holds the
    /// updates if that is wider (the narrowest alone when nothing is kept).
    /// At an unchanged width the kept entries are one copy.
    ///
    /// # Panics
    ///
    /// If `kept` exceeds this column or `len`, or an update lies at `len`
    /// or past it.
    pub fn patched(
        &self,
        kept: usize,
        len: usize,
        updates: impl Iterator<Item = (usize, V)> + Clone,
    ) -> Self {
        assert!(kept <= self.len() && kept <= len, "kept entries");
        let wanted = updates.clone().map(|(_, value)| width_of(value)).max().unwrap_or(1);
        let width = wanted.max(if kept > 0 { self.width() } else { 1 });
        let mut column = Self::zeroed(len, width);
        if width == self.width() {
            column.bytes[..kept * width].copy_from_slice(&self.bytes[..kept * width]);
        } else {
            for i in 0..kept {
                column.set(i, self.get(i));
            }
        }
        for (i, value) in updates {
            column.set(i, value);
        }
        column
    }

    /// Bytes an entry.
    #[inline]
    pub fn width(&self) -> usize {
        usize::from(self.width)
    }

    /// Number of entries.
    #[allow(clippy::len_without_is_empty)] // `len() == 0` says it
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Heap bytes: the entries and the padding.
    pub fn bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Entry `i`: one load of the type, masked to the width.
    ///
    /// # Panics
    ///
    /// If `i` is not below [`Column::len`]: the load then leaves the column.
    #[inline]
    pub fn get(&self, i: usize) -> V {
        let at = i * self.width();
        V::load(&self.bytes[at..at + V::BYTES]) & V::mask(self.width())
    }

    /// The entries, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = V> + Clone + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Writes `value` as entry `i`.
    ///
    /// # Panics
    ///
    /// If `value` is wider than the column, or `i` is not below
    /// [`Column::len`].
    #[inline]
    pub(super) fn set(&mut self, i: usize, value: V) {
        let width = self.width();
        assert!(width_of(value) <= width, "{value:?} is wider than {width} bytes");
        // One load and one store of the type, as `get` reads: the bytes past
        // the entry are the next entries' or the padding, and are put back.
        let word = &mut self.bytes[i * width..i * width + V::BYTES];
        (V::load(word) & !V::mask(width) | value).store(word);
    }
}

impl Column {
    /// Entry `i`, and the entry less one written back unless it is 0: one
    /// load and at most one store of the word, for a countdown. An entry of
    /// at least 1 borrows nothing from the bytes past it, so the word less
    /// one leaves them as they were.
    ///
    /// # Panics
    ///
    /// If `i` is not below [`Column::len`].
    #[inline]
    pub(super) fn count_down(&mut self, i: usize) -> u32 {
        let at = i * self.width();
        let word = &mut self.bytes[at..at + u32::BYTES];
        let loaded = u32::load(word);
        let entry = loaded & u32::mask(usize::from(self.width));
        if entry > 0 {
            (loaded - 1).store(word);
        }
        entry
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
        let (start, width, mask) = (self.bytes.as_ptr(), self.width, u32::mask(self.width));
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
            let column = Column::new(values.iter().copied());
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
    fn a_u64_column_takes_up_to_eight_bytes_and_seven_of_padding() {
        for (values, width) in [
            (vec![0u64], 1),
            (vec![1 << 32, 5], 5),
            (vec![(1 << 56) - 1], 7),
            (vec![u64::MAX, 0, 1 << 40], 8),
        ] {
            let column = Column::new(values.iter().copied());
            assert_eq!((column.width(), column.bytes()), (width, values.len() * width + 7));
            assert!(column.iter().eq(values.iter().copied()), "{values:?}");
        }
    }

    #[test]
    fn a_patch_keeps_a_prefix_and_widens_only_for_its_updates() {
        let column = Column::new([7u32, 300, 9]);
        let same = column.patched(3, 5, [(4, 1)].into_iter());
        assert_eq!((same.width(), same.iter().collect::<Vec<_>>()), (2, vec![7, 300, 9, 0, 1]));
        let wider = column.patched(2, 3, [(0, 1 << 20)].into_iter());
        assert_eq!((wider.width(), wider.iter().collect::<Vec<_>>()), (3, vec![1 << 20, 300, 0]));
        let afresh = column.patched(0, 2, [(1, 4)].into_iter());
        assert_eq!((afresh.width(), afresh.iter().collect::<Vec<_>>()), (1, vec![0, 4]));
    }

    #[test]
    fn a_countdown_stops_at_zero_and_leaves_its_neighbours() {
        let mut column = Column::new([1u32, 256, 0, 2]);
        assert_eq!((column.count_down(1), column.count_down(1)), (256, 255));
        assert_eq!((column.count_down(0), column.count_down(0), column.count_down(2)), (1, 0, 0));
        assert_eq!((column.count_down(3), column.count_down(3), column.count_down(3)), (2, 1, 0));
        assert!(column.iter().eq([0, 254, 0, 0]));
    }

    #[test]
    #[should_panic]
    fn a_run_past_the_last_entry_is_refused() {
        Column::new([1u32, 2, 3]).run(2..4);
    }

    #[test]
    #[should_panic(expected = "wider")]
    fn a_value_wider_than_the_column_is_refused() {
        Column::new([1u32, 2, 3]).set(0, 256);
    }
}
