//! A segment's timestamp column `t` in Elias–Fano form: one boxed word
//! array, about `2 + log₂(span / n)` bits an entry, any entry read in
//! constant time.
//!
//! A non-decreasing column `x_0 ≤ … ≤ x_{n-1}` is coded relative to its
//! base `x_0`: with `span = x_{n-1} - x_0` and `ℓ = ⌊log₂(span / n)⌋` (0 when
//! `span < n`), entry `i`'s low `ℓ` bits are packed at `ℓ` bits each, and
//! its high part `h_i = (x_i - x_0) >> ℓ` is coded in unary, as the set bit
//! at position `h_i + i` of a bit array. Because `2^ℓ ≤ span / n`, the high
//! parts stay below `2n`, so that array holds fewer than `3n` bits. The
//! position of every 64th set bit is sampled as a `u16` (`3n` fits for
//! `n ≤ 4,096`), so reading entry `i` is one sample lookup, a popcount scan
//! from it over the words that hold the next ≤ 63 set bits, a select in the
//! last of them, and one read of the low bits.
//!
//! The words, in order: the base; the meta word (`n`, `ℓ` and where the
//! low and the high parts start, 16 bits each); the samples, four a word;
//! the low parts; the high parts.

use super::SEGMENT_SESSIONS;
use crate::types::Timestamp;

/// Where the samples start.
const SAMPLES_AT: usize = 2;
/// Entries a select sample covers.
const SAMPLE_EVERY: usize = 64;

/// A non-empty, non-decreasing column of at most [`SEGMENT_SESSIONS`]
/// timestamps in Elias–Fano form.
#[derive(Debug)]
pub(super) struct EliasFano {
    words: Box<[u64]>,
}

/// The fields of the meta word, unpacked.
#[derive(Clone, Copy)]
struct Meta {
    len: usize,
    low_bits: u32,
    lows_at: usize,
    highs_at: usize,
}

impl Meta {
    fn unpack(word: u64) -> Self {
        let field = |at: u32| (word >> at) as u16 as usize;
        Self { len: field(0), low_bits: field(16) as u32, lows_at: field(32), highs_at: field(48) }
    }

    fn pack(self) -> u64 {
        [self.len, self.low_bits as usize, self.lows_at, self.highs_at]
            .into_iter()
            .rev()
            .fold(0, |word, field| word << 16 | field as u64)
    }
}

impl EliasFano {
    /// Codes `column`, which is walked twice: once to size the array and
    /// check the order, once to fill it.
    ///
    /// # Panics
    ///
    /// If the column is empty, longer than [`SEGMENT_SESSIONS`] or
    /// decreases anywhere.
    pub(super) fn new(column: impl Iterator<Item = Timestamp> + Clone) -> Self {
        let mut sizing = column.clone();
        let base = sizing.next().expect("a timestamp column is not empty");
        let (len, last) = sizing.fold((1usize, base), |(len, last), t| {
            assert!(last <= t, "timestamps decrease at row {len}: {last} then {t}");
            (len + 1, t)
        });
        let span = last - base;
        // ⌊log₂(span / n)⌋: the width that keeps every high part below 2n.
        let low_bits = if span >= len as u64 { (span / len as u64).ilog2() } else { 0 };
        // Fewer than 3n bits: every position, and every start, fits a `u16`.
        assert!(len <= SEGMENT_SESSIONS, "a column of {len} timestamps is too long");
        let high_len = len + (span >> low_bits) as usize;
        let lows_at = SAMPLES_AT + len.div_ceil(SAMPLE_EVERY).div_ceil(4);
        let highs_at = lows_at + (len * low_bits as usize).div_ceil(64);
        let meta = Meta { len, low_bits, lows_at, highs_at };

        let mut words = vec![0u64; highs_at + high_len.div_ceil(64)].into_boxed_slice();
        words[0] = base;
        words[1] = meta.pack();
        let low_mask = (1u64 << low_bits) - 1;
        for (i, t) in column.enumerate() {
            let offset = t - base;
            if low_bits > 0 {
                let at = lows_at * 64 + i * low_bits as usize;
                let low = offset & low_mask;
                words[at / 64] |= low << (at % 64);
                if at % 64 + low_bits as usize > 64 {
                    words[at / 64 + 1] |= low >> (64 - at % 64);
                }
            }
            let position = (offset >> low_bits) as usize + i;
            words[highs_at + position / 64] |= 1 << (position % 64);
            if i % SAMPLE_EVERY == 0 {
                let sample = i / SAMPLE_EVERY;
                words[SAMPLES_AT + sample / 4] |= (position as u64) << (16 * (sample % 4));
            }
        }
        Self { words }
    }

    fn meta(&self) -> Meta {
        Meta::unpack(self.words[1])
    }

    /// Number of entries.
    #[inline]
    pub(super) fn len(&self) -> usize {
        self.meta().len
    }

    /// Heap bytes of the array.
    pub(super) fn bytes(&self) -> usize {
        8 * self.words.len()
    }

    /// The low part of entry `i`.
    #[inline]
    fn low(&self, meta: Meta, i: usize) -> u64 {
        if meta.low_bits == 0 {
            return 0;
        }
        let at = meta.lows_at * 64 + i * meta.low_bits as usize;
        let (word, shift) = (at / 64, at % 64);
        let mut low = self.words[word] >> shift;
        if shift + meta.low_bits as usize > 64 {
            low |= self.words[word + 1] << (64 - shift);
        }
        low & ((1u64 << meta.low_bits) - 1)
    }

    /// Entry `i`.
    ///
    /// # Panics
    ///
    /// If `i` is out of range.
    #[inline]
    pub(super) fn get(&self, i: usize) -> Timestamp {
        let meta = self.meta();
        assert!(i < meta.len, "row {i} of a {}-row column", meta.len);
        let sample = i / SAMPLE_EVERY;
        let from = (self.words[SAMPLES_AT + sample / 4] >> (16 * (sample % 4))) as u16 as usize;
        // Set bits to pass over from the sampled one: entry `i`'s is the
        // `rest`-th (from 0) at or after it.
        let mut rest = (i % SAMPLE_EVERY) as u64;
        let mut word = meta.highs_at + from / 64;
        let mut bits = self.words[word] & (u64::MAX << (from % 64));
        let mut ranks = byte_ranks(bits);
        while ranks >> 56 <= rest {
            rest -= ranks >> 56;
            word += 1;
            bits = self.words[word];
            ranks = byte_ranks(bits);
        }
        let position = (word - meta.highs_at) * 64 + select(bits, ranks, rest) as usize;
        self.value(meta, i, position)
    }

    /// Entry `i`, whose unary bit is at `position`.
    #[inline]
    fn value(&self, meta: Meta, i: usize, position: usize) -> Timestamp {
        let high = (position - i) as u64;
        self.words[0] + ((high << meta.low_bits) | self.low(meta, i))
    }

    /// The entries in order, decoded one word of high parts at a time: no
    /// select.
    pub(super) fn iter(&self) -> Iter<'_> {
        let meta = self.meta();
        Iter { column: self, meta, i: 0, word: meta.highs_at, bits: self.words[meta.highs_at] }
    }
}

/// `0x01` in every byte.
const ONES: u64 = 0x0101_0101_0101_0101;
/// `0x80` in every byte.
const HIGHS: u64 = 0x8080_8080_8080_8080;

/// Byte `j` of the result is the number of set bits in bytes `0..=j` of
/// `word`, so the top byte is its popcount. Broadword, since the baseline
/// x86-64 target has no `popcnt`.
#[inline]
fn byte_ranks(word: u64) -> u64 {
    let pairs = word - ((word >> 1) & 0x5555_5555_5555_5555);
    let nibbles = (pairs & 0x3333_3333_3333_3333) + ((pairs >> 2) & 0x3333_3333_3333_3333);
    ((nibbles + (nibbles >> 4)) & 0x0f0f_0f0f_0f0f_0f0f).wrapping_mul(ONES)
}

/// `SELECT_IN_BYTE[rank][byte]`: the position of set bit `rank` (from 0)
/// of `byte`, for every byte with more than `rank` set bits.
static SELECT_IN_BYTE: [[u8; 256]; 8] = {
    let mut table = [[0; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        let (mut bit, mut rank) = (0, 0);
        while bit < 8 {
            if byte >> bit & 1 == 1 {
                table[rank][byte] = bit as u8;
                rank += 1;
            }
            bit += 1;
        }
        byte += 1;
    }
    table
};

/// The position of set bit `rank` (counted from 0) of `word`, which has
/// more than `rank` set bits and `byte_ranks(word) = ranks`: the byte that
/// holds it, then the bit in that byte, each found without a branch.
#[inline]
fn select(word: u64, ranks: u64, rank: u64) -> u32 {
    // The high bit of byte `j` is set where bytes `0..=j` hold at most
    // `rank` set bits (no byte borrows: `rank` < 64 and a byte's count
    // ≤ 64); the bytes that do are a prefix, and their number is the byte
    // that holds the bit.
    let at_most = (((rank * ONES) | HIGHS) - ranks) & HIGHS;
    let byte = ((at_most >> 7).wrapping_mul(ONES) >> 56) as u32;
    let before = (ranks << 8 >> (8 * byte)) & 0xff;
    let bits = (word >> (8 * byte)) as u8;
    8 * byte + u32::from(SELECT_IN_BYTE[(rank - before) as usize][bits as usize])
}

/// The entries of an [`EliasFano`] column in order.
#[derive(Clone)]
pub(super) struct Iter<'a> {
    column: &'a EliasFano,
    meta: Meta,
    /// The next entry.
    i: usize,
    /// The word of high parts being read, and its set bits not yet read.
    word: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = Timestamp;

    #[inline]
    fn next(&mut self) -> Option<Timestamp> {
        if self.i == self.meta.len {
            return None;
        }
        while self.bits == 0 {
            self.word += 1;
            self.bits = self.column.words[self.word];
        }
        let position = (self.word - self.meta.highs_at) * 64 + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        let t = self.column.value(self.meta, self.i, position);
        self.i += 1;
        Some(t)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.meta.len - self.i;
        (rest, Some(rest))
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn coded(column: &[Timestamp]) -> EliasFano {
        EliasFano::new(column.iter().copied())
    }

    #[test]
    fn reads_back_every_entry_at_random_and_in_order() {
        let column: Vec<Timestamp> = (0..1_000u64).map(|i| 1_000 + i * i / 3).collect();
        let ef = coded(&column);
        assert_eq!(ef.len(), column.len());
        assert!(ef.iter().eq(column.iter().copied()));
        for (i, &t) in column.iter().enumerate().rev() {
            assert_eq!(ef.get(i), t, "row {i}");
        }
    }

    #[test]
    fn select_finds_every_set_bit_of_a_word() {
        let mut state = 5u64;
        for _ in 0..1_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let word = state & state.rotate_left(17) | 1 << (state >> 58);
            let ranks = byte_ranks(word);
            assert_eq!(ranks >> 56, u64::from(word.count_ones()));
            let positions = (0..64).filter(|&bit| word >> bit & 1 == 1);
            for (rank, position) in positions.enumerate() {
                assert_eq!(select(word, ranks, rank as u64), position, "{word:#x}, rank {rank}");
            }
        }
    }

    #[test]
    fn a_constant_column_has_no_low_bits() {
        let ef = coded(&[u64::MAX; 130]);
        assert_eq!(ef.meta().low_bits, 0);
        assert_eq!((ef.get(0), ef.get(129)), (u64::MAX, u64::MAX));
        // Base, meta, three samples and 130 unary bits.
        assert_eq!(ef.bytes(), 8 * (2 + 1 + 3));
    }
}
