//! The timestamp column `t` of a segment, in Elias–Fano form: every row
//! reads back what was stored, at random and in order, for any
//! non-decreasing column a segment can hold; its size is the layout's and
//! nothing more; a decreasing column is refused.

use proptest::prelude::*;
use serenade_core::index::{Segment, SEGMENT_SESSIONS};
use serenade_core::{Click, SessionIndex, Timestamp};

/// A segment of one single-slot row a timestamp.
fn segment(column: &[Timestamp]) -> Segment {
    let offsets: Vec<u32> = (0..=column.len() as u32).collect();
    Segment::new(column.iter().copied(), &offsets, &vec![0; column.len()])
}

/// The layout's bytes for `column`, with `ℓ = ⌊log₂(span / n)⌋`: the base
/// and the meta word, a 16-bit select sample every 64 rows, `n` low parts
/// of `ℓ` bits and `n + (span >> ℓ)` unary bits, each part in whole words.
fn layout_bytes(column: &[Timestamp]) -> usize {
    let n = column.len() as u64;
    let span = column[column.len() - 1] - column[0];
    let low_bits = if span >= n { u64::from((span / n).ilog2()) } else { 0 };
    let words = 2
        + n.div_ceil(64).div_ceil(4)
        + (n * low_bits).div_ceil(64)
        + (n + (span >> low_bits)).div_ceil(64);
    8 * words as usize
}

/// Increases between neighbours, by the shape of column they make from
/// random words: all equal (span 0), mostly equal (span < n), dense
/// (span ≥ n), and dense with gaps of 2³² and 2⁶³ — a sum that would leave
/// the `u64` range stays at `u64::MAX`, a run of equal values.
fn increases() -> impl Strategy<Value = Vec<u64>> {
    (0..4u8, proptest::collection::vec(any::<u64>(), 0..SEGMENT_SESSIONS)).prop_map(
        |(shape, words)| {
            let increase = |word: u64| match shape {
                0 => 0,
                1 => u64::from(word.is_multiple_of(8)),
                2 => word % 1_001,
                _ => match word % 22 {
                    0 => 1 << 32,
                    1 => 1 << 63,
                    rest => rest % 65,
                },
            };
            words.into_iter().map(increase).collect()
        },
    )
}

fn base() -> impl Strategy<Value = Timestamp> {
    prop_oneof![0u64..=1_000, any::<u64>(), u64::MAX - 5_000..=u64::MAX]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    #[test]
    fn every_row_reads_back_at_random_and_in_order(base in base(), increases in increases()) {
        let column: Vec<Timestamp> = std::iter::once(base)
            .chain(increases.iter().scan(base, |t, &by| {
                *t = t.saturating_add(by);
                Some(*t)
            }))
            .collect();
        let segment = segment(&column);
        prop_assert_eq!(segment.len(), column.len());
        for (row, &t) in column.iter().enumerate() {
            prop_assert_eq!(segment.timestamp(row), t, "row {} of {}", row, column.len());
        }
        prop_assert!(segment.timestamps().eq(column.iter().copied()));
        prop_assert_eq!(segment.timestamps().len(), column.len());
        prop_assert_eq!(segment.timestamp_bytes(), layout_bytes(&column));
    }
}

#[test]
#[should_panic(expected = "timestamps decrease at row 2")]
fn a_decreasing_column_is_refused() {
    segment(&[5, 7, 6]);
}

#[test]
fn a_dense_log_takes_under_a_byte_a_session() {
    // 4,096 sessions, one every 0–20 s: ℓ = 3, so about 5 bits a session
    // and the samples, where 8-byte timestamps took 32 KiB.
    let mut state = 7u64;
    let mut t = 1_700_000_000;
    let clicks: Vec<Click> = (0..SEGMENT_SESSIONS as u64)
        .map(|session| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            t += (state >> 33) % 21;
            Click::new(session, session % 50, t)
        })
        .collect();
    let index = SessionIndex::build(&clicks, 100).expect("non-empty log");
    let bytes = index.bytes().timestamps;
    assert!(bytes <= SEGMENT_SESSIONS, "{bytes} bytes for {SEGMENT_SESSIONS} sessions");
    let column: Vec<Timestamp> = index.segments()[0].timestamps().collect();
    assert_eq!((index.segments().len(), bytes), (1, layout_bytes(&column)));
}
