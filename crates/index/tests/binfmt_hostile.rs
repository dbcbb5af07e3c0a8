//! Structured fuzz-style suite for [`serenade_index::binfmt::read_index`]
//! on hostile bytes.
//!
//! The binary index format is the artifact-*distribution* format: the
//! router tier pushes these bytes over sockets to serving nodes, so the
//! reader must survive attacker-controlled input. The contract under test:
//!
//! * **no panic** on any input — every malformation is a clean
//!   [`BinError`];
//! * truncation at *any* byte offset is rejected;
//! * any single bit flip anywhere in the stream is rejected (the four-lane
//!   checksum over the payload plus the length/checksum trailer covers
//!   every region);
//! * a varint that is overlong or runs off the payload is rejected;
//! * declared counts larger than the bytes present are rejected **before**
//!   any allocation sized from them — every value takes at least a byte, so
//!   a few hostile bytes must not be able to request gigabytes;
//! * a declared payload length beyond `MAX_PAYLOAD_BYTES` is rejected
//!   before any payload read;
//! * artefacts of format versions 2 and 3 are rejected, naming the version;
//! * a checksummed artefact whose *values* break the layout or an order
//!   the kernel relies on — a slot at or past the slot count, a row that
//!   repeats an item, an item-id increase of zero or one that overflows, a
//!   timestamp increase that overflows (the only way to write a timestamp
//!   that decreases with the dense id), a slot no session holds — is
//!   rejected by name, not served.

use proptest::collection::vec;
use proptest::prelude::*;
use serenade_core::{Click, CoreError, SessionIndex};
use serenade_index::binfmt::{read_index, write_index, BinError, MAX_PAYLOAD_BYTES};

fn sample_artefact() -> Vec<u8> {
    let mut clicks = Vec::new();
    for s in 0..30u64 {
        clicks.push(Click::new(s + 1, s % 5, 100 + s * 10));
        clicks.push(Click::new(s + 1, (s + 1) % 5, 101 + s * 10));
    }
    let index = SessionIndex::build(&clicks, 8).unwrap();
    let mut out = Vec::new();
    write_index(&index, &mut out).unwrap();
    out
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// The format's checksum, written from its definition (word `w` of the
/// payload feeds lane `w % 4`, the lanes fold by XOR, lane `j` rotated left
/// by `16 j`, then FNV-1a over the bytes of no whole word) — so hostile
/// frames can carry a *valid* checksum and exercise the structural
/// validation behind it, not just the checksum gate.
fn checksum(payload: &[u8]) -> u64 {
    let whole = payload.len() / 8 * 8;
    let mut lanes = [FNV_OFFSET; 4];
    for (w, word) in payload[..whole].chunks(8).enumerate() {
        let word = u64::from_le_bytes(word.try_into().unwrap());
        lanes[w % 4] = (lanes[w % 4] ^ word).wrapping_mul(FNV_PRIME);
    }
    let mut hash = 0;
    for (j, lane) in lanes.iter().enumerate() {
        hash ^= lane.rotate_left(16 * j as u32);
    }
    for &byte in &payload[whole..] {
        hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Wraps a raw payload in a well-formed header + trailer of format
/// `version` (correct magic, length and checksum), so only the payload's
/// *contents* are hostile.
fn frame_version(payload: &[u8], version: u8) -> Vec<u8> {
    let frame = [(payload.len() as u64).to_le_bytes(), checksum(payload).to_le_bytes()].concat();
    let (header, trailer) = ([b'S', b'R', b'N', b'I', b'D', b'X', version, 0], *b"SRNEND\0\0");
    let trailer = [&trailer[..6], &[version, 0]].concat();
    [&header[..], &frame, payload, &trailer, &frame].concat()
}

fn frame(payload: &[u8]) -> Vec<u8> {
    frame_version(payload, 4)
}

/// `values` as LEB128 varints, the payload's one encoding.
fn leb128(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    for &value in values {
        let mut value = value;
        while value >= 0x80 {
            out.push(value as u8 | 0x80);
            value >>= 7;
        }
        out.push(value as u8);
    }
    out
}

fn assert_clean_corrupt(bytes: &[u8], what: &str) {
    match read_index(bytes) {
        Err(BinError::Corrupt(_)) | Err(BinError::Core(_)) => {}
        Ok(_) => panic!("{what}: hostile input was accepted"),
    }
}

/// The reason `payload`, framed, is rejected for: a layout or an index
/// invariant it breaks.
fn rejection(payload: &[u8]) -> String {
    match read_index(&frame(payload)) {
        Err(BinError::Corrupt(reason)) | Err(BinError::Core(CoreError::CorruptIndex(reason))) => {
            reason
        }
        other => panic!("expected a rejection, got {other:?}"),
    }
}

/// The sample artefact's payload as its values, and where its parts start.
struct Sample {
    values: Vec<u64>,
    /// The slot count, and the first value of the slot table.
    num_slots: usize,
    table: usize,
    /// The first session's timestamp, then its row length; the first row's
    /// first slot.
    sessions: usize,
    rows: usize,
}

fn sample() -> Sample {
    let artefact = sample_artefact();
    let mut values = Vec::new();
    let (mut value, mut shift) = (0, 0);
    for &byte in &artefact[24..artefact.len() - 24] {
        value |= u64::from(byte & 0x7f) << shift;
        shift += 7;
        if byte < 0x80 {
            values.push(value);
            (value, shift) = (0, 0);
        }
    }
    let num_slots = values[1] as usize;
    let table = 2;
    let sessions = table + num_slots + 1;
    let rows = sessions + 2 * values[sessions - 1] as usize;
    let entries: u64 = values[sessions..rows].iter().skip(1).step_by(2).sum();
    assert_eq!(rows + entries as usize, values.len(), "the layout of the module docs");
    assert_eq!(leb128(&values), artefact[24..artefact.len() - 24], "every varint is minimal");
    Sample { values, num_slots, table, sessions, rows }
}

#[test]
fn valid_artefact_still_loads() {
    let bytes = sample_artefact();
    let index = read_index(&bytes[..]).expect("well-formed artefact must load");
    assert!(index.num_sessions() > 0);
    // The checksum above is the writer's: re-framing the payload gives the
    // artefact back byte for byte.
    assert_eq!(frame(&bytes[24..bytes.len() - 24]), bytes);
}

#[test]
fn a_value_after_the_last_row_is_rejected_by_name() {
    let mut values = sample().values;
    values.push(0);
    assert_eq!(rejection(&leb128(&values)), "trailing bytes after payload");
}

#[test]
fn every_truncation_is_rejected_without_panic() {
    let bytes = sample_artefact();
    for cut in 0..bytes.len() {
        assert!(
            read_index(&bytes[..cut]).is_err(),
            "truncation at {cut}/{} was accepted",
            bytes.len()
        );
    }
}

#[test]
fn oversized_declared_payload_is_rejected_before_allocation() {
    // A 24-byte frame claiming a multi-exabyte payload: the reader must
    // reject it from the header alone (it parses in place, so even a
    // cap-sized claim allocates nothing).
    for claim in [MAX_PAYLOAD_BYTES + 1, u64::MAX, u64::MAX / 2] {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"SRNIDX\x04\x00");
        bytes.extend_from_slice(&claim.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        assert_clean_corrupt(&bytes, "oversized declared payload");
    }
}

#[test]
fn an_overlong_or_unterminated_varint_is_rejected_by_name() {
    // `m_max` and nothing else, in a varint that ends with the payload.
    assert_eq!(rejection(&[0x88]), "unterminated varint");
    assert_eq!(rejection(&[0x88, 0x80]), "unterminated varint");
    // Eleven bytes; ten that hold more than a `u64`; 8 in two bytes where
    // one holds it.
    let past_u64 = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
    let overlong: [&[u8]; 3] = [&[0x80; 11], &past_u64, &[0x88, 0x00]];
    for bytes in overlong {
        assert_eq!(rejection(bytes), "overlong varint", "{bytes:x?}");
    }
    // A `u64::MAX` is ten bytes and well-formed: it is the count that fails.
    let reason = rejection(&leb128(&[8, u64::MAX]));
    assert!(reason.contains("slot count 18446744073709551615 exceeds"), "{reason}");
}

#[test]
fn declared_counts_cannot_out_allocate_the_payload() {
    // Valid checksum, hostile structure: every declared count is probed with
    // values far beyond what the payload holds. A reader that allocates from
    // declared counts would request gigabytes here; this one rejects each
    // against the bytes that remain before it allocates.
    let huge = [u64::MAX, u64::MAX / 8, u32::MAX as u64, 1 << 40, 3];
    for &n in &huge {
        let probes: [(&str, Vec<u64>, &str); 3] = [
            ("slot count", vec![8, n], "slot count"),
            // No slots, then the sessions.
            ("session count", vec![8, 0, n], "session count"),
            // One slot (item 7), one session at t = 100 whose row claims `n`
            // items, and one slot.
            ("row length", vec![8, 1, 7, 1, 100, n, 0], "more items than"),
        ];
        for (what, values, named) in probes {
            let reason = rejection(&leb128(&values));
            assert!(reason.contains(named), "hostile {what} {n}: {reason}");
        }
    }
}

#[test]
fn a_version_2_artefact_is_rejected_naming_its_version() {
    // A genuine version-2 artefact of one session holding item 7: the
    // session block, then the item as its 8-byte id, then one posting with
    // its item id, support, length and entry, under byte-wise FNV-1a.
    let body = fixed(&[
        U64(8), U64(1), U64(100), U32(0), U32(1), U64(1), U64(7),
        U64(1), U64(7), U32(1), U32(1), U32(0),
    ]);
    let fnv = body.iter().fold(FNV_OFFSET, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME));
    let trailer = [(body.len() as u64).to_le_bytes(), fnv.to_le_bytes()].concat();
    let v2 = [&b"SRNIDX\x02\x00"[..], &trailer, &body, &b"SRNEND\x02\x00"[..], &trailer].concat();
    match read_index(&v2) {
        Err(BinError::Corrupt(reason)) => assert!(reason.contains("version 2"), "{reason}"),
        other => panic!("a version-2 artefact must be rejected, got {other:?}"),
    }
}

#[test]
fn a_version_3_artefact_is_rejected_naming_its_version() {
    // A genuine version-3 artefact of one session holding item 7, under the
    // four-lane checksum that format shares with this one: m_max, the
    // sessions' timestamps and offsets, their slots, the slot table, the
    // supports, the posting offsets and the arena, every value 4 or 8 bytes.
    let body = fixed(&[
        U64(8), U64(1), U64(100), U32(0), U32(1), U64(1), U32(0),
        U64(1), U64(7), U32(1), U32(0), U32(1), U64(1), U32(0),
    ]);
    match read_index(&frame_version(&body, 3)) {
        Err(BinError::Corrupt(reason)) => {
            assert!(reason.contains("format version 3; this reader reads version 4"), "{reason}")
        }
        other => panic!("a version-3 artefact must be rejected, got {other:?}"),
    }
}

/// A fixed-width field of an earlier format version.
#[derive(Clone, Copy)]
enum Field {
    U64(u64),
    U32(u32),
}
use Field::{U32, U64};

fn fixed(fields: &[Field]) -> Vec<u8> {
    let mut out = Vec::new();
    for field in fields {
        match *field {
            U64(v) => out.extend_from_slice(&v.to_le_bytes()),
            U32(v) => out.extend_from_slice(&v.to_le_bytes()),
        }
    }
    out
}

#[test]
fn timestamps_that_decrease_with_the_id_are_rejected_by_name() {
    // The id is the kernel's recency key only while `t` ascends with it. A
    // timestamp is stored as its increase over the one before, so the only
    // way to write a smaller one is an increase that wraps around.
    let Sample { mut values, sessions, .. } = sample();
    values[sessions + 2 * 4] = u64::MAX - 5;
    let reason = rejection(&leb128(&values));
    assert!(reason.contains("timestamp of session 4 overflows u64"), "{reason}");
}

#[test]
fn a_row_that_is_not_strictly_ascending_is_rejected_by_name() {
    // A slot repeated within a row — an increase of 0 — would enter the
    // session into one posting twice.
    let Sample { values, rows, sessions, .. } = sample();
    assert_eq!(values[sessions + 1], 2, "the first row holds two items");
    let mut repeated = values.clone();
    repeated[rows + 1] = 0;
    let reason = rejection(&leb128(&repeated));
    assert!(reason.contains("the row of session 0 is not strictly ascending"), "{reason}");
    // A session holds at least one item.
    let mut empty = values;
    empty[sessions + 1] = 0;
    let reason = rejection(&leb128(&empty));
    assert!(reason.contains("session 0 holds no item"), "{reason}");
}

#[test]
fn a_slot_at_or_beyond_the_slot_count_is_rejected_by_name() {
    let Sample { values, num_slots, rows, .. } = sample();
    // The first slot of a row, and a later one reached by an increase.
    let mut first = values.clone();
    first[rows] = num_slots as u64;
    let mut increase = values.clone();
    increase[rows + 1] = num_slots as u64;
    let mut wrapping = values;
    wrapping[rows + 1] = u64::MAX;
    for (values, slot) in [(first, num_slots as u64), (increase, 5), (wrapping, u64::MAX)] {
        let reason = rejection(&leb128(&values));
        let named = format!("slot {slot} is not below the slot count {num_slots}");
        assert!(reason.contains(&named), "{reason}");
    }
}

#[test]
fn a_slot_table_out_of_order_is_rejected_by_name() {
    // One id twice (an increase of 0), or a smaller id after a larger (an
    // increase that overflows `u64`: ids are stored as increases).
    let Sample { values, table, .. } = sample();
    let mut repeated = values.clone();
    repeated[table + 1] = 0;
    let mut smaller = values;
    smaller[table + 1] = u64::MAX;
    smaller[table] = 3;
    for values in [repeated, smaller] {
        let reason = rejection(&leb128(&values));
        assert!(reason.contains("slot table not strictly ascending at slot 1"), "{reason}");
    }
}

#[test]
fn a_slot_no_session_holds_is_rejected_by_name() {
    // Item 5, after the sample's items 0–4, in the slot table but in no row:
    // it would have no posting.
    let Sample { mut values, num_slots, table, .. } = sample();
    values[1] += 1;
    values.insert(table + num_slots, 1);
    match read_index(&frame(&leb128(&values))) {
        Err(BinError::Core(CoreError::CorruptIndex(reason))) => {
            assert!(reason.contains("item 5 (slot 5) is in no session"), "{reason}")
        }
        other => panic!("expected a rejection, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    // Any single bit flip anywhere in a valid artefact is rejected. In the
    // payload it changes one word, and a change confined to one word always
    // changes the checksum: each lane step `h ↦ (h ⊕ w) · p` is a bijection
    // of the lane for a fixed word and of the word for a fixed lane, so the
    // lane that took the word ends differently; the fold XORs the lanes each
    // rotated by its own amount, so it differs with it; and the byte-wise
    // tail steps are bijections too. In the frames, header and trailer
    // cross-check each other and the magics are compared byte-for-byte.
    #[test]
    fn any_single_bit_flip_is_rejected(
        byte_pick in any::<u64>(),
        bit in 0usize..8,
    ) {
        let mut bytes = sample_artefact();
        let pos = (byte_pick % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << bit;
        prop_assert!(
            read_index(&bytes[..]).is_err(),
            "bit {} of byte {} flipped and the artefact was still accepted",
            bit, pos
        );
    }

    // Random truncation points (denser sampling than the exhaustive unit
    // test allows on bigger artefacts) are rejected without panic.
    #[test]
    fn random_truncations_are_rejected(cut_pick in any::<u64>()) {
        let bytes = sample_artefact();
        let cut = (cut_pick % bytes.len() as u64) as usize;
        prop_assert!(read_index(&bytes[..cut]).is_err(), "cut at {} accepted", cut);
    }

    // Pure garbage never panics; acceptance would require forging magic,
    // checksum, trailer and structural validation all at once.
    #[test]
    fn random_garbage_never_panics(bytes in vec(any::<u8>(), 0..512)) {
        prop_assert!(read_index(&bytes[..]).is_err());
    }

    // Hostile-but-checksummed payloads (random structure bytes behind a
    // valid header/trailer) are cleanly rejected by structural validation.
    #[test]
    fn checksummed_garbage_payloads_fail_cleanly(payload in vec(any::<u8>(), 0..256)) {
        let framed = frame(&payload);
        // Either rejected outright, or (for the rare structurally-valid
        // accident) a well-formed index — never a panic. An empty payload
        // can't happen from the writer but must still not crash the reader.
        let _ = read_index(&framed[..]);
    }
}
