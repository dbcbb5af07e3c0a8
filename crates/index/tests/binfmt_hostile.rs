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
//! * declared counts larger than the bytes present are rejected **before**
//!   any allocation sized from them — a 16-byte hostile frame must not be
//!   able to request gigabytes;
//! * a declared payload length beyond `MAX_PAYLOAD_BYTES` is rejected
//!   before any payload read;
//! * an artefact of format version 2 is rejected, naming the version;
//! * a checksummed artefact whose *contents* break the layout or the order
//!   the kernel relies on — timestamps that decrease with the dense id, a
//!   posting with an ascending pair, a slot out of range, a slot table out
//!   of order, posting offsets that decrease or overrun, a posting longer
//!   than its support — is rejected by name, not served.

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

/// Wraps a raw payload in a well-formed header + trailer (correct magic,
/// length and checksum), so only the payload's *contents* are hostile.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 48);
    out.extend_from_slice(b"SRNIDX\x03\x00");
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(b"SRNEND\x03\x00");
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(payload).to_le_bytes());
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
        bytes.extend_from_slice(b"SRNIDX\x03\x00");
        bytes.extend_from_slice(&claim.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        assert_clean_corrupt(&bytes, "oversized declared payload");
    }
}

/// A payload of little-endian fields, `u64` or `u32` as written.
#[derive(Clone, Copy)]
enum Field {
    U64(u64),
    U32(u32),
}

fn payload(fields: &[Field]) -> Vec<u8> {
    let mut out = Vec::new();
    for field in fields {
        match *field {
            Field::U64(v) => out.extend_from_slice(&v.to_le_bytes()),
            Field::U32(v) => out.extend_from_slice(&v.to_le_bytes()),
        }
    }
    out
}

#[test]
fn declared_counts_cannot_out_allocate_the_payload() {
    // Valid checksum, hostile structure: every declared count or length
    // field is probed with values far beyond what the payload holds. A
    // reader that allocates from declared counts would request gigabytes
    // here.
    use Field::{U32, U64};
    let huge = [u64::MAX, u64::MAX / 8, u32::MAX as u64, 1 << 40];
    // m_max, no sessions, and the one offset of no sessions.
    let empty_sessions = [U64(8), U64(0), U32(0)];

    for &n in &huge {
        let probes: [(&str, Vec<Field>); 5] = [
            ("session count", vec![U64(8), U64(n)]),
            ("entry count", [&empty_sessions[..], &[U64(n)]].concat()),
            ("slot count", [&empty_sessions[..], &[U64(0), U64(n)]].concat()),
            // One slot whose posting offsets claim a posting of up to
            // u32::MAX entries in an empty arena. (Saturated: a truncating
            // cast could wrap a hostile length to a harmless one.)
            (
                "posting offsets",
                [
                    &empty_sessions[..],
                    &[U64(0), U64(1), U64(7), U32(1), U32(0)],
                    &[U32(n.min(u64::from(u32::MAX)) as u32), U64(0)],
                ]
                .concat(),
            ),
            ("arena length", [&empty_sessions[..], &[U64(0), U64(0), U32(0), U64(n)]].concat()),
        ];
        for (what, fields) in probes {
            assert_clean_corrupt(&frame(&payload(&fields)), &format!("hostile {what} {n}"));
        }
    }
}

#[test]
fn a_version_2_artefact_is_rejected_naming_its_version() {
    // A genuine version-2 artefact of one session holding item 7: the
    // session block, then the item as its 8-byte id, then one posting with
    // its item id, support, length and entry, under byte-wise FNV-1a.
    use Field::{U32, U64};
    let body = payload(&[
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

/// The sample artefact's payload and where its columns start.
struct Sample {
    payload: Vec<u8>,
    /// The sessions' slots, the slot table, the supports, the posting
    /// offsets and the arena (whose first entries are slot 0's posting:
    /// item 0, eight descending session ids).
    slots: usize,
    slot_table: usize,
    supports: usize,
    posting_offsets: usize,
    arena: usize,
    /// Slot count and arena length.
    num_slots: usize,
    arena_len: usize,
}

fn sample() -> Sample {
    let artefact = sample_artefact();
    let payload = artefact[24..artefact.len() - 24].to_vec();
    let u64_at = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().unwrap()) as usize;
    let sessions = u64_at(8);
    let entries_at = 16 + 8 * sessions + 4 * (sessions + 1);
    let slots = entries_at + 8;
    let num_slots_at = slots + 4 * u64_at(entries_at);
    let num_slots = u64_at(num_slots_at);
    let slot_table = num_slots_at + 8;
    let supports = slot_table + 8 * num_slots;
    let posting_offsets = supports + 4 * num_slots;
    let arena_len_at = posting_offsets + 4 * (num_slots + 1);
    let arena_len = u64_at(arena_len_at);
    let arena = arena_len_at + 8;
    assert_eq!(arena + 4 * arena_len, payload.len(), "the layout of the module docs");
    Sample { payload, slots, slot_table, supports, posting_offsets, arena, num_slots, arena_len }
}

fn put_u32(payload: &mut [u8], at: usize, value: u32) {
    payload[at..at + 4].copy_from_slice(&value.to_le_bytes());
}

#[test]
fn timestamps_that_decrease_with_the_id_are_rejected_by_name() {
    // The id is the kernel's recency key only while `t` ascends with it.
    // Swapping two sessions' timestamps leaves every other invariant
    // intact — and used to load.
    let mut payload = sample().payload;
    let (t3, t4) = (16 + 8 * 3, 16 + 8 * 4);
    let (older, newer) = payload[t3..t4 + 8].split_at_mut(8);
    older.swap_with_slice(newer);
    let reason = rejection(&payload);
    assert!(reason.contains("session 4 is older than session 3"), "{reason}");
}

#[test]
fn a_posting_with_an_ascending_pair_is_rejected() {
    let Sample { mut payload, arena, .. } = sample();
    let (newest, next) = payload[arena..arena + 8].split_at_mut(4);
    newest.swap_with_slice(next);
    let reason = rejection(&payload);
    assert!(reason.contains("item 0 not in descending recency order"), "{reason}");
}

#[test]
fn a_slot_at_or_beyond_the_slot_count_is_rejected_by_name() {
    let Sample { mut payload, slots, num_slots, .. } = sample();
    put_u32(&mut payload, slots, num_slots as u32);
    let reason = rejection(&payload);
    assert!(reason.contains(&format!("slot {num_slots} is not below the slot count")), "{reason}");
}

#[test]
fn a_slot_table_out_of_order_is_rejected_by_name() {
    // Swapped (each posting then sits under another item's id), or one id
    // twice (two postings under one id).
    let Sample { payload, slot_table, .. } = sample();
    let (first, second) = (slot_table, slot_table + 8);
    let mut swapped = payload.clone();
    let (a, b) = swapped[first..second + 8].split_at_mut(8);
    a.swap_with_slice(b);
    let mut repeated = payload;
    repeated.copy_within(first..second, second);
    for payload in [swapped, repeated] {
        let reason = rejection(&payload);
        assert!(reason.contains("slot table not strictly ascending at slot 1"), "{reason}");
    }
}

#[test]
fn posting_offsets_that_decrease_or_overrun_are_rejected_by_name() {
    let Sample { payload, posting_offsets, num_slots, arena_len, .. } = sample();
    let offset = |slot: usize| posting_offsets + 4 * slot;
    let read = |payload: &[u8], slot: usize| {
        u32::from_le_bytes(payload[offset(slot)..offset(slot) + 4].try_into().unwrap())
    };
    let mut decreasing = payload.clone();
    put_u32(&mut decreasing, offset(1), read(&payload, 2) + 1);
    let reason = rejection(&decreasing);
    assert!(reason.contains("posting offsets decrease after slot 1"), "{reason}");

    let mut overrunning = payload.clone();
    put_u32(&mut overrunning, offset(num_slots), arena_len as u32 + 1);
    let reason = rejection(&overrunning);
    assert!(reason.contains("posting offsets overrun"), "{reason}");

    let mut not_at_zero = payload;
    put_u32(&mut not_at_zero, offset(0), 1);
    let reason = rejection(&not_at_zero);
    assert!(reason.contains("posting offsets do not start at 0"), "{reason}");
}

#[test]
fn a_posting_longer_than_its_support_is_rejected_by_name() {
    let Sample { mut payload, supports, .. } = sample();
    put_u32(&mut payload, supports, 1); // item 0's posting holds eight
    let reason = rejection(&payload);
    assert!(reason.contains("item 0 longer than its support"), "{reason}");
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
