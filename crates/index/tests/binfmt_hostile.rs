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
//! * any single bit flip anywhere in the stream is rejected (FNV-1a over
//!   the payload plus the length/checksum trailer covers every region);
//! * declared counts larger than the bytes present are rejected **before**
//!   any allocation sized from them — a 16-byte hostile frame must not be
//!   able to request gigabytes;
//! * a declared payload length beyond `MAX_PAYLOAD_BYTES` is rejected
//!   before any payload read;
//! * a checksummed artefact whose *contents* break the order the kernel
//!   relies on — timestamps that decrease with the dense id, a posting with
//!   an ascending pair — is rejected by name, not served.

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

/// FNV-1a over a byte slice — mirrors the writer so hostile frames can
/// carry a *valid* checksum and exercise the structural validation behind
/// it, not just the checksum gate.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Wraps a raw payload in a well-formed header + trailer (correct magic,
/// length and checksum), so only the payload's *contents* are hostile.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 48);
    out.extend_from_slice(b"SRNIDX\x02\x00");
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(b"SRNEND\x02\x00");
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out
}

fn assert_clean_corrupt(bytes: &[u8], what: &str) {
    match read_index(bytes) {
        Err(BinError::Corrupt(_)) | Err(BinError::Core(_)) => {}
        Ok(_) => panic!("{what}: hostile input was accepted"),
    }
}

#[test]
fn valid_artefact_still_loads() {
    let bytes = sample_artefact();
    let index = read_index(&bytes[..]).expect("well-formed artefact must load");
    assert!(index.num_sessions() > 0);
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
        bytes.extend_from_slice(b"SRNIDX\x02\x00");
        bytes.extend_from_slice(&claim.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        assert_clean_corrupt(&bytes, "oversized declared payload");
    }
}

#[test]
fn declared_counts_cannot_out_allocate_the_payload() {
    // Valid checksum, hostile structure: every declared count field is
    // probed with values far beyond what the payload holds. A reader that
    // allocates from declared counts would request gigabytes here.
    let huge = [u64::MAX, u64::MAX / 8, u32::MAX as u64, 1 << 40];

    for &n in &huge {
        // num_sessions
        let mut payload = Vec::new();
        payload.extend_from_slice(&8u64.to_le_bytes()); // m_max
        payload.extend_from_slice(&n.to_le_bytes());
        assert_clean_corrupt(&frame(&payload), "hostile num_sessions");

        // flat item count, behind a minimal valid session block
        let mut payload = Vec::new();
        payload.extend_from_slice(&8u64.to_le_bytes()); // m_max
        payload.extend_from_slice(&0u64.to_le_bytes()); // num_sessions = 0
        payload.extend_from_slice(&0u32.to_le_bytes()); // offsets[0]
        payload.extend_from_slice(&n.to_le_bytes()); // flat_len
        assert_clean_corrupt(&frame(&payload), "hostile flat_len");

        // posting count
        let mut payload = Vec::new();
        payload.extend_from_slice(&8u64.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes()); // flat_len = 0
        payload.extend_from_slice(&n.to_le_bytes()); // num_postings
        assert_clean_corrupt(&frame(&payload), "hostile num_postings");

        // per-posting session-list length
        let mut payload = Vec::new();
        payload.extend_from_slice(&8u64.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&1u64.to_le_bytes()); // one posting
        payload.extend_from_slice(&7u64.to_le_bytes()); // item id
        payload.extend_from_slice(&1u32.to_le_bytes()); // support
        // Saturate: plen is a u32 field, and a truncating cast could wrap
        // a hostile count to a harmlessly small (even zero) one.
        payload.extend_from_slice(&(n.min(u32::MAX as u64) as u32).to_le_bytes()); // plen
        assert_clean_corrupt(&frame(&payload), "hostile posting length");
    }
}

/// The sample artefact's payload and the offset of its first posting's
/// entries (item 0: eight descending session ids).
fn sample_payload() -> (Vec<u8>, usize) {
    let artefact = sample_artefact();
    let payload = artefact[24..artefact.len() - 24].to_vec();
    let u64_at = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().unwrap()) as usize;
    let sessions = u64_at(8);
    let flat_len_at = 16 + 8 * sessions + 4 * (sessions + 1);
    let first_posting = flat_len_at + 8 + 8 * u64_at(flat_len_at) + 8;
    (payload, first_posting + 8 + 4 + 4)
}

fn core_rejection(payload: &[u8]) -> String {
    match read_index(&frame(payload)) {
        Err(BinError::Core(CoreError::CorruptIndex(reason))) => reason,
        other => panic!("expected an index-invariant rejection, got {other:?}"),
    }
}

#[test]
fn timestamps_that_decrease_with_the_id_are_rejected_by_name() {
    // The id is the kernel's recency key only while `t` ascends with it.
    // Swapping two sessions' timestamps leaves every other invariant
    // intact — and used to load.
    let (mut payload, _) = sample_payload();
    let (t3, t4) = (16 + 8 * 3, 16 + 8 * 4);
    let (older, newer) = payload[t3..t4 + 8].split_at_mut(8);
    older.swap_with_slice(newer);
    let reason = core_rejection(&payload);
    assert!(reason.contains("session 4 is older than session 3"), "{reason}");
}

#[test]
fn a_posting_with_an_ascending_pair_is_rejected() {
    let (mut payload, entries) = sample_payload();
    let (newest, next) = payload[entries..entries + 8].split_at_mut(4);
    newest.swap_with_slice(next);
    let reason = core_rejection(&payload);
    assert!(reason.contains("item 0 not in descending recency order"), "{reason}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    // Any single bit flip anywhere in a valid artefact is rejected: the
    // payload is covered by FNV-1a (single-byte steps are injective, so a
    // one-bit change always changes the hash), the header and trailer
    // cross-check each other, and the magics are compared byte-for-byte.
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
