//! Versioned binary serialisation of the session index.
//!
//! The paper ships the Spark-built index as compressed Avro files that the
//! serving pods ingest at startup. Here the artefact is a purpose-built
//! little-endian format with a magic header, a version byte, an FNV-1a
//! checksum over the payload, and a length/checksum **trailer** repeated at
//! the end of the stream, so a corrupted or truncated artefact is rejected
//! before it can serve garbage. A posting is stored as it is held in memory
//! — its dense session ids — and structural invariants are re-validated on
//! load via [`SessionIndex::from_parts`].
//!
//! # Hostile-input posture
//!
//! This is the artifact-*distribution* format: the router tier pushes these
//! bytes over sockets to serving nodes, so [`read_index`] must treat its
//! input as attacker-controlled (the fuzz-style suite in
//! `tests/binfmt_hostile.rs` drives this):
//!
//! * the artefact is parsed where it lies, in the caller's buffer, so a
//!   hostile length allocates nothing, and the declared payload length is
//!   capped ([`MAX_PAYLOAD_BYTES`]);
//! * every count-derived size is computed with checked arithmetic and
//!   validated against the bytes actually present *before* any allocation
//!   sized from it;
//! * the trailer must agree with the header on both payload length and
//!   checksum, which catches a stream truncated exactly at a frame
//!   boundary as well as header/trailer mismatches;
//! * every failure is a clean [`BinError`] — never a panic or abort — and
//!   a node that rejects an artefact keeps serving its old generation.
//!
//! # Load peak
//!
//! Each posting is collected from the caller's bytes straight into the
//! index's own `Arc`, once, and the session columns are read where they lie
//! ([`SessionColumns`] over the payload) while the index lays them out in
//! its segments, each stored item id mapped straight to its slot: while it
//! loads, an index costs the artefact the caller holds plus the index being
//! built — on the benchmark's `ecom-1m` index 16.7 MB plus 17.8 MB — with
//! neither a payload-sized copy, nor flat columns, nor an item-id column,
//! nor a second posting table in between (`tests/load_allocs.rs` holds it
//! to that). The artefact still stores a session item as its 8-byte id.

use std::fmt;
use std::io::Write;
use std::sync::Arc;

use bytes::{Buf, BufMut, BytesMut};
use serenade_core::index::{Posting, SessionColumns};
use serenade_core::{CoreError, FxHashMap, ItemId, SessionId, SessionIndex, Timestamp};

const MAGIC: &[u8; 8] = b"SRNIDX\x02\x00";

/// End-of-stream trailer magic (version-locked to [`MAGIC`]).
const TRAILER_MAGIC: &[u8; 8] = b"SRNEND\x02\x00";

/// Header and trailer alike: magic, payload length, payload checksum.
const FRAME_BYTES: usize = 8 + 8 + 8;

/// Upper bound on a declared payload; real artefacts (even the 180M-click
/// synthetic e-commerce profile) stay far below it.
pub const MAX_PAYLOAD_BYTES: u64 = 1 << 30;

/// Errors raised when reading an index artefact.
#[derive(Debug)]
pub enum BinError {
    /// Structurally invalid artefact (bad magic, truncation, checksum).
    Corrupt(String),
    /// The decoded parts violated an index invariant.
    Core(CoreError),
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinError::Corrupt(m) => write!(f, "corrupt index artefact: {m}"),
            BinError::Core(e) => write!(f, "invalid index contents: {e}"),
        }
    }
}

impl std::error::Error for BinError {}

impl From<CoreError> for BinError {
    fn from(e: CoreError) -> Self {
        BinError::Core(e)
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Serialises an index to a writer, in one `write_all` of the whole
/// artefact.
pub fn write_index(index: &SessionIndex, mut writer: impl Write) -> std::io::Result<()> {
    // Sized exactly, so the artefact is written once and never regrown:
    // m_max, the session count, a timestamp a session, one offset a session
    // and one more, the entry count, an item an entry, the posting count,
    // and per posting its item, support, length and entries.
    let stats = index.stats();
    let payload_len = 8 + 8 + 8 * stats.num_sessions + 4 * (stats.num_sessions + 1)
        + 8 + 8 * stats.session_item_entries
        + 8 + 16 * stats.num_items + 4 * stats.posting_entries;
    let mut artefact = BytesMut::with_capacity(FRAME_BYTES + payload_len + FRAME_BYTES);
    // The header's length and checksum are filled in below.
    artefact.put_slice(MAGIC);
    artefact.put_slice(&[0; FRAME_BYTES - 8]);
    artefact.put_u64_le(index.m_max() as u64);
    artefact.put_u64_le(index.num_sessions() as u64);
    for sid in 0..index.num_sessions() as u32 {
        artefact.put_u64_le(index.session_timestamp(sid));
    }
    // CSR item lists.
    let mut offset = 0u32;
    artefact.put_u32_le(offset);
    for sid in 0..index.num_sessions() as u32 {
        offset += index.session_items(sid).len() as u32;
        artefact.put_u32_le(offset);
    }
    artefact.put_u64_le(u64::from(offset));
    for item in (0..index.num_sessions() as u32).flat_map(|sid| index.session_items(sid).iter()) {
        artefact.put_u64_le(item);
    }
    // Postings, in sorted item order for a deterministic artefact.
    let mut items: Vec<ItemId> = index.items().collect();
    items.sort_unstable();
    artefact.put_u64_le(items.len() as u64);
    for item in items {
        let entries = index.postings(item).expect("item is indexed");
        let support = index.item_support(item).expect("item is indexed");
        artefact.put_u64_le(item);
        artefact.put_u32_le(support);
        artefact.put_u32_le(entries.len() as u32);
        for &session in entries {
            artefact.put_u32_le(session);
        }
    }
    debug_assert_eq!(artefact.len(), FRAME_BYTES + payload_len, "the payload is sized exactly");

    let checksum = fnv1a(&artefact[FRAME_BYTES..]);
    let frame = [(payload_len as u64).to_le_bytes(), checksum.to_le_bytes()].concat();
    artefact[8..FRAME_BYTES].copy_from_slice(&frame);
    // Length/checksum trailer: a reader that got this far knows the stream
    // was not cut at a frame boundary, and a header corrupted in transit
    // cannot agree with an honest trailer by accident.
    artefact.put_slice(TRAILER_MAGIC);
    artefact.put_slice(&frame);
    writer.write_all(&artefact)?;
    writer.flush()
}

/// `count * size`, rejected as corrupt on overflow. Every allocation in
/// [`read_index`] is sized through this plus a `need` check against the
/// bytes actually present, so declared counts can never out-allocate the
/// real payload.
fn counted(count: usize, size: usize) -> Result<usize, BinError> {
    count
        .checked_mul(size)
        .ok_or_else(|| BinError::Corrupt("declared count overflows the address space".into()))
}

/// Splits the header or trailer frame `what` off the front of `bytes`:
/// `(payload length, checksum, rest)`.
fn frame<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    what: &str,
) -> Result<(u64, u64, &'a [u8]), BinError> {
    let (mut frame, rest) = bytes
        .split_at_checked(FRAME_BYTES)
        .ok_or_else(|| BinError::Corrupt(format!("short {what}")))?;
    if !frame.starts_with(magic) {
        return Err(BinError::Corrupt(format!("bad {what} magic / unsupported version")));
    }
    frame.advance(magic.len());
    Ok((frame.get_u64_le(), frame.get_u64_le(), rest))
}

/// The session columns of a payload, read in place.
struct PayloadColumns<'a> {
    /// 8 little-endian bytes a session.
    timestamps: &'a [u8],
    /// 4 little-endian bytes a session, and 4 more.
    offsets: &'a [u8],
    /// 8 little-endian bytes an entry.
    items: &'a [u8],
}

impl SessionColumns for PayloadColumns<'_> {
    fn num_sessions(&self) -> usize {
        self.timestamps.len() / 8
    }

    fn num_entries(&self) -> usize {
        self.items.len() / 8
    }

    fn timestamp(&self, session: usize) -> Timestamp {
        (&self.timestamps[session * 8..]).get_u64_le()
    }

    fn offset(&self, session: usize) -> u32 {
        (&self.offsets[session * 4..]).get_u32_le()
    }

    fn item(&self, entry: usize) -> ItemId {
        (&self.items[entry * 8..]).get_u64_le()
    }
}

/// Deserialises an index from the bytes of an artefact, verifying magic,
/// checksum, the length/checksum trailer and all structural invariants.
/// Safe on hostile bytes: the payload is checksummed and parsed in place,
/// allocation is bounded by the bytes actually present, and every
/// malformation is a clean [`BinError`]. Bytes after the trailer are not
/// looked at.
pub fn read_index(bytes: &[u8]) -> Result<SessionIndex, BinError> {
    let (declared_len, checksum, rest) = frame(bytes, MAGIC, "header")?;
    if declared_len > MAX_PAYLOAD_BYTES {
        return Err(BinError::Corrupt(format!(
            "declared payload of {declared_len} bytes exceeds the {MAX_PAYLOAD_BYTES}-byte cap"
        )));
    }
    let (mut buf, rest) = rest
        .split_at_checked(declared_len as usize)
        .ok_or_else(|| BinError::Corrupt("truncated payload".into()))?;
    if fnv1a(buf) != checksum {
        return Err(BinError::Corrupt("checksum mismatch".into()));
    }
    let (trailer_len, trailer_checksum, _) = frame(rest, TRAILER_MAGIC, "trailer")?;
    if (trailer_len, trailer_checksum) != (declared_len, checksum) {
        return Err(BinError::Corrupt("trailer disagrees with header".into()));
    }

    let need = |buf: &[u8], n: usize| -> Result<(), BinError> {
        if buf.len() < n {
            Err(BinError::Corrupt("payload shorter than declared structure".into()))
        } else {
            Ok(())
        }
    };

    need(buf, 16)?;
    let m_max = buf.get_u64_le() as usize;
    let num_sessions = buf.get_u64_le() as usize;
    if num_sessions > u32::MAX as usize {
        return Err(BinError::Corrupt("session count exceeds u32 space".into()));
    }
    // The session columns stay where they are; `need` bounds every split.
    let mut column = |count: usize, size: usize| -> Result<&[u8], BinError> {
        let bytes = counted(count, size)?;
        need(buf, bytes)?;
        let (column, rest) = buf.split_at(bytes);
        buf = rest;
        Ok(column)
    };
    let timestamps = column(num_sessions, 8)?;
    let offsets = column(num_sessions + 1, 4)?;
    let flat_len = column(1, 8)?.get_u64_le() as usize;
    let items = column(flat_len, 8)?;
    need(buf, 8)?;
    let num_postings = buf.get_u64_le() as usize;
    // Each posting occupies ≥ 16 bytes, so a count the remaining payload
    // cannot hold is rejected *before* the map reserve sized from it.
    need(buf, counted(num_postings, 16)?)?;
    let mut postings: FxHashMap<ItemId, Posting> = FxHashMap::default();
    postings.reserve(num_postings);
    for _ in 0..num_postings {
        need(buf, 16)?;
        let item = buf.get_u64_le();
        let support = buf.get_u32_le();
        let plen = buf.get_u32_le() as usize;
        need(buf, counted(plen, 4)?)?;
        // An exact-size iterator collects straight into the posting's array.
        let entries: Arc<[SessionId]> = (0..plen).map(|_| buf.get_u32_le()).collect();
        postings.insert(item, Posting { entries, support, slot: 0 });
    }
    if buf.has_remaining() {
        return Err(BinError::Corrupt("trailing bytes after payload".into()));
    }

    let columns = PayloadColumns { timestamps, offsets, items };
    Ok(SessionIndex::from_parts(postings, &columns, m_max)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serenade_core::Click;

    fn sample_index() -> SessionIndex {
        let mut clicks = Vec::new();
        for s in 0..30u64 {
            clicks.push(Click::new(s + 1, s % 5, 100 + s * 10));
            clicks.push(Click::new(s + 1, (s + 1) % 5, 101 + s * 10));
        }
        SessionIndex::build(&clicks, 8).unwrap()
    }

    fn serialise(index: &SessionIndex) -> Vec<u8> {
        let mut out = Vec::new();
        write_index(index, &mut out).unwrap();
        out
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let index = sample_index();
        let bytes = serialise(&index);
        let loaded = read_index(&bytes[..]).unwrap();
        assert_eq!(loaded.stats(), index.stats());
        assert_eq!(loaded.m_max(), index.m_max());
        for sid in 0..index.num_sessions() as u32 {
            assert_eq!(loaded.session_timestamp(sid), index.session_timestamp(sid));
            assert_eq!(loaded.session_items(sid), index.session_items(sid));
        }
        for item in index.items() {
            assert_eq!(loaded.postings(item), index.postings(item));
            assert_eq!(loaded.item_support(item), index.item_support(item));
        }
    }

    #[test]
    fn serialisation_is_deterministic() {
        let index = sample_index();
        assert_eq!(serialise(&index), serialise(&index));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = serialise(&sample_index());
        bytes[0] ^= 0xFF;
        assert!(matches!(read_index(&bytes[..]), Err(BinError::Corrupt(_))));
    }

    #[test]
    fn flipped_payload_byte_fails_checksum() {
        let mut bytes = serialise(&sample_index());
        // Last payload byte sits just before the 24-byte trailer.
        let last_payload = bytes.len() - 25;
        bytes[last_payload] ^= 0x01;
        let err = read_index(&bytes[..]).unwrap_err();
        assert!(matches!(err, BinError::Corrupt(m) if m.contains("checksum")));
    }

    #[test]
    fn flipped_trailer_byte_is_rejected() {
        // A flip confined to the trailer (header and payload intact) must
        // still fail: header and trailer have to agree byte for byte.
        let pristine = serialise(&sample_index());
        for offset in 1..=24 {
            let mut bytes = pristine.clone();
            let pos = bytes.len() - offset;
            bytes[pos] ^= 0x01;
            assert!(
                matches!(read_index(&bytes[..]), Err(BinError::Corrupt(_))),
                "trailer flip at len-{offset} was accepted"
            );
        }
    }

    #[test]
    fn truncated_artefact_is_rejected() {
        let bytes = serialise(&sample_index());
        for cut in [0, 5, 20, bytes.len() - 3] {
            assert!(
                matches!(read_index(&bytes[..cut]), Err(BinError::Corrupt(_))),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = serialise(&sample_index());
        // Extend the declared payload length over garbage bytes.
        bytes.extend_from_slice(&[0u8; 4]);
        let declared = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) + 4;
        bytes[8..16].copy_from_slice(&declared.to_le_bytes());
        // Checksum now mismatches (payload changed length).
        assert!(matches!(read_index(&bytes[..]), Err(BinError::Corrupt(_))));
    }

    #[test]
    fn error_display_variants() {
        assert!(BinError::Corrupt("x".into()).to_string().contains('x'));
        let core = BinError::from(CoreError::CorruptIndex("y".into()));
        assert!(core.to_string().contains('y'));
    }
}
