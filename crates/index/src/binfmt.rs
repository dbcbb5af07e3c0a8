//! Versioned binary serialisation of the session index.
//!
//! The paper ships the Spark-built index as compressed Avro files that the
//! serving pods ingest at startup. Here the artefact is a purpose-built
//! little-endian format: a header frame, the payload, and a trailer frame
//! that repeats the header's length and checksum, so a corrupted or
//! truncated artefact is rejected before it can serve garbage. The payload
//! is the index's own columns, so a load copies each one where it belongs,
//! and [`SessionIndex::from_parts`] re-validates every structural invariant.
//!
//! # Format, version 3
//!
//! | bytes | field |
//! |---|---|
//! | 8 | magic `SRNIDX\x03\x00` |
//! | 8 | payload length |
//! | 8 | payload checksum |
//! | 8 | `m_max` |
//! | 8 | session count `n` |
//! | 8 × `n` | session timestamps, by dense id |
//! | 4 × (`n` + 1) | session offsets: session `s` holds entries `offsets[s]..offsets[s + 1]` |
//! | 8 | entry count `e` |
//! | 4 × `e` | the sessions' items as slots, each session in first-occurrence order |
//! | 8 | slot count `k` |
//! | 8 × `k` | slot → item table, item ids strictly ascending |
//! | 4 × `k` | supports `h_i`, by slot |
//! | 4 × (`k` + 1) | posting offsets: slot `i`'s posting is arena entries `offsets[i]..offsets[i + 1]` |
//! | 8 | arena length `a` |
//! | 4 × `a` | the posting entries, each posting strictly descending session ids |
//! | 8 | trailer magic `SRNEND\x03\x00` |
//! | 16 | payload length and checksum, again |
//!
//! A slot is an item's rank by id, whatever slots the index being written
//! numbers its items by: a live index (`IncrementalIndexer`) gives a new item
//! the next free slot and strands the slot of one that left, and the writer
//! renumbers both away. So the bytes depend only on the index's content —
//! its sessions, their items and its postings — and every slot has a
//! posting. There are no per-posting item ids: the slot table names them.
//!
//! # The checksum
//!
//! FNV-1a in four lanes over the payload's little-endian `u64` words — word
//! `w` feeds lane `w % 4` — the lanes folded together by XOR, lane `j`
//! rotated left by `16 j` bits, and the fold fed byte by byte through FNV-1a
//! with the bytes after the last whole word. The lanes make it four
//! independent multiply chains — on the 12.3 MB `ecom-1m` artefact 1.4 ms
//! against 17 ms for byte-wise FNV-1a, on a 2-core x86-64 host — and it is
//! still exact about what it catches: a change confined to one whole
//! word, or to one byte of the tail, always changes the checksum. Each lane
//! step `h ↦ (h ⊕ w) · p` is a bijection of `h` for a fixed word and of `w`
//! for a fixed `h` (the FNV prime `p` is odd), so a changed word changes its
//! lane's state at its step and every later step carries the difference to
//! the lane's end; rotation is a bijection, and XOR with the unchanged lanes
//! keeps the fold changed; the tail steps are bijections of the hash. Any
//! single bit flip is such a change.
//!
//! # Why version 2 is rejected
//!
//! Version 2 stored every session item as its 8-byte id, which a load had
//! to hash back to its slot, and every posting beside its item id; its
//! checksum was byte-wise FNV-1a. There is one reader, and artefacts are
//! rebuilt daily, so it reads version 3 only: any other version is a
//! [`BinError`] that names it, and a node that gets one keeps serving the
//! generation it has.
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
//! * every count is bounded by the `u32` space the columns index, every
//!   count-derived size is computed with checked arithmetic, and every
//!   column is split off only if the bytes it declares are present, all
//!   *before* any allocation sized from it;
//! * the trailer must agree with the header on both payload length and
//!   checksum, which catches a stream truncated exactly at a frame
//!   boundary as well as header/trailer mismatches;
//! * every failure is a clean [`BinError`] — never a panic or abort — and
//!   a node that rejects an artefact keeps serving its old generation.
//!
//! # Load peak
//!
//! Each column is copied from the caller's bytes straight into the index's
//! own arrays, once: the slot table into its `Arc`, each posting into its
//! `Arc`, and the session columns into the segments while
//! [`SessionIndex::from_parts`] lays them out ([`SessionColumns`] over the
//! payload). While it loads, an index costs the artefact the caller holds
//! plus the index being built — on the benchmark's `ecom-1m` index 12.3 MB
//! plus 17.8 MB — with neither a payload-sized copy, nor flat columns, nor a
//! hash lookup per session item in between (`tests/load_allocs.rs` holds it
//! to that).

use std::fmt;
use std::io::Write;
use std::sync::Arc;

use serenade_core::hash::fx_map_with_capacity;
use serenade_core::index::{Posting, SessionColumns};
use serenade_core::{CoreError, ItemId, SessionId, SessionIndex, Timestamp};

/// The format version this module writes and the only one it reads: the
/// seventh byte of both magics.
const VERSION: u8 = 3;

const MAGIC: &[u8; 8] = b"SRNIDX\x03\x00";

/// End-of-stream trailer magic (version-locked to [`MAGIC`]).
const TRAILER_MAGIC: &[u8; 8] = b"SRNEND\x03\x00";

/// Header and trailer alike: magic, payload length, payload checksum.
const FRAME_BYTES: usize = 8 + 8 + 8;

/// Upper bound on a declared payload; real artefacts (even the 180M-click
/// synthetic e-commerce profile) stay far below it.
pub const MAX_PAYLOAD_BYTES: u64 = 1 << 30;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Errors raised when reading an index artefact.
#[derive(Debug)]
pub enum BinError {
    /// Structurally invalid artefact (bad magic or version, truncation,
    /// checksum, a column that does not fit).
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

fn corrupt(reason: impl Into<String>) -> BinError {
    BinError::Corrupt(reason.into())
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("eight bytes"))
}

/// Value `i` of a column of little-endian `u32`s.
fn u32_at(column: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(column[4 * i..4 * i + 4].try_into().expect("four bytes"))
}

/// Value `i` of a column of little-endian `u64`s.
fn u64_at(column: &[u8], i: usize) -> u64 {
    le_u64(&column[8 * i..8 * i + 8])
}

/// The payload checksum: four-lane word-wise FNV-1a with a byte-wise tail
/// (see the module docs).
fn checksum(payload: &[u8]) -> u64 {
    let step = |hash: u64, value: u64| (hash ^ value).wrapping_mul(FNV_PRIME);
    let mut lanes = [FNV_OFFSET; 4];
    let mut blocks = payload.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, le_u64(word));
        }
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for (lane, word) in lanes.iter_mut().zip(&mut words) {
        *lane = step(*lane, le_u64(word));
    }
    let folded = (0..4).fold(0, |hash, j| hash ^ lanes[j].rotate_left(16 * j as u32));
    words.remainder().iter().fold(folded, |hash, &byte| step(hash, u64::from(byte)))
}

/// Appends each value's bytes. Sized up front, so the copies form one tight
/// loop.
fn put<const N: usize, I>(out: &mut Vec<u8>, values: I)
where
    I: IntoIterator<Item = [u8; N]>,
    I::IntoIter: ExactSizeIterator,
{
    let values = values.into_iter();
    let start = out.len();
    out.resize(start + N * values.len(), 0);
    for (to, bytes) in out[start..].chunks_exact_mut(N).zip(values) {
        to.copy_from_slice(&bytes);
    }
}

/// Appends the CSR offsets of consecutive runs of `lens`: 0, then the
/// running totals.
fn put_offsets(out: &mut Vec<u8>, lens: impl ExactSizeIterator<Item = usize>) {
    let mut total = 0u32;
    put(out, [total.to_le_bytes()]);
    put(out, lens.map(|len| {
        total += len as u32;
        total.to_le_bytes()
    }));
}

/// Serialises an index to a writer, in one `write_all` of the whole
/// artefact.
pub fn write_index(index: &SessionIndex, mut writer: impl Write) -> std::io::Result<()> {
    // The artefact numbers slots by item id over the items the index holds
    // (see the module docs): `renumber` maps the index's slots to those.
    // Placed by slot first, the items are already in id order unless the
    // index is live, and the sort has nothing to do.
    let mut by_slot = vec![None; index.slot_items().len()];
    for (item, posting) in index.postings_iter() {
        by_slot[posting.slot as usize] = Some((item, posting));
    }
    let mut items: Vec<(ItemId, &Posting)> = by_slot.into_iter().flatten().collect();
    items.sort_unstable_by_key(|&(item, _)| item);
    let mut renumber = vec![u32::MAX; index.slot_items().len()];
    for (slot, (_, posting)) in items.iter().enumerate() {
        renumber[posting.slot as usize] = slot as u32;
    }

    // Sized exactly, so the artefact is written once and never regrown.
    let stats = index.stats();
    let (n, entries, slots) = (stats.num_sessions, stats.session_item_entries, items.len());
    let payload_len = 8 + 8 + 8 * n + 4 * (n + 1) + 8 + 4 * entries
        + 8 + 16 * slots + 4 + 8 + 4 * stats.posting_entries;
    let mut out = Vec::with_capacity(FRAME_BYTES + payload_len + FRAME_BYTES);
    // The header's length and checksum are filled in below.
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&[0; FRAME_BYTES - 8]);
    let sessions = 0..n as SessionId;
    put(&mut out, [index.m_max() as u64, n as u64].map(u64::to_le_bytes));
    put(&mut out, sessions.clone().map(|s| index.session_timestamp(s).to_le_bytes()));
    put_offsets(&mut out, sessions.map(|s| index.session_slots(s).len()));
    put(&mut out, [(entries as u64).to_le_bytes()]);
    for segment in index.segments() {
        let slots = segment.slot_column().iter();
        put(&mut out, slots.map(|&slot| renumber[slot as usize].to_le_bytes()));
    }
    put(&mut out, [(slots as u64).to_le_bytes()]);
    put(&mut out, items.iter().map(|(item, _)| item.to_le_bytes()));
    put(&mut out, items.iter().map(|(_, posting)| posting.support.to_le_bytes()));
    put_offsets(&mut out, items.iter().map(|(_, posting)| posting.entries.len()));
    put(&mut out, [(stats.posting_entries as u64).to_le_bytes()]);
    for (_, posting) in &items {
        put(&mut out, posting.entries.iter().map(|id| id.to_le_bytes()));
    }
    debug_assert_eq!(out.len(), FRAME_BYTES + payload_len, "the payload is sized exactly");

    let checksum = checksum(&out[FRAME_BYTES..]);
    let frame = [(payload_len as u64).to_le_bytes(), checksum.to_le_bytes()].concat();
    out[8..FRAME_BYTES].copy_from_slice(&frame);
    // Length/checksum trailer: a reader that got this far knows the stream
    // was not cut at a frame boundary, and a header corrupted in transit
    // cannot agree with an honest trailer by accident.
    out.extend_from_slice(TRAILER_MAGIC);
    out.extend_from_slice(&frame);
    writer.write_all(&out)?;
    writer.flush()
}

/// Splits the header or trailer frame `what` off the front of `bytes`:
/// `(payload length, checksum, rest)`.
fn frame<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    what: &str,
) -> Result<(u64, u64, &'a [u8]), BinError> {
    let (frame, rest) =
        bytes.split_at_checked(FRAME_BYTES).ok_or_else(|| corrupt(format!("short {what}")))?;
    if frame[..6] != magic[..6] || frame[7] != 0 {
        return Err(corrupt(format!("bad {what} magic")));
    }
    if frame[6] != VERSION {
        return Err(corrupt(format!(
            "{what} declares format version {}; this reader reads version {VERSION} only",
            frame[6]
        )));
    }
    Ok((le_u64(&frame[8..16]), le_u64(&frame[16..24]), rest))
}

/// The payload, consumed front to back.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    /// The next `len` bytes, if the payload holds them.
    fn take(&mut self, len: usize) -> Result<&'a [u8], BinError> {
        let (head, rest) = self
            .0
            .split_at_checked(len)
            .ok_or_else(|| corrupt("payload shorter than declared structure"))?;
        self.0 = rest;
        Ok(head)
    }

    /// The next `u64`, a count of `what`: the columns index it with `u32`s.
    fn count(&mut self, what: &str) -> Result<usize, BinError> {
        let count = le_u64(self.take(8)?);
        if count > u64::from(u32::MAX) {
            return Err(corrupt(format!("{what} count {count} exceeds u32 space")));
        }
        Ok(count as usize)
    }

    /// The next column: `count` values `width` bytes wide.
    fn column(&mut self, count: usize, width: usize) -> Result<&'a [u8], BinError> {
        let len = count.checked_mul(width).ok_or_else(|| {
            corrupt("declared count overflows the address space")
        })?;
        self.take(len)
    }
}

/// The session columns of a payload, read in place.
struct PayloadColumns<'a> {
    /// 8 little-endian bytes a session.
    timestamps: &'a [u8],
    /// 4 little-endian bytes a session, and 4 more.
    offsets: &'a [u8],
    /// 4 little-endian bytes an entry.
    slots: &'a [u8],
}

impl SessionColumns for PayloadColumns<'_> {
    fn num_sessions(&self) -> usize {
        self.timestamps.len() / 8
    }

    fn num_entries(&self) -> usize {
        self.slots.len() / 4
    }

    fn timestamp(&self, session: usize) -> Timestamp {
        u64_at(self.timestamps, session)
    }

    fn offset(&self, session: usize) -> u32 {
        u32_at(self.offsets, session)
    }

    fn slot(&self, entry: usize) -> u32 {
        u32_at(self.slots, entry)
    }
}

/// Deserialises an index from the bytes of an artefact, verifying magic,
/// version, checksum, the length/checksum trailer, that every column fits,
/// and all structural invariants. Safe on hostile bytes: the payload is
/// checksummed and parsed in place, allocation is bounded by the bytes
/// actually present, and every malformation is a clean [`BinError`]. Bytes
/// after the trailer are not looked at.
pub fn read_index(bytes: &[u8]) -> Result<SessionIndex, BinError> {
    let (declared_len, declared_checksum, rest) = frame(bytes, MAGIC, "header")?;
    if declared_len > MAX_PAYLOAD_BYTES {
        return Err(corrupt(format!(
            "declared payload of {declared_len} bytes exceeds the {MAX_PAYLOAD_BYTES}-byte cap"
        )));
    }
    let (payload, rest) = rest
        .split_at_checked(declared_len as usize)
        .ok_or_else(|| corrupt("truncated payload"))?;
    if checksum(payload) != declared_checksum {
        return Err(corrupt("checksum mismatch"));
    }
    let (trailer_len, trailer_checksum, _) = frame(rest, TRAILER_MAGIC, "trailer")?;
    if (trailer_len, trailer_checksum) != (declared_len, declared_checksum) {
        return Err(corrupt("trailer disagrees with header"));
    }

    // Every column is split off where it lies; nothing is allocated until
    // all of them are known to fit.
    let mut payload = Cursor(payload);
    let m_max = le_u64(payload.take(8)?) as usize;
    let num_sessions = payload.count("session")?;
    let timestamps = payload.column(num_sessions, 8)?;
    let offsets = payload.column(num_sessions + 1, 4)?;
    let num_entries = payload.count("entry")?;
    let slots = payload.column(num_entries, 4)?;
    let num_slots = payload.count("slot")?;
    let slot_table = payload.column(num_slots, 8)?;
    let supports = payload.column(num_slots, 4)?;
    let posting_offsets = payload.column(num_slots + 1, 4)?;
    let arena_len = payload.count("arena entry")?;
    let arena = payload.column(arena_len, 4)?;
    if !payload.0.is_empty() {
        return Err(corrupt("trailing bytes after payload"));
    }

    let posting_offset = |slot: usize| u32_at(posting_offsets, slot);
    if posting_offset(0) != 0 {
        return Err(corrupt("posting offsets do not start at 0"));
    }
    if let Some(slot) = (0..num_slots).find(|&i| posting_offset(i) > posting_offset(i + 1)) {
        return Err(corrupt(format!("posting offsets decrease after slot {slot}")));
    }
    let end = posting_offset(num_slots) as usize;
    if end != arena_len {
        let how = if end > arena_len { "overrun" } else { "fall short of" };
        return Err(corrupt(format!(
            "posting offsets {how} the {arena_len}-entry arena: they end at {end}"
        )));
    }

    let slot_items: Arc<[ItemId]> = (0..num_slots).map(|slot| u64_at(slot_table, slot)).collect();
    let mut postings = fx_map_with_capacity(num_slots);
    for (slot, &item) in slot_items.iter().enumerate() {
        // An exact-size iterator collects straight into the posting's array.
        let entries: Arc<[SessionId]> = (posting_offset(slot)..posting_offset(slot + 1))
            .map(|entry| u32_at(arena, entry as usize))
            .collect();
        let support = u32_at(supports, slot);
        postings.insert(item, Posting { entries, support, slot: slot as u32 });
    }
    let columns = PayloadColumns { timestamps, offsets, slots };
    Ok(SessionIndex::from_parts(postings, &columns, slot_items, m_max)?)
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
        assert_eq!(loaded.slot_items(), index.slot_items());
        for sid in 0..index.num_sessions() as u32 {
            assert_eq!(loaded.session_timestamp(sid), index.session_timestamp(sid));
            assert_eq!(loaded.session_slots(sid), index.session_slots(sid));
        }
        for item in index.items() {
            assert_eq!(loaded.postings(item), index.postings(item));
            assert_eq!(loaded.item_support(item), index.item_support(item));
            assert_eq!(loaded.item_slot(item), index.item_slot(item));
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
