//! Versioned binary serialisation of the session index.
//!
//! The paper ships the Spark-built index as compressed Avro files that the
//! serving pods ingest at startup. Here the artefact is a purpose-built
//! format: a header frame, the payload, and a trailer frame that repeats the
//! header's length and checksum, so a corrupted or truncated artefact is
//! rejected before it can serve garbage. The payload holds only what cannot
//! be derived — the slot table and the sessions' rows — each value a
//! varint; a load lays the rows out in segments and derives the supports and
//! the postings from them ([`SessionIndex::from_segments`], the build's own
//! steps 3–4).
//!
//! # Format, version 4
//!
//! The frames are little-endian `u64`s. Every payload value is a LEB128
//! varint (`v` below): seven bits a byte, least significant first, the top
//! bit set on every byte but the last, in the fewest bytes that hold it.
//!
//! | bytes | field |
//! |---|---|
//! | 8 | magic `SRNIDX\x04\x00` |
//! | 8 | payload length |
//! | 8 | payload checksum |
//! | v | `m_max` |
//! | v | slot count `k` |
//! | `k` × v | slot → item table: the first item id, then each id's increase over the one before (≥ 1) |
//! | v | session count `n` |
//! | `n` × 2 v | per session, by dense id: its timestamp's increase over the one before (the first session's: its timestamp), and its row length (≥ 1) |
//! | Σ row lengths × v | the rows, session after session: each its first slot, then each slot's increase over the one before (≥ 1) |
//! | 8 | trailer magic `SRNEND\x04\x00` |
//! | 16 | payload length and checksum, again |
//!
//! A slot is an item's rank by id, whatever slots the index being written
//! numbers its items by: a live index (`IncrementalIndexer`) gives a new item
//! the next free slot and strands the slot of one that left, and the writer
//! renumbers both away. So the bytes depend only on the index's content —
//! its sessions and their items — and every slot is held by a session. Every
//! producer keeps a row in ascending item id (`serenade_core::index`, *Rows
//! are sets*), which renumbering by id keeps ascending by slot.
//!
//! The increases make three orders unbreakable by construction rather than
//! checked after the fact: timestamps do not decrease with the dense id (the
//! id is the recency key), item ids ascend strictly in the slot table, and
//! every row ascends strictly. A zero increase where one of at least 1 is
//! due, and a sum that leaves the `u64` (or the slot) range, is rejected by
//! name. The supports, the posting offsets and the posting arena are not
//! written: they follow from the rows, so a posting read back cannot
//! disagree with them. On `ecom-1m` (seed 1) the payload is 3.0 MB, where
//! version 3's columns took 12.3 MB.
//!
//! # Why version 3 is rejected
//!
//! Version 3 stored every column as 4- or 8-byte values, the derivable ones
//! too — the supports, the posting offsets and the posting arena — and a
//! row in any order, as artefacts written before rows were canonical kept
//! each item at its first click. Version 2 before it stored every session
//! item as its 8-byte id and a byte-wise FNV-1a checksum. There is one
//! reader, and artefacts are rebuilt daily, so it reads version 4 only: any
//! other version is a [`BinError`] that names it, and a node that gets one
//! keeps serving the generation it has.
//!
//! # The checksum
//!
//! FNV-1a in four lanes over the payload's little-endian `u64` words — word
//! `w` feeds lane `w % 4` — the lanes folded together by XOR, lane `j`
//! rotated left by `16 j` bits, and the fold fed byte by byte through FNV-1a
//! with the bytes after the last whole word. The lanes make it four
//! independent multiply chains — on the 12.3 MB version-3 `ecom-1m`
//! artefact 1.4 ms against 17 ms for byte-wise FNV-1a, on a 2-core x86-64
//! host — and it is still exact about what it catches: a change confined
//! to one whole word, or to one byte of the tail, always changes the
//! checksum. Each lane step `h ↦ (h ⊕ w) · p` is a bijection of `h` for a
//! fixed word and of `w` for a fixed `h` (the FNV prime `p` is odd), so a
//! changed word changes its lane's state at its step and every later step
//! carries the difference to the lane's end; rotation is a bijection, and
//! XOR with the unchanged lanes keeps the fold changed; the tail steps are
//! bijections of the hash. Any single bit flip is such a change.
//!
//! # Hostile-input posture
//!
//! This is the artifact-*distribution* format: the router tier pushes these
//! bytes over sockets to serving nodes, so [`read_index`] must treat its
//! input as attacker-controlled (the fuzz-style suite in
//! `tests/binfmt_hostile.rs` drives this):
//!
//! * the artefact is parsed where it lies, in the caller's buffer, and the
//!   declared payload length is capped ([`MAX_PAYLOAD_BYTES`]);
//! * a varint is at most ten bytes, and one that runs off the payload, does
//!   not fit a `u64` or could be written shorter is rejected;
//! * every value takes at least one byte, so a declared count — of slots,
//!   of sessions, of a row's items — larger than the bytes that remain is
//!   rejected *before* any allocation sized from it;
//! * the trailer must agree with the header on both payload length and
//!   checksum, which catches a stream truncated exactly at a frame
//!   boundary as well as header/trailer mismatches;
//! * every failure is a clean [`BinError`] — never a panic or abort — and
//!   a node that rejects an artefact keeps serving its old generation.
//!
//! # Load peak
//!
//! A load decodes the slot → item table straight into its `Arc`, then the
//! sessions into their segments: first every segment's timestamps and row
//! lengths, which give each segment's item count, then each segment's
//! offsets and slots into two `u32` buffers sized for the largest segment
//! and reused, from which the segment's columns are made at their widths.
//! Deriving the postings writes the one
//! arena in place, then the 12-byte records once from the supports, then
//! the item → slot table. The derivation's scratch (holder counts,
//! supports, posting offsets and fill cursor, 16 bytes a slot) never
//! outgrows the records and the table still to come, so the load peaks at
//! the finished index. So while it loads, an index costs the artefact the
//! caller holds (3.0 MB on `ecom-1m`) plus the index being built, with no
//! payload-sized copy and no flat column in between, and a load allocates a
//! constant plus a few arrays a segment, never one a posting
//! (`tests/load_allocs.rs` holds it to that). A read-only node's load
//! moment is now below what it serves from (EXPERIMENTS.md X12).

use std::fmt;
use std::io::Write;
use std::sync::Arc;

use serenade_core::index::{Segment, SEGMENT_SESSIONS};
use serenade_core::{CoreError, ItemId, SessionIndex};

/// The format version this module writes and the only one it reads: the
/// seventh byte of both magics.
const VERSION: u8 = 4;

const MAGIC: &[u8; 8] = b"SRNIDX\x04\x00";

/// End-of-stream trailer magic (version-locked to [`MAGIC`]).
const TRAILER_MAGIC: &[u8; 8] = b"SRNEND\x04\x00";

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
    /// checksum, a malformed or out-of-range value).
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

/// Appends `value` as a LEB128 varint.
fn put(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Serialises an index to a writer, in one `write_all` of the whole
/// artefact.
pub fn write_index(index: &SessionIndex, mut writer: impl Write) -> std::io::Result<()> {
    // The artefact numbers slots by item id over the items the index holds
    // (see the module docs): `renumber` maps the index's slots to those.
    // Taken in slot order, the items are already in id order unless the
    // index is live, and the sort has nothing to do.
    let slot_items = index.slot_items();
    let mut items: Vec<(ItemId, u32)> = (slot_items.iter().copied().zip(0..))
        .zip(index.records())
        .filter_map(|(pair, posting)| (posting.support != 0).then_some(pair))
        .collect();
    items.sort_unstable();
    let mut renumber = vec![u32::MAX; slot_items.len()];
    for (slot, &(_, old)) in items.iter().enumerate() {
        renumber[old as usize] = slot as u32;
    }

    // Most values take one or two bytes: a guess that the payload seldom
    // outgrows.
    let (n, entries) = (index.num_sessions(), index.session_item_entries());
    let mut out = Vec::with_capacity(2 * FRAME_BYTES + 16 + 3 * (items.len() + n) + 2 * entries);
    // The header's length and checksum are filled in below.
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&[0; FRAME_BYTES - 8]);
    put(&mut out, index.m_max() as u64);
    put(&mut out, items.len() as u64);
    let mut previous = 0;
    for &(item, _) in &items {
        put(&mut out, item - previous);
        previous = item;
    }
    put(&mut out, n as u64);
    let mut previous = 0;
    for segment in index.segments() {
        for (row, timestamp) in segment.timestamps().enumerate() {
            put(&mut out, timestamp - previous);
            put(&mut out, segment.slots(row).len() as u64);
            previous = timestamp;
        }
    }
    let mut slots = Vec::new();
    for segment in index.segments() {
        for row in 0..segment.len() {
            // Already ascending in every index this crate makes; sorted all
            // the same, since a row is a set.
            slots.clear();
            slots.extend(segment.slots(row).iter().map(|slot| renumber[slot as usize]));
            slots.sort_unstable();
            let mut previous = 0;
            for &slot in &slots {
                put(&mut out, u64::from(slot - previous));
                previous = slot;
            }
        }
    }

    let payload_len = (out.len() - FRAME_BYTES) as u64;
    let checksum = checksum(&out[FRAME_BYTES..]);
    let frame = [payload_len.to_le_bytes(), checksum.to_le_bytes()].concat();
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
#[derive(Clone, Copy)]
struct Cursor<'a>(&'a [u8]);

impl Cursor<'_> {
    /// The next varint.
    #[inline]
    fn varint(&mut self) -> Result<u64, BinError> {
        let mut value = 0;
        for (i, &byte) in self.0.iter().take(10).enumerate() {
            value |= u64::from(byte & 0x7f) << (7 * i);
            if byte < 0x80 {
                // The tenth byte holds the top bit of a `u64`, and a zero
                // last byte after the first could have been left out.
                if (i == 9 && byte > 1) || (i > 0 && byte == 0) {
                    break;
                }
                self.0 = &self.0[i + 1..];
                return Ok(value);
            }
        }
        Err(self.malformed())
    }

    /// Why the bytes in front are no varint: kept out of line, so the
    /// loop above stays small where the rows are read.
    #[cold]
    fn malformed(&self) -> BinError {
        let ends = self.0.iter().take(10).any(|&byte| byte < 0x80);
        corrupt(if ends || self.0.len() >= 10 { "overlong varint" } else { "unterminated varint" })
    }

    /// The next varint, a count of `what`: every value takes a byte, so it
    /// is at most the bytes that remain.
    fn count(&mut self, what: &str) -> Result<usize, BinError> {
        let count = self.varint()?;
        if count > self.0.len() as u64 {
            return Err(corrupt(format!(
                "{what} count {count} exceeds the {} bytes that remain",
                self.0.len()
            )));
        }
        Ok(count as usize)
    }

    /// The row of `session` into `slots`: its first slot, then increases of
    /// at least 1, every slot below `num_slots`.
    fn row(&mut self, slots: &mut [u32], num_slots: usize, session: usize) -> Result<(), BinError> {
        let mut slot = 0u64;
        for (i, to) in slots.iter_mut().enumerate() {
            let increase = self.varint()?;
            if i > 0 && increase == 0 {
                return Err(corrupt(format!("the row of session {session} is not strictly ascending")));
            }
            slot = slot.saturating_add(increase);
            if slot >= num_slots as u64 {
                return Err(corrupt(format!(
                    "session item slot {slot} is not below the slot count {num_slots}"
                )));
            }
            *to = slot as u32;
        }
        Ok(())
    }
}

/// Deserialises an index from the bytes of an artefact, verifying magic,
/// version, checksum, the length/checksum trailer and every value, and
/// derives its postings. Safe on hostile bytes: the payload is checksummed
/// and parsed in place, allocation is bounded by the bytes actually
/// present, and every malformation is a clean [`BinError`]. Bytes after the
/// trailer are not looked at.
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

    let mut payload = Cursor(payload);
    let m_max = payload.varint()? as usize;
    let num_slots = payload.count("slot")?;
    // An exact-size iterator collects straight into the `Arc`'s allocation.
    let mut slot_items: Arc<[ItemId]> = (0..num_slots).map(|_| 0).collect();
    let mut item = 0u64;
    let table = Arc::get_mut(&mut slot_items).expect("a new table has no other owner");
    for (slot, to) in table.iter_mut().enumerate() {
        let increase = payload.varint()?;
        item = match item.checked_add(increase) {
            Some(next) if slot == 0 || increase > 0 => next,
            _ => return Err(corrupt(format!("slot table not strictly ascending at slot {slot}"))),
        };
        *to = item;
    }

    // Where every segment's timestamps and row lengths lie, and how many
    // entries its rows hold: checked here, they are read again to code the
    // columns.
    let num_sessions = payload.count("session")?;
    let mut columns = Vec::with_capacity(num_sessions.div_ceil(SEGMENT_SESSIONS));
    let (mut timestamp, mut entries) = (0u64, 0usize);
    for lo in (0..num_sessions).step_by(SEGMENT_SESSIONS) {
        let len = SEGMENT_SESSIONS.min(num_sessions - lo);
        let (rows, before, first) = (payload, timestamp, entries);
        for row in 0..len {
            let session = lo + row;
            timestamp = timestamp.checked_add(payload.varint()?).ok_or_else(|| {
                corrupt(format!(
                    "the timestamp of session {session} overflows u64: timestamps must not \
                     decrease with the dense id"
                ))
            })?;
            let items = payload.varint()?;
            if items == 0 {
                return Err(corrupt(format!("session {session} holds no item")));
            }
            // The rows follow, an item a byte at least.
            if items > payload.0.len().saturating_sub(entries) as u64 {
                return Err(corrupt(format!(
                    "the rows declare more items than the {} bytes that remain",
                    payload.0.len()
                )));
            }
            entries += items as usize;
        }
        columns.push((rows, before, len, entries - first));
    }
    // Then every segment's rows, read into two buffers sized for the
    // largest segment and reused, and narrowed into the segment's columns.
    let largest = columns.iter().map(|&(_, _, _, entries)| entries).max().unwrap_or(0);
    let mut offsets: Vec<u32> = Vec::with_capacity(SEGMENT_SESSIONS.min(num_sessions) + 1);
    let mut slots: Vec<u32> = Vec::with_capacity(largest);
    let mut segments = Vec::with_capacity(columns.len());
    let mut session = 0;
    for (rows, before, len, entries) in columns {
        // The increases and lengths were checked above, so they read back
        // as they did.
        let mut lengths = rows;
        offsets.clear();
        offsets.push(0);
        for _ in 0..len {
            lengths.varint().expect("an increase read above");
            let items = lengths.varint().expect("a row length read above");
            offsets.push(offsets[offsets.len() - 1] + items as u32);
        }
        slots.clear();
        slots.resize(entries, 0);
        for row in offsets.windows(2) {
            payload.row(&mut slots[row[0] as usize..row[1] as usize], num_slots, session)?;
            session += 1;
        }
        let timestamps = (0..len).scan((rows, before), |(rows, timestamp), _| {
            *timestamp += rows.varint().expect("an increase read above");
            rows.varint().expect("a row length read above");
            Some(*timestamp)
        });
        segments.push(Arc::new(Segment::new(timestamps, &offsets, &slots)));
    }
    // The buffers go before the postings are derived: the load peaks at the
    // finished index and nothing beside it.
    drop((offsets, slots));
    if !payload.0.is_empty() {
        return Err(corrupt("trailing bytes after payload"));
    }
    Ok(SessionIndex::from_segments(segments, slot_items, m_max, 1)?)
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
    fn varints_take_the_fewest_bytes_and_read_back() {
        let values = [0, 1, 127, 128, 16_383, 16_384, u64::from(u32::MAX), u64::MAX - 1, u64::MAX];
        let widths = [1, 1, 1, 2, 2, 3, 5, 10, 10];
        let mut bytes = Vec::new();
        for (&value, width) in values.iter().zip(widths) {
            let before = bytes.len();
            put(&mut bytes, value);
            assert_eq!(bytes.len() - before, width, "{value}");
        }
        let mut cursor = Cursor(&bytes);
        for value in values {
            assert_eq!(cursor.varint().unwrap(), value);
        }
        assert!(cursor.0.is_empty());
    }

    #[test]
    fn rows_are_written_ascending_whatever_order_the_index_holds() {
        // Every row of the sample reversed, as no producer writes one: the
        // artefact still holds each row as a set, ascending, so it loads.
        let index = sample_index();
        let segments: Vec<Arc<Segment>> = (index.segments().iter())
            .map(|segment| {
                let (mut offsets, mut slots) = (vec![0u32], Vec::new());
                for row in 0..segment.len() {
                    slots.extend(segment.slots(row).iter().rev());
                    offsets.push(slots.len() as u32);
                }
                Arc::new(Segment::new(segment.timestamps(), &offsets, &slots))
            })
            .collect();
        let (records, slot_table) = (index.records().into(), index.slot_table().clone());
        let (arenas, slot_items) = (index.arenas().into(), Arc::clone(index.slot_items()));
        let reversed = SessionIndex::from_generation(
            records,
            slot_table,
            arenas,
            segments.into(),
            slot_items,
            index.m_max(),
        );
        assert_eq!(reversed.session_items(0), &[1, 0]);
        let loaded = read_index(&serialise(&reversed)).unwrap();
        assert_eq!(serialise(&loaded), serialise(&index));
        assert_eq!(loaded.session_items(0), &[0, 1]);
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
