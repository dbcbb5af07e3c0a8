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
//! steps 3–4). Both directions encode or decode the rows on every core and
//! make the same bytes, and the same index, at every thread count.
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
//! # Load peak, and the load on every core
//!
//! A load checks the slot → item table and decodes it again into its
//! column, at the width of its largest id, then checks every session's
//! timestamp increase and row length, which give each segment's item count.
//! The segments are then decoded on up to `threads` threads, each a range
//! of segments: a pre-scan finds where each range's rows start in the one
//! row stream by counting varint terminators up to the entries before it,
//! and each range reads its segments' offsets and slots into one `u32`
//! buffer sized for its largest segment and reused, from which each
//! segment's columns are made at their widths. Deriving the postings, on
//! the caller's thread (a second thread made it no faster: every thread
//! read every row), makes the records' support and start columns from the
//! counted supports, writes the one arena in place, then makes the arena
//! column and the item → slot table. The scratch — the row buffers, freed
//! before the postings are derived, the holder counts, freed once the
//! supports are a column, and the fill's countdowns at the width of the
//! longest posting — is allocated on the caller's thread and never
//! outgrows what is still to come, so the load peaks at the finished index
//! at every thread count. So while it loads,
//! an index costs the artefact the caller holds (3.0 MB on `ecom-1m`) plus
//! the index being built, with no payload-sized copy and no flat column in
//! between, and a load on one thread allocates a constant plus a few
//! arrays a segment, never one a posting (`tests/load_allocs.rs` holds it
//! to that). A read-only node's load moment is now below what it serves
//! from (EXPERIMENTS.md X12).
//!
//! A range that starts after malformed rows starts at the wrong byte and
//! reads garbage; but every range before the first malformed one read what
//! a read on one thread reads, so the first error in range order is the
//! one-thread read's, and the error is the same at every thread count
//! (`tests/binfmt_hostile.rs` reads every hostile artefact at 1, 2, 3 and
//! 8 threads).

use std::fmt;
use std::io::Write;
use std::sync::Arc;

use serenade_core::index::{Column, Row, Segment, SEGMENT_SESSIONS};
use serenade_core::sessions::run_parallel;
use serenade_core::{machine_threads, CoreError, ItemId, SessionIndex};

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
/// (see the module docs), over a payload fed in pieces.
struct Checksum {
    lanes: [u64; 4],
    /// Whole words fed so far: the next word's lane is `words % 4`.
    words: usize,
    /// The bytes of a word begun but not finished, `held` of them.
    word: [u8; 8],
    held: usize,
}

impl Checksum {
    fn new() -> Self {
        Self { lanes: [FNV_OFFSET; 4], words: 0, word: [0; 8], held: 0 }
    }

    #[inline]
    fn step(hash: u64, value: u64) -> u64 {
        (hash ^ value).wrapping_mul(FNV_PRIME)
    }

    #[inline]
    fn take_word(&mut self, word: u64) {
        let lane = &mut self.lanes[self.words % 4];
        *lane = Self::step(*lane, word);
        self.words += 1;
    }

    /// Feeds the next bytes of the payload.
    fn feed(&mut self, mut bytes: &[u8]) -> &mut Self {
        if self.held > 0 {
            let taken = (8 - self.held).min(bytes.len());
            self.word[self.held..self.held + taken].copy_from_slice(&bytes[..taken]);
            (self.held, bytes) = (self.held + taken, &bytes[taken..]);
            if self.held < 8 {
                return self;
            }
            self.held = 0;
            self.take_word(u64::from_le_bytes(self.word));
        }
        while self.words % 4 != 0 && bytes.len() >= 8 {
            self.take_word(le_u64(&bytes[..8]));
            bytes = &bytes[8..];
        }
        // Four words at a time, a word a lane: four independent chains.
        let mut blocks = bytes.chunks_exact(32);
        for block in &mut blocks {
            for (lane, word) in self.lanes.iter_mut().zip(block.chunks_exact(8)) {
                *lane = Self::step(*lane, le_u64(word));
            }
            self.words += 4;
        }
        let mut words = blocks.remainder().chunks_exact(8);
        for word in &mut words {
            self.take_word(le_u64(word));
        }
        let rest = words.remainder();
        self.word[..rest.len()].copy_from_slice(rest);
        self.held = rest.len();
        self
    }

    /// The checksum of what was fed.
    fn finish(&self) -> u64 {
        let folded = (0..4).fold(0, |hash, j| hash ^ self.lanes[j].rotate_left(16 * j as u32));
        self.word[..self.held].iter().fold(folded, |hash, &byte| Self::step(hash, u64::from(byte)))
    }
}

/// Appends `value` as a LEB128 varint.
#[inline]
fn put(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Puts the slot → item table: the count, the first item id, then each
/// id's increase over the one before.
fn put_items(sink: &mut Vec<u8>, items: impl ExactSizeIterator<Item = ItemId>) {
    put(sink, items.len() as u64);
    let mut previous = 0;
    for item in items {
        put(sink, item - previous);
        previous = item;
    }
}

/// Puts a row's slots, ascending: the first, then each one's increase over
/// the one before. A row of an index numbered by item id is ascending
/// already, and is put as it lies; a live index's slots are renumbered
/// (`renumber`), and a row is sorted, through `slots`, since a row is a
/// set.
fn put_row(out: &mut Vec<u8>, row: Row<'_>, renumber: Option<&[u32]>, slots: &mut Vec<u32>) {
    let mut previous = 0;
    let mut put_slot = |slot: u32| {
        put(out, u64::from(slot - previous));
        previous = slot;
    };
    if renumber.is_none() && row.iter().zip(row.iter().skip(1)).all(|(a, b)| a < b) {
        row.iter().for_each(put_slot);
        return;
    }
    slots.clear();
    slots.extend(row.iter().map(|slot| renumber.map_or(slot, |r| r[slot as usize])));
    slots.sort_unstable();
    slots.iter().for_each(|&slot| put_slot(slot));
}

/// Serialises an index to a writer, encoded on [`machine_threads`]
/// threads (see [`write_index_with_threads`]).
pub fn write_index(index: &SessionIndex, writer: impl Write) -> std::io::Result<()> {
    write_index_with_threads(index, writer, machine_threads())
}

/// [`write_index`] on up to `threads` threads; the bytes are the same for
/// every `threads`.
///
/// The payload up to the session count is written first. Then each range
/// of segments writes its sessions and its rows, on a thread of its own,
/// into two buffers allocated on the caller's thread with room for the
/// most they can take, which the thread is the first to touch. The parts
/// are checksummed in order and handed to the writer one after the other,
/// between the frames: no part is copied.
pub fn write_index_with_threads(
    index: &SessionIndex,
    mut writer: impl Write,
    threads: usize,
) -> std::io::Result<()> {
    // The artefact numbers slots by item id over the items the index holds
    // (see the module docs). A built or loaded index numbers its slots so
    // already, every slot held; a live one is renumbered, its items sorted
    // and `renumber` mapping its slots to the artefact's.
    let (slot_items, records) = (index.slot_items(), index.records());
    let by_id = slot_items.iter().zip(slot_items.iter().skip(1)).all(|(a, b)| a < b)
        && records.iter().all(|posting| posting.support != 0);
    let mut head = Vec::with_capacity(30 + 10 * slot_items.len());
    put(&mut head, index.m_max() as u64);
    let renumber = if by_id {
        put_items(&mut head, slot_items.iter());
        None
    } else {
        let mut items: Vec<(ItemId, u32)> = (slot_items.iter().zip(0..))
            .zip(records.iter())
            .filter_map(|(pair, posting)| (posting.support != 0).then_some(pair))
            .collect();
        items.sort_unstable();
        put_items(&mut head, items.iter().map(|&(item, _)| item));
        let mut renumber = vec![u32::MAX; slot_items.len()];
        for (slot, &(_, old)) in items.iter().enumerate() {
            renumber[old as usize] = slot as u32;
        }
        Some(renumber)
    };
    put(&mut head, index.num_sessions() as u64);

    // Room for the most a range can take: ten bytes a timestamp increase,
    // five a row length or a slot.
    let segments = index.segments();
    let per_thread = segments.len().div_ceil(threads.max(1)).max(1);
    let mut previous = 0;
    let jobs = segments.chunks(per_thread).map(|range| {
        let before = previous;
        let last = &range[range.len() - 1];
        previous = last.timestamp(last.len() - 1);
        let sessions = range.iter().map(|segment| segment.len()).sum::<usize>();
        let entries = range.iter().map(|segment| segment.slot_column().len()).sum::<usize>();
        (range, before, Vec::with_capacity(15 * sessions), Vec::with_capacity(5 * entries))
    });
    let parts = run_parallel(jobs.collect(), |(range, mut previous, mut sessions, mut rows)| {
        let mut slots = Vec::new();
        for segment in range {
            for (row, timestamp) in segment.timestamps().enumerate() {
                put(&mut sessions, timestamp - previous);
                put(&mut sessions, segment.slots(row).len() as u64);
                previous = timestamp;
                put_row(&mut rows, segment.slots(row), renumber.as_deref(), &mut slots);
            }
        }
        (sessions, rows)
    });
    let (sessions, rows): (Vec<_>, Vec<_>) = parts.into_iter().unzip();
    let payload = std::iter::once(&head).chain(&sessions).chain(&rows);

    let mut checksum = Checksum::new();
    for part in payload.clone() {
        checksum.feed(part);
    }
    let payload_len = payload.clone().map(Vec::len).sum::<usize>() as u64;
    let frame = [payload_len.to_le_bytes(), checksum.finish().to_le_bytes()].concat();
    writer.write_all(MAGIC)?;
    writer.write_all(&frame)?;
    for part in payload {
        writer.write_all(part)?;
    }
    // Length/checksum trailer: a reader that got this far knows the stream
    // was not cut at a frame boundary, and a header corrupted in transit
    // cannot agree with an honest trailer by accident.
    writer.write_all(TRAILER_MAGIC)?;
    writer.write_all(&frame)?;
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

/// Deserialises an index from the bytes of an artefact on
/// [`machine_threads`] threads (see [`read_index_with_threads`]),
/// verifying magic, version, checksum, the length/checksum trailer and
/// every value, and derives its postings. Safe on hostile bytes: the
/// payload is checksummed and parsed in place, allocation is bounded by the
/// bytes actually present, and every malformation is a clean [`BinError`].
/// Bytes after the trailer are not looked at.
pub fn read_index(bytes: &[u8]) -> Result<SessionIndex, BinError> {
    read_index_with_threads(bytes, machine_threads())
}

/// One thread's share of a load: a range of segments.
struct Range<'a, 's> {
    /// The sessions' timestamp increases and row lengths, from the range's
    /// first session on.
    sessions: Cursor<'a>,
    /// The timestamp of the session before the range (0 for the first).
    before: u64,
    /// The range's first session.
    first: usize,
    /// The row entries before the range's first.
    entries: usize,
    /// The rows, from the range's first to the end of the payload.
    rows: Cursor<'a>,
    /// Where the range's segments go.
    segments: &'s mut [Option<Arc<Segment>>],
    /// Each segment's offsets, then its slots, read in here: room for the
    /// range's largest segment.
    buffer: Vec<u32>,
}

/// [`read_index`] on up to `threads` threads, each decoding the rows of a
/// range of segments, and the postings derived from them on the caller's
/// thread; the index, and the error for a malformed artefact,
/// are the same for every `threads`.
pub fn read_index_with_threads(bytes: &[u8], threads: usize) -> Result<SessionIndex, BinError> {
    let (declared_len, declared_checksum, rest) = frame(bytes, MAGIC, "header")?;
    if declared_len > MAX_PAYLOAD_BYTES {
        return Err(corrupt(format!(
            "declared payload of {declared_len} bytes exceeds the {MAX_PAYLOAD_BYTES}-byte cap"
        )));
    }
    let (payload, rest) = rest
        .split_at_checked(declared_len as usize)
        .ok_or_else(|| corrupt("truncated payload"))?;
    if Checksum::new().feed(payload).finish() != declared_checksum {
        return Err(corrupt("checksum mismatch"));
    }
    let (trailer_len, trailer_checksum, _) = frame(rest, TRAILER_MAGIC, "trailer")?;
    if (trailer_len, trailer_checksum) != (declared_len, declared_checksum) {
        return Err(corrupt("trailer disagrees with header"));
    }

    let mut payload = Cursor(payload);
    let m_max = payload.varint()? as usize;
    let num_slots = payload.count("slot")?;
    // The items are checked here and read again into their column, which
    // takes the width of the largest, written in place.
    let items = payload;
    let mut item = 0u64;
    for slot in 0..num_slots {
        let increase = payload.varint()?;
        item = match item.checked_add(increase) {
            Some(next) if slot == 0 || increase > 0 => next,
            _ => return Err(corrupt(format!("slot table not strictly ascending at slot {slot}"))),
        };
    }
    let slot_items = Arc::new(Column::new((0..num_slots).scan((items, 0u64), |(items, item), _| {
        *item += items.varint().expect("an increase read above");
        Some(*item)
    })));

    // Every session's timestamp increase and row length, checked here and
    // read again to make the segments; ranges of segments of about equal
    // count, one a thread, each with where its sessions and its rows start
    // and room for its largest segment.
    let num_sessions = payload.count("session")?;
    let mut segments = vec![None; num_sessions.div_ceil(SEGMENT_SESSIONS)];
    let per_thread = segments.len().div_ceil(threads.max(1)).max(1);
    let mut ranges: Vec<Range> = Vec::with_capacity(segments.len().div_ceil(per_thread));
    let mut outs = segments.chunks_mut(per_thread);
    let (mut timestamp, mut entries, mut largest) = (0u64, 0usize, 0usize);
    for lo in (0..num_sessions).step_by(SEGMENT_SESSIONS) {
        if lo % (per_thread * SEGMENT_SESSIONS) == 0 {
            ranges.push(Range {
                sessions: payload,
                before: timestamp,
                first: lo,
                entries,
                rows: payload,
                segments: outs.next().expect("a range of segments"),
                buffer: Vec::new(),
            });
            largest = 0;
        }
        let (len, first) = (SEGMENT_SESSIONS.min(num_sessions - lo), entries);
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
        largest = largest.max(entries - first);
        let range = ranges.last_mut().expect("a range");
        if lo + len == num_sessions || (lo / SEGMENT_SESSIONS + 1) % per_thread == 0 {
            let rows = SEGMENT_SESSIONS.min(num_sessions - range.first);
            range.buffer = Vec::with_capacity(rows + 1 + largest);
        }
    }
    // Where each range's rows start: past the entries before it, found by
    // counting varint terminators — the bytes below 0x80 — in the rows,
    // never past them.
    let (mut at, mut counted) = (0, 0);
    for range in &mut ranges {
        at += skip_varints(&payload.0[at..], range.entries - counted);
        counted = range.entries;
        range.rows = Cursor(&payload.0[at..]);
    }

    // The ranges' segments, side by side. A range that starts
    // where the rows before it are malformed reads garbage, but the first
    // error in the order of the rows is the one reported: the error a read
    // on one thread meets first.
    let read = run_parallel(ranges, |range| read_segments(range, num_slots, num_sessions));
    let mut rest = payload;
    for outcome in read {
        rest = outcome?;
    }
    if !rest.0.is_empty() {
        return Err(corrupt("trailing bytes after payload"));
    }
    let segments = segments.into_iter().map(|segment| segment.expect("every range read")).collect();
    Ok(SessionIndex::from_segments(segments, slot_items, m_max)?)
}

/// The bytes that the first `varints` varints of `bytes` take, found by
/// counting their terminators — the bytes below 0x80 — eight bytes at a
/// time; all of `bytes` if it holds fewer.
fn skip_varints(bytes: &[u8], mut varints: usize) -> usize {
    let mut at = 0;
    for word in bytes.chunks_exact(8) {
        let ends = (!le_u64(word) & 0x8080_8080_8080_8080).count_ones() as usize;
        if ends >= varints {
            break;
        }
        (at, varints) = (at + 8, varints - ends);
    }
    for &byte in &bytes[at..] {
        if varints == 0 {
            break;
        }
        (at, varints) = (at + 1, varints - usize::from(byte < 0x80));
    }
    at
}

/// Reads the segments of `range`, each of its rows checked, into its
/// slots of the segment list; returns the payload after its rows.
fn read_segments<'a>(
    range: Range<'a, '_>,
    num_slots: usize,
    num_sessions: usize,
) -> Result<Cursor<'a>, BinError> {
    let Range { mut sessions, before: mut timestamp, first, mut rows, segments, mut buffer, .. } =
        range;
    for (lo, segment) in (first..).step_by(SEGMENT_SESSIONS).zip(segments) {
        // The increases and lengths were checked by the caller, so they
        // read back as they did.
        let (len, pairs, before) = (SEGMENT_SESSIONS.min(num_sessions - lo), sessions, timestamp);
        buffer.clear();
        buffer.push(0);
        for _ in 0..len {
            timestamp += sessions.varint().expect("an increase read above");
            let items = sessions.varint().expect("a row length read above");
            buffer.push(buffer[buffer.len() - 1] + items as u32);
        }
        buffer.resize(len + 1 + buffer[len] as usize, 0);
        let (offsets, slots) = buffer.split_at_mut(len + 1);
        for (session, row) in (lo..).zip(offsets.windows(2)) {
            rows.row(&mut slots[row[0] as usize..row[1] as usize], num_slots, session)?;
        }
        let timestamps = (0..len).scan((pairs, before), |(pairs, timestamp), _| {
            *timestamp += pairs.varint().expect("an increase read above");
            pairs.varint().expect("a row length read above");
            Some(*timestamp)
        });
        *segment = Some(Arc::new(Segment::new(timestamps, offsets, slots)));
    }
    Ok(rows)
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
        assert!(loaded.slot_items().iter().eq(index.slot_items().iter()));
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

    /// `a` and `b` hold the same index in the same layout: every table,
    /// every column at its width, every arena and every segment.
    fn assert_same_structures(a: &SessionIndex, b: &SessionIndex) {
        assert_eq!((a.stats(), a.m_max(), a.bytes()), (b.stats(), b.m_max(), b.bytes()));
        let (items_a, items_b) = (a.slot_items(), b.slot_items());
        assert!(items_a.width() == items_b.width() && items_a.iter().eq(items_b.iter()));
        assert!(a.records().iter().eq(b.records().iter()));
        let (table_a, table_b) = (a.slot_table().buckets(), b.slot_table().buckets());
        assert!(table_a.width() == table_b.width() && table_a.iter().eq(table_b.iter()));
        assert_eq!(a.arenas(), b.arenas());
        assert_eq!(a.segments().len(), b.segments().len());
        for (x, y) in a.segments().iter().zip(b.segments()) {
            assert!(x.len() == y.len() && x.timestamps().eq(y.timestamps()));
            assert_eq!((x.slot_width(), x.offset_width()), (y.slot_width(), y.offset_width()));
            assert!((0..x.len()).all(|row| x.row_start(row) == y.row_start(row)));
            assert!(x.slot_column().iter().eq(y.slot_column().iter()));
        }
    }

    #[test]
    fn every_thread_count_writes_the_same_bytes_and_loads_the_same_index() {
        // `ecom-1m` at a tenth: several segments, so ranges of one and of
        // more, and postings truncated to `m_max` across them.
        let config = serenade_dataset::SyntheticConfig::ecom_1m().scaled(0.1);
        let index = SessionIndex::build(&serenade_dataset::generate(&config).clicks, 500).unwrap();
        assert!(index.segments().len() > 4);
        let mut bytes = Vec::new();
        write_index_with_threads(&index, &mut bytes, 1).unwrap();
        let loaded = read_index_with_threads(&bytes, 1).unwrap();
        assert_same_structures(&loaded, &index);
        for threads in [2, 3, 8] {
            let mut written = Vec::new();
            write_index_with_threads(&index, &mut written, threads).unwrap();
            assert!(written == bytes, "threads {threads} wrote other bytes");
            assert_same_structures(&read_index_with_threads(&bytes, threads).unwrap(), &loaded);
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
        let (records, slot_table) = (Arc::new(index.records().clone()), index.slot_table().clone());
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
