//! Delta+varint compressed index with on-the-fly decoding queries.
//!
//! Section 7 of the paper lists "running the similarity computation on a
//! compressed version of the index" as future work. The posting lists
//! dominate the index footprint (`O(|I| · m)` session ids); because each
//! list is strictly descending, consecutive ids can be stored as gaps, and
//! gaps are small for popular items — ideal varint territory.
//!
//! Queries decode lazily: the item-intersection loop of VMIS-kNN walks a
//! decoding iterator instead of a slice, so **early stopping also skips
//! decompression work** — the deeper the cut-off, the more bytes are never
//! touched. The per-session item lists stay uncompressed: they are a
//! random-access structure on the hot path. There is no timestamp column:
//! the dense id is the recency key (`serenade_core::index`), which is also
//! what makes the gaps small.

use bytes::BytesMut;
use serenade_core::{CoreError, FxHashMap, ItemId, ItemScore, SessionId, SessionIndex, VmisConfig};
use serenade_core::heap::RuntimeDaryHeap;

use crate::varint::{read_varint, write_varint};

/// A compressed posting list: descending session ids as first-value + gaps.
#[derive(Debug, Clone)]
struct CompressedPosting {
    support: u32,
    count: u32,
    bytes: Box<[u8]>,
}

/// The compressed session index.
#[derive(Debug, Clone)]
pub struct CompressedIndex {
    postings: FxHashMap<ItemId, CompressedPosting>,
    items_flat: Box<[ItemId]>,
    items_offsets: Box<[u32]>,
    m_max: usize,
}

/// Lazily decodes a compressed posting list (descending session ids).
pub struct PostingIter<'a> {
    bytes: &'a [u8],
    remaining: u32,
    prev: u64,
    first: bool,
}

impl Iterator for PostingIter<'_> {
    type Item = SessionId;

    fn next(&mut self) -> Option<SessionId> {
        if self.remaining == 0 {
            return None;
        }
        let mut buf = self.bytes;
        let v = read_varint(&mut buf).expect("posting bytes are self-consistent");
        self.bytes = buf;
        self.remaining -= 1;
        if self.first {
            self.first = false;
            self.prev = v;
        } else {
            // Gaps are stored as (prev - next - 1) so a gap of 1 is a zero byte.
            self.prev = self.prev - v - 1;
        }
        Some(self.prev as SessionId)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl CompressedIndex {
    /// Compresses an existing index (lossless).
    pub fn from_index(index: &SessionIndex) -> Self {
        let mut postings = FxHashMap::default();
        let mut buf = BytesMut::new();
        for (item, posting) in index.postings_iter() {
            buf.clear();
            let mut prev: u64 = 0;
            for (i, &sid) in posting.entries.iter().enumerate() {
                if i == 0 {
                    write_varint(&mut buf, u64::from(sid));
                } else {
                    write_varint(&mut buf, prev - u64::from(sid) - 1);
                }
                prev = u64::from(sid);
            }
            postings.insert(
                item,
                CompressedPosting {
                    support: posting.support,
                    count: posting.entries.len() as u32,
                    bytes: buf[..].into(),
                },
            );
        }
        let (mut items_flat, mut items_offsets) = (Vec::new(), vec![0]);
        for s in 0..index.num_sessions() as SessionId {
            items_flat.extend(index.session_items(s).iter());
            items_offsets.push(items_flat.len() as u32);
        }
        Self {
            postings,
            items_flat: items_flat.into(),
            items_offsets: items_offsets.into(),
            m_max: index.m_max(),
        }
    }

    /// Iterates a posting list, decoding lazily.
    pub fn postings(&self, item: ItemId) -> Option<PostingIter<'_>> {
        self.postings.get(&item).map(|p| PostingIter {
            bytes: &p.bytes,
            remaining: p.count,
            prev: 0,
            first: true,
        })
    }

    /// Support `h_i` of an item.
    pub fn item_support(&self, item: ItemId) -> Option<u32> {
        self.postings.get(&item).map(|p| p.support)
    }

    /// Items of a historical session (uncompressed, random access).
    pub fn session_items(&self, session: SessionId) -> &[ItemId] {
        let s = self.items_offsets[session as usize] as usize;
        let e = self.items_offsets[session as usize + 1] as usize;
        &self.items_flat[s..e]
    }

    /// Number of historical sessions.
    pub fn num_sessions(&self) -> usize {
        self.items_offsets.len() - 1
    }

    /// Approximate bytes used by the posting lists only (the compressed part).
    pub fn posting_bytes(&self) -> usize {
        self.postings.values().map(|p| p.bytes.len()).sum()
    }

    /// Runs VMIS-kNN directly on the compressed representation.
    ///
    /// Same semantics (and bit-identical output) as
    /// [`serenade_core::VmisKnn::recommend`]; early stopping additionally
    /// skips decoding the tail of each posting list.
    pub fn recommend(&self, session: &[ItemId], config: &VmisConfig) -> Result<Vec<ItemScore>, CoreError> {
        // Shared validation helper: the compressed path must accept and
        // reject exactly the same configs as `VmisKnn::new` (it used to let
        // `how_many == 0` and `max_session_len == 0` through).
        config.validate_with_m_max(self.m_max)?;
        let window = if session.len() > config.max_session_len {
            &session[session.len() - config.max_session_len..]
        } else {
            session
        };
        if window.is_empty() {
            return Ok(Vec::new());
        }
        let wlen = window.len();
        let mut pos: FxHashMap<ItemId, usize> = FxHashMap::default();
        for (i, &item) in window.iter().enumerate() {
            pos.insert(item, i + 1);
        }

        let d = config.heap_arity.d();
        let mut r: FxHashMap<SessionId, f32> = FxHashMap::default();
        // Keyed by id, the recency key: as in the core kernel.
        let mut bt: RuntimeDaryHeap<SessionId, ()> =
            RuntimeDaryHeap::with_arity_and_capacity(d, config.m);
        for (i, &item) in window.iter().enumerate().rev() {
            if pos[&item] != i + 1 {
                continue;
            }
            let Some(iter) = self.postings(item) else {
                continue;
            };
            let pi = config.decay.weight(i + 1, wlen);
            for j in iter {
                if let Some(rj) = r.get_mut(&j) {
                    *rj += pi;
                    continue;
                }
                if r.len() < config.m {
                    r.insert(j, pi);
                    bt.push(j, ());
                } else {
                    let &(oldest, ()) = bt.peek().expect("bt non-empty");
                    if j > oldest {
                        bt.replace_root(j, ());
                        r.remove(&oldest);
                        r.insert(j, pi);
                    } else if config.early_stopping {
                        break;
                    }
                }
            }
        }

        let mut topk: RuntimeDaryHeap<(f32, SessionId), ()> =
            RuntimeDaryHeap::with_arity_and_capacity(d, config.k);
        for (&j, &rj) in &r {
            let key = (rj, j);
            if topk.len() < config.k {
                topk.push(key, ());
            } else {
                let &(root, ()) = topk.peek().expect("topk non-empty");
                if key > root {
                    topk.replace_root(key, ());
                }
            }
        }

        // Scoring — canonical ascending-session-id order (see core).
        let num_sessions = self.num_sessions();
        let mut neighbors: Vec<(SessionId, f32)> =
            topk.iter().map(|&((sim, sid), ())| (sid, sim)).collect();
        neighbors.sort_unstable_by_key(|&(sid, _)| sid);
        let norm = if config.normalize_by_session_length { 1.0 / wlen as f32 } else { 1.0 };
        let mut scores: FxHashMap<ItemId, f32> = FxHashMap::default();
        for &(sid, similarity) in &neighbors {
            let items = self.session_items(sid);
            let Some(max_pos) = items.iter().filter_map(|it| pos.get(it)).copied().max() else {
                continue;
            };
            let lambda = config.match_weight.weight(max_pos, wlen);
            if lambda <= 0.0 {
                continue;
            }
            let w = lambda * similarity * norm;
            for &item in items {
                if config.exclude_session_items && pos.contains_key(&item) {
                    continue;
                }
                let idf = self
                    .item_support(item)
                    .map(|h| config.idf.weight(h as usize, num_sessions))
                    .unwrap_or(1.0);
                *scores.entry(item).or_insert(0.0) += w * idf;
            }
        }
        let mut out: Vec<ItemScore> = scores
            .into_iter()
            .filter(|&(_, s)| s > 0.0)
            .map(|(item, score)| ItemScore { item, score })
            .collect();
        // Total order: cannot panic, and agrees with `partial_cmp` on every
        // score that survives the positive filter above.
        out.sort_unstable_by(|a, b| {
            b.score.total_cmp(&a.score).then(a.item.cmp(&b.item))
        });
        out.truncate(config.how_many);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serenade_core::{Click, VmisKnn};

    fn clicks() -> Vec<Click> {
        let mut out = Vec::new();
        for s in 0..60u64 {
            let ts = 500 + s * 13;
            out.push(Click::new(s + 1, s % 9, ts));
            out.push(Click::new(s + 1, (s + 3) % 9, ts + 1));
            if s % 4 == 0 {
                out.push(Click::new(s + 1, (s + 6) % 9, ts + 2));
            }
        }
        out
    }

    #[test]
    fn decoding_recovers_posting_lists() {
        let index = SessionIndex::build(&clicks(), 500).unwrap();
        let compressed = CompressedIndex::from_index(&index);
        for item in index.items() {
            let decoded: Vec<SessionId> = compressed.postings(item).unwrap().collect();
            assert_eq!(index.postings(item).unwrap(), decoded, "item {item}");
            assert_eq!(index.item_support(item), compressed.item_support(item));
        }
    }

    #[test]
    fn compression_actually_saves_space() {
        let index = SessionIndex::build(&clicks(), 500).unwrap();
        let compressed = CompressedIndex::from_index(&index);
        let raw_bytes: usize =
            index.items().map(|i| std::mem::size_of_val(index.postings(i).unwrap())).sum();
        assert!(
            compressed.posting_bytes() < raw_bytes,
            "compressed {} >= raw {raw_bytes}",
            compressed.posting_bytes()
        );
    }

    #[test]
    fn compressed_queries_match_core_exactly() {
        let index = std::sync::Arc::new(SessionIndex::build(&clicks(), 500).unwrap());
        let mut cfg = VmisConfig::default();
        cfg.m = 20;
        cfg.k = 8;
        let vmis = VmisKnn::new(std::sync::Arc::clone(&index), cfg.clone()).unwrap();
        let compressed = CompressedIndex::from_index(&index);
        for session in [&[0u64, 3] as &[u64], &[5], &[8, 2, 6], &[1, 1, 4]] {
            let a = compressed.recommend(session, &cfg).unwrap();
            let b = vmis.recommend(session);
            assert_eq!(a, b, "session {session:?}");
        }
    }

    #[test]
    fn empty_and_unknown_sessions() {
        let index = SessionIndex::build(&clicks(), 500).unwrap();
        let compressed = CompressedIndex::from_index(&index);
        let cfg = VmisConfig::default();
        assert!(compressed.recommend(&[], &cfg).unwrap().is_empty());
        assert!(compressed.recommend(&[777], &cfg).unwrap().is_empty());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let index = SessionIndex::build(&clicks(), 10).unwrap();
        let compressed = CompressedIndex::from_index(&index);
        let mut cfg = VmisConfig::default();
        cfg.m = 11; // exceeds m_max
        assert!(compressed.recommend(&[0], &cfg).is_err());
    }

    #[test]
    fn validation_conforms_to_core_for_zero_parameters() {
        // Regression: the compressed path used an ad-hoc check that let
        // `how_many == 0` and `max_session_len == 0` through while the core
        // rejected them. Both paths must now agree, with the same parameter
        // named in the error.
        let index = SessionIndex::build(&clicks(), 10).unwrap();
        let compressed = CompressedIndex::from_index(&index);
        for (param, cfg) in [
            ("m", VmisConfig { m: 0, ..VmisConfig::default() }),
            ("k", VmisConfig { k: 0, ..VmisConfig::default() }),
            ("how_many", VmisConfig { how_many: 0, ..VmisConfig::default() }),
            ("max_session_len", VmisConfig { max_session_len: 0, ..VmisConfig::default() }),
            ("m", VmisConfig { m: 11, ..VmisConfig::default() }), // > m_max
        ] {
            let core_err = VmisKnn::new(index.clone(), cfg.clone()).unwrap_err();
            let compressed_err = compressed.recommend(&[0], &cfg).unwrap_err();
            match (core_err, compressed_err) {
                (
                    CoreError::InvalidConfig { parameter: a, .. },
                    CoreError::InvalidConfig { parameter: b, .. },
                ) => {
                    assert_eq!(a, b, "core and compressed must name the same parameter");
                    assert_eq!(a, param);
                }
                other => panic!("unexpected error pair {other:?}"),
            }
        }
    }

    #[test]
    fn single_entry_posting_roundtrips() {
        let clicks = vec![Click::new(1, 42, 10), Click::new(1, 43, 11)];
        let index = SessionIndex::build(&clicks, 5).unwrap();
        let compressed = CompressedIndex::from_index(&index);
        let decoded: Vec<SessionId> = compressed.postings(42).unwrap().collect();
        assert_eq!(decoded, vec![0]);
        assert!(compressed.postings(999).is_none());
    }
}
