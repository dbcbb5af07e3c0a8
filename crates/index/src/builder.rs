//! Multi-threaded index construction.
//!
//! Mirrors the relational plan of the paper's Spark job as an in-process
//! shuffle pipeline:
//!
//! 1. **Partition clicks** by a hash of the session id across workers; each
//!    worker groups its clicks into sessions (dedup, session timestamp).
//! 2. **Merge** the per-worker session lists into the global
//!    timestamp-ordered session table (dense id assignment).
//! 3. **Shuffle (item, session)** pairs into item partitions; each worker
//!    builds the posting lists of its item partition — most recent `m`
//!    sessions per item, descending.
//!
//! The result is bit-identical to [`SessionIndex::build`] (property-tested),
//! so callers can pick whichever fits: the sequential builder for small data,
//! this one for bulk rebuilds.

use crossbeam::thread;
use serenade_core::index::{FlatColumns, Posting};
use serenade_core::{Click, CoreError, FxHashMap, ItemId, SessionId, SessionIndex, Timestamp};

/// Parallel builder configuration.
#[derive(Debug, Clone, Copy)]
pub struct BuilderConfig {
    /// Worker threads (also the number of shuffle partitions).
    pub threads: usize,
    /// Posting-list capacity `m_max`.
    pub m_max: usize,
}

impl Default for BuilderConfig {
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            m_max: 5_000,
        }
    }
}

fn session_partition(session_id: u64, parts: u64) -> usize {
    // Fibonacci-style multiplicative hash; cheap and well-spread.
    ((session_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % parts) as usize
}

/// Builds a [`SessionIndex`] with a data-parallel pipeline.
///
/// # Errors
///
/// Same contract as [`SessionIndex::build`].
pub fn build_parallel(clicks: &[Click], config: BuilderConfig) -> Result<SessionIndex, CoreError> {
    if config.m_max == 0 {
        return Err(CoreError::InvalidConfig {
            parameter: "m_max",
            reason: "posting-list capacity must be positive".into(),
        });
    }
    if clicks.is_empty() {
        return Err(CoreError::EmptyDataset);
    }
    let threads = config.threads.max(1);

    // ---- Stage 1 (map): chunked scan, clicks bucketed by session hash. ---
    // Each worker reads only its chunk once and shuffles the clicks into
    // per-destination buckets — the shared-memory analogue of a map-side
    // shuffle write.
    type LocalSession = (Timestamp, u64, Vec<ItemId>); // (session ts, ext id, dedup items)
    let chunk = clicks.len().div_ceil(threads);
    let buckets: Vec<Vec<Vec<Click>>> = thread::scope(|scope| {
        let handles: Vec<_> = clicks
            .chunks(chunk)
            .map(|my_chunk| {
                scope.spawn(move |_| {
                    let mut buckets: Vec<Vec<Click>> = vec![Vec::new(); threads];
                    for &c in my_chunk {
                        buckets[session_partition(c.session_id, threads as u64)].push(c);
                    }
                    buckets
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("stage-1 mapper")).collect()
    })
    .expect("stage-1 scope");

    // ---- Stage 1 (reduce): per-partition session grouping. ---------------
    let partials: Vec<Vec<LocalSession>> = thread::scope(|scope| {
        let buckets = &buckets;
        let handles: Vec<_> = (0..threads)
            .map(|part| {
                scope.spawn(move |_| {
                    let mut by_session: FxHashMap<u64, Vec<(Timestamp, ItemId)>> =
                        FxHashMap::default();
                    for mapper in buckets {
                        for c in &mapper[part] {
                            by_session
                                .entry(c.session_id)
                                .or_default()
                                .push((c.timestamp, c.item_id));
                        }
                    }
                    let mut sessions: Vec<LocalSession> = Vec::with_capacity(by_session.len());
                    for (ext, mut sc) in by_session {
                        sc.sort_unstable();
                        let ts = sc.last().expect("non-empty session").0;
                        let mut items: Vec<ItemId> = Vec::with_capacity(sc.len());
                        for (_, item) in sc {
                            if !items.contains(&item) {
                                items.push(item);
                            }
                        }
                        sessions.push((ts, ext, items));
                    }
                    sessions
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("stage-1 reducer")).collect()
    })
    .expect("stage-1 scope");
    drop(buckets);

    // ---- Stage 2: global merge and dense-id assignment. ------------------
    let mut sessions: Vec<LocalSession> = partials.into_iter().flatten().collect();
    sessions.sort_unstable_by_key(|s| (s.0, s.1));
    let num_sessions = sessions.len();
    if num_sessions > u32::MAX as usize {
        return Err(CoreError::TooManySessions(num_sessions));
    }
    let mut timestamps = Vec::with_capacity(num_sessions);
    let mut items_flat: Vec<ItemId> = Vec::new();
    let mut items_offsets: Vec<u32> = Vec::with_capacity(num_sessions + 1);
    items_offsets.push(0);
    for (ts, _, items) in &sessions {
        timestamps.push(*ts);
        items_flat.extend_from_slice(items);
        items_offsets.push(items_flat.len() as u32);
    }

    // ---- Stage 3 (map): chunked emission of (item → ascending sids). -----
    // Workers scan contiguous session-id ranges, so each per-item list is
    // already ascending within a chunk, and chunks concatenate in order.
    let session_chunk = sessions.len().div_ceil(threads);
    let emissions: Vec<Vec<FxHashMap<ItemId, Vec<SessionId>>>> = thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .chunks(session_chunk)
            .enumerate()
            .map(|(chunk_idx, my_sessions)| {
                scope.spawn(move |_| {
                    let base = chunk_idx * session_chunk;
                    let mut buckets: Vec<FxHashMap<ItemId, Vec<SessionId>>> =
                        vec![FxHashMap::default(); threads];
                    for (off, (_, _, items)) in my_sessions.iter().enumerate() {
                        let sid = (base + off) as SessionId;
                        for &item in items {
                            buckets[session_partition(item, threads as u64)]
                                .entry(item)
                                .or_default()
                                .push(sid);
                        }
                    }
                    buckets
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("stage-3 mapper")).collect()
    })
    .expect("stage-3 scope");

    // ---- Stage 3 (reduce): per item-partition posting assembly. ----------
    let postings: FxHashMap<ItemId, Posting> = thread::scope(|scope| {
        let emissions = &emissions;
        let handles: Vec<_> = (0..threads)
            .map(|part| {
                scope.spawn(move |_| {
                    let mut ascending: FxHashMap<ItemId, Vec<SessionId>> = FxHashMap::default();
                    for mapper in emissions {
                        for (&item, sids) in &mapper[part] {
                            ascending.entry(item).or_default().extend_from_slice(sids);
                        }
                    }
                    let mut out: FxHashMap<ItemId, Posting> = FxHashMap::default();
                    for (item, sids) in ascending {
                        let support = sids.len() as u32;
                        let entries = sids.iter().rev().take(config.m_max).copied().collect();
                        out.insert(item, Posting { entries, support, slot: 0 });
                    }
                    out
                })
            })
            .collect();
        let mut merged: FxHashMap<ItemId, Posting> = FxHashMap::default();
        for h in handles {
            merged.extend(h.join().expect("stage-3 reducer"));
        }
        merged
    })
    .expect("stage-3 scope");

    let columns =
        FlatColumns { timestamps: &timestamps, offsets: &items_offsets, items: &items_flat };
    SessionIndex::from_parts(postings, &columns, config.m_max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clicks() -> Vec<Click> {
        let mut out = Vec::new();
        for s in 0..50u64 {
            let ts = 1_000 + s * 17;
            out.push(Click::new(s + 1, s % 7, ts));
            out.push(Click::new(s + 1, (s + 2) % 7, ts + 1));
            if s % 2 == 0 {
                out.push(Click::new(s + 1, (s + 4) % 7, ts + 2));
            }
        }
        out
    }

    fn assert_same_index(a: &SessionIndex, b: &SessionIndex) {
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.num_sessions(), b.num_sessions());
        for sid in 0..a.num_sessions() as SessionId {
            assert_eq!(a.session_timestamp(sid), b.session_timestamp(sid), "ts of {sid}");
            assert_eq!(a.session_items(sid), b.session_items(sid), "items of {sid}");
        }
        let mut items: Vec<ItemId> = a.items().collect();
        items.sort_unstable();
        let mut items_b: Vec<ItemId> = b.items().collect();
        items_b.sort_unstable();
        assert_eq!(items, items_b);
        for item in items {
            assert_eq!(a.postings(item), b.postings(item), "postings of {item}");
            assert_eq!(a.item_support(item), b.item_support(item), "support of {item}");
        }
    }

    #[test]
    fn parallel_build_matches_sequential_reference() {
        let clicks = clicks();
        let reference = SessionIndex::build(&clicks, 10).unwrap();
        for threads in [1, 2, 4, 7] {
            let parallel =
                build_parallel(&clicks, BuilderConfig { threads, m_max: 10 }).unwrap();
            assert_same_index(&reference, &parallel);
        }
    }

    #[test]
    fn truncation_matches_sequential() {
        let clicks = clicks();
        let reference = SessionIndex::build(&clicks, 3).unwrap();
        let parallel = build_parallel(&clicks, BuilderConfig { threads: 3, m_max: 3 }).unwrap();
        assert_same_index(&reference, &parallel);
    }

    #[test]
    fn empty_input_is_rejected() {
        let err = build_parallel(&[], BuilderConfig::default()).unwrap_err();
        assert!(matches!(err, CoreError::EmptyDataset));
    }

    #[test]
    fn zero_m_max_is_rejected() {
        let err = build_parallel(&clicks(), BuilderConfig { threads: 2, m_max: 0 }).unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig { .. }));
    }

    #[test]
    fn more_threads_than_sessions_is_fine() {
        let clicks = vec![Click::new(1, 5, 1), Click::new(1, 6, 2)];
        let idx = build_parallel(&clicks, BuilderConfig { threads: 16, m_max: 10 }).unwrap();
        assert_eq!(idx.num_sessions(), 1);
        assert_eq!(idx.postings(5).unwrap(), &[0]);
    }
}
