//! Offline index construction — the in-process analogue of the paper's
//! daily Spark job (PAPER.md §4.2).
//!
//! The job's plan — group by session, number the sessions by recency,
//! group by item, keep the `m` most recent sessions per item — is carried
//! out by counting rather than by shuffling: [`SessionIndex::build_with_threads`]
//! groups the clicks into per-session runs in one counting pass and fills
//! every posting into an exact-size range (see `serenade_core::index`).
//! Each worker takes a hash class of sessions or items, a range of
//! sessions, or a range of slots, whose postings it fills — no shuffle in
//! between. With one thread it *is* [`SessionIndex::build`]; every thread
//! count builds the same index.

use serenade_core::{Click, CoreError, SessionIndex};

/// Parallel builder configuration.
#[derive(Debug, Clone, Copy)]
pub struct BuilderConfig {
    /// Worker threads.
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

/// Builds a [`SessionIndex`] on `config.threads` threads.
///
/// # Errors
///
/// Same contract as [`SessionIndex::build`].
pub fn build_parallel(clicks: &[Click], config: BuilderConfig) -> Result<SessionIndex, CoreError> {
    SessionIndex::build_with_threads(clicks, config.m_max, config.threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serenade_core::{ItemId, SessionId};

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
            assert_eq!(a.session_slots(sid), b.session_slots(sid), "slots of {sid}");
        }
        assert!(a.slot_items().iter().eq(b.slot_items().iter()));
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
            let parallel = build_parallel(&clicks, BuilderConfig { threads, m_max: 10 }).unwrap();
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
