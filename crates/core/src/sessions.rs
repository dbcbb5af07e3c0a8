//! Grouping a click log into sessions, by counting.
//!
//! Everything that starts from a raw click log needs the same grouping
//! first: each session's clicks together and in time order, and the
//! sessions in the order dense ids are assigned in — ascending `(last
//! timestamp, external id)` (see [`crate::index`], "The id is the recency
//! key"). The index build, the incremental indexer, sessionization, the
//! train/test split and the preprocessing filters all take it from
//! [`SessionRuns::group`], which makes it with one hash lookup per click and
//! no allocation per session:
//!
//! 1. each click's external session id is looked up once and remapped to a
//!    dense number in order of first appearance; per number the clicks are
//!    counted and the last timestamp is kept;
//! 2. the sessions are sorted by `(last timestamp, external id)`: a
//!    session's place in that order is its **rank**;
//! 3. the counts, prefix-summed in rank order, give every session an
//!    exact-size run of one shared array, and the clicks are scattered into
//!    their runs;
//! 4. each run is sorted by `(timestamp, item)`. Runs are disjoint, so
//!    `threads` sort ranges of ranks side by side.

use crate::hash::FxHashMap;
use crate::types::{Click, ExternalSessionId, ItemId, Timestamp};

/// A click log grouped into sessions, the sessions by rank (see the module
/// docs). Every run holds at least one click.
#[derive(Debug, Clone)]
pub struct SessionRuns {
    /// External id of each session, by rank.
    ext_ids: Vec<ExternalSessionId>,
    /// Session `r`'s clicks are `clicks[offsets[r]..offsets[r + 1]]`.
    offsets: Vec<u32>,
    /// Every click as `(timestamp, item)`, session by session in rank order,
    /// each run in ascending order.
    clicks: Vec<(Timestamp, ItemId)>,
}

impl SessionRuns {
    /// Groups `clicks` into sessions, sorting the runs on up to `threads`
    /// threads (see the module docs).
    ///
    /// # Panics
    ///
    /// If `clicks` holds more than `u32::MAX` clicks: ranks and run offsets
    /// are 32-bit, as the index's dense ids and CSR offsets are.
    pub fn group(clicks: &[Click], threads: usize) -> Self {
        assert!(clicks.len() <= u32::MAX as usize, "more than u32::MAX clicks to group");
        // 1. Dense numbers, by first appearance; each click's session
        // number is kept until the scatter has read it.
        let mut dense: FxHashMap<ExternalSessionId, u32> = FxHashMap::default();
        // Per number: (last timestamp, external id, number, clicks).
        let mut keys: Vec<(Timestamp, ExternalSessionId, u32, u32)> = Vec::new();
        let mut numbers: Vec<u32> = Vec::with_capacity(clicks.len());
        for c in clicks {
            let number = *dense.entry(c.session_id).or_insert_with(|| {
                keys.push((c.timestamp, c.session_id, keys.len() as u32, 0));
                (keys.len() - 1) as u32
            });
            let key = &mut keys[number as usize];
            (key.0, key.3) = (key.0.max(c.timestamp), key.3 + 1);
            numbers.push(number);
        }
        drop(dense);

        // 2. Ranks.
        keys.sort_unstable();

        // 3. Runs.
        let mut rank_of = vec![0u32; keys.len()];
        let mut offsets = vec![0u32];
        for (rank, &(_, _, number, count)) in keys.iter().enumerate() {
            rank_of[number as usize] = rank as u32;
            offsets.push(offsets[rank] + count);
        }
        // Collected afresh, not in the keys' buffer: that one is three times
        // the size and is freed here, before the scatter.
        let ext_ids: Vec<_> = keys.iter().map(|&(_, ext, _, _)| ext).collect();
        drop(keys);
        let mut next = offsets.clone();
        let mut runs = vec![(0, 0); clicks.len()];
        for (c, &number) in clicks.iter().zip(&numbers) {
            let at = &mut next[rank_of[number as usize] as usize];
            runs[*at as usize] = (c.timestamp, c.item_id);
            *at += 1;
        }
        drop((numbers, rank_of, next));

        // 4. Time order within each run, `threads` ranges of ranks side by side.
        let n = ext_ids.len();
        let per_thread = n.div_ceil(threads.max(1)).max(1);
        let (mut jobs, mut rest) = (Vec::new(), &mut runs[..]);
        for lo in (0..n).step_by(per_thread) {
            let hi = n.min(lo + per_thread);
            let clicks_in = (offsets[hi] - offsets[lo]) as usize;
            let (part, tail) = std::mem::take(&mut rest).split_at_mut(clicks_in);
            jobs.push((&offsets[lo..=hi], part));
            rest = tail;
        }
        run_parallel(jobs, |(offsets, part)| {
            for span in offsets.windows(2) {
                part[(span[0] - offsets[0]) as usize..(span[1] - offsets[0]) as usize]
                    .sort_unstable();
            }
        });
        Self { ext_ids, offsets, clicks: runs }
    }

    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.ext_ids.len()
    }

    /// `true` if the log held no click.
    pub fn is_empty(&self) -> bool {
        self.ext_ids.is_empty()
    }

    /// External id of the session at `rank`.
    pub fn ext_id(&self, rank: usize) -> ExternalSessionId {
        self.ext_ids[rank]
    }

    /// The clicks of the session at `rank` as `(timestamp, item)`, in
    /// ascending order: time order, ties by item id.
    pub fn run(&self, rank: usize) -> &[(Timestamp, ItemId)] {
        &self.clicks[self.offsets[rank] as usize..self.offsets[rank + 1] as usize]
    }

    /// Timestamp of the session at `rank`: that of its last click.
    pub fn timestamp(&self, rank: usize) -> Timestamp {
        self.clicks[self.offsets[rank + 1] as usize - 1].0
    }

    /// Run offsets: the session at `rank` holds the clicks
    /// `offsets()[rank]..offsets()[rank + 1]` of all runs together.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }
}

/// Runs `work` on every job, each on a scoped thread of its own — on the
/// caller's thread when there is only one — and returns the results in job
/// order. A panicking job panics the caller.
pub(crate) fn run_parallel<J: Send, R: Send>(jobs: Vec<J>, work: impl Fn(J) -> R + Sync) -> Vec<R> {
    if jobs.len() <= 1 {
        return jobs.into_iter().map(work).collect();
    }
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = jobs.into_iter().map(|job| scope.spawn(move || work(job))).collect();
        handles
            .into_iter()
            .map(|handle| handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_are_ranked_by_last_timestamp_then_id_and_runs_sorted() {
        let clicks = [
            Click::new(9, 1, 50),
            Click::new(4, 7, 30),
            Click::new(9, 2, 10),
            Click::new(2, 5, 30),
            Click::new(4, 6, 30),
            Click::new(9, 1, 10),
        ];
        let runs = SessionRuns::group(&clicks, 1);
        assert_eq!((0..runs.len()).map(|r| runs.ext_id(r)).collect::<Vec<_>>(), [2, 4, 9]);
        assert_eq!(runs.run(1), &[(30, 6), (30, 7)]);
        assert_eq!(runs.run(2), &[(10, 1), (10, 2), (50, 1)]);
        assert_eq!((runs.timestamp(0), runs.timestamp(2)), (30, 50));
        assert_eq!(runs.offsets(), &[0, 1, 3, 6]);
    }

    #[test]
    fn threads_only_change_who_sorts() {
        let clicks: Vec<Click> =
            (0..5_000u64).map(|i| Click::new(i * 7 % 613, i * 13 % 97, i * 31 % 1_009)).collect();
        let one = SessionRuns::group(&clicks, 1);
        for threads in [2, 3, 8, 1_000] {
            let many = SessionRuns::group(&clicks, threads);
            assert_eq!(many.offsets(), one.offsets(), "threads {threads}");
            for rank in 0..one.len() {
                assert_eq!(many.ext_id(rank), one.ext_id(rank), "threads {threads}");
                assert_eq!(many.run(rank), one.run(rank), "threads {threads}");
            }
        }
    }

    #[test]
    fn no_clicks_no_sessions() {
        let runs = SessionRuns::group(&[], 4);
        assert!(runs.is_empty() && runs.offsets() == [0]);
    }

    #[test]
    fn jobs_run_each_once_and_answer_in_order() {
        for jobs in 0..5 {
            let ran = std::sync::atomic::AtomicUsize::new(0);
            let answers = run_parallel((0..jobs).collect(), |job| {
                ran.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                job * 10
            });
            assert_eq!(answers, (0..jobs).map(|job| job * 10).collect::<Vec<_>>());
            assert_eq!(ran.into_inner(), jobs);
        }
    }
}
