//! Grouping a click log into sessions, by counting, on every core.
//!
//! Everything that starts from a raw click log needs the same grouping
//! first: each session's clicks together and in time order, and the
//! sessions in the order dense ids are assigned in — ascending `(last
//! timestamp, external id)` (see [`crate::index`], "The id is the recency
//! key"). The index build, the incremental indexer, sessionization, the
//! train/test split and the preprocessing filters all take it from
//! [`SessionRuns::group`], which makes it with one hash lookup per click and
//! no allocation per session. Its passes over the clicks run on `threads`
//! threads, each owning one hash class of session ids (see
//! [`class_of`]), the way a dataflow exchanges records by key:
//!
//! 1. **number**: every thread reads the whole log but looks up only the
//!    sessions of its class, remapping each to a dense number of the class
//!    in order of first appearance; per number it counts the clicks and
//!    keeps the last timestamp, and per click of the class its number;
//! 2. **sort**: each class sorts its sessions by `(last timestamp, external
//!    id)`, and the sorted classes merge, in O(sessions), into the one order
//!    of all sessions: a session's place in it is its **rank**;
//! 3. **scatter**: the counts, prefix-summed in rank order, give every
//!    session an exact-size run of one shared array. Each thread owns a
//!    range of ranks — a contiguous slice of the array, so no two threads
//!    write one cache line — reads the whole log, and writes the clicks
//!    whose session ranks in its range;
//! 4. **run sort**: each run is sorted by `(timestamp, item)`, each thread
//!    its range of ranks.
//!
//! `threads = 1` runs the same passes with one class and one range.

use std::time::{Duration, Instant};

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

/// Wall time of each pass of [`SessionRuns::group`] (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct GroupPhases {
    /// Numbering the sessions of each class.
    pub number: Duration,
    /// Sorting each class and merging the classes into the rank order.
    pub sort: Duration,
    /// Scattering the clicks into their runs.
    pub scatter: Duration,
    /// Sorting each run.
    pub run_sort: Duration,
}

/// One class's sessions as step 1 leaves them: per session `(last
/// timestamp, external id, number, clicks)`, and per click of the class,
/// in log order, its session's number.
type Numbered = (Vec<(Timestamp, ExternalSessionId, u32, u32)>, Vec<u32>);

impl SessionRuns {
    /// Groups `clicks` into sessions on up to `threads` threads (see the
    /// module docs); the runs are the same for every `threads`.
    ///
    /// # Panics
    ///
    /// If `clicks` holds more than `u32::MAX` clicks: ranks and run offsets
    /// are 32-bit, as the index's dense ids and CSR offsets are.
    pub fn group(clicks: &[Click], threads: usize) -> Self {
        Self::group_timed(clicks, threads, &mut GroupPhases::default())
    }

    /// [`SessionRuns::group`], adding the time of each pass to `phases`.
    pub(crate) fn group_timed(clicks: &[Click], threads: usize, phases: &mut GroupPhases) -> Self {
        assert!(clicks.len() <= u32::MAX as usize, "more than u32::MAX clicks to group");
        let classes = threads.max(1);

        // 1. Dense numbers of each class, by first appearance.
        let t = Instant::now();
        // Each class's keys and numbers are allocated here, on the caller's
        // thread, and grow in place: what a spawned thread allocates and
        // frees stays in its own allocator arena, where the caller's later
        // allocations cannot reuse it. Room for a class's share of the
        // clicks, and a sixteenth of the other classes' for the unevenness
        // of the hash; one class has room for exactly every click.
        let (share, others) = (clicks.len() / classes, clicks.len() - clicks.len() / classes);
        let buffers = (0..classes)
            .map(|class| (class, Vec::with_capacity(1), Vec::with_capacity(share + others / 16)));
        let numbered: Vec<Numbered> = run_parallel(buffers.collect(), |(class, mut keys, mut numbers)| {
            let mut dense: FxHashMap<ExternalSessionId, u32> = FxHashMap::default();
            for_each_of_class(clicks, |c| c.session_id, (class, classes), |c| {
                let number = *dense.entry(c.session_id).or_insert_with(|| {
                    keys.push((c.timestamp, c.session_id, keys.len() as u32, 0));
                    (keys.len() - 1) as u32
                });
                let key = &mut keys[number as usize];
                (key.0, key.3) = (key.0.max(c.timestamp), key.3 + 1);
                numbers.push(number);
            });
            numbers.shrink_to_fit();
            (keys, numbers)
        });
        phases.number += t.elapsed();

        // 2. Ranks: each class sorted, then the classes merged. The merge
        // gives every number of every class its rank, and every rank its
        // external id and its run's end.
        let t = Instant::now();
        let (mut sorted, numbers): (Vec<_>, Vec<_>) = numbered.into_iter().unzip();
        run_parallel(sorted.iter_mut().collect(), |keys| keys.sort_unstable());
        let sessions: usize = sorted.iter().map(Vec::len).sum();
        let mut rank_of: Vec<Vec<u32>> = sorted.iter().map(|keys| vec![0; keys.len()]).collect();
        let mut ext_ids = Vec::with_capacity(sessions);
        let mut offsets = Vec::with_capacity(sessions + 1);
        offsets.push(0u32);
        for (class, (_, ext, number, count)) in merge_ascending(&sorted) {
            rank_of[class][number as usize] = ext_ids.len() as u32;
            offsets.push(offsets[ext_ids.len()] + count);
            ext_ids.push(ext);
        }
        drop(sorted);
        phases.sort += t.elapsed();

        // 3. Runs. Each class's numbers become ranks; then each thread
        // scatters the clicks of its range of ranks into its slice of the
        // runs, reading the ranks of every class in log order.
        let t = Instant::now();
        let jobs = numbers.into_iter().zip(rank_of).collect();
        let ranks = run_parallel(jobs, |(mut numbers, rank_of): (Vec<u32>, Vec<u32>)| {
            numbers.iter_mut().for_each(|number| *number = rank_of[*number as usize]);
            numbers
        });
        let mut runs = vec![(0, 0); clicks.len()];
        let per_thread = sessions.div_ceil(classes).max(1);
        let (mut ranges, mut rest) = (Vec::new(), &mut runs[..]);
        for lo in (0..sessions).step_by(per_thread) {
            let hi = sessions.min(lo + per_thread);
            let clicks_in = (offsets[hi] - offsets[lo]) as usize;
            let (part, tail) = std::mem::take(&mut rest).split_at_mut(clicks_in);
            ranges.push((lo, &offsets[lo..=hi], part, Vec::with_capacity(hi - lo)));
            rest = tail;
        }
        for (_, offsets, _, next) in ranges.iter_mut() {
            next.extend(offsets[..offsets.len() - 1].iter().map(|&at| at - offsets[0]));
        }
        run_parallel(ranges.iter_mut().collect(), |(lo, _, part, next)| {
            let mut read = vec![0; classes];
            // As `for_each_of_class`: 64 clicks' ranks at a time, and a mask
            // of those in the range.
            let mut block_ranks = [0; 64];
            for block in clicks.chunks(64) {
                let mut mine = 0u64;
                for (at, c) in block.iter().enumerate() {
                    let class = class_of(c.session_id, classes);
                    let k = (ranks[class][read[class]] as usize).wrapping_sub(*lo);
                    read[class] += 1;
                    block_ranks[at] = k;
                    mine |= u64::from(k < next.len()) << at;
                }
                while mine != 0 {
                    let at = mine.trailing_zeros() as usize;
                    let (c, into) = (&block[at], &mut next[block_ranks[at]]);
                    part[*into as usize] = (c.timestamp, c.item_id);
                    *into += 1;
                    mine &= mine - 1;
                }
            }
        });
        drop(ranks);
        phases.scatter += t.elapsed();

        // 4. Time order within each run, each thread its range of ranks.
        let t = Instant::now();
        run_parallel(ranges, |(_, offsets, part, _)| {
            for span in offsets.windows(2) {
                part[(span[0] - offsets[0]) as usize..(span[1] - offsets[0]) as usize]
                    .sort_unstable();
            }
        });
        phases.run_sort += t.elapsed();
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

    /// Every click as `(timestamp, item)`, run after run in rank order.
    pub(crate) fn clicks(&self) -> &[(Timestamp, ItemId)] {
        &self.clicks
    }

    /// Run offsets: the session at `rank` holds the clicks
    /// `offsets()[rank]..offsets()[rank + 1]` of all runs together.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }
}

/// The threads a pass runs on when its caller names no count: the
/// machine's available parallelism, or 1 where it cannot be read.
pub fn machine_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs `work` on every job, the first on the caller's thread and each
/// other on a scoped thread of its own, and returns the results in job
/// order. A panicking job panics the caller.
pub fn run_parallel<J: Send, R: Send>(jobs: Vec<J>, work: impl Fn(J) -> R + Sync) -> Vec<R> {
    if jobs.len() <= 1 {
        return jobs.into_iter().map(work).collect();
    }
    let mut results: Vec<Option<R>> = jobs.iter().map(|_| None).collect();
    let work = &work;
    let tasks = jobs.into_iter().zip(&mut results).map(|(job, result)| {
        Box::new(move || *result = Some(work(job))) as Box<dyn FnOnce() + Send + '_>
    });
    run_tasks(tasks.collect());
    results.into_iter().map(|result| result.expect("every job ran")).collect()
}

/// A vector of the parts of `parts` laid end to end, each `(job, len)`
/// written by `work`, as [`run_parallel`] runs it, through a [`Part`] of
/// `len` entries. The vector is allocated here, on the caller's
/// thread, and each part is first touched by the thread that writes it, so
/// the page faults of a fresh vector spread over the cores.
///
/// # Panics
///
/// If `work` writes a part past its end or leaves it short.
pub fn fill_parallel<J: Send, T: Copy + Send>(
    parts: Vec<(J, usize)>,
    work: impl Fn(J, &mut Part<'_, T>) + Sync,
) -> Vec<T> {
    let total = parts.iter().map(|&(_, len)| len).sum();
    let mut out = Vec::with_capacity(total);
    let mut rest = &mut out.spare_capacity_mut()[..total];
    let jobs = parts.into_iter().map(|(job, len)| {
        let (entries, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        (job, Part { entries, written: 0 })
    });
    let full = run_parallel(jobs.collect(), |(job, mut part)| {
        work(job, &mut part);
        part.written == part.entries.len()
    });
    assert!(full.iter().all(|&full| full), "a part was left short");
    // SAFETY: the parts tile the first `total` entries of the capacity, and
    // every part was written in full: `Part::push` writes its entries in
    // order, one a call, and `written` counts them.
    unsafe { out.set_len(total) };
    out
}

/// One part of the vector [`fill_parallel`] makes: entries not yet written,
/// written front to back.
pub struct Part<'a, T> {
    entries: &'a mut [std::mem::MaybeUninit<T>],
    written: usize,
}

impl<T> Part<'_, T> {
    /// Writes the next entry.
    ///
    /// # Panics
    ///
    /// If the part is full.
    #[inline]
    pub fn push(&mut self, value: T) {
        self.entries[self.written].write(value);
        self.written += 1;
    }
}

/// Runs the first task on the caller's thread and every other on a scoped
/// thread of its own, and waits for them all; a panicking task panics the
/// caller. What the first task allocates goes to the caller's allocator
/// arena, where a spawned thread's would stay out of the caller's reach.
/// Not generic, so that the threads' machinery is compiled once for every
/// caller of [`run_parallel`].
fn run_tasks(tasks: Vec<Box<dyn FnOnce() + Send + '_>>) {
    let mut tasks = tasks.into_iter();
    let first = tasks.next();
    std::thread::scope(|scope| {
        let handles: Vec<_> = tasks.map(|task| scope.spawn(task)).collect();
        first.into_iter().for_each(|task| task());
        for handle in handles {
            handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        }
    });
}

/// Which of `classes` hash classes `key` belongs to: the thread that owns
/// it in a pass split by key.
///
/// A multiply-shift of its own constant, not the [`crate::hash`] hash: a
/// class's keys then spread over a hash map's buckets as all keys would,
/// instead of sharing their low bits.
#[inline]
pub fn class_of(key: u64, classes: usize) -> usize {
    let mixed = key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
    ((mixed * classes as u64) >> 32) as usize
}

/// Calls `f` on each of `entries` whose `key` is of hash class `class` of
/// `classes`, in order. The classes of 64 entries at a time are tested into
/// a mask without a branch, and only the set bits are walked: a thread that
/// reads the whole log for its class pays no mispredicted branch a click
/// that is not its own.
#[inline]
pub fn for_each_of_class<T>(
    entries: &[T],
    key: impl Fn(&T) -> u64,
    (class, classes): (usize, usize),
    mut f: impl FnMut(&T),
) {
    for block in entries.chunks(64) {
        let mut mine = 0u64;
        for (at, entry) in block.iter().enumerate() {
            mine |= u64::from(class_of(key(entry), classes) == class) << at;
        }
        while mine != 0 {
            f(&block[mine.trailing_zeros() as usize]);
            mine &= mine - 1;
        }
    }
}

/// The entries of `lists`, each ascending, in one ascending order, each
/// with the index of its list: the merge of the sorted classes of a pass
/// split by key. O(entries × lists), for the few lists of a thread count.
pub fn merge_ascending<T: Ord + Copy>(
    lists: &[Vec<T>],
) -> impl Iterator<Item = (usize, T)> + Clone + '_ {
    let mut read = vec![0; lists.len()];
    std::iter::from_fn(move || {
        let heads = lists.iter().zip(&read).enumerate();
        let (list, entry) = heads
            .filter_map(|(list, (entries, &at))| Some((list, *entries.get(at)?)))
            .min_by_key(|&(_, entry)| entry)?;
        read[list] += 1;
        Some((list, entry))
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
        for threads in [2, 3, 8, 64] {
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
