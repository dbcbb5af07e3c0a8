//! Exploration runtime: a cooperative scheduler that serialises model
//! threads and enumerates their interleavings by depth-first search.
//!
//! One OS thread backs each model thread, but a "baton" (the `active` field
//! guarded by the state mutex) guarantees only one of them executes user
//! code at any instant. Every shimmed operation is a *scheduling point*: the
//! active thread consults the trace to decide which runnable thread performs
//! its pending operation next. The trace is a stack of `(options, picked)`
//! choices; after an execution finishes, the driver increments the last
//! non-exhausted choice and replays, which enumerates the whole (bounded)
//! tree without randomness.
//!
//! Two bounds keep the tree finite: a CHESS-style preemption budget (only
//! schedules with at most N involuntary context switches are explored —
//! blocking and finishing are free) and a per-execution step cap that
//! converts livelocks into failures.
//!
//! Weak memory is modelled with per-location store histories and
//! per-thread vector clocks: a non-SeqCst load may observe any store that
//! is not superseded by one already happening-before the loader (stale
//! reads), and acquire loads merge the release clock of the store they
//! observe. SeqCst operations always observe the newest store — a sound
//! place to *prove mutations are caught* (weakening an ordering opens up
//! stale-read schedules), though not a complete C++11 memory model.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc as StdArc, Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

/// Vector clock: `clock[t]` is the newest event of thread `t` known to the
/// clock's owner. Indexed by thread id, grown on demand.
pub(crate) type VClock = Vec<u64>;

fn vc_get(c: &VClock, tid: usize) -> u64 {
    c.get(tid).copied().unwrap_or(0)
}

fn vc_join(into: &mut VClock, other: &VClock) {
    if into.len() < other.len() {
        into.resize(other.len(), 0);
    }
    for (i, v) in other.iter().enumerate() {
        if into[i] < *v {
            into[i] = *v;
        }
    }
}

fn vc_bump(c: &mut VClock, tid: usize) -> u64 {
    if c.len() <= tid {
        c.resize(tid + 1, 0);
    }
    c[tid] += 1;
    c[tid]
}

/// One recorded store to an atomic location.
pub(crate) struct StoreEvt {
    pub value: u64,
    /// Thread that performed the store and its clock component at the time;
    /// a store happened-before thread `t` iff `t`'s clock has caught up to
    /// `(writer, writer_time)`.
    pub writer: usize,
    pub writer_time: u64,
    /// Clock released by this store (present for Release/AcqRel/SeqCst
    /// stores and for RMWs continuing a release sequence); acquire loads
    /// that observe the store join it.
    pub release: Option<VClock>,
}

pub(crate) struct Location {
    pub stores: Vec<StoreEvt>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Run {
    Runnable,
    /// Waiting on a mutex or a join; made Runnable again by the waker.
    Blocked,
    Finished,
}

pub(crate) struct Thread {
    pub run: Run,
    pub clock: VClock,
    /// Per-location index of the newest store this thread has observed
    /// (coherence: a thread never reads older than what it already read).
    pub last_read: HashMap<usize, usize>,
    /// Threads blocked in `join` on this one.
    pub joiners: Vec<usize>,
}

#[derive(Clone, Copy, Debug)]
pub(crate) struct Choice {
    pub options: usize,
    pub picked: usize,
}

pub(crate) struct MutexState {
    pub held_by: Option<usize>,
    pub release_clock: VClock,
}

/// A model `Arc` allocation. The backing memory is not released when the
/// model drops the last reference; the driver deallocates every allocation
/// between iterations, whichever path the execution took.
pub(crate) struct ArcAlloc {
    pub strong: u64,
    /// Type-erased deallocator: `(drop_fn, heap pointer as usize)`.
    pub dealloc: (unsafe fn(usize), usize),
}

pub(crate) struct State {
    pub threads: Vec<Thread>,
    pub active: usize,
    pub trace: Vec<Choice>,
    pub cursor: usize,
    pub preemptions: u32,
    pub preemption_bound: u32,
    pub steps: u64,
    pub max_steps: u64,
    pub failure: Option<String>,
    pub locations: Vec<Location>,
    pub mutexes: Vec<MutexState>,
    pub arcs: Vec<ArcAlloc>,
    pub os_threads: Vec<std::thread::JoinHandle<()>>,
    /// Thread ids in the order they were handed the baton, for diagnostics.
    pub schedule_log: Vec<usize>,
}

impl State {
    fn new(trace: Vec<Choice>, preemption_bound: u32, max_steps: u64) -> Self {
        Self {
            threads: vec![Thread {
                run: Run::Runnable,
                clock: vec![1],
                last_read: HashMap::new(),
                joiners: Vec::new(),
            }],
            active: 0,
            trace,
            cursor: 0,
            preemptions: 0,
            preemption_bound,
            steps: 0,
            max_steps,
            failure: None,
            locations: Vec::new(),
            mutexes: Vec::new(),
            arcs: Vec::new(),
            os_threads: Vec::new(),
            schedule_log: vec![0],
        }
    }

    /// Records a failure (first one wins) with the schedule so far attached.
    pub(crate) fn fail(&mut self, msg: &str) {
        if self.failure.is_none() {
            let tail: Vec<String> =
                self.schedule_log.iter().map(|t| t.to_string()).collect();
            self.failure = Some(format!("{msg} [schedule: {}]", tail.join(",")));
        }
    }

    /// Consults (or extends) the trace for an `options`-way choice.
    pub(crate) fn choose(&mut self, options: usize) -> usize {
        debug_assert!(options > 0);
        if options == 1 {
            return 0;
        }
        if self.cursor < self.trace.len() {
            let c = self.trace[self.cursor];
            if c.options != options {
                self.fail(&format!(
                    "nondeterministic model: replay found {options}-way choice where \
                     a previous run had {}-way",
                    c.options
                ));
                self.cursor += 1;
                return 0;
            }
            self.cursor += 1;
            c.picked
        } else {
            self.trace.push(Choice { options, picked: 0 });
            self.cursor += 1;
            0
        }
    }
}

pub(crate) struct Rt {
    pub mx: StdMutex<State>,
    pub cv: Condvar,
}

thread_local! {
    static CURRENT: RefCell<Option<(StdArc<Rt>, usize)>> = const { RefCell::new(None) };
}

/// Returns this OS thread's model context, panicking with a clear message
/// when a shimmed primitive is used outside `loom::model`.
pub(crate) fn current() -> (StdArc<Rt>, usize) {
    CURRENT.with(|c| {
        c.borrow()
            .clone()
            .expect("loom shim primitive used outside loom::model")
    })
}

pub(crate) fn current_tid() -> usize {
    current().1
}

fn set_current(ctx: Option<(StdArc<Rt>, usize)>) {
    CURRENT.with(|c| *c.borrow_mut() = ctx);
}

pub(crate) fn dbg_enabled() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("LOOM_SHIM_DEBUG").is_some())
}

macro_rules! shim_dbg {
    ($($t:tt)*) => { if crate::rt::dbg_enabled() { eprintln!($($t)*); } }
}

fn lock(rt: &Rt) -> StdMutexGuard<'_, State> {
    match rt.mx.lock() {
        Ok(g) => g,
        // A thread that panicked while holding the state lock has already
        // recorded a failure; keep going so everyone can unwind.
        Err(p) => p.into_inner(),
    }
}

/// Panics to abort the current execution after a failure, unless the thread
/// is already unwinding (a panic-in-panic would abort the whole process).
fn abort_unwind() -> ! {
    // Unreachable when already panicking: callers check `thread::panicking`
    // before taking a path that can land here.
    panic!("loom: execution aborted after model failure");
}

/// Candidates for "who performs the next operation", given that `me` is at
/// an operation boundary and still Runnable. `me` is always listed first so
/// the DFS default (`picked == 0`) is "continue without preempting".
fn op_candidates(st: &State, me: usize) -> Vec<usize> {
    let mut cands = vec![me];
    if st.preemptions < st.preemption_bound {
        cands.extend(successor_candidates(st, me));
    }
    cands
}

/// Candidates when `me` cannot continue (blocked or finished): every other
/// Runnable thread.
fn successor_candidates(st: &State, me: usize) -> Vec<usize> {
    st.threads
        .iter()
        .enumerate()
        .filter(|(tid, t)| *tid != me && t.run == Run::Runnable)
        .map(|(tid, _)| tid)
        .collect()
}

/// Hands the baton to `to` and parks until it comes back. Returns with the
/// state lock reacquired and `active == me`, or panics on abort.
fn handoff_and_wait<'a>(
    rt: &'a Rt,
    mut st: StdMutexGuard<'a, State>,
    me: usize,
    to: usize,
) -> StdMutexGuard<'a, State> {
    st.active = to;
    st.schedule_log.push(to);
    shim_dbg!("[thread {me}] handoff -> {to}");
    rt.cv.notify_all();
    loop {
        if st.failure.is_some() {
            drop(st);
            abort_unwind();
        }
        if st.active == me {
            shim_dbg!("[thread {me}] baton back");
            return st;
        }
        st = match rt.cv.wait(st) {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
    }
}

/// Bumps the step counter, converting runaway executions into failures.
fn bump_steps(st: &mut State) -> bool {
    st.steps += 1;
    if st.steps > st.max_steps {
        st.fail(&format!(
            "livelock: execution exceeded {} scheduling points",
            st.max_steps
        ));
        return false;
    }
    true
}

/// The heart of every shimmed operation: a scheduling point followed by an
/// effect executed atomically under the state lock. During abort-unwind the
/// effect runs without scheduling (drops of user values must not deadlock
/// or double-panic).
pub(crate) fn op<R>(f: impl FnOnce(&mut State, usize) -> R) -> R {
    let (rt, me) = current();
    let mut st = lock(&rt);
    if std::thread::panicking() {
        return f(&mut st, me);
    }
    if st.failure.is_some() {
        drop(st);
        abort_unwind();
    }
    if !bump_steps(&mut st) {
        rt.cv.notify_all();
        drop(st);
        abort_unwind();
    }
    let cands = op_candidates(&st, me);
    let pick = st.choose(cands.len());
    let to = cands[pick];
    if to != me {
        st.preemptions += 1;
        st = handoff_and_wait(&rt, st, me, to);
    }
    let r = f(&mut st, me);
    if st.failure.is_some() {
        rt.cv.notify_all();
        drop(st);
        abort_unwind();
    }
    r
}

/// A blocking operation: retries `attempt` until it succeeds, blocking the
/// thread (and scheduling a successor) between attempts. `attempt` must
/// register the thread wherever its waker will find it before returning
/// `None`.
pub(crate) fn blocking_op<R>(mut attempt: impl FnMut(&mut State, usize) -> Option<R>) -> R {
    let (rt, me) = current();
    let mut st = lock(&rt);
    if std::thread::panicking() {
        // Best effort during unwind: a single attempt, no blocking.
        if let Some(r) = attempt(&mut st, me) {
            return r;
        }
        drop(st);
        panic!("loom: blocking operation cannot complete during abort");
    }
    if st.failure.is_some() {
        drop(st);
        abort_unwind();
    }
    let mut first = true;
    loop {
        if !bump_steps(&mut st) {
            rt.cv.notify_all();
            drop(st);
            abort_unwind();
        }
        if first {
            // The operation's placement is a scheduling point like any other.
            let cands = op_candidates(&st, me);
            let pick = st.choose(cands.len());
            let to = cands[pick];
            if to != me {
                st.preemptions += 1;
                st = handoff_and_wait(&rt, st, me, to);
            }
            first = false;
        }
        if let Some(r) = attempt(&mut st, me) {
            if st.failure.is_some() {
                rt.cv.notify_all();
                drop(st);
                abort_unwind();
            }
            return r;
        }
        st.threads[me].run = Run::Blocked;
        let cands = successor_candidates(&st, me);
        if cands.is_empty() {
            st.fail("deadlock: all threads blocked");
            rt.cv.notify_all();
            drop(st);
            abort_unwind();
        }
        let pick = st.choose(cands.len());
        let to = cands[pick];
        st = handoff_and_wait(&rt, st, me, to);
        // We were made Runnable by a waker and scheduled again; retry.
    }
}

/// Registers a new atomic location holding `init`, attributed to the
/// calling thread. Not a scheduling point: registration happens lazily on
/// first touch and the first real operation immediately follows.
pub(crate) fn register_location(init: u64) -> usize {
    let (rt, me) = current();
    let mut st = lock(&rt);
    let time = vc_bump(&mut st.threads[me].clock, me);
    let clock = st.threads[me].clock.clone();
    st.locations.push(Location {
        stores: vec![StoreEvt {
            value: init,
            writer: me,
            writer_time: time,
            // Initial values behave like release stores: whoever can see the
            // location at all can see its initialisation.
            release: Some(clock),
        }],
    });
    st.locations.len() - 1
}

fn is_acquire(order: Ordering) -> bool {
    matches!(order, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_release(order: Ordering) -> bool {
    matches!(order, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

/// Smallest store index thread `me` may still legally observe at `loc`:
/// nothing older than its own last read (coherence) and nothing superseded
/// by a store that already happened-before it.
fn visible_min(st: &State, me: usize, loc: usize) -> usize {
    let stores = &st.locations[loc].stores;
    let mut min = st.threads[me].last_read.get(&loc).copied().unwrap_or(0);
    for i in (min..stores.len()).rev() {
        let s = &stores[i];
        if vc_get(&st.threads[me].clock, s.writer) >= s.writer_time {
            if i > min {
                min = i;
            }
            break;
        }
    }
    min
}

pub(crate) fn atomic_load(loc: usize, order: Ordering) -> u64 {
    op(|st, me| {
        let n = st.locations[loc].stores.len();
        // Eventual visibility: when every other thread is Finished or
        // Blocked, no store can ever be issued again, so letting a spin
        // loop re-read a stale value forever would manufacture livelocks
        // that no real memory system exhibits (store buffers drain). In
        // that quiescent case a load observes the newest store.
        let quiescent = st
            .threads
            .iter()
            .enumerate()
            .all(|(tid, t)| tid == me || matches!(t.run, Run::Finished | Run::Blocked));
        let idx = if order == Ordering::SeqCst || quiescent {
            // Approximation: SeqCst loads observe the newest store. Sound
            // for proving *weaker* orderings unsound (they add schedules).
            n - 1
        } else {
            let min = visible_min(st, me, loc);
            min + st.choose(n - min)
        };
        let (value, release) = {
            let evt = &st.locations[loc].stores[idx];
            (evt.value, evt.release.clone())
        };
        if is_acquire(order) {
            if let Some(rc) = release {
                vc_join(&mut st.threads[me].clock, &rc);
            }
        }
        st.threads[me].last_read.insert(loc, idx);
        value
    })
}

pub(crate) fn atomic_store(loc: usize, value: u64, order: Ordering) {
    op(|st, me| {
        let time = vc_bump(&mut st.threads[me].clock, me);
        let clock = st.threads[me].clock.clone();
        let release = is_release(order).then(|| clock.clone());
        let stores = &mut st.locations[loc].stores;
        stores.push(StoreEvt { value, writer: me, writer_time: time, release });
        let idx = stores.len() - 1;
        st.threads[me].last_read.insert(loc, idx);
    });
}

/// Read-modify-write. Always reads the newest store (C++ guarantees RMWs
/// read the last value in modification order) and continues the release
/// sequence of the store it replaces.
pub(crate) fn atomic_rmw(loc: usize, order: Ordering, f: impl FnOnce(u64) -> u64) -> u64 {
    op(|st, me| {
        let (old, prev_release) = {
            let evt = st.locations[loc].stores.last().expect("location has initial store");
            (evt.value, evt.release.clone())
        };
        if is_acquire(order) {
            if let Some(rc) = &prev_release {
                vc_join(&mut st.threads[me].clock, rc);
            }
        }
        let time = vc_bump(&mut st.threads[me].clock, me);
        let clock = st.threads[me].clock.clone();
        let release = if is_release(order) {
            let mut rc = clock.clone();
            if let Some(prev) = &prev_release {
                vc_join(&mut rc, prev);
            }
            Some(rc)
        } else {
            // A relaxed RMW does not release its own clock but still
            // carries forward the release sequence it replaced.
            prev_release
        };
        let stores = &mut st.locations[loc].stores;
        stores.push(StoreEvt { value: f(old), writer: me, writer_time: time, release });
        let idx = stores.len() - 1;
        st.threads[me].last_read.insert(loc, idx);
        old
    })
}

pub(crate) fn register_mutex() -> usize {
    let (rt, _) = current();
    let mut st = lock(&rt);
    st.mutexes.push(MutexState { held_by: None, release_clock: Vec::new() });
    st.mutexes.len() - 1
}

pub(crate) fn mutex_lock(id: usize) {
    blocking_op(|st, me| {
        // During abort-unwind the lock is stolen rather than waited on:
        // exclusion no longer matters and blocking would double-panic.
        if st.mutexes[id].held_by.is_none() || std::thread::panicking() {
            st.mutexes[id].held_by = Some(me);
            let rc = st.mutexes[id].release_clock.clone();
            vc_join(&mut st.threads[me].clock, &rc);
            Some(())
        } else {
            // No explicit waiter list: unlock wakes every Blocked thread and
            // losers simply re-block on their next attempt.
            None
        }
    });
}

/// Takes the mutex if no thread holds it, without blocking.
pub(crate) fn mutex_try_lock(id: usize) -> bool {
    op(|st, me| {
        if st.mutexes[id].held_by.is_some() && !std::thread::panicking() {
            return false;
        }
        st.mutexes[id].held_by = Some(me);
        let rc = st.mutexes[id].release_clock.clone();
        vc_join(&mut st.threads[me].clock, &rc);
        true
    })
}

pub(crate) fn mutex_unlock(id: usize) {
    op(|st, me| {
        if st.mutexes[id].held_by != Some(me) {
            st.fail("mutex unlocked by a thread that does not hold it");
            return;
        }
        st.mutexes[id].held_by = None;
        vc_bump(&mut st.threads[me].clock, me);
        let clock = st.threads[me].clock.clone();
        vc_join(&mut st.mutexes[id].release_clock, &clock);
        for t in st.threads.iter_mut() {
            if t.run == Run::Blocked {
                t.run = Run::Runnable;
            }
        }
    });
}

pub(crate) fn arc_register(dealloc: (unsafe fn(usize), usize)) -> usize {
    op(|st, _| {
        st.arcs.push(ArcAlloc { strong: 1, dealloc });
        st.arcs.len() - 1
    })
}

pub(crate) fn arc_incr(slot: usize) {
    op(|st, _| st.arcs[slot].strong += 1);
}

/// Decrements the strong count. Reaching zero frees nothing: the driver
/// deallocates after the iteration.
pub(crate) fn arc_decr(slot: usize) {
    op(|st, _| st.arcs[slot].strong -= 1);
}

/// Spawns a model thread. Returns its tid; the caller-provided closure runs
/// on a dedicated OS thread once the scheduler first picks the new thread.
pub(crate) fn spawn_thread(body: Box<dyn FnOnce() + Send>) -> usize {
    let (rt, _) = current();
    let tid = op(|st, me| {
        let time = vc_bump(&mut st.threads[me].clock, me);
        let _ = time;
        let mut clock = st.threads[me].clock.clone();
        let tid = st.threads.len();
        vc_bump(&mut clock, tid);
        st.threads.push(Thread {
            run: Run::Runnable,
            clock,
            last_read: HashMap::new(),
            joiners: Vec::new(),
        });
        tid
    });
    let rt2 = StdArc::clone(&rt);
    let handle = std::thread::spawn(move || {
        thread_main(rt2, tid, body);
    });
    let mut st = lock(&rt);
    st.os_threads.push(handle);
    tid
}

/// Blocks until thread `tid` finishes, joining its final clock.
pub(crate) fn join_thread(tid: usize) {
    blocking_op(|st, me| {
        if st.threads[tid].run == Run::Finished {
            let clock = st.threads[tid].clock.clone();
            vc_join(&mut st.threads[me].clock, &clock);
            Some(())
        } else if std::thread::panicking() {
            // Don't wait during abort-unwind; the join result is moot.
            Some(())
        } else {
            st.threads[tid].joiners.push(me);
            None
        }
    });
}

/// Marks the calling thread finished, wakes joiners, and hands the baton on.
fn finish_thread(rt: &Rt, me: usize) {
    let mut st = lock(rt);
    shim_dbg!("[thread {me}] finish (failure={})", st.failure.is_some());
    st.threads[me].run = Run::Finished;
    vc_bump(&mut st.threads[me].clock, me);
    let joiners = std::mem::take(&mut st.threads[me].joiners);
    for j in joiners {
        // Only resurrect joiners that are still parked on us. During an
        // abort a joiner can be woken by the failure instead, finish, and
        // leave its registration behind — blindly marking it Runnable here
        // would revive a Finished thread whose OS thread is gone, and the
        // driver would wait for it forever.
        if st.threads[j].run == Run::Blocked {
            st.threads[j].run = Run::Runnable;
        }
    }
    if st.threads.iter().all(|t| t.run == Run::Finished) {
        // Iteration complete; wake the driver.
        rt.cv.notify_all();
        return;
    }
    if st.failure.is_some() {
        rt.cv.notify_all();
        return;
    }
    let cands = successor_candidates(&st, me);
    if cands.is_empty() {
        st.fail("deadlock: remaining threads are all blocked");
        rt.cv.notify_all();
        return;
    }
    let pick = st.choose(cands.len());
    let to = cands[pick];
    st.active = to;
    st.schedule_log.push(to);
    rt.cv.notify_all();
}

/// Entry point of every model OS thread (including thread 0).
pub(crate) fn thread_main(rt: StdArc<Rt>, tid: usize, body: Box<dyn FnOnce() + Send>) {
    shim_dbg!("[thread {tid}] os thread up");
    set_current(Some((StdArc::clone(&rt), tid)));
    // Park until first scheduled.
    {
        let mut st = lock(&rt);
        loop {
            if st.failure.is_some() {
                st.threads[tid].run = Run::Finished;
                let joiners = std::mem::take(&mut st.threads[tid].joiners);
                for j in joiners {
                    // Same guard as in `finish_thread`: never revive a
                    // thread the failure already finished.
                    if st.threads[j].run == Run::Blocked {
                        st.threads[j].run = Run::Runnable;
                    }
                }
                rt.cv.notify_all();
                set_current(None);
                return;
            }
            if st.active == tid {
                break;
            }
            st = match rt.cv.wait(st) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
    }
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
    if let Err(payload) = result {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "model thread panicked".to_string());
        let mut st = lock(&rt);
        // Distinguish a genuine model panic from our own abort-unwind.
        if !msg.starts_with("loom: execution aborted") {
            st.fail(&msg);
        }
        rt.cv.notify_all();
    }
    finish_thread(&rt, tid);
    shim_dbg!("[thread {tid}] os thread exiting");
    set_current(None);
}

/// Outcome of one execution.
pub(crate) struct IterationResult {
    pub failure: Option<String>,
    pub trace: Vec<Choice>,
}

/// Runs the model once under the scheduler, replaying `trace` as a prefix.
pub(crate) fn run_once(
    f: StdArc<dyn Fn() + Send + Sync>,
    trace: Vec<Choice>,
    preemption_bound: u32,
    max_steps: u64,
) -> IterationResult {
    let rt = StdArc::new(Rt {
        mx: StdMutex::new(State::new(trace, preemption_bound, max_steps)),
        cv: Condvar::new(),
    });
    let rt0 = StdArc::clone(&rt);
    let root = std::thread::spawn(move || {
        thread_main(rt0, 0, Box::new(move || f()));
    });
    // Wait until every model thread has finished (on failure the parked
    // threads unwind and still reach Finished).
    let (failure, trace, os_threads, deallocs) = {
        let mut st = lock(&rt);
        loop {
            let spawned = st.threads.len();
            let finished = st.threads.iter().filter(|t| t.run == Run::Finished).count();
            shim_dbg!(
                "[driver] wake: active={} failure={} runs={:?}",
                st.active,
                st.failure.is_some(),
                st.threads.iter().map(|t| t.run).collect::<Vec<_>>()
            );
            if finished == spawned {
                // A failure can still race in from unwinding threads'
                // effect-lite ops, but the message is already recorded if so.
                break;
            }
            st = match rt.cv.wait(st) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
        if st.failure.is_none() {
            let leaked = st.arcs.iter().filter(|a| a.strong > 0).count();
            if leaked > 0 {
                st.fail(&format!(
                    "leak: {leaked} Arc allocation(s) still have strong references \
                     at the end of the execution"
                ));
            }
        }
        let failure = st.failure.clone();
        let trace = std::mem::take(&mut st.trace);
        let os_threads = std::mem::take(&mut st.os_threads);
        let deallocs: Vec<_> = st.arcs.iter().map(|a| a.dealloc).collect();
        (failure, trace, os_threads, deallocs)
    };
    let _ = root.join();
    for h in os_threads {
        let _ = h.join();
    }
    // All model threads are gone; release every allocation made during the
    // iteration.
    for (drop_fn, ptr) in deallocs {
        // SAFETY: each (drop_fn, ptr) pair was registered by Arc::new for a
        // Box it leaked; threads that could touch it have been joined, and
        // the registry is drained so it cannot be freed twice.
        unsafe { drop_fn(ptr) };
    }
    IterationResult { failure, trace }
}
