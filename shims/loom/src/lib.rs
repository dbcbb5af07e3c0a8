//! Offline shim of the `loom` model checker (subset of loom 0.7's API).
//!
//! Runs a closure — the *model* — many times, exploring a different thread
//! interleaving on each iteration via a deterministic cooperative scheduler
//! (see the `rt` module's docs for the scheduling, weak-memory, and bounding
//! rules). Code under test uses [`sync`] and [`thread`] instead of `std`'s
//! versions, typically through a `sync` facade module that re-exports std
//! in normal builds and this crate under a `loom` cfg/feature.
//!
//! ```
//! let report = loom::Builder::default().explore(|| {
//!     let a = loom::sync::Arc::new(loom::sync::atomic::AtomicU64::new(0));
//!     let b = loom::sync::Arc::clone(&a);
//!     let t = loom::thread::spawn(move || {
//!         b.fetch_add(1, loom::sync::atomic::Ordering::SeqCst);
//!     });
//!     a.fetch_add(1, loom::sync::atomic::Ordering::SeqCst);
//!     t.join().unwrap();
//!     assert_eq!(a.load(loom::sync::atomic::Ordering::SeqCst), 2);
//! });
//! assert!(report.failure.is_none());
//! ```

mod rt;
pub mod sync;
pub mod thread;

use std::sync::Arc as StdArc;

/// Outcome of an exploration.
#[derive(Debug)]
pub struct Report {
    /// Number of distinct executions (interleavings) run.
    pub iterations: u64,
    /// First failure found, with the offending schedule appended. `None`
    /// when every explored execution passed.
    pub failure: Option<String>,
    /// Whether the bounded schedule tree was fully explored (as opposed to
    /// stopping at the iteration cap or at a failure).
    pub exhausted: bool,
}

/// Exploration configuration.
#[derive(Debug, Clone)]
pub struct Builder {
    /// CHESS-style cap on involuntary context switches per execution.
    /// Block/finish handoffs are free; preempting a runnable thread
    /// spends budget. 2 catches most protocol bugs; 3 is noticeably slower.
    pub preemption_bound: u32,
    /// Stop after this many executions even if schedules remain.
    pub max_iterations: u64,
    /// Per-execution scheduling-point cap; exceeding it is reported as a
    /// livelock failure.
    pub max_steps: u64,
}

impl Default for Builder {
    fn default() -> Self {
        Self { preemption_bound: 2, max_iterations: 200_000, max_steps: 20_000 }
    }
}

impl Builder {
    /// Explores the model and returns a [`Report`] instead of panicking.
    pub fn explore<F>(&self, f: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        let f: StdArc<dyn Fn() + Send + Sync> = StdArc::new(f);
        let mut trace = Vec::new();
        let mut iterations = 0u64;
        let debug = std::env::var_os("LOOM_SHIM_DEBUG").is_some();
        loop {
            if debug {
                eprintln!("[loom] iteration {} trace_len {}", iterations, trace.len());
            }
            let res =
                rt::run_once(StdArc::clone(&f), trace, self.preemption_bound, self.max_steps);
            iterations += 1;
            if res.failure.is_some() {
                return Report { iterations, failure: res.failure, exhausted: false };
            }
            trace = res.trace;
            // Depth-first advance: drop exhausted tail choices, then bump
            // the deepest one that still has unexplored options.
            loop {
                match trace.last_mut() {
                    None => return Report { iterations, failure: None, exhausted: true },
                    Some(c) if c.picked + 1 < c.options => {
                        c.picked += 1;
                        break;
                    }
                    Some(_) => {
                        trace.pop();
                    }
                }
            }
            if iterations >= self.max_iterations {
                return Report { iterations, failure: None, exhausted: false };
            }
        }
    }

    /// Explores the model, panicking on the first failing schedule.
    pub fn check<F>(&self, f: F)
    where
        F: Fn() + Send + Sync + 'static,
    {
        let report = self.explore(f);
        if let Some(failure) = report.failure {
            panic!(
                "loom model failed after {} iteration(s): {failure}",
                report.iterations
            );
        }
    }
}

/// Explores `f` with default bounds, panicking on the first failure.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    Builder::default().check(f)
}
