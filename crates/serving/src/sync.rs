//! Facade over the concurrency primitives used on the serving hot path.
//!
//! Modules that participate in model checking ([`crate::handle`],
//! [`crate::stats`]) import `Arc`, `Mutex` and atomics from here instead of
//! `std` (enforced by `xtask analyze`). In normal builds the facade
//! re-exports the real types at zero cost; with `--features loom` it
//! re-exports the deterministic model-checker shims, so the same source is
//! explored schedule-by-schedule inside `loom::model`. Both `Mutex`es return
//! a `std::sync::LockResult`, so one locking line serves both builds.
//!
//! The facade also owns the per-thread slot chooser ([`reader_slot`]): in
//! std mode it is a round-robin `thread_local!` assignment (which a model
//! checker cannot replay), in loom mode it derives from the deterministic
//! model thread index. (Stats striping moved into `serenade-telemetry`'s
//! sharded histograms, which carry their own facade.)

/// Model-checked mode: every primitive routes through the `loom` shim.
#[cfg(feature = "loom")]
mod imp {
    pub use loom::sync::{Arc, Mutex, MutexGuard};

    /// Atomic types whose every operation is a model scheduling point.
    pub mod atomic {
        pub use loom::sync::atomic::{
            AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering,
        };
    }

    /// Yields to the model scheduler.
    pub fn yield_now() {
        loom::thread::yield_now();
    }

    /// Spin-wait hint; under the model a spin must yield, or the checker
    /// would explore unboundedly many spin iterations.
    pub fn spin_loop_hint() {
        loom::thread::yield_now();
    }

    /// Deterministic reader-guard slot for [`crate::handle::IndexHandle`].
    pub fn reader_slot(slots: usize) -> usize {
        loom::thread::current_index() % slots
    }
}

/// Production mode: zero-cost re-exports of the real primitives.
#[cfg(not(feature = "loom"))]
mod imp {
    pub use std::sync::{Arc, Mutex, MutexGuard};

    /// Atomic types (the real ones).
    pub mod atomic {
        pub use std::sync::atomic::{
            AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering,
        };
    }

    /// Yields the current OS thread's timeslice.
    pub fn yield_now() {
        std::thread::yield_now();
    }

    /// CPU spin-wait hint.
    pub fn spin_loop_hint() {
        std::hint::spin_loop();
    }

    fn round_robin(
        cell: &'static std::thread::LocalKey<std::cell::OnceCell<usize>>,
        counter: &'static std::sync::atomic::AtomicUsize,
        n: usize,
    ) -> usize {
        cell.with(|c| {
            // ORDERING: round-robin ticket counter with no partner; slot
            // assignment needs uniqueness, not ordering.
            *c.get_or_init(|| counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed))
        }) % n
    }

    /// Reader-guard slot for [`crate::handle::IndexHandle`]: round-robin
    /// assignment at first use per thread, so workers spread evenly
    /// regardless of how the OS hashes thread ids.
    pub fn reader_slot(slots: usize) -> usize {
        thread_local! {
            static SLOT: std::cell::OnceCell<usize> =
                const { std::cell::OnceCell::new() };
        }
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        round_robin(&SLOT, &NEXT, slots)
    }
}

pub use imp::*;
