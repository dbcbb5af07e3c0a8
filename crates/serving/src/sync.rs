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
//! The per-thread slot chooser is `serenade_telemetry::sync::shard_slot`,
//! which [`crate::handle::IndexHandle`] and telemetry's sharded recorders
//! share: the `loom` feature here turns on telemetry's too.

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
}

pub use imp::*;
