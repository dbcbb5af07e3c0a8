//! Facade over the concurrency primitives used on the serving hot path.
//!
//! Modules that participate in model checking ([`crate::handle`],
//! [`crate::cache`] and the server's lifecycle gate) import `Arc`, `Mutex`
//! and atomics from here instead of `std` (enforced by `xtask analyze`).
//! In normal builds the facade re-exports the real types at zero cost; with
//! `--features loom` it re-exports the deterministic model-checker shims,
//! so the same source is explored schedule-by-schedule inside
//! `loom::model`. Both `Mutex`es return a `std::sync::LockResult`, so one
//! locking line serves both builds.

/// Model-checked mode: every primitive routes through the `loom` shim.
#[cfg(feature = "loom")]
mod imp {
    pub use loom::sync::{Arc, Mutex, MutexGuard};

    /// Atomic types whose every operation is a model scheduling point.
    pub mod atomic {
        pub use loom::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    }
}

/// Production mode: zero-cost re-exports of the real primitives.
#[cfg(not(feature = "loom"))]
mod imp {
    pub use std::sync::{Arc, Mutex, MutexGuard};

    /// Atomic types (the real ones).
    pub mod atomic {
        pub use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    }
}

pub use imp::*;
