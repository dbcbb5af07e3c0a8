//! Facade over the concurrency primitives used by the TTL store.
//!
//! [`crate::store`] takes its shard mutexes and expiry counters from here
//! instead of `std::sync` directly (enforced by `xtask analyze`): normal
//! builds get the real primitives at zero cost, `--features loom` builds get
//! the model-checker shims so store operations can be explored
//! schedule-by-schedule inside `loom::model`. Both `Mutex`es return a
//! `std::sync::LockResult`, so one locking line serves both builds.

#[cfg(feature = "loom")]
pub use loom::sync::{Arc, Mutex, MutexGuard};

/// Atomic types for the store's expiry/eviction counters.
#[cfg(feature = "loom")]
pub mod atomic {
    pub use loom::sync::atomic::{AtomicU64, Ordering};
}

#[cfg(not(feature = "loom"))]
pub use std::sync::{Arc, Mutex, MutexGuard};

/// Atomic types for the store's expiry/eviction counters.
#[cfg(not(feature = "loom"))]
pub mod atomic {
    pub use std::sync::atomic::{AtomicU64, Ordering};
}
