//! Facade over the concurrency primitives used on the telemetry hot path.
//!
//! [`crate::histogram`] and [`crate::trace`] take their atomics and the
//! trace ring's slot `Mutex` from here instead of `std::sync` directly
//! (checked: both are facade modules of `xtask analyze`'s
//! `facade-only-sync` rule): normal builds re-export the real types at zero
//! cost, `--features loom` builds re-export the deterministic model-checker
//! shims so record/snapshot interleavings can be explored
//! schedule-by-schedule inside `loom::model`. Both `Mutex`es return
//! `std::sync` lock results, so one locking line serves both builds.

/// Model-checked mode: every primitive routes through the `loom` shim.
#[cfg(feature = "loom")]
mod imp {
    pub use loom::sync::Mutex;

    /// Atomic types whose every operation is a model scheduling point.
    pub mod atomic {
        pub use loom::sync::atomic::{AtomicU64, Ordering};
    }

    /// Deterministic shard choice for [`crate::histogram::Histogram`]: the
    /// model thread index.
    pub(crate) fn shard_slot(shards: usize) -> usize {
        loom::thread::current_index() % shards
    }
}

/// Production mode: zero-cost re-exports of the real primitives.
#[cfg(not(feature = "loom"))]
mod imp {
    pub use std::sync::Mutex;

    /// Atomic types (the real ones).
    pub mod atomic {
        pub use std::sync::atomic::{AtomicU64, Ordering};
    }

    /// Shard choice for [`crate::histogram::Histogram`]: round-robin
    /// assignment at first use per thread, so workers spread evenly across
    /// shards regardless of how the OS hashes thread ids.
    pub(crate) fn shard_slot(shards: usize) -> usize {
        thread_local! {
            static SLOT: std::cell::OnceCell<usize> =
                const { std::cell::OnceCell::new() };
        }
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        SLOT.with(|c| {
            // ORDERING: round-robin ticket counter with no partner; shard
            // choice needs uniqueness, not ordering.
            *c.get_or_init(|| NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed))
        }) % shards
    }
}

pub use imp::*;
