//! # serenade-kvstore — sharded in-memory TTL key-value store
//!
//! Serenade colocates the evolving user sessions with the recommendation
//! requests: every serving machine keeps its partition of the session state
//! in a machine-local key-value store (the paper uses RocksDB) so that
//! session reads and writes never cross the network (Section 4.2). Sessions
//! are short-lived — the paper configures a 30-minute inactivity TTL.
//!
//! This crate provides that substrate: a sharded, mutex-striped hash store
//! with per-entry TTL, lazy expiry on access plus an explicit sweep, and an
//! injectable clock so TTL behaviour is deterministically testable. The
//! microbenchmark of Section 4.2 (10M operations; read p99 ≈ 5µs, write p99
//! ≈ 18µs) is reproduced in `serenade-bench`.

#![warn(missing_docs)]

pub mod clock;
pub mod session;
pub mod store;
pub mod sync;

pub use clock::{Clock, ManualClock, SystemClock};
pub use session::SessionStore;
pub use store::{StoreConfig, TtlStore};
