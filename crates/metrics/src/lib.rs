//! # serenade-metrics — evaluation of session-based recommenders
//!
//! Implements the ranking metrics and the incremental evaluation protocol of
//! the paper's Section 5.1: for every held-out test session, each prefix is
//! fed to the recommender and the prediction list is compared against the
//! immediate next item (MRR@N, HitRate@N) and against all remaining items of
//! the session (Precision@N, Recall@N, MAP@N) — the protocol of the
//! session-rec comparison studies the paper replicates.
//!
//! * [`ranking`] — per-event metric computations.
//! * [`harness`] — sequential and multi-threaded evaluation drivers.
//! * [`latency`] — exact latency recording for the microbenchmarks and the
//!   A/B simulator, summarised in `serenade-telemetry`'s `LatencySummary`.

#![warn(missing_docs)]

pub mod harness;
pub mod latency;
pub mod ranking;

pub use harness::{evaluate, evaluate_parallel, EvalConfig, EvalResult};
pub use latency::{LatencyRecorder, LatencySummary};
pub use ranking::{average_precision, hit, precision, recall, reciprocal_rank};
