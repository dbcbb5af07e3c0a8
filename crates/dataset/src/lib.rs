//! # serenade-dataset — clickstream datasets for Serenade experiments
//!
//! The paper evaluates on six e-commerce click datasets (Table 1): the public
//! `retailrocket` and `rsc15` sets and four proprietary bol.com samples
//! (`ecom-1m` … `ecom-180m`). Every dataset is a list of
//! `(session_id, item_id, timestamp)` tuples.
//!
//! This crate provides:
//!
//! * [`synthetic`] — a statistically calibrated synthetic clickstream
//!   generator that substitutes the proprietary and the public datasets:
//!   session-length distribution matched to the Table 1 percentiles, Zipf
//!   item popularity, within-session topical coherence and day-level
//!   popularity drift (so that recency sampling matters, as it does on the
//!   real platform);
//! * [`session`] — sessionization of a click log;
//! * [`split`] — temporal train/test splits (the paper holds out the last day);
//! * [`stats`] — the Table 1 statistics (clicks, sessions, items, days,
//!   clicks-per-session percentiles).
//!
//! There is no file loader: nothing here reads the real CSVs, so a loader
//! (and the session-rec preprocessing that goes with it) comes back with
//! its first caller, once the files are in the repository.

#![warn(missing_docs)]

pub mod session;
pub mod split;
pub mod stats;
pub mod synthetic;

pub use session::{sessionize, Session};
pub use split::{split_last_days, EvaluationSplit};
pub use stats::{percentile, DatasetStats};
pub use synthetic::{generate, SyntheticConfig};

use serenade_core::Click;

/// A named click log.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Human-readable dataset name (e.g. `ecom-1m`).
    pub name: String,
    /// The raw click tuples.
    pub clicks: Vec<Click>,
}

impl Dataset {
    /// Creates a dataset from parts.
    pub fn new(name: impl Into<String>, clicks: Vec<Click>) -> Self {
        Self { name: name.into(), clicks }
    }

    /// Computes the Table 1 statistics for this dataset.
    pub fn stats(&self) -> DatasetStats {
        DatasetStats::from_clicks(&self.name, &self.clicks)
    }
}
