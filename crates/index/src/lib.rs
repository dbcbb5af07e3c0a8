//! # serenade-index — offline index generation and maintenance
//!
//! The paper builds the session-similarity index once per day with a
//! data-parallel Spark job over the last 180 days of click data, ships it as
//! an artefact, and loads it into every serving machine (Section 4.2).
//! Section 7 lists two future-work directions: querying a compressed index
//! and incrementally maintaining it. This crate implements the second; the
//! first was measured and dropped (EXPERIMENTS.md X1: delta-encoded
//! postings saved 2.3 MB a node at 4.5× the query time).
//!
//! * [`builder`] — the offline build on worker threads (the same plan as
//!   the Spark job: group by session → number by recency → group by item →
//!   truncate to `m`), carried out by counting: each worker takes a range of
//!   sessions, with no shuffle; any thread count builds the index
//!   [`serenade_core::SessionIndex::build`] builds;
//! * [`binfmt`] — a compact binary serialisation of the index: the rows and
//!   the slot table as varints, the postings derived on load (the paper
//!   ships compressed Avro; the format here is purpose-built and versioned);
//! * [`incremental`] — an incremental indexer that holds the live index and
//!   merges click batches, GDPR-style session deletions and retention drops
//!   into it, sharing unchanged postings between generations (future work,
//!   Section 7).

#![warn(missing_docs)]

pub mod binfmt;
pub mod builder;
pub mod incremental;

pub use binfmt::{read_index, write_index, BinError};
pub use builder::{build_parallel, BuilderConfig};
pub use incremental::{IncrementalIndexer, Sharing};
