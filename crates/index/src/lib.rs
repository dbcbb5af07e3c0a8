//! # serenade-index — offline index generation and maintenance
//!
//! The paper builds the session-similarity index once per day with a
//! data-parallel Spark job over the last 180 days of click data, ships it as
//! a compressed artefact, and loads it into every serving machine
//! (Section 4.2). Section 7 lists two future-work directions: querying a
//! **compressed** index and **incrementally** maintaining it.
//!
//! This crate implements all of that in-process:
//!
//! * [`builder`] — the offline build on worker threads (the same plan as
//!   the Spark job: group by session → number by recency → group by item →
//!   truncate to `m`), carried out by counting: each worker takes a range of
//!   sessions, with no shuffle; any thread count builds the index
//!   [`serenade_core::SessionIndex::build`] builds;
//! * [`binfmt`] — a compact little-endian binary serialisation of the index
//!   (the paper uses Avro; the format here is purpose-built and versioned);
//! * [`varint`] — LEB128 variable-length integers used by the compressed
//!   format;
//! * [`compressed`] — a delta+varint compressed index representation with
//!   on-the-fly decoding queries (future work, Section 7);
//! * [`incremental`] — an incremental indexer that holds the live index and
//!   merges click batches, GDPR-style session deletions and retention drops
//!   into it, sharing unchanged postings between generations, and tracks
//!   touched items per publish (future work, Section 7);
//! * [`diff`] — semantic (dense-id-independent) snapshot diffing used to
//!   verify the touched-item tracking that drives epoch-bucketed cache
//!   invalidation.

#![warn(missing_docs)]

pub mod binfmt;
pub mod builder;
pub mod compressed;
pub mod diff;
pub mod incremental;
pub mod varint;

pub use binfmt::{read_index, write_index, BinError};
pub use builder::{build_parallel, BuilderConfig};
pub use compressed::CompressedIndex;
pub use diff::changed_items;
pub use incremental::{IncrementalIndexer, Sharing, TouchedItems};
