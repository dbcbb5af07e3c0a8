//! # Streaming ingestion: live index publishes and session unlearning
//!
//! The paper ships a fresh index once per day (Section 4.2) and lists
//! incremental maintenance as future work (Section 7). This subsystem
//! closes the loop online: a write path accepts live click events from
//! the `POST /ingest` endpoint, batches them into the
//! [`serenade_index::IncrementalIndexer`], and continuously mini-publishes
//! snapshots through the cluster's shared
//! [`IndexHandle`](crate::handle::IndexHandle), so recommendations pick up
//! minutes-old behaviour instead of yesterday's.
//!
//! Two pieces:
//!
//! * [`pipeline`] — the bounded pending queue, the single publisher thread
//!   (cadence-driven for appends, immediate for deletions), and the
//!   synchronous unlearning entry point behind
//!   `DELETE /ingest/session/{id}`;
//! * [`metrics`] — the `serenade_ingest_*` telemetry.
//!
//! A publish bumps the index generation like the daily rollover does, and
//! that alone invalidates every prediction-cache entry.
//!
//! Enable it on a cluster with
//! [`ServingCluster::enable_ingest`](crate::cluster::ServingCluster::enable_ingest).

pub mod metrics;
pub mod pipeline;

pub use metrics::IngestMetrics;
pub use pipeline::{IngestConfig, IngestPipeline};
