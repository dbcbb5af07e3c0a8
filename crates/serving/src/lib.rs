//! # serenade-serving — the stateful recommendation serving system
//!
//! The online half of Serenade (Section 4): stateful recommendation servers
//! that colocate the evolving user sessions with the update/recommendation
//! requests. Every serving node holds a replica of the session-similarity
//! index and its partition of the evolving-session state in a machine-local
//! TTL store; the router tier (our analogue of Kubernetes session affinity)
//! guarantees that all requests of one session land on the same node.
//!
//! * [`json`] — the REST wire format's JSON: a scanner that reads a body in
//!   place and a writer that emits one straight into its buffer;
//! * [`rules`] — business-rule filtering (unavailable / adult products);
//! * [`engine`] — what configures the engine and what a request carries:
//!   the `serenade-hist` / `serenade-recent` variants of the A/B test and
//!   the depersonalised mode;
//! * [`handle`] — index publication for the daily rollover, under one mutex;
//! * [`cache`] — the generation-aware prediction cache: completed
//!   single-item-view recommendation lists keyed by `(item, view-kind)`,
//!   stamped with the [`handle`] generation so a rollover invalidates every
//!   entry implicitly (business rules run per request, *after* the cache);
//! * [`ingest`] — the streaming write path: live click ingestion batched
//!   into an incremental indexer, continuous index mini-publishes through
//!   [`handle`], and GDPR-style session unlearning;
//! * [`context`] — per-worker request state (scratch buffers, session view,
//!   per-stage timings) threaded from HTTP ingress into the engine;
//! * [`router`] — sticky-session partitioning across nodes (rendezvous
//!   hashing, so membership changes remap a minimal session fraction);
//! * [`transport`] — the router tier's upstream side: a pooled keep-alive
//!   HTTP client per node process, for everything but forwarded predicts;
//! * [`cluster`] — the process's one engine, what every server fronts: a
//!   three-stage pipeline (session update → VMIS-kNN prediction → policy)
//!   over a pluggable session store, beside telemetry and ingest;
//! * [`node`] — the serving node role for multi-process
//!   deployments: the HTTP server, whose `/admin/` routes take artifact
//!   publishes and session handoff;
//! * [`routerd`] — the router tier: routes by rendezvous hashing over live
//!   nodes, probes health, fails over to depersonalised serving, and
//!   republishes index artifacts to every node;
//! * [`server`] — the request-lifecycle HTTP server and its REST surface
//!   (the paper uses Actix; the protocol surface is the same): an
//!   incremental bounded parser, a per-connection state machine, admission
//!   control with `503 + Retry-After` shedding, deadline budgets and a
//!   graceful drain protocol (model-checked with loom);
//! * [`stats`] — the engine's request counters and per-stage latency
//!   histograms, series of the registry `GET /metrics` renders;
//! * [`telemetry`] — the cluster-wide observability hub: Prometheus metric
//!   registry (`GET /metrics`), request-id source and slow-request trace
//!   ring (`GET /debug/slow`).

#![warn(missing_docs)]

pub mod cache;
pub mod cluster;
pub mod context;
pub mod engine;
pub mod error;
pub mod handle;
pub mod ingest;
pub mod json;
pub mod node;
pub mod router;
pub mod routerd;
pub mod rules;
pub mod server;
pub mod stats;
pub mod sync;
pub mod telemetry;
pub mod transport;

pub use cache::{CacheConfig, PredictionCache};
pub use cluster::{RolloverError, ServingCluster};
pub use context::{RequestContext, StageTimings};
pub use engine::{EngineConfig, ServingVariant};
pub use error::ServingError;
pub use handle::IndexHandle;
pub use ingest::{IngestConfig, IngestPipeline};
pub use router::StickyRouter;
pub use rules::BusinessRules;
pub use server::{HttpServer, HttpServerConfig};
pub use stats::ServingStats;
pub use telemetry::ClusterTelemetry;
pub use transport::HttpClient;
