//! # serenade-telemetry — production observability for the serving stack
//!
//! The paper's serving claims (Figure 3(b) p75/p90/p99.5 at >1,000 rps,
//! Figure 3(c)'s 21-day stability) are operational claims; this crate gives
//! the server the machinery to report them continuously and cheaply:
//!
//! * [`histogram`] — bounded log-linear (HDR-style) latency histograms:
//!   fixed memory, mergeable shards, relative error ≤ 2%, lock- and
//!   allocation-free recording via relaxed atomics.
//! * [`registry`] — named counters/gauges/histograms rendered in the
//!   Prometheus text exposition format for `GET /metrics`.
//! * [`trace`] — a lock-striped ring buffer of recent slow-request traces
//!   (per-stage timings, session length, depersonalised flag) behind
//!   sampling and threshold knobs, for `GET /debug/slow`.
//! * [`promtext`] — an exposition parser, so tests can verify conformance
//!   and read server-side percentiles back from `/metrics`.
//!
//! The crate is dependency-free; `--features loom` swaps the atomics for
//! the deterministic model-checker shims via the [`sync`] facade.

#![warn(missing_docs)]

pub mod histogram;
pub mod promtext;
pub mod registry;
pub mod sync;
pub mod trace;

pub use histogram::{
    Histogram, HistogramConfig, HistogramSnapshot, LatencySummary, REL_ERROR_BOUND,
};
pub use promtext::{parse, Exposition, ParsedSample, ScrapedHistogram};
pub use registry::{Counter, Gauge, Registry};
pub use trace::{TraceConfig, TraceRing, TraceSample};
