//! # serenade-promtext — a parser for the Prometheus text exposition
//! format (version 0.0.4), for tests only
//!
//! The served system renders `GET /metrics` and never reads it back, so no
//! product crate depends on this one: `serenade-telemetry` and
//! `serenade-serving` name it under `[dev-dependencies]` only, and
//! `scripts/check.sh` fails if either links it into a build.
//!
//! Its consumers are the `/metrics` conformance tests, which parse the
//! server's output and [`Exposition::validate`] it (typed families, unique
//! series, monotone cumulative buckets, `+Inf` == `_count`) and read
//! **server-side** latency percentiles back from the cumulative bucket
//! counts.
//!
//! Reconstruction is exact at the histogram's native bucket granularity:
//! the renderer emits both edges of every non-empty bucket, so a scraped
//! cumulative count only changes at rendered bounds and step interpolation
//! between them loses nothing (see `serenade-telemetry`'s `registry.rs`).

#![warn(missing_docs)]

mod promtext;

pub use promtext::{parse, Exposition, ParsedSample, ScrapedHistogram};
