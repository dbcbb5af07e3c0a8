//! `serenade_ingest_*` telemetry for the streaming write path.

use std::sync::Arc;
use std::time::Duration;

use serenade_index::Sharing;
use serenade_telemetry::{Counter, Gauge, Histogram, HistogramConfig, Registry};

/// The stages of one mini-publish, in order: folding the drained work into
/// the held index, building the kernel over the result, and the epoch
/// record plus handle swap.
const PUBLISH_STAGES: [&str; 3] = ["apply", "kernel_build", "swap"];

/// Counters and histograms the ingest pipeline reports through `/metrics`.
#[derive(Debug)]
pub struct IngestMetrics {
    accepted_clicks: Arc<Counter>,
    rejected_clicks: Arc<Counter>,
    deletions: Arc<Counter>,
    publishes: Arc<Counter>,
    publish_failures: Arc<Counter>,
    publish_duration: [Arc<Histogram>; 3],
    postings_shared: Arc<Counter>,
    postings_copied: Arc<Counter>,
    segments_shared: Arc<Counter>,
    segments_copied: Arc<Counter>,
    unchanged_ranks_permille: Arc<Gauge>,
}

impl Default for IngestMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl IngestMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self {
            accepted_clicks: Arc::new(Counter::new()),
            rejected_clicks: Arc::new(Counter::new()),
            deletions: Arc::new(Counter::new()),
            publishes: Arc::new(Counter::new()),
            publish_failures: Arc::new(Counter::new()),
            publish_duration: PUBLISH_STAGES
                .map(|_| Arc::new(Histogram::new(HistogramConfig::default()))),
            postings_shared: Arc::new(Counter::new()),
            postings_copied: Arc::new(Counter::new()),
            segments_shared: Arc::new(Counter::new()),
            segments_copied: Arc::new(Counter::new()),
            unchanged_ranks_permille: Arc::new(Gauge::new()),
        }
    }

    pub(crate) fn record_accepted(&self, clicks: usize) {
        self.accepted_clicks.add(clicks as u64);
    }

    pub(crate) fn record_rejected(&self, clicks: usize) {
        self.rejected_clicks.add(clicks as u64);
    }

    pub(crate) fn record_deletion(&self) {
        self.deletions.inc();
    }

    /// One successful publish: its time per stage (in [`PUBLISH_STAGES`]
    /// order) and what its merges shared with the previous generation.
    pub(crate) fn record_publish(&self, stages: [Duration; 3], sharing: Sharing) {
        self.publishes.inc();
        for (histogram, took) in self.publish_duration.iter().zip(stages) {
            histogram.record(took);
        }
        self.postings_shared.add(sharing.postings_shared);
        self.postings_copied.add(sharing.postings_copied);
        self.segments_shared.add(sharing.segments_shared);
        self.segments_copied.add(sharing.segments_copied);
        self.unchanged_ranks_permille
            .set(sharing.ranks_unchanged * 1000 / sharing.ranks_total.max(1));
    }

    pub(crate) fn record_publish_failure(&self) {
        self.publish_failures.inc();
    }

    /// Clicks admitted into the pending queue.
    pub fn accepted_clicks(&self) -> u64 {
        self.accepted_clicks.get()
    }

    /// Clicks rejected because the pending queue was full.
    pub fn rejected_clicks(&self) -> u64 {
        self.rejected_clicks.get()
    }

    /// Sessions deleted (unlearned) through the pipeline.
    pub fn deletions(&self) -> u64 {
        self.deletions.get()
    }

    /// Successful mini-publishes (each bumps the index generation).
    pub fn publishes(&self) -> u64 {
        self.publishes.get()
    }

    /// Publish attempts that failed (e.g. an emptied index); the old
    /// snapshot keeps serving.
    pub fn publish_failures(&self) -> u64 {
        self.publish_failures.get()
    }

    /// Registers the ingest metrics into a `/metrics` registry.
    pub fn register_into(&self, registry: &Registry) {
        registry.counter_shared(
            "serenade_ingest_accepted_clicks_total",
            "Click events admitted into the ingest pending queue.",
            &[],
            Arc::clone(&self.accepted_clicks),
        );
        registry.counter_shared(
            "serenade_ingest_rejected_clicks_total",
            "Click events rejected because the ingest queue was at capacity.",
            &[],
            Arc::clone(&self.rejected_clicks),
        );
        registry.counter_shared(
            "serenade_ingest_deletions_total",
            "Sessions deleted (unlearned) from the live index.",
            &[],
            Arc::clone(&self.deletions),
        );
        registry.counter_shared(
            "serenade_ingest_publishes_total",
            "Successful live index mini-publishes.",
            &[],
            Arc::clone(&self.publishes),
        );
        registry.counter_shared(
            "serenade_ingest_publish_failures_total",
            "Publish attempts that failed and left the previous index serving.",
            &[],
            Arc::clone(&self.publish_failures),
        );
        for (stage, histogram) in PUBLISH_STAGES.iter().zip(&self.publish_duration) {
            registry.histogram_shared(
                "serenade_ingest_publish_duration_seconds",
                "Time of one mini-publish by stage; the stages sum to apply-batch to visible.",
                &[("stage", stage)],
                Arc::clone(histogram),
            );
        }
        registry.counter_shared(
            "serenade_ingest_postings_shared_total",
            "Posting lists a publish handed on from the previous index generation by pointer.",
            &[],
            Arc::clone(&self.postings_shared),
        );
        registry.counter_shared(
            "serenade_ingest_postings_copied_total",
            "Posting lists a publish wrote anew: touched, or above the first changed session rank.",
            &[],
            Arc::clone(&self.postings_copied),
        );
        registry.counter_shared(
            "serenade_ingest_segments_shared_total",
            "Segments of sessions a publish handed on from the previous index generation by \
             pointer: those wholly below the first changed session rank.",
            &[],
            Arc::clone(&self.segments_shared),
        );
        registry.counter_shared(
            "serenade_ingest_segments_copied_total",
            "Segments of sessions a publish wrote anew: from the one holding the first \
             changed session rank up.",
            &[],
            Arc::clone(&self.segments_copied),
        );
        registry.gauge_shared(
            "serenade_ingest_unchanged_ranks_permille",
            "Share of session ranks below the first one the last publish changed: 1000 for \
             traffic at the recent end, 0 when old timestamps renumbered the whole index.",
            &[],
            Arc::clone(&self.unchanged_ranks_permille),
        );
    }
}
