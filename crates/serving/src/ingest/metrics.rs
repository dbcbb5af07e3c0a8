//! `serenade_ingest_*` telemetry for the streaming write path.

use std::sync::Arc;
use std::time::Duration;

use serenade_index::Sharing;
use serenade_telemetry::{Counter, Gauge, Histogram, HistogramConfig, Registry};

/// The stages of one mini-publish, in order: folding the drained work into
/// the held index, building the kernel over the result, and the handle
/// swap.
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
    publisher_up: Arc<Gauge>,
}

impl IngestMetrics {
    /// The `serenade_ingest_*` counters, histograms and gauge in `registry`.
    pub fn new(registry: &Registry) -> Self {
        Self {
            accepted_clicks: registry.counter(
                "serenade_ingest_accepted_clicks_total",
                "Click events admitted into the ingest pending queue.",
                &[],
            ),
            rejected_clicks: registry.counter(
                "serenade_ingest_rejected_clicks_total",
                "Click events rejected because the ingest queue was at capacity.",
                &[],
            ),
            deletions: registry.counter(
                "serenade_ingest_deletions_total",
                "Sessions deleted (unlearned) from the live index.",
                &[],
            ),
            publishes: registry.counter(
                "serenade_ingest_publishes_total",
                "Successful live index mini-publishes.",
                &[],
            ),
            publish_failures: registry.counter(
                "serenade_ingest_publish_failures_total",
                "Publish attempts that failed and left the previous index serving.",
                &[],
            ),
            publish_duration: PUBLISH_STAGES.map(|stage| {
                registry.histogram(
                    "serenade_ingest_publish_duration_seconds",
                    "Time of one mini-publish by stage; the stages sum to apply-batch to visible.",
                    &[("stage", stage)],
                    HistogramConfig::default(),
                )
            }),
            postings_shared: registry.counter(
                "serenade_ingest_postings_shared_total",
                "Posting lists a publish handed on where they lie in the previous generation's \
                 arenas.",
                &[],
            ),
            postings_copied: registry.counter(
                "serenade_ingest_postings_copied_total",
                "Posting lists a publish wrote anew: touched, above the first changed session \
                 rank, or moved by a compaction of the arenas.",
                &[],
            ),
            segments_shared: registry.counter(
                "serenade_ingest_segments_shared_total",
                "Segments of sessions a publish handed on from the previous index generation by \
                 pointer: those wholly below the first changed session rank.",
                &[],
            ),
            segments_copied: registry.counter(
                "serenade_ingest_segments_copied_total",
                "Segments of sessions a publish wrote anew: from the one holding the first \
                 changed session rank up.",
                &[],
            ),
            unchanged_ranks_permille: registry.gauge(
                "serenade_ingest_unchanged_ranks_permille",
                "Share of session ranks below the first one the last publish changed: 1000 for \
                 traffic at the recent end, 0 when old timestamps renumbered the whole index.",
                &[],
            ),
            publisher_up: registry.gauge(
                "serenade_ingest_publisher_up",
                "1 while the ingest publisher thread runs; 0 once it has stopped, at shutdown \
                 or after a panic, and nothing more is published.",
                &[],
            ),
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

    pub(crate) fn set_publisher_up(&self, up: bool) {
        self.publisher_up.set(u64::from(up));
    }
}
