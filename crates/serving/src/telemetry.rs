//! Cluster-wide observability: the metric registry, request-id source and
//! slow-request trace ring behind `GET /metrics` and `GET /debug/slow`.
//!
//! One [`ClusterTelemetry`] exists per [`crate::cluster::ServingCluster`].
//! It owns the `serenade-telemetry` [`Registry`] every metric of the node is
//! made in (the engine's counters and stage histograms by
//! [`crate::stats::ServingStats::new`], the cache's, the server's and the
//! ingest pipeline's by their own constructors), the cluster-level
//! metrics (index generation, bytes per index structure, stranded slots and
//! dead posting entries, all read off the published index when `/metrics` is
//! scraped, not when it is published; uptime, rollover duration), and the
//! [`TraceRing`] that keeps the most recent traced requests with their
//! per-stage breakdown.
//!
//! Request ids are assigned by the HTTP layer at ingress (so one id spans
//! the whole `http → cluster → engine` path) from the monotonically
//! increasing source here; in-process callers that skip HTTP get an id
//! assigned at trace-record time instead.

use std::sync::Arc;
use std::time::{Duration, Instant};

use serenade_core::VmisKnn;
use serenade_telemetry::{Histogram, HistogramConfig, Registry, TraceRing};

use crate::handle::IndexHandle;

/// Atomic request-id source. Plain `std` atomics: the id source is not part
/// of any loom model (the telemetry crate's own primitives are the
/// model-checked ones).
use std::sync::atomic::{AtomicU64, Ordering};

/// Observability state of a serving cluster.
#[derive(Debug)]
pub struct ClusterTelemetry {
    registry: Registry,
    traces: TraceRing,
    next_request_id: AtomicU64,
    started: Instant,
    rollover_seconds: Arc<Histogram>,
}

/// The `structure` labels of `serenade_index_bytes`, in the order
/// [`index_bytes`] fills them.
const INDEX_STRUCTURES: [&str; 6] =
    ["postings", "posting_table", "session_items", "timestamps", "slots", "idf"];

/// What `published` holds in memory, by [`INDEX_STRUCTURES`] entry: a walk
/// over its segments and arenas.
fn index_bytes(published: &VmisKnn) -> [u64; 6] {
    let index = published.index().bytes();
    [
        index.postings,
        index.posting_table,
        index.session_items,
        index.timestamps,
        index.slots,
        published.idf_bytes(),
    ]
    .map(|bytes| bytes as u64)
}

impl ClusterTelemetry {
    /// Creates the telemetry hub and registers the cluster-level metrics
    /// that need no index: `serenade_uptime_seconds` and
    /// `serenade_index_rollover_duration_seconds`.
    pub fn new() -> Self {
        let registry = Registry::new();
        let started = Instant::now();
        registry.polled_gauge(
            "serenade_uptime_seconds",
            "Seconds since the cluster was constructed.",
            &[],
            move || started.elapsed().as_secs(),
        );
        let rollover_seconds = registry.histogram(
            "serenade_index_rollover_duration_seconds",
            "Duration of index rollovers (build + atomic swap).",
            &[],
            HistogramConfig { shards: 1, ..HistogramConfig::default() },
        );
        Self {
            registry,
            traces: TraceRing::default(),
            next_request_id: AtomicU64::new(0),
            started,
            rollover_seconds,
        }
    }

    /// The metric registry rendered at `GET /metrics`.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The slow-request trace ring served at `GET /debug/slow`.
    pub fn traces(&self) -> &TraceRing {
        &self.traces
    }

    /// Allocates the next request id (monotone, starting at 1; 0 means
    /// "unassigned" throughout the pipeline).
    pub fn next_request_id(&self) -> u64 {
        // ORDERING: id allocator with no partner; ids must be unique, not
        // ordered with any other memory.
        self.next_request_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Seconds since cluster construction.
    pub fn uptime_seconds(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Registers `serenade_index_generation`, `serenade_index_bytes{structure}`,
    /// `serenade_index_dead_slots` and `serenade_index_dead_posting_entries`,
    /// read off whatever `handle` publishes at the time of a scrape.
    pub fn watch_index(&self, handle: &Arc<IndexHandle<VmisKnn>>) {
        let watched = Arc::clone(handle);
        self.registry.polled_gauge(
            "serenade_index_generation",
            "Monotone index version; bumps on every publish, rollover or ingest.",
            &[],
            move || watched.generation(),
        );
        for (i, structure) in INDEX_STRUCTURES.into_iter().enumerate() {
            let handle = Arc::clone(handle);
            self.registry.polled_gauge(
                "serenade_index_bytes",
                "Heap bytes of the published index, by structure (layout sizes, Arc headers \
                 and empty slot-table buckets included).",
                &[("structure", structure)],
                move || index_bytes(&handle.load())[i],
            );
        }
        let watched = Arc::clone(handle);
        self.registry.polled_gauge(
            "serenade_index_dead_slots",
            "Accumulator slots of the published index whose item has left it; live ingest \
             numbers slots afresh before they outgrow a fixed share of the live ones.",
            &[],
            move || watched.load().index().dead_slots() as u64,
        );
        let watched = Arc::clone(handle);
        self.registry.polled_gauge(
            "serenade_index_dead_posting_entries",
            "Posting arena entries of the published index that no item's record points at; \
             live ingest compacts the arenas before they outnumber the live entries.",
            &[],
            move || watched.load().index().dead_posting_entries() as u64,
        );
    }

    /// Records how long one successful publish took, in the
    /// rollover-duration histogram.
    pub fn record_rollover(&self, took: Duration) {
        self.rollover_seconds.record(took);
    }
}

impl Default for ClusterTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

/// Parses what `GET /metrics` renders from `registry` right now.
#[cfg(all(test, not(feature = "loom")))]
pub(crate) fn scrape(registry: &Registry) -> serenade_promtext::Exposition {
    serenade_promtext::parse(&registry.render()).expect("the registry renders valid exposition text")
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;

    #[test]
    fn request_ids_are_unique_and_nonzero() {
        let t = ClusterTelemetry::default();
        let a = t.next_request_id();
        let b = t.next_request_id();
        assert!(a > 0);
        assert_eq!(b, a + 1);
    }

    #[test]
    fn rollovers_bump_generation_and_histogram() {
        use serenade_core::{Click, SessionIndex, VmisConfig};
        let index = SessionIndex::build(&[Click::new(1, 7, 10), Click::new(1, 8, 11)], 10).unwrap();
        let config = VmisConfig { m: 10, ..VmisConfig::default() };
        let kernel = crate::sync::Arc::new(VmisKnn::new(index, config).unwrap());
        let handle = Arc::new(IndexHandle::new(crate::sync::Arc::clone(&kernel)));
        let t = ClusterTelemetry::default();
        t.watch_index(&handle);
        assert!(t.registry().render().contains("serenade_index_generation 1"));
        for took in [120, 80] {
            handle.store(crate::sync::Arc::clone(&kernel));
            t.record_rollover(Duration::from_millis(took));
        }
        let text = t.registry().render();
        assert!(text.contains("serenade_index_generation 3"), "{text}");
        assert!(
            text.contains("serenade_index_rollover_duration_seconds_count 2"),
            "{text}"
        );
    }

    #[test]
    fn index_bytes_are_read_off_the_published_index_at_scrape_time() {
        use serenade_core::{Click, SessionIndex, VmisConfig};
        let kernel = |clicks: &[Click]| {
            let index = SessionIndex::build(clicks, 10).unwrap();
            let config = VmisConfig { m: 10, ..VmisConfig::default() };
            crate::sync::Arc::new(VmisKnn::new(index, config).unwrap())
        };
        let clicks = [Click::new(1, 7, 10), Click::new(1, 8, 11), Click::new(2, 7, 20)];
        let handle = Arc::new(IndexHandle::new(kernel(&clicks)));
        let t = ClusterTelemetry::default();
        t.watch_index(&handle);
        let text = t.registry().render();
        // Items 7 and 8: three 4-byte entries in the one arena behind a
        // 16-byte Arc header, padded to its alignment, and the one-arena table
        // behind its own header. Three 1-byte offsets of two sessions and
        // their 3 bytes of padding, the one segment — its timestamp column
        // and two byte columns of a width each — behind its Arc header, and
        // the one-pointer segment table behind its own. The two sessions'
        // timestamps (11, 20) in Elias–Fano form: base, meta, one word of
        // select samples, one of low parts (ℓ = ⌊log₂(9 / 2)⌋ = 2 bits each)
        // and one of unary high parts, five 8-byte words. Three 1-byte slots
        // — the session items themselves — and their padding in the one
        // segment, and the slot → item table: two 1-byte ids and 7 bytes of
        // padding, behind an Arc header that holds the 24-byte column; one
        // 4-byte idf a slot.
        assert!(text.contains("serenade_index_bytes{structure=\"postings\"} 64"), "{text}");
        assert!(text.contains("serenade_index_bytes{structure=\"session_items\"} 110"), "{text}");
        assert!(text.contains("serenade_index_bytes{structure=\"timestamps\"} 40"), "{text}");
        assert!(text.contains("serenade_index_bytes{structure=\"slots\"} 55"), "{text}");
        assert!(text.contains("serenade_index_bytes{structure=\"idf\"} 8"), "{text}");
        assert!(text.contains("serenade_index_dead_slots 0"), "{text}");
        assert!(text.contains("serenade_index_dead_posting_entries 0"), "{text}");
        // A publish records nothing; the next scrape sees the new index. One
        // session: base, meta, one sample word and one unary word (span 0,
        // no low parts).
        handle.store(kernel(&clicks[..2]));
        let text = t.registry().render();
        assert!(text.contains("serenade_index_bytes{structure=\"timestamps\"} 32"), "{text}");
        assert!(text.contains("serenade_index_bytes{structure=\"idf\"} 8"), "{text}");
    }

    #[test]
    fn cluster_metrics_render_uptime() {
        let t = ClusterTelemetry::default();
        let text = t.registry().render();
        assert!(text.contains("# TYPE serenade_uptime_seconds gauge"), "{text}");
    }
}
