//! The ingest write path: pending queue, publisher thread, unlearning.
//!
//! One bounded in-memory queue absorbs click submissions from the HTTP
//! endpoint and the served-session hook; a single publisher thread drains
//! it on a fixed cadence, folds the batch into the
//! [`IncrementalIndexer`], and mini-publishes the resulting snapshot
//! through the cluster's [`IndexHandle`] — readers never block, and the
//! publish bumps the generation exactly like the daily rollover does.
//!
//! ## Publish protocol (the order is load-bearing)
//!
//! 1. drain the pending queue (appends, deletions);
//! 2. fold into the indexer: appends and deletions alike merge into the
//!    index it holds and leave the next generation, which shares with the
//!    served one every posting and every segment of sessions the batch did
//!    not reach;
//! 3. build the fresh `VmisKnn` over that same index (a handle, not a
//!    copy, and one idf per item beside it); on any error stop here — the
//!    old snapshot keeps serving and nothing below happens;
//! 4. drain the touched-item set and, with a cache, record it into the
//!    [`EpochLog`](crate::ingest::epoch::EpochLog) under the *next*
//!    generation;
//! 5. [`IndexHandle::store`] — the swap that makes the publish visible.
//!
//! Recording (4) strictly before storing (5) means a reader that observes
//! the new generation either finds the epoch in the log (and can
//! revalidate untouched cache entries) or races the record and
//! conservatively treats its entry as stale — never the reverse.
//!
//! ## Deletion semantics
//!
//! [`IngestPipeline::delete_session`] is synchronous: it enqueues the
//! deletion, wakes the publisher (deletions don't wait for the cadence
//! tick), and blocks until the publish that excludes the session is
//! visible. When the deletion empties the index entirely there is nothing
//! left to publish; the call errors and the previous snapshot keeps
//! serving — the indexer's tombstone still holds.
//!
//! The publisher is the cluster's single index writer while ingest is
//! enabled, the serialised-publisher contract the generation math and the
//! epoch log stand on: [`ServingCluster::reload_index`] checks it and
//! refuses with [`RolloverError::IngestEnabled`].
//!
//! [`IndexHandle`]: crate::handle::IndexHandle
//! [`IndexHandle::store`]: crate::handle::IndexHandle::store
//! [`ServingCluster::reload_index`]: crate::cluster::ServingCluster::reload_index
//! [`RolloverError::IngestEnabled`]: crate::cluster::RolloverError::IngestEnabled

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serenade_core::{Click, CoreError, VmisKnn};
use serenade_index::IncrementalIndexer;

use crate::cache::PredictionCache;
use crate::engine::{build_recommender, EngineConfig};
use crate::error::ServingError;
use crate::handle::IndexHandle;
use crate::ingest::metrics::IngestMetrics;
use crate::telemetry::ClusterTelemetry;

/// Tuning knobs for the streaming ingest pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestConfig {
    /// Minimum spacing between mini-publishes. Appends batch up for at most
    /// this long before becoming visible; deletions publish immediately.
    pub publish_interval: Duration,
    /// Bound on the pending-append queue; submissions beyond it are
    /// rejected (the HTTP layer answers 503) rather than buffered without
    /// limit.
    pub max_pending_appends: usize,
    /// Posting-list capacity `m` for the maintained index (must be ≥ the
    /// engine's configured sample size, exactly like an offline artefact).
    pub m_max: usize,
    /// Optional sliding-window cap on the index's session-item entries
    /// (the sum of its sessions' distinct items): past it, the oldest whole
    /// sessions are dropped. `None` keeps every session (the offline
    /// builder's behaviour).
    pub retained_session_items_cap: Option<usize>,
    /// When `true`, every *consented* request the cluster serves is fed
    /// back into the index (the internal served-session hook) — the live
    /// loop the paper's daily batch pipeline approximates offline.
    pub observe_served: bool,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self {
            publish_interval: Duration::from_millis(200),
            max_pending_appends: 65_536,
            m_max: 500,
            retained_session_items_cap: None,
            observe_served: false,
        }
    }
}

/// How long a synchronous caller (deletion, flush) waits for the publisher
/// before reporting failure. Generous: a publish is one merge into the held
/// index plus one idf table — milliseconds on a million-click index, and no
/// worse than an index build when a batch of old timestamps renumbers every
/// posting (`serenade_ingest_publish_duration_seconds` has the split by
/// stage).
const SYNC_WAIT: Duration = Duration::from_secs(30);

/// A one-shot completion slot the publisher fills and a caller awaits.
struct Ticket<T> {
    done: Mutex<Option<T>>,
    cond: Condvar,
}

impl<T> Ticket<T> {
    fn new() -> Self {
        Self { done: Mutex::new(None), cond: Condvar::new() }
    }

    fn complete(&self, value: T) {
        *self.done.lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
        self.cond.notify_all();
    }

    fn wait(&self, timeout: Duration) -> Option<T> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(value) = slot.take() {
                return Some(value);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .cond
                .wait_timeout(slot, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            slot = guard;
        }
    }
}

type DeleteTicket = Arc<Ticket<Result<bool, ServingError>>>;
type FlushTicket = Arc<Ticket<Result<u64, ServingError>>>;

/// Work accumulated between publishes, behind one mutex with a condvar the
/// submitters signal and the publisher waits on.
#[derive(Default)]
struct Pending {
    clicks: Vec<Click>,
    deletes: Vec<(u64, DeleteTicket)>,
    flushes: Vec<FlushTicket>,
    shutdown: bool,
}

/// State shared between the pipeline façade and the publisher thread.
struct SharedState {
    pending: Mutex<Pending>,
    cond: Condvar,
    metrics: IngestMetrics,
    handle: Arc<IndexHandle<VmisKnn>>,
}

impl SharedState {
    fn lock_pending(&self) -> MutexGuard<'_, Pending> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The streaming ingest pipeline. Created by
/// [`ServingCluster::enable_ingest`]; dropping it stops the publisher
/// thread after one final drain.
///
/// [`ServingCluster::enable_ingest`]: crate::cluster::ServingCluster::enable_ingest
pub struct IngestPipeline {
    shared: Arc<SharedState>,
    worker: Mutex<Option<JoinHandle<()>>>,
    max_pending: usize,
    observe: bool,
}

impl IngestPipeline {
    /// Seeds the indexer with the cluster's click log and starts the
    /// publisher thread. No publish happens until live work arrives — the
    /// cluster already serves an index built from the same seed, and the
    /// indexer adopts that very index instead of building its own.
    pub(crate) fn start(
        config: IngestConfig,
        seed: &[Click],
        handle: Arc<IndexHandle<VmisKnn>>,
        engine_config: EngineConfig,
        cache: Option<Arc<PredictionCache>>,
        telemetry: Arc<ClusterTelemetry>,
    ) -> Result<Arc<Self>, CoreError> {
        if config.max_pending_appends == 0 {
            return Err(CoreError::InvalidConfig {
                parameter: "max_pending_appends",
                reason: String::from("must be at least 1"),
            });
        }
        let mut indexer = match config.retained_session_items_cap {
            Some(cap) => IncrementalIndexer::with_retained_session_items_cap(config.m_max, cap)?,
            None => IncrementalIndexer::new(config.m_max)?,
        };
        if !indexer.adopt(handle.load().index(), seed) {
            // The served index is not the seed's (another `m_max`, another
            // log, a retention cap that bites): index the seed here, and let
            // the first publish bring the readers over.
            indexer.apply_batch(seed)?;
            let _ = (indexer.drain_touched(), indexer.take_sharing());
        }
        let shared = Arc::new(SharedState {
            pending: Mutex::new(Pending::default()),
            cond: Condvar::new(),
            metrics: IngestMetrics::new(telemetry.registry()),
            handle,
        });
        let worker = {
            let shared = Arc::clone(&shared);
            let interval = config.publish_interval;
            std::thread::Builder::new()
                .name(String::from("serenade-ingest-publisher"))
                .spawn(move || {
                    publisher_loop(&shared, indexer, interval, &engine_config, cache.as_deref(), &telemetry);
                })
                .map_err(|e| CoreError::InvalidConfig {
                    parameter: "ingest",
                    reason: format!("failed to spawn the publisher thread: {e}"),
                })?
        };
        Ok(Arc::new(Self {
            shared,
            worker: Mutex::new(Some(worker)),
            max_pending: config.max_pending_appends,
            observe: config.observe_served,
        }))
    }

    /// Submits a batch of click events for the next mini-publish.
    /// All-or-nothing: returns `false` (and admits none of them) when the
    /// pending queue cannot hold the whole batch or the pipeline is
    /// shutting down — the HTTP layer maps that to `503`.
    pub fn submit(&self, clicks: &[Click]) -> bool {
        if clicks.is_empty() {
            return true;
        }
        {
            let mut pending = self.shared.lock_pending();
            if pending.shutdown
                || pending.clicks.len().saturating_add(clicks.len()) > self.max_pending
            {
                drop(pending);
                self.shared.metrics.record_rejected(clicks.len());
                return false;
            }
            pending.clicks.extend_from_slice(clicks);
        }
        self.shared.metrics.record_accepted(clicks.len());
        self.shared.cond.notify_all();
        true
    }

    /// The served-session hook: feeds one click observed on the read path
    /// back into the index, dropping it silently under backpressure (the
    /// read path must never block or fail on write-path congestion).
    pub fn observe_served(&self, session_id: u64, item: u64, timestamp: u64) {
        let _ = self.submit(&[Click::new(session_id, item, timestamp)]);
    }

    /// The cluster's per-request hook: a no-op unless
    /// [`IngestConfig::observe_served`] was set, in which case the served
    /// click is stamped with the wall clock and fed back like
    /// [`IngestPipeline::observe_served`]. The cluster only calls this for
    /// consented requests — depersonalised traffic never lands in the
    /// retained log.
    pub(crate) fn observe_request(&self, session_id: u64, item: u64) {
        if !self.observe {
            return;
        }
        let timestamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        self.observe_served(session_id, item, timestamp);
    }

    /// Deletes (unlearns) a session: removes every one of its clicks from
    /// the retained log, tombstones the external id so late-arriving clicks
    /// cannot resurrect it, and blocks until the publish that excludes it
    /// is visible. Returns whether the session existed in the log.
    pub fn delete_session(&self, session_id: u64) -> Result<bool, ServingError> {
        let ticket: DeleteTicket = Arc::new(Ticket::new());
        {
            let mut pending = self.shared.lock_pending();
            if pending.shutdown {
                return Err(ServingError::Internal("ingest pipeline is shut down"));
            }
            pending.deletes.push((session_id, Arc::clone(&ticket)));
        }
        self.shared.cond.notify_all();
        match ticket.wait(SYNC_WAIT) {
            Some(result) => result,
            None => Err(ServingError::Internal("ingest deletion timed out")),
        }
    }

    /// Forces an immediate publish of everything pending and blocks until
    /// it is visible; returns the index generation afterwards. With nothing
    /// pending this is a cheap synchronisation point (no publish happens).
    pub fn flush(&self) -> Result<u64, ServingError> {
        let ticket: FlushTicket = Arc::new(Ticket::new());
        {
            let mut pending = self.shared.lock_pending();
            if pending.shutdown {
                return Err(ServingError::Internal("ingest pipeline is shut down"));
            }
            pending.flushes.push(Arc::clone(&ticket));
        }
        self.shared.cond.notify_all();
        match ticket.wait(SYNC_WAIT) {
            Some(result) => result,
            None => Err(ServingError::Internal("ingest flush timed out")),
        }
    }

    /// Clicks currently waiting for the next publish.
    pub fn pending_clicks(&self) -> usize {
        self.shared.lock_pending().clicks.len()
    }

    /// The pipeline's `serenade_ingest_*` telemetry.
    pub fn metrics(&self) -> &IngestMetrics {
        &self.shared.metrics
    }
}

impl Drop for IngestPipeline {
    fn drop(&mut self) {
        self.shared.lock_pending().shutdown = true;
        self.shared.cond.notify_all();
        // Scope the handle mutex so it is released before the join: the
        // publisher thread never takes this lock, but holding a guard
        // across a join is the deadlock shape the analyzer rejects.
        let worker = {
            let mut slot = self.worker.lock().unwrap_or_else(PoisonError::into_inner);
            slot.take()
        };
        if let Some(worker) = worker {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for IngestPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestPipeline")
            .field("pending_clicks", &self.pending_clicks())
            .field("max_pending", &self.max_pending)
            .finish()
    }
}

/// The publisher thread: waits for work (appends due by cadence; deletions,
/// flushes and shutdown immediately), folds it into the indexer, publishes,
/// and completes synchronous tickets. Exits after the drain that observes
/// `shutdown`.
fn publisher_loop(
    shared: &SharedState,
    mut indexer: IncrementalIndexer,
    interval: Duration,
    engine_config: &EngineConfig,
    cache: Option<&PredictionCache>,
    telemetry: &ClusterTelemetry,
) {
    let mut last_publish = Instant::now();
    loop {
        let (clicks, deletes, flushes, shutdown) = {
            let mut pending = shared.lock_pending();
            loop {
                let urgent = pending.shutdown
                    || !pending.deletes.is_empty()
                    || !pending.flushes.is_empty();
                let due = !pending.clicks.is_empty() && last_publish.elapsed() >= interval;
                if urgent || due {
                    break;
                }
                let wait = if pending.clicks.is_empty() {
                    interval
                } else {
                    interval.saturating_sub(last_publish.elapsed())
                };
                let (guard, _) = shared
                    .cond
                    .wait_timeout(pending, wait.max(Duration::from_millis(1)))
                    .unwrap_or_else(PoisonError::into_inner);
                pending = guard;
            }
            (
                std::mem::take(&mut pending.clicks),
                std::mem::take(&mut pending.deletes),
                std::mem::take(&mut pending.flushes),
                pending.shutdown,
            )
        };
        publish_cycle(shared, &mut indexer, clicks, deletes, flushes, engine_config, cache, telemetry);
        last_publish = Instant::now();
        if shutdown {
            break;
        }
    }
}

/// One drain-fold-publish cycle. See the module docs for why the epoch
/// record happens strictly before the handle store.
#[allow(clippy::too_many_arguments)]
fn publish_cycle(
    shared: &SharedState,
    indexer: &mut IncrementalIndexer,
    clicks: Vec<Click>,
    deletes: Vec<(u64, DeleteTicket)>,
    flushes: Vec<FlushTicket>,
    engine_config: &EngineConfig,
    cache: Option<&PredictionCache>,
    telemetry: &ClusterTelemetry,
) {
    if clicks.is_empty() && deletes.is_empty() {
        // A flush with nothing pending is just a synchronisation point.
        for flush in flushes {
            flush.complete(Ok(shared.handle.generation()));
        }
        return;
    }

    let started = Instant::now();
    let applied = indexer.apply_batch(&clicks);
    let mut delete_outcomes = Vec::with_capacity(deletes.len());
    for (session_id, ticket) in deletes {
        let outcome = indexer.delete_session(session_id);
        if outcome.is_ok() {
            shared.metrics.record_deletion();
        }
        delete_outcomes.push((outcome, ticket));
    }
    let applied_at = Instant::now();

    let published = applied.and_then(|()| {
        let fresh = build_recommender(Arc::new(indexer.snapshot()?), engine_config)?;
        let built_at = Instant::now();
        // Record-then-store: a reader observing the new generation either
        // finds this epoch or errs on the stale side (see module docs).
        // Drained with or without a cache, or the set grows without bound.
        let touched = indexer.drain_touched();
        if let Some(cache) = cache {
            cache.epoch_log().record(shared.handle.generation() + 1, touched.into());
        }
        shared.handle.store(crate::sync::Arc::new(fresh));
        Ok(built_at)
    });

    match &published {
        Ok(built_at) => {
            let stages = [applied_at - started, *built_at - applied_at, built_at.elapsed()];
            shared.metrics.record_publish(stages, indexer.take_sharing());
            telemetry.record_rollover(started.elapsed());
        }
        Err(_) => shared.metrics.record_publish_failure(),
    }

    for (outcome, ticket) in delete_outcomes {
        ticket.complete(match (outcome, &published) {
            (Ok(existed), Ok(_)) => Ok(existed),
            (Ok(_), Err(_)) => Err(ServingError::Internal(
                "session removed from the log but republish failed; previous index still serving",
            )),
            (Err(_), _) => Err(ServingError::Internal("session deletion failed to apply")),
        });
    }
    for flush in flushes {
        flush.complete(match &published {
            Ok(_) => Ok(shared.handle.generation()),
            Err(_) => Err(ServingError::Internal("ingest publish failed")),
        });
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;
    use serenade_core::SessionIndex;
    use serenade_index::TouchedItems;
    use serenade_telemetry::TraceConfig;

    /// One publish cycle of ten fresh clicks against a small served index,
    /// with or without a prediction cache; returns what the indexer still
    /// holds as touched afterwards and the generation reached.
    fn touched_after_a_publish(cache: Option<&PredictionCache>) -> (TouchedItems, u64) {
        let seed: Vec<Click> = (0..40u64).map(|s| Click::new(s, s % 6, 100 + s)).collect();
        let engine_config = EngineConfig::default();
        let index = Arc::new(SessionIndex::build(&seed, 500).unwrap());
        let served = build_recommender(Arc::clone(&index), &engine_config).unwrap();
        let telemetry = ClusterTelemetry::new(TraceConfig::default());
        let shared = SharedState {
            pending: Mutex::new(Pending::default()),
            cond: Condvar::new(),
            metrics: IngestMetrics::new(telemetry.registry()),
            handle: Arc::new(IndexHandle::new(crate::sync::Arc::new(served))),
        };
        let mut indexer = IncrementalIndexer::new(500).unwrap();
        assert!(indexer.adopt(&index, &seed));
        let batch: Vec<Click> = (0..10u64).map(|i| Click::new(900 + i, i % 6, 1_000 + i)).collect();
        publish_cycle(
            &shared,
            &mut indexer,
            batch,
            Vec::new(),
            Vec::new(),
            &engine_config,
            cache,
            &telemetry,
        );
        assert_eq!(shared.metrics.publishes(), 1);
        // Forty sessions are one segment: the publish wrote it over again.
        let text = telemetry.registry().render();
        assert!(text.contains("serenade_ingest_segments_copied_total 1"), "{text}");
        assert!(text.contains("serenade_ingest_segments_shared_total 0"), "{text}");
        (indexer.drain_touched(), shared.handle.generation())
    }

    #[test]
    fn a_publish_drains_the_touched_set_with_or_without_a_cache() {
        let cache = PredictionCache::new(crate::cache::CacheConfig::default());
        for cache in [Some(&cache), None] {
            let (left_over, generation) = touched_after_a_publish(cache);
            assert_eq!(generation, 2);
            assert!(left_over.is_empty(), "touched items outlived their publish: {left_over:?}");
        }
    }
}
