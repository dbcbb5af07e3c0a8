//! The ingest write path: pending queue, publisher thread, unlearning.
//!
//! One bounded in-memory queue absorbs click submissions from the HTTP
//! endpoint; a single publisher thread drains it on a fixed cadence, folds
//! the batch into the [`IncrementalIndexer`], and mini-publishes the
//! resulting snapshot through the cluster's [`IndexHandle`] — in-flight
//! requests finish on the snapshot they loaded, and the publish bumps the
//! generation exactly like the daily rollover does.
//!
//! ## Publish protocol
//!
//! 1. drain the pending queue (appends, deletions);
//! 2. apply: appends and deletions alike merge into the index the indexer
//!    holds and leave the next generation, which shares with the served
//!    one every posting and every segment of sessions the batch did not
//!    reach;
//! 3. build the fresh `VmisKnn` over that same index (a handle, not a
//!    copy, and one idf per item beside it); on any error stop here — the
//!    old snapshot keeps serving and nothing below happens;
//! 4. [`IndexHandle::store`] — the swap that makes the publish visible.
//!
//! The store bumps the generation, so every prediction-cache entry is
//! stale from then on: a cached answer is always the answer of the index
//! generation it is served under.
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
//! enabled, the serialised-publisher contract the generation math stands
//! on: [`ServingCluster::reload_index`] checks it and
//! refuses with [`RolloverError::IngestEnabled`].
//!
//! [`IndexHandle`]: crate::handle::IndexHandle
//! [`IndexHandle::store`]: crate::handle::IndexHandle::store
//! [`ServingCluster::reload_index`]: crate::cluster::ServingCluster::reload_index
//! [`RolloverError::IngestEnabled`]: crate::cluster::RolloverError::IngestEnabled

use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serenade_core::{Click, CoreError, VmisConfig, VmisKnn};
use serenade_index::IncrementalIndexer;

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
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self {
            publish_interval: Duration::from_millis(200),
            max_pending_appends: 65_536,
            m_max: 500,
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

/// The publisher's end of a one-shot answer to a caller waiting on the
/// channel's other end: a channel of capacity 1, answered with
/// [`complete`].
type Ticket<T> = SyncSender<Result<T, ServingError>>;
type DeleteTicket = Ticket<bool>;
type FlushTicket = Ticket<u64>;

/// Answers a ticket once and never blocks: a ticket already answered, or
/// one whose caller stopped waiting, drops `value`.
fn complete<T>(ticket: &Ticket<T>, value: Result<T, ServingError>) {
    let _ = ticket.try_send(value);
}

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
}

impl IngestPipeline {
    /// Seeds the indexer with the cluster's click log and starts the
    /// publisher thread, which makes each generation's kernel with `kernel`,
    /// the cluster's own. No publish happens until live work arrives — the
    /// cluster already serves an index built from the same seed, and the
    /// indexer adopts that very index instead of building its own.
    pub(crate) fn start(
        config: IngestConfig,
        seed: &[Click],
        handle: Arc<IndexHandle<VmisKnn>>,
        kernel: VmisConfig,
        telemetry: Arc<ClusterTelemetry>,
    ) -> Result<Arc<Self>, CoreError> {
        if config.max_pending_appends == 0 {
            return Err(CoreError::InvalidConfig {
                parameter: "max_pending_appends",
                reason: String::from("must be at least 1"),
            });
        }
        let mut indexer = IncrementalIndexer::new(config.m_max)?;
        // Adopting runs once, as ingest starts: every core checks the seed.
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        if !indexer.adopt(handle.load().index(), seed, threads) {
            // The served index is not the seed's (another `m_max`, another
            // log): index the seed here, and let the first publish bring the
            // readers over.
            indexer.apply_batch(seed)?;
            let _ = indexer.take_sharing();
        }
        let shared = Arc::new(SharedState {
            pending: Mutex::new(Pending::default()),
            cond: Condvar::new(),
            metrics: IngestMetrics::new(telemetry.registry()),
            handle,
        });
        shared.metrics.set_publisher_up(true);
        let worker = {
            let shared = Arc::clone(&shared);
            let interval = config.publish_interval;
            std::thread::Builder::new()
                .name(String::from("serenade-ingest-publisher"))
                .spawn(move || {
                    publisher_loop(&shared, indexer, interval, &kernel, &telemetry);
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

    /// Deletes (unlearns) a session: removes every one of its clicks from
    /// the retained log, tombstones the external id so late-arriving clicks
    /// cannot resurrect it, and blocks until the publish that excludes it
    /// is visible. Returns whether the session existed in the log.
    pub fn delete_session(&self, session_id: u64) -> Result<bool, ServingError> {
        let (ticket, answer) = sync_channel(1);
        {
            let mut pending = self.shared.lock_pending();
            if pending.shutdown {
                return Err(ServingError::Internal("ingest pipeline is shut down"));
            }
            pending.deletes.push((session_id, ticket));
        }
        self.shared.cond.notify_all();
        let timed_out = Err(ServingError::Internal("ingest deletion timed out"));
        answer.recv_timeout(SYNC_WAIT).unwrap_or(timed_out)
    }

    /// Forces an immediate publish of everything pending and blocks until
    /// it is visible; returns the index generation afterwards. With nothing
    /// pending this is a cheap synchronisation point (no publish happens).
    pub fn flush(&self) -> Result<u64, ServingError> {
        let (ticket, answer) = sync_channel(1);
        {
            let mut pending = self.shared.lock_pending();
            if pending.shutdown {
                return Err(ServingError::Internal("ingest pipeline is shut down"));
            }
            pending.flushes.push(ticket);
        }
        self.shared.cond.notify_all();
        let timed_out = Err(ServingError::Internal("ingest flush timed out"));
        answer.recv_timeout(SYNC_WAIT).unwrap_or(timed_out)
    }

    /// Clicks currently waiting for the next publish.
    pub fn pending_clicks(&self) -> usize {
        self.shared.lock_pending().clicks.len()
    }

    /// Whether the publisher has stopped for good — it panicked, or the
    /// pipeline is shutting down — so that [`submit`](Self::submit) refuses
    /// every batch from now on, not only those the queue cannot hold.
    pub fn is_stopped(&self) -> bool {
        self.shared.lock_pending().shutdown
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
/// `shutdown`, or after a cycle that panicked: the indexer may then be
/// half-applied, so nothing more is published, and every waiter is failed
/// at once instead of at its `SYNC_WAIT`.
fn publisher_loop(
    shared: &SharedState,
    mut indexer: IncrementalIndexer,
    interval: Duration,
    kernel: &VmisConfig,
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
        let cycle = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            publish_cycle(
                shared,
                &mut indexer,
                clicks,
                &deletes,
                &flushes,
                kernel,
                telemetry,
            )
        }));
        if cycle.is_err() {
            stop_after_panic(shared, &deletes, &flushes);
            return;
        }
        last_publish = Instant::now();
        if shutdown {
            break;
        }
    }
    shared.metrics.set_publisher_up(false);
}

/// The publisher panicked: refuse all further work (submits answer `503`,
/// deletions and flushes fail on the spot) and fail every ticket waiting
/// on it, those of the cycle that panicked included.
fn stop_after_panic(
    shared: &SharedState,
    deletes: &[(u64, DeleteTicket)],
    flushes: &[FlushTicket],
) {
    const STOPPED: ServingError = ServingError::Internal("ingest publisher stopped after a panic");
    shared.metrics.set_publisher_up(false);
    let (queued_deletes, queued_flushes) = {
        let mut pending = shared.lock_pending();
        pending.shutdown = true;
        pending.clicks = Vec::new();
        (std::mem::take(&mut pending.deletes), std::mem::take(&mut pending.flushes))
    };
    for (_, ticket) in deletes.iter().chain(&queued_deletes) {
        complete(ticket, Err(STOPPED));
    }
    for ticket in flushes.iter().chain(&queued_flushes) {
        complete(ticket, Err(STOPPED));
    }
}

/// One apply-build-store cycle (the module docs' publish protocol).
fn publish_cycle(
    shared: &SharedState,
    indexer: &mut IncrementalIndexer,
    clicks: Vec<Click>,
    deletes: &[(u64, DeleteTicket)],
    flushes: &[FlushTicket],
    kernel: &VmisConfig,
    telemetry: &ClusterTelemetry,
) {
    panic_hook(&clicks);
    if clicks.is_empty() && deletes.is_empty() {
        // A flush with nothing pending is just a synchronisation point.
        for flush in flushes {
            complete(flush, Ok(shared.handle.generation()));
        }
        return;
    }

    let started = Instant::now();
    let applied = indexer.apply_batch(&clicks);
    let mut delete_outcomes = Vec::with_capacity(deletes.len());
    for (session_id, ticket) in deletes {
        let outcome = indexer.delete_session(*session_id);
        if outcome.is_ok() {
            shared.metrics.record_deletion();
        }
        delete_outcomes.push((outcome, ticket));
    }
    let applied_at = Instant::now();

    let published = applied.and_then(|()| {
        let fresh = VmisKnn::new(Arc::new(indexer.snapshot()?), kernel.clone())?;
        let built_at = Instant::now();
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
        complete(ticket, match (outcome, &published) {
            (Ok(existed), Ok(_)) => Ok(existed),
            (Ok(_), Err(_)) => Err(ServingError::Internal(
                "session removed from the log but republish failed; previous index still serving",
            )),
            (Err(_), _) => Err(ServingError::Internal("session deletion failed to apply")),
        });
    }
    for flush in flushes {
        complete(flush, match &published {
            Ok(_) => Ok(shared.handle.generation()),
            Err(_) => Err(ServingError::Internal("ingest publish failed")),
        });
    }
}

/// Where the tests kill the publisher (see the `#[cfg(test)]` twin below);
/// nothing in any other build.
#[cfg(not(test))]
fn panic_hook(_clicks: &[Click]) {}

/// A session id whose clicks make the publish cycle that applies them
/// panic.
#[cfg(test)]
pub(crate) const PANIC_SESSION: u64 = 0xDEAD_BEEF;

#[cfg(test)]
fn panic_hook(clicks: &[Click]) {
    if clicks.iter().any(|click| click.session_id == PANIC_SESSION) {
        panic!("injected publisher panic");
    }
}
