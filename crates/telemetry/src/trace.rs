//! Per-request tracing: a lock-striped ring of recent slow requests.
//!
//! Every request that clears the sampling and slow-threshold knobs deposits
//! a [`TraceSample`] — request id, per-stage timings, session length,
//! depersonalised flag, kernel work counters — into a fixed ring of [`TraceRing`] slots. The
//! `GET /debug/slow` endpoint snapshots the ring and returns the samples
//! sorted slowest-first, answering the question the aggregate histograms
//! cannot: *which* requests were slow, and in which stage.
//!
//! The ring is striped per slot rather than guarded by one lock: a writer
//! claims a slot with a single atomic `swap` on the slot's `busy` flag and
//! simply drops the trace if another writer holds it (telemetry may shed
//! load; it must never add a lock-wait to the request path). Field writes
//! are bracketed by a version counter (odd = mid-write) so readers discard
//! samples they raced with. Every field is an atomic, so even a
//! theoretically torn read is a benign mixed sample, never undefined
//! behavior.
//!
//! Both knobs are fixed when the ring is built from its [`TraceConfig`]:
//! `sample_every` (0 disables tracing entirely) and `slow_threshold_us` (0
//! traces every sampled request).

use crate::sync::atomic::{AtomicU64, Ordering};

/// Trace-ring configuration.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Ring capacity: how many recent traces are retained.
    pub slots: usize,
    /// Trace every Nth sampled request; 0 disables tracing.
    pub sample_every: u64,
    /// Only trace requests at least this slow end-to-end (microseconds);
    /// 0 traces every sampled request.
    pub slow_threshold_us: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self { slots: 64, sample_every: 1, slow_threshold_us: 0 }
    }
}

/// One traced request, as recorded into and read back out of the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSample {
    /// Request id assigned at the HTTP layer.
    pub request_id: u64,
    /// End-to-end handler latency in microseconds.
    pub total_us: u64,
    /// Session-store stage latency in microseconds.
    pub session_us: u64,
    /// Prediction stage latency in microseconds.
    pub predict_us: u64,
    /// Business-policy stage latency in microseconds.
    pub policy_us: u64,
    /// Stored session length (events) at prediction time: the node's
    /// stored window, so at most the kernel's `max_session_len`; 1 for a
    /// depersonalised request.
    pub session_len: u64,
    /// Whether the depersonalised fallback produced the response.
    pub depersonalised: bool,
    /// Posting entries the kernel walked (0 when no kernel ran: a cache
    /// hit, or a request proxied to a remote pod).
    pub postings_walked: u32,
    /// Candidate sessions the kernel kept (at most `m`).
    pub candidates: u32,
}

const FLAG_DEPERSONALISED: u64 = 1;

/// One ring slot. `busy` is the per-slot stripe lock (try-acquire only);
/// `version` brackets writes so readers can reject racing samples.
struct Slot {
    busy: AtomicU64,
    version: AtomicU64,
    request_id: AtomicU64,
    total_us: AtomicU64,
    session_us: AtomicU64,
    predict_us: AtomicU64,
    policy_us: AtomicU64,
    session_len: AtomicU64,
    flags: AtomicU64,
    postings_walked: AtomicU64,
    candidates: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Self {
            busy: AtomicU64::new(0),
            version: AtomicU64::new(0),
            request_id: AtomicU64::new(0),
            total_us: AtomicU64::new(0),
            session_us: AtomicU64::new(0),
            predict_us: AtomicU64::new(0),
            policy_us: AtomicU64::new(0),
            session_len: AtomicU64::new(0),
            flags: AtomicU64::new(0),
            postings_walked: AtomicU64::new(0),
            candidates: AtomicU64::new(0),
        }
    }
}

/// Lock-striped ring buffer of recent slow-request traces.
pub struct TraceRing {
    slots: Box<[Slot]>,
    /// Requests offered so far; drives sampling and slot rotation.
    seq: AtomicU64,
    sample_every: u64,
    slow_threshold_us: u64,
}

impl Default for TraceRing {
    fn default() -> Self {
        Self::new(TraceConfig::default())
    }
}

impl TraceRing {
    /// Creates an empty ring per `config`.
    pub fn new(config: TraceConfig) -> Self {
        Self {
            slots: (0..config.slots.max(1)).map(|_| Slot::new()).collect(),
            seq: AtomicU64::new(0),
            sample_every: config.sample_every,
            slow_threshold_us: config.slow_threshold_us,
        }
    }

    /// Offers a finished request's trace to the ring. Lock-free and
    /// allocation-free: the sample is dropped (never waited for) when it
    /// loses the sampling dice roll, is under the slow threshold, or races
    /// another writer on its slot.
    #[inline]
    pub fn record(&self, sample: &TraceSample) {
        let every = self.sample_every;
        if every == 0 {
            return;
        }
        // ORDERING: ticket counter only (partner: none); slot data is
        // published by the version seqlock below, never by this counter.
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if seq % every != 0 {
            return;
        }
        if sample.total_us < self.slow_threshold_us {
            return;
        }
        let slot = &self.slots[(seq / every) as usize % self.slots.len()];
        // ORDERING: pairs with the `busy.store(0, Release)` below; winning
        // the slot happens-after the previous owner's writes, so two
        // writers can never interleave stores into one slot.
        if slot.busy.swap(1, Ordering::Acquire) == 1 {
            return;
        }
        slot.version.fetch_add(1, Ordering::SeqCst); // now odd: mid-write
        slot.request_id.store(sample.request_id, Ordering::Release); // ORDERING: pairs with snapshot's Acquire load
        slot.total_us.store(sample.total_us, Ordering::Release); // ORDERING: pairs with snapshot's Acquire load
        slot.session_us.store(sample.session_us, Ordering::Release); // ORDERING: pairs with snapshot's Acquire load
        slot.predict_us.store(sample.predict_us, Ordering::Release); // ORDERING: pairs with snapshot's Acquire load
        slot.policy_us.store(sample.policy_us, Ordering::Release); // ORDERING: pairs with snapshot's Acquire load
        slot.session_len.store(sample.session_len, Ordering::Release); // ORDERING: pairs with snapshot's Acquire load
        let flags = if sample.depersonalised { FLAG_DEPERSONALISED } else { 0 };
        slot.flags.store(flags, Ordering::Release); // ORDERING: pairs with snapshot's Acquire load
        slot.postings_walked.store(u64::from(sample.postings_walked), Ordering::Release); // ORDERING: pairs with snapshot's Acquire load
        slot.candidates.store(u64::from(sample.candidates), Ordering::Release); // ORDERING: pairs with snapshot's Acquire load
        slot.version.fetch_add(1, Ordering::SeqCst); // even again: published
        // ORDERING: pairs with the next writer's `busy.swap(1, Acquire)`
        // above, handing the slot over with all our stores visible.
        slot.busy.store(0, Ordering::Release);
    }

    /// Snapshots the ring: all published samples, sorted slowest-first.
    /// Slots mid-write (odd version, or version changed while reading) are
    /// skipped rather than waited for.
    pub fn snapshot(&self) -> Vec<TraceSample> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let v1 = slot.version.load(Ordering::SeqCst);
            if v1 == 0 || v1 % 2 == 1 {
                continue;
            }
            let sample = TraceSample {
                // ORDERING: Acquire data loads pair with `record`'s Release
                // stores and keep the closing `version` re-check below from
                // being hoisted above them — the seqlock's read bracket.
                request_id: slot.request_id.load(Ordering::Acquire),
                total_us: slot.total_us.load(Ordering::Acquire), // ORDERING: see request_id above
                session_us: slot.session_us.load(Ordering::Acquire), // ORDERING: see request_id above
                predict_us: slot.predict_us.load(Ordering::Acquire), // ORDERING: see request_id above
                policy_us: slot.policy_us.load(Ordering::Acquire), // ORDERING: see request_id above
                session_len: slot.session_len.load(Ordering::Acquire), // ORDERING: see request_id above
                depersonalised: slot.flags.load(Ordering::Acquire) & FLAG_DEPERSONALISED != 0, // ORDERING: see request_id above
                postings_walked: slot.postings_walked.load(Ordering::Acquire) as u32, // ORDERING: see request_id above
                candidates: slot.candidates.load(Ordering::Acquire) as u32, // ORDERING: see request_id above
            };
            if slot.version.load(Ordering::SeqCst) == v1 {
                out.push(sample);
            }
        }
        out.sort_by(|a, b| b.total_us.cmp(&a.total_us));
        out
    }
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing")
            .field("slots", &self.slots.len())
            .field("sample_every", &self.sample_every)
            .field("slow_threshold_us", &self.slow_threshold_us)
            .finish()
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;

    fn sample(id: u64, total: u64) -> TraceSample {
        TraceSample {
            request_id: id,
            total_us: total,
            session_us: total / 4,
            predict_us: total / 2,
            policy_us: total / 8,
            session_len: 3,
            depersonalised: id % 2 == 0,
            postings_walked: total as u32,
            candidates: 7,
        }
    }

    #[test]
    fn snapshot_returns_samples_slowest_first() {
        let ring = TraceRing::new(TraceConfig { slots: 8, ..TraceConfig::default() });
        for (id, total) in [(1, 500), (2, 9_000), (3, 40)] {
            ring.record(&sample(id, total));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0], sample(2, 9_000));
        assert_eq!(snap[1], sample(1, 500));
        assert_eq!(snap[2], sample(3, 40));
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let ring = TraceRing::new(TraceConfig { slots: 2, ..TraceConfig::default() });
        for id in 1..=5u64 {
            ring.record(&sample(id, id * 100));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 2);
        let ids: Vec<u64> = snap.iter().map(|s| s.request_id).collect();
        assert!(ids.contains(&4) && ids.contains(&5), "{ids:?}");
    }

    #[test]
    fn slow_threshold_filters_fast_requests() {
        let ring = TraceRing::new(TraceConfig {
            slots: 8,
            sample_every: 1,
            slow_threshold_us: 1_000,
        });
        ring.record(&sample(1, 999));
        ring.record(&sample(2, 1_000));
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].request_id, 2);
    }

    #[test]
    fn sampling_knob_thins_and_zero_disables() {
        let ring = TraceRing::new(TraceConfig { slots: 64, sample_every: 4, ..TraceConfig::default() });
        for id in 0..16u64 {
            ring.record(&sample(id, 100));
        }
        assert_eq!(ring.snapshot().len(), 4);

        let disabled = TraceRing::new(TraceConfig { sample_every: 0, ..TraceConfig::default() });
        disabled.record(&sample(99, 100));
        assert!(disabled.snapshot().is_empty());
    }

    #[test]
    fn concurrent_writers_and_readers_never_tear() {
        let ring = std::sync::Arc::new(TraceRing::new(TraceConfig {
            slots: 4,
            ..TraceConfig::default()
        }));
        let mut handles = Vec::new();
        for t in 0..2u64 {
            let ring = std::sync::Arc::clone(&ring);
            handles.push(std::thread::spawn(move || {
                for i in 0..5_000u64 {
                    // total == request_id so readers can detect mixing.
                    let id = t * 1_000_000 + i;
                    ring.record(&TraceSample {
                        request_id: id,
                        total_us: id,
                        session_us: id,
                        predict_us: id,
                        policy_us: id,
                        session_len: id,
                        depersonalised: false,
                        postings_walked: id as u32,
                        candidates: id as u32,
                    });
                }
            }));
        }
        for _ in 0..2 {
            let ring = std::sync::Arc::clone(&ring);
            handles.push(std::thread::spawn(move || {
                for _ in 0..2_000 {
                    for s in ring.snapshot() {
                        assert_eq!(s.request_id, s.total_us, "torn sample: {s:?}");
                        assert_eq!(s.request_id, s.session_len);
                        assert_eq!(s.request_id as u32, s.postings_walked);
                        assert_eq!(s.postings_walked, s.candidates);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
