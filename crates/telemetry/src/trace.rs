//! Per-request tracing: a ring of the most recent requests, one lock a slot.
//!
//! Every request deposits a [`TraceSample`] — request id, per-stage
//! timings, session length, depersonalised flag, kernel work counters —
//! into a fixed ring of [`TraceRing`] slots, the last 64 in a served ring.
//! The `GET /debug/slow` endpoint snapshots the ring and returns the
//! samples sorted slowest-first, answering the question the aggregate
//! histograms cannot: *which* requests were slow, and in which stage.
//!
//! Each slot is a mutex over the sample it holds. A writer takes the slot
//! its ticket picks with `try_lock` and drops its trace if another writer
//! holds it (telemetry may shed load; it must never add a lock-wait to the
//! request path). The reader locks each slot for one copy.

use std::sync::PoisonError;

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Mutex;

/// Slots of the ring a server keeps ([`TraceRing::default`]): the requests
/// `GET /debug/slow` can show.
const TRACE_SLOTS: usize = 64;

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

/// Ring buffer of the most recent request traces.
pub struct TraceRing {
    /// `None` until a sample is first written there.
    slots: Box<[Mutex<Option<TraceSample>>]>,
    /// Requests offered so far; drives slot rotation.
    seq: AtomicU64,
}

impl Default for TraceRing {
    /// The ring a server keeps: 64 slots.
    fn default() -> Self {
        Self::new(TRACE_SLOTS)
    }
}

impl TraceRing {
    /// Creates an empty ring of `slots` slots (at least 1).
    pub fn new(slots: usize) -> Self {
        let slots = (0..slots.max(1)).map(|_| Mutex::new(None)).collect();
        Self { slots, seq: AtomicU64::new(0) }
    }

    /// Records a finished request's trace in the ring, over the oldest.
    /// Never waits and never allocates: the sample is dropped only when it
    /// races another writer on its slot.
    #[inline]
    pub fn record(&self, sample: &TraceSample) {
        // ORDERING: ticket counter only (partner: none); the slot's mutex
        // publishes the sample, never this counter.
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if let Ok(mut slot) = self.slots[seq as usize % self.slots.len()].try_lock() {
            *slot = Some(*sample);
        }
    }

    /// Snapshots the ring: every written sample, sorted slowest-first.
    pub fn snapshot(&self) -> Vec<TraceSample> {
        let mut out: Vec<TraceSample> = self
            .slots
            .iter()
            .filter_map(|slot| *slot.lock().unwrap_or_else(PoisonError::into_inner))
            .collect();
        out.sort_by_key(|s| std::cmp::Reverse(s.total_us));
        out
    }
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing").field("slots", &self.slots.len()).finish()
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
        let ring = TraceRing::new(8);
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
        let ring = TraceRing::new(2);
        for id in 1..=5u64 {
            ring.record(&sample(id, id * 100));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 2);
        let ids: Vec<u64> = snap.iter().map(|s| s.request_id).collect();
        assert!(ids.contains(&4) && ids.contains(&5), "{ids:?}");
    }

    #[test]
    fn concurrent_writers_and_readers_never_tear() {
        let ring = std::sync::Arc::new(TraceRing::new(4));
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
