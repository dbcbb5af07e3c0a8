//! The dispatch queue between the reactor and the worker pool, with
//! predict coalescing, and the completion queue going back.
//!
//! The reactor admits a request and pushes a [`Dispatch`]; a worker takes
//! [`Work`] off the queue. Predict dispatches coalesce into one
//! [`Work::Batch`] so the engine can score them through the batch VMIS-kNN
//! kernel: the worker takes whatever predicts are already
//! queued and then — only when `max_batch_delay` is nonzero — waits out a
//! bounded gather window for more. The window is the *fairness guard*:
//! it ends at `min(now + max_batch_delay, earliest member deadline)`, so
//! coalescing can never hold a request past the point where its deadline
//! budget would force degradation; a member that is late anyway degrades to
//! depersonalised in the engine (counted by
//! `serenade_deadline_degraded_total`) exactly as on the sequential path.
//!
//! Both queues are hand-rolled `std::sync` Mutex+Condvar structures: they
//! need a timed receive, and the loom facade has no Condvar, so these live
//! outside the model-checked surface (the lifecycle
//! gate and parked-set handshakes are what loom proves; the queues are
//! plain bounded buffers). Lock poisoning is unwinding noise, not state
//! corruption — a poisoned guard is recovered.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::engine::RecommendRequest;
use crate::sync::atomic::{AtomicUsize, Ordering};

use super::parser::ParsedRequest;

/// What a dispatched request is, for coalescing purposes.
#[derive(Debug)]
pub(super) enum DispatchKind {
    /// A well-formed `POST /recommend`; eligible to batch with any other
    /// queued predict.
    Predict(RecommendRequest),
    /// Everything else (health, metrics, stats, malformed predicts):
    /// executed one at a time through the regular responder.
    Other,
}

/// One admitted request travelling from the reactor to a worker.
#[derive(Debug)]
pub(super) struct Dispatch {
    /// Connection slab token the response must come back to.
    pub token: u64,
    /// The parsed frame (method/path/body), for non-predict execution.
    pub request: ParsedRequest,
    pub kind: DispatchKind,
    /// Absolute deadline budget (frame first byte + `request_deadline`).
    pub deadline: Option<Instant>,
    /// Close the connection after this response (client `Connection:
    /// close` or the keep-alive request cap).
    pub close_hint: bool,
}

/// What a worker picks up: a single request, or a coalesced batch of
/// predicts (in arrival order, length ≥ 1).
pub(super) enum Work {
    Single(Dispatch),
    Batch(Vec<Dispatch>),
}

struct Inner {
    queue: VecDeque<Dispatch>,
    closed: bool,
}

/// Bounded MPMC dispatch queue with predict coalescing.
pub(super) struct DispatchQueue {
    inner: Mutex<Inner>,
    cond: Condvar,
    capacity: usize,
    max_batch_size: usize,
    max_batch_delay: Duration,
    depth: AtomicUsize,
}

impl DispatchQueue {
    pub(super) fn new(capacity: usize, max_batch_size: usize, max_batch_delay: Duration) -> Self {
        Self {
            inner: Mutex::new(Inner { queue: VecDeque::new(), closed: false }),
            cond: Condvar::new(),
            capacity: capacity.max(1),
            max_batch_size: max_batch_size.max(1),
            max_batch_delay,
            depth: AtomicUsize::new(0),
        }
    }

    /// Queued dispatches not yet taken by a worker (the
    /// `serenade_http_queue_depth` gauge).
    pub(super) fn depth(&self) -> usize {
        self.depth.load(Ordering::SeqCst)
    }

    /// Enqueues one dispatch; `Err` returns it when the queue is at
    /// capacity or closed (the caller sheds with `503`).
    pub(super) fn push(&self, dispatch: Dispatch) -> Result<(), Dispatch> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.closed || inner.queue.len() >= self.capacity {
            return Err(dispatch);
        }
        inner.queue.push_back(dispatch);
        self.depth.fetch_add(1, Ordering::SeqCst);
        drop(inner);
        self.cond.notify_one();
        Ok(())
    }

    /// Closes the queue: pushes fail, waiting workers wake, and
    /// [`DispatchQueue::next_work`] drains the backlog then returns `None`.
    pub(super) fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.closed = true;
        drop(inner);
        self.cond.notify_all();
    }

    /// Blocks for the next unit of work; `None` once closed and empty.
    ///
    /// A predict at the queue head starts a batch: every already-queued
    /// predict joins immediately (preserving arrival order for
    /// other traffic), then, if the batch is still short and
    /// `max_batch_delay` is nonzero, the worker waits out the fairness
    /// window for stragglers.
    pub(super) fn next_work(&self) -> Option<Work> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(first) = inner.queue.pop_front() {
                self.depth.fetch_sub(1, Ordering::SeqCst);
                if let DispatchKind::Other = first.kind {
                    return Some(Work::Single(first));
                }
                let mut batch = vec![first];
                self.gather(&mut inner, &mut batch);
                if batch.len() < self.max_batch_size && self.max_batch_delay > Duration::ZERO {
                    let mut window_end = Instant::now() + self.max_batch_delay;
                    for member in &batch {
                        if let Some(deadline) = member.deadline {
                            window_end = window_end.min(deadline);
                        }
                    }
                    while batch.len() < self.max_batch_size && !inner.closed {
                        let now = Instant::now();
                        let Some(remaining) = window_end.checked_duration_since(now) else {
                            break;
                        };
                        if remaining == Duration::ZERO {
                            break;
                        }
                        let (guard, timed_out) = self
                            .cond
                            .wait_timeout(inner, remaining)
                            .unwrap_or_else(PoisonError::into_inner);
                        inner = guard;
                        let before = batch.len();
                        self.gather(&mut inner, &mut batch);
                        for member in &batch[before..] {
                            if let Some(deadline) = member.deadline {
                                window_end = window_end.min(deadline);
                            }
                        }
                        if timed_out.timed_out() && batch.len() == before {
                            break;
                        }
                    }
                }
                drop(inner);
                // Wake another worker for any remaining queue content.
                self.cond.notify_one();
                return Some(Work::Batch(batch));
            }
            if inner.closed {
                return None;
            }
            inner = self.cond.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Moves every queued predict into `batch` (bounded by
    /// `max_batch_size`), leaving other traffic in place and in order.
    fn gather(&self, inner: &mut Inner, batch: &mut Vec<Dispatch>) {
        let mut i = 0;
        while i < inner.queue.len() && batch.len() < self.max_batch_size {
            if let DispatchKind::Predict(_) = inner.queue[i].kind {
                if let Some(member) = inner.queue.remove(i) {
                    self.depth.fetch_sub(1, Ordering::SeqCst);
                    batch.push(member);
                }
            } else {
                i += 1;
            }
        }
    }
}

/// One finished response travelling from a worker back to the reactor.
#[derive(Debug)]
pub(super) struct Completion {
    pub token: u64,
    /// The fully rendered response frame.
    pub bytes: Vec<u8>,
    /// Close after writing (mirrors the dispatch `close_hint`, or drain).
    pub close: bool,
}

/// Unbounded worker→reactor completion queue. Unbounded is safe: its
/// population is limited by inflight admissions, which the gate bounds.
#[derive(Default)]
pub(super) struct CompletionQueue {
    inner: Mutex<Vec<Completion>>,
}

impl CompletionQueue {
    pub(super) fn new() -> Self {
        Self::default()
    }

    pub(super) fn push(&self, completion: Completion) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.push(completion);
    }

    /// Moves every pending completion into `out` (which is cleared first).
    pub(super) fn drain_into(&self, out: &mut Vec<Completion>) {
        out.clear();
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        std::mem::swap(&mut *inner, out);
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;

    fn dispatch(token: u64, kind: DispatchKind, deadline: Option<Instant>) -> Dispatch {
        Dispatch {
            token,
            request: ParsedRequest {
                method: "POST".into(),
                path: "/recommend".into(),
                body: String::new(),
                close: false,
            },
            kind,
            deadline,
            close_hint: false,
        }
    }

    fn predict(token: u64) -> Dispatch {
        let req = RecommendRequest { session_id: token, item: 1, consent: true, filter_adult: false };
        dispatch(token, DispatchKind::Predict(req), None)
    }

    #[test]
    fn other_work_is_served_singly_in_order() {
        let q = DispatchQueue::new(8, 16, Duration::ZERO);
        q.push(dispatch(1, DispatchKind::Other, None)).unwrap();
        q.push(dispatch(2, DispatchKind::Other, None)).unwrap();
        assert_eq!(q.depth(), 2);
        match q.next_work() {
            Some(Work::Single(d)) => assert_eq!(d.token, 1),
            _ => panic!("expected single"),
        }
        match q.next_work() {
            Some(Work::Single(d)) => assert_eq!(d.token, 2),
            _ => panic!("expected single"),
        }
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn same_pod_predicts_coalesce_and_other_traffic_keeps_its_order() {
        let q = DispatchQueue::new(16, 16, Duration::ZERO);
        q.push(predict(1)).unwrap();
        q.push(dispatch(2, DispatchKind::Other, None)).unwrap();
        q.push(predict(3)).unwrap();
        q.push(dispatch(4, DispatchKind::Other, None)).unwrap();
        q.push(predict(5)).unwrap();
        match q.next_work() {
            Some(Work::Batch(batch)) => {
                let tokens: Vec<u64> = batch.iter().map(|d| d.token).collect();
                assert_eq!(tokens, vec![1, 3, 5], "every predict coalesces in arrival order");
            }
            _ => panic!("expected batch"),
        }
        for token in [2, 4] {
            match q.next_work() {
                Some(Work::Single(d)) => assert_eq!(d.token, token, "other traffic kept its order"),
                _ => panic!("expected single"),
            }
        }
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn max_batch_size_caps_a_gather() {
        let q = DispatchQueue::new(16, 2, Duration::ZERO);
        for t in 0..5 {
            q.push(predict(t)).unwrap();
        }
        match q.next_work() {
            Some(Work::Batch(batch)) => assert_eq!(batch.len(), 2),
            _ => panic!("expected batch"),
        }
        match q.next_work() {
            Some(Work::Batch(batch)) => assert_eq!(batch.len(), 2),
            _ => panic!("expected batch"),
        }
        match q.next_work() {
            Some(Work::Batch(batch)) => assert_eq!(batch.len(), 1),
            _ => panic!("expected batch"),
        }
    }

    #[test]
    fn gather_window_never_waits_past_a_member_deadline() {
        let q = DispatchQueue::new(16, 16, Duration::from_secs(30));
        let deadline = Instant::now() + Duration::from_millis(30);
        let req = RecommendRequest { session_id: 9, item: 1, consent: true, filter_adult: false };
        q.push(dispatch(9, DispatchKind::Predict(req), Some(deadline))).unwrap();
        let started = Instant::now();
        match q.next_work() {
            Some(Work::Batch(batch)) => assert_eq!(batch.len(), 1),
            _ => panic!("expected batch"),
        }
        let waited = started.elapsed();
        assert!(
            waited < Duration::from_secs(5),
            "fairness guard must clamp the 30s window to the member deadline; waited {waited:?}"
        );
    }

    #[test]
    fn gather_window_collects_stragglers() {
        let q = std::sync::Arc::new(DispatchQueue::new(16, 16, Duration::from_secs(10)));
        q.push(predict(1)).unwrap();
        let producer = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                q.push(predict(2)).unwrap();
                std::thread::sleep(Duration::from_millis(20));
                q.close();
            })
        };
        match q.next_work() {
            Some(Work::Batch(batch)) => {
                let tokens: Vec<u64> = batch.iter().map(|d| d.token).collect();
                assert!(tokens.contains(&2), "straggler joined the gather window: {tokens:?}");
            }
            _ => panic!("expected batch"),
        }
        producer.join().unwrap();
    }

    #[test]
    fn queue_capacity_and_close_reject_pushes() {
        let q = DispatchQueue::new(1, 16, Duration::ZERO);
        q.push(dispatch(1, DispatchKind::Other, None)).unwrap();
        assert!(q.push(dispatch(2, DispatchKind::Other, None)).is_err(), "over capacity");
        q.close();
        assert!(matches!(q.next_work(), Some(Work::Single(_))), "backlog drains after close");
        assert!(q.next_work().is_none(), "closed and empty");
        assert!(q.push(dispatch(3, DispatchKind::Other, None)).is_err(), "closed");
    }

    #[test]
    fn completions_drain_in_push_order() {
        let c = CompletionQueue::new();
        c.push(Completion { token: 1, bytes: vec![b'a'], close: false });
        c.push(Completion { token: 2, bytes: vec![b'b'], close: true });
        let mut out = vec![Completion { token: 0, bytes: vec![], close: false }];
        c.drain_into(&mut out);
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].token, out[1].token), (1, 2));
        let mut again = Vec::new();
        c.drain_into(&mut again);
        assert!(again.is_empty());
    }
}
