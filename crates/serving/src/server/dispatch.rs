//! The dispatch queue between the reactor and the worker pool, and the
//! completion queue going back.
//!
//! The reactor admits a request and pushes a [`Dispatch`]; a worker takes
//! the next one off the queue, in arrival order, and runs it alone — a
//! predict on the worker's own context, anything else through the endpoint
//! responder.
//!
//! Both queues are hand-rolled `std::sync` Mutex+Condvar structures: the
//! workers block on an empty queue, and the loom facade has no Condvar, so
//! these live outside the model-checked surface (the lifecycle
//! gate and parked-set handshakes are what loom proves; the queues are
//! plain bounded buffers). Lock poisoning is unwinding noise, not state
//! corruption — a poisoned guard is recovered.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

use crate::engine::RecommendRequest;
use crate::sync::atomic::{AtomicUsize, Ordering};

use super::parser::ParsedRequest;

/// What a dispatched request is, parsed once on the reactor.
#[derive(Debug)]
pub(super) enum DispatchKind {
    /// A well-formed `POST /recommend`, run on the worker's context.
    Predict(RecommendRequest),
    /// Everything else (health, metrics, stats, malformed predicts):
    /// served through the endpoint responder.
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

struct Inner {
    queue: VecDeque<Dispatch>,
    closed: bool,
}

/// Bounded MPMC dispatch queue.
pub(super) struct DispatchQueue {
    inner: Mutex<Inner>,
    cond: Condvar,
    capacity: usize,
    depth: AtomicUsize,
}

impl DispatchQueue {
    pub(super) fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner { queue: VecDeque::new(), closed: false }),
            cond: Condvar::new(),
            capacity: capacity.max(1),
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

    /// Blocks for the next dispatch, in arrival order; `None` once closed
    /// and empty.
    pub(super) fn next_work(&self) -> Option<Dispatch> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(dispatch) = inner.queue.pop_front() {
                self.depth.fetch_sub(1, Ordering::SeqCst);
                return Some(dispatch);
            }
            if inner.closed {
                return None;
            }
            inner = self.cond.wait(inner).unwrap_or_else(PoisonError::into_inner);
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

    fn dispatch(token: u64, kind: DispatchKind) -> Dispatch {
        Dispatch {
            token,
            request: ParsedRequest {
                method: "POST".into(),
                path: "/recommend".into(),
                body: Vec::new(),
                close: false,
            },
            kind,
            deadline: None,
            close_hint: false,
        }
    }

    fn predict(token: u64) -> Dispatch {
        let req = RecommendRequest { session_id: token, item: 1, consent: true, filter_adult: false };
        dispatch(token, DispatchKind::Predict(req))
    }

    #[test]
    fn other_work_is_served_singly_in_order() {
        let q = DispatchQueue::new(8);
        q.push(dispatch(1, DispatchKind::Other)).unwrap();
        q.push(dispatch(2, DispatchKind::Other)).unwrap();
        assert_eq!(q.depth(), 2);
        assert_eq!(q.next_work().map(|d| d.token), Some(1));
        assert_eq!(q.next_work().map(|d| d.token), Some(2));
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn predicts_and_other_traffic_keep_arrival_order() {
        let q = DispatchQueue::new(16);
        q.push(predict(1)).unwrap();
        q.push(dispatch(2, DispatchKind::Other)).unwrap();
        q.push(predict(3)).unwrap();
        q.push(predict(4)).unwrap();
        q.close();
        let mut order = Vec::new();
        while let Some(d) = q.next_work() {
            order.push((d.token, matches!(d.kind, DispatchKind::Predict(_))));
        }
        assert_eq!(order, vec![(1, true), (2, false), (3, true), (4, true)]);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn queue_capacity_and_close_reject_pushes() {
        let q = DispatchQueue::new(1);
        q.push(dispatch(1, DispatchKind::Other)).unwrap();
        assert!(q.push(dispatch(2, DispatchKind::Other)).is_err(), "over capacity");
        q.close();
        assert!(q.next_work().is_some(), "backlog drains after close");
        assert!(q.next_work().is_none(), "closed and empty");
        assert!(q.push(dispatch(3, DispatchKind::Other)).is_err(), "closed");
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
