//! The dispatch queue between the reactors and the worker pool, and the
//! completion queue going back to each reactor.
//!
//! A reactor admits a request that may block (anything but a predict) and
//! pushes a [`Dispatch`]; a worker takes the next one off the queue, in
//! arrival order, serves it through the endpoint responder, and pushes the
//! answer onto the [`CompletionQueue`] of the reactor that owns the
//! connection, which the dispatch carries.
//!
//! Both queues are hand-rolled `std::sync` Mutex+Condvar structures: the
//! workers block on an empty queue, and the loom facade has no Condvar, so
//! these live outside the model-checked surface (the lifecycle
//! gate's handshake is what loom proves; the queues are plain bounded
//! buffers). Lock poisoning is unwinding noise, not state
//! corruption — a poisoned guard is recovered.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use crate::sync::atomic::{AtomicUsize, Ordering};

use super::parser::ParsedRequest;
use super::reactor::Waker;

/// One admitted request travelling from a reactor to a worker.
pub(super) struct Dispatch {
    /// Connection slab token the response must come back to.
    pub token: u64,
    /// The parsed frame (method/path/body).
    pub request: ParsedRequest,
    /// Close the connection after this response (the client sent
    /// `Connection: close`).
    pub close_hint: bool,
    /// The completion queue of the reactor that owns the connection.
    pub reply: Arc<CompletionQueue>,
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

/// Unbounded worker→reactor completion queue, one per reactor, with the
/// waker that kicks that reactor's poll. Unbounded is safe: its population
/// is limited by inflight admissions, which the gate bounds.
pub(super) struct CompletionQueue {
    inner: Mutex<Vec<Completion>>,
    waker: Waker,
}

impl CompletionQueue {
    pub(super) fn new(waker: Waker) -> Self {
        Self { inner: Mutex::new(Vec::new()), waker }
    }

    /// Queues one answer and wakes its reactor.
    pub(super) fn push(&self, completion: Completion) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.push(completion);
        drop(inner);
        self.waker.wake();
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
    use crate::server::reactor::Poller;

    fn completions() -> Arc<CompletionQueue> {
        Arc::new(CompletionQueue::new(Poller::new().expect("poller").waker()))
    }

    fn dispatch(token: u64, reply: &Arc<CompletionQueue>) -> Dispatch {
        Dispatch {
            token,
            request: ParsedRequest {
                method: "GET".into(),
                path: "/health".into(),
                body: Vec::new(),
                close: false,
            },
            close_hint: false,
            reply: Arc::clone(reply),
        }
    }

    #[test]
    fn other_work_is_served_singly_in_order() {
        let reply = completions();
        let q = DispatchQueue::new(8);
        assert!(q.push(dispatch(1, &reply)).is_ok());
        assert!(q.push(dispatch(2, &reply)).is_ok());
        assert_eq!(q.depth(), 2);
        assert_eq!(q.next_work().map(|d| d.token), Some(1));
        assert_eq!(q.next_work().map(|d| d.token), Some(2));
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn queue_capacity_and_close_reject_pushes() {
        let reply = completions();
        let q = DispatchQueue::new(1);
        assert!(q.push(dispatch(1, &reply)).is_ok());
        assert!(q.push(dispatch(2, &reply)).is_err(), "over capacity");
        q.close();
        assert!(q.next_work().is_some(), "backlog drains after close");
        assert!(q.next_work().is_none(), "closed and empty");
        assert!(q.push(dispatch(3, &reply)).is_err(), "closed");
    }

    #[test]
    fn completions_drain_in_push_order() {
        let c = completions();
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
