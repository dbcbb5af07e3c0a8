//! Lifecycle gate: admission control and the drain handshake.
//!
//! One [`LifecycleGate`] is shared by every reactor, every worker and the
//! shutdown controller. It folds three concerns into two atomics:
//!
//! * **server state** — `RUNNING → DRAINING → STOPPED`, driven only by the
//!   shutdown controller ([`super::HttpServer::stop_and_join`]);
//! * **inflight accounting** — how many requests are between admission and
//!   completion, read by the drain loop and exported as a gauge;
//! * **admission** — a request is admitted only while `RUNNING`; while
//!   the server drains it is shed with `503`.
//!
//! # Why the orderings are `SeqCst` (Dekker handshake)
//!
//! Admission publishes intent *before* checking state
//! (`inflight.fetch_add` then `state.load`), and the drain loop flips state
//! *before* checking intent (`state.swap(DRAINING)` then `inflight.load`).
//! This is the classic Dekker pattern: with `SeqCst` on all four accesses
//! there is a single total order, so either the admitting thread's
//! increment is visible to the drain loop (which then waits for it), or the
//! drain loop's state flip is visible to the admitting thread (which then
//! bounces the request). Weaker orderings admit an interleaving where a
//! request is admitted *after* the drain loop observed `inflight == 0` and
//! declared the server quiesced — exactly the lost-request bug the loom
//! model in `tests/loom_models.rs` exhibits when the
//! `mutation-weak-admission` feature demotes these to `Relaxed`.
//!
//! `begin_drain` uses `swap` rather than `compare_exchange` both because it
//! is sufficient (state only ever moves forward, and only the single
//! controller thread calls `begin_drain`/`force_stop`) and because the loom
//! shim models exactly the load/store/RMW subset the serving tree uses.

use crate::sync::atomic::{AtomicUsize, Ordering};

/// Server lifecycle states, stored in [`LifecycleGate::state`].
const RUNNING: usize = 0;
/// Draining: no new requests admitted, in-flight ones run to completion.
const DRAINING: usize = 1;
/// Stopped: the grace period expired (or drain finished); workers exit.
const STOPPED: usize = 2;

/// Memory ordering for the admission/drain handshake. The
/// `mutation-weak-admission` feature deliberately weakens it so the loom
/// model can demonstrate the resulting lost-request interleaving.
#[cfg(not(feature = "mutation-weak-admission"))]
const HANDSHAKE: Ordering = Ordering::SeqCst;
// ORDERING: deliberately *wrong*, no partner — the seeded mutation drops
// the SeqCst fence pairing between `begin_drain` and `try_begin_request`
// so the loom admission model can demonstrate the lost-request
// interleaving. Compiled only under `mutation-weak-admission`.
#[cfg(feature = "mutation-weak-admission")]
const HANDSHAKE: Ordering = Ordering::Relaxed;

/// The admission decision for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Run the request; the caller owes one [`LifecycleGate::finish_request`].
    Admitted,
    /// The server is draining or stopped: shed with `503` and close.
    Draining,
}

/// Shared admission/drain state. See the module docs for the protocol.
#[derive(Debug)]
pub struct LifecycleGate {
    state: AtomicUsize,
    inflight: AtomicUsize,
}

impl LifecycleGate {
    /// A gate in the `RUNNING` state with nothing in flight.
    pub fn new() -> Self {
        Self { state: AtomicUsize::new(RUNNING), inflight: AtomicUsize::new(0) }
    }

    /// Admission check for one parsed request. On [`Admission::Admitted`]
    /// the caller must invoke [`Self::finish_request`] exactly once, on
    /// every path.
    pub fn try_begin_request(&self) -> Admission {
        // Publish intent first (Dekker; see module docs).
        self.inflight.fetch_add(1, HANDSHAKE);
        if self.state.load(HANDSHAKE) != RUNNING {
            self.inflight.fetch_sub(1, HANDSHAKE);
            return Admission::Draining;
        }
        Admission::Admitted
    }

    /// Marks an admitted request complete.
    pub fn finish_request(&self) {
        self.inflight.fetch_sub(1, HANDSHAKE);
    }

    /// Moves `RUNNING → DRAINING`. Returns whether this call performed the
    /// transition (idempotent; only the shutdown controller calls this).
    pub fn begin_drain(&self) -> bool {
        self.state.swap(DRAINING, HANDSHAKE) == RUNNING
    }

    /// Moves to `STOPPED` (drain finished or the grace period expired).
    pub fn force_stop(&self) {
        self.state.store(STOPPED, Ordering::SeqCst);
    }

    /// True while the gate admits new requests.
    pub fn is_running(&self) -> bool {
        self.state.load(Ordering::SeqCst) == RUNNING
    }

    /// True once `force_stop` has been called.
    pub fn is_stopped(&self) -> bool {
        self.state.load(Ordering::SeqCst) == STOPPED
    }

    /// Requests currently between admission and completion.
    pub fn inflight(&self) -> usize {
        self.inflight.load(HANDSHAKE)
    }
}

impl Default for LifecycleGate {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;
    use crate::sync::Arc;

    #[test]
    fn a_running_gate_admits_without_limit() {
        let gate = LifecycleGate::new();
        for _ in 0..100 {
            assert_eq!(gate.try_begin_request(), Admission::Admitted);
        }
        assert_eq!(gate.inflight(), 100);
        for _ in 0..100 {
            gate.finish_request();
        }
        assert_eq!(gate.inflight(), 0);
    }

    #[test]
    fn draining_bounces_new_requests_but_keeps_inflight() {
        let gate = LifecycleGate::new();
        assert_eq!(gate.try_begin_request(), Admission::Admitted);
        assert!(gate.begin_drain());
        assert!(!gate.begin_drain(), "second drain call must report no-op");
        assert_eq!(gate.try_begin_request(), Admission::Draining);
        assert_eq!(gate.inflight(), 1, "the admitted request survives drain");
        gate.finish_request();
        assert_eq!(gate.inflight(), 0);
        assert!(!gate.is_running() && !gate.is_stopped(), "draining");
        gate.force_stop();
        assert!(gate.is_stopped());
        assert_eq!(gate.try_begin_request(), Admission::Draining);
    }

    /// Std twin of the loom drain model: once the controller has observed
    /// the drained state, no admitted request may still be running.
    #[test]
    fn std_twin_drain_never_loses_an_admitted_request() {
        for _ in 0..200 {
            let gate = Arc::new(LifecycleGate::new());
            let done = Arc::new(crate::sync::atomic::AtomicUsize::new(0));
            let closed = Arc::new(crate::sync::atomic::AtomicUsize::new(0));
            let mut handles = Vec::new();
            for _ in 0..3 {
                let gate = Arc::clone(&gate);
                let done = Arc::clone(&done);
                let closed = Arc::clone(&closed);
                handles.push(std::thread::spawn(move || {
                    if gate.try_begin_request() == Admission::Admitted {
                        assert_eq!(
                            closed.load(Ordering::SeqCst),
                            0,
                            "request ran after drain declared the server quiesced"
                        );
                        done.fetch_add(1, Ordering::SeqCst);
                        gate.finish_request();
                    }
                }));
            }
            let controller = {
                let gate = Arc::clone(&gate);
                let closed = Arc::clone(&closed);
                std::thread::spawn(move || {
                    gate.begin_drain();
                    while gate.inflight() != 0 {
                        std::thread::yield_now();
                    }
                    closed.store(1, Ordering::SeqCst);
                    gate.force_stop();
                })
            };
            for h in handles {
                h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            }
            controller.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
        }
    }
}
