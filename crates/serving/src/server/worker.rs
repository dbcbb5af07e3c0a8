//! Worker threads: execute dispatched requests one at a time, pushing
//! rendered responses back to the reactor.
//!
//! Each worker owns one [`RequestContext`] for its lifetime — scratch
//! buffers and the session view are reused across every predict, so the
//! steady-state request path allocates only its response. What reaches a
//! worker is what the reactor did not finish itself: predicts from a turn
//! that had company (several ready connections, a backlog — see
//! [`reactor`](super::reactor)), and every non-predict request, which the
//! endpoint responder serves without a context. [`run_predict`] is the one
//! predict execution both threads use.
//!
//! Shutdown needs no flag check here: the reactor closes the
//! [`DispatchQueue`] once the gate reaches STOPPED, `next_work` drains the
//! backlog (every admitted request is still answered) and then returns
//! `None`, and the worker exits.

use std::sync::Arc;
use std::time::Instant;

use crate::context::RequestContext;
use crate::engine::RecommendRequest;

use super::backend::RequestBackend;
use super::conn::{self, CONTENT_TYPE_JSON};
use super::dispatch::{Completion, CompletionQueue, DispatchKind, DispatchQueue};
use super::reactor::Waker;
use super::Shared;

pub(super) fn run<B: RequestBackend>(
    queue: Arc<DispatchQueue>,
    completions: Arc<CompletionQueue>,
    cluster: Arc<B>,
    shared: Arc<Shared>,
    waker: Waker,
) {
    let mut ctx = RequestContext::new();
    while let Some(dispatch) = queue.next_work() {
        let (status, body, content_type) = match dispatch.kind {
            DispatchKind::Predict(req) => {
                let (status, body) =
                    run_predict(cluster.as_ref(), req, dispatch.deadline, &mut ctx);
                (status, body.into_bytes(), CONTENT_TYPE_JSON)
            }
            DispatchKind::Other => cluster.respond(&dispatch.request),
        };
        shared.gate.finish_request();
        let close = dispatch.close_hint || !shared.gate.is_running();
        completions.push(Completion {
            token: dispatch.token,
            bytes: conn::render_response(status, &body, content_type, close, None),
            close,
        });
        waker.wake();
        if !shared.gate.is_running() {
            // The drain controller may be waiting for inflight == 0.
            shared.wakeup.notify_all();
        }
    }
}

/// Runs one local predict through the backend on `ctx` and renders its
/// `(status, body)`. The request gets an id and its deadline first; a panic
/// anywhere in the call maps to a typed `500` (the unwind barrier).
pub(super) fn run_predict<B: RequestBackend>(
    cluster: &B,
    req: RecommendRequest,
    deadline: Option<Instant>,
    ctx: &mut RequestContext,
) -> (u16, String) {
    ctx.set_request_id(cluster.telemetry().next_request_id());
    ctx.set_deadline(deadline);
    match conn::unwind_barrier(|| cluster.handle_recommend(req, ctx)) {
        Ok(recs) => (200, conn::render_recommendations(&recs)),
        Err(e) => conn::render_error(&e),
    }
}
