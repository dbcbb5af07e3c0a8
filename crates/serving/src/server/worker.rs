//! Worker threads: execute dispatched requests and coalesced predict
//! batches, pushing rendered responses back to the reactor.
//!
//! Each worker owns one [`BatchContext`] for its lifetime — scratch
//! buffers, session views and per-member state are reused across every
//! predict, so the steady-state request path allocates only its response.
//! What reaches a worker is what the reactor did not finish itself: predicts
//! from a turn that had company (several ready connections, a backlog, a
//! gather window — see [`reactor`](super::reactor)), coalesced, and
//! every non-predict request, which the endpoint responder serves without a
//! context. [`run_predicts`] is the one predict execution both threads use.
//!
//! Shutdown needs no flag check here: the reactor closes the
//! [`DispatchQueue`] once the gate reaches STOPPED, `next_work` drains the
//! backlog (every admitted request is still answered) and then returns
//! `None`, and the worker exits.

use std::sync::Arc;
use std::time::Instant;

use crate::context::BatchContext;
use crate::error::ServingError;
use crate::engine::RecommendRequest;

use super::backend::RequestBackend;
use super::conn::{self, CONTENT_TYPE_JSON};
use super::dispatch::{Completion, CompletionQueue, Dispatch, DispatchKind, DispatchQueue, Work};
use super::reactor::Waker;
use super::Shared;

pub(super) fn run<B: RequestBackend>(
    queue: Arc<DispatchQueue>,
    completions: Arc<CompletionQueue>,
    cluster: Arc<B>,
    shared: Arc<Shared>,
    waker: Waker,
) {
    let mut bctx = BatchContext::new();
    let mut reqs: Vec<RecommendRequest> = Vec::new();
    while let Some(work) = queue.next_work() {
        match work {
            Work::Single(dispatch) => {
                run_single(dispatch, &completions, cluster.as_ref(), &shared);
            }
            Work::Batch(batch) => {
                run_batch(batch, &completions, cluster.as_ref(), &shared, &mut bctx, &mut reqs);
            }
        }
        // One readiness kick flushes every completion this unit produced.
        waker.wake();
        if !shared.gate.is_running() {
            // The drain controller may be waiting for inflight == 0.
            shared.wakeup.notify_all();
        }
    }
}

/// Executes one non-batched dispatch through the endpoint responder.
fn run_single<B: RequestBackend>(
    dispatch: Dispatch,
    completions: &CompletionQueue,
    cluster: &B,
    shared: &Shared,
) {
    let (status, body, content_type) = cluster.respond(&dispatch.request);
    shared.gate.finish_request();
    let close = dispatch.close_hint || !shared.gate.is_running();
    completions.push(Completion {
        token: dispatch.token,
        bytes: conn::render_response(status, &body, content_type, close, None),
        close,
    });
}

/// Executes one coalesced predict batch, completing every member
/// individually.
fn run_batch<B: RequestBackend>(
    batch: Vec<Dispatch>,
    completions: &CompletionQueue,
    cluster: &B,
    shared: &Shared,
    bctx: &mut BatchContext,
    reqs: &mut Vec<RecommendRequest>,
) {
    reqs.clear();
    for dispatch in &batch {
        if let DispatchKind::Predict(req) = &dispatch.kind {
            reqs.push(*req);
        }
    }
    // The queue only coalesces predicts, so a batch holding anything else
    // is an invariant violation: answer every member with a typed `500`
    // rather than guess at request/result alignment.
    if reqs.len() != batch.len() {
        let (status, body) =
            conn::render_error(&ServingError::Internal("non-predict dispatch in a predict batch"));
        for dispatch in &batch {
            complete(dispatch, status, body.clone(), completions, shared);
        }
        return;
    }
    shared.metrics.record_batch_size(batch.len());
    let deadlines = batch.iter().map(|dispatch| dispatch.deadline);
    run_predicts(cluster, reqs, deadlines, bctx, |i, status, body| {
        if let Some(dispatch) = batch.get(i) {
            complete(dispatch, status, body, completions, shared);
        }
    });
}

/// Runs local predicts through the backend's batch entry and hands
/// `answer` one `(index, status, body)` per request. Members get a request
/// id and their deadline first; a panic anywhere in the call maps to a
/// typed `500` for every member (the unwind barrier is batch-wide).
pub(super) fn run_predicts<B: RequestBackend>(
    cluster: &B,
    reqs: &[RecommendRequest],
    deadlines: impl Iterator<Item = Option<Instant>>,
    bctx: &mut BatchContext,
    mut answer: impl FnMut(usize, u16, String),
) {
    for (i, deadline) in deadlines.enumerate() {
        let member = bctx.member_mut(i);
        member.set_request_id(cluster.telemetry().next_request_id());
        member.set_deadline(deadline);
    }
    match conn::unwind_barrier(|| Ok(cluster.handle_recommend_batch(reqs, bctx))) {
        Ok(results) => {
            for (i, result) in results.into_iter().enumerate() {
                let (status, body) = match result {
                    Ok(recs) => (200, conn::render_recommendations(&recs)),
                    Err(e) => conn::render_error(&e),
                };
                answer(i, status, body);
            }
        }
        Err(e) => {
            let (status, body) = conn::render_error(&e);
            for i in 0..reqs.len() {
                answer(i, status, body.clone());
            }
        }
    }
}

/// Finishes one batch member: releases its admission slot and queues the
/// rendered completion.
fn complete(
    dispatch: &Dispatch,
    status: u16,
    body: String,
    completions: &CompletionQueue,
    shared: &Shared,
) {
    shared.gate.finish_request();
    let close = dispatch.close_hint || !shared.gate.is_running();
    completions.push(Completion {
        token: dispatch.token,
        bytes: conn::render_response(status, &body, CONTENT_TYPE_JSON, close, None),
        close,
    });
}
