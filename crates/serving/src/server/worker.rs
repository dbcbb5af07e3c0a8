//! Worker threads: serve dispatched requests one at a time, pushing
//! rendered responses back to the reactor that owns each connection.
//!
//! What reaches a worker is what may block a reactor: every request that is
//! not a predict (health, metrics, traces, ingest, unlearning, the node's
//! `/admin/` routes, the router's fan-out endpoints), served through the
//! endpoint responder. A local predict never gets here — the reactor that
//! read it runs it on its own [`RequestContext`](crate::RequestContext) —
//! so a worker holds no context.
//!
//! Shutdown needs no flag check here: the drain controller closes the
//! [`DispatchQueue`] once the gate reaches STOPPED, `next_work` drains the
//! backlog (every admitted request is still answered) and then returns
//! `None`, and the worker exits.

use std::sync::Arc;

use super::backend::RequestBackend;
use super::conn;
use super::dispatch::{Completion, DispatchQueue};
use super::Shared;

pub(super) fn run<B: RequestBackend>(
    queue: Arc<DispatchQueue>,
    cluster: Arc<B>,
    shared: Arc<Shared>,
) {
    while let Some(dispatch) = queue.next_work() {
        let (status, body, content_type) = cluster.respond(&dispatch.request);
        shared.gate.finish_request();
        let close = dispatch.close_hint || !shared.gate.is_running();
        dispatch.reply.push(Completion {
            token: dispatch.token,
            bytes: conn::render_response(status, &body, content_type, close, None),
            close,
        });
        if !shared.gate.is_running() {
            // The drain controller may be waiting for inflight == 0.
            shared.wakeup.notify_all();
        }
    }
}
