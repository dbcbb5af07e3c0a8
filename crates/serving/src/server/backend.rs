//! The request backend the event-loop server executes against.
//!
//! The reactor/worker machinery (socket readiness, admission, dispatch,
//! forwarding, drain) is independent of *what* answers the requests.
//! [`RequestBackend`] is that seam: [`crate::ServingCluster`] implements it
//! in [`crate::node`] for the serving tier (endpoint table and `/admin/`
//! routes on the workers, predicts on the reactors), and the router tier
//! ([`crate::routerd`]) implements it to send predicts to remote nodes —
//! one server implementation, two roles.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use serenade_core::ItemScore;

use crate::context::RequestContext;
use crate::engine::RecommendRequest;
use crate::error::ServingError;
use crate::telemetry::ClusterTelemetry;

use super::parser::ParsedRequest;

/// Where a tier runs one well-formed predict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictRoute {
    /// In this process, against its own session state.
    Local,
    /// In another process: the reactor forwards the request there and
    /// relays the answer.
    Forward(ForwardTarget),
    /// Nowhere — no candidate is left. The answer is an empty `200`.
    Unroutable,
}

/// One forwarding attempt, as the tier's routing policy chose it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForwardTarget {
    /// Data-plane address of the node to send to.
    pub addr: SocketAddr,
    /// The session's owner (and its state) is gone: send `consent=false`
    /// instead of the client's body.
    pub depersonalised: bool,
    /// How many targets this request failed on before this one.
    pub attempt: usize,
}

/// What the event-loop server needs from the tier it fronts.
pub trait RequestBackend: Send + Sync + 'static {
    /// Largest body a request under `/admin/` may declare; `0` leaves those
    /// paths at the server's `max_body_bytes` like every other.
    const ADMIN_BODY_BYTES: usize = 0;

    /// The observability hub the server registers its lifecycle metrics
    /// into (also the request-id source for predicts).
    fn telemetry(&self) -> &Arc<ClusterTelemetry>;

    /// Routes one parsed request that is not a predict to its endpoint and
    /// renders `(status, body, content type)`. Runs on a worker, so it may
    /// block. Must not panic; the worker trusts endpoint routing.
    fn respond(&self, request: &ParsedRequest) -> (u16, Vec<u8>, &'static str);

    /// Says where this tier runs `req`: in this process, on another node,
    /// or nowhere. Called on the reactor
    /// thread for every well-formed `POST /recommend`: it must not block.
    fn route_predict(&self, req: &RecommendRequest) -> PredictRoute;

    /// Executes one local predict (per [`PredictRoute::Local`]). This is a
    /// tier's only way to run a predict locally, always on the reactor that
    /// read the request, on that reactor's context. The request id and
    /// deadline arrive tagged on `ctx`. A tier that only forwards never
    /// gets here.
    fn handle_recommend(
        &self,
        _req: RecommendRequest,
        _ctx: &mut RequestContext,
    ) -> Result<Vec<ItemScore>, ServingError> {
        Err(ServingError::Internal("this tier runs no predict locally"))
    }

    /// The tier's failover policy: the forward to `failed` produced no
    /// `200` (I/O error, EOF, another status, missed deadline). Says where
    /// `req` goes next — `None` when no candidate is left, which the client
    /// sees as an empty `200`. Called on the reactor thread: it must not
    /// block.
    fn forward_failed(&self, _req: &RecommendRequest, _failed: ForwardTarget) -> Option<ForwardTarget> {
        None
    }

    /// One forward answered `200`, `elapsed` after its request was written.
    fn record_forward(&self, _elapsed: Duration) {}
}
