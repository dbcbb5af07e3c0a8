//! The request backend the event-loop server executes against.
//!
//! The reactor/worker machinery (socket readiness, admission, batching,
//! drain) is independent of *what* answers the requests. [`RequestBackend`]
//! is that seam: [`ServingCluster`] implements it for the serving tier
//! (endpoint table in [`conn`](super::conn)), and the router tier
//! ([`crate::routerd`]) implements it to proxy over remote nodes — one
//! server implementation, two roles.

use std::sync::Arc;

use serenade_core::ItemScore;

use crate::cluster::ServingCluster;
use crate::context::BatchContext;
use crate::engine::RecommendRequest;
use crate::error::ServingError;
use crate::telemetry::ClusterTelemetry;

use super::conn;
use super::parser::ParsedRequest;

/// What the event-loop server needs from the tier it fronts.
pub trait RequestBackend: Send + Sync + 'static {
    /// The observability hub the server registers its lifecycle metrics
    /// into (also the request-id source for batch members).
    fn telemetry(&self) -> &Arc<ClusterTelemetry>;

    /// The dispatch queue's batch-coalescing key: only requests with equal
    /// keys may share a coalesced predict batch, because a batch executes
    /// against exactly one shard's session state.
    fn shard_for(&self, session_id: u64) -> usize;

    /// Routes one parsed request that is not a well-formed predict to its
    /// endpoint and renders `(status, body, content type)`. Must not
    /// panic; the worker trusts endpoint routing.
    fn respond(&self, request: &ParsedRequest) -> (u16, String, &'static str);

    /// Executes one coalesced predict batch whose members all share
    /// `shard` (per [`RequestBackend::shard_for`]); one result per request
    /// in request order. This is the tier's only way to run a predict:
    /// every well-formed `POST /recommend` arrives here, alone or with
    /// batch-mates. Request ids and deadlines arrive tagged on the
    /// per-member contexts.
    fn handle_recommend_batch(
        &self,
        shard: usize,
        reqs: &[RecommendRequest],
        bctx: &mut BatchContext,
    ) -> Vec<Result<Vec<ItemScore>, ServingError>>;
}

impl RequestBackend for ServingCluster {
    fn telemetry(&self) -> &Arc<ClusterTelemetry> {
        ServingCluster::telemetry(self)
    }

    fn shard_for(&self, session_id: u64) -> usize {
        self.pod_index_for(session_id)
    }

    fn respond(&self, request: &ParsedRequest) -> (u16, String, &'static str) {
        conn::respond(request, self)
    }

    fn handle_recommend_batch(
        &self,
        shard: usize,
        reqs: &[RecommendRequest],
        bctx: &mut BatchContext,
    ) -> Vec<Result<Vec<ItemScore>, ServingError>> {
        self.handle_batch(shard, reqs, bctx)
    }
}
