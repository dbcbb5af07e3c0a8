//! The router tier: a reactor-based HTTP front end over live serving nodes.
//!
//! In the paper's deployment the session-affine routing in front of the
//! serving machines is Kubernetes ingress; here it is a first-class role.
//! A [`RouterDaemon`] is the same event-loop [`HttpServer`]
//! as the serving tier, executing against a [`RouterCore`] backend instead
//! of a [`ServingCluster`](crate::ServingCluster):
//!
//! * **routing** — sessions map to nodes by rendezvous hashing over the
//!   full membership (see [`crate::router`]), so joins and leaves remap
//!   only the minimal session fraction;
//! * **forwarding** — the router runs no predict. Its reactor writes each
//!   `POST /recommend` to the owning node on a non-blocking upstream
//!   connection and relays the node's answer undecoded (see
//!   [`crate::server`]); [`RouterCore`] only says where a request goes
//!   ([`RequestBackend::route_predict`]) and where it goes next when that
//!   failed ([`RequestBackend::forward_failed`]);
//! * **failover** — a node that fails a health probe, errors or stalls
//!   mid-request is marked dead; its in-flight and subsequent requests are
//!   served *depersonalised* on a surviving node (HTTP 200, counted in
//!   `serenade_router_failover_total`) — the client never sees a 5xx for a
//!   node loss, mirroring the engine's own deadline-degrade contract;
//! * **artifact distribution** — `POST /cluster/publish` validates a
//!   `binfmt` index artifact locally, then `PUT`s it to every live node's
//!   `/admin/index`; nodes that join later receive the last published
//!   artifact automatically;
//! * **ownership handoff** — joins and leaves trigger a bounded session
//!   export → import → forget sweep over the nodes' `/admin/sessions/`
//!   routes, so moved sessions keep their evolving state instead of
//!   restarting cold.
//!
//! Everything but a forwarded predict — the probe, publishes, handoff, the
//! `/ingest` proxy and the unlearning broadcast — reaches a member through
//! its one pooled [`RemotePod`], on the member's third address (a real
//! node's data address: a node has one socket). The router never forwards
//! a client's `/admin/` request; it answers `404`.
//!
//! # Membership snapshots
//!
//! The reactor thread routes every predict (and every failover) itself, so
//! membership reads must never block. Membership lives in an
//! [`IndexHandle<Membership>`]: admin operations build a new snapshot and
//! publish it atomically; request paths [`IndexHandle::load`] it lock-free.
//! Per-node liveness is an `AtomicBool` inside the (shared) node entry, so
//! marking a node dead needs no new snapshot.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use serenade_core::Click;
use serenade_index::binfmt;
use serenade_telemetry::registry::Counter;
use serenade_telemetry::{Histogram, HistogramConfig, TraceConfig};

use crate::engine::RecommendRequest;
use crate::handle::IndexHandle;
use crate::json::{self, JsonValue};
use crate::node::{decode_sessions, encode_session_ids, encode_sessions, OCTET_STREAM};
use crate::router::StickyRouter;
use crate::server::conn;
use crate::server::parser::ParsedRequest;
use crate::server::{ForwardTarget, HttpServer, HttpServerConfig, PredictRoute, RequestBackend};
use crate::telemetry::ClusterTelemetry;
use crate::transport::RemotePod;

/// Router-tier configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Data-plane server configuration (bind address, workers, limits).
    pub server: HttpServerConfig,
    /// Interval between health probes of each member.
    pub probe_interval: Duration,
    /// Dial + I/O timeout for every call to a node outside the predict
    /// path: the health probe (one exceeding it marks the node dead),
    /// publishes, handoff, the `/ingest` proxy and the unlearning broadcast.
    pub probe_timeout: Duration,
    /// Most sessions exported from any one node during a handoff sweep.
    /// Bounds the membership-change stall; sessions beyond the cap restart
    /// cold on their new owner (the same contract a TTL expiry imposes).
    pub handoff_cap: u32,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            server: HttpServerConfig::default(),
            probe_interval: Duration::from_millis(200),
            probe_timeout: Duration::from_millis(500),
            handoff_cap: 100_000,
        }
    }
}

/// One member of the routing table.
pub struct NodeEntry {
    /// Member id in the rendezvous key space.
    pub id: u64,
    /// Where predicts are forwarded.
    pub data_addr: SocketAddr,
    /// The blocking client for everything else (the probe, publishes,
    /// handoff, the fan-out endpoints).
    transport: RemotePod,
    alive: AtomicBool,
}

impl NodeEntry {
    /// Whether the last contact with the node succeeded.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }
}

/// One immutable membership snapshot: the node list plus the rendezvous
/// router over their ids (slot `i` routes to `nodes[i]`).
pub struct Membership {
    nodes: Vec<Arc<NodeEntry>>,
    /// `None` only while the routing table is empty.
    router: Option<StickyRouter>,
}

impl Membership {
    fn new(nodes: Vec<Arc<NodeEntry>>) -> Self {
        let ids: Vec<u64> = nodes.iter().map(|n| n.id).collect();
        let router = (!ids.is_empty()).then(|| StickyRouter::with_members(&ids));
        Self { nodes, router }
    }

    /// The member entries, in slot order.
    pub fn nodes(&self) -> &[Arc<NodeEntry>] {
        &self.nodes
    }

    fn route(&self, session_id: u64) -> Option<usize> {
        self.router.as_ref().map(|r| r.route(session_id))
    }

    fn route_member(&self, session_id: u64) -> Option<u64> {
        self.route(session_id).map(|slot| self.nodes[slot].id)
    }

    fn route_filtered(&self, session_id: u64, eligible: impl Fn(usize) -> bool) -> Option<usize> {
        self.router.as_ref()?.route_filtered(session_id, eligible)
    }
}

/// The router backend: membership, failover policy and the admin plane.
/// Implements [`RequestBackend`], so the event-loop server fronts it
/// exactly as it fronts a serving cluster.
pub struct RouterCore {
    membership: IndexHandle<Membership>,
    telemetry: Arc<ClusterTelemetry>,
    /// Serialises admin operations (join/leave/publish); request paths
    /// never take it.
    admin: Mutex<()>,
    /// The last successfully published index artifact, replayed to nodes
    /// that join after the publish.
    last_artifact: Mutex<Option<Arc<Vec<u8>>>>,
    failover_total: Arc<Counter>,
    /// Request written → response complete, per forward that answered `200`.
    upstream_seconds: Arc<Histogram>,
    probe_timeout: Duration,
    handoff_cap: u32,
}

impl RouterCore {
    /// Creates a router over an initial (possibly empty) member list of
    /// `(id, predict address, address for everything else)`.
    pub fn new(
        members: &[(u64, SocketAddr, SocketAddr)],
        trace: TraceConfig,
        probe_timeout: Duration,
        handoff_cap: u32,
    ) -> Arc<Self> {
        let telemetry = Arc::new(ClusterTelemetry::new(trace));
        let failover_total = telemetry.registry().counter(
            "serenade_router_failover_total",
            "Requests served depersonalised on a surviving node because \
             their owner was unreachable.",
            &[],
        );
        let upstream_seconds = telemetry.registry().histogram(
            "serenade_router_upstream_seconds",
            "Time from a forwarded request being written to its node's \
             complete 200 response.",
            &[],
            HistogramConfig::default(),
        );
        let core = Arc::new(Self {
            membership: IndexHandle::new(crate::sync::Arc::new(Membership::new(Vec::new()))),
            telemetry,
            admin: Mutex::new(()),
            last_artifact: Mutex::new(None),
            failover_total,
            upstream_seconds,
            probe_timeout,
            handoff_cap,
        });
        let nodes =
            members.iter().map(|&(id, data, other)| core.node_entry(id, data, other)).collect();
        core.membership.store(crate::sync::Arc::new(Membership::new(nodes)));
        let gauge = Arc::clone(&core);
        core.telemetry.registry().polled_gauge(
            "serenade_router_live_nodes",
            "Members currently passing health probes.",
            &[],
            move || gauge.membership.load().nodes.iter().filter(|n| n.is_alive()).count() as u64,
        );
        let gauge = Arc::clone(&core);
        core.telemetry.registry().polled_gauge(
            "serenade_router_members",
            "Members currently in the routing table, dead or alive.",
            &[],
            move || gauge.membership.load().nodes.len() as u64,
        );
        core
    }

    fn node_entry(&self, id: u64, data_addr: SocketAddr, other: SocketAddr) -> Arc<NodeEntry> {
        Arc::new(NodeEntry {
            id,
            data_addr,
            transport: RemotePod::new(other, self.probe_timeout),
            alive: AtomicBool::new(true),
        })
    }

    /// The current membership snapshot.
    pub fn membership(&self) -> crate::sync::Arc<Membership> {
        self.membership.load()
    }

    /// Requests failed over to a surviving node so far.
    pub fn failover_total(&self) -> u64 {
        self.failover_total.get()
    }

    /// Health-probes every member once with `GET /health`: any complete
    /// response within the probe timeout marks the node alive (recovering
    /// it after a crash or restart) — a `503` shed proves its server is up —
    /// and only an I/O error or a timeout marks it dead.
    pub fn probe_members(&self) {
        let membership = self.membership.load();
        for node in &membership.nodes {
            let alive = node.transport.call("GET", "/health", None).is_ok();
            node.alive.store(alive, Ordering::SeqCst);
        }
    }

    /// Adds a member and hands over the sessions it now owns. Sessions are
    /// exported (bounded by the handoff cap) from existing live nodes,
    /// imported here when the new router maps them to the joiner, then
    /// forgotten at the source. If an artifact was published earlier, the
    /// joiner receives it before taking traffic.
    pub fn join(&self, id: u64, data_addr: SocketAddr) -> Result<(), String> {
        let _admin = self.admin.lock();
        let old = self.membership.load();
        if old.nodes.iter().any(|n| n.id == id) {
            return Err(format!("member {id} is already in the routing table"));
        }
        let joiner = self.node_entry(id, data_addr, data_addr);
        // Seed the joiner with the current artifact so it serves the same
        // generation as everyone else from its first request.
        let artifact = self.last_artifact.lock().clone();
        if let Some(artifact) = artifact {
            push_artifact(&joiner.transport, &artifact)
                .map_err(|e| format!("artifact push failed: {e}"))?
                .map_err(|reason| format!("joiner rejected the artifact: {reason}"))?;
        }
        let mut nodes = old.nodes.clone();
        nodes.push(joiner);
        let new = Membership::new(nodes);
        self.remap_sessions(&old, &new);
        self.membership.store(crate::sync::Arc::new(new));
        Ok(())
    }

    /// Removes a member, handing its sessions to their new owners first
    /// (bounded by the handoff cap; best-effort if the leaver is already
    /// unreachable).
    pub fn leave(&self, id: u64) -> Result<(), String> {
        let _admin = self.admin.lock();
        let old = self.membership.load();
        if !old.nodes.iter().any(|n| n.id == id) {
            return Err(format!("member {id} is not in the routing table"));
        }
        let nodes = old.nodes.iter().filter(|n| n.id != id).cloned().collect();
        let new = Membership::new(nodes);
        self.remap_sessions(&old, &new);
        self.membership.store(crate::sync::Arc::new(new));
        Ok(())
    }

    /// Validates an index artifact and publishes it to every live member.
    /// Returns `(published ids, failures)`; the artifact is retained for
    /// future joiners only if at least one node accepted it.
    pub fn publish_artifact(&self, artifact: Vec<u8>) -> Result<(Vec<u64>, Vec<(u64, String)>), String> {
        // Validate locally first: a corrupt artifact is rejected at the
        // router without bothering any node.
        binfmt::read_index(artifact.as_slice())
            .map_err(|e| format!("artifact rejected: {e}"))?;
        let _admin = self.admin.lock();
        let artifact = Arc::new(artifact);
        let membership = self.membership.load();
        let mut published = Vec::new();
        let mut failed = Vec::new();
        for node in &membership.nodes {
            if !node.is_alive() {
                failed.push((node.id, String::from("node is dead")));
                continue;
            }
            match push_artifact(&node.transport, &artifact) {
                Ok(Ok(())) => published.push(node.id),
                Ok(Err(reason)) => failed.push((node.id, reason)),
                Err(e) => {
                    node.alive.store(false, Ordering::SeqCst);
                    failed.push((node.id, format!("node unreachable: {e}")));
                }
            }
        }
        if !published.is_empty() {
            *self.last_artifact.lock() = Some(artifact);
        }
        Ok((published, failed))
    }

    /// Moves every exported session whose owner changes between `old` and
    /// `new` onto its new owner. Best-effort per node: an unreachable
    /// source just contributes no exports (its sessions restart cold, the
    /// same outcome as its crash).
    fn remap_sessions(&self, old: &Membership, new: &Membership) {
        for (slot, source) in old.nodes.iter().enumerate() {
            if !source.is_alive() {
                continue;
            }
            let cap = format!("{{\"cap\":{}}}", self.handoff_cap);
            let export = Some((conn::CONTENT_TYPE_JSON, cap.as_bytes()));
            let Ok((200, body)) = source.transport.call("POST", "/admin/sessions/export", export)
            else {
                continue;
            };
            let Ok(exported) = decode_sessions(&body) else { continue };
            // A session moves only if rendezvous now names a different
            // member id than the slot currently holding it.
            let mut moves: Vec<(u64, Vec<(u64, Vec<u64>)>)> = Vec::new();
            let mut moved_ids = Vec::new();
            for (sid, items) in exported {
                let Some(new_owner) = new.route_member(sid) else { continue };
                if new_owner == old.nodes[slot].id {
                    continue;
                }
                moved_ids.push(sid);
                match moves.iter_mut().find(|(id, _)| *id == new_owner) {
                    Some((_, batch)) => batch.push((sid, items)),
                    None => moves.push((new_owner, vec![(sid, items)])),
                }
            }
            for (owner_id, batch) in &moves {
                let Some(target) = new.nodes.iter().find(|n| n.id == *owner_id) else {
                    continue;
                };
                let encoded = encode_sessions(batch);
                let import = Some((OCTET_STREAM, encoded.as_slice()));
                let imported = target.transport.call("POST", "/admin/sessions/import", import);
                if !matches!(imported, Ok((200, _))) {
                    // The target is unreachable: leave the sessions on the
                    // source (they will be re-exported by a later change)
                    // rather than forgetting state nobody holds.
                    moved_ids.retain(|sid| !batch.iter().any(|(s, _)| s == sid));
                }
            }
            if !moved_ids.is_empty() {
                let ids = encode_session_ids(&moved_ids);
                let forget = Some((OCTET_STREAM, ids.as_slice()));
                let _ = source.transport.call("POST", "/admin/sessions/forget", forget);
            }
        }
    }

    /// The failover policy's one decision: after `attempt` targets failed
    /// (or the owner was already dead), the request goes depersonalised —
    /// the owner and the session state it held are gone, exactly like the
    /// engine's own deadline degrade — to the best live rendezvous
    /// candidate, or nowhere. The bound on attempts holds even if the
    /// prober revives nodes as fast as requests mark them dead.
    fn next_candidate(
        &self,
        membership: &Membership,
        req: &RecommendRequest,
        attempt: usize,
    ) -> Option<ForwardTarget> {
        if attempt > membership.nodes.len() {
            return None;
        }
        let slot = membership.route_filtered(req.session_id, |s| membership.nodes[s].is_alive())?;
        Some(ForwardTarget { addr: membership.nodes[slot].data_addr, depersonalised: true, attempt })
    }

    /// Proxies an ingest batch: clicks are grouped by owning node and
    /// forwarded to each owner's data plane. `(accepted, failed)` counts.
    fn proxy_ingest(&self, clicks: &[Click]) -> (usize, usize) {
        let membership = self.membership.load();
        if membership.nodes.is_empty() {
            return (0, clicks.len());
        }
        let mut groups: Vec<(usize, Vec<&Click>)> = Vec::new();
        let mut accepted = 0;
        let mut failed = 0;
        for click in clicks {
            let Some(slot) = membership
                .route_filtered(click.session_id, |s| membership.nodes[s].is_alive())
                .or_else(|| membership.route(click.session_id))
            else {
                failed += 1;
                continue;
            };
            match groups.iter_mut().find(|(s, _)| *s == slot) {
                Some((_, batch)) => batch.push(click),
                None => groups.push((slot, vec![click])),
            }
        }
        for (slot, batch) in groups {
            let body = render_ingest_batch(&batch);
            let body = Some((conn::CONTENT_TYPE_JSON, body.as_bytes()));
            let node = &membership.nodes[slot];
            match node.transport.call("POST", "/ingest", body) {
                Ok((202, _)) => accepted += batch.len(),
                Ok((_status, _)) => failed += batch.len(),
                Err(_) => {
                    node.alive.store(false, Ordering::SeqCst);
                    failed += batch.len();
                }
            }
        }
        (accepted, failed)
    }

    /// Broadcasts a session deletion to every live node (compliance sweep:
    /// membership may have changed since the session was live). Returns
    /// whether any node had it.
    fn proxy_delete(&self, session_id: u64) -> bool {
        let membership = self.membership.load();
        let mut deleted = false;
        for node in &membership.nodes {
            if !node.is_alive() {
                continue;
            }
            let path = format!("/ingest/session/{session_id}");
            if let Ok((200, body)) = node.transport.call("DELETE", &path, None) {
                deleted |= body.windows(4).any(|w| w == b"true");
            }
        }
        deleted
    }

    fn members_body(&self) -> String {
        let membership = self.membership.load();
        let members: Vec<JsonValue> = membership
            .nodes
            .iter()
            .map(|n| {
                JsonValue::object([
                    ("id", JsonValue::Number(n.id as f64)),
                    ("data_addr", JsonValue::String(n.data_addr.to_string())),
                    ("alive", JsonValue::Bool(n.is_alive())),
                ])
            })
            .collect();
        JsonValue::object([("members", JsonValue::Array(members))]).to_json()
    }
}

/// `PUT`s an index artifact to one node's `/admin/index`: `Ok(Err(reason))`
/// when the node refused it (and keeps serving its old generation), `Err`
/// when it could not be reached.
fn push_artifact(pod: &RemotePod, artifact: &[u8]) -> std::io::Result<Result<(), String>> {
    let (status, body) = pod.call("PUT", "/admin/index", Some((OCTET_STREAM, artifact)))?;
    if status == 200 {
        return Ok(Ok(()));
    }
    let text = String::from_utf8_lossy(&body);
    let reason = json::parse(&text)
        .ok()
        .and_then(|v| v.get("error").and_then(JsonValue::as_str).map(String::from));
    Ok(Err(reason.unwrap_or_else(|| format!("status {status}: {text}"))))
}

/// Renders an ingest sub-batch back into the `POST /ingest` body format.
fn render_ingest_batch(clicks: &[&Click]) -> String {
    let items: Vec<JsonValue> = clicks
        .iter()
        .map(|c| {
            JsonValue::object([
                ("session_id", JsonValue::Number(c.session_id as f64)),
                ("item_id", JsonValue::Number(c.item_id as f64)),
                ("timestamp", JsonValue::Number(c.timestamp as f64)),
            ])
        })
        .collect();
    JsonValue::object([("clicks", JsonValue::Array(items))]).to_json()
}

fn bad_request(message: &str) -> (u16, String, &'static str) {
    (
        400,
        JsonValue::object([("error", JsonValue::String(message.into()))]).to_json(),
        conn::CONTENT_TYPE_JSON,
    )
}

impl RequestBackend for RouterCore {
    fn telemetry(&self) -> &Arc<ClusterTelemetry> {
        &self.telemetry
    }

    /// The owner if alive, otherwise the failover policy — never an error.
    fn route_predict(&self, req: &RecommendRequest) -> PredictRoute {
        let membership = self.membership.load();
        let owner = membership.route(req.session_id).map(|slot| &membership.nodes[slot]);
        match owner {
            Some(owner) if owner.is_alive() => PredictRoute::Forward(ForwardTarget {
                addr: owner.data_addr,
                depersonalised: false,
                attempt: 0,
            }),
            _ => {
                self.failover_total.inc();
                self.next_candidate(&membership, req, 1)
                    .map_or(PredictRoute::Unroutable, PredictRoute::Forward)
            }
        }
    }

    /// A forward produced no `200`: the node is marked dead (the prober
    /// revives it), the request is counted once as failed over — when it
    /// leaves its owner — and goes to the next candidate.
    fn forward_failed(&self, req: &RecommendRequest, failed: ForwardTarget) -> Option<ForwardTarget> {
        let membership = self.membership.load();
        if let Some(node) = membership.nodes.iter().find(|n| n.data_addr == failed.addr) {
            node.alive.store(false, Ordering::SeqCst);
        }
        if !failed.depersonalised {
            self.failover_total.inc();
        }
        self.next_candidate(&membership, req, failed.attempt + 1)
    }

    fn record_forward(&self, elapsed: Duration) {
        self.upstream_seconds.record(elapsed);
    }

    fn respond(&self, request: &ParsedRequest) -> (u16, Vec<u8>, &'static str) {
        let (status, body, content_type) = self.respond_text(request);
        (status, body.into_bytes(), content_type)
    }
}

impl RouterCore {
    /// The router's endpoints, all text; `/admin/` is not among them.
    fn respond_text(&self, request: &ParsedRequest) -> (u16, String, &'static str) {
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/health") => {
                let membership = self.membership.load();
                let live = membership.nodes.iter().filter(|n| n.is_alive()).count();
                (
                    200,
                    JsonValue::object([
                        ("status", JsonValue::String("ok".into())),
                        ("role", JsonValue::String("router".into())),
                        ("members", JsonValue::Number(membership.nodes.len() as f64)),
                        ("live", JsonValue::Number(live as f64)),
                    ])
                    .to_json(),
                    conn::CONTENT_TYPE_JSON,
                )
            }
            ("GET", "/metrics") => (
                200,
                self.telemetry.registry().render(),
                "text/plain; version=0.0.4",
            ),
            ("GET", "/cluster/members") => {
                (200, self.members_body(), conn::CONTENT_TYPE_JSON)
            }
            ("POST", "/cluster/join") => {
                let parsed = json::parse(request.text())
                    .map_err(|e| format!("invalid json: {e}"))
                    .and_then(|v| {
                        let id = v
                            .get("id")
                            .and_then(JsonValue::as_u64)
                            .ok_or("missing id")?;
                        let data = v
                            .get("data_addr")
                            .and_then(JsonValue::as_str)
                            .and_then(|s| s.parse::<SocketAddr>().ok())
                            .ok_or("missing or invalid data_addr")?;
                        Ok((id, data))
                    });
                match parsed {
                    Ok((id, data)) => match self.join(id, data) {
                        Ok(()) => (200, self.members_body(), conn::CONTENT_TYPE_JSON),
                        Err(e) => bad_request(&e),
                    },
                    Err(e) => bad_request(&e),
                }
            }
            ("POST", "/cluster/leave") => {
                let id = json::parse(request.text())
                    .ok()
                    .and_then(|v| v.get("id").and_then(JsonValue::as_u64));
                match id {
                    Some(id) => match self.leave(id) {
                        Ok(()) => (200, self.members_body(), conn::CONTENT_TYPE_JSON),
                        Err(e) => bad_request(&e),
                    },
                    None => bad_request("missing id"),
                }
            }
            ("POST", "/cluster/publish") => {
                let path = json::parse(request.text())
                    .ok()
                    .and_then(|v| v.get("path").and_then(|p| p.as_str().map(String::from)));
                let Some(path) = path else { return bad_request("missing path") };
                let artifact = match std::fs::read(&path) {
                    Ok(bytes) => bytes,
                    Err(e) => return bad_request(&format!("unreadable artifact: {e}")),
                };
                match self.publish_artifact(artifact) {
                    Ok((published, failed)) => {
                        let body = JsonValue::object([
                            (
                                "published",
                                JsonValue::Array(
                                    published
                                        .iter()
                                        .map(|&id| JsonValue::Number(id as f64))
                                        .collect(),
                                ),
                            ),
                            (
                                "failed",
                                JsonValue::Array(
                                    failed
                                        .iter()
                                        .map(|(id, reason)| {
                                            JsonValue::object([
                                                ("id", JsonValue::Number(*id as f64)),
                                                (
                                                    "error",
                                                    JsonValue::String(reason.clone()),
                                                ),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                        .to_json();
                        (200, body, conn::CONTENT_TYPE_JSON)
                    }
                    Err(e) => bad_request(&e),
                }
            }
            ("POST", "/recommend") => conn::reject_predict(request.text()),
            ("POST", "/ingest") => match conn::parse_ingest_batch(request.text()) {
                Ok(clicks) => {
                    let (accepted, failed) = self.proxy_ingest(&clicks);
                    let status = if failed == 0 { 202 } else { 503 };
                    (
                        status,
                        JsonValue::object([
                            ("accepted", JsonValue::Number(accepted as f64)),
                            ("failed", JsonValue::Number(failed as f64)),
                        ])
                        .to_json(),
                        conn::CONTENT_TYPE_JSON,
                    )
                }
                Err(e) => bad_request(&e),
            },
            ("DELETE", path) if path.starts_with("/ingest/session/") => {
                let id = path["/ingest/session/".len()..].parse::<u64>();
                match id {
                    Ok(id) => {
                        let deleted = self.proxy_delete(id);
                        (
                            200,
                            JsonValue::object([("deleted", JsonValue::Bool(deleted))])
                                .to_json(),
                            conn::CONTENT_TYPE_JSON,
                        )
                    }
                    Err(_) => bad_request("invalid session id"),
                }
            }
            _ => (
                404,
                JsonValue::object([("error", JsonValue::String("not found".into()))])
                    .to_json(),
                conn::CONTENT_TYPE_JSON,
            ),
        }
    }
}

/// A running router daemon: the event-loop server plus the health prober.
pub struct RouterDaemon {
    core: Arc<RouterCore>,
    server: Option<HttpServer>,
    addr: SocketAddr,
    probe_stop: Arc<AtomicBool>,
    probe_thread: Option<JoinHandle<()>>,
}

impl RouterDaemon {
    /// Starts the router over an initial member list.
    pub fn start(
        members: &[(u64, SocketAddr, SocketAddr)],
        config: RouterConfig,
    ) -> std::io::Result<Self> {
        let core = RouterCore::new(
            members,
            TraceConfig::default(),
            config.probe_timeout,
            config.handoff_cap,
        );
        // The first probe runs before the router takes traffic.
        core.probe_members();
        let server = HttpServer::serve(Arc::clone(&core), config.server)?;
        let addr = server.addr();
        let probe_stop = Arc::new(AtomicBool::new(false));
        let probe_thread = {
            let core = Arc::clone(&core);
            let stop = Arc::clone(&probe_stop);
            let interval = config.probe_interval.max(Duration::from_millis(10));
            std::thread::spawn(move || loop {
                // Parked, not asleep: `stop` unparks, so shutdown does not
                // wait out the interval.
                std::thread::park_timeout(interval);
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                core.probe_members();
            })
        };
        Ok(Self {
            core,
            server: Some(server),
            addr,
            probe_stop,
            probe_thread: Some(probe_thread),
        })
    }

    /// The router's data-plane address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The router backend (membership, failover counter).
    pub fn core(&self) -> &Arc<RouterCore> {
        &self.core
    }

    /// Drains the server and stops the prober.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        self.probe_stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.probe_thread.take() {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

impl Drop for RouterDaemon {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;

    #[test]
    fn ingest_batch_rendering_roundtrips() {
        let clicks = [Click::new(1, 2, 3), Click::new(4, 5, 6)];
        let refs: Vec<&Click> = clicks.iter().collect();
        let body = render_ingest_batch(&refs);
        let parsed = conn::parse_ingest_batch(&body).unwrap();
        assert_eq!(parsed, clicks);
    }

    use crate::node::{NodeConfig, ServingNode};
    use crate::transport::HttpClient;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    const EMPTY_LIST: &str = r#"{"recommendations":[]}"#;

    /// A router whose prober runs once at start and then stays out of the
    /// test's way (shutdown unparks it).
    fn router(members: &[(u64, SocketAddr, SocketAddr)], server: HttpServerConfig) -> RouterDaemon {
        let config = RouterConfig {
            server,
            probe_interval: Duration::from_secs(3600),
            probe_timeout: Duration::from_millis(200),
            ..RouterConfig::default()
        };
        RouterDaemon::start(members, config).unwrap()
    }

    fn predict(client: &mut HttpClient, session_id: u64, consent: bool) -> (u16, String) {
        client
            .post(
                "/recommend",
                &format!(r#"{{"session_id": {session_id}, "item_id": 2, "consent": {consent}}}"#),
            )
            .unwrap()
    }

    fn survivor() -> ServingNode {
        let clicks: Vec<Click> = (0..40u64)
            .flat_map(|s| [Click::new(s, s % 6, s * 10), Click::new(s, (s + 1) % 6, s * 10 + 1)])
            .collect();
        let index = Arc::new(serenade_core::SessionIndex::build(&clicks, 500).unwrap());
        ServingNode::start(index, NodeConfig::default()).unwrap()
    }

    /// Reads one request off a fake node's connection (complete once its
    /// JSON body has closed).
    fn read_request(stream: &mut TcpStream) {
        let mut seen = Vec::new();
        let mut buf = [0u8; 1024];
        while !seen.ends_with(b"}") {
            let n = stream.read(&mut buf).unwrap();
            assert!(n > 0, "the router hung up mid-request");
            seen.extend_from_slice(&buf[..n]);
        }
    }

    #[test]
    fn empty_membership_serves_empty_lists_not_errors() {
        let router = router(&[], HttpServerConfig::default());
        let mut client = HttpClient::connect(router.addr()).unwrap();
        assert_eq!(predict(&mut client, 9, true), (200, EMPTY_LIST.to_string()));
        assert_eq!(router.core().failover_total(), 1, "the miss is counted");
        router.shutdown();
    }

    #[test]
    fn dead_member_requests_degrade_and_are_counted() {
        // Two members on ports nothing listens on: every request fails
        // over, exhausts the candidates and lands on the empty fallback —
        // whether the prober or the request finds them dead first.
        let dead = |p: u16| {
            let a: SocketAddr = format!("127.0.0.1:{p}").parse().unwrap();
            a
        };
        let router = router(&[(0, dead(1), dead(1)), (1, dead(2), dead(2))], HttpServerConfig::default());
        let mut client = HttpClient::connect(router.addr()).unwrap();
        assert_eq!(predict(&mut client, 9, true), (200, EMPTY_LIST.to_string()), "no 5xx");
        assert_eq!(router.core().failover_total(), 1);
        let membership = router.core().membership();
        assert!(membership.nodes().iter().all(|n| !n.is_alive()), "failures mark nodes dead");
        router.shutdown();
    }

    /// An owner that answers its first request with an empty list, reads a
    /// second one on the same connection and dies on it — connection and
    /// listener both: a node lost mid-exchange.
    fn owner_that_dies_on_its_second_request() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let thread = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_request(&mut stream);
            write!(stream, "HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n{EMPTY_LIST}", EMPTY_LIST.len())
                .unwrap();
            read_request(&mut stream);
        });
        (addr, thread)
    }

    #[test]
    fn owner_dying_mid_exchange_fails_over_without_an_error() {
        let survivor = survivor();
        let (dying, owner_thread) = owner_that_dies_on_its_second_request();
        // The dying owner's probes go to the survivor, so the prober's one
        // round finds both members alive.
        let router = router(
            &[(0, dying, survivor.ctrl_addr()), (1, survivor.data_addr(), survivor.ctrl_addr())],
            HttpServerConfig::default(),
        );
        let core = Arc::clone(router.core());
        let owned: Vec<u64> = (0..u64::MAX).filter(|&sid| core.membership().route(sid) == Some(0)).take(3).collect();
        let mut client = HttpClient::connect(router.addr()).unwrap();
        let answers: Vec<(u16, String)> =
            owned.iter().map(|&sid| predict(&mut client, sid, true)).collect();
        owner_thread.join().unwrap();

        let depersonalised = predict(&mut HttpClient::connect(survivor.data_addr()).unwrap(), owned[1], false);
        assert!(depersonalised.1.len() > EMPTY_LIST.len(), "{depersonalised:?}");
        assert_eq!(answers[0], (200, EMPTY_LIST.to_string()), "request 1 was answered by its owner");
        assert_eq!(answers[1], depersonalised, "request 2 failed over mid-exchange");
        assert_eq!(answers[2], depersonalised, "request 3 found its owner already dead");
        assert_eq!(core.failover_total(), 2, "one per request that failed over");
        let membership = core.membership();
        assert!(!membership.nodes()[0].is_alive() && membership.nodes()[1].is_alive());
        router.shutdown();
        survivor.shutdown();
    }

    #[test]
    fn a_node_that_accepts_and_never_answers_costs_one_deadline_and_no_error() {
        let survivor = survivor();
        // Connections complete in the backlog; nothing is ever read.
        let stalled = TcpListener::bind("127.0.0.1:0").unwrap();
        let deadline = Duration::from_millis(300);
        let router = router(
            &[
                (0, stalled.local_addr().unwrap(), survivor.ctrl_addr()),
                (1, survivor.data_addr(), survivor.ctrl_addr()),
            ],
            HttpServerConfig { request_deadline: deadline, ..HttpServerConfig::default() },
        );
        let core = Arc::clone(router.core());
        let sid = (0..u64::MAX).find(|&sid| core.membership().route(sid) == Some(0)).unwrap();
        let depersonalised = predict(&mut HttpClient::connect(survivor.data_addr()).unwrap(), sid, false);

        let upstream_timeouts = || {
            let text = core.telemetry().registry().render();
            let metrics = serenade_telemetry::parse(&text).unwrap();
            metrics.value("serenade_http_timeouts_total", &[("kind", "upstream")])
        };

        let started = Instant::now();
        let answer = predict(&mut HttpClient::connect(router.addr()).unwrap(), sid, true);
        let waited = started.elapsed();
        assert_eq!(answer, depersonalised, "a depersonalised 200 from the survivor, no 5xx");
        assert!(waited >= deadline, "answered before the deadline could have passed: {waited:?}");
        assert!(waited < deadline * 4, "the stall outlived its deadline: {waited:?}");
        assert_eq!(core.failover_total(), 1);
        assert_eq!(upstream_timeouts(), Some(1.0));
        let membership = core.membership();
        assert!(!membership.nodes()[0].is_alive(), "the stalled node is marked dead");
        assert!(membership.nodes()[1].is_alive());

        // The prober finds it "alive" again, and more clients arrive than
        // the router has workers: a stalled node parks connections, not
        // threads, so all of them are answered one deadline later.
        membership.nodes()[0].alive.store(true, Ordering::SeqCst);
        let started = Instant::now();
        let clients: Vec<_> = (0..6)
            .map(|_| {
                let addr = router.addr();
                std::thread::spawn(move || predict(&mut HttpClient::connect(addr).unwrap(), sid, true))
            })
            .collect();
        let answers: Vec<(u16, String)> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        assert!(answers.iter().all(|a| *a == depersonalised), "{answers:?}");
        assert!(started.elapsed() < deadline * 4, "{:?}", started.elapsed());
        assert!(!membership.nodes()[0].is_alive());
        let stalled_again = upstream_timeouts().unwrap() - 1.0;
        assert!(stalled_again >= 1.0, "at least the first of the six waited out the stall");
        assert_eq!(core.failover_total(), 7, "one per request, however it learnt the owner was gone");
        router.shutdown();
        survivor.shutdown();
        drop(stalled);
    }

    #[test]
    fn every_member_stalling_costs_less_than_two_deadlines() {
        // A failover inherits its request's deadline; a missed one buys the
        // next attempt half as much again. Three members that accept and
        // never answer therefore cost 1 + 1/2 + 1/4 deadlines, not three.
        let pinged = survivor();
        let stalled: Vec<TcpListener> =
            (0..3).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
        let members: Vec<_> = stalled
            .iter()
            .zip(0u64..)
            .map(|(listener, id)| (id, listener.local_addr().unwrap(), pinged.ctrl_addr()))
            .collect();
        let deadline = Duration::from_millis(400);
        let router = router(
            &members,
            HttpServerConfig { request_deadline: deadline, ..HttpServerConfig::default() },
        );
        let started = Instant::now();
        let answer = predict(&mut HttpClient::connect(router.addr()).unwrap(), 9, true);
        let waited = started.elapsed();
        assert_eq!(answer, (200, EMPTY_LIST.to_string()), "nobody answered: the empty list, no 5xx");
        assert!(waited >= deadline * 7 / 4, "an attempt was cut short: {waited:?}");
        assert!(waited < deadline * 3, "every attempt got a whole deadline: {waited:?}");
        assert_eq!(router.core().failover_total(), 1);
        assert!(router.core().membership().nodes().iter().all(|n| !n.is_alive()));
        router.shutdown();
        pinged.shutdown();
    }

    #[test]
    fn join_rejects_duplicates_and_leave_rejects_strangers() {
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let core = RouterCore::new(
            &[(3, addr, addr)],
            TraceConfig::default(),
            Duration::from_millis(50),
            1_000,
        );
        assert!(core.join(3, addr).is_err());
        assert!(core.leave(9).is_err());
        assert!(core.leave(3).is_ok());
        assert!(core.membership().nodes().is_empty());
    }

    /// A fake node that sheds the one request it is sent with a `503`.
    fn shedding_node() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let thread = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 1024];
            assert!(stream.read(&mut buf).unwrap() > 0);
            stream.write_all(b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 2\r\n\r\n{}").unwrap();
        });
        (addr, thread)
    }

    #[test]
    fn a_probe_counts_any_answer_as_alive_and_only_silence_as_dead() {
        let stalled = TcpListener::bind("127.0.0.1:0").unwrap();
        let ((shedding, shed), stalled_addr) = (shedding_node(), stalled.local_addr().unwrap());
        let timeout = Duration::from_millis(200);
        let core = RouterCore::new(
            &[(0, shedding, shedding), (1, stalled_addr, stalled_addr)],
            TraceConfig::default(),
            timeout,
            1_000,
        );
        let membership = core.membership();
        membership.nodes()[0].alive.store(false, Ordering::SeqCst);
        let started = Instant::now();
        core.probe_members();
        let probed = started.elapsed();
        assert!(membership.nodes()[0].is_alive(), "a 503 shed proves the node's server is up");
        assert!(!membership.nodes()[1].is_alive(), "a node that accepts and never answers is dead");
        assert!(probed >= timeout && probed < timeout * 3, "{probed:?}");
        shed.join().unwrap();
        drop(stalled);
    }

    #[test]
    fn a_client_never_reaches_the_admin_routes_through_the_router() {
        let node = survivor();
        let router = router(&[(0, node.data_addr(), node.ctrl_addr())], HttpServerConfig::default());
        let mut artifact = Vec::new();
        binfmt::write_index(node.cluster().engine().index_handle().load().index(), &mut artifact)
            .unwrap();
        let mut client = HttpClient::connect(router.addr()).unwrap();
        let (status, _) = client.exchange("PUT", "/admin/index", Some((OCTET_STREAM, &artifact))).unwrap();
        assert_eq!(status, 404);
        assert_eq!(node.cluster().engine().index_handle().generation(), 1, "nothing was published");
        // Nor does the router buffer an upload for the node: 1 MiB is its cap
        // on every path.
        let mut raw = TcpStream::connect(router.addr()).unwrap();
        raw.write_all(b"PUT /admin/index HTTP/1.1\r\ncontent-length: 2097152\r\n\r\n").unwrap();
        let mut response = String::new();
        raw.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 413"), "{response}");
        router.shutdown();
        node.shutdown();
    }

    #[test]
    fn a_publish_to_an_ingest_node_is_listed_as_failed() {
        let node = survivor();
        let seed: Vec<Click> = (0..40u64)
            .flat_map(|s| [Click::new(s, s % 6, s * 10), Click::new(s, (s + 1) % 6, s * 10 + 1)])
            .collect();
        node.cluster().enable_ingest(crate::IngestConfig::default(), &seed).unwrap();
        let router = router(&[(0, node.data_addr(), node.ctrl_addr())], HttpServerConfig::default());
        let mut artifact = Vec::new();
        binfmt::write_index(node.cluster().engine().index_handle().load().index(), &mut artifact)
            .unwrap();
        let (published, failed) = router.core().publish_artifact(artifact).unwrap();
        assert!(published.is_empty());
        assert_eq!(failed.len(), 1);
        assert!(failed[0].1.contains("live ingest"), "{failed:?}");
        assert!(router.core().membership().nodes()[0].is_alive(), "a refusal is not a death");
        assert_eq!(node.cluster().engine().index_handle().generation(), 1);
        router.shutdown();
        node.shutdown();
    }
}
