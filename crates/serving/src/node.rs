//! The serving-node role: one machine of a multi-process cluster.
//!
//! A [`ServingNode`] is the process's [`ServingCluster`] (one engine) behind
//! the event-loop [`HttpServer`]: one listening socket, one protocol. Beside
//! the REST surface every server has (`/recommend`, `/metrics`, …), a node
//! answers the router's control plane as four routes under `/admin/`, run
//! like any other non-predict request on the worker pool:
//!
//! | route | body in | answer |
//! |---|---|---|
//! | `PUT /admin/index` | a `binfmt` index artefact | `{"index_generation": N}`; `400` naming why for a corrupt artefact, `409` while live ingest owns the index; the old generation keeps serving |
//! | `POST /admin/sessions/export` | `{"cap": N}` | up to `N` live sessions, as a session set |
//! | `POST /admin/sessions/import` | a session set | `{"imported": n}` (prepend semantics, see `Engine::import_session`) |
//! | `POST /admin/sessions/forget` | a session-id list | `{"forgotten": n}`: how many existed |
//!
//! The probe is `GET /health`. Binary bodies travel as
//! `application/octet-stream`: a session set is
//! `count:u32le (sid:u64le len:u32le item:u64le*len)*`, an id list
//! `count:u32le sid:u64le*` (session ids use all 64 bits, more than a JSON
//! number carries). Only a node serves these routes, and only its `/admin/`
//! paths may declare a body beyond the server's `max_body_bytes`, up to a
//! whole artefact; the upload must still arrive within
//! `request_read_timeout`. The decoders bound every allocation by the bytes
//! present.

use std::net::SocketAddr;
use std::sync::Arc;

use serenade_core::{CoreError, ItemId, ItemScore, SessionIndex};
use serenade_index::binfmt;
use serenade_telemetry::TraceConfig;

use crate::cluster::{RolloverError, ServingCluster};
use crate::context::RequestContext;
use crate::engine::{EngineConfig, RecommendRequest};
use crate::error::ServingError;
use crate::json::{self, JsonValue};
use crate::rules::BusinessRules;
use crate::server::conn::{self, CONTENT_TYPE_JSON};
use crate::server::parser::ParsedRequest;
use crate::server::{HttpServer, HttpServerConfig, PredictRoute, RequestBackend};
use crate::telemetry::ClusterTelemetry;

/// Content type of the artefacts, session sets and id lists.
pub(crate) const OCTET_STREAM: &str = "application/octet-stream";

/// Largest body an `/admin/` request may declare on a node: a whole index
/// artefact, `binfmt`'s payload cap plus its header and trailer with room
/// to spare.
const ADMIN_BODY_BYTES: usize = binfmt::MAX_PAYLOAD_BYTES as usize + (1 << 16);

/// How a node identifies and binds itself.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Member id in the cluster's rendezvous key space. Nodes `0..n` own
    /// exactly what `StickyRouter::with_members(0..n)` assigns them, which
    /// the conformance tests rely on.
    pub node_id: u64,
    /// Server configuration (bind address, workers, limits).
    pub server: HttpServerConfig,
    /// Engine configuration.
    pub engine: EngineConfig,
    /// Business rules.
    pub rules: BusinessRules,
}

impl Default for NodeConfig {
    fn default() -> Self {
        Self {
            node_id: 0,
            server: HttpServerConfig::default(),
            engine: EngineConfig::default(),
            rules: BusinessRules::none(),
        }
    }
}

/// A running serving node: the HTTP server around the process's cluster.
/// Dropping it (or [`ServingNode::shutdown`]) drains the server.
pub struct ServingNode {
    id: u64,
    cluster: Arc<ServingCluster>,
    server: Option<HttpServer>,
    data_addr: SocketAddr,
}

impl ServingNode {
    /// Builds the cluster and starts the server.
    pub fn start(index: Arc<SessionIndex>, config: NodeConfig) -> Result<Self, CoreError> {
        let cluster = Arc::new(ServingCluster::with_trace_config(
            index,
            1,
            config.engine,
            config.rules,
            TraceConfig::default(),
        )?);
        let backend = Arc::new(NodeBackend(Arc::clone(&cluster)));
        let server =
            HttpServer::serve(backend, config.server).map_err(|e| {
                CoreError::InvalidConfig {
                    parameter: "node.server",
                    reason: format!("data plane failed to bind: {e}"),
                }
            })?;
        let data_addr = server.addr();
        Ok(Self { id: config.node_id, cluster, server: Some(server), data_addr })
    }

    /// The node's member id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The node's one address.
    pub fn data_addr(&self) -> SocketAddr {
        self.data_addr
    }

    /// Where the router reaches the node's control plane: the same address,
    /// since the control plane is routes on it.
    pub fn ctrl_addr(&self) -> SocketAddr {
        self.data_addr
    }

    /// The node's cluster (its engine plus telemetry).
    pub fn cluster(&self) -> &Arc<ServingCluster> {
        &self.cluster
    }

    /// Drains the server.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Drop for ServingNode {
    fn drop(&mut self) {
        self.stop();
    }
}

/// What a node serves: its cluster, plus the `/admin/` routes and their
/// raised body cap, which a bare cluster server does not expose.
struct NodeBackend(Arc<ServingCluster>);

impl RequestBackend for NodeBackend {
    const ADMIN_BODY_BYTES: usize = ADMIN_BODY_BYTES;

    fn telemetry(&self) -> &Arc<ClusterTelemetry> {
        self.0.telemetry()
    }

    fn respond(&self, request: &ParsedRequest) -> (u16, Vec<u8>, &'static str) {
        if request.path.starts_with("/admin/") {
            respond_admin(request, &self.0)
        } else {
            conn::respond(request, &self.0)
        }
    }

    fn route_predict(&self, _req: &RecommendRequest) -> PredictRoute {
        PredictRoute::Local
    }

    fn handle_recommend(
        &self,
        req: RecommendRequest,
        ctx: &mut RequestContext,
    ) -> Result<Vec<ItemScore>, ServingError> {
        self.0.handle_with(req, ctx)
    }
}

/// Answers one request under `/admin/` (the table in the module docs).
fn respond_admin(
    request: &ParsedRequest,
    cluster: &ServingCluster,
) -> (u16, Vec<u8>, &'static str) {
    let engine = cluster.engine();
    match (request.method.as_str(), request.path.as_str()) {
        ("PUT", "/admin/index") => {
            let loaded = binfmt::read_index(&request.body)
                .map_err(|e| (400, format!("artifact rejected: {e}")))
                .and_then(|index| {
                    cluster.reload_index(Arc::new(index)).map_err(|e| match e {
                        RolloverError::IngestEnabled => (409, format!("index rejected: {e}")),
                        RolloverError::Invalid(_) => (400, format!("index rejected: {e}")),
                    })
                });
            match loaded {
                Ok(()) => counted("index_generation", engine.index_handle().generation()),
                Err((status, reason)) => error(status, reason),
            }
        }
        ("POST", "/admin/sessions/export") => {
            let cap = json::parse(request.text())
                .ok()
                .and_then(|v| v.get("cap").and_then(JsonValue::as_u64));
            match cap {
                Some(cap) => {
                    (200, encode_sessions(&engine.export_sessions(cap as usize)), OCTET_STREAM)
                }
                None => error(400, String::from("export expects {\"cap\": N}")),
            }
        }
        ("POST", "/admin/sessions/import") => match decode_sessions(&request.body) {
            Ok(sessions) => {
                let imported = sessions.len() as u64;
                for (sid, items) in sessions {
                    engine.import_session(sid, items);
                }
                counted("imported", imported)
            }
            Err(e) => error(400, e),
        },
        ("POST", "/admin/sessions/forget") => match decode_session_ids(&request.body) {
            Ok(sids) => {
                let forgotten = sids.into_iter().filter(|&sid| engine.forget_session(sid)).count();
                counted("forgotten", forgotten as u64)
            }
            Err(e) => error(400, e),
        },
        _ => error(404, String::from("not found")),
    }
}

/// A `200` with one count: `{"<name>": n}`.
fn counted(name: &'static str, n: u64) -> (u16, Vec<u8>, &'static str) {
    let body = JsonValue::object([(name, JsonValue::Number(n as f64))]).to_json();
    (200, body.into_bytes(), CONTENT_TYPE_JSON)
}

fn error(status: u16, message: String) -> (u16, Vec<u8>, &'static str) {
    let body = JsonValue::object([("error", JsonValue::String(message))]).to_json();
    (status, body.into_bytes(), CONTENT_TYPE_JSON)
}

/// Encodes a session set: the export route's answer, the import route's body.
pub fn encode_sessions(sessions: &[(u64, Vec<ItemId>)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + sessions.len() * 16);
    out.extend_from_slice(&(sessions.len() as u32).to_le_bytes());
    for (sid, items) in sessions {
        out.extend_from_slice(&sid.to_le_bytes());
        out.extend_from_slice(&(items.len() as u32).to_le_bytes());
        for item in items {
            out.extend_from_slice(&item.to_le_bytes());
        }
    }
    out
}

/// Decodes a session set; allocation is bounded by the bytes present.
pub fn decode_sessions(bytes: &[u8]) -> Result<Vec<(u64, Vec<ItemId>)>, String> {
    let mut cursor = Cursor { bytes, at: 0 };
    let count = cursor.u32()? as usize;
    // A count cannot exceed what the payload could possibly hold.
    if count > bytes.len() / 12 {
        return Err(format!("session count {count} exceeds the payload"));
    }
    let mut sessions = Vec::with_capacity(count);
    for _ in 0..count {
        let sid = cursor.u64()?;
        let len = cursor.u32()? as usize;
        if len > cursor.remaining() / 8 {
            return Err(format!("session length {len} exceeds the payload"));
        }
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(cursor.u64()?);
        }
        sessions.push((sid, items));
    }
    if cursor.remaining() != 0 {
        return Err(String::from("trailing bytes after session set"));
    }
    Ok(sessions)
}

/// Encodes a bare session-id list (the forget route's body).
pub fn encode_session_ids(sids: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + sids.len() * 8);
    out.extend_from_slice(&(sids.len() as u32).to_le_bytes());
    for sid in sids {
        out.extend_from_slice(&sid.to_le_bytes());
    }
    out
}

/// Decodes a bare session-id list.
pub fn decode_session_ids(bytes: &[u8]) -> Result<Vec<u64>, String> {
    let mut cursor = Cursor { bytes, at: 0 };
    let count = cursor.u32()? as usize;
    if count > bytes.len() / 8 {
        return Err(format!("id count {count} exceeds the payload"));
    }
    let mut sids = Vec::with_capacity(count);
    for _ in 0..count {
        sids.push(cursor.u64()?);
    }
    if cursor.remaining() != 0 {
        return Err(String::from("trailing bytes after id list"));
    }
    Ok(sids)
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let chunk = self.bytes[self.at..].first_chunk::<N>().ok_or("truncated session set")?;
        self.at += N;
        Ok(*chunk)
    }

    fn u32(&mut self) -> Result<u32, String> {
        self.take().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, String> {
        self.take().map(u64::from_le_bytes)
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;
    use crate::transport::HttpClient;
    use serenade_core::Click;

    fn seed_index() -> Arc<SessionIndex> {
        let mut clicks = Vec::new();
        for s in 0..40u64 {
            let ts = 100 + s * 10;
            clicks.push(Click::new(s + 1, s % 6, ts));
            clicks.push(Click::new(s + 1, (s + 1) % 6, ts + 1));
        }
        Arc::new(SessionIndex::build(&clicks, 500).unwrap())
    }

    fn start_node() -> ServingNode {
        ServingNode::start(seed_index(), NodeConfig::default()).unwrap()
    }

    #[test]
    fn session_blob_roundtrips() {
        let sessions = vec![(7u64, vec![1u64, 2, 3]), (9, vec![]), (u64::MAX, vec![5])];
        let bytes = encode_sessions(&sessions);
        assert_eq!(decode_sessions(&bytes).unwrap(), sessions);
        let ids = vec![1u64, u64::MAX, 42];
        assert_eq!(decode_session_ids(&encode_session_ids(&ids)).unwrap(), ids);
    }

    #[test]
    fn hostile_session_blobs_are_rejected_cleanly() {
        // Declared counts far beyond the payload must fail before allocating.
        let mut huge = Vec::new();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_sessions(&huge).is_err());
        assert!(decode_session_ids(&huge).is_err());
        // Truncations of a valid blob never panic.
        let bytes = encode_sessions(&[(1, vec![2, 3]), (4, vec![5])]);
        for cut in 0..bytes.len() {
            let _ = decode_sessions(&bytes[..cut]);
        }
        // Trailing garbage is detected.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_sessions(&padded).is_err());
    }

    /// One exchange with an `application/octet-stream` body.
    fn admin(client: &mut HttpClient, method: &str, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
        client.exchange(method, path, Some((OCTET_STREAM, body))).unwrap()
    }

    fn export(client: &mut HttpClient, cap: u32) -> Vec<(u64, Vec<ItemId>)> {
        let cap = format!("{{\"cap\": {cap}}}");
        let (status, body) =
            client.exchange("POST", "/admin/sessions/export", Some((CONTENT_TYPE_JSON, cap.as_bytes()))).unwrap();
        assert_eq!(status, 200);
        decode_sessions(&body).unwrap()
    }

    /// `GET /health`'s `index_generation`: the probe's reading.
    fn generation(client: &mut HttpClient) -> u64 {
        let (status, body) = client.get("/health").unwrap();
        assert_eq!(status, 200, "{body}");
        json::parse(&body).unwrap().get("index_generation").and_then(JsonValue::as_u64).unwrap()
    }

    fn artifact() -> Vec<u8> {
        let mut artifact = Vec::new();
        binfmt::write_index(&seed_index(), &mut artifact).unwrap();
        artifact
    }

    #[test]
    fn ping_reports_the_index_generation() {
        let node = start_node();
        let mut client = HttpClient::connect(node.ctrl_addr()).unwrap();
        assert_eq!(generation(&mut client), 1, "fresh node serves generation 1");
        node.shutdown();
    }

    #[test]
    fn load_index_publishes_a_valid_artifact_and_rejects_a_corrupt_one() {
        let node = start_node();
        let mut ctrl = HttpClient::connect(node.ctrl_addr()).unwrap();
        let artifact = artifact();

        let (status, body) = admin(&mut ctrl, "PUT", "/admin/index", &artifact);
        assert_eq!((status, String::from_utf8(body).unwrap()), (200, String::from(r#"{"index_generation":2}"#)));
        assert_eq!(generation(&mut ctrl), 2, "publish bumps the generation");

        // Flip one payload byte: the node must reject it and keep serving.
        let mut corrupt = artifact.clone();
        let flip = corrupt.len() - 25;
        corrupt[flip] ^= 0x40;
        let (status, rejection) = admin(&mut ctrl, "PUT", "/admin/index", &corrupt);
        let rejection = String::from_utf8(rejection).unwrap();
        assert_eq!(status, 400, "{rejection}");
        assert!(rejection.contains("rejected"), "{rejection}");
        assert_eq!(generation(&mut ctrl), 2, "old generation keeps serving");

        // An artefact framed as format version 2 is refused by its version.
        let mut v2 = artifact.clone();
        let trailer = v2.len() - 24;
        for magic in [0, trailer] {
            v2[magic + 6] = 2;
        }
        let (status, rejection) = admin(&mut ctrl, "PUT", "/admin/index", &v2);
        let rejection = String::from_utf8(rejection).unwrap();
        assert_eq!(status, 400, "{rejection}");
        assert!(rejection.contains("version 2"), "{rejection}");
        assert_eq!(generation(&mut ctrl), 2, "old generation keeps serving");
        node.shutdown();
    }

    #[test]
    fn export_import_forget_hand_sessions_across_nodes() {
        let a = start_node();
        let b = start_node();
        // Give node A some session state through its data plane.
        let mut http = HttpClient::connect(a.data_addr()).unwrap();
        for item in [0u64, 1, 2] {
            let body =
                format!("{{\"session_id\": 77, \"item_id\": {item}, \"consent\": true}}");
            let (status, _) = http.post("/recommend", &body).unwrap();
            assert_eq!(status, 200);
        }
        let mut ctrl_a = HttpClient::connect(a.ctrl_addr()).unwrap();
        let mut ctrl_b = HttpClient::connect(b.ctrl_addr()).unwrap();
        let exported = export(&mut ctrl_a, 1_000);
        assert_eq!(exported.len(), 1);
        assert_eq!(exported[0].0, 77);
        assert_eq!(exported[0].1.len(), 3);

        let imported = admin(&mut ctrl_b, "POST", "/admin/sessions/import", &encode_sessions(&exported));
        assert_eq!(imported, (200, br#"{"imported":1}"#.to_vec()));
        assert_eq!(b.cluster().live_sessions(), 1);
        let forgotten = admin(&mut ctrl_a, "POST", "/admin/sessions/forget", &encode_session_ids(&[77]));
        assert_eq!(forgotten, (200, br#"{"forgotten":1}"#.to_vec()));
        assert_eq!(a.cluster().live_sessions(), 0);

        // A malformed set is a 400 with the decoder's message.
        let (status, body) = admin(&mut ctrl_b, "POST", "/admin/sessions/import", &[1, 2, 3]);
        assert_eq!(status, 400);
        assert!(String::from_utf8(body).unwrap().contains("truncated session set"));
        a.shutdown();
        b.shutdown();
    }

    /// Writes `head` on a fresh connection and reads until the node closes it.
    fn raw_exchange(addr: SocketAddr, head: &[u8]) -> String {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
        stream.write_all(head).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn bodies_past_their_cap_are_413_before_any_byte_of_them_is_read() {
        let node = start_node();
        let too_big = ADMIN_BODY_BYTES + 1;
        for head in [
            format!("PUT /admin/index HTTP/1.1\r\ncontent-type: {OCTET_STREAM}\r\ncontent-length: {too_big}\r\n\r\n"),
            format!("POST /ingest HTTP/1.1\r\ncontent-length: {}\r\n\r\n", (1 << 20) + 1),
        ] {
            let response = raw_exchange(node.data_addr(), head.as_bytes());
            assert!(response.starts_with("HTTP/1.1 413 Payload Too Large"), "{head}: {response}");
            assert!(response.contains("connection: close"), "{response}");
        }
        // A JSON route still refuses a body that is not UTF-8, and closes.
        let response = raw_exchange(node.data_addr(), b"POST /ingest HTTP/1.1\r\ncontent-length: 2\r\n\r\n\xff\xfe");
        assert!(response.starts_with("HTTP/1.1 400 Bad Request"), "{response}");
        assert!(response.contains("not valid utf-8") && response.contains("connection: close"), "{response}");
        node.shutdown();
    }

    #[test]
    fn a_rollover_on_an_ingest_node_is_409_and_every_generation_agrees() {
        use serenade_core::Click;
        let node = start_node();
        let seed: Vec<Click> = (0..40u64)
            .flat_map(|s| [Click::new(s + 1, s % 6, 100 + s * 10), Click::new(s + 1, (s + 1) % 6, 101 + s * 10)])
            .collect();
        let ingest = node.cluster().enable_ingest(crate::IngestConfig::default(), &seed).unwrap();
        assert!(ingest.submit(&[Click::new(900, 1, 5_000), Click::new(900, 2, 5_001)]));
        assert_eq!(ingest.flush().unwrap(), 2, "one publish");

        let mut ctrl = HttpClient::connect(node.ctrl_addr()).unwrap();
        let (status, body) = admin(&mut ctrl, "PUT", "/admin/index", &artifact());
        let body = String::from_utf8(body).unwrap();
        assert_eq!(status, 409, "{body}");
        assert!(body.contains("live ingest"), "{body}");

        let handle = node.cluster().engine().index_handle().generation();
        let (_, metrics) = ctrl.get("/metrics").unwrap();
        let scraped = serenade_telemetry::parse(&metrics).unwrap().value("serenade_index_generation", &[]);
        assert_eq!((generation(&mut ctrl), scraped, handle), (2, Some(2.0), 2));
        assert_eq!(node.cluster().engine().index_handle().load().index().num_sessions(), 41);
        node.shutdown();
    }
}
