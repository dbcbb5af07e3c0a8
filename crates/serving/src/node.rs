//! The serving-node role: one machine of a multi-process cluster.
//!
//! A [`ServingNode`] wraps the process's [`ServingCluster`] (one engine) with
//! the two planes a real deployment needs:
//!
//! * **data plane** — the event-loop [`HttpServer`] serving the full REST
//!   surface (`/recommend`, `/metrics`, …), identical to the in-process
//!   server because it *is* the in-process server;
//! * **control plane** — a framed binary protocol on a second socket for
//!   the router tier: liveness pings, index-artifact distribution
//!   (validated with `serenade_index::binfmt` before anything is
//!   published — a corrupt artifact is rejected and the old generation
//!   keeps serving), and session export/import/forget for ownership
//!   handoff when membership changes.
//!
//! # Control protocol
//!
//! Requests are `b"SRNC" op:u8 len:u32le payload`, responses are
//! `b"SRNR" status:u8 len:u32le payload` (status 0 = ok, 1 = error with a
//! UTF-8 message payload). Session sets are encoded as
//! `count:u32le (sid:u64le len:u32le item:u64le*len)*`. All reads are
//! bounded: a declared length beyond [`MAX_CTRL_FRAME_BYTES`] is rejected
//! before any allocation, and payloads are read incrementally so a hostile
//! length costs only the bytes actually sent.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use serenade_core::{CoreError, ItemId, SessionIndex};
use serenade_index::binfmt;
use serenade_telemetry::TraceConfig;

use crate::cluster::ServingCluster;
use crate::engine::EngineConfig;
use crate::server::{HttpServer, HttpServerConfig};
use crate::rules::BusinessRules;

/// Request frame magic.
const CTRL_MAGIC: &[u8; 4] = b"SRNC";
/// Response frame magic.
const CTRL_RESPONSE_MAGIC: &[u8; 4] = b"SRNR";

/// Largest accepted control payload: must admit a full index artifact
/// (bounded by `binfmt`'s own 1 GiB payload cap plus framing).
pub const MAX_CTRL_FRAME_BYTES: u64 = (1 << 30) + (1 << 16);

/// Control opcodes.
mod op {
    /// Liveness probe; responds with the serving index generation.
    pub const PING: u8 = 1;
    /// Validate + publish an index artifact (`binfmt` bytes).
    pub const LOAD_INDEX: u8 = 2;
    /// Export up to `cap` live sessions (payload: `cap:u32le`).
    pub const EXPORT: u8 = 3;
    /// Import a session set (prepend semantics, see `Engine::import_session`).
    pub const IMPORT: u8 = 4;
    /// Physically erase a list of session ids (`count:u32le sid:u64le*`).
    pub const FORGET: u8 = 5;
}

/// How a node identifies and binds itself.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Member id in the cluster's rendezvous key space. Nodes `0..n` own
    /// exactly what `StickyRouter::with_members(0..n)` assigns them, which
    /// the conformance tests rely on.
    pub node_id: u64,
    /// Control-socket bind address (port 0 for ephemeral).
    pub ctrl_addr: String,
    /// Data-plane server configuration (bind address, workers, limits).
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
            ctrl_addr: String::from("127.0.0.1:0"),
            server: HttpServerConfig::default(),
            engine: EngineConfig::default(),
            rules: BusinessRules::none(),
        }
    }
}

/// A running serving node: data-plane HTTP server + control socket around
/// the process's cluster. Dropping it (or [`ServingNode::shutdown`])
/// drains the data plane and stops the control thread.
pub struct ServingNode {
    id: u64,
    cluster: Arc<ServingCluster>,
    server: Option<HttpServer>,
    data_addr: SocketAddr,
    ctrl_addr: SocketAddr,
    ctrl_stop: Arc<AtomicBool>,
    ctrl_thread: Option<JoinHandle<()>>,
}

impl ServingNode {
    /// Builds the cluster, starts the data-plane server and the control
    /// listener.
    pub fn start(index: Arc<SessionIndex>, config: NodeConfig) -> Result<Self, CoreError> {
        let cluster = Arc::new(ServingCluster::with_trace_config(
            index,
            1,
            config.engine,
            config.rules,
            TraceConfig::default(),
        )?);
        let server =
            HttpServer::serve(Arc::clone(&cluster), config.server).map_err(|e| {
                CoreError::InvalidConfig {
                    parameter: "node.server",
                    reason: format!("data plane failed to bind: {e}"),
                }
            })?;
        let data_addr = server.addr();
        let listener = TcpListener::bind(&config.ctrl_addr).map_err(|e| {
            CoreError::InvalidConfig {
                parameter: "node.ctrl_addr",
                reason: format!("control plane failed to bind: {e}"),
            }
        })?;
        let ctrl_addr = listener.local_addr().map_err(|e| CoreError::InvalidConfig {
            parameter: "node.ctrl_addr",
            reason: format!("control address unavailable: {e}"),
        })?;
        listener.set_nonblocking(true).map_err(|e| CoreError::InvalidConfig {
            parameter: "node.ctrl_addr",
            reason: format!("control listener mode: {e}"),
        })?;
        let ctrl_stop = Arc::new(AtomicBool::new(false));
        let ctrl_thread = {
            let cluster = Arc::clone(&cluster);
            let stop = Arc::clone(&ctrl_stop);
            std::thread::spawn(move || control_accept_loop(listener, cluster, stop))
        };
        Ok(Self {
            id: config.node_id,
            cluster,
            data_addr,
            server: Some(server),
            ctrl_addr,
            ctrl_stop,
            ctrl_thread: Some(ctrl_thread),
        })
    }

    /// The node's member id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The data-plane address.
    pub fn data_addr(&self) -> SocketAddr {
        self.data_addr
    }

    /// The control-socket address.
    pub fn ctrl_addr(&self) -> SocketAddr {
        self.ctrl_addr
    }

    /// The node's cluster (its engine plus telemetry).
    pub fn cluster(&self) -> &Arc<ServingCluster> {
        &self.cluster
    }

    /// Drains the data plane and stops the control thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        self.ctrl_stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.ctrl_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServingNode {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Accept loop for the control socket. Nonblocking accept + stop-flag poll;
/// each accepted connection gets its own thread (control connections are
/// one-per-router, not one-per-request, so the thread count is the router
/// count — the data plane's reactor rationale does not apply here).
fn control_accept_loop(
    listener: TcpListener,
    cluster: Arc<ServingCluster>,
    stop: Arc<AtomicBool>,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let cluster = Arc::clone(&cluster);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || control_connection(stream, cluster, stop));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Serves one keep-alive control connection until EOF, error or shutdown.
fn control_connection(
    mut stream: TcpStream,
    cluster: Arc<ServingCluster>,
    stop: Arc<AtomicBool>,
) {
    // Bounded reads so a dead peer cannot pin the thread forever; the
    // first-byte wait polls the stop flag between timeouts.
    if stream.set_read_timeout(Some(Duration::from_millis(250))).is_err() {
        return;
    }
    loop {
        let mut first = [0u8; 1];
        match stream.read(&mut first) {
            Ok(0) => return, // EOF: router closed the control channel.
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        // A frame has started: the rest must follow promptly.
        let Ok((opcode, payload)) = read_frame_rest(&mut stream, first[0]) else { return };
        let (status, body) = execute(&cluster, opcode, &payload);
        if write_response(&mut stream, status, &body).is_err() {
            return;
        }
    }
}

/// Reads the remainder of a request frame given its first magic byte.
fn read_frame_rest(stream: &mut TcpStream, first: u8) -> std::io::Result<(u8, Vec<u8>)> {
    let corrupt = || std::io::Error::new(std::io::ErrorKind::InvalidData, "bad control frame");
    if first != CTRL_MAGIC[0] {
        return Err(corrupt());
    }
    let mut head = [0u8; 3 + 1 + 4];
    stream.read_exact(&mut head)?;
    if head[..3] != CTRL_MAGIC[1..] {
        return Err(corrupt());
    }
    let opcode = head[3];
    let len = u64::from(u32::from_le_bytes(head[4..8].try_into().expect("4 bytes")));
    if len > MAX_CTRL_FRAME_BYTES {
        return Err(corrupt());
    }
    let mut payload = Vec::new();
    stream.take(len).read_to_end(&mut payload)?;
    if payload.len() as u64 != len {
        return Err(corrupt());
    }
    Ok((opcode, payload))
}

/// Writes one response frame.
fn write_response(stream: &mut TcpStream, status: u8, payload: &[u8]) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(9 + payload.len());
    frame.extend_from_slice(CTRL_RESPONSE_MAGIC);
    frame.push(status);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    stream.write_all(&frame)
}

/// Executes one control operation; returns `(status, payload)`.
fn execute(cluster: &ServingCluster, opcode: u8, payload: &[u8]) -> (u8, Vec<u8>) {
    match opcode {
        op::PING => {
            let generation = cluster.engine().index_handle().generation();
            (0, generation.to_le_bytes().to_vec())
        }
        op::LOAD_INDEX => match binfmt::read_index(payload) {
            Ok(index) => match cluster.reload_index(Arc::new(index)) {
                Ok(()) => {
                    let generation = cluster.engine().index_handle().generation();
                    (0, generation.to_le_bytes().to_vec())
                }
                Err(e) => (1, format!("index rejected: {e}").into_bytes()),
            },
            Err(e) => (1, format!("artifact rejected: {e}").into_bytes()),
        },
        op::EXPORT => {
            if payload.len() != 4 {
                return (1, b"export expects cap:u32le".to_vec());
            }
            let cap = u32::from_le_bytes(payload.try_into().expect("4 bytes")) as usize;
            let sessions = cluster.engine().export_sessions(cap);
            (0, encode_sessions(&sessions))
        }
        op::IMPORT => match decode_sessions(payload) {
            Ok(sessions) => {
                let n = sessions.len() as u32;
                for (sid, items) in sessions {
                    cluster.engine().import_session(sid, items);
                }
                (0, n.to_le_bytes().to_vec())
            }
            Err(e) => (1, e.into_bytes()),
        },
        op::FORGET => match decode_session_ids(payload) {
            Ok(sids) => {
                let mut dropped = 0u32;
                for sid in sids {
                    if cluster.engine().forget_session(sid) {
                        dropped += 1;
                    }
                }
                (0, dropped.to_le_bytes().to_vec())
            }
            Err(e) => (1, e.into_bytes()),
        },
        _ => (1, format!("unknown control opcode {opcode}").into_bytes()),
    }
}

/// Encodes a session set for the wire.
pub(crate) fn encode_sessions(sessions: &[(u64, Vec<ItemId>)]) -> Vec<u8> {
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
pub(crate) fn decode_sessions(bytes: &[u8]) -> Result<Vec<(u64, Vec<ItemId>)>, String> {
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

/// Encodes a bare session-id list (for FORGET).
pub(crate) fn encode_session_ids(sids: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + sids.len() * 8);
    out.extend_from_slice(&(sids.len() as u32).to_le_bytes());
    for sid in sids {
        out.extend_from_slice(&sid.to_le_bytes());
    }
    out
}

/// Decodes a bare session-id list.
pub(crate) fn decode_session_ids(bytes: &[u8]) -> Result<Vec<u64>, String> {
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

    fn u32(&mut self) -> Result<u32, String> {
        let end = self.at.checked_add(4).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else { return Err(String::from("truncated session set")) };
        let v = u32::from_le_bytes(self.bytes[self.at..end].try_into().expect("4 bytes"));
        self.at = end;
        Ok(v)
    }

    fn u64(&mut self) -> Result<u64, String> {
        let end = self.at.checked_add(8).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else { return Err(String::from("truncated session set")) };
        let v = u64::from_le_bytes(self.bytes[self.at..end].try_into().expect("8 bytes"));
        self.at = end;
        Ok(v)
    }
}

/// The router side of the control protocol: one keep-alive connection to a
/// node's control socket.
pub struct ControlClient {
    stream: TcpStream,
}

impl ControlClient {
    /// Connects with a bounded dial + I/O timeout.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Self { stream })
    }

    fn call(&mut self, opcode: u8, payload: &[u8]) -> std::io::Result<(u8, Vec<u8>)> {
        let mut frame = Vec::with_capacity(9 + payload.len());
        frame.extend_from_slice(CTRL_MAGIC);
        frame.push(opcode);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        self.stream.write_all(&frame)?;
        let corrupt =
            || std::io::Error::new(std::io::ErrorKind::InvalidData, "bad control response");
        let mut head = [0u8; 4 + 1 + 4];
        self.stream.read_exact(&mut head)?;
        if &head[..4] != CTRL_RESPONSE_MAGIC {
            return Err(corrupt());
        }
        let status = head[4];
        let len = u64::from(u32::from_le_bytes(head[5..9].try_into().expect("4 bytes")));
        if len > MAX_CTRL_FRAME_BYTES {
            return Err(corrupt());
        }
        let mut body = Vec::new();
        (&mut self.stream).take(len).read_to_end(&mut body)?;
        if body.len() as u64 != len {
            return Err(corrupt());
        }
        Ok((status, body))
    }

    fn expect_u64(response: (u8, Vec<u8>)) -> std::io::Result<u64> {
        let (status, body) = response;
        if status != 0 || body.len() != 8 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                String::from_utf8_lossy(&body).into_owned(),
            ));
        }
        Ok(u64::from_le_bytes(body[..8].try_into().expect("8 bytes")))
    }

    fn expect_u32(response: (u8, Vec<u8>)) -> std::io::Result<u32> {
        let (status, body) = response;
        if status != 0 || body.len() != 4 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                String::from_utf8_lossy(&body).into_owned(),
            ));
        }
        Ok(u32::from_le_bytes(body[..4].try_into().expect("4 bytes")))
    }

    /// Liveness probe; returns the node's serving index generation.
    pub fn ping(&mut self) -> std::io::Result<u64> {
        let response = self.call(op::PING, &[])?;
        Self::expect_u64(response)
    }

    /// Publishes an index artifact. `Ok(Ok(generation))` on success,
    /// `Ok(Err(reason))` when the node rejected the artifact (and keeps
    /// serving its old generation), `Err` on transport failure.
    pub fn load_index(&mut self, artifact: &[u8]) -> std::io::Result<Result<u64, String>> {
        let (status, body) = self.call(op::LOAD_INDEX, artifact)?;
        if status == 0 && body.len() == 8 {
            Ok(Ok(u64::from_le_bytes(body[..8].try_into().expect("8 bytes"))))
        } else {
            Ok(Err(String::from_utf8_lossy(&body).into_owned()))
        }
    }

    /// Exports up to `cap` live sessions from the node.
    pub fn export_sessions(&mut self, cap: u32) -> std::io::Result<Vec<(u64, Vec<ItemId>)>> {
        let (status, body) = self.call(op::EXPORT, &cap.to_le_bytes())?;
        if status != 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                String::from_utf8_lossy(&body).into_owned(),
            ));
        }
        decode_sessions(&body)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Imports a session set into the node; returns how many were applied.
    pub fn import_sessions(
        &mut self,
        sessions: &[(u64, Vec<ItemId>)],
    ) -> std::io::Result<u32> {
        let response = self.call(op::IMPORT, &encode_sessions(sessions))?;
        Self::expect_u32(response)
    }

    /// Physically erases sessions on the node; returns how many existed.
    pub fn forget_sessions(&mut self, sids: &[u64]) -> std::io::Result<u32> {
        let response = self.call(op::FORGET, &encode_session_ids(sids))?;
        Self::expect_u32(response)
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;
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

    #[test]
    fn ping_reports_the_index_generation() {
        let node = start_node();
        let mut ctrl =
            ControlClient::connect(node.ctrl_addr(), Duration::from_secs(2)).unwrap();
        assert_eq!(ctrl.ping().unwrap(), 1, "fresh node serves generation 1");
        node.shutdown();
    }

    #[test]
    fn load_index_publishes_a_valid_artifact_and_rejects_a_corrupt_one() {
        let node = start_node();
        let mut ctrl =
            ControlClient::connect(node.ctrl_addr(), Duration::from_secs(2)).unwrap();
        let mut artifact = Vec::new();
        binfmt::write_index(&seed_index(), &mut artifact).unwrap();

        let generation = ctrl.load_index(&artifact).unwrap().unwrap();
        assert_eq!(generation, 2, "publish bumps the generation");

        // Flip one payload byte: the node must reject it and keep serving.
        let mut corrupt = artifact.clone();
        let flip = corrupt.len() - 25;
        corrupt[flip] ^= 0x40;
        let rejection = ctrl.load_index(&corrupt).unwrap().unwrap_err();
        assert!(rejection.contains("rejected"), "{rejection}");
        assert_eq!(ctrl.ping().unwrap(), 2, "old generation keeps serving");

        // An artefact framed as format version 2 is refused by its version.
        let mut v2 = artifact.clone();
        let trailer = v2.len() - 24;
        for magic in [0, trailer] {
            v2[magic + 6] = 2;
        }
        let rejection = ctrl.load_index(&v2).unwrap().unwrap_err();
        assert!(rejection.contains("version 2"), "{rejection}");
        assert_eq!(ctrl.ping().unwrap(), 2, "old generation keeps serving");
        node.shutdown();
    }

    #[test]
    fn export_import_forget_hand_sessions_across_nodes() {
        let a = start_node();
        let b = start_node();
        // Give node A some session state through its data plane.
        let mut http = crate::transport::HttpClient::connect(a.data_addr()).unwrap();
        for item in [0u64, 1, 2] {
            let body =
                format!("{{\"session_id\": 77, \"item_id\": {item}, \"consent\": true}}");
            let (status, _) = http.post("/recommend", &body).unwrap();
            assert_eq!(status, 200);
        }
        let mut ctrl_a =
            ControlClient::connect(a.ctrl_addr(), Duration::from_secs(2)).unwrap();
        let mut ctrl_b =
            ControlClient::connect(b.ctrl_addr(), Duration::from_secs(2)).unwrap();
        let exported = ctrl_a.export_sessions(1_000).unwrap();
        assert_eq!(exported.len(), 1);
        assert_eq!(exported[0].0, 77);
        assert_eq!(exported[0].1.len(), 3);

        assert_eq!(ctrl_b.import_sessions(&exported).unwrap(), 1);
        assert_eq!(b.cluster().live_sessions(), 1);
        assert_eq!(ctrl_a.forget_sessions(&[77]).unwrap(), 1);
        assert_eq!(a.cluster().live_sessions(), 0);
        a.shutdown();
        b.shutdown();
    }
}
