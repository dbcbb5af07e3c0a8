//! The router's upstream side: a pooled keep-alive HTTP client per node.
//!
//! A serving node is reached over its data socket by a [`RemotePod`], which
//! speaks the serving HTTP protocol through a bounded pool of
//! [`HttpClient`] connections. A proxied `POST /recommend` runs the same
//! pipeline on the node that an in-process call runs on an
//! [`Engine`](crate::Engine), and the socket conformance suite checks the
//! responses are byte-identical (`tests/cluster_failover.rs`).
//!
//! [`RemotePod`] is a concrete type, not an implementation of a transport
//! trait: [`ServingCluster`](crate::ServingCluster) calls its engines
//! directly and the router tier ([`crate::routerd`]) is the only caller
//! here. A seam goes in when there is a second implementation to put
//! behind it (ROADMAP item 4's fault-injecting fake).
//!
//! # Pool discipline
//!
//! [`RemotePod`]'s connection pool follows the checkout/checkin pattern:
//! the mutex guards only the idle-connection vector — a connection is
//! *popped* under the guard, the guard is dropped, and all socket I/O
//! happens on the checked-out connection outside any lock. The concurrency
//! analyzer's reactor-blocking rule depends on this: a guard held across
//! an upstream write would serialise every proxied request behind one
//! socket's flow control.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

use parking_lot::Mutex;

use serenade_core::ItemScore;

use crate::engine::RecommendRequest;
use crate::error::ServingError;
use crate::json::{self, JsonValue};

/// A minimal keep-alive HTTP client: what [`RemotePod`] pools, and what the
/// load generator and the socket tests drive servers with.
///
/// One socket, one fd: requests are written straight through the read
/// buffer's inner stream (`get_mut`), which is sound because a response is
/// always fully consumed before the next request is written. The connection
/// ramp opens thousands of these, so the old `try_clone` (a second fd per
/// connection) would halve the fleet the fd limit allows.
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    addr: SocketAddr,
}

impl HttpClient {
    /// Connects to a server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { reader: BufReader::new(stream), addr })
    }

    /// Issues a POST and returns `(status, body)`.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        let writer = self.reader.get_mut();
        write!(
            writer,
            "POST {path} HTTP/1.1\r\nhost: {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
            self.addr,
            body.len()
        )?;
        writer.flush()?;
        self.read_response()
    }

    /// Issues a DELETE and returns `(status, body)` (the session-unlearning
    /// endpoint `DELETE /ingest/session/{id}` is the only consumer).
    pub fn delete(&mut self, path: &str) -> std::io::Result<(u16, String)> {
        let writer = self.reader.get_mut();
        write!(writer, "DELETE {path} HTTP/1.1\r\nhost: {}\r\n\r\n", self.addr)?;
        writer.flush()?;
        self.read_response()
    }

    /// Issues a GET and returns `(status, body)`.
    pub fn get(&mut self, path: &str) -> std::io::Result<(u16, String)> {
        let writer = self.reader.get_mut();
        write!(writer, "GET {path} HTTP/1.1\r\nhost: {}\r\n\r\n", self.addr)?;
        writer.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<(u16, String)> {
        let mut line = String::new();
        loop {
            line.clear();
            match self.reader.read_line(&mut line) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed",
                    ))
                }
                Ok(_) => break,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue
                }
                Err(e) => return Err(e),
            }
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status"))?;
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            self.reader.read_line(&mut header)?;
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().unwrap_or(0);
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok((
            status,
            String::from_utf8(body).map_err(|_| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "non-utf8 body")
            })?,
        ))
    }
}

/// Idle keep-alive connections retained per remote pod. Connections beyond
/// the bound are dropped on checkin instead of pooled — the pool can never
/// hold more sockets than `MAX_IDLE` while any number may be checked out
/// concurrently (each request that finds the pool empty dials its own).
const MAX_IDLE_CONNECTIONS: usize = 8;

/// A serving node reached over HTTP on its data socket.
pub struct RemotePod {
    addr: SocketAddr,
    /// Idle keep-alive connections. LIFO so the hottest (most recently
    /// used, least likely to have been idle-reaped by the node) connection
    /// is reused first.
    idle: Mutex<Vec<HttpClient>>,
}

impl RemotePod {
    /// Creates a client for the node at `addr`. No connection is opened
    /// until the first request — a router may be constructed before its
    /// nodes finish binding.
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, idle: Mutex::new(Vec::new()) }
    }

    /// The node's data-plane address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Checks a connection out of the pool, dialing a fresh one when the
    /// pool is empty. The pool guard is dropped before any socket I/O.
    fn checkout(&self) -> std::io::Result<HttpClient> {
        let pooled = self.idle.lock().pop();
        match pooled {
            Some(client) => Ok(client),
            None => HttpClient::connect(self.addr),
        }
    }

    /// Returns a healthy connection to the pool; drops it when the pool is
    /// at its bound.
    fn checkin(&self, client: HttpClient) {
        let mut idle = self.idle.lock();
        if idle.len() < MAX_IDLE_CONNECTIONS {
            idle.push(client);
        }
    }

    /// Idle connections currently pooled (observability/tests).
    pub fn idle_connections(&self) -> usize {
        self.idle.lock().len()
    }

    /// One proxied POST over a pooled connection. A connection that errors
    /// mid-exchange is dropped, never pooled again — its stream state is
    /// unknowable.
    pub fn post(&self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        let mut client = self.checkout()?;
        match client.post(path, body) {
            Ok(response) => {
                self.checkin(client);
                Ok(response)
            }
            Err(e) => Err(e),
        }
    }

    /// One proxied GET over a pooled connection.
    pub fn get(&self, path: &str) -> std::io::Result<(u16, String)> {
        let mut client = self.checkout()?;
        match client.get(path) {
            Ok(response) => {
                self.checkin(client);
                Ok(response)
            }
            Err(e) => Err(e),
        }
    }

    /// One proxied DELETE over a pooled connection.
    pub fn delete(&self, path: &str) -> std::io::Result<(u16, String)> {
        let mut client = self.checkout()?;
        match client.delete(path) {
            Ok(response) => {
                self.checkin(client);
                Ok(response)
            }
            Err(e) => Err(e),
        }
    }

    /// One proxied `POST /recommend`. Anything but a parsable `200` is an
    /// [`ServingError::Upstream`] — the router's liveness signal.
    pub fn recommend(&self, req: RecommendRequest) -> Result<Vec<ItemScore>, ServingError> {
        let body = render_recommend_request(&req);
        let (status, response) = self
            .post("/recommend", &body)
            .map_err(|e| ServingError::Upstream(format!("{}: {e}", self.addr)))?;
        if status != 200 {
            return Err(ServingError::Upstream(format!(
                "{}: status {status}: {response}",
                self.addr
            )));
        }
        parse_recommendations(&response)
            .map_err(|e| ServingError::Upstream(format!("{}: {e}", self.addr)))
    }
}

/// Renders one [`RecommendRequest`] as the `POST /recommend` body.
pub(crate) fn render_recommend_request(req: &RecommendRequest) -> String {
    JsonValue::object([
        ("session_id", JsonValue::Number(req.session_id as f64)),
        ("item_id", JsonValue::Number(req.item as f64)),
        ("consent", JsonValue::Bool(req.consent)),
        ("filter_adult", JsonValue::Bool(req.filter_adult)),
    ])
    .to_json()
}

/// Parses a `POST /recommend` success body back into scores — the inverse
/// of the server's response rendering. `f32 → f64 → json → f64 → f32` is
/// lossless, so proxied scores compare equal to locally computed ones.
pub(crate) fn parse_recommendations(body: &str) -> Result<Vec<ItemScore>, String> {
    let v = json::parse(body).map_err(|e| format!("invalid json: {e}"))?;
    let recs = v
        .get("recommendations")
        .and_then(JsonValue::as_array)
        .ok_or("missing recommendations array")?;
    recs.iter()
        .map(|r| {
            let item = r
                .get("item_id")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| String::from("missing item_id"))?;
            let score = r
                .get("score")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| String::from("missing score"))?;
            Ok(ItemScore { item, score: score as f32 })
        })
        .collect()
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;

    #[test]
    fn recommend_request_roundtrips_through_the_wire_format() {
        let req = RecommendRequest {
            session_id: 71,
            item: 123,
            consent: false,
            filter_adult: true,
        };
        let body = render_recommend_request(&req);
        let parsed = crate::server::conn::parse_recommend_request(&body).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn recommendations_roundtrip_through_the_wire_format() {
        let recs = vec![
            ItemScore { item: 5, score: 0.125 },
            ItemScore { item: 9, score: 1.0 / 3.0 },
        ];
        let body = crate::server::conn::render_recommendations(&recs);
        assert_eq!(parse_recommendations(&body).unwrap(), recs);
        assert!(parse_recommendations("not json").is_err());
        assert!(parse_recommendations("{}").is_err());
    }

    #[test]
    fn pool_checkin_is_bounded() {
        // No live server needed: the pool logic is independent of whether
        // connections work. Dial nothing, exercise the bound directly.
        let pod = RemotePod::new("127.0.0.1:1".parse().unwrap());
        assert_eq!(pod.idle_connections(), 0);
        assert!(pod.post("/recommend", "{}").is_err(), "nothing listens on port 1");
        assert_eq!(pod.idle_connections(), 0, "failed connections are never pooled");
    }
}
