//! The wire between router and node: request framing, an incremental
//! response reader, and the blocking keep-alive client built on both.
//!
//! A forwarded `POST /recommend` never comes through a client object: the
//! router's reactor owns non-blocking upstream connections itself (see
//! [`crate::server`]) and uses only [`render_request`] and [`ResponseBuf`]
//! from here, relaying the node's body bytes undecoded. The node runs the
//! same pipeline an in-process call runs on an [`Engine`](crate::Engine), and
//! the socket conformance suite checks the responses are byte-identical
//! (`tests/cluster_failover.rs`, `tests/execution_paths.rs`).
//!
//! Everything else the router says to a node — the health probe, artefact
//! publishes, session handoff, the `/ingest` proxy and the unlearning
//! broadcast — goes through that node's one [`RemotePod`]: a bounded pool of
//! [`HttpClient`]s on the node's data port, whose dial and I/O are bounded by
//! the router's `probe_timeout`, so a node that accepts and never answers
//! costs the caller that long and no longer. Bodies are bytes: the admin
//! routes carry `application/octet-stream` (an index artefact, a session
//! set), everything else JSON.
//!
//! # Pool discipline
//!
//! [`RemotePod`]'s connection pool follows the checkout/checkin pattern:
//! the mutex guards only the idle-connection vector — a connection is
//! *popped* under the guard, the guard is dropped, and all socket I/O
//! happens on the checked-out connection outside any lock. The concurrency
//! analyzer's lock-held-across-blocking rule depends on this: a guard held
//! across an upstream write would serialise every proxied request behind
//! one socket's flow control.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use parking_lot::Mutex;

use crate::engine::RecommendRequest;
use crate::json::JsonValue;
use crate::server::conn::CONTENT_TYPE_JSON;

/// A request body: `(content type, bytes)`.
pub type Body<'a> = Option<(&'a str, &'a [u8])>;

/// Frames one HTTP/1.1 request into `out` (cleared first).
pub(crate) fn render_request(
    out: &mut Vec<u8>,
    method: &str,
    path: &str,
    host: SocketAddr,
    body: Body<'_>,
) {
    out.clear();
    let _ = write!(out, "{method} {path} HTTP/1.1\r\nhost: {host}\r\n");
    if let Some((content_type, body)) = body {
        let length = body.len();
        let _ = write!(out, "content-type: {content_type}\r\ncontent-length: {length}\r\n\r\n");
        out.extend_from_slice(body);
    } else {
        out.extend_from_slice(b"\r\n");
    }
}

/// Largest response body a [`ResponseBuf`] accepts (a `/metrics` page is
/// the biggest thing a node sends); a longer `content-length` is
/// [`Progress::Malformed`], as is a head that has not ended within
/// [`MAX_RESPONSE_HEAD_BYTES`].
const MAX_RESPONSE_BYTES: usize = 64 << 20;
const MAX_RESPONSE_HEAD_BYTES: usize = 64 << 10;

/// How far a [`ResponseBuf`] has got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Progress {
    /// More bytes are needed.
    Incomplete,
    /// One whole response is buffered.
    Complete,
    /// The bytes are not an HTTP/1.1 response with a `content-length`.
    Malformed,
}

/// The parsed head of a buffered response.
#[derive(Debug, Clone, Copy)]
struct Head {
    status: u16,
    /// Offset of the first body byte in the buffer.
    body_start: usize,
    content_length: usize,
    /// The sender asked to close after this response.
    close: bool,
}

/// Incremental reader of `content-length`-framed HTTP/1.1 responses: bytes
/// go in through [`feed`](Self::feed) as a socket yields them, and
/// [`poll`](Self::poll) says when one response is whole. The buffer is
/// reused across responses, so a keep-alive connection reads without
/// allocating once it has seen its largest response.
#[derive(Debug, Default)]
pub(crate) struct ResponseBuf {
    buf: Vec<u8>,
    head: Option<Head>,
}

impl ResponseBuf {
    /// Appends bytes read from the connection.
    pub(crate) fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Parses what is buffered so far.
    pub(crate) fn poll(&mut self) -> Progress {
        if self.head.is_none() {
            let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
                return if self.buf.len() > MAX_RESPONSE_HEAD_BYTES {
                    Progress::Malformed
                } else {
                    Progress::Incomplete
                };
            };
            match parse_head(&self.buf[..head_end], head_end + 4) {
                Some(head) => self.head = Some(head),
                None => return Progress::Malformed,
            }
        }
        match self.head {
            Some(head) if self.buf.len() - head.body_start >= head.content_length => {
                Progress::Complete
            }
            _ => Progress::Incomplete,
        }
    }

    /// Status code of the [`Progress::Complete`] response (`0` before).
    pub(crate) fn status(&self) -> u16 {
        self.head.map_or(0, |h| h.status)
    }

    /// Body bytes of the [`Progress::Complete`] response.
    pub(crate) fn body(&self) -> &[u8] {
        match self.head {
            Some(h) => self.buf.get(h.body_start..h.body_start + h.content_length).unwrap_or(&[]),
            None => &[],
        }
    }

    /// Whether the connection can carry another exchange after this
    /// response: the sender did not ask to close and sent nothing beyond it.
    pub(crate) fn reusable(&self) -> bool {
        self.head.is_some_and(|h| !h.close && self.buf.len() == h.body_start + h.content_length)
    }

    /// Drops the [`Progress::Complete`] response, keeping whatever followed
    /// it (and the allocation) for the next one.
    pub(crate) fn consume(&mut self) {
        if let Some(h) = self.head.take() {
            let end = (h.body_start + h.content_length).min(self.buf.len());
            self.buf.drain(..end);
        }
    }
}

/// Parses the status line and headers in `head` (without the blank line);
/// `body_start` is where the body begins in the enclosing buffer.
fn parse_head(head: &[u8], body_start: usize) -> Option<Head> {
    let head = std::str::from_utf8(head).ok()?;
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split_whitespace().nth(1)?.parse().ok()?;
    let mut content_length = 0usize;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().ok().filter(|n| *n <= MAX_RESPONSE_BYTES)?;
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    Some(Head { status, body_start, content_length, close })
}

/// A minimal blocking keep-alive HTTP client: what [`RemotePod`] pools, and
/// what the load generator and the socket tests drive servers with.
///
/// One socket, one fd (the connection ramp opens thousands of these), one
/// `write` per request: the frame is rendered into a reused buffer first.
pub struct HttpClient {
    stream: TcpStream,
    addr: SocketAddr,
    out: Vec<u8>,
    response: ResponseBuf,
}

impl HttpClient {
    /// Connects to a server. No timeout applies: a caller that must not
    /// wait forever uses [`HttpClient::connect_timeout`].
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        Self::over(TcpStream::connect(addr)?, addr)
    }

    /// Connects with `timeout` bounding the dial and every later read and
    /// write; an exchange that exceeds it fails with the timeout error.
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        let timeout = timeout.max(Duration::from_millis(1));
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Self::over(stream, addr)
    }

    fn over(stream: TcpStream, addr: SocketAddr) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(Self { stream, addr, out: Vec::new(), response: ResponseBuf::default() })
    }

    /// Issues a POST of a JSON body and returns `(status, body)`.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        text(self.exchange("POST", path, Some((CONTENT_TYPE_JSON, body.as_bytes()))))
    }

    /// Issues a DELETE and returns `(status, body)` (the session-unlearning
    /// endpoint `DELETE /ingest/session/{id}` is the only consumer).
    pub fn delete(&mut self, path: &str) -> std::io::Result<(u16, String)> {
        text(self.exchange("DELETE", path, None))
    }

    /// Issues a GET and returns `(status, body)`.
    pub fn get(&mut self, path: &str) -> std::io::Result<(u16, String)> {
        text(self.exchange("GET", path, None))
    }

    /// One request/response exchange with bytes either way: what
    /// [`post`](Self::post), [`get`](Self::get) and [`delete`](Self::delete)
    /// wrap, and how the admin routes' binary bodies travel.
    pub fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: Body<'_>,
    ) -> std::io::Result<(u16, Vec<u8>)> {
        use std::io::{Error, ErrorKind};
        render_request(&mut self.out, method, path, self.addr, body);
        let written = self.stream.write_all(&self.out);
        if self.out.capacity() > RETAINED_BYTES {
            // An artefact upload is not kept resident on a pooled connection.
            self.out = Vec::new();
        }
        written?;
        let mut chunk = [0u8; 4096];
        loop {
            match self.response.poll() {
                Progress::Complete => break,
                Progress::Malformed => {
                    return Err(Error::new(ErrorKind::InvalidData, "malformed response"))
                }
                Progress::Incomplete => {}
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(Error::new(ErrorKind::UnexpectedEof, "connection closed")),
                Ok(n) => self.response.feed(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // A read timeout (`WouldBlock`/`TimedOut`) is the error it is.
                Err(e) => return Err(e),
            }
        }
        let answer = (self.response.status(), self.response.body().to_vec());
        self.response.consume();
        if self.response.buf.capacity() > RETAINED_BYTES && self.response.buf.is_empty() {
            // Nor is a session export's answer.
            self.response = ResponseBuf::default();
        }
        Ok(answer)
    }
}

/// Request buffers beyond this are dropped after use rather than reused.
const RETAINED_BYTES: usize = 1 << 20;

/// A text exchange's answer: the body must be UTF-8.
fn text(answer: std::io::Result<(u16, Vec<u8>)>) -> std::io::Result<(u16, String)> {
    let (status, body) = answer?;
    let body = String::from_utf8(body)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-utf8 body"))?;
    Ok((status, body))
}

/// Idle keep-alive connections retained per remote pod. Connections beyond
/// the bound are dropped on checkin instead of pooled — the pool can never
/// hold more sockets than `MAX_IDLE` while any number may be checked out
/// concurrently (each request that finds the pool empty dials its own).
const MAX_IDLE_CONNECTIONS: usize = 8;

/// A serving node reached over HTTP on its data port, by blocking calls
/// from router workers and the prober.
pub struct RemotePod {
    addr: SocketAddr,
    /// Bound on the dial and on each read and write of every call.
    timeout: Duration,
    /// Idle keep-alive connections. LIFO so the hottest (most recently
    /// used, least likely to have been idle-reaped by the node) connection
    /// is reused first.
    idle: Mutex<Vec<HttpClient>>,
}

impl RemotePod {
    /// Creates a client for the node at `addr`. No connection is opened
    /// until the first request — a router may be constructed before its
    /// nodes finish binding.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Self {
        Self { addr, timeout, idle: Mutex::new(Vec::new()) }
    }

    /// The address this pod dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Idle connections currently pooled (observability/tests).
    pub fn idle_connections(&self) -> usize {
        self.idle.lock().len()
    }

    /// One exchange over a pooled connection, dialling one when the pool is
    /// empty; the pool guard is dropped before any socket I/O. A pooled
    /// connection the node has closed since (idle reaping, a restart) fails
    /// before any answer, and the exchange is made once more on a fresh
    /// dial. A connection that errors is dropped, never pooled again — its
    /// stream state is unknowable; a healthy one goes back unless the pool
    /// is at its bound.
    pub fn call(
        &self,
        method: &str,
        path: &str,
        body: Body<'_>,
    ) -> std::io::Result<(u16, Vec<u8>)> {
        use std::io::ErrorKind::{BrokenPipe, ConnectionAborted, ConnectionReset, UnexpectedEof};
        let pooled = self.idle.lock().pop();
        let dial = || HttpClient::connect_timeout(self.addr, self.timeout);
        let reused = pooled.is_some();
        let mut client = match pooled {
            Some(client) => client,
            None => dial()?,
        };
        let mut answer = client.exchange(method, path, body);
        let stale = |e: &std::io::Error| {
            matches!(e.kind(), UnexpectedEof | ConnectionReset | BrokenPipe | ConnectionAborted)
        };
        if reused && answer.as_ref().is_err_and(stale) {
            client = dial()?;
            answer = client.exchange(method, path, body);
        }
        let answer = answer?;
        let mut idle = self.idle.lock();
        if idle.len() < MAX_IDLE_CONNECTIONS {
            idle.push(client);
        }
        Ok(answer)
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

    fn fed(chunks: &[&[u8]]) -> (ResponseBuf, Vec<Progress>) {
        let mut buf = ResponseBuf::default();
        let progress = chunks
            .iter()
            .map(|chunk| {
                buf.feed(chunk);
                buf.poll()
            })
            .collect();
        (buf, progress)
    }

    #[test]
    fn response_buf_reads_a_response_fed_in_pieces() {
        let (buf, progress) = fed(&[
            b"HTTP/1.1 200 OK\r\ncontent-le",
            b"ngth: 5\r\nconnection: keep-alive\r\n\r\nhe",
            b"llo",
        ]);
        assert_eq!(progress, [Progress::Incomplete, Progress::Incomplete, Progress::Complete]);
        assert_eq!((buf.status(), buf.body()), (200, &b"hello"[..]));
        assert!(buf.reusable());
    }

    #[test]
    fn response_buf_keeps_what_follows_a_response_and_flags_the_connection() {
        let (mut buf, progress) =
            fed(&[b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 2\r\n\r\nnoHTTP/1.1 200 OK\r\n"]);
        assert_eq!(progress, [Progress::Complete]);
        assert_eq!((buf.status(), buf.body()), (503, &b"no"[..]));
        assert!(!buf.reusable(), "bytes beyond the response: the exchange is out of step");
        buf.consume();
        assert_eq!(buf.poll(), Progress::Incomplete);
        buf.feed(b"connection: close\r\n\r\n");
        assert_eq!(buf.poll(), Progress::Complete);
        assert_eq!((buf.status(), buf.body()), (200, &b""[..]));
        assert!(!buf.reusable(), "the sender asked to close");
    }

    #[test]
    fn response_buf_rejects_what_is_not_a_bounded_response() {
        assert_eq!(fed(&[b"garbage\r\n\r\n"]).1, [Progress::Malformed]);
        assert_eq!(fed(&[b"HTTP/1.1 abc OK\r\n\r\n"]).1, [Progress::Malformed]);
        assert_eq!(
            fed(&[b"HTTP/1.1 200 OK\r\ncontent-length: 99999999999\r\n\r\n"]).1,
            [Progress::Malformed],
            "a declared length beyond the cap is refused before anything is buffered for it"
        );
        let endless = vec![b'x'; MAX_RESPONSE_HEAD_BYTES + 1];
        assert_eq!(fed(&[&endless]).1, [Progress::Malformed]);
    }

    #[test]
    fn a_bounded_client_reports_a_silent_server_as_a_timeout() {
        // Accepts, reads nothing, answers nothing.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let pod = RemotePod::new(addr, Duration::from_millis(100));
        let started = std::time::Instant::now();
        let err = pod.call("POST", "/ingest", Some((CONTENT_TYPE_JSON, b"{}"))).unwrap_err();
        assert!(
            matches!(err.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
            "{err:?}"
        );
        assert!(started.elapsed() < Duration::from_secs(2), "{:?}", started.elapsed());
        assert_eq!(pod.idle_connections(), 0, "a timed-out connection is never pooled");
        drop(listener);
    }

    #[test]
    fn a_pooled_connection_the_node_closed_is_redialled_once() {
        // Answers one request per connection, then hangs up: every pooled
        // connection is stale by the time it is reused.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let node = std::thread::spawn(move || {
            for _ in 0..2 {
                let (mut stream, _) = listener.accept().unwrap();
                let mut buf = [0u8; 1024];
                assert!(stream.read(&mut buf).unwrap() > 0);
                stream.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok").unwrap();
            }
        });
        let pod = RemotePod::new(addr, Duration::from_secs(2));
        assert_eq!(pod.call("GET", "/health", None).unwrap(), (200, b"ok".to_vec()));
        assert_eq!(pod.idle_connections(), 1);
        assert_eq!(pod.call("GET", "/health", None).unwrap(), (200, b"ok".to_vec()));
        node.join().unwrap();
    }

    #[test]
    fn pool_checkin_is_bounded() {
        // No live server needed: the pool logic is independent of whether
        // connections work. Dial nothing, exercise the bound directly.
        let pod = RemotePod::new("127.0.0.1:1".parse().unwrap(), Duration::from_millis(100));
        assert_eq!(pod.idle_connections(), 0);
        assert!(pod.call("GET", "/health", None).is_err(), "nothing listens on port 1");
        assert_eq!(pod.idle_connections(), 0, "failed connections are never pooled");
    }
}
