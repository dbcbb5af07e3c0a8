//! Incremental, bounded HTTP/1.1 request parser.
//!
//! The parser is a pure state machine over bytes — no I/O, no clock — so the
//! connection driver ([`crate::server::conn`]) owns all socket and timeout
//! concerns and the parser can be property-tested exhaustively: a valid
//! request split at arbitrary byte boundaries parses identically, and *no*
//! byte stream panics or escapes without either a request or a 4xx reject.
//!
//! Bounds (the seed's `read_line` into a growable `String` let one client
//! stream an unbounded header line into worker memory):
//!
//! * total request-head bytes (request line + headers) — exceeding it is
//!   `431 Request Header Fields Too Large`;
//! * header count — `431`;
//! * declared body size — `413 Payload Too Large`, judged from the head
//!   before any body byte is buffered; a request under `/admin/` may declare
//!   up to its own cap instead (a node's artefact upload);
//! * a request line without both a method and a path token is
//!   `400 Bad Request` (the seed parsed these as empty strings and fell
//!   through to a misleading `404`).
//!
//! A body must be UTF-8 (`400` and close otherwise) unless the request
//! declares `content-type: application/octet-stream`.
//!
//! Pipelined requests are supported: bytes beyond the current request stay
//! buffered and the next [`Parser::poll`] resumes on them.

/// Parser limits, taken from [`crate::server::HttpServerConfig`].
#[derive(Debug, Clone, Copy)]
pub struct ParserLimits {
    /// Cap on the request head (request line + all headers + separators).
    pub max_head_bytes: usize,
    /// Cap on the number of header lines.
    pub max_headers: usize,
    /// Cap on the declared `Content-Length`.
    pub max_body_bytes: usize,
    /// Cap on the declared `Content-Length` of a request under `/admin/`;
    /// the larger of this and `max_body_bytes` applies there.
    pub max_admin_body_bytes: usize,
}

impl Default for ParserLimits {
    fn default() -> Self {
        Self {
            max_head_bytes: 8 * 1024,
            max_headers: 64,
            max_body_bytes: 1 << 20,
            max_admin_body_bytes: 0,
        }
    }
}

/// A fully framed request, ready for dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedRequest {
    /// Request method token (e.g. `GET`).
    pub method: String,
    /// Request target (e.g. `/recommend`).
    pub path: String,
    /// Request body: UTF-8 unless the request declared
    /// `application/octet-stream`.
    pub body: Vec<u8>,
    /// Whether the client asked for `connection: close`.
    pub close: bool,
}

impl ParsedRequest {
    /// The body as text; a binary body that is not UTF-8 reads as empty.
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or_default()
    }
}

/// A protocol violation: respond with `status` and close the connection
/// (the stream position may be mid-frame, so keep-alive cannot continue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reject {
    /// HTTP status to answer with (always 4xx).
    pub status: u16,
    /// Short human-readable reason for the response body.
    pub message: &'static str,
}

/// What [`Parser::poll`] produced.
#[derive(Debug, PartialEq, Eq)]
pub enum Poll {
    /// More bytes are needed to complete the request head.
    NeedHead,
    /// The head is parsed; more bytes are needed to complete the body.
    NeedBody,
    /// A complete request.
    Request(ParsedRequest),
    /// A framing violation; answer and close.
    Reject(Reject),
}

/// Which frame section the parser is currently consuming. Mirrors the
/// connection state machine's ReadingHead/ReadingBody split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Head,
    Body { content_length: usize, close: bool, binary: bool },
}

/// Incremental request parser. Feed bytes as they arrive, poll for events.
#[derive(Debug)]
pub struct Parser {
    limits: ParserLimits,
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by completed frames (drained lazily
    /// so pipelined requests do not recopy on every poll).
    consumed: usize,
    section: Section,
    /// Method/path captured when the head completed.
    head: Option<(String, String)>,
    /// Set on the first framing violation; every later poll repeats it.
    rejected: Option<Reject>,
}

impl Parser {
    /// Creates a parser with the given limits.
    pub fn new(limits: ParserLimits) -> Self {
        Self {
            limits,
            buf: Vec::new(),
            consumed: 0,
            section: Section::Head,
            head: None,
            rejected: None,
        }
    }

    /// Appends freshly read bytes to the parse buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing: keeps the buffer bounded by
        // max_head_bytes + max_body_bytes regardless of pipelining depth.
        if self.consumed > 0 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// True if buffered bytes from a previous read are still unconsumed
    /// (a pipelined request may already be complete without another read).
    pub fn has_buffered(&self) -> bool {
        self.buf.len() > self.consumed
    }

    /// True while the parser is mid-request (some bytes of the current
    /// frame have arrived but the frame is incomplete). Distinguishes an
    /// *idle* keep-alive connection from a *stalled* one for timeouts.
    pub fn mid_request(&self) -> bool {
        self.has_buffered() || !matches!(self.section, Section::Head)
    }

    /// Advances the state machine over the buffered bytes.
    ///
    /// After a [`Poll::Reject`] the parser is poisoned: every later poll
    /// repeats the reject (the stream position is unknowable).
    pub fn poll(&mut self) -> Poll {
        if let Some(reject) = self.rejected {
            return Poll::Reject(reject);
        }
        loop {
            match self.section {
                Section::Head => match self.parse_head() {
                    HeadStep::NeedMore => return Poll::NeedHead,
                    HeadStep::Reject(r) => {
                        self.rejected = Some(r);
                        return Poll::Reject(r);
                    }
                    HeadStep::Done => {} // fall through to the body section
                },
                Section::Body { content_length, close, binary } => {
                    let available = self.buf.len() - self.consumed;
                    if available < content_length {
                        return Poll::NeedBody;
                    }
                    let end = self.consumed + content_length;
                    if !binary && std::str::from_utf8(&self.buf[self.consumed..end]).is_err() {
                        let reject = Reject {
                            status: 400,
                            message: "request body is not valid utf-8",
                        };
                        self.rejected = Some(reject);
                        return Poll::Reject(reject);
                    }
                    let body = if content_length > self.limits.max_body_bytes {
                        // A body past the ordinary cap (an admin upload)
                        // leaves with the buffer it grew, so a long-lived
                        // connection does not keep that memory. Judged by
                        // the frame, not the buffer: a deep pipeline of
                        // small frames must cost each frame only its bytes.
                        let rest = self.buf.split_off(end);
                        let mut body = std::mem::replace(&mut self.buf, rest);
                        body.drain(..self.consumed);
                        self.consumed = 0;
                        body
                    } else {
                        let body = self.buf[self.consumed..end].to_vec();
                        self.consumed = end;
                        body
                    };
                    self.section = Section::Head;
                    let Some((method, path)) = self.head.take() else {
                        // Unreachable by construction (the head is stored
                        // before entering the Body section); reject rather
                        // than panic on the request path.
                        let reject = Reject {
                            status: 400,
                            message: "internal parser state error",
                        };
                        self.rejected = Some(reject);
                        return Poll::Reject(reject);
                    };
                    return Poll::Request(ParsedRequest { method, path, body, close });
                }
            }
        }
    }

    /// Tries to complete the request head from the buffer.
    fn parse_head(&mut self) -> HeadStep {
        let bytes = &self.buf[self.consumed..];
        let Some((head_len, term_len)) = find_head_end(bytes) else {
            // No terminator yet: the head may still be streaming, but it
            // must terminate within the byte budget.
            if bytes.len() > self.limits.max_head_bytes {
                return HeadStep::Reject(Reject {
                    status: 431,
                    message: "request head exceeds the configured size limit",
                });
            }
            return HeadStep::NeedMore;
        };
        if head_len > self.limits.max_head_bytes {
            return HeadStep::Reject(Reject {
                status: 431,
                message: "request head exceeds the configured size limit",
            });
        }
        let head = &bytes[..head_len];
        let Ok(head) = std::str::from_utf8(head) else {
            return HeadStep::Reject(Reject {
                status: 400,
                message: "request head is not valid utf-8",
            });
        };

        // Split on LF and strip trailing CRs, which handles both CRLF and
        // bare-LF clients uniformly.
        let mut it = head.split('\n').map(|l| l.trim_end_matches('\r'));
        let request_line = it.next().unwrap_or_default();

        let mut parts = request_line.split_whitespace();
        let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
            return HeadStep::Reject(Reject {
                status: 400,
                message: "malformed request line: missing method or path",
            });
        };
        if method.is_empty() || path.is_empty() {
            return HeadStep::Reject(Reject {
                status: 400,
                message: "malformed request line: missing method or path",
            });
        }

        let mut content_length = 0usize;
        let mut close = false;
        let mut binary = false;
        let mut header_count = 0usize;
        for line in it {
            if line.is_empty() {
                continue;
            }
            header_count += 1;
            if header_count > self.limits.max_headers {
                return HeadStep::Reject(Reject {
                    status: 431,
                    message: "too many request headers",
                });
            }
            let Some((name, value)) = line.split_once(':') else {
                return HeadStep::Reject(Reject {
                    status: 400,
                    message: "malformed header line",
                });
            };
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim();
            if name == "content-length" {
                match value.parse::<usize>() {
                    Ok(n) => content_length = n,
                    Err(_) => {
                        return HeadStep::Reject(Reject {
                            status: 400,
                            message: "malformed content-length",
                        })
                    }
                }
            } else if name == "connection" && value.eq_ignore_ascii_case("close") {
                close = true;
            } else if name == "content-type" {
                binary = value.eq_ignore_ascii_case("application/octet-stream");
            }
        }
        let max_body_bytes = if path.starts_with("/admin/") {
            self.limits.max_body_bytes.max(self.limits.max_admin_body_bytes)
        } else {
            self.limits.max_body_bytes
        };
        if content_length > max_body_bytes {
            return HeadStep::Reject(Reject {
                status: 413,
                message: "request body too large",
            });
        }
        self.consumed += head_len + term_len;
        self.head = Some((method.to_string(), path.to_string()));
        self.section = Section::Body { content_length, close, binary };
        HeadStep::Done
    }
}

enum HeadStep {
    NeedMore,
    Done,
    Reject(Reject),
}

/// Finds the head terminator (`\r\n\r\n` or bare `\n\n`) and returns
/// `(head_len, terminator_len)`, with `head_len` the length of the head
/// *excluding* the terminator. `None` if the head is still incomplete.
fn find_head_end(bytes: &[u8]) -> Option<(usize, usize)> {
    for i in 0..bytes.len() {
        let rest = &bytes[i..];
        if rest.starts_with(b"\r\n\r\n") {
            return Some((i, 4));
        }
        if rest.starts_with(b"\n\n") {
            return Some((i, 2));
        }
    }
    None
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;

    fn parser() -> Parser {
        Parser::new(ParserLimits::default())
    }

    fn small() -> Parser {
        Parser::new(ParserLimits {
            max_head_bytes: 128,
            max_headers: 4,
            max_body_bytes: 64,
            max_admin_body_bytes: 4096,
        })
    }

    #[test]
    fn parses_a_simple_request_in_one_feed() {
        let mut p = parser();
        p.feed(b"POST /recommend HTTP/1.1\r\nhost: t\r\ncontent-length: 2\r\n\r\nhi");
        match p.poll() {
            Poll::Request(r) => {
                assert_eq!(r.method, "POST");
                assert_eq!(r.path, "/recommend");
                assert_eq!(r.body, b"hi");
                assert!(!r.close);
            }
            other => panic!("expected request, got {other:?}"),
        }
        assert_eq!(p.poll(), Poll::NeedHead);
    }

    #[test]
    fn parses_byte_by_byte_identically() {
        let wire = b"POST /x HTTP/1.1\r\nconnection: close\r\ncontent-length: 5\r\n\r\nhello";
        let mut whole = parser();
        whole.feed(wire);
        let expected = match whole.poll() {
            Poll::Request(r) => r,
            other => panic!("{other:?}"),
        };
        let mut p = parser();
        let mut got = None;
        for &b in wire.iter() {
            p.feed(&[b]);
            match p.poll() {
                Poll::Request(r) => got = Some(r),
                Poll::NeedHead | Poll::NeedBody => {}
                Poll::Reject(r) => panic!("unexpected reject {r:?}"),
            }
        }
        assert_eq!(got, Some(expected));
    }

    #[test]
    fn pipelined_requests_parse_in_sequence() {
        let mut p = parser();
        p.feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nconnection: close\r\n\r\n");
        let a = match p.poll() {
            Poll::Request(r) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!(a.path, "/a");
        assert!(p.has_buffered());
        let b = match p.poll() {
            Poll::Request(r) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!(b.path, "/b");
        assert!(b.close);
        assert_eq!(p.poll(), Poll::NeedHead);
    }

    #[test]
    fn missing_method_or_path_is_400_not_404() {
        for wire in [
            "\r\n\r\n",
            "GET\r\n\r\n",
            " \r\nhost: t\r\n\r\n",
            "GET \r\n\r\n",
        ] {
            let mut p = parser();
            p.feed(wire.as_bytes());
            match p.poll() {
                Poll::Reject(r) => assert_eq!(r.status, 400, "{wire:?}"),
                other => panic!("{wire:?} gave {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_head_is_431() {
        let mut p = small();
        let mut wire = String::from("GET /x HTTP/1.1\r\nx-long: ");
        wire.push_str(&"a".repeat(1_000));
        p.feed(wire.as_bytes());
        match p.poll() {
            Poll::Reject(r) => assert_eq!(r.status, 431),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unterminated_head_is_431_once_over_budget() {
        // No terminator ever arrives; the parser must reject as soon as the
        // buffered head exceeds the budget instead of buffering forever.
        let mut p = small();
        for _ in 0..40 {
            p.feed(b"aaaaaaaaaa"); // no CRLF at all
            if let Poll::Reject(r) = p.poll() {
                assert_eq!(r.status, 431);
                return;
            }
        }
        panic!("parser buffered an unbounded head");
    }

    #[test]
    fn too_many_headers_is_431() {
        let mut p = small();
        let mut wire = String::from("GET /x HTTP/1.1\r\n");
        for i in 0..6 {
            wire.push_str(&format!("h{i}: v\r\n"));
        }
        wire.push_str("\r\n");
        p.feed(wire.as_bytes());
        match p.poll() {
            Poll::Reject(r) => assert_eq!(r.status, 431),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversized_body_is_413() {
        let mut p = small();
        p.feed(b"POST /x HTTP/1.1\r\ncontent-length: 100000\r\n\r\n");
        match p.poll() {
            Poll::Reject(r) => assert_eq!(r.status, 413),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_content_length_is_400() {
        let mut p = parser();
        p.feed(b"POST /x HTTP/1.1\r\ncontent-length: abc\r\n\r\n");
        match p.poll() {
            Poll::Reject(r) => {
                assert_eq!(r.status, 400);
                assert!(r.message.contains("content-length"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn non_utf8_body_is_400() {
        let mut p = parser();
        p.feed(b"POST /x HTTP/1.1\r\ncontent-length: 2\r\n\r\n\xff\xfe");
        match p.poll() {
            Poll::Reject(r) => assert_eq!(r.status, 400),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn an_octet_stream_body_is_bytes_and_any_other_must_be_utf8() {
        let mut p = parser();
        p.feed(b"PUT /admin/index HTTP/1.1\r\ncontent-type: Application/Octet-Stream\r\ncontent-length: 2\r\n\r\n\xff\xfe");
        match p.poll() {
            Poll::Request(r) => assert_eq!((r.body.as_slice(), r.text()), (&b"\xff\xfe"[..], "")),
            other => panic!("{other:?}"),
        }
        p.feed(b"POST /x HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: 2\r\n\r\n\xff\xfe");
        match p.poll() {
            Poll::Reject(r) => assert_eq!(r.status, 400),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn only_admin_paths_get_the_admin_body_cap() {
        for (path, declared, status) in
            [("/admin/index", 4096, None), ("/admin/index", 4097, Some(413)), ("/ingest", 65, Some(413))]
        {
            let mut p = small();
            p.feed(format!("PUT {path} HTTP/1.1\r\ncontent-length: {declared}\r\n\r\n").as_bytes());
            match (p.poll(), status) {
                (Poll::NeedBody, None) => {}
                (Poll::Reject(r), Some(status)) => assert_eq!(r.status, status, "{path} {declared}"),
                (other, _) => panic!("{path} {declared}: {other:?}"),
            }
        }
        let mut router = parser();
        router.feed(b"PUT /admin/index HTTP/1.1\r\ncontent-length: 2097152\r\n\r\n");
        assert!(matches!(router.poll(), Poll::Reject(Reject { status: 413, .. })), "no admin cap, no raise");
    }

    #[test]
    fn a_frame_past_the_ordinary_cap_takes_its_buffer_along() {
        let mut p = small();
        let body = vec![b'x'; 4000];
        p.feed(b"PUT /admin/index HTTP/1.1\r\ncontent-type: application/octet-stream\r\ncontent-length: 4000\r\n\r\n");
        p.feed(&body);
        p.feed(b"GET /next HTTP/1.1\r\n\r\n");
        match p.poll() {
            Poll::Request(r) => assert_eq!(r.body, body),
            other => panic!("{other:?}"),
        }
        assert!(p.buf.capacity() < 128 + 64, "{} bytes kept after the upload", p.buf.capacity());
        match p.poll() {
            Poll::Request(r) => assert_eq!(r.path, "/next"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_deep_pipeline_of_small_frames_copies_each_frame_once() {
        // 4 MiB of pipelined `GET /health`, buffered at once: far past the
        // ordinary cap, yet no frame may move the buffer or carry it away.
        let frame = b"GET /health HTTP/1.1\r\n\r\n";
        let frames = (4 << 20) / frame.len();
        let mut p = parser();
        p.feed(&frame.repeat(frames));
        let (buffer, capacity) = (p.buf.as_ptr(), p.buf.capacity());
        for _ in 0..frames {
            match p.poll() {
                Poll::Request(r) => assert_eq!((r.path.as_str(), r.body.capacity()), ("/health", 0)),
                other => panic!("{other:?}"),
            }
            assert_eq!((p.buf.as_ptr(), p.buf.capacity()), (buffer, capacity), "a small frame moved the buffer");
        }
        assert_eq!(p.poll(), Poll::NeedHead);
    }

    #[test]
    fn rejected_parser_stays_poisoned_with_original_reject() {
        let mut p = small();
        let mut wire = String::from("GET /x HTTP/1.1\r\nx-long: ");
        wire.push_str(&"a".repeat(1_000));
        p.feed(wire.as_bytes());
        let first = match p.poll() {
            Poll::Reject(r) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!(first.status, 431);
        p.feed(b"GET /ok HTTP/1.1\r\n\r\n");
        match p.poll() {
            Poll::Reject(r) => assert_eq!(r, first, "poisoned parser must repeat its reject"),
            other => panic!("poisoned parser recovered: {other:?}"),
        }
    }

    #[test]
    fn bare_lf_terminated_heads_parse() {
        let mut p = parser();
        p.feed(b"GET /lf HTTP/1.1\nhost: t\n\n");
        match p.poll() {
            Poll::Request(r) => assert_eq!(r.path, "/lf"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn mid_request_tracks_sections() {
        let mut p = parser();
        assert!(!p.mid_request());
        p.feed(b"POST /x HTTP/1.1\r\n");
        assert_eq!(p.poll(), Poll::NeedHead);
        assert!(p.mid_request());
        assert!(!matches!(p.section, Section::Body { .. }));
        p.feed(b"content-length: 3\r\n\r\n");
        assert_eq!(p.poll(), Poll::NeedBody);
        assert!(matches!(p.section, Section::Body { .. }));
        p.feed(b"abc");
        assert!(matches!(p.poll(), Poll::Request(_)));
        assert!(!p.mid_request());
    }
}

#[cfg(all(test, not(feature = "loom")))]
impl Parser {
    /// Bytes the parse buffer holds, the consumed prefix included.
    pub(crate) fn buffer_len(&self) -> usize {
        self.buf.len()
    }
}
