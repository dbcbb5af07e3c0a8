//! Property tests for the incremental HTTP parser.
//!
//! The parser is a pure function of its byte stream, which makes two
//! properties checkable over generated inputs:
//!
//! * **split invariance** — a valid request fed in arbitrary chunkings
//!   produces exactly the requests the whole-buffer feed produces;
//! * **totality on garbage** — arbitrary bytes never panic the parser and
//!   never escape the state machine: every poll is `NeedHead`/`NeedBody`
//!   (still streaming), a parsed `Request`, or a 4xx `Reject`.

#![cfg(not(feature = "loom"))]

use proptest::collection::vec;
use proptest::prelude::*;

use serenade_serving::server::parser::{ParsedRequest, Parser, ParserLimits, Poll};

/// Feeds `wire` to a fresh parser in one go and returns everything parsed.
fn parse_whole(wire: &[u8], limits: ParserLimits) -> Vec<ParsedRequest> {
    let mut parser = Parser::new(limits);
    parser.feed(wire);
    let mut out = Vec::new();
    loop {
        match parser.poll() {
            Poll::Request(r) => out.push(r),
            Poll::NeedHead | Poll::NeedBody | Poll::Reject(_) => return out,
        }
    }
}

/// Feeds `wire` split at `cuts` (reduced modulo the wire length) and returns
/// everything parsed, polling after every chunk like the connection driver.
fn parse_chunked(wire: &[u8], cuts: &[usize], limits: ParserLimits) -> Vec<ParsedRequest> {
    let mut parser = Parser::new(limits);
    let mut out = Vec::new();
    let mut prev = 0;
    let mut boundaries: Vec<usize> = cuts.iter().map(|&c| c % (wire.len() + 1)).collect();
    boundaries.sort_unstable();
    boundaries.push(wire.len());
    for b in boundaries {
        if b > prev {
            parser.feed(&wire[prev..b]);
            prev = b;
        }
        loop {
            match parser.poll() {
                Poll::Request(r) => out.push(r),
                Poll::NeedHead | Poll::NeedBody => break,
                Poll::Reject(_) => return out,
            }
        }
    }
    out
}

/// Renders a well-formed request from generated parts.
fn render_request(path: &str, body: &str, close: bool, bare_lf: bool) -> Vec<u8> {
    let eol = if bare_lf { "\n" } else { "\r\n" };
    let mut wire = String::new();
    wire.push_str(&format!("POST /{path} HTTP/1.1{eol}"));
    wire.push_str(&format!("host: test{eol}"));
    if close {
        wire.push_str(&format!("connection: close{eol}"));
    }
    wire.push_str(&format!("content-length: {}{eol}", body.len()));
    wire.push_str(eol);
    wire.push_str(body);
    wire.into_bytes()
}

/// The reactor delivers bytes as the kernel hands them over — in the worst
/// case one at a time. Feed a pipelined keep-alive stream byte by byte,
/// polling after every byte like `Connection::advance` does, and require
/// the parser to resume mid-head and mid-body into exactly the whole-buffer
/// parse: same requests, same order, same fields, and never more than one
/// completed request per byte (a single byte can finish at most one frame).
#[test]
fn byte_by_byte_resumption_is_exact() {
    let mut wire = Vec::new();
    wire.extend_from_slice(&render_request("recommend", r#"{"session_id":7,"item_id":3}"#, false, false));
    wire.extend_from_slice(&render_request("status", "", false, true));
    wire.extend_from_slice(&render_request("recommend", r#"{"session_id":9,"item_id":1}"#, true, false));
    let limits = ParserLimits::default();
    let whole = parse_whole(&wire, limits);
    assert_eq!(whole.len(), 3, "whole-buffer feed must parse every request");

    let mut parser = Parser::new(limits);
    let mut out = Vec::new();
    for (i, byte) in wire.iter().enumerate() {
        parser.feed(std::slice::from_ref(byte));
        let before = out.len();
        loop {
            match parser.poll() {
                Poll::Request(r) => out.push(r),
                Poll::NeedHead | Poll::NeedBody => break,
                Poll::Reject(r) => panic!("byte {i} rejected a valid stream: {r:?}"),
            }
        }
        assert!(out.len() - before <= 1, "one byte completed {} frames", out.len() - before);
    }
    assert_eq!(out, whole, "byte-by-byte resumption diverged from the whole-buffer parse");
}

proptest! {
    // Any chunking of a valid pipelined request stream parses to exactly
    // the whole-buffer result: same requests, same order, same fields.
    #[test]
    fn split_invariance(
        paths in vec("[a-z]{1,12}", 1..4),
        bodies in vec("[ -~]{0,48}", 1..4),
        close in any::<bool>(),
        bare_lf in any::<bool>(),
        cuts in vec(0usize..4096, 0..24),
    ) {
        let mut wire = Vec::new();
        let n = paths.len().min(bodies.len());
        for i in 0..n {
            // Only the last request may ask to close: a mid-stream close
            // would make the tail requests dead bytes by protocol.
            let is_last = i == n - 1;
            wire.extend_from_slice(&render_request(
                &paths[i],
                &bodies[i],
                close && is_last,
                bare_lf,
            ));
        }
        let limits = ParserLimits::default();
        let whole = parse_whole(&wire, limits);
        prop_assert_eq!(whole.len(), n, "whole-buffer feed must parse every request");
        let chunked = parse_chunked(&wire, &cuts, limits);
        prop_assert_eq!(whole, chunked);
    }

    // Arbitrary bytes never panic the parser, and every reject carries a
    // 4xx status. Feeding more bytes after a reject repeats the original
    // reject (the poisoned state never un-rejects).
    #[test]
    fn garbage_never_panics_and_rejects_are_4xx(
        chunks in vec(vec(any::<u8>(), 0..64), 1..12),
    ) {
        let limits =
            ParserLimits { max_head_bytes: 256, max_headers: 8, max_body_bytes: 128, max_admin_body_bytes: 0 };
        let mut parser = Parser::new(limits);
        let mut first_reject = None;
        for chunk in &chunks {
            parser.feed(chunk);
            match parser.poll() {
                Poll::Reject(r) => {
                    prop_assert!((400..500).contains(&r.status), "non-4xx reject {}", r.status);
                    match first_reject {
                        None => first_reject = Some(r),
                        Some(f) => prop_assert_eq!(r, f, "poisoned parser changed its reject"),
                    }
                }
                Poll::Request(_) | Poll::NeedHead | Poll::NeedBody => {
                    prop_assert!(first_reject.is_none(), "parser recovered after a reject");
                }
            }
        }
    }

    // The head-size budget holds at any chunking: in-budget heads parse
    // (including a pipelined follow-up), over-budget heads reject with 431
    // before anything parses.
    #[test]
    fn head_budget_is_exact_under_chunking(
        pad in 0usize..64,
        cuts in vec(0usize..512, 0..8),
    ) {
        let limits =
            ParserLimits { max_head_bytes: 128, max_headers: 8, max_body_bytes: 64, max_admin_body_bytes: 0 };
        let mut wire = format!("GET /x HTTP/1.1\r\nx-pad: {}\r\n\r\n", "a".repeat(pad + 64));
        let over_budget = wire.len() - 4 > limits.max_head_bytes;
        wire.push_str("GET /y HTTP/1.1\r\n\r\n");
        let bytes = wire.into_bytes();

        let mut parser = Parser::new(limits);
        let mut rejected = None;
        let mut parsed = 0usize;
        let mut prev = 0;
        let mut boundaries: Vec<usize> = cuts.iter().map(|&c| c % (bytes.len() + 1)).collect();
        boundaries.sort_unstable();
        boundaries.push(bytes.len());
        'feed: for b in boundaries {
            if b > prev {
                parser.feed(&bytes[prev..b]);
                prev = b;
            }
            loop {
                match parser.poll() {
                    Poll::Request(_) => parsed += 1,
                    Poll::NeedHead | Poll::NeedBody => break,
                    Poll::Reject(r) => {
                        rejected = Some(r);
                        break 'feed;
                    }
                }
            }
        }
        if over_budget {
            prop_assert!(rejected.is_some(), "oversized head must reject");
            if let Some(r) = rejected {
                prop_assert_eq!(r.status, 431);
            }
            prop_assert_eq!(parsed, 0);
        } else {
            prop_assert!(rejected.is_none(), "in-budget head rejected: {:?}", rejected);
            prop_assert_eq!(parsed, 2);
        }
    }
}
