//! Hostile and edge-case JSON bodies on every endpoint that reads one.
//!
//! A table of bodies for `POST /recommend`, `POST /ingest`, routerd's
//! `/cluster/{join,leave,publish}` and a node's
//! `POST /admin/sessions/export`, each with the status and body the server
//! answers. The rules it pins: a repeated key's last value wins, a field of
//! the wrong type reads as absent, an identifier is a non-negative integral
//! number no larger than 2⁵³ in any spelling (`7.0`, `7e0`), escaped keys
//! match, unknown fields are skipped however they nest, and a malformed
//! document is a `400` naming the fault and its offset.
//!
//! A predict that parses is not compared with golden bytes: it is sent
//! again, as the request the row says it parses to, to a twin server over
//! the same index, and the two answers and the two session stores must
//! agree.

#![cfg(not(feature = "loom"))]

use std::sync::Arc;
use std::time::Duration;

use serenade_core::{Click, SessionIndex};
use serenade_serving::engine::{EngineConfig, RecommendRequest};
use serenade_serving::node::{NodeConfig, ServingNode};
use serenade_serving::routerd::{RouterConfig, RouterDaemon};
use serenade_serving::{
    BusinessRules, HttpClient, HttpServer, HttpServerConfig, IngestConfig, ServingCluster,
};

fn clicks() -> Vec<Click> {
    let mut clicks = Vec::new();
    for s in 0..40u64 {
        let ts = 100 + s * 10;
        clicks.push(Click::new(s + 1, s % 6, ts));
        clicks.push(Click::new(s + 1, (s + 1) % 6, ts + 1));
    }
    clicks
}

fn index() -> Arc<SessionIndex> {
    Arc::new(SessionIndex::build(&clicks(), 500).unwrap())
}

/// Item 2 is adult content, so `filter_adult` shows in the answer.
fn cluster() -> Arc<ServingCluster> {
    let rules = BusinessRules::new([], [2]);
    Arc::new(ServingCluster::new(index(), 1, EngineConfig::default(), rules).unwrap())
}

/// What a row's body must get.
enum Verdict {
    /// This status and exactly this body.
    Answer(u16, &'static str),
    /// A `200` equal to the twin's answer to this request.
    Parses(RecommendRequest),
}
use Verdict::{Answer, Parses};

fn req(session_id: u64, item: u64, consent: bool, filter_adult: bool) -> Verdict {
    Parses(RecommendRequest { session_id, item, consent, filter_adult })
}

fn send(client: &mut HttpClient, method: &str, path: &str, body: &[u8]) -> (u16, String) {
    let (status, body) = client.exchange(method, path, Some(("application/json", body))).unwrap();
    (status, String::from_utf8_lossy(&body).into_owned())
}

/// `depth` nested arrays holding `1`.
fn nested(depth: usize) -> String {
    format!("{}1{}", "[".repeat(depth), "]".repeat(depth))
}

#[test]
fn predict_bodies_keep_their_verdicts() {
    const TWO_53: u64 = 1 << 53;
    let within_depth =
        format!(r#"{{"session_id":7,"item_id":1,"deep":{}}}"#, nested(31)).into_bytes();
    let rows: Vec<(&[u8], Verdict)> = vec![
        (br#"{"session_id":7,"item_id":1}"#, req(7, 1, true, false)),
        (br#"{"session_id":7,"session_id":9,"item_id":1}"#, req(9, 1, true, false)),
        (br#"{"session_id":7,"item_id":1,"session_id":"x"}"#, Answer(400, r#"{"error":"missing session_id"}"#)),
        (br#"{"session_id":7,"item_id":1,"consent":"no"}"#, req(7, 1, true, false)),
        (br#"{"session_id":7,"item_id":3,"consent":false}"#, req(7, 3, false, false)),
        (br#"{"session_id":7,"item_id":1,"filter_adult":true}"#, req(7, 1, true, true)),
        (br#"{"session_id":7.0,"item_id":1}"#, req(7, 1, true, false)),
        (br#"{"session_id":7e0,"item_id":01}"#, req(7, 1, true, false)),
        (br#"{"session_id":-1,"item_id":1}"#, Answer(400, r#"{"error":"missing session_id"}"#)),
        (br#"{"session_id":7,"item_id":1.5}"#, Answer(400, r#"{"error":"missing item_id"}"#)),
        (br#"{"session_id":9007199254740992,"item_id":1}"#, req(TWO_53, 1, true, false)),
        // 2⁵³ + 1 has no f64 of its own: it reads as 2⁵³.
        (br#"{"session_id":9007199254740993,"item_id":1}"#, req(TWO_53, 1, true, false)),
        (br#"{"session_id":9007199254740994,"item_id":1}"#, Answer(400, r#"{"error":"missing session_id"}"#)),
        (br#"{"session_id":1e400,"item_id":1}"#, Answer(400, r#"{"error":"missing session_id"}"#)),
        (br#"{"session\u005fid":7,"item\u005Fid":1}"#, req(7, 1, true, false)),
        (br#"{"x":{"a":[1,{"b":null,"c":"\"}"}]},"session_id":7,"item_id":1,"y":[]}"#, req(7, 1, true, false)),
        (&within_depth, req(7, 1, true, false)),
        (br#"[{"session_id":7,"item_id":1}]"#, Answer(400, r#"{"error":"missing session_id"}"#)),
        (br#"{"session_id":7,"item_id":1} x"#, Answer(400, r#"{"error":"invalid json: trailing characters at offset 29"}"#)),
        (br#"{"session_id":7,"item_id":1,}"#, Answer(400, r#"{"error":"invalid json: expected '\"' at offset 28"}"#)),
        (br#"{"session_id":7 "item_id":1}"#, Answer(400, r#"{"error":"invalid json: expected ',' or '}' at offset 16"}"#)),
        (br#"{"session_id":- 1}"#, Answer(400, r#"{"error":"invalid json: invalid number \"-\" at offset 14"}"#)),
        (br#"{"session_id":7,"item_id":1,"k":"\u12"#, Answer(400, r#"{"error":"invalid json: truncated \\u escape"}"#)),
        (br#"{"session_id":7,"item_id":1,"k":"\u12g4"}"#, Answer(400, r#"{"error":"invalid json: bad \\u escape"}"#)),
        (br#"{"session_id":7,"item_id":1,"k":"\q"}"#, Answer(400, r#"{"error":"invalid json: bad escape \\q"}"#)),
        (br#"{"session_id":7,"item_id":1,"k":"open"#, Answer(400, r#"{"error":"invalid json: unterminated string"}"#)),
        (br#"nul"#, Answer(400, r#"{"error":"invalid json: invalid literal at offset 0"}"#)),
        (b"", Answer(400, r#"{"error":"invalid json: unexpected None at offset 0"}"#)),
        (b"{\"session_id\":7,\"item_id\":1,\"k\":\"\xff\"}", Answer(400, r#"{"error":"request body is not valid utf-8"}"#)),
    ];
    let (cluster, twin) = (cluster(), cluster());
    let server = HttpServer::serve(Arc::clone(&cluster), HttpServerConfig::default()).unwrap();
    let twin_server = HttpServer::serve(Arc::clone(&twin), HttpServerConfig::default()).unwrap();
    for (body, verdict) in rows {
        let shown = String::from_utf8_lossy(body);
        // A fresh connection per row: a rejected frame closes its own.
        let answer = send(&mut HttpClient::connect(server.addr()).unwrap(), "POST", "/recommend", body);
        match verdict {
            Answer(status, expected) => assert_eq!(answer, (status, expected.to_string()), "{shown}"),
            Parses(r) => {
                let canonical = format!(
                    r#"{{"session_id":{},"item_id":{},"consent":{},"filter_adult":{}}}"#,
                    r.session_id, r.item, r.consent, r.filter_adult
                );
                let expected = HttpClient::connect(twin_server.addr())
                    .unwrap()
                    .post("/recommend", &canonical)
                    .unwrap();
                assert_eq!(expected.0, 200, "{canonical}");
                assert_eq!(answer, expected, "{shown}");
                assert_eq!(
                    cluster.stored_session_len(r.session_id),
                    twin.stored_session_len(r.session_id),
                    "{shown}"
                );
                assert_eq!(cluster.live_sessions(), twin.live_sessions(), "{shown}");
            }
        }
    }
    server.shutdown();
    twin_server.shutdown();
}

#[test]
fn ingest_bodies_keep_their_verdicts() {
    let click = r#"{"session_id":1,"item_id":2,"timestamp":3}"#;
    let last_wins = format!(r#"{{"clicks":[{click}],"clicks":[{click},{click}]}}"#).into_bytes();
    let wrong_typed_last = format!(r#"{{"clicks":[{click}],"clicks":7}}"#).into_bytes();
    // Over the batch limit, and the first click is incomplete: the limit
    // is what the answer names.
    let oversized = format!(r#"{{"clicks":[{}{{}}]}}"#, "{},".repeat(10_000)).into_bytes();
    let rows: Vec<(&[u8], u16, &str)> = vec![
        (&last_wins, 202, r#"{"accepted":2}"#),
        (&wrong_typed_last, 400, r#"{"error":"missing clicks array"}"#),
        (&oversized, 400, r#"{"error":"clicks array exceeds the 10000-event batch limit"}"#),
        (br#"{"clicks":[{"session_id":1,"item_id":2,"timestamp":3.5}]}"#, 400, r#"{"error":"missing timestamp"}"#),
        (br#"{"clicks":[{"session_id":1,"item_id":2,"timestamp":3},5]}"#, 400, r#"{"error":"missing session_id"}"#),
        (br#"{"clicks":[{"session_id":1,"item_id":2,"timestamp":3,"session_id":"a"}]}"#, 400, r#"{"error":"missing session_id"}"#),
        (br#"{"clicks":[{"item_id":2,"timestamp":3,"session_id":1,"x":[{}]}]}"#, 202, r#"{"accepted":1}"#),
        (br#"{"clicks":{}}"#, 400, r#"{"error":"missing clicks array"}"#),
        (br#"{"clicks":[]}"#, 400, r#"{"error":"clicks array is empty"}"#),
        (br#"{"clicks":[]} x"#, 400, r#"{"error":"invalid json: trailing characters at offset 14"}"#),
        (br#"{"clicks":[1,]}"#, 400, r#"{"error":"invalid json: unexpected Some(93) at offset 13"}"#),
        (b"", 400, r#"{"error":"invalid json: unexpected None at offset 0"}"#),
    ];
    let cluster = cluster();
    let config = IngestConfig { publish_interval: Duration::from_secs(60) };
    cluster.enable_ingest(config, &clicks()).unwrap();
    let server = HttpServer::serve(Arc::clone(&cluster), HttpServerConfig::default()).unwrap();
    for (body, status, expected) in rows {
        let answer = send(&mut HttpClient::connect(server.addr()).unwrap(), "POST", "/ingest", body);
        let shown: String = String::from_utf8_lossy(body).chars().take(120).collect();
        assert_eq!(answer, (status, expected.to_string()), "{shown}");
    }
    server.shutdown();
}

#[test]
fn router_bodies_keep_their_verdicts() {
    let config = RouterConfig { probe_interval: Duration::from_secs(3600), ..RouterConfig::default() };
    let router = RouterDaemon::start(&[], config).unwrap();
    let member = |id: u64, port: u16| {
        format!(r#"{{"alive":true,"data_addr":"127.0.0.1:{port}","id":{id}}}"#)
    };
    let one = format!(r#"{{"members":[{}]}}"#, member(5, 1));
    let two = format!(r#"{{"members":[{},{}]}}"#, member(5, 1), member(7, 2));
    let rows: Vec<(&str, &[u8], u16, &str)> = vec![
        ("join", br#"{"id":5,"data_addr":"127.0.0.1:1"}"#, 200, &one),
        ("join", br#"{"id":5,"data_addr":"127.0.0.1:1"}"#, 400, r#"{"error":"member 5 is already in the routing table"}"#),
        ("join", br#"{"id":6,"data_addr":"nope"}"#, 400, r#"{"error":"missing or invalid data_addr"}"#),
        ("join", br#"{"id":6,"data_addr":7}"#, 400, r#"{"error":"missing or invalid data_addr"}"#),
        ("join", br#"{"id":6.5,"data_addr":"127.0.0.1:2"}"#, 400, r#"{"error":"missing id"}"#),
        ("join", br#"{"id":6"#, 400, r#"{"error":"invalid json: expected ',' or '}' at offset 7"}"#),
        ("join", b"", 400, r#"{"error":"invalid json: unexpected None at offset 0"}"#),
        ("join", br#"{"id":6,"data_addr":"127.0.0.1:2","id":7}"#, 200, &two),
        ("leave", br#"{"id":5} x"#, 400, r#"{"error":"missing id"}"#),
        ("leave", br#"{"id":"5"}"#, 400, r#"{"error":"missing id"}"#),
        ("leave", br#"{"id":8}"#, 400, r#"{"error":"member 8 is not in the routing table"}"#),
        ("leave", br#"{"id":5,"id":7.0}"#, 200, &one),
        ("publish", br#"{"path":3}"#, 400, r#"{"error":"missing path"}"#),
        ("publish", br#"{"path":"/nonexistent/a.idx","path":"/nonexistent/b.idx"}"#, 400, r#"{"error":"unreadable artifact: No such file or directory (os error 2)"}"#),
        ("publish", br#"{"path":"/nonexistent\/c.idx"}"#, 400, r#"{"error":"unreadable artifact: No such file or directory (os error 2)"}"#),
        ("publish", br#"{"path":"/nonexistent"} x"#, 400, r#"{"error":"missing path"}"#),
        ("publish", b"", 400, r#"{"error":"missing path"}"#),
    ];
    for (route, body, status, expected) in rows {
        let mut client = HttpClient::connect(router.addr()).unwrap();
        let answer = send(&mut client, "POST", &format!("/cluster/{route}"), body);
        let shown = String::from_utf8_lossy(body);
        assert_eq!(answer, (status, expected.to_string()), "{route} {shown}");
    }
    router.shutdown();
}

#[test]
fn export_cap_bodies_keep_their_verdicts() {
    let node = ServingNode::start(index(), NodeConfig::default()).unwrap();
    let no_sessions = "\0\0\0\0";
    let refused = r#"{"error":"export expects {\"cap\": N}"}"#;
    let rows: Vec<(&[u8], u16, &str)> = vec![
        (br#"{"cap":7}"#, 200, no_sessions),
        (br#"{"cap":7.0}"#, 200, no_sessions),
        (br#"{"cap":1e0}"#, 200, no_sessions),
        (br#"{"cap":-1}"#, 400, refused),
        (br#"{"cap":2,"cap":true}"#, 400, refused),
        (br#"{"cap":true,"cap":2}"#, 200, no_sessions),
        (br#"{"cap":2}}"#, 400, refused),
        (b"", 400, refused),
    ];
    for (body, status, expected) in rows {
        let mut client = HttpClient::connect(node.data_addr()).unwrap();
        let answer = send(&mut client, "POST", "/admin/sessions/export", body);
        let shown = String::from_utf8_lossy(body);
        assert_eq!(answer, (status, expected.to_string()), "{shown}");
    }
    node.shutdown();
}

/// Bodies of nothing but `[`: 20,000 bytes, and one byte under the 1 MiB
/// body limit. A parser that recurses per bracket overflows its thread's
/// stack on either and takes the process down.
fn open_brackets() -> [Vec<u8>; 2] {
    [vec![b'['; 20_000], vec![b'['; (1 << 20) - 1]]
}

const TOO_DEEP: &str = r#"{"error":"invalid json: nesting deeper than 64 at offset 64"}"#;

/// Each deep body gets a `400`, and the server still answers a predict on
/// a new connection.
fn survives_deep_nesting(addr: std::net::SocketAddr, path: &str) {
    for body in open_brackets() {
        let answer = send(&mut HttpClient::connect(addr).unwrap(), "POST", path, &body);
        assert_eq!(answer, (400, TOO_DEEP.to_string()), "{} bytes of [ to {path}", body.len());
        let (status, answer) = HttpClient::connect(addr)
            .unwrap()
            .post("/recommend", r#"{"session_id":7,"item_id":1}"#)
            .unwrap();
        assert_eq!(status, 200, "{answer}");
    }
}

#[test]
fn deep_nesting_is_a_400_on_a_bare_node() {
    let server = HttpServer::serve(cluster(), HttpServerConfig::default()).unwrap();
    survives_deep_nesting(server.addr(), "/recommend");
    server.shutdown();
}

#[test]
fn deep_nesting_is_a_400_through_routerd() {
    let node = ServingNode::start(index(), NodeConfig::default()).unwrap();
    let config = RouterConfig { probe_interval: Duration::from_secs(3600), ..RouterConfig::default() };
    let router = RouterDaemon::start(&[(0, node.data_addr(), node.ctrl_addr())], config).unwrap();
    survives_deep_nesting(router.addr(), "/recommend");
    router.shutdown();
    node.shutdown();
}

#[test]
fn deep_nesting_is_a_400_on_ingest() {
    let cluster = cluster();
    cluster.enable_ingest(IngestConfig::default(), &clicks()).unwrap();
    let server = HttpServer::serve(cluster, HttpServerConfig::default()).unwrap();
    survives_deep_nesting(server.addr(), "/ingest");
    server.shutdown();
}
