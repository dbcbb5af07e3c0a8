//! A node's control plane costs it no thread: admin traffic is requests to
//! the one reactor and its fixed worker pool, however many connections carry
//! it and however many operations they make.
//!
//! One test in its own binary, so the process's thread count is this test's
//! node and nothing else.

#![cfg(all(target_os = "linux", not(feature = "loom")))]

use std::sync::Arc;

use serenade_core::{Click, SessionIndex};
use serenade_index::binfmt;
use serenade_serving::node::{encode_session_ids, encode_sessions, NodeConfig, ServingNode};
use serenade_serving::HttpClient;

const CONNECTIONS: usize = 64;
const OCTET_STREAM: &str = "application/octet-stream";

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// Admin operation `i` of a mix of probes, exports, imports, forgets and
/// artefact loads, answered `200`.
fn operate(client: &mut HttpClient, i: usize, artifact: &[u8]) {
    let sid = i as u64;
    let answer = match i % 5 {
        0 => client.exchange("GET", "/health", None),
        1 => client.exchange("POST", "/admin/sessions/export", Some(("application/json", b"{\"cap\":100}"))),
        2 => client.exchange(
            "POST",
            "/admin/sessions/import",
            Some((OCTET_STREAM, &encode_sessions(&[(sid, vec![1, 2])]))),
        ),
        3 => client.exchange(
            "POST",
            "/admin/sessions/forget",
            Some((OCTET_STREAM, &encode_session_ids(&[sid - 1]))),
        ),
        _ => client.exchange("PUT", "/admin/index", Some((OCTET_STREAM, artifact))),
    };
    let (status, body) = answer.unwrap();
    assert_eq!(status, 200, "operation {i}: {}", String::from_utf8_lossy(&body));
}

#[test]
fn admin_connections_and_operations_add_no_thread() {
    let clicks: Vec<Click> = (0..40u64)
        .flat_map(|s| [Click::new(s + 1, s % 6, 100 + s * 10), Click::new(s + 1, (s + 1) % 6, 101 + s * 10)])
        .collect();
    let index = Arc::new(SessionIndex::build(&clicks, 500).unwrap());
    let mut artifact = Vec::new();
    binfmt::write_index(&index, &mut artifact).unwrap();
    let node = ServingNode::start(index, NodeConfig::default()).unwrap();
    let before = threads();

    // Keep-alive connections, all open at once, one operation on each.
    let mut clients: Vec<HttpClient> =
        (0..CONNECTIONS).map(|_| HttpClient::connect(node.data_addr()).unwrap()).collect();
    for (i, client) in clients.iter_mut().enumerate() {
        operate(client, i, &artifact);
    }
    assert_eq!(threads(), before, "{CONNECTIONS} admin connections");

    for i in 0..1_000 {
        operate(&mut clients[i % CONNECTIONS], CONNECTIONS + i, &artifact);
    }
    assert_eq!(threads(), before, "1,000 admin operations");
    assert!(node.cluster().engine().index_handle().generation() > 200, "the artefact loads ran");
    drop(clients);
    node.shutdown();
}
