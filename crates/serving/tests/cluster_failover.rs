//! End-to-end multi-process cluster suite: a router daemon fronting real
//! `serenade-node` child processes over sockets.
//!
//! Proves the cluster's externally observable contract:
//!
//! * an index artifact published at the router reaches every node (and any
//!   node that joins later), bumping the served generation;
//! * killing a node mid-load never surfaces as a 5xx — its requests are
//!   served depersonalised on a surviving node and counted in
//!   `serenade_router_failover_total` on `/metrics`;
//! * a replacement node can join and is routed to after recovery;
//! * membership changes hand evolving session state to the new owner
//!   (export → import → forget), verified over the nodes' admin routes;
//! * the router's shard assignment is exactly the pure rendezvous map of
//!   `StickyRouter` over the member ids — the socket tier changes
//!   topology, not routing.

#![cfg(not(feature = "loom"))]

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use serenade_core::{Click, SessionIndex};
use serenade_index::binfmt;
use serenade_serving::HttpClient;
use serenade_serving::json::{self, Value};
use serenade_serving::node::decode_sessions;
use serenade_serving::routerd::{RouterConfig, RouterDaemon};
use serenade_serving::StickyRouter;

/// One spawned `serenade-node` child with its parsed address. The child
/// serves until its stdin pipe closes — dropping the handle (or killing
/// it) is the shutdown.
struct NodeProc {
    child: Child,
    data: SocketAddr,
}

impl NodeProc {
    fn spawn(id: u64) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_serenade-node"))
            .args(["--id", &id.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("node child spawns");
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("node prints its address line");
        let data = line.split_whitespace().find_map(|token| token.strip_prefix("data="));
        Self { child, data: data.and_then(|addr| addr.parse().ok()).expect("node line carries data=") }
    }

    /// Hard-kills the process: sockets reset, no drain — a crash.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for NodeProc {
    fn drop(&mut self) {
        self.kill();
    }
}

fn fast_probe_config() -> RouterConfig {
    RouterConfig {
        probe_interval: Duration::from_millis(100),
        probe_timeout: Duration::from_millis(500),
        ..RouterConfig::default()
    }
}

fn member(id: u64, node: &NodeProc) -> (u64, SocketAddr, SocketAddr) {
    (id, node.data, node.data)
}

/// The node's served index generation, off `GET /health`.
fn generation(node: &NodeProc) -> u64 {
    let (status, body) = HttpClient::connect(node.data).unwrap().get("/health").unwrap();
    assert_eq!(status, 200, "{body}");
    json::parse(&body).unwrap().get("index_generation").and_then(Value::as_u64).unwrap()
}

/// The node's live sessions, off `POST /admin/sessions/export`.
fn export_sessions(node: &NodeProc, cap: u32) -> Vec<(u64, Vec<u64>)> {
    let cap = format!("{{\"cap\":{cap}}}");
    let (status, body) = HttpClient::connect(node.data)
        .unwrap()
        .exchange("POST", "/admin/sessions/export", Some(("application/json", cap.as_bytes())))
        .unwrap();
    assert_eq!(status, 200);
    decode_sessions(&body).unwrap()
}

fn recommend_body(session_id: u64, item: u64) -> String {
    format!(
        "{{\"session_id\":{session_id},\"item_id\":{item},\"consent\":true,\
         \"filter_adult\":false}}"
    )
}

/// Writes a distinctive index artifact to a temp path and returns the path.
fn artifact_path(tag: &str) -> std::path::PathBuf {
    let mut clicks = Vec::new();
    for s in 0..60u64 {
        let ts = 1_000 + s * 10;
        clicks.push(Click::new(s + 1, s % 12, ts));
        clicks.push(Click::new(s + 1, (s + 5) % 12, ts + 1));
    }
    let index = SessionIndex::build(&clicks, 500).unwrap();
    let mut bytes = Vec::new();
    binfmt::write_index(&index, &mut bytes).unwrap();
    let path = std::env::temp_dir().join(format!(
        "serenade-cluster-{}-{tag}.idx",
        std::process::id()
    ));
    std::fs::write(&path, bytes).unwrap();
    path
}

fn json_array<'a>(value: &Value<'a>, key: &str) -> Vec<Value<'a>> {
    match value.get(key).and_then(Value::elements) {
        Some(items) => items.collect(),
        None => panic!("expected {key} array in {value:?}"),
    }
}

#[test]
fn artifact_publish_reaches_every_node_and_later_joiners() {
    let nodes = [NodeProc::spawn(0), NodeProc::spawn(1)];
    let members: Vec<_> = nodes.iter().enumerate().map(|(i, n)| member(i as u64, n)).collect();
    let router = RouterDaemon::start(&members, fast_probe_config()).unwrap();
    let mut http = HttpClient::connect(router.addr()).unwrap();

    // Every node serves its synthetic seed at generation 1.
    for node in &nodes {
        assert_eq!(generation(node), 1);
    }

    let path = artifact_path("publish");
    let body = json::object(|o| {
        o.str("path", &path.display().to_string());
    });
    let (status, response) = http.post("/cluster/publish", &body).unwrap();
    assert_eq!(status, 200, "publish failed: {response}");
    let parsed = json::parse(&response).unwrap();
    assert_eq!(json_array(&parsed, "published").len(), 2, "both nodes accept: {response}");
    assert!(json_array(&parsed, "failed").is_empty(), "no failures: {response}");

    for node in &nodes {
        assert_eq!(generation(node), 2, "publish bumped the generation");
    }

    // A node joining after the publish receives the artifact before it
    // takes traffic: its generation is already 2 when join returns.
    let late = NodeProc::spawn(2);
    let join = format!("{{\"id\":2,\"data_addr\":\"{}\"}}", late.data);
    let (status, response) = http.post("/cluster/join", &join).unwrap();
    assert_eq!(status, 200, "join failed: {response}");
    assert_eq!(generation(&late), 2, "joiner was seeded with the artifact");

    let _ = std::fs::remove_file(&path);
    router.shutdown();
}

#[test]
fn node_loss_mid_load_serves_200s_and_counts_failover() {
    let mut nodes = vec![NodeProc::spawn(0), NodeProc::spawn(1), NodeProc::spawn(2)];
    let members: Vec<_> = nodes.iter().enumerate().map(|(i, n)| member(i as u64, n)).collect();
    let router = RouterDaemon::start(&members, fast_probe_config()).unwrap();
    let addr = router.addr();

    // Warm load: every session answers 200 across the healthy cluster.
    let mut http = HttpClient::connect(addr).unwrap();
    for sid in 0..120u64 {
        let (status, _) = http.post("/recommend", &recommend_body(sid, sid % 12)).unwrap();
        assert_eq!(status, 200);
    }

    // Kill one node while four client threads hammer the router; every
    // response must stay under 500 — failover, not failure.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut http = HttpClient::connect(addr).unwrap();
                let mut worst = 0u16;
                let mut sent = 0u32;
                let mut sid = t * 10_000;
                while !stop.load(std::sync::atomic::Ordering::SeqCst) || sent < 50 {
                    let (status, _) =
                        http.post("/recommend", &recommend_body(sid, sid % 12)).unwrap();
                    worst = worst.max(status);
                    sent += 1;
                    sid += 1;
                    if sent >= 2_000 {
                        break;
                    }
                }
                (worst, sent)
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50));
    nodes[1].kill();
    std::thread::sleep(Duration::from_millis(300));
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let mut total = 0;
    for handle in handles {
        let (worst, sent) = handle.join().unwrap();
        assert!(worst < 500, "a client saw a {worst} during node loss");
        total += sent;
    }
    assert!(total > 0);
    assert!(router.core().failover_total() > 0, "node loss was absorbed silently");

    // The failover is visible on the metrics endpoint.
    let (status, metrics) = http.get("/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(
        metrics.contains("serenade_router_failover_total"),
        "failover counter is exported: {metrics}"
    );
    let counted = metrics
        .lines()
        .find(|l| l.starts_with("serenade_router_failover_total"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    assert!(counted > 0.0, "failover counter advanced");

    // Recovery: a replacement joins, is probed alive, and the dead member
    // leaves; traffic keeps flowing clean.
    let replacement = NodeProc::spawn(3);
    let join = format!("{{\"id\":3,\"data_addr\":\"{}\"}}", replacement.data);
    let (status, response) = http.post("/cluster/join", &join).unwrap();
    assert_eq!(status, 200, "join failed: {response}");
    let (status, response) = http.post("/cluster/leave", "{\"id\":1}").unwrap();
    assert_eq!(status, 200, "leave failed: {response}");
    std::thread::sleep(Duration::from_millis(300));

    let members = router.core().membership();
    assert_eq!(members.nodes().len(), 3);
    assert!(
        members.nodes().iter().all(|n| n.is_alive()),
        "probes recovered the full membership"
    );
    for sid in 0..120u64 {
        let (status, _) = http.post("/recommend", &recommend_body(sid, sid % 12)).unwrap();
        assert_eq!(status, 200, "post-recovery request failed");
    }
    router.shutdown();
}

#[test]
fn membership_change_hands_session_state_to_the_new_owner() {
    let nodes = [NodeProc::spawn(0), NodeProc::spawn(1)];
    let members: Vec<_> = nodes.iter().enumerate().map(|(i, n)| member(i as u64, n)).collect();
    let router = RouterDaemon::start(&members, fast_probe_config()).unwrap();
    let mut http = HttpClient::connect(router.addr()).unwrap();

    // Build three-click session state for 40 sessions through the router.
    let sids: Vec<u64> = (5_000..5_040).collect();
    for &sid in &sids {
        for item in [2u64, 4, 6] {
            let (status, _) = http.post("/recommend", &recommend_body(sid, item)).unwrap();
            assert_eq!(status, 200);
        }
    }

    // Joining member 2 moves exactly the sessions rendezvous reassigns.
    let joiner = NodeProc::spawn(2);
    let join = format!("{{\"id\":2,\"data_addr\":\"{}\"}}", joiner.data);
    let (status, response) = http.post("/cluster/join", &join).unwrap();
    assert_eq!(status, 200, "join failed: {response}");

    let before = StickyRouter::with_members(&[0, 1]);
    let after = StickyRouter::with_members(&[0, 1, 2]);
    let moved: Vec<u64> =
        sids.iter().copied().filter(|&sid| before.route(sid) != after.route(sid)).collect();
    assert!(!moved.is_empty(), "40 sessions over 3 members must remap some");
    assert!(
        moved.iter().all(|&sid| after.route(sid) == 2),
        "rendezvous only moves sessions onto the joiner"
    );

    // The moved sessions now live on the joiner with their full history…
    let exported = export_sessions(&joiner, 10_000);
    for &sid in &moved {
        let session = exported.iter().find(|(s, _)| *s == sid);
        let (_, items) = session.unwrap_or_else(|| panic!("session {sid} missing on joiner"));
        assert_eq!(items.len(), 3, "session {sid} arrived with its full history");
    }

    // …and were forgotten at their old owners.
    for node in &nodes {
        let remaining = export_sessions(node, 10_000);
        for &sid in &moved {
            assert!(
                remaining.iter().all(|(s, _)| *s != sid),
                "session {sid} still on its old owner"
            );
        }
    }
    router.shutdown();
}

#[test]
fn router_sharding_matches_the_in_process_rendezvous_router() {
    // The socket tier must not change *where* sessions live, only how the
    // owner is reached: over members with ids 0..n the router forwards a
    // session to the member the pure rendezvous map `StickyRouter` assigns
    // it to. Dead addresses are fine — routing is pure.
    use serenade_serving::engine::RecommendRequest;
    use serenade_serving::server::{ForwardTarget, PredictRoute, RequestBackend};
    let addr = |id: usize| SocketAddr::from(([127, 0, 0, 1], 1 + id as u16));
    for n in [1usize, 2, 3, 5, 8] {
        let members: Vec<_> = (0..n).map(|id| (id as u64, addr(id), addr(id))).collect();
        let core =
            serenade_serving::routerd::RouterCore::new(&members, Duration::from_millis(10), 100);
        let rendezvous = StickyRouter::with_members(&(0..n as u64).collect::<Vec<_>>());
        for sid in (0..50_000u64).step_by(97) {
            let req =
                RecommendRequest { session_id: sid, item: 1, consent: true, filter_adult: false };
            let owner = addr(rendezvous.route(sid));
            assert_eq!(
                core.route_predict(&req),
                PredictRoute::Forward(ForwardTarget { addr: owner, depersonalised: false, attempt: 0 }),
                "divergence at n={n} sid={sid}"
            );
        }
    }
}
