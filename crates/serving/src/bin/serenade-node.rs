//! Serving-node daemon: one machine of a multi-process cluster.
//!
//! Binds its one HTTP port (the REST surface and the router's `/admin/`
//! routes), prints one machine-readable line with the bound address, then
//! runs until stdin reaches EOF — the parent (an operator script or the
//! cluster integration test) owns the lifecycle by holding the pipe open.
//!
//! ```text
//! serenade-node [--id N] [--addr HOST:PORT] [--seed-sessions N] [--index PATH]
//! ```
//!
//! The node starts on a small deterministic synthetic index (or the
//! `binfmt` artifact at `--index`); production indices arrive from the
//! router as `PUT /admin/index`.

use std::io::Read;
use std::process::ExitCode;
use std::sync::Arc;

use serenade_core::{Click, SessionIndex};
use serenade_index::binfmt;
use serenade_serving::node::{NodeConfig, ServingNode};

fn usage() -> ! {
    eprintln!(
        "usage: serenade-node [--id N] [--addr HOST:PORT] [--seed-sessions N] [--index PATH]"
    );
    std::process::exit(2);
}

/// A deterministic synthetic index so a fresh node can serve immediately.
fn synthetic_index(sessions: u64) -> SessionIndex {
    let mut clicks = Vec::new();
    for s in 0..sessions.max(2) {
        let ts = 100 + s * 10;
        clicks.push(Click::new(s + 1, s % 16, ts));
        clicks.push(Click::new(s + 1, (s + 3) % 16, ts + 1));
        clicks.push(Click::new(s + 1, (s + 7) % 16, ts + 2));
    }
    SessionIndex::build(&clicks, 500).expect("synthetic index builds")
}

fn main() -> ExitCode {
    let mut config = NodeConfig::default();
    let mut seed_sessions = 64u64;
    let mut index_path: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--id" => config.node_id = value().parse().unwrap_or_else(|_| usage()),
            "--addr" => config.server.addr = value(),
            "--seed-sessions" => {
                seed_sessions = value().parse().unwrap_or_else(|_| usage())
            }
            "--index" => index_path = Some(value()),
            _ => usage(),
        }
    }

    let index = match &index_path {
        Some(path) => {
            let bytes = match std::fs::read(path) {
                Ok(bytes) => bytes,
                Err(e) => {
                    eprintln!("serenade-node: unreadable index {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match binfmt::read_index(bytes.as_slice()) {
                Ok(index) => index,
                Err(e) => {
                    eprintln!("serenade-node: rejected index {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => synthetic_index(seed_sessions),
    };

    let node = match ServingNode::start(Arc::new(index), config) {
        Ok(node) => node,
        Err(e) => {
            eprintln!("serenade-node: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };

    // One parseable line; the parent reads it to learn the ephemeral port.
    println!("node id={} data={}", node.id(), node.data_addr());

    // Serve until the parent closes our stdin (or exits, which closes it).
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    node.shutdown();
    ExitCode::SUCCESS
}
