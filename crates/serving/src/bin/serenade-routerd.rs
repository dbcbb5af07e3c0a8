//! Router daemon: the HTTP front end of a multi-node serving cluster.
//!
//! Routes by rendezvous hashing over the member list, fails requests over
//! to surviving nodes (depersonalised, never a 5xx), distributes index
//! artifacts, and rebalances session ownership on membership changes — all
//! over each node's one HTTP address. Members can be given up front with
//! repeated `--node` flags or added later via `POST /cluster/join`.
//!
//! ```text
//! serenade-routerd [--addr HOST:PORT]
//!                  [--node ID,ADDR]...
//!                  [--probe-interval-ms N] [--handoff-cap N]
//! ```
//!
//! Prints one machine-readable line with the bound address, then runs
//! until stdin reaches EOF.

use std::io::Read;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

use serenade_serving::routerd::{RouterConfig, RouterDaemon};

fn usage() -> ! {
    eprintln!(
        "usage: serenade-routerd [--addr HOST:PORT] [--node ID,ADDR]... \
         [--probe-interval-ms N] [--handoff-cap N]"
    );
    std::process::exit(2);
}

fn parse_member(spec: &str) -> Option<(u64, SocketAddr, SocketAddr)> {
    let (id, addr) = spec.split_once(',')?;
    let addr = addr.parse().ok()?;
    Some((id.parse().ok()?, addr, addr))
}

fn main() -> ExitCode {
    let mut config = RouterConfig::default();
    let mut members = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => config.server.addr = value(),
            "--node" => {
                members.push(parse_member(&value()).unwrap_or_else(|| usage()))
            }
            "--probe-interval-ms" => {
                let ms: u64 = value().parse().unwrap_or_else(|_| usage());
                config.probe_interval = Duration::from_millis(ms);
            }
            "--handoff-cap" => {
                config.handoff_cap = value().parse().unwrap_or_else(|_| usage())
            }
            _ => usage(),
        }
    }

    let daemon = match RouterDaemon::start(&members, config) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("serenade-routerd: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("router data={}", daemon.addr());

    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    daemon.shutdown();
    ExitCode::SUCCESS
}
