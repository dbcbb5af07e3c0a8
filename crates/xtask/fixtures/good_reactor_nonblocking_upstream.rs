// The forwarding state machine: the loop starts a dial that does not wait,
// writes and reads its upstream to `WouldBlock`, and parks the exchange
// until the poller reports readiness. Nothing reachable from the loop
// blocks, behind the backend trait included.
// path: crates/app/src/evloop.rs
// root: crates/app/src/evloop.rs :: EventLoop::run
// expect: none
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

pub trait Backend {
    fn route(
        &self,
        key: u64,
    ) -> Option<SocketAddr>;
}

pub struct Table {
    members: Vec<SocketAddr>,
}

impl Backend for Table {
    fn route(
        &self,
        key: u64,
    ) -> Option<SocketAddr> {
        self.members.get(key as usize % self.members.len().max(1)).copied()
    }
}

/// Starts a connection without waiting for it (a raw non-blocking
/// `connect` in the real tree).
fn dial(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let _ = addr;
    Err(ErrorKind::Unsupported.into())
}

pub struct Upstream {
    stream: TcpStream,
    out: Vec<u8>,
    sent: usize,
    response: Vec<u8>,
}

pub struct EventLoop<B: Backend> {
    backend: Arc<B>,
    upstreams: Vec<Upstream>,
    scratch: [u8; 512],
}

impl<B: Backend> EventLoop<B> {
    fn start(&mut self, key: u64, frame: &[u8]) {
        let Some(addr) = self.backend.route(key) else { return };
        if let Ok(stream) = dial(addr) {
            self.upstreams.push(Upstream {
                stream,
                out: frame.to_vec(),
                sent: 0,
                response: Vec::new(),
            });
        }
    }

    /// Writes until done or `WouldBlock`; the poller calls again.
    fn flush(&mut self, slot: usize) {
        let up = &mut self.upstreams[slot];
        while up.sent < up.out.len() {
            match up.stream.write(&up.out[up.sent..]) {
                Ok(n) if n > 0 => up.sent += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                _ => return,
            }
        }
    }

    /// Reads until `WouldBlock`; the poller calls again.
    fn fill(&mut self, slot: usize) {
        let up = &mut self.upstreams[slot];
        loop {
            match up.stream.read(&mut self.scratch) {
                Ok(n) if n > 0 => up.response.extend_from_slice(&self.scratch[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                _ => return,
            }
        }
    }

    pub fn run(&mut self) {
        self.start(7, b"ping");
        for slot in 0..self.upstreams.len() {
            self.flush(slot);
            self.fill(slot);
        }
    }
}
