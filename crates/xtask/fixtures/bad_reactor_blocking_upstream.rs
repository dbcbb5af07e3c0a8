// A forwarding loop that dials and reads its upstream with blocking calls,
// one hop behind the backend trait its generic parameter hides and behind
// signatures spread over several lines: a slow node stalls every
// connection the loop multiplexes.
// path: crates/app/src/evloop.rs
// root: crates/app/src/evloop.rs :: EventLoop::run
// expect: reactor-blocking
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

pub trait Backend {
    fn fetch(
        &self,
        addr: SocketAddr,
        into: &mut [u8],
    ) -> std::io::Result<()>;
}

pub struct Proxy;

impl Backend for Proxy {
    fn fetch(
        &self,
        addr: SocketAddr,
        into: &mut [u8],
    ) -> std::io::Result<()> {
        let mut upstream = TcpStream::connect(addr)?;
        upstream.read_exact(into)
    }
}

pub struct EventLoop<B: Backend> {
    backend: Arc<B>,
    targets: Vec<SocketAddr>,
    buf: Vec<u8>,
}

impl<B: Backend> EventLoop<B> {
    pub fn run(&mut self) {
        for addr in self.targets.clone() {
            let _ = self.backend.fetch(addr, &mut self.buf);
        }
    }
}
