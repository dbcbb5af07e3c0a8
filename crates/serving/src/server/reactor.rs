//! The readiness-driven event loop at the heart of the server.
//!
//! One reactor thread multiplexes every connection over a [`Poller`] — an
//! epoll instance driven by raw x86-64 syscalls (the tree vendors no libc),
//! so the server builds on Linux/x86-64 only — and concurrency is bounded
//! by file descriptors, not threads. It owns every socket and never blocks
//! on one: reads, writes, accepts and dials run to `WouldBlock` and then
//! wait for readiness.
//!
//! # Which turn runs where
//!
//! Parsed requests are admitted through the [`LifecycleGate`] on this
//! thread. Where an admitted request *runs* is decided from what the poll
//! turn observed, never from a setting:
//!
//! * **inline** — a predict the tier runs locally
//!   ([`PredictRoute::Local`]), admitted in a turn that delivered no other
//!   readiness event and has run no inline predict yet, with nothing else
//!   in flight and an empty dispatch queue, arrived alone. The reactor runs
//!   it to completion itself, exactly as a worker would have run it, and
//!   writes the answer: no queue push, no condvar, no wake-up, no
//!   `epoll_ctl` (the thread that read the request answers it, as the
//!   paper's Actix workers do);
//! * **queued** — every other local predict (several ready connections, a
//!   backlog) goes to the worker pool as a [`Dispatch`] through the
//!   [`DispatchQueue`], so concurrent predicts use every core and
//!   queue-capacity shedding stays exact; so does every non-predict
//!   request. Responses come back through the [`CompletionQueue`] and a
//!   [`Waker`] kick;
//! * **forwarded** — a predict the tier sends elsewhere
//!   ([`PredictRoute::Forward`], the router) is written — the client's body
//!   verbatim — on a non-blocking keep-alive [`Upstream`] connection this
//!   thread owns and polls beside the client sockets. The client connection
//!   parks holding its gate slot; the node's complete `200` is relayed
//!   byte-for-byte, and anything else (I/O error, EOF, another status, a
//!   deadline missed at the timer sweep) goes back to the tier's one
//!   failover policy ([`RequestBackend::forward_failed`]), which names the
//!   next target or none (an empty `200`). Attempts share the request's
//!   deadline; a missed one extends it by half as much each time, so the
//!   client waits less than two deadlines however many nodes stall.
//!
//! Answering never nests: a frame answered on the spot (inline predict,
//! shed, unroutable forward) returns to the loop that walks the
//! connection's buffered frames, so a client's pipeline depth is not the
//! reactor's stack depth.
//!
//! A connection waiting for a worker or a node reads nothing more: its
//! poller interest is cleared the first time it speaks out of turn, so a
//! pipelining flood backs up into the kernel socket buffer instead of the
//! parser's heap. An idle keep-alive connection costs its fd and nothing
//! else until the timer sweep. Once the drain begins the sweep runs every
//! turn and closes each idle connection there and then, so a silent peer
//! never holds the drain open until its `idle_timeout`.
//!
//! [`LifecycleGate`]: super::lifecycle::LifecycleGate

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serenade_telemetry::Gauge;

use crate::context::RequestContext;
use crate::engine::RecommendRequest;
use crate::json;
use crate::transport::{render_recommend_request, render_request, Progress, ResponseBuf};

use super::backend::{ForwardTarget, PredictRoute, RequestBackend};
use super::conn::{self, CONTENT_TYPE_JSON};
use super::dispatch::{CompletionQueue, Dispatch, DispatchKind, DispatchQueue};
use super::lifecycle::Admission;
use super::metrics::{upstream_connections_gauge, ConnState};
use super::parser::{ParsedRequest, Parser, ParserLimits, Poll};
use super::worker::run_predict;
use super::Shared;

pub(crate) use sys::{dial, Poller, Waker};

/// Poller token reserved for the listening socket.
const LISTENER_TOKEN: u64 = u64::MAX - 1;

/// Readiness interest bits ([`READ`]/[`WRITE`]) a source is registered with.
pub(super) const READ: u8 = 0b01;
/// See [`READ`].
pub(super) const WRITE: u8 = 0b10;

/// One readiness event delivered by [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
compile_error!("the server polls through raw x86-64 epoll syscalls: Linux/x86-64 only");

mod sys {
    //! Raw-syscall epoll backend. The container bakes in the Rust toolchain
    //! but no libc crate, so the three epoll calls (plus `close`,
    //! `prlimit64`, `eventfd2` and the `socket`/`connect` pair behind
    //! [`dial`]) are issued directly through the x86-64 syscall ABI. The
    //! wake channel is an eventfd the poller drains internally.

    use std::fs::File;
    use std::io::{self, Read, Write};
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::os::fd::{AsRawFd, FromRawFd};
    use std::sync::Arc;
    use std::time::Duration;

    use super::{Event, READ, WRITE};

    const SYS_EPOLL_WAIT: i64 = 232;
    const SYS_EPOLL_CTL: i64 = 233;
    const SYS_EPOLL_CREATE1: i64 = 291;
    const SYS_CLOSE: i64 = 3;
    const SYS_SOCKET: i64 = 41;
    const SYS_CONNECT: i64 = 42;
    const SYS_EVENTFD2: i64 = 290;

    const EPOLL_CLOEXEC: i64 = 0x80000;
    const EPOLL_CTL_ADD: i64 = 1;
    const EPOLL_CTL_DEL: i64 = 2;
    const EPOLL_CTL_MOD: i64 = 3;

    const EPOLLIN: u32 = 0x1;
    const EPOLLOUT: u32 = 0x4;
    const EPOLLERR: u32 = 0x8;
    const EPOLLHUP: u32 = 0x10;
    const EPOLLRDHUP: u32 = 0x2000;

    const EFD_CLOEXEC: i64 = 0x80000;
    const EFD_NONBLOCK: i64 = 0x800;

    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;
    const SOCK_STREAM: i64 = 1;
    const SOCK_NONBLOCK: i64 = 0x800;
    const SOCK_CLOEXEC: i64 = 0x80000;

    const EINTR: i64 = 4;
    const EINPROGRESS: i64 = 115;

    /// Poller token reserved for the internal wake channel; never surfaced.
    const WAKE_TOKEN: u64 = u64::MAX;

    /// `struct epoll_event` — packed on x86-64, matching the kernel ABI.
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    /// Issues a raw 4-argument Linux syscall; unused trailing arguments are
    /// passed as zero. Returns the kernel's raw result (negative errno on
    /// failure).
    ///
    /// # Safety
    /// The caller must uphold the invoked syscall's contract: every pointer
    /// argument must be valid for the access the kernel performs.
    unsafe fn syscall4(nr: i64, a1: i64, a2: i64, a3: i64, a4: i64) -> i64 {
        let ret: i64;
        // SAFETY: the x86-64 syscall ABI reads rax/rdi/rsi/rdx/r10 and
        // clobbers only rax/rcx/r11, all declared here; pointer validity is
        // the caller's contract per the function-level safety docs.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") nr => ret,
                in("rdi") a1,
                in("rsi") a2,
                in("rdx") a3,
                in("r10") a4,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    /// Converts a raw syscall return into `io::Result`.
    fn check(ret: i64) -> io::Result<i64> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret)
        }
    }

    /// An empty interest asks for nothing, peer half-close included: a
    /// connection owed a response must not spin the loop on a level-
    /// triggered `EPOLLRDHUP` it will not act on until the response is out.
    fn interest_bits(interest: u8) -> u32 {
        let mut bits = 0;
        if interest & READ != 0 {
            bits |= EPOLLIN | EPOLLRDHUP;
        }
        if interest & WRITE != 0 {
            bits |= EPOLLOUT;
        }
        bits
    }

    /// Cross-thread readiness kick: one 8-byte add to the poller's eventfd.
    /// Safe to call from any thread, any number of times; a saturated
    /// counter means a wake is already pending, so `WouldBlock` is a success.
    #[derive(Clone)]
    pub(crate) struct Waker {
        eventfd: Arc<File>,
    }

    impl Waker {
        pub(crate) fn wake(&self) {
            let _ = (&*self.eventfd).write(&1u64.to_ne_bytes());
        }
    }

    /// An epoll instance plus the wake eventfd and the kernel event buffer.
    pub(crate) struct Poller {
        epfd: i64,
        wake: Arc<File>,
        buf: Vec<EpollEvent>,
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<Self> {
            // SAFETY: epoll_create1 takes no pointers.
            let epfd = check(unsafe { syscall4(SYS_EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0) })?;
            // SAFETY: eventfd2 takes no pointers.
            let wake = check(unsafe {
                syscall4(SYS_EVENTFD2, 0, EFD_CLOEXEC | EFD_NONBLOCK, 0, 0)
            });
            let wake = match wake {
                // SAFETY: the kernel just returned this descriptor to us and
                // nothing else owns it; the `File` closes it on drop.
                Ok(fd) => unsafe { File::from_raw_fd(fd as i32) },
                Err(e) => {
                    // SAFETY: closing the epoll fd we own; no pointers.
                    let _ = unsafe { syscall4(SYS_CLOSE, epfd, 0, 0, 0) };
                    return Err(e);
                }
            };
            let poller = Self {
                epfd,
                wake: Arc::new(wake),
                buf: vec![EpollEvent { events: 0, data: 0 }; 256],
            };
            poller.ctl(EPOLL_CTL_ADD, poller.wake.as_raw_fd() as i64, READ, WAKE_TOKEN)?;
            Ok(poller)
        }

        pub(crate) fn waker(&self) -> Waker {
            Waker { eventfd: Arc::clone(&self.wake) }
        }

        fn ctl(&self, op: i64, fd: i64, interest: u8, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent { events: interest_bits(interest), data: token };
            // SAFETY: `ev` lives across the call and is a valid
            // `epoll_event`; the kernel only reads it (and ignores it for
            // EPOLL_CTL_DEL).
            check(unsafe {
                syscall4(SYS_EPOLL_CTL, self.epfd, op, fd, &mut ev as *mut EpollEvent as i64)
            })
            .map(|_| ())
        }

        pub(crate) fn register_listener(&self, l: &TcpListener, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, l.as_raw_fd() as i64, READ, token)
        }

        pub(crate) fn register_stream(
            &self,
            s: &TcpStream,
            token: u64,
            interest: u8,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, s.as_raw_fd() as i64, interest, token)
        }

        pub(crate) fn rearm_stream(
            &self,
            s: &TcpStream,
            token: u64,
            interest: u8,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, s.as_raw_fd() as i64, interest, token)
        }

        pub(crate) fn deregister_stream(&self, s: &TcpStream) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, s.as_raw_fd() as i64, 0, 0)
        }

        /// Blocks until readiness, a wake, or `timeout`; appends events.
        /// Wake-channel traffic is drained internally and never surfaced.
        pub(crate) fn wait(&mut self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
            let ms = timeout.as_millis().min(i32::MAX as u128) as i64;
            let len = self.buf.len() as i64;
            let ptr = self.buf.as_mut_ptr();
            // SAFETY: `ptr` points at `len` owned `EpollEvent`s which stay
            // alive (and unaliased) for the duration of the call; the kernel
            // writes at most `len` entries.
            let n = match check(unsafe { syscall4(SYS_EPOLL_WAIT, self.epfd, ptr as i64, len, ms) })
            {
                Ok(n) => n as usize,
                Err(e) if e.raw_os_error() == Some(EINTR as i32) => 0,
                Err(e) => return Err(e),
            };
            for i in 0..n {
                let ev = self.buf[i];
                let data = ev.data;
                let bits = ev.events;
                if data == WAKE_TOKEN {
                    self.drain_wake();
                    continue;
                }
                events.push(Event {
                    token: data,
                    readable: bits & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                    writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }

        /// One read returns the whole counter and resets it.
        fn drain_wake(&mut self) {
            let mut count = [0u8; 8];
            let _ = (&*self.wake).read(&mut count);
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: closing the epoll fd we own; no pointers involved.
            let _ = unsafe { syscall4(SYS_CLOSE, self.epfd, 0, 0, 0) };
        }
    }

    /// `struct sockaddr_in` / `struct sockaddr_in6`, as `connect` reads them.
    #[repr(C)]
    struct SockAddrIn {
        family: u16,
        port_be: u16,
        addr: [u8; 4],
        zero: [u8; 8],
    }

    #[repr(C)]
    struct SockAddrIn6 {
        family: u16,
        port_be: u16,
        flowinfo: u32,
        addr: [u8; 16],
        scope_id: u32,
    }

    /// Starts a TCP connection without waiting for it: the returned stream
    /// is nonblocking and usually still connecting. Register it for `WRITE`;
    /// when that fires, `take_error()` says whether the dial succeeded.
    pub(crate) fn dial(addr: SocketAddr) -> io::Result<TcpStream> {
        let family = if addr.is_ipv4() { AF_INET } else { AF_INET6 };
        // SAFETY: socket takes no pointers.
        let fd = check(unsafe {
            syscall4(
                SYS_SOCKET,
                i64::from(family),
                SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                0,
                0,
            )
        })?;
        // SAFETY: the kernel just returned this descriptor to us and nothing
        // else owns it; the `TcpStream` closes it on drop, error paths
        // below included.
        let stream = unsafe { TcpStream::from_raw_fd(fd as i32) };
        let ret = match addr {
            SocketAddr::V4(v4) => {
                let sa = SockAddrIn {
                    family: AF_INET,
                    port_be: v4.port().to_be(),
                    addr: v4.ip().octets(),
                    zero: [0; 8],
                };
                // SAFETY: `sa` is a valid `sockaddr_in` that outlives the
                // call; the kernel reads exactly the length passed.
                unsafe {
                    syscall4(
                        SYS_CONNECT,
                        fd,
                        &sa as *const SockAddrIn as i64,
                        std::mem::size_of::<SockAddrIn>() as i64,
                        0,
                    )
                }
            }
            SocketAddr::V6(v6) => {
                let sa = SockAddrIn6 {
                    family: AF_INET6,
                    port_be: v6.port().to_be(),
                    flowinfo: v6.flowinfo().to_be(),
                    addr: v6.ip().octets(),
                    scope_id: v6.scope_id(),
                };
                // SAFETY: `sa` is a valid `sockaddr_in6` that outlives the
                // call; the kernel reads exactly the length passed.
                unsafe {
                    syscall4(
                        SYS_CONNECT,
                        fd,
                        &sa as *const SockAddrIn6 as i64,
                        std::mem::size_of::<SockAddrIn6>() as i64,
                        0,
                    )
                }
            }
        };
        if ret < 0 && ret != -EINPROGRESS && ret != -EINTR {
            return Err(io::Error::from_raw_os_error(-ret as i32));
        }
        Ok(stream)
    }
}

/// One multiplexed client connection: socket, parser, lifecycle state and
/// the pending output buffer.
struct Connection {
    stream: TcpStream,
    parser: Parser,
    state: ConnState,
    state_since: Instant,
    interest: u8,
    out: Vec<u8>,
    out_pos: usize,
    write_since: Option<Instant>,
    close_after_write: bool,
    /// A response is owed by a worker or an upstream node; nothing more is
    /// read or parsed until it is out.
    busy: bool,
    eof: bool,
    served: usize,
    idle_since: Instant,
    frame_started: Option<Instant>,
    /// The forward this connection is parked on (router tier).
    forward: Option<Forward>,
}

impl Connection {
    fn new(stream: TcpStream, limits: ParserLimits, now: Instant) -> Self {
        Self {
            stream,
            parser: Parser::new(limits),
            state: ConnState::Idle,
            state_since: now,
            interest: READ,
            out: Vec::new(),
            out_pos: 0,
            write_since: None,
            close_after_write: false,
            busy: false,
            eof: false,
            served: 0,
            idle_since: now,
            frame_started: None,
            forward: None,
        }
    }
}

/// One predict in flight to a node, held by the client connection that is
/// parked on it (and that keeps its [`LifecycleGate`] slot meanwhile).
///
/// [`LifecycleGate`]: super::lifecycle::LifecycleGate
struct Forward {
    req: RecommendRequest,
    target: ForwardTarget,
    /// Token of the upstream connection carrying the exchange.
    upstream: u64,
    /// When this attempt counts as failed (swept like every other timeout):
    /// the request's own deadline, unless a missed one granted an extension
    /// (see [`Reactor::fail_forward`]).
    deadline: Option<Instant>,
    close_hint: bool,
}

/// One keep-alive connection to a node, owned by the reactor thread and
/// registered in its poller: either carrying one exchange for `client`, or
/// idle in its node's [`NodePool`]. Both buffers are reused across exchanges.
struct Upstream {
    stream: TcpStream,
    addr: SocketAddr,
    /// The dial has completed (see [`dial`]).
    connected: bool,
    interest: u8,
    /// The request frame being written.
    out: Vec<u8>,
    out_pos: usize,
    response: ResponseBuf,
    /// The client connection waiting on this exchange; `None` when idle.
    client: Option<u64>,
    /// When the request was fully written.
    sent_at: Instant,
}

/// The reactor's connections to one node.
struct NodePool {
    /// Idle connections, LIFO: the most recently used one is the least
    /// likely to have been idle-reaped by the node.
    idle: Vec<u64>,
    /// Open connections, idle or in flight: the node's series of
    /// `serenade_http_upstream_connections`.
    open: Arc<Gauge>,
}

/// Idle upstream connections kept per node; a finished exchange beyond it
/// closes its connection instead. Any number may be in flight.
const MAX_IDLE_UPSTREAMS: usize = 64;

/// Set in the slot-index half of every upstream token, so one `u64` token
/// space serves both slabs.
const UPSTREAM_TAG: u64 = 1 << 31;

/// Connection slab: slot reuse with a per-slot generation counter, so a
/// token (`generation << 32 | tag | index`) from a closed connection can
/// never address its successor.
struct Slab<T> {
    entries: Vec<Option<T>>,
    generations: Vec<u32>,
    free: Vec<u32>,
    tag: u64,
}

impl<T> Slab<T> {
    fn new(tag: u64) -> Self {
        Self { entries: Vec::new(), generations: Vec::new(), free: Vec::new(), tag }
    }

    fn token_for(&self, index: usize) -> u64 {
        (u64::from(self.generations[index]) << 32) | self.tag | index as u64
    }

    /// The slot `token` addresses, if its generation is still current.
    fn slot(&self, token: u64) -> Option<usize> {
        let index = (token & u64::from(u32::MAX) & !UPSTREAM_TAG) as usize;
        let current = token & UPSTREAM_TAG == self.tag
            && self.generations.get(index).copied() == Some((token >> 32) as u32);
        current.then_some(index)
    }

    fn insert(&mut self, value: T) -> u64 {
        let index = match self.free.pop() {
            Some(index) => index as usize,
            None => {
                self.generations.push(0);
                self.entries.push(None);
                self.entries.len() - 1
            }
        };
        self.entries[index] = Some(value);
        self.token_for(index)
    }

    fn get_mut(&mut self, token: u64) -> Option<&mut T> {
        let index = self.slot(token)?;
        self.entries[index].as_mut()
    }

    fn remove(&mut self, token: u64) -> Option<T> {
        let index = self.slot(token)?;
        let value = self.entries[index].take()?;
        self.generations[index] = self.generations[index].wrapping_add(1);
        self.free.push(index as u32);
        Some(value)
    }

    fn len(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    fn tokens_into(&self, out: &mut Vec<u64>) {
        out.clear();
        for (index, slot) in self.entries.iter().enumerate() {
            if slot.is_some() {
                out.push(self.token_for(index));
            }
        }
    }
}

/// Minimum interval between full timeout sweeps while running; a sweep is
/// O(connections), so under event pressure it must not run per wakeup.
const SWEEP_INTERVAL: Duration = Duration::from_millis(25);

/// The reactor: poller, listener, connection slabs and the dispatch plumbing.
pub(super) struct Reactor<B: RequestBackend> {
    poller: Poller,
    listener: TcpListener,
    shared: Arc<Shared>,
    cluster: Arc<B>,
    queue: Arc<DispatchQueue>,
    completions: Arc<CompletionQueue>,
    slab: Slab<Connection>,
    upstreams: Slab<Upstream>,
    pools: HashMap<SocketAddr, NodePool>,
    /// The context inline predicts run in, reused like a worker's.
    ctx: RequestContext,
    /// The current poll turn delivered at most one readiness event and has
    /// run no predict inline yet: whoever sent it is alone.
    solo_turn: bool,
    /// The connection whose buffered frames [`Reactor::advance`] is walking.
    advancing: Option<u64>,
    events: Vec<Event>,
    sweep_tokens: Vec<u64>,
    completion_scratch: Vec<super::dispatch::Completion>,
    last_sweep: Instant,
    read_buf: Box<[u8; 8192]>,
}

impl<B: RequestBackend> Reactor<B> {
    pub(super) fn new(
        listener: TcpListener,
        shared: Arc<Shared>,
        cluster: Arc<B>,
        queue: Arc<DispatchQueue>,
        completions: Arc<CompletionQueue>,
    ) -> std::io::Result<Self> {
        let poller = Poller::new()?;
        poller.register_listener(&listener, LISTENER_TOKEN)?;
        Ok(Self {
            poller,
            listener,
            shared,
            cluster,
            queue,
            completions,
            slab: Slab::new(0),
            upstreams: Slab::new(UPSTREAM_TAG),
            pools: HashMap::new(),
            ctx: RequestContext::new(),
            solo_turn: false,
            advancing: None,
            events: Vec::with_capacity(256),
            sweep_tokens: Vec::new(),
            completion_scratch: Vec::new(),
            last_sweep: Instant::now(),
            read_buf: Box::new([0u8; 8192]),
        })
    }

    pub(super) fn waker(&self) -> Waker {
        self.poller.waker()
    }

    /// Runs the event loop until the lifecycle gate reaches STOPPED. On
    /// exit every connection is closed and the dispatch queue is closed so
    /// workers drain their backlog and join.
    pub(super) fn run(mut self) {
        let tick = self.shared.config.read_timeout.max(Duration::from_millis(1));
        loop {
            self.events.clear();
            if self.poller.wait(&mut self.events, tick).is_err() {
                // Transient poller failure: treat as an empty tick; the
                // timer sweep and gate checks below still run.
            }
            self.solo_turn = self.events.len() <= 1;
            self.apply_completions();
            let events = std::mem::take(&mut self.events);
            for ev in &events {
                if ev.token == LISTENER_TOKEN {
                    self.accept_ready();
                } else if ev.token & UPSTREAM_TAG != 0 {
                    self.upstream_ready(*ev);
                } else {
                    self.connection_ready(*ev);
                }
            }
            self.events = events;
            // Draining, every turn sweeps: it closes the connections that
            // went idle since the last one.
            let draining = !self.shared.gate.is_running();
            let now = Instant::now();
            if draining || now.duration_since(self.last_sweep) >= SWEEP_INTERVAL {
                self.last_sweep = now;
                self.sweep_timeouts(now, draining);
            }
            if self.shared.gate.is_stopped() {
                break;
            }
        }
        self.close_all();
        self.queue.close();
        self.shared.wakeup.notify_all();
    }

    /// Applies worker completions: queue the rendered bytes and flush.
    fn apply_completions(&mut self) {
        let mut batch = std::mem::take(&mut self.completion_scratch);
        self.completions.drain_into(&mut batch);
        for completion in batch.drain(..) {
            self.answer(completion.token, completion.bytes, completion.close);
        }
        self.completion_scratch = batch;
    }

    /// Accepts until `WouldBlock`. During drain the backlog is left in the
    /// kernel: those connections are answered by the reset when the
    /// listener drops at exit, and `connect` keeps succeeding only as long
    /// as the backlog has room — matching the documented drain contract
    /// that post-drain requests fail at the connection level.
    fn accept_ready(&mut self) {
        if !self.shared.gate.is_running() {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.admit_connection(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn admit_connection(&mut self, stream: TcpStream) {
        let config = &self.shared.config;
        let cap = config.max_connections;
        if cap != 0 && self.slab.len() >= cap {
            self.shed_connection(stream);
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        self.shared.metrics.connections.inc();
        self.shared.open_connections.fetch_add(1, crate::sync::atomic::Ordering::SeqCst);
        let limits = ParserLimits {
            max_head_bytes: config.max_head_bytes,
            max_headers: config.max_headers,
            max_body_bytes: config.max_body_bytes,
            max_admin_body_bytes: B::ADMIN_BODY_BYTES,
        };
        let token = self.slab.insert(Connection::new(stream, limits, Instant::now()));
        let registered = match self.slab.get_mut(token) {
            Some(conn) => self.poller.register_stream(&conn.stream, token, READ).is_ok(),
            None => false,
        };
        if !registered {
            self.close(token);
        }
    }

    /// Sheds one connection at the accept gate: the fd budget is exhausted,
    /// so answer `503 + Retry-After` on the still-blocking socket and close.
    fn shed_connection(&mut self, stream: TcpStream) {
        self.shared.metrics.shed_connections.inc();
        let config = &self.shared.config;
        let _ = stream.set_write_timeout(Some(config.write_timeout));
        let body = json::error(OVERLOADED);
        let bytes = conn::render_response(
            503,
            body.as_bytes(),
            CONTENT_TYPE_JSON,
            true,
            Some(config.retry_after_seconds),
        );
        let mut stream = stream;
        let _ = stream.write_all(&bytes);
        // Lingering close. The shed client is usually mid-write: closing
        // while its request bytes sit unread in our receive queue turns the
        // close into a TCP reset, which can discard the 503 out of the
        // client's buffer before it reads it. Send our FIN first, then
        // drain until the client's FIN so the response is reliably
        // delivered — bounded, since a shed storm must not capture the
        // reactor thread (the blocking `write_all` above has the same
        // `write_timeout` bound).
        let _ = stream.shutdown(std::net::Shutdown::Write);
        const SHED_LINGER: Duration = Duration::from_millis(100);
        let _ = stream.set_read_timeout(Some(SHED_LINGER));
        let deadline = Instant::now() + SHED_LINGER;
        let mut sink = [0u8; 512];
        loop {
            match stream.read(&mut sink) {
                Ok(0) => break,
                Ok(_) | Err(_) if Instant::now() >= deadline => break,
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    fn connection_ready(&mut self, ev: Event) {
        let Some(conn) = self.slab.get_mut(ev.token) else { return };
        if conn.busy {
            // A response is owed and nothing is read until it is out, so the
            // connection goes quiet in the poller the first time it speaks
            // out of turn (a pipelined frame stays in the kernel buffer; a
            // request that is answered before the client's next byte never
            // costs an `epoll_ctl`). Readiness with no interest armed is
            // the socket failing: stop listening to it, close after the
            // write.
            if conn.interest != 0 {
                self.set_interest(ev.token, 0);
            } else {
                conn.eof = true;
                let _ = self.poller.deregister_stream(&conn.stream);
            }
            return;
        }
        if ev.writable && !conn.out.is_empty() {
            self.flush(ev.token);
        }
        if ev.readable {
            self.read_ready(ev.token);
        }
    }

    /// Reads until `WouldBlock`/EOF, then advances the protocol machine.
    fn read_ready(&mut self, token: u64) {
        loop {
            let Some(conn) = self.slab.get_mut(token) else { return };
            if conn.busy || !conn.out.is_empty() {
                // Leave the bytes in the kernel buffer until the response
                // is out.
                return;
            }
            match conn.stream.read(&mut self.read_buf[..]) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    conn.parser.feed(&self.read_buf[..n]);
                    if n < self.read_buf.len() {
                        break;
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
        self.advance(token);
        if let Some(conn) = self.slab.get_mut(token) {
            if conn.eof && !conn.busy && conn.out.is_empty() {
                // Peer is gone and nothing is owed: close now.
                self.close(token);
            }
        }
    }

    /// Walks buffered frames: parse → admission → execute/dispatch/shed,
    /// stopping when the connection goes busy, starts writing, or runs out
    /// of bytes.
    fn advance(&mut self, token: u64) {
        // Answering a frame ends in `flush`, which comes back here for the
        // next pipelined one. When the frame was this walk's own (answered
        // on the spot: an inline predict, a shed, an unroutable forward),
        // the walk below takes the next one itself — a client's pipeline
        // depth must never become the reactor's stack depth.
        if self.advancing == Some(token) {
            return;
        }
        let outer = self.advancing.replace(token);
        self.walk_frames(token);
        self.advancing = outer;
    }

    /// The walk of [`Reactor::advance`], one frame per iteration.
    fn walk_frames(&mut self, token: u64) {
        loop {
            let now = Instant::now();
            let Some(conn) = self.slab.get_mut(token) else { return };
            if conn.busy || !conn.out.is_empty() {
                return;
            }
            match conn.parser.poll() {
                Poll::Request(request) => {
                    let started = conn.frame_started.take().unwrap_or(now);
                    conn.served += 1;
                    conn.idle_since = now;
                    self.handle_request(token, request, started);
                }
                Poll::Reject(reject) => {
                    self.shared.metrics.rejects.inc();
                    let body = json::error(reject.message);
                    self.respond_now(token, reject.status, &body, true, None);
                    return;
                }
                Poll::NeedHead => {
                    if conn.parser.mid_request() {
                        if conn.frame_started.is_none() {
                            conn.frame_started = Some(now);
                        }
                        self.set_state(token, ConnState::ReadingHead);
                    } else {
                        conn.idle_since = now;
                        self.set_state(token, ConnState::Idle);
                    }
                    return;
                }
                Poll::NeedBody => {
                    let Some(conn) = self.slab.get_mut(token) else { return };
                    if conn.frame_started.is_none() {
                        conn.frame_started = Some(now);
                    }
                    self.set_state(token, ConnState::ReadingBody);
                    return;
                }
            }
        }
    }

    /// Admission for one parsed request, then its execution path — all on
    /// the reactor thread. A well-formed predict goes where the tier says
    /// ([`RequestBackend::route_predict`]): a local one runs right here when
    /// this turn shows it arrived alone, else on a worker; a remote
    /// one is forwarded. Everything else is a worker's.
    fn handle_request(&mut self, token: u64, request: ParsedRequest, started: Instant) {
        let max_inflight = self.shared.config.max_inflight_requests;
        let retry = Some(self.shared.config.retry_after_seconds);
        let keepalive_cap = self.shared.config.keepalive_max_requests;
        match self.shared.gate.try_begin_request(max_inflight) {
            Admission::Draining => {
                self.shared.metrics.shed_draining.inc();
                self.set_state(token, ConnState::Draining);
                self.respond_now(token, 503, &json::error(OVERLOADED), true, retry);
                return;
            }
            Admission::Overloaded => {
                self.shared.metrics.shed_inflight.inc();
                // Framing is intact: shed the request, keep the connection
                // unless the client asked to close.
                self.respond_now(token, 503, &json::error(OVERLOADED), request.close, retry);
                return;
            }
            Admission::Admitted => {}
        }
        let Some(conn) = self.slab.get_mut(token) else {
            self.shared.gate.finish_request();
            return;
        };
        let close_hint = request.close || (keepalive_cap != 0 && conn.served >= keepalive_cap);
        let deadline = self.deadline_from(started);
        // Count the admission BEFORE the request can reach a worker: one
        // can pop it and render `/metrics` before the reactor resumes, and
        // the exposition must already include the request being served.
        // (Queue-full pushes stay counted too — they did pass the gate.)
        self.shared.metrics.requests.inc();
        let predict = (request.method == "POST" && request.path == "/recommend")
            .then(|| conn::parse_recommend_request(request.text()).ok())
            .flatten();
        let kind = match predict {
            // A malformed predict body re-parses to its `400` on a worker.
            None => DispatchKind::Other,
            Some(req) => match self.cluster.route_predict(&req) {
                PredictRoute::Local if self.predict_is_alone() => {
                    self.run_inline(token, req, deadline, close_hint);
                    return;
                }
                PredictRoute::Local => DispatchKind::Predict(req),
                route => {
                    let target = match route {
                        PredictRoute::Forward(target) => Some(target),
                        _ => None,
                    };
                    self.shared.metrics.predicts_forwarded.inc();
                    self.set_state(token, ConnState::Handling);
                    let body = Some(request.body.as_slice());
                    self.forward(token, req, target, body, deadline, close_hint);
                    return;
                }
            },
        };
        let is_predict = matches!(kind, DispatchKind::Predict(_));
        let client_close = request.close;
        match self.queue.push(Dispatch { token, request, kind, deadline, close_hint }) {
            Ok(()) => {
                if is_predict {
                    self.shared.metrics.predicts_queued.inc();
                }
                self.set_state(token, ConnState::Handling);
                if let Some(conn) = self.slab.get_mut(token) {
                    conn.busy = true;
                }
            }
            Err(_rejected) => {
                self.shared.gate.finish_request();
                self.shared.metrics.shed_queue_full.inc();
                self.respond_now(token, 503, &json::error(OVERLOADED), client_close, retry);
            }
        }
    }

    /// The deadline of work that starts counting at `from`.
    fn deadline_from(&self, from: Instant) -> Option<Instant> {
        let budget = self.shared.config.request_deadline;
        (budget != Duration::ZERO).then(|| from + budget)
    }

    /// Whether the predict just admitted is alone, by what this turn
    /// observed: it is the only ready connection and the turn's first
    /// inline predict (frames pipelined behind one take the queue, so one
    /// connection's backlog cannot hold the loop), the only request in
    /// flight, and no backlog waits for a worker. Then the queue, the
    /// worker wake-up and the completion kick would buy nothing, and the
    /// predict runs on this thread. Anything else — a flash crowd, a busy
    /// pool — keeps the dispatch queue, its spread across the workers and
    /// its exact capacity shedding.
    fn predict_is_alone(&self) -> bool {
        self.solo_turn && self.queue.depth() == 0 && self.shared.gate.inflight() == 1
    }

    /// Runs one admitted local predict to completion on this thread, as a
    /// worker would have run it, and answers it.
    fn run_inline(
        &mut self,
        token: u64,
        req: RecommendRequest,
        deadline: Option<Instant>,
        close_hint: bool,
    ) {
        self.set_state(token, ConnState::Handling);
        // One inline predict per turn.
        self.solo_turn = false;
        self.shared.metrics.predicts_inline.inc();
        let (status, body) = run_predict(self.cluster.as_ref(), req, deadline, &mut self.ctx);
        let close = self.release_slot(close_hint);
        self.respond_now(token, status, &body, close, None);
    }

    /// Sends an admitted predict to `target` and parks the client on the
    /// exchange; an empty `200` when there is nowhere (left) to send it.
    /// `body` is the client's own request body, forwarded verbatim unless
    /// the target is to be asked without consent.
    fn forward(
        &mut self,
        token: u64,
        req: RecommendRequest,
        target: Option<ForwardTarget>,
        body: Option<&[u8]>,
        deadline: Option<Instant>,
        close_hint: bool,
    ) {
        let mut next = target;
        loop {
            let Some(target) = next else {
                let close = self.release_slot(close_hint);
                self.respond_now(token, 200, &conn::render_recommendations(&[]), close, None);
                return;
            };
            let Some(up_token) = self.checkout_upstream(target.addr) else {
                next = self.cluster.forward_failed(&req, target);
                continue;
            };
            if let Some(up) = self.upstreams.get_mut(up_token) {
                let without_consent;
                let body = match body.filter(|_| !target.depersonalised) {
                    Some(body) => body,
                    None => {
                        without_consent =
                            render_recommend_request(&RecommendRequest { consent: false, ..req });
                        without_consent.as_bytes()
                    }
                };
                let body = Some((CONTENT_TYPE_JSON, body));
                render_request(&mut up.out, "POST", "/recommend", up.addr, body);
                up.out_pos = 0;
                up.client = Some(token);
            }
            if let Some(conn) = self.slab.get_mut(token) {
                conn.busy = true;
                conn.forward = Some(Forward { req, target, upstream: up_token, deadline, close_hint });
            }
            // A connection still dialling writes when its `WRITE` fires.
            self.flush_upstream(up_token);
            return;
        }
    }

    /// An idle connection to `addr`, or a freshly dialled one (registered
    /// for `WRITE`, which fires when the dial completes). `None` when the
    /// dial fails on the spot.
    fn checkout_upstream(&mut self, addr: SocketAddr) -> Option<u64> {
        if let Some(token) = self.pools.get_mut(&addr).and_then(|pool| pool.idle.pop()) {
            return Some(token);
        }
        let stream = dial(addr).ok()?;
        let _ = stream.set_nodelay(true);
        // The connect completes in the background; `WRITE` readiness
        // reports whether it succeeded.
        let token = self.upstreams.insert(Upstream {
            stream,
            addr,
            connected: false,
            interest: WRITE,
            out: Vec::new(),
            out_pos: 0,
            response: ResponseBuf::default(),
            client: None,
            sent_at: Instant::now(),
        });
        let registered = match self.upstreams.get_mut(token) {
            Some(up) => self.poller.register_stream(&up.stream, token, WRITE).is_ok(),
            None => false,
        };
        if !registered {
            self.upstreams.remove(token);
            return None;
        }
        // A node's pool, and with it the node's gauge series, is made on the
        // first dial and kept for good: a member that leaves and rejoins
        // finds both again. This thread is the gauge's only writer.
        let registry = self.cluster.telemetry().registry();
        let pool = self.pools.entry(addr).or_insert_with(|| NodePool {
            idle: Vec::new(),
            open: upstream_connections_gauge(registry, addr),
        });
        pool.open.set(pool.open.get() + 1);
        Some(token)
    }

    fn upstream_ready(&mut self, ev: Event) {
        let Some(up) = self.upstreams.get_mut(ev.token) else { return };
        if up.client.is_none() {
            // Idle: anything but "nothing to read" means the node closed the
            // connection or spoke out of turn — not reusable either way.
            let still_idle = matches!(
                up.stream.read(&mut self.read_buf[..]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock
            );
            if !still_idle {
                self.close_upstream(ev.token);
            }
            return;
        }
        if !up.connected {
            if !ev.writable {
                return;
            }
            if !matches!(up.stream.take_error(), Ok(None)) {
                self.fail_upstream(ev.token);
                return;
            }
            up.connected = true;
        }
        if ev.writable {
            self.flush_upstream(ev.token);
        }
        if ev.readable {
            self.read_upstream(ev.token);
        }
    }

    /// Writes the pending request frame until done or `WouldBlock`; once it
    /// is out, the connection waits for the response under `READ`.
    fn flush_upstream(&mut self, token: u64) {
        loop {
            let Some(up) = self.upstreams.get_mut(token) else { return };
            if !up.connected || up.out_pos >= up.out.len() {
                return;
            }
            match up.stream.write(&up.out[up.out_pos..]) {
                Ok(0) => break,
                Ok(n) => {
                    up.out_pos += n;
                    if up.out_pos >= up.out.len() {
                        up.sent_at = Instant::now();
                        self.set_upstream_interest(token, READ);
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.set_upstream_interest(token, READ | WRITE);
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        self.fail_upstream(token);
    }

    /// Reads the node's response until `WouldBlock`; a whole `200` is
    /// relayed to the parked client, anything else is a failed attempt.
    fn read_upstream(&mut self, token: u64) {
        loop {
            let Some(up) = self.upstreams.get_mut(token) else { return };
            match up.stream.read(&mut self.read_buf[..]) {
                Ok(0) => break,
                Ok(n) => {
                    up.response.feed(&self.read_buf[..n]);
                    match up.response.poll() {
                        Progress::Complete => {
                            self.complete_forward(token);
                            return;
                        }
                        Progress::Incomplete => {}
                        Progress::Malformed => break,
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        self.fail_upstream(token);
    }

    /// The upstream's response is whole: relay a `200`'s body bytes to the
    /// parked client as they are, and return the connection to its pool.
    fn complete_forward(&mut self, up_token: u64) {
        let Some(up) = self.upstreams.get_mut(up_token) else { return };
        let Some(client) = up.client else { return };
        if up.response.status() != 200 {
            self.fail_upstream(up_token);
            return;
        }
        let body = up.response.body();
        let Some(fwd) = self.slab.get_mut(client).and_then(|conn| conn.forward.take()) else {
            self.close_upstream(up_token);
            return;
        };
        self.shared.gate.finish_request();
        let close = fwd.close_hint || !self.shared.gate.is_running();
        let bytes = conn::render_response(200, body, CONTENT_TYPE_JSON, close, None);
        self.cluster.record_forward(up.sent_at.elapsed());
        let reusable = up.response.reusable();
        up.response.consume();
        up.client = None;
        match self.pools.get_mut(&up.addr) {
            Some(pool) if reusable && pool.idle.len() < MAX_IDLE_UPSTREAMS => pool.idle.push(up_token),
            _ => self.close_upstream(up_token),
        }
        self.answer(client, bytes, close);
    }

    /// The exchange on `up_token` failed (dial, I/O, EOF, a non-`200`, a
    /// malformed response): the connection is gone and its client's predict
    /// goes back to the tier's failover policy.
    fn fail_upstream(&mut self, up_token: u64) {
        match self.upstreams.get_mut(up_token).and_then(|up| up.client) {
            Some(client) => self.fail_forward(client, false),
            None => self.close_upstream(up_token),
        }
    }

    /// The forward `token` is parked on produced no `200`: drop its upstream
    /// connection (its stream state is unknowable) and ask the tier's one
    /// failover policy where the predict goes next.
    ///
    /// The next attempt inherits the request's deadline. Only an attempt
    /// that used the deadline up (`timed_out`) buys its successor time, and
    /// half as much each time: the survivor behind one stalled owner still
    /// gets to answer, and however many members accept and stall, the
    /// client waits less than twice `request_deadline`.
    fn fail_forward(&mut self, token: u64, timed_out: bool) {
        let Some(fwd) = self.slab.get_mut(token).and_then(|conn| conn.forward.take()) else {
            return;
        };
        self.close_upstream(fwd.upstream);
        let next = self.cluster.forward_failed(&fwd.req, fwd.target);
        let deadline = match next {
            Some(target) if timed_out => {
                let extension = self.shared.config.request_deadline / (1 << target.attempt.min(31));
                fwd.deadline.map(|_| Instant::now() + extension)
            }
            _ => fwd.deadline,
        };
        self.forward(token, fwd.req, next, None, deadline, fwd.close_hint);
    }

    fn close_upstream(&mut self, token: u64) {
        let Some(up) = self.upstreams.remove(token) else { return };
        let _ = self.poller.deregister_stream(&up.stream);
        if let Some(pool) = self.pools.get_mut(&up.addr) {
            pool.idle.retain(|idle| *idle != token);
            pool.open.set(pool.open.get().saturating_sub(1));
        }
    }

    fn set_upstream_interest(&mut self, token: u64, interest: u8) {
        let Some(up) = self.upstreams.get_mut(token) else { return };
        if up.interest != interest {
            up.interest = interest;
            let _ = self.poller.rearm_stream(&up.stream, token, interest);
        }
    }

    /// Queues a finished response frame on its connection and flushes.
    fn answer(&mut self, token: u64, bytes: Vec<u8>, close: bool) {
        let Some(conn) = self.slab.get_mut(token) else {
            // The connection died while its request was in flight; the
            // response has nowhere to go.
            return;
        };
        conn.busy = false;
        conn.close_after_write = close;
        conn.out = bytes;
        conn.out_pos = 0;
        conn.write_since = Some(Instant::now());
        if conn.state != ConnState::Draining {
            self.set_state(token, ConnState::Writing);
        }
        self.flush(token);
    }

    /// Renders and answers a reactor-side response (inline predicts, sheds,
    /// rejects, 408s).
    fn respond_now(
        &mut self,
        token: u64,
        status: u16,
        body: &str,
        close: bool,
        retry_after: Option<u32>,
    ) {
        let bytes =
            conn::render_response(status, body.as_bytes(), CONTENT_TYPE_JSON, close, retry_after);
        self.answer(token, bytes, close);
    }

    /// Releases the admission slot of a request that is about to be
    /// answered; returns whether its connection closes after the answer.
    fn release_slot(&self, close_hint: bool) -> bool {
        self.shared.gate.finish_request();
        close_hint || !self.shared.gate.is_running()
    }

    /// Writes pending output until done or `WouldBlock`; arms WRITE
    /// interest for partial writes and finishes the protocol turn on
    /// completion (close, or back to reading).
    fn flush(&mut self, token: u64) {
        loop {
            let Some(conn) = self.slab.get_mut(token) else { return };
            if conn.out.is_empty() {
                return;
            }
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    self.close(token);
                    return;
                }
                Ok(n) => {
                    conn.out_pos += n;
                    if conn.out_pos >= conn.out.len() {
                        // Dropped, not cleared: the next answer brings its
                        // own buffer, and a large one (a session export) is
                        // not kept.
                        conn.out = Vec::new();
                        conn.out_pos = 0;
                        conn.write_since = None;
                        break;
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    self.set_interest(token, WRITE);
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
        let Some(conn) = self.slab.get_mut(token) else { return };
        if conn.close_after_write || conn.eof {
            self.close(token);
            return;
        }
        if !self.shared.gate.is_running() {
            // Response delivered mid-drain: nothing further is admitted on
            // this connection, so release it.
            self.set_state(token, ConnState::Draining);
            self.close(token);
            return;
        }
        self.set_interest(token, READ);
        self.set_state(token, ConnState::Idle);
        let Some(conn) = self.slab.get_mut(token) else { return };
        conn.idle_since = Instant::now();
        // More pipelined bytes may already be buffered.
        self.advance(token);
    }

    fn set_interest(&mut self, token: u64, interest: u8) {
        let Some(conn) = self.slab.get_mut(token) else { return };
        if conn.interest == interest {
            return;
        }
        conn.interest = interest;
        let _ = self.poller.rearm_stream(&conn.stream, token, interest);
    }

    fn set_state(&mut self, token: u64, next: ConnState) {
        let Some(conn) = self.slab.get_mut(token) else { return };
        if conn.state != next {
            self.shared.metrics.record_state(conn.state, conn.state_since.elapsed());
            conn.state = next;
            conn.state_since = Instant::now();
        }
    }

    /// The timer sweep: slow frames (`408`), stuck writes, idle reaping,
    /// and forwards whose node has not answered by their deadline. While
    /// `draining`, an idle connection closes at once: nothing more will be
    /// admitted on it.
    fn sweep_timeouts(&mut self, now: Instant, draining: bool) {
        let config = &self.shared.config;
        let (write_timeout, request_read_timeout, idle_timeout) =
            (config.write_timeout, config.request_read_timeout, config.idle_timeout);
        let mut tokens = std::mem::take(&mut self.sweep_tokens);
        self.slab.tokens_into(&mut tokens);
        for &token in &tokens {
            let Some(conn) = self.slab.get_mut(token) else { continue };
            if conn.busy {
                let overdue = conn
                    .forward
                    .as_ref()
                    .is_some_and(|fwd| fwd.deadline.is_some_and(|deadline| now >= deadline));
                if overdue {
                    self.shared.metrics.timeouts_upstream.inc();
                    self.fail_forward(token, true);
                }
                continue;
            }
            if !conn.out.is_empty() {
                if let Some(since) = conn.write_since {
                    if now.duration_since(since) > write_timeout {
                        self.shared.metrics.timeouts_write.inc();
                        self.close(token);
                    }
                }
                continue;
            }
            if let Some(started) = conn.frame_started {
                if now.duration_since(started) > request_read_timeout {
                    self.shared.metrics.timeouts_read.inc();
                    let Some(conn) = self.slab.get_mut(token) else { continue };
                    conn.frame_started = None;
                    let body = json::error("request read timed out");
                    self.respond_now(token, 408, &body, true, None);
                }
                continue;
            }
            if draining {
                self.set_state(token, ConnState::Draining);
                self.close(token);
            } else if idle_timeout != Duration::ZERO
                && now.duration_since(conn.idle_since) > idle_timeout
            {
                self.shared.metrics.timeouts_idle.inc();
                self.close(token);
            }
        }
        self.sweep_tokens = tokens;
    }

    fn close(&mut self, token: u64) {
        let Some(conn) = self.slab.remove(token) else { return };
        if let Some(fwd) = conn.forward {
            // Closed under a forward (only the loop's exit does that): give
            // back the admission slot the exchange was holding.
            self.shared.gate.finish_request();
            self.close_upstream(fwd.upstream);
        }
        self.shared.metrics.record_state(conn.state, conn.state_since.elapsed());
        let _ = self.poller.deregister_stream(&conn.stream);
        self.shared.open_connections.fetch_sub(1, crate::sync::atomic::Ordering::SeqCst);
        if !self.shared.gate.is_running() {
            self.shared.wakeup.notify_all();
        }
    }

    fn close_all(&mut self) {
        let mut tokens = std::mem::take(&mut self.sweep_tokens);
        self.slab.tokens_into(&mut tokens);
        for &token in &tokens {
            self.close(token);
        }
        self.upstreams.tokens_into(&mut tokens);
        for &token in &tokens {
            self.close_upstream(token);
        }
        self.sweep_tokens = tokens;
    }
}

/// The error of every `503` shed.
const OVERLOADED: &str = "server overloaded";

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;

    #[test]
    fn slab_tokens_are_generation_guarded() {
        let mut slab = Slab::new(0);
        let limits = ParserLimits { max_head_bytes: 1024, max_headers: 16, ..ParserLimits::default() };
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let c1 = TcpStream::connect(addr).expect("connect");
        let c2 = TcpStream::connect(addr).expect("connect");
        let now = Instant::now();
        let t1 = slab.insert(Connection::new(c1, limits, now));
        assert!(slab.get_mut(t1).is_some());
        assert_eq!(slab.len(), 1);
        assert!(slab.remove(t1).is_some());
        assert_eq!(slab.len(), 0);
        // The recycled slot gets a bumped generation: the stale token must
        // not resolve to the new occupant.
        let t2 = slab.insert(Connection::new(c2, limits, now));
        assert_eq!(t2 & u64::from(u32::MAX), t1 & u64::from(u32::MAX), "slot reused");
        assert_ne!(t2, t1, "generation bumped");
        assert!(slab.get_mut(t1).is_none(), "stale token is dead");
        assert!(slab.get_mut(t2).is_some());
    }

    #[test]
    fn poller_wake_is_cross_thread_and_never_surfaced() {
        let mut poller = Poller::new().expect("poller");
        let waker = poller.waker();
        let handle = std::thread::spawn(move || waker.wake());
        let mut events = Vec::new();
        // The wake must terminate the wait early and leave no events (the
        // wake token is internal).
        let started = Instant::now();
        poller.wait(&mut events, Duration::from_secs(5)).expect("wait");
        assert!(started.elapsed() < Duration::from_secs(5));
        assert!(events.is_empty(), "wake token leaked: {events:?}");
        handle.join().expect("join");
    }

    #[test]
    fn dial_does_not_wait_and_reports_through_write_readiness() {
        let mut poller = Poller::new().expect("poller");
        let mut outcome = |addr: SocketAddr| {
            let stream = match dial(addr) {
                Ok(stream) => stream,
                Err(e) => return Some(e),
            };
            poller.register_stream(&stream, 7, WRITE).expect("register");
            let mut events = Vec::new();
            for _ in 0..250 {
                poller.wait(&mut events, Duration::from_millis(20)).expect("wait");
                if events.iter().any(|e| e.token == 7 && e.writable) {
                    return stream.take_error().expect("take_error");
                }
            }
            panic!("the dial to {addr} never resolved");
        };
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        assert!(outcome(addr).is_none(), "a listening port accepts the dial");
        drop(listener);
        assert!(outcome(addr).is_some(), "a closed port refuses it");
    }

    #[test]
    fn poller_reports_listener_readiness() {
        let mut poller = Poller::new().expect("poller");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        poller.register_listener(&listener, LISTENER_TOKEN).expect("register");
        let _client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let mut events = Vec::new();
        // Allow a couple of ticks for the connection to land.
        for _ in 0..50 {
            poller.wait(&mut events, Duration::from_millis(20)).expect("wait");
            if events.iter().any(|e| e.token == LISTENER_TOKEN && e.readable) {
                return;
            }
        }
        panic!("listener readiness never reported: {events:?}");
    }
}
