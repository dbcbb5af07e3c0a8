//! The readiness-driven event loop at the heart of the server.
//!
//! The server runs one reactor per available core over one listening
//! socket. Each reactor multiplexes the connections it accepted over its
//! own [`Poller`] — an epoll instance driven by raw x86-64 syscalls (the
//! tree vendors no libc), so the server builds on Linux/x86-64 only — and
//! concurrency is bounded by file descriptors, not threads. A reactor owns
//! its sockets and never blocks on one: reads, writes, accepts and dials
//! run to `WouldBlock` and then wait for readiness. Every reactor polls the
//! shared listener and accepts one connection per readiness event, so
//! connections spread over the reactors that are free to take them.
//!
//! # Which turn runs where
//!
//! Parsed requests are admitted through the [`LifecycleGate`] on the
//! reactor that read them. Where an admitted request *runs* follows from
//! what it is, never from a setting or from how busy the turn was:
//!
//! * **inline** — every well-formed predict the tier runs locally
//!   ([`PredictRoute::Local`]). The reactor runs it to completion on its
//!   own [`RequestContext`] and writes the answer: no queue push, no
//!   condvar, no wake-up (the thread that read the request answers it, as
//!   the paper's Actix workers do). A predict whose body does not parse is
//!   answered `400` on the spot. While another connection on this reactor
//!   is ready, a connection runs at most one inline predict per turn and
//!   its further frames wait for the next turn, so one connection's
//!   backlog cannot hold the loop;
//! * **queued** — every request that is not a predict, and so may block
//!   (admin, ingest, unlearning, `/metrics`, a router's fan-out), goes to
//!   the worker pool as a [`Dispatch`] through the [`DispatchQueue`], where
//!   queue-capacity shedding stays exact. The answer comes back through
//!   this reactor's [`CompletionQueue`], whose push kicks its [`Waker`];
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
//! parser's heap. A connection that yielded reads nothing either until its
//! buffered frames are walked, so its parser holds at most what one read
//! pass took in. An idle keep-alive connection costs its fd and nothing
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
use super::dispatch::{Completion, CompletionQueue, Dispatch, DispatchQueue};
use super::lifecycle::Admission;
use super::metrics::{upstream_connections_gauge, ConnState};
use super::parser::{ParsedRequest, Parser, ParserLimits, Poll};
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
    idle_since: Instant,
    frame_started: Option<Instant>,
    /// The forward this connection is parked on (router tier).
    forward: Option<Forward>,
    /// The turn in which this connection last ran a predict inline.
    inline_turn: u64,
    /// Waiting in [`Reactor::yielded`] for the next turn with bytes
    /// buffered; nothing more is read until they are walked.
    yielded: bool,
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
            idle_since: now,
            frame_started: None,
            forward: None,
            inline_turn: 0,
            yielded: false,
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

    fn get(&self, token: u64) -> Option<&T> {
        let index = self.slot(token)?;
        self.entries[index].as_ref()
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

/// The poller's longest sleep with no readiness, wake or timer traffic:
/// bounds how late a timeout sweep runs.
const TICK: Duration = Duration::from_millis(50);

/// Budget for flushing one response to a slow reader.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// The `retry-after` header of every `503` shed, in seconds.
const RETRY_AFTER: Option<u32> = Some(1);

/// One reactor: poller, listener, connection slabs and the dispatch plumbing.
pub(super) struct Reactor<B: RequestBackend> {
    poller: Poller,
    listener: TcpListener,
    shared: Arc<Shared>,
    cluster: Arc<B>,
    queue: Arc<DispatchQueue>,
    /// Where the workers answer this reactor's dispatches.
    completions: Arc<CompletionQueue>,
    slab: Slab<Connection>,
    upstreams: Slab<Upstream>,
    pools: HashMap<SocketAddr, NodePool>,
    /// The context every local predict on this reactor runs in.
    ctx: RequestContext,
    /// The poll turn, counted from 1.
    turn: u64,
    /// More than one connection is ready this turn: one that has run a
    /// predict inline leaves its next frame to the next turn.
    crowded: bool,
    /// Connections that left buffered frames to the next turn.
    yielded: Vec<u64>,
    /// The connection whose buffered frames [`Reactor::advance`] is walking.
    advancing: Option<u64>,
    events: Vec<Event>,
    sweep_tokens: Vec<u64>,
    completion_scratch: Vec<Completion>,
    last_sweep: Instant,
    read_buf: Box<[u8; 8192]>,
}

impl<B: RequestBackend> Reactor<B> {
    /// A reactor polling `listener`, a handle on the socket every reactor
    /// shares.
    pub(super) fn new(
        listener: TcpListener,
        shared: Arc<Shared>,
        cluster: Arc<B>,
        queue: Arc<DispatchQueue>,
    ) -> std::io::Result<Self> {
        let poller = Poller::new()?;
        poller.register_listener(&listener, LISTENER_TOKEN)?;
        let completions = Arc::new(CompletionQueue::new(poller.waker()));
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
            turn: 0,
            crowded: false,
            yielded: Vec::new(),
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
    /// exit every connection this reactor owns is closed.
    pub(super) fn run(mut self) {
        while !self.poll_turn() {}
        self.close_all();
        self.shared.wakeup.notify_all();
    }

    /// One turn of the loop: wait for readiness, answer the workers'
    /// completions, serve the ready sockets, walk the connections that
    /// yielded last turn, sweep. Returns whether the gate has stopped.
    fn poll_turn(&mut self) -> bool {
        self.events.clear();
        // A connection that left frames to the next turn gets it at once.
        let timeout = if self.yielded.is_empty() { TICK } else { Duration::ZERO };
        if self.poller.wait(&mut self.events, timeout).is_err() {
            // Transient poller failure: treat as an empty tick; the timer
            // sweep and gate checks below still run.
        }
        self.turn += 1;
        // Worker answers: queue the rendered bytes and flush.
        let mut batch = std::mem::take(&mut self.completion_scratch);
        self.completions.drain_into(&mut batch);
        // Crowded counts connections, not signals: a yielded connection's
        // socket stays readable while its client sends, and it counts once.
        let slab = &self.slab;
        let ready = self
            .events
            .iter()
            .filter(|ev| ev.token != LISTENER_TOKEN)
            .filter(|ev| !slab.get(ev.token).is_some_and(|conn| conn.yielded))
            .count();
        let carried = self.yielded.len();
        self.crowded = batch.len() + ready + carried > 1;
        for completion in batch.drain(..) {
            self.answer(completion.token, completion.bytes, completion.close);
        }
        self.completion_scratch = batch;
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
        // Walk the connections that yielded last turn; one that yields again
        // goes to the back of the list, behind those that yielded this turn.
        for i in 0..carried {
            let token = self.yielded[i];
            if let Some(conn) = self.slab.get_mut(token) {
                conn.yielded = false;
                self.resume(token);
            }
        }
        self.yielded.drain(..carried);
        // Draining, every turn sweeps: it closes the connections that went
        // idle since the last one.
        let draining = !self.shared.gate.is_running();
        let now = Instant::now();
        if draining || now.duration_since(self.last_sweep) >= SWEEP_INTERVAL {
            self.last_sweep = now;
            self.sweep_timeouts(now, draining);
        }
        self.shared.gate.is_stopped()
    }

    /// Accepts one connection. The listener is every reactor's and stays
    /// readable while its backlog holds more, so each reactor that is free
    /// takes one a turn and the connections spread over them. During drain
    /// the backlog is left in the kernel: those connections are answered by
    /// the reset when the listener drops at exit, and `connect` keeps
    /// succeeding only as long as the backlog has room — matching the
    /// documented drain contract that post-drain requests fail at the
    /// connection level.
    fn accept_ready(&mut self) {
        if !self.shared.gate.is_running() {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => return self.admit_connection(stream),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn admit_connection(&mut self, stream: TcpStream) {
        use crate::sync::atomic::Ordering::SeqCst;
        let config = &self.shared.config;
        // The cap counts every reactor's connections. Taking the place
        // before the check means two reactors cannot both take the last one.
        let open = self.shared.open_connections.fetch_add(1, SeqCst);
        if config.max_connections != 0 && open >= config.max_connections {
            self.shared.open_connections.fetch_sub(1, SeqCst);
            self.shed_connection(stream);
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            self.shared.open_connections.fetch_sub(1, SeqCst);
            return;
        }
        let _ = stream.set_nodelay(true);
        self.shared.metrics.connections.inc();
        let limits =
            ParserLimits { max_admin_body_bytes: B::ADMIN_BODY_BYTES, ..ParserLimits::default() };
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
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        let body = json::error(OVERLOADED);
        let bytes =
            conn::render_response(503, body.as_bytes(), CONTENT_TYPE_JSON, true, RETRY_AFTER);
        let mut stream = stream;
        let _ = stream.write_all(&bytes);
        // Lingering close. The shed client is usually mid-write: closing
        // while its request bytes sit unread in our receive queue turns the
        // close into a TCP reset, which can discard the 503 out of the
        // client's buffer before it reads it. Send our FIN first, then
        // drain until the client's FIN so the response is reliably
        // delivered — bounded, since a shed storm must not capture the
        // reactor thread (the blocking `write_all` above has the same
        // `WRITE_TIMEOUT` bound).
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
            if conn.busy || !conn.out.is_empty() || conn.yielded {
                // Leave the bytes in the kernel buffer until the response
                // is out, or until the frames already read are walked: a
                // yielded connection that read on while its client sends
                // would grow its parser by a socket buffer every turn.
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
        self.resume(token);
    }

    /// Advances the protocol machine, then closes the connection if its
    /// peer is gone and nothing is owed or left to walk.
    fn resume(&mut self, token: u64) {
        self.advance(token);
        if let Some(conn) = self.slab.get_mut(token) {
            if conn.eof && !conn.busy && conn.out.is_empty() && !conn.yielded {
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
            if self.crowded && conn.inline_turn == self.turn && conn.parser.has_buffered() {
                // This connection has had its predict this turn and another
                // one is ready: the next frame waits for the next turn.
                if !conn.yielded {
                    conn.yielded = true;
                    self.yielded.push(token);
                }
                return;
            }
            match conn.parser.poll() {
                Poll::Request(request) => {
                    let started = conn.frame_started.take().unwrap_or(now);
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
    /// ([`RequestBackend::route_predict`]): a local one runs right here, a
    /// remote one is forwarded. Everything else is a worker's.
    fn handle_request(&mut self, token: u64, request: ParsedRequest, started: Instant) {
        if self.shared.gate.try_begin_request() == Admission::Draining {
            self.shared.metrics.shed_draining.inc();
            self.set_state(token, ConnState::Draining);
            self.respond_now(token, 503, &json::error(OVERLOADED), true, RETRY_AFTER);
            return;
        }
        if self.slab.get(token).is_none() {
            self.shared.gate.finish_request();
            return;
        }
        let close_hint = request.close;
        let deadline = self.deadline_from(started);
        // Count the admission BEFORE the request can reach a worker: one
        // can pop it and render `/metrics` before the reactor resumes, and
        // the exposition must already include the request being served.
        // (Queue-full pushes stay counted too — they did pass the gate.)
        self.shared.metrics.requests.inc();
        if request.method == "POST" && request.path == "/recommend" {
            let req = match conn::parse_recommend_request(request.text()) {
                Ok(req) => req,
                Err(message) => {
                    let close = self.release_slot(close_hint);
                    self.respond_now(token, 400, &json::error(&message), close, None);
                    return;
                }
            };
            self.set_state(token, ConnState::Handling);
            let target = match self.cluster.route_predict(&req) {
                PredictRoute::Local => return self.run_inline(token, req, deadline, close_hint),
                PredictRoute::Forward(target) => Some(target),
                PredictRoute::Unroutable => None,
            };
            self.shared.metrics.predicts_forwarded.inc();
            self.forward(token, req, target, Some(&request.body), deadline, close_hint);
            return;
        }
        let reply = Arc::clone(&self.completions);
        match self.queue.push(Dispatch { token, request, close_hint, reply }) {
            Ok(()) => {
                self.set_state(token, ConnState::Handling);
                if let Some(conn) = self.slab.get_mut(token) {
                    conn.busy = true;
                }
            }
            Err(_rejected) => {
                self.shared.gate.finish_request();
                self.shared.metrics.shed_queue_full.inc();
                self.respond_now(token, 503, &json::error(OVERLOADED), close_hint, RETRY_AFTER);
            }
        }
    }

    /// The deadline of work that starts counting at `from`.
    fn deadline_from(&self, from: Instant) -> Option<Instant> {
        let budget = self.shared.config.request_deadline;
        (budget != Duration::ZERO).then(|| from + budget)
    }

    /// Runs one admitted local predict to completion on this thread, on the
    /// reactor's context, and answers it. The request gets an id and its
    /// deadline first; a panic anywhere in the call maps to a typed `500`
    /// (the unwind barrier).
    fn run_inline(
        &mut self,
        token: u64,
        req: RecommendRequest,
        deadline: Option<Instant>,
        close_hint: bool,
    ) {
        if let Some(conn) = self.slab.get_mut(token) {
            conn.inline_turn = self.turn;
        }
        self.shared.metrics.predicts_inline.inc();
        let (cluster, ctx) = (self.cluster.as_ref(), &mut self.ctx);
        ctx.set_request_id(cluster.telemetry().next_request_id());
        ctx.set_deadline(deadline);
        let (status, body) = match conn::unwind_barrier(|| cluster.handle_recommend(req, ctx)) {
            Ok(recs) => (200, conn::render_recommendations(&recs)),
            Err(e) => conn::render_error(&e),
        };
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
        // finds both again. Every reactor that dials the node writes the
        // one series, so each write is an atomic add or sub.
        let registry = self.cluster.telemetry().registry();
        let pool = self.pools.entry(addr).or_insert_with(|| NodePool {
            idle: Vec::new(),
            open: upstream_connections_gauge(registry, addr),
        });
        pool.open.add(1);
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
            pool.open.sub(1);
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

    /// Renders and answers a reactor-side response (inline predicts,
    /// malformed predicts, sheds, rejects, 408s).
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
        let (request_read_timeout, idle_timeout) =
            (config.request_read_timeout, config.idle_timeout);
        let mut tokens = std::mem::take(&mut self.sweep_tokens);
        self.slab.tokens_into(&mut tokens);
        for &token in &tokens {
            let Some(conn) = self.slab.get_mut(token) else { continue };
            if conn.yielded {
                // Its next frame is walked next turn.
                continue;
            }
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
                    if now.duration_since(since) > WRITE_TIMEOUT {
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
    use std::io::BufRead;
    use std::thread::JoinHandle;

    use serenade_core::ItemScore;

    use super::*;
    use crate::error::ServingError;
    use crate::server::HttpServerConfig;
    use crate::sync::atomic::{AtomicUsize, Ordering::SeqCst};
    use crate::telemetry::ClusterTelemetry;
    use crate::transport::HttpClient;

    /// A tier that runs every predict locally and answers it with the item
    /// it was asked about.
    struct Echo(Arc<ClusterTelemetry>);

    impl RequestBackend for Echo {
        fn telemetry(&self) -> &Arc<ClusterTelemetry> {
            &self.0
        }

        fn respond(&self, _request: &ParsedRequest) -> (u16, Vec<u8>, &'static str) {
            (404, b"{}".to_vec(), CONTENT_TYPE_JSON)
        }

        fn route_predict(&self, _req: &RecommendRequest) -> PredictRoute {
            PredictRoute::Local
        }

        fn handle_recommend(
            &self,
            req: RecommendRequest,
            _ctx: &mut RequestContext,
        ) -> Result<Vec<ItemScore>, ServingError> {
            Ok(vec![ItemScore { item: req.item, score: 1.0 }])
        }
    }

    /// `count` reactors over one listener, each driven turn by turn by the
    /// test thread.
    fn reactors(count: usize, config: HttpServerConfig) -> (Vec<Reactor<Echo>>, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let addr = listener.local_addr().expect("addr");
        let backend = Arc::new(Echo(Arc::new(ClusterTelemetry::new())));
        let shared = Arc::new(Shared::new(config, backend.0.registry()));
        let queue = Arc::new(DispatchQueue::new(16));
        let reactors = (0..count)
            .map(|_| {
                let listener = listener.try_clone().expect("clone");
                let (shared, queue) = (Arc::clone(&shared), Arc::clone(&queue));
                Reactor::new(listener, shared, Arc::clone(&backend), queue).expect("reactor")
            })
            .collect();
        (reactors, addr)
    }

    fn predict_frame(item: usize) -> String {
        let body = format!(r#"{{"session_id":1,"item_id":{item},"consent":false}}"#);
        format!("POST /recommend HTTP/1.1\r\nhost: x\r\ncontent-length: {}\r\n\r\n{body}", body.len())
    }

    /// Reads one `200` and returns its body.
    fn read_answer(reader: &mut impl BufRead) -> String {
        let mut line = String::new();
        reader.read_line(&mut line).expect("status line");
        assert!(line.starts_with("HTTP/1.1 200"), "{line:?}");
        let mut length = 0;
        while line != "\r\n" {
            line.clear();
            reader.read_line(&mut line).expect("header");
            if let Some(value) = line.strip_prefix("content-length:") {
                length = value.trim().parse().expect("content-length");
            }
        }
        let mut body = vec![0; length];
        reader.read_exact(&mut body).expect("body");
        String::from_utf8(body).expect("utf-8")
    }

    /// Pipelines predicts for items `0..frames` on one connection from one
    /// thread and reads the answers on another, counting them in
    /// `answered`: every frame is answered once, in order.
    fn flood(addr: SocketAddr, frames: usize, answered: Arc<AtomicUsize>) -> [JoinHandle<()>; 2] {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        let mut writer = stream.try_clone().expect("clone");
        let writing = std::thread::spawn(move || {
            for first in (0..frames).step_by(500) {
                let chunk: String = (first..frames.min(first + 500)).map(predict_frame).collect();
                writer.write_all(chunk.as_bytes()).expect("write");
            }
        });
        let reading = std::thread::spawn(move || {
            let mut reader = std::io::BufReader::new(stream);
            for item in 0..frames {
                let body = read_answer(&mut reader);
                assert!(body.contains(&format!(r#""item_id":{item},"#)), "answer {item}: {body}");
                answered.fetch_add(1, SeqCst);
            }
        });
        [writing, reading]
    }

    #[test]
    fn floods_beside_another_connection_yield_and_read_nothing_while_yielded() {
        // Two pipelining floods and a one-request-at-a-time client on one
        // reactor: crowded, a flood runs one inline predict a turn and
        // yields. A yielded connection already holds complete frames, so it
        // must read nothing until they are walked; otherwise its parser
        // grows by a socket buffer every turn its client keeps sending.
        const FRAMES: usize = 20_000;
        const ASKS: usize = 20;
        let (mut reactors, addr) = reactors(1, HttpServerConfig::default());
        let reactor = &mut reactors[0];
        let progress = [Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0))];
        let mut clients: Vec<JoinHandle<()>> =
            progress.iter().flat_map(|answered| flood(addr, FRAMES, Arc::clone(answered))).collect();
        let floods = progress.clone();
        clients.push(std::thread::spawn(move || {
            while floods.iter().any(|answered| answered.load(SeqCst) == 0) {
                std::thread::sleep(Duration::from_millis(1));
            }
            let mut client = HttpClient::connect(addr).expect("connect");
            for item in 0..ASKS {
                let body = format!(r#"{{"session_id":2,"item_id":{item},"consent":false}}"#);
                let (status, body) = client.post("/recommend", &body).expect("post");
                assert_eq!(status, 200, "{body}");
                assert!(body.contains(&format!(r#""item_id":{item},"#)), "{body}");
                let flooding = floods.iter().all(|answered| answered.load(SeqCst) < FRAMES);
                assert!(flooding, "ask {item} waited for a flood to finish");
            }
        }));
        let started = Instant::now();
        let (mut yields, mut watched) = (0, Vec::new());
        while !clients.iter().all(JoinHandle::is_finished) {
            assert!(started.elapsed() < Duration::from_secs(120), "the floods stalled");
            reactor.poll_turn();
            for &(token, len) in &watched {
                if let Some(conn) = reactor.slab.get(token) {
                    let now = conn.parser.buffer_len();
                    assert!(now <= len, "a yielded connection's parser grew from {len} to {now} bytes");
                }
            }
            watched.clear();
            for &token in &reactor.yielded {
                if let Some(conn) = reactor.slab.get(token) {
                    watched.push((token, conn.parser.buffer_len()));
                }
            }
            yields += watched.len();
        }
        for client in clients {
            client.join().expect("client");
        }
        assert!(yields > 0, "the crowded branch never ran");
    }

    #[test]
    fn a_yielded_connection_alone_is_not_crowded_by_its_own_readiness() {
        let (mut reactors, addr) = reactors(1, HttpServerConfig::default());
        let reactor = &mut reactors[0];
        let mut a = TcpStream::connect(addr).expect("connect");
        let mut b = TcpStream::connect(addr).expect("connect");
        a.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        while reactor.slab.entries.iter().flatten().count() < 2 {
            reactor.poll_turn();
        }
        let local = a.local_addr().expect("addr");
        let token_a = (0..reactor.slab.entries.len())
            .map(|index| reactor.slab.token_for(index))
            .find(|&token| {
                reactor.slab.get(token).is_some_and(|conn| conn.stream.peer_addr().ok() == Some(local))
            })
            .expect("a is accepted");
        let yielded = |reactor: &Reactor<Echo>| reactor.slab.get(token_a).expect("open").yielded;
        // Both connections ready: `a` runs its first frame and leaves two.
        a.write_all((0..3).map(predict_frame).collect::<String>().as_bytes()).expect("write");
        b.write_all(predict_frame(9).as_bytes()).expect("write");
        std::thread::sleep(Duration::from_millis(20));
        reactor.poll_turn();
        assert!(yielded(reactor), "crowded, `a` yields after one frame");
        // `a` alone: its own readiness and its yield entry are one
        // connection, so the next turn walks both buffered frames.
        a.write_all(predict_frame(3).as_bytes()).expect("write");
        std::thread::sleep(Duration::from_millis(20));
        reactor.poll_turn();
        assert!(!yielded(reactor), "alone, `a` walks its whole buffer");
        reactor.poll_turn();
        let mut reader = std::io::BufReader::new(a);
        for item in 0..4 {
            assert!(read_answer(&mut reader).contains(&format!(r#""item_id":{item},"#)));
        }
    }

    #[test]
    fn reactors_on_one_listener_take_one_connection_a_turn_under_one_cap() {
        let config = HttpServerConfig { max_connections: 2, ..HttpServerConfig::default() };
        let (mut reactors, addr) = reactors(2, config);
        let open = |reactor: &Reactor<Echo>| reactor.slab.entries.iter().flatten().count();
        let clients: Vec<TcpStream> =
            (0..3).map(|_| TcpStream::connect(addr).expect("connect")).collect();
        // Each turn takes one connection off the shared backlog, so two
        // reactors polling in turn split the first two between them.
        for reactor in &mut reactors {
            reactor.poll_turn();
            assert_eq!(open(reactor), 1);
        }
        // The third finds the cap the reactors share taken, though the
        // reactor that takes it holds one connection of its own.
        reactors[0].poll_turn();
        assert_eq!(open(&reactors[0]), 1);
        assert_eq!(reactors[0].shared.open_connections.load(SeqCst), 2);
        let mut shed = String::new();
        (&clients[2]).read_to_string(&mut shed).expect("read");
        assert!(shed.starts_with("HTTP/1.1 503"), "{shed}");
    }

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
        assert!(slab.remove(t1).is_some());
        assert!(slab.remove(t1).is_none(), "removed once");
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
