//! Readiness-polled connection backend: epoll via raw syscalls.
//!
//! This is the Linux default selected by
//! [`crate::http::ConnectionModel`]: one **event-loop thread** owns the
//! listener and every connection socket nonblocking, multiplexed through an
//! epoll instance built directly on the `epoll_create1` / `epoll_ctl` /
//! `epoll_pwait` syscalls (no `libc` — the workspace builds with zero
//! external crates, so the three shims below go through `core::arch::asm!`).
//! Idle keep-alive sockets cost one slab slot and one epoll registration
//! each, nothing else: tens of thousands of mostly-idle connections sit at
//! flat memory where the thread-per-connection pool would need as many
//! threads.
//!
//! # Per-connection state machine
//!
//! ```text
//!             accept                    head complete
//!   [idle] ----------> [reading-head] ----------------> [reading-body]
//!     ^  \__ first byte __/       |                           |
//!     |                           |   complete request        |
//!     |                           v                           v
//!  keep-alive <------------- [writing] <--------------- [dispatching]
//!  (buffered bytes re-enter reading;     response bytes from a dispatcher
//!   close instead when the response
//!   said `Connection: close`)
//! ```
//!
//! The loop feeds raw reads into the unchanged incremental
//! [`crate::http::RequestParser`]; a complete request is handed to a small
//! **dispatcher pool** (`connection_workers` threads) that runs the routing
//! and the blocking predict wait, then pushes the rendered response bytes
//! back for the event loop to write. One request is in flight per
//! connection at a time — pipelined bytes stay buffered in the parser until
//! the response is flushed, which also keeps responses in request order.
//!
//! # Deadlines
//!
//! Per-socket `set_read_timeout` cannot guard a nonblocking socket, so both
//! HTTP deadlines live on a [`crate::timer::TimerWheel`] owned by the loop:
//! the idle keep-alive `read_timeout` (fires → silent close) and the
//! slow-loris `request_timeout` (fires mid-request → `408`, fires mid-write
//! → close). Cancellation is lazy via per-connection generation counters.
//!
//! # Drain and shutdown
//!
//! [`crate::HttpServer::begin_drain`] wakes the loop (TCP self-pipe) and the
//! loop deregisters its **accept interest**: no new connections, while every
//! in-flight state machine — including open keep-alive connections — keeps
//! running. Shutdown additionally closes idle/reading connections, lets
//! dispatching/writing ones finish (their responses carry
//! `Connection: close`), and exits once the slab is empty; dropping the
//! dispatch channel then releases the dispatcher threads.

use crate::http::{
    error_body, response_bytes, route, Ctx, HttpRequest, ParseOutcome, RequestParser,
    CONTENT_TYPE_JSON, DRAIN_IDLE_DEADLINE,
};
use crate::surface::HttpCounter;
use crate::telemetry::{Stage, TraceContext};
use crate::timer::TimerWheel;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Raw epoll syscall shims (no libc)
// ---------------------------------------------------------------------------

pub(crate) const EPOLLIN: u32 = 0x001;
pub(crate) const EPOLLOUT: u32 = 0x004;
pub(crate) const EPOLLERR: u32 = 0x008;
pub(crate) const EPOLLHUP: u32 = 0x010;

const EPOLL_CTL_ADD: usize = 1;
const EPOLL_CTL_DEL: usize = 2;
const EPOLL_CTL_MOD: usize = 3;
const EPOLL_CLOEXEC: usize = 0o2000000;

#[cfg(target_arch = "x86_64")]
mod nr {
    pub const CLOSE: usize = 3;
    pub const EPOLL_CTL: usize = 233;
    pub const EPOLL_PWAIT: usize = 281;
    pub const EPOLL_CREATE1: usize = 291;
}

#[cfg(target_arch = "aarch64")]
mod nr {
    pub const EPOLL_CREATE1: usize = 20;
    pub const EPOLL_CTL: usize = 21;
    pub const EPOLL_PWAIT: usize = 22;
    pub const CLOSE: usize = 57;
}

/// One readiness event as the kernel fills it in. x86_64 packs the struct
/// (the kernel ABI there has no padding between the 32-bit mask and the
/// 64-bit payload); other architectures use natural layout.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy)]
pub(crate) struct EpollEvent {
    /// Readiness bits (`EPOLLIN` / `EPOLLOUT` / `EPOLLERR` / `EPOLLHUP`).
    pub(crate) events: u32,
    /// Caller-chosen token, returned verbatim.
    pub(crate) data: u64,
}

impl EpollEvent {
    pub(crate) fn zeroed() -> Self {
        Self { events: 0, data: 0 }
    }
}

/// Raw `syscall`/`svc` entry. Only the four syscalls named in `nr` are ever
/// issued, each with valid pointers/lengths owned by the caller.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
unsafe fn syscall6(nr: usize, a1: usize, a2: usize, a3: usize, a4: usize, a5: usize) -> isize {
    let ret: isize;
    core::arch::asm!(
        "syscall",
        inlateout("rax") nr as isize => ret,
        in("rdi") a1,
        in("rsi") a2,
        in("rdx") a3,
        in("r10") a4,
        in("r8") a5,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack),
    );
    ret
}

#[cfg(target_arch = "aarch64")]
#[allow(clippy::too_many_arguments)]
unsafe fn syscall6(nr: usize, a1: usize, a2: usize, a3: usize, a4: usize, a5: usize) -> isize {
    let ret: isize;
    core::arch::asm!(
        "svc 0",
        in("x8") nr,
        inlateout("x0") a1 as isize => ret,
        in("x1") a2,
        in("x2") a3,
        in("x3") a4,
        in("x4") a5,
        options(nostack),
    );
    ret
}

/// Map the kernel's `-errno` convention onto `io::Result`.
fn check(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

/// An epoll instance: register file descriptors with a `u64` token and a
/// readiness mask, then block in [`Poller::wait`] until something is ready.
pub(crate) struct Poller {
    epfd: i32,
}

impl Poller {
    /// `epoll_create1(EPOLL_CLOEXEC)`.
    pub(crate) fn new() -> io::Result<Self> {
        // SAFETY: no pointers involved.
        let epfd = check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0) })?;
        Ok(Self { epfd: epfd as i32 })
    }

    fn ctl(&self, op: usize, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        let mut event = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `event` outlives the call; the kernel copies it out.
        check(unsafe {
            syscall6(
                nr::EPOLL_CTL,
                self.epfd as usize,
                op,
                fd as usize,
                std::ptr::addr_of_mut!(event) as usize,
                0,
            )
        })
        .map(|_| ())
    }

    /// Start watching `fd` for `events`, tagging reports with `token`.
    pub(crate) fn add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, events)
    }

    /// Replace the interest mask of a watched descriptor.
    pub(crate) fn modify(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, events)
    }

    /// Stop watching a descriptor.
    pub(crate) fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Block until readiness or `timeout_ms` (−1 = forever); fills `events`
    /// and returns how many are valid. `EINTR` retries internally.
    pub(crate) fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: the events buffer outlives the call and maxevents
            // matches its length; a null sigmask makes epoll_pwait behave
            // like plain epoll_wait (which aarch64 does not expose).
            let ret = unsafe {
                syscall6(
                    nr::EPOLL_PWAIT,
                    self.epfd as usize,
                    events.as_mut_ptr() as usize,
                    events.len(),
                    timeout_ms as usize,
                    0,
                )
            };
            match check(ret) {
                Ok(n) => return Ok(n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: closing the fd we created; errors are unreportable here.
        let _ = unsafe { syscall6(nr::CLOSE, self.epfd as usize, 0, 0, 0, 0) };
    }
}

// ---------------------------------------------------------------------------
// Waking the loop from other threads
// ---------------------------------------------------------------------------

/// A TCP self-pipe on loopback: the read end is registered in the epoll set,
/// so one byte written here wakes a blocked [`Poller::wait`]. Std-only
/// (no `eventfd` shim needed); created once per server.
pub(crate) struct Waker {
    writer: Mutex<TcpStream>,
}

impl Waker {
    /// Nudge the event loop. A full pipe means wakeups are already pending,
    /// so `WouldBlock` (like every other error here) is ignorable.
    pub(crate) fn wake(&self) {
        if let Ok(mut writer) = self.writer.lock() {
            let _ = writer.write(&[1]);
        }
    }
}

/// Build the loopback self-pipe: `(read_end, write_end)`.
fn wake_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let writer = TcpStream::connect(addr)?;
    let local = writer.local_addr()?;
    // Accept until we see our own connect — a stray scanner hitting the
    // ephemeral port must not become the wake channel.
    loop {
        let (reader, peer) = listener.accept()?;
        if peer == local {
            writer.set_nodelay(true)?;
            writer.set_nonblocking(true)?;
            return Ok((reader, writer));
        }
    }
}

// ---------------------------------------------------------------------------
// Connection slab
// ---------------------------------------------------------------------------

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKE: u64 = u64::MAX - 1;

/// Where a connection is in its request lifecycle (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Keep-alive between requests; only the idle deadline is armed.
    Idle,
    /// Bytes of a request head are (expected to be) arriving.
    ReadingHead,
    /// The head is complete; body bytes are arriving.
    ReadingBody,
    /// A parsed request sits with the dispatcher pool; no read interest, so
    /// pipelined bytes wait in the kernel buffer.
    Dispatching,
    /// Response bytes are being flushed.
    Writing,
}

struct Conn {
    stream: TcpStream,
    fd: RawFd,
    parser: RequestParser,
    state: State,
    /// Timer-wheel generation: bumped on every re-arm/cancel, so stale
    /// wheel entries are ignored when they fire.
    timer_gen: u64,
    /// Interest mask currently registered with the poller.
    interest: u32,
    out: Vec<u8>,
    out_pos: usize,
    keep_after_write: bool,
    /// First socket read of the current request (telemetry `http_parse`).
    parse_started: Option<Instant>,
    /// Response queued → flushed (telemetry `response_write`).
    write_started: Option<Instant>,
}

/// Slot-reusing connection store. Tokens are `index | generation << 32`:
/// a completion or timer for a connection that died and whose slot was
/// reused fails the generation check instead of hitting the new tenant.
struct Slab {
    entries: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    live: usize,
}

impl Slab {
    fn new() -> Self {
        Self {
            entries: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    fn insert(&mut self, conn: Conn) -> (usize, u64) {
        let idx = match self.free.pop() {
            Some(idx) => {
                self.entries[idx] = Some(conn);
                idx
            }
            None => {
                self.entries.push(Some(conn));
                self.gens.push(0);
                self.entries.len() - 1
            }
        };
        self.live += 1;
        (idx, self.token_of(idx))
    }

    fn token_of(&self, idx: usize) -> u64 {
        idx as u64 | (u64::from(self.gens[idx]) << 32)
    }

    fn conn_mut(&mut self, idx: usize) -> Option<&mut Conn> {
        self.entries.get_mut(idx).and_then(Option::as_mut)
    }

    /// The connection at `idx`, only if its slot generation still matches.
    fn get_checked(&mut self, idx: usize, gen: u32) -> Option<&mut Conn> {
        if self.gens.get(idx) != Some(&gen) {
            return None;
        }
        self.conn_mut(idx)
    }

    fn remove(&mut self, idx: usize) -> Option<Conn> {
        let conn = self.entries.get_mut(idx)?.take()?;
        self.gens[idx] = self.gens[idx].wrapping_add(1);
        self.free.push(idx);
        self.live -= 1;
        Some(conn)
    }

    fn live_indices(&self) -> Vec<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.is_some().then_some(i))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Dispatcher pool
// ---------------------------------------------------------------------------

struct Job {
    token: u64,
    request: Box<HttpRequest>,
    /// When the event loop handed the request off (telemetry `queue_wait`:
    /// under this backend the span covers dispatch-queue **readiness wait**,
    /// merged with the workers' batch-queue waits in snapshots).
    enqueued: Option<Instant>,
}

struct Done {
    token: u64,
    bytes: Vec<u8>,
    keep: bool,
}

#[derive(Default)]
struct Completions {
    done: Mutex<Vec<Done>>,
}

fn dispatcher(
    ctx: Arc<Ctx>,
    rx: Arc<Mutex<Receiver<Job>>>,
    completions: Arc<Completions>,
    waker: Arc<Waker>,
) {
    let trace = ctx.default_model().trace();
    loop {
        // Hold the lock only to pull the next job.
        let job = match rx.lock().expect("dispatch queue poisoned").recv() {
            Ok(job) => job,
            Err(_) => return, // event loop gone and queue drained
        };
        if let Some(enqueued) = job.enqueued {
            trace.record_ns(Stage::QueueWait, enqueued.elapsed().as_nanos() as u64);
        }
        let (status, body, content_type, extra) = route(&job.request, &ctx);
        ctx.stats.count_response(status);
        // During drain or shutdown the response still goes out, but with
        // `Connection: close` so a busy keep-alive client cannot hold the
        // event loop's exit hostage or keep hammering a drained listener.
        let keep = job.request.keep_alive && !ctx.draining_or_shutdown();
        let bytes = response_bytes(status, &body, content_type, keep, &extra);
        completions
            .done
            .lock()
            .expect("completions poisoned")
            .push(Done {
                token: job.token,
                bytes,
                keep,
            });
        waker.wake();
    }
}

// ---------------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------------

/// Handles of a running epoll backend, joined by `HttpServer::shutdown`.
pub(crate) struct EpollBackend {
    pub(crate) event_loop: Option<JoinHandle<()>>,
    pub(crate) dispatchers: Vec<JoinHandle<()>>,
    pub(crate) waker: Arc<Waker>,
}

/// Firing granularity of the connection deadlines (both timeouts are
/// rounded up to the next 10 ms boundary — the usual timer-wheel trade).
const TIMER_TICK: Duration = Duration::from_millis(10);
const TIMER_SLOTS: usize = 1024;
/// Bound on consecutive reads per readiness event so one fast sender cannot
/// monopolize the loop; level-triggered epoll re-reports the leftovers.
const MAX_READS_PER_EVENT: usize = 16;

/// Spawn the event loop and its dispatcher pool over an already-bound
/// listener.
pub(crate) fn start(listener: TcpListener, ctx: Arc<Ctx>) -> io::Result<EpollBackend> {
    let poller = Poller::new()?;
    let (wake_rx, wake_tx) = wake_pair()?;
    let waker = Arc::new(Waker {
        writer: Mutex::new(wake_tx),
    });
    let completions = Arc::new(Completions::default());
    // Same shed threshold as the pool backend: `backlog` queued requests on
    // top of one in flight per dispatcher, 503 beyond.
    let capacity = ctx.config.backlog + ctx.config.connection_workers;
    let (dispatch_tx, dispatch_rx) = mpsc::sync_channel::<Job>(capacity);
    let dispatch_rx = Arc::new(Mutex::new(dispatch_rx));
    let dispatchers = (0..ctx.config.connection_workers)
        .map(|_| {
            let ctx = Arc::clone(&ctx);
            let rx = Arc::clone(&dispatch_rx);
            let completions = Arc::clone(&completions);
            let waker = Arc::clone(&waker);
            thread::spawn(move || dispatcher(ctx, rx, completions, waker))
        })
        .collect();
    let event_loop = {
        let trace = ctx.default_model().trace();
        let mut event_loop = EventLoop {
            listener,
            wake_rx,
            poller,
            ctx,
            trace,
            slab: Slab::new(),
            wheel: TimerWheel::new(TIMER_TICK, TIMER_SLOTS),
            dispatch_tx,
            completions,
            accepting: true,
            in_flight: 0,
        };
        thread::spawn(move || event_loop.run())
    };
    Ok(EpollBackend {
        event_loop: Some(event_loop),
        dispatchers,
        waker,
    })
}

struct EventLoop {
    listener: TcpListener,
    wake_rx: TcpStream,
    poller: Poller,
    ctx: Arc<Ctx>,
    trace: TraceContext,
    slab: Slab,
    wheel: TimerWheel,
    dispatch_tx: SyncSender<Job>,
    completions: Arc<Completions>,
    accepting: bool,
    /// Requests handed to the dispatchers whose completions have not been
    /// applied yet; the loop only exits once this drains.
    in_flight: usize,
}

impl EventLoop {
    fn run(&mut self) {
        if self.listener.set_nonblocking(true).is_err()
            || self.wake_rx.set_nonblocking(true).is_err()
        {
            return;
        }
        let listener_fd = self.listener.as_raw_fd();
        if self
            .poller
            .add(listener_fd, TOKEN_LISTENER, EPOLLIN)
            .is_err()
            || self
                .poller
                .add(self.wake_rx.as_raw_fd(), TOKEN_WAKE, EPOLLIN)
                .is_err()
        {
            return;
        }
        let mut events = vec![EpollEvent::zeroed(); 256];
        loop {
            self.ctx
                .stats
                .get(HttpCounter::TimersArmed)
                .store(self.wheel.armed() as u64, Ordering::Relaxed);
            let timeout = match self.wheel.poll_timeout_ms(Instant::now()) {
                Some(ms) => ms.min(i32::MAX as u64) as i32,
                None => -1,
            };
            let n = self.poller.wait(&mut events, timeout).unwrap_or(0);
            let mut accept_ready = false;
            for ev in &events[..n] {
                let token = ev.data;
                let bits = ev.events;
                match token {
                    TOKEN_LISTENER => accept_ready = true,
                    TOKEN_WAKE => self.drain_wake(),
                    _ => self.conn_event(token, bits),
                }
            }
            let done: Vec<Done> = {
                let mut guard = self.completions.done.lock().expect("completions poisoned");
                guard.drain(..).collect()
            };
            for d in done {
                self.apply_completion(d);
            }
            for (token, gen) in self.wheel.expired(Instant::now()) {
                self.fire_timer(token, gen);
            }
            // Drain (or shutdown) drops the accept interest: no new
            // connections, in-flight state machines keep running. Idle
            // keep-alive connections must not sit out the full read_timeout
            // against a drained listener, so their wheel deadlines are
            // re-armed to the short drain window — safe under the lazy
            // cancellation scheme (the superseded entry fires into a stale
            // timer generation and is ignored).
            let draining = self.ctx.draining_or_shutdown();
            if self.accepting && draining {
                let _ = self.poller.delete(listener_fd);
                self.accepting = false;
                let drain_idle = DRAIN_IDLE_DEADLINE.min(self.ctx.config.read_timeout);
                for idx in self.slab.live_indices() {
                    let idle = self
                        .slab
                        .conn_mut(idx)
                        .is_some_and(|conn| conn.state == State::Idle);
                    if idle {
                        self.arm_timer(idx, drain_idle);
                    }
                }
            }
            if accept_ready && self.accepting {
                self.accept_ready();
            }
            if self.ctx.shutdown.load(Ordering::SeqCst) {
                for idx in self.slab.live_indices() {
                    let state = match self.slab.conn_mut(idx) {
                        Some(conn) => conn.state,
                        None => continue,
                    };
                    if matches!(state, State::Idle | State::ReadingHead | State::ReadingBody) {
                        self.close(idx);
                    }
                }
                if self.slab.live == 0 && self.in_flight == 0 {
                    return;
                }
            }
        }
    }

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match self.wake_rx.read(&mut buf) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return, // WouldBlock: drained
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.ctx.stats.bump(HttpCounter::Connections);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    let conn = Conn {
                        stream,
                        fd,
                        parser: RequestParser::new(
                            self.ctx.config.max_head_bytes,
                            self.ctx.config.max_body_bytes,
                        ),
                        state: State::Idle,
                        timer_gen: 0,
                        interest: EPOLLIN,
                        out: Vec::new(),
                        out_pos: 0,
                        keep_after_write: false,
                        parse_started: None,
                        write_started: None,
                    };
                    let (idx, token) = self.slab.insert(conn);
                    if self.poller.add(fd, token, EPOLLIN).is_err() {
                        self.slab.remove(idx);
                        continue;
                    }
                    self.ctx
                        .stats
                        .get(HttpCounter::OpenConnections)
                        .fetch_add(1, Ordering::Relaxed);
                    self.arm_timer(idx, self.ctx.config.read_timeout);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return, // WouldBlock (drained) or transient accept error
            }
        }
    }

    fn conn_event(&mut self, token: u64, bits: u32) {
        let idx = (token & 0xFFFF_FFFF) as usize;
        let gen = (token >> 32) as u32;
        let state = match self.slab.get_checked(idx, gen) {
            Some(conn) => conn.state,
            None => return,
        };
        let readable = bits & EPOLLIN != 0;
        let writable = bits & EPOLLOUT != 0;
        let broken = bits & (EPOLLERR | EPOLLHUP) != 0;
        match state {
            // Readable data is processed even alongside ERR/HUP: the read
            // path sees the error/EOF itself once the buffered bytes are
            // consumed, so nothing parseable is dropped.
            State::Idle | State::ReadingHead | State::ReadingBody if readable => self.do_read(idx),
            State::Writing if writable => self.try_write(idx),
            _ if broken => self.close(idx),
            _ => {}
        }
    }

    fn do_read(&mut self, idx: usize) {
        let mut buf = [0u8; 8192];
        for _ in 0..MAX_READS_PER_EVENT {
            let res = match self.slab.conn_mut(idx) {
                Some(conn) => conn.stream.read(&mut buf),
                None => return,
            };
            match res {
                Ok(0) => {
                    // Peer closed. Like the pool backend, a partial request
                    // dies with its connection.
                    self.close(idx);
                    return;
                }
                Ok(n) => {
                    let short = n < buf.len();
                    let was_idle = {
                        let trace_on = self.trace.is_enabled();
                        let conn = match self.slab.conn_mut(idx) {
                            Some(conn) => conn,
                            None => return,
                        };
                        if conn.parse_started.is_none() && trace_on {
                            conn.parse_started = Some(Instant::now());
                        }
                        conn.parser.feed(&buf[..n]);
                        let was_idle = conn.state == State::Idle;
                        if was_idle {
                            conn.state = State::ReadingHead;
                        }
                        if conn.state == State::ReadingHead && conn.parser.head_complete() {
                            conn.state = State::ReadingBody;
                        }
                        was_idle
                    };
                    if was_idle {
                        // First byte of a request: the idle deadline becomes
                        // the slow-loris deadline.
                        self.arm_timer(idx, self.ctx.config.request_timeout);
                    }
                    if self.advance_parse(idx) {
                        return;
                    }
                    if short {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(idx);
                    return;
                }
            }
        }
    }

    /// Try to parse one request out of the connection's buffer and move the
    /// state machine along. Returns `true` when the connection left the
    /// reading states (dispatched, answering an error, or closed).
    fn advance_parse(&mut self, idx: usize) -> bool {
        let outcome = match self.slab.conn_mut(idx) {
            Some(conn) => conn.parser.poll(),
            None => return true,
        };
        match outcome {
            ParseOutcome::NeedMore => false,
            ParseOutcome::Request(request) => {
                let parse_ns = self
                    .slab
                    .conn_mut(idx)
                    .and_then(|c| c.parse_started.take())
                    .map(|t0| t0.elapsed().as_nanos() as u64);
                if let Some(ns) = parse_ns {
                    self.trace.record_ns(Stage::HttpParse, ns);
                }
                self.cancel_timer(idx);
                if let Some(conn) = self.slab.conn_mut(idx) {
                    conn.state = State::Dispatching;
                }
                // No read interest while a request is in flight: pipelined
                // bytes wait in the kernel buffer instead of waking the loop.
                self.set_interest(idx, 0);
                let token = self.slab.token_of(idx);
                let enqueued = self.trace.is_enabled().then(Instant::now);
                let job = Job {
                    token,
                    request,
                    enqueued,
                };
                if self.dispatch_tx.try_send(job).is_err() {
                    // Dispatch queue saturated (or dispatchers dead): shed
                    // with a 503, mirroring the pool backend's accept shed.
                    self.ctx.stats.bump(HttpCounter::ConnectionsRejected);
                    self.ctx.stats.count_response(503);
                    let body = error_body("overloaded", "dispatch queue saturated");
                    let retry = [(
                        "Retry-After",
                        self.ctx.retry_after(&self.ctx.default_model()).to_string(),
                    )];
                    let bytes = response_bytes(503, &body, CONTENT_TYPE_JSON, false, &retry);
                    self.queue_response(idx, bytes, false, false);
                } else {
                    self.in_flight += 1;
                }
                true
            }
            ParseOutcome::Failed(e) => {
                self.ctx.stats.count_response(e.status);
                let body = error_body(e.code, &e.message);
                let bytes = response_bytes(e.status, &body, CONTENT_TYPE_JSON, false, &[]);
                self.queue_response(idx, bytes, false, false);
                true
            }
        }
    }

    fn apply_completion(&mut self, done: Done) {
        self.in_flight = self.in_flight.saturating_sub(1);
        let idx = (done.token & 0xFFFF_FFFF) as usize;
        let gen = (done.token >> 32) as u32;
        if self.slab.get_checked(idx, gen).is_none() {
            return; // connection died while its request was in flight
        }
        self.queue_response(idx, done.bytes, done.keep, true);
    }

    /// Install response bytes and start flushing. `measure` arms the
    /// telemetry `response_write` span (routed responses only, matching the
    /// pool backend).
    fn queue_response(&mut self, idx: usize, bytes: Vec<u8>, keep: bool, measure: bool) {
        {
            let trace_on = self.trace.is_enabled();
            let conn = match self.slab.conn_mut(idx) {
                Some(conn) => conn,
                None => return,
            };
            conn.out = bytes;
            conn.out_pos = 0;
            conn.keep_after_write = keep;
            conn.state = State::Writing;
            conn.write_started = (measure && trace_on).then(Instant::now);
        }
        // A stalled reader is cut like a stalled sender.
        self.arm_timer(idx, self.ctx.config.request_timeout);
        self.set_interest(idx, 0);
        self.try_write(idx);
    }

    fn try_write(&mut self, idx: usize) {
        loop {
            let res = match self.slab.conn_mut(idx) {
                Some(conn) => {
                    let pos = conn.out_pos;
                    conn.stream.write(&conn.out[pos..])
                }
                None => return,
            };
            match res {
                Ok(0) => {
                    self.close(idx);
                    return;
                }
                Ok(n) => {
                    let flushed = match self.slab.conn_mut(idx) {
                        Some(conn) => {
                            conn.out_pos += n;
                            conn.out_pos >= conn.out.len()
                        }
                        None => return,
                    };
                    if flushed {
                        self.finish_response(idx);
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.set_interest(idx, EPOLLOUT);
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(idx);
                    return;
                }
            }
        }
    }

    fn finish_response(&mut self, idx: usize) {
        let keep = {
            let conn = match self.slab.conn_mut(idx) {
                Some(conn) => conn,
                None => return,
            };
            if let Some(t0) = conn.write_started.take() {
                let ns = t0.elapsed().as_nanos() as u64;
                self.trace.record_ns(Stage::ResponseWrite, ns);
            }
            conn.out = Vec::new();
            conn.out_pos = 0;
            // Responses built before the drain flag flipped may still say
            // keep-alive; closing anyway is the benign race — a drained
            // listener releases every connection at its next response.
            conn.keep_after_write && !self.ctx.draining_or_shutdown()
        };
        if !keep {
            self.close(idx);
            return;
        }
        self.cancel_timer(idx);
        let buffered = match self.slab.conn_mut(idx) {
            Some(conn) => {
                conn.parse_started = None;
                conn.parser.buffered()
            }
            None => return,
        };
        if buffered > 0 {
            // Pipelined bytes: re-enter the reading states immediately (a
            // request parsed straight out of the buffer records no
            // http_parse span, matching the pool backend).
            if let Some(conn) = self.slab.conn_mut(idx) {
                conn.state = State::ReadingHead;
                if conn.parser.head_complete() {
                    conn.state = State::ReadingBody;
                }
            }
            self.arm_timer(idx, self.ctx.config.request_timeout);
            self.set_interest(idx, EPOLLIN);
            self.advance_parse(idx);
        } else {
            if let Some(conn) = self.slab.conn_mut(idx) {
                conn.state = State::Idle;
            }
            self.arm_timer(idx, self.ctx.config.read_timeout);
            self.set_interest(idx, EPOLLIN);
        }
    }

    fn fire_timer(&mut self, token: u64, gen: u64) {
        let idx = (token & 0xFFFF_FFFF) as usize;
        let slab_gen = (token >> 32) as u32;
        let state = match self.slab.get_checked(idx, slab_gen) {
            Some(conn) if conn.timer_gen == gen => conn.state,
            _ => return, // stale deadline: connection re-armed or is gone
        };
        match state {
            State::Idle => {
                self.ctx.stats.bump(HttpCounter::IdleTimeouts);
                self.close(idx);
            }
            State::ReadingHead | State::ReadingBody => {
                self.ctx.stats.bump(HttpCounter::RequestTimeouts);
                self.ctx.stats.count_response(408);
                let body = error_body("request_timeout", "request took too long to arrive");
                let bytes = response_bytes(408, &body, CONTENT_TYPE_JSON, false, &[]);
                self.queue_response(idx, bytes, false, false);
            }
            // A response the peer refuses to drain is cut without ceremony.
            State::Writing => self.close(idx),
            State::Dispatching => {} // no deadline while predicting
        }
    }

    fn arm_timer(&mut self, idx: usize, after: Duration) {
        let token = self.slab.token_of(idx);
        if let Some(conn) = self.slab.conn_mut(idx) {
            conn.timer_gen += 1;
            let gen = conn.timer_gen;
            self.wheel.schedule(Instant::now(), after, token, gen);
        }
    }

    fn cancel_timer(&mut self, idx: usize) {
        if let Some(conn) = self.slab.conn_mut(idx) {
            conn.timer_gen += 1; // the wheel entry fires into a stale gen
        }
    }

    fn set_interest(&mut self, idx: usize, events: u32) {
        let token = self.slab.token_of(idx);
        let (fd, current) = match self.slab.conn_mut(idx) {
            Some(conn) => (conn.fd, conn.interest),
            None => return,
        };
        if current == events {
            return;
        }
        if self.poller.modify(fd, token, events).is_ok() {
            if let Some(conn) = self.slab.conn_mut(idx) {
                conn.interest = events;
            }
        } else {
            self.close(idx);
        }
    }

    fn close(&mut self, idx: usize) {
        if let Some(conn) = self.slab.remove(idx) {
            let _ = self.poller.delete(conn.fd);
            self.ctx
                .stats
                .get(HttpCounter::OpenConnections)
                .fetch_sub(1, Ordering::Relaxed);
            // Dropping `conn` closes the socket.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poller_reports_readiness_and_honours_interest_changes() {
        let (rx, mut tx) = wake_pair().unwrap();
        rx.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller.add(rx.as_raw_fd(), 42, EPOLLIN).unwrap();
        let mut events = vec![EpollEvent::zeroed(); 4];
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0, "nothing pending");

        tx.write_all(&[1]).unwrap();
        let n = poller.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let data = events[0].data;
        let bits = events[0].events;
        assert_eq!(data, 42, "token round-trips through the kernel");
        assert_ne!(bits & EPOLLIN, 0, "readable byte reported");

        // Empty interest mask: the pending byte no longer wakes us.
        poller.modify(rx.as_raw_fd(), 42, 0).unwrap();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);
        poller.modify(rx.as_raw_fd(), 42, EPOLLIN).unwrap();
        assert_eq!(poller.wait(&mut events, 1000).unwrap(), 1);
        poller.delete(rx.as_raw_fd()).unwrap();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn waker_wakes_a_blocked_wait() {
        let (rx, tx) = wake_pair().unwrap();
        rx.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller.add(rx.as_raw_fd(), TOKEN_WAKE, EPOLLIN).unwrap();
        let waker = Waker {
            writer: Mutex::new(tx),
        };
        waker.wake();
        waker.wake(); // coalesces, never blocks
        let mut events = vec![EpollEvent::zeroed(); 4];
        let n = poller.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let data = events[0].data;
        assert_eq!(data, TOKEN_WAKE);
    }

    #[test]
    fn slab_generations_invalidate_stale_tokens() {
        // A pure-slab test (no sockets): tokens from a removed slot must not
        // resolve to the slot's next tenant.
        let mut slab = Slab::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mk = || {
            let stream = TcpStream::connect(addr).unwrap();
            let fd = stream.as_raw_fd();
            Conn {
                stream,
                fd,
                parser: RequestParser::new(1024, 1024),
                state: State::Idle,
                timer_gen: 0,
                interest: EPOLLIN,
                out: Vec::new(),
                out_pos: 0,
                keep_after_write: false,
                parse_started: None,
                write_started: None,
            }
        };
        let (idx, token) = slab.insert(mk());
        assert!(slab.get_checked(idx, (token >> 32) as u32).is_some());
        slab.remove(idx);
        assert!(
            slab.get_checked(idx, (token >> 32) as u32).is_none(),
            "stale generation must not resolve"
        );
        let (idx2, token2) = slab.insert(mk());
        assert_eq!(idx2, idx, "slot is reused");
        assert_ne!(token2, token, "but under a fresh generation");
        assert!(slab.get_checked(idx2, (token2 >> 32) as u32).is_some());
        assert_eq!(slab.live, 1);
    }
}
