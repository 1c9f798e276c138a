//! The epoll connection driver (Linux x86-64/aarch64; elsewhere
//! `blocking.rs` runs): one **event-loop thread** owns the listener and
//! every connection socket nonblocking, multiplexed through an epoll
//! instance built directly on the `epoll_create1` / `epoll_ctl` /
//! `epoll_pwait` syscalls (no `libc` — the workspace builds with zero
//! external crates, so the shims below go through `core::arch::asm!`).
//! An idle keep-alive socket costs one slab slot and one registration,
//! not a thread.
//!
//! The loop does I/O only; each socket's [`crate::conn::Connection`]
//! decides what happens next. The loop reads and writes, keeps the
//! machine's deadline in a [`Deadlines`] heap and sleeps until the earliest
//! one, sets the epoll interest to what the machine waits for, and hands
//! complete requests to a **dispatcher pool** (`connection_workers`
//! threads) that routes them — blocking on the prediction — and sends the
//! response back through a TCP self-pipe waker. A full dispatch queue
//! (`backlog` requests beyond one per dispatcher) is answered
//! `503 overloaded`.
//!
//! Draining drops the **accept interest**: no new connections, while open
//! ones keep running under the machine's drain rules. Shutdown then closes
//! connections with no request in flight, lets the others finish, and
//! exits once the slab is empty, which releases the dispatchers.

use crate::conn::{self, Action, Answer, Connection, Env, WireStages};
use crate::http::{Ctx, Driver, HttpRequest};
use crate::surface::HttpCounter;
use crate::telemetry::Stage;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Instant;

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

/// One open socket and the protocol state machine it feeds.
struct Conn {
    stream: TcpStream,
    fd: RawFd,
    http: Connection,
    /// Interest mask currently registered with the poller: `EPOLLIN` while
    /// the machine waits for bytes, `EPOLLOUT` while a flush waits for
    /// room, empty while a request is dispatched.
    interest: u32,
    /// The earliest entry this connection has in [`Deadlines`], if any.
    /// Never later than the machine's deadline, so nothing fires late.
    queued: Option<Instant>,
}

/// Slot-reusing connection store. Tokens are `index | generation << 32`:
/// a completion or deadline for a connection that died and whose slot was
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

/// Split a token into its slab index and slot generation.
fn split_token(token: u64) -> (usize, u32) {
    ((token & 0xFFFF_FFFF) as usize, (token >> 32) as u32)
}

// ---------------------------------------------------------------------------
// Connection deadlines
// ---------------------------------------------------------------------------

/// Connection deadlines as `(when, token)` entries, earliest first. An entry
/// is never removed early: one a connection has superseded (or whose
/// connection closed) pops at its time and only re-arms, which is what
/// keeps arming O(log n) with no lookup structure.
#[derive(Default)]
struct Deadlines {
    heap: BinaryHeap<Reverse<(Instant, u64)>>,
}

impl Deadlines {
    /// Queue `deadline` for `token` unless `queued`, the connection's
    /// earliest entry, already comes at or before it.
    fn arm(&mut self, queued: &mut Option<Instant>, deadline: Option<Instant>, token: u64) {
        match deadline {
            Some(at) if queued.is_none_or(|q| at < q) => {
                *queued = Some(at);
                self.heap.push(Reverse((at, token)));
            }
            _ => {}
        }
    }

    /// The earliest entry, removed, if it is due at `now`.
    fn pop_due(&mut self, now: Instant) -> Option<(Instant, u64)> {
        let Reverse((at, _)) = *self.heap.peek()?;
        if at > now {
            return None;
        }
        self.heap.pop().map(|Reverse(entry)| entry)
    }

    /// How long the loop may sleep: `None` (forever) with nothing queued,
    /// otherwise the milliseconds to the earliest entry, rounded up so it
    /// is due when the wait ends.
    fn timeout_ms(&self, now: Instant) -> Option<u64> {
        let Reverse((at, _)) = self.heap.peek()?;
        let ns = at.saturating_duration_since(now).as_nanos();
        Some(u64::try_from(ns.div_ceil(1_000_000)).unwrap_or(u64::MAX))
    }

    /// Queued entries, superseded ones included.
    fn len(&self) -> usize {
        self.heap.len()
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
    enqueued: Instant,
}

/// Answered requests waiting for the event loop: (token, answer).
type Completions = Mutex<Vec<(u64, Answer)>>;

fn dispatcher(
    ctx: Arc<Ctx>,
    rx: Arc<Mutex<Receiver<Job>>>,
    completions: Arc<Completions>,
    waker: Arc<Waker>,
) {
    loop {
        // Hold the lock only to pull the next job.
        let job = match rx.lock().expect("dispatch queue poisoned").recv() {
            Ok(job) => job,
            Err(_) => return, // event loop gone and queue drained
        };
        let waited = job.enqueued.elapsed().as_nanos() as u64;
        ctx.record_wire(Stage::QueueWait, waited);
        let answer = conn::respond(&job.request, &ctx);
        let done = (job.token, answer);
        completions.lock().expect("completions poisoned").push(done);
        waker.wake();
    }
}

// ---------------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------------

/// Handles of a running epoll backend, joined by `HttpServer::shutdown`.
struct EpollBackend {
    event_loop: Option<JoinHandle<()>>,
    dispatchers: Vec<JoinHandle<()>>,
    waker: Arc<Waker>,
}

impl Driver for EpollBackend {
    fn wake(&self) {
        self.waker.wake();
    }

    fn join(&mut self) {
        self.waker.wake();
        // The loop closes idle connections, finishes in-flight requests
        // (responses carry `Connection: close`) and exits; dropping its
        // dispatch channel then releases the dispatchers.
        if let Some(event_loop) = self.event_loop.take() {
            let _ = event_loop.join();
        }
        for dispatcher in self.dispatchers.drain(..) {
            let _ = dispatcher.join();
        }
    }
}

/// The connection model `/stats` reports for this driver.
pub(crate) const NAME: &str = "epoll";

/// Bound on consecutive reads per readiness event so one fast sender cannot
/// monopolize the loop; level-triggered epoll re-reports the leftovers.
const MAX_READS_PER_EVENT: usize = 16;

/// Spawn the event loop and its dispatcher pool over an already-bound
/// listener.
pub(crate) fn start(listener: TcpListener, ctx: &Arc<Ctx>) -> io::Result<Box<dyn Driver>> {
    let poller = Poller::new()?;
    let (wake_rx, wake_tx) = wake_pair()?;
    let waker = Arc::new(Waker {
        writer: Mutex::new(wake_tx),
    });
    let completions = Arc::new(Completions::default());
    // `backlog` queued requests on top of one in flight per dispatcher,
    // 503 beyond.
    let capacity = ctx.config.backlog + ctx.config.connection_workers;
    let (dispatch_tx, dispatch_rx) = mpsc::sync_channel::<Job>(capacity);
    let dispatch_rx = Arc::new(Mutex::new(dispatch_rx));
    let dispatchers = (0..ctx.config.connection_workers)
        .map(|_| {
            let ctx = Arc::clone(ctx);
            let rx = Arc::clone(&dispatch_rx);
            let completions = Arc::clone(&completions);
            let waker = Arc::clone(&waker);
            thread::spawn(move || dispatcher(ctx, rx, completions, waker))
        })
        .collect();
    let event_loop = {
        let mut event_loop = EventLoop {
            listener,
            wake_rx,
            poller,
            ctx: Arc::clone(ctx),
            slab: Slab::new(),
            deadlines: Deadlines::default(),
            dispatch_tx,
            completions,
            accepting: true,
            in_flight: 0,
        };
        thread::spawn(move || event_loop.run())
    };
    Ok(Box::new(EpollBackend {
        event_loop: Some(event_loop),
        dispatchers,
        waker,
    }))
}

struct EventLoop {
    listener: TcpListener,
    wake_rx: TcpStream,
    poller: Poller,
    ctx: Arc<Ctx>,
    slab: Slab,
    deadlines: Deadlines,
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
                .get(HttpCounter::DeadlinesArmed)
                .store(self.deadlines.len() as u64, Ordering::Relaxed);
            let timeout = match self.deadlines.timeout_ms(Instant::now()) {
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
            let done = std::mem::take(&mut *self.completions.lock().expect("completions poisoned"));
            for (token, answer) in done {
                self.apply_completion(token, answer);
            }
            let now = Instant::now();
            while let Some((at, token)) = self.deadlines.pop_due(now) {
                self.fire(at, token, now);
            }
            let Env {
                draining, shutdown, ..
            } = Env::of(&self.ctx);
            // Drain (or shutdown) drops the accept interest: no new
            // connections, in-flight state machines keep running. Idle
            // connections move to the machine's shorter drain deadline.
            if self.accepting && draining {
                let _ = self.poller.delete(listener_fd);
                self.accepting = false;
                for idx in self.slab.live_indices() {
                    self.arm_deadline(idx);
                }
            }
            if accept_ready && self.accepting {
                self.accept_ready();
            }
            if shutdown {
                for idx in self.slab.live_indices() {
                    self.check(idx, now);
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
                        http: Connection::new(&self.ctx.config, Instant::now()),
                        interest: EPOLLIN,
                        queued: None,
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
                    self.arm_deadline(idx);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return, // WouldBlock (drained) or transient accept error
            }
        }
    }

    fn conn_event(&mut self, token: u64, bits: u32) {
        let (idx, gen) = split_token(token);
        let interest = match self.slab.get_checked(idx, gen) {
            Some(conn) => conn.interest,
            None => return,
        };
        // Readable data is processed even alongside ERR/HUP: the read path
        // sees the error/EOF itself once the buffered bytes are consumed,
        // so nothing parseable is dropped.
        if bits & EPOLLIN != 0 && interest == EPOLLIN {
            self.do_read(idx);
        } else if bits & EPOLLOUT != 0 && interest == EPOLLOUT {
            self.step(idx, Action::Write);
        } else if bits & (EPOLLERR | EPOLLHUP) != 0 {
            self.close(idx);
        }
    }

    fn do_read(&mut self, idx: usize) {
        let mut buf = [0u8; 8192];
        for _ in 0..MAX_READS_PER_EVENT {
            let Some(conn) = self.slab.conn_mut(idx) else {
                return;
            };
            let (action, more) = match conn.stream.read(&mut buf) {
                // Peer closed: a partial request dies with its connection.
                Ok(0) => (Action::Close, false),
                Ok(n) => {
                    let env = Env::of(&self.ctx);
                    let action = conn.http.read(&buf[..n], Instant::now(), &env);
                    let more = n == buf.len() && matches!(action, Action::Read);
                    (action, more)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => (Action::Close, false),
            };
            self.step(idx, action);
            if !more {
                return;
            }
        }
    }

    fn apply_completion(&mut self, token: u64, answer: Answer) {
        self.in_flight = self.in_flight.saturating_sub(1);
        let (idx, gen) = split_token(token);
        let Some(conn) = self.slab.get_checked(idx, gen) else {
            return; // connection died while its request was in flight
        };
        let action = conn.http.answered(answer, Instant::now());
        self.step(idx, action);
    }

    /// Carry out the machine's action, and every action that follows from
    /// it without waiting on the socket.
    fn step(&mut self, idx: usize, mut action: Action) {
        loop {
            action = match action {
                Action::Read => {
                    self.arm_deadline(idx);
                    self.set_interest(idx, EPOLLIN);
                    return;
                }
                Action::Dispatch(request) => {
                    self.arm_deadline(idx);
                    // No read interest while a request is in flight:
                    // pipelined bytes wait in the kernel buffer.
                    self.set_interest(idx, 0);
                    let job = Job {
                        token: self.slab.token_of(idx),
                        request,
                        enqueued: Instant::now(),
                    };
                    if self.dispatch_tx.try_send(job).is_ok() {
                        self.in_flight += 1;
                        return;
                    }
                    let answer = conn::shed(&self.ctx, "dispatch queue saturated");
                    match self.slab.conn_mut(idx) {
                        Some(conn) => conn.http.answered(answer, Instant::now()),
                        None => return,
                    }
                }
                Action::Write => {
                    self.arm_deadline(idx);
                    match self.flush(idx) {
                        Some(next) => next,
                        None => return,
                    }
                }
                Action::Close => {
                    self.close(idx);
                    return;
                }
            };
        }
    }

    /// Write until the response is out (returning the machine's next
    /// action) or the socket is full (`None`, waiting on `EPOLLOUT`).
    fn flush(&mut self, idx: usize) -> Option<Action> {
        loop {
            let conn = self.slab.conn_mut(idx)?;
            match conn.stream.write(conn.http.unflushed()) {
                Ok(0) => return Some(Action::Close),
                Ok(n) => {
                    let env = Env::of(&self.ctx);
                    if let Some(next) = conn.http.wrote(n, Instant::now(), &env) {
                        return Some(next);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.set_interest(idx, EPOLLOUT);
                    return None;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Some(Action::Close),
            }
        }
    }

    /// A queued entry came due. The machine's deadline may have moved on
    /// since it was queued; `check` acts only if it has passed, and
    /// otherwise re-arms at the current one.
    fn fire(&mut self, at: Instant, token: u64, now: Instant) {
        let (idx, gen) = split_token(token);
        let Some(conn) = self.slab.get_checked(idx, gen) else {
            return; // the connection is gone
        };
        if conn.queued == Some(at) {
            conn.queued = None;
        }
        self.check(idx, now);
    }

    /// Let the machine act on shutdown or a passed deadline; otherwise keep
    /// its deadline queued.
    fn check(&mut self, idx: usize, now: Instant) {
        let env = Env::of(&self.ctx);
        let action = match self.slab.conn_mut(idx) {
            Some(conn) => conn.http.check(now, &env),
            None => return,
        };
        match action {
            Some(action) => self.step(idx, action),
            None => self.arm_deadline(idx),
        }
    }

    /// Queue the machine's current deadline if it is earlier than the
    /// connection's queued entry. A later deadline waits for that entry to
    /// fire and re-arm, so steady keep-alive traffic keeps one entry per
    /// connection.
    fn arm_deadline(&mut self, idx: usize) {
        let env = Env::of(&self.ctx);
        let token = self.slab.token_of(idx);
        if let Some(conn) = self.slab.conn_mut(idx) {
            let deadline = conn.http.deadline(&env);
            self.deadlines.arm(&mut conn.queued, deadline, token);
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
    use std::time::Duration;

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

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn a_deadline_never_fires_before_it_is_due() {
        let mut deadlines = Deadlines::default();
        let t0 = Instant::now();
        deadlines.arm(&mut None, Some(t0 + ms(25)), 7);
        assert_eq!(deadlines.len(), 1);
        assert_eq!(deadlines.pop_due(t0), None);
        assert_eq!(deadlines.pop_due(t0 + ms(24)), None);
        assert_eq!(deadlines.pop_due(t0 + ms(25)), Some((t0 + ms(25), 7)));
        assert_eq!(deadlines.pop_due(t0 + ms(25)), None, "fires exactly once");
        assert_eq!(deadlines.len(), 0);
    }

    #[test]
    fn a_far_deadline_survives_many_early_polls() {
        let mut deadlines = Deadlines::default();
        let t0 = Instant::now();
        deadlines.arm(&mut None, Some(t0 + ms(95)), 1);
        for n in (5..95).step_by(5) {
            assert_eq!(deadlines.pop_due(t0 + ms(n)), None, "fired {n} ms in");
        }
        assert_eq!(deadlines.len(), 1);
        assert_eq!(deadlines.pop_due(t0 + ms(120)), Some((t0 + ms(95), 1)));
        assert_eq!(deadlines.len(), 0);
    }

    #[test]
    fn entries_fire_in_deadline_order() {
        let mut deadlines = Deadlines::default();
        let t0 = Instant::now();
        for token in [5u64, 1, 19, 3, 12, 0, 8] {
            deadlines.arm(&mut None, Some(t0 + ms(5 + token)), token);
        }
        // No deadline: nothing is queued.
        deadlines.arm(&mut None, None, 99);
        // One pass after a long pause drains everything, earliest first.
        let mut fired = Vec::new();
        while let Some((at, token)) = deadlines.pop_due(t0 + Duration::from_secs(2)) {
            assert_eq!(at, t0 + ms(5 + token));
            fired.push(token);
        }
        assert_eq!(fired, vec![0, 1, 3, 5, 8, 12, 19]);
    }

    #[test]
    fn a_superseded_entry_that_fires_only_re_arms() {
        let mut deadlines = Deadlines::default();
        let t0 = Instant::now();
        let mut queued = None;
        deadlines.arm(&mut queued, Some(t0 + ms(50)), 3);
        // A later deadline waits for the queued entry; an earlier one is
        // queued beside it.
        deadlines.arm(&mut queued, Some(t0 + ms(80)), 3);
        assert_eq!((deadlines.len(), queued), (1, Some(t0 + ms(50))));
        deadlines.arm(&mut queued, Some(t0 + ms(20)), 3);
        assert_eq!((deadlines.len(), queued), (2, Some(t0 + ms(20))));

        // The loop's handling of a due entry: clear `queued` if this is it,
        // then re-arm at the machine's current deadline (here 90 ms).
        let mut fire = |deadlines: &mut Deadlines, now: Instant| {
            let (at, token) = deadlines.pop_due(now).expect("an entry is due");
            if queued == Some(at) {
                queued = None;
            }
            deadlines.arm(&mut queued, Some(t0 + ms(90)), token);
            queued
        };
        assert_eq!(fire(&mut deadlines, t0 + ms(20)), Some(t0 + ms(90)));
        assert_eq!(deadlines.len(), 2);
        // The superseded 50 ms entry pops and adds nothing.
        assert_eq!(fire(&mut deadlines, t0 + ms(50)), Some(t0 + ms(90)));
        assert_eq!(deadlines.len(), 1);
        assert_eq!(deadlines.pop_due(t0 + ms(89)), None);
    }

    #[test]
    fn the_poll_timeout_is_forever_when_empty_and_rounds_up() {
        let mut deadlines = Deadlines::default();
        let t0 = Instant::now();
        assert_eq!(
            deadlines.timeout_ms(t0),
            None,
            "nothing queued: sleep forever"
        );
        deadlines.arm(&mut None, Some(t0 + ms(50) + Duration::from_micros(1)), 1);
        assert_eq!(
            deadlines.timeout_ms(t0),
            Some(51),
            "rounded up, never early"
        );
        assert_eq!(deadlines.timeout_ms(t0 + ms(50)), Some(1));
        assert_eq!(
            deadlines.timeout_ms(t0 + ms(60)),
            Some(0),
            "overdue: no sleep"
        );
        deadlines.arm(&mut None, Some(t0 + ms(10)), 2);
        assert_eq!(
            deadlines.timeout_ms(t0),
            Some(10),
            "the earliest entry counts"
        );
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
                http: Connection::new(&crate::HttpConfig::default(), Instant::now()),
                interest: EPOLLIN,
                queued: None,
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
