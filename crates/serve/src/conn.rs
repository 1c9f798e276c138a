//! The per-connection HTTP/1.1 protocol, with no socket in it.
//!
//! [`Connection`] is the one place that decides what a connection does
//! next. A driver owns the socket and reports four kinds of event — bytes
//! read, a request answered, bytes flushed, a deadline passed — and carries
//! out the [`Action`] the machine returns:
//!
//! ```text
//!             bytes read                complete request
//!   [idle] -------------> [reading] ----------------------> [dispatching]
//!     ^  \                    |                                   |
//!     |   read_timeout:       | parse error or                    | answered
//!     |   close               | request_timeout: 4xx              v
//!     |                       +-----------------------------> [writing]
//!     |                                                           |
//!     +-------------- flushed, keep-alive ------------------------+
//!   (buffered pipelined bytes re-enter reading at once; the connection
//!    closes instead when the response said `Connection: close`, which
//!    every response rendered after a drain began says)
//! ```
//!
//! The machine owns the incremental [`RequestParser`], the keep-alive and
//! drain rules, the deadline of every phase — `read_timeout` while idle
//! (cut to [`DRAIN_IDLE_DEADLINE`] once the server drains), `request_timeout`
//! from the first byte of a request and again from the moment its response
//! is queued, none while a request is being answered — the `408`,
//! parse-error and `503 overloaded` replies with their counters, and the
//! `http_parse` / `response_write` telemetry stages.
//!
//! Two drivers run it: the epoll event loop (`poll.rs`, Linux x86-64 and
//! aarch64) and the blocking thread pool (`blocking.rs`, every other
//! platform). Time enters only through the `now` arguments, so the tests
//! below drive the machine with byte slices and made-up instants.

use crate::http::{
    error_body, response_bytes, route, Ctx, HttpConfig, HttpRequest, ParseOutcome, RequestParser,
    CONTENT_TYPE_JSON,
};
use crate::surface::{HttpCounter, HttpStats};
use crate::telemetry::Stage;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// While draining, an idle keep-alive connection is released after this
/// much quiet time instead of the full `read_timeout`.
pub(crate) const DRAIN_IDLE_DEADLINE: Duration = Duration::from_millis(100);

/// Where a connection's wire stages (`http_parse`, `response_write`) land.
pub(crate) trait WireStages {
    fn record_wire(&self, stage: Stage, ns: u64);
}

impl WireStages for Ctx {
    /// Into the default tenant's active version, looked up when the stage
    /// ends: the registry `/stats` and `/metrics` render, also after a hot
    /// swap retired the version the connection started on.
    fn record_wire(&self, stage: Stage, ns: u64) {
        self.default_model().registry().record_wire(stage, ns);
    }
}

/// The server as one connection sees it at one instant.
pub(crate) struct Env<'a> {
    stats: &'a HttpStats,
    wire: &'a dyn WireStages,
    /// Drain or shutdown started: no keep-alive past the next response.
    pub(crate) draining: bool,
    /// Shutdown started: connections with no request in flight close now.
    pub(crate) shutdown: bool,
}

impl<'a> Env<'a> {
    /// Read the server's flags once.
    pub(crate) fn of(ctx: &'a Ctx) -> Self {
        Self {
            stats: &ctx.stats,
            wire: ctx,
            draining: ctx.draining_or_shutdown(),
            shutdown: ctx.shutdown.load(Ordering::SeqCst),
        }
    }
}

/// What the driver does next for a connection.
#[derive(Debug)]
pub(crate) enum Action {
    /// Wait for more bytes, until [`Connection::deadline`].
    Read,
    /// Answer this request with [`respond`] (which may block on a
    /// prediction) and report the answer through [`Connection::answered`].
    Dispatch(Box<HttpRequest>),
    /// Flush [`Connection::unflushed`], reporting progress through
    /// [`Connection::wrote`].
    Write,
    /// Close the socket.
    Close,
}

/// A rendered response and whether the connection survives it.
pub(crate) struct Answer {
    /// The response, head and body.
    pub(crate) bytes: Vec<u8>,
    keep: bool,
    /// Routed responses time `response_write`; protocol replies do not.
    timed: bool,
}

impl Answer {
    /// A protocol-level error reply; the connection closes after it.
    fn error(status: u16, code: &str, message: &str, extra: &[(&'static str, String)]) -> Self {
        let body = error_body(code, message);
        Self {
            bytes: response_bytes(status, &body, CONTENT_TYPE_JSON, false, extra),
            keep: false,
            timed: false,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Keep-alive between requests.
    Idle,
    /// Bytes of a request are arriving.
    Reading,
    /// A parsed request is being answered.
    Dispatching,
    /// Response bytes are being flushed.
    Writing,
}

/// One connection's protocol state (see the module docs).
pub(crate) struct Connection {
    parser: RequestParser,
    phase: Phase,
    /// When the current phase's deadline clock started: idle since, first
    /// byte of the request, or response queued.
    since: Instant,
    read_timeout: Duration,
    request_timeout: Duration,
    out: Vec<u8>,
    out_pos: usize,
    keep_after_write: bool,
    /// First socket read of the current request (`http_parse`).
    parse_started: Option<Instant>,
    /// Routed response queued (`response_write`).
    write_started: Option<Instant>,
}

impl Connection {
    /// A freshly accepted connection, idle since `now`.
    pub(crate) fn new(config: &HttpConfig, now: Instant) -> Self {
        Self {
            parser: RequestParser::new(config.max_head_bytes, config.max_body_bytes),
            phase: Phase::Idle,
            since: now,
            read_timeout: config.read_timeout,
            request_timeout: config.request_timeout,
            out: Vec::new(),
            out_pos: 0,
            keep_after_write: false,
            parse_started: None,
            write_started: None,
        }
    }

    /// Bytes arrived from the peer. Only called after [`Action::Read`].
    pub(crate) fn read(&mut self, bytes: &[u8], now: Instant, env: &Env) -> Action {
        if self.phase == Phase::Idle {
            self.phase = Phase::Reading;
            self.since = now;
        }
        if self.parse_started.is_none() {
            self.parse_started = Some(now);
        }
        self.parser.feed(bytes);
        self.parse(now, env)
    }

    /// Take the next request out of the buffered bytes, if it is complete.
    fn parse(&mut self, now: Instant, env: &Env) -> Action {
        match self.parser.poll() {
            ParseOutcome::NeedMore => Action::Read,
            ParseOutcome::Request(request) => {
                // A pipelined request parsed straight out of the buffer has
                // no first read of its own and records no span. The span
                // closes once the parser is done, on a fresh clock (never
                // before the caller's `now`): closing it at the read's own
                // `now` would time a request that arrived in one read as 0.
                if let Some(t0) = self.parse_started.take() {
                    let end = Instant::now().max(now);
                    env.wire
                        .record_wire(Stage::HttpParse, (end - t0).as_nanos() as u64);
                }
                self.phase = Phase::Dispatching;
                Action::Dispatch(request)
            }
            ParseOutcome::Failed(e) => {
                env.stats.count_response(e.status);
                let answer = Answer::error(e.status, e.code, &e.message, &[]);
                self.answered(answer, now)
            }
        }
    }

    /// The dispatched request was answered (or shed): queue the response.
    pub(crate) fn answered(&mut self, answer: Answer, now: Instant) -> Action {
        self.out = answer.bytes;
        self.out_pos = 0;
        self.keep_after_write = answer.keep;
        self.phase = Phase::Writing;
        self.since = now;
        self.write_started = answer.timed.then_some(now);
        Action::Write
    }

    /// The response bytes not yet written.
    pub(crate) fn unflushed(&self) -> &[u8] {
        &self.out[self.out_pos..]
    }

    /// `n` more response bytes reached the socket. `None` while some are
    /// left; once the response is out, what to do next.
    pub(crate) fn wrote(&mut self, n: usize, now: Instant, env: &Env) -> Option<Action> {
        self.out_pos += n;
        if self.out_pos < self.out.len() {
            return None;
        }
        if let Some(t0) = self.write_started.take() {
            env.wire
                .record_wire(Stage::ResponseWrite, (now - t0).as_nanos() as u64);
        }
        self.out = Vec::new();
        self.out_pos = 0;
        // A response rendered before the drain flag flipped said keep-alive
        // and keeps its word: the next response on this connection says
        // `Connection: close`, or the drain's idle deadline cuts it.
        if !self.keep_after_write {
            return Some(Action::Close);
        }
        self.parse_started = None;
        self.since = now;
        if self.parser.buffered() > 0 {
            self.phase = Phase::Reading;
            Some(self.parse(now, env))
        } else {
            self.phase = Phase::Idle;
            Some(Action::Read)
        }
    }

    /// When the current phase times out; `None` while a request is being
    /// answered (the prediction's own deadline bounds that).
    pub(crate) fn deadline(&self, env: &Env) -> Option<Instant> {
        let after = match self.phase {
            Phase::Idle if env.draining => self.read_timeout.min(DRAIN_IDLE_DEADLINE),
            Phase::Idle => self.read_timeout,
            Phase::Reading | Phase::Writing => self.request_timeout,
            Phase::Dispatching => return None,
        };
        self.since.checked_add(after)
    }

    /// Called while the driver waits on the socket: whether shutdown or a
    /// passed deadline ends the wait, and with what.
    pub(crate) fn check(&mut self, now: Instant, env: &Env) -> Option<Action> {
        if env.shutdown && matches!(self.phase, Phase::Idle | Phase::Reading) {
            return Some(Action::Close);
        }
        if self.deadline(env).is_none_or(|deadline| now < deadline) {
            return None;
        }
        Some(match self.phase {
            Phase::Idle => {
                env.stats.bump(HttpCounter::IdleTimeouts);
                Action::Close
            }
            Phase::Reading => {
                env.stats.bump(HttpCounter::RequestTimeouts);
                env.stats.count_response(408);
                let message = "request took too long to arrive";
                self.answered(Answer::error(408, "request_timeout", message, &[]), now)
            }
            // A response the peer refuses to drain is cut without ceremony:
            // there is no wire left to answer on. (Dispatching has no
            // deadline, so it never gets here.)
            Phase::Writing | Phase::Dispatching => Action::Close,
        })
    }
}

/// Answer one request against the server. Runs on a dispatcher or pool
/// thread: routing may block on a prediction.
pub(crate) fn respond(request: &HttpRequest, ctx: &Ctx) -> Answer {
    let (status, body, content_type, extra) = route(request, ctx);
    ctx.stats.count_response(status);
    // During drain or shutdown the response still goes out, but with
    // `Connection: close`, so a busy keep-alive client can neither hold the
    // shutdown hostage nor keep hammering a drained listener.
    let keep = request.keep_alive && !ctx.draining_or_shutdown();
    Answer {
        bytes: response_bytes(status, &body, content_type, keep, &extra),
        keep,
        timed: true,
    }
}

/// The `503 overloaded` a driver answers with when it has no room for more
/// work (`why` names the full queue). The connection closes after it.
pub(crate) fn shed(ctx: &Ctx, why: &str) -> Answer {
    ctx.stats.bump(HttpCounter::ConnectionsRejected);
    ctx.stats.count_response(503);
    let retry = ctx.retry_after(&ctx.default_model()).to_string();
    Answer::error(503, "overloaded", why, &[("Retry-After", retry)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Telemetry;

    impl WireStages for Telemetry {
        fn record_wire(&self, stage: Stage, ns: u64) {
            Telemetry::record_wire(self, stage, ns);
        }
    }

    const MS: Duration = Duration::from_millis(1);

    fn config() -> HttpConfig {
        HttpConfig {
            read_timeout: 500 * MS,
            request_timeout: 2000 * MS,
            ..HttpConfig::default()
        }
    }

    /// Stats, a telemetry registry and the two flags the machine reads.
    struct Server {
        stats: HttpStats,
        telemetry: Telemetry,
        draining: bool,
        shutdown: bool,
    }

    impl Server {
        fn new() -> Self {
            Self {
                stats: HttpStats::default(),
                telemetry: Telemetry::new("test", 1, 1, None),
                draining: false,
                shutdown: false,
            }
        }

        fn env(&self) -> Env<'_> {
            Env {
                stats: &self.stats,
                wire: &self.telemetry,
                draining: self.draining,
                shutdown: self.shutdown,
            }
        }

        fn count(&self, counter: HttpCounter) -> u64 {
            self.stats.get(counter).load(Ordering::Relaxed)
        }

        fn spans(&self, stage: Stage) -> u64 {
            self.telemetry.snapshot().stage_total(stage).count
        }
    }

    fn ok(keep: bool) -> Answer {
        Answer {
            bytes: b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n".to_vec(),
            keep,
            timed: true,
        }
    }

    fn target(action: Action) -> String {
        match action {
            Action::Dispatch(request) => request.target,
            other => panic!("expected a dispatch, got {other:?}"),
        }
    }

    fn status_of(conn: &Connection) -> String {
        String::from_utf8_lossy(conn.unflushed())
            .lines()
            .next()
            .unwrap_or_default()
            .to_string()
    }

    #[test]
    fn pipelined_requests_dispatch_one_at_a_time_after_each_flush() {
        let server = Server::new();
        let t0 = Instant::now();
        let mut conn = Connection::new(&config(), t0);
        let both = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        assert_eq!(target(conn.read(both, t0, &server.env())), "/a");
        // The second request stays buffered while the first is answered
        // and while its response is still flushing.
        assert!(matches!(conn.answered(ok(true), t0 + MS), Action::Write));
        let len = conn.unflushed().len();
        assert!(conn.wrote(len - 1, t0 + 2 * MS, &server.env()).is_none());
        assert_eq!(conn.unflushed().len(), 1);
        let next = conn.wrote(1, t0 + 3 * MS, &server.env()).unwrap();
        assert_eq!(target(next), "/b");
        let answered = conn.answered(ok(true), t0 + 4 * MS);
        assert!(matches!(answered, Action::Write));
        let len = conn.unflushed().len();
        assert!(matches!(
            conn.wrote(len, t0 + 5 * MS, &server.env()),
            Some(Action::Read)
        ));
        // Only the first request had a socket read of its own to time;
        // both routed responses timed their write.
        assert_eq!(server.spans(Stage::HttpParse), 1);
        assert_eq!(server.spans(Stage::ResponseWrite), 2);
    }

    #[test]
    fn a_request_in_one_read_times_its_parse() {
        let server = Server::new();
        let t0 = Instant::now();
        let mut conn = Connection::new(&config(), t0);
        let request = conn.read(b"GET /healthz HTTP/1.1\r\n\r\n", t0, &server.env());
        assert_eq!(target(request), "/healthz");
        let parse = server.telemetry.snapshot().stage_total(Stage::HttpParse);
        assert_eq!(parse.count, 1);
        assert!(parse.sum_ns > 0, "the parser's own work is inside the span");
    }

    #[test]
    fn a_request_split_across_reads_is_timed_from_its_first_byte() {
        let server = Server::new();
        let t0 = Instant::now();
        let mut conn = Connection::new(&config(), t0);
        assert!(matches!(
            conn.read(b"GET /healthz HT", t0 + MS, &server.env()),
            Action::Read
        ));
        // Reading: the slow-loris clock runs from the first byte.
        assert_eq!(conn.deadline(&server.env()), Some(t0 + MS + 2000 * MS));
        let request = conn.read(b"TP/1.1\r\n\r\n", t0 + 6 * MS, &server.env());
        assert_eq!(target(request), "/healthz");
        let parse = server.telemetry.snapshot().stage_total(Stage::HttpParse);
        assert_eq!(parse.count, 1);
        assert!(
            parse.quantile_ns(0.5) >= 2.5e6,
            "{}",
            parse.quantile_ns(0.5)
        );
    }

    #[test]
    fn a_drain_seen_before_the_flush_keeps_the_promised_keep_alive() {
        let mut server = Server::new();
        let t0 = Instant::now();
        let mut conn = Connection::new(&config(), t0);
        target(conn.read(b"GET / HTTP/1.1\r\n\r\n", t0, &server.env()));
        conn.answered(ok(true), t0);
        // The drain flips after the response said keep-alive: the peer may
        // already be sending its next request, so the connection stays.
        server.draining = true;
        let len = conn.unflushed().len();
        assert!(matches!(
            conn.wrote(len, t0, &server.env()),
            Some(Action::Read)
        ));
        // Idle now, it waits no longer than the drain's deadline.
        assert_eq!(conn.deadline(&server.env()), Some(t0 + DRAIN_IDLE_DEADLINE));
        // A response that said close closes, draining or not.
        target(conn.read(b"GET / HTTP/1.1\r\n\r\n", t0, &server.env()));
        conn.answered(ok(false), t0);
        let len = conn.unflushed().len();
        assert!(matches!(
            conn.wrote(len, t0, &server.env()),
            Some(Action::Close)
        ));
    }

    #[test]
    fn draining_shortens_the_idle_deadline() {
        let mut server = Server::new();
        let t0 = Instant::now();
        let conn = Connection::new(&config(), t0);
        assert_eq!(conn.deadline(&server.env()), Some(t0 + 500 * MS));
        server.draining = true;
        assert_eq!(conn.deadline(&server.env()), Some(t0 + DRAIN_IDLE_DEADLINE));
    }

    #[test]
    fn each_phase_has_its_own_deadline_outcome() {
        let server = Server::new();
        let t0 = Instant::now();
        let late = t0 + Duration::from_secs(60);

        // Idle: silent close, counted as an idle timeout.
        let mut idle = Connection::new(&config(), t0);
        assert!(idle.check(t0 + 499 * MS, &server.env()).is_none());
        assert!(matches!(
            idle.check(t0 + 500 * MS, &server.env()),
            Some(Action::Close)
        ));
        assert_eq!(server.count(HttpCounter::IdleTimeouts), 1);

        // Reading: a 408 goes out, then the connection closes.
        let mut reading = Connection::new(&config(), t0);
        assert!(matches!(
            reading.read(b"POST /predict HTTP/1.1\r\n", t0, &server.env()),
            Action::Read
        ));
        assert!(matches!(
            reading.check(late, &server.env()),
            Some(Action::Write)
        ));
        assert_eq!(status_of(&reading), "HTTP/1.1 408 Request Timeout");
        assert_eq!(server.count(HttpCounter::RequestTimeouts), 1);
        assert_eq!(server.count(HttpCounter::Responses4xx), 1);
        let len = reading.unflushed().len();
        assert!(matches!(
            reading.wrote(len, late, &server.env()),
            Some(Action::Close)
        ));

        // Dispatching: no deadline at all.
        let mut dispatching = Connection::new(&config(), t0);
        target(dispatching.read(b"GET / HTTP/1.1\r\n\r\n", t0, &server.env()));
        assert_eq!(dispatching.deadline(&server.env()), None);
        assert!(dispatching.check(late, &server.env()).is_none());

        // Writing: a stalled reader is cut without a reply.
        dispatching.answered(ok(true), t0);
        assert!(dispatching.check(t0 + 1999 * MS, &server.env()).is_none());
        assert!(matches!(
            dispatching.check(t0 + 2000 * MS, &server.env()),
            Some(Action::Close)
        ));

        // Only the idle and reading outcomes touch the counters, and the
        // error reply records no response_write span.
        assert_eq!(server.count(HttpCounter::IdleTimeouts), 1);
        assert_eq!(server.count(HttpCounter::RequestTimeouts), 1);
        assert_eq!(server.spans(Stage::ResponseWrite), 0);
    }

    #[test]
    fn a_parse_failure_replies_and_closes() {
        let server = Server::new();
        let t0 = Instant::now();
        let mut conn = Connection::new(&config(), t0);
        let action = conn.read(b"NONSENSE\r\n\r\nGET / HTTP/1.1\r\n\r\n", t0, &server.env());
        assert!(matches!(action, Action::Write));
        assert_eq!(status_of(&conn), "HTTP/1.1 400 Bad Request");
        assert!(String::from_utf8_lossy(conn.unflushed()).contains("Connection: close"));
        assert_eq!(server.count(HttpCounter::Responses4xx), 1);
        let len = conn.unflushed().len();
        assert!(matches!(
            conn.wrote(len, t0, &server.env()),
            Some(Action::Close)
        ));
        assert_eq!(server.spans(Stage::HttpParse), 0);
    }

    #[test]
    fn shutdown_closes_connections_without_a_request_in_flight() {
        let mut server = Server::new();
        server.shutdown = true;
        server.draining = true;
        let t0 = Instant::now();
        let mut idle = Connection::new(&config(), t0);
        assert!(matches!(idle.check(t0, &server.env()), Some(Action::Close)));
        let mut reading = Connection::new(&config(), t0);
        reading.read(b"GET / HT", t0, &server.env());
        assert!(matches!(
            reading.check(t0, &server.env()),
            Some(Action::Close)
        ));
        // A request already being answered still gets its response.
        let mut busy = Connection::new(&config(), t0);
        target(busy.read(b"GET / HTTP/1.1\r\n\r\n", t0, &server.env()));
        assert!(busy.check(t0, &server.env()).is_none());
        busy.answered(ok(false), t0);
        assert!(busy.check(t0, &server.env()).is_none());
        assert_eq!(server.count(HttpCounter::IdleTimeouts), 0);
    }

    #[test]
    fn a_huge_timeout_means_no_deadline_rather_than_an_overflow() {
        let server = Server::new();
        let t0 = Instant::now();
        let config = HttpConfig {
            read_timeout: Duration::MAX,
            ..config()
        };
        let mut conn = Connection::new(&config, t0);
        assert_eq!(conn.deadline(&server.env()), None);
        assert!(conn
            .check(t0 + Duration::from_secs(3600), &server.env())
            .is_none());
    }
}
