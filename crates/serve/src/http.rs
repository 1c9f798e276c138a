//! Dependency-free HTTP/1.1 front-end for the micro-batching server.
//!
//! [`HttpServer`] puts a real wire in front of a [`ModelZoo`] of
//! [`PredictServer`]s (a single-model server is a zoo of one). Every
//! connection speaks HTTP/1.1 with keep-alive through one socket-free
//! protocol state machine (`conn.rs`: parsing with the incremental
//! [`RequestParser`] below, keep-alive and drain rules, deadlines, timeout
//! and error replies). The build platform picks the driver that runs it:
//!
//! * **epoll** (Linux x86-64/aarch64, `poll.rs`) — one event-loop thread
//!   multiplexes every connection nonblocking through a raw-syscall epoll
//!   instance; complete requests are handed to `connection_workers`
//!   dispatcher threads, and the loop sleeps until the earliest
//!   connection deadline in a binary heap. An idle keep-alive socket costs
//!   a slab slot and about one heap entry, not a thread.
//! * **pool** (every other platform, `blocking.rs`) — a blocking
//!   `std::net::TcpListener` accept loop feeding `connection_workers`
//!   handler threads behind a `backlog`-deep hand-off queue (when both are
//!   full the acceptor answers `503` instead of piling up threads), with
//!   the machine's deadlines applied as socket timeouts.
//!
//! [`HttpServer::connection_model`], `/stats` (`http.connection_model`) and
//! `/metrics` (`dtdbd_http_connection_model`) name the driver. Both put the
//! same bytes on the wire, so predictions are **bit-identical** either way.
//!
//! # Wire protocol
//!
//! | Endpoint | Body | Response |
//! |----------|------|----------|
//! | `POST /predict` | single request object, or `{"items": [...]}` | prediction object, or `{"count": n, "predictions": [...]}` — served by the zoo's **default** model |
//! | `POST /predict/<id>` | as `POST /predict` | the same, served by the tenant registered under `<id>` (`404 unknown_model` otherwise) |
//! | `GET /model` | — | the routing table: default id plus one descriptor per tenant (arch, version, side-state tags, reload counters) |
//! | `GET /model/<id>` | — | one tenant's descriptor |
//! | `POST /admin/reload/<id>` | — | atomic hot-swap of `<id>` to the current contents of its checkpoint file: `200 {"model", "version"}`, `404 unknown_model`, `400 not_reloadable`, `503 reload_failed` (+`Retry-After`) |
//! | `GET /healthz` | — | liveness: `{"status": "ok"}` whenever the process can answer at all |
//! | `GET /readyz` | — | readiness: `200` while accepting work, `503` once draining ([`HttpServer::begin_drain`]) or shut down, or with dead prediction workers (any tenant) |
//! | `GET /stats` | — | queue depth, worker/pool counters, per-endpoint request counters, a per-model object, per-stage and per-kernel latency quantiles and per-domain drift scores (see [`crate::telemetry`]) |
//! | `GET /metrics` | — | Prometheus text exposition (format 0.0.4, `text/plain`) of the same counters, histograms and drift gauges, plus `model`-labelled per-tenant families |
//!
//! `/stats`, `/metrics` and the shared fields of `/model` are rendered from
//! one declaration of the serving counters (`surface.rs`), so every scalar
//! in `/stats` has a `/metrics` sample of the same value.
//!
//! Request and prediction objects are specified in [`crate::json`]. Every
//! error response carries `{"error": <code>, "message": <text>}`; statuses:
//!
//! * `400` — malformed request line/headers/body, invalid JSON, schema or
//!   [`dtdbd_data::RequestError`] validation failure (the validation `code`
//!   comes from [`dtdbd_data::RequestError::wire_code`]);
//! * `404` / `405` — unknown path / wrong method (with an `Allow` header);
//! * `408` — a request that did not arrive completely within
//!   `request_timeout` (slow-loris guard for the bounded pool);
//! * `413` / `431` — body over `max_body_bytes` / head over `max_head_bytes`;
//! * `503` — the request was shed; the `code` says why and every variant
//!   carries a `Retry-After` header (seconds, derived from queue depth and
//!   drain state): `overloaded` (connection pool / dispatch queue
//!   saturated, sent before closing the socket), `worker_crashed` (the
//!   prediction worker serving the request panicked mid-batch; its
//!   supervisor is respawning it) and `deadline_exceeded` (the request's
//!   `request_timeout` budget expired while it sat in the micro-batch
//!   queue).
//!
//! Responses are `application/json` (except `/metrics`, which is the
//! Prometheus `text/plain; version=0.0.4`), always carry `Content-Length`,
//! and honour HTTP/1.0-vs-1.1 keep-alive defaults plus `Connection: close`.
//!
//! Shutdown is graceful and runs on drop: intake stops, the acceptor and
//! every connection worker is joined, and each tenant's [`PredictServer`]
//! then drains its queue through its own [`PredictServer::shutdown`]
//! sequence.

use crate::json::{self, Json};
use crate::server::{PredictError, PredictServer};
use crate::session::Prediction;
use crate::surface::{self, HttpCounter, HttpStats, Snapshot, TenantSnapshot};
use crate::zoo::{ModelZoo, ReloadError, Tenant, TenantModel};
use dtdbd_data::EncodedRequest;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs of the HTTP listener.
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`HttpServer::local_addr`]).
    pub addr: String,
    /// Size of the dispatcher pool behind the event loop (epoll) or of the
    /// connection-handler thread pool (pool); at least 1 (the
    /// [`crate::ServerBuilder`] start methods return
    /// [`crate::ConfigError::ZeroConnectionWorkers`] otherwise).
    pub connection_workers: usize,
    /// Parsed requests (epoll) / accepted connections (pool) that may wait
    /// for a free worker before the server starts answering `503`.
    pub backlog: usize,
    /// Largest request head (request line + headers) accepted; `431` beyond.
    pub max_head_bytes: usize,
    /// Largest declared body accepted; `413` beyond.
    pub max_body_bytes: usize,
    /// Idle keep-alive deadline: a connection with no request in progress is
    /// closed after this long without bytes (100 ms once the server drains).
    /// Under epoll the event loop wakes for it (never early, about 1 ms
    /// late at most); the pool checks it between reads of at most 100 ms.
    pub read_timeout: Duration,
    /// Overall deadline for one request to arrive completely (first byte to
    /// final body byte). Guards against slow-loris clients that keep each
    /// individual read under `read_timeout`; `408` beyond. It also bounds
    /// how long a response may sit unflushed against a stalled reader (cut
    /// without a status — there is no wire left to answer on), and is the
    /// prediction deadline of each request in the micro-batch queue.
    pub request_timeout: Duration,
}

impl Default for HttpConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            connection_workers: 8,
            backlog: 32,
            max_head_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
            read_timeout: Duration::from_secs(5),
            request_timeout: Duration::from_secs(30),
        }
    }
}

/// A wire-level failure mapped to an HTTP status + stable error code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// HTTP status to answer with.
    pub status: u16,
    /// Stable machine-readable code (the JSON `"error"` field).
    pub code: &'static str,
    /// Human-readable detail (the JSON `"message"` field).
    pub message: String,
}

impl WireError {
    fn bad_request(code: &'static str, message: impl Into<String>) -> Self {
        Self {
            status: 400,
            code,
            message: message.into(),
        }
    }
}

/// A fully parsed request.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Request method, verbatim (e.g. `"POST"`).
    pub method: String,
    /// Request target, verbatim (e.g. `"/predict?x=1"`).
    pub target: String,
    /// Headers in order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (exactly `Content-Length` bytes; empty when absent).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl HttpRequest {
    /// First header with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The target without its query string.
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }
}

/// One step of incremental parsing.
#[derive(Debug)]
pub enum ParseOutcome {
    /// The buffered bytes do not yet hold a complete request.
    NeedMore,
    /// A complete request was parsed (and consumed from the buffer).
    Request(Box<HttpRequest>),
    /// The byte stream is not a parseable request; answer with the error and
    /// close the connection.
    Failed(WireError),
}

/// Incremental HTTP/1.1 request parser.
///
/// Feed it bytes as they arrive ([`RequestParser::feed`]) and poll it for
/// requests ([`RequestParser::poll`]); it consumes exactly one request's
/// bytes per `Request` outcome, so pipelined requests buffered together are
/// handed out one at a time. The parser never panics on any byte sequence —
/// the wire fuzz battery holds it to that.
#[derive(Debug)]
pub struct RequestParser {
    buf: Vec<u8>,
    max_head_bytes: usize,
    max_body_bytes: usize,
}

const HEAD_END: &[u8] = b"\r\n\r\n";

impl RequestParser {
    /// A parser enforcing the given head/body limits.
    pub fn new(max_head_bytes: usize, max_body_bytes: usize) -> Self {
        Self {
            buf: Vec::new(),
            max_head_bytes,
            max_body_bytes,
        }
    }

    /// Buffer freshly received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (parsed requests are consumed).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffered bytes contain a complete request head
    /// (`\r\n\r\n` seen). Read-only — the event loop uses it to move a
    /// connection from reading-head to reading-body without consuming
    /// anything.
    pub fn head_complete(&self) -> bool {
        find_subsequence(&self.buf, HEAD_END).is_some()
    }

    /// Try to parse one complete request out of the buffered bytes.
    pub fn poll(&mut self) -> ParseOutcome {
        let head_len = match find_subsequence(&self.buf, HEAD_END) {
            Some(i) => i,
            None => {
                if self.buf.len() > self.max_head_bytes {
                    return ParseOutcome::Failed(WireError {
                        status: 431,
                        code: "headers_too_large",
                        message: format!("request head exceeds {} bytes", self.max_head_bytes),
                    });
                }
                return ParseOutcome::NeedMore;
            }
        };
        if head_len > self.max_head_bytes {
            return ParseOutcome::Failed(WireError {
                status: 431,
                code: "headers_too_large",
                message: format!("request head exceeds {} bytes", self.max_head_bytes),
            });
        }
        let (method, target, version, headers) = match parse_head(&self.buf[..head_len]) {
            Ok(parts) => parts,
            Err(e) => return ParseOutcome::Failed(e),
        };
        let content_length = match content_length(&headers) {
            Ok(len) => len,
            Err(e) => return ParseOutcome::Failed(e),
        };
        if content_length > self.max_body_bytes as u64 {
            return ParseOutcome::Failed(WireError {
                status: 413,
                code: "body_too_large",
                message: format!(
                    "declared body of {content_length} bytes exceeds {}",
                    self.max_body_bytes
                ),
            });
        }
        let body_start = head_len + HEAD_END.len();
        // The limit check above ran on the raw u64, so the cast below cannot
        // truncate a hostile near-u64::MAX length on 32-bit targets unless
        // the limit itself is usize::MAX — and then the checked add still
        // refuses to wrap the buffer arithmetic.
        let total = match body_start.checked_add(content_length as usize) {
            Some(total) => total,
            None => {
                return ParseOutcome::Failed(WireError {
                    status: 413,
                    code: "body_too_large",
                    message: format!(
                        "declared body of {content_length} bytes overflows the buffer"
                    ),
                })
            }
        };
        if self.buf.len() < total {
            return ParseOutcome::NeedMore;
        }
        let body = self.buf[body_start..total].to_vec();
        self.buf.drain(..total);
        let keep_alive = keep_alive(version, &headers);
        ParseOutcome::Request(Box::new(HttpRequest {
            method,
            target,
            headers,
            body,
            keep_alive,
        }))
    }
}

fn find_subsequence(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Version {
    Http10,
    Http11,
}

type Head = (String, String, Version, Vec<(String, String)>);

fn parse_head(head: &[u8]) -> Result<Head, WireError> {
    // The head must be ASCII: printable characters plus tab, with CRLF line
    // separators. Reject anything else before string processing.
    if head
        .iter()
        .any(|&b| !(b == b'\r' || b == b'\n' || b == b'\t' || (0x20..0x7F).contains(&b)))
    {
        return Err(WireError::bad_request(
            "bad_head",
            "request head contains non-ASCII or control bytes",
        ));
    }
    let head = std::str::from_utf8(head).expect("checked ASCII above");
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let (method, target, version) = parse_request_line(request_line)?;
    let mut headers = Vec::new();
    for line in lines {
        headers.push(parse_header_line(line)?);
    }
    Ok((method, target, version, headers))
}

fn parse_request_line(line: &str) -> Result<(String, String, Version), WireError> {
    let mut parts = line.split(' ');
    let (method, target, version_text) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if parts.next().is_none() => (m, t, v),
        _ => {
            return Err(WireError::bad_request(
                "bad_request_line",
                format!("malformed request line {line:?}"),
            ))
        }
    };
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(WireError::bad_request(
            "bad_request_line",
            format!("invalid method {method:?}"),
        ));
    }
    if !target.starts_with('/') {
        return Err(WireError::bad_request(
            "bad_request_line",
            format!("request target {target:?} must start with '/'"),
        ));
    }
    let version = match version_text {
        "HTTP/1.1" => Version::Http11,
        "HTTP/1.0" => Version::Http10,
        other => {
            return Err(WireError::bad_request(
                "unsupported_version",
                format!("unsupported protocol version {other:?}"),
            ))
        }
    };
    Ok((method.to_string(), target.to_string(), version))
}

fn parse_header_line(line: &str) -> Result<(String, String), WireError> {
    let (name, value) = line.split_once(':').ok_or_else(|| {
        WireError::bad_request("bad_header", format!("header line {line:?} has no ':'"))
    })?;
    let is_token_char = |b: u8| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b);
    if name.is_empty() || !name.bytes().all(is_token_char) {
        return Err(WireError::bad_request(
            "bad_header",
            format!("invalid header name {name:?}"),
        ));
    }
    Ok((name.to_ascii_lowercase(), value.trim().to_string()))
}

fn content_length(headers: &[(String, String)]) -> Result<u64, WireError> {
    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return Err(WireError::bad_request(
            "unsupported_transfer_encoding",
            "Transfer-Encoding is not supported; send a Content-Length body",
        ));
    }
    let mut length: Option<u64> = None;
    for (name, value) in headers {
        if name != "content-length" {
            continue;
        }
        let parsed: u64 = value
            .parse()
            .ok()
            .filter(|_| !value.is_empty() && value.bytes().all(|b| b.is_ascii_digit()))
            .ok_or_else(|| {
                WireError::bad_request(
                    "bad_content_length",
                    format!("unparseable Content-Length {value:?}"),
                )
            })?;
        match length {
            Some(existing) if existing != parsed => {
                return Err(WireError::bad_request(
                    "bad_content_length",
                    "conflicting Content-Length headers",
                ))
            }
            _ => length = Some(parsed),
        }
    }
    Ok(length.unwrap_or(0))
}

fn keep_alive(version: Version, headers: &[(String, String)]) -> bool {
    let connection = headers
        .iter()
        .find(|(n, _)| n == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    let has_token = |token: &str| {
        connection
            .as_deref()
            .is_some_and(|v| v.split(',').any(|t| t.trim() == token))
    };
    match version {
        Version::Http11 => !has_token("close"),
        Version::Http10 => has_token("keep-alive"),
    }
}

pub(crate) struct Ctx {
    pub(crate) zoo: Arc<ModelZoo>,
    pub(crate) stats: HttpStats,
    pub(crate) config: HttpConfig,
    /// The driver serving this listener (`"epoll"` or `"pool"`).
    pub(crate) connection_model: &'static str,
    // Read by the driver and every connection: a busy keep-alive connection
    // closes at its next response so shutdown is never blocked behind a
    // client that keeps the wire warm.
    pub(crate) shutdown: AtomicBool,
    // Readiness only (`GET /readyz` answers 503): requests in flight still
    // complete, the listener stays up, `/healthz` keeps saying ok. Lets a
    // load balancer stop routing here before the hard shutdown starts.
    // The epoll loop additionally drops its accept interest, and every
    // connection releases its keep-alive client (`Connection: close` on the
    // next response, shortened idle deadline).
    pub(crate) draining: AtomicBool,
}

impl Ctx {
    /// Snapshot of the zoo's default tenant — what the single-model
    /// surfaces (bare `/predict`, top-level `/stats`, the connection-level
    /// telemetry recorder) resolve to.
    pub(crate) fn default_model(&self) -> Arc<TenantModel> {
        self.zoo.default_model()
    }

    /// True once either [`HttpServer::begin_drain`] or shutdown flipped:
    /// capacity is not coming back on this listener.
    pub(crate) fn draining_or_shutdown(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || self.shutdown.load(Ordering::SeqCst)
    }

    /// `Retry-After` seconds for a 503 shed against `model`'s queue.
    pub(crate) fn retry_after(&self, model: &PredictServer) -> u64 {
        retry_after_secs(model.queue_depth(), self.draining_or_shutdown())
    }
}

/// A running connection driver, as [`HttpServer`] controls it.
pub(crate) trait Driver: Send + Sync {
    /// Let the driver notice a drain or shutdown flag flipped just now.
    fn wake(&self);
    /// Join every driver thread; called once, after the shutdown flag is
    /// set.
    fn join(&mut self);
}

/// Starts a driver over a bound listener.
type StartDriver = fn(TcpListener, &Arc<Ctx>) -> io::Result<Box<dyn Driver>>;

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
use crate::poll as platform;

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
use crate::blocking as platform;

/// The HTTP listener in front of a [`ModelZoo`]; start it with
/// [`crate::ServerBuilder::try_start_http`] or
/// [`crate::ServerBuilder::try_start_http_from_checkpoint`].
pub struct HttpServer {
    pub(crate) ctx: Arc<Ctx>,
    local_addr: SocketAddr,
    driver: Box<dyn Driver>,
}

impl HttpServer {
    /// Bind `config.addr` and serve `zoo` under this build's connection
    /// driver: `POST /predict/<id>` routes per tenant, bare `POST /predict`
    /// serves the zoo's default id, and `POST /admin/reload/<id>` hot-swaps
    /// file-backed tenants without dropping traffic. Started through
    /// [`crate::ServerBuilder`], which has already checked `config`.
    pub(crate) fn launch(zoo: ModelZoo, config: HttpConfig) -> io::Result<Self> {
        Self::launch_on(zoo, config, platform::NAME, platform::start)
    }

    /// [`HttpServer::launch`] under the blocking driver, which Linux builds
    /// otherwise never run.
    #[cfg(test)]
    pub(crate) fn start_blocking(zoo: ModelZoo, config: HttpConfig) -> io::Result<Self> {
        Self::launch_on(zoo, config, crate::blocking::NAME, crate::blocking::start)
    }

    fn launch_on(
        zoo: ModelZoo,
        config: HttpConfig,
        connection_model: &'static str,
        start: StartDriver,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let ctx = Arc::new(Ctx {
            zoo: Arc::new(zoo),
            stats: HttpStats::default(),
            config,
            connection_model,
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
        });
        let driver = start(listener, &ctx)?;
        Ok(Self {
            ctx,
            local_addr,
            driver,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the default tenant's active model (e.g. to compare
    /// in-process answers against wire answers in tests). The handle derefs
    /// to its [`PredictServer`] and pins the version it snapshotted — a
    /// hot-swap racing this call never swaps the model out from under it.
    pub fn predict_server(&self) -> Arc<TenantModel> {
        self.ctx.zoo.default_model()
    }

    /// The zoo behind this listener (tenant lookup, programmatic reloads).
    pub fn zoo(&self) -> &Arc<ModelZoo> {
        &self.ctx.zoo
    }

    /// The connection driver serving this listener: `"epoll"` on Linux
    /// x86-64/aarch64, `"pool"` elsewhere.
    pub fn connection_model(&self) -> &'static str {
        self.ctx.connection_model
    }

    /// Stop accepting, join the driver's threads, then drain the wrapped
    /// [`PredictServer`] (its [`PredictServer::shutdown`] runs when the last
    /// reference drops here). Dropping the listener calls this too. Open
    /// keep-alive connections are released at their next request boundary
    /// (busy clients get `Connection: close`) or at once (idle clients), and
    /// a response stuck behind a client that stopped reading is cut at
    /// `request_timeout`, so the join is bounded whatever the clients do.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    /// Flip `GET /readyz` to `503`: in-flight and new requests on open
    /// connections still complete and `/healthz` still answers ok, but a
    /// load balancer polling readiness stops sending traffic here. Under
    /// the epoll driver the event loop additionally drops its **accept
    /// interest** — open connections run to completion while no new ones
    /// are admitted. Call it ahead of [`HttpServer::shutdown`] to drain
    /// cleanly.
    pub fn begin_drain(&self) {
        self.ctx.draining.store(true, Ordering::SeqCst);
        self.driver.wake();
    }

    fn shutdown_impl(&mut self) {
        self.ctx.draining.store(true, Ordering::SeqCst);
        if self.ctx.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.driver.join();
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown_impl();
        // After the driver threads are gone, `self.ctx` is (usually) the
        // last reference: dropping it drains and joins the PredictServer.
    }
}

pub(crate) const CONTENT_TYPE_JSON: &str = "application/json";
const CONTENT_TYPE_PROM: &str = "text/plain; version=0.0.4";

pub(crate) type Routed = (u16, String, &'static str, Vec<(&'static str, String)>);

/// How long a shed client should wait before retrying, in seconds — the
/// **one** function behind every `Retry-After` header this server emits
/// (accept shed, dispatch shed, predict-path 503s, failed reloads): 5 while
/// `draining` (drain or shutdown — capacity is not coming back here),
/// otherwise scaled with the shed queue's depth — an extra second per 64
/// queued requests, clamped to 1..=30.
pub(crate) fn retry_after_secs(queue_depth: usize, draining: bool) -> u64 {
    if draining {
        return 5;
    }
    (1 + queue_depth as u64 / 64).clamp(1, 30)
}

/// Serve one predict request against `tenant`'s active model. The snapshot
/// is taken once and pins the version for the whole request: a hot-swap
/// flipping this tenant mid-request never changes the model it runs on.
fn predict_route(request: &HttpRequest, ctx: &Ctx, tenant: &Tenant) -> Routed {
    ctx.stats.bump(HttpCounter::Predict);
    let model = tenant.model();
    match handle_predict(&request.body, ctx, &model) {
        Ok(body) => (200, body, CONTENT_TYPE_JSON, Vec::new()),
        Err(e) => {
            // Every 503 shed tells the client when to retry.
            let headers = if e.status == 503 {
                vec![("Retry-After", ctx.retry_after(&model).to_string())]
            } else {
                Vec::new()
            };
            (
                e.status,
                error_body(e.code, &e.message),
                CONTENT_TYPE_JSON,
                headers,
            )
        }
    }
}

fn unknown_model(id: &str) -> Routed {
    (
        404,
        error_body(
            "unknown_model",
            &format!("no model registered under id {id:?}"),
        ),
        CONTENT_TYPE_JSON,
        Vec::new(),
    )
}

fn method_not_allowed(allow: &'static str, hint: &str) -> Routed {
    (
        405,
        error_body("method_not_allowed", hint),
        CONTENT_TYPE_JSON,
        vec![("Allow", allow.to_string())],
    )
}

fn reload_route(id: &str, ctx: &Ctx) -> Routed {
    ctx.stats.bump(HttpCounter::Reload);
    match ctx.zoo.reload(id) {
        Ok(version) => (
            200,
            Json::Obj(vec![
                ("model".into(), Json::Str(id.to_string())),
                ("version".into(), Json::Num(version as f64)),
            ])
            .render(),
            CONTENT_TYPE_JSON,
            Vec::new(),
        ),
        Err(e) => {
            let (status, code) = match &e {
                ReloadError::UnknownModel(_) => (404, "unknown_model"),
                ReloadError::NotReloadable(_) => (400, "not_reloadable"),
                ReloadError::Failed(_) => (503, "reload_failed"),
            };
            // A failed reload is retryable (the checkpoint on disk may have
            // been mid-write): like every other 503 it carries Retry-After.
            let headers = if status == 503 {
                vec![(
                    "Retry-After",
                    ctx.retry_after(&ctx.default_model()).to_string(),
                )]
            } else {
                Vec::new()
            };
            (
                status,
                error_body(code, &e.to_string()),
                CONTENT_TYPE_JSON,
                headers,
            )
        }
    }
}

pub(crate) fn route(request: &HttpRequest, ctx: &Ctx) -> Routed {
    let method = request.method.as_str();
    let path = request.path();
    // Parameterised endpoints first; fixed paths fall through to the match.
    if let Some(id) = path.strip_prefix("/predict/") {
        return match method {
            "POST" => match ctx.zoo.tenant(id) {
                Some(tenant) => predict_route(request, ctx, tenant),
                None => unknown_model(id),
            },
            _ => method_not_allowed("POST", &format!("use POST /predict/{id}")),
        };
    }
    if let Some(id) = path.strip_prefix("/model/") {
        return match method {
            "GET" => match ctx.zoo.tenant(id) {
                Some(tenant) => {
                    ctx.stats.bump(HttpCounter::Model);
                    let descriptor = TenantSnapshot::capture(tenant, ctx).descriptor();
                    (200, descriptor.render(), CONTENT_TYPE_JSON, Vec::new())
                }
                None => unknown_model(id),
            },
            _ => method_not_allowed("GET", &format!("use GET /model/{id}")),
        };
    }
    if let Some(id) = path.strip_prefix("/admin/reload/") {
        return match method {
            "POST" => reload_route(id, ctx),
            _ => method_not_allowed("POST", &format!("use POST /admin/reload/{id}")),
        };
    }
    match (method, path) {
        ("POST", "/predict") => predict_route(request, ctx, ctx.zoo.default_tenant()),
        ("GET", "/model") => {
            ctx.stats.bump(HttpCounter::Model);
            let body = surface::model_listing(ctx).render();
            (200, body, CONTENT_TYPE_JSON, Vec::new())
        }
        (_, "/model") => method_not_allowed("GET", "use GET /model"),
        ("GET", "/healthz") => {
            ctx.stats.bump(HttpCounter::Healthz);
            (
                200,
                Json::Obj(vec![("status".into(), Json::Str("ok".into()))]).render(),
                CONTENT_TYPE_JSON,
                Vec::new(),
            )
        }
        ("GET", "/readyz") => {
            ctx.stats.bump(HttpCounter::Readyz);
            let (ready, body) = surface::readyz_json(ctx);
            let status = if ready { 200 } else { 503 };
            (status, body.render(), CONTENT_TYPE_JSON, Vec::new())
        }
        ("GET", "/stats") => {
            ctx.stats.bump(HttpCounter::Stats);
            let body = surface::stats_json(&Snapshot::capture(ctx)).render();
            (200, body, CONTENT_TYPE_JSON, Vec::new())
        }
        ("GET", "/metrics") => {
            ctx.stats.bump(HttpCounter::Metrics);
            let page = surface::metrics_text(&Snapshot::capture(ctx));
            (200, page, CONTENT_TYPE_PROM, Vec::new())
        }
        (_, "/predict") => method_not_allowed("POST", "use POST /predict"),
        (_, path @ ("/healthz" | "/readyz" | "/stats" | "/metrics")) => {
            method_not_allowed("GET", &format!("use GET {path}"))
        }
        (_, path) => (
            404,
            error_body("not_found", &format!("no such endpoint {path:?}")),
            CONTENT_TYPE_JSON,
            Vec::new(),
        ),
    }
}

fn handle_predict(body: &[u8], ctx: &Ctx, model: &TenantModel) -> Result<String, WireError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| WireError::bad_request("body_not_utf8", "request body is not valid UTF-8"))?;
    let doc = json::parse(text)
        .map_err(|e| WireError::bad_request("bad_json", format!("invalid JSON body: {e}")))?;
    if let Some(items) = doc.get("items") {
        // The batch envelope is as strict as single-request objects:
        // anything next to "items" is a client mistake, not a batch.
        if let Json::Obj(entries) = &doc {
            if let Some((key, _)) = entries.iter().find(|(k, _)| k != "items") {
                return Err(WireError::bad_request(
                    "bad_request",
                    format!("unknown batch field {key:?}"),
                ));
            }
        }
        let items = items
            .as_array()
            .ok_or_else(|| WireError::bad_request("bad_request", "\"items\" must be an array"))?;
        if items.is_empty() {
            return Err(WireError::bad_request(
                "bad_request",
                "\"items\" must not be empty",
            ));
        }
        let encoded = items
            .iter()
            .enumerate()
            .map(|(i, item)| encode_one(item, model, Some(i)))
            .collect::<Result<Vec<EncodedRequest>, WireError>>()?;
        let predictions = predict_all(encoded, ctx, model)?;
        Ok(Json::Obj(vec![
            ("count".into(), Json::Num(predictions.len() as f64)),
            (
                "predictions".into(),
                Json::Arr(predictions.iter().map(json::encode_prediction).collect()),
            ),
        ])
        .render())
    } else {
        let encoded = encode_one(&doc, model, None)?;
        let prediction = predict_all(vec![encoded], ctx, model)?.remove(0);
        Ok(json::encode_prediction(&prediction).render())
    }
}

fn encode_one(
    item: &Json,
    model: &TenantModel,
    index: Option<usize>,
) -> Result<EncodedRequest, WireError> {
    let at = |msg: String| match index {
        Some(i) => format!("item {i}: {msg}"),
        None => msg,
    };
    let request =
        json::decode_request(item).map_err(|msg| WireError::bad_request("bad_request", at(msg)))?;
    model
        .encoder()
        .encode(&request)
        .map_err(|e| WireError::bad_request(e.wire_code(), at(e.to_string())))
}

fn predict_all(
    encoded: Vec<EncodedRequest>,
    ctx: &Ctx,
    model: &TenantModel,
) -> Result<Vec<Prediction>, WireError> {
    ctx.stats
        .get(HttpCounter::ItemsPredicted)
        .fetch_add(encoded.len() as u64, Ordering::Relaxed);
    // The wire-level timeout doubles as the inference deadline budget: a
    // request that already waited out its budget in the micro-batch queue is
    // shed there instead of burning a forward pass on an answer nobody is
    // still reading.
    let deadline = Some(Instant::now() + ctx.config.request_timeout);
    // Submit everything before waiting: a multi-item body becomes one
    // coalesced batch on an idle server.
    let handles: Vec<_> = encoded
        .into_iter()
        .map(|e| model.submit_encoded_with_deadline(e, deadline))
        .collect();
    // A crashed prediction worker must degrade to a typed shed response,
    // not take the connection worker down with it.
    handles
        .into_iter()
        .map(|h| {
            h.wait().map_err(|e| match e {
                PredictError::WorkerCrashed => WireError {
                    status: 503,
                    code: "worker_crashed",
                    message: "prediction worker crashed mid-batch; retry".to_string(),
                },
                PredictError::DeadlineExceeded => WireError {
                    status: 503,
                    code: "deadline_exceeded",
                    message: "request deadline expired in the batch queue".to_string(),
                },
                PredictError::Invalid(e) => WireError::bad_request(e.wire_code(), e.to_string()),
            })
        })
        .collect()
}

pub(crate) fn error_body(code: &str, message: &str) -> String {
    Json::Obj(vec![
        ("error".into(), Json::Str(code.to_string())),
        ("message".into(), Json::Str(message.to_string())),
    ])
    .render()
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Render a complete response — head and body — to one byte buffer, the
/// only way a response reaches the wire.
pub(crate) fn response_bytes(
    status: u16,
    body: &str,
    content_type: &str,
    keep_alive: bool,
    extra_headers: &[(&'static str, String)],
) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status_reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

/// A minimal blocking HTTP/1.1 client with keep-alive, for tests, examples
/// and the benchmark. Not a general-purpose client: it assumes the
/// `Content-Length` framing this server always produces.
pub struct HttpClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// A response as read by [`HttpClient`].
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Headers in order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body, decoded as UTF-8.
    pub body: String,
}

impl ClientResponse {
    /// First header with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Parse the body as JSON.
    pub fn json(&self) -> Result<Json, json::JsonError> {
        json::parse(&self.body)
    }

    /// `Retry-After` seconds, if the server attached one to a shed response.
    pub fn retry_after(&self) -> Option<u64> {
        self.header("retry-after").and_then(|v| v.parse().ok())
    }
}

fn invalid_data(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

impl HttpClient {
    /// Open a keep-alive connection to the server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self {
            stream,
            buf: Vec::new(),
        })
    }

    /// Issue one request and read its response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<ClientResponse> {
        let body = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: dtdbd\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body.as_bytes())?;
        self.stream.flush()?;
        self.read_response()
    }

    /// `GET` a path.
    pub fn get(&mut self, path: &str) -> io::Result<ClientResponse> {
        self.request("GET", path, None)
    }

    /// `POST` a JSON body to a path.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<ClientResponse> {
        self.request("POST", path, Some(body))
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 8192];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-response",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_response(&mut self) -> io::Result<ClientResponse> {
        let head_len = loop {
            if let Some(i) = find_subsequence(&self.buf, HEAD_END) {
                break i;
            }
            self.fill()?;
        };
        let head = String::from_utf8(self.buf[..head_len].to_vec())
            .map_err(|_| invalid_data("non-UTF-8 response head"))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid_data("malformed status line"))?;
        let mut headers = Vec::new();
        for line in lines {
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| invalid_data("malformed response header"))?;
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
        let content_length: usize = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(|| invalid_data("response missing Content-Length"))?;
        let body_start = head_len + HEAD_END.len();
        while self.buf.len() < body_start + content_length {
            self.fill()?;
        }
        let body = String::from_utf8(self.buf[body_start..body_start + content_length].to_vec())
            .map_err(|_| invalid_data("non-UTF-8 response body"))?;
        self.buf.drain(..body_start + content_length);
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ServerBuilder;
    use crate::checkpoint::Checkpoint;
    use crate::zoo::DEFAULT_MODEL_ID;
    use dtdbd_data::{weibo21_spec, GeneratorConfig, MultiDomainDataset, NewsGenerator};
    use dtdbd_models::{ModelConfig, TextCnnModel};
    use dtdbd_tensor::rng::Prng;
    use dtdbd_tensor::ParamStore;
    use std::thread;

    fn parse_bytes(bytes: &[u8]) -> ParseOutcome {
        let mut parser = RequestParser::new(8 * 1024, 1024 * 1024);
        parser.feed(bytes);
        parser.poll()
    }

    fn assert_failed(bytes: &[u8], status: u16, code: &str) {
        match parse_bytes(bytes) {
            ParseOutcome::Failed(e) => {
                assert_eq!((e.status, e.code), (status, code), "{:?}", e.message)
            }
            other => panic!("expected Failed({status}), got {other:?}"),
        }
    }

    #[test]
    fn parses_a_complete_post_with_body() {
        let outcome =
            parse_bytes(b"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody");
        match outcome {
            ParseOutcome::Request(req) => {
                assert_eq!(req.method, "POST");
                assert_eq!(req.target, "/predict");
                assert_eq!(req.header("host"), Some("x"));
                assert_eq!(req.body, b"body");
                assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn requests_arrive_incrementally_byte_by_byte() {
        let wire = b"GET /healthz HTTP/1.1\r\nHost: a\r\n\r\n";
        let mut parser = RequestParser::new(1024, 1024);
        for (i, byte) in wire.iter().enumerate() {
            match parser.poll() {
                ParseOutcome::NeedMore => {}
                other => panic!("byte {i}: {other:?}"),
            }
            parser.feed(std::slice::from_ref(byte));
        }
        assert!(matches!(parser.poll(), ParseOutcome::Request(_)));
        assert_eq!(parser.buffered(), 0, "request consumed");
    }

    #[test]
    fn pipelined_requests_come_out_one_at_a_time() {
        let mut parser = RequestParser::new(1024, 1024);
        parser.feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        match parser.poll() {
            ParseOutcome::Request(r) => assert_eq!(r.target, "/a"),
            other => panic!("{other:?}"),
        }
        match parser.poll() {
            ParseOutcome::Request(r) => assert_eq!(r.target, "/b"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(parser.poll(), ParseOutcome::NeedMore));
    }

    #[test]
    fn malformed_heads_map_to_400() {
        assert_failed(b"NONSENSE\r\n\r\n", 400, "bad_request_line");
        assert_failed(b"GET /x EXTRA HTTP/1.1\r\n\r\n", 400, "bad_request_line");
        assert_failed(b"get /x HTTP/1.1\r\n\r\n", 400, "bad_request_line");
        assert_failed(b"GET x HTTP/1.1\r\n\r\n", 400, "bad_request_line");
        assert_failed(b"GET /x HTTP/2.0\r\n\r\n", 400, "unsupported_version");
        assert_failed(b"GET /x HTTP/1.1\r\nNoColon\r\n\r\n", 400, "bad_header");
        assert_failed(b"GET /x HTTP/1.1\r\nBad Name: v\r\n\r\n", 400, "bad_header");
        assert_failed(
            b"GET /x HTTP/1.1\r\nContent-Length: two\r\n\r\n",
            400,
            "bad_content_length",
        );
        assert_failed(
            b"GET /x HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n",
            400,
            "bad_content_length",
        );
        assert_failed(
            b"GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            400,
            "unsupported_transfer_encoding",
        );
        assert_failed(b"GET /\xFF HTTP/1.1\r\n\r\n", 400, "bad_head");
    }

    #[test]
    fn oversized_heads_and_bodies_map_to_431_and_413() {
        let mut parser = RequestParser::new(64, 1024);
        parser.feed(b"GET / HTTP/1.1\r\n");
        parser.feed(&[b'a'; 100]);
        match parser.poll() {
            ParseOutcome::Failed(e) => assert_eq!(e.status, 431),
            other => panic!("{other:?}"),
        }

        let mut parser = RequestParser::new(1024, 16);
        parser.feed(b"POST / HTTP/1.1\r\nContent-Length: 17\r\n\r\n");
        match parser.poll() {
            ParseOutcome::Failed(e) => assert_eq!(e.status, 413),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_content_length_near_u64_max_is_rejected_not_truncated() {
        // Default limits: the pre-cast u64 comparison fires long before any
        // usize arithmetic could truncate or wrap.
        assert_failed(
            b"POST / HTTP/1.1\r\nContent-Length: 18446744073709551615\r\n\r\n",
            413,
            "body_too_large",
        );
        // With the body budget wide open the limit check passes and the
        // checked add is the last line of defence against overflow.
        let mut parser = RequestParser::new(1024, usize::MAX);
        parser.feed(b"POST / HTTP/1.1\r\nContent-Length: 18446744073709551615\r\n\r\n");
        match parser.poll() {
            ParseOutcome::Failed(e) => {
                assert_eq!((e.status, e.code), (413, "body_too_large"), "{}", e.message)
            }
            other => panic!("expected Failed(413), got {other:?}"),
        }
    }

    #[test]
    fn head_complete_tracks_the_blank_line_without_consuming() {
        let mut parser = RequestParser::new(1024, 1024);
        parser.feed(b"POST / HTTP/1.1\r\nContent-Length: 4\r\n");
        assert!(!parser.head_complete());
        parser.feed(b"\r\n");
        assert!(parser.head_complete());
        parser.feed(b"body");
        assert!(matches!(parser.poll(), ParseOutcome::Request(_)));
        assert!(!parser.head_complete(), "head consumed with its request");
    }

    #[test]
    fn keep_alive_follows_version_defaults_and_connection_header() {
        let req = |bytes: &[u8]| match parse_bytes(bytes) {
            ParseOutcome::Request(r) => r.keep_alive,
            other => panic!("{other:?}"),
        };
        assert!(req(b"GET / HTTP/1.1\r\n\r\n"));
        assert!(!req(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
        assert!(!req(b"GET / HTTP/1.0\r\n\r\n"));
        assert!(req(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"));
        assert!(!req(b"GET / HTTP/1.1\r\nConnection: TE, close\r\n\r\n"));
    }

    // --- end-to-end over a real socket -----------------------------------

    fn dataset() -> MultiDomainDataset {
        NewsGenerator::new(weibo21_spec(), GeneratorConfig::tiny()).generate_scaled(8, 0.02)
    }

    fn start_http(ds: &MultiDomainDataset) -> HttpServer {
        start_http_as(ds, HttpConfig::default())
    }

    #[test]
    fn healthz_stats_and_predict_respond_over_tcp() {
        let ds = dataset();
        let server = start_http(&ds);
        let mut client = HttpClient::connect(server.local_addr()).unwrap();

        let health = client.get("/healthz").unwrap();
        assert_eq!(health.status, 200);
        assert_eq!(
            health.json().unwrap().get("status").and_then(Json::as_str),
            Some("ok")
        );

        let item = &ds.items()[0];
        let body = json::encode_request(&dtdbd_data::InferenceRequest::new(
            item.tokens.clone(),
            item.domain,
        ))
        .render();
        let predict = client.post("/predict", &body).unwrap();
        assert_eq!(predict.status, 200, "{}", predict.body);
        let prob = predict
            .json()
            .unwrap()
            .get("fake_prob")
            .and_then(Json::as_f64)
            .unwrap();
        assert!((0.0..=1.0).contains(&prob));

        let stats = client.get("/stats").unwrap();
        assert_eq!(stats.status, 200);
        let doc = stats.json().unwrap();
        assert_eq!(doc.get("requests_served").and_then(Json::as_u64), Some(1));
        let endpoints = doc.get("endpoints").unwrap();
        assert_eq!(endpoints.get("predict").and_then(Json::as_u64), Some(1));
        assert_eq!(endpoints.get("healthz").and_then(Json::as_u64), Some(1));
        // Cache tuning is visible on the wire.
        let cache = doc.get("cache").unwrap();
        assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(1));
        assert_eq!(cache.get("entries").and_then(Json::as_u64), Some(1));
        assert!(cache.get("capacity").and_then(Json::as_u64).unwrap() > 0);
        // The same item again is a cache hit, bit-identical on the wire.
        let again = client.post("/predict", &body).unwrap();
        assert_eq!(again.status, 200);
        let again_prob = again
            .json()
            .unwrap()
            .get("fake_prob")
            .and_then(Json::as_f64)
            .unwrap();
        assert_eq!(again_prob.to_bits(), prob.to_bits());
        let doc = client.get("/stats").unwrap().json().unwrap();
        let cache = doc.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(1));
        // Telemetry rides along: stage quantiles and drift scores.
        assert_eq!(doc.get("ready").and_then(Json::as_bool), Some(true));
        let inference = doc.get("stages").unwrap().get("inference").unwrap();
        assert_eq!(inference.get("count").and_then(Json::as_u64), Some(1));
        assert!(inference.get("p99_us").and_then(Json::as_f64).unwrap() > 0.0);
        let drift = doc.get("drift").unwrap().as_array().unwrap();
        assert!(!drift.is_empty());
        let observed: u64 = drift
            .iter()
            .map(|d| d.get("live_count").and_then(Json::as_u64).unwrap())
            .sum();
        assert_eq!(observed, 2, "both wire answers feed the drift tracker");
    }

    #[test]
    fn metrics_page_lints_and_reflects_traffic() {
        let ds = dataset();
        let server = start_http(&ds);
        let mut client = HttpClient::connect(server.local_addr()).unwrap();

        let item = &ds.items()[0];
        let body = json::encode_request(&dtdbd_data::InferenceRequest::new(
            item.tokens.clone(),
            item.domain,
        ))
        .render();
        assert_eq!(client.post("/predict", &body).unwrap().status, 200);

        let scrape = client.get("/metrics").unwrap();
        assert_eq!(scrape.status, 200);
        assert_eq!(
            scrape.header("content-type"),
            Some("text/plain; version=0.0.4")
        );
        crate::prom::lint(&scrape.body).unwrap_or_else(|e| panic!("{e}\n---\n{}", scrape.body));
        assert!(
            scrape
                .body
                .contains("dtdbd_http_requests_total{endpoint=\"predict\"} 1"),
            "{}",
            scrape.body
        );
        assert!(
            scrape.body.contains("dtdbd_requests_served_total 1"),
            "{}",
            scrape.body
        );
        // The stage histograms carry real samples once traffic flowed.
        assert!(
            scrape.body.contains("dtdbd_stage_latency_seconds_bucket"),
            "{}",
            scrape.body
        );
        assert!(
            scrape.body.contains("stage=\"inference\""),
            "{}",
            scrape.body
        );
        assert!(
            scrape.body.contains("dtdbd_domain_predictions_total"),
            "{}",
            scrape.body
        );
        // A second scrape observes the first: the metrics counter moved.
        let again = client.get("/metrics").unwrap();
        assert!(
            again
                .body
                .contains("dtdbd_http_requests_total{endpoint=\"metrics\"} 2"),
            "{}",
            again.body
        );

        let wrong_method = client.post("/metrics", "{}").unwrap();
        assert_eq!(wrong_method.status, 405);
        assert_eq!(wrong_method.header("allow"), Some("GET"));
    }

    #[test]
    fn model_discovery_and_per_model_routing_answer() {
        let ds = dataset();
        let server = start_http(&ds);
        let mut client = HttpClient::connect(server.local_addr()).unwrap();

        // The routing table: a single-model server is a one-tenant zoo
        // under the default id.
        let listing = client.get("/model").unwrap();
        assert_eq!(listing.status, 200, "{}", listing.body);
        let doc = listing.json().unwrap();
        assert_eq!(doc.get("default").and_then(Json::as_str), Some("default"));
        let models = doc.get("models").unwrap().as_array().unwrap();
        assert_eq!(models.len(), 1);
        let descriptor = &models[0];
        assert_eq!(
            descriptor.get("model").and_then(Json::as_str),
            Some("default")
        );
        assert_eq!(descriptor.get("version").and_then(Json::as_u64), Some(1));
        assert_eq!(
            descriptor.get("reloadable").and_then(Json::as_bool),
            Some(false)
        );
        assert!(!descriptor
            .get("arch")
            .and_then(Json::as_str)
            .unwrap()
            .is_empty());

        let one = client.get("/model/default").unwrap();
        assert_eq!(one.status, 200, "{}", one.body);
        assert_eq!(
            one.json().unwrap().get("model").and_then(Json::as_str),
            Some("default")
        );
        let missing = client.get("/model/nope").unwrap();
        assert_eq!(missing.status, 404);
        assert_eq!(
            missing.json().unwrap().get("error").and_then(Json::as_str),
            Some("unknown_model")
        );
        let wrong_method = client.post("/model", "{}").unwrap();
        assert_eq!(wrong_method.status, 405);
        assert_eq!(wrong_method.header("allow"), Some("GET"));

        // `POST /predict/<id>` answers bit-identically to the bare route.
        let item = &ds.items()[0];
        let body = json::encode_request(&dtdbd_data::InferenceRequest::new(
            item.tokens.clone(),
            item.domain,
        ))
        .render();
        let bare = client.post("/predict", &body).unwrap();
        assert_eq!(bare.status, 200, "{}", bare.body);
        let routed = client.post("/predict/default", &body).unwrap();
        assert_eq!(routed.status, 200, "{}", routed.body);
        let prob = |r: &ClientResponse| {
            r.json()
                .unwrap()
                .get("fake_prob")
                .and_then(Json::as_f64)
                .unwrap()
        };
        assert_eq!(prob(&bare).to_bits(), prob(&routed).to_bits());
        assert_eq!(client.post("/predict/nope", &body).unwrap().status, 404);

        // A resident (non-file) tenant cannot be hot-swapped: typed 400.
        let reload = client.post("/admin/reload/default", "").unwrap();
        assert_eq!(reload.status, 400, "{}", reload.body);
        assert_eq!(
            reload.json().unwrap().get("error").and_then(Json::as_str),
            Some("not_reloadable")
        );
        assert_eq!(client.post("/admin/reload/nope", "").unwrap().status, 404);

        // /stats carries the per-model object and counts the new endpoints.
        let stats = client.get("/stats").unwrap().json().unwrap();
        let per_model = stats.get("models").unwrap().get("default").unwrap();
        assert_eq!(per_model.get("version").and_then(Json::as_u64), Some(1));
        assert_eq!(per_model.get("reloads").and_then(Json::as_u64), Some(0));
        assert_eq!(
            per_model
                .get("requests_served_total")
                .and_then(Json::as_u64),
            Some(2)
        );
        let endpoints = stats.get("endpoints").unwrap();
        assert_eq!(endpoints.get("model").and_then(Json::as_u64), Some(2));
        assert_eq!(endpoints.get("reload").and_then(Json::as_u64), Some(2));

        // /metrics grows the model-labelled families and still lints.
        let scrape = client.get("/metrics").unwrap();
        crate::prom::lint(&scrape.body).unwrap_or_else(|e| panic!("{e}\n---\n{}", scrape.body));
        assert!(
            scrape
                .body
                .contains("dtdbd_model_version{model=\"default\"} 1"),
            "{}",
            scrape.body
        );
        assert!(
            scrape
                .body
                .contains("dtdbd_model_requests_served_total{model=\"default\"} 2"),
            "{}",
            scrape.body
        );
    }

    #[test]
    fn readyz_flips_to_503_when_draining_while_healthz_stays_ok() {
        let ds = dataset();
        // Blocking driver: the listener keeps accepting while draining (the
        // readiness flip is the only signal a load balancer needs), which
        // lets this test prove liveness on fresh connections. Under epoll
        // the drain additionally drops the accept interest.
        let server = start_blocking_as(&ds, HttpConfig::default());
        let mut client = HttpClient::connect(server.local_addr()).unwrap();

        let ready = client.get("/readyz").unwrap();
        assert_eq!(ready.status, 200, "{}", ready.body);
        let doc = ready.json().unwrap();
        assert_eq!(doc.get("ready").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("draining").and_then(Json::as_bool), Some(false));
        assert!(doc.get("workers_alive").and_then(Json::as_u64).unwrap() >= 1);

        server.begin_drain();
        let draining = client.get("/readyz").unwrap();
        assert_eq!(draining.status, 503);
        let doc = draining.json().unwrap();
        assert_eq!(doc.get("ready").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("draining").and_then(Json::as_bool), Some(true));
        // The response that announced the drain also released the
        // keep-alive client: capacity is not coming back here.
        assert_eq!(draining.header("connection"), Some("close"));
        // Liveness is untouched: fresh connections still answer and work
        // still runs to completion (one request per connection now).
        let mut probe = HttpClient::connect(server.local_addr()).unwrap();
        assert_eq!(probe.get("/healthz").unwrap().status, 200);
        let item = &ds.items()[0];
        let body = json::encode_request(&dtdbd_data::InferenceRequest::new(
            item.tokens.clone(),
            item.domain,
        ))
        .render();
        let mut probe = HttpClient::connect(server.local_addr()).unwrap();
        assert_eq!(probe.post("/predict", &body).unwrap().status, 200);
    }

    /// Starts a server under one driver: [`start_http_as`] (this build's)
    /// or [`start_blocking_as`].
    type Start = fn(&MultiDomainDataset, HttpConfig) -> HttpServer;

    fn drain_releases_idle_keep_alive_promptly(start: Start) {
        let ds = dataset();
        // A read_timeout far beyond what the test tolerates: the prompt cut
        // below can only come from the shortened drain deadline.
        let server = start(
            &ds,
            HttpConfig {
                read_timeout: Duration::from_secs(30),
                ..HttpConfig::default()
            },
        );
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut buf = [0u8; 2048];
        let n = stream.read(&mut buf).unwrap();
        assert!(
            String::from_utf8_lossy(&buf[..n]).starts_with("HTTP/1.1 200"),
            "first request answered"
        );
        // Idle now. The drain must cut this connection in ~one drain
        // deadline, not the 30 s read_timeout.
        server.begin_drain();
        let t0 = Instant::now();
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap(); // EOF, not a reset
        let cut_after = t0.elapsed();
        assert!(
            cut_after < Duration::from_secs(5),
            "idle connection survived {cut_after:?} into the drain"
        );
    }

    #[test]
    fn drain_releases_idle_keep_alive_promptly_under_epoll() {
        drain_releases_idle_keep_alive_promptly(start_http_as);
    }

    #[test]
    fn drain_releases_idle_keep_alive_promptly_under_pool() {
        drain_releases_idle_keep_alive_promptly(start_blocking_as);
    }

    /// A keep-alive response read before the drain began keeps its word:
    /// the next request on that connection is answered, with
    /// `Connection: close`, and only then does the connection end.
    fn a_keep_alive_read_before_the_drain_is_kept(start: Start) {
        let ds = dataset();
        let server = start(&ds, HttpConfig::default());
        let mut client = HttpClient::connect(server.local_addr()).unwrap();
        let before = client.get("/readyz").unwrap();
        assert_eq!(before.status, 200, "{}", before.body);
        assert_ne!(before.header("connection"), Some("close"));
        server.begin_drain();
        let after = client.get("/readyz").unwrap();
        assert_eq!(after.status, 503, "{}", after.body);
        assert_eq!(after.header("connection"), Some("close"));
        assert!(client.get("/healthz").is_err(), "the close was announced");
    }

    #[test]
    fn a_keep_alive_read_before_the_drain_is_kept_under_epoll() {
        a_keep_alive_read_before_the_drain_is_kept(start_http_as);
    }

    #[test]
    fn a_keep_alive_read_before_the_drain_is_kept_under_pool() {
        a_keep_alive_read_before_the_drain_is_kept(start_blocking_as);
    }

    #[test]
    fn batch_bodies_answer_in_request_order() {
        let ds = dataset();
        let server = start_http(&ds);
        let mut client = HttpClient::connect(server.local_addr()).unwrap();
        let items: Vec<Json> = ds.items()[..6]
            .iter()
            .map(|item| {
                json::encode_request(&dtdbd_data::InferenceRequest::new(
                    item.tokens.clone(),
                    item.domain,
                ))
            })
            .collect();
        let body = Json::Obj(vec![("items".into(), Json::Arr(items))]).render();
        let response = client.post("/predict", &body).unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        let doc = response.json().unwrap();
        assert_eq!(doc.get("count").and_then(Json::as_u64), Some(6));
        let predictions = doc.get("predictions").unwrap().as_array().unwrap();
        assert_eq!(predictions.len(), 6);

        // Same items, one at a time: per-item answers must not depend on
        // their neighbours in the batch body.
        for (i, expected) in predictions.iter().enumerate() {
            let item = &ds.items()[i];
            let single = client
                .post(
                    "/predict",
                    &json::encode_request(&dtdbd_data::InferenceRequest::new(
                        item.tokens.clone(),
                        item.domain,
                    ))
                    .render(),
                )
                .unwrap();
            assert_eq!(
                single.json().unwrap().get("fake_prob"),
                expected.get("fake_prob"),
                "item {i}"
            );
        }
    }

    #[test]
    fn wire_errors_have_the_documented_statuses() {
        let ds = dataset();
        let server = start_http(&ds);
        let mut client = HttpClient::connect(server.local_addr()).unwrap();

        let missing = client.get("/nope").unwrap();
        assert_eq!(missing.status, 404);

        let wrong_method = client.get("/predict").unwrap();
        assert_eq!(wrong_method.status, 405);
        assert_eq!(wrong_method.header("allow"), Some("POST"));

        let bad_json = client.post("/predict", "{not json").unwrap();
        assert_eq!(bad_json.status, 400);
        assert_eq!(
            bad_json.json().unwrap().get("error").and_then(Json::as_str),
            Some("bad_json")
        );

        // Data-layer validation failure surfaces its wire code.
        let out_of_vocab = client
            .post("/predict", r#"{"tokens": [4000000000], "domain": 0}"#)
            .unwrap();
        assert_eq!(out_of_vocab.status, 400);
        assert_eq!(
            out_of_vocab
                .json()
                .unwrap()
                .get("error")
                .and_then(Json::as_str),
            Some("token_out_of_range")
        );

        // An invalid item inside a batch names its index.
        let mixed = client
            .post(
                "/predict",
                r#"{"items": [{"tokens": [1], "domain": 0}, {"tokens": [], "domain": 0}]}"#,
            )
            .unwrap();
        assert_eq!(mixed.status, 400);
        let doc = mixed.json().unwrap();
        assert_eq!(
            doc.get("error").and_then(Json::as_str),
            Some("empty_tokens")
        );
        assert!(doc
            .get("message")
            .and_then(Json::as_str)
            .unwrap()
            .starts_with("item 1:"));

        // The connection survives 4xx responses (keep-alive) — prove it by
        // asking for health afterwards.
        assert_eq!(client.get("/healthz").unwrap().status, 200);
    }

    #[test]
    fn batch_envelopes_reject_unknown_sibling_fields() {
        let ds = dataset();
        let server = start_http(&ds);
        let mut client = HttpClient::connect(server.local_addr()).unwrap();
        let response = client
            .post(
                "/predict",
                r#"{"items": [{"tokens": [1], "domain": 0}], "optoins": 1}"#,
            )
            .unwrap();
        assert_eq!(response.status, 400, "{}", response.body);
        assert!(response.body.contains("optoins"), "{}", response.body);
    }

    #[test]
    fn shutdown_is_not_blocked_by_a_busy_keep_alive_client() {
        let ds = dataset();
        let server = start_http(&ds);
        let addr = server.local_addr();
        // A well-behaved client that hammers /healthz on one keep-alive
        // connection until the server closes it.
        let client = thread::spawn(move || {
            let mut client = HttpClient::connect(addr).expect("connect");
            for _ in 0..100_000 {
                if client.get("/healthz").is_err() {
                    return true; // server closed on us: expected
                }
            }
            false
        });
        thread::sleep(Duration::from_millis(50)); // let the loop get going
        let t0 = Instant::now();
        server.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "shutdown blocked behind a busy keep-alive client"
        );
        assert!(client.join().unwrap(), "client never saw the close");
    }

    /// The seed-7 tiny TextCNN-S student as a one-tenant zoo under the
    /// default id, with the builder's default batching and tuning.
    fn zoo(ds: &MultiDomainDataset) -> ModelZoo {
        let mut store = ParamStore::new();
        let model = TextCnnModel::student(&mut store, &ModelConfig::tiny(ds), &mut Prng::new(7));
        ServerBuilder::new()
            .tenant(DEFAULT_MODEL_ID, &Checkpoint::capture(&model, &store))
            .build_zoo()
            .expect("valid configuration")
    }

    /// A server under this build's driver.
    fn start_http_as(ds: &MultiDomainDataset, config: HttpConfig) -> HttpServer {
        HttpServer::launch(zoo(ds), config).expect("bind ephemeral port")
    }

    /// A server under the blocking driver, whatever the platform.
    fn start_blocking_as(ds: &MultiDomainDataset, config: HttpConfig) -> HttpServer {
        HttpServer::start_blocking(zoo(ds), config).expect("bind ephemeral port")
    }

    fn stats_u64(server: &HttpServer, field: &str) -> u64 {
        let mut probe = HttpClient::connect(server.local_addr()).unwrap();
        let doc = probe.get("/stats").unwrap().json().unwrap();
        doc.get("http")
            .unwrap()
            .get(field)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("missing http.{field}"))
    }

    fn slow_loris_is_cut_at_request_timeout(start: Start) {
        let ds = dataset();
        let server = start(
            &ds,
            HttpConfig {
                read_timeout: Duration::from_millis(500),
                request_timeout: Duration::from_millis(100),
                ..HttpConfig::default()
            },
        );
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // Drip a never-finishing head, each write well inside read_timeout
        // but the whole request far beyond request_timeout.
        let _ = stream.write_all(b"POST /predict HTTP/1.1\r\n");
        for _ in 0..10 {
            thread::sleep(Duration::from_millis(30));
            // Ignore write errors: the server closes once the deadline hits.
            let _ = stream.write_all(b"X-Pad: a\r\n");
        }
        let mut response = Vec::new();
        let _ = stream.read_to_end(&mut response);
        let text = String::from_utf8_lossy(&response);
        assert!(text.starts_with("HTTP/1.1 408"), "{text:?}");
        assert!(stats_u64(&server, "request_timeouts") >= 1);
    }

    #[test]
    fn slow_loris_requests_hit_the_overall_deadline_under_epoll() {
        // On platforms without the epoll backend this runs the blocking
        // driver — the deadline semantics are identical either way.
        slow_loris_is_cut_at_request_timeout(start_http_as);
    }

    #[test]
    fn slow_loris_requests_hit_the_overall_deadline_under_pool() {
        slow_loris_is_cut_at_request_timeout(start_blocking_as);
    }

    fn idle_keep_alive_is_cut_at_read_timeout(start: Start) {
        let ds = dataset();
        let server = start(
            &ds,
            HttpConfig {
                read_timeout: Duration::from_millis(150),
                request_timeout: Duration::from_secs(5),
                ..HttpConfig::default()
            },
        );
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut buf = [0u8; 2048];
        let n = stream.read(&mut buf).unwrap();
        assert!(
            String::from_utf8_lossy(&buf[..n]).starts_with("HTTP/1.1 200"),
            "first request answered"
        );
        // Go idle: the server must cut the connection at read_timeout —
        // promptly, but never before the deadline.
        let t0 = Instant::now();
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap(); // EOF, not a reset
        let cut_after = t0.elapsed();
        assert!(
            cut_after < Duration::from_secs(5),
            "idle connection survived {cut_after:?}"
        );
        assert!(
            cut_after >= Duration::from_millis(100),
            "cut {cut_after:?} in, before the idle deadline"
        );
        assert!(stats_u64(&server, "idle_timeouts") >= 1);
    }

    #[test]
    fn idle_keep_alive_connections_are_cut_under_epoll() {
        idle_keep_alive_is_cut_at_read_timeout(start_http_as);
    }

    #[test]
    fn idle_keep_alive_connections_are_cut_under_pool() {
        idle_keep_alive_is_cut_at_read_timeout(start_blocking_as);
    }

    fn stalled_reader_is_cut_at_request_timeout(start: Start) {
        let ds = dataset();
        let server = start(
            &ds,
            HttpConfig {
                request_timeout: Duration::from_millis(500),
                ..HttpConfig::default()
            },
        );
        let addr = server.local_addr();
        let item = json::encode_request(&dtdbd_data::InferenceRequest::new(vec![1], 0));
        // Warm the cache so every item of the batches below is a hit.
        let mut client = HttpClient::connect(addr).unwrap();
        let warm = client.post("/predict", &item.render()).unwrap();
        assert_eq!(warm.status, 200, "{}", warm.body);
        drop(client);
        // ~0.1 MB of request for ~0.4 MB of response, pipelined 48 times:
        // far more response than the socket buffers hold, none of it read.
        let batch = Json::Obj(vec![("items".into(), Json::Arr(vec![item; 4096]))]).render();
        let request = format!(
            "POST /predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n{batch}",
            batch.len()
        );
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let sender = thread::spawn(move || {
            for _ in 0..48 {
                if writer.write_all(request.as_bytes()).is_err() {
                    return; // the server cut the connection
                }
            }
        });
        // The server answers until its writes stall, then cuts the
        // connection one request_timeout later; only the probe stays open.
        let t0 = Instant::now();
        while stats_u64(&server, "open_connections") > 1 {
            assert!(
                t0.elapsed() < Duration::from_secs(20),
                "a client that stopped reading still holds its connection"
            );
            thread::sleep(Duration::from_millis(50));
        }
        sender.join().unwrap();
        let t0 = Instant::now();
        server.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "shutdown blocked behind a stalled reader"
        );
        drop(stream);
    }

    #[test]
    fn a_stalled_reader_is_cut_at_request_timeout_under_epoll() {
        stalled_reader_is_cut_at_request_timeout(start_http_as);
    }

    #[test]
    fn a_stalled_reader_is_cut_at_request_timeout_under_pool() {
        stalled_reader_is_cut_at_request_timeout(start_blocking_as);
    }

    #[test]
    fn concurrent_clients_match_in_process_predictions_under_pool() {
        // The blocking driver's bit-parity battery: many keep-alive clients
        // at once, every wire answer equal to the in-process one.
        let ds = dataset();
        let server = start_blocking_as(
            &ds,
            HttpConfig {
                connection_workers: 16,
                backlog: 16,
                ..HttpConfig::default()
            },
        );
        let addr = server.local_addr();
        let items: Arc<Vec<(Vec<u32>, usize)>> = Arc::new(
            ds.items()
                .iter()
                .map(|item| (item.tokens.clone(), item.domain))
                .collect(),
        );
        let (n_clients, per_client) = (16, 8);
        let clients: Vec<_> = (0..n_clients)
            .map(|c| {
                let items = Arc::clone(&items);
                thread::spawn(move || {
                    let mut client = HttpClient::connect(addr).expect("connect");
                    (0..per_client)
                        .map(|i| {
                            let idx = (c * per_client + i * 17) % items.len();
                            let (tokens, domain) = items[idx].clone();
                            let body = json::encode_request(&dtdbd_data::InferenceRequest::new(
                                tokens, domain,
                            ))
                            .render();
                            let response = client.post("/predict", &body).expect("request");
                            assert_eq!(response.status, 200, "{}", response.body);
                            let prediction = json::decode_prediction(&response.json().unwrap())
                                .expect("prediction object");
                            (idx, prediction)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut answers = 0;
        for client in clients {
            for (idx, wire) in client.join().expect("client thread") {
                let (tokens, domain) = items[idx].clone();
                let local = server
                    .predict_server()
                    .predict(&dtdbd_data::InferenceRequest::new(tokens, domain))
                    .unwrap();
                assert_eq!(
                    wire.fake_prob.to_bits(),
                    local.fake_prob.to_bits(),
                    "item {idx}"
                );
                assert_eq!(wire.logits[0].to_bits(), local.logits[0].to_bits());
                assert_eq!(wire.logits[1].to_bits(), local.logits[1].to_bits());
                answers += 1;
            }
        }
        assert_eq!(answers, n_clients * per_client);
        assert_eq!(server.connection_model(), "pool");
    }

    #[test]
    fn epoll_holds_many_idle_connections_above_its_dispatcher_count() {
        let ds = dataset();
        // 2 dispatchers, 50 concurrent keep-alive connections: under the
        // blocking driver this count would exhaust the handler threads.
        let server = start_http_as(
            &ds,
            HttpConfig {
                connection_workers: 2,
                read_timeout: Duration::from_secs(30),
                ..HttpConfig::default()
            },
        );
        if server.connection_model() != "epoll" {
            return; // no epoll backend on this platform
        }
        let mut clients: Vec<HttpClient> = (0..50)
            .map(|_| HttpClient::connect(server.local_addr()).unwrap())
            .collect();
        for client in &mut clients {
            assert_eq!(client.get("/healthz").unwrap().status, 200);
        }
        let doc = clients[0].get("/stats").unwrap().json().unwrap();
        let http = doc.get("http").unwrap();
        assert_eq!(
            http.get("connection_model").and_then(Json::as_str),
            Some("epoll")
        );
        let open = http.get("open_connections").and_then(Json::as_u64).unwrap();
        assert!(open >= 50, "only {open} connections open");
        let armed = http.get("deadlines_armed").and_then(Json::as_u64).unwrap();
        assert!(armed >= 1, "idle deadlines should be queued");
        // Every connection is still serviced on a second round.
        for client in &mut clients {
            assert_eq!(client.get("/healthz").unwrap().status, 200);
        }
    }

    #[test]
    fn keep_alive_traffic_keeps_about_one_queued_deadline_per_connection() {
        let ds = dataset();
        let server = start_http(&ds);
        if server.connection_model() != "epoll" {
            return; // no epoll backend on this platform
        }
        let mut client = HttpClient::connect(server.local_addr()).unwrap();
        for _ in 0..200 {
            assert_eq!(client.get("/healthz").unwrap().status, 200);
        }
        let doc = client.get("/stats").unwrap().json().unwrap();
        let http = doc.get("http").unwrap();
        let field = |name: &str| http.get(name).and_then(Json::as_u64).unwrap();
        let (armed, open) = (field("deadlines_armed"), field("open_connections"));
        assert!(open >= 1);
        assert!(
            armed <= 2 * open,
            "{armed} deadlines queued for {open} open connections after 200 requests"
        );
    }

    #[test]
    fn dropping_the_listener_closes_the_port_and_drains() {
        let ds = dataset();
        let server = start_http(&ds);
        let addr = server.local_addr();
        assert_eq!(
            HttpClient::connect(addr)
                .unwrap()
                .get("/healthz")
                .unwrap()
                .status,
            200
        );
        drop(server);
        // The port no longer accepts (either refused, or accepted by a
        // dead listener that immediately closes — both mean no response).
        let refused = match HttpClient::connect(addr) {
            Err(_) => true,
            Ok(mut client) => client.get("/healthz").is_err(),
        };
        assert!(refused, "listener still answering after drop");
    }

    /// `[http_parse, response_write]` counts from `/stats` plus the http
    /// recorder's `http_parse` count from `/metrics` (0 when the series is
    /// absent, as an empty histogram is left off the page).
    fn wire_stage_counts(client: &mut HttpClient) -> [u64; 3] {
        let stats = client.get("/stats").unwrap().json().unwrap();
        let count = |stage: &str| {
            stats
                .get("stages")
                .and_then(|s| s.get(stage))
                .and_then(|s| s.get("count"))
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("no stages.{stage}.count"))
        };
        let page = client.get("/metrics").unwrap().body;
        let series = page
            .lines()
            .filter(|l| l.starts_with("dtdbd_stage_latency_seconds_count{"))
            .find(|l| l.contains("recorder=\"http\",stage=\"http_parse\"}"));
        let metric = series.map_or(0, |l| l.rsplit(' ').next().unwrap().parse().unwrap());
        [count("http_parse"), count("response_write"), metric]
    }

    #[test]
    fn wire_stages_follow_a_hot_swap_of_the_default_tenant_under_pool() {
        let ds = dataset();
        let mut store = ParamStore::new();
        let model = TextCnnModel::student(&mut store, &ModelConfig::tiny(&ds), &mut Prng::new(7));
        let path =
            std::env::temp_dir().join(format!("dtdbd-http-wire-swap-{}.dtdbd", std::process::id()));
        Checkpoint::capture(&model, &store).save(&path).unwrap();
        let zoo = ServerBuilder::new()
            .tenant_from_path(DEFAULT_MODEL_ID, &path)
            .build_zoo()
            .expect("valid configuration");
        let server = HttpServer::start_blocking(zoo, HttpConfig::default()).expect("bind");
        // One keep-alive connection across the swap: a recorder captured
        // when it opened would keep feeding the retired version.
        let mut client = HttpClient::connect(server.local_addr()).unwrap();
        let n = 5u64;
        let predict = |client: &mut HttpClient| {
            for item in ds.items().iter().take(n as usize) {
                let request = dtdbd_data::InferenceRequest::new(item.tokens.clone(), item.domain);
                let body = json::encode_request(&request).render();
                assert_eq!(client.post("/predict", &body).unwrap().status, 200);
            }
        };
        predict(&mut client);
        let before = wire_stage_counts(&mut client);
        assert!(before.iter().all(|&c| c >= n), "{before:?}");
        let reload = client.post("/admin/reload/default", "").unwrap();
        assert_eq!(reload.status, 200, "{}", reload.body);
        let swapped = wire_stage_counts(&mut client);
        predict(&mut client);
        let after = wire_stage_counts(&mut client);
        for (i, name) in [
            "/stats http_parse",
            "/stats response_write",
            "/metrics http_parse",
        ]
        .iter()
        .enumerate()
        {
            assert!(
                after[i] >= swapped[i] + n,
                "{name}: {} after the swap, {} after {n} more predicts",
                swapped[i],
                after[i]
            );
        }
        drop(server);
        std::fs::remove_file(&path).ok();
    }
}
