//! Dynamic micro-batching server core.
//!
//! Serving traffic arrives one item at a time, but the engine is far more
//! efficient per item on a batch. [`PredictServer`] bridges the two: clients
//! [`PredictServer::submit`] single requests into a queue, and a pool of
//! worker threads coalesces them into batches — a worker that picks up a
//! lone request lingers up to [`BatchingConfig::max_wait`] for companions,
//! caps the batch at [`BatchingConfig::max_batch_size`], runs one tape-free
//! forward pass, and fans the per-item [`Prediction`]s back out to the
//! waiting clients.
//!
//! Every worker is a full replica: it owns a private [`InferenceSession`]
//! with its own copy of the model, and all workers pull from one shared
//! queue.
//!
//! In front of the queue sits a bounded **prediction cache**
//! ([`crate::cache::PredictionCache`], behind one mutex): a request whose
//! canonical content was answered before resolves immediately —
//! bit-identical to a fresh forward pass, because the engine is
//! deterministic — without touching the queue or a worker.
//!
//! Shutdown is graceful: [`PredictServer::shutdown`] (also invoked by drop)
//! stops intake, lets the workers drain every queued request, and joins them.
//!
//! **Supervision** makes the pool self-healing: each worker thread is a
//! supervisor shell around the batch loop. A panic mid-batch fails only the
//! in-flight batch's requests — their handles resolve to a typed
//! [`PredictError::WorkerCrashed`], never a client-side panic — and the
//! shell respawns the worker with capped exponential backoff: a fresh
//! [`InferenceSession`] restored from the retained checkpoint, with its
//! kernel-timer sink re-wired. While a worker is down
//! `workers_alive` drops below `workers` (so `/readyz` reports 503); once
//! the respawn lands the probe flips back to 200. Requests can also carry a **deadline**
//! ([`PredictServer::submit_encoded_with_deadline`]): a worker drops
//! expired requests with [`PredictError::DeadlineExceeded`] before wasting
//! a forward pass on them.

use crate::builder::{session_from_checkpoint, BoxedModel, ConfigError, StartError};
use crate::cache::{CacheKey, CacheStats, PredictionCache};
use crate::checkpoint::Checkpoint;
use crate::fault::{FaultPlan, WorkerFaults};
use crate::session::{InferenceSession, Prediction};
use crate::telemetry::{Stage, Telemetry};
use dtdbd_data::{EncodedRequest, InferenceRequest, RequestEncoder, RequestError};
use dtdbd_tensor::KernelTimers;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Prediction-cache bound of a [`crate::ServerBuilder`] left at its
/// defaults; `ServerBuilder::cache_capacity` overrides it (0 disables the
/// cache).
pub(crate) const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// First respawn delay after a worker panic (a `FaultPlan` backoff override
/// replaces it). Doubles per consecutive crash up to [`MAX_RESPAWN_BACKOFF`].
const DEFAULT_RESPAWN_BACKOFF: Duration = Duration::from_millis(20);

/// Ceiling of the exponential respawn backoff.
const MAX_RESPAWN_BACKOFF: Duration = Duration::from_secs(1);

/// A worker that survived this long since its last respawn earns a fresh
/// backoff: steady crash-loops keep the long delay, one-off panics don't.
const BACKOFF_RESET_AFTER: Duration = Duration::from_secs(5);

/// Queue-coalescing knobs.
#[derive(Debug, Clone)]
pub struct BatchingConfig {
    /// Largest batch a worker will assemble.
    pub max_batch_size: usize,
    /// How long a worker holding a non-full batch waits for more requests.
    pub max_wait: Duration,
    /// Number of worker threads. Each runs its own inference session
    /// (scratch buffers and model), and all of them read one shared copy of
    /// the checkpoint's weights.
    pub workers: usize,
}

impl Default for BatchingConfig {
    fn default() -> Self {
        Self {
            max_batch_size: 32,
            max_wait: Duration::from_millis(2),
            workers: 2,
        }
    }
}

/// The tuning [`crate::ServerBuilder`] hands to
/// [`PredictServer::from_checkpoint`] on top of the [`BatchingConfig`].
#[derive(Debug, Clone)]
pub(crate) struct ServerTuning {
    /// Prediction-cache bound in entries (0 disables the cache).
    pub cache_capacity: usize,
    /// Deterministic fault-injection plan ([`crate::fault`]); `None` (the
    /// default) compiles to no hooks at all on the hot path.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for ServerTuning {
    fn default() -> Self {
        Self {
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            fault_plan: None,
        }
    }
}

/// Why a submitted request could not be answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredictError {
    /// The request failed validation before reaching a queue.
    Invalid(RequestError),
    /// The worker serving this request panicked mid-batch. The supervisor
    /// respawns the worker in the background; a retry will be served by the
    /// fresh session.
    WorkerCrashed,
    /// The request's deadline expired before a worker ran it; it was shed
    /// without an inference pass.
    DeadlineExceeded,
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Invalid(e) => write!(f, "invalid request: {e}"),
            Self::WorkerCrashed => {
                write!(f, "prediction worker crashed mid-batch (respawning); retry")
            }
            Self::DeadlineExceeded => write!(f, "request deadline expired before inference"),
        }
    }
}

impl std::error::Error for PredictError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

struct Job {
    request: EncodedRequest,
    /// Cache key of the request, carried so the worker can populate the
    /// cache after predicting. `None` when the cache is disabled.
    key: Option<CacheKey>,
    reply: Reply,
    /// When the request entered the queue.
    enqueued_at: Instant,
    /// Drop-dead time: a worker sheds the request with
    /// [`PredictError::DeadlineExceeded`] instead of running inference past
    /// this instant. `None` = wait forever (the in-process default).
    deadline: Option<Instant>,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// Lock-free per-worker counters, written by the worker after every batch
/// and snapshotted on demand by [`PredictServer::stats`].
///
/// The fields are published together under a seqlock (`seq` is odd while
/// the owning worker is mid-update): a reader retries until it observes a
/// stable even sequence, so a snapshot can never mix the request count of
/// one batch with the batch count of another. The writer stays wait-free —
/// two extra relaxed-cost atomic stores per batch, no locks on the hot
/// path.
#[derive(Debug, Default)]
struct WorkerCounters {
    /// Seqlock generation: odd = update in progress.
    seq: AtomicU64,
    requests: AtomicU64,
    batches: AtomicU64,
    pool_reuse_hits: AtomicU64,
    pool_alloc_misses: AtomicU64,
}

/// A coherent copy of one worker's counters.
#[derive(Debug, Clone, Copy, Default)]
struct CounterSnapshot {
    requests: u64,
    batches: u64,
    pool_reuse_hits: u64,
    pool_alloc_misses: u64,
}

impl WorkerCounters {
    /// Publish one finished batch. Only the owning worker calls this, so
    /// plain stores on `seq` are enough on the writer side.
    fn publish(&self, batch_requests: u64, pool_reuse_hits: u64, pool_alloc_misses: u64) {
        let seq = self.seq.load(Ordering::Relaxed);
        self.seq.store(seq.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        self.requests.fetch_add(batch_requests, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        // Pool stats are cumulative per session: publish absolute values.
        self.pool_reuse_hits
            .store(pool_reuse_hits, Ordering::Relaxed);
        self.pool_alloc_misses
            .store(pool_alloc_misses, Ordering::Relaxed);
        fence(Ordering::Release);
        self.seq.store(seq.wrapping_add(2), Ordering::Relaxed);
    }

    /// Retry-loop read of a coherent snapshot.
    fn snapshot(&self) -> CounterSnapshot {
        loop {
            let before = self.seq.load(Ordering::Acquire);
            if before % 2 == 1 {
                std::hint::spin_loop();
                continue;
            }
            fence(Ordering::Acquire);
            let snap = CounterSnapshot {
                requests: self.requests.load(Ordering::Relaxed),
                batches: self.batches.load(Ordering::Relaxed),
                pool_reuse_hits: self.pool_reuse_hits.load(Ordering::Relaxed),
                pool_alloc_misses: self.pool_alloc_misses.load(Ordering::Relaxed),
            };
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Acquire) == before {
                return snap;
            }
            std::hint::spin_loop();
        }
    }
}

struct Shared {
    /// The one micro-batch queue every worker pulls from.
    queue: Mutex<QueueState>,
    /// Signalled when a job is queued or shutdown begins.
    available: Condvar,
    counters: Vec<WorkerCounters>,
    /// Content-hash → prediction cache in front of the queue; `None` when
    /// disabled.
    cache: Option<Mutex<PredictionCache>>,
    /// The telemetry registry.
    telemetry: Arc<Telemetry>,
    /// Per-worker liveness, maintained by the supervisor shells: false
    /// while a worker is crashed/backing-off/rebuilding. The readiness
    /// probe compares the count of trues against `workers`.
    alive: Vec<AtomicBool>,
    /// Worker batch-loop panics caught by the supervisor shells.
    worker_panics: AtomicU64,
    /// Successful worker respawns (a fresh session took over the slot).
    worker_restarts: AtomicU64,
    /// Requests shed because their deadline expired before inference.
    deadline_dropped: AtomicU64,
}

/// A point-in-time snapshot of the serving core's load and memory behaviour,
/// aggregated over every worker (what `GET /stats` reports).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServingStats {
    /// Requests queued but not yet picked up by a worker.
    pub queue_depth: usize,
    /// Items answered so far: worker forward passes plus cache hits.
    pub requests_served: u64,
    /// Forward passes run so far (each serves one coalesced batch).
    pub batches: u64,
    /// Scratch buffers recycled from the per-worker [`dtdbd_tensor::BufferPool`]s.
    pub pool_reuse_hits: u64,
    /// Scratch buffers freshly allocated (stops growing once pools are warm).
    pub pool_alloc_misses: u64,
    /// Number of worker threads.
    pub workers: usize,
    /// Prediction-cache counters (all zeros when the cache is disabled).
    pub cache: CacheStats,
    /// Bytes of parameters each worker's session reads, the embedding table
    /// included. A server's workers share one copy of these weights, so
    /// the server holds them once, not once per worker.
    pub resident_param_bytes_per_worker: u64,
    /// Worker batch-loop panics caught by the supervisor shells.
    pub worker_panics: u64,
    /// Successful worker respawns after a panic.
    pub worker_restarts: u64,
    /// Requests shed with [`PredictError::DeadlineExceeded`] before
    /// inference because their deadline budget expired in the queue.
    pub requests_deadline_dropped: u64,
}

/// What a request's reply slot holds.
enum SlotState {
    /// Not answered yet, and no thread is blocked on it.
    Empty,
    /// Not answered yet, and the handle's `wait` is blocked on `ready`.
    Waiting,
    /// The answer, moved out by `wait`.
    Filled(Result<Prediction, PredictError>),
}

/// The one-shot reply of one request, shared by its [`PredictionHandle`]
/// and (for a queued request) the [`Reply`] its job carries: a single
/// allocation of well under 128 bytes.
struct ReplySlot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

impl ReplySlot {
    fn new(state: SlotState) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(state),
            ready: Condvar::new(),
        })
    }

    /// Lock the state. Every update under the lock is one whole-value
    /// replace, so a poisoned lock still guards a valid state, and neither
    /// end (the reply's drop included) ever panics on it.
    fn lock(&self) -> MutexGuard<'_, SlotState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The worker's end of a reply slot. It fills the slot exactly once: with
/// [`Reply::send`], or, if the job is dropped unanswered (a worker died
/// outside the batch's catch scope, or the server went away with the job
/// queued), with [`PredictError::WorkerCrashed`] on drop.
struct Reply(Option<Arc<ReplySlot>>);

impl Reply {
    fn send(mut self, outcome: Result<Prediction, PredictError>) {
        if let Some(slot) = self.0.take() {
            Self::fill(&slot, outcome);
        }
    }

    fn fill(slot: &Arc<ReplySlot>, outcome: Result<Prediction, PredictError>) {
        // The handle is gone (it holds the only other reference, and no
        // new one can be made): nobody will read the answer.
        if Arc::strong_count(slot) == 1 {
            return;
        }
        let previous = std::mem::replace(&mut *slot.lock(), SlotState::Filled(outcome));
        // Wake only a thread that is blocked: filling a slot nobody waits
        // on yet makes no syscall.
        if matches!(previous, SlotState::Waiting) {
            slot.ready.notify_one();
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if let Some(slot) = self.0.take() {
            Self::fill(&slot, Err(PredictError::WorkerCrashed));
        }
    }
}

/// An in-flight prediction; resolve it with [`PredictionHandle::wait`].
///
/// It holds the request's one-shot reply slot, which a worker fills once.
/// A cache hit's handle comes back already filled.
pub struct PredictionHandle {
    slot: Arc<ReplySlot>,
}

impl PredictionHandle {
    /// A queued request's handle and the reply its job carries.
    fn pending() -> (Self, Reply) {
        let slot = ReplySlot::new(SlotState::Empty);
        let reply = Reply(Some(Arc::clone(&slot)));
        (Self { slot }, reply)
    }

    /// A handle that is already answered.
    fn ready(outcome: Result<Prediction, PredictError>) -> Self {
        Self {
            slot: ReplySlot::new(SlotState::Filled(outcome)),
        }
    }

    /// Block until the prediction resolves. A worker crash while this
    /// request was in flight degrades to a typed
    /// [`PredictError::WorkerCrashed`] — never a panic — and an expired
    /// deadline to [`PredictError::DeadlineExceeded`]. A reply dropped
    /// unanswered (the worker or the whole server went down while holding
    /// the request) resolves to `WorkerCrashed` too.
    pub fn wait(self) -> Result<Prediction, PredictError> {
        let mut state = self.slot.lock();
        loop {
            match std::mem::replace(&mut *state, SlotState::Waiting) {
                SlotState::Filled(outcome) => return outcome,
                // Empty, or a spurious wake-up: (still) blocked.
                _ => {
                    state = self
                        .slot
                        .ready
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner)
                }
            }
        }
    }
}

/// A multi-threaded, micro-batching prediction server.
pub struct PredictServer {
    shared: Arc<Shared>,
    encoder: RequestEncoder,
    arch: String,
    resident_param_bytes_per_worker: u64,
    workers: Vec<JoinHandle<()>>,
}

impl PredictServer {
    /// Start `config.workers` worker threads serving `checkpoint`. This is
    /// what [`crate::ServerBuilder`] and the zoo call; misconfiguration and
    /// a bad checkpoint come back as a typed [`StartError`] before any
    /// worker thread spawns.
    ///
    /// The checkpoint is restored once per worker, and the first restore is
    /// also the up-front validity check. Every session serves from the
    /// checkpoint's shared [`Checkpoint::params`], so the weights are held
    /// once. Its `telemetry.baseline` chunk, if any, is the drift tracker's
    /// baseline. The server keeps a clone of the checkpoint (sharing those
    /// weights): supervisors restore crashed workers from it.
    pub(crate) fn from_checkpoint(
        checkpoint: &Checkpoint,
        config: BatchingConfig,
        tuning: ServerTuning,
    ) -> Result<Self, StartError> {
        if config.workers == 0 {
            return Err(ConfigError::ZeroWorkers.into());
        }
        if config.max_batch_size == 0 {
            return Err(ConfigError::ZeroMaxBatchSize.into());
        }
        let session0 = session_from_checkpoint(checkpoint)?;
        let drift_baseline = checkpoint.telemetry_baseline()?;
        let encoder = session0.encoder().clone();
        let name = session0.model().name();

        if let Some(baseline) = drift_baseline.as_ref() {
            if baseline.n_domains() != encoder.n_domains() {
                return Err(ConfigError::DriftBaselineGeometry {
                    baseline_domains: baseline.n_domains(),
                    n_domains: encoder.n_domains(),
                }
                .into());
            }
        }
        let telemetry = Arc::new(Telemetry::new(
            name,
            config.workers,
            encoder.n_domains(),
            drift_baseline,
        ));
        // Everything a supervisor shell needs to rebuild a crashed worker,
        // and the wiring every worker's session gets, the first ones too.
        let respawn = Arc::new(Respawn {
            checkpoint: checkpoint.clone(),
            kernel_timers: Arc::clone(&telemetry) as Arc<dyn KernelTimers>,
            initial_backoff: tuning
                .fault_plan
                .as_ref()
                .and_then(FaultPlan::backoff_override)
                .unwrap_or(DEFAULT_RESPAWN_BACKOFF),
        });
        let mut sessions = Vec::with_capacity(config.workers);
        sessions.push(respawn.wire(session0));
        for _ in 1..config.workers {
            sessions.push(respawn.restore()?);
        }
        let resident_param_bytes_per_worker = sessions
            .iter()
            .map(InferenceSession::resident_param_bytes)
            .sum::<u64>()
            / sessions.len() as u64;

        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState::default()),
            available: Condvar::new(),
            counters: (0..config.workers)
                .map(|_| WorkerCounters::default())
                .collect(),
            cache: (tuning.cache_capacity > 0)
                .then(|| Mutex::new(PredictionCache::new(tuning.cache_capacity))),
            telemetry,
            // Workers count as alive from the moment the server exists, so
            // a readiness probe racing the thread spawns never sees a
            // healthy deployment as degraded.
            alive: (0..config.workers).map(|_| AtomicBool::new(true)).collect(),
            worker_panics: AtomicU64::new(0),
            worker_restarts: AtomicU64::new(0),
            deadline_dropped: AtomicU64::new(0),
        });
        let fault_tables: Vec<Option<WorkerFaults>> = match tuning.fault_plan.as_ref() {
            Some(plan) => plan
                .compile(config.workers)
                .into_iter()
                .map(|f| (!f.is_empty()).then_some(f))
                .collect(),
            None => (0..config.workers).map(|_| None).collect(),
        };
        let workers = sessions
            .into_iter()
            .zip(fault_tables)
            .enumerate()
            .map(|(worker_id, (session, faults))| {
                let shared = Arc::clone(&shared);
                let respawn = Arc::clone(&respawn);
                let config = config.clone();
                thread::spawn(move || {
                    worker_shell(&shared, &respawn, session, &config, worker_id, faults)
                })
            })
            .collect();
        Ok(Self {
            shared,
            encoder,
            arch: name.to_string(),
            resident_param_bytes_per_worker,
            workers,
        })
    }

    /// Validate and enqueue a request, returning a handle to the future
    /// prediction. Callable from any number of client threads.
    pub fn submit(&self, request: &InferenceRequest) -> Result<PredictionHandle, RequestError> {
        let encoded = self.encoder.encode(request)?;
        Ok(self.submit_encoded(encoded))
    }

    /// Enqueue an already-validated request (the HTTP front-end validates
    /// whole batches up front and then submits them with this). A request
    /// whose content is in the prediction cache resolves immediately —
    /// bit-identical to a fresh forward pass — without entering the queue.
    pub fn submit_encoded(&self, request: EncodedRequest) -> PredictionHandle {
        self.submit_encoded_with_deadline(request, None)
    }

    /// [`PredictServer::submit_encoded`] with a drop-dead time: if no
    /// worker picks the request up before `deadline`, it is shed with
    /// [`PredictError::DeadlineExceeded`] instead of wasting a forward
    /// pass on an answer the client has already given up on. The HTTP
    /// front-end derives the deadline from its request timeout.
    pub fn submit_encoded_with_deadline(
        &self,
        request: EncodedRequest,
        deadline: Option<Instant>,
    ) -> PredictionHandle {
        let key = match self.shared.cache.as_ref() {
            Some(cache) => {
                let key = CacheKey::of(&request);
                let telemetry = &self.shared.telemetry;
                let started = Instant::now();
                let hit = cache.lock().expect("cache poisoned").get(&key);
                telemetry.record_wire(Stage::CacheLookup, started.elapsed().as_nanos() as u64);
                if let Some(hit) = hit {
                    // A cache hit is a served prediction too: the drift
                    // tracker must see the traffic the clients see.
                    telemetry.drift().observe(request.domain(), hit.fake_prob);
                    return PredictionHandle::ready(Ok(hit));
                }
                Some(key)
            }
            None => None,
        };
        let (handle, reply) = PredictionHandle::pending();
        {
            let mut state = self.shared.queue.lock().expect("queue poisoned");
            state.jobs.push_back(Job {
                request,
                key,
                reply,
                enqueued_at: Instant::now(),
                deadline,
            });
        }
        self.shared.available.notify_one();
        handle
    }

    /// Submit and block for the answer.
    pub fn predict(&self, request: &InferenceRequest) -> Result<Prediction, PredictError> {
        self.submit(request).map_err(PredictError::Invalid)?.wait()
    }

    /// Requests currently queued (not yet picked up by a worker).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().expect("queue poisoned").jobs.len()
    }

    /// The encoder used to validate incoming requests.
    pub fn encoder(&self) -> &RequestEncoder {
        &self.encoder
    }

    /// Canonical architecture name of the model the workers serve (what
    /// `GET /model` reports).
    pub fn arch(&self) -> &str {
        &self.arch
    }

    /// The telemetry registry. Always `Some`; the `Option` stays only so
    /// that callers which unwrap it keep compiling.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        Some(&self.shared.telemetry)
    }

    /// The telemetry registry, for the HTTP front-end's wire stages and
    /// the observability surface.
    pub(crate) fn registry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// Workers currently able to serve. Anything below
    /// [`ServingStats::workers`] means a worker crashed and its supervisor
    /// is still backing off / rebuilding the session (or the server is
    /// shutting down) — the readiness probe reports not-ready until the
    /// respawn restores full capacity.
    pub fn workers_alive(&self) -> usize {
        self.shared
            .alive
            .iter()
            .filter(|alive| alive.load(Ordering::Acquire))
            .count()
    }

    /// Aggregate load, buffer-pool, prediction-cache, memory and
    /// supervision statistics over every worker.
    pub fn stats(&self) -> ServingStats {
        let queue_depth = self.queue_depth();
        let cache = self
            .shared
            .cache
            .as_ref()
            .map(|cache| cache.lock().expect("cache poisoned").stats())
            .unwrap_or_default();
        let mut stats = ServingStats {
            queue_depth,
            requests_served: cache.hits,
            batches: 0,
            pool_reuse_hits: 0,
            pool_alloc_misses: 0,
            workers: self.shared.counters.len(),
            cache,
            resident_param_bytes_per_worker: self.resident_param_bytes_per_worker,
            worker_panics: self.shared.worker_panics.load(Ordering::Relaxed),
            worker_restarts: self.shared.worker_restarts.load(Ordering::Relaxed),
            requests_deadline_dropped: self.shared.deadline_dropped.load(Ordering::Relaxed),
        };
        for counters in &self.shared.counters {
            // Seqlock snapshot: the four fields of one worker are coherent
            // with each other (no mixing counts across a publish).
            let snap = counters.snapshot();
            stats.requests_served += snap.requests;
            stats.batches += snap.batches;
            stats.pool_reuse_hits += snap.pool_reuse_hits;
            stats.pool_alloc_misses += snap.pool_alloc_misses;
        }
        stats
    }

    /// Gracefully stop the server: intake ends, every queued request is
    /// drained and answered, and all worker threads are joined before this
    /// returns. Dropping the server performs the same sequence; this method
    /// only makes the drain point explicit.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    /// The shutdown sequence without consuming the server; running it again
    /// is a no-op (the workers are already joined).
    pub(crate) fn shutdown_impl(&mut self) {
        self.shared.queue.lock().expect("queue poisoned").shutdown = true;
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for PredictServer {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// Everything a supervisor shell needs to rebuild a crashed worker's
/// session exactly the way [`PredictServer::from_checkpoint`] built the
/// original: the retained checkpoint plus the wiring every session gets
/// (the kernel-timer sink).
struct Respawn {
    checkpoint: Checkpoint,
    kernel_timers: Arc<dyn KernelTimers>,
    initial_backoff: Duration,
}

impl Respawn {
    /// Apply the server's wiring to a freshly restored session.
    fn wire(&self, mut session: InferenceSession<BoxedModel>) -> InferenceSession<BoxedModel> {
        session.set_kernel_timers(Some(Arc::clone(&self.kernel_timers)));
        session
    }

    /// A session restored from the retained checkpoint and wired like
    /// every other worker's.
    fn restore(&self) -> Result<InferenceSession<BoxedModel>, StartError> {
        Ok(self.wire(session_from_checkpoint(&self.checkpoint)?))
    }
}

/// The supervisor around one worker's batch loop: run the loop under
/// `catch_unwind`; a clean return is shutdown, a panic publishes
/// `worker_panics`, marks the slot dead for the readiness probe, backs off
/// (exponentially, capped) and respawns a fresh session from the retained
/// checkpoint before re-entering the loop.
fn worker_shell(
    shared: &Shared,
    respawn: &Respawn,
    mut session: InferenceSession<BoxedModel>,
    config: &BatchingConfig,
    worker_id: usize,
    faults: Option<WorkerFaults>,
) {
    // Lifetime batch ordinal: deliberately *not* reset on respawn so a
    // `panic=W@B` fault fires exactly once instead of re-killing every
    // incarnation at its Bth batch.
    let mut batches_done = 0u64;
    let mut backoff = respawn.initial_backoff;
    loop {
        shared.alive[worker_id].store(true, Ordering::Release);
        let healthy_since = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            worker_loop(
                shared,
                &mut session,
                config,
                worker_id,
                faults.as_ref(),
                &mut batches_done,
            )
        }));
        shared.alive[worker_id].store(false, Ordering::Release);
        if run.is_ok() {
            return; // clean shutdown
        }
        shared.worker_panics.fetch_add(1, Ordering::Relaxed);
        // A worker that served healthily for a while earns a fresh backoff;
        // a steady crash-loop keeps doubling towards the cap.
        if healthy_since.elapsed() >= BACKOFF_RESET_AFTER {
            backoff = respawn.initial_backoff;
        }
        loop {
            if !backoff_sleep(shared, backoff) {
                return; // shutdown arrived during the backoff
            }
            backoff = (backoff * 2).min(MAX_RESPAWN_BACKOFF);
            // A failed or panicking rebuild must not kill the supervisor,
            // only schedule the next (longer) attempt.
            let rebuilt = catch_unwind(AssertUnwindSafe(|| respawn.restore()));
            let Ok(Ok(fresh)) = rebuilt else { continue };
            session = fresh;
            shared.worker_restarts.fetch_add(1, Ordering::Relaxed);
            break;
        }
    }
}

/// Sleep up to `backoff`, polling the queue's shutdown flag so a crashed
/// worker in backoff never delays [`PredictServer::shutdown`] by more than
/// one poll tick. Returns false when shutdown was requested. Deliberately a
/// plain sleep, not a condvar wait: a supervisor parked on the queue's
/// condvar would steal `notify_one` wakeups meant for live workers.
fn backoff_sleep(shared: &Shared, backoff: Duration) -> bool {
    let deadline = Instant::now() + backoff;
    loop {
        if shared.queue.lock().expect("queue poisoned").shutdown {
            return false;
        }
        let now = Instant::now();
        if now >= deadline {
            return true;
        }
        thread::sleep((deadline - now).min(Duration::from_millis(10)));
    }
}

fn worker_loop(
    shared: &Shared,
    session: &mut InferenceSession<BoxedModel>,
    config: &BatchingConfig,
    worker_id: usize,
    faults: Option<&WorkerFaults>,
    batches_done: &mut u64,
) {
    let telemetry = &shared.telemetry;
    loop {
        let (jobs, assembly_ns) = {
            let mut state = shared.queue.lock().expect("queue poisoned");
            // Sleep until there is work (or we are told to stop and the
            // queue has drained).
            loop {
                if !state.jobs.is_empty() {
                    break;
                }
                if state.shutdown {
                    return;
                }
                state = shared.available.wait(state).expect("queue poisoned");
            }
            // Batch assembly starts the moment this worker owns its first
            // request and ends when the batch is drained below.
            let assembly_started = Instant::now();
            // Dynamic batching: hold the first request at most `max_wait`
            // while companions trickle in, stopping early on a full batch.
            if !config.max_wait.is_zero() {
                let deadline = assembly_started + config.max_wait;
                while state.jobs.len() < config.max_batch_size && !state.shutdown {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let (next, timeout) = shared
                        .available
                        .wait_timeout(state, deadline - now)
                        .expect("queue poisoned");
                    state = next;
                    if timeout.timed_out() {
                        break;
                    }
                }
            }
            let take = state.jobs.len().min(config.max_batch_size);
            let jobs = state.jobs.drain(..take).collect::<Vec<_>>();
            // A drained queue gives back the slots a burst grew it to.
            if state.jobs.is_empty() && state.jobs.capacity() > 4 * config.max_batch_size {
                state.jobs.shrink_to(config.max_batch_size);
            }
            let assembly_ns = assembly_started.elapsed().as_nanos() as u64;
            (jobs, assembly_ns)
        };
        if jobs.is_empty() {
            continue;
        }
        // Deadline shed: a request whose budget expired while queued gets a
        // typed error now instead of burning a slot in the forward pass.
        // The common no-deadline path (in-process callers) never reads the
        // clock.
        let mut jobs = jobs;
        if jobs.iter().any(|job| job.deadline.is_some()) {
            let now = Instant::now();
            let (live, expired): (Vec<Job>, Vec<Job>) = jobs
                .into_iter()
                .partition(|job| job.deadline.is_none_or(|deadline| now < deadline));
            for job in expired {
                shared.deadline_dropped.fetch_add(1, Ordering::Relaxed);
                job.reply.send(Err(PredictError::DeadlineExceeded));
            }
            jobs = live;
            if jobs.is_empty() {
                continue;
            }
        }
        telemetry.record_worker(worker_id, Stage::BatchAssembly, assembly_ns);
        let drained_at = Instant::now();
        for job in &jobs {
            let waited = drained_at.saturating_duration_since(job.enqueued_at);
            telemetry.record_worker(worker_id, Stage::QueueWait, waited.as_nanos() as u64);
        }
        *batches_done += 1;
        let batch_no = *batches_done;
        let inference_started = Instant::now();
        // The injected panic and the forward pass share one catch scope:
        // whatever blows up inside it, the in-flight batch's clients get a
        // typed `WorkerCrashed` before the panic continues to the
        // supervisor shell (which respawns this worker).
        let predictions = match catch_unwind(AssertUnwindSafe(|| {
            if let Some(f) = faults {
                if f.panic_on.contains(&batch_no) {
                    panic!("injected fault: worker {worker_id} panics on batch {batch_no}");
                }
                if let Some(delay) = f.slow {
                    thread::sleep(delay);
                }
            }
            session.predict_requests(jobs.iter().map(|job| &job.request))
        })) {
            Ok(predictions) => predictions,
            Err(payload) => {
                // Each dropped reply answers its client `WorkerCrashed`.
                drop(jobs);
                resume_unwind(payload);
            }
        };
        // Injected prediction poisoning, applied before telemetry sees the
        // batch so the non-finite drift counters observe it too.
        let mut predictions = predictions;
        if faults.is_some_and(|f| f.nan_on.contains(&batch_no)) {
            for prediction in &mut predictions {
                prediction.fake_prob = f32::NAN;
                prediction.logits = [f32::NAN, f32::NAN];
            }
        }
        // Pro-rata attribution: a batch of n splits its forward-pass time
        // evenly over its n requests, remainder to the last one so the
        // recorded stage sum matches the measured span exactly.
        let total_ns = inference_started.elapsed().as_nanos() as u64;
        let n = jobs.len() as u64;
        telemetry.record_worker_batch(worker_id, Stage::Inference, total_ns, n);
        for (job, prediction) in jobs.iter().zip(predictions.iter()) {
            telemetry
                .drift()
                .observe(job.request.domain(), prediction.fake_prob);
        }
        let (hits, misses) = session.pool_stats();
        shared.counters[worker_id].publish(jobs.len() as u64, hits, misses);
        // Populate the prediction cache before fanning out, under one lock
        // for the whole batch. Duplicate in-flight requests may both reach
        // here; the second insert overwrites with bit-identical content.
        if let Some(cache) = shared.cache.as_ref() {
            let mut cache = cache.lock().expect("cache poisoned");
            for (job, prediction) in jobs.iter_mut().zip(predictions.iter()) {
                if let Some(key) = job.key.take() {
                    cache.insert(key, prediction.clone());
                }
            }
        }
        for (job, prediction) in jobs.into_iter().zip(predictions) {
            // A client may have abandoned its handle; the send is then a
            // no-op.
            job.reply.send(Ok(prediction));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtdbd_data::{weibo21_spec, GeneratorConfig, MultiDomainDataset, NewsGenerator};
    use dtdbd_models::{ModelConfig, TextCnnModel};
    use dtdbd_tensor::rng::Prng;
    use dtdbd_tensor::ParamStore;

    fn dataset() -> MultiDomainDataset {
        NewsGenerator::new(weibo21_spec(), GeneratorConfig::tiny()).generate_scaled(8, 0.02)
    }

    /// The seed-7 tiny TextCNN-S student every test serves.
    fn checkpoint(ds: &MultiDomainDataset) -> Checkpoint {
        let mut store = ParamStore::new();
        let model = TextCnnModel::student(&mut store, &ModelConfig::tiny(ds), &mut Prng::new(7));
        Checkpoint::capture(&model, &store)
    }

    fn start_with(
        ds: &MultiDomainDataset,
        config: BatchingConfig,
        tuning: ServerTuning,
    ) -> PredictServer {
        PredictServer::from_checkpoint(&checkpoint(ds), config, tuning).expect("valid tuning")
    }

    fn start_server(ds: &MultiDomainDataset, config: BatchingConfig) -> PredictServer {
        start_with(ds, config, ServerTuning::default())
    }

    fn request_for(ds: &MultiDomainDataset, idx: usize) -> InferenceRequest {
        let item = &ds.items()[idx];
        InferenceRequest::new(item.tokens.clone(), item.domain)
    }

    #[test]
    fn serves_single_blocking_requests() {
        let ds = dataset();
        let server = start_server(&ds, BatchingConfig::default());
        let prediction = server.predict(&request_for(&ds, 0)).unwrap();
        assert!((0.0..=1.0).contains(&prediction.fake_prob));
    }

    fn answer(fake_prob: f32) -> Prediction {
        Prediction {
            fake_prob,
            logits: [0.0, fake_prob],
            domain_scores: None,
        }
    }

    fn is_filled(handle: &PredictionHandle) -> bool {
        let state = handle.slot.lock();
        matches!(*state, SlotState::Filled(_))
    }

    #[test]
    fn reply_slot_is_one_small_allocation() {
        // An `Arc` allocation is two reference counts plus the slot.
        let bytes = 2 * std::mem::size_of::<usize>() + std::mem::size_of::<ReplySlot>();
        assert!(bytes < 128, "reply slot allocation is {bytes} bytes");
    }

    #[test]
    fn reply_sent_before_wait_is_returned() {
        let (handle, reply) = PredictionHandle::pending();
        reply.send(Ok(answer(0.25)));
        assert!(is_filled(&handle));
        assert_eq!(handle.wait().unwrap().fake_prob, 0.25);
    }

    #[test]
    fn blocked_wait_wakes_with_the_answer() {
        let (handle, reply) = PredictionHandle::pending();
        let slot = Arc::clone(&handle.slot);
        let waiter = thread::spawn(move || handle.wait());
        // Fill only once the waiter is blocked on the slot.
        while !matches!(*slot.lock(), SlotState::Waiting) {
            thread::sleep(Duration::from_millis(1));
        }
        drop(slot);
        reply.send(Ok(answer(0.75)));
        assert_eq!(waiter.join().unwrap().unwrap().fake_prob, 0.75);
    }

    #[test]
    fn reply_dropped_unanswered_is_a_worker_crash() {
        let (handle, reply) = PredictionHandle::pending();
        drop(reply);
        assert_eq!(handle.wait().unwrap_err(), PredictError::WorkerCrashed);

        // A waiter already blocked is woken by the drop too.
        let (handle, reply) = PredictionHandle::pending();
        let slot = Arc::clone(&handle.slot);
        let waiter = thread::spawn(move || handle.wait());
        while !matches!(*slot.lock(), SlotState::Waiting) {
            thread::sleep(Duration::from_millis(1));
        }
        drop((slot, reply));
        assert_eq!(
            waiter.join().unwrap().unwrap_err(),
            PredictError::WorkerCrashed
        );
    }

    #[test]
    fn handle_dropped_first_leaves_the_worker_serving() {
        // Nobody holds the slot but the reply: the fill returns at once.
        let (handle, reply) = PredictionHandle::pending();
        drop(handle);
        reply.send(Ok(answer(0.5)));

        let ds = dataset();
        // The slow fault keeps the first batch in flight while its handle
        // is dropped, so the worker's fill finds no reader.
        let server = start_faulted(
            &ds,
            1,
            FaultPlan::default().slow_predict(Duration::from_millis(20)),
        );
        drop(server.submit(&request_for(&ds, 0)).unwrap());
        let next = server.predict(&request_for(&ds, 1)).unwrap();
        assert!(next.fake_prob.is_finite());
        let stats = server.stats();
        assert_eq!(stats.batches, 2, "the abandoned request was still served");
        assert_eq!(server.workers_alive(), 1);
        assert_eq!(stats.worker_panics, 0);
    }

    #[test]
    fn cache_hit_resolves_with_no_worker_involved() {
        let ds = dataset();
        let server = start_server(&ds, BatchingConfig::default());
        let request = request_for(&ds, 0);
        let miss = server.predict(&request).unwrap();
        let batches = server.stats().batches;
        let hit = server.submit(&request).unwrap();
        assert!(is_filled(&hit), "a hit's slot is filled at submit");
        assert_eq!(Arc::strong_count(&hit.slot), 1, "no job holds the slot");
        assert_eq!(
            hit.wait().unwrap().fake_prob.to_bits(),
            miss.fake_prob.to_bits()
        );
        assert_eq!(server.stats().batches, batches, "no forward pass ran");
    }

    #[test]
    fn batched_answers_match_a_direct_session_exactly() {
        let ds = dataset();
        // One worker and a generous window force real coalescing.
        let server = start_server(
            &ds,
            BatchingConfig {
                max_batch_size: 16,
                max_wait: Duration::from_millis(20),
                workers: 1,
            },
        );
        let n = 24usize;
        let handles: Vec<_> = (0..n)
            .map(|i| server.submit(&request_for(&ds, i)).unwrap())
            .collect();
        let served: Vec<Prediction> = handles.into_iter().map(|h| h.wait().unwrap()).collect();

        // Reference: the same items, one at a time, through a plain session.
        let cfg = ModelConfig::tiny(&ds);
        let mut store = ParamStore::new();
        let model = TextCnnModel::student(&mut store, &cfg, &mut Prng::new(7));
        let mut reference = InferenceSession::new(model, store);
        for (i, batched) in served.iter().enumerate() {
            let encoded = reference.encoder().encode(&request_for(&ds, i)).unwrap();
            let single = &reference.predict_requests(&[encoded])[0];
            assert!(
                (batched.fake_prob - single.fake_prob).abs() <= 1e-6,
                "item {i}: batched {} vs single {}",
                batched.fake_prob,
                single.fake_prob
            );
        }
    }

    #[test]
    fn invalid_requests_are_rejected_at_submit_time() {
        let ds = dataset();
        let server = start_server(&ds, BatchingConfig::default());
        let bad = InferenceRequest::new(vec![u32::MAX], 0);
        assert!(matches!(
            server.predict(&bad),
            Err(PredictError::Invalid(RequestError::TokenOutOfRange { .. }))
        ));
    }

    #[test]
    fn drop_drains_the_queue_before_stopping() {
        let ds = dataset();
        let server = start_server(
            &ds,
            BatchingConfig {
                max_batch_size: 4,
                max_wait: Duration::from_millis(1),
                workers: 2,
            },
        );
        let handles: Vec<_> = (0..40)
            .map(|i| server.submit(&request_for(&ds, i % ds.len())).unwrap())
            .collect();
        drop(server); // must not strand any handle
        for handle in handles {
            let p = handle.wait().expect("drained, not dropped");
            assert!(p.fake_prob.is_finite());
        }
    }

    #[test]
    fn shutdown_drains_every_outstanding_handle() {
        let ds = dataset();
        let server = start_server(
            &ds,
            BatchingConfig {
                max_batch_size: 8,
                max_wait: Duration::from_millis(1),
                workers: 2,
            },
        );
        let handles: Vec<_> = (0..30)
            .map(|i| server.submit(&request_for(&ds, i % ds.len())).unwrap())
            .collect();
        server.shutdown(); // explicit drain; returns only once workers joined
        for handle in handles {
            assert!(handle.wait().unwrap().fake_prob.is_finite());
        }
    }

    #[test]
    fn stats_aggregate_worker_counters() {
        let ds = dataset();
        let server = start_server(&ds, BatchingConfig::default());
        let n = 20usize;
        let handles: Vec<_> = (0..n)
            .map(|i| server.submit(&request_for(&ds, i % ds.len())).unwrap())
            .collect();
        for handle in handles {
            handle.wait().unwrap();
        }
        let stats = server.stats();
        assert_eq!(stats.requests_served, n as u64);
        assert!(stats.batches >= 1 && stats.batches <= n as u64);
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.queue_depth, 0);
        assert!(stats.pool_alloc_misses > 0, "first batch allocates");
        assert!(stats.resident_param_bytes_per_worker > 0);
    }

    #[test]
    fn submit_encoded_skips_revalidation_but_serves_identically() {
        let ds = dataset();
        let server = start_server(&ds, BatchingConfig::default());
        let request = request_for(&ds, 0);
        let encoded = server.encoder().encode(&request).unwrap();
        let via_encoded = server.submit_encoded(encoded).wait().unwrap();
        let via_raw = server.predict(&request).unwrap();
        assert_eq!(via_encoded.fake_prob.to_bits(), via_raw.fake_prob.to_bits());
    }

    #[test]
    fn cache_hits_are_bit_identical_to_the_miss_path_and_counted() {
        let ds = dataset();
        let server = start_server(&ds, BatchingConfig::default());
        let request = request_for(&ds, 0);
        let miss = server.predict(&request).unwrap();
        let hit = server.predict(&request).unwrap();
        assert_eq!(miss.fake_prob.to_bits(), hit.fake_prob.to_bits());
        assert_eq!(miss.logits[0].to_bits(), hit.logits[0].to_bits());
        assert_eq!(miss.logits[1].to_bits(), hit.logits[1].to_bits());
        let stats = server.stats();
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache.misses, 1);
        assert_eq!(stats.cache.entries, 1);
        assert_eq!(stats.requests_served, 2, "hits count as served requests");
        // A different item misses again.
        server.predict(&request_for(&ds, 1)).unwrap();
        assert_eq!(server.stats().cache.misses, 2);
    }

    #[test]
    fn builder_can_disable_the_cache() {
        use crate::builder::ServerBuilder;
        let ds = dataset();
        let checkpoint = checkpoint(&ds);
        let uncached = ServerBuilder::new()
            .workers(1)
            .cache_capacity(0)
            .try_start_from_checkpoint(&checkpoint)
            .expect("valid configuration");
        let request = request_for(&ds, 0);
        let first = uncached.predict(&request).unwrap();
        let second = uncached.predict(&request).unwrap();
        assert_eq!(first.fake_prob.to_bits(), second.fake_prob.to_bits());
        let stats = uncached.stats();
        assert_eq!(stats.cache.capacity, 0, "cache disabled");
        assert_eq!(stats.cache.hits, 0);
        assert_eq!(stats.requests_served, 2);
    }

    #[test]
    fn cache_holds_exactly_the_capacity_most_recent_keys() {
        use crate::builder::ServerBuilder;
        let ds = dataset();
        let server = ServerBuilder::new()
            .cache_capacity(64)
            .try_start_from_checkpoint(&checkpoint(&ds))
            .expect("valid configuration");
        // 64 distinct two-token requests: exactly the cache's capacity.
        let requests: Vec<_> = (0..64u32)
            .map(|i| InferenceRequest::new(vec![2 + i % 8, 2 + i / 8], 0))
            .collect();
        for _ in 0..2 {
            let handles: Vec<_> = (requests.iter())
                .map(|request| server.submit(request).unwrap())
                .collect();
            for handle in handles {
                handle.wait().unwrap();
            }
        }
        // One global LRU: the second pass finds every key of the first.
        let cache = server.stats().cache;
        assert_eq!((cache.hits, cache.evictions), (64, 0), "{cache:?}");
        assert_eq!((cache.misses, cache.entries), (64, 64));
    }

    #[test]
    fn stats_snapshots_stay_coherent_under_a_reader_hammer() {
        use std::sync::atomic::AtomicBool;
        // max_batch_size 1 + cache off: every served request is exactly one
        // batch, so requests_served == batches is an invariant of every
        // coherent snapshot. A torn read (requests published, batches not
        // yet) breaks it — the seqlock in WorkerCounters must never let 16
        // concurrent readers observe that in-between state.
        let ds = Arc::new(dataset());
        let server = Arc::new(start_with(
            &ds,
            BatchingConfig {
                max_batch_size: 1,
                workers: 2,
                ..BatchingConfig::default()
            },
            ServerTuning {
                cache_capacity: 0,
                ..ServerTuning::default()
            },
        ));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..16)
            .map(|_| {
                let server = Arc::clone(&server);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut snapshots = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let stats = server.stats();
                        assert_eq!(
                            stats.requests_served, stats.batches,
                            "torn counter snapshot"
                        );
                        snapshots += 1;
                    }
                    snapshots
                })
            })
            .collect();
        for i in 0..400 {
            server.predict(&request_for(&ds, i % ds.len())).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let snapshots: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(snapshots > 0, "the hammer never read anything");
    }

    /// Single worker, cache off, one request per batch — the fault plan's
    /// batch ordinals map 1:1 onto sequential `predict` calls.
    fn start_faulted(ds: &MultiDomainDataset, workers: usize, plan: FaultPlan) -> PredictServer {
        start_with(
            ds,
            BatchingConfig {
                max_batch_size: 1,
                max_wait: Duration::ZERO,
                workers,
            },
            ServerTuning {
                cache_capacity: 0,
                fault_plan: Some(plan),
            },
        )
    }

    #[test]
    fn supervised_worker_respawns_after_injected_panic_bit_exactly() {
        let ds = dataset();
        let server = start_faulted(&ds, 1, FaultPlan::default().panic_worker(0, 2));
        let request = request_for(&ds, 0);

        // Batch 1 serves normally; batch 2 is the injected crash, which
        // must surface as the typed error, not a client panic.
        let before = server.predict(&request).expect("batch 1 is healthy");
        assert!(
            matches!(server.predict(&request), Err(PredictError::WorkerCrashed)),
            "the in-flight batch of a panicking worker fails typed"
        );

        // The supervisor backs off and respawns; the fresh session must
        // answer bit-identically to the pre-crash one.
        let deadline = Instant::now() + Duration::from_secs(10);
        let after = loop {
            match server.predict(&request) {
                Ok(prediction) => break prediction,
                Err(PredictError::WorkerCrashed) if Instant::now() < deadline => {
                    thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("worker never respawned: {e}"),
            }
        };
        assert_eq!(before.fake_prob.to_bits(), after.fake_prob.to_bits());
        assert_eq!(before.logits[0].to_bits(), after.logits[0].to_bits());
        assert_eq!(before.logits[1].to_bits(), after.logits[1].to_bits());

        let stats = server.stats();
        assert_eq!(stats.worker_panics, 1);
        assert_eq!(stats.worker_restarts, 1);
        assert_eq!(server.workers_alive(), 1, "capacity restored");
    }

    #[test]
    fn workers_and_respawned_workers_serve_the_checkpoint_weights_in_place() {
        let ds = dataset();
        let ckpt = checkpoint(&ds);
        let a = session_from_checkpoint(&ckpt).unwrap();
        let b = session_from_checkpoint(&ckpt).unwrap();
        assert!(Arc::ptr_eq(a.params(), &ckpt.params));
        assert!(Arc::ptr_eq(a.params(), b.params()));
        drop((a, b));

        // Every worker panics on its first batch and is respawned.
        let plan = FaultPlan::default()
            .panic_worker(0, 1)
            .panic_worker(1, 1)
            .respawn_backoff(Duration::from_millis(1));
        let config = BatchingConfig {
            max_batch_size: 1,
            max_wait: Duration::ZERO,
            workers: 2,
        };
        let tuning = ServerTuning {
            cache_capacity: 0,
            fault_plan: Some(plan),
        };
        let server = PredictServer::from_checkpoint(&ckpt, config, tuning).unwrap();
        // The holders of the one store: this test, the server's respawn
        // source, and one session per worker. A worker with a store of its
        // own would not count here.
        assert_eq!(Arc::strong_count(&ckpt.params), 4);
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.stats().worker_restarts < 2 {
            assert!(Instant::now() < deadline, "workers never respawned");
            let handles: Vec<_> = (0..8)
                .map(|i| server.submit(&request_for(&ds, i)).unwrap())
                .collect();
            for handle in handles {
                let _ = handle.wait();
            }
        }
        assert_eq!(
            Arc::strong_count(&ckpt.params),
            4,
            "respawned sessions serve the same store"
        );
        server.shutdown();
        assert_eq!(Arc::strong_count(&ckpt.params), 1);
    }

    #[test]
    fn a_drained_queue_gives_back_its_burst_capacity() {
        let ds = dataset();
        let max_batch_size = 8;
        let server = start_with(
            &ds,
            BatchingConfig {
                max_batch_size,
                max_wait: Duration::ZERO,
                workers: 1,
            },
            ServerTuning {
                cache_capacity: 0,
                fault_plan: Some(FaultPlan::default().slow_predict(Duration::from_millis(1))),
            },
        );
        let capacity = || server.shared.queue.lock().unwrap().jobs.capacity();
        let handles: Vec<_> = (0..3072)
            .map(|i| server.submit(&request_for(&ds, i % ds.len())).unwrap())
            .collect();
        assert!(capacity() > 4 * max_batch_size, "the burst grew the queue");
        for handle in handles {
            handle.wait().unwrap();
        }
        assert_eq!(server.queue_depth(), 0);
        assert!(
            capacity() <= 4 * max_batch_size,
            "{} slots kept",
            capacity()
        );
    }

    #[test]
    fn expired_deadlines_shed_typed_before_inference() {
        let ds = dataset();
        let server = start_faulted(&ds, 1, FaultPlan::default());
        let request = request_for(&ds, 0);
        let encoded = server.encoder().encode(&request).unwrap();

        // A deadline already in the past: the worker must drop it.
        let handle = server.submit_encoded_with_deadline(encoded.clone(), Some(Instant::now()));
        assert!(matches!(handle.wait(), Err(PredictError::DeadlineExceeded)));
        assert_eq!(server.stats().requests_deadline_dropped, 1);

        // A generous deadline serves normally.
        let handle = server
            .submit_encoded_with_deadline(encoded, Some(Instant::now() + Duration::from_secs(30)));
        assert!(handle.wait().unwrap().fake_prob.is_finite());
        assert_eq!(server.stats().requests_deadline_dropped, 1);
    }

    #[test]
    fn slow_predict_fault_delays_but_still_answers() {
        let ds = dataset();
        let server = start_faulted(
            &ds,
            1,
            FaultPlan::default().slow_predict(Duration::from_millis(30)),
        );
        let started = Instant::now();
        let prediction = server.predict(&request_for(&ds, 0)).unwrap();
        assert!(prediction.fake_prob.is_finite());
        assert!(
            started.elapsed() >= Duration::from_millis(30),
            "the slow-predict fault must actually delay the forward pass"
        );
    }

    #[test]
    fn nan_fault_poisons_the_targeted_batch_only() {
        let ds = dataset();
        let server = start_faulted(&ds, 1, FaultPlan::default().nan_worker(0, 1));
        let poisoned = server.predict(&request_for(&ds, 0)).unwrap();
        assert!(poisoned.fake_prob.is_nan(), "batch 1 is poisoned");
        assert!(poisoned.logits[0].is_nan() && poisoned.logits[1].is_nan());
        let clean = server.predict(&request_for(&ds, 1)).unwrap();
        assert!(clean.fake_prob.is_finite(), "batch 2 is clean again");
    }

    #[test]
    fn many_client_threads_share_the_server() {
        let ds = Arc::new(dataset());
        let server = Arc::new(start_server(&ds, BatchingConfig::default()));
        let mut clients = Vec::new();
        for t in 0..4 {
            let server = Arc::clone(&server);
            let ds = Arc::clone(&ds);
            clients.push(thread::spawn(move || {
                for i in 0..25 {
                    let idx = (t * 25 + i) % ds.len();
                    let p = server.predict(&request_for(&ds, idx)).unwrap();
                    assert!((0.0..=1.0).contains(&p.fake_prob));
                }
            }));
        }
        for c in clients {
            c.join().unwrap();
        }
    }
}
