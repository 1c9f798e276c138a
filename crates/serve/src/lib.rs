//! # dtdbd-serve
//!
//! The deployment subsystem of the DTDBD reproduction: everything needed to
//! take a student trained by `dtdbd-core` and answer prediction traffic with
//! it. Five layers, each usable on its own:
//!
//! 1. **Checkpointing** ([`checkpoint`]) — a dependency-free, versioned
//!    binary codec (format 2) that persists a [`dtdbd_tensor::ParamStore`]
//!    together with its [`dtdbd_models::ModelConfig`], vocabulary layout and
//!    the model's [`dtdbd_models::SideState`] (trained state outside the
//!    store, e.g. M3FEND's domain memory bank) as individually CRC-guarded
//!    chunks — CRC-32 corruption detection everywhere, bit-exact `f32`
//!    round trips, and version-1 files still load.
//! 2. **Tape-free inference** ([`session`]) — [`InferenceSession`] runs
//!    forward passes on [`dtdbd_tensor::Graph::inference`] graphs: no
//!    autograd tape, and after the first request every activation buffer is
//!    recycled through a [`dtdbd_tensor::BufferPool`], so the steady-state
//!    hot path performs no activation allocation. Every session serves the
//!    training-time f32 arithmetic, bit for bit.
//! 3. **Micro-batching server core** ([`server`]) — [`PredictServer`]
//!    coalesces concurrent single-item requests from one queue into batches
//!    (`max_batch_size` / `max_wait`) dispatched to a pool of worker
//!    threads, each a full replica owning a private session. In front of
//!    the queue sits a prediction cache ([`cache`]). Every
//!    server starts from a [`Checkpoint`] through [`ServerBuilder`], which
//!    also sets the knobs.
//! 4. **Multi-model zoo** ([`zoo`]) — [`ModelZoo`] keeps several resident
//!    models keyed by id (each with its own worker group, queue, cache and
//!    supervision) and hot-swaps a file-backed tenant to a new checkpoint
//!    version without dropping or mis-versioning a single request (build
//!    beside, warm, `Arc` flip at a batch boundary, drain, retire). A
//!    single-model HTTP server is a zoo of one.
//! 5. **HTTP/1.1 front-end** ([`http`], with its JSON codec in [`json`]) —
//!    [`HttpServer`] binds a `TcpListener` and serves `POST /predict`
//!    (per-tenant: `POST /predict/<id>`), `GET /model`, `GET /healthz` and
//!    `GET /stats` over real sockets: one protocol state machine per
//!    connection (incremental request parsing with hard head/body limits,
//!    keep-alive, deadlines) run by an epoll event loop on Linux and a
//!    blocking thread pool elsewhere, and JSON whose `f32` round trips are
//!    bit-exact. See the [`http`] module docs for the full wire protocol.
//!
//! The typical round trip:
//!
//! ```text
//! train (dtdbd-core)            serve (this crate)
//! ------------------            -------------------------------------------
//! train_model(&mut m, ...)  →   Checkpoint::capture(&m, &store)
//!                                   .save("student.dtdbd")
//!                               ...fresh process...
//!                               let ckpt = Checkpoint::load("student.dtdbd")?;
//!                               let server = ServerBuilder::new()
//!                                   .try_start_from_checkpoint(&ckpt)?;
//!                               server.predict(&request)?.fake_prob
//! ```

#[cfg(any(
    test,
    not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))
))]
mod blocking;
pub mod builder;
pub mod cache;
pub mod checkpoint;
mod conn;
pub mod fault;
pub mod http;
pub mod json;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub(crate) mod poll;
pub mod prom;
pub mod server;
pub mod session;
mod surface;
pub mod telemetry;
pub mod zoo;

/// The little-endian byte codec behind the checkpoint format. It moved to
/// `dtdbd-models` (models encode their own side-state chunks with it) and is
/// re-exported here so `dtdbd_serve::codec` paths keep working.
pub use dtdbd_models::codec;

pub use builder::{
    build_model, session_from_checkpoint, BoxedModel, ConfigError, ServerBuilder, StartError,
    SUPPORTED_ARCHS,
};
pub use cache::{CacheKey, CacheStats, PredictionCache};
pub use checkpoint::{Checkpoint, CheckpointError, FORMAT_VERSION, MAGIC, MIN_FORMAT_VERSION};
pub use dtdbd_models::{SideState, SideStateError};
pub use fault::FaultPlan;
pub use http::{ClientResponse, HttpClient, HttpConfig, HttpServer};
pub use server::{BatchingConfig, PredictError, PredictServer, PredictionHandle, ServingStats};
pub use session::{InferenceSession, Prediction};
pub use telemetry::{
    DomainBaseline, DomainDrift, DriftTracker, HistogramSnapshot, LatencyHistogram, Stage,
    Telemetry, TelemetrySnapshot, BASELINE_TAG,
};
pub use zoo::{ModelZoo, ReloadError, Tenant, TenantModel, DEFAULT_MODEL_ID};
