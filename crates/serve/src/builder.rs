//! Rebuilding model architectures from a checkpoint's `arch` tag, and the
//! fluent [`ServerBuilder`] that turns checkpoints into tuned servers.
//!
//! A checkpoint stores the architecture as the model's canonical name (what
//! [`dtdbd_models::FakeNewsModel::name`] returns at save time). This module
//! maps the servable tags back to their constructors ([`dtdbd_models::build`])
//! so a serving process can go from a file on disk to a ready
//! [`InferenceSession`] without the caller knowing which concrete type is
//! inside.

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::fault::FaultPlan;
use crate::http::{HttpConfig, HttpServer};
use crate::server::{BatchingConfig, PredictServer, ServerTuning};
use crate::session::InferenceSession;
use crate::zoo::{ModelZoo, DEFAULT_MODEL_ID};
use dtdbd_models::{FakeNewsModel, ModelConfig};
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::ParamStore;
use std::fmt;

/// A boxed model that can cross threads (what the server's workers hold).
pub type BoxedModel = Box<dyn FakeNewsModel + Send>;

/// Architecture tags [`build_model`] understands.
///
/// A restorable model needs every piece of inference-relevant state to
/// travel in the checkpoint. For most of the zoo that is the `ParamStore`
/// alone (EANN and EDDFN qualify: their adversaries, specific heads and
/// reconstructors are all registered parameters). M3FEND additionally keeps
/// its `DomainMemoryBank` — EMA state outside the store — which rides in
/// the format-2 side-state section, so since format 2 the full teacher
/// pair (MDFEND + M3FEND) and both adversarial baselines are servable.
pub const SUPPORTED_ARCHS: &[&str] = &[
    "TextCNN",
    "TextCNN-S",
    "BiGRU",
    "BiGRU-S",
    "MDFEND",
    "M3FEND",
    "EANN",
    "EANN_NoDAT",
    "EDDFN",
    "EDDFN_NoDAT",
];

/// Why a server could not be started with the requested configuration.
///
/// Every variant is a *configuration* problem, detected before any worker
/// thread spawns; checkpoint decode/restore problems stay
/// [`CheckpointError`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `workers == 0`: the server would never answer anything.
    ZeroWorkers,
    /// `max_batch_size == 0`: no batch could ever be assembled.
    ZeroMaxBatchSize,
    /// A drift baseline covers a different number of domains than the
    /// model's corpus — scoring live traffic against it would compare
    /// unrelated domains.
    DriftBaselineGeometry {
        /// Domains the baseline covers.
        baseline_domains: usize,
        /// Domains of the corpus being served.
        n_domains: usize,
    },
    /// A zoo start was requested with no tenants registered.
    NoTenants,
    /// Two tenants were registered under the same model id.
    DuplicateModelId {
        /// The id registered twice.
        id: String,
    },
    /// `HttpConfig::connection_workers == 0`: the HTTP front-end would have
    /// no thread to answer a request on.
    ZeroConnectionWorkers,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ZeroWorkers => write!(f, "need at least one worker"),
            Self::ZeroMaxBatchSize => write!(f, "max_batch_size must be positive"),
            Self::DriftBaselineGeometry {
                baseline_domains,
                n_domains,
            } => {
                write!(
                    f,
                    "drift baseline covers {baseline_domains} domains, corpus has {n_domains}"
                )
            }
            Self::NoTenants => write!(f, "a model zoo needs at least one registered tenant"),
            Self::DuplicateModelId { id } => {
                write!(f, "model id {id:?} registered more than once")
            }
            Self::ZeroConnectionWorkers => {
                write!(f, "the HTTP front-end needs at least one connection worker")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Why one of the [`ServerBuilder`] start methods failed: a checkpoint
/// could not be loaded or restored, the builder configuration is invalid,
/// or the HTTP listener could not bind.
#[derive(Debug)]
pub enum StartError {
    /// Checkpoint decode/restore failure.
    Checkpoint(CheckpointError),
    /// Invalid builder configuration.
    Config(ConfigError),
    /// The HTTP front-end could not start (bind/listen failure).
    Io(std::io::Error),
}

impl fmt::Display for StartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Checkpoint(e) => write!(f, "{e}"),
            Self::Config(e) => write!(f, "{e}"),
            Self::Io(e) => write!(f, "http listener failed to start: {e}"),
        }
    }
}

impl std::error::Error for StartError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Checkpoint(e) => Some(e),
            Self::Config(e) => Some(e),
            Self::Io(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for StartError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<CheckpointError> for StartError {
    fn from(e: CheckpointError) -> Self {
        Self::Checkpoint(e)
    }
}

impl From<ConfigError> for StartError {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

/// Construct a model of the named architecture, one of [`SUPPORTED_ARCHS`],
/// registering freshly initialised parameters in `store` (the caller then
/// restores checkpoint values over them). The initialisation seed is
/// irrelevant for restored models but kept deterministic.
pub fn build_model(
    arch: &str,
    store: &mut ParamStore,
    config: &ModelConfig,
) -> Result<BoxedModel, CheckpointError> {
    SUPPORTED_ARCHS
        .contains(&arch)
        .then(|| dtdbd_models::build(arch, store, config, &mut Prng::new(0xD7DB)))
        .flatten()
        .ok_or_else(|| {
            CheckpointError::Malformed(format!(
                "unknown architecture tag {arch:?} (supported: {SUPPORTED_ARCHS:?})"
            ))
        })
}

/// Turn a decoded [`Checkpoint`] into a ready [`InferenceSession`] for its
/// recorded architecture.
pub fn session_from_checkpoint(
    checkpoint: &Checkpoint,
) -> Result<InferenceSession<BoxedModel>, CheckpointError> {
    if !SUPPORTED_ARCHS.contains(&checkpoint.arch.as_str()) {
        return Err(CheckpointError::Malformed(format!(
            "unknown architecture tag {:?} (supported: {SUPPORTED_ARCHS:?})",
            checkpoint.arch
        )));
    }
    InferenceSession::from_checkpoint(checkpoint, |store, config| {
        build_model(&checkpoint.arch, store, config).expect("arch membership checked above")
    })
}

/// Fluent construction of a tuned server from checkpoints.
///
/// Every server starts from a checkpoint, in one of three ways:
///
/// * [`ServerBuilder::try_start_from_checkpoint`] — an in-process
///   [`PredictServer`];
/// * [`ServerBuilder::try_start_http_from_checkpoint`] — that checkpoint
///   behind the HTTP front-end, as a one-tenant zoo under
///   [`DEFAULT_MODEL_ID`];
/// * [`ServerBuilder::try_start_http`] — every tenant registered with
///   [`ServerBuilder::tenant`] / [`ServerBuilder::tenant_from_path`] behind
///   the HTTP front-end.
///
/// The knobs apply to every worker of every tenant:
///
/// * **`cache_capacity`** — bound of the content-hash → prediction LRU in
///   front of the queue (0 disables caching).
/// * **`http` / `http_addr`** — configuration of the HTTP front-end the
///   two `try_start_http*` methods start (bind address, worker and backlog
///   sizing, wire limits, deadlines). The build platform picks
///   its connection driver: the epoll event loop on Linux x86-64/aarch64,
///   a blocking thread pool elsewhere.
///
/// ```no_run
/// # use dtdbd_serve::{Checkpoint, ServerBuilder};
/// # fn demo(checkpoint: &Checkpoint) -> Result<(), dtdbd_serve::StartError> {
/// let server = ServerBuilder::new()
///     .workers(4)
///     .cache_capacity(8192)
///     .try_start_from_checkpoint(checkpoint)?;
/// # drop(server); Ok(()) }
/// ```
#[derive(Debug, Clone)]
pub struct ServerBuilder {
    batching: BatchingConfig,
    tuning: ServerTuning,
    http: HttpConfig,
    tenants: Vec<TenantSpec>,
    default_id: Option<String>,
}

/// One registered zoo tenant: an id plus where its checkpoint comes from.
#[derive(Debug, Clone)]
struct TenantSpec {
    id: String,
    source: TenantSource,
}

#[derive(Debug, Clone)]
enum TenantSource {
    /// A checkpoint already in memory; the tenant is not reloadable.
    Resident(Checkpoint),
    /// A checkpoint file; `POST /admin/reload/<id>` re-reads it.
    File(std::path::PathBuf),
}

impl Default for ServerBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerBuilder {
    /// A builder with [`BatchingConfig::default`] and the default tuning
    /// (a 1024-entry prediction cache).
    /// The HTTP front-end (only started by the `try_start_http*` methods)
    /// defaults to [`HttpConfig::default`]: an ephemeral loopback port.
    pub fn new() -> Self {
        Self {
            batching: BatchingConfig::default(),
            tuning: ServerTuning::default(),
            http: HttpConfig::default(),
            tenants: Vec::new(),
            default_id: None,
        }
    }

    /// Replace the whole queue-coalescing configuration.
    pub fn batching(mut self, config: BatchingConfig) -> Self {
        self.batching = config;
        self
    }

    /// Number of prediction worker threads.
    pub fn workers(mut self, workers: usize) -> Self {
        self.batching.workers = workers;
        self
    }

    /// Largest batch a worker will assemble.
    pub fn max_batch_size(mut self, max_batch_size: usize) -> Self {
        self.batching.max_batch_size = max_batch_size;
        self
    }

    /// How long a worker holding a non-full batch waits for companions.
    pub fn max_wait(mut self, max_wait: std::time::Duration) -> Self {
        self.batching.max_wait = max_wait;
        self
    }

    /// Bound of the prediction cache in entries; 0 disables caching (the
    /// documented fallback — not an error — with all cache counters pinned
    /// at zero).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.tuning.cache_capacity = capacity;
        self
    }

    /// Replace the whole HTTP front-end configuration (bind address,
    /// worker/backlog sizing, wire limits, deadlines). Only consulted by the
    /// `try_start_http*` methods, which reject `connection_workers == 0`
    /// with [`ConfigError::ZeroConnectionWorkers`] before any thread spawns.
    pub fn http(mut self, config: HttpConfig) -> Self {
        self.http = config;
        self
    }

    /// Bind address of the HTTP front-end (e.g. `"127.0.0.1:8080"`;
    /// port 0 picks an ephemeral port). Only consulted by the
    /// `try_start_http*` methods.
    pub fn http_addr(mut self, addr: impl Into<String>) -> Self {
        self.http.addr = addr.into();
        self
    }

    /// Inject a deterministic [`FaultPlan`] (see [`crate::fault`]): worker
    /// panics, slow forward passes, NaN-poisoned predictions. Servers built without a plan compile the hooks to
    /// nothing — the hot path is untouched.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.tuning.fault_plan = Some(plan);
        self
    }

    /// Register a zoo tenant from a resident checkpoint. The tenant serves
    /// under `POST /predict/<id>`; it has no file to re-read, so
    /// `POST /admin/reload/<id>` reports it as not reloadable. The first
    /// registered tenant is the default unless
    /// [`ServerBuilder::default_model_id`] names another.
    pub fn tenant(mut self, id: impl Into<String>, checkpoint: &Checkpoint) -> Self {
        self.tenants.push(TenantSpec {
            id: id.into(),
            source: TenantSource::Resident(checkpoint.clone()),
        });
        self
    }

    /// Register a hot-swappable zoo tenant backed by a checkpoint file:
    /// the file is loaded at start, and `POST /admin/reload/<id>` re-reads
    /// it to flip the tenant to the new version without dropping traffic.
    pub fn tenant_from_path(
        mut self,
        id: impl Into<String>,
        path: impl Into<std::path::PathBuf>,
    ) -> Self {
        self.tenants.push(TenantSpec {
            id: id.into(),
            source: TenantSource::File(path.into()),
        });
        self
    }

    /// Which registered tenant bare `POST /predict` serves (defaults to the
    /// first registered tenant).
    pub fn default_model_id(mut self, id: impl Into<String>) -> Self {
        self.default_id = Some(id.into());
        self
    }

    /// Start a [`PredictServer`] with every worker restoring `checkpoint`,
    /// surfacing both checkpoint and configuration problems as typed
    /// errors before any worker thread spawns. Registered tenants play no
    /// part here.
    pub fn try_start_from_checkpoint(
        self,
        checkpoint: &Checkpoint,
    ) -> Result<PredictServer, StartError> {
        PredictServer::from_checkpoint(checkpoint, self.batching, self.tuning)
    }

    /// Serve `checkpoint` over HTTP: shorthand for registering it as the
    /// tenant [`DEFAULT_MODEL_ID`] and calling
    /// [`ServerBuilder::try_start_http`].
    pub fn try_start_http_from_checkpoint(
        self,
        checkpoint: &Checkpoint,
    ) -> Result<HttpServer, StartError> {
        self.tenant(DEFAULT_MODEL_ID, checkpoint).try_start_http()
    }

    /// Start every registered tenant (one [`PredictServer`] each, same
    /// batching and tuning across the zoo) behind an [`HttpServer`]
    /// configured by [`ServerBuilder::http`] / [`ServerBuilder::http_addr`]:
    /// `POST /predict/<id>` routes per tenant, `GET /model` lists the zoo,
    /// `POST /admin/reload/<id>` hot-swaps file-backed tenants. The
    /// returned front-end owns the zoo; shut it down with
    /// [`HttpServer::shutdown`].
    pub fn try_start_http(self) -> Result<HttpServer, StartError> {
        // Checked before any prediction worker starts, so a bad front-end
        // config never leaves threads behind.
        if self.http.connection_workers == 0 {
            return Err(ConfigError::ZeroConnectionWorkers.into());
        }
        let http = self.http.clone();
        Ok(HttpServer::launch(self.build_zoo()?, http)?)
    }

    /// Start every registered tenant as a [`ModelZoo`].
    pub(crate) fn build_zoo(self) -> Result<ModelZoo, StartError> {
        if self.tenants.is_empty() {
            return Err(ConfigError::NoTenants.into());
        }
        for (i, spec) in self.tenants.iter().enumerate() {
            if self.tenants[..i].iter().any(|other| other.id == spec.id) {
                return Err(ConfigError::DuplicateModelId {
                    id: spec.id.clone(),
                }
                .into());
            }
        }
        let mut specs = Vec::with_capacity(self.tenants.len());
        for spec in self.tenants {
            let (checkpoint, source) = match spec.source {
                TenantSource::Resident(checkpoint) => (checkpoint, None),
                TenantSource::File(path) => (Checkpoint::load(&path)?, Some(path)),
            };
            specs.push((spec.id, checkpoint, source));
        }
        let default_id = self.default_id.unwrap_or_else(|| specs[0].0.clone());
        ModelZoo::from_specs(specs, &default_id, self.batching, self.tuning)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtdbd_data::{weibo21_spec, GeneratorConfig, NewsGenerator};
    use std::sync::Arc;

    #[test]
    fn http_tenants_and_their_workers_share_the_checkpoint_weights() {
        let ds =
            NewsGenerator::new(weibo21_spec(), GeneratorConfig::tiny()).generate_scaled(5, 0.02);
        let mut store = ParamStore::new();
        let model = dtdbd_models::TextCnnModel::student(
            &mut store,
            &ModelConfig::tiny(&ds),
            &mut Prng::new(3),
        );
        let ckpt = Checkpoint::capture(&model, &store);
        let builder = ServerBuilder::new().workers(2).tenant("m", &ckpt);
        let TenantSource::Resident(source) = &builder.tenants[0].source else {
            panic!("a checkpoint tenant is resident");
        };
        assert!(Arc::ptr_eq(&source.params, &ckpt.params));
        // Once started, the holders are this test, the server's respawn
        // source and the two workers' sessions.
        let http = builder.http_addr("127.0.0.1:0").try_start_http().unwrap();
        assert_eq!(Arc::strong_count(&ckpt.params), 4);
        http.shutdown();
        assert_eq!(Arc::strong_count(&ckpt.params), 1);
    }

    #[test]
    fn build_model_refuses_zoo_models_that_are_not_servable() {
        let ds =
            NewsGenerator::new(weibo21_spec(), GeneratorConfig::tiny()).generate_scaled(5, 0.02);
        let cfg = ModelConfig::tiny(&ds);
        for arch in ["BERT", "MoSE", "TextCNN-U", ""] {
            assert!(
                matches!(
                    build_model(arch, &mut ParamStore::new(), &cfg),
                    Err(CheckpointError::Malformed(_))
                ),
                "{arch:?} must not build"
            );
        }
    }
}
