//! The multi-tenant model zoo: several resident checkpoints keyed by model
//! id, each with its own [`PredictServer`] (worker group, micro-batch
//! queue, prediction cache, supervision counters), plus zero-downtime
//! hot-swap.
//!
//! # Routing
//!
//! The HTTP front-end resolves `POST /predict/<id>` to the tenant named
//! `<id>`; bare `POST /predict` serves the zoo's configured default id, so
//! single-model deployments keep their wire protocol unchanged. `GET
//! /model` lists every tenant; `GET /model/<id>` describes one.
//!
//! # Hot-swap state machine
//!
//! `POST /admin/reload/<id>` walks one tenant through:
//!
//! ```text
//! serving vN ──load──▶ vN+1 built beside vN (own workers, fresh cache)
//!            ──warm──▶ one synthetic request through vN+1 (pools warm)
//!            ──flip──▶ under the swap lock: vN's served count is folded
//!                      into the tenant's retired total and the active Arc
//!                      points at vN+1; every *new* request snapshots vN+1
//!            ──drain─▶ wait for in-flight snapshots of vN to resolve
//!                      (each request runs entirely on the version it
//!                      snapshotted — batch-boundary granularity)
//!            ──retire▶ vN's queue drained, workers joined, and what it
//!                      served since the flip folded in too
//! ```
//!
//! Folding at the flip keeps `requests_served_total` monotone for a scrape
//! racing the reload; folding the drain delta when vN is finally dropped —
//! by the reload, or by the last request still holding it past the retire
//! deadline — loses none of vN's answers.
//!
//! Zero requests are dropped (the old server's shutdown drains every queued
//! job) and none are mis-versioned (a request holds its `Arc` snapshot from
//! encode to reply). Reloads of one tenant serialize behind a per-tenant
//! lock; other tenants keep serving untouched throughout.

use crate::builder::StartError;
use crate::checkpoint::Checkpoint;
use crate::server::{BatchingConfig, PredictServer, ServerTuning};
use dtdbd_data::InferenceRequest;
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// The model id bare `/predict` serves when the deployment never names one.
pub const DEFAULT_MODEL_ID: &str = "default";

/// How long [`ModelZoo::reload`] waits for in-flight requests against the
/// retired version to resolve before leaving its retirement (drain, join,
/// final counter fold) to the last in-flight holder's drop.
const RETIRE_DEADLINE: Duration = Duration::from_secs(30);

/// One version of one tenant's model: the serving core plus the descriptor
/// `GET /model/<id>` reports. Derefs to its [`PredictServer`], so handles
/// snapshotted from [`Tenant::model`] predict directly.
pub struct TenantModel {
    server: PredictServer,
    /// Checkpoint version ordinal: 1 for the registered checkpoint, +1 per
    /// successful reload.
    version: u64,
    /// Side-state chunk tags the checkpoint carried (model chunks only).
    side_state_tags: Vec<String>,
    /// Set when a reload flips this version out: the tenant's retired
    /// total and the served count already folded into it at the flip.
    retired: OnceLock<(Arc<AtomicU64>, u64)>,
}

impl TenantModel {
    /// Checkpoint version ordinal of this model (1-based, +1 per reload).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Side-state chunk tags of the checkpoint this model restored.
    pub fn side_state_tags(&self) -> &[String] {
        &self.side_state_tags
    }
}

impl Drop for TenantModel {
    fn drop(&mut self) {
        if let Some((total, folded)) = self.retired.get() {
            // Drain first: queued requests still count as served by vN.
            self.server.shutdown_impl();
            let served = self.server.stats().requests_served;
            total.fetch_add(served.saturating_sub(*folded), Ordering::Relaxed);
        }
    }
}

impl Deref for TenantModel {
    type Target = PredictServer;
    fn deref(&self) -> &PredictServer {
        &self.server
    }
}

/// One resident model id: the active version behind a swap point, plus the
/// counters that survive swaps.
pub struct Tenant {
    id: String,
    /// Checkpoint file the tenant reloads from; `None` = registered from a
    /// resident checkpoint, not reloadable.
    source: Option<PathBuf>,
    /// The swap point. Readers clone the `Arc` (one `RwLock` read + one
    /// refcount bump) and run their whole request against that snapshot.
    active: RwLock<Arc<TenantModel>>,
    /// Serializes reloads of this tenant (concurrent reloads of *different*
    /// tenants proceed independently).
    reload_lock: Mutex<()>,
    /// Successful hot-swaps performed.
    reloads: AtomicU64,
    /// Requests served by retired versions (folded in at the flip, plus
    /// each version's drain delta at retirement), so
    /// `requests_served_total` is monotone across swaps.
    retired_requests: Arc<AtomicU64>,
}

impl Tenant {
    /// The tenant's model id (the `<id>` of `POST /predict/<id>`).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Whether `POST /admin/reload/<id>` can re-read this tenant from disk.
    pub fn reloadable(&self) -> bool {
        self.source.is_some()
    }

    /// Snapshot the active version. The returned handle pins that version
    /// for the caller's whole request: a reload flipping the swap point
    /// mid-request never changes the model the request runs on.
    pub fn model(&self) -> Arc<TenantModel> {
        Arc::clone(&self.active.read().expect("swap point poisoned"))
    }

    /// Successful hot-swaps of this tenant.
    pub fn reloads(&self) -> u64 {
        self.reloads.load(Ordering::Relaxed)
    }

    /// Requests served across every version: the active server's count plus
    /// everything folded in from retired versions. Both terms are read under
    /// the swap lock, so a scrape never sees the fresh version's count
    /// without the retired one's.
    pub fn requests_served_total(&self) -> u64 {
        let active = self.active.read().expect("swap point poisoned");
        self.retired_requests.load(Ordering::Relaxed) + active.stats().requests_served
    }
}

/// Why a [`ModelZoo::reload`] failed. Each maps to one wire status: unknown
/// id → 404, no file source → 400, load/build trouble → 503 with retry
/// advice (the checkpoint on disk may still be mid-write).
#[derive(Debug)]
pub enum ReloadError {
    /// No tenant with the requested id.
    UnknownModel(String),
    /// The tenant was registered from a resident checkpoint, not a path —
    /// there is nothing on disk to re-read.
    NotReloadable(String),
    /// Loading or restoring the new checkpoint (or starting its workers)
    /// failed; the old version keeps serving untouched.
    Failed(StartError),
}

impl std::fmt::Display for ReloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownModel(id) => write!(f, "no model registered under id {id:?}"),
            Self::NotReloadable(id) => {
                write!(f, "model {id:?} has no checkpoint path to reload from")
            }
            Self::Failed(e) => write!(f, "reload failed, previous version kept: {e}"),
        }
    }
}

impl std::error::Error for ReloadError {}

/// The template a zoo builds tenant versions from, at start and on reload:
/// the same batching and tuning for every tenant (the drift baseline is
/// per-tenant and re-derived from each incoming checkpoint).
struct RebuildSpec {
    batching: BatchingConfig,
    tuning: ServerTuning,
}

impl RebuildSpec {
    /// Start version `version` of a tenant from `checkpoint`, recording the
    /// checkpoint's model side-state tags for `GET /model`.
    fn build(&self, checkpoint: &Checkpoint, version: u64) -> Result<TenantModel, StartError> {
        let server =
            PredictServer::from_checkpoint(checkpoint, self.batching.clone(), self.tuning.clone())?;
        let model_chunks = checkpoint.side_state.model_chunks();
        Ok(TenantModel {
            server,
            version,
            side_state_tags: model_chunks.tags().map(String::from).collect(),
            retired: OnceLock::new(),
        })
    }
}

/// Several resident models keyed by id, each hot-swappable without
/// dropping traffic. A single-model server is a zoo of one tenant under
/// [`DEFAULT_MODEL_ID`].
pub struct ModelZoo {
    tenants: Vec<Arc<Tenant>>,
    default_index: usize,
    rebuild: RebuildSpec,
}

impl ModelZoo {
    /// Build a zoo from registered tenant specs: `(id, checkpoint, file the
    /// tenant reloads from)`. Called by [`crate::ServerBuilder`].
    pub(crate) fn from_specs(
        specs: Vec<(String, Checkpoint, Option<PathBuf>)>,
        default_id: &str,
        batching: BatchingConfig,
        tuning: ServerTuning,
    ) -> Result<Self, StartError> {
        let rebuild = RebuildSpec { batching, tuning };
        let mut tenants = Vec::with_capacity(specs.len());
        for (id, checkpoint, source) in &specs {
            let model = rebuild.build(checkpoint, 1)?;
            tenants.push(Arc::new(Tenant {
                id: id.clone(),
                source: source.clone(),
                active: RwLock::new(Arc::new(model)),
                reload_lock: Mutex::new(()),
                reloads: AtomicU64::new(0),
                retired_requests: Arc::new(AtomicU64::new(0)),
            }));
        }
        let default_index = tenants.iter().position(|t| t.id == default_id).unwrap_or(0);
        Ok(Self {
            tenants,
            default_index,
            rebuild,
        })
    }

    /// Every resident tenant, in registration order.
    pub fn tenants(&self) -> &[Arc<Tenant>] {
        &self.tenants
    }

    /// The tenant bare `/predict` routes to.
    pub fn default_tenant(&self) -> &Arc<Tenant> {
        &self.tenants[self.default_index]
    }

    /// Model id of the default tenant.
    pub fn default_id(&self) -> &str {
        &self.tenants[self.default_index].id
    }

    /// Look a tenant up by id.
    pub fn tenant(&self, id: &str) -> Option<&Arc<Tenant>> {
        self.tenants.iter().find(|t| t.id == id)
    }

    /// Snapshot the default tenant's active model (what the single-model
    /// surfaces — bare `/predict`, top-level `/stats`, unlabeled `/metrics`
    /// families — serve).
    pub fn default_model(&self) -> Arc<TenantModel> {
        self.default_tenant().model()
    }

    /// Workers alive across every tenant, against the total configured —
    /// readiness means every tenant is at full capacity.
    pub fn workers_health(&self) -> (usize, usize) {
        let mut alive = 0;
        let mut configured = 0;
        for tenant in &self.tenants {
            let model = tenant.model();
            alive += model.workers_alive();
            configured += model.stats().workers;
        }
        (alive, configured)
    }

    /// Hot-swap one tenant to the current contents of its checkpoint file.
    /// Returns the new version ordinal. The swap is atomic at batch
    /// boundaries: requests that snapshotted vN finish on vN, requests
    /// arriving after the flip run on vN+1, nothing is dropped.
    pub fn reload(&self, id: &str) -> Result<u64, ReloadError> {
        let tenant = self
            .tenant(id)
            .ok_or_else(|| ReloadError::UnknownModel(id.to_string()))?;
        let _guard = tenant
            .reload_lock
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let source = tenant
            .source
            .as_ref()
            .ok_or_else(|| ReloadError::NotReloadable(id.to_string()))?;
        let checkpoint =
            Checkpoint::load(source).map_err(|e| ReloadError::Failed(StartError::Checkpoint(e)))?;
        let old = tenant.model();
        let next_version = old.version() + 1;
        let fresh = self
            .rebuild
            .build(&checkpoint, next_version)
            .map_err(ReloadError::Failed)?;
        // Warm the new version before it takes traffic: one synthetic
        // request forces the first forward pass (buffer pools allocate,
        // caches prime) off the serving path. The warm request counts in
        // the new version's served total — exactly one per reload, which
        // the parity battery reconciles against.
        let _ = fresh.predict(&warm_request());
        {
            let mut active = tenant.active.write().expect("swap point poisoned");
            let folded = old.stats().requests_served;
            tenant.retired_requests.fetch_add(folded, Ordering::Relaxed);
            let _ = old
                .retired
                .set((Arc::clone(&tenant.retired_requests), folded));
            *active = Arc::new(fresh);
        }
        // Drain: in-flight requests hold their own snapshots of vN; once
        // the last one resolves, ours is the only reference left, and
        // dropping it retires vN (see `TenantModel`'s `Drop`). Past the
        // deadline the last holder retires it instead.
        let deadline = Instant::now() + RETIRE_DEADLINE;
        let mut old = old;
        loop {
            match Arc::try_unwrap(old) {
                Ok(model) => {
                    drop(model);
                    break;
                }
                Err(still_shared) if Instant::now() >= deadline => {
                    drop(still_shared);
                    break;
                }
                Err(still_shared) => {
                    old = still_shared;
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
        tenant.reloads.fetch_add(1, Ordering::Relaxed);
        Ok(next_version)
    }
}

/// The synthetic request reloads warm new versions with: the first token of
/// the vocabulary in the first domain — valid under every corpus geometry
/// the generator produces.
fn warm_request() -> InferenceRequest {
    InferenceRequest::new(vec![0], 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ServerBuilder;
    use dtdbd_data::{weibo21_spec, GeneratorConfig, NewsGenerator};
    use dtdbd_models::{ModelConfig, TextCnnModel};
    use dtdbd_tensor::rng::Prng;
    use dtdbd_tensor::ParamStore;

    #[test]
    fn the_served_total_never_dips_while_a_retired_version_drains() {
        let ds =
            NewsGenerator::new(weibo21_spec(), GeneratorConfig::tiny()).generate_scaled(4, 0.02);
        let cfg = ModelConfig::tiny(&ds);
        let mut store = ParamStore::new();
        let model = TextCnnModel::student(&mut store, &cfg, &mut Prng::new(7));
        let path = std::env::temp_dir().join(format!(
            "dtdbd-zoo-served-fold-{}.dtdbd",
            std::process::id()
        ));
        Checkpoint::capture(&model, &store)
            .save(&path)
            .expect("write checkpoint");
        let zoo = Arc::new(
            ServerBuilder::new()
                .workers(1)
                .cache_capacity(0)
                .tenant_from_path("m", &path)
                .build_zoo()
                .expect("start zoo"),
        );
        let tenant = Arc::clone(zoo.tenant("m").expect("registered"));
        let request = |i: usize| {
            let item = &ds.items()[i];
            InferenceRequest::new(item.tokens.clone(), item.domain)
        };
        const N: u64 = 5;
        for i in 0..N as usize {
            tenant.model().predict(&request(i)).expect("v1 answers");
        }
        assert_eq!(tenant.requests_served_total(), N);

        // Pin v1 the way an in-flight request does, then reload beside it.
        let pinned = tenant.model();
        let reload = {
            let zoo = Arc::clone(&zoo);
            std::thread::spawn(move || zoo.reload("m").map_err(|e| e.to_string()))
        };
        let t0 = Instant::now();
        while tenant.model().version() != 2 {
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "reload never flipped"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // v2 has served only its warm request; v1's N must still count.
        let during = tenant.requests_served_total();
        assert!(
            during > N,
            "served total dipped to {during} while v1 drains (expected >= {})",
            N + 1
        );
        // What v1 serves after the flip is folded in when it retires.
        pinned
            .predict(&request(0))
            .expect("pinned v1 still answers");
        drop(pinned);
        assert_eq!(reload.join().expect("reload thread"), Ok(2));
        assert_eq!(tenant.requests_served_total(), N + 1 + 1);
        std::fs::remove_file(&path).ok();
    }
}
