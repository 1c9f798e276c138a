//! The one declaration of every serving counter, and the renderers that
//! walk it.
//!
//! Each [`Row`] declares a metric once: Prometheus family, kind, help,
//! label pair, `GET /stats` JSON path and a reader over a [`Snapshot`].
//! `/stats`, `/metrics` and the shared fields of `GET /model[/<id>]` are all
//! rendered from these tables, so a counter cannot reach one surface and
//! miss another. [`ROWS`] describe the listener and the default model;
//! [`MODEL_ROWS`] one tenant (`/stats.models.<id>`, `model` label);
//! [`TELEMETRY_ROWS`] and [`DRIFT_ROWS`] the default model's telemetry
//! (`arch` label; one `drift[]` entry and `domain` label per domain). The
//! stage and kernel latency histograms render through [`quantiles`] in
//! `/stats` and [`write_histograms`] in `/metrics`.
//!
//! A number renders as itself; a boolean as `true`/`false` and 1/0; a
//! string as a string and as a value-1 gauge whose row label carries it;
//! `null` (a drift value without data) as `null` and no sample.
//!
//! The default model's `requests_served` is folded across checkpoint
//! versions; its other counters describe the active version and restart
//! from 0 on a hot-swap.

use crate::http::Ctx;
use crate::json::Json;
use crate::prom::{MetricKind, PromText};
use crate::server::ServingStats;
use crate::telemetry::{DomainDrift, HistogramSnapshot, Stage, TelemetrySnapshot};
use crate::zoo::{Tenant, TenantModel};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use MetricKind::{Counter, Gauge};

/// The listener's counters, one slot each in [`HttpStats`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum HttpCounter {
    Connections,
    ConnectionsRejected,
    /// Connections currently open (accepted and not yet closed).
    OpenConnections,
    /// Requests cut at `request_timeout` (slow-loris guard; answered `408`
    /// while a wire exists, silent close for a stalled response reader).
    RequestTimeouts,
    /// Idle keep-alive connections closed at `read_timeout`.
    IdleTimeouts,
    /// Entries in the event loop's deadline queue: about one per open
    /// connection, plus superseded entries not yet due (0 under the pool
    /// model).
    DeadlinesArmed,
    ItemsPredicted,
    // Requests by endpoint.
    Predict,
    Healthz,
    Readyz,
    Stats,
    Metrics,
    Model,
    Reload,
    // Responses by status class.
    Responses2xx,
    Responses4xx,
    Responses5xx,
}

const COUNTERS: usize = HttpCounter::Responses5xx as usize + 1;

/// Per-endpoint and per-connection counters of one listener, indexed by
/// [`HttpCounter`]. Every update on the request path is one relaxed atomic op.
#[derive(Debug, Default)]
pub(crate) struct HttpStats([AtomicU64; COUNTERS]);

impl HttpStats {
    pub(crate) fn get(&self, counter: HttpCounter) -> &AtomicU64 {
        &self.0[counter as usize]
    }

    pub(crate) fn bump(&self, counter: HttpCounter) {
        self.get(counter).fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_response(&self, status: u16) {
        self.bump(match status {
            200..=299 => HttpCounter::Responses2xx,
            400..=499 => HttpCounter::Responses4xx,
            _ => HttpCounter::Responses5xx,
        });
    }
}

/// One tenant as a scrape sees it: one snapshot of its active version feeds
/// every per-version field, so a scrape racing a hot-swap never mixes two
/// versions' counters.
pub(crate) struct TenantSnapshot {
    id: String,
    default: bool,
    reloadable: bool,
    reloads: u64,
    served_total: u64,
    model: Arc<TenantModel>,
    stats: ServingStats,
    workers_alive: usize,
}

impl TenantSnapshot {
    pub(crate) fn capture(tenant: &Tenant, ctx: &Ctx) -> Self {
        let model = tenant.model();
        Self {
            id: tenant.id().to_string(),
            default: tenant.id() == ctx.zoo.default_id(),
            reloadable: tenant.reloadable(),
            reloads: tenant.reloads(),
            served_total: tenant.requests_served_total(),
            stats: model.stats(),
            workers_alive: model.workers_alive(),
            model,
        }
    }

    /// The `GET /model[/<id>]` descriptor: the [`MODEL_ROWS`] fields plus
    /// the descriptor's own `model`, `default`, `reloadable` and
    /// `side_state`.
    pub(crate) fn descriptor(&self) -> Json {
        let mut obj = vec![("model".to_string(), self.id.as_str().into())];
        put_rows(&mut obj, MODEL_ROWS, self);
        let tags = self.model.side_state_tags().iter();
        obj.extend([
            ("default".to_string(), self.default.into()),
            ("reloadable".to_string(), self.reloadable.into()),
            (
                "side_state".to_string(),
                Json::Arr(tags.map(|t| t.as_str().into()).collect()),
            ),
        ]);
        Json::Obj(obj)
    }
}

/// Everything one scrape reads, captured once: `/stats` and `/metrics`
/// rendered from the same snapshot agree value for value.
pub(crate) struct Snapshot {
    ready: bool,
    connection_model: &'static str,
    http: [u64; COUNTERS],
    tenants: Vec<TenantSnapshot>,
    /// Index of the default tenant in `tenants`.
    default: usize,
    /// The default model's telemetry (`None` when disabled).
    telemetry: Option<TelemetrySnapshot>,
}

impl Snapshot {
    pub(crate) fn capture(ctx: &Ctx) -> Self {
        let tenants: Vec<TenantSnapshot> = ctx
            .zoo
            .tenants()
            .iter()
            .map(|t| TenantSnapshot::capture(t, ctx))
            .collect();
        let default = tenants.iter().position(|t| t.default).unwrap_or(0);
        Self {
            ready: is_ready(ctx),
            connection_model: ctx.connection_model,
            http: std::array::from_fn(|i| ctx.stats.0[i].load(Ordering::Relaxed)),
            telemetry: tenants[default].model.telemetry().map(|t| t.snapshot()),
            tenants,
            default,
        }
    }

    /// The default tenant, which the unlabelled rows describe.
    fn top(&self) -> &TenantSnapshot {
        &self.tenants[self.default]
    }

    fn counter(&self, counter: HttpCounter) -> Json {
        self.http[counter as usize].into()
    }
}

/// One declared metric.
struct Row<S> {
    kind: MetricKind,
    /// Prometheus family. Rows of one family sit next to each other and
    /// differ in their label value; only the first carries the help text.
    name: &'static str,
    /// `""` for none, `"key=value"` for a fixed pair, or a bare `"key"` for
    /// a string row, whose value becomes the label value.
    label: &'static str,
    /// Dot-separated location of the value in `/stats`, relative to the
    /// row set's instance object.
    path: &'static str,
    read: fn(&S) -> Json,
    help: &'static str,
}

const fn row<S>(
    kind: MetricKind,
    name: &'static str,
    label: &'static str,
    path: &'static str,
    read: fn(&S) -> Json,
    help: &'static str,
) -> Row<S> {
    Row {
        kind,
        name,
        label,
        path,
        read,
        help,
    }
}

#[rustfmt::skip]
static ROWS: &[Row<Snapshot>] = &[
    row(Gauge, "dtdbd_ready", "", "ready", |s| s.ready.into(),
        "1 while GET /readyz answers 200, else 0."),
    row(Gauge, "dtdbd_queue_depth", "", "queue_depth", |s| s.top().stats.queue_depth.into(),
        "Requests currently queued for the default model's prediction workers."),
    row(Counter, "dtdbd_requests_served_total", "", "requests_served", |s| s.top().served_total.into(),
        "Requests answered by the default model across every checkpoint version (never \
         decreases on a hot-swap). The other unlabelled model counters describe the active \
         version and restart from 0 on a swap."),
    row(Counter, "dtdbd_batches_total", "", "batches", |s| s.top().stats.batches.into(),
        "Coalesced batches dispatched to the prediction workers (active version)."),
    row(Gauge, "dtdbd_workers", "", "workers", |s| s.top().stats.workers.into(),
        "Configured prediction workers."),
    row(Gauge, "dtdbd_workers_alive", "", "workers_alive", |s| s.top().workers_alive.into(),
        "Prediction workers whose threads are still running."),
    row(Counter, "dtdbd_pool_reuse_hits_total", "", "pool.reuse_hits", |s| s.top().stats.pool_reuse_hits.into(),
        "Activation buffers recycled from the per-worker pools (active version)."),
    row(Counter, "dtdbd_pool_alloc_misses_total", "", "pool.alloc_misses", |s| s.top().stats.pool_alloc_misses.into(),
        "Activation buffers freshly allocated by the per-worker pools (active version)."),
    row(Counter, "dtdbd_cache_requests_total", "outcome=hit", "cache.hits", |s| s.top().stats.cache.hits.into(),
        "Prediction cache lookups by outcome (active version)."),
    row(Counter, "dtdbd_cache_requests_total", "outcome=miss", "cache.misses", |s| s.top().stats.cache.misses.into(), ""),
    row(Counter, "dtdbd_cache_evictions_total", "", "cache.evictions", |s| s.top().stats.cache.evictions.into(),
        "Prediction cache LRU evictions (active version)."),
    row(Gauge, "dtdbd_cache_entries", "", "cache.entries", |s| s.top().stats.cache.entries.into(),
        "Prediction cache entries resident."),
    row(Gauge, "dtdbd_cache_capacity", "", "cache.capacity", |s| s.top().stats.cache.capacity.into(),
        "Prediction cache capacity bound (0 when the cache is off)."),
    row(Gauge, "dtdbd_resident_param_bytes_per_worker", "", "memory.resident_param_bytes_per_worker",
        |s| s.top().stats.resident_param_bytes_per_worker.into(),
        "Mean bytes of parameters resident in each worker's session."),
    row(Counter, "dtdbd_worker_panics_total", "", "supervision.worker_panics", |s| s.top().stats.worker_panics.into(),
        "Prediction-worker batch-loop panics caught by the supervisor (active version)."),
    row(Counter, "dtdbd_worker_restarts_total", "", "supervision.worker_restarts", |s| s.top().stats.worker_restarts.into(),
        "Prediction workers respawned with a fresh session after a panic (active version)."),
    row(Counter, "dtdbd_requests_deadline_dropped_total", "", "supervision.requests_deadline_dropped",
        |s| s.top().stats.requests_deadline_dropped.into(),
        "Requests shed before inference because their deadline budget expired in the micro-batch queue."),
    row(Counter, "dtdbd_http_requests_total", "endpoint=predict", "endpoints.predict", |s| s.counter(HttpCounter::Predict),
        "Requests by endpoint."),
    row(Counter, "dtdbd_http_requests_total", "endpoint=healthz", "endpoints.healthz", |s| s.counter(HttpCounter::Healthz), ""),
    row(Counter, "dtdbd_http_requests_total", "endpoint=readyz", "endpoints.readyz", |s| s.counter(HttpCounter::Readyz), ""),
    row(Counter, "dtdbd_http_requests_total", "endpoint=stats", "endpoints.stats", |s| s.counter(HttpCounter::Stats), ""),
    row(Counter, "dtdbd_http_requests_total", "endpoint=metrics", "endpoints.metrics", |s| s.counter(HttpCounter::Metrics), ""),
    row(Counter, "dtdbd_http_requests_total", "endpoint=model", "endpoints.model", |s| s.counter(HttpCounter::Model), ""),
    row(Counter, "dtdbd_http_requests_total", "endpoint=reload", "endpoints.reload", |s| s.counter(HttpCounter::Reload), ""),
    row(Gauge, "dtdbd_http_connection_model", "model", "http.connection_model", |s| s.connection_model.into(),
        "1 for the connection model serving this listener (epoll or pool)."),
    row(Counter, "dtdbd_http_connections_total", "", "http.connections", |s| s.counter(HttpCounter::Connections),
        "TCP connections accepted by the listener."),
    row(Counter, "dtdbd_http_connections_rejected_total", "", "http.connections_rejected", |s| s.counter(HttpCounter::ConnectionsRejected),
        "Work shed with 503 overloaded because the queue in front of the handlers was full: \
         accepted connections under the pool model, parsed requests at the dispatch queue under epoll."),
    row(Gauge, "dtdbd_http_open_connections", "", "http.open_connections", |s| s.counter(HttpCounter::OpenConnections),
        "Connections currently open (accepted and not yet closed)."),
    row(Counter, "dtdbd_http_timeouts_total", "kind=request", "http.request_timeouts", |s| s.counter(HttpCounter::RequestTimeouts),
        "Connections cut by a deadline: kind=request is the slow-loris request_timeout (408), \
         kind=idle the keep-alive read_timeout."),
    row(Counter, "dtdbd_http_timeouts_total", "kind=idle", "http.idle_timeouts", |s| s.counter(HttpCounter::IdleTimeouts), ""),
    row(Gauge, "dtdbd_http_deadlines_armed", "", "http.deadlines_armed", |s| s.counter(HttpCounter::DeadlinesArmed),
        "Entries in the event loop's deadline queue: about one per open connection, plus \
         superseded ones not yet due (0 under the pool model)."),
    row(Counter, "dtdbd_items_predicted_total", "", "http.items_predicted", |s| s.counter(HttpCounter::ItemsPredicted),
        "Prediction items received over the wire (batch bodies count each item)."),
    row(Counter, "dtdbd_http_responses_total", "class=2xx", "http.responses_2xx", |s| s.counter(HttpCounter::Responses2xx),
        "HTTP responses by status class."),
    row(Counter, "dtdbd_http_responses_total", "class=4xx", "http.responses_4xx", |s| s.counter(HttpCounter::Responses4xx), ""),
    row(Counter, "dtdbd_http_responses_total", "class=5xx", "http.responses_5xx", |s| s.counter(HttpCounter::Responses5xx), ""),
];

#[rustfmt::skip]
static MODEL_ROWS: &[Row<TenantSnapshot>] = &[
    row(Gauge, "dtdbd_model_version", "", "version", |t| t.model.version().into(),
        "Checkpoint version ordinal each model id serves (1-based, +1 per hot-swap)."),
    row(Counter, "dtdbd_model_reloads_total", "", "reloads", |t| t.reloads.into(),
        "Successful zero-downtime hot-swaps per model id."),
    row(Counter, "dtdbd_model_requests_served_total", "", "requests_served_total", |t| t.served_total.into(),
        "Requests served per model id, monotone across checkpoint versions (retired versions \
         fold their counts in at swap time)."),
    row(Counter, "dtdbd_model_requests_served_active_total", "", "requests_served_active", |t| t.stats.requests_served.into(),
        "Requests served by each model id's active version (restarts from 0 on a hot-swap)."),
    row(Gauge, "dtdbd_model_queue_depth", "", "queue_depth", |t| t.stats.queue_depth.into(),
        "Requests queued for each model id's active version."),
    row(Gauge, "dtdbd_model_workers", "", "workers", |t| t.stats.workers.into(),
        "Configured prediction workers of each model id's active version."),
    row(Gauge, "dtdbd_model_workers_alive", "", "workers_alive", |t| t.workers_alive.into(),
        "Live prediction workers of each model id's active version."),
    row(Gauge, "dtdbd_model_arch", "arch", "arch", |t| t.model.arch().into(),
        "1 for the architecture each model id serves."),
];

#[rustfmt::skip]
static TELEMETRY_ROWS: &[Row<TelemetrySnapshot>] = &[
    row(Counter, "dtdbd_predictions_non_finite_total", "", "predictions_non_finite", |t| t.predictions_non_finite.into(),
        "Predictions whose probability was NaN or infinite; counted here and excluded from \
         the drift buckets and mean-shift."),
];

// The per-domain view of live predictions: serving-side evidence for the
// cross-domain bias the distillation is meant to remove.
#[rustfmt::skip]
static DRIFT_ROWS: &[Row<DomainDrift>] = &[
    row(Counter, "dtdbd_domain_predictions_total", "", "live_count", |d| d.live_count.into(),
        "Predictions observed per domain by the drift tracker."),
    row(Gauge, "dtdbd_domain_live_mean", "", "live_mean", |d| d.live_mean.into(),
        "Mean live fake-probability per domain."),
    row(Gauge, "dtdbd_domain_baseline_predictions", "", "baseline_count", |d| d.baseline_count.into(),
        "Predictions per domain in the training-time baseline (0 without one)."),
    row(Gauge, "dtdbd_domain_baseline_mean", "", "baseline_mean", |d| d.baseline_mean.into(),
        "Mean fake-probability per domain in the training-time baseline."),
    row(Gauge, "dtdbd_domain_mean_shift", "", "mean_shift", |d| d.mean_shift.into(),
        "Absolute shift of the mean fake-probability against the training baseline."),
    row(Gauge, "dtdbd_domain_drift_score", "", "score", |d| d.score.into(),
        "Bucketed total-variation distance of the live fake-probability distribution against \
         the training baseline, in [0, 1]."),
];

/// The latency histogram families: (name, help).
const STAGE_LATENCY: (&str, &str) = (
    "dtdbd_stage_latency_seconds",
    "Wall-clock time per request stage; recorder is \"http\" for the connection threads or \
     a prediction worker index.",
);
const KERNEL_LATENCY: (&str, &str) = (
    "dtdbd_kernel_latency_seconds",
    "Wall-clock time per tensor kernel invocation.",
);

/// `/stats` view of a histogram: count, mean and quantiles in µs.
fn quantiles(h: &HistogramSnapshot) -> Json {
    let us = |ns: f64| Json::Num(ns / 1_000.0);
    Json::Obj(vec![
        ("count".into(), h.count.into()),
        ("mean_us".into(), us(h.mean_ns())),
        ("p50_us".into(), us(h.quantile_ns(0.5))),
        ("p90_us".into(), us(h.quantile_ns(0.9))),
        ("p99_us".into(), us(h.quantile_ns(0.99))),
    ])
}

/// Set `value` at a dot-separated `path`, creating objects on the way.
fn insert(obj: &mut Vec<(String, Json)>, path: &str, value: Json) {
    let Some((head, rest)) = path.split_once('.') else {
        obj.push((path.to_string(), value));
        return;
    };
    let i = match obj.iter().position(|(k, _)| k == head) {
        Some(i) => i,
        None => {
            obj.push((head.to_string(), Json::Obj(Vec::new())));
            obj.len() - 1
        }
    };
    if let Json::Obj(inner) = &mut obj[i].1 {
        insert(inner, rest, value);
    }
}

fn put_rows<S>(obj: &mut Vec<(String, Json)>, rows: &[Row<S>], instance: &S) {
    for row in rows {
        insert(obj, row.path, (row.read)(instance));
    }
}

/// The `GET /stats` document.
pub(crate) fn stats_json(s: &Snapshot) -> Json {
    let mut root = Vec::new();
    put_rows(&mut root, ROWS, s);
    let models = s.tenants.iter().map(|t| {
        let mut obj = Vec::new();
        put_rows(&mut obj, MODEL_ROWS, t);
        (t.id.clone(), Json::Obj(obj))
    });
    root.push(("models".into(), Json::Obj(models.collect())));
    if let Some(t) = &s.telemetry {
        let stages = Stage::ALL.map(|st| (st.name().to_string(), quantiles(&t.stage_total(st))));
        let kernels = t.kernels.iter().map(|(k, h)| (k.to_string(), quantiles(h)));
        root.push(("stages".into(), Json::Obj(stages.into())));
        root.push(("kernels".into(), Json::Obj(kernels.collect())));
        let drift = t.drift.iter().map(|d| {
            let mut obj = vec![("domain".to_string(), d.domain.into())];
            put_rows(&mut obj, DRIFT_ROWS, d);
            Json::Obj(obj)
        });
        root.push(("drift".into(), Json::Arr(drift.collect())));
        put_rows(&mut root, TELEMETRY_ROWS, t);
    }
    Json::Obj(root)
}

/// Emit every row of `rows` for every instance, family by family. A
/// family's header is written with its first sample, so a family whose
/// values are all `null` is left out entirely.
fn write_rows<S>(page: &mut PromText, rows: &[Row<S>], instances: &[(Vec<(&str, &str)>, &S)]) {
    let mut open = "";
    for row in rows {
        let (key, fixed) = row.label.split_once('=').unwrap_or((row.label, ""));
        for (labels, instance) in instances {
            let (v, label_value) = match (row.read)(instance) {
                Json::Num(v) => (v, fixed.to_string()),
                Json::Bool(b) => (f64::from(u8::from(b)), fixed.to_string()),
                Json::Str(s) => (1.0, s),
                _ => continue,
            };
            if open != row.name {
                let first = rows.iter().find(|r| r.name == row.name);
                page.family(row.name, row.kind, first.map_or("", |r| r.help));
                open = row.name;
            }
            let mut labels = labels.clone();
            if !key.is_empty() {
                labels.push((key, &label_value));
            }
            page.sample(row.name, &labels, v);
        }
    }
}

/// Emit the non-empty series of one histogram family (wire stages on
/// workers, and vice versa, stay structurally empty).
fn write_histograms<'a>(
    page: &mut PromText,
    (name, help): (&str, &str),
    series: impl Iterator<Item = (Vec<(&'a str, &'a str)>, &'a HistogramSnapshot)>,
) {
    let mut open = false;
    for (labels, h) in series.filter(|(_, h)| h.count > 0) {
        if !open {
            page.family(name, MetricKind::Histogram, help);
            open = true;
        }
        page.histogram(name, &labels, h);
    }
}

/// The `GET /metrics` page, Prometheus text exposition format 0.0.4.
pub(crate) fn metrics_text(s: &Snapshot) -> String {
    let mut page = PromText::new();
    write_rows(&mut page, ROWS, &[(Vec::new(), s)]);
    let tenants: Vec<_> = s
        .tenants
        .iter()
        .map(|t| (vec![("model", t.id.as_str())], t))
        .collect();
    write_rows(&mut page, MODEL_ROWS, &tenants);
    if let Some(t) = &s.telemetry {
        let stages = t.recorders.iter().flat_map(|(recorder, stages)| {
            let labels = |st: &Stage| {
                vec![
                    ("arch", t.arch),
                    ("recorder", recorder),
                    ("stage", st.name()),
                ]
            };
            stages.iter().map(move |(st, h)| (labels(st), h))
        });
        write_histograms(&mut page, STAGE_LATENCY, stages);
        let kernels = t
            .kernels
            .iter()
            .map(|(k, h)| (vec![("arch", t.arch), ("kernel", *k)], h));
        write_histograms(&mut page, KERNEL_LATENCY, kernels);
        write_rows(&mut page, TELEMETRY_ROWS, &[(vec![("arch", t.arch)], t)]);
        let domains: Vec<String> = t.drift.iter().map(|d| d.domain.to_string()).collect();
        let per_domain: Vec<_> = (t.drift.iter().zip(&domains))
            .map(|(d, domain)| (vec![("arch", t.arch), ("domain", domain.as_str())], d))
            .collect();
        write_rows(&mut page, DRIFT_ROWS, &per_domain);
    }
    page.into_string()
}

/// The `GET /model` body: the default id and every tenant's descriptor.
pub(crate) fn model_listing(ctx: &Ctx) -> Json {
    let tenants = ctx.zoo.tenants().iter();
    let descriptors = tenants.map(|t| TenantSnapshot::capture(t, ctx).descriptor());
    Json::Obj(vec![
        ("default".into(), ctx.zoo.default_id().into()),
        ("models".into(), Json::Arr(descriptors.collect())),
    ])
}

/// Readiness as `GET /readyz` reports it: not draining, not shut down, and
/// every prediction worker of **every** tenant still alive.
fn is_ready(ctx: &Ctx) -> bool {
    if ctx.draining_or_shutdown() {
        return false;
    }
    let (alive, configured) = ctx.zoo.workers_health();
    alive == configured
}

/// The `GET /readyz` body and whether the listener is ready.
pub(crate) fn readyz_json(ctx: &Ctx) -> (bool, Json) {
    let ready = is_ready(ctx);
    let (alive, configured) = ctx.zoo.workers_health();
    let tenants = ctx.zoo.tenants().iter();
    let queue_depth: usize = tenants.map(|t| t.model().queue_depth()).sum();
    let draining = ctx.draining.load(Ordering::SeqCst);
    let body = Json::Obj(vec![
        ("ready".into(), ready.into()),
        ("draining".into(), draining.into()),
        ("queue_depth".into(), queue_depth.into()),
        ("workers_alive".into(), alive.into()),
        ("workers".into(), configured.into()),
    ]);
    (ready, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::HttpClient;
    use crate::{json, prom, Checkpoint, DomainBaseline, ServerBuilder};
    use dtdbd_data::{weibo21_spec, GeneratorConfig, InferenceRequest, NewsGenerator};
    use dtdbd_models::{ModelConfig, TextCnnModel};
    use dtdbd_tensor::{rng::Prng, ParamStore};
    use std::collections::HashMap;

    /// A sample's identity: `name{k=v,...}` with the labels sorted.
    fn key(name: &str, labels: &[(&str, &str)]) -> String {
        let mut pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
        pairs.sort();
        format!("{name}{{{}}}", pairs.join(","))
    }

    /// Every sample of a page by [`key`] (label values here hold no `,`).
    fn samples(page: &str) -> HashMap<String, f64> {
        let parse = |line: &str| {
            let (series, value) = line.rsplit_once(' ').expect("sample value");
            let (name, labels) = series.split_once('{').unwrap_or((series, ""));
            let labels: Vec<_> = (labels.trim_end_matches('}').split(','))
                .filter_map(|kv| kv.split_once('='))
                .map(|(k, v)| (k, v.trim_matches('"')))
                .collect();
            (key(name, &labels), value.parse().expect("numeric sample"))
        };
        page.lines()
            .filter(|l| !l.starts_with('#'))
            .map(parse)
            .collect()
    }

    /// Scalar `/stats` leaves by dotted path, drift entries keyed by their
    /// domain. The histogram objects are checked against `_count` instead.
    fn leaves(doc: &Json, path: String, out: &mut HashMap<String, Json>) {
        match doc {
            Json::Obj(entries) => {
                for (k, v) in entries {
                    let histogram = path.is_empty() && (k == "stages" || k == "kernels");
                    if !(histogram || k == "domain" && path.starts_with("drift.")) {
                        leaves(v, format!("{path}{k}."), out);
                    }
                }
            }
            Json::Arr(items) => {
                for item in items {
                    let domain = item.get("domain").expect("drift domain").render();
                    leaves(item, format!("{path}{domain}."), out);
                }
            }
            leaf => {
                out.insert(path.trim_end_matches('.').to_string(), leaf.clone());
            }
        }
    }

    /// The (`/stats` path, `/metrics` sample) each row links for one
    /// instance. A string row's label value is read back from `/stats`.
    fn link<S>(
        rows: &[Row<S>],
        prefix: &str,
        labels: &[(&str, &str)],
        stats: &HashMap<String, Json>,
    ) -> Vec<(String, String)> {
        let pair = |row: &Row<S>| {
            let path = format!("{prefix}{}", row.path);
            let mut labels = labels.to_vec();
            match row.label.split_once('=') {
                Some(pair) => labels.push(pair),
                None if !row.label.is_empty() => {
                    labels.push((row.label, stats[&path].as_str().unwrap()))
                }
                None => {}
            }
            let sample = key(row.name, &labels);
            (path, sample)
        };
        rows.iter().map(pair).collect()
    }

    #[test]
    fn stats_and_metrics_render_one_snapshot_consistently() {
        let ds =
            NewsGenerator::new(weibo21_spec(), GeneratorConfig::tiny()).generate_scaled(8, 0.02);
        // Two tenants, the default one read from a file so it can be
        // hot-swapped. The cache and a baseline that leaves the last domain
        // out give every family data, and some drift values stay null.
        let observations = (0..ds.n_domains() - 1).flat_map(|d| [(d, 0.2), (d, 0.7)]);
        let baseline = DomainBaseline::from_observations(ds.n_domains(), observations);
        let checkpoint = |seed| {
            let mut store = ParamStore::new();
            let model =
                TextCnnModel::student(&mut store, &ModelConfig::tiny(&ds), &mut Prng::new(seed));
            let mut checkpoint = Checkpoint::capture(&model, &store);
            checkpoint.set_telemetry_baseline(&baseline);
            checkpoint
        };
        let path = std::env::temp_dir().join(format!("dtdbd-surface-{}", std::process::id()));
        checkpoint(7).save(&path).expect("write checkpoint");
        let server = ServerBuilder::new()
            .cache_capacity(64)
            .tenant_from_path("a", &path)
            .tenant("b", &checkpoint(9))
            .default_model_id("a")
            .try_start_http()
            .expect("start zoo");
        let mut client = HttpClient::connect(server.local_addr()).unwrap();
        for reload in [true, false] {
            // Both tenants; the repeats hit the cache.
            for item in ds.items().iter().take(6).chain(&ds.items()[..2]) {
                let request = InferenceRequest::new(item.tokens.clone(), item.domain);
                let body = json::encode_request(&request).render();
                for route in ["/predict", "/predict/b"] {
                    assert_eq!(client.post(route, &body).unwrap().status, 200);
                }
            }
            if reload {
                assert_eq!(client.post("/admin/reload/a", "").unwrap().status, 200);
            }
        }
        assert_eq!(client.post("/predict", "{").unwrap().status, 400);
        for route in ["/stats", "/metrics", "/model", "/healthz", "/readyz"] {
            assert_eq!(client.get(route).unwrap().status, 200);
        }

        let snap = Snapshot::capture(&server.ctx);
        let doc = json::parse(&stats_json(&snap).render()).expect("stats JSON");
        let page = metrics_text(&snap);
        prom::lint(&page).unwrap_or_else(|e| panic!("{e}\n---\n{page}"));
        let samples = samples(&page);
        let mut stats = HashMap::new();
        leaves(&doc, String::new(), &mut stats);
        let arch = snap.telemetry.as_ref().expect("telemetry on").arch;
        let mut links = link(ROWS, "", &[], &stats);
        for id in ["a", "b"] {
            links.extend(link(
                MODEL_ROWS,
                &format!("models.{id}."),
                &[("model", id)],
                &stats,
            ));
        }
        links.extend(link(TELEMETRY_ROWS, "", &[("arch", arch)], &stats));
        for d in (0..ds.n_domains()).map(|d| d.to_string()) {
            let labels = [("arch", arch), ("domain", d.as_str())];
            links.extend(link(DRIFT_ROWS, &format!("drift.{d}."), &labels, &stats));
        }

        // Every scalar sample equals its `/stats` leaf; a null leaf has none.
        for (path, sample) in &links {
            let expected = match &stats[path] {
                Json::Null => None,
                Json::Num(v) => Some(*v),
                Json::Bool(b) => Some(f64::from(u8::from(*b))),
                Json::Str(_) => Some(1.0),
                other => panic!("{path} is not a scalar: {other:?}"),
            };
            assert_eq!(samples.get(sample).copied(), expected, "{path} vs {sample}");
        }
        // Nothing on either surface escapes the declaration.
        for path in stats.keys() {
            assert!(
                links.iter().any(|(p, _)| p == path),
                "/stats {path} is undeclared"
            );
        }
        let families = [
            ("stages", "stage", STAGE_LATENCY.0),
            ("kernels", "kernel", KERNEL_LATENCY.0),
        ];
        let histogram = |sample: &str| families.iter().any(|(.., name)| sample.starts_with(name));
        for sample in samples.keys().filter(|s| !histogram(s)) {
            assert!(
                links.iter().any(|(_, s)| s == sample),
                "{sample} is undeclared"
            );
        }
        // Each `/stats` histogram count is the sum of its `_count` series.
        for (stats_key, label, name) in families {
            let Some(Json::Obj(keyed)) = doc.get(stats_key) else {
                panic!("/stats lacks {stats_key}")
            };
            for (k, quantiles) in keyed {
                let (series, label) = (format!("{name}_count{{"), format!("{label}={k}"));
                let total: f64 = (samples.iter())
                    .filter(|(s, _)| {
                        s.starts_with(&series) && s.split([',', '{', '}']).any(|l| l == label)
                    })
                    .map(|(_, v)| v)
                    .sum();
                assert_eq!(
                    quantiles.get("count").and_then(Json::as_f64),
                    Some(total),
                    "{k}"
                );
            }
        }
        assert!(
            stats.values().any(|v| *v == Json::Null),
            "a null drift value is covered"
        );
        let matmul = doc.get("kernels").and_then(|k| k.get("matmul"));
        assert!(matmul.and_then(|m| m.get("count")).and_then(Json::as_u64) > Some(0));
        assert_eq!(stats["models.a.version"].as_u64(), Some(2));
        drop(server);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn every_family_is_declared_once_with_help_and_documented() {
        fn families<S>(rows: &[Row<S>]) -> Vec<(&'static str, MetricKind, &'static str)> {
            rows.iter().map(|r| (r.name, r.kind, r.help)).collect()
        }
        let mut all = families(ROWS);
        all.extend(families(MODEL_ROWS));
        all.extend(families(TELEMETRY_ROWS));
        all.extend(families(DRIFT_ROWS));
        for (name, help) in [STAGE_LATENCY, KERNEL_LATENCY] {
            all.push((name, MetricKind::Histogram, help));
        }
        let readme = include_str!("../../README.md");
        let mut seen = Vec::new();
        for (i, &(name, kind, help)) in all.iter().enumerate() {
            assert_eq!(name.ends_with("_total"), kind == Counter, "{name}");
            if i > 0 && all[i - 1].0 == name {
                assert_eq!(all[i - 1].1, kind, "{name} changes kind");
                continue;
            }
            assert!(!seen.contains(&name), "{name} is declared in two runs");
            assert!(!help.is_empty(), "{name} has no help text");
            let documented = readme.contains(&format!("`{name}`"));
            assert!(documented, "crates/README.md omits {name}");
            seen.push(name);
        }
    }
}
