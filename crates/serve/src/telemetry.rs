//! End-to-end serving telemetry: stage tracing, lock-free log-bucketed
//! latency histograms, and per-domain prediction-distribution drift.
//!
//! One [`Telemetry`] registry per [`crate::PredictServer`] holds everything
//! the observability surface reads:
//!
//! * **Stage histograms** — every request's time is attributed to the six
//!   [`Stage`]s of the serving path (HTTP parse, queue wait, batch assembly,
//!   cache lookup, kernel inference, response write). Recording is a couple
//!   of `Relaxed` `fetch_add`s on fixed power-of-two buckets
//!   ([`LatencyHistogram`]): no locks, no allocation, wall-clock only — the
//!   engine's bit-exactness contract is untouched. Worker stages are kept
//!   per worker thread so `/metrics` can label series by worker id;
//!   snapshots merge exactly (bucket counts are plain sums).
//! * **Kernel histograms** — the registry implements
//!   [`dtdbd_tensor::KernelTimers`], so inference graphs report per-kernel
//!   (GEMM / conv1d / embedding-gather) durations into the same bucket
//!   scheme.
//! * **Drift tracking** — a [`DriftTracker`] accumulates the live
//!   per-domain distribution of predicted fake-probabilities and scores it
//!   against a training-time [`DomainBaseline`] (persisted through the
//!   checkpoint v2 `telemetry.baseline` side-state chunk): the divergence
//!   surfaces as a prediction-mean shift and a bucketed total-variation
//!   (PSI-style) score per domain.
//!
//! Workers and the submit path record into their own server's registry.
//! The HTTP front-end holds no registry: each wire stage (HTTP parse,
//! response write, the epoll dispatcher's queue wait) records into the
//! default tenant's active version, looked up when the stage ends, so
//! after a hot swap it lands in the registry `/stats` and `/metrics`
//! render.

use dtdbd_models::codec::{ByteReader, ByteWriter};
use dtdbd_tensor::KernelTimers;
use std::sync::atomic::{AtomicU64, Ordering};

/// Side-state tag under which a checkpoint carries the serialized
/// [`DomainBaseline`] (a container-level chunk: models never import it).
pub const BASELINE_TAG: &str = "telemetry.baseline";

/// Number of power-of-two latency buckets. Bucket `i >= 1` covers
/// `[2^(i-1), 2^i)` nanoseconds; bucket 0 holds sub-nanosecond (i.e. zero)
/// measurements; the last bucket also absorbs everything above its lower
/// bound (`2^38` ns ≈ 4.6 minutes — far beyond any serving timeout).
pub const LATENCY_BUCKETS: usize = 40;

/// Number of equal-width fake-probability buckets the drift tracker uses
/// over `[0, 1]`.
pub const DRIFT_BUCKETS: usize = 10;

/// Kernels reported by the tensor layer's timing hooks, in the order their
/// histograms are kept. Unknown kernel names fall into a trailing "other"
/// slot rather than being dropped.
pub const KERNEL_NAMES: [&str; 3] = ["matmul", "conv1d", "embedding"];

/// The six stages a request's wall-clock time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Reading and parsing the HTTP request (first buffered byte to a
    /// complete head + body).
    HttpParse,
    /// Sitting in a micro-batch queue before a worker drained it.
    QueueWait,
    /// The batching linger window: how long the worker held the batch open
    /// waiting for companions (recorded once per batch).
    BatchAssembly,
    /// Prediction-cache lookup on the submit path.
    CacheLookup,
    /// The forward pass, attributed pro-rata: a batch of `n` records
    /// `total / n` for each of its `n` requests, with the integer-division
    /// remainder attributed to the last request so the stage sum reconciles
    /// exactly with the measured span.
    Inference,
    /// Serializing and writing the HTTP response.
    ResponseWrite,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::HttpParse,
        Stage::QueueWait,
        Stage::BatchAssembly,
        Stage::CacheLookup,
        Stage::Inference,
        Stage::ResponseWrite,
    ];

    /// Stable snake_case name used as the `stage` label in `/metrics` and
    /// the key in `/stats`.
    pub fn name(self) -> &'static str {
        match self {
            Stage::HttpParse => "http_parse",
            Stage::QueueWait => "queue_wait",
            Stage::BatchAssembly => "batch_assembly",
            Stage::CacheLookup => "cache_lookup",
            Stage::Inference => "inference",
            Stage::ResponseWrite => "response_write",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::HttpParse => 0,
            Stage::QueueWait => 1,
            Stage::BatchAssembly => 2,
            Stage::CacheLookup => 3,
            Stage::Inference => 4,
            Stage::ResponseWrite => 5,
        }
    }
}

/// Bucket index a duration of `ns` nanoseconds falls into: the position of
/// its highest set bit, clamped to the last bucket (0 ns → bucket 0).
pub fn latency_bucket(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        (64 - ns.leading_zeros() as usize).min(LATENCY_BUCKETS - 1)
    }
}

/// Exclusive upper bound of bucket `i` in nanoseconds; `None` for the last
/// bucket, which is unbounded (`+Inf` in Prometheus terms).
pub fn bucket_upper_bound_ns(i: usize) -> Option<u64> {
    if i + 1 >= LATENCY_BUCKETS {
        None
    } else {
        Some(1u64 << i)
    }
}

fn bucket_lower_bound_ns(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// A lock-free latency histogram: fixed power-of-two buckets with `u64`
/// atomic counts plus an exact running sum. Recording is wait-free
/// (`Relaxed` `fetch_add`s); snapshots of two histograms merge exactly.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one duration.
    pub fn record_ns(&self, ns: u64) {
        self.record_many_ns(ns, 1);
    }

    /// Record `n` observations of `ns_each` nanoseconds with three atomic
    /// adds — how a batch of `n` requests attributes its inference time
    /// pro-rata without `n` separate record calls.
    pub fn record_many_ns(&self, ns_each: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[latency_bucket(ns_each)].fetch_add(n, Ordering::Relaxed);
        self.sum_ns
            .fetch_add(ns_each.saturating_mul(n), Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    /// Split a measured batch span of `total_ns` over its `n` items:
    /// `n - 1` observations of `total_ns / n` plus one of `total_ns / n`
    /// **plus the division remainder**, so the recorded sum equals
    /// `total_ns` exactly (plain `record_many_ns(total/n, n)` would lose up
    /// to `n - 1` ns per batch and the stage sums would drift from the
    /// measured spans).
    pub fn record_batch_ns(&self, total_ns: u64, n: u64) {
        if n == 0 {
            return;
        }
        let each = total_ns / n;
        let last = each + total_ns % n;
        if n > 1 {
            self.buckets[latency_bucket(each)].fetch_add(n - 1, Ordering::Relaxed);
        }
        self.buckets[latency_bucket(last)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(total_ns, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    /// Copy the current counters out. Individual loads are `Relaxed`, so a
    /// snapshot taken under concurrent recording may be mid-request by one
    /// count — fine for monitoring, and exact once recording quiesces.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// An owned, mergeable copy of a [`LatencyHistogram`]'s counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`latency_bucket`]).
    pub buckets: [u64; LATENCY_BUCKETS],
    /// Exact sum of every recorded duration, in nanoseconds.
    pub sum_ns: u64,
    /// Total observations.
    pub count: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; LATENCY_BUCKETS],
            sum_ns: 0,
            count: 0,
        }
    }
}

impl HistogramSnapshot {
    /// An all-zero snapshot.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Exact merge: bucket counts, sums and totals are plain sums, so
    /// merging per-worker snapshots loses nothing.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.count += other.count;
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) in nanoseconds by linear
    /// interpolation inside the containing bucket. 0 when empty. The
    /// estimate is bounded by the bucket's `[2^(i-1), 2^i)` range, so the
    /// relative error is at most 2× — the usual log-bucket trade.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= target {
                let lo = bucket_lower_bound_ns(i) as f64;
                let hi = match bucket_upper_bound_ns(i) {
                    Some(hi) => hi as f64,
                    None => return lo, // unbounded tail bucket
                };
                let frac = (target - cum) as f64 / c as f64;
                return lo + frac * (hi - lo);
            }
            cum += c;
        }
        bucket_lower_bound_ns(LATENCY_BUCKETS - 1) as f64
    }

    /// Mean recorded duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }
}

/// One recorder's set of per-stage histograms (the wire set or one worker).
#[derive(Debug, Default)]
struct StageSet {
    stages: [LatencyHistogram; Stage::ALL.len()],
}

impl StageSet {
    fn record(&self, stage: Stage, ns: u64) {
        self.stages[stage.index()].record_ns(ns);
    }

    fn record_batch(&self, stage: Stage, total_ns: u64, n: u64) {
        self.stages[stage.index()].record_batch_ns(total_ns, n);
    }

    fn snapshot(&self) -> Vec<(Stage, HistogramSnapshot)> {
        Stage::ALL
            .iter()
            .map(|&s| (s, self.stages[s.index()].snapshot()))
            .collect()
    }
}

/// The per-server telemetry registry. One instance lives behind an `Arc` in
/// the serving core; connection threads and prediction workers record into
/// it directly, and the tensor layer reports kernel durations into it via
/// the [`KernelTimers`] impl.
pub struct Telemetry {
    arch: &'static str,
    /// Stages recorded by connection threads (HTTP parse, cache lookup,
    /// response write). Labeled `worker="http"` in `/metrics`.
    wire: StageSet,
    /// Stages recorded by each prediction worker (queue wait, batch
    /// assembly, inference), kept per worker for worker-id labels.
    workers: Vec<StageSet>,
    /// Per-kernel histograms in [`KERNEL_NAMES`] order, plus an "other"
    /// slot for names this build does not know.
    kernels: [LatencyHistogram; KERNEL_NAMES.len() + 1],
    drift: DriftTracker,
}

impl Telemetry {
    /// A registry for `workers` prediction workers serving `arch`, tracking
    /// drift over `n_domains` domains against an optional baseline.
    pub fn new(
        arch: &'static str,
        workers: usize,
        n_domains: usize,
        baseline: Option<DomainBaseline>,
    ) -> Self {
        Self {
            arch,
            wire: StageSet::default(),
            workers: (0..workers).map(|_| StageSet::default()).collect(),
            kernels: std::array::from_fn(|_| LatencyHistogram::new()),
            drift: DriftTracker::new(n_domains, baseline),
        }
    }

    /// Architecture tag used as the `arch` label on every metric.
    pub fn arch(&self) -> &'static str {
        self.arch
    }

    /// The drift tracker (live per-domain prediction statistics).
    pub fn drift(&self) -> &DriftTracker {
        &self.drift
    }

    pub(crate) fn record_wire(&self, stage: Stage, ns: u64) {
        self.wire.record(stage, ns);
    }

    pub(crate) fn record_worker(&self, worker: usize, stage: Stage, ns: u64) {
        if let Some(set) = self.workers.get(worker) {
            set.record(stage, ns);
        }
    }

    /// Attribute a measured batch span of `total_ns` pro-rata over `n`
    /// items, giving the division remainder to the last item so the
    /// recorded stage sum equals `total_ns` exactly.
    pub(crate) fn record_worker_batch(&self, worker: usize, stage: Stage, total_ns: u64, n: u64) {
        if let Some(set) = self.workers.get(worker) {
            set.record_batch(stage, total_ns, n);
        }
    }

    /// Copy every counter out for rendering (`/stats`, `/metrics`).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut recorders = Vec::with_capacity(self.workers.len() + 1);
        recorders.push(("http".to_string(), self.wire.snapshot()));
        for (i, set) in self.workers.iter().enumerate() {
            recorders.push((i.to_string(), set.snapshot()));
        }
        let mut kernels: Vec<(&'static str, HistogramSnapshot)> = KERNEL_NAMES
            .iter()
            .enumerate()
            .map(|(i, &name)| (name, self.kernels[i].snapshot()))
            .collect();
        kernels.push(("other", self.kernels[KERNEL_NAMES.len()].snapshot()));
        TelemetrySnapshot {
            arch: self.arch,
            recorders,
            kernels,
            drift: self.drift.scores(),
            predictions_non_finite: self.drift.non_finite_count(),
        }
    }
}

impl KernelTimers for Telemetry {
    fn record(&self, kernel: &'static str, ns: u64) {
        let slot = KERNEL_NAMES
            .iter()
            .position(|&k| k == kernel)
            .unwrap_or(KERNEL_NAMES.len());
        self.kernels[slot].record_ns(ns);
    }
}

/// An owned copy of every telemetry counter, taken by [`Telemetry::snapshot`].
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Architecture label.
    pub arch: &'static str,
    /// Per-recorder stage histograms: `("http", ...)` for the connection
    /// threads, then `("0", ...)`, `("1", ...)` per prediction worker.
    pub recorders: Vec<(String, Vec<(Stage, HistogramSnapshot)>)>,
    /// Per-kernel histograms ([`KERNEL_NAMES`] plus `"other"`).
    pub kernels: Vec<(&'static str, HistogramSnapshot)>,
    /// Per-domain drift scores.
    pub drift: Vec<DomainDrift>,
    /// Predictions rejected from drift tracking for a NaN/infinite
    /// probability.
    pub predictions_non_finite: u64,
}

impl TelemetrySnapshot {
    /// The given stage merged exactly across every recorder.
    pub fn stage_total(&self, stage: Stage) -> HistogramSnapshot {
        let mut total = HistogramSnapshot::empty();
        for (_, stages) in &self.recorders {
            for (s, h) in stages {
                if *s == stage {
                    total.merge(h);
                }
            }
        }
        total
    }
}

// ---------------------------------------------------------------------------
// Per-domain drift
// ---------------------------------------------------------------------------

/// Frozen per-domain prediction-distribution statistics captured at training
/// time (count, probability sum, and a [`DRIFT_BUCKETS`]-bucket histogram of
/// fake-probabilities per domain). Serialized into the checkpoint's
/// `telemetry.baseline` side-state chunk; at serving time the live traffic
/// is scored against it.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainBaseline {
    domains: Vec<DomainStats>,
}

/// One domain's frozen prediction statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DomainStats {
    /// Observations behind this baseline.
    pub count: u64,
    /// Sum of predicted fake-probabilities (f64 to keep the mean exact over
    /// large captures).
    pub sum: f64,
    /// Histogram of fake-probabilities over [`DRIFT_BUCKETS`] equal-width
    /// buckets spanning `[0, 1]`.
    pub buckets: [u64; DRIFT_BUCKETS],
}

impl DomainStats {
    /// Mean predicted fake-probability, `None` without observations.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

/// Bucket of a fake-probability in the drift histograms. Callers must have
/// screened out non-finite probabilities: `NaN.clamp(...)` stays NaN and the
/// `as usize` cast would silently send it to bucket 0, skewing the
/// total-variation score toward the lowest bucket.
fn prob_bucket(p: f32) -> usize {
    debug_assert!(
        p.is_finite(),
        "non-finite probabilities are counted, not bucketed"
    );
    ((p.clamp(0.0, 1.0) * DRIFT_BUCKETS as f32) as usize).min(DRIFT_BUCKETS - 1)
}

impl DomainBaseline {
    /// Build a baseline over `n_domains` domains from `(domain, fake_prob)`
    /// observations — typically a trained model's predictions over its
    /// validation split (see `Checkpoint::set_telemetry_baseline`).
    /// Out-of-range domains are ignored.
    pub fn from_observations<I>(n_domains: usize, observations: I) -> Self
    where
        I: IntoIterator<Item = (usize, f32)>,
    {
        let mut domains = vec![DomainStats::default(); n_domains];
        for (domain, prob) in observations {
            if !prob.is_finite() {
                continue; // a NaN would silently land in bucket 0
            }
            if let Some(stats) = domains.get_mut(domain) {
                stats.count += 1;
                stats.sum += f64::from(prob.clamp(0.0, 1.0));
                stats.buckets[prob_bucket(prob)] += 1;
            }
        }
        Self { domains }
    }

    /// Number of domains covered.
    pub fn n_domains(&self) -> usize {
        self.domains.len()
    }

    /// The frozen statistics of one domain.
    pub fn domain(&self, d: usize) -> Option<&DomainStats> {
        self.domains.get(d)
    }

    /// Serialize for the `telemetry.baseline` chunk (little-endian, f64
    /// sums as bit patterns — bit-exact round trips).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u32(1); // chunk format version
        w.u32(self.domains.len() as u32);
        for stats in &self.domains {
            w.u64(stats.count);
            w.u64(stats.sum.to_bits());
            for &b in &stats.buckets {
                w.u64(b);
            }
        }
        w.into_bytes()
    }

    /// Decode a `telemetry.baseline` chunk body. Errors are human-readable
    /// details (the checkpoint layer wraps them into its typed errors).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let mut r = ByteReader::new(bytes);
        let version = r.u32().map_err(|e| e.to_string())?;
        if version != 1 {
            return Err(format!("unsupported baseline chunk version {version}"));
        }
        let n_domains = r.u32().map_err(|e| e.to_string())? as usize;
        let mut domains = Vec::with_capacity(n_domains.min(1024));
        for _ in 0..n_domains {
            let count = r.u64().map_err(|e| e.to_string())?;
            let sum = f64::from_bits(r.u64().map_err(|e| e.to_string())?);
            if !sum.is_finite() {
                return Err("baseline probability sum is not finite".to_string());
            }
            let mut buckets = [0u64; DRIFT_BUCKETS];
            for b in &mut buckets {
                *b = r.u64().map_err(|e| e.to_string())?;
            }
            let bucket_total: u64 = buckets.iter().sum();
            if bucket_total != count {
                return Err(format!(
                    "baseline bucket counts sum to {bucket_total}, expected {count}"
                ));
            }
            domains.push(DomainStats {
                count,
                sum,
                buckets,
            });
        }
        if !r.is_exhausted() {
            return Err(format!(
                "{} trailing bytes after baseline chunk",
                r.remaining()
            ));
        }
        Ok(Self { domains })
    }
}

/// One atomic live-statistics cell per domain.
#[derive(Debug, Default)]
struct LiveDomain {
    count: AtomicU64,
    /// Sum of fake-probabilities in fixed-point micro-units (`prob * 1e6`,
    /// rounded), so accumulation is a lock-free integer `fetch_add`.
    sum_micro: AtomicU64,
    buckets: [AtomicU64; DRIFT_BUCKETS],
}

/// Online per-domain population statistics of the predictions actually
/// served, scored against an optional training-time [`DomainBaseline`].
/// Observation is lock-free (three `Relaxed` `fetch_add`s).
pub struct DriftTracker {
    live: Vec<LiveDomain>,
    baseline: Option<DomainBaseline>,
    /// Predictions whose probability was NaN or infinite: counted here
    /// (surfaced in `/stats` and `/metrics`) and **excluded** from the
    /// buckets and the mean, where a silent `as usize` cast used to fold
    /// them into bucket 0.
    non_finite: AtomicU64,
}

/// Drift scores of one domain, as surfaced in `/stats` and `/metrics`.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainDrift {
    /// Domain index.
    pub domain: usize,
    /// Live predictions observed for this domain.
    pub live_count: u64,
    /// Mean live fake-probability, `None` without traffic.
    pub live_mean: Option<f64>,
    /// Observations behind the baseline (0 without a baseline).
    pub baseline_count: u64,
    /// Baseline mean fake-probability, `None` without a baseline (or an
    /// empty baseline domain).
    pub baseline_mean: Option<f64>,
    /// `|live_mean - baseline_mean|`; `None` unless both sides have data.
    pub mean_shift: Option<f64>,
    /// Bucketed total-variation distance `0.5 * Σ |live_i - base_i|` over
    /// the normalized [`DRIFT_BUCKETS`]-bucket histograms (a PSI-style
    /// score in `[0, 1]`); `None` unless both sides have data.
    pub score: Option<f64>,
}

impl DriftTracker {
    /// A tracker over `n_domains` domains. A baseline whose domain count
    /// differs is rejected upstream (`ConfigError::DriftBaselineGeometry`);
    /// here it would simply leave the extra domains unscored.
    pub fn new(n_domains: usize, baseline: Option<DomainBaseline>) -> Self {
        Self {
            live: (0..n_domains).map(|_| LiveDomain::default()).collect(),
            baseline,
            non_finite: AtomicU64::new(0),
        }
    }

    /// The baseline being scored against, if any.
    pub fn baseline(&self) -> Option<&DomainBaseline> {
        self.baseline.as_ref()
    }

    /// Number of domains tracked.
    pub fn n_domains(&self) -> usize {
        self.live.len()
    }

    /// Record one served prediction (lock-free; out-of-range domains are
    /// ignored — the encoder already rejects them at the wire). A NaN or
    /// infinite probability only bumps the non-finite counter: it must not
    /// skew the distribution it failed to be part of.
    pub fn observe(&self, domain: usize, fake_prob: f32) {
        if !fake_prob.is_finite() {
            self.non_finite.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if let Some(cell) = self.live.get(domain) {
            let p = fake_prob.clamp(0.0, 1.0);
            cell.count.fetch_add(1, Ordering::Relaxed);
            cell.sum_micro
                .fetch_add((f64::from(p) * 1e6).round() as u64, Ordering::Relaxed);
            cell.buckets[prob_bucket(p)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Predictions rejected for a non-finite probability.
    pub fn non_finite_count(&self) -> u64 {
        self.non_finite.load(Ordering::Relaxed)
    }

    /// Score every domain's live distribution against the baseline.
    pub fn scores(&self) -> Vec<DomainDrift> {
        self.live
            .iter()
            .enumerate()
            .map(|(domain, cell)| {
                let live_count = cell.count.load(Ordering::Relaxed);
                let live_mean = (live_count > 0).then(|| {
                    cell.sum_micro.load(Ordering::Relaxed) as f64 / 1e6 / live_count as f64
                });
                let base = self.baseline.as_ref().and_then(|b| b.domain(domain));
                let baseline_count = base.map_or(0, |b| b.count);
                let baseline_mean = base.and_then(DomainStats::mean);
                let mean_shift = match (live_mean, baseline_mean) {
                    (Some(l), Some(b)) => Some((l - b).abs()),
                    _ => None,
                };
                let score = base.filter(|b| b.count > 0 && live_count > 0).map(|b| {
                    let mut tv = 0.0f64;
                    for (i, bucket) in cell.buckets.iter().enumerate() {
                        let live_frac = bucket.load(Ordering::Relaxed) as f64 / live_count as f64;
                        let base_frac = b.buckets[i] as f64 / b.count as f64;
                        tv += (live_frac - base_frac).abs();
                    }
                    tv / 2.0
                });
                DomainDrift {
                    domain,
                    live_count,
                    live_mean,
                    baseline_count,
                    baseline_mean,
                    mean_shift,
                    score,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_follows_powers_of_two() {
        assert_eq!(latency_bucket(0), 0);
        assert_eq!(latency_bucket(1), 1);
        assert_eq!(latency_bucket(2), 2);
        assert_eq!(latency_bucket(3), 2);
        assert_eq!(latency_bucket(4), 3);
        assert_eq!(latency_bucket(1023), 10);
        assert_eq!(latency_bucket(1024), 11);
        assert_eq!(latency_bucket(u64::MAX), LATENCY_BUCKETS - 1);
        // Every indexed value sits inside its bucket's bounds.
        for ns in [0u64, 1, 7, 999, 1_000_000, 123_456_789] {
            let i = latency_bucket(ns);
            assert!(ns >= bucket_lower_bound_ns(i));
            if let Some(hi) = bucket_upper_bound_ns(i) {
                assert!(ns < hi, "{ns} must fall below bucket {i}'s bound {hi}");
            }
        }
    }

    #[test]
    fn merge_is_exact() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        let all = LatencyHistogram::new();
        for (i, ns) in [3u64, 120, 4_000, 90_000, 2_000_000, 0].iter().enumerate() {
            let h = if i % 2 == 0 { &a } else { &b };
            h.record_ns(*ns);
            all.record_ns(*ns);
        }
        a.record_many_ns(550, 4);
        all.record_many_ns(550, 4);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
        assert_eq!(merged.count, 10);
        assert_eq!(
            merged.sum_ns,
            3 + 120 + 4_000 + 90_000 + 2_000_000 + 550 * 4
        );
    }

    #[test]
    fn quantiles_land_inside_their_bucket() {
        let h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record_ns(1_000); // bucket [512, 1024)
        }
        for _ in 0..10 {
            h.record_ns(1_000_000); // bucket [524288, 1048576)
        }
        let snap = h.snapshot();
        let p50 = snap.quantile_ns(0.50);
        assert!((512.0..1024.0).contains(&p50), "p50 was {p50}");
        let p99 = snap.quantile_ns(0.99);
        assert!(
            (524_288.0..1_048_576.0).contains(&p99),
            "p99 was {p99} (must reach the slow bucket)"
        );
        assert_eq!(HistogramSnapshot::empty().quantile_ns(0.5), 0.0);
        let mean = snap.mean_ns();
        assert!((mean - (90.0 * 1_000.0 + 10.0 * 1_000_000.0) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn batch_attribution_reconciles_exactly_with_the_measured_span() {
        // total not divisible by n: plain pro-rata would record
        // (total / n) * n and lose the remainder every batch.
        for (total, n) in [(10_007u64, 8u64), (999, 7), (5, 3), (42, 1), (0, 4)] {
            let h = LatencyHistogram::new();
            h.record_batch_ns(total, n);
            let snap = h.snapshot();
            assert_eq!(snap.count, n, "batch of {n} counts {n} observations");
            assert_eq!(
                snap.sum_ns, total,
                "recorded sum must equal the measured {total}ns span exactly"
            );
        }
        // Accumulated over many batches the sums still reconcile exactly.
        let h = LatencyHistogram::new();
        let mut expected = 0u64;
        for batch in 1..=100u64 {
            let total = batch * 1_000 + 3; // never divisible by 8
            h.record_batch_ns(total, 8);
            expected += total;
        }
        assert_eq!(h.snapshot().sum_ns, expected);
        // n == 0 records nothing at all.
        let h = LatencyHistogram::new();
        h.record_batch_ns(1_000, 0);
        assert_eq!(h.snapshot().count, 0);
        assert_eq!(h.snapshot().sum_ns, 0);
        // End to end through the worker-side recorder.
        let t = Telemetry::new("TextCNN-S", 1, 1, None);
        t.record_worker_batch(0, Stage::Inference, 10_007, 8);
        let snap = t.snapshot();
        assert_eq!(snap.stage_total(Stage::Inference).count, 8);
        assert_eq!(snap.stage_total(Stage::Inference).sum_ns, 10_007);
    }

    #[test]
    fn non_finite_predictions_are_counted_not_bucketed() {
        let tracker = DriftTracker::new(1, None);
        tracker.observe(0, 0.5);
        tracker.observe(0, f32::NAN);
        tracker.observe(0, f32::INFINITY);
        tracker.observe(0, f32::NEG_INFINITY);
        assert_eq!(tracker.non_finite_count(), 3);
        let scores = tracker.scores();
        assert_eq!(
            scores[0].live_count, 1,
            "non-finite observations must not join the distribution"
        );
        assert!(
            (scores[0].live_mean.unwrap() - 0.5).abs() < 1e-6,
            "the mean must exclude the rejected observations"
        );
        // The snapshot surfaces the counter for /stats and /metrics.
        let t = Telemetry::new("TextCNN-S", 1, 1, None);
        t.drift().observe(0, f32::NAN);
        t.drift().observe(0, 0.25);
        let snap = t.snapshot();
        assert_eq!(snap.predictions_non_finite, 1);
        assert_eq!(snap.drift[0].live_count, 1);
    }

    #[test]
    fn baselines_skip_non_finite_observations() {
        let base = DomainBaseline::from_observations(
            1,
            [(0, 0.2f32), (0, f32::NAN), (0, 0.4), (0, f32::INFINITY)],
        );
        let stats = base.domain(0).unwrap();
        assert_eq!(stats.count, 2);
        assert!((stats.mean().unwrap() - 0.3).abs() < 1e-6);
        assert_eq!(stats.buckets.iter().sum::<u64>(), 2);
    }

    #[test]
    fn baseline_round_trips_and_rejects_garbage() {
        let base = DomainBaseline::from_observations(
            3,
            [
                (0, 0.1f32),
                (0, 0.9),
                (1, 0.5),
                (2, 0.0),
                (2, 1.0),
                (7, 0.5), // out of range: ignored
            ],
        );
        assert_eq!(base.n_domains(), 3);
        assert_eq!(base.domain(0).unwrap().count, 2);
        assert_eq!(base.domain(1).unwrap().mean(), Some(0.5));
        let bytes = base.to_bytes();
        let restored = DomainBaseline::from_bytes(&bytes).expect("round trip");
        assert_eq!(restored, base);

        assert!(DomainBaseline::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut wrong_version = bytes.clone();
        wrong_version[0] = 9;
        assert!(DomainBaseline::from_bytes(&wrong_version).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(DomainBaseline::from_bytes(&trailing).is_err());
        // Corrupt a bucket count so buckets no longer sum to the count.
        let mut inconsistent = bytes;
        let last = inconsistent.len() - 1;
        inconsistent[last] ^= 0x01;
        assert!(DomainBaseline::from_bytes(&inconsistent).is_err());
    }

    #[test]
    fn skewed_traffic_drifts_more_than_matching_traffic() {
        // Baseline: domain 0 predictions centred near 0.2.
        let baseline = DomainBaseline::from_observations(
            1,
            (0..100).map(|i| (0, 0.15 + (i % 10) as f32 * 0.01)),
        );
        let matching = DriftTracker::new(1, Some(baseline.clone()));
        let skewed = DriftTracker::new(1, Some(baseline));
        for i in 0..200 {
            matching.observe(0, 0.15 + (i % 10) as f32 * 0.01);
            skewed.observe(0, 0.85 + (i % 10) as f32 * 0.01);
        }
        let m = &matching.scores()[0];
        let s = &skewed.scores()[0];
        assert!(m.score.unwrap() < 0.05, "matching traffic ~no drift: {m:?}");
        assert!(
            s.score.unwrap() > 0.9,
            "skewed traffic must score high: {s:?}"
        );
        assert!(s.mean_shift.unwrap() > 10.0 * m.mean_shift.unwrap());
        assert_eq!(s.live_count, 200);
        assert_eq!(s.baseline_count, 100);
    }

    #[test]
    fn drift_without_baseline_reports_live_stats_only() {
        let tracker = DriftTracker::new(2, None);
        tracker.observe(0, 0.75);
        tracker.observe(0, 0.25);
        let scores = tracker.scores();
        assert_eq!(scores[0].live_count, 2);
        assert!((scores[0].live_mean.unwrap() - 0.5).abs() < 1e-6);
        assert_eq!(scores[0].score, None);
        assert_eq!(scores[0].mean_shift, None);
        assert_eq!(scores[1].live_count, 0);
        assert_eq!(scores[1].live_mean, None);
    }

    #[test]
    fn telemetry_registry_snapshots_stages_workers_and_kernels() {
        let telemetry = Telemetry::new("TextCNN-S", 2, 3, None);
        telemetry.record_wire(Stage::HttpParse, 1_000);
        telemetry.record_worker(0, Stage::QueueWait, 2_000);
        telemetry.record_worker_batch(1, Stage::Inference, 40_000, 8);
        telemetry.drift().observe(1, 0.7);
        telemetry.record_wire(Stage::ResponseWrite, 300);
        KernelTimers::record(&telemetry, "matmul", 999);
        KernelTimers::record(&telemetry, "mystery", 5);
        let snap = telemetry.snapshot();
        assert_eq!(snap.arch, "TextCNN-S");
        assert_eq!(snap.recorders.len(), 3, "http + 2 workers");
        assert_eq!(snap.stage_total(Stage::HttpParse).count, 1);
        assert_eq!(snap.stage_total(Stage::QueueWait).count, 1);
        assert_eq!(snap.stage_total(Stage::Inference).count, 8);
        assert_eq!(snap.stage_total(Stage::Inference).sum_ns, 40_000);
        assert_eq!(snap.stage_total(Stage::ResponseWrite).count, 1);
        let kernels: Vec<_> = snap.kernels.iter().map(|(n, h)| (*n, h.count)).collect();
        assert!(kernels.contains(&("matmul", 1)));
        assert!(kernels.contains(&("other", 1)));
        assert_eq!(snap.drift[1].live_count, 1);
    }
}
