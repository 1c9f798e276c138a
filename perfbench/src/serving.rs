//! The serving half: set-up (corpus, student, checkpoint, servers), the
//! closed-loop wire phase and the open-loop in-process phases, each with its
//! output checks against an in-process reference session.

use crate::inputs::{derive_seed, poisson_schedule, RequestSource, Zipf};
use crate::stats::{histogram_delta, median, windows};
use crate::trace::Tracer;
use dtdbd_core::{train_model, TrainConfig};
use dtdbd_data::{weibo21_spec, GeneratorConfig, InferenceRequest, NewsGenerator};
use dtdbd_models::{ModelConfig, TextCnnModel};
use dtdbd_serve::json;
use dtdbd_serve::{
    session_from_checkpoint, BoxedModel, Checkpoint, HistogramSnapshot, HttpClient, HttpServer,
    InferenceSession, PredictError, PredictServer, Prediction, PredictionHandle, ServerBuilder,
    ServingStats, Stage,
};
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::ParamStore;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Corpus fraction and epochs of the served student (a quick deployment).
const SERVE_SCALE: f64 = 0.04;
const SERVE_EPOCHS: usize = 1;
/// Zipf pool and exponent. Web request popularity is Zipf-like with an
/// exponent of 0.64 to 0.83 across proxy traces (Breslau et al., "Web
/// Caching and Zipf-like Distributions", INFOCOM 1999); 0.7 lies inside
/// that range. The pool size is an assumption, not a measurement: eight
/// times the server's 1024-entry cache, so hits sit beside misses (about
/// 37% of lookups hit) and p50 and p90 both fall among forward passes.
const ZIPF_POOL: usize = 8192;
const ZIPF_EXPONENT: f64 = 0.7;
/// Requests pushed in-process through a server before it is measured: three
/// cache capacities, so the cache reaches its steady state.
const WARMUP_REQUESTS: usize = 3 * 1024;
/// Each slice of a serving phase is read as this many windows; short
/// windows catch the moments the host leaves the machine alone.
const WINDOWS_PER_SLICE: f64 = 4.0;
/// Wire requests sent before the wire phase is measured.
const WIRE_WARMUP: usize = 200;
/// In-process answers must match the reference this closely
/// (`serve_roundtrip` uses the same bound); wire answers must match exactly.
const IN_PROCESS_TOLERANCE: f32 = 1e-6;

/// Which keys a workload's requests carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyMix {
    /// Every request is new: the cache only misses and inserts.
    Unique,
    /// Zipf-skewed draws from a fixed pool of [`ZIPF_POOL`] requests.
    Zipf,
}

/// The request stream of one run: a growing table of distinct requests and
/// the rule that picks the next one.
pub struct Keys {
    mix: KeyMix,
    source: RequestSource,
    table: Vec<InferenceRequest>,
    zipf: Zipf,
}

impl Keys {
    /// The stream of `mix` for `seed`.
    pub fn new(mix: KeyMix, seed: u64) -> Self {
        let mut source = RequestSource::new(derive_seed(seed, 10));
        let table = match mix {
            KeyMix::Unique => Vec::new(),
            KeyMix::Zipf => source.take(ZIPF_POOL),
        };
        Self {
            mix,
            source,
            table,
            zipf: Zipf::new(ZIPF_POOL, ZIPF_EXPONENT, derive_seed(seed, 11)),
        }
    }

    /// Index (into [`Keys::table`]) of the next request.
    pub fn next(&mut self) -> usize {
        match self.mix {
            KeyMix::Unique => {
                self.table.push(self.source.next_unique());
                self.table.len() - 1
            }
            KeyMix::Zipf => self.zipf.sample(),
        }
    }

    /// Every request the stream has produced so far, by index.
    pub fn table(&self) -> &[InferenceRequest] {
        &self.table
    }
}

/// Timings of one set-up.
#[derive(Debug, Clone)]
pub struct SetupTimes {
    pub total_s: f64,
    pub generate_s: f64,
    pub checkpoint_ms: f64,
}

/// Everything the serving phases run against.
pub struct Deployment {
    pub checkpoint: Checkpoint,
    pub http: HttpServer,
    pub predict: PredictServer,
    pub reference: Reference,
}

impl Deployment {
    /// Shut both servers down and wait for their threads.
    pub fn shutdown(self) {
        self.http.shutdown();
        self.predict.shutdown();
    }
}

/// One set-up: generate the serving corpus, train the TextCNN-S student for
/// one epoch, round-trip it through checkpoint bytes (in memory), and start
/// the HTTP server and the in-process server from the decoded checkpoint
/// with `ServerBuilder` defaults.
pub fn deploy(seed: u64) -> (Deployment, SetupTimes) {
    let t0 = Instant::now();
    let corpus = NewsGenerator::new(weibo21_spec(), GeneratorConfig::default())
        .generate_scaled(derive_seed(seed, 20), SERVE_SCALE);
    let split = corpus.split(0.7, 0.1, derive_seed(seed, 21));
    let generate_s = t0.elapsed().as_secs_f64();

    let config = ModelConfig::for_dataset(&split.train);
    let mut store = ParamStore::new();
    let mut model =
        TextCnnModel::student(&mut store, &config, &mut Prng::new(derive_seed(seed, 22)));
    let train = TrainConfig {
        epochs: SERVE_EPOCHS,
        seed: derive_seed(seed, 23),
        ..TrainConfig::default()
    };
    train_model(&mut model, &mut store, &split.train, &train);

    let t2 = Instant::now();
    let bytes = Checkpoint::capture(&model, &store).to_bytes();
    let checkpoint = Checkpoint::from_bytes(&bytes).expect("checkpoint bytes decode");
    let checkpoint_ms = t2.elapsed().as_secs_f64() * 1e3;

    let http = ServerBuilder::new()
        .http_addr("127.0.0.1:0")
        .try_start_http_from_checkpoint(&checkpoint)
        .expect("start the HTTP server");
    let predict = ServerBuilder::new()
        .try_start_from_checkpoint(&checkpoint)
        .expect("start the in-process server");
    let reference = Reference::new(&checkpoint);
    let times = SetupTimes {
        total_s: t0.elapsed().as_secs_f64(),
        generate_s,
        checkpoint_ms,
    };
    (
        Deployment {
            checkpoint,
            http,
            predict,
            reference,
        },
        times,
    )
}

/// Sent / succeeded / failed counts of one phase.
#[derive(Debug, Clone, Default)]
pub struct Accounting {
    pub phase: String,
    pub sent: usize,
    pub succeeded: usize,
    pub failed: usize,
}

/// Where a stage histogram was recorded: the connection side (HTTP parse,
/// the event loop's dispatch queue, cache lookups on the submit path,
/// response write) or the prediction workers (queue wait, which includes
/// the batching linger, batch assembly and inference).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Wire,
    Workers,
}

/// Stage histograms of one side, in `Stage::ALL` order.
type StageSet = Vec<HistogramSnapshot>;

/// Server-side counters of one phase, from `stats()` and the stage
/// histograms, as differences between the phase's start and end.
#[derive(Debug, Clone)]
pub struct ServerDelta {
    wire: StageSet,
    workers: StageSet,
    pub served: u64,
    pub batches: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub pool_reuse: u64,
    pub pool_alloc: u64,
}

fn stage_index(stage: Stage) -> usize {
    Stage::ALL
        .iter()
        .position(|&s| s == stage)
        .expect("Stage::ALL lists every stage")
}

impl ServerDelta {
    /// Add the counters of a later slice of the same phase.
    fn absorb(&mut self, other: ServerDelta) {
        for (mine, theirs) in self.wire.iter_mut().zip(&other.wire) {
            mine.merge(theirs);
        }
        for (mine, theirs) in self.workers.iter_mut().zip(&other.workers) {
            mine.merge(theirs);
        }
        self.served += other.served;
        self.batches += other.batches;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.pool_reuse += other.pool_reuse;
        self.pool_alloc += other.pool_alloc;
    }

    /// The observations of one stage on one side during the phase.
    pub fn stage(&self, side: Side, stage: Stage) -> &HistogramSnapshot {
        let set = match side {
            Side::Wire => &self.wire,
            Side::Workers => &self.workers,
        };
        &set[stage_index(stage)]
    }
}

/// A server's counters at one instant.
struct Probe {
    stats: ServingStats,
    wire: StageSet,
    workers: StageSet,
}

/// Read `stats()` and the stage histograms of `server`.
fn probe(server: &PredictServer) -> Probe {
    let snap = server
        .telemetry()
        .expect("ServerBuilder enables telemetry by default")
        .snapshot();
    let mut wire = vec![HistogramSnapshot::empty(); Stage::ALL.len()];
    let mut workers = wire.clone();
    for (recorder, stages) in &snap.recorders {
        let set = if recorder == "http" {
            &mut wire
        } else {
            &mut workers
        };
        for (stage, histogram) in stages {
            set[stage_index(*stage)].merge(histogram);
        }
    }
    Probe {
        stats: server.stats(),
        wire,
        workers,
    }
}

/// What happened on `server` between two probes.
fn delta(before: &Probe, after: &Probe) -> ServerDelta {
    let sets = |b: &StageSet, a: &StageSet| -> StageSet {
        b.iter()
            .zip(a)
            .map(|(hb, ha)| histogram_delta(hb, ha))
            .collect()
    };
    let (b, a) = (&before.stats, &after.stats);
    ServerDelta {
        wire: sets(&before.wire, &after.wire),
        workers: sets(&before.workers, &after.workers),
        served: a.requests_served - b.requests_served,
        batches: a.batches - b.batches,
        cache_hits: a.cache.hits - b.cache.hits,
        cache_misses: a.cache.misses - b.cache.misses,
        pool_reuse: a.pool_reuse_hits - b.pool_reuse_hits,
        pool_alloc: a.pool_alloc_misses - b.pool_alloc_misses,
    }
}

/// Reference answers from a plain in-process session, computed once per
/// distinct request and only for requests some phase actually sent.
pub struct Reference {
    session: InferenceSession<BoxedModel>,
    answers: Vec<Option<Prediction>>,
}

impl Reference {
    /// A reference restored from `checkpoint`.
    pub fn new(checkpoint: &Checkpoint) -> Self {
        Self {
            session: session_from_checkpoint(checkpoint).expect("restore the reference"),
            answers: Vec::new(),
        }
    }

    /// The reference answer of every request in `needed` (indices into
    /// `table`), computing the missing ones in batches of 64.
    pub fn answers(
        &mut self,
        table: &[InferenceRequest],
        needed: &[usize],
    ) -> &[Option<Prediction>] {
        self.answers
            .resize(self.answers.len().max(table.len()), None);
        let mut missing: Vec<usize> = needed
            .iter()
            .copied()
            .filter(|&i| self.answers[i].is_none())
            .collect();
        missing.sort_unstable();
        missing.dedup();
        for chunk in missing.chunks(64) {
            let encoded: Vec<_> = chunk
                .iter()
                .map(|&i| {
                    self.session
                        .encoder()
                        .encode(&table[i])
                        .expect("generated requests are valid")
                })
                .collect();
            for (&i, p) in chunk.iter().zip(self.session.predict_requests(&encoded)) {
                self.answers[i] = Some(p);
            }
        }
        &self.answers
    }
}

fn bit_equal(a: &Prediction, b: &Prediction) -> bool {
    a.fake_prob.to_bits() == b.fake_prob.to_bits()
        && a.logits[0].to_bits() == b.logits[0].to_bits()
        && a.logits[1].to_bits() == b.logits[1].to_bits()
}

fn close(a: &Prediction, b: &Prediction) -> bool {
    (a.fake_prob - b.fake_prob).abs() <= IN_PROCESS_TOLERANCE
        && (a.logits[0] - b.logits[0]).abs() <= IN_PROCESS_TOLERANCE
        && (a.logits[1] - b.logits[1]).abs() <= IN_PROCESS_TOLERANCE
}

/// Push `n` requests through `server` in-process (submit all, then wait
/// all) so its cache and buffer pools reach their steady state. Returns the
/// accounting of the warm-up.
pub fn warm_up(server: &PredictServer, keys: &mut Keys, phase: &str) -> Accounting {
    let ids: Vec<usize> = (0..WARMUP_REQUESTS).map(|_| keys.next()).collect();
    let handles: Vec<_> = ids
        .iter()
        .map(|&i| server.submit(&keys.table()[i]))
        .collect();
    let succeeded = handles
        .into_iter()
        .filter(|h| h.is_ok())
        .map(|h| h.expect("filtered").wait())
        .filter(Result::is_ok)
        .count();
    Accounting {
        phase: phase.to_string(),
        sent: ids.len(),
        succeeded,
        failed: ids.len() - succeeded,
    }
}

/// One serving phase (`wire`, `light` or `heavy`), accumulated over the
/// slices it runs in.
pub struct PhaseRun {
    pub accounting: Accounting,
    /// Outcomes of the untraced slices grouped into windows (four per
    /// slice): latency in ms, or `None` for a request that failed or
    /// answered wrong.
    pub windows: Vec<Vec<Option<f64>>>,
    /// Length of one window in seconds, and when each window began.
    pub window_s: f64,
    pub window_starts: Vec<Instant>,
    /// Every outcome of the untraced slices, and (trace mode) of the traced
    /// ones.
    pub outcomes: Vec<Option<f64>>,
    pub traced_outcomes: Vec<Option<f64>>,
    /// Wire only: requests per second of each slice, and whether the slice
    /// was traced. A traced slice records its spans inside the closed loop,
    /// so its rate carries the tracing cost.
    pub slice_rates: Vec<(bool, f64)>,
    /// Server counters summed over the slices.
    pub server: Option<ServerDelta>,
    /// Open loop only: how late the generator submitted each request (ms),
    /// the largest end-of-slice backlog and sampled queue depth, and the
    /// slices whose backlog grew.
    pub lateness_ms: Vec<f64>,
    pub backlog_end_max: usize,
    pub queue_depth_max: usize,
    pub growing_slices: usize,
    /// Wire only: request bodies and answers, for the direct JSON calls.
    pub bodies: Vec<String>,
    pub answers: Vec<Prediction>,
}

impl PhaseRun {
    /// An empty phase named `name`.
    pub fn new(name: &str) -> Self {
        Self {
            accounting: Accounting {
                phase: name.to_string(),
                ..Accounting::default()
            },
            windows: Vec::new(),
            window_s: 0.0,
            window_starts: Vec::new(),
            outcomes: Vec::new(),
            traced_outcomes: Vec::new(),
            slice_rates: Vec::new(),
            server: None,
            lateness_ms: Vec::new(),
            backlog_end_max: 0,
            queue_depth_max: 0,
            growing_slices: 0,
            bodies: Vec::new(),
            answers: Vec::new(),
        }
    }

    /// Fold one slice in: `samples` are (seconds into the slice, outcome)
    /// per request. Only untraced slices contribute windows.
    fn add_slice(
        &mut self,
        samples: &[(f64, Option<f64>)],
        traced: bool,
        started: Instant,
        seconds: f64,
        server: ServerDelta,
    ) {
        self.window_s = seconds / WINDOWS_PER_SLICE;
        if !traced {
            let new = windows(samples, self.window_s, seconds);
            self.window_starts.extend(
                (0..new.len()).map(|w| started + Duration::from_secs_f64(w as f64 * self.window_s)),
            );
            self.windows.extend(new);
        }
        for &(_, outcome) in samples {
            self.accounting.sent += 1;
            if outcome.is_some() {
                self.accounting.succeeded += 1;
            } else {
                self.accounting.failed += 1;
            }
            if traced {
                self.traced_outcomes.push(outcome);
            } else {
                self.outcomes.push(outcome);
            }
        }
        match self.server.as_mut() {
            Some(total) => total.absorb(server),
            None => self.server = Some(server),
        }
    }
}

/// Warm the wire path: in-process requests through the HTTP server's
/// predict server, then [`WIRE_WARMUP`] requests over one connection.
pub fn wire_warm_up(deployment: &Deployment, keys: &mut Keys) -> Vec<Accounting> {
    let predict = deployment.http.predict_server();
    let in_process = warm_up(&predict, keys, "wire.warmup.in_process");
    let mut client = HttpClient::connect(deployment.http.local_addr()).expect("connect");
    let mut wire = Accounting {
        phase: "wire.warmup.http".into(),
        ..Accounting::default()
    };
    for _ in 0..WIRE_WARMUP {
        let i = keys.next();
        let body = json::encode_request(&keys.table()[i]).render();
        wire.sent += 1;
        match client.post("/predict", &body) {
            Ok(r) if r.status == 200 => wire.succeeded += 1,
            _ => wire.failed += 1,
        }
    }
    vec![in_process, wire]
}

/// One slice of the wire phase: a fresh keep-alive HTTP/1.1 connection in
/// a closed loop for `seconds`. With a tracer, every request of the slice
/// records its spans inside the loop; a slice without one is the untraced
/// control. Every answer is checked bit for bit against the reference.
pub fn wire_slice(
    deployment: &mut Deployment,
    keys: &mut Keys,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    run: &mut PhaseRun,
) {
    let predict = deployment.http.predict_server();
    let mut client = HttpClient::connect(deployment.http.local_addr()).expect("connect");
    let before = probe(&predict);
    // (key, answer, seconds into the slice, round trip ms)
    let mut sent: Vec<(usize, Option<Prediction>, f64, f64)> = Vec::new();
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut n = run.accounting.sent as u64;
    while started.elapsed() < budget {
        let i = keys.next();
        let t0 = Instant::now();
        let body = json::encode_request(&keys.table()[i]).render();
        let t1 = Instant::now();
        let response = client.post("/predict", &body);
        let t2 = Instant::now();
        let answer = match response {
            Ok(r) if r.status == 200 => r
                .json()
                .ok()
                .and_then(|doc| json::decode_prediction(&doc).ok()),
            _ => None,
        };
        let t3 = Instant::now();
        if let Some(tr) = tracer.as_deref_mut() {
            let root = tr.record("wire.request", n, None, t0, t3);
            tr.record("serve.json.encode", n, Some(root), t0, t1);
            tr.record("serve.http.post", n, Some(root), t1, t2);
            tr.record("serve.json.decode", n, Some(root), t2, t3);
        }
        if run.bodies.len() < 2_000 {
            run.bodies.push(body);
        }
        let offset = (t1 - started).as_secs_f64();
        sent.push((i, answer, offset, (t2 - t1).as_secs_f64() * 1e3));
        n += 1;
    }
    let traced = tracer.is_some();
    run.slice_rates
        .push((traced, sent.len() as f64 / started.elapsed().as_secs_f64()));
    // Close the connection before anyone shuts the server down: an open
    // keep-alive connection would hold the shutdown for a read timeout.
    drop(client);
    let after = probe(&predict);

    let needed: Vec<usize> = sent.iter().map(|s| s.0).collect();
    let reference = deployment.reference.answers(keys.table(), &needed);
    let mut samples = Vec::with_capacity(sent.len());
    for (i, answer, offset, round_trip_ms) in sent {
        let ok = match (answer, &reference[i]) {
            (Some(p), Some(r)) if bit_equal(&p, r) => {
                if run.answers.len() < 2_000 {
                    run.answers.push(p);
                }
                true
            }
            _ => false,
        };
        samples.push((offset, ok.then_some(round_trip_ms)));
    }
    run.add_slice(&samples, traced, started, seconds, delta(&before, &after));
}

struct Sent {
    n: usize,
    key: usize,
    due: Instant,
    submitted: (Instant, Instant),
    hit: bool,
    handle: Result<PredictionHandle, PredictError>,
}

/// One slice of an open-loop phase: one generator thread sends Poisson
/// arrivals at `rate` for `seconds` through `PredictServer::submit`; one
/// collector thread waits on the handles in order. Latency runs from each
/// request's due time. A cache hit is answered inside `submit`, so it
/// completes when `submit` returns; any other request completes when the
/// collector's `wait` returns. With a tracer, the collector records every
/// request's spans between its waits, so the tracing cost lands on the
/// slice's own latencies; a slice without one is the untraced control.
/// Every answer is checked against the reference within
/// [`IN_PROCESS_TOLERANCE`].
#[allow(clippy::too_many_arguments)]
pub fn open_slice(
    server: &PredictServer,
    reference: &mut Reference,
    keys: &mut Keys,
    rate: f64,
    seconds: f64,
    seed: u64,
    tracer: Option<&mut Tracer>,
    run: &mut PhaseRun,
) {
    let schedule = poisson_schedule(rate, seconds, seed);
    let ids: Vec<usize> = schedule.iter().map(|_| keys.next()).collect();
    let table = keys.table();
    let origin = tracer.as_ref().map(|t| t.origin());
    let collected = AtomicUsize::new(0);
    let before = probe(server);
    let started = Instant::now() + Duration::from_millis(2);

    let (tx, rx) = mpsc::channel::<Sent>();
    let (generator, collector) = std::thread::scope(|scope| {
        let collected = &collected;
        let collector = scope.spawn(move || {
            let mut tr = origin.map(Tracer::new);
            // (key, answer, latency ms, due seconds into the slice)
            let mut results: Vec<(usize, Option<Prediction>, f64, f64)> = Vec::new();
            for sent in rx {
                let w0 = Instant::now();
                let outcome = sent.handle.and_then(PredictionHandle::wait);
                let w1 = Instant::now();
                let done = if sent.hit { sent.submitted.1 } else { w1 };
                if let Some(tr) = tr.as_mut() {
                    let id = sent.n as u64;
                    let root = tr.record("open.request", id, None, sent.due, done);
                    let (s0, s1) = sent.submitted;
                    tr.record("serve.server.submit", id, Some(root), s0, s1);
                    if !sent.hit {
                        tr.record("serve.server.wait", id, Some(root), w0, w1);
                    }
                }
                let latency_ms = (done - sent.due).as_secs_f64() * 1e3;
                let due_s = (sent.due - started).as_secs_f64();
                results.push((sent.key, outcome.ok(), latency_ms, due_s));
                collected.fetch_add(1, Ordering::Release);
            }
            (results, tr)
        });
        let generator = scope.spawn(move || {
            let mut lateness_ms = Vec::with_capacity(schedule.len());
            let mut queue_depth_max = 0;
            let mut backlog_mid = 0;
            for (n, (&offset, &key)) in schedule.iter().zip(&ids).enumerate() {
                let due = started + Duration::from_secs_f64(offset);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let hits_before = server.stats().cache.hits;
                let s0 = Instant::now();
                let handle = server.submit(&table[key]).map_err(PredictError::Invalid);
                let s1 = Instant::now();
                let hit = server.stats().cache.hits > hits_before;
                lateness_ms.push((s0 - due).as_secs_f64() * 1e3);
                if n % 64 == 0 {
                    queue_depth_max = queue_depth_max.max(server.queue_depth());
                }
                if n == schedule.len() / 2 {
                    backlog_mid = n - collected.load(Ordering::Acquire);
                }
                let sent = Sent {
                    n,
                    key,
                    due,
                    submitted: (s0, s1),
                    hit,
                    handle,
                };
                tx.send(sent).expect("collector alive");
            }
            let backlog_end = schedule.len() - collected.load(Ordering::Acquire);
            (lateness_ms, queue_depth_max, backlog_mid, backlog_end)
        });
        (
            generator.join().expect("generator thread"),
            collector.join().expect("collector thread"),
        )
    });
    let after = probe(server);
    let (lateness_ms, queue_depth_max, backlog_mid, backlog_end) = generator;
    let (results, collector_trace) = collector;
    if let (Some(tr), Some(ct)) = (tracer, collector_trace) {
        tr.absorb(ct);
    }

    let needed: Vec<usize> = results.iter().map(|r| r.0).collect();
    let answers = reference.answers(keys.table(), &needed);
    let traced = origin.is_some();
    let samples: Vec<(f64, Option<f64>)> = results
        .into_iter()
        .map(|(key, answer, latency_ms, due_s)| {
            let ok = matches!((&answer, &answers[key]), (Some(p), Some(r)) if close(p, r));
            (due_s, ok.then_some(latency_ms))
        })
        .collect();
    run.lateness_ms.extend(lateness_ms);
    run.queue_depth_max = run.queue_depth_max.max(queue_depth_max);
    run.backlog_end_max = run.backlog_end_max.max(backlog_end);
    if backlog_end > 2 * backlog_mid.max(50) {
        run.growing_slices += 1;
    }
    run.add_slice(&samples, traced, started, seconds, delta(&before, &after));
}

/// Median of repeated set-ups; the deployment of the last one is kept and
/// the others are shut down.
pub fn setup(seed: u64, repeats: usize) -> (Deployment, Vec<SetupTimes>) {
    let mut times = Vec::with_capacity(repeats);
    let mut kept = None;
    for _ in 0..repeats {
        let (deployment, t) = deploy(seed);
        times.push(t);
        if let Some(old) = kept.replace(deployment) {
            Deployment::shutdown(old);
        }
    }
    (kept.expect("at least one set-up"), times)
}

/// Median of one field over the set-ups.
pub fn setup_median(times: &[SetupTimes], field: fn(&SetupTimes) -> f64) -> f64 {
    median(&times.iter().map(field).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_deployment_serves_on_loopback_and_shuts_down_promptly() {
        let (mut deployment, times) = deploy(3);
        assert!(deployment.http.local_addr().ip().is_loopback());
        assert!(times.checkpoint_ms > 0.0);
        let mut keys = Keys::new(KeyMix::Zipf, 3);
        let mut wire = PhaseRun::new("wire");
        wire_slice(&mut deployment, &mut keys, 0.3, None, &mut wire);
        let mut open = PhaseRun::new("open");
        let Deployment {
            predict, reference, ..
        } = &mut deployment;
        open_slice(
            predict, reference, &mut keys, 500.0, 0.3, 9, None, &mut open,
        );
        for run in [&wire, &open] {
            assert!(
                run.accounting.sent > 0,
                "{} sent nothing",
                run.accounting.phase
            );
            assert_eq!(run.accounting.failed, 0, "{} failed", run.accounting.phase);
            assert_eq!(run.windows.len(), WINDOWS_PER_SLICE as usize);
        }
        // The wire slice closed its keep-alive connection, so shutdown does
        // not wait out the server's idle read timeout (5 s).
        let started = Instant::now();
        deployment.shutdown();
        assert!(started.elapsed() < Duration::from_secs(3));
    }
}
