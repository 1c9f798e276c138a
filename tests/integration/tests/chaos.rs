//! Chaos battery: the 64-client wire workload of `http.rs` run against a
//! server whose [`FaultPlan`] kills three of its four prediction
//! workers mid-storm. The contract under fire:
//!
//! * **zero wrong predictions** — every `200` body is bit-identical to the
//!   in-process path; a request caught in a crashing batch gets a *typed*
//!   `503` (`worker_crashed` / `deadline_exceeded` / `overloaded`, with a
//!   `Retry-After` header), never a `500` and never a garbage answer;
//! * **self-healing** — `/readyz` returns to `200` once the supervisor has
//!   respawned every worker, and the supervision counters record exactly
//!   the injected panics;
//! * **capacity recovery** — a post-recovery wave through the healed server
//!   is not drastically slower than the same wave through a fault-free twin.
//!
//! The battery runs under this build's connection driver (epoll on Linux);
//! the driver-independent protocol rules it leans on are unit-tested in
//! `dtdbd-serve` against both drivers. `CI_QUICK` set to anything but
//! empty or `0` shrinks the client count, not the assertions.

use dtdbd_core::{train_model, TrainConfig};
use dtdbd_data::{weibo21_spec, GeneratorConfig, InferenceRequest, NewsGenerator};
use dtdbd_models::{ModelConfig, TextCnnModel};
use dtdbd_serve::http::HttpClient;
use dtdbd_serve::json::{self, Json};
use dtdbd_serve::session::Prediction;
use dtdbd_serve::{BatchingConfig, Checkpoint, FaultPlan, HttpConfig, HttpServer, ServerBuilder};
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::ParamStore;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const WORKERS: usize = 4;
/// The armed panics: three distinct workers, early lifetime batch ordinals
/// so a storm of any size trips all of them.
const PANICS: [(usize, u64); 3] = [(0, 2), (1, 3), (2, 4)];

fn quick() -> bool {
    std::env::var("CI_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn trained_checkpoint() -> (Checkpoint, dtdbd_data::MultiDomainDataset) {
    let ds = NewsGenerator::new(weibo21_spec(), GeneratorConfig::tiny()).generate_scaled(11, 0.04);
    let split = ds.clone().split(0.7, 0.1, 11);
    let cfg = ModelConfig::tiny(&ds);
    let mut store = ParamStore::new();
    let mut model = TextCnnModel::student(&mut store, &cfg, &mut Prng::new(5));
    train_model(
        &mut model,
        &mut store,
        &split.train,
        &TrainConfig {
            epochs: 1,
            batch_size: 32,
            ..TrainConfig::default()
        },
    );
    let checkpoint = Checkpoint::capture(&model, &store);
    (Checkpoint::from_bytes(&checkpoint.to_bytes()).unwrap(), ds)
}

/// Small batches (not the default 32) so every worker sees enough lifetime
/// batch ordinals for its armed panic to fire even in a quick run. The
/// cache stays off: a cache hit would mask a worker answering wrongly.
fn start_server(checkpoint: &Checkpoint, plan: Option<FaultPlan>) -> HttpServer {
    let mut builder = ServerBuilder::new()
        .batching(BatchingConfig {
            max_batch_size: 4,
            max_wait: Duration::from_millis(1),
            workers: WORKERS,
        })
        .cache_capacity(0);
    if let Some(plan) = plan {
        builder = builder.fault_plan(plan);
    }
    builder
        .http(HttpConfig {
            connection_workers: if quick() { 16 } else { 64 },
            backlog: 64,
            ..HttpConfig::default()
        })
        .try_start_http_from_checkpoint(checkpoint)
        .expect("valid chaos configuration")
}

fn readyz_status(addr: SocketAddr) -> u16 {
    let mut client = HttpClient::connect(addr).expect("connect");
    client.get("/readyz").expect("readyz").status
}

fn await_ready(addr: SocketAddr, deadline: Duration) {
    let t0 = Instant::now();
    loop {
        if readyz_status(addr) == 200 {
            return;
        }
        assert!(
            t0.elapsed() < deadline,
            "/readyz never returned to 200 after the injected crashes"
        );
        thread::sleep(Duration::from_millis(10));
    }
}

fn supervision_stat(addr: SocketAddr, field: &str) -> u64 {
    let mut client = HttpClient::connect(addr).expect("connect");
    let stats = client.get("/stats").unwrap().json().unwrap();
    stats
        .get("supervision")
        .unwrap_or_else(|| panic!("/stats missing supervision object"))
        .get(field)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("/stats supervision missing {field}"))
}

/// One storm wave: `n_clients` keep-alive connections, each posting
/// `per_client` mixed-domain requests. Returns the bit-level successes and
/// the shed (`503`) error codes; any other status — above all a `500` —
/// fails the battery on the spot.
fn storm(
    addr: SocketAddr,
    items: &Arc<Vec<(Vec<u32>, usize)>>,
    n_clients: usize,
    per_client: usize,
) -> (Vec<(usize, Prediction)>, Vec<String>) {
    let mut clients = Vec::with_capacity(n_clients);
    for c in 0..n_clients {
        let items = Arc::clone(items);
        clients.push(thread::spawn(move || {
            let mut client = HttpClient::connect(addr).expect("connect");
            let mut served = Vec::new();
            let mut shed = Vec::new();
            for i in 0..per_client {
                let idx = (c * per_client + i * 17) % items.len();
                let (tokens, domain) = items[idx].clone();
                let request = InferenceRequest::new(tokens, domain);
                let response = client
                    .post("/predict", &json::encode_request(&request).render())
                    .expect("request");
                match response.status {
                    200 => {
                        let prediction =
                            json::decode_prediction(&response.json().expect("valid JSON body"))
                                .expect("valid prediction object");
                        served.push((idx, prediction));
                    }
                    503 => {
                        let code = response
                            .json()
                            .expect("shed body is JSON")
                            .get("error")
                            .and_then(Json::as_str)
                            .expect("shed body names a code")
                            .to_string();
                        assert!(
                            matches!(
                                code.as_str(),
                                "worker_crashed" | "deadline_exceeded" | "overloaded"
                            ),
                            "client {c}: untyped 503 code {code:?}"
                        );
                        assert!(
                            response.retry_after().is_some(),
                            "client {c}: 503 {code} without Retry-After"
                        );
                        shed.push(code);
                    }
                    other => panic!(
                        "client {c}: status {other} is neither success nor typed shed: {}",
                        response.body
                    ),
                }
            }
            (served, shed)
        }));
    }
    let mut served = Vec::new();
    let mut shed = Vec::new();
    for client in clients {
        let (s, e) = client.join().expect("client thread");
        served.extend(s);
        shed.extend(e);
    }
    (served, shed)
}

fn request_body(items: &[(Vec<u32>, usize)], idx: usize) -> String {
    let (tokens, domain) = items[idx % items.len()].clone();
    json::encode_request(&InferenceRequest::new(tokens, domain)).render()
}

/// Post a trickle of single requests until every armed panic has fired, so
/// later waves run against a server with an exhausted fault plan.
fn drain_armed_panics(addr: SocketAddr, items: &[(Vec<u32>, usize)], expected: u64) {
    let t0 = Instant::now();
    let mut client = HttpClient::connect(addr).expect("connect");
    let mut i = 0usize;
    while supervision_stat(addr, "worker_panics") < expected {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "armed panics never fired: {}/{expected}",
            supervision_stat(addr, "worker_panics")
        );
        let _ = client.post("/predict", &request_body(items, i));
        i += 1;
        thread::sleep(Duration::from_millis(20));
    }
}

fn chaos_battery() {
    let (checkpoint, ds) = trained_checkpoint();
    let mut plan = FaultPlan::default();
    for (worker, batch) in PANICS {
        plan = plan.panic_worker(worker, batch);
    }
    let server = Arc::new(start_server(&checkpoint, Some(plan)));
    let addr = server.local_addr();
    let items: Arc<Vec<(Vec<u32>, usize)>> = Arc::new(
        ds.items()
            .iter()
            .map(|item| (item.tokens.clone(), item.domain))
            .collect(),
    );
    let (n_clients, per_client) = if quick() { (16, 12) } else { (64, 6) };

    // --- the storm: three workers die somewhere inside this wave ---------
    let (served, shed) = storm(addr, &items, n_clients, per_client);
    assert_eq!(served.len() + shed.len(), n_clients * per_client);
    assert!(
        shed.len() >= PANICS.len(),
        "each killed batch must fail typed: only {} shed responses",
        shed.len()
    );

    // --- self-healing: all panics fired, all workers respawned ----------
    drain_armed_panics(addr, &items, PANICS.len() as u64);
    await_ready(addr, Duration::from_secs(15));
    assert_eq!(supervision_stat(addr, "worker_panics"), PANICS.len() as u64);
    assert_eq!(
        supervision_stat(addr, "worker_restarts"),
        PANICS.len() as u64
    );
    let mut probe = HttpClient::connect(addr).unwrap();
    let metrics = probe.get("/metrics").unwrap();
    assert!(
        metrics.body.contains("dtdbd_worker_restarts_total 3"),
        "supervision counters missing from /metrics"
    );

    // --- zero wrong predictions: every wire success is bit-exact --------
    for (idx, wire) in &served {
        let (tokens, domain) = items[*idx].clone();
        let in_process = server
            .predict_server()
            .predict(&InferenceRequest::new(tokens, domain))
            .unwrap();
        assert_eq!(
            wire.fake_prob.to_bits(),
            in_process.fake_prob.to_bits(),
            "item {idx}: wire {} vs in-process {} — a respawned worker answers differently",
            wire.fake_prob,
            in_process.fake_prob
        );
        assert_eq!(wire.logits[0].to_bits(), in_process.logits[0].to_bits());
        assert_eq!(wire.logits[1].to_bits(), in_process.logits[1].to_bits());
    }

    // --- capacity recovery: the healed server against a fault-free twin -
    let clean = start_server(&checkpoint, None);
    let t0 = Instant::now();
    let (clean_ok, clean_shed) = storm(clean.local_addr(), &items, n_clients / 2, per_client);
    let clean_elapsed = t0.elapsed();
    assert!(clean_shed.is_empty(), "fault-free twin shed traffic");
    let t0 = Instant::now();
    let (healed_ok, healed_shed) = storm(addr, &items, n_clients / 2, per_client);
    let healed_elapsed = t0.elapsed();
    assert!(
        healed_shed.is_empty(),
        "post-recovery wave still shedding: {healed_shed:?}"
    );
    assert_eq!(healed_ok.len(), clean_ok.len());
    // Lenient gate — CI boxes are noisy; what this catches is a worker that
    // never came back (quartered capacity) or a respawn loop thrashing.
    let ratio = clean_elapsed.as_secs_f64() / healed_elapsed.as_secs_f64().max(1e-9);
    assert!(
        ratio > 0.2,
        "healed server is >5x slower than the fault-free twin \
         ({healed_elapsed:?} vs {clean_elapsed:?})"
    );

    clean.shutdown();
    Arc::try_unwrap(server)
        .unwrap_or_else(|_| panic!("storm clients must have exited"))
        .shutdown();
}

#[test]
fn chaos_battery_epoll() {
    // Runs this build's connection driver: epoll on Linux, the blocking
    // pool elsewhere. The battery has to hold under either.
    chaos_battery();
}

/// The `/readyz` degraded window, observed on the wire: with every worker's
/// first batch armed to panic and a long respawn backoff, the first request
/// flips the server to degraded (`503`) and the supervisor flips it back.
fn readyz_degraded_window() {
    let (checkpoint, ds) = trained_checkpoint();
    let item = &ds.items()[0];
    let body =
        json::encode_request(&InferenceRequest::new(item.tokens.clone(), item.domain)).render();
    let plan = FaultPlan::default()
        .panic_worker(0, 1)
        .panic_worker(1, 1)
        .respawn_backoff(Duration::from_millis(800));
    let server = ServerBuilder::new()
        .batching(BatchingConfig {
            max_batch_size: 4,
            max_wait: Duration::from_millis(1),
            workers: 2,
        })
        .cache_capacity(0)
        .fault_plan(plan)
        .http(HttpConfig {
            connection_workers: 4,
            backlog: 8,
            ..HttpConfig::default()
        })
        .try_start_http_from_checkpoint(&checkpoint)
        .expect("valid configuration");
    let addr = server.local_addr();

    assert_eq!(readyz_status(addr), 200, "healthy before the first batch");

    // The first prediction lands on one of the two armed workers and dies
    // typed, with retry advice.
    let mut client = HttpClient::connect(addr).unwrap();
    let response = client.post("/predict", &body).unwrap();
    assert_eq!(response.status, 503, "{}", response.body);
    assert_eq!(
        response.json().unwrap().get("error").and_then(Json::as_str),
        Some("worker_crashed")
    );
    assert!(response.retry_after().is_some());

    // Degraded window: the 800ms backoff is wide enough that polling must
    // observe at least one 503 before the respawn.
    let t0 = Instant::now();
    loop {
        let status = readyz_status(addr);
        if status == 503 {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_millis(600),
            "/readyz never reported the dead worker"
        );
        thread::sleep(Duration::from_millis(5));
    }

    // Self-healing: back to ready once the supervisor respawns the worker.
    await_ready(addr, Duration::from_secs(15));
    assert!(supervision_stat(addr, "worker_panics") >= 1);
    assert!(supervision_stat(addr, "worker_restarts") >= 1);
    server.shutdown();
}

#[test]
fn readyz_degraded_window_epoll() {
    readyz_degraded_window();
}
