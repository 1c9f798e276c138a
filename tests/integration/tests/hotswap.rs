//! Hot-swap parity battery: a file-backed tenant is reloaded ≥20 times while
//! keep-alive clients stream prediction traffic, and every wire answer must
//! be bit-identical to exactly one of the two checkpoints that ever lived on
//! disk — no 5xx, no dropped requests, no mis-versioned responses. The
//! battery runs under this build's connection driver. Two more scenarios
//! check that the default tenant's served counter never drops across a
//! swap, and that the wire stages keep counting into the swapped-in
//! version.

use dtdbd_core::{train_model, TrainConfig};
use dtdbd_data::{weibo21_spec, GeneratorConfig, InferenceRequest, NewsGenerator};
use dtdbd_models::{ModelConfig, TextCnnModel};
use dtdbd_serve::http::HttpClient;
use dtdbd_serve::json::{self, Json};
use dtdbd_serve::{BatchingConfig, Checkpoint, ServerBuilder};
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::ParamStore;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Mid-traffic hot-swaps per battery. `CI_QUICK` set to anything but empty
/// or `"0"` (the sub-minute inner-loop gate, see scripts/ci.sh) shrinks the
/// battery; the full run performs the twenty-reload contract the test
/// names.
fn reloads() -> u64 {
    if std::env::var("CI_QUICK").is_ok_and(|v| !v.is_empty() && v != "0") {
        6
    } else {
        20
    }
}

/// One student trained over `ds` from an init seed. Both checkpoints of the
/// parity battery share the frozen embedding table (same `cfg.emb_seed`,
/// mirroring how every student sits on the same frozen PLM) but differ in
/// every trained weight, so their predictions differ in the bits.
fn train_student(ds: &dtdbd_data::MultiDomainDataset, cfg: &ModelConfig, seed: u64) -> Checkpoint {
    let split = ds.clone().split(0.7, 0.1, 13);
    let mut store = ParamStore::new();
    let mut model = TextCnnModel::student(&mut store, cfg, &mut Prng::new(seed));
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
    Checkpoint::capture(&model, &store)
}

fn two_checkpoints() -> (Checkpoint, Checkpoint, dtdbd_data::MultiDomainDataset) {
    let ds = NewsGenerator::new(weibo21_spec(), GeneratorConfig::tiny()).generate_scaled(13, 0.04);
    let cfg = ModelConfig::tiny(&ds);
    let v1 = train_student(&ds, &cfg, 5);
    let v2 = train_student(&ds, &cfg, 77);
    (v1, v2, ds)
}

fn batching() -> BatchingConfig {
    BatchingConfig {
        max_batch_size: 16,
        max_wait: Duration::from_millis(1),
        workers: 2,
    }
}

/// Bit patterns of (fake_prob, logit0, logit1) for `items` through an
/// in-process server restored from `checkpoint` — the ground truth one side
/// of the swap must reproduce exactly.
/// The bit patterns one prediction must reproduce exactly:
/// `(fake_prob, logits[0], logits[1])` as raw `f32` bits.
type Bits = (u32, u32, u32);

/// One battery item: the request plus its reference bits under each of the
/// two checkpoints that ever live on disk.
type ProbeItem = ((Vec<u32>, usize), Bits, Bits);

fn reference_bits(checkpoint: &Checkpoint, items: &[(Vec<u32>, usize)]) -> Vec<Bits> {
    let server = ServerBuilder::new()
        .batching(batching())
        .try_start_from_checkpoint(checkpoint)
        .expect("reference server");
    items
        .iter()
        .map(|(tokens, domain)| {
            let p = server
                .predict(&InferenceRequest::new(tokens.clone(), *domain))
                .expect("reference prediction");
            (
                p.fake_prob.to_bits(),
                p.logits[0].to_bits(),
                p.logits[1].to_bits(),
            )
        })
        .collect()
}

fn temp_checkpoint_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dtdbd-hotswap-{}-{tag}.dtdbd", std::process::id()))
}

fn hot_swap_parity(tag: &str) {
    let (v1, v2, ds) = two_checkpoints();
    let path = temp_checkpoint_path(tag);
    v1.save(&path).expect("write v1 checkpoint");

    let server = Arc::new(
        ServerBuilder::new()
            .batching(batching())
            .tenant_from_path("student", &path)
            .try_start_http()
            .expect("start zoo"),
    );
    let addr = server.local_addr();

    // Probe items where the two versions disagree in the bits, so "matches
    // exactly one of the two models" is a meaningful assertion.
    let probe: Vec<(Vec<u32>, usize)> = ds
        .items()
        .iter()
        .take(24)
        .map(|item| (item.tokens.clone(), item.domain))
        .collect();
    let ref1 = reference_bits(&v1, &probe);
    let ref2 = reference_bits(&v2, &probe);
    let items: Arc<Vec<ProbeItem>> = Arc::new(
        probe
            .into_iter()
            .zip(ref1)
            .zip(ref2)
            .filter(|((_, a), b)| a != b)
            .map(|((item, a), b)| (item, a, b))
            .collect(),
    );
    assert!(
        !items.is_empty(),
        "differently-seeded students must disagree somewhere"
    );

    // Keep-alive clients stream requests for the battery's whole lifetime;
    // every answer must be one of the two reference bit patterns and no
    // response may be anything but 200.
    let stop = Arc::new(AtomicBool::new(false));
    let n_clients = 6usize;
    let mut clients = Vec::with_capacity(n_clients);
    for c in 0..n_clients {
        let items = Arc::clone(&items);
        let stop = Arc::clone(&stop);
        clients.push(thread::spawn(move || {
            let mut client = HttpClient::connect(addr).expect("connect");
            let mut served = 0u64;
            let mut i = c;
            while !stop.load(Ordering::Relaxed) || served < 5 {
                let ((tokens, domain), a, b) = items[i % items.len()].clone();
                i += 1;
                let request = InferenceRequest::new(tokens, domain);
                let response = client
                    .post("/predict/student", &json::encode_request(&request).render())
                    .expect("wire request");
                assert_eq!(
                    response.status, 200,
                    "mid-swap response must never fail: {}",
                    response.body
                );
                let p = json::decode_prediction(&response.json().expect("valid JSON"))
                    .expect("valid prediction");
                let got = (
                    p.fake_prob.to_bits(),
                    p.logits[0].to_bits(),
                    p.logits[1].to_bits(),
                );
                assert!(
                    got == a || got == b,
                    "client {c}: answer {got:?} matches neither v1 {a:?} nor v2 {b:?} \
                     — a mis-versioned or torn response"
                );
                served += 1;
            }
            served
        }));
    }

    // The flipper: alternate the file between the two checkpoints and
    // hot-swap after each write, mid-traffic.
    let mut admin = HttpClient::connect(addr).expect("admin connect");
    let reloads = reloads();
    for r in 0..reloads {
        let next = if r % 2 == 0 { &v2 } else { &v1 };
        next.save(&path).expect("flip checkpoint file");
        let response = admin.post("/admin/reload/student", "").expect("reload");
        assert_eq!(response.status, 200, "reload {r}: {}", response.body);
        let doc = response.json().unwrap();
        assert_eq!(
            doc.get("version").and_then(Json::as_u64),
            Some(r + 2),
            "versions are ordinal across swaps"
        );
        thread::sleep(Duration::from_millis(2));
    }
    stop.store(true, Ordering::Relaxed);

    let wire_responses: u64 = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .sum();

    // Reconciliation: every wire 200 counted exactly once, plus exactly one
    // warm request per reload — nothing dropped, nothing double-counted.
    let descriptor = admin.get("/model/student").unwrap().json().unwrap();
    assert_eq!(
        descriptor.get("version").and_then(Json::as_u64),
        Some(reloads + 1)
    );
    assert_eq!(
        descriptor.get("reloads").and_then(Json::as_u64),
        Some(reloads)
    );
    assert_eq!(
        descriptor
            .get("requests_served_total")
            .and_then(Json::as_u64),
        Some(wire_responses + reloads),
        "served totals must reconcile: wire responses + one warm request per reload"
    );

    // A checkpoint mid-write (here: truncated garbage) must fail the swap
    // with a retryable 503 and leave the previous version serving.
    std::fs::write(&path, b"not a checkpoint").unwrap();
    let failed = admin.post("/admin/reload/student", "").unwrap();
    assert_eq!(failed.status, 503, "{}", failed.body);
    assert_eq!(
        failed.json().unwrap().get("error").and_then(Json::as_str),
        Some("reload_failed")
    );
    assert!(
        failed.retry_after().is_some(),
        "every 503 carries retry advice"
    );
    let ((tokens, domain), a, b) = items[0].clone();
    let after = admin
        .post(
            "/predict/student",
            &json::encode_request(&InferenceRequest::new(tokens, domain)).render(),
        )
        .unwrap();
    assert_eq!(after.status, 200, "{}", after.body);
    let p = json::decode_prediction(&after.json().unwrap()).unwrap();
    let got = (
        p.fake_prob.to_bits(),
        p.logits[0].to_bits(),
        p.logits[1].to_bits(),
    );
    assert!(
        got == a || got == b,
        "old version keeps serving after a failed swap"
    );
    let descriptor = admin.get("/model/student").unwrap().json().unwrap();
    assert_eq!(
        descriptor.get("version").and_then(Json::as_u64),
        Some(reloads + 1),
        "a failed reload must not advance the version"
    );

    std::fs::remove_file(&path).ok();
}

#[test]
fn twenty_mid_traffic_hot_swaps_never_drop_or_misversion_under_epoll() {
    // This build's connection driver: epoll on Linux, the blocking pool
    // elsewhere.
    hot_swap_parity("epoll");
}

/// `(unlabelled, labelled)` served counters of the default tenant from one
/// `/metrics` scrape, which must pass the strict exposition lint.
fn served_counters(client: &mut HttpClient) -> (f64, f64) {
    let page = client.get("/metrics").expect("scrape").body;
    dtdbd_serve::prom::lint(&page).unwrap_or_else(|e| panic!("{e}\n---\n{page}"));
    let sample = |series: &str| -> f64 {
        let line = page.lines().find_map(|l| l.strip_prefix(series));
        line.and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("no {series} sample\n---\n{page}"))
    };
    (
        sample("dtdbd_requests_served_total "),
        sample("dtdbd_model_requests_served_total{model=\"student\"} "),
    )
}

#[test]
fn unlabelled_served_counter_never_drops_when_the_default_tenant_swaps() {
    let (v1, v2, ds) = two_checkpoints();
    let path = temp_checkpoint_path("counters");
    v1.save(&path).expect("write v1 checkpoint");
    let server = ServerBuilder::new()
        .batching(batching())
        .tenant_from_path("student", &path)
        .tenant("other", &v2)
        .default_model_id("student")
        .try_start_http()
        .expect("start zoo");
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    for item in ds.items().iter().take(8) {
        let request = InferenceRequest::new(item.tokens.clone(), item.domain);
        let body = json::encode_request(&request).render();
        assert_eq!(client.post("/predict", &body).unwrap().status, 200);
        assert_eq!(client.post("/predict/other", &body).unwrap().status, 200);
    }

    let before = served_counters(&mut client);
    assert_eq!(before.0, before.1);
    v2.save(&path).expect("flip checkpoint file");
    assert_eq!(
        client.post("/admin/reload/student", "").unwrap().status,
        200
    );
    // The two-tenant, post-reload page lints and the unlabelled counter is
    // the folded total, not the fresh version's.
    let after = served_counters(&mut client);
    assert!(after.0 >= before.0, "{before:?} -> {after:?}");
    assert_eq!(after.0, after.1);
    let stats = client.get("/stats").unwrap().json().unwrap();
    let student = stats.get("models").and_then(|m| m.get("student")).unwrap();
    assert_eq!(
        stats.get("requests_served"),
        student.get("requests_served_total")
    );
    drop(server);
    std::fs::remove_file(&path).ok();
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
fn wire_stages_follow_a_hot_swap_of_the_default_tenant_under_epoll() {
    let (v1, v2, ds) = two_checkpoints();
    let path = temp_checkpoint_path("wire-stages");
    v1.save(&path).expect("write v1 checkpoint");
    let server = ServerBuilder::new()
        .batching(batching())
        .tenant_from_path("student", &path)
        .try_start_http()
        .expect("start zoo");
    // One keep-alive connection across the swap: a recorder the listener
    // captured at start would keep feeding the retired version.
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    let n = 6u64;
    let predict = |client: &mut HttpClient| {
        for item in ds.items().iter().take(n as usize) {
            let request = InferenceRequest::new(item.tokens.clone(), item.domain);
            let body = json::encode_request(&request).render();
            assert_eq!(client.post("/predict", &body).unwrap().status, 200);
        }
    };
    predict(&mut client);
    let before = wire_stage_counts(&mut client);
    assert!(before.iter().all(|&c| c >= n), "{before:?}");
    v2.save(&path).expect("flip checkpoint file");
    let reload = client.post("/admin/reload/student", "").unwrap();
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
