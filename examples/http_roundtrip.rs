//! Full deployment round trip over a real wire: train a student, persist it
//! to a checkpoint file, load it back as a fresh serving process would, put
//! the HTTP/1.1 front-end in front of the micro-batching server, and fire
//! 1,000+ requests over TCP from concurrent keep-alive clients — verifying
//! **zero connection errors** and wire probabilities **bit-identical** to
//! the in-process tape-free inference path.
//!
//! Run with:
//! ```text
//! cargo run --release -p dtdbd-bench --example http_roundtrip
//! ```

use dtdbd_bench::harness::{fmt_ns, percentile};
use dtdbd_core::{train_model, TrainConfig};
use dtdbd_data::{weibo21_spec, GeneratorConfig, InferenceRequest, NewsGenerator};
use dtdbd_models::{FakeNewsModel, ModelConfig, TextCnnModel};
use dtdbd_serve::http::HttpClient;
use dtdbd_serve::json::{self, Json};
use dtdbd_serve::{prom, session_from_checkpoint, Checkpoint, DomainBaseline, ServerBuilder};
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::ParamStore;
use std::time::{Duration, Instant};

fn main() {
    // 1. Train a TextCNN-S student for one epoch.
    let ds =
        NewsGenerator::new(weibo21_spec(), GeneratorConfig::default()).generate_scaled(7, 0.08);
    let split = ds.split(0.7, 0.1, 7);
    let cfg = ModelConfig::for_dataset(&split.train);
    let mut store = ParamStore::new();
    let mut model = TextCnnModel::student(&mut store, &cfg, &mut Prng::new(3));
    let report = train_model(
        &mut model,
        &mut store,
        &split.train,
        &TrainConfig {
            epochs: 1,
            verbose: true,
            ..TrainConfig::default()
        },
    );
    println!(
        "trained {} for 1 epoch ({} steps, final loss {:.4})",
        model.name(),
        report.steps,
        report.final_loss()
    );

    // 2. Save to disk, then load back — nothing survives except the file.
    let path = std::env::temp_dir().join(format!("dtdbd-http-{}.dtdbd", std::process::id()));
    Checkpoint::capture(&model, &store)
        .save(&path)
        .expect("save checkpoint");
    let mut checkpoint = Checkpoint::load(&path).expect("load checkpoint");
    std::fs::remove_file(&path).ok();
    println!(
        "checkpoint round trip: arch={} params={}",
        checkpoint.arch,
        checkpoint.params.len()
    );

    // 3. In-process reference answers through a plain restored session.
    let n_requests = 1_000usize;
    let requests: Vec<InferenceRequest> = (0..n_requests)
        .map(|i| {
            let item = &split.test.items()[i % split.test.len()];
            InferenceRequest {
                tokens: item.tokens.clone(),
                domain: item.domain,
                style: Some(item.style.to_vec()),
                emotion: Some(item.emotion.to_vec()),
            }
        })
        .collect();
    let mut reference_session = session_from_checkpoint(&checkpoint).expect("restore");
    let reference: Vec<f32> = requests
        .iter()
        .map(|request| {
            let encoded = reference_session.encoder().encode(request).expect("valid");
            reference_session.predict_requests(&[encoded])[0].fake_prob
        })
        .collect();

    // 3.5. Freeze the reference prediction distribution into the checkpoint
    //      as the drift baseline — the serving side below auto-wires it.
    let baseline = DomainBaseline::from_observations(
        reference_session.encoder().n_domains(),
        requests
            .iter()
            .zip(&reference)
            .map(|(request, &prob)| (request.domain, prob)),
    );
    checkpoint.set_telemetry_baseline(&baseline);

    // 4. Serve the same requests over real TCP.
    let server = ServerBuilder::new()
        .workers(2)
        .max_batch_size(32)
        .max_wait(Duration::from_millis(2))
        .try_start_http_from_checkpoint(&checkpoint)
        .expect("serve the checkpoint");
    let addr = server.local_addr();
    println!("listening on http://{addr}");

    let clients = 8usize;
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let bodies: Vec<(usize, String)> = requests
                .iter()
                .enumerate()
                .skip(c)
                .step_by(clients)
                .map(|(i, r)| (i, json::encode_request(r).render()))
                .collect();
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).expect("connect");
                let mut results = Vec::with_capacity(bodies.len());
                let mut connection_errors = 0usize;
                for (i, body) in bodies {
                    let t0 = Instant::now();
                    match client.post("/predict", &body) {
                        Ok(response) if response.status == 200 => {
                            let prob = response
                                .json()
                                .expect("valid JSON")
                                .get("fake_prob")
                                .and_then(Json::as_f64)
                                .expect("fake_prob present")
                                as f32;
                            results.push((i, prob, t0.elapsed().as_nanos() as f64));
                        }
                        Ok(response) => panic!("request {i}: HTTP {}", response.status),
                        Err(_) => connection_errors += 1,
                    }
                }
                (results, connection_errors)
            })
        })
        .collect();
    let mut served = vec![0.0f32; n_requests];
    let mut latencies = Vec::with_capacity(n_requests);
    let mut connection_errors = 0usize;
    for handle in handles {
        let (results, errors) = handle.join().expect("client thread");
        connection_errors += errors;
        for (i, prob, ns) in results {
            served[i] = prob;
            latencies.push(ns);
        }
    }
    let elapsed = started.elapsed().as_secs_f64();

    // 5. Verdict: zero connection errors, bit-identical probabilities.
    assert_eq!(connection_errors, 0, "connection errors over the wire");
    assert_eq!(latencies.len(), n_requests, "every request must answer");
    let mismatches = reference
        .iter()
        .zip(served.iter())
        .filter(|(r, s)| r.to_bits() != s.to_bits())
        .count();
    println!(
        "served {n_requests} requests over TCP in {elapsed:.2}s ({:.0} req/sec) \
         | latency p50 {} p99 {} | connection errors: {connection_errors}",
        n_requests as f64 / elapsed,
        fmt_ns(percentile(&latencies, 0.50)),
        fmt_ns(percentile(&latencies, 0.99)),
    );
    assert_eq!(
        mismatches, 0,
        "{mismatches} wire probabilities differ from the in-process path"
    );
    println!("round trip OK: train -> save -> load -> HTTP serve is bit-exact.");

    // 6. Observability: the /metrics page must satisfy the strict exposition
    //    lint, carry the traffic just sent, and — because the checkpoint
    //    shipped a baseline of these very predictions — show (near-)zero
    //    drift. /stats exposes the same as JSON quantiles.
    let mut probe = HttpClient::connect(addr).expect("connect");
    let scrape = probe.get("/metrics").expect("scrape /metrics");
    assert_eq!(scrape.status, 200);
    prom::lint(&scrape.body).expect("/metrics fails the exposition lint");
    assert!(
        scrape
            .body
            .contains(&format!("dtdbd_requests_served_total {n_requests}")),
        "metrics page missing the served-request counter"
    );
    assert!(
        scrape.body.contains("dtdbd_stage_latency_seconds_bucket"),
        "metrics page missing the stage histograms"
    );
    assert!(
        scrape.body.contains("dtdbd_domain_drift_score"),
        "metrics page missing the drift scores"
    );
    let stats = probe.get("/stats").expect("/stats").json().expect("JSON");
    let inference = stats
        .get("stages")
        .and_then(|s| s.get("inference"))
        .expect("per-stage quantiles in /stats");
    println!(
        "telemetry OK: /metrics lints, inference p99 {:.1}us over {} samples",
        inference.get("p99_us").and_then(Json::as_f64).unwrap(),
        inference.get("count").and_then(Json::as_u64).unwrap(),
    );

    // 7. Graceful teardown: readiness drops first (load balancers stop
    //    routing), then the listener joins its threads and drains the
    //    micro-batching core.
    // Once draining starts the listener stops accepting and every response
    // carries `Connection: close`, so each pre-drain connection serves
    // exactly one more request — the liveness check needs its own probe
    // connection, opened (and served once, so it is accepted) before drain.
    let mut live = HttpClient::connect(addr).expect("connect liveness probe");
    assert_eq!(live.get("/healthz").expect("/healthz").status, 200);
    assert_eq!(probe.get("/readyz").expect("/readyz").status, 200);
    server.begin_drain();
    assert_eq!(
        probe.get("/readyz").expect("/readyz while draining").status,
        503,
        "readiness must drop once draining starts"
    );
    assert_eq!(
        live.get("/healthz")
            .expect("/healthz while draining")
            .status,
        200,
        "liveness must survive draining"
    );
    drop(live);
    drop(probe);
    server.shutdown();
    println!("shutdown complete: drained via /readyz, listener joined, queue drained.");
}
