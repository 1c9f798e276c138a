//! Serving benchmark: tape-free batched inference latency and throughput.
//!
//! Trains a TextCNN-S student briefly, round-trips it through a checkpoint,
//! and measures:
//!
//! * direct `InferenceSession` latency (p50 / p99) and throughput at batch
//!   sizes 1, 8 and 64;
//! * the micro-batching `PredictServer` under concurrent single-item
//!   traffic.
//!
//! Results are printed as a table and written to `BENCH_serving.json`.
//!
//! Run with: `cargo run --release -p dtdbd-bench --bin serving [--quick]`

use dtdbd_bench::harness::{fmt_ns, percentile};
use dtdbd_core::{train_model, TrainConfig};
use dtdbd_data::{weibo21_spec, GeneratorConfig, InferenceRequest, NewsGenerator};
use dtdbd_metrics::TableBuilder;
use dtdbd_models::{ModelConfig, TextCnnModel};
use dtdbd_serve::{session_from_checkpoint, BatchingConfig, Checkpoint, ServerBuilder};
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::ParamStore;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCH_SIZES: [usize; 3] = [1, 8, 64];

/// Batch-64 items/sec of the PR 1 serving baseline (the committed
/// BENCH_serving.json before the blocked/parallel kernel overhaul), kept to
/// report the speedup of the new compute layer.
const PR1_BATCH64_ITEMS_PER_SEC: f64 = 4980.3;

/// Intra-op threads used by the measured sessions (clamped to the host's
/// cores inside the kernels; predictions are bit-identical regardless).
const INTRA_THREADS: usize = 4;

struct BatchResult {
    batch_size: usize,
    iterations: usize,
    p50_ns: f64,
    p99_ns: f64,
    items_per_sec: f64,
}

struct ServerResult {
    requests: usize,
    clients: usize,
    workers: usize,
    max_batch_size: usize,
    max_wait_ms: f64,
    p50_ns: f64,
    p99_ns: f64,
    items_per_sec: f64,
    cache_hits: u64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (scale, iters_budget, server_requests) = if quick {
        (0.05, 200usize, 300usize)
    } else {
        (0.15, 1000usize, 1000usize)
    };

    eprintln!("[serving] generating corpus and training the student (1 epoch)...");
    let ds =
        NewsGenerator::new(weibo21_spec(), GeneratorConfig::default()).generate_scaled(42, scale);
    let split = ds.split(0.7, 0.1, 42);
    let cfg = ModelConfig::for_dataset(&split.train);
    let mut store = ParamStore::new();
    let mut model = TextCnnModel::student(&mut store, &cfg, &mut Prng::new(1));
    train_model(
        &mut model,
        &mut store,
        &split.train,
        &TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        },
    );

    // Round-trip through the checkpoint codec so the benchmark measures the
    // deployed artifact, not the training-process object graph.
    let checkpoint = Checkpoint::capture(&model, &store);
    let checkpoint = Checkpoint::from_bytes(&checkpoint.to_bytes()).expect("self round trip");
    eprintln!(
        "[serving] checkpoint: {} params, {} bytes",
        checkpoint.params.len(),
        checkpoint.to_bytes().len()
    );

    // Request stream drawn from the held-out test set.
    let requests: Vec<InferenceRequest> = split
        .test
        .items()
        .iter()
        .map(|item| InferenceRequest {
            tokens: item.tokens.clone(),
            domain: item.domain,
            style: Some(item.style.clone()),
            emotion: Some(item.emotion.clone()),
        })
        .collect();

    assert_thread_parity(&checkpoint, &requests);

    let batch_results: Vec<BatchResult> = BATCH_SIZES
        .iter()
        .map(|&bs| bench_direct_batches(&checkpoint, &requests, bs, iters_budget))
        .collect();

    // Cache disabled: comparable to the PR 1 baseline. The cached run then
    // shows what recurring traffic gains from the prediction cache.
    let server_result = bench_server(&checkpoint, &requests, server_requests, 0);
    let server_cached = bench_server(&checkpoint, &requests, server_requests, 4096);

    render_table(&batch_results, &server_result, &server_cached);
    let json = render_json(&checkpoint, &batch_results, &server_result, &server_cached);
    std::fs::write("BENCH_serving.json", &json).expect("write BENCH_serving.json");
    eprintln!("[serving] wrote BENCH_serving.json");
}

/// The determinism contract, checked on the deployed artifact: predictions
/// are bit-identical at every intra-op thread count.
fn assert_thread_parity(checkpoint: &Checkpoint, requests: &[InferenceRequest]) {
    let mut reference: Option<Vec<u32>> = None;
    for threads in [1usize, 2, INTRA_THREADS, 8] {
        let mut session = session_from_checkpoint(checkpoint).expect("restore");
        session.set_threads(threads);
        let encoded: Vec<_> = requests
            .iter()
            .take(64)
            .map(|r| session.encoder().encode(r).expect("valid request"))
            .collect();
        let bits: Vec<u32> = session
            .predict_requests(&encoded)
            .iter()
            .map(|p| p.fake_prob.to_bits())
            .collect();
        match &reference {
            None => reference = Some(bits),
            Some(want) => assert_eq!(want, &bits, "thread parity violated at {threads}"),
        }
    }
    eprintln!("[serving] thread parity OK (1/2/4/8 threads, bit-exact)");
}

/// Latency of direct `predict_batch` calls at a fixed batch size.
fn bench_direct_batches(
    checkpoint: &Checkpoint,
    requests: &[InferenceRequest],
    batch_size: usize,
    iters: usize,
) -> BatchResult {
    let mut session = session_from_checkpoint(checkpoint).expect("restore");
    session.set_threads(INTRA_THREADS);
    let encoded: Vec<_> = requests
        .iter()
        .map(|r| session.encoder().encode(r).expect("valid request"))
        .collect();
    // Warmup: fills the buffer pool to this batch shape.
    let chunk: Vec<_> = encoded.iter().take(batch_size).cloned().collect();
    session.predict_requests(&chunk);

    let mut samples = Vec::with_capacity(iters);
    let started = Instant::now();
    let mut cursor = 0usize;
    for _ in 0..iters {
        let batch: Vec<_> = (0..batch_size)
            .map(|i| encoded[(cursor + i) % encoded.len()].clone())
            .collect();
        cursor = (cursor + batch_size) % encoded.len();
        let t0 = Instant::now();
        let predictions = session.predict_requests(&batch);
        samples.push(t0.elapsed().as_nanos() as f64);
        assert_eq!(predictions.len(), batch_size);
    }
    let total = started.elapsed().as_secs_f64();
    BatchResult {
        batch_size,
        iterations: iters,
        p50_ns: percentile(&samples, 0.50),
        p99_ns: percentile(&samples, 0.99),
        items_per_sec: (iters * batch_size) as f64 / total,
    }
}

/// Client-observed latency through the micro-batching server.
fn bench_server(
    checkpoint: &Checkpoint,
    requests: &[InferenceRequest],
    total_requests: usize,
    cache_capacity: usize,
) -> ServerResult {
    let config = BatchingConfig {
        max_batch_size: 32,
        max_wait: Duration::from_millis(2),
        workers: 2,
    };
    let clients = 4usize;
    let server = Arc::new(
        ServerBuilder::new()
            .batching(config.clone())
            .threads(INTRA_THREADS)
            .cache_capacity(cache_capacity)
            .try_start_from_checkpoint(checkpoint)
            .expect("valid configuration"),
    );

    let per_client = total_requests / clients;
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let server = Arc::clone(&server);
            let stream: Vec<InferenceRequest> = (0..per_client)
                .map(|i| requests[(c * per_client + i) % requests.len()].clone())
                .collect();
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(stream.len());
                for request in &stream {
                    let t0 = Instant::now();
                    let prediction = server.predict(request).expect("valid request");
                    latencies.push(t0.elapsed().as_nanos() as f64);
                    assert!(prediction.fake_prob.is_finite());
                }
                latencies
            })
        })
        .collect();
    let mut samples = Vec::with_capacity(clients * per_client);
    for handle in handles {
        samples.extend(handle.join().expect("client thread"));
    }
    let total = started.elapsed().as_secs_f64();
    let cache_hits = server.stats().cache.hits;
    ServerResult {
        requests: samples.len(),
        clients,
        workers: config.workers,
        max_batch_size: config.max_batch_size,
        max_wait_ms: config.max_wait.as_secs_f64() * 1e3,
        p50_ns: percentile(&samples, 0.50),
        p99_ns: percentile(&samples, 0.99),
        items_per_sec: samples.len() as f64 / total,
        cache_hits,
    }
}

fn render_table(batches: &[BatchResult], server: &ServerResult, cached: &ServerResult) {
    let mut table = TableBuilder::new("Serving — tape-free batched inference (TextCNN-S)")
        .header(["Mode", "p50", "p99", "items/sec"]);
    for b in batches {
        table.row([
            format!("direct batch={}", b.batch_size),
            fmt_ns(b.p50_ns),
            fmt_ns(b.p99_ns),
            format!("{:.0}", b.items_per_sec),
        ]);
    }
    table.row([
        format!(
            "server {}w q{} {}ms",
            server.workers, server.max_batch_size, server.max_wait_ms
        ),
        fmt_ns(server.p50_ns),
        fmt_ns(server.p99_ns),
        format!("{:.0}", server.items_per_sec),
    ]);
    table.row([
        format!("server + cache ({} hits)", cached.cache_hits),
        fmt_ns(cached.p50_ns),
        fmt_ns(cached.p99_ns),
        format!("{:.0}", cached.items_per_sec),
    ]);
    println!("{}", table.render());
    let batch64 = batches.iter().find(|b| b.batch_size == 64);
    if let Some(b) = batch64 {
        println!(
            "(batch-64: {:.0} items/sec, {:.2}x over the PR 1 baseline of {:.0})",
            b.items_per_sec,
            b.items_per_sec / PR1_BATCH64_ITEMS_PER_SEC,
            PR1_BATCH64_ITEMS_PER_SEC
        );
    }
}

fn render_json(
    checkpoint: &Checkpoint,
    batches: &[BatchResult],
    server: &ServerResult,
    cached: &ServerResult,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"model\": \"{}\",\n", checkpoint.arch));
    out.push_str(&format!(
        "  \"checkpoint_bytes\": {},\n",
        checkpoint.to_bytes().len()
    ));
    out.push_str(&format!("  \"intra_op_threads\": {INTRA_THREADS},\n"));
    out.push_str("  \"thread_parity\": true,\n");
    out.push_str("  \"batch_latency\": [\n");
    for (i, b) in batches.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"batch_size\": {}, \"iterations\": {}, \"p50_us\": {:.2}, \"p99_us\": {:.2}, \"items_per_sec\": {:.1}}}{}\n",
            b.batch_size,
            b.iterations,
            b.p50_ns / 1e3,
            b.p99_ns / 1e3,
            b.items_per_sec,
            if i + 1 < batches.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"server\": {{\"requests\": {}, \"clients\": {}, \"workers\": {}, \"max_batch_size\": {}, \"max_wait_ms\": {:.1}, \"p50_us\": {:.2}, \"p99_us\": {:.2}, \"items_per_sec\": {:.1}}},\n",
        server.requests,
        server.clients,
        server.workers,
        server.max_batch_size,
        server.max_wait_ms,
        server.p50_ns / 1e3,
        server.p99_ns / 1e3,
        server.items_per_sec
    ));
    out.push_str(&format!(
        "  \"server_cached\": {{\"requests\": {}, \"cache_hits\": {}, \"p50_us\": {:.2}, \"p99_us\": {:.2}, \"items_per_sec\": {:.1}}},\n",
        cached.requests,
        cached.cache_hits,
        cached.p50_ns / 1e3,
        cached.p99_ns / 1e3,
        cached.items_per_sec
    ));
    let batch64_speedup = batches
        .iter()
        .find(|b| b.batch_size == 64)
        .map_or(0.0, |b| b.items_per_sec / PR1_BATCH64_ITEMS_PER_SEC);
    out.push_str(&format!(
        "  \"baseline_pr1\": {{\"batch64_items_per_sec\": {PR1_BATCH64_ITEMS_PER_SEC}, \"speedup_batch64\": {batch64_speedup:.2}}}\n"
    ));
    out.push_str("}\n");
    out
}
