//! End-to-end deployment round trip: train a student for one epoch, persist
//! it to a checkpoint file, load it back as a fresh process would, and serve
//! 1,000 single-item requests through the micro-batching server — verifying
//! that every batched answer matches the unbatched autograd forward pass to
//! within 1e-6.
//!
//! Run with:
//! ```text
//! cargo run --release -p dtdbd-bench --example serve_roundtrip
//! ```

use dtdbd_bench::harness::{fmt_ns, percentile};
use dtdbd_core::{train_model, TrainConfig};
use dtdbd_data::{weibo21_spec, GeneratorConfig, InferenceRequest, NewsGenerator};
use dtdbd_models::{FakeNewsModel, ModelConfig, TextCnnModel};
use dtdbd_serve::{BatchingConfig, Checkpoint, ServerBuilder};
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::{Graph, ParamStore};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    // 1. Train a TextCNN-S student for one epoch.
    let ds =
        NewsGenerator::new(weibo21_spec(), GeneratorConfig::default()).generate_scaled(42, 0.15);
    let split = ds.split(0.7, 0.1, 42);
    let cfg = ModelConfig::for_dataset(&split.train);
    let mut store = ParamStore::new();
    let mut model = TextCnnModel::student(&mut store, &cfg, &mut Prng::new(1));
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

    // 2. Save the checkpoint to disk.
    let path = std::env::temp_dir().join(format!("dtdbd-roundtrip-{}.dtdbd", std::process::id()));
    Checkpoint::capture(&model, &store)
        .save(&path)
        .expect("save checkpoint");
    let size = std::fs::metadata(&path).expect("stat checkpoint").len();
    println!("saved checkpoint: {} ({size} bytes)", path.display());

    // 3. Load it back the way a fresh serving process would: nothing is
    //    reused from the training objects except the file on disk.
    let checkpoint = Checkpoint::load(&path).expect("load checkpoint");
    std::fs::remove_file(&path).ok();
    println!(
        "loaded checkpoint: arch={} params={} vocab={}",
        checkpoint.arch,
        checkpoint.params.len(),
        checkpoint.config.vocab.size()
    );

    // 4. Reference answers: the *training* engine's tape forward pass, one
    //    item at a time, in evaluation mode.
    let n_requests = 1_000usize;
    let items: Vec<&dtdbd_data::NewsItem> = (0..n_requests)
        .map(|i| &split.test.items()[i % split.test.len()])
        .collect();
    let reference: Vec<f32> = items
        .iter()
        .map(|item| {
            let batch = dtdbd_data::Batch::from_items(
                std::slice::from_ref(item),
                vec![0],
                split.test.seq_len(),
            );
            let mut g = Graph::new(&mut store, false, 0);
            let out = model.forward(&mut g, &batch);
            let probs = g.value(out.logits).softmax_rows();
            probs.at2(0, 1)
        })
        .collect();

    // 5. Serve the same items through the micro-batching server: 2 workers,
    //    4 intra-op kernel threads each (bit-identical to any other thread
    //    count), and the default prediction cache in front of the queue —
    //    the request stream repeats items, exactly the traffic shape the
    //    cache exists for. Every worker is a full replica of the model;
    //    step 6 verifies the served answers against the tape forward.
    let server = Arc::new(
        ServerBuilder::new()
            .batching(BatchingConfig {
                max_batch_size: 32,
                max_wait: Duration::from_millis(2),
                workers: 2,
            })
            .threads(4)
            .try_start_from_checkpoint(&checkpoint)
            .expect("valid configuration"),
    );
    let clients = 4usize;
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let server = Arc::clone(&server);
            let requests: Vec<(usize, InferenceRequest)> = items
                .iter()
                .enumerate()
                .skip(c)
                .step_by(clients)
                .map(|(i, item)| {
                    (
                        i,
                        InferenceRequest {
                            tokens: item.tokens.clone(),
                            domain: item.domain,
                            style: Some(item.style.clone()),
                            emotion: Some(item.emotion.clone()),
                        },
                    )
                })
                .collect();
            std::thread::spawn(move || {
                let mut results = Vec::with_capacity(requests.len());
                for (i, request) in requests {
                    let t0 = Instant::now();
                    let prediction = server.predict(&request).expect("valid request");
                    results.push((i, prediction.fake_prob, t0.elapsed().as_nanos() as f64));
                }
                results
            })
        })
        .collect();
    let mut served = vec![0.0f32; n_requests];
    let mut latencies = Vec::with_capacity(n_requests);
    for handle in handles {
        for (i, prob, ns) in handle.join().expect("client thread") {
            served[i] = prob;
            latencies.push(ns);
        }
    }
    let elapsed = started.elapsed().as_secs_f64();

    // 6. Batched serving must reproduce the unbatched tape forward.
    let worst = reference
        .iter()
        .zip(served.iter())
        .map(|(r, s)| (r - s).abs())
        .fold(0.0f32, f32::max);
    println!(
        "served {n_requests} requests in {elapsed:.2}s ({:.0} items/sec) \
         | latency p50 {} p99 {}",
        n_requests as f64 / elapsed,
        fmt_ns(percentile(&latencies, 0.50)),
        fmt_ns(percentile(&latencies, 0.99)),
    );
    let stats = server.stats();
    println!(
        "server stats: {} served | {} batches | {} intra-op threads | cache {} hits / {} misses ({} entries)",
        stats.requests_served,
        stats.batches,
        stats.threads,
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.entries,
    );
    println!(
        "replicas: {} workers, each holding the full model ({} KiB resident parameters per worker)",
        stats.workers,
        stats.resident_param_bytes_per_worker / 1024,
    );
    println!("max |batched - unbatched| fake-probability gap: {worst:.2e}");
    assert!(
        worst <= 1e-6,
        "batched serving diverged from the training forward pass"
    );
    println!("round trip OK: train -> save -> load -> serve is numerically faithful.");
}
