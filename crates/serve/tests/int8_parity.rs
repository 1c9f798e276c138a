//! The int8 serving determinism contract: quantized predictions are
//! **bit-identical to themselves** across every intra-op thread count ×
//! worker count combination, with and without the prediction cache in
//! front. Int8 may round differently from fp32 (the CI agreement gate
//! bounds that drift); what it may never do is vary with the deployment
//! shape — the i32 ascending-k accumulation order is fixed and the int8
//! embedding gather is element-wise, so parallelism cannot perturb a
//! single bit.
//!
//! Also pins the memory contract (quantization shrinks per-worker resident
//! parameter bytes >3x, on the tiny test config and on the deployed
//! TextCNN-S student) and the cache-key contract (fp32 and int8 entries
//! never alias).
//!
//! `CI_QUICK=1` halves the request count; the {1,4} threads × {1,2,4}
//! workers × cache on/off matrix always runs in full.

use dtdbd_data::{
    weibo21_spec, GeneratorConfig, InferenceRequest, MultiDomainDataset, NewsGenerator,
};
use dtdbd_models::{ModelConfig, TextCnnModel};
use dtdbd_serve::{Checkpoint, Precision, ServerBuilder};
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::ParamStore;

fn quick() -> bool {
    std::env::var("CI_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn dataset() -> MultiDomainDataset {
    NewsGenerator::new(weibo21_spec(), GeneratorConfig::tiny()).generate_scaled(17, 0.03)
}

fn checkpoint(ds: &MultiDomainDataset) -> Checkpoint {
    student_checkpoint(&ModelConfig::tiny(ds))
}

fn student_checkpoint(cfg: &ModelConfig) -> Checkpoint {
    let mut store = ParamStore::new();
    let model = TextCnnModel::student(&mut store, cfg, &mut Prng::new(23));
    let ckpt = Checkpoint::capture(&model, &store);
    Checkpoint::from_bytes(&ckpt.to_bytes()).expect("self round trip")
}

fn requests(ds: &MultiDomainDataset, n: usize) -> Vec<InferenceRequest> {
    ds.items()
        .iter()
        .take(n)
        .map(|item| InferenceRequest {
            tokens: item.tokens.clone(),
            domain: item.domain,
            style: Some(item.style.clone()),
            emotion: Some(item.emotion.clone()),
        })
        .collect()
}

/// Bit patterns of `(fake_prob, logits)` from one int8 deployment shape.
fn int8_bits(
    ckpt: &Checkpoint,
    reqs: &[InferenceRequest],
    workers: usize,
    threads: usize,
    cache_capacity: usize,
) -> Vec<[u32; 3]> {
    let server = ServerBuilder::new()
        .workers(workers)
        .threads(threads)
        .cache_capacity(cache_capacity)
        .precision(Precision::Int8)
        .try_start_from_checkpoint(ckpt)
        .expect("valid int8 configuration");
    let stats = server.stats();
    assert_eq!(stats.precision, Precision::Int8);
    assert!(
        stats.quantized_param_bytes_per_worker > 0,
        "int8 workers hold quantized codes"
    );
    let bits = reqs
        .iter()
        .map(|r| {
            let p = server.predict(r).expect("valid request");
            [
                p.fake_prob.to_bits(),
                p.logits[0].to_bits(),
                p.logits[1].to_bits(),
            ]
        })
        .collect();
    server.shutdown();
    bits
}

#[test]
fn int8_predictions_are_bit_identical_across_the_deployment_matrix() {
    let ds = dataset();
    let ckpt = checkpoint(&ds);
    let reqs = requests(&ds, if quick() { 24 } else { 48 });
    // Ground truth: the smallest int8 deployment (1 worker, 1 thread, no
    // cache). Every other shape must reproduce it exactly.
    let reference = int8_bits(&ckpt, &reqs, 1, 1, 0);

    for w in [1usize, 2, 4] {
        for threads in [1usize, 4] {
            for cache_capacity in [0usize, 256] {
                let got = int8_bits(&ckpt, &reqs, w, threads, cache_capacity);
                assert_eq!(
                    got, reference,
                    "{w} workers / {threads} threads / cache {cache_capacity}: \
                     int8 predictions diverged from the 1w/1t/uncached run"
                );
            }
        }
    }
}

#[test]
fn int8_cache_hits_stay_self_identical() {
    let ds = dataset();
    let ckpt = checkpoint(&ds);
    let reqs = requests(&ds, 60);
    let reference = int8_bits(&ckpt, &reqs, 1, 1, 0);

    // Cache on, so the second round exercises the hit path with
    // precision-tagged keys.
    let server = ServerBuilder::new()
        .workers(3)
        .cache_capacity(256)
        .precision(Precision::Int8)
        .try_start_from_checkpoint(&ckpt)
        .expect("valid cached int8 configuration");

    for round in 0..2 {
        for (i, (request, want)) in reqs.iter().zip(&reference).enumerate() {
            let p = server.predict(request).expect("valid request");
            assert_eq!(
                p.fake_prob.to_bits(),
                want[0],
                "round {round} item {i}: cached int8 diverged"
            );
        }
    }
    let stats = server.stats();
    assert!(stats.cache.hits >= reqs.len() as u64, "second round hits");
}

#[test]
fn int8_workers_shed_at_least_three_quarters_of_resident_bytes() {
    // The tiny test config at 2 workers, and the deployed shape: the
    // TextCNN-S student at `ModelConfig::for_dataset` size at 8 workers.
    let deployed =
        NewsGenerator::new(weibo21_spec(), GeneratorConfig::default()).generate_scaled(42, 0.03);
    let shapes = [
        ("tiny", checkpoint(&dataset()), 2),
        (
            "deployed",
            student_checkpoint(&ModelConfig::for_dataset(&deployed)),
            8,
        ),
    ];
    for (shape, ckpt, workers) in shapes {
        let fp32 = ServerBuilder::new()
            .workers(workers)
            .try_start_from_checkpoint(&ckpt)
            .expect("fp32 replica");
        let int8 = ServerBuilder::new()
            .workers(workers)
            .precision(Precision::Int8)
            .try_start_from_checkpoint(&ckpt)
            .expect("int8 replica");

        let f = fp32.stats();
        let q = int8.stats();
        assert_eq!(f.precision, Precision::Fp32);
        assert_eq!(f.quantized_param_bytes_per_worker, 0);
        assert!(
            q.resident_param_bytes_per_worker * 3 < f.resident_param_bytes_per_worker,
            "{shape}: int8 resident bytes per worker ({}) should be >3x below fp32 ({})",
            q.resident_param_bytes_per_worker,
            f.resident_param_bytes_per_worker
        );
        assert!(q.quantized_param_bytes_per_worker > 0);
        assert!(q.quantized_param_bytes_per_worker <= q.resident_param_bytes_per_worker);
    }
}

#[test]
fn fp32_and_int8_agree_on_most_labels() {
    // Not the CI gate (check_bench.sh enforces 99.5% on the trained
    // agreement bench) — a coarse tripwire that the quantized forward pass
    // computes the same function, not garbage.
    let ds = dataset();
    let ckpt = checkpoint(&ds);
    let reqs = requests(&ds, 64);

    let fp32 = ServerBuilder::new()
        .workers(1)
        .try_start_from_checkpoint(&ckpt)
        .expect("fp32");
    let int8 = ServerBuilder::new()
        .workers(1)
        .precision(Precision::Int8)
        .try_start_from_checkpoint(&ckpt)
        .expect("int8");

    let mut agree = 0usize;
    for r in &reqs {
        let a = fp32.predict(r).expect("valid").fake_prob >= 0.5;
        let b = int8.predict(r).expect("valid").fake_prob >= 0.5;
        agree += usize::from(a == b);
    }
    assert!(
        agree * 10 >= reqs.len() * 9,
        "int8 agreed on only {agree}/{} labels",
        reqs.len()
    );
}
