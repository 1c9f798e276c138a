//! Direct calls into single layers, timed from outside: request encoding,
//! the JSON codec, batched inference and the compute kernels. Operation
//! counts and bytes moved are computed from tensor sizes, not measured.

use crate::stats::median;
use dtdbd_data::InferenceRequest;
use dtdbd_serve::json;
use dtdbd_serve::{session_from_checkpoint, Checkpoint, Prediction};
use dtdbd_tensor::kernels::{gather_rows, gemm_into, im2row, packed_len};
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::QuantizedMatrix;
use std::hint::black_box;
use std::time::Instant;

/// The serving GEMM shapes `(name, m, k, n)` at batch 64, sequence 24,
/// embedding 32: the im2row'd convolution branches, the feature heads and
/// the classifier (the `serving`-tagged shapes of the `kernels` bench).
const SERVING_SHAPES: [(&str, usize, usize, usize); 5] = [
    ("conv_k3_im2row", 64 * 22, 3 * 32, 32),
    ("conv_k5_im2row", 64 * 20, 5 * 32, 32),
    ("mdfend_expert_head", 64, 160, 64),
    ("student_feature_head", 64, 128, 64),
    ("classifier", 64, 64, 2),
];
/// Batch, sequence length, embedding width and kernel width of the
/// convolution input that im2row and the embedding gather see.
const BATCH: usize = 64;
const SEQ: usize = 24;
const EMB: usize = 32;
const KW: usize = 3;
const VOCAB: usize = 4096;
/// Timed repetitions per measurement; the median is reported.
const REPS: usize = 31;

/// Median seconds of one call of `body` over [`REPS`] timed calls, after
/// two untimed ones.
fn time_call(body: &mut dyn FnMut()) -> f64 {
    body();
    body();
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            body();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Median microseconds per item of `f` applied to every item of `items`.
fn per_item_us<T>(items: &[T], f: &mut dyn FnMut(&T)) -> f64 {
    let seconds = time_call(&mut || {
        for x in items {
            f(x);
        }
    });
    seconds * 1e6 / items.len() as f64
}

/// A per-layer metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Request encoding and the JSON codec on the workload's own bodies and
/// answers, and batched inference at batch 1, 8 and 32.
pub fn serving_layers(
    checkpoint: &Checkpoint,
    requests: &[InferenceRequest],
    bodies: &[String],
    answers: &[Prediction],
) -> Vec<Metric> {
    let mut session = session_from_checkpoint(checkpoint).expect("restore a session");
    let encoder = session.encoder().clone();
    let mut out = vec![(
        "data.request.encode_us".to_string(),
        per_item_us(requests, &mut |r| {
            black_box(encoder.encode(r).expect("valid request"));
        }),
        "us",
    )];
    out.push((
        "serve.json.decode_us".into(),
        per_item_us(bodies, &mut |b| {
            let doc = json::parse(b).expect("valid JSON");
            black_box(json::decode_request(&doc).expect("valid request"));
        }),
        "us",
    ));
    out.push((
        "serve.json.encode_us".into(),
        per_item_us(answers, &mut |p| {
            black_box(json::encode_prediction(p).render());
        }),
        "us",
    ));
    let encoded: Vec<_> = requests
        .iter()
        .take(32)
        .map(|r| encoder.encode(r).expect("valid request"))
        .collect();
    for b in [1usize, 8, 32] {
        let batch = &encoded[..b];
        out.push((
            format!("serve.session.predict_us.b{b}"),
            time_call(&mut || {
                black_box(session.predict_requests(batch));
            }) * 1e6,
            "us",
        ));
    }
    out
}

/// GFLOP/s of the serving GEMM shapes (fp32 and int8), im2row and the
/// embedding-row gather, single-threaded as the default server runs them.
pub fn kernel_layers() -> Vec<Metric> {
    let mut rng = Prng::new(0x5EED);
    let mut fill = |n: usize| {
        (0..n)
            .map(|_| rng.normal_with(0.0, 1.0))
            .collect::<Vec<f32>>()
    };
    let mut out = Vec::new();
    let (mut flops_total, mut bytes_total) = (0.0, 0.0);
    let (mut fp32_secs, mut int8_secs) = (0.0, 0.0);
    for (name, m, k, n) in SERVING_SHAPES {
        let a = fill(m * k);
        let b = fill(k * n);
        let w = fill(n * k);
        let bias = vec![0.0f32; n];
        let mut c = vec![0.0f32; m * n];
        let mut scratch = vec![0.0f32; packed_len(k, n)];
        let flops = (2 * m * k * n) as f64;
        let secs = time_call(&mut || {
            gemm_into(m, k, n, &a, &b, &mut c, 1, &mut scratch);
            black_box(&c);
        });
        let quantized = QuantizedMatrix::from_rows(n, k, &w);
        let int8 = time_call(&mut || {
            quantized.matmul_into(&a, m, &bias, &mut c, 1);
            black_box(&c);
        });
        flops_total += flops;
        bytes_total += (4 * (m * k + k * n + m * n)) as f64;
        fp32_secs += secs;
        int8_secs += int8;
        out.push((
            format!("tensor.kernels.gemm_gflops.{name}"),
            flops / secs / 1e9,
            "GFLOP/s",
        ));
    }
    out.push((
        "tensor.kernels.gemm_gflops.serving_mix".into(),
        flops_total / fp32_secs / 1e9,
        "GFLOP/s",
    ));
    out.push((
        "tensor.kernels.serving_mix.mflop".into(),
        flops_total / 1e6,
        "MFLOP",
    ));
    out.push((
        "tensor.kernels.serving_mix.kbytes".into(),
        bytes_total / 1e3,
        "kB",
    ));
    out.push((
        "tensor.quant.gemm_gflops.serving_mix".into(),
        flops_total / int8_secs / 1e9,
        "GFLOP/s",
    ));

    let x = fill(BATCH * SEQ * EMB);
    let mut rows = vec![0.0f32; BATCH * (SEQ - KW + 1) * KW * EMB];
    out.push((
        "tensor.kernels.im2row_us".into(),
        time_call(&mut || {
            im2row(&x, BATCH, SEQ, EMB, KW, &mut rows, 1);
            black_box(&rows);
        }) * 1e6,
        "us",
    ));
    out.push((
        "tensor.kernels.im2row.kbytes".into(),
        (4 * (x.len() + rows.len())) as f64 / 1e3,
        "kB",
    ));
    let table = fill(VOCAB * EMB);
    let ids: Vec<u32> = (0..BATCH * SEQ)
        .map(|i| (i * 7919 % VOCAB) as u32)
        .collect();
    let mut gathered = vec![0.0f32; ids.len() * EMB];
    out.push((
        "tensor.kernels.gather_rows_us".into(),
        time_call(&mut || {
            gather_rows(&table, EMB, &ids, &mut gathered, 1);
            black_box(&gathered);
        }) * 1e6,
        "us",
    ));
    out.push((
        "tensor.kernels.gather_rows.kbytes".into(),
        (4 * (2 * gathered.len() + ids.len())) as f64 / 1e3,
        "kB",
    ));
    out
}
