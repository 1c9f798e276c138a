//! GEMM kernel benchmark: naive vs cache-blocked vs blocked+parallel.
//!
//! Measures GFLOP/s on the matrix shapes the serving and training hot paths
//! actually run — the im2row'd TextCNN convolutions, the MDFEND/TextCNN
//! feature heads and classifier layers at serving batch 64 — for three
//! kernels:
//!
//! * `naive` — the pre-overhaul i-k-j loop with its `a == 0.0` branch
//!   (kept verbatim as [`dtdbd_tensor::kernels::gemm_naive_branchy`]);
//! * `blocked` — the packed, register-tiled kernel, single-threaded;
//! * `parallel` — the same kernel row-partitioned over 4 intra-op threads.
//!
//! Results are printed as a table and written to `BENCH_kernels.json`.
//!
//! Run with: `cargo run --release -p dtdbd-bench --bin kernels [--quick]`
//!
//! `--parity-smoke` instead runs a fast seeded bit-parity check of the
//! blocked/parallel kernels against the naive reference — including one
//! convolution whose windows the GEMM reads in place and one `Aᵀ·B` — and
//! exits non-zero on any mismatch; `scripts/ci.sh` uses it as the offline
//! regression gate for the hot path.

use dtdbd_metrics::TableBuilder;
use dtdbd_tensor::kernels::{
    conv1d_into, gemm_atb_into, gemm_into, gemm_naive_branchy, gemm_reference, im2row, packed_len,
    transpose_into,
};
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::QuantizedMatrix;
use std::time::{Duration, Instant};

/// Intra-op threads of the `parallel` variant (the acceptance shape of the
/// serving deployment).
const PARALLEL_THREADS: usize = 4;

/// Model-relevant shapes at serving batch 64, seq 24, emb 32 (the default
/// `ModelConfig` geometry): the im2row'd convolution branches (the expert
/// encoders of both TextCNN and MDFEND — these carry ~97% of a serving
/// forward's FLOPs), the feature heads, the classifier, and one square
/// reference point. Shapes tagged `serving` feed the flops-weighted
/// `serving_mix` aggregate.
const SHAPES: [(&str, usize, usize, usize, bool); 6] = [
    ("textcnn_mdfend_conv_k3_im2row", 64 * 22, 3 * 32, 32, true),
    ("textcnn_mdfend_conv_k5_im2row", 64 * 20, 5 * 32, 32, true),
    ("mdfend_expert_head", 64, 160, 64, true),
    ("student_feature_head", 64, 128, 64, true),
    ("classifier", 64, 64, 2, true),
    ("square_128", 128, 128, 128, false),
];

struct Row {
    name: &'static str,
    m: usize,
    k: usize,
    n: usize,
    serving: bool,
    naive: f64,
    blocked: f64,
    parallel: f64,
    /// Effective GFLOP/s (same nominal 2mkn work) of the int8 quantized
    /// kernel, single-threaded and at `PARALLEL_THREADS`. Includes the
    /// runtime activation-row quantization the serving path pays.
    int8: f64,
    int8_parallel: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--parity-smoke") {
        parity_smoke();
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let budget = if quick {
        Duration::from_millis(90)
    } else {
        Duration::from_millis(500)
    };

    let mut rng = Prng::new(0xBE_EF);
    let rows: Vec<Row> = SHAPES
        .iter()
        .map(|&(name, m, k, n, serving)| {
            let a: Vec<f32> = (0..m * k).map(|_| rng.normal_with(0.0, 1.0)).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.normal_with(0.0, 1.0)).collect();
            // The quantized kernel is output-major ([n, k] weight rows).
            let w: Vec<f32> = (0..n * k).map(|_| rng.normal_with(0.0, 1.0)).collect();
            let qm = QuantizedMatrix::from_rows(n, k, &w);
            let bias = vec![0.0f32; n];
            let mut out = vec![0.0f32; m * n];
            let mut scratch = vec![0.0f32; packed_len(k, n)];
            let flops = (2 * m * k * n) as f64;
            let naive = flops
                / time_best(budget, &mut || {
                    gemm_naive_branchy(m, k, n, &a, &b, &mut out)
                });
            let blocked = flops
                / time_best(budget, &mut || {
                    gemm_into(m, k, n, &a, &b, &mut out, 1, &mut scratch)
                });
            let parallel = flops
                / time_best(budget, &mut || {
                    gemm_into(m, k, n, &a, &b, &mut out, PARALLEL_THREADS, &mut scratch)
                });
            let int8 = flops
                / time_best(budget, &mut || {
                    qm.matmul_into(&a, m, &bias, &mut out, 1);
                });
            let int8_parallel = flops
                / time_best(budget, &mut || {
                    qm.matmul_into(&a, m, &bias, &mut out, PARALLEL_THREADS);
                });
            Row {
                name,
                m,
                k,
                n,
                serving,
                naive,
                blocked,
                parallel,
                int8,
                int8_parallel,
            }
        })
        .collect();

    render_table(&rows);
    std::fs::write("BENCH_kernels.json", render_json(&rows)).expect("write BENCH_kernels.json");
    eprintln!("[kernels] wrote BENCH_kernels.json");
}

/// Flops-weighted aggregate over the `serving`-tagged shapes: total FLOPs
/// divided by summed per-shape time, i.e. the throughput of running one of
/// each — which weights each shape by its real share of a forward pass.
fn serving_mix(rows: &[Row], gflops_of: &dyn Fn(&Row) -> f64) -> f64 {
    let total_flops: f64 = rows
        .iter()
        .filter(|r| r.serving)
        .map(|r| (2 * r.m * r.k * r.n) as f64)
        .sum();
    let total_time: f64 = rows
        .iter()
        .filter(|r| r.serving)
        .map(|r| (2 * r.m * r.k * r.n) as f64 / gflops_of(r))
        .sum();
    total_flops / total_time
}

/// Best-of timing: the body runs until the budget is spent (at least 5
/// times) and the fastest nanoseconds-per-iteration wins. Returns seconds.
fn time_best(budget: Duration, body: &mut dyn FnMut()) -> f64 {
    body(); // warmup
    body();
    let mut best = f64::INFINITY;
    let started = Instant::now();
    let mut iters = 0usize;
    while iters < 5 || started.elapsed() < budget {
        let t0 = Instant::now();
        body();
        best = best.min(t0.elapsed().as_secs_f64());
        iters += 1;
    }
    best
}

fn render_table(rows: &[Row]) {
    let title = format!(
        "GEMM kernels — GFLOP/s (naive vs blocked vs blocked+parallel, {PARALLEL_THREADS} threads)"
    );
    let mut table = TableBuilder::new(&title).header([
        "Shape", "m×k×n", "naive", "blocked", "parallel", "int8", "int8(4t)", "speedup",
    ]);
    for r in rows {
        table.row([
            r.name.to_string(),
            format!("{}x{}x{}", r.m, r.k, r.n),
            format!("{:.2}", r.naive / 1e9),
            format!("{:.2}", r.blocked / 1e9),
            format!("{:.2}", r.parallel / 1e9),
            format!("{:.2}", r.int8 / 1e9),
            format!("{:.2}", r.int8_parallel / 1e9),
            format!("{:.2}x", r.parallel / r.naive),
        ]);
    }
    let naive_mix = serving_mix(rows, &|r| r.naive);
    let parallel_mix = serving_mix(rows, &|r| r.parallel);
    table.row([
        "serving_mix (flops-weighted)".to_string(),
        "-".to_string(),
        format!("{:.2}", naive_mix / 1e9),
        format!("{:.2}", serving_mix(rows, &|r| r.blocked) / 1e9),
        format!("{:.2}", parallel_mix / 1e9),
        format!("{:.2}", serving_mix(rows, &|r| r.int8) / 1e9),
        format!("{:.2}", serving_mix(rows, &|r| r.int8_parallel) / 1e9),
        format!("{:.2}x", parallel_mix / naive_mix),
    ]);
    println!("{}", table.render());
}

fn render_json(rows: &[Row]) -> String {
    let geomean = |f: &dyn Fn(&Row) -> f64| {
        (rows.iter().map(|r| f(r).ln()).sum::<f64>() / rows.len() as f64).exp()
    };
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"parallel_threads\": {PARALLEL_THREADS},\n"));
    out.push_str("  \"shapes\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \"naive_gflops\": {:.3}, \"blocked_gflops\": {:.3}, \"parallel_gflops\": {:.3}, \"int8_gflops\": {:.3}, \"int8_parallel_gflops\": {:.3}, \"speedup_blocked\": {:.2}, \"speedup_parallel\": {:.2}}}{}\n",
            r.name,
            r.m,
            r.k,
            r.n,
            r.naive / 1e9,
            r.blocked / 1e9,
            r.parallel / 1e9,
            r.int8 / 1e9,
            r.int8_parallel / 1e9,
            r.blocked / r.naive,
            r.parallel / r.naive,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    let naive_mix = serving_mix(rows, &|r| r.naive);
    let blocked_mix = serving_mix(rows, &|r| r.blocked);
    let parallel_mix = serving_mix(rows, &|r| r.parallel);
    let int8_mix = serving_mix(rows, &|r| r.int8);
    let int8_parallel_mix = serving_mix(rows, &|r| r.int8_parallel);
    out.push_str(&format!(
        "  \"serving_mix\": {{\"naive_gflops\": {:.3}, \"blocked_gflops\": {:.3}, \"parallel_gflops\": {:.3}, \"int8_gflops\": {:.3}, \"int8_parallel_gflops\": {:.3}, \"speedup_blocked\": {:.2}, \"speedup_parallel\": {:.2}}},\n",
        naive_mix / 1e9,
        blocked_mix / 1e9,
        parallel_mix / 1e9,
        int8_mix / 1e9,
        int8_parallel_mix / 1e9,
        blocked_mix / naive_mix,
        parallel_mix / naive_mix
    ));
    out.push_str(&format!(
        "  \"geomean_speedup_blocked\": {:.2},\n",
        geomean(&|r| r.blocked / r.naive)
    ));
    out.push_str(&format!(
        "  \"geomean_speedup_parallel\": {:.2}\n",
        geomean(&|r| r.parallel / r.naive)
    ));
    out.push_str("}\n");
    out
}

/// Panic with `what` and the first differing element unless `want` and
/// `got` are bit-identical.
fn assert_bits(want: &[f32], got: &[f32], what: &str) {
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        assert_eq!(w.to_bits(), g.to_bits(), "{what} elem {i}");
    }
}

/// Seeded bit-parity smoke: blocked and blocked+parallel against the naive
/// reference on a handful of shapes, plus one in-place-window convolution
/// and one `Aᵀ·B`. Exits via panic (non-zero) on any mismatch so CI fails
/// the gate.
fn parity_smoke() {
    let mut rng = Prng::new(0x51_10CE);
    let shapes = [
        (1, 1, 1),
        (5, 9, 17),
        (64, 96, 32),
        (64, 160, 64),
        (31, 33, 7),
    ];
    for (m, k, n) in shapes {
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal_with(0.0, 1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal_with(0.0, 1.0)).collect();
        let mut want = vec![0.0f32; m * n];
        gemm_reference(m, k, n, &a, &b, &mut want);
        for threads in [1usize, 2, 4] {
            let mut got = vec![0.0f32; m * n];
            gemm_into(m, k, n, &a, &b, &mut got, threads, &mut Vec::new());
            let what = format!("kernel parity violation: ({m},{k},{n}) t={threads}");
            assert_bits(&want, &got, &what);
        }
        // Int8 determinism: the quantized kernel must be bit-identical to
        // itself at every thread count (its i32 accumulation order is fixed).
        let w: Vec<f32> = (0..n * k).map(|_| rng.normal_with(0.0, 1.0)).collect();
        let qm = QuantizedMatrix::from_rows(n, k, &w);
        let bias = vec![0.0f32; n];
        let mut int8_want = vec![0.0f32; m * n];
        qm.matmul_into(&a, m, &bias, &mut int8_want, 1);
        for threads in [2usize, 4] {
            let mut got = vec![0.0f32; m * n];
            qm.matmul_into(&a, m, &bias, &mut got, threads);
            let what = format!("int8 determinism violation: ({m},{k},{n}) t={threads}");
            assert_bits(&int8_want, &got, &what);
        }
    }

    // A TextCNN k=3 branch at batch 8 whose windows the GEMM reads in place,
    // against im2row + the reference over the transposed weight.
    let (b, s, d, kw, oc) = (8, 24, 32, 3, 32);
    let (rows, width) = (b * (s - kw + 1), kw * d);
    let x: Vec<f32> = (0..b * s * d).map(|_| rng.normal_with(0.0, 1.0)).collect();
    let w: Vec<f32> = (0..oc * width).map(|_| rng.normal_with(0.0, 1.0)).collect();
    let mut unfolded = vec![0.0f32; rows * width];
    im2row(&x, b, s, d, kw, &mut unfolded, 1);
    let mut wt = vec![0.0f32; oc * width];
    transpose_into(oc, width, &w, &mut wt);
    let mut want = vec![0.0f32; rows * oc];
    gemm_reference(rows, width, oc, &unfolded, &wt, &mut want);
    // An M3FEND adapter's weight gradient: `[64, 192]ᵀ · [64, 64]`.
    let (r, m, n) = (64, 192, 64);
    let a: Vec<f32> = (0..r * m).map(|_| rng.normal_with(0.0, 1.0)).collect();
    let g: Vec<f32> = (0..r * n).map(|_| rng.normal_with(0.0, 1.0)).collect();
    let mut at = vec![0.0f32; r * m];
    transpose_into(r, m, &a, &mut at);
    let mut atb_want = vec![0.0f32; m * n];
    gemm_reference(m, r, n, &at, &g, &mut atb_want);
    for threads in [1usize, 2, 4] {
        let mut got = vec![0.0f32; rows * oc];
        conv1d_into(&x, b, s, d, kw, &w, oc, &mut got, threads, &mut Vec::new());
        let what = format!("conv-window parity violation: ({b},{s},{d},k{kw}) oc={oc} t={threads}");
        assert_bits(&want, &got, &what);
        let mut got = vec![0.0f32; m * n];
        gemm_atb_into(r, m, n, &a, &g, &mut got, threads);
        let what = format!("atb parity violation: ({r},{m},{n}) t={threads}");
        assert_bits(&atb_want, &got, &what);
    }
    println!(
        "kernel parity OK (blocked/parallel, conv windows and Aᵀ·B == naive reference, int8 self-deterministic, bit-exact)"
    );
}
