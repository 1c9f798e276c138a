//! GEMM kernel benchmark: naive vs cache-blocked.
//!
//! Measures GFLOP/s on the matrix shapes the serving and training hot paths
//! actually run — the im2row'd TextCNN convolutions, the MDFEND/TextCNN
//! feature heads and classifier layers at serving batch 64 — for two
//! kernels:
//!
//! * `naive` — the pre-overhaul i-k-j loop with its `a == 0.0` branch
//!   (kept verbatim as [`dtdbd_tensor::kernels::gemm_naive_branchy`]);
//! * `blocked` — the packed, register-tiled kernel.
//!
//! Results are printed as a table and written to `BENCH_kernels.json`.
//!
//! Run with: `cargo run --release -p dtdbd-bench --bin kernels [--quick]`
//!
//! Bit parity of these kernels is not checked here: `scripts/ci.sh` runs
//! `crates/tensor/tests/gemm_parity.rs` in release for that.

use dtdbd_metrics::TableBuilder;
use dtdbd_tensor::kernels::{gemm_into, gemm_naive_branchy, packed_len};
use dtdbd_tensor::rng::Prng;
use std::time::{Duration, Instant};

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
}

fn main() {
    let quick = dtdbd_bench::harness::quick_from_args();
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
            Row {
                name,
                m,
                k,
                n,
                serving,
                naive,
                blocked,
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
    let mut table = TableBuilder::new("GEMM kernels — GFLOP/s (naive vs blocked)")
        .header(["Shape", "m×k×n", "naive", "blocked", "speedup"]);
    for r in rows {
        table.row([
            r.name.to_string(),
            format!("{}x{}x{}", r.m, r.k, r.n),
            format!("{:.2}", r.naive / 1e9),
            format!("{:.2}", r.blocked / 1e9),
            format!("{:.2}x", r.blocked / r.naive),
        ]);
    }
    let naive_mix = serving_mix(rows, &|r| r.naive);
    let blocked_mix = serving_mix(rows, &|r| r.blocked);
    table.row([
        "serving_mix (flops-weighted)".to_string(),
        "-".to_string(),
        format!("{:.2}", naive_mix / 1e9),
        format!("{:.2}", blocked_mix / 1e9),
        format!("{:.2}x", blocked_mix / naive_mix),
    ]);
    println!("{}", table.render());
}

fn render_json(rows: &[Row]) -> String {
    let geomean = |f: &dyn Fn(&Row) -> f64| {
        (rows.iter().map(|r| f(r).ln()).sum::<f64>() / rows.len() as f64).exp()
    };
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"shapes\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \"naive_gflops\": {:.3}, \"blocked_gflops\": {:.3}, \"speedup_blocked\": {:.2}}}{}\n",
            r.name,
            r.m,
            r.k,
            r.n,
            r.naive / 1e9,
            r.blocked / 1e9,
            r.blocked / r.naive,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    let naive_mix = serving_mix(rows, &|r| r.naive);
    let blocked_mix = serving_mix(rows, &|r| r.blocked);
    out.push_str(&format!(
        "  \"serving_mix\": {{\"naive_gflops\": {:.3}, \"blocked_gflops\": {:.3}, \"speedup_blocked\": {:.2}}},\n",
        naive_mix / 1e9,
        blocked_mix / 1e9,
        blocked_mix / naive_mix,
    ));
    out.push_str(&format!(
        "  \"geomean_speedup_blocked\": {:.2}\n",
        geomean(&|r| r.blocked / r.naive)
    ));
    out.push_str("}\n");
    out
}
