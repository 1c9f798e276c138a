//! Kernels run on the thread that calls them.
//!
//! Serving gets its parallelism from whole worker replicas, so no kernel
//! starts a thread of its own. This battery counts the process's threads
//! (the entries of `/proc/self/task`), runs GEMMs and convolutions well
//! above the size where a product used to be split across threads, plus a
//! tape `Graph::conv_relu_max` forward and backward, and checks that the
//! count did not grow and that the GEMM outputs keep the reference bits.
//!
//! The file holds a single test, so no sibling test adds threads while it
//! counts.
#![cfg(target_os = "linux")]

use dtdbd_tensor::kernels::{
    conv1d_into, gemm_abt_into, gemm_atb_into, gemm_into, gemm_reference, im2row, transpose_into,
};
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::{Graph, ParamStore, Tensor};

/// Calls of each kernel.
const REPS: usize = 40;

fn randn(n: usize, rng: &mut Prng) -> Vec<f32> {
    (0..n).map(|_| rng.normal_with(0.0, 1.0)).collect()
}

fn transposed(rows: usize, cols: usize, src: &[f32]) -> Vec<f32> {
    let mut dst = vec![0.0; rows * cols];
    transpose_into(rows, cols, src, &mut dst);
    dst
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Threads of this process right now.
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

#[test]
fn kernels_start_no_thread_and_keep_their_bits() {
    let mut rng = Prng::new(24);
    // M3FEND's adapter shape: 2·64·192·64 ≈ 1.6 MFLOP, far above the 128K
    // FLOPs at which a GEMM used to be split across threads.
    let (m, k, n) = (64, 192, 64);
    let a = randn(m * k, &mut rng);
    let b = randn(k * n, &mut rng);
    let mut want = vec![0.0; m * n];
    gemm_reference(m, k, n, &a, &b, &mut want);
    let bt = transposed(k, n, &b);
    let at = transposed(m, k, &a);

    // The student conv at b=4: 88 windows × 96 wide × 32 channels ≈ 0.54
    // MFLOP.
    let (cb, s, d, kw, oc) = (4, 24, 32, 3, 32);
    let rows = cb * (s - kw + 1);
    let x = randn(cb * s * d, &mut rng);
    let w = randn(oc * kw * d, &mut rng);
    let mut unfolded = vec![0.0; rows * kw * d];
    im2row(&x, cb, s, d, kw, &mut unfolded, 1);
    let mut want_conv = vec![0.0; rows * oc];
    gemm_reference(
        rows,
        kw * d,
        oc,
        &unfolded,
        &transposed(oc, kw * d, &w),
        &mut want_conv,
    );

    // One TextCNN branch at batch 64 on a training tape.
    let mut store = ParamStore::new();
    let cx = store.add(
        "x",
        Tensor::new(vec![64, s, d], randn(64 * s * d, &mut rng)),
    );
    let cw = store.add("w", Tensor::new(vec![oc, kw, d], w.clone()));
    let cbias = store.add("b", Tensor::new(vec![oc], randn(oc, &mut rng)));

    let before = thread_count();
    let mut scratch = Vec::new();
    for rep in 0..REPS {
        let mut out = vec![0.0; m * n];
        // The thread count argument is ignored.
        gemm_into(m, k, n, &a, &b, &mut out, 2, &mut scratch);
        assert_eq!(bits(&out), bits(&want), "A·B rep {rep}");

        let mut out = vec![0.0; m * n];
        gemm_abt_into(m, k, n, &a, &bt, &mut out, &mut scratch);
        assert_eq!(bits(&out), bits(&want), "A·Bᵀ rep {rep}");

        let mut out = vec![0.0; m * n];
        gemm_atb_into(k, m, n, &at, &b, &mut out);
        assert_eq!(bits(&out), bits(&want), "Aᵀ·B rep {rep}");

        let mut out = vec![0.0; rows * oc];
        conv1d_into(&x, cb, s, d, kw, &w, oc, &mut out, &mut scratch);
        assert_eq!(bits(&out), bits(&want_conv), "conv rep {rep}");
    }
    let mut g = Graph::new(&mut store, true, 0);
    let xv = g.param(cx);
    let pooled = g.conv_relu_max(xv, cw, cbias);
    let loss = g.sum_all(pooled);
    g.backward(loss);
    assert!(store.grad(cw).norm() > 0.0, "the branch backward ran");
    let after = thread_count();
    assert!(
        after <= before,
        "kernels grew the process from {before} to {after} threads"
    );
}
