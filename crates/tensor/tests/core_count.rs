//! The core count is read from the OS at most once per process.
//!
//! On Linux `std::thread::available_parallelism` reads the affinity mask and
//! the cgroup quota files, tens of microseconds per call — as long as a
//! whole small GEMM. The kernels cap their thread requests at
//! `par::max_threads`, which must therefore cache the count. This battery
//! runs a few hundred GEMMs and convolutions above the parallel threshold at
//! one and two threads and checks both the read counter and the bits.

use dtdbd_tensor::kernels::{
    conv1d_into, gemm_abt_into, gemm_atb_into, gemm_into, gemm_reference, im2row, transpose_into,
};
use dtdbd_tensor::par;
use dtdbd_tensor::rng::Prng;

/// Calls of each kernel at each thread count.
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

#[test]
fn kernels_read_the_core_count_at_most_once_and_keep_their_bits() {
    let mut rng = Prng::new(24);
    // M3FEND's adapter shape: 2·64·192·64 ≈ 1.6 MFLOP, far above the
    // 128K-FLOP threshold where a GEMM may fan out.
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

    let mut scratch = Vec::new();
    for threads in [1, 2] {
        for rep in 0..REPS {
            let case = format!("threads {threads} rep {rep}");
            let mut out = vec![0.0; m * n];
            gemm_into(m, k, n, &a, &b, &mut out, threads, &mut scratch);
            assert_eq!(bits(&out), bits(&want), "A·B {case}");

            let mut out = vec![0.0; m * n];
            gemm_abt_into(m, k, n, &a, &bt, &mut out, threads, &mut scratch);
            assert_eq!(bits(&out), bits(&want), "A·Bᵀ {case}");

            let mut out = vec![0.0; m * n];
            gemm_atb_into(k, m, n, &at, &b, &mut out, threads);
            assert_eq!(bits(&out), bits(&want), "Aᵀ·B {case}");

            let mut out = vec![0.0; rows * oc];
            conv1d_into(&x, cb, s, d, kw, &w, oc, &mut out, threads, &mut scratch);
            assert_eq!(bits(&out), bits(&want_conv), "conv {case}");
        }
    }
    let reads = par::core_count_reads();
    assert!(
        reads <= 1,
        "the core count was read {reads} times in one process ({} kernel calls)",
        8 * REPS
    );
}
