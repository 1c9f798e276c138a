//! Seeded property battery for the blocked GEMM kernels.
//!
//! The kernel contract (see `dtdbd_tensor::kernels`) is that the blocked,
//! packed, register-tiled GEMM is **bit-identical** to the naive i-k-j
//! reference — for any shape, and for the fused `A·Bᵀ` / `Aᵀ·B` variants
//! against their explicit-transpose references. This battery drives that
//! contract across adversarial shapes (degenerate dims, odd primes,
//! tile-boundary ±1, tall/skinny) and random seeded shapes. The two
//! operands the kernel reads in place — convolution windows and the columns
//! of `Aᵀ·B` — are held to the reference on every instruction-set tier the
//! CPU has.

use dtdbd_tensor::kernels::{
    conv1d_into_on, gemm_abt_into, gemm_atb_into, gemm_atb_into_on, gemm_into, gemm_reference,
    im2row, transpose_into, Tier, MR, NR,
};
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::Tensor;

/// Adversarial shape list: every dimension degenerate case, odd primes,
/// the micro-kernel tile boundaries ±1, and extreme aspect ratios.
fn adversarial_shapes() -> Vec<(usize, usize, usize)> {
    let mut shapes = vec![
        (1, 1, 1),
        (1, 1, 2),
        (2, 1, 1),
        (1, 7, 1),
        (3, 0, 5), // k = 0: output must stay untouched
        (7, 5, 3),
        (13, 17, 19), // odd primes
        (31, 37, 41),
        (1, 613, 1),  // long contraction
        (257, 3, 2),  // tall/skinny
        (2, 3, 257),  // short/wide
        (64, 48, 64), // square-ish serving shape
        (64, 96, 32), // batch-64 serving shapes
        (64, 160, 64),
        (31, 33, 7),
    ];
    // Tile boundaries ±1 for the MR×NR micro-kernel.
    for m in [MR - 1, MR, MR + 1, 2 * MR + 1] {
        for n in [NR - 1, NR, NR + 1, 2 * NR + 1] {
            shapes.push((m, 9, n));
        }
    }
    shapes
}

fn randn(n: usize, rng: &mut Prng) -> Vec<f32> {
    (0..n).map(|_| rng.normal_with(0.0, 1.0)).collect()
}

fn assert_bits_eq(want: &[f32], got: &[f32], what: &str) {
    assert_eq!(want.len(), got.len(), "{what}: length");
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        assert_eq!(
            w.to_bits(),
            g.to_bits(),
            "{what}: element {i} differs ({w} vs {g})"
        );
    }
}

#[test]
fn blocked_gemm_is_bit_identical_to_reference_on_adversarial_shapes() {
    let mut rng = Prng::new(0xB10C);
    for (m, k, n) in adversarial_shapes() {
        let a = randn(m * k, &mut rng);
        let b = randn(k * n, &mut rng);
        let seed = randn(m * n, &mut rng); // kernels accumulate into out
        let mut want = seed.clone();
        gemm_reference(m, k, n, &a, &b, &mut want);
        let mut got = seed;
        gemm_into(m, k, n, &a, &b, &mut got, 1, &mut Vec::new());
        assert_bits_eq(&want, &got, &format!("gemm ({m},{k},{n})"));
    }
}

#[test]
fn fused_transpose_gemms_are_bit_identical_to_explicit_transposes() {
    let mut rng = Prng::new(0xAB7);
    for (m, k, n) in adversarial_shapes() {
        // A·Bᵀ with B stored [n, k].
        let a = randn(m * k, &mut rng);
        let b_nk = randn(n * k, &mut rng);
        let mut bt = vec![0.0f32; n * k];
        transpose_into(n, k, &b_nk, &mut bt);
        let mut want = vec![0.0f32; m * n];
        gemm_reference(m, k, n, &a, &bt, &mut want);
        let mut got = vec![0.0f32; m * n];
        gemm_abt_into(m, k, n, &a, &b_nk, &mut got, &mut Vec::new());
        assert_bits_eq(&want, &got, &format!("abt ({m},{k},{n})"));

        // Aᵀ·B with A stored [k, m] (contraction over k).
        let a_km = randn(k * m, &mut rng);
        let b_kn = randn(k * n, &mut rng);
        let mut at = vec![0.0f32; k * m];
        transpose_into(k, m, &a_km, &mut at);
        let mut want = vec![0.0f32; m * n];
        gemm_reference(m, k, n, &at, &b_kn, &mut want);
        let mut got = vec![0.0f32; m * n];
        gemm_atb_into(k, m, n, &a_km, &b_kn, &mut got);
        assert_bits_eq(&want, &got, &format!("atb ({m},{k},{n})"));
    }
}

#[test]
fn seeded_random_shapes_stay_bit_identical_to_the_reference() {
    let mut rng = Prng::new(0x5EED);
    for case in 0..40u64 {
        let mut dim = |hi: usize| 1 + (rng.uniform(0.0, hi as f32) as usize);
        let (m, k, n) = (dim(80), dim(80), dim(80));
        let a = randn(m * k, &mut rng);
        let b = randn(k * n, &mut rng);
        let mut want = vec![0.0f32; m * n];
        gemm_reference(m, k, n, &a, &b, &mut want);
        let mut got = vec![0.0f32; m * n];
        gemm_into(m, k, n, &a, &b, &mut got, 1, &mut Vec::new());
        assert_bits_eq(&want, &got, &format!("case {case} ({m},{k},{n})"));
    }
}

#[test]
fn tensor_matmul_agrees_with_graph_matmul() {
    use dtdbd_tensor::{BufferPool, Graph, ParamStore};
    let mut rng = Prng::new(0x717);
    let x = Tensor::randn(&[9, 33], 1.0, &mut rng);
    let w = Tensor::randn(&[33, 17], 1.0, &mut rng);
    let direct = x.matmul(&w);
    let mut store = ParamStore::new();
    let wid = store.add("w", w);
    let mut pool = BufferPool::new();
    let mut g = Graph::inference(&mut store, &mut pool);
    let xv = g.constant(x);
    let wv = g.param(wid);
    let y = g.matmul(xv, wv);
    assert_bits_eq(direct.data(), g.value(y).data(), "graph matmul");
    g.finish();
}

/// Output widths of the in-place batteries: one lane, a partial panel, one
/// and two full panels (the AVX-512 block), and one past each.
const WIDTHS: [usize; 6] = [1, 9, 16, 32, 33, 64];

/// In-place window convolution against im2row + the reference GEMM, on
/// every tier. `(b, s, d, kw)` cover the TextCNN widths, the baseline's
/// widest branch (`kw = 10`: width 320 > the 256-long contraction block)
/// and row counts `b·(s-kw+1)` that are not a multiple of any block height.
#[test]
fn conv_windows_read_in_place_are_bit_identical_to_im2row_and_reference() {
    let mut rng = Prng::new(0xC0_4F);
    let shapes = [
        (1, 1, 1, 1),
        (3, 7, 5, 3),
        (2, 24, 32, 10),
        (5, 24, 32, 5),
        (7, 24, 32, 2),
        (8, 24, 32, 3),
        (64, 24, 32, 3),
    ];
    for (b, s, d, kw) in shapes {
        let (rows, width) = (b * (s - kw + 1), kw * d);
        let x = randn(b * s * d, &mut rng);
        let mut unfolded = vec![0.0f32; rows * width];
        im2row(&x, b, s, d, kw, &mut unfolded, 1);
        for oc in WIDTHS {
            let w = randn(oc * width, &mut rng);
            let mut wt = vec![0.0f32; oc * width];
            transpose_into(oc, width, &w, &mut wt);
            let seed = randn(rows * oc, &mut rng); // the bias-seeded output
            let mut want = seed.clone();
            gemm_reference(rows, width, oc, &unfolded, &wt, &mut want);
            for tier in Tier::available() {
                let mut got = seed.clone();
                let mut scratch = Vec::new();
                conv1d_into_on(tier, &x, b, s, d, kw, &w, oc, &mut got, &mut scratch);
                let what = format!("conv ({b},{s},{d},k{kw}) oc={oc} {tier:?}");
                assert_bits_eq(&want, &got, &what);
            }
        }
    }
}

/// Blocked `Aᵀ·B` reading `A`'s columns in place against an explicit
/// transpose + the reference GEMM, on every tier. Output row counts `m`
/// include ones that are not a multiple of any block height.
#[test]
fn blocked_atb_is_bit_identical_to_explicit_transpose_on_every_tier() {
    let mut rng = Prng::new(0xA7_B0);
    for r in [1usize, 64, 300] {
        for m in [1usize, 7, 13, 50, 192] {
            let a = randn(r * m, &mut rng);
            let mut at = vec![0.0f32; r * m];
            transpose_into(r, m, &a, &mut at);
            for n in WIDTHS {
                let b = randn(r * n, &mut rng);
                let seed = randn(m * n, &mut rng);
                let mut want = seed.clone();
                gemm_reference(m, r, n, &at, &b, &mut want);
                for tier in Tier::available() {
                    let mut got = seed.clone();
                    gemm_atb_into_on(tier, r, m, n, &a, &b, &mut got);
                    let what = format!("atb r={r} m={m} n={n} {tier:?}");
                    assert_bits_eq(&want, &got, &what);
                }
            }
        }
    }
}

#[test]
fn tier_list_runs_from_the_baseline_to_the_dispatched_tier() {
    let tiers = Tier::available();
    assert_eq!(tiers.first(), Some(&Tier::Baseline));
    assert_eq!(tiers.last(), Some(&Tier::detect()));
}
