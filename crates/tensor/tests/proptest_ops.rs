//! Property-based tests for the tensor/autograd substrate.
//!
//! The workspace builds offline with zero external dependencies, so instead
//! of an external property-testing framework these tests drive each property
//! over many seeded random cases drawn from the crate's own [`Prng`]. Each
//! property runs 64 deterministic cases; a failure message always includes
//! the case seed so the exact input can be replayed.

use dtdbd_tensor::losses::{kl_divergence_rows, pairwise_sq_dist_tensor, soften};
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::{Graph, ParamStore, Tensor};

const CASES: u64 = 64;

/// Random matrix with entries in `[-3, 3)`, the same input distribution the
/// original proptest strategies used.
fn small_matrix(rng: &mut Prng, rows: usize, cols: usize) -> Tensor {
    let data = (0..rows * cols).map(|_| rng.uniform(-3.0, 3.0)).collect();
    Tensor::new(vec![rows, cols], data)
}

/// Softmax rows always form a probability distribution.
#[test]
fn softmax_rows_are_distributions() {
    for case in 0..CASES {
        let mut rng = Prng::new(case);
        let t = small_matrix(&mut rng, 4, 6);
        let s = t.softmax_rows();
        for i in 0..4 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "case {case}: row sum {sum}");
            assert!(
                s.row(i).iter().all(|&p| (0.0..=1.0).contains(&p)),
                "case {case}: entry outside [0, 1]"
            );
        }
    }
}

/// Matmul distributes over addition: (A + B) C = AC + BC.
#[test]
fn matmul_distributes_over_addition() {
    for case in 0..CASES {
        let mut rng = Prng::new(1000 + case);
        let a = small_matrix(&mut rng, 3, 4);
        let b = small_matrix(&mut rng, 3, 4);
        let c = small_matrix(&mut rng, 4, 2);
        let lhs = a.add(&b).matmul(&c);
        let rhs = a.matmul(&c).add(&b.matmul(&c));
        for (x, y) in lhs.data().iter().zip(rhs.data().iter()) {
            assert!((x - y).abs() < 1e-3, "case {case}: {x} vs {y}");
        }
    }
}

/// Transposing twice is the identity.
#[test]
fn transpose_is_involutive() {
    for case in 0..CASES {
        let mut rng = Prng::new(2000 + case);
        let t = small_matrix(&mut rng, 5, 3);
        assert_eq!(t.transpose2().transpose2(), t, "case {case}");
    }
}

/// Pairwise squared distances are symmetric, non-negative, zero on the
/// diagonal, and satisfy the (squared-distance relaxed) identity of
/// indiscernibles.
#[test]
fn pairwise_distances_are_a_premetric() {
    for case in 0..CASES {
        let mut rng = Prng::new(3000 + case);
        let x = small_matrix(&mut rng, 5, 4);
        let m = pairwise_sq_dist_tensor(&x);
        for i in 0..5 {
            assert_eq!(m.at2(i, i), 0.0, "case {case}: diagonal");
            for j in 0..5 {
                assert!(m.at2(i, j) >= 0.0, "case {case}: negative distance");
                assert!(
                    (m.at2(i, j) - m.at2(j, i)).abs() < 1e-5,
                    "case {case}: asymmetry at ({i}, {j})"
                );
            }
        }
    }
}

/// KL divergence between softened distributions is non-negative and zero
/// iff the logits match.
#[test]
fn softened_kl_is_nonnegative() {
    for case in 0..CASES {
        let mut rng = Prng::new(4000 + case);
        let la = small_matrix(&mut rng, 3, 5);
        let lb = small_matrix(&mut rng, 3, 5);
        let tau = rng.uniform(1.0, 8.0);
        let pa = soften(&la, tau);
        let pb = soften(&lb, tau);
        assert!(kl_divergence_rows(&pa, &pb) >= -1e-5, "case {case}");
        assert!(kl_divergence_rows(&pa, &pa).abs() < 1e-5, "case {case}");
    }
}

/// The autograd sum rule: d(sum(a*x))/dx == a for every coordinate.
#[test]
fn linear_gradient_is_exact() {
    for case in 0..CASES {
        let mut rng = Prng::new(5000 + case);
        let data = small_matrix(&mut rng, 2, 6);
        let a = rng.uniform(-3.0, 3.0);
        let mut store = ParamStore::new();
        let x = store.add("x", data);
        let mut g = Graph::new(&mut store, false, 0);
        let xv = g.param(x);
        let scaled = g.scale(xv, a);
        let loss = g.sum_all(scaled);
        g.backward(loss);
        for &gv in store.grad(x).unwrap().data() {
            assert!((gv - a).abs() < 1e-5, "case {case}: grad {gv} vs {a}");
        }
    }
}

/// Cross-entropy is minimised (towards 0) when the logits strongly favour
/// the true label.
#[test]
fn cross_entropy_decreases_with_margin() {
    for case in 0..CASES {
        let mut rng = Prng::new(6000 + case);
        let margin = rng.uniform(1.0, 10.0);
        let mut store = ParamStore::new();
        let mut g = Graph::new(&mut store, false, 0);
        let weak = g.constant(Tensor::from_rows(&[vec![0.1, 0.0]]));
        let strong = g.constant(Tensor::from_rows(&[vec![margin, 0.0]]));
        let l_weak = g.cross_entropy_logits(weak, &[0]);
        let l_strong = g.cross_entropy_logits(strong, &[0]);
        assert!(
            g.value(l_strong).item() <= g.value(l_weak).item(),
            "case {case}: margin {margin}"
        );
    }
}

/// Dropout in training mode preserves the expected mean.
#[test]
fn dropout_preserves_expectation() {
    for case in 0..CASES {
        let mut rng = Prng::new(7000 + case);
        let seed = rng.below(1000) as u64;
        let p = rng.uniform(0.05, 0.8);
        let mut store = ParamStore::new();
        let mut g = Graph::new(&mut store, true, seed);
        let x = g.constant(Tensor::full(&[4000], 1.0));
        let d = g.dropout(x, p);
        let mean = g.value(d).mean();
        assert!(
            (mean - 1.0).abs() < 0.15,
            "case {case}: mean {mean} for p {p}"
        );
    }
}

/// Prng::weighted never selects an index with zero weight.
#[test]
fn weighted_sampling_ignores_zero_weights() {
    for case in 0..CASES {
        let mut rng = Prng::new(8000 + case);
        let weights = [0.0f32, 0.4, 0.0, 0.6, 0.0];
        for _ in 0..50 {
            let idx = rng.weighted(&weights);
            assert!(idx == 1 || idx == 3, "case {case}: picked {idx}");
        }
    }
}
