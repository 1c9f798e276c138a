//! Loss compositions used throughout the DTDBD reproduction.
//!
//! These are thin, well-tested compositions of [`Graph`] primitives:
//!
//! * [`kd_kl_loss`] — the softened KL knowledge-distillation loss
//!   `τ² · KL(softmax(teacher/τ) ‖ softmax(student/τ))` used both by domain
//!   knowledge distillation (Eq. 12) and, applied to pairwise-distance
//!   matrices, by adversarial de-biasing distillation (Eq. 6).
//! * [`add_distillation_loss`] — `L_ADD` of Eq. (5)–(6): the softened KL
//!   between the teacher's and the student's pairwise squared-Euclidean
//!   correlation matrices.
//! * [`information_entropy_loss`] — `L_IE` of Eq. (10), the negative-entropy
//!   regularizer of DAT-IE.
//! * [`mse_loss`] — mean squared error (used by the EDDFN reconstruction
//!   head).
//!
//! The classification loss `L_CE` is the fused graph op
//! [`Graph::cross_entropy_logits`].

use crate::graph::{Graph, Var};
use crate::kernels;
use crate::shape::as_rows_cols;
use crate::tensor::Tensor;

/// Softened teacher probabilities `softmax(teacher_logits / tau)` computed
/// outside any tape (the teacher is frozen during distillation).
pub fn soften(teacher_logits: &Tensor, tau: f32) -> Tensor {
    assert!(tau > 0.0, "temperature must be positive");
    teacher_logits.scale(1.0 / tau).softmax_rows()
}

/// Knowledge-distillation loss
/// `τ² · KL(softmax(teacher/τ) ‖ softmax(student/τ))`, averaged over the
/// batch.
///
/// `teacher_logits` enters as a constant (no gradient flows into the
/// teacher), matching the paper's frozen-teacher setting.
pub fn kd_kl_loss(
    g: &mut Graph<'_>,
    student_logits: Var,
    teacher_logits: &Tensor,
    tau: f32,
) -> Var {
    assert!(tau > 0.0, "temperature must be positive");
    let (batch, _classes) = as_rows_cols(g.value(student_logits).shape());
    assert_eq!(
        g.value(student_logits).shape(),
        teacher_logits.shape(),
        "student/teacher logit shapes must match"
    );
    // Teacher side: constants.
    let p_t = soften(teacher_logits, tau);
    // KL = sum p_t (log p_t - log p_s); the first term is constant but is
    // included so the reported loss value is a true KL divergence.
    let teacher_entropy_term: f32 = p_t
        .data()
        .iter()
        .map(|&p| if p > 0.0 { p * p.ln() } else { 0.0 })
        .sum();
    // Student side.
    let scaled = g.scale(student_logits, 1.0 / tau);
    let log_p_s = g.log_softmax(scaled);
    let p_t_var = g.constant(p_t);
    let prod = g.mul(p_t_var, log_p_s);
    let cross = g.sum_all(prod);
    // loss = tau^2/batch * (teacher_entropy_term - cross)
    let scale = tau * tau / batch as f32;
    let neg_cross = g.scale(cross, -scale);
    let const_term = g.constant_scalar(teacher_entropy_term * scale);
    g.add(neg_cross, const_term)
}

/// Adversarial de-biasing distillation loss `L_ADD` (Eq. 5–6).
///
/// Builds the student's pairwise squared-Euclidean correlation matrix from
/// `student_features` (`[b, d]`, differentiable) and distils towards the
/// matrix computed from the frozen unbiased teacher's features
/// (`teacher_features`, a constant `[b, d]` tensor).
pub fn add_distillation_loss(
    g: &mut Graph<'_>,
    student_features: Var,
    teacher_features: &Tensor,
    tau: f32,
) -> Var {
    let m_s = g.pairwise_sq_dist(student_features);
    let m_t = pairwise_sq_dist_tensor(teacher_features);
    // The correlation knowledge is the *relative* structure of the batch, so
    // both matrices are normalised by their own mean distance before the
    // softened KL. This makes the loss invariant to the overall feature
    // scale (teacher and student features live on different scales early in
    // training) and keeps the row softmax well-conditioned. The student's
    // normaliser is a stop-gradient: it enters as a constant scale, so no
    // gradient flows through the mean-distance term (only through the
    // distances themselves).
    let teacher_scale = 1.0 / m_t.mean().max(1e-6);
    let student_scale = 1.0 / g.value(m_s).mean().max(1e-6);
    let m_s = g.scale(m_s, student_scale);
    let m_t = m_t.scale(teacher_scale);
    kd_kl_loss(g, m_s, &m_t, tau)
}

/// Information-entropy loss `L_IE` (Eq. 10): the mean over the batch of
/// `Σ_d p_d · log p_d` where `p = softmax(domain_logits)`.
///
/// Minimising this value *maximises* the entropy of the domain classifier's
/// prediction, which is exactly the DAT-IE regularizer: it pushes the domain
/// classifier's output towards uniform, broadening the set of domains whose
/// invariant features the encoder is asked to capture.
pub fn information_entropy_loss(g: &mut Graph<'_>, domain_logits: Var) -> Var {
    let (batch, _d) = as_rows_cols(g.value(domain_logits).shape());
    let p = g.softmax(domain_logits);
    let log_p = g.log_softmax(domain_logits);
    let prod = g.mul(p, log_p);
    let total = g.sum_all(prod);
    g.scale(total, 1.0 / batch as f32)
}

/// Mean squared error between two same-shape tensors.
pub fn mse_loss(g: &mut Graph<'_>, a: Var, b: Var) -> Var {
    let diff = g.sub(a, b);
    let sq = g.mul(diff, diff);
    g.mean_all(sq)
}

/// Pairwise squared-Euclidean distance matrix computed on plain tensors
/// (used for the frozen teacher's correlation matrix); the same kernel and
/// bits as [`Graph::pairwise_sq_dist`].
pub fn pairwise_sq_dist_tensor(x: &Tensor) -> Tensor {
    assert_eq!(x.ndim(), 2, "pairwise_sq_dist_tensor expects [b, d]");
    let (b, d) = (x.shape()[0], x.shape()[1]);
    let mut data = vec![0.0f32; b * b];
    let mut cols = vec![0.0f32; b * d];
    kernels::pairwise_sq_dist_into(b, d, x.data(), &mut cols, &mut data);
    Tensor::new(vec![b, b], data)
}

/// Plain-tensor KL divergence `KL(p ‖ q)` between two row-stochastic
/// matrices, averaged over rows. Used for monitoring only (not
/// differentiable).
pub fn kl_divergence_rows(p: &Tensor, q: &Tensor) -> f32 {
    assert_eq!(p.shape(), q.shape(), "KL shape mismatch");
    let (rows, cols) = as_rows_cols(p.shape());
    let mut total = 0.0f32;
    for r in 0..rows {
        for c in 0..cols {
            let pv = p.data()[r * cols + c];
            let qv = q.data()[r * cols + c].max(1e-12);
            if pv > 0.0 {
                total += pv * (pv / qv).ln();
            }
        }
    }
    total / rows as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamStore;
    use crate::rng::Prng;

    fn approx(a: f32, b: f32, tol: f32) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn kd_loss_is_zero_when_student_equals_teacher() {
        let mut store = ParamStore::new();
        let logits = Tensor::from_rows(&[vec![1.0, -0.5, 2.0], vec![0.0, 0.0, 0.0]]);
        let w = store.add("s", logits.clone());
        let mut g = Graph::new(&mut store, false, 0);
        let s = g.param(w);
        let loss = kd_kl_loss(&mut g, s, &logits, 2.0);
        assert!(approx(g.value(loss).item(), 0.0, 1e-5));
    }

    #[test]
    fn kd_loss_positive_and_decreases_under_gradient_descent() {
        let mut rng = Prng::new(5);
        let teacher = Tensor::randn(&[8, 4], 1.0, &mut rng);
        let mut store = ParamStore::new();
        let s = store.add("s", Tensor::randn(&[8, 4], 1.0, &mut rng));
        let mut losses = Vec::new();
        for _ in 0..50 {
            store.zero_grad();
            let mut g = Graph::new(&mut store, true, 0);
            let sv = g.param(s);
            let loss = kd_kl_loss(&mut g, sv, &teacher, 3.0);
            losses.push(g.value(loss).item());
            g.backward(loss);
            // manual SGD
            let grad = store.grad(s).unwrap().clone();
            store.get_mut(s).value.axpy(-0.5, &grad);
        }
        assert!(losses[0] > 0.0);
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.5),
            "losses: {losses:?}"
        );
    }

    #[test]
    fn soften_produces_flatter_distribution_for_larger_tau() {
        let logits = Tensor::from_rows(&[vec![4.0, 0.0]]);
        let sharp = soften(&logits, 1.0);
        let flat = soften(&logits, 8.0);
        assert!(sharp.at2(0, 0) > flat.at2(0, 0));
        assert!(flat.at2(0, 0) > 0.5);
    }

    #[test]
    fn information_entropy_loss_is_minimised_by_uniform_distribution() {
        let mut store = ParamStore::new();
        let uniform = store.add("u", Tensor::from_rows(&[vec![0.0, 0.0, 0.0]]));
        let peaked = store.add("p", Tensor::from_rows(&[vec![10.0, 0.0, 0.0]]));
        let mut g = Graph::new(&mut store, false, 0);
        let u = g.param(uniform);
        let p = g.param(peaked);
        let lu = information_entropy_loss(&mut g, u);
        let lp = information_entropy_loss(&mut g, p);
        // Entropy of uniform is ln(3); loss = -entropy, so uniform is lower.
        assert!(approx(g.value(lu).item(), -(3.0f32.ln()), 1e-4));
        assert!(g.value(lu).item() < g.value(lp).item());
    }

    #[test]
    fn add_distillation_loss_zero_for_identical_features() {
        let mut rng = Prng::new(7);
        let feats = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let mut store = ParamStore::new();
        let f = store.add("f", feats.clone());
        let mut g = Graph::new(&mut store, false, 0);
        let fv = g.param(f);
        let loss = add_distillation_loss(&mut g, fv, &feats, 4.0);
        assert!(approx(g.value(loss).item(), 0.0, 1e-4));
    }

    #[test]
    fn add_distillation_loss_backpropagates_to_features() {
        let mut rng = Prng::new(9);
        let teacher = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let mut store = ParamStore::new();
        let f = store.add("f", Tensor::randn(&[6, 5], 1.0, &mut rng));
        let mut g = Graph::new(&mut store, true, 0);
        let fv = g.param(f);
        let loss = add_distillation_loss(&mut g, fv, &teacher, 4.0);
        assert!(g.value(loss).item() > 0.0);
        g.backward(loss);
        assert!(store.grad(f).unwrap().norm() > 0.0);
        assert!(!store.grad(f).unwrap().has_non_finite());
    }

    #[test]
    fn mse_loss_matches_hand_value_and_gradient() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::from_vec(vec![1.0, 2.0]));
        let mut g = Graph::new(&mut store, false, 0);
        let av = g.param(a);
        let bv = g.constant(Tensor::from_vec(vec![0.0, 0.0]));
        let loss = mse_loss(&mut g, av, bv);
        assert!(approx(g.value(loss).item(), 2.5, 1e-6));
        g.backward(loss);
        assert_eq!(store.grad(a).unwrap().data(), &[1.0, 2.0]);
    }

    #[test]
    fn kl_divergence_rows_is_zero_for_identical_distributions() {
        let p = Tensor::from_rows(&[vec![0.25, 0.75], vec![0.5, 0.5]]);
        assert!(approx(kl_divergence_rows(&p, &p), 0.0, 1e-6));
        let q = Tensor::from_rows(&[vec![0.75, 0.25], vec![0.5, 0.5]]);
        assert!(kl_divergence_rows(&p, &q) > 0.0);
    }

    #[test]
    fn pairwise_sq_dist_tensor_matches_graph_op() {
        let mut rng = Prng::new(11);
        for shape in [[64, 64], [7, 5]] {
            let x = Tensor::randn(&shape, 1.0, &mut rng);
            let plain = pairwise_sq_dist_tensor(&x);
            let mut store = ParamStore::new();
            let mut g = Graph::new(&mut store, false, 0);
            let xv = g.constant(x);
            let m = g.pairwise_sq_dist(xv);
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&plain), bits(g.value(m)), "{shape:?}");
        }
    }
}
