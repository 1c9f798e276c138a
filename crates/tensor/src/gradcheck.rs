//! Finite-difference gradient checking.
//!
//! Used by the test suites of this crate and of `dtdbd-nn` / `dtdbd-models`
//! to validate that every composition of ops produces correct gradients.

use crate::params::{ParamId, ParamStore};

/// Result of a gradient check: the worst relative error observed.
#[derive(Debug, Clone, Copy)]
pub struct GradCheckReport {
    /// Maximum relative error between analytic and numeric gradients.
    pub max_rel_error: f32,
    /// Number of coordinates checked.
    pub checked: usize,
}

/// Compare analytic gradients against central finite differences.
///
/// `loss_fn` must be a *deterministic* function of the parameter values that
/// runs a forward pass, calls `Graph::backward`, and returns the scalar loss
/// (gradients end up in the store). The same function is reused to evaluate
/// perturbed losses; its gradient side effects are simply discarded there.
///
/// For each parameter in `params`, up to `max_coords` coordinates are
/// probed (evenly spaced), which keeps the check fast for large tensors.
pub fn check_gradients<F>(
    store: &mut ParamStore,
    params: &[ParamId],
    mut loss_fn: F,
    eps: f32,
    max_coords: usize,
) -> GradCheckReport
where
    F: FnMut(&mut ParamStore) -> f32,
{
    // Analytic pass.
    store.zero_grad();
    let _ = loss_fn(store);
    let analytic: Vec<Vec<f32>> = params
        .iter()
        .map(|&p| match store.grad(p) {
            Some(grad) => grad.data().to_vec(),
            None => vec![0.0; store.value(p).numel()],
        })
        .collect();

    let mut max_rel_error = 0.0f32;
    let mut checked = 0usize;
    for (pi, &pid) in params.iter().enumerate() {
        let n = store.value(pid).numel();
        let stride = (n / max_coords.max(1)).max(1);
        for c in (0..n).step_by(stride) {
            let original = store.value(pid).data()[c];

            store.get_mut(pid).value.data_mut()[c] = original + eps;
            store.zero_grad();
            let loss_plus = loss_fn(store);

            store.get_mut(pid).value.data_mut()[c] = original - eps;
            store.zero_grad();
            let loss_minus = loss_fn(store);

            store.get_mut(pid).value.data_mut()[c] = original;

            let numeric = (loss_plus - loss_minus) / (2.0 * eps);
            let a = analytic[pi][c];
            let denom = a.abs().max(numeric.abs()).max(1e-3);
            let rel = (a - numeric).abs() / denom;
            if rel > max_rel_error {
                max_rel_error = rel;
            }
            checked += 1;
        }
    }
    GradCheckReport {
        max_rel_error,
        checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::losses;
    use crate::rng::Prng;
    use crate::tensor::Tensor;

    #[test]
    fn mlp_with_relu_and_cross_entropy_passes_gradcheck() {
        let mut rng = Prng::new(17);
        let mut store = ParamStore::new();
        let w1 = store.add("w1", Tensor::randn(&[5, 7], 0.4, &mut rng));
        let b1 = store.add("b1", Tensor::randn(&[7], 0.1, &mut rng));
        let w2 = store.add("w2", Tensor::randn(&[7, 3], 0.4, &mut rng));
        let x = Tensor::randn(&[4, 5], 1.0, &mut rng);
        let labels = vec![0usize, 2, 1, 2];
        let loss_fn = |store: &mut ParamStore| {
            let mut g = Graph::new(store, false, 0);
            let xv = g.constant(x.clone());
            let w1v = g.param(w1);
            let b1v = g.param(b1);
            let w2v = g.param(w2);
            let h = g.matmul(xv, w1v);
            let h = g.add_bias(h, b1v);
            let h = g.tanh(h);
            let logits = g.matmul(h, w2v);
            let loss = g.cross_entropy_logits(logits, &labels);
            let value = g.value(loss).item();
            g.backward(loss);
            value
        };
        let report = check_gradients(&mut store, &[w1, b1, w2], loss_fn, 1e-2, 20);
        assert!(
            report.max_rel_error < 2e-2,
            "max rel error {}",
            report.max_rel_error
        );
        assert!(report.checked > 10);
    }

    #[test]
    fn conv_and_maxpool_pipeline_passes_gradcheck() {
        // The fused conv → ReLU → max-over-time branch, with a trainable
        // input so its `dx` is checked beside `dw` and `db`.
        let mut rng = Prng::new(23);
        let mut store = ParamStore::new();
        let w = store.add("conv.w", Tensor::randn(&[3, 2, 4], 0.4, &mut rng));
        let b = store.add("conv.b", Tensor::zeros(&[3]));
        let wo = store.add("out.w", Tensor::randn(&[3, 2], 0.4, &mut rng));
        let x = store.add("x", Tensor::randn(&[2, 6, 4], 1.0, &mut rng));
        let labels = vec![1usize, 0];
        let loss_fn = |store: &mut ParamStore| {
            let mut g = Graph::new(store, false, 0);
            let xv = g.param(x);
            let wov = g.param(wo);
            let pooled = g.conv_relu_max(xv, w, b);
            let logits = g.matmul(pooled, wov);
            let loss = g.cross_entropy_logits(logits, &labels);
            let value = g.value(loss).item();
            g.backward(loss);
            value
        };
        let report = check_gradients(&mut store, &[w, b, wo, x], loss_fn, 1e-2, 16);
        assert!(
            report.max_rel_error < 3e-2,
            "max rel error {}",
            report.max_rel_error
        );
    }

    #[test]
    fn pairwise_distance_distillation_passes_gradcheck() {
        // `add_distillation_loss` stop-gradients its mean-distance
        // normaliser, so a finite-difference probe of the full loss would
        // disagree with the analytic gradient by exactly the normaliser's
        // derivative. Pin the scale to a constant here and gradcheck the
        // differentiable path (pairwise distances -> softened KL), which is
        // the path `Graph::backward` actually has to get right.
        let mut rng = Prng::new(31);
        let mut store = ParamStore::new();
        let f = store.add("f", Tensor::randn(&[5, 4], 0.7, &mut rng));
        let teacher = Tensor::randn(&[5, 4], 0.7, &mut rng);
        let m_t = losses::pairwise_sq_dist_tensor(&teacher);
        let m_t = m_t.scale(1.0 / m_t.mean().max(1e-6));
        let student_scale = {
            let m_s = losses::pairwise_sq_dist_tensor(store.value(f));
            1.0 / m_s.mean().max(1e-6)
        };
        let loss_fn = |store: &mut ParamStore| {
            let mut g = Graph::new(store, false, 0);
            let fv = g.param(f);
            let m_s = g.pairwise_sq_dist(fv);
            let m_s = g.scale(m_s, student_scale);
            let loss = losses::kd_kl_loss(&mut g, m_s, &m_t, 2.0);
            let value = g.value(loss).item();
            g.backward(loss);
            value
        };
        let report = check_gradients(&mut store, &[f], loss_fn, 1e-2, 20);
        assert!(
            report.max_rel_error < 3e-2,
            "max rel error {}",
            report.max_rel_error
        );
    }

    #[test]
    fn entropy_loss_and_grad_reverse_pass_gradcheck() {
        let mut rng = Prng::new(37);
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::randn(&[4, 6], 0.5, &mut rng));
        let x = Tensor::randn(&[3, 4], 1.0, &mut rng);
        let loss_fn = |store: &mut ParamStore| {
            let mut g = Graph::new(store, false, 0);
            let xv = g.constant(x.clone());
            let wv = g.param(w);
            let h = g.matmul(xv, wv);
            let rev = g.grad_reverse(h, 0.7);
            let loss = losses::information_entropy_loss(&mut g, rev);
            let value = g.value(loss).item();
            g.backward(loss);
            value
        };
        // Gradient reversal means the analytic gradient is -0.7x the true
        // gradient of the loss, so compare against the *forward* function's
        // numeric gradient scaled accordingly: easiest is to fold the
        // reversal into the loss by negating lambda in a wrapper. Instead we
        // simply check the reversed gradient is the negative of the
        // non-reversed one.
        store.zero_grad();
        loss_fn(&mut store);
        let reversed = store.grad(w).unwrap().clone();

        let loss_fn_plain = |store: &mut ParamStore| {
            let mut g = Graph::new(store, false, 0);
            let xv = g.constant(x.clone());
            let wv = g.param(w);
            let h = g.matmul(xv, wv);
            let loss = losses::information_entropy_loss(&mut g, h);
            let value = g.value(loss).item();
            g.backward(loss);
            value
        };
        let report = check_gradients(&mut store, &[w], loss_fn_plain, 1e-2, 16);
        assert!(report.max_rel_error < 3e-2, "entropy gradcheck failed");

        store.zero_grad();
        loss_fn_plain(&mut store);
        let plain = store.grad(w).unwrap().clone();
        for (r, p) in reversed.data().iter().zip(plain.data().iter()) {
            assert!((r + 0.7 * p).abs() < 1e-4, "reversal mismatch {r} vs {p}");
        }
    }
}
