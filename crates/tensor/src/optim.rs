//! The Adam optimizer, operating on a [`ParamStore`].

use crate::params::ParamStore;
use crate::tensor::Tensor;

const BETA1: f32 = 0.9;
const BETA2: f32 = 0.999;
const EPS: f32 = 1e-8;

/// Adam optimizer (Kingma & Ba, 2015) with the standard betas
/// `(0.9, 0.999)` and `ε = 1e-8`.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    t: u64,
    m: Vec<Option<Tensor>>,
    v: Vec<Option<Tensor>>,
}

impl Adam {
    /// Adam at learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Apply one update step using the gradients currently accumulated in
    /// the store, then leave the gradients untouched (callers normally call
    /// [`ParamStore::zero_grad`] right after).
    pub fn step(&mut self, store: &mut ParamStore) {
        self.t += 1;
        if self.m.len() < store.len() {
            self.m.resize(store.len(), None);
            self.v.resize(store.len(), None);
        }
        let bc1 = 1.0 - BETA1.powi(self.t as i32);
        let bc2 = 1.0 - BETA2.powi(self.t as i32);
        for (id, p) in store.iter_mut() {
            if !p.trainable {
                continue;
            }
            let idx = id.index();
            let m = self.m[idx].get_or_insert_with(|| Tensor::zeros(p.value.shape()));
            let v = self.v[idx].get_or_insert_with(|| Tensor::zeros(p.value.shape()));
            // A parameter no backward pass has reached yet steps on a zero
            // gradient: its moments still decay.
            let zeros;
            let grad = match &p.grad {
                Some(grad) => grad.data(),
                None => {
                    zeros = vec![0.0; p.value.numel()];
                    &zeros
                }
            };
            for (((w, g), mi), vi) in p
                .value
                .data_mut()
                .iter_mut()
                .zip(grad.iter())
                .zip(m.data_mut().iter_mut())
                .zip(v.data_mut().iter_mut())
            {
                *mi = BETA1 * *mi + (1.0 - BETA1) * g;
                *vi = BETA2 * *vi + (1.0 - BETA2) * g * g;
                let m_hat = *mi / bc1;
                let v_hat = *vi / bc2;
                *w -= self.lr * (m_hat / (v_hat.sqrt() + EPS));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::params::ParamStore;

    /// Minimise (w - 3)^2 and check convergence.
    fn quadratic_loss(store: &mut ParamStore, w: crate::ParamId) -> f32 {
        let mut g = Graph::new(store, true, 0);
        let wv = g.param(w);
        let target = g.constant(Tensor::from_vec(vec![3.0]));
        let diff = g.sub(wv, target);
        let sq = g.mul(diff, diff);
        let loss = g.mean_all(sq);
        let out = g.value(loss).item();
        g.backward(loss);
        out
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(vec![-5.0]));
        let mut opt = Adam::new(0.2);
        for _ in 0..200 {
            store.zero_grad();
            quadratic_loss(&mut store, w);
            opt.step(&mut store);
        }
        assert!((store.value(w).data()[0] - 3.0).abs() < 1e-2);
        assert_eq!(opt.steps(), 200);
    }

    #[test]
    fn frozen_parameters_are_not_updated() {
        let mut store = ParamStore::new();
        let w = store.add_frozen("w", Tensor::from_vec(vec![1.0]));
        store.accumulate_grad(w, &Tensor::from_vec(vec![10.0]));
        let mut opt = Adam::new(0.5);
        opt.step(&mut store);
        assert_eq!(store.value(w).data(), &[1.0]);
    }
}
