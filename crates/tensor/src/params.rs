//! Parameter storage shared between a model, the autograd tape, and the
//! optimizer.

use crate::tensor::Tensor;

/// Opaque handle to a parameter inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Raw index of this parameter (stable for the lifetime of the store).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// A named parameter: value, accumulated gradient and a trainable flag.
#[derive(Clone, Debug)]
pub struct Param {
    /// Human-readable, dotted name (e.g. `"textcnn.conv3.weight"`).
    pub name: String,
    /// Current value.
    pub value: Tensor,
    /// Gradient accumulated by [`crate::Graph::backward`] since the last
    /// [`ParamStore::zero_grad`]. `None` until the first
    /// [`ParamStore::accumulate_grad`] creates it, so a frozen parameter
    /// (which backward skips) and a store that only serves inference hold
    /// no gradient buffer at all.
    pub grad: Option<Tensor>,
    /// Frozen parameters (e.g. the simulated pre-trained embedding table)
    /// never receive optimizer updates, but still participate in forward
    /// passes.
    pub trainable: bool,
}

/// Owns every parameter of a model (or of a model family sharing weights).
///
/// The store is deliberately append-only: a `ParamId` handed out once stays
/// valid, which lets models keep plain `ParamId` fields and lets the
/// optimizer address its per-parameter state by index.
#[derive(Clone, Debug, Default)]
pub struct ParamStore {
    params: Vec<Param>,
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a trainable parameter, returning its handle.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        self.push(name.into(), value, true)
    }

    /// Register a frozen (non-trainable) parameter, returning its handle.
    pub fn add_frozen(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        self.push(name.into(), value, false)
    }

    fn push(&mut self, name: String, value: Tensor, trainable: bool) -> ParamId {
        self.params.push(Param {
            name,
            value,
            grad: None,
            trainable,
        });
        ParamId(self.params.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// `true` when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar parameters, counting only trainable tensors.
    pub fn num_trainable_scalars(&self) -> usize {
        self.params
            .iter()
            .filter(|p| p.trainable)
            .map(|p| p.value.numel())
            .sum()
    }

    /// Total number of scalar parameters including frozen tensors.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.numel()).sum()
    }

    /// Borrow a parameter.
    pub fn get(&self, id: ParamId) -> &Param {
        &self.params[id.0]
    }

    /// Borrow a parameter mutably.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Param {
        &mut self.params[id.0]
    }

    /// Borrow a parameter's value.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].value
    }

    /// Borrow a parameter's gradient; `None` when nothing has been
    /// accumulated into it yet.
    pub fn grad(&self, id: ParamId) -> Option<&Tensor> {
        self.params[id.0].grad.as_ref()
    }

    /// Accumulate `delta` into a parameter's gradient, creating the
    /// zero-initialised buffer on first use.
    pub fn accumulate_grad(&mut self, id: ParamId, delta: &Tensor) {
        let p = &mut self.params[id.0];
        p.grad
            .get_or_insert_with(|| Tensor::zeros(p.value.shape()))
            .axpy(1.0, delta);
    }

    /// Reset every existing gradient to zero (call once per optimization
    /// step). Buffers are kept for the next step's accumulation.
    pub fn zero_grad(&mut self) {
        for grad in self.params.iter_mut().filter_map(|p| p.grad.as_mut()) {
            grad.fill_zero();
        }
    }

    /// Iterate over `(ParamId, &Param)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Param)> {
        self.params.iter().enumerate().map(|(i, p)| (ParamId(i), p))
    }

    /// Iterate mutably over parameters (used by optimizers).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (ParamId, &mut Param)> {
        self.params
            .iter_mut()
            .enumerate()
            .map(|(i, p)| (ParamId(i), p))
    }

    /// Global L2 norm over all trainable gradients (a missing buffer counts
    /// as zero).
    pub fn grad_norm(&self) -> f32 {
        self.params
            .iter()
            .filter(|p| p.trainable)
            .filter_map(|p| p.grad.as_ref())
            .map(|g| g.data().iter().map(|g| g * g).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Scale all trainable gradients so the global norm does not exceed
    /// `max_norm`. Returns the scaling factor applied (1.0 when no clipping
    /// occurred).
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.grad_norm();
        if norm <= max_norm || norm == 0.0 {
            return 1.0;
        }
        let scale = max_norm / norm;
        for p in self.params.iter_mut().filter(|p| p.trainable) {
            for g in p.grad.iter_mut().flat_map(Tensor::data_mut) {
                *g *= scale;
            }
        }
        scale
    }

    /// Copy all parameter values from another store with identical layout.
    ///
    /// Used to snapshot/restore "best epoch" weights during training.
    ///
    /// # Panics
    /// Panics if the two stores have different parameter layouts.
    pub fn copy_values_from(&mut self, other: &ParamStore) {
        assert_eq!(self.len(), other.len(), "param store layout mismatch");
        for (dst, src) in self.params.iter_mut().zip(other.params.iter()) {
            assert_eq!(
                dst.value.shape(),
                src.value.shape(),
                "param {} shape mismatch",
                dst.name
            );
            dst.value.data_mut().copy_from_slice(src.value.data());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::ones(&[2, 3]));
        let b = store.add_frozen("b", Tensor::zeros(&[3]));
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(w).name, "w");
        assert!(store.get(w).trainable);
        assert!(!store.get(b).trainable);
        assert_eq!(store.num_scalars(), 9);
        assert_eq!(store.num_trainable_scalars(), 6);
    }

    #[test]
    fn gradients_accumulate_and_reset() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::zeros(&[2]));
        assert!(
            store.grad(w).is_none(),
            "no buffer before the first gradient"
        );
        store.accumulate_grad(w, &Tensor::from_vec(vec![1.0, 2.0]));
        store.accumulate_grad(w, &Tensor::from_vec(vec![0.5, 0.5]));
        assert_eq!(store.grad(w).unwrap().data(), &[1.5, 2.5]);
        store.zero_grad();
        assert_eq!(store.grad(w).unwrap().data(), &[0.0, 0.0]);
    }

    #[test]
    fn grad_norm_and_clipping() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::zeros(&[2]));
        store.accumulate_grad(w, &Tensor::from_vec(vec![3.0, 4.0]));
        assert!((store.grad_norm() - 5.0).abs() < 1e-6);
        let scale = store.clip_grad_norm(1.0);
        assert!((scale - 0.2).abs() < 1e-6);
        assert!((store.grad_norm() - 1.0).abs() < 1e-5);
        // Clipping below the threshold is a no-op.
        assert_eq!(store.clip_grad_norm(10.0), 1.0);
    }

    #[test]
    fn frozen_params_excluded_from_grad_norm() {
        let mut store = ParamStore::new();
        let f = store.add_frozen("emb", Tensor::zeros(&[2]));
        store.accumulate_grad(f, &Tensor::from_vec(vec![10.0, 10.0]));
        assert_eq!(store.grad_norm(), 0.0);
    }

    #[test]
    fn copy_values_from_snapshots_weights() {
        let mut a = ParamStore::new();
        let w = a.add("w", Tensor::from_vec(vec![1.0, 2.0]));
        let mut b = a.clone();
        b.get_mut(w).value = Tensor::from_vec(vec![9.0, 9.0]);
        a.copy_values_from(&b);
        assert_eq!(a.value(w).data(), &[9.0, 9.0]);
    }
}
