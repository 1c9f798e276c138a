//! Dense layers: [`Linear`] and the [`Mlp`] stack used for every classifier
//! head in the paper's models.

use dtdbd_tensor::init;
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::{Graph, ParamId, ParamStore, Var};

/// A fully connected layer `y = x W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: ParamId,
    bias: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Register a new linear layer's parameters under `name`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut Prng,
    ) -> Self {
        let weight = store.add(
            format!("{name}.weight"),
            init::xavier_uniform(in_dim, out_dim, &[in_dim, out_dim], rng),
        );
        let bias = store.add(format!("{name}.bias"), init::zeros(&[out_dim]));
        Self {
            weight,
            bias,
            in_dim,
            out_dim,
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Parameter handles `(weight, bias)`.
    pub fn params(&self) -> (ParamId, ParamId) {
        (self.weight, self.bias)
    }

    /// Apply the layer to a `[batch, in_dim]` input: `param → matmul →
    /// add_bias`, on tape and tape-free graphs alike.
    pub fn forward(&self, g: &mut Graph<'_>, x: Var) -> Var {
        let w = g.param(self.weight);
        let b = g.param(self.bias);
        let xw = g.matmul(x, w);
        g.add_bias(xw, b)
    }
}

/// Which nonlinearity an [`Mlp`] uses between its hidden layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
}

/// A multi-layer perceptron: `Linear -> activation -> dropout` repeated, with
/// a final linear output layer and no output activation.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
    dropout: f32,
}

impl Mlp {
    /// Build an MLP with the given layer sizes, e.g. `[320, 64, 2]` builds
    /// one hidden layer of width 64 and a 2-way output.
    ///
    /// # Panics
    /// Panics if fewer than two sizes are given.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        sizes: &[usize],
        activation: Activation,
        dropout: f32,
        rng: &mut Prng,
    ) -> Self {
        assert!(
            sizes.len() >= 2,
            "Mlp needs at least input and output sizes"
        );
        let layers = sizes
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, &format!("{name}.fc{i}"), w[0], w[1], rng))
            .collect();
        Self {
            layers,
            activation,
            dropout,
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.layers.first().expect("non-empty").in_dim()
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Number of linear layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Apply the MLP to a `[batch, in_dim]` input.
    pub fn forward(&self, g: &mut Graph<'_>, x: Var) -> Var {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(g, h);
            if i < last {
                h = match self.activation {
                    Activation::Relu => g.relu(h),
                    Activation::Tanh => g.tanh(h),
                };
                h = g.dropout(h, self.dropout);
            }
        }
        h
    }

    /// Apply every layer except the final linear output, returning the last
    /// hidden representation (used as the "intermediate feature" that the
    /// paper distils).
    pub fn forward_hidden(&self, g: &mut Graph<'_>, x: Var) -> Var {
        let mut h = x;
        let last = self.layers.len() - 1;
        for layer in &self.layers[..last] {
            h = layer.forward(g, h);
            h = match self.activation {
                Activation::Relu => g.relu(h),
                Activation::Tanh => g.tanh(h),
            };
            h = g.dropout(h, self.dropout);
        }
        h
    }

    /// Apply only the final linear layer to an already-computed hidden
    /// representation (the counterpart of [`Mlp::forward_hidden`]).
    pub fn forward_output(&self, g: &mut Graph<'_>, hidden: Var) -> Var {
        self.layers.last().expect("non-empty").forward(g, hidden)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtdbd_tensor::gradcheck::check_gradients;
    use dtdbd_tensor::Tensor;

    #[test]
    fn linear_output_shape_and_bias() {
        let mut rng = Prng::new(1);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "fc", 4, 3, &mut rng);
        assert_eq!(layer.in_dim(), 4);
        assert_eq!(layer.out_dim(), 3);
        let mut g = Graph::new(&mut store, false, 0);
        let x = g.constant(Tensor::zeros(&[2, 4]));
        let y = layer.forward(&mut g, x);
        assert_eq!(g.value(y).shape(), &[2, 3]);
        // Zero input -> output equals bias (zero-initialised).
        assert!(g.value(y).data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn mlp_shapes_and_depth() {
        let mut rng = Prng::new(2);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(
            &mut store,
            "mlp",
            &[8, 16, 4, 2],
            Activation::Relu,
            0.0,
            &mut rng,
        );
        assert_eq!(mlp.depth(), 3);
        assert_eq!(mlp.in_dim(), 8);
        assert_eq!(mlp.out_dim(), 2);
        let mut g = Graph::new(&mut store, false, 0);
        let x = g.constant(Tensor::randn(&[5, 8], 1.0, &mut rng));
        let y = mlp.forward(&mut g, x);
        assert_eq!(g.value(y).shape(), &[5, 2]);
    }

    #[test]
    fn hidden_plus_output_equals_forward() {
        let mut rng = Prng::new(3);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(
            &mut store,
            "mlp",
            &[6, 10, 3],
            Activation::Tanh,
            0.0,
            &mut rng,
        );
        let x = Tensor::randn(&[4, 6], 1.0, &mut rng);
        let mut g = Graph::new(&mut store, false, 0);
        let xv = g.constant(x.clone());
        let full = mlp.forward(&mut g, xv);
        let hidden = mlp.forward_hidden(&mut g, xv);
        let out = mlp.forward_output(&mut g, hidden);
        for (a, b) in g.value(full).data().iter().zip(g.value(out).data().iter()) {
            assert!((a - b).abs() < 1e-6);
        }
        assert_eq!(g.value(hidden).shape(), &[4, 10]);
    }

    #[test]
    fn mlp_gradients_pass_finite_difference_check() {
        let mut rng = Prng::new(4);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(
            &mut store,
            "mlp",
            &[5, 8, 2],
            Activation::Tanh,
            0.0,
            &mut rng,
        );
        let param_ids: Vec<_> = store.iter().map(|(id, _)| id).collect();
        let x = Tensor::randn(&[3, 5], 1.0, &mut rng);
        let labels = vec![0usize, 1, 1];
        let report = check_gradients(
            &mut store,
            &param_ids,
            |store| {
                let mut g = Graph::new(store, false, 0);
                let xv = g.constant(x.clone());
                let logits = mlp.forward(&mut g, xv);
                let loss = g.cross_entropy_logits(logits, &labels);
                let v = g.value(loss).item();
                g.backward(loss);
                v
            },
            1e-2,
            12,
        );
        assert!(
            report.max_rel_error < 3e-2,
            "rel err {}",
            report.max_rel_error
        );
    }

    #[test]
    fn training_with_dropout_produces_stochastic_outputs() {
        let mut rng = Prng::new(5);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(
            &mut store,
            "mlp",
            &[4, 32, 2],
            Activation::Relu,
            0.5,
            &mut rng,
        );
        let x = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let run = |store: &mut ParamStore, seed: u64| {
            let mut g = Graph::new(store, true, seed);
            let xv = g.constant(x.clone());
            let y = mlp.forward(&mut g, xv);
            g.value(y).data().to_vec()
        };
        let a = run(&mut store, 1);
        let b = run(&mut store, 2);
        assert_ne!(a, b, "different dropout seeds should change the output");
    }
}
