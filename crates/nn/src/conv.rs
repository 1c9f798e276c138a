//! TextCNN-style convolutional sequence encoders (Kim, 2014).
//!
//! Each branch is **one graph op**, [`dtdbd_tensor::Graph::conv_relu_max`]:
//! the convolution runs as one blocked GEMM that seeds the output with the
//! bias and accumulates the `[oc, k·d]` weight against the `k·d`-long
//! windows of the `[b, s, d]` input, read where they lie (each window is
//! contiguous in a row-major `[s, d]` layout, so nothing is unfolded), and
//! ReLU and max-over-time pool that activation in the same op. Per
//! convolution output the arithmetic order is exactly the naive nested-loop
//! order (`bias + Σ x·w` over ascending `(ki, j)`), so a branch is
//! bit-identical to a direct convolution followed by ReLU and max pooling —
//! and, by the kernels' determinism contract, bit-identical at any intra-op
//! thread count. `conv_matches_naive_reference_bit_for_bit` below pins both.
//! Training, evaluation and serving all run this one op.

use dtdbd_tensor::init;
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::{Graph, ParamId, ParamStore, Var};

/// One 1-D convolution "branch" of a TextCNN: a kernel of a single width
/// followed by ReLU and max-over-time pooling.
#[derive(Debug, Clone)]
pub struct ConvBranch {
    weight: ParamId,
    bias: ParamId,
    kernel: usize,
    channels: usize,
}

impl ConvBranch {
    /// Register a branch with `channels` output channels and width `kernel`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        channels: usize,
        kernel: usize,
        rng: &mut Prng,
    ) -> Self {
        let weight = store.add(
            format!("{name}.weight"),
            init::xavier_uniform(kernel * in_dim, channels, &[channels, kernel, in_dim], rng),
        );
        store.get_mut(weight).quantizable = true;
        let bias = store.add(format!("{name}.bias"), init::zeros(&[channels]));
        Self {
            weight,
            bias,
            kernel,
            channels,
        }
    }

    /// Kernel width.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Number of output channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Apply conv -> ReLU -> max-over-time to a `[b, s, d]` input, producing
    /// `[b, channels]`, as the single op [`Graph::conv_relu_max`] on tape
    /// and tape-free graphs alike. It reads the weight and bias in place in
    /// the store; graphs with an int8 registry entry for the weight run the
    /// quantized convolution inside the same op.
    pub fn forward(&self, g: &mut Graph<'_>, x: Var) -> Var {
        g.conv_relu_max(x, self.weight, self.bias)
    }
}

/// The multi-kernel TextCNN encoder: several [`ConvBranch`]es whose pooled
/// outputs are concatenated.
///
/// The paper's configurations map to this type as follows:
///
/// * baseline TextCNN / MDFEND expert: kernels `{1, 2, 3, 5, 10}` × 64
///   channels;
/// * the student TextCNN-S / TextCNN-U: kernels `{1, 2, 3, 5}` × 64 channels
///   on top of the frozen pre-trained embedding.
#[derive(Debug, Clone)]
pub struct TextCnnEncoder {
    branches: Vec<ConvBranch>,
    in_dim: usize,
}

impl TextCnnEncoder {
    /// Build an encoder with one branch per kernel width.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        channels: usize,
        kernels: &[usize],
        rng: &mut Prng,
    ) -> Self {
        assert!(
            !kernels.is_empty(),
            "TextCnnEncoder needs at least one kernel"
        );
        let branches = kernels
            .iter()
            .map(|&k| ConvBranch::new(store, &format!("{name}.k{k}"), in_dim, channels, k, rng))
            .collect();
        Self { branches, in_dim }
    }

    /// Input (embedding) dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Dimension of the concatenated output feature.
    pub fn out_dim(&self) -> usize {
        self.branches.iter().map(ConvBranch::channels).sum()
    }

    /// Largest kernel width (the minimum usable sequence length).
    pub fn max_kernel(&self) -> usize {
        self.branches
            .iter()
            .map(ConvBranch::kernel)
            .max()
            .unwrap_or(1)
    }

    /// Encode a `[b, s, d]` embedded sequence into `[b, out_dim]`.
    ///
    /// # Panics
    /// Panics if the sequence is shorter than the largest kernel.
    pub fn forward(&self, g: &mut Graph<'_>, x: Var) -> Var {
        let pooled: Vec<Var> = self.branches.iter().map(|br| br.forward(g, x)).collect();
        if pooled.len() == 1 {
            pooled[0]
        } else {
            g.concat_last(&pooled)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtdbd_tensor::gradcheck::check_gradients;
    use dtdbd_tensor::Tensor;

    #[test]
    fn encoder_output_dim_is_channels_times_kernels() {
        let mut rng = Prng::new(1);
        let mut store = ParamStore::new();
        let enc = TextCnnEncoder::new(&mut store, "cnn", 16, 8, &[1, 2, 3, 5], &mut rng);
        assert_eq!(enc.out_dim(), 32);
        assert_eq!(enc.max_kernel(), 5);
        let mut g = Graph::new(&mut store, false, 0);
        let x = g.constant(Tensor::randn(&[3, 12, 16], 1.0, &mut rng));
        let y = enc.forward(&mut g, x);
        assert_eq!(g.value(y).shape(), &[3, 32]);
    }

    #[test]
    fn single_branch_skips_concat() {
        let mut rng = Prng::new(2);
        let mut store = ParamStore::new();
        let enc = TextCnnEncoder::new(&mut store, "cnn", 8, 4, &[3], &mut rng);
        let mut g = Graph::new(&mut store, false, 0);
        let x = g.constant(Tensor::randn(&[2, 6, 8], 1.0, &mut rng));
        let y = enc.forward(&mut g, x);
        assert_eq!(g.value(y).shape(), &[2, 4]);
    }

    #[test]
    fn pooled_features_are_nonnegative_after_relu() {
        let mut rng = Prng::new(3);
        let mut store = ParamStore::new();
        let enc = TextCnnEncoder::new(&mut store, "cnn", 8, 16, &[2, 3], &mut rng);
        let mut g = Graph::new(&mut store, false, 0);
        let x = g.constant(Tensor::randn(&[4, 10, 8], 1.0, &mut rng));
        let y = enc.forward(&mut g, x);
        assert!(g.value(y).data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn encoder_gradients_pass_finite_difference_check() {
        let mut rng = Prng::new(4);
        let mut store = ParamStore::new();
        let enc = TextCnnEncoder::new(&mut store, "cnn", 5, 3, &[2, 3], &mut rng);
        let head_w = store.add("head", Tensor::randn(&[6, 2], 0.4, &mut rng));
        let param_ids: Vec<_> = store.iter().map(|(id, _)| id).collect();
        let x = Tensor::randn(&[3, 7, 5], 1.0, &mut rng);
        let labels = vec![0usize, 1, 0];
        let report = check_gradients(
            &mut store,
            &param_ids,
            |store| {
                let mut g = Graph::new(store, false, 0);
                let xv = g.constant(x.clone());
                let feat = enc.forward(&mut g, xv);
                let w = g.param(head_w);
                let logits = g.matmul(feat, w);
                let loss = g.cross_entropy_logits(logits, &labels);
                let v = g.value(loss).item();
                g.backward(loss);
                v
            },
            // Small eps: the ReLU + max-over-time composition is piecewise
            // linear, and a larger perturbation can cross an argmax boundary.
            1e-3,
            10,
        );
        assert!(
            report.max_rel_error < 5e-2,
            "rel err {}",
            report.max_rel_error
        );
    }

    #[test]
    fn conv_matches_naive_reference_bit_for_bit() {
        // Direct nested-loop convolution, ReLU and first-maximum pooling:
        // the arithmetic a branch must reproduce.
        fn naive_branch(
            x: &[f32],
            w: &[f32],
            bias: &[f32],
            (b, s, d): (usize, usize, usize),
            (oc, k): (usize, usize),
        ) -> Vec<f32> {
            let out_s = s - k + 1;
            let mut out = vec![f32::NEG_INFINITY; b * oc];
            for i in 0..b {
                for t in 0..out_s {
                    for o in 0..oc {
                        let mut acc = bias[o];
                        for ki in 0..k {
                            let x_off = i * s * d + (t + ki) * d;
                            let w_off = o * k * d + ki * d;
                            for j in 0..d {
                                acc += x[x_off + j] * w[w_off + j];
                            }
                        }
                        let act = acc.max(0.0);
                        if act > out[i * oc + o] {
                            out[i * oc + o] = act;
                        }
                    }
                }
            }
            out
        }

        let mut rng = Prng::new(6);
        for (b, s, d, oc, k) in [(1, 3, 1, 1, 2), (3, 11, 5, 7, 3), (4, 16, 8, 6, 5)] {
            let mut store = ParamStore::new();
            let branch = ConvBranch::new(&mut store, "conv", d, oc, k, &mut rng);
            store.get_mut(branch.bias).value = Tensor::randn(&[oc], 0.2, &mut rng);
            let x = Tensor::randn(&[b, s, d], 1.0, &mut rng);
            let want = naive_branch(
                x.data(),
                store.value(branch.weight).data(),
                store.value(branch.bias).data(),
                (b, s, d),
                (oc, k),
            );
            for threads in [1usize, 2, 4] {
                let mut g = Graph::new(&mut store, false, 0);
                g.set_threads(threads);
                let xv = g.constant(x.clone());
                let y = branch.forward(&mut g, xv);
                assert_eq!(g.value(y).shape(), &[b, oc]);
                for (i, (a, e)) in g.value(y).data().iter().zip(&want).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        e.to_bits(),
                        "({b},{s},{d},{oc},{k}) t={threads} elem {i}: {a} vs {e}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "sequence length")]
    fn too_short_sequence_panics() {
        let mut rng = Prng::new(5);
        let mut store = ParamStore::new();
        let enc = TextCnnEncoder::new(&mut store, "cnn", 4, 2, &[5], &mut rng);
        let mut g = Graph::new(&mut store, false, 0);
        let x = g.constant(Tensor::randn(&[1, 3, 4], 1.0, &mut rng));
        let _ = enc.forward(&mut g, x);
    }
}
