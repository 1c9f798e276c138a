//! Gradient-reversal domain adversary (Ganin & Lempitsky, 2015).
//!
//! Used in three places in the reproduction:
//!
//! * EANN's event/domain discriminator,
//! * EDDFN's cross-domain branch,
//! * the unbiased teacher of DTDBD, trained with DAT or DAT-IE (Eq. 7–11).

use crate::linear::{Activation, Mlp};
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::{Graph, ParamStore, Var};

/// A domain classifier preceded by a gradient reversal layer.
#[derive(Debug, Clone)]
pub struct DomainAdversary {
    classifier: Mlp,
    lambda: f32,
    n_domains: usize,
}

impl DomainAdversary {
    /// Build an adversary over `feature_dim`-dimensional representations for
    /// `n_domains` domains. `lambda` scales the reversed gradient (α in the
    /// paper's Eq. 11).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        feature_dim: usize,
        hidden: usize,
        n_domains: usize,
        lambda: f32,
        rng: &mut Prng,
    ) -> Self {
        let classifier = Mlp::new(
            store,
            &format!("{name}.domain_clf"),
            &[feature_dim, hidden, n_domains],
            Activation::Relu,
            0.0,
            rng,
        );
        Self {
            classifier,
            lambda,
            n_domains,
        }
    }

    /// Number of domains the adversary discriminates between.
    pub fn n_domains(&self) -> usize {
        self.n_domains
    }

    /// Domain logits computed *through* the gradient-reversal layer: the
    /// domain classifier itself is trained to predict the domain, while the
    /// upstream encoder receives the reversed gradient and is pushed towards
    /// domain-invariant features.
    pub fn forward(&self, g: &mut Graph<'_>, features: Var) -> Var {
        let reversed = g.grad_reverse(features, self.lambda);
        self.classifier.forward(g, reversed)
    }

    /// Domain logits *without* gradient reversal (used when only the domain
    /// classifier should learn, e.g. for probing/diagnostics).
    pub fn forward_plain(&self, g: &mut Graph<'_>, features: Var) -> Var {
        self.classifier.forward(g, features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtdbd_tensor::{ParamId, Tensor};

    fn setup(lambda: f32) -> (ParamStore, DomainAdversary, ParamId) {
        let mut rng = Prng::new(11);
        let mut store = ParamStore::new();
        // A fake "encoder" parameter so we can observe the reversed gradient.
        let enc = store.add("encoder", Tensor::randn(&[4, 6], 0.5, &mut rng));
        let adv = DomainAdversary::new(&mut store, "adv", 6, 8, 3, lambda, &mut rng);
        (store, adv, enc)
    }

    #[test]
    fn output_shape_matches_domain_count() {
        let (mut store, adv, enc) = setup(1.0);
        assert_eq!(adv.n_domains(), 3);
        let mut g = Graph::new(&mut store, false, 0);
        let x = g.constant(Tensor::randn(&[5, 4], 1.0, &mut Prng::new(2)));
        let e = g.param(enc);
        let feats = g.matmul(x, e);
        let logits = adv.forward(&mut g, feats);
        assert_eq!(g.value(logits).shape(), &[5, 3]);
    }

    #[test]
    fn encoder_gradient_is_reversed_relative_to_plain_head() {
        let labels = vec![0usize, 1, 2, 0, 1];
        let x = Tensor::randn(&[5, 4], 1.0, &mut Prng::new(3));

        let run = |reversed: bool, lambda: f32| -> Tensor {
            let (mut store, adv, enc) = setup(lambda);
            store.zero_grad();
            let mut g = Graph::new(&mut store, false, 0);
            let xv = g.constant(x.clone());
            let e = g.param(enc);
            let feats = g.matmul(xv, e);
            let logits = if reversed {
                adv.forward(&mut g, feats)
            } else {
                adv.forward_plain(&mut g, feats)
            };
            let loss = g.cross_entropy_logits(logits, &labels);
            g.backward(loss);
            store.grad(enc).clone()
        };

        let rev = run(true, 1.0);
        let plain = run(false, 1.0);
        // With identical initialisation (same seed), the reversed gradient is
        // exactly the negative of the plain gradient.
        for (a, b) in rev.data().iter().zip(plain.data().iter()) {
            assert!((a + b).abs() < 1e-5, "expected reversal, got {a} vs {b}");
        }

        let rev_half = run(true, 0.5);
        for (a, b) in rev_half.data().iter().zip(plain.data().iter()) {
            assert!((a + 0.5 * b).abs() < 1e-5);
        }
    }

    #[test]
    fn domain_classifier_itself_still_learns() {
        // The classifier head's own gradients are NOT reversed, so its
        // gradient should be identical whether or not the GRL is present.
        let labels = vec![0usize, 1, 2, 0, 1];
        let x = Tensor::randn(&[5, 4], 1.0, &mut Prng::new(5));
        let grads = |reversed: bool| -> Vec<f32> {
            let (mut store, adv, enc) = setup(1.0);
            store.zero_grad();
            let mut g = Graph::new(&mut store, false, 0);
            let xv = g.constant(x.clone());
            let e = g.param(enc);
            let feats = g.matmul(xv, e);
            let logits = if reversed {
                adv.forward(&mut g, feats)
            } else {
                adv.forward_plain(&mut g, feats)
            };
            let loss = g.cross_entropy_logits(logits, &labels);
            g.backward(loss);
            // Collect all classifier grads (everything except the encoder).
            store
                .iter()
                .filter(|(id, p)| *id != enc && p.trainable)
                .flat_map(|(_, p)| p.grad.data().to_vec())
                .collect()
        };
        let with = grads(true);
        let without = grads(false);
        for (a, b) in with.iter().zip(without.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
