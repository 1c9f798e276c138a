//! Token embedding tables.
//!
//! The original system feeds frozen BERT/RoBERTa layer-11 activations into
//! the trainable encoders. Here the frozen pre-trained encoder is simulated
//! by a frozen, deterministically seeded embedding table (see DESIGN.md,
//! "Substitutions"): it is a fixed, information-preserving featurisation of
//! the token stream, exactly the role the frozen PLM plays in the paper.

use dtdbd_tensor::init;
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::{Graph, ParamId, ParamStore, Var};

/// A `[vocab, dim]` token embedding table.
#[derive(Debug, Clone)]
pub struct Embedding {
    table: ParamId,
    vocab: usize,
    dim: usize,
    frozen: bool,
}

impl Embedding {
    /// A trainable embedding table.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut Prng,
    ) -> Self {
        let table = store.add(
            format!("{name}.table"),
            init::embedding_normal(&[vocab, dim], rng),
        );
        Self {
            table,
            vocab,
            dim,
            frozen: false,
        }
    }

    /// A frozen embedding table simulating the fixed pre-trained text
    /// encoder (BERT layer-11 activations in the paper). The table never
    /// receives gradient updates.
    pub fn frozen_pretrained(
        store: &mut ParamStore,
        name: &str,
        vocab: usize,
        dim: usize,
        seed: u64,
    ) -> Self {
        let mut rng = Prng::new(seed);
        let table = store.add_frozen(
            format!("{name}.pretrained"),
            init::embedding_normal(&[vocab, dim], &mut rng),
        );
        Self {
            table,
            vocab,
            dim,
            frozen: true,
        }
    }

    /// A frozen embedding table with caller-provided vectors. Used to install
    /// the *structured* simulated pre-trained encoder built by
    /// `dtdbd-models` (semantically related tokens share directions, the way
    /// a real PLM clusters them).
    pub fn frozen_from_table(
        store: &mut ParamStore,
        name: &str,
        table: dtdbd_tensor::Tensor,
    ) -> Self {
        assert_eq!(table.ndim(), 2, "embedding table must be [vocab, dim]");
        let vocab = table.shape()[0];
        let dim = table.shape()[1];
        let table = store.add_frozen(format!("{name}.pretrained"), table);
        Self {
            table,
            vocab,
            dim,
            frozen: true,
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Whether the table is frozen (non-trainable).
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Handle to the underlying table parameter.
    pub fn table(&self) -> ParamId {
        self.table
    }

    /// Look up a `[batch, seq]` id matrix, producing `[batch, seq, dim]`.
    pub fn forward(&self, g: &mut Graph<'_>, ids: &[u32], batch: usize, seq: usize) -> Var {
        g.embedding(self.table, ids, batch, seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtdbd_tensor::Tensor;

    #[test]
    fn lookup_shape_and_determinism() {
        let mut store = ParamStore::new();
        let emb = Embedding::frozen_pretrained(&mut store, "bert", 50, 8, 42);
        assert!(emb.is_frozen());
        assert_eq!(emb.vocab(), 50);
        assert_eq!(emb.dim(), 8);
        let mut g = Graph::new(&mut store, false, 0);
        let out = emb.forward(&mut g, &[0, 1, 2, 3, 4, 5], 2, 3);
        assert_eq!(g.value(out).shape(), &[2, 3, 8]);

        // Same seed -> identical table.
        let mut store2 = ParamStore::new();
        let emb2 = Embedding::frozen_pretrained(&mut store2, "bert", 50, 8, 42);
        assert_eq!(store.value(emb.table()), store2.value(emb2.table()));

        // Different seed -> different table.
        let mut store3 = ParamStore::new();
        let emb3 = Embedding::frozen_pretrained(&mut store3, "bert", 50, 8, 7);
        assert_ne!(store.value(emb.table()), store3.value(emb3.table()));
    }

    #[test]
    fn frozen_table_gets_no_gradient_trainable_does() {
        let mut rng = Prng::new(3);
        let mut store = ParamStore::new();
        let frozen = Embedding::frozen_pretrained(&mut store, "frozen", 10, 4, 1);
        let trainable = Embedding::new(&mut store, "train", 10, 4, &mut rng);
        let mut g = Graph::new(&mut store, true, 0);
        let a = frozen.forward(&mut g, &[1, 2], 1, 2);
        let b = trainable.forward(&mut g, &[1, 2], 1, 2);
        let sum_a = g.sum_all(a);
        let sum_b = g.sum_all(b);
        let total = g.add(sum_a, sum_b);
        g.backward(total);
        assert!(store.grad(frozen.table()).is_none());
        assert!(store.grad(trainable.table()).unwrap().norm() > 0.0);
    }

    #[test]
    fn same_token_gets_same_vector() {
        let mut store = ParamStore::new();
        let emb = Embedding::frozen_pretrained(&mut store, "bert", 20, 6, 9);
        let mut g = Graph::new(&mut store, false, 0);
        let out = emb.forward(&mut g, &[7, 7], 1, 2);
        let v = g.value(out);
        let first: Vec<f32> = (0..6).map(|j| v.at(&[0, 0, j])).collect();
        let second: Vec<f32> = (0..6).map(|j| v.at(&[0, 1, j])).collect();
        assert_eq!(first, second);
        assert_ne!(first, vec![0.0; 6]);
    }

    #[test]
    fn out_of_vocab_panics() {
        let mut store = ParamStore::new();
        let emb = Embedding::frozen_pretrained(&mut store, "bert", 5, 2, 1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut g = Graph::new(&mut store, false, 0);
            let _ = emb.forward(&mut g, &[9], 1, 1);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn trainable_embedding_learns_under_sgd() {
        // Minimise the norm of one embedding row; it should shrink.
        let mut rng = Prng::new(5);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "e", 10, 4, &mut rng);
        let before = store.value(emb.table()).row(3).to_vec();
        for _ in 0..20 {
            store.zero_grad();
            let mut g = Graph::new(&mut store, true, 0);
            let out = emb.forward(&mut g, &[3], 1, 1);
            let sq = g.mul(out, out);
            let loss = g.mean_all(sq);
            g.backward(loss);
            let grad = store.grad(emb.table()).unwrap().clone();
            store.get_mut(emb.table()).value.axpy(-0.5, &grad);
        }
        let after_norm: f32 = store.value(emb.table()).row(3).iter().map(|x| x * x).sum();
        let before_norm: f32 = before.iter().map(|x| x * x).sum();
        assert!(after_norm < before_norm * 0.5);
        // Untouched rows unchanged.
        let row0: f32 = store.grad(emb.table()).unwrap().row(0).iter().sum();
        assert_eq!(row0, 0.0);
    }

    #[test]
    fn helper_tensor_row_matches_lookup() {
        let mut store = ParamStore::new();
        let emb = Embedding::frozen_pretrained(&mut store, "bert", 8, 3, 2);
        let table = store.value(emb.table()).clone();
        let mut g = Graph::new(&mut store, false, 0);
        let out = emb.forward(&mut g, &[5], 1, 1);
        let looked: Vec<f32> = g.value(out).data().to_vec();
        assert_eq!(looked, table.row(5).to_vec());
        let _ = Tensor::from_vec(looked); // silence unused import in some cfgs
    }
}
