//! The common interface every fake-news detection model implements.

use crate::config::ModelConfig;
use crate::side_state::{SideState, SideStateError};
use dtdbd_data::Batch;
use dtdbd_tensor::{Graph, Tensor, Var};

/// Result of a model forward pass.
#[derive(Debug, Clone, Copy)]
pub struct ModelOutput {
    /// Classification logits `[batch, 2]` (real / fake).
    pub logits: Var,
    /// The intermediate feature `[batch, feature_dim]` used for feature
    /// distillation (Eq. 5) and for the t-SNE visualisation (Figure 2).
    pub features: Var,
    /// Domain-classifier logits `[batch, n_domains]` for models with a
    /// domain-adversarial branch (EANN, EDDFN, the unbiased teacher).
    pub domain_logits: Option<Var>,
    /// Optional auxiliary loss already reduced to a scalar (e.g. EDDFN's
    /// reconstruction term); added to the training objective with weight 1.
    pub aux_loss: Option<Var>,
}

impl ModelOutput {
    /// A plain output with logits and features only.
    pub fn simple(logits: Var, features: Var) -> Self {
        Self {
            logits,
            features,
            domain_logits: None,
            aux_loss: None,
        }
    }
}

/// A multi-domain fake news detection model.
pub trait FakeNewsModel {
    /// Short name used in result tables (matches the paper's rows).
    fn name(&self) -> &'static str;

    /// The configuration the model was built with.
    fn config(&self) -> &ModelConfig;

    /// Run the model on a batch, recording ops on the supplied graph.
    fn forward(&self, g: &mut Graph<'_>, batch: &Batch) -> ModelOutput;

    /// Whether the model consumes the hard domain labels as an *input*
    /// (MDFEND's domain gate, M3FEND's memory). The paper highlights that
    /// only EANN, EDDFN, MDFEND and M3FEND use domain labels.
    fn uses_domain_labels(&self) -> bool {
        false
    }

    /// Weight of the domain-classification cross-entropy added to the
    /// training loss when `domain_logits` is produced (α in Eq. 11).
    fn domain_loss_weight(&self) -> f32 {
        0.0
    }

    /// Hook called by trainers after each optimization step with the batch's
    /// detached features; used by M3FEND to update its domain memory bank.
    fn post_batch(&mut self, _features: &Tensor, _domains: &[usize]) {}

    /// Dimension of the feature vector returned in [`ModelOutput::features`].
    fn feature_dim(&self) -> usize {
        self.config().feature_dim
    }

    /// Export every piece of trained state that lives *outside* the
    /// `ParamStore` as tagged opaque chunks (e.g. M3FEND's domain memory
    /// bank). The default is empty: most of the zoo is fully described by
    /// its parameters. Checkpoint writers persist this alongside the
    /// parameters; the export must satisfy the round-trip identity
    /// `import_side_state(&export_side_state())` followed by
    /// `export_side_state()` reproducing the same bytes.
    fn export_side_state(&self) -> SideState {
        SideState::new()
    }

    /// Restore previously exported side state. The default accepts only an
    /// empty state and answers any tagged chunk with
    /// [`SideStateError::UnknownTag`] — a model without side state must
    /// refuse, loudly, to load a checkpoint that carries some, because
    /// accepting it would silently drop trained state.
    fn import_side_state(&mut self, state: &SideState) -> Result<(), SideStateError> {
        match state.tags().next() {
            None => Ok(()),
            Some(tag) => Err(SideStateError::UnknownTag {
                tag: tag.to_string(),
                arch: self.name().to_string(),
            }),
        }
    }
}

impl<T: FakeNewsModel + ?Sized> FakeNewsModel for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn config(&self) -> &ModelConfig {
        (**self).config()
    }

    fn forward(&self, g: &mut Graph<'_>, batch: &Batch) -> ModelOutput {
        (**self).forward(g, batch)
    }

    fn uses_domain_labels(&self) -> bool {
        (**self).uses_domain_labels()
    }

    fn domain_loss_weight(&self) -> f32 {
        (**self).domain_loss_weight()
    }

    fn post_batch(&mut self, features: &Tensor, domains: &[usize]) {
        (**self).post_batch(features, domains);
    }

    fn feature_dim(&self) -> usize {
        (**self).feature_dim()
    }

    fn export_side_state(&self) -> SideState {
        (**self).export_side_state()
    }

    fn import_side_state(&mut self, state: &SideState) -> Result<(), SideStateError> {
        (**self).import_side_state(state)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared helpers for the model unit tests.

    use super::*;
    use dtdbd_data::{weibo21_spec, BatchIter, GeneratorConfig, MultiDomainDataset, NewsGenerator};
    use dtdbd_tensor::optim::Adam;
    use dtdbd_tensor::{BufferPool, ParamStore};

    /// A small Weibo21-like dataset shared by model tests.
    pub fn tiny_dataset() -> MultiDomainDataset {
        NewsGenerator::new(weibo21_spec(), GeneratorConfig::tiny()).generate_scaled(13, 0.03)
    }

    /// First batch of the dataset.
    pub fn tiny_batch(ds: &MultiDomainDataset, batch_size: usize) -> Batch {
        BatchIter::new(ds, batch_size, 5, false)
            .next()
            .expect("non-empty dataset")
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Logits of one tape-free [`Graph::inference`] pass over `batch`.
    fn inference_logits<M: FakeNewsModel>(
        model: &M,
        store: &mut ParamStore,
        pool: &mut BufferPool,
        batch: &Batch,
    ) -> Tensor {
        let mut g = Graph::inference(store, pool);
        let out = model.forward(&mut g, batch);
        let logits = g.value(out.logits).clone();
        g.finish();
        logits
    }

    /// Checks every contract of the `FakeNewsModel` interface on one batch:
    /// output shapes, finite values, gradient flow, that a few Adam steps
    /// reduce the training loss, and that evaluation-mode outputs are
    /// row-independent.
    pub fn exercise_model<M, F>(build: F)
    where
        M: FakeNewsModel,
        F: Fn(&mut ParamStore, &ModelConfig) -> M,
    {
        let ds = tiny_dataset();
        let cfg = ModelConfig::tiny(&ds);
        let mut store = ParamStore::new();
        let mut model = build(&mut store, &cfg);
        let batch = tiny_batch(&ds, 16);

        // Shape contract.
        let tape_logits = {
            let mut g = Graph::new(&mut store, false, 0);
            let out = model.forward(&mut g, &batch);
            assert_eq!(g.value(out.logits).shape(), &[batch.batch_size, 2]);
            assert_eq!(
                g.value(out.features).shape(),
                &[batch.batch_size, model.feature_dim()],
                "{} feature shape",
                model.name()
            );
            if let Some(d) = out.domain_logits {
                assert_eq!(g.value(d).shape(), &[batch.batch_size, cfg.n_domains]);
            }
            assert!(!g.value(out.logits).has_non_finite());
            g.value(out.logits).clone()
        };

        // Inference contract: a tape-free [`Graph::inference`] pass
        // reproduces the evaluation forward pass for every model family, and
        // a second pass on the warmed pool allocates nothing.
        {
            let mut pool = BufferPool::new();
            let inferred = inference_logits(&model, &mut store, &mut pool, &batch);
            assert_eq!(inferred.shape(), tape_logits.shape());
            for (a, b) in inferred.data().iter().zip(tape_logits.data()) {
                assert!(
                    (a - b).abs() <= 1e-6,
                    "{}: tape-free logits diverge ({a} vs {b})",
                    model.name()
                );
            }
            let misses = pool.alloc_misses();
            let again = inference_logits(&model, &mut store, &mut pool, &batch);
            assert_eq!(again.data(), inferred.data());
            assert_eq!(
                pool.alloc_misses(),
                misses,
                "{}: steady-state inference must not allocate fresh buffers",
                model.name()
            );
        }

        // Training contract: the *classification* loss decreases over a few
        // steps on one batch. (The full objective of adversarial models is a
        // min-max game and need not decrease monotonically.)
        let mut opt = Adam::new(5e-3);
        let mut first = None;
        let mut last = 0.0;
        for step in 0..12 {
            store.zero_grad();
            let mut g = Graph::new(&mut store, true, step);
            let out = model.forward(&mut g, &batch);
            let ce = g.cross_entropy_logits(out.logits, &batch.labels);
            let mut loss = ce;
            if let Some(domain_logits) = out.domain_logits {
                let dl = g.cross_entropy_logits(domain_logits, &batch.domains);
                let weighted = g.scale(dl, model.domain_loss_weight());
                loss = g.add(loss, weighted);
            }
            if let Some(aux) = out.aux_loss {
                loss = g.add(loss, aux);
            }
            let value = g.value(ce).item();
            if first.is_none() {
                first = Some(value);
            }
            last = value;
            g.backward(loss);
            let feats = g.value(out.features).clone();
            drop(g);
            opt.step(&mut store);
            model.post_batch(&feats, &batch.domains);
        }
        let first = first.unwrap();
        assert!(
            last < first,
            "{}: loss should decrease ({first} -> {last})",
            model.name()
        );
        assert!(last.is_finite());

        // Row-independence contract, on the trained model (so M3FEND's
        // memory bank is populated): an item's evaluation-mode outputs do
        // not depend on which other items share its batch. Frozen-teacher
        // caching, batched serving and the prediction cache all rest on it.
        {
            let mut g = Graph::new(&mut store, false, 0);
            let out = model.forward(&mut g, &batch);
            let logits = g.value(out.logits).clone();
            let features = g.value(out.features).clone();
            drop(g);
            for (row, &idx) in batch.indices.iter().enumerate() {
                let single = Batch::from_items(&[&ds.items()[idx]], vec![idx], ds.seq_len());
                let mut g = Graph::new(&mut store, false, 0);
                let out = model.forward(&mut g, &single);
                assert_eq!(
                    bits(g.value(out.logits).data()),
                    bits(logits.row(row)),
                    "{}: logits of item {row} alone differ from its batch row",
                    model.name()
                );
                assert_eq!(
                    bits(g.value(out.features).data()),
                    bits(features.row(row)),
                    "{}: features of item {row} alone differ from its batch row",
                    model.name()
                );
            }
        }

        // Side-state contract: exporting the (possibly trained) off-store
        // state and importing it into a freshly built twin must round-trip —
        // the twin re-exports byte-identical chunks and, with the parameter
        // values copied over, predicts bit-identically. For purely
        // parametric models this degenerates to the empty-state identity.
        {
            let exported = model.export_side_state();
            let mut twin_store = ParamStore::new();
            let mut twin = build(&mut twin_store, &cfg);
            twin.import_side_state(&exported).unwrap_or_else(|e| {
                panic!("{}: import of its own export failed: {e}", model.name())
            });
            assert_eq!(
                twin.export_side_state(),
                exported,
                "{}: export -> import -> export must be the identity",
                model.name()
            );
            twin_store.copy_values_from(&store);
            let mut pool = BufferPool::new();
            let original = inference_logits(&model, &mut store, &mut pool, &batch);
            let restored = inference_logits(&twin, &mut twin_store, &mut pool, &batch);
            for (a, b) in original.data().iter().zip(restored.data()) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{}: side-state restored twin diverged",
                    model.name()
                );
            }
        }
    }
}
