//! Tape-free inference sessions.
//!
//! An [`InferenceSession`] bundles everything one worker needs to answer
//! prediction requests: the model, its parameters, a warm [`BufferPool`] of
//! scratch buffers, and a [`RequestEncoder`] matching the corpus geometry.
//! Each call runs the model's own [`FakeNewsModel::forward`] on a tape-free
//! [`Graph::inference`] graph — no autograd bookkeeping, and after the first
//! call no activation allocation — and reads the per-item [`Prediction`]s
//! straight out of the graph's logits and domain logits.

use crate::checkpoint::{Checkpoint, CheckpointError};
use dtdbd_data::{Batch, EncodedRequest, RequestEncoder};
use dtdbd_models::{FakeNewsModel, ModelConfig};
use dtdbd_tensor::{BufferPool, Graph, KernelTimers, ParamStore};
use std::sync::Arc;

/// Per-item serving result.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Probability that the item is fake (softmax over the two classes).
    pub fake_prob: f32,
    /// Raw classification logits `[real, fake]`.
    pub logits: [f32; 2],
    /// Softmax domain scores, for models with a domain branch.
    pub domain_scores: Option<Vec<f32>>,
}

impl Prediction {
    /// Hard label under a 0.5 threshold.
    pub fn is_fake(&self) -> bool {
        self.fake_prob >= 0.5
    }
}

/// A ready-to-serve model: parameters, scratch memory and request encoding.
pub struct InferenceSession<M> {
    model: M,
    store: ParamStore,
    pool: BufferPool,
    encoder: RequestEncoder,
    requests_served: u64,
    /// Optional per-kernel duration sink threaded into every forward pass
    /// (the serving telemetry registry). `None` keeps the kernels free of
    /// clock reads; the sink never changes prediction bits either way.
    kernel_timers: Option<Arc<dyn KernelTimers>>,
}

impl<M: FakeNewsModel> InferenceSession<M> {
    /// Wrap a live model and its parameter store.
    pub fn new(model: M, store: ParamStore) -> Self {
        let config = model.config();
        let encoder = RequestEncoder::new(config.vocab_size, config.seq_len, config.n_domains);
        Self {
            model,
            store,
            pool: BufferPool::new(),
            encoder,
            requests_served: 0,
            kernel_timers: None,
        }
    }

    /// Report per-kernel forward-pass durations into `sink` (`None` turns
    /// the hooks back off). Observation only: predictions stay bit-identical
    /// with or without a sink.
    pub fn set_kernel_timers(&mut self, sink: Option<Arc<dyn KernelTimers>>) {
        self.kernel_timers = sink;
    }

    /// Rebuild a model from a checkpoint: `build` constructs the
    /// architecture (registering randomly initialised parameters in a fresh
    /// store, exactly as at training time), the checkpoint's values are
    /// restored over them with a full layout check, and the checkpoint's
    /// side state is imported into the model — so state outside the store
    /// (M3FEND's domain memory bank) is restored too. A side state the
    /// model refuses (unknown tag, missing required chunk, malformed body)
    /// is a typed [`CheckpointError::SideState`], never a silently
    /// half-restored model.
    pub fn from_checkpoint<F>(checkpoint: &Checkpoint, build: F) -> Result<Self, CheckpointError>
    where
        F: FnOnce(&mut ParamStore, &ModelConfig) -> M,
    {
        let mut store = ParamStore::new();
        let mut model = build(&mut store, &checkpoint.config);
        checkpoint.restore_into(&mut store)?;
        // Container-level chunks (the `telemetry.` namespace, e.g. the drift
        // baseline) are stripped first: models keep their loud unknown-tag
        // contract for everything that is actually theirs.
        model
            .import_side_state(&checkpoint.side_state.model_chunks())
            .map_err(CheckpointError::SideState)?;
        Ok(Self::new(model, store))
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The request encoder matching this model's corpus geometry.
    pub fn encoder(&self) -> &RequestEncoder {
        &self.encoder
    }

    /// Number of items served so far.
    pub fn requests_served(&self) -> u64 {
        self.requests_served
    }

    /// Scratch-pool statistics `(reuse_hits, alloc_misses)` — after the
    /// first request, `alloc_misses` stops growing.
    pub fn pool_stats(&self) -> (u64, u64) {
        (self.pool.reuse_hits(), self.pool.alloc_misses())
    }

    /// Bytes of parameter values resident in this session's private store.
    pub fn resident_param_bytes(&self) -> u64 {
        self.store.num_scalars() as u64 * std::mem::size_of::<f32>() as u64
    }

    /// Run tape-free inference on a pre-assembled batch.
    pub fn predict_batch(&mut self, batch: &Batch) -> Vec<Prediction> {
        let mut g = Graph::inference(&mut self.store, &mut self.pool);
        g.set_kernel_timers(self.kernel_timers.clone());
        let out = self.model.forward(&mut g, batch);
        let logits = g.value(out.logits);
        let probs = logits.softmax_rows();
        let domain_scores = out.domain_logits.map(|d| g.value(d).softmax_rows());
        let predictions = (0..batch.batch_size)
            .map(|i| Prediction {
                fake_prob: probs.at2(i, 1),
                logits: [logits.at2(i, 0), logits.at2(i, 1)],
                domain_scores: domain_scores.as_ref().map(|scores| scores.row(i).to_vec()),
            })
            .collect();
        g.finish();
        self.requests_served += batch.batch_size as u64;
        predictions
    }

    /// Coalesce encoded requests into one batch and predict them all.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn predict_requests(&mut self, requests: &[EncodedRequest]) -> Vec<Prediction> {
        let batch = self.encoder.batch(requests);
        self.predict_batch(&batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtdbd_data::{weibo21_spec, BatchIter, GeneratorConfig, InferenceRequest, NewsGenerator};
    use dtdbd_models::TextCnnModel;
    use dtdbd_tensor::rng::Prng;

    fn session() -> (
        InferenceSession<TextCnnModel>,
        dtdbd_data::MultiDomainDataset,
    ) {
        let ds =
            NewsGenerator::new(weibo21_spec(), GeneratorConfig::tiny()).generate_scaled(5, 0.02);
        let cfg = ModelConfig::tiny(&ds);
        let mut store = ParamStore::new();
        let model = TextCnnModel::student(&mut store, &cfg, &mut Prng::new(1));
        (InferenceSession::new(model, store), ds)
    }

    #[test]
    fn predictions_are_probabilities_and_counted() {
        let (mut session, ds) = session();
        let batch = BatchIter::new(&ds, 16, 0, false).next().unwrap();
        let preds = session.predict_batch(&batch);
        assert_eq!(preds.len(), batch.batch_size);
        for p in &preds {
            assert!((0.0..=1.0).contains(&p.fake_prob));
            assert!(p.logits.iter().all(|l| l.is_finite()));
            assert!(p.domain_scores.is_none(), "TextCNN has no domain branch");
        }
        assert_eq!(session.requests_served(), batch.batch_size as u64);
    }

    #[test]
    fn pool_warms_up_after_the_first_batch() {
        let (mut session, ds) = session();
        let batch = BatchIter::new(&ds, 8, 0, false).next().unwrap();
        session.predict_batch(&batch);
        let (_, misses_after_first) = session.pool_stats();
        session.predict_batch(&batch);
        session.predict_batch(&batch);
        let (hits, misses) = session.pool_stats();
        assert_eq!(misses, misses_after_first, "steady state allocates nothing");
        assert!(hits > 0);
    }

    #[test]
    fn single_requests_round_trip_through_the_encoder() {
        let (mut session, ds) = session();
        let item = &ds.items()[0];
        let encoded = session
            .encoder()
            .encode(&InferenceRequest::new(item.tokens.clone(), item.domain))
            .unwrap();
        let preds = session.predict_requests(&[encoded]);
        assert_eq!(preds.len(), 1);
        assert!((0.0..=1.0).contains(&preds[0].fake_prob));
    }
}
