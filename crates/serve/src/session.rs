//! Tape-free inference sessions.
//!
//! An [`InferenceSession`] bundles everything one worker needs to answer
//! prediction requests: the model, its parameters, a warm [`BufferPool`] of
//! scratch buffers, and a [`RequestEncoder`] matching the corpus geometry.
//! Each call runs the model's tape-free [`FakeNewsModel::infer`] path — no
//! autograd bookkeeping, and after the first call no activation allocation —
//! and maps the batch outputs back to per-item [`Prediction`]s.

use crate::checkpoint::{Checkpoint, CheckpointError};
use dtdbd_data::{Batch, EncodedRequest, RequestEncoder};
use dtdbd_models::{FakeNewsModel, InferOptions, ModelConfig};
use dtdbd_tensor::{
    BufferPool, KernelTimers, ParamId, ParamStore, Precision, QuantizedMatrix, QuantizedParams,
    Tensor,
};
use std::cmp::Ordering;
use std::sync::Arc;

/// The dominant-table rule int8 quantization uses to find the frozen
/// embedding table: the larger element count wins, and on equal counts the
/// lexicographically smallest parameter name, so the choice never depends
/// on `ParamStore` insertion order.
fn dominant_table_rank(a: (usize, &str), b: (usize, &str)) -> Ordering {
    a.0.cmp(&b.0).then_with(|| b.1.cmp(a.1))
}

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
    threads: usize,
    /// Optional per-kernel duration sink threaded into every forward pass
    /// (the serving telemetry registry). `None` keeps the kernels free of
    /// clock reads; the sink never changes prediction bits either way.
    kernel_timers: Option<Arc<dyn KernelTimers>>,
    /// Inference precision. [`Precision::Int8`] after a successful
    /// [`InferenceSession::quantize`]; [`Precision::Fp32`] otherwise.
    precision: Precision,
    /// Int8 registry built by [`InferenceSession::quantize`]: the quantized
    /// forms of every quantizable weight and of the frozen embedding table,
    /// threaded into each forward pass.
    quantized: Option<Arc<QuantizedParams>>,
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
            threads: 1,
            kernel_timers: None,
            precision: Precision::Fp32,
            quantized: None,
        }
    }

    /// Set the intra-op thread count the compute kernels may use per forward
    /// pass (clamped to at least 1). Predictions are bit-identical at any
    /// setting; the knob only changes throughput.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Intra-op thread count of this session's forward passes.
    pub fn threads(&self) -> usize {
        self.threads
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

    /// Bytes of parameter values resident in this session's private store,
    /// plus — after [`InferenceSession::quantize`] — the int8 registry.
    pub fn resident_param_bytes(&self) -> u64 {
        self.store.num_scalars() as u64 * std::mem::size_of::<f32>() as u64 + self.quantized_bytes()
    }

    /// Inference precision of this session's forward passes.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Bytes of int8 matrices (codes + per-row scales) resident in this
    /// session, the embedding table included; zero before
    /// [`InferenceSession::quantize`].
    pub fn quantized_bytes(&self) -> u64 {
        self.quantized.as_ref().map_or(0, |q| q.bytes())
    }

    /// Quantize this session to the given precision. [`Precision::Fp32`] is
    /// the identity. [`Precision::Int8`] rewrites every quantizable weight
    /// (linear/conv matrices, marked by the layers that registered them)
    /// and the frozen embedding table (the largest non-trainable 2-D
    /// parameter with vocabulary rows) into per-row int8 + scale form in
    /// one [`QuantizedParams`] registry, and drops the f32 originals to
    /// empty stubs.
    ///
    /// Subsequent forward passes run the fused quantize → i32 GEMM →
    /// dequantize kernel and gather `code × row_scale` embedding rows:
    /// predictions differ from f32 within quantization error but are
    /// bit-identical to themselves at any thread count.
    ///
    /// Fails with [`ConfigError::NoQuantizableParams`] when the model has
    /// neither a quantizable weight nor a frozen embedding table — an int8
    /// deployment of such an arch would silently serve f32.
    pub fn quantize(&mut self, precision: Precision) -> Result<(), crate::builder::ConfigError> {
        use crate::builder::ConfigError;
        if precision == Precision::Fp32 {
            return Ok(());
        }
        let vocab_rows = self.model.config().vocab_size;
        let table_id = self
            .store
            .iter()
            .filter(|(_, p)| {
                !p.trainable && p.value.ndim() == 2 && p.value.shape()[0] == vocab_rows
            })
            .max_by(|(_, a), (_, b)| {
                dominant_table_rank((a.value.numel(), &a.name), (b.value.numel(), &b.name))
            })
            .map(|(id, _)| id);
        let mut registry = QuantizedParams::new();
        let mut stubs: Vec<(ParamId, Vec<usize>)> = Vec::new();
        for (id, p) in self.store.iter() {
            let matrix = if Some(id) == table_id {
                let (rows, dim) = (p.value.shape()[0], p.value.shape()[1]);
                QuantizedMatrix::from_rows(rows, dim, p.value.data())
            } else if !p.quantizable {
                continue;
            } else {
                match p.value.ndim() {
                    2 => QuantizedMatrix::from_linear(&p.value),
                    3 => QuantizedMatrix::from_conv(&p.value),
                    _ => continue,
                }
            };
            registry.insert(id, Arc::new(matrix));
            let mut stub = p.value.shape().to_vec();
            stub[0] = 0;
            stubs.push((id, stub));
        }
        if registry.is_empty() {
            return Err(ConfigError::NoQuantizableParams {
                arch: self.model.name().to_string(),
            });
        }
        for (id, stub) in stubs {
            self.store.get_mut(id).value = Tensor::zeros(&stub);
        }
        self.quantized = Some(Arc::new(registry));
        self.precision = Precision::Int8;
        Ok(())
    }

    /// Run tape-free inference on a pre-assembled batch.
    pub fn predict_batch(&mut self, batch: &Batch) -> Vec<Prediction> {
        let opts = InferOptions {
            threads: self.threads,
            kernel_timers: self.kernel_timers.clone(),
            quantized: self.quantized.clone(),
        };
        let output = self
            .model
            .infer_with_opts(&mut self.store, &mut self.pool, batch, &opts);
        self.requests_served += batch.batch_size as u64;
        let probs = output.logits.softmax_rows();
        let domain_scores = output.domain_scores();
        (0..batch.batch_size)
            .map(|i| Prediction {
                fake_prob: probs.at2(i, 1),
                logits: [output.logits.at2(i, 0), output.logits.at2(i, 1)],
                domain_scores: domain_scores.as_ref().map(|scores| scores.row(i).to_vec()),
            })
            .collect()
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
    fn tied_tables_resolve_by_name_not_insertion_order() {
        assert_eq!(
            dominant_table_rank((400, "alpha.table"), (400, "omega.table")),
            Ordering::Greater
        );
        assert_eq!(
            dominant_table_rank((400, "omega.table"), (400, "alpha.table")),
            Ordering::Less
        );
        // Size decides first.
        assert_eq!(
            dominant_table_rank((401, "omega.table"), (400, "alpha.table")),
            Ordering::Greater
        );
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
