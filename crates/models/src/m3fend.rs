//! M3FEND — Memory-guided Multi-view Multi-domain Fake News Detection
//! (Zhu et al., 2022).
//!
//! M3FEND builds a multi-view representation (semantic / emotion / style),
//! uses a per-domain *memory bank* to infer a soft (fuzzy) domain label for
//! each item, and aggregates per-domain adapters weighted by that soft label.
//! It is the stronger of the two clean teachers used by DTDBD.

use crate::codec::{ByteReader, ByteWriter};
use crate::config::ModelConfig;
use crate::side_state::{SideState, SideStateError};
use crate::traits::{FakeNewsModel, ModelOutput};
use dtdbd_data::Batch;
use dtdbd_nn::moe::mix_with_weights;
use dtdbd_nn::{
    Activation, DomainMemoryBank, Embedding, Linear, MemorySnapshot, Mlp, TextCnnEncoder,
};
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::{Graph, ParamStore, Var};
use std::cell::RefCell;

/// M3FEND: multi-view representation + domain memory bank + domain adapters.
#[derive(Debug, Clone)]
pub struct M3Fend {
    config: ModelConfig,
    embedding: Embedding,
    semantic: TextCnnEncoder,
    emotion_view: Mlp,
    style_view: Mlp,
    adapters: Vec<Linear>,
    classifier: Linear,
    memory: RefCell<DomainMemoryBank>,
}

impl M3Fend {
    /// Build M3FEND.
    pub fn new(store: &mut ParamStore, config: &ModelConfig, rng: &mut Prng) -> Self {
        let embedding = crate::pretrained::pretrained_embedding(
            store,
            "M3FEND.encoder",
            &config.vocab,
            config.emb_dim,
            config.emb_seed,
        );
        let semantic = TextCnnEncoder::new(
            store,
            "M3FEND.semantic",
            config.emb_dim,
            config.hidden,
            &[1, 2, 3, 5],
            rng,
        );
        let emotion_view = Mlp::new(
            store,
            "M3FEND.emotion",
            &[config.emotion_dim, config.hidden],
            Activation::Relu,
            0.0,
            rng,
        );
        let style_view = Mlp::new(
            store,
            "M3FEND.style",
            &[config.style_dim, config.hidden],
            Activation::Relu,
            0.0,
            rng,
        );
        let view_dim = semantic.out_dim() + 2 * config.hidden;
        let adapters = (0..config.n_domains)
            .map(|d| {
                Linear::new(
                    store,
                    &format!("M3FEND.adapter{d}"),
                    view_dim,
                    config.feature_dim,
                    rng,
                )
            })
            .collect();
        let classifier = Linear::new(store, "M3FEND.classifier", config.feature_dim, 2, rng);
        // The memory clusters items by their pooled pre-trained embedding,
        // which is parameter-free and thus stable over training.
        let memory = RefCell::new(DomainMemoryBank::new(
            config.n_domains,
            config.emb_dim,
            0.9,
            2.0,
        ));
        Self {
            config: config.clone(),
            embedding,
            semantic,
            emotion_view,
            style_view,
            adapters,
            classifier,
            memory,
        }
    }

    /// Tag of the memory-bank chunk in this model's [`SideState`].
    pub const MEMORY_TAG: &'static str = "m3fend.memory";

    /// Soft (fuzzy) domain distribution for a batch, from the memory bank.
    pub fn soft_domains(&self, g: &mut Graph<'_>, pooled_embedding: Var) -> Var {
        let pooled = g.value(pooled_embedding).clone();
        self.memory.borrow().soft_domains_var(g, &pooled)
    }

    /// Number of samples each memory slot has absorbed (diagnostics).
    pub fn memory_counts(&self) -> Vec<usize> {
        self.memory.borrow().counts().to_vec()
    }

    /// Plain-data snapshot of the domain memory bank (what the side-state
    /// chunk serializes; tests compare it field-for-field across restores).
    pub fn memory_snapshot(&self) -> MemorySnapshot {
        self.memory.borrow().snapshot()
    }

    fn memory_malformed(detail: impl Into<String>) -> SideStateError {
        SideStateError::Malformed {
            tag: Self::MEMORY_TAG.to_string(),
            detail: detail.into(),
        }
    }
}

impl FakeNewsModel for M3Fend {
    fn name(&self) -> &'static str {
        "M3FEND"
    }

    fn config(&self) -> &ModelConfig {
        &self.config
    }

    fn uses_domain_labels(&self) -> bool {
        true
    }

    /// The memory bank is trained state *outside* the `ParamStore`: EMA slot
    /// vectors, per-slot counts and the EMA hyper-parameters. A parameter
    /// checkpoint alone would restore an M3FEND with an empty memory — a
    /// different model. The chunk layout (little-endian, `f32` as raw bit
    /// patterns): `u64 n_domains, u64 dim, f32 momentum, f32 temperature,
    /// u64 slot_count, f32 slots[slot_count], u64 count_count,
    /// u64 counts[count_count]`.
    fn export_side_state(&self) -> SideState {
        let snapshot = self.memory.borrow().snapshot();
        let mut w = ByteWriter::new();
        w.u64(snapshot.n_domains as u64);
        w.u64(snapshot.dim as u64);
        w.f32(snapshot.momentum);
        w.f32(snapshot.temperature);
        w.f32_slice(&snapshot.slots);
        w.u64(snapshot.counts.len() as u64);
        for &count in &snapshot.counts {
            w.u64(count);
        }
        let mut state = SideState::new();
        state
            .insert(Self::MEMORY_TAG, w.into_bytes())
            .expect("single unique tag");
        state
    }

    /// Restores the memory bank bit-exactly. Rejects unknown tags, a missing
    /// memory chunk, and every structural inconsistency with a typed
    /// [`SideStateError`] — checkpoint bytes are untrusted input.
    fn import_side_state(&mut self, state: &SideState) -> Result<(), SideStateError> {
        if let Some(tag) = state.tags().find(|&tag| tag != Self::MEMORY_TAG) {
            return Err(SideStateError::UnknownTag {
                tag: tag.to_string(),
                arch: self.name().to_string(),
            });
        }
        let bytes = state
            .get(Self::MEMORY_TAG)
            .ok_or_else(|| SideStateError::MissingTag {
                tag: Self::MEMORY_TAG.to_string(),
                arch: self.name().to_string(),
            })?;
        let mut r = ByteReader::new(bytes);
        let codec = |e: crate::codec::CodecError| Self::memory_malformed(e.to_string());
        let n_domains = r.u64().map_err(codec)? as usize;
        let dim = r.u64().map_err(codec)? as usize;
        let momentum = r.f32().map_err(codec)?;
        let temperature = r.f32().map_err(codec)?;
        let slots = r.f32_values().map_err(codec)?;
        let count_count = r.u64().map_err(codec)?;
        if count_count
            .checked_mul(8)
            .is_none_or(|needed| needed > r.remaining() as u64)
        {
            return Err(Self::memory_malformed(format!(
                "count list of {count_count} entries exceeds the chunk"
            )));
        }
        let mut counts = Vec::with_capacity(count_count as usize);
        for _ in 0..count_count {
            counts.push(r.u64().map_err(codec)?);
        }
        if !r.is_exhausted() {
            return Err(Self::memory_malformed(format!(
                "{} undecoded trailing bytes",
                r.remaining()
            )));
        }
        if n_domains != self.config.n_domains || dim != self.config.emb_dim {
            return Err(Self::memory_malformed(format!(
                "bank geometry [{n_domains}, {dim}] does not match the model \
                 ([{}, {}])",
                self.config.n_domains, self.config.emb_dim
            )));
        }
        let snapshot = MemorySnapshot {
            n_domains,
            dim,
            momentum,
            temperature,
            slots,
            counts,
        };
        let bank = DomainMemoryBank::from_snapshot(&snapshot)
            .map_err(|e| Self::memory_malformed(e.detail().to_string()))?;
        self.memory.replace(bank);
        Ok(())
    }

    fn forward(&self, g: &mut Graph<'_>, batch: &Batch) -> ModelOutput {
        let embedded = self
            .embedding
            .forward(g, &batch.token_ids, batch.batch_size, batch.seq_len);
        let pooled = g.mean_over_time(embedded);

        // During training, keep the per-domain memory up to date with the
        // (parameter-free) pooled embeddings and the hard domain labels.
        if g.is_training() {
            let pooled_tensor = g.value(pooled).clone();
            self.memory
                .borrow_mut()
                .update(&pooled_tensor, &batch.domains);
        }

        // Multi-view representation.
        let sem = self.semantic.forward(g, embedded);
        let emo_in = g.constant(batch.emotion.clone());
        let emo = self.emotion_view.forward(g, emo_in);
        let emo = g.relu(emo);
        let sty_in = g.constant(batch.style.clone());
        let sty = self.style_view.forward(g, sty_in);
        let sty = g.relu(sty);
        let views = g.concat_last(&[sem, emo, sty]);
        let views = g.dropout(views, self.config.dropout);

        // Fuzzy domain label from the memory bank drives the adapters.
        let soft = self.soft_domains(g, pooled);
        let adapted: Vec<Var> = self
            .adapters
            .iter()
            .map(|a| {
                let h = a.forward(g, views);
                g.relu(h)
            })
            .collect();
        let mixed = mix_with_weights(g, soft, &adapted);
        let features = g.dropout(mixed, self.config.dropout);
        let logits = self.classifier.forward(g, features);
        ModelOutput::simple(logits, features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::test_support::{exercise_model, tiny_batch, tiny_dataset};
    use dtdbd_tensor::Graph;

    #[test]
    fn m3fend_satisfies_model_contract() {
        exercise_model(|store, cfg| M3Fend::new(store, cfg, &mut Prng::new(1)));
    }

    #[test]
    fn memory_fills_up_during_training_forwards_only() {
        let ds = tiny_dataset();
        let cfg = ModelConfig::tiny(&ds);
        let mut store = ParamStore::new();
        let model = M3Fend::new(&mut store, &cfg, &mut Prng::new(2));
        let batch = tiny_batch(&ds, 16);

        // Eval forward: memory untouched.
        {
            let mut g = Graph::new(&mut store, false, 0);
            let _ = model.forward(&mut g, &batch);
        }
        assert!(model.memory_counts().iter().all(|&c| c == 0));

        // Training forward: memory absorbs the batch.
        {
            let mut g = Graph::new(&mut store, true, 0);
            let _ = model.forward(&mut g, &batch);
        }
        let total: usize = model.memory_counts().iter().sum();
        assert_eq!(total, batch.batch_size);
    }

    #[test]
    fn side_state_round_trips_the_trained_memory_bit_exactly() {
        let ds = tiny_dataset();
        let cfg = ModelConfig::tiny(&ds);
        let mut store = ParamStore::new();
        let model = M3Fend::new(&mut store, &cfg, &mut Prng::new(7));
        let batch = tiny_batch(&ds, 16);
        // Two training forwards so slots carry real EMA mixtures (first-touch
        // copies *and* momentum blends).
        for step in 0..2 {
            let mut g = Graph::new(&mut store, true, step);
            let _ = model.forward(&mut g, &batch);
        }
        let saved = model.memory_snapshot();
        assert!(saved.counts.iter().any(|&c| c > 1), "EMA path exercised");

        let exported = model.export_side_state();
        assert!(exported.get(M3Fend::MEMORY_TAG).is_some());

        let mut store2 = ParamStore::new();
        let mut restored = M3Fend::new(&mut store2, &cfg, &mut Prng::new(99));
        assert!(restored.memory_counts().iter().all(|&c| c == 0));
        restored.import_side_state(&exported).unwrap();
        let got = restored.memory_snapshot();
        assert_eq!(got.n_domains, saved.n_domains);
        assert_eq!(got.dim, saved.dim);
        assert_eq!(got.momentum.to_bits(), saved.momentum.to_bits());
        assert_eq!(got.temperature.to_bits(), saved.temperature.to_bits());
        assert_eq!(got.counts, saved.counts);
        for (a, b) in got.slots.iter().zip(&saved.slots) {
            assert_eq!(a.to_bits(), b.to_bits(), "slots must restore bit-exactly");
        }
        assert_eq!(restored.export_side_state(), exported, "re-export identity");
    }

    #[test]
    fn side_state_rejects_unknown_missing_and_malformed_chunks() {
        let ds = tiny_dataset();
        let cfg = ModelConfig::tiny(&ds);
        let mut store = ParamStore::new();
        let mut model = M3Fend::new(&mut store, &cfg, &mut Prng::new(8));
        let exported = model.export_side_state();
        let memory_bytes = exported.get(M3Fend::MEMORY_TAG).unwrap().to_vec();

        // Unknown tag alongside the real one.
        let mut unknown = exported.clone();
        unknown.insert("m3fend.future", vec![1, 2, 3]).unwrap();
        assert!(matches!(
            model.import_side_state(&unknown),
            Err(SideStateError::UnknownTag { .. })
        ));

        // Missing memory chunk entirely.
        assert!(matches!(
            model.import_side_state(&SideState::new()),
            Err(SideStateError::MissingTag { .. })
        ));

        // Truncated chunk bytes at every prefix must be typed errors.
        for cut in 0..memory_bytes.len() {
            let mut state = SideState::new();
            state
                .insert(M3Fend::MEMORY_TAG, memory_bytes[..cut].to_vec())
                .unwrap();
            assert!(
                matches!(
                    model.import_side_state(&state),
                    Err(SideStateError::Malformed { .. })
                ),
                "truncation to {cut} bytes must be rejected"
            );
        }

        // Trailing garbage after a valid chunk.
        let mut grown = memory_bytes.clone();
        grown.push(0);
        let mut state = SideState::new();
        state.insert(M3Fend::MEMORY_TAG, grown).unwrap();
        assert!(matches!(
            model.import_side_state(&state),
            Err(SideStateError::Malformed { .. })
        ));

        // Geometry from a different corpus (n_domains rewritten in place).
        let mut wrong_geometry = memory_bytes.clone();
        wrong_geometry[..8].copy_from_slice(&(cfg.n_domains as u64 + 1).to_le_bytes());
        let mut state = SideState::new();
        state.insert(M3Fend::MEMORY_TAG, wrong_geometry).unwrap();
        assert!(matches!(
            model.import_side_state(&state),
            Err(SideStateError::Malformed { .. })
        ));

        // After all those rejections the model still imports a good state.
        model.import_side_state(&exported).unwrap();
    }

    #[test]
    fn soft_domain_labels_are_distributions() {
        let ds = tiny_dataset();
        let cfg = ModelConfig::tiny(&ds);
        let mut store = ParamStore::new();
        let model = M3Fend::new(&mut store, &cfg, &mut Prng::new(3));
        let batch = tiny_batch(&ds, 12);
        // Warm the memory.
        {
            let mut g = Graph::new(&mut store, true, 0);
            let _ = model.forward(&mut g, &batch);
        }
        let mut g = Graph::new(&mut store, false, 0);
        let embedded =
            model
                .embedding
                .forward(&mut g, &batch.token_ids, batch.batch_size, batch.seq_len);
        let pooled = g.mean_over_time(embedded);
        let soft = model.soft_domains(&mut g, pooled);
        let v = g.value(soft);
        assert_eq!(v.shape(), &[batch.batch_size, cfg.n_domains]);
        for i in 0..batch.batch_size {
            let s: f32 = v.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }
}
