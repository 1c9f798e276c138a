//! Domain-adversarial training of the unbiased teacher (paper Eq. 7–11).
//!
//! The unbiased teacher shares the student's architecture (Sec. V-B): it is a
//! student network wrapped with a gradient-reversal domain classifier and
//! trained with either
//!
//! * **DAT** — `L_CE(y) + α · L_CE(domain)` through the reversal layer, or
//! * **DAT-IE** — DAT plus the information-entropy regularizer
//!   `β · L_IE` with `β = 0.2 α` (Eq. 11), which keeps the encoder from
//!   taking the "most-relevant-domain shortcut" the paper describes.

use crate::trainer::{train_model, TrainConfig, TrainReport};
use dtdbd_data::{Batch, MultiDomainDataset};
use dtdbd_models::{FakeNewsModel, ModelConfig, ModelOutput, SideState, SideStateError};
use dtdbd_nn::DomainAdversary;
use dtdbd_tensor::losses::information_entropy_loss;
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::{Graph, ParamStore, Tensor};

/// Which adversarial objective to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatMode {
    /// Classic domain-adversarial training.
    Dat,
    /// Domain-adversarial training with the information-entropy loss
    /// (the paper's proposal, Table IX).
    DatIe,
}

/// Configuration of unbiased-teacher training.
#[derive(Debug, Clone)]
pub struct DatConfig {
    /// Weight α of the (reversed) domain classification loss.
    pub alpha: f32,
    /// Objective variant.
    pub mode: DatMode,
    /// Underlying supervised-training configuration.
    pub train: TrainConfig,
}

impl Default for DatConfig {
    fn default() -> Self {
        Self {
            alpha: 1.0,
            mode: DatMode::DatIe,
            train: TrainConfig::default(),
        }
    }
}

impl DatConfig {
    /// β = 0.2 α, as set in the paper.
    pub fn beta(&self) -> f32 {
        0.2 * self.alpha
    }
}

/// A student-architecture network wrapped with a gradient-reversal domain
/// classifier — the unbiased teacher before/after DAT(-IE) training.
///
/// The wrapper implements [`FakeNewsModel`], so the generic trainer adds the
/// α-weighted domain loss automatically; the IE regularizer is attached as an
/// auxiliary loss when the mode is [`DatMode::DatIe`].
pub struct AdversarialStudent<M: FakeNewsModel> {
    base: M,
    adversary: DomainAdversary,
    name: &'static str,
    alpha: f32,
    beta: f32,
    mode: DatMode,
}

impl<M: FakeNewsModel> AdversarialStudent<M> {
    /// Wrap a base (student-architecture) model.
    pub fn new(
        base: M,
        store: &mut ParamStore,
        config: &ModelConfig,
        dat: &DatConfig,
        rng: &mut Prng,
    ) -> Self {
        let adversary = DomainAdversary::new(
            store,
            "unbiased_teacher.adversary",
            config.feature_dim,
            config.hidden,
            config.n_domains,
            1.0,
            rng,
        );
        let name = match dat.mode {
            DatMode::Dat => "Student+DAT",
            DatMode::DatIe => "Student+DAT-IE",
        };
        Self {
            base,
            adversary,
            name,
            alpha: dat.alpha,
            beta: dat.beta(),
            mode: dat.mode,
        }
    }

    /// Borrow the wrapped base model (e.g. to reuse it as the frozen
    /// unbiased teacher after training).
    pub fn base(&self) -> &M {
        &self.base
    }

    /// The adversarial objective in use.
    pub fn mode(&self) -> DatMode {
        self.mode
    }
}

impl<M: FakeNewsModel> FakeNewsModel for AdversarialStudent<M> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn config(&self) -> &ModelConfig {
        self.base.config()
    }

    fn uses_domain_labels(&self) -> bool {
        true
    }

    fn domain_loss_weight(&self) -> f32 {
        self.alpha
    }

    fn forward(&self, g: &mut Graph<'_>, batch: &Batch) -> ModelOutput {
        let base_out = self.base.forward(g, batch);
        let domain_logits = self.adversary.forward(g, base_out.features);
        let aux_loss = match self.mode {
            DatMode::Dat => base_out.aux_loss,
            DatMode::DatIe => {
                // The entropy regularizer acts on the domain classifier's
                // prediction *without* gradient reversal: the encoder is
                // pushed directly towards features whose domain is ambiguous
                // across many domains, not just the most relevant one.
                let plain_logits = self.adversary.forward_plain(g, base_out.features);
                let ie = information_entropy_loss(g, plain_logits);
                let ie = g.scale(ie, self.beta);
                Some(match base_out.aux_loss {
                    Some(prev) => g.add(prev, ie),
                    None => ie,
                })
            }
        };
        ModelOutput {
            logits: base_out.logits,
            features: base_out.features,
            domain_logits: Some(domain_logits),
            aux_loss,
        }
    }

    fn post_batch(&mut self, features: &Tensor, domains: &[usize]) {
        self.base.post_batch(features, domains);
    }

    // The adversary head is ordinary registered parameters; any state
    // outside the store belongs to the wrapped base model, so side-state
    // export/import must pass through (the default impls would silently
    // drop a side-stateful base's trained state at save time).
    fn export_side_state(&self) -> SideState {
        self.base.export_side_state()
    }

    fn import_side_state(&mut self, state: &SideState) -> Result<(), SideStateError> {
        self.base.import_side_state(state)
    }
}

/// Train an unbiased teacher: wrap the provided student-architecture model
/// and run DAT / DAT-IE training on it. Returns the wrapper (whose `base()`
/// is the trained unbiased teacher network) and the training report.
pub fn train_unbiased_teacher<M: FakeNewsModel>(
    base: M,
    store: &mut ParamStore,
    model_config: &ModelConfig,
    dat_config: &DatConfig,
    train: &MultiDomainDataset,
    rng: &mut Prng,
) -> (AdversarialStudent<M>, TrainReport) {
    let mut wrapped = AdversarialStudent::new(base, store, model_config, dat_config, rng);
    let report = train_model(&mut wrapped, store, train, &dat_config.train);
    (wrapped, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::evaluate;
    use dtdbd_data::{weibo21_spec, BatchIter, GeneratorConfig, NewsGenerator};
    use dtdbd_models::TextCnnModel;

    fn tiny_dataset() -> MultiDomainDataset {
        NewsGenerator::new(weibo21_spec(), GeneratorConfig::tiny()).generate_scaled(17, 0.04)
    }

    #[test]
    fn adversarial_student_exposes_domain_logits_and_ie_aux() {
        let ds = tiny_dataset();
        let cfg = ModelConfig::tiny(&ds);
        let dat = DatConfig::default();
        let mut store = ParamStore::new();
        let base = TextCnnModel::student(&mut store, &cfg, &mut Prng::new(1));
        let wrapped = AdversarialStudent::new(base, &mut store, &cfg, &dat, &mut Prng::new(2));
        assert_eq!(wrapped.name(), "Student+DAT-IE");
        assert_eq!(wrapped.domain_loss_weight(), dat.alpha);
        let batch = BatchIter::new(&ds, 8, 0, false).next().unwrap();
        let mut g = Graph::new(&mut store, false, 0);
        let out = wrapped.forward(&mut g, &batch);
        assert!(out.domain_logits.is_some());
        assert!(out.aux_loss.is_some(), "DAT-IE adds the IE regularizer");
    }

    #[test]
    fn plain_dat_has_no_ie_regularizer() {
        let ds = tiny_dataset();
        let cfg = ModelConfig::tiny(&ds);
        let dat = DatConfig {
            mode: DatMode::Dat,
            ..DatConfig::default()
        };
        let mut store = ParamStore::new();
        let base = TextCnnModel::student(&mut store, &cfg, &mut Prng::new(3));
        let wrapped = AdversarialStudent::new(base, &mut store, &cfg, &dat, &mut Prng::new(4));
        assert_eq!(wrapped.name(), "Student+DAT");
        assert_eq!(wrapped.mode(), DatMode::Dat);
        let batch = BatchIter::new(&ds, 8, 0, false).next().unwrap();
        let mut g = Graph::new(&mut store, false, 0);
        let out = wrapped.forward(&mut g, &batch);
        assert!(out.aux_loss.is_none());
    }

    #[test]
    fn side_state_passes_through_the_wrapper_to_the_base_model() {
        // M3FEND's memory bank is the canonical off-store state: wrapping it
        // for DAT training must not make Checkpoint::capture drop the bank.
        let ds = tiny_dataset();
        let cfg = ModelConfig::tiny(&ds);
        let dat = DatConfig::default();
        let mut store = ParamStore::new();
        let base = dtdbd_models::M3Fend::new(&mut store, &cfg, &mut Prng::new(5));
        let mut wrapped = AdversarialStudent::new(base, &mut store, &cfg, &dat, &mut Prng::new(6));
        let batch = BatchIter::new(&ds, 8, 0, false).next().unwrap();
        {
            let mut g = Graph::new(&mut store, true, 0);
            let _ = wrapped.forward(&mut g, &batch);
        }
        let exported = wrapped.export_side_state();
        assert_eq!(
            exported,
            wrapped.base().export_side_state(),
            "wrapper must forward the base model's side state"
        );
        assert!(
            exported.get(dtdbd_models::M3Fend::MEMORY_TAG).is_some(),
            "the trained memory bank must be in the export"
        );
        wrapped
            .import_side_state(&exported)
            .expect("import forwards to the base too");
    }

    #[test]
    fn wrapper_outputs_are_row_independent_in_evaluation_mode() {
        // The distillation stage runs the unbiased teacher once per training
        // item and gathers batch rows from the result, which is only exact
        // if an item's outputs ignore the rest of its batch.
        let ds = tiny_dataset();
        let cfg = ModelConfig::tiny(&ds);
        let dat = DatConfig {
            train: TrainConfig {
                epochs: 1,
                batch_size: 32,
                ..TrainConfig::default()
            },
            ..DatConfig::default()
        };
        let mut store = ParamStore::new();
        let base = TextCnnModel::student(&mut store, &cfg, &mut Prng::new(8));
        let (teacher, _) =
            train_unbiased_teacher(base, &mut store, &cfg, &dat, &ds, &mut Prng::new(9));
        let batch = BatchIter::new(&ds, 16, 5, false).next().unwrap();
        let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut g = Graph::new(&mut store, false, 0);
        let out = teacher.forward(&mut g, &batch);
        let logits = g.value(out.logits).clone();
        let features = g.value(out.features).clone();
        drop(g);
        for (row, &idx) in batch.indices.iter().enumerate() {
            let single = Batch::from_items(&[&ds.items()[idx]], vec![idx], ds.seq_len());
            let mut g = Graph::new(&mut store, false, 0);
            let out = teacher.forward(&mut g, &single);
            assert_eq!(bits(g.value(out.logits).data()), bits(logits.row(row)));
            assert_eq!(bits(g.value(out.features).data()), bits(features.row(row)));
        }
    }

    #[test]
    fn beta_is_a_fifth_of_alpha() {
        let dat = DatConfig {
            alpha: 2.5,
            ..DatConfig::default()
        };
        assert!((dat.beta() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn dat_ie_training_reduces_domain_bias_compared_to_plain_student() {
        let ds = tiny_dataset();
        let split = ds.split(0.7, 0.1, 5);
        let cfg = ModelConfig::tiny(&split.train);
        let tc = TrainConfig {
            epochs: 3,
            batch_size: 32,
            ..TrainConfig::default()
        };

        // Plain student.
        let mut plain_store = ParamStore::new();
        let mut plain = TextCnnModel::student(&mut plain_store, &cfg, &mut Prng::new(6));
        train_model(&mut plain, &mut plain_store, &split.train, &tc);
        let plain_eval = evaluate(&plain, &mut plain_store, &split.test, 64);

        // DAT-IE teacher.
        let dat = DatConfig {
            train: tc.clone(),
            ..DatConfig::default()
        };
        let mut adv_store = ParamStore::new();
        let base = TextCnnModel::student(&mut adv_store, &cfg, &mut Prng::new(6));
        let (teacher, _) = train_unbiased_teacher(
            base,
            &mut adv_store,
            &cfg,
            &dat,
            &split.train,
            &mut Prng::new(7),
        );
        let teacher_eval = evaluate(teacher.base(), &mut adv_store, &split.test, 64);

        // The adversarially trained teacher should be no more biased than the
        // plain student (and usually substantially less). Allow slack because
        // the tiny corpus is noisy.
        assert!(
            teacher_eval.bias().total() <= plain_eval.bias().total() + 0.15,
            "DAT-IE total {} vs plain {}",
            teacher_eval.bias().total(),
            plain_eval.bias().total()
        );
    }
}
