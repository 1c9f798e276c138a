//! Dual-teacher de-biasing distillation (paper Sec. V, Algorithm 1).
//!
//! The student is trained with the weighted combination of three losses
//! (Eq. 13, with the cross-entropy weight ω_S fixed at 1, so the total is
//! `L_CE + ω_ADD·L_ADD + ω_DKD·L_DKD`):
//!
//! * `L_CE` — ordinary cross-entropy on the hard labels,
//! * `L_ADD` — adversarial de-biasing distillation (Eq. 5–6): a softened KL
//!   between the pairwise-distance correlation matrices of the (frozen)
//!   unbiased teacher's and the student's intermediate features,
//! * `L_DKD` — domain knowledge distillation (Eq. 12): a softened KL between
//!   the (frozen) clean teacher's and the student's classification logits,
//!
//! with `ω_ADD` / `ω_DKD` set by the [`Ablation`]. The full framework moves
//! them with the momentum-based dynamic adjustment algorithm, which compares
//! the student's validation F1 and bias across consecutive epochs: the first
//! update runs after the second epoch and first applies to the third.
//!
//! The teachers are frozen, so each active teacher runs once per training
//! item, before the first epoch: its evaluation-mode outputs land in one
//! `[n_train, width]` tensor, and every distillation step gathers its
//! batch's rows from there. Every model's evaluation-mode forward pass is
//! row-independent (the model contract tests check it bit for bit), so the
//! gathered rows are exactly what a per-batch teacher pass would give.

use crate::daa::DynamicAdjuster;
use crate::trainer::{epoch_batches, evaluate, optimise, output_rows};
use dtdbd_data::{Batch, MultiDomainDataset};
use dtdbd_models::FakeNewsModel;
use dtdbd_tensor::losses::{add_distillation_loss, kd_kl_loss};
use dtdbd_tensor::optim::Adam;
use dtdbd_tensor::{ParamStore, Tensor};

/// Which distillation terms a DTDBD student trains with, and at what
/// weights (the paper's Table VIII ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Ablation {
    /// Both teachers, `(ω_ADD, ω_DKD)` starting at (0.5, 0.5) and moved by
    /// the dynamic adjustment ("Our(MD)" / "Our(M3)"). The first update runs
    /// after the second epoch and first applies to the third, so a run of at
    /// most two epochs equals [`Ablation::WithoutDaa`].
    #[default]
    Full,
    /// Both teachers at the fixed weights (0.5, 0.5) ("w/o DAA").
    WithoutDaa,
    /// The unbiased teacher alone, at (1, 0) ("Student+ADD").
    OnlyAdd,
    /// The clean teacher alone, at (0, 1) ("Student+DND").
    OnlyDkd,
}

impl Ablation {
    /// The `(ω_ADD, ω_DKD)` held for the whole run; `None` for
    /// [`Ablation::Full`], whose weights the dynamic adjustment moves.
    fn fixed_weights(self) -> Option<(f32, f32)> {
        match self {
            Ablation::Full => None,
            Ablation::WithoutDaa => Some((0.5, 0.5)),
            Ablation::OnlyAdd => Some((1.0, 0.0)),
            Ablation::OnlyDkd => Some((0.0, 1.0)),
        }
    }

    /// Whether the (unbiased, clean) teacher runs: a teacher whose weight
    /// is fixed at 0 never does.
    fn active_teachers(self) -> (bool, bool) {
        self.fixed_weights()
            .map_or((true, true), |(add, dkd)| (add != 0.0, dkd != 0.0))
    }
}

/// Configuration of the dual-teacher distillation stage.
#[derive(Debug, Clone)]
pub struct DistillConfig {
    /// Number of distillation epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate of the student (the paper uses 1e-4).
    pub learning_rate: f32,
    /// Global gradient-norm clip (0 disables).
    pub grad_clip: f32,
    /// Seed for shuffling / dropout.
    pub seed: u64,
    /// Distillation temperature τ (shared by both distillation losses).
    pub tau: f32,
    /// Momentum `m` of the dynamic adjustment algorithm.
    pub momentum: f32,
    /// The distillation terms and their weights.
    pub ablation: Ablation,
    /// Print one line per epoch to stderr.
    pub verbose: bool,
}

impl Default for DistillConfig {
    fn default() -> Self {
        Self {
            epochs: 5,
            batch_size: 64,
            learning_rate: 1e-3,
            grad_clip: 5.0,
            seed: 42,
            tau: 4.0,
            momentum: 0.7,
            ablation: Ablation::Full,
            verbose: false,
        }
    }
}

/// History of a distillation run.
#[derive(Debug, Clone)]
pub struct DistillReport {
    /// Mean overall training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// `(ω_ADD, ω_DKD)` used during each epoch. Under [`Ablation::Full`] the
    /// first two entries are (0.5, 0.5): the first dynamic adjustment runs
    /// after the second epoch.
    pub weight_history: Vec<(f32, f32)>,
    /// Validation macro-F1 after each epoch.
    pub val_f1: Vec<f64>,
    /// Validation bias Total (FNED + FPED) after each epoch.
    pub val_total: Vec<f64>,
}

/// Orchestrates dual-teacher distillation (Algorithm 1, lines 8–15).
#[derive(Debug, Clone)]
pub struct DtdbdTrainer {
    config: DistillConfig,
}

impl DtdbdTrainer {
    /// Create a trainer with the given configuration.
    pub fn new(config: DistillConfig) -> Self {
        Self { config }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &DistillConfig {
        &self.config
    }

    /// Run dual-teacher distillation of `student` under the guidance of the
    /// frozen `clean_teacher` and `unbiased_teacher`.
    ///
    /// Both teachers are only ever run in evaluation mode and their parameter
    /// stores receive no gradient, which realises the paper's frozen-teacher
    /// setting. Each active teacher runs once per training item, before the
    /// first epoch; one whose weight the [`Ablation`] fixes at 0 never runs.
    #[allow(clippy::too_many_arguments)]
    pub fn distill<S, C, U>(
        &self,
        student: &mut S,
        student_store: &mut ParamStore,
        clean_teacher: &C,
        clean_store: &mut ParamStore,
        unbiased_teacher: &U,
        unbiased_store: &mut ParamStore,
        train: &MultiDomainDataset,
        val: &MultiDomainDataset,
    ) -> DistillReport
    where
        S: FakeNewsModel,
        C: FakeNewsModel,
        U: FakeNewsModel,
    {
        let cfg = &self.config;
        let targets = TeacherTargets::compute(
            cfg,
            clean_teacher,
            clean_store,
            unbiased_teacher,
            unbiased_store,
            train,
        );
        let mut optimizer = Adam::new(cfg.learning_rate);
        let mut adjuster = DynamicAdjuster::new(cfg.momentum, 0.5);
        let mut report = DistillReport {
            epoch_losses: Vec::with_capacity(cfg.epochs),
            weight_history: Vec::with_capacity(cfg.epochs),
            val_f1: Vec::with_capacity(cfg.epochs),
            val_total: Vec::with_capacity(cfg.epochs),
        };
        let mut prev_f1: Option<f64> = None;
        let mut prev_total: Option<f64> = None;

        for epoch in 0..cfg.epochs {
            let (w_add, w_dkd) = cfg
                .ablation
                .fixed_weights()
                .unwrap_or_else(|| adjuster.weights());
            report.weight_history.push((w_add, w_dkd));

            let mut epoch_loss = 0.0f32;
            let mut n_batches = 0usize;
            for batch in epoch_batches(train, cfg.batch_size, cfg.seed, epoch) {
                let (clean_logits, unbiased_features) = targets.for_batch(&batch);
                // A term whose weight is exactly 0 (Full's DAA can move a
                // teacher there) adds nothing: skip its forward and backward.
                let clean_logits = clean_logits.filter(|_| w_dkd != 0.0);
                let unbiased_features = unbiased_features.filter(|_| w_add != 0.0);
                let step = (epoch * 100_000 + n_batches) as u64;
                let seed = cfg.seed ^ step.wrapping_mul(0x1000_0001);
                epoch_loss += optimise(
                    student,
                    student_store,
                    &batch,
                    &mut optimizer,
                    cfg.grad_clip,
                    seed,
                    |g, out, mut total| {
                        if let Some(teacher_logits) = &clean_logits {
                            let dkd = kd_kl_loss(g, out.logits, teacher_logits, cfg.tau);
                            let dkd = g.scale(dkd, w_dkd);
                            total = g.add(total, dkd);
                        }
                        if let Some(teacher_features) = &unbiased_features {
                            let add =
                                add_distillation_loss(g, out.features, teacher_features, cfg.tau);
                            let add = g.scale(add, w_add);
                            total = g.add(total, add);
                        }
                        total
                    },
                );
                n_batches += 1;
            }
            report
                .epoch_losses
                .push(epoch_loss / n_batches.max(1) as f32);

            // Validation metrics drive the dynamic adjustment (Algorithm 1,
            // line 11). An update needs two epochs' metrics, so the first
            // one runs here after the second epoch and first applies to the
            // third.
            let eval = evaluate(student, student_store, val, cfg.batch_size.max(128));
            let f1 = eval.overall_f1();
            let total = eval.bias().total();
            report.val_f1.push(f1);
            report.val_total.push(total);
            if cfg.verbose {
                eprintln!(
                    "[DTDBD] epoch {epoch}: loss {:.4} val-F1 {f1:.4} val-Total {total:.4} (w_add {w_add:.3})",
                    report.epoch_losses[epoch]
                );
            }
            if cfg.ablation == Ablation::Full {
                if let (Some(pf), Some(pt)) = (prev_f1, prev_total) {
                    let delta_f1 = (f1 - pf) as f32;
                    let delta_bias = (pt - total) as f32; // improvement = reduction of Total
                    adjuster.update(delta_f1, delta_bias);
                }
            }
            prev_f1 = Some(f1);
            prev_total = Some(total);
        }
        report
    }
}

/// The frozen teachers' outputs for every training item; row `i` belongs to
/// item `i` of the training split. `None` for an inactive teacher.
struct TeacherTargets {
    /// Clean-teacher logits `[n_train, 2]`, the DKD target.
    clean_logits: Option<Tensor>,
    /// Unbiased-teacher features `[n_train, feature_dim]`, the ADD target.
    unbiased_features: Option<Tensor>,
}

impl TeacherTargets {
    /// Run each active teacher once over `train`, in evaluation mode.
    fn compute<C: FakeNewsModel, U: FakeNewsModel>(
        cfg: &DistillConfig,
        clean_teacher: &C,
        clean_store: &mut ParamStore,
        unbiased_teacher: &U,
        unbiased_store: &mut ParamStore,
        train: &MultiDomainDataset,
    ) -> Self {
        let (uses_add, uses_dkd) = cfg.ablation.active_teachers();
        Self {
            clean_logits: uses_dkd.then(|| {
                output_rows(clean_teacher, clean_store, train, cfg.batch_size, |out| {
                    out.logits
                })
            }),
            unbiased_features: uses_add.then(|| {
                output_rows(
                    unbiased_teacher,
                    unbiased_store,
                    train,
                    cfg.batch_size,
                    |out| out.features,
                )
            }),
        }
    }

    /// The rows of `batch.indices`, in batch order.
    fn for_batch(&self, batch: &Batch) -> (Option<Tensor>, Option<Tensor>) {
        let gather = |all: &Tensor| {
            let width = all.shape()[1];
            let mut rows = Vec::with_capacity(batch.batch_size * width);
            for &idx in &batch.indices {
                rows.extend_from_slice(all.row(idx));
            }
            Tensor::new(vec![batch.batch_size, width], rows)
        };
        (
            self.clean_logits.as_ref().map(gather),
            self.unbiased_features.as_ref().map(gather),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dat::{train_unbiased_teacher, AdversarialStudent, DatConfig};
    use crate::trainer::tests::{bits32, param_bits_hash};
    use crate::trainer::{train_model, TrainConfig};
    use dtdbd_data::{weibo21_spec, GeneratorConfig, NewsGenerator, Split};
    use dtdbd_models::{M3Fend, ModelConfig, ModelOutput, TextCnnModel};
    use dtdbd_tensor::rng::Prng;
    use dtdbd_tensor::Graph;
    use std::cell::Cell;

    fn tiny_dataset() -> MultiDomainDataset {
        NewsGenerator::new(weibo21_spec(), GeneratorConfig::tiny()).generate_scaled(23, 0.05)
    }

    fn tiny_train_config() -> TrainConfig {
        TrainConfig {
            epochs: 3,
            batch_size: 32,
            ..TrainConfig::default()
        }
    }

    /// The tiny corpus's split and both teachers trained on its training
    /// part: M3FEND as the clean teacher, TextCNN-S + DAT-IE as the
    /// unbiased one.
    struct Teachers {
        split: Split,
        cfg: ModelConfig,
        clean: M3Fend,
        clean_store: ParamStore,
        unbiased: AdversarialStudent<TextCnnModel>,
        unbiased_store: ParamStore,
    }

    fn trained_teachers() -> Teachers {
        let ds = tiny_dataset();
        let split = ds.split(0.7, 0.1, 9);
        let cfg = ModelConfig::tiny(&split.train);
        let tc = tiny_train_config();
        let mut clean_store = ParamStore::new();
        let mut clean = M3Fend::new(&mut clean_store, &cfg, &mut Prng::new(1));
        train_model(&mut clean, &mut clean_store, &split.train, &tc);
        let dat = DatConfig {
            train: tc,
            ..DatConfig::default()
        };
        let mut unbiased_store = ParamStore::new();
        let base = TextCnnModel::student(&mut unbiased_store, &cfg, &mut Prng::new(2));
        let (unbiased, _) = train_unbiased_teacher(
            base,
            &mut unbiased_store,
            &cfg,
            &dat,
            &split.train,
            &mut Prng::new(3),
        );
        Teachers {
            split,
            cfg,
            clean,
            clean_store,
            unbiased,
            unbiased_store,
        }
    }

    /// `ablation`'s default configuration, shortened to three epochs of
    /// 32-item batches.
    fn tiny_distill_config(ablation: Ablation) -> DistillConfig {
        DistillConfig {
            epochs: 3,
            batch_size: 32,
            ablation,
            ..DistillConfig::default()
        }
    }

    fn bits64(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn full_dtdbd_run_produces_consistent_history_and_reduces_bias() {
        let Teachers {
            split,
            cfg,
            clean,
            mut clean_store,
            unbiased,
            mut unbiased_store,
        } = trained_teachers();

        // Plain student for reference.
        let mut plain_store = ParamStore::new();
        let mut plain = TextCnnModel::student(&mut plain_store, &cfg, &mut Prng::new(4));
        train_model(
            &mut plain,
            &mut plain_store,
            &split.train,
            &tiny_train_config(),
        );
        let plain_eval = evaluate(&plain, &mut plain_store, &split.test, 128);

        // DTDBD student.
        let mut student_store = ParamStore::new();
        let mut student = TextCnnModel::student(&mut student_store, &cfg, &mut Prng::new(4));
        let trainer = DtdbdTrainer::new(tiny_distill_config(Ablation::Full));
        let report = trainer.distill(
            &mut student,
            &mut student_store,
            &clean,
            &mut clean_store,
            unbiased.base(),
            &mut unbiased_store,
            &split.train,
            &split.val,
        );
        assert_eq!(report.epoch_losses.len(), 3);
        assert_eq!(report.weight_history.len(), 3);
        assert_eq!(report.val_f1.len(), 3);
        for (wa, wd) in &report.weight_history {
            assert!((0.0..=1.0).contains(wa));
            assert!((wa + wd - 1.0).abs() < 1e-5);
        }

        let student_eval = evaluate(&student, &mut student_store, &split.test, 128);
        // The distilled student must stay usable and should not be more
        // biased than the plain student (tolerances are loose because the
        // corpus here is tiny).
        assert!(
            student_eval.overall_f1() > 0.55,
            "F1 {}",
            student_eval.overall_f1()
        );
        assert!(
            student_eval.bias().total() <= plain_eval.bias().total() + 0.2,
            "student total {} vs plain {}",
            student_eval.bias().total(),
            plain_eval.bias().total()
        );
    }

    /// What a distillation step computed before the teacher outputs were
    /// cached: a fresh evaluation-mode tape forward of each active teacher
    /// on the batch.
    fn per_batch_targets<C: FakeNewsModel, U: FakeNewsModel>(
        cfg: &DistillConfig,
        clean_teacher: &C,
        clean_store: &mut ParamStore,
        unbiased_teacher: &U,
        unbiased_store: &mut ParamStore,
        batch: &Batch,
    ) -> (Option<Tensor>, Option<Tensor>) {
        let (uses_add, uses_dkd) = cfg.ablation.active_teachers();
        let clean_logits = uses_dkd.then(|| {
            let mut g = Graph::new(clean_store, false, 0);
            let out = clean_teacher.forward(&mut g, batch);
            g.value(out.logits).clone()
        });
        let unbiased_features = uses_add.then(|| {
            let mut g = Graph::new(unbiased_store, false, 0);
            let out = unbiased_teacher.forward(&mut g, batch);
            g.value(out.features).clone()
        });
        (clean_logits, unbiased_features)
    }

    #[test]
    fn cached_teacher_rows_match_a_per_batch_teacher_pass_bit_for_bit() {
        let Teachers {
            split,
            clean,
            mut clean_store,
            unbiased,
            mut unbiased_store,
            ..
        } = trained_teachers();
        let cfg = tiny_distill_config(Ablation::Full);
        let targets = TeacherTargets::compute(
            &cfg,
            &clean,
            &mut clean_store,
            &unbiased,
            &mut unbiased_store,
            &split.train,
        );
        let tensor_bits = |t: Option<Tensor>| t.map(|t| (t.shape().to_vec(), bits32(t.data())));
        for epoch in 0..cfg.epochs {
            for (i, batch) in
                epoch_batches(&split.train, cfg.batch_size, cfg.seed, epoch).enumerate()
            {
                let (logits, features) = targets.for_batch(&batch);
                let (want_logits, want_features) = per_batch_targets(
                    &cfg,
                    &clean,
                    &mut clean_store,
                    &unbiased,
                    &mut unbiased_store,
                    &batch,
                );
                assert!(logits.is_some() && features.is_some());
                assert_eq!(
                    tensor_bits(logits),
                    tensor_bits(want_logits),
                    "clean logits, epoch {epoch} batch {i}"
                );
                assert_eq!(
                    tensor_bits(features),
                    tensor_bits(want_features),
                    "unbiased features, epoch {epoch} batch {i}"
                );
            }
        }
    }

    /// A fixed-seed tiny run's outcome, recorded when every distillation
    /// step still ran both teachers on its own batch.
    struct Golden {
        params: u64,
        epoch_losses: [f32; 3],
        weight_history: [(f32, f32); 3],
        val_f1: [f64; 3],
        val_total: [f64; 3],
    }

    #[test]
    fn cached_teachers_reproduce_the_per_batch_teacher_run_exactly() {
        let Teachers {
            split,
            cfg,
            clean,
            mut clean_store,
            unbiased,
            mut unbiased_store,
        } = trained_teachers();
        let runs = [
            (
                "default",
                Ablation::Full,
                Golden {
                    params: 0x2d01_602b_3272_e50a,
                    epoch_losses: [1.0210017, 0.896904, 0.99521345],
                    weight_history: [(0.5, 0.5), (0.5, 0.5), (1.0, 0.0)],
                    val_f1: [0.5735887096774194, 0.723404255319149, 0.6323055683387022],
                    val_total: [3.196014492753623, 7.25284679089027, 6.633022774327122],
                },
            ),
            (
                "only_add",
                Ablation::OnlyAdd,
                Golden {
                    params: 0xdf38_d46e_683f_3b35,
                    epoch_losses: [1.0930208, 1.0083073, 0.9969967],
                    weight_history: [(1.0, 0.0), (1.0, 0.0), (1.0, 0.0)],
                    val_f1: [0.47639257294429704, 0.6657183499288761, 0.6802721088435375],
                    val_total: [2.071014492753623, 4.519306418219462, 6.847049689440995],
                },
            ),
            (
                "without_daa",
                Ablation::WithoutDaa,
                Golden {
                    params: 0xd515_b3ad_e278_a5b7,
                    epoch_losses: [1.0210017, 0.896904, 0.8811256],
                    weight_history: [(0.5, 0.5), (0.5, 0.5), (0.5, 0.5)],
                    val_f1: [0.5735887096774194, 0.723404255319149, 0.6518518518518519],
                    val_total: [3.196014492753623, 7.25284679089027, 6.008022774327122],
                },
            ),
            (
                "only_dkd",
                Ablation::OnlyDkd,
                Golden {
                    params: 0x2c93_e9e7_24f8_b98e,
                    epoch_losses: [0.95237386, 0.7908037, 0.7724663],
                    weight_history: [(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)],
                    val_f1: [0.5735887096774194, 0.6802721088435375, 0.6713286713286712],
                    val_total: [3.196014492753623, 6.847049689440995, 5.216356107660455],
                },
            ),
        ];
        for (name, ablation, want) in runs {
            let mut student_store = ParamStore::new();
            let mut student = TextCnnModel::student(&mut student_store, &cfg, &mut Prng::new(4));
            let report = DtdbdTrainer::new(tiny_distill_config(ablation)).distill(
                &mut student,
                &mut student_store,
                &clean,
                &mut clean_store,
                &unbiased,
                &mut unbiased_store,
                &split.train,
                &split.val,
            );
            assert_eq!(
                param_bits_hash(&student_store),
                want.params,
                "{name}: student parameters"
            );
            assert_eq!(
                bits32(&report.epoch_losses),
                bits32(&want.epoch_losses),
                "{name}: epoch losses {:?}",
                report.epoch_losses
            );
            let weight_bits = |h: &[(f32, f32)]| {
                h.iter()
                    .map(|&(add, dkd)| (add.to_bits(), dkd.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                weight_bits(&report.weight_history),
                weight_bits(&want.weight_history),
                "{name}: weight history {:?}",
                report.weight_history
            );
            assert_eq!(
                bits64(&report.val_f1),
                bits64(&want.val_f1),
                "{name}: validation F1 {:?}",
                report.val_f1
            );
            assert_eq!(
                bits64(&report.val_total),
                bits64(&want.val_total),
                "{name}: validation Total {:?}",
                report.val_total
            );
        }
    }

    /// A model that counts its forward passes.
    struct Counting<M> {
        inner: M,
        forwards: Cell<usize>,
    }

    impl<M> Counting<M> {
        fn new(inner: M) -> Self {
            Self {
                inner,
                forwards: Cell::new(0),
            }
        }

        fn take(&self) -> usize {
            self.forwards.replace(0)
        }
    }

    impl<M: FakeNewsModel> FakeNewsModel for Counting<M> {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn config(&self) -> &ModelConfig {
            self.inner.config()
        }

        fn forward(&self, g: &mut Graph<'_>, batch: &Batch) -> ModelOutput {
            self.forwards.set(self.forwards.get() + 1);
            self.inner.forward(g, batch)
        }
    }

    #[test]
    fn each_active_teacher_runs_once_per_training_item_whatever_the_epoch_count() {
        let ds = tiny_dataset();
        let split = ds.split(0.7, 0.1, 9);
        let cfg = ModelConfig::tiny(&split.train);
        let mut clean_store = ParamStore::new();
        let clean = Counting::new(M3Fend::new(&mut clean_store, &cfg, &mut Prng::new(1)));
        let mut unbiased_store = ParamStore::new();
        let unbiased = Counting::new(TextCnnModel::student(
            &mut unbiased_store,
            &cfg,
            &mut Prng::new(2),
        ));
        let batch_size = 32;
        let passes = split.train.len().div_ceil(batch_size);
        assert!(passes > 1, "the split must span several batches");
        for (name, ablation, clean_passes, unbiased_passes) in [
            ("default", Ablation::Full, passes, passes),
            ("only_add", Ablation::OnlyAdd, 0, passes),
            ("only_dkd", Ablation::OnlyDkd, passes, 0),
            ("without_daa", Ablation::WithoutDaa, passes, passes),
        ] {
            for epochs in [1, 3] {
                let mut student_store = ParamStore::new();
                let mut student =
                    TextCnnModel::student(&mut student_store, &cfg, &mut Prng::new(3));
                DtdbdTrainer::new(DistillConfig {
                    epochs,
                    batch_size,
                    ablation,
                    ..DistillConfig::default()
                })
                .distill(
                    &mut student,
                    &mut student_store,
                    &clean,
                    &mut clean_store,
                    &unbiased,
                    &mut unbiased_store,
                    &split.train,
                    &split.val,
                );
                assert_eq!(
                    clean.take(),
                    clean_passes,
                    "{name}, {epochs} epochs: clean teacher forwards"
                );
                assert_eq!(
                    unbiased.take(),
                    unbiased_passes,
                    "{name}, {epochs} epochs: unbiased teacher forwards"
                );
            }
        }
    }
}
