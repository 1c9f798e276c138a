//! Shared experiment machinery used by every table/figure binary.

use dtdbd_core::dat::{train_unbiased_teacher, DatConfig, DatMode};
pub use dtdbd_core::Ablation;
use dtdbd_core::{evaluate, train_model, DistillConfig, DistillReport, DtdbdTrainer, TrainConfig};
use dtdbd_data::{
    english_spec, weibo21_spec, GeneratorConfig, MultiDomainDataset, NewsGenerator, Split,
};
use dtdbd_metrics::report::fmt4;
use dtdbd_metrics::{DomainEvaluation, TableBuilder};
use dtdbd_models::{FakeNewsModel, ModelConfig};
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::ParamStore;

/// Command-line options shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Subsample the corpora and shorten training.
    pub quick: bool,
    /// Global seed.
    pub seed: u64,
    /// Optional override of the number of training epochs.
    pub epochs: Option<usize>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            quick: false,
            seed: 42,
            epochs: None,
        }
    }
}

impl RunOptions {
    /// Parse `--quick`, `--seed N` and `--epochs N` from the process
    /// arguments. Anything else prints the error and a usage line to
    /// stderr and exits with status 2.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        Self::from_slice(&args).unwrap_or_else(|e| {
            let bin = args.first().map_or("bin", String::as_str);
            eprintln!("error: {e}\nusage: {bin} [--quick] [--seed N] [--epochs N]");
            std::process::exit(2)
        })
    }

    /// Parse options from an explicit argument slice whose first element
    /// is the program name. The error names the flag it rejects.
    pub fn from_slice(args: &[String]) -> Result<Self, String> {
        let mut opts = Self::default();
        let mut rest = args.iter().skip(1);
        while let Some(flag) = rest.next() {
            let mut value = |min: u64| {
                let kind = if min == 0 { "non-negative" } else { "positive" };
                rest.next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v >= min)
                    .ok_or_else(|| format!("{flag} needs a {kind} integer"))
            };
            match flag.as_str() {
                "--quick" => opts.quick = true,
                "--seed" => opts.seed = value(0)?,
                "--epochs" => opts.epochs = Some(value(1)? as usize),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(opts)
    }
}

/// The full Weibo21-like Chinese corpus (always full-size; used by the
/// statistics tables).
pub fn chinese_dataset(opts: &RunOptions) -> MultiDomainDataset {
    NewsGenerator::new(weibo21_spec(), GeneratorConfig::default()).generate(opts.seed)
}

/// The full English corpus (always full-size).
pub fn english_dataset(opts: &RunOptions) -> MultiDomainDataset {
    NewsGenerator::new(english_spec(), GeneratorConfig::default()).generate(opts.seed)
}

/// Train/val/test split of the Chinese corpus (subsampled in `--quick` mode).
pub fn chinese_split(opts: &RunOptions) -> Split {
    let generator = NewsGenerator::new(weibo21_spec(), GeneratorConfig::default());
    let ds = if opts.quick {
        generator.generate_scaled(opts.seed, 0.35)
    } else {
        generator.generate(opts.seed)
    };
    ds.split(0.7, 0.1, opts.seed)
}

/// Train/val/test split of the English corpus: 12% of the corpus in `--quick`
/// mode, and half of it otherwise (the full corpus has 28,764 items).
pub fn english_split(opts: &RunOptions) -> Split {
    let generator = NewsGenerator::new(english_spec(), GeneratorConfig::default());
    let ds = if opts.quick {
        generator.generate_scaled(opts.seed, 0.12)
    } else {
        generator.generate_scaled(opts.seed, 0.5)
    };
    ds.split(0.7, 0.1, opts.seed)
}

/// Supervised-training configuration derived from the options.
pub fn train_config(opts: &RunOptions) -> TrainConfig {
    TrainConfig {
        epochs: opts.epochs.unwrap_or(if opts.quick { 2 } else { 4 }),
        batch_size: 64,
        learning_rate: 1e-3,
        grad_clip: 5.0,
        seed: opts.seed,
        verbose: false,
    }
}

/// Distillation configuration derived from the options.
pub fn distill_config(opts: &RunOptions) -> DistillConfig {
    DistillConfig {
        epochs: opts.epochs.unwrap_or(if opts.quick { 2 } else { 4 }),
        batch_size: 64,
        learning_rate: 1e-3,
        seed: opts.seed,
        ..DistillConfig::default()
    }
}

/// The Table IV/V statistics of a corpus: fake, real and total items per
/// domain, with an "All" column.
pub fn dataset_stats_table(title: &str, ds: &MultiDomainDataset) -> TableBuilder {
    let stats = ds.stats();
    let mut header = vec!["Count".to_string()];
    header.extend(stats.per_domain.iter().map(|d| d.name.clone()));
    header.push("All".to_string());
    let mut table = TableBuilder::new(title).header(header);
    let mut fake: Vec<f64> = stats.per_domain.iter().map(|d| d.fake as f64).collect();
    fake.push(stats.total_fake() as f64);
    table.metric_row("Fake", &fake, 0);
    let mut real: Vec<f64> = stats.per_domain.iter().map(|d| d.real as f64).collect();
    real.push((stats.total() - stats.total_fake()) as f64);
    table.metric_row("Real", &real, 0);
    let mut total: Vec<f64> = stats.per_domain.iter().map(|d| d.total() as f64).collect();
    total.push(stats.total() as f64);
    table.metric_row("Total", &total, 0);
    table
}

/// One row of a results table (per-domain F1 plus overall metrics).
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRow {
    /// Method name.
    pub name: String,
    /// Per-domain macro F1.
    pub domain_f1: Vec<f64>,
    /// Overall macro F1.
    pub overall_f1: f64,
    /// False negative equality difference.
    pub fned: f64,
    /// False positive equality difference.
    pub fped: f64,
    /// FNED + FPED.
    pub total: f64,
    /// The model predicted a single class, so FNED/FPED/Total say nothing
    /// about fairness and render as `n/a` rather than as the best score.
    pub one_class: bool,
}

impl EvalRow {
    /// Build a row from an evaluation.
    pub fn from_eval(name: impl Into<String>, eval: &DomainEvaluation) -> Self {
        let bias = eval.bias();
        Self {
            name: name.into(),
            domain_f1: eval.domain_f1(),
            overall_f1: eval.overall_f1(),
            fned: bias.fned,
            fped: bias.fped,
            total: bias.total(),
            one_class: eval.predicts_one_class(),
        }
    }

    /// Append this row (per-domain F1 + overall metrics) to a table.
    pub fn push_full(&self, table: &mut TableBuilder) {
        self.push_cells(table, &self.domain_f1);
    }

    /// Append only the overall metrics to a table.
    pub fn push_overall(&self, table: &mut TableBuilder) {
        self.push_cells(table, &[]);
    }

    /// `name`, the `f1` cells, overall F1, then FNED/FPED/Total (`n/a` for
    /// a single-class predictor).
    fn push_cells(&self, table: &mut TableBuilder, f1: &[f64]) {
        let mut cells = vec![self.name.clone()];
        cells.extend(f1.iter().chain([&self.overall_f1]).map(|&v| fmt4(v)));
        for v in [self.fned, self.fped, self.total] {
            cells.push(if self.one_class {
                "n/a".into()
            } else {
                fmt4(v)
            });
        }
        table.row(cells);
    }
}

/// A trained model together with its parameter store.
pub struct TrainedModel {
    /// The model (behind a trait object so heterogeneous rosters are easy).
    pub model: Box<dyn FakeNewsModel>,
    /// Its parameters.
    pub store: ParamStore,
}

impl TrainedModel {
    /// Evaluate on a dataset.
    pub fn evaluate(&mut self, dataset: &MultiDomainDataset) -> DomainEvaluation {
        evaluate(&self.model, &mut self.store, dataset, 256)
    }
}

/// The baseline roster of Tables VI/VII, in the paper's row order.
pub fn baseline_names() -> Vec<&'static str> {
    vec![
        "BiGRU",
        "TextCNN",
        "BERT",
        "RoBERTa",
        "StyleLSTM",
        "DualEmo",
        "EANN",
        "EANN_NoDAT",
        "MMoE",
        "MoSE",
        "EDDFN",
        "EDDFN_NoDAT",
        "MDFEND",
        "M3FEND",
    ]
}

/// Build a baseline by name ([`dtdbd_models::build`]).
///
/// # Panics
/// Panics on an unknown name.
pub fn build_baseline(
    name: &str,
    store: &mut ParamStore,
    config: &ModelConfig,
    rng: &mut Prng,
) -> Box<dyn FakeNewsModel> {
    dtdbd_models::build(name, store, config, rng)
        .unwrap_or_else(|| panic!("unknown baseline {name}"))
}

/// Which architecture the student (and therefore the unbiased teacher) uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StudentArch {
    /// TextCNN-S / TextCNN-U (the paper's main student).
    TextCnn,
    /// BiGRU-S (used in the ablation study).
    BiGru,
}

impl StudentArch {
    /// Baseline-roster name of the student ([`build_baseline`] builds it).
    pub fn name(&self) -> &'static str {
        match self {
            StudentArch::TextCnn => "TextCNN-S",
            StudentArch::BiGru => "BiGRU-S",
        }
    }
}

/// Which fine-tuned multi-domain model plays the clean teacher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CleanTeacherKind {
    /// MDFEND ("Our(MD)" rows).
    Mdfend,
    /// M3FEND ("Our(M3)" rows).
    M3Fend,
}

impl CleanTeacherKind {
    /// Baseline-roster name of the teacher.
    pub fn model_name(&self) -> &'static str {
        match self {
            CleanTeacherKind::Mdfend => "MDFEND",
            CleanTeacherKind::M3Fend => "M3FEND",
        }
    }

    /// Name of the corresponding DTDBD row in the paper's tables.
    pub fn our_name(&self) -> &'static str {
        match self {
            CleanTeacherKind::Mdfend => "Our(MD)",
            CleanTeacherKind::M3Fend => "Our(M3)",
        }
    }
}

/// The part a model plays in the experiments. Each role is one model of a
/// [`Pipeline`]; the comments give the salt XORed into the run seed for its
/// initialisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A roster baseline by name. "MDFEND" and "M3FEND" are DTDBD's clean
    /// teachers (`^ 0xC1EA`); every other baseline is seeded `^ 0xBA5E`.
    Baseline(&'static str),
    /// The plain student: the DTDBD student's initialisation (`^ 0x57D`)
    /// trained on labels alone.
    Student(StudentArch),
    /// A domain-adversarial student (`^ 0x0B1A`). The DAT-IE one is DTDBD's
    /// unbiased teacher; DAT differs from it only in objective.
    Adversarial(StudentArch, DatMode),
    /// A student (`^ 0x57D`) distilled from the clean teacher of the given
    /// kind and the DAT-IE student of its architecture.
    Dtdbd(CleanTeacherKind, StudentArch, Ablation),
}

impl Role {
    /// The row name the paper's tables give this model.
    pub fn label(&self) -> &'static str {
        match *self {
            Role::Baseline(name) => name,
            Role::Student(_) => "Student",
            Role::Adversarial(_, DatMode::Dat) => "Student+DAT",
            Role::Adversarial(_, DatMode::DatIe) => "Student+DAT-IE",
            Role::Dtdbd(kind, _, Ablation::Full) => kind.our_name(),
            Role::Dtdbd(_, _, Ablation::OnlyDkd) => "Student+DND",
            Role::Dtdbd(_, _, Ablation::OnlyAdd) => "Student+ADD",
            Role::Dtdbd(_, _, Ablation::WithoutDaa) => "w/o DAA",
        }
    }

    /// The clean and unbiased teachers a DTDBD student distils from.
    fn teachers(&self) -> Option<[Role; 2]> {
        match *self {
            Role::Dtdbd(kind, arch, _) => Some([
                Role::Baseline(kind.model_name()),
                Role::Adversarial(arch, DatMode::DatIe),
            ]),
            _ => None,
        }
    }
}

/// One trained model of a [`Pipeline`].
struct Slot {
    role: Role,
    trained: TrainedModel,
    report: Option<DistillReport>,
}

/// Every model of one (split, [`RunOptions`]) experiment, each trained the
/// first time a [`Role`] asks for it and never again (Algorithm 1). A DTDBD
/// student distils from the pipeline's own frozen teachers, so the rows named
/// "MDFEND", "M3FEND" and "Student+DAT-IE" are the teachers themselves. No
/// model depends on the order in which roles are asked for.
pub struct Pipeline<'a> {
    split: &'a Split,
    opts: RunOptions,
    slots: Vec<Slot>,
}

impl<'a> Pipeline<'a> {
    /// An empty pipeline over `split`: nothing is trained yet.
    pub fn new(split: &'a Split, opts: &RunOptions) -> Self {
        Self {
            split,
            opts: opts.clone(),
            slots: Vec::new(),
        }
    }

    /// The model playing `role`, trained on the training portion.
    pub fn model(&mut self, role: Role) -> &mut TrainedModel {
        &mut self.slot(role).trained
    }

    /// The model playing `role`, evaluated on the test portion.
    pub fn row(&mut self, role: Role) -> EvalRow {
        let test = &self.split.test;
        EvalRow::from_eval(role.label(), &self.model(role).evaluate(test))
    }

    /// The distillation history of a [`Role::Dtdbd`] model; `None` for
    /// every other role.
    pub fn report(&mut self, role: Role) -> Option<&DistillReport> {
        self.slot(role).report.as_ref()
    }

    fn slot(&mut self, role: Role) -> &mut Slot {
        let index = match self.slots.iter().position(|s| s.role == role) {
            Some(index) => index,
            None => {
                for teacher in role.teachers().into_iter().flatten() {
                    self.slot(teacher);
                }
                match role {
                    Role::Baseline(name) => eprintln!("training {name} ..."),
                    Role::Student(arch) | Role::Adversarial(arch, _) | Role::Dtdbd(_, arch, _) => {
                        eprintln!("[{}] training {} ...", arch.name(), role.label())
                    }
                }
                let slot = self.train(role);
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        &mut self.slots[index]
    }

    /// Train `role`'s model; a DTDBD role's teachers are already in `slots`.
    fn train(&mut self, role: Role) -> Slot {
        let split = self.split;
        let config = ModelConfig::for_dataset(&split.train);
        let tc = train_config(&self.opts);
        let seed = self.opts.seed;
        let init = |name: &str, salt: u64| {
            let (mut store, mut rng) = (ParamStore::new(), Prng::new(seed ^ salt));
            let model = build_baseline(name, &mut store, &config, &mut rng);
            (model, store, rng)
        };
        let fit = |name: &str, salt: u64| {
            let (mut model, mut store, _) = init(name, salt);
            train_model(&mut model, &mut store, &split.train, &tc);
            (model, store)
        };
        let mut report = None;
        let (model, store) = match role {
            Role::Baseline(name) => {
                let clean = [CleanTeacherKind::Mdfend, CleanTeacherKind::M3Fend]
                    .map(|kind| kind.model_name())
                    .contains(&name);
                fit(name, if clean { 0xC1EA } else { 0xBA5E })
            }
            Role::Student(arch) => fit(arch.name(), 0x57D),
            Role::Adversarial(arch, mode) => {
                let (base, mut store, mut rng) = init(arch.name(), 0x0B1A);
                let dat = DatConfig {
                    mode,
                    train: tc.clone(),
                    ..DatConfig::default()
                };
                let (wrapped, _) =
                    train_unbiased_teacher(base, &mut store, &config, &dat, &split.train, &mut rng);
                (Box::new(wrapped) as Box<dyn FakeNewsModel>, store)
            }
            Role::Dtdbd(_, arch, ablation) => {
                let [clean_role, unbiased_role] = role.teachers().expect("a DTDBD role");
                let (mut clean, mut unbiased) = (None, None);
                for slot in &mut self.slots {
                    if slot.role == clean_role {
                        clean = Some(&mut slot.trained);
                    } else if slot.role == unbiased_role {
                        unbiased = Some(&mut slot.trained);
                    }
                }
                let (clean, unbiased) = (clean.expect("trained"), unbiased.expect("trained"));
                let (mut student, mut store, _) = init(arch.name(), 0x57D);
                report = Some(
                    DtdbdTrainer::new(DistillConfig {
                        ablation,
                        ..distill_config(&self.opts)
                    })
                    .distill(
                        &mut student,
                        &mut store,
                        &clean.model,
                        &mut clean.store,
                        &unbiased.model,
                        &mut unbiased.store,
                        &split.train,
                        &split.val,
                    ),
                );
                (student, store)
            }
        };
        Slot {
            role,
            trained: TrainedModel { model, store },
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> RunOptions {
        RunOptions {
            quick: true,
            seed: 7,
            epochs: Some(1),
        }
    }

    fn tiny_split() -> Split {
        NewsGenerator::new(weibo21_spec(), GeneratorConfig::tiny())
            .generate_scaled(7, 0.04)
            .split(0.7, 0.1, 7)
    }

    #[test]
    fn pipeline_rows_do_not_depend_on_request_order_and_teachers_stay_frozen() {
        let split = tiny_split();
        let opts = quick_opts();
        let arch = StudentArch::TextCnn;
        let dtdbd = |ablation| Role::Dtdbd(CleanTeacherKind::M3Fend, arch, ablation);
        let clean = Role::Baseline("M3FEND");
        let unbiased = Role::Adversarial(arch, DatMode::DatIe);

        let mut pipeline = Pipeline::new(&split, &opts);
        let clean_row = pipeline.row(clean);
        let unbiased_row = pipeline.row(unbiased);
        for ablation in [Ablation::OnlyAdd, Ablation::OnlyDkd, Ablation::WithoutDaa] {
            pipeline.row(dtdbd(ablation));
        }
        let full = pipeline.row(dtdbd(Ablation::Full));
        assert_eq!(full.name, "Our(M3)");
        assert_eq!(
            full,
            Pipeline::new(&split, &opts).row(dtdbd(Ablation::Full))
        );
        assert_eq!(pipeline.row(clean), clean_row);
        assert_eq!(pipeline.row(unbiased), unbiased_row);
        assert_eq!(pipeline.slots.len(), 6, "each model is trained once");
        assert!(pipeline.report(dtdbd(Ablation::Full)).is_some());
        assert!(pipeline.report(clean).is_none());
    }

    #[test]
    fn options_parse_flags() {
        let args: Vec<String> = ["bin", "--quick", "--seed", "9", "--epochs", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = RunOptions::from_slice(&args).unwrap();
        assert!(opts.quick);
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.epochs, Some(3));
        let default = RunOptions::from_slice(&["bin".to_string()]).unwrap();
        assert!(!default.quick);
        assert_eq!(default.seed, 42);
        for (bad, flag) in [
            (&["--epoch", "3"][..], "--epoch"),
            (&["--seed", "x"][..], "--seed"),
            (&["--seed"][..], "--seed"),
            (&["--epochs", "-1"][..], "--epochs"),
            (&["--epochs", "0"][..], "--epochs"),
            (&["--quick", "extra"][..], "extra"),
        ] {
            let args: Vec<String> = std::iter::once("bin")
                .chain(bad.iter().copied())
                .map(String::from)
                .collect();
            let err = RunOptions::from_slice(&args).unwrap_err();
            assert!(err.contains(flag), "{bad:?}: {err}");
        }
    }

    #[test]
    fn every_baseline_name_builds() {
        let split = tiny_split();
        let config = ModelConfig::tiny(&split.train);
        let students = [StudentArch::TextCnn, StudentArch::BiGru].map(|arch| arch.name());
        for name in baseline_names().into_iter().chain(students) {
            let mut store = ParamStore::new();
            let model = build_baseline(name, &mut store, &config, &mut Prng::new(1));
            assert_eq!(model.name(), name);
        }
    }

    #[test]
    #[should_panic(expected = "unknown baseline")]
    fn unknown_baseline_panics() {
        let split = tiny_split();
        let config = ModelConfig::tiny(&split.train);
        let mut store = ParamStore::new();
        let _ = build_baseline("NotAModel", &mut store, &config, &mut Prng::new(1));
    }

    #[test]
    fn eval_row_reflects_evaluation() {
        let eval =
            DomainEvaluation::from_names(&[1, 0, 1, 0], &[1, 0, 0, 1], &[0, 0, 1, 1], &["A", "B"]);
        let row = EvalRow::from_eval("demo", &eval);
        assert_eq!(row.name, "demo");
        assert_eq!(row.domain_f1.len(), 2);
        assert!((row.total - (row.fned + row.fped)).abs() < 1e-9);
        let mut table = TableBuilder::new("t").header(["m"]);
        row.push_full(&mut table);
        row.push_overall(&mut table);
        assert_eq!(table.n_rows(), 2);
    }

    #[test]
    fn single_class_rows_render_bias_as_not_available() {
        let eval =
            DomainEvaluation::from_names(&[1, 1, 1, 1], &[1, 0, 0, 1], &[0, 0, 1, 1], &["A", "B"]);
        let row = EvalRow::from_eval("collapsed", &eval);
        assert!(row.one_class);
        let mut table =
            TableBuilder::new("t").header(["m", "A", "B", "F1", "FNED", "FPED", "Total"]);
        row.push_full(&mut table);
        row.push_overall(&mut table);
        let rendered = table.render();
        let rows: Vec<&str> = rendered.lines().skip(3).collect();
        assert_eq!(rows.len(), 2);
        for line in rows {
            assert_eq!(line.matches("n/a").count(), 3, "{line}");
        }
    }

    #[test]
    fn quick_splits_are_smaller_than_full_corpora() {
        let opts = quick_opts();
        let split = chinese_split(&opts);
        assert!(split.train.len() + split.val.len() + split.test.len() < 9128);
        assert_eq!(split.train.n_domains(), 9);
        let english = english_split(&opts);
        assert_eq!(english.train.n_domains(), 3);
    }

    #[test]
    fn train_configs_follow_options() {
        let opts = quick_opts();
        assert_eq!(train_config(&opts).epochs, 1);
        assert_eq!(distill_config(&opts).epochs, 1);
        let full = RunOptions::default();
        assert_eq!(train_config(&full).epochs, 4);
    }
}
