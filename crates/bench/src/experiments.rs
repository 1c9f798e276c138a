//! Shared experiment machinery used by every table/figure binary.

use dtdbd_core::dat::{train_unbiased_teacher, DatConfig, DatMode};
use dtdbd_core::{evaluate, train_model, DistillConfig, DtdbdTrainer, TrainConfig};
use dtdbd_data::{
    english_spec, weibo21_spec, GeneratorConfig, MultiDomainDataset, NewsGenerator, Split,
};
use dtdbd_metrics::report::fmt4;
use dtdbd_metrics::{DomainEvaluation, TableBuilder};
use dtdbd_models::{
    BertMlp, BiGruModel, DualEmo, Eann, Eddfn, FakeNewsModel, M3Fend, Mdfend, Mmoe, ModelConfig,
    Mose, StyleLstm, TextCnnModel,
};
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
            let mut value = || {
                rest.next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("{flag} needs a non-negative integer"))
            };
            match flag.as_str() {
                "--quick" => opts.quick = true,
                "--seed" => opts.seed = value()?,
                "--epochs" => opts.epochs = Some(value()? as usize),
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

/// Train/val/test split of the English corpus (subsampled in `--quick` mode;
/// the full corpus has 28,764 items, so even the non-quick run subsamples the
/// two largest domains' training portion via fewer epochs rather than data).
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
#[derive(Debug, Clone)]
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

    /// Evaluate and convert to a table row.
    pub fn eval_row(&mut self, dataset: &MultiDomainDataset) -> EvalRow {
        let eval = self.evaluate(dataset);
        EvalRow::from_eval(self.model.name().to_string(), &eval)
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

/// Build a baseline by name.
///
/// # Panics
/// Panics on an unknown name.
pub fn build_baseline(
    name: &str,
    store: &mut ParamStore,
    config: &ModelConfig,
    rng: &mut Prng,
) -> Box<dyn FakeNewsModel> {
    match name {
        "BiGRU" => Box::new(BiGruModel::baseline(store, config, rng)),
        "BiGRU-S" => Box::new(BiGruModel::student(store, config, rng)),
        "TextCNN" => Box::new(TextCnnModel::baseline(store, config, rng)),
        "TextCNN-S" | "TextCNN-U" => Box::new(TextCnnModel::student(store, config, rng)),
        "BERT" => Box::new(BertMlp::bert(store, config, rng)),
        "RoBERTa" => Box::new(BertMlp::roberta(store, config, rng)),
        "StyleLSTM" => Box::new(StyleLstm::new(store, config, rng)),
        "DualEmo" => Box::new(DualEmo::new(store, config, rng)),
        "EANN" => Box::new(Eann::with_dat(store, config, rng)),
        "EANN_NoDAT" => Box::new(Eann::without_dat(store, config, rng)),
        "MMoE" => Box::new(Mmoe::new(store, config, rng)),
        "MoSE" => Box::new(Mose::new(store, config, rng)),
        "EDDFN" => Box::new(Eddfn::with_dat(store, config, rng)),
        "EDDFN_NoDAT" => Box::new(Eddfn::without_dat(store, config, rng)),
        "MDFEND" => Box::new(Mdfend::new(store, config, rng)),
        "M3FEND" => Box::new(M3Fend::new(store, config, rng)),
        other => panic!("unknown baseline {other}"),
    }
}

/// Train a baseline on the split's training portion and return both the row
/// (evaluated on the test portion) and the trained model.
pub fn run_baseline(name: &str, split: &Split, opts: &RunOptions) -> (EvalRow, TrainedModel) {
    let config = ModelConfig::for_dataset(&split.train);
    let mut store = ParamStore::new();
    let mut rng = Prng::new(opts.seed ^ 0xBA5E);
    let mut model = build_baseline(name, &mut store, &config, &mut rng);
    let tc = train_config(opts);
    train_model(&mut model, &mut store, &split.train, &tc);
    let mut trained = TrainedModel { model, store };
    let row = trained.eval_row(&split.test);
    (row, trained)
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

    /// Build a fresh, untrained student of this architecture.
    pub fn build(
        &self,
        store: &mut ParamStore,
        config: &ModelConfig,
        rng: &mut Prng,
    ) -> Box<dyn FakeNewsModel> {
        build_baseline(self.name(), store, config, rng)
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

/// Train a plain (undistilled) student of the given architecture.
pub fn train_plain_student(
    arch: StudentArch,
    split: &Split,
    opts: &RunOptions,
) -> (EvalRow, TrainedModel) {
    let (mut row, trained) = run_baseline(arch.name(), split, opts);
    row.name = "Student".to_string();
    (row, trained)
}

/// Train an adversarial (DAT or DAT-IE) student of the given architecture;
/// the returned model doubles as DTDBD's unbiased teacher.
pub fn train_adversarial_student(
    arch: StudentArch,
    mode: DatMode,
    split: &Split,
    opts: &RunOptions,
) -> (EvalRow, TrainedModel) {
    let config = ModelConfig::for_dataset(&split.train);
    let mut store = ParamStore::new();
    let mut rng = Prng::new(opts.seed ^ 0xDA7);
    let base = arch.build(&mut store, &config, &mut rng);
    let dat = DatConfig {
        mode,
        train: train_config(opts),
        ..DatConfig::default()
    };
    let (wrapped, _) =
        train_unbiased_teacher(base, &mut store, &config, &dat, &split.train, &mut rng);
    let name = wrapped.name().to_string();
    let mut trained = TrainedModel {
        model: Box::new(wrapped),
        store,
    };
    let eval = trained.evaluate(&split.test);
    (EvalRow::from_eval(name, &eval), trained)
}

/// Run the full DTDBD pipeline (Algorithm 1): train the clean teacher, train
/// the unbiased teacher with DAT-IE, then distil the student with both
/// teachers under the provided distillation configuration.
///
/// Teachers that the configuration disables (`use_add` / `use_dkd`) are not
/// trained at all, which is what the ablation rows of Table VIII need.
pub fn train_dtdbd(
    clean_kind: CleanTeacherKind,
    arch: StudentArch,
    split: &Split,
    opts: &RunOptions,
    distill: DistillConfig,
    row_name: &str,
) -> (EvalRow, TrainedModel) {
    let config = ModelConfig::for_dataset(&split.train);
    let tc = train_config(opts);

    // Clean teacher (frozen afterwards).
    let mut clean_store = ParamStore::new();
    let mut clean_rng = Prng::new(opts.seed ^ 0xC1EA);
    let mut clean = build_baseline(
        clean_kind.model_name(),
        &mut clean_store,
        &config,
        &mut clean_rng,
    );
    if distill.use_dkd {
        train_model(&mut clean, &mut clean_store, &split.train, &tc);
    }

    // Unbiased teacher (student architecture + DAT-IE, frozen afterwards).
    let mut unbiased_store = ParamStore::new();
    let mut unbiased_rng = Prng::new(opts.seed ^ 0x0B1A);
    let unbiased_base = arch.build(&mut unbiased_store, &config, &mut unbiased_rng);
    let dat = DatConfig {
        mode: DatMode::DatIe,
        train: tc.clone(),
        ..DatConfig::default()
    };
    let unbiased: Box<dyn FakeNewsModel> = if distill.use_add {
        let (wrapped, _) = train_unbiased_teacher(
            unbiased_base,
            &mut unbiased_store,
            &config,
            &dat,
            &split.train,
            &mut unbiased_rng,
        );
        Box::new(wrapped)
    } else {
        unbiased_base
    };

    // Student.
    let mut student_store = ParamStore::new();
    let mut student_rng = Prng::new(opts.seed ^ 0x57D);
    let mut student = arch.build(&mut student_store, &config, &mut student_rng);
    let trainer = DtdbdTrainer::new(distill);
    trainer.distill(
        &mut student,
        &mut student_store,
        &clean,
        &mut clean_store,
        &unbiased,
        &mut unbiased_store,
        &split.train,
        &split.val,
    );

    let mut trained = TrainedModel {
        model: student,
        store: student_store,
    };
    let eval = trained.evaluate(&split.test);
    (EvalRow::from_eval(row_name, &eval), trained)
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
        for name in baseline_names() {
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
