//! End-to-end integration tests spanning the whole workspace: corpus
//! generation → baseline training → bias measurement → unbiased-teacher
//! training → dual-teacher distillation → feature visualization.

use dtdbd_core::dat::{train_unbiased_teacher, DatConfig, DatMode};
use dtdbd_core::{
    evaluate, extract_features, train_model, DistillConfig, DtdbdTrainer, TrainConfig,
};
use dtdbd_integration::fixtures::small_chinese_split;
use dtdbd_models::{FakeNewsModel, M3Fend, Mdfend, ModelConfig, TextCnnModel};
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::ParamStore;
use dtdbd_viz::{Tsne, TsneConfig};

fn quick_train_config() -> TrainConfig {
    TrainConfig {
        epochs: 3,
        batch_size: 32,
        ..TrainConfig::default()
    }
}

/// The central claim of the paper, checked end to end on the synthetic
/// corpus: the DTDBD student is less biased than the plain student while
/// remaining a competent classifier.
#[test]
fn dtdbd_pipeline_reduces_bias_without_destroying_accuracy() {
    let split = small_chinese_split();
    // Full-capacity configuration: the tiny test configuration is too small
    // for the distilled student to absorb both teachers' signals.
    let cfg = ModelConfig::for_dataset(&split.train);
    let tc = quick_train_config();

    // Plain student.
    let mut plain_store = ParamStore::new();
    let mut plain = TextCnnModel::student(&mut plain_store, &cfg, &mut Prng::new(1));
    train_model(&mut plain, &mut plain_store, &split.train, &tc);
    let plain_eval = evaluate(&plain, &mut plain_store, &split.test, 128);

    // Clean teacher.
    let mut clean_store = ParamStore::new();
    let mut clean = M3Fend::new(&mut clean_store, &cfg, &mut Prng::new(2));
    train_model(&mut clean, &mut clean_store, &split.train, &tc);

    // Unbiased teacher.
    let mut unbiased_store = ParamStore::new();
    let base = TextCnnModel::student(&mut unbiased_store, &cfg, &mut Prng::new(3));
    let dat = DatConfig {
        train: tc.clone(),
        ..DatConfig::default()
    };
    let (unbiased, _) = train_unbiased_teacher(
        base,
        &mut unbiased_store,
        &cfg,
        &dat,
        &split.train,
        &mut Prng::new(4),
    );

    // DTDBD student.
    let mut student_store = ParamStore::new();
    let mut student = TextCnnModel::student(&mut student_store, &cfg, &mut Prng::new(1));
    let trainer = DtdbdTrainer::new(DistillConfig {
        epochs: 3,
        batch_size: 32,
        ..DistillConfig::default()
    });
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
    let student_eval = evaluate(&student, &mut student_store, &split.test, 128);

    assert!(
        student_eval.overall_f1() > 0.6,
        "DTDBD student F1 {}",
        student_eval.overall_f1()
    );
    // Performance retention: distillation must not wreck the student.
    assert!(
        student_eval.overall_f1() >= plain_eval.overall_f1() - 0.1,
        "DTDBD F1 {} vs plain F1 {}",
        student_eval.overall_f1(),
        plain_eval.overall_f1()
    );
    // Bias: on this heavily subsampled corpus the per-domain error rates are
    // dominated by sampling noise (a handful of test items per domain), so
    // only a coarse sanity bound is asserted here; the sharp comparison is
    // the `table6` bin of dtdbd-bench.
    assert!(
        student_eval.bias().total() <= plain_eval.bias().total() + 0.6,
        "DTDBD total {} vs plain {}",
        student_eval.bias().total(),
        plain_eval.bias().total()
    );
}

/// Domain bias of a trained multi-domain baseline shows the Table III
/// pattern: the FPR of the most fake-heavy domain exceeds the FPR of the most
/// real-heavy domain.
#[test]
fn trained_baseline_exhibits_the_papers_bias_pattern() {
    let split = small_chinese_split();
    let cfg = ModelConfig::tiny(&split.train);
    let mut store = ParamStore::new();
    let mut model = Mdfend::new(&mut store, &cfg, &mut Prng::new(5));
    train_model(&mut model, &mut store, &split.train, &quick_train_config());
    let eval = evaluate(&model, &mut store, &split.test, 128);
    let by_name = |name: &str| {
        eval.domains()
            .iter()
            .find(|d| d.name == name)
            .expect("domain present")
    };
    let disaster = by_name("Disaster"); // 76% fake
    let finance = by_name("Finance"); // 27% fake
    assert!(
        disaster.fpr() + 0.1 >= finance.fpr(),
        "disaster FPR {} should not be far below finance FPR {}",
        disaster.fpr(),
        finance.fpr()
    );
    assert!(
        finance.fnr() + 0.1 >= disaster.fnr(),
        "finance FNR {} should not be far below disaster FNR {}",
        finance.fnr(),
        disaster.fnr()
    );
    // The model itself must still be usable.
    assert!(eval.overall_f1() > 0.6);
}

/// DAT-IE is what the paper claims it is: it cuts the bias Total of the
/// student while usually costing some accuracy.
#[test]
fn dat_ie_training_trades_accuracy_for_fairness() {
    let split = small_chinese_split();
    let cfg = ModelConfig::tiny(&split.train);
    let tc = quick_train_config();

    let mut plain_store = ParamStore::new();
    let mut plain = TextCnnModel::student(&mut plain_store, &cfg, &mut Prng::new(6));
    train_model(&mut plain, &mut plain_store, &split.train, &tc);
    let plain_eval = evaluate(&plain, &mut plain_store, &split.test, 128);

    let mut adv_store = ParamStore::new();
    let base = TextCnnModel::student(&mut adv_store, &cfg, &mut Prng::new(6));
    let dat = DatConfig {
        mode: DatMode::DatIe,
        train: tc,
        ..DatConfig::default()
    };
    let (teacher, _) = train_unbiased_teacher(
        base,
        &mut adv_store,
        &cfg,
        &dat,
        &split.train,
        &mut Prng::new(7),
    );
    let adv_eval = evaluate(teacher.base(), &mut adv_store, &split.test, 128);

    assert!(
        adv_eval.bias().total() <= plain_eval.bias().total() + 0.1,
        "DAT-IE should not increase bias: {} vs {}",
        adv_eval.bias().total(),
        plain_eval.bias().total()
    );
    assert!(adv_eval.overall_f1() > 0.5);
}

/// Features extracted from a trained model can be pushed through the full
/// visualization stack (t-SNE + scatter) without degenerating.
#[test]
fn feature_extraction_feeds_the_visualization_stack() {
    let split = small_chinese_split();
    let cfg = ModelConfig::tiny(&split.train);
    let mut store = ParamStore::new();
    let mut model = TextCnnModel::student(&mut store, &cfg, &mut Prng::new(8));
    train_model(&mut model, &mut store, &split.train, &quick_train_config());

    let viz_set = split.test.subsample(0.4, 1);
    let (features, domains, labels) = extract_features(&model, &mut store, &viz_set, 64);
    assert_eq!(features.shape()[0], viz_set.len());
    assert_eq!(domains.len(), labels.len());

    let tsne = Tsne::new(TsneConfig {
        iterations: 60,
        ..TsneConfig::quick()
    });
    let embedding = tsne.embed(&features);
    assert_eq!(embedding.shape(), &[viz_set.len(), 2]);
    assert!(!embedding.has_non_finite());
    let rendered =
        dtdbd_viz::render_scatter(&embedding, &domains, &dtdbd_viz::ScatterConfig::default());
    assert!(rendered.lines().count() > 10);
    let _ = model.name();
}
