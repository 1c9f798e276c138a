//! End-to-end DTDBD on the Chinese (Weibo21-like) corpus: train the clean
//! teacher (M3FEND) and the unbiased teacher (TextCNN-S + DAT-IE), distil the
//! student with both, and compare it against the plain student and the two
//! teachers it learned from.
//!
//! Run with:
//! ```text
//! cargo run --release -p dtdbd-bench --example weibo_debias
//! ```

use dtdbd_bench::experiments::{
    Ablation, CleanTeacherKind, Pipeline, Role, RunOptions, StudentArch,
};
use dtdbd_core::dat::DatMode;
use dtdbd_data::{weibo21_spec, GeneratorConfig, NewsGenerator};
use dtdbd_metrics::TableBuilder;

fn main() {
    let opts = RunOptions {
        quick: false,
        seed: 42,
        epochs: Some(3),
    };
    let dataset = NewsGenerator::new(weibo21_spec(), GeneratorConfig::default())
        .generate_scaled(opts.seed, 0.3);
    let split = dataset.split(0.7, 0.1, opts.seed);
    let mut pipeline = Pipeline::new(&split, &opts);

    let student = StudentArch::TextCnn;
    let ours = Role::Dtdbd(CleanTeacherKind::M3Fend, student, Ablation::Full);
    let mut table = TableBuilder::new("Plain student, both teachers and DTDBD (Chinese test set)")
        .header(["Model", "F1", "FNED", "FPED", "Total"]);
    for role in [
        Role::Student(student),
        Role::Baseline(CleanTeacherKind::M3Fend.model_name()),
        Role::Adversarial(student, DatMode::DatIe),
        ours,
    ] {
        pipeline.row(role).push_overall(&mut table);
    }
    let report = pipeline.report(ours).expect("a DTDBD model has a report");
    println!(
        "teacher weights per epoch (w_ADD, w_DKD): {:?}",
        report.weight_history
    );
    println!("{}", table.render());
}
