//! DTDBD on the English corpus (GossipCop / PolitiFact / COVID): shows the
//! three-domain setting the paper evaluates in Table VII, where domains differ
//! strongly in content and in fake-news prevalence.
//!
//! Run with:
//! ```text
//! cargo run --release -p dtdbd-bench --example english_crossdomain
//! ```

use dtdbd_bench::experiments::{
    distill_config, run_baseline, train_dtdbd, CleanTeacherKind, RunOptions, StudentArch,
};
use dtdbd_data::{english_spec, GeneratorConfig, NewsGenerator};
use dtdbd_metrics::TableBuilder;

fn main() {
    let opts = RunOptions {
        quick: true,
        seed: 42,
        epochs: Some(3),
    };
    let dataset =
        NewsGenerator::new(english_spec(), GeneratorConfig::default()).generate_scaled(42, 0.12);
    println!(
        "english corpus sample: {} items, fake rates per domain: {:?}",
        dataset.len(),
        dataset
            .stats()
            .fake_pct()
            .iter()
            .map(|p| format!("{p:.1}%"))
            .collect::<Vec<_>>()
    );
    let split = dataset.split(0.7, 0.1, 42);

    let mut table = TableBuilder::new("English corpus — baselines vs DTDBD")
        .header(["Method", "F1", "FNED", "FPED", "Total"]);
    for name in ["TextCNN", "MDFEND", "M3FEND"] {
        println!("training {name} ...");
        let (row, _) = run_baseline(name, &split, &opts);
        row.push_overall(&mut table);
    }
    println!("running DTDBD (clean teacher M3FEND) ...");
    let (row, _) = train_dtdbd(
        CleanTeacherKind::M3Fend,
        StudentArch::TextCnn,
        &split,
        &opts,
        distill_config(&opts),
        "Our(M3)",
    );
    row.push_overall(&mut table);
    println!("{}", table.render());
}
