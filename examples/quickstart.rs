//! Quickstart: generate a small multi-domain corpus, train a student model,
//! and print its per-domain performance and bias metrics.
//!
//! Run with:
//! ```text
//! cargo run --release -p dtdbd-bench --example quickstart
//! ```

use dtdbd_core::{evaluate, train_model, TrainConfig};
use dtdbd_data::{weibo21_spec, GeneratorConfig, NewsGenerator};
use dtdbd_metrics::TableBuilder;
use dtdbd_models::{FakeNewsModel, ModelConfig, TextCnnModel};
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::ParamStore;

fn main() {
    // 1. A Weibo21-like corpus at 20% scale (fast, same per-domain ratios).
    let generator = NewsGenerator::new(weibo21_spec(), GeneratorConfig::default());
    let dataset = generator.generate_scaled(42, 0.2);
    let (n_items, n_domains) = (dataset.len(), dataset.n_domains());
    let split = dataset.split(0.7, 0.1, 42);
    println!(
        "corpus: {} items across {} domains ({} train / {} val / {} test)",
        n_items,
        n_domains,
        split.train.len(),
        split.val.len(),
        split.test.len()
    );

    // 2. A TextCNN-S student over the frozen simulated pre-trained encoder.
    let config = ModelConfig::for_dataset(&split.train);
    let mut store = ParamStore::new();
    let mut model = TextCnnModel::student(&mut store, &config, &mut Prng::new(1));
    println!(
        "model: {} with {} trainable parameters",
        model.name(),
        store.num_trainable_scalars()
    );

    // 3. Train and evaluate.
    let train_cfg = TrainConfig {
        epochs: 3,
        verbose: true,
        ..TrainConfig::default()
    };
    train_model(&mut model, &mut store, &split.train, &train_cfg);
    let eval = evaluate(&model, &mut store, &split.test, 256);

    let mut table = TableBuilder::new("Quickstart — plain student on the test set")
        .header(["Domain", "F1", "FNR", "FPR"]);
    for d in eval.domains() {
        table.metric_row(&d.name, &[d.f1(), d.fnr(), d.fpr()], 4);
    }
    println!("{}", table.render());
    let bias = eval.bias();
    println!(
        "overall F1 {:.4} | FNED {:.4} FPED {:.4} Total {:.4}",
        eval.overall_f1(),
        bias.fned,
        bias.fped,
        bias.total()
    );
    println!(
        "note the spread of FNR/FPR across domains — that spread is the domain bias DTDBD removes."
    );
}
