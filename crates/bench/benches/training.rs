//! Benchmarks of whole training steps: one supervised step of the student and
//! one full DTDBD distillation step (teacher forwards + student
//! forward/backward + optimizer update). These are the per-batch costs behind
//! Tables VI–VIII. Run with `cargo bench --bench training`.

use dtdbd_bench::harness::{bench_with, BenchConfig};
use dtdbd_core::{train_step, DistillConfig, DtdbdTrainer, TrainConfig};
use dtdbd_data::{weibo21_spec, BatchIter, GeneratorConfig, NewsGenerator};
use dtdbd_models::{FakeNewsModel, M3Fend, ModelConfig, TextCnnModel};
use dtdbd_tensor::optim::Adam;
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::ParamStore;
use std::hint::black_box;
use std::time::Duration;

fn config() -> BenchConfig {
    BenchConfig {
        warmup_iters: 1,
        budget: Duration::from_secs(3),
        min_iters: 10,
        max_iters: 200,
    }
}

fn bench_student_step() {
    let ds =
        NewsGenerator::new(weibo21_spec(), GeneratorConfig::default()).generate_scaled(1, 0.05);
    let cfg = ModelConfig::for_dataset(&ds);
    let mut store = ParamStore::new();
    let mut model = TextCnnModel::student(&mut store, &cfg, &mut Prng::new(1));
    let batch = BatchIter::new(&ds, 64, 0, false).next().unwrap();
    let tc = TrainConfig::default();
    let mut opt = Adam::new(1e-3);
    bench_with(
        &config(),
        "training/supervised step TextCNN-S (batch 64)",
        &mut || {
            black_box(train_step(&mut model, &mut store, &batch, &mut opt, &tc, 0));
        },
    );
}

fn bench_distill_epoch() {
    let ds =
        NewsGenerator::new(weibo21_spec(), GeneratorConfig::default()).generate_scaled(2, 0.03);
    let split = ds.split(0.7, 0.1, 1);
    let cfg = ModelConfig::for_dataset(&split.train);

    let mut clean_store = ParamStore::new();
    let clean = M3Fend::new(&mut clean_store, &cfg, &mut Prng::new(2));
    let mut unbiased_store = ParamStore::new();
    let unbiased = TextCnnModel::student(&mut unbiased_store, &cfg, &mut Prng::new(3));
    let mut student_store = ParamStore::new();
    let mut student = TextCnnModel::student(&mut student_store, &cfg, &mut Prng::new(4));

    let distill = DistillConfig {
        epochs: 1,
        batch_size: 64,
        ..DistillConfig::default()
    };
    let trainer = DtdbdTrainer::new(distill);
    bench_with(
        &config(),
        "training/one DTDBD distillation epoch (small corpus)",
        &mut || {
            let report = trainer.distill(
                &mut student,
                &mut student_store,
                &clean,
                &mut clean_store,
                &unbiased,
                &mut unbiased_store,
                &split.train,
                &split.val,
            );
            black_box(report.epoch_losses[0]);
        },
    );
    // Silence the unused-warning on the trait import used for model names.
    let _ = student.name();
}

fn main() {
    bench_student_step();
    bench_distill_epoch();
}
