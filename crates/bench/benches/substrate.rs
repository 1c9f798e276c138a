//! Micro-benchmarks of the substrate: tensor algebra, autograd ops used by
//! the distillation losses, corpus generation, and t-SNE iterations. These
//! quantify the building blocks so the runtimes of the table binaries are
//! explainable. Run with `cargo bench --bench substrate`.

use dtdbd_bench::harness::bench;
use dtdbd_data::{weibo21_spec, GeneratorConfig, NewsGenerator};
use dtdbd_tensor::losses::{add_distillation_loss, kd_kl_loss};
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::{Graph, ParamStore, Tensor};
use dtdbd_viz::{Tsne, TsneConfig};
use std::hint::black_box;

fn bench_matmul() {
    let mut rng = Prng::new(1);
    let a = Tensor::randn(&[64, 128], 1.0, &mut rng);
    let b = Tensor::randn(&[128, 64], 1.0, &mut rng);
    bench("tensor/matmul 64x128x64", || {
        black_box(a.matmul(&b));
    });
}

fn bench_conv_forward_backward() {
    let mut rng = Prng::new(2);
    let mut store = ParamStore::new();
    let w = store.add("w", Tensor::randn(&[32, 3, 32], 0.2, &mut rng));
    let b = store.add("b", Tensor::zeros(&[32]));
    let x = Tensor::randn(&[64, 24, 32], 1.0, &mut rng);
    bench("autograd/conv1d+maxpool fwd+bwd (batch 64)", || {
        store.zero_grad();
        let mut g = Graph::new(&mut store, true, 0);
        let xv = g.constant(x.clone());
        let pooled = g.conv_relu_max(xv, w, b);
        let loss = g.mean_all(pooled);
        g.backward(loss);
        black_box(g.len());
    });
}

fn bench_distillation_losses() {
    let mut rng = Prng::new(3);
    let teacher_logits = Tensor::randn(&[64, 2], 1.0, &mut rng);
    let teacher_features = Tensor::randn(&[64, 64], 1.0, &mut rng);
    let mut store = ParamStore::new();
    let logits = store.add("logits", Tensor::randn(&[64, 2], 1.0, &mut rng));
    let features = store.add("features", Tensor::randn(&[64, 64], 1.0, &mut rng));
    bench("losses/L_DKD + L_ADD fwd+bwd (batch 64)", || {
        store.zero_grad();
        let mut g = Graph::new(&mut store, true, 0);
        let lv = g.param(logits);
        let fv = g.param(features);
        let dkd = kd_kl_loss(&mut g, lv, &teacher_logits, 4.0);
        let add = add_distillation_loss(&mut g, fv, &teacher_features, 4.0);
        let total = g.add(dkd, add);
        g.backward(total);
        black_box(g.value(total).item());
    });
}

fn bench_corpus_generation() {
    let generator = NewsGenerator::new(weibo21_spec(), GeneratorConfig::default());
    bench("data/generate weibo21-like corpus (9,128 items)", || {
        black_box(generator.generate(7).len());
    });
}

fn bench_tsne() {
    let mut rng = Prng::new(5);
    let data = Tensor::randn(&[200, 32], 1.0, &mut rng);
    let tsne = Tsne::new(TsneConfig {
        iterations: 50,
        ..TsneConfig::quick()
    });
    bench("viz/t-SNE 200 points, 50 iterations", || {
        black_box(tsne.embed(&data));
    });
}

fn main() {
    bench_matmul();
    bench_conv_forward_backward();
    bench_distillation_losses();
    bench_corpus_generation();
    bench_tsne();
}
