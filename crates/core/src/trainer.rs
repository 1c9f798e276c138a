//! Generic supervised training and evaluation of fake-news models.

use dtdbd_data::{Batch, BatchIter, MultiDomainDataset};
use dtdbd_metrics::DomainEvaluation;
use dtdbd_models::{FakeNewsModel, ModelOutput};
use dtdbd_tensor::optim::Adam;
use dtdbd_tensor::{BufferPool, Graph, ParamStore, Tensor, Var};

/// Hyper-parameters of plain supervised training.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Global gradient-norm clip (0 disables clipping).
    pub grad_clip: f32,
    /// Seed controlling shuffling and dropout.
    pub seed: u64,
    /// Print one line per epoch to stderr.
    pub verbose: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 5,
            batch_size: 64,
            learning_rate: 1e-3,
            grad_clip: 5.0,
            seed: 42,
            verbose: false,
        }
    }
}

impl TrainConfig {
    /// A faster configuration used by tests and `--quick` runs.
    pub fn quick() -> Self {
        Self {
            epochs: 2,
            batch_size: 64,
            ..Self::default()
        }
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean training loss of each epoch.
    pub epoch_losses: Vec<f32>,
    /// Number of optimization steps taken.
    pub steps: usize,
}

impl TrainReport {
    /// Loss of the final epoch.
    pub fn final_loss(&self) -> f32 {
        *self.epoch_losses.last().expect("at least one epoch")
    }
}

/// Train a model with cross-entropy (plus its domain-adversarial and
/// auxiliary terms, if the model produces them).
pub fn train_model<M: FakeNewsModel>(
    model: &mut M,
    store: &mut ParamStore,
    train: &MultiDomainDataset,
    config: &TrainConfig,
) -> TrainReport {
    let mut optimizer = Adam::new(config.learning_rate);
    let mut epoch_losses = Vec::with_capacity(config.epochs);
    let mut steps = 0usize;
    for epoch in 0..config.epochs {
        let mut epoch_loss = 0.0f32;
        let mut n_batches = 0usize;
        for batch in epoch_batches(train, config.batch_size, config.seed, epoch) {
            let loss = train_step(model, store, &batch, &mut optimizer, config, steps as u64);
            epoch_loss += loss;
            n_batches += 1;
            steps += 1;
        }
        let mean = epoch_loss / n_batches.max(1) as f32;
        if config.verbose {
            eprintln!("[{}] epoch {epoch}: loss {mean:.4}", model.name());
        }
        epoch_losses.push(mean);
    }
    TrainReport {
        epoch_losses,
        steps,
    }
}

/// One optimization step on a single batch; returns the batch loss.
pub fn train_step<M: FakeNewsModel>(
    model: &mut M,
    store: &mut ParamStore,
    batch: &Batch,
    optimizer: &mut Adam,
    config: &TrainConfig,
    step_seed: u64,
) -> f32 {
    let domain_weight = model.domain_loss_weight();
    let seed = config.seed ^ step_seed.wrapping_mul(0x9E37_79B9);
    optimise(
        model,
        store,
        batch,
        optimizer,
        config.grad_clip,
        seed,
        |g, out, mut loss| {
            if let Some(domain_logits) = out.domain_logits {
                if domain_weight > 0.0 {
                    let dl = g.cross_entropy_logits(domain_logits, &batch.domains);
                    let weighted = g.scale(dl, domain_weight);
                    loss = g.add(loss, weighted);
                }
            }
            if let Some(aux) = out.aux_loss {
                loss = g.add(loss, aux);
            }
            loss
        },
    )
}

/// The shuffled mini-batches of one training or distillation epoch.
pub(crate) fn epoch_batches(
    train: &MultiDomainDataset,
    batch_size: usize,
    seed: u64,
    epoch: usize,
) -> BatchIter<'_> {
    BatchIter::new(train, batch_size, seed ^ ((epoch as u64) << 8), false)
}

/// The optimisation step every trainer shares: a training-mode forward pass
/// with dropout seeded by `seed`, the label cross-entropy plus whatever
/// `terms` adds to it, backward, gradient clipping (`grad_clip` > 0), one
/// Adam step and the model's `post_batch` hook. Returns the batch loss.
pub(crate) fn optimise<M: FakeNewsModel>(
    model: &mut M,
    store: &mut ParamStore,
    batch: &Batch,
    optimizer: &mut Adam,
    grad_clip: f32,
    seed: u64,
    terms: impl FnOnce(&mut Graph<'_>, &ModelOutput, Var) -> Var,
) -> f32 {
    store.zero_grad();
    let mut g = Graph::new(store, true, seed);
    let out = model.forward(&mut g, batch);
    let ce = g.cross_entropy_logits(out.logits, &batch.labels);
    let loss = terms(&mut g, &out, ce);
    let value = g.value(loss).item();
    g.backward(loss);
    let features = g.value(out.features).clone();
    drop(g);
    if grad_clip > 0.0 {
        store.clip_grad_norm(grad_clip);
    }
    optimizer.step(store);
    model.post_batch(&features, &batch.domains);
    value
}

/// Evaluate a model on a dataset with tape-free forward passes, producing
/// the per-domain metrics used by every table of the paper.
pub fn evaluate<M: FakeNewsModel>(
    model: &M,
    store: &mut ParamStore,
    dataset: &MultiDomainDataset,
    batch_size: usize,
) -> DomainEvaluation {
    let predictions =
        output_rows(model, store, dataset, batch_size, |out| out.logits).argmax_rows();
    let labels: Vec<usize> = dataset.items().iter().map(|item| item.label).collect();
    let domains: Vec<usize> = dataset.items().iter().map(|item| item.domain).collect();
    let names: Vec<String> = dataset
        .domain_names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    DomainEvaluation::new(&predictions, &labels, &domains, &names)
}

/// Predicted probability of the *fake* class for every item of a dataset
/// in dataset order (used by the Figure 3 case studies).
pub fn predict_fake_probs<M: FakeNewsModel>(
    model: &M,
    store: &mut ParamStore,
    dataset: &MultiDomainDataset,
    batch_size: usize,
) -> Vec<f32> {
    let probs = output_rows(model, store, dataset, batch_size, |out| out.logits).softmax_rows();
    (0..probs.shape()[0]).map(|i| probs.at2(i, 1)).collect()
}

/// Extract the intermediate features of every item (dataset order), together
/// with the items' domain and veracity labels. Used for the t-SNE plot
/// (Figure 2) and to drive the unbiased teacher's correlation knowledge.
pub fn extract_features<M: FakeNewsModel>(
    model: &M,
    store: &mut ParamStore,
    dataset: &MultiDomainDataset,
    batch_size: usize,
) -> (Tensor, Vec<usize>, Vec<usize>) {
    let features = output_rows(model, store, dataset, batch_size, |out| out.features);
    let domains = dataset.items().iter().map(|item| item.domain).collect();
    let labels = dataset.items().iter().map(|item| item.label).collect();
    (features, domains, labels)
}

/// One tape-free evaluation-mode forward pass over `dataset` in batches of
/// `batch_size`, collecting the output `pick` selects into a
/// `[dataset.len(), width]` tensor whose row `i` belongs to item `i`.
pub(crate) fn output_rows<M: FakeNewsModel>(
    model: &M,
    store: &mut ParamStore,
    dataset: &MultiDomainDataset,
    batch_size: usize,
    pick: impl Fn(&ModelOutput) -> Var,
) -> Tensor {
    let mut rows = Vec::new();
    let mut width = 0;
    let mut pool = BufferPool::new();
    for batch in BatchIter::new(dataset, batch_size, 0, false) {
        let mut g = Graph::inference(store, &mut pool);
        let out = model.forward(&mut g, &batch);
        let values = g.value(pick(&out));
        width = values.shape()[1];
        rows.resize(dataset.len() * width, 0.0);
        for (row, &idx) in batch.indices.iter().enumerate() {
            rows[idx * width..(idx + 1) * width].copy_from_slice(values.row(row));
        }
        g.finish();
    }
    Tensor::new(vec![dataset.len(), width], rows)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dtdbd_data::{weibo21_spec, GeneratorConfig, NewsGenerator};
    use dtdbd_models::{ModelConfig, TextCnnModel};
    use dtdbd_tensor::rng::Prng;

    fn tiny_dataset() -> MultiDomainDataset {
        NewsGenerator::new(weibo21_spec(), GeneratorConfig::tiny()).generate_scaled(3, 0.04)
    }

    pub(crate) fn bits32(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// FNV-1a over the bits of every parameter value, in store order.
    pub(crate) fn param_bits_hash(store: &ParamStore) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (_, p) in store.iter() {
            for v in p.value.data() {
                for b in v.to_bits().to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        h
    }

    /// A fixed-seed tiny `train_model` run per branch of `train_step`:
    /// cross-entropy alone (TextCNN-S), the domain term plus the
    /// reconstruction `aux_loss` (EDDFN with DAT), and the `post_batch`
    /// memory update (M3FEND). Every bit of the outcome is pinned.
    #[test]
    fn train_model_reproduces_its_golden_runs_exactly() {
        let split = tiny_dataset().split(0.7, 0.1, 1);
        let cfg = ModelConfig::tiny(&split.train);
        let tc = TrainConfig {
            epochs: 3,
            batch_size: 32,
            ..TrainConfig::default()
        };
        let runs = [
            (
                "TextCNN-S",
                0x9586_0126_2902_002b,
                [0.7357324, 0.7042636, 0.69141424],
            ),
            (
                "EDDFN",
                0x5cde_654c_0f2f_5779,
                [2.9583135, 2.9694762, 2.9613752],
            ),
            (
                "M3FEND",
                0x89f5_1f0b_017b_7710,
                [0.70954776, 0.66189563, 0.6212077],
            ),
        ];
        for (name, params, losses) in runs {
            let mut store = ParamStore::new();
            let mut model = dtdbd_models::build(name, &mut store, &cfg, &mut Prng::new(5))
                .expect("a zoo model");
            let report = train_model(&mut model, &mut store, &split.train, &tc);
            assert_eq!(report.steps, 3 * split.train.len().div_ceil(32), "{name}");
            assert_eq!(param_bits_hash(&store), params, "{name}: parameters");
            assert_eq!(
                bits32(&report.epoch_losses),
                bits32(&losses),
                "{name}: epoch losses {:?}",
                report.epoch_losses
            );
        }
    }

    #[test]
    fn training_reduces_loss_and_beats_chance() {
        let ds = tiny_dataset();
        let split = ds.split(0.7, 0.1, 1);
        let cfg = ModelConfig::tiny(&split.train);
        let mut store = ParamStore::new();
        let mut model = TextCnnModel::student(&mut store, &cfg, &mut Prng::new(1));
        let tc = TrainConfig {
            epochs: 4,
            batch_size: 32,
            ..TrainConfig::default()
        };
        let report = train_model(&mut model, &mut store, &split.train, &tc);
        assert_eq!(report.epoch_losses.len(), 4);
        assert!(report.final_loss() < report.epoch_losses[0]);

        let eval = evaluate(&model, &mut store, &split.test, 64);
        assert!(
            eval.overall_f1() > 0.6,
            "trained student should beat chance, F1 {}",
            eval.overall_f1()
        );
    }

    #[test]
    fn evaluation_covers_every_test_item() {
        let ds = tiny_dataset();
        let split = ds.split(0.7, 0.1, 2);
        let cfg = ModelConfig::tiny(&split.train);
        let mut store = ParamStore::new();
        let model = TextCnnModel::student(&mut store, &cfg, &mut Prng::new(2));
        let eval = evaluate(&model, &mut store, &split.test, 32);
        assert_eq!(eval.overall().total(), split.test.len());
    }

    #[test]
    fn fake_probs_align_with_dataset_order_and_are_probabilities() {
        let ds = tiny_dataset().subsample(0.3, 3);
        let cfg = ModelConfig::tiny(&ds);
        let mut store = ParamStore::new();
        let model = TextCnnModel::student(&mut store, &cfg, &mut Prng::new(3));
        let probs = predict_fake_probs(&model, &mut store, &ds, 32);
        assert_eq!(probs.len(), ds.len());
        assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn extracted_features_have_dataset_order_and_right_shape() {
        let ds = tiny_dataset().subsample(0.3, 4);
        let cfg = ModelConfig::tiny(&ds);
        let mut store = ParamStore::new();
        let model = TextCnnModel::student(&mut store, &cfg, &mut Prng::new(4));
        let (features, domains, labels) = extract_features(&model, &mut store, &ds, 32);
        assert_eq!(features.shape(), &[ds.len(), model.feature_dim()]);
        assert_eq!(domains.len(), ds.len());
        assert_eq!(labels.len(), ds.len());
        for (i, item) in ds.items().iter().enumerate() {
            assert_eq!(domains[i], item.domain);
            assert_eq!(labels[i], item.label);
        }
    }
}
