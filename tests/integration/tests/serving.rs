//! Cross-crate serving scenario: a student trained by `dtdbd-core` is
//! checkpointed, restored by `dtdbd-serve`, and answers live traffic through
//! the micro-batching server with the same numbers the training engine
//! produces.

use dtdbd_core::{predict_fake_probs, train_model, TrainConfig};
use dtdbd_data::{weibo21_spec, GeneratorConfig, InferenceRequest, NewsGenerator};
use dtdbd_models::{ModelConfig, TextCnnModel};
use dtdbd_serve::{BatchingConfig, Checkpoint, ServerBuilder};
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::ParamStore;
use std::time::Duration;

#[test]
fn trained_student_survives_checkpointing_and_serves_correctly() {
    let ds = NewsGenerator::new(weibo21_spec(), GeneratorConfig::tiny()).generate_scaled(21, 0.04);
    let split = ds.split(0.7, 0.1, 21);
    let cfg = ModelConfig::tiny(&ds);
    let mut store = ParamStore::new();
    let mut model = TextCnnModel::student(&mut store, &cfg, &mut Prng::new(2));
    train_model(
        &mut model,
        &mut store,
        &split.train,
        &TrainConfig {
            epochs: 2,
            batch_size: 32,
            ..TrainConfig::default()
        },
    );

    // Reference: the trainer's own evaluation path over the test set.
    let reference = predict_fake_probs(&model, &mut store, &split.test, 64);

    // Deploy: byte-level checkpoint round trip into the server.
    let checkpoint = Checkpoint::capture(&model, &store);
    let checkpoint = Checkpoint::from_bytes(&checkpoint.to_bytes()).unwrap();
    let server = ServerBuilder::new()
        .batching(BatchingConfig {
            max_batch_size: 16,
            max_wait: Duration::from_millis(1),
            workers: 2,
        })
        .try_start_from_checkpoint(&checkpoint)
        .unwrap();

    let n = split.test.len().min(100);
    let handles: Vec<_> = split.test.items()[..n]
        .iter()
        .map(|item| {
            let request = InferenceRequest {
                tokens: item.tokens.clone(),
                domain: item.domain,
                style: Some(item.style.clone()),
                emotion: Some(item.emotion.clone()),
            };
            server.submit(&request).unwrap()
        })
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        let prediction = handle.wait().unwrap();
        assert!(
            (prediction.fake_prob - reference[i]).abs() <= 1e-6,
            "item {i}: served {} vs trainer {}",
            prediction.fake_prob,
            reference[i]
        );
    }
}
