//! Tape-free inference equivalence: for each student architecture the
//! `InferenceSession` must reproduce the `Graph` (tape) forward pass within
//! 1e-6 — on random weights, on trained weights, and after a checkpoint
//! round trip through a fresh process-like rebuild.

use dtdbd_core::{train_model, TrainConfig};
use dtdbd_data::{weibo21_spec, BatchIter, GeneratorConfig, MultiDomainDataset, NewsGenerator};
use dtdbd_models::{BiGruModel, FakeNewsModel, ModelConfig, TextCnnModel};
use dtdbd_serve::{session_from_checkpoint, Checkpoint, InferenceSession};
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::{Graph, ParamStore, Tensor};

fn dataset() -> MultiDomainDataset {
    NewsGenerator::new(weibo21_spec(), GeneratorConfig::tiny()).generate_scaled(3, 0.03)
}

/// Evaluation-mode tape forward, returning the logits.
fn tape_logits<M: FakeNewsModel>(
    model: &M,
    store: &mut ParamStore,
    batch: &dtdbd_data::Batch,
) -> Tensor {
    let mut g = Graph::new(store, false, 0);
    let out = model.forward(&mut g, batch);
    g.value(out.logits).clone()
}

fn assert_close(label: &str, tape: &Tensor, served: &[dtdbd_serve::Prediction]) {
    assert_eq!(tape.shape()[0], served.len(), "{label}: batch size");
    for (i, prediction) in served.iter().enumerate() {
        for (c, &logit) in prediction.logits.iter().enumerate() {
            let reference = tape.at2(i, c);
            assert!(
                (logit - reference).abs() <= 1e-6,
                "{label}: item {i} class {c}: session {logit} vs tape {reference}"
            );
        }
    }
}

fn exercise_student<M, F>(label: &str, build: F)
where
    M: FakeNewsModel,
    F: Fn(&mut ParamStore, &ModelConfig, &mut Prng) -> M,
{
    let ds = dataset();
    let cfg = ModelConfig::tiny(&ds);

    // Random weights.
    let mut store = ParamStore::new();
    let model = build(&mut store, &cfg, &mut Prng::new(11));
    let batch = BatchIter::new(&ds, 24, 5, false).next().unwrap();
    let reference = tape_logits(&model, &mut store, &batch);
    let mut session = InferenceSession::new(model, store);
    let predictions = session.predict_batch(&batch);
    assert_close(&format!("{label}/random"), &reference, &predictions);

    // Trained weights (a couple of epochs is enough to move every layer).
    let split = ds.split(0.7, 0.1, 5);
    let mut store = ParamStore::new();
    let mut model = build(&mut store, &cfg, &mut Prng::new(12));
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
    let reference = tape_logits(&model, &mut store, &batch);
    let arch = model.name().to_string();
    let checkpoint = Checkpoint::new(&arch, &cfg, &store);
    let mut session = InferenceSession::new(model, store);
    let predictions = session.predict_batch(&batch);
    assert_close(&format!("{label}/trained"), &reference, &predictions);

    // After a byte-level checkpoint round trip into a rebuilt architecture.
    let decoded = Checkpoint::from_bytes(&checkpoint.to_bytes()).unwrap();
    let mut restored = session_from_checkpoint(&decoded).unwrap();
    let predictions = restored.predict_batch(&batch);
    assert_close(&format!("{label}/restored"), &reference, &predictions);

    // Batched and unbatched serving agree with each other too.
    let single: Vec<dtdbd_serve::Prediction> = (0..batch.batch_size)
        .map(|i| {
            let item_tokens = batch.token_ids[i * batch.seq_len..(i + 1) * batch.seq_len].to_vec();
            let request = dtdbd_data::InferenceRequest {
                tokens: item_tokens,
                domain: batch.domains[i],
                style: Some(batch.style.row(i).to_vec()),
                emotion: Some(batch.emotion.row(i).to_vec()),
            };
            let encoded = restored.encoder().encode(&request).unwrap();
            restored.predict_requests(&[encoded]).remove(0)
        })
        .collect();
    for (i, (one, many)) in single.iter().zip(predictions.iter()).enumerate() {
        assert!(
            (one.fake_prob - many.fake_prob).abs() <= 1e-6,
            "{label}: item {i}: unbatched {} vs batched {}",
            one.fake_prob,
            many.fake_prob
        );
    }
}

#[test]
fn textcnn_student_session_matches_graph_forward() {
    exercise_student("TextCNN-S", |store, cfg, rng| {
        TextCnnModel::student(store, cfg, rng)
    });
}

#[test]
fn bigru_student_session_matches_graph_forward() {
    exercise_student("BiGRU-S", |store, cfg, rng| {
        BiGruModel::student(store, cfg, rng)
    });
}

#[test]
fn concurrent_restores_predict_bit_equal_to_a_single_threaded_restore() {
    let ds = dataset();
    let cfg = ModelConfig::tiny(&ds);
    let mut store = ParamStore::new();
    let model = TextCnnModel::student(&mut store, &cfg, &mut Prng::new(21));
    let bytes = Checkpoint::new(model.name(), &cfg, &store).to_bytes();
    let batch = BatchIter::new(&ds, 24, 5, false).next().unwrap();
    let predict = |bytes: &[u8]| -> Vec<(u32, [u32; 2])> {
        let decoded = Checkpoint::from_bytes(bytes).unwrap();
        session_from_checkpoint(&decoded)
            .unwrap()
            .predict_batch(&batch)
            .iter()
            .map(|p| (p.fake_prob.to_bits(), p.logits.map(f32::to_bits)))
            .collect()
    };

    let single = predict(&bytes);
    let start = std::sync::Barrier::new(2);
    let concurrent: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    (0..4).map(|_| predict(&bytes)).collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect()
    });
    for (i, restored) in concurrent.iter().enumerate() {
        assert_eq!(restored, &single, "restore {i}");
    }
}
