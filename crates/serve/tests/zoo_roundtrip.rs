//! Zoo-wide checkpoint/serving property: for **every** architecture in the
//! serving registry (`SUPPORTED_ARCHS`), a model trained for a few steps,
//! saved to a version-2 checkpoint file, loaded back and served must produce
//! predictions **bit-identical** to the still-in-process model — the full
//! train → save → load → serve loop, closed for the entire zoo.
//!
//! M3FEND gets extra scrutiny (it is why the side-state section exists):
//! the restored memory bank must equal the saved one field-for-field, a
//! checkpoint stripped of its memory must be refused rather than served
//! half-restored, and the served predictions must stay bit-identical across
//! the whole deployment matrix ({1,2,4} workers × {1,4} intra-op threads,
//! plus both HTTP starts, whose `GET /model` must list the memory bank).
//! Version-1 files of every arch that predates the side-state
//! section must load and serve unchanged through the v2 reader.

mod common;

use dtdbd_data::{
    weibo21_spec, BatchIter, GeneratorConfig, InferenceRequest, MultiDomainDataset, NewsGenerator,
};
use dtdbd_models::{FakeNewsModel, M3Fend, ModelConfig};
use dtdbd_serve::json::{self, Json};
use dtdbd_serve::{
    build_model, session_from_checkpoint, BoxedModel, Checkpoint, CheckpointError, HttpClient,
    HttpServer, InferenceSession, ServerBuilder, StartError, DEFAULT_MODEL_ID, SUPPORTED_ARCHS,
};
use dtdbd_tensor::optim::Adam;
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::{Graph, ParamStore};

fn dataset() -> MultiDomainDataset {
    NewsGenerator::new(weibo21_spec(), GeneratorConfig::tiny()).generate_scaled(31, 0.03)
}

fn requests(ds: &MultiDomainDataset, n: usize) -> Vec<InferenceRequest> {
    ds.items()
        .iter()
        .take(n)
        .map(|item| InferenceRequest {
            tokens: item.tokens.clone(),
            domain: item.domain,
            style: Some(item.style.clone()),
            emotion: Some(item.emotion.clone()),
        })
        .collect()
}

/// A few optimizer steps on one batch — enough to move every layer off its
/// initialisation and, for M3FEND, to warm the memory bank's EMA path.
fn train_few_steps(model: &mut BoxedModel, store: &mut ParamStore, ds: &MultiDomainDataset) {
    let batch = BatchIter::new(ds, 16, 3, false).next().expect("non-empty");
    let mut opt = Adam::new(5e-3);
    for step in 0..4 {
        store.zero_grad();
        let mut g = Graph::new(store, true, step);
        let out = model.forward(&mut g, &batch);
        let ce = g.cross_entropy_logits(out.logits, &batch.labels);
        let mut loss = ce;
        if let Some(domain_logits) = out.domain_logits {
            let dl = g.cross_entropy_logits(domain_logits, &batch.domains);
            let weighted = g.scale(dl, model.domain_loss_weight());
            loss = g.add(loss, weighted);
        }
        if let Some(aux) = out.aux_loss {
            loss = g.add(loss, aux);
        }
        g.backward(loss);
        let feats = g.value(out.features).clone();
        drop(g);
        opt.step(store);
        model.post_batch(&feats, &batch.domains);
    }
}

/// Bit patterns of `(fake_prob, logits[0], logits[1])` for every request.
fn prediction_bits(
    session: &mut InferenceSession<BoxedModel>,
    requests: &[InferenceRequest],
) -> Vec<[u32; 3]> {
    requests
        .iter()
        .map(|r| {
            let encoded = session.encoder().encode(r).expect("valid request");
            let p = &session.predict_requests(&[encoded])[0];
            [
                p.fake_prob.to_bits(),
                p.logits[0].to_bits(),
                p.logits[1].to_bits(),
            ]
        })
        .collect()
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("dtdbd-zoo-{tag}-{}.dtdbd", std::process::id()))
}

#[test]
fn every_registry_arch_serves_bit_identically_after_save_load() {
    let ds = dataset();
    let cfg = ModelConfig::tiny(&ds);
    let reqs = requests(&ds, 24);
    for &arch in SUPPORTED_ARCHS {
        let mut store = ParamStore::new();
        let mut model = build_model(arch, &mut store, &cfg).expect("registry arch builds");
        assert_eq!(model.name(), arch, "registry tag matches the model name");
        train_few_steps(&mut model, &mut store, &ds);

        // Save through the filesystem, exactly as a deployment would.
        let ckpt = Checkpoint::capture(&model, &store);
        let path = temp_path(arch);
        ckpt.save(&path).expect("save");
        let loaded = Checkpoint::load(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.arch, arch);

        let mut restored = session_from_checkpoint(&loaded).expect("restore");
        let mut in_process = InferenceSession::new(model, store);
        let want = prediction_bits(&mut in_process, &reqs);
        let got = prediction_bits(&mut restored, &reqs);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g, w,
                "{arch}: item {i} diverged after the save -> load -> serve loop"
            );
        }
    }
}

#[test]
fn m3fend_restores_its_memory_bank_field_for_field() {
    let ds = dataset();
    let cfg = ModelConfig::tiny(&ds);
    let mut store = ParamStore::new();
    let mut model: BoxedModel = Box::new(M3Fend::new(&mut store, &cfg, &mut Prng::new(0x3F)));
    train_few_steps(&mut model, &mut store, &ds);

    let ckpt = Checkpoint::capture(&model, &store);
    let loaded = Checkpoint::from_bytes(&ckpt.to_bytes()).expect("byte round trip");

    // Typed restore so the memory bank is inspectable.
    let restored =
        InferenceSession::from_checkpoint(&loaded, |s, c| M3Fend::new(s, c, &mut Prng::new(1)))
            .expect("restore");

    // Reach the saved bank through the original (still boxed) model.
    let saved_state = model.export_side_state();
    let saved = {
        let mut probe = ParamStore::new();
        let mut typed = M3Fend::new(&mut probe, &cfg, &mut Prng::new(2));
        typed.import_side_state(&saved_state).expect("own export");
        typed.memory_snapshot()
    };
    let got = restored.model().memory_snapshot();

    assert_eq!(got.n_domains, saved.n_domains, "n_domains");
    assert_eq!(got.dim, saved.dim, "dim");
    assert_eq!(got.momentum.to_bits(), saved.momentum.to_bits(), "momentum");
    assert_eq!(
        got.temperature.to_bits(),
        saved.temperature.to_bits(),
        "temperature"
    );
    assert_eq!(got.counts, saved.counts, "counts");
    assert_eq!(got.slots.len(), saved.slots.len(), "slot count");
    for (i, (a, b)) in got.slots.iter().zip(&saved.slots).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "slot value {i} not bit-exact");
    }
    assert!(
        saved.counts.iter().sum::<u64>() > 0,
        "training must have filled the memory, or this test proves nothing"
    );
}

#[test]
fn m3fend_with_a_fresh_memory_is_a_different_model() {
    // The reason the side-state section exists: restoring only the
    // parameters (what a v1-style checkpoint would do) yields a model whose
    // predictions differ from the trained one.
    let ds = dataset();
    let cfg = ModelConfig::tiny(&ds);
    let reqs = requests(&ds, 16);
    let mut store = ParamStore::new();
    let mut model: BoxedModel = Box::new(M3Fend::new(&mut store, &cfg, &mut Prng::new(0x3F)));
    train_few_steps(&mut model, &mut store, &ds);
    let ckpt = Checkpoint::capture(&model, &store);

    // Faithful restore.
    let mut faithful = session_from_checkpoint(&ckpt).expect("restore");
    // Params-only restore: same parameters, empty memory.
    let amnesiac =
        InferenceSession::from_checkpoint(&ckpt, |s, c| M3Fend::new(s, c, &mut Prng::new(9)))
            .expect("restore");

    let mut in_process = InferenceSession::new(model, store);
    let want = prediction_bits(&mut in_process, &reqs);
    let with_memory = prediction_bits(&mut faithful, &reqs);
    assert_eq!(want, with_memory, "faithful restore is bit-identical");

    // Wipe the amnesiac's memory (its import already restored the real one)
    // by importing a fresh bank's export.
    let fresh_state = {
        let mut probe = ParamStore::new();
        M3Fend::new(&mut probe, &cfg, &mut Prng::new(10)).export_side_state()
    };
    let mut forgot = Checkpoint::capture(amnesiac.model(), &ckpt.params);
    forgot.side_state = fresh_state;
    let mut amnesiac = session_from_checkpoint(&forgot).expect("restore");
    let without_memory = prediction_bits(&mut amnesiac, &reqs);
    assert_ne!(
        want, without_memory,
        "an M3FEND with an empty memory bank must not predict like the trained one \
         (otherwise the side-state section would be dead weight)"
    );
}

#[test]
fn m3fend_serves_bit_identically_across_the_deployment_matrix() {
    let ds = dataset();
    let cfg = ModelConfig::tiny(&ds);
    let reqs = requests(&ds, 24);
    let mut store = ParamStore::new();
    let mut model: BoxedModel = Box::new(M3Fend::new(&mut store, &cfg, &mut Prng::new(0xA7)));
    train_few_steps(&mut model, &mut store, &ds);
    let ckpt = Checkpoint::capture(&model, &store);
    // Ground truth: the still-in-process model, queue-free.
    let mut in_process = InferenceSession::new(model, store);
    let want = prediction_bits(&mut in_process, &reqs);

    for workers in [1usize, 2, 4] {
        for threads in [1usize, 4] {
            let server = ServerBuilder::new()
                .workers(workers)
                .threads(threads)
                .cache_capacity(0)
                .try_start_from_checkpoint(&ckpt)
                .unwrap_or_else(|e| panic!("{workers}w/{threads}t: {e}"));
            for (i, (request, want)) in reqs.iter().zip(&want).enumerate() {
                let p = server.predict(request).expect("valid request");
                let got = [
                    p.fake_prob.to_bits(),
                    p.logits[0].to_bits(),
                    p.logits[1].to_bits(),
                ];
                assert_eq!(&got, want, "{workers}w/{threads}t: item {i} diverged");
            }
            server.shutdown();
        }
    }

    // Over the wire, through the single-model start and through a
    // one-tenant zoo: the same bits, and the same `GET /model` descriptor,
    // which must list the memory bank (the side state that makes this
    // checkpoint the validated M3FEND).
    type Start = fn(ServerBuilder, &Checkpoint) -> Result<HttpServer, StartError>;
    let starts: [(&str, Start); 2] = [
        ("single-model start", |builder, ckpt| {
            builder.try_start_http_from_checkpoint(ckpt)
        }),
        ("one-tenant zoo", |builder, ckpt| {
            builder.tenant(DEFAULT_MODEL_ID, ckpt).try_start_http()
        }),
    ];
    for (what, start) in starts {
        let server = start(ServerBuilder::new().cache_capacity(0), &ckpt)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let mut client = HttpClient::connect(server.local_addr()).expect("connect");
        let descriptor = client.get("/model/default").expect("GET /model/default");
        assert_eq!(descriptor.status, 200, "{what}: {}", descriptor.body);
        let doc = descriptor.json().expect("descriptor is JSON");
        let tags: Vec<&str> = doc
            .get("side_state")
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("{what}: no side_state in {}", descriptor.body))
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(tags, ["m3fend.memory"], "{what}: {}", descriptor.body);
        for (i, (request, want)) in reqs.iter().zip(&want).enumerate() {
            let body = json::encode_request(request).render();
            let response = client.post("/predict", &body).expect("POST /predict");
            assert_eq!(response.status, 200, "{what}: {}", response.body);
            let p = json::decode_prediction(&response.json().expect("prediction is JSON"))
                .expect("prediction object");
            let got = [
                p.fake_prob.to_bits(),
                p.logits[0].to_bits(),
                p.logits[1].to_bits(),
            ];
            assert_eq!(&got, want, "{what}: item {i} diverged on the wire");
        }
        server.shutdown();
    }
}

#[test]
fn v1_checkpoints_of_every_pre_side_state_arch_still_serve_unchanged() {
    // The archs that were servable before format 2 — their checkpoints in
    // the wild are version-1 files. Synthesize byte-exact v1 files and
    // check they load and serve identically to their v2 counterparts.
    const V1_ARCHS: &[&str] = &["TextCNN", "TextCNN-S", "BiGRU", "BiGRU-S", "MDFEND"];
    let ds = dataset();
    let cfg = ModelConfig::tiny(&ds);
    let reqs = requests(&ds, 12);
    for &arch in V1_ARCHS {
        let mut store = ParamStore::new();
        let mut model = build_model(arch, &mut store, &cfg).expect("builds");
        train_few_steps(&mut model, &mut store, &ds);
        let ckpt = Checkpoint::capture(&model, &store);
        assert!(
            ckpt.side_state.is_empty(),
            "{arch}: pre-side-state archs must not grow side state silently"
        );
        let v2 = ckpt.to_bytes();
        let v1 = common::v1_bytes(&ckpt);

        let from_v1 =
            Checkpoint::from_bytes(&v1).unwrap_or_else(|e| panic!("{arch}: v1 file rejected: {e}"));
        let mut served_v1 = session_from_checkpoint(&from_v1).expect("v1 restore");
        let mut served_v2 =
            session_from_checkpoint(&Checkpoint::from_bytes(&v2).unwrap()).expect("v2 restore");
        let mut in_process = InferenceSession::new(model, store);
        let want = prediction_bits(&mut in_process, &reqs);
        assert_eq!(
            prediction_bits(&mut served_v1, &reqs),
            want,
            "{arch}: v1 serving diverged"
        );
        assert_eq!(
            prediction_bits(&mut served_v2, &reqs),
            want,
            "{arch}: v2 serving diverged"
        );
    }
}

#[test]
fn m3fend_cannot_round_trip_through_a_v1_layout() {
    // Belt and braces for the motivating bug: the v1 layout has nowhere to
    // put the memory bank, and the loader must refuse to fake it.
    let ds = dataset();
    let cfg = ModelConfig::tiny(&ds);
    let mut store = ParamStore::new();
    let mut model: BoxedModel = Box::new(M3Fend::new(&mut store, &cfg, &mut Prng::new(5)));
    train_few_steps(&mut model, &mut store, &ds);
    let ckpt = Checkpoint::capture(&model, &store);
    // Push the M3FEND checkpoint through the v1 layout, which strips the
    // side-state section — v1 has nowhere to put the memory bank.
    let v1 = common::v1_bytes(&ckpt);
    let decoded = Checkpoint::from_bytes(&v1).expect("v1 container decodes");
    assert!(decoded.side_state.is_empty());
    assert!(
        matches!(
            session_from_checkpoint(&decoded),
            Err(CheckpointError::SideState(_))
        ),
        "an M3FEND with no memory chunk must be refused, not served amnesiac"
    );
}
