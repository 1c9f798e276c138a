//! `ServerBuilder` misconfiguration battery: every bad knob combination
//! surfaces as a typed [`ConfigError`] (or a *documented* fallback), never a
//! panic and never a silently wrong deployment.

use dtdbd_data::{
    weibo21_spec, Batch, GeneratorConfig, InferenceRequest, MultiDomainDataset, NewsGenerator,
};
use dtdbd_models::{FakeNewsModel, ModelConfig, ModelOutput, TextCnnModel};
use dtdbd_serve::{
    Checkpoint, ConfigError, HttpConfig, HttpServer, InferenceSession, PredictServer,
    ServerBuilder, StartError,
};
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::{Graph, ParamStore, Tensor};

fn dataset() -> MultiDomainDataset {
    NewsGenerator::new(weibo21_spec(), GeneratorConfig::tiny()).generate_scaled(4, 0.02)
}

/// The seed-7 tiny TextCNN-S student every test serves.
fn checkpoint(ds: &MultiDomainDataset) -> Checkpoint {
    let mut store = ParamStore::new();
    let model = TextCnnModel::student(&mut store, &ModelConfig::tiny(ds), &mut Prng::new(7));
    Checkpoint::capture(&model, &store)
}

/// `expect_err` needs `Debug` on the success type; `PredictServer`
/// deliberately has none, so unwrap the error by hand.
fn config_err_of(result: Result<PredictServer, StartError>, what: &str) -> ConfigError {
    match result {
        Err(StartError::Config(e)) => e,
        Err(other) => panic!("{what}: expected a config error, got {other}"),
        Ok(_) => panic!("{what}"),
    }
}

#[test]
fn zero_workers_is_a_typed_error() {
    let ds = dataset();
    let err = config_err_of(
        ServerBuilder::new()
            .workers(0)
            .try_start_from_checkpoint(&checkpoint(&ds)),
        "zero workers must be rejected",
    );
    assert_eq!(err, ConfigError::ZeroWorkers);
}

#[test]
fn zero_max_batch_size_is_a_typed_error() {
    let ds = dataset();
    let err = config_err_of(
        ServerBuilder::new()
            .max_batch_size(0)
            .try_start_from_checkpoint(&checkpoint(&ds)),
        "zero max_batch_size must be rejected",
    );
    assert_eq!(err, ConfigError::ZeroMaxBatchSize);
}

#[test]
fn zero_connection_workers_is_a_typed_error_before_any_thread_starts() {
    let ds = dataset();
    let checkpoint = checkpoint(&ds);
    let no_workers = || HttpConfig {
        connection_workers: 0,
        ..HttpConfig::default()
    };
    let expect_config_error = |result: Result<HttpServer, StartError>, what: &str| match result {
        Err(StartError::Config(e)) => assert_eq!(e, ConfigError::ZeroConnectionWorkers, "{what}"),
        Err(other) => panic!("{what}: expected a config error, got {other}"),
        Ok(_) => panic!("{what}: zero connection workers must be rejected"),
    };
    expect_config_error(
        ServerBuilder::new()
            .http(no_workers())
            .try_start_http_from_checkpoint(&checkpoint),
        "try_start_http_from_checkpoint",
    );
    expect_config_error(
        ServerBuilder::new()
            .http(no_workers())
            .tenant("m", &checkpoint)
            .try_start_http(),
        "try_start_http",
    );
}

#[test]
fn cache_capacity_zero_disables_the_cache_with_zero_counters() {
    let ds = dataset();
    let server = ServerBuilder::new()
        .workers(1)
        .cache_capacity(0)
        .try_start_from_checkpoint(&checkpoint(&ds))
        .expect("cache 0 is the documented disabled fallback");
    let item = &ds.items()[0];
    let request = InferenceRequest::new(item.tokens.clone(), item.domain);
    // Identical traffic that a cache would absorb — counters must stay zero.
    for _ in 0..5 {
        server.predict(&request).expect("valid request");
    }
    let stats = server.stats();
    assert_eq!(stats.cache.capacity, 0);
    assert_eq!(stats.cache.hits, 0);
    assert_eq!(stats.cache.misses, 0);
    assert_eq!(stats.cache.evictions, 0);
    assert_eq!(stats.cache.entries, 0);
    assert_eq!(stats.requests_served, 5, "every request ran a forward pass");
}

/// A degenerate model with no parameters at all. No checkpoint can carry it
/// (every servable architecture has parameters), so the test serves a
/// session directly.
struct ConstantModel {
    cfg: ModelConfig,
}

impl FakeNewsModel for ConstantModel {
    fn name(&self) -> &'static str {
        "constant"
    }
    fn config(&self) -> &ModelConfig {
        &self.cfg
    }
    fn forward(&self, g: &mut Graph<'_>, batch: &Batch) -> ModelOutput {
        let b = batch.batch_size;
        let logits = g.constant(Tensor::zeros(&[b, 2]));
        let features = g.constant(Tensor::zeros(&[b, self.cfg.feature_dim]));
        ModelOutput::simple(logits, features)
    }
}

#[test]
fn parameter_free_model_serves_fp32() {
    let ds = dataset();
    let cfg = ModelConfig::tiny(&ds);
    let mut session = InferenceSession::new(ConstantModel { cfg }, ParamStore::new());
    let item = &ds.items()[0];
    let request = InferenceRequest::new(item.tokens.clone(), item.domain);
    let encoded = session.encoder().encode(&request).expect("valid request");
    let prediction = &session.predict_requests(&[encoded])[0];
    assert_eq!(prediction.fake_prob.to_bits(), 0.5f32.to_bits());
}

#[test]
fn config_errors_render_actionable_messages() {
    // The Display impls are part of the operator surface (they end up in
    // process logs); pin that each names the offending numbers.
    let msg = ConfigError::DriftBaselineGeometry {
        baseline_domains: 12,
        n_domains: 9,
    }
    .to_string();
    assert!(msg.contains("12") && msg.contains('9'), "{msg}");
    let msg = ConfigError::ZeroConnectionWorkers.to_string();
    assert!(msg.contains("connection worker"), "{msg}");
}
