//! `ServerBuilder` misconfiguration battery: every bad knob combination
//! surfaces as a typed [`ConfigError`] (or a *documented* fallback), never a
//! panic and never a silently wrong deployment.

use dtdbd_data::{
    weibo21_spec, Batch, GeneratorConfig, InferenceRequest, MultiDomainDataset, NewsGenerator,
};
use dtdbd_models::{FakeNewsModel, ModelConfig, ModelOutput, TextCnnModel};
use dtdbd_serve::{
    Checkpoint, ConfigError, DomainRouting, HttpConfig, HttpServer, InferenceSession, Precision,
    ServerBuilder, StartError,
};
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::{Graph, ParamStore, Tensor};

fn dataset() -> MultiDomainDataset {
    NewsGenerator::new(weibo21_spec(), GeneratorConfig::tiny()).generate_scaled(4, 0.02)
}

/// `expect_err` needs `Debug` on the success type; `PredictServer`
/// deliberately has none, so unwrap the error by hand.
fn err_of(result: Result<dtdbd_serve::PredictServer, ConfigError>, what: &str) -> ConfigError {
    match result {
        Err(e) => e,
        Ok(_) => panic!("{what}"),
    }
}

fn factory(
    cfg: &ModelConfig,
) -> impl FnMut(usize) -> InferenceSession<TextCnnModel> + Send + 'static {
    let cfg = cfg.clone();
    move |_| {
        let mut store = ParamStore::new();
        let model = TextCnnModel::student(&mut store, &cfg, &mut Prng::new(7));
        InferenceSession::new(model, store)
    }
}

#[test]
fn zero_workers_is_a_typed_error() {
    let ds = dataset();
    let cfg = ModelConfig::tiny(&ds);
    let err = err_of(
        ServerBuilder::new().workers(0).try_start(factory(&cfg)),
        "zero workers must be rejected",
    );
    assert_eq!(err, ConfigError::ZeroWorkers);
}

#[test]
fn zero_max_batch_size_is_a_typed_error() {
    let ds = dataset();
    let cfg = ModelConfig::tiny(&ds);
    let err = err_of(
        ServerBuilder::new()
            .max_batch_size(0)
            .try_start(factory(&cfg)),
        "zero max_batch_size must be rejected",
    );
    assert_eq!(err, ConfigError::ZeroMaxBatchSize);
}

#[test]
fn zero_shards_is_the_documented_replica_fallback() {
    let ds = dataset();
    let cfg = ModelConfig::tiny(&ds);
    let server = ServerBuilder::new()
        .workers(1)
        .shards(0)
        .try_start(factory(&cfg))
        .expect("shards(0) means replica mode, not an error");
    let stats = server.stats();
    assert_eq!(stats.embedding_shards, 0);
    assert_eq!(stats.shard_pool_bytes, 0);
}

#[test]
fn absurd_shard_counts_are_typed_errors() {
    let ds = dataset();
    let cfg = ModelConfig::tiny(&ds);
    let vocab = cfg.vocab_size;
    let err = err_of(
        ServerBuilder::new()
            .workers(1)
            .shards(vocab + 1)
            .try_start(factory(&cfg)),
        "more shards than table rows must be rejected",
    );
    assert_eq!(
        err,
        ConfigError::BadShardCount {
            requested: vocab + 1,
            rows: vocab,
        }
    );
    // The largest sane count — one row per shard — still works.
    let server = ServerBuilder::new()
        .workers(1)
        .shards(vocab)
        .try_start(factory(&cfg))
        .expect("one row per shard is extreme but valid");
    assert_eq!(server.stats().embedding_shards, vocab);
}

#[test]
fn zero_connection_workers_is_a_typed_error_before_any_thread_starts() {
    let ds = dataset();
    let cfg = ModelConfig::tiny(&ds);
    let mut store = ParamStore::new();
    let model = TextCnnModel::student(&mut store, &cfg, &mut Prng::new(7));
    let checkpoint = Checkpoint::capture(&model, &store);
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
            .try_start_http(factory(&cfg)),
        "try_start_http",
    );
    expect_config_error(
        ServerBuilder::new()
            .http(no_workers())
            .tenant("m", &checkpoint)
            .try_start_http_zoo(),
        "try_start_http_zoo",
    );
    // The listener's own constructor refuses too, as an I/O-style error.
    let predict = ServerBuilder::new()
        .workers(1)
        .try_start(factory(&cfg))
        .expect("valid predict server");
    match HttpServer::start(predict, no_workers()) {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{e}"),
        Ok(_) => panic!("HttpServer::start must reject zero connection workers"),
    }
}

#[test]
fn cache_capacity_zero_disables_the_cache_with_zero_counters() {
    let ds = dataset();
    let cfg = ModelConfig::tiny(&ds);
    let server = ServerBuilder::new()
        .workers(1)
        .cache_capacity(0)
        .try_start(factory(&cfg))
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

#[test]
fn empty_domain_routing_is_the_documented_disabled_fallback() {
    let ds = dataset();
    let cfg = ModelConfig::tiny(&ds);
    let server = ServerBuilder::new()
        .workers(1)
        .domain_routing(DomainRouting::new())
        .try_start(factory(&cfg))
        .expect("an empty domain map disables routing, not the server");
    let item = &ds.items()[0];
    server
        .predict(&InferenceRequest::new(item.tokens.clone(), item.domain))
        .expect("valid request");
    let stats = server.stats();
    assert_eq!(stats.routing.specialist_queues, 0);
    assert_eq!(stats.routing.routed_specialist, 0);
    assert_eq!(stats.routing.routed_shared, 0);
}

#[test]
fn underprovisioned_routing_is_a_typed_error() {
    let ds = dataset();
    let cfg = ModelConfig::tiny(&ds);
    // Two specialist groups + the shared fallback = 3 queues, but only 2
    // workers to staff them.
    let err = err_of(
        ServerBuilder::new()
            .workers(2)
            .domain_routing(DomainRouting::new().assign(8, 0).assign(4, 1))
            .try_start(factory(&cfg)),
        "routing must not leave a queue unstaffed",
    );
    assert_eq!(
        err,
        ConfigError::RoutingUnderprovisioned {
            queues: 3,
            workers: 2,
        }
    );
}

#[test]
fn routing_an_unknown_domain_is_a_typed_error() {
    let ds = dataset();
    let cfg = ModelConfig::tiny(&ds);
    let n_domains = cfg.n_domains;
    let err = err_of(
        ServerBuilder::new()
            .workers(2)
            .domain_routing(DomainRouting::new().assign(n_domains, 0))
            .try_start(factory(&cfg)),
        "a domain the corpus lacks must be rejected",
    );
    assert_eq!(
        err,
        ConfigError::RoutingDomainOutOfRange {
            domain: n_domains,
            n_domains,
        }
    );
}

/// A degenerate model with no parameters at all: nothing to quantize, no
/// frozen table to shard. Int8 on this arch must be a typed error, not a
/// silently-fp32 deployment.
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
fn int8_without_quantizable_params_is_a_typed_error() {
    let ds = dataset();
    let cfg = ModelConfig::tiny(&ds);
    let make = {
        let cfg = cfg.clone();
        move |_| InferenceSession::new(ConstantModel { cfg: cfg.clone() }, ParamStore::new())
    };
    let err = err_of(
        ServerBuilder::new()
            .workers(1)
            .precision(Precision::Int8)
            .try_start(make),
        "int8 with nothing to quantize must be rejected",
    );
    assert_eq!(
        err,
        ConfigError::NoQuantizableParams {
            arch: "constant".into(),
        }
    );
    // Fp32 on the same arch still deploys: the error is about the knob,
    // not the model.
    let make = {
        let cfg = cfg.clone();
        move |_| InferenceSession::new(ConstantModel { cfg: cfg.clone() }, ParamStore::new())
    };
    ServerBuilder::new()
        .workers(1)
        .try_start(make)
        .expect("fp32 serving needs no quantizable params");
}

#[test]
fn config_errors_render_actionable_messages() {
    // The Display impls are part of the operator surface (they end up in
    // process logs); pin that each names the offending numbers.
    let msg = ConfigError::BadShardCount {
        requested: 9,
        rows: 4,
    }
    .to_string();
    assert!(msg.contains('9') && msg.contains('4'), "{msg}");
    let msg = ConfigError::RoutingUnderprovisioned {
        queues: 3,
        workers: 2,
    }
    .to_string();
    assert!(msg.contains('3') && msg.contains('2'), "{msg}");
    let msg = ConfigError::RoutingDomainOutOfRange {
        domain: 12,
        n_domains: 9,
    }
    .to_string();
    assert!(msg.contains("12") && msg.contains('9'), "{msg}");
    let msg = ConfigError::NoQuantizableParams {
        arch: "constant".into(),
    }
    .to_string();
    assert!(msg.contains("constant") && msg.contains("int8"), "{msg}");
    let msg = ConfigError::ZeroConnectionWorkers.to_string();
    assert!(msg.contains("connection worker"), "{msg}");
}
