//! HTTP serving benchmark: client-observed latency and throughput through
//! the full wire stack (TCP + HTTP/1.1 parsing + JSON codec + micro-batching
//! core) at 1, 8 and 32 concurrent keep-alive connections.
//!
//! Trains a TextCNN-S student briefly, round-trips it through a checkpoint,
//! binds the HTTP front-end on an ephemeral port, and drives it with
//! persistent client connections. A two-model zoo level then measures
//! multi-tenant routing at equal total workers (two tenants x 1 worker vs
//! one tenant x 2 workers). Results are printed as a table and written to
//! `BENCH_http.json`.
//!
//! Run with: `cargo run --release -p dtdbd-bench --bin serving_http [--quick]`

use dtdbd_bench::harness::{fmt_ns, percentile};
use dtdbd_core::{train_model, TrainConfig};
use dtdbd_data::{weibo21_spec, GeneratorConfig, InferenceRequest, NewsGenerator};
use dtdbd_metrics::TableBuilder;
use dtdbd_models::{ModelConfig, TextCnnModel};
use dtdbd_serve::http::HttpClient;
use dtdbd_serve::{json, BatchingConfig, Checkpoint, HttpConfig, ServerBuilder, ServingStats};
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::ParamStore;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const CONCURRENCY: [usize; 3] = [1, 8, 32];

/// 32-connection req/sec of the PR 2 baseline (the committed BENCH_http.json
/// before the blocked/parallel kernel overhaul + prediction cache).
const PR2_C32_REQ_PER_SEC: f64 = 2562.1;

struct LoadResult {
    connections: usize,
    requests: usize,
    p50_ns: f64,
    p99_ns: f64,
    req_per_sec: f64,
}

/// Two-model zoo level: the same student resident twice behind
/// `/predict/a` and `/predict/b` with one prediction worker each, measured
/// against a single tenant holding both workers. Equal total worker count,
/// so the ratio isolates the cost of multi-tenant routing + per-tenant
/// queues; `check_bench.sh` gates it at >= `MIN_ZOO_RATIO`.
struct ZooResult {
    connections: usize,
    single_req_per_sec: f64,
    two_model_req_per_sec: f64,
    ratio: f64,
}

/// Minimum two-model/single-model throughput ratio at equal total workers.
const MIN_ZOO_RATIO: f64 = 0.9;

/// The c1024 mostly-idle keep-alive level: every connection held open for
/// the whole level, a rotating few actually carrying a request at any
/// instant — the load-balancer-in-front shape the epoll front-end exists
/// for. Memory is resident-set KB read from `/proc/self/status`, sampled
/// before the first connect and with all connections open.
struct IdleKeepAliveResult {
    connections: usize,
    requests: usize,
    p99_ns: f64,
    req_per_sec: f64,
    rss_before_kb: u64,
    rss_open_kb: u64,
    server_open_connections: u64,
}

impl IdleKeepAliveResult {
    fn kb_per_conn(&self) -> f64 {
        self.rss_open_kb.saturating_sub(self.rss_before_kb) as f64 / self.connections as f64
    }
}

/// c1024 per-connection resident-memory budget. An idle server-side
/// connection is one slab entry plus drained parser/output buffers; the
/// budget covers both ends of the loopback pair living in this process
/// with generous slack — the point is catching per-connection threads or
/// per-connection megabyte buffers, which blow through it immediately.
const MAX_KB_PER_CONN: f64 = 64.0;

fn rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (scale, requests_per_level) = if quick {
        (0.04, 240usize)
    } else {
        (0.12, 960usize)
    };

    eprintln!("[serving_http] generating corpus and training the student (1 epoch)...");
    let ds =
        NewsGenerator::new(weibo21_spec(), GeneratorConfig::default()).generate_scaled(42, scale);
    let split = ds.split(0.7, 0.1, 42);
    let cfg = ModelConfig::for_dataset(&split.train);
    let mut store = ParamStore::new();
    let mut model = TextCnnModel::student(&mut store, &cfg, &mut Prng::new(1));
    train_model(
        &mut model,
        &mut store,
        &split.train,
        &TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        },
    );

    let checkpoint = Checkpoint::capture(&model, &store);
    let checkpoint = Checkpoint::from_bytes(&checkpoint.to_bytes()).expect("self round trip");

    // Pre-rendered request bodies drawn from the held-out test set.
    let bodies: Vec<String> = split
        .test
        .items()
        .iter()
        .map(|item| {
            json::encode_request(&InferenceRequest {
                tokens: item.tokens.clone(),
                domain: item.domain,
                style: Some(item.style.clone()),
                emotion: Some(item.emotion.clone()),
            })
            .render()
        })
        .collect();

    let batching = BatchingConfig {
        max_batch_size: 32,
        max_wait: Duration::from_millis(2),
        workers: 2,
    };
    // Cache disabled: the request stream replays the same bodies, so the
    // default prediction cache would answer most requests without a forward
    // pass and the speedup over the PR 2 baseline would conflate cache hits
    // with kernel gains. BENCH_serving.json's "server_cached" entry records
    // the cache win separately.
    let server = ServerBuilder::new()
        .batching(batching.clone())
        .cache_capacity(0)
        .http(HttpConfig {
            connection_workers: *CONCURRENCY.iter().max().expect("non-empty"),
            backlog: 64,
            ..HttpConfig::default()
        })
        .try_start_http_from_checkpoint(&checkpoint)
        .expect("valid configuration");
    let serving = server.predict_server().stats();
    let addr = server.local_addr();
    eprintln!("[serving_http] listening on http://{addr}");

    // Warm every worker's buffer pool before measuring.
    {
        let mut client = HttpClient::connect(addr).expect("connect");
        for body in bodies.iter().take(64) {
            let response = client.post("/predict", body).expect("warmup");
            assert_eq!(response.status, 200, "{}", response.body);
        }
    }

    let results: Vec<LoadResult> = CONCURRENCY
        .iter()
        .map(|&connections| run_level(addr, &bodies, connections, requests_per_level))
        .collect();

    // The c1024 mostly-idle keep-alive level needs the epoll connection
    // driver — the blocking thread pool cannot hold a thousand open sockets
    // — so it gets its own server with deadlines long enough that an
    // idle-but-healthy connection is never cut mid-level, and runs only
    // where that server reports epoll.
    let server_ka = ServerBuilder::new()
        .batching(batching.clone())
        .cache_capacity(0)
        .http(HttpConfig {
            backlog: 64,
            read_timeout: Duration::from_secs(120),
            request_timeout: Duration::from_secs(120),
            ..HttpConfig::default()
        })
        .try_start_http_from_checkpoint(&checkpoint)
        .expect("valid configuration");
    let keepalive = if server_ka.connection_model() == "epoll" {
        eprintln!("[serving_http] c1024 mostly-idle keep-alive level (epoll)...");
        let addr_ka = server_ka.local_addr();
        {
            let mut client = HttpClient::connect(addr_ka).expect("connect");
            for body in bodies.iter().take(64) {
                let response = client.post("/predict", body).expect("warmup");
                assert_eq!(response.status, 200, "{}", response.body);
            }
        }
        let level = run_idle_keepalive_level(addr_ka, &bodies, 1024, requests_per_level);
        assert!(
            level.server_open_connections >= level.connections as u64,
            "server reports {} open connections with a fleet of {} held open",
            level.server_open_connections,
            level.connections
        );
        assert!(
            level.kb_per_conn() < MAX_KB_PER_CONN,
            "per-connection resident memory {:.1} KB exceeds the {MAX_KB_PER_CONN} KB budget \
             (rss {} KB -> {} KB across {} connections)",
            level.kb_per_conn(),
            level.rss_before_kb,
            level.rss_open_kb,
            level.connections
        );
        Some(level)
    } else {
        eprintln!(
            "[serving_http] c1024 keep-alive level skipped (the {} driver runs on this platform)",
            server_ka.connection_model()
        );
        None
    };
    server_ka.shutdown();

    eprintln!("[serving_http] two-model zoo level (equal total workers)...");
    let zoo = run_zoo_level(&checkpoint, &bodies, requests_per_level);

    render_table(&results, &batching, &zoo, keepalive.as_ref());
    let json_out = render_json(&results, &batching, &serving, &zoo, keepalive.as_ref());
    std::fs::write("BENCH_http.json", &json_out).expect("write BENCH_http.json");
    eprintln!("[serving_http] wrote BENCH_http.json");
    server.shutdown();
}

/// Fire `total_requests` split across `connections` persistent clients and
/// collect per-request wall-clock latencies.
fn run_level(
    addr: SocketAddr,
    bodies: &[String],
    connections: usize,
    total_requests: usize,
) -> LoadResult {
    run_level_on(addr, &["/predict"], bodies, connections, total_requests)
}

/// [`run_level`] with explicit target paths: each client cycles through
/// `paths` request by request, so a multi-path level spreads its traffic
/// evenly across zoo tenants.
fn run_level_on(
    addr: SocketAddr,
    paths: &'static [&'static str],
    bodies: &[String],
    connections: usize,
    total_requests: usize,
) -> LoadResult {
    let per_client = total_requests / connections;
    let started = Instant::now();
    let handles: Vec<_> = (0..connections)
        .map(|c| {
            let stream: Vec<String> = (0..per_client)
                .map(|i| bodies[(c * per_client + i) % bodies.len()].clone())
                .collect();
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).expect("connect");
                let mut latencies = Vec::with_capacity(stream.len());
                for (i, body) in stream.iter().enumerate() {
                    let path = paths[i % paths.len()];
                    let t0 = Instant::now();
                    let response = client.post(path, body).expect("request");
                    latencies.push(t0.elapsed().as_nanos() as f64);
                    assert_eq!(response.status, 200, "{}", response.body);
                }
                latencies
            })
        })
        .collect();
    let mut samples = Vec::with_capacity(connections * per_client);
    for handle in handles {
        samples.extend(handle.join().expect("client thread"));
    }
    let total = started.elapsed().as_secs_f64();
    LoadResult {
        connections,
        requests: samples.len(),
        p50_ns: percentile(&samples, 0.50),
        p99_ns: percentile(&samples, 0.99),
        req_per_sec: samples.len() as f64 / total,
    }
}

/// Hold `connections` keep-alive connections open simultaneously and push
/// `total_requests` through a rotating subset, so the vast majority of the
/// fleet is idle-but-open at any instant. Returns client-observed latency,
/// throughput and the resident-memory cost of the open fleet.
fn run_idle_keepalive_level(
    addr: SocketAddr,
    bodies: &[String],
    connections: usize,
    total_requests: usize,
) -> IdleKeepAliveResult {
    let threads = 16;
    let per_thread = connections / threads;
    let requests_per_thread = total_requests / threads;
    let rss_before = rss_kb();
    // Threads rendezvous twice: once with every connection open (so the
    // main thread can sample memory and the server-side gauge against the
    // full fleet), then again to start the measured request phase together.
    let opened = std::sync::Arc::new(std::sync::Barrier::new(threads + 1));
    let start = std::sync::Arc::new(std::sync::Barrier::new(threads + 1));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let opened = std::sync::Arc::clone(&opened);
            let start = std::sync::Arc::clone(&start);
            let stream: Vec<String> = (0..requests_per_thread)
                .map(|i| bodies[(t * requests_per_thread + i) % bodies.len()].clone())
                .collect();
            std::thread::spawn(move || {
                let mut clients: Vec<HttpClient> = (0..per_thread)
                    .map(|_| HttpClient::connect(addr).expect("connect"))
                    .collect();
                // Prove every connection is live on the server, not just a
                // socket in a kernel queue.
                for client in &mut clients {
                    let response = client.get("/healthz").expect("healthz");
                    assert_eq!(response.status, 200);
                }
                opened.wait();
                start.wait();
                let mut latencies = Vec::with_capacity(stream.len());
                for (i, body) in stream.iter().enumerate() {
                    let slot = i % clients.len();
                    let client = &mut clients[slot];
                    let t0 = Instant::now();
                    let response = client.post("/predict", body).expect("request");
                    latencies.push(t0.elapsed().as_nanos() as f64);
                    assert_eq!(response.status, 200, "{}", response.body);
                }
                latencies
            })
        })
        .collect();
    opened.wait();
    let rss_open = rss_kb();
    let server_open_connections = stats_open_connections(addr);
    let started = Instant::now();
    start.wait();
    let mut samples = Vec::with_capacity(total_requests);
    for handle in handles {
        samples.extend(handle.join().expect("client thread"));
    }
    let total = started.elapsed().as_secs_f64();
    IdleKeepAliveResult {
        connections: threads * per_thread,
        requests: samples.len(),
        p99_ns: percentile(&samples, 0.99),
        req_per_sec: samples.len() as f64 / total,
        rss_before_kb: rss_before,
        rss_open_kb: rss_open,
        server_open_connections,
    }
}

/// The two-model zoo level: the same checkpoint resident twice with one
/// prediction worker per tenant, measured against one tenant holding both
/// workers — equal total worker count, so any throughput gap is the cost of
/// tenant routing and split queues, not compute.
fn run_zoo_level(checkpoint: &Checkpoint, bodies: &[String], total_requests: usize) -> ZooResult {
    let connections = 8;
    let http = HttpConfig {
        connection_workers: connections,
        backlog: 64,
        ..HttpConfig::default()
    };
    let level_batching = |workers| BatchingConfig {
        max_batch_size: 32,
        max_wait: Duration::from_millis(2),
        workers,
    };
    let warmup = |addr: SocketAddr| {
        let mut client = HttpClient::connect(addr).expect("connect");
        for body in bodies.iter().take(64) {
            let response = client.post("/predict", body).expect("warmup");
            assert_eq!(response.status, 200, "{}", response.body);
        }
    };

    let single = ServerBuilder::new()
        .batching(level_batching(2))
        .cache_capacity(0)
        .http(http.clone())
        .tenant("a", checkpoint)
        .try_start_http()
        .expect("single-tenant zoo");
    warmup(single.local_addr());
    let single_level = run_level_on(
        single.local_addr(),
        &["/predict/a"],
        bodies,
        connections,
        total_requests,
    );
    single.shutdown();

    let zoo = ServerBuilder::new()
        .batching(level_batching(1))
        .cache_capacity(0)
        .http(http)
        .tenant("a", checkpoint)
        .tenant("b", checkpoint)
        .try_start_http()
        .expect("two-tenant zoo");
    warmup(zoo.local_addr());
    let zoo_level = run_level_on(
        zoo.local_addr(),
        &["/predict/a", "/predict/b"],
        bodies,
        connections,
        total_requests,
    );
    zoo.shutdown();

    ZooResult {
        connections,
        single_req_per_sec: single_level.req_per_sec,
        two_model_req_per_sec: zoo_level.req_per_sec,
        ratio: zoo_level.req_per_sec / single_level.req_per_sec,
    }
}

/// The server's own `open_connections` gauge from `GET /stats`.
fn stats_open_connections(addr: SocketAddr) -> u64 {
    let mut client = HttpClient::connect(addr).expect("connect");
    let response = client.get("/stats").expect("stats");
    assert_eq!(response.status, 200);
    let doc = response.json().expect("stats json");
    let json::Json::Obj(top) = &doc else {
        panic!("stats is not an object")
    };
    let http = top
        .iter()
        .find(|(k, _)| k == "http")
        .map(|(_, v)| v)
        .expect("stats.http");
    let json::Json::Obj(http) = http else {
        panic!("stats.http is not an object")
    };
    match http.iter().find(|(k, _)| k == "open_connections") {
        Some((_, json::Json::Num(n))) => *n as u64,
        other => panic!("stats.http.open_connections: {other:?}"),
    }
}

fn render_table(
    results: &[LoadResult],
    batching: &BatchingConfig,
    zoo: &ZooResult,
    keepalive: Option<&IdleKeepAliveResult>,
) {
    let mut table = TableBuilder::new("Serving — HTTP/1.1 front-end (TextCNN-S, keep-alive)")
        .header(["Concurrency", "Requests", "p50", "p99", "req/sec"]);
    for r in results {
        table.row([
            format!("{} conn", r.connections),
            format!("{}", r.requests),
            fmt_ns(r.p50_ns),
            fmt_ns(r.p99_ns),
            format!("{:.0}", r.req_per_sec),
        ]);
    }
    println!("{}", table.render());
    if let Some(ka) = keepalive {
        println!(
            "(c{} mostly idle, epoll: {:.0} req/sec, p99 {}, {:.1} KB resident per open connection)",
            ka.connections,
            ka.req_per_sec,
            fmt_ns(ka.p99_ns),
            ka.kb_per_conn()
        );
    }
    println!(
        "(server: {} workers, max_batch_size {}, max_wait {:.1} ms)",
        batching.workers,
        batching.max_batch_size,
        batching.max_wait.as_secs_f64() * 1e3
    );
    if let Some(c32) = results.iter().find(|r| r.connections == 32) {
        println!(
            "(32 connections: {:.0} req/sec, {:.2}x over the PR 2 baseline of {:.0})",
            c32.req_per_sec,
            c32.req_per_sec / PR2_C32_REQ_PER_SEC,
            PR2_C32_REQ_PER_SEC
        );
    }
    println!(
        "(two-model zoo at {} connections, equal total workers: {:.0} vs single {:.0} req/sec, \
         ratio {:.2} — gate >= {MIN_ZOO_RATIO})",
        zoo.connections, zoo.two_model_req_per_sec, zoo.single_req_per_sec, zoo.ratio
    );
}

fn render_json(
    results: &[LoadResult],
    batching: &BatchingConfig,
    serving: &ServingStats,
    zoo: &ZooResult,
    keepalive: Option<&IdleKeepAliveResult>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"model\": \"TextCNN-S\",\n");
    out.push_str("  \"transport\": \"http/1.1 keep-alive\",\n");
    out.push_str(&format!(
        "  \"server\": {{\"workers\": {}, \"max_batch_size\": {}, \"max_wait_ms\": {:.1}, \"resident_param_bytes_per_worker\": {}}},\n",
        batching.workers,
        batching.max_batch_size,
        batching.max_wait.as_secs_f64() * 1e3,
        serving.resident_param_bytes_per_worker
    ));
    out.push_str("  \"load_levels\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"connections\": {}, \"requests\": {}, \"p50_us\": {:.2}, \"p99_us\": {:.2}, \"req_per_sec\": {:.1}}}{}\n",
            r.connections,
            r.requests,
            r.p50_ns / 1e3,
            r.p99_ns / 1e3,
            r.req_per_sec,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    let c32_speedup = results
        .iter()
        .find(|r| r.connections == 32)
        .map_or(0.0, |r| r.req_per_sec / PR2_C32_REQ_PER_SEC);
    out.push_str(&format!(
        "  \"baseline_pr2\": {{\"c32_req_per_sec\": {PR2_C32_REQ_PER_SEC}, \"speedup_c32\": {c32_speedup:.2}}},\n"
    ));
    out.push_str(&format!(
        "  \"zoo\": {{\"connections\": {}, \"single_req_per_sec\": {:.1}, \"two_model_req_per_sec\": {:.1}, \"ratio\": {:.3}, \"min_ratio\": {MIN_ZOO_RATIO}}}",
        zoo.connections, zoo.single_req_per_sec, zoo.two_model_req_per_sec, zoo.ratio
    ));
    if let Some(ka) = keepalive {
        out.push_str(",\n");
        out.push_str(&format!(
            "  \"keepalive_c1024\": {{\"connections\": {}, \"requests\": {}, \"req_per_sec\": {:.1}, \"p99_us\": {:.2}, \"rss_before_kb\": {}, \"rss_open_kb\": {}, \"kb_per_conn\": {:.2}, \"budget_kb_per_conn\": {MAX_KB_PER_CONN}}}\n",
            ka.connections,
            ka.requests,
            ka.req_per_sec,
            ka.p99_ns / 1e3,
            ka.rss_before_kb,
            ka.rss_open_kb,
            ka.kb_per_conn()
        ));
    } else {
        out.push('\n');
    }
    out.push_str("}\n");
    out
}
