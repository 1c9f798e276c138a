//! Wire-level serving scenario: a student trained by `dtdbd-core` is
//! checkpointed, restored behind the HTTP/1.1 front-end, and hammered by 64
//! concurrent keep-alive clients across mixed domains — every wire answer
//! must match the in-process `PredictServer::predict` path **bit for bit**.
//! A second scenario throws malformed byte streams at the live socket and
//! requires clean 4xx handling with the server still healthy afterwards. A
//! third walks the drain sequence a load balancer sees.

use dtdbd_core::{train_model, TrainConfig};
use dtdbd_data::{weibo21_spec, GeneratorConfig, InferenceRequest, NewsGenerator};
use dtdbd_models::{ModelConfig, TextCnnModel};
use dtdbd_serve::http::HttpClient;
use dtdbd_serve::json::{self, Json};
use dtdbd_serve::{BatchingConfig, Checkpoint, HttpConfig, HttpServer, ServerBuilder};
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::ParamStore;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn trained_checkpoint() -> (Checkpoint, dtdbd_data::MultiDomainDataset) {
    let ds = NewsGenerator::new(weibo21_spec(), GeneratorConfig::tiny()).generate_scaled(11, 0.04);
    let split = ds.clone().split(0.7, 0.1, 11);
    let cfg = ModelConfig::tiny(&ds);
    let mut store = ParamStore::new();
    let mut model = TextCnnModel::student(&mut store, &cfg, &mut Prng::new(5));
    train_model(
        &mut model,
        &mut store,
        &split.train,
        &TrainConfig {
            epochs: 1,
            batch_size: 32,
            ..TrainConfig::default()
        },
    );
    let checkpoint = Checkpoint::capture(&model, &store);
    let checkpoint = Checkpoint::from_bytes(&checkpoint.to_bytes()).unwrap();
    (checkpoint, ds)
}

fn start_http(checkpoint: &Checkpoint, connection_workers: usize) -> HttpServer {
    // The wire battery runs against the replica deployment: every worker
    // owns a full copy of the model and pulls from one queue.
    ServerBuilder::new()
        .batching(BatchingConfig {
            max_batch_size: 16,
            max_wait: Duration::from_millis(1),
            workers: 2,
        })
        .http(HttpConfig {
            connection_workers,
            backlog: connection_workers,
            ..HttpConfig::default()
        })
        .try_start_http_from_checkpoint(checkpoint)
        .expect("valid configuration")
}

#[test]
fn sixty_four_concurrent_clients_match_in_process_predictions_bit_for_bit() {
    let (checkpoint, ds) = trained_checkpoint();
    let server = Arc::new(start_http(&checkpoint, 64));
    let addr = server.local_addr();
    let items: Arc<Vec<(Vec<u32>, usize)>> = Arc::new(
        ds.items()
            .iter()
            .map(|item| (item.tokens.clone(), item.domain))
            .collect(),
    );

    let n_clients = 64usize;
    let per_client = 6usize;
    let mut clients = Vec::with_capacity(n_clients);
    for c in 0..n_clients {
        let items = Arc::clone(&items);
        clients.push(thread::spawn(move || {
            let mut client = HttpClient::connect(addr).expect("connect");
            let mut served = Vec::with_capacity(per_client);
            for i in 0..per_client {
                // Mixed domains: stride so neighbouring requests (likely
                // coalesced into one batch) come from different domains.
                let idx = (c * per_client + i * 17) % items.len();
                let (tokens, domain) = items[idx].clone();
                let request = InferenceRequest::new(tokens, domain);
                let response = client
                    .post("/predict", &json::encode_request(&request).render())
                    .expect("request");
                assert_eq!(response.status, 200, "{}", response.body);
                let prediction =
                    json::decode_prediction(&response.json().expect("valid JSON body"))
                        .expect("valid prediction object");
                served.push((idx, prediction));
            }
            served
        }));
    }

    let mut wire_answers = Vec::new();
    for client in clients {
        wire_answers.extend(client.join().expect("client thread"));
    }
    assert_eq!(wire_answers.len(), n_clients * per_client);

    // Reference: the same items through the in-process path of the very
    // same PredictServer instance the listener wraps.
    for (idx, wire) in wire_answers {
        let (tokens, domain) = items[idx].clone();
        let in_process = server
            .predict_server()
            .predict(&InferenceRequest::new(tokens, domain))
            .unwrap();
        assert_eq!(
            wire.fake_prob.to_bits(),
            in_process.fake_prob.to_bits(),
            "item {idx}: wire {} vs in-process {}",
            wire.fake_prob,
            in_process.fake_prob
        );
        assert_eq!(wire.logits[0].to_bits(), in_process.logits[0].to_bits());
        assert_eq!(wire.logits[1].to_bits(), in_process.logits[1].to_bits());
    }

    // The stats endpoint saw the whole storm.
    let mut client = HttpClient::connect(addr).unwrap();
    let stats = client.get("/stats").unwrap().json().unwrap();
    let served = stats.get("requests_served").and_then(Json::as_u64).unwrap();
    assert!(
        served >= (n_clients * per_client) as u64,
        "stats lost requests: {served}"
    );
    assert_eq!(stats.get("queue_depth").and_then(Json::as_u64), Some(0));

    // The replica deployment reports its per-worker memory on the wire.
    let memory = stats.get("memory").expect("memory object");
    assert!(
        memory
            .get("resident_param_bytes_per_worker")
            .and_then(Json::as_u64)
            > Some(0)
    );
}

#[test]
fn malformed_wire_traffic_gets_4xx_and_never_kills_the_server() {
    let (checkpoint, ds) = trained_checkpoint();
    let server = start_http(&checkpoint, 8);
    let addr = server.local_addr();

    let attacks: Vec<Vec<u8>> = vec![
        b"garbage\r\n\r\n".to_vec(),
        b"POST /predict HTTP/1.1\r\nContent-Length: nope\r\n\r\n".to_vec(),
        b"POST /predict HTTP/9.9\r\n\r\n".to_vec(),
        b"POST /predict HTTP/1.1\r\nContent-Length: 7\r\n\r\nnotjson".to_vec(),
        b"POST /predict HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n".to_vec(),
        [
            b"GET ".as_slice(),
            &[0xFF, 0xFE, 0x00],
            b" HTTP/1.1\r\n\r\n",
        ]
        .concat(),
        {
            // Oversized head.
            let mut huge = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
            huge.extend(std::iter::repeat_n(b'a', 64 * 1024));
            huge.extend_from_slice(b"\r\n\r\n");
            huge
        },
        b"POST /predict HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n".to_vec(),
    ];

    for (i, attack) in attacks.iter().enumerate() {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(attack).expect("send attack");
        let mut response = Vec::new();
        // The server either answers (a 4xx status line) or closes cleanly.
        let _ = stream.read_to_end(&mut response);
        if !response.is_empty() {
            let text = String::from_utf8_lossy(&response);
            let status: u16 = text
                .split(' ')
                .nth(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("attack {i}: unparseable response {text:?}"));
            assert!(
                (400..500).contains(&status),
                "attack {i}: status {status} is not 4xx ({text:?})"
            );
        }
    }

    // Seeded random mutations of a valid request over the real socket.
    let mut rng = Prng::new(0x7763);
    let item = &ds.items()[0];
    let valid = format!(
        "POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: {len}\r\n\r\n{body}",
        len = json::encode_request(&InferenceRequest::new(item.tokens.clone(), item.domain))
            .render()
            .len(),
        body =
            json::encode_request(&InferenceRequest::new(item.tokens.clone(), item.domain)).render()
    )
    .into_bytes();
    for case in 0..40 {
        let mut mutated = valid.clone();
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(mutated.len());
            mutated[at] = (rng.next_u64() & 0xFF) as u8;
        }
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(&mutated).expect("send mutated");
        // Close our write half so a mutation that inflated Content-Length
        // EOFs the server's read instead of waiting out the idle timeout.
        stream.shutdown(std::net::Shutdown::Write).ok();
        let mut response = Vec::new();
        let _ = stream.read_to_end(&mut response);
        if !response.is_empty() {
            let text = String::from_utf8_lossy(&response);
            let status: u16 = text
                .split(' ')
                .nth(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            assert!(
                status == 200 || (400..500).contains(&status),
                "case {case}: status {status} ({text:?})"
            );
        }
    }

    // After the whole assault the server still serves correct traffic.
    let mut client = HttpClient::connect(addr).unwrap();
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    let response = client
        .post(
            "/predict",
            &json::encode_request(&InferenceRequest::new(item.tokens.clone(), item.domain))
                .render(),
        )
        .unwrap();
    assert_eq!(response.status, 200);
    let stats = client.get("/stats").unwrap().json().unwrap();
    let rejected = stats
        .get("http")
        .and_then(|h| h.get("responses_4xx"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(rejected > 0, "the attacks above must have counted as 4xx");
}

#[test]
fn draining_drops_readiness_while_accepted_connections_stay_live() {
    let (checkpoint, _) = trained_checkpoint();
    let server = start_http(&checkpoint, 4);
    let addr = server.local_addr();
    // Under epoll, draining stops new accepts, so both connections are
    // served once before the drain starts.
    let mut probe = HttpClient::connect(addr).expect("connect");
    let mut live = HttpClient::connect(addr).expect("connect");
    assert_eq!(live.get("/healthz").unwrap().status, 200);
    assert_eq!(probe.get("/readyz").unwrap().status, 200);
    server.begin_drain();
    assert_eq!(
        probe.get("/readyz").unwrap().status,
        503,
        "readiness must drop once draining starts"
    );
    assert_eq!(
        live.get("/healthz").unwrap().status,
        200,
        "liveness must survive draining"
    );
    drop((probe, live));
    server.shutdown();
}
