//! Seeded wire-level fuzz battery for the HTTP parser and the JSON codec.
//!
//! Same in-tree pattern as `crates/tensor/tests/proptest_ops.rs`: each
//! property drives many deterministic cases from the crate's own `Prng`, and
//! every assertion message carries the case seed so a failure replays
//! exactly. The invariant under test is the serving front-end's core safety
//! promise: **arbitrary bytes — random garbage, or valid traffic with random
//! mutations — must produce a clean typed outcome (a 4xx-mapped error or
//! `NeedMore`), never a panic, an unbounded loop, or a success carrying
//! state that was never sent.**

use dtdbd_data::{weibo21_spec, GeneratorConfig, NewsGenerator};
use dtdbd_models::{ModelConfig, TextCnnModel};
use dtdbd_serve::http::{ParseOutcome, RequestParser};
use dtdbd_serve::json::{self, Json};
use dtdbd_serve::{Checkpoint, HttpClient, ServerBuilder};
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::ParamStore;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};

const CASES: u64 = 300;

fn random_bytes(rng: &mut Prng, len: usize) -> Vec<u8> {
    (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect()
}

/// Corrupt `bytes` with 1–4 random single-byte substitutions, insertions or
/// deletions.
fn mutate(rng: &mut Prng, bytes: &mut Vec<u8>) {
    for _ in 0..1 + rng.below(4) {
        if bytes.is_empty() {
            bytes.push((rng.next_u64() & 0xFF) as u8);
            continue;
        }
        let at = rng.below(bytes.len());
        match rng.below(3) {
            0 => bytes[at] = (rng.next_u64() & 0xFF) as u8,
            1 => bytes.insert(at, (rng.next_u64() & 0xFF) as u8),
            _ => {
                bytes.remove(at);
            }
        }
    }
}

fn valid_request_bytes(rng: &mut Prng) -> Vec<u8> {
    let body = match rng.below(3) {
        0 => String::new(),
        1 => r#"{"tokens": [1, 2, 3], "domain": 0}"#.to_string(),
        _ => format!(
            r#"{{"items": [{{"tokens": [{}], "domain": 1}}]}}"#,
            rng.below(50)
        ),
    };
    let (method, path) = match rng.below(5) {
        0 => ("POST", "/predict"),
        1 => ("GET", "/healthz"),
        2 => ("GET", "/readyz"),
        3 => ("GET", "/metrics"),
        _ => ("GET", "/stats"),
    };
    format!(
        "{method} {path} HTTP/1.1\r\nHost: fuzz\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Drive the parser over `bytes` split into random chunks, polling between
/// feeds, until the input is exhausted and the parser makes no progress.
/// Returns every terminal outcome observed. The loop is bounded, so a
/// parser that stopped progressing would fail the test rather than hang.
fn drive(rng: &mut Prng, bytes: &[u8], seed: u64) -> Vec<ParseOutcome> {
    let mut parser = RequestParser::new(1024, 4096);
    let mut outcomes = Vec::new();
    let mut fed = 0usize;
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        assert!(
            rounds <= bytes.len() * 2 + 64,
            "case {seed}: parser made no progress (possible hang)"
        );
        match parser.poll() {
            ParseOutcome::NeedMore => {
                if fed == bytes.len() {
                    return outcomes; // clean close: connection would EOF here
                }
                let chunk = 1 + rng.below(97.min(bytes.len() - fed));
                parser.feed(&bytes[fed..fed + chunk]);
                fed += chunk;
            }
            ParseOutcome::Request(request) => outcomes.push(ParseOutcome::Request(request)),
            ParseOutcome::Failed(e) => {
                outcomes.push(ParseOutcome::Failed(e));
                return outcomes; // server closes after a wire error
            }
        }
    }
}

#[test]
fn http_parser_survives_pure_garbage() {
    for case in 0..CASES {
        let mut rng = Prng::new(0x6172_6261 + case);
        let len = rng.below(2048);
        let bytes = random_bytes(&mut rng, len);
        for outcome in drive(&mut rng, &bytes, case) {
            match outcome {
                ParseOutcome::Failed(e) => {
                    assert!(
                        (400..500).contains(&e.status),
                        "case {case}: garbage mapped to non-4xx status {}",
                        e.status
                    );
                }
                // A complete request assembled from garbage is possible only
                // if the garbage happened to be well-formed; accept it.
                ParseOutcome::Request(_) => {}
                ParseOutcome::NeedMore => unreachable!("drive() never returns NeedMore"),
            }
        }
    }
}

#[test]
fn http_parser_survives_mutated_valid_requests() {
    for case in 0..CASES {
        let mut rng = Prng::new(0x6D75_7461 + case);
        let mut bytes = valid_request_bytes(&mut rng);
        mutate(&mut rng, &mut bytes);
        for outcome in drive(&mut rng, &bytes, case) {
            if let ParseOutcome::Failed(e) = outcome {
                assert!(
                    (400..500).contains(&e.status),
                    "case {case}: mutation mapped to non-4xx status {} ({})",
                    e.status,
                    e.message
                );
            }
        }
    }
}

#[test]
fn http_parser_accepts_unmutated_requests_under_any_chunking() {
    for case in 0..CASES {
        let mut rng = Prng::new(0x6368_756E + case);
        let bytes = valid_request_bytes(&mut rng);
        let outcomes = drive(&mut rng, &bytes, case);
        assert_eq!(
            outcomes.len(),
            1,
            "case {case}: expected exactly one request"
        );
        match &outcomes[0] {
            ParseOutcome::Request(request) => {
                assert!(request.keep_alive, "case {case}");
                assert!(
                    matches!(
                        request.target.as_str(),
                        "/predict" | "/healthz" | "/readyz" | "/metrics" | "/stats"
                    ),
                    "case {case}: target {:?}",
                    request.target
                );
            }
            other => panic!("case {case}: {other:?}"),
        }
    }
}

/// Live-socket fragmentation battery against the event-driven front-end:
/// the same mutated-and-valid traffic as the in-memory batteries above, but
/// delivered over real connections in randomized fragments so every chunk
/// boundary lands in the **nonblocking** read path (epoll model where the
/// platform has it). The server must answer every well-formed request,
/// close cleanly on everything else, and stay healthy throughout.
#[test]
fn live_server_survives_randomly_fragmented_traffic() {
    let dataset =
        NewsGenerator::new(weibo21_spec(), GeneratorConfig::tiny()).generate_scaled(4, 0.02);
    let mut store = ParamStore::new();
    let model = TextCnnModel::student(&mut store, &ModelConfig::tiny(&dataset), &mut Prng::new(7));
    let server = ServerBuilder::new()
        .workers(1)
        .try_start_http_from_checkpoint(&Checkpoint::capture(&model, &store))
        .expect("http server must start");
    let addr = server.local_addr();

    const LIVE_CASES: u64 = 60;
    for case in 0..LIVE_CASES {
        let mut rng = Prng::new(0x6672_6167 + case);
        let mut bytes = valid_request_bytes(&mut rng);
        let mutated = rng.chance(0.5);
        if mutated {
            mutate(&mut rng, &mut bytes);
        }

        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .expect("read timeout");
        // Deliver in fragments of 1..=13 bytes with a pause between them so
        // each arrives as its own readiness event, not one coalesced read.
        // A mutant can draw an early 4xx-and-close while fragments are still
        // in flight; the resulting EPIPE/reset is correct server behaviour,
        // not a failure — but valid traffic must never see it.
        let mut sent = 0usize;
        while sent < bytes.len() {
            let chunk = (1 + rng.below(13)).min(bytes.len() - sent);
            match stream.write_all(&bytes[sent..sent + chunk]) {
                Ok(()) => sent += chunk,
                Err(e) if mutated => {
                    let _ = e;
                    break;
                }
                Err(e) => panic!("case {case}: write of valid traffic failed: {e}"),
            }
            if rng.chance(0.25) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        // Half-close: the server sees EOF after the last fragment, so even a
        // mutant whose head never completes is cut promptly, without waiting
        // out the idle deadline. May race the server's own close; ignore.
        let _ = stream.shutdown(Shutdown::Write);
        let mut response = Vec::new();
        if let Err(e) = stream.read_to_end(&mut response) {
            assert!(
                mutated,
                "case {case}: reading a valid request's response failed: {e}"
            );
            // A reset can truncate or wipe the 4xx; connection teardown is
            // all the contract requires for mutants.
            continue;
        }
        if mutated {
            // A mutant may still parse (and then must be answered), may draw
            // a 4xx, or may be cut with nothing on the wire — but whatever
            // comes back must be a well-formed HTTP response.
            assert!(
                response.is_empty() || response.starts_with(b"HTTP/1.1 "),
                "case {case}: non-HTTP bytes on the wire: {:?}",
                &response[..response.len().min(32)]
            );
        } else {
            // Wire-valid traffic is always answered. A `POST /predict` whose
            // generated body happens to be empty is wire-valid but
            // schema-invalid: the documented answer is `400 bad_json`.
            let empty_predict = bytes.starts_with(b"POST /predict") && bytes.ends_with(b"\r\n\r\n");
            let expected: &[u8] = if empty_predict {
                b"HTTP/1.1 400"
            } else {
                b"HTTP/1.1 200"
            };
            assert!(
                response.starts_with(expected),
                "case {case}: valid request {:?} answered: {:?}",
                String::from_utf8_lossy(&bytes),
                String::from_utf8_lossy(&response)
            );
        }
    }

    // The battery must leave the server fully serviceable.
    let mut client = HttpClient::connect(addr).expect("post-battery connect");
    let health = client.get("/healthz").expect("post-battery healthz");
    assert_eq!(health.status, 200, "server unhealthy after the battery");
    let stats = client.get("/stats").expect("post-battery stats");
    assert_eq!(stats.status, 200);
    server.shutdown();
}

fn random_json(rng: &mut Prng, depth: usize) -> Json {
    let choice = if depth >= 4 {
        rng.below(4)
    } else {
        rng.below(6)
    };
    match choice {
        0 => Json::Null,
        1 => Json::Bool(rng.chance(0.5)),
        2 => {
            // Mix of integers, fractions and f32-shaped values.
            match rng.below(3) {
                0 => Json::Num(f64::from(rng.next_u64() as u32)),
                1 => Json::Num(f64::from(rng.uniform(-1e6, 1e6))),
                _ => Json::Num(f64::from(rng.next_f32())),
            }
        }
        3 => {
            let len = rng.below(12);
            Json::Str(
                (0..len)
                    .map(|_| {
                        let c = rng.next_u64() % 0xD7FF;
                        char::from_u32(c as u32).unwrap_or('\u{FFFD}')
                    })
                    .collect(),
            )
        }
        4 => Json::Arr(
            (0..rng.below(5))
                .map(|_| random_json(rng, depth + 1))
                .collect(),
        ),
        _ => {
            let mut entries: Vec<(String, Json)> = Vec::new();
            for i in 0..rng.below(5) {
                entries.push((format!("k{i}"), random_json(rng, depth + 1)));
            }
            Json::Obj(entries)
        }
    }
}

#[test]
fn json_render_parse_round_trips_random_documents() {
    for case in 0..CASES {
        let mut rng = Prng::new(0x6A73_6F6E + case);
        let doc = random_json(&mut rng, 0);
        let text = doc.render();
        let back = json::parse(&text)
            .unwrap_or_else(|e| panic!("case {case}: rendered {text:?} failed to parse: {e}"));
        assert_eq!(back, doc, "case {case}: round trip changed the document");
    }
}

#[test]
fn json_parser_survives_mutated_documents() {
    for case in 0..CASES {
        let mut rng = Prng::new(0x6D6A_736E + case);
        let mut bytes = random_json(&mut rng, 0).render().into_bytes();
        mutate(&mut rng, &mut bytes);
        // Mutations may break UTF-8; the HTTP layer rejects those before the
        // JSON parser ever runs, so only valid-UTF-8 mutants reach parse().
        if let Ok(text) = std::str::from_utf8(&bytes) {
            // Must terminate and must not panic; Ok/Err are both acceptable.
            let _ = json::parse(text);
        }
    }
}

#[test]
fn json_parser_survives_pure_garbage_strings() {
    for case in 0..CASES {
        let mut rng = Prng::new(0x6761_7262 + case);
        let len = rng.below(512);
        let bytes = random_bytes(&mut rng, len);
        if let Ok(text) = std::str::from_utf8(&bytes) {
            let _ = json::parse(text);
        }
        // Also exercise the lossy decoding path clients might send.
        let lossy = String::from_utf8_lossy(&bytes);
        let _ = json::parse(&lossy);
    }
}

#[test]
fn mutated_request_objects_never_crash_the_schema_decoder() {
    let valid = r#"{"tokens": [5, 6, 7], "domain": 2, "style": [0.1, 0.2], "emotion": [0.3]}"#;
    for case in 0..CASES {
        let mut rng = Prng::new(0x7363_686D + case);
        let mut bytes = valid.as_bytes().to_vec();
        mutate(&mut rng, &mut bytes);
        let Ok(text) = std::str::from_utf8(&bytes) else {
            continue;
        };
        let Ok(doc) = json::parse(text) else { continue };
        // Whatever survived parsing must decode or error — never panic —
        // and a successful decode must carry only values present in the text.
        if let Ok(request) = json::decode_request(&doc) {
            assert!(request.tokens.len() <= text.len(), "case {case}");
        }
    }
}
