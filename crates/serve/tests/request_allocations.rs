//! Heap allocations per served request, counted by this test binary's own
//! global allocator over every thread (the clients and the workers).
//!
//! A queued request should cost a handful of small allocations: its encoded
//! form, its cache key and one reply slot of under 128 bytes. The worker builds its batch from
//! borrowed requests and reuses the scratch pool's buffers and node arena,
//! so the per-batch costs spread thin over a burst, and a lone request
//! allocates a few kilobytes, not a fresh node arena per forward pass.
//! Telemetry is always on, so these bounds include recording every
//! request's stage timings.

use dtdbd_data::{weibo21_spec, GeneratorConfig, InferenceRequest, NewsGenerator};
use dtdbd_models::{ModelConfig, TextCnnModel};
use dtdbd_serve::{Checkpoint, PredictServer, ServerBuilder, Stage};
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::ParamStore;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The system allocator, counting allocation calls (a `realloc` counts as
/// one) and the bytes they ask for.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The counters are process-wide: one measurement at a time.
static MEASURING: Mutex<()> = Mutex::new(());

/// Hold the measurement lock; a test that failed while holding it leaves
/// nothing behind that the next one needs.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    MEASURING.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Allocations and bytes allocated, on every thread, while `f` runs.
fn measure(f: impl FnOnce()) -> (u64, u64) {
    let before = (
        ALLOCATIONS.load(Ordering::SeqCst),
        BYTES.load(Ordering::SeqCst),
    );
    f();
    (
        ALLOCATIONS.load(Ordering::SeqCst) - before.0,
        BYTES.load(Ordering::SeqCst) - before.1,
    )
}

const BURST: usize = 1024;

/// A server with `ServerBuilder` defaults (two workers, batches of up to
/// 32, the 2 ms linger, the prediction cache on) serving an untrained
/// TextCNN-S student at the benchmark's corpus geometry.
fn server() -> (PredictServer, usize, usize) {
    let corpus =
        NewsGenerator::new(weibo21_spec(), GeneratorConfig::default()).generate_scaled(3, 0.02);
    let config = ModelConfig::for_dataset(&corpus);
    let mut store = ParamStore::new();
    let model = TextCnnModel::student(&mut store, &config, &mut Prng::new(5));
    let checkpoint = Checkpoint::capture(&model, &store);
    let server = ServerBuilder::new()
        .try_start_from_checkpoint(&checkpoint)
        .expect("default configuration");
    (server, config.vocab_size, config.n_domains)
}

/// `n` requests, pairwise distinct and distinct from every other call's
/// (`first` numbers them), so each one misses the prediction cache.
fn distinct_requests(
    first: usize,
    n: usize,
    vocab: usize,
    domains: usize,
) -> Vec<InferenceRequest> {
    let span = vocab - 2;
    (first..first + n)
        .map(|i| {
            let tokens = vec![2 + (i % span) as u32, 2 + (i / span % span) as u32, 2];
            InferenceRequest::new(tokens, i % domains)
        })
        .collect()
}

/// Requests each per-request stage histogram has counted so far: the cache
/// lookup at submit, then the queue wait and the inference share in the
/// worker.
fn stage_counts(server: &PredictServer) -> [u64; 3] {
    let snapshot = server.telemetry().expect("telemetry").snapshot();
    [Stage::CacheLookup, Stage::QueueWait, Stage::Inference]
        .map(|stage| snapshot.stage_total(stage).count)
}

/// Submit every request, then wait on every handle.
fn burst(server: &PredictServer, requests: &[InferenceRequest]) {
    let mut handles = Vec::with_capacity(requests.len());
    for request in requests {
        handles.push(server.submit(request).expect("valid request"));
    }
    for handle in handles {
        handle.wait().expect("served");
    }
}

#[test]
fn a_queued_request_costs_a_few_small_allocations() {
    let _measuring = one_at_a_time();
    let (server, vocab, domains) = server();
    // Warm both workers' scratch pools to full batches first.
    burst(&server, &distinct_requests(0, BURST, vocab, domains));

    let requests = distinct_requests(BURST, BURST, vocab, domains);
    let before = stage_counts(&server);
    let (allocations, bytes) = measure(|| burst(&server, &requests));
    let after = stage_counts(&server);
    let per_request = allocations as f64 / BURST as f64;
    let bytes_per_request = bytes as f64 / BURST as f64;
    println!(
        "burst of {BURST}: {per_request:.2} allocations, {bytes_per_request:.0} bytes per request"
    );
    assert_eq!(server.stats().cache.hits, 0, "every request was new");
    let recorded = [0, 1, 2].map(|i| after[i] - before[i]);
    assert_eq!(
        recorded, [BURST as u64; 3],
        "the burst's stage histograms (cache lookup, queue wait, inference) count every request"
    );
    assert!(
        per_request <= 8.0,
        "{per_request:.2} allocations per queued request (at most 8 expected)"
    );
    // A std channel per reply alone would add about 2.1 KB per request.
    assert!(
        bytes_per_request <= 2048.0,
        "{bytes_per_request:.0} bytes allocated per queued request (at most 2 KB expected)"
    );
}

#[test]
fn a_lone_request_allocates_no_node_arena() {
    let _measuring = one_at_a_time();
    let (server, vocab, domains) = server();
    // Warm every worker with lone requests: each forward pass of a batch of
    // one runs on whichever worker wakes first.
    for request in distinct_requests(0, 16, vocab, domains) {
        server.predict(&request).expect("served");
    }

    let request = &distinct_requests(16, 1, vocab, domains)[0];
    let (allocations, bytes) = measure(|| {
        server.predict(request).expect("served");
    });
    println!("lone request: {allocations} allocations, {bytes} bytes");
    assert!(
        bytes < 8 * 1024,
        "a batch-of-one request allocated {bytes} bytes (under 8 KB expected)"
    );
}
