//! Property tests for the checkpoint codec: save→load round-trips arbitrary
//! `ParamStore` contents bit-exactly, and damaged files are rejected.
//!
//! Like the rest of the workspace these are framework-free property tests:
//! each property runs over many seeded random cases drawn from the crate's
//! own `Prng`, and every assertion message carries the case seed.

use dtdbd_data::{weibo21_spec, GeneratorConfig, NewsGenerator};
use dtdbd_models::ModelConfig;
use dtdbd_serve::{Checkpoint, CheckpointError, SideState};
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::{ParamStore, Tensor};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const CASES: u64 = 32;

fn config() -> ModelConfig {
    let ds = NewsGenerator::new(weibo21_spec(), GeneratorConfig::tiny()).generate_scaled(1, 0.01);
    ModelConfig::tiny(&ds)
}

/// A parameter store with a random number of parameters, random shapes and
/// values sampled to include the `f32` edge cases a naive text codec would
/// mangle: signed zeros, subnormals, huge magnitudes, and NaN payloads.
fn arbitrary_store(rng: &mut Prng) -> ParamStore {
    let mut store = ParamStore::new();
    let n_params = 1 + rng.below(6);
    for p in 0..n_params {
        let ndim = 1 + rng.below(3);
        let shape: Vec<usize> = (0..ndim).map(|_| 1 + rng.below(5)).collect();
        let numel: usize = shape.iter().product();
        let data: Vec<f32> = (0..numel)
            .map(|_| match rng.below(8) {
                0 => 0.0,
                1 => -0.0,
                2 => f32::MIN_POSITIVE / 2.0, // subnormal
                3 => 3.0e38,
                4 => -3.0e38,
                5 => f32::from_bits(0x7FC0_1234), // NaN with payload
                _ => rng.normal_with(0.0, 10.0),
            })
            .collect();
        let value = Tensor::new(shape, data);
        let name = format!("param.{p}");
        if rng.chance(0.3) {
            store.add_frozen(name, value);
        } else {
            store.add(name, value);
        }
    }
    store
}

/// A side state with a random number of uniquely tagged chunks of random
/// bytes (including empty bodies) — the container must carry them opaquely.
fn arbitrary_side_state(rng: &mut Prng) -> SideState {
    let mut state = SideState::new();
    for i in 0..rng.below(4) {
        let len = rng.below(64);
        let bytes: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
        state.insert(format!("chunk.{i}"), bytes).unwrap();
    }
    state
}

fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "dtdbd-ckpt-test-{}-{tag}-{unique}.dtdbd",
        std::process::id()
    ))
}

fn assert_bit_exact(case: u64, original: &ParamStore, loaded: &ParamStore) {
    assert_eq!(original.len(), loaded.len(), "case {case}: param count");
    for ((_, a), (_, b)) in original.iter().zip(loaded.iter()) {
        assert_eq!(a.name, b.name, "case {case}: name");
        assert_eq!(a.trainable, b.trainable, "case {case}: trainable flag");
        assert_eq!(a.value.shape(), b.value.shape(), "case {case}: shape");
        for (x, y) in a.value.data().iter().zip(b.value.data()) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "case {case}: {} not bit-exact ({x} vs {y})",
                a.name
            );
        }
        assert!(
            b.grad.is_none(),
            "case {case}: a loaded checkpoint holds no gradients"
        );
    }
}

#[test]
fn save_load_round_trips_arbitrary_stores_bit_exactly() {
    let config = config();
    for case in 0..CASES {
        let mut rng = Prng::new(9000 + case);
        let store = arbitrary_store(&mut rng);
        let mut ckpt = Checkpoint::new("TextCNN-S", &config, &store);
        ckpt.side_state = arbitrary_side_state(&mut rng);

        // In-memory round trip.
        let decoded = Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_bit_exact(case, &store, &decoded.params);
        assert_eq!(decoded.side_state, ckpt.side_state, "case {case}: chunks");

        // Through-the-filesystem round trip.
        let path = temp_path("roundtrip");
        ckpt.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_bit_exact(case, &store, &loaded.params);
        assert_eq!(loaded.arch, "TextCNN-S", "case {case}");
        assert_eq!(loaded.side_state, ckpt.side_state, "case {case}: chunks");
        assert_eq!(
            loaded.config.vocab.size(),
            config.vocab.size(),
            "case {case}"
        );
    }
}

#[test]
fn truncated_files_are_rejected_at_every_cut_point() {
    let config = config();
    let mut rng = Prng::new(77);
    let store = arbitrary_store(&mut rng);
    let bytes = Checkpoint::new("BiGRU-S", &config, &store).to_bytes();
    // Probe a spread of truncation points, including inside the header.
    for case in 0..CASES {
        let cut = (bytes.len() * case as usize) / CASES as usize;
        let result = Checkpoint::from_bytes(&bytes[..cut]);
        assert!(
            result.is_err(),
            "case {case}: truncation to {cut}/{} bytes must not decode",
            bytes.len()
        );
    }
}

#[test]
fn corrupted_payload_bytes_are_rejected_by_the_crc() {
    let config = config();
    let mut rng = Prng::new(78);
    let store = arbitrary_store(&mut rng);
    let clean = Checkpoint::new("TextCNN-S", &config, &store).to_bytes();
    // Flip only inside the payload proper: the v2 side-state section that
    // follows it is guarded by per-chunk CRCs, not the header CRC.
    let header = 20usize; // magic + version + length + crc
    let payload_len = u64::from_le_bytes(clean[8..16].try_into().unwrap()) as usize;
    for case in 0..CASES {
        let mut rng = Prng::new(10_000 + case);
        let mut bytes = clean.clone();
        let idx = header + rng.below(payload_len);
        let bit = 1u8 << rng.below(8);
        bytes[idx] ^= bit;
        match Checkpoint::from_bytes(&bytes) {
            Err(CheckpointError::Corrupted { .. }) => {}
            other => panic!(
                "case {case}: flipping bit {bit:#04x} at byte {idx} must fail the CRC, got {other:?}"
            ),
        }
    }
}

#[test]
fn corrupted_file_on_disk_is_rejected() {
    let config = config();
    let mut rng = Prng::new(79);
    let store = arbitrary_store(&mut rng);
    let path = temp_path("corrupt");
    Checkpoint::new("TextCNN-S", &config, &store)
        .save(&path)
        .unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = 20 + (bytes.len() - 20) / 3;
    bytes[mid] = bytes[mid].wrapping_add(1);
    std::fs::write(&path, &bytes).unwrap();
    let result = Checkpoint::load(&path);
    std::fs::remove_file(&path).ok();
    assert!(matches!(result, Err(CheckpointError::Corrupted { .. })));
}

#[test]
fn truncated_file_on_disk_is_rejected() {
    let config = config();
    let mut rng = Prng::new(80);
    let store = arbitrary_store(&mut rng);
    let path = temp_path("truncated");
    Checkpoint::new("TextCNN-S", &config, &store)
        .save(&path)
        .unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    let result = Checkpoint::load(&path);
    std::fs::remove_file(&path).ok();
    assert!(matches!(result, Err(CheckpointError::Truncated { .. })));
}

#[test]
fn missing_file_surfaces_the_io_error() {
    let result = Checkpoint::load(temp_path("does-not-exist"));
    assert!(matches!(result, Err(CheckpointError::Io(_))));
}
