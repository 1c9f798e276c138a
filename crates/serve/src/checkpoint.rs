//! Versioned model checkpoints: `ParamStore` + `ModelConfig` + `Vocabulary`
//! + model [`SideState`].
//!
//! # File format (version 2)
//!
//! ```text
//! offset    size  field
//! 0         4     magic  b"DTDB"
//! 4         4     format version (u32 LE): 2 written, 1..=2 read
//! 8         8     payload length P in bytes (u64 LE)
//! 16        4     CRC-32 of the payload (u32 LE)
//! 20        P     payload (identical encoding to version 1)
//! 20+P      4     side-state chunk count N (u32 LE)        ── v2 only ──
//! ...             N chunks, each:
//!                   u64 LE  tag length T, then T bytes of UTF-8 tag
//!                   u64 LE  chunk body length L
//!                   u32 LE  CRC-32 of (tag bytes ‖ chunk body)
//!                   L bytes chunk body (opaque to this container)
//! ```
//!
//! The payload is, in order: the architecture tag (the constructor the loader
//! must use to rebuild the model), the full [`ModelConfig`] including the
//! vocabulary layout, and every parameter of the [`ParamStore`] (name,
//! trainable flag, shape, and the raw IEEE-754 bit patterns of the values).
//! Gradients are transient optimizer state and are not persisted; a loaded
//! store holds no gradient buffer.
//!
//! The **side-state section** carries trained state that lives outside the
//! `ParamStore` (M3FEND's domain memory bank is the canonical example) as
//! tagged opaque chunks, each individually length-prefixed and CRC-32
//! guarded — the header CRC covers only the payload, so every chunk defends
//! itself. Chunk bodies are produced and consumed by the model
//! ([`dtdbd_models::FakeNewsModel::export_side_state`] /
//! `import_side_state`); the container rejects duplicated tags
//! ([`CheckpointError::DuplicateChunk`]) and forged chunk bodies
//! ([`CheckpointError::ChunkCorrupted`]) itself, while tags the rebuilt
//! architecture does not understand fail at import time
//! ([`CheckpointError::SideState`]) — never silently dropped.
//!
//! **Version 1 files still load**: a v1 file is exactly the v2 layout with
//! the side-state section absent (reading one yields an empty
//! [`SideState`]), and a v2 file with zero chunks differs from its v1
//! counterpart only by the four-byte chunk count. The writer always emits
//! version 2.
//!
//! The header makes the outer failure modes loud before any tensor is
//! built: a truncated file fails the payload-length check and a corrupted
//! payload fails the CRC, both with dedicated error variants.

use crate::codec::{crc32, ByteReader, ByteWriter, CodecError};
use crate::telemetry::{DomainBaseline, BASELINE_TAG};
use dtdbd_data::Vocabulary;
use dtdbd_models::{FakeNewsModel, ModelConfig, SideState, SideStateError};
use dtdbd_tensor::{ParamStore, Tensor};
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// File magic, `b"DTDB"`.
pub const MAGIC: [u8; 4] = *b"DTDB";
/// Checkpoint format version this build writes.
pub const FORMAT_VERSION: u32 = 2;
/// Oldest checkpoint format version this build still reads.
pub const MIN_FORMAT_VERSION: u32 = 1;

/// Why a checkpoint failed to save or load.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error.
    Io(io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not supported by this build.
    UnsupportedVersion(u32),
    /// The file is shorter than its header promises.
    Truncated {
        /// Payload bytes promised by the header.
        expected: u64,
        /// Payload bytes actually present.
        found: u64,
    },
    /// The payload's CRC-32 does not match the header.
    Corrupted {
        /// CRC recorded in the header.
        expected: u32,
        /// CRC of the bytes on disk.
        found: u32,
    },
    /// A side-state chunk's CRC-32 does not match its recorded value (the
    /// header CRC covers only the payload; each chunk defends itself).
    ChunkCorrupted {
        /// Tag of the offending chunk.
        tag: String,
        /// CRC recorded with the chunk.
        expected: u32,
        /// CRC of the chunk bytes on disk.
        found: u32,
    },
    /// Two side-state chunks carry the same tag.
    DuplicateChunk {
        /// The repeated tag.
        tag: String,
    },
    /// The side state decoded structurally but the rebuilt model refused it
    /// (unknown tag, missing required chunk, or malformed chunk body).
    SideState(SideStateError),
    /// The payload decoded but its structure is invalid.
    Malformed(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            Self::BadMagic => write!(f, "not a DTDBD checkpoint (bad magic)"),
            Self::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint format version {v} \
                     (supported: {MIN_FORMAT_VERSION}..={FORMAT_VERSION})"
                )
            }
            Self::Truncated { expected, found } => {
                write!(
                    f,
                    "truncated checkpoint: header promises {expected} payload bytes, found {found}"
                )
            }
            Self::Corrupted { expected, found } => {
                write!(
                    f,
                    "corrupted checkpoint: CRC {found:#010x}, header says {expected:#010x}"
                )
            }
            Self::ChunkCorrupted {
                tag,
                expected,
                found,
            } => {
                write!(
                    f,
                    "corrupted side-state chunk {tag:?}: CRC {found:#010x}, chunk header says {expected:#010x}"
                )
            }
            Self::DuplicateChunk { tag } => {
                write!(f, "duplicate side-state chunk tag {tag:?}")
            }
            Self::SideState(e) => write!(f, "checkpoint side state rejected: {e}"),
            Self::Malformed(msg) => write!(f, "malformed checkpoint payload: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::SideState(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        Self::Malformed(e.to_string())
    }
}

impl From<SideStateError> for CheckpointError {
    fn from(e: SideStateError) -> Self {
        Self::SideState(e)
    }
}

/// A fully decoded checkpoint.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Architecture tag naming the constructor that rebuilds the model
    /// (e.g. `"TextCNN-S"`).
    pub arch: String,
    /// The model's configuration, including the vocabulary layout.
    pub config: ModelConfig,
    /// The model's parameters, without gradient buffers. Shared: every
    /// session restored from this checkpoint serves from this one store,
    /// and so does every clone of the checkpoint.
    pub params: Arc<ParamStore>,
    /// Trained state outside the `ParamStore`, as tagged opaque chunks
    /// (empty for purely parametric models and for version-1 files).
    pub side_state: SideState,
}

impl Checkpoint {
    /// Assemble a checkpoint from live training state, with no side-state
    /// section. For models that carry state outside the store (M3FEND),
    /// use [`Checkpoint::capture`], which asks the model itself.
    pub fn new(arch: impl Into<String>, config: &ModelConfig, params: &ParamStore) -> Self {
        Self {
            arch: arch.into(),
            config: config.clone(),
            params: weights_of(params),
            side_state: SideState::new(),
        }
    }

    /// Capture everything a faithful restore needs from a live model: the
    /// architecture tag, the configuration, the parameters, *and* the
    /// model's exported [`SideState`]. This is the save half of the full
    /// train → save → load → serve loop; prefer it over
    /// [`Checkpoint::new`] whenever the model instance is at hand.
    pub fn capture<M: FakeNewsModel + ?Sized>(model: &M, params: &ParamStore) -> Self {
        Self {
            arch: model.name().to_string(),
            config: model.config().clone(),
            params: weights_of(params),
            side_state: model.export_side_state(),
        }
    }

    /// Serialize to bytes (header + payload + side-state section).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = ByteWriter::new();
        payload.str(&self.arch);
        encode_config(&mut payload, &self.config);
        encode_params(&mut payload, &self.params);
        let payload = payload.into_bytes();

        let mut out = ByteWriter::new();
        out.bytes(&MAGIC);
        out.u32(FORMAT_VERSION);
        out.u64(payload.len() as u64);
        out.u32(crc32(&payload));
        out.bytes(&payload);
        out.u32(self.side_state.len() as u32);
        for (tag, chunk) in self.side_state.iter() {
            out.str(tag);
            out.u64(chunk.len() as u64);
            out.u32(chunk_crc(tag, chunk));
            out.bytes(chunk);
        }
        out.into_bytes()
    }

    /// Decode from bytes, verifying magic, version, length, the payload CRC
    /// and (version ≥ 2) every side-state chunk's own length and CRC.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.bytes(4).map_err(|_| CheckpointError::BadMagic)?;
        if magic != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r
            .u32()
            .map_err(|_| CheckpointError::UnsupportedVersion(0))?;
        if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let declared_len = r.u64().map_err(|_| CheckpointError::Truncated {
            expected: 0,
            found: 0,
        })?;
        let declared_crc = r.u32().map_err(|_| CheckpointError::Truncated {
            expected: declared_len,
            found: 0,
        })?;
        if (r.remaining() as u64) < declared_len {
            return Err(CheckpointError::Truncated {
                expected: declared_len,
                found: r.remaining() as u64,
            });
        }
        if version == 1 && (r.remaining() as u64) > declared_len {
            return Err(CheckpointError::Malformed(format!(
                "{} trailing bytes after the payload",
                r.remaining() as u64 - declared_len
            )));
        }
        let payload = r.bytes(declared_len as usize)?;
        let found_crc = crc32(payload);
        if found_crc != declared_crc {
            return Err(CheckpointError::Corrupted {
                expected: declared_crc,
                found: found_crc,
            });
        }

        let side_state = if version >= 2 {
            decode_side_state(&mut r)?
        } else {
            SideState::new()
        };
        if !r.is_exhausted() {
            return Err(CheckpointError::Malformed(format!(
                "{} trailing bytes after the side-state section",
                r.remaining()
            )));
        }

        let mut p = ByteReader::new(payload);
        let arch = p.str()?;
        let config = decode_config(&mut p)?;
        let params = decode_params(&mut p)?;
        if !p.is_exhausted() {
            return Err(CheckpointError::Malformed(format!(
                "{} undecoded payload bytes",
                p.remaining()
            )));
        }
        Ok(Self {
            arch,
            config,
            params: Arc::new(params),
            side_state,
        })
    }

    /// Write the checkpoint to a file (atomically: a temp file in the same
    /// directory is written first and then renamed over the target).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let path = path.as_ref();
        let tmp = path.with_extension("tmp-dtdbd");
        fs::write(&tmp, self.to_bytes())?;
        fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Read and verify a checkpoint from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let bytes = fs::read(path)?;
        Self::from_bytes(&bytes)
    }

    /// Attach (or replace) the training-time drift baseline this checkpoint
    /// carries in its [`BASELINE_TAG`] side-state chunk. The chunk lives in
    /// the `telemetry.` container namespace: it travels with the model's
    /// own side state but is stripped before `import_side_state`, so models
    /// never see it. Every [`crate::ServerBuilder`] start method wires it
    /// into the serving drift tracker automatically.
    pub fn set_telemetry_baseline(&mut self, baseline: &DomainBaseline) {
        self.side_state.remove(BASELINE_TAG);
        self.side_state
            .insert(BASELINE_TAG, baseline.to_bytes())
            .expect("tag is non-empty and was just removed");
    }

    /// Decode the checkpoint's drift baseline, if it carries one. A present
    /// but undecodable chunk is a typed
    /// [`CheckpointError::SideState`] (malformed), never silently `None`.
    pub fn telemetry_baseline(&self) -> Result<Option<DomainBaseline>, CheckpointError> {
        match self.side_state.get(BASELINE_TAG) {
            None => Ok(None),
            Some(bytes) => DomainBaseline::from_bytes(bytes)
                .map(Some)
                .map_err(|detail| {
                    CheckpointError::SideState(SideStateError::Malformed {
                        tag: BASELINE_TAG.to_string(),
                        detail,
                    })
                }),
        }
    }

    /// Copy this checkpoint's parameter values into a freshly built model's
    /// store, verifying that the layouts (names and shapes, in registration
    /// order) agree. This is the restore half of the save→build→restore
    /// loading protocol: the loader reconstructs the architecture from
    /// [`Checkpoint::arch`] and [`Checkpoint::config`], which registers
    /// randomly initialised parameters, then overwrites them here.
    pub fn restore_into(&self, store: &mut ParamStore) -> Result<(), CheckpointError> {
        if store.len() != self.params.len() {
            return Err(CheckpointError::Malformed(format!(
                "parameter count mismatch: model registers {}, checkpoint holds {}",
                store.len(),
                self.params.len()
            )));
        }
        for ((_, live), (_, saved)) in store.iter().zip(self.params.iter()) {
            if live.name != saved.name || live.value.shape() != saved.value.shape() {
                return Err(CheckpointError::Malformed(format!(
                    "parameter layout mismatch: model has {} {:?}, checkpoint has {} {:?}",
                    live.name,
                    live.value.shape(),
                    saved.name,
                    saved.value.shape()
                )));
            }
        }
        store.copy_values_from(&self.params);
        Ok(())
    }
}

/// CRC-32 over a chunk's tag bytes and body together: the header CRC does
/// not reach the side-state section, so each chunk guards both its identity
/// (the tag) and its contents itself.
fn chunk_crc(tag: &str, body: &[u8]) -> u32 {
    crate::codec::crc32_of_parts(&[tag.as_bytes(), body])
}

/// Decode the version-2 side-state section: a `u32` chunk count followed by
/// `count` chunks, each a tag string + `u64` body length + `u32` CRC of
/// (tag ‖ body) + body bytes. Structural damage (truncation, bad tag,
/// oversized length) maps to [`CheckpointError::Malformed`] via the codec's
/// typed errors; a chunk whose CRC disagrees is
/// [`CheckpointError::ChunkCorrupted`] and a repeated tag is
/// [`CheckpointError::DuplicateChunk`].
fn decode_side_state(r: &mut ByteReader<'_>) -> Result<SideState, CheckpointError> {
    let count = r.u32().map_err(|_| {
        CheckpointError::Malformed("side-state section missing its chunk count".to_string())
    })?;
    let mut side_state = SideState::new();
    for index in 0..count {
        let chunk_err = |e: CodecError| {
            CheckpointError::Malformed(format!("side-state chunk {index} of {count}: {e}"))
        };
        let tag = r.str().map_err(chunk_err)?;
        let len = r.u64().map_err(chunk_err)?;
        let declared_crc = r.u32().map_err(chunk_err)?;
        if len > r.remaining() as u64 {
            return Err(CheckpointError::Malformed(format!(
                "side-state chunk {tag:?} declares {len} bytes, {} remain",
                r.remaining()
            )));
        }
        let body = r.bytes(len as usize).map_err(chunk_err)?;
        let found_crc = chunk_crc(&tag, body);
        if found_crc != declared_crc {
            return Err(CheckpointError::ChunkCorrupted {
                tag,
                expected: declared_crc,
                found: found_crc,
            });
        }
        side_state
            .insert(&tag, body.to_vec())
            .map_err(|e| match e {
                SideStateError::DuplicateTag { tag } => CheckpointError::DuplicateChunk { tag },
                other => CheckpointError::SideState(other),
            })?;
    }
    Ok(side_state)
}

fn encode_vocab(w: &mut ByteWriter, vocab: &Vocabulary) {
    w.u64(vocab.n_domains() as u64);
    w.u64(vocab.n_topic_groups() as u64);
    w.u64(vocab.shared_cues_per_class() as u64);
    w.u64(vocab.domain_cues_per_class() as u64);
    w.u64(vocab.topic_tokens_per_group() as u64);
    w.u64(vocab.noise_tokens() as u64);
}

fn decode_vocab(r: &mut ByteReader<'_>) -> Result<Vocabulary, CheckpointError> {
    Ok(Vocabulary::from_parts(
        r.u64()? as usize,
        r.u64()? as usize,
        r.u64()? as usize,
        r.u64()? as usize,
        r.u64()? as usize,
        r.u64()? as usize,
    ))
}

fn encode_config(w: &mut ByteWriter, config: &ModelConfig) {
    encode_vocab(w, &config.vocab);
    w.u64(config.vocab_size as u64);
    w.u64(config.seq_len as u64);
    w.u64(config.n_domains as u64);
    w.u64(config.emb_dim as u64);
    w.u64(config.hidden as u64);
    w.u64(config.feature_dim as u64);
    w.f32(config.dropout);
    w.u64(config.emb_seed);
    w.u64(config.style_dim as u64);
    w.u64(config.emotion_dim as u64);
    w.u64(config.n_experts as u64);
}

fn decode_config(r: &mut ByteReader<'_>) -> Result<ModelConfig, CheckpointError> {
    let vocab = decode_vocab(r)?;
    Ok(ModelConfig {
        vocab,
        vocab_size: r.u64()? as usize,
        seq_len: r.u64()? as usize,
        n_domains: r.u64()? as usize,
        emb_dim: r.u64()? as usize,
        hidden: r.u64()? as usize,
        feature_dim: r.u64()? as usize,
        dropout: r.f32()?,
        emb_seed: r.u64()?,
        style_dim: r.u64()? as usize,
        emotion_dim: r.u64()? as usize,
        n_experts: r.u64()? as usize,
    })
}

/// The names, values and trainable flags of `params`, without the gradient
/// buffers training left in it.
fn weights_of(params: &ParamStore) -> Arc<ParamStore> {
    let mut weights = ParamStore::new();
    for (_, param) in params.iter() {
        let (name, value) = (param.name.clone(), param.value.clone());
        if param.trainable {
            weights.add(name, value);
        } else {
            weights.add_frozen(name, value);
        }
    }
    Arc::new(weights)
}

fn encode_params(w: &mut ByteWriter, params: &ParamStore) {
    w.u64(params.len() as u64);
    for (_, param) in params.iter() {
        w.str(&param.name);
        w.u8(u8::from(param.trainable));
        w.u64(param.value.ndim() as u64);
        for &dim in param.value.shape() {
            w.u64(dim as u64);
        }
        w.f32_slice(param.value.data());
    }
}

fn decode_params(r: &mut ByteReader<'_>) -> Result<ParamStore, CheckpointError> {
    let count = r.u64()?;
    let mut store = ParamStore::new();
    for _ in 0..count {
        let name = r.str()?;
        let trainable = match r.u8()? {
            0 => false,
            1 => true,
            other => {
                return Err(CheckpointError::Malformed(format!(
                    "parameter {name}: invalid trainable flag {other}"
                )))
            }
        };
        let ndim = r.u64()? as usize;
        if ndim > 8 {
            return Err(CheckpointError::Malformed(format!(
                "parameter {name}: implausible rank {ndim}"
            )));
        }
        let mut shape = Vec::with_capacity(ndim);
        for _ in 0..ndim {
            shape.push(r.u64()? as usize);
        }
        let data = r.f32_values()?;
        // Checked product: corrupted dims must map to a typed error, not an
        // overflow panic.
        let expected: usize = shape
            .iter()
            .try_fold(1usize, |acc, &dim| acc.checked_mul(dim))
            .ok_or_else(|| {
                CheckpointError::Malformed(format!(
                    "parameter {name}: shape {shape:?} overflows the element count"
                ))
            })?;
        if data.len() != expected {
            return Err(CheckpointError::Malformed(format!(
                "parameter {name}: shape {shape:?} needs {expected} values, payload has {}",
                data.len()
            )));
        }
        let value = Tensor::new(shape, data);
        if trainable {
            store.add(name, value);
        } else {
            store.add_frozen(name, value);
        }
    }
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtdbd_data::{weibo21_spec, GeneratorConfig, NewsGenerator};

    fn tiny_config() -> ModelConfig {
        let ds =
            NewsGenerator::new(weibo21_spec(), GeneratorConfig::tiny()).generate_scaled(1, 0.01);
        ModelConfig::tiny(&ds)
    }

    fn sample_store() -> ParamStore {
        let mut store = ParamStore::new();
        store.add(
            "layer.weight",
            Tensor::from_rows(&[vec![1.5, -2.25], vec![0.0, -0.0]]),
        );
        store.add_frozen(
            "emb.table",
            Tensor::from_vec(vec![f32::MIN_POSITIVE, 3.0e38]),
        );
        store
    }

    #[test]
    fn byte_round_trip_preserves_everything() {
        let config = tiny_config();
        let store = sample_store();
        let ckpt = Checkpoint::new("TextCNN-S", &config, &store);
        let decoded = Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(decoded.arch, "TextCNN-S");
        assert_eq!(decoded.config.seq_len, config.seq_len);
        assert_eq!(decoded.config.emb_seed, config.emb_seed);
        assert_eq!(decoded.config.vocab.size(), config.vocab.size());
        assert_eq!(decoded.params.len(), 2);
        assert!(decoded.side_state.is_empty());
        let (_, w) = decoded.params.iter().next().unwrap();
        assert_eq!(w.name, "layer.weight");
        assert!(w.trainable);
        // Bit-exact, including the negative zero.
        assert_eq!(w.value.data()[3].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn side_state_chunks_round_trip_in_order() {
        let mut ckpt = Checkpoint::new("M3FEND", &tiny_config(), &sample_store());
        ckpt.side_state
            .insert("m3fend.memory", vec![0xAA, 0x00, 0xFF, 0x55])
            .unwrap();
        ckpt.side_state.insert("aux.extra", Vec::new()).unwrap();
        let decoded = Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(decoded.side_state.len(), 2);
        assert_eq!(
            decoded.side_state.get("m3fend.memory"),
            Some(&[0xAA, 0x00, 0xFF, 0x55][..])
        );
        assert_eq!(decoded.side_state.get("aux.extra"), Some(&[][..]));
        let tags: Vec<&str> = decoded.side_state.tags().collect();
        assert_eq!(tags, ["m3fend.memory", "aux.extra"], "order preserved");
        // And the re-serialization is byte-stable.
        assert_eq!(decoded.to_bytes(), ckpt.to_bytes());
    }

    /// Rebuild a version-1 byte stream for a checkpoint: identical payload,
    /// version field 1, no side-state section.
    fn v1_bytes(ckpt: &Checkpoint) -> Vec<u8> {
        assert!(ckpt.side_state.is_empty(), "v1 cannot carry side state");
        let v2 = ckpt.to_bytes();
        let payload_len = u64::from_le_bytes(v2[8..16].try_into().unwrap()) as usize;
        let mut out = Vec::with_capacity(20 + payload_len);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(&v2[8..20 + payload_len]);
        out
    }

    #[test]
    fn version_1_files_still_load_with_empty_side_state() {
        let ckpt = Checkpoint::new("TextCNN-S", &tiny_config(), &sample_store());
        let v1 = v1_bytes(&ckpt);
        assert_eq!(
            v1.len() + 4,
            ckpt.to_bytes().len(),
            "v2 adds only the count"
        );
        let decoded = Checkpoint::from_bytes(&v1).unwrap();
        assert_eq!(decoded.arch, ckpt.arch);
        assert!(decoded.side_state.is_empty());
        for ((_, a), (_, b)) in decoded.params.iter().zip(ckpt.params.iter()) {
            assert_eq!(a.name, b.name);
            for (x, y) in a.value.data().iter().zip(b.value.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        // v1 keeps its strict no-trailing-bytes rule.
        let mut grown = v1;
        grown.push(0);
        assert!(matches!(
            Checkpoint::from_bytes(&grown),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn chunk_crc_flips_and_duplicate_tags_are_typed_errors() {
        let mut ckpt = Checkpoint::new("M3FEND", &tiny_config(), &sample_store());
        ckpt.side_state
            .insert("m3fend.memory", vec![1, 2, 3, 4, 5, 6, 7, 8])
            .unwrap();
        let bytes = ckpt.to_bytes();

        // Flip a bit inside the chunk body (the last 8 bytes of the file).
        let mut corrupt = bytes.clone();
        let n = corrupt.len();
        corrupt[n - 3] ^= 0x20;
        assert!(matches!(
            Checkpoint::from_bytes(&corrupt),
            Err(CheckpointError::ChunkCorrupted { ref tag, .. }) if tag == "m3fend.memory"
        ));

        // A duplicated tag (chunk appended verbatim, count bumped).
        let payload_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let section_start = 20 + payload_len;
        let chunk = bytes[section_start + 4..].to_vec();
        let mut dup = bytes.clone();
        dup[section_start..section_start + 4].copy_from_slice(&2u32.to_le_bytes());
        dup.extend_from_slice(&chunk);
        assert!(matches!(
            Checkpoint::from_bytes(&dup),
            Err(CheckpointError::DuplicateChunk { ref tag }) if tag == "m3fend.memory"
        ));

        // Truncation inside the section.
        let cut = &bytes[..bytes.len() - 2];
        assert!(matches!(
            Checkpoint::from_bytes(cut),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = Checkpoint::new("x", &tiny_config(), &sample_store()).to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::BadMagic)
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = Checkpoint::new("x", &tiny_config(), &sample_store()).to_bytes();
        bytes[4] = 99;
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn truncation_is_detected_by_the_length_check() {
        let bytes = Checkpoint::new("x", &tiny_config(), &sample_store()).to_bytes();
        let cut = &bytes[..bytes.len() - 7];
        assert!(matches!(
            Checkpoint::from_bytes(cut),
            Err(CheckpointError::Truncated { .. })
        ));
    }

    #[test]
    fn bit_flips_are_detected_by_the_crc() {
        let mut bytes = Checkpoint::new("x", &tiny_config(), &sample_store()).to_bytes();
        let mid = 20 + (bytes.len() - 20) / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::Corrupted { .. })
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = Checkpoint::new("x", &tiny_config(), &sample_store()).to_bytes();
        bytes.push(0);
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn restore_into_rejects_layout_mismatches() {
        let config = tiny_config();
        let ckpt = Checkpoint::new("x", &config, &sample_store());
        // Wrong parameter count.
        let mut empty = ParamStore::new();
        assert!(ckpt.restore_into(&mut empty).is_err());
        // Wrong shape under the same name.
        let mut wrong = ParamStore::new();
        wrong.add("layer.weight", Tensor::zeros(&[3, 3]));
        wrong.add_frozen("emb.table", Tensor::zeros(&[2]));
        assert!(ckpt.restore_into(&mut wrong).is_err());
        // Matching layout restores the exact values.
        let mut good = ParamStore::new();
        good.add("layer.weight", Tensor::zeros(&[2, 2]));
        good.add_frozen("emb.table", Tensor::zeros(&[2]));
        ckpt.restore_into(&mut good).unwrap();
        assert_eq!(good.value(good.iter().next().unwrap().0).data()[0], 1.5);
    }
}
