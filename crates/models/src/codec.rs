//! Low-level little-endian binary codec with CRC-32 integrity checking.
//!
//! The checkpoint format is hand-rolled rather than pulled from a
//! serialization framework so the workspace stays dependency-free and the
//! on-disk layout is fully specified by this file. Numbers are fixed-width
//! little-endian; `f32` values travel as raw IEEE-754 bit patterns, which is
//! what makes checkpoint round trips bit-exact (including NaN payloads and
//! signed zeros). Strings are length-prefixed UTF-8.
//!
//! The codec lives in `dtdbd-models` (it started in `dtdbd-serve`, which
//! still re-exports it as `dtdbd_serve::codec`) because models encode their
//! own [`crate::SideState`] chunks with these primitives: a model's
//! off-`ParamStore` state (e.g. M3FEND's domain memory bank) is serialized
//! *by the model* into opaque bytes that the checkpoint container then
//! frames, length-prefixes and CRC-guards without understanding them.

use std::fmt;

/// Errors surfaced while decoding a byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The stream ended before a value could be read.
    UnexpectedEof {
        /// Bytes requested past the end.
        needed: usize,
        /// Bytes remaining.
        available: usize,
    },
    /// A length-prefixed string was not valid UTF-8.
    InvalidUtf8,
    /// A declared length is implausibly large for the remaining stream.
    LengthOverflow {
        /// The declared length.
        declared: u64,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnexpectedEof { needed, available } => {
                write!(
                    f,
                    "unexpected end of stream: needed {needed} bytes, {available} left"
                )
            }
            Self::InvalidUtf8 => write!(f, "length-prefixed string is not valid UTF-8"),
            Self::LengthOverflow { declared } => {
                write!(f, "declared length {declared} exceeds the remaining stream")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only little-endian byte writer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Write raw bytes verbatim.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `f32` as its IEEE-754 bit pattern (bit-exact).
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Write a length-prefixed `f32` slice (bit patterns).
    pub fn f32_slice(&mut self, values: &[f32]) {
        self.u64(values.len() as u64);
        for &v in values {
            self.f32(v);
        }
    }
}

/// Cursor-based little-endian byte reader.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` once every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                needed: n,
                available: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a `u64` that will be used as a length, rejecting values larger
    /// than the remaining stream (cheap corruption guard before allocating).
    pub fn length(&mut self) -> Result<usize, CodecError> {
        let declared = self.u64()?;
        if declared > self.remaining() as u64 {
            return Err(CodecError::LengthOverflow { declared });
        }
        Ok(declared as usize)
    }

    /// Read an `f32` bit pattern.
    pub fn f32(&mut self) -> Result<f32, CodecError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let n = self.length()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::InvalidUtf8)
    }

    /// Read a length-prefixed `f32` vector (the prefix counts values).
    pub fn f32_values(&mut self) -> Result<Vec<f32>, CodecError> {
        let count = self.u64()?;
        if count
            .checked_mul(4)
            .is_none_or(|bytes| bytes > self.remaining() as u64)
        {
            return Err(CodecError::LengthOverflow { declared: count });
        }
        let mut out = Vec::with_capacity(count as usize);
        for _ in 0..count {
            out.push(self.f32()?);
        }
        Ok(out)
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_of_parts(&[bytes])
}

/// CRC-32 of the concatenation of `parts`, scanned in place — equal to
/// [`crc32`] of the joined bytes without allocating the joined buffer
/// (the checkpoint layer CRCs `tag ‖ body` per side-state chunk this way).
///
/// Runs slicing-by-8: eight bytes per step through eight lookup tables whose
/// loads are independent of one another, so a step does not wait on the
/// previous byte's lookup the way a one-table loop does. The values are those
/// of the textbook shift-and-xor loop, which the tests keep as the reference.
pub fn crc32_of_parts(parts: &[&[u8]]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    for part in parts {
        let mut words = part.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &byte in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
    }
    !crc
}

/// `CRC_TABLES[0][b]` is the CRC register after shifting byte `b` through
/// eight bit steps; `CRC_TABLES[k][b]` is that of `b` followed by `k` zero
/// bytes, which is what lets one step fold in eight bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f32(-0.0);
        w.f32(f32::NAN);
        w.str("héllo");
        w.f32_slice(&[1.5, -2.5, f32::INFINITY]);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert!(r.f32().unwrap().is_nan());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.f32_values().unwrap(), vec![1.5, -2.5, f32::INFINITY]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_streams_report_eof() {
        let mut w = ByteWriter::new();
        w.u64(42);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..5]);
        assert_eq!(
            r.u64().unwrap_err(),
            CodecError::UnexpectedEof {
                needed: 8,
                available: 5
            }
        );
    }

    #[test]
    fn oversized_lengths_are_rejected_before_allocation() {
        let mut w = ByteWriter::new();
        w.u64(u64::MAX); // absurd string length
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.str(), Err(CodecError::LengthOverflow { .. })));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the ASCII string "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    #[test]
    fn crc32_of_parts_equals_crc32_of_the_concatenation() {
        assert_eq!(crc32_of_parts(&[b"123", b"", b"456789"]), 0xCBF4_3926);
        assert_eq!(crc32_of_parts(&[]), 0);
        assert_eq!(
            crc32_of_parts(&[b"m3fend.memory", &[1, 2, 3]]),
            crc32(b"m3fend.memory\x01\x02\x03")
        );
    }

    /// The shift-and-xor CRC-32, one bit per step: the reference the
    /// table-driven [`crc32_of_parts`] must agree with.
    fn bitwise_crc32(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in bytes {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    /// Deterministic pseudo-random bytes (xorshift64).
    fn noise(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn table_driven_crc32_equals_the_bitwise_loop() {
        let buf = noise(64, 1);
        for len in 0..=64 {
            assert_eq!(crc32(&buf[..len]), bitwise_crc32(&buf[..len]), "len {len}");
        }
        for (len, seed) in [(100_003, 2), (218_112, 3)] {
            let big = noise(len, seed);
            assert_eq!(crc32(&big), bitwise_crc32(&big), "len {len}");
        }
        for split in 0..=buf.len() {
            let (a, b) = buf.split_at(split);
            assert_eq!(
                crc32_of_parts(&[a, b]),
                bitwise_crc32(&buf),
                "split {split}"
            );
        }
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut w = ByteWriter::new();
        w.u64(2);
        w.bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.str().unwrap_err(), CodecError::InvalidUtf8);
    }
}
