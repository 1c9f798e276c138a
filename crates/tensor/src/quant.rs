//! Int8 quantized inference: per-row symmetric quantization of frozen
//! weight matrices plus a fused quantize → i32 GEMM → dequantize kernel.
//!
//! The scheme is the simplest one that preserves the repo's bit-exact
//! determinism contract:
//!
//! * **Per-row scales.** Every weight row (an output feature for linear
//!   layers, a channel for conv, a vocabulary row for the embedding table)
//!   gets `scale = maxabs / 127`, and values are stored as
//!   `round(v / scale)` clamped to `[-127, 127]`. An all-zero row stores
//!   scale `0` and all-zero codes. `-128` is never produced, so negation
//!   can never overflow.
//! * **i32 accumulation.** The GEMM accumulates `i8 × i8` products in
//!   `i32` over ascending `k`. Integer addition is associative, so the
//!   result is bit-identical at any thread count, tile size or ISA tier
//!   *by construction* — there is nothing to tune and nothing to drift.
//!   Overflow is impossible for every shape in this workspace:
//!   `127 · 127 · k` stays far below `2^31` for any `k < 133 000`.
//! * **Dequantize at the boundary.** The f32 output is
//!   `acc as f32 * (a_scale[row] * w_scale[col]) + bias[col]` — one fused
//!   multiply order, fixed in source, identical everywhere.
//!
//! Activations are quantized per input row at run time with the same
//! maxabs scan (a deterministic sequential reduction per row).

use crate::par::{self, SendMutPtr};
use crate::params::ParamId;
use crate::tensor::Tensor;
use std::ops::Range;
use std::sync::Arc;

/// Inference numeric precision knob, threaded from `ServerBuilder` down to
/// the kernels. `Fp32` is the exact training-time arithmetic; `Int8` is the
/// opt-in quantized path gated by the CI agreement battery.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Full f32 weights and arithmetic (the default).
    #[default]
    Fp32,
    /// Per-row symmetric int8 weights with i32 accumulation.
    Int8,
}

impl Precision {
    /// Stable lowercase name used in `/stats`, `/metrics` and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            Precision::Fp32 => "fp32",
            Precision::Int8 => "int8",
        }
    }
}

/// Quantize one row: write codes into `dst`, return the row scale.
/// Deterministic: a sequential maxabs scan then an elementwise round.
pub fn quantize_row(src: &[f32], dst: &mut [i8]) -> f32 {
    debug_assert_eq!(src.len(), dst.len());
    let mut maxabs = 0f32;
    for &v in src {
        let a = v.abs();
        if a > maxabs {
            maxabs = a;
        }
    }
    if maxabs == 0.0 {
        dst.fill(0);
        return 0.0;
    }
    let inv = 127.0 / maxabs;
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = (v * inv).round().clamp(-127.0, 127.0) as i8;
    }
    maxabs / 127.0
}

/// A frozen weight matrix quantized to int8, stored row-major as
/// `[rows, cols]` with one f32 scale per row. For a linear layer the rows
/// are *output* features (the f32 `[in, out]` weight is transposed at
/// quantization time); for a conv branch they are channels (the
/// `[oc, k, d]` weight flattened to `[oc, k·d]`). Either way the GEMM runs
/// in `A·Bᵀ` form over contiguous rows of both operands. For the embedding
/// table the rows are vocabulary rows, read by
/// [`QuantizedMatrix::gather_rows_into`].
#[derive(Debug, Clone)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    data: Vec<i8>,
    scales: Vec<f32>,
}

impl QuantizedMatrix {
    /// Quantize `src` (row-major `[rows, cols]`) row by row.
    pub fn from_rows(rows: usize, cols: usize, src: &[f32]) -> Self {
        assert_eq!(src.len(), rows * cols, "source size mismatch");
        let mut data = vec![0i8; rows * cols];
        let mut scales = vec![0f32; rows];
        for r in 0..rows {
            scales[r] = quantize_row(
                &src[r * cols..(r + 1) * cols],
                &mut data[r * cols..(r + 1) * cols],
            );
        }
        Self {
            rows,
            cols,
            data,
            scales,
        }
    }

    /// Quantize a linear weight stored `[in, out]`: transpose to
    /// `[out, in]` so each output feature becomes one contiguous int8 row.
    pub fn from_linear(weight: &Tensor) -> Self {
        assert_eq!(weight.ndim(), 2, "linear weight must be 2-D");
        let (in_dim, out_dim) = (weight.shape()[0], weight.shape()[1]);
        let src = weight.data();
        let mut transposed = vec![0f32; in_dim * out_dim];
        for i in 0..in_dim {
            for o in 0..out_dim {
                transposed[o * in_dim + i] = src[i * out_dim + o];
            }
        }
        Self::from_rows(out_dim, in_dim, &transposed)
    }

    /// Quantize a conv branch weight stored `[oc, k, d]`: each channel's
    /// `k·d` taps are already contiguous, so this is a flatten.
    pub fn from_conv(weight: &Tensor) -> Self {
        assert_eq!(weight.ndim(), 3, "conv weight must be 3-D");
        let oc = weight.shape()[0];
        let width = weight.shape()[1] * weight.shape()[2];
        Self::from_rows(oc, width, weight.data())
    }

    /// Output features (GEMM `n`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Reduction width (GEMM `k`).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Resident bytes: int8 codes plus the per-row f32 scales.
    pub fn bytes(&self) -> u64 {
        (std::mem::size_of_val(self.data.as_slice())
            + std::mem::size_of_val(self.scales.as_slice())) as u64
    }

    /// Dequantize row `r` into `dst` (the int8 embedding gather, tests and
    /// the naive reference; the GEMM path never materializes f32 weights).
    pub fn dequantize_row(&self, r: usize, dst: &mut [f32]) {
        let scale = self.scales[r];
        for (d, &q) in dst
            .iter_mut()
            .zip(&self.data[r * self.cols..(r + 1) * self.cols])
        {
            *d = q as f32 * scale;
        }
    }

    /// Int8 embedding gather: `dst` row `r` becomes row `ids[r]` dequantized
    /// element-wise (`code × row_scale`, no reduction), so the output is
    /// bit-identical at any `threads`. Work splits like
    /// [`crate::kernels::gather_rows`]; every id must already be validated
    /// against [`QuantizedMatrix::rows`].
    pub fn gather_rows_into(&self, ids: &[u32], dst: &mut [f32], threads: usize) {
        let cols = self.cols;
        assert_eq!(dst.len(), ids.len() * cols, "gather: destination mismatch");
        let min_rows = (8192 / cols.max(1)).max(1);
        let ptr = SendMutPtr(dst.as_mut_ptr());
        par::for_each_chunk(ids.len(), min_rows, threads, &|range: Range<usize>| {
            // SAFETY: `for_each_chunk` hands every call a disjoint range of
            // `0..ids.len()`, `dst` holds `ids.len() * cols` floats (asserted
            // above) and outlives the call, so the slices never overlap.
            let out = unsafe { ptr.slice_mut(range.start * cols..range.end * cols) };
            for (slot, &id) in out.chunks_exact_mut(cols).zip(&ids[range]) {
                self.dequantize_row(id as usize, slot);
            }
        });
    }

    /// Fused quantized layer: quantize each f32 activation row of
    /// `a` (`[m, cols]`), run the i8×i8→i32 `A·Bᵀ` GEMM with ascending-k
    /// accumulation, and dequantize straight into `out` (`[m, rows]`) with
    /// the bias added. Bit-identical at any `threads` because rows are
    /// independent and each row's arithmetic is a fixed integer sequence.
    pub fn matmul_into(&self, a: &[f32], m: usize, bias: &[f32], out: &mut [f32], threads: usize) {
        let (k, n) = (self.cols, self.rows);
        assert_eq!(a.len(), m * k, "activation size mismatch");
        assert_eq!(bias.len(), n, "bias size mismatch");
        assert_eq!(out.len(), m * n, "output size mismatch");
        let mut qa = vec![0i8; m * k];
        let mut a_scales = vec![0f32; m];
        for r in 0..m {
            a_scales[r] = quantize_row(&a[r * k..(r + 1) * k], &mut qa[r * k..(r + 1) * k]);
        }
        // Keep chunks worth at least ~8K multiply-adds so tiny batches do
        // not pay fan-out overhead; the cut points never affect the bits.
        let min_rows = (8192 / (n * k).max(1)).max(1);
        let dst = SendMutPtr(out.as_mut_ptr());
        let qa = &qa;
        let a_scales = &a_scales;
        par::for_each_chunk(m, min_rows, threads, &|range: Range<usize>| {
            let dst = unsafe { dst.slice_mut(range.start * n..range.end * n) };
            for (idx, i) in range.clone().enumerate() {
                let arow = &qa[i * k..(i + 1) * k];
                let a_scale = a_scales[i];
                let orow = &mut dst[idx * n..(idx + 1) * n];
                for (o, slot) in orow.iter_mut().enumerate() {
                    let wrow = &self.data[o * k..(o + 1) * k];
                    let mut acc = 0i32;
                    for c in 0..k {
                        acc += arow[c] as i32 * wrow[c] as i32;
                    }
                    *slot = acc as f32 * (a_scale * self.scales[o]) + bias[o];
                }
            }
        });
    }
}

/// The int8 side of a quantized model: one [`QuantizedMatrix`] per
/// quantized parameter (linear and conv weights, and the frozen embedding
/// table), indexed by [`ParamId`]. Shared (`Arc`) between an
/// `InferenceSession` and the graphs it builds; parameters without an entry
/// fall back to the f32 path.
#[derive(Debug, Default, Clone)]
pub struct QuantizedParams {
    matrices: Vec<Option<Arc<QuantizedMatrix>>>,
}

impl QuantizedParams {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register the quantized form of parameter `id`.
    pub fn insert(&mut self, id: ParamId, matrix: Arc<QuantizedMatrix>) {
        if self.matrices.len() <= id.index() {
            self.matrices.resize(id.index() + 1, None);
        }
        self.matrices[id.index()] = Some(matrix);
    }

    /// The quantized form of `id`, if it was registered.
    pub fn get(&self, id: ParamId) -> Option<&Arc<QuantizedMatrix>> {
        self.matrices.get(id.index()).and_then(|m| m.as_ref())
    }

    /// Number of quantized matrices.
    pub fn len(&self) -> usize {
        self.matrices.iter().filter(|m| m.is_some()).count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total resident bytes of every registered matrix.
    pub fn bytes(&self) -> u64 {
        self.matrices.iter().flatten().map(|m| m.bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Prng;

    fn random_matrix(rng: &mut Prng, rows: usize, cols: usize) -> Vec<f32> {
        (0..rows * cols)
            .map(|_| rng.next_f32() * 2.0 - 1.0)
            .collect()
    }

    /// Reference implementation: same quantization, naive f64-free loops,
    /// no parallelism. The kernel must match it bit-for-bit.
    fn reference_matmul(qm: &QuantizedMatrix, a: &[f32], m: usize, bias: &[f32]) -> Vec<f32> {
        let (k, n) = (qm.cols(), qm.rows());
        let mut out = vec![0f32; m * n];
        let mut qa = vec![0i8; k];
        for i in 0..m {
            let a_scale = quantize_row(&a[i * k..(i + 1) * k], &mut qa);
            for o in 0..n {
                let mut acc = 0i32;
                for (c, &qa_c) in qa.iter().enumerate() {
                    acc += qa_c as i32 * qm.data[o * k + c] as i32;
                }
                out[i * n + o] = acc as f32 * (a_scale * qm.scales[o]) + bias[o];
            }
        }
        out
    }

    #[test]
    fn round_trip_error_is_bounded_by_half_a_step() {
        let mut rng = Prng::new(11);
        let src = random_matrix(&mut rng, 7, 33);
        let qm = QuantizedMatrix::from_rows(7, 33, &src);
        let mut row = vec![0f32; 33];
        for r in 0..7 {
            qm.dequantize_row(r, &mut row);
            let scale = qm.scales[r];
            for (orig, deq) in src[r * 33..(r + 1) * 33].iter().zip(&row) {
                assert!(
                    (orig - deq).abs() <= scale * 0.5 + 1e-7,
                    "row {r}: {orig} vs {deq} (scale {scale})"
                );
            }
        }
    }

    #[test]
    fn zero_rows_quantize_to_zero_scale_and_zero_codes() {
        let src = vec![0f32; 12];
        let qm = QuantizedMatrix::from_rows(3, 4, &src);
        assert!(qm.scales.iter().all(|&s| s == 0.0));
        assert!(qm.data.iter().all(|&q| q == 0));
        let out = reference_matmul(&qm, &[1.0, 2.0, 3.0, 4.0], 1, &[0.5, 0.5, 0.5]);
        assert_eq!(out, vec![0.5, 0.5, 0.5]);
    }

    #[test]
    fn kernel_is_bit_identical_across_thread_counts_and_matches_reference() {
        let mut rng = Prng::new(29);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (5, 9, 17),
            (64, 96, 32),
            (31, 160, 7),
        ] {
            let weight = random_matrix(&mut rng, n, k);
            let a = random_matrix(&mut rng, m, k);
            let bias = random_matrix(&mut rng, 1, n);
            let qm = QuantizedMatrix::from_rows(n, k, &weight);
            let want = reference_matmul(&qm, &a, m, &bias);
            for threads in [1usize, 2, 4] {
                let mut got = vec![0f32; m * n];
                qm.matmul_into(&a, m, &bias, &mut got, threads);
                let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                let got_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                assert_eq!(want_bits, got_bits, "m={m} k={k} n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn linear_constructor_transposes_to_output_major_rows() {
        // weight [in=2, out=3]: column o of the f32 layout becomes row o.
        let weight = Tensor::new(vec![2, 3], vec![1.0, 2.0, 3.0, 10.0, 20.0, 30.0]);
        let qm = QuantizedMatrix::from_linear(&weight);
        assert_eq!(qm.rows(), 3);
        assert_eq!(qm.cols(), 2);
        let mut row = vec![0f32; 2];
        qm.dequantize_row(0, &mut row);
        // Row 0 is [w[0][0], w[1][0]] = [1, 10]; maxabs 10 → step 10/127.
        assert!((row[0] - 1.0).abs() < 10.0 / 127.0 * 0.51, "{row:?}");
        assert!((row[1] - 10.0).abs() < 1e-6, "{row:?}");
    }

    #[test]
    fn registry_indexes_by_param_id_and_counts_bytes() {
        use crate::params::ParamStore;
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::new(vec![2, 2], vec![1.0; 4]));
        let b = store.add("b", Tensor::new(vec![2, 2], vec![2.0; 4]));
        let mut reg = QuantizedParams::new();
        let qm = Arc::new(QuantizedMatrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]));
        reg.insert(b, Arc::clone(&qm));
        assert!(reg.get(a).is_none());
        assert!(reg.get(b).is_some());
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.bytes(), qm.bytes());
        assert_eq!(qm.bytes(), 4 + 2 * 4); // 4 codes + 2 row scales
    }
}
