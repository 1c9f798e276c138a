//! Per-row symmetric int8 quantization and a fused quantize → i32 GEMM →
//! dequantize kernel. No model or server runs it: it is kept only because
//! perfbench's per-layer metric `tensor.quant.gemm_gflops.serving_mix`
//! times [`QuantizedMatrix::matmul_into`], and it goes when that metric
//! does.
//!
//! * **Per-row scales.** Every row gets `scale = maxabs / 127`, and values
//!   are stored as `round(v / scale)` clamped to `[-127, 127]`. An all-zero
//!   row stores scale `0` and all-zero codes. `-128` is never produced, so
//!   negation can never overflow.
//! * **i32 accumulation.** The GEMM accumulates `i8 × i8` products in
//!   `i32` over ascending `k`. Overflow is impossible while `127 · 127 · k` stays below `2^31`, i.e.
//!   for any `k < 133 000`.
//! * **Dequantize at the boundary.** The f32 output is
//!   `acc as f32 * (a_scale[row] * w_scale[col]) + bias[col]` — one fused
//!   multiply order, fixed in source, identical everywhere.
//!
//! Activations are quantized per input row at run time with the same
//! maxabs scan (a deterministic sequential reduction per row).

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

/// A weight matrix quantized to int8, stored row-major as `[rows, cols]`
/// with one f32 scale per row. Each row is one output feature, so the GEMM
/// runs in `A·Bᵀ` form over contiguous rows of both operands.
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

    /// Output features (GEMM `n`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Reduction width (GEMM `k`).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Fused quantized layer: quantize each f32 activation row of
    /// `a` (`[m, cols]`), run the i8×i8→i32 `A·Bᵀ` GEMM with ascending-k
    /// accumulation, and dequantize straight into `out` (`[m, rows]`) with
    /// the bias added.
    ///
    /// `_threads` is unused: kernels run on the calling thread; removed by
    /// the next `[benchmark]` PR, which owns these call sites.
    pub fn matmul_into(&self, a: &[f32], m: usize, bias: &[f32], out: &mut [f32], _threads: usize) {
        let (k, n) = (self.cols, self.rows);
        assert_eq!(a.len(), m * k, "activation size mismatch");
        assert_eq!(bias.len(), n, "bias size mismatch");
        assert_eq!(out.len(), m * n, "output size mismatch");
        let mut qa = vec![0i8; m * k];
        let mut a_scales = vec![0f32; m];
        for r in 0..m {
            a_scales[r] = quantize_row(&a[r * k..(r + 1) * k], &mut qa[r * k..(r + 1) * k]);
        }
        for i in 0..m {
            let arow = &qa[i * k..(i + 1) * k];
            let a_scale = a_scales[i];
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, slot) in orow.iter_mut().enumerate() {
                let wrow = &self.data[o * k..(o + 1) * k];
                let mut acc = 0i32;
                for c in 0..k {
                    acc += arow[c] as i32 * wrow[c] as i32;
                }
                *slot = acc as f32 * (a_scale * self.scales[o]) + bias[o];
            }
        }
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

    /// Reference implementation: same quantization, naive f64-free loops.
    /// The kernel must match it bit-for-bit.
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
        for r in 0..7 {
            let scale = qm.scales[r];
            let codes = &qm.data[r * 33..(r + 1) * 33];
            for (orig, &q) in src[r * 33..(r + 1) * 33].iter().zip(codes) {
                let deq = q as f32 * scale;
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
    fn kernel_matches_reference_bit_for_bit() {
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
            let mut got = vec![0f32; m * n];
            qm.matmul_into(&a, m, &bias, &mut got, 1);
            let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            let got_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            assert_eq!(want_bits, got_bits, "m={m} k={k} n={n}");
        }
    }
}
