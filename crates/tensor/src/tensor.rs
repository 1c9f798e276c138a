//! Dense row-major tensors of `f32`.

use crate::kernels;
use crate::rng::Prng;
use crate::shape;

/// A dense, row-major, contiguous tensor of `f32`.
///
/// `Tensor` is the only runtime value type in the engine: parameter values,
/// activations, gradients, metric inputs and t-SNE embeddings are all
/// `Tensor`s. It intentionally has *no* view/stride machinery — every
/// operation produces a new contiguous buffer, which keeps the autograd
/// implementation straightforward and is plenty fast at the model sizes used
/// in this reproduction.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Create a tensor from a shape and the matching number of elements.
    ///
    /// # Panics
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn new(shape: Vec<usize>, data: Vec<f32>) -> Self {
        assert_eq!(
            shape::numel(&shape),
            data.len(),
            "shape {} incompatible with {} elements",
            shape::fmt_shape(&shape),
            data.len()
        );
        Self { shape, data }
    }

    /// All-zeros tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; shape::numel(shape)],
        }
    }

    /// All-ones tensor.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Tensor filled with a constant.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Self {
            shape: shape.to_vec(),
            data: vec![value; shape::numel(shape)],
        }
    }

    /// A scalar (shape `[1]`) tensor.
    pub fn scalar(value: f32) -> Self {
        Self::new(vec![1], vec![value])
    }

    /// 1-D tensor from a vector.
    pub fn from_vec(data: Vec<f32>) -> Self {
        let n = data.len();
        Self::new(vec![n], data)
    }

    /// 2-D tensor from nested slices (rows of equal length).
    ///
    /// # Panics
    /// Panics on ragged input.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self::new(vec![r, c], data)
    }

    /// Tensor with i.i.d. normal entries `N(0, std^2)`.
    pub fn randn(shape: &[usize], std: f32, rng: &mut Prng) -> Self {
        let data = (0..shape::numel(shape))
            .map(|_| rng.normal_with(0.0, std))
            .collect();
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Tensor with i.i.d. uniform entries in `[lo, hi)`.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut Prng) -> Self {
        let data = (0..shape::numel(shape))
            .map(|_| rng.uniform(lo, hi))
            .collect();
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Immutable view of the underlying buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor, returning its buffer.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Value of a scalar / single-element tensor.
    ///
    /// # Panics
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.numel(),
            1,
            "item() on tensor with {} elements",
            self.numel()
        );
        self.data[0]
    }

    /// Element at a 2-D index.
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        debug_assert_eq!(self.ndim(), 2);
        self.data[i * self.shape[1] + j]
    }

    /// Set element at a 2-D index.
    pub fn set2(&mut self, i: usize, j: usize, v: f32) {
        debug_assert_eq!(self.ndim(), 2);
        self.data[i * self.shape[1] + j] = v;
    }

    /// Element at an arbitrary index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[shape::offset(&self.shape, index)]
    }

    /// Return a copy reshaped to `new_shape` (same number of elements).
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape(&self, new_shape: &[usize]) -> Tensor {
        assert_eq!(
            shape::numel(new_shape),
            self.numel(),
            "reshape {} -> {}",
            shape::fmt_shape(&self.shape),
            shape::fmt_shape(new_shape)
        );
        Tensor::new(new_shape.to_vec(), self.data.clone())
    }

    /// Row `i` of a 2-D tensor as a slice.
    pub fn row(&self, i: usize) -> &[f32] {
        debug_assert_eq!(self.ndim(), 2);
        let c = self.shape[1];
        &self.data[i * c..(i + 1) * c]
    }

    /// Apply a function elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise addition.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// Multiply by a scalar.
    pub fn scale(&self, c: f32) -> Tensor {
        self.map(|x| x * c)
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Fill with zeros in place (used to reset gradients without reallocating).
    pub fn fill_zero(&mut self) {
        for v in &mut self.data {
            *v = 0.0;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Euclidean norm of the flattened tensor. Accumulated in eight lanes
    /// (see [`kernels::sum_squares_chunked`]) for speed and lower float
    /// error than a single serial chain.
    pub fn norm(&self) -> f32 {
        kernels::sum_squares_chunked(&self.data).sqrt()
    }

    /// Dot product of two tensors viewed as flat vectors, accumulated in
    /// eight lanes (see [`kernels::dot_chunked`]).
    ///
    /// # Panics
    /// Panics if element counts differ.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.numel(), other.numel(), "dot length mismatch");
        kernels::dot_chunked(&self.data, &other.data)
    }

    /// Matrix product of two 2-D tensors: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// # Panics
    /// Panics if either operand is not 2-D or the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (m, n) = (self.shape[0], other.shape[1]);
        let mut out = vec![0.0f32; m * n];
        self.matmul_into(other, &mut out);
        Tensor::new(vec![m, n], out)
    }

    /// Matrix product accumulated into a caller-provided (zeroed) buffer of
    /// length `m * n`. This is the buffer-reuse entry point behind tape-free
    /// inference: the serving hot path hands in recycled scratch buffers
    /// instead of allocating a fresh output per call. Runs the cache-blocked
    /// kernel; [`crate::Graph::matmul`] reaches the same kernel with pooled
    /// pack scratch.
    ///
    /// # Panics
    /// Panics if either operand is not 2-D, the inner dimensions disagree,
    /// or `out` has the wrong length.
    pub fn matmul_into(&self, other: &Tensor, out: &mut [f32]) {
        assert_eq!(self.ndim(), 2, "matmul lhs must be 2-D");
        assert_eq!(other.ndim(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
        assert_eq!(out.len(), m * n, "matmul output buffer length mismatch");
        kernels::gemm_into(m, k, n, &self.data, &other.data, out, 1, &mut Vec::new());
    }

    /// Fused `selfᵀ · other` for a `[r, m]` lhs and `[r, n]` rhs.
    /// Bit-identical to `self.transpose2().matmul(other)`.
    ///
    /// # Panics
    /// Panics if either operand is not 2-D or the leading dims disagree.
    pub fn matmul_transa(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul_transa lhs must be 2-D");
        assert_eq!(other.ndim(), 2, "matmul_transa rhs must be 2-D");
        let (r, m) = (self.shape[0], self.shape[1]);
        let (r2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(r, r2, "matmul_transa contraction mismatch: {r} vs {r2}");
        let mut out = vec![0.0f32; m * n];
        kernels::gemm_atb_into(r, m, n, &self.data, &other.data, &mut out);
        Tensor::new(vec![m, n], out)
    }

    /// Transpose of a 2-D tensor (cache-blocked 32×32 tiles instead of
    /// strided single-element writes).
    ///
    /// # Panics
    /// Panics if the tensor is not 2-D.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "transpose2 expects a 2-D tensor");
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; r * c];
        kernels::transpose_into(r, c, &self.data, &mut out);
        Tensor::new(vec![c, r], out)
    }

    /// Index of the maximum entry in each row of a 2-D tensor.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.ndim(), 2, "argmax_rows expects a 2-D tensor");
        let c = self.shape[1];
        (0..self.shape[0])
            .map(|i| {
                let row = self.row(i);
                let mut best = 0;
                for j in 1..c {
                    if row[j] > row[best] {
                        best = j;
                    }
                }
                best
            })
            .collect()
    }

    /// Row-wise softmax of a 2-D tensor (numerically stabilised).
    pub fn softmax_rows(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "softmax_rows expects a 2-D tensor");
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; r * c];
        for i in 0..r {
            let row = self.row(i);
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut z = 0.0f32;
            for j in 0..c {
                let e = (row[j] - m).exp();
                out[i * c + j] = e;
                z += e;
            }
            for j in 0..c {
                out[i * c + j] /= z;
            }
        }
        Tensor::new(vec![r, c], out)
    }

    /// Stack 1-D tensors of equal length into a 2-D tensor (one per row).
    ///
    /// # Panics
    /// Panics on empty input or ragged lengths.
    pub fn stack_rows(rows: &[Tensor]) -> Tensor {
        assert!(!rows.is_empty(), "stack_rows on empty slice");
        let c = rows[0].numel();
        let mut data = Vec::with_capacity(rows.len() * c);
        for row in rows {
            assert_eq!(row.numel(), c, "stack_rows ragged input");
            data.extend_from_slice(row.data());
        }
        Tensor::new(vec![rows.len(), c], data)
    }

    /// `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape,
            other.shape,
            "elementwise op shape mismatch: {} vs {}",
            shape::fmt_shape(&self.shape),
            shape::fmt_shape(&other.shape)
        );
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::new(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.at2(1, 2), 6.0);
        assert_eq!(t.at(&[0, 1]), 2.0);
        assert_eq!(t.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn mismatched_shape_panics() {
        let _ = Tensor::new(vec![2, 2], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn zeros_ones_full_scalar() {
        assert_eq!(Tensor::zeros(&[2, 2]).sum(), 0.0);
        assert_eq!(Tensor::ones(&[3]).sum(), 3.0);
        assert_eq!(Tensor::full(&[2], 2.5).sum(), 5.0);
        assert_eq!(Tensor::scalar(7.0).item(), 7.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
        assert!(approx(a.dot(&b), 32.0));
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_vec(vec![1.0, 1.0]);
        let b = Tensor::from_vec(vec![2.0, 3.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[2.0, 2.5]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Tensor::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let id = Tensor::from_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ]);
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let t = a.transpose2();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.transpose2(), a);
    }

    #[test]
    fn fused_transpose_matmuls_match_explicit_transposes_bitwise() {
        let mut rng = Prng::new(9);
        let c = Tensor::randn(&[7, 4], 1.0, &mut rng);
        let d = Tensor::randn(&[7, 3], 1.0, &mut rng);
        let fused = c.matmul_transa(&d);
        let explicit = c.transpose2().matmul(&d);
        assert_eq!(fused.shape(), &[4, 3]);
        assert_eq!(fused.data(), explicit.data());
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![-1.0, 0.0, 100.0]]);
        let s = a.softmax_rows();
        for i in 0..2 {
            let row_sum: f32 = s.row(i).iter().sum();
            assert!(approx(row_sum, 1.0));
        }
        assert!(s.at2(0, 2) > s.at2(0, 1));
        assert!(s.at2(1, 2) > 0.99);
    }

    #[test]
    fn argmax_rows_picks_largest() {
        let a = Tensor::from_rows(&[vec![0.1, 0.9], vec![0.7, 0.3], vec![0.5, 0.5]]);
        assert_eq!(a.argmax_rows(), vec![1, 0, 0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = a.reshape(&[2, 3]);
        assert_eq!(b.at2(1, 0), 4.0);
    }

    #[test]
    fn stack_rows_builds_matrix() {
        let rows = vec![
            Tensor::from_vec(vec![1.0, 2.0]),
            Tensor::from_vec(vec![3.0, 4.0]),
        ];
        let m = Tensor::stack_rows(&rows);
        assert_eq!(m.shape(), &[2, 2]);
        assert_eq!(m.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn randn_moments() {
        let mut rng = Prng::new(1);
        let t = Tensor::randn(&[100, 100], 2.0, &mut rng);
        assert!(t.mean().abs() < 0.1);
        let var = t.data().iter().map(|x| x * x).sum::<f32>() / t.numel() as f32;
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn norm_and_non_finite_detection() {
        let t = Tensor::from_vec(vec![3.0, 4.0]);
        assert!(approx(t.norm(), 5.0));
        assert!(!t.has_non_finite());
        let bad = Tensor::from_vec(vec![1.0, f32::NAN]);
        assert!(bad.has_non_finite());
    }
}
