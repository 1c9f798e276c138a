//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] is created per forward pass over a mutable [`ParamStore`].
//! Calling an op method evaluates it eagerly, records a node on the tape and
//! returns a [`Var`] handle. [`Graph::backward`] seeds the gradient of a
//! scalar loss node and walks the tape in reverse, accumulating parameter
//! gradients into the store.
//!
//! The op set is a closed enum covering exactly what the DTDBD models need:
//! dense algebra, activations, softmax/log-softmax, sequence ops (embedding
//! lookup, the fused TextCNN branch conv → ReLU → max-over-time,
//! mean-over-time, time-step selection), the
//! gradient-reversal pseudo-op for domain-adversarial training, a pairwise
//! squared-Euclidean-distance op for the unbiased-distribution knowledge of
//! adversarial de-biasing distillation, and a fused softmax cross-entropy.
//!
//! # Tape-free inference
//!
//! A graph created with [`Graph::inference`] evaluates the same ops with the
//! same arithmetic but records *no tape*: no op metadata, no input edges, no
//! `requires_grad` propagation, and [`Graph::backward`] is rejected. Every
//! activation buffer is drawn from a caller-owned [`BufferPool`] and handed
//! back by an explicit [`Graph::finish`] call, so a long-lived serving
//! process reuses the same scratch memory across requests instead of
//! allocating per call. (Letting an inference graph fall out of scope
//! without `finish` is safe but skips the recycling.)

use crate::kernels;
use crate::params::{ParamId, ParamStore};
use crate::pool::BufferPool;
use crate::rng::Prng;
use crate::shape::{as_rows_cols, fmt_shape, numel};
use crate::tensor::Tensor;
use crate::timers::{KernelSpan, KernelTimers};
use std::sync::Arc;

/// Handle to a node on the tape. Cheap to copy; only valid for the graph
/// that produced it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

impl Var {
    /// Raw node index (mainly useful for debugging).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// The closed set of differentiable operations.
#[derive(Debug)]
enum Op {
    /// Constant or parameter leaf.
    Leaf,
    /// Elementwise sum of two same-shape tensors.
    Add,
    /// Elementwise difference of two same-shape tensors.
    Sub,
    /// Elementwise (Hadamard) product of two same-shape tensors.
    Mul,
    /// `x + b` where `b` broadcasts over the last dimension.
    AddBias,
    /// `a * x + b` with scalar `a`, `b`.
    Affine { a: f32 },
    /// 2-D matrix product.
    Matmul,
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Row-wise softmax over the last dimension.
    Softmax,
    /// Row-wise log-softmax over the last dimension.
    LogSoftmax,
    /// Mean of all elements (scalar output).
    MeanAll,
    /// Sum of all elements (scalar output).
    SumAll,
    /// Shape change preserving element order.
    Reshape,
    /// Concatenation along the last dimension.
    ConcatLast { widths: Vec<usize> },
    /// Inverted dropout; the mask already includes the `1/(1-p)` scaling.
    Dropout { mask: Vec<f32> },
    /// Identity forward, `-lambda * grad` backward (Ganin & Lempitsky).
    GradReverse { lambda: f32 },
    /// Row lookup into an embedding table parameter.
    Embedding { table: ParamId, ids: Vec<u32> },
    /// Select one time step: `[b, s, d] -> [b, d]`.
    SelectTime { t: usize },
    /// Mean over the time dimension: `[b, s, d] -> [b, d]`.
    MeanOverTime,
    /// One TextCNN branch, `max_t relu(conv1d(x, weight, bias))`, with the
    /// weight and bias read from the store (input: x). `argmax[i * oc + o]`
    /// is the first time step holding sample `i`'s maximum in channel `o`.
    /// Backward visits only those steps, and only where the pooled value
    /// is positive and its gradient nonzero: it builds `dx` when the input
    /// needs a gradient and flushes `dw`/`db` into the store for trainable
    /// parameters, so a conv over a frozen embedding gets no `dx` at all.
    ConvReluMax {
        weight: ParamId,
        bias: ParamId,
        argmax: Vec<u32>,
    },
    /// Pairwise squared Euclidean distances between rows: `[b, d] -> [b, b]`.
    PairwiseSqDist,
    /// Column selection: `[r, c] -> [r, 1]`.
    SelectCol { col: usize },
    /// Scale each row of `x` by the matching entry of a `[r, 1]` column.
    RowScale,
    /// Fused softmax + negative log-likelihood with hard labels.
    CrossEntropyLogits { labels: Vec<usize>, probs: Tensor },
}

struct Node {
    value: Tensor,
    op: Op,
    inputs: Vec<usize>,
    param: Option<ParamId>,
    requires_grad: bool,
    /// Whether `value`'s buffer was drawn from the scratch pool. Buffers
    /// that arrived from outside (constants handed in by the caller) are
    /// not recycled, so the pool's size stays bounded by the number of
    /// pool-allocated buffers of one forward pass.
    pooled: bool,
}

/// A per-forward-pass autodiff tape over a [`ParamStore`].
pub struct Graph<'s> {
    store: &'s mut ParamStore,
    nodes: Vec<Node>,
    training: bool,
    /// `true` when the graph records a differentiable tape; `false` for
    /// tape-free inference graphs.
    tape: bool,
    pool: Option<&'s mut BufferPool>,
    rng: Prng,
    /// Optional wall-clock sink for the heavy kernels (GEMM, conv1d,
    /// embedding gather). `None` — the default — skips every clock read;
    /// timing is observation only and never changes computed values.
    kernel_timers: Option<Arc<dyn KernelTimers>>,
}

impl<'s> Graph<'s> {
    /// Create a tape. `training` controls dropout; `seed` makes dropout masks
    /// reproducible.
    pub fn new(store: &'s mut ParamStore, training: bool, seed: u64) -> Self {
        Self {
            store,
            nodes: Vec::with_capacity(256),
            training,
            tape: true,
            pool: None,
            rng: Prng::new(seed),
            kernel_timers: None,
        }
    }

    /// Create a tape-free inference graph: evaluation mode (dropout is the
    /// identity), no gradient bookkeeping, and every activation buffer drawn
    /// from `pool` — call [`Graph::finish`] when done to hand them back.
    pub fn inference(store: &'s mut ParamStore, pool: &'s mut BufferPool) -> Self {
        Self {
            store,
            nodes: Vec::with_capacity(256),
            training: false,
            tape: false,
            pool: Some(pool),
            rng: Prng::new(0),
            kernel_timers: None,
        }
    }

    /// Report the wall-clock duration of each heavy kernel execution (GEMM,
    /// 1-D convolution, embedding gather) to `sink`. `None` detaches the
    /// sink; a sinkless graph reads no clock at all.
    pub fn set_kernel_timers(&mut self, sink: Option<Arc<dyn KernelTimers>>) {
        self.kernel_timers = sink;
    }

    /// Whether the graph was created in training mode.
    pub fn is_training(&self) -> bool {
        self.training
    }

    /// `true` for tape-free inference graphs (no backward pass available).
    pub fn is_inference(&self) -> bool {
        !self.tape
    }

    /// Consume the graph, handing every activation buffer back to the pool
    /// (inference graphs; a no-op for tape graphs). The serving hot path
    /// calls this after copying out its results so the next request reuses
    /// the same scratch memory. A graph is deliberately *not* recycled on
    /// implicit drop: an explicit hand-back keeps borrow regions short for
    /// the many call sites that read the store right after the forward pass.
    pub fn finish(mut self) {
        if let Some(pool) = self.pool.as_mut() {
            for node in self.nodes.drain(..) {
                if node.pooled {
                    pool.give(node.value.into_data());
                }
            }
        }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow the value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Borrow the underlying parameter store.
    pub fn store(&self) -> &ParamStore {
        self.store
    }

    fn push(
        &mut self,
        value: Tensor,
        op: Op,
        inputs: &[usize],
        param: Option<ParamId>,
        requires_grad: bool,
    ) -> Var {
        debug_assert!(
            !value.has_non_finite(),
            "non-finite value produced by {op:?}"
        );
        let node = if self.tape {
            Node {
                value,
                op,
                inputs: inputs.to_vec(),
                param,
                requires_grad,
                pooled: true,
            }
        } else {
            // Tape-free: keep only the value; edges and op metadata would
            // never be read (and are never allocated).
            Node {
                value,
                op: Op::Leaf,
                inputs: Vec::new(),
                param: None,
                requires_grad: false,
                pooled: true,
            }
        };
        self.nodes.push(node);
        Var(self.nodes.len() - 1)
    }

    fn any_requires_grad(&self, inputs: &[usize]) -> bool {
        self.tape && inputs.iter().any(|&i| self.nodes[i].requires_grad)
    }

    /// A zero-filled scratch buffer of length `n`, recycled through the
    /// buffer pool when the graph runs in inference mode.
    fn alloc_zeroed(&mut self, n: usize) -> Vec<f32> {
        match self.pool.as_mut() {
            Some(pool) => pool.take_zeroed(n),
            None => vec![0.0; n],
        }
    }

    /// An empty scratch buffer with capacity for `n` values (no zero-fill;
    /// for destinations that are fully written with `extend_from_slice`).
    fn alloc_empty(&mut self, n: usize) -> Vec<f32> {
        match self.pool.as_mut() {
            Some(pool) => pool.take_empty(n),
            None => Vec::with_capacity(n),
        }
    }

    /// A length-`n` scratch buffer with arbitrary contents, for destinations
    /// every element of which is overwritten (skips `alloc_zeroed`'s memset
    /// on the pooled steady state).
    fn alloc_for_overwrite(&mut self, n: usize) -> Vec<f32> {
        match self.pool.as_mut() {
            Some(pool) => pool.take_for_overwrite(n),
            None => vec![0.0; n],
        }
    }

    /// Scratch buffer initialised as a copy of node `x`'s value.
    fn alloc_copy_of(&mut self, x: Var) -> Vec<f32> {
        let n = self.nodes[x.0].value.numel();
        let mut buf = self.alloc_empty(n);
        buf.extend_from_slice(self.nodes[x.0].value.data());
        buf
    }

    /// Unary elementwise op through the scratch allocator.
    fn unary_map(&mut self, x: Var, op: Op, f: impl Fn(f32) -> f32) -> Var {
        let n = self.nodes[x.0].value.numel();
        let shape = self.nodes[x.0].value.shape().to_vec();
        let mut out = self.alloc_for_overwrite(n);
        kernels::map_into(&mut out, self.nodes[x.0].value.data(), f);
        let rg = self.tape && self.nodes[x.0].requires_grad;
        self.push(Tensor::new(shape, out), op, &[x.0], None, rg)
    }

    /// Binary elementwise op (same shapes) through the scratch allocator.
    fn binary_zip(&mut self, a: Var, b: Var, op: Op, f: impl Fn(f32, f32) -> f32) -> Var {
        assert_eq!(
            self.nodes[a.0].value.shape(),
            self.nodes[b.0].value.shape(),
            "elementwise op shape mismatch: {} vs {}",
            fmt_shape(self.nodes[a.0].value.shape()),
            fmt_shape(self.nodes[b.0].value.shape())
        );
        let n = self.nodes[a.0].value.numel();
        let shape = self.nodes[a.0].value.shape().to_vec();
        let mut out = self.alloc_for_overwrite(n);
        kernels::zip_into(
            &mut out,
            self.nodes[a.0].value.data(),
            self.nodes[b.0].value.data(),
            f,
        );
        let rg = self.any_requires_grad(&[a.0, b.0]);
        self.push(Tensor::new(shape, out), op, &[a.0, b.0], None, rg)
    }

    /// Hand a finished scratch buffer (e.g. a GEMM pack panel or an im2row
    /// expansion) back to the pool so the next op reuses it.
    fn release_scratch(&mut self, scratch: Vec<f32>) {
        if let Some(pool) = self.pool.as_mut() {
            pool.give(scratch);
        }
    }

    // ------------------------------------------------------------------
    // Leaves
    // ------------------------------------------------------------------

    /// Record a constant (no gradient flows into it). The buffer arrives
    /// from the caller, so it is not recycled into the scratch pool.
    pub fn constant(&mut self, value: Tensor) -> Var {
        let v = self.push(value, Op::Leaf, &[], None, false);
        self.nodes[v.0].pooled = false;
        v
    }

    /// Record a scalar constant.
    pub fn constant_scalar(&mut self, value: f32) -> Var {
        self.constant(Tensor::scalar(value))
    }

    /// Record a parameter leaf. Gradient flows into the store unless the
    /// parameter is frozen.
    pub fn param(&mut self, id: ParamId) -> Var {
        let shape = self.store.value(id).shape().to_vec();
        let n = self.store.value(id).numel();
        let mut buf = self.alloc_empty(n);
        buf.extend_from_slice(self.store.value(id).data());
        let requires = self.tape && self.store.get(id).trainable;
        self.push(Tensor::new(shape, buf), Op::Leaf, &[], Some(id), requires)
    }

    // ------------------------------------------------------------------
    // Elementwise and dense algebra
    // ------------------------------------------------------------------

    /// Elementwise addition of same-shape tensors.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.binary_zip(a, b, Op::Add, |x, y| x + y)
    }

    /// Elementwise subtraction of same-shape tensors.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.binary_zip(a, b, Op::Sub, |x, y| x - y)
    }

    /// Elementwise product of same-shape tensors.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.binary_zip(a, b, Op::Mul, |x, y| x * y)
    }

    /// `x + bias` where `bias` has the length of `x`'s last dimension.
    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        let (rows, cols) = as_rows_cols(self.nodes[x.0].value.shape());
        assert_eq!(
            self.nodes[bias.0].value.numel(),
            cols,
            "add_bias: bias {} does not match last dim of {}",
            fmt_shape(self.nodes[bias.0].value.shape()),
            fmt_shape(self.nodes[x.0].value.shape())
        );
        let shape = self.nodes[x.0].value.shape().to_vec();
        let mut data = self.alloc_copy_of(x);
        let bv = self.nodes[bias.0].value.data();
        for r in 0..rows {
            for c in 0..cols {
                data[r * cols + c] += bv[c];
            }
        }
        let value = Tensor::new(shape, data);
        let rg = self.any_requires_grad(&[x.0, bias.0]);
        self.push(value, Op::AddBias, &[x.0, bias.0], None, rg)
    }

    /// Scalar affine map `a * x + b`.
    pub fn affine(&mut self, x: Var, a: f32, b: f32) -> Var {
        self.unary_map(x, Op::Affine { a }, |v| a * v + b)
    }

    /// Multiply by a scalar.
    pub fn scale(&mut self, x: Var, c: f32) -> Var {
        self.affine(x, c, 0.0)
    }

    /// Elementwise `1 - x`.
    pub fn one_minus(&mut self, x: Var) -> Var {
        self.affine(x, -1.0, 1.0)
    }

    /// Matrix product of 2-D tensors, through the cache-blocked parallel
    /// GEMM; the pack scratch is recycled through the buffer pool on
    /// inference graphs so the serving hot path stays allocation-free.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let timers = self.kernel_timers.clone();
        let _timer = KernelSpan::start(timers.as_ref(), "matmul");
        assert_eq!(self.nodes[a.0].value.ndim(), 2, "matmul lhs must be 2-D");
        assert_eq!(self.nodes[b.0].value.ndim(), 2, "matmul rhs must be 2-D");
        let (m, k) = {
            let s = self.nodes[a.0].value.shape();
            (s[0], s[1])
        };
        let n = self.nodes[b.0].value.shape()[1];
        let mut out = self.alloc_zeroed(m * n);
        // The kernel only packs (and touches scratch) for tall products;
        // skip the buffer request otherwise so small serving matmuls don't
        // churn the pool.
        let mut scratch = if kernels::gemm_packs(m) {
            self.alloc_for_overwrite(kernels::packed_len(k, n))
        } else {
            Vec::new()
        };
        assert_eq!(
            self.nodes[b.0].value.shape()[0],
            k,
            "matmul inner dimension mismatch"
        );
        kernels::gemm_into(
            m,
            k,
            n,
            self.nodes[a.0].value.data(),
            self.nodes[b.0].value.data(),
            &mut out,
            1,
            &mut scratch,
        );
        self.release_scratch(scratch);
        let value = Tensor::new(vec![m, n], out);
        let rg = self.any_requires_grad(&[a.0, b.0]);
        self.push(value, Op::Matmul, &[a.0, b.0], None, rg)
    }

    // ------------------------------------------------------------------
    // Activations and normalisations
    // ------------------------------------------------------------------

    /// Rectified linear unit.
    pub fn relu(&mut self, x: Var) -> Var {
        self.unary_map(x, Op::Relu, |v| v.max(0.0))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        self.unary_map(x, Op::Sigmoid, |v| 1.0 / (1.0 + (-v).exp()))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, x: Var) -> Var {
        self.unary_map(x, Op::Tanh, f32::tanh)
    }

    /// Softmax over the last dimension.
    pub fn softmax(&mut self, x: Var) -> Var {
        let n = self.nodes[x.0].value.numel();
        let shape = self.nodes[x.0].value.shape().to_vec();
        let (rows, cols) = as_rows_cols(&shape);
        let mut out = self.alloc_for_overwrite(n);
        kernels::softmax_rows_into(rows, cols, self.nodes[x.0].value.data(), &mut out);
        let rg = self.tape && self.nodes[x.0].requires_grad;
        self.push(Tensor::new(shape, out), Op::Softmax, &[x.0], None, rg)
    }

    /// Log-softmax over the last dimension.
    pub fn log_softmax(&mut self, x: Var) -> Var {
        let n = self.nodes[x.0].value.numel();
        let shape = self.nodes[x.0].value.shape().to_vec();
        let (rows, cols) = as_rows_cols(&shape);
        let mut out = self.alloc_for_overwrite(n);
        kernels::log_softmax_rows_into(rows, cols, self.nodes[x.0].value.data(), &mut out);
        let rg = self.tape && self.nodes[x.0].requires_grad;
        self.push(Tensor::new(shape, out), Op::LogSoftmax, &[x.0], None, rg)
    }

    // ------------------------------------------------------------------
    // Reductions and reshaping
    // ------------------------------------------------------------------

    /// Mean of all elements (scalar output).
    pub fn mean_all(&mut self, x: Var) -> Var {
        let v = self.nodes[x.0].value.mean();
        let mut out = self.alloc_zeroed(1);
        out[0] = v;
        let rg = self.tape && self.nodes[x.0].requires_grad;
        self.push(Tensor::new(vec![1], out), Op::MeanAll, &[x.0], None, rg)
    }

    /// Sum of all elements (scalar output).
    pub fn sum_all(&mut self, x: Var) -> Var {
        let v = self.nodes[x.0].value.sum();
        let mut out = self.alloc_zeroed(1);
        out[0] = v;
        let rg = self.tape && self.nodes[x.0].requires_grad;
        self.push(Tensor::new(vec![1], out), Op::SumAll, &[x.0], None, rg)
    }

    /// Reshape preserving element order.
    pub fn reshape(&mut self, x: Var, new_shape: &[usize]) -> Var {
        assert_eq!(
            numel(new_shape),
            self.nodes[x.0].value.numel(),
            "reshape {} -> {}",
            fmt_shape(self.nodes[x.0].value.shape()),
            fmt_shape(new_shape)
        );
        let data = self.alloc_copy_of(x);
        let value = Tensor::new(new_shape.to_vec(), data);
        let rg = self.tape && self.nodes[x.0].requires_grad;
        self.push(value, Op::Reshape, &[x.0], None, rg)
    }

    /// Concatenate along the last dimension. All inputs must agree on their
    /// leading dimensions.
    pub fn concat_last(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_last on empty list");
        let first_shape = self.nodes[parts[0].0].value.shape().to_vec();
        let (rows, _) = as_rows_cols(&first_shape);
        let mut widths = Vec::with_capacity(parts.len());
        for p in parts {
            let s = self.nodes[p.0].value.shape();
            let (r, c) = as_rows_cols(s);
            assert_eq!(r, rows, "concat_last: leading dims mismatch");
            widths.push(c);
        }
        let total: usize = widths.iter().sum();
        let mut data = self.alloc_zeroed(rows * total);
        let mut col_off = 0usize;
        for (p, &w) in parts.iter().zip(widths.iter()) {
            let src = self.nodes[p.0].value.data();
            for r in 0..rows {
                data[r * total + col_off..r * total + col_off + w]
                    .copy_from_slice(&src[r * w..(r + 1) * w]);
            }
            col_off += w;
        }
        let mut out_shape = first_shape;
        *out_shape.last_mut().expect("non-scalar concat input") = total;
        let value = Tensor::new(out_shape, data);
        let idxs: Vec<usize> = parts.iter().map(|p| p.0).collect();
        let rg = self.any_requires_grad(&idxs);
        self.push(value, Op::ConcatLast { widths }, &idxs, None, rg)
    }

    // ------------------------------------------------------------------
    // Regularisation / adversarial helpers
    // ------------------------------------------------------------------

    /// Inverted dropout with drop probability `p`. Identity when the graph is
    /// in evaluation mode or `p == 0`.
    pub fn dropout(&mut self, x: Var, p: f32) -> Var {
        if !self.training || p <= 0.0 {
            return x;
        }
        assert!(p < 1.0, "dropout probability must be < 1");
        let keep = 1.0 - p;
        let n = self.nodes[x.0].value.numel();
        let mask: Vec<f32> = (0..n)
            .map(|_| if self.rng.chance(p) { 0.0 } else { 1.0 / keep })
            .collect();
        let xv = &self.nodes[x.0].value;
        let data: Vec<f32> = xv
            .data()
            .iter()
            .zip(mask.iter())
            .map(|(&v, &m)| v * m)
            .collect();
        let value = Tensor::new(xv.shape().to_vec(), data);
        let rg = self.nodes[x.0].requires_grad;
        self.push(value, Op::Dropout { mask }, &[x.0], None, rg)
    }

    /// Gradient reversal layer: identity on the forward pass, multiplies the
    /// gradient by `-lambda` on the backward pass.
    pub fn grad_reverse(&mut self, x: Var, lambda: f32) -> Var {
        let shape = self.nodes[x.0].value.shape().to_vec();
        let data = self.alloc_copy_of(x);
        let value = Tensor::new(shape, data);
        let rg = self.tape && self.nodes[x.0].requires_grad;
        self.push(value, Op::GradReverse { lambda }, &[x.0], None, rg)
    }

    // ------------------------------------------------------------------
    // Sequence ops
    // ------------------------------------------------------------------

    /// Embedding lookup. `table` must be a `[vocab, emb]` parameter; `ids`
    /// has `batch * seq` entries; the output is `[batch, seq, emb]`.
    pub fn embedding(&mut self, table: ParamId, ids: &[u32], batch: usize, seq: usize) -> Var {
        let timers = self.kernel_timers.clone();
        let _timer = KernelSpan::start(timers.as_ref(), "embedding");
        assert_eq!(ids.len(), batch * seq, "embedding: ids length mismatch");
        assert_eq!(
            self.store.value(table).ndim(),
            2,
            "embedding table must be 2-D"
        );
        let vocab = self.store.value(table).shape()[0];
        let emb = self.store.value(table).shape()[1];
        let mut data = self.alloc_for_overwrite(batch * seq * emb);
        if let Some(&id) = ids.iter().find(|&&id| id as usize >= vocab) {
            panic!("token id {id} out of vocabulary ({vocab})");
        }
        kernels::gather_rows(self.store.value(table).data(), emb, ids, &mut data, 1);
        let value = Tensor::new(vec![batch, seq, emb], data);
        let requires = self.tape && self.store.get(table).trainable;
        // The ids are only needed to route gradients; skip the copy on
        // tape-free graphs.
        let op_ids = if self.tape { ids.to_vec() } else { Vec::new() };
        self.push(
            value,
            Op::Embedding { table, ids: op_ids },
            &[],
            None,
            requires,
        )
    }

    /// Select time step `t`: `[b, s, d] -> [b, d]`.
    pub fn select_time(&mut self, x: Var, t: usize) -> Var {
        let (b, s, d) = {
            let xv = &self.nodes[x.0].value;
            assert_eq!(xv.ndim(), 3, "select_time expects [b, s, d]");
            (xv.shape()[0], xv.shape()[1], xv.shape()[2])
        };
        assert!(t < s, "select_time index {t} out of range {s}");
        let mut data = self.alloc_zeroed(b * d);
        let xd = self.nodes[x.0].value.data();
        for i in 0..b {
            let off = i * s * d + t * d;
            data[i * d..(i + 1) * d].copy_from_slice(&xd[off..off + d]);
        }
        let value = Tensor::new(vec![b, d], data);
        let rg = self.tape && self.nodes[x.0].requires_grad;
        self.push(value, Op::SelectTime { t }, &[x.0], None, rg)
    }

    /// Mean over the time dimension: `[b, s, d] -> [b, d]`.
    pub fn mean_over_time(&mut self, x: Var) -> Var {
        let (b, s, d) = {
            let xv = &self.nodes[x.0].value;
            assert_eq!(xv.ndim(), 3, "mean_over_time expects [b, s, d]");
            (xv.shape()[0], xv.shape()[1], xv.shape()[2])
        };
        let mut data = self.alloc_zeroed(b * d);
        let xd = self.nodes[x.0].value.data();
        for i in 0..b {
            for t in 0..s {
                let off = i * s * d + t * d;
                for j in 0..d {
                    data[i * d + j] += xd[off + j];
                }
            }
            for j in 0..d {
                data[i * d + j] /= s as f32;
            }
        }
        let value = Tensor::new(vec![b, d], data);
        let rg = self.tape && self.nodes[x.0].requires_grad;
        self.push(value, Op::MeanOverTime, &[x.0], None, rg)
    }

    /// One TextCNN branch, `max_t relu(conv1d(x, weight, bias))`, as a
    /// single op: `[b, s, d]` in, `[b, oc]` out.
    ///
    /// * `x`: `[b, s, d]`
    /// * `weight`: a `[oc, k, d]` parameter
    /// * `bias`: an `[oc]` parameter
    ///
    /// The convolution runs into scratch through [`kernels::conv1d_into`],
    /// reading `weight` and `bias` where they lie in the store: the output
    /// is seeded with the bias and the blocked GEMM accumulates the
    /// `[oc, k·d]` weight against the input's `k·d`-long windows, read in
    /// place. Per output element that is `bias + Σ x·w` over ascending
    /// `(ki, j)`, the naive nested-loop order.
    /// [`kernels::relu_max_over_time_into`] then pools the scratch, so
    /// values and arg-max are those of a ReLU over the whole activation
    /// followed by max-over-time. The tape keeps only the
    /// `[b, oc]` output and a `u32` arg-max per (sample, channel).
    pub fn conv_relu_max(&mut self, x: Var, weight: ParamId, bias: ParamId) -> Var {
        let timers = self.kernel_timers.clone();
        let _timer = KernelSpan::start(timers.as_ref(), "conv1d");
        let (b, s, d) = {
            let xv = &self.nodes[x.0].value;
            assert_eq!(xv.ndim(), 3, "conv1d input must be [b, s, d]");
            (xv.shape()[0], xv.shape()[1], xv.shape()[2])
        };
        let (oc, k) = {
            let wv = self.store.value(weight);
            assert_eq!(wv.ndim(), 3, "conv1d weight must be [oc, k, d]");
            assert_eq!(wv.shape()[2], d, "conv1d feature dimension mismatch");
            (wv.shape()[0], wv.shape()[1])
        };
        assert_eq!(
            self.store.value(bias).numel(),
            oc,
            "conv1d bias length mismatch"
        );
        assert!(
            s >= k,
            "conv1d: sequence length {s} shorter than kernel {k}"
        );
        let out_s = s - k + 1;
        let mut conv = self.alloc_for_overwrite(b * out_s * oc);
        let mut pack = self.alloc_for_overwrite(kernels::packed_len(k * d, oc));
        let xd = self.nodes[x.0].value.data();
        let wd = self.store.value(weight).data();
        let bd = self.store.value(bias).data();
        for row in conv.chunks_exact_mut(oc.max(1)) {
            row.copy_from_slice(bd);
        }
        kernels::conv1d_into(xd, b, s, d, k, wd, oc, &mut conv, &mut pack);
        self.release_scratch(pack);
        let rg = self.tape
            && (self.nodes[x.0].requires_grad
                || self.store.get(weight).trainable
                || self.store.get(bias).trainable);
        let mut data = self.alloc_for_overwrite(b * oc);
        let mut argmax = if rg { vec![0u32; b * oc] } else { Vec::new() };
        kernels::relu_max_over_time_into(
            b,
            out_s,
            oc,
            &conv,
            &mut data,
            rg.then_some(argmax.as_mut_slice()),
        );
        self.release_scratch(conv);
        let op = Op::ConvReluMax {
            weight,
            bias,
            argmax,
        };
        self.push(Tensor::new(vec![b, oc], data), op, &[x.0], None, rg)
    }

    // ------------------------------------------------------------------
    // Distillation-specific ops
    // ------------------------------------------------------------------

    /// Pairwise squared Euclidean distances between the rows of a `[b, d]`
    /// feature matrix, producing the `[b, b]` correlation matrix `M` of
    /// Eq. (5) in the paper ([`kernels::pairwise_sq_dist_into`]).
    pub fn pairwise_sq_dist(&mut self, x: Var) -> Var {
        let (b, d) = {
            let xv = &self.nodes[x.0].value;
            assert_eq!(xv.ndim(), 2, "pairwise_sq_dist expects [b, d]");
            (xv.shape()[0], xv.shape()[1])
        };
        let mut data = self.alloc_for_overwrite(b * b);
        let mut cols = self.alloc_for_overwrite(b * d);
        kernels::pairwise_sq_dist_into(b, d, self.nodes[x.0].value.data(), &mut cols, &mut data);
        self.release_scratch(cols);
        let value = Tensor::new(vec![b, b], data);
        let rg = self.nodes[x.0].requires_grad;
        self.push(value, Op::PairwiseSqDist, &[x.0], None, rg)
    }

    /// Select a single column of a 2-D tensor as a `[rows, 1]` tensor.
    pub fn select_col(&mut self, x: Var, col: usize) -> Var {
        let (r, c) = {
            let xv = &self.nodes[x.0].value;
            assert_eq!(xv.ndim(), 2, "select_col expects a 2-D tensor");
            (xv.shape()[0], xv.shape()[1])
        };
        assert!(col < c, "select_col {col} out of range {c}");
        let mut data = self.alloc_zeroed(r);
        let xd = self.nodes[x.0].value.data();
        for (i, slot) in data.iter_mut().enumerate() {
            *slot = xd[i * c + col];
        }
        let value = Tensor::new(vec![r, 1], data);
        let rg = self.tape && self.nodes[x.0].requires_grad;
        self.push(value, Op::SelectCol { col }, &[x.0], None, rg)
    }

    /// Multiply each row of `x` (`[r, c]`) by the matching entry of the
    /// column vector `s` (`[r, 1]` or `[r]`).
    pub fn row_scale(&mut self, x: Var, s: Var) -> Var {
        let (r, c) = as_rows_cols(self.nodes[x.0].value.shape());
        assert_eq!(
            self.nodes[s.0].value.numel(),
            r,
            "row_scale: scale length mismatch"
        );
        let shape = self.nodes[x.0].value.shape().to_vec();
        let mut data = self.alloc_zeroed(r * c);
        let xd = self.nodes[x.0].value.data();
        let sd = self.nodes[s.0].value.data();
        for i in 0..r {
            let w = sd[i];
            for j in 0..c {
                data[i * c + j] = xd[i * c + j] * w;
            }
        }
        let value = Tensor::new(shape, data);
        let rg = self.any_requires_grad(&[x.0, s.0]);
        self.push(value, Op::RowScale, &[x.0, s.0], None, rg)
    }

    /// Fused softmax cross-entropy with hard labels, averaged over the batch.
    pub fn cross_entropy_logits(&mut self, logits: Var, labels: &[usize]) -> Var {
        let lv = &self.nodes[logits.0].value;
        assert_eq!(lv.ndim(), 2, "cross_entropy_logits expects [b, classes]");
        let (b, c) = (lv.shape()[0], lv.shape()[1]);
        assert_eq!(labels.len(), b, "label count must match batch size");
        let probs = rowwise_softmax(lv);
        let mut loss = 0.0f32;
        for (i, &y) in labels.iter().enumerate() {
            assert!(y < c, "label {y} out of range for {c} classes");
            loss -= (probs.data()[i * c + y] + 1e-12).ln();
        }
        loss /= b as f32;
        let value = Tensor::scalar(loss);
        let rg = self.nodes[logits.0].requires_grad;
        self.push(
            value,
            Op::CrossEntropyLogits {
                labels: labels.to_vec(),
                probs,
            },
            &[logits.0],
            None,
            rg,
        )
    }

    // ------------------------------------------------------------------
    // Backward pass
    // ------------------------------------------------------------------

    /// Run reverse-mode differentiation from a scalar loss node, accumulating
    /// gradients of every trainable parameter into the [`ParamStore`].
    ///
    /// # Panics
    /// Panics if `loss` is not a single-element tensor.
    pub fn backward(&mut self, loss: Var) {
        assert!(
            self.tape,
            "backward() on a tape-free inference graph; use Graph::new for training"
        );
        assert_eq!(
            self.nodes[loss.0].value.numel(),
            1,
            "backward expects a scalar loss, got {}",
            fmt_shape(self.nodes[loss.0].value.shape())
        );
        let n = self.nodes.len();
        let mut grads: Vec<Option<Tensor>> = vec![None; n];
        grads[loss.0] = Some(Tensor::scalar(1.0));
        // One pack buffer for every `A·Bᵀ` product of the pass.
        let mut pack = Vec::new();

        for i in (0..n).rev() {
            if !self.nodes[i].requires_grad {
                continue;
            }
            let Some(grad) = grads[i].take() else {
                continue;
            };
            // Leaf parameters: flush into the store.
            if let Some(pid) = self.nodes[i].param {
                if self.store.get(pid).trainable {
                    self.store.accumulate_grad(pid, &grad);
                }
                continue;
            }
            self.backprop_node(i, &grad, &mut grads, &mut pack);
        }
    }

    fn accumulate(&self, grads: &mut [Option<Tensor>], idx: usize, delta: Tensor) {
        if !self.nodes[idx].requires_grad {
            return;
        }
        match &mut grads[idx] {
            Some(g) => g.axpy(1.0, &delta),
            slot @ None => *slot = Some(delta),
        }
    }

    /// Push node `i`'s gradient into its inputs. `pack` is pack scratch
    /// the caller keeps across the whole backward pass.
    #[allow(clippy::too_many_lines)]
    fn backprop_node(
        &mut self,
        i: usize,
        grad: &Tensor,
        grads: &mut [Option<Tensor>],
        pack: &mut Vec<f32>,
    ) {
        // Split borrows: everything we read from `self.nodes` is immutable,
        // and writes go through `grads` / the parameter store only.
        let inputs = self.nodes[i].inputs.clone();
        match &self.nodes[i].op {
            Op::Leaf => {}
            Op::Add => {
                self.accumulate(grads, inputs[0], grad.clone());
                self.accumulate(grads, inputs[1], grad.clone());
            }
            Op::Sub => {
                self.accumulate(grads, inputs[0], grad.clone());
                self.accumulate(grads, inputs[1], grad.scale(-1.0));
            }
            Op::Mul => {
                let a = &self.nodes[inputs[0]].value;
                let b = &self.nodes[inputs[1]].value;
                let da = grad.mul(b);
                let db = grad.mul(a);
                self.accumulate(grads, inputs[0], da);
                self.accumulate(grads, inputs[1], db);
            }
            Op::AddBias => {
                let (rows, cols) = as_rows_cols(grad.shape());
                let mut db = vec![0.0f32; cols];
                for r in 0..rows {
                    let row = &grad.data()[r * cols..(r + 1) * cols];
                    for (slot, &g) in db.iter_mut().zip(row) {
                        *slot += g;
                    }
                }
                let bias_shape = self.nodes[inputs[1]].value.shape().to_vec();
                self.accumulate(grads, inputs[0], grad.clone());
                self.accumulate(grads, inputs[1], Tensor::new(bias_shape, db));
            }
            Op::Affine { a } => {
                self.accumulate(grads, inputs[0], grad.scale(*a));
            }
            Op::Matmul => {
                // Fused-transpose GEMMs: bit-identical to the explicit
                // `grad·bᵀ` / `aᵀ·grad` products, minus the transpose copies.
                let (a, b) = (inputs[0], inputs[1]);
                if self.nodes[a].requires_grad {
                    let bv = &self.nodes[b].value;
                    let (rows, inner, cols) = (grad.shape()[0], grad.shape()[1], bv.shape()[0]);
                    let mut da = vec![0.0f32; rows * cols];
                    let (gd, bd) = (grad.data(), bv.data());
                    kernels::gemm_abt_into(rows, inner, cols, gd, bd, &mut da, pack);
                    self.accumulate(grads, a, Tensor::new(vec![rows, cols], da));
                }
                if self.nodes[b].requires_grad {
                    let db = self.nodes[a].value.matmul_transa(grad);
                    self.accumulate(grads, b, db);
                }
            }
            Op::Relu => {
                let y = &self.nodes[i].value;
                let dx = Tensor::new(
                    y.shape().to_vec(),
                    y.data()
                        .iter()
                        .zip(grad.data().iter())
                        .map(|(&v, &g)| if v > 0.0 { g } else { 0.0 })
                        .collect(),
                );
                self.accumulate(grads, inputs[0], dx);
            }
            Op::Sigmoid => {
                let y = &self.nodes[i].value;
                let dx = Tensor::new(
                    y.shape().to_vec(),
                    y.data()
                        .iter()
                        .zip(grad.data().iter())
                        .map(|(&v, &g)| g * v * (1.0 - v))
                        .collect(),
                );
                self.accumulate(grads, inputs[0], dx);
            }
            Op::Tanh => {
                let y = &self.nodes[i].value;
                let dx = Tensor::new(
                    y.shape().to_vec(),
                    y.data()
                        .iter()
                        .zip(grad.data().iter())
                        .map(|(&v, &g)| g * (1.0 - v * v))
                        .collect(),
                );
                self.accumulate(grads, inputs[0], dx);
            }
            Op::Softmax => {
                let y = &self.nodes[i].value;
                let (rows, cols) = as_rows_cols(y.shape());
                let mut dx = vec![0.0f32; y.numel()];
                for r in 0..rows {
                    let mut dot = 0.0f32;
                    for c in 0..cols {
                        dot += grad.data()[r * cols + c] * y.data()[r * cols + c];
                    }
                    for c in 0..cols {
                        let idx = r * cols + c;
                        dx[idx] = y.data()[idx] * (grad.data()[idx] - dot);
                    }
                }
                self.accumulate(grads, inputs[0], Tensor::new(y.shape().to_vec(), dx));
            }
            Op::LogSoftmax => {
                let y = &self.nodes[i].value;
                let (rows, cols) = as_rows_cols(y.shape());
                let mut dx = vec![0.0f32; y.numel()];
                for r in 0..rows {
                    let mut gsum = 0.0f32;
                    for c in 0..cols {
                        gsum += grad.data()[r * cols + c];
                    }
                    for c in 0..cols {
                        let idx = r * cols + c;
                        dx[idx] = grad.data()[idx] - y.data()[idx].exp() * gsum;
                    }
                }
                self.accumulate(grads, inputs[0], Tensor::new(y.shape().to_vec(), dx));
            }
            Op::MeanAll => {
                let x_shape = self.nodes[inputs[0]].value.shape().to_vec();
                let n = numel(&x_shape) as f32;
                let g = grad.item() / n;
                self.accumulate(grads, inputs[0], Tensor::full(&x_shape, g));
            }
            Op::SumAll => {
                let x_shape = self.nodes[inputs[0]].value.shape().to_vec();
                self.accumulate(grads, inputs[0], Tensor::full(&x_shape, grad.item()));
            }
            Op::Reshape => {
                let x_shape = self.nodes[inputs[0]].value.shape().to_vec();
                self.accumulate(grads, inputs[0], grad.reshape(&x_shape));
            }
            Op::ConcatLast { widths } => {
                let widths = widths.clone();
                let total: usize = widths.iter().sum();
                let rows = grad.numel() / total;
                let mut col_off = 0usize;
                for (slot, w) in inputs.iter().zip(widths.iter()) {
                    let mut part = vec![0.0f32; rows * w];
                    for r in 0..rows {
                        part[r * w..(r + 1) * w].copy_from_slice(
                            &grad.data()[r * total + col_off..r * total + col_off + w],
                        );
                    }
                    let mut shape = self.nodes[*slot].value.shape().to_vec();
                    *shape.last_mut().expect("non-scalar") = *w;
                    self.accumulate(grads, *slot, Tensor::new(shape, part));
                    col_off += w;
                }
            }
            Op::Dropout { mask } => {
                let dx = Tensor::new(
                    grad.shape().to_vec(),
                    grad.data()
                        .iter()
                        .zip(mask.iter())
                        .map(|(&g, &m)| g * m)
                        .collect(),
                );
                self.accumulate(grads, inputs[0], dx);
            }
            Op::GradReverse { lambda } => {
                self.accumulate(grads, inputs[0], grad.scale(-lambda));
            }
            Op::Embedding { table, ids } => {
                let table = *table;
                if !self.store.get(table).trainable {
                    return;
                }
                let emb = self.store.value(table).shape()[1];
                let mut delta = Tensor::zeros(self.store.value(table).shape());
                for (r, &id) in ids.iter().enumerate() {
                    let dst = &mut delta.data_mut()[id as usize * emb..(id as usize + 1) * emb];
                    let src = &grad.data()[r * emb..(r + 1) * emb];
                    for (d, s) in dst.iter_mut().zip(src.iter()) {
                        *d += s;
                    }
                }
                self.store.accumulate_grad(table, &delta);
            }
            Op::SelectTime { t } => {
                let x_shape = self.nodes[inputs[0]].value.shape().to_vec();
                let (b, s, d) = (x_shape[0], x_shape[1], x_shape[2]);
                let mut dx = vec![0.0f32; b * s * d];
                for i2 in 0..b {
                    let off = i2 * s * d + t * d;
                    dx[off..off + d].copy_from_slice(&grad.data()[i2 * d..(i2 + 1) * d]);
                }
                self.accumulate(grads, inputs[0], Tensor::new(x_shape, dx));
            }
            Op::MeanOverTime => {
                let x_shape = self.nodes[inputs[0]].value.shape().to_vec();
                let (b, s, d) = (x_shape[0], x_shape[1], x_shape[2]);
                let mut dx = vec![0.0f32; b * s * d];
                for i2 in 0..b {
                    for t in 0..s {
                        for j in 0..d {
                            dx[i2 * s * d + t * d + j] = grad.data()[i2 * d + j] / s as f32;
                        }
                    }
                }
                self.accumulate(grads, inputs[0], Tensor::new(x_shape, dx));
            }
            Op::ConvReluMax {
                weight,
                bias,
                argmax,
            } => {
                let (weight, bias) = (*weight, *bias);
                let xn = &self.nodes[inputs[0]];
                let (b, s, d) = (
                    xn.value.shape()[0],
                    xn.value.shape()[1],
                    xn.value.shape()[2],
                );
                let (oc, k) = {
                    let shape = self.store.value(weight).shape();
                    (shape[0], shape[1])
                };
                let width = k * d;
                let need_dx = xn.requires_grad;
                let need_dw = self.store.get(weight).trainable;
                let need_db = self.store.get(bias).trainable;
                let (xd, gd, pooled) = (xn.value.data(), grad.data(), self.nodes[i].value.data());
                let mut dx = if need_dx {
                    vec![0.0f32; b * s * d]
                } else {
                    Vec::new()
                };
                let mut dw = if need_dw {
                    vec![0.0f32; oc * width]
                } else {
                    Vec::new()
                };
                let mut db = if need_db {
                    vec![0.0f32; oc]
                } else {
                    Vec::new()
                };
                // The ReLU passes a gradient only where the pooled value is
                // positive, and max-over-time routes it to one time step per
                // (sample, channel). Visiting those hits by ascending sample
                // gives each `dw`/`db` element the adds of the dense
                // `(i2, t, o, ki, j)` scan in the same order; `dx`, whose
                // windows overlap across channels and steps, takes each
                // sample's hits in ascending `(t, o)` order for the same
                // reason.
                let mut hits: Vec<(u32, usize)> = Vec::with_capacity(oc);
                for i2 in 0..b {
                    hits.clear();
                    for o in 0..oc {
                        let idx = i2 * oc + o;
                        let g = gd[idx];
                        if g == 0.0 || pooled[idx] <= 0.0 {
                            continue;
                        }
                        let t = argmax[idx];
                        let x_off = i2 * s * d + t as usize * d;
                        if need_db {
                            db[o] += g;
                        }
                        if need_dw {
                            let x_win = &xd[x_off..x_off + width];
                            for (dv, &xv) in dw[o * width..(o + 1) * width].iter_mut().zip(x_win) {
                                *dv += g * xv;
                            }
                        }
                        if need_dx {
                            hits.push((t, o));
                        }
                    }
                    if need_dx {
                        hits.sort_unstable();
                        let wd = self.store.value(weight).data();
                        for &(t, o) in &hits {
                            let g = gd[i2 * oc + o];
                            let x_off = i2 * s * d + t as usize * d;
                            let w_row = &wd[o * width..(o + 1) * width];
                            for (dv, &wv) in dx[x_off..x_off + width].iter_mut().zip(w_row) {
                                *dv += g * wv;
                            }
                        }
                    }
                }
                if need_dx {
                    self.accumulate(grads, inputs[0], Tensor::new(vec![b, s, d], dx));
                }
                if need_dw {
                    self.store
                        .accumulate_grad(weight, &Tensor::new(vec![oc, k, d], dw));
                }
                if need_db {
                    self.store.accumulate_grad(bias, &Tensor::new(vec![oc], db));
                }
            }
            Op::PairwiseSqDist => {
                let xv = &self.nodes[inputs[0]].value;
                let (b, d) = (xv.shape()[0], xv.shape()[1]);
                let (xd, gd) = (xv.data(), grad.data());
                let mut dx = vec![0.0f32; b * d];
                // Row slices let the `t` loop vectorise; each element still
                // sums its `j` terms in ascending order.
                if d > 0 {
                    for (i2, (dx_row, x_i)) in
                        dx.chunks_exact_mut(d).zip(xd.chunks_exact(d)).enumerate()
                    {
                        for (j, x_j) in xd.chunks_exact(d).enumerate() {
                            if i2 == j {
                                continue;
                            }
                            let g = gd[i2 * b + j] + gd[j * b + i2];
                            if g == 0.0 {
                                continue;
                            }
                            let g2 = 2.0 * g;
                            for ((dv, &xi), &xj) in dx_row.iter_mut().zip(x_i).zip(x_j) {
                                *dv += g2 * (xi - xj);
                            }
                        }
                    }
                }
                self.accumulate(grads, inputs[0], Tensor::new(vec![b, d], dx));
            }
            Op::SelectCol { col } => {
                let x_shape = self.nodes[inputs[0]].value.shape().to_vec();
                let (r, c) = (x_shape[0], x_shape[1]);
                let mut dx = vec![0.0f32; r * c];
                for i2 in 0..r {
                    dx[i2 * c + col] = grad.data()[i2];
                }
                self.accumulate(grads, inputs[0], Tensor::new(x_shape, dx));
            }
            Op::RowScale => {
                let xv = &self.nodes[inputs[0]].value;
                let sv = &self.nodes[inputs[1]].value;
                let (r, c) = as_rows_cols(xv.shape());
                let mut dx = vec![0.0f32; r * c];
                let mut ds = vec![0.0f32; r];
                for i2 in 0..r {
                    let w = sv.data()[i2];
                    for j in 0..c {
                        let g = grad.data()[i2 * c + j];
                        dx[i2 * c + j] = g * w;
                        ds[i2] += g * xv.data()[i2 * c + j];
                    }
                }
                let s_shape = sv.shape().to_vec();
                self.accumulate(grads, inputs[0], Tensor::new(xv.shape().to_vec(), dx));
                self.accumulate(grads, inputs[1], Tensor::new(s_shape, ds));
            }
            Op::CrossEntropyLogits { labels, probs } => {
                let (b, c) = (probs.shape()[0], probs.shape()[1]);
                let scale = grad.item() / b as f32;
                let mut dx = probs.data().to_vec();
                for (i2, &y) in labels.iter().enumerate() {
                    dx[i2 * c + y] -= 1.0;
                }
                for v in &mut dx {
                    *v *= scale;
                }
                self.accumulate(grads, inputs[0], Tensor::new(vec![b, c], dx));
            }
        }
    }
}

fn rowwise_softmax(x: &Tensor) -> Tensor {
    let (rows, cols) = as_rows_cols(x.shape());
    let mut out = vec![0.0f32; x.numel()];
    kernels::softmax_rows_into(rows, cols, x.data(), &mut out);
    Tensor::new(x.shape().to_vec(), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamStore;

    fn approx(a: f32, b: f32, tol: f32) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn forward_values_are_recorded() {
        let mut store = ParamStore::new();
        let mut g = Graph::new(&mut store, false, 0);
        let a = g.constant(Tensor::from_vec(vec![1.0, 2.0]));
        let b = g.constant(Tensor::from_vec(vec![3.0, 4.0]));
        let c = g.add(a, b);
        assert_eq!(g.value(c).data(), &[4.0, 6.0]);
        let d = g.mul(a, b);
        assert_eq!(g.value(d).data(), &[3.0, 8.0]);
    }

    #[test]
    fn simple_param_gradient() {
        // loss = mean((w * x)^2) with w = [2], x = [3] -> dloss/dw = 2*w*x^2 = 36
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(vec![2.0]));
        let mut g = Graph::new(&mut store, false, 0);
        let wv = g.param(w);
        let x = g.constant(Tensor::from_vec(vec![3.0]));
        let wx = g.mul(wv, x);
        let sq = g.mul(wx, wx);
        let loss = g.mean_all(sq);
        assert!(approx(g.value(loss).item(), 36.0, 1e-5));
        g.backward(loss);
        assert!(approx(store.grad(w).data()[0], 36.0, 1e-4));
    }

    #[test]
    fn matmul_gradients_match_hand_computation() {
        // loss = sum(A @ B); dA = 1 @ B^T (row sums of B), dB = A^T @ 1.
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let b = store.add("b", Tensor::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]));
        let mut g = Graph::new(&mut store, false, 0);
        let av = g.param(a);
        let bv = g.param(b);
        let c = g.matmul(av, bv);
        let loss = g.sum_all(c);
        g.backward(loss);
        assert_eq!(store.grad(a).data(), &[11.0, 15.0, 11.0, 15.0]);
        assert_eq!(store.grad(b).data(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn frozen_params_receive_no_gradient() {
        let mut store = ParamStore::new();
        let w = store.add_frozen("w", Tensor::from_vec(vec![2.0]));
        let mut g = Graph::new(&mut store, false, 0);
        let wv = g.param(w);
        let loss = g.mean_all(wv);
        g.backward(loss);
        assert_eq!(store.grad(w).data(), &[0.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut store = ParamStore::new();
        let mut g = Graph::new(&mut store, false, 0);
        let x = g.constant(Tensor::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![0.0, 0.0, 0.0],
        ]));
        let s = g.softmax(x);
        let v = g.value(s);
        assert!(approx(v.row(0).iter().sum::<f32>(), 1.0, 1e-6));
        assert!(approx(v.at2(1, 0), 1.0 / 3.0, 1e-6));
    }

    #[test]
    fn log_softmax_is_log_of_softmax() {
        let mut store = ParamStore::new();
        let mut g = Graph::new(&mut store, false, 0);
        let x = g.constant(Tensor::from_rows(&[vec![0.5, -1.0, 2.0]]));
        let s = g.softmax(x);
        let ls = g.log_softmax(x);
        for j in 0..3 {
            assert!(approx(
                g.value(s).at2(0, j).ln(),
                g.value(ls).at2(0, j),
                1e-5
            ));
        }
    }

    #[test]
    fn cross_entropy_matches_manual_value() {
        let mut store = ParamStore::new();
        let w = store.add(
            "logits",
            Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 0.0]]),
        );
        let mut g = Graph::new(&mut store, false, 0);
        let l = g.param(w);
        let loss = g.cross_entropy_logits(l, &[1, 0]);
        // manual: -ln(softmax([1,2])[1]) - ln(softmax([3,0])[0]) over 2
        let p1 = (2.0f32).exp() / ((1.0f32).exp() + (2.0f32).exp());
        let p2 = (3.0f32).exp() / ((3.0f32).exp() + (0.0f32).exp());
        let expect = -(p1.ln() + p2.ln()) / 2.0;
        assert!(approx(g.value(loss).item(), expect, 1e-5));
        g.backward(loss);
        // Gradient of CE wrt logits is (p - onehot)/b.
        let grad = store.grad(w);
        assert!(approx(grad.at2(0, 1), (p1 - 1.0) / 2.0, 1e-5));
        assert!(approx(grad.at2(1, 0), (p2 - 1.0) / 2.0, 1e-5));
    }

    #[test]
    fn grad_reverse_flips_and_scales_gradient() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(vec![1.0, 2.0]));
        let mut g = Graph::new(&mut store, false, 0);
        let wv = g.param(w);
        let r = g.grad_reverse(wv, 0.5);
        let loss = g.sum_all(r);
        g.backward(loss);
        assert_eq!(store.grad(w).data(), &[-0.5, -0.5]);
    }

    #[test]
    fn dropout_eval_mode_is_identity() {
        let mut store = ParamStore::new();
        let mut g = Graph::new(&mut store, false, 7);
        let x = g.constant(Tensor::from_vec(vec![1.0, 2.0, 3.0]));
        let d = g.dropout(x, 0.5);
        assert_eq!(d, x);
    }

    #[test]
    fn dropout_training_mode_scales_kept_units() {
        let mut store = ParamStore::new();
        let mut g = Graph::new(&mut store, true, 7);
        let x = g.constant(Tensor::full(&[1000], 1.0));
        let d = g.dropout(x, 0.25);
        let v = g.value(d);
        // Every kept unit is scaled by 1/(1-p); the mean stays ~1.
        for &e in v.data() {
            assert!(e == 0.0 || approx(e, 1.0 / 0.75, 1e-6));
        }
        assert!(approx(v.mean(), 1.0, 0.1));
    }

    #[test]
    fn embedding_looks_up_rows_and_backprops() {
        let mut store = ParamStore::new();
        let table = store.add(
            "emb",
            Tensor::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![2.0, 2.0]]),
        );
        let mut g = Graph::new(&mut store, false, 0);
        let e = g.embedding(table, &[2, 0, 1, 1], 2, 2);
        assert_eq!(g.value(e).shape(), &[2, 2, 2]);
        assert_eq!(g.value(e).at(&[0, 0, 0]), 2.0);
        assert_eq!(g.value(e).at(&[1, 0, 1]), 1.0);
        let s = g.sum_all(e);
        g.backward(s);
        // Token 1 appears twice, so its grad row accumulates 2.
        assert_eq!(store.grad(table).row(1), &[2.0, 2.0]);
        assert_eq!(store.grad(table).row(2), &[1.0, 1.0]);
    }

    #[test]
    fn max_over_time_routes_gradient_to_argmax() {
        // x = [0, 5, 3] over time; channel 0 copies it, channel 1 negates
        // it, so its ReLU is zero everywhere and it passes no gradient.
        let mut store = ParamStore::new();
        let xid = store.add("x", Tensor::new(vec![1, 3, 1], vec![0.0, 5.0, 3.0]));
        let w = store.add("w", Tensor::new(vec![2, 1, 1], vec![1.0, -1.0]));
        let bias = store.add("b", Tensor::zeros(&[2]));
        let mut g = Graph::new(&mut store, false, 0);
        let x = g.param(xid);
        let m = g.conv_relu_max(x, w, bias);
        assert_eq!(g.value(m).data(), &[5.0, 0.0]);
        let loss = g.sum_all(m);
        g.backward(loss);
        assert_eq!(store.grad(xid).data(), &[0.0, 1.0, 0.0]);
        assert_eq!(store.grad(w).data(), &[5.0, 0.0]);
        assert_eq!(store.grad(bias).data(), &[1.0, 0.0]);
    }

    #[test]
    fn conv1d_shapes_and_simple_values() {
        // x: batch 1, seq 3, dim 1 = [1, 2, 3]; kernel k=2, single channel
        // w=[1,1]: the conv is [3.5, 5.5] and the branch pools 5.5.
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::new(vec![1, 2, 1], vec![1.0, 1.0]));
        let bias = store.add("b", Tensor::from_vec(vec![0.5]));
        let mut g = Graph::new(&mut store, false, 0);
        let x = g.constant(Tensor::new(vec![1, 3, 1], vec![1.0, 2.0, 3.0]));
        let y = g.conv_relu_max(x, w, bias);
        assert_eq!(g.value(y).shape(), &[1, 1]);
        assert_eq!(g.value(y).data(), &[5.5]);
    }

    /// The dense `(i2, t, o, ki, j)` convolution backward loop of the
    /// unfused chain, always building `dx`, `dw` and `db`.
    fn conv1d_backward_reference(x: &Tensor, w: &Tensor, grad: &Tensor) -> [Vec<f32>; 3] {
        let (b, s, d) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        let (oc, k) = (w.shape()[0], w.shape()[1]);
        let out_s = s - k + 1;
        let gd = grad.data();
        let mut dx = vec![0.0f32; b * s * d];
        let mut dw = vec![0.0f32; oc * k * d];
        let mut db = vec![0.0f32; oc];
        for i2 in 0..b {
            for t in 0..out_s {
                for o in 0..oc {
                    let g = gd[i2 * out_s * oc + t * oc + o];
                    if g == 0.0 {
                        continue;
                    }
                    db[o] += g;
                    for ki in 0..k {
                        let x_off = i2 * s * d + (t + ki) * d;
                        let w_off = o * k * d + ki * d;
                        for j in 0..d {
                            dx[x_off + j] += g * w.data()[w_off + j];
                            dw[w_off + j] += g * x.data()[x_off + j];
                        }
                    }
                }
            }
        }
        [dx, dw, db]
    }

    /// What the unfused `conv1d → relu → max_over_time` chain produced for
    /// one branch: the pooled values, their arg-max, and the gradients of
    /// an upstream gradient on the pooled output.
    struct UnfusedBranch {
        pooled: Vec<f32>,
        argmax: Vec<u32>,
        dx: Vec<f32>,
        dw: Vec<f32>,
        db: Vec<f32>,
    }

    /// The unfused chain op for op, as the graph ran it before the fused
    /// branch op: a bias-seeded [`kernels::conv1d_into`], the ReLU map,
    /// [`kernels::max_over_time_into`] with arg-max; back through the dense
    /// max-over-time scatter, the ReLU mask and the dense conv loop.
    fn unfused_branch_reference(
        x: &Tensor,
        w: &Tensor,
        bias: &Tensor,
        grad: &Tensor,
    ) -> UnfusedBranch {
        let (b, s, d) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        let (oc, k) = (w.shape()[0], w.shape()[1]);
        let out_s = s - k + 1;
        let mut conv = vec![0.0f32; b * out_s * oc];
        for row in conv.chunks_exact_mut(oc) {
            row.copy_from_slice(bias.data());
        }
        let mut pack = Vec::new();
        kernels::conv1d_into(x.data(), b, s, d, k, w.data(), oc, &mut conv, &mut pack);
        let mut act = vec![0.0f32; conv.len()];
        kernels::map_into(&mut act, &conv, |v| v.max(0.0));
        let mut pooled = vec![0.0f32; b * oc];
        let mut argmax = vec![0u32; b * oc];
        kernels::max_over_time_into(b, out_s, oc, &act, &mut pooled, Some(&mut argmax));
        let mut d_act = vec![0.0f32; act.len()];
        for i2 in 0..b {
            for o in 0..oc {
                let t = argmax[i2 * oc + o] as usize;
                d_act[i2 * out_s * oc + t * oc + o] += grad.data()[i2 * oc + o];
            }
        }
        let d_conv: Vec<f32> = act
            .iter()
            .zip(&d_act)
            .map(|(&y, &g)| if y > 0.0 { g } else { 0.0 })
            .collect();
        let [dx, dw, db] =
            conv1d_backward_reference(x, w, &Tensor::new(vec![b, out_s, oc], d_conv));
        UnfusedBranch {
            pooled,
            argmax,
            dx,
            dw,
            db,
        }
    }

    fn randn_tensor(shape: &[usize], rng: &mut crate::rng::Prng) -> Tensor {
        let n = shape.iter().product();
        Tensor::new(
            shape.to_vec(),
            (0..n).map(|_| rng.normal_with(0.0, 1.0)).collect(),
        )
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Run one node's backward step alone with upstream gradient `grad`,
    /// returning the gradient each node received (`None`: never built).
    fn node_grads(g: &mut Graph<'_>, node: Var, grad: &Tensor) -> Vec<Option<Tensor>> {
        let mut grads = vec![None; g.len()];
        g.backprop_node(node.0, grad, &mut grads, &mut Vec::new());
        grads
    }

    /// The bits a parameter's store gradient holds after one backward pass
    /// from zero that hands it `delta`, as the unfused chain flushed it.
    fn flushed_bits(delta: &[f32]) -> Vec<u32> {
        let mut grad = Tensor::zeros(&[delta.len()]);
        grad.axpy(1.0, &Tensor::from_vec(delta.to_vec()));
        bits(&grad)
    }

    /// One parity case for the fused branch op: tape forward (values and
    /// arg-max), one backward step under `grad`, and a tape-free forward,
    /// all against the unfused chain, bit for bit.
    fn assert_fused_branch_matches_chain(
        x: &Tensor,
        w: &Tensor,
        bias: &Tensor,
        grad: &Tensor,
        [x_on, w_on]: [bool; 2],
        case: &str,
    ) {
        let want = unfused_branch_reference(x, w, bias, grad);
        let case = format!("{case} trainable [x, w] [{x_on}, {w_on}]");
        let mut store = ParamStore::new();
        let xid = if x_on {
            store.add("x", x.clone())
        } else {
            store.add_frozen("x", x.clone())
        };
        let wid = if w_on {
            store.add("w", w.clone())
        } else {
            store.add_frozen("w", w.clone())
        };
        let bid = store.add("b", bias.clone());
        let want_pooled = bits(&Tensor::from_vec(want.pooled));
        let x_grad = {
            let mut g = Graph::new(&mut store, true, 0);
            let xv = g.param(xid);
            let y = g.conv_relu_max(xv, wid, bid);
            assert_eq!(g.value(y).shape(), &[x.shape()[0], w.shape()[0]]);
            assert_eq!(bits(g.value(y)), want_pooled, "pooled {case}");
            let Op::ConvReluMax { argmax, .. } = &g.nodes[y.0].op else {
                panic!("not a fused branch node: {case}");
            };
            assert_eq!(argmax, &want.argmax, "arg-max {case}");
            let mut grads = node_grads(&mut g, y, grad);
            grads[xv.0].take()
        };
        match x_grad {
            Some(dx) => {
                assert!(x_on, "dx built for a frozen input: {case}");
                assert_eq!(bits(&dx), bits(&Tensor::from_vec(want.dx)), "dx {case}");
            }
            None => assert!(!x_on, "no dx for a trainable input: {case}"),
        }
        let want_dw = if w_on {
            flushed_bits(&want.dw)
        } else {
            vec![0; want.dw.len()]
        };
        assert_eq!(bits(store.grad(wid)), want_dw, "dw {case}");
        assert_eq!(bits(store.grad(bid)), flushed_bits(&want.db), "db {case}");
        let mut pool = BufferPool::new();
        let mut g = Graph::inference(&mut store, &mut pool);
        let xv = g.constant(x.clone());
        let y = g.conv_relu_max(xv, wid, bid);
        assert_eq!(bits(g.value(y)), want_pooled, "tape-free {case}");
        g.finish();
    }

    #[test]
    fn conv_relu_max_matches_the_unfused_chain_bit_for_bit() {
        let mut rng = crate::rng::Prng::new(21);
        let (b, s, d) = (3, 12, 5);
        for k in [1usize, 2, 3, 5, 10] {
            for oc in [1usize, 9, 32, 33] {
                let x = randn_tensor(&[b, s, d], &mut rng);
                let mut w = randn_tensor(&[oc, k, d], &mut rng);
                let mut bias = randn_tensor(&[oc], &mut rng);
                // Upstream gradient with exact and negative zeros.
                let mut grad = randn_tensor(&[b, oc], &mut rng);
                for v in grad.data_mut().iter_mut() {
                    if rng.chance(0.2) {
                        *v = if rng.chance(0.5) { 0.0 } else { -0.0 };
                    }
                }
                let shape = format!("k {k} oc {oc}");
                for trainable in [[true, true], [false, true], [true, false]] {
                    assert_fused_branch_matches_chain(&x, &w, &bias, &grad, trainable, &shape);
                }
                // Integer-valued operands: exact sums, so maxima tie and
                // the earliest step must win.
                let round = |t: &Tensor, scale: f32| {
                    Tensor::new(
                        t.shape().to_vec(),
                        t.data().iter().map(|v| (v * scale).round()).collect(),
                    )
                };
                let (xr, wr, br) = (round(&x, 1.0), round(&w, 1.0), round(&bias, 1.0));
                assert_fused_branch_matches_chain(
                    &xr,
                    &wr,
                    &br,
                    &grad,
                    [true, true],
                    &format!("{shape} ties"),
                );
                // Channel 0 has `-0.0` pre-activations everywhere (a positive
                // input against `-0.0` weights, over a `-0.0` bias); the last
                // channel's are all negative.
                let xp = Tensor::new(
                    x.shape().to_vec(),
                    x.data().iter().map(|v| v.abs() + 0.25).collect(),
                );
                w.data_mut()[..k * d].fill(-0.0);
                bias.data_mut()[0] = -0.0;
                if oc > 1 {
                    w.data_mut()[(oc - 1) * k * d..].fill(0.5);
                    bias.data_mut()[oc - 1] = -1e3;
                }
                assert_fused_branch_matches_chain(
                    &xp,
                    &w,
                    &bias,
                    &grad,
                    [true, true],
                    &format!("{shape} signed zeros, nonpositive channel"),
                );
            }
        }
    }

    /// The indexed `Op::PairwiseSqDist` backward loop the row-slice one
    /// replaced.
    fn pairwise_sq_dist_backward_reference(x: &Tensor, grad: &Tensor) -> Vec<f32> {
        let (b, d) = (x.shape()[0], x.shape()[1]);
        let mut dx = vec![0.0f32; b * d];
        for i2 in 0..b {
            for j in 0..b {
                if i2 == j {
                    continue;
                }
                let g = grad.data()[i2 * b + j] + grad.data()[j * b + i2];
                if g == 0.0 {
                    continue;
                }
                for t in 0..d {
                    dx[i2 * d + t] += 2.0 * g * (x.data()[i2 * d + t] - x.data()[j * d + t]);
                }
            }
        }
        dx
    }

    #[test]
    fn pairwise_sq_dist_backward_matches_the_indexed_loop_bit_for_bit() {
        let mut rng = crate::rng::Prng::new(22);
        for &(b, d) in &[(1, 3), (2, 1), (5, 7), (64, 128), (3, 0)] {
            let x = randn_tensor(&[b, d], &mut rng);
            let mut grad = randn_tensor(&[b, b], &mut rng);
            // Some zero pairs, so the skip is exercised too.
            for v in grad.data_mut().iter_mut() {
                if rng.chance(0.3) {
                    *v = 0.0;
                }
            }
            let want = pairwise_sq_dist_backward_reference(&x, &grad);
            let mut store = ParamStore::new();
            let xid = store.add("x", x);
            let mut g = Graph::new(&mut store, true, 0);
            let xv = g.param(xid);
            let y = g.pairwise_sq_dist(xv);
            let grads = node_grads(&mut g, y, &grad);
            let got = grads[xv.0].as_ref().expect("x gradient");
            assert_eq!(bits(got), bits(&Tensor::new(vec![b, d], want)), "({b},{d})");
        }
    }

    /// The per-pair `Graph::pairwise_sq_dist` forward loop the column
    /// form replaced.
    fn pairwise_sq_dist_forward_reference(x: &Tensor) -> Vec<f32> {
        let (b, d) = (x.shape()[0], x.shape()[1]);
        let xd = x.data();
        let mut out = vec![0.0f32; b * b];
        for i in 0..b {
            for j in (i + 1)..b {
                let mut acc = 0.0f32;
                for t in 0..d {
                    let diff = xd[i * d + t] - xd[j * d + t];
                    acc += diff * diff;
                }
                out[i * b + j] = acc;
                out[j * b + i] = acc;
            }
        }
        out
    }

    #[test]
    fn pairwise_sq_dist_forward_matches_the_per_pair_loop_bit_for_bit() {
        let mut rng = crate::rng::Prng::new(24);
        for &(b, d) in &[(0, 4), (1, 3), (2, 1), (5, 7), (64, 128), (33, 64), (3, 0)] {
            let x = randn_tensor(&[b, d], &mut rng);
            let want = pairwise_sq_dist_forward_reference(&x);
            let mut store = ParamStore::new();
            let mut g = Graph::new(&mut store, false, 0);
            let xv = g.constant(x.clone());
            let y = g.pairwise_sq_dist(xv);
            assert_eq!(
                bits(g.value(y)),
                bits(&Tensor::new(vec![b, b], want.clone())),
                "({b},{d})"
            );
            let mut pool = BufferPool::new();
            let mut g = Graph::inference(&mut store, &mut pool);
            let xv = g.constant(x);
            let y = g.pairwise_sq_dist(xv);
            assert_eq!(
                bits(g.value(y)),
                bits(&Tensor::new(vec![b, b], want)),
                "tape-free ({b},{d})"
            );
            g.finish();
        }
    }

    #[test]
    fn matmul_backward_with_a_constant_lhs_gives_the_full_paths_db() {
        let mut rng = crate::rng::Prng::new(23);
        let a = randn_tensor(&[9, 6], &mut rng);
        let b = randn_tensor(&[6, 5], &mut rng);
        let grad = randn_tensor(&[9, 5], &mut rng);
        let run = |trainable_lhs: bool| {
            let mut store = ParamStore::new();
            let aid = store.add("a", a.clone());
            let bid = store.add("b", b.clone());
            let mut g = Graph::new(&mut store, true, 0);
            let av = if trainable_lhs {
                g.param(aid)
            } else {
                g.constant(a.clone())
            };
            let bv = g.param(bid);
            let y = g.matmul(av, bv);
            let mut grads = node_grads(&mut g, y, &grad);
            (
                grads[av.0].take(),
                grads[bv.0].take().expect("rhs gradient"),
            )
        };
        let (full_da, full_db) = run(true);
        let (pruned_da, pruned_db) = run(false);
        assert!(full_da.is_some());
        assert!(pruned_da.is_none(), "a constant lhs got a gradient");
        assert_eq!(bits(&pruned_db), bits(&full_db));
    }

    #[test]
    fn pairwise_sq_dist_is_symmetric_with_zero_diagonal() {
        let mut store = ParamStore::new();
        let mut g = Graph::new(&mut store, false, 0);
        let x = g.constant(Tensor::from_rows(&[
            vec![0.0, 0.0],
            vec![3.0, 4.0],
            vec![1.0, 1.0],
        ]));
        let m = g.pairwise_sq_dist(x);
        let v = g.value(m);
        assert_eq!(v.shape(), &[3, 3]);
        assert_eq!(v.at2(0, 0), 0.0);
        assert_eq!(v.at2(0, 1), 25.0);
        assert_eq!(v.at2(1, 0), 25.0);
        assert_eq!(v.at2(0, 2), 2.0);
    }

    #[test]
    fn concat_and_split_gradients() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::from_rows(&[vec![1.0, 2.0]]));
        let b = store.add("b", Tensor::from_rows(&[vec![3.0]]));
        let mut g = Graph::new(&mut store, false, 0);
        let av = g.param(a);
        let bv = g.param(b);
        let c = g.concat_last(&[av, bv]);
        assert_eq!(g.value(c).shape(), &[1, 3]);
        assert_eq!(g.value(c).data(), &[1.0, 2.0, 3.0]);
        let w = g.constant(Tensor::from_rows(&[vec![1.0], vec![10.0], vec![100.0]]));
        let y = g.matmul(c, w);
        let loss = g.sum_all(y);
        g.backward(loss);
        assert_eq!(store.grad(a).data(), &[1.0, 10.0]);
        assert_eq!(store.grad(b).data(), &[100.0]);
    }

    #[test]
    fn select_col_and_row_scale() {
        let mut store = ParamStore::new();
        let x = store.add("x", Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let s = store.add("s", Tensor::from_rows(&[vec![10.0, 0.5], vec![20.0, 0.25]]));
        let mut g = Graph::new(&mut store, false, 0);
        let xv = g.param(x);
        let sv = g.param(s);
        let col = g.select_col(sv, 1);
        assert_eq!(g.value(col).data(), &[0.5, 0.25]);
        let scaled = g.row_scale(xv, col);
        assert_eq!(g.value(scaled).data(), &[0.5, 1.0, 0.75, 1.0]);
        let loss = g.sum_all(scaled);
        g.backward(loss);
        assert_eq!(store.grad(x).data(), &[0.5, 0.5, 0.25, 0.25]);
        // ds = sum_j x[i,j] routed back through the selected column.
        assert_eq!(store.grad(s).data(), &[0.0, 3.0, 0.0, 7.0]);
    }

    #[test]
    fn select_time_and_mean_over_time() {
        let mut store = ParamStore::new();
        let x = store.add("x", Tensor::new(vec![1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]));
        let mut g = Graph::new(&mut store, false, 0);
        let xv = g.param(x);
        let t1 = g.select_time(xv, 1);
        assert_eq!(g.value(t1).data(), &[3.0, 4.0]);
        let m = g.mean_over_time(xv);
        assert_eq!(g.value(m).data(), &[2.0, 3.0]);
        let loss = g.sum_all(m);
        g.backward(loss);
        assert_eq!(store.grad(x).data(), &[0.5, 0.5, 0.5, 0.5]);
    }

    #[test]
    fn gradients_accumulate_across_reuse() {
        // y = x + x -> dy/dx = 2
        let mut store = ParamStore::new();
        let x = store.add("x", Tensor::from_vec(vec![1.0]));
        let mut g = Graph::new(&mut store, false, 0);
        let xv = g.param(x);
        let y = g.add(xv, xv);
        let loss = g.sum_all(y);
        g.backward(loss);
        assert_eq!(store.grad(x).data(), &[2.0]);
    }

    #[test]
    fn inference_graph_matches_tape_forward_exactly() {
        use crate::pool::BufferPool;
        let mut rng = Prng::new(41);
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::randn(&[4, 3], 0.5, &mut rng));
        let b = store.add("b", Tensor::randn(&[3], 0.1, &mut rng));
        let x = Tensor::randn(&[5, 4], 1.0, &mut rng);

        fn forward(g: &mut Graph<'_>, x: &Tensor, w: ParamId, b: ParamId) -> Var {
            let xv = g.constant(x.clone());
            let wv = g.param(w);
            let bv = g.param(b);
            let h = g.matmul(xv, wv);
            let h = g.add_bias(h, bv);
            let h = g.tanh(h);
            let h = g.dropout(h, 0.5); // must be identity in both eval modes
            g.softmax(h)
        }

        let tape_out = {
            let mut g = Graph::new(&mut store, false, 0);
            let out = forward(&mut g, &x, w, b);
            g.value(out).clone()
        };
        let mut pool = BufferPool::new();
        let infer_out = {
            let mut g = Graph::inference(&mut store, &mut pool);
            assert!(g.is_inference());
            let out = forward(&mut g, &x, w, b);
            let value = g.value(out).clone();
            g.finish();
            value
        };
        // Same arithmetic, same order: the outputs are bit-identical.
        assert_eq!(tape_out.data(), infer_out.data());
        assert_eq!(tape_out.shape(), infer_out.shape());
    }

    #[test]
    fn inference_graph_recycles_buffers_through_the_pool() {
        use crate::pool::BufferPool;
        let mut rng = Prng::new(43);
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::randn(&[6, 6], 0.5, &mut rng));
        let x = Tensor::randn(&[2, 6], 1.0, &mut rng);
        let mut pool = BufferPool::new();
        let run = |store: &mut ParamStore, pool: &mut BufferPool| {
            let mut g = Graph::inference(store, pool);
            let xv = g.constant(x.clone());
            let wv = g.param(w);
            let h = g.matmul(xv, wv);
            let h = g.relu(h);
            let out = g.mean_all(h);
            let value = g.value(out).item();
            g.finish();
            value
        };
        let first = run(&mut store, &mut pool);
        let misses_after_first = pool.alloc_misses();
        assert!(misses_after_first > 0, "first call must warm the pool");
        assert!(
            pool.idle_buffers() > 0,
            "finish returns buffers to the pool"
        );
        let second = run(&mut store, &mut pool);
        assert_eq!(first, second);
        assert_eq!(
            pool.alloc_misses(),
            misses_after_first,
            "steady state allocates no new activation buffers"
        );
        assert!(pool.reuse_hits() > 0);
        // The free list is bounded: a forward that feeds in fresh constants
        // every call (their buffers are caller-owned, not recycled) must not
        // grow the pool request over request.
        let stable = pool.idle_buffers();
        for _ in 0..10 {
            run(&mut store, &mut pool);
        }
        assert_eq!(
            pool.idle_buffers(),
            stable,
            "pool must not accumulate constants' buffers"
        );
    }

    #[test]
    #[should_panic(expected = "tape-free")]
    fn backward_on_inference_graph_panics() {
        use crate::pool::BufferPool;
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(vec![1.0, 2.0]));
        let mut pool = BufferPool::new();
        let mut g = Graph::inference(&mut store, &mut pool);
        let wv = g.param(w);
        let loss = g.sum_all(wv);
        g.backward(loss);
    }

    #[test]
    fn inference_graph_gives_frozen_and_trainable_params_no_gradients() {
        use crate::pool::BufferPool;
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(vec![3.0]));
        let mut pool = BufferPool::new();
        {
            let mut g = Graph::inference(&mut store, &mut pool);
            let wv = g.param(w);
            let y = g.relu(wv);
            assert_eq!(g.value(y).data(), &[3.0]);
            g.finish();
        }
        assert_eq!(store.grad(w).data(), &[0.0]);
    }

    #[test]
    fn multi_layer_chain_backprop_runs() {
        // A tiny MLP: relu(x @ W1 + b1) @ W2, cross-entropy; just checks that
        // gradients are finite and nonzero end to end.
        let mut rng = Prng::new(3);
        let mut store = ParamStore::new();
        let w1 = store.add("w1", Tensor::randn(&[4, 8], 0.5, &mut rng));
        let b1 = store.add("b1", Tensor::zeros(&[8]));
        let w2 = store.add("w2", Tensor::randn(&[8, 2], 0.5, &mut rng));
        let mut g = Graph::new(&mut store, true, 1);
        let x = g.constant(Tensor::randn(&[6, 4], 1.0, &mut rng));
        let w1v = g.param(w1);
        let b1v = g.param(b1);
        let w2v = g.param(w2);
        let h = g.matmul(x, w1v);
        let h = g.add_bias(h, b1v);
        let h = g.relu(h);
        let logits = g.matmul(h, w2v);
        let loss = g.cross_entropy_logits(logits, &[0, 1, 0, 1, 0, 1]);
        g.backward(loss);
        assert!(store.grad(w1).norm() > 0.0);
        assert!(store.grad(w2).norm() > 0.0);
        assert!(!store.grad(w1).has_non_finite());
    }
}
