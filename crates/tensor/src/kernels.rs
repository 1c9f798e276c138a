//! Cache-blocked, parallel compute kernels.
//!
//! This module is the compute layer behind [`crate::Tensor`] and
//! [`crate::Graph`]: one register-blocked GEMM behind every matrix product
//! (plain, `A·Bᵀ`, `Aᵀ·B`, and 1-D convolution, which reads its windows
//! straight from the input), im2row (the materialised window matrix the
//! parity battery checks those windows against), branch-free
//! max-over-time pooling with a `u32` arg-max, tiled transpose, elementwise
//! maps, row-wise softmax and embedding gather. All kernels share two
//! contracts:
//!
//! * **Accumulation order is fixed.** Every output element is produced by a
//!   single accumulator that walks the contraction dimension in ascending
//!   order, starting from the value already in the output buffer. The
//!   blocked GEMM is therefore *bit-identical* to the naive i-k-j reference
//!   ([`gemm_reference`]) for any tiling, and — because parallelism only
//!   partitions output rows across threads — bit-identical at any thread
//!   count. The property battery in `crates/tensor/tests/gemm_parity.rs`
//!   holds the kernels to this.
//! * **No hidden allocation.** Kernels that need scratch (the packed RHS
//!   panel of the GEMMs, the im2row buffer) take a caller-provided `Vec`
//!   that the serving path recycles through a [`crate::BufferPool`].
//!
//! The GEMM tiling: the RHS is read in row-panels of [`NR`] columns — packed
//! once (`panel[p * NR + c] = b[p][j0 + c]`) or read in place — and the
//! micro-kernel computes a block of outputs in registers. The LHS is never
//! copied: each block reads its rows where they lie, whether they are rows
//! of a row-major matrix, convolution windows of a `[b, s, d]` input (each
//! window is `k·d` contiguous values), or columns of a row-major matrix
//! (the `Aᵀ` of `Aᵀ·B`).
//!
//! On x86-64 the GEMM has three instruction-set tiers, picked once at
//! runtime via `is_x86_feature_detected!`: baseline SSE2 and AVX2 compile
//! the same portable `4 × 16` block, and AVX-512 runs a `12 × 32` block (24
//! accumulator registers) written with explicit `std::arch` multiplies and
//! adds. No tier fuses a multiply-add (Rust never contracts `a * b + c`
//! into an FMA, and the explicit tier issues a separate `mul` and `add`),
//! so all tiers execute the identical rounding sequence and the
//! bit-exactness contract holds across ISAs as well as thread counts. The
//! max-over-time kernel is dispatched between baseline and AVX2 the same
//! way; it only compares and selects, so every tier picks the same values
//! and indices.

use crate::par::{self, SendMutPtr};
use std::ops::Range;

/// Rows of the portable register-blocked GEMM block (baseline and AVX2
/// tiers; the AVX-512 tier runs taller blocks).
pub const MR: usize = 4;
/// Columns of one RHS panel (the packed panel width and the lane count of
/// one AVX-512 vector).
pub const NR: usize = 16;

/// Minimum FLOP count (2·m·k·n) before a GEMM fans out to the pool.
const PAR_MIN_FLOPS: usize = 128 * 1024;
/// Minimum elements per chunk for elementwise / copy kernels.
const PAR_MIN_ELEMS: usize = 8192;
/// Rows of the AVX-512 tier's full block, the tallest of any tier: 12 rows
/// × two panels hold 24 accumulators, which with two RHS vectors and one
/// broadcast use 27 of the 32 vector registers.
const MR_AVX512: usize = 12;
/// Minimum output rows per GEMM thread: one full block of the tallest tier.
const PAR_MIN_ROWS: usize = MR_AVX512;

/// Scratch length needed to pack a `k × n` RHS (or its transpose).
pub fn packed_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * k * NR
}

/// Reference GEMM: `out += A·B` with the plain i-k-j loop. This is the
/// arithmetic the blocked kernels are bit-compared against.
pub fn gemm_reference(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (p, &av) in a_row.iter().enumerate() {
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// The pre-overhaul kernel, kept verbatim as the benchmark baseline: the
/// `a == 0.0` "sparsity" check costs a mispredicted branch per element on
/// dense data and blocks the compiler from keeping the output row in
/// registers across `p` iterations.
pub fn gemm_naive_branchy(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// Pack `B` (`k × n`, row-major) into NR-column row-panels.
fn pack_b(k: usize, n: usize, b: &[f32], packed: &mut [f32], threads: usize) {
    let panels = n.div_ceil(NR);
    let min_panels = (PAR_MIN_ELEMS / (k * NR).max(1)).max(1);
    let ptr = SendMutPtr(packed.as_mut_ptr());
    par::for_each_chunk(panels, min_panels, threads, &|range: Range<usize>| {
        let dst = unsafe { ptr.slice_mut(range.start * k * NR..range.end * k * NR) };
        for (pi, jb) in range.enumerate() {
            let j0 = jb * NR;
            let jw = NR.min(n - j0);
            let panel = &mut dst[pi * k * NR..(pi + 1) * k * NR];
            for p in 0..k {
                let row = &b[p * n + j0..p * n + j0 + jw];
                let lane = &mut panel[p * NR..p * NR + NR];
                lane[..jw].copy_from_slice(row);
                lane[jw..].fill(0.0);
            }
        }
    });
}

/// Pack `Bᵀ` where `B` is `n × k` row-major (so the packed logical matrix is
/// `k × n`): `panel[p * NR + c] = b[(j0 + c) * k + p]`.
fn pack_bt(k: usize, n: usize, b: &[f32], packed: &mut [f32], threads: usize) {
    let panels = n.div_ceil(NR);
    let min_panels = (PAR_MIN_ELEMS / (k * NR).max(1)).max(1);
    let ptr = SendMutPtr(packed.as_mut_ptr());
    par::for_each_chunk(panels, min_panels, threads, &|range: Range<usize>| {
        let dst = unsafe { ptr.slice_mut(range.start * k * NR..range.end * k * NR) };
        for (pi, jb) in range.enumerate() {
            let j0 = jb * NR;
            let jw = NR.min(n - j0);
            let panel = &mut dst[pi * k * NR..(pi + 1) * k * NR];
            for c in 0..NR {
                if c < jw {
                    let col = &b[(j0 + c) * k..(j0 + c) * k + k];
                    for p in 0..k {
                        panel[p * NR + c] = col[p];
                    }
                } else {
                    for p in 0..k {
                        panel[p * NR + c] = 0.0;
                    }
                }
            }
        }
    });
}

/// Where the GEMM reads its LHS (`m × k`) from. Every case hands the kernel
/// the values of the row-major matrix it stands for, in the same order; it
/// only changes where they lie, so no case needs a copy.
///
/// The AVX-512 tier reads through raw pointers, so [`run_blocked`] asserts
/// that the last row's last element lies inside the slice; rows start at
/// increasing offsets, so that covers every row.
#[derive(Clone, Copy)]
enum ASource<'a> {
    /// A row-major `m × k` matrix: row `i` is `a[i·k..(i+1)·k]`.
    Rows { a: &'a [f32], k: usize },
    /// The convolution windows of a `[b, s, d]` input for a kernel of width
    /// `s - out_s + 1` (so `k` is that width times `d`): row `i·out_s + t`
    /// is `x[(i·s + t)·d..][..k]`, contiguous in the row-major input.
    Windows {
        x: &'a [f32],
        s: usize,
        out_s: usize,
        d: usize,
    },
    /// The columns of a row-major `k × m` matrix (the `Aᵀ` of `Aᵀ·B`): row
    /// `i` is column `i`, its elements `m` apart.
    Cols { a: &'a [f32], m: usize },
}

impl ASource<'_> {
    fn data(&self) -> &[f32] {
        match *self {
            ASource::Rows { a, .. } | ASource::Cols { a, .. } => a,
            ASource::Windows { x, .. } => x,
        }
    }

    /// Offset of row `row`'s first element.
    #[inline(always)]
    fn row_start(&self, row: usize) -> usize {
        match *self {
            ASource::Rows { k, .. } => row * k,
            ASource::Windows { s, out_s, d, .. } => ((row / out_s) * s + row % out_s) * d,
            ASource::Cols { .. } => row,
        }
    }

    /// Distance between successive contraction elements of one row.
    #[inline(always)]
    fn step(&self) -> usize {
        match *self {
            ASource::Rows { .. } | ASource::Windows { .. } => 1,
            ASource::Cols { m, .. } => m,
        }
    }

    /// Offsets of rows `row0..row0 + R`, advanced to contraction element
    /// `p0`. Rows past `last` repeat `last`, so an edge block holds only
    /// valid offsets.
    #[inline(always)]
    fn block_offsets<const R: usize>(&self, row0: usize, last: usize, p0: usize) -> [usize; R] {
        let step = self.step();
        std::array::from_fn(|r| self.row_start((row0 + r).min(last)) + p0 * step)
    }
}

/// Where the micro-kernel reads its RHS panels from: a packed buffer
/// (lane stride [`NR`]) or the original row-major `B` (lane stride `n`).
/// Both hand the kernel identical values in identical order; packing only
/// changes memory locality, direct access skips the pack cost — the right
/// choice for small-`m` products where packing is a large fraction of the
/// work.
enum BSource<'a> {
    Packed(&'a [f32]),
    Direct(&'a [f32]),
}

impl BSource<'_> {
    /// Panel view starting at panel `jb`: `(slice, bstride, pstep)` such
    /// that lane `c` of panel `jb + j` at contraction row `p` lives at
    /// `slice[p * bstride + j * pstep + c]`.
    #[inline(always)]
    fn panel(&self, k: usize, n: usize, jb: usize, j0: usize) -> (&[f32], usize, usize) {
        match self {
            BSource::Packed(packed) => (&packed[jb * k * NR..], NR, k * NR),
            BSource::Direct(b) => (&b[j0..], n, NR),
        }
    }
}

/// `MR × NR` register-blocked block over one `kc`-length contraction
/// slice: accumulators load from `out`, walk the slice in ascending order,
/// and store back once. Row `r` of the block reads its LHS values at
/// `a[a_offs[r] + p * a_step]`; those reads skip the bounds check, which
/// measured 1.7× on the AVX2 tier's convolution.
///
/// # Safety
/// `a_offs[r] + p * a_step` must be in bounds of `a` for every `r < MR`
/// and `p < kc`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_kernel(
    kc: usize,
    n: usize,
    a: &[f32],
    a_offs: &[usize; MR],
    a_step: usize,
    panel: &[f32],
    bstride: usize,
    out: &mut [f32],
    i0: usize,
    j0: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, acc_row) in acc.iter_mut().enumerate() {
        let off = (i0 + r) * n + j0;
        acc_row.copy_from_slice(&out[off..off + NR]);
    }
    for p in 0..kc {
        let b_lane = &panel[p * bstride..p * bstride + NR];
        for (acc_row, &off) in acc.iter_mut().zip(a_offs) {
            // SAFETY: in bounds by this function's contract.
            let av = unsafe { *a.get_unchecked(off + p * a_step) };
            for c in 0..NR {
                acc_row[c] += av * b_lane[c];
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        let off = (i0 + r) * n + j0;
        out[off..off + NR].copy_from_slice(acc_row);
    }
}

/// Edge block (`mr < MR` rows and/or `jw < NR` columns): scalar
/// accumulators with the same ascending-contraction order.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn edge_kernel(
    kc: usize,
    n: usize,
    a: &[f32],
    a_offs: &[usize; MR],
    a_step: usize,
    mr: usize,
    panel: &[f32],
    bstride: usize,
    out: &mut [f32],
    i0: usize,
    j0: usize,
    jw: usize,
) {
    for (r, &a_off) in a_offs.iter().enumerate().take(mr) {
        for c in 0..jw {
            let mut acc = out[(i0 + r) * n + j0 + c];
            for p in 0..kc {
                acc += a[a_off + p * a_step] * panel[p * bstride + c];
            }
            out[(i0 + r) * n + j0 + c] = acc;
        }
    }
}

/// The portable blocked kernel over a strip of output rows. `out_rows`
/// covers exactly `rows` (local row 0 = global row `rows.start`).
///
/// # Safety
/// Every row in `rows` must lie inside `a`'s slice (what [`run_blocked`]
/// asserts).
#[inline(always)]
unsafe fn macro_kernel_impl(
    k: usize,
    n: usize,
    a: &ASource<'_>,
    b: &BSource<'_>,
    rows: Range<usize>,
    out_rows: &mut [f32],
) {
    let m_local = rows.len();
    let data = a.data();
    let step = a.step();
    let panels = n.div_ceil(NR);
    // KC-blocking keeps one B panel slice in L1; between KC slices the
    // accumulators round-trip through `out`, which is exact, so the
    // contraction order per element is still plain ascending k.
    let mut p0 = 0usize;
    while p0 < k {
        let kc = KC.min(k - p0);
        let mut i = 0usize;
        while i < m_local {
            let mr = MR.min(m_local - i);
            let a_offs = a.block_offsets::<MR>(rows.start + i, rows.end - 1, p0);
            for jb in 0..panels {
                let j0 = jb * NR;
                let (panel, bstride, _) = b.panel(k, n, jb, j0);
                let panel = &panel[p0 * bstride..];
                let jw = NR.min(n - j0);
                if mr == MR && jw == NR {
                    // SAFETY: `a_offs` holds rows of `rows`, which lie
                    // inside `a` by this function's contract, advanced to
                    // `p0`, and `p0 + kc <= k`.
                    unsafe {
                        micro_kernel(kc, n, data, &a_offs, step, panel, bstride, out_rows, i, j0);
                    }
                } else {
                    edge_kernel(
                        kc, n, data, &a_offs, step, mr, panel, bstride, out_rows, i, j0, jw,
                    );
                }
            }
            i += mr;
        }
        p0 += kc;
    }
}

/// Contraction-dimension block length: keeps the B panel slices one block
/// reads (`KC × 2·NR` floats on the AVX-512 tier) in L1.
const KC: usize = 256;

/// The portable kernel compiled with AVX2 codegen (wider vectors, same
/// mul-then-add rounding sequence — see the module docs).
///
/// # Safety
/// The caller must have verified AVX2 support at runtime, and meet
/// [`macro_kernel_impl`]'s contract.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn macro_kernel_avx2(
    k: usize,
    n: usize,
    a: &ASource<'_>,
    b: &BSource<'_>,
    rows: Range<usize>,
    out_rows: &mut [f32],
) {
    macro_kernel_impl(k, n, a, b, rows, out_rows);
}

/// The AVX-512 tier: explicit 16-lane multiplies and adds over blocks of
/// [`MR_AVX512`] rows and two panels.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod avx512 {
    use super::{ASource, BSource, KC, MR_AVX512 as MR, NR};
    use std::ops::Range;

    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// Lane mask of a panel with `jw` valid columns.
    #[inline(always)]
    fn lane_mask(jw: usize) -> __mmask16 {
        if jw >= NR {
            !0
        } else {
            ((1u32 << jw) - 1) as __mmask16
        }
    }

    /// `R × (JP·NR)` block over one `kc`-length contraction slice. Each
    /// accumulator loads from `out`, adds `a·b` in ascending `p` with a
    /// separate multiply and add, and is stored back once. Lanes outside
    /// `last` (a mask over the last panel's columns) are neither read nor
    /// written.
    ///
    /// # Safety
    /// AVX-512F must be available. For every `r < R` and `p < kc`,
    /// `a + a_offs[r] + p·a_step` must be readable; for every `p < kc`,
    /// `j < JP` and unmasked lane `c`, `b + p·bstride + j·pstep + c` must
    /// be readable and `out + r·n + j·NR + c` readable and writable.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn block<const R: usize, const JP: usize>(
        kc: usize,
        a: *const f32,
        a_offs: &[usize; R],
        a_step: usize,
        b: *const f32,
        bstride: usize,
        pstep: usize,
        out: *mut f32,
        n: usize,
        last: __mmask16,
    ) {
        let mask = |j: usize| if j + 1 == JP { last } else { !0 };
        let mut acc = [[_mm512_setzero_ps(); JP]; R];
        for (r, acc_row) in acc.iter_mut().enumerate() {
            for (j, v) in acc_row.iter_mut().enumerate() {
                *v = _mm512_maskz_loadu_ps(mask(j), out.add(r * n + j * NR));
            }
        }
        let a_rows: [*const f32; R] = std::array::from_fn(|r| a.add(a_offs[r]));
        for p in 0..kc {
            let mut bv = [_mm512_setzero_ps(); JP];
            for (j, v) in bv.iter_mut().enumerate() {
                *v = _mm512_maskz_loadu_ps(mask(j), b.add(p * bstride + j * pstep));
            }
            for (acc_row, a_row) in acc.iter_mut().zip(&a_rows) {
                let av = _mm512_set1_ps(*a_row.add(p * a_step));
                for (v, &bj) in acc_row.iter_mut().zip(&bv) {
                    *v = _mm512_add_ps(*v, _mm512_mul_ps(av, bj));
                }
            }
        }
        for (r, acc_row) in acc.iter().enumerate() {
            for (j, &v) in acc_row.iter().enumerate() {
                _mm512_mask_storeu_ps(out.add(r * n + j * NR), mask(j), v);
            }
        }
    }

    /// Every column of one `R`-row block over one contraction slice: pairs
    /// of full panels, then a lone full panel, then the masked edge panel.
    ///
    /// # Safety
    /// AVX-512F must be available, and rows `row0..row0 + R` of `a` must
    /// lie inside both `a` (checked by the caller) and `out_rows` at local
    /// row `i`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn row_block<const R: usize>(
        k: usize,
        n: usize,
        kc: usize,
        p0: usize,
        a: &ASource<'_>,
        row0: usize,
        b: &BSource<'_>,
        out_rows: &mut [f32],
        i: usize,
    ) {
        let a_offs = a.block_offsets::<R>(row0, row0 + R - 1, p0);
        let (data, step) = (a.data().as_ptr(), a.step());
        let panels = n.div_ceil(NR);
        let mut jb = 0usize;
        while jb < panels {
            let j0 = jb * NR;
            let (panel, bstride, pstep) = b.panel(k, n, jb, j0);
            let bp = panel.as_ptr().add(p0 * bstride);
            let op = out_rows.as_mut_ptr().add(i * n + j0);
            if j0 + 2 * NR <= n {
                block::<R, 2>(kc, data, &a_offs, step, bp, bstride, pstep, op, n, !0);
                jb += 2;
            } else {
                let last = lane_mask(n - j0);
                block::<R, 1>(kc, data, &a_offs, step, bp, bstride, pstep, op, n, last);
                jb += 1;
            }
        }
    }

    /// The blocked kernel over a strip of output rows: [`MR`]-row blocks,
    /// then 4-row and single-row blocks for the remainder.
    ///
    /// # Safety
    /// AVX-512F must be available, every row in `rows` must lie inside
    /// `a`'s slice, and `out_rows` must cover exactly `rows × n`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn macro_kernel(
        k: usize,
        n: usize,
        a: &ASource<'_>,
        b: &BSource<'_>,
        rows: Range<usize>,
        out_rows: &mut [f32],
    ) {
        let m_local = rows.len();
        let mut p0 = 0usize;
        while p0 < k {
            let kc = KC.min(k - p0);
            let mut i = 0usize;
            while i < m_local {
                let row0 = rows.start + i;
                let left = m_local - i;
                i += if left >= MR {
                    row_block::<MR>(k, n, kc, p0, a, row0, b, out_rows, i);
                    MR
                } else if left >= 4 {
                    row_block::<4>(k, n, kc, p0, a, row0, b, out_rows, i);
                    4
                } else {
                    row_block::<1>(k, n, kc, p0, a, row0, b, out_rows, i);
                    1
                };
            }
            p0 += kc;
        }
    }
}

/// `true` once AVX2 has been detected at runtime (std caches the CPUID
/// probe, so this is a load after the first call).
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[inline]
fn have_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// `true` once AVX-512F has been detected at runtime.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[inline]
fn have_avx512() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

/// An instruction-set tier of the blocked GEMM. Every tier produces the
/// same bits; the public kernels run [`Tier::detect`]'s pick, and the
/// parity battery runs every tier in [`Tier::available`].
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// The portable block with the target's baseline codegen.
    Baseline,
    /// The portable block with AVX2 codegen.
    Avx2,
    /// The explicit `12 × 32` AVX-512 block.
    Avx512,
}

impl Tier {
    /// The fastest tier this CPU supports.
    pub fn detect() -> Tier {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        {
            if have_avx512() {
                return Tier::Avx512;
            }
            if have_avx2() {
                return Tier::Avx2;
            }
        }
        Tier::Baseline
    }

    /// Every tier this CPU supports, slowest first.
    pub fn available() -> Vec<Tier> {
        let best = Tier::detect();
        [Tier::Baseline, Tier::Avx2, Tier::Avx512]
            .into_iter()
            .filter(|&t| t as u8 <= best as u8)
            .collect()
    }
}

fn macro_kernel(
    tier: Tier,
    k: usize,
    n: usize,
    a: &ASource<'_>,
    b: &BSource<'_>,
    rows: Range<usize>,
    out_rows: &mut [f32],
) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    match tier {
        // SAFETY: `Tier::detect` only names a tier whose features were
        // detected, `run_blocked` checked that every row lies inside `a`,
        // and `out_rows` covers exactly `rows × n`.
        Tier::Avx512 => return unsafe { avx512::macro_kernel(k, n, a, b, rows, out_rows) },
        // SAFETY: as above, AVX2 support was detected.
        Tier::Avx2 => return unsafe { macro_kernel_avx2(k, n, a, b, rows, out_rows) },
        Tier::Baseline => {}
    }
    // SAFETY: `run_blocked` checked that every row lies inside `a`.
    unsafe { macro_kernel_impl(k, n, a, b, rows, out_rows) }
}

#[allow(clippy::too_many_arguments)]
fn run_blocked(
    tier: Tier,
    m: usize,
    k: usize,
    n: usize,
    a: &ASource<'_>,
    b: &BSource<'_>,
    out: &mut [f32],
    threads: usize,
) {
    assert!(
        tier as u8 <= Tier::detect() as u8,
        "gemm: tier {tier:?} is not supported by this CPU"
    );
    assert!(
        a.row_start(m - 1) + (k - 1) * a.step() < a.data().len(),
        "gemm: lhs rows overrun their buffer"
    );
    let threads = effective_threads(threads, 2 * m * k * n);
    let ptr = SendMutPtr(out.as_mut_ptr());
    par::for_each_chunk(m, PAR_MIN_ROWS, threads, &|rows: Range<usize>| {
        let out_rows = unsafe { ptr.slice_mut(rows.start * n..rows.end * n) };
        macro_kernel(tier, k, n, a, b, rows, out_rows);
    });
}

/// Packing `B` costs one extra pass over its `k·n` values; it pays off once
/// the panels are re-read by enough output rows. Below this many rows the
/// kernel reads `B` directly instead.
const PACK_MIN_ROWS: usize = 128;

/// Whether [`gemm_into`] will pack its RHS (and therefore touch the scratch
/// buffer) for an `m`-row product. Callers that recycle scratch through a
/// pool can skip requesting a buffer when this is `false`.
pub fn gemm_packs(m: usize) -> bool {
    m >= PACK_MIN_ROWS
}

/// Clamp a thread request to what can actually help: never more threads
/// than hardware cores (oversubscribing a compute-bound kernel only adds
/// handshake latency), and only one when the job is too small to amortise
/// the pool wake-up. A single-thread request returns before anything else
/// is looked at; a larger one is capped at the core count that
/// [`par::max_threads`] read once per process, so no GEMM asks the OS.
/// Results are unaffected either way.
fn effective_threads(threads: usize, flops: usize) -> usize {
    if threads <= 1 || flops < PAR_MIN_FLOPS {
        return 1;
    }
    threads.min(par::max_threads()).max(1)
}

/// Blocked parallel GEMM: `out += A·B` with `A: m × k`, `B: k × n`.
/// Bit-identical to [`gemm_reference`] at any thread count. `scratch` holds
/// the packed RHS ([`packed_len`]`(k, n)` values) and is resized as needed —
/// pass a recycled buffer to keep the hot path allocation-free.
///
/// # Panics
/// Panics if a slice length disagrees with the given dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm_into(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    threads: usize,
    scratch: &mut Vec<f32>,
) {
    assert_eq!(a.len(), m * k, "gemm: lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm: rhs length mismatch");
    assert_eq!(out.len(), m * n, "gemm: output length mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let a = ASource::Rows { a, k };
    let tier = Tier::detect();
    if !gemm_packs(m) {
        run_blocked(tier, m, k, n, &a, &BSource::Direct(b), out, threads);
        return;
    }
    ensure_len(scratch, packed_len(k, n));
    pack_b(k, n, b, scratch, threads);
    run_blocked(tier, m, k, n, &a, &BSource::Packed(scratch), out, threads);
}

/// Grow `scratch` to at least `n` values without zero-filling what a pack
/// is about to overwrite anyway (the packs write every slot, padding
/// included).
fn ensure_len(scratch: &mut Vec<f32>, n: usize) {
    if scratch.len() < n {
        scratch.resize(n, 0.0);
    }
}

/// Blocked parallel `out += A·Bᵀ` with `A: m × k`, `B: n × k` — the fused
/// variant that spares `Linear` backward and attention-style scores a
/// materialised [`crate::Tensor::transpose2`] copy. Bit-identical to
/// `gemm_reference(m, k, n, a, transpose(b), out)` at any thread count.
#[allow(clippy::too_many_arguments)]
pub fn gemm_abt_into(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    threads: usize,
    scratch: &mut Vec<f32>,
) {
    assert_eq!(a.len(), m * k, "gemm_abt: lhs length mismatch");
    assert_eq!(b.len(), n * k, "gemm_abt: rhs length mismatch");
    assert_eq!(out.len(), m * n, "gemm_abt: output length mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    ensure_len(scratch, packed_len(k, n));
    pack_bt(k, n, b, scratch, threads);
    let a = ASource::Rows { a, k };
    run_blocked(
        Tier::detect(),
        m,
        k,
        n,
        &a,
        &BSource::Packed(scratch),
        out,
        threads,
    );
}

/// Blocked parallel `out += Aᵀ·B` with `A: r × m`, `B: r × n`, `out: m × n`:
/// the register-blocked GEMM reading `A`'s columns in place as its rows and
/// `B`'s rows in place as its panels, so neither operand is copied. Per
/// output element the contraction walks `r` in ascending order, so the
/// result is bit-identical to `gemm_reference(m, r, n, transpose(a), b,
/// out)` at any thread count.
pub fn gemm_atb_into(
    r: usize,
    m: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    threads: usize,
) {
    gemm_atb_into_on(Tier::detect(), r, m, n, a, b, out, threads);
}

/// [`gemm_atb_into`] on a chosen [`Tier`] (for the parity battery).
///
/// # Panics
/// Panics if a slice length disagrees with the given dimensions, or if
/// `tier` is not in [`Tier::available`].
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn gemm_atb_into_on(
    tier: Tier,
    r: usize,
    m: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    threads: usize,
) {
    assert_eq!(a.len(), r * m, "gemm_atb: lhs length mismatch");
    assert_eq!(b.len(), r * n, "gemm_atb: rhs length mismatch");
    assert_eq!(out.len(), m * n, "gemm_atb: output length mismatch");
    if m == 0 || n == 0 || r == 0 {
        return;
    }
    let a = ASource::Cols { a, m };
    run_blocked(tier, m, r, n, &a, &BSource::Direct(b), out, threads);
}

/// 1-D convolution over time as one blocked GEMM: `out += windows(x) · wᵀ`
/// for a `[b, s, d]` input `x`, kernel width `kw` and a `[oc, kw·d]`
/// weight, where `out` is `[b·(s-kw+1), oc]` and row `i·(s-kw+1) + t` of
/// `windows(x)` is the flattened window `x[i, t..t+kw, :]`. The kernel
/// reads each window in place (it is contiguous in the row-major input),
/// so no unfolded copy exists; the result is bit-identical to [`im2row`]
/// followed by [`gemm_abt_into`] at any thread count. `scratch` holds the
/// packed weight ([`packed_len`]`(kw·d, oc)` values).
///
/// # Panics
/// Panics if a slice length disagrees with the given dimensions or `kw` is
/// not in `1..=s`.
#[allow(clippy::too_many_arguments)]
pub fn conv1d_into(
    x: &[f32],
    b: usize,
    s: usize,
    d: usize,
    kw: usize,
    w: &[f32],
    oc: usize,
    out: &mut [f32],
    threads: usize,
    scratch: &mut Vec<f32>,
) {
    conv1d_into_on(Tier::detect(), x, b, s, d, kw, w, oc, out, threads, scratch);
}

/// [`conv1d_into`] on a chosen [`Tier`] (for the parity battery).
///
/// # Panics
/// As [`conv1d_into`], and if `tier` is not in [`Tier::available`].
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn conv1d_into_on(
    tier: Tier,
    x: &[f32],
    b: usize,
    s: usize,
    d: usize,
    kw: usize,
    w: &[f32],
    oc: usize,
    out: &mut [f32],
    threads: usize,
    scratch: &mut Vec<f32>,
) {
    assert_eq!(x.len(), b * s * d, "conv1d: input length mismatch");
    assert!(kw >= 1 && kw <= s, "conv1d: kernel width out of range");
    let (out_s, width) = (s - kw + 1, kw * d);
    let rows = b * out_s;
    assert_eq!(w.len(), oc * width, "conv1d: weight length mismatch");
    assert_eq!(out.len(), rows * oc, "conv1d: output length mismatch");
    if rows == 0 || oc == 0 || width == 0 {
        return;
    }
    ensure_len(scratch, packed_len(width, oc));
    pack_bt(width, oc, w, scratch, threads);
    let a = ASource::Windows { x, s, out_s, d };
    run_blocked(
        tier,
        rows,
        width,
        oc,
        &a,
        &BSource::Packed(scratch),
        out,
        threads,
    );
}

/// im2row for 1-D convolution over time: a `[b, s, d]` input and kernel
/// width `kw` become a `[b·(s-kw+1), kw·d]` row matrix, each row the
/// flattened window `x[i, t..t+kw, :]` (contiguous in the row-major input,
/// so every row is one memcpy). No model runs it: [`conv1d_into`] reads the
/// same windows in place. It stays as the reference `gemm_parity.rs` checks
/// the in-place windows against and for perfbench's
/// `tensor.kernels.im2row_us`.
pub fn im2row(x: &[f32], b: usize, s: usize, d: usize, kw: usize, out: &mut [f32], threads: usize) {
    assert_eq!(x.len(), b * s * d, "im2row: input length mismatch");
    assert!(kw >= 1 && kw <= s, "im2row: kernel width out of range");
    let out_s = s - kw + 1;
    let rows = b * out_s;
    let width = kw * d;
    assert_eq!(out.len(), rows * width, "im2row: output length mismatch");
    let min_rows = (PAR_MIN_ELEMS / width.max(1)).max(1);
    let ptr = SendMutPtr(out.as_mut_ptr());
    par::for_each_chunk(rows, min_rows, threads, &|range: Range<usize>| {
        let dst = unsafe { ptr.slice_mut(range.start * width..range.end * width) };
        for (ri, row) in range.enumerate() {
            let (i, t) = (row / out_s, row % out_s);
            let src = &x[i * s * d + t * d..i * s * d + t * d + width];
            dst[ri * width..(ri + 1) * width].copy_from_slice(src);
        }
    });
}

/// Max over the time dimension of a `[b, s, c]` input (TextCNN's max
/// pooling): `out[i, j]` becomes the largest `x[i, t, j]` over `t`, and,
/// when `argmax` is given, `argmax[i, j]` the first `t` that attains it.
/// Each row starts at `-∞` and takes a value only if it is strictly
/// greater, so ties keep the earliest `t`, `-0.0` does not replace `+0.0`
/// (nor the reverse), and NaN never wins — the semantics of the plain
/// `if v > max` loop, computed with selects instead of branches. On x86-64
/// the loop runs with AVX2 codegen when the CPU has it.
///
/// # Panics
/// Panics if a slice length disagrees with the given dimensions, or if `s`
/// does not fit the `u32` arg-max.
pub fn max_over_time_into(
    b: usize,
    s: usize,
    c: usize,
    x: &[f32],
    out: &mut [f32],
    argmax: Option<&mut [u32]>,
) {
    pool_over_time::<false>(b, s, c, x, out, argmax);
}

/// ReLU followed by [`max_over_time_into`], in one pass over `x`: each
/// `x[i, t, j]` is mapped to `v.max(0.0)` as it is read, so values and
/// arg-max are bit-identical to running the ReLU over the whole tensor
/// first (ties, signed zeros and all-nonpositive rows included) without
/// writing the activated tensor anywhere.
///
/// # Panics
/// As [`max_over_time_into`].
pub fn relu_max_over_time_into(
    b: usize,
    s: usize,
    c: usize,
    x: &[f32],
    out: &mut [f32],
    argmax: Option<&mut [u32]>,
) {
    pool_over_time::<true>(b, s, c, x, out, argmax);
}

/// Checks and ISA dispatch shared by the two max-over-time kernels.
fn pool_over_time<const RELU: bool>(
    b: usize,
    s: usize,
    c: usize,
    x: &[f32],
    out: &mut [f32],
    argmax: Option<&mut [u32]>,
) {
    assert!(s > 0, "max_over_time over empty time dimension");
    assert_eq!(x.len(), b * s * c, "max_over_time: input length mismatch");
    assert_eq!(out.len(), b * c, "max_over_time: output length mismatch");
    if let Some(am) = argmax.as_deref() {
        assert_eq!(am.len(), b * c, "max_over_time: arg-max length mismatch");
    }
    assert!(
        u32::try_from(s).is_ok(),
        "max_over_time: time dimension {s} overflows the u32 arg-max"
    );
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if have_avx2() {
        // SAFETY: AVX2 support was just detected.
        return unsafe { max_over_time_avx2::<RELU>(s, c, x, out, argmax) };
    }
    max_over_time_impl::<RELU>(s, c, x, out, argmax);
}

/// The select loop behind the max-over-time kernels (`RELU` maps each
/// value through `v.max(0.0)` first); lengths already checked.
#[inline(always)]
fn max_over_time_impl<const RELU: bool>(
    s: usize,
    c: usize,
    x: &[f32],
    out: &mut [f32],
    argmax: Option<&mut [u32]>,
) {
    if c == 0 {
        // Nothing to write, and `chunks_exact` rejects a zero width.
        return;
    }
    let act = |v: f32| if RELU { v.max(0.0) } else { v };
    let windows = x.chunks_exact(s * c).zip(out.chunks_exact_mut(c));
    match argmax {
        Some(argmax) => {
            for ((window, max_row), arg_row) in windows.zip(argmax.chunks_exact_mut(c)) {
                max_row.fill(f32::NEG_INFINITY);
                arg_row.fill(0);
                for (t, x_row) in (0u32..).zip(window.chunks_exact(c)) {
                    for ((m, a), &v) in max_row.iter_mut().zip(arg_row.iter_mut()).zip(x_row) {
                        let v = act(v);
                        let gt = v > *m;
                        *m = if gt { v } else { *m };
                        *a = if gt { t } else { *a };
                    }
                }
            }
        }
        None => {
            for (window, max_row) in windows {
                max_row.fill(f32::NEG_INFINITY);
                for x_row in window.chunks_exact(c) {
                    for (m, &v) in max_row.iter_mut().zip(x_row) {
                        let v = act(v);
                        *m = if v > *m { v } else { *m };
                    }
                }
            }
        }
    }
}

/// [`max_over_time_impl`] with AVX2 codegen (8-lane compares and blends;
/// the values selected are the same).
///
/// # Safety
/// The caller must have verified AVX2 support at runtime.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn max_over_time_avx2<const RELU: bool>(
    s: usize,
    c: usize,
    x: &[f32],
    out: &mut [f32],
    argmax: Option<&mut [u32]>,
) {
    max_over_time_impl::<RELU>(s, c, x, out, argmax);
}

/// Cache-blocked transpose of a `rows × cols` row-major matrix into `dst`
/// (`cols × rows`). Tiled in 32×32 blocks so both source reads and
/// destination writes stay within a few cache lines per tile.
pub fn transpose_into(rows: usize, cols: usize, src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), rows * cols, "transpose: source length mismatch");
    assert_eq!(
        dst.len(),
        rows * cols,
        "transpose: destination length mismatch"
    );
    const TILE: usize = 32;
    let mut i0 = 0usize;
    while i0 < rows {
        let i1 = (i0 + TILE).min(rows);
        let mut j0 = 0usize;
        while j0 < cols {
            let j1 = (j0 + TILE).min(cols);
            for i in i0..i1 {
                for j in j0..j1 {
                    dst[j * rows + i] = src[i * cols + j];
                }
            }
            j0 = j1;
        }
        i0 = i1;
    }
}

/// Pairwise squared Euclidean distances between the rows of a `b × d`
/// row-major matrix `x`: `out[i·b + j] = Σ_t (x[i, t] - x[j, t])²`, a
/// symmetric `b × b` matrix with a zero diagonal (every entry of `out` is
/// overwritten). `cols` is `b·d` scratch that receives `xᵀ`.
///
/// Row `i` of the upper triangle is built from the columns of `x`: for each
/// `t`, every `j > i` adds `(x[i, t] - x[j, t])²` to its own accumulator,
/// so each entry sums its terms from 0.0 in ascending `t` — the plain
/// per-pair loop's order and bits — while the `j` loop runs over contiguous
/// slices instead of one serial add chain per pair. The lower triangle is
/// mirrored from the upper.
///
/// # Panics
/// Panics if a slice length disagrees with the given dimensions.
pub fn pairwise_sq_dist_into(b: usize, d: usize, x: &[f32], cols: &mut [f32], out: &mut [f32]) {
    assert_eq!(out.len(), b * b, "pairwise_sq_dist: output length mismatch");
    transpose_into(b, d, x, cols);
    out.fill(0.0);
    for i in 0..b {
        let upper = &mut out[i * b + i + 1..(i + 1) * b];
        for col in cols.chunks_exact(b) {
            let xi = col[i];
            for (acc, &xj) in upper.iter_mut().zip(&col[i + 1..]) {
                let diff = xi - xj;
                *acc += diff * diff;
            }
        }
        for j in i + 1..b {
            out[j * b + i] = out[i * b + j];
        }
    }
}

/// Parallel elementwise map `dst[i] = f(src[i])`.
pub fn map_into(dst: &mut [f32], src: &[f32], threads: usize, f: &(impl Fn(f32) -> f32 + Sync)) {
    assert_eq!(dst.len(), src.len(), "map: length mismatch");
    let ptr = SendMutPtr(dst.as_mut_ptr());
    par::for_each_chunk(src.len(), PAR_MIN_ELEMS, threads, &|range: Range<usize>| {
        let out = unsafe { ptr.slice_mut(range.clone()) };
        for (o, &v) in out.iter_mut().zip(&src[range]) {
            *o = f(v);
        }
    });
}

/// Parallel elementwise zip `dst[i] = f(a[i], b[i])`.
pub fn zip_into(
    dst: &mut [f32],
    a: &[f32],
    b: &[f32],
    threads: usize,
    f: &(impl Fn(f32, f32) -> f32 + Sync),
) {
    assert_eq!(dst.len(), a.len(), "zip: length mismatch");
    assert_eq!(a.len(), b.len(), "zip: length mismatch");
    let ptr = SendMutPtr(dst.as_mut_ptr());
    par::for_each_chunk(a.len(), PAR_MIN_ELEMS, threads, &|range: Range<usize>| {
        let out = unsafe { ptr.slice_mut(range.clone()) };
        for ((o, &x), &y) in out.iter_mut().zip(&a[range.clone()]).zip(&b[range]) {
            *o = f(x, y);
        }
    });
}

/// Parallel row-wise softmax (numerically stabilised). Each row is one
/// task, so chunking never changes the per-row arithmetic.
pub fn softmax_rows_into(rows: usize, cols: usize, src: &[f32], dst: &mut [f32], threads: usize) {
    rowwise(rows, cols, src, dst, threads, |row, out| {
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut z = 0.0f32;
        for (o, &v) in out.iter_mut().zip(row.iter()) {
            let e = (v - m).exp();
            *o = e;
            z += e;
        }
        for o in out.iter_mut() {
            *o /= z;
        }
    });
}

/// Parallel row-wise log-softmax.
pub fn log_softmax_rows_into(
    rows: usize,
    cols: usize,
    src: &[f32],
    dst: &mut [f32],
    threads: usize,
) {
    rowwise(rows, cols, src, dst, threads, |row, out| {
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let logz = row.iter().map(|v| (v - m).exp()).sum::<f32>().ln() + m;
        for (o, &v) in out.iter_mut().zip(row.iter()) {
            *o = v - logz;
        }
    });
}

fn rowwise(
    rows: usize,
    cols: usize,
    src: &[f32],
    dst: &mut [f32],
    threads: usize,
    f: impl Fn(&[f32], &mut [f32]) + Sync,
) {
    assert_eq!(src.len(), rows * cols, "rowwise: source length mismatch");
    assert_eq!(
        dst.len(),
        rows * cols,
        "rowwise: destination length mismatch"
    );
    if cols == 0 {
        return;
    }
    let min_rows = (PAR_MIN_ELEMS / cols).max(1);
    let ptr = SendMutPtr(dst.as_mut_ptr());
    par::for_each_chunk(rows, min_rows, threads, &|range: Range<usize>| {
        let out = unsafe { ptr.slice_mut(range.start * cols..range.end * cols) };
        for (ri, r) in range.enumerate() {
            f(
                &src[r * cols..(r + 1) * cols],
                &mut out[ri * cols..(ri + 1) * cols],
            );
        }
    });
}

/// Parallel embedding gather: `dst` row `r` becomes table row `ids[r]`.
/// Every id must already be validated against the table's row count.
pub fn gather_rows(table: &[f32], emb: usize, ids: &[u32], dst: &mut [f32], threads: usize) {
    assert_eq!(dst.len(), ids.len() * emb, "gather: destination mismatch");
    let min_rows = (PAR_MIN_ELEMS / emb.max(1)).max(1);
    let ptr = SendMutPtr(dst.as_mut_ptr());
    par::for_each_chunk(ids.len(), min_rows, threads, &|range: Range<usize>| {
        let out = unsafe { ptr.slice_mut(range.start * emb..range.end * emb) };
        for (ri, r) in range.enumerate() {
            let id = ids[r] as usize;
            out[ri * emb..(ri + 1) * emb].copy_from_slice(&table[id * emb..(id + 1) * emb]);
        }
    });
}

/// Dot product with eight parallel accumulation lanes: faster than a single
/// serial chain (independent FMA chains) and lower worst-case float error
/// (each lane sums an eighth of the terms).
pub fn dot_chunked(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; 8];
    let n8 = a.len() - a.len() % 8;
    for (xa, xb) in a[..n8].chunks_exact(8).zip(b[..n8].chunks_exact(8)) {
        for c in 0..8 {
            lanes[c] += xa[c] * xb[c];
        }
    }
    let mut tail = 0.0f32;
    for (xa, xb) in a[n8..].iter().zip(&b[n8..]) {
        tail += xa * xb;
    }
    lanes.iter().sum::<f32>() + tail
}

/// Sum of squares with eight accumulation lanes (see [`dot_chunked`]).
pub fn sum_squares_chunked(a: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    let n8 = a.len() - a.len() % 8;
    for xa in a[..n8].chunks_exact(8) {
        for c in 0..8 {
            lanes[c] += xa[c] * xa[c];
        }
    }
    let mut tail = 0.0f32;
    for xa in &a[n8..] {
        tail += xa * xa;
    }
    lanes.iter().sum::<f32>() + tail
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Prng;

    fn randn(n: usize, rng: &mut Prng) -> Vec<f32> {
        (0..n).map(|_| rng.normal_with(0.0, 1.0)).collect()
    }

    #[test]
    fn blocked_gemm_matches_reference_bits_on_mixed_shapes() {
        let mut rng = Prng::new(11);
        for &(m, k, n) in &[(1, 1, 1), (4, 8, 8), (5, 9, 17), (13, 31, 7), (64, 33, 40)] {
            let a = randn(m * k, &mut rng);
            let b = randn(k * n, &mut rng);
            let mut want = vec![0.0f32; m * n];
            gemm_reference(m, k, n, &a, &b, &mut want);
            for threads in [1usize, 2, 5] {
                let mut got = vec![0.0f32; m * n];
                let mut scratch = Vec::new();
                gemm_into(m, k, n, &a, &b, &mut got, threads, &mut scratch);
                assert!(
                    want.iter()
                        .zip(&got)
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "({m},{k},{n}) threads={threads}"
                );
            }
        }
    }

    #[test]
    fn row_major_operands_match_the_reference_on_every_tier() {
        let mut rng = Prng::new(18);
        for &(m, k, n) in &[(1, 1, 1), (13, 31, 7), (25, 300, 33), (130, 40, 64)] {
            let a = randn(m * k, &mut rng);
            let b = randn(k * n, &mut rng);
            let seed = randn(m * n, &mut rng);
            let mut want = seed.clone();
            gemm_reference(m, k, n, &a, &b, &mut want);
            let mut packed = vec![0.0f32; packed_len(k, n)];
            pack_b(k, n, &b, &mut packed, 1);
            let a = ASource::Rows { a: &a, k };
            for tier in Tier::available() {
                for b in [BSource::Direct(&b), BSource::Packed(&packed)] {
                    for threads in [1usize, 3] {
                        let mut got = seed.clone();
                        run_blocked(tier, m, k, n, &a, &b, &mut got, threads);
                        assert!(
                            want.iter()
                                .zip(&got)
                                .all(|(x, y)| x.to_bits() == y.to_bits()),
                            "({m},{k},{n}) {tier:?} threads={threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_accumulates_into_existing_output() {
        let mut rng = Prng::new(12);
        let (m, k, n) = (6, 10, 9);
        let a = randn(m * k, &mut rng);
        let b = randn(k * n, &mut rng);
        let seed = randn(m * n, &mut rng);
        let mut want = seed.clone();
        gemm_reference(m, k, n, &a, &b, &mut want);
        let mut got = seed;
        gemm_into(m, k, n, &a, &b, &mut got, 3, &mut Vec::new());
        assert!(want
            .iter()
            .zip(&got)
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn abt_and_atb_match_explicit_transposes() {
        let mut rng = Prng::new(13);
        let (m, k, n) = (7, 12, 5);
        let a = randn(m * k, &mut rng);
        let b_nk = randn(n * k, &mut rng); // B for A·Bᵀ
        let mut bt = vec![0.0f32; n * k];
        transpose_into(n, k, &b_nk, &mut bt); // k × n
        let mut want = vec![0.0f32; m * n];
        gemm_reference(m, k, n, &a, &bt, &mut want);
        let mut got = vec![0.0f32; m * n];
        gemm_abt_into(m, k, n, &a, &b_nk, &mut got, 2, &mut Vec::new());
        assert!(want
            .iter()
            .zip(&got)
            .all(|(x, y)| x.to_bits() == y.to_bits()));

        let (r, m2, n2) = (9, 6, 8);
        let a_rm = randn(r * m2, &mut rng);
        let b_rn = randn(r * n2, &mut rng);
        let mut at = vec![0.0f32; r * m2];
        transpose_into(r, m2, &a_rm, &mut at); // m2 × r
        let mut want2 = vec![0.0f32; m2 * n2];
        gemm_reference(m2, r, n2, &at, &b_rn, &mut want2);
        let mut got2 = vec![0.0f32; m2 * n2];
        gemm_atb_into(r, m2, n2, &a_rm, &b_rn, &mut got2, 2);
        assert!(want2
            .iter()
            .zip(&got2)
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn zero_inner_dimension_leaves_output_untouched() {
        let mut out = vec![3.0f32; 6];
        gemm_into(2, 0, 3, &[], &[], &mut out, 4, &mut Vec::new());
        assert_eq!(out, vec![3.0; 6]);
    }

    #[test]
    fn im2row_flattens_windows() {
        // b=1, s=4, d=2, kw=2: rows are [x0 x1], [x1 x2], [x2 x3].
        let x: Vec<f32> = (0..8).map(|v| v as f32).collect();
        let mut rows = vec![0.0f32; 3 * 4];
        im2row(&x, 1, 4, 2, 2, &mut rows, 1);
        assert_eq!(
            rows,
            vec![0.0, 1.0, 2.0, 3.0, 2.0, 3.0, 4.0, 5.0, 4.0, 5.0, 6.0, 7.0]
        );
    }

    /// The plain branchy loop the max-over-time graph op ran before the
    /// branch-free kernel, kept as the reference it must reproduce.
    fn max_over_time_reference(
        b: usize,
        s: usize,
        c: usize,
        x: &[f32],
        out: &mut [f32],
        argmax: &mut [usize],
    ) {
        out.fill(f32::NEG_INFINITY);
        argmax.fill(0);
        for i in 0..b {
            for t in 0..s {
                let off = i * s * c + t * c;
                for j in 0..c {
                    let v = x[off + j];
                    if v > out[i * c + j] {
                        out[i * c + j] = v;
                        argmax[i * c + j] = t;
                    }
                }
            }
        }
    }

    type Kernel = fn(usize, usize, usize, &[f32], &mut [f32], Option<&mut [u32]>);

    /// Hold `kernels`, run over `x`, to the reference loop's values (bit for
    /// bit) and arg-max over `pooled`, with and without an arg-max.
    fn assert_pooling_matches_reference(
        (b, s, c): (usize, usize, usize),
        x: &[f32],
        pooled: &[f32],
        kernels: [(&str, Kernel); 2],
    ) {
        let mut want = vec![0.0f32; b * c];
        let mut want_arg = vec![0usize; b * c];
        max_over_time_reference(b, s, c, pooled, &mut want, &mut want_arg);
        let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        let want_arg: Vec<u32> = want_arg.iter().map(|&t| t as u32).collect();
        for (name, kernel) in kernels {
            // Stale contents must not leak into the result.
            let mut got = vec![7.0f32; b * c];
            let mut got_arg = vec![99u32; b * c];
            kernel(b, s, c, x, &mut got, Some(&mut got_arg));
            let got_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got_bits, want_bits, "{name} values ({b},{s},{c})");
            assert_eq!(got_arg, want_arg, "{name} arg-max ({b},{s},{c})");
            let mut got = vec![7.0f32; b * c];
            kernel(b, s, c, x, &mut got, None);
            let got_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                got_bits, want_bits,
                "{name} values, no arg-max ({b},{s},{c})"
            );
        }
    }

    /// The dispatched kernel and the baseline `_impl` against the reference
    /// loop; their ReLU forms against the reference run over `x` mapped
    /// through the same `v.max(0.0)` the graph's ReLU op applies.
    fn assert_max_over_time_matches_reference(b: usize, s: usize, c: usize, x: &[f32]) {
        let plain: [(&str, Kernel); 2] = [
            ("dispatched", max_over_time_into),
            ("baseline", |_, s, c, x, out, argmax| {
                max_over_time_impl::<false>(s, c, x, out, argmax);
            }),
        ];
        assert_pooling_matches_reference((b, s, c), x, x, plain);
        let mut activated = vec![0.0f32; x.len()];
        map_into(&mut activated, x, 1, &|v| v.max(0.0));
        let relu: [(&str, Kernel); 2] = [
            ("relu dispatched", relu_max_over_time_into),
            ("relu baseline", |_, s, c, x, out, argmax| {
                max_over_time_impl::<true>(s, c, x, out, argmax);
            }),
        ];
        assert_pooling_matches_reference((b, s, c), x, &activated, relu);
    }

    #[test]
    fn max_over_time_matches_the_branchy_loop() {
        let mut rng = Prng::new(17);
        let shapes = [
            (1, 1, 1),
            (2, 3, 7),
            (3, 5, 9),
            (4, 24, 32),
            (5, 24, 33),
            (2, 11, 17),
            (64, 22, 32),
        ];
        for &(b, s, c) in &shapes {
            let x = randn(b * s * c, &mut rng);
            assert_max_over_time_matches_reference(b, s, c, &x);
            // Few distinct levels: ties everywhere, the first `t` must win.
            let ties: Vec<f32> = x.iter().map(|v| (v * 1.5).round()).collect();
            assert_max_over_time_matches_reference(b, s, c, &ties);
            // Signed zeros only: `-0.0 > +0.0` and `+0.0 > -0.0` are both
            // false, so whichever zero comes first stays.
            let zeros: Vec<f32> = x
                .iter()
                .map(|&v| if v < 0.0 { -0.0 } else { 0.0 })
                .collect();
            assert_max_over_time_matches_reference(b, s, c, &zeros);
            // Every row negative, including rows of a single repeated value.
            let negative: Vec<f32> = x.iter().map(|v| -v.abs() - 1.0).collect();
            assert_max_over_time_matches_reference(b, s, c, &negative);
            let flat = vec![-3.25f32; b * s * c];
            assert_max_over_time_matches_reference(b, s, c, &flat);
        }
    }

    #[test]
    fn transpose_round_trips() {
        let mut rng = Prng::new(14);
        for &(r, c) in &[(1, 1), (3, 5), (33, 31), (64, 40)] {
            let src = randn(r * c, &mut rng);
            let mut t = vec![0.0f32; r * c];
            transpose_into(r, c, &src, &mut t);
            let mut back = vec![0.0f32; r * c];
            transpose_into(c, r, &t, &mut back);
            assert_eq!(src, back, "({r},{c})");
        }
    }

    #[test]
    fn chunked_dot_matches_exact_sum_closely() {
        let mut rng = Prng::new(15);
        let a = randn(1003, &mut rng);
        let b = randn(1003, &mut rng);
        let exact: f64 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| f64::from(x) * f64::from(y))
            .sum();
        let got = dot_chunked(&a, &b);
        assert!((f64::from(got) - exact).abs() < 1e-3, "{got} vs {exact}");
        let ss = sum_squares_chunked(&a);
        let exact_ss: f64 = a.iter().map(|&x| f64::from(x) * f64::from(x)).sum();
        assert!((f64::from(ss) - exact_ss).abs() < 1e-2);
    }

    #[test]
    fn parallel_elementwise_and_softmax_match_serial_bits() {
        let mut rng = Prng::new(16);
        let src = randn(40_000, &mut rng);
        let mut serial = vec![0.0f32; src.len()];
        map_into(&mut serial, &src, 1, &|v| v.tanh());
        let mut parallel = vec![0.0f32; src.len()];
        map_into(&mut parallel, &src, 8, &|v| v.tanh());
        assert_eq!(serial, parallel);

        let (rows, cols) = (500, 80);
        let mut s1 = vec![0.0f32; rows * cols];
        let mut s8 = vec![0.0f32; rows * cols];
        softmax_rows_into(rows, cols, &src, &mut s1, 1);
        softmax_rows_into(rows, cols, &src, &mut s8, 8);
        assert_eq!(s1, s8);
    }
}
