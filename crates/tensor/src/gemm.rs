//! Dense matrix multiplication.
//!
//! The accurate (exact-arithmetic) GEMM used for all full-precision forward
//! passes and — per the straight-through estimator of the paper's eq. (5) —
//! for the *backward* pass of approximate layers. The approximate forward
//! GEMM lives in `axnn-proxsim`.
//!
//! # Kernels, parallelism, determinism
//!
//! All three products run register-blocked micro-kernels (`MR×NR`
//! output tiles held in registers across the whole `k` loop) and are
//! row-parallel: `axnn-par` partitions the rows of `C` into contiguous
//! blocks, so each output element is written by exactly one thread.
//!
//! Every kernel accumulates each output element in **ascending `k` order
//! from a `+0.0` start** — the same floating-point fold as the scalar
//! reference kernels in [`reference`](mod@reference). Blocking only changes *which* element
//! is computed when, never the per-element operation sequence, so results
//! are bit-identical to the reference and to themselves under any
//! `AXNN_THREADS` setting.
//!
//! On x86-64 machines with AVX2 the same kernel bodies are additionally
//! compiled with `#[target_feature(enable = "avx2")]` and selected at
//! runtime. This only widens the vector registers the compiler may use
//! (Rust never contracts `a * b + c` into an FMA, and the `fma` feature is
//! deliberately left off), so the per-element operation sequence — and
//! therefore the bit pattern of every result — is unchanged.

use crate::Tensor;

/// Micro-tile rows held in registers on the portable (SSE2) path.
const MR: usize = 2;
/// Micro-tile rows on the AVX2 path: twice the f32 lanes per register
/// allow twice the rows before the accumulator tile spills.
const MR_WIDE: usize = 4;
/// Micro-tile columns held in registers (f32 lanes per block).
const NR: usize = 16;
/// Micro-tile columns of the `A·B` kernel on the AVX2 path (empirically the
/// wider B stripe beats a taller tile there; the `Aᵀ·B` kernel prefers
/// [`NR`] even with AVX2).
const NR_WIDE: usize = 32;

/// Runtime CPU-feature gate for the wide kernels.
#[cfg(target_arch = "x86_64")]
fn has_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn has_avx2() -> bool {
    false
}

/// Tile height used for row partitioning — a machine property, so chunking
/// (and thus determinism for any thread count) is stable within a host.
fn tile_rows() -> usize {
    if has_avx2() {
        MR_WIDE
    } else {
        MR
    }
}

/// Computes `C = A · B` for row-major 2-D tensors.
///
/// # Panics
///
/// Panics if either input is not 2-D or the inner dimensions disagree.
///
/// # Example
///
/// ```
/// use axnn_tensor::{gemm, Tensor};
///
/// # fn main() -> Result<(), axnn_tensor::ShapeError> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2])?;
/// let c = gemm::matmul(&a, &b);
/// assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().len(), 2, "matmul lhs must be 2-D");
    assert_eq!(b.shape().len(), 2, "matmul rhs must be 2-D");
    let mut c = Tensor::zeros(&[a.shape()[0], b.shape()[1]]);
    matmul_bias_act_into(a, b, None, Epilogue::Identity, c.as_mut_slice());
    c
}

/// Routes one row block to the widest kernel the CPU supports.
fn dispatch_nn(av: &[f32], bv: &[f32], c_block: &mut [f32], i0: usize, k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: guarded by the runtime AVX2 check above.
        unsafe { kernel_nn_avx2(av, bv, c_block, i0, k, n) };
        return;
    }
    kernel_nn::<MR, NR>(av, bv, c_block, i0, k, n);
}

/// The scalar body of [`kernel_nn`] recompiled with AVX2 enabled — same
/// operation sequence, wider registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn kernel_nn_avx2(
    av: &[f32],
    bv: &[f32],
    c_block: &mut [f32],
    i0: usize,
    k: usize,
    n: usize,
) {
    kernel_nn::<MR_WIDE, NR_WIDE>(av, bv, c_block, i0, k, n);
}

/// `C = A · B` micro-kernel over one block of `rows ≤ TILE_ROWS` output
/// rows starting at row `i0`. `A` element: `av[(i0 + r) * k + kk]`.
#[inline(always)]
fn kernel_nn<const TILE_ROWS: usize, const TILE_COLS: usize>(
    av: &[f32],
    bv: &[f32],
    c_block: &mut [f32],
    i0: usize,
    k: usize,
    n: usize,
) {
    let rows = c_block.len() / n;
    let mut j0 = 0;
    while j0 < n {
        let jw = TILE_COLS.min(n - j0);
        if rows == TILE_ROWS && jw == TILE_COLS {
            // Full tile: TILE_ROWS×TILE_COLS accumulators live in registers
            // for the whole k loop; one contiguous TILE_COLS-wide load of B
            // per (k, tile).
            let mut acc = [[0.0f32; TILE_COLS]; TILE_ROWS];
            for kk in 0..k {
                let b_seg = &bv[kk * n + j0..kk * n + j0 + TILE_COLS];
                for r in 0..TILE_ROWS {
                    let a_val = av[(i0 + r) * k + kk];
                    for (dst, &bj) in acc[r].iter_mut().zip(b_seg) {
                        *dst += a_val * bj;
                    }
                }
            }
            for (r, acc_row) in acc.iter().enumerate() {
                c_block[r * n + j0..r * n + j0 + TILE_COLS].copy_from_slice(acc_row);
            }
        } else {
            // Edge tile: same ascending-k fold, scalar.
            for r in 0..rows {
                let a_row = &av[(i0 + r) * k..(i0 + r + 1) * k];
                for j in j0..j0 + jw {
                    let mut acc = 0.0f32;
                    for (kk, &a_val) in a_row.iter().enumerate() {
                        acc += a_val * bv[kk * n + j];
                    }
                    c_block[r * n + j] = acc;
                }
            }
        }
        j0 += jw;
    }
}

/// Per-element epilogue of [`matmul_bias_act`]: an optional per-row bias
/// add followed by an activation.
///
/// The expressions are exactly the interpreter's (`x.max(0.0)`,
/// `x.clamp(0.0, 6.0)`), and they run *after* the full ascending-`k`
/// accumulation — applying them to each row block as the GEMM finishes it
/// is bit-neutral relative to a separate bias-add pass and activation pass
/// over the whole output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Epilogue {
    /// `y = x`.
    Identity,
    /// `y = max(x, 0)`.
    Relu,
    /// `y = clamp(x, 0, 6)`.
    Relu6,
}

impl Epilogue {
    /// Applies the epilogue to one element.
    #[inline(always)]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Epilogue::Identity => x,
            Epilogue::Relu => x.max(0.0),
            Epilogue::Relu6 => x.clamp(0.0, 6.0),
        }
    }
}

/// Computes `C = epilogue(A · B + bias)` with the bias add and activation
/// applied to each row block while it is still hot in cache.
///
/// `bias`, when present, holds one value per output *row* (the per-channel
/// conv bias layout after im2col lowering). With `bias = None` no add is
/// performed at all — `x + 0.0` is not bit-neutral for `x = -0.0`.
///
/// # Panics
///
/// Panics if either input is not 2-D, the inner dimensions disagree, or
/// `bias` is not `m` long.
pub fn matmul_bias_act(a: &Tensor, b: &Tensor, bias: Option<&[f32]>, ep: Epilogue) -> Tensor {
    assert_eq!(a.shape().len(), 2, "matmul_bias_act lhs must be 2-D");
    assert_eq!(b.shape().len(), 2, "matmul_bias_act rhs must be 2-D");
    let mut c = Tensor::zeros(&[a.shape()[0], b.shape()[1]]);
    matmul_bias_act_into(a, b, bias, ep, c.as_mut_slice());
    c
}

/// As [`matmul_bias_act`], but writes into a caller-provided `m·n` output
/// slice (every element is overwritten; no pre-zeroing needed) so
/// steady-state callers reuse one allocation across calls.
///
/// # Panics
///
/// Panics if either input is not 2-D, the inner dimensions disagree,
/// `out` is not exactly `m·n` long, or `bias` is not `m` long.
pub fn matmul_bias_act_into(
    a: &Tensor,
    b: &Tensor,
    bias: Option<&[f32]>,
    ep: Epilogue,
    out: &mut [f32],
) {
    assert_eq!(a.shape().len(), 2, "matmul_bias_act lhs must be 2-D");
    assert_eq!(b.shape().len(), 2, "matmul_bias_act rhs must be 2-D");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(
        k,
        k2,
        "matmul_bias_act inner dimension mismatch: {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    assert_eq!(out.len(), m * n, "matmul_bias_act output length mismatch");
    if let Some(bv) = bias {
        assert_eq!(bv.len(), m, "matmul_bias_act bias length mismatch");
    }
    if m == 0 || n == 0 {
        return;
    }
    let av = a.as_slice();
    let bv = b.as_slice();
    let mr = tile_rows();
    axnn_par::par_chunks_mut(out, mr * n, |block, c_block| {
        dispatch_nn(av, bv, c_block, block * mr, k, n);
        apply_epilogue(c_block, bias.map(|b| &b[block * mr..]), ep, n);
    });
}

/// Applies the bias add and activation to a block of `n`-wide rows, as
/// `ep(v + bias[row])` per element; `bias` starts at the block's first
/// row. Identity with no bias leaves the block untouched. The fused GEMMs
/// call it on each row block right after the kernel stored it (still in
/// L1).
pub fn apply_epilogue(c_block: &mut [f32], bias: Option<&[f32]>, ep: Epilogue, n: usize) {
    match bias {
        Some(b) => {
            for (row, &b_r) in c_block.chunks_mut(n).zip(b) {
                for v in row {
                    *v = ep.apply(*v + b_r);
                }
            }
        }
        None if ep != Epilogue::Identity => {
            for v in c_block {
                *v = ep.apply(*v);
            }
        }
        None => {}
    }
}

/// Computes `C = Aᵀ · B` without materialising the transpose.
///
/// # Panics
///
/// Panics if either input is not 2-D or `A` and `B` disagree on their shared
/// (row) dimension.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().len(), 2);
    assert_eq!(b.shape().len(), 2);
    let (k, m) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul_tn shared dimension mismatch");

    let mut c = Tensor::zeros(&[m, n]);
    if m == 0 || n == 0 || k == 0 {
        return c;
    }
    let av = a.as_slice();
    let bv = b.as_slice();
    let mr = tile_rows();
    axnn_par::par_chunks_mut(c.as_mut_slice(), mr * n, |block, c_block| {
        dispatch_tn(av, bv, c_block, block * mr, k, m, n);
    });
    c
}

/// Routes one row block to the widest kernel the CPU supports.
fn dispatch_tn(
    av: &[f32],
    bv: &[f32],
    c_block: &mut [f32],
    i0: usize,
    k: usize,
    m: usize,
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: guarded by the runtime AVX2 check above.
        unsafe { kernel_tn_avx2(av, bv, c_block, i0, k, m, n) };
        return;
    }
    kernel_tn::<MR>(av, bv, c_block, i0, k, m, n);
}

/// The scalar body of [`kernel_tn`] recompiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn kernel_tn_avx2(
    av: &[f32],
    bv: &[f32],
    c_block: &mut [f32],
    i0: usize,
    k: usize,
    m: usize,
    n: usize,
) {
    kernel_tn::<MR_WIDE>(av, bv, c_block, i0, k, m, n);
}

/// `C = Aᵀ · B` micro-kernel: as [`kernel_nn`], but the `A` element for
/// output row `i0 + r` is `av[kk * m + i0 + r]` (contiguous across `r`).
#[inline(always)]
fn kernel_tn<const TILE_ROWS: usize>(
    av: &[f32],
    bv: &[f32],
    c_block: &mut [f32],
    i0: usize,
    k: usize,
    m: usize,
    n: usize,
) {
    let rows = c_block.len() / n;
    let mut j0 = 0;
    while j0 < n {
        let jw = NR.min(n - j0);
        if rows == TILE_ROWS && jw == NR {
            let mut acc = [[0.0f32; NR]; TILE_ROWS];
            for kk in 0..k {
                let b_seg = &bv[kk * n + j0..kk * n + j0 + NR];
                let a_seg = &av[kk * m + i0..kk * m + i0 + TILE_ROWS];
                for r in 0..TILE_ROWS {
                    let a_val = a_seg[r];
                    for (dst, &bj) in acc[r].iter_mut().zip(b_seg) {
                        *dst += a_val * bj;
                    }
                }
            }
            for (r, acc_row) in acc.iter().enumerate() {
                c_block[r * n + j0..r * n + j0 + NR].copy_from_slice(acc_row);
            }
        } else {
            for r in 0..rows {
                for j in j0..j0 + jw {
                    let mut acc = 0.0f32;
                    for kk in 0..k {
                        acc += av[kk * m + i0 + r] * bv[kk * n + j];
                    }
                    c_block[r * n + j] = acc;
                }
            }
        }
        j0 += jw;
    }
}

/// Computes `C = A · Bᵀ` without materialising the transpose.
///
/// The kernel packs `B` into transposed panels (see [`matmul_nt_offsets`],
/// which shares it) and runs a register tile over them. Each element of
/// `C` is the ascending fold over the shared dimension from `+0.0`, as in
/// [`reference::matmul_nt`].
///
/// # Panics
///
/// Panics if either input is not 2-D or `A` and `B` disagree on their shared
/// (column) dimension.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().len(), 2);
    assert_eq!(b.shape().len(), 2);
    let (n, k) = (b.shape()[0], b.shape()[1]);
    assert_eq!(a.shape()[1], k, "matmul_nt shared dimension mismatch");
    nt::matmul(a, nt::Source::F32(b.as_slice()), n)
}

/// [`matmul_nt`] with `B` held as `u8` LUT offsets: the row-major `[n, k]`
/// `b` stands for the matrix whose element is `(b − 128) as f32 · step`,
/// which is how the 8A4W executor dequantizes its activation codes. The
/// result is bit-identical to `matmul_nt(a, &dequantized)`, without
/// building the `f32` matrix.
///
/// # Panics
///
/// Panics if `a` is not 2-D or `b` is not `n · a.shape()[1]` long.
pub fn matmul_nt_offsets(a: &Tensor, b: &[u8], n: usize, step: f32) -> Tensor {
    assert_eq!(a.shape().len(), 2);
    assert_eq!(
        b.len(),
        n * a.shape()[1],
        "matmul_nt_offsets shape mismatch"
    );
    nt::matmul(a, nt::Source::Offsets { data: b, step }, n)
}

/// The packed `A · Bᵀ` kernel. The output is split into tiles of up to
/// [`TILE_M`](nt::TILE_M) rows by [`NP`](nt::NP) columns, one thread each;
/// the shared dimension is never split. A tile walks the shared dimension
/// in blocks of [`KC`](nt::KC): it packs its `NP` rows of `B` for the block
/// into a `[KC][NP]` panel (8×8 AVX2 transposes when the CPU has them,
/// scalar otherwise), then runs the `nn`-style
/// register tile of [`kernel_nn`] over it, each accumulator resuming from
/// the partial sum the previous block stored. So every element still adds
/// its products in ascending order from `+0.0`.
mod nt {
    use crate::Tensor;

    /// Output columns of one tile: the width of one packed panel.
    pub(super) const NP: usize = 16;
    /// Output rows of one tile (all of them for a conv weight gradient).
    pub(super) const TILE_M: usize = 32;
    /// Shared-dimension block packed at once: a `[KC][NP]` panel is 16 KiB.
    pub(super) const KC: usize = 256;

    /// The `B` operand, row-major `[n, k]`.
    #[derive(Clone, Copy)]
    pub(super) enum Source<'a> {
        F32(&'a [f32]),
        /// `u8` offsets, element `(b − 128) as f32 · step`.
        Offsets {
            data: &'a [u8],
            step: f32,
        },
    }

    pub(super) fn matmul(a: &Tensor, b: Source<'_>, n: usize) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let mut c = Tensor::zeros(&[m, n]);
        if m == 0 || n == 0 || k == 0 {
            return c;
        }
        let av = a.as_slice();
        axnn_par::par_tiles_mut(c.as_mut_slice(), n, TILE_M, NP, |mut tile| {
            let (rows, cols) = (tile.rows(), tile.cols());
            let mut acc = [[0.0f32; NP]; TILE_M];
            let mut panel = vec![[0.0f32; NP]; KC.min(k)];
            for k0 in (0..k).step_by(KC) {
                let kc = KC.min(k - k0);
                pack(b, k, cols.clone(), k0, &mut panel[..kc]);
                block(av, k, rows.clone(), k0, &panel[..kc], &mut acc);
            }
            for (r, sums) in acc.iter().enumerate().take(rows.len()) {
                let dst = tile.row_mut(r);
                let len = dst.len();
                dst.copy_from_slice(&sums[..len]);
            }
        });
        c
    }

    /// One offset's `f32` value: the operation the AVX2 packer runs per
    /// lane.
    #[inline(always)]
    fn dequant(o: u8, step: f32) -> f32 {
        (i32::from(o) - 128) as f32 * step
    }

    /// Packs `B[cols, k0..k0 + panel.len()]` transposed into `panel`
    /// (`panel[t][j]` is `B[cols.start + j][k0 + t]`). Columns past `cols`
    /// may keep stale values: their sums are never stored.
    pub(super) fn pack(
        b: Source<'_>,
        k: usize,
        cols: std::ops::Range<usize>,
        k0: usize,
        panel: &mut [[f32; NP]],
    ) {
        #[cfg(target_arch = "x86_64")]
        if super::has_avx2() {
            // SAFETY: guarded by the runtime AVX2 check above.
            unsafe { avx2::pack(b, k, cols, k0, panel) };
            return;
        }
        pack_portable(b, k, cols, k0, panel);
    }

    /// The scalar packer.
    pub(super) fn pack_portable(
        b: Source<'_>,
        k: usize,
        cols: std::ops::Range<usize>,
        k0: usize,
        panel: &mut [[f32; NP]],
    ) {
        for (t, dst) in panel.iter_mut().enumerate() {
            for (j, d) in dst.iter_mut().enumerate().take(cols.len()) {
                let at = (cols.start + j) * k + k0 + t;
                *d = match b {
                    Source::F32(v) => v[at],
                    Source::Offsets { data, step } => dequant(data[at], step),
                };
            }
        }
    }

    /// Runs every row of `rows` over one packed block, `acc[r]` holding row
    /// `rows.start + r`'s partial sums.
    pub(super) fn block(
        av: &[f32],
        k: usize,
        rows: std::ops::Range<usize>,
        k0: usize,
        panel: &[[f32; NP]],
        acc: &mut [[f32; NP]; TILE_M],
    ) {
        #[cfg(target_arch = "x86_64")]
        if super::has_avx2() {
            // SAFETY: guarded by the runtime AVX2 check above.
            unsafe { block_avx2(av, k, rows, k0, panel, acc) };
            return;
        }
        block_rows::<{ super::MR }>(av, k, rows, k0, panel, acc);
    }

    /// [`block_rows`] recompiled with AVX2 enabled — same operation
    /// sequence, wider registers.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn block_avx2(
        av: &[f32],
        k: usize,
        rows: std::ops::Range<usize>,
        k0: usize,
        panel: &[[f32; NP]],
        acc: &mut [[f32; NP]; TILE_M],
    ) {
        block_rows::<{ super::MR_WIDE }>(av, k, rows, k0, panel, acc);
    }

    /// Groups of `G` rows share each panel load; the last group may be
    /// shorter.
    #[inline(always)]
    pub(super) fn block_rows<const G: usize>(
        av: &[f32],
        k: usize,
        rows: std::ops::Range<usize>,
        k0: usize,
        panel: &[[f32; NP]],
        acc: &mut [[f32; NP]; TILE_M],
    ) {
        let mut r = 0;
        while r < rows.len() {
            let g = G.min(rows.len() - r);
            let acc = &mut acc[r..r + g];
            let a0 = (rows.start + r) * k + k0;
            if g == G {
                tile::<G>(av, k, a0, panel, acc);
            } else {
                for (i, acc) in acc.chunks_mut(1).enumerate() {
                    tile::<1>(av, k, a0 + i * k, panel, acc);
                }
            }
            r += g;
        }
    }

    /// `acc[r][j] += A[row r][k0 + t] · panel[t][j]` for ascending `t`, the
    /// `G × NP` tile held in registers across the block.
    #[inline(always)]
    fn tile<const G: usize>(
        av: &[f32],
        k: usize,
        a0: usize,
        panel: &[[f32; NP]],
        acc: &mut [[f32; NP]],
    ) {
        let mut tile = [[0.0f32; NP]; G];
        tile.copy_from_slice(&acc[..G]);
        let a_rows: [&[f32]; G] = std::array::from_fn(|r| &av[a0 + r * k..][..panel.len()]);
        for (t, p) in panel.iter().enumerate() {
            for (acc_row, a_row) in tile.iter_mut().zip(&a_rows) {
                let a_val = a_row[t];
                for (dst, &bj) in acc_row.iter_mut().zip(p) {
                    *dst += a_val * bj;
                }
            }
        }
        acc[..G].copy_from_slice(&tile);
    }

    #[cfg(target_arch = "x86_64")]
    mod avx2 {
        use super::{Source, NP};
        use std::arch::x86_64::*;

        /// [`pack_portable`](super::pack_portable)'s AVX2 arm: each half of
        /// the panel takes up to 8 rows of `B`, 8 taps at a time, loaded
        /// (offsets widened and dequantized lane by lane, the scalar
        /// `dequant` per lane) and transposed in registers, missing rows as
        /// zeros. The taps after the last whole 8 are copied row by row.
        #[target_feature(enable = "avx2")]
        pub(super) fn pack(
            b: Source<'_>,
            k: usize,
            cols: std::ops::Range<usize>,
            k0: usize,
            panel: &mut [[f32; NP]],
        ) {
            let kc = panel.len();
            let whole = kc / 8 * 8;
            for half in 0..NP / 8 {
                let (j0, lane) = (cols.start + 8 * half, 8 * half);
                let rows = cols.end.saturating_sub(j0).min(8);
                let at = |i: usize| (j0 + i) * k + k0;
                for t in (0..whole).step_by(8) {
                    let mut r = [_mm256_setzero_ps(); 8];
                    for (i, r) in r.iter_mut().enumerate().take(rows) {
                        *r = load8(b, at(i) + t);
                    }
                    for (dst, v) in panel[t..t + 8].iter_mut().zip(transpose8(r)) {
                        let dst = &mut dst[lane..lane + 8];
                        // SAFETY: `dst` is a borrowed 8-element slice; the
                        // store is unaligned.
                        unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), v) };
                    }
                }
                for i in 0..rows {
                    let tail = panel[whole..].iter_mut().map(|row| &mut row[lane + i]);
                    let from = at(i) + whole;
                    match b {
                        Source::F32(v) => {
                            for (d, &x) in tail.zip(&v[from..from + kc - whole]) {
                                *d = x;
                            }
                        }
                        Source::Offsets { data, step } => {
                            for (d, &o) in tail.zip(&data[from..from + kc - whole]) {
                                *d = super::dequant(o, step);
                            }
                        }
                    }
                }
            }
        }

        /// The 8 elements of `B` from flat index `at`.
        #[target_feature(enable = "avx2")]
        #[inline]
        fn load8(b: Source<'_>, at: usize) -> __m256 {
            match b {
                Source::F32(v) => {
                    let src = &v[at..at + 8];
                    // SAFETY: `src` is a borrowed 8-element slice; the load
                    // is unaligned.
                    unsafe { _mm256_loadu_ps(src.as_ptr()) }
                }
                Source::Offsets { data, step } => {
                    let src = &data[at..at + 8];
                    // SAFETY: `src` is a borrowed 8-byte slice; the load is
                    // unaligned.
                    let bytes = unsafe { _mm_loadl_epi64(src.as_ptr().cast()) };
                    let codes =
                        _mm256_sub_epi32(_mm256_cvtepu8_epi32(bytes), _mm256_set1_epi32(128));
                    // `cvtepi32_ps` is exact on codes in [-128, 127], and the
                    // product rounds once, as the scalar `dequant` does.
                    _mm256_mul_ps(_mm256_cvtepi32_ps(codes), _mm256_set1_ps(step))
                }
            }
        }

        /// Transposes the 8×8 block whose row `i` is `r[i]`: row `j` of the
        /// result holds column `j`.
        #[target_feature(enable = "avx2")]
        #[inline]
        fn transpose8(r: [__m256; 8]) -> [__m256; 8] {
            let t0 = _mm256_unpacklo_ps(r[0], r[1]);
            let t1 = _mm256_unpackhi_ps(r[0], r[1]);
            let t2 = _mm256_unpacklo_ps(r[2], r[3]);
            let t3 = _mm256_unpackhi_ps(r[2], r[3]);
            let t4 = _mm256_unpacklo_ps(r[4], r[5]);
            let t5 = _mm256_unpackhi_ps(r[4], r[5]);
            let t6 = _mm256_unpacklo_ps(r[6], r[7]);
            let t7 = _mm256_unpackhi_ps(r[6], r[7]);
            let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
            let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
            let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
            let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
            let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
            let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
            let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
            let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
            [
                _mm256_permute2f128_ps::<0x20>(u0, u4),
                _mm256_permute2f128_ps::<0x20>(u1, u5),
                _mm256_permute2f128_ps::<0x20>(u2, u6),
                _mm256_permute2f128_ps::<0x20>(u3, u7),
                _mm256_permute2f128_ps::<0x31>(u0, u4),
                _mm256_permute2f128_ps::<0x31>(u1, u5),
                _mm256_permute2f128_ps::<0x31>(u2, u6),
                _mm256_permute2f128_ps::<0x31>(u3, u7),
            ]
        }
    }
}

/// Scalar reference kernels — the original naive loops.
///
/// They define the floating-point fold every blocked kernel must reproduce
/// bit-for-bit, and serve as the single-thread baseline of the
/// `results/BENCH_gemm.json` perf trajectory.
pub mod reference {
    use crate::Tensor;

    /// Naive i-k-j `C = A · B` (streams `B` and `C` rows contiguously).
    pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        assert_eq!(k, b.shape()[0]);
        let mut c = Tensor::zeros(&[m, n]);
        let av = a.as_slice();
        let bv = b.as_slice();
        let cv = c.as_mut_slice();
        for i in 0..m {
            let a_row = &av[i * k..(i + 1) * k];
            let c_row = &mut cv[i * n..(i + 1) * n];
            for (kk, &aik) in a_row.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let b_row = &bv[kk * n..(kk + 1) * n];
                for (cj, &bj) in c_row.iter_mut().zip(b_row) {
                    *cj += aik * bj;
                }
            }
        }
        c
    }

    /// Naive fused `C = epilogue(A · B + bias)` oracle: plain i-j-k triple
    /// loop, ascending-`k`, bias and activation applied after the full sum.
    pub fn matmul_bias_act(
        a: &Tensor,
        b: &Tensor,
        bias: Option<&[f32]>,
        ep: super::Epilogue,
    ) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        assert_eq!(k, b.shape()[0]);
        let mut c = Tensor::zeros(&[m, n]);
        let av = a.as_slice();
        let bv = b.as_slice();
        let cv = c.as_mut_slice();
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += av[i * k + kk] * bv[kk * n + j];
                }
                let v = match bias {
                    Some(b) => acc + b[i],
                    None => acc,
                };
                cv[i * n + j] = ep.apply(v);
            }
        }
        c
    }

    /// Naive k-i-j `C = Aᵀ · B`.
    pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
        let (k, m) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        assert_eq!(k, b.shape()[0]);
        let mut c = Tensor::zeros(&[m, n]);
        let av = a.as_slice();
        let bv = b.as_slice();
        let cv = c.as_mut_slice();
        for kk in 0..k {
            let a_row = &av[kk * m..(kk + 1) * m];
            let b_row = &bv[kk * n..(kk + 1) * n];
            for (i, &aki) in a_row.iter().enumerate() {
                if aki == 0.0 {
                    continue;
                }
                let c_row = &mut cv[i * n..(i + 1) * n];
                for (cj, &bj) in c_row.iter_mut().zip(b_row) {
                    *cj += aki * bj;
                }
            }
        }
        c
    }

    /// Naive row-dot `C = A · Bᵀ`.
    pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[0];
        assert_eq!(k, b.shape()[1]);
        let mut c = Tensor::zeros(&[m, n]);
        let av = a.as_slice();
        let bv = b.as_slice();
        let cv = c.as_mut_slice();
        for i in 0..m {
            let a_row = &av[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &bv[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&x, &y) in a_row.iter().zip(b_row) {
                    acc += x * y;
                }
                cv[i * n + j] = acc;
            }
        }
        c
    }
}

impl Tensor {
    /// Convenience method for [`matmul`]`(self, rhs)`.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not 2-D or inner dimensions disagree.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        matmul(self, rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>, s: &[usize]) -> Tensor {
        Tensor::from_vec(v, s).unwrap()
    }

    /// Seeded tensor uniform in `[-0.5, 0.5]`.
    fn rand_tensor(shape: &[usize], seed: u64) -> Tensor {
        crate::init::uniform(shape, -0.5, 0.5, &mut axnn_rng::Rng::seed(seed))
    }

    #[test]
    fn identity_is_neutral() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let c = matmul(&a, &Tensor::eye(3));
        assert_eq!(c, a);
    }

    #[test]
    fn known_product() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(vec![0.0, 1.0, 1.0, 0.0], &[2, 2]);
        assert_eq!(matmul(&a, &b).as_slice(), &[2.0, 1.0, 4.0, 3.0]);
    }

    #[test]
    fn non_square() {
        let a = t(vec![1.0, 2.0, 3.0], &[1, 3]);
        let b = t(vec![4.0, 5.0, 6.0], &[3, 1]);
        assert_eq!(matmul(&a, &b).as_slice(), &[32.0]);
        assert_eq!(matmul(&b, &a).shape(), &[3, 3]);
    }

    #[test]
    fn tn_matches_explicit_transpose() {
        let a = t((0..6).map(|x| x as f32).collect(), &[3, 2]);
        let b = t((0..12).map(|x| (x as f32) * 0.5).collect(), &[3, 4]);
        assert_eq!(matmul_tn(&a, &b), matmul(&a.transpose2(), &b));
    }

    #[test]
    fn nt_matches_explicit_transpose() {
        let a = t((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let b = t((0..12).map(|x| (x as f32) * 0.5).collect(), &[4, 3]);
        assert_eq!(matmul_nt(&a, &b), matmul(&a, &b.transpose2()));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatched_inner_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = matmul(&a, &b);
    }

    /// The blocked kernels must be *bit-identical* to the scalar reference
    /// fold, across awkward (non-tile-multiple) shapes.
    #[test]
    fn blocked_kernels_bit_match_reference() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 16, 16),
            (5, 17, 19),
            (8, 72, 33),
            (13, 9, 50),
        ] {
            let a = rand_tensor(&[m, k], 7 + (m * 31 + k) as u64);
            let b = rand_tensor(&[k, n], 11 + (k * 17 + n) as u64);
            let fast = matmul(&a, &b);
            let slow = reference::matmul(&a, &b);
            assert_eq!(
                fast.as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                slow.as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "matmul {m}x{k}x{n}"
            );

            let at = rand_tensor(&[k, m], 13 + (k + m) as u64);
            let fast = matmul_tn(&at, &b);
            let slow = reference::matmul_tn(&at, &b);
            assert_eq!(
                fast.as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                slow.as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "matmul_tn {m}x{k}x{n}"
            );

            let bt = rand_tensor(&[n, k], 17 + (n + k) as u64);
            let fast = matmul_nt(&a, &bt);
            let slow = reference::matmul_nt(&a, &bt);
            assert_eq!(
                fast.as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                slow.as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "matmul_nt {m}x{k}x{n}"
            );
        }
    }

    /// The fused kernel must be bit-identical to its scalar oracle *and* to
    /// the unfused sequence (matmul, then bias add, then activation) across
    /// awkward shapes, epilogues, and bias presence.
    #[test]
    fn fused_epilogue_bit_matches_reference_and_unfused() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 16, 16),
            (5, 17, 19),
            (8, 72, 33),
            (13, 9, 50),
        ] {
            let a = rand_tensor(&[m, k], 23 + (m * 13 + k) as u64);
            let b = rand_tensor(&[k, n], 29 + (k * 7 + n) as u64);
            let bias_t = rand_tensor(&[m], 31 + m as u64);
            for ep in [Epilogue::Identity, Epilogue::Relu, Epilogue::Relu6] {
                for bias in [None, Some(bias_t.as_slice())] {
                    let fast = matmul_bias_act(&a, &b, bias, ep);
                    let slow = reference::matmul_bias_act(&a, &b, bias, ep);
                    assert_eq!(
                        fast.as_slice()
                            .iter()
                            .map(|v| v.to_bits())
                            .collect::<Vec<_>>(),
                        slow.as_slice()
                            .iter()
                            .map(|v| v.to_bits())
                            .collect::<Vec<_>>(),
                        "fused {m}x{k}x{n} {ep:?} bias={}",
                        bias.is_some()
                    );

                    // Unfused sequence: plain matmul, separate bias pass,
                    // separate activation pass.
                    let mut unfused = matmul(&a, &b);
                    if let Some(bv) = bias {
                        for (i, row) in unfused.as_mut_slice().chunks_mut(n).enumerate() {
                            for x in row.iter_mut() {
                                *x += bv[i];
                            }
                        }
                    }
                    for x in unfused.as_mut_slice().iter_mut() {
                        *x = ep.apply(*x);
                    }
                    assert_eq!(
                        fast.as_slice()
                            .iter()
                            .map(|v| v.to_bits())
                            .collect::<Vec<_>>(),
                        unfused
                            .as_slice()
                            .iter()
                            .map(|v| v.to_bits())
                            .collect::<Vec<_>>(),
                        "fused-vs-unfused {m}x{k}x{n} {ep:?} bias={}",
                        bias.is_some()
                    );
                }
            }
        }
    }

    /// The fused kernel keeps the row-partitioned determinism contract.
    #[test]
    fn fused_epilogue_is_thread_count_invariant() {
        let a = rand_tensor(&[9, 23], 41);
        let b = rand_tensor(&[23, 21], 43);
        let bias = rand_tensor(&[9], 47);
        axnn_par::set_threads(1);
        let one = matmul_bias_act(&a, &b, Some(bias.as_slice()), Epilogue::Relu);
        for threads in [2, 5, 8] {
            axnn_par::set_threads(threads);
            let many = matmul_bias_act(&a, &b, Some(bias.as_slice()), Epilogue::Relu);
            assert_eq!(
                one.as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                many.as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
        axnn_par::set_threads(1);
    }

    /// `_into` overwrites every element — no stale data survives reuse.
    #[test]
    fn fused_into_overwrites_scratch() {
        let a = rand_tensor(&[3, 4], 53);
        let b = rand_tensor(&[4, 5], 59);
        let mut out = vec![f32::NAN; 15];
        matmul_bias_act_into(&a, &b, None, Epilogue::Identity, &mut out);
        let want = matmul(&a, &b);
        assert_eq!(out, want.as_slice());
    }

    /// Row partitioning makes results independent of the worker count.
    #[test]
    fn matmul_is_thread_count_invariant() {
        let a = rand_tensor(&[9, 23], 3);
        let b = rand_tensor(&[23, 21], 4);
        axnn_par::set_threads(1);
        let one = matmul(&a, &b);
        for threads in [2, 5, 8] {
            axnn_par::set_threads(threads);
            let many = matmul(&a, &b);
            assert_eq!(
                one.as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                many.as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
        axnn_par::set_threads(1);
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Tests that set the global thread count run one at a time.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Random `u8` offsets and a power-of-two step (or 0.3, not one).
    fn rand_offsets(len: usize, rng: &mut axnn_rng::Rng) -> (Vec<u8>, f32) {
        let data = (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect();
        let step = match rng.gen_range(0u32..3) {
            0 => 0.3,
            e => 2f32.powi(-(e as i32) * 3),
        };
        (data, step)
    }

    /// The packed `A · Bᵀ`, dense and over `u8` offsets, against the naive
    /// row-dot oracle bit for bit: rows not a multiple of the 4-row tile,
    /// columns not a multiple of 8 or 16, an inner dimension crossing the
    /// 256-tap panel blocks, and 1 and 2 threads.
    #[test]
    fn packed_nt_bit_matches_reference() {
        let _g = serial();
        axnn_rng::cases(96, |mut rng| {
            let m = rng.gen_range(1usize..=13);
            let n = rng.gen_range(1usize..=40);
            let k = match rng.gen_range(0u32..3) {
                0 => rng.gen_range(1usize..=20),
                1 => rng.gen_range(250usize..=270),
                _ => rng.gen_range(500usize..=800),
            };
            let a = crate::init::uniform(&[m, k], -1.0, 1.0, &mut rng);
            let b = crate::init::uniform(&[n, k], -1.0, 1.0, &mut rng);
            let (offsets, step) = rand_offsets(n * k, &mut rng);
            let deq: Vec<f32> = offsets
                .iter()
                .map(|&o| (i32::from(o) - 128) as f32 * step)
                .collect();
            let deq = Tensor::from_vec(deq, &[n, k]).unwrap();
            let want = reference::matmul_nt(&a, &b);
            let want_u8 = reference::matmul_nt(&a, &deq);
            for threads in [1, 2] {
                axnn_par::set_threads(threads);
                assert_eq!(
                    bits(&matmul_nt(&a, &b)),
                    bits(&want),
                    "f32 {m}x{k}x{n} t{threads}"
                );
                assert_eq!(
                    bits(&matmul_nt_offsets(&a, &offsets, n, step)),
                    bits(&want_u8),
                    "u8 {m}x{k}x{n} t{threads}"
                );
            }
            axnn_par::set_threads(0);
        });
    }

    /// The portable packer and row kernel, which non-AVX2 machines run,
    /// against the dispatched ones (the AVX2 arms where the CPU has them).
    #[test]
    fn packed_nt_portable_arm_matches_dispatch() {
        axnn_rng::cases(64, |mut rng| {
            let n = rng.gen_range(1usize..=40);
            let k = rng.gen_range(1usize..=300);
            let b = crate::init::uniform(&[n, k], -1.0, 1.0, &mut rng);
            let (offsets, step) = rand_offsets(n * k, &mut rng);
            let c0 = rng.gen_range(0..n);
            let cols = c0..(c0 + nt::NP).min(n);
            let k0 = rng.gen_range(0..k);
            let kc = rng.gen_range(1..=(k - k0).min(nt::KC));
            for src in [
                nt::Source::F32(b.as_slice()),
                nt::Source::Offsets {
                    data: &offsets,
                    step,
                },
            ] {
                let mut fast = vec![[f32::NAN; nt::NP]; kc];
                let mut slow = vec![[f32::NAN; nt::NP]; kc];
                nt::pack(src, k, cols.clone(), k0, &mut fast);
                nt::pack_portable(src, k, cols.clone(), k0, &mut slow);
                // Only the columns inside `cols` are defined (and read out).
                let valid = |p: &[[f32; nt::NP]]| -> Vec<u32> {
                    p.iter()
                        .flat_map(|row| &row[..cols.len()])
                        .map(|v| v.to_bits())
                        .collect()
                };
                assert_eq!(
                    valid(&fast),
                    valid(&slow),
                    "pack n={n} k={k} {cols:?} k0={k0}"
                );

                let rows = rng.gen_range(1usize..=nt::TILE_M);
                let a = crate::init::uniform(&[rows, k], -1.0, 1.0, &mut rng);
                let start = [[0.25f32; nt::NP]; nt::TILE_M];
                let (mut fast_acc, mut slow_acc) = (start, start);
                nt::block(a.as_slice(), k, 0..rows, k0, &slow, &mut fast_acc);
                nt::block_rows::<MR>(a.as_slice(), k, 0..rows, k0, &slow, &mut slow_acc);
                assert_eq!(
                    valid(&fast_acc[..rows]),
                    valid(&slow_acc[..rows]),
                    "block rows={rows} k={k} k0={k0}"
                );
            }
        });
    }

    #[test]
    fn zero_sized_dims_yield_zeros() {
        assert_eq!(
            matmul(&Tensor::zeros(&[0, 3]), &Tensor::zeros(&[3, 2])).shape(),
            &[0, 2]
        );
        assert_eq!(
            matmul(&Tensor::zeros(&[2, 0]), &Tensor::zeros(&[0, 3])).as_slice(),
            &[0.0; 6]
        );
    }
}
