//! Approximate integer GEMM over quantizer codes (paper eq. 4).
//!
//! Activations arrive as `u8` table offsets (`code + 128`, 4× denser in
//! cache than `i32` codes; the 8A4W executor quantizes straight into them, the
//! public `i32`-code entry points pack them once), in the `[K, M]` layout
//! the conv lowering emits. [`approx_matmul`] splits its `[OC, M]` output
//! into tiles handed to threads by [`axnn_par::par_tiles_mut`], so every
//! output element is produced by exactly one thread, and a layer with few
//! output channels still spreads over every core. It has two arms, picked
//! at runtime:
//!
//! - **AVX2** (x86-64 with AVX2): `16 × 64` tiles. A 4-bit weight code
//!   indexes a 16-entry table, so one `vpshufb` pair looks up one tap's
//!   products for 16 output channels in the [`SignedLut`]'s byte rows of
//!   one activation code. Products are summed in `i16` for as many taps as
//!   cannot overflow it, then widened into `i32`.
//! - **Portable**: `4 × 256` tiles. Each weight code pins one contiguous
//!   1 KiB `i32` LUT row while an activation segment streams past it, one
//!   indexed load per MAC.
//!
//! Every LUT entry is below 2^15 in magnitude and `K < 2^16`, so both arms'
//! sums are exact and equal the serial [`reference`](mod@reference)
//! kernel's `i64` sum bit for bit, for any tiling and thread count.

use crate::signed_lut::SignedLut;
use axnn_tensor::Tensor;
use std::ops::Range;

/// Weight rows of one output tile: they share each streamed activation
/// segment, so one packed-code load feeds `IB` gathers.
const IB: usize = 4;

/// Columns of one output tile. Its `IB × JP` `i32` panel (4 KiB), the
/// matching activation segments and the tile's LUT rows stay L1-resident
/// across the k loop. On a 2-vCPU Xeon, 256 beat 64 and 128 narrowly (at
/// 1 and 2 threads) on the ResNet-20 w0.25 training shapes.
const JP: usize = 256;

/// Column block for the approximate-accumulator path: `JB` i64 partial sums
/// plus the matching code segment stay L1-resident across the k loop.
const JB: usize = 256;

/// All-zero stand-in for the LUT row of a zero weight code and of the
/// padding rows past `OC` in the last tile: the reference kernels skip
/// `w = 0` taps outright (comment there: "exact and approximate products
/// are both zero"), and adding 0 to an exact integer accumulator is the
/// bit-identical branchless equivalent.
static ZERO_ROW: [i32; 256] = [0; 256];

/// Packs `i32` activation codes into `u8` LUT offsets (`code + 128`).
///
/// # Panics
///
/// Panics if a code is outside `[-128, 127]`.
fn pack_x(col_codes: &[i32]) -> Vec<u8> {
    col_codes
        .iter()
        .map(|&x| {
            assert!((-128..=127).contains(&x), "x code {x} out of range");
            (x + 128) as u8
        })
        .collect()
}

/// Computes `ỹᵢⱼ = Σₖ g̃(Wᵢₖ, Xₖⱼ)` over integer codes, accumulating
/// exactly, and returns the result scaled by `scale = s_w · s_x` as an f32
/// tensor of shape `[OC, M]`.
///
/// `w_codes` is the row-major `[OC, K]` weight-code matrix and `col_codes`
/// the `[K, M]` input-code matrix.
///
/// # Panics
///
/// Panics if the slice lengths are inconsistent with `(oc, k, m)`, if an
/// input code is outside `[-128, 127]`, or if `k ≥ 2^16`.
pub fn approx_matmul(
    w_codes: &[i32],
    col_codes: &[i32],
    oc: usize,
    k: usize,
    m: usize,
    lut: &SignedLut,
    scale: f32,
) -> Tensor {
    let mut out = vec![0.0f32; oc * m];
    approx_matmul_offsets(w_codes, &pack_x(col_codes), oc, k, m, lut, scale, &mut out);
    Tensor::from_vec(out, &[oc, m]).expect("one output per row and column")
}

/// [`approx_matmul`] over activations already packed into `u8` LUT offsets
/// (`[K, M]`, `code + 128`), written into the row-major `[OC, M]` `out`
/// (every element overwritten). Its one heap allocation is the AVX2 arm's
/// weight-index vectors, 16 bytes per tap and block of 16 output channels.
///
/// # Panics
///
/// Panics if the slice lengths are inconsistent with `(oc, k, m)`, if
/// `k ≥ 2^16`, or if a weight code is outside `[-8, 7]`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn approx_matmul_offsets(
    w_codes: &[i32],
    xi: &[u8],
    oc: usize,
    k: usize,
    m: usize,
    lut: &SignedLut,
    scale: f32,
    out: &mut [f32],
) {
    assert_eq!(w_codes.len(), oc * k, "weight code matrix size mismatch");
    assert_eq!(xi.len(), k * m, "input code matrix size mismatch");
    assert_eq!(out.len(), oc * m, "output matrix size mismatch");
    assert!(
        k < 1 << 16,
        "k = {k} taps could overflow the i32 accumulator"
    );
    if oc == 0 || m == 0 {
        return;
    }
    count_approx_ops(w_codes, m);
    #[cfg(target_arch = "x86_64")]
    if shuffle::available() {
        return shuffle::matmul(w_codes, xi, k, m, lut, scale, out);
    }
    tiled_matmul(w_codes, xi, k, m, lut, scale, out);
}

/// The portable arm of [`approx_matmul_offsets`] (same contract): `IB × JP`
/// tiles summed by [`lut_panel`].
fn tiled_matmul(
    w_codes: &[i32],
    xi: &[u8],
    k: usize,
    m: usize,
    lut: &SignedLut,
    scale: f32,
    out: &mut [f32],
) {
    axnn_par::par_tiles_mut(out, m, IB, JP, |mut tile| {
        let rows = tile.rows();
        let panel = lut_panel(w_codes, xi, k, m, lut, rows.clone(), tile.cols());
        for (r, acc) in panel.iter().take(rows.len()).enumerate() {
            for (o, &a) in tile.row_mut(r).iter_mut().zip(acc) {
                *o = a as f32 * scale;
            }
        }
    });
}

/// Observability: one approximate (LUT-served) product per nonzero weight
/// code and output column, 4 LUT bytes each. Derived analytically from the
/// workload *before* the parallel region, so the totals are bit-identical
/// for any thread count; a disabled profiler costs one relaxed load.
fn count_approx_ops(w_codes: &[i32], m: usize) {
    if axnn_obs::enabled() {
        let nnz = w_codes.iter().filter(|&&w| w != 0).count() as u64;
        axnn_obs::count(axnn_obs::Counter::ApproxMuls, nnz * m as u64);
        axnn_obs::count(axnn_obs::Counter::LutBytes, nnz * m as u64 * 4);
    }
}

/// LUT row for weight code `w`, with `w = 0` redirected to [`ZERO_ROW`].
///
/// # Panics
///
/// Panics if `w` is outside `[-8, 7]`.
#[inline]
fn lut_row(lut: &SignedLut, w: i32) -> &[i32; 256] {
    assert!((-8..=7).contains(&w), "w code {w} out of range");
    if w == 0 {
        &ZERO_ROW
    } else {
        lut.w_row(w)
    }
}

/// Sums the output tile `rows × cols` (at most `IB × JP`) into an `i32`
/// panel. Rows past `rows.end` read [`ZERO_ROW`], so a short last tile runs
/// the same body and its padding rows stay zero. Each packed-code load
/// feeds `IB` gathers, and k is unrolled by two (each panel load/store
/// serves two taps).
fn lut_panel(
    w_codes: &[i32],
    xi: &[u8],
    k: usize,
    m: usize,
    lut: &SignedLut,
    rows: Range<usize>,
    cols: Range<usize>,
) -> [[i32; JP]; IB] {
    let luts = |kk: usize| -> [&[i32; 256]; IB] {
        std::array::from_fn(|r| match rows.start + r {
            i if i < rows.end => lut_row(lut, w_codes[i * k + kk]),
            _ => &ZERO_ROW,
        })
    };
    let (j0, jn) = (cols.start, cols.len());
    let x_seg = |kk: usize| &xi[kk * m + j0..][..jn];
    let mut panel = [[0i32; JP]; IB];
    let [a0, a1, a2, a3] = &mut panel;
    let (a0, a1, a2, a3) = (&mut a0[..jn], &mut a1[..jn], &mut a2[..jn], &mut a3[..jn]);
    let mut kk = 0;
    while kk + 2 <= k {
        let [r00, r10, r20, r30] = luts(kk);
        let [r01, r11, r21, r31] = luts(kk + 1);
        for (((((&x0, &x1), a0), a1), a2), a3) in x_seg(kk)
            .iter()
            .zip(x_seg(kk + 1))
            .zip(a0.iter_mut())
            .zip(a1.iter_mut())
            .zip(a2.iter_mut())
            .zip(a3.iter_mut())
        {
            let (x0, x1) = (usize::from(x0), usize::from(x1));
            *a0 += r00[x0] + r01[x1];
            *a1 += r10[x0] + r11[x1];
            *a2 += r20[x0] + r21[x1];
            *a3 += r30[x0] + r31[x1];
        }
        kk += 2;
    }
    if kk < k {
        let [r0, r1, r2, r3] = luts(kk);
        for ((((&x, a0), a1), a2), a3) in x_seg(kk)
            .iter()
            .zip(a0.iter_mut())
            .zip(a1.iter_mut())
            .zip(a2.iter_mut())
            .zip(a3.iter_mut())
        {
            let x = usize::from(x);
            *a0 += r0[x];
            *a1 += r1[x];
            *a2 += r2[x];
            *a3 += r3[x];
        }
    }
    panel
}

/// The AVX2 arm of [`approx_matmul_offsets`]: a byte-shuffle LUT GEMM.
///
/// A tile is `ROWS = 16` output channels × `COLS = 64` columns. Per call,
/// each tap's weight codes over a block of 16 channels become one `vpshufb`
/// index vector (`w + 8`; padding rows past `OC` read index 8, `w = 0`,
/// whose table lanes are zero). For a column pair `(j, j + 1)`, the low-byte tables of
/// activation offsets `x[kk, j]` and `x[kk, j + 1]` fill the two 128-bit
/// lanes of one register and the high-byte tables another; shuffling both
/// with the index vector and interleaving the bytes gives that tap's `i16`
/// products, 16 channels by 2 columns.
///
/// The tile's 64-offset segment of each `[K, M]` row is one cache line,
/// copied per chunk of taps into a contiguous stack block before its 32
/// column pairs walk the taps: read in place, the `K` lines of a
/// power-of-two `m` would all fall in a few L1 sets and evict each other.
///
/// Exactness: `|p| ≤ max_abs < 2^15`, and a chunk of `⌊32767 / max_abs⌋`
/// taps sums to at most 32767 in magnitude, so the `i16` sum is exact; it
/// sign-extends into the `i32` accumulator exactly, which stays below
/// `2^15 · 2^16 = 2^31`. The integer sums therefore equal the portable
/// arm's and the reference kernel's.
#[cfg(target_arch = "x86_64")]
mod shuffle {
    use super::SignedLut;
    use std::arch::x86_64::*;
    use std::ops::Range;

    /// Output channels of one tile: the 16 bytes of one index vector.
    const ROWS: usize = 16;
    /// Columns of one tile: one 64-byte cache line of offsets per tap.
    const COLS: usize = 64;
    /// Taps whose offsets a tile stages at once, on the stack; an `i16`
    /// chunk never exceeds it.
    const MAX_CHUNK: usize = 64;

    /// Whether the CPU runs this kernel (a cached feature check).
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("avx2")
    }

    /// [`approx_matmul_offsets`](super::approx_matmul_offsets)'s AVX2 arm
    /// (same contract; the caller has checked the sizes).
    ///
    /// # Panics
    ///
    /// Panics if the CPU lacks AVX2 or a weight code is outside `[-8, 7]`.
    pub(super) fn matmul(
        w_codes: &[i32],
        xi: &[u8],
        k: usize,
        m: usize,
        lut: &SignedLut,
        scale: f32,
        out: &mut [f32],
    ) {
        assert!(available(), "the shuffle kernel needs AVX2");
        let chunk = match lut.max_abs() {
            0 => MAX_CHUNK,
            p => (i16::MAX as usize / p as usize).min(MAX_CHUNK),
        };
        // The index vectors, `[row block][tap]`: `vpshufb` reads only the
        // low 4 bits of an index, so a code outside [-8, 7] would silently
        // read another weight's product. Padding rows read index 8 (w = 0).
        let oc = out.len() / m;
        let mut idx = vec![[8u8; ROWS]; oc.div_ceil(ROWS) * k];
        for i in 0..oc {
            for (v, &w) in idx[i / ROWS * k..].iter_mut().zip(&w_codes[i * k..][..k]) {
                assert!((-8..=7).contains(&w), "w code {w} out of range");
                v[i % ROWS] = (w + 8) as u8;
            }
        }
        let tables = lut.byte_rows();
        axnn_par::par_tiles_mut(out, m, ROWS, COLS, |mut tile| {
            let (rows, cols) = (tile.rows(), tile.cols());
            let idx = &idx[rows.start / ROWS * k..][..k];
            // SAFETY: AVX2 is present, asserted above.
            let sums = unsafe {
                match rows.len() > 8 {
                    true => tile_sums::<true>(idx, xi, m, tables, chunk, cols),
                    false => tile_sums::<false>(idx, xi, m, tables, chunk, cols),
                }
            };
            for r in 0..rows.len() {
                for (c, o) in tile.row_mut(r).iter_mut().enumerate() {
                    *o = sums[4 * (c / 2) + 2 * (r / 8) + c % 2][r % 8] as f32 * scale;
                }
            }
        });
    }

    /// Sums one tile, the 16 rows of index vectors `idx` (one per tap) by
    /// `cols` (at most `COLS`), in chunks of `chunk ≤ MAX_CHUNK` taps.
    /// Column pair `p` (columns `2p`, `2p + 1`) owns entries `4p..4p + 4` of
    /// the result: rows 0–7 of column `2p`, then of `2p + 1`, then rows
    /// 8–15 of each. Without `TALL` (a block of at most 8 output channels)
    /// rows 8–15 are left at 0, which saves one unpack and one add per
    /// column pair and tap.
    /// A caller outside AVX2 code must have checked that the CPU has AVX2.
    #[target_feature(enable = "avx2")]
    fn tile_sums<const TALL: bool>(
        idx: &[[u8; ROWS]],
        xi: &[u8],
        m: usize,
        tables: &[[[u8; ROWS]; 2]; 256],
        chunk: usize,
        cols: Range<usize>,
    ) -> [[i32; 8]; 2 * COLS] {
        // Per column pair, the four `i32` registers of the result entries.
        let mut acc = [[_mm256_setzero_si256(); 4]; COLS / 2];
        // Columns past a short tile's end read a stale offset, which is a
        // valid table index, into lanes that are never written out.
        let mut x = [[0u8; COLS]; MAX_CHUNK];
        let (j0, jn) = (cols.start, cols.len());
        for (n, idx) in idx.chunks(chunk).enumerate() {
            let k0 = n * chunk;
            for (t, xr) in x.iter_mut().take(idx.len()).enumerate() {
                let src = &xi[(k0 + t) * m + j0..][..jn];
                match <&[u8; COLS]>::try_from(src) {
                    Ok(full) => *xr = *full,
                    Err(_) => xr[..jn].copy_from_slice(src),
                }
            }
            // Two column pairs per pass share each index vector.
            for (g, acc) in acc.chunks_exact_mut(2).take(jn.div_ceil(4)).enumerate() {
                let c = 4 * g;
                let mut sums = [_mm256_setzero_si256(); 4];
                for (xr, ix) in x.iter().zip(idx) {
                    // SAFETY: the pointer is to a borrowed 16-byte array,
                    // and the load is unaligned.
                    let ix =
                        unsafe { _mm256_broadcastsi128_si256(_mm_loadu_si128(ix.as_ptr().cast())) };
                    let (lo0, hi0) = products(tables, xr[c], xr[c + 1], ix);
                    let (lo1, hi1) = products(tables, xr[c + 2], xr[c + 3], ix);
                    for (i, (s, p)) in sums.iter_mut().zip([lo0, hi0, lo1, hi1]).enumerate() {
                        if TALL || i % 2 == 0 {
                            *s = _mm256_add_epi16(*s, p);
                        }
                    }
                }
                for (acc, [lo16, hi16]) in
                    acc.iter_mut().zip([[sums[0], sums[1]], [sums[2], sums[3]]])
                {
                    let halves = [
                        _mm256_castsi256_si128(lo16),
                        _mm256_extracti128_si256::<1>(lo16),
                        _mm256_castsi256_si128(hi16),
                        _mm256_extracti128_si256::<1>(hi16),
                    ];
                    for (a, h) in acc.iter_mut().zip(halves).take(if TALL { 4 } else { 2 }) {
                        *a = _mm256_add_epi32(*a, _mm256_cvtepi16_epi32(h));
                    }
                }
            }
        }
        // SAFETY: `[[__m256i; 4]; COLS / 2]` and `[[i32; 8]; 2 * COLS]` have
        // the same size, and every bit pattern is a valid `i32`.
        unsafe { std::mem::transmute(acc) }
    }

    /// One tap's `i16` products for the column pair with activation offsets
    /// `x0` (low lane) and `x1` (high lane), over the 16 weight indices in
    /// `ix` (both lanes): rows 0–7, then rows 8–15.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn products(
        tables: &[[[u8; ROWS]; 2]; 256],
        x0: u8,
        x1: u8,
        ix: __m256i,
    ) -> (__m256i, __m256i) {
        let [lo0, hi0] = &tables[usize::from(x0)];
        let [lo1, hi1] = &tables[usize::from(x1)];
        // SAFETY: each pointer is to a borrowed 16-byte array, and the loads
        // are unaligned.
        let (lo, hi) = unsafe {
            (
                _mm256_loadu2_m128i(lo1.as_ptr().cast(), lo0.as_ptr().cast()),
                _mm256_loadu2_m128i(hi1.as_ptr().cast(), hi0.as_ptr().cast()),
            )
        };
        let (pl, ph) = (_mm256_shuffle_epi8(lo, ix), _mm256_shuffle_epi8(hi, ix));
        (_mm256_unpacklo_epi8(pl, ph), _mm256_unpackhi_epi8(pl, ph))
    }
}

/// [`approx_matmul`] with an **approximate accumulator**: every partial sum
/// goes through the behavioural adder instead of exact `+` — the paper's
/// outlook of combining "more than one approximation technique into the CNN
/// computation".
///
/// With [`ExactAdder`](axnn_axmul::adder::ExactAdder) this is bit-identical
/// to [`approx_matmul`].
///
/// Each output element folds its taps through the adder in ascending-`k`
/// order (zero weight codes skipped), exactly as the serial reference
/// kernel does; columns are processed in blocks of `JB` so the partial
/// sums and code segment stay cache-resident instead of striding the whole
/// `[K, M]` code matrix per output element.
///
/// # Panics
///
/// Panics if the slice lengths are inconsistent with `(oc, k, m)` or if an
/// input code is outside `[-128, 127]`.
#[allow(clippy::too_many_arguments)]
pub fn approx_matmul_with_adder(
    w_codes: &[i32],
    col_codes: &[i32],
    oc: usize,
    k: usize,
    m: usize,
    lut: &SignedLut,
    adder: &dyn axnn_axmul::adder::Adder,
    scale: f32,
) -> Tensor {
    let mut out = vec![0.0f32; oc * m];
    let xi = pack_x(col_codes);
    approx_matmul_with_adder_offsets(w_codes, &xi, oc, k, m, lut, adder, scale, &mut out);
    Tensor::from_vec(out, &[oc, m]).expect("one output per row and column")
}

/// [`approx_matmul_with_adder`] over activations already packed into `u8`
/// LUT offsets (`[K, M]`, `code + 128`), written into the row-major
/// `[OC, M]` `out` (every element overwritten).
#[allow(clippy::too_many_arguments)]
pub(crate) fn approx_matmul_with_adder_offsets(
    w_codes: &[i32],
    xi: &[u8],
    oc: usize,
    k: usize,
    m: usize,
    lut: &SignedLut,
    adder: &dyn axnn_axmul::adder::Adder,
    scale: f32,
    out: &mut [f32],
) {
    assert_eq!(w_codes.len(), oc * k, "weight code matrix size mismatch");
    assert_eq!(xi.len(), k * m, "input code matrix size mismatch");
    assert_eq!(out.len(), oc * m, "output matrix size mismatch");
    if oc == 0 || m == 0 {
        return;
    }
    count_approx_ops(w_codes, m);
    axnn_par::par_chunks_mut(out, m, |i, out_row| {
        let w_row_codes = &w_codes[i * k..(i + 1) * k];
        let mut acc = [0i64; JB];
        let mut j0 = 0;
        while j0 < m {
            let jn = (m - j0).min(JB);
            acc[..jn].fill(0);
            for (kk, &wik) in w_row_codes.iter().enumerate() {
                if wik == 0 {
                    continue;
                }
                let row = lut.w_row(wik);
                let x_seg = &xi[kk * m + j0..kk * m + j0 + jn];
                for (a, &x) in acc[..jn].iter_mut().zip(x_seg) {
                    *a = adder.add(*a, row[x as usize] as i64);
                }
            }
            for (o, &a) in out_row[j0..j0 + jn].iter_mut().zip(&acc[..jn]) {
                *o = a as f32 * scale;
            }
            j0 += jn;
        }
    });
}

/// The original serial kernels, kept verbatim as the bit-identity oracle
/// for the blocked/parallel paths above and as the single-thread baseline
/// for the thread-scaling benchmarks.
pub mod reference {
    use super::*;

    /// Serial row-at-a-time `approx_matmul` (original implementation).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths are inconsistent with `(oc, k, m)`.
    pub fn approx_matmul(
        w_codes: &[i32],
        col_codes: &[i32],
        oc: usize,
        k: usize,
        m: usize,
        lut: &SignedLut,
        scale: f32,
    ) -> Tensor {
        assert_eq!(w_codes.len(), oc * k, "weight code matrix size mismatch");
        assert_eq!(col_codes.len(), k * m, "input code matrix size mismatch");
        let mut out = vec![0.0f32; oc * m];
        for i in 0..oc {
            let w_row = &w_codes[i * k..(i + 1) * k];
            // Accumulate into an i64 row to keep the integer semantics exact.
            let mut acc = vec![0i64; m];
            for (kk, &wik) in w_row.iter().enumerate() {
                if wik == 0 {
                    continue; // exact and approximate products are both zero
                }
                let col_row = &col_codes[kk * m..(kk + 1) * m];
                for (a, &xkj) in acc.iter_mut().zip(col_row) {
                    *a += lut.get(xkj, wik);
                }
            }
            for (o, a) in out[i * m..(i + 1) * m].iter_mut().zip(&acc) {
                *o = *a as f32 * scale;
            }
        }
        Tensor::from_vec(out, &[oc, m]).expect("size computed above")
    }

    /// Serial element-at-a-time `approx_matmul_with_adder` (original
    /// implementation, column-strided inner loop and all).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths are inconsistent with `(oc, k, m)`.
    #[allow(clippy::too_many_arguments)]
    pub fn approx_matmul_with_adder(
        w_codes: &[i32],
        col_codes: &[i32],
        oc: usize,
        k: usize,
        m: usize,
        lut: &SignedLut,
        adder: &dyn axnn_axmul::adder::Adder,
        scale: f32,
    ) -> Tensor {
        assert_eq!(w_codes.len(), oc * k, "weight code matrix size mismatch");
        assert_eq!(col_codes.len(), k * m, "input code matrix size mismatch");
        let mut out = vec![0.0f32; oc * m];
        for i in 0..oc {
            let w_row = &w_codes[i * k..(i + 1) * k];
            for j in 0..m {
                let mut acc = 0i64;
                for (kk, &wik) in w_row.iter().enumerate() {
                    if wik == 0 {
                        continue;
                    }
                    acc = adder.add(acc, lut.get(col_codes[kk * m + j], wik));
                }
                out[i * m + j] = acc as f32 * scale;
            }
        }
        Tensor::from_vec(out, &[oc, m]).expect("size computed above")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axnn_axmul::adder::{Adder, ExactAdder, LoaAdder, TruncAdder};
    use axnn_axmul::{EvoLikeMul, ExactMul, TruncatedMul};
    use axnn_rng::{cases, Rng};
    use axnn_tensor::gemm;
    use std::sync::{Mutex, MutexGuard};

    fn codes(v: &[i32]) -> Vec<i32> {
        v.to_vec()
    }

    /// Serializes the tests that set the process-wide thread count.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    #[should_panic(expected = "x code 200 out of range")]
    fn approx_matmul_rejects_an_out_of_range_code() {
        let lut = SignedLut::build(&ExactMul);
        approx_matmul(&[1], &[200], 1, 1, 1, &lut, 1.0);
    }

    #[test]
    #[should_panic(expected = "x code -129 out of range")]
    fn approx_matmul_with_adder_rejects_an_out_of_range_code() {
        let lut = SignedLut::build(&ExactMul);
        approx_matmul_with_adder(&[1], &[-129], 1, 1, 1, &lut, &ExactAdder, 1.0);
    }

    #[test]
    #[should_panic(expected = "w code 8 out of range")]
    fn approx_matmul_rejects_a_weight_code_above_7() {
        let lut = SignedLut::build(&ExactMul);
        approx_matmul(&[8], &[1], 1, 1, 1, &lut, 1.0);
    }

    #[test]
    #[should_panic(expected = "w code -9 out of range")]
    fn approx_matmul_rejects_a_weight_code_below_minus_8() {
        let lut = SignedLut::build(&ExactMul);
        approx_matmul(&[0, -9], &[1, 1], 1, 2, 1, &lut, 1.0);
    }

    /// The widest multiplier the LUT admits: products up to 2^15 − 1, most
    /// of them above 2^14, so the shuffle kernel sums one tap per `i16`
    /// chunk and two same-sign taps would already overflow it.
    #[derive(Debug)]
    struct Widest;

    impl axnn_axmul::Multiplier for Widest {
        fn mul_mag(&self, x: u32, w: u32) -> u32 {
            (32 * x * w).min(i16::MAX as u32)
        }

        fn name(&self) -> &str {
            "widest"
        }
    }

    /// The plain kernel's arms on this machine, each called directly.
    type Arm = fn(&[i32], &[u8], usize, usize, &SignedLut, f32, &mut [f32]);
    fn arms() -> Vec<(&'static str, Arm)> {
        let mut arms: Vec<(&'static str, Arm)> = vec![("tiled", tiled_matmul)];
        #[cfg(target_arch = "x86_64")]
        if shuffle::available() {
            arms.push(("shuffle", shuffle::matmul));
        }
        arms
    }

    /// Both arms of the plain kernel against the serial reference, bit for
    /// bit: shapes spanning several tiles with remainders on both axes (oc
    /// 1–40: two 16-row blocks plus a short one; odd m, the shuffle kernel's
    /// column-pair tail), k up to 110 (four `trunc5` `i16` chunks), sparse to
    /// dense zero weights, the extreme codes −128 and −8, a multiplier with
    /// products up to 2^15 − 1 (one tap per chunk), at 1 thread and at
    /// several.
    #[test]
    fn tiled_kernel_bit_matches_reference() {
        let luts = [
            SignedLut::build(&ExactMul),
            SignedLut::build(&TruncatedMul::new(5)),
            SignedLut::build(&EvoLikeMul::calibrated(249, 0.488)),
            SignedLut::build(&Widest),
        ];
        assert_eq!(luts[3].max_abs(), i32::from(i16::MAX));
        let arms = arms();
        for &(arm, kernel) in &arms {
            let mut out = [f32::NAN; 6];
            kernel(&[], &[], 0, 2, &luts[0], 1.0, &mut out);
            assert_eq!(out, [0.0; 6], "{arm} with k = 0");
        }
        cases(64, |mut rng| {
            let oc = rng.gen_range(1usize..=40);
            let k = rng.gen_range(1usize..=110);
            let m = rng.gen_range(1usize..=3 * JP + 40);
            let zeros: f32 = rng.gen();
            let w: Vec<i32> = (0..oc * k)
                .map(|_| match rng.gen::<f32>() < zeros {
                    true => 0,
                    false => match rng.gen_range(0..8) {
                        0 => -8,
                        _ => rng.gen_range(-8..=7),
                    },
                })
                .collect();
            let x: Vec<i32> = (0..k * m)
                .map(|_| match rng.gen_range(0..8) {
                    0 => -128,
                    _ => rng.gen_range(-128..=127),
                })
                .collect();
            let lut = &luts[rng.gen_range(0..luts.len())];
            let want = bits(&reference::approx_matmul(&w, &x, oc, k, m, lut, 0.37));
            let xi = pack_x(&x);
            let _g = serial();
            for threads in [1, rng.gen_range(2..=5)] {
                axnn_par::set_threads(threads);
                for &(arm, kernel) in &arms {
                    let mut out = vec![f32::NAN; oc * m];
                    kernel(&w, &xi, k, m, lut, 0.37, &mut out);
                    let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                    assert!(
                        got == want,
                        "{arm} {oc}x{k}x{m} lut={} threads={threads}",
                        lut.name()
                    );
                }
            }
            axnn_par::set_threads(0);
        });
    }

    #[test]
    fn exact_lut_matches_f32_gemm() {
        let lut = SignedLut::build(&ExactMul);
        let w = codes(&[1, -2, 3, 0, 5, -6]); // [2, 3]
        let x = codes(&[7, -1, 2, 4, 0, -3]); // [3, 2]
        let y = approx_matmul(&w, &x, 2, 3, 2, &lut, 1.0);
        let wf = Tensor::from_vec(w.iter().map(|&v| v as f32).collect(), &[2, 3]).unwrap();
        let xf = Tensor::from_vec(x.iter().map(|&v| v as f32).collect(), &[3, 2]).unwrap();
        assert_eq!(y, gemm::matmul(&wf, &xf));
    }

    #[test]
    fn scale_is_applied() {
        let lut = SignedLut::build(&ExactMul);
        let y = approx_matmul(&[2], &[3], 1, 1, 1, &lut, 0.25);
        assert_eq!(y.as_slice(), &[1.5]);
    }

    #[test]
    fn truncated_gemm_never_exceeds_exact_magnitude() {
        let lut = SignedLut::build(&TruncatedMul::new(5));
        // All-positive codes so products accumulate one-sidedly.
        let w: Vec<i32> = (1..=6).collect();
        let x: Vec<i32> = (10..=21).map(|v| v * 5).collect();
        let approx = approx_matmul(&w, &x, 2, 3, 4, &lut, 1.0);
        let exact_lut = SignedLut::build(&ExactMul);
        let exact = approx_matmul(&w, &x, 2, 3, 4, &exact_lut, 1.0);
        for (a, e) in approx.as_slice().iter().zip(exact.as_slice()) {
            assert!(a <= e, "{a} > {e}");
            assert!(*a >= e - 6.0 * 32.0, "error bounded by taps × 2^t");
        }
    }

    #[test]
    fn exact_adder_matches_plain_approx_matmul() {
        let lut = SignedLut::build(&TruncatedMul::new(4));
        let w = codes(&[1, -2, 3, 0, 5, -6]);
        let x = codes(&[7, -1, 2, 4, 0, -3]);
        let plain = approx_matmul(&w, &x, 2, 3, 2, &lut, 0.5);
        let with_adder = approx_matmul_with_adder(&w, &x, 2, 3, 2, &lut, &ExactAdder, 0.5);
        assert_eq!(plain, with_adder);
    }

    #[test]
    fn loa_accumulation_adds_further_error() {
        let lut = SignedLut::build(&ExactMul);
        // Long accumulation with positive odd products exercises the OR'd
        // low bits on almost every step.
        let k = 32usize;
        let w: Vec<i32> = (0..k).map(|i| 1 + (i as i32 % 7)).collect();
        let x: Vec<i32> = (0..k).map(|i| 1 + (i as i32 % 13) * 2).collect();
        let exact = approx_matmul_with_adder(&w, &x, 1, k, 1, &lut, &ExactAdder, 1.0);
        let loa = approx_matmul_with_adder(&w, &x, 1, k, 1, &lut, &LoaAdder::new(4), 1.0);
        assert_ne!(exact, loa, "LOA must perturb a long accumulation");
        let rel = (loa.as_slice()[0] - exact.as_slice()[0]).abs() / exact.as_slice()[0];
        assert!(rel < 0.25, "LOA error stays moderate: {rel}");
    }

    #[test]
    fn zero_weights_short_circuit_to_zero() {
        let lut = SignedLut::build(&TruncatedMul::new(5));
        let y = approx_matmul(&[0, 0], &[99, -99], 1, 2, 1, &lut, 1.0);
        assert_eq!(y.as_slice(), &[0.0]);
    }

    /// The row-parallel adder kernel must reproduce the serial reference
    /// bit for bit, across multiplier models, adders, odd shapes (the `JB`
    /// edge) and thread counts. (`tiled_kernel_bit_matches_reference`
    /// covers the plain kernel.)
    #[test]
    fn blocked_kernels_bit_match_reference() {
        let _g = serial();
        let luts = [
            SignedLut::build(&ExactMul),
            SignedLut::build(&TruncatedMul::new(4)),
            SignedLut::build(&EvoLikeMul::calibrated(228, 0.19)),
        ];
        let adders: [&dyn Adder; 3] = [&ExactAdder, &LoaAdder::new(4), &TruncAdder::new(3)];
        for (shape_idx, &(oc, k, m)) in [
            (1, 1, 1),
            (2, 3, 2),
            (4, 8, 16),
            (5, 7, 9),
            (9, 13, 300),
            (16, 20, 6),
        ]
        .iter()
        .enumerate()
        {
            let mut rng = Rng::seed(shape_idx as u64);
            let w: Vec<i32> = (0..oc * k).map(|_| rng.gen_range(-7..=7)).collect();
            let x: Vec<i32> = (0..k * m).map(|_| rng.gen_range(-127..=127)).collect();
            for lut in &luts {
                for adder in adders {
                    let want = bits(&reference::approx_matmul_with_adder(
                        &w, &x, oc, k, m, lut, adder, 0.125,
                    ));
                    for threads in [1, 3, 8] {
                        axnn_par::set_threads(threads);
                        let got = approx_matmul_with_adder(&w, &x, oc, k, m, lut, adder, 0.125);
                        assert!(
                            bits(&got) == want,
                            "with_adder {oc}x{k}x{m} lut={} adder={} threads={threads}",
                            lut.name(),
                            adder.name()
                        );
                    }
                }
            }
        }
        axnn_par::set_threads(0);
    }
}
