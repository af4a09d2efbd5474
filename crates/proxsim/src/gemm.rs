//! Approximate integer GEMM over quantizer codes (paper eq. 4).
//!
//! The hot loops are organised around the w-major [`SignedLut`] layout:
//! activations arrive as `u8` table offsets (`code + 128`, 4× denser in
//! cache than `i32` codes; the 8A4W executor quantizes straight into them, the
//! public `i32`-code entry points pack them once), and each weight code
//! pins one contiguous 1 KiB LUT row while a whole activation stripe
//! streams past it. Work is partitioned across threads by output row, so
//! every output element is produced by exactly one thread with the same
//! k-ascending accumulation order as the serial
//! [`reference`](mod@reference) kernels — results are bit-identical for
//! any thread count (and, since the accumulator is exact `i64`, for
//! [`approx_matmul`] the order could not matter anyway).

use crate::signed_lut::SignedLut;
use axnn_tensor::Tensor;

/// Weight rows sharing one streamed activation stripe per block.
const IB: usize = 4;

/// Column block for the approximate-accumulator path: `JB` i64 partial sums
/// plus the matching code segment stay L1-resident across the k loop.
const JB: usize = 256;

/// All-zero stand-in for the LUT row of a zero weight code: the reference
/// kernels skip `w = 0` taps outright (comment there: "exact and approximate
/// products are both zero"), and adding 0 to an exact integer accumulator is
/// the bit-identical branchless equivalent.
static ZERO_ROW: [i32; 256] = [0; 256];

/// Packs `i32` activation codes into `u8` LUT offsets (`code + 128`).
///
/// # Panics
///
/// Panics (in debug builds) if a code is outside `[-128, 127]`.
fn pack_x(col_codes: &[i32]) -> Vec<u8> {
    col_codes
        .iter()
        .map(|&x| {
            debug_assert!((-128..=127).contains(&x), "x code {x} out of range");
            (x + 128) as u8
        })
        .collect()
}

/// Computes `ỹᵢⱼ = Σₖ g̃(Wᵢₖ, Xₖⱼ)` over integer codes, accumulating in
/// `i64`, and returns the result scaled by `scale = s_w · s_x` as an f32
/// tensor of shape `[OC, M]`.
///
/// `w_codes` is the row-major `[OC, K]` weight-code matrix and `col_codes`
/// the `[K, M]` input-code matrix.
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
    let mut out = vec![0.0f32; oc * m];
    approx_matmul_offsets(w_codes, &pack_x(col_codes), oc, k, m, lut, scale, &mut out);
    Tensor::from_vec(out, &[oc, m]).expect("one output per row and column")
}

/// [`approx_matmul`] over activations already packed into `u8` LUT offsets
/// (`[K, M]`, `code + 128`), written into the row-major `[OC, M]` `out`
/// (every element overwritten).
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
    if oc == 0 || m == 0 {
        return;
    }
    count_approx_ops(w_codes, m);
    axnn_par::par_chunks_mut(out, IB * m, |blk, out_blk| {
        let rows = out_blk.len() / m;
        approx_rows(w_codes, xi, blk * IB, rows, k, m, lut, scale, out_blk);
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
#[inline]
fn lut_row(lut: &SignedLut, w: i32) -> &[i32] {
    if w == 0 {
        &ZERO_ROW
    } else {
        lut.w_row(w)
    }
}

/// Accumulates `rows` output rows starting at `i0`, blocking `IB` weight
/// rows over one streamed activation stripe (each packed-code load feeds
/// `IB` gathers) and unrolling k by two (each accumulator load/store is
/// amortised over two taps). Per output element the taps still fold in
/// ascending-k order, so the result is bit-identical to the serial
/// reference kernel.
#[allow(clippy::too_many_arguments)]
fn approx_rows(
    w_codes: &[i32],
    xi: &[u8],
    i0: usize,
    rows: usize,
    k: usize,
    m: usize,
    lut: &SignedLut,
    scale: f32,
    out_blk: &mut [f32],
) {
    let mut acc = vec![0i64; rows * m];
    let mut r = 0;
    while r + IB <= rows {
        let (head, _) = acc.split_at_mut((r + IB) * m);
        let (_, blk) = head.split_at_mut(r * m);
        let (a0, blk) = blk.split_at_mut(m);
        let (a1, blk) = blk.split_at_mut(m);
        let (a2, a3) = blk.split_at_mut(m);
        let w_at = |rr: usize, kk: usize| w_codes[(i0 + r + rr) * k + kk];
        let mut kk = 0;
        while kk + 2 <= k {
            let x0_row = &xi[kk * m..(kk + 1) * m];
            let x1_row = &xi[(kk + 1) * m..(kk + 2) * m];
            let r00 = lut_row(lut, w_at(0, kk));
            let r01 = lut_row(lut, w_at(0, kk + 1));
            let r10 = lut_row(lut, w_at(1, kk));
            let r11 = lut_row(lut, w_at(1, kk + 1));
            let r20 = lut_row(lut, w_at(2, kk));
            let r21 = lut_row(lut, w_at(2, kk + 1));
            let r30 = lut_row(lut, w_at(3, kk));
            let r31 = lut_row(lut, w_at(3, kk + 1));
            for (((((&x0, &x1), a0), a1), a2), a3) in x0_row
                .iter()
                .zip(x1_row)
                .zip(a0.iter_mut())
                .zip(a1.iter_mut())
                .zip(a2.iter_mut())
                .zip(a3.iter_mut())
            {
                let (x0, x1) = (x0 as usize, x1 as usize);
                *a0 = *a0 + r00[x0] as i64 + r01[x1] as i64;
                *a1 = *a1 + r10[x0] as i64 + r11[x1] as i64;
                *a2 = *a2 + r20[x0] as i64 + r21[x1] as i64;
                *a3 = *a3 + r30[x0] as i64 + r31[x1] as i64;
            }
            kk += 2;
        }
        if kk < k {
            let x_row = &xi[kk * m..(kk + 1) * m];
            let r0 = lut_row(lut, w_at(0, kk));
            let r1 = lut_row(lut, w_at(1, kk));
            let r2 = lut_row(lut, w_at(2, kk));
            let r3 = lut_row(lut, w_at(3, kk));
            for ((((&x, a0), a1), a2), a3) in x_row
                .iter()
                .zip(a0.iter_mut())
                .zip(a1.iter_mut())
                .zip(a2.iter_mut())
                .zip(a3.iter_mut())
            {
                let x = x as usize;
                *a0 += r0[x] as i64;
                *a1 += r1[x] as i64;
                *a2 += r2[x] as i64;
                *a3 += r3[x] as i64;
            }
        }
        r += IB;
    }
    // Tail rows (fewer than IB left in this block).
    for rr in r..rows {
        let a = &mut acc[rr * m..(rr + 1) * m];
        for kk in 0..k {
            let wik = w_codes[(i0 + rr) * k + kk];
            if wik == 0 {
                continue;
            }
            let row = lut.w_row(wik);
            let x_row = &xi[kk * m..(kk + 1) * m];
            for (a_j, &x) in a.iter_mut().zip(x_row) {
                *a_j += row[x as usize] as i64;
            }
        }
    }
    for (o, &a) in out_blk.iter_mut().zip(&acc) {
        *o = a as f32 * scale;
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
    use axnn_rng::Rng;
    use axnn_tensor::gemm;

    fn codes(v: &[i32]) -> Vec<i32> {
        v.to_vec()
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

    /// The blocked/parallel kernels must reproduce the original serial
    /// kernels bit-for-bit, across multiplier models, odd shapes (exercising
    /// the `IB` tail and `JB` edge) and thread counts.
    #[test]
    fn blocked_kernels_bit_match_reference() {
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
                let want = reference::approx_matmul(&w, &x, oc, k, m, lut, 0.125);
                for threads in [1, 3, 8] {
                    axnn_par::set_threads(threads);
                    let got = approx_matmul(&w, &x, oc, k, m, lut, 0.125);
                    let same = want
                        .as_slice()
                        .iter()
                        .zip(got.as_slice())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(same, "approx_matmul {}x{}x{} lut={}", oc, k, m, lut.name());
                }
                for adder in adders {
                    let want =
                        reference::approx_matmul_with_adder(&w, &x, oc, k, m, lut, adder, 0.125);
                    let got = approx_matmul_with_adder(&w, &x, oc, k, m, lut, adder, 0.125);
                    let same = want
                        .as_slice()
                        .iter()
                        .zip(got.as_slice())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(
                        same,
                        "with_adder {}x{}x{} lut={} adder={}",
                        oc,
                        k,
                        m,
                        lut.name(),
                        adder.name()
                    );
                }
            }
        }
        axnn_par::set_threads(1);
    }
}
