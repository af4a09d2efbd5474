//! Implicit-GEMM direct convolution for the compiled graph executor.
//!
//! [`crate::im2col`] lowers a convolution to `W_mat · col`, which is how the
//! interpreter computes it, and how the 8A4W executors lower their
//! quantized activations (as `f32` columns, or as `u8` LUT offsets) in both
//! engines. For the *exact* executor the column matrix is pure overhead: every entry is either a copy of an
//! input element or a padding zero, and on paper-scale models the gather
//! costs several times the GEMM that consumes it. [`conv2d_bias_act_into`]
//! computes the same fused `ep(W·col + bias)` product while reading the
//! input almost in place — no `K·K`-fold column expansion, no
//! `[OC, M] → NCHW` shuffle: the epilogued result is written straight into
//! the output activation.
//!
//! # How it stays fast without im2col
//!
//! Per image, the group's channels are copied once into a small
//! zero-padded `[CG, H+2P, W+2P]` scratch, one buffer per thread reused
//! across images and calls (for paper-scale layers a few KB, L1-resident —
//! roughly `K·K` times less data movement than the column gather). An
//! unpadded conv (every 1×1 conv, a lowered `Linear` among them) reads the
//! group's contiguous `[CG, H, W]` span in place instead. With the borders
//! materialised, every kernel tap reads a plain contiguous row segment, so
//! the inner tiles have no bounds logic at all: `CR×{16,8,4}` accumulator
//! blocks stay in registers across the whole tap loop, exactly like the
//! GEMM micro-kernels.
//!
//! # Bit-identity to the im2col lowering
//!
//! Each output element is folded in **ascending tap order from a `+0.0`
//! start**: the `(ci, kh, kw)` loop nest enumerates taps in exactly the
//! column-row order `r = (ci·KH + kh)·KW + kw` of
//! [`crate::im2col::im2col`], and padding taps are multiplied as explicit
//! zeros from the padded scratch — the very same per-element operation
//! sequence as the GEMM over the column matrix, so results are
//! bit-identical to [`crate::gemm::matmul_bias_act_into`] on `im2col`
//! output.
//!
//! # Parallelism and determinism
//!
//! Work is partitioned by image (`N` chunks of the output), each output
//! element written by exactly one thread, and the per-element fold is a
//! fixed serial sequence — results are bit-identical for any
//! `AXNN_THREADS` setting, the same contract as [`crate::gemm`]. As there,
//! the kernel body is additionally compiled with AVX2 enabled on x86-64
//! and selected at runtime: wider registers, identical operation sequence.

use crate::gemm::Epilogue;
use crate::im2col::ConvGeometry;
use crate::Tensor;
use std::cell::RefCell;

/// Output-channel rows per accumulator block.
const CR: usize = 4;
/// Widest output-pixel tile (the accumulator block is [`CR`]`×CW` floats).
const CW: usize = 16;

/// Everything the inner kernel needs to address one conv group.
#[derive(Clone, Copy)]
struct Geom {
    /// Kernel size, stride, padding.
    k: usize,
    s: usize,
    p: usize,
    /// Input: spatial size, channels in this group.
    h: usize,
    w: usize,
    cg: usize,
    /// Output: rows (group-local out channels), spatial size, taps per row.
    ocg: usize,
    oh: usize,
    ow: usize,
    kpg: usize,
    /// Padded scratch spatial size.
    ph: usize,
    pw: usize,
}

/// Computes `ep(conv2d(input[:, c0..c0+CG], w) + bias)` directly into the
/// NCHW output block `out`, overwriting every element this group owns.
///
/// * `w` — `[OCG, CG·K·K]` weight rows of one group (`CG` inferred).
/// * `input` — the full activation, row-major `dims = [N, C, H, W]`; the
///   kernel reads channels `[c0, c0 + CG)`, so grouped convolutions need
///   no channel-slice copy.
/// * `out` — the full NCHW output buffer *offset to this group's first
///   channel row* (`&mut full[g·OCG·OH·OW..]`), with `out_channels` total
///   channels per image. Output element `(n, r, oy, ox)` lands at
///   `n·out_channels·OH·OW + r·OH·OW + oy·OW + ox`.
/// * `bias` — one value per group-local output row; `None` performs no add
///   at all (`x + 0.0` is not bit-neutral for `x = -0.0`).
///
/// # Panics
///
/// Panics on shape mismatches between `w`, `input`, `geom`, `bias`, and
/// `out`.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_bias_act_into(
    w: &Tensor,
    input: &[f32],
    dims: [usize; 4],
    c0: usize,
    geom: ConvGeometry,
    bias: Option<&[f32]>,
    ep: Epilogue,
    out: &mut [f32],
    out_channels: usize,
) {
    assert_eq!(w.shape().len(), 2, "conv2d weight must be [OCG, CG*K*K]");
    let (ocg, kpg) = (w.shape()[0], w.shape()[1]);
    let [n, c, h, wd] = dims;
    assert_eq!(input.len(), n * c * h * wd, "conv2d input is not NCHW dims");
    let k = geom.kernel;
    assert!(k > 0 && kpg % (k * k) == 0, "weight columns not CG*K*K");
    let cg = kpg / (k * k);
    assert!(c0 + cg <= c, "conv2d group channels out of range");
    assert!(ocg <= out_channels, "group rows exceed output channels");
    let (oh, ow) = (geom.out_dim(h), geom.out_dim(wd));
    let n_stride = out_channels * oh * ow;
    if let Some(b) = bias {
        assert_eq!(b.len(), ocg, "conv2d bias length mismatch");
    }
    if n == 0 || ocg == 0 || oh * ow == 0 {
        return;
    }
    assert!(
        out.len() >= (n - 1) * n_stride + ocg * oh * ow,
        "conv2d output buffer too short"
    );

    let g = Geom {
        k,
        s: geom.stride,
        p: geom.pad,
        h,
        w: wd,
        cg,
        ocg,
        oh,
        ow,
        kpg,
        ph: h + 2 * geom.pad,
        pw: wd + 2 * geom.pad,
    };
    let wv = w.as_slice();
    // One chunk per image; each output element has exactly one writer.
    axnn_par::par_chunks_mut(out, n_stride, |ni, img| {
        let span = &input[(ni * c + c0) * h * wd..][..cg * h * wd];
        dispatch_image(wv, span, bias, ep, img, g);
    });
}

thread_local! {
    /// The border-padded `[CG, H+2P, W+2P]` copy of one image's group
    /// channels, one buffer per thread, grown to the largest conv once.
    static PADDED: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Routes one image's group channels `span` (`[CG, H, W]`; `[CG, PH, PW]`
/// once padded) to the widest kernel the CPU supports, through the
/// thread's padded copy when the conv pads.
fn dispatch_image(
    wv: &[f32],
    span: &[f32],
    bias: Option<&[f32]>,
    ep: Epilogue,
    img: &mut [f32],
    g: Geom,
) {
    if g.p > 0 {
        // Border-padded copy of the span, which has no padding left to
        // add: every tap below reads a plain in-bounds row segment, and
        // padding taps multiply explicit zeros exactly as the column
        // matrix holds them.
        return PADDED.with_borrow_mut(|pad| {
            pad.clear();
            pad.resize(g.cg * g.ph * g.pw, 0.0);
            for ci in 0..g.cg {
                let d0 = ci * g.ph * g.pw + g.p * g.pw + g.p;
                for ih in 0..g.h {
                    let row = &span[(ci * g.h + ih) * g.w..][..g.w];
                    pad[d0 + ih * g.pw..][..g.w].copy_from_slice(row);
                }
            }
            dispatch_image(wv, pad, bias, ep, img, Geom { p: 0, ..g });
        });
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: guarded by the runtime AVX2 check above.
        unsafe { conv_image_avx2(wv, span, bias, ep, img, g) };
        return;
    }
    conv_image(wv, span, bias, ep, img, g);
}

/// The scalar body recompiled with AVX2 enabled — same operation sequence,
/// wider registers (no FMA contraction, as in [`crate::gemm`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn conv_image_avx2(
    wv: &[f32],
    pad: &[f32],
    bias: Option<&[f32]>,
    ep: Epilogue,
    img: &mut [f32],
    g: Geom,
) {
    conv_image(wv, pad, bias, ep, img, g);
}

/// Direct convolution of one image over its padded scratch: [`CR`]×`TW`
/// accumulator tiles per (output row block, raster row, pixel tile),
/// folding taps in ascending `(ci, kh, kw)` order per element.
#[inline(always)]
fn conv_image(
    wv: &[f32],
    pad: &[f32],
    bias: Option<&[f32]>,
    ep: Epilogue,
    img: &mut [f32],
    g: Geom,
) {
    let mut oc0 = 0;
    while oc0 < g.ocg {
        let rows = (g.ocg - oc0).min(CR);
        for ohi in 0..g.oh {
            let mut ow0 = 0;
            while ow0 < g.ow {
                let rem = g.ow - ow0;
                // Full tiles keep the whole CR×TW accumulator block in
                // registers across the tap loop; the stride-1 segment
                // loads are contiguous. Everything else (edge widths,
                // short row blocks, strided kernels) takes the generic
                // tile — same fold, scalar addressing.
                let cw = if rows == CR && g.s == 1 {
                    match rem {
                        _ if rem >= CW => tile_full::<CW>(wv, pad, bias, ep, img, oc0, ohi, ow0, g),
                        _ if rem >= 8 => tile_full::<8>(wv, pad, bias, ep, img, oc0, ohi, ow0, g),
                        _ if rem >= 4 => tile_full::<4>(wv, pad, bias, ep, img, oc0, ohi, ow0, g),
                        _ => tile_any(wv, pad, bias, ep, img, oc0, rows, ohi, ow0, rem.min(CW), g),
                    }
                } else {
                    tile_any(wv, pad, bias, ep, img, oc0, rows, ohi, ow0, rem.min(CW), g)
                };
                ow0 += cw;
            }
        }
        oc0 += rows;
    }
}

/// One stride-1 `CR×TW` tile with compile-time width: no bounds logic, no
/// branches in the tap loop.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tile_full<const TW: usize>(
    wv: &[f32],
    pad: &[f32],
    bias: Option<&[f32]>,
    ep: Epilogue,
    img: &mut [f32],
    oc0: usize,
    ohi: usize,
    ow0: usize,
    g: Geom,
) -> usize {
    let mut acc = [[0.0f32; TW]; CR];
    for ci in 0..g.cg {
        let cbase = ci * g.ph * g.pw;
        for kh in 0..g.k {
            let rbase = cbase + (ohi + kh) * g.pw + ow0;
            for kw in 0..g.k {
                let seg = &pad[rbase + kw..rbase + kw + TW];
                let widx = (ci * g.k + kh) * g.k + kw;
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    let a = wv[(oc0 + r) * g.kpg + widx];
                    for (d, &v) in acc_r.iter_mut().zip(seg) {
                        *d += a * v;
                    }
                }
            }
        }
    }
    store_tile(&acc, CR, TW, bias, ep, img, oc0, ohi, ow0, g);
    TW
}

/// Generic tile: any stride, row count and width — the same ascending-tap
/// fold with runtime addressing.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tile_any(
    wv: &[f32],
    pad: &[f32],
    bias: Option<&[f32]>,
    ep: Epilogue,
    img: &mut [f32],
    oc0: usize,
    rows: usize,
    ohi: usize,
    ow0: usize,
    cw: usize,
    g: Geom,
) -> usize {
    let mut acc = [[0.0f32; CW]; CR];
    for ci in 0..g.cg {
        let cbase = ci * g.ph * g.pw;
        for kh in 0..g.k {
            let rbase = cbase + (ohi * g.s + kh) * g.pw;
            for kw in 0..g.k {
                let widx = (ci * g.k + kh) * g.k + kw;
                for (r, acc_r) in acc.iter_mut().enumerate().take(rows) {
                    let a = wv[(oc0 + r) * g.kpg + widx];
                    for (j, d) in acc_r.iter_mut().enumerate().take(cw) {
                        *d += a * pad[rbase + (ow0 + j) * g.s + kw];
                    }
                }
            }
        }
    }
    store_tile(&acc, rows, cw, bias, ep, img, oc0, ohi, ow0, g);
    cw
}

/// Applies the bias/activation epilogue and writes one tile's rows to the
/// NCHW output block.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn store_tile<const TW: usize>(
    acc: &[[f32; TW]],
    rows: usize,
    cw: usize,
    bias: Option<&[f32]>,
    ep: Epilogue,
    img: &mut [f32],
    oc0: usize,
    ohi: usize,
    ow0: usize,
    g: Geom,
) {
    let ohw = g.oh * g.ow;
    for (r, acc_r) in acc.iter().enumerate().take(rows) {
        let d0 = (oc0 + r) * ohw + ohi * g.ow + ow0;
        let dst = &mut img[d0..d0 + cw];
        match bias {
            Some(b) => {
                let br = b[oc0 + r];
                for (d, &v) in dst.iter_mut().zip(acc_r) {
                    *d = ep.apply(v + br);
                }
            }
            None => {
                for (d, &v) in dst.iter_mut().zip(acc_r) {
                    *d = ep.apply(v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::im2col::{gemm_out_to_nchw_into, im2col};
    use crate::{gemm, init};
    use axnn_rng::Rng;

    /// The im2col + fused-GEMM reference, assembled to NCHW.
    fn reference(
        w: &Tensor,
        input: &Tensor,
        geom: ConvGeometry,
        bias: Option<&[f32]>,
        ep: Epilogue,
    ) -> Tensor {
        let (n, h, wd) = (input.shape()[0], input.shape()[2], input.shape()[3]);
        let (oh, ow) = (geom.out_dim(h), geom.out_dim(wd));
        let oc = w.shape()[0];
        let col = im2col(input, geom);
        let mat = gemm::matmul_bias_act(w, &col, bias, ep);
        let mut out = Tensor::zeros(&[n, oc, oh, ow]);
        gemm_out_to_nchw_into(&mat, n, oc, oh, ow, out.as_mut_slice());
        out
    }

    fn dims(t: &Tensor) -> [usize; 4] {
        t.shape().try_into().expect("NCHW")
    }

    fn bits(t: &[f32]) -> Vec<u32> {
        t.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn matches_im2col_gemm_bitwise_across_geometries() {
        let mut rng = Rng::seed(7);
        // (C, OC, H, W, k, s, p) — 3x3 same, 3x3 strided, 1x1, 5x5 heavy
        // padding, kernel larger than the 2-pixel input, rectangular input,
        // wide row exercising the 16/8/4 tile ladder.
        for (c, oc, h, w, k, s, p) in [
            (3, 5, 8, 8, 3, 1, 1),
            (4, 6, 9, 9, 3, 2, 1),
            (5, 7, 6, 6, 1, 1, 0),
            (2, 3, 7, 7, 5, 2, 2),
            (1, 2, 2, 2, 3, 1, 1),
            (3, 4, 5, 9, 3, 1, 1),
            (2, 4, 4, 30, 3, 1, 1),
        ] {
            for ep in [Epilogue::Identity, Epilogue::Relu, Epilogue::Relu6] {
                let geom = ConvGeometry::new(k, s, p);
                let input = init::uniform(&[2, c, h, w], -1.0, 1.0, &mut rng);
                let wm = init::uniform(&[oc, c * k * k], -1.0, 1.0, &mut rng);
                let bias: Vec<f32> = (0..oc).map(|i| 0.1 * i as f32 - 0.2).collect();
                for b in [None, Some(&bias[..])] {
                    let want = reference(&wm, &input, geom, b, ep);
                    let mut got = vec![0.0f32; want.len()];
                    let (x, d) = (input.as_slice(), dims(&input));
                    conv2d_bias_act_into(&wm, x, d, 0, geom, b, ep, &mut got, oc);
                    assert_eq!(
                        bits(want.as_slice()),
                        bits(&got),
                        "c={c} oc={oc} {h}x{w} k={k} s={s} p={p} ep={ep:?} bias={}",
                        b.is_some()
                    );
                }
            }
        }
    }

    #[test]
    fn grouped_slices_read_and_write_the_right_channels() {
        // A padded 3×3 copies each image; an unpadded 1×1 reads it in place.
        for k in [3, 1] {
            grouped_case(k);
        }
    }

    fn grouped_case(k: usize) {
        let taps = k * k;
        let mut rng = Rng::seed(11);
        let (c, oc, groups, h, w) = (6, 8, 2, 7, 7);
        let (cg, ocg) = (c / groups, oc / groups);
        let geom = ConvGeometry::new(k, 1, k / 2);
        let input = init::uniform(&[3, c, h, w], -1.0, 1.0, &mut rng);
        let wm = init::uniform(&[oc, cg * taps], -1.0, 1.0, &mut rng);
        let bias: Vec<f32> = (0..oc).map(|i| 0.05 * i as f32).collect();

        // Reference: slice channels per group, run the full-kernel path.
        let mut want = Tensor::zeros(&[3, oc, h, w]);
        for g in 0..groups {
            let mut xg = Tensor::zeros(&[3, cg, h, w]);
            for ni in 0..3 {
                for ci in 0..cg {
                    let s0 = (ni * c + g * cg + ci) * h * w;
                    let d0 = (ni * cg + ci) * h * w;
                    xg.as_mut_slice()[d0..d0 + h * w]
                        .copy_from_slice(&input.as_slice()[s0..s0 + h * w]);
                }
            }
            let wg = Tensor::from_vec(
                wm.as_slice()[g * ocg * cg * taps..(g + 1) * ocg * cg * taps].to_vec(),
                &[ocg, cg * taps],
            )
            .unwrap();
            let got_g = reference(
                &wg,
                &xg,
                geom,
                Some(&bias[g * ocg..(g + 1) * ocg]),
                Epilogue::Relu,
            );
            for ni in 0..3 {
                for r in 0..ocg {
                    let d0 = (ni * oc + g * ocg + r) * h * w;
                    let s0 = (ni * ocg + r) * h * w;
                    want.as_mut_slice()[d0..d0 + h * w]
                        .copy_from_slice(&got_g.as_slice()[s0..s0 + h * w]);
                }
            }
        }

        let mut got = vec![0.0f32; want.len()];
        for g in 0..groups {
            let wg = Tensor::from_vec(
                wm.as_slice()[g * ocg * cg * taps..(g + 1) * ocg * cg * taps].to_vec(),
                &[ocg, cg * taps],
            )
            .unwrap();
            conv2d_bias_act_into(
                &wg,
                input.as_slice(),
                dims(&input),
                g * cg,
                geom,
                Some(&bias[g * ocg..(g + 1) * ocg]),
                Epilogue::Relu,
                &mut got[g * ocg * h * w..],
                oc,
            );
        }
        assert_eq!(bits(want.as_slice()), bits(&got));
    }

    #[test]
    fn thread_count_does_not_change_bits() {
        let mut rng = Rng::seed(13);
        let geom = ConvGeometry::new(3, 1, 1);
        let input = init::uniform(&[4, 3, 8, 8], -1.0, 1.0, &mut rng);
        let wm = init::uniform(&[5, 27], -1.0, 1.0, &mut rng);
        let mut runs = Vec::new();
        for threads in [1, 3, 8] {
            axnn_par::set_threads(threads);
            let mut got = vec![0.0f32; 4 * 5 * 8 * 8];
            let x = input.as_slice();
            conv2d_bias_act_into(
                &wm,
                x,
                dims(&input),
                0,
                geom,
                None,
                Epilogue::Relu,
                &mut got,
                5,
            );
            runs.push(bits(&got));
        }
        axnn_par::set_threads(0);
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }
}
