//! Convolution lowering: `im2col` / `col2im` and layout shuffles.
//!
//! The paper computes convolutional layers as GEMMs (section III-B, "as in
//! ProxSim"); this module provides the lowering that turns an `[N, C, H, W]`
//! activation and an `[OC, C, KH, KW]` kernel into the matrices
//!
//! ```text
//!   W_mat : [OC, C·KH·KW]
//!   col   : [C·KH·KW, N·OH·OW]
//!   out   = W_mat · col : [OC, N·OH·OW]
//! ```
//!
//! plus the inverse scatter (`col2im`) needed for input gradients and the
//! layout shuffles between the GEMM output and NCHW activations.

use crate::Tensor;

/// Geometry of a 2-D convolution: kernel size, stride and zero padding
/// (square in both axes).
///
/// ```
/// use axnn_tensor::im2col::ConvGeometry;
///
/// let g = ConvGeometry::new(3, 1, 1);
/// assert_eq!(g.out_dim(8), 8); // "same" convolution
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvGeometry {
    /// Kernel height and width.
    pub kernel: usize,
    /// Stride in both axes.
    pub stride: usize,
    /// Zero padding on every border.
    pub pad: usize,
}

impl ConvGeometry {
    /// Creates a geometry descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize, pad: usize) -> Self {
        assert!(kernel > 0, "kernel size must be positive");
        assert!(stride > 0, "stride must be positive");
        Self {
            kernel,
            stride,
            pad,
        }
    }

    /// Output spatial size for an input of size `input`.
    ///
    /// # Panics
    ///
    /// Panics if the padded input is smaller than the kernel.
    pub fn out_dim(&self, input: usize) -> usize {
        let padded = input + 2 * self.pad;
        assert!(
            padded >= self.kernel,
            "padded input {} smaller than kernel {}",
            padded,
            self.kernel
        );
        (padded - self.kernel) / self.stride + 1
    }

    /// How many (output index, kernel tap) pairs read each of the `len`
    /// input indices along one axis. A pixel `(ih, iw)` is copied into
    /// `counts(h)[ih] · counts(w)[iw]` entries of each image's columns.
    ///
    /// ```
    /// use axnn_tensor::im2col::ConvGeometry;
    ///
    /// // 3x3, stride 1, "same": border pixels are read by 2 taps, others by 3.
    /// assert_eq!(ConvGeometry::new(3, 1, 1).tap_counts(4), vec![2, 3, 3, 2]);
    /// ```
    ///
    /// # Panics
    ///
    /// As [`out_dim`](Self::out_dim).
    pub fn tap_counts(&self, len: usize) -> Vec<u64> {
        let mut counts = vec![0; len];
        for o in 0..self.out_dim(len) {
            for t in 0..self.kernel {
                if let Some(i) = tap_index(o, self.stride, t, self.pad, len) {
                    counts[i] += 1;
                }
            }
        }
        counts
    }
}

/// Lowers an `[N, C, H, W]` tensor to the `[C·KH·KW, N·OH·OW]` column matrix.
///
/// Column `q = (n·OH + oh)·OW + ow` holds the receptive field of output pixel
/// `(n, oh, ow)`; row `r = (c·KH + kh)·KW + kw` selects one tap. Out-of-bounds
/// taps (from padding) are zero.
///
/// # Panics
///
/// Panics if `input` is not 4-D.
pub fn im2col(input: &Tensor, geom: ConvGeometry) -> Tensor {
    assert_eq!(input.shape().len(), 4, "im2col requires an NCHW tensor");
    let (c, h, w) = (input.shape()[1], input.shape()[2], input.shape()[3]);
    let k = geom.kernel;
    let rows = c * k * k;
    let cols = input.shape()[0] * geom.out_dim(h) * geom.out_dim(w);
    let mut out = Tensor::zeros(&[rows, cols]);
    im2col_into(input, geom, &mut out);
    out
}

/// As [`im2col`], but gathers into a caller-provided `[C·KH·KW, N·OH·OW]`
/// buffer (every element is overwritten, padding taps with zero, so the
/// buffer may hold stale data from a previous call). Compiled-graph plans
/// reuse one column buffer per conv this way instead of allocating per
/// call.
///
/// # Panics
///
/// Panics if `input` is not 4-D or `out` does not have the column-matrix
/// shape implied by `(input, geom)`.
pub fn im2col_into(input: &Tensor, geom: ConvGeometry, out: &mut Tensor) {
    assert_eq!(input.shape().len(), 4, "im2col requires an NCHW tensor");
    let dims = [
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    ];
    let rows = dims[1] * geom.kernel * geom.kernel;
    let cols = dims[0] * geom.out_dim(dims[2]) * geom.out_dim(dims[3]);
    assert_eq!(
        out.shape(),
        &[rows, cols],
        "im2col output buffer shape inconsistent with input/geometry"
    );
    im2col_slice_into(
        input.as_slice(),
        dims,
        0..dims[1],
        geom,
        0.0,
        out.as_mut_slice(),
    );
}

/// The lowering body behind [`im2col_into`], over any element type: lowers
/// the input `channels` (`[c0, c0 + CG)`, one conv group) of the row-major
/// `[N, C, H, W]` `src` in place into the `[CG·KH·KW, N·OH·OW]` `out`, with
/// padding taps set to `pad`. `f32` columns pad with `0.0`; the 8A4W
/// executor lowers its `u8` LUT offsets with `128` (code 0). Every element
/// of `out` is overwritten.
///
/// Each matrix row holds one kernel tap `(ci, kh, kw)` and is written by
/// exactly one thread, so the gather is deterministic for any thread
/// count. At stride 1 with "same" padding (`OH = H`, `OW = W`), one
/// (tap, image) block is the image shifted by `(kh − p)·W + (kw − p)`: it
/// is copied as one span and its border re-padded. Otherwise each (image,
/// output row) zeroes only its padding and copies its valid span once.
///
/// # Panics
///
/// Panics if `src` is not `N·C·H·W` long, `channels` reaches past `C`, or
/// `out` is not the column matrix's length.
pub fn im2col_slice_into<T: Copy + Send + Sync>(
    src: &[T],
    [n, c, h, w]: [usize; 4],
    channels: std::ops::Range<usize>,
    geom: ConvGeometry,
    pad: T,
    out: &mut [T],
) {
    let (k, s, p) = (geom.kernel, geom.stride, geom.pad);
    let oh = geom.out_dim(h);
    let ow = geom.out_dim(w);
    let cols = n * oh * ow;
    assert_eq!(src.len(), n * c * h * w, "im2col input length mismatch");
    assert!(channels.end <= c, "im2col channels {channels:?} out of {c}");
    assert_eq!(
        out.len(),
        channels.len() * k * k * cols,
        "im2col output length mismatch"
    );
    if out.is_empty() {
        return;
    }
    let same = s == 1 && oh == h && ow == w;
    axnn_par::par_chunks_mut(out, cols, |row, dst_row| {
        let (ci, kh, kw) = (channels.start + row / (k * k), (row / k) % k, row % k);
        let span = valid_span(ow, w, s, p, kw);
        for (ni, dst_img) in dst_row.chunks_exact_mut(oh * ow).enumerate() {
            let img = &src[(ni * c + ci) * h * w..][..h * w];
            if same {
                shifted_copy(img, dst_img, [h, w], [kh, kw], p, pad);
                continue;
            }
            for (ohi, dst) in dst_img.chunks_exact_mut(ow).enumerate() {
                let Some(ih) = tap_index(ohi, s, kh, p, h) else {
                    dst.fill(pad); // row of padding
                    continue;
                };
                let src_row = &img[ih * w..][..w];
                dst[..span.start].fill(pad);
                dst[span.end..].fill(pad);
                if span.is_empty() {
                    continue;
                }
                let first = span.start * s + kw - p;
                let inner = &mut dst[span.clone()];
                if s == 1 {
                    inner.copy_from_slice(&src_row[first..][..inner.len()]);
                } else {
                    for (d, &v) in inner.iter_mut().zip(src_row[first..].iter().step_by(s)) {
                        *d = v;
                    }
                }
            }
        }
    });
}

/// One (tap, image) block of a stride-1 "same" lowering: `dst[q] =
/// img[q + (kh − p)·w + (kw − p)]` wherever that index exists, as one span
/// copy, then `pad` over the rows whose tap falls above or below the image
/// and the columns whose tap falls left or right of it (the span copy wrapped
/// neighbouring rows' pixels into those).
fn shifted_copy<T: Copy>(
    img: &[T],
    dst: &mut [T],
    [h, w]: [usize; 2],
    [kh, kw]: [usize; 2],
    p: usize,
    pad: T,
) {
    let hw = h * w;
    let shift = (kh * w + kw) as isize - (p * w + p) as isize;
    let lo = (-shift).clamp(0, hw as isize) as usize;
    let hi = (hw as isize - shift).clamp(lo as isize, hw as isize) as usize;
    dst[..lo].fill(pad);
    dst[hi..].fill(pad);
    let from = (lo as isize + shift) as usize;
    dst[lo..hi].copy_from_slice(&img[from..from + (hi - lo)]);
    // Rows [0, p − kh) and [h + p − kh, h) read padding, as do columns
    // [0, p − kw) and [w + p − kw, w) of every row.
    let (top, left) = (p.saturating_sub(kh).min(h), p.saturating_sub(kw).min(w));
    let (bottom, right) = (
        (h + p).saturating_sub(kh).min(h),
        (w + p).saturating_sub(kw).min(w),
    );
    dst[..top * w].fill(pad);
    dst[bottom.max(top) * w..].fill(pad);
    for row in dst.chunks_exact_mut(w) {
        row[..left].fill(pad);
        row[right.max(left)..].fill(pad);
    }
}

/// Input index `o·s + t − p` that output index `o` reads at kernel tap `t`
/// along an axis of size `len`, or `None` where it falls in the padding.
#[inline]
fn tap_index(o: usize, s: usize, t: usize, p: usize, len: usize) -> Option<usize> {
    (o * s + t).checked_sub(p).filter(|&i| i < len)
}

/// The output columns `[lo, hi)` whose tap `kw` lands inside an input row
/// of width `w` (stride `s`, padding `p`), out of `ow`. Every column outside
/// it reads padding; the range is empty when none lands inside.
fn valid_span(ow: usize, w: usize, s: usize, p: usize, kw: usize) -> std::ops::Range<usize> {
    // o·s + kw ≥ p  ⇔  o ≥ ⌈(p − kw) / s⌉
    let lo = p.saturating_sub(kw).div_ceil(s).min(ow);
    // o·s + kw − p ≤ w − 1  ⇔  o ≤ ⌊(w − 1 + p − kw) / s⌋
    let hi = (w + p)
        .checked_sub(kw + 1)
        .map_or(0, |last| (last / s + 1).min(ow));
    lo..hi.max(lo)
}

/// Inverse of [`im2col`]: scatters a `[C·KH·KW, N·OH·OW]` column-gradient
/// matrix back onto an `[N, C, H, W]` input-gradient tensor, accumulating
/// overlapping taps.
///
/// # Panics
///
/// Panics if `cols` is not 2-D or its shape is inconsistent with
/// `(input_shape, geom)`.
pub fn col2im(cols: &Tensor, input_shape: &[usize; 4], geom: ConvGeometry) -> Tensor {
    assert_eq!(cols.shape().len(), 2, "col2im requires a 2-D matrix");
    let [n, c, h, w] = *input_shape;
    let (k, s, p) = (geom.kernel, geom.stride, geom.pad);
    let oh = geom.out_dim(h);
    let ow = geom.out_dim(w);
    assert_eq!(
        cols.shape(),
        &[c * k * k, n * oh * ow],
        "col matrix shape inconsistent with input shape/geometry"
    );

    let mut out = Tensor::zeros(&[n, c, h, w]);
    if n == 0 || c * h * w == 0 {
        return out;
    }
    let src = cols.as_slice();
    let total_cols = n * oh * ow;
    // Scatter-accumulate partitioned by image: every destination pixel
    // belongs to exactly one `ni`, and within an image the (ci, kh, kw,
    // ohi, owi) accumulation order below matches the serial loop nest, so
    // each pixel sees its overlapping taps folded in the same order
    // regardless of thread count. Each (tap, output row) adds its valid
    // span in one pass.
    axnn_par::par_chunks_mut(out.as_mut_slice(), c * h * w, |ni, img| {
        for (ci, chan) in img.chunks_exact_mut(h * w).enumerate() {
            for kh in 0..k {
                for kw in 0..k {
                    let span = valid_span(ow, w, s, p, kw);
                    if span.is_empty() {
                        continue;
                    }
                    let first = span.start * s + kw - p;
                    let row = (ci * k + kh) * k + kw;
                    let src_img = &src[row * total_cols + ni * oh * ow..][..oh * ow];
                    for (ohi, src_row) in src_img.chunks_exact(ow).enumerate() {
                        let Some(ih) = tap_index(ohi, s, kh, p, h) else {
                            continue;
                        };
                        let (src_span, dst) = (&src_row[span.clone()], &mut chan[ih * w + first..]);
                        if s == 1 {
                            for (d, &v) in dst.iter_mut().zip(src_span) {
                                *d += v;
                            }
                        } else {
                            for (d, &v) in dst.iter_mut().step_by(s).zip(src_span) {
                                *d += v;
                            }
                        }
                    }
                }
            }
        }
    });
    out
}

/// Reorders a GEMM output `[OC, N·OH·OW]` into an `[N, OC, OH, OW]` tensor.
///
/// # Panics
///
/// Panics if the matrix shape is inconsistent with `(n, oc, oh, ow)`.
pub fn gemm_out_to_nchw(mat: &Tensor, n: usize, oc: usize, oh: usize, ow: usize) -> Tensor {
    assert_eq!(mat.shape(), &[oc, n * oh * ow]);
    let mut out = Tensor::zeros(&[n, oc, oh, ow]);
    gemm_out_to_nchw_into(mat, n, oc, oh, ow, out.as_mut_slice());
    out
}

/// As [`gemm_out_to_nchw`], for one conv group: permutes the group's GEMM
/// output `mat` (`[OCG, N·OH·OW]`) into its channels of an
/// `[N, OC, OH, OW]` buffer. `out` is that buffer *offset to the group's
/// first channel* (`&mut full[c0·OH·OW..]`), the convention of
/// [`conv2d_bias_act_into`](crate::conv_direct::conv2d_bias_act_into): row
/// `r` of image `ni` lands at `(ni·OC + r)·OH·OW`. Every element the group
/// owns is overwritten; no other is touched.
///
/// # Panics
///
/// Panics if `mat` is not `[OCG, N·OH·OW]` with `OCG ≤ OC`, or `out` is too
/// short to hold the group's last image.
pub fn gemm_out_to_nchw_into(
    mat: &Tensor,
    n: usize,
    oc: usize,
    oh: usize,
    ow: usize,
    out: &mut [f32],
) {
    let spatial = oh * ow;
    let ocg = mat.shape()[0];
    assert_eq!(mat.shape(), &[ocg, n * spatial]);
    assert!(ocg <= oc, "group rows exceed output channels");
    if n * ocg * spatial == 0 {
        return;
    }
    let out = &mut out[..(n - 1) * oc * spatial + ocg * spatial];
    let src = mat.as_slice();
    // Pure permutation of disjoint spatial blocks, partitioned by image.
    axnn_par::par_chunks_mut(out, oc * spatial, |ni, img| {
        for o in 0..ocg {
            let src_base = o * n * spatial + ni * spatial;
            let dst_base = o * spatial;
            img[dst_base..dst_base + spatial].copy_from_slice(&src[src_base..src_base + spatial]);
        }
    });
}

/// Inverse of [`gemm_out_to_nchw`]: flattens `[N, OC, OH, OW]` to
/// `[OC, N·OH·OW]` (used to lower the output gradient before the GEMM
/// backward products).
///
/// # Panics
///
/// Panics if the tensor is not 4-D.
pub fn nchw_to_gemm_out(t: &Tensor) -> Tensor {
    assert_eq!(t.shape().len(), 4);
    let (n, oc, oh, ow) = (t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3]);
    let spatial = oh * ow;
    let mut out = Tensor::zeros(&[oc, n * spatial]);
    if oc * n * spatial == 0 {
        return out;
    }
    let src = t.as_slice();
    // Inverse permutation, partitioned by output row (one channel each).
    axnn_par::par_chunks_mut(out.as_mut_slice(), n * spatial, |o, row| {
        for ni in 0..n {
            let src_base = (ni * oc + o) * spatial;
            let dst_base = ni * spatial;
            row[dst_base..dst_base + spatial].copy_from_slice(&src[src_base..src_base + spatial]);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm;

    /// Reference direct convolution for validating the lowered path.
    fn conv_direct(input: &Tensor, weight: &Tensor, geom: ConvGeometry) -> Tensor {
        let (n, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let (oc, _, k, _) = (
            weight.shape()[0],
            weight.shape()[1],
            weight.shape()[2],
            weight.shape()[3],
        );
        let oh = geom.out_dim(h);
        let ow = geom.out_dim(w);
        let mut out = Tensor::zeros(&[n, oc, oh, ow]);
        for ni in 0..n {
            for o in 0..oc {
                for y in 0..oh {
                    for x in 0..ow {
                        let mut acc = 0.0;
                        for ci in 0..c {
                            for kh in 0..k {
                                for kw in 0..k {
                                    let ih = (y * geom.stride + kh) as isize - geom.pad as isize;
                                    let iw = (x * geom.stride + kw) as isize - geom.pad as isize;
                                    if ih < 0 || iw < 0 || ih as usize >= h || iw as usize >= w {
                                        continue;
                                    }
                                    acc += input.at(&[ni, ci, ih as usize, iw as usize])
                                        * weight.at(&[o, ci, kh, kw]);
                                }
                            }
                        }
                        out.set(&[ni, o, y, x], acc);
                    }
                }
            }
        }
        out
    }

    fn arange(shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::from_vec((0..n).map(|i| (i as f32) * 0.1 - 1.0).collect(), shape).unwrap()
    }

    #[test]
    fn out_dim_formulas() {
        assert_eq!(ConvGeometry::new(3, 1, 1).out_dim(8), 8);
        assert_eq!(ConvGeometry::new(3, 2, 1).out_dim(8), 4);
        assert_eq!(ConvGeometry::new(1, 1, 0).out_dim(5), 5);
        assert_eq!(ConvGeometry::new(2, 2, 0).out_dim(8), 4);
    }

    #[test]
    fn lowered_conv_matches_direct() {
        for &(k, s, p) in &[(3, 1, 1), (3, 2, 1), (1, 1, 0), (2, 2, 0)] {
            let geom = ConvGeometry::new(k, s, p);
            let input = arange(&[2, 3, 6, 6]);
            let weight = arange(&[4, 3, k, k]);
            let oh = geom.out_dim(6);
            let ow = geom.out_dim(6);

            let col = im2col(&input, geom);
            let wmat = weight.reshape(&[4, 3 * k * k]).unwrap();
            let out_mat = gemm::matmul(&wmat, &col);
            let got = gemm_out_to_nchw(&out_mat, 2, 4, oh, ow);

            let want = conv_direct(&input, &weight, geom);
            for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                assert!((g - w).abs() < 1e-4, "k={k} s={s} p={p}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn nchw_round_trip() {
        let t = arange(&[2, 3, 4, 5]);
        let mat = nchw_to_gemm_out(&t);
        assert_eq!(mat.shape(), &[3, 2 * 4 * 5]);
        let back = gemm_out_to_nchw(&mat, 2, 3, 4, 5);
        assert_eq!(back, t);
    }

    #[test]
    fn col2im_accumulates_overlaps() {
        // 1x1x3x3 input, 2x2 kernel, stride 1, no pad -> 2x2 output, 4 cols.
        let geom = ConvGeometry::new(2, 1, 0);
        let cols = Tensor::ones(&[4, 4]);
        let img = col2im(&cols, &[1, 1, 3, 3], geom);
        // Centre pixel is covered by all 4 receptive fields.
        assert_eq!(img.at(&[0, 0, 1, 1]), 4.0);
        // Corners by exactly one.
        assert_eq!(img.at(&[0, 0, 0, 0]), 1.0);
        assert_eq!(img.at(&[0, 0, 2, 2]), 1.0);
        // Edges by two.
        assert_eq!(img.at(&[0, 0, 0, 1]), 2.0);
    }

    #[test]
    fn lowering_is_thread_count_invariant() {
        let geom = ConvGeometry::new(3, 1, 1);
        let input = arange(&[3, 2, 5, 5]);
        axnn_par::set_threads(1);
        let col1 = im2col(&input, geom);
        let img1 = col2im(&col1, &[3, 2, 5, 5], geom);
        let nchw1 = gemm_out_to_nchw(&col2mat(&col1), 3, 2, 15, 5);
        for threads in [2, 5, 8] {
            axnn_par::set_threads(threads);
            assert_eq!(im2col(&input, geom), col1);
            assert_eq!(col2im(&col1, &[3, 2, 5, 5], geom), img1);
            assert_eq!(gemm_out_to_nchw(&col2mat(&col1), 3, 2, 15, 5), nchw1);
        }
        axnn_par::set_threads(1);
    }

    /// Reshapes the `[18, 225]` col matrix into a `[2, 225]`-style GEMM
    /// output usable by `gemm_out_to_nchw` in the invariance test.
    fn col2mat(col: &Tensor) -> Tensor {
        let flat: Vec<f32> = col.as_slice()[..2 * 225].to_vec();
        Tensor::from_vec(flat, &[2, 225]).unwrap()
    }

    #[test]
    fn into_variants_scrub_stale_scratch() {
        let geom = ConvGeometry::new(3, 1, 1);
        let input = arange(&[2, 3, 5, 5]);
        let want_col = im2col(&input, geom);
        let mut col = Tensor::from_vec(vec![7.5; want_col.len()], want_col.shape()).unwrap();
        im2col_into(&input, geom, &mut col);
        assert_eq!(col, want_col, "reused column buffer must match fresh");

        let mat = arange(&[4, 2 * 5 * 5]);
        let want_img = gemm_out_to_nchw(&mat, 2, 4, 5, 5);
        let mut img = Tensor::from_vec(vec![-3.0; want_img.len()], want_img.shape()).unwrap();
        gemm_out_to_nchw_into(&mat, 2, 4, 5, 5, img.as_mut_slice());
        assert_eq!(img, want_img, "reused NCHW buffer must match fresh");
    }

    #[test]
    fn im2col_zero_pads() {
        let geom = ConvGeometry::new(3, 1, 1);
        let input = Tensor::ones(&[1, 1, 2, 2]);
        let col = im2col(&input, geom);
        // Top-left output pixel: only taps (1,1),(1,2),(2,1),(2,2) are inside.
        let col0: Vec<f32> = (0..9).map(|r| col.at(&[r, 0])).collect();
        assert_eq!(col0.iter().filter(|&&x| x == 1.0).count(), 4);
        assert_eq!(col0.iter().filter(|&&x| x == 0.0).count(), 5);
    }
}
