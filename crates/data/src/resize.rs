//! Deterministic raw-frame preprocessing: dtype decode, nearest/bilinear
//! resize, HWC→CHW layout, and per-channel normalization.
//!
//! These kernels are the shared substrate of the streaming data plane: the
//! prefetching [`crate::loader`] runs them on worker threads, `axnn-serve`
//! runs them on connection threads for `raw_frame` requests, and clients
//! can run them locally before sending a pre-shaped tensor. Client-side
//! and server-side preprocessing therefore execute the *same* code on the
//! *same* [`PreprocessSpec`], which is what makes raw-frame logits
//! bit-identical to tensor-path logits (asserted by
//! `tests/serve_invariance.rs`).
//!
//! Determinism follows the GEMM-kernel discipline: every output element is
//! computed by one fixed expression of the inputs, the `axnn-par` paths
//! partition by output index only, and each kernel has a scalar
//! `*_reference` oracle the parallel path must match bit-for-bit at any
//! `AXNN_THREADS` setting.
//!
//! Sampling uses the half-pixel convention: output index `o` reads source
//! coordinate `(o + 0.5) * src/dst - 0.5`, clamped to the source range, so
//! a same-size resize is an exact identity for both filters.

use axnn_obs::HistSpec;
use axnn_rng::Rng;
use std::time::Instant;

/// Resampling filter for [`resize_hwc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Filter {
    /// Nearest-neighbour: each output pixel copies one source pixel.
    Nearest,
    /// Bilinear: each output pixel blends the 2×2 source neighbourhood.
    Bilinear,
}

impl Filter {
    /// Wire/CLI name (`"nearest"` / `"bilinear"`).
    pub fn name(&self) -> &'static str {
        match self {
            Filter::Nearest => "nearest",
            Filter::Bilinear => "bilinear",
        }
    }

    /// Parses a wire/CLI name.
    pub fn parse(s: &str) -> Result<Filter, String> {
        match s {
            "nearest" => Ok(Filter::Nearest),
            "bilinear" => Ok(Filter::Bilinear),
            other => Err(format!("unknown filter '{other}' (nearest|bilinear)")),
        }
    }
}

/// Pixel payload of a [`RawFrame`], in interleaved HWC order.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameData {
    /// 8-bit pixels; decoded as `v / 255.0`.
    U8(Vec<u8>),
    /// Float pixels; decoded verbatim.
    F32(Vec<f32>),
}

impl FrameData {
    /// Number of scalar samples held.
    pub fn len(&self) -> usize {
        match self {
            FrameData::U8(v) => v.len(),
            FrameData::F32(v) => v.len(),
        }
    }

    /// True when no samples are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Wire name of the element type (`"u8"` / `"f32"`).
    pub fn dtype(&self) -> &'static str {
        match self {
            FrameData::U8(_) => "u8",
            FrameData::F32(_) => "f32",
        }
    }
}

/// One streaming input image: arbitrary `height × width × channels`
/// interleaved pixels, as a camera or decoder would hand them over —
/// *before* any resizing, layout change, or normalization.
#[derive(Debug, Clone, PartialEq)]
pub struct RawFrame {
    /// Rows.
    pub height: usize,
    /// Columns.
    pub width: usize,
    /// Interleaved channels per pixel.
    pub channels: usize,
    /// `height * width * channels` samples in HWC order.
    pub data: FrameData,
}

impl RawFrame {
    /// Checks the dimensions are non-zero and consistent with the payload,
    /// and that every `f32` sample is finite.
    pub fn validate(&self) -> Result<(), String> {
        if self.height == 0 || self.width == 0 || self.channels == 0 {
            return Err(format!(
                "raw frame has a zero dimension ({}x{}x{})",
                self.height, self.width, self.channels
            ));
        }
        let want = self
            .height
            .checked_mul(self.width)
            .and_then(|hw| hw.checked_mul(self.channels))
            .ok_or_else(|| {
                format!(
                    "raw frame dimensions {}x{}x{} overflow",
                    self.height, self.width, self.channels
                )
            })?;
        if self.data.len() != want {
            return Err(format!(
                "raw frame carries {} samples, expected {}x{}x{} = {want}",
                self.data.len(),
                self.height,
                self.width,
                self.channels
            ));
        }
        if let FrameData::F32(v) = &self.data {
            if v.iter().any(|s| !s.is_finite()) {
                return Err("raw frame holds a non-finite f32 sample".to_string());
            }
        }
        Ok(())
    }

    /// Decodes the payload to HWC f32 (`u8` maps to `[0, 1]`).
    pub fn decode(&self) -> Vec<f32> {
        match &self.data {
            FrameData::U8(v) => v.iter().map(|&b| b as f32 / 255.0).collect(),
            FrameData::F32(v) => v.clone(),
        }
    }

    /// A deterministic pseudo-random frame for load generators and smoke
    /// tests: `u8` pixels when `u8_pixels`, else f32 in `[0, 1)`. Depends
    /// only on the arguments, never on global state.
    pub fn synthetic(
        height: usize,
        width: usize,
        channels: usize,
        u8_pixels: bool,
        seed: u64,
    ) -> RawFrame {
        let n = height * width * channels;
        let mut rng = Rng::seed(seed ^ 0x6672_616d_6530);
        let data = if u8_pixels {
            FrameData::U8((0..n).map(|_| rng.gen::<u8>()).collect())
        } else {
            FrameData::F32((0..n).map(|_| rng.gen_range(0.0f32..1.0)).collect())
        };
        RawFrame {
            height,
            width,
            channels,
            data,
        }
    }
}

/// Hist geometry for the preprocessing stage timings (`data:decode_us`,
/// `data:resize_us`), microseconds.
pub fn stage_time_spec() -> HistSpec {
    HistSpec::new(0.0, 20_000.0, 64)
}

/// Hist geometry for the consumer-side prefetch wait (`data:prefetch_wait_us`),
/// microseconds.
pub fn prefetch_wait_spec() -> HistSpec {
    HistSpec::new(0.0, 50_000.0, 64)
}

/// Per-model preprocessing recipe, resolved once (at checkpoint load on the
/// server, or from `{"cmd": "info"}` on a client) and applied identically
/// wherever a raw frame is turned into a model input.
#[derive(Debug, Clone, PartialEq)]
pub struct PreprocessSpec {
    /// Channels the model consumes (a frame must arrive with the same
    /// interleaved channel count; there is no colourspace conversion).
    pub channels: usize,
    /// Target rows after resizing.
    pub height: usize,
    /// Target columns after resizing.
    pub width: usize,
    /// Per-channel mean subtracted after the CHW layout pass.
    pub mean: Vec<f32>,
    /// Per-channel divisor applied after the mean.
    pub std: Vec<f32>,
    /// Resampling filter.
    pub filter: Filter,
}

impl PreprocessSpec {
    /// The identity recipe for a `channels × hw × hw` model input: bilinear
    /// resize to the target, zero mean, unit std.
    pub fn for_input(channels: usize, hw: usize) -> PreprocessSpec {
        PreprocessSpec {
            channels,
            height: hw,
            width: hw,
            mean: vec![0.0; channels],
            std: vec![1.0; channels],
            filter: Filter::Bilinear,
        }
    }

    /// Flattened CHW length [`apply`](Self::apply) produces.
    pub fn input_len(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// Checks the recipe itself is well-formed.
    pub fn validate(&self) -> Result<(), String> {
        if self.channels == 0 || self.height == 0 || self.width == 0 {
            return Err(format!(
                "preprocess spec has a zero dimension ({}x{}x{})",
                self.channels, self.height, self.width
            ));
        }
        if self.mean.len() != self.channels || self.std.len() != self.channels {
            return Err(format!(
                "preprocess spec carries {} mean / {} std values for {} channels",
                self.mean.len(),
                self.std.len(),
                self.channels
            ));
        }
        if self.std.iter().any(|&s| s == 0.0 || !s.is_finite()) {
            return Err("preprocess spec std values must be finite and non-zero".to_string());
        }
        Ok(())
    }

    /// Runs the full pipeline — decode, resize, HWC→CHW, normalize — and
    /// returns the flattened CHW model input. Records the `data:decode` /
    /// `data:resize` spans and `data:*_us` health hists (both no-ops when
    /// the respective obs planes are off; neither feeds back into the
    /// numerics).
    pub fn apply(&self, frame: &RawFrame) -> Result<Vec<f32>, String> {
        self.validate()?;
        frame.validate()?;
        if frame.channels != self.channels {
            return Err(format!(
                "raw frame has {} channels, model consumes {}",
                frame.channels, self.channels
            ));
        }
        let t0 = Instant::now();
        let hwc = {
            let _s = axnn_obs::span("data:decode");
            frame.decode()
        };
        axnn_obs::record_value(
            "data:decode_us",
            stage_time_spec(),
            t0.elapsed().as_secs_f64() * 1e6,
        );
        let t1 = Instant::now();
        let chw = {
            let _s = axnn_obs::span("data:resize");
            let resized = resize_hwc(
                &hwc,
                frame.height,
                frame.width,
                self.channels,
                self.height,
                self.width,
                self.filter,
            );
            let mut chw = hwc_to_chw(&resized, self.height, self.width, self.channels);
            normalize_chw(&mut chw, self.height * self.width, &self.mean, &self.std);
            chw
        };
        axnn_obs::record_value(
            "data:resize_us",
            stage_time_spec(),
            t1.elapsed().as_secs_f64() * 1e6,
        );
        Ok(chw)
    }
}

fn check_resize_args(
    src: &[f32],
    src_h: usize,
    src_w: usize,
    c: usize,
    out_h: usize,
    out_w: usize,
) {
    assert!(
        src_h > 0 && src_w > 0 && c > 0,
        "resize source has a zero dimension ({src_h}x{src_w}x{c})"
    );
    assert!(
        out_h > 0 && out_w > 0,
        "resize target has a zero dimension ({out_h}x{out_w})"
    );
    assert_eq!(
        src.len(),
        src_h * src_w * c,
        "resize source length must be {src_h}x{src_w}x{c}"
    );
}

/// Resamples one output row; the single shared expression both the scalar
/// reference and the parallel path evaluate, so their outputs agree
/// bit-for-bit by construction.
#[allow(clippy::too_many_arguments)]
fn resample_row(
    src: &[f32],
    src_h: usize,
    src_w: usize,
    c: usize,
    out_h: usize,
    out_w: usize,
    filter: Filter,
    oy: usize,
    out_row: &mut [f32],
) {
    let sy_scale = src_h as f32 / out_h as f32;
    let sx_scale = src_w as f32 / out_w as f32;
    let max_y = (src_h - 1) as f32;
    let max_x = (src_w - 1) as f32;
    let sy = ((oy as f32 + 0.5) * sy_scale - 0.5).clamp(0.0, max_y);
    for ox in 0..out_w {
        let sx = ((ox as f32 + 0.5) * sx_scale - 0.5).clamp(0.0, max_x);
        match filter {
            Filter::Nearest => {
                let y = (sy.round() as usize).min(src_h - 1);
                let x = (sx.round() as usize).min(src_w - 1);
                let base = (y * src_w + x) * c;
                out_row[ox * c..(ox + 1) * c].copy_from_slice(&src[base..base + c]);
            }
            Filter::Bilinear => {
                let y0 = sy.floor() as usize;
                let x0 = sx.floor() as usize;
                let y1 = (y0 + 1).min(src_h - 1);
                let x1 = (x0 + 1).min(src_w - 1);
                let wy = sy - y0 as f32;
                let wx = sx - x0 as f32;
                for ch in 0..c {
                    let p00 = src[(y0 * src_w + x0) * c + ch];
                    let p01 = src[(y0 * src_w + x1) * c + ch];
                    let p10 = src[(y1 * src_w + x0) * c + ch];
                    let p11 = src[(y1 * src_w + x1) * c + ch];
                    let top = p00 + (p01 - p00) * wx;
                    let bot = p10 + (p11 - p10) * wx;
                    out_row[ox * c + ch] = top + (bot - top) * wy;
                }
            }
        }
    }
}

/// Scalar reference resize over an HWC image — the oracle [`resize_hwc`]
/// must match bit-for-bit.
///
/// # Panics
///
/// Panics on zero dimensions or a source length that disagrees with
/// `src_h × src_w × c`.
pub fn resize_hwc_reference(
    src: &[f32],
    src_h: usize,
    src_w: usize,
    c: usize,
    out_h: usize,
    out_w: usize,
    filter: Filter,
) -> Vec<f32> {
    check_resize_args(src, src_h, src_w, c, out_h, out_w);
    let mut out = vec![0.0f32; out_h * out_w * c];
    for (oy, row) in out.chunks_mut(out_w * c).enumerate() {
        resample_row(src, src_h, src_w, c, out_h, out_w, filter, oy, row);
    }
    out
}

/// Deterministic parallel resize over an HWC image: output rows are
/// partitioned across the `axnn-par` pool, each computed by the same
/// expression as [`resize_hwc_reference`] — bit-identical at any thread
/// count.
///
/// # Panics
///
/// Same contract as [`resize_hwc_reference`].
pub fn resize_hwc(
    src: &[f32],
    src_h: usize,
    src_w: usize,
    c: usize,
    out_h: usize,
    out_w: usize,
    filter: Filter,
) -> Vec<f32> {
    check_resize_args(src, src_h, src_w, c, out_h, out_w);
    let mut out = vec![0.0f32; out_h * out_w * c];
    axnn_par::par_chunks_mut(&mut out, out_w * c, |oy, row| {
        resample_row(src, src_h, src_w, c, out_h, out_w, filter, oy, row);
    });
    out
}

fn check_layout_args(src: &[f32], h: usize, w: usize, c: usize) {
    assert!(
        h > 0 && w > 0 && c > 0,
        "layout pass has a zero dimension ({h}x{w}x{c})"
    );
    assert_eq!(
        src.len(),
        h * w * c,
        "layout source length must be {h}x{w}x{c}"
    );
}

/// Scalar reference HWC→CHW transpose (interleaved to planar).
///
/// # Panics
///
/// Panics on zero dimensions or a mismatched source length.
pub fn hwc_to_chw_reference(src: &[f32], h: usize, w: usize, c: usize) -> Vec<f32> {
    check_layout_args(src, h, w, c);
    let mut out = vec![0.0f32; c * h * w];
    for (ch, plane) in out.chunks_mut(h * w).enumerate() {
        for (px, slot) in plane.iter_mut().enumerate() {
            *slot = src[px * c + ch];
        }
    }
    out
}

/// Parallel HWC→CHW transpose: one output plane per `axnn-par` chunk, pure
/// data movement — bit-identical at any thread count.
///
/// # Panics
///
/// Same contract as [`hwc_to_chw_reference`].
pub fn hwc_to_chw(src: &[f32], h: usize, w: usize, c: usize) -> Vec<f32> {
    check_layout_args(src, h, w, c);
    let mut out = vec![0.0f32; c * h * w];
    axnn_par::par_chunks_mut(&mut out, h * w, |ch, plane| {
        for (px, slot) in plane.iter_mut().enumerate() {
            *slot = src[px * c + ch];
        }
    });
    out
}

/// Inverse layout pass (CHW planar to interleaved HWC) — how a CHW tensor
/// becomes a [`RawFrame`] payload, used by the stream load generator and
/// the loader's raw-frame stage.
///
/// # Panics
///
/// Panics on zero dimensions or a mismatched source length.
pub fn chw_to_hwc(src: &[f32], h: usize, w: usize, c: usize) -> Vec<f32> {
    check_layout_args(src, h, w, c);
    let mut out = vec![0.0f32; h * w * c];
    for (px, pixel) in out.chunks_mut(c).enumerate() {
        for (ch, slot) in pixel.iter_mut().enumerate() {
            *slot = src[ch * h * w + px];
        }
    }
    out
}

fn check_normalize_args(data: &[f32], plane: usize, mean: &[f32], std: &[f32]) {
    assert!(plane > 0, "normalize plane size must be non-zero");
    assert_eq!(
        mean.len(),
        std.len(),
        "normalize mean/std lengths must agree"
    );
    assert_eq!(
        data.len(),
        plane * mean.len(),
        "normalize data length must be plane x channels"
    );
}

/// Scalar reference per-channel normalization of a CHW buffer in place:
/// `(v - mean[ch]) / std[ch]`, `plane = h * w` values per channel.
///
/// # Panics
///
/// Panics on a zero plane or mismatched mean/std/data lengths.
pub fn normalize_chw_reference(data: &mut [f32], plane: usize, mean: &[f32], std: &[f32]) {
    check_normalize_args(data, plane, mean, std);
    for (ch, chunk) in data.chunks_mut(plane).enumerate() {
        for v in chunk {
            *v = (*v - mean[ch]) / std[ch];
        }
    }
}

/// Parallel per-channel normalization: one channel plane per `axnn-par`
/// chunk, same expression as the reference — bit-identical at any thread
/// count.
///
/// # Panics
///
/// Same contract as [`normalize_chw_reference`].
pub fn normalize_chw(data: &mut [f32], plane: usize, mean: &[f32], std: &[f32]) {
    check_normalize_args(data, plane, mean, std);
    axnn_par::par_chunks_mut(data, plane, |ch, chunk| {
        for v in chunk {
            *v = (*v - mean[ch]) / std[ch];
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Tests that flip the process-global thread override serialize here.
    fn serial() -> MutexGuard<'static, ()> {
        static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
        GUARD
            .get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn frame(h: usize, w: usize, c: usize, seed: u64) -> RawFrame {
        RawFrame::synthetic(h, w, c, false, seed)
    }

    #[test]
    fn u8_decode_maps_endpoints() {
        let f = RawFrame {
            height: 1,
            width: 3,
            channels: 1,
            data: FrameData::U8(vec![0, 128, 255]),
        };
        let got = f.decode();
        assert_eq!(got[0].to_bits(), 0.0f32.to_bits());
        assert_eq!(got[1].to_bits(), (128.0f32 / 255.0).to_bits());
        assert_eq!(got[2].to_bits(), 1.0f32.to_bits());
    }

    #[test]
    fn same_size_resize_is_exact_identity() {
        let src = frame(5, 7, 3, 11).decode();
        for filter in [Filter::Nearest, Filter::Bilinear] {
            let out = resize_hwc_reference(&src, 5, 7, 3, 5, 7, filter);
            assert_eq!(out, src, "{filter:?} identity");
        }
    }

    #[test]
    fn bilinear_upscale_matches_hand_computed_weights() {
        // 1×2 row [0, 1] → 1×4: samples at −0.25 (clamped), 0.25, 0.75,
        // 1.25 (clamped).
        let out = resize_hwc_reference(&[0.0, 1.0], 1, 2, 1, 1, 4, Filter::Bilinear);
        assert_eq!(out, vec![0.0, 0.25, 0.75, 1.0]);
    }

    #[test]
    fn nearest_downscale_picks_the_expected_pixels() {
        // 1×4 row → 1×2: samples at 0.5 and 2.5 round to pixels 1 and 3.
        let out = resize_hwc_reference(&[10.0, 20.0, 30.0, 40.0], 1, 4, 1, 1, 2, Filter::Nearest);
        assert_eq!(out, vec![20.0, 40.0]);
    }

    #[test]
    fn parallel_paths_match_reference_bit_for_bit_across_thread_counts() {
        let _g = serial();
        let src = frame(13, 9, 3, 5).decode();
        let want_r = resize_hwc_reference(&src, 13, 9, 3, 6, 17, Filter::Bilinear);
        let want_t = hwc_to_chw_reference(&want_r, 6, 17, 3);
        let mut want_n = want_t.clone();
        normalize_chw_reference(&mut want_n, 6 * 17, &[0.5, 0.25, 0.0], &[2.0, 0.5, 1.0]);
        for threads in [1, 2, 3, 8] {
            axnn_par::set_threads(threads);
            let got_r = resize_hwc(&src, 13, 9, 3, 6, 17, Filter::Bilinear);
            assert_eq!(got_r, want_r, "resize at {threads} threads");
            let got_t = hwc_to_chw(&got_r, 6, 17, 3);
            assert_eq!(got_t, want_t, "layout at {threads} threads");
            let mut got_n = got_t.clone();
            normalize_chw(&mut got_n, 6 * 17, &[0.5, 0.25, 0.0], &[2.0, 0.5, 1.0]);
            assert_eq!(got_n, want_n, "normalize at {threads} threads");
        }
        axnn_par::set_threads(0);
    }

    #[test]
    fn layout_passes_invert_each_other() {
        let src = frame(4, 6, 3, 2).decode();
        let chw = hwc_to_chw_reference(&src, 4, 6, 3);
        assert_eq!(chw_to_hwc(&chw, 4, 6, 3), src);
        // Spot-check one element: pixel (1, 2) channel 1.
        assert_eq!(chw[6 * 4 + 6 + 2], src[(6 + 2) * 3 + 1]);
    }

    #[test]
    fn apply_equals_manual_kernel_composition() {
        let f = RawFrame::synthetic(9, 5, 3, true, 7);
        let spec = PreprocessSpec {
            channels: 3,
            height: 8,
            width: 8,
            mean: vec![0.4, 0.5, 0.6],
            std: vec![0.2, 0.25, 0.3],
            filter: Filter::Bilinear,
        };
        let got = spec.apply(&f).unwrap();
        let hwc = f.decode();
        let resized = resize_hwc_reference(&hwc, 9, 5, 3, 8, 8, Filter::Bilinear);
        let mut want = hwc_to_chw_reference(&resized, 8, 8, 3);
        normalize_chw_reference(&mut want, 64, &spec.mean, &spec.std);
        let got_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
        let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got_bits, want_bits);
        assert_eq!(got.len(), spec.input_len());
    }

    #[test]
    fn apply_rejects_malformed_frames_and_specs() {
        let spec = PreprocessSpec::for_input(3, 8);
        let zero = RawFrame {
            height: 0,
            width: 4,
            channels: 3,
            data: FrameData::F32(vec![]),
        };
        assert!(spec.apply(&zero).unwrap_err().contains("zero dimension"));
        let short = RawFrame {
            height: 2,
            width: 2,
            channels: 3,
            data: FrameData::F32(vec![0.0; 5]),
        };
        assert!(spec.apply(&short).unwrap_err().contains("expected"));
        let wrong_c = RawFrame::synthetic(4, 4, 1, false, 0);
        assert!(spec.apply(&wrong_c).unwrap_err().contains("channels"));
        let mut bad_spec = PreprocessSpec::for_input(3, 8);
        bad_spec.std[1] = 0.0;
        let ok_frame = RawFrame::synthetic(4, 4, 3, false, 0);
        assert!(bad_spec.apply(&ok_frame).unwrap_err().contains("std"));
        let mut zero_spec = PreprocessSpec::for_input(3, 8);
        zero_spec.height = 0;
        assert!(zero_spec
            .apply(&ok_frame)
            .unwrap_err()
            .contains("zero dimension"));
    }

    #[test]
    fn hostile_frames_error_or_yield_finite_inputs() {
        let spec = PreprocessSpec::for_input(3, 8);
        axnn_rng::cases(256, |mut rng| {
            // Mostly small dims; some powers of two whose product with the
            // others overflows `usize` (and may wrap to the payload length).
            let dim = |rng: &mut Rng| {
                if rng.gen_bool(0.3) {
                    1usize << rng.gen_range(30..64usize)
                } else {
                    rng.gen_range(0..=12usize)
                }
            };
            let (height, width) = (dim(&mut rng), dim(&mut rng));
            let channels = *rng.choose(&[1usize, 3, 3, 3]);
            let wrapped = height.wrapping_mul(width).wrapping_mul(channels);
            let len = if wrapped <= 512 && rng.gen_bool(0.8) {
                wrapped
            } else {
                rng.gen_range(0..=64usize)
            };
            let data = if rng.gen_bool(0.3) {
                FrameData::U8((0..len).map(|_| rng.gen::<u8>()).collect())
            } else {
                let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
                FrameData::F32(
                    (0..len)
                        .map(|_| match rng.gen_bool(0.02) {
                            true => *rng.choose(&bad),
                            false => rng.gen_range(-4.0f32..4.0),
                        })
                        .collect(),
                )
            };
            let frame = RawFrame {
                height,
                width,
                channels,
                data,
            };
            if let Ok(out) = spec.apply(&frame) {
                assert_eq!(out.len(), spec.input_len(), "{height}x{width}x{channels}");
                assert!(out.iter().all(|v| v.is_finite()), "non-finite output");
            }
        });
    }

    #[test]
    fn synthetic_frames_are_seed_deterministic() {
        let a = RawFrame::synthetic(6, 6, 3, true, 42);
        let b = RawFrame::synthetic(6, 6, 3, true, 42);
        let c = RawFrame::synthetic(6, 6, 3, true, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.data.len(), 6 * 6 * 3);
        a.validate().unwrap();
    }

    #[test]
    fn filter_names_round_trip() {
        for f in [Filter::Nearest, Filter::Bilinear] {
            assert_eq!(Filter::parse(f.name()).unwrap(), f);
        }
        assert!(Filter::parse("cubic").is_err());
    }
}
