//! The 8A4W layer executor — exact or approximate products over quantized
//! operands — and network-wide quantization.

use crate::quantizer::{QuantSpec, Quantizer};
use axnn_nn::{
    forward_conv_columns, lower_columns, ExecOutput, ExecutorKind, Layer, LayerExecutor, Mode,
    Sequential, SteInput,
};
use axnn_obs::Counter;
use axnn_tensor::gemm::{self, Epilogue};
use axnn_tensor::im2col::{gemm_out_to_nchw_into, im2col_slice_into, ConvGeometry};
use axnn_tensor::Tensor;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Accumulates activation statistics over calibration batches and selects
/// the activation step by MinPropQE (paper ref. \[1\]).
///
/// For every calibration batch, candidate power-of-two steps around the
/// batch abs-max are scored by the propagated error
/// `‖W·deq(q(X)) − W·X‖²`; the exponent with the lowest mean score wins.
#[derive(Debug, Clone, Default)]
pub(crate) struct ActRangeCalibrator {
    scores: BTreeMap<i32, (f64, u32)>,
    abs_max: f32,
}

impl ActRangeCalibrator {
    /// Creates an empty calibrator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scores candidate steps on one calibration batch.
    pub fn observe(&mut self, wmat: &Tensor, col: &Tensor, spec: QuantSpec) {
        let abs_max = col.abs_max();
        if abs_max == 0.0 {
            return;
        }
        self.abs_max = self.abs_max.max(abs_max);
        let base_exp = (self.abs_max / spec.qmax() as f32).log2().ceil() as i32;
        let reference = gemm::matmul(wmat, col);
        let mut deq = Tensor::zeros(col.shape());
        for e in (base_exp - 3)..=(base_exp + 1) {
            let q = Quantizer::with_step(2f32.powi(e), spec);
            q.fake_quant_into(col.as_slice(), deq.as_mut_slice());
            let err = (&gemm::matmul(wmat, &deq) - &reference).sq_norm();
            let entry = self.scores.entry(e).or_insert((0.0, 0));
            entry.0 += err as f64;
            entry.1 += 1;
        }
    }

    /// Picks the winning quantizer. Returns `None` if nothing was observed.
    pub fn freeze(&self, spec: QuantSpec) -> Option<Quantizer> {
        let (&best_exp, _) = self.scores.iter().min_by(|a, b| {
            let ma = a.1 .0 / a.1 .1 as f64;
            let mb = b.1 .0 / b.1 .1 as f64;
            ma.partial_cmp(&mb).expect("scores are finite")
        })?;
        Some(Quantizer::with_step(2f32.powi(best_exp), spec))
    }
}

/// The dynamic abs-max quantizer of `t`, or step 1 when `t` is all zero
/// (its codes are zero under any step). The weights always take it; the
/// activations take it until calibration has frozen a step.
fn abs_max_quantizer(t: &Tensor, spec: QuantSpec) -> Quantizer {
    let abs_max = t.abs_max();
    if abs_max > 0.0 {
        Quantizer::for_abs_max(abs_max, spec)
    } else {
        Quantizer::with_step(1.0, spec)
    }
}

/// The activation quantizer of one batch `col`: the `frozen` calibrated
/// one when set, else `col`'s dynamic abs-max one. Both engines resolve
/// each batch's step here, so they pick the identical step.
fn batch_x_quantizer(frozen: Option<Quantizer>, col: &Tensor, spec: QuantSpec) -> Quantizer {
    frozen.unwrap_or_else(|| abs_max_quantizer(col, spec))
}

/// Resizes `buf` to `len`. It keeps its capacity, so a buffer kept across
/// calls allocates only to grow past its largest length so far.
fn resize_exact<T: Copy + Default>(buf: &mut Vec<T>, len: usize) {
    buf.reserve_exact(len.saturating_sub(buf.len()));
    buf.resize(len, T::default());
}

/// Quantizes activations straight into the `u8` LUT offsets (`code + 128`)
/// an [`ApproxProduct`] reads: one [`Quantizer::map_codes`] pass, no `i32`
/// codes in between. `xq` is at most 8 bits wide
/// ([`QuantExecutor::with_product`] checks), so every code fits an offset.
fn lut_offsets(xq: &Quantizer, col: &[f32], xi: &mut Vec<u8>) {
    resize_exact(xi, col.len());
    xq.map_codes(col, xi, |c| (c + 128) as u8);
}

/// Each image's input channels `[c0, c0 + cg)` of the row-major
/// `[N, C, H, W]` `input`: one contiguous span per image.
fn group_spans(
    input: &[f32],
    [_, c, h, w]: [usize; 4],
    c0: usize,
    cg: usize,
) -> impl Iterator<Item = &[f32]> {
    let plane = h * w;
    let spans = input.chunks_exact((c * plane).max(1));
    spans.map(move |img| &img[c0 * plane..][..cg * plane])
}

/// The quantize-once lowering of a calibrated approximate conv, run by
/// both engines' conv entries: quantizes input channels `[c0, c0 + CG)` of
/// the row-major `dims` `input` once by `xq` into the thread's `XIN`, then
/// lowers those offsets into the `[k, M]` `xi` (`k = CG·KH·KW`), padding
/// with offset 128 (code 0). They are the offsets [`lut_offsets`]
/// quantizes from the group's `f32` columns, so the product's bits are the
/// same, and a 3×3 conv quantizes each pixel once instead of up to nine
/// times. Returns `M`.
fn lower_offsets(
    xq: &Quantizer,
    input: &[f32],
    dims: [usize; 4],
    c0: usize,
    k: usize,
    geom: ConvGeometry,
    xi: &mut Vec<u8>,
) -> usize {
    let [n, _, h, w] = dims;
    let cg = k / (geom.kernel * geom.kernel);
    let m = n * geom.out_dim(h) * geom.out_dim(w);
    resize_exact(xi, k * m);
    XIN.with_borrow_mut(|xin| {
        resize_exact(xin, n * cg * h * w);
        let images = xin.chunks_exact_mut((cg * h * w).max(1));
        for (src, dst) in group_spans(input, dims, c0, cg).zip(images) {
            xq.map_codes(src, dst, |c| (c + 128) as u8);
        }
        im2col_slice_into(xin, [n, cg, h, w], 0..cg, geom, 128, xi);
    });
    axnn_obs::count(Counter::Im2colBytes, (k * m) as u64);
    m
}

thread_local! {
    /// The `[K, M]` LUT offsets of [`Core::Lut`], one buffer per thread
    /// rather than one per layer: interpreted and compiled layers alike
    /// quantize into it, so it grows to the largest layer once, instead of
    /// every layer keeping its own between calls or allocating one per
    /// call. A Train forward moves it into its STE operand (the backward
    /// reads it), and the next call on the thread starts a new one.
    static XI: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    /// The conv group's input offsets, quantized once by [`lower_offsets`]
    /// before they are lowered into `XI`.
    static XIN: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    /// The fake-quantized activations of [`Core::Exact`], per thread for
    /// the same reason as `XI`.
    static XQ: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// The compiled conv's `f32` columns, when it lowers columns.
    static XCOL: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// The compiled conv's `[OCG, M]` product, before it is written NCHW.
    static YCONV: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on a `shape`d tensor over the thread's buffer `buf`, whose
/// contents are unspecified on entry and kept on exit, as is its capacity.
fn with_scratch<R>(
    buf: &'static std::thread::LocalKey<RefCell<Vec<f32>>>,
    shape: &[usize],
    f: impl FnOnce(&mut Tensor) -> R,
) -> R {
    buf.with_borrow_mut(|buf| {
        let mut data = std::mem::take(buf);
        resize_exact(&mut data, shape.iter().product());
        let mut t = Tensor::from_vec(data, shape).expect("one value per element");
        let r = f(&mut t);
        *buf = t.into_vec();
        r
    })
}

/// Whether the `f32` GEMM of the dequantized weight codes (step `wq`) and
/// activation codes (step `xq`) over `k` taps is exact: both steps and
/// their product are normal powers of two, every partial sum is a multiple
/// of that product below `2^24` of them, and no value overflows. Then
/// `matmul(w_eff, col_eff) · (1/scale)` is the integer sum of the code
/// products, and [`code_matmul`] computes it from the codes.
fn codes_sum_exactly(wq: &Quantizer, xq: &Quantizer, k: usize) -> bool {
    let pow2 = |s: f32| s.is_normal() && s.to_bits() & 0x007f_ffff == 0;
    let scale = wq.step() * xq.step();
    let bound = k as f64 * f64::from(wq.spec().qmax()) * f64::from(xq.spec().qmax());
    pow2(wq.step())
        && pow2(xq.step())
        && pow2(scale)
        && bound < f64::from(1u32 << 24)
        && bound * f64::from(scale) < f64::from(f32::MAX)
}

/// The exact quantized product in code units, `[oc, m]`: `Σₖ w·x` over the
/// weight codes and the activation offsets `xi` (code `x = offset − 128`),
/// read by GE's `f'(y)` (eq. 10) and the ε health reference. With
/// power-of-two steps ([`codes_sum_exactly`]) it is the integer sum; it
/// equals `matmul(w_eff, col_eff) · (1/scale)` bit for bit, since that
/// `f32` sum is exact and starts from `+0.0`, so it never yields `−0`.
/// Other steps run that `f32` GEMM over the dequantized codes.
fn exact_codes(
    w_codes: &[i32],
    wq: &Quantizer,
    xi: &[u8],
    xq: &Quantizer,
    [oc, k, m]: [usize; 3],
) -> Tensor {
    let mut y = Tensor::zeros(&[oc, m]);
    if codes_sum_exactly(wq, xq, k) {
        code_matmul(w_codes, xi, k, m, y.as_mut_slice());
        return y;
    }
    let w_eff = w_codes.iter().map(|&c| wq.dequantize(c)).collect();
    let x_eff = xi
        .iter()
        .map(|&o| xq.dequantize(i32::from(o) - 128))
        .collect();
    let w_eff = Tensor::from_vec(w_eff, &[oc, k]).expect("one code per weight");
    let x_eff = Tensor::from_vec(x_eff, &[k, m]).expect("one offset per column entry");
    gemm::matmul_bias_act_into(&w_eff, &x_eff, None, Epilogue::Identity, y.as_mut_slice());
    y.scale(1.0 / (wq.step() * xq.step()));
    y
}

/// Columns of one [`code_matmul`] tile: its `i32` sums stay on the stack.
const CODE_COLS: usize = 256;

/// `out[i, j] = Σₖ w[i, k] · (xi[k, j] − 128)` as `f32`, the `i32` sums
/// exact under [`codes_sum_exactly`]'s bound, one output row by
/// [`CODE_COLS`] columns at a time.
fn code_matmul(w_codes: &[i32], xi: &[u8], k: usize, m: usize, out: &mut [f32]) {
    for (w, row) in w_codes
        .chunks_exact(k.max(1))
        .zip(out.chunks_exact_mut(m.max(1)))
    {
        for (chunk, out) in row.chunks_mut(CODE_COLS).enumerate() {
            let cols = chunk * CODE_COLS..chunk * CODE_COLS + out.len();
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: guarded by the runtime AVX2 check above.
                unsafe { code_tile_avx2(w, xi, m, cols, out) };
                continue;
            }
            code_tile(w, xi, m, cols, out);
        }
    }
}

/// [`code_tile`] recompiled with AVX2 enabled (integer sums, so the width
/// cannot change a bit).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn code_tile_avx2(w: &[i32], xi: &[u8], m: usize, cols: std::ops::Range<usize>, out: &mut [f32]) {
    code_tile(w, xi, m, cols, out);
}

/// One row's sums over the columns `cols` (at most [`CODE_COLS`]).
#[inline(always)]
fn code_tile(w: &[i32], xi: &[u8], m: usize, cols: std::ops::Range<usize>, out: &mut [f32]) {
    let mut acc = [0i32; CODE_COLS];
    let acc = &mut acc[..cols.len()];
    for (t, &wt) in w.iter().enumerate() {
        if wt == 0 {
            continue;
        }
        for (a, &o) in acc.iter_mut().zip(&xi[t * m + cols.start..][..cols.len()]) {
            *a += wt * (i32::from(o) - 128);
        }
    }
    for (o, &a) in out.iter_mut().zip(acc.iter()) {
        *o = a as f32;
    }
}

/// The product a [`QuantExecutor`] computes in place of exact
/// multiplication: an approximate multiplier `g̃(w, x)` (paper eq. 4) with
/// whatever comes with it — an approximate accumulator, or the gradient
/// estimation error model `f(y)` of eq. 11. `axnn-proxsim` supplies the
/// LUT-served one; an executor without a product multiplies exactly.
pub trait ApproxProduct: fmt::Debug + Send + Sync {
    /// `scale · Σₖ g̃(w[i, k], x[k, j])` into the row-major `[oc, m]`
    /// `out` (every element overwritten), over the row-major `[oc, k]`
    /// weight codes and the `[k, m]` activation codes stored as `u8`
    /// offsets `code + 128`.
    fn matmul(
        &self,
        w_codes: &[i32],
        x_offsets: &[u8],
        dims: [usize; 3],
        scale: f32,
        out: &mut [f32],
    );

    /// Whether gradient estimation scales the backward pass: true for a
    /// sloped error model; false without a model or with a constant one,
    /// for which GE is the plain straight-through estimator.
    fn sloped(&self) -> bool;

    /// The `(1 + K)` factor of eq. 12 at the accurate quantized output
    /// `y_codes` (code units). Called only when [`sloped`](Self::sloped).
    fn grad_scale(&self, y_codes: &Tensor) -> Tensor;

    /// `Some((f(y), f'(y)))` of the attached error model at `y_code`, or
    /// `None` without one (read by the GE health telemetry).
    fn error_at(&self, y_code: f32) -> Option<(f32, f32)>;
}

/// ε(y) needs an exact reference GEMM of the same shape as the approximate
/// one, so it is sampled: every `EPS_SAMPLE_PERIOD`-th health-enabled call
/// per executor (the first call always samples). Saturation ratios are
/// cheap scans and recorded on every health-enabled call.
const EPS_SAMPLE_PERIOD: u64 = 16;

/// Pre-formatted per-layer health keys (`sat_x:<layer>`, ...).
#[derive(Debug)]
struct HealthLabels {
    sat_x: String,
    sat_w: String,
    eps: String,
    ge_res: String,
    ge_lin: String,
}

/// The 8A4W layer executor: exact or approximate products over quantized
/// operands.
///
/// Forward: weights are quantized layer-wise from their current abs-max
/// (they change every optimizer step); activations use a step frozen by
/// MinPropQE calibration (run the network in [`Mode::Calibrate`] first —
/// e.g. via `axnn_nn::train::calibrate`), else a per-batch dynamic abs-max
/// step. An all-zero operand gets step 1: its codes are zero either way.
/// The product is one of two:
///
/// - **exact** (the default): an f32 GEMM over the fake-quantized
///   operands, which is bit-equivalent to integer GEMM scaled by `s_x·s_w`
///   for these ranges;
/// - **approximate** ([`with_product`](Self::with_product)): the
///   [`ApproxProduct`]'s GEMM over weight codes and activation LUT
///   offsets. With a sloped error model, [`Mode::Train`] also returns the
///   `(1 + K)` gradient scale of eq. 12, evaluated on the *accurate*
///   quantized output (eq. 10) — gradient estimation.
///
/// Backward (performed by `axnn-nn`): exact GEMM over the returned
/// effective operands — the straight-through estimator of eq. (5).
#[derive(Debug)]
pub struct QuantExecutor {
    x_spec: QuantSpec,
    w_spec: QuantSpec,
    calibrator: ActRangeCalibrator,
    x_quantizer: Option<Quantizer>,
    per_channel: bool,
    product: Option<Arc<dyn ApproxProduct>>,
    /// `None` until the owning layer hands over its label (no telemetry
    /// without an attribution).
    labels: Option<HealthLabels>,
    /// Forward calls seen while health telemetry was on; drives the ε
    /// sampling period.
    health_calls: u64,
}

impl QuantExecutor {
    /// Creates an 8A4W executor (8-bit activations, 4-bit weights).
    pub fn new_8a4w() -> Self {
        Self::new(QuantSpec::activations_8bit(), QuantSpec::weights_4bit())
    }

    /// Creates an executor with explicit specs.
    pub fn new(x_spec: QuantSpec, w_spec: QuantSpec) -> Self {
        Self {
            x_spec,
            w_spec,
            calibrator: ActRangeCalibrator::new(),
            x_quantizer: None,
            per_channel: false,
            product: None,
            labels: None,
            health_calls: 0,
        }
    }

    /// Enables per-output-channel weight scales (builder style).
    ///
    /// The paper quantizes layer-wise (one scale per tensor); per-channel
    /// scales are the standard finer-grained alternative, exposed here as
    /// an ablation. Activations always stay layer-wise.
    ///
    /// # Panics
    ///
    /// Panics if the executor has an approximate product: its core takes
    /// one weight scale per layer.
    pub fn per_channel_weights(mut self, enable: bool) -> Self {
        assert!(
            !enable || self.product.is_none(),
            "approximate products take layer-wise weight scales"
        );
        self.per_channel = enable;
        self
    }

    /// Computes the forward product with `product` instead of exact
    /// multiplication (builder style).
    ///
    /// # Panics
    ///
    /// Panics if per-channel weights are enabled, or if the weights are
    /// wider than 4 bits or the activations wider than 8 (the product's
    /// table covers no more).
    pub fn with_product(mut self, product: impl ApproxProduct + 'static) -> Self {
        assert!(
            !self.per_channel,
            "approximate products take layer-wise weight scales"
        );
        assert!(
            self.w_spec.bits <= 4 && self.x_spec.bits <= 8,
            "approximate products take at most 4-bit weights and 8-bit activations, not {}-bit and {}-bit",
            self.w_spec.bits,
            self.x_spec.bits
        );
        self.product = Some(Arc::new(product));
        self
    }

    /// Quantize-dequantizes the weight matrix with one scale per output
    /// channel (matrix row). All-zero rows pass through unchanged.
    fn fake_quant_per_channel(&self, wmat: &Tensor) -> Tensor {
        let rows = wmat.shape()[0];
        let cols = wmat.len() / rows.max(1);
        let mut out = wmat.clone();
        for r in 0..rows {
            let range = r * cols..(r + 1) * cols;
            let row = &wmat.as_slice()[range.clone()];
            let abs_max = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            if abs_max == 0.0 {
                continue;
            }
            let q = Quantizer::for_abs_max(abs_max, self.w_spec);
            q.fake_quant_into(row, &mut out.as_mut_slice()[range]);
        }
        out
    }

    /// The frozen activation quantizer, if calibration has completed.
    pub fn activation_quantizer(&self) -> Option<Quantizer> {
        self.x_quantizer
    }

    /// The layer-wise quantizer for the current weights (recomputed from
    /// their abs-max; step 1 for all-zero weights).
    pub fn weight_quantizer(&self, wmat: &Tensor) -> Quantizer {
        abs_max_quantizer(wmat, self.w_spec)
    }

    /// The frozen activation quantizer, freezing the calibrator's winner
    /// when none is set yet (`None` before any calibration data).
    fn frozen_x_quantizer(&self) -> Option<Quantizer> {
        self.x_quantizer
            .or_else(|| self.calibrator.freeze(self.x_spec))
    }

    /// The forward product of the weights `wmat` under their quantizer
    /// `wq`: the exact core over the fake-quantized weights (layer-wise
    /// under `wq`, or one scale per row for the per-channel ablation), or
    /// the approximate product over the weight codes.
    fn core(&self, wmat: &Tensor, wq: &Quantizer) -> Core {
        match &self.product {
            None if self.per_channel => Core::Exact {
                w_eff: self.fake_quant_per_channel(wmat),
            },
            None => Core::Exact {
                w_eff: wq.fake_quant_tensor(wmat),
            },
            Some(product) => Core::Lut {
                product: Arc::clone(product),
                w_codes: wq.quantize_codes(wmat),
                w_step: wq.step(),
                oc: wmat.shape()[0],
                k: wmat.shape()[1],
            },
        }
    }

    /// Records the per-layer health metrics for one forward call: clip
    /// rates every call (`sat_x` as `(saturated, total)` column entries;
    /// `sat_w` only for layer-wise weights, the one case with a single clip
    /// limit), and for an approximate product, on sampled calls, the ε(y)
    /// histogram, the GE residual histogram (ε − f(y_q), what the drift
    /// monitor pools) and the K-mask linear-region coverage. `y_codes`
    /// yields the exact quantized output in code units: GE's when it
    /// computed one, else [`exact_codes`] over the same operands
    /// (observation only — deliberately not counted as run work).
    fn record_health(
        &mut self,
        y: &Tensor,
        wmat: &Tensor,
        wq: &Quantizer,
        scale: f32,
        (sat_x, total_x): (u64, u64),
        y_codes: impl FnOnce() -> Tensor,
    ) {
        use axnn_obs::HistSpec;

        let Some(labels) = &self.labels else { return };
        axnn_obs::record_ratio(&labels.sat_x, sat_x, total_x);
        if !self.per_channel {
            axnn_obs::record_ratio(&labels.sat_w, wq.saturated(wmat), wmat.len() as u64);
        }
        let Some(product) = &self.product else { return };

        let sampled = self.health_calls.is_multiple_of(EPS_SAMPLE_PERIOD);
        self.health_calls += 1;
        if !sampled || scale == 0.0 {
            return;
        }
        let codes = y_codes();
        let inv = 1.0 / scale;
        axnn_obs::record_values(
            &labels.eps,
            HistSpec::eps(),
            y.as_slice()
                .iter()
                .zip(codes.as_slice())
                .map(|(&ya, &yc)| (ya * inv - yc) as f64),
        );
        let model: Option<Vec<(f32, f32)>> = codes
            .as_slice()
            .iter()
            .map(|&yc| product.error_at(yc))
            .collect();
        if let Some(model) = model {
            axnn_obs::record_values(
                &labels.ge_res,
                HistSpec::eps(),
                y.as_slice()
                    .iter()
                    .zip(codes.as_slice())
                    .zip(&model)
                    .map(|((&ya, &yc), &(f, _))| (ya * inv - yc - f) as f64),
            );
            let linear = model.iter().filter(|&&(_, d)| d != 0.0).count() as u64;
            axnn_obs::record_ratio(&labels.ge_lin, linear, codes.len() as u64);
        }
    }

    /// The approximate product's output over the `[k, m]` activation
    /// offsets `xi` (quantized by `xq`), shared by the column path and
    /// [`forward_conv`](LayerExecutor::forward_conv): the LUT GEMM, the
    /// Train-only STE operands (the weights fake-quantized, `xi` itself),
    /// GE's `(1 + K)` scale over the exact product of the codes, and the
    /// health record. `sat_x` yields the activation clip counts. `xi`
    /// goes back to the thread's buffer unless the STE operand keeps it.
    #[allow(clippy::too_many_arguments)]
    fn lut_output(
        &mut self,
        wmat: &Tensor,
        wq: &Quantizer,
        xq: &Quantizer,
        product: &Arc<dyn ApproxProduct>,
        w_codes: &[i32],
        xi: Vec<u8>,
        m: usize,
        mode: Mode,
        sat_x: impl FnOnce() -> (u64, u64),
    ) -> ExecOutput {
        let (oc, k) = (wmat.shape()[0], wmat.shape()[1]);
        let scale = wq.step() * xq.step();
        let mut y = Tensor::zeros(&[oc, m]);
        product.matmul(w_codes, &xi, [oc, k, m], scale, y.as_mut_slice());
        let train = mode == Mode::Train;
        // GE needs f'(y) on the accurate quantized output y_q (eq. 10),
        // only when training with a sloped model. The model is fitted in
        // integer-accumulator (code-product) units, which are
        // scale-invariant across layers.
        let mut ge_codes = None;
        let grad_scale = (train && product.sloped()).then(|| {
            axnn_obs::count(Counter::GemmMacs, (oc * k * m) as u64);
            let codes = ge_codes.insert(exact_codes(w_codes, wq, &xi, xq, [oc, k, m]));
            product.grad_scale(codes)
        });
        if axnn_obs::health_enabled() {
            let sat = sat_x();
            self.record_health(&y, wmat, wq, scale, sat, || {
                ge_codes.unwrap_or_else(|| exact_codes(w_codes, wq, &xi, xq, [oc, k, m]))
            });
        }
        // The STE operands only feed the Train backward, so eval and
        // calibration passes skip them.
        let (wmat_eff, x_eff) = if train {
            let x_eff = SteInput::Offsets {
                offsets: xi,
                k,
                m,
                step: xq.step(),
            };
            (wq.fake_quant_tensor(wmat), x_eff)
        } else {
            XI.set(xi);
            (
                Tensor::zeros(&[0, 0]),
                SteInput::Dense(Tensor::zeros(&[0, 0])),
            )
        };
        ExecOutput {
            y,
            wmat_eff,
            x_eff,
            grad_scale,
        }
    }
}

impl LayerExecutor for QuantExecutor {
    fn forward(&mut self, wmat: &Tensor, col: &Tensor, mode: Mode) -> ExecOutput {
        if mode == Mode::Calibrate {
            self.calibrator.observe(wmat, col, self.x_spec);
            self.x_quantizer = None; // re-freeze after more data
        }
        let wq = self.weight_quantizer(wmat);
        self.x_quantizer = self.frozen_x_quantizer();
        let xq = batch_x_quantizer(self.x_quantizer, col, self.x_spec);
        let sat_x = || (xq.saturated(col), col.len() as u64);
        // The weights change every optimizer step, so the core is rebuilt
        // on every call; the compiled backend builds it once.
        match self.core(wmat, &wq) {
            Core::Lut {
                product, w_codes, ..
            } => {
                let mut xi = XI.take();
                lut_offsets(&xq, col.as_slice(), &mut xi);
                let m = col.shape()[1];
                self.lut_output(wmat, &wq, &xq, &product, &w_codes, xi, m, mode, sat_x)
            }
            Core::Exact { w_eff } => {
                let mut y = Tensor::zeros(&[wmat.shape()[0], col.shape()[1]]);
                exact_forward(&w_eff, &xq, col, None, Epilogue::Identity, y.as_mut_slice());
                if axnn_obs::health_enabled() {
                    let scale = wq.step() * xq.step();
                    let no_eps = || unreachable!("only a product records ε");
                    self.record_health(&y, wmat, &wq, scale, sat_x(), no_eps);
                }
                // The exact core's fake-quantized operands are the STE
                // operands; its activations are still in the thread's
                // buffer, which a Train call keeps.
                let col_eff = match mode {
                    Mode::Train => Tensor::from_vec(XQ.take(), col.shape())
                        .expect("the exact core quantized col"),
                    _ => Tensor::zeros(&[0, 0]),
                };
                ExecOutput {
                    y,
                    wmat_eff: w_eff,
                    x_eff: SteInput::Dense(col_eff),
                    grad_scale: None,
                }
            }
        }
    }

    /// With an approximate product and a frozen activation step, lowers
    /// the group's `u8` offsets, quantized once (`lower_offsets`), instead
    /// of `f32` columns: the same offsets, so the same output bits. `sat_x`
    /// weights each clipped pixel by the taps that read it, the column
    /// path's count. Calibration and the dynamic abs-max step are defined
    /// over the `f32` columns, so they keep the column path, as does the
    /// exact core.
    fn forward_conv(
        &mut self,
        wmat: &Tensor,
        input: &Tensor,
        c0: usize,
        geom: ConvGeometry,
        mode: Mode,
        col: &mut Option<Tensor>,
    ) -> ExecOutput {
        let frozen = match mode {
            Mode::Calibrate => None,
            _ => self.frozen_x_quantizer(),
        };
        let (Some(xq), Some(_)) = (frozen, &self.product) else {
            return forward_conv_columns(self, wmat, input, c0, geom, mode, col);
        };
        self.x_quantizer = Some(xq);
        let wq = self.weight_quantizer(wmat);
        let Core::Lut {
            product, w_codes, ..
        } = self.core(wmat, &wq)
        else {
            unreachable!("an executor with a product builds the LUT core")
        };
        let k = wmat.shape()[1];
        let dims: [usize; 4] = input.shape().try_into().expect("conv input is NCHW");
        let [_, _, h, w] = dims;
        let mut xi = XI.take();
        let m = lower_offsets(&xq, input.as_slice(), dims, c0, k, geom, &mut xi);
        let sat_x = || {
            let (rows, cols) = (geom.tap_counts(h), geom.tap_counts(w));
            let limit = xq.clip_limit();
            let mut sat = 0;
            let cg = k / (geom.kernel * geom.kernel);
            for span in group_spans(input.as_slice(), dims, c0, cg) {
                for (i, &x) in span.iter().enumerate() {
                    if x.abs() >= limit {
                        sat += rows[i / w % h] * cols[i % w];
                    }
                }
            }
            (sat, (k * m) as u64)
        };
        self.lut_output(wmat, &wq, &xq, &product, &w_codes, xi, m, mode, sat_x)
    }

    fn kind(&self) -> ExecutorKind {
        match self.product {
            None => ExecutorKind::Quantized,
            Some(_) => ExecutorKind::Approximate,
        }
    }

    fn set_obs_label(&mut self, label: &str) {
        self.labels = Some(HealthLabels {
            sat_x: format!("sat_x:{label}"),
            sat_w: format!("sat_w:{label}"),
            eps: format!("eps:{label}"),
            ge_res: format!("ge_res:{label}"),
            ge_lin: format!("ge_lin:{label}"),
        });
    }

    fn compile_backend(&self, wmat: &Tensor) -> Option<Box<dyn axnn_nn::GemmBackend>> {
        // Weights are frozen at compile time, so the core is built once.
        // Freezing the calibrator here is deterministic, so a compiled
        // forward picks the identical activation step. An error model only
        // shapes the training backward (eq. 12), so it has no part in it.
        Some(Box::new(CompiledQuant {
            x_quantizer: self.frozen_x_quantizer(),
            x_spec: self.x_spec,
            core: self.core(wmat, &self.weight_quantizer(wmat)),
        }))
    }
}

/// Compiled-graph GEMM core of a [`QuantExecutor`]: the [`Core`] built once
/// over the frozen weights, run with the epilogue fused. Bit-identical to
/// [`QuantExecutor::forward_conv`] followed by the bias and activation
/// passes.
#[derive(Debug)]
struct CompiledQuant {
    x_quantizer: Option<Quantizer>,
    x_spec: QuantSpec,
    core: Core,
}

impl axnn_nn::GemmBackend for CompiledQuant {
    /// The interpreter's conv lowering: the LUT core with a frozen step
    /// lowers the group's offsets ([`lower_offsets`]); otherwise the
    /// group's `f32` columns, quantized as the interpreter's `forward`
    /// quantizes them, run the core. Both go through per-thread buffers,
    /// and the `[OCG, M]` product is then written into the group's NCHW
    /// channels.
    fn forward_conv(
        &mut self,
        input: &[f32],
        dims: [usize; 4],
        c0: usize,
        geom: ConvGeometry,
        bias: Option<&[f32]>,
        ep: Epilogue,
        out: &mut [f32],
        out_channels: usize,
    ) {
        let [n, _, h, w] = dims;
        let (oh, ow) = (geom.out_dim(h), geom.out_dim(w));
        let [oc, k] = self.core.dims();
        let m = n * oh * ow;
        with_scratch(&YCONV, &[oc, m], |y| {
            match (&self.core, self.x_quantizer) {
                (
                    Core::Lut {
                        product,
                        w_codes,
                        w_step,
                        ..
                    },
                    Some(xq),
                ) => XI.with_borrow_mut(|xi| {
                    lower_offsets(&xq, input, dims, c0, k, geom, xi);
                    let y = y.as_mut_slice();
                    product.matmul(w_codes, xi, [oc, k, m], *w_step * xq.step(), y);
                    gemm::apply_epilogue(y, bias, ep, m);
                }),
                _ => with_scratch(&XCOL, &[k, m], |col| {
                    lower_columns(input, dims, c0, geom, col);
                    let xq = batch_x_quantizer(self.x_quantizer, col, self.x_spec);
                    self.core.forward(&xq, col, bias, ep, y.as_mut_slice());
                }),
            }
            gemm_out_to_nchw_into(y, n, out_channels, oh, ow, out);
        });
    }
}

/// The 8A4W forward product of one layer's quantized weights, shared by
/// both engines: [`QuantExecutor::forward`] builds it on every call,
/// [`CompiledQuant`] once at compile time.
#[derive(Debug)]
enum Core {
    /// f32 GEMM over the fake-quantized weights `w_eff` and activations
    /// (quantized into the thread's `XQ`).
    Exact { w_eff: Tensor },
    /// The approximate product over weight codes and the activations' LUT
    /// offsets (quantized into the thread's `XI`).
    Lut {
        product: Arc<dyn ApproxProduct>,
        w_codes: Vec<i32>,
        w_step: f32,
        oc: usize,
        k: usize,
    },
}

impl Core {
    /// The weight block's `[rows, taps]`.
    fn dims(&self) -> [usize; 2] {
        match self {
            Core::Exact { w_eff } => [w_eff.shape()[0], w_eff.shape()[1]],
            Core::Lut { oc, k, .. } => [*oc, *k],
        }
    }

    /// `ep(W·col + bias)` into the row-major `[OC, M]` `out`, with `col`
    /// quantized by `xq`, counting the exact core's MACs.
    fn forward(
        &self,
        xq: &Quantizer,
        col: &Tensor,
        bias: Option<&[f32]>,
        ep: Epilogue,
        out: &mut [f32],
    ) {
        let m = col.shape()[1];
        match self {
            Core::Exact { w_eff } => exact_forward(w_eff, xq, col, bias, ep, out),
            Core::Lut {
                product,
                w_codes,
                w_step,
                oc,
                k,
            } => {
                XI.with_borrow_mut(|xi| {
                    lut_offsets(xq, col.as_slice(), xi);
                    product.matmul(w_codes, xi, [*oc, *k, m], *w_step * xq.step(), out);
                });
                gemm::apply_epilogue(out, bias, ep, m);
            }
        }
    }
}

/// The exact core's product: `ep(w_eff · fq(col) + bias)` into `out`, with
/// `col` fake-quantized by `xq` into the thread's `XQ`, counting its MACs.
fn exact_forward(
    w_eff: &Tensor,
    xq: &Quantizer,
    col: &Tensor,
    bias: Option<&[f32]>,
    ep: Epilogue,
    out: &mut [f32],
) {
    axnn_obs::count(Counter::GemmMacs, (w_eff.len() * col.shape()[1]) as u64);
    with_scratch(&XQ, col.shape(), |xf| {
        xq.fake_quant_into(col.as_slice(), xf.as_mut_slice());
        gemm::matmul_bias_act_into(w_eff, xf, bias, ep, out);
    });
}

/// Swaps fresh per-channel-weight [`QuantExecutor`]s into every conv/FC
/// layer of `net` — the finer-grained ablation of [`quantize_network`].
pub fn quantize_network_per_channel(net: &mut Sequential, x_spec: QuantSpec, w_spec: QuantSpec) {
    net.visit_gemm_cores(&mut |core| {
        core.set_executor(Box::new(
            QuantExecutor::new(x_spec, w_spec).per_channel_weights(true),
        ));
    });
}

/// Swaps a fresh [`QuantExecutor`] into every conv/FC layer of `net`.
///
/// Run a calibration pass afterwards (forwards in [`Mode::Calibrate`]) so
/// the activation steps are chosen by MinPropQE rather than the dynamic
/// abs-max fallback.
pub fn quantize_network(net: &mut Sequential, x_spec: QuantSpec, w_spec: QuantSpec) {
    net.visit_gemm_cores(&mut |core| {
        core.set_executor(Box::new(QuantExecutor::new(x_spec, w_spec)));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use axnn_nn::train::{calibrate, evaluate, Dataset};
    use axnn_nn::{Activation, ActivationKind, Linear};
    use axnn_rng::Rng;
    use axnn_tensor::init;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// GE's exact product from the codes against the `f32` GEMM of the
    /// dequantized operands scaled by `1/scale`, bit for bit: ±127 × ±7
    /// codes (every tap at the extremes on some draws), K up to 576,
    /// power-of-two steps from 2⁻²⁰ to 2⁴, and a non-power-of-two step,
    /// which takes the `f32` fallback; the portable integer body too.
    #[test]
    fn integer_ge_product_matches_the_f32_gemm_of_the_codes() {
        axnn_rng::cases(128, |mut rng| {
            let (oc, m) = (rng.gen_range(1usize..=16), rng.gen_range(1usize..=300));
            let k = match rng.gen_range(0u32..3) {
                0 => 576,
                _ => rng.gen_range(1usize..=576),
            };
            let extreme = rng.gen_bool(0.25);
            let w_codes: Vec<i32> = (0..oc * k)
                .map(|_| match extreme {
                    true => [-7, 7][rng.gen_range(0usize..2)],
                    false => rng.gen_range(-7i32..=7),
                })
                .collect();
            let xi: Vec<u8> = (0..k * m)
                .map(|_| match extreme {
                    true => [1, 255][rng.gen_range(0usize..2)],
                    false => rng.gen_range(1u32..=255) as u8,
                })
                .collect();
            let wq = Quantizer::with_step(
                2f32.powi(rng.gen_range(-20i32..=4)),
                QuantSpec::weights_4bit(),
            );
            let x_spec = match rng.gen_bool(0.2) {
                true => QuantSpec {
                    pow2_step: false,
                    ..QuantSpec::activations_8bit()
                },
                false => QuantSpec::activations_8bit(),
            };
            let xq = Quantizer::with_step(2f32.powi(rng.gen_range(-20i32..=4)) * 0.7, x_spec);
            let w_eff = Tensor::from_vec(
                w_codes.iter().map(|&c| wq.dequantize(c)).collect(),
                &[oc, k],
            )
            .unwrap();
            let col_eff = Tensor::from_vec(
                xi.iter()
                    .map(|&o| xq.dequantize(i32::from(o) - 128))
                    .collect(),
                &[k, m],
            )
            .unwrap();
            let mut want = gemm::matmul(&w_eff, &col_eff);
            want.scale(1.0 / (wq.step() * xq.step()));
            assert_eq!(
                codes_sum_exactly(&wq, &xq, k),
                x_spec.pow2_step,
                "steps {} {}",
                wq.step(),
                xq.step()
            );
            let got = exact_codes(&w_codes, &wq, &xi, &xq, [oc, k, m]);
            assert_eq!(bits(&got), bits(&want), "{oc}x{k}x{m} extreme={extreme}");
            // The portable body, which the dispatch skips on AVX2 machines.
            let mut portable = vec![0.0f32; oc * m];
            for (w, row) in w_codes.chunks_exact(k).zip(portable.chunks_exact_mut(m)) {
                for (chunk, out) in row.chunks_mut(CODE_COLS).enumerate() {
                    let cols = chunk * CODE_COLS..chunk * CODE_COLS + out.len();
                    code_tile(w, &xi, m, cols, out);
                }
            }
            if x_spec.pow2_step {
                assert_eq!(portable, got.as_slice(), "portable {oc}x{k}x{m}");
            }
        });
    }

    #[test]
    fn quantized_forward_is_close_to_exact_for_8bit() {
        let mut rng = Rng::seed(60);
        let wmat = init::uniform(&[4, 16], -0.5, 0.5, &mut rng);
        let col = init::uniform(&[16, 8], -1.0, 1.0, &mut rng);
        let spec8 = QuantSpec::activations_8bit();
        let mut ex = QuantExecutor::new(spec8, spec8);
        let out = ex.forward(&wmat, &col, Mode::Eval);
        let exact = gemm::matmul(&wmat, &col);
        let rel = (&out.y - &exact).sq_norm().sqrt() / exact.sq_norm().sqrt();
        assert!(rel < 0.02, "8-bit relative error {rel}");
    }

    #[test]
    fn four_bit_weights_are_coarser_than_eight_bit() {
        let mut rng = Rng::seed(61);
        let wmat = init::uniform(&[4, 16], -0.5, 0.5, &mut rng);
        let col = init::uniform(&[16, 8], -1.0, 1.0, &mut rng);
        let exact = gemm::matmul(&wmat, &col);
        let err = |w_spec: QuantSpec| {
            let mut ex = QuantExecutor::new(QuantSpec::activations_8bit(), w_spec);
            (&ex.forward(&wmat, &col, Mode::Eval).y - &exact).sq_norm()
        };
        assert!(err(QuantSpec::weights_4bit()) > err(QuantSpec::activations_8bit()));
    }

    #[test]
    fn effective_operands_are_quantization_grids() {
        let mut rng = Rng::seed(62);
        let wmat = init::uniform(&[3, 5], -1.0, 1.0, &mut rng);
        let col = init::uniform(&[5, 4], -2.0, 2.0, &mut rng);
        let mut ex = QuantExecutor::new_8a4w();
        let out = ex.forward(&wmat, &col, Mode::Eval);
        let wq = ex.weight_quantizer(&wmat);
        for &v in out.wmat_eff.as_slice() {
            let code = v / wq.step();
            assert!((code - code.round()).abs() < 1e-5, "not on grid: {v}");
            assert!(code.round().abs() <= 7.0);
        }
        assert!(out.grad_scale.is_none(), "plain quantization has no GE");
        assert_eq!(ex.kind(), ExecutorKind::Quantized);
    }

    #[test]
    fn calibration_freezes_activation_step() {
        let mut rng = Rng::seed(63);
        let wmat = init::uniform(&[4, 8], -0.5, 0.5, &mut rng);
        let mut ex = QuantExecutor::new_8a4w();
        for _ in 0..3 {
            let col = init::uniform(&[8, 16], -1.0, 1.0, &mut rng);
            ex.forward(&wmat, &col, Mode::Calibrate);
        }
        let col = init::uniform(&[8, 16], -1.0, 1.0, &mut rng);
        ex.forward(&wmat, &col, Mode::Eval);
        let q = ex.activation_quantizer().expect("frozen after first eval");
        // Frozen step stays fixed across batches with different ranges.
        let wild = init::uniform(&[8, 16], -100.0, 100.0, &mut rng);
        ex.forward(&wmat, &wild, Mode::Eval);
        assert_eq!(ex.activation_quantizer().expect("still frozen"), q);
    }

    #[test]
    fn min_prop_qe_beats_or_matches_naive_absmax_step() {
        let mut rng = Rng::seed(8);
        let spec = QuantSpec::activations_8bit();
        // Heavy-tailed input: a few large outliers, mass near zero — the
        // regime where abs-max calibration wastes resolution.
        let mut col = init::normal(&[16, 32], 0.0, 0.1, &mut rng);
        col.as_mut_slice()[0] = 8.0;
        col.as_mut_slice()[100] = -8.0;
        let wmat = init::normal(&[8, 16], 0.0, 0.5, &mut rng);

        let naive = Quantizer::for_abs_max(col.abs_max(), spec);
        let mut calibrator = ActRangeCalibrator::new();
        calibrator.observe(&wmat, &col, spec);
        let tuned = calibrator.freeze(spec).expect("one batch observed");
        let reference = gemm::matmul(&wmat, &col);
        let err = |q: &Quantizer| {
            (&gemm::matmul(&wmat, &q.fake_quant_tensor(&col)) - &reference).sq_norm()
        };
        assert!(err(&tuned) <= err(&naive) + 1e-9);
        assert!(tuned.step() < naive.step(), "outliers should be clipped");
    }

    /// No step can be calibrated on an all-zero sample, so the layer keeps
    /// its dynamic abs-max fallback.
    #[test]
    fn min_prop_qe_freezes_nothing_from_an_all_zero_sample() {
        let spec = QuantSpec::activations_8bit();
        let mut calibrator = ActRangeCalibrator::new();
        calibrator.observe(&Tensor::ones(&[2, 2]), &Tensor::zeros(&[2, 2]), spec);
        assert_eq!(calibrator.freeze(spec), None);
    }

    #[test]
    fn per_channel_beats_layer_wise_on_skewed_rows() {
        // Row 0 has tiny weights, row 1 huge ones: a single layer scale
        // wastes row 0's resolution entirely at 4 bits.
        let mut wmat = Tensor::zeros(&[2, 8]);
        for i in 0..8 {
            wmat.as_mut_slice()[i] = 0.01 * (i as f32 + 1.0) * if i % 2 == 0 { 1.0 } else { -1.0 };
            wmat.as_mut_slice()[8 + i] = 3.0 * (i as f32 + 1.0);
        }
        let mut rng = Rng::seed(65);
        let col = init::uniform(&[8, 6], -1.0, 1.0, &mut rng);
        let exact = gemm::matmul(&wmat, &col);

        // Row 1 (the huge weights) sets the shared scale, so compare the
        // quantization error of the *small* row's outputs, where the wasted
        // resolution shows.
        let row0_err = |per_channel: bool| {
            let mut ex = QuantExecutor::new_8a4w().per_channel_weights(per_channel);
            let y = ex.forward(&wmat, &col, Mode::Eval).y;
            (&y.slice_outer(0, 1) - &exact.slice_outer(0, 1)).sq_norm()
        };
        assert!(
            row0_err(true) < row0_err(false) * 0.5,
            "per-channel {} vs layer-wise {}",
            row0_err(true),
            row0_err(false)
        );
    }

    #[test]
    fn per_channel_rows_stay_on_their_own_grids() {
        let mut wmat = Tensor::zeros(&[2, 4]);
        wmat.as_mut_slice()[..4].copy_from_slice(&[0.1, -0.05, 0.07, 0.02]);
        wmat.as_mut_slice()[4..].copy_from_slice(&[5.0, -3.0, 7.0, 1.0]);
        let ex = QuantExecutor::new_8a4w().per_channel_weights(true);
        let deq = ex.fake_quant_per_channel(&wmat);
        // Row 1's step would flatten row 0 to zero under a shared scale;
        // per channel it survives.
        assert!(deq.as_slice()[..4].iter().any(|&v| v != 0.0));
    }

    #[test]
    fn quantize_network_per_channel_swaps_cores() {
        let mut rng = Rng::seed(66);
        let mut net = Sequential::new(vec![
            Box::new(Linear::new(4, 4, true, &mut rng)) as Box<dyn axnn_nn::Layer>
        ]);
        quantize_network_per_channel(
            &mut net,
            QuantSpec::activations_8bit(),
            QuantSpec::weights_4bit(),
        );
        let mut kinds = Vec::new();
        net.visit_gemm_cores(&mut |c| kinds.push(c.executor.kind()));
        assert_eq!(kinds, vec![ExecutorKind::Quantized]);
    }

    #[test]
    fn quantize_network_swaps_all_cores_and_mild_accuracy_drop() {
        let mut rng = Rng::seed(64);
        // Train a small FP MLP on separable data, then quantize.
        let n = 96;
        let mut inputs = init::uniform(&[n, 4], -1.0, 1.0, &mut rng);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let s: f32 = inputs.as_slice()[i * 4..i * 4 + 4].iter().sum();
            labels.push(usize::from(s > 0.0));
            let l = (s > 0.0) as i32 as f32 * 2.0 - 1.0;
            for v in &mut inputs.as_mut_slice()[i * 4..i * 4 + 4] {
                *v += 0.2 * l;
            }
        }
        let data = Dataset::new(inputs, labels);
        let mut net = Sequential::new(vec![
            Box::new(Linear::new(4, 12, true, &mut rng)),
            Box::new(Activation::new(ActivationKind::Relu)),
            Box::new(Linear::new(12, 2, true, &mut rng)),
        ]);
        let mut opt = axnn_nn::Sgd::new(0.1).momentum(0.9);
        for _ in 0..40 {
            axnn_nn::train::train_epoch(
                &mut net,
                &data,
                32,
                &mut opt,
                &mut axnn_nn::train::hard_loss,
            );
        }
        let fp_acc = evaluate(&mut net, &data, 32);
        assert!(fp_acc > 0.9, "FP training failed: {fp_acc}");

        quantize_network(
            &mut net,
            QuantSpec::activations_8bit(),
            QuantSpec::weights_4bit(),
        );
        let mut kinds = Vec::new();
        net.visit_gemm_cores(&mut |c| kinds.push(c.executor.kind()));
        assert_eq!(kinds, vec![ExecutorKind::Quantized; 2]);

        calibrate(&mut net, &data, 32, 2);
        let q_acc = evaluate(&mut net, &data, 32);
        assert!(
            q_acc > fp_acc - 0.25,
            "8A4W should not destroy this easy task: {fp_acc} -> {q_acc}"
        );
    }
}
