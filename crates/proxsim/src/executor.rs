//! The approximate-multiplier layer executor.

use crate::error_model::PiecewiseLinearError;
use crate::gemm::{
    approx_matmul_offsets, approx_matmul_with_adder_offsets, dequantize_offsets, lut_offsets,
};
use crate::signed_lut::SignedLut;
use axnn_axmul::adder::Adder;
use axnn_axmul::Multiplier;
use axnn_nn::{ExecOutput, ExecutorKind, Layer, LayerExecutor, Mode, Sequential};
use axnn_quant::{batch_quantizer, ActRangeCalibrator, QuantExecutor, QuantSpec, Quantizer};
use axnn_tensor::{gemm, Tensor};
use std::sync::Arc;

/// Layer executor computing `y ≈ W_q · X_q` with an approximate multiplier
/// over 8A4W-quantized codes (the ProxSim execution model).
///
/// - Weights are quantized layer-wise from their current abs-max (power-of-
///   two step); activations use a step frozen by MinPropQE calibration.
/// - The forward GEMM accumulates LUT-served approximate products in `i64`
///   (eq. 4) and rescales by `s_w · s_x`.
/// - The backward pass (in `axnn-nn`) is the exact-GEMM STE of eq. (5); if
///   an error model is attached, the upstream gradient is scaled by
///   `1 + f'(y)` evaluated on the *accurate* quantized output (eq. 10/12) —
///   gradient estimation. A constant model degenerates to the plain STE.
///   The scale is only computed in [`Mode::Train`]: the forward output
///   never depends on the error model.
#[derive(Debug)]
pub struct ApproxExecutor {
    lut: Arc<SignedLut>,
    x_spec: QuantSpec,
    w_spec: QuantSpec,
    calibrator: ActRangeCalibrator,
    x_quantizer: Option<Quantizer>,
    error_model: Option<PiecewiseLinearError>,
    adder: Option<Arc<dyn Adder>>,
    /// Pre-formatted health keys (`eps:<layer>`, ...); empty until the
    /// owning layer hands over its label, which also gates all health
    /// recording (no telemetry without an attribution).
    eps_label: String,
    res_label: String,
    lin_label: String,
    sat_x_label: String,
    sat_w_label: String,
    /// Forward calls seen while health telemetry was on; drives the ε
    /// sampling period.
    health_calls: u64,
}

/// ε(y) needs an exact reference GEMM of the same shape as the approximate
/// one, so it is sampled: every `EPS_SAMPLE_PERIOD`-th health-enabled call
/// per executor (the first call always samples). Saturation ratios are
/// cheap scans and recorded on every health-enabled call.
const EPS_SAMPLE_PERIOD: u64 = 16;

impl ApproxExecutor {
    /// Creates an 8A4W approximate executor over a prebuilt LUT.
    ///
    /// `error_model` enables gradient estimation; pass `None` for the plain
    /// STE backward.
    pub fn new(lut: Arc<SignedLut>, error_model: Option<PiecewiseLinearError>) -> Self {
        Self {
            lut,
            x_spec: QuantSpec::activations_8bit(),
            w_spec: QuantSpec::weights_4bit(),
            calibrator: ActRangeCalibrator::new(),
            x_quantizer: None,
            error_model,
            adder: None,
            eps_label: String::new(),
            res_label: String::new(),
            lin_label: String::new(),
            sat_x_label: String::new(),
            sat_w_label: String::new(),
            health_calls: 0,
        }
    }

    /// Accumulates through a behavioural approximate adder instead of exact
    /// `+` (builder style) — the paper's outlook of stacking a second
    /// approximation technique. `None`/unset keeps exact accumulation.
    pub fn with_adder(mut self, adder: Arc<dyn Adder>) -> Self {
        self.adder = Some(adder);
        self
    }

    /// The attached error model, if any.
    pub fn error_model(&self) -> Option<PiecewiseLinearError> {
        self.error_model
    }

    /// The frozen activation quantizer, freezing the calibrator's winner
    /// when none is set yet (`None` before any calibration data).
    fn frozen_x_quantizer(&self) -> Option<Quantizer> {
        self.x_quantizer
            .or_else(|| self.calibrator.freeze(self.x_spec))
    }

    /// Layer-wise weight quantizer from the current abs-max (step 1 for
    /// all-zero weights, whose codes are all zero anyway).
    fn weight_quantizer(&self, wmat: &Tensor) -> Quantizer {
        let w_abs = wmat.abs_max();
        if w_abs > 0.0 {
            Quantizer::for_abs_max(w_abs, self.w_spec)
        } else {
            Quantizer::with_step(1.0, self.w_spec)
        }
    }

    /// Records the per-layer health metrics for one forward call: clip
    /// rates every call, and on sampled calls the ε(y) histogram, the GE
    /// residual histogram (ε − f(y_q), what the drift monitor pools) and
    /// the K-mask linear-region coverage. `y_codes` is the exact quantized
    /// output in code units when the GE path already computed it;
    /// otherwise the sampled path fake-quantizes the operands and computes
    /// its own reference GEMM (observation only — deliberately not counted
    /// as run work).
    #[allow(clippy::too_many_arguments)]
    fn record_health(
        &mut self,
        y: &Tensor,
        wmat: &Tensor,
        col: &Tensor,
        wq: &Quantizer,
        xq: &Quantizer,
        scale: f32,
        y_codes: Option<&Tensor>,
    ) {
        use axnn_obs::HistSpec;

        axnn_obs::record_ratio(&self.sat_x_label, xq.saturated(col), col.len() as u64);
        axnn_obs::record_ratio(&self.sat_w_label, wq.saturated(wmat), wmat.len() as u64);

        let sampled = self.health_calls.is_multiple_of(EPS_SAMPLE_PERIOD);
        self.health_calls += 1;
        if !sampled || scale == 0.0 {
            return;
        }
        let computed;
        let codes = match y_codes {
            Some(t) => t,
            None => {
                let mut t = gemm::matmul(&wq.fake_quant_tensor(wmat), &xq.fake_quant_tensor(col));
                t.scale(1.0 / scale);
                computed = t;
                &computed
            }
        };
        let inv = 1.0 / scale;
        axnn_obs::record_values(
            &self.eps_label,
            HistSpec::eps(),
            y.as_slice()
                .iter()
                .zip(codes.as_slice())
                .map(|(&ya, &yc)| (ya * inv - yc) as f64),
        );
        if let Some(model) = &self.error_model {
            axnn_obs::record_values(
                &self.res_label,
                HistSpec::eps(),
                y.as_slice()
                    .iter()
                    .zip(codes.as_slice())
                    .map(|(&ya, &yc)| (ya * inv - yc - model.value(yc)) as f64),
            );
            let linear = codes
                .as_slice()
                .iter()
                .filter(|&&yc| model.derivative(yc) != 0.0)
                .count() as u64;
            axnn_obs::record_ratio(&self.lin_label, linear, codes.len() as u64);
        }
    }
}

impl LayerExecutor for ApproxExecutor {
    fn forward(&mut self, wmat: &Tensor, col: &Tensor, mode: Mode) -> ExecOutput {
        if mode == Mode::Calibrate {
            self.calibrator.observe(wmat, col, self.x_spec);
            self.x_quantizer = None;
        }
        let wq = self.weight_quantizer(wmat);
        self.x_quantizer = self.frozen_x_quantizer();
        let xq = batch_x_quantizer(self.x_quantizer, col, self.x_spec);

        let w_codes = wq.quantize_codes(wmat);
        let xi = lut_offsets(&xq, col.as_slice());
        let (oc, k) = (wmat.shape()[0], wmat.shape()[1]);
        let m = col.shape()[1];
        let scale = wq.step() * xq.step();
        let y = approx_gemm(
            &self.lut,
            self.adder.as_deref(),
            &w_codes,
            &xi,
            [oc, k, m],
            scale,
        );

        // The STE operands only feed the Train backward (and GE below), so
        // eval and calibration passes skip them.
        let (w_eff, col_eff) = if mode == Mode::Train {
            (
                wq.fake_quant_tensor(wmat),
                dequantize_offsets(&xq, &xi, col.shape()),
            )
        } else {
            (Tensor::zeros(&[0, 0]), Tensor::zeros(&[0, 0]))
        };

        // GE needs f'(y) on the accurate quantized output y_q (eq. 10);
        // compute it only when training with a non-constant model. The
        // model is fitted in integer-accumulator (code-product) units,
        // which are scale-invariant across layers, so evaluate on
        // y_exact / scale.
        let mut ge_codes = None;
        let grad_scale = match &self.error_model {
            Some(model) if mode == Mode::Train && !model.is_constant() => {
                if axnn_obs::enabled() {
                    axnn_obs::count(axnn_obs::Counter::GemmMacs, (oc * k * m) as u64);
                }
                let mut y_codes = gemm::matmul(&w_eff, &col_eff);
                y_codes.scale(1.0 / scale);
                let gs = model.grad_scale(&y_codes);
                ge_codes = Some(y_codes);
                Some(gs)
            }
            _ => None,
        };

        if axnn_obs::health_enabled() && !self.eps_label.is_empty() {
            self.record_health(&y, wmat, col, &wq, &xq, scale, ge_codes.as_ref());
        }

        ExecOutput {
            y,
            wmat_eff: w_eff,
            col_eff,
            grad_scale,
        }
    }

    fn kind(&self) -> ExecutorKind {
        ExecutorKind::Approximate
    }

    fn set_obs_label(&mut self, label: &str) {
        self.eps_label = format!("eps:{label}");
        self.res_label = format!("ge_res:{label}");
        self.lin_label = format!("ge_lin:{label}");
        self.sat_x_label = format!("sat_x:{label}");
        self.sat_w_label = format!("sat_w:{label}");
    }

    fn compile_backend(&self, wmat: &Tensor) -> Option<Box<dyn axnn_nn::GemmBackend>> {
        // Weights are frozen at compile time: quantize them to codes once
        // with the same abs-max chain as the interpreter forward. The error
        // model only shapes the training backward (eq. 12), so it has no
        // part in the compiled core.
        let wq = self.weight_quantizer(wmat);
        Some(Box::new(ApproxBackend {
            lut: Arc::clone(&self.lut),
            adder: self.adder.clone(),
            w_codes: wq.quantize_codes(wmat),
            wq_step: wq.step(),
            x_quantizer: self.frozen_x_quantizer(),
            x_spec: self.x_spec,
            oc: wmat.shape()[0],
            k: wmat.shape()[1],
        }))
    }
}

/// The activation quantizer for one batch of an approximate GEMM: the
/// shared frozen/dynamic chain, with step 1 for an all-zero batch (whose
/// codes are all zero anyway).
fn batch_x_quantizer(frozen: Option<Quantizer>, col: &Tensor, spec: QuantSpec) -> Quantizer {
    batch_quantizer(frozen, col, spec).unwrap_or_else(|| Quantizer::with_step(1.0, spec))
}

/// The `[oc, k] x [k, m]` approximate GEMM over weight codes and
/// activation LUT offsets: LUT-served products accumulated exactly, or
/// through `adder` when one is attached, then rescaled by `scale`.
fn approx_gemm(
    lut: &SignedLut,
    adder: Option<&dyn Adder>,
    w_codes: &[i32],
    xi: &[u8],
    [oc, k, m]: [usize; 3],
    scale: f32,
) -> Tensor {
    match adder {
        Some(adder) => approx_matmul_with_adder_offsets(w_codes, xi, oc, k, m, lut, adder, scale),
        None => approx_matmul_offsets(w_codes, xi, oc, k, m, lut, scale),
    }
}

/// Compiled-graph GEMM core for the approximate executor: weight codes
/// quantized once at compile time, the interpreter's activation
/// quantization chain per batch, LUT-served approximate accumulation, and
/// the bias+activation epilogue applied over the raw approximate output.
/// Bit-identical to [`ApproxExecutor::forward`].
#[derive(Debug)]
struct ApproxBackend {
    lut: Arc<SignedLut>,
    adder: Option<Arc<dyn Adder>>,
    w_codes: Vec<i32>,
    wq_step: f32,
    x_quantizer: Option<Quantizer>,
    x_spec: QuantSpec,
    oc: usize,
    k: usize,
}

impl axnn_nn::GemmBackend for ApproxBackend {
    fn kind(&self) -> ExecutorKind {
        ExecutorKind::Approximate
    }

    fn out_rows(&self) -> usize {
        self.oc
    }

    fn forward(&mut self, col: &Tensor, bias: Option<&[f32]>, ep: gemm::Epilogue, out: &mut [f32]) {
        let xq = batch_x_quantizer(self.x_quantizer, col, self.x_spec);
        let xi = lut_offsets(&xq, col.as_slice());
        let m = col.shape()[1];
        let scale = self.wq_step * xq.step();
        let y = approx_gemm(
            &self.lut,
            self.adder.as_deref(),
            &self.w_codes,
            &xi,
            [self.oc, self.k, m],
            scale,
        );
        let ys = y.as_slice();
        match bias {
            Some(b) => {
                for r in 0..self.oc {
                    let br = b[r];
                    for (o, &v) in out[r * m..(r + 1) * m]
                        .iter_mut()
                        .zip(&ys[r * m..(r + 1) * m])
                    {
                        *o = ep.apply(v + br);
                    }
                }
            }
            None => {
                for (o, &v) in out.iter_mut().zip(ys) {
                    *o = ep.apply(v);
                }
            }
        }
    }
}

/// One GEMM layer's executor in an [`approximate_network_assigned`] layout:
/// `Some((lut, error_model))` computes the layer with that LUT multiplier
/// (and gradient estimation when a model is given); `None` runs it
/// 8A4W-quantized with exact products.
pub type LayerAssignment = Option<(Arc<SignedLut>, Option<PiecewiseLinearError>)>;

/// Swaps an [`ApproxExecutor`] into every conv/FC layer of `net`, sharing
/// one LUT for the given multiplier (uniform approximation, as in the
/// paper's experiments).
///
/// Run a [`Mode::Calibrate`] pass afterwards to freeze activation steps.
pub fn approximate_network(
    net: &mut Sequential,
    multiplier: &dyn Multiplier,
    error_model: Option<PiecewiseLinearError>,
) {
    let mut layers = 0;
    net.visit_gemm_cores(&mut |_| layers += 1);
    let every = Some((Arc::new(SignedLut::build(multiplier)), error_model));
    approximate_network_assigned(net, &vec![every; layers]);
}

/// Lays out the executors of every GEMM layer (network order): each
/// `Some` entry installs an [`ApproxExecutor`] over its LUT and error
/// model, each `None` a fresh 8A4W [`QuantExecutor`].
///
/// This one layout covers uniform approximation (every entry `Some` with
/// one shared LUT, [`approximate_network`]), the *partial* approximation
/// the paper contrasts with it (§II: savings are bounded by the fraction
/// of approximated MACs, but so is the accuracy degradation) and the
/// per-layer heterogeneous assignments of `axnn-search`, whose callers
/// build one [`SignedLut`] per distinct multiplier and hand out `Arc`
/// clones per layer.
///
/// Run a [`Mode::Calibrate`] pass afterwards to freeze activation steps.
///
/// # Panics
///
/// Panics if `assignment.len()` differs from the network's GEMM layer count.
pub fn approximate_network_assigned(net: &mut Sequential, assignment: &[LayerAssignment]) {
    let mut index = 0usize;
    net.visit_gemm_cores(&mut |core| {
        assert!(
            index < assignment.len(),
            "assignment covers {} layers but the network has more",
            assignment.len()
        );
        match &assignment[index] {
            Some((lut, error_model)) => {
                core.set_executor(Box::new(ApproxExecutor::new(Arc::clone(lut), *error_model)))
            }
            None => core.set_executor(Box::new(QuantExecutor::new_8a4w())),
        }
        index += 1;
    });
    assert_eq!(
        index,
        assignment.len(),
        "assignment covers {} layers but the network has {index}",
        assignment.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use axnn_axmul::{EvoLikeMul, ExactMul, TruncatedMul};
    use axnn_rng::Rng;
    use axnn_tensor::init;

    fn lut(m: &dyn Multiplier) -> Arc<SignedLut> {
        Arc::new(SignedLut::build(m))
    }

    #[test]
    fn exact_multiplier_reduces_to_quantized_executor() {
        let mut rng = Rng::seed(70);
        let wmat = init::uniform(&[4, 8], -0.5, 0.5, &mut rng);
        let col = init::uniform(&[8, 6], -1.0, 1.0, &mut rng);
        let mut approx = ApproxExecutor::new(lut(&ExactMul), None);
        let mut quant = axnn_quant::QuantExecutor::new_8a4w();
        let ya = approx.forward(&wmat, &col, Mode::Eval);
        let yq = quant.forward(&wmat, &col, Mode::Eval);
        for (a, b) in ya.y.as_slice().iter().zip(yq.y.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
        assert_eq!(approx.kind(), ExecutorKind::Approximate);
    }

    #[test]
    fn truncated_multiplier_shrinks_magnitudes() {
        let mut rng = Rng::seed(71);
        // All-positive operands make the truncation bias visible.
        let wmat = init::uniform(&[4, 16], 0.1, 0.5, &mut rng);
        let col = init::uniform(&[16, 8], 0.1, 1.0, &mut rng);
        let mut approx = ApproxExecutor::new(lut(&TruncatedMul::new(5)), None);
        let mut exact = ApproxExecutor::new(lut(&ExactMul), None);
        let ya = approx.forward(&wmat, &col, Mode::Eval);
        let ye = exact.forward(&wmat, &col, Mode::Eval);
        let mut shrunk = 0;
        for (a, e) in ya.y.as_slice().iter().zip(ye.y.as_slice()) {
            assert!(*a <= *e + 1e-4, "truncation can only shrink: {a} vs {e}");
            if *a < *e - 1e-4 {
                shrunk += 1;
            }
        }
        assert!(shrunk > 0, "trunc5 must actually lose magnitude");
    }

    #[test]
    fn grad_scale_present_only_with_sloped_model() {
        let mut rng = Rng::seed(72);
        let wmat = init::uniform(&[2, 4], -0.5, 0.5, &mut rng);
        let col = init::uniform(&[4, 3], -1.0, 1.0, &mut rng);
        let l = lut(&TruncatedMul::new(5));

        let mut no_model = ApproxExecutor::new(Arc::clone(&l), None);
        assert!(no_model
            .forward(&wmat, &col, Mode::Train)
            .grad_scale
            .is_none());

        let constant = PiecewiseLinearError::constant(-0.3);
        let mut const_model = ApproxExecutor::new(Arc::clone(&l), Some(constant));
        assert!(
            const_model
                .forward(&wmat, &col, Mode::Train)
                .grad_scale
                .is_none(),
            "constant model is STE; no scale materialised"
        );

        let sloped = PiecewiseLinearError::new(-0.05, 0.0, -10.0, 10.0);
        let mut ge = ApproxExecutor::new(l, Some(sloped));
        let out = ge.forward(&wmat, &col, Mode::Train);
        let scale = out.grad_scale.expect("sloped model produces a scale");
        assert_eq!(scale.shape(), out.y.shape());
        assert!(scale.as_slice().iter().any(|&s| (s - 1.0).abs() > 1e-6));
    }

    #[test]
    fn approximate_network_swaps_every_core() {
        let mut rng = Rng::seed(73);
        let mut net = Sequential::new(vec![
            Box::new(axnn_nn::Linear::new(4, 6, true, &mut rng)),
            Box::new(axnn_nn::Activation::new(axnn_nn::ActivationKind::Relu)),
            Box::new(axnn_nn::Linear::new(6, 2, true, &mut rng)),
        ]);
        approximate_network(&mut net, &EvoLikeMul::calibrated(228, 0.19), None);
        let mut kinds = Vec::new();
        net.visit_gemm_cores(&mut |c| kinds.push(c.executor.kind()));
        assert_eq!(kinds, vec![ExecutorKind::Approximate; 2]);
        // Forward still works end to end.
        let y = net.forward(&init::uniform(&[3, 4], -1.0, 1.0, &mut rng), Mode::Eval);
        assert_eq!(y.shape(), &[3, 2]);
    }

    #[test]
    fn assigned_approximation_gives_each_layer_its_own_multiplier() {
        let mut rng = Rng::seed(79);
        let mut net = Sequential::new(vec![
            Box::new(axnn_nn::Linear::new(4, 6, true, &mut rng)),
            Box::new(axnn_nn::Activation::new(axnn_nn::ActivationKind::Relu)),
            Box::new(axnn_nn::Linear::new(6, 5, true, &mut rng)),
            Box::new(axnn_nn::Linear::new(5, 2, true, &mut rng)),
        ]);
        let trunc = lut(&TruncatedMul::new(5));
        let evo = lut(&EvoLikeMul::calibrated(228, 0.19));
        approximate_network_assigned(
            &mut net,
            &[
                Some((Arc::clone(&trunc), None)),
                None,
                Some((Arc::clone(&evo), None)),
            ],
        );
        let mut seen = Vec::new();
        net.visit_gemm_cores(&mut |c| seen.push(c.executor.kind()));
        assert_eq!(
            seen,
            vec![
                ExecutorKind::Approximate,
                ExecutorKind::Quantized,
                ExecutorKind::Approximate
            ],
            "None entries run 8A4W"
        );
        let y = net.forward(&init::uniform(&[3, 4], -1.0, 1.0, &mut rng), Mode::Eval);
        assert_eq!(y.shape(), &[3, 2]);
    }

    #[test]
    #[should_panic(expected = "assignment covers 1 layers")]
    fn assigned_approximation_rejects_wrong_length() {
        let mut rng = Rng::seed(80);
        let mut net = Sequential::new(vec![
            Box::new(axnn_nn::Linear::new(4, 4, true, &mut rng)),
            Box::new(axnn_nn::Linear::new(4, 2, true, &mut rng)),
        ]);
        approximate_network_assigned(&mut net, &[Some((lut(&TruncatedMul::new(3)), None))]);
    }

    #[test]
    fn approximate_adder_changes_outputs_and_exact_adder_does_not() {
        use axnn_axmul::adder::{ExactAdder, LoaAdder};
        let mut rng = Rng::seed(75);
        let wmat = init::uniform(&[4, 32], 0.05, 0.5, &mut rng);
        let col = init::uniform(&[32, 8], 0.05, 1.0, &mut rng);
        let l = lut(&ExactMul);
        let mut plain = ApproxExecutor::new(Arc::clone(&l), None);
        let mut exact_add =
            ApproxExecutor::new(Arc::clone(&l), None).with_adder(Arc::new(ExactAdder));
        let mut loa = ApproxExecutor::new(l, None).with_adder(Arc::new(LoaAdder::new(5)));
        let y0 = plain.forward(&wmat, &col, Mode::Eval).y;
        let y1 = exact_add.forward(&wmat, &col, Mode::Eval).y;
        let y2 = loa.forward(&wmat, &col, Mode::Eval).y;
        assert_eq!(y0, y1, "exact adder is a no-op");
        assert_ne!(y0, y2, "LOA accumulation must perturb the output");
    }

    #[test]
    fn health_telemetry_samples_eps_without_changing_outputs() {
        let mut rng = Rng::seed(76);
        let wmat = init::uniform(&[4, 16], -0.5, 0.5, &mut rng);
        let col = init::uniform(&[16, 8], -1.0, 1.0, &mut rng);
        let l = lut(&TruncatedMul::new(5));
        let model = PiecewiseLinearError::new(-0.05, 0.0, -10.0, 10.0);

        let mut plain = ApproxExecutor::new(Arc::clone(&l), Some(model));
        let y_plain = plain.forward(&wmat, &col, Mode::Train).y;

        axnn_obs::reset();
        let mut ex = ApproxExecutor::new(l, Some(model));
        ex.set_obs_label("conv");
        axnn_obs::set_health_enabled(true);
        let y = ex.forward(&wmat, &col, Mode::Train).y;
        axnn_obs::set_health_enabled(false);

        assert_eq!(
            y.as_slice(),
            y_plain.as_slice(),
            "telemetry must not change bits"
        );
        let p = axnn_obs::RunProfile::capture("t");
        let eps = p
            .hists
            .iter()
            .find(|h| h.name == "eps:conv")
            .expect("first call is always ε-sampled");
        assert_eq!(eps.count, (4 * 8) as u64, "one ε value per output");
        assert!(
            p.hists.iter().any(|h| h.name == "ge_res:conv"),
            "GE residuals recorded when a model is attached"
        );
        let lin = p
            .health
            .iter()
            .find(|r| r.name == "ge_lin:conv")
            .expect("K-mask coverage recorded");
        assert_eq!(lin.total, (4 * 8) as u64);
        assert!(p.health.iter().any(|r| r.name == "sat_x:conv"));
        axnn_obs::reset();
    }

    #[test]
    fn compiled_backend_matches_interpreter_bits() {
        use axnn_axmul::adder::LoaAdder;
        let mut rng = Rng::seed(77);
        let wmat = init::uniform(&[4, 16], -0.5, 0.5, &mut rng);
        let col = init::uniform(&[16, 8], -1.0, 1.0, &mut rng);
        let bias: Vec<f32> = (0..4).map(|i| 0.05 * i as f32 - 0.1).collect();
        let l = lut(&TruncatedMul::new(5));
        let sloped = PiecewiseLinearError::new(-0.05, 0.0, -10.0, 10.0);
        let variants: Vec<ApproxExecutor> = vec![
            ApproxExecutor::new(Arc::clone(&l), None),
            ApproxExecutor::new(Arc::clone(&l), Some(PiecewiseLinearError::constant(-0.3))),
            // GE only scales the backward, so a sloped model compiles too.
            ApproxExecutor::new(Arc::clone(&l), Some(sloped)),
            ApproxExecutor::new(Arc::clone(&l), None).with_adder(Arc::new(LoaAdder::new(5))),
        ];
        for mut ex in variants {
            let y = ex.forward(&wmat, &col, Mode::Eval).y;
            let mut backend = ex.compile_backend(&wmat).expect("every variant compiles");
            assert_eq!(backend.out_rows(), 4);
            assert_eq!(backend.kind(), ExecutorKind::Approximate);
            let mut out = vec![0.0f32; 4 * 8];
            backend.forward(&col, Some(&bias), gemm::Epilogue::Relu, &mut out);
            for r in 0..4 {
                for j in 0..8 {
                    let expect = (y.as_slice()[r * 8 + j] + bias[r]).max(0.0);
                    assert_eq!(
                        out[r * 8 + j].to_bits(),
                        expect.to_bits(),
                        "row {r} col {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn ste_operands_are_the_fake_quantized_inputs_in_train_only() {
        let mut rng = Rng::seed(81);
        let wmat = init::uniform(&[3, 10], -0.5, 0.5, &mut rng);
        let col = init::uniform(&[10, 7], -1.0, 1.0, &mut rng);
        let mut ex = ApproxExecutor::new(lut(&TruncatedMul::new(5)), None);
        let train = ex.forward(&wmat, &col, Mode::Train);
        // Uncalibrated: both quantizers are the dynamic abs-max ones.
        let wq = Quantizer::for_abs_max(wmat.abs_max(), QuantSpec::weights_4bit());
        let xq = Quantizer::for_abs_max(col.abs_max(), QuantSpec::activations_8bit());
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&train.wmat_eff), bits(&wq.fake_quant_tensor(&wmat)));
        assert_eq!(bits(&train.col_eff), bits(&xq.fake_quant_tensor(&col)));
        assert_eq!(train.col_eff.shape(), col.shape());
        for mode in [Mode::Eval, Mode::Calibrate] {
            let out = ex.forward(&wmat, &col, mode);
            assert!(
                out.wmat_eff.is_empty() && out.col_eff.is_empty(),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn grad_scale_is_train_only() {
        let mut rng = Rng::seed(78);
        let wmat = init::uniform(&[2, 4], -0.5, 0.5, &mut rng);
        let col = init::uniform(&[4, 3], -1.0, 1.0, &mut rng);
        let sloped = PiecewiseLinearError::new(-0.05, 0.0, -10.0, 10.0);
        let mut ge = ApproxExecutor::new(lut(&TruncatedMul::new(5)), Some(sloped));
        let train = ge.forward(&wmat, &col, Mode::Train);
        let eval = ge.forward(&wmat, &col, Mode::Eval);
        assert!(train.grad_scale.is_some());
        assert!(eval.grad_scale.is_none(), "eval needs no backward scale");
        assert_eq!(train.y, eval.y, "the scale never touches the forward");
    }
}
