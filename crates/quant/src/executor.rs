//! The quantized (8A4W) layer executor and network-wide quantization.

use crate::quantizer::{QuantSpec, Quantizer};
use axnn_nn::{ExecOutput, ExecutorKind, Layer, LayerExecutor, Mode, Sequential};
use axnn_tensor::{gemm, Tensor};
use std::collections::BTreeMap;

/// Accumulates activation statistics over calibration batches and selects
/// the activation step by MinPropQE (paper ref. \[1\]).
///
/// For every calibration batch, candidate power-of-two steps around the
/// batch abs-max are scored by the propagated error
/// `‖W·deq(q(X)) − W·X‖²`; the exponent with the lowest mean score wins.
#[derive(Debug, Clone, Default)]
pub struct ActRangeCalibrator {
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

/// The activation quantizer for one batch: `frozen` when calibration
/// produced one, else a dynamic abs-max quantizer of `col` (`None` for an
/// all-zero batch). The interpreter forwards and the compiled backends of
/// both quantizing executors resolve through this one chain.
pub fn batch_quantizer(
    frozen: Option<Quantizer>,
    col: &Tensor,
    spec: QuantSpec,
) -> Option<Quantizer> {
    frozen.or_else(|| {
        let abs_max = col.abs_max();
        (abs_max > 0.0).then(|| Quantizer::for_abs_max(abs_max, spec))
    })
}

/// The 8A4W fake-quantization executor.
///
/// Forward: weights are quantized layer-wise from their current abs-max
/// (they change every optimizer step); activations use a step frozen by
/// MinPropQE calibration (run the network in [`Mode::Calibrate`] first —
/// e.g. via `axnn_nn::train::calibrate`). The GEMM itself is computed on
/// the dequantized operands, which is bit-equivalent to integer GEMM scaled
/// by `s_x·s_w` for these ranges.
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
    /// Pre-formatted `sat_x:<layer>` health key; empty until the owning
    /// layer hands over its label (no telemetry without an attribution).
    sat_x_label: String,
    /// Pre-formatted `sat_w:<layer>` health key.
    sat_w_label: String,
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
            sat_x_label: String::new(),
            sat_w_label: String::new(),
        }
    }

    /// Enables per-output-channel weight scales (builder style).
    ///
    /// The paper quantizes layer-wise (one scale per tensor); per-channel
    /// scales are the standard finer-grained alternative, exposed here as
    /// an ablation. Activations always stay layer-wise.
    pub fn per_channel_weights(mut self, enable: bool) -> Self {
        self.per_channel = enable;
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

    /// Quantizer for the current weights (recomputed from their abs-max).
    pub fn weight_quantizer(&self, wmat: &Tensor) -> Option<Quantizer> {
        let abs_max = wmat.abs_max();
        (abs_max > 0.0).then(|| Quantizer::for_abs_max(abs_max, self.w_spec))
    }

    /// The frozen activation quantizer, freezing the calibrator's winner
    /// when none is set yet (`None` before any calibration data).
    fn frozen_x_quantizer(&self) -> Option<Quantizer> {
        self.x_quantizer
            .or_else(|| self.calibrator.freeze(self.x_spec))
    }

    /// The effective (fake-quantized) weights, plus the layer-wise weight
    /// quantizer when one applies (not for the per-channel ablation or
    /// all-zero weights).
    fn quantize_weights(&self, wmat: &Tensor) -> (Tensor, Option<Quantizer>) {
        if self.per_channel {
            return (self.fake_quant_per_channel(wmat), None);
        }
        let w_q = self.weight_quantizer(wmat);
        let w_eff = match &w_q {
            Some(q) => q.fake_quant_tensor(wmat),
            None => wmat.clone(),
        };
        (w_eff, w_q)
    }
}

impl LayerExecutor for QuantExecutor {
    fn forward(&mut self, wmat: &Tensor, col: &Tensor, mode: Mode) -> ExecOutput {
        if mode == Mode::Calibrate {
            self.calibrator.observe(wmat, col, self.x_spec);
            self.x_quantizer = None; // re-freeze after more data
        }
        let (w_eff, w_q) = self.quantize_weights(wmat);
        self.x_quantizer = self.frozen_x_quantizer();
        let x_q = batch_quantizer(self.x_quantizer, col, self.x_spec);
        let col_eff = match &x_q {
            Some(q) => q.fake_quant_tensor(col),
            None => col.clone(),
        };
        if axnn_obs::enabled() {
            let (oc, k) = (wmat.shape()[0], wmat.shape()[1]);
            let m = col.shape()[1];
            axnn_obs::count(axnn_obs::Counter::GemmMacs, (oc * k * m) as u64);
        }
        if axnn_obs::health_enabled() && !self.sat_x_label.is_empty() {
            // Clip rates of the quantizers actually used this call. The
            // per-channel ablation has one weight scale per row and no
            // single clip limit, so only the layer-wise path reports
            // `sat_w`; activations are always layer-wise.
            if let Some(q) = &x_q {
                axnn_obs::record_ratio(&self.sat_x_label, q.saturated(col), col.len() as u64);
            }
            if let Some(q) = &w_q {
                axnn_obs::record_ratio(&self.sat_w_label, q.saturated(wmat), wmat.len() as u64);
            }
        }
        ExecOutput {
            y: gemm::matmul(&w_eff, &col_eff),
            wmat_eff: w_eff,
            col_eff,
            grad_scale: None,
        }
    }

    fn kind(&self) -> ExecutorKind {
        ExecutorKind::Quantized
    }

    fn set_obs_label(&mut self, label: &str) {
        self.sat_x_label = format!("sat_x:{label}");
        self.sat_w_label = format!("sat_w:{label}");
    }

    fn compile_backend(&self, wmat: &Tensor) -> Option<Box<dyn axnn_nn::GemmBackend>> {
        // Weights are frozen at compile time, so their fake-quantization
        // is baked into the backend once. The activation quantizer is the
        // same frozen/dynamic chain the interpreter resolves per call:
        // freezing the calibrator here is deterministic, so a compiled
        // forward picks the identical step.
        Some(Box::new(QuantBackend {
            w_eff: self.quantize_weights(wmat).0,
            x_quantizer: self.frozen_x_quantizer(),
            x_spec: self.x_spec,
            col_scratch: None,
        }))
    }
}

/// Compiled-graph GEMM core for the quantized executor: pre-quantized
/// weights, fused bias+activation epilogue, and the same activation
/// quantization chain as [`QuantExecutor::forward`] (frozen step, else a
/// per-batch dynamic abs-max fallback). Bit-identical to the interpreter.
#[derive(Debug)]
struct QuantBackend {
    w_eff: Tensor,
    x_quantizer: Option<Quantizer>,
    x_spec: QuantSpec,
    /// Fake-quantized activation buffer, reused across same-shape calls so
    /// steady-state compiled forwards allocate nothing here.
    col_scratch: Option<Tensor>,
}

impl axnn_nn::GemmBackend for QuantBackend {
    fn kind(&self) -> ExecutorKind {
        ExecutorKind::Quantized
    }

    fn out_rows(&self) -> usize {
        self.w_eff.shape()[0]
    }

    fn forward(&mut self, col: &Tensor, bias: Option<&[f32]>, ep: gemm::Epilogue, out: &mut [f32]) {
        let col_eff: &Tensor = match &batch_quantizer(self.x_quantizer, col, self.x_spec) {
            Some(q) => {
                // The `fake_quant_tensor` kernel, into a reused buffer
                // instead of a fresh allocation per call.
                let mut scratch = match self.col_scratch.take() {
                    Some(t) if t.shape() == col.shape() => t,
                    _ => Tensor::zeros(col.shape()),
                };
                q.fake_quant_into(col.as_slice(), scratch.as_mut_slice());
                self.col_scratch.insert(scratch)
            }
            None => col,
        };
        if axnn_obs::enabled() {
            let (oc, k) = (self.w_eff.shape()[0], self.w_eff.shape()[1]);
            let m = col.shape()[1];
            axnn_obs::count(axnn_obs::Counter::GemmMacs, (oc * k * m) as u64);
        }
        gemm::matmul_bias_act_into(&self.w_eff, col_eff, bias, ep, out);
    }
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
        let wq = ex.weight_quantizer(&wmat).expect("nonzero weights");
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
    fn health_telemetry_records_saturation_without_changing_outputs() {
        let mut rng = Rng::seed(67);
        let wmat = init::uniform(&[4, 8], -0.5, 0.5, &mut rng);
        // Freeze the activation step on typical-range data; the uncalibrated
        // dynamic fallback rescales to each batch's abs-max and never clips.
        let calib = init::uniform(&[8, 16], -1.0, 1.0, &mut rng);
        let mut col = init::uniform(&[8, 16], -1.0, 1.0, &mut rng);
        col.as_mut_slice()[0] = 500.0; // clips under the frozen step

        let mut plain = QuantExecutor::new_8a4w();
        plain.forward(&wmat, &calib, Mode::Calibrate);
        let y_plain = plain.forward(&wmat, &col, Mode::Eval).y;

        let mut ex = QuantExecutor::new_8a4w();
        ex.forward(&wmat, &calib, Mode::Calibrate);
        ex.set_obs_label("fc(8->4)");
        axnn_obs::set_health_enabled(true);
        let y = ex.forward(&wmat, &col, Mode::Eval).y;
        axnn_obs::set_health_enabled(false);

        assert_eq!(
            y.as_slice(),
            y_plain.as_slice(),
            "telemetry must not change bits"
        );
        let ratios = axnn_obs::RunProfile::capture("t").health;
        let sat_x = ratios
            .iter()
            .find(|r| r.name == "sat_x:fc(8->4)")
            .expect("x saturation recorded");
        assert!(sat_x.hits >= 1, "the 500.0 outlier must clip");
        assert_eq!(sat_x.total % col.len() as u64, 0);
        assert!(ratios.iter().any(|r| r.name == "sat_w:fc(8->4)"));
        axnn_obs::reset();
    }

    #[test]
    fn compiled_backend_matches_interpreter_bits() {
        let mut rng = Rng::seed(68);
        let wmat = init::uniform(&[4, 8], -0.5, 0.5, &mut rng);
        let calib = init::uniform(&[8, 16], -1.0, 1.0, &mut rng);
        let col = init::uniform(&[8, 16], -1.0, 1.0, &mut rng);
        let bias: Vec<f32> = (0..4).map(|i| i as f32 * 0.1 - 0.2).collect();
        for per_channel in [false, true] {
            let mut ex = QuantExecutor::new_8a4w().per_channel_weights(per_channel);
            ex.forward(&wmat, &calib, Mode::Calibrate);
            let y = ex.forward(&wmat, &col, Mode::Eval).y;
            let mut backend = ex.compile_backend(&wmat).expect("quant always compiles");
            assert_eq!(backend.out_rows(), 4);
            assert_eq!(backend.kind(), ExecutorKind::Quantized);
            let mut out = vec![0.0f32; 4 * 16];
            backend.forward(&col, Some(&bias), gemm::Epilogue::Relu, &mut out);
            for r in 0..4 {
                for j in 0..16 {
                    let expect = (y.as_slice()[r * 16 + j] + bias[r]).max(0.0);
                    assert_eq!(
                        out[r * 16 + j].to_bits(),
                        expect.to_bits(),
                        "per_channel={per_channel} row {r} col {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_zero_inputs_pass_through() {
        let wmat = Tensor::zeros(&[2, 3]);
        let col = Tensor::zeros(&[3, 2]);
        let mut ex = QuantExecutor::new_8a4w();
        let out = ex.forward(&wmat, &col, Mode::Train);
        assert_eq!(out.y.sum(), 0.0);
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
