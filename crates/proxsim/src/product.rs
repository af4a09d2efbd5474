//! The LUT-served approximate product of the 8A4W executor, and the
//! network-wide executor layouts that install it.

use crate::error_model::PiecewiseLinearError;
use crate::gemm::{approx_matmul_offsets, approx_matmul_with_adder_offsets};
use crate::signed_lut::SignedLut;
use axnn_axmul::adder::Adder;
use axnn_axmul::Multiplier;
use axnn_nn::{Layer, Sequential};
use axnn_quant::{ApproxProduct, QuantExecutor};
use axnn_tensor::Tensor;
use std::sync::Arc;

/// The approximate product of the ProxSim execution model: `y ≈ W_q · X_q`
/// with the products served from a [`SignedLut`] and accumulated exactly
/// (eq. 4) or through an approximate [`Adder`].
///
/// Install it with [`QuantExecutor::with_product`]. An attached error
/// model enables gradient estimation: the executor's [`Mode::Train`]
/// forward then scales the upstream gradient by `1 + f'(y)` evaluated on
/// the *accurate* quantized output (eq. 10/12). A constant model
/// degenerates to the plain STE. The forward output never depends on the
/// error model.
///
/// [`Mode::Train`]: axnn_nn::Mode::Train
#[derive(Debug)]
pub struct LutProduct {
    lut: Arc<SignedLut>,
    error_model: Option<PiecewiseLinearError>,
    adder: Option<Arc<dyn Adder>>,
}

impl LutProduct {
    /// The product over a prebuilt LUT; `error_model` enables gradient
    /// estimation, `None` keeps the plain STE backward.
    pub fn new(lut: Arc<SignedLut>, error_model: Option<PiecewiseLinearError>) -> Self {
        Self {
            lut,
            error_model,
            adder: None,
        }
    }

    /// Accumulates through a behavioural approximate adder instead of exact
    /// `+` (builder style) — the paper's outlook of stacking a second
    /// approximation technique.
    pub fn with_adder(mut self, adder: Arc<dyn Adder>) -> Self {
        self.adder = Some(adder);
        self
    }
}

impl ApproxProduct for LutProduct {
    fn matmul(
        &self,
        w_codes: &[i32],
        xi: &[u8],
        [oc, k, m]: [usize; 3],
        scale: f32,
        out: &mut [f32],
    ) {
        let lut = &self.lut;
        match &self.adder {
            Some(adder) => {
                approx_matmul_with_adder_offsets(w_codes, xi, oc, k, m, lut, &**adder, scale, out)
            }
            None => approx_matmul_offsets(w_codes, xi, oc, k, m, lut, scale, out),
        }
    }

    fn sloped(&self) -> bool {
        self.error_model.is_some_and(|m| !m.is_constant())
    }

    fn grad_scale(&self, y_codes: &Tensor) -> Tensor {
        self.error_model
            .expect("grad_scale needs an error model")
            .grad_scale(y_codes)
    }

    fn error_at(&self, y_code: f32) -> Option<(f32, f32)> {
        self.error_model
            .map(|m| (m.value(y_code), m.derivative(y_code)))
    }
}

/// One GEMM layer's executor in an [`approximate_network_assigned`] layout:
/// `Some((lut, error_model))` computes the layer with that LUT multiplier
/// (and gradient estimation when a model is given); `None` runs it
/// 8A4W-quantized with exact products.
pub type LayerAssignment = Option<(Arc<SignedLut>, Option<PiecewiseLinearError>)>;

/// Swaps an approximate 8A4W [`QuantExecutor`] into every conv/FC layer of
/// `net`, sharing one LUT for the given multiplier (uniform approximation,
/// as in the paper's experiments).
///
/// Run a [`Mode::Calibrate`](axnn_nn::Mode::Calibrate) pass afterwards to
/// freeze activation steps.
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
/// `Some` entry installs an 8A4W [`QuantExecutor`] with a [`LutProduct`]
/// over its LUT and error model, each `None` one with exact products.
///
/// This one layout covers uniform approximation (every entry `Some` with
/// one shared LUT, [`approximate_network`]), the *partial* approximation
/// the paper contrasts with it (§II: savings are bounded by the fraction
/// of approximated MACs, but so is the accuracy degradation) and the
/// per-layer heterogeneous assignments of `axnn-search`, whose callers
/// build one [`SignedLut`] per distinct multiplier and hand out `Arc`
/// clones per layer.
///
/// Run a [`Mode::Calibrate`](axnn_nn::Mode::Calibrate) pass afterwards to
/// freeze activation steps.
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
            Some((lut, error_model)) => core.set_executor(Box::new(
                QuantExecutor::new_8a4w()
                    .with_product(LutProduct::new(Arc::clone(lut), *error_model)),
            )),
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
    use axnn_axmul::adder::{ExactAdder, LoaAdder};
    use axnn_axmul::{EvoLikeMul, ExactMul, TruncatedMul};
    use axnn_nn::{ExecutorKind, LayerExecutor, Mode};
    use axnn_quant::{QuantSpec, Quantizer};
    use axnn_rng::Rng;
    use axnn_tensor::{gemm, init};

    fn lut(m: &dyn Multiplier) -> Arc<SignedLut> {
        Arc::new(SignedLut::build(m))
    }

    /// An 8A4W executor computing its products with `lut`.
    fn approx(lut: &Arc<SignedLut>, model: Option<PiecewiseLinearError>) -> QuantExecutor {
        QuantExecutor::new_8a4w().with_product(LutProduct::new(Arc::clone(lut), model))
    }

    fn sloped() -> PiecewiseLinearError {
        PiecewiseLinearError::new(-0.05, 0.0, -10.0, 10.0)
    }

    #[test]
    #[should_panic(expected = "at most 4-bit weights and 8-bit activations, not 5-bit and 8-bit")]
    fn with_product_rejects_weights_wider_than_4_bits() {
        let spec = QuantSpec::symmetric(5);
        QuantExecutor::new(QuantSpec::activations_8bit(), spec)
            .with_product(LutProduct::new(lut(&ExactMul), None));
    }

    #[test]
    #[should_panic(expected = "at most 4-bit weights and 8-bit activations, not 4-bit and 9-bit")]
    fn with_product_rejects_activations_wider_than_8_bits() {
        let spec = QuantSpec::symmetric(9);
        QuantExecutor::new(spec, QuantSpec::weights_4bit())
            .with_product(LutProduct::new(lut(&ExactMul), None));
    }

    /// Every executor variant, by name: both exact-product weight schemes
    /// and the LUT product without a model, with a constant and a sloped
    /// one, and through an approximate adder.
    fn variants() -> Vec<(&'static str, QuantExecutor)> {
        let l = lut(&TruncatedMul::new(5));
        vec![
            ("8a4w", QuantExecutor::new_8a4w()),
            (
                "8a4w_per_channel",
                QuantExecutor::new_8a4w().per_channel_weights(true),
            ),
            ("trunc5", approx(&l, None)),
            (
                "trunc5_constant",
                approx(&l, Some(PiecewiseLinearError::constant(-0.3))),
            ),
            // GE only scales the backward, so a sloped model compiles too.
            ("trunc5_ge", approx(&l, Some(sloped()))),
            (
                "trunc5_loa",
                QuantExecutor::new_8a4w().with_product(
                    LutProduct::new(Arc::clone(&l), None).with_adder(Arc::new(LoaAdder::new(5))),
                ),
            ),
        ]
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn exact_multiplier_reduces_to_quantized_executor() {
        let mut rng = Rng::seed(70);
        let wmat = init::uniform(&[4, 8], -0.5, 0.5, &mut rng);
        let col = init::uniform(&[8, 6], -1.0, 1.0, &mut rng);
        let mut approx = approx(&lut(&ExactMul), None);
        let mut quant = QuantExecutor::new_8a4w();
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
        let mut approx_ex = approx(&lut(&TruncatedMul::new(5)), None);
        let mut exact = approx(&lut(&ExactMul), None);
        let ya = approx_ex.forward(&wmat, &col, Mode::Eval);
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

        let mut no_model = approx(&l, None);
        assert!(no_model
            .forward(&wmat, &col, Mode::Train)
            .grad_scale
            .is_none());

        let constant = PiecewiseLinearError::constant(-0.3);
        let mut const_model = approx(&l, Some(constant));
        assert!(
            const_model
                .forward(&wmat, &col, Mode::Train)
                .grad_scale
                .is_none(),
            "constant model is STE; no scale materialised"
        );

        let mut ge = approx(&l, Some(sloped()));
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
    #[should_panic(expected = "layer-wise weight scales")]
    fn approximate_products_reject_per_channel_weights() {
        let _ = approx(&lut(&ExactMul), None).per_channel_weights(true);
    }

    #[test]
    fn approximate_adder_changes_outputs_and_exact_adder_does_not() {
        let mut rng = Rng::seed(75);
        let wmat = init::uniform(&[4, 32], 0.05, 0.5, &mut rng);
        let col = init::uniform(&[32, 8], 0.05, 1.0, &mut rng);
        let l = lut(&ExactMul);
        let with_adder = |adder: Arc<dyn Adder>| {
            QuantExecutor::new_8a4w()
                .with_product(LutProduct::new(Arc::clone(&l), None).with_adder(adder))
        };
        let mut plain = approx(&l, None);
        let mut exact_add = with_adder(Arc::new(ExactAdder));
        let mut loa = with_adder(Arc::new(LoaAdder::new(5)));
        let y0 = plain.forward(&wmat, &col, Mode::Eval).y;
        let y1 = exact_add.forward(&wmat, &col, Mode::Eval).y;
        let y2 = loa.forward(&wmat, &col, Mode::Eval).y;
        assert_eq!(y0, y1, "exact adder is a no-op");
        assert_ne!(y0, y2, "LOA accumulation must perturb the output");
    }

    /// Health telemetry records the clip rates of every variant, and the
    /// sampled ε / GE records of the approximate ones, without changing a
    /// bit of what the executor returns.
    #[test]
    fn health_telemetry_records_without_changing_outputs() {
        let mut rng = Rng::seed(76);
        let wmat = init::uniform(&[4, 16], -0.5, 0.5, &mut rng);
        // Freeze the activation step on typical-range data; the uncalibrated
        // dynamic fallback rescales to each batch's abs-max and never clips.
        let calib = init::uniform(&[16, 8], -1.0, 1.0, &mut rng);
        let mut col = init::uniform(&[16, 8], -1.0, 1.0, &mut rng);
        col.as_mut_slice()[0] = 500.0; // clips under the frozen step
        for ((name, mut plain), (_, mut ex)) in variants().into_iter().zip(variants()) {
            plain.forward(&wmat, &calib, Mode::Calibrate);
            let want = plain.forward(&wmat, &col, Mode::Train);

            axnn_obs::reset();
            ex.forward(&wmat, &calib, Mode::Calibrate);
            ex.set_obs_label("fc(16->4)");
            axnn_obs::set_health_enabled(true);
            let got = ex.forward(&wmat, &col, Mode::Train);
            axnn_obs::set_health_enabled(false);
            let p = axnn_obs::RunProfile::capture("t");
            axnn_obs::reset();

            assert_eq!(bits(&got.y), bits(&want.y), "{name}: telemetry changed y");
            assert_eq!(bits(&got.wmat_eff), bits(&want.wmat_eff), "{name}");
            assert_eq!(bits(&got.col_eff()), bits(&want.col_eff()), "{name}");
            assert_eq!(
                got.grad_scale.as_ref().map(bits),
                want.grad_scale.as_ref().map(bits),
                "{name}"
            );
            let sat_x = p
                .health
                .iter()
                .find(|r| r.name == "sat_x:fc(16->4)")
                .unwrap_or_else(|| panic!("{name}: x saturation recorded"));
            assert!(sat_x.hits >= 1, "{name}: the 500.0 outlier must clip");
            assert_eq!(sat_x.total % col.len() as u64, 0, "{name}");
            // The per-channel ablation has one weight scale per row and no
            // single clip limit.
            assert_eq!(
                p.health.iter().any(|r| r.name == "sat_w:fc(16->4)"),
                name != "8a4w_per_channel",
                "{name}: sat_w"
            );
            let approximate = ex.kind() == ExecutorKind::Approximate;
            let eps = p.hists.iter().find(|h| h.name == "eps:fc(16->4)");
            assert_eq!(eps.is_some(), approximate, "{name}: first call ε-sampled");
            if let Some(eps) = eps {
                assert_eq!(eps.count, (4 * 8) as u64, "{name}: one ε value per output");
            }
            let modelled = name == "trunc5_constant" || name == "trunc5_ge";
            assert_eq!(
                p.hists.iter().any(|h| h.name == "ge_res:fc(16->4)"),
                modelled,
                "{name}: GE residuals recorded when a model is attached"
            );
            let lin = p.health.iter().find(|r| r.name == "ge_lin:fc(16->4)");
            assert_eq!(lin.map(|r| r.total), modelled.then_some(4 * 8), "{name}");
        }
    }

    /// The compiled backend of every variant, calibrated or on the dynamic
    /// fallback, matches the interpreter's Eval forward plus the separate
    /// bias and ReLU passes bit for bit.
    #[test]
    fn compiled_backend_matches_interpreter_bits() {
        let mut rng = Rng::seed(77);
        let wmat = init::uniform(&[4, 16], -0.5, 0.5, &mut rng);
        let calib = init::uniform(&[16, 8], -1.0, 1.0, &mut rng);
        let col = init::uniform(&[16, 8], -1.0, 1.0, &mut rng);
        let bias: Vec<f32> = (0..4).map(|i| 0.05 * i as f32 - 0.1).collect();
        for calibrated in [false, true] {
            for (name, mut ex) in variants() {
                if calibrated {
                    ex.forward(&wmat, &calib, Mode::Calibrate);
                }
                let y = ex.forward(&wmat, &col, Mode::Eval).y;
                let mut backend = ex.compile_backend(&wmat).expect("every variant compiles");
                let mut out = vec![0.0f32; 4 * 8];
                backend.forward(&col, Some(&bias), gemm::Epilogue::Relu, &mut out);
                for r in 0..4 {
                    for j in 0..8 {
                        let expect = (y.as_slice()[r * 8 + j] + bias[r]).max(0.0);
                        assert_eq!(
                            out[r * 8 + j].to_bits(),
                            expect.to_bits(),
                            "{name} calibrated={calibrated} row {r} col {j}"
                        );
                    }
                }
            }
        }
    }

    /// Both engines quantize into one per-thread offsets buffer. The
    /// interpreter reads it only inside its forward, so a compiled forward
    /// of a larger layer between a Train forward and its backward leaves
    /// every gradient bit as it was.
    #[test]
    fn compiled_forward_between_train_forward_and_backward_keeps_gradients() {
        let l = lut(&TruncatedMul::new(5));
        let run = |interleave: bool| {
            let mut rng = Rng::seed(83);
            let mut layer = axnn_nn::Linear::new(16, 4, true, &mut rng);
            layer
                .core_mut()
                .set_executor(Box::new(approx(&l, Some(sloped()))));
            let x = init::uniform(&[8, 16], -1.0, 1.0, &mut rng);
            let y = layer.forward(&x, Mode::Train);
            if interleave {
                let wmat = init::uniform(&[6, 40], -0.5, 0.5, &mut rng);
                let col = init::uniform(&[40, 12], -1.0, 1.0, &mut rng);
                let mut backend = approx(&l, None).compile_backend(&wmat).expect("compiles");
                let mut out = vec![0.0f32; 6 * 12];
                backend.forward(&col, None, gemm::Epilogue::Identity, &mut out);
            }
            let dx = layer.backward(&y);
            let mut grads = vec![bits(&dx)];
            layer.visit_params(&mut |p| grads.push(bits(&p.grad)));
            grads
        };
        assert_eq!(run(true), run(false));
    }

    /// An all-zero operand quantizes with step 1 in both families: its
    /// codes are zero under any step, the outputs are zero, the Train
    /// operands are the fake-quantized (+0) zeros, and a labelled call
    /// records both clip rates with no hits.
    #[test]
    fn all_zero_operands_quantize_with_step_one() {
        let mut rng = Rng::seed(82);
        let zeros_w = Tensor::zeros(&[2, 3]);
        let zeros_x = Tensor::zeros(&[3, 2]);
        let w = init::uniform(&[2, 3], -0.5, 0.5, &mut rng);
        let x = init::uniform(&[3, 2], -1.0, 1.0, &mut rng);
        for (name, mut ex) in variants() {
            if name == "8a4w_per_channel" {
                continue; // zero rows pass through the per-row scales
            }
            for (wmat, col) in [(&zeros_w, &x), (&w, &zeros_x), (&zeros_w, &zeros_x)] {
                axnn_obs::reset();
                ex.set_obs_label("z");
                axnn_obs::set_health_enabled(true);
                let out = ex.forward(wmat, col, Mode::Train);
                axnn_obs::set_health_enabled(false);
                let p = axnn_obs::RunProfile::capture("t");
                axnn_obs::reset();
                assert!(out.y.as_slice().iter().all(|&v| v == 0.0), "{name}");
                let wq = Quantizer::with_step(1.0, QuantSpec::weights_4bit());
                let xq = Quantizer::with_step(1.0, QuantSpec::activations_8bit());
                if wmat.abs_max() == 0.0 {
                    assert_eq!(bits(&out.wmat_eff), bits(&wq.fake_quant_tensor(wmat)));
                }
                if col.abs_max() == 0.0 {
                    assert_eq!(bits(&out.col_eff()), bits(&xq.fake_quant_tensor(col)));
                }
                for key in ["sat_x:z", "sat_w:z"] {
                    let r = p.health.iter().find(|r| r.name == key);
                    assert_eq!(r.map(|r| r.hits), Some(0), "{name}: {key} recorded");
                }
            }
        }
    }

    #[test]
    fn ste_operands_are_the_fake_quantized_inputs_in_train_only() {
        let mut rng = Rng::seed(81);
        let wmat = init::uniform(&[3, 10], -0.5, 0.5, &mut rng);
        let col = init::uniform(&[10, 7], -1.0, 1.0, &mut rng);
        let mut ex = approx(&lut(&TruncatedMul::new(5)), None);
        let train = ex.forward(&wmat, &col, Mode::Train);
        // Uncalibrated: both quantizers are the dynamic abs-max ones.
        let wq = Quantizer::for_abs_max(wmat.abs_max(), QuantSpec::weights_4bit());
        let xq = Quantizer::for_abs_max(col.abs_max(), QuantSpec::activations_8bit());
        assert_eq!(bits(&train.wmat_eff), bits(&wq.fake_quant_tensor(&wmat)));
        assert_eq!(bits(&train.col_eff()), bits(&xq.fake_quant_tensor(&col)));
        assert_eq!(train.col_eff().shape(), col.shape());
        for mode in [Mode::Eval, Mode::Calibrate] {
            let out = ex.forward(&wmat, &col, mode);
            assert!(
                out.wmat_eff.is_empty() && out.col_eff().is_empty(),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn grad_scale_is_train_only() {
        let mut rng = Rng::seed(78);
        let wmat = init::uniform(&[2, 4], -0.5, 0.5, &mut rng);
        let col = init::uniform(&[4, 3], -1.0, 1.0, &mut rng);
        let mut ge = approx(&lut(&TruncatedMul::new(5)), Some(sloped()));
        let train = ge.forward(&wmat, &col, Mode::Train);
        let eval = ge.forward(&wmat, &col, Mode::Eval);
        assert!(train.grad_scale.is_some());
        assert!(eval.grad_scale.is_none(), "eval needs no backward scale");
        assert_eq!(train.y, eval.y, "the scale never touches the forward");
    }
}
