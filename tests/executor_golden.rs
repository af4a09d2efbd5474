//! Golden digests of every 8A4W executor variant.
//!
//! Each variant is driven through the same script: an uncalibrated Eval
//! forward (dynamic abs-max activation step), two MinPropQE calibration
//! batches, an Eval forward whose batch clips under the frozen step, a
//! Train forward, and the compiled backend with a bias + ReLU epilogue.
//! One FNV-1a digest per variant covers every output bit of that script
//! (the Eval `y`, the Train `y`/`wmat_eff`/`col_eff`/`grad_scale`, the
//! compiled output), the health records (saturation ratios, ε and GE
//! histograms) and the work counters. A refactor of the executors that
//! moves a single bit, a health record or a counter fails here.

use std::sync::Arc;

use approxnn::axmul::adder::LoaAdder;
use approxnn::axmul::{ExactMul, Multiplier, TruncatedMul};
use approxnn::nn::{LayerExecutor, Mode};
use approxnn::proxsim::{LutProduct, PiecewiseLinearError, SignedLut};
use approxnn::quant::{QuantExecutor, QuantSpec};
use approxnn::tensor::{gemm, init, Tensor};
use axnn_rng::Rng;

/// FNV-1a over little-endian bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Shape, then every value's bit pattern.
    fn tensor(&mut self, t: &Tensor) {
        self.u64(t.shape().len() as u64);
        for &d in t.shape() {
            self.u64(d as u64);
        }
        for v in t.as_slice() {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

fn lut(m: &dyn Multiplier) -> Arc<SignedLut> {
    Arc::new(SignedLut::build(m))
}

fn sloped() -> PiecewiseLinearError {
    PiecewiseLinearError::new(-0.05, 0.0, -10.0, 10.0)
}

/// The variants and their digests, recorded before the two 8A4W
/// executors were merged into one.
fn variants() -> Vec<(&'static str, Box<dyn LayerExecutor>, u64)> {
    let trunc5 = lut(&TruncatedMul::new(5));
    vec![
        (
            "8a4w",
            Box::new(QuantExecutor::new_8a4w()),
            0xe179_aeea_5268_01d0,
        ),
        (
            "8a4w_per_channel",
            Box::new(QuantExecutor::new_8a4w().per_channel_weights(true)),
            0xff6d_494b_8320_375c,
        ),
        (
            "8a2w",
            Box::new(QuantExecutor::new(
                QuantSpec::activations_8bit(),
                QuantSpec::symmetric(2),
            )),
            0x9d97_9110_55b7_f060,
        ),
        (
            "trunc5",
            Box::new(
                QuantExecutor::new_8a4w().with_product(LutProduct::new(Arc::clone(&trunc5), None)),
            ),
            0xac52_168b_0c0d_43bf,
        ),
        (
            "trunc5_ge",
            Box::new(
                QuantExecutor::new_8a4w()
                    .with_product(LutProduct::new(Arc::clone(&trunc5), Some(sloped()))),
            ),
            0xa850_da06_1bd1_439b,
        ),
        (
            "trunc5_loa7",
            Box::new(QuantExecutor::new_8a4w().with_product(
                LutProduct::new(trunc5, None).with_adder(Arc::new(LoaAdder::new(7))),
            )),
            0x5f47_de80_1251_52f7,
        ),
        (
            "exact_lut",
            Box::new(QuantExecutor::new_8a4w().with_product(LutProduct::new(lut(&ExactMul), None))),
            0xba82_ee3b_d152_3c1b,
        ),
    ]
}

/// Runs the script on `ex` and digests everything it produced. Profiling
/// and health telemetry are on throughout; the registries are reset first.
fn digest(ex: &mut dyn LayerExecutor) -> u64 {
    let mut rng = Rng::seed(23);
    // 6 output rows exercise the LUT kernel's 4-row block and its tail.
    let wmat = init::uniform(&[6, 20], -0.5, 0.5, &mut rng);
    let calib: Vec<Tensor> = (0..2)
        .map(|_| init::uniform(&[20, 9], -1.0, 1.0, &mut rng))
        .collect();
    let mut col = init::uniform(&[20, 9], -1.0, 1.0, &mut rng);
    col.as_mut_slice()[3] = 40.0; // clips under the frozen step
    let bias: Vec<f32> = (0..6).map(|i| 0.05 * i as f32 - 0.12).collect();

    axnn_obs::reset();
    axnn_obs::set_enabled(true);
    axnn_obs::set_health_enabled(true);
    ex.set_obs_label("fc");
    let mut h = Fnv::new();
    h.tensor(&ex.forward(&wmat, &calib[0], Mode::Eval).y);
    for c in &calib {
        ex.forward(&wmat, c, Mode::Calibrate);
    }
    h.tensor(&ex.forward(&wmat, &col, Mode::Eval).y);
    let train = ex.forward(&wmat, &col, Mode::Train);
    h.tensor(&train.y);
    h.tensor(&train.wmat_eff);
    h.tensor(&train.col_eff());
    match &train.grad_scale {
        Some(s) => h.tensor(s),
        None => h.u64(u64::MAX),
    }
    let mut backend = ex.compile_backend(&wmat).expect("every variant compiles");
    let mut out = vec![0.0f32; 6 * 9];
    backend.forward(&col, Some(&bias), gemm::Epilogue::Relu, &mut out);
    h.tensor(&Tensor::from_vec(out, &[6, 9]).expect("6 x 9 outputs"));
    axnn_obs::set_enabled(false);
    axnn_obs::set_health_enabled(false);

    let p = axnn_obs::RunProfile::capture("executor_golden");
    for c in [
        p.counters.gemm_macs,
        p.counters.approx_muls,
        p.counters.lut_bytes,
    ] {
        h.u64(c);
    }
    for r in &p.health {
        h.bytes(r.name.as_bytes());
        h.u64(r.hits);
        h.u64(r.total);
    }
    for r in &p.hists {
        h.bytes(r.name.as_bytes());
        for &c in &r.counts {
            h.u64(c);
        }
        for v in [r.lo, r.hi, r.mean, r.std, r.min, r.max] {
            h.f64(v);
        }
        h.u64(r.underflow);
        h.u64(r.overflow);
        h.u64(r.count);
    }
    axnn_obs::reset();
    h.0
}

/// One test for all variants: the telemetry registries are process-global.
#[test]
fn executor_variants_are_pinned() {
    let mut wrong = Vec::new();
    for (name, mut ex, want) in variants() {
        let got = digest(ex.as_mut());
        if got != want {
            wrong.push(format!("{name}: {got:#018x} (pinned {want:#018x})"));
        }
    }
    assert!(wrong.is_empty(), "digests moved:\n{}", wrong.join("\n"));
}
