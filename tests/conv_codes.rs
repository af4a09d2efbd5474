//! The approximate conv's quantize-once lowering against the column path
//! it stands in for, bit for bit.
//!
//! With an approximate product and a calibrated activation step,
//! `QuantExecutor::forward_conv` quantizes the NCHW input once and lowers
//! its `u8` offsets. The default `LayerExecutor::forward_conv` lowers `f32`
//! columns and runs `forward` on them. [`Columns`] keeps that default, so
//! each check runs the same executor both ways and compares the output,
//! the STE operands, GE's gradient scale, the weight gradient and the
//! `sat_x`/ε health records. Geometries: 3×3 s1 p1, 3×3 s2 p1, 1×1 s2 p0,
//! 5×5 s1 p2 and 3×3 s1 p0, each dense, grouped and depthwise, and the
//! approximate `Linear`, a 1×1 s1 p0 conv over `[N, F, 1, 1]`.
//!
//! The obs registries are process-global, so every test takes [`serial`].

use std::sync::{Arc, Mutex, MutexGuard};

use approxnn::axmul::TruncatedMul;
use approxnn::nn::{Conv2d, ExecOutput, ExecutorKind, Layer, LayerExecutor, Linear, Mode};
use approxnn::obs;
use approxnn::proxsim::{LutProduct, PiecewiseLinearError, SignedLut};
use approxnn::quant::QuantExecutor;
use approxnn::tensor::im2col::ConvGeometry;
use approxnn::tensor::{init, Tensor};
use axnn_rng::Rng;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// `(kernel, stride, pad)` of every checked geometry.
const GEOMETRIES: [(usize, usize, usize); 5] =
    [(3, 1, 1), (3, 2, 1), (1, 2, 0), (5, 1, 2), (3, 1, 0)];

/// The trunc5 LUT product with a sloped GE model.
fn executor() -> QuantExecutor {
    let lut = Arc::new(SignedLut::build(&TruncatedMul::new(5)));
    let model = PiecewiseLinearError::new(-0.05, 0.0, -10.0, 10.0);
    QuantExecutor::new_8a4w().with_product(LutProduct::new(lut, Some(model)))
}

/// An executor that keeps the provided column-path `forward_conv`.
#[derive(Debug)]
struct Columns(QuantExecutor);

impl LayerExecutor for Columns {
    fn forward(&mut self, wmat: &Tensor, col: &Tensor, mode: Mode) -> ExecOutput {
        self.0.forward(wmat, col, mode)
    }

    fn kind(&self) -> ExecutorKind {
        self.0.kind()
    }

    fn set_obs_label(&mut self, label: &str) {
        self.0.set_obs_label(label);
    }
}

/// Inputs in ±1 with a few pixels far outside the calibrated range, so
/// `sat_x` has clipped pixels to count.
fn input(shape: &[usize], rng: &mut Rng) -> Tensor {
    let mut x = init::uniform(shape, -1.0, 1.0, rng);
    let len = x.len();
    for i in [0, len / 3, len / 2 + 1, len - 1] {
        x.as_mut_slice()[i] = if i % 2 == 0 { 40.0 } else { -40.0 };
    }
    x
}

/// The `(hits, total)` of every ratio and the counts of every histogram
/// whose name ends in `:label`, with the label cut off.
fn health(p: &obs::RunProfile, label: &str) -> Vec<(String, Vec<u64>)> {
    let suffix = format!(":{label}");
    let ratios = p.health.iter().filter_map(|r| {
        let name = r.name.strip_suffix(&suffix)?;
        Some((name.to_string(), vec![r.hits, r.total]))
    });
    let hists = p.hists.iter().filter_map(|h| {
        let name = h.name.strip_suffix(&suffix)?;
        Some((name.to_string(), h.counts.clone()))
    });
    ratios.chain(hists).collect()
}

fn assert_same(a: &ExecOutput, b: &ExecOutput, dy: &Tensor, what: &str) {
    assert_eq!(bits(&a.y), bits(&b.y), "y {what}");
    assert_eq!(bits(&a.wmat_eff), bits(&b.wmat_eff), "wmat_eff {what}");
    assert_eq!(bits(&a.col_eff()), bits(&b.col_eff()), "col_eff {what}");
    match (&a.grad_scale, &b.grad_scale) {
        (Some(x), Some(y)) => assert_eq!(bits(x), bits(y), "grad_scale {what}"),
        (None, None) => {}
        _ => panic!("grad_scale presence differs {what}"),
    }
    if !a.col_eff().is_empty() {
        assert_eq!(
            bits(&a.weight_grad(dy)),
            bits(&b.weight_grad(dy)),
            "weight_grad {what}"
        );
    }
}

/// One executor call per geometry and mode, both ways, on a conv group's
/// channels at offset `c0` (0, and 2 of a wider input, read in place).
#[test]
fn quantize_once_lowering_matches_the_column_path() {
    let _g = serial();
    for (i, &(k, s, p)) in GEOMETRIES.iter().enumerate() {
        for c0 in [0, 2] {
            let geom = ConvGeometry::new(k, s, p);
            let mut rng = Rng::seed(40 + i as u64);
            let (c, oc) = (3, 5);
            let shape = [2, c0 + c, 9, 7];
            let wmat = init::uniform(&[oc, c * k * k], -0.5, 0.5, &mut rng);
            let mut fast = executor();
            let mut slow = Columns(executor());
            for _ in 0..2 {
                let calib = init::uniform(&shape, -1.0, 1.0, &mut rng);
                fast.forward_conv(&wmat, &calib, c0, geom, Mode::Calibrate, &mut None);
                slow.forward_conv(&wmat, &calib, c0, geom, Mode::Calibrate, &mut None);
            }
            let x = input(&shape, &mut rng);
            let m = shape[0] * geom.out_dim(shape[2]) * geom.out_dim(shape[3]);
            let dy = init::uniform(&[oc, m], -1.0, 1.0, &mut rng);

            obs::reset();
            obs::set_health_enabled(true);
            fast.set_obs_label("fast");
            slow.set_obs_label("slow");
            for mode in [Mode::Train, Mode::Eval, Mode::Train] {
                let a = fast.forward_conv(&wmat, &x, c0, geom, mode, &mut None);
                let b = slow.forward_conv(&wmat, &x, c0, geom, mode, &mut None);
                assert_same(&a, &b, &dy, &format!("{geom:?} c0 {c0} {mode:?}"));
            }
            obs::set_health_enabled(false);
            let profile = obs::RunProfile::capture("conv_codes");
            obs::reset();
            let (a, b) = (health(&profile, "fast"), health(&profile, "slow"));
            assert!(
                a.iter().any(|(name, c)| name == "sat_x" && c[0] > 0),
                "no clipped entries counted {geom:?} c0 {c0}: {a:?}"
            );
            assert!(
                a.iter().any(|(name, _)| name == "eps"),
                "no ε sample {geom:?} c0 {c0}"
            );
            assert_eq!(a, b, "health records {geom:?} c0 {c0}");
        }
    }
}

/// Whole conv layers (dense, two groups, depthwise), forward and both
/// backward entry points, both ways.
#[test]
fn conv_layers_match_the_column_path_grouped_and_depthwise() {
    let _g = serial();
    for (i, &(k, s, p)) in GEOMETRIES.iter().enumerate() {
        for groups in [1, 2, 4] {
            let seed = 70 + 10 * i as u64 + groups as u64;
            let layer = |ex: Box<dyn LayerExecutor>| {
                let mut conv = Conv2d::new(4, 8, k, s, p, groups, true, &mut Rng::seed(seed));
                conv.core_mut().set_executor(ex);
                conv
            };
            let mut fast = layer(Box::new(executor()));
            let mut slow = layer(Box::new(Columns(executor())));
            let mut rng = Rng::seed(seed + 1);
            let shape = [3, 4, 8, 6];
            for _ in 0..2 {
                let calib = init::uniform(&shape, -1.0, 1.0, &mut rng);
                fast.forward(&calib, Mode::Calibrate);
                slow.forward(&calib, Mode::Calibrate);
            }
            let x = input(&shape, &mut rng);
            let what = format!("k{k} s{s} p{p} groups {groups}");
            let (ya, yb) = (fast.forward(&x, Mode::Eval), slow.forward(&x, Mode::Eval));
            assert_eq!(bits(&ya), bits(&yb), "eval {what}");

            let (ya, yb) = (fast.forward(&x, Mode::Train), slow.forward(&x, Mode::Train));
            assert_eq!(bits(&ya), bits(&yb), "train {what}");
            let dy = init::uniform(ya.shape(), -1.0, 1.0, &mut rng);
            let (dxa, dxb) = (fast.backward(&dy), slow.backward(&dy));
            assert_eq!(bits(&dxa), bits(&dxb), "dx {what}");
            let grads = |conv: &mut Conv2d| {
                let mut g = Vec::new();
                conv.visit_params(&mut |p| g.extend(bits(&p.grad)));
                g
            };
            assert_eq!(grads(&mut fast), grads(&mut slow), "dW {what}");

            // `backward_params` adds the same parameter gradients again.
            fast.forward(&x, Mode::Train);
            fast.backward_params(&dy);
            slow.forward(&x, Mode::Train);
            slow.backward(&dy);
            assert_eq!(grads(&mut fast), grads(&mut slow), "backward_params {what}");
        }
    }
}

/// The approximate `Linear`: its executor call on `[N, F, 1, 1]` under the
/// 1×1 s1 p0 geometry, both ways, then whole layers, forward and both
/// backward entry points.
#[test]
fn linear_matches_the_column_path() {
    let _g = serial();
    let (n, f, out) = (6, 12, 5);
    let geom = ConvGeometry::new(1, 1, 0);
    let mut rng = Rng::seed(90);
    let wmat = init::uniform(&[out, f], -0.5, 0.5, &mut rng);
    let mut fast = executor();
    let mut slow = Columns(executor());
    for _ in 0..2 {
        let calib = init::uniform(&[n, f, 1, 1], -1.0, 1.0, &mut rng);
        fast.forward_conv(&wmat, &calib, 0, geom, Mode::Calibrate, &mut None);
        slow.forward_conv(&wmat, &calib, 0, geom, Mode::Calibrate, &mut None);
    }
    let x = input(&[n, f, 1, 1], &mut rng);
    let dy = init::uniform(&[out, n], -1.0, 1.0, &mut rng);
    obs::reset();
    obs::set_health_enabled(true);
    fast.set_obs_label("fast");
    slow.set_obs_label("slow");
    for mode in [Mode::Train, Mode::Eval, Mode::Train] {
        let a = fast.forward_conv(&wmat, &x, 0, geom, mode, &mut None);
        let b = slow.forward_conv(&wmat, &x, 0, geom, mode, &mut None);
        assert_same(&a, &b, &dy, &format!("linear {mode:?}"));
    }
    obs::set_health_enabled(false);
    let profile = obs::RunProfile::capture("conv_codes");
    obs::reset();
    let (a, b) = (health(&profile, "fast"), health(&profile, "slow"));
    assert!(
        a.iter().any(|(name, c)| name == "sat_x" && c[0] > 0),
        "{a:?}"
    );
    assert!(a.iter().any(|(name, _)| name == "eps"), "no ε sample");
    assert_eq!(a, b, "health records");

    let layer = |ex: Box<dyn LayerExecutor>| {
        let mut fc = Linear::new(f, out, true, &mut Rng::seed(91));
        fc.core_mut().set_executor(ex);
        fc
    };
    let mut fast = layer(Box::new(executor()));
    let mut slow = layer(Box::new(Columns(executor())));
    for _ in 0..2 {
        let calib = init::uniform(&[n, f], -1.0, 1.0, &mut rng);
        fast.forward(&calib, Mode::Calibrate);
        slow.forward(&calib, Mode::Calibrate);
    }
    let x = input(&[n, f], &mut rng);
    let (ya, yb) = (fast.forward(&x, Mode::Eval), slow.forward(&x, Mode::Eval));
    assert_eq!(bits(&ya), bits(&yb), "linear eval");
    let (ya, yb) = (fast.forward(&x, Mode::Train), slow.forward(&x, Mode::Train));
    assert_eq!(bits(&ya), bits(&yb), "linear train");
    let dy = init::uniform(ya.shape(), -1.0, 1.0, &mut rng);
    let (dxa, dxb) = (fast.backward(&dy), slow.backward(&dy));
    assert_eq!(bits(&dxa), bits(&dxb), "linear dx");
    let grads = |fc: &mut Linear| {
        let mut g = Vec::new();
        fc.visit_params(&mut |p| g.extend(bits(&p.grad)));
        g
    };
    assert_eq!(grads(&mut fast), grads(&mut slow), "linear dW");
    fast.forward(&x, Mode::Train);
    fast.backward_params(&dy);
    slow.forward(&x, Mode::Train);
    slow.backward(&dy);
    assert_eq!(grads(&mut fast), grads(&mut slow), "linear backward_params");
}
