//! Property tests for the central guarantee of the `axnn-par` execution
//! layer: every parallelized kernel partitions work by *output* rows, so
//! its results are **bit-identical** for any worker count.
//!
//! Each property computes once with one thread and once with an arbitrary
//! thread count and compares raw bit patterns (`f32::to_bits`), not
//! approximate equality.
//!
//! It also covers the same guarantee one level up: the `axnn-obs` counters
//! are derived analytically from the workload, so [`RunProfile`] totals must
//! be identical for any worker count — and turning profiling on must not
//! change a single output bit. The numeric-health telemetry (ε histograms,
//! saturation ratios) holds the same pair of properties: records are
//! bit-identical for any worker count, and enabling them changes nothing
//! the executors compute.
//!
//! `set_threads` and the obs enable flag / counters are process-global, so
//! every property takes [`serial`] for its whole case body: the obs
//! properties would otherwise absorb counter increments from a concurrently
//! running conv case.
//!
//! [`RunProfile`]: approxnn::obs::RunProfile

use approxnn::approxkd::ge::{fit_error_model, McConfig};
use approxnn::approxkd::pipeline::ModelKind;
use approxnn::approxkd::resiliency::analyze_resiliency;
use approxnn::approxkd::{ExperimentEnv, StageConfig};
use approxnn::axmul::{catalog, TruncatedMul};
use approxnn::models::ModelConfig;
use approxnn::nn::StepDecay;
use approxnn::nn::{Conv2d, Layer, LayerExecutor, Mode};
use approxnn::obs;
use approxnn::par;
use approxnn::proxsim::{approx_matmul, LutProduct, PiecewiseLinearError, SignedLut};
use approxnn::quant::QuantExecutor;
use approxnn::tensor::{gemm, init, Tensor};
use axnn_rng::{cases, Rng};
use std::sync::{Arc, Mutex, MutexGuard};

/// Serializes all case bodies in this binary (see the module docs).
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Exact GEMM (all three transpose variants) is thread-count invariant.
#[test]
fn matmul_is_thread_invariant() {
    cases(256, |mut rng| {
        let m = rng.gen_range(1usize..14);
        let k = rng.gen_range(1usize..24);
        let n = rng.gen_range(1usize..30);
        let threads = rng.gen_range(2usize..9);
        let _g = serial();
        let a = init::uniform(&[m, k], -1.0, 1.0, &mut rng);
        let b = init::uniform(&[k, n], -1.0, 1.0, &mut rng);
        let at = init::uniform(&[k, m], -1.0, 1.0, &mut rng);
        let bt = init::uniform(&[n, k], -1.0, 1.0, &mut rng);

        par::set_threads(1);
        let nn1 = gemm::matmul(&a, &b);
        let tn1 = gemm::matmul_tn(&at, &b);
        let nt1 = gemm::matmul_nt(&a, &bt);
        par::set_threads(threads);
        assert_eq!(bits(&nn1), bits(&gemm::matmul(&a, &b)));
        assert_eq!(bits(&tn1), bits(&gemm::matmul_tn(&at, &b)));
        assert_eq!(bits(&nt1), bits(&gemm::matmul_nt(&a, &bt)));
        par::set_threads(0);
    });
}

/// LUT-served approximate GEMM is thread-count invariant.
#[test]
fn approx_matmul_is_thread_invariant() {
    cases(256, |mut rng| {
        let oc = rng.gen_range(1usize..14);
        let k = rng.gen_range(1usize..16);
        let m = rng.gen_range(1usize..700);
        let threads = rng.gen_range(2usize..9);
        let _g = serial();
        let w: Vec<i32> = (0..oc * k).map(|_| rng.gen_range(-7..=7)).collect();
        let x: Vec<i32> = (0..k * m).map(|_| rng.gen_range(-127..=127)).collect();
        let lut = SignedLut::build(&TruncatedMul::new(4));

        par::set_threads(1);
        let one = approx_matmul(&w, &x, oc, k, m, &lut, 0.017);
        par::set_threads(threads);
        let many = approx_matmul(&w, &x, oc, k, m, &lut, 0.017);
        par::set_threads(0);
        assert_eq!(bits(&one), bits(&many));
    });
}

/// Conv2d forward and backward (im2col + GEMM + col2im) are
/// thread-count invariant, including the propagated input gradient.
#[test]
fn conv_fwd_bwd_is_thread_invariant() {
    cases(256, |mut rng| {
        let seed = rng.gen_range(0u64..100);
        let n = rng.gen_range(1usize..4);
        let c = rng.gen_range(1usize..4);
        let hw = rng.gen_range(3usize..9);
        let threads = rng.gen_range(2usize..9);
        let _g = serial();
        let mut rng = Rng::seed(seed);
        let x = init::uniform(&[n, c, hw, hw], -1.0, 1.0, &mut rng);

        let run = |threads: usize, rng_seed: u64| {
            par::set_threads(threads);
            let mut rng = Rng::seed(rng_seed);
            let mut conv = Conv2d::new(c, 6, 3, 1, 1, 1, true, &mut rng);
            let y = conv.forward(&x, Mode::Train);
            let dy = init::uniform(y.shape(), -1.0, 1.0, &mut Rng::seed(rng_seed ^ 1));
            let dx = conv.backward(&dy);
            (y, dx)
        };
        let (y1, dx1) = run(1, seed ^ 0xC0);
        let (ym, dxm) = run(threads, seed ^ 0xC0);
        par::set_threads(0);
        assert_eq!(bits(&y1), bits(&ym));
        assert_eq!(bits(&dx1), bits(&dxm));
    });
}

/// The Monte-Carlo error-model fit draws per-simulation seeds up front,
/// so the fitted model is thread-count invariant.
#[test]
fn ge_fit_is_thread_invariant() {
    cases(256, |mut rng| {
        let seed = rng.gen_range(0u64..50);
        let threads = rng.gen_range(2usize..9);
        let _g = serial();
        par::set_threads(1);
        let one = fit_error_model(
            &TruncatedMul::new(5),
            McConfig::default(),
            &mut Rng::seed(seed),
        );
        par::set_threads(threads);
        let many = fit_error_model(
            &TruncatedMul::new(5),
            McConfig::default(),
            &mut Rng::seed(seed),
        );
        par::set_threads(0);
        assert_eq!(&one.model, &many.model);
        let sample_bits = |f: &approxnn::approxkd::ge::ErrorFit| -> Vec<(u32, u32)> {
            f.samples
                .iter()
                .map(|&(y, e)| (y.to_bits(), e.to_bits()))
                .collect()
        };
        assert_eq!(sample_bits(&one), sample_bits(&many));
    });
}

/// `RunProfile` counter totals from an instrumented conv forward +
/// backward are identical for one worker and for N: increments are
/// derived analytically from the workload, never from the partition.
#[test]
fn profile_counters_are_thread_invariant() {
    cases(256, |mut rng| {
        let seed = rng.gen_range(0u64..60);
        let n = rng.gen_range(1usize..4);
        let c = rng.gen_range(1usize..4);
        let hw = rng.gen_range(3usize..9);
        let threads = rng.gen_range(2usize..9);
        let _g = serial();
        let mut rng = Rng::seed(seed);
        let x = init::uniform(&[n, c, hw, hw], -1.0, 1.0, &mut rng);

        let run = |threads: usize| {
            par::set_threads(threads);
            obs::reset();
            obs::set_enabled(true);
            let mut rng = Rng::seed(seed ^ 0x0B5);
            let mut conv = Conv2d::new(c, 6, 3, 1, 1, 1, true, &mut rng);
            let y = conv.forward(&x, Mode::Train);
            let dy = init::uniform(y.shape(), -1.0, 1.0, &mut Rng::seed(seed ^ 1));
            let _dx = conv.backward(&dy);
            obs::set_enabled(false);
            obs::RunProfile::capture("prop").counters
        };
        let one = run(1);
        let many = run(threads);
        par::set_threads(0);
        obs::reset();
        assert!(one.gemm_macs > 0, "conv must count GEMM MACs");
        assert!(one.im2col_bytes > 0, "conv must count im2col traffic");
        assert_eq!(one, many);
    });
}

/// Profiling only observes: enabling it changes no output bit of the
/// approximate GEMM or the Monte-Carlo error-model fit.
#[test]
fn profiling_leaves_numerics_bit_identical() {
    cases(256, |mut rng| {
        let seed = rng.gen_range(0u64..60);
        let oc = rng.gen_range(1usize..8);
        let k = rng.gen_range(1usize..12);
        let m = rng.gen_range(1usize..16);
        let _g = serial();
        let mut rng = Rng::seed(seed);
        let w: Vec<i32> = (0..oc * k).map(|_| rng.gen_range(-7..=7)).collect();
        let x: Vec<i32> = (0..k * m).map(|_| rng.gen_range(-127..=127)).collect();
        let lut = SignedLut::build(&TruncatedMul::new(4));

        obs::set_enabled(false);
        let plain_gemm = approx_matmul(&w, &x, oc, k, m, &lut, 0.017);
        let plain_fit = fit_error_model(
            &TruncatedMul::new(5),
            McConfig::default(),
            &mut Rng::seed(seed),
        );

        obs::reset();
        obs::set_enabled(true);
        let profiled_gemm = approx_matmul(&w, &x, oc, k, m, &lut, 0.017);
        let profiled_fit = fit_error_model(
            &TruncatedMul::new(5),
            McConfig::default(),
            &mut Rng::seed(seed),
        );
        obs::set_enabled(false);
        let counted = obs::counter_totals();
        obs::reset();

        assert_eq!(bits(&plain_gemm), bits(&profiled_gemm));
        assert_eq!(&plain_fit.model, &profiled_fit.model);
        let nnz = w.iter().filter(|&&v| v != 0).count() as u64;
        assert_eq!(counted.approx_muls, nnz * m as u64);
    });
}

/// The numeric-health records of an approximate forward (ε histogram
/// moments, saturation ratios, K-mask coverage) are bit-identical for
/// one worker and for N: recording happens on the coordinating thread,
/// never inside a parallel region.
#[test]
fn health_telemetry_is_thread_invariant() {
    cases(256, |mut rng| {
        let oc = rng.gen_range(1usize..8);
        let k = rng.gen_range(1usize..12);
        let m = rng.gen_range(1usize..16);
        let threads = rng.gen_range(2usize..9);
        let _g = serial();
        let wmat = init::uniform(&[oc, k], -0.5, 0.5, &mut rng);
        let col = init::uniform(&[k, m], -1.0, 1.0, &mut rng);
        let model = PiecewiseLinearError::new(-0.05, 0.0, -10.0, 10.0);

        let run = |threads: usize| {
            par::set_threads(threads);
            obs::reset();
            obs::set_health_enabled(true);
            let lut = Arc::new(SignedLut::build(&TruncatedMul::new(4)));
            let mut ex = QuantExecutor::new_8a4w().with_product(LutProduct::new(lut, Some(model)));
            ex.set_obs_label("prop");
            let y = ex.forward(&wmat, &col, Mode::Train).y;
            obs::set_health_enabled(false);
            let p = obs::RunProfile::capture("prop");
            (y, p.hists, p.health)
        };
        let (y1, h1, r1) = run(1);
        let (ym, hm, rm) = run(threads);
        par::set_threads(0);
        obs::reset();
        assert_eq!(bits(&y1), bits(&ym));
        assert!(!h1.is_empty(), "first call must be ε-sampled");
        assert!(!r1.is_empty(), "saturation ratios recorded every call");
        assert_eq!(h1, hm);
        assert_eq!(r1, rm);
    });
}

/// Health telemetry only observes: with it enabled, the approximate
/// executor returns the same output, effective operands and GE gradient
/// scale, bit for bit.
#[test]
fn health_telemetry_leaves_numerics_bit_identical() {
    cases(256, |mut rng| {
        let oc = rng.gen_range(1usize..8);
        let k = rng.gen_range(1usize..12);
        let m = rng.gen_range(1usize..16);
        let _g = serial();
        let wmat = init::uniform(&[oc, k], -0.5, 0.5, &mut rng);
        let col = init::uniform(&[k, m], -1.0, 1.0, &mut rng);
        let model = PiecewiseLinearError::new(-0.05, 0.0, -10.0, 10.0);
        let lut = Arc::new(SignedLut::build(&TruncatedMul::new(4)));

        obs::set_health_enabled(false);
        let mut plain =
            QuantExecutor::new_8a4w().with_product(LutProduct::new(Arc::clone(&lut), Some(model)));
        let out_plain = plain.forward(&wmat, &col, Mode::Train);

        obs::reset();
        obs::set_health_enabled(true);
        let mut tele = QuantExecutor::new_8a4w().with_product(LutProduct::new(lut, Some(model)));
        tele.set_obs_label("prop");
        let out_tele = tele.forward(&wmat, &col, Mode::Train);
        obs::set_health_enabled(false);
        let p = obs::RunProfile::capture("prop");
        obs::reset();

        assert_eq!(bits(&out_plain.y), bits(&out_tele.y));
        assert_eq!(bits(&out_plain.wmat_eff), bits(&out_tele.wmat_eff));
        assert_eq!(bits(&out_plain.col_eff()), bits(&out_tele.col_eff()));
        match (&out_plain.grad_scale, &out_tele.grad_scale) {
            (Some(a), Some(b)) => assert_eq!(bits(a), bits(b)),
            (None, None) => {}
            _ => panic!("grad_scale presence must not depend on telemetry"),
        }
        assert!(p.hists.iter().any(|h| h.name == "eps:prop"));
    });
}

// A resiliency sweep trains a small model per case, so this property gets
// its own block with few cases — it is the heterogeneous search's seed
// data, and the search's determinism guarantee rests on it.
/// `approxkd::resiliency` sweeps are thread-count invariant: the
/// baseline and every per-layer solo accuracy / drop come out
/// bit-identical for one worker and for N, so the greedy search's
/// layer ordering never depends on the machine's core count.
#[test]
fn resiliency_sweep_is_thread_invariant() {
    cases(3, |mut rng| {
        let seed = rng.gen_range(0u64..30);
        let threads = rng.gen_range(2usize..9);
        let _g = serial();
        par::set_threads(0);
        let cfg = ModelConfig::mini().with_width(0.2).with_input_hw(8);
        let mut env = ExperimentEnv::new(ModelKind::LeNet, cfg, 48, 24, seed);
        env.train_fp(
            &StageConfig::quick()
                .with_epochs(2)
                .with_lr(StepDecay::new(0.05, 1, 0.5)),
        );
        env.quantization_stage(&StageConfig::quick().with_epochs(1), true);
        let spec = catalog::by_id("trunc5").expect("catalogued");

        par::set_threads(1);
        let one = analyze_resiliency(&mut env, spec, 8);
        par::set_threads(threads);
        let many = analyze_resiliency(&mut env, spec, 8);
        par::set_threads(0);

        assert_eq!(one.baseline.to_bits(), many.baseline.to_bits());
        assert_eq!(one.layers.len(), many.layers.len());
        for (a, b) in one.layers.iter().zip(&many.layers) {
            assert_eq!(a.index, b.index);
            assert_eq!(&a.label, &b.label);
            assert_eq!(a.solo_accuracy.to_bits(), b.solo_accuracy.to_bits());
            assert_eq!(a.drop.to_bits(), b.drop.to_bits());
        }
        assert_eq!(one.resilient_order(), many.resilient_order());
    });
}
