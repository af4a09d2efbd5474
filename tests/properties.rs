//! Cross-crate property-based tests on the reproduction's core invariants.

use approxnn::approxkd::soft_cross_entropy;
use approxnn::axmul::{Multiplier, TruncatedMul, MAX_W_CODE, MAX_X_CODE};
use approxnn::proxsim::{approx_matmul, PiecewiseLinearError, SignedLut};
use approxnn::quant::{QuantSpec, Quantizer};
use approxnn::tensor::{init, Tensor};
use axnn_rng::{cases, Rng};

/// Symmetric quantization: |x - deq(q(x))| <= step/2 inside the range,
/// and codes never exceed qmax.
#[test]
fn quantizer_error_bound() {
    cases(256, |mut rng| {
        let step_exp = rng.gen_range(-6i32..3);
        let x = rng.gen_range(-200.0f32..200.0);
        let step = 2f32.powi(step_exp);
        let spec = QuantSpec::activations_8bit();
        let q = Quantizer::with_step(step, spec);
        let code = q.quantize_code(x);
        assert!(code.abs() <= spec.qmax());
        let clip = spec.qmax() as f32 * step;
        if x.abs() <= clip {
            assert!((q.fake_quant(x) - x).abs() <= step / 2.0 + 1e-6);
        } else {
            assert_eq!(code.abs(), spec.qmax());
        }
    });
}

/// The rounding formula every quantize path used before the branch-free
/// kernel, `clamp(round(x / step), −qmax, qmax)` through libm `round` and
/// `i64`. It survives only here, as the oracle the kernel is held to.
fn oracle_code(x: f32, step: f32, qmax: i32) -> i32 {
    let q = (x / step).round() as i64;
    let m = i64::from(qmax);
    q.clamp(-m, m) as i32
}

/// Every width the property tests hold to the oracle: the symmetric
/// power-of-two specs of 2..=8 bits, plus the 8-bit spec that keeps its
/// step as given.
fn oracle_specs() -> Vec<QuantSpec> {
    let mut specs: Vec<QuantSpec> = (2..=8).map(QuantSpec::symmetric).collect();
    specs.push(QuantSpec {
        bits: 8,
        pow2_step: false,
    });
    specs
}

/// Asserts that every entry point of the quantization kernel gives the
/// oracle's code for every value of `xs`, bit for bit: the scalar
/// `quantize_code` and `fake_quant`, and the slice kernel into `i32`
/// codes and into fake-quantized `f32`s.
fn assert_kernel_matches_oracle(q: &Quantizer, xs: &[f32]) {
    let (step, qmax) = (q.step(), q.spec().qmax());
    let mut codes = vec![0i32; xs.len()];
    q.map_codes(xs, &mut codes, |c| c);
    let mut deq = vec![0f32; xs.len()];
    q.fake_quant_into(xs, &mut deq);
    for ((&x, &code), &d) in xs.iter().zip(&codes).zip(&deq) {
        let want = oracle_code(x, step, qmax);
        let ctx = || {
            format!(
                "x = {x:e} ({:#010x}), step {step:e}, qmax {qmax}",
                x.to_bits()
            )
        };
        assert_eq!(q.quantize_code(x), want, "scalar code, {}", ctx());
        assert_eq!(code, want, "slice code, {}", ctx());
        let want_deq = (want as f32 * step).to_bits();
        assert_eq!(
            q.fake_quant(x).to_bits(),
            want_deq,
            "scalar fake-quant, {}",
            ctx()
        );
        assert_eq!(d.to_bits(), want_deq, "slice fake-quant, {}", ctx());
    }
}

/// The values where a rounding shortcut goes wrong, for one quantizer:
/// ties `(n ± ½)·step` and their float neighbours across the whole code
/// range and past it, the clip boundaries `±(qmax ± ½)·step`, the largest
/// float below ½ (`0.49999997`), signed zeros, subnormals, the extremes,
/// infinities and NaNs.
fn edge_values(step: f32, qmax: i32) -> Vec<f32> {
    let mut xs = Vec::new();
    for n in -(qmax + 2)..=(qmax + 2) {
        for v in [n as f32 - 0.5, n as f32, n as f32 + 0.5] {
            let x = v * step;
            xs.extend([x, f32::from_bits(x.to_bits() + 1)]);
            if x != 0.0 {
                xs.push(f32::from_bits(x.to_bits() - 1));
            }
        }
    }
    let q = qmax as f32;
    for v in [q - 0.5, q + 0.5, 0.499_999_97, 0.5, 1.499_999_9, 2.5] {
        xs.extend([v * step, -v * step]);
    }
    let special = [
        0.0,
        -0.0,
        f32::from_bits(1),
        f32::from_bits(0x007f_ffff),
        f32::MIN_POSITIVE,
        f32::MAX,
        f32::INFINITY,
        f32::NAN,
        f32::from_bits(0x7f80_0001),
        f32::from_bits(0x7fff_ffff),
    ];
    for x in special {
        xs.extend([x, -x]);
    }
    xs
}

/// The branch-free kernel equals the `round()` oracle bit for bit at every
/// edge value, for every width, at every power-of-two step from 2⁻²⁰ to
/// 2¹⁰ (and at non-pow2 steps for the spec that keeps them).
#[test]
fn quantize_kernel_matches_round_oracle_on_edge_values() {
    for spec in oracle_specs() {
        let steps: Vec<f32> = if spec.pow2_step {
            (-20..=10).map(|e| 2f32.powi(e)).collect()
        } else {
            vec![0.3, 0.1, 1.7, 3e-5, 0.25, 1000.0 / 3.0]
        };
        for step in steps {
            let q = Quantizer::with_step(step, spec);
            assert_eq!(q.step(), step, "{spec:?} kept the step");
            assert_kernel_matches_oracle(&q, &edge_values(step, spec.qmax()));
        }
    }
}

/// The same equality on random inputs: uniform bit patterns (every
/// exponent, NaNs included) and values spread over a few clip ranges.
#[test]
fn quantize_kernel_matches_round_oracle_on_random_values() {
    let specs = oracle_specs();
    cases(256, |mut rng| {
        let spec = specs[rng.gen_range(0..specs.len())];
        let step = if spec.pow2_step {
            2f32.powi(rng.gen_range(-20i32..=10))
        } else {
            rng.gen_range(1e-4f32..10.0)
        };
        let q = Quantizer::with_step(step, spec);
        let reach = step * spec.qmax() as f32 * 3.0;
        let xs: Vec<f32> = (0..512)
            .map(|i| {
                if i % 2 == 0 {
                    f32::from_bits(rng.next_u64() as u32)
                } else {
                    rng.gen_range(-reach..reach)
                }
            })
            .collect();
        assert_kernel_matches_oracle(&q, &xs);
    });
}

/// A strided sweep over all 2³² `f32` bit patterns — about a million
/// values covering every exponent, both signs, NaNs and infinities —
/// through the 8-bit activation and 4-bit weight quantizers at steps from
/// 2⁻²⁰ to 2¹⁰, and the non-pow2 spec.
#[test]
fn quantize_kernel_matches_round_oracle_on_a_sweep_of_all_f32s() {
    // An odd stride visits every residue of the low mantissa bits.
    let xs: Vec<f32> = (0..=u32::MAX).step_by(4099).map(f32::from_bits).collect();
    assert!(xs.len() > 1_000_000);
    let non_pow2 = QuantSpec {
        bits: 8,
        pow2_step: false,
    };
    for (spec, step) in [
        (QuantSpec::activations_8bit(), 2f32.powi(-7)),
        (QuantSpec::activations_8bit(), 2f32.powi(-20)),
        (QuantSpec::weights_4bit(), 2f32.powi(-2)),
        (QuantSpec::weights_4bit(), 2f32.powi(10)),
        (non_pow2, 0.3),
    ] {
        assert_kernel_matches_oracle(&Quantizer::with_step(step, spec), &xs);
    }
}

/// The approximate GEMM with the exact multiplier equals the integer
/// reference product for arbitrary code matrices.
#[test]
fn approx_gemm_exact_reference() {
    cases(256, |mut rng| {
        let oc = rng.gen_range(1usize..4);
        let k = rng.gen_range(1usize..6);
        let m = rng.gen_range(1usize..4);
        let w: Vec<i32> = (0..oc * k).map(|_| rng.gen_range(-7..=7)).collect();
        let x: Vec<i32> = (0..k * m).map(|_| rng.gen_range(-127..=127)).collect();
        let lut = SignedLut::build(&approxnn::axmul::ExactMul);
        let y = approx_matmul(&w, &x, oc, k, m, &lut, 1.0);
        for i in 0..oc {
            for j in 0..m {
                let want: i64 = (0..k)
                    .map(|kk| (w[i * k + kk] * x[kk * m + j]) as i64)
                    .sum();
                assert_eq!(y.at(&[i, j]) as i64, want);
            }
        }
    });
}

/// Truncated-multiplier GEMM never exceeds the exact GEMM in magnitude
/// elementwise... in the all-positive-operand regime where errors
/// cannot cancel.
#[test]
fn truncated_gemm_one_sided_on_positive_codes() {
    cases(256, |mut rng| {
        let t = rng.gen_range(1u32..6);
        let (oc, k, m) = (2usize, 5usize, 3usize);
        let w: Vec<i32> = (0..oc * k).map(|_| rng.gen_range(0..=7)).collect();
        let x: Vec<i32> = (0..k * m).map(|_| rng.gen_range(0..=127)).collect();
        let approx = SignedLut::build(&TruncatedMul::new(t));
        let exact = SignedLut::build(&approxnn::axmul::ExactMul);
        let ya = approx_matmul(&w, &x, oc, k, m, &approx, 1.0);
        let ye = approx_matmul(&w, &x, oc, k, m, &exact, 1.0);
        for (a, e) in ya.as_slice().iter().zip(ye.as_slice()) {
            assert!(a <= e, "{} > {}", a, e);
        }
    });
}

/// The piecewise-linear error model's value always lies inside its
/// plateaus, and the derivative is zero exactly on them.
#[test]
fn error_model_clamps() {
    cases(256, |mut rng| {
        let slope = rng.gen_range(-0.5f32..0.5);
        let intercept = rng.gen_range(-10.0f32..10.0);
        let span = rng.gen_range(0.1f32..50.0);
        let y = rng.gen_range(-1e4f32..1e4);
        let lo = intercept - span;
        let hi = intercept + span;
        let f = PiecewiseLinearError::new(slope, intercept, lo, hi);
        let v = f.value(y);
        assert!(v >= lo - 1e-5 && v <= hi + 1e-5);
        let d = f.derivative(y);
        assert!(d == 0.0 || d == slope);
        let lin = slope * y + intercept;
        if lin <= lo || lin >= hi {
            assert_eq!(d, 0.0);
        }
    });
}

/// KD soft loss is minimized (zero gradient) when student == teacher,
/// for any temperature.
#[test]
fn kd_loss_zero_grad_at_match() {
    cases(256, |mut rng| {
        let t = rng.gen_range(1u32..12);
        let logits = init::uniform(&[3, 5], -3.0, 3.0, &mut rng);
        let (_, d) = soft_cross_entropy(&logits, &logits, t as f32);
        assert!(d.abs_max() < 1e-5);
    });
}

/// Signed sign-magnitude products: g̃(-x, w) == -g̃(x, w) for every
/// multiplier (the sign is handled outside the magnitude model).
#[test]
fn multiplier_sign_antisymmetry() {
    cases(256, |mut rng| {
        let x = rng.gen_range(0i32..=127);
        let w = rng.gen_range(0i32..=7);
        let t = rng.gen_range(0u32..6);
        let m = TruncatedMul::new(t);
        assert_eq!(m.mul_signed(-x, w), -m.mul_signed(x, w));
        assert_eq!(m.mul_signed(x, -w), -m.mul_signed(x, w));
        assert_eq!(m.mul_signed(-x, -w), m.mul_signed(x, w));
    });
}

#[test]
fn code_domain_constants_match_quant_specs() {
    assert_eq!(MAX_X_CODE as i32, QuantSpec::activations_8bit().qmax());
    assert_eq!(MAX_W_CODE as i32, QuantSpec::weights_4bit().qmax());
}

#[test]
fn kd_gradient_matches_finite_difference_integration() {
    // A cross-crate version of the unit check: logits from an actual
    // network, not synthetic tensors.
    use approxnn::nn::{Layer, Linear, Mode};
    let mut rng = Rng::seed(77);
    let mut fc = Linear::new(4, 3, true, &mut rng);
    let x = init::uniform(&[2, 4], -1.0, 1.0, &mut rng);
    let teacher = init::uniform(&[2, 3], -1.0, 1.0, &mut rng);
    let mut logits = fc.forward(&x, Mode::Eval);
    let (_, d) = soft_cross_entropy(&logits, &teacher, 5.0);
    let eps = 1e-2;
    for idx in 0..logits.len() {
        let orig = logits.as_slice()[idx];
        logits.as_mut_slice()[idx] = orig + eps;
        let (lp, _) = soft_cross_entropy(&logits, &teacher, 5.0);
        logits.as_mut_slice()[idx] = orig - eps;
        let (lm, _) = soft_cross_entropy(&logits, &teacher, 5.0);
        logits.as_mut_slice()[idx] = orig;
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (numeric - d.as_slice()[idx]).abs() < 1e-2,
            "idx {idx}: {numeric} vs {}",
            d.as_slice()[idx]
        );
    }
    let _ = Tensor::zeros(&[1]);
}
