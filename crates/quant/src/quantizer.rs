//! The symmetric linear quantizer and power-of-two step rounding.

use axnn_tensor::Tensor;

/// Bit-width and step-size policy of one quantizer.
///
/// The paper's configuration is 8-bit activations / 4-bit weights
/// ("8A4W"), both symmetric with power-of-two steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuantSpec {
    /// Total bit width including sign (e.g. 8 or 4).
    pub bits: u32,
    /// Round the step to the next power of two (paper §III: quantize with a
    /// simple shift).
    pub pow2_step: bool,
}

impl QuantSpec {
    /// The paper's 8-bit activation quantizer.
    pub fn activations_8bit() -> Self {
        Self {
            bits: 8,
            pow2_step: true,
        }
    }

    /// The paper's 4-bit weight quantizer.
    pub fn weights_4bit() -> Self {
        Self::symmetric(4)
    }

    /// A symmetric power-of-two-step quantizer of arbitrary width — the
    /// paper's outlook ("will be further extended for lower bitwidth
    /// quantization") is explored through this constructor.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 2` (a symmetric quantizer needs sign + magnitude).
    pub fn symmetric(bits: u32) -> Self {
        assert!(bits >= 2, "symmetric quantization needs at least 2 bits");
        Self {
            bits,
            pow2_step: true,
        }
    }

    /// Largest positive code: `2^(bits−1) − 1` (symmetric, no zero point).
    pub fn qmax(self) -> i32 {
        (1 << (self.bits - 1)) - 1
    }
}

/// A symmetric linear quantizer with a fixed step size.
///
/// Codes are `clamp(round(x / step), −qmax, qmax)` with rounding half away
/// from zero (NaN maps to 0); dequantization is `code · step`. There is no
/// zero point (paper §III). Every quantize and fake-quant in the workspace
/// runs through one branch-free kernel, [`map_codes`](Self::map_codes); see
/// DESIGN.md §6 for why it equals the formula above bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    spec: QuantSpec,
    step: f32,
    /// `1 / step` when `step` is a normal power of two: the reciprocal is
    /// then an exact power of two too, so `x · recip` rounds to the same
    /// `f32` as `x / step`. `None` keeps the division (non-pow2 steps).
    recip: Option<f32>,
}

impl Quantizer {
    /// Creates a quantizer with an explicit step size.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not finite and positive, or if `spec.bits` is
    /// outside `2..=24` (wider codes are not exact `f32` integers).
    pub fn with_step(step: f32, spec: QuantSpec) -> Self {
        assert!(step.is_finite() && step > 0.0, "step must be positive");
        assert!(
            (2..=24).contains(&spec.bits),
            "quantizer width must be 2..=24 bits, got {}",
            spec.bits
        );
        let step = if spec.pow2_step {
            round_step_pow2(step)
        } else {
            step
        };
        let pow2 = step.is_normal() && step.to_bits() & 0x007f_ffff == 0;
        Self {
            spec,
            step,
            recip: pow2.then(|| 1.0 / step),
        }
    }

    /// Creates a quantizer whose range covers `[−abs_max, abs_max]`,
    /// applying the spec's power-of-two rounding.
    ///
    /// # Panics
    ///
    /// Panics if `abs_max` is not finite and positive, or as
    /// [`with_step`](Self::with_step) does.
    pub fn for_abs_max(abs_max: f32, spec: QuantSpec) -> Self {
        assert!(
            abs_max.is_finite() && abs_max > 0.0,
            "abs_max must be positive"
        );
        Self::with_step(abs_max / spec.qmax() as f32, spec)
    }

    /// The effective (possibly pow2-rounded) step size.
    pub fn step(&self) -> f32 {
        self.step
    }

    /// The quantizer's spec.
    pub fn spec(&self) -> QuantSpec {
        self.spec
    }

    /// Quantizes one value to its integer code.
    #[inline]
    pub fn quantize_code(&self, x: f32) -> i32 {
        let qmax = self.spec.qmax() as f32;
        match self.recip {
            Some(r) => round_clamp(x * r, qmax),
            None => round_clamp(x / self.step, qmax),
        }
    }

    /// The quantization kernel: `out[i] = emit(code(xs[i]))` for every
    /// element, with `code` exactly [`quantize_code`](Self::quantize_code).
    /// The step is resolved once outside the loop and the per-element body
    /// is branch-free, so the loop auto-vectorises for any inlined `emit`
    /// (an `i32` code, a dequantized `f32`, a `u8` LUT offset).
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `out` differ in length.
    #[inline]
    pub fn map_codes<T>(&self, xs: &[f32], out: &mut [T], emit: impl Fn(i32) -> T) {
        assert_eq!(xs.len(), out.len(), "quantize input/output length mismatch");
        let qmax = self.spec.qmax() as f32;
        match self.recip {
            Some(r) => {
                for (o, &x) in out.iter_mut().zip(xs) {
                    *o = emit(round_clamp(x * r, qmax));
                }
            }
            None => {
                let step = self.step;
                for (o, &x) in out.iter_mut().zip(xs) {
                    *o = emit(round_clamp(x / step, qmax));
                }
            }
        }
    }

    /// Dequantizes one code.
    pub fn dequantize(&self, code: i32) -> f32 {
        code as f32 * self.step
    }

    /// Quantize-dequantize one value ("fake quantization").
    pub fn fake_quant(&self, x: f32) -> f32 {
        self.dequantize(self.quantize_code(x))
    }

    /// The integer codes of a tensor, row-major.
    pub fn quantize_codes(&self, t: &Tensor) -> Vec<i32> {
        let mut codes = vec![0i32; t.len()];
        self.map_codes(t.as_slice(), &mut codes, |c| c);
        codes
    }

    /// Quantize-dequantizes `xs` into `out` (same length), one kernel pass.
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `out` differ in length.
    pub fn fake_quant_into(&self, xs: &[f32], out: &mut [f32]) {
        self.map_codes(xs, out, |c| self.dequantize(c));
    }

    /// Quantize-dequantizes a whole tensor.
    pub fn fake_quant_tensor(&self, t: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(t.shape());
        self.fake_quant_into(t.as_slice(), out.as_mut_slice());
        out
    }

    /// Counts the values of `t` that clip to the extreme codes `±qmax` —
    /// the saturation statistic behind the `sat_x:`/`sat_w:` health ratios.
    /// A value that *rounds* to `±qmax` without exceeding the range is not
    /// saturated.
    pub fn saturated(&self, t: &Tensor) -> u64 {
        let limit = self.clip_limit();
        t.as_slice().iter().filter(|x| x.abs() >= limit).count() as u64
    }

    /// The magnitude from which a value clips: `(qmax + ½) · step`.
    pub(crate) fn clip_limit(&self) -> f32 {
        (self.spec.qmax() as f32 + 0.5) * self.step
    }
}

/// `clamp(round(v), −qmax, qmax)` with rounding half away from zero, and
/// NaN mapped to 0, for integral `0 ≤ qmax < 2^24` — without libm `round`
/// or a branch.
///
/// `round` is monotone and fixes the integers `±qmax`, so clamping first
/// gives the same code as clamping the rounded value. Inside the clamp
/// `t = trunc(v)` fits an `i32` and `f = v − t` is exact, with the sign of
/// `v`; the half-away step is then `t + [f ≥ ½] − [f ≤ −½]`.
#[inline(always)]
fn round_clamp(v: f32, qmax: f32) -> i32 {
    let v = if v.is_nan() {
        0.0
    } else {
        v.clamp(-qmax, qmax)
    };
    // SAFETY: `v` is finite and `|v| ≤ qmax < 2^24`, so its truncation fits
    // an `i32`. The checked `as` cast would saturate and map NaN to 0 per
    // lane, which x86-64 cannot vectorise; the select above already did.
    let t: i32 = unsafe { v.to_int_unchecked() };
    let f = v - t as f32;
    t + i32::from(f >= 0.5) - i32::from(f <= -0.5)
}

/// Rounds a step size to the nearest power of two **at or above** it, so the
/// quantizer range still covers the calibrated `abs_max` (paper §III:
/// "rounded to the next power-of-two").
///
/// ```
/// assert_eq!(axnn_quant::round_step_pow2(0.3), 0.5);
/// assert_eq!(axnn_quant::round_step_pow2(0.5), 0.5);
/// assert_eq!(axnn_quant::round_step_pow2(0.6), 1.0);
/// ```
///
/// # Panics
///
/// Panics if `step` is not finite and positive.
pub fn round_step_pow2(step: f32) -> f32 {
    assert!(step.is_finite() && step > 0.0, "step must be positive");
    2f32.powi(step.log2().ceil() as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qmax_values() {
        assert_eq!(QuantSpec::activations_8bit().qmax(), 127);
        assert_eq!(QuantSpec::weights_4bit().qmax(), 7);
    }

    #[test]
    fn codes_clamp_to_symmetric_range() {
        let q = Quantizer::with_step(0.5, QuantSpec::weights_4bit());
        assert_eq!(q.quantize_code(100.0), 7);
        assert_eq!(q.quantize_code(-100.0), -7);
        assert_eq!(q.quantize_code(0.0), 0);
        assert_eq!(q.quantize_code(0.26), 1);
        assert_eq!(q.quantize_code(-0.26), -1);
    }

    #[test]
    fn fake_quant_is_idempotent() {
        let q = Quantizer::with_step(0.25, QuantSpec::activations_8bit());
        for &x in &[-3.7f32, -0.1, 0.0, 0.12, 5.9] {
            let once = q.fake_quant(x);
            assert_eq!(q.fake_quant(once), once);
        }
    }

    #[test]
    fn quantization_error_is_bounded_by_half_step() {
        let q = Quantizer::with_step(0.25, QuantSpec::activations_8bit());
        let limit = 127.0 * 0.25;
        for i in -100..=100 {
            let x = i as f32 * 0.031;
            if x.abs() <= limit {
                assert!((q.fake_quant(x) - x).abs() <= 0.125 + 1e-6);
            }
        }
    }

    #[test]
    fn pow2_rounding_covers_range() {
        let spec = QuantSpec::activations_8bit();
        let q = Quantizer::for_abs_max(3.0, spec);
        // step >= 3/127 and is a power of two
        assert!(q.step() >= 3.0 / 127.0);
        assert_eq!(q.step().log2().fract(), 0.0);
        // Largest representable magnitude covers abs_max.
        assert!(q.dequantize(spec.qmax()) >= 3.0);
    }

    #[test]
    fn non_pow2_spec_keeps_exact_step() {
        let spec = QuantSpec {
            bits: 8,
            pow2_step: false,
        };
        let q = Quantizer::with_step(0.3, spec);
        assert_eq!(q.step(), 0.3);
    }

    #[test]
    fn saturated_counts_only_out_of_range_values() {
        let q = Quantizer::with_step(0.5, QuantSpec::weights_4bit());
        // qmax = 7, step = 0.5 → clip limit 3.75.
        let t = Tensor::from_vec(vec![0.0, 3.4, 3.74, 3.75, -4.0, 100.0], &[6]).unwrap();
        assert_eq!(q.saturated(&t), 3);
        // A value that rounds to qmax from inside the range is not clipped.
        assert_eq!(q.quantize_code(3.6), 7);
        assert_eq!(q.saturated(&Tensor::from_vec(vec![3.6], &[1]).unwrap()), 0);
    }
}
