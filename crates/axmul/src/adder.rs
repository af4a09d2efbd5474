//! Behavioural approximate adders — the second half of the EvoApprox
//! library \[20\] ("approximate adders and multipliers") and the paper's
//! outlook item of combining "more than one approximation technique".
//!
//! Adders operate on two's-complement accumulator words, so they slot
//! directly into the GEMM accumulation loop (see
//! `axnn_proxsim::approx_matmul_with_adder`). All models are exact on the
//! high bits and approximate only the `k` low bits, the standard
//! energy-quality knob for accumulator datapaths.

use std::fmt;

/// A behavioural approximate adder over two's-complement words.
///
/// Implementations must be deterministic and must reduce to exact addition
/// when their approximation width is zero.
pub trait Adder: fmt::Debug + Send + Sync {
    /// Approximate sum of two accumulator words.
    fn add(&self, a: i64, b: i64) -> i64;

    /// Short identifier, e.g. `loa4`.
    fn name(&self) -> &str;
}

/// The exact adder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactAdder;

impl Adder for ExactAdder {
    fn add(&self, a: i64, b: i64) -> i64 {
        a + b
    }

    fn name(&self) -> &str {
        "exact"
    }
}

/// Lower-part OR adder (LOA): the `k` low bits are OR-ed instead of added,
/// with a single carry generated from the top pair of low bits.
///
/// ```
/// use axnn_axmul::adder::{Adder, LoaAdder};
///
/// let loa = LoaAdder::new(4);
/// // Low nibbles 0b0001 | 0b0010 = 0b0011 — no carries needed, exact here.
/// assert_eq!(loa.add(0x11, 0x22), 0x33);
/// // 0b1111 | 0b0001 = 0b1111: the low-part carry chain is skipped, so the
/// // exact sum 0x10 is missed entirely.
/// assert_eq!(loa.add(0x0F, 0x01), 0x0F);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoaAdder {
    k: u32,
    name: String,
}

impl LoaAdder {
    /// Creates a LOA approximating the `k` low bits.
    ///
    /// # Panics
    ///
    /// Panics if `k >= 32` (the accumulator's useful width).
    pub fn new(k: u32) -> Self {
        assert!(k < 32, "cannot approximate the whole accumulator");
        Self {
            k,
            name: format!("loa{k}"),
        }
    }
}

impl Adder for LoaAdder {
    fn add(&self, a: i64, b: i64) -> i64 {
        if self.k == 0 {
            return a + b;
        }
        let mask = (1i64 << self.k) - 1;
        let low = (a | b) & mask;
        // Carry into the upper part from the most significant low-bit pair.
        let carry = ((a >> (self.k - 1)) & (b >> (self.k - 1)) & 1) << self.k;
        let high = (a & !mask) + (b & !mask) + carry;
        high | low
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Truncation adder: the `k` low bits of both operands are zeroed before an
/// exact addition — the accumulator analogue of the truncated multiplier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TruncAdder {
    k: u32,
    name: String,
}

impl TruncAdder {
    /// Creates a truncation adder zeroing `k` low bits.
    ///
    /// # Panics
    ///
    /// Panics if `k >= 32`.
    pub fn new(k: u32) -> Self {
        assert!(k < 32, "cannot truncate the whole accumulator");
        Self {
            k,
            name: format!("tadd{k}"),
        }
    }
}

impl Adder for TruncAdder {
    fn add(&self, a: i64, b: i64) -> i64 {
        let mask = !((1i64 << self.k) - 1);
        (a & mask) + (b & mask)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Exhaustive-ish error statistics of an adder over a sampled operand grid
/// (adders have a 2⁶⁴ domain, so a deterministic stride sweep over
/// `[-limit, limit]` stands in for eq. 14's exhaustive enumeration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdderStats {
    /// Mean relative error against `max(|a + b|, 1)`.
    pub mre: f32,
    /// Mean signed error.
    pub mean_error: f32,
    /// Worst absolute error seen.
    pub max_abs_error: u64,
}

impl AdderStats {
    /// Sweeps `adder` over a `limit`-bounded operand grid with `step`.
    ///
    /// # Panics
    ///
    /// Panics if `limit` or `step` is not positive.
    pub fn measure(adder: &dyn Adder, limit: i64, step: i64) -> Self {
        assert!(limit > 0 && step > 0, "limit and step must be positive");
        let mut sum_rel = 0.0f64;
        let mut sum_err = 0.0f64;
        let mut max_abs = 0u64;
        let mut count = 0u64;
        let mut a = -limit;
        while a <= limit {
            let mut b = -limit;
            while b <= limit {
                let exact = a + b;
                let err = adder.add(a, b) - exact;
                sum_rel += err.unsigned_abs() as f64 / (exact.unsigned_abs().max(1)) as f64;
                sum_err += err as f64;
                max_abs = max_abs.max(err.unsigned_abs());
                count += 1;
                b += step;
            }
            a += step;
        }
        Self {
            mre: (sum_rel / count as f64) as f32,
            mean_error: (sum_err / count as f64) as f32,
            max_abs_error: max_abs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_adder_is_exact() {
        let s = AdderStats::measure(&ExactAdder, 1000, 7);
        assert_eq!(s.mre, 0.0);
        assert_eq!(s.max_abs_error, 0);
    }

    #[test]
    fn loa_zero_bits_is_exact() {
        let loa = LoaAdder::new(0);
        for &(a, b) in &[(0i64, 0i64), (5, 9), (-100, 37), (1 << 20, -(1 << 19))] {
            assert_eq!(loa.add(a, b), a + b);
        }
    }

    #[test]
    fn loa_error_is_bounded_by_low_part() {
        let loa = LoaAdder::new(4);
        for a in -200i64..200 {
            for b in -200i64..200 {
                let err = (loa.add(a, b) - (a + b)).unsigned_abs();
                assert!(err < 32, "{a}+{b}: err {err} exceeds 2^(k+1)");
            }
        }
    }

    #[test]
    fn loa_or_matches_known_pattern() {
        let loa = LoaAdder::new(4);
        // Disjoint low bits: OR == ADD, exact.
        assert_eq!(loa.add(0x11, 0x22), 0x33);
        // Overlapping low bits lose the internal carries.
        let got = loa.add(0x0F, 0x0F);
        assert_eq!(got, 0x0F | (1 << 4), "OR keeps 0x0F, top-pair carry fires");
    }

    #[test]
    fn trunc_adder_floors_both_operands() {
        let t = TruncAdder::new(3);
        assert_eq!(t.add(15, 9), 8 + 8);
        assert_eq!(t.add(16, 8), 24);
        let s = AdderStats::measure(&t, 1000, 7);
        assert!(s.mre > 0.0);
    }

    #[test]
    fn more_low_bits_mean_more_error() {
        let s2 = AdderStats::measure(&LoaAdder::new(2), 2000, 11);
        let s6 = AdderStats::measure(&LoaAdder::new(6), 2000, 11);
        assert!(s6.mre > s2.mre);
        assert!(s6.max_abs_error > s2.max_abs_error);
    }

    #[test]
    fn adders_are_object_safe() {
        let adders: Vec<Box<dyn Adder>> = vec![
            Box::new(ExactAdder),
            Box::new(LoaAdder::new(3)),
            Box::new(TruncAdder::new(3)),
        ];
        for a in &adders {
            assert!(!a.name().is_empty());
            let _ = a.add(1, 2);
        }
    }
}
