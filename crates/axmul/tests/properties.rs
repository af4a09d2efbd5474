//! Property-based tests over the approximate-multiplier family.

use axnn_axmul::stats::MulStats;
use axnn_axmul::{
    DrumMul, EvoLikeMul, ExactMul, MitchellLogMul, Multiplier, ProductTruncMul, TruncatedMul,
    MAX_W_MAG, MAX_X_MAG,
};
use axnn_rng::cases;

/// All architecture families with a representative parameter.
fn families() -> Vec<Box<dyn Multiplier>> {
    vec![
        Box::new(ExactMul),
        Box::new(TruncatedMul::new(4)),
        Box::new(ProductTruncMul::new(4)),
        Box::new(DrumMul::new(3)),
        Box::new(MitchellLogMul::new()),
        Box::new(EvoLikeMul::calibrated(7, 0.1)),
    ]
}

/// Sign-magnitude handling is identical across every architecture.
#[test]
fn sign_antisymmetry_all_families() {
    cases(256, |mut rng| {
        let x = rng.gen_range(0i32..=255);
        let w = rng.gen_range(0i32..=15);
        for m in families() {
            assert_eq!(m.mul_signed(-x, w), -m.mul_signed(x, w), "{}", m.name());
            assert_eq!(m.mul_signed(x, -w), -m.mul_signed(x, w), "{}", m.name());
        }
    });
}

/// Zero operands always produce exactly zero (array multipliers have no
/// partial products to mis-sum).
#[test]
fn zero_annihilates() {
    cases(256, |mut rng| {
        let v = rng.gen_range(0u32..=255);
        for m in families() {
            assert_eq!(m.mul_mag(v.min(MAX_X_MAG), 0), 0, "{}", m.name());
            assert_eq!(m.mul_mag(0, v.min(MAX_W_MAG)), 0, "{}", m.name());
        }
    });
}

/// Truncating more columns never decreases any individual product error.
#[test]
fn truncation_error_grows_pointwise() {
    cases(256, |mut rng| {
        let x = rng.gen_range(0u32..=255);
        let w = rng.gen_range(0u32..=15);
        let t = rng.gen_range(1u32..6);
        let less = TruncatedMul::new(t - 1);
        let more = TruncatedMul::new(t);
        let exact = x * w;
        assert!(exact - more.mul_mag(x, w) >= exact - less.mul_mag(x, w));
    });
}

/// Every approximate product stays within the representable range.
#[test]
fn products_stay_in_range() {
    cases(256, |mut rng| {
        let x = rng.gen_range(0u32..=255);
        let w = rng.gen_range(0u32..=15);
        let max_p = MAX_X_MAG * MAX_W_MAG;
        for m in families() {
            assert!(m.mul_mag(x, w) <= max_p, "{}", m.name());
        }
    });
}

#[test]
fn evo_mre_tracks_target_monotonically() {
    let low = MulStats::measure(&EvoLikeMul::calibrated(3, 0.02)).mre;
    let mid = MulStats::measure(&EvoLikeMul::calibrated(3, 0.10)).mre;
    let high = MulStats::measure(&EvoLikeMul::calibrated(3, 0.30)).mre;
    assert!(low < mid && mid < high, "{low} {mid} {high}");
}

#[test]
fn mitchell_mre_matches_literature() {
    // Mitchell's log multiplier is commonly cited around 3.8 % average error.
    let s = MulStats::measure(&MitchellLogMul::new());
    assert!(s.mre > 0.015 && s.mre < 0.06, "Mitchell MRE {}", s.mre);
    assert!(s.is_biased(), "Mitchell always under-estimates");
}
