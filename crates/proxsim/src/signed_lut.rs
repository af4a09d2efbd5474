//! Signed product lookup tables over the 8A4W code range.

use axnn_axmul::Multiplier;

const X_OFFSET: i32 = 128;
const W_OFFSET: i32 = 8;
const X_SPAN: usize = 256; // codes −128..=127 (symmetric quantizers use −127..=127)
const W_SPAN: usize = 16; // codes −8..=7

/// Every tabulated product is below this in magnitude: 2^15, so the
/// approximate GEMM's `i32` accumulator holds any sum of fewer than 2^16
/// products exactly.
const PRODUCT_BOUND: i64 = 1 << 15;

/// An exhaustive signed product table: every `(x, w)` code pair of the
/// 8A4W range maps to the multiplier's signed product.
///
/// This is the ProxSim trick that makes approximate simulation cheap: the
/// behavioural model runs once per operand pair at table-build time, and
/// every GEMM MAC afterwards is a table lookup.
///
/// The table is stored twice, once for each arm of the approximate GEMM:
///
/// - **w-major** `i32` rows: the 256 products of one weight code are
///   contiguous (see [`SignedLut::w_row`]), so the portable kernel, which
///   holds `w` fixed while streaming activation codes, does one indexed
///   load per MAC from one cache-resident 1 KiB row;
/// - **x-major** byte rows (8 KiB in all): per activation code, the low and
///   high bytes of the 16 products over weight index `w + 8`, each one
///   16-byte shuffle table, so the AVX2 kernel looks up one tap's products
///   for 16 output channels with one `vpshufb` pair. Weight code 0 reads 0
///   there, as the reference kernels skip `w = 0` taps.
///
/// Every entry is below 2^15 in magnitude (checked at build time, so it
/// fits an `i16`); the catalog's largest is 1949 (`evo249`).
///
/// ```
/// use axnn_axmul::{ExactMul, Multiplier};
/// use axnn_proxsim::SignedLut;
///
/// let lut = SignedLut::build(&ExactMul);
/// assert_eq!(lut.get(-127, 7), -889);
/// assert_eq!(lut.get(5, -3), -15);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedLut {
    /// One 256-entry row per weight code, indexed by `x + 128`.
    table: Vec<[i32; X_SPAN]>,
    /// Per activation offset `x + 128`: the low (`[0]`) and high (`[1]`)
    /// bytes of the `i16` product at weight index `w + 8`, zero at `w = 0`.
    bytes: Box<[[[u8; W_SPAN]; 2]; X_SPAN]>,
    /// The largest `|product|` in the table.
    max_abs: i32,
    name: String,
}

impl SignedLut {
    /// Tabulates a multiplier over the full signed code range.
    ///
    /// # Panics
    ///
    /// Panics, naming the multiplier and the operands, if a product is not
    /// below 2^15 in magnitude.
    pub fn build(m: &dyn Multiplier) -> Self {
        let mut table = vec![[0i32; X_SPAN]; W_SPAN];
        let mut bytes = Box::new([[[0u8; W_SPAN]; 2]; X_SPAN]);
        let mut max_abs = 0;
        for w in -W_OFFSET..W_OFFSET {
            let wi = (w + W_OFFSET) as usize;
            for x in -X_OFFSET..X_OFFSET {
                let xi = (x + X_OFFSET) as usize;
                let p = m.mul_signed(x, w);
                assert!(
                    p.abs() < PRODUCT_BOUND,
                    "multiplier {} gives {x} x {w} = {p}, outside the LUT bound |p| < 2^15",
                    m.name()
                );
                let p = p as i32;
                table[wi][xi] = p;
                if w != 0 {
                    let [lo, hi] = (p as i16).to_le_bytes();
                    bytes[xi][0][wi] = lo;
                    bytes[xi][1][wi] = hi;
                    max_abs = max_abs.max(p.abs());
                }
            }
        }
        Self {
            table,
            bytes,
            max_abs,
            name: m.name().to_string(),
        }
    }

    /// Signed product of two quantizer codes.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `x ∉ [−128, 127]` or `w ∉ [−8, 7]`.
    #[inline]
    pub fn get(&self, x: i32, w: i32) -> i64 {
        debug_assert!(
            (-X_OFFSET..X_OFFSET).contains(&x),
            "x code {x} out of range"
        );
        self.w_row(w)[(x + X_OFFSET) as usize] as i64
    }

    /// The 256 contiguous products for weight code `w`, indexed by
    /// `x + 128`. This is the cache-friendly GEMM access path: one row is
    /// 1 KiB and stays resident while a whole activation stripe streams
    /// past it, and a `u8` offset indexes it without a bounds check.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `w ∉ [−8, 7]`.
    #[inline]
    pub fn w_row(&self, w: i32) -> &[i32; X_SPAN] {
        debug_assert!(
            (-W_OFFSET..W_OFFSET).contains(&w),
            "w code {w} out of range"
        );
        &self.table[(w + W_OFFSET) as usize]
    }

    /// The x-major byte tables: entry `x + 128` holds the low (`[0]`) and
    /// high (`[1]`) bytes of the `i16` products `M(x, w)` at index `w + 8`,
    /// with the `w = 0` lanes zero.
    #[inline]
    pub(crate) fn byte_rows(&self) -> &[[[u8; W_SPAN]; 2]; X_SPAN] {
        &self.bytes
    }

    /// The largest `|product|` over the nonzero weight codes (0 for a table
    /// of zeros). Below 2^15 by construction.
    pub(crate) fn max_abs(&self) -> i32 {
        self.max_abs
    }

    /// Name of the tabulated multiplier.
    pub fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axnn_axmul::{
        DrumMul, EvoLikeMul, ExactMul, MitchellLogMul, ProductTruncMul, TruncatedMul,
    };

    #[test]
    fn exact_table_matches_products() {
        let lut = SignedLut::build(&ExactMul);
        for x in [-127i32, -50, -1, 0, 1, 99, 127] {
            for w in [-7i32, -3, 0, 2, 7] {
                assert_eq!(lut.get(x, w), (x * w) as i64);
            }
        }
    }

    #[test]
    fn table_matches_behavioural_model_everywhere() {
        let families: [Box<dyn Multiplier>; 6] = [
            Box::new(ExactMul),
            Box::new(TruncatedMul::new(4)),
            Box::new(EvoLikeMul::calibrated(7, 0.1)),
            Box::new(DrumMul::new(3)),
            Box::new(MitchellLogMul::new()),
            Box::new(ProductTruncMul::new(4)),
        ];
        for m in &families {
            let lut = SignedLut::build(m.as_ref());
            for x in -128i32..=127 {
                for w in -8i32..=7 {
                    assert_eq!(lut.get(x, w), m.mul_signed(x, w), "{} ({x},{w})", m.name());
                }
            }
        }
    }

    #[test]
    fn w_row_agrees_with_get() {
        let lut = SignedLut::build(&TruncatedMul::new(3));
        for w in -8i32..=7 {
            let row = lut.w_row(w);
            assert_eq!(row.len(), 256);
            for x in -128i32..=127 {
                assert_eq!(row[(x + 128) as usize] as i64, lut.get(x, w), "({x},{w})");
            }
        }
    }

    /// The byte tables decode to `get(x, w)` at every pair, with `w = 0`
    /// reading 0, and `max_abs` is the largest such magnitude.
    #[test]
    fn byte_rows_decode_to_the_products() {
        for m in [
            &EvoLikeMul::calibrated(249, 0.488) as &dyn Multiplier,
            &DrumMul::new(3),
        ] {
            let lut = SignedLut::build(m);
            let mut max_abs = 0;
            for x in -128i32..=127 {
                let [lo, hi] = &lut.byte_rows()[(x + 128) as usize];
                for w in -8i32..=7 {
                    let i = (w + 8) as usize;
                    let p = i16::from_le_bytes([lo[i], hi[i]]);
                    let want = if w == 0 { 0 } else { lut.get(x, w) };
                    assert_eq!(i64::from(p), want, "{} ({x},{w})", m.name());
                    max_abs = max_abs.max(p.unsigned_abs());
                }
            }
            assert_eq!(lut.max_abs(), i32::from(max_abs), "{}", m.name());
        }
    }

    /// A multiplier whose `127 × 7` product overflows the LUT bound.
    #[derive(Debug)]
    struct Overflowing;

    impl Multiplier for Overflowing {
        fn mul_mag(&self, x: u32, w: u32) -> u32 {
            if x == 127 && w == 7 {
                1 << 15
            } else {
                x * w
            }
        }

        fn name(&self) -> &str {
            "overflowing"
        }
    }

    #[test]
    #[should_panic(expected = "multiplier overflowing gives -127 x -7 = 32768")]
    fn build_rejects_a_product_outside_the_bound() {
        SignedLut::build(&Overflowing);
    }

    #[test]
    fn every_catalog_multiplier_builds_inside_the_bound() {
        for spec in axnn_axmul::catalog::PAPER_MULTIPLIERS {
            SignedLut::build(spec.build().as_ref()); // `build` checks the bound
        }
    }

    #[test]
    fn evo_table_is_deterministic() {
        let m = EvoLikeMul::calibrated(228, 0.19);
        let a = SignedLut::build(&m);
        let b = SignedLut::build(&m);
        assert_eq!(a, b);
        assert_eq!(a.name(), "evo228");
    }
}
