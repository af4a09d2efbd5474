//! # axnn-axmul
//!
//! Behavioural 8×4 approximate multipliers for the ApproxNN workspace —
//! the stand-in for the EvoApprox8b library \[20\] and the truncated
//! multipliers of Kidambi et al. \[21\] used by the DATE 2021 paper.
//!
//! The paper characterizes every multiplier by three quantities, all of
//! which this crate reproduces:
//!
//! - **MRE** (mean relative error, eq. 14) — computed exhaustively over the
//!   full `2⁸ × 2⁴` operand domain by [`stats::MulStats::measure`];
//! - **error bias** — truncated multipliers have a one-sided (biased)
//!   error, which is what makes gradient estimation (GE) effective on them;
//!   EvoApprox-style multipliers are unbiased, so the fitted error slope is
//!   zero and GE degenerates to the plain STE (paper §IV-B);
//! - **energy saving** — taken from the paper's tables for catalogued
//!   multipliers ([`catalog`]), with a first-order partial-product activity
//!   model ([`energy`]) for everything else.
//!
//! Multipliers operate on **unsigned magnitudes** (`x ∈ [0, 255]`,
//! `w ∈ [0, 15]`), matching the enumeration domain of eq. 14; signed codes
//! are handled sign-magnitude by [`Multiplier::mul_signed`]. The
//! ProxSim-analogue execution engine tabulates a multiplier once over the
//! signed code range (`axnn_proxsim::SignedLut`) and never calls it per MAC.
//!
//! # Example
//!
//! ```
//! use axnn_axmul::{stats::MulStats, Multiplier, TruncatedMul};
//!
//! let m = TruncatedMul::new(5);
//! assert_eq!(m.mul_mag(200, 10), (200 * 10) >> 5 << 5);
//! let s = MulStats::measure(&m);
//! assert!(s.mre > 0.10 && s.mre < 0.30); // ~19.8 % in the paper
//! assert!(s.mean_error < 0.0);           // truncation bias is negative
//! ```

mod architectures;
mod evo_like;
mod mult;
mod truncated;

pub mod adder;
pub mod catalog;
pub mod energy;
pub mod stats;

pub use architectures::{DrumMul, MitchellLogMul, ProductTruncMul};
pub use evo_like::EvoLikeMul;
pub use mult::{
    ExactMul, Multiplier, MAX_W_CODE, MAX_W_MAG, MAX_X_CODE, MAX_X_MAG, W_BITS, X_BITS,
};
pub use truncated::TruncatedMul;
