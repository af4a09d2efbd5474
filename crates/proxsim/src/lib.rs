//! # axnn-proxsim
//!
//! ProxSim-analogue execution engine (paper ref. \[5\]): runs the GEMM-lowered
//! conv/FC layers of a quantized network through a behavioural approximate
//! multiplier, served from an exhaustive signed lookup table.
//!
//! The crate provides:
//!
//! - [`SignedLut`]: a signed product table over the full 8A4W code range,
//!   built once per multiplier;
//! - [`approx_matmul`]: integer GEMM over quantized codes with i64
//!   accumulation (eq. 4: `ỹᵢⱼ = Σₖ g̃(Xᵢₖ, Wₖⱼ)`);
//! - [`PiecewiseLinearError`]: the paper's eq. (11) error model
//!   `f(y) = min(a, max(k·y + c, b))` whose derivative drives gradient
//!   estimation (eq. 12–13) — the Monte-Carlo fitting lives in the
//!   `approxkd` crate;
//! - [`ApproxExecutor`]: the drop-in layer executor combining 8A4W
//!   quantization, LUT-served approximate GEMM and the optional `(1 + K)`
//!   gradient scale;
//! - [`approximate_network_assigned`]: the one per-layer executor layout
//!   (approximate or 8A4W per GEMM layer), with [`approximate_network`] as
//!   its uniform case.
//!
//! # Example
//!
//! ```
//! use axnn_axmul::{Multiplier, TruncatedMul};
//! use axnn_proxsim::SignedLut;
//!
//! let m = TruncatedMul::new(3);
//! let lut = SignedLut::build(&m);
//! assert_eq!(lut.get(-9, 3), m.mul_signed(-9, 3));
//! ```

mod error_model;
mod executor;
pub mod gemm;
mod signed_lut;

pub use error_model::PiecewiseLinearError;
pub use executor::{
    approximate_network, approximate_network_assigned, ApproxExecutor, LayerAssignment,
};
pub use gemm::{approx_matmul, approx_matmul_with_adder};
pub use signed_lut::SignedLut;
