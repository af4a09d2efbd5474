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
//! - [`approx_matmul`]: integer GEMM over quantized codes with exact
//!   accumulation (eq. 4: `ỹᵢⱼ = Σₖ g̃(Xᵢₖ, Wₖⱼ)`);
//! - [`PiecewiseLinearError`]: the paper's eq. (11) error model
//!   `f(y) = min(a, max(k·y + c, b))` whose derivative drives gradient
//!   estimation (eq. 12–13) — the Monte-Carlo fitting lives in the
//!   `approxkd` crate;
//! - [`LutProduct`]: the LUT-served approximate product (with an optional
//!   approximate adder and GE error model) that the one 8A4W executor,
//!   `axnn_quant::QuantExecutor`, carries in place of exact multiplication
//!   and whose `(1 + K)` gradient scale it returns in training;
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
pub mod gemm;
mod product;
mod signed_lut;

pub use error_model::PiecewiseLinearError;
pub use gemm::{approx_matmul, approx_matmul_with_adder};
pub use product::{approximate_network, approximate_network_assigned, LayerAssignment, LutProduct};
pub use signed_lut::SignedLut;
