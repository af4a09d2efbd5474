//! # axnn-quant
//!
//! Symmetric linear quantization for the ApproxNN workspace — the paper's
//! 8A4W scheme (§III):
//!
//! - layer-wise quantization of parameters and activations,
//! - **no zero points** (symmetric quantizer, eliminating GEMM cross-terms),
//! - quantization step sizes chosen by minimizing the *propagated*
//!   quantization error (MinPropQE, paper ref. \[1\]),
//! - step sizes rounded to the next power of two so scaling is a shift.
//!
//! The crate provides the scalar/tensor [`Quantizer`] (one branch-free,
//! auto-vectorising kernel, [`Quantizer::map_codes`], behind every quantize
//! and fake-quant), the [`QuantExecutor`] that swaps into conv/FC layers via
//! [`quantize_network`], and the straight-through estimator semantics: the
//! executor's effective operands are the quantize-dequantized values, so the
//! exact-GEMM backward in `axnn-nn` *is* the STE of the paper's eq. (5).
//!
//! [`QuantExecutor`] is the one 8A4W executor of the workspace. An
//! approximate network is the same quantized network with its multiplier
//! replaced: `axnn-proxsim` supplies the LUT-served product through the
//! [`ApproxProduct`] trait ([`QuantExecutor::with_product`]), and the
//! executor keeps calibration, operand quantization, the STE operands,
//! saturation telemetry and one forward core for both families, which its
//! interpreter forward and its compiled backend both run.
//!
//! # Example
//!
//! ```
//! use axnn_quant::{QuantSpec, Quantizer};
//!
//! let spec = QuantSpec::weights_4bit();
//! let q = Quantizer::for_abs_max(1.0, spec);
//! // 4-bit symmetric: codes in [-7, 7], power-of-two step.
//! assert_eq!(q.step().log2().fract(), 0.0);
//! assert_eq!(q.quantize_code(10.0), 7);
//! assert_eq!(q.quantize_code(-10.0), -7);
//! ```

mod affine;
mod executor;
mod quantizer;

pub use affine::AffineQuantizer;
pub use executor::{quantize_network, quantize_network_per_channel, ApproxProduct, QuantExecutor};
pub use quantizer::{round_step_pow2, QuantSpec, Quantizer};
