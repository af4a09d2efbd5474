//! # axnn-nn
//!
//! A self-contained, layer-based CNN training stack — the "TensorFlow
//! substitute" for the DATE 2021 ApproxKD reproduction.
//!
//! The crate provides:
//!
//! - the [`Layer`] trait and concrete layers: [`Conv2d`], [`Linear`],
//!   [`BatchNorm2d`], activations, pooling, [`Flatten`], and the composite
//!   [`ConvBlock`] / [`Residual`] / [`Sequential`] containers,
//! - a pluggable [`LayerExecutor`] abstraction that lets the quantization
//!   (`axnn-quant`) and approximate-multiplier (`axnn-proxsim`) crates swap
//!   the arithmetic of conv/FC layers without touching the training loop,
//! - losses ([`loss`]), the [`Sgd`] optimizer with momentum/weight decay and
//!   step-decay schedules, and train/eval helpers ([`train`]).
//!
//! The backward pass of every conv/FC layer is the *exact* GEMM gradient of
//! the effective (possibly quantize-dequantized) operands — i.e. the
//! straight-through estimator of the paper's eq. (5) — optionally scaled by
//! the gradient-estimation factor `(1 + K)` supplied by the executor
//! (eq. 12).
//!
//! # Example
//!
//! ```
//! use axnn_nn::{loss::softmax_cross_entropy, Linear, Layer, Mode};
//! use axnn_tensor::Tensor;
//! use axnn_rng::Rng;
//!
//! # fn main() -> Result<(), axnn_tensor::ShapeError> {
//! let mut rng = Rng::seed(0);
//! let mut fc = Linear::new(4, 2, true, &mut rng);
//! let x = Tensor::ones(&[3, 4]);
//! let logits = fc.forward(&x, Mode::Train);
//! let (loss, dlogits) = softmax_cross_entropy(&logits, &[0, 1, 0]);
//! assert!(loss.is_finite());
//! fc.backward(&dlogits);
//! # Ok(())
//! # }
//! ```

mod act;
mod block;
mod bn;
mod checkpoint;
mod conv;
mod executor;
mod extra_layers;
mod graph;
mod layer;
mod linear;
mod param;
mod pool;
mod probe;
mod seq;
mod sgd;

pub mod loss;
pub mod train;

pub use act::{Activation, ActivationKind};
pub use block::{ConvBlock, Residual};
pub use bn::BatchNorm2d;
pub use checkpoint::{Checkpoint, ParseCheckpointError, RestoreCheckpointError};
pub use conv::Conv2d;
pub use executor::{
    forward_conv_columns, lower_columns, ExactExecutor, ExecOutput, ExecutorKind, LayerExecutor,
    SteInput,
};
pub use extra_layers::{Dropout, MaxPool2d};
pub use graph::{GemmBackend, GraphBuilder, GraphExecutor, PlanCacheStats, Unsupported};
pub use layer::{GemmCore, Layer, Mode};
pub use linear::Linear;
pub use param::Param;
pub use pool::{AvgPool2d, Flatten, GlobalAvgPool};
pub use probe::{gemm_mac_profile, MacProbe};
pub use seq::Sequential;
pub use sgd::{Sgd, StepDecay};
