//! # axnn-models
//!
//! Builders for the CNNs evaluated in the paper (Table I): ResNet-20,
//! ResNet-32 \[6\] and MobileNetV2 \[7\], in their CIFAR-10 form.
//!
//! Every builder takes a [`ModelConfig`] with a **width multiplier** and
//! input geometry: full-width models reproduce the paper's parameter/MAC
//! counts for Table I, while the width-reduced "mini" variants make
//! CPU-scale training runs tractable (this reproduction runs on one core —
//! see `DESIGN.md`).
//!
//! The returned networks are plain [`Sequential`](axnn_nn::Sequential)
//! stacks of `axnn-nn` layers, so the quantization/approximation executors
//! swap in uniformly. [`ModelKind`] names each architecture, builds it and
//! restores a saved checkpoint into it.
//!
//! # Example
//!
//! ```
//! use axnn_models::{resnet20, ModelConfig};
//! use axnn_nn::{Layer, Mode};
//! use axnn_tensor::Tensor;
//! use axnn_rng::Rng;
//!
//! let mut rng = Rng::seed(0);
//! let cfg = ModelConfig::mini(); // width 1/4, 16x16 inputs
//! let mut net = resnet20(&cfg, &mut rng);
//! let y = net.forward(&Tensor::ones(&[1, 3, 16, 16]), Mode::Eval);
//! assert_eq!(y.shape(), &[1, 10]);
//! ```

mod config;
mod kind;
mod lenet;
mod mobilenet;
mod profile;
mod resnet;

pub use config::ModelConfig;
pub use kind::ModelKind;
pub use lenet::lenet;
pub use mobilenet::mobilenet_v2;
pub use profile::ModelProfile;
pub use resnet::{resnet20, resnet32, resnet_cifar};
