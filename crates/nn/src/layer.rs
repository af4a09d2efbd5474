//! The [`Layer`] trait and shared GEMM-layer internals.

use crate::executor::LayerExecutor;
use crate::param::Param;
use axnn_tensor::Tensor;

/// Execution mode of a forward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Training: batch-norm uses batch statistics, layers cache for backward.
    Train,
    /// Inference: batch-norm uses running statistics, no caching required.
    Eval,
    /// Calibration: like [`Eval`](Mode::Eval), but quantizing executors
    /// record activation statistics to derive quantization step sizes.
    Calibrate,
}

impl Mode {
    /// Whether batch statistics (rather than running averages) are used.
    pub fn uses_batch_stats(self) -> bool {
        matches!(self, Mode::Train)
    }
}

/// Shared state of GEMM-lowered layers ([`Conv2d`](crate::Conv2d) and
/// [`Linear`](crate::Linear)): the weight/bias parameters and the pluggable
/// arithmetic backend.
///
/// Exposed so that optimization pipelines (quantization, approximation) can
/// walk a network and swap executors or transform weights uniformly.
#[derive(Debug)]
pub struct GemmCore {
    /// Layer weights. Conv: `[OC, C/groups, K, K]`; Linear: `[OUT, IN]`.
    pub weight: Param,
    /// Optional bias of length `OC`/`OUT`.
    pub bias: Option<Param>,
    /// Arithmetic backend; see [`LayerExecutor`].
    pub executor: Box<dyn LayerExecutor>,
    /// Human-readable layer label (unique within a network by convention).
    pub label: String,
    /// Pre-formatted `fwd:<label>` span label. Formatting a span label per
    /// forward call would allocate in the hot loop even with profiling off
    /// in between; layers pass this to `axnn_obs::span` instead.
    pub fwd_span: String,
    /// Pre-formatted `bwd:<label>` span label (see [`GemmCore::fwd_span`]).
    pub bwd_span: String,
    /// Pre-formatted `grad_norm:<label>` histogram label for the per-epoch
    /// weight-gradient-norm telemetry (see [`GemmCore::fwd_span`]).
    pub grad_norm_label: String,
}

impl GemmCore {
    /// Creates a core with the [`ExactExecutor`](crate::ExactExecutor).
    pub fn new(weight: Tensor, bias: Option<Tensor>, label: impl Into<String>) -> Self {
        let label = label.into();
        Self {
            weight: Param::new(weight),
            bias: bias.map(Param::new_no_decay),
            executor: Box::new(crate::ExactExecutor::new()),
            fwd_span: format!("fwd:{label}"),
            bwd_span: format!("bwd:{label}"),
            grad_norm_label: format!("grad_norm:{label}"),
            label,
        }
    }

    /// Replaces the arithmetic backend and hands it the layer label so
    /// per-layer health telemetry (`eps:<label>`, `sat_x:<label>`, ...) is
    /// attributed without the executor knowing about layers.
    pub fn set_executor(&mut self, executor: Box<dyn LayerExecutor>) {
        self.executor = executor;
        self.executor.set_obs_label(&self.label);
    }
}

/// A differentiable network layer.
///
/// Layers cache whatever they need during [`forward`](Layer::forward) (when
/// `mode == Mode::Train`) and consume that cache in
/// [`backward`](Layer::backward), accumulating parameter gradients and
/// returning the gradient with respect to their input.
///
/// The trait is object-safe; networks are trees of `Box<dyn Layer>`. The
/// `Send` supertrait lets a built network move into a dedicated worker
/// thread (the serving path runs every batch on one model-owner thread).
pub trait Layer: Send {
    /// Computes the layer output.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor;

    /// Back-propagates `grad_out`, accumulating parameter gradients.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before a `Mode::Train` forward.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// [`backward`](Layer::backward) for a caller that discards the input
    /// gradient (the first layer of a network): accumulates the same
    /// parameter gradients, and may skip computing the input gradient. The
    /// default runs `backward` and drops its result.
    ///
    /// # Panics
    ///
    /// As [`backward`](Layer::backward).
    fn backward_params(&mut self, grad_out: &Tensor) {
        let _ = self.backward(grad_out);
    }

    /// Visits every trainable parameter (for optimizers and weight I/O).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        let _ = f;
    }

    /// Visits every GEMM-lowered sub-layer (for executor swaps and
    /// quantization transforms).
    fn visit_gemm_cores(&mut self, f: &mut dyn FnMut(&mut GemmCore)) {
        let _ = f;
    }

    /// Visits every non-trainable state buffer (e.g. batch-norm running
    /// statistics) so networks can be checkpoint-copied faithfully.
    /// Default: no buffers.
    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        let _ = f;
    }

    /// Folds batch-norm layers into preceding convolutions wherever the
    /// layer supports it (see
    /// [`ConvBlock::fold_bn`](crate::ConvBlock::fold_bn)); containers
    /// recurse. Default: no-op.
    fn fold_batch_norm(&mut self) {}

    /// A short human-readable description, e.g. `conv3x3(16->32)/s2`.
    fn describe(&self) -> String;

    /// Output shape for a given input shape (used by model builders and
    /// MAC counting). Default: same shape.
    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        input_shape.to_vec()
    }

    /// Number of multiply-accumulate operations for one forward pass over
    /// `input_shape`. Default: zero (activation/reshape layers).
    fn mac_count(&self, input_shape: &[usize]) -> u64 {
        let _ = input_shape;
        0
    }

    /// Lowers this layer into compiled graph ops (see
    /// [`GraphExecutor::compile`](crate::GraphExecutor::compile)), pushing
    /// onto `builder` in execution order. Default: unsupported — compiling
    /// a model containing this layer returns the error.
    fn lower(&self, builder: &mut crate::GraphBuilder) -> Result<(), crate::Unsupported> {
        let _ = builder;
        Err(crate::Unsupported::new(format!(
            "layer {} has no graph lowering",
            self.describe()
        )))
    }
}

/// Clears gradients of every parameter reachable from `layer`.
pub fn zero_grad(layer: &mut dyn Layer) {
    layer.visit_params(&mut |p| p.zero_grad());
}

/// Counts trainable parameters reachable from `layer`.
pub fn param_count(layer: &mut dyn Layer) -> u64 {
    let mut n = 0u64;
    layer.visit_params(&mut |p| n += p.value.len() as u64);
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_batch_stats() {
        assert!(Mode::Train.uses_batch_stats());
        assert!(!Mode::Eval.uses_batch_stats());
        assert!(!Mode::Calibrate.uses_batch_stats());
    }

    #[test]
    fn gemm_core_defaults_to_exact() {
        let core = GemmCore::new(Tensor::zeros(&[2, 2]), None, "fc");
        assert_eq!(core.executor.kind(), crate::ExecutorKind::Exact);
        assert_eq!(core.label, "fc");
        assert!(core.bias.is_none());
    }

    #[test]
    fn gemm_core_bias_is_not_decayed() {
        let core = GemmCore::new(Tensor::zeros(&[2, 2]), Some(Tensor::zeros(&[2])), "fc");
        assert!(!core.bias.as_ref().expect("bias present").decay);
    }
}
