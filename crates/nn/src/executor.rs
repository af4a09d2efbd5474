//! Pluggable arithmetic for GEMM-lowered layers.
//!
//! Every [`Conv2d`](crate::Conv2d) layer, and so every
//! [`Linear`](crate::Linear) (a 1×1 conv), computes its forward product
//! through a [`LayerExecutor`]. The default
//! [`ExactExecutor`] is plain f32 GEMM; the quantization crate's one 8A4W
//! executor replaces it for both quantized families — exact products, or
//! the approximate product the ProxSim crate supplies through
//! `axnn_quant::ApproxProduct`. The *backward* pass never changes: it is
//! always the exact GEMM gradient of the effective operands returned by
//! the executor — the straight-through estimator of the paper's eq. (5) —
//! with an optional elementwise upstream scale implementing gradient
//! estimation (eq. 10/12).

use crate::Mode;
use axnn_tensor::im2col::{im2col_slice_into, ConvGeometry};
use axnn_tensor::{gemm, Tensor};
use std::fmt;

/// Result of an executor forward pass over one lowered GEMM.
#[derive(Debug, Clone)]
pub struct ExecOutput {
    /// Output matrix `[OC, M]` — possibly quantized/approximate.
    pub y: Tensor,
    /// Effective weight matrix used for the STE backward (e.g. the
    /// quantize-dequantized weights). Shape `[OC, K]` in [`Mode::Train`];
    /// outside it an executor may return an empty tensor instead, since
    /// only the backward reads it.
    pub wmat_eff: Tensor,
    /// Effective input (column) matrix for the STE backward, `[K, M]` in
    /// [`Mode::Train`]; like `wmat_eff`, possibly empty outside it. Read it
    /// as `f32` through [`col_eff`](Self::col_eff).
    pub x_eff: SteInput,
    /// Optional elementwise factor applied to the upstream gradient
    /// `∂C/∂ỹ` before the GEMM backward products — the `(1 + K)` matrix of
    /// the paper's eq. (12). Shape `[OC, M]` when present.
    pub grad_scale: Option<Tensor>,
}

/// The input operand of the straight-through backward, as the executor
/// produced it.
#[derive(Debug, Clone)]
pub enum SteInput {
    /// Dense `f32` columns (the exact families).
    Dense(Tensor),
    /// The `[k, m]` activation codes of an approximate product, stored as
    /// the `u8` LUT offsets `code + 128` it read, with their step: element
    /// `(offset − 128) as f32 · step`. A quarter of the dense bytes, and no
    /// dequantize pass in the forward.
    Offsets {
        /// Row-major `[k, m]` offsets.
        offsets: Vec<u8>,
        /// Rows (the GEMM's shared dimension).
        k: usize,
        /// Columns.
        m: usize,
        /// The activation quantizer's step.
        step: f32,
    },
}

impl ExecOutput {
    /// The STE input operand as an `f32` `[K, M]` tensor: a copy of the
    /// dense columns, or the offsets dequantized as `(offset − 128) as f32
    /// · step`, which is the fake-quantized activation bit for bit.
    pub fn col_eff(&self) -> Tensor {
        match &self.x_eff {
            SteInput::Dense(t) => t.clone(),
            SteInput::Offsets {
                offsets,
                k,
                m,
                step,
            } => {
                let deq = offsets
                    .iter()
                    .map(|&o| (i32::from(o) - 128) as f32 * step)
                    .collect();
                Tensor::from_vec(deq, &[*k, *m]).expect("one offset per element")
            }
        }
    }

    /// The STE weight gradient `dy · col_effᵀ` (`[OC, K]`) of the upstream
    /// gradient `dy` (`[OC, M]`, already scaled by
    /// [`grad_scale`](Self::grad_scale)). Offsets are dequantized while the
    /// packed GEMM reads them, with the same bits as
    /// `gemm::matmul_nt(dy, &self.col_eff())`.
    pub fn weight_grad(&self, dy: &Tensor) -> Tensor {
        match &self.x_eff {
            SteInput::Dense(t) => gemm::matmul_nt(dy, t),
            SteInput::Offsets {
                offsets,
                k,
                m,
                step,
            } => {
                assert_eq!(dy.shape()[1], *m, "weight_grad column mismatch");
                gemm::matmul_nt_offsets(dy, offsets, *k, *step)
            }
        }
    }
}

/// Coarse identification of an executor, used by reports and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutorKind {
    /// Full-precision f32 GEMM.
    Exact,
    /// Quantize-dequantize (fake-quant) GEMM.
    Quantized,
    /// Quantized GEMM computed with an approximate multiplier.
    Approximate,
}

impl fmt::Display for ExecutorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ExecutorKind::Exact => "exact",
            ExecutorKind::Quantized => "quantized",
            ExecutorKind::Approximate => "approximate",
        };
        f.write_str(s)
    }
}

/// Arithmetic backend for a GEMM-lowered layer.
///
/// Implementations may be stateful (e.g. they record activation ranges when
/// `mode == Mode::Calibrate`, or hold a fitted error model for gradient
/// estimation). One executor instance is owned per layer.
pub trait LayerExecutor: fmt::Debug + Send {
    /// Computes `y ≈ wmat · col`.
    ///
    /// `wmat` is `[OC, K]` (full-precision weights), `col` is `[K, M]`
    /// (full-precision lowered inputs). The returned
    /// [`ExecOutput::wmat_eff`]/[`x_eff`](ExecOutput::x_eff) are the
    /// operands the backward pass should differentiate through.
    fn forward(&mut self, wmat: &Tensor, col: &Tensor, mode: Mode) -> ExecOutput;

    /// The forward product of one convolution group: `wmat` (`[OCG, K]`,
    /// `K = CG·KH·KW`) times the lowering of input channels `[c0, c0 + CG)`
    /// of the NCHW `input` under `geom`. The group's channels are read in
    /// place, as [`GemmBackend::forward_conv`](crate::GemmBackend::forward_conv)
    /// reads them.
    ///
    /// The default lowers those channels with `im2col` into `col` (kept
    /// across calls; reallocated when the lowered shape changes) and runs
    /// [`forward`](Self::forward) on it. An executor may override it to
    /// lower something cheaper than `f32` columns; its output must equal
    /// the default's bit for bit.
    fn forward_conv(
        &mut self,
        wmat: &Tensor,
        input: &Tensor,
        c0: usize,
        geom: ConvGeometry,
        mode: Mode,
        col: &mut Option<Tensor>,
    ) -> ExecOutput {
        forward_conv_columns(self, wmat, input, c0, geom, mode, col)
    }

    /// Which family this executor belongs to.
    fn kind(&self) -> ExecutorKind;

    /// Receives the owning layer's label for per-layer health telemetry
    /// (called by `GemmCore::set_executor`). Executors that record health
    /// metrics pre-format their `eps:<label>`-style keys here; the default
    /// implementation ignores the label.
    fn set_obs_label(&mut self, label: &str) {
        let _ = label;
    }

    /// Compiles this executor over the frozen weight matrix `wmat` into a
    /// fused [`GemmBackend`](crate::GemmBackend) for the graph executor.
    ///
    /// Every built-in family (exact, quantized, approximate) returns a
    /// backend; the default `None` is for probes and other custom
    /// executors, whose models then fail to compile with
    /// [`Unsupported`](crate::Unsupported). A returned backend must be
    /// *bit-identical* to this executor's [`forward`](Self::forward) in
    /// `Mode::Eval` followed by the owning layer's separate bias/activation
    /// passes; anything an executor does only for the backward pass (such
    /// as gradient estimation) has no part in it. The simplest way to keep
    /// that contract is to share the product: `axnn_quant::QuantExecutor`
    /// builds one core over `wmat` here, and its `forward` runs the same
    /// core over each call's weights with no bias and the identity
    /// epilogue.
    fn compile_backend(&self, wmat: &Tensor) -> Option<Box<dyn crate::GemmBackend>> {
        let _ = wmat;
        None
    }
}

/// The default [`LayerExecutor::forward_conv`]: lowers input channels
/// `[c0, c0 + CG)` into the `f32` columns `col` with [`lower_columns`]
/// (reusing the buffer when its shape still fits) and runs `ex.forward` on
/// them. Overrides call it for the cases they leave to the column path.
pub fn forward_conv_columns<E: LayerExecutor + ?Sized>(
    ex: &mut E,
    wmat: &Tensor,
    input: &Tensor,
    c0: usize,
    geom: ConvGeometry,
    mode: Mode,
    col: &mut Option<Tensor>,
) -> ExecOutput {
    let dims: [usize; 4] = input.shape().try_into().expect("conv input is NCHW");
    let [n, _, h, w] = dims;
    let lowered = [wmat.shape()[1], n * geom.out_dim(h) * geom.out_dim(w)];
    let col = match col {
        Some(t) if t.shape() == lowered => t,
        _ => col.insert(Tensor::zeros(&lowered)),
    };
    lower_columns(input.as_slice(), dims, c0, geom, col);
    ex.forward(wmat, col, mode)
}

/// The column path of a conv group, in both engines: lowers input channels
/// `[c0, c0 + CG)` of the row-major `dims = [N, C, H, W]` `input`, read in
/// place, into the `f32` columns `col` (`[CG·KH·KW, M]`, every element
/// overwritten) with `im2col`, and counts their bytes.
pub fn lower_columns(
    input: &[f32],
    dims: [usize; 4],
    c0: usize,
    geom: ConvGeometry,
    col: &mut Tensor,
) {
    let channels = c0..c0 + col.shape()[0] / (geom.kernel * geom.kernel);
    im2col_slice_into(input, dims, channels, geom, 0.0, col.as_mut_slice());
    axnn_obs::count(axnn_obs::Counter::Im2colBytes, (col.len() * 4) as u64);
}

/// Full-precision executor: plain f32 GEMM, identity effective operands.
///
/// ```
/// use axnn_nn::{ExactExecutor, LayerExecutor, Mode};
/// use axnn_tensor::Tensor;
///
/// let mut ex = ExactExecutor::new();
/// let w = Tensor::eye(2);
/// let x = Tensor::ones(&[2, 3]);
/// let out = ex.forward(&w, &x, Mode::Train);
/// assert_eq!(out.y.as_slice(), x.as_slice());
/// assert!(out.grad_scale.is_none());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactExecutor;

impl ExactExecutor {
    /// Creates the exact executor.
    pub fn new() -> Self {
        Self
    }
}

impl LayerExecutor for ExactExecutor {
    fn forward(&mut self, wmat: &Tensor, col: &Tensor, mode: Mode) -> ExecOutput {
        if axnn_obs::enabled() {
            let (oc, k) = (wmat.shape()[0], wmat.shape()[1]);
            let m = col.shape()[1];
            axnn_obs::count(axnn_obs::Counter::GemmMacs, (oc * k * m) as u64);
        }
        // Only the Train backward reads the STE operands.
        let (wmat_eff, col_eff) = if mode == Mode::Train {
            (wmat.clone(), col.clone())
        } else {
            (Tensor::zeros(&[0, 0]), Tensor::zeros(&[0, 0]))
        };
        ExecOutput {
            y: gemm::matmul(wmat, col),
            wmat_eff,
            x_eff: SteInput::Dense(col_eff),
            grad_scale: None,
        }
    }

    fn kind(&self) -> ExecutorKind {
        ExecutorKind::Exact
    }

    fn compile_backend(&self, wmat: &Tensor) -> Option<Box<dyn crate::GemmBackend>> {
        Some(Box::new(ExactBackend { w: wmat.clone() }))
    }
}

/// Compiled form of [`ExactExecutor`]: the implicit-GEMM direct conv,
/// applying the bias/activation epilogue while the output tile is hot in
/// cache.
#[derive(Debug)]
pub(crate) struct ExactBackend {
    w: Tensor,
}

impl crate::GemmBackend for ExactBackend {
    fn forward_conv(
        &mut self,
        input: &[f32],
        dims: [usize; 4],
        c0: usize,
        geom: ConvGeometry,
        bias: Option<&[f32]>,
        ep: gemm::Epilogue,
        out: &mut [f32],
        out_channels: usize,
    ) {
        if axnn_obs::enabled() {
            // Same nominal MAC count as the GEMM lowering of this group.
            let [n, _, h, w] = dims;
            let m = n * geom.out_dim(h) * geom.out_dim(w);
            axnn_obs::count(axnn_obs::Counter::GemmMacs, (self.w.len() * m) as u64);
        }
        axnn_tensor::conv_direct::conv2d_bias_act_into(
            &self.w,
            input,
            dims,
            c0,
            geom,
            bias,
            ep,
            out,
            out_channels,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_executor_is_plain_gemm() {
        let mut ex = ExactExecutor::new();
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let x = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        let out = ex.forward(&w, &x, Mode::Train);
        assert_eq!(out.y, w);
        assert_eq!(out.wmat_eff, w);
        assert_eq!(out.col_eff(), x);
        for mode in [Mode::Eval, Mode::Calibrate] {
            let out = ex.forward(&w, &x, mode);
            assert_eq!(out.y, w);
            assert!(
                out.wmat_eff.is_empty() && out.col_eff().is_empty(),
                "{mode:?}"
            );
        }
        assert_eq!(ex.kind(), ExecutorKind::Exact);
    }

    #[test]
    fn kind_display() {
        assert_eq!(ExecutorKind::Exact.to_string(), "exact");
        assert_eq!(ExecutorKind::Quantized.to_string(), "quantized");
        assert_eq!(ExecutorKind::Approximate.to_string(), "approximate");
    }
}
