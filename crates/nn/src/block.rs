//! Composite layers: Conv→BN→activation blocks (with BN folding) and
//! residual connections.

use crate::act::{Activation, ActivationKind};
use crate::bn::BatchNorm2d;
use crate::conv::Conv2d;
use crate::layer::{GemmCore, Layer, Mode};
use crate::param::Param;
use crate::seq::Sequential;
use axnn_rng::Rng;
use axnn_tensor::Tensor;

/// A `Conv → BatchNorm → activation` block, the basic building unit of the
/// evaluated models.
///
/// Batch norm can be *folded* into the convolution weights
/// ([`fold_bn`](Self::fold_bn)) — the transformation the paper applies to
/// the ResNets before quantization (ref. \[9\]) — after which the block is a
/// plain biased convolution plus activation.
#[derive(Debug)]
pub struct ConvBlock {
    conv: Conv2d,
    bn: Option<BatchNorm2d>,
    act: Activation,
}

impl ConvBlock {
    /// Creates a conv+BN+activation block. `bn = false` builds a bare
    /// biased convolution with activation.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        groups: usize,
        bn: bool,
        act: ActivationKind,
        rng: &mut Rng,
    ) -> Self {
        // With BN, the conv bias is redundant; without, it is needed.
        let conv = Conv2d::new(
            in_channels,
            out_channels,
            kernel,
            stride,
            pad,
            groups,
            !bn,
            rng,
        );
        Self {
            conv,
            bn: bn.then(|| BatchNorm2d::new(out_channels)),
            act: Activation::new(act),
        }
    }

    /// Whether the block still carries a live batch-norm layer.
    pub fn has_bn(&self) -> bool {
        self.bn.is_some()
    }

    /// The inner convolution.
    pub fn conv(&self) -> &Conv2d {
        &self.conv
    }

    /// Folds the batch-norm inference affine into the convolution:
    /// `w'ₒ = w·γ/√(σ²+ε)`, `b' = β + (b − μ)·γ/√(σ²+ε)` (paper ref. \[9\]).
    ///
    /// After folding, the BN layer is removed and the conv gains a bias if
    /// it had none. Calling this on a block without BN is a no-op.
    pub fn fold_bn(&mut self) {
        let Some(bn) = self.bn.take() else { return };
        let (scale, shift) = bn.inference_affine();
        let w = &mut self.conv.core_mut().weight.value;
        let oc = w.shape()[0];
        let per_oc = w.len() / oc;
        {
            let data = w.as_mut_slice();
            for o in 0..oc {
                for v in &mut data[o * per_oc..(o + 1) * per_oc] {
                    *v *= scale[o];
                }
            }
        }
        let old_bias = self
            .conv
            .core()
            .bias
            .as_ref()
            .map(|b| b.value.as_slice().to_vec())
            .unwrap_or_else(|| vec![0.0; oc]);
        let new_bias: Vec<f32> = (0..oc).map(|o| shift[o] + scale[o] * old_bias[o]).collect();
        self.conv.core_mut().bias = Some(Param::new_no_decay(
            Tensor::from_vec(new_bias, &[oc]).expect("bias length = OC"),
        ));
    }
}

impl Layer for ConvBlock {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let mut x = self.conv.forward(input, mode);
        if let Some(bn) = &mut self.bn {
            x = bn.forward(&x, mode);
        }
        self.act.forward(&x, mode)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = self.act.backward(grad_out);
        if let Some(bn) = &mut self.bn {
            g = bn.backward(&g);
        }
        self.conv.backward(&g)
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        let mut g = self.act.backward(grad_out);
        if let Some(bn) = &mut self.bn {
            g = bn.backward(&g);
        }
        self.conv.backward_params(&g);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv.visit_params(f);
        if let Some(bn) = &mut self.bn {
            bn.visit_params(f);
        }
    }

    fn visit_gemm_cores(&mut self, f: &mut dyn FnMut(&mut GemmCore)) {
        self.conv.visit_gemm_cores(f);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        if let Some(bn) = &mut self.bn {
            bn.visit_buffers(f);
        }
    }

    fn fold_batch_norm(&mut self) {
        self.fold_bn();
    }

    fn describe(&self) -> String {
        let bn = if self.bn.is_some() { "+bn" } else { "" };
        format!("{}{}+{}", self.conv.describe(), bn, self.act.describe())
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        self.conv.output_shape(input_shape)
    }

    fn mac_count(&self, input_shape: &[usize]) -> u64 {
        self.conv.mac_count(input_shape)
    }

    fn lower(&self, builder: &mut crate::GraphBuilder) -> Result<(), crate::Unsupported> {
        if self.bn.is_some() {
            // GraphExecutor::compile folds BN first, so this only triggers
            // for blocks whose BN could not be folded away.
            return Err(crate::Unsupported::new(format!(
                "unfolded batch norm in {}",
                self.describe()
            )));
        }
        self.conv.lower(builder)?;
        builder.push_activation(self.act.kind());
        Ok(())
    }
}

/// A residual connection: `y = act(main(x) + shortcut(x))`, with an
/// identity shortcut when `shortcut` is `None`.
///
/// Used for both ResNet basic blocks (post-add ReLU) and MobileNetV2
/// inverted residuals (post-add identity).
#[derive(Debug)]
pub struct Residual {
    main: Sequential,
    shortcut: Option<Sequential>,
    act: ActivationKind,
    cache_pre: Option<Tensor>,
}

impl Residual {
    /// Creates a residual block. `shortcut = None` means identity (requires
    /// `main` to be shape-preserving).
    pub fn new(main: Sequential, shortcut: Option<Sequential>, act: ActivationKind) -> Self {
        Self {
            main,
            shortcut,
            act,
            cache_pre: None,
        }
    }

    /// The main (residual) branch.
    pub fn main(&self) -> &Sequential {
        &self.main
    }
}

impl Layer for Residual {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let m = self.main.forward(input, mode);
        let s = match &mut self.shortcut {
            Some(sc) => sc.forward(input, mode),
            None => input.clone(),
        };
        assert_eq!(
            m.shape(),
            s.shape(),
            "residual branch shapes differ: {:?} vs {:?}",
            m.shape(),
            s.shape()
        );
        let pre = &m + &s;
        let out = pre.map(|x| self.act.apply(x));
        self.cache_pre = (mode == Mode::Train).then_some(pre);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let pre = self
            .cache_pre
            .take()
            .expect("Residual::backward called without a Train-mode forward");
        let d_pre = grad_out.zip_map(&pre, |g, x| g * self.act.derivative(x));
        let d_main = self.main.backward(&d_pre);
        match &mut self.shortcut {
            Some(sc) => {
                let d_short = sc.backward(&d_pre);
                &d_main + &d_short
            }
            None => &d_main + &d_pre,
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.main.visit_params(f);
        if let Some(sc) = &mut self.shortcut {
            sc.visit_params(f);
        }
    }

    fn visit_gemm_cores(&mut self, f: &mut dyn FnMut(&mut GemmCore)) {
        self.main.visit_gemm_cores(f);
        if let Some(sc) = &mut self.shortcut {
            sc.visit_gemm_cores(f);
        }
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.main.visit_buffers(f);
        if let Some(sc) = &mut self.shortcut {
            sc.visit_buffers(f);
        }
    }

    fn fold_batch_norm(&mut self) {
        self.main.fold_batch_norm();
        if let Some(sc) = &mut self.shortcut {
            sc.fold_batch_norm();
        }
    }

    fn describe(&self) -> String {
        let sc = if self.shortcut.is_some() {
            "proj"
        } else {
            "id"
        };
        format!("residual[{} | {}]", self.main.describe(), sc)
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        self.main.output_shape(input_shape)
    }

    fn mac_count(&self, input_shape: &[usize]) -> u64 {
        self.main.mac_count(input_shape)
            + self
                .shortcut
                .as_ref()
                .map_or(0, |sc| sc.mac_count(input_shape))
    }

    fn lower(&self, builder: &mut crate::GraphBuilder) -> Result<(), crate::Unsupported> {
        let mut main = crate::GraphBuilder::new();
        self.main.lower(&mut main)?;
        let shortcut = match &self.shortcut {
            Some(sc) => {
                let mut b = crate::GraphBuilder::new();
                sc.lower(&mut b)?;
                Some(b)
            }
            None => None,
        };
        builder.push_residual(main, shortcut, self.act);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axnn_rng::Rng;
    use axnn_tensor::init;

    #[test]
    fn fold_bn_preserves_eval_output() {
        let mut rng = Rng::seed(11);
        let mut block = ConvBlock::new(2, 4, 3, 1, 1, 1, true, ActivationKind::Relu, &mut rng);
        // Warm the BN running stats.
        for _ in 0..100 {
            let x = init::normal(&[4, 2, 5, 5], 0.5, 1.5, &mut rng);
            block.forward(&x, Mode::Train);
        }
        let x = init::normal(&[2, 2, 5, 5], 0.5, 1.5, &mut rng);
        let before = block.forward(&x, Mode::Eval);
        block.fold_bn();
        assert!(!block.has_bn());
        let after = block.forward(&x, Mode::Eval);
        for (a, b) in before.as_slice().iter().zip(after.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn fold_bn_without_bn_is_noop() {
        let mut rng = Rng::seed(12);
        let mut block = ConvBlock::new(2, 2, 1, 1, 0, 1, false, ActivationKind::Identity, &mut rng);
        let w_before = block.conv().core().weight.value.clone();
        block.fold_bn();
        assert_eq!(block.conv().core().weight.value, w_before);
    }

    #[test]
    fn identity_residual_backward_adds_paths() {
        let mut rng = Rng::seed(13);
        let main = Sequential::new(vec![Box::new(ConvBlock::new(
            2,
            2,
            3,
            1,
            1,
            1,
            false,
            ActivationKind::Identity,
            &mut rng,
        ))]);
        let mut res = Residual::new(main, None, ActivationKind::Identity);
        let x = init::uniform(&[1, 2, 4, 4], -1.0, 1.0, &mut rng);
        let y = res.forward(&x, Mode::Train);
        assert_eq!(y.shape(), x.shape());
        let dx = res.backward(&Tensor::ones(y.shape()));
        // Identity path contributes 1 everywhere; conv path adds more.
        assert!(dx.as_slice().iter().any(|&v| (v - 1.0).abs() > 1e-6));
    }

    #[test]
    fn residual_gradcheck() {
        let mut rng = Rng::seed(14);
        let main = Sequential::new(vec![Box::new(ConvBlock::new(
            2,
            2,
            3,
            1,
            1,
            1,
            false,
            ActivationKind::Relu,
            &mut rng,
        ))]);
        let mut res = Residual::new(main, None, ActivationKind::Relu);
        let mut x = init::uniform(&[1, 2, 3, 3], -1.0, 1.0, &mut rng);
        let y0 = res.forward(&x, Mode::Train);
        let mask = init::uniform(y0.shape(), 0.1, 1.0, &mut rng);
        let dx = res.backward(&mask);
        let eps = 1e-3;
        for idx in [0usize, 9, x.len() - 1] {
            let orig = x.as_slice()[idx];
            x.as_mut_slice()[idx] = orig + eps;
            let yp = res.forward(&x, Mode::Eval);
            x.as_mut_slice()[idx] = orig - eps;
            let ym = res.forward(&x, Mode::Eval);
            x.as_mut_slice()[idx] = orig;
            let lp: f32 = yp
                .as_slice()
                .iter()
                .zip(mask.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            let lm: f32 = ym
                .as_slice()
                .iter()
                .zip(mask.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            let numeric = (lp - lm) / (2.0 * eps);
            let got = dx.as_slice()[idx];
            assert!(
                (numeric - got).abs() < 2e-2 * (1.0 + numeric.abs()),
                "idx {idx}: {numeric} vs {got}"
            );
        }
    }
}
