//! Sequential container — the network type used across the workspace.

use crate::layer::{GemmCore, Layer, Mode};
use crate::param::Param;
use axnn_tensor::Tensor;
use std::fmt;

/// A sequence of layers applied in order.
///
/// `Sequential` is both the top-level network type (ResNet/MobileNet
/// builders in `axnn-models` return one) and the branch type inside
/// [`Residual`](crate::Residual) blocks.
///
/// # Example
///
/// ```
/// use axnn_nn::{Activation, ActivationKind, Layer, Linear, Mode, Sequential};
/// use axnn_tensor::Tensor;
/// use axnn_rng::Rng;
///
/// let mut rng = Rng::seed(0);
/// let mut net = Sequential::new(vec![
///     Box::new(Linear::new(4, 8, true, &mut rng)),
///     Box::new(Activation::new(ActivationKind::Relu)),
///     Box::new(Linear::new(8, 2, true, &mut rng)),
/// ]);
/// let y = net.forward(&Tensor::ones(&[3, 4]), Mode::Eval);
/// assert_eq!(y.shape(), &[3, 2]);
/// ```
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates a network from an ordered list of layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Self { layers }
    }

    /// Creates an empty network to be extended with [`push`](Self::push).
    pub fn empty() -> Self {
        Self { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of direct child layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Iterates over the direct child layers.
    pub fn iter(&self) -> std::slice::Iter<'_, Box<dyn Layer>> {
        self.layers.iter()
    }

    /// Iterates mutably over the direct child layers.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, Box<dyn Layer>> {
        self.layers.iter_mut()
    }

    /// Total trainable parameter count.
    pub fn param_count(&mut self) -> u64 {
        crate::layer::param_count(self)
    }

    /// Clears all accumulated gradients.
    pub fn zero_grad(&mut self) {
        crate::layer::zero_grad(self);
    }

    /// Copies all parameter values from `other` (same architecture).
    ///
    /// # Panics
    ///
    /// Panics if the two networks have different parameter shapes/counts.
    pub fn copy_params_from(&mut self, other: &mut Sequential) {
        let mut values = Vec::new();
        other.visit_params(&mut |p| values.push(p.value.clone()));
        let mut i = 0;
        self.visit_params(&mut |p| {
            assert!(i < values.len(), "parameter count mismatch");
            assert_eq!(
                p.value.shape(),
                values[i].shape(),
                "parameter shape mismatch at index {i}"
            );
            p.value = values[i].clone();
            i += 1;
        });
        assert_eq!(i, values.len(), "parameter count mismatch");
    }

    /// Copies all non-trainable buffers (batch-norm running statistics)
    /// from `other` (same architecture).
    ///
    /// # Panics
    ///
    /// Panics if the two networks have different buffer shapes/counts.
    pub fn copy_buffers_from(&mut self, other: &mut Sequential) {
        let mut values = Vec::new();
        other.visit_buffers(&mut |b| values.push(b.clone()));
        let mut i = 0;
        self.visit_buffers(&mut |b| {
            assert!(i < values.len(), "buffer count mismatch");
            assert_eq!(b.shape(), values[i].shape(), "buffer shape mismatch");
            *b = values[i].clone();
            i += 1;
        });
        assert_eq!(i, values.len(), "buffer count mismatch");
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, mode);
        }
        x
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// Runs every layer's backward but the first's, whose input gradient
    /// nobody reads, so it only accumulates its parameter gradients.
    fn backward_params(&mut self, grad_out: &Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let mut g = grad_out.clone();
        for layer in rest.iter_mut().rev() {
            g = layer.backward(&g);
        }
        first.backward_params(&g);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn visit_gemm_cores(&mut self, f: &mut dyn FnMut(&mut GemmCore)) {
        for layer in &mut self.layers {
            layer.visit_gemm_cores(f);
        }
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_buffers(f);
        }
    }

    fn fold_batch_norm(&mut self) {
        for layer in &mut self.layers {
            layer.fold_batch_norm();
        }
    }

    fn describe(&self) -> String {
        self.layers
            .iter()
            .map(|l| l.describe())
            .collect::<Vec<_>>()
            .join(" -> ")
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        let mut s = input_shape.to_vec();
        for layer in &self.layers {
            s = layer.output_shape(&s);
        }
        s
    }

    fn mac_count(&self, input_shape: &[usize]) -> u64 {
        let mut s = input_shape.to_vec();
        let mut macs = 0u64;
        for layer in &self.layers {
            macs += layer.mac_count(&s);
            s = layer.output_shape(&s);
        }
        macs
    }

    fn lower(&self, builder: &mut crate::GraphBuilder) -> Result<(), crate::Unsupported> {
        for layer in &self.layers {
            layer.lower(builder)?;
        }
        Ok(())
    }
}

impl fmt::Debug for Sequential {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Sequential[{} layers: {}]",
            self.layers.len(),
            self.describe()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, ActivationKind, Linear};
    use axnn_rng::Rng;
    use axnn_tensor::init;

    fn mlp(rng: &mut Rng) -> Sequential {
        Sequential::new(vec![
            Box::new(Linear::new(3, 5, true, rng)),
            Box::new(Activation::new(ActivationKind::Relu)),
            Box::new(Linear::new(5, 2, true, rng)),
        ])
    }

    #[test]
    fn forward_backward_shapes() {
        let mut rng = Rng::seed(20);
        let mut net = mlp(&mut rng);
        let x = init::uniform(&[4, 3], -1.0, 1.0, &mut rng);
        let y = net.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[4, 2]);
        let dx = net.backward(&Tensor::ones(&[4, 2]));
        assert_eq!(dx.shape(), &[4, 3]);
    }

    #[test]
    fn param_count_and_zero_grad() {
        let mut rng = Rng::seed(21);
        let mut net = mlp(&mut rng);
        // 3*5 + 5 + 5*2 + 2 = 32
        assert_eq!(net.param_count(), 32);
        let x = init::uniform(&[2, 3], -1.0, 1.0, &mut rng);
        let y = net.forward(&x, Mode::Train);
        net.backward(&Tensor::ones(y.shape()));
        let mut nonzero = 0;
        net.visit_params(&mut |p| {
            if p.grad.sq_norm() > 0.0 {
                nonzero += 1;
            }
        });
        assert!(nonzero > 0);
        net.zero_grad();
        net.visit_params(&mut |p| assert_eq!(p.grad.sq_norm(), 0.0));
    }

    #[test]
    fn copy_params_makes_networks_agree() {
        let mut rng = Rng::seed(22);
        let mut a = mlp(&mut rng);
        let mut b = mlp(&mut rng);
        let x = init::uniform(&[2, 3], -1.0, 1.0, &mut rng);
        let ya = a.forward(&x, Mode::Eval);
        let yb0 = b.forward(&x, Mode::Eval);
        assert_ne!(ya.as_slice(), yb0.as_slice());
        b.copy_params_from(&mut a);
        let yb = b.forward(&x, Mode::Eval);
        assert_eq!(ya.as_slice(), yb.as_slice());
    }

    #[test]
    fn output_shape_and_macs() {
        let mut rng = Rng::seed(23);
        let net = mlp(&mut rng);
        assert_eq!(net.output_shape(&[7, 3]), vec![7, 2]);
        assert_eq!(net.mac_count(&[1, 3]), 3 * 5 + 5 * 2);
    }

    #[test]
    fn gemm_core_visitation_finds_both_linears() {
        let mut rng = Rng::seed(24);
        let mut net = mlp(&mut rng);
        let mut labels = Vec::new();
        net.visit_gemm_cores(&mut |c| labels.push(c.label.clone()));
        assert_eq!(labels.len(), 2);
        assert!(labels[0].starts_with("fc(3->5)"));
    }
}
