//! Activation functions as layers.

use crate::layer::{Layer, Mode};
use axnn_tensor::Tensor;

/// The activation nonlinearities used by the evaluated models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivationKind {
    /// `max(0, x)` — ResNets.
    Relu,
    /// `min(max(0, x), 6)` — MobileNetV2.
    Relu6,
    /// No-op (used by linear-bottleneck projections).
    Identity,
}

impl ActivationKind {
    /// Applies the activation to one value.
    pub fn apply(self, x: f32) -> f32 {
        match self {
            ActivationKind::Relu => x.max(0.0),
            ActivationKind::Relu6 => x.clamp(0.0, 6.0),
            ActivationKind::Identity => x,
        }
    }

    /// Applies the activation elementwise from `x` into the same-shape
    /// `out` — the one kernel behind [`Activation`] and the compiled
    /// graph's standalone activation op.
    pub(crate) fn apply_into(self, x: &Tensor, out: &mut Tensor) {
        assert_eq!(x.shape(), out.shape(), "activation output shape");
        for (d, &v) in out.as_mut_slice().iter_mut().zip(x.as_slice()) {
            *d = self.apply(v);
        }
    }

    /// Derivative of the activation at input `x`.
    pub fn derivative(self, x: f32) -> f32 {
        match self {
            ActivationKind::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActivationKind::Relu6 => {
                if x > 0.0 && x < 6.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActivationKind::Identity => 1.0,
        }
    }
}

/// An elementwise activation layer.
///
/// ```
/// use axnn_nn::{Activation, ActivationKind, Layer, Mode};
/// use axnn_tensor::Tensor;
///
/// let mut relu = Activation::new(ActivationKind::Relu);
/// let x = Tensor::from_vec(vec![-1.0, 2.0], &[2]).expect("shape ok");
/// assert_eq!(relu.forward(&x, Mode::Eval).as_slice(), &[0.0, 2.0]);
/// ```
#[derive(Debug)]
pub struct Activation {
    kind: ActivationKind,
    cache: Option<Tensor>,
}

impl Activation {
    /// Creates an activation layer of the given kind.
    pub fn new(kind: ActivationKind) -> Self {
        Self { kind, cache: None }
    }

    /// The activation kind.
    pub fn kind(&self) -> ActivationKind {
        self.kind
    }
}

impl Layer for Activation {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let mut out = Tensor::zeros(input.shape());
        self.kind.apply_into(input, &mut out);
        self.cache = (mode == Mode::Train).then(|| input.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cache
            .take()
            .expect("Activation::backward called without a Train-mode forward");
        grad_out.zip_map(&input, |g, x| g * self.kind.derivative(x))
    }

    fn describe(&self) -> String {
        match self.kind {
            ActivationKind::Relu => "relu".into(),
            ActivationKind::Relu6 => "relu6".into(),
            ActivationKind::Identity => "identity".into(),
        }
    }

    fn lower(&self, builder: &mut crate::GraphBuilder) -> Result<(), crate::Unsupported> {
        builder.push_activation(self.kind);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu6_clamps_both_sides() {
        let mut a = Activation::new(ActivationKind::Relu6);
        let x = Tensor::from_vec(vec![-2.0, 3.0, 9.0], &[3]).unwrap();
        assert_eq!(a.forward(&x, Mode::Eval).as_slice(), &[0.0, 3.0, 6.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut a = Activation::new(ActivationKind::Relu);
        let x = Tensor::from_vec(vec![-1.0, 1.0], &[2]).unwrap();
        a.forward(&x, Mode::Train);
        let dx = a.backward(&Tensor::ones(&[2]));
        assert_eq!(dx.as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn relu6_backward_masks_saturation() {
        let mut a = Activation::new(ActivationKind::Relu6);
        let x = Tensor::from_vec(vec![-1.0, 3.0, 7.0], &[3]).unwrap();
        a.forward(&x, Mode::Train);
        let dx = a.backward(&Tensor::ones(&[3]));
        assert_eq!(dx.as_slice(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn identity_passes_through() {
        let mut a = Activation::new(ActivationKind::Identity);
        let x = Tensor::from_vec(vec![-1.0, 5.0], &[2]).unwrap();
        assert_eq!(a.forward(&x, Mode::Train).as_slice(), x.as_slice());
        assert_eq!(a.backward(&Tensor::ones(&[2])).as_slice(), &[1.0, 1.0]);
    }
}
