//! Fully-connected layer: a 1×1 convolution over `[N, F, 1, 1]`.

use crate::conv::Conv2d;
use crate::layer::{GemmCore, Layer, Mode};
use crate::param::Param;
use axnn_rng::Rng;
use axnn_tensor::{init, Tensor};

/// A fully-connected (dense) layer `y = x · Wᵀ + b`.
///
/// Weight layout is `[OUT, IN]`. The layer is a 1×1, stride-1, unpadded
/// [`Conv2d`](crate::Conv2d) over its `[N, IN]` input read as
/// `[N, IN, 1, 1]`: the same lowering, [`LayerExecutor`](crate::LayerExecutor)
/// product and backward as every conv, so the quantized/approximate
/// arithmetic applies unchanged, and it compiles to the graph's conv op.
///
/// # Example
///
/// ```
/// use axnn_nn::{Layer, Linear, Mode};
/// use axnn_tensor::Tensor;
/// use axnn_rng::Rng;
///
/// let mut rng = Rng::seed(0);
/// let mut fc = Linear::new(8, 3, true, &mut rng);
/// let y = fc.forward(&Tensor::ones(&[4, 8]), Mode::Eval);
/// assert_eq!(y.shape(), &[4, 3]);
/// ```
#[derive(Debug)]
pub struct Linear {
    conv: Conv2d,
    in_features: usize,
    out_features: usize,
}

impl Linear {
    /// Creates a dense layer with Kaiming-normal weights.
    pub fn new(in_features: usize, out_features: usize, bias: bool, rng: &mut Rng) -> Self {
        let weight = init::kaiming_normal(&[out_features, in_features], rng);
        let bias = bias.then(|| Tensor::zeros(&[out_features]));
        let label = format!("fc({in_features}->{out_features})");
        Self {
            conv: Conv2d::fc(GemmCore::new(weight, bias, label)),
            in_features,
            out_features,
        }
    }

    /// Shared GEMM-layer state (weights, bias, executor).
    pub fn core(&self) -> &GemmCore {
        self.conv.core()
    }

    /// Mutable access to the shared GEMM-layer state.
    pub fn core_mut(&mut self) -> &mut GemmCore {
        self.conv.core_mut()
    }
}

/// `t`'s data under `shape`: `[N, F]` and `[N, F, 1, 1]` share a layout.
fn reshaped(t: Tensor, shape: &[usize]) -> Tensor {
    Tensor::from_vec(t.into_vec(), shape).expect("same element count")
}

/// The `[N, F, 1, 1]` conv operand of a `[N, F]` tensor.
fn nchw(t: &Tensor) -> Tensor {
    reshaped(t.clone(), &[t.shape()[0], t.shape()[1], 1, 1])
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let n = input.shape()[0];
        assert_eq!(
            input.shape(),
            &[n, self.in_features],
            "Linear expects [N, F] input"
        );
        let y = self.conv.forward(&nchw(input), mode);
        reshaped(y, &[n, self.out_features])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let dx = self.conv.backward(&nchw(grad_out));
        reshaped(dx, &[grad_out.shape()[0], self.in_features])
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        self.conv.backward_params(&nchw(grad_out));
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv.visit_params(f);
    }

    fn visit_gemm_cores(&mut self, f: &mut dyn FnMut(&mut GemmCore)) {
        self.conv.visit_gemm_cores(f);
    }

    fn describe(&self) -> String {
        self.conv.describe()
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![input_shape[0], self.out_features]
    }

    fn mac_count(&self, input_shape: &[usize]) -> u64 {
        (input_shape[0] * self.in_features * self.out_features) as u64
    }

    fn lower(&self, builder: &mut crate::GraphBuilder) -> Result<(), crate::Unsupported> {
        self.conv.lower(builder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axnn_rng::Rng;
    use axnn_tensor::gemm;

    #[test]
    fn forward_matches_manual_gemm() {
        let mut rng = Rng::seed(5);
        let mut fc = Linear::new(3, 2, true, &mut rng);
        fc.core_mut().bias.as_mut().unwrap().value =
            Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap();
        let x = init::uniform(&[4, 3], -1.0, 1.0, &mut rng);
        let y = fc.forward(&x, Mode::Eval);
        let want = gemm::matmul_nt(&x, &fc.core().weight.value);
        for (i, (a, b)) in y.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert!((a - (b + [0.5, -0.5][i % 2])).abs() < 1e-5);
        }
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = Rng::seed(6);
        let mut fc = Linear::new(4, 3, true, &mut rng);
        let mut x = init::uniform(&[2, 4], -1.0, 1.0, &mut rng);
        let y0 = fc.forward(&x, Mode::Train);
        let mask = init::uniform(y0.shape(), -1.0, 1.0, &mut rng);
        let dx = fc.backward(&mask);
        let dw = fc.core().weight.grad.clone();
        let db = fc.core().bias.as_ref().unwrap().grad.clone();

        let loss = |fc: &mut Linear, x: &Tensor, mask: &Tensor| -> f32 {
            fc.forward(x, Mode::Eval)
                .as_slice()
                .iter()
                .zip(mask.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        let eps = 1e-3;

        // Weight gradient.
        for idx in [0usize, 5, 11] {
            let orig = fc.core().weight.value.as_slice()[idx];
            fc.core_mut().weight.value.as_mut_slice()[idx] = orig + eps;
            let lp = loss(&mut fc, &x, &mask);
            fc.core_mut().weight.value.as_mut_slice()[idx] = orig - eps;
            let lm = loss(&mut fc, &x, &mask);
            fc.core_mut().weight.value.as_mut_slice()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((numeric - dw.as_slice()[idx]).abs() < 1e-2);
        }
        // Bias gradient.
        for idx in 0..3 {
            let orig = fc.core().bias.as_ref().unwrap().value.as_slice()[idx];
            fc.core_mut().bias.as_mut().unwrap().value.as_mut_slice()[idx] = orig + eps;
            let lp = loss(&mut fc, &x, &mask);
            fc.core_mut().bias.as_mut().unwrap().value.as_mut_slice()[idx] = orig - eps;
            let lm = loss(&mut fc, &x, &mask);
            fc.core_mut().bias.as_mut().unwrap().value.as_mut_slice()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((numeric - db.as_slice()[idx]).abs() < 1e-2);
        }
        // Input gradient.
        for idx in [0usize, 7] {
            let orig = x.as_slice()[idx];
            x.as_mut_slice()[idx] = orig + eps;
            let lp = loss(&mut fc, &x, &mask);
            x.as_mut_slice()[idx] = orig - eps;
            let lm = loss(&mut fc, &x, &mask);
            x.as_mut_slice()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((numeric - dx.as_slice()[idx]).abs() < 1e-2);
        }
    }

    #[test]
    fn mac_count() {
        let fc = Linear::new(64, 10, false, &mut Rng::seed(1));
        assert_eq!(fc.mac_count(&[128, 64]), 128 * 64 * 10);
    }
}
