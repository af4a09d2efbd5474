//! Fully-connected layer, lowered to the same executor GEMM as convolutions.

use crate::layer::{GemmCore, Layer, Mode};
use crate::param::Param;
use axnn_rng::Rng;
use axnn_tensor::{gemm, init, Tensor};

/// A fully-connected (dense) layer `y = x · Wᵀ + b`.
///
/// Weight layout is `[OUT, IN]`; the forward product is computed as
/// `W · xᵀ` through the layer's [`LayerExecutor`](crate::LayerExecutor), so
/// the same quantized/approximate arithmetic used for convolutions applies.
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
    core: GemmCore,
    in_features: usize,
    out_features: usize,
    cache: Option<crate::executor::ExecOutput>,
}

impl Linear {
    /// Creates a dense layer with Kaiming-normal weights.
    pub fn new(in_features: usize, out_features: usize, bias: bool, rng: &mut Rng) -> Self {
        let weight = init::kaiming_normal(&[out_features, in_features], rng);
        let bias = bias.then(|| Tensor::zeros(&[out_features]));
        Self {
            core: GemmCore::new(weight, bias, format!("fc({in_features}->{out_features})")),
            in_features,
            out_features,
            cache: None,
        }
    }

    /// Shared GEMM-layer state (weights, bias, executor).
    pub fn core(&self) -> &GemmCore {
        &self.core
    }

    /// Mutable access to the shared GEMM-layer state.
    pub fn core_mut(&mut self) -> &mut GemmCore {
        &mut self.core
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(input.shape().len(), 2, "Linear expects [N, F] input");
        assert_eq!(input.shape()[1], self.in_features);
        let _span = axnn_obs::span(&self.core.fwd_span);
        let col = input.transpose2(); // [IN, N]
        let exec = self
            .core
            .executor
            .forward(&self.core.weight.value, &col, mode);
        let mut out = exec.y.transpose2(); // [N, OUT]
        if let Some(b) = &self.core.bias {
            out.add_row_bias(&b.value);
        }
        if mode == Mode::Train {
            self.cache = Some(exec);
        } else {
            self.cache = None;
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let exec = self
            .cache
            .take()
            .expect("Linear::backward called without a Train-mode forward");
        let _span = axnn_obs::span(&self.core.bwd_span);
        if let Some(b) = &mut self.core.bias {
            b.accumulate(&grad_out.sum_rows());
        }
        let mut dy = grad_out.transpose2(); // [OUT, N]
        if let Some(scale) = &exec.grad_scale {
            dy = dy.zip_map(scale, |d, s| d * s);
        }
        if axnn_obs::enabled() {
            // Two exact GEMMs (dW and dx) of out·in·n MACs each.
            let n = dy.shape()[1];
            axnn_obs::count(
                axnn_obs::Counter::GemmMacs,
                2 * (self.out_features * self.in_features * n) as u64,
            );
        }
        let dw = exec.weight_grad(&dy); // [OUT, IN]
        self.core.weight.accumulate(&dw);
        let dcol = gemm::matmul_tn(&exec.wmat_eff, &dy); // [IN, N]
        dcol.transpose2()
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.core.weight);
        if let Some(b) = &mut self.core.bias {
            f(b);
        }
    }

    fn visit_gemm_cores(&mut self, f: &mut dyn FnMut(&mut GemmCore)) {
        f(&mut self.core);
    }

    fn describe(&self) -> String {
        self.core.label.clone()
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![input_shape[0], self.out_features]
    }

    fn mac_count(&self, input_shape: &[usize]) -> u64 {
        (input_shape[0] * self.in_features * self.out_features) as u64
    }

    fn lower(&self, builder: &mut crate::GraphBuilder) -> Result<(), crate::Unsupported> {
        let backend = self
            .core
            .executor
            .compile_backend(&self.core.weight.value)
            .ok_or_else(|| {
                crate::Unsupported::new(format!(
                    "executor of {} has no compiled backend",
                    self.core.label
                ))
            })?;
        builder.push_linear(
            &self.core.label,
            self.in_features,
            self.out_features,
            self.core.bias.as_ref().map(|b| b.value.as_slice().to_vec()),
            crate::ActivationKind::Identity,
            backend,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axnn_rng::Rng;

    #[test]
    fn forward_matches_manual_gemm() {
        let mut rng = Rng::seed(5);
        let mut fc = Linear::new(3, 2, true, &mut rng);
        fc.core_mut().bias.as_mut().unwrap().value =
            Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap();
        let x = init::uniform(&[4, 3], -1.0, 1.0, &mut rng);
        let y = fc.forward(&x, Mode::Eval);
        let mut want = gemm::matmul_nt(&x, &fc.core().weight.value);
        want.add_row_bias(&fc.core().bias.as_ref().unwrap().value);
        for (a, b) in y.as_slice().iter().zip(want.as_slice()) {
            assert!((a - b).abs() < 1e-5);
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
