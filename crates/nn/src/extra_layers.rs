//! Additional standard layers: max pooling and (inverted) dropout.
//!
//! Not used by the paper's three models, but part of any credible CNN
//! training stack — downstream users composing their own architectures
//! get the usual toolbox.

use crate::layer::{Layer, Mode};
use axnn_rng::Rng;
use axnn_tensor::Tensor;

/// Non-overlapping `k`×`k` max pool of NCHW `x` into `out`
/// (`[N, C, H/k, W/k]`) — the one kernel behind [`MaxPool2d`] and the
/// compiled graph's pool op. When `argmax` is given it receives the flat
/// input index of each output's maximum (first one on ties), which the
/// layer's backward routes gradients through.
pub(crate) fn max_pool_into(
    x: &Tensor,
    k: usize,
    out: &mut Tensor,
    mut argmax: Option<&mut [usize]>,
) {
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (oh, ow) = (h / k, w / k);
    assert_eq!(out.shape(), &[n, c, oh, ow], "max pool output shape");
    let src = x.as_slice();
    let dst = out.as_mut_slice();
    for ni in 0..n {
        for ci in 0..c {
            let in_base = (ni * c + ci) * h * w;
            let out_base = (ni * c + ci) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best_idx = in_base + (oy * k) * w + ox * k;
                    let mut best = src[best_idx];
                    for ky in 0..k {
                        for kx in 0..k {
                            let idx = in_base + (oy * k + ky) * w + ox * k + kx;
                            if src[idx] > best {
                                best = src[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    dst[out_base + oy * ow + ox] = best;
                    if let Some(a) = argmax.as_deref_mut() {
                        a[out_base + oy * ow + ox] = best_idx;
                    }
                }
            }
        }
    }
}

/// Non-overlapping max pooling with a square window.
///
/// ```
/// use axnn_nn::{Layer, MaxPool2d, Mode};
/// use axnn_tensor::Tensor;
///
/// # fn main() -> Result<(), axnn_tensor::ShapeError> {
/// let mut pool = MaxPool2d::new(2);
/// let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2])?;
/// assert_eq!(pool.forward(&x, Mode::Eval).as_slice(), &[4.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MaxPool2d {
    kernel: usize,
    /// Flat argmax index per output pixel, for backward routing.
    cache: Option<(Vec<usize>, [usize; 4])>,
}

impl MaxPool2d {
    /// Creates a max pool with window and stride `kernel`.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` is zero.
    pub fn new(kernel: usize) -> Self {
        assert!(kernel > 0, "pool kernel must be positive");
        Self {
            kernel,
            cache: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(input.shape().len(), 4, "MaxPool2d expects NCHW");
        let (n, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let k = self.kernel;
        assert!(
            h % k == 0 && w % k == 0,
            "input not divisible by pool kernel"
        );
        let mut out = Tensor::zeros(&[n, c, h / k, w / k]);
        let mut argmax = (mode == Mode::Train).then(|| vec![0usize; out.len()]);
        max_pool_into(input, k, &mut out, argmax.as_deref_mut());
        self.cache = argmax.map(|a| (a, [n, c, h, w]));
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (argmax, [n, c, h, w]) = self
            .cache
            .take()
            .expect("MaxPool2d::backward called without a Train-mode forward");
        let mut dx = Tensor::zeros(&[n, c, h, w]);
        let dst = dx.as_mut_slice();
        for (g, &idx) in grad_out.as_slice().iter().zip(&argmax) {
            dst[idx] += g;
        }
        dx
    }

    fn describe(&self) -> String {
        format!("maxpool{k}x{k}", k = self.kernel)
    }

    fn output_shape(&self, s: &[usize]) -> Vec<usize> {
        vec![s[0], s[1], s[2] / self.kernel, s[3] / self.kernel]
    }

    fn lower(&self, builder: &mut crate::GraphBuilder) -> Result<(), crate::Unsupported> {
        builder.push_max_pool(self.kernel);
        Ok(())
    }
}

/// Inverted dropout: in training, zeroes each activation with probability
/// `p` and scales survivors by `1/(1−p)`; at inference it is the identity.
///
/// The mask RNG is owned and seeded, so training runs stay reproducible.
#[derive(Debug)]
pub struct Dropout {
    p: f32,
    rng: Rng,
    mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p < 1`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "drop probability must be in [0, 1)"
        );
        Self {
            p,
            rng: Rng::seed(seed),
            mask: None,
        }
    }

    /// The drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        if mode != Mode::Train || self.p == 0.0 {
            self.mask = None;
            return input.clone();
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mask = Tensor::from_vec(
            (0..input.len())
                .map(|_| {
                    if self.rng.gen::<f32>() < keep {
                        scale
                    } else {
                        0.0
                    }
                })
                .collect(),
            input.shape(),
        )
        .expect("mask matches input");
        let out = input.zip_map(&mask, |x, m| x * m);
        self.mask = Some(mask);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match self.mask.take() {
            Some(mask) => grad_out.zip_map(&mask, |g, m| g * m),
            None => grad_out.clone(),
        }
    }

    fn describe(&self) -> String {
        format!("dropout(p={})", self.p)
    }

    fn lower(&self, _builder: &mut crate::GraphBuilder) -> Result<(), crate::Unsupported> {
        // Identity at inference: lowers to nothing.
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axnn_tensor::init;

    #[test]
    fn maxpool_selects_maxima_and_routes_gradient() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            vec![
                1.0, 5.0, 2.0, 0.0, 3.0, -1.0, 4.0, 2.0, 0.0, 0.0, 1.0, 1.0, 9.0, 0.0, 1.0, 1.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let y = pool.forward(&x, Mode::Train);
        assert_eq!(y.as_slice(), &[5.0, 4.0, 9.0, 1.0]);
        let dx = pool.backward(&Tensor::ones(&[1, 1, 2, 2]));
        // Gradient lands only on the argmax positions.
        assert_eq!(dx.sum(), 4.0);
        assert_eq!(dx.at(&[0, 0, 0, 1]), 1.0, "the 5.0");
        assert_eq!(dx.at(&[0, 0, 3, 0]), 1.0, "the 9.0");
        assert_eq!(dx.at(&[0, 0, 0, 0]), 0.0);
    }

    #[test]
    fn maxpool_gradcheck() {
        use axnn_rng::Rng;
        let mut rng = Rng::seed(9);
        let mut pool = MaxPool2d::new(2);
        let mut x = init::uniform(&[1, 2, 4, 4], -1.0, 1.0, &mut rng);
        let y0 = pool.forward(&x, Mode::Train);
        let mask = init::uniform(y0.shape(), -1.0, 1.0, &mut rng);
        let dx = pool.backward(&mask);
        let eps = 1e-3;
        for idx in [0usize, 7, 21, 31] {
            let orig = x.as_slice()[idx];
            x.as_mut_slice()[idx] = orig + eps;
            let lp: f32 = pool
                .forward(&x, Mode::Eval)
                .as_slice()
                .iter()
                .zip(mask.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            x.as_mut_slice()[idx] = orig - eps;
            let lm: f32 = pool
                .forward(&x, Mode::Eval)
                .as_slice()
                .iter()
                .zip(mask.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            x.as_mut_slice()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - dx.as_slice()[idx]).abs() < 2e-2,
                "idx {idx}: {numeric} vs {}",
                dx.as_slice()[idx]
            );
        }
    }

    #[test]
    fn dropout_is_identity_at_eval() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::ones(&[4, 4]);
        assert_eq!(d.forward(&x, Mode::Eval), x);
    }

    #[test]
    fn dropout_preserves_expectation_in_train() {
        let mut d = Dropout::new(0.3, 2);
        let x = Tensor::ones(&[100, 100]);
        let y = d.forward(&x, Mode::Train);
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
        // Some units dropped, survivors scaled up.
        assert!(y.as_slice().contains(&0.0));
        assert!(y.as_slice().iter().any(|&v| (v - 1.0 / 0.7).abs() < 1e-5));
    }

    #[test]
    fn dropout_backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::ones(&[8, 8]);
        let y = d.forward(&x, Mode::Train);
        let dx = d.backward(&Tensor::ones(&[8, 8]));
        for (o, g) in y.as_slice().iter().zip(dx.as_slice()) {
            assert_eq!(o, g, "forward and backward masks must match");
        }
    }

    #[test]
    fn zero_probability_dropout_is_identity_everywhere() {
        let mut d = Dropout::new(0.0, 4);
        let x = Tensor::ones(&[3, 3]);
        assert_eq!(d.forward(&x, Mode::Train), x);
        assert_eq!(d.backward(&Tensor::ones(&[3, 3])), Tensor::ones(&[3, 3]));
    }
}
