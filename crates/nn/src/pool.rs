//! Pooling and reshape layers.

use crate::layer::{Layer, Mode};
use axnn_tensor::Tensor;

/// Non-overlapping `k`×`k` average pool of NCHW `x` into `out`
/// (`[N, C, H/k, W/k]`) — the one kernel behind [`AvgPool2d`] and the
/// compiled graph's pool op.
pub(crate) fn avg_pool_into(x: &Tensor, k: usize, out: &mut Tensor) {
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (oh, ow) = (h / k, w / k);
    assert_eq!(out.shape(), &[n, c, oh, ow], "avg pool output shape");
    let src = x.as_slice();
    let dst = out.as_mut_slice();
    let inv = 1.0 / (k * k) as f32;
    for ni in 0..n {
        for ci in 0..c {
            let in_base = (ni * c + ci) * h * w;
            let out_base = (ni * c + ci) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0;
                    for ky in 0..k {
                        for kx in 0..k {
                            acc += src[in_base + (oy * k + ky) * w + ox * k + kx];
                        }
                    }
                    dst[out_base + oy * ow + ox] = acc * inv;
                }
            }
        }
    }
}

/// Global average pool of NCHW `x` into `out` (`[N, C]`).
pub(crate) fn global_avg_pool_into(x: &Tensor, out: &mut Tensor) {
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    assert_eq!(out.shape(), &[n, c], "global pool output shape");
    let hw = (h * w) as f32;
    let src = x.as_slice();
    let dst = out.as_mut_slice();
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            dst[ni * c + ci] = src[base..base + h * w].iter().sum::<f32>() / hw;
        }
    }
}

/// Flattens `x` into `out` (`[N, prod]`, same element count).
pub(crate) fn flatten_into(x: &Tensor, out: &mut Tensor) {
    out.as_mut_slice().copy_from_slice(x.as_slice());
}

/// Non-overlapping average pooling with a square window.
///
/// ```
/// use axnn_nn::{AvgPool2d, Layer, Mode};
/// use axnn_tensor::Tensor;
///
/// let mut pool = AvgPool2d::new(2);
/// let y = pool.forward(&Tensor::ones(&[1, 1, 4, 4]), Mode::Eval);
/// assert_eq!(y.shape(), &[1, 1, 2, 2]);
/// ```
#[derive(Debug)]
pub struct AvgPool2d {
    kernel: usize,
    cache_shape: Option<[usize; 4]>,
}

impl AvgPool2d {
    /// Creates an average pool with window and stride `kernel`.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` is zero.
    pub fn new(kernel: usize) -> Self {
        assert!(kernel > 0, "pool kernel must be positive");
        Self {
            kernel,
            cache_shape: None,
        }
    }
}

impl Layer for AvgPool2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(input.shape().len(), 4, "AvgPool2d expects NCHW");
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
        avg_pool_into(input, k, &mut out);
        self.cache_shape = (mode == Mode::Train).then_some([n, c, h, w]);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let [n, c, h, w] = self
            .cache_shape
            .take()
            .expect("AvgPool2d::backward called without a Train-mode forward");
        let k = self.kernel;
        let (oh, ow) = (h / k, w / k);
        let mut dx = Tensor::zeros(&[n, c, h, w]);
        let src = grad_out.as_slice();
        let dst = dx.as_mut_slice();
        let inv = 1.0 / (k * k) as f32;
        for ni in 0..n {
            for ci in 0..c {
                let in_base = (ni * c + ci) * h * w;
                let out_base = (ni * c + ci) * oh * ow;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = src[out_base + oy * ow + ox] * inv;
                        for ky in 0..k {
                            for kx in 0..k {
                                dst[in_base + (oy * k + ky) * w + ox * k + kx] += g;
                            }
                        }
                    }
                }
            }
        }
        dx
    }

    fn describe(&self) -> String {
        format!("avgpool{k}x{k}", k = self.kernel)
    }

    fn output_shape(&self, s: &[usize]) -> Vec<usize> {
        vec![s[0], s[1], s[2] / self.kernel, s[3] / self.kernel]
    }

    fn lower(&self, builder: &mut crate::GraphBuilder) -> Result<(), crate::Unsupported> {
        builder.push_avg_pool(self.kernel);
        Ok(())
    }
}

/// Global average pooling: `[N, C, H, W] -> [N, C]`.
#[derive(Debug, Default)]
pub struct GlobalAvgPool {
    cache_shape: Option<[usize; 4]>,
}

impl GlobalAvgPool {
    /// Creates the layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(input.shape().len(), 4, "GlobalAvgPool expects NCHW");
        let (n, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let mut out = Tensor::zeros(&[n, c]);
        global_avg_pool_into(input, &mut out);
        self.cache_shape = (mode == Mode::Train).then_some([n, c, h, w]);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let [n, c, h, w] = self
            .cache_shape
            .take()
            .expect("GlobalAvgPool::backward called without a Train-mode forward");
        let inv = 1.0 / (h * w) as f32;
        let mut dx = Tensor::zeros(&[n, c, h, w]);
        let dst = dx.as_mut_slice();
        let src = grad_out.as_slice();
        for ni in 0..n {
            for ci in 0..c {
                let g = src[ni * c + ci] * inv;
                let base = (ni * c + ci) * h * w;
                for v in &mut dst[base..base + h * w] {
                    *v = g;
                }
            }
        }
        dx
    }

    fn describe(&self) -> String {
        "global_avgpool".into()
    }

    fn output_shape(&self, s: &[usize]) -> Vec<usize> {
        vec![s[0], s[1]]
    }

    fn lower(&self, builder: &mut crate::GraphBuilder) -> Result<(), crate::Unsupported> {
        builder.push_global_avg_pool();
        Ok(())
    }
}

/// Flattens `[N, ...]` to `[N, prod(...)]`.
#[derive(Debug, Default)]
pub struct Flatten {
    cache_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates the layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let mut out = Tensor::zeros(&self.output_shape(input.shape()));
        flatten_into(input, &mut out);
        self.cache_shape = (mode == Mode::Train).then(|| input.shape().to_vec());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self
            .cache_shape
            .take()
            .expect("Flatten::backward called without a Train-mode forward");
        grad_out.reshape(&shape).expect("same element count")
    }

    fn describe(&self) -> String {
        "flatten".into()
    }

    fn output_shape(&self, s: &[usize]) -> Vec<usize> {
        vec![s[0], s[1..].iter().product()]
    }

    fn lower(&self, builder: &mut crate::GraphBuilder) -> Result<(), crate::Unsupported> {
        builder.push_flatten();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_pool_averages() {
        let mut pool = AvgPool2d::new(2);
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let y = pool.forward(&x, Mode::Train);
        assert_eq!(y.as_slice(), &[3.5, 5.5, 11.5, 13.5]);
        let dx = pool.backward(&Tensor::ones(&[1, 1, 2, 2]));
        assert!(dx.as_slice().iter().all(|&v| (v - 0.25).abs() < 1e-7));
    }

    #[test]
    fn global_pool_and_backward() {
        let mut pool = GlobalAvgPool::new();
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[1, 1, 2, 2]).unwrap();
        let y = pool.forward(&x, Mode::Train);
        assert_eq!(y.as_slice(), &[4.0]);
        let dx = pool.backward(&Tensor::from_vec(vec![8.0], &[1, 1]).unwrap());
        assert!(dx.as_slice().iter().all(|&v| (v - 2.0).abs() < 1e-7));
    }

    #[test]
    fn flatten_round_trip() {
        let mut fl = Flatten::new();
        let x = Tensor::ones(&[2, 3, 2, 2]);
        let y = fl.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[2, 12]);
        let dx = fl.backward(&y);
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn pool_rejects_indivisible_input() {
        let mut pool = AvgPool2d::new(2);
        pool.forward(&Tensor::ones(&[1, 1, 3, 3]), Mode::Eval);
    }
}
