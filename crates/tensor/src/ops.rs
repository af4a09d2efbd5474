//! Elementwise and scalar arithmetic for [`Tensor`].
//!
//! Binary operators require exactly matching shapes (no broadcasting); the
//! training stack in `axnn-nn` only ever needs same-shape arithmetic plus
//! the explicit bias/channel helpers provided here.

use crate::Tensor;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

macro_rules! binary_op {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for &Tensor {
            type Output = Tensor;

            /// Elementwise operation on same-shape tensors.
            ///
            /// # Panics
            ///
            /// Panics if the shapes differ.
            fn $method(self, rhs: &Tensor) -> Tensor {
                self.zip_map(rhs, |a, b| a $op b)
            }
        }

        impl $trait<f32> for &Tensor {
            type Output = Tensor;

            fn $method(self, rhs: f32) -> Tensor {
                self.map(|a| a $op rhs)
            }
        }
    };
}

binary_op!(Add, add, +);
binary_op!(Sub, sub, -);
binary_op!(Mul, mul, *);
binary_op!(Div, div, /);

impl Neg for &Tensor {
    type Output = Tensor;

    fn neg(self) -> Tensor {
        self.map(|a| -a)
    }
}

impl AddAssign<&Tensor> for Tensor {
    /// In-place elementwise addition.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    fn add_assign(&mut self, rhs: &Tensor) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, &b) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a += b;
        }
    }
}

impl Tensor {
    /// `self += alpha * other`, the classic AXPY update used by SGD.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `alpha` in place.
    pub fn scale(&mut self, alpha: f32) {
        for a in self.as_mut_slice() {
            *a *= alpha;
        }
    }

    /// Adds a per-channel bias to an `[N, C, H, W]` activation tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 4-D or `bias.len() != C`.
    pub fn add_channel_bias(&mut self, bias: &Tensor) {
        assert_eq!(self.shape().len(), 4, "add_channel_bias requires NCHW");
        let (n, c, h, w) = (
            self.shape()[0],
            self.shape()[1],
            self.shape()[2],
            self.shape()[3],
        );
        assert_eq!(bias.len(), c, "bias length must equal channel count");
        let hw = h * w;
        let data = self.as_mut_slice();
        let b = bias.as_slice();
        for img in 0..n {
            for (ch, &bias_ch) in b.iter().enumerate() {
                let base = (img * c + ch) * hw;
                for px in &mut data[base..base + hw] {
                    *px += bias_ch;
                }
            }
        }
    }

    /// Sums an `[N, C, H, W]` tensor over `N`, `H` and `W`, producing the
    /// per-channel totals — the bias-gradient reduction for conv layers.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 4-D.
    pub fn sum_channels(&self) -> Tensor {
        assert_eq!(self.shape().len(), 4, "sum_channels requires NCHW");
        let (n, c, h, w) = (
            self.shape()[0],
            self.shape()[1],
            self.shape()[2],
            self.shape()[3],
        );
        let hw = h * w;
        let mut out = Tensor::zeros(&[c]);
        let o = out.as_mut_slice();
        let data = self.as_slice();
        for img in 0..n {
            for (ch, acc) in o.iter_mut().enumerate() {
                let base = (img * c + ch) * hw;
                *acc += data[base..base + hw].iter().sum::<f32>();
            }
        }
        out
    }

    /// Squared L2 norm of the tensor.
    pub fn sq_norm(&self) -> f32 {
        self.as_slice().iter().map(|&x| x * x).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), &[v.len()]).unwrap()
    }

    #[test]
    fn elementwise_ops() {
        let a = t(&[1.0, 2.0]);
        let b = t(&[3.0, 5.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((&a * &b).as_slice(), &[3.0, 10.0]);
        assert_eq!((&b / &a).as_slice(), &[3.0, 2.5]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
    }

    #[test]
    fn scalar_ops() {
        let a = t(&[1.0, 2.0]);
        assert_eq!((&a + 1.0).as_slice(), &[2.0, 3.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = t(&[1.0, 2.0]);
        a.axpy(0.5, &t(&[2.0, 4.0]));
        assert_eq!(a.as_slice(), &[2.0, 4.0]);
        a.scale(0.25);
        assert_eq!(a.as_slice(), &[0.5, 1.0]);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = t(&[1.0, 1.0]);
        a += &t(&[2.0, 3.0]);
        assert_eq!(a.as_slice(), &[3.0, 4.0]);
    }

    #[test]
    fn channel_bias_round_trip() {
        let mut x = Tensor::zeros(&[2, 3, 2, 2]);
        let bias = t(&[1.0, 2.0, 3.0]);
        x.add_channel_bias(&bias);
        // Each channel plane of 4 pixels across 2 images.
        let sums = x.sum_channels();
        assert_eq!(sums.as_slice(), &[8.0, 16.0, 24.0]);
    }

    #[test]
    fn sq_norm() {
        assert_eq!(t(&[3.0, 4.0]).sq_norm(), 25.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mismatched_shapes_panic() {
        let a = t(&[1.0, 2.0]);
        let b = Tensor::zeros(&[3]);
        let _ = &a + &b;
    }
}
