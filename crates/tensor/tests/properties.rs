//! Property-based tests for the tensor substrate.

use axnn_rng::{cases, Rng};
use axnn_tensor::im2col::{
    col2im, gemm_out_to_nchw, gemm_out_to_nchw_into, im2col, im2col_into, im2col_slice_into,
    nchw_to_gemm_out, ConvGeometry,
};
use axnn_tensor::{gemm, Tensor};

/// A random 1..=4 x 1..=4 matrix with entries in `[-100, 100)`.
fn rand_matrix(rng: &mut Rng) -> Tensor {
    let (r, c) = (rng.gen_range(1..=4), rng.gen_range(1..=4));
    let data = (0..r * c).map(|_| rng.gen_range(-100.0..100.0)).collect();
    Tensor::from_vec(data, &[r, c]).expect("length matches")
}

#[test]
fn matmul_identity_left() {
    cases(256, |mut rng| {
        let t = rand_matrix(&mut rng);
        let i = Tensor::eye(t.shape()[0]);
        let got = gemm::matmul(&i, &t);
        assert_eq!(got, t);
    });
}

#[test]
fn matmul_distributes_over_addition() {
    cases(256, |mut rng| {
        let a = rand_matrix(&mut rng);
        let k = a.shape()[1];
        let b = axnn_tensor::init::uniform(&[k, 3], -1.0, 1.0, &mut rng);
        let c = axnn_tensor::init::uniform(&[k, 3], -1.0, 1.0, &mut rng);
        let lhs = gemm::matmul(&a, &(&b + &c));
        let rhs = &gemm::matmul(&a, &b) + &gemm::matmul(&a, &c);
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            assert!((x - y).abs() < 1e-2, "{} vs {}", x, y);
        }
    });
}

#[test]
fn transpose_is_involutive() {
    cases(256, |mut rng| {
        let t = rand_matrix(&mut rng);
        assert_eq!(t.transpose2().transpose2(), t);
    });
}

#[test]
fn matmul_tn_nt_consistent() {
    cases(256, |mut rng| {
        let m = rng.gen_range(1usize..5);
        let k = rng.gen_range(1usize..5);
        let n = rng.gen_range(1usize..5);
        let a = axnn_tensor::init::uniform(&[k, m], -2.0, 2.0, &mut rng);
        let b = axnn_tensor::init::uniform(&[k, n], -2.0, 2.0, &mut rng);
        let tn = gemm::matmul_tn(&a, &b);
        let explicit = gemm::matmul(&a.transpose2(), &b);
        assert_eq!(tn, explicit);

        let c = axnn_tensor::init::uniform(&[m, k], -2.0, 2.0, &mut rng);
        let d = axnn_tensor::init::uniform(&[n, k], -2.0, 2.0, &mut rng);
        let nt = gemm::matmul_nt(&c, &d);
        let explicit = gemm::matmul(&c, &d.transpose2());
        assert_eq!(nt, explicit);
    });
}

#[test]
fn gemm_layout_round_trip() {
    cases(256, |mut rng| {
        let n = rng.gen_range(1usize..3);
        let c = rng.gen_range(1usize..4);
        let h = rng.gen_range(1usize..4);
        let w = rng.gen_range(1usize..4);
        let t = axnn_tensor::init::uniform(&[n, c, h, w], -1.0, 1.0, &mut rng);
        let mat = nchw_to_gemm_out(&t);
        assert_eq!(gemm_out_to_nchw(&mat, n, c, h, w), t);
        // Two groups' row blocks, each written at its channel offset.
        let c0 = rng.gen_range(0..=c);
        let mut back = Tensor::from_vec(vec![f32::NAN; t.len()], t.shape()).unwrap();
        for rows in [0..c0, c0..c] {
            let block = mat.slice_outer(rows.start, rows.end);
            let out = &mut back.as_mut_slice()[rows.start * h * w..];
            gemm_out_to_nchw_into(&block, n, c, h, w, out);
        }
        assert_eq!(back, t);
    });
}

/// col2im is the adjoint of im2col: <im2col(x), y> == <x, col2im(y)>.
/// This is exactly the property the conv backward pass relies on.
#[test]
fn col2im_is_adjoint_of_im2col() {
    cases(256, |mut rng| {
        let k = rng.gen_range(1usize..4);
        let pad = rng.gen_range(0usize..2);
        let geom = ConvGeometry::new(k, 1, pad);
        let shape = [1usize, 2, 5, 5];
        let x = axnn_tensor::init::uniform(&shape, -1.0, 1.0, &mut rng);
        let cx = im2col(&x, geom);
        let y = axnn_tensor::init::uniform(cx.shape(), -1.0, 1.0, &mut rng);
        let lhs: f32 = cx
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let ciy = col2im(&y, &shape, geom);
        let rhs: f32 = x
            .as_slice()
            .iter()
            .zip(ciy.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        assert!(
            (lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()),
            "{} vs {}",
            lhs,
            rhs
        );
    });
}

/// The scalar lowering loop nests the span kernels replaced, kept as their
/// oracle: one padding test per element, serial.
mod oracle {
    use axnn_tensor::im2col::ConvGeometry;

    /// Padded input index of output index `o` at tap `t`, if inside `len`.
    fn at(o: usize, t: usize, g: ConvGeometry, len: usize) -> Option<usize> {
        let i = (o * g.stride + t) as isize - g.pad as isize;
        (i >= 0 && (i as usize) < len).then_some(i as usize)
    }

    pub fn im2col(src: &[f32], [n, c, h, w]: [usize; 4], g: ConvGeometry) -> Vec<f32> {
        let (k, oh, ow) = (g.kernel, g.out_dim(h), g.out_dim(w));
        let cols = n * oh * ow;
        let mut out = vec![0.0; c * k * k * cols];
        for row in 0..c * k * k {
            let (ci, kh, kw) = (row / (k * k), (row / k) % k, row % k);
            for ni in 0..n {
                for ohi in 0..oh {
                    for owi in 0..ow {
                        if let (Some(ih), Some(iw)) = (at(ohi, kh, g, h), at(owi, kw, g, w)) {
                            out[row * cols + (ni * oh + ohi) * ow + owi] =
                                src[((ni * c + ci) * h + ih) * w + iw];
                        }
                    }
                }
            }
        }
        out
    }

    pub fn col2im(src: &[f32], [n, c, h, w]: [usize; 4], g: ConvGeometry) -> Vec<f32> {
        let (k, oh, ow) = (g.kernel, g.out_dim(h), g.out_dim(w));
        let cols = n * oh * ow;
        let mut out = vec![0.0; n * c * h * w];
        for ni in 0..n {
            for ci in 0..c {
                for kh in 0..k {
                    for kw in 0..k {
                        let row = (ci * k + kh) * k + kw;
                        for ohi in 0..oh {
                            for owi in 0..ow {
                                if let (Some(ih), Some(iw)) = (at(ohi, kh, g, h), at(owi, kw, g, w))
                                {
                                    out[((ni * c + ci) * h + ih) * w + iw] +=
                                        src[row * cols + (ni * oh + ohi) * ow + owi];
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `im2col_into` and `col2im` against the scalar oracle, bit for bit:
/// kernels 1–5, strides 1–3, padding up to the kernel size, inputs
/// narrower than the kernel, a stale (NaN-filled) column buffer, and 1
/// thread against several.
#[test]
fn lowering_matches_the_scalar_oracle() {
    cases(256, |mut rng| {
        let k = rng.gen_range(1usize..=5);
        let geom = ConvGeometry::new(k, rng.gen_range(1..=3), rng.gen_range(0..=k));
        // As small as the padded input allows: down to 1 pixel.
        let least = k.saturating_sub(2 * geom.pad).max(1);
        let (h, w) = (
            rng.gen_range(least..least + 8),
            rng.gen_range(least..least + 8),
        );
        let shape = [rng.gen_range(1..=3), rng.gen_range(1..=3), h, w];
        let x = axnn_tensor::init::uniform(&shape, -1.0, 1.0, &mut rng);
        let want_col = oracle::im2col(x.as_slice(), shape, geom);
        let col_shape = [shape[1] * k * k, want_col.len() / (shape[1] * k * k)];
        let dcol = axnn_tensor::init::uniform(&col_shape, -1.0, 1.0, &mut rng);
        let want_img = oracle::col2im(dcol.as_slice(), shape, geom);
        for threads in [1, rng.gen_range(2..=4)] {
            axnn_par::set_threads(threads);
            let mut col = Tensor::from_vec(vec![f32::NAN; want_col.len()], &col_shape).unwrap();
            im2col_into(&x, geom, &mut col);
            assert_eq!(
                bits(col.as_slice()),
                bits(&want_col),
                "im2col {shape:?} {geom:?}"
            );
            let img = col2im(&dcol, &shape, geom);
            assert_eq!(
                bits(img.as_slice()),
                bits(&want_img),
                "col2im {shape:?} {geom:?}"
            );
        }
        axnn_par::set_threads(0);
    });
}

/// The `u8` lowering the 8A4W executor runs on its LUT offsets, padding
/// with offset 128 (code 0), against the scalar oracle over the codes.
#[test]
fn offset_lowering_matches_the_scalar_oracle() {
    cases(128, |mut rng| {
        let k = rng.gen_range(1usize..=5);
        let geom = ConvGeometry::new(k, rng.gen_range(1..=3), rng.gen_range(0..=k));
        let least = k.saturating_sub(2 * geom.pad).max(1);
        let (h, w) = (
            rng.gen_range(least..least + 8),
            rng.gen_range(least..least + 8),
        );
        let shape = [rng.gen_range(1..=3), rng.gen_range(1..=4), h, w];
        let offsets: Vec<u8> = (0..shape.iter().product::<usize>())
            .map(|_| rng.gen_range(0u32..256) as u8)
            .collect();
        // One conv group's channels, read in place.
        let c0 = rng.gen_range(0..shape[1]);
        let channels = c0..rng.gen_range(c0 + 1..=shape[1]);
        let group = [shape[0], channels.len(), h, w];
        let codes: Vec<f32> = offsets
            .chunks_exact(h * w)
            .enumerate()
            .filter(|(i, _)| channels.contains(&(i % shape[1])))
            .flat_map(|(_, img)| img.iter().map(|&o| f32::from(o) - 128.0))
            .collect();
        let want: Vec<u8> = oracle::im2col(&codes, group, geom)
            .iter()
            .map(|&c| (c + 128.0) as u8)
            .collect();
        let mut got = vec![7u8; want.len()];
        im2col_slice_into(&offsets, shape, channels.clone(), geom, 128, &mut got);
        assert_eq!(got, want, "{shape:?} {channels:?} {geom:?}");
    });
}

#[test]
fn stack_then_slice_outer_round_trip() {
    cases(256, |mut rng| {
        let parts = rng.gen_range(1usize..5);
        let inner = rng.gen_range(1usize..6);
        let tensors: Vec<Tensor> = (0..parts)
            .map(|_| axnn_tensor::init::uniform(&[inner], -1.0, 1.0, &mut rng))
            .collect();
        let stacked = Tensor::stack(&tensors).expect("same shapes");
        for (i, t) in tensors.iter().enumerate() {
            let s = stacked.slice_outer(i, i + 1);
            assert_eq!(s.as_slice(), t.as_slice());
        }
    });
}
