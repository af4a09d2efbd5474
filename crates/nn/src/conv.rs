//! 2-D convolution (with grouped/depthwise support), lowered to GEMM.

use crate::executor::ExecOutput;
use crate::layer::{GemmCore, Layer, Mode};
use crate::param::Param;
use axnn_rng::Rng;
use axnn_tensor::im2col::{col2im, gemm_out_to_nchw_into, nchw_to_gemm_out, ConvGeometry};
use axnn_tensor::{gemm, init, Tensor};

/// Per-group cache kept between forward and backward.
#[derive(Debug)]
struct GroupCache {
    exec: ExecOutput,
}

/// Reusable buffers kept across forward/backward calls so the interpreter
/// path does not reallocate its largest intermediates on every batch. Each
/// buffer is shape-checked on reuse and rebuilt when the batch shape changes.
#[derive(Debug, Default)]
struct ConvScratch {
    /// im2col column matrix `[K/g, M]`, shared by all groups of one call;
    /// allocated only by executors that lower `f32` columns (see
    /// [`LayerExecutor::forward_conv`](crate::LayerExecutor::forward_conv)).
    col: Option<Tensor>,
    /// Assembled weight gradient (weight shape) in backward.
    dw: Option<Tensor>,
}

/// Takes the cached buffer when its shape still matches, else allocates.
fn scratch_buf(slot: &mut Option<Tensor>, shape: &[usize]) -> Tensor {
    match slot.take() {
        Some(t) if t.shape() == shape => t,
        _ => Tensor::zeros(shape),
    }
}

/// A 2-D convolution layer computed as `W_mat · im2col(x)` through the
/// layer's [`LayerExecutor`](crate::LayerExecutor).
///
/// Supports grouped convolution (`groups > 1`), including the depthwise case
/// `groups == in_channels` used by MobileNetV2. Weight layout is
/// `[OC, C/groups, K, K]`.
///
/// # Example
///
/// ```
/// use axnn_nn::{Conv2d, Layer, Mode};
/// use axnn_tensor::Tensor;
/// use axnn_rng::Rng;
///
/// let mut rng = Rng::seed(0);
/// let mut conv = Conv2d::new(3, 8, 3, 1, 1, 1, true, &mut rng);
/// let x = Tensor::ones(&[2, 3, 8, 8]);
/// let y = conv.forward(&x, Mode::Eval);
/// assert_eq!(y.shape(), &[2, 8, 8, 8]);
/// ```
#[derive(Debug)]
pub struct Conv2d {
    core: GemmCore,
    in_channels: usize,
    out_channels: usize,
    geom: ConvGeometry,
    groups: usize,
    /// A `Linear`'s conv: lowers to a conv op over `[N, F]` inputs.
    flat: bool,
    cache: Option<ConvCache>,
    scratch: ConvScratch,
}

#[derive(Debug)]
struct ConvCache {
    input_shape: [usize; 4],
    groups: Vec<GroupCache>,
    out_hw: (usize, usize),
}

impl Conv2d {
    /// Creates a convolution with Kaiming-normal weights.
    ///
    /// # Panics
    ///
    /// Panics if `in_channels` or `out_channels` is not divisible by
    /// `groups`, or if `kernel`/`stride` is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        groups: usize,
        bias: bool,
        rng: &mut Rng,
    ) -> Self {
        assert!(groups > 0, "groups must be positive");
        assert_eq!(in_channels % groups, 0, "in_channels % groups != 0");
        assert_eq!(out_channels % groups, 0, "out_channels % groups != 0");
        let geom = ConvGeometry::new(kernel, stride, pad);
        let weight =
            init::kaiming_normal(&[out_channels, in_channels / groups, kernel, kernel], rng);
        let bias = bias.then(|| Tensor::zeros(&[out_channels]));
        let label = format!(
            "conv{k}x{k}({in_channels}->{out_channels})/s{s}g{groups}",
            k = kernel,
            s = stride
        );
        Self {
            core: GemmCore::new(weight, bias, label),
            in_channels,
            out_channels,
            geom,
            groups,
            flat: false,
            cache: None,
            scratch: ConvScratch::default(),
        }
    }

    /// The 1×1, stride-1, unpadded conv a [`Linear`](crate::Linear) runs
    /// over `core`'s `[OUT, IN]` weights: the conv body reads any weight as
    /// its `[OC, CG·K·K]` matrix, so they keep their layout and label. It
    /// lowers to a `flat` conv op (see
    /// [`GraphBuilder::push_conv`](crate::GraphBuilder::push_conv)).
    pub(crate) fn fc(core: GemmCore) -> Self {
        let shape = core.weight.value.shape();
        let [out_channels, in_channels] = shape.try_into().expect("[OUT, IN] weights");
        Self {
            core,
            in_channels,
            out_channels,
            geom: ConvGeometry::new(1, 1, 0),
            groups: 1,
            flat: true,
            cache: None,
            scratch: ConvScratch::default(),
        }
    }

    /// The convolution geometry (kernel/stride/pad).
    pub fn geometry(&self) -> ConvGeometry {
        self.geom
    }

    /// Number of groups (1 = dense, `in_channels` = depthwise).
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Shared GEMM-layer state (weights, bias, executor).
    pub fn core(&self) -> &GemmCore {
        &self.core
    }

    /// Mutable access to the shared GEMM-layer state.
    pub fn core_mut(&mut self) -> &mut GemmCore {
        &mut self.core
    }

    /// The backward pass: accumulates the weight and bias gradients and,
    /// when `input_grad` is set, returns the input gradient.
    fn backward_impl(&mut self, grad_out: &Tensor, input_grad: bool) -> Option<Tensor> {
        let cache = self
            .cache
            .take()
            .expect("Conv2d::backward called without a Train-mode forward");
        let [n, _c, h, w] = cache.input_shape;
        let (oh, ow) = cache.out_hw;
        let cg = self.in_channels / self.groups;
        let ocg = self.out_channels / self.groups;
        assert_eq!(grad_out.shape(), &[n, self.out_channels, oh, ow]);

        if let Some(b) = &mut self.core.bias {
            b.accumulate(&grad_out.sum_channels());
        }

        let _span = axnn_obs::span(&self.core.bwd_span);
        let dy_mat = nchw_to_gemm_out(grad_out); // [OC, M]
        let kpg = self.k_per_group();
        let mut dw_rows: Vec<Tensor> = Vec::with_capacity(self.groups);
        let mut dinput_groups: Vec<Tensor> = Vec::with_capacity(self.groups);
        for (g, gc) in cache.groups.iter().enumerate() {
            let mut dy_g = dy_mat.slice_outer(g * ocg, (g + 1) * ocg);
            if let Some(scale) = &gc.exec.grad_scale {
                dy_g = dy_g.zip_map(scale, |d, s| d * s);
            }
            if axnn_obs::enabled() {
                // Exact GEMMs (dW, and dcol when asked) of oc·k·m MACs each.
                let m = dy_g.shape()[1];
                let gemms = 1 + u64::from(input_grad);
                axnn_obs::count(axnn_obs::Counter::GemmMacs, gemms * (ocg * kpg * m) as u64);
            }
            // STE: differentiate the exact GEMM of the effective operands.
            dw_rows.push(gc.exec.weight_grad(&dy_g)); // [OCg, Kpg]
            if input_grad {
                let dcol = gemm::matmul_tn(&gc.exec.wmat_eff, &dy_g); // [Kpg, M]
                axnn_obs::count(axnn_obs::Counter::Im2colBytes, (dcol.len() * 4) as u64);
                dinput_groups.push(col2im(&dcol, &[n, cg, h, w], self.geom));
            }
        }

        // Accumulate weight gradient (reassemble group row blocks into a
        // reused weight-shaped scratch buffer).
        let weight_shape = self.core.weight.value.shape().to_vec();
        let mut dw = scratch_buf(&mut self.scratch.dw, &weight_shape);
        let dst = dw.as_mut_slice();
        for (g, dwg) in dw_rows.iter().enumerate() {
            dst[g * ocg * kpg..(g + 1) * ocg * kpg].copy_from_slice(dwg.as_slice());
        }
        self.core.weight.accumulate(&dw);
        self.scratch.dw = Some(dw);

        if !input_grad {
            None
        } else if self.groups == 1 {
            dinput_groups.pop()
        } else {
            Some(Tensor::concat_channels(&dinput_groups).expect("same batch/spatial dims"))
        }
    }

    fn k_per_group(&self) -> usize {
        (self.in_channels / self.groups) * self.geom.kernel * self.geom.kernel
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(input.shape().len(), 4, "Conv2d expects NCHW input");
        let (n, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        assert_eq!(
            c, self.in_channels,
            "channel mismatch in {}",
            self.core.label
        );
        let oh = self.geom.out_dim(h);
        let ow = self.geom.out_dim(w);
        let cg = self.in_channels / self.groups;
        let ocg = self.out_channels / self.groups;
        let kpg = self.k_per_group();

        let wmat = self
            .core
            .weight
            .value
            .reshape(&[self.out_channels, kpg])
            .expect("weight reshape is size-preserving");

        let _span = axnn_obs::span(&self.core.fwd_span);
        let mut out = Tensor::zeros(&[n, self.out_channels, oh, ow]);
        let mut group_caches = Vec::with_capacity(self.groups);
        for g in 0..self.groups {
            let wmat_g = wmat.slice_outer(g * ocg, (g + 1) * ocg);
            // All groups share one column buffer: the lowering overwrites
            // every element, and executors copy what they need to keep.
            let mut exec = self.core.executor.forward_conv(
                &wmat_g,
                input,
                g * cg,
                self.geom,
                mode,
                &mut self.scratch.col,
            );
            let group_out = &mut out.as_mut_slice()[g * ocg * oh * ow..];
            gemm_out_to_nchw_into(&exec.y, n, self.out_channels, oh, ow, group_out);
            // Backward differentiates the effective operands and never
            // reads `y`, so the cache does not keep it.
            exec.y = Tensor::zeros(&[0, 0]);
            group_caches.push(GroupCache { exec });
        }

        if let Some(b) = &self.core.bias {
            out.add_channel_bias(&b.value);
        }
        if mode == Mode::Train {
            self.cache = Some(ConvCache {
                input_shape: [n, c, h, w],
                groups: group_caches,
                out_hw: (oh, ow),
            });
        } else {
            self.cache = None;
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_impl(grad_out, true)
            .expect("the input gradient was asked for")
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        self.backward_impl(grad_out, false);
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
        vec![
            input_shape[0],
            self.out_channels,
            self.geom.out_dim(input_shape[2]),
            self.geom.out_dim(input_shape[3]),
        ]
    }

    fn mac_count(&self, input_shape: &[usize]) -> u64 {
        let out = self.output_shape(input_shape);
        let per_pixel = self.k_per_group() as u64;
        (out[0] * out[1] * out[2] * out[3]) as u64 * per_pixel
    }

    fn lower(&self, builder: &mut crate::GraphBuilder) -> Result<(), crate::Unsupported> {
        let kpg = self.k_per_group();
        let ocg = self.out_channels / self.groups;
        let wmat = self
            .core
            .weight
            .value
            .reshape(&[self.out_channels, kpg])
            .expect("weight reshape is size-preserving");
        let mut backends = Vec::with_capacity(self.groups);
        for g in 0..self.groups {
            let wmat_g = wmat.slice_outer(g * ocg, (g + 1) * ocg);
            backends.push(self.core.executor.compile_backend(&wmat_g).ok_or_else(|| {
                crate::Unsupported::new(format!(
                    "executor of {} has no compiled backend",
                    self.core.label
                ))
            })?);
        }
        builder.push_conv(
            &self.core.label,
            self.geom,
            self.groups,
            self.in_channels,
            self.out_channels,
            self.core.bias.as_ref().map(|b| b.value.as_slice().to_vec()),
            crate::ActivationKind::Identity,
            backends,
            self.flat,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axnn_rng::Rng;

    fn rng() -> Rng {
        Rng::seed(3)
    }

    #[test]
    fn forward_shapes() {
        let mut conv = Conv2d::new(3, 8, 3, 2, 1, 1, true, &mut rng());
        let x = Tensor::ones(&[2, 3, 8, 8]);
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[2, 8, 4, 4]);
        assert_eq!(conv.output_shape(&[2, 3, 8, 8]), vec![2, 8, 4, 4]);
    }

    #[test]
    fn grouped_equals_per_group_dense() {
        // A 2-group conv must equal two dense convs on channel halves.
        let mut r = rng();
        let mut grouped = Conv2d::new(4, 6, 3, 1, 1, 2, false, &mut r);
        let x = init::uniform(&[1, 4, 5, 5], -1.0, 1.0, &mut r);
        let y = grouped.forward(&x, Mode::Eval);

        let w = grouped.core().weight.value.clone(); // [6, 2, 3, 3]
        let mut dense_a = Conv2d::new(2, 3, 3, 1, 1, 1, false, &mut r);
        let mut dense_b = Conv2d::new(2, 3, 3, 1, 1, 1, false, &mut r);
        dense_a.core_mut().weight.value = w.slice_outer(0, 3);
        dense_b.core_mut().weight.value = w.slice_outer(3, 6);
        let ya = dense_a.forward(&x.slice_channels(0, 2), Mode::Eval);
        let yb = dense_b.forward(&x.slice_channels(2, 4), Mode::Eval);
        let want = Tensor::concat_channels(&[ya, yb]).unwrap();
        for (a, b) in y.as_slice().iter().zip(want.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn depthwise_runs() {
        let mut conv = Conv2d::new(4, 4, 3, 1, 1, 4, false, &mut rng());
        let x = Tensor::ones(&[1, 4, 6, 6]);
        let y = conv.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[1, 4, 6, 6]);
        let dx = conv.backward(&Tensor::ones(&[1, 4, 6, 6]));
        assert_eq!(dx.shape(), x.shape());
    }

    /// Numerical gradient check of the conv weight gradient.
    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut r = rng();
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 1, true, &mut r);
        let x = init::uniform(&[2, 2, 4, 4], -1.0, 1.0, &mut r);

        // Loss = sum(y * mask) for a fixed random mask.
        let y0 = conv.forward(&x, Mode::Train);
        let mask = init::uniform(y0.shape(), -1.0, 1.0, &mut r);
        conv.backward(&mask);
        let analytic = conv.core().weight.grad.clone();

        let eps = 1e-3;
        for idx in [0usize, 7, 20, analytic.len() - 1] {
            let orig = conv.core().weight.value.as_slice()[idx];
            conv.core_mut().weight.value.as_mut_slice()[idx] = orig + eps;
            let yp = conv.forward(&x, Mode::Eval);
            conv.core_mut().weight.value.as_mut_slice()[idx] = orig - eps;
            let ym = conv.forward(&x, Mode::Eval);
            conv.core_mut().weight.value.as_mut_slice()[idx] = orig;
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
            let got = analytic.as_slice()[idx];
            assert!(
                (numeric - got).abs() < 1e-2 * (1.0 + numeric.abs()),
                "idx {idx}: numeric {numeric} vs analytic {got}"
            );
        }
    }

    /// Numerical gradient check of the conv input gradient.
    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut r = rng();
        let mut conv = Conv2d::new(2, 3, 3, 2, 1, 1, false, &mut r);
        let mut x = init::uniform(&[1, 2, 5, 5], -1.0, 1.0, &mut r);
        let y0 = conv.forward(&x, Mode::Train);
        let mask = init::uniform(y0.shape(), -1.0, 1.0, &mut r);
        let dx = conv.backward(&mask);

        let eps = 1e-3;
        for idx in [0usize, 13, x.len() - 1] {
            let orig = x.as_slice()[idx];
            x.as_mut_slice()[idx] = orig + eps;
            let yp = conv.forward(&x, Mode::Eval);
            x.as_mut_slice()[idx] = orig - eps;
            let ym = conv.forward(&x, Mode::Eval);
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
                (numeric - got).abs() < 1e-2 * (1.0 + numeric.abs()),
                "idx {idx}: numeric {numeric} vs analytic {got}"
            );
        }
    }

    /// Warm scratch buffers must not change a single bit of the outputs or
    /// gradients, including across batch-shape changes.
    #[test]
    fn scratch_reuse_is_bit_identical() {
        let mut r = rng();
        let mut conv = Conv2d::new(4, 6, 3, 1, 1, 2, true, &mut r);
        let x = init::uniform(&[2, 4, 5, 5], -1.0, 1.0, &mut r);
        let mask = init::uniform(&[2, 6, 5, 5], -1.0, 1.0, &mut r);
        let other = init::uniform(&[3, 4, 7, 7], -1.0, 1.0, &mut r);

        // Round 1 runs with cold scratch; grads start from zero.
        let y1 = conv.forward(&x, Mode::Train);
        let dx1 = conv.backward(&mask);
        let g1 = conv.core().weight.grad.clone();
        // Dirty the scratch with a different batch shape, then repeat.
        conv.forward(&other, Mode::Eval);
        let y2 = conv.forward(&x, Mode::Train);
        let dx2 = conv.backward(&mask);
        let g2 = conv.core().weight.grad.clone();

        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&y1), bits(&y2), "forward must be scratch-invariant");
        assert_eq!(bits(&dx1), bits(&dx2), "dx must be scratch-invariant");
        // Gradients accumulate, so round 2 must add exactly round 1's dW.
        for (a, b) in g1.as_slice().iter().zip(g2.as_slice()) {
            assert_eq!(
                (a + a).to_bits(),
                b.to_bits(),
                "dW must be scratch-invariant"
            );
        }
    }

    #[test]
    fn mac_count_dense_and_grouped() {
        let conv = Conv2d::new(16, 32, 3, 1, 1, 1, false, &mut rng());
        // 32x32 input: 32*32*32 outputs * 16*9 taps
        assert_eq!(conv.mac_count(&[1, 16, 32, 32]), 32 * 32 * 32 * 16 * 9);
        let dw = Conv2d::new(16, 16, 3, 1, 1, 16, false, &mut rng());
        assert_eq!(dw.mac_count(&[1, 16, 32, 32]), 16 * 32 * 32 * 9);
    }
}
