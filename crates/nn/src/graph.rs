//! Compute-graph IR and compiler for frozen (eval-mode) models.
//!
//! [`GraphExecutor::compile`] lowers a [`Sequential`] into a small graph of
//! fused ops: batch norm is folded into conv weights first (via
//! [`Layer::fold_batch_norm`]), then conv+bias+activation collapses into
//! one op that applies the epilogue while the output tile is hot in cache.
//! It is the graph's only GEMM op: a `Linear` lowers to it as a 1×1,
//! stride-1, unpadded conv that reads its `[N, F]` input as `[N, F, 1, 1]`
//! and writes `[N, OUT]`, the same strides, so nothing is copied. A conv
//! op hands each group's input channels to its backend's
//! [`forward_conv`](GemmBackend::forward_conv), which lowers the conv its
//! own way and writes epilogued NCHW rows into the op's output: the exact
//! f32 core runs an implicit-GEMM direct kernel
//! ([`axnn_tensor::conv_direct`]), the 8A4W core the lowering its
//! interpreter executor runs. The graph itself never builds a column
//! matrix. Op outputs are planned once per input shape into a reused
//! arena, which holds nothing else; steady-state calls hit the plan cache
//! and allocate nothing but the returned output tensor.
//!
//! The arithmetic seam is [`GemmBackend`]: the exact f32 core and the
//! 8A4W core of `axnn-quant` (fake-quant exact products, or the LUT product
//! `axnn-proxsim` supplies), the same core its interpreter executor runs,
//! plug in behind the one trait via
//! [`LayerExecutor::compile_backend`](crate::LayerExecutor::compile_backend).
//! Every backend is required to be *bit-identical* to the interpreter path.
//! Compilation is total for all three families (gradient estimation only
//! changes the backward pass, so an attached error model compiles to the
//! plain approximate core); the non-GEMM ops call the same `_into` kernels
//! as their layers. The [`Sequential`] interpreter remains the training
//! engine and the test oracle.

use crate::act::ActivationKind;
use crate::extra_layers::max_pool_into;
use crate::layer::Layer;
use crate::pool::{avg_pool_into, flatten_into, global_avg_pool_into};
use crate::seq::Sequential;
use axnn_tensor::gemm::Epilogue;
use axnn_tensor::im2col::ConvGeometry;
use axnn_tensor::Tensor;
use std::collections::HashMap;
use std::fmt;

/// Why a model (or one of its layers/executors) could not be compiled.
///
/// A real error: every built-in executor family compiles, so this only
/// surfaces for a layer with no lowering (e.g. a bare [`BatchNorm2d`]
/// outside a conv block) or a custom executor without a compiled backend.
/// Callers report it; there is no interpreter fallback.
///
/// [`BatchNorm2d`]: crate::BatchNorm2d
#[derive(Debug, Clone)]
pub struct Unsupported {
    reason: String,
}

impl Unsupported {
    /// Creates an unsupported-construct marker with a human-readable reason.
    pub fn new(reason: impl Into<String>) -> Self {
        Self {
            reason: reason.into(),
        }
    }

    /// The human-readable reason.
    pub fn reason(&self) -> &str {
        &self.reason
    }
}

impl fmt::Display for Unsupported {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "graph compile unsupported: {}", self.reason)
    }
}

impl std::error::Error for Unsupported {}

/// A fused GEMM arithmetic core behind the compiled graph, over one frozen
/// weight block (one conv group, or a whole layer).
pub trait GemmBackend: fmt::Debug + Send {
    /// The conv op's entry: the fused convolution of input channels
    /// `[c0, c0 + CG)` of the row-major `dims = [N, C, H, W]` `input`, read
    /// in place, writing epilogued NCHW rows into `out` (the full output
    /// buffer offset to this group's first channel; `out_channels` is the
    /// total channel count). It applies the epilogue `ep(· + bias[row])`
    /// and overwrites every element the group owns; with `bias` `None` no
    /// add is performed at all (adding `0.0` would flip `-0.0` outputs).
    /// Each backend lowers the conv its own way; the result must be
    /// bit-identical to the layer's executor
    /// [`LayerExecutor::forward_conv`](crate::LayerExecutor::forward_conv)
    /// over the same channels, with the layer's bias and activation passes.
    #[allow(clippy::too_many_arguments)]
    fn forward_conv(
        &mut self,
        input: &[f32],
        dims: [usize; 4],
        c0: usize,
        geom: ConvGeometry,
        bias: Option<&[f32]>,
        ep: Epilogue,
        out: &mut [f32],
        out_channels: usize,
    );
}

impl dyn GemmBackend {
    /// [`forward_conv`](GemmBackend::forward_conv) over a `[K, M]` column
    /// matrix: `ep(W·col + bias)` into the row-major `[OC, M]` `out`. `col`
    /// is laid out as one `[1, K, 1, M]` image, whose 1×1 conv output has
    /// `out`'s layout.
    pub fn forward(&mut self, col: &Tensor, bias: Option<&[f32]>, ep: Epilogue, out: &mut [f32]) {
        let (k, m) = (col.shape()[0], col.shape()[1]);
        let geom = ConvGeometry::new(1, 1, 0);
        let oc = out.len() / m.max(1);
        self.forward_conv(col.as_slice(), [1, k, 1, m], 0, geom, bias, ep, out, oc);
    }
}

fn epilogue_of(kind: ActivationKind) -> Epilogue {
    match kind {
        ActivationKind::Relu => Epilogue::Relu,
        ActivationKind::Relu6 => Epilogue::Relu6,
        ActivationKind::Identity => Epilogue::Identity,
    }
}

/// One node of the compiled graph.
enum Op {
    Conv {
        span: String,
        geom: ConvGeometry,
        in_channels: usize,
        out_channels: usize,
        bias: Option<Vec<f32>>,
        ep: Epilogue,
        /// One backend per group, over that group's weight row block.
        backends: Vec<Box<dyn GemmBackend>>,
        /// A lowered `Linear`: reads `[N, F]` as `[N, F, 1, 1]` and writes
        /// `[N, OUT]`.
        flat: bool,
    },
    Act {
        span: String,
        kind: ActivationKind,
    },
    AvgPool {
        span: String,
        kernel: usize,
    },
    MaxPool {
        span: String,
        kernel: usize,
    },
    GlobalAvgPool {
        span: String,
    },
    Flatten {
        span: String,
    },
    Residual {
        span: String,
        main: Vec<Op>,
        shortcut: Option<Vec<Op>>,
        act: ActivationKind,
    },
}

impl Op {
    fn output_shape(&self, s: &[usize]) -> Vec<usize> {
        match self {
            Op::Conv {
                geom,
                out_channels,
                flat,
                ..
            } => match (*flat, s) {
                (true, &[n, _]) => vec![n, *out_channels],
                (false, &[n, _, h, w]) => vec![n, *out_channels, geom.out_dim(h), geom.out_dim(w)],
                _ => panic!(
                    "conv op input {s:?} is not {}",
                    if *flat { "[N, F]" } else { "NCHW" }
                ),
            },
            Op::Act { .. } => s.to_vec(),
            Op::AvgPool { kernel, .. } | Op::MaxPool { kernel, .. } => {
                vec![s[0], s[1], s[2] / kernel, s[3] / kernel]
            }
            Op::GlobalAvgPool { .. } => vec![s[0], s[1]],
            Op::Flatten { .. } => vec![s[0], s[1..].iter().product()],
            Op::Residual { main, .. } => {
                let mut shape = s.to_vec();
                for op in main {
                    shape = op.output_shape(&shape);
                }
                shape
            }
        }
    }
}

/// Collects lowered ops during [`Layer::lower`].
///
/// Layers call the `push_*` methods in execution order; a standalone
/// activation pushed right after a conv op with an identity epilogue is
/// fused into that op's GEMM kernel.
pub struct GraphBuilder {
    ops: Vec<Op>,
}

fn exec_span(label: &str) -> String {
    format!("graph:exec:{label}")
}

impl GraphBuilder {
    /// Creates an empty builder (used for residual branch subgraphs too).
    pub fn new() -> Self {
        Self { ops: Vec::new() }
    }

    /// Pushes a fused convolution op. `backends` holds one compiled GEMM
    /// core per group, in group order. A `flat` op is a lowered `Linear`:
    /// a 1×1 conv over `[N, F]` inputs, read as `[N, F, 1, 1]`, writing
    /// `[N, OUT]`.
    #[allow(clippy::too_many_arguments)]
    pub fn push_conv(
        &mut self,
        label: &str,
        geom: ConvGeometry,
        groups: usize,
        in_channels: usize,
        out_channels: usize,
        bias: Option<Vec<f32>>,
        act: ActivationKind,
        backends: Vec<Box<dyn GemmBackend>>,
        flat: bool,
    ) {
        assert_eq!(backends.len(), groups, "one backend per conv group");
        self.ops.push(Op::Conv {
            span: exec_span(label),
            geom,
            in_channels,
            out_channels,
            bias,
            ep: epilogue_of(act),
            backends,
            flat,
        });
    }

    /// Pushes an activation, fusing it into the preceding conv op's GEMM
    /// epilogue when that op still has an identity epilogue.
    pub fn push_activation(&mut self, kind: ActivationKind) {
        if kind == ActivationKind::Identity {
            return;
        }
        match self.ops.last_mut() {
            Some(Op::Conv { ep, .. }) if *ep == Epilogue::Identity => *ep = epilogue_of(kind),
            _ => self.ops.push(Op::Act {
                span: exec_span(match kind {
                    ActivationKind::Relu => "relu",
                    ActivationKind::Relu6 => "relu6",
                    ActivationKind::Identity => unreachable!("identity returned above"),
                }),
                kind,
            }),
        }
    }

    /// Pushes a non-overlapping average pool.
    pub fn push_avg_pool(&mut self, kernel: usize) {
        self.ops.push(Op::AvgPool {
            span: exec_span(&format!("avgpool{kernel}x{kernel}")),
            kernel,
        });
    }

    /// Pushes a non-overlapping max pool.
    pub fn push_max_pool(&mut self, kernel: usize) {
        self.ops.push(Op::MaxPool {
            span: exec_span(&format!("maxpool{kernel}x{kernel}")),
            kernel,
        });
    }

    /// Pushes a global average pool (`[N, C, H, W] -> [N, C]`).
    pub fn push_global_avg_pool(&mut self) {
        self.ops.push(Op::GlobalAvgPool {
            span: exec_span("global_avgpool"),
        });
    }

    /// Pushes a flatten (`[N, ...] -> [N, prod]`).
    pub fn push_flatten(&mut self) {
        self.ops.push(Op::Flatten {
            span: exec_span("flatten"),
        });
    }

    /// Pushes a residual op over pre-lowered branch subgraphs.
    pub fn push_residual(
        &mut self,
        main: GraphBuilder,
        shortcut: Option<GraphBuilder>,
        act: ActivationKind,
    ) {
        self.ops.push(Op::Residual {
            span: exec_span("residual"),
            main: main.ops,
            shortcut: shortcut.map(|b| b.ops),
            act,
        });
    }
}

impl Default for GraphBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-op arena buffers for one `(model, input shape)` pair.
///
/// Every tensor is allocated once at plan time and overwritten in full on
/// every execution, so plans are reused with no per-call allocation. Each
/// op's plan is its output alone: conv backends keep whatever scratch
/// their lowering needs.
enum OpPlan {
    Simple {
        out: Tensor,
    },
    Residual {
        main: Vec<OpPlan>,
        shortcut: Option<Vec<OpPlan>>,
        out: Tensor,
    },
}

impl OpPlan {
    fn out(&self) -> &Tensor {
        match self {
            OpPlan::Simple { out } | OpPlan::Residual { out, .. } => out,
        }
    }

    /// Total arena bytes held by this plan node's outputs.
    fn bytes(&self) -> usize {
        match self {
            OpPlan::Simple { out } => out.len() * 4,
            OpPlan::Residual {
                main,
                shortcut,
                out,
            } => {
                main.iter().map(OpPlan::bytes).sum::<usize>()
                    + shortcut
                        .as_ref()
                        .map_or(0, |s| s.iter().map(OpPlan::bytes).sum())
                    + out.len() * 4
            }
        }
    }
}

fn plan_op(op: &Op, s: &[usize]) -> OpPlan {
    match op {
        Op::Residual { main, shortcut, .. } => OpPlan::Residual {
            main: plan_seq(main, s),
            shortcut: shortcut.as_ref().map(|ops| plan_seq(ops, s)),
            out: Tensor::zeros(&op.output_shape(s)),
        },
        _ => OpPlan::Simple {
            out: Tensor::zeros(&op.output_shape(s)),
        },
    }
}

fn plan_seq(ops: &[Op], in_shape: &[usize]) -> Vec<OpPlan> {
    let mut s = in_shape.to_vec();
    ops.iter()
        .map(|op| {
            let p = plan_op(op, &s);
            s = op.output_shape(&s);
            p
        })
        .collect()
}

fn exec_seq(ops: &mut [Op], plans: &mut [OpPlan], input: &Tensor) {
    debug_assert_eq!(ops.len(), plans.len(), "plan shape drifted from graph");
    for (i, op) in ops.iter_mut().enumerate() {
        let (done, rest) = plans.split_at_mut(i);
        let x: &Tensor = if i == 0 { input } else { done[i - 1].out() };
        exec_op(op, x, &mut rest[0]);
    }
}

fn exec_op(op: &mut Op, x: &Tensor, plan: &mut OpPlan) {
    match (op, plan) {
        (
            Op::Conv {
                span,
                geom,
                in_channels,
                out_channels,
                bias,
                ep,
                backends,
                ..
            },
            OpPlan::Simple { out },
        ) => {
            let _s = axnn_obs::span(span);
            // Planning checked the rank: a flat `[N, F]` input is
            // `[N, F, 1, 1]`, and its `[N, OUT]` output `[N, OUT, 1, 1]`.
            let dims = match *x.shape() {
                [n, c] => [n, c, 1, 1],
                [n, c, h, w] => [n, c, h, w],
                _ => unreachable!("planned conv input is [N, F] or NCHW"),
            };
            assert_eq!(dims[1], *in_channels, "conv input channel mismatch");
            // Every backend reads its group's channels in place and writes
            // its epilogued NCHW rows at the group's channel offset.
            let cg = *in_channels / backends.len();
            let ocg = *out_channels / backends.len();
            let ohw = geom.out_dim(dims[2]) * geom.out_dim(dims[3]);
            let os = out.as_mut_slice();
            for (g, backend) in backends.iter_mut().enumerate() {
                let bias_g = bias.as_ref().map(|b| &b[g * ocg..(g + 1) * ocg]);
                backend.forward_conv(
                    x.as_slice(),
                    dims,
                    g * cg,
                    *geom,
                    bias_g,
                    *ep,
                    &mut os[g * ocg * ohw..],
                    *out_channels,
                );
            }
        }
        (Op::Act { span, kind }, OpPlan::Simple { out }) => {
            let _s = axnn_obs::span(span);
            kind.apply_into(x, out);
        }
        (Op::AvgPool { span, kernel }, OpPlan::Simple { out }) => {
            let _s = axnn_obs::span(span);
            avg_pool_into(x, *kernel, out);
        }
        (Op::MaxPool { span, kernel }, OpPlan::Simple { out }) => {
            let _s = axnn_obs::span(span);
            max_pool_into(x, *kernel, out, None);
        }
        (Op::GlobalAvgPool { span }, OpPlan::Simple { out }) => {
            let _s = axnn_obs::span(span);
            global_avg_pool_into(x, out);
        }
        (Op::Flatten { span }, OpPlan::Simple { out }) => {
            let _s = axnn_obs::span(span);
            flatten_into(x, out);
        }
        (
            Op::Residual {
                span,
                main,
                shortcut,
                act,
            },
            OpPlan::Residual {
                main: main_plans,
                shortcut: shortcut_plans,
                out,
            },
        ) => {
            let _s = axnn_obs::span(span);
            exec_seq(main, main_plans, x);
            if let (Some(sops), Some(splans)) = (shortcut.as_mut(), shortcut_plans.as_mut()) {
                exec_seq(sops, splans, x);
            }
            let m: &Tensor = main_plans.last().map_or(x, |p| p.out());
            let s: &Tensor = shortcut_plans
                .as_ref()
                .and_then(|p| p.last())
                .map_or(x, |p| p.out());
            let (ms, ss) = (m.as_slice(), s.as_slice());
            for ((o, &a), &b) in out.as_mut_slice().iter_mut().zip(ms).zip(ss) {
                *o = act.apply(a + b);
            }
        }
        _ => unreachable!("op/plan variant mismatch"),
    }
}

/// Cache-hit/miss statistics of a [`GraphExecutor`]'s plan cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Forward calls that reused an existing buffer plan.
    pub hits: u64,
    /// Forward calls that had to plan buffers for a new input shape.
    pub misses: u64,
}

impl PlanCacheStats {
    /// Hit ratio in `[0, 1]`; `1.0` when no lookups happened yet.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A lowered, fused model graph with per-shape plan caching.
///
/// Plans (arena buffers) are keyed by input shape alone: the backends hold
/// weight copies frozen at compile time, so one executor's arithmetic
/// never changes under it. Steady-state inference over repeated batch
/// shapes hits the cache and performs no allocation beyond the returned
/// output tensor. Eval-mode only — training still goes through the
/// [`Sequential`] interpreter.
pub struct GraphExecutor {
    ops: Vec<Op>,
    plans: HashMap<Vec<usize>, Vec<OpPlan>>,
    stats: PlanCacheStats,
}

impl fmt::Debug for GraphExecutor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GraphExecutor[{} ops, {} plans, {:?}]",
            self.ops.len(),
            self.plans.len(),
            self.stats
        )
    }
}

impl GraphExecutor {
    /// Compiles a frozen model into a fused graph.
    ///
    /// Folds batch norm into conv weights first (mutating `net`, so the
    /// interpreter oracle and the compiled graph share identical folded
    /// weights), then lowers each layer via [`Layer::lower`].
    ///
    /// # Errors
    ///
    /// Succeeds for every built-in executor family (exact, quantized,
    /// approximate with or without a gradient-estimation model). Returns
    /// [`Unsupported`] only for a layer with no lowering or a custom
    /// executor without a compiled backend.
    pub fn compile(net: &mut Sequential) -> Result<Self, Unsupported> {
        let _s = axnn_obs::span("graph:compile");
        net.fold_batch_norm();
        let mut builder = GraphBuilder::new();
        net.lower(&mut builder)?;
        Ok(Self {
            ops: builder.ops,
            plans: HashMap::new(),
            stats: PlanCacheStats::default(),
        })
    }

    /// Number of cached buffer plans (distinct input shapes seen).
    pub fn plan_count(&self) -> usize {
        self.plans.len()
    }

    /// Plan-cache hit/miss statistics since compilation.
    pub fn cache_stats(&self) -> PlanCacheStats {
        self.stats
    }

    /// Total arena bytes across all cached plans.
    pub fn arena_bytes(&self) -> usize {
        self.plans
            .values()
            .map(|plans| plans.iter().map(OpPlan::bytes).sum::<usize>())
            .sum()
    }

    /// Runs the compiled graph on one eval-mode batch.
    ///
    /// Bit-identical to `Sequential::forward(input, Mode::Eval)` on the
    /// folded source model.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        if let Some(plans) = self.plans.get_mut(input.shape()) {
            self.stats.hits += 1;
            axnn_obs::count(axnn_obs::Counter::PlanCacheHits, 1);
            exec_seq(&mut self.ops, plans, input);
            return plans
                .last()
                .map_or_else(|| input.clone(), |p| p.out().clone());
        }
        self.stats.misses += 1;
        axnn_obs::count(axnn_obs::Counter::PlanCacheMisses, 1);
        let mut plans = {
            let _s = axnn_obs::span("graph:plan");
            plan_seq(&self.ops, input.shape())
        };
        exec_seq(&mut self.ops, &mut plans, input);
        let out = plans
            .last()
            .map_or_else(|| input.clone(), |p| p.out().clone());
        self.plans.insert(input.shape().to_vec(), plans);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::act::Activation;
    use crate::block::{ConvBlock, Residual};
    use crate::conv::Conv2d;
    use crate::extra_layers::{Dropout, MaxPool2d};
    use crate::layer::Mode;
    use crate::linear::Linear;
    use crate::pool::{AvgPool2d, Flatten, GlobalAvgPool};
    use axnn_rng::Rng;
    use axnn_tensor::init;

    fn small_cnn(rng: &mut Rng, bn: bool) -> Sequential {
        let main = Sequential::new(vec![
            Box::new(ConvBlock::new(
                8,
                8,
                3,
                1,
                1,
                1,
                bn,
                ActivationKind::Relu,
                rng,
            )) as Box<dyn Layer>,
            Box::new(ConvBlock::new(
                8,
                8,
                3,
                1,
                1,
                1,
                bn,
                ActivationKind::Identity,
                rng,
            )),
        ]);
        Sequential::new(vec![
            Box::new(ConvBlock::new(
                3,
                8,
                3,
                1,
                1,
                1,
                bn,
                ActivationKind::Relu,
                rng,
            )),
            Box::new(Residual::new(main, None, ActivationKind::Relu)),
            Box::new(MaxPool2d::new(2)),
            Box::new(AvgPool2d::new(2)),
            Box::new(Dropout::new(0.3, 7)),
            Box::new(GlobalAvgPool::new()),
            Box::new(Flatten::new()),
            Box::new(Linear::new(8, 10, true, rng)),
        ])
    }

    #[test]
    fn compiled_bit_matches_interpreter_on_cnn() {
        let mut rng = Rng::seed(40);
        let mut net = small_cnn(&mut rng, true);
        let mut exec = GraphExecutor::compile(&mut net).expect("cnn lowers");
        // compile() folded BN, so the interpreter now runs the same weights.
        for (shape, seed) in [
            ([2usize, 3, 8, 8], 1u64),
            ([1, 3, 8, 8], 2),
            ([5, 3, 8, 8], 3),
        ] {
            let x = init::uniform(&shape, -1.0, 1.0, &mut Rng::seed(seed));
            let want = net.forward(&x, Mode::Eval);
            let got = exec.forward(&x);
            assert_eq!(want.shape(), got.shape());
            for (a, b) in want.as_slice().iter().zip(got.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn plan_cache_hits_on_repeated_shapes() {
        let mut rng = Rng::seed(41);
        let mut net = small_cnn(&mut rng, false);
        let mut exec = GraphExecutor::compile(&mut net).expect("cnn lowers");
        let x2 = init::uniform(&[2, 3, 8, 8], -1.0, 1.0, &mut rng);
        let x4 = init::uniform(&[4, 3, 8, 8], -1.0, 1.0, &mut rng);
        exec.forward(&x2);
        exec.forward(&x4);
        exec.forward(&x2);
        exec.forward(&x2);
        let stats = exec.cache_stats();
        assert_eq!(stats.misses, 2, "one plan per distinct shape");
        assert_eq!(stats.hits, 2);
        assert_eq!(exec.plan_count(), 2);
        assert!(exec.arena_bytes() > 0);
        assert!((stats.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn conv_plans_hold_only_their_output() {
        // The arena is every op's output: conv backends, the linear's
        // among them, keep their own scratch.
        let mut rng = Rng::seed(45);
        let mut net = small_cnn(&mut rng, false);
        let mut exec = GraphExecutor::compile(&mut net).expect("cnn lowers");
        let x = init::uniform(&[2, 3, 8, 8], -1.0, 1.0, &mut rng);
        exec.forward(&x);
        // Batch 2: the stem conv, the two residual convs and the residual
        // sum at [2, 8, 8, 8]; max pool [2, 8, 4, 4]; avg pool [2, 8, 2, 2];
        // global pool and flatten [2, 8]; the linear's [2, 10]. Dropout
        // lowers to nothing.
        let floats = 4 * 1024 + 256 + 64 + 2 * 16 + 20;
        assert_eq!(exec.arena_bytes(), 4 * floats);
    }

    #[test]
    fn steady_state_reuses_buffers_bit_identically() {
        // Two calls on the same shape with different data: the second must
        // fully overwrite the arena (no stale-scratch leakage).
        let mut rng = Rng::seed(42);
        let mut net = small_cnn(&mut rng, false);
        let mut exec = GraphExecutor::compile(&mut net).expect("cnn lowers");
        let xa = init::uniform(&[3, 3, 8, 8], -1.0, 1.0, &mut rng);
        let xb = init::uniform(&[3, 3, 8, 8], -2.0, 2.0, &mut rng);
        exec.forward(&xa);
        let got = exec.forward(&xb);
        let want = net.forward(&xb, Mode::Eval);
        for (a, b) in want.as_slice().iter().zip(got.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn grouped_conv_lowers_and_matches() {
        let mut rng = Rng::seed(43);
        let mut net = Sequential::new(vec![
            Box::new(Conv2d::new(4, 8, 3, 1, 1, 2, true, &mut rng)) as Box<dyn Layer>,
            Box::new(Activation::new(ActivationKind::Relu6)),
            Box::new(Conv2d::new(8, 8, 3, 1, 1, 8, false, &mut rng)),
        ]);
        let mut exec = GraphExecutor::compile(&mut net).expect("grouped conv lowers");
        let x = init::uniform(&[2, 4, 6, 6], -1.0, 1.0, &mut rng);
        let want = net.forward(&x, Mode::Eval);
        let got = exec.forward(&x);
        for (a, b) in want.as_slice().iter().zip(got.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn projection_residual_matches() {
        let mut rng = Rng::seed(44);
        let main = Sequential::new(vec![Box::new(ConvBlock::new(
            4,
            8,
            3,
            2,
            1,
            1,
            true,
            ActivationKind::Relu,
            &mut rng,
        )) as Box<dyn Layer>]);
        let shortcut = Sequential::new(vec![Box::new(ConvBlock::new(
            4,
            8,
            1,
            2,
            0,
            1,
            true,
            ActivationKind::Identity,
            &mut rng,
        )) as Box<dyn Layer>]);
        let mut net =
            Sequential::new(vec![
                Box::new(Residual::new(main, Some(shortcut), ActivationKind::Relu))
                    as Box<dyn Layer>,
            ]);
        let mut exec = GraphExecutor::compile(&mut net).expect("projection residual lowers");
        let x = init::uniform(&[2, 4, 8, 8], -1.0, 1.0, &mut rng);
        let want = net.forward(&x, Mode::Eval);
        let got = exec.forward(&x);
        assert_eq!(got.shape(), &[2, 8, 4, 4]);
        for (a, b) in want.as_slice().iter().zip(got.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn activation_fuses_into_preceding_gemm() {
        let mut rng = Rng::seed(45);
        let mut net = Sequential::new(vec![
            Box::new(Linear::new(6, 4, true, &mut rng)) as Box<dyn Layer>,
            Box::new(Activation::new(ActivationKind::Relu)),
        ]);
        let exec = GraphExecutor::compile(&mut net).expect("mlp lowers");
        assert!(
            matches!(
                exec.ops.as_slice(),
                [Op::Conv {
                    ep: Epilogue::Relu,
                    flat: true,
                    ..
                }]
            ),
            "relu fused into the linear's conv op"
        );
    }

    /// A lowered `Linear` takes `[N, F]` only, as its layer does.
    #[test]
    #[should_panic(expected = "is not [N, F]")]
    fn lowered_linear_rejects_nchw_input() {
        let mut rng = Rng::seed(48);
        let mut net = Sequential::new(vec![
            Box::new(Linear::new(4, 2, true, &mut rng)) as Box<dyn Layer>
        ]);
        let mut exec = GraphExecutor::compile(&mut net).expect("mlp lowers");
        exec.forward(&Tensor::ones(&[2, 4, 1, 1]));
    }

    #[test]
    fn plan_cache_counters_feed_obs() {
        let mut rng = Rng::seed(46);
        let mut net = Sequential::new(vec![
            Box::new(Linear::new(4, 2, true, &mut rng)) as Box<dyn Layer>
        ]);
        let mut exec = GraphExecutor::compile(&mut net).expect("mlp lowers");
        let x = Tensor::ones(&[2, 4]);
        // Counters are process-global and other tests run concurrently, so
        // assert deltas (>=), and exact values on the executor-local stats.
        let miss0 = axnn_obs::counter(axnn_obs::Counter::PlanCacheMisses);
        let hit0 = axnn_obs::counter(axnn_obs::Counter::PlanCacheHits);
        axnn_obs::set_enabled(true);
        exec.forward(&x);
        exec.forward(&x);
        axnn_obs::set_enabled(false);
        assert!(axnn_obs::counter(axnn_obs::Counter::PlanCacheMisses) > miss0);
        assert!(axnn_obs::counter(axnn_obs::Counter::PlanCacheHits) > hit0);
        assert_eq!(exec.cache_stats(), PlanCacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn unsupported_layer_is_an_error() {
        let mut rng = Rng::seed(47);
        let mut net = Sequential::new(vec![
            Box::new(crate::bn::BatchNorm2d::new(3)) as Box<dyn Layer>,
            Box::new(Linear::new(4, 2, true, &mut rng)),
        ]);
        // A bare BatchNorm2d (not inside a ConvBlock) cannot be folded away.
        let err = GraphExecutor::compile(&mut net).expect_err("bare bn is unsupported");
        assert!(err.reason().contains("bn"), "reason: {}", err.reason());
    }
}
