//! Checkpoint loading and batched inference for the serving path.
//!
//! A [`ServedModel`] restores an `axnn pipeline --save` checkpoint into an
//! architecture-matched network, swaps in the requested executor family
//! (exact / quantized / approximate) and — for the quantizing executors —
//! runs a deterministic calibration pass so the activation steps are
//! *frozen* before the first request. Freezing matters for batch
//! invariance: an uncalibrated quantizing executor falls back to per-batch
//! abs-max activation scaling, which would make a request's logits depend
//! on its batch mates.

use crate::executor::ServeExecutor;
use axnn_data::resize::PreprocessSpec;
use axnn_data::SynthCifar;
use axnn_models::{ModelConfig, ModelKind};
use axnn_nn::train::calibrate;
use axnn_nn::{Checkpoint, GraphExecutor, PlanCacheStats, Sequential};
use axnn_proxsim::approximate_network;
use axnn_quant::{quantize_network, QuantSpec};
use axnn_rng::Rng;
use axnn_tensor::Tensor;
use std::sync::Arc;

/// How to restore and execute a checkpoint.
#[derive(Debug, Clone)]
pub struct ModelOptions {
    /// Architecture the checkpoint restores into.
    pub model: ModelKind,
    /// Width multiplier the checkpoint was trained with.
    pub width: f32,
    /// Input resolution the checkpoint was trained with.
    pub hw: usize,
    /// Executor family to serve with.
    pub executor: ServeExecutor,
    /// Catalogue multiplier id for [`ServeExecutor::Approx`].
    pub mult: String,
    /// Seed for the deterministic calibration split.
    pub seed: u64,
    /// Calibration samples generated for the quantizing executors.
    pub calib_samples: usize,
}

impl Default for ModelOptions {
    fn default() -> Self {
        ModelOptions {
            model: ModelKind::ResNet20,
            width: 0.25,
            hw: 16,
            executor: ServeExecutor::Exact,
            mult: "trunc5".to_string(),
            seed: 1,
            calib_samples: 64,
        }
    }
}

/// The architecture configuration a checkpoint restores into.
fn model_config(opts: &ModelOptions) -> ModelConfig {
    ModelConfig::paper()
        .with_width(opts.width)
        .with_input_hw(opts.hw)
}

/// A restored, executor-swapped, calibrated network, compiled into a
/// [`GraphExecutor`] and ready to serve batches.
#[derive(Debug)]
pub struct ServedModel {
    exec: GraphExecutor,
    channels: usize,
    hw: usize,
    classes: usize,
    label: String,
    preprocess: PreprocessSpec,
}

impl ServedModel {
    /// Restores `checkpoint_json` (the `axnn pipeline --save` format) under
    /// `opts`, swaps executors and calibrates. The restore is
    /// [`ModelKind::restore`], the one `axnn evaluate` uses, so the
    /// exact-executor logits are bit-identical to evaluation.
    pub fn from_checkpoint_json(
        checkpoint_json: &str,
        opts: &ModelOptions,
    ) -> Result<Self, String> {
        let ckpt = Checkpoint::from_json(checkpoint_json).map_err(|e| e.to_string())?;
        Self::from_checkpoint(&ckpt, opts)
    }

    /// Restores an in-memory [`Checkpoint`] under `opts` — the JSON-free
    /// core of [`Self::from_checkpoint_json`]. Borrowing the checkpoint
    /// lets replica builds share one parsed copy ([`ServeSpec`]).
    pub fn from_checkpoint(ckpt: &Checkpoint, opts: &ModelOptions) -> Result<Self, String> {
        let cfg = model_config(opts);
        let mut net = Self::restore_net(ckpt, opts)?;
        // Compile after calibration so the backends bake in the frozen
        // quantizer steps.
        let exec = GraphExecutor::compile(&mut net).map_err(|e| e.to_string())?;
        Ok(ServedModel {
            exec,
            channels: cfg.input_channels,
            hw: opts.hw,
            classes: cfg.classes,
            label: format!("{}/{}", opts.model, opts.executor),
            // Resolved at checkpoint load: raw frames of any H×W×C are
            // resized/normalized into this model's input shape.
            preprocess: PreprocessSpec::for_input(cfg.input_channels, opts.hw),
        })
    }

    /// Restores `ckpt` under `opts`, swaps executors and calibrates: the
    /// interpreter network [`Self::from_checkpoint`] compiles. Once its
    /// batch norm is folded ([`axnn_nn::Layer::fold_batch_norm`], which
    /// compilation applies) it is the bit-exact oracle for served logits.
    pub fn restore_net(ckpt: &Checkpoint, opts: &ModelOptions) -> Result<Sequential, String> {
        let mut net = opts
            .model
            .restore(ckpt, &model_config(opts))
            .map_err(|e| e.to_string())?;

        match opts.executor {
            ServeExecutor::Exact => {}
            ServeExecutor::Quant => {
                quantize_network(
                    &mut net,
                    QuantSpec::activations_8bit(),
                    QuantSpec::weights_4bit(),
                );
            }
            ServeExecutor::Approx => {
                let spec = axnn_axmul::catalog::by_id(&opts.mult)
                    .ok_or_else(|| format!("unknown multiplier '{}'", opts.mult))?;
                let multiplier = spec.build();
                approximate_network(&mut net, multiplier.as_ref(), None);
            }
        }
        if opts.executor != ServeExecutor::Exact {
            // Freeze the activation quantizers on a deterministic synthetic
            // split; without this, batch-dependent abs-max fallbacks would
            // break batch invariance.
            let (calib, _) = SynthCifar::new(opts.hw).generate(opts.calib_samples, 0, opts.seed);
            calibrate(&mut net, &calib, 32, 2);
        }
        Ok(net)
    }

    /// Flattened input length one request must carry (`C*H*W`).
    pub fn input_len(&self) -> usize {
        self.channels * self.hw * self.hw
    }

    /// The preprocessing spec raw-frame requests are resolved with.
    pub fn preprocess_spec(&self) -> &PreprocessSpec {
        &self.preprocess
    }

    /// Number of output classes (logits per request).
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// `model/executor` label for profiles and reports.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Always `true`: every model serves through the compiled graph. Kept,
    /// like [`Self::fallback_reason`] and the `Option` of
    /// [`Self::plan_cache_stats`], for the benchmark harness's checks.
    pub fn is_compiled(&self) -> bool {
        true
    }

    /// Always `None`: there is no interpreter fallback.
    pub fn fallback_reason(&self) -> Option<&str> {
        None
    }

    /// Plan-cache hit/miss totals of the compiled executor (always `Some`).
    /// Steady-state traffic re-batches into a small set of shapes, so after
    /// warmup this should be nearly all hits.
    pub fn plan_cache_stats(&self) -> Option<PlanCacheStats> {
        Some(self.exec.cache_stats())
    }

    /// Runs one micro-batch through the compiled graph (eval mode) and
    /// splits the logits back per request.
    ///
    /// Per-sample outputs are bit-identical whether a request runs alone or
    /// inside a batch: every lowered GEMM column belongs to exactly one
    /// sample and is accumulated in the same k-order regardless of the
    /// batch around it, eval-mode batch norm uses running statistics, and
    /// all quantizer steps are frozen at load time.
    ///
    /// # Panics
    ///
    /// Panics if any input's length differs from [`Self::input_len`] — the
    /// server validates lengths at admission.
    pub fn forward_batch(&mut self, inputs: &[&[f32]]) -> Vec<Vec<f32>> {
        if inputs.is_empty() {
            return Vec::new();
        }
        let n = inputs.len();
        let len = self.input_len();
        let mut flat = Vec::with_capacity(n * len);
        for input in inputs {
            assert_eq!(input.len(), len, "input length must be validated upstream");
            flat.extend_from_slice(input);
        }
        let x = Tensor::from_vec(flat, &[n, self.channels, self.hw, self.hw])
            .expect("batch tensor shape");
        let logits = self.exec.forward(&x);
        let cols = logits.shape()[1];
        logits
            .as_slice()
            .chunks(cols)
            .map(|row| row.to_vec())
            .collect()
    }

    /// Logits for the deterministic canary input derived from `seed` — the
    /// reference point the hot-swap health check diffs old vs new models
    /// on. Also warms the batch-1 plan on a compiled model.
    pub fn canary_logits(&mut self, seed: u64) -> Vec<f32> {
        let mut rng = Rng::seed(seed);
        let input: Vec<f32> = (0..self.input_len())
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        self.forward_batch(&[&input]).remove(0)
    }
}

/// A recipe for building any number of bit-identical [`ServedModel`]
/// replicas: the parsed checkpoint is shared frozen behind an [`Arc`]
/// (weights are read once, never per replica), while every [`Self::build`]
/// call produces a model with its **own** network, compiled
/// [`GraphExecutor`] plan cache and scratch arena — replicas never contend
/// on mutable state. Restore, calibration and compilation are all
/// seed-deterministic, so two builds of the same spec serve bit-identical
/// logits.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    ckpt: Arc<Checkpoint>,
    opts: ModelOptions,
}

impl ServeSpec {
    /// Parses `checkpoint_json` once and captures the build options.
    pub fn from_json(checkpoint_json: &str, opts: &ModelOptions) -> Result<Self, String> {
        let ckpt = Checkpoint::from_json(checkpoint_json).map_err(|e| e.to_string())?;
        Ok(ServeSpec {
            ckpt: Arc::new(ckpt),
            opts: opts.clone(),
        })
    }

    /// Wraps an already-parsed checkpoint.
    pub fn from_checkpoint(ckpt: Checkpoint, opts: &ModelOptions) -> Self {
        ServeSpec {
            ckpt: Arc::new(ckpt),
            opts: opts.clone(),
        }
    }

    /// The build options the spec was captured with.
    pub fn options(&self) -> &ModelOptions {
        &self.opts
    }

    /// Builds one replica from the shared checkpoint.
    pub fn build(&self) -> Result<ServedModel, String> {
        ServedModel::from_checkpoint(&self.ckpt, &self.opts)
    }

    /// Builds `n` bit-identical replicas.
    pub fn build_replicas(&self, n: usize) -> Result<Vec<ServedModel>, String> {
        (0..n).map(|_| self.build()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axnn_nn::{Layer, Mode};
    use axnn_tensor::init;

    /// A tiny untrained 8×8, width-0.2 checkpoint of a BN-folding `kind`:
    /// enough to exercise restore + executor swap + calibration without a
    /// training run.
    fn tiny_checkpoint(kind: ModelKind) -> String {
        let mut cfg = ModelConfig::paper().with_width(0.2).with_input_hw(8);
        cfg.batch_norm = false;
        let mut net = kind.build(&cfg, &mut Rng::seed(3));
        Checkpoint::capture(&mut net).to_json()
    }

    fn opts(executor: ServeExecutor) -> ModelOptions {
        ModelOptions {
            width: 0.2,
            hw: 8,
            executor,
            calib_samples: 32,
            ..ModelOptions::default()
        }
    }

    #[test]
    fn loads_and_serves_every_executor_family() {
        let ckpt = tiny_checkpoint(ModelKind::ResNet20);
        for executor in [
            ServeExecutor::Exact,
            ServeExecutor::Quant,
            ServeExecutor::Approx,
        ] {
            let mut model = ServedModel::from_checkpoint_json(&ckpt, &opts(executor)).unwrap();
            assert_eq!(model.input_len(), 3 * 8 * 8);
            let mut rng = Rng::seed(11);
            let x = init::uniform(&[1, model.input_len()], -1.0, 1.0, &mut rng);
            let out = model.forward_batch(&[x.as_slice()]);
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].len(), model.classes());
            assert!(out[0].iter().all(|v| v.is_finite()), "{executor}");
        }
    }

    #[test]
    fn compiled_path_matches_interpreter_and_hits_plan_cache() {
        for kind in [ModelKind::ResNet20, ModelKind::LeNet] {
            let ckpt = Checkpoint::from_json(&tiny_checkpoint(kind)).unwrap();
            for executor in [
                ServeExecutor::Exact,
                ServeExecutor::Quant,
                ServeExecutor::Approx,
            ] {
                let opts = ModelOptions {
                    model: kind,
                    ..opts(executor)
                };
                let mut model = ServedModel::from_checkpoint(&ckpt, &opts).unwrap();
                assert_eq!(model.label(), format!("{kind}/{executor}"));
                let mut interp = ServedModel::restore_net(&ckpt, &opts).unwrap();
                interp.fold_batch_norm();

                let mut rng = Rng::seed(31);
                let x = init::uniform(&[1, 3, 8, 8], -1.0, 1.0, &mut rng);
                let a = model.forward_batch(&[x.as_slice()]);
                let b = interp.forward(&x, Mode::Eval);
                let ab: Vec<u32> = a[0].iter().map(|v| v.to_bits()).collect();
                let bb: Vec<u32> = b.as_slice().iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    ab, bb,
                    "{kind}/{executor}: compiled logits differ from interpreter"
                );

                // A second batch of the same shape must reuse the cached plan.
                model.forward_batch(&[x.as_slice()]);
                assert_eq!(
                    model.plan_cache_stats(),
                    Some(PlanCacheStats { hits: 1, misses: 1 }),
                    "{kind}/{executor}"
                );
            }
        }
    }

    #[test]
    fn unknown_model_and_multiplier_are_reported() {
        // An unknown architecture is refused when the name is parsed,
        // before any checkpoint is read.
        assert!("vgg"
            .parse::<ModelKind>()
            .unwrap_err()
            .contains("unknown model 'vgg' (use resnet20|"));
        let ckpt = tiny_checkpoint(ModelKind::ResNet20);
        let mut bad = opts(ServeExecutor::Approx);
        bad.mult = "nope".to_string();
        assert!(ServedModel::from_checkpoint_json(&ckpt, &bad)
            .unwrap_err()
            .contains("unknown multiplier"));
    }

    #[test]
    fn mismatched_checkpoint_is_an_error() {
        let ckpt = tiny_checkpoint(ModelKind::ResNet20);
        let mut other = opts(ServeExecutor::Exact);
        other.width = 0.5;
        assert!(ServedModel::from_checkpoint_json(&ckpt, &other)
            .unwrap_err()
            .contains("checkpoint mismatch"));
    }

    #[test]
    fn spec_builds_bit_identical_replicas_off_one_shared_checkpoint() {
        let ckpt = tiny_checkpoint(ModelKind::ResNet20);
        let spec = ServeSpec::from_json(&ckpt, &opts(ServeExecutor::Approx)).unwrap();
        let mut replicas = spec.build_replicas(3).unwrap();
        assert_eq!(replicas.len(), 3);
        let canaries: Vec<Vec<u32>> = replicas
            .iter_mut()
            .map(|m| m.canary_logits(7).iter().map(|v| v.to_bits()).collect())
            .collect();
        assert_eq!(canaries[0], canaries[1]);
        assert_eq!(canaries[0], canaries[2]);
        // Same seed, same replica → same canary; different seed → (almost
        // surely) different input, and a deterministic re-derivation.
        let again: Vec<u32> = replicas[0]
            .canary_logits(7)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(canaries[0], again);
    }

    #[test]
    fn batched_forward_matches_single_requests_bitwise() {
        let ckpt = tiny_checkpoint(ModelKind::ResNet20);
        let mut model =
            ServedModel::from_checkpoint_json(&ckpt, &opts(ServeExecutor::Approx)).unwrap();
        let mut rng = Rng::seed(21);
        let inputs: Vec<Tensor> = (0..5)
            .map(|_| init::uniform(&[model.input_len()], -1.0, 1.0, &mut rng))
            .collect();
        let views: Vec<&[f32]> = inputs.iter().map(|t| t.as_slice()).collect();
        let batched = model.forward_batch(&views);
        for (i, view) in views.iter().enumerate() {
            let alone = model.forward_batch(&[view]);
            let a: Vec<u32> = alone[0].iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = batched[i].iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "sample {i} differs alone vs batched");
        }
    }
}
