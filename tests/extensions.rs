//! Integration tests for the extension features: arbitrary bit widths,
//! partial approximation, and checkpointing across the pipeline.

use approxnn::approxkd::pipeline::{ModelKind, TeacherSource};
use approxnn::approxkd::{ExperimentEnv, Method, StageConfig};
use approxnn::axmul::catalog;
use approxnn::models::ModelConfig;
use approxnn::nn::{Checkpoint, ExecutorKind, Layer, StepDecay};
use approxnn::quant::QuantSpec;

fn stage(epochs: usize) -> StageConfig {
    StageConfig {
        epochs,
        batch: 16,
        lr: StepDecay::new(2e-3, 2, 0.5),
        momentum: 0.9,
        track_epochs: false,
        clip_norm: Some(10.0),
    }
}

fn fp_stage() -> StageConfig {
    StageConfig {
        epochs: 12,
        batch: 16,
        lr: StepDecay::new(0.05, 6, 0.5),
        momentum: 0.9,
        track_epochs: false,
        clip_norm: Some(10.0),
    }
}

fn tiny_env(seed: u64) -> ExperimentEnv {
    let cfg = ModelConfig::mini().with_width(0.2).with_input_hw(8);
    ExperimentEnv::new(ModelKind::ResNet20, cfg, 120, 60, seed)
}

#[test]
fn lower_bitwidths_degrade_monotonically_before_ft() {
    let mut env = tiny_env(21);
    env.train_fp(&fp_stage());
    let x = QuantSpec::activations_8bit();
    let mut before = Vec::new();
    for bits in [8u32, 4, 2] {
        let r = env.quantization_stage_with(&stage(1), false, 1.0, x, QuantSpec::symmetric(bits));
        before.push(r.acc_before_ft);
    }
    // 8-bit weights must be at least as good as 2-bit before fine-tuning.
    assert!(
        before[0] >= before[2] - 0.02,
        "8-bit {} vs 2-bit {}",
        before[0],
        before[2]
    );
    // 8-bit weights barely lose anything relative to FP.
    assert!(
        before[0] > env.fp_accuracy() - 0.1,
        "8A8W dropped too much: {} vs FP {}",
        before[0],
        env.fp_accuracy()
    );
}

#[test]
fn partial_approximation_selects_only_requested_layers() {
    let mut env = tiny_env(22);
    env.train_fp(&fp_stage());
    env.quantization_stage(&stage(1), true);
    let n = env.gemm_layer_count();
    assert!(n > 3, "ResNet-20 has many GEMM layers: {n}");

    let spec = catalog::by_id("trunc5").expect("catalogued");
    // Approximating zero layers == fully quantized baseline.
    let mut partial = |select: &dyn Fn(usize) -> bool| {
        env.approximation_stage_full(
            spec,
            Method::Normal,
            &stage(0),
            TeacherSource::Quantized,
            |i, _| select(i),
        )
    };
    let none = partial(&|_| false);
    let all = partial(&|_| true);
    // trunc5 is harsh: the fully approximated model must be worse than the
    // unapproximated one before fine-tuning.
    assert!(
        none.initial_acc > all.initial_acc + 0.02,
        "full approximation should hurt: none {} vs all {}",
        none.initial_acc,
        all.initial_acc
    );

    // Half approximation sits in between (weakly).
    let half = partial(&|i| i < n / 2);
    assert!(half.initial_acc >= all.initial_acc - 0.05);
    assert!(half.initial_acc <= none.initial_acc + 0.05);
}

#[test]
fn partial_selection_is_visible_in_executor_kinds() {
    use approxnn::axmul::TruncatedMul;
    use approxnn::proxsim::{approximate_network_assigned, SignedLut};
    use axnn_rng::Rng;
    use std::sync::Arc;
    let mut rng = Rng::seed(5);
    let cfg = ModelConfig::mini().with_width(0.2).with_input_hw(8);
    let mut net = approxnn::models::resnet20(&cfg, &mut rng);
    let mut layers = 0;
    net.visit_gemm_cores(&mut |_| layers += 1);
    let lut = Arc::new(SignedLut::build(&TruncatedMul::new(3)));
    let assignment: Vec<_> = (0..layers)
        .map(|i| (i % 2 == 0).then(|| (Arc::clone(&lut), None)))
        .collect();
    approximate_network_assigned(&mut net, &assignment);
    let mut kinds = Vec::new();
    net.visit_gemm_cores(&mut |c| kinds.push(c.executor.kind()));
    let approx = kinds
        .iter()
        .filter(|&&k| k == ExecutorKind::Approximate)
        .count();
    let quant = kinds
        .iter()
        .filter(|&&k| k == ExecutorKind::Quantized)
        .count();
    assert!(approx > 0 && quant > 0, "{kinds:?}");
    assert_eq!(approx + quant, kinds.len());
    assert_eq!(kinds[0], ExecutorKind::Approximate);
    assert_eq!(kinds[1], ExecutorKind::Quantized);
}

#[test]
fn checkpoint_survives_pipeline_and_preserves_fp_teacher() {
    let mut env = tiny_env(23);
    env.train_fp(&fp_stage());
    let acc = env.fp_accuracy();
    let ckpt = Checkpoint::capture(env.fp_net_mut());
    assert!(ckpt.param_tensors() > 10);

    // Restore into a freshly built (BN-less, matching the folded teacher)
    // architecture and check eval equivalence on the test split.
    use axnn_rng::Rng;
    let mut rng = Rng::seed(0xfeed);
    let mut cfg = ModelConfig::mini().with_width(0.2).with_input_hw(8);
    cfg.batch_norm = false;
    let mut fresh = approxnn::models::resnet20(&cfg, &mut rng);
    ckpt.restore(&mut fresh).expect("same architecture");
    let restored_acc = approxnn::nn::train::evaluate(&mut fresh, env.test_data(), 16);
    assert!(
        (restored_acc - acc).abs() < 1e-6,
        "restored {restored_acc} vs original {acc}"
    );
}
