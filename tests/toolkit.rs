//! Integration of the supporting toolkit with the approximate pipeline:
//! the approximate accumulator and the `train_epoch` loop helper.

use approxnn::approxkd::pipeline::ModelKind;
use approxnn::approxkd::{ExperimentEnv, StageConfig};
use approxnn::axmul::adder::{ExactAdder, LoaAdder};
use approxnn::data::SynthCifar;
use approxnn::models::{lenet, ModelConfig};
use approxnn::nn::train::{evaluate, hard_loss, train_epoch, Dataset};
use approxnn::nn::{Layer, Mode, Sequential, StepDecay};
use approxnn::proxsim::{LutProduct, SignedLut};
use approxnn::quant::QuantExecutor;
use axnn_rng::Rng;
use std::sync::Arc;

fn fp_stage() -> StageConfig {
    StageConfig {
        epochs: 10,
        batch: 16,
        lr: StepDecay::new(0.05, 5, 0.5),
        momentum: 0.9,
        track_epochs: false,
        clip_norm: Some(10.0),
    }
}

#[test]
fn approximate_accumulator_degrades_network_accuracy_monotonically() {
    let cfg = ModelConfig::mini().with_width(0.2).with_input_hw(8);
    let mut env = ExperimentEnv::new(ModelKind::ResNet20, cfg, 120, 60, 35);
    env.train_fp(&fp_stage());
    env.quantization_stage(&StageConfig::quick().with_epochs(1), true);

    let lut = Arc::new(SignedLut::build(&approxnn::axmul::ExactMul));
    let acc_with = |env: &mut ExperimentEnv, adder: Arc<dyn approxnn::axmul::adder::Adder>| {
        let mut net = env.quantized_copy();
        net.visit_gemm_cores(&mut |core| {
            core.set_executor(Box::new(QuantExecutor::new_8a4w().with_product(
                LutProduct::new(Arc::clone(&lut), None).with_adder(Arc::clone(&adder)),
            )));
        });
        approxnn::nn::train::calibrate(&mut net, env.train_data(), 16, 2);
        evaluate(&mut net, env.test_data(), 16)
    };
    let exact = acc_with(&mut env, Arc::new(ExactAdder));
    let mild = acc_with(&mut env, Arc::new(LoaAdder::new(2)));
    let harsh = acc_with(&mut env, Arc::new(LoaAdder::new(8)));
    assert!(
        exact >= mild - 0.1,
        "loa2 should be mild: {exact} vs {mild}"
    );
    assert!(
        harsh <= exact,
        "loa8 must not beat exact accumulation: {harsh} vs {exact}"
    );
}

#[test]
fn sgd_training_loop_helper_matches_manual_loop() {
    // train_epoch and a hand-rolled loop must produce identical networks
    // (same order of operations).
    let gen = SynthCifar::new(8);
    let (train, _) = gen.generate(48, 8, 36);
    let build = || -> Sequential {
        let mut rng = Rng::seed(99);
        let cfg = ModelConfig::mini().with_width(0.25).with_input_hw(8);
        lenet(&cfg, &mut rng)
    };
    let run_helper = |data: &Dataset| {
        let mut net = build();
        let mut opt = approxnn::nn::Sgd::new(0.01).momentum(0.9);
        train_epoch(&mut net, data, 16, &mut opt, &mut hard_loss);
        let mut params = Vec::new();
        net.visit_params(&mut |p| params.push(p.value.clone()));
        params
    };
    let run_manual = |data: &Dataset| {
        let mut net = build();
        let mut opt = approxnn::nn::Sgd::new(0.01).momentum(0.9);
        for (x, y) in data.batches(16) {
            net.zero_grad();
            let logits = net.forward(&x, Mode::Train);
            let (_, d) = approxnn::nn::loss::softmax_cross_entropy(&logits, y);
            net.backward(&d);
            opt.step(&mut net);
        }
        let mut params = Vec::new();
        net.visit_params(&mut |p| params.push(p.value.clone()));
        params
    };
    // Dropout consumes its own RNG identically in both runs (same seed 99
    // and same batch order), so the parameter trajectories must agree.
    assert_eq!(run_helper(&train), run_manual(&train));
}
