//! Golden digest of one short ApproxKD + GE fine-tune.
//!
//! The paper's stage 2 runs every quantizer in the workspace: the 8A4W
//! teacher's calibration and logits, the approximate student's MinPropQE
//! calibration, its LUT forward over activation codes, the `(1+K)`-scaled
//! STE backward over the fake-quantized operands, and the evaluation
//! passes. One FNV-1a digest over the teacher logits, the trained
//! parameters and the student's eval logits pins all of it bit for bit, so
//! a change to any quantize path that moves a single output bit fails here.

use approxnn::approxkd::{fine_tune, ExperimentEnv, Method, ModelKind, StageConfig};
use approxnn::axmul::catalog;
use approxnn::models::ModelConfig;
use approxnn::nn::train::{calibrate, logits_over};
use approxnn::nn::{Layer, Sequential};
use approxnn::proxsim::approximate_network;
use approxnn::quant::{quantize_network, QuantSpec};

/// FNV-1a over the little-endian bytes of each value's bit pattern.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, values: &[f32]) {
        for v in values {
            for b in v.to_bits().to_le_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

/// ResNet-20 `mini` without batch norm, on a 32/16 SynthCIFAR split.
fn env(seed: u64) -> ExperimentEnv {
    let mut cfg = ModelConfig::mini();
    cfg.batch_norm = false;
    ExperimentEnv::new(ModelKind::ResNet20, cfg, 32, 16, seed)
}

fn take_net(env: &mut ExperimentEnv) -> Sequential {
    std::mem::replace(env.fp_net_mut(), Sequential::empty())
}

#[test]
fn approx_kd_ge_fine_tune_is_pinned() {
    const SEED: u64 = 11;
    let stage = StageConfig::quick();
    let method = Method::approx_kd_ge(5.0);
    let spec = catalog::by_id("trunc5").expect("catalog entry");

    let mut teacher_env = env(SEED);
    let mut teacher = take_net(&mut teacher_env);
    quantize_network(
        &mut teacher,
        QuantSpec::activations_8bit(),
        QuantSpec::weights_4bit(),
    );
    calibrate(&mut teacher, teacher_env.train_data(), stage.batch, 2);
    let teacher_logits = logits_over(&mut teacher, teacher_env.train_data(), stage.batch);

    let mut env = env(SEED);
    let fit = env.fit_ge(spec);
    let mut student = take_net(&mut env);
    approximate_network(&mut student, spec.build().as_ref(), Some(fit.model));
    calibrate(&mut student, env.train_data(), stage.batch, 2);
    let result = fine_tune(
        &mut student,
        Some((
            &teacher_logits,
            method.temperature().expect("ApproxKD distills"),
        )),
        env.train_data(),
        env.test_data(),
        &stage,
        method.alpha(),
        method.label(),
    );
    assert!((0.0..=1.0).contains(&result.final_acc));

    let mut digest = Fnv::new();
    digest.eat(teacher_logits.as_slice());
    student.visit_params(&mut |p| digest.eat(p.value.as_slice()));
    digest.eat(logits_over(&mut student, env.test_data(), stage.batch).as_slice());
    assert_eq!(
        format!("{:016x}", digest.0),
        "90801cb2531b5d6f",
        "stage-2 bits moved: teacher logits, trained parameters or eval logits"
    );
}
