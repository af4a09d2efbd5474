//! End-to-end integration tests: the full Algorithm-1 pipeline across all
//! workspace crates at tiny scale.

use approxnn::approxkd::pipeline::ModelKind;
use approxnn::approxkd::{ExperimentEnv, Method, StageConfig};
use approxnn::axmul::catalog;
use approxnn::models::ModelConfig;
use approxnn::nn::{Checkpoint, Layer, Mode, StepDecay};
use approxnn::serve::{Client, ModelOptions, QueueConfig, ServeExecutor, ServeSpec, Server};

fn fp_cfg() -> StageConfig {
    StageConfig {
        epochs: 12,
        batch: 16,
        lr: StepDecay::new(0.05, 6, 0.5),
        momentum: 0.9,
        track_epochs: false,
        clip_norm: Some(10.0),
    }
}

fn ft_cfg() -> StageConfig {
    StageConfig {
        epochs: 2,
        batch: 16,
        lr: StepDecay::new(2e-3, 2, 0.5),
        momentum: 0.9,
        track_epochs: false,
        clip_norm: Some(10.0),
    }
}

fn tiny_env(kind: ModelKind, seed: u64) -> ExperimentEnv {
    let cfg = ModelConfig::mini().with_width(0.2).with_input_hw(8);
    ExperimentEnv::new(kind, cfg, 120, 60, seed)
}

#[test]
fn resnet_pipeline_learns_quantizes_and_recovers() {
    let mut env = tiny_env(ModelKind::ResNet20, 3);
    let fp = env.train_fp(&fp_cfg());
    assert!(fp > 0.4, "FP training failed: {fp}");

    let q = env.quantization_stage(&ft_cfg(), true);
    // 8A4W costs accuracy before fine-tuning but stays above chance;
    // fine-tuning recovers most of the drop (Table II shape).
    assert!(
        q.acc_before_ft > 0.15,
        "8A4W collapsed: {}",
        q.acc_before_ft
    );
    assert!(
        q.acc_after_ft > q.acc_before_ft - 0.05,
        "stage-1 FT regressed: {} -> {}",
        q.acc_before_ft,
        q.acc_after_ft
    );

    // A harsh multiplier degrades the quantized model; fine-tuning recovers.
    let spec = catalog::by_id("trunc4").expect("catalogued");
    let r = env.approximation_stage(spec, Method::approx_kd_ge(5.0), &ft_cfg());
    assert!(r.final_acc >= r.initial_acc - 0.05, "{r:?}");
    assert!(r.final_acc <= 1.0 && r.initial_acc >= 0.0);
}

#[test]
fn evo249_cannot_be_recovered() {
    // Paper §IV-B: at 48.8 % MRE the network only performs random guessing,
    // no matter the fine-tuning method.
    let mut env = tiny_env(ModelKind::ResNet20, 4);
    env.train_fp(&fp_cfg());
    env.quantization_stage(&ft_cfg(), true);
    let spec = catalog::by_id("evo249").expect("catalogued");
    for method in [Method::Normal, Method::approx_kd_ge(10.0)] {
        let r = env.approximation_stage(spec, method, &ft_cfg());
        assert!(
            r.final_acc < 0.45,
            "evo249 should stay near chance, got {}",
            r.final_acc
        );
    }
}

#[test]
fn ge_equals_plain_ste_for_unbiased_multipliers() {
    // Paper §IV-B: the EvoApprox error fits a constant, so GE and normal
    // fine-tuning follow identical trajectories (same seeds, same updates).
    let mut env = tiny_env(ModelKind::ResNet20, 5);
    env.train_fp(&fp_cfg());
    env.quantization_stage(&ft_cfg(), true);
    let spec = catalog::by_id("evo228").expect("catalogued");
    let normal = env.approximation_stage(spec, Method::Normal, &ft_cfg());
    let ge = env.approximation_stage(spec, Method::Ge, &ft_cfg());
    assert_eq!(
        normal.initial_acc, ge.initial_acc,
        "same deterministic setup"
    );
    assert!(
        (normal.final_acc - ge.final_acc).abs() < 1e-6,
        "GE must equal Normal for unbiased multipliers: {} vs {}",
        normal.final_acc,
        ge.final_acc
    );
}

#[test]
fn mobilenet_pipeline_runs_with_kept_bn() {
    let cfg = ModelConfig::mini().with_width(0.25).with_input_hw(8);
    let mut env = ExperimentEnv::new(ModelKind::MobileNetV2, cfg, 160, 60, 6);
    let mut mb_fp = fp_cfg();
    mb_fp.epochs = 20; // the deep inverted-residual stack needs more steps
    let fp = env.train_fp(&mb_fp);
    assert!(fp > 0.3, "MobileNetV2 FP training collapsed: {fp}");
    let q = env.quantization_stage(&ft_cfg(), true);
    assert!(q.acc_after_ft >= 0.0 && q.acc_after_ft <= 1.0);
    let spec = catalog::by_id("trunc3").expect("catalogued");
    let r = env.approximation_stage(spec, Method::approx_kd_ge(6.0), &ft_cfg());
    assert!(r.final_acc >= 0.0 && r.final_acc <= 1.0);

    // The saved quantized model (BN kept) restores into a served model for
    // every executor family, and each serves over the wire with logits
    // bit-identical to the interpreter on a BN-folded copy.
    let ckpt = Checkpoint::capture(&mut env.quantized_copy());
    let json = ckpt.to_json();
    let ckpt = Checkpoint::from_json(&json).expect("checkpoint parses");
    let x = approxnn::tensor::init::uniform(&[2, 3, 8, 8], -1.0, 1.0, &mut axnn_rng::Rng::seed(9));
    for executor in [
        ServeExecutor::Exact,
        ServeExecutor::Quant,
        ServeExecutor::Approx,
    ] {
        let opts = ModelOptions {
            model: ModelKind::MobileNetV2,
            width: 0.25,
            hw: 8,
            executor,
            mult: "trunc3".to_string(),
            calib_samples: 32,
            ..ModelOptions::default()
        };
        let mut oracle = approxnn::serve::ServedModel::restore_net(&ckpt, &opts)
            .expect("mobilenet checkpoint restores");
        oracle.fold_batch_norm();
        let want = oracle.forward(&x, Mode::Eval);
        let want_bits = |i: usize| -> Vec<u32> {
            want.as_slice()[i * 10..(i + 1) * 10]
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };

        let spec = ServeSpec::from_checkpoint(ckpt.clone(), &opts);
        let mut model = spec.build().expect("mobilenet model compiles");
        let views: Vec<&[f32]> = x.as_slice().chunks(3 * 8 * 8).collect();
        for (i, logits) in model.forward_batch(&views).iter().enumerate() {
            let got: Vec<u32> = logits.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want_bits(i), "{executor} sample {i}: in-process");
        }

        let mut server = Server::start(
            &spec,
            "127.0.0.1:0",
            QueueConfig {
                capacity: 8,
                max_batch: 2,
            },
            1,
        )
        .expect("bind ephemeral port");
        let mut client = Client::connect(server.addr()).expect("connect");
        for (i, view) in views.iter().enumerate() {
            let msg = client.infer(i as u64, view).expect("round trip");
            assert_eq!(msg.status, "ok", "{executor} request {i}: {}", msg.detail);
            let got: Vec<u32> = msg.logits.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want_bits(i), "{executor} sample {i}: served");
        }
        assert_eq!(client.command("shutdown").expect("ack").status, "draining");
        drop(client);
        server.join();
    }
}

#[test]
fn resnet32_pipeline_runs() {
    let mut env = tiny_env(ModelKind::ResNet32, 7);
    let fp = env.train_fp(&fp_cfg());
    assert!(fp > 0.3, "ResNet-32 FP training failed: {fp}");
    env.quantization_stage(&ft_cfg(), true);
    let spec = catalog::by_id("trunc3").expect("catalogued");
    let r = env.approximation_stage(spec, Method::approx_kd(2.0), &ft_cfg());
    assert!(r.final_acc > 0.1, "{r:?}");
}
