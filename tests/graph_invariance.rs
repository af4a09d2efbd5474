//! Property tests for the compiled graph executor's central guarantee:
//! [`GraphExecutor::forward`] is **bit-identical** to the `Sequential`
//! interpreter in eval mode — for every executor family (exact, quantized,
//! approximate, approximate with a gradient-estimation model), every batch
//! shape, and every worker count.
//!
//! `GraphExecutor::compile` folds batch norm into the source network, so
//! each case compiles first and then runs the interpreter on the same
//! (folded) weights — exactly the contract every inference path (evaluate,
//! serve, search scoring) relies on, since none keeps an interpreter
//! fallback.
//!
//! `set_threads` is process-global, so every case body takes [`serial`]
//! (same pattern as tests/thread_invariance.rs).
//!
//! [`GraphExecutor::forward`]: approxnn::nn::GraphExecutor::forward

use approxnn::axmul::TruncatedMul;
use approxnn::data::SynthCifar;
use approxnn::models::{resnet20, ModelConfig};
use approxnn::nn::train::evaluate_with;
use approxnn::nn::{
    ActivationKind, Checkpoint, ConvBlock, Flatten, GlobalAvgPool, GraphExecutor, Layer, Linear,
    Mode, Residual, Sequential,
};
use approxnn::obs::{self, Counter};
use approxnn::par;
use approxnn::proxsim::{approximate_network, PiecewiseLinearError};
use approxnn::quant::{quantize_network, QuantSpec};
use approxnn::tensor::{init, Tensor};
use axnn_rng::{cases, Rng};
use std::sync::{Mutex, MutexGuard};

/// Serializes all case bodies in this binary (see the module docs).
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A paper-shaped miniature: conv+BN+ReLU stem, a residual block, a
/// grouped conv, global pooling and a biased classifier head — one of
/// every construct the graph compiler must lower.
fn model(rng: &mut Rng) -> Sequential {
    let main = Sequential::new(vec![Box::new(ConvBlock::new(
        6,
        6,
        3,
        1,
        1,
        1,
        true,
        ActivationKind::Identity,
        rng,
    )) as Box<dyn Layer>]);
    Sequential::new(vec![
        Box::new(ConvBlock::new(
            3,
            6,
            3,
            1,
            1,
            1,
            true,
            ActivationKind::Relu,
            rng,
        )),
        Box::new(Residual::new(main, None, ActivationKind::Relu)),
        Box::new(ConvBlock::new(
            6,
            8,
            3,
            2,
            1,
            2,
            true,
            ActivationKind::Relu6,
            rng,
        )),
        Box::new(GlobalAvgPool::new()),
        Box::new(Flatten::new()),
        Box::new(Linear::new(8, 5, true, rng)),
    ])
}

/// Installs one of the four executor families on a fresh model: exact,
/// quantized, approximate, and approximate with a sloped GE error model.
fn build(seed: u64, family: usize) -> Sequential {
    let mut net = model(&mut Rng::seed(seed));
    install(&mut net, family);
    net
}

/// Swaps executor family `family` (see [`build`]) into every GEMM layer.
fn install(net: &mut Sequential, family: usize) {
    match family {
        1 => quantize_network(
            net,
            QuantSpec::activations_8bit(),
            QuantSpec::weights_4bit(),
        ),
        2 => approximate_network(net, &TruncatedMul::new(5), None),
        3 => approximate_network(
            net,
            &TruncatedMul::new(5),
            Some(PiecewiseLinearError::new(-0.05, 0.0, -10.0, 10.0)),
        ),
        _ => {}
    }
}

/// Freezes every 8A4W layer's activation step on one seeded batch, as
/// every program that compiles a quantized net does first.
fn calibrate(net: &mut Sequential, seed: u64, hw: usize) {
    let x = init::uniform(&[4, 3, hw, hw], -1.0, 1.0, &mut Rng::seed(seed ^ 0xCA1B));
    net.forward(&x, Mode::Calibrate);
}

/// The compiled path reproduces the interpreter bit for bit across
/// executor families, calibrated or on the dynamic abs-max step, a
/// sequence of batch shapes, and thread counts — and its plan cache misses
/// exactly once per distinct shape.
#[test]
fn compiled_is_bit_identical_to_interpreter() {
    cases(24, |mut rng| {
        let seed = rng.gen_range(0u64..60);
        let family = rng.gen_range(0usize..4);
        let batches = (0..rng.gen_range(1..4))
            .map(|_| rng.gen_range(1usize..5))
            .collect::<Vec<_>>();
        let hw = rng.gen_range(6usize..9);
        let threads = rng.gen_range(2usize..9);
        let calibrated = family > 0 && rng.gen_bool(0.5);
        let _g = serial();
        par::set_threads(threads);
        let mut net = build(seed, family);
        if calibrated {
            calibrate(&mut net, seed, hw);
        }
        let mut exec = GraphExecutor::compile(&mut net).expect("model must lower");

        let mut r = Rng::seed(seed ^ 0x9E37);
        let mut seen = std::collections::HashSet::new();
        for &n in &batches {
            seen.insert(n);
            let x = init::uniform(&[n, 3, hw, hw], -1.0, 1.0, &mut r);
            let want = net.forward(&x, Mode::Eval);
            let got = exec.forward(&x);
            assert_eq!(
                bits(&want),
                bits(&got),
                "family {family} calibrated {calibrated} batch {n}"
            );
            // The compiled kernels themselves must be worker-count
            // invariant: re-run the same batch single-threaded.
            par::set_threads(1);
            let got_one = exec.forward(&x);
            par::set_threads(threads);
            assert_eq!(
                bits(&got),
                bits(&got_one),
                "thread variance, family {}",
                family
            );
        }
        par::set_threads(0);

        // Two lookups per batch; only the first sight of a shape plans.
        let stats = exec.cache_stats();
        assert_eq!(stats.misses, seen.len() as u64);
        assert_eq!(stats.hits, 2 * batches.len() as u64 - seen.len() as u64);
        assert_eq!(exec.plan_count(), seen.len());
    });
}

/// A conv op's plan is its output alone in every family: after one
/// forward, the calibrated quantized and approximate arenas equal the
/// exact family's for the same net and shape.
#[test]
fn conv_plans_hold_no_scratch_in_any_family() {
    let _g = serial();
    let x = init::uniform(&[3, 3, 8, 8], -1.0, 1.0, &mut Rng::seed(5));
    let arena = |family| {
        let mut net = build(7, family);
        if family > 0 {
            calibrate(&mut net, 7, 8);
        }
        let mut exec = GraphExecutor::compile(&mut net).expect("model must lower");
        exec.forward(&x);
        exec.arena_bytes()
    };
    let exact = arena(0);
    assert!(exact > 0);
    for family in 1..4 {
        assert_eq!(arena(family), exact, "family {family}");
    }
}

/// A rank-2 graph: an MLP (`Linear → ReLU → Linear`) on `[N, F]` inputs,
/// whose linears lower to 1×1 conv ops, matches the interpreter bit for bit
/// in every family, calibrated or on the dynamic abs-max step, at batches
/// 1–4, on one thread and on several.
#[test]
fn mlp_on_rank_two_inputs_is_bit_identical_to_interpreter() {
    let _g = serial();
    for family in 0..4 {
        for calibrated in [false, true] {
            let mut rng = Rng::seed(90 + family as u64);
            let mut net = Sequential::new(vec![
                Box::new(Linear::new(12, 16, true, &mut rng)) as Box<dyn Layer>,
                Box::new(approxnn::nn::Activation::new(ActivationKind::Relu)),
                Box::new(Linear::new(16, 5, true, &mut rng)),
            ]);
            install(&mut net, family);
            if calibrated {
                net.forward(
                    &init::uniform(&[4, 12], -1.0, 1.0, &mut rng),
                    Mode::Calibrate,
                );
            }
            let mut exec = GraphExecutor::compile(&mut net).expect("mlp lowers");
            for n in 1..=4 {
                let x = init::uniform(&[n, 12], -1.5, 1.5, &mut rng);
                let want = net.forward(&x, Mode::Eval);
                for threads in [1, 3] {
                    par::set_threads(threads);
                    let got = exec.forward(&x);
                    let what = format!("family {family} calibrated {calibrated} batch {n}");
                    assert_eq!(got.shape(), &[n, 5], "{what}");
                    assert_eq!(bits(&want), bits(&got), "{what} threads {threads}");
                }
            }
        }
    }
    par::set_threads(0);
}

/// Compiling must leave the source network inference-equivalent: the
/// interpreter produces the same logits before and after the BN fold
/// that `compile` performs (allowing for float re-association in the
/// folded weights).
#[test]
fn compile_keeps_interpreter_equivalent() {
    cases(24, |mut rng| {
        let seed = rng.gen_range(0u64..60);
        let n = rng.gen_range(1usize..4);
        let hw = rng.gen_range(6usize..9);
        let _g = serial();
        let mut net = build(seed, 0);
        let x = init::uniform(&[n, 3, hw, hw], -1.0, 1.0, &mut Rng::seed(seed ^ 0xF0));
        let before = net.forward(&x, Mode::Eval);
        let _exec = GraphExecutor::compile(&mut net).expect("model must lower");
        let after = net.forward(&x, Mode::Eval);
        for (a, b) in before.as_slice().iter().zip(after.as_slice()) {
            assert!((a - b).abs() <= 1e-4 * (1.0 + a.abs()), "{} vs {}", a, b);
        }
    });
}

/// A saved checkpoint scores the same through both engines: a seeded
/// BN-free ResNet-20 (w0.2, 8x8) survives a JSON round trip, is restored
/// the way `axnn evaluate` restores it, and 32 SynthCIFAR test images give
/// bit-identical logits, equal accuracy and an equal GEMM MAC count
/// through the interpreter and through the compiled graph.
#[test]
fn restored_checkpoint_scores_identically_on_both_engines() {
    let _g = serial();
    let mut cfg = ModelConfig::paper().with_width(0.2).with_input_hw(8);
    cfg.batch_norm = false;
    let json = Checkpoint::capture(&mut resnet20(&cfg, &mut Rng::seed(3))).to_json();
    let seed = 1u64;
    let mut net = resnet20(&cfg, &mut Rng::seed(seed ^ 0xdead));
    Checkpoint::from_json(&json)
        .expect("checkpoint parses")
        .restore(&mut net)
        .expect("architecture matches");
    let test = SynthCifar::new(8).generate(0, 32, seed).1;
    let mut exec = GraphExecutor::compile(&mut net).expect("resnet20 lowers");

    // Scores `test` through `forward` with counters on: (logit bits,
    // accuracy, GEMM MACs).
    let score = |forward: &mut dyn FnMut(&Tensor) -> Tensor| {
        let mut logits = Vec::new();
        obs::reset();
        obs::set_enabled(true);
        let acc = evaluate_with(
            |x| {
                let y = forward(x);
                logits.extend(bits(&y));
                y
            },
            &test,
            32,
        );
        obs::set_enabled(false);
        (logits, acc, obs::counter(Counter::GemmMacs))
    };
    let interp = score(&mut |x| net.forward(x, Mode::Eval));
    let compiled = score(&mut |x| exec.forward(x));
    obs::reset();
    assert_eq!(interp.0.len(), 32 * 10);
    assert_eq!(interp.0, compiled.0, "logit bits differ");
    assert_eq!(interp.1, compiled.1, "accuracy differs");
    assert!(interp.2 > 0, "the interpreter counted no GEMM work");
    assert_eq!(interp.2, compiled.2, "GEMM MAC counts differ");
}
