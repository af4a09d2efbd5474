//! Cross-crate consistency of the three execution engines: exact,
//! quantized (8A4W) and approximate (LUT-served).

use approxnn::axmul::{ExactMul, TruncatedMul};
use approxnn::nn::{
    ActivationKind, ConvBlock, ExecutorKind, Flatten, GlobalAvgPool, Layer, Linear, Mode,
    Sequential,
};
use approxnn::proxsim::approximate_network;
use approxnn::quant::{quantize_network, QuantSpec};
use approxnn::tensor::{init, Tensor};
use axnn_rng::Rng;

fn convnet(rng: &mut Rng) -> Sequential {
    Sequential::new(vec![
        Box::new(ConvBlock::new(
            3,
            6,
            3,
            1,
            1,
            1,
            false,
            ActivationKind::Relu,
            rng,
        )),
        Box::new(ConvBlock::new(
            6,
            12,
            3,
            2,
            1,
            1,
            false,
            ActivationKind::Relu,
            rng,
        )),
        Box::new(GlobalAvgPool::new()),
        Box::new(Flatten::new()),
        Box::new(Linear::new(12, 10, true, rng)),
    ])
}

fn logits(net: &mut Sequential, x: &Tensor) -> Tensor {
    net.forward(x, Mode::Eval)
}

#[test]
fn approximate_with_exact_multiplier_equals_quantized() {
    let mut rng = Rng::seed(40);
    let mut quant_net = convnet(&mut rng);
    let mut rng2 = Rng::seed(40);
    let mut approx_net = convnet(&mut rng2);

    quantize_network(
        &mut quant_net,
        QuantSpec::activations_8bit(),
        QuantSpec::weights_4bit(),
    );
    approximate_network(&mut approx_net, &ExactMul, None);

    let x = init::uniform(&[2, 3, 8, 8], -1.0, 1.0, &mut rng);
    let a = logits(&mut quant_net, &x);
    let b = logits(&mut approx_net, &x);
    // Pow2 scales times small integer codes: every product and partial sum
    // of the f32 GEMM is exact, so it equals the LUT's i64 sum bit for bit.
    for (p, q) in a.as_slice().iter().zip(b.as_slice()) {
        assert_eq!(p.to_bits(), q.to_bits(), "{p} vs {q}");
    }
}

#[test]
fn quantized_network_is_close_to_fp_network() {
    let mut rng = Rng::seed(41);
    let mut net = convnet(&mut rng);
    let x = init::uniform(&[2, 3, 8, 8], -1.0, 1.0, &mut rng);
    let fp = logits(&mut net, &x);
    quantize_network(
        &mut net,
        QuantSpec::activations_8bit(),
        QuantSpec::weights_4bit(),
    );
    let q = logits(&mut net, &x);
    // 4-bit weights are coarse; demand ballpark agreement, not equality.
    let rel = (&q - &fp).sq_norm().sqrt() / fp.sq_norm().sqrt().max(1e-6);
    assert!(rel < 0.5, "relative logit deviation {rel}");
}

#[test]
fn executor_swaps_preserve_parameters_and_report_kind() {
    let mut rng = Rng::seed(42);
    let mut net = convnet(&mut rng);
    let params_before = net.param_count();

    let mut kinds = Vec::new();
    net.visit_gemm_cores(&mut |c| kinds.push(c.executor.kind()));
    assert!(kinds.iter().all(|&k| k == ExecutorKind::Exact));

    quantize_network(
        &mut net,
        QuantSpec::activations_8bit(),
        QuantSpec::weights_4bit(),
    );
    assert_eq!(net.param_count(), params_before);

    approximate_network(&mut net, &TruncatedMul::new(4), None);
    let mut kinds = Vec::new();
    net.visit_gemm_cores(&mut |c| kinds.push(c.executor.kind()));
    assert!(kinds.iter().all(|&k| k == ExecutorKind::Approximate));
    assert_eq!(net.param_count(), params_before);
}

#[test]
fn approximate_backward_trains_without_nans() {
    let mut rng = Rng::seed(43);
    let mut net = convnet(&mut rng);
    approximate_network(&mut net, &TruncatedMul::new(5), None);
    let x = init::uniform(&[4, 3, 8, 8], -1.0, 1.0, &mut rng);
    let mut opt = approxnn::nn::Sgd::new(1e-3).momentum(0.9);
    for _ in 0..5 {
        net.zero_grad();
        let y = net.forward(&x, Mode::Train);
        let (_, d) = approxnn::nn::loss::softmax_cross_entropy(&y, &[0, 1, 2, 3]);
        net.backward(&d);
        opt.step(&mut net);
    }
    let mut finite = true;
    net.visit_params(&mut |p| finite &= p.value.as_slice().iter().all(|v| v.is_finite()));
    assert!(
        finite,
        "weights must stay finite under approximate training"
    );
}

#[test]
fn depthwise_conv_works_under_all_executors() {
    let mut rng = Rng::seed(44);
    let build = |rng: &mut Rng| {
        Sequential::new(vec![
            Box::new(ConvBlock::new(
                4,
                4,
                3,
                1,
                1,
                4,
                false,
                ActivationKind::Relu6,
                rng,
            )) as Box<dyn Layer>,
            Box::new(GlobalAvgPool::new()),
            Box::new(Flatten::new()),
        ])
    };
    let x = init::uniform(&[1, 4, 6, 6], -1.0, 1.0, &mut rng);
    let mut fp = build(&mut Rng::seed(99));
    let y_fp = fp.forward(&x, Mode::Eval);

    let mut qn = build(&mut Rng::seed(99));
    quantize_network(
        &mut qn,
        QuantSpec::activations_8bit(),
        QuantSpec::activations_8bit(),
    );
    let y_q = qn.forward(&x, Mode::Eval);
    for (a, b) in y_fp.as_slice().iter().zip(y_q.as_slice()) {
        assert!((a - b).abs() < 0.05, "8-bit depthwise deviates: {a} vs {b}");
    }

    let mut an = build(&mut Rng::seed(99));
    approximate_network(&mut an, &ExactMul, None);
    let y_a = an.forward(&x, Mode::Eval);
    assert_eq!(y_a.shape(), y_fp.shape());
}
