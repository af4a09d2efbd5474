//! Micro-benchmarks of the quantization substrate: tensor fake-quant,
//! code extraction and LUT offsets (at 64 k and column-matrix size),
//! MinPropQE calibration, and the power-of-two rounding ablation (pow2 vs
//! exact step).

use axnn_bench::timing::bench;
use axnn_nn::{LayerExecutor, Mode};
use axnn_quant::{round_step_pow2, QuantExecutor, QuantSpec, Quantizer};
use axnn_rng::Rng;
use axnn_tensor::init;
use std::hint::black_box;

fn bench_quantizer() {
    let mut rng = Rng::seed(2);
    let t = init::uniform(&[64, 1024], -2.0, 2.0, &mut rng);
    let q = Quantizer::for_abs_max(2.0, QuantSpec::activations_8bit());

    bench("quantizer/fake_quant_64k", 30, || {
        black_box(q.fake_quant_tensor(black_box(&t)));
    });
    bench("quantizer/quantize_codes_64k", 30, || {
        black_box(q.quantize_codes(black_box(&t)));
    });

    // Column-matrix size: the im2col matrices of one batch-32 forward of
    // ResNet-20 w0.25 on 16×16 inputs add up to about 3.2 M elements.
    let col = init::uniform(&[392, 8192], -2.0, 2.0, &mut rng);
    bench("quantizer/fake_quant_3m", 10, || {
        black_box(q.fake_quant_tensor(black_box(&col)));
    });
    bench("quantizer/quantize_codes_3m", 10, || {
        black_box(q.quantize_codes(black_box(&col)));
    });
    // The approximate product's pass: codes straight into u8 LUT offsets.
    let mut offsets = vec![0u8; col.len()];
    bench("quantizer/lut_offsets_3m", 10, || {
        q.map_codes(black_box(col.as_slice()), &mut offsets, |c| (c + 128) as u8);
        black_box(&offsets);
    });
    bench("quantizer/round_step_pow2", 30, || {
        black_box(round_step_pow2(black_box(0.013)));
    });
}

fn bench_calibration() {
    let mut rng = Rng::seed(3);
    let wmat = init::uniform(&[16, 64], -0.5, 0.5, &mut rng);
    let col = init::uniform(&[64, 64], -1.0, 1.0, &mut rng);

    // One MinPropQE calibration step: score the candidate steps on a
    // batch, freeze the winner, run the layer's forward under it.
    bench("calibration/min_prop_qe", 20, || {
        let mut ex = QuantExecutor::new_8a4w();
        black_box(ex.forward(black_box(&wmat), black_box(&col), Mode::Calibrate));
    });

    // Ablation: quantization error of pow2 step vs exact abs-max step.
    let spec_pow2 = QuantSpec {
        bits: 8,
        pow2_step: true,
    };
    let spec_exact = QuantSpec {
        bits: 8,
        pow2_step: false,
    };
    bench("calibration/pow2_step_error_eval", 20, || {
        let qp = Quantizer::for_abs_max(1.0, spec_pow2);
        let qe = Quantizer::for_abs_max(1.0, spec_exact);
        let ep = (&qp.fake_quant_tensor(&col) - &col).sq_norm();
        let ee = (&qe.fake_quant_tensor(&col) - &col).sq_norm();
        black_box((ep, ee));
    });
}

fn main() {
    bench_quantizer();
    bench_calibration();
}
