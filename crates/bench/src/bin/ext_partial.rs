//! Extension experiment (paper §II): partial vs full approximation.
//!
//! The paper argues that partial approximation "delivers acceptable
//! trade-offs … but these are bounded by the amount of approximated
//! neurons", motivating its full-approximation + fine-tuning approach.
//! This harness quantifies that: approximate the first `k` of the `n` GEMM
//! layers with trunc5, fine-tune with ApproxKD+GE, and chart accuracy
//! against the approximated fraction.

use approxkd::pipeline::{ModelKind, TeacherSource};
use approxkd::Method;
use axnn_axmul::catalog;
use axnn_bench::{paper_best_t2, pct, print_table, Scale};

fn main() {
    let _profile = axnn_bench::ProfileScope::from_env("ext_partial");
    let scale = Scale::from_env();
    let mut env = scale.prepared_env(ModelKind::ResNet20);
    let spec = catalog::by_id("trunc5").expect("catalogued");
    let t2 = paper_best_t2(spec.id);
    let n = env.gemm_layer_count();
    eprintln!("[ext_partial] {n} GEMM layers, multiplier {}", spec.id);

    let mut rows = Vec::new();
    for frac in [0.0f32, 0.25, 0.5, 0.75, 1.0] {
        let k = ((n as f32) * frac).round() as usize;
        let r = env.approximation_stage_full(
            spec,
            Method::approx_kd_ge(t2),
            &scale.ft_stage(),
            TeacherSource::Quantized,
            |i, _| i < k,
        );
        eprintln!(
            "[ext_partial] {k}/{n} layers: init {:.2} % final {:.2} %",
            r.initial_acc * 100.0,
            r.final_acc * 100.0
        );
        rows.push(vec![
            format!("{k}/{n}"),
            format!("{:.0}", frac * 100.0),
            pct(r.initial_acc),
            pct(r.final_acc),
        ]);
    }

    print_table(
        "Extension: partial approximation (trunc5, ApproxKD+GE)",
        &["approx layers", "fraction%", "initial acc%", "final acc%"],
        &rows,
    );
    println!("\nExpected shape: accuracy degrades monotonically-ish with the approximated");
    println!("fraction before fine-tuning; fine-tuning recovers partial configurations");
    println!("more easily, but the energy saving is proportional to the fraction —");
    println!("the bounded trade-off that motivates the paper's full approximation.");
}
