//! Extension experiment (paper outlook §V): combining more than one
//! approximation technique — approximate multipliers *and* approximate
//! accumulation.
//!
//! For each (multiplier, adder) pair, measure the approximated network's
//! accuracy before fine-tuning: the accumulated adder error stacks on top
//! of the multiplier error, charting how much accumulator approximation a
//! given multiplier budget leaves room for.

use approxkd::pipeline::ModelKind;
use axnn_axmul::adder::{Adder, ExactAdder, LoaAdder, TruncAdder};
use axnn_axmul::catalog;
use axnn_bench::{pct, print_table, Scale};
use axnn_nn::train::{calibrate, evaluate};
use axnn_nn::{ExecutorKind, Layer};
use axnn_proxsim::{LutProduct, SignedLut};
use axnn_quant::QuantExecutor;
use std::sync::Arc;

fn main() {
    let _profile = axnn_bench::ProfileScope::from_env("ext_adders");
    let scale = Scale::from_env();
    let mut env = scale.prepared_env(ModelKind::ResNet20);

    let adders: Vec<Arc<dyn Adder>> = vec![
        Arc::new(ExactAdder),
        Arc::new(LoaAdder::new(3)),
        Arc::new(LoaAdder::new(6)),
        Arc::new(TruncAdder::new(3)),
    ];

    let mut rows = Vec::new();
    for mul_id in ["trunc1", "trunc3", "evo470"] {
        let spec = catalog::by_id(mul_id).expect("catalogued");
        let multiplier = spec.build();
        let lut = Arc::new(SignedLut::build(multiplier.as_ref()));
        let mut cells = vec![mul_id.to_string()];
        for adder in &adders {
            let mut net = env.quantized_copy();
            let lut = Arc::clone(&lut);
            let adder = Arc::clone(adder);
            net.visit_gemm_cores(&mut |core| {
                core.set_executor(Box::new(QuantExecutor::new_8a4w().with_product(
                    LutProduct::new(Arc::clone(&lut), None).with_adder(Arc::clone(&adder)),
                )));
            });
            // Safety net: everything should now be approximate.
            net.visit_gemm_cores(&mut |core| {
                assert_eq!(core.executor.kind(), ExecutorKind::Approximate);
            });
            calibrate(&mut net, env.train_data(), scale.batch, 2);
            let acc = evaluate(&mut net, env.test_data(), scale.batch);
            eprintln!(
                "[ext_adders] {mul_id} + {}: {:.2} %",
                adder.name(),
                acc * 100.0
            );
            cells.push(pct(acc));
        }
        rows.push(cells);
    }

    print_table(
        "Extension: multiplier x accumulator approximation (initial accuracy, no FT)",
        &["mult \\ adder", "exact", "loa3", "loa6", "tadd3"],
        &rows,
    );
    println!("\nExpected shape: a few approximated accumulator bits (loa3) cost little");
    println!("on top of any multiplier; aggressive accumulation (loa6/tadd3) degrades");
    println!("sharply because the error compounds once per accumulation step rather");
    println!("than once per product.");
}
