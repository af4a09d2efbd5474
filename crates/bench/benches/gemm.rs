//! Micro-benchmarks of the execution engines: exact f32 GEMM, quantized
//! GEMM, and LUT-served approximate GEMM (the ProxSim trick), plus LUT
//! construction cost, the LUT-vs-direct multiplier evaluation ablation,
//! the approximate conv's kernels at the student's training shapes, and
//! the thread-scaling sweep behind `results/BENCH_gemm.json`.

use axnn_axmul::{ExactMul, Multiplier, TruncatedMul};
use axnn_bench::timing::{bench, interleaved};
use axnn_nn::{ExactExecutor, LayerExecutor, Mode};
use axnn_proxsim::{approx_matmul, LutProduct, PiecewiseLinearError, SignedLut};
use axnn_quant::{ApproxProduct, QuantExecutor};
use axnn_rng::Rng;
use axnn_tensor::im2col::{col2im, im2col_into, ConvGeometry};
use axnn_tensor::{gemm, init, Tensor};
use std::hint::black_box;
use std::sync::Arc;

const OC: usize = 32;
const K: usize = 144; // 16 channels x 3x3 kernel
const M: usize = 64;

fn bench_engines() {
    let mut rng = Rng::seed(1);
    let wmat = init::uniform(&[OC, K], -0.5, 0.5, &mut rng);
    let col = init::uniform(&[K, M], -1.0, 1.0, &mut rng);

    bench("gemm_engines/exact_f32", 20, || {
        black_box(gemm::matmul(black_box(&wmat), black_box(&col)));
    });
    let mut ex = ExactExecutor::new();
    bench("gemm_engines/exact_executor", 20, || {
        black_box(ex.forward(black_box(&wmat), black_box(&col), Mode::Eval));
    });
    let mut ex = QuantExecutor::new_8a4w();
    bench("gemm_engines/quantized_executor", 20, || {
        black_box(ex.forward(black_box(&wmat), black_box(&col), Mode::Eval));
    });
    let lut = SignedLut::build(&TruncatedMul::new(5));
    let w_codes: Vec<i32> = wmat.as_slice().iter().map(|&v| (v * 14.0) as i32).collect();
    let x_codes: Vec<i32> = col.as_slice().iter().map(|&v| (v * 127.0) as i32).collect();
    bench("gemm_engines/approx_lut_gemm", 20, || {
        black_box(approx_matmul(
            black_box(&w_codes),
            black_box(&x_codes),
            OC,
            K,
            M,
            &lut,
            1.0,
        ));
    });
}

/// Sum of `mul` over the 128 x 16 signed operand grid.
fn product_sum(mul: impl Fn(i32, i32) -> i64) -> i64 {
    let mut acc = 0i64;
    for x in -64i32..64 {
        for w in -8i32..8 {
            acc += mul(black_box(x), black_box(w));
        }
    }
    acc
}

fn bench_lut() {
    let m = TruncatedMul::new(5);
    bench("lut/build_signed_lut", 30, || {
        black_box(SignedLut::build(black_box(&m)));
    });
    // Ablation: direct behavioural evaluation vs LUT lookup.
    bench("lut/direct_eval_4096_products", 30, || {
        black_box(product_sum(|x, w| m.mul_signed(x, w)));
    });
    let lut = SignedLut::build(&m);
    bench("lut/lut_eval_4096_products", 30, || {
        black_box(product_sum(|x, w| lut.get(x, w)));
    });
    bench("lut/exact_mul_baseline_4096", 30, || {
        black_box(product_sum(|x, w| ExactMul.mul_signed(x, w)));
    });
}

/// The three kernels every approximate conv of ResNet-20 w0.25 runs in
/// training (16×16 inputs, batch 32), at 1 and 2 threads: the LUT GEMM
/// over `u8` offsets (as the 8A4W executor calls it), the `im2col` lowering
/// of its forward and the `col2im` scatter of its backward. The shapes are
/// stage 1 (`4 → 4` channels: oc 4, k 36, m 8192), stage 2 (`8 → 8`: oc 8,
/// k 72, m 2048) and stage 3 (`16 → 16`: oc 16, k 144, m 512), all 3×3
/// stride 1.
fn bench_student_conv() {
    const BATCH: usize = 32;
    let product = LutProduct::new(Arc::new(SignedLut::build(&TruncatedMul::new(5))), None);
    let geom = ConvGeometry::new(3, 1, 1);
    let mut rng = Rng::seed(3);
    for (c, hw) in [(4usize, 16usize), (8, 8), (16, 4)] {
        let (k, m) = (c * 9, BATCH * hw * hw);
        let input = init::uniform(&[BATCH, c, hw, hw], -1.0, 1.0, &mut rng);
        let dcol = init::uniform(&[k, m], -1.0, 1.0, &mut rng);
        let w: Vec<i32> = (0..c * k).map(|_| rng.gen_range(-8..=7)).collect();
        let xi: Vec<u8> = (0..k * m).map(|_| rng.gen()).collect();
        let mut out = vec![0.0f32; c * m];
        let mut col = Tensor::zeros(&[k, m]);
        for threads in [1, 2] {
            axnn_par::set_threads(threads);
            let case = format!("oc{c}_k{k}_m{m}/t{threads}");
            bench(&format!("student_conv/lut_gemm_{case}"), 20, || {
                product.matmul(black_box(&w), black_box(&xi), [c, k, m], 1e-3, &mut out);
            });
            bench(&format!("student_conv/im2col_{case}"), 20, || {
                im2col_into(black_box(&input), geom, &mut col);
            });
            bench(&format!("student_conv/col2im_{case}"), 20, || {
                black_box(col2im(black_box(&dcol), &[BATCH, c, hw, hw], geom));
            });
        }
    }
    axnn_par::set_threads(0);
}

/// Side of the square GEMM used for the thread-scaling sweep.
const SWEEP: usize = 256;
/// Thread counts swept (the deterministic output partition makes results
/// bit-identical across all of them).
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// The blocked approximate GEMM over the sweep operands.
fn sweep_approx(w_codes: &[i32], x_codes: &[i32], lut: &SignedLut) {
    black_box(approx_matmul(
        black_box(w_codes),
        black_box(x_codes),
        SWEEP,
        SWEEP,
        SWEEP,
        lut,
        1.0,
    ));
}

/// Thread-scaling sweep of the blocked exact and approximate GEMMs against
/// their single-thread naive reference kernels, written to
/// `results/BENCH_gemm.json` so the perf trajectory is captured in a
/// machine-readable artifact.
fn bench_thread_scaling() {
    let mut rng = Rng::seed(7);
    let a = init::uniform(&[SWEEP, SWEEP], -1.0, 1.0, &mut rng);
    let b = init::uniform(&[SWEEP, SWEEP], -1.0, 1.0, &mut rng);
    let w_codes: Vec<i32> = (0..SWEEP * SWEEP).map(|_| rng.gen_range(-7..=7)).collect();
    let x_codes: Vec<i32> = (0..SWEEP * SWEEP)
        .map(|_| rng.gen_range(-127..=127))
        .collect();
    let lut = SignedLut::build(&TruncatedMul::new(5));
    write_gemm_report(&a, &b, &w_codes, &x_codes, &lut);
}

/// Host load on this box swings the off-side samples by ±30% and more; a
/// round set whose *baseline* samples spread wider than this carries no
/// usable overhead signal, so it is re-run rather than reported.
const QUIET_SPREAD_TOLERANCE_PCT: f64 = 30.0;

/// Upper bound on quiet-window re-runs: give up after this many round sets
/// and report the least-noisy attempt instead of blocking the bench.
const QUIET_MAX_ATTEMPTS: usize = 4;

/// Interleaved off/on overhead measurement with quiet-window retries.
///
/// Runs `reps` rounds of `toggle(false); run()` / `toggle(true); run()`,
/// taking per-side minima. The spread of the *off* samples within a round
/// set estimates how noisy the window was: when it exceeds
/// [`QUIET_SPREAD_TOLERANCE_PCT`], the whole round set is re-run (bounded
/// by [`QUIET_MAX_ATTEMPTS`]) and the attempt with the quietest baseline
/// wins. Interleaving alone only cancels *slow* drift; a co-tenant burst
/// shorter than one round set can still land entirely on one side, which
/// is exactly the case the retry discards.
fn overhead_pct_quiet<T: FnMut(bool), R: FnMut()>(reps: usize, mut toggle: T, mut run: R) -> f64 {
    let mut best_spread = f64::INFINITY;
    let mut best_overhead = 0.0;
    for _attempt in 0..QUIET_MAX_ATTEMPTS {
        let sides = interleaved(reps, 2, |side| {
            toggle(side == 1);
            run();
        });
        let (off, on) = (sides[0], sides[1]);
        let spread = (off.max_ms - off.min_ms) / off.min_ms * 100.0;
        if spread < best_spread {
            best_spread = spread;
            best_overhead = (on.min_ms - off.min_ms) / off.min_ms * 100.0;
        }
        if best_spread <= QUIET_SPREAD_TOLERANCE_PCT {
            break;
        }
    }
    best_overhead
}

/// Overhead of the `axnn-obs` instrumentation on the blocked approximate
/// GEMM, as a percentage: profiling-enabled timing vs profiling-disabled
/// timing, interleaved minima. Since the enabled path does strictly more
/// work than the disabled path (which is one relaxed atomic load), this
/// upper-bounds the disabled-path cost the acceptance criterion caps at 2%.
fn profile_overhead_pct(w_codes: &[i32], x_codes: &[i32], lut: &SignedLut) -> f64 {
    const REPS: usize = 9;
    axnn_par::set_threads(1);
    let run = || sweep_approx(w_codes, x_codes, lut);
    run(); // warm the kernel so the cold first pass doesn't bias either side
    let pct = overhead_pct_quiet(REPS, axnn_obs::set_enabled, run);
    axnn_obs::set_enabled(false);
    axnn_obs::reset();
    axnn_par::set_threads(0);
    pct
}

/// Overhead of the numeric-health telemetry (sampled ε histograms, GE
/// residual/coverage ratios, saturation rates) on a full approximate
/// executor forward pass, as a percentage: timing with both `set_enabled`
/// and `set_health_enabled` on vs both off, interleaved minima. Mirrors
/// [`profile_overhead_pct`] one level up the stack — the executor is where
/// the health recording sites live — and upper-bounds the disabled-path
/// cost the acceptance criterion caps at 2%. Each timed sample batches
/// several forwards (one call is only a few milliseconds, so single-call
/// samples are dominated by scheduler jitter on a shared host); taking the
/// minimum per side discards both load spikes and the on-samples that
/// happen to include the deliberately-sampled ε reference GEMM, leaving
/// the common-case per-call cost the bound is about.
fn hist_overhead_pct(a: &Tensor, b: &Tensor) -> f64 {
    const REPS: usize = 31;
    const BATCH: usize = 4;
    axnn_par::set_threads(1);
    let lut = Arc::new(SignedLut::build(&TruncatedMul::new(5)));
    let model = PiecewiseLinearError::new(-0.05, 0.0, -10.0, 10.0);
    let mut ex = QuantExecutor::new_8a4w().with_product(LutProduct::new(lut, Some(model)));
    ex.set_obs_label("bench");
    axnn_obs::set_enabled(false);
    axnn_obs::set_health_enabled(false);
    let mut run = || {
        for _ in 0..BATCH {
            black_box(ex.forward(black_box(a), black_box(b), Mode::Train));
        }
    };
    run(); // warm the kernel before timing either side
    let pct = overhead_pct_quiet(
        REPS,
        |side| {
            axnn_obs::set_enabled(side);
            axnn_obs::set_health_enabled(side);
        },
        run,
    );
    axnn_obs::set_enabled(false);
    axnn_obs::set_health_enabled(false);
    axnn_obs::reset();
    axnn_par::set_threads(0);
    pct
}

/// Measures the sweep and hand-writes `results/BENCH_gemm.json` (no
/// serializer needed for a flat report). All configurations are timed
/// [`interleaved`], taking per-config minima across rounds, so slow drift
/// on a shared host hits every configuration equally instead of skewing
/// ratios.
fn write_gemm_report(a: &Tensor, b: &Tensor, w_codes: &[i32], x_codes: &[i32], lut: &SignedLut) {
    const REPS: usize = 9;
    let overhead_pct = profile_overhead_pct(w_codes, x_codes, lut);
    let hist_pct = hist_overhead_pct(a, b);
    // Config 0/1: serial references; then (exact, approx) per thread count.
    let mins: Vec<f64> = interleaved(REPS, 2 + 2 * THREADS.len(), |i| {
        if i >= 2 {
            axnn_par::set_threads(THREADS[(i - 2) / 2]);
        }
        match i {
            0 => {
                black_box(gemm::reference::matmul(black_box(a), black_box(b)));
            }
            1 => {
                black_box(axnn_proxsim::gemm::reference::approx_matmul(
                    black_box(w_codes),
                    black_box(x_codes),
                    SWEEP,
                    SWEEP,
                    SWEEP,
                    lut,
                    1.0,
                ));
            }
            _ if i % 2 == 0 => {
                black_box(gemm::matmul(black_box(a), black_box(b)));
            }
            _ => sweep_approx(w_codes, x_codes, lut),
        }
        axnn_par::set_threads(0);
    })
    .iter()
    .map(|e| e.min_ms)
    .collect();
    let (exact_ref, approx_ref) = (mins[0], mins[1]);
    let exact_ms: Vec<f64> = mins[2..].iter().step_by(2).copied().collect();
    let approx_ms: Vec<f64> = mins[3..].iter().step_by(2).copied().collect();

    let row = |name: &str, reference: f64, ms: &[f64]| {
        let threads: Vec<String> = THREADS
            .iter()
            .zip(ms)
            .map(|(&t, &m)| {
                format!(
                    "{{\"threads\": {t}, \"ms\": {m:.3}, \"speedup_vs_reference\": {:.2}}}",
                    reference / m
                )
            })
            .collect();
        format!(
            "    {{\n      \"kernel\": \"{name}\",\n      \"reference_ms\": {reference:.3},\n      \"by_threads\": [{}]\n    }}",
            threads.join(", ")
        )
    };
    let report = format!(
        "{{\n  \"bench\": \"gemm_{s}x{s}x{s}\",\n  \"timing\": \"min of {REPS} interleaved repetitions, release build, milliseconds\",\n  \"baseline\": \"reference_ms is the serial naive kernel (gemm::reference / proxsim::gemm::reference), i.e. the single-thread baseline\",\n  \"note\": \"one writer per output element (row blocks for exact, 2-D tiles for approx) makes every configuration bit-identical; on a single-core host the thread rows coincide and the speedup comes from the blocked kernels\",\n  \"profile_overhead_pct\": {overhead_pct:.2},\n  \"profile_overhead_note\": \"blocked approx_matmul with axnn-obs profiling enabled vs disabled (interleaved minima, quiet-window retried); an upper bound on the disabled-path cost, since the enabled path does strictly more work. Negative values are measurement noise\",\n  \"hist_overhead_pct\": {hist_pct:.2},\n  \"hist_overhead_note\": \"labelled approximate QuantExecutor forward (Mode::Train) with spans+health telemetry enabled vs fully disabled (interleaved minima over 4-call batches, quiet-window retried): sampled eps histograms, GE residual/coverage ratios, saturation rates. Same upper-bound reading as profile_overhead_pct; negative values are measurement noise\",\n  \"kernels\": [\n{},\n{}\n  ]\n}}\n",
        row("exact_matmul", exact_ref, &exact_ms),
        row("approx_matmul", approx_ref, &approx_ms),
        s = SWEEP,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_gemm.json");
    if let Err(e) = std::fs::write(path, &report) {
        eprintln!("could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}

fn main() {
    bench_engines();
    bench_lut();
    bench_student_conv();
    bench_thread_scaling();
}
