//! `axnn` — the ApproxNN command-line tool.
//!
//! ```text
//! axnn characterize <multiplier>             multiplier MRE / bias / GE fit
//! axnn pipeline [flags]                      run Algorithm 1 end to end
//! axnn evaluate --checkpoint <file> [flags]  restore a checkpoint and evaluate
//! axnn search [flags]                        heterogeneous per-layer multiplier
//!                                            search (energy/accuracy Pareto)
//! axnn serve --checkpoint <file> [flags]     batched TCP inference service
//! axnn loadgen (--addr <h:p> | --checkpoint <file>) [flags]
//!                                            drive a server / run the bench matrix
//! axnn stream (--addr <h:p> | --checkpoint <file>) [flags]
//!                                            open-loop raw-frame streaming bench
//!                                            + raw-vs-tensor bit-identity probe
//! axnn obs report <run.jsonl>                markdown health report of a profile
//! axnn obs diff <a.jsonl> <b.jsonl> [flags]  threshold-gated profile comparison
//! axnn obs top <addr> [flags]                live metrics dashboard of a server
//! axnn obs tail <addr> [flags]               streaming request-trace printer
//! axnn help                                  this text
//! ```
//!
//! `obs report` and `obs diff` analyze the last line of each JSONL
//! trajectory (the most recent run). `obs diff` exits nonzero when the
//! candidate regresses past the thresholds, so it can gate CI:
//!
//! ```text
//! --counter-pct <percent>   tolerated work-counter growth      [1]
//! --ratio-abs <fraction>    tolerated bad-direction ratio move [0.05]
//! --json                    machine-readable output (stable key order;
//!                           the nonzero-exit contract is unchanged)
//! ```
//!
//! `obs top` and `obs tail` watch a *running* server over the `metrics` /
//! `trace` protocol commands:
//!
//! ```text
//! top:  --once            one frame, then exit (scripting)
//!       --json            print the raw snapshot JSON instead
//!       --interval-ms <M> refresh period                     [1000]
//! tail: --n <K>           initial backlog of trace records   [16]
//!       --once            print the backlog, then exit
//!       --interval-ms <M> poll period                        [500]
//! ```
//!
//! Pipeline flags (defaults in brackets):
//!
//! ```text
//! --model <resnet20|resnet32|mobilenetv2|lenet>   [resnet20]
//! --mult <catalogue id>                           [trunc5]
//! --method <normal|alpha|ge|kd|kd_ge>             [kd_ge]
//! --t2 <temperature>                              [5]
//! --epochs <fine-tuning epochs per stage>         [3]
//! --fp-epochs <FP training epochs>                [12]
//! --seed <u64>                                    [1]
//! --width <multiplier>                            [0.25]
//! --hw <input resolution>                         [16]
//! --train <samples> / --test <samples>            [320 / 160]
//! --save <file.json>       save the fine-tuned student as a checkpoint
//! --profile <file.jsonl>   append a run profile (per-layer spans,
//!                          approx-op counters, numeric-health telemetry)
//!                          as one JSONL line
//! --loader true            stream the splits through the prefetching
//!                          dataloader (full raw-frame pipeline) instead of
//!                          materializing them from one sequential RNG;
//!                          `evaluate` accepts the same flag and then scores
//!                          batch-by-batch as they arrive
//! --loader-workers <W> / --loader-prefetch <P>   loader shape      [2 / 4]
//! --loader-src-hw <H>      render frames at H×H and resize to the model
//!                          input (0 keeps the identity resize)        [0]
//! ```
//!
//! Search flags (defaults in brackets; training flags as in `pipeline`):
//!
//! ```text
//! --model <resnet20|resnet32|mobilenetv2|lenet>   [lenet]
//! --strategy <greedy|evo|both>                    [both]
//! --generations <G> / --population <P>            [4 / 8]
//! --floor <absolute acc> | --drop <drop vs exact> [--drop 0.05]
//! --pool <id,id,...>       restrict the multiplier pool (exact always in)
//! --ft-epochs <E>          ApproxKD+GE fine-tune of the winner (0 skips) [2]
//! --checkpoint <file.json> search from a saved quantized model instead of
//!                          training in process
//! --out <file>             [results/BENCH_search.json]
//! ```
//!
//! Serving flags (defaults in brackets):
//!
//! ```text
//! --checkpoint <file.json>   required; the `axnn pipeline --save` output
//! --host / --port            bind address                [127.0.0.1 / 0]
//! --model --width --hw       architecture of the checkpoint
//! --executor <exact|quant|approx>                        [exact]
//! --mult <catalogue id>      multiplier for --executor approx [trunc5]
//! --max-batch <N>            micro-batch size cap        [8]
//! --queue-cap <Q>            admission-control queue depth [64]
//! --threads <T>              axnn-par worker override    [0 = default]
//! --profile <file.jsonl>     append the serving RunProfile on drain
//! ```
//!
//! `evaluate`, `serve`, `search` and the `--checkpoint` modes of `loadgen`
//! and `stream` run inference through the fused graph executor (per-batch-
//! shape plan cache); the layer interpreter only trains.
//!
//! Every replica worker pops one shared queue: a free worker takes up to
//! `--max-batch` waiting requests at once and never holds one back to fill
//! a batch.
//!
//! The server prints `serving on <addr> ...` once ready and runs until a
//! client sends `{"cmd": "shutdown"}` (`axnn loadgen --shutdown true`
//! does); it then drains admitted work and exits.
//!
//! Stream flags (defaults in brackets):
//!
//! ```text
//! --probe-seed <S>          probe mode: send one deterministic raw frame
//!                           and the locally preprocessed tensor, print the
//!                           verdict JSON, exit nonzero unless the logits
//!                           match bit for bit
//! --fps <A,B,..>            explicit offered-rate ladder, frames/s
//! --sweep-steps <N>         ladder size when --fps is absent; the ladder
//!                           brackets one closed-loop calibration run  [5]
//! --connections <C>         parallel frame streams                    [2]
//! --frame-height <px> / --frame-width <px>   source frame size   [48 / 48]
//! --channels <C> / --dtype <u8|f32>          frame payload        [3 / u8]
//! --step-s <S>              wall-clock budget per rate step         [1.5]
//! --out <file>              sweep report            [results/BENCH_stream.json]
//! ```
//!
//! `--checkpoint` mode starts an in-process server first and accepts the
//! `serve` flags (`--model --width --hw --executor --mult --replicas
//! --max-batch --queue-cap --threads`).

use approxnn::approxkd::pipeline::ModelKind;
use approxnn::approxkd::{ExperimentEnv, Method, StageConfig};
use approxnn::axmul::catalog;
use approxnn::axmul::stats::MulStats;
use approxnn::cli::{parse_known, parse_usize_list, take_flag, Flags};
use approxnn::models::ModelConfig;
use approxnn::nn::StepDecay;
use approxnn::serve::{
    self, Ladder, LoadConfig, ModelOptions, Payload, ServeExecutor, SweepConfig,
};
use std::process::ExitCode;
use std::time::Duration;

fn method(name: &str, t2: f32) -> Result<Method, String> {
    match name {
        "normal" => Ok(Method::Normal),
        "alpha" => Ok(Method::alpha_default()),
        "ge" => Ok(Method::Ge),
        "kd" => Ok(Method::approx_kd(t2)),
        "kd_ge" => Ok(Method::approx_kd_ge(t2)),
        other => Err(format!(
            "unknown method '{other}' (use normal|alpha|ge|kd|kd_ge)"
        )),
    }
}

fn model_options(flags: &Flags, executor: ServeExecutor) -> Result<ModelOptions, String> {
    Ok(ModelOptions {
        model: flags.parsed("model", "resnet20".to_string())?.parse()?,
        width: flags.parsed("width", 0.25)?,
        hw: flags.parsed("hw", 16)?,
        executor,
        mult: flags.parsed("mult", "trunc5".to_string())?,
        seed: flags.parsed("seed", 1)?,
        calib_samples: 64,
    })
}

/// Loader shape from the shared `--loader-*` flags; `batch`/`seed` come
/// from the calling command.
fn loader_config(
    flags: &Flags,
    batch: usize,
    seed: u64,
) -> Result<approxnn::data::loader::LoaderConfig, String> {
    let mut cfg = approxnn::data::loader::LoaderConfig::new(batch, seed);
    cfg.workers = flags.count("loader-workers", 2)?;
    cfg.prefetch = flags.count("loader-prefetch", 4)?;
    let src: usize = flags.parsed("loader-src-hw", 0)?;
    if src > 0 && src < 4 {
        return Err("--loader-src-hw must be at least 4 (or 0 for identity)".to_string());
    }
    cfg.src_hw = (src > 0).then_some(src);
    Ok(cfg)
}

/// Scores one loader epoch batch-by-batch as it streams in — the
/// `evaluate --loader` path, which never materializes the split.
fn streamed_accuracy(
    loader: &approxnn::data::loader::StreamLoader,
    mut forward: impl FnMut(&approxnn::tensor::Tensor) -> approxnn::tensor::Tensor,
) -> f32 {
    let mut correct = 0.0f32;
    let mut count = 0usize;
    for (inputs, labels) in loader.epoch(0) {
        let logits = forward(&inputs);
        correct += approxnn::nn::loss::accuracy(&logits, &labels) * labels.len() as f32;
        count += labels.len();
    }
    if count == 0 {
        0.0
    } else {
        correct / count as f32
    }
}

fn cmd_characterize(args: &[String]) -> Result<(), String> {
    let id = args
        .first()
        .ok_or("usage: axnn characterize <multiplier>")?;
    let spec = catalog::by_id(id).ok_or_else(|| {
        format!(
            "unknown multiplier '{id}'; known: {}",
            catalog::PAPER_MULTIPLIERS
                .iter()
                .map(|s| s.id)
                .collect::<Vec<_>>()
                .join(", ")
        )
    })?;
    let m = spec.build();
    let s = MulStats::measure(m.as_ref());
    println!("{spec}");
    println!("measured MRE (eq. 14): {:.2} %", s.mre * 100.0);
    println!(
        "mean error {:.2}, mean |error| {:.2}, max |error| {}",
        s.mean_error, s.mean_abs_error, s.max_abs_error
    );
    println!(
        "bias class: {}",
        if s.is_biased() {
            "biased (GE has a slope)"
        } else {
            "unbiased (GE == STE)"
        }
    );
    use axnn_rng::Rng;
    let mut rng = Rng::seed(42);
    let fit = approxnn::approxkd::fit_error_model(
        m.as_ref(),
        approxnn::approxkd::McConfig::default(),
        &mut rng,
    );
    println!(
        "GE fit: slope {:.6}, R^2 {:.3}, constant = {}",
        fit.model.slope(),
        fit.r_squared(),
        fit.is_constant()
    );
    Ok(())
}

fn cmd_pipeline(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "axnn pipeline [--model M --mult ID --method NAME --t2 T --epochs E \
                         --fp-epochs F --seed S --width W --hw H --train N --test N \
                         --save FILE --profile FILE --loader true \
                         --loader-workers W --loader-prefetch P --loader-src-hw H]";
    let flags = parse_known(
        args,
        &[
            "model",
            "mult",
            "method",
            "t2",
            "epochs",
            "fp-epochs",
            "seed",
            "width",
            "hw",
            "train",
            "test",
            "save",
            "profile",
            "loader",
            "loader-workers",
            "loader-prefetch",
            "loader-src-hw",
        ],
        USAGE,
    )?;
    let kind: ModelKind = flags.parsed("model", "resnet20".to_string())?.parse()?;
    let mult_id: String = flags.parsed("mult", "trunc5".to_string())?;
    let spec = catalog::by_id(&mult_id).ok_or_else(|| format!("unknown multiplier '{mult_id}'"))?;
    let t2: f32 = flags.parsed("t2", 5.0)?;
    let method = method(&flags.parsed("method", "kd_ge".to_string())?, t2)?;
    let seed: u64 = flags.parsed("seed", 1)?;
    let epochs: usize = flags.parsed("epochs", 3)?;
    let fp_epochs: usize = flags.parsed("fp-epochs", 12)?;
    let width: f32 = flags.parsed("width", 0.25)?;
    let hw: usize = flags.parsed("hw", 16)?;
    let train: usize = flags.parsed("train", 320)?;
    let test: usize = flags.parsed("test", 160)?;

    let profile_path = flags.get("profile").cloned();
    if profile_path.is_some() {
        approxnn::obs::reset();
        approxnn::obs::set_enabled(true);
        approxnn::obs::set_health_enabled(true);
    }

    let cfg = ModelConfig::paper().with_width(width).with_input_hw(hw);
    let mut env = if flags.parsed("loader", false)? {
        // Stream both splits through the prefetching dataloader (the full
        // raw-frame pipeline), using the same split-seed separation idiom
        // as `SynthCifar::generate`.
        let gen = approxnn::data::SynthCifar::new(hw);
        let train_ds = approxnn::data::loader::StreamLoader::new(
            gen,
            train,
            loader_config(&flags, 32, seed ^ 0x7261_696e)?,
        )
        .materialize(0);
        let test_ds = approxnn::data::loader::StreamLoader::new(
            gen,
            test,
            loader_config(&flags, 32, seed ^ 0x7465_7374)?,
        )
        .materialize(0);
        eprintln!(
            "loader streamed {} train / {} test images",
            train_ds.labels.len(),
            test_ds.labels.len()
        );
        ExperimentEnv::with_data(kind, cfg, train_ds, test_ds, seed)
    } else {
        ExperimentEnv::new(kind, cfg, train, test, seed)
    };
    let fp_cfg = StageConfig {
        epochs: fp_epochs,
        batch: 32,
        lr: StepDecay::new(0.05, (fp_epochs / 2).max(1), 0.5),
        momentum: 0.9,
        track_epochs: false,
        clip_norm: Some(10.0),
    };
    let ft_cfg = StageConfig {
        epochs,
        batch: 32,
        lr: StepDecay::new(5e-4, (epochs / 2).max(1), 0.5),
        momentum: 0.9,
        track_epochs: false,
        clip_norm: Some(10.0),
    };

    eprintln!("training FP {} ...", kind.label());
    let fp = env.train_fp(&fp_cfg);
    eprintln!("FP accuracy: {:.2} %", fp * 100.0);
    eprintln!("quantization stage (8A4W + KD, T1 = 1) ...");
    let q = env.quantization_stage(&ft_cfg, true);
    eprintln!(
        "8A4W: {:.2} % -> {:.2} %",
        q.acc_before_ft * 100.0,
        q.acc_after_ft * 100.0
    );
    eprintln!(
        "approximation stage: {} with {} ...",
        spec.id,
        method.label()
    );
    let r = env.approximation_stage(spec, method, &ft_cfg);
    println!(
        "{}: initial {:.2} % -> final {:.2} % ({} epochs, {:.1} s)",
        r.method,
        r.initial_acc * 100.0,
        r.final_acc * 100.0,
        epochs,
        r.seconds
    );
    println!(
        "published multiplier energy saving: {:.0} %",
        spec.paper_savings_pct
    );

    if let Some(path) = &profile_path {
        approxnn::obs::set_enabled(false);
        approxnn::obs::set_health_enabled(false);
        let label = format!("pipeline/{}/{}/{}", kind.label(), spec.id, method.label());
        let profile = approxnn::obs::RunProfile::capture(&label);
        profile.append_jsonl(path).map_err(|e| e.to_string())?;
        let c = &profile.counters;
        eprintln!(
            "profile appended to {path}: {} spans, {} hists, {} approx muls, {} GEMM MACs",
            profile.spans.len(),
            profile.hists.len(),
            c.approx_muls,
            c.gemm_macs
        );
    }

    if let Some(path) = flags.get("save") {
        // Re-run the winning configuration's final student is not kept by
        // the env API; capture the quantized teacher instead, which is the
        // deployable intermediate.
        let ckpt = approxnn::nn::Checkpoint::capture(&mut env.quantized_copy());
        std::fs::write(path, ckpt.to_json()).map_err(|e| e.to_string())?;
        println!("saved quantized-model checkpoint to {path}");
    }
    Ok(())
}

fn cmd_evaluate(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "axnn evaluate --checkpoint <file> [--model M --seed S --width W \
                         --hw H --test N --profile FILE --loader true \
                         --loader-workers W --loader-prefetch P --loader-src-hw H]";
    let flags = parse_known(
        args,
        &[
            "checkpoint",
            "model",
            "seed",
            "width",
            "hw",
            "test",
            "profile",
            "loader",
            "loader-workers",
            "loader-prefetch",
            "loader-src-hw",
        ],
        USAGE,
    )?;
    let path: String = flags.required("checkpoint", USAGE)?;
    let kind: ModelKind = flags.parsed("model", "resnet20".to_string())?.parse()?;
    let seed: u64 = flags.parsed("seed", 1)?;
    let width: f32 = flags.parsed("width", 0.25)?;
    let hw: usize = flags.parsed("hw", 16)?;
    let test: usize = flags.parsed("test", 160)?;

    let profile_path = flags.get("profile").cloned();
    if profile_path.is_some() {
        approxnn::obs::reset();
        approxnn::obs::set_enabled(true);
        approxnn::obs::set_health_enabled(true);
    }

    let json = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
    let ckpt = approxnn::nn::Checkpoint::from_json(&json).map_err(|e| e.to_string())?;

    let cfg = ModelConfig::paper().with_width(width).with_input_hw(hw);
    let mut net = kind.restore(&ckpt, &cfg).map_err(|e| e.to_string())?;

    // `--loader` streams the split through the prefetching dataloader and
    // scores batches as they arrive; otherwise the split is materialized
    // from the generator's single sequential stream (different, equally
    // deterministic image streams — see `axnn_data::loader`).
    let loader = if flags.parsed("loader", false)? {
        let lcfg = loader_config(&flags, 32, seed ^ 0x7465_7374)?;
        eprintln!(
            "streaming {test} test images ({} workers, prefetch {})",
            lcfg.workers, lcfg.prefetch
        );
        Some(approxnn::data::loader::StreamLoader::new(
            approxnn::data::SynthCifar::new(hw),
            test,
            lcfg,
        ))
    } else {
        None
    };
    let test_data = match &loader {
        Some(_) => None,
        None => Some(
            approxnn::data::SynthCifar::new(hw)
                .generate(0, test, seed)
                .1,
        ),
    };
    let score =
        |forward: &mut dyn FnMut(&approxnn::tensor::Tensor) -> approxnn::tensor::Tensor| match (
            &loader, &test_data,
        ) {
            (Some(l), _) => streamed_accuracy(l, forward),
            (None, Some(d)) => approxnn::nn::train::evaluate_with(forward, d, 32),
            (None, None) => unreachable!("one evaluation source is always built"),
        };
    let mut exec = approxnn::nn::GraphExecutor::compile(&mut net).map_err(|e| e.to_string())?;
    let acc = score(&mut |x| exec.forward(x));
    let stats = exec.cache_stats();
    eprintln!(
        "compiled graph: {} plans, plan cache {} hits / {} misses",
        exec.plan_count(),
        stats.hits,
        stats.misses
    );

    if let Some(path) = &profile_path {
        approxnn::obs::set_enabled(false);
        approxnn::obs::set_health_enabled(false);
        let label = format!("evaluate/{}", kind.label());
        let profile = approxnn::obs::RunProfile::capture(&label);
        profile.append_jsonl(path).map_err(|e| e.to_string())?;
        eprintln!(
            "profile appended to {path}: {} spans, {} GEMM MACs",
            profile.spans.len(),
            profile.counters.gemm_macs
        );
    }

    println!(
        "checkpoint accuracy on SynthCIFAR(seed {seed}): {:.2} %",
        acc * 100.0
    );
    Ok(())
}

fn cmd_search(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "axnn search [--model M --width W --hw H --train N --test N --seed S \
                         --fp-epochs F --quant-epochs Q --strategy greedy|evo|both \
                         --generations G --population P --floor A | --drop D --pool id,id \
                         --ft-epochs E --batch B --checkpoint FILE --out FILE --profile FILE]";
    let flags = parse_known(
        args,
        &[
            "model",
            "width",
            "hw",
            "train",
            "test",
            "seed",
            "fp-epochs",
            "quant-epochs",
            "strategy",
            "generations",
            "population",
            "floor",
            "drop",
            "pool",
            "ft-epochs",
            "batch",
            "checkpoint",
            "out",
            "profile",
        ],
        USAGE,
    )?;
    let kind: ModelKind = flags.parsed("model", "lenet".to_string())?.parse()?;
    let seed: u64 = flags.parsed("seed", 1)?;
    let width: f32 = flags.parsed("width", 0.25)?;
    let hw: usize = flags.parsed("hw", 16)?;
    let train: usize = flags.parsed("train", 320)?;
    let test: usize = flags.parsed("test", 160)?;
    let fp_epochs: usize = flags.parsed("fp-epochs", 12)?;
    let quant_epochs: usize = flags.parsed("quant-epochs", 2)?;
    let generations: usize = flags.parsed("generations", 4)?;
    let population: usize = flags.parsed("population", 8)?;
    let ft_epochs: usize = flags.parsed("ft-epochs", 2)?;
    let batch: usize = flags.parsed("batch", 32)?;
    let out: String = flags.parsed("out", "results/BENCH_search.json".to_string())?;
    let strategy = match flags.parsed("strategy", "both".to_string())?.as_str() {
        "greedy" => approxnn::search::StrategyChoice::Greedy,
        "evo" => approxnn::search::StrategyChoice::Evo,
        "both" => approxnn::search::StrategyChoice::Both,
        other => return Err(format!("unknown strategy '{other}' (use greedy|evo|both)")),
    };
    let floor = match flags.get("floor") {
        Some(_) => approxnn::search::FloorSpec::Absolute(flags.parsed("floor", 0.0)?),
        None => approxnn::search::FloorSpec::Drop(flags.parsed("drop", 0.05)?),
    };
    let pool: Option<Vec<String>> = flags.get("pool").map(|p| {
        p.split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect()
    });

    let profile_path = flags.get("profile").cloned();
    if profile_path.is_some() {
        approxnn::obs::reset();
        approxnn::obs::set_enabled(true);
        approxnn::obs::set_health_enabled(true);
    }

    let cfg = ModelConfig::paper().with_width(width).with_input_hw(hw);
    let mut env = ExperimentEnv::new(kind, cfg, train, test, seed);
    if let Some(path) = flags.get("checkpoint") {
        let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let ckpt = approxnn::nn::Checkpoint::from_json(&json).map_err(|e| e.to_string())?;
        let net = kind.restore(&ckpt, &cfg).map_err(|e| e.to_string())?;
        env.adopt_quantized(net, batch);
    } else {
        let fp_cfg = StageConfig {
            epochs: fp_epochs,
            batch: 32,
            lr: StepDecay::new(0.05, (fp_epochs / 2).max(1), 0.5),
            momentum: 0.9,
            track_epochs: false,
            clip_norm: Some(10.0),
        };
        let q_cfg = StageConfig {
            epochs: quant_epochs,
            batch: 32,
            lr: StepDecay::new(5e-4, (quant_epochs / 2).max(1), 0.5),
            momentum: 0.9,
            track_epochs: false,
            clip_norm: Some(10.0),
        };
        let fp_acc = env.train_fp(&fp_cfg);
        println!("FP accuracy: {:.2} %", fp_acc * 100.0);
        let q = env.quantization_stage(&q_cfg, true);
        println!("8A4W accuracy: {:.2} %", q.acc_after_ft * 100.0);
    }

    let ft_cfg = StageConfig {
        epochs: ft_epochs,
        batch: 32,
        lr: StepDecay::new(5e-4, (ft_epochs / 2).max(1), 0.5),
        momentum: 0.9,
        track_epochs: false,
        clip_norm: Some(10.0),
    };
    let search_cfg = approxnn::search::SearchConfig {
        floor,
        strategy,
        generations,
        population,
        seed,
        batch,
        pool,
        fine_tune: (ft_epochs > 0).then_some((Method::approx_kd_ge(5.0), ft_cfg)),
    };
    let report = approxnn::search::run_search(&mut env, &search_cfg)?;

    println!(
        "baseline {:.2} %, floor {:.2} %, {} candidates scored ({} evals, {} cache hits)",
        report.baseline.accuracy * 100.0,
        report.floor * 100.0,
        report.scored,
        report.evals,
        report.cache_hits
    );
    for s in &report.strategies {
        match &s.best {
            Some((_, score)) => println!(
                "  {}: accuracy {:.2} % at energy {:.4}",
                s.name,
                score.accuracy * 100.0,
                score.energy
            ),
            None => println!("  {}: no candidate met the floor", s.name),
        }
    }
    if let Some(h) = &report.best_homogeneous {
        println!(
            "best homogeneous: {} at energy {:.4} ({:.2} %)",
            h.id,
            h.energy,
            h.accuracy * 100.0
        );
    }
    if let Some(w) = &report.winner {
        println!(
            "winner: [{}] at energy {:.4} ({:.2} %)",
            w.assignment.join(","),
            w.energy,
            w.accuracy * 100.0
        );
    }
    if let Some(ft) = &report.fine_tuned {
        println!(
            "fine-tuned ({}): {:.2} % -> {:.2} %",
            ft.method,
            ft.initial_acc * 100.0,
            ft.final_acc * 100.0
        );
    }
    println!("Pareto frontier: {} points", report.pareto.len());

    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
    }
    std::fs::write(&out, report.to_json()).map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {out}");

    if let Some(path) = &profile_path {
        approxnn::obs::set_enabled(false);
        approxnn::obs::set_health_enabled(false);
        let label = format!("search/{}/seed{}", kind.label(), seed);
        let profile = approxnn::obs::RunProfile::capture(&label);
        profile.append_jsonl(path).map_err(|e| e.to_string())?;
        let c = &profile.counters;
        eprintln!(
            "profile appended to {path}: {} evals, {} cache hits, {} cache misses",
            c.search_evals, c.search_cache_hits, c.search_cache_misses
        );
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "axnn serve --checkpoint <file> [--host H --port P --model M --width W \
                         --hw H --executor exact|quant|approx --mult ID --seed S --max-batch N \
                         --queue-cap Q --replicas R --threads T --profile FILE]";
    let flags = parse_known(
        args,
        &[
            "checkpoint",
            "host",
            "port",
            "model",
            "width",
            "hw",
            "executor",
            "mult",
            "seed",
            "max-batch",
            "queue-cap",
            "replicas",
            "threads",
            "profile",
        ],
        USAGE,
    )?;
    let path: String = flags.required("checkpoint", USAGE)?;
    let executor: ServeExecutor = flags.parsed("executor", ServeExecutor::Exact)?;
    let opts = model_options(&flags, executor)?;
    let host: String = flags.parsed("host", "127.0.0.1".to_string())?;
    let port: u16 = flags.parsed("port", 0)?;
    let queue = serve::QueueConfig {
        capacity: flags.count("queue-cap", 64)?,
        max_batch: flags.count("max-batch", 8)?,
    };
    let replicas = flags.count("replicas", 1)?;
    let threads: usize = flags.parsed("threads", 0)?;
    approxnn::par::set_threads(threads);

    let json = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    eprintln!(
        "loading {path} ({}/{executor}, {replicas} replica(s)) ...",
        opts.model
    );
    let spec = serve::ServeSpec::from_json(&json, &opts)?;
    // One probe build for the startup diagnostics; the server builds its
    // own replica set from the same shared checkpoint.
    let probe = spec.build()?;
    let label = probe.label().to_string();
    eprintln!("graph executor compiled (fused kernels, per-shape plan cache)");
    drop(probe);

    let profile_path = flags.get("profile").cloned();
    if profile_path.is_some() {
        approxnn::obs::reset();
        approxnn::obs::set_enabled(true);
    }
    // Health hists are cheap (fixed bucket arrays) and feed the `metrics`
    // snapshot's `health[]`, so `obs top` shows the raw-frame preprocessing
    // stages (`data:*_us`, `serve:preprocess_us`) on any running server.
    approxnn::obs::set_health_enabled(true);

    let mut server = serve::Server::start(&spec, &format!("{host}:{port}"), queue, replicas)
        .map_err(|e| e.to_string())?;
    // Scripts wait for this line and parse the bound (possibly ephemeral)
    // port out of it.
    println!(
        "serving on {} (executor {executor}, max_batch {}, queue {}, replicas {replicas})",
        server.addr(),
        queue.max_batch,
        queue.capacity,
    );
    use std::io::Write;
    let _ = std::io::stdout().flush();
    server.join();

    if let Some(path) = &profile_path {
        approxnn::obs::set_enabled(false);
        approxnn::obs::set_health_enabled(false);
        let profile = approxnn::obs::RunProfile::capture(&format!("serve/{label}"));
        profile.append_jsonl(path).map_err(|e| e.to_string())?;
        let c = &profile.counters;
        let lookups = c.plan_cache_hits + c.plan_cache_misses;
        eprintln!(
            "profile appended to {path}: {} spans, {} hists, {} ratios, plan cache {}/{} hits",
            profile.spans.len(),
            profile.hists.len(),
            profile.health.len(),
            c.plan_cache_hits,
            lookups
        );
    }
    println!("drained cleanly");
    Ok(())
}

fn cmd_loadgen(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "axnn loadgen --addr <host:port> [--connections C --requests N --rate R \
                         --seed S --shutdown true | --reload FILE | --canary-seed S]\n       \
                         axnn loadgen --checkpoint <file> [--out FILE --executors LIST \
                         --replica-set LIST --sweep-steps N --connections C --requests N \
                         --queue-cap Q --threads T --model M --width W --hw H --mult ID --seed S]";
    let flags = parse_known(
        args,
        &[
            "addr",
            "connections",
            "requests",
            "rate",
            "seed",
            "shutdown",
            "reload",
            "canary-seed",
            "checkpoint",
            "out",
            "executors",
            "replica-set",
            "sweep-steps",
            "queue-cap",
            "threads",
            "model",
            "width",
            "hw",
            "mult",
        ],
        USAGE,
    )?;
    match (flags.get("addr"), flags.get("checkpoint")) {
        (Some(_), Some(_)) | (None, None) => Err(format!(
            "give exactly one of --addr or --checkpoint\nusage: {USAGE}"
        )),
        (Some(addr), None) => {
            if let Some(ckpt) = flags.get("reload") {
                // Hot-swap the running server onto a new checkpoint file
                // (read server-side) and print the canary-diff response.
                let msg = serve::reload_server(addr.as_str(), ckpt).map_err(|e| e.to_string())?;
                println!("{}", msg.reload_verdict_json());
                return if msg.status == "reloaded" {
                    Ok(())
                } else {
                    Err(format!("reload failed: {}", msg.detail))
                };
            }
            if flags.has("canary-seed") {
                // Deterministic probe: print only the logits, so two servers
                // can be bit-compared with `cmp` on the output.
                let seed: u64 = flags.parsed("canary-seed", 0)?;
                let input_len = serve::probe_input_len(addr.as_str()).map_err(|e| e.to_string())?;
                let msg = serve::canary_probe(addr.as_str(), input_len, seed)
                    .map_err(|e| e.to_string())?;
                if msg.status != "ok" {
                    return Err(format!("canary probe failed: {}", msg.detail));
                }
                let logits: Vec<String> = msg
                    .logits
                    .iter()
                    .map(|v| format!("{:08x}", v.to_bits()))
                    .collect();
                println!("{{\"logit_bits\": [\"{}\"]}}", logits.join("\", \""));
                return Ok(());
            }
            let cfg = LoadConfig {
                connections: flags.count("connections", 4)?,
                requests: flags.count("requests", 32)?,
                rate_rps: flags.parsed("rate", 0.0)?,
                seed: flags.parsed("seed", 1)?,
            };
            if !(cfg.rate_rps.is_finite() && cfg.rate_rps >= 0.0) {
                return Err(format!(
                    "--rate must be a finite rate >= 0 (0 = closed loop), got {}",
                    cfg.rate_rps
                ));
            }
            let input_len = serve::probe_input_len(addr.as_str()).map_err(|e| e.to_string())?;
            let report = serve::loadgen::drive(addr.as_str(), Payload::Tensor(input_len), &cfg)
                .map_err(|e| e.to_string())?;
            println!("{}", report.to_json());
            if flags.parsed("shutdown", false)? {
                let msg = serve::shutdown_server(addr.as_str()).map_err(|e| e.to_string())?;
                eprintln!("shutdown acknowledged: {}", msg.status);
            }
            Ok(())
        }
        (None, Some(path)) => {
            let base = model_options(&flags, ServeExecutor::Exact)?;
            let mut bench = serve::BenchConfig {
                connections: flags.count("connections", 4)?,
                requests: flags.count("requests", 24)?,
                queue_cap: flags.count("queue-cap", 64)?,
                seed: flags.parsed("seed", 1)?,
                sweep_steps: flags.count("sweep-steps", 5)?,
                ..serve::BenchConfig::default()
            };
            if let Some(list) = flags.get("executors") {
                bench.executors = list
                    .split(',')
                    .map(|s| s.trim().parse())
                    .collect::<Result<Vec<_>, _>>()?;
            }
            if let Some(list) = flags.get("replica-set") {
                bench.replica_set = parse_usize_list(list)
                    .map_err(|e| format!("--replica-set: {e}\nusage: {USAGE}"))?;
            }
            let out: String = flags.parsed("out", "results/BENCH_serve.json".to_string())?;
            let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            approxnn::par::set_threads(flags.parsed("threads", 0)?);
            let doc = serve::run_bench(&json, &base, &bench)?;
            std::fs::write(&out, &doc).map_err(|e| format!("{out}: {e}"))?;
            println!("wrote {out}");
            Ok(())
        }
    }
}

/// Drives the streaming bench (or the bit-identity probe) against a
/// serving address — the shared back half of both `axnn stream` modes.
fn stream_drive(
    addr: &str,
    flags: &Flags,
    shape: serve::FrameShape,
    cfg: &SweepConfig,
) -> Result<(), String> {
    if flags.has("probe-seed") {
        let seed: u64 = flags.parsed("probe-seed", 0)?;
        let verdict = serve::stream::probe(addr, shape, seed).map_err(|e| e.to_string())?;
        println!("{}", verdict.to_json());
        return if verdict.bit_identical {
            Ok(())
        } else {
            Err(format!(
                "raw-frame and tensor logits diverged (max |delta| {})",
                verdict.max_abs_delta
            ))
        };
    }
    let sweep =
        serve::loadgen::knee(addr, Payload::Frame(shape), cfg).map_err(|e| e.to_string())?;
    if sweep.calibration_rps > 0.0 {
        eprintln!(
            "closed-loop calibration achieved {:.1} fps",
            sweep.calibration_rps
        );
    }
    for step in &sweep.steps {
        let r = &step.report;
        eprintln!(
            "  offered {:>7.1} fps -> achieved {:>7.1} fps ({} ok, {} rejected, {} errors, \
             p99 {:.0} us, preprocess p50 {:.0} us){}",
            r.offered_rps,
            r.throughput_rps,
            r.ok,
            r.rejected,
            r.errors,
            r.latency.p99_us,
            r.preprocess.summary.p50_us,
            if step.kept_up { "" } else { "  [saturated]" },
        );
    }
    println!(
        "knee: kept up through {:.1} offered fps (best achieved {:.1} fps) for {} frames",
        sweep.knee_offered,
        sweep.knee_achieved,
        shape.label()
    );
    let out: String = flags.parsed("out", "results/BENCH_stream.json".to_string())?;
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
    }
    std::fs::write(&out, serve::stream::bench_json(&shape, &sweep))
        .map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

fn cmd_stream(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "axnn stream --addr <host:port> [--probe-seed S | --fps A,B,.. | \
                         --sweep-steps N] [--connections C --frame-height H \
                         --frame-width W --channels C --dtype u8|f32 --step-s S --seed S \
                         --out FILE]\n       \
                         axnn stream --checkpoint <file> [--model M --width W --hw H \
                         --executor E --mult ID --replicas R --max-batch N --queue-cap Q \
                         --threads T + the flags above]";
    let flags = parse_known(
        args,
        &[
            "addr",
            "checkpoint",
            "probe-seed",
            "fps",
            "sweep-steps",
            "connections",
            "frame-height",
            "frame-width",
            "channels",
            "dtype",
            "step-s",
            "seed",
            "out",
            "model",
            "width",
            "hw",
            "executor",
            "mult",
            "replicas",
            "max-batch",
            "queue-cap",
            "threads",
        ],
        USAGE,
    )?;
    let u8_pixels = match flags.parsed("dtype", "u8".to_string())?.as_str() {
        "u8" => true,
        "f32" => false,
        other => return Err(format!("unknown dtype '{other}' (use u8|f32)")),
    };
    let shape = serve::FrameShape {
        height: flags.parsed("frame-height", 48)?,
        width: flags.parsed("frame-width", 48)?,
        channels: flags.parsed("channels", 3)?,
        u8_pixels,
    };
    if shape.height == 0 || shape.width == 0 || shape.channels == 0 {
        return Err("frame dimensions must be non-zero".to_string());
    }
    let connections = flags.count("connections", 2)?;
    let seed = flags.parsed("seed", 1)?;
    let ladder = match flags.get("fps") {
        Some(list) => {
            let rates = list
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse::<f64>()
                        .map_err(|e| format!("--fps '{s}': {e}"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            if rates.is_empty() || rates.iter().any(|&r| !r.is_finite() || r <= 0.0) {
                return Err("--fps needs a comma list of positive rates".to_string());
            }
            Ladder::Rates(rates)
        }
        // One closed-loop calibration run finds the service rate; the
        // ladder then brackets it, `loadgen` style.
        None => Ladder::Calibrated {
            closed: LoadConfig {
                connections,
                requests: 64,
                rate_rps: 0.0,
                seed,
            },
            steps: flags.count("sweep-steps", 5)?,
        },
    };
    let cfg = SweepConfig {
        connections,
        ladder,
        step_duration_s: flags.parsed("step-s", 1.5)?,
        seed,
        keepup_ratio: 0.9,
    };
    match (flags.get("addr"), flags.get("checkpoint")) {
        (Some(_), Some(_)) | (None, None) => Err(format!(
            "give exactly one of --addr or --checkpoint\nusage: {USAGE}"
        )),
        (Some(addr), None) => stream_drive(addr, &flags, shape, &cfg),
        (None, Some(path)) => {
            // Self-contained mode: start an in-process server, stream
            // against it, then shut it down — one command produces
            // `results/BENCH_stream.json` from a checkpoint file.
            let executor: ServeExecutor = flags.parsed("executor", ServeExecutor::Exact)?;
            let opts = model_options(&flags, executor)?;
            let queue = serve::QueueConfig {
                capacity: flags.count("queue-cap", 64)?,
                max_batch: flags.count("max-batch", 8)?,
            };
            let replicas = flags.count("replicas", 2)?;
            let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            approxnn::par::set_threads(flags.parsed("threads", 0)?);
            let spec = serve::ServeSpec::from_json(&json, &opts)?;
            let mut server = serve::Server::start(&spec, "127.0.0.1:0", queue, replicas)
                .map_err(|e| e.to_string())?;
            let addr = server.addr().to_string();
            eprintln!("in-process server on {addr} (executor {executor}, {replicas} replica(s))");
            let outcome = stream_drive(&addr, &flags, shape, &cfg);
            let _ = serve::shutdown_server(addr.as_str());
            server.join();
            outcome
        }
    }
}

fn last_profile(path: &str) -> Result<approxnn::obs::RunProfile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut profiles = approxnn::report::parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
    profiles.pop().ok_or_else(|| format!("{path}: no profiles"))
}

fn cmd_obs(args: &[String]) -> Result<(), String> {
    const USAGE: &str =
        "axnn obs report <run.jsonl> | axnn obs diff <a.jsonl> <b.jsonl> [--json] [--counter-pct \
         P --ratio-abs F] | axnn obs top <addr> [--once] [--json] [--interval-ms M] | axnn obs \
         tail <addr> [--n K] [--interval-ms M]";
    match args.first().map(String::as_str) {
        Some("report") => {
            let path = args.get(1).ok_or_else(|| format!("usage: {USAGE}"))?;
            let profile = last_profile(path)?;
            print!("{}", approxnn::report::render_report(&profile));
            Ok(())
        }
        Some("diff") => {
            let mut rest: Vec<String> = args[1..].to_vec();
            let as_json = take_flag(&mut rest, "json");
            let a = rest
                .first()
                .ok_or_else(|| format!("usage: {USAGE}"))?
                .clone();
            let b = rest
                .get(1)
                .ok_or_else(|| format!("usage: {USAGE}"))?
                .clone();
            let flags = parse_known(&rest[2..], &["counter-pct", "ratio-abs"], USAGE)?;
            let counter_pct: f64 = flags.parsed("counter-pct", 1.0)?;
            let thresholds = approxnn::report::DiffThresholds {
                counter_rel: counter_pct / 100.0,
                ratio_abs: flags.parsed("ratio-abs", 0.05)?,
            };
            let baseline = last_profile(&a)?;
            let candidate = last_profile(&b)?;
            let diff = approxnn::report::diff_profiles(&baseline, &candidate, &thresholds);
            if as_json {
                println!("{}", diff.to_json());
            } else {
                print!("{}", diff.summary);
            }
            if diff.is_regression() {
                Err(format!(
                    "{} regression(s) past thresholds",
                    diff.regressions.len()
                ))
            } else {
                Ok(())
            }
        }
        Some("top") => cmd_obs_top(&args[1..], USAGE),
        Some("tail") => cmd_obs_tail(&args[1..], USAGE),
        _ => Err(format!("usage: {USAGE}")),
    }
}

/// `axnn obs top <addr>`: periodic-refresh dashboard over `{"cmd":
/// "metrics"}`. `--once` prints one frame and exits; `--json` prints the
/// raw snapshot instead of the rendered dashboard (for scripting).
fn cmd_obs_top(args: &[String], usage: &str) -> Result<(), String> {
    let mut rest: Vec<String> = args.to_vec();
    let once = take_flag(&mut rest, "once");
    let as_json = take_flag(&mut rest, "json");
    let addr = rest
        .first()
        .ok_or_else(|| format!("usage: {usage}"))?
        .clone();
    let flags = parse_known(&rest[1..], &["interval-ms"], usage)?;
    let interval = Duration::from_millis(flags.parsed("interval-ms", 1000u64)?);
    let mut client = serve::Client::connect(addr.as_str()).map_err(|e| format!("{addr}: {e}"))?;
    loop {
        let snap = client.metrics(None).map_err(|e| format!("{addr}: {e}"))?;
        if as_json {
            println!("{snap}");
        } else {
            let frame = approxnn::report::render_top(&snap)?;
            if !once {
                // ANSI clear + home keeps the dashboard in place.
                print!("\x1b[2J\x1b[H");
            }
            print!("{frame}");
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
        }
        if once {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

/// `axnn obs tail <addr>`: streaming trace printer over `{"cmd": "trace"}`
/// — polls the ring and prints records it has not shown yet.
fn cmd_obs_tail(args: &[String], usage: &str) -> Result<(), String> {
    let mut rest: Vec<String> = args.to_vec();
    let once = take_flag(&mut rest, "once");
    let addr = rest
        .first()
        .ok_or_else(|| format!("usage: {usage}"))?
        .clone();
    let flags = parse_known(&rest[1..], &["n", "interval-ms"], usage)?;
    let backlog: usize = flags.parsed("n", 16)?;
    let interval = Duration::from_millis(flags.parsed("interval-ms", 500u64)?);
    let mut client = serve::Client::connect(addr.as_str()).map_err(|e| format!("{addr}: {e}"))?;
    let mut cursor = 0u64;
    let mut n = backlog;
    loop {
        let tail = client.trace_tail(n).map_err(|e| format!("{addr}: {e}"))?;
        let (lines, last) = approxnn::report::trace_lines(&tail, cursor)?;
        cursor = last;
        for line in lines {
            println!("{line}");
        }
        if once {
            return Ok(());
        }
        // After the initial backlog, ask for the full ring so a burst
        // between polls cannot outrun the tail.
        n = serve::metrics::TRACE_RING_CAPACITY;
        std::thread::sleep(interval);
    }
}

fn usage() {
    println!("axnn — approximate-CNN optimization (DATE 2021 reproduction)");
    println!();
    println!("commands:");
    println!("  characterize <multiplier>   MRE / bias / GE fit of a catalogue multiplier");
    println!("  pipeline [--flags]          run FP training + 8A4W + approximation");
    println!("  evaluate --checkpoint <f>   restore a checkpoint and evaluate");
    println!("  search [--flags]            heterogeneous per-layer multiplier search");
    println!("  serve --checkpoint <f>      batched TCP inference service");
    println!("  loadgen --addr <h:p>        drive a server (closed/open loop)");
    println!("  loadgen --checkpoint <f>    run the serving bench matrix");
    println!("  stream --addr <h:p>         open-loop raw-frame streaming bench / probe");
    println!("  stream --checkpoint <f>     same, against an in-process server");
    println!("  obs report <run.jsonl>      markdown numeric-health report");
    println!("  obs diff <a> <b>            compare profiles; nonzero exit on regression");
    println!("  obs top <addr>              live metrics dashboard (--once --json to script)");
    println!("  obs tail <addr>             stream per-request trace records");
    println!("  help                        this text");
    println!();
    println!("see `src/bin/axnn.rs` docs for the full flag list");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("characterize") => cmd_characterize(&args[1..]),
        Some("pipeline") => cmd_pipeline(&args[1..]),
        Some("evaluate") => cmd_evaluate(&args[1..]),
        Some("search") => cmd_search(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("loadgen") => cmd_loadgen(&args[1..]),
        Some("stream") => cmd_stream(&args[1..]),
        Some("obs") => cmd_obs(&args[1..]),
        Some("help") | None => {
            usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
