//! The serving benchmark matrix behind `axnn loadgen --bench`.
//!
//! For every requested executor × max-batch size the harness boots an
//! in-process server on an ephemeral port, probes it with a closed-loop
//! phase (throughput under a fixed caller population) and an open-loop
//! phase (latency at 80% of the measured closed-loop throughput), then
//! drains it. Two extra phases complete the picture:
//!
//! - an **overload** phase (queue capacity 1, single-request batches, an
//!   8-way burst) that must provoke `overloaded` rejections — admission
//!   control demonstrably firing, not just configured;
//! - an **obs-overhead** phase that serves the same workload with
//!   observability off and on in interleaved rounds and reports the
//!   relative service-time difference. The compared quantity is the
//!   server-reported **total compute time** per run (Σ `compute_us` over
//!   ok responses) — the instrumented region where the per-layer obs
//!   sites live — rather than client wall-clock, which on a shared box is
//!   dominated by loadgen scheduling noise. Rounds run under the
//!   quiet-window rule (host load here swings ±30%): if the off-rounds
//!   disagree beyond a tolerance the whole round set is re-run, bounded
//!   by a retry budget, and minima are compared — a load spike inflates
//!   individual rounds but not the minimum of an interleaved pair;
//! - a **metrics-overhead** phase that serves the same closed-loop
//!   workload with the serving metrics plane (trace ring + sliding
//!   windows, `{"cmd": "metrics"}`) disabled and enabled in interleaved
//!   rounds. Unlike the obs-overhead phase, the compared quantity is
//!   closed-loop **throughput**: the plane's cost sits *outside* the
//!   forward-pass span (one batch record after compute, before replies),
//!   so Σ `compute_us` cannot see it by construction. The same
//!   quiet-window retry rule applies, and maxima are compared — a load
//!   spike deflates individual rounds but not the maximum of an
//!   interleaved pair;
//! - a **replica sweep** that boots the approx executor at each configured
//!   replica count, estimates the service rate closed-loop, then probes an
//!   open-loop rate ladder around it to locate the saturation knee —
//!   replicas-vs-throughput, the horizontal-scaling record. Replica
//!   speedup is bounded by the host's core count (each replica worker
//!   needs its own core once the forward pass saturates one), so the
//!   document records `host_cores` alongside the knees. The sweep's last
//!   replica count is then re-probed with a live metrics consumer
//!   attached (a poller thread issuing `metrics` + `trace` every few
//!   milliseconds) — the knee-under-observation datapoint.

use crate::executor::ServeExecutor;
use crate::loadgen::{self, LoadConfig, Payload, SweepConfig};
use crate::model::{ModelOptions, ServeSpec};
use crate::queue::QueueConfig;
use crate::server::Server;
use axnn_obs::json::num;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The benchmark matrix and its budgets.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Executor families to measure.
    pub executors: Vec<ServeExecutor>,
    /// `max_batch` sizes to measure each executor under.
    pub max_batches: Vec<usize>,
    /// Queue capacity for the throughput/latency phases.
    pub queue_cap: usize,
    /// Concurrent loadgen connections.
    pub connections: usize,
    /// Requests per connection per phase.
    pub requests: usize,
    /// Seed for the deterministic request streams.
    pub seed: u64,
    /// Interleaved off/on rounds per obs-overhead attempt.
    pub overhead_rounds: usize,
    /// Quiet-window retries for the obs-overhead measurement.
    pub overhead_retries: usize,
    /// Largest tolerated spread of the off-rounds before a retry, percent.
    pub overhead_spread_tolerance_pct: f64,
    /// Poll period of the attached metrics consumer in the
    /// knee-under-observation probe, milliseconds.
    pub metrics_poll_ms: u64,
    /// Replica counts for the saturation-knee sweep (approx executor).
    pub replica_set: Vec<usize>,
    /// Open-loop rate steps per replica count in the sweep.
    pub sweep_steps: usize,
    /// Wall-clock budget per sweep step, seconds.
    pub sweep_step_duration_s: f64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            executors: vec![
                ServeExecutor::Exact,
                ServeExecutor::Quant,
                ServeExecutor::Approx,
            ],
            max_batches: vec![1, 8],
            queue_cap: 64,
            connections: 4,
            requests: 24,
            seed: 1,
            overhead_rounds: 5,
            overhead_retries: 4,
            overhead_spread_tolerance_pct: 30.0,
            metrics_poll_ms: 25,
            replica_set: vec![1, 2, 4],
            sweep_steps: 5,
            sweep_step_duration_s: 1.5,
        }
    }
}

fn start_server(
    checkpoint_json: &str,
    base: &ModelOptions,
    executor: ServeExecutor,
    queue: QueueConfig,
    replicas: usize,
) -> Result<Server, String> {
    let opts = ModelOptions {
        executor,
        ..base.clone()
    };
    let spec = ServeSpec::from_json(checkpoint_json, &opts)?;
    Server::start(&spec, "127.0.0.1:0", queue, replicas).map_err(|e| e.to_string())
}

/// One serving phase: drive the load, propagate transport-level failures.
fn drive(server: &Server, cfg: &LoadConfig) -> Result<loadgen::LoadReport, String> {
    loadgen::run(server.addr(), server.input_len(), cfg).map_err(|e| e.to_string())
}

/// Measures the relative service-time cost of full observability
/// (spans + counters + health) on the serving path, percent. Positive
/// means obs-on was slower. The measured quantity is the server's total
/// compute time for the run (see the module docs for why, and for the
/// quiet-window rule).
fn obs_overhead_pct(
    server: &Server,
    load: &LoadConfig,
    cfg: &BenchConfig,
) -> Result<(f64, usize), String> {
    fn total_compute_us(r: &loadgen::LoadReport) -> f64 {
        r.compute.mean_us * r.compute.count as f64
    }
    let mut attempts = 0;
    loop {
        attempts += 1;
        let mut best_off = f64::INFINITY;
        let mut worst_off = 0.0f64;
        let mut best_on = f64::INFINITY;
        for _ in 0..cfg.overhead_rounds {
            axnn_obs::set_enabled(false);
            axnn_obs::set_health_enabled(false);
            let off = total_compute_us(&drive(server, load)?);
            axnn_obs::set_enabled(true);
            axnn_obs::set_health_enabled(true);
            let on = total_compute_us(&drive(server, load)?);
            best_off = best_off.min(off);
            worst_off = worst_off.max(off);
            best_on = best_on.min(on);
        }
        axnn_obs::set_enabled(false);
        axnn_obs::set_health_enabled(false);
        let spread_pct = (worst_off - best_off) / best_off * 100.0;
        if spread_pct <= cfg.overhead_spread_tolerance_pct || attempts > cfg.overhead_retries {
            let overhead = (best_on - best_off) / best_off * 100.0;
            return Ok((overhead, attempts));
        }
    }
}

/// Measures the relative closed-loop throughput cost of the serving
/// metrics plane (per-request trace records + sliding-window aggregation),
/// percent. Positive means plane-on was slower. Throughput is the right
/// probe here: the plane's work happens per batch *outside* the compute
/// span, so the obs-overhead phase's Σ `compute_us` metric is blind to it
/// (see the module docs, and the quiet-window rule there).
fn metrics_overhead_pct(
    server: &Server,
    load: &LoadConfig,
    cfg: &BenchConfig,
) -> Result<(f64, usize), String> {
    let mut attempts = 0;
    loop {
        attempts += 1;
        let mut best_off = 0.0f64;
        let mut worst_off = f64::INFINITY;
        let mut best_on = 0.0f64;
        for _ in 0..cfg.overhead_rounds {
            server.metrics_plane().set_enabled(false);
            let off = drive(server, load)?.throughput_rps;
            server.metrics_plane().set_enabled(true);
            let on = drive(server, load)?.throughput_rps;
            best_off = best_off.max(off);
            worst_off = worst_off.min(off);
            best_on = best_on.max(on);
        }
        let spread_pct = (best_off - worst_off) / best_off * 100.0;
        if spread_pct <= cfg.overhead_spread_tolerance_pct || attempts > cfg.overhead_retries {
            let overhead = (best_off - best_on) / best_off * 100.0;
            return Ok((overhead, attempts));
        }
    }
}

/// Runs the full matrix against `checkpoint_json` and returns the
/// `BENCH_serve.json` document. `base.executor` is ignored — the matrix
/// iterates `cfg.executors`.
pub fn run_bench(
    checkpoint_json: &str,
    base: &ModelOptions,
    cfg: &BenchConfig,
) -> Result<String, String> {
    let mut config_objs = Vec::new();
    for &executor in &cfg.executors {
        for &max_batch in &cfg.max_batches {
            let queue = QueueConfig {
                capacity: cfg.queue_cap,
                max_batch,
            };
            let mut server = start_server(checkpoint_json, base, executor, queue, 1)?;
            eprintln!("bench: {executor} max_batch {max_batch} ...");
            let closed = drive(
                &server,
                &LoadConfig {
                    connections: cfg.connections,
                    requests: cfg.requests,
                    rate_rps: 0.0,
                    seed: cfg.seed,
                },
            )?;
            let open = drive(
                &server,
                &LoadConfig {
                    connections: cfg.connections,
                    requests: cfg.requests,
                    rate_rps: (closed.throughput_rps * 0.8).max(1.0),
                    seed: cfg.seed ^ 0x5eed,
                },
            )?;
            server.shutdown();
            config_objs.push(format!(
                "{{\"executor\": \"{executor}\", \"max_batch\": {max_batch}, \
                 \"queue_cap\": {}, \"closed\": {}, \"open\": {}}}",
                cfg.queue_cap,
                closed.to_json(),
                open.to_json(),
            ));
        }
    }

    // Overload phase: capacity 1, single-request batches, an 8-way burst.
    // With ≥ 2 requests in flight per admitted slot, rejections are
    // guaranteed, not probabilistic.
    let first = *cfg.executors.first().unwrap_or(&ServeExecutor::Exact);
    let mut server = start_server(
        checkpoint_json,
        base,
        first,
        QueueConfig {
            capacity: 1,
            max_batch: 1,
        },
        1,
    )?;
    eprintln!("bench: overload burst ...");
    let overload = drive(
        &server,
        &LoadConfig {
            connections: 8,
            requests: 4,
            rate_rps: 0.0,
            seed: cfg.seed ^ 0x0dd,
        },
    )?;
    server.shutdown();
    if overload.rejected == 0 {
        return Err("overload phase provoked no rejections; admission control untested".into());
    }

    // Obs-overhead phase on the first executor with batching enabled.
    let batched = QueueConfig {
        capacity: cfg.queue_cap,
        max_batch: *cfg.max_batches.last().unwrap_or(&8),
    };
    let mut server = start_server(checkpoint_json, base, first, batched, 1)?;
    eprintln!("bench: obs overhead ({} rounds) ...", cfg.overhead_rounds);
    axnn_obs::reset();
    let (overhead_pct, attempts) = obs_overhead_pct(
        &server,
        &LoadConfig {
            connections: 2,
            requests: 16,
            rate_rps: 0.0,
            seed: cfg.seed ^ 0x0b5,
        },
        cfg,
    )?;
    // The obs-on rounds populated the registries; capture proves the
    // serving path lands in the v2 profile schema.
    let profile = axnn_obs::RunProfile::capture(&format!("serve/{}/{first}", base.model));

    // Metrics-plane overhead on the same server (axnn-obs is off here, so
    // only the plane toggles between the interleaved rounds).
    eprintln!(
        "bench: metrics-plane overhead ({} rounds) ...",
        cfg.overhead_rounds
    );
    let (metrics_overhead_pct, metrics_attempts) = metrics_overhead_pct(
        &server,
        &LoadConfig {
            connections: 2,
            requests: 16,
            rate_rps: 0.0,
            seed: cfg.seed ^ 0x3e7,
        },
        cfg,
    )?;
    server.shutdown();
    axnn_obs::reset();

    // Replica scaling: for each replica count, estimate the service rate
    // closed-loop, then sweep open-loop rates around it to locate the
    // saturation knee. The approx executor is the deployment target, so it
    // is the one measured. Replica speedup tracks the host's core count —
    // each replica needs a core to run on — so the host parallelism is
    // recorded next to the numbers.
    let mut sweep_entries = Vec::new();
    let mut knee_by_replicas: Vec<(usize, f64)> = Vec::new();
    let sweep_exec = if cfg.executors.contains(&ServeExecutor::Approx) {
        ServeExecutor::Approx
    } else {
        first
    };
    for &replicas in &cfg.replica_set {
        let mut server = start_server(checkpoint_json, base, sweep_exec, batched, replicas)?;
        eprintln!("bench: replica sweep ({sweep_exec}, {replicas} replica(s)) ...");
        let closed = drive(
            &server,
            &LoadConfig {
                connections: cfg.connections.max(replicas),
                requests: cfg.requests,
                rate_rps: 0.0,
                seed: cfg.seed ^ 0x4e9,
            },
        )?;
        let sweep = loadgen::sweep(
            server.addr(),
            Payload::Tensor(server.input_len()),
            &SweepConfig {
                connections: cfg.connections.max(replicas),
                rates: loadgen::rate_ladder(closed.throughput_rps.max(1.0), cfg.sweep_steps),
                step_duration_s: cfg.sweep_step_duration_s,
                seed: cfg.seed ^ 0x5733b,
                keepup_ratio: 0.9,
            },
        )
        .map_err(|e| e.to_string())?;
        server.shutdown();
        knee_by_replicas.push((replicas, sweep.knee_achieved));
        sweep_entries.push(format!(
            "{{\"replicas\": {replicas}, \"closed_rps\": {}, \"sweep\": {}}}",
            num(closed.throughput_rps),
            sweep.to_json(),
        ));
    }
    let knee_at = |n: usize| {
        knee_by_replicas
            .iter()
            .find(|(r, _)| *r == n)
            .map(|(_, t)| *t)
    };

    // Knee under observation: rerun the sweep at the largest replica count
    // with a live metrics consumer attached — a poller thread issuing the
    // `metrics` and `trace` protocol commands every `metrics_poll_ms`.
    // Observation must not collapse the saturation knee.
    let obs_replicas = *cfg.replica_set.last().unwrap_or(&1);
    let mut server = start_server(checkpoint_json, base, sweep_exec, batched, obs_replicas)?;
    eprintln!("bench: knee with metrics poller attached ({obs_replicas} replica(s)) ...");
    let stop = Arc::new(AtomicBool::new(false));
    let poller = {
        let stop = Arc::clone(&stop);
        let addr = server.addr();
        let poll = Duration::from_millis(cfg.metrics_poll_ms.max(1));
        std::thread::spawn(move || {
            let mut polls = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if let Ok(mut client) = loadgen::Client::connect(addr) {
                    if client.metrics(None).is_ok() && client.trace_tail(8).is_ok() {
                        polls += 1;
                    }
                }
                std::thread::sleep(poll);
            }
            polls
        })
    };
    let closed = drive(
        &server,
        &LoadConfig {
            connections: cfg.connections.max(obs_replicas),
            requests: cfg.requests,
            rate_rps: 0.0,
            seed: cfg.seed ^ 0x4e9,
        },
    )?;
    let observed_sweep = loadgen::sweep(
        server.addr(),
        Payload::Tensor(server.input_len()),
        &SweepConfig {
            connections: cfg.connections.max(obs_replicas),
            rates: loadgen::rate_ladder(closed.throughput_rps.max(1.0), cfg.sweep_steps),
            step_duration_s: cfg.sweep_step_duration_s,
            seed: cfg.seed ^ 0x5733b,
            keepup_ratio: 0.9,
        },
    )
    .map_err(|e| e.to_string())?;
    stop.store(true, Ordering::Relaxed);
    let metrics_polls = poller.join().unwrap_or(0);
    server.shutdown();
    if metrics_polls == 0 {
        return Err(
            "knee probe's metrics poller completed no polls; metrics plane untested".into(),
        );
    }
    let speedup = match (knee_at(1), knee_by_replicas.last()) {
        (Some(base_knee), Some((_, best))) if base_knee > 0.0 => best / base_knee,
        _ => 0.0,
    };
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    Ok(format!(
        "{{\n  \"schema\": \"BENCH_serve.v4\",\n  \"model\": \"{}\",\n  \
         \"width\": {},\n  \"hw\": {},\n  \"mult\": \"{}\",\n  \"seed\": {},\n  \
         \"threads\": {},\n  \"configs\": [\n    {}\n  ],\n  \
         \"overload\": {{\"executor\": \"{first}\", \"queue_cap\": 1, \"sent\": {}, \
         \"ok\": {}, \"rejected\": {}, \"reject_rate\": {}}},\n  \
         \"replica_sweep\": {{\"executor\": \"{sweep_exec}\", \"host_cores\": {host_cores}, \
         \"max_batch\": {}, \"knee_speedup_max_vs_1\": {}, \"entries\": [\n    {}\n  ]}},\n  \
         \"knee_with_metrics\": {{\"replicas\": {obs_replicas}, \
         \"poll_ms\": {}, \"metrics_polls\": {metrics_polls}, \"knee_rps\": {}, \
         \"knee_plain_rps\": {}}},\n  \
         \"obs_overhead_pct\": {},\n  \"obs_overhead_attempts\": {attempts},\n  \
         \"metrics_overhead_pct\": {},\n  \
         \"metrics_overhead_attempts\": {metrics_attempts},\n  \
         \"obs_profile\": {{\"spans\": {}, \"hists\": {}, \"ratios\": {}, \
         \"plan_cache_hits\": {}, \"plan_cache_misses\": {}}}\n}}\n",
        base.model,
        num(base.width as f64),
        base.hw,
        base.mult,
        base.seed,
        axnn_par::num_threads(),
        config_objs.join(",\n    "),
        overload.sent,
        overload.ok,
        overload.rejected,
        num(overload.reject_rate),
        batched.max_batch,
        num(speedup),
        sweep_entries.join(",\n    "),
        cfg.metrics_poll_ms.max(1),
        num(observed_sweep.knee_achieved),
        num(knee_at(obs_replicas).unwrap_or(0.0)),
        num(overhead_pct),
        num(metrics_overhead_pct),
        profile.spans.len(),
        profile.hists.len(),
        profile.health.len(),
        profile.counters.plan_cache_hits,
        profile.counters.plan_cache_misses,
    ))
}
