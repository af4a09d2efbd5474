//! The serving benchmark matrix behind `axnn loadgen --checkpoint`.
//!
//! For every requested executor × max-batch size the harness boots an
//! in-process server on an ephemeral port, probes it with a closed-loop
//! phase (throughput under a fixed caller population) and an open-loop
//! phase (latency at 80% of the measured closed-loop throughput), then
//! drains it. Every phase reports one [`LoadReport`]. Four more phases
//! complete the picture:
//!
//! - an **overload** phase (queue capacity 1, single-request batches, an
//!   8-way burst) that must provoke `overloaded` rejections — admission
//!   control demonstrably firing, not just configured;
//! - two **overhead** phases, each serving the same closed-loop workload
//!   with one cost switched off and on in interleaved rounds
//!   (the quiet-window rule is on `overhead_pct`). Observability (spans + counters + health) is
//!   measured by the server-reported **total compute time** per run
//!   (Σ `compute_us` over ok responses) — the instrumented region where
//!   the per-layer obs sites live — rather than client wall-clock, which
//!   on a shared box is dominated by loadgen scheduling noise. The serving
//!   metrics plane (trace ring + sliding windows) is measured by
//!   closed-loop **throughput**: its cost sits *outside* the forward-pass
//!   span (one batch record after compute, before replies), so Σ
//!   `compute_us` cannot see it by construction;
//! - a **replica sweep** that boots the approx executor at each configured
//!   replica count and runs a calibrated [`knee`](loadgen::knee) probe —
//!   replicas-vs-throughput, the horizontal-scaling record. Replica
//!   speedup is bounded by the host's core count (each replica worker
//!   needs its own core once the forward pass saturates one), so the
//!   document records `host_cores` alongside the knees. The sweep's last
//!   replica count is then re-probed with a live metrics consumer
//!   attached (a poller thread issuing `metrics` + `trace` every few
//!   milliseconds) — the knee-under-observation datapoint.

use crate::executor::ServeExecutor;
use crate::loadgen::{self, Ladder, LoadConfig, LoadReport, Payload, Sweep, SweepConfig};
use crate::model::{ModelOptions, ServeSpec};
use crate::queue::QueueConfig;
use crate::server::Server;
use axnn_obs::json::num;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// `max_batch` sizes every executor is measured under.
const MAX_BATCHES: [usize; 2] = [1, 8];
/// Interleaved off/on rounds per overhead attempt.
const OVERHEAD_ROUNDS: usize = 5;
/// Quiet-window retries per overhead measurement.
const OVERHEAD_RETRIES: usize = 4;
/// Largest tolerated spread of the off-rounds before a retry, percent.
const OVERHEAD_SPREAD_TOLERANCE_PCT: f64 = 30.0;
/// Poll period of the metrics consumer attached to the knee probe, ms.
const METRICS_POLL_MS: u64 = 25;
/// Wall-clock budget per knee-probe step, seconds.
const SWEEP_STEP_DURATION_S: f64 = 1.5;

/// The benchmark matrix: what `axnn loadgen --checkpoint` sets.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Executor families to measure.
    pub executors: Vec<ServeExecutor>,
    /// Queue capacity for the throughput/latency phases.
    pub queue_cap: usize,
    /// Concurrent loadgen connections.
    pub connections: usize,
    /// Requests per connection per phase.
    pub requests: usize,
    /// Seed for the deterministic request streams.
    pub seed: u64,
    /// Replica counts for the saturation-knee sweep (approx executor).
    pub replica_set: Vec<usize>,
    /// Open-loop rate steps per knee probe.
    pub sweep_steps: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            executors: vec![
                ServeExecutor::Exact,
                ServeExecutor::Quant,
                ServeExecutor::Approx,
            ],
            queue_cap: 64,
            connections: 4,
            requests: 24,
            seed: 1,
            replica_set: vec![1, 2, 4],
            sweep_steps: 5,
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
fn drive(server: &Server, cfg: &LoadConfig) -> Result<LoadReport, String> {
    loadgen::drive(server.addr(), Payload::Tensor(server.input_len()), cfg)
        .map_err(|e| e.to_string())
}

/// Measures the relative cost of one switchable serving feature, percent:
/// `set(false)` and `set(true)` alternate over interleaved rounds of
/// `load`, and `cost` reads each run's lower-is-better figure (negate a
/// higher-is-better one). Positive means switched-on was worse.
///
/// Rounds run under the quiet-window rule (host load here swings ±30%):
/// if the off-rounds disagree beyond a tolerance the whole round set is
/// re-run, bounded by a retry budget, and the best rounds are compared —
/// a load spike worsens individual rounds but not the best of an
/// interleaved pair. Returns the overhead and the attempts it took; the
/// feature is left switched off.
fn overhead_pct(
    server: &Server,
    load: &LoadConfig,
    set: impl Fn(bool),
    cost: impl Fn(&LoadReport) -> f64,
) -> Result<(f64, usize), String> {
    let mut attempts = 0;
    loop {
        attempts += 1;
        let mut best_off = f64::INFINITY;
        let mut worst_off = f64::NEG_INFINITY;
        let mut best_on = f64::INFINITY;
        for _ in 0..OVERHEAD_ROUNDS {
            set(false);
            let off = cost(&drive(server, load)?);
            set(true);
            let on = cost(&drive(server, load)?);
            best_off = best_off.min(off);
            worst_off = worst_off.max(off);
            best_on = best_on.min(on);
        }
        set(false);
        let spread_pct = (worst_off - best_off) / best_off.abs() * 100.0;
        if spread_pct <= OVERHEAD_SPREAD_TOLERANCE_PCT || attempts > OVERHEAD_RETRIES {
            return Ok(((best_on - best_off) / best_off.abs() * 100.0, attempts));
        }
    }
}

/// The calibrated knee probe of one replica sweep entry: a closed-loop
/// calibration run, then `cfg.sweep_steps` open-loop rates around it.
fn replica_knee(server: &Server, cfg: &BenchConfig, replicas: usize) -> Result<Sweep, String> {
    let connections = cfg.connections.max(replicas);
    let sweep = SweepConfig {
        connections,
        ladder: Ladder::Calibrated {
            closed: LoadConfig {
                connections,
                requests: cfg.requests,
                rate_rps: 0.0,
                seed: cfg.seed ^ 0x4e9,
            },
            steps: cfg.sweep_steps,
        },
        step_duration_s: SWEEP_STEP_DURATION_S,
        seed: cfg.seed ^ 0x5733b,
        keepup_ratio: 0.9,
    };
    loadgen::knee(server.addr(), Payload::Tensor(server.input_len()), &sweep)
        .map_err(|e| e.to_string())
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
        for max_batch in MAX_BATCHES {
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

    // Overhead phases on the first executor with batching enabled.
    let batched = QueueConfig {
        capacity: cfg.queue_cap,
        max_batch: MAX_BATCHES[MAX_BATCHES.len() - 1],
    };
    let overhead_load = |salt| LoadConfig {
        connections: 2,
        requests: 16,
        rate_rps: 0.0,
        seed: cfg.seed ^ salt,
    };
    let mut server = start_server(checkpoint_json, base, first, batched, 1)?;
    eprintln!("bench: obs overhead ({OVERHEAD_ROUNDS} rounds) ...");
    axnn_obs::reset();
    let (obs_overhead_pct, obs_attempts) = overhead_pct(
        &server,
        &overhead_load(0x0b5),
        |on| {
            axnn_obs::set_enabled(on);
            axnn_obs::set_health_enabled(on);
        },
        |r| r.compute.summary.mean_us * r.compute.summary.count as f64,
    )?;
    // The obs-on rounds populated the registries; capture proves the
    // serving path lands in the v2 profile schema.
    let profile = axnn_obs::RunProfile::capture(&format!("serve/{}/{first}", base.model));

    // Metrics-plane overhead on the same server (axnn-obs is off here, so
    // only the plane toggles between the interleaved rounds).
    eprintln!("bench: metrics-plane overhead ({OVERHEAD_ROUNDS} rounds) ...");
    let plane = server.metrics_plane();
    let (metrics_overhead_pct, metrics_attempts) = overhead_pct(
        &server,
        &overhead_load(0x3e7),
        |on| plane.set_enabled(on),
        |r| -r.throughput_rps,
    )?;
    server.shutdown();
    axnn_obs::reset();

    // Replica scaling: a calibrated knee probe per replica count. The
    // approx executor is the deployment target, so it is the one
    // measured. Replica speedup tracks the host's core count — each
    // replica needs a core to run on — so the host parallelism is
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
        let sweep = replica_knee(&server, cfg, replicas)?;
        server.shutdown();
        knee_by_replicas.push((replicas, sweep.knee_achieved));
        sweep_entries.push(format!(
            "{{\"replicas\": {replicas}, \"sweep\": {}}}",
            sweep.to_json(),
        ));
    }
    let knee_at = |n: usize| {
        knee_by_replicas
            .iter()
            .find(|(r, _)| *r == n)
            .map(|(_, t)| *t)
    };

    // Knee under observation: rerun the probe at the largest replica count
    // with a live metrics consumer attached — a poller thread issuing the
    // `metrics` and `trace` protocol commands every `METRICS_POLL_MS`.
    // Observation must not collapse the saturation knee.
    let obs_replicas = *cfg.replica_set.last().unwrap_or(&1);
    let mut server = start_server(checkpoint_json, base, sweep_exec, batched, obs_replicas)?;
    eprintln!("bench: knee with metrics poller attached ({obs_replicas} replica(s)) ...");
    let stop = Arc::new(AtomicBool::new(false));
    let poller = {
        let stop = Arc::clone(&stop);
        let addr = server.addr();
        std::thread::spawn(move || {
            let mut polls = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if let Ok(mut client) = loadgen::Client::connect(addr) {
                    if client.metrics(None).is_ok() && client.trace_tail(8).is_ok() {
                        polls += 1;
                    }
                }
                std::thread::sleep(Duration::from_millis(METRICS_POLL_MS));
            }
            polls
        })
    };
    let observed_sweep = replica_knee(&server, cfg, obs_replicas)?;
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
        "{{\n  \"schema\": \"BENCH_serve.v5\",\n  \"model\": \"{}\",\n  \
         \"width\": {},\n  \"hw\": {},\n  \"mult\": \"{}\",\n  \"seed\": {},\n  \
         \"threads\": {},\n  \"configs\": [\n    {}\n  ],\n  \
         \"overload\": {{\"executor\": \"{first}\", \"queue_cap\": 1, \"report\": {}}},\n  \
         \"replica_sweep\": {{\"executor\": \"{sweep_exec}\", \"host_cores\": {host_cores}, \
         \"max_batch\": {}, \"knee_speedup_max_vs_1\": {}, \"entries\": [\n    {}\n  ]}},\n  \
         \"knee_with_metrics\": {{\"replicas\": {obs_replicas}, \
         \"poll_ms\": {METRICS_POLL_MS}, \"metrics_polls\": {metrics_polls}, \"knee_rps\": {}, \
         \"knee_plain_rps\": {}}},\n  \
         \"obs_overhead_pct\": {},\n  \"obs_overhead_attempts\": {obs_attempts},\n  \
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
        overload.to_json(),
        batched.max_batch,
        num(speedup),
        sweep_entries.join(",\n    "),
        num(observed_sweep.knee_achieved),
        num(knee_at(obs_replicas).unwrap_or(0.0)),
        num(obs_overhead_pct),
        num(metrics_overhead_pct),
        profile.spans.len(),
        profile.hists.len(),
        profile.health.len(),
        profile.counters.plan_cache_hits,
        profile.counters.plan_cache_misses,
    ))
}
