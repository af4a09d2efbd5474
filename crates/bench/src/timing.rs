//! Wall-clock timing for the `benches/` mains (`harness = false`, run by
//! `cargo bench -p axnn-bench --bench <name>`).
//!
//! Two shapes of measurement cover every bench: [`bench`](fn@bench) reports the
//! per-call cost of one closure, and [`interleaved`] compares several
//! configurations round-robin so host drift hits them all alike.

use std::time::Instant;

/// Milliseconds taken by one call of `f`.
fn time_ms(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

/// Fastest and slowest sample of one configuration, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Extremes {
    /// Fastest sample.
    pub min_ms: f64,
    /// Slowest sample.
    pub max_ms: f64,
}

/// Times `run(i)` for every configuration `i < configs` over `rounds`
/// interleaved rounds: each round times every configuration once, in
/// order. Slow host drift (frequency scaling, co-tenants) then hits every
/// configuration alike instead of skewing their ratios; the per-config
/// minimum discards load spikes.
pub fn interleaved(rounds: usize, configs: usize, mut run: impl FnMut(usize)) -> Vec<Extremes> {
    let mut out = vec![
        Extremes {
            min_ms: f64::INFINITY,
            max_ms: 0.0,
        };
        configs
    ];
    for _ in 0..rounds {
        for (i, e) in out.iter_mut().enumerate() {
            let t = time_ms(|| run(i));
            e.min_ms = e.min_ms.min(t);
            e.max_ms = e.max_ms.max(t);
        }
    }
    out
}

/// Shortest sample batch: calls are batched until one batch lasts this
/// long, so sub-microsecond bodies still time above the clock's resolution.
const MIN_BATCH_MS: f64 = 1.0;

/// Per-call time of `f` in milliseconds: the fastest of `samples` batches,
/// each long enough to time reliably (one warm-up call first). Prints one
/// `name  time/call` line.
pub fn bench(name: &str, samples: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut calls = 1usize;
    while time_ms(|| (0..calls).for_each(|_| f())) < MIN_BATCH_MS && calls < 1 << 30 {
        calls *= 2;
    }
    let per_call = (0..samples)
        .map(|_| time_ms(|| (0..calls).for_each(|_| f())) / calls as f64)
        .fold(f64::INFINITY, f64::min);
    let shown = if per_call >= 1.0 {
        format!("{per_call:.3} ms")
    } else if per_call >= 1e-3 {
        format!("{:.3} us", per_call * 1e3)
    } else {
        format!("{:.1} ns", per_call * 1e6)
    };
    println!("{name:<44} {shown:>12}/call  (min of {samples} x {calls} calls)");
    per_call
}
