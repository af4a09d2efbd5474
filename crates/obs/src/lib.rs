//! # axnn-obs
//!
//! A lightweight observability layer for the ApproxNN workspace: scoped
//! timers ([`span`]), monotonic operation counters ([`count`]), numeric-
//! health telemetry (streaming [`Hist`]ograms, clip/saturation ratios,
//! drift [`event`]s), and a [`RunProfile`] snapshot that serializes to
//! JSONL/CSV for the `results/` trajectory.
//!
//! ## Design constraints
//!
//! - **The disabled path costs nothing measurable.** Profiling is off by
//!   default; every instrumentation site starts with one relaxed atomic
//!   load ([`enabled`] / [`health_enabled`]) and bails out before
//!   allocating, formatting, or reading the clock. The `gemm_threads`
//!   bench records the measured enabled-vs-disabled overhead as
//!   `profile_overhead_pct` and `hist_overhead_pct`.
//! - **Profiling never touches numerics.** Instrumentation only *observes*
//!   — all kernels compute exactly the same bits whether profiling is on or
//!   off (asserted by `tests/thread_invariance.rs`).
//! - **Everything aggregates deterministically under `axnn_par`.** Counter
//!   increments are order-insensitive integer sums into process-global
//!   atomics, and the hot kernels derive their increments *analytically*
//!   outside the parallel region. Histograms carry order-sensitive f64
//!   moments, so health recording happens on the coordinating thread only
//!   (or per-shard histograms merged in shard order — see [`hist`]); totals
//!   are bit-identical for any thread count.
//!
//! ## Two switches
//!
//! [`set_enabled`] turns on the *work* telemetry (spans + counters);
//! [`set_health_enabled`] turns on the *numeric-health* telemetry
//! (histograms, ratios, events), which is costlier because the ε samples
//! need an exact reference GEMM. The flags are independent; `axnn pipeline
//! --profile` turns on both.
//!
//! ## Example
//!
//! ```
//! axnn_obs::reset();
//! axnn_obs::set_enabled(true);
//! axnn_obs::set_health_enabled(true);
//! {
//!     let _s = axnn_obs::span("demo");
//!     axnn_obs::count(axnn_obs::Counter::GemmMacs, 1024);
//! }
//! axnn_obs::record_value("eps:demo", axnn_obs::HistSpec::eps(), 2.5);
//! axnn_obs::record_ratio("sat_x:demo", 3, 100);
//! axnn_obs::set_enabled(false);
//! axnn_obs::set_health_enabled(false);
//! let profile = axnn_obs::RunProfile::capture("doc-example");
//! assert_eq!(profile.counters.gemm_macs, 1024);
//! assert_eq!(profile.spans[0].name, "demo");
//! assert_eq!(profile.hists[0].name, "eps:demo");
//! assert_eq!(profile.health[0].hits, 3);
//! ```

pub mod hist;
pub mod json;
mod profile;
pub mod window;

pub use hist::{Hist, HistSpec, SpecMismatch};
pub use profile::{
    CounterTotals, EventRecord, HistRecord, RatioRecord, RunProfile, SpanRecord, SCHEMA_VERSION,
};
pub use window::{CounterWindow, DeltaTracker, HistWindow, WindowSpec};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static HEALTH: AtomicBool = AtomicBool::new(false);

/// Bumped by every [`reset`] so in-flight [`Span`]s opened before the reset
/// discard themselves instead of folding stale timing into the fresh
/// registry.
static RESET_EPOCH: AtomicU64 = AtomicU64::new(0);

/// Whether span/counter profiling is currently enabled. One relaxed atomic
/// load — this is the only cost instrumentation sites pay when profiling is
/// off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span/counter profiling on or off (process-global). Off by default.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether numeric-health telemetry (histograms, ratios, events) is
/// enabled. Same contract as [`enabled`]: one relaxed load when off.
#[inline]
pub fn health_enabled() -> bool {
    HEALTH.load(Ordering::Relaxed)
}

/// Turns numeric-health telemetry on or off (process-global). Off by
/// default, independent of [`set_enabled`].
pub fn set_health_enabled(on: bool) {
    HEALTH.store(on, Ordering::Relaxed);
}

/// The monotonic operation counters the workspace tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Approximate multiplications executed (LUT-served products; zero
    /// weight codes are skipped by the kernels and not counted).
    ApproxMuls,
    /// Bytes served out of multiplier LUT rows (4 bytes per approximate
    /// product).
    LutBytes,
    /// Exact f32 GEMM multiply-accumulates (forward and backward).
    GemmMacs,
    /// Bytes moved by im2col / col2im lowering.
    Im2colBytes,
    /// Compiled-graph forward calls that reused a cached buffer plan.
    PlanCacheHits,
    /// Compiled-graph forward calls that planned buffers for a new shape.
    PlanCacheMisses,
    /// Candidate assignments actually scored by the heterogeneous search
    /// (inference + energy model; cache hits are not counted here).
    SearchEvals,
    /// Search candidates answered from the assignment evaluation cache.
    SearchCacheHits,
    /// Search candidates missing the evaluation cache (scored fresh).
    SearchCacheMisses,
}

const N_COUNTERS: usize = 9;

static TOTALS: [AtomicU64; N_COUNTERS] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

/// Adds `n` to a counter when profiling is enabled; a no-op otherwise.
///
/// The sum is order-insensitive, so concurrent increments from `axnn_par`
/// workers aggregate deterministically for any thread count — provided the
/// *increments themselves* do not depend on the partition (derive them from
/// the workload, not from per-thread state).
#[inline]
pub fn count(counter: Counter, n: u64) {
    if enabled() {
        TOTALS[counter as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Current value of one counter.
pub fn counter(counter: Counter) -> u64 {
    TOTALS[counter as usize].load(Ordering::Relaxed)
}

/// Snapshot of all counters.
pub fn counter_totals() -> CounterTotals {
    CounterTotals {
        approx_muls: counter(Counter::ApproxMuls),
        lut_bytes: counter(Counter::LutBytes),
        gemm_macs: counter(Counter::GemmMacs),
        im2col_bytes: counter(Counter::Im2colBytes),
        plan_cache_hits: counter(Counter::PlanCacheHits),
        plan_cache_misses: counter(Counter::PlanCacheMisses),
        search_evals: counter(Counter::SearchEvals),
        search_cache_hits: counter(Counter::SearchCacheHits),
        search_cache_misses: counter(Counter::SearchCacheMisses),
    }
}

/// Accumulated statistics of one span label.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SpanStat {
    count: u64,
    total_ns: u128,
}

/// Hit/total pair behind a [`RatioRecord`] (e.g. saturated codes / codes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RatioStat {
    hits: u64,
    total: u64,
}

fn span_registry() -> &'static Mutex<BTreeMap<String, SpanStat>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, SpanStat>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn hist_registry() -> &'static Mutex<BTreeMap<String, Hist>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Hist>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn ratio_registry() -> &'static Mutex<BTreeMap<String, RatioStat>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, RatioStat>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn event_log() -> &'static Mutex<Vec<EventRecord>> {
    static LOG: OnceLock<Mutex<Vec<EventRecord>>> = OnceLock::new();
    LOG.get_or_init(|| Mutex::new(Vec::new()))
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The registry entry under `label`, created with `init` on first use. The
/// lookup is by `&str`, so a label's key is allocated once, not on every
/// record under the registry lock.
fn entry<'a, V>(
    reg: &'a mut BTreeMap<String, V>,
    label: &str,
    init: impl FnOnce() -> V,
) -> &'a mut V {
    if !reg.contains_key(label) {
        reg.insert(label.to_string(), init());
    }
    reg.get_mut(label).expect("inserted above")
}

/// Clears all counters, span statistics, histograms, ratios and events
/// (typically before a run that will be captured into a [`RunProfile`]),
/// and bumps the reset epoch so spans still open across the reset are
/// discarded on drop instead of leaking stale timing into the new scope.
pub fn reset() {
    RESET_EPOCH.fetch_add(1, Ordering::Relaxed);
    for t in &TOTALS {
        t.store(0, Ordering::Relaxed);
    }
    lock(span_registry()).clear();
    lock(hist_registry()).clear();
    lock(ratio_registry()).clear();
    lock(event_log()).clear();
}

/// Records one value into the histogram registered under `label`, creating
/// it with `spec` on first use. A no-op unless [`health_enabled`].
///
/// Call from the coordinating thread only (the moments are order-sensitive;
/// see [`hist`] for the per-shard merge discipline).
pub fn record_value(label: &str, spec: HistSpec, x: f64) {
    if !health_enabled() {
        return;
    }
    let mut reg = lock(hist_registry());
    entry(&mut reg, label, || Hist::new(spec)).record(x);
}

/// Records a batch of values under `label` with one registry lock.
/// A no-op unless [`health_enabled`].
pub fn record_values(label: &str, spec: HistSpec, xs: impl IntoIterator<Item = f64>) {
    if !health_enabled() {
        return;
    }
    let mut reg = lock(hist_registry());
    entry(&mut reg, label, || Hist::new(spec)).record_all(xs);
}

/// Merges a locally accumulated histogram (e.g. a per-shard `Hist`) into
/// the registry under `label`. A no-op unless [`health_enabled`].
pub fn merge_hist(label: &str, h: &Hist) {
    if !health_enabled() {
        return;
    }
    let mut reg = lock(hist_registry());
    entry(&mut reg, label, || Hist::new(h.spec())).merge(h);
}

/// Adds `hits` out of `total` observations to the ratio registered under
/// `label` (clip rates, K-mask coverage, ...). A no-op unless
/// [`health_enabled`].
pub fn record_ratio(label: &str, hits: u64, total: u64) {
    if !health_enabled() {
        return;
    }
    let mut reg = lock(ratio_registry());
    let r = entry(&mut reg, label, RatioStat::default);
    r.hits += hits;
    r.total += total;
}

/// Upper bound on retained events: a runaway emitter cannot grow the log
/// (and with it every captured profile) without bound. Real runs stay far
/// below this — `eps_drift` trips at most once per monitor.
const MAX_EVENTS: usize = 1024;

/// Appends a discrete event (e.g. an ε-drift trip) to the event log.
/// A no-op unless [`health_enabled`]; events past `MAX_EVENTS` are
/// dropped.
pub fn event(kind: &str, label: &str, value: f64, detail: &str) {
    if !health_enabled() {
        return;
    }
    let mut log = lock(event_log());
    if log.len() >= MAX_EVENTS {
        return;
    }
    let seq = log.len() as u64;
    log.push(EventRecord {
        seq,
        kind: kind.to_string(),
        label: label.to_string(),
        value,
        detail: detail.to_string(),
    });
}

/// Snapshot of one registered histogram, or `None` if the label is absent.
pub fn hist_snapshot(label: &str) -> Option<Hist> {
    lock(hist_registry()).get(label).cloned()
}

/// Snapshots every histogram whose label starts with `prefix`, in label
/// order — the ε-drift monitor pools the `ge_res:` family this way.
pub fn hists_with_prefix(prefix: &str) -> Vec<(String, Hist)> {
    lock(hist_registry())
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(name, h)| (name.clone(), h.clone()))
        .collect()
}

/// A scoped timer: measures from construction to drop and folds the elapsed
/// time into the process-global registry under its label.
///
/// Construct through [`span`] or [`span2`]; when profiling is disabled the
/// guard is inert (no clock read, no allocation, no lock). A span that
/// outlives a [`reset`] discards itself on drop: its timing belongs to the
/// previous epoch, not the fresh registry.
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    state: Option<(String, Instant, u64)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((label, start, epoch)) = self.state.take() {
            if epoch != RESET_EPOCH.load(Ordering::Relaxed) {
                return;
            }
            let elapsed = start.elapsed().as_nanos();
            let mut reg = lock(span_registry());
            let stat = reg.entry(label).or_default();
            stat.count += 1;
            stat.total_ns += elapsed;
        }
    }
}

/// Opens a span under `label`. Inert when profiling is disabled.
#[inline]
pub fn span(label: &str) -> Span {
    if !enabled() {
        return Span { state: None };
    }
    Span {
        state: Some((
            label.to_string(),
            Instant::now(),
            RESET_EPOCH.load(Ordering::Relaxed),
        )),
    }
}

/// Opens a span under the two-part label `prefix:name` (the per-layer
/// convention: `fwd:conv3x3(16->32)/s1g1`). Formats only when enabled.
///
/// Per-call formatting allocates; hot per-layer sites pre-format the full
/// label once at layer construction (`GemmCore::fwd_span`) and call
/// [`span`] with it instead.
#[inline]
pub fn span2(prefix: &str, name: &str) -> Span {
    if !enabled() {
        return Span { state: None };
    }
    Span {
        state: Some((
            format!("{prefix}:{name}"),
            Instant::now(),
            RESET_EPOCH.load(Ordering::Relaxed),
        )),
    }
}

/// Sorted snapshot of the span registry as serializable records.
pub(crate) fn span_records() -> Vec<SpanRecord> {
    let reg = lock(span_registry());
    reg.iter()
        .map(|(name, stat)| SpanRecord {
            name: name.clone(),
            count: stat.count,
            total_ms: stat.total_ns as f64 / 1e6,
        })
        .collect()
}

/// Sorted snapshot of the histogram registry as serializable records.
pub(crate) fn hist_records() -> Vec<HistRecord> {
    let reg = lock(hist_registry());
    reg.iter().map(|(name, h)| h.to_record(name)).collect()
}

/// Sorted snapshot of the ratio registry as serializable records.
pub(crate) fn ratio_records() -> Vec<RatioRecord> {
    let reg = lock(ratio_registry());
    reg.iter()
        .map(|(name, r)| RatioRecord {
            name: name.clone(),
            hits: r.hits,
            total: r.total,
        })
        .collect()
}

/// Snapshot of the event log in emission order.
pub(crate) fn event_records() -> Vec<EventRecord> {
    lock(event_log()).clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// The enable flags, counters and registries are process-global;
    /// serialize the tests that mutate them.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_sites_record_nothing() {
        let _g = serial();
        reset();
        set_enabled(false);
        set_health_enabled(false);
        count(Counter::ApproxMuls, 42);
        {
            let _s = span("ignored");
        }
        record_value("h", HistSpec::eps(), 1.0);
        record_ratio("r", 1, 2);
        event("kind", "label", 0.0, "");
        assert_eq!(counter(Counter::ApproxMuls), 0);
        assert!(span_records().is_empty());
        assert!(hist_records().is_empty());
        assert!(ratio_records().is_empty());
        assert!(event_records().is_empty());
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let _g = serial();
        reset();
        set_enabled(true);
        count(Counter::GemmMacs, 10);
        count(Counter::GemmMacs, 5);
        count(Counter::LutBytes, 7);
        set_enabled(false);
        assert_eq!(counter(Counter::GemmMacs), 15);
        assert_eq!(counter(Counter::LutBytes), 7);
        let totals = counter_totals();
        assert_eq!(totals.gemm_macs, 15);
        assert_eq!(totals.lut_bytes, 7);
        assert_eq!(totals.approx_muls, 0);
        reset();
        assert_eq!(counter_totals(), CounterTotals::default());
    }

    #[test]
    fn spans_fold_by_label_in_sorted_order() {
        let _g = serial();
        reset();
        set_enabled(true);
        for _ in 0..3 {
            let _s = span("b");
        }
        {
            let _s = span2("a", "layer");
        }
        set_enabled(false);
        let records = span_records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].name, "a:layer");
        assert_eq!(records[0].count, 1);
        assert_eq!(records[1].name, "b");
        assert_eq!(records[1].count, 3);
        assert!(records[1].total_ms >= 0.0);
    }

    #[test]
    fn span_open_across_reset_is_discarded() {
        // Regression: a Span opened before reset() used to fold its stale
        // timing into the fresh registry on drop.
        let _g = serial();
        reset();
        set_enabled(true);
        let stale = span("stale");
        reset();
        drop(stale);
        set_enabled(false);
        assert!(
            span_records().is_empty(),
            "a span from a previous epoch must not survive reset()"
        );
    }

    #[test]
    fn span_closed_within_epoch_still_folds() {
        let _g = serial();
        reset();
        set_enabled(true);
        {
            let _s = span("fresh");
        }
        set_enabled(false);
        assert_eq!(span_records().len(), 1);
        reset();
    }

    #[test]
    fn health_registries_accumulate() {
        let _g = serial();
        reset();
        set_health_enabled(true);
        record_value("eps:a", HistSpec::eps(), 3.0);
        record_values("eps:a", HistSpec::eps(), [1.0, -1.0]);
        let mut local = Hist::new(HistSpec::eps());
        local.record(5.0);
        merge_hist("eps:a", &local);
        record_ratio("sat:a", 2, 10);
        record_ratio("sat:a", 1, 10);
        event("eps_drift", "trunc5", 2.0, "rms 2x fit");
        set_health_enabled(false);

        let h = hist_snapshot("eps:a").expect("histogram exists");
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), 2.0);
        let ratios = ratio_records();
        assert_eq!(ratios.len(), 1);
        assert_eq!((ratios[0].hits, ratios[0].total), (3, 20));
        let events = event_records();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "eps_drift");
        assert_eq!(events[0].seq, 0);
        assert_eq!(hists_with_prefix("eps:").len(), 1);
        assert!(hists_with_prefix("zzz:").is_empty());
        reset();
        assert!(hist_records().is_empty());
        assert!(hist_snapshot("eps:a").is_none());
    }

    #[test]
    fn event_log_is_bounded() {
        let _g = serial();
        reset();
        set_health_enabled(true);
        for i in 0..MAX_EVENTS + 8 {
            event("spam", "x", i as f64, "");
        }
        set_health_enabled(false);
        let events = event_records();
        assert_eq!(events.len(), MAX_EVENTS);
        assert_eq!(events.last().expect("full log").seq, MAX_EVENTS as u64 - 1);
        reset();
        assert!(event_records().is_empty());
    }

    #[test]
    fn counters_sum_identically_across_thread_interleavings() {
        let _g = serial();
        reset();
        set_enabled(true);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..1000 {
                        count(Counter::ApproxMuls, 3);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("counter thread");
        }
        set_enabled(false);
        assert_eq!(counter(Counter::ApproxMuls), 4 * 1000 * 3);
    }
}
