//! Profile analysis behind `axnn obs`: parse [`RunProfile`] JSONL
//! trajectories, render a per-layer markdown health report, and diff two
//! profiles with regression thresholds (the CI gate).
//!
//! Parsing uses the dependency-free reader behind
//! [`RunProfile::from_json`] — the hand-written emitter and that parser
//! are held together by the round-trip property tests in
//! `crates/obs/tests/json_roundtrip.rs`.

use crate::obs::json::{join, num, num_or_null, string};
use crate::obs::{HistRecord, RatioRecord, RunProfile};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Parses a JSONL profile trajectory (one [`RunProfile`] per non-empty
/// line). v1 lines parse with empty health sections.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn parse_jsonl(text: &str) -> Result<Vec<RunProfile>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let p = RunProfile::from_json(line)
            .map_err(|e| format!("line {}: not a run profile: {e}", i + 1))?;
        out.push(p);
    }
    Ok(out)
}

/// The health metrics of one layer, regrouped from the flat label families
/// (`eps:<layer>`, `sat_x:<layer>`, ...).
#[derive(Debug, Default)]
struct LayerHealth<'a> {
    eps: Option<&'a HistRecord>,
    residual: Option<&'a HistRecord>,
    grad_norm: Option<&'a HistRecord>,
    linear: Option<&'a RatioRecord>,
    sat_x: Option<&'a RatioRecord>,
    sat_w: Option<&'a RatioRecord>,
}

fn split_label(name: &str) -> Option<(&str, &str)> {
    name.split_once(':')
}

fn layer_health(p: &RunProfile) -> BTreeMap<&str, LayerHealth<'_>> {
    let mut layers: BTreeMap<&str, LayerHealth<'_>> = BTreeMap::new();
    for h in &p.hists {
        let Some((family, layer)) = split_label(&h.name) else {
            continue;
        };
        let entry = layers.entry(layer).or_default();
        match family {
            "eps" => entry.eps = Some(h),
            "ge_res" => entry.residual = Some(h),
            "grad_norm" => entry.grad_norm = Some(h),
            _ => {}
        }
    }
    for r in &p.health {
        let Some((family, layer)) = split_label(&r.name) else {
            continue;
        };
        let entry = layers.entry(layer).or_default();
        match family {
            "ge_lin" => entry.linear = Some(r),
            "sat_x" => entry.sat_x = Some(r),
            "sat_w" => entry.sat_w = Some(r),
            _ => {}
        }
    }
    layers
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.3}"),
        None => "—".to_string(),
    }
}

fn fmt_pct(r: Option<&RatioRecord>) -> String {
    match r {
        Some(r) => format!("{:.2} %", r.rate() * 100.0),
        None => "—".to_string(),
    }
}

/// Renders one profile as a markdown report: counters, the heaviest spans,
/// the per-layer health table, and the event log.
pub fn render_report(p: &RunProfile) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Run profile: {}", p.label);
    let _ = writeln!(out, "\nschema v{}", p.schema_version);

    let c = &p.counters;
    out.push_str("\n## Counters\n\n| counter | value |\n|---|---:|\n");
    for (name, v) in [
        ("approx_muls", c.approx_muls),
        ("lut_bytes", c.lut_bytes),
        ("gemm_macs", c.gemm_macs),
        ("im2col_bytes", c.im2col_bytes),
        ("plan_cache_hits", c.plan_cache_hits),
        ("plan_cache_misses", c.plan_cache_misses),
        ("search_evals", c.search_evals),
        ("search_cache_hits", c.search_cache_hits),
        ("search_cache_misses", c.search_cache_misses),
    ] {
        let _ = writeln!(out, "| {name} | {v} |");
    }
    let lookups = c.plan_cache_hits + c.plan_cache_misses;
    if lookups > 0 {
        let _ = writeln!(
            out,
            "\nplan-cache hit ratio: {:.2} %",
            c.plan_cache_hits as f64 / lookups as f64 * 100.0
        );
    }
    let probes = c.search_cache_hits + c.search_cache_misses;
    if probes > 0 {
        let _ = writeln!(
            out,
            "\nsearch-cache hit ratio: {:.2} %",
            c.search_cache_hits as f64 / probes as f64 * 100.0
        );
    }

    let mut spans: Vec<_> = p.spans.iter().collect();
    spans.sort_by(|a, b| b.total_ms.total_cmp(&a.total_ms));
    out.push_str("\n## Top spans\n\n| span | count | total ms |\n|---|---:|---:|\n");
    for s in spans.iter().take(12) {
        let _ = writeln!(out, "| {} | {} | {:.3} |", s.name, s.count, s.total_ms);
    }
    if spans.len() > 12 {
        let _ = writeln!(out, "\n({} more spans omitted)", spans.len() - 12);
    }

    let layers = layer_health(p);
    out.push_str("\n## Per-layer numeric health\n");
    if layers.is_empty() {
        out.push_str("\n(no health telemetry in this profile)\n");
    } else {
        out.push_str(
            "\n| layer | ε mean | ε rms | ε n | resid rms | K-mask | sat(x) | sat(w) | ∥∇w∥ mean |\n\
             |---|---:|---:|---:|---:|---:|---:|---:|---:|\n",
        );
        for (layer, h) in &layers {
            let _ = writeln!(
                out,
                "| {layer} | {} | {} | {} | {} | {} | {} | {} | {} |",
                fmt_opt(h.eps.map(|e| e.mean)),
                fmt_opt(h.eps.map(|e| e.rms())),
                h.eps
                    .map(|e| e.count.to_string())
                    .unwrap_or_else(|| "—".to_string()),
                fmt_opt(h.residual.map(|r| r.rms())),
                fmt_pct(h.linear),
                fmt_pct(h.sat_x),
                fmt_pct(h.sat_w),
                fmt_opt(h.grad_norm.map(|g| g.mean)),
            );
        }
    }

    out.push_str("\n## Events\n\n");
    if p.events.is_empty() {
        out.push_str("none\n");
    } else {
        for e in &p.events {
            let _ = writeln!(
                out,
                "- [{}] {} ({}): {} — {}",
                e.seq, e.kind, e.label, e.value, e.detail
            );
        }
    }
    out
}

/// Regression thresholds of [`diff_profiles`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffThresholds {
    /// Max tolerated *relative increase* of any work counter
    /// (fraction: `0.01` = 1 %). Counters are deterministic, so the
    /// default tolerance is tight.
    pub counter_rel: f64,
    /// Max tolerated *absolute change* of a health ratio in the bad
    /// direction: saturation rates going up, K-mask coverage going down.
    pub ratio_abs: f64,
}

impl Default for DiffThresholds {
    fn default() -> Self {
        Self {
            counter_rel: 0.01,
            ratio_abs: 0.05,
        }
    }
}

/// One work counter's comparison inside a [`DiffReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct CounterDiff {
    /// Counter name.
    pub name: String,
    /// Baseline value.
    pub baseline: u64,
    /// Candidate value.
    pub candidate: u64,
    /// Relative change (fraction; +∞ when growing from zero).
    pub rel_change: f64,
    /// Whether this counter participates in the regression gate.
    pub gated: bool,
    /// Whether it violated the threshold.
    pub regressed: bool,
}

/// One health ratio's comparison inside a [`DiffReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct RatioDiff {
    /// Ratio label (`sat_x:<layer>`, `ge_lin:<layer>`, ...).
    pub name: String,
    /// Baseline rate; `None` when the ratio is new in the candidate.
    pub baseline: Option<f64>,
    /// Candidate rate.
    pub candidate: f64,
    /// `candidate - baseline` (0 for new ratios).
    pub delta: f64,
    /// Whether it moved past the threshold in its bad direction.
    pub regressed: bool,
}

/// Outcome of a profile comparison: the rendered summary plus the flagged
/// regressions (empty = gate passes), plus the structured rows behind the
/// `--json` rendering.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Markdown comparison summary.
    pub summary: String,
    /// One line per threshold violation.
    pub regressions: Vec<String>,
    /// Baseline profile label.
    pub baseline_label: String,
    /// Candidate profile label.
    pub candidate_label: String,
    /// Per-counter comparison, in the fixed counter order.
    pub counters: Vec<CounterDiff>,
    /// Per-ratio comparison, sorted by ratio name.
    pub ratios: Vec<RatioDiff>,
    /// `eps_drift` event counts: (baseline, candidate).
    pub drift_events: (usize, usize),
}

impl DiffReport {
    /// Whether any threshold was violated.
    pub fn is_regression(&self) -> bool {
        !self.regressions.is_empty()
    }

    /// Machine-readable rendering (`axnn obs diff --json`): one JSON object
    /// with a fixed, documented key order, so CI can gate on specific
    /// metrics without parsing markdown. The exit-code contract is the
    /// caller's (`regression` mirrors it in-band).
    pub fn to_json(&self) -> String {
        // Growth from zero is ±∞ — emitted as null, not a misleading 0.
        let counters = join(
            self.counters.iter().map(|c| {
                format!(
                    "{{\"name\": {}, \"baseline\": {}, \"candidate\": {}, \
                     \"rel_change\": {}, \"gated\": {}, \"regressed\": {}}}",
                    string(&c.name),
                    c.baseline,
                    c.candidate,
                    num_or_null(c.rel_change),
                    c.gated,
                    c.regressed,
                )
            }),
            ", ",
        );
        let ratios = join(
            self.ratios.iter().map(|r| {
                format!(
                    "{{\"name\": {}, \"baseline\": {}, \"candidate\": {}, \
                     \"delta\": {}, \"regressed\": {}}}",
                    string(&r.name),
                    r.baseline
                        .map_or("null".to_string(), |b| num(b).to_string()),
                    num(r.candidate),
                    num(r.delta),
                    r.regressed,
                )
            }),
            ", ",
        );
        format!(
            "{{\"schema_version\": 1, \"baseline\": {}, \"candidate\": {}, \
             \"regression\": {}, \"counters\": [{counters}], \"ratios\": [{ratios}], \
             \"events\": {{\"eps_drift_baseline\": {}, \"eps_drift_candidate\": {}}}, \
             \"regressions\": [{}]}}",
            string(&self.baseline_label),
            string(&self.candidate_label),
            self.is_regression(),
            self.drift_events.0,
            self.drift_events.1,
            join(self.regressions.iter().map(|r| string(r)), ", "),
        )
    }
}

/// Compares run `b` (candidate) against run `a` (baseline).
///
/// Flags as regressions: work counters that grew beyond
/// [`DiffThresholds::counter_rel`], saturation ratios that rose — or
/// K-mask (`ge_lin:`) coverage that fell — by more than
/// [`DiffThresholds::ratio_abs`], and new `eps_drift` events. Shrinking
/// counters and ratios present in only one profile are reported in the
/// summary but never flagged.
pub fn diff_profiles(a: &RunProfile, b: &RunProfile, th: &DiffThresholds) -> DiffReport {
    let mut summary = String::new();
    let mut regressions = Vec::new();
    let mut counter_rows = Vec::new();
    let mut ratio_rows = Vec::new();
    let _ = writeln!(summary, "# Profile diff\n\nbaseline: {}", a.label);
    let _ = writeln!(summary, "candidate: {}\n", b.label);

    summary.push_str(
        "## Counters\n\n| counter | baseline | candidate | change |\n|---|---:|---:|---:|\n",
    );
    let (ca, cb) = (&a.counters, &b.counters);
    // The plan-cache and search counters describe executor plumbing and
    // search progress, not numeric work, and legitimately differ between
    // otherwise-equivalent runs — shown, never gated.
    for (name, va, vb, gated) in [
        ("approx_muls", ca.approx_muls, cb.approx_muls, true),
        ("lut_bytes", ca.lut_bytes, cb.lut_bytes, true),
        ("gemm_macs", ca.gemm_macs, cb.gemm_macs, true),
        ("im2col_bytes", ca.im2col_bytes, cb.im2col_bytes, true),
        (
            "plan_cache_hits",
            ca.plan_cache_hits,
            cb.plan_cache_hits,
            false,
        ),
        (
            "plan_cache_misses",
            ca.plan_cache_misses,
            cb.plan_cache_misses,
            false,
        ),
        ("search_evals", ca.search_evals, cb.search_evals, false),
        (
            "search_cache_hits",
            ca.search_cache_hits,
            cb.search_cache_hits,
            false,
        ),
        (
            "search_cache_misses",
            ca.search_cache_misses,
            cb.search_cache_misses,
            false,
        ),
    ] {
        let rel = if va == 0 {
            if vb == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (vb as f64 - va as f64) / va as f64
        };
        let _ = writeln!(summary, "| {name} | {va} | {vb} | {:+.2} % |", rel * 100.0);
        let regressed = gated && rel > th.counter_rel;
        if regressed {
            regressions.push(format!(
                "counter {name} grew {:.2} % ({va} -> {vb}), tolerance {:.2} %",
                rel * 100.0,
                th.counter_rel * 100.0
            ));
        }
        counter_rows.push(CounterDiff {
            name: name.to_string(),
            baseline: va,
            candidate: vb,
            rel_change: rel,
            gated,
            regressed,
        });
    }

    let ratios_a: BTreeMap<&str, &RatioRecord> =
        a.health.iter().map(|r| (r.name.as_str(), r)).collect();
    summary.push_str(
        "\n## Health ratios\n\n| ratio | baseline | candidate | change |\n|---|---:|---:|---:|\n",
    );
    for rb in &b.health {
        let Some(ra) = ratios_a.get(rb.name.as_str()) else {
            let _ = writeln!(summary, "| {} | — | {:.4} | new |", rb.name, rb.rate());
            ratio_rows.push(RatioDiff {
                name: rb.name.clone(),
                baseline: None,
                candidate: rb.rate(),
                delta: 0.0,
                regressed: false,
            });
            continue;
        };
        let delta = rb.rate() - ra.rate();
        let _ = writeln!(
            summary,
            "| {} | {:.4} | {:.4} | {delta:+.4} |",
            rb.name,
            ra.rate(),
            rb.rate()
        );
        // Coverage of the K-mask shrinking is the bad direction; for the
        // saturation families it is growth.
        let bad = if rb.name.starts_with("ge_lin:") {
            -delta
        } else {
            delta
        };
        let regressed = bad > th.ratio_abs;
        if regressed {
            regressions.push(format!(
                "ratio {} moved {delta:+.4} ({:.4} -> {:.4}), tolerance {:.4}",
                rb.name,
                ra.rate(),
                rb.rate(),
                th.ratio_abs
            ));
        }
        ratio_rows.push(RatioDiff {
            name: rb.name.clone(),
            baseline: Some(ra.rate()),
            candidate: rb.rate(),
            delta,
            regressed,
        });
    }
    ratio_rows.sort_by(|x, y| x.name.cmp(&y.name));

    let drift = |p: &RunProfile| p.events.iter().filter(|e| e.kind == "eps_drift").count();
    let (da, db) = (drift(a), drift(b));
    let _ = writeln!(
        summary,
        "\n## Events\n\neps_drift: baseline {da}, candidate {db}"
    );
    if db > da {
        regressions.push(format!(
            "candidate emitted {} new eps_drift event(s) ({da} -> {db})",
            db - da
        ));
    }

    if regressions.is_empty() {
        summary.push_str("\nno regressions\n");
    } else {
        summary.push_str("\n## Regressions\n\n");
        for r in &regressions {
            let _ = writeln!(summary, "- {r}");
        }
    }
    DiffReport {
        summary,
        regressions,
        baseline_label: a.label.clone(),
        candidate_label: b.label.clone(),
        counters: counter_rows,
        ratios: ratio_rows,
        drift_events: (da, db),
    }
}

/// Renders one `{"cmd": "metrics"}` snapshot as the `axnn obs top`
/// dashboard text.
///
/// # Errors
///
/// Returns a message when the snapshot is not a well-formed metrics
/// document.
pub fn render_top(snapshot: &str) -> Result<String, String> {
    use crate::obs::json::JsonValue;
    let doc =
        JsonValue::parse(snapshot.as_bytes()).map_err(|e| format!("malformed snapshot: {e}"))?;
    if doc.get("status").and_then(JsonValue::as_str) != Some("metrics") {
        return Err("not a metrics snapshot".to_string());
    }
    let u64_of = |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
    let f64_of = |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "axnn serve — live metrics (schema v{})",
        u64_of(&doc, "schema_version")
    );
    let _ = writeln!(
        out,
        "uptime {:.1} s | replicas {} | generation {} | draining {} | recording {}",
        u64_of(&doc, "uptime_ms") as f64 / 1e3,
        u64_of(&doc, "replicas"),
        u64_of(&doc, "generation"),
        doc.get("draining")
            .and_then(JsonValue::as_bool)
            .unwrap_or(false),
        if doc.get("enabled").and_then(JsonValue::as_bool) == Some(false) {
            "off"
        } else {
            "on"
        },
    );
    let window = doc.get("window").ok_or("snapshot has no window section")?;
    let _ = writeln!(
        out,
        "\nwindow (last {:.1} s)   rps {:.1} | rejected/s {:.1}",
        f64_of(window, "covered_ms") / 1e3,
        f64_of(window, "rps"),
        f64_of(window, "reject_rps"),
    );
    for key in [
        "decode_us",
        "preprocess_us",
        "queue_wait_us",
        "compute_us",
        "batch_size",
    ] {
        if let Some(h) = window.get(key) {
            let _ = writeln!(
                out,
                "  {key:<14} p50 {:>10.1}  p99 {:>10.1}  mean {:>10.1}  (n {})",
                f64_of(h, "p50"),
                f64_of(h, "p99"),
                f64_of(h, "mean"),
                u64_of(h, "count"),
            );
        }
    }
    if let Some(per) = window.get("per_replica").and_then(JsonValue::as_array) {
        let _ = writeln!(out, "\nreplica   batches   pc_hits  pc_misses   hit%");
        for r in per {
            let _ = writeln!(
                out,
                "{:>7} {:>9} {:>9} {:>10} {:>6.1}",
                u64_of(r, "replica"),
                u64_of(r, "batches"),
                u64_of(r, "plan_cache_hits"),
                u64_of(r, "plan_cache_misses"),
                f64_of(r, "plan_cache_hit_ratio") * 100.0,
            );
        }
    }
    if let Some(totals) = doc.get("totals") {
        let _ = writeln!(
            out,
            "\ntotals: ok {} | rejected {} | batches {} | last trace id {}",
            u64_of(totals, "ok"),
            u64_of(totals, "rejected"),
            u64_of(totals, "batches"),
            u64_of(totals, "last_trace_id"),
        );
    }
    Ok(out)
}

/// Formats the records of one `{"cmd": "trace"}` response whose trace id
/// exceeds `after`, oldest first — the incremental step of `axnn obs
/// tail`. Returns the lines plus the highest trace id seen (pass it back
/// as the next `after`).
///
/// # Errors
///
/// Returns a message when the document is not a well-formed trace
/// response.
pub fn trace_lines(trace_json: &str, after: u64) -> Result<(Vec<String>, u64), String> {
    use crate::obs::json::JsonValue;
    let doc =
        JsonValue::parse(trace_json.as_bytes()).map_err(|e| format!("malformed trace: {e}"))?;
    if doc.get("status").and_then(JsonValue::as_str) != Some("trace") {
        return Err("not a trace response".to_string());
    }
    let records = doc
        .get("traces")
        .and_then(JsonValue::as_array)
        .ok_or("trace response has no 'traces' array")?;
    let mut lines = Vec::new();
    let mut last = after;
    for r in records {
        let id = r.get("trace_id").and_then(JsonValue::as_u64).unwrap_or(0);
        if id <= after {
            continue;
        }
        last = last.max(id);
        let f = |key: &str| r.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
        let u = |key: &str| r.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        lines.push(format!(
            "#{id} req={} t=+{:.1}ms queue={:.0}us compute={:.0}us \
             batch={}(n={}) replica={} plan_cache={}",
            u("request_id"),
            f("admitted_ms"),
            f("queue_us"),
            f("compute_us"),
            u("batch_id"),
            u("batch_size"),
            u("replica"),
            if r.get("plan_cache_hit").and_then(JsonValue::as_bool) == Some(true) {
                "hit"
            } else {
                "miss"
            },
        ));
    }
    Ok((lines, last))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{CounterTotals, EventRecord, SpanRecord};

    fn profile(label: &str) -> RunProfile {
        RunProfile {
            schema_version: 2,
            label: label.to_string(),
            counters: CounterTotals {
                approx_muls: 1000,
                lut_bytes: 4000,
                gemm_macs: 500,
                im2col_bytes: 64,
                plan_cache_hits: 0,
                plan_cache_misses: 0,
                search_evals: 0,
                search_cache_hits: 0,
                search_cache_misses: 0,
            },
            spans: vec![SpanRecord {
                name: "fwd:conv3x3(8->8)/s1".to_string(),
                count: 4,
                total_ms: 1.25,
            }],
            hists: vec![
                HistRecord {
                    name: "eps:conv3x3(8->8)/s1".to_string(),
                    lo: -1024.0,
                    hi: 1024.0,
                    counts: vec![2, 2],
                    underflow: 0,
                    overflow: 0,
                    count: 4,
                    mean: -3.0,
                    std: 4.0,
                    min: -9.0,
                    max: 2.0,
                },
                HistRecord {
                    name: "grad_norm:conv3x3(8->8)/s1".to_string(),
                    lo: 0.0,
                    hi: 16.0,
                    counts: vec![1],
                    underflow: 0,
                    overflow: 0,
                    count: 1,
                    mean: 0.5,
                    std: 0.0,
                    min: 0.5,
                    max: 0.5,
                },
            ],
            health: vec![
                RatioRecord {
                    name: "ge_lin:conv3x3(8->8)/s1".to_string(),
                    hits: 90,
                    total: 100,
                },
                RatioRecord {
                    name: "sat_x:conv3x3(8->8)/s1".to_string(),
                    hits: 1,
                    total: 100,
                },
            ],
            events: vec![],
        }
    }

    #[test]
    fn parse_jsonl_round_trips_emitter_output() {
        let p = profile("run");
        let text = format!("{}\n\n{}\n", p.to_json(), p.to_json());
        let parsed = parse_jsonl(&text).expect("parses");
        assert_eq!(parsed.len(), 2, "blank lines are skipped");
        assert_eq!(parsed[0], p);
    }

    #[test]
    fn parse_jsonl_accepts_v1_lines() {
        let line = r#"{"label": "old", "counters": {"approx_muls": 1, "lut_bytes": 4, "gemm_macs": 2, "im2col_bytes": 0}, "spans": []}"#;
        let parsed = parse_jsonl(line).expect("v1 parses");
        assert_eq!(parsed[0].schema_version, 1);
        assert!(parsed[0].hists.is_empty());
    }

    #[test]
    fn parse_jsonl_names_the_bad_line() {
        let err = parse_jsonl("\n{not json}").expect_err("must fail");
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn report_groups_health_by_layer() {
        let r = render_report(&profile("run"));
        assert!(r.contains("# Run profile: run"));
        assert!(r.contains("| approx_muls | 1000 |"));
        // One health row holding ε, K-mask, saturation and grad-norm.
        let row = r
            .lines()
            .find(|l| l.starts_with("| conv3x3(8->8)/s1 |"))
            .expect("layer row");
        assert!(row.contains("-3.000"), "eps mean: {row}");
        assert!(row.contains("5.000"), "eps rms: {row}");
        assert!(row.contains("90.00 %"), "K-mask: {row}");
        assert!(row.contains("1.00 %"), "sat(x): {row}");
        assert!(row.contains("0.500"), "grad norm: {row}");
        assert!(r.contains("none"), "no events");
    }

    #[test]
    fn identical_profiles_do_not_regress() {
        let d = diff_profiles(&profile("a"), &profile("b"), &DiffThresholds::default());
        assert!(!d.is_regression(), "{:?}", d.regressions);
        assert!(d.summary.contains("no regressions"));
    }

    #[test]
    fn counter_growth_beyond_tolerance_regresses() {
        let a = profile("a");
        let mut b = profile("b");
        b.counters.approx_muls = 1011; // +1.1 % > the 1 % default
        let d = diff_profiles(&a, &b, &DiffThresholds::default());
        assert!(d.is_regression());
        assert!(
            d.regressions[0].contains("approx_muls"),
            "{:?}",
            d.regressions
        );
        // Shrinkage is fine.
        b.counters.approx_muls = 500;
        assert!(!diff_profiles(&a, &b, &DiffThresholds::default()).is_regression());
    }

    #[test]
    fn plan_cache_counters_are_shown_but_never_gated() {
        let a = profile("a");
        let mut b = profile("b");
        b.counters.plan_cache_hits = 100;
        b.counters.plan_cache_misses = 7;
        b.counters.search_evals = 12;
        b.counters.search_cache_hits = 6;
        b.counters.search_cache_misses = 12;
        let d = diff_profiles(&a, &b, &DiffThresholds::default());
        assert!(!d.is_regression(), "{:?}", d.regressions);
        assert!(d.summary.contains("| plan_cache_hits | 0 | 100 |"));
        assert!(d.summary.contains("| search_evals | 0 | 12 |"));
        let r = render_report(&b);
        assert!(r.contains("| plan_cache_misses | 7 |"));
        assert!(r.contains("plan-cache hit ratio: 93.46 %"));
        assert!(r.contains("| search_cache_hits | 6 |"));
        assert!(r.contains("search-cache hit ratio: 33.33 %"));
    }

    #[test]
    fn ratio_directions_are_family_aware() {
        let a = profile("a");
        // Saturation up by 10 points: bad.
        let mut b = profile("b");
        b.health[1].hits = 11;
        assert!(diff_profiles(&a, &b, &DiffThresholds::default()).is_regression());
        // K-mask coverage up by 9 points: good.
        let mut b = profile("b");
        b.health[0].hits = 99;
        assert!(!diff_profiles(&a, &b, &DiffThresholds::default()).is_regression());
        // K-mask coverage down by 10 points: bad.
        let mut b = profile("b");
        b.health[0].hits = 80;
        assert!(diff_profiles(&a, &b, &DiffThresholds::default()).is_regression());
    }

    #[test]
    fn diff_json_is_machine_readable_with_stable_keys() {
        use crate::obs::json::JsonValue;
        let a = profile("a");
        let mut b = profile("b");
        b.counters.approx_muls = 1011; // regresses past the 1 % default
        b.health[1].hits = 20; // sat_x up 19 points: regresses
        let d = diff_profiles(&a, &b, &DiffThresholds::default());
        assert!(d.is_regression());
        let json = d.to_json();
        let doc = JsonValue::parse(json.as_bytes()).expect("diff json parses");
        assert_eq!(doc.get("baseline").unwrap().as_str(), Some("a"));
        assert_eq!(doc.get("regression").unwrap().as_bool(), Some(true));
        let counters = doc.get("counters").unwrap().as_array().unwrap();
        assert_eq!(
            counters[0].get("name").unwrap().as_str(),
            Some("approx_muls")
        );
        assert_eq!(counters[0].get("regressed").unwrap().as_bool(), Some(true));
        assert_eq!(counters[0].get("candidate").unwrap().as_u64(), Some(1011));
        // Ungated counters are marked as such.
        let pc = counters
            .iter()
            .find(|c| c.get("name").unwrap().as_str() == Some("plan_cache_hits"))
            .unwrap();
        assert_eq!(pc.get("gated").unwrap().as_bool(), Some(false));
        // Ratios are sorted by name: ge_lin before sat_x.
        let ratios = doc.get("ratios").unwrap().as_array().unwrap();
        assert!(ratios[0]
            .get("name")
            .unwrap()
            .as_str()
            .unwrap()
            .starts_with("ge_lin:"));
        let sat = &ratios[1];
        assert_eq!(sat.get("regressed").unwrap().as_bool(), Some(true));
        assert!(doc.get("regressions").unwrap().as_array().unwrap().len() >= 2);
        // Key order is stable across renderings (CI can diff raw strings).
        assert_eq!(json, d.to_json());

        // A clean diff reports regression: false with an empty list.
        let clean = diff_profiles(&a, &profile("c"), &DiffThresholds::default());
        let doc = JsonValue::parse(clean.to_json().as_bytes()).unwrap();
        assert_eq!(doc.get("regression").unwrap().as_bool(), Some(false));
        assert!(doc
            .get("regressions")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn top_renders_a_metrics_snapshot() {
        let snap = r#"{"status": "metrics", "schema_version": 3, "uptime_ms": 2500,
            "enabled": true, "replicas": 2, "generation": 1, "draining": false,
            "totals": {"ok": 64, "rejected": 3, "batches": 20, "last_trace_id": 67},
            "window": {"covered_ms": 2500, "ok": 64, "rejected": 3, "rps": 25.6,
                "reject_rps": 1.2,
                "queue_wait_us": {"count": 64, "mean": 800.0, "p50": 750.0, "p99": 1900.0, "min": 10.0, "max": 2000.0},
                "compute_us": {"count": 20, "mean": 5000.0, "p50": 4800.0, "p99": 9000.0, "min": 100.0, "max": 9500.0},
                "decode_us": {"count": 70, "mean": 95.5, "p50": 90.0, "p99": 180.0, "min": 8.0, "max": 210.0},
                "batch_size": {"count": 20, "mean": 3.2, "p50": 3.0, "p99": 4.0, "min": 1.0, "max": 4.0},
                "per_replica": [{"replica": 0, "batches": 12, "plan_cache_hits": 11,
                    "plan_cache_misses": 1, "plan_cache_hit_ratio": 0.9166}]},
            "health": []}"#;
        let text = render_top(snap).expect("renders");
        assert!(text.contains("rps 25.6"), "{text}");
        assert!(text.contains("replicas 2"), "{text}");
        assert!(text.contains("queue_wait_us"), "{text}");
        assert!(
            text.contains("decode_us      p50       90.0  p99      180.0"),
            "{text}"
        );
        assert!(text.contains("ok 64 | rejected 3"), "{text}");
        assert!(render_top("{\"status\": \"pong\"}").is_err());
    }

    #[test]
    fn trace_lines_are_incremental() {
        let t = r#"{"status": "trace", "count": 3, "capacity": 512, "last_trace_id": 9,
            "traces": [
              {"trace_id": 7, "request_id": 1, "admitted_ms": 10.0, "queue_us": 100.0,
               "compute_us": 900.0, "batch_id": 4, "batch_size": 2, "replica": 0, "plan_cache_hit": true},
              {"trace_id": 8, "request_id": 2, "admitted_ms": 11.0, "queue_us": 120.0,
               "compute_us": 900.0, "batch_id": 4, "batch_size": 2, "replica": 0, "plan_cache_hit": true},
              {"trace_id": 9, "request_id": 3, "admitted_ms": 15.0, "queue_us": 90.0,
               "compute_us": 450.0, "batch_id": 5, "batch_size": 1, "replica": 1, "plan_cache_hit": false}
            ]}"#;
        let (lines, last) = trace_lines(t, 0).expect("parses");
        assert_eq!(lines.len(), 3);
        assert_eq!(last, 9);
        assert!(lines[0].starts_with("#7 req=1 "), "{}", lines[0]);
        assert!(
            lines[2].contains("replica=1 plan_cache=miss"),
            "{}",
            lines[2]
        );
        // Already-seen ids are filtered: only the new record prints.
        let (lines, last) = trace_lines(t, 8).expect("parses");
        assert_eq!(lines.len(), 1);
        assert_eq!(last, 9);
        // Nothing new keeps the cursor.
        let (lines, last) = trace_lines(t, 9).expect("parses");
        assert!(lines.is_empty());
        assert_eq!(last, 9);
        assert!(trace_lines("{\"status\": \"metrics\"}", 0).is_err());
    }

    #[test]
    fn new_drift_events_regress() {
        let a = profile("a");
        let mut b = profile("b");
        b.events.push(EventRecord {
            seq: 0,
            kind: "eps_drift".to_string(),
            label: "trunc5".to_string(),
            value: 3.0,
            detail: "stale".to_string(),
        });
        let d = diff_profiles(&a, &b, &DiffThresholds::default());
        assert!(d.is_regression());
        assert!(d.regressions[0].contains("eps_drift"));
    }
}
