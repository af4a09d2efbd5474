//! The live metrics plane: per-request trace records in a bounded ring
//! buffer plus sliding-window aggregates, served by `{"cmd": "metrics"}`
//! and `{"cmd": "trace", "n": K}` while the server is running — the
//! streaming counterpart of the end-of-run `RunProfile`.
//!
//! ## Cost model
//!
//! The plane is touched **once per micro-batch**, on the worker thread,
//! *outside* the forward-pass span: one atomic batch-id bump, a handful of
//! relaxed counter adds, and two short mutex sections (the sliding windows
//! and the trace ring). Nothing here runs inside an `axnn-par` region and
//! nothing feeds back into the numerics, so the profiling-never-touches-
//! numerics guarantee extends to the metrics plane (asserted by
//! `tests/serve_invariance.rs`). When disabled the per-batch cost is one
//! relaxed load, mirroring the `axnn_obs::enabled()` discipline — that
//! off/on delta is what the `metrics_overhead_pct` bench phase measures.
//!
//! ## Time
//!
//! All window timestamps are milliseconds since the plane was constructed
//! (`Instant`-based, monotonic); trace records carry the same offset so a
//! tail reader can order records across replicas without trusting the wall
//! clock.

use axnn_obs::json::{join, num, string};
use axnn_obs::{CounterWindow, Hist, HistWindow, WindowSpec};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Version of the `{"cmd": "metrics"}` snapshot schema (bumped on any
/// key-set change, like the RunProfile's `schema_version`).
pub const METRICS_SCHEMA_VERSION: u64 = 3;

/// Capacity of the per-server trace ring: old records are evicted in FIFO
/// order once this many are held.
pub const TRACE_RING_CAPACITY: usize = 512;

/// How many trace records `{"cmd": "trace"}` returns when `n` is absent.
pub const TRACE_DEFAULT_N: usize = 32;

/// One served request's compact trace: where it waited, which batch and
/// replica carried it, and how the compute span broke down.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Server-assigned trace id, drawn under the queue mutex at admission
    /// (monotonic in admission order across the whole server; rejected
    /// requests never consume one, so the id space is dense).
    pub trace_id: u64,
    /// Client-chosen request id (the protocol `id` field).
    pub request_id: u64,
    /// Admission timestamp, milliseconds since server start.
    pub admitted_ms: f64,
    /// Time spent queued before its batch was cut, microseconds.
    pub queue_us: f64,
    /// Wall-clock of the batch forward pass it rode in, microseconds.
    pub compute_us: f64,
    /// Server-wide micro-batch sequence number.
    pub batch_id: u64,
    /// Size of that micro-batch.
    pub batch_size: usize,
    /// Replica worker that cut the batch.
    pub replica: usize,
    /// True when the batch ran entirely on cached execution plans (no
    /// plan miss); false on a miss.
    pub plan_cache_hit: bool,
}

impl TraceRecord {
    /// One-line JSON object (hand-written emitter, fixed key order).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"trace_id\": {}, \"request_id\": {}, \"admitted_ms\": {}, \
             \"queue_us\": {}, \"compute_us\": {}, \"batch_id\": {}, \
             \"batch_size\": {}, \"replica\": {}, \"plan_cache_hit\": {}}}",
            self.trace_id,
            self.request_id,
            num(self.admitted_ms),
            num(self.queue_us),
            num(self.compute_us),
            self.batch_id,
            self.batch_size,
            self.replica,
            self.plan_cache_hit,
        )
    }
}

/// What a worker reports for one completed micro-batch; `jobs` holds the
/// per-request slice in batch order.
pub struct BatchObservation<'a> {
    /// Replica worker that cut the batch.
    pub replica: usize,
    /// Wall-clock of the forward pass, microseconds.
    pub compute_us: f64,
    /// Plan-cache hits this batch contributed (delta, not total).
    pub plan_cache_hits: u64,
    /// Plan-cache misses this batch contributed (delta, not total).
    pub plan_cache_misses: u64,
    /// Per-request admission data, in batch order.
    pub jobs: &'a [JobObservation],
}

/// Per-request slice of a [`BatchObservation`].
pub struct JobObservation {
    /// Trace id assigned at admission.
    pub trace_id: u64,
    /// Client request id.
    pub request_id: u64,
    /// Admission timestamp, milliseconds since server start.
    pub admitted_ms: f64,
    /// Queue wait, microseconds.
    pub queue_us: f64,
}

/// Sliding-window state guarded by one mutex (locked once per batch).
struct WindowsInner {
    queue_wait_us: HistWindow,
    compute_us: HistWindow,
    /// Server-side wire decode time; recorded per request on the
    /// connection thread, before micro-batching.
    decode_us: HistWindow,
    /// Server-side raw-frame preprocessing time; recorded per `raw_frame`
    /// request on the connection thread, before micro-batching.
    preprocess_us: HistWindow,
    batch_size: HistWindow,
    ok: CounterWindow,
    rejected: CounterWindow,
    /// Per replica: batches cut, plan-cache hits, plan-cache misses.
    per_replica: Vec<(CounterWindow, CounterWindow, CounterWindow)>,
}

/// Cumulative totals + sliding windows + the trace ring. One per server.
pub struct MetricsPlane {
    start: Instant,
    enabled: AtomicBool,
    /// Next trace id minus one (ids start at 1; 0 means "never assigned").
    trace_seq: AtomicU64,
    /// Next batch id minus one.
    batch_seq: AtomicU64,
    ok_total: AtomicU64,
    rejected_total: AtomicU64,
    batches_total: Vec<AtomicU64>,
    pc_hits_total: Vec<AtomicU64>,
    pc_misses_total: Vec<AtomicU64>,
    windows: Mutex<WindowsInner>,
    traces: Mutex<VecDeque<TraceRecord>>,
}

/// Poison-tolerant lock (the `axnn_obs` registry discipline): a panicking
/// reader must not take the metrics plane down with it.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl MetricsPlane {
    /// A fresh plane for `replicas` workers, windowed by `window` (the
    /// server uses [`WindowSpec::serve`]: last 10 s at 1 s slots). Enabled
    /// by default.
    pub fn new(replicas: usize, window: WindowSpec) -> Self {
        let hist = |spec| HistWindow::new(window, spec);
        MetricsPlane {
            start: Instant::now(),
            enabled: AtomicBool::new(true),
            trace_seq: AtomicU64::new(0),
            batch_seq: AtomicU64::new(0),
            ok_total: AtomicU64::new(0),
            rejected_total: AtomicU64::new(0),
            batches_total: (0..replicas).map(|_| AtomicU64::new(0)).collect(),
            pc_hits_total: (0..replicas).map(|_| AtomicU64::new(0)).collect(),
            pc_misses_total: (0..replicas).map(|_| AtomicU64::new(0)).collect(),
            windows: Mutex::new(WindowsInner {
                queue_wait_us: hist(crate::server::queue_wait_spec()),
                compute_us: hist(crate::server::compute_spec()),
                decode_us: hist(crate::server::decode_time_spec()),
                preprocess_us: hist(crate::server::preprocess_time_spec()),
                batch_size: hist(crate::server::batch_size_spec()),
                ok: CounterWindow::new(window),
                rejected: CounterWindow::new(window),
                per_replica: (0..replicas)
                    .map(|_| {
                        (
                            CounterWindow::new(window),
                            CounterWindow::new(window),
                            CounterWindow::new(window),
                        )
                    })
                    .collect(),
            }),
            traces: Mutex::new(VecDeque::with_capacity(TRACE_RING_CAPACITY)),
        }
    }

    /// Whether recording is on (one relaxed load — the disabled-path cost).
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off. Snapshot commands keep answering either
    /// way; only the per-batch recording stops.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Milliseconds since the plane was constructed.
    pub fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Millisecond offset of `t` relative to server start (0 when `t`
    /// precedes it, which cannot happen for admission timestamps).
    pub fn offset_ms(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.start).as_secs_f64() * 1e3
    }

    /// The server-wide trace-id sequence. Ids are drawn from it inside
    /// [`crate::queue::BatchQueue::push`] while the queue mutex is held,
    /// so they are monotonic in admission order; the sequence advances
    /// even when recording is off, keeping ids monotonic across toggles.
    pub fn trace_seq(&self) -> &AtomicU64 {
        &self.trace_seq
    }

    /// Records one admission-control rejection.
    pub fn note_rejected(&self) {
        if !self.enabled() {
            return;
        }
        self.rejected_total.fetch_add(1, Ordering::Relaxed);
        lock(&self.windows).rejected.add(self.now_ms(), 1);
    }

    /// Records one server-side wire decode duration. Runs on the
    /// connection thread, one short lock per request.
    pub fn note_decode(&self, us: f64) {
        if !self.enabled() {
            return;
        }
        lock(&self.windows).decode_us.record(self.now_ms(), us);
    }

    /// Records one server-side raw-frame preprocessing duration. Runs on
    /// the connection thread (one short lock per raw-frame request); the
    /// batching path never calls it, so tensor requests stay lock-free
    /// here.
    pub fn note_preprocess(&self, us: f64) {
        if !self.enabled() {
            return;
        }
        lock(&self.windows).preprocess_us.record(self.now_ms(), us);
    }

    /// Records one completed micro-batch and returns its batch id. The
    /// batch id is assigned even when recording is off (it sequences
    /// hot-swap and trace reasoning), but windows, totals and the trace
    /// ring are only touched when enabled.
    pub fn note_batch(&self, obs: &BatchObservation<'_>) -> u64 {
        let batch_id = self.batch_seq.fetch_add(1, Ordering::Relaxed) + 1;
        if !self.enabled() {
            return batch_id;
        }
        let now = self.now_ms();
        let size = obs.jobs.len();
        self.ok_total.fetch_add(size as u64, Ordering::Relaxed);
        if let Some(b) = self.batches_total.get(obs.replica) {
            b.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(h) = self.pc_hits_total.get(obs.replica) {
            h.fetch_add(obs.plan_cache_hits, Ordering::Relaxed);
        }
        if let Some(m) = self.pc_misses_total.get(obs.replica) {
            m.fetch_add(obs.plan_cache_misses, Ordering::Relaxed);
        }
        {
            let mut w = lock(&self.windows);
            for job in obs.jobs {
                w.queue_wait_us.record(now, job.queue_us);
            }
            w.compute_us.record(now, obs.compute_us);
            w.batch_size.record(now, size as f64);
            w.ok.add(now, size as u64);
            if let Some((batches, hits, misses)) = w.per_replica.get_mut(obs.replica) {
                batches.add(now, 1);
                hits.add(now, obs.plan_cache_hits);
                misses.add(now, obs.plan_cache_misses);
            }
        }
        let hit = obs.plan_cache_misses == 0 && obs.plan_cache_hits > 0;
        let mut ring = lock(&self.traces);
        for job in obs.jobs {
            if ring.len() == TRACE_RING_CAPACITY {
                ring.pop_front();
            }
            ring.push_back(TraceRecord {
                trace_id: job.trace_id,
                request_id: job.request_id,
                admitted_ms: job.admitted_ms,
                queue_us: job.queue_us,
                compute_us: obs.compute_us,
                batch_id,
                batch_size: size,
                replica: obs.replica,
                plan_cache_hit: hit,
            });
        }
        batch_id
    }

    /// The last `n` trace records, oldest first. The ring is ordered by
    /// batch *completion*: with several replicas, a later-admitted batch
    /// can finish (and be recorded) first, so trace ids are only strictly
    /// increasing within one batch's contiguous run of records, not
    /// globally.
    pub fn last_traces(&self, n: usize) -> Vec<TraceRecord> {
        let ring = lock(&self.traces);
        let skip = ring.len().saturating_sub(n);
        ring.iter().skip(skip).cloned().collect()
    }

    /// The `{"cmd": "trace"}` response body: the last `n` records oldest
    /// first, plus the ring's bounds so readers can size their own tails.
    pub fn trace_json(&self, n: usize) -> String {
        let records = self.last_traces(n);
        format!(
            "{{\"status\": \"trace\", \"count\": {}, \"capacity\": {TRACE_RING_CAPACITY}, \
             \"last_trace_id\": {}, \"traces\": [{}]}}",
            records.len(),
            self.trace_seq.load(Ordering::Relaxed),
            join(records.iter().map(TraceRecord::to_json), ", "),
        )
    }

    /// The `{"cmd": "metrics"}` JSON snapshot: schema-versioned, fixed key
    /// order, cumulative totals plus the sliding-window view plus the
    /// cumulative `axnn-obs` health hists.
    pub fn snapshot_json(&self, ctx: &SnapshotContext) -> String {
        let now = self.now_ms();
        let uptime = now.max(1);
        // One lock, merged copies out, lock released before formatting.
        let (queue_wait, compute, decode, preprocess, batch_size, ok_w, rej_w, per_replica) = {
            let w = lock(&self.windows);
            let covered = w.ok.window().covered_millis(uptime);
            let per: Vec<(u64, u64, u64)> = w
                .per_replica
                .iter()
                .map(|(b, h, m)| (b.total(now), h.total(now), m.total(now)))
                .collect();
            (
                w.queue_wait_us.merged(now),
                w.compute_us.merged(now),
                w.decode_us.merged(now),
                w.preprocess_us.merged(now),
                w.batch_size.merged(now),
                (w.ok.total(now), covered),
                w.rejected.total(now),
                per,
            )
        };
        let (ok_in_window, covered_ms) = ok_w;
        let rps = ok_in_window as f64 * 1e3 / covered_ms as f64;
        let reject_rps = rej_w as f64 * 1e3 / covered_ms as f64;
        let per_replica = join(
            per_replica
                .iter()
                .enumerate()
                .map(|(i, (batches, hits, misses))| {
                    let ratio = if hits + misses > 0 {
                        *hits as f64 / (hits + misses) as f64
                    } else {
                        0.0
                    };
                    format!(
                        "{{\"replica\": {i}, \"batches\": {batches}, \"plan_cache_hits\": {hits}, \
                     \"plan_cache_misses\": {misses}, \"plan_cache_hit_ratio\": {}}}",
                        num(ratio),
                    )
                }),
            ", ",
        );
        let totals_per_replica = join(
            (0..self.batches_total.len()).map(|i| {
                format!(
                    "{{\"replica\": {i}, \"batches\": {}, \"plan_cache_hits\": {}, \
                     \"plan_cache_misses\": {}}}",
                    self.batches_total[i].load(Ordering::Relaxed),
                    self.pc_hits_total[i].load(Ordering::Relaxed),
                    self.pc_misses_total[i].load(Ordering::Relaxed),
                )
            }),
            ", ",
        );
        // Numeric-health hists are cumulative (the proxsim executors record
        // them process-globally); the sliding windows cover the serving-path
        // quantities the plane itself observes.
        let health = join(
            axnn_obs::hists_with_prefix("").iter().map(|(name, h)| {
                format!(
                    "{{\"name\": {}, {}",
                    string(name),
                    &hist_summary_json(h)[1..]
                )
            }),
            ", ",
        );
        format!(
            "{{\"status\": \"metrics\", \"schema_version\": {METRICS_SCHEMA_VERSION}, \
             \"uptime_ms\": {now}, \"enabled\": {}, \"replicas\": {}, \
             \"generation\": {}, \"draining\": {}, \"totals\": {{\"ok\": {}, \
             \"rejected\": {}, \"batches\": {}, \"last_trace_id\": {}}}, \
             \"window\": {{\"covered_ms\": {covered_ms}, \"ok\": {ok_in_window}, \
             \"rejected\": {rej_w}, \"rps\": {}, \"reject_rps\": {}, \
             \"queue_wait_us\": {}, \"compute_us\": {}, \"decode_us\": {}, \
             \"preprocess_us\": {}, \
             \"batch_size\": {}, \"per_replica\": [{per_replica}]}}, \
             \"totals_per_replica\": [{totals_per_replica}], \"health\": [{health}]}}",
            self.enabled(),
            ctx.replicas,
            ctx.generation,
            ctx.draining,
            self.ok_total.load(Ordering::Relaxed),
            self.rejected_total.load(Ordering::Relaxed),
            self.batch_seq.load(Ordering::Relaxed),
            self.trace_seq.load(Ordering::Relaxed),
            num(rps),
            num(reject_rps),
            hist_summary_json(&queue_wait),
            hist_summary_json(&compute),
            hist_summary_json(&decode),
            hist_summary_json(&preprocess),
            hist_summary_json(&batch_size),
        )
    }
}

/// Server-level facts the snapshot reports but the plane does not own.
pub struct SnapshotContext {
    /// Replica worker count.
    pub replicas: usize,
    /// Completed hot-swap count.
    pub generation: u64,
    /// True once a graceful drain has begun.
    pub draining: bool,
}

/// Summary object for one merged window hist: count, mean, p50/p99, min,
/// max (fixed key order).
fn hist_summary_json(h: &Hist) -> String {
    format!(
        "{{\"count\": {}, \"mean\": {}, \"p50\": {}, \"p99\": {}, \"min\": {}, \"max\": {}}}",
        h.count(),
        num(h.mean()),
        num(h.quantile(0.5)),
        num(h.quantile(0.99)),
        num(h.min()),
        num(h.max()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use axnn_obs::json::JsonValue;

    fn obs(trace_base: u64, replica: usize, n: usize) -> (Vec<JobObservation>, u64) {
        let jobs: Vec<JobObservation> = (0..n)
            .map(|i| JobObservation {
                trace_id: trace_base + i as u64,
                request_id: 100 + i as u64,
                admitted_ms: 1.0 + i as f64,
                queue_us: 50.0 * (i as f64 + 1.0),
            })
            .collect();
        (jobs, replica as u64)
    }

    #[test]
    fn trace_ring_is_bounded_and_ordered() {
        let plane = MetricsPlane::new(1, WindowSpec::new(4, 250));
        let mut next = 1u64;
        for _ in 0..(TRACE_RING_CAPACITY / 4 + 10) {
            let (jobs, _) = obs(next, 0, 4);
            next += 4;
            plane.note_batch(&BatchObservation {
                replica: 0,
                compute_us: 900.0,
                plan_cache_hits: 1,
                plan_cache_misses: 0,
                jobs: &jobs,
            });
        }
        let all = plane.last_traces(usize::MAX);
        assert_eq!(all.len(), TRACE_RING_CAPACITY);
        for pair in all.windows(2) {
            assert!(pair[0].trace_id < pair[1].trace_id, "ring stays ordered");
        }
        // The tail really is the tail.
        let tail = plane.last_traces(3);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[2].trace_id, next - 1);
        assert!(tail.iter().all(|r| r.plan_cache_hit));
    }

    #[test]
    fn disabled_plane_still_sequences_but_records_nothing() {
        let plane = MetricsPlane::new(1, WindowSpec::serve());
        plane.set_enabled(false);
        let (jobs, _) = obs(1, 0, 2);
        let id1 = plane.note_batch(&BatchObservation {
            replica: 0,
            compute_us: 10.0,
            plan_cache_hits: 0,
            plan_cache_misses: 1,
            jobs: &jobs,
        });
        plane.note_rejected();
        let id2 = plane.note_batch(&BatchObservation {
            replica: 0,
            compute_us: 10.0,
            plan_cache_hits: 0,
            plan_cache_misses: 0,
            jobs: &jobs,
        });
        assert_eq!((id1, id2), (1, 2), "batch ids keep sequencing");
        assert!(plane.last_traces(10).is_empty());
        let ctx = SnapshotContext {
            replicas: 1,
            generation: 0,
            draining: false,
        };
        let doc = JsonValue::parse(plane.snapshot_json(&ctx).as_bytes()).unwrap();
        let totals = doc.get("totals").unwrap();
        assert_eq!(totals.get("ok").unwrap().as_u64(), Some(0));
        assert_eq!(totals.get("rejected").unwrap().as_u64(), Some(0));
        assert_eq!(doc.get("enabled").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn snapshot_json_parses_with_expected_sections() {
        let plane = MetricsPlane::new(2, WindowSpec::serve());
        for replica in 0..2 {
            let (jobs, _) = obs(1 + replica as u64 * 3, replica, 3);
            plane.note_batch(&BatchObservation {
                replica,
                compute_us: 1200.0,
                plan_cache_hits: 1,
                plan_cache_misses: 1,
                jobs: &jobs,
            });
        }
        plane.note_rejected();
        plane.note_preprocess(350.0);
        plane.note_preprocess(650.0);
        plane.note_decode(80.0);
        let ctx = SnapshotContext {
            replicas: 2,
            generation: 3,
            draining: true,
        };
        let doc = JsonValue::parse(plane.snapshot_json(&ctx).as_bytes()).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("metrics"));
        assert_eq!(
            doc.get("schema_version").unwrap().as_u64(),
            Some(METRICS_SCHEMA_VERSION)
        );
        assert_eq!(doc.get("draining").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("generation").unwrap().as_u64(), Some(3));
        let totals = doc.get("totals").unwrap();
        assert_eq!(totals.get("ok").unwrap().as_u64(), Some(6));
        assert_eq!(totals.get("rejected").unwrap().as_u64(), Some(1));
        assert_eq!(totals.get("batches").unwrap().as_u64(), Some(2));
        let window = doc.get("window").unwrap();
        assert!(window.get("rps").unwrap().as_f64().unwrap() > 0.0);
        let per = window.get("per_replica").unwrap().as_array().unwrap();
        assert_eq!(per.len(), 2);
        assert_eq!(per[1].get("batches").unwrap().as_u64(), Some(1));
        assert_eq!(
            per[0].get("plan_cache_hit_ratio").unwrap().as_f64(),
            Some(0.5)
        );
        let qw = window.get("queue_wait_us").unwrap();
        assert_eq!(qw.get("count").unwrap().as_u64(), Some(6));
        assert!(
            qw.get("p99").unwrap().as_f64().unwrap() >= qw.get("p50").unwrap().as_f64().unwrap()
        );
        let pp = window.get("preprocess_us").unwrap();
        assert_eq!(pp.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(pp.get("mean").unwrap().as_f64(), Some(500.0));
        let decode = window.get("decode_us").unwrap();
        assert_eq!(decode.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(decode.get("mean").unwrap().as_f64(), Some(80.0));
        assert!(doc.get("health").unwrap().as_array().is_some());
    }

    /// The schema's key set and order (its values are timings): a change
    /// here needs a `METRICS_SCHEMA_VERSION` bump.
    #[test]
    fn snapshot_keys_are_pinned() {
        fn keys(v: &JsonValue) -> Vec<&str> {
            match v {
                JsonValue::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
                _ => Vec::new(),
            }
        }
        let plane = MetricsPlane::new(1, WindowSpec::serve());
        let ctx = SnapshotContext {
            replicas: 1,
            generation: 0,
            draining: false,
        };
        let doc = JsonValue::parse(plane.snapshot_json(&ctx).as_bytes()).unwrap();
        assert_eq!(METRICS_SCHEMA_VERSION, 3);
        assert_eq!(
            keys(&doc),
            [
                "status",
                "schema_version",
                "uptime_ms",
                "enabled",
                "replicas",
                "generation",
                "draining",
                "totals",
                "window",
                "totals_per_replica",
                "health"
            ]
        );
        let window = doc.get("window").unwrap();
        assert_eq!(
            keys(window),
            [
                "covered_ms",
                "ok",
                "rejected",
                "rps",
                "reject_rps",
                "queue_wait_us",
                "compute_us",
                "decode_us",
                "preprocess_us",
                "batch_size",
                "per_replica"
            ]
        );
        for stage in ["queue_wait_us", "compute_us", "decode_us", "preprocess_us"] {
            assert_eq!(
                keys(window.get(stage).unwrap()),
                ["count", "mean", "p50", "p99", "min", "max"]
            );
        }
    }

    #[test]
    fn trace_json_is_well_formed() {
        let plane = MetricsPlane::new(1, WindowSpec::serve());
        let (jobs, _) = obs(1, 0, 2);
        plane.note_batch(&BatchObservation {
            replica: 0,
            compute_us: 800.0,
            plan_cache_hits: 0,
            plan_cache_misses: 2,
            jobs: &jobs,
        });
        let doc = JsonValue::parse(plane.trace_json(8).as_bytes()).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("trace"));
        assert_eq!(doc.get("count").unwrap().as_u64(), Some(2));
        let traces = doc.get("traces").unwrap().as_array().unwrap();
        assert_eq!(traces.len(), 2);
        let t = &traces[1];
        assert_eq!(t.get("trace_id").unwrap().as_u64(), Some(2));
        assert_eq!(t.get("request_id").unwrap().as_u64(), Some(101));
        assert_eq!(t.get("batch_id").unwrap().as_u64(), Some(1));
        assert_eq!(t.get("batch_size").unwrap().as_u64(), Some(2));
        assert_eq!(t.get("plan_cache_hit").unwrap().as_bool(), Some(false));
        assert_eq!(t.get("compute_us").unwrap().as_f64(), Some(800.0));
    }
}
