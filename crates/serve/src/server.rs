//! The TCP inference server: acceptor, connection threads, and N replica
//! model workers popping one shared batch queue.
//!
//! ## Thread architecture
//!
//! ```text
//! acceptor ──spawns──▶ connection threads ──push──▶ BatchQueue
//!                                             (one per server; bounded
//!                                              admission, server-wide)
//!                                    │                  │ next_batch
//!                                    │        ┌─────────┼─────────┐
//!                                    │        ▼         ▼         ▼
//!                                    │   worker 0   worker 1 … worker N-1
//!                                    │   (own net + plan cache + arena)
//!                                    │        │ BatchReply
//!                                    ◀──mpsc──┘
//! ```
//!
//! No job is bound to a replica when it is admitted: whichever worker is
//! free first pops the next batch, so no worker idles while jobs wait.
//!
//! Every replica worker owns a full [`ServedModel`] built from one shared
//! frozen checkpoint ([`ServeSpec`]); builds are seed-deterministic, so the
//! replicas are bit-identical and a request's logits do not depend on
//! *which* replica serves it — the replica-count analogue of the
//! batch/thread invariance (`tests/serve_invariance.rs`). Parallelism
//! *inside* a forward pass still comes from `axnn-par`; replicas add
//! coarse-grained concurrency across micro-batches on multi-core hosts.
//!
//! Order-sensitive hist recording now happens on N worker threads, so the
//! f64 moments of the serving hists interleave nondeterministically — they
//! always measured wall-clock quantities that vary run to run, so no
//! determinism guarantee is lost. Per-replica telemetry flows into the
//! serve RunProfile: a `serve:replica_batches` histogram of which replica
//! cut each batch, `serve:plan_cache:r<i>` hit ratios, and `serve_swap`
//! events.
//!
//! ## Hot-swap
//!
//! `{"cmd": "reload", "path": ...}` (or [`Server::reload`]) builds a full
//! replica set from the new checkpoint **on the connection thread** — the
//! workers keep serving the old model throughout — then canary-diffs the
//! new model against the live one: both generations run the same
//! deterministic canary input, and the max/mean |Δlogit| are reported in
//! the `reloaded` response (the `axnn obs report` drift-style health
//! headline; non-finite canary logits abort the swap). The staged models
//! are published to per-replica slots and a generation counter is bumped;
//! each worker picks its new model up **between batches**, so in-flight
//! batches finish on the old weights and no connection is ever dropped.
//! Concurrent reloads serialize on the swap lock.
//!
//! ## Shutdown
//!
//! `{"cmd": "shutdown"}` (or [`Server::shutdown`]) flips the queue into
//! draining mode: new work is rejected with `"draining"`, the admitted
//! backlog is batched and served, every worker exits once the queue is
//! empty, and the acceptor is woken by a loop-back connection — aimed at
//! the loopback IP when the server is bound to a wildcard address, where a
//! connect to `0.0.0.0`/`::` itself would fail and leave the acceptor
//! blocked forever. Connection threads are detached; they exit when their
//! peer hangs up.

use crate::metrics::{
    BatchObservation, JobObservation, MetricsPlane, SnapshotContext, TRACE_DEFAULT_N,
};
use crate::model::{ModelOptions, ServeSpec, ServedModel};
use crate::protocol::{read_frame, write_frame, Request, Response};
use crate::queue::{BatchQueue, BatchReply, Job, QueueConfig};
use axnn_data::resize::PreprocessSpec;
use axnn_obs::WindowSpec;
use std::io::{self, BufReader, BufWriter};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// Seed of the deterministic canary input the hot-swap health check runs
/// through the old and new model.
pub const CANARY_SEED: u64 = 0xca7a;

/// Hist geometry for per-request queue wait, microseconds.
pub fn queue_wait_spec() -> axnn_obs::HistSpec {
    axnn_obs::HistSpec::new(0.0, 50_000.0, 64)
}

/// Hist geometry for per-batch compute time, microseconds.
pub fn compute_spec() -> axnn_obs::HistSpec {
    axnn_obs::HistSpec::new(0.0, 200_000.0, 64)
}

/// Hist geometry for per-request wire decode (`Request::parse`) time,
/// microseconds.
pub fn decode_time_spec() -> axnn_obs::HistSpec {
    axnn_obs::HistSpec::new(0.0, 2_000.0, 80)
}

/// Hist geometry for per-request raw-frame preprocessing time,
/// microseconds.
pub fn preprocess_time_spec() -> axnn_obs::HistSpec {
    axnn_obs::HistSpec::new(0.0, 20_000.0, 64)
}

/// Hist geometry for micro-batch sizes.
pub fn batch_size_spec() -> axnn_obs::HistSpec {
    axnn_obs::HistSpec::new(0.0, 64.0, 64)
}

/// Hist geometry for queue depth at batch-cut time.
pub fn queue_depth_spec() -> axnn_obs::HistSpec {
    axnn_obs::HistSpec::new(0.0, 256.0, 64)
}

/// Hist geometry for the replica index that cut each batch — the
/// per-replica batch counters of the serve profile.
pub fn replica_spec() -> axnn_obs::HistSpec {
    axnn_obs::HistSpec::index(16)
}

/// State guarded by the swap lock: the live canary reference and how many
/// reloads have completed.
struct SwapInner {
    /// Live model's logits on the canary input, refreshed on every swap.
    canary: Vec<f32>,
}

struct Shared {
    queue: BatchQueue,
    shutdown: AtomicBool,
    addr: SocketAddr,
    /// Build options the server was started with; reloads reuse them (a
    /// hot-swap replaces weights, never the architecture or executor).
    opts: ModelOptions,
    /// One staged-model slot per replica; a worker takes its slot when it
    /// observes a generation bump between batches.
    slots: Vec<Mutex<Option<ServedModel>>>,
    /// Swap generation; bumped once per completed reload.
    generation: AtomicU64,
    /// Serializes reloads and guards the canary reference.
    swap: Mutex<SwapInner>,
    /// Live connection handlers (join handle + a second stream handle).
    /// `Server::join` waits on these after the workers exit, so a drain can
    /// never outrun an unflushed reply — without the join, the process
    /// could exit while a handler still held a response in its write
    /// buffer, and the client would see an unexplained EOF. The stream
    /// handle lets `join` force-close the read half of idle connections
    /// once the drain is complete (every owed reply is flushed by then),
    /// so a silent client cannot hold the join open forever.
    conns: Mutex<Vec<(JoinHandle<()>, TcpStream)>>,
    /// Live metrics: trace ids + ring, sliding windows, cumulative totals.
    metrics: MetricsPlane,
    /// How `raw_frame` requests are resized/normalized into model inputs.
    /// Resolved once at checkpoint load (replicas share one spec — a
    /// reload cannot change the input shape, so it never changes).
    preprocess: PreprocessSpec,
}

impl Shared {
    /// Server-level facts the metrics snapshot reports.
    fn snapshot_ctx(&self) -> SnapshotContext {
        SnapshotContext {
            replicas: self.slots.len(),
            generation: self.generation.load(Ordering::SeqCst),
            draining: self.shutdown.load(Ordering::SeqCst),
        }
    }

    /// Starts the drain exactly once and wakes the blocked acceptor with a
    /// loop-back connection.
    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            self.queue.start_drain();
            let _ = TcpStream::connect(wake_addr(self.addr));
        }
    }
}

/// Where to connect to wake the acceptor: the bound address, except that a
/// wildcard bind (`0.0.0.0` / `::`) is not connectable — aim at the
/// matching loopback IP with the bound port instead.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        let ip = match addr.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        };
        SocketAddr::new(ip, addr.port())
    } else {
        addr
    }
}

/// A running inference server. Dropping it shuts it down and joins the
/// acceptor and worker threads.
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    input_len: usize,
    classes: usize,
}

impl Server {
    /// Binds `bind_addr` (use port 0 for an ephemeral port) and starts
    /// `replicas` model workers built from `spec` under the given queue
    /// configuration. Model-build failures surface as `io::Error`s.
    pub fn start(
        spec: &ServeSpec,
        bind_addr: &str,
        cfg: QueueConfig,
        replicas: usize,
    ) -> io::Result<Server> {
        if replicas == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "need at least one replica",
            ));
        }
        let mut models = spec.build_replicas(replicas).map_err(io::Error::other)?;
        let canary = models[0].canary_logits(CANARY_SEED);
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        let input_len = models[0].input_len();
        let classes = models[0].classes();
        let shared = Arc::new(Shared {
            queue: BatchQueue::new(cfg),
            shutdown: AtomicBool::new(false),
            addr,
            opts: spec.options().clone(),
            slots: (0..replicas).map(|_| Mutex::new(None)).collect(),
            generation: AtomicU64::new(0),
            swap: Mutex::new(SwapInner { canary }),
            conns: Mutex::new(Vec::new()),
            metrics: MetricsPlane::new(replicas, WindowSpec::serve()),
            preprocess: models[0].preprocess_spec().clone(),
        });

        let mut workers = Vec::with_capacity(replicas);
        for (replica, model) in models.drain(..).enumerate() {
            let shared = Arc::clone(&shared);
            workers.push(
                thread::Builder::new()
                    .name(format!("serve-worker-{replica}"))
                    .spawn(move || worker_loop(model, replica, &shared))?,
            );
        }
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || acceptor_loop(listener, &shared, input_len, classes))?
        };
        Ok(Server {
            shared,
            acceptor: Some(acceptor),
            workers,
            input_len,
            classes,
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Flattened input length one request must carry.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Logits per response.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Number of replica workers.
    pub fn replicas(&self) -> usize {
        self.shared.slots.len()
    }

    /// Completed hot-swap count.
    pub fn generation(&self) -> u64 {
        self.shared.generation.load(Ordering::SeqCst)
    }

    /// The live metrics plane (enable/disable recording, e.g. for the
    /// overhead bench).
    pub fn metrics_plane(&self) -> &MetricsPlane {
        &self.shared.metrics
    }

    /// The `{"cmd": "metrics"}` JSON snapshot, in process.
    pub fn metrics_json(&self) -> String {
        self.shared
            .metrics
            .snapshot_json(&self.shared.snapshot_ctx())
    }

    /// The `{"cmd": "trace"}` response body for the last `n` records, in
    /// process.
    pub fn trace_json(&self, n: usize) -> String {
        self.shared.metrics.trace_json(n)
    }

    /// Hot-swaps the served checkpoint in process (the `{"cmd": "reload"}`
    /// path without the wire). Returns the `reloaded` response or the
    /// rejection that aborted the swap.
    pub fn reload(&self, checkpoint_json: &str) -> Response {
        handle_reload(&self.shared, checkpoint_json, self.input_len, self.classes)
    }

    /// Begins the graceful drain and blocks until the acceptor and workers
    /// have exited. Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        self.shared.begin_shutdown();
        self.join();
    }

    /// Waits for a remotely initiated shutdown (`{"cmd": "shutdown"}`) to
    /// finish draining — the blocking-serve path of `axnn serve`.
    pub fn join(&mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Workers have exited, so every admitted job has sent its reply and
        // `write_frame` flushes per response — any reply a client is owed is
        // either flushed or in a handler's final `write_frame` call. Closing
        // the read half wakes handlers blocked on an idle connection; they
        // finish any in-progress write, observe the EOF, and exit, and only
        // then does `join` return.
        let conns = {
            let mut conns = self.shared.conns.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *conns)
        };
        for (_, stream) in &conns {
            let _ = stream.shutdown(std::net::Shutdown::Read);
        }
        for (handle, _) in conns {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(mut model: ServedModel, replica: usize, shared: &Shared) {
    // Pre-formatted per-replica labels (the obs discipline: no per-record
    // allocation on the hot path).
    let pc_label = format!("serve:plan_cache:r{replica}");
    let swap_label = format!("serve:r{replica}");
    let mut seen_gen = shared.generation.load(Ordering::SeqCst);
    let mut pc_last = model.plan_cache_stats().unwrap_or_default();
    while let Some(batch) = shared.queue.next_batch() {
        // Swap point: between batches, never mid-batch. Taking the slot is
        // cheap (one mutex, usually uncontended); the expensive build
        // already happened on the reload thread.
        let gen = shared.generation.load(Ordering::SeqCst);
        if gen != seen_gen {
            if let Some(fresh) = shared.slots[replica]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
            {
                model = fresh;
                pc_last = model.plan_cache_stats().unwrap_or_default();
                axnn_obs::event("serve_swap", &swap_label, gen as f64, "picked up new model");
            }
            seen_gen = gen;
        }
        let views: Vec<&[f32]> = batch.jobs.iter().map(|j| j.input.as_slice()).collect();
        let started = Instant::now();
        let outputs = {
            let _s = axnn_obs::span("serve:batch");
            model.forward_batch(&views)
        };
        let compute_us = started.elapsed().as_secs_f64() * 1e6;
        let size = batch.jobs.len();
        axnn_obs::record_value("serve:batch_size", batch_size_spec(), size as f64);
        axnn_obs::record_value(
            "serve:queue_depth",
            queue_depth_spec(),
            batch.depth_at_pop as f64,
        );
        axnn_obs::record_value("serve:compute_us", compute_spec(), compute_us);
        axnn_obs::record_value("serve:replica_batches", replica_spec(), replica as f64);
        // Per-replica plan-cache hit ratio, recorded as this batch's delta
        // so the profile's hits/total reflect serving traffic.
        let stats = model.plan_cache_stats().unwrap_or_default();
        let (pc_hits, pc_misses) = (stats.hits - pc_last.hits, stats.misses - pc_last.misses);
        axnn_obs::record_ratio(&pc_label, pc_hits, pc_hits + pc_misses);
        pc_last = stats;
        // One metrics-plane touch per batch: queue waits are measured here
        // (before the replies go out, so a trace never races its own
        // record), and the plane assigns the batch id the traces carry.
        let job_obs: Vec<JobObservation> = batch
            .jobs
            .iter()
            .map(|job| JobObservation {
                trace_id: job.trace,
                request_id: job.id,
                admitted_ms: shared.metrics.offset_ms(job.enqueued),
                queue_us: started.duration_since(job.enqueued).as_secs_f64() * 1e6,
            })
            .collect();
        shared.metrics.note_batch(&BatchObservation {
            replica,
            compute_us,
            plan_cache_hits: pc_hits,
            plan_cache_misses: pc_misses,
            jobs: &job_obs,
        });
        for ((job, logits), obs) in batch.jobs.into_iter().zip(outputs).zip(&job_obs) {
            let queue_us = obs.queue_us;
            axnn_obs::record_value("serve:queue_wait_us", queue_wait_spec(), queue_us);
            axnn_obs::record_ratio("serve:rejected", 0, 1);
            // A send error means the connection died while its job was in
            // flight; the batch result is simply dropped for that peer.
            let _ = job.reply.send(BatchReply {
                id: job.id,
                logits,
                queue_us,
                compute_us,
                batch: size,
            });
        }
    }
}

/// Builds, canary-checks and stages a new model set; called with the raw
/// checkpoint JSON (the wire path reads the file first). Runs entirely off
/// the worker threads — serving continues on the old model throughout.
fn handle_reload(
    shared: &Shared,
    checkpoint_json: &str,
    input_len: usize,
    classes: usize,
) -> Response {
    // One reload at a time; the guard also protects the canary reference.
    let mut swap = shared.swap.lock().unwrap_or_else(|e| e.into_inner());
    let reject = |detail: String| Response::Error { id: 0, detail };
    let spec = match ServeSpec::from_json(checkpoint_json, &shared.opts) {
        Ok(spec) => spec,
        Err(e) => return reject(format!("reload rejected: {e}")),
    };
    let replicas = shared.slots.len();
    let mut models = match spec.build_replicas(replicas) {
        Ok(models) => models,
        Err(e) => return reject(format!("reload rejected: {e}")),
    };
    if models[0].input_len() != input_len || models[0].classes() != classes {
        return reject(format!(
            "reload rejected: shape {}→{} / {}→{} classes changed; start a new server instead",
            input_len,
            models[0].input_len(),
            classes,
            models[0].classes(),
        ));
    }
    // Canary health check: the new model must produce finite logits on the
    // deterministic canary input; the old-vs-new deltas are the swap's
    // health headline (reported, not gated — a retrained checkpoint is
    // *supposed* to differ).
    let fresh = models[0].canary_logits(CANARY_SEED);
    if !fresh.iter().all(|v| v.is_finite()) {
        return reject("reload rejected: canary produced non-finite logits".to_string());
    }
    let (mut max_d, mut sum_d) = (0.0f64, 0.0f64);
    for (a, b) in swap.canary.iter().zip(&fresh) {
        let d = (*a as f64 - *b as f64).abs();
        max_d = max_d.max(d);
        sum_d += d;
    }
    let mean_d = sum_d / fresh.len().max(1) as f64;
    for (slot, model) in shared.slots.iter().zip(models.drain(..)) {
        *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(model);
    }
    let generation = shared.generation.fetch_add(1, Ordering::SeqCst) + 1;
    swap.canary = fresh;
    axnn_obs::event(
        "serve_reload",
        "serve:swap",
        max_d,
        "checkpoint staged to all replicas",
    );
    Response::Reloaded {
        generation,
        replicas,
        max_abs_delta: max_d,
        mean_abs_delta: mean_d,
    }
}

fn acceptor_loop(listener: TcpListener, shared: &Arc<Shared>, input_len: usize, classes: usize) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // A second handle to the socket, kept out of the spawn closure; it
        // is registered in `shared.conns` so `Server::join` can wait for
        // the handler's last reply to flush, and it doubles as the inline
        // fallback: if thread creation fails (transient EAGAIN under
        // load), the connection is served on the acceptor thread instead
        // of being silently dropped — the client sees a slow reply, never
        // an unexplained EOF.
        let Ok(second) = stream.try_clone() else {
            continue;
        };
        let handler_shared = Arc::clone(shared);
        let spawned = thread::Builder::new()
            .name("serve-conn".to_string())
            .spawn(move || handle_conn(stream, &handler_shared, input_len, classes));
        match spawned {
            Ok(handle) => {
                let mut conns = shared.conns.lock().unwrap_or_else(|e| e.into_inner());
                conns.retain(|(h, _)| !h.is_finished());
                conns.push((handle, second));
            }
            Err(_) => handle_conn(second, shared, input_len, classes),
        }
    }
}

fn handle_conn(stream: TcpStream, shared: &Shared, input_len: usize, classes: usize) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    while let Ok(Some(payload)) = read_frame(&mut reader) {
        let response = dispatch(&payload, shared, input_len, classes);
        if write_frame(&mut writer, response.to_json().as_bytes()).is_err() {
            break;
        }
    }
}

fn dispatch(payload: &[u8], shared: &Shared, input_len: usize, classes: usize) -> Response {
    // Wire decode is the first stage of every request, timed like
    // preprocessing: here on the connection thread, malformed frames too.
    let started = Instant::now();
    let parsed = {
        let _s = axnn_obs::span("serve:decode");
        Request::parse(payload)
    };
    let us = started.elapsed().as_secs_f64() * 1e6;
    axnn_obs::record_value("serve:decode_us", decode_time_spec(), us);
    shared.metrics.note_decode(us);
    let req = match parsed {
        Ok(req) => req,
        Err(detail) => return Response::Error { id: 0, detail },
    };
    if let Some(cmd) = req.cmd.as_deref() {
        return match cmd {
            "ping" => Response::Control { status: "pong" },
            "info" => Response::Info {
                input_len,
                classes,
                preprocess: shared.preprocess.clone(),
            },
            // Read-only snapshots, answered before admission control: they
            // keep working on a draining or overloaded server.
            "metrics" => match req.format.as_deref() {
                None | Some("json") => Response::Snapshot {
                    json: shared.metrics.snapshot_json(&shared.snapshot_ctx()),
                },
                Some(other) => Response::Error {
                    id: req.id,
                    detail: format!("unknown metrics format '{other}'"),
                },
            },
            "trace" => Response::Snapshot {
                json: shared.metrics.trace_json(req.n.unwrap_or(TRACE_DEFAULT_N)),
            },
            "shutdown" => {
                shared.begin_shutdown();
                Response::Control { status: "draining" }
            }
            "reload" => {
                let Some(path) = req.path.as_deref() else {
                    return Response::Error {
                        id: req.id,
                        detail: "reload needs a 'path'".to_string(),
                    };
                };
                match std::fs::read_to_string(path) {
                    Ok(json) => handle_reload(shared, &json, input_len, classes),
                    Err(e) => Response::Error {
                        id: req.id,
                        detail: format!("reload rejected: {path}: {e}"),
                    },
                }
            }
            other => Response::Error {
                id: req.id,
                detail: format!("unknown command '{other}'"),
            },
        };
    }
    // Raw frames are preprocessed here on the connection thread — a
    // pipelined stage *before* micro-batching, so preprocessing of one
    // request overlaps the compute of others and the queue/compute path
    // below is identical for both request forms.
    let (input, preprocess_us) = match req.raw_frame {
        Some(frame) => {
            if !req.input.is_empty() {
                return Response::Error {
                    id: req.id,
                    detail: "request carries both 'input' and 'raw_frame'".to_string(),
                };
            }
            let started = Instant::now();
            let decoded = {
                let _s = axnn_obs::span("serve:preprocess");
                shared.preprocess.apply(&frame)
            };
            let input = match decoded {
                Ok(input) => input,
                Err(detail) => return Response::Error { id: req.id, detail },
            };
            let us = started.elapsed().as_secs_f64() * 1e6;
            axnn_obs::record_value("serve:preprocess_us", preprocess_time_spec(), us);
            shared.metrics.note_preprocess(us);
            (input, us)
        }
        None => (req.input, 0.0),
    };
    if input.len() != input_len {
        return Response::Error {
            id: req.id,
            detail: format!("input length {} != {input_len}", input.len()),
        };
    }
    let (tx, rx) = mpsc::channel();
    let job = Job {
        id: req.id,
        // Placeholder: the real trace id is drawn from the server-wide
        // sequence inside the queue push, under the queue mutex, so ids
        // are monotonic in admission order and rejected requests never
        // consume one (the id space stays dense).
        trace: 0,
        input,
        enqueued: Instant::now(),
        reply: tx,
    };
    match shared.queue.push(job, shared.metrics.trace_seq()) {
        Err(e) => {
            axnn_obs::record_ratio("serve:rejected", 1, 1);
            shared.metrics.note_rejected();
            Response::Rejected {
                id: req.id,
                reason: e.reason(),
            }
        }
        Ok(()) => match rx.recv() {
            Ok(r) => Response::Ok {
                id: r.id,
                logits: r.logits,
                queue_us: r.queue_us,
                compute_us: r.compute_us,
                preprocess_us,
                batch: r.batch,
            },
            Err(_) => Response::Error {
                id: req.id,
                detail: "worker dropped the job".to_string(),
            },
        },
    }
}
