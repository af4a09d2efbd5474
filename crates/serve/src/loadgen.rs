//! Load generation: a framing client plus one closed- and open-loop
//! driver ([`drive`]) for pre-shaped tensors and raw frames alike.
//!
//! The **closed loop** models a fixed population of synchronous callers:
//! `connections` threads each fire `requests` back-to-back requests, so
//! offered load self-throttles to the service rate — the classic
//! throughput probe.
//!
//! The **open loop** models independent arrivals: each connection sends on
//! a fixed schedule (`rate_rps` split evenly across connections) and
//! measures latency **from the scheduled send time**, not the actual one.
//! If the service falls behind, the backlog inflates the recorded latency
//! instead of silently slowing the arrival process down — the
//! coordinated-omission correction.
//!
//! All inputs are deterministic (seeded per connection from the run seed
//! and the connection index; see [`Payload`]), so two runs against the
//! same server offer bit-identical request streams. Every run reports one
//! [`LoadReport`]; a [`knee`] probe runs one per rate of an open-loop
//! ladder and locates the saturation knee.

use crate::protocol::{read_frame, write_frame, Request, ResponseMsg};
use crate::server;
use crate::stats::{LatencySummary, Stage};
use crate::stream::FrameShape;
use axnn_data::resize::{PreprocessSpec, RawFrame};
use axnn_obs::json::{join, num};
use axnn_rng::Rng;
use std::io::{self, BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::thread;
use std::time::{Duration, Instant};

/// A blocking request/response client over the length-prefixed protocol.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
        })
    }

    fn round_trip(&mut self, payload: &str) -> io::Result<ResponseMsg> {
        write_frame(&mut self.writer, payload.as_bytes())?;
        let frame = read_frame(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed mid-request")
        })?;
        ResponseMsg::parse(&frame).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Sends one inference request and waits for the response.
    pub fn infer(&mut self, id: u64, input: &[f32]) -> io::Result<ResponseMsg> {
        self.round_trip(&Request::inference_json(id, input))
    }

    /// Sends one raw-frame inference request — the server runs its
    /// preprocessing pipeline on the frame before batching.
    pub fn infer_raw(&mut self, id: u64, frame: &RawFrame) -> io::Result<ResponseMsg> {
        self.round_trip(&Request::raw_frame_json(id, frame))
    }

    /// Sends a control command (`ping`, `info`, `shutdown`).
    pub fn command(&mut self, cmd: &str) -> io::Result<ResponseMsg> {
        self.round_trip(&Request::command_json(cmd))
    }

    /// Sends one request and returns the raw response frame — for the
    /// snapshot commands (`metrics`, `trace`), whose JSON bodies carry more
    /// structure than [`ResponseMsg`] models.
    pub fn raw_round_trip(&mut self, payload: &str) -> io::Result<Vec<u8>> {
        write_frame(&mut self.writer, payload.as_bytes())?;
        read_frame(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed mid-request")
        })
    }

    /// Fetches the live metrics snapshot (`{"cmd": "metrics"}`) as a JSON
    /// string. JSON (`format` of `None` or `Some("json")`) is the only
    /// format; the server answers any other with a per-request error.
    pub fn metrics(&mut self, format: Option<&str>) -> io::Result<String> {
        let frame = self.raw_round_trip(&Request::metrics_json(format))?;
        snapshot_body(frame, "metrics")
    }

    /// Fetches the last `n` trace records (`{"cmd": "trace"}`) as a JSON
    /// string.
    pub fn trace_tail(&mut self, n: usize) -> io::Result<String> {
        let frame = self.raw_round_trip(&Request::trace_json(n))?;
        snapshot_body(frame, "trace")
    }
}

/// `msg` if its status is `want`; otherwise an `InvalidData` error naming
/// the status it got and the server's detail.
pub(crate) fn expect_status(msg: ResponseMsg, want: &str) -> io::Result<ResponseMsg> {
    if msg.status == want {
        return Ok(msg);
    }
    let detail = if msg.detail.is_empty() {
        String::new()
    } else {
        format!(": {}", msg.detail)
    };
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        format!("expected status '{want}', got '{}'{detail}", msg.status),
    ))
}

/// Validates a snapshot frame: UTF-8, and its `status` is the expected
/// word (a server-side `error` response surfaces as `InvalidData` with the
/// detail).
fn snapshot_body(frame: Vec<u8>, want_status: &str) -> io::Result<String> {
    let msg =
        ResponseMsg::parse(&frame).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    expect_status(msg, want_status)?;
    String::from_utf8(frame).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Issues `{"cmd": "info"}`: the served model's input length and
/// preprocessing spec.
fn info(addr: impl ToSocketAddrs) -> io::Result<ResponseMsg> {
    expect_status(Client::connect(addr)?.command("info")?, "info")
}

/// Asks the server at `addr` for its input length via `{"cmd": "info"}`.
pub fn probe_input_len(addr: impl ToSocketAddrs) -> io::Result<usize> {
    Ok(info(addr)?.input_len as usize)
}

/// Asks the server at `addr` for its raw-frame preprocessing spec via
/// `{"cmd": "info"}` — the spec a client runs locally to reproduce
/// server-side preprocessing bit-for-bit.
pub fn probe_preprocess_spec(addr: impl ToSocketAddrs) -> io::Result<PreprocessSpec> {
    info(addr)?.preprocess.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "server published no preprocess spec",
        )
    })
}

/// Connects and issues `{"cmd": "shutdown"}`; returns the server's reply.
pub fn shutdown_server(addr: impl ToSocketAddrs) -> io::Result<ResponseMsg> {
    Client::connect(addr)?.command("shutdown")
}

/// Connects and issues `{"cmd": "reload", "path": ...}` — the checkpoint
/// hot-swap trigger. `path` is resolved on the **server's** filesystem.
pub fn reload_server(addr: impl ToSocketAddrs, path: &str) -> io::Result<ResponseMsg> {
    let mut client = Client::connect(addr)?;
    client.round_trip(&Request::reload_json(path))
}

/// Sends the deterministic canary request derived from `seed` and returns
/// the reply. Bit-identical servers answer with bit-identical logits, so
/// two probes with the same seed against servers that should agree (e.g.
/// 1 vs 4 replicas) can be compared byte-for-byte — the tier-1
/// replica-invariance gate.
pub fn canary_probe(
    addr: impl ToSocketAddrs,
    input_len: usize,
    seed: u64,
) -> io::Result<ResponseMsg> {
    let mut rng = Rng::seed(seed);
    let input = deterministic_input(&mut rng, input_len);
    Client::connect(addr)?.infer(seed, &input)
}

/// What every request of a run carries. Each connection builds its own
/// deterministic stream from its seed, so two runs with the same seed
/// offer bit-identical requests.
#[derive(Debug, Clone, Copy)]
pub enum Payload {
    /// A pre-shaped tensor of this many values, drawn from the
    /// connection's seeded `Rng`.
    Tensor(usize),
    /// A synthetic raw frame the server preprocesses; frame `k` is seeded
    /// from the connection seed and `k`.
    Frame(FrameShape),
}

/// Parameters of one load-generation run.
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// Concurrent connections.
    pub connections: usize,
    /// Requests per connection.
    pub requests: usize,
    /// Open-loop target arrival rate over all connections, requests/s.
    /// `0.0` selects the closed loop.
    pub rate_rps: f64,
    /// Seed for the deterministic input streams.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            connections: 4,
            requests: 32,
            rate_rps: 0.0,
            seed: 1,
        }
    }
}

/// What one run observed, merged over its connections.
#[derive(Debug, Default)]
struct Tally {
    sent: usize,
    ok: usize,
    rejected: usize,
    errors: usize,
    latency_us: Vec<f64>,
    preprocess_us: Vec<f64>,
    queue_us: Vec<f64>,
    compute_us: Vec<f64>,
}

impl Tally {
    fn absorb(&mut self, msg: &io::Result<ResponseMsg>, latency_us: f64) {
        self.sent += 1;
        match msg {
            Ok(m) if m.status == "ok" => {
                self.ok += 1;
                self.latency_us.push(latency_us);
                self.preprocess_us.push(m.preprocess_us);
                self.queue_us.push(m.queue_us);
                self.compute_us.push(m.compute_us);
            }
            Ok(m) if m.status == "overloaded" || m.status == "draining" => self.rejected += 1,
            _ => self.errors += 1,
        }
    }

    fn merge(&mut self, other: Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.rejected += other.rejected;
        self.errors += other.errors;
        self.latency_us.extend(other.latency_us);
        self.preprocess_us.extend(other.preprocess_us);
        self.queue_us.extend(other.queue_us);
        self.compute_us.extend(other.compute_us);
    }
}

/// Aggregated result of one load-generation run — the one per-run report
/// of every serving measurement (`axnn loadgen`, the bench matrix, each
/// step of a [`knee`] probe, `axnn stream`).
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// `"closed"` or `"open"`.
    pub mode: &'static str,
    /// Concurrent connections used.
    pub connections: usize,
    /// Open-loop offered rate (0 for closed loop), requests/s.
    pub offered_rps: f64,
    /// Requests sent.
    pub sent: usize,
    /// `ok` responses.
    pub ok: usize,
    /// `overloaded` + `draining` rejections.
    pub rejected: usize,
    /// `error` responses and transport failures.
    pub errors: usize,
    /// Wall-clock of the whole run, seconds.
    pub elapsed_s: f64,
    /// Completed (`ok`) responses per second.
    pub throughput_rps: f64,
    /// `rejected / sent`.
    pub reject_rate: f64,
    /// Client-observed end-to-end latency of `ok` responses — from the
    /// scheduled send time in the open loop.
    pub latency: LatencySummary,
    /// Server-reported raw-frame preprocessing of `ok` responses (zero
    /// for pre-shaped tensors), in [`server::preprocess_time_spec`].
    pub preprocess: Stage,
    /// Server-reported queue wait of `ok` responses, in
    /// [`server::queue_wait_spec`].
    pub queue_wait: Stage,
    /// Server-reported compute time of `ok` responses, in
    /// [`server::compute_spec`].
    pub compute: Stage,
}

impl LoadReport {
    fn new(cfg: &LoadConfig, tally: Tally, elapsed_s: f64) -> LoadReport {
        let ratio = |n: usize, d: f64| if d > 0.0 { n as f64 / d } else { 0.0 };
        LoadReport {
            mode: if cfg.rate_rps > 0.0 { "open" } else { "closed" },
            connections: cfg.connections,
            offered_rps: cfg.rate_rps,
            sent: tally.sent,
            ok: tally.ok,
            rejected: tally.rejected,
            errors: tally.errors,
            elapsed_s,
            throughput_rps: ratio(tally.ok, elapsed_s),
            reject_rate: ratio(tally.rejected, tally.sent as f64),
            latency: LatencySummary::from_samples(tally.latency_us),
            preprocess: Stage::from_samples(tally.preprocess_us, server::preprocess_time_spec()),
            queue_wait: Stage::from_samples(tally.queue_us, server::queue_wait_spec()),
            compute: Stage::from_samples(tally.compute_us, server::compute_spec()),
        }
    }

    /// The keep-up rule: the run completed at least `ratio × offered`
    /// responses per second and nothing was rejected or errored.
    pub fn kept_up(&self, ratio: f64) -> bool {
        self.throughput_rps >= ratio * self.offered_rps && self.rejected == 0 && self.errors == 0
    }

    /// Hand-written JSON object (the `results/BENCH_*.json` style).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"mode\": \"{}\", \"connections\": {}, \"offered_rps\": {}, \
             \"sent\": {}, \"ok\": {}, \"rejected\": {}, \"errors\": {}, \
             \"elapsed_s\": {}, \"throughput_rps\": {}, \"reject_rate\": {}, \
             \"latency\": {{{}}}, \"preprocess\": {}, \"queue_wait\": {}, \"compute\": {}}}",
            self.mode,
            self.connections,
            num(self.offered_rps),
            self.sent,
            self.ok,
            self.rejected,
            self.errors,
            num(self.elapsed_s),
            num(self.throughput_rps),
            num(self.reject_rate),
            self.latency.json_members(),
            self.preprocess.to_json(),
            self.queue_wait.to_json(),
            self.compute.to_json(),
        )
    }
}

fn deterministic_input(rng: &mut Rng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// Offset of the `k`-th open-loop send from the connection's start time.
/// Computed as one f64 product: exact for any realistic sweep length,
/// immune to the `usize as u32` truncation and `Duration * u32` overflow
/// of the naive `gap * k`.
fn scheduled_offset(gap_secs: f64, k: usize) -> Duration {
    Duration::from_secs_f64(gap_secs * k as f64)
}

/// Drives one run against a running server: `cfg.connections` threads
/// each send `cfg.requests` requests of `payload`, back to back when
/// `cfg.rate_rps == 0` (closed loop), otherwise on a fixed schedule with
/// the rate split evenly across connections (open loop, wrk2-style).
/// Each request is built and encoded before the connection waits for its
/// send time, so generation stays outside the latency window while the
/// client is ahead of schedule. A connection already behind schedule
/// (past the knee) builds the request after its scheduled time, and that
/// build time still counts as open-loop latency. In the closed loop the
/// clock starts after the request is encoded.
///
/// Returns an error only when a *connection* cannot be established;
/// per-request failures are tallied.
pub fn drive(
    addr: impl ToSocketAddrs,
    payload: Payload,
    cfg: &LoadConfig,
) -> io::Result<LoadReport> {
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address"))?;
    let open = cfg.rate_rps > 0.0;
    let gap_secs = if open {
        cfg.connections.max(1) as f64 / cfg.rate_rps
    } else {
        0.0
    };

    let started = Instant::now();
    let mut workers = Vec::with_capacity(cfg.connections);
    for conn in 0..cfg.connections {
        let seed = cfg.seed ^ ((conn as u64 + 1) * 0x9e37_79b9);
        let requests = cfg.requests;
        let handle = thread::Builder::new()
            .name(format!("loadgen-{conn}"))
            .spawn(move || -> io::Result<Tally> {
                let mut client = Client::connect(addr)?;
                let mut rng = Rng::seed(seed);
                let mut tally = Tally::default();
                let base = Instant::now();
                for k in 0..requests {
                    let request = match payload {
                        Payload::Tensor(len) => {
                            Request::inference_json(k as u64, &deterministic_input(&mut rng, len))
                        }
                        Payload::Frame(shape) => Request::raw_frame_json(
                            k as u64,
                            &shape.synthetic(seed ^ ((k as u64) << 20)),
                        ),
                    };
                    let scheduled = base + scheduled_offset(gap_secs, k);
                    if open {
                        let now = Instant::now();
                        if scheduled > now {
                            thread::sleep(scheduled - now);
                        }
                    }
                    let t0 = if open { scheduled } else { Instant::now() };
                    let msg = client.round_trip(&request);
                    tally.absorb(&msg, t0.elapsed().as_secs_f64() * 1e6);
                    if msg.is_err() {
                        // Transport error: the connection is unusable.
                        break;
                    }
                }
                Ok(tally)
            })?;
        workers.push(handle);
    }
    let mut total = Tally::default();
    for handle in workers {
        total.merge(
            handle
                .join()
                .map_err(|_| io::Error::other("loadgen worker panicked"))??,
        );
    }
    Ok(LoadReport::new(cfg, total, started.elapsed().as_secs_f64()))
}

/// Where a [`knee`] probe's offered rates come from.
#[derive(Debug, Clone)]
pub enum Ladder {
    /// Exactly these rates, requests/s, in ascending order.
    Rates(Vec<f64>),
    /// `steps` rates of a geometric ladder around the throughput of one
    /// closed-loop calibration run of `closed` (its `rate_rps` is
    /// ignored): an open-loop step cannot achieve more than it offers, so
    /// the service rate is estimated closed-loop first.
    Calibrated {
        /// The calibration run.
        closed: LoadConfig,
        /// Ladder steps.
        steps: usize,
    },
}

/// Parameters of a multi-rate open-loop [`knee`] probe.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Concurrent connections per rate step.
    pub connections: usize,
    /// The offered rates to probe.
    pub ladder: Ladder,
    /// Wall-clock budget per rate step; the per-connection request count
    /// is derived as `rate * step_duration / connections` (min 4).
    pub step_duration_s: f64,
    /// Seed for the deterministic request streams.
    pub seed: u64,
    /// A step keeps up when [`LoadReport::kept_up`] holds at this ratio.
    pub keepup_ratio: f64,
}

impl SweepConfig {
    /// The open-loop run of one step at `rate` with request seed `seed`.
    pub(crate) fn step(&self, rate: f64, seed: u64) -> LoadConfig {
        LoadConfig {
            connections: self.connections,
            requests: ((rate * self.step_duration_s / self.connections.max(1) as f64).ceil()
                as usize)
                .max(4),
            rate_rps: rate,
            seed,
        }
    }
}

/// One probed rate of a [`knee`] probe.
#[derive(Debug, Clone)]
pub struct Step {
    /// Whether the step met the keep-up rule.
    pub kept_up: bool,
    /// What the step observed.
    pub report: LoadReport,
}

/// Result of a [`knee`] probe: the probed steps and the located
/// saturation knee.
#[derive(Debug, Clone, Default)]
pub struct Sweep {
    /// Closed-loop throughput of the calibration run the ladder brackets,
    /// requests/s (0 when the rates were given explicitly).
    pub calibration_rps: f64,
    /// One step per probed rate, in probe order.
    pub steps: Vec<Step>,
    /// Highest offered rate that still kept up (0 when none did).
    pub knee_offered: f64,
    /// Best completed rate observed across all steps — the saturated
    /// service rate.
    pub knee_achieved: f64,
}

/// Probes the server open-loop at each rate of `cfg.ladder` (calibrating
/// first when the ladder asks for it) and locates the saturation knee:
/// the highest offered rate the service still keeps up with
/// ([`LoadReport::kept_up`]). The knee throughput is the best completed
/// rate seen at any step — past the knee an open-loop service saturates
/// flat, so the maximum is the service's capacity.
pub fn knee(
    addr: impl ToSocketAddrs + Copy,
    payload: Payload,
    cfg: &SweepConfig,
) -> io::Result<Sweep> {
    let mut out = Sweep::default();
    let rates = match &cfg.ladder {
        Ladder::Rates(rates) => rates.clone(),
        Ladder::Calibrated { closed, steps } => {
            let closed = LoadConfig {
                rate_rps: 0.0,
                ..*closed
            };
            out.calibration_rps = drive(addr, payload, &closed)?.throughput_rps;
            rate_ladder(out.calibration_rps.max(1.0), *steps)
        }
    };
    for (i, rate) in rates.into_iter().enumerate() {
        let load = cfg.step(rate, cfg.seed ^ ((i as u64 + 1) << 16));
        let report = drive(addr, payload, &load)?;
        let kept_up = report.kept_up(cfg.keepup_ratio);
        if kept_up {
            out.knee_offered = out.knee_offered.max(rate);
        }
        out.knee_achieved = out.knee_achieved.max(report.throughput_rps);
        out.steps.push(Step { kept_up, report });
    }
    Ok(out)
}

impl Sweep {
    /// Hand-written JSON object: the calibration and the knee plus one
    /// [`LoadReport`] per step.
    pub fn to_json(&self) -> String {
        let points = join(
            self.steps.iter().map(|s| {
                format!(
                    "{{\"offered_rps\": {}, \"kept_up\": {}, \"report\": {}}}",
                    num(s.report.offered_rps),
                    s.kept_up,
                    s.report.to_json()
                )
            }),
            ", ",
        );
        format!(
            "{{\"calibration_rps\": {}, \"knee_offered_rps\": {}, \"knee_throughput_rps\": {}, \
             \"points\": [{points}]}}",
            num(self.calibration_rps),
            num(self.knee_offered),
            num(self.knee_achieved),
        )
    }
}

/// A geometric rate ladder around an estimated service rate.
fn rate_ladder(estimate_rps: f64, steps: usize) -> Vec<f64> {
    // 0.5x .. ~2x the estimate: below the knee, at it, and past it.
    let lo = (estimate_rps * 0.5).max(1.0);
    let growth = 1.32f64;
    (0..steps).map(|i| lo * growth.powi(i as i32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_monotone_and_immune_to_u32_truncation() {
        // Regression: `gap * k as u32` truncated k at 2^32 and could
        // overflow Duration * u32 far earlier; the f64 path must keep
        // growing monotonically across both hazards.
        let gap = 0.001; // 1 ms
        let before = scheduled_offset(gap, u32::MAX as usize);
        let after = scheduled_offset(gap, u32::MAX as usize + 1);
        assert!(after > before, "must not wrap at the u32 boundary");
        // A 1-hour gap times 5000 sends overflowed `Duration * u32`
        // arithmetic pathways measured in nanoseconds; f64 seconds do not.
        let huge = scheduled_offset(3600.0, 5000);
        assert_eq!(huge.as_secs(), 5000 * 3600);
        assert_eq!(scheduled_offset(0.0, 123), Duration::ZERO);
    }

    #[test]
    fn rate_ladder_brackets_the_estimate() {
        let rates = rate_ladder(100.0, 6);
        assert_eq!(rates.len(), 6);
        assert!(rates[0] <= 51.0, "starts below the estimate: {rates:?}");
        assert!(
            *rates.last().unwrap() > 150.0,
            "ends past the estimate: {rates:?}"
        );
        assert!(rates.windows(2).all(|w| w[1] > w[0]), "ascending");
    }

    #[test]
    fn deterministic_inputs_repeat_per_seed() {
        let mut a = Rng::seed(5);
        let mut b = Rng::seed(5);
        assert_eq!(
            deterministic_input(&mut a, 8),
            deterministic_input(&mut b, 8)
        );
    }
}
