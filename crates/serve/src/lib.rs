//! # axnn-serve
//!
//! A batched TCP inference service for ApproxNN checkpoints, plus the load
//! generator that measures it.
//!
//! The server speaks a length-prefixed JSON protocol ([`protocol`]),
//! admits requests into one bounded queue with explicit `overloaded`
//! rejections ([`queue`]), cuts work-conserving micro-batches (a free
//! worker pops up to max-batch-size waiting jobs at once and never waits
//! on a timer), and runs them on **N replica model workers** that all pop
//! that one queue ([`server`]), through any of the three executor
//! families — exact, 8A4W-quantized, or approximate ([`executor`],
//! [`model`]). Every replica
//! is built bit-identically from one shared frozen checkpoint
//! ([`ServeSpec`]) with its own compiled plan cache and scratch arena, so
//! serving keeps the workspace's bit-determinism: the same request returns
//! the same logits whether it is served alone or inside a batch, at any
//! thread count, on any replica, at any replica count.
//!
//! A running server hot-swaps checkpoints without dropping connections:
//! `{"cmd": "reload", "path": ...}` builds the new replica set off the
//! worker threads, canary-diffs it against the live model, and stages it
//! for each worker to pick up between batches ([`server`] docs).
//!
//! Every stage reports through `axnn-obs` — queue-wait/compute latency
//! splits, batch-size/queue-depth/replica histograms, served/rejected and
//! per-replica plan-cache ratios, swap events — landing in the RunProfile
//! v2 schema so `axnn obs report|diff` work on serving runs unchanged.
//!
//! Requests arrive as pre-shaped tensors or as **raw `H×W×C` frames**
//! (`raw_frame`): the server resizes, re-lays-out and normalizes raw
//! frames with the model's [`PreprocessSpec`] on the connection thread —
//! a pipelined stage before micro-batching — using the *same*
//! `axnn_data::resize` kernels a client would, so server-side
//! preprocessing is bit-identical to client-side ([`stream::probe`]
//! asserts it end to end).
//!
//! [`loadgen`] drives a running server with tensors or raw frames,
//! closed-loop (fixed caller population), open-loop (fixed arrival
//! schedule, coordinated-omission corrected), or as a multi-rate
//! open-loop [`loadgen::knee`] probe that locates the saturation knee.
//! Every run reports one [`LoadReport`] with the client-observed latency
//! and the server's preprocess / queue-wait / compute split per stage.
//! `axnn stream` writes a raw-frame knee probe to
//! `results/BENCH_stream.json` ([`stream::bench_json`]);
//! [`bench`](mod@bench) sweeps the executor × max-batch matrix plus the
//! replicas-vs-throughput knee into `results/BENCH_serve.json`.
//!
//! ## Minimal session
//!
//! ```text
//! $ axnn serve --checkpoint ckpt.json --port 7878 --executor approx --replicas 4 &
//! $ axnn loadgen --addr 127.0.0.1:7878 --connections 4 --requests 64
//! $ axnn loadgen --addr 127.0.0.1:7878 --reload ckpt_v2.json   # hot-swap
//! ```

pub mod bench;
pub mod executor;
pub mod loadgen;
pub mod metrics;
pub mod model;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod stats;
pub mod stream;

pub use axnn_data::resize::{Filter, FrameData, PreprocessSpec, RawFrame};
pub use bench::{run_bench, BenchConfig};
pub use executor::ServeExecutor;
pub use loadgen::{
    canary_probe, probe_input_len, probe_preprocess_spec, reload_server, shutdown_server, Client,
    Ladder, LoadConfig, LoadReport, Payload, Sweep, SweepConfig,
};
pub use metrics::{MetricsPlane, SnapshotContext, TraceRecord, METRICS_SCHEMA_VERSION};
pub use model::{ModelOptions, ServeSpec, ServedModel};
pub use protocol::{Request, Response, ResponseMsg};
pub use queue::{AdmitError, BatchQueue, QueueConfig};
pub use server::Server;
pub use stats::{LatencySummary, Stage};
pub use stream::{FrameShape, StreamProbe};

#[cfg(test)]
mod tests {
    use super::*;
    use axnn_models::ModelConfig;
    use axnn_nn::Checkpoint;
    use axnn_rng::Rng;
    use std::time::Duration;

    fn tiny_checkpoint_json(seed: u64) -> String {
        let mut cfg = ModelConfig::paper().with_width(0.2).with_input_hw(8);
        cfg.batch_norm = false;
        let mut rng = Rng::seed(seed);
        let mut net = axnn_models::resnet20(&cfg, &mut rng);
        Checkpoint::capture(&mut net).to_json()
    }

    fn tiny_spec() -> ServeSpec {
        let opts = ModelOptions {
            width: 0.2,
            hw: 8,
            ..ModelOptions::default()
        };
        ServeSpec::from_json(&tiny_checkpoint_json(3), &opts).unwrap()
    }

    fn tiny_server_at(bind: &str, queue: QueueConfig, replicas: usize) -> Server {
        Server::start(&tiny_spec(), bind, queue, replicas).unwrap()
    }

    fn tiny_server(queue: QueueConfig) -> Server {
        tiny_server_at("127.0.0.1:0", queue, 1)
    }

    #[test]
    fn end_to_end_session_serves_probes_and_drains() {
        let mut server = tiny_server(QueueConfig {
            capacity: 8,
            max_batch: 4,
        });
        let addr = server.addr();
        assert_eq!(probe_input_len(addr).unwrap(), 3 * 8 * 8);

        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.command("ping").unwrap().status, "pong");

        let input = vec![0.25f32; server.input_len()];
        let msg = client.infer(11, &input).unwrap();
        assert_eq!((msg.id, msg.status.as_str()), (11, "ok"));
        assert_eq!(msg.logits.len(), server.classes());
        assert!(msg.batch >= 1);
        assert!(msg.compute_us > 0.0);

        // Malformed input length gets a per-request error, not a hangup.
        let msg = client.infer(12, &[1.0, 2.0]).unwrap();
        assert_eq!(msg.status, "error");
        assert!(msg.detail.contains("input length"));

        // Graceful drain: shutdown acks, then new work is refused.
        assert_eq!(client.command("shutdown").unwrap().status, "draining");
        let msg = client.infer(13, &input).unwrap();
        assert_eq!(msg.status, "draining");
        server.join();
    }

    #[test]
    fn metrics_and_trace_serve_live_traffic() {
        let mut server = tiny_server_at(
            "127.0.0.1:0",
            QueueConfig {
                capacity: 16,
                max_batch: 4,
            },
            2,
        );
        let input = vec![0.25f32; server.input_len()];
        let mut client = Client::connect(server.addr()).unwrap();
        for id in 1..=6 {
            assert_eq!(client.infer(id, &input).unwrap().status, "ok");
        }
        let snap = client.metrics(None).unwrap();
        let doc = axnn_obs::json::JsonValue::parse(snap.as_bytes()).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("metrics"));
        assert_eq!(
            doc.get("schema_version").unwrap().as_u64(),
            Some(METRICS_SCHEMA_VERSION)
        );
        assert_eq!(doc.get("replicas").unwrap().as_u64(), Some(2));
        let totals = doc.get("totals").unwrap();
        assert_eq!(totals.get("ok").unwrap().as_u64(), Some(6));
        let window = doc.get("window").unwrap();
        assert!(window.get("rps").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(
            window.get("per_replica").unwrap().as_array().unwrap().len(),
            2
        );
        // Every frame is timed through decode, the metrics command too.
        let decode = window.get("decode_us").unwrap();
        assert_eq!(decode.get("count").unwrap().as_u64(), Some(7));

        let tail = client.trace_tail(4).unwrap();
        let doc = axnn_obs::json::JsonValue::parse(tail.as_bytes()).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("trace"));
        let traces = doc.get("traces").unwrap().as_array().unwrap();
        assert_eq!(traces.len(), 4);
        let last = traces.last().unwrap();
        assert_eq!(last.get("trace_id").unwrap().as_u64(), Some(6));
        assert_eq!(last.get("request_id").unwrap().as_u64(), Some(6));
        assert!(last.get("compute_us").unwrap().as_f64().unwrap() > 0.0);

        // An unknown format is a per-request error, not a hangup.
        assert!(client.metrics(Some("prometheus")).is_err());
        assert!(client.metrics(Some("xml")).is_err());
        assert_eq!(client.command("ping").unwrap().status, "pong");
        server.shutdown();
    }

    #[test]
    fn draining_server_still_answers_metrics_and_trace() {
        let mut server = tiny_server(QueueConfig {
            capacity: 8,
            max_batch: 4,
        });
        let input = vec![0.5f32; server.input_len()];
        let mut client = Client::connect(server.addr()).unwrap();
        assert_eq!(client.infer(1, &input).unwrap().status, "ok");
        assert_eq!(client.command("shutdown").unwrap().status, "draining");
        // Inference is refused now, but the read-only snapshot commands
        // keep answering — they are handled before admission control.
        assert_eq!(client.infer(2, &input).unwrap().status, "draining");
        let snap = client.metrics(None).unwrap();
        let doc = axnn_obs::json::JsonValue::parse(snap.as_bytes()).unwrap();
        assert_eq!(doc.get("draining").unwrap().as_bool(), Some(true));
        assert_eq!(
            doc.get("totals").unwrap().get("ok").unwrap().as_u64(),
            Some(1)
        );
        let tail = client.trace_tail(8).unwrap();
        let doc = axnn_obs::json::JsonValue::parse(tail.as_bytes()).unwrap();
        assert_eq!(doc.get("count").unwrap().as_u64(), Some(1));
        drop(client);
        server.join();
    }

    #[test]
    fn loadgen_closed_loop_reports_served_traffic() {
        let mut server = tiny_server(QueueConfig {
            capacity: 32,
            max_batch: 4,
        });
        let report = loadgen::drive(
            server.addr(),
            Payload::Tensor(server.input_len()),
            &LoadConfig {
                connections: 3,
                requests: 4,
                rate_rps: 0.0,
                seed: 7,
            },
        )
        .unwrap();
        server.shutdown();
        assert_eq!(report.sent, 12);
        assert_eq!(report.ok, 12);
        assert_eq!(report.rejected + report.errors, 0);
        assert!(report.throughput_rps > 0.0);
        assert!(report.latency.p50_us > 0.0);
        assert!(report.latency.p99_us >= report.latency.p50_us);
    }

    #[test]
    fn replica_server_serves_and_drains() {
        let mut server = tiny_server_at(
            "127.0.0.1:0",
            QueueConfig {
                capacity: 16,
                max_batch: 2,
            },
            3,
        );
        assert_eq!(server.replicas(), 3);
        let report = loadgen::drive(
            server.addr(),
            Payload::Tensor(server.input_len()),
            &LoadConfig {
                connections: 4,
                requests: 6,
                rate_rps: 0.0,
                seed: 11,
            },
        )
        .unwrap();
        server.shutdown();
        assert_eq!(report.ok, 24, "every request served across replicas");
        assert_eq!(report.errors, 0);
    }

    #[test]
    fn wildcard_bind_still_drains() {
        // Regression: begin_shutdown used to connect to the bound address
        // verbatim; a 0.0.0.0 bind is not connectable, so the acceptor
        // never woke and shutdown() hung forever.
        let mut server = tiny_server_at("0.0.0.0:0", QueueConfig::default(), 1);
        assert!(server.addr().ip().is_unspecified());
        let loopback =
            std::net::SocketAddr::new("127.0.0.1".parse().unwrap(), server.addr().port());
        let input = vec![0.5f32; server.input_len()];
        let msg = Client::connect(loopback).unwrap().infer(1, &input).unwrap();
        assert_eq!(msg.status, "ok");
        server.shutdown(); // must return, not hang on the acceptor join
    }

    #[test]
    fn hot_swap_keeps_connections_and_changes_the_model() {
        let mut server = tiny_server_at(
            "127.0.0.1:0",
            QueueConfig {
                capacity: 16,
                max_batch: 4,
            },
            2,
        );
        let input = vec![0.25f32; server.input_len()];
        let mut client = Client::connect(server.addr()).unwrap();
        let before = client.infer(1, &input).unwrap();
        assert_eq!(before.status, "ok");

        // Swap in a *different* tiny checkpoint (new init seed) in process.
        let resp = server.reload(&tiny_checkpoint_json(8));
        let msg = ResponseMsg::parse(resp.to_json().as_bytes()).unwrap();
        assert_eq!(msg.status, "reloaded", "{}", msg.detail);
        assert_eq!((msg.generation, msg.replicas), (1, 2));
        assert!(
            msg.max_abs_delta > 0.0,
            "different weights must move the canary"
        );
        assert_eq!(server.generation(), 1);

        // The same connection keeps working and every subsequent request
        // is answered by the new model (stable logits across repeats).
        let after = client.infer(2, &input).unwrap();
        assert_eq!(after.status, "ok");
        let old_bits: Vec<u32> = before.logits.iter().map(|v| v.to_bits()).collect();
        let new_bits: Vec<u32> = after.logits.iter().map(|v| v.to_bits()).collect();
        assert_ne!(old_bits, new_bits, "logits must come from the new model");
        for id in 3..9 {
            let again = client.infer(id, &input).unwrap();
            let bits: Vec<u32> = again.logits.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, new_bits, "request {id}: replicas disagree post-swap");
        }

        // A reload of a mismatched architecture is rejected, old model keeps
        // serving.
        let mut cfg = ModelConfig::paper().with_width(0.4).with_input_hw(8);
        cfg.batch_norm = false;
        let mut rng = Rng::seed(5);
        let mut net = axnn_models::resnet20(&cfg, &mut rng);
        let wrong = Checkpoint::capture(&mut net).to_json();
        let resp = server.reload(&wrong);
        let msg = ResponseMsg::parse(resp.to_json().as_bytes()).unwrap();
        assert_eq!(msg.status, "error");
        assert_eq!(server.generation(), 1, "failed reload must not bump");
        assert_eq!(client.infer(9, &input).unwrap().status, "ok");
        server.shutdown();
    }

    #[test]
    fn reload_verdict_is_json_carrying_the_path_verbatim() {
        let mut server = tiny_server(QueueConfig::default());
        // `\v` is no JSON escape: the path must come back escaped.
        let path = "missing dir\\ckpt\\v2 \"new\".json";
        let msg = reload_server(server.addr(), path).unwrap();
        server.shutdown();
        assert_eq!(msg.status, "error");
        let line = msg.reload_verdict_json();
        let v = axnn_obs::json::JsonValue::parse(line.as_bytes()).expect(&line);
        assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("error"));
        let detail = v.get("detail").and_then(|d| d.as_str()).unwrap();
        assert!(
            detail.starts_with(&format!("reload rejected: {path}: ")),
            "{detail}"
        );
    }

    #[test]
    fn raw_frames_serve_bit_identically_to_local_preprocessing() {
        let mut server = tiny_server_at(
            "127.0.0.1:0",
            QueueConfig {
                capacity: 16,
                max_batch: 4,
            },
            2,
        );
        let addr = server.addr();
        // The published spec matches the served shape.
        let spec = probe_preprocess_spec(addr).unwrap();
        assert_eq!(spec.input_len(), server.input_len());

        // The library probe: one u8 frame needing a downscale (32x48 -> 8x8).
        let shape = FrameShape {
            height: 32,
            width: 48,
            channels: 3,
            u8_pixels: true,
        };
        let verdict = stream::probe(addr, shape, 77).unwrap();
        assert!(
            verdict.bit_identical,
            "raw vs tensor diverged by {}",
            verdict.max_abs_delta
        );
        assert_eq!(verdict.classes, server.classes());

        // By hand for the f32 path, plus the per-response preprocess_us
        // split: raw frames report a positive preprocess time, tensor
        // requests report zero.
        let frame = RawFrame::synthetic(16, 16, 3, false, 5);
        let local = spec.apply(&frame).unwrap();
        let mut client = Client::connect(addr).unwrap();
        let raw = client.infer_raw(1, &frame).unwrap();
        assert_eq!(raw.status, "ok", "{}", raw.detail);
        assert!(raw.preprocess_us > 0.0);
        let tensor = client.infer(2, &local).unwrap();
        assert_eq!(tensor.status, "ok");
        assert_eq!(tensor.preprocess_us, 0.0);
        let raw_bits: Vec<u32> = raw.logits.iter().map(|v| v.to_bits()).collect();
        let tensor_bits: Vec<u32> = tensor.logits.iter().map(|v| v.to_bits()).collect();
        assert_eq!(raw_bits, tensor_bits);

        // Malformed frames get per-request errors, not hangups.
        let mut bad = RawFrame::synthetic(4, 4, 3, true, 1);
        bad.height = 5;
        let msg = client.infer_raw(3, &bad).unwrap();
        assert_eq!(msg.status, "error");
        assert!(msg.detail.contains("expected"), "{}", msg.detail);
        let both = Request::raw_frame_json(4, &frame).replacen(
            "\"raw_frame\"",
            "\"input\": [0.5], \"raw_frame\"",
            1,
        );
        let msg = ResponseMsg::parse(client.raw_round_trip(&both).unwrap().as_slice()).unwrap();
        assert_eq!(msg.status, "error");
        assert!(msg.detail.contains("both"), "{}", msg.detail);

        // The metrics window now carries the preprocess stage.
        let snap = client.metrics(None).unwrap();
        let doc = axnn_obs::json::JsonValue::parse(snap.as_bytes()).unwrap();
        let pp = doc.get("window").unwrap().get("preprocess_us").unwrap();
        assert!(pp.get("count").unwrap().as_u64().unwrap() >= 2);
        server.shutdown();
    }

    #[test]
    fn hostile_requests_get_errors_and_the_connection_keeps_serving() {
        // Regressions: `1e39` parses to an infinite f32 and was served as
        // all-zero logits; raw-frame dimensions whose product wraps to the
        // payload length panicked the connection thread, and the client got
        // neither a reply nor EOF. The read timeout turns a hang into a
        // failure.
        let mut server = tiny_server(QueueConfig::default());
        let stream = std::net::TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        let mut reader = stream.try_clone().unwrap();
        let mut writer = stream;
        let mut ask = |payload: &str| {
            protocol::write_frame(&mut writer, payload.as_bytes()).unwrap();
            let frame = protocol::read_frame(&mut reader)
                .expect("no reply within the timeout")
                .expect("server closed the connection");
            ResponseMsg::parse(&frame).unwrap()
        };
        let clean = Request::inference_json(1, &vec![0.25f32; server.input_len()]);
        let before = ask(&clean);
        assert_eq!(before.status, "ok", "{}", before.detail);

        let flat_frame = RawFrame {
            height: 4,
            width: 4,
            channels: 3,
            data: FrameData::F32(vec![0.5; 48]),
        };
        let hostile = [
            clean.replacen("0.25", "1e39", 1),
            Request::raw_frame_json(2, &flat_frame).replacen("0.5", "-1e39", 1),
            "{\"id\": 3, \"raw_frame\": {\"height\": 4611686018427387904, \"width\": 4, \
             \"channels\": 3, \"dtype\": \"u8\", \"data\": []}}"
                .to_string(),
        ];
        for payload in &hostile {
            let msg = ask(payload);
            assert_eq!(msg.status, "error", "{payload}: {msg:?}");
            assert_eq!(ask(&Request::command_json("ping")).status, "pong");
        }
        let after = ask(&clean);
        let bits = |m: &ResponseMsg| m.logits.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&after), bits(&before));
        server.shutdown();
    }

    #[test]
    fn raw_frame_sweep_reports_every_frame_per_stage() {
        let mut server = tiny_server(QueueConfig {
            capacity: 16,
            max_batch: 4,
        });
        let shape = FrameShape {
            height: 16,
            width: 12,
            channels: 3,
            u8_pixels: true,
        };
        for (payload, preprocessed) in [
            (Payload::Tensor(server.input_len()), false),
            (Payload::Frame(shape), true),
        ] {
            let cfg = SweepConfig {
                connections: 2,
                ladder: Ladder::Calibrated {
                    closed: LoadConfig {
                        connections: 2,
                        requests: 4,
                        rate_rps: 0.0,
                        seed: 3,
                    },
                    steps: 2,
                },
                step_duration_s: 0.2,
                seed: 9,
                keepup_ratio: 0.5,
            };
            let sweep = loadgen::knee(server.addr(), payload, &cfg).unwrap();
            assert!(sweep.calibration_rps > 0.0, "{payload:?}");
            assert_eq!(sweep.steps.len(), 2, "one step per ladder step");
            let rates: Vec<f64> = sweep.steps.iter().map(|s| s.report.offered_rps).collect();
            assert!(
                rates.windows(2).all(|w| w[1] > w[0]),
                "ascending: {rates:?}"
            );
            assert!(sweep.knee_achieved > 0.0);
            for step in &sweep.steps {
                let r = &step.report;
                assert_eq!(r.mode, "open");
                assert_eq!(r.sent, 2 * cfg.step(r.offered_rps, 0).requests);
                assert_eq!(r.ok, r.sent, "{payload:?}");
                assert_eq!(r.rejected + r.errors, 0);
                assert_eq!(r.latency.count, r.ok);
                for (name, stage, spec) in [
                    ("preprocess", &r.preprocess, server::preprocess_time_spec()),
                    ("queue_wait", &r.queue_wait, server::queue_wait_spec()),
                    ("compute", &r.compute, server::compute_spec()),
                ] {
                    assert_eq!(stage.summary.count, r.ok, "{name}");
                    assert_eq!(stage.hist.count(), r.ok as u64, "{name}");
                    assert_eq!(stage.hist.spec(), spec, "{name}");
                }
                // Only raw frames pass through server-side preprocessing.
                assert_eq!(r.preprocess.summary.p50_us > 0.0, preprocessed);
            }
        }
        server.shutdown();
    }

    #[test]
    fn overload_burst_is_rejected_not_queued() {
        let mut server = tiny_server(QueueConfig {
            capacity: 1,
            max_batch: 1,
        });
        let report = loadgen::drive(
            server.addr(),
            Payload::Tensor(server.input_len()),
            &LoadConfig {
                connections: 8,
                requests: 4,
                rate_rps: 0.0,
                seed: 9,
            },
        )
        .unwrap();
        server.shutdown();
        assert_eq!(report.sent, 32);
        assert!(report.rejected > 0, "burst past capacity must be rejected");
        assert_eq!(report.ok + report.rejected, 32, "no silent drops");
        assert!(report.reject_rate > 0.0);
    }
}
