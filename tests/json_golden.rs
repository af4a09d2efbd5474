//! Golden bytes of every hand-written JSON emitter.
//!
//! Each test feeds an emitter fixed inputs — string fields with quotes,
//! backslashes, control characters and non-ASCII text, and non-finite
//! floats — and pins the exact output. The expected strings were captured
//! from the emitters as they stood before they shared the `axnn_obs::json`
//! writer, so a failure here is a change to a file format or a wire
//! message. Every pinned document must also re-parse with
//! `JsonValue::parse`.

use approxnn::nn::{Checkpoint, Layer, Linear, Sequential};
use approxnn::obs::json::JsonValue;
use approxnn::obs::{
    CounterTotals, EventRecord, HistRecord, HistSpec, RatioRecord, RunProfile, SpanRecord,
};
use approxnn::report::{CounterDiff, DiffReport, RatioDiff};
use approxnn::search::{
    FineTunedSummary, HomogeneousRow, ParetoPoint, Score, SearchReport, StrategyRun,
};
use approxnn::serve::loadgen::Step;
use approxnn::serve::stream::bench_json;
use approxnn::serve::{
    Filter, FrameData, FrameShape, LatencySummary, LoadReport, PreprocessSpec, RawFrame, Request,
    Response, Stage, StreamProbe, Sweep, TraceRecord,
};
use approxnn::tensor::Tensor;
use axnn_rng::Rng;

/// Quotes, backslashes, control characters and non-ASCII text.
const NASTY: &str = "q\"b\\s/\u{1}\u{8}\n\r\t\u{1f}\u{7f} é中😀";

fn golden(got: &str, want: &str) {
    assert_eq!(got, want, "emitter output changed; got {got:?}");
    JsonValue::parse(got.as_bytes()).unwrap_or_else(|e| panic!("{e}: {got}"));
}

fn summary(samples: &[f64]) -> LatencySummary {
    LatencySummary::from_samples(samples.to_vec())
}

fn stage(samples: &[f64], hi: f64, buckets: usize) -> Stage {
    Stage::from_samples(samples.to_vec(), HistSpec::new(0.0, hi, buckets))
}

#[test]
fn response_variants() {
    let ok = Response::Ok {
        id: 7,
        logits: vec![
            0.1,
            -1.5e-7,
            3.402_823_5e38,
            f32::NAN,
            f32::NEG_INFINITY,
            -0.0,
        ],
        queue_us: 812.4,
        compute_us: 1e21,
        preprocess_us: f64::INFINITY,
        batch: 4,
    };
    golden(&ok.to_json(), "{\"id\": 7, \"status\": \"ok\", \"logits\": [0.1, -0.00000015, 340282350000000000000000000000000000000, 0, 0, -0], \"queue_us\": 812.4, \"compute_us\": 1000000000000000000000, \"preprocess_us\": 0, \"batch\": 4}");
    let rejected = Response::Rejected {
        id: 3,
        reason: "overloaded",
    };
    golden(
        &rejected.to_json(),
        "{\"id\": 3, \"status\": \"overloaded\"}",
    );
    let detail = NASTY.to_string();
    golden(&Response::Error { id: 9, detail }.to_json(), "{\"id\": 9, \"status\": \"error\", \"detail\": \"q\\\"b\\\\s/\\u0001\\u0008\\n\\r\\t\\u001f\u{7f} é中😀\"}");
    golden(
        &Response::Control { status: "pong" }.to_json(),
        "{\"status\": \"pong\"}",
    );
    let preprocess = PreprocessSpec {
        channels: 3,
        height: 8,
        width: 8,
        mean: vec![0.485, 0.456, 0.406],
        std: vec![0.229, 0.224, f32::NAN],
        filter: Filter::Nearest,
    };
    let info = Response::Info {
        input_len: 192,
        classes: 10,
        preprocess,
    };
    golden(&info.to_json(), "{\"status\": \"info\", \"input_len\": 192, \"classes\": 10, \"preprocess\": {\"channels\": 3, \"height\": 8, \"width\": 8, \"mean\": [0.485, 0.456, 0.406], \"std\": [0.229, 0.224, 0], \"filter\": \"nearest\"}}");
    let reloaded = Response::Reloaded {
        generation: 2,
        replicas: 4,
        max_abs_delta: 0.02,
        mean_abs_delta: f64::NAN,
    };
    golden(&reloaded.to_json(), "{\"status\": \"reloaded\", \"generation\": 2, \"replicas\": 4, \"max_abs_delta\": 0.02, \"mean_abs_delta\": 0}");
    let json = "{\"status\": \"metrics\"}".to_string();
    golden(
        &Response::Snapshot { json }.to_json(),
        "{\"status\": \"metrics\"}",
    );
}

#[test]
fn request_emitters() {
    let input = [0.25, -1.0, 1e-45, f32::INFINITY];
    golden(
        &Request::inference_json(5, &input),
        "{\"id\": 5, \"input\": [0.25, -1, 0.000000000000000000000000000000000000000000001, 0]}",
    );
    let frame = |channels, data| RawFrame {
        height: 1,
        width: 2,
        channels,
        data,
    };
    let u8_frame = frame(2, FrameData::U8(vec![0, 255, 7, 128]));
    golden(&Request::raw_frame_json(11, &u8_frame), "{\"id\": 11, \"raw_frame\": {\"height\": 1, \"width\": 2, \"channels\": 2, \"dtype\": \"u8\", \"data\": [0, 255, 7, 128]}}");
    let f32_frame = frame(1, FrameData::F32(vec![0.5, f32::NAN]));
    golden(&Request::raw_frame_json(12, &f32_frame), "{\"id\": 12, \"raw_frame\": {\"height\": 1, \"width\": 2, \"channels\": 1, \"dtype\": \"f32\", \"data\": [0.5, 0]}}");
    golden(
        &Request::command_json(NASTY),
        "{\"cmd\": \"q\\\"b\\\\s/\\u0001\\u0008\\n\\r\\t\\u001f\u{7f} é中😀\"}",
    );
    golden(
        &Request::reload_json("ckpt\\v2.json \"new\""),
        "{\"cmd\": \"reload\", \"path\": \"ckpt\\\\v2.json \\\"new\\\"\"}",
    );
    golden(&Request::metrics_json(None), "{\"cmd\": \"metrics\"}");
    golden(
        &Request::metrics_json(Some("prometheus")),
        "{\"cmd\": \"metrics\", \"format\": \"prometheus\"}",
    );
    golden(&Request::trace_json(16), "{\"cmd\": \"trace\", \"n\": 16}");
}

#[test]
fn checkpoint_compact_layout_with_null_for_non_finite() {
    let mut rng = Rng::seed(0);
    let mut net = Sequential::new(vec![Box::new(Linear::new(2, 2, true, &mut rng))]);
    let mut values = [
        Tensor::from_vec(vec![0.1, -2.5, f32::NAN, 1e-40], &[2, 2]).unwrap(),
        Tensor::from_vec(vec![f32::INFINITY, 3.0], &[2]).unwrap(),
    ]
    .into_iter();
    net.visit_params(&mut |p| p.value = values.next().unwrap());
    let json = Checkpoint::capture(&mut net).to_json();
    golden(&json, "{\"params\":[{\"data\":[0.1,-2.5,null,0.0000000000000000000000000000000000000001],\"shape\":[2,2]},{\"data\":[null,3],\"shape\":[2]}],\"buffers\":[]}");
    // `null` keeps non-finite weights from loading.
    assert!(Checkpoint::from_json(&json).is_err());
}

#[test]
fn run_profile_v1_and_v2() {
    let v2 = RunProfile {
        schema_version: 2,
        label: NASTY.to_string(),
        counters: CounterTotals {
            approx_muls: 100,
            gemm_macs: u64::MAX,
            plan_cache_hits: 3,
            search_cache_misses: 5,
            ..CounterTotals::default()
        },
        spans: vec![SpanRecord {
            name: "fwd:conv3x3 \"a\\b\"".to_string(),
            count: 2,
            total_ms: 1.234_567_89,
        }],
        hists: vec![HistRecord {
            name: "eps:é".to_string(),
            lo: -1024.0,
            hi: 1024.0,
            counts: vec![3, 0, 1],
            underflow: 0,
            overflow: 2,
            count: 6,
            mean: 0.1,
            std: f64::NAN,
            min: f64::NEG_INFINITY,
            max: 1e300,
        }],
        health: vec![RatioRecord {
            name: "sat_x:\t".to_string(),
            hits: 3,
            total: 200,
        }],
        events: vec![EventRecord {
            seq: 0,
            kind: "eps_drift".to_string(),
            label: "trunc5".to_string(),
            value: 2.5,
            detail: NASTY.to_string(),
        }],
    };
    golden(&v2.to_json(), "{\"schema_version\": 2, \"label\": \"q\\\"b\\\\s/\\u0001\\u0008\\n\\r\\t\\u001f\u{7f} é中😀\", \"counters\": {\"approx_muls\": 100, \"lut_bytes\": 0, \"gemm_macs\": 18446744073709551615, \"im2col_bytes\": 0, \"plan_cache_hits\": 3, \"plan_cache_misses\": 0, \"search_evals\": 0, \"search_cache_hits\": 0, \"search_cache_misses\": 5}, \"spans\": [{\"name\": \"fwd:conv3x3 \\\"a\\\\b\\\"\", \"count\": 2, \"total_ms\": 1.234568}], \"hists\": [{\"name\": \"eps:é\", \"lo\": -1024, \"hi\": 1024, \"counts\": [3, 0, 1], \"underflow\": 0, \"overflow\": 2, \"count\": 6, \"mean\": 0.1, \"std\": 0, \"min\": 0, \"max\": 1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000}], \"health\": [{\"name\": \"sat_x:\\t\", \"hits\": 3, \"total\": 200}], \"events\": [{\"seq\": 0, \"kind\": \"eps_drift\", \"label\": \"trunc5\", \"value\": 2.5, \"detail\": \"q\\\"b\\\\s/\\u0001\\u0008\\n\\r\\t\\u001f\u{7f} é中😀\"}]}");
    assert_eq!(v2.to_csv(), "label,kind,name,count,total_ms,value\n\"q\"\"b\\s/\u{1}\u{8}\n\r\t\u{1f}\u{7f} é中😀\",counter,approx_muls,,,100\n\"q\"\"b\\s/\u{1}\u{8}\n\r\t\u{1f}\u{7f} é中😀\",counter,lut_bytes,,,0\n\"q\"\"b\\s/\u{1}\u{8}\n\r\t\u{1f}\u{7f} é中😀\",counter,gemm_macs,,,18446744073709551615\n\"q\"\"b\\s/\u{1}\u{8}\n\r\t\u{1f}\u{7f} é中😀\",counter,im2col_bytes,,,0\n\"q\"\"b\\s/\u{1}\u{8}\n\r\t\u{1f}\u{7f} é中😀\",counter,plan_cache_hits,,,3\n\"q\"\"b\\s/\u{1}\u{8}\n\r\t\u{1f}\u{7f} é中😀\",counter,plan_cache_misses,,,0\n\"q\"\"b\\s/\u{1}\u{8}\n\r\t\u{1f}\u{7f} é中😀\",counter,search_evals,,,0\n\"q\"\"b\\s/\u{1}\u{8}\n\r\t\u{1f}\u{7f} é中😀\",counter,search_cache_hits,,,0\n\"q\"\"b\\s/\u{1}\u{8}\n\r\t\u{1f}\u{7f} é中😀\",counter,search_cache_misses,,,5\n\"q\"\"b\\s/\u{1}\u{8}\n\r\t\u{1f}\u{7f} é中😀\",span,\"fwd:conv3x3 \"\"a\\b\"\"\",2,1.234568,\n\"q\"\"b\\s/\u{1}\u{8}\n\r\t\u{1f}\u{7f} é中😀\",hist,eps:é,6,,0.1\n\"q\"\"b\\s/\u{1}\u{8}\n\r\t\u{1f}\u{7f} é中😀\",health,sat_x:\t,200,,0.015\n\"q\"\"b\\s/\u{1}\u{8}\n\r\t\u{1f}\u{7f} é中😀\",event,eps_drift:trunc5,0,,2.5\n");
    let v1 = RunProfile {
        schema_version: 1,
        label: "old".to_string(),
        counters: CounterTotals::default(),
        spans: vec![],
        hists: vec![],
        health: vec![],
        events: vec![],
    };
    golden(&v1.to_json(), "{\"schema_version\": 1, \"label\": \"old\", \"counters\": {\"approx_muls\": 0, \"lut_bytes\": 0, \"gemm_macs\": 0, \"im2col_bytes\": 0, \"plan_cache_hits\": 0, \"plan_cache_misses\": 0, \"search_evals\": 0, \"search_cache_hits\": 0, \"search_cache_misses\": 0}, \"spans\": [], \"hists\": [], \"health\": [], \"events\": []}");
}

#[test]
fn trace_record() {
    let r = TraceRecord {
        trace_id: 41,
        request_id: 7,
        admitted_ms: 12.5,
        queue_us: 0.1,
        compute_us: f64::NAN,
        batch_id: 3,
        batch_size: 8,
        replica: 1,
        plan_cache_hit: true,
    };
    golden(&r.to_json(), "{\"trace_id\": 41, \"request_id\": 7, \"admitted_ms\": 12.5, \"queue_us\": 0.1, \"compute_us\": 0, \"batch_id\": 3, \"batch_size\": 8, \"replica\": 1, \"plan_cache_hit\": true}");
}

#[test]
fn load_and_sweep_reports() {
    let busy = LoadReport {
        mode: "closed",
        connections: 4,
        offered_rps: 80.0,
        sent: 10,
        ok: 8,
        rejected: 1,
        errors: 1,
        elapsed_s: 0.123_456_789,
        throughput_rps: 64.8,
        reject_rate: 0.1,
        latency: summary(&[100.0, 250.5, 1e6]),
        preprocess: stage(&[90.0, 110.0], 1000.0, 4),
        queue_wait: stage(&[], 2000.0, 2),
        compute: stage(&[f64::INFINITY, 3.0, 1e9], 1e4, 3),
    };
    golden(&busy.to_json(), "{\"mode\": \"closed\", \"connections\": 4, \"offered_rps\": 80, \"sent\": 10, \"ok\": 8, \"rejected\": 1, \"errors\": 1, \"elapsed_s\": 0.123456789, \"throughput_rps\": 64.8, \"reject_rate\": 0.1, \"latency\": {\"count\": 3, \"p50_us\": 250.5, \"p95_us\": 1000000, \"p99_us\": 1000000, \"mean_us\": 333450.1666666667, \"max_us\": 1000000}, \"preprocess\": {\"summary\": {\"count\": 2, \"p50_us\": 90, \"p95_us\": 110, \"p99_us\": 110, \"mean_us\": 100, \"max_us\": 110}, \"hist\": {\"lo\": 0, \"hi\": 1000, \"buckets\": 4, \"counts\": [2, 0, 0, 0], \"underflow\": 0, \"overflow\": 0}}, \"queue_wait\": {\"summary\": {\"count\": 0, \"p50_us\": 0, \"p95_us\": 0, \"p99_us\": 0, \"mean_us\": 0, \"max_us\": 0}, \"hist\": {\"lo\": 0, \"hi\": 2000, \"buckets\": 2, \"counts\": [0, 0], \"underflow\": 0, \"overflow\": 0}}, \"compute\": {\"summary\": {\"count\": 3, \"p50_us\": 1000000000, \"p95_us\": 0, \"p99_us\": 0, \"mean_us\": 0, \"max_us\": 0}, \"hist\": {\"lo\": 0, \"hi\": 10000, \"buckets\": 3, \"counts\": [1, 0, 0], \"underflow\": 0, \"overflow\": 1}}}");
    let idle = LoadReport {
        mode: "open",
        connections: 2,
        offered_rps: 66.0,
        sent: 0,
        ok: 0,
        rejected: 0,
        errors: 0,
        elapsed_s: 0.0,
        throughput_rps: 0.0,
        reject_rate: 0.0,
        latency: summary(&[]),
        preprocess: stage(&[], 1.0, 1),
        queue_wait: stage(&[], 1.0, 1),
        compute: stage(&[], 1.0, 1),
    };
    let sweep = Sweep {
        calibration_rps: 70.25,
        steps: vec![
            Step {
                kept_up: true,
                report: LoadReport {
                    mode: "open",
                    ..busy
                },
            },
            Step {
                kept_up: false,
                report: idle,
            },
        ],
        knee_offered: 80.0,
        knee_achieved: f64::NAN,
    };
    golden(&sweep.to_json(), "{\"calibration_rps\": 70.25, \"knee_offered_rps\": 80, \"knee_throughput_rps\": 0, \"points\": [{\"offered_rps\": 80, \"kept_up\": true, \"report\": {\"mode\": \"open\", \"connections\": 4, \"offered_rps\": 80, \"sent\": 10, \"ok\": 8, \"rejected\": 1, \"errors\": 1, \"elapsed_s\": 0.123456789, \"throughput_rps\": 64.8, \"reject_rate\": 0.1, \"latency\": {\"count\": 3, \"p50_us\": 250.5, \"p95_us\": 1000000, \"p99_us\": 1000000, \"mean_us\": 333450.1666666667, \"max_us\": 1000000}, \"preprocess\": {\"summary\": {\"count\": 2, \"p50_us\": 90, \"p95_us\": 110, \"p99_us\": 110, \"mean_us\": 100, \"max_us\": 110}, \"hist\": {\"lo\": 0, \"hi\": 1000, \"buckets\": 4, \"counts\": [2, 0, 0, 0], \"underflow\": 0, \"overflow\": 0}}, \"queue_wait\": {\"summary\": {\"count\": 0, \"p50_us\": 0, \"p95_us\": 0, \"p99_us\": 0, \"mean_us\": 0, \"max_us\": 0}, \"hist\": {\"lo\": 0, \"hi\": 2000, \"buckets\": 2, \"counts\": [0, 0], \"underflow\": 0, \"overflow\": 0}}, \"compute\": {\"summary\": {\"count\": 3, \"p50_us\": 1000000000, \"p95_us\": 0, \"p99_us\": 0, \"mean_us\": 0, \"max_us\": 0}, \"hist\": {\"lo\": 0, \"hi\": 10000, \"buckets\": 3, \"counts\": [1, 0, 0], \"underflow\": 0, \"overflow\": 1}}}}, {\"offered_rps\": 66, \"kept_up\": false, \"report\": {\"mode\": \"open\", \"connections\": 2, \"offered_rps\": 66, \"sent\": 0, \"ok\": 0, \"rejected\": 0, \"errors\": 0, \"elapsed_s\": 0, \"throughput_rps\": 0, \"reject_rate\": 0, \"latency\": {\"count\": 0, \"p50_us\": 0, \"p95_us\": 0, \"p99_us\": 0, \"mean_us\": 0, \"max_us\": 0}, \"preprocess\": {\"summary\": {\"count\": 0, \"p50_us\": 0, \"p95_us\": 0, \"p99_us\": 0, \"mean_us\": 0, \"max_us\": 0}, \"hist\": {\"lo\": 0, \"hi\": 1, \"buckets\": 1, \"counts\": [0], \"underflow\": 0, \"overflow\": 0}}, \"queue_wait\": {\"summary\": {\"count\": 0, \"p50_us\": 0, \"p95_us\": 0, \"p99_us\": 0, \"mean_us\": 0, \"max_us\": 0}, \"hist\": {\"lo\": 0, \"hi\": 1, \"buckets\": 1, \"counts\": [0], \"underflow\": 0, \"overflow\": 0}}, \"compute\": {\"summary\": {\"count\": 0, \"p50_us\": 0, \"p95_us\": 0, \"p99_us\": 0, \"mean_us\": 0, \"max_us\": 0}, \"hist\": {\"lo\": 0, \"hi\": 1, \"buckets\": 1, \"counts\": [0], \"underflow\": 0, \"overflow\": 0}}}}]}");
}

#[test]
fn stream_report_and_probe() {
    let frame = FrameShape {
        height: 48,
        width: 32,
        channels: 3,
        u8_pixels: true,
    };
    let sweep = Sweep {
        calibration_rps: 0.0,
        steps: vec![Step {
            kept_up: true,
            report: LoadReport {
                mode: "open",
                connections: 2,
                offered_rps: 40.0,
                sent: 60,
                ok: 59,
                rejected: 0,
                errors: 1,
                elapsed_s: 1.5,
                throughput_rps: 39.333_333_333_333_336,
                reject_rate: 0.0,
                latency: summary(&[500.0, 700.0]),
                preprocess: stage(&[90.0, 110.0], 1000.0, 4),
                queue_wait: stage(&[], 2000.0, 2),
                compute: stage(&[1500.0, 1e9], 1e4, 3),
            },
        }],
        knee_offered: 40.0,
        knee_achieved: f64::INFINITY,
    };
    golden(&bench_json(&frame, &sweep), "{\"schema\": \"BENCH_stream.v2\", \"frame\": \"48x32x3 u8\", \"sweep\": {\"calibration_rps\": 0, \"knee_offered_rps\": 40, \"knee_throughput_rps\": 0, \"points\": [{\"offered_rps\": 40, \"kept_up\": true, \"report\": {\"mode\": \"open\", \"connections\": 2, \"offered_rps\": 40, \"sent\": 60, \"ok\": 59, \"rejected\": 0, \"errors\": 1, \"elapsed_s\": 1.5, \"throughput_rps\": 39.333333333333336, \"reject_rate\": 0, \"latency\": {\"count\": 2, \"p50_us\": 500, \"p95_us\": 700, \"p99_us\": 700, \"mean_us\": 600, \"max_us\": 700}, \"preprocess\": {\"summary\": {\"count\": 2, \"p50_us\": 90, \"p95_us\": 110, \"p99_us\": 110, \"mean_us\": 100, \"max_us\": 110}, \"hist\": {\"lo\": 0, \"hi\": 1000, \"buckets\": 4, \"counts\": [2, 0, 0, 0], \"underflow\": 0, \"overflow\": 0}}, \"queue_wait\": {\"summary\": {\"count\": 0, \"p50_us\": 0, \"p95_us\": 0, \"p99_us\": 0, \"mean_us\": 0, \"max_us\": 0}, \"hist\": {\"lo\": 0, \"hi\": 2000, \"buckets\": 2, \"counts\": [0, 0], \"underflow\": 0, \"overflow\": 0}}, \"compute\": {\"summary\": {\"count\": 2, \"p50_us\": 1500, \"p95_us\": 1000000000, \"p99_us\": 1000000000, \"mean_us\": 500000750, \"max_us\": 1000000000}, \"hist\": {\"lo\": 0, \"hi\": 10000, \"buckets\": 3, \"counts\": [1, 0, 0], \"underflow\": 0, \"overflow\": 1}}}}]}}");
    let probe = |bit_identical, max_abs_delta| StreamProbe {
        bit_identical,
        classes: 10,
        max_abs_delta,
        preprocess_us: f64::INFINITY,
    };
    golden(
        &probe(true, 0.0).to_json(),
        "{\"probe\": \"ok\", \"classes\": 10, \"max_abs_delta\": 0, \"preprocess_us\": 0}",
    );
    golden(
        &probe(false, 0.25).to_json(),
        "{\"probe\": \"mismatch\", \"classes\": 10, \"max_abs_delta\": 0.25, \"preprocess_us\": 0}",
    );
}

fn search_report(text: &str, options: bool) -> SearchReport {
    let row = |id: &str, accuracy, energy, feasible| HomogeneousRow {
        id: id.into(),
        accuracy,
        energy,
        feasible,
    };
    let point = ParetoPoint {
        assignment: vec!["trunc5".into(), text.into()],
        accuracy: 0.55,
        energy: 0.75,
    };
    let greedy_best = Score {
        accuracy: 0.55,
        energy: 0.875,
    };
    SearchReport {
        model: format!("LeNet {text}"),
        seed: 7,
        floor: 0.55,
        baseline: Score {
            accuracy: 0.6,
            energy: 1.0,
        },
        layers: vec![(format!("conv1 {text}"), 100), ("fc".into(), 50)],
        pool: vec![("exact".into(), 1.0), ("trunc5".into(), 0.62)],
        strategies: vec![
            StrategyRun {
                name: "greedy",
                best: Some((vec![1, 0], greedy_best)),
            },
            StrategyRun {
                name: "evo",
                best: None,
            },
        ],
        evals: 4,
        cache_hits: 2,
        scored: 4,
        homogeneous: vec![row("exact", 0.6, 1.0, true), row(text, 0.1, 0.62, false)],
        best_homogeneous: options.then(|| row(text, 0.6, 1.0, true)),
        pareto: if options {
            vec![]
        } else {
            vec![point.clone(); 2]
        },
        winner: (!options).then_some(point),
        fine_tuned: options.then(|| FineTunedSummary {
            method: format!("hetero[{text}]:ApproxKD+GE"),
            initial_acc: 0.55,
            final_acc: 0.625,
        }),
    }
}

#[test]
fn search_report_multi_line_layout() {
    // The search report used to escape only quotes and backslashes and to
    // print non-finite numbers as `NaN`/`inf`, so these pinned bytes leave
    // control characters and non-finite values out.
    let text = "q\"b\\é中😀";
    golden(&search_report(text, true).to_json(), "{\n  \"schema\": \"BENCH_search.v1\",\n  \"model\": \"LeNet q\\\"b\\\\é中😀\",\n  \"seed\": 7,\n  \"floor\": 0.55,\n  \"baseline\": {\"accuracy\": 0.6, \"energy\": 1},\n  \"layers\": [{\"label\": \"conv1 q\\\"b\\\\é中😀\", \"macs\": 100}, {\"label\": \"fc\", \"macs\": 50}],\n  \"pool\": [{\"id\": \"exact\", \"cost\": 1}, {\"id\": \"trunc5\", \"cost\": 0.62}],\n  \"strategies\": [\n    {\"name\": \"greedy\", \"best\": {\"assignment_indices\": [1, 0], \"accuracy\": 0.55, \"energy\": 0.875}},\n    {\"name\": \"evo\", \"best\": null}\n  ],\n  \"evals\": 4,\n  \"cache_hits\": 2,\n  \"scored\": 4,\n  \"homogeneous\": [\n    {\"id\": \"exact\", \"accuracy\": 0.6, \"energy\": 1, \"feasible\": true},\n    {\"id\": \"q\\\"b\\\\é中😀\", \"accuracy\": 0.1, \"energy\": 0.62, \"feasible\": false}\n  ],\n  \"best_homogeneous\": {\"id\": \"q\\\"b\\\\é中😀\", \"accuracy\": 0.6, \"energy\": 1},\n  \"pareto\": [\n  ],\n  \"winner\": null,\n  \"fine_tuned\": {\"method\": \"hetero[q\\\"b\\\\é中😀]:ApproxKD+GE\", \"initial_acc\": 0.55, \"final_acc\": 0.625}\n}\n");
    golden(&search_report(text, false).to_json(), "{\n  \"schema\": \"BENCH_search.v1\",\n  \"model\": \"LeNet q\\\"b\\\\é中😀\",\n  \"seed\": 7,\n  \"floor\": 0.55,\n  \"baseline\": {\"accuracy\": 0.6, \"energy\": 1},\n  \"layers\": [{\"label\": \"conv1 q\\\"b\\\\é中😀\", \"macs\": 100}, {\"label\": \"fc\", \"macs\": 50}],\n  \"pool\": [{\"id\": \"exact\", \"cost\": 1}, {\"id\": \"trunc5\", \"cost\": 0.62}],\n  \"strategies\": [\n    {\"name\": \"greedy\", \"best\": {\"assignment_indices\": [1, 0], \"accuracy\": 0.55, \"energy\": 0.875}},\n    {\"name\": \"evo\", \"best\": null}\n  ],\n  \"evals\": 4,\n  \"cache_hits\": 2,\n  \"scored\": 4,\n  \"homogeneous\": [\n    {\"id\": \"exact\", \"accuracy\": 0.6, \"energy\": 1, \"feasible\": true},\n    {\"id\": \"q\\\"b\\\\é中😀\", \"accuracy\": 0.1, \"energy\": 0.62, \"feasible\": false}\n  ],\n  \"best_homogeneous\": null,\n  \"pareto\": [\n    {\"assignment\": [\"trunc5\", \"q\\\"b\\\\é中😀\"], \"accuracy\": 0.55, \"energy\": 0.75},\n    {\"assignment\": [\"trunc5\", \"q\\\"b\\\\é中😀\"], \"accuracy\": 0.55, \"energy\": 0.75}\n  ],\n  \"winner\": {\"assignment\": [\"trunc5\", \"q\\\"b\\\\é中😀\"], \"accuracy\": 0.55, \"energy\": 0.75},\n  \"fine_tuned\": null\n}\n");
}

#[test]
fn search_report_escapes_control_characters() {
    let doc = search_report(NASTY, true).to_json();
    let v = JsonValue::parse(doc.as_bytes()).expect("control characters are escaped");
    let model = v.get("model").and_then(JsonValue::as_str);
    assert_eq!(model, Some(format!("LeNet {NASTY}").as_str()));
}

#[test]
fn diff_report() {
    let counter = |name: &str, baseline, candidate, rel_change, regressed| CounterDiff {
        name: name.to_string(),
        baseline,
        candidate,
        rel_change,
        gated: true,
        regressed,
    };
    let ratio = |name: &str, baseline, candidate, delta, regressed| RatioDiff {
        name: name.to_string(),
        baseline,
        candidate,
        delta,
        regressed,
    };
    let report = DiffReport {
        summary: "not part of the JSON".to_string(),
        regressions: vec![NASTY.to_string(), "approx_muls grew".to_string()],
        baseline_label: NASTY.to_string(),
        candidate_label: "cand".to_string(),
        counters: vec![
            counter("approx_muls", 0, 5, f64::INFINITY, true),
            counter("lut_bytes", 4, 3, -0.25, false),
            counter("gemm_macs", 0, 0, f64::NAN, false),
        ],
        ratios: vec![
            ratio("sat_x:é", None, 0.5, 0.0, false),
            ratio("ge_lin:c1", Some(f64::NEG_INFINITY), 0.1, -0.8, true),
        ],
        drift_events: (1, 2),
    };
    golden(&report.to_json(), "{\"schema_version\": 1, \"baseline\": \"q\\\"b\\\\s/\\u0001\\u0008\\n\\r\\t\\u001f\u{7f} é中😀\", \"candidate\": \"cand\", \"regression\": true, \"counters\": [{\"name\": \"approx_muls\", \"baseline\": 0, \"candidate\": 5, \"rel_change\": null, \"gated\": true, \"regressed\": true}, {\"name\": \"lut_bytes\", \"baseline\": 4, \"candidate\": 3, \"rel_change\": -0.25, \"gated\": true, \"regressed\": false}, {\"name\": \"gemm_macs\", \"baseline\": 0, \"candidate\": 0, \"rel_change\": null, \"gated\": true, \"regressed\": false}], \"ratios\": [{\"name\": \"sat_x:é\", \"baseline\": null, \"candidate\": 0.5, \"delta\": 0, \"regressed\": false}, {\"name\": \"ge_lin:c1\", \"baseline\": 0, \"candidate\": 0.1, \"delta\": -0.8, \"regressed\": true}], \"events\": {\"eps_drift_baseline\": 1, \"eps_drift_candidate\": 2}, \"regressions\": [\"q\\\"b\\\\s/\\u0001\\u0008\\n\\r\\t\\u001f\u{7f} é中😀\", \"approx_muls grew\"]}");
}
