//! End-to-end guarantees of the serving path (`axnn-serve`):
//!
//! 1. **Checkpoint equivalence** — a checkpoint in the `axnn pipeline
//!    --save` file format restored by the server produces bit-identical
//!    logits to the `axnn evaluate` restore recipe on the same inputs.
//! 2. **Batch invariance** — a request's logits are bit-identical whether
//!    it is served alone or inside a micro-batch, at every thread count.
//! 3. **The wire preserves bits** — logits decoded from the TCP protocol
//!    equal the in-process forward bit-for-bit, through overload
//!    rejections and a graceful drain.
//! 4. **Replica invariance** — a served request's logits do not depend on
//!    the server's replica count or on which replica answered, for every
//!    executor family (the replicas × batch × executor matrix).
//! 5. **Observability is passive** — logits are bit-identical with the
//!    metrics plane enabled and disabled, and the trace ring stays bounded
//!    and strictly ordered under concurrent multi-replica load.
//! 6. **Preprocessing is location- and thread-invariant** — the raw-frame
//!    pipeline (decode → resize → layout → normalize) produces bit-identical
//!    results at every worker-thread count, and a raw frame preprocessed by
//!    the server yields the same logits as preprocessing it client-side
//!    with the spec the server publishes.
//!
//! `set_threads` is process-global, so every case body takes [`serial`].

use approxnn::data::SynthCifar;
use approxnn::models::{resnet20, ModelConfig};
use approxnn::nn::{Checkpoint, Layer, Mode};
use approxnn::par;
use approxnn::serve::{
    probe_preprocess_spec, Client, Filter, ModelOptions, PreprocessSpec, QueueConfig, RawFrame,
    Request, ServeExecutor, ServeSpec, ServedModel, Server,
};
use axnn_rng::{cases, Rng};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

const WIDTH: f32 = 0.2;
const HW: usize = 8;
const SEED: u64 = 1;

/// Serializes all case bodies in this binary (see the module docs).
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A checkpoint in the exact shape `axnn pipeline --save` writes: the
/// BN-folded quantized ResNet-20, serialized with the hand-written emitter.
fn pipeline_style_checkpoint_json() -> &'static str {
    static JSON: OnceLock<String> = OnceLock::new();
    JSON.get_or_init(|| {
        let mut cfg = ModelConfig::paper().with_width(WIDTH).with_input_hw(HW);
        cfg.batch_norm = false;
        let mut rng = Rng::seed(3);
        let mut net = resnet20(&cfg, &mut rng);
        Checkpoint::capture(&mut net).to_json()
    })
}

fn serve_opts(executor: ServeExecutor) -> ModelOptions {
    ModelOptions {
        width: WIDTH,
        hw: HW,
        executor,
        seed: SEED,
        calib_samples: 32,
        ..ModelOptions::default()
    }
}

/// Deterministic test images in the evaluate recipe's shape.
fn test_inputs(n: usize) -> Vec<Vec<f32>> {
    let (_, test) = SynthCifar::new(HW).generate(0, n, SEED);
    let len = test.inputs.as_slice().len() / n;
    test.inputs
        .as_slice()
        .chunks(len)
        .map(|c| c.to_vec())
        .collect()
}

/// The served model restores `axnn pipeline --save` output bit-identically
/// to the `axnn evaluate` recipe (satellite of the serving PR: the two
/// consumers of the checkpoint format must agree).
#[test]
fn serve_restores_pipeline_checkpoint_bit_identical_to_evaluate() {
    let _g = serial();
    par::set_threads(1);
    let json = pipeline_style_checkpoint_json();

    // The `axnn evaluate` restore recipe, verbatim.
    let mut cfg = ModelConfig::paper().with_width(WIDTH).with_input_hw(HW);
    cfg.batch_norm = false;
    let mut rng = Rng::seed(SEED ^ 0xdead);
    let mut eval_net = resnet20(&cfg, &mut rng);
    Checkpoint::from_json(json)
        .expect("pipeline-format checkpoint parses")
        .restore(&mut eval_net)
        .expect("architecture matches");

    let mut served = ServedModel::from_checkpoint_json(json, &serve_opts(ServeExecutor::Exact))
        .expect("server loads the same file");

    let inputs = test_inputs(4);
    for (i, input) in inputs.iter().enumerate() {
        let x = approxnn::tensor::Tensor::from_vec(input.clone(), &[1, 3, HW, HW]).unwrap();
        let eval_logits = eval_net.forward(&x, Mode::Eval);
        let served_logits = served.forward_batch(&[input.as_slice()]);
        let a: Vec<u32> = eval_logits.as_slice().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = served_logits[0].iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "sample {i}: serve and evaluate disagree");
    }
    par::set_threads(0);
}

/// One served model per executor family, built once (resnet construction
/// and calibration dominate the test binary's runtime otherwise).
fn shared_model(executor: ServeExecutor) -> &'static Mutex<ServedModel> {
    static EXACT: OnceLock<Mutex<ServedModel>> = OnceLock::new();
    static QUANT: OnceLock<Mutex<ServedModel>> = OnceLock::new();
    static APPROX: OnceLock<Mutex<ServedModel>> = OnceLock::new();
    let cell = match executor {
        ServeExecutor::Exact => &EXACT,
        ServeExecutor::Quant => &QUANT,
        ServeExecutor::Approx => &APPROX,
    };
    cell.get_or_init(|| {
        Mutex::new(
            ServedModel::from_checkpoint_json(
                pipeline_style_checkpoint_json(),
                &serve_opts(executor),
            )
            .expect("checkpoint loads"),
        )
    })
}

/// A request's logits do not depend on its batch mates or on the
/// worker-thread count, for every executor family.
#[test]
fn served_logits_are_batch_and_thread_invariant() {
    cases(12, |mut rng| {
        let batch = rng.gen_range(2usize..6);
        let pick = rng.gen_range(0usize..6);
        let threads = *rng.choose(&[1usize, 2, 4]);
        let executor = *rng.choose(&[
            ServeExecutor::Exact,
            ServeExecutor::Quant,
            ServeExecutor::Approx,
        ]);
        let _g = serial();
        let mut model = shared_model(executor)
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let inputs: Vec<Vec<f32>> = (0..batch)
            .map(|_| {
                approxnn::tensor::init::uniform(&[model.input_len()], -1.0, 1.0, &mut rng)
                    .as_slice()
                    .to_vec()
            })
            .collect();
        let pick = pick % batch;

        par::set_threads(1);
        let alone: Vec<u32> = model.forward_batch(&[inputs[pick].as_slice()])[0]
            .iter()
            .map(|v| v.to_bits())
            .collect();
        par::set_threads(threads);
        let views: Vec<&[f32]> = inputs.iter().map(|v| v.as_slice()).collect();
        let batched: Vec<u32> = model.forward_batch(&views)[pick]
            .iter()
            .map(|v| v.to_bits())
            .collect();
        par::set_threads(0);
        assert_eq!(
            alone, batched,
            "{} sample {}/{} differs alone@1thread vs batched@{}threads",
            executor, pick, batch, threads
        );
    });
}

/// One running server per (executor, replica-count) cell of the matrix,
/// booted on demand and leaked for the binary's lifetime (replica builds
/// plus calibration dominate the runtime otherwise).
fn shared_server(executor: ServeExecutor, replicas: usize) -> &'static Server {
    static CACHE: OnceLock<Mutex<HashMap<(u8, usize), &'static Server>>> = OnceLock::new();
    let key = (
        match executor {
            ServeExecutor::Exact => 0u8,
            ServeExecutor::Quant => 1,
            ServeExecutor::Approx => 2,
        },
        replicas,
    );
    let mut cache = CACHE
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    cache.entry(key).or_insert_with(|| {
        let spec = ServeSpec::from_json(pipeline_style_checkpoint_json(), &serve_opts(executor))
            .expect("spec builds");
        Box::leak(Box::new(
            Server::start(
                &spec,
                "127.0.0.1:0",
                QueueConfig {
                    capacity: 32,
                    max_batch: 3,
                },
                replicas,
            )
            .expect("bind ephemeral port"),
        ))
    })
}

/// The replicas × batch × executor matrix: logits served over TCP by an
/// N-replica server equal the single in-process model bit-for-bit, for
/// every replica count, every concurrent-batch composition, and every
/// executor family — so any replica answering any mix of batch mates is
/// indistinguishable from the reference.
#[test]
fn served_logits_are_replica_invariant() {
    cases(10, |mut rng| {
        let seed = rng.gen_range(0u64..40);
        let batch = rng.gen_range(1usize..5);
        let replicas = *rng.choose(&[1usize, 2, 4]);
        let executor = *rng.choose(&[
            ServeExecutor::Exact,
            ServeExecutor::Quant,
            ServeExecutor::Approx,
        ]);
        let _g = serial();
        par::set_threads(1);
        let server = shared_server(executor, replicas);
        let input_len = server.input_len();
        let inputs: Vec<Vec<f32>> = (0..batch)
            .map(|i| {
                let mut rng = Rng::seed(seed * 131 + i as u64);
                approxnn::tensor::init::uniform(&[input_len], -1.0, 1.0, &mut rng)
                    .as_slice()
                    .to_vec()
            })
            .collect();

        // Concurrent clients so several replica workers pop the shared
        // queue (and cut mixed micro-batches).
        let addr = server.addr();
        let handles: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| {
                let input = input.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client.infer(i as u64, &input).expect("round trip")
                })
            })
            .collect();
        let answers: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();

        let mut model = shared_model(executor)
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        for msg in answers {
            assert_eq!(
                msg.status.as_str(),
                "ok",
                "request {}: {}",
                msg.id,
                msg.detail
            );
            let i = msg.id as usize;
            let wire: Vec<u32> = msg.logits.iter().map(|v| v.to_bits()).collect();
            let local: Vec<u32> = model.forward_batch(&[inputs[i].as_slice()])[0]
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(
                wire, local,
                "{} request {} of {} differs at {} replicas",
                executor, i, batch, replicas
            );
        }
        par::set_threads(0);
    });
}

/// The metrics plane never touches the numerics: the same request
/// served with the plane disabled and then enabled yields bit-identical
/// logits, both equal to the in-process reference.
#[test]
fn served_logits_are_bit_identical_with_metrics_plane_toggled() {
    cases(8, |mut rng| {
        let seed = rng.gen_range(100u64..140);
        let batch = rng.gen_range(1usize..4);
        let replicas = *rng.choose(&[1usize, 2]);
        let executor = *rng.choose(&[
            ServeExecutor::Exact,
            ServeExecutor::Quant,
            ServeExecutor::Approx,
        ]);
        let _g = serial();
        par::set_threads(1);
        let server = shared_server(executor, replicas);
        let input_len = server.input_len();
        let inputs: Vec<Vec<f32>> = (0..batch)
            .map(|i| {
                let mut rng = Rng::seed(seed * 977 + i as u64);
                approxnn::tensor::init::uniform(&[input_len], -1.0, 1.0, &mut rng)
                    .as_slice()
                    .to_vec()
            })
            .collect();
        let addr = server.addr();

        let serve_all = |inputs: &[Vec<f32>]| -> Vec<Vec<u32>> {
            let handles: Vec<_> = inputs
                .iter()
                .enumerate()
                .map(|(i, input)| {
                    let input = input.clone();
                    std::thread::spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        let msg = client.infer(i as u64, &input).expect("round trip");
                        assert_eq!(msg.status, "ok", "request {i}: {}", msg.detail);
                        (msg.id as usize, msg.logits)
                    })
                })
                .collect();
            let mut out = vec![Vec::new(); inputs.len()];
            for h in handles {
                let (i, logits) = h.join().expect("client thread");
                out[i] = logits.iter().map(|v| v.to_bits()).collect();
            }
            out
        };

        server.metrics_plane().set_enabled(false);
        let dark = serve_all(&inputs);
        server.metrics_plane().set_enabled(true);
        let lit = serve_all(&inputs);

        let mut model = shared_model(executor)
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        for (i, input) in inputs.iter().enumerate() {
            let local: Vec<u32> = model.forward_batch(&[input.as_slice()])[0]
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(
                &dark[i], &local,
                "{} request {}: plane-off logits differ from reference",
                executor, i
            );
            assert_eq!(
                &lit[i], &local,
                "{} request {}: plane-on logits differ from reference",
                executor, i
            );
        }
        par::set_threads(0);
    });
}

/// Under concurrent load on a multi-replica server the trace ring stays
/// bounded by its capacity and completion-ordered: every trace id
/// appears at most once, records of one batch are contiguous with
/// strictly increasing (admission-ordered) trace ids, and every record
/// is internally consistent (valid replica, sane batch shape).
#[test]
fn trace_ring_is_bounded_and_ordered_under_concurrent_load() {
    cases(8, |mut rng| {
        let seed = rng.gen_range(200u64..230);
        let clients = rng.gen_range(2usize..7);
        let replicas = *rng.choose(&[2usize, 4]);
        let _g = serial();
        par::set_threads(1);
        let server = shared_server(ServeExecutor::Exact, replicas);
        let input_len = server.input_len();
        let addr = server.addr();
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                let mut rng = Rng::seed(seed * 389 + i as u64);
                let input: Vec<f32> =
                    approxnn::tensor::init::uniform(&[input_len], -1.0, 1.0, &mut rng)
                        .as_slice()
                        .to_vec();
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let msg = client.infer(i as u64, &input).expect("round trip");
                    assert_eq!(msg.status, "ok", "request {i}: {}", msg.detail);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }

        let mut client = Client::connect(addr).expect("connect");
        let body = client
            .trace_tail(approxnn::serve::metrics::TRACE_RING_CAPACITY)
            .expect("trace answers");
        let doc =
            approxnn::obs::json::JsonValue::parse(body.as_bytes()).expect("trace body parses");
        let count = doc.get("count").and_then(|v| v.as_usize()).expect("count");
        let capacity = doc
            .get("capacity")
            .and_then(|v| v.as_usize())
            .expect("capacity");
        assert_eq!(capacity, approxnn::serve::metrics::TRACE_RING_CAPACITY);
        assert!(
            count <= capacity,
            "ring overflowed: {} > {}",
            count,
            capacity
        );
        let traces = doc
            .get("traces")
            .and_then(|v| v.as_array())
            .expect("traces");
        assert_eq!(traces.len(), count);
        assert!(
            count >= clients.min(capacity),
            "expected at least this round's {} records, got {}",
            clients,
            count
        );

        let last_id = doc
            .get("last_trace_id")
            .and_then(|v| v.as_u64())
            .expect("last id");
        let mut seen = std::collections::HashSet::new();
        let mut closed_batches = std::collections::HashSet::new();
        let mut prev_batch = 0u64;
        let mut prev_id_in_batch = 0u64;
        for t in traces {
            let id = t
                .get("trace_id")
                .and_then(|v| v.as_u64())
                .expect("trace_id");
            assert!(
                id >= 1 && id <= last_id,
                "record id {} outside 1..={}",
                id,
                last_id
            );
            assert!(seen.insert(id), "trace id {} recorded twice", id);
            let batch_id = t
                .get("batch_id")
                .and_then(|v| v.as_u64())
                .expect("batch_id");
            if batch_id == prev_batch {
                assert!(
                    id > prev_id_in_batch,
                    "batch {}: trace ids not admission-ordered ({} after {})",
                    batch_id,
                    id,
                    prev_id_in_batch
                );
            } else {
                assert!(
                    closed_batches.insert(prev_batch),
                    "batch {} records are not contiguous in the ring",
                    prev_batch
                );
                assert!(
                    !closed_batches.contains(&batch_id),
                    "batch {} reappeared after being closed",
                    batch_id
                );
                prev_batch = batch_id;
            }
            prev_id_in_batch = id;
            let replica = t
                .get("replica")
                .and_then(|v| v.as_usize())
                .expect("replica");
            assert!(replica < replicas, "replica {} out of range", replica);
            let size = t
                .get("batch_size")
                .and_then(|v| v.as_usize())
                .expect("batch_size");
            assert!(size >= 1, "empty batch recorded");
            let queue = t
                .get("queue_us")
                .and_then(|v| v.as_f64())
                .expect("queue_us");
            let compute = t
                .get("compute_us")
                .and_then(|v| v.as_f64())
                .expect("compute_us");
            assert!(queue >= 0.0 && compute >= 0.0, "negative span recorded");
            assert!(t.get("plan_cache_hit").and_then(|v| v.as_bool()).is_some());
        }
        par::set_threads(0);
    });
}

/// The raw-frame preprocessing pipeline is bit-identical at every
/// worker-thread count, for both pixel dtypes and both filters — the
/// same guarantee the GEMM kernels make, extended to the data plane.
#[test]
fn preprocessing_is_bit_identical_across_thread_counts() {
    cases(12, |mut rng| {
        let seed = rng.gen_range(0u64..200);
        let src_h = rng.gen_range(4usize..25);
        let src_w = rng.gen_range(4usize..25);
        let u8_pixels = rng.gen::<bool>();
        let bilinear = rng.gen::<bool>();
        let threads = *rng.choose(&[2usize, 3, 4]);
        let _g = serial();
        let mut spec = PreprocessSpec::for_input(3, HW);
        spec.filter = if bilinear {
            Filter::Bilinear
        } else {
            Filter::Nearest
        };
        let frame = RawFrame::synthetic(src_h, src_w, 3, u8_pixels, seed);
        par::set_threads(1);
        let reference: Vec<u32> = spec
            .apply(&frame)
            .expect("synthetic frames are well-formed")
            .iter()
            .map(|v| v.to_bits())
            .collect();
        par::set_threads(threads);
        let parallel: Vec<u32> = spec
            .apply(&frame)
            .expect("synthetic frames are well-formed")
            .iter()
            .map(|v| v.to_bits())
            .collect();
        par::set_threads(0);
        assert_eq!(
            reference, parallel,
            "{}x{} u8={} bilinear={} differs at {} threads",
            src_h, src_w, u8_pixels, bilinear, threads
        );
    });
}

/// Client-side and server-side preprocessing are the same computation:
/// a raw frame sent to a running server yields bit-identical logits to
/// preprocessing it locally (with the spec the server publishes over
/// `info`) and sending the tensor — at every replica count, thread
/// count, and executor family.
#[test]
fn raw_frames_preprocess_identically_client_and_server_side() {
    cases(8, |mut rng| {
        let seed = rng.gen_range(300u64..340);
        let src_h = rng.gen_range(4usize..20);
        let src_w = rng.gen_range(4usize..20);
        let u8_pixels = rng.gen::<bool>();
        let replicas = *rng.choose(&[1usize, 2]);
        let threads = *rng.choose(&[1usize, 2]);
        let executor = *rng.choose(&[
            ServeExecutor::Exact,
            ServeExecutor::Quant,
            ServeExecutor::Approx,
        ]);
        let _g = serial();
        par::set_threads(threads);
        let server = shared_server(executor, replicas);
        let addr = server.addr();
        let spec = probe_preprocess_spec(addr).expect("info publishes the spec");
        assert_eq!(spec.input_len(), server.input_len());
        let frame = RawFrame::synthetic(src_h, src_w, 3, u8_pixels, seed);
        let local = spec
            .apply(&frame)
            .expect("synthetic frames are well-formed");
        let mut client = Client::connect(addr).expect("connect");
        let raw = client.infer_raw(seed, &frame).expect("raw round trip");
        assert_eq!(raw.status.as_str(), "ok", "raw frame: {}", raw.detail);
        let tensor = client.infer(seed + 1, &local).expect("tensor round trip");
        assert_eq!(tensor.status.as_str(), "ok", "tensor: {}", tensor.detail);
        assert!(
            raw.preprocess_us > 0.0,
            "raw path must report preprocess time"
        );
        assert_eq!(tensor.preprocess_us, 0.0);
        let a: Vec<u32> = raw.logits.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = tensor.logits.iter().map(|v| v.to_bits()).collect();
        par::set_threads(0);
        assert_eq!(
            a, b,
            "{}x{} u8={} logits differ server-side vs client-side at {} replicas / {} threads",
            src_h, src_w, u8_pixels, replicas, threads
        );
    });
}

/// Logits served over TCP equal the in-process forward bit-for-bit, the
/// overloaded server rejects rather than queues, and a drained server
/// refuses new work while answering its backlog.
#[test]
fn wire_protocol_preserves_logit_bits_through_overload_and_drain() {
    let _g = serial();
    par::set_threads(1);
    let json = pipeline_style_checkpoint_json();
    let opts = serve_opts(ServeExecutor::Approx);
    let spec = ServeSpec::from_json(json, &opts).expect("spec builds");
    let mut direct = spec.build().expect("loads");
    let input_len = direct.input_len();
    let mut server = Server::start(
        &spec,
        "127.0.0.1:0",
        QueueConfig {
            capacity: 8,
            max_batch: 4,
        },
        1,
    )
    .expect("bind ephemeral port");

    let inputs = test_inputs(3);
    let mut client = Client::connect(server.addr()).expect("connect");
    for (i, input) in inputs.iter().enumerate() {
        assert_eq!(input.len(), input_len);
        let msg = client.infer(i as u64, input).expect("round trip");
        assert_eq!(msg.status, "ok", "request {i}: {}", msg.detail);
        let wire: Vec<u32> = msg.logits.iter().map(|v| v.to_bits()).collect();
        let local: Vec<u32> = direct.forward_batch(&[input.as_slice()])[0]
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(wire, local, "request {i}: logits changed on the wire");
    }

    // Shutdown acknowledges with "draining"; afterwards new inference is
    // refused with the draining rejection, not silently dropped.
    let ack = client.command("shutdown").expect("shutdown ack");
    assert_eq!(ack.status, "draining");
    let refused = client.infer(99, &inputs[0]).expect("reply still framed");
    assert_eq!(refused.status, "draining");
    drop(client);
    server.join();
    par::set_threads(0);

    // A parse error is reported per-request without poisoning the session.
    let bad = Request::parse(b"{\"id\": 1, \"input\": [\"x\"]}");
    assert!(bad.is_err(), "non-numeric input must not parse");
}
