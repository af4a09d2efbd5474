//! The wire protocol: length-prefixed JSON frames.
//!
//! Every message — request or response — is one JSON object preceded by its
//! byte length as a big-endian `u32`. Length prefixing keeps framing trivial
//! for both sides (no streaming JSON parser needed) and lets a reader
//! reject oversized frames before allocating.
//!
//! Both directions use the workspace's dependency-free JSON: messages are
//! written and parsed with [`axnn_obs::json`], so the bytes on the wire
//! never depend on an environment-provided serializer and the protocol
//! stays available in fully offline builds.
//!
//! ## Request forms
//!
//! ```json
//! {"id": 7, "input": [0.25, -1.0, ...]}   // inference (pre-shaped tensor)
//! {"id": 7, "raw_frame": {"height": 32, "width": 48, "channels": 3,
//!  "dtype": "u8", "data": [0, 255, ...]}}  // inference (server preprocesses)
//! {"cmd": "ping"}                          // liveness probe
//! {"cmd": "shutdown"}                      // begin graceful drain
//! {"cmd": "reload", "path": "ckpt.json"}   // hot-swap checkpoint
//! {"cmd": "metrics"}                       // live metrics snapshot (JSON)
//! {"cmd": "trace", "n": 16}                // last n request trace records
//! ```
//!
//! `metrics` and `trace` are read-only: they are answered before admission
//! control, so they keep working on a draining server.
//!
//! A `raw_frame` request carries an arbitrary `H×W×C` image in
//! interleaved (HWC) pixel order, either as `u8` bytes (0..=255, decoded
//! to `b / 255.0`) or as `f32` values. The server resizes, re-lays-out,
//! and normalizes it with the model's [`PreprocessSpec`] — the *same*
//! kernels a client would run — so server-side preprocessing is
//! bit-identical to client-side. A request must carry `input` *or*
//! `raw_frame`, never both.
//!
//! ## Response forms
//!
//! ```json
//! {"id": 7, "status": "ok", "logits": [...], "queue_us": 812.4,
//!  "compute_us": 5031.0, "preprocess_us": 0, "batch": 4}
//! {"id": 7, "status": "overloaded"}        // admission control rejection
//! {"id": 7, "status": "draining"}          // arrived after shutdown
//! {"id": 7, "status": "error", "detail": "input length 12 != 192"}
//! {"status": "pong"}                       // answer to ping
//! {"status": "draining"}                   // answer to shutdown
//! {"status": "reloaded", "generation": 2, "replicas": 4,
//!  "max_abs_delta": 0.02, "mean_abs_delta": 0.003}   // hot-swap done
//! ```
//!
//! `logits` are f32 values printed with Rust's shortest round-trip
//! formatting, so a conforming JSON parser recovers them bit-identically —
//! the batch-invariance guarantee survives the wire.

use axnn_data::resize::{Filter, FrameData, PreprocessSpec, RawFrame};
use axnn_obs::json::{join, num, string, JsonValue};
use std::io::{self, Read, Write};

/// Upper bound on one frame's payload; a corrupt or hostile length prefix
/// must not cause a multi-gigabyte allocation.
pub const MAX_FRAME_LEN: usize = 1 << 24;

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame. Returns `Ok(None)` only on a clean EOF
/// at a frame boundary (the peer closed the connection between messages);
/// an EOF *inside* the 4-byte length prefix is a truncated frame and fails
/// with `InvalidData`. `read_exact` cannot make that distinction — its
/// `UnexpectedEof` looks the same after 0 or 3 bytes — so the prefix is
/// read manually and the byte count tracked.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < len_buf.len() {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("connection closed mid-prefix ({filled} of 4 length bytes)"),
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// A parsed client message: either an inference request (`input`) or a
/// control command (`cmd`).
#[derive(Debug, Clone, Default)]
pub struct Request {
    /// Client-chosen correlation id, echoed back in the response.
    pub id: u64,
    /// Flattened `C*H*W` input image; empty for control messages.
    pub input: Vec<f32>,
    /// Raw `H×W×C` frame for server-side preprocessing; mutually
    /// exclusive with `input`.
    pub raw_frame: Option<RawFrame>,
    /// Control command (`"ping"`, `"info"`, `"shutdown"`, `"reload"`,
    /// `"metrics"`, `"trace"`), if any.
    pub cmd: Option<String>,
    /// Server-side checkpoint path for `{"cmd": "reload"}`.
    pub path: Option<String>,
    /// Record count for `{"cmd": "trace"}` (server default when absent).
    pub n: Option<usize>,
    /// Output format for `{"cmd": "metrics"}`: only `"json"`, the default,
    /// is served.
    pub format: Option<String>,
}

impl Request {
    /// Parses a request frame. Every field is optional; unknown fields are
    /// ignored so the protocol can grow without breaking old servers.
    pub fn parse(payload: &[u8]) -> Result<Request, String> {
        let doc = JsonValue::parse(payload).map_err(|e| format!("malformed request: {e}"))?;
        if !matches!(doc, JsonValue::Obj(_)) {
            return Err("malformed request: not a JSON object".to_string());
        }
        let id = match doc.get("id") {
            None => 0,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| "malformed request: 'id' is not a u64".to_string())?,
        };
        let input = match doc.get("input") {
            None => Vec::new(),
            Some(v) => v
                .f32_array()
                .ok_or_else(|| "malformed request: 'input' is not a number array".to_string())?,
        };
        if input.iter().any(|v| !v.is_finite()) {
            return Err("malformed request: 'input' holds a non-finite value".to_string());
        }
        let raw_frame = match doc.get("raw_frame") {
            None | Some(JsonValue::Null) => None,
            Some(v) => Some(parse_raw_frame(v)?),
        };
        let cmd = match doc.get("cmd") {
            None | Some(JsonValue::Null) => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| "malformed request: 'cmd' is not a string".to_string())?
                    .to_string(),
            ),
        };
        let path = match doc.get("path") {
            None | Some(JsonValue::Null) => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| "malformed request: 'path' is not a string".to_string())?
                    .to_string(),
            ),
        };
        let n = match doc.get("n") {
            None | Some(JsonValue::Null) => None,
            Some(v) => Some(
                v.as_usize()
                    .ok_or_else(|| "malformed request: 'n' is not a usize".to_string())?,
            ),
        };
        let format = match doc.get("format") {
            None | Some(JsonValue::Null) => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| "malformed request: 'format' is not a string".to_string())?
                    .to_string(),
            ),
        };
        Ok(Request {
            id,
            input,
            raw_frame,
            cmd,
            path,
            n,
            format,
        })
    }

    /// Serializes an inference request (client side, hand-written emitter).
    pub fn inference_json(id: u64, input: &[f32]) -> String {
        let input = join(input.iter().map(|&v| num(v)), ", ");
        format!("{{\"id\": {id}, \"input\": [{input}]}}")
    }

    /// Serializes a raw-frame inference request (client side): the frame
    /// travels in `H×W×C` pixel order with its dtype tag, and the server
    /// runs the model's preprocessing pipeline on it.
    pub fn raw_frame_json(id: u64, frame: &RawFrame) -> String {
        let data = match &frame.data {
            FrameData::U8(bytes) => join(bytes, ", "),
            FrameData::F32(vals) => join(vals.iter().map(|&v| num(v)), ", "),
        };
        format!(
            "{{\"id\": {id}, \"raw_frame\": {{\"height\": {}, \"width\": {}, \
             \"channels\": {}, \"dtype\": \"{}\", \"data\": [{data}]}}}}",
            frame.height,
            frame.width,
            frame.channels,
            frame.data.dtype(),
        )
    }

    /// Serializes a control command (client side).
    pub fn command_json(cmd: &str) -> String {
        format!("{{\"cmd\": {}}}", string(cmd))
    }

    /// Serializes a hot-swap request for a server-side checkpoint path.
    pub fn reload_json(path: &str) -> String {
        format!("{{\"cmd\": \"reload\", \"path\": {}}}", string(path))
    }

    /// Serializes a metrics-snapshot request. `format` of `None` or
    /// `Some("json")` asks for the JSON snapshot.
    pub fn metrics_json(format: Option<&str>) -> String {
        match format {
            None => "{\"cmd\": \"metrics\"}".to_string(),
            Some(f) => format!("{{\"cmd\": \"metrics\", \"format\": {}}}", string(f)),
        }
    }

    /// Serializes a trace-tail request for the last `n` records.
    pub fn trace_json(n: usize) -> String {
        format!("{{\"cmd\": \"trace\", \"n\": {n}}}")
    }
}

/// Parses the `"raw_frame"` request member: `height`/`width`/`channels`
/// dimensions, a `dtype` tag (`"u8"` or `"f32"`, default `"f32"`), and the
/// interleaved pixel `data` array. Dimension/length consistency is left to
/// [`RawFrame::validate`] on the serving path so the error carries the
/// request id.
fn parse_raw_frame(v: &JsonValue) -> Result<RawFrame, String> {
    if !matches!(v, JsonValue::Obj(_)) {
        return Err("malformed request: 'raw_frame' is not an object".to_string());
    }
    let dim = |key: &str| {
        v.get(key)
            .and_then(JsonValue::as_usize)
            .ok_or_else(|| format!("malformed request: 'raw_frame.{key}' is not a usize"))
    };
    let (height, width, channels) = (dim("height")?, dim("width")?, dim("channels")?);
    let dtype = match v.get("dtype") {
        None | Some(JsonValue::Null) => "f32",
        Some(t) => t
            .as_str()
            .ok_or_else(|| "malformed request: 'raw_frame.dtype' is not a string".to_string())?,
    };
    let data = v
        .get("data")
        .ok_or_else(|| "malformed request: 'raw_frame.data' is missing".to_string())?;
    let data = match dtype {
        "u8" => {
            let arr = data
                .as_array()
                .ok_or_else(|| "malformed request: 'raw_frame.data' is not an array".to_string())?;
            let mut bytes = Vec::with_capacity(arr.len());
            for e in arr {
                let b = e.as_u64().filter(|&b| b <= 255).ok_or_else(|| {
                    "malformed request: u8 'raw_frame.data' holds a non-byte value".to_string()
                })?;
                bytes.push(b as u8);
            }
            FrameData::U8(bytes)
        }
        "f32" => FrameData::F32(data.f32_array().ok_or_else(|| {
            "malformed request: 'raw_frame.data' is not a number array".to_string()
        })?),
        other => {
            return Err(format!(
                "malformed request: 'raw_frame.dtype' must be 'u8' or 'f32', got '{other}'"
            ))
        }
    };
    Ok(RawFrame {
        height,
        width,
        channels,
        data,
    })
}

/// A server reply, emitted with the hand-written JSON style.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Inference completed; carries the logits and the latency split.
    Ok {
        /// Echoed request id.
        id: u64,
        /// One logit per class.
        logits: Vec<f32>,
        /// Time spent queued before the batch started, microseconds.
        queue_us: f64,
        /// Wall-clock of the batch forward pass, microseconds.
        compute_us: f64,
        /// Server-side preprocessing time for `raw_frame` requests,
        /// microseconds (0 for pre-shaped tensor requests).
        preprocess_us: f64,
        /// Size of the micro-batch this request rode in.
        batch: usize,
    },
    /// Rejected by admission control (`"overloaded"`) or because the server
    /// is draining (`"draining"`).
    Rejected {
        /// Echoed request id.
        id: u64,
        /// Rejection reason: `overloaded` or `draining`.
        reason: &'static str,
    },
    /// Malformed request.
    Error {
        /// Echoed request id.
        id: u64,
        /// Human-readable cause.
        detail: String,
    },
    /// Reply to a control command (`pong`, `draining`).
    Control {
        /// Status word.
        status: &'static str,
    },
    /// Reply to `{"cmd": "info"}`: the served model's shape, so clients
    /// need not guess the input length.
    Info {
        /// Flattened input length one request must carry.
        input_len: usize,
        /// Logits per response.
        classes: usize,
        /// The preprocessing the server applies to `raw_frame` requests —
        /// published so clients can run the identical pipeline locally.
        preprocess: PreprocessSpec,
    },
    /// Reply to `{"cmd": "reload"}`: the new checkpoint was canary-checked
    /// and staged into every replica.
    Reloaded {
        /// Swap generation now current (increments once per reload).
        generation: u64,
        /// Number of replica workers that received the new model.
        replicas: usize,
        /// Largest |Δlogit| between the old and new model on the canary
        /// input — the health headline of the swap.
        max_abs_delta: f64,
        /// Mean |Δlogit| on the canary input.
        mean_abs_delta: f64,
    },
    /// Reply to `{"cmd": "metrics"}` / `{"cmd": "trace"}`: a pre-rendered
    /// JSON object (the metrics plane emits its own snapshot with a
    /// schema-versioned fixed key order, including a leading `"status"`
    /// member), passed through verbatim rather than re-encoded.
    Snapshot {
        /// Complete JSON object, emitted as-is.
        json: String,
    },
}

impl Response {
    /// One-line JSON object (hand-written emitter, fixed key order).
    pub fn to_json(&self) -> String {
        match self {
            Response::Ok {
                id,
                logits,
                queue_us,
                compute_us,
                preprocess_us,
                batch,
            } => {
                format!(
                    "{{\"id\": {id}, \"status\": \"ok\", \"logits\": [{}], \
                     \"queue_us\": {}, \"compute_us\": {}, \"preprocess_us\": {}, \
                     \"batch\": {batch}}}",
                    join(logits.iter().map(|&v| num(v)), ", "),
                    num(*queue_us),
                    num(*compute_us),
                    num(*preprocess_us),
                )
            }
            Response::Rejected { id, reason } => {
                format!("{{\"id\": {id}, \"status\": \"{reason}\"}}")
            }
            Response::Error { id, detail } => format!(
                "{{\"id\": {id}, \"status\": \"error\", \"detail\": {}}}",
                string(detail)
            ),
            Response::Control { status } => format!("{{\"status\": \"{status}\"}}"),
            Response::Info {
                input_len,
                classes,
                preprocess,
            } => format!(
                "{{\"status\": \"info\", \"input_len\": {input_len}, \
                 \"classes\": {classes}, \"preprocess\": {}}}",
                preprocess_spec_json(preprocess),
            ),
            Response::Reloaded {
                generation,
                replicas,
                max_abs_delta,
                mean_abs_delta,
            } => format!(
                "{{\"status\": \"reloaded\", \"generation\": {generation}, \
                 \"replicas\": {replicas}, \"max_abs_delta\": {}, \
                 \"mean_abs_delta\": {}}}",
                num(*max_abs_delta),
                num(*mean_abs_delta),
            ),
            Response::Snapshot { json } => json.clone(),
        }
    }
}

/// Emits a [`PreprocessSpec`] as a JSON object with fixed key order. The
/// `mean`/`std` arrays use the shortest-round-trip f32 formatting, so a
/// client that parses this spec normalizes with bit-identical constants.
pub(crate) fn preprocess_spec_json(spec: &PreprocessSpec) -> String {
    format!(
        "{{\"channels\": {}, \"height\": {}, \"width\": {}, \"mean\": [{}], \
         \"std\": [{}], \"filter\": \"{}\"}}",
        spec.channels,
        spec.height,
        spec.width,
        join(spec.mean.iter().map(|&v| num(v)), ", "),
        join(spec.std.iter().map(|&v| num(v)), ", "),
        spec.filter.name(),
    )
}

/// Parses a `"preprocess"` object back into a [`PreprocessSpec`]; `None`
/// when any member is missing or malformed (e.g. a pre-raw-frame server).
fn parse_preprocess_spec(v: &JsonValue) -> Option<PreprocessSpec> {
    let dim = |key: &str| v.get(key).and_then(JsonValue::as_usize);
    Some(PreprocessSpec {
        channels: dim("channels")?,
        height: dim("height")?,
        width: dim("width")?,
        mean: v.get("mean")?.f32_array()?,
        std: v.get("std")?.f32_array()?,
        filter: Filter::parse(v.get("filter")?.as_str()?).ok()?,
    })
}

/// A parsed server reply (client side). Absent fields keep their `Default`
/// value, mirroring the optional-field request semantics.
#[derive(Debug, Clone, Default)]
pub struct ResponseMsg {
    /// Echoed request id (0 for control replies).
    pub id: u64,
    /// `ok`, `overloaded`, `draining`, `error`, `pong`, `info`.
    pub status: String,
    /// Logits (present when `status == "ok"`).
    pub logits: Vec<f32>,
    /// Queue-wait microseconds (present when `status == "ok"`).
    pub queue_us: f64,
    /// Compute microseconds (present when `status == "ok"`).
    pub compute_us: f64,
    /// Server-side preprocessing microseconds (present when
    /// `status == "ok"`; 0 for pre-shaped tensor requests).
    pub preprocess_us: f64,
    /// Micro-batch size (present when `status == "ok"`).
    pub batch: u64,
    /// Error detail (present when `status == "error"`).
    pub detail: String,
    /// Served input length (present when `status == "info"`).
    pub input_len: u64,
    /// Served class count (present when `status == "info"`).
    pub classes: u64,
    /// Server-side preprocessing spec (present when `status == "info"` on
    /// raw-frame-capable servers).
    pub preprocess: Option<PreprocessSpec>,
    /// Swap generation (present when `status == "reloaded"`).
    pub generation: u64,
    /// Replica count that got the swap (present when `status == "reloaded"`).
    pub replicas: u64,
    /// Canary max |Δlogit| (present when `status == "reloaded"`).
    pub max_abs_delta: f64,
    /// Canary mean |Δlogit| (present when `status == "reloaded"`).
    pub mean_abs_delta: f64,
}

impl ResponseMsg {
    /// Parses a response frame.
    pub fn parse(payload: &[u8]) -> Result<ResponseMsg, String> {
        let doc = JsonValue::parse(payload).map_err(|e| format!("malformed response: {e}"))?;
        if !matches!(doc, JsonValue::Obj(_)) {
            return Err("malformed response: not a JSON object".to_string());
        }
        let logits = match doc.get("logits") {
            Some(v) => v
                .f32_array()
                .ok_or_else(|| "malformed response: 'logits' is not a number array".to_string())?,
            None => Vec::new(),
        };
        let str_field = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let u64_field = |key: &str| doc.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        let f64_field = |key: &str| doc.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
        Ok(ResponseMsg {
            id: u64_field("id"),
            status: str_field("status"),
            logits,
            queue_us: f64_field("queue_us"),
            compute_us: f64_field("compute_us"),
            preprocess_us: f64_field("preprocess_us"),
            batch: u64_field("batch"),
            detail: str_field("detail"),
            input_len: u64_field("input_len"),
            classes: u64_field("classes"),
            preprocess: doc.get("preprocess").and_then(parse_preprocess_spec),
            generation: u64_field("generation"),
            replicas: u64_field("replicas"),
            max_abs_delta: f64_field("max_abs_delta"),
            mean_abs_delta: f64_field("mean_abs_delta"),
        })
    }

    /// The one-line verdict `axnn loadgen --reload` prints for a reply to
    /// `{"cmd": "reload"}`, `detail` included verbatim.
    pub fn reload_verdict_json(&self) -> String {
        format!(
            "{{\"status\": {}, \"generation\": {}, \"replicas\": {}, \
             \"max_abs_delta\": {}, \"mean_abs_delta\": {}, \"detail\": {}}}",
            string(&self.status),
            self.generation,
            self.replicas,
            num(self.max_abs_delta),
            num(self.mean_abs_delta),
            string(&self.detail),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_frame_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_be_bytes());
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_is_an_error_not_eof() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_be_bytes());
        buf.extend_from_slice(b"abc"); // 3 of 8 promised bytes
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn partial_length_prefix_is_an_error_not_a_clean_close() {
        // Regression: EOF after 1–3 prefix bytes used to be reported as
        // Ok(None), indistinguishable from a clean close.
        for cut in 1..4usize {
            let buf = 8u32.to_be_bytes()[..cut].to_vec();
            let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
            assert!(
                err.to_string().contains(&format!("{cut} of 4")),
                "detail names the byte count: {err}"
            );
        }
        // Zero prefix bytes is still the clean close.
        assert!(read_frame(&mut Cursor::new(Vec::new())).unwrap().is_none());
    }

    /// A reader that hands out the prefix one byte per call — the framing
    /// must tolerate short reads, not just short frames.
    struct OneByte(Cursor<Vec<u8>>);
    impl Read for OneByte {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(1);
            self.0.read(&mut buf[..n])
        }
    }

    #[test]
    fn prefix_assembles_across_short_reads() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"xyz").unwrap();
        let mut r = OneByte(Cursor::new(buf));
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"xyz");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn frames_round_trip_at_the_max_len_boundary() {
        // Exactly MAX_FRAME_LEN is the largest legal payload...
        let payload = vec![0x5au8; MAX_FRAME_LEN];
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let got = read_frame(&mut Cursor::new(buf)).unwrap().unwrap();
        assert_eq!(got.len(), MAX_FRAME_LEN);
        assert_eq!(got, payload);
        // ...and one byte more is rejected before any payload allocation.
        let mut over = Vec::new();
        over.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_be_bytes());
        let err = read_frame(&mut Cursor::new(over)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn request_json_round_trips_f32_bits() {
        let input = vec![0.1f32, -2.5, 1.0e-7, 3.4e38, 0.0];
        let json = Request::inference_json(42, &input);
        let req = Request::parse(json.as_bytes()).unwrap();
        assert_eq!(req.id, 42);
        assert!(req.cmd.is_none());
        let bits: Vec<u32> = req.input.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = input.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, want);
    }

    #[test]
    fn command_json_parses_as_control() {
        let req = Request::parse(Request::command_json("shutdown").as_bytes()).unwrap();
        assert_eq!(req.cmd.as_deref(), Some("shutdown"));
        assert!(req.input.is_empty());
    }

    #[test]
    fn ok_response_round_trips_logits_bitwise() {
        let resp = Response::Ok {
            id: 7,
            logits: vec![1.25, -0.75, 3.0e-5],
            queue_us: 812.5,
            compute_us: 5031.25,
            preprocess_us: 41.75,
            batch: 4,
        };
        let msg = ResponseMsg::parse(resp.to_json().as_bytes()).unwrap();
        assert_eq!(msg.id, 7);
        assert_eq!(msg.status, "ok");
        assert_eq!(msg.batch, 4);
        assert_eq!(msg.queue_us, 812.5);
        assert_eq!(msg.preprocess_us, 41.75);
        let bits: Vec<u32> = msg.logits.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            bits,
            vec![1.25f32.to_bits(), (-0.75f32).to_bits(), 3.0e-5f32.to_bits()]
        );
    }

    #[test]
    fn rejection_and_error_responses_parse() {
        let rej = Response::Rejected {
            id: 3,
            reason: "overloaded",
        };
        let msg = ResponseMsg::parse(rej.to_json().as_bytes()).unwrap();
        assert_eq!((msg.id, msg.status.as_str()), (3, "overloaded"));
        let err = Response::Error {
            id: 9,
            detail: "input length 12 != 192".to_string(),
        };
        let msg = ResponseMsg::parse(err.to_json().as_bytes()).unwrap();
        assert_eq!(msg.status, "error");
        assert!(msg.detail.contains("192"));
    }

    #[test]
    fn reload_request_and_response_round_trip() {
        let req =
            Request::parse(Request::reload_json("results/ckpt \"v2\".json").as_bytes()).unwrap();
        assert_eq!(req.cmd.as_deref(), Some("reload"));
        assert_eq!(req.path.as_deref(), Some("results/ckpt \"v2\".json"));
        let resp = Response::Reloaded {
            generation: 3,
            replicas: 4,
            max_abs_delta: 0.125,
            mean_abs_delta: 0.0625,
        };
        let msg = ResponseMsg::parse(resp.to_json().as_bytes()).unwrap();
        assert_eq!(msg.status, "reloaded");
        assert_eq!((msg.generation, msg.replicas), (3, 4));
        assert_eq!((msg.max_abs_delta, msg.mean_abs_delta), (0.125, 0.0625));
    }

    #[test]
    fn metrics_and_trace_requests_round_trip() {
        let req = Request::parse(Request::metrics_json(None).as_bytes()).unwrap();
        assert_eq!(req.cmd.as_deref(), Some("metrics"));
        assert!(req.format.is_none());
        let req = Request::parse(Request::metrics_json(Some("json")).as_bytes()).unwrap();
        assert_eq!(req.cmd.as_deref(), Some("metrics"));
        assert_eq!(req.format.as_deref(), Some("json"));
        let req = Request::parse(Request::trace_json(16).as_bytes()).unwrap();
        assert_eq!(req.cmd.as_deref(), Some("trace"));
        assert_eq!(req.n, Some(16));
        // Like every other field, absent n/format keep their defaults.
        let req = Request::parse(b"{\"cmd\": \"trace\"}").unwrap();
        assert!(req.n.is_none());
    }

    #[test]
    fn snapshot_response_passes_through_verbatim() {
        let json = "{\"status\": \"metrics\", \"schema_version\": 1, \"window\": {}}";
        let resp = Response::Snapshot {
            json: json.to_string(),
        };
        assert_eq!(resp.to_json(), json);
        let msg = ResponseMsg::parse(resp.to_json().as_bytes()).unwrap();
        assert_eq!(msg.status, "metrics");
    }

    #[test]
    fn info_response_parses_with_its_preprocess_spec() {
        let mut spec = PreprocessSpec::for_input(3, 8);
        spec.mean = vec![0.5, 0.25, 0.125];
        spec.std = vec![0.5, 0.5, 0.25];
        spec.filter = Filter::Nearest;
        let info = Response::Info {
            input_len: 192,
            classes: 10,
            preprocess: spec.clone(),
        };
        let msg = ResponseMsg::parse(info.to_json().as_bytes()).unwrap();
        assert_eq!(msg.status, "info");
        assert_eq!((msg.input_len, msg.classes), (192, 10));
        assert_eq!(msg.preprocess.as_ref(), Some(&spec));
        // A pre-raw-frame server omits the spec; the client sees None.
        let msg = ResponseMsg::parse(b"{\"status\": \"info\", \"input_len\": 192}").unwrap();
        assert!(msg.preprocess.is_none());
    }

    #[test]
    fn raw_frame_requests_round_trip_both_dtypes() {
        let u8_frame = RawFrame {
            height: 2,
            width: 3,
            channels: 1,
            data: FrameData::U8(vec![0, 17, 255, 1, 128, 64]),
        };
        let req = Request::parse(Request::raw_frame_json(9, &u8_frame).as_bytes()).unwrap();
        assert_eq!(req.id, 9);
        assert!(req.input.is_empty() && req.cmd.is_none());
        assert_eq!(req.raw_frame.as_ref(), Some(&u8_frame));

        let f32_frame = RawFrame {
            height: 1,
            width: 2,
            channels: 2,
            data: FrameData::F32(vec![0.1, -2.5, 1.0e-7, 3.4e38]),
        };
        let req = Request::parse(Request::raw_frame_json(10, &f32_frame).as_bytes()).unwrap();
        match &req.raw_frame.as_ref().unwrap().data {
            FrameData::F32(vals) => {
                let bits: Vec<u32> = vals.iter().map(|v| v.to_bits()).collect();
                let want = [0.1f32, -2.5, 1.0e-7, 3.4e38].map(f32::to_bits);
                assert_eq!(bits, want, "f32 payloads survive the wire bitwise");
            }
            other => panic!("expected f32 data, got {other:?}"),
        }
    }

    #[test]
    fn malformed_raw_frames_are_rejected_with_clear_errors() {
        let cases: [(&str, &str); 4] = [
            ("{\"raw_frame\": 3}", "not an object"),
            (
                "{\"raw_frame\": {\"width\": 2, \"channels\": 1, \"data\": []}}",
                "raw_frame.height",
            ),
            (
                "{\"raw_frame\": {\"height\": 1, \"width\": 1, \"channels\": 1, \
                 \"dtype\": \"u8\", \"data\": [256]}}",
                "non-byte",
            ),
            (
                "{\"raw_frame\": {\"height\": 1, \"width\": 1, \"channels\": 1, \
                 \"dtype\": \"u16\", \"data\": [1]}}",
                "'u8' or 'f32'",
            ),
        ];
        for (json, want) in cases {
            let err = Request::parse(json.as_bytes()).unwrap_err();
            assert!(err.contains(want), "{json} -> {err}");
        }
        // dtype defaults to f32 when absent.
        let req = Request::parse(
            b"{\"raw_frame\": {\"height\": 1, \"width\": 1, \"channels\": 1, \"data\": [0.5]}}",
        )
        .unwrap();
        assert_eq!(
            req.raw_frame.unwrap().data,
            FrameData::F32(vec![0.5]),
            "absent dtype means f32"
        );
    }
}
