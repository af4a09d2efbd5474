//! The wire protocol: length-prefixed JSON frames.
//!
//! Every message — request or response — is one JSON object preceded by its
//! byte length as a big-endian `u32`. Length prefixing keeps framing trivial
//! for both sides and lets a reader reject oversized frames before
//! allocating.
//!
//! Both directions use the workspace's dependency-free JSON: messages are
//! written and parsed with [`axnn_obs::json`], so the bytes on the wire
//! never depend on an environment-provided serializer and the protocol
//! stays available in fully offline builds. [`Request::parse`], on the
//! serving path, walks the JSON pull cursor in one pass and builds no
//! document tree: a frame's pixels go straight into their `Vec<u8>` or
//! `Vec<f32>`. Replies ([`ResponseMsg::parse`]) are small and read by key
//! from a [`JsonValue`] tree.
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
use axnn_obs::json::{join, num, string, Cursor, Event, JsonError, JsonValue};
use std::io::{self, Read, Write};
use std::ops::Range;
use std::str::FromStr;

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
    // `take` + `read_to_end` fills the reserved buffer straight from the
    // reader, without zero-filling it first as `read_exact` would need.
    let mut payload = Vec::with_capacity(len);
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!(
                "connection closed mid-frame ({} of {len} payload bytes)",
                payload.len()
            ),
        ));
    }
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
    ///
    /// One pass of an [`axnn_obs::json::Cursor`] builds no document tree:
    /// `input` and the `raw_frame` pixels go straight into their vectors.
    /// The first occurrence of a duplicated key wins. A syntax error
    /// anywhere beats every semantic error, and semantic errors are
    /// reported in field order (`id`, `input`, `raw_frame`, `cmd`, `path`,
    /// `n`, `format`) whatever the document order.
    pub fn parse(payload: &[u8]) -> Result<Request, String> {
        let syntax = |e: JsonError| format!("malformed request: {e}");
        let mut cur = Cursor::new(payload);
        let first = cur.next_event().map_err(syntax)?;
        if first != Event::ObjStart {
            cur.skip(&first)
                .and_then(|()| cur.finish())
                .map_err(syntax)?;
            return Err("malformed request: not a JSON object".to_string());
        }
        let mut m = RequestMembers::default();
        m.read(&mut cur).map_err(syntax)?;
        let bad = |what: &str, ty: &str| format!("malformed request: '{what}' is not {ty}");
        let id = match m.id {
            Member::Absent => 0,
            Member::Value(id) => id,
            Member::Null | Member::Wrong => return Err(bad("id", "a u64")),
        };
        let input = match m.input {
            Member::Absent => Vec::new(),
            Member::Value(input) => input,
            Member::Null | Member::Wrong => return Err(bad("input", "a number array")),
        };
        if input.iter().any(|v| !v.is_finite()) {
            return Err("malformed request: 'input' holds a non-finite value".to_string());
        }
        let raw_frame = match m.raw_frame {
            Member::Absent | Member::Null => None,
            Member::Value(frame) => Some(frame.into_frame(payload)?),
            Member::Wrong => return Err(bad("raw_frame", "an object")),
        };
        Ok(Request {
            id,
            input,
            raw_frame,
            cmd: m.cmd.optional().ok_or_else(|| bad("cmd", "a string"))?,
            path: m.path.optional().ok_or_else(|| bad("path", "a string"))?,
            n: m.n.optional().ok_or_else(|| bad("n", "a usize"))?,
            format: m
                .format
                .optional()
                .ok_or_else(|| bad("format", "a string"))?,
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

/// What the first occurrence of a member held.
#[derive(Default)]
enum Member<T> {
    #[default]
    Absent,
    Null,
    Value(T),
    /// Present with the wrong type.
    Wrong,
}

impl<T> Member<T> {
    fn is_absent(&self) -> bool {
        matches!(self, Member::Absent)
    }

    /// `Some(None)` when absent or null, `Some(Some(v))` when well-typed,
    /// `None` when ill-typed.
    fn optional(self) -> Option<Option<T>> {
        match self {
            Member::Absent | Member::Null => Some(None),
            Member::Value(v) => Some(Some(v)),
            Member::Wrong => None,
        }
    }

    /// Reads a number member from the value that `first` began.
    fn number(cur: &mut Cursor<'_>, first: Event<'_>) -> Result<Self, JsonError>
    where
        T: FromStr,
    {
        Ok(match first {
            Event::Num(t) => t.parse().map_or(Member::Wrong, Member::Value),
            Event::Null => Member::Null,
            other => {
                cur.skip(&other)?;
                Member::Wrong
            }
        })
    }
}

impl Member<String> {
    /// Reads a string member from the value that `first` began.
    fn string(cur: &mut Cursor<'_>, first: Event<'_>) -> Result<Self, JsonError> {
        Ok(match first {
            Event::Str(s) => Member::Value(s.into_owned()),
            Event::Null => Member::Null,
            other => {
                cur.skip(&other)?;
                Member::Wrong
            }
        })
    }
}

/// The first occurrence of every request member, read in one pass.
#[derive(Default)]
struct RequestMembers {
    id: Member<u64>,
    input: Member<Vec<f32>>,
    raw_frame: Member<FrameMembers>,
    cmd: Member<String>,
    path: Member<String>,
    n: Member<usize>,
    format: Member<String>,
}

impl RequestMembers {
    /// Reads the members of the object just opened, then checks that the
    /// document ends there.
    fn read(&mut self, cur: &mut Cursor<'_>) -> Result<(), JsonError> {
        while let Some(key) = cur.key_or_end()? {
            let first = cur.next_event()?;
            match &*key {
                "id" if self.id.is_absent() => self.id = Member::number(cur, first)?,
                "input" if self.input.is_absent() => {
                    self.input = match first {
                        Event::ArrStart => cur
                            .number_array(f32_token)?
                            .map_or(Member::Wrong, Member::Value),
                        other => {
                            cur.skip(&other)?;
                            Member::Wrong
                        }
                    }
                }
                "raw_frame" if self.raw_frame.is_absent() => {
                    self.raw_frame = match first {
                        Event::ObjStart => Member::Value(FrameMembers::read(cur)?),
                        Event::Null => Member::Null,
                        other => {
                            cur.skip(&other)?;
                            Member::Wrong
                        }
                    }
                }
                "cmd" if self.cmd.is_absent() => self.cmd = Member::string(cur, first)?,
                "path" if self.path.is_absent() => self.path = Member::string(cur, first)?,
                "n" if self.n.is_absent() => self.n = Member::number(cur, first)?,
                "format" if self.format.is_absent() => self.format = Member::string(cur, first)?,
                _ => cur.skip(&first)?,
            }
        }
        cur.finish()
    }
}

/// A number token as `f32`, exactly as `str::parse` reads it.
fn f32_token(t: &str) -> Option<f32> {
    t.parse().ok()
}

/// The first occurrence of every `"raw_frame"` member: `height`/`width`/
/// `channels` dimensions, a `dtype` tag (`"u8"` or `"f32"`, default
/// `"f32"`), and the interleaved pixel `data` array.
#[derive(Default)]
struct FrameMembers {
    height: Member<usize>,
    width: Member<usize>,
    channels: Member<usize>,
    dtype: Member<String>,
    data: Pixels,
}

/// The `data` member, decoded as soon as its dtype is known.
#[derive(Default)]
enum Pixels {
    #[default]
    Absent,
    Decoded(Result<FrameData, String>),
    /// Came before a usable `dtype`: its byte span in the payload.
    Later(Range<usize>),
}

impl FrameMembers {
    /// Reads the members of the `"raw_frame"` object just opened. The
    /// pixels go straight into their vector once the dtype is known; when
    /// `data` comes before `dtype` its span is kept for [`Self::into_frame`].
    fn read(cur: &mut Cursor<'_>) -> Result<Self, JsonError> {
        let mut m = FrameMembers::default();
        while let Some(key) = cur.key_or_end()? {
            let start = cur.offset();
            let first = cur.next_event()?;
            match &*key {
                "height" if m.height.is_absent() => m.height = Member::number(cur, first)?,
                "width" if m.width.is_absent() => m.width = Member::number(cur, first)?,
                "channels" if m.channels.is_absent() => m.channels = Member::number(cur, first)?,
                "dtype" if m.dtype.is_absent() => m.dtype = Member::string(cur, first)?,
                "data" if matches!(m.data, Pixels::Absent) => {
                    m.data = match m.known_dtype() {
                        Some(dtype) => Pixels::Decoded(frame_data(cur, first, dtype)?),
                        None => {
                            cur.skip(&first)?;
                            Pixels::Later(start..cur.offset())
                        }
                    }
                }
                _ => cur.skip(&first)?,
            }
        }
        Ok(m)
    }

    /// The dtype, once a `dtype` member (or its null) has settled it to
    /// one the server decodes.
    fn known_dtype(&self) -> Option<&'static str> {
        match &self.dtype {
            Member::Null => Some("f32"),
            Member::Value(d) if d == "u8" => Some("u8"),
            Member::Value(d) if d == "f32" => Some("f32"),
            _ => None,
        }
    }

    /// Checks the members in field order and assembles the frame.
    /// Dimension/length consistency is left to [`RawFrame::validate`] on
    /// the serving path so the error carries the request id.
    fn into_frame(self, payload: &[u8]) -> Result<RawFrame, String> {
        let dim = |m: Member<usize>, what: &str| match m {
            Member::Value(v) => Ok(v),
            _ => Err(format!(
                "malformed request: 'raw_frame.{what}' is not a usize"
            )),
        };
        let height = dim(self.height, "height")?;
        let width = dim(self.width, "width")?;
        let channels = dim(self.channels, "channels")?;
        let dtype = match &self.dtype {
            Member::Absent | Member::Null => "f32",
            Member::Value(d) => d.as_str(),
            Member::Wrong => {
                return Err("malformed request: 'raw_frame.dtype' is not a string".to_string())
            }
        };
        let data = match self.data {
            Pixels::Absent => {
                return Err("malformed request: 'raw_frame.data' is missing".to_string())
            }
            Pixels::Decoded(data) => data?,
            Pixels::Later(_) if dtype != "u8" && dtype != "f32" => {
                return Err(format!(
                    "malformed request: 'raw_frame.dtype' must be 'u8' or 'f32', got '{dtype}'"
                ))
            }
            Pixels::Later(span) => {
                // The span was validated in the first pass.
                let mut late = Cursor::new(&payload[span]);
                late.next_event()
                    .and_then(|first| frame_data(&mut late, first, dtype))
                    .map_err(|e| format!("malformed request: {e}"))??
            }
        };
        Ok(RawFrame {
            height,
            width,
            channels,
            data,
        })
    }
}

/// Decodes the `data` value that `first` began as `dtype` pixels (`"u8"`
/// or `"f32"`; other tags are refused before the data is looked at).
fn frame_data(
    cur: &mut Cursor<'_>,
    first: Event<'_>,
    dtype: &str,
) -> Result<Result<FrameData, String>, JsonError> {
    let is_array = first == Event::ArrStart;
    if !is_array {
        cur.skip(&first)?;
    }
    Ok(match (dtype, is_array) {
        ("u8", true) => cur.byte_array()?.map(FrameData::U8).ok_or_else(|| {
            "malformed request: u8 'raw_frame.data' holds a non-byte value".to_string()
        }),
        ("u8", false) => Err("malformed request: 'raw_frame.data' is not an array".to_string()),
        (_, true) => cur
            .number_array(f32_token)?
            .map(FrameData::F32)
            .ok_or_else(|| "malformed request: 'raw_frame.data' is not a number array".to_string()),
        (_, false) => Err("malformed request: 'raw_frame.data' is not a number array".to_string()),
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
    fn truncated_payload_error_names_the_byte_counts() {
        let mut buf = 5u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"ab");
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert!(err.to_string().contains("2 of 5"), "{err}");
        // A complete frame reads back exactly, and the next one after it.
        let mut two = Vec::new();
        write_frame(&mut two, b"hello").unwrap();
        write_frame(&mut two, b"").unwrap();
        let mut r = Cursor::new(two);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert!(read_frame(&mut r).unwrap().is_none());
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

    /// Every field of a parse result, f32s as bits, so two results compare
    /// bit for bit.
    fn fingerprint(r: &Result<Request, String>) -> String {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        match r {
            Err(e) => format!("Err({e})"),
            Ok(q) => format!(
                "Ok(id {} input {:?} frame {:?} cmd {:?} path {:?} n {:?} format {:?})",
                q.id,
                bits(&q.input),
                q.raw_frame.as_ref().map(|f| {
                    let data = match &f.data {
                        FrameData::U8(b) => format!("u8 {b:?}"),
                        FrameData::F32(v) => format!("f32 {:?}", bits(v)),
                    };
                    (f.height, f.width, f.channels, data)
                }),
                q.cmd,
                q.path,
                q.n,
                q.format,
            ),
        }
    }

    /// The tree-based decoder `Request::parse` replaced: the oracle the
    /// cursor-based one must match result for result.
    fn reference_parse(payload: &[u8]) -> Result<Request, String> {
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
            Some(v) => Some(reference_raw_frame(v)?),
        };
        let string = |key: &str| match doc.get(key) {
            None | Some(JsonValue::Null) => Ok(None),
            Some(v) => v
                .as_str()
                .map(|s| Some(s.to_string()))
                .ok_or_else(|| format!("malformed request: '{key}' is not a string")),
        };
        let cmd = string("cmd")?;
        let path = string("path")?;
        let n = match doc.get("n") {
            None | Some(JsonValue::Null) => None,
            Some(v) => Some(
                v.as_usize()
                    .ok_or_else(|| "malformed request: 'n' is not a usize".to_string())?,
            ),
        };
        let format = string("format")?;
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

    fn reference_raw_frame(v: &JsonValue) -> Result<RawFrame, String> {
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
            Some(t) => t.as_str().ok_or_else(|| {
                "malformed request: 'raw_frame.dtype' is not a string".to_string()
            })?,
        };
        let data = v
            .get("data")
            .ok_or_else(|| "malformed request: 'raw_frame.data' is missing".to_string())?;
        let data = match dtype {
            "u8" => {
                let arr = data.as_array().ok_or_else(|| {
                    "malformed request: 'raw_frame.data' is not an array".to_string()
                })?;
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

    /// Random request documents for the differential test: both dtypes
    /// and `input`, shuffled keys, duplicates, unknown nested members,
    /// random whitespace and boundary number tokens.
    struct Gen(axnn_rng::Rng);

    impl Gen {
        const BOUNDARY: [&'static str; 16] = [
            "0",
            "9",
            "10",
            "99",
            "100",
            "255",
            "256",
            "-0",
            "1e2",
            "01",
            "1.5",
            "-1",
            "1e39",
            "0.1",
            "18446744073709551615",
            "18446744073709551616",
        ];

        fn ws(&mut self) -> &'static str {
            const WS: [&str; 8] = ["", "", "", " ", " ", "\n", "\t ", "\r\n  "];
            self.0.choose::<&str>(&WS)
        }

        fn number(&mut self) -> String {
            match self.0.gen_range(0..4u32) {
                0 => self.0.choose(&Self::BOUNDARY).to_string(),
                1 => self.0.gen_range(0..300u32).to_string(),
                2 => self.0.normal(0.0, 2.0).to_string(),
                _ => f32::from_bits(self.0.gen()).to_string(),
            }
        }

        fn string(&mut self) -> String {
            let s = *self.0.choose(&[
                "ping",
                "u8",
                "f32",
                "u16",
                "",
                "a\\\"b",
                "\\u00e9",
                "caf\u{e9}",
            ]);
            format!("\"{s}\"")
        }

        /// Any JSON value, nested up to `depth` more levels.
        fn value(&mut self, depth: u32) -> String {
            match self.0.gen_range(0..if depth == 0 { 4 } else { 6u32 }) {
                0 => self.number(),
                1 => self.string(),
                2 => self.0.choose(&["null", "true", "false"]).to_string(),
                3 => self.array(|g| g.number()),
                4 => {
                    let n = self.0.gen_range(0..3usize);
                    let items: Vec<String> = (0..n).map(|_| self.value(depth - 1)).collect();
                    self.list('[', items, ']')
                }
                _ => {
                    let n = self.0.gen_range(0..3usize);
                    let members: Vec<(String, String)> = (0..n)
                        .map(|_| (self.key_name(), self.value(depth - 1)))
                        .collect();
                    self.object(members)
                }
            }
        }

        fn key_name(&mut self) -> String {
            let k = *self.0.choose(&[
                "id",
                "input",
                "raw_frame",
                "cmd",
                "path",
                "n",
                "format",
                "height",
                "width",
                "channels",
                "dtype",
                "data",
                "extra",
                "i\\u0064",
            ]);
            k.to_string()
        }

        fn list(&mut self, open: char, items: Vec<String>, close: char) -> String {
            let mut out = format!("{open}{}", self.ws());
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out += &format!("{},{}", self.ws(), self.ws());
                }
                out += item;
            }
            out += &format!("{}{close}", self.ws());
            out
        }

        fn array(&mut self, mut item: impl FnMut(&mut Self) -> String) -> String {
            let n = self.0.gen_range(0..6usize);
            let items: Vec<String> = (0..n).map(|_| item(self)).collect();
            self.list('[', items, ']')
        }

        fn object(&mut self, mut members: Vec<(String, String)>) -> String {
            // Shuffle, then sometimes repeat a member with another value.
            for i in (1..members.len()).rev() {
                members.swap(i, self.0.gen_range(0..=i));
            }
            if !members.is_empty() && self.0.gen_bool(0.3) {
                let k = members[self.0.gen_range(0..members.len())].0.clone();
                let v = self.value(1);
                let at = self.0.gen_range(0..=members.len());
                members.insert(at, (k, v));
            }
            let items = members
                .into_iter()
                .map(|(k, v)| format!("\"{k}\"{}:{}{v}", self.ws(), self.ws()))
                .collect();
            self.list('{', items, '}')
        }

        /// A value for a known member: mostly well-typed, sometimes not.
        fn member(&mut self, key: &str) -> String {
            if self.0.gen_bool(0.08) {
                return self.value(2);
            }
            let rare = self.0.gen_bool(0.1);
            match key {
                "id" | "n" | "height" | "width" | "channels" if !rare => {
                    self.0.gen_range(0..64u32).to_string()
                }
                "id" | "n" | "height" | "width" | "channels" => self.number(),
                "input" => self.array(|g| g.number()),
                "dtype" if !rare => self
                    .0
                    .choose(&["\"u8\"", "\"u8\"", "\"f32\"", "null"])
                    .to_string(),
                "cmd" | "path" | "format" | "dtype" => self.string(),
                "data" => self.array(|g| match g.0.gen_range(0..20u32) {
                    0 => g.value(1),
                    1..=3 => g.number(),
                    _ => g.0.gen_range(0..=255u32).to_string(),
                }),
                _ => self.value(2),
            }
        }

        fn raw_frame(&mut self) -> String {
            let mut members = Vec::new();
            for key in ["height", "width", "channels", "dtype", "data"] {
                if self.0.gen_bool(0.95) {
                    let v = self.member(key);
                    members.push((key.to_string(), v));
                }
            }
            if self.0.gen_bool(0.3) {
                let v = self.value(2);
                members.push(("extra".to_string(), v));
            }
            self.object(members)
        }

        fn request(&mut self) -> String {
            let mut members = Vec::new();
            for key in ["id", "input", "raw_frame", "cmd", "path", "n", "format"] {
                if self.0.gen_bool(if key == "raw_frame" { 0.7 } else { 0.35 }) {
                    let v = if key == "raw_frame" && self.0.gen_bool(0.8) {
                        self.raw_frame()
                    } else {
                        self.member(key)
                    };
                    members.push((key.to_string(), v));
                }
            }
            if self.0.gen_bool(0.3) {
                let v = self.value(3);
                members.push((self.key_name(), v));
            }
            let doc = self.object(members);
            format!("{}{doc}{}", self.ws(), self.ws())
        }

        /// Truncates, flips, inserts or deletes one byte.
        fn mutate(&mut self, doc: &[u8]) -> Vec<u8> {
            const BYTES: &[u8] = b"{}[],:\"\\ 0159-.eEtnu\x00\xff\xc3";
            let mut out = doc.to_vec();
            let at = self.0.gen_range(0..=out.len());
            let byte = if self.0.gen_bool(0.8) {
                *self.0.choose(BYTES)
            } else {
                self.0.gen()
            };
            match self.0.gen_range(0..4u32) {
                0 => out.truncate(at),
                1 if at < out.len() => out[at] = byte,
                2 => out.insert(at, byte),
                _ if at < out.len() => {
                    out.remove(at);
                }
                _ => out.push(byte),
            }
            out
        }
    }

    #[test]
    fn cursor_decode_matches_the_tree_decoder() {
        axnn_rng::cases(2048, |rng| {
            let mut g = Gen(rng);
            let doc = g.request().into_bytes();
            let mut docs = vec![doc.clone()];
            let mut mutated = doc;
            for _ in 0..4 {
                mutated = g.mutate(&mutated);
                docs.push(mutated.clone());
            }
            for doc in &docs {
                assert_eq!(
                    fingerprint(&Request::parse(doc)),
                    fingerprint(&reference_parse(doc)),
                    "{}",
                    String::from_utf8_lossy(doc)
                );
            }
        });
    }

    #[test]
    fn every_request_error_message_is_pinned() {
        let frame = |members: &str| format!("{{\"raw_frame\": {{{members}}}}}");
        let dims = "\"height\": 1, \"width\": 2, \"channels\": 1";
        let cases: Vec<(String, &str)> = vec![
            (
                "{\"id\": 1,".into(),
                "malformed request: json error at byte 9: expected '\"'",
            ),
            (
                "[1, 2".into(),
                "malformed request: json error at byte 5: expected ',' or ']' in array",
            ),
            (
                "{\"cmd\": \"ping\"} x".into(),
                "malformed request: json error at byte 16: trailing characters after document",
            ),
            ("[1, 2]".into(), "malformed request: not a JSON object"),
            ("\"ping\"".into(), "malformed request: not a JSON object"),
            (
                "{\"id\": -1}".into(),
                "malformed request: 'id' is not a u64",
            ),
            (
                "{\"id\": null}".into(),
                "malformed request: 'id' is not a u64",
            ),
            (
                "{\"input\": [1, \"x\"]}".into(),
                "malformed request: 'input' is not a number array",
            ),
            (
                "{\"input\": null}".into(),
                "malformed request: 'input' is not a number array",
            ),
            (
                "{\"input\": [0.5, 1e39]}".into(),
                "malformed request: 'input' holds a non-finite value",
            ),
            (
                "{\"raw_frame\": [1]}".into(),
                "malformed request: 'raw_frame' is not an object",
            ),
            (
                frame("\"width\": 2, \"channels\": 1, \"data\": []"),
                "malformed request: 'raw_frame.height' is not a usize",
            ),
            (
                frame("\"height\": 1, \"width\": -2, \"channels\": 1, \"data\": []"),
                "malformed request: 'raw_frame.width' is not a usize",
            ),
            (
                frame("\"height\": 1, \"width\": 2, \"channels\": \"3\", \"data\": []"),
                "malformed request: 'raw_frame.channels' is not a usize",
            ),
            (
                frame(&format!("{dims}, \"dtype\": 8, \"data\": []")),
                "malformed request: 'raw_frame.dtype' is not a string",
            ),
            (
                frame(&format!("{dims}, \"dtype\": \"u16\"")),
                "malformed request: 'raw_frame.data' is missing",
            ),
            (
                frame(&format!("{dims}, \"dtype\": \"u8\", \"data\": {{}}")),
                "malformed request: 'raw_frame.data' is not an array",
            ),
            (
                frame(&format!("{dims}, \"dtype\": \"u8\", \"data\": [0, 1.0]")),
                "malformed request: u8 'raw_frame.data' holds a non-byte value",
            ),
            (
                frame(&format!("{dims}, \"dtype\": \"u8\", \"data\": [256, 0]")),
                "malformed request: u8 'raw_frame.data' holds a non-byte value",
            ),
            (
                frame(&format!("{dims}, \"dtype\": \"u8\", \"data\": [-0, [0]]")),
                "malformed request: u8 'raw_frame.data' holds a non-byte value",
            ),
            (
                frame(&format!("{dims}, \"dtype\": \"f32\", \"data\": null")),
                "malformed request: 'raw_frame.data' is not a number array",
            ),
            (
                frame(&format!("{dims}, \"data\": [0.5, true]")),
                "malformed request: 'raw_frame.data' is not a number array",
            ),
            (
                frame(&format!("{dims}, \"dtype\": \"u16\", \"data\": [1]")),
                "malformed request: 'raw_frame.dtype' must be 'u8' or 'f32', got 'u16'",
            ),
            (
                "{\"cmd\": 1}".into(),
                "malformed request: 'cmd' is not a string",
            ),
            (
                "{\"cmd\": \"reload\", \"path\": []}".into(),
                "malformed request: 'path' is not a string",
            ),
            (
                "{\"cmd\": \"trace\", \"n\": 1.5}".into(),
                "malformed request: 'n' is not a usize",
            ),
            (
                "{\"cmd\": \"metrics\", \"format\": {}}".into(),
                "malformed request: 'format' is not a string",
            ),
            // Precedence: a syntax error anywhere beats every semantic
            // error, and semantic errors come in field order, not
            // document order.
            (
                "{\"id\": \"x\", \"cmd\": \"ping\", ]".into(),
                "malformed request: json error at byte 27: expected '\"'",
            ),
            (
                "{\"cmd\": 5, \"id\": \"x\"}".into(),
                "malformed request: 'id' is not a u64",
            ),
            (
                "{\"format\": 1, \"raw_frame\": 2, \"input\": [\"a\"]}".into(),
                "malformed request: 'input' is not a number array",
            ),
            (
                frame(&format!(
                    "\"dtype\": 1, {dims}, \"data\": [], \"height\": \"x\""
                )),
                "malformed request: 'raw_frame.dtype' is not a string",
            ),
            (
                frame(&format!("\"data\": [256], {dims}, \"dtype\": \"u8\"")),
                "malformed request: u8 'raw_frame.data' holds a non-byte value",
            ),
        ];
        for (doc, want) in &cases {
            assert_eq!(Request::parse(doc.as_bytes()).unwrap_err(), *want, "{doc}");
        }
        // First occurrence wins; a later ill-typed duplicate is ignored.
        let req = Request::parse(
            b"{\"id\": 3, \"id\": \"x\", \"cmd\": \"ping\", \"cmd\": 7, \"n\": null, \"n\": -1}",
        )
        .unwrap();
        assert_eq!((req.id, req.cmd.as_deref(), req.n), (3, Some("ping"), None));
        // `dtype` may follow `data`, for both dtypes.
        for (dtype, data) in [
            ("u8", FrameData::U8(vec![0, 255])),
            ("f32", FrameData::F32(vec![256.0, 100.0])),
        ] {
            let values = if dtype == "u8" { "0, 255" } else { "256, 1e2" };
            let doc = frame(&format!(
                "\"data\": [{values}], {dims}, \"dtype\": \"{dtype}\", \"data\": 7"
            ));
            let req = Request::parse(doc.as_bytes()).unwrap_or_else(|e| panic!("{doc}: {e}"));
            let want = RawFrame {
                height: 1,
                width: 2,
                channels: 1,
                data,
            };
            assert_eq!(req.raw_frame, Some(want), "{doc}");
        }
    }
}
