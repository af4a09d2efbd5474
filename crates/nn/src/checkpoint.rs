//! Checkpointing: serializable snapshots of a network's learnable state.
//!
//! A [`Checkpoint`] captures every trainable parameter *and* every
//! non-trainable buffer (batch-norm running statistics) in visitation
//! order, so an architecture-matched network restored from it reproduces
//! the original bit-for-bit — including its inference behaviour.

use crate::layer::Layer;
use crate::seq::Sequential;
use axnn_obs::json::{join, num_or_null, Cursor, Event, JsonError};
use axnn_tensor::Tensor;
use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// A serializable snapshot of a network's parameters and buffers.
///
/// # Example
///
/// ```
/// use axnn_nn::{Checkpoint, Layer, Linear, Mode, Sequential};
/// use axnn_tensor::Tensor;
/// use axnn_rng::Rng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = Rng::seed(0);
/// let mut a = Sequential::new(vec![Box::new(Linear::new(3, 2, true, &mut rng))]);
/// let mut b = Sequential::new(vec![Box::new(Linear::new(3, 2, true, &mut rng))]);
/// let ckpt = Checkpoint::capture(&mut a);
/// ckpt.restore(&mut b)?;
/// let x = Tensor::ones(&[1, 3]);
/// assert_eq!(a.forward(&x, Mode::Eval), b.forward(&x, Mode::Eval));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    params: Vec<Tensor>,
    buffers: Vec<Tensor>,
}

/// Error returned when a checkpoint does not match the target network's
/// architecture (different parameter/buffer counts or shapes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreCheckpointError {
    message: String,
}

impl fmt::Display for RestoreCheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "checkpoint mismatch: {}", self.message)
    }
}

impl Error for RestoreCheckpointError {}

/// Error returned when checkpoint JSON cannot be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCheckpointError {
    message: String,
}

impl fmt::Display for ParseCheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "checkpoint parse error: {}", self.message)
    }
}

impl Error for ParseCheckpointError {}

impl ParseCheckpointError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl Checkpoint {
    /// Captures the current parameters and buffers of `net`.
    pub fn capture(net: &mut Sequential) -> Self {
        let mut params = Vec::new();
        net.visit_params(&mut |p| params.push(p.value.clone()));
        let mut buffers = Vec::new();
        net.visit_buffers(&mut |b| buffers.push(b.clone()));
        Self { params, buffers }
    }

    /// Number of captured parameter tensors.
    pub fn param_tensors(&self) -> usize {
        self.params.len()
    }

    /// Writes the checkpoint into an architecture-matched network.
    ///
    /// # Errors
    ///
    /// Returns [`RestoreCheckpointError`] if the parameter/buffer counts or
    /// shapes differ; on error the network may be partially updated.
    pub fn restore(&self, net: &mut Sequential) -> Result<(), RestoreCheckpointError> {
        let mut err = None;
        let mut i = 0;
        net.visit_params(&mut |p| {
            if err.is_some() {
                return;
            }
            match self.params.get(i) {
                Some(v) if v.shape() == p.value.shape() => p.value = v.clone(),
                Some(v) => {
                    err = Some(format!(
                        "parameter {i}: shape {:?} vs checkpoint {:?}",
                        p.value.shape(),
                        v.shape()
                    ))
                }
                None => err = Some(format!("network has more than {i} parameters")),
            }
            i += 1;
        });
        if err.is_none() && i != self.params.len() {
            err = Some(format!(
                "checkpoint has {} parameter tensors, network has {i}",
                self.params.len()
            ));
        }
        let mut j = 0;
        net.visit_buffers(&mut |b| {
            if err.is_some() {
                return;
            }
            match self.buffers.get(j) {
                Some(v) if v.shape() == b.shape() => *b = v.clone(),
                Some(v) => {
                    err = Some(format!(
                        "buffer {j}: shape {:?} vs checkpoint {:?}",
                        b.shape(),
                        v.shape()
                    ))
                }
                None => err = Some(format!("network has more than {j} buffers")),
            }
            j += 1;
        });
        if err.is_none() && j != self.buffers.len() {
            err = Some(format!(
                "checkpoint has {} buffer tensors, network has {j}",
                self.buffers.len()
            ));
        }
        match err {
            Some(message) => Err(RestoreCheckpointError { message }),
            None => Ok(()),
        }
    }

    /// Serializes the checkpoint as one line of compact JSON,
    /// `{"params":[{"data":[..],"shape":[..]},..],"buffers":[..]}`.
    /// Finite `f32` values round-trip bit-exactly (shortest-decimal
    /// `Display`); non-finite values print as `null`, which
    /// [`Checkpoint::from_json`] refuses.
    pub fn to_json(&self) -> String {
        let tensors = |ts: &[Tensor]| {
            join(
                ts.iter().map(|t| {
                    format!(
                        "{{\"data\":[{}],\"shape\":[{}]}}",
                        join(t.as_slice().iter().map(|&x| num_or_null(x)), ","),
                        join(t.shape(), ","),
                    )
                }),
                ",",
            )
        };
        format!(
            "{{\"params\":[{}],\"buffers\":[{}]}}",
            tensors(&self.params),
            tensors(&self.buffers)
        )
    }

    /// Decodes a checkpoint from JSON produced by [`Checkpoint::to_json`],
    /// in one pass of an [`axnn_obs::json::Cursor`] that writes every
    /// tensor's `data` and `shape` straight into their vectors. Member
    /// order is free and the first occurrence of a duplicated key wins.
    ///
    /// # Errors
    ///
    /// Returns [`ParseCheckpointError`] on malformed JSON, missing fields,
    /// non-finite values (`null`, or a literal such as `1e39` that
    /// overflows `f32`), or data/shape length mismatches. A syntax error
    /// anywhere wins; then `params` is checked before `buffers`, and
    /// within a tensor `data` before its values before `shape`.
    pub fn from_json(json: &str) -> Result<Self, ParseCheckpointError> {
        let syntax = |e: JsonError| ParseCheckpointError::new(e.to_string());
        let (params, buffers) = read_lists(&mut Cursor::new(json.as_bytes())).map_err(syntax)?;
        let list = |list: Option<TensorList>, what: &str| {
            list.flatten()
                .unwrap_or_else(|| Err(format!("missing '{what}' array")))
                .map_err(ParseCheckpointError::new)
        };
        Ok(Self {
            params: list(params, "params")?,
            buffers: list(buffers, "buffers")?,
        })
    }
}

/// A tensor list as read: `None` when the member is not an array, else
/// the tensors or the first tensor's error.
type TensorList = Option<Result<Vec<Tensor>, String>>;

/// Reads the whole document: the first `params` and `buffers` members,
/// `None` when absent.
fn read_lists(cur: &mut Cursor<'_>) -> Result<(Option<TensorList>, Option<TensorList>), JsonError> {
    let (mut params, mut buffers) = (None, None);
    let first = cur.next_event()?;
    if first == Event::ObjStart {
        while let Some(key) = cur.key_or_end()? {
            let first = cur.next_event()?;
            match &*key {
                "params" if params.is_none() => params = Some(tensor_list(cur, first, "params")?),
                "buffers" if buffers.is_none() => {
                    buffers = Some(tensor_list(cur, first, "buffers")?)
                }
                _ => cur.skip(&first)?,
            }
        }
    } else {
        cur.skip(&first)?;
    }
    cur.finish()?;
    Ok((params, buffers))
}

/// Reads the tensor list that `first` began. After the first bad tensor
/// the rest is only validated.
fn tensor_list(
    cur: &mut Cursor<'_>,
    first: Event<'_>,
    what: &str,
) -> Result<TensorList, JsonError> {
    if first != Event::ArrStart {
        cur.skip(&first)?;
        return Ok(None);
    }
    let mut tensors = Ok(Vec::new());
    loop {
        let first = cur.next_event()?;
        if first == Event::ArrEnd {
            return Ok(Some(tensors));
        }
        match &mut tensors {
            Ok(list) => match tensor(cur, first)? {
                Ok(t) => list.push(t),
                Err(e) => tensors = Err(format!("{what} {}: {e}", list.len())),
            },
            Err(_) => cur.skip(&first)?,
        }
    }
}

/// Reads the `{"data": [..], "shape": [..]}` tensor that `first` began.
fn tensor(cur: &mut Cursor<'_>, first: Event<'_>) -> Result<Result<Tensor, String>, JsonError> {
    // The first occurrence of each member; `Some(None)` is ill-typed.
    let mut data: Option<Option<Vec<f32>>> = None;
    let mut shape: Option<Option<Vec<usize>>> = None;
    if first == Event::ObjStart {
        while let Some(key) = cur.key_or_end()? {
            let first = cur.next_event()?;
            match &*key {
                "data" if data.is_none() => data = Some(numbers(cur, first)?),
                "shape" if shape.is_none() => shape = Some(numbers(cur, first)?),
                _ => cur.skip(&first)?,
            }
        }
    } else {
        cur.skip(&first)?;
    }
    let Some(data) = data.flatten() else {
        return Ok(Err("missing or non-numeric 'data'".to_string()));
    };
    // An out-of-range literal such as `1e39` parses to ±inf.
    if let Some(j) = data.iter().position(|x| !x.is_finite()) {
        return Ok(Err(format!("'data[{j}]' is not a finite f32")));
    }
    let Some(shape) = shape.flatten() else {
        return Ok(Err("missing or invalid 'shape'".to_string()));
    };
    Ok(Tensor::from_vec(data, &shape).map_err(|e| e.to_string()))
}

/// Reads the number array that `first` began, each token through
/// `str::parse`; `None` (with the value consumed) when it is not an array
/// of such numbers.
fn numbers<T: FromStr>(
    cur: &mut Cursor<'_>,
    first: Event<'_>,
) -> Result<Option<Vec<T>>, JsonError> {
    if first != Event::ArrStart {
        cur.skip(&first)?;
        return Ok(None);
    }
    cur.number_array(|t| t.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, ActivationKind, BatchNorm2d, ConvBlock, Linear, Mode};
    use axnn_rng::Rng;
    use axnn_tensor::init;

    fn net_with_bn(seed: u64) -> Sequential {
        let mut rng = Rng::seed(seed);
        Sequential::new(vec![
            Box::new(ConvBlock::new(
                2,
                4,
                3,
                1,
                1,
                1,
                true,
                ActivationKind::Relu,
                &mut rng,
            )),
            Box::new(crate::GlobalAvgPool::new()),
            Box::new(crate::Flatten::new()),
            Box::new(Linear::new(4, 3, true, &mut rng)),
        ])
    }

    #[test]
    fn capture_restore_round_trip_including_bn_stats() {
        let mut a = net_with_bn(1);
        let mut rng = Rng::seed(9);
        // Drift BN running stats away from their defaults.
        for _ in 0..10 {
            let x = init::normal(&[4, 2, 6, 6], 1.0, 2.0, &mut rng);
            a.forward(&x, Mode::Train);
        }
        let ckpt = Checkpoint::capture(&mut a);
        let mut b = net_with_bn(2);
        ckpt.restore(&mut b).expect("matched architecture");
        let x = init::normal(&[2, 2, 6, 6], 1.0, 2.0, &mut rng);
        assert_eq!(a.forward(&x, Mode::Eval), b.forward(&x, Mode::Eval));
    }

    #[test]
    fn restore_rejects_mismatched_architecture() {
        let mut a = net_with_bn(1);
        let ckpt = Checkpoint::capture(&mut a);
        let mut rng = Rng::seed(3);
        let mut other = Sequential::new(vec![Box::new(Linear::new(5, 2, true, &mut rng))]);
        let err = ckpt.restore(&mut other).expect_err("mismatch");
        assert!(err.to_string().contains("checkpoint mismatch"));
    }

    #[test]
    fn hand_written_json_round_trip_is_bit_exact() {
        let mut a = net_with_bn(6);
        let mut rng = Rng::seed(11);
        for _ in 0..4 {
            let x = init::normal(&[3, 2, 6, 6], 0.5, 1.5, &mut rng);
            a.forward(&x, Mode::Train);
        }
        let ckpt = Checkpoint::capture(&mut a);
        let back = Checkpoint::from_json(&ckpt.to_json()).expect("round trip");
        // PartialEq on f32 is not enough for the determinism contract;
        // compare the raw bits of every value.
        for (p, q) in ckpt.params.iter().zip(back.params.iter()) {
            assert_eq!(p.shape(), q.shape());
            for (x, y) in p.as_slice().iter().zip(q.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert_eq!(ckpt, back);
    }

    #[test]
    fn hand_written_json_rejects_malformed_documents() {
        assert!(Checkpoint::from_json("{").is_err());
        assert!(Checkpoint::from_json("{\"params\":[]}").is_err());
        let bad_shape = "{\"params\":[{\"data\":[1.0,2.0],\"shape\":[3]}],\"buffers\":[]}";
        let err = Checkpoint::from_json(bad_shape).unwrap_err();
        assert!(err.to_string().contains("params 0"));
        let non_finite = "{\"params\":[{\"data\":[null],\"shape\":[1]}],\"buffers\":[]}";
        assert!(Checkpoint::from_json(non_finite).is_err());
    }

    #[test]
    fn overflowing_literals_are_rejected_not_restored_as_inf() {
        for (doc, what) in [
            (
                r#"{"params":[{"data":[1e39,0.5],"shape":[2]}],"buffers":[]}"#,
                "params 0: 'data[0]'",
            ),
            (
                r#"{"params":[],"buffers":[{"data":[1],"shape":[1]},{"data":[0.5,-4e38],"shape":[2]}]}"#,
                "buffers 1: 'data[1]'",
            ),
        ] {
            let err = Checkpoint::from_json(doc).unwrap_err().to_string();
            assert!(err.contains(what), "{err}");
        }
        // Underflow to zero is finite and stays accepted.
        let tiny = r#"{"params":[{"data":[1e-50],"shape":[1]}],"buffers":[]}"#;
        assert!(Checkpoint::from_json(tiny).is_ok());
    }

    /// The tree-based decoder `Checkpoint::from_json` replaced: the oracle
    /// the cursor-based one must match result for result.
    fn reference_from_json(json: &str) -> Result<Checkpoint, ParseCheckpointError> {
        use axnn_obs::json::JsonValue;
        fn tensor_from(
            v: &JsonValue,
            what: &str,
            i: usize,
        ) -> Result<Tensor, ParseCheckpointError> {
            let data = v
                .get("data")
                .and_then(JsonValue::f32_array)
                .ok_or_else(|| {
                    ParseCheckpointError::new(format!("{what} {i}: missing or non-numeric 'data'"))
                })?;
            if let Some(j) = data.iter().position(|x| !x.is_finite()) {
                return Err(ParseCheckpointError::new(format!(
                    "{what} {i}: 'data[{j}]' is not a finite f32"
                )));
            }
            let shape = v
                .get("shape")
                .and_then(|s| {
                    s.as_array()?
                        .iter()
                        .map(JsonValue::as_usize)
                        .collect::<Option<Vec<_>>>()
                })
                .ok_or_else(|| {
                    ParseCheckpointError::new(format!("{what} {i}: missing or invalid 'shape'"))
                })?;
            Tensor::from_vec(data, &shape)
                .map_err(|e| ParseCheckpointError::new(format!("{what} {i}: {e}")))
        }
        fn tensor_list(doc: &JsonValue, what: &str) -> Result<Vec<Tensor>, ParseCheckpointError> {
            doc.get(what)
                .and_then(JsonValue::as_array)
                .ok_or_else(|| ParseCheckpointError::new(format!("missing '{what}' array")))?
                .iter()
                .enumerate()
                .map(|(i, v)| tensor_from(v, what, i))
                .collect()
        }
        let doc = JsonValue::parse(json.as_bytes())
            .map_err(|e| ParseCheckpointError::new(e.to_string()))?;
        Ok(Checkpoint {
            params: tensor_list(&doc, "params")?,
            buffers: tensor_list(&doc, "buffers")?,
        })
    }

    /// Every tensor's shape and value bits, or the error text.
    fn fingerprint(r: &Result<Checkpoint, ParseCheckpointError>) -> String {
        let list = |ts: &[Tensor]| -> Vec<(Vec<usize>, Vec<u32>)> {
            ts.iter()
                .map(|t| {
                    let bits = t.as_slice().iter().map(|x| x.to_bits()).collect();
                    (t.shape().to_vec(), bits)
                })
                .collect()
        };
        match r {
            Ok(c) => format!("Ok({:?} {:?})", list(&c.params), list(&c.buffers)),
            Err(e) => format!("Err({e})"),
        }
    }

    #[test]
    fn cursor_decode_matches_the_tree_decoder() {
        const TOKENS: [&str; 14] = [
            "0", "1", "2", "3", "-0", "1e2", "01", "0.5", "-1", "1e39", "null", "\"2\"", "[]", "{}",
        ];
        const MUTANTS: &[u8] = b"{}[],:\" 0123-.enul\\\xff";
        axnn_rng::cases(1024, |mut rng| {
            let ws = |rng: &mut Rng| *rng.choose(&["", "", " ", "\n "]);
            let number = |rng: &mut Rng| -> String {
                if rng.gen_bool(0.9) {
                    rng.normal(0.0, 1.0).to_string()
                } else {
                    rng.choose(&TOKENS).to_string()
                }
            };
            let tensor = |rng: &mut Rng| -> String {
                let dims: Vec<usize> = (0..rng.gen_range(0..3usize))
                    .map(|_| rng.gen_range(0..4usize))
                    .collect();
                let mut len = dims.iter().product::<usize>();
                if rng.gen_bool(0.1) {
                    len += 1;
                }
                let data: Vec<String> = (0..len).map(|_| number(rng)).collect();
                let mut shape: Vec<String> = dims.iter().map(usize::to_string).collect();
                if rng.gen_bool(0.05) {
                    shape.push(rng.choose(&TOKENS).to_string());
                }
                let sep = format!(",{}", ws(rng));
                let mut members = vec![
                    format!("\"data\":{}[{}]", ws(rng), data.join(&sep)),
                    format!("\"shape\":[{}]", shape.join(",")),
                ];
                if rng.gen_bool(0.2) {
                    members.push(format!("\"extra\":{}", rng.choose(&TOKENS)));
                }
                if rng.gen_bool(0.1) {
                    members.push(format!("\"data\":{}", rng.choose(&TOKENS)));
                }
                if rng.gen_bool(0.5) {
                    members.reverse();
                }
                format!("{{{}}}", members.join(","))
            };
            let list = |rng: &mut Rng| -> String {
                let n = rng.gen_range(0..4usize);
                let items: Vec<String> = (0..n).map(|_| tensor(rng)).collect();
                format!("[{}{}]", ws(rng), items.join(","))
            };
            let mut members = vec![
                format!("\"params\":{}", list(&mut rng)),
                format!("\"buffers\":{}", list(&mut rng)),
            ];
            if rng.gen_bool(0.1) {
                members.remove(rng.gen_range(0..2usize));
            }
            if rng.gen_bool(0.2) {
                members.push(format!("\"params\":{}", rng.choose(&TOKENS)));
            }
            if rng.gen_bool(0.5) {
                members.reverse();
            }
            let doc = format!("{}{{{}}}", ws(&mut rng), members.join(","));
            let mut docs = vec![doc.clone().into_bytes()];
            let mut mutated = doc.into_bytes();
            for _ in 0..4 {
                let at = rng.gen_range(0..=mutated.len());
                let byte = *rng.choose(MUTANTS);
                match rng.gen_range(0..4u32) {
                    0 => mutated.truncate(at),
                    1 if at < mutated.len() => mutated[at] = byte,
                    2 => mutated.insert(at, byte),
                    _ if at < mutated.len() => {
                        mutated.remove(at);
                    }
                    _ => mutated.push(byte),
                }
                docs.push(mutated.clone());
            }
            for doc in &docs {
                // `from_json` takes a `str`; keep the documents that are.
                let Ok(doc) = std::str::from_utf8(doc) else {
                    continue;
                };
                assert_eq!(
                    fingerprint(&Checkpoint::from_json(doc)),
                    fingerprint(&reference_from_json(doc)),
                    "{doc}"
                );
            }
        });
    }

    #[test]
    fn every_checkpoint_error_message_is_pinned() {
        let t = |data: &str, shape: &str| format!("{{\"data\":{data},\"shape\":{shape}}}");
        let ok = t("[1,2]", "[2]");
        let doc = |params: &str, buffers: &str| {
            format!("{{\"params\":[{params}],\"buffers\":[{buffers}]}}")
        };
        let cases: Vec<(String, &str)> = vec![
            (
                "{\"params\":[".into(),
                "checkpoint parse error: json error at byte 11: unexpected end of input",
            ),
            (
                "{\"params\":[],\"buffers\":[]}]".into(),
                "checkpoint parse error: json error at byte 26: trailing characters after document",
            ),
            ("[1]".into(), "checkpoint parse error: missing 'params' array"),
            (
                "{\"buffers\":[]}".into(),
                "checkpoint parse error: missing 'params' array",
            ),
            (
                "{\"params\":{},\"buffers\":[]}".into(),
                "checkpoint parse error: missing 'params' array",
            ),
            (
                "{\"params\":[]}".into(),
                "checkpoint parse error: missing 'buffers' array",
            ),
            (
                doc(&format!("{ok},3"), ""),
                "checkpoint parse error: params 1: missing or non-numeric 'data'",
            ),
            (
                doc(&t("[1,\"2\"]", "[2]"), ""),
                "checkpoint parse error: params 0: missing or non-numeric 'data'",
            ),
            (
                doc("{\"shape\":[2]}", ""),
                "checkpoint parse error: params 0: missing or non-numeric 'data'",
            ),
            (
                doc(&t("[1,2e39]", "[2]"), ""),
                "checkpoint parse error: params 0: 'data[1]' is not a finite f32",
            ),
            (
                doc(&t("[1,2]", "[-2]"), ""),
                "checkpoint parse error: params 0: missing or invalid 'shape'",
            ),
            (
                doc(&t("[1,2]", "2"), ""),
                "checkpoint parse error: params 0: missing or invalid 'shape'",
            ),
            (
                doc(&t("[1,2]", "[3]"), ""),
                "checkpoint parse error: params 0: shape error: buffer of length 2 cannot form shape [3] (3 elements)",
            ),
            (
                doc(&ok, &format!("{ok},{}", t("[1]", "[1,2]"))),
                "checkpoint parse error: buffers 1: shape error: buffer of length 1 cannot form shape [1, 2] (2 elements)",
            ),
            // Precedence: `params` before `buffers` whatever the document
            // order, and within a tensor `data` before non-finite before
            // `shape`, whatever the member order.
            (
                format!(
                    "{{\"buffers\":[{}],\"params\":[{}]}}",
                    t("[]", "[1]"),
                    t("[]", "[2]")
                ),
                "checkpoint parse error: params 0: shape error: buffer of length 0 cannot form shape [2] (2 elements)",
            ),
            (
                doc("{\"shape\":\"x\",\"data\":[1e39,\"a\"]}", ""),
                "checkpoint parse error: params 0: missing or non-numeric 'data'",
            ),
            (
                doc("{\"shape\":\"x\",\"data\":[1,-1e39]}", ""),
                "checkpoint parse error: params 0: 'data[1]' is not a finite f32",
            ),
            (
                doc(&t("[1e39]", "[1]"), &t("[\"a\"]", "[1]")),
                "checkpoint parse error: params 0: 'data[0]' is not a finite f32",
            ),
        ];
        for (json, want) in &cases {
            assert_eq!(
                Checkpoint::from_json(json).unwrap_err().to_string(),
                *want,
                "{json}"
            );
        }
        // First occurrence wins; a later ill-typed duplicate is ignored.
        let dup = r#"{"params":[{"data":[1],"shape":[1],"data":"x","shape":null}],
            "buffers":[],"params":7,"buffers":{}}"#;
        let ckpt = Checkpoint::from_json(dup).unwrap();
        assert_eq!((ckpt.params.len(), ckpt.buffers.len()), (1, 0));
        assert_eq!(ckpt.params[0], Tensor::from_vec(vec![1.0], &[1]).unwrap());
    }

    #[test]
    fn shapes_whose_element_count_overflows_are_rejected() {
        // Regression: the product wrapped to 0 in release builds, so this
        // document restored an empty 2^63 x 2 tensor.
        let doc = r#"{"params": [{"shape": [9223372036854775808, 2], "data": []}], "buffers": []}"#;
        assert_eq!(
            Checkpoint::from_json(doc).unwrap_err().to_string(),
            "checkpoint parse error: params 0: shape error: shape [9223372036854775808, 2] \
             has more elements than a usize can count"
        );
    }

    #[test]
    fn layers_without_buffers_capture_empty_buffer_list() {
        let mut rng = Rng::seed(5);
        let mut net = Sequential::new(vec![
            Box::new(Linear::new(2, 2, false, &mut rng)),
            Box::new(Activation::new(ActivationKind::Relu)),
        ]);
        let ckpt = Checkpoint::capture(&mut net);
        assert_eq!(ckpt.param_tensors(), 1);
        assert_eq!(ckpt.buffers.len(), 0);
        let _ = BatchNorm2d::new(1); // silence unused import in some cfgs
    }
}
