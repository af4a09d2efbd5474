//! Checkpointing: serializable snapshots of a network's learnable state.
//!
//! A [`Checkpoint`] captures every trainable parameter *and* every
//! non-trainable buffer (batch-norm running statistics) in visitation
//! order, so an architecture-matched network restored from it reproduces
//! the original bit-for-bit — including its inference behaviour.

use crate::layer::Layer;
use crate::seq::Sequential;
use axnn_obs::json::{join, num_or_null, JsonValue};
use axnn_tensor::Tensor;
use std::error::Error;
use std::fmt;

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

    /// Decodes a checkpoint from JSON produced by [`Checkpoint::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`ParseCheckpointError`] on malformed JSON, missing fields,
    /// non-finite values (`null`, or a literal such as `1e39` that
    /// overflows `f32`), or data/shape length mismatches.
    pub fn from_json(json: &str) -> Result<Self, ParseCheckpointError> {
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
            // An out-of-range literal such as `1e39` parses to ±inf.
            if let Some(j) = data.iter().position(|x| !x.is_finite()) {
                return Err(ParseCheckpointError::new(format!(
                    "{what} {i}: 'data[{j}]' is not a finite f32"
                )));
            }
            let shape = v
                .get("shape")
                .and_then(JsonValue::usize_array)
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
        Ok(Self {
            params: tensor_list(&doc, "params")?,
            buffers: tensor_list(&doc, "buffers")?,
        })
    }
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
