//! Sustained raw-frame streaming: the frame shapes and document behind
//! `axnn stream`, plus the raw-vs-tensor bit-identity probe.
//!
//! Where `axnn loadgen` offers pre-shaped tensors, `axnn stream` offers
//! **raw `H×W×C` frames**
//! ([`Payload::Frame`](crate::loadgen::Payload::Frame)) on a fixed frame-rate
//! schedule through the same [`loadgen::knee`](crate::loadgen::knee)
//! probe, exercising the server-side preprocessing stage in front of
//! micro-batching. Each step is one [`LoadReport`](crate::LoadReport),
//! whose preprocess / queue-wait / compute stages carry the server's
//! per-response split as summaries *and* fixed-geometry histograms.
//!
//! The **probe** is the correctness half: it sends one deterministic raw
//! frame, then preprocesses the same frame locally with the spec the
//! server publishes over `{"cmd": "info"}` and sends the result as a
//! pre-shaped tensor. The two logit vectors must match bit for bit —
//! server-side preprocessing is the same kernels, so any divergence is a
//! bug, not noise. tier-1 gates on it.

use crate::loadgen::{expect_status, probe_preprocess_spec, Client, Sweep};
use axnn_data::resize::RawFrame;
use axnn_obs::json::{num, string};
use std::io;
use std::net::ToSocketAddrs;

/// Geometry and pixel type of the synthetic frames a stream offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameShape {
    /// Source frame rows (before server-side resizing).
    pub height: usize,
    /// Source frame columns.
    pub width: usize,
    /// Source frame channels (must match the model's channel count — the
    /// pipeline resizes, it does not convert colourspaces).
    pub channels: usize,
    /// Send `u8` pixels (the camera-byte path) instead of f32.
    pub u8_pixels: bool,
}

impl FrameShape {
    /// The deterministic frame for `seed` ([`RawFrame::synthetic`]).
    pub fn synthetic(&self, seed: u64) -> RawFrame {
        RawFrame::synthetic(self.height, self.width, self.channels, self.u8_pixels, seed)
    }

    /// `HxWxC` plus the dtype, e.g. `48x48x3 u8`.
    pub fn label(&self) -> String {
        format!(
            "{}x{}x{} {}",
            self.height,
            self.width,
            self.channels,
            if self.u8_pixels { "u8" } else { "f32" },
        )
    }
}

/// The `results/BENCH_stream.json` document: the frame geometry plus the
/// [`Sweep`] of `frame`-shaped raw frames.
pub fn bench_json(frame: &FrameShape, sweep: &Sweep) -> String {
    format!(
        "{{\"schema\": \"BENCH_stream.v2\", \"frame\": {}, \"sweep\": {}}}",
        string(&frame.label()),
        sweep.to_json(),
    )
}

/// Result of the raw-vs-tensor bit-identity probe.
#[derive(Debug, Clone)]
pub struct StreamProbe {
    /// Whether the two logit vectors matched bit for bit.
    pub bit_identical: bool,
    /// Logit count (the model's class count).
    pub classes: usize,
    /// Largest |Δlogit| between the two paths (0 when identical).
    pub max_abs_delta: f64,
    /// Server-reported preprocessing time of the raw-frame path, µs.
    pub preprocess_us: f64,
}

impl StreamProbe {
    /// One-line JSON verdict (`"probe": "ok"` is the tier-1 grep target).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"probe\": \"{}\", \"classes\": {}, \"max_abs_delta\": {}, \
             \"preprocess_us\": {}}}",
            if self.bit_identical { "ok" } else { "mismatch" },
            self.classes,
            num(self.max_abs_delta),
            num(self.preprocess_us),
        )
    }
}

/// Sends one deterministic raw frame, preprocesses the same frame locally
/// with the server-published spec, sends the result as a pre-shaped
/// tensor, and compares the two logit vectors bit for bit. Both requests
/// ride the same connection, so the comparison holds at any replica or
/// batch configuration (logits are replica- and batch-invariant).
pub fn probe(
    addr: impl ToSocketAddrs + Copy,
    shape: FrameShape,
    seed: u64,
) -> io::Result<StreamProbe> {
    let spec = probe_preprocess_spec(addr)?;
    let frame = shape.synthetic(seed);
    let local = spec
        .apply(&frame)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let mut client = Client::connect(addr)?;
    let want_ok = |msg, path: &str| {
        expect_status(msg, "ok").map_err(|e| io::Error::other(format!("{path} path: {e}")))
    };
    let raw = want_ok(client.infer_raw(seed, &frame)?, "raw-frame")?;
    let tensor = want_ok(client.infer(seed.wrapping_add(1), &local)?, "tensor")?;
    let bit_identical = raw.logits.len() == tensor.logits.len()
        && raw
            .logits
            .iter()
            .zip(&tensor.logits)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    let max_abs_delta = raw
        .logits
        .iter()
        .zip(&tensor.logits)
        .map(|(a, b)| (a - b).abs() as f64)
        .fold(0.0f64, f64::max);
    Ok(StreamProbe {
        bit_identical,
        classes: raw.logits.len(),
        max_abs_delta,
        preprocess_us: raw.preprocess_us,
    })
}
