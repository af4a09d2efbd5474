//! Per-layer resiliency analysis (the partial-approximation toolkit of the
//! paper's related work \[12\]–\[14\]).
//!
//! Approximating one layer at a time and measuring the accuracy drop ranks
//! layers by their sensitivity to multiplier error. The ranking drives
//! *resiliency-based partial approximation*: approximate the most resilient
//! layers first, keeping the sensitive ones exact — the regime the paper
//! contrasts with its full-approximation + fine-tuning approach.

use crate::pipeline::ExperimentEnv;
use axnn_axmul::catalog::MultiplierSpec;
use axnn_nn::Layer;
use axnn_proxsim::{LayerAssignment, SignedLut};
use std::sync::Arc;

/// Sensitivity of one GEMM layer to a given approximate multiplier.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSensitivity {
    /// Layer index in network order.
    pub index: usize,
    /// Layer label, e.g. `conv3x3(16->32)/s2g1`.
    pub label: String,
    /// Test accuracy with *only* this layer approximated.
    pub solo_accuracy: f32,
    /// Accuracy drop relative to the unapproximated baseline
    /// (positive = this layer hurts).
    pub drop: f32,
}

/// Result of a resiliency sweep: per-layer sensitivities plus the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct ResiliencyReport {
    /// Fully-quantized (every layer 8A4W, none approximated) baseline
    /// accuracy.
    pub baseline: f32,
    /// One entry per GEMM layer, in network order.
    pub layers: Vec<LayerSensitivity>,
}

impl ResiliencyReport {
    /// Layer indices ordered from most resilient (smallest drop) to most
    /// sensitive.
    pub fn resilient_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.layers.len()).collect();
        order.sort_by(|&a, &b| self.layers[a].drop.total_cmp(&self.layers[b].drop));
        order.into_iter().map(|i| self.layers[i].index).collect()
    }

    /// The most sensitive layer, if any.
    pub fn most_sensitive(&self) -> Option<&LayerSensitivity> {
        self.layers.iter().max_by(|a, b| a.drop.total_cmp(&b.drop))
    }
}

/// Measures per-layer sensitivity to `spec`'s multiplier: for every GEMM
/// layer, approximate only that layer (no fine-tuning, every other layer
/// 8A4W) and evaluate against the all-8A4W baseline.
///
/// `batch` is the calibration and evaluation batch size.
///
/// # Panics
///
/// Panics if the environment's quantization stage has not run.
pub fn analyze_resiliency(
    env: &mut ExperimentEnv,
    spec: &MultiplierSpec,
    batch: usize,
) -> ResiliencyReport {
    let mut labels = Vec::new();
    env.fp_net_mut()
        .visit_gemm_cores(&mut |core| labels.push(core.label.clone()));
    let n = labels.len();
    // Baseline: zero layers approximated.
    let baseline = env.assigned_accuracy(&vec![None; n], batch);

    let lut = Arc::new(SignedLut::build(spec.build().as_ref()));
    let layers = labels
        .into_iter()
        .enumerate()
        .map(|(target, label)| {
            let solo: Vec<LayerAssignment> = (0..n)
                .map(|i| (i == target).then(|| (Arc::clone(&lut), None)))
                .collect();
            let solo_accuracy = env.assigned_accuracy(&solo, batch);
            LayerSensitivity {
                index: target,
                label,
                solo_accuracy,
                drop: baseline - solo_accuracy,
            }
        })
        .collect();
    ResiliencyReport { baseline, layers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{ModelKind, TeacherSource};
    use crate::{ExperimentEnv, Method, StageConfig};
    use axnn_axmul::catalog;
    use axnn_models::ModelConfig;
    use axnn_nn::StepDecay;

    fn prepared_env() -> ExperimentEnv {
        let cfg = ModelConfig::mini().with_width(0.2).with_input_hw(8);
        let mut env = ExperimentEnv::new(ModelKind::ResNet20, cfg, 100, 50, 17);
        let stage = StageConfig {
            epochs: 8,
            batch: 16,
            lr: StepDecay::new(0.05, 4, 0.5),
            momentum: 0.9,
            track_epochs: false,
            clip_norm: Some(10.0),
        };
        env.train_fp(&stage);
        let ft = StageConfig {
            epochs: 1,
            batch: 16,
            lr: StepDecay::new(1e-3, 1, 0.5),
            momentum: 0.9,
            track_epochs: false,
            clip_norm: Some(10.0),
        };
        env.quantization_stage(&ft, true);
        env
    }

    #[test]
    fn report_covers_every_layer_and_orders_consistently() {
        let mut env = prepared_env();
        let spec = catalog::by_id("trunc5").expect("catalogued");
        let report = analyze_resiliency(&mut env, spec, 16);
        assert_eq!(report.layers.len(), env.gemm_layer_count());
        for (i, l) in report.layers.iter().enumerate() {
            assert_eq!(l.index, i);
            assert!(!l.label.is_empty());
            assert!((l.drop - (report.baseline - l.solo_accuracy)).abs() < 1e-6);
        }
        let order = report.resilient_order();
        assert_eq!(order.len(), report.layers.len());
        // The ordering is sorted by drop.
        for w in order.windows(2) {
            let a = report.layers.iter().find(|l| l.index == w[0]).unwrap();
            let b = report.layers.iter().find(|l| l.index == w[1]).unwrap();
            assert!(a.drop <= b.drop);
        }
        assert!(report.most_sensitive().is_some());
    }

    /// The baseline is the stage-2 starting point with no layer
    /// approximated: every layer 8A4W, exactly as the solo rows leave the
    /// layers they do not approximate.
    #[test]
    fn baseline_is_the_all_8a4w_stage_two_start() {
        let mut env = prepared_env();
        let spec = catalog::by_id("trunc5").expect("catalogued");
        let report = analyze_resiliency(&mut env, spec, 16);
        let stage = StageConfig {
            epochs: 0,
            batch: 16,
            lr: StepDecay::new(1e-3, 1, 0.5),
            momentum: 0.9,
            track_epochs: false,
            clip_norm: None,
        };
        let none = env.approximation_stage_full(
            spec,
            Method::Normal,
            &stage,
            TeacherSource::Quantized,
            |_, _| false,
        );
        assert_eq!(report.baseline.to_bits(), none.initial_acc.to_bits());
    }

    #[test]
    fn mild_multiplier_hurts_less_than_harsh_one() {
        let mut env = prepared_env();
        let mild = analyze_resiliency(&mut env, catalog::by_id("trunc1").unwrap(), 16);
        let harsh = analyze_resiliency(&mut env, catalog::by_id("trunc5").unwrap(), 16);
        let total = |r: &ResiliencyReport| r.layers.iter().map(|l| l.drop.max(0.0)).sum::<f32>();
        assert!(
            total(&mild) <= total(&harsh) + 0.02,
            "trunc1 total drop {} vs trunc5 {}",
            total(&mild),
            total(&harsh)
        );
    }
}
