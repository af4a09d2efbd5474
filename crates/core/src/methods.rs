//! The fine-tuning methods compared in the paper's Tables V–VII.
//!
//! All five methods share the same SGD loop and differ only in the
//! per-batch loss and in whether gradient estimation is wired into the
//! approximate executors:
//!
//! | method        | loss                      | backward            |
//! |---------------|---------------------------|---------------------|
//! | `Normal`      | hard CE (eq. 1)           | STE                 |
//! | `Alpha`       | hard CE + α‖w‖²           | STE                 |
//! | `Ge`          | hard CE                   | STE × (1+K) (eq. 12)|
//! | `ApproxKd`    | hard CE + soft KD (eq. 3) | STE                 |
//! | `ApproxKdGe`  | hard CE + soft KD (eq. 3) | STE × (1+K)         |
//!
//! Alpha-regularization note: the exact regularizer of ProxSim \[5\] is not
//! reproducible from the paper text; following its reported behaviour
//! (α ∈ [1e-12, 1e-6], "slightly better than normal early, similar later")
//! it is implemented as an L2 penalty `α·Σw²` folded into the optimizer's
//! weight decay (gradient `2αw`). See `DESIGN.md`.

use crate::drift::DriftMonitor;
use crate::kd::kd_loss;
use axnn_nn::loss::softmax_cross_entropy;
use axnn_nn::train::{evaluate, Dataset};
use axnn_nn::{Layer, Mode, Sequential, Sgd, StepDecay};
use axnn_tensor::Tensor;
use std::time::Instant;

/// One of the paper's five fine-tuning methods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    /// Passive retraining \[4\]: hard loss, plain STE.
    Normal,
    /// Alpha-regularization \[5\]: hard loss + `α·Σw²`, plain STE.
    Alpha {
        /// Regularization strength (paper: best at `1e-11`).
        alpha: f32,
    },
    /// Gradient estimation only: hard loss, `(1+K)`-scaled STE.
    Ge,
    /// Two-stage knowledge distillation (stage 2): hard + soft loss at `t2`.
    ApproxKd {
        /// Stage-2 distillation temperature (`T2`).
        t2: f32,
    },
    /// The paper's full method: ApproxKD + gradient estimation.
    ApproxKdGe {
        /// Stage-2 distillation temperature (`T2`).
        t2: f32,
    },
}

impl Method {
    /// The paper's default alpha-regularization baseline (`α = 1e-11`).
    pub fn alpha_default() -> Self {
        Method::Alpha { alpha: 1e-11 }
    }

    /// ApproxKD at temperature `t2`.
    pub fn approx_kd(t2: f32) -> Self {
        Method::ApproxKd { t2 }
    }

    /// ApproxKD + GE at temperature `t2`.
    pub fn approx_kd_ge(t2: f32) -> Self {
        Method::ApproxKdGe { t2 }
    }

    /// The distillation temperature, when the method distills.
    pub fn temperature(&self) -> Option<f32> {
        match self {
            Method::ApproxKd { t2 } | Method::ApproxKdGe { t2 } => Some(*t2),
            _ => None,
        }
    }

    /// Whether gradient estimation (a fitted error model) should be wired
    /// into the approximate executors.
    pub fn uses_ge(&self) -> bool {
        matches!(self, Method::Ge | Method::ApproxKdGe { .. })
    }

    /// The L2 regularization strength (zero for all but `Alpha`).
    pub fn alpha(&self) -> f32 {
        match self {
            Method::Alpha { alpha } => *alpha,
            _ => 0.0,
        }
    }

    /// Column label used by the table harnesses.
    pub fn label(&self) -> &'static str {
        match self {
            Method::Normal => "Normal",
            Method::Alpha { .. } => "alpha",
            Method::Ge => "GE",
            Method::ApproxKd { .. } => "ApproxKD",
            Method::ApproxKdGe { .. } => "ApproxKD+GE",
        }
    }
}

/// Hyper-parameters of one fine-tuning stage.
///
/// The paper's approximation stage: 30 epochs, batch 128, learning rate
/// 1e-4 with decay 0.1 every 15 epochs, and a method-dependent `T2`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageConfig {
    /// Fine-tuning epochs (`e1`/`e2` of Algorithm 1).
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Learning-rate schedule.
    pub lr: StepDecay,
    /// SGD momentum.
    pub momentum: f32,
    /// Evaluate the test set every epoch (needed for Fig. 4).
    pub track_epochs: bool,
    /// Global gradient-norm clip applied after each backward pass
    /// (`None` disables). Stabilises the occasional huge STE gradient an
    /// approximate network produces, identically for every method.
    pub clip_norm: Option<f32>,
}

impl StageConfig {
    /// The paper's approximation-stage hyper-parameters.
    pub fn paper() -> Self {
        Self {
            epochs: 30,
            batch: 128,
            lr: StepDecay::new(1e-4, 15, 0.1),
            momentum: 0.9,
            track_epochs: false,
            clip_norm: Some(10.0),
        }
    }

    /// A CPU-scale configuration for the mini experiments: fewer epochs and
    /// a fine-tuning rate suited to the width-reduced models (at the
    /// `ExperimentEnv::quick` scale, rates above ~1e-3 destabilize the
    /// quantized student).
    pub fn quick() -> Self {
        Self {
            epochs: 3,
            batch: 32,
            lr: StepDecay::new(5e-4, 2, 0.5),
            momentum: 0.9,
            track_epochs: false,
            clip_norm: Some(10.0),
        }
    }

    /// Builder-style epoch override.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Builder-style per-epoch-tracking override.
    pub fn with_tracking(mut self, track: bool) -> Self {
        self.track_epochs = track;
        self
    }

    /// Builder-style learning-rate override.
    pub fn with_lr(mut self, lr: StepDecay) -> Self {
        self.lr = lr;
        self
    }
}

/// Outcome of one fine-tuning run.
#[derive(Debug, Clone, PartialEq)]
pub struct FineTuneResult {
    /// Method label.
    pub method: String,
    /// Test accuracy before any fine-tuning (the tables' "Initial Acc.").
    pub initial_acc: f32,
    /// Test accuracy after the final epoch.
    pub final_acc: f32,
    /// Best test accuracy seen (equals `final_acc` unless tracking).
    pub best_acc: f32,
    /// Per-epoch test accuracies (empty unless `track_epochs`).
    pub per_epoch_acc: Vec<f32>,
    /// Wall-clock seconds spent in the optimization loop.
    pub seconds: f64,
    /// `eps_drift` events emitted by the run's [`DriftMonitor`] (zero when
    /// no monitor was attached; see [`fine_tune_monitored`]).
    pub drift_events: usize,
}

/// Rescales all accumulated gradients so their global L2 norm does not
/// exceed `max_norm`.
///
/// # Panics
///
/// Panics if `max_norm` is not positive.
pub fn clip_gradients(net: &mut Sequential, max_norm: f32) {
    assert!(max_norm > 0.0, "clip norm must be positive");
    let mut total = 0.0f32;
    net.visit_params(&mut |p| total += p.grad.sq_norm());
    let norm = total.sqrt();
    if norm > max_norm && norm.is_finite() {
        let scale = max_norm / norm;
        net.visit_params(&mut |p| p.grad.scale(scale));
    }
}

/// Fine-tunes `student` on `train` and reports test accuracy on `test`.
///
/// `teacher` supplies precomputed teacher logits over the **whole training
/// set in dataset order** plus the distillation temperature; pass `None`
/// for the non-KD methods. `alpha` is the L2 regularization strength
/// (zero for all but the alpha baseline). Gradient estimation, when used,
/// is already wired into the student's executors and needs no handling
/// here — the backward pass applies `(1+K)` automatically.
///
/// # Panics
///
/// Panics if teacher logits have a different leading dimension than the
/// training set.
pub fn fine_tune(
    student: &mut Sequential,
    teacher: Option<(&Tensor, f32)>,
    train: &Dataset,
    test: &Dataset,
    cfg: &StageConfig,
    alpha: f32,
    method_label: &str,
) -> FineTuneResult {
    fine_tune_monitored(
        student,
        teacher,
        train,
        test,
        cfg,
        alpha,
        method_label,
        None,
    )
}

/// [`fine_tune`] with an optional ε-drift monitor.
///
/// When `monitor` is present it is [`poll`](DriftMonitor::poll)ed once per
/// epoch, after the epoch's optimization steps: the approximate executors
/// have by then folded a fresh epoch of observed fit residuals into the
/// `ge_res:` histograms. Trips are counted in
/// [`FineTuneResult::drift_events`]. With health telemetry enabled, each
/// epoch also records every GEMM layer's post-clip weight-gradient norm
/// (at the epoch's final step) into the `grad_norm:` histogram family.
///
/// # Panics
///
/// Panics if teacher logits have a different leading dimension than the
/// training set.
#[allow(clippy::too_many_arguments)]
pub fn fine_tune_monitored(
    student: &mut Sequential,
    teacher: Option<(&Tensor, f32)>,
    train: &Dataset,
    test: &Dataset,
    cfg: &StageConfig,
    alpha: f32,
    method_label: &str,
    mut monitor: Option<&mut DriftMonitor>,
) -> FineTuneResult {
    if let Some((logits, _)) = teacher {
        assert_eq!(
            logits.shape()[0],
            train.len(),
            "teacher logits must cover the training set"
        );
    }
    let initial_acc = evaluate(student, test, cfg.batch);
    let mut opt = Sgd::new(cfg.lr.lr_at(0))
        .momentum(cfg.momentum)
        .weight_decay(2.0 * alpha);
    let start = Instant::now();
    let mut per_epoch = Vec::new();
    let mut best = initial_acc;
    let mut final_acc = initial_acc;
    let mut drift_events = 0usize;
    for epoch in 0..cfg.epochs {
        opt.set_lr(cfg.lr.lr_at(epoch));
        let mut offset = 0usize;
        for (x, y) in train.batches(cfg.batch) {
            student.zero_grad();
            let logits = student.forward(&x, Mode::Train);
            let (_, dlogits) = match teacher {
                Some((tl, t)) => {
                    let batch_teacher = tl.slice_outer(offset, offset + y.len());
                    kd_loss(&logits, &batch_teacher, y, t)
                }
                None => softmax_cross_entropy(&logits, y),
            };
            student.backward_params(&dlogits);
            if let Some(max_norm) = cfg.clip_norm {
                clip_gradients(student, max_norm);
            }
            opt.step(student);
            offset += y.len();
        }
        if axnn_obs::health_enabled() {
            record_grad_norms(student);
        }
        if let Some(m) = monitor.as_deref_mut() {
            if m.poll() {
                drift_events += 1;
            }
        }
        if cfg.track_epochs || epoch + 1 == cfg.epochs {
            final_acc = evaluate(student, test, cfg.batch);
            best = best.max(final_acc);
            if cfg.track_epochs {
                per_epoch.push(final_acc);
            }
        }
    }
    FineTuneResult {
        method: method_label.to_string(),
        initial_acc,
        final_acc,
        best_acc: best,
        per_epoch_acc: per_epoch,
        seconds: start.elapsed().as_secs_f64(),
        drift_events,
    }
}

/// Records each GEMM layer's current weight-gradient L2 norm into the
/// `grad_norm:<label>` histograms — the per-epoch gradient-health metric.
/// The gradients observed are those of the epoch's final optimization step,
/// after any clipping (the values SGD actually consumed).
fn record_grad_norms(net: &mut Sequential) {
    net.visit_gemm_cores(&mut |core| {
        let norm = core.weight.grad.sq_norm().sqrt();
        axnn_obs::record_value(
            &core.grad_norm_label,
            axnn_obs::HistSpec::grad_norms(),
            norm as f64,
        );
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use axnn_nn::train::logits_over;
    use axnn_nn::{Activation, ActivationKind, Linear};
    use axnn_rng::Rng;
    use axnn_tensor::init;

    fn toy(n: usize, rng: &mut Rng) -> Dataset {
        let mut inputs = init::uniform(&[n, 4], -1.0, 1.0, rng);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let s: f32 = inputs.as_slice()[i * 4..i * 4 + 4].iter().sum();
            let l = usize::from(s > 0.0);
            labels.push(l);
            for v in &mut inputs.as_mut_slice()[i * 4..i * 4 + 4] {
                *v += 0.2 * (l as f32 * 2.0 - 1.0);
            }
        }
        Dataset::new(inputs, labels)
    }

    fn mlp(rng: &mut Rng) -> Sequential {
        Sequential::new(vec![
            Box::new(Linear::new(4, 10, true, rng)),
            Box::new(Activation::new(ActivationKind::Relu)),
            Box::new(Linear::new(10, 2, true, rng)),
        ])
    }

    #[test]
    fn method_properties() {
        assert_eq!(Method::Normal.temperature(), None);
        assert!(!Method::Normal.uses_ge());
        assert!(Method::Ge.uses_ge());
        assert_eq!(Method::approx_kd(5.0).temperature(), Some(5.0));
        assert!(Method::approx_kd_ge(10.0).uses_ge());
        assert_eq!(Method::alpha_default().alpha(), 1e-11);
        assert_eq!(Method::approx_kd_ge(5.0).label(), "ApproxKD+GE");
        assert_eq!(Method::Normal.alpha(), 0.0);
    }

    #[test]
    fn fine_tune_improves_accuracy_without_teacher() {
        let mut rng = Rng::seed(130);
        let train = toy(128, &mut rng);
        let test = toy(64, &mut rng);
        let mut net = mlp(&mut rng);
        let cfg = StageConfig {
            epochs: 20,
            batch: 32,
            lr: StepDecay::new(0.1, 10, 0.5),
            momentum: 0.9,
            track_epochs: true,
            clip_norm: Some(10.0),
        };
        let r = fine_tune(&mut net, None, &train, &test, &cfg, 0.0, "Normal");
        assert!(r.final_acc > r.initial_acc);
        assert!(r.final_acc > 0.9, "{:?}", r.final_acc);
        assert_eq!(r.per_epoch_acc.len(), 20);
        assert!(r.best_acc >= r.final_acc);
        assert!(r.seconds > 0.0);
        assert_eq!(r.drift_events, 0, "no monitor attached");
    }

    #[test]
    fn monitored_fine_tune_counts_drift_trips_and_records_grad_norms() {
        let _g = crate::obs_serial();
        axnn_obs::reset();
        axnn_obs::set_health_enabled(true);
        let mut rng = Rng::seed(140);
        let train = toy(64, &mut rng);
        let test = toy(32, &mut rng);
        // Layer shapes no other test here uses: health recording is
        // process-global while this test runs, so concurrent fine-tunes of
        // `mlp()` would otherwise add to the same `grad_norm:` hists.
        let mut net = Sequential::new(vec![
            Box::new(Linear::new(4, 13, true, &mut rng)),
            Box::new(Activation::new(ActivationKind::Relu)),
            Box::new(Linear::new(13, 2, true, &mut rng)),
        ]);
        // Monitor over a perfect fit (threshold = the 1.0 absolute floor);
        // pre-load the registry with residuals far beyond it so the first
        // epoch's poll trips.
        let fit = crate::ge::fit_error_model(
            &axnn_axmul::ExactMul,
            crate::ge::McConfig::default(),
            &mut Rng::seed(1),
        );
        let mut monitor =
            crate::drift::DriftMonitor::new(&fit, crate::drift::DriftConfig::default());
        for _ in 0..300 {
            axnn_obs::record_value("ge_res:fake", axnn_obs::HistSpec::eps(), 50.0);
        }
        let cfg = StageConfig {
            epochs: 2,
            batch: 32,
            lr: StepDecay::new(0.05, 10, 1.0),
            momentum: 0.9,
            track_epochs: false,
            clip_norm: Some(10.0),
        };
        let r = fine_tune_monitored(
            &mut net,
            None,
            &train,
            &test,
            &cfg,
            0.0,
            "Normal",
            Some(&mut monitor),
        );
        assert_eq!(r.drift_events, 1, "trips once despite two epochs");
        assert!(monitor.is_stale());
        // One grad-norm record per epoch for each of the MLP's GEMM layers.
        for label in ["grad_norm:fc(4->13)", "grad_norm:fc(13->2)"] {
            let norms = axnn_obs::hists_with_prefix(label);
            assert_eq!(norms.len(), 1, "{label}");
            assert_eq!(norms[0].1.count(), 2, "{label}: one record per epoch");
        }
        axnn_obs::set_health_enabled(false);
        axnn_obs::reset();
    }

    #[test]
    fn distillation_pulls_student_toward_teacher() {
        let mut rng = Rng::seed(131);
        let train = toy(128, &mut rng);
        let test = toy(64, &mut rng);
        // Teacher: a trained network.
        let mut teacher = mlp(&mut rng);
        let cfg = StageConfig {
            epochs: 25,
            batch: 32,
            lr: StepDecay::new(0.1, 15, 0.5),
            momentum: 0.9,
            track_epochs: false,
            clip_norm: Some(10.0),
        };
        fine_tune(&mut teacher, None, &train, &test, &cfg, 0.0, "teacher");
        let teacher_logits = logits_over(&mut teacher, &train, 32);

        // Student distilled with KD reaches teacher-level accuracy.
        let mut student = mlp(&mut rng);
        let r = fine_tune(
            &mut student,
            Some((&teacher_logits, 2.0)),
            &train,
            &test,
            &cfg,
            0.0,
            "ApproxKD",
        );
        assert!(r.final_acc > 0.9, "distilled accuracy {}", r.final_acc);
    }

    #[test]
    fn alpha_decay_shrinks_weight_norm_vs_normal() {
        let mut rng = Rng::seed(132);
        let train = toy(64, &mut rng);
        let test = toy(32, &mut rng);
        let cfg = StageConfig {
            epochs: 10,
            batch: 32,
            lr: StepDecay::new(0.1, 10, 1.0),
            momentum: 0.0,
            track_epochs: false,
            clip_norm: None,
        };
        let mut seed_net = Rng::seed(999);
        let mut a = mlp(&mut seed_net);
        let mut seed_net = Rng::seed(999);
        let mut b = mlp(&mut seed_net);
        fine_tune(&mut a, None, &train, &test, &cfg, 0.0, "Normal");
        fine_tune(&mut b, None, &train, &test, &cfg, 0.05, "alpha");
        let norm = |net: &mut Sequential| {
            let mut n = 0.0;
            net.visit_params(&mut |p| {
                if p.decay {
                    n += p.value.sq_norm();
                }
            });
            n
        };
        assert!(norm(&mut b) < norm(&mut a));
    }

    #[test]
    #[should_panic(expected = "teacher logits must cover")]
    fn rejects_mismatched_teacher_logits() {
        let mut rng = Rng::seed(133);
        let train = toy(16, &mut rng);
        let test = toy(8, &mut rng);
        let mut net = mlp(&mut rng);
        let bad = Tensor::zeros(&[4, 2]);
        let _ = fine_tune(
            &mut net,
            Some((&bad, 2.0)),
            &train,
            &test,
            &StageConfig::quick(),
            0.0,
            "x",
        );
    }
}
