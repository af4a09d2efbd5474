//! Generic training and evaluation helpers.
//!
//! The fine-tuning *methods* of the paper (normal, alpha-regularized,
//! ApproxKD, GE, ApproxKD+GE) live in the `approxkd` crate; this module
//! provides the method-agnostic plumbing they share: batched epochs over a
//! dataset, loss plug-in points, and evaluation.

use crate::layer::{Layer, Mode};
use crate::loss::{accuracy, softmax_cross_entropy};
use crate::seq::Sequential;
use crate::sgd::Sgd;
use axnn_tensor::Tensor;

/// A labelled classification dataset held in memory: images `[N, C, H, W]`
/// and class indices.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Input tensor `[N, ...]`.
    pub inputs: Tensor,
    /// One label per input.
    pub labels: Vec<usize>,
}

impl Dataset {
    /// Creates a dataset.
    ///
    /// # Panics
    ///
    /// Panics if the label count does not match the leading input
    /// dimension, or if any *non-leading* dimension is zero — a zero
    /// feature dimension only blows up much later, deep inside a forward
    /// pass, so it is rejected here with a clear message. (An empty
    /// dataset, `N == 0`, stays legal: evaluation over it is well-defined.)
    pub fn new(inputs: Tensor, labels: Vec<usize>) -> Self {
        assert_eq!(
            inputs.shape()[0],
            labels.len(),
            "label count must equal leading input dimension"
        );
        assert!(
            inputs.shape().iter().skip(1).all(|&d| d > 0),
            "dataset input shape {:?} has a zero-sized feature dimension",
            inputs.shape()
        );
        Self { inputs, labels }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Iterates over `(inputs, labels)` mini-batches of size `batch`.
    /// The final batch may be smaller.
    pub fn batches(&self, batch: usize) -> impl Iterator<Item = (Tensor, &[usize])> + '_ {
        assert!(batch > 0, "batch size must be positive");
        let n = self.len();
        (0..n).step_by(batch).map(move |start| {
            let end = (start + batch).min(n);
            (
                self.inputs.slice_outer(start, end),
                &self.labels[start..end],
            )
        })
    }
}

/// Per-batch gradient source used by [`train_epoch`]: maps logits and labels
/// to `(scalar loss, dlogits)`.
///
/// The plain cross-entropy trainer is [`hard_loss`]; the `approxkd` crate
/// supplies distillation variants.
pub type LossFn<'a> = dyn FnMut(&Tensor, &[usize]) -> (f32, Tensor) + 'a;

/// The hard-label cross-entropy loss as a [`LossFn`].
pub fn hard_loss(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    softmax_cross_entropy(logits, labels)
}

/// Runs one optimization epoch; returns the mean per-batch loss.
///
/// For every mini-batch: zero gradients, forward in [`Mode::Train`], obtain
/// `(loss, dlogits)` from `loss_fn`, backward, optimizer step.
pub fn train_epoch(
    net: &mut Sequential,
    data: &Dataset,
    batch: usize,
    opt: &mut Sgd,
    loss_fn: &mut LossFn<'_>,
) -> f32 {
    let _span = axnn_obs::span("train_epoch");
    let mut total = 0.0f32;
    let mut batches = 0usize;
    for (x, y) in data.batches(batch) {
        net.zero_grad();
        let logits = net.forward(&x, Mode::Train);
        let (loss, dlogits) = loss_fn(&logits, y);
        net.backward_params(&dlogits);
        opt.step(net);
        total += loss;
        batches += 1;
    }
    if batches == 0 {
        0.0
    } else {
        total / batches as f32
    }
}

/// Evaluates classification accuracy over a dataset in [`Mode::Eval`].
pub fn evaluate(net: &mut Sequential, data: &Dataset, batch: usize) -> f32 {
    evaluate_with(|x| net.forward(x, Mode::Eval), data, batch)
}

/// [`evaluate`] with an arbitrary inference function — the hook the
/// compiled [`GraphExecutor`](crate::GraphExecutor) (or any other
/// inference path) plugs into.
pub fn evaluate_with(
    mut forward: impl FnMut(&Tensor) -> Tensor,
    data: &Dataset,
    batch: usize,
) -> f32 {
    let _span = axnn_obs::span("evaluate");
    let mut correct = 0.0f32;
    let mut count = 0usize;
    for (x, y) in data.batches(batch) {
        let logits = forward(&x);
        correct += accuracy(&logits, y) * y.len() as f32;
        count += y.len();
    }
    if count == 0 {
        0.0
    } else {
        correct / count as f32
    }
}

/// Runs one forward pass per batch in [`Mode::Calibrate`] so that quantizing
/// executors can record activation statistics.
pub fn calibrate(net: &mut Sequential, data: &Dataset, batch: usize, max_batches: usize) {
    for (i, (x, _)) in data.batches(batch).enumerate() {
        if i >= max_batches {
            break;
        }
        net.forward(&x, Mode::Calibrate);
    }
}

/// Collects the network's logits over the whole dataset (eval mode) —
/// used to precompute teacher outputs for knowledge distillation.
pub fn logits_over(net: &mut Sequential, data: &Dataset, batch: usize) -> Tensor {
    let mut parts = Vec::new();
    for (x, _) in data.batches(batch) {
        parts.push(net.forward(&x, Mode::Eval));
    }
    let mut all = Vec::new();
    let cols = parts.first().map_or(0, |p| p.shape()[1]);
    for p in &parts {
        all.extend_from_slice(p.as_slice());
    }
    Tensor::from_vec(all, &[data.len(), cols]).expect("concatenated logits")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, ActivationKind, Linear};
    use axnn_rng::Rng;
    use axnn_tensor::init;

    /// A linearly-separable two-class toy problem.
    fn toy_data(n: usize, rng: &mut Rng) -> Dataset {
        let mut inputs = init::uniform(&[n, 2], -1.0, 1.0, rng);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let x = inputs.as_slice()[i * 2];
            let y = inputs.as_slice()[i * 2 + 1];
            labels.push(usize::from(x + y > 0.0));
        }
        // Add margin.
        for (i, &label) in labels.iter().enumerate() {
            let l = label as f32 * 2.0 - 1.0;
            inputs.as_mut_slice()[i * 2] += 0.3 * l;
            inputs.as_mut_slice()[i * 2 + 1] += 0.3 * l;
        }
        Dataset::new(inputs, labels)
    }

    fn mlp(rng: &mut Rng) -> Sequential {
        Sequential::new(vec![
            Box::new(Linear::new(2, 8, true, rng)),
            Box::new(Activation::new(ActivationKind::Relu)),
            Box::new(Linear::new(8, 2, true, rng)),
        ])
    }

    #[test]
    fn training_learns_separable_data() {
        let mut rng = Rng::seed(50);
        let data = toy_data(128, &mut rng);
        let mut net = mlp(&mut rng);
        let mut opt = Sgd::new(0.1).momentum(0.9);
        let acc0 = evaluate(&mut net, &data, 32);
        let mut last_loss = f32::INFINITY;
        for _ in 0..30 {
            last_loss = train_epoch(&mut net, &data, 32, &mut opt, &mut hard_loss);
        }
        let acc1 = evaluate(&mut net, &data, 32);
        assert!(acc1 > 0.95, "acc {acc0} -> {acc1}, loss {last_loss}");
    }

    #[test]
    fn batches_cover_all_examples() {
        let mut rng = Rng::seed(51);
        let data = toy_data(10, &mut rng);
        let sizes: Vec<usize> = data
            .batches(4)
            .map(|(x, y)| {
                assert_eq!(x.shape()[0], y.len());
                y.len()
            })
            .collect();
        assert_eq!(sizes, vec![4, 4, 2]);
    }

    #[test]
    fn logits_over_concatenates() {
        let mut rng = Rng::seed(52);
        let data = toy_data(7, &mut rng);
        let mut net = mlp(&mut rng);
        let logits = logits_over(&mut net, &data, 3);
        assert_eq!(logits.shape(), &[7, 2]);
        // First batch must equal a direct forward.
        let direct = net.forward(&data.inputs.slice_outer(0, 3), Mode::Eval);
        assert_eq!(logits.slice_outer(0, 3).as_slice(), direct.as_slice());
    }

    #[test]
    fn evaluate_on_empty_dataset_is_zero() {
        let mut rng = Rng::seed(53);
        let data = Dataset::new(Tensor::zeros(&[0, 2]), vec![]);
        let mut net = mlp(&mut rng);
        assert_eq!(evaluate(&mut net, &data, 4), 0.0);
    }

    #[test]
    #[should_panic(expected = "zero-sized feature dimension")]
    fn dataset_rejects_zero_feature_dimensions() {
        // A zero *feature* dim used to sail through construction and panic
        // much later inside a conv forward; it must fail loudly here. Note
        // the leading (sample) dim may still be zero — see the test above.
        let _ = Dataset::new(Tensor::zeros(&[2, 3, 0, 8]), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "label count must equal")]
    fn dataset_rejects_mismatched_labels() {
        let _ = Dataset::new(Tensor::zeros(&[2, 4]), vec![0]);
    }
}
