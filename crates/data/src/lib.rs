//! # axnn-data
//!
//! SynthCIFAR: a procedurally generated 10-class image-classification
//! dataset standing in for CIFAR-10 (see the substitution table in
//! `DESIGN.md`).
//!
//! Each class is a parametric texture family (stripes at several
//! orientations, checkerboards, blobs, rings, gradients, …) rendered with
//! per-image random phase/frequency/amplitude plus additive Gaussian noise,
//! so the task is genuinely statistical: CNNs reach high accuracy, harsh
//! approximation degrades it, and fine-tuning recovers it — the behaviours
//! the paper's experiments measure.
//!
//! # Example
//!
//! ```
//! use axnn_data::SynthCifar;
//!
//! let data = SynthCifar::new(16).with_noise(0.3);
//! let (train, test) = data.generate(200, 50, 42);
//! assert_eq!(train.len(), 200);
//! assert_eq!(test.inputs.shape(), &[50, 3, 16, 16]);
//! assert!(test.labels.iter().all(|&l| l < 10));
//! ```

pub mod loader;
mod patterns;
pub mod resize;

use axnn_nn::train::Dataset;
use axnn_rng::Rng;
use axnn_tensor::Tensor;

/// Number of classes — matching CIFAR-10.
pub const CLASSES: usize = 10;

/// Generator for the SynthCIFAR dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthCifar {
    hw: usize,
    noise: f32,
}

impl SynthCifar {
    /// Creates a generator for square `hw × hw` RGB images.
    ///
    /// # Panics
    ///
    /// Panics if `hw < 4` (patterns need a minimum canvas).
    pub fn new(hw: usize) -> Self {
        assert!(hw >= 4, "images must be at least 4x4");
        Self { hw, noise: 0.25 }
    }

    /// Sets the additive Gaussian noise sigma (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `noise` is negative or not finite.
    pub fn with_noise(mut self, noise: f32) -> Self {
        assert!(
            noise >= 0.0 && noise.is_finite(),
            "noise must be finite and non-negative"
        );
        self.noise = noise;
        self
    }

    /// Image side length.
    pub fn hw(&self) -> usize {
        self.hw
    }

    /// Additive Gaussian noise sigma.
    pub fn noise(&self) -> f32 {
        self.noise
    }

    /// Renders one image of class `label`.
    ///
    /// # Panics
    ///
    /// Panics if `label >= 10`.
    pub fn render(&self, label: usize, rng: &mut Rng) -> Tensor {
        assert!(label < CLASSES, "label {label} out of range");
        let mut img = patterns::render_class(label, self.hw, rng);
        if self.noise > 0.0 {
            for v in img.as_mut_slice() {
                *v += rng.normal(0.0, self.noise);
            }
        }
        img
    }

    /// Generates disjoint train/test splits with balanced classes.
    ///
    /// Deterministic in `seed`; the test split uses an independent RNG
    /// stream so changing `train_size` never leaks into test images.
    pub fn generate(&self, train_size: usize, test_size: usize, seed: u64) -> (Dataset, Dataset) {
        (
            self.generate_split(train_size, seed ^ 0x7261_696e),
            self.generate_split(test_size, seed ^ 0x7465_7374),
        )
    }

    fn generate_split(&self, size: usize, seed: u64) -> Dataset {
        let mut rng = Rng::seed(seed);
        let mut images = Vec::with_capacity(size);
        let mut labels = Vec::with_capacity(size);
        for i in 0..size {
            let label = i % CLASSES;
            images.push(self.render(label, &mut rng));
            labels.push(label);
        }
        // Shuffle so mini-batches mix classes.
        for i in (1..size).rev() {
            let j = rng.gen_range(0..=i);
            images.swap(i, j);
            labels.swap(i, j);
        }
        let inputs = if images.is_empty() {
            Tensor::zeros(&[0, 3, self.hw, self.hw])
        } else {
            Tensor::stack(&images).expect("same shapes by construction")
        };
        Dataset::new(inputs, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_are_deterministic_and_disjoint_streams() {
        let gen = SynthCifar::new(8);
        let (a_train, a_test) = gen.generate(40, 20, 7);
        let (b_train, b_test) = gen.generate(40, 20, 7);
        assert_eq!(a_train.inputs.as_slice(), b_train.inputs.as_slice());
        assert_eq!(a_test.labels, b_test.labels);
        // Train and test streams differ.
        assert_ne!(
            &a_train.inputs.as_slice()[..40],
            &a_test.inputs.as_slice()[..40]
        );
    }

    #[test]
    fn classes_are_balanced() {
        let gen = SynthCifar::new(8);
        let (train, _) = gen.generate(100, 10, 1);
        let mut counts = [0usize; CLASSES];
        for &l in &train.labels {
            counts[l] += 1;
        }
        assert!(counts.iter().all(|&c| c == 10), "{counts:?}");
    }

    #[test]
    fn images_are_bounded_and_distinct_across_classes() {
        let gen = SynthCifar::new(16).with_noise(0.0);
        let mut rng = Rng::seed(3);
        let imgs: Vec<Tensor> = (0..CLASSES).map(|c| gen.render(c, &mut rng)).collect();
        for img in &imgs {
            assert_eq!(img.shape(), &[3, 16, 16]);
            assert!(img.abs_max() <= 2.0, "patterns stay bounded");
        }
        // Any two class prototypes differ substantially.
        for i in 0..CLASSES {
            for j in (i + 1)..CLASSES {
                let d = (&imgs[i] - &imgs[j]).sq_norm();
                assert!(d > 1.0, "classes {i} and {j} look identical");
            }
        }
    }

    #[test]
    fn instances_within_a_class_vary() {
        let gen = SynthCifar::new(16).with_noise(0.0);
        let mut rng = Rng::seed(4);
        let a = gen.render(0, &mut rng);
        let b = gen.render(0, &mut rng);
        assert!((&a - &b).sq_norm() > 1e-3, "instance randomness missing");
    }

    #[test]
    fn noise_increases_variance() {
        let quiet = SynthCifar::new(8).with_noise(0.0);
        let loud = SynthCifar::new(8).with_noise(0.5);
        let mut r1 = Rng::seed(5);
        let mut r2 = Rng::seed(5);
        let a = quiet.render(2, &mut r1);
        let b = loud.render(2, &mut r2);
        assert!((&a - &b).sq_norm() > 0.1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn render_rejects_bad_label() {
        let gen = SynthCifar::new(8);
        let mut rng = Rng::seed(0);
        let _ = gen.render(10, &mut rng);
    }
}
