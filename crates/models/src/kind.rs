//! The evaluated architectures by name, and how a checkpoint restores into
//! one.

use crate::{lenet, mobilenet_v2, resnet20, resnet32, ModelConfig};
use axnn_nn::{Checkpoint, RestoreCheckpointError, Sequential};
use axnn_rng::Rng;
use std::fmt;
use std::str::FromStr;

/// Which evaluated CNN an experiment uses (paper Table I).
///
/// Parses from and displays as its command-line name
/// (`resnet20|resnet32|mobilenetv2|lenet`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// ResNet-20 \[6\] — BN folded before quantization.
    ResNet20,
    /// ResNet-32 \[6\] — BN folded before quantization.
    ResNet32,
    /// MobileNetV2 \[7\] — BN kept (paper §IV).
    MobileNetV2,
    /// LeNet-style plain CNN — the smallest credible target, used by the
    /// heterogeneous search smokes; BN folded like the ResNets.
    LeNet,
}

/// Every kind with its command-line name, in the order the unknown-name
/// error lists them.
const NAMES: [(ModelKind, &str); 4] = [
    (ModelKind::ResNet20, "resnet20"),
    (ModelKind::ResNet32, "resnet32"),
    (ModelKind::MobileNetV2, "mobilenetv2"),
    (ModelKind::LeNet, "lenet"),
];

impl ModelKind {
    /// Builds a freshly initialized network of this architecture.
    pub fn build(self, cfg: &ModelConfig, rng: &mut Rng) -> Sequential {
        match self {
            ModelKind::ResNet20 => resnet20(cfg, rng),
            ModelKind::ResNet32 => resnet32(cfg, rng),
            ModelKind::MobileNetV2 => mobilenet_v2(cfg, rng),
            ModelKind::LeNet => lenet(cfg, rng),
        }
    }

    /// Whether the paper folds this model's batch norm before quantization.
    pub fn folds_bn(self) -> bool {
        !matches!(self, ModelKind::MobileNetV2)
    }

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            ModelKind::ResNet20 => "ResNet20",
            ModelKind::ResNet32 => "ResNet32",
            ModelKind::MobileNetV2 => "MobileNetV2",
            ModelKind::LeNet => "LeNet",
        }
    }

    /// Restores a saved quantized model (the `axnn pipeline --save` format)
    /// into an architecture-matched network with exact executors.
    ///
    /// A BN-folding model is saved folded, so it is built without batch
    /// norm whatever `cfg.batch_norm` says. The checkpoint overwrites every
    /// parameter and buffer, so the fixed-seed initialization never shows
    /// in eval-mode outputs (LeNet's dropout seed, drawn from it, only acts
    /// in training mode).
    ///
    /// # Errors
    ///
    /// Returns [`RestoreCheckpointError`] if the checkpoint does not match
    /// the architecture `cfg` describes.
    pub fn restore(
        self,
        ckpt: &Checkpoint,
        cfg: &ModelConfig,
    ) -> Result<Sequential, RestoreCheckpointError> {
        let mut cfg = *cfg;
        if self.folds_bn() {
            cfg.batch_norm = false;
        }
        let mut net = self.build(&cfg, &mut Rng::seed(0xdead));
        ckpt.restore(&mut net)?;
        Ok(net)
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (_, name) = NAMES
            .iter()
            .find(|(kind, _)| kind == self)
            .expect("every kind is named");
        f.write_str(name)
    }
}

impl FromStr for ModelKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        NAMES
            .iter()
            .find(|(_, name)| *name == s)
            .map(|(kind, _)| *kind)
            .ok_or_else(|| {
                let names: Vec<&str> = NAMES.iter().map(|(_, name)| *name).collect();
                format!("unknown model '{s}' (use {})", names.join("|"))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axnn_nn::{Layer, Mode};
    use axnn_tensor::init;

    #[test]
    fn names_round_trip_and_unknown_names_list_them_all() {
        for (kind, name) in NAMES {
            assert_eq!(kind.to_string(), name);
            assert_eq!(name.parse::<ModelKind>(), Ok(kind));
        }
        assert_eq!(
            "vgg".parse::<ModelKind>(),
            Err("unknown model 'vgg' (use resnet20|resnet32|mobilenetv2|lenet)".to_string())
        );
    }

    /// A checkpoint captured from a net built with another seed restores
    /// to the same eval logits, bit for bit, for every kind.
    #[test]
    fn restore_reproduces_captured_logits_bitwise() {
        for (kind, name) in NAMES {
            let mut cfg = ModelConfig::mini().with_width(0.2).with_input_hw(8);
            cfg.batch_norm = !kind.folds_bn();
            let mut original = kind.build(&cfg, &mut Rng::seed(5));
            let ckpt = Checkpoint::capture(&mut original);
            // The caller's config may keep BN on: `restore` drops it for a
            // folding model, as the folded checkpoint requires.
            cfg.batch_norm = true;
            let mut restored = kind.restore(&ckpt, &cfg).expect(name);
            let x = init::uniform(&[2, 3, 8, 8], -1.0, 1.0, &mut Rng::seed(6));
            let bits = |net: &mut Sequential| -> Vec<u32> {
                let y = net.forward(&x, Mode::Eval);
                y.as_slice().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&mut original), bits(&mut restored), "{name}");
        }
    }
}
