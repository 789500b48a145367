//! Runnable scaled-down model builders.
//!
//! The paper's accuracy experiments run full-scale networks for hundreds of
//! epochs on a GPU. The empirical runs in this repository use these reduced
//! variants (narrower channels, fewer blocks, smaller spatial extents) so the
//! accuracy *trends* — which training algorithm learns, diverges, or stalls —
//! can be reproduced on a CPU within seconds to minutes. Absolute accuracy is
//! not comparable to the paper; relative ordering is (see the README's
//! "Reproduction status" table).

use ff_nn::{Conv2d, Dense, Flatten, GlobalAvgPool, Layer, ResidualBlock, Sequential};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration for the scaled-down convolutional models.
///
/// # Examples
///
/// ```
/// use ff_models::SmallModelConfig;
///
/// let cfg = SmallModelConfig::default().with_base_channels(8);
/// assert_eq!(cfg.base_channels, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SmallModelConfig {
    /// Input channels (1 for the MNIST stand-in, 3 for CIFAR-10).
    pub input_channels: usize,
    /// Input spatial size (height = width).
    pub input_hw: usize,
    /// Base channel width of the first stage.
    pub base_channels: usize,
    /// Number of residual stages (each stage doubles the width and halves the
    /// spatial size).
    pub stages: usize,
    /// Number of output classes.
    pub num_classes: usize,
}

impl Default for SmallModelConfig {
    fn default() -> Self {
        SmallModelConfig {
            input_channels: 3,
            input_hw: 32,
            base_channels: 8,
            stages: 2,
            num_classes: 10,
        }
    }
}

impl SmallModelConfig {
    /// Overrides the base channel width.
    pub fn with_base_channels(mut self, base_channels: usize) -> Self {
        self.base_channels = base_channels;
        self
    }

    /// Overrides the input geometry.
    pub fn with_input(mut self, channels: usize, hw: usize) -> Self {
        self.input_channels = channels;
        self.input_hw = hw;
        self
    }

    /// Overrides the number of residual stages.
    pub fn with_stages(mut self, stages: usize) -> Self {
        self.stages = stages;
        self
    }
}

/// Builds an MLP with the given hidden widths.
///
/// Hidden layers use a fused ReLU (the granularity at which the
/// Forward-Forward algorithm computes goodness); the output layer is linear.
///
/// # Examples
///
/// ```
/// use ff_models::small_mlp;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let net = small_mlp(784, &[128, 128], 10, &mut rng);
/// assert_eq!(net.len(), 3);
/// ```
pub fn small_mlp<R: Rng + ?Sized>(
    input_dim: usize,
    hidden: &[usize],
    num_classes: usize,
    rng: &mut R,
) -> Sequential {
    let mut net = Sequential::new();
    let mut in_dim = input_dim;
    for &width in hidden {
        net.push(Box::new(Dense::new(in_dim, width, true, rng)));
        in_dim = width;
    }
    net.push(Box::new(Dense::new(in_dim, num_classes, false, rng)));
    net
}

/// Builds a plain (non-residual) convolutional classifier:
/// `[conv3x3 + ReLU] × stages → global average pool → dense`.
///
/// This is the scaled-down stand-in for the paper's MobileNetV2 and
/// EfficientNet-B0 rows (architectures without residual *identity* joins at
/// this scale); widths differ per model via `base_channels`.
pub fn small_cnn<R: Rng + ?Sized>(config: &SmallModelConfig, rng: &mut R) -> Sequential {
    let mut net = Sequential::new();
    let mut in_ch = config.input_channels;
    let mut ch = config.base_channels;
    for stage in 0..config.stages.max(1) {
        let stride = if stage == 0 { 1 } else { 2 };
        net.push(Box::new(
            Conv2d::new(in_ch, ch, 3, stride, 1, true, rng).expect("valid conv geometry"),
        ));
        in_ch = ch;
        ch *= 2;
    }
    net.push(Box::new(GlobalAvgPool::new()));
    net.push(Box::new(Dense::new(in_ch, config.num_classes, false, rng)));
    net
}

/// Builds a scaled-down ResNet: a stem convolution followed by
/// `stages` residual blocks (the first block of each later stage downsamples
/// with a projection shortcut), global average pooling and a dense head.
///
/// Residual blocks are exactly the structure the paper identifies as
/// problematic for vanilla Forward-Forward training (Fig. 6b).
pub fn small_resnet<R: Rng + ?Sized>(config: &SmallModelConfig, rng: &mut R) -> Sequential {
    let mut net = Sequential::new();
    let base = config.base_channels;
    net.push(Box::new(
        Conv2d::new(config.input_channels, base, 3, 1, 1, true, rng).expect("valid conv geometry"),
    ));
    let mut in_ch = base;
    for stage in 0..config.stages.max(1) {
        let out_ch = base << stage;
        let stride = if stage == 0 { 1 } else { 2 };
        let main: Vec<Box<dyn Layer>> = vec![
            Box::new(Conv2d::new(in_ch, out_ch, 3, stride, 1, true, rng).expect("valid geometry")),
            Box::new(Conv2d::new(out_ch, out_ch, 3, 1, 1, false, rng).expect("valid geometry")),
        ];
        let shortcut: Vec<Box<dyn Layer>> = if stride != 1 || in_ch != out_ch {
            vec![Box::new(
                Conv2d::new(in_ch, out_ch, 1, stride, 0, false, rng).expect("valid geometry"),
            )]
        } else {
            Vec::new()
        };
        net.push(Box::new(ResidualBlock::new(main, shortcut)));
        in_ch = out_ch;
    }
    net.push(Box::new(GlobalAvgPool::new()));
    net.push(Box::new(Dense::new(in_ch, config.num_classes, false, rng)));
    net
}

/// Builds a flattening front-end plus MLP, for running MLPs directly on 4-D
/// image tensors.
pub fn small_mlp_on_images<R: Rng + ?Sized>(
    config: &SmallModelConfig,
    hidden: &[usize],
    rng: &mut R,
) -> Sequential {
    let input_dim = config.input_channels * config.input_hw * config.input_hw;
    let mut net = Sequential::new();
    net.push(Box::new(Flatten::new()));
    let mut in_dim = input_dim;
    for &width in hidden {
        net.push(Box::new(Dense::new(in_dim, width, true, rng)));
        in_dim = width;
    }
    net.push(Box::new(Dense::new(in_dim, config.num_classes, false, rng)));
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_nn::ForwardMode;
    use ff_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn mlp_builder_layer_count_and_shapes() {
        let mut net = small_mlp(784, &[64, 64], 10, &mut rng());
        assert_eq!(net.len(), 3);
        let y = net
            .forward(&Tensor::ones(&[2, 784]), ForwardMode::Fp32)
            .unwrap();
        assert_eq!(y.shape(), &[2, 10]);
    }

    #[test]
    fn cnn_builder_forward_shape() {
        let cfg = SmallModelConfig::default()
            .with_base_channels(4)
            .with_stages(2);
        let mut net = small_cnn(&cfg, &mut rng());
        let y = net
            .forward(&Tensor::ones(&[2, 3, 32, 32]), ForwardMode::Fp32)
            .unwrap();
        assert_eq!(y.shape(), &[2, 10]);
    }

    #[test]
    fn resnet_builder_forward_shape_and_params() {
        let cfg = SmallModelConfig::default()
            .with_base_channels(4)
            .with_stages(2);
        let mut net = small_resnet(&cfg, &mut rng());
        let y = net
            .forward(&Tensor::ones(&[1, 3, 32, 32]), ForwardMode::Fp32)
            .unwrap();
        assert_eq!(y.shape(), &[1, 10]);
        assert!(net.param_count() > 0);
        // deeper/wider config has more parameters
        let big = small_resnet(&cfg.with_base_channels(8), &mut rng());
        assert!(big.param_count() > net.param_count());
    }

    #[test]
    fn mlp_on_images_flattens() {
        let cfg = SmallModelConfig::default().with_input(1, 28);
        let mut net = small_mlp_on_images(&cfg, &[32], &mut rng());
        let y = net
            .forward(&Tensor::ones(&[3, 1, 28, 28]), ForwardMode::Fp32)
            .unwrap();
        assert_eq!(y.shape(), &[3, 10]);
    }

    #[test]
    fn config_builders() {
        let cfg = SmallModelConfig::default()
            .with_base_channels(16)
            .with_input(1, 28)
            .with_stages(3);
        assert_eq!(cfg.base_channels, 16);
        assert_eq!(cfg.input_channels, 1);
        assert_eq!(cfg.input_hw, 28);
        assert_eq!(cfg.stages, 3);
    }
}
