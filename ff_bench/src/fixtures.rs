//! One definition of the models, data and options every workload uses.
//! Everything is derived from the run's `--seed`.

use ff_core::{Algorithm, TrainOptions};
use ff_data::{synthetic_cifar10, synthetic_mnist, Dataset, SyntheticConfig};
use ff_models::specs::{LayerSpec, ModelSpec};
use ff_models::{small_cnn, small_mlp, SmallModelConfig};
use ff_nn::Sequential;
use ff_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Mini-batch rows per training step (the paper's setting).
pub const BATCH: usize = 32;
/// Rows per pipelined serving wave.
pub const WAVE: usize = 16;
/// Ops run before any timed window, inside set-up: they fill the packed
/// weight plans and let lazy allocation finish.
pub const WARMUP_OPS: usize = 5;
/// Set-ups per untraced run; `setup_s` is their median. The first is cold
/// (it faults every page in) and hosts the measured window; with five, the
/// median is a warm one even when another is disturbed.
pub const SETUP_REPS: usize = 5;
/// Training rows generated. One epoch is `TRAIN_ROWS / BATCH` = 128 steps;
/// a measured window stops early rather than cross into epoch 1, where the
/// session would run an evaluation inside a step.
pub const TRAIN_ROWS: usize = 4096;
/// Held-out rows `TrainSession::eval` scores.
pub const TEST_ROWS: usize = 128;
/// Distinct request rows the serving workloads cycle through.
pub const POOL_ROWS: usize = 256;
pub const MNIST_FEATURES: usize = 784;
pub const CLASSES: usize = 10;

/// The three training workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainKind {
    /// The paper's MLP, 784 -> 2000 -> 2000 -> 10.
    Mlp,
    /// `small_cnn(base_channels = 16, stages = 2)` on 3x32x32 inputs.
    Cnn,
    /// 784 -> 1000 -> 1000 -> 10 over two loopback workers.
    Cluster,
}

/// One layer of a training model, as the replays need to know it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerShape {
    Dense {
        inputs: usize,
        outputs: usize,
    },
    /// 3x3 convolution, padding 1, on a square `in_hw` input.
    Conv {
        in_ch: usize,
        out_ch: usize,
        in_hw: usize,
        stride: usize,
    },
    GlobalPool,
}

impl LayerShape {
    pub fn out_hw(&self) -> usize {
        match *self {
            LayerShape::Conv { in_hw, stride, .. } => in_hw.div_ceil(stride),
            _ => 1,
        }
    }
}

const CNN: SmallModelConfig = SmallModelConfig {
    input_channels: 3,
    input_hw: 32,
    base_channels: 16,
    stages: 2,
    num_classes: CLASSES,
};

impl TrainKind {
    pub fn name(self) -> &'static str {
        match self {
            TrainKind::Mlp => "train_mlp",
            TrainKind::Cnn => "train_cnn",
            TrainKind::Cluster => "train_cluster",
        }
    }

    pub fn hidden(self) -> [usize; 2] {
        match self {
            TrainKind::Cluster => [1000, 1000],
            _ => [2000, 2000],
        }
    }

    pub fn net(self, seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x006e_6574);
        match self {
            TrainKind::Cnn => small_cnn(&CNN, &mut rng),
            _ => small_mlp(MNIST_FEATURES, &self.hidden(), CLASSES, &mut rng),
        }
    }

    /// The layer shapes of [`TrainKind::net`], in order.
    pub fn shapes(self) -> Vec<LayerShape> {
        match self {
            TrainKind::Cnn => vec![
                LayerShape::Conv {
                    in_ch: 3,
                    out_ch: 16,
                    in_hw: 32,
                    stride: 1,
                },
                LayerShape::Conv {
                    in_ch: 16,
                    out_ch: 32,
                    in_hw: 32,
                    stride: 2,
                },
                LayerShape::GlobalPool,
                LayerShape::Dense {
                    inputs: 32,
                    outputs: CLASSES,
                },
            ],
            _ => {
                let [first, second] = self.hidden();
                vec![
                    LayerShape::Dense {
                        inputs: MNIST_FEATURES,
                        outputs: first,
                    },
                    LayerShape::Dense {
                        inputs: first,
                        outputs: second,
                    },
                    LayerShape::Dense {
                        inputs: second,
                        outputs: CLASSES,
                    },
                ]
            }
        }
    }

    /// The structural spec `ff-edge`'s analytic cost model walks.
    pub fn spec(self) -> ModelSpec {
        let layers = self
            .shapes()
            .iter()
            .map(|shape| match *shape {
                LayerShape::Dense { inputs, outputs } => LayerSpec::Dense {
                    in_features: inputs,
                    out_features: outputs,
                },
                LayerShape::Conv { in_ch, out_ch, .. } => LayerSpec::Conv2d {
                    in_ch,
                    out_ch,
                    kernel: 3,
                    out_hw: shape.out_hw(),
                },
                LayerShape::GlobalPool => LayerSpec::Reshape {
                    output_elements: 32,
                },
            })
            .collect();
        ModelSpec {
            name: format!("{self:?}"),
            input_elements: match self {
                TrainKind::Cnn => 3 * 32 * 32,
                _ => MNIST_FEATURES,
            },
            layers,
        }
    }

    pub fn datasets(self, seed: u64) -> (Dataset, Dataset) {
        let config = SyntheticConfig {
            train_size: TRAIN_ROWS,
            test_size: TEST_ROWS,
            seed,
            ..SyntheticConfig::default()
        };
        match self {
            TrainKind::Cnn => synthetic_cifar10(&config),
            _ => synthetic_mnist(&config),
        }
    }

    /// FF-INT8 throughout. Look-ahead runs on the two single-process
    /// workloads; the cluster trains with gradient shards instead.
    pub fn algorithm(self) -> Algorithm {
        Algorithm::FfInt8 {
            lookahead: self != TrainKind::Cluster,
        }
    }

    pub fn options(self, seed: u64) -> TrainOptions {
        TrainOptions {
            epochs: 1,
            batch_size: BATCH,
            // At the default lambda of 0 the look-ahead relay is skipped.
            lambda_init: 0.02,
            max_eval_samples: TEST_ROWS,
            seed,
            grad_shards: if self == TrainKind::Cluster { 2 } else { 1 },
            ..TrainOptions::default()
        }
    }
}

/// The serving model: the paper MLP with seeded weights. Serving cost does
/// not depend on what the weights learned, so none of set-up is training.
pub fn serving_net(seed: u64) -> Sequential {
    TrainKind::Mlp.net(seed)
}

/// The request rows every serving workload cycles through.
pub fn request_pool(seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x706f_6f6c);
    init::uniform(&[POOL_ROWS, MNIST_FEATURES], -1.0, 1.0, &mut rng)
}
