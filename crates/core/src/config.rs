//! Training configuration shared by all algorithms.

use crate::{CoreError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Numeric precision of the training arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Precision {
    /// 32-bit floating point.
    #[default]
    Fp32,
    /// Symmetric INT8 with stochastic gradient rounding.
    Int8,
}

/// The training algorithms evaluated in the paper's Table V.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Algorithm {
    /// Standard backpropagation in FP32 (baseline).
    BpFp32,
    /// Backpropagation with gradients directly quantized to INT8.
    BpInt8,
    /// Unified INT8 training (UI8, Zhu et al. 2020): direction-sensitive
    /// gradient clipping plus deviation-counteractive learning-rate scaling.
    BpUi8,
    /// Gradient-distribution-aware INT8 training (GDAI8, Wang & Kang 2023).
    BpGdai8,
    /// The paper's contribution: Forward-Forward training with INT8 MACs.
    FfInt8 {
        /// Enables the look-ahead scheme (Section IV-C, Algorithm 1).
        lookahead: bool,
    },
    /// Forward-Forward training in FP32 (ablation of the quantization).
    FfFp32 {
        /// Enables the look-ahead scheme.
        lookahead: bool,
    },
}

impl fmt::Display for Algorithm {
    /// The canonical report label (`"FF-INT8"`, `"BP-GDAI8"`, ...), the same
    /// string [`Algorithm::parse`] accepts.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = match self {
            Algorithm::BpFp32 => "BP-FP32",
            Algorithm::BpInt8 => "BP-INT8",
            Algorithm::BpUi8 => "BP-UI8",
            Algorithm::BpGdai8 => "BP-GDAI8",
            Algorithm::FfInt8 { lookahead: true } => "FF-INT8",
            Algorithm::FfInt8 { lookahead: false } => "FF-INT8 (no look-ahead)",
            Algorithm::FfFp32 { lookahead: true } => "FF-FP32",
            Algorithm::FfFp32 { lookahead: false } => "FF-FP32 (no look-ahead)",
        };
        f.write_str(label)
    }
}

impl FromStr for Algorithm {
    type Err = CoreError;

    fn from_str(s: &str) -> Result<Self> {
        Algorithm::parse(s)
    }
}

impl Algorithm {
    /// Short identifier used in reports (`"FF-INT8"`, `"BP-GDAI8"`, ...).
    ///
    /// Equivalent to the [`Display`](fmt::Display) rendering; kept for
    /// callers that want an owned `String`.
    pub fn label(&self) -> String {
        self.to_string()
    }

    /// Parses a canonical label back into its algorithm.
    ///
    /// Matching is case-insensitive and also accepts `_` for `-`, so
    /// flag-style spellings like `bp_int8` parse. The no-look-ahead FF variants
    /// accept both the report label (`"FF-INT8 (no look-ahead)"`) and the
    /// flag-friendly short form (`"FF-INT8-NOLA"`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] naming the unknown label.
    ///
    /// # Examples
    ///
    /// ```
    /// use ff_core::Algorithm;
    ///
    /// assert_eq!(Algorithm::parse("bp-gdai8").unwrap(), Algorithm::BpGdai8);
    /// assert_eq!(
    ///     Algorithm::parse("FF-INT8").unwrap(),
    ///     Algorithm::FfInt8 { lookahead: true }
    /// );
    /// assert!(Algorithm::parse("FF-INT4").is_err());
    /// ```
    pub fn parse(s: &str) -> Result<Self> {
        let normalized = s.trim().to_ascii_uppercase().replace('_', "-");
        match normalized.as_str() {
            "BP-FP32" => Ok(Algorithm::BpFp32),
            "BP-INT8" => Ok(Algorithm::BpInt8),
            "BP-UI8" => Ok(Algorithm::BpUi8),
            "BP-GDAI8" => Ok(Algorithm::BpGdai8),
            "FF-INT8" => Ok(Algorithm::FfInt8 { lookahead: true }),
            "FF-INT8 (NO LOOK-AHEAD)" | "FF-INT8-NOLA" => {
                Ok(Algorithm::FfInt8 { lookahead: false })
            }
            "FF-FP32" => Ok(Algorithm::FfFp32 { lookahead: true }),
            "FF-FP32 (NO LOOK-AHEAD)" | "FF-FP32-NOLA" => {
                Ok(Algorithm::FfFp32 { lookahead: false })
            }
            _ => Err(CoreError::InvalidConfig {
                message: format!(
                    "unknown algorithm `{s}` (expected one of BP-FP32, BP-INT8, BP-UI8, \
                     BP-GDAI8, FF-INT8, FF-INT8-NOLA, FF-FP32, FF-FP32-NOLA)"
                ),
            }),
        }
    }

    /// `true` for the Forward-Forward family.
    pub fn is_forward_forward(&self) -> bool {
        matches!(self, Algorithm::FfInt8 { .. } | Algorithm::FfFp32 { .. })
    }

    /// `true` when the look-ahead scheme is enabled (always `false` for the
    /// backpropagation baselines).
    pub fn has_lookahead(&self) -> bool {
        matches!(
            self,
            Algorithm::FfInt8 { lookahead: true } | Algorithm::FfFp32 { lookahead: true }
        )
    }

    /// `true` when weight gradients (and, for FF, activations) are INT8.
    pub fn is_int8(&self) -> bool {
        matches!(
            self,
            Algorithm::BpInt8 | Algorithm::BpUi8 | Algorithm::BpGdai8 | Algorithm::FfInt8 { .. }
        )
    }
}

/// Which optimizer family the trainers step parameters with.
///
/// Both trainer families construct their optimizer(s) from this choice, and
/// `FF8C` checkpoints persist the matching state — SGD momentum buffers, or
/// Adam first/second moments plus the bias-correction step count — so a
/// resumed run continues the exact same update trajectory. A checkpoint
/// whose optimizer state disagrees with the configured kind fails resume
/// with a typed [`CoreError::CheckpointMismatch`], never a silent skip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum OptimizerKind {
    /// Stochastic gradient descent with [`TrainOptions::momentum`] (the
    /// paper's configuration).
    #[default]
    Sgd,
    /// Adam with standard defaults (β₁=0.9, β₂=0.999); ignores
    /// [`TrainOptions::momentum`].
    Adam,
}

impl fmt::Display for OptimizerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OptimizerKind::Sgd => "SGD",
            OptimizerKind::Adam => "Adam",
        })
    }
}

/// Hyperparameters shared by every trainer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainOptions {
    /// Number of training epochs.
    pub epochs: usize,
    /// Mini-batch size (the paper uses 32).
    pub batch_size: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Goodness threshold θ in the FF losses (paper: 2.0).
    pub theta: f32,
    /// Initial λ of the look-ahead loss (paper: 0.0).
    pub lambda_init: f32,
    /// Per-epoch increment of λ (paper: 0.001).
    pub lambda_step: f32,
    /// Upper bound on λ.
    pub lambda_max: f32,
    /// Evaluate test accuracy every `eval_every` epochs (1 = every epoch).
    pub eval_every: usize,
    /// Cap on the number of test samples scored per evaluation (goodness
    /// scoring runs one forward pass per candidate label).
    pub max_eval_samples: usize,
    /// RNG seed controlling shuffling, negative-label sampling and stochastic
    /// rounding.
    pub seed: u64,
    /// Optimizer family stepping the parameters (default
    /// [`OptimizerKind::Sgd`], the paper's configuration).
    pub optimizer: OptimizerKind,
    /// Number of contiguous row shards each mini-batch's gradient is
    /// computed in (default 1: classic whole-batch math, bit-identical to
    /// every run recorded before this option existed).
    ///
    /// Sharding is a property of the *math*, not of the execution: with
    /// `grad_shards = W`, each batch is split into `W` contiguous row
    /// ranges, every shard's forward/backward runs as if it were its own
    /// pass (per-shard INT8 quantization scales, per-shard rounding streams
    /// derived as `pass_seed → layer (shard · layer_count + i)`), and the
    /// shard gradients are reduced in ascending shard order before one
    /// optimizer step. A data-parallel cluster evaluating those shards on
    /// remote workers therefore reproduces the single-process run
    /// **bit-exactly** — the distributed trainer and the local
    /// [`crate::FfTrainer`] execute the same canonical decomposition (see
    /// [`crate::shard`]).
    pub grad_shards: usize,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            epochs: 30,
            batch_size: 32,
            learning_rate: 0.02,
            momentum: 0.9,
            theta: 2.0,
            lambda_init: 0.0,
            lambda_step: 0.001,
            lambda_max: 0.05,
            eval_every: 1,
            max_eval_samples: 512,
            seed: 42,
            optimizer: OptimizerKind::Sgd,
            grad_shards: 1,
        }
    }
}

impl TrainOptions {
    /// A very small configuration for unit tests and doc examples.
    pub fn fast_test() -> Self {
        TrainOptions {
            epochs: 3,
            batch_size: 32,
            learning_rate: 0.05,
            momentum: 0.9,
            eval_every: 1,
            max_eval_samples: 64,
            ..TrainOptions::default()
        }
    }

    /// Overrides the epoch count.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Overrides the learning rate.
    pub fn with_learning_rate(mut self, lr: f32) -> Self {
        self.learning_rate = lr;
        self
    }

    /// Overrides the batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the SGD momentum coefficient.
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    /// Overrides the goodness threshold θ.
    pub fn with_theta(mut self, theta: f32) -> Self {
        self.theta = theta;
        self
    }

    /// Overrides the look-ahead λ schedule (initial value, per-epoch step,
    /// upper bound).
    pub fn with_lambda_schedule(mut self, init: f32, step: f32, max: f32) -> Self {
        self.lambda_init = init;
        self.lambda_step = step;
        self.lambda_max = max;
        self
    }

    /// Overrides the evaluation cadence (evaluate every `eval_every` epochs).
    pub fn with_eval_every(mut self, eval_every: usize) -> Self {
        self.eval_every = eval_every;
        self
    }

    /// Overrides the per-evaluation sample cap.
    pub fn with_max_eval_samples(mut self, max_eval_samples: usize) -> Self {
        self.max_eval_samples = max_eval_samples;
        self
    }

    /// Overrides the optimizer family.
    pub fn with_optimizer(mut self, optimizer: OptimizerKind) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// Overrides the per-batch gradient shard count (see
    /// [`TrainOptions::grad_shards`]).
    pub fn with_grad_shards(mut self, grad_shards: usize) -> Self {
        self.grad_shards = grad_shards;
        self
    }

    /// Checks every field for values that would make a training run
    /// meaningless or fail deep inside the loop.
    ///
    /// [`crate::TrainSession`] calls this at session creation so a typo'd
    /// configuration surfaces as one typed error up front instead of a
    /// divide-by-zero, an empty history, or a NaN loss hundreds of steps in.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] naming the offending field for:
    /// zero `epochs`, zero `batch_size`, a non-finite or non-positive
    /// `learning_rate`, a non-finite or negative `momentum`, a non-finite
    /// `theta`, a non-finite or descending λ schedule, or zero `eval_every`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ff_core::TrainOptions;
    ///
    /// assert!(TrainOptions::default().validate().is_ok());
    /// assert!(TrainOptions::default().with_epochs(0).validate().is_err());
    /// assert!(TrainOptions::default()
    ///     .with_learning_rate(f32::NAN)
    ///     .validate()
    ///     .is_err());
    /// ```
    pub fn validate(&self) -> Result<()> {
        let fail = |message: String| Err(CoreError::InvalidConfig { message });
        if self.epochs == 0 {
            return fail("epochs must be at least 1".to_string());
        }
        if self.batch_size == 0 {
            return fail("batch_size must be at least 1".to_string());
        }
        if !self.learning_rate.is_finite() || self.learning_rate <= 0.0 {
            return fail(format!(
                "learning_rate must be positive and finite, got {}",
                self.learning_rate
            ));
        }
        if !self.momentum.is_finite() || self.momentum < 0.0 {
            return fail(format!(
                "momentum must be non-negative and finite, got {}",
                self.momentum
            ));
        }
        if !self.theta.is_finite() {
            return fail(format!("theta must be finite, got {}", self.theta));
        }
        if !self.lambda_init.is_finite()
            || !self.lambda_step.is_finite()
            || !self.lambda_max.is_finite()
        {
            return fail(format!(
                "lambda schedule must be finite, got init {} step {} max {}",
                self.lambda_init, self.lambda_step, self.lambda_max
            ));
        }
        if self.lambda_step < 0.0 || self.lambda_max < self.lambda_init {
            return fail(format!(
                "lambda schedule must be non-decreasing, got init {} step {} max {}",
                self.lambda_init, self.lambda_step, self.lambda_max
            ));
        }
        if self.eval_every == 0 {
            return fail("eval_every must be at least 1".to_string());
        }
        if self.grad_shards == 0 {
            return fail("grad_shards must be at least 1".to_string());
        }
        Ok(())
    }

    /// The look-ahead coefficient λ at a given epoch: starts at
    /// `lambda_init` and grows by `lambda_step` per epoch, capped at
    /// `lambda_max` (paper Section V-A3).
    pub fn lambda_at_epoch(&self, epoch: usize) -> f32 {
        (self.lambda_init + self.lambda_step * epoch as f32).min(self.lambda_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Algorithm; 8] = [
        Algorithm::BpFp32,
        Algorithm::BpInt8,
        Algorithm::BpUi8,
        Algorithm::BpGdai8,
        Algorithm::FfInt8 { lookahead: true },
        Algorithm::FfInt8 { lookahead: false },
        Algorithm::FfFp32 { lookahead: true },
        Algorithm::FfFp32 { lookahead: false },
    ];

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<String> = ALL.iter().map(|a| a.label()).collect();
        let unique: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len());
        assert_eq!(labels[0], "BP-FP32");
        assert_eq!(labels[4], "FF-INT8");
    }

    #[test]
    fn algorithm_queries() {
        assert!(Algorithm::FfInt8 { lookahead: true }.is_forward_forward());
        assert!(!Algorithm::BpGdai8.is_forward_forward());
        assert!(Algorithm::BpInt8.is_int8());
        assert!(!Algorithm::BpFp32.is_int8());
        assert!(Algorithm::FfInt8 { lookahead: false }
            .label()
            .contains("no look-ahead"));
        assert_eq!(Algorithm::FfFp32 { lookahead: true }.label(), "FF-FP32");
        assert!(Algorithm::FfFp32 { lookahead: false }
            .label()
            .contains("no look-ahead"));
    }

    #[test]
    fn lambda_schedule_matches_paper() {
        let opt = TrainOptions::default();
        assert_eq!(opt.lambda_at_epoch(0), 0.0);
        assert!((opt.lambda_at_epoch(10) - 0.01).abs() < 1e-6);
        // capped
        assert_eq!(opt.lambda_at_epoch(1000), opt.lambda_max);
    }

    #[test]
    fn builders_override_fields() {
        let opt = TrainOptions::default()
            .with_epochs(5)
            .with_learning_rate(0.1)
            .with_batch_size(8)
            .with_seed(7)
            .with_momentum(0.5)
            .with_theta(1.5)
            .with_lambda_schedule(0.01, 0.002, 0.1)
            .with_eval_every(3)
            .with_max_eval_samples(99)
            .with_optimizer(OptimizerKind::Adam);
        assert_eq!(opt.epochs, 5);
        assert_eq!(opt.learning_rate, 0.1);
        assert_eq!(opt.batch_size, 8);
        assert_eq!(opt.seed, 7);
        assert_eq!(opt.momentum, 0.5);
        assert_eq!(opt.theta, 1.5);
        assert_eq!(
            (opt.lambda_init, opt.lambda_step, opt.lambda_max),
            (0.01, 0.002, 0.1)
        );
        assert_eq!(opt.eval_every, 3);
        assert_eq!(opt.max_eval_samples, 99);
        assert_eq!(opt.optimizer, OptimizerKind::Adam);
        assert_eq!(opt.optimizer.to_string(), "Adam");
        assert_eq!(TrainOptions::default().batch_size, 32);
        assert_eq!(TrainOptions::default().optimizer, OptimizerKind::Sgd);
    }

    #[test]
    fn validate_names_the_offending_field() {
        let cases: Vec<(TrainOptions, &str)> = vec![
            (TrainOptions::default().with_epochs(0), "epochs"),
            (TrainOptions::default().with_batch_size(0), "batch_size"),
            (
                TrainOptions::default().with_learning_rate(f32::NAN),
                "learning_rate",
            ),
            (
                TrainOptions::default().with_learning_rate(0.0),
                "learning_rate",
            ),
            (
                TrainOptions::default().with_learning_rate(-0.5),
                "learning_rate",
            ),
            (TrainOptions::default().with_momentum(-0.1), "momentum"),
            (
                TrainOptions::default().with_momentum(f32::INFINITY),
                "momentum",
            ),
            (TrainOptions::default().with_theta(f32::NAN), "theta"),
            (
                TrainOptions::default().with_lambda_schedule(0.0, f32::NAN, 0.05),
                "lambda",
            ),
            (
                TrainOptions::default().with_lambda_schedule(0.0, -0.001, 0.05),
                "lambda",
            ),
            (
                TrainOptions::default().with_lambda_schedule(0.1, 0.001, 0.05),
                "lambda",
            ),
            (TrainOptions::default().with_eval_every(0), "eval_every"),
        ];
        for (options, field) in cases {
            match options.validate() {
                Err(CoreError::InvalidConfig { message }) => {
                    assert!(message.contains(field), "`{message}` should name {field}");
                }
                other => panic!("expected InvalidConfig for {field}, got {other:?}"),
            }
        }
        assert!(TrainOptions::default().validate().is_ok());
        assert!(TrainOptions::fast_test().validate().is_ok());
    }

    #[test]
    fn display_matches_label_and_parse_roundtrips() {
        for algorithm in ALL {
            assert_eq!(format!("{algorithm}"), algorithm.label());
            assert_eq!(Algorithm::parse(&algorithm.label()).unwrap(), algorithm);
        }
        // Flag-friendly forms.
        assert_eq!(Algorithm::parse("bp_gdai8").unwrap(), Algorithm::BpGdai8);
        assert_eq!(
            Algorithm::parse(" ff-int8-nola ").unwrap(),
            Algorithm::FfInt8 { lookahead: false }
        );
        assert_eq!(
            "FF-FP32".parse::<Algorithm>().unwrap(),
            Algorithm::FfFp32 { lookahead: true }
        );
        assert!(Algorithm::parse("FF-INT4").is_err());
        assert!(matches!(
            Algorithm::parse(""),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn lookahead_query() {
        assert!(Algorithm::FfInt8 { lookahead: true }.has_lookahead());
        assert!(!Algorithm::FfInt8 { lookahead: false }.has_lookahead());
        assert!(!Algorithm::BpGdai8.has_lookahead());
    }
}
