//! # ff-core
//!
//! The FF-INT8 paper's contribution: INT8 Forward-Forward training with the
//! "look-ahead" scheme, plus the backpropagation baselines it is evaluated
//! against (BP-FP32, naive BP-INT8, BP-UI8, BP-GDAI8).
//!
//! Training is **step-driven**: a [`TrainSession`] trains one mini-batch
//! per [`TrainSession::step`] call, delivers typed [`TrainEvent`]s to
//! observers (early stopping via [`SessionControl`]), and can be
//! checkpointed into a versioned `FF8C` artifact ([`checkpoint`]) whose
//! resume is **bit-identical** to an uninterrupted run — the interruptible,
//! integer-state on-device training loop the paper's edge setting calls
//! for. Both trainer families plug into the session through the
//! [`TrainerCore`] trait.
//!
//! The unified [`train`] entry point (a thin wrapper over
//! [`TrainSession::run`]) dispatches on [`Algorithm`], so one call site can
//! sweep all five training algorithms over the same model and dataset.
//!
//! # Examples
//!
//! Train a 2-hidden-layer MLP with FF-INT8 + look-ahead on the synthetic
//! MNIST stand-in:
//!
//! ```
//! use ff_core::{train, Algorithm, TrainOptions};
//! use ff_data::{synthetic_mnist, SyntheticConfig};
//! use ff_models::small_mlp;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), ff_core::CoreError> {
//! let (train_set, test_set) = synthetic_mnist(&SyntheticConfig::small());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut net = small_mlp(784, &[64, 64], 10, &mut rng);
//! let options = TrainOptions::fast_test();
//! let history = train(
//!     &mut net,
//!     &train_set,
//!     &test_set,
//!     Algorithm::FfInt8 { lookahead: true },
//!     &options,
//! )?;
//! assert_eq!(history.len(), options.epochs);
//! assert!(history.final_loss().unwrap().is_finite());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
mod baselines;
pub mod checkpoint;
mod config;
mod error;
mod ff_trainer;
mod goodness;
pub mod optimizer;
pub mod session;
pub mod shard;

pub use api::train;
pub use baselines::{BpTrainer, GradientPolicy};
pub use checkpoint::{
    Checkpoint, EpochProgress, CHECKPOINT_MAGIC, CHECKPOINT_MIN_VERSION, CHECKPOINT_VERSION,
};
pub use config::{Algorithm, OptimizerKind, Precision, TrainOptions};
pub use error::CoreError;
pub use ff_trainer::{first_layer_is_dense, FfTrainer};
pub use goodness::{
    ff_loss, ff_loss_scaled, goodness, goodness_gradient, goodness_sum, FfLossKind, GoodnessSweep,
};
pub use optimizer::OptimizerSlot;
pub use session::{
    AutoCheckpoint, EvalSplit, SessionControl, SessionStatus, StepSpans, StepStats, TrainEvent,
    TrainSession, TrainerCore, TrainerState,
};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CoreError>;
