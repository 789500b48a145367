//! Trainer-side optimizer dispatch and checkpointable optimizer state.
//!
//! The trainers pick their optimizer family from
//! [`TrainOptions::optimizer`](crate::TrainOptions) and step parameters
//! through `AnyOptimizer`, a crate-private closed enum over the `ff-nn`
//! optimizers. Each optimizer's mutable state has a matching serializable
//! form, [`OptimizerSlot`], which `FF8C` checkpoints persist:
//!
//! - SGD: the per-parameter momentum buffers;
//! - Adam: the first/second moment estimates **and** the bias-correction
//!   step count (without it a resumed run would re-warm-up the moments and
//!   diverge from the uninterrupted trajectory).
//!
//! Importing a slot validates both the optimizer **kind** and every buffer
//! shape against the parameters the optimizer will step, so a checkpoint
//! taken with a different optimizer (or network) fails with a typed
//! [`CoreError::CheckpointMismatch`] at resume time — never a silent skip
//! of the stored state, and never a shape panic on the first step.

use crate::config::OptimizerKind;
use crate::{CoreError, Result};
use ff_nn::{Adam, Optimizer, ParamRefMut, Sgd};
use ff_tensor::Tensor;

/// The serializable state of one optimizer slot, as persisted in `FF8C`
/// checkpoints ([`crate::TrainerState`] holds one per optimizer the trainer
/// owns: one per layer for [`crate::FfTrainer`], a single one for
/// [`crate::BpTrainer`]).
#[derive(Debug, Clone, PartialEq)]
pub enum OptimizerSlot {
    /// SGD momentum buffers, one per parameter already stepped.
    Sgd {
        /// The momentum (velocity) buffers, in parameter order.
        velocity: Vec<Tensor>,
    },
    /// Adam moment estimates plus the bias-correction step count.
    Adam {
        /// First-moment estimates, in parameter order.
        m: Vec<Tensor>,
        /// Second-moment estimates (always the same length as `m`).
        v: Vec<Tensor>,
        /// Steps taken so far — the `t` of the bias-correction terms.
        step_count: u64,
    },
}

impl OptimizerSlot {
    /// The optimizer family this state belongs to.
    pub fn kind(&self) -> OptimizerKind {
        match self {
            OptimizerSlot::Sgd { .. } => OptimizerKind::Sgd,
            OptimizerSlot::Adam { .. } => OptimizerKind::Adam,
        }
    }

    /// An empty slot of the given kind (what a fresh optimizer exports).
    pub fn empty(kind: OptimizerKind) -> Self {
        match kind {
            OptimizerKind::Sgd => OptimizerSlot::Sgd {
                velocity: Vec::new(),
            },
            OptimizerKind::Adam => OptimizerSlot::Adam {
                m: Vec::new(),
                v: Vec::new(),
                step_count: 0,
            },
        }
    }

    /// Validates this slot against the parameter shapes it will step.
    ///
    /// Optimizers grow their buffer lists lazily, so a slot holding a
    /// *prefix* of the parameters' buffers is legal; any buffer that is
    /// present must match its parameter's shape exactly, and Adam's `m`/`v`
    /// lists must have equal length.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CheckpointMismatch`] naming the offending
    /// buffer.
    pub fn check_shapes(&self, param_shapes: &[Vec<usize>], what: &str) -> Result<()> {
        match self {
            OptimizerSlot::Sgd { velocity } => {
                check_buffer_shapes(velocity, param_shapes, what, "momentum")
            }
            OptimizerSlot::Adam { m, v, .. } => {
                if m.len() != v.len() {
                    return Err(CoreError::CheckpointMismatch {
                        message: format!(
                            "Adam state for {what} has {} first moments but {} second moments",
                            m.len(),
                            v.len()
                        ),
                    });
                }
                check_buffer_shapes(m, param_shapes, what, "Adam first-moment")?;
                check_buffer_shapes(v, param_shapes, what, "Adam second-moment")
            }
        }
    }
}

/// Validates restored per-parameter buffers against the parameter shapes
/// they will step (see [`OptimizerSlot::check_shapes`]).
pub(crate) fn check_buffer_shapes(
    buffers: &[Tensor],
    param_shapes: &[Vec<usize>],
    what: &str,
    which: &str,
) -> Result<()> {
    if buffers.len() > param_shapes.len() {
        return Err(CoreError::CheckpointMismatch {
            message: format!(
                "checkpoint holds {} {which} buffers for {what} but it has {} parameters",
                buffers.len(),
                param_shapes.len()
            ),
        });
    }
    for (index, (buffer, shape)) in buffers.iter().zip(param_shapes).enumerate() {
        if buffer.shape() != shape.as_slice() {
            return Err(CoreError::CheckpointMismatch {
                message: format!(
                    "{which} buffer {index} for {what} has shape {:?} but the parameter has \
                     shape {:?}",
                    buffer.shape(),
                    shape
                ),
            });
        }
    }
    Ok(())
}

/// The closed set of optimizers the trainers dispatch over.
///
/// A thin enum (instead of `Box<dyn Optimizer>`) so state can be exported
/// and imported without downcasting.
#[derive(Debug, Clone)]
pub(crate) enum AnyOptimizer {
    /// Plain SGD with momentum.
    Sgd(Sgd),
    /// Adam with bias correction.
    Adam(Adam),
}

impl AnyOptimizer {
    /// Builds a fresh optimizer of `kind` from the trainer's
    /// hyperparameters.
    pub(crate) fn new(kind: OptimizerKind, learning_rate: f32, momentum: f32) -> Self {
        match kind {
            OptimizerKind::Sgd => AnyOptimizer::Sgd(Sgd::new(learning_rate, momentum)),
            OptimizerKind::Adam => AnyOptimizer::Adam(Adam::new(learning_rate)),
        }
    }

    /// Applies one update step (see [`Optimizer::step`]).
    pub(crate) fn step(&mut self, params: &mut [ParamRefMut<'_>]) {
        match self {
            AnyOptimizer::Sgd(o) => o.step(params),
            AnyOptimizer::Adam(o) => o.step(params),
        }
    }

    /// Overrides the learning rate (UI8's deviation-counteractive scaling).
    pub(crate) fn set_learning_rate(&mut self, lr: f32) {
        match self {
            AnyOptimizer::Sgd(o) => o.set_learning_rate(lr),
            AnyOptimizer::Adam(o) => o.set_learning_rate(lr),
        }
    }

    /// Captures this optimizer's mutable state for a checkpoint.
    pub(crate) fn export(&self) -> OptimizerSlot {
        match self {
            AnyOptimizer::Sgd(o) => OptimizerSlot::Sgd {
                velocity: o.velocity().to_vec(),
            },
            AnyOptimizer::Adam(o) => OptimizerSlot::Adam {
                m: o.first_moments().to_vec(),
                v: o.second_moments().to_vec(),
                step_count: o.step_count(),
            },
        }
    }

    /// Rebuilds an optimizer of the trainer's configured `kind` from a
    /// checkpointed slot, validating kind and buffer shapes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CheckpointMismatch`] when the slot was exported
    /// by a different optimizer family (e.g. an Adam checkpoint resumed
    /// into an SGD-configured trainer) or a buffer shape disagrees with its
    /// parameter.
    pub(crate) fn import(
        kind: OptimizerKind,
        learning_rate: f32,
        momentum: f32,
        slot: &OptimizerSlot,
        param_shapes: &[Vec<usize>],
        what: &str,
    ) -> Result<Self> {
        if slot.kind() != kind {
            return Err(CoreError::CheckpointMismatch {
                message: format!(
                    "checkpoint stores {} optimizer state for {what} but the trainer is \
                     configured for {}",
                    slot.kind(),
                    kind
                ),
            });
        }
        slot.check_shapes(param_shapes, what)?;
        let mut optimizer = AnyOptimizer::new(kind, learning_rate, momentum);
        match (&mut optimizer, slot) {
            (AnyOptimizer::Sgd(o), OptimizerSlot::Sgd { velocity }) => {
                o.set_velocity(velocity.clone());
            }
            (AnyOptimizer::Adam(o), OptimizerSlot::Adam { m, v, step_count }) => {
                o.set_state(m.clone(), v.clone(), *step_count);
            }
            // Kind equality was checked above.
            _ => unreachable!("optimizer kind checked before state restore"),
        }
        Ok(optimizer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn import_rejects_kind_mismatch_with_typed_error() {
        // An Adam checkpoint fed to an SGD-configured trainer (or vice
        // versa) must fail loudly — the historic behaviour was to silently
        // skip unsupported optimizer state.
        let adam_slot = OptimizerSlot::Adam {
            m: Vec::new(),
            v: Vec::new(),
            step_count: 3,
        };
        let err = AnyOptimizer::import(OptimizerKind::Sgd, 0.1, 0.9, &adam_slot, &[], "layer 0")
            .unwrap_err();
        match err {
            CoreError::CheckpointMismatch { message } => {
                assert!(message.contains("Adam"), "{message}");
                assert!(message.contains("SGD"), "{message}");
            }
            other => panic!("expected CheckpointMismatch, got {other:?}"),
        }
        let sgd_slot = OptimizerSlot::empty(OptimizerKind::Sgd);
        assert!(matches!(
            AnyOptimizer::import(OptimizerKind::Adam, 0.1, 0.9, &sgd_slot, &[], "layer 0"),
            Err(CoreError::CheckpointMismatch { .. })
        ));
    }

    #[test]
    fn import_validates_adam_moment_shapes() {
        let shapes = vec![vec![2, 3]];
        let good = OptimizerSlot::Adam {
            m: vec![Tensor::zeros(&[2, 3])],
            v: vec![Tensor::zeros(&[2, 3])],
            step_count: 1,
        };
        assert!(AnyOptimizer::import(OptimizerKind::Adam, 0.1, 0.0, &good, &shapes, "x").is_ok());
        let wrong_shape = OptimizerSlot::Adam {
            m: vec![Tensor::zeros(&[3, 2])],
            v: vec![Tensor::zeros(&[3, 2])],
            step_count: 1,
        };
        assert!(matches!(
            AnyOptimizer::import(OptimizerKind::Adam, 0.1, 0.0, &wrong_shape, &shapes, "x"),
            Err(CoreError::CheckpointMismatch { .. })
        ));
        let uneven = OptimizerSlot::Adam {
            m: vec![Tensor::zeros(&[2, 3])],
            v: Vec::new(),
            step_count: 1,
        };
        assert!(matches!(
            AnyOptimizer::import(OptimizerKind::Adam, 0.1, 0.0, &uneven, &shapes, "x"),
            Err(CoreError::CheckpointMismatch { .. })
        ));
    }

    #[test]
    fn export_import_roundtrips_both_kinds() {
        for kind in [OptimizerKind::Sgd, OptimizerKind::Adam] {
            let mut optimizer = AnyOptimizer::new(kind, 0.1, 0.9);
            let mut w = Tensor::ones(&[4]);
            let mut g = Tensor::ones(&[4]);
            optimizer.step(&mut [ParamRefMut {
                value: &mut w,
                grad: &mut g,
                version: None,
            }]);
            let slot = optimizer.export();
            assert_eq!(slot.kind(), kind);
            let restored =
                AnyOptimizer::import(kind, 0.1, 0.9, &slot, &[vec![4]], "param").unwrap();
            assert_eq!(restored.export(), slot);
        }
    }

    #[test]
    fn empty_slots_match_fresh_exports() {
        for kind in [OptimizerKind::Sgd, OptimizerKind::Adam] {
            assert_eq!(
                AnyOptimizer::new(kind, 0.1, 0.9).export(),
                OptimizerSlot::empty(kind)
            );
        }
    }
}
