//! The Forward-Forward trainer (FP32 and INT8) with the look-ahead scheme.

use crate::config::{Algorithm, Precision, TrainOptions};
use crate::goodness::{goodness, FfLossKind, GoodnessSweep};
use crate::optimizer::AnyOptimizer;
use crate::session::{elapsed_ns, StepSpans, StepStats, TrainSession, TrainerCore, TrainerState};
use crate::shard::{
    accumulate_ff_pass, compute_shard, normalize_activations, reduce_shard_grads,
    reshape_for_input, shard_tasks, PassMode, PreparedBatch, ShardGrads,
};
use crate::{CoreError, Result};
use ff_data::{positive_negative_sets, Batch, Dataset};
use ff_metrics::{accuracy, TrainingHistory};
use ff_nn::{ForwardMode, Sequential};
use ff_quant::Rounding;
use ff_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Trains a [`Sequential`] network with the Forward-Forward algorithm.
///
/// Every layer with trainable parameters is treated as one FF unit: its
/// goodness is the per-sample sum of squared activations of its output, and
/// it is optimised with the losses of paper Eq. 1–2. With `lookahead`
/// enabled, each unit's update additionally receives `λ ·
/// ∂L_j/∂W_i` contributions from all later units `j > i` (Eq. 3–4,
/// Algorithm 1), where λ follows the schedule in [`TrainOptions`].
///
/// In INT8 mode every stochastic-rounding decision is seeded from the
/// trainer's own RNG (one fresh seed per forward pass, derived per layer),
/// so a run is a pure function of its [`TrainOptions::seed`] — which is what
/// lets `FF8C` checkpoints resume bit-exactly (see [`crate::checkpoint`]).
///
/// The epoch loop lives in [`TrainSession`]; this type supplies the
/// per-batch numerics through [`TrainerCore`], and [`FfTrainer::train`] is a
/// convenience wrapper running a full session.
///
/// # Examples
///
/// ```
/// use ff_core::{FfTrainer, Precision, TrainOptions};
/// use ff_data::{synthetic_mnist, SyntheticConfig};
/// use ff_models::small_mlp;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), ff_core::CoreError> {
/// let (train_set, test_set) = synthetic_mnist(&SyntheticConfig::small());
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut net = small_mlp(784, &[32], 10, &mut rng);
/// let mut trainer = FfTrainer::new(Precision::Int8, true, TrainOptions::fast_test());
/// let history = trainer.train(&mut net, &train_set, &test_set)?;
/// assert_eq!(history.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FfTrainer {
    options: TrainOptions,
    precision: Precision,
    lookahead: bool,
    optimizers: Vec<AnyOptimizer>,
    rng: StdRng,
}

impl FfTrainer {
    /// Creates a trainer with the given precision, look-ahead flag and
    /// hyperparameters.
    pub fn new(precision: Precision, lookahead: bool, options: TrainOptions) -> Self {
        let rng = StdRng::seed_from_u64(options.seed);
        FfTrainer {
            options,
            precision,
            lookahead,
            optimizers: Vec::new(),
            rng,
        }
    }

    /// The generic numeric mode for this trainer's precision, with
    /// thread-local (non-reproducible) stochastic rounding in INT8 mode.
    ///
    /// The training and prediction paths do **not** use this directly: they
    /// derive per-pass seeded modes via `FfTrainer::pass_mode` so every
    /// rounding decision comes from the trainer's checkpointable RNG.
    pub fn forward_mode(&self) -> ForwardMode {
        match self.precision {
            Precision::Fp32 => ForwardMode::Fp32,
            Precision::Int8 => ForwardMode::Int8(Rounding::Stochastic),
        }
    }

    /// Draws one fresh pass seed from the trainer RNG and returns the mode
    /// factory for this pass: layer `i` gets a decorrelated seeded rounding
    /// stream derived from `(pass_seed, i)`. FP32 passes draw nothing.
    fn pass_mode(&mut self) -> PassMode {
        PassMode::draw(self.precision, &mut self.rng).1
    }

    /// `true` when the look-ahead scheme is enabled.
    pub fn has_lookahead(&self) -> bool {
        self.lookahead
    }

    /// The numeric precision this trainer runs at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Trains `net` for the configured number of epochs and returns the
    /// per-epoch history.
    ///
    /// Equivalent to driving a [`TrainSession`] to completion with this
    /// trainer; use a session directly for stepping, events, early stopping
    /// or checkpointing.
    ///
    /// # Errors
    ///
    /// Returns an error when the options are invalid, the dataset geometry
    /// is incompatible with the network, or a layer operation fails.
    pub fn train(
        &mut self,
        net: &mut Sequential,
        train_set: &Dataset,
        test_set: &Dataset,
    ) -> Result<TrainingHistory> {
        TrainSession::with_trainer(net, train_set, test_set, &mut *self)?.run()
    }

    /// Label-embeds one mini-batch and draws its positive/negative pass
    /// seeds — everything a step consumes from the trainer RNG, drawn in
    /// the exact historic order (negative-label draws, then the positive
    /// pass seed, then the negative pass seed), so the prepared batch is a
    /// pure function of the RNG state and a 1-shard run stays bit-identical
    /// to every run recorded before sharding existed.
    ///
    /// Distributed trainers call this on the coordinator, then cut the
    /// result into [`crate::shard::ShardTask`]s; `first_is_dense` is
    /// [`first_layer_is_dense`] of the target network.
    ///
    /// # Errors
    ///
    /// Propagates dataset and tensor errors.
    pub fn prepare_batch(
        &mut self,
        images: &Tensor,
        labels: &[usize],
        num_classes: usize,
        first_is_dense: bool,
    ) -> Result<PreparedBatch> {
        let flat = images.reshape(&[images.rows(), images.cols()])?;
        let (pos, neg) = positive_negative_sets(&flat, labels, num_classes, &mut self.rng)?;
        let pos = reshape_for_input(&pos, images.shape(), first_is_dense)?;
        let neg = reshape_for_input(&neg, images.shape(), first_is_dense)?;
        let (pos_seed, _) = PassMode::draw(self.precision, &mut self.rng);
        let (neg_seed, _) = PassMode::draw(self.precision, &mut self.rng);
        Ok(PreparedBatch {
            pos,
            neg,
            pos_seed,
            neg_seed,
        })
    }

    /// Runs one mini-batch (positive pass + negative pass + optimizer step)
    /// and returns the summed FF loss plus where the step's time went.
    ///
    /// With `grad_shards = 1` (the default) the batch runs as one pass pair,
    /// bit-identical to the historic trainer; with more shards it runs the
    /// canonical sharded decomposition (see [`crate::shard`]) — compute each
    /// shard in order, reduce gradients in shard order, step once.
    fn train_batch(
        &mut self,
        net: &mut Sequential,
        images: &Tensor,
        labels: &[usize],
        num_classes: usize,
        lambda: f32,
    ) -> Result<(f32, StepSpans)> {
        let prep_start = Instant::now();
        let first_is_dense = first_layer_is_dense(net);
        let prepared = self.prepare_batch(images, labels, num_classes, first_is_dense)?;
        let quantize_ns = elapsed_ns(prep_start);
        let theta = self.options.theta;

        if self.options.grad_shards <= 1 {
            let forward_start = Instant::now();
            net.zero_grad();
            let rows = prepared.pos.rows();
            let pos_pass = PassMode::from_seed(self.precision, prepared.pos_seed);
            let neg_pass = PassMode::from_seed(self.precision, prepared.neg_seed);
            let loss_pos = accumulate_ff_pass(
                net,
                &prepared.pos,
                FfLossKind::Positive,
                theta,
                lambda,
                pos_pass,
                0,
                rows,
            )?;
            let loss_neg = accumulate_ff_pass(
                net,
                &prepared.neg,
                FfLossKind::Negative,
                theta,
                lambda,
                neg_pass,
                0,
                rows,
            )?;
            let forward_ns = elapsed_ns(forward_start);

            let update_start = Instant::now();
            self.step(net);
            let spans = StepSpans {
                quantize_ns,
                forward_ns,
                update_ns: elapsed_ns(update_start),
            };
            return Ok((loss_pos + loss_neg, spans));
        }

        let forward_start = Instant::now();
        let tasks = shard_tasks(
            &prepared,
            self.options.grad_shards,
            net.len(),
            theta,
            lambda,
            self.precision,
        )?;
        let mut reduced: Option<ShardGrads> = None;
        for task in &tasks {
            let out = compute_shard(net, task)?;
            reduce_shard_grads(&mut reduced, &out)?;
        }
        let forward_ns = elapsed_ns(forward_start);

        let update_start = Instant::now();
        let loss = match reduced {
            Some(r) => {
                self.apply_reduced_grads(net, &r.grads)?;
                r.loss_pos + r.loss_neg
            }
            None => 0.0,
        };
        let spans = StepSpans {
            quantize_ns,
            forward_ns,
            update_ns: elapsed_ns(update_start),
        };
        Ok((loss, spans))
    }

    /// Writes already-reduced shard gradients into the network and applies
    /// one optimizer step — the coordinator half of the sharded step, used
    /// by data-parallel trainers after collecting [`crate::shard::ShardGrads`]
    /// from workers.
    ///
    /// Gradients **overwrite** the accumulators (they are the full reduced
    /// gradient, not a contribution), so the call is insensitive to
    /// whatever the accumulators held before.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the tensor count or a
    /// shape disagrees with the network's parameters.
    pub fn apply_reduced_grads(&mut self, net: &mut Sequential, grads: &[Tensor]) -> Result<()> {
        {
            let mut params = net.params_mut();
            if params.len() != grads.len() {
                return Err(CoreError::InvalidConfig {
                    message: format!(
                        "reduced gradients hold {} tensors but the network has {} parameters",
                        grads.len(),
                        params.len()
                    ),
                });
            }
            for (p, g) in params.iter_mut().zip(grads) {
                if p.grad.shape() != g.shape() {
                    return Err(CoreError::InvalidConfig {
                        message: format!(
                            "reduced gradient shape {:?} does not match parameter shape {:?}",
                            g.shape(),
                            p.grad.shape()
                        ),
                    });
                }
                *p.grad = g.clone();
            }
        }
        self.step(net);
        Ok(())
    }

    /// Applies one optimizer step per layer and clears the gradients.
    ///
    /// Stepping writes every parameter through `ParamRefMut`, which bumps
    /// each layer's parameter version; in INT8 mode that is what invalidates
    /// the layers' cached packed weight plans (`ff_quant::plan`), so the
    /// next forward requantizes exactly the weights that moved — and the
    /// many forwards in between (evaluation runs one per candidate label)
    /// all reuse the same packed panels.
    fn step(&mut self, net: &mut Sequential) {
        // Optimizers are built lazily, one per layer, on the first step.
        while self.optimizers.len() < net.len() {
            self.optimizers.push(AnyOptimizer::new(
                self.options.optimizer,
                self.options.learning_rate,
                self.options.momentum,
            ));
        }
        for (layer, optimizer) in net.layers_mut().iter_mut().zip(&mut self.optimizers) {
            let mut params = layer.params_mut();
            if !params.is_empty() {
                optimizer.step(&mut params);
                // Safety net: an Optimizer impl that forgets mark_updated
                // would otherwise leave layers serving stale packed weight
                // plans. An extra bump is free (plans rebuild at most once
                // per step, on the next INT8 forward).
                for p in &mut params {
                    p.mark_updated();
                }
            }
            layer.zero_grad();
        }
    }

    /// Goodness-based classification accuracy on (a capped prefix of) a
    /// dataset.
    ///
    /// # Errors
    ///
    /// Propagates layer errors.
    pub fn evaluate(&mut self, net: &mut Sequential, dataset: &Dataset) -> Result<f32> {
        let count = dataset.len().min(self.options.max_eval_samples);
        if count == 0 {
            return Ok(0.0);
        }
        let subset = dataset.take(count)?;
        let predictions = self.predict(net, subset.images(), subset.num_classes())?;
        Ok(accuracy(&predictions, subset.labels()))
    }

    /// Predicts labels by trying every candidate label embedding and picking
    /// the one with the highest goodness accumulated across all FF units.
    ///
    /// In INT8 mode each call draws one stochastic-rounding seed from the
    /// trainer RNG (so predictions are reproducible and checkpointable).
    ///
    /// # Errors
    ///
    /// Propagates layer errors.
    pub fn predict(
        &mut self,
        net: &mut Sequential,
        images: &Tensor,
        num_classes: usize,
    ) -> Result<Vec<usize>> {
        let pass = self.pass_mode();
        let rows = images.rows();
        let flat = images.reshape(&[rows, images.cols()])?;
        let mut sweep = GoodnessSweep::new(rows, num_classes);
        let first_is_dense = first_layer_is_dense(net);
        let trainable: Vec<bool> = net
            .layers_mut()
            .iter_mut()
            .map(|l| l.param_count() > 0)
            .collect();
        let layer_count = trainable.len();
        for candidate in 0..num_classes {
            let labels = vec![candidate; rows];
            let embedded = ff_data::embed_label(&flat, &labels, num_classes)?;
            let shaped = reshape_for_input(&embedded, images.shape(), first_is_dense)?;
            let mut x = shaped;
            let layers = net.layers_mut();
            for (i, layer) in layers.iter_mut().enumerate() {
                // Decorrelate per (candidate, layer) so the ten candidate
                // sweeps do not share one rounding stream.
                let y = layer.forward(&x, pass.for_layer(candidate * layer_count + i))?;
                if trainable[i] {
                    let flat_y = y.reshape(&[rows, y.cols()])?;
                    sweep.accumulate(candidate, &goodness(&flat_y));
                    x = normalize_activations(&y)?;
                } else {
                    x = y;
                }
            }
        }
        Ok(sweep.predictions())
    }
}

impl TrainerCore for FfTrainer {
    fn algorithm(&self) -> Algorithm {
        match self.precision {
            Precision::Int8 => Algorithm::FfInt8 {
                lookahead: self.lookahead,
            },
            Precision::Fp32 => Algorithm::FfFp32 {
                lookahead: self.lookahead,
            },
        }
    }

    fn options(&self) -> &TrainOptions {
        &self.options
    }

    fn step_batch(
        &mut self,
        net: &mut Sequential,
        batch: &Batch,
        num_classes: usize,
        lambda: f32,
    ) -> Result<StepStats> {
        let (loss, spans) =
            self.train_batch(net, &batch.images, &batch.labels, num_classes, lambda)?;
        Ok(StepStats {
            loss,
            correct: 0,
            seen: 0,
            spans,
        })
    }

    fn evaluate(&mut self, net: &mut Sequential, dataset: &Dataset) -> Result<f32> {
        FfTrainer::evaluate(self, net, dataset)
    }

    fn tracks_running_accuracy(&self) -> bool {
        false
    }

    fn rng_mut(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    fn export_state(&self) -> TrainerState {
        TrainerState {
            rng: self.rng.state(),
            slots: self.optimizers.iter().map(|o| o.export()).collect(),
        }
    }

    fn import_state(&mut self, state: &TrainerState, net: &mut Sequential) -> Result<()> {
        if state.slots.len() > net.len() {
            return Err(crate::CoreError::CheckpointMismatch {
                message: format!(
                    "checkpoint holds {} optimizer slots but the network has {} layers",
                    state.slots.len(),
                    net.len()
                ),
            });
        }
        let mut optimizers = Vec::with_capacity(state.slots.len());
        for (index, (slot, layer)) in state.slots.iter().zip(net.layers_mut()).enumerate() {
            let shapes: Vec<Vec<usize>> = layer
                .params_mut()
                .iter()
                .map(|p| p.value.shape().to_vec())
                .collect();
            optimizers.push(AnyOptimizer::import(
                self.options.optimizer,
                self.options.learning_rate,
                self.options.momentum,
                slot,
                &shapes,
                &format!("layer {index}"),
            )?);
        }
        self.rng = StdRng::from_state(state.rng);
        self.optimizers = optimizers;
        Ok(())
    }
}

/// `true` when the network's first layer is dense — i.e. the network takes
/// flat `[batch, features]` inputs and label-embedded batches need no
/// reshape (see [`crate::FfTrainer::prepare_batch`]).
pub fn first_layer_is_dense(net: &Sequential) -> bool {
    net.layers()
        .first()
        .map(|l| l.name() == "dense")
        .unwrap_or(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_data::{synthetic_mnist, SyntheticConfig};
    use ff_models::{small_mlp, small_resnet, SmallModelConfig};

    fn tiny_mnist() -> (Dataset, Dataset) {
        synthetic_mnist(&SyntheticConfig {
            train_size: 300,
            test_size: 100,
            noise_std: 0.15,
            max_shift: 0,
            seed: 5,
        })
    }

    #[test]
    fn ff_fp32_learns_on_mlp() {
        let (train_set, test_set) = tiny_mnist();
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = small_mlp(784, &[64, 64], 10, &mut rng);
        let options = TrainOptions {
            epochs: 10,
            learning_rate: 0.2,
            max_eval_samples: 100,
            ..TrainOptions::default()
        };
        let mut trainer = FfTrainer::new(Precision::Fp32, false, options);
        let history = trainer.train(&mut net, &train_set, &test_set).unwrap();
        let acc = history.final_accuracy().unwrap();
        assert!(acc > 0.5, "FF-FP32 accuracy {acc}");
    }

    #[test]
    fn ff_int8_learns_on_mlp() {
        let (train_set, test_set) = tiny_mnist();
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = small_mlp(784, &[64, 64], 10, &mut rng);
        let options = TrainOptions {
            epochs: 10,
            learning_rate: 0.2,
            max_eval_samples: 100,
            ..TrainOptions::default()
        };
        let mut trainer = FfTrainer::new(Precision::Int8, true, options);
        let history = trainer.train(&mut net, &train_set, &test_set).unwrap();
        let acc = history.final_accuracy().unwrap();
        assert!(acc > 0.5, "FF-INT8 accuracy {acc}");
    }

    #[test]
    fn int8_training_is_reproducible() {
        // The historic thread-rng stochastic rounding made two identically
        // seeded FF-INT8 runs diverge; seeded rounding makes them
        // bit-identical — the foundation of checkpoint/resume determinism.
        let (train_set, test_set) = tiny_mnist();
        let run = || {
            let mut rng = StdRng::seed_from_u64(3);
            let mut net = small_mlp(784, &[32, 32], 10, &mut rng);
            let options = TrainOptions {
                epochs: 2,
                max_eval_samples: 50,
                ..TrainOptions::fast_test()
            };
            let mut trainer = FfTrainer::new(Precision::Int8, true, options);
            let history = trainer.train(&mut net, &train_set, &test_set).unwrap();
            let weights: Vec<Vec<f32>> = net
                .params_mut()
                .iter()
                .map(|p| p.value.data().to_vec())
                .collect();
            (history, weights)
        };
        let (h1, w1) = run();
        let (h2, w2) = run();
        assert!(h1.same_trajectory(&h2), "histories must be bit-identical");
        assert_eq!(w1, w2, "weights must be bit-identical");
    }

    #[test]
    fn lookahead_relay_changes_early_layer_gradients() {
        // With look-ahead, the first layer's update must receive contributions
        // from later layers' losses; verify the relay path is exercised by
        // comparing gradients with and without λ.
        let (train_set, _) = tiny_mnist();
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = small_mlp(784, &[32, 32], 10, &mut rng);
        let batch = &train_set.batches(16, false, &mut rng)[0];
        let flat = batch
            .images
            .reshape(&[batch.images.rows(), batch.images.cols()])
            .unwrap();
        let options = TrainOptions::default();
        let mut trainer = FfTrainer::new(Precision::Fp32, true, options);
        let theta = trainer.options.theta;
        let (pos, _) = positive_negative_sets(&flat, &batch.labels, 10, &mut trainer.rng).unwrap();
        let rows = pos.rows();

        net.zero_grad();
        accumulate_ff_pass(
            &mut net,
            &pos,
            FfLossKind::Positive,
            theta,
            0.0,
            PassMode::Fp32,
            0,
            rows,
        )
        .unwrap();
        let grad_no_lambda = net.params_mut()[0].grad.clone();
        net.zero_grad();
        accumulate_ff_pass(
            &mut net,
            &pos,
            FfLossKind::Positive,
            theta,
            0.5,
            PassMode::Fp32,
            0,
            rows,
        )
        .unwrap();
        let grad_with_lambda = net.params_mut()[0].grad.clone();
        let diff = grad_no_lambda.sub(&grad_with_lambda).unwrap().max_abs();
        assert!(diff > 0.0, "look-ahead must change first-layer gradients");
    }

    #[test]
    fn predict_returns_valid_labels() {
        let (train_set, _) = tiny_mnist();
        let mut rng = StdRng::seed_from_u64(4);
        let mut net = small_mlp(784, &[32], 10, &mut rng);
        let mut trainer = FfTrainer::new(Precision::Fp32, false, TrainOptions::fast_test());
        let subset = train_set.take(20).unwrap();
        let preds = trainer.predict(&mut net, subset.images(), 10).unwrap();
        assert_eq!(preds.len(), 20);
        assert!(preds.iter().all(|&p| p < 10));
    }

    #[test]
    fn empty_training_set_is_rejected() {
        let (train_set, test_set) = tiny_mnist();
        let empty = train_set.take(0).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = small_mlp(784, &[16], 10, &mut rng);
        let mut trainer = FfTrainer::new(Precision::Fp32, false, TrainOptions::fast_test());
        assert!(trainer.train(&mut net, &empty, &test_set).is_err());
    }

    #[test]
    fn ff_trains_convolutional_residual_model() {
        // Smoke test: the FF trainer must handle conv nets with residual
        // blocks and parameter-free layers (global pooling) in the chain.
        let config = SyntheticConfig {
            train_size: 60,
            test_size: 30,
            noise_std: 0.15,
            max_shift: 0,
            seed: 6,
        };
        let (train_set, test_set) = ff_data::synthetic_cifar10(&config);
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = SmallModelConfig::default()
            .with_base_channels(4)
            .with_stages(1)
            .with_input(3, 32);
        let mut net = small_resnet(&cfg, &mut rng);
        let options = TrainOptions {
            epochs: 1,
            batch_size: 16,
            max_eval_samples: 20,
            ..TrainOptions::default()
        };
        let mut trainer = FfTrainer::new(Precision::Int8, true, options);
        let history = trainer.train(&mut net, &train_set, &test_set).unwrap();
        assert_eq!(history.len(), 1);
        assert!(history.final_loss().unwrap().is_finite());
    }

    #[test]
    fn forward_mode_matches_precision() {
        let t8 = FfTrainer::new(Precision::Int8, true, TrainOptions::fast_test());
        assert!(t8.forward_mode().is_int8());
        assert!(t8.has_lookahead());
        assert_eq!(
            TrainerCore::algorithm(&t8),
            Algorithm::FfInt8 { lookahead: true }
        );
        let t32 = FfTrainer::new(Precision::Fp32, false, TrainOptions::fast_test());
        assert!(!t32.forward_mode().is_int8());
        assert!(!t32.has_lookahead());
        assert_eq!(
            TrainerCore::algorithm(&t32),
            Algorithm::FfFp32 { lookahead: false }
        );
    }

    #[test]
    fn trainer_state_roundtrips() {
        let (train_set, test_set) = tiny_mnist();
        let mut rng = StdRng::seed_from_u64(9);
        let mut net = small_mlp(784, &[16], 10, &mut rng);
        let options = TrainOptions {
            epochs: 1,
            max_eval_samples: 20,
            ..TrainOptions::fast_test()
        };
        let mut trainer = FfTrainer::new(Precision::Int8, true, options.clone());
        trainer.train(&mut net, &train_set, &test_set).unwrap();
        let state = trainer.export_state();
        assert_eq!(state.slots.len(), trainer.optimizers.len());
        let mut fresh = FfTrainer::new(Precision::Int8, true, options);
        fresh.import_state(&state, &mut net).unwrap();
        assert_eq!(fresh.export_state(), state);
    }
}
