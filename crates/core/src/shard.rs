//! The canonical decomposition of one FF training step into row shards —
//! the determinism contract shared by the sequential [`crate::FfTrainer`]
//! and the `ff-dist` data-parallel trainer.
//!
//! # Why a *canonical* decomposition
//!
//! Distributed training is only trustworthy on this codebase's terms if it
//! is **bit-identical** to the single-process run from the same seed (the
//! property FF8C checkpoints, the serving parity gates and the chaos
//! harness are all built on). Floating-point addition is not associative,
//! and INT8 stochastic rounding consumes seeded streams, so "split the
//! batch and sum the gradients" is only reproducible if the split points,
//! the per-shard rounding-stream derivation and the reduction order are
//! all pinned down *once*, in core — not improvised per transport.
//!
//! This module is that single definition:
//!
//! - [`shard_ranges`] fixes the split: contiguous balanced row ranges,
//!   earlier shards take the remainder.
//! - [`ShardTask`] carries everything one shard's forward/backward needs —
//!   including the *full-batch* loss divisor, so per-shard losses and
//!   gradients are partial sums of the batch mean and summing them over
//!   shards reproduces the whole-batch objective.
//! - [`PassMode::for_layer`] fixes the rounding streams: shard `s`, layer
//!   `i` uses the stream derived from `(pass_seed, s · layer_count + i)`,
//!   so shard 0 of a 1-shard run is exactly the historic unsharded
//!   derivation.
//! - [`compute_shard`] is the pure function workers evaluate: identical
//!   inputs and parameters give identical [`ShardGrads`] whether the shard
//!   runs in-process, on another thread, or across a socket.
//! - Reduction is **order-fixed**: the coordinator accumulates shard
//!   gradients with [`reduce_shard_grads`] in ascending shard index, never
//!   in arrival order.
//! - Input gradients exist only for the look-ahead relay:
//!   [`accumulate_ff_pass`] asks a layer for one (`Layer::backward`) only
//!   when `λ > 0` and a layer sits upstream; every other backward call is
//!   `Layer::backward_params_only`, which accumulates bit-identical
//!   parameter gradients and skips the dead product.

use crate::config::Precision;
use crate::goodness::{ff_loss_scaled, goodness, goodness_gradient, FfLossKind};
use crate::{CoreError, Result};
use ff_nn::{ForwardMode, Sequential};
use ff_quant::Rounding;
use ff_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

/// The numeric modes of one forward (or forward+backward) pass: FP32, or
/// INT8 with a per-layer family of seeded stochastic-rounding streams all
/// derived from one pass seed.
#[derive(Debug, Clone, Copy)]
pub enum PassMode {
    /// Full 32-bit floating point — no rounding streams, no seed.
    Fp32,
    /// INT8 MACs; `base` is the pass's seeded rounding stream from which
    /// per-layer streams are derived.
    Int8 {
        /// The pass-level seeded rounding mode (`Rounding::StochasticSeeded`).
        base: Rounding,
    },
}

impl PassMode {
    /// Draws one fresh pass seed from `rng` (INT8 only; FP32 draws nothing)
    /// and returns the seed alongside the mode. The seed is what travels
    /// over the wire to data-parallel workers; `0` for FP32.
    pub fn draw(precision: Precision, rng: &mut StdRng) -> (u64, PassMode) {
        match precision {
            Precision::Fp32 => (0, PassMode::Fp32),
            Precision::Int8 => {
                let seed = rng.gen::<u64>();
                (seed, PassMode::from_seed(precision, seed))
            }
        }
    }

    /// Reconstructs the mode from a transmitted pass seed (the receiving
    /// side of [`PassMode::draw`]).
    pub fn from_seed(precision: Precision, seed: u64) -> PassMode {
        match precision {
            Precision::Fp32 => PassMode::Fp32,
            Precision::Int8 => PassMode::Int8 {
                base: Rounding::StochasticSeeded(seed),
            },
        }
    }

    /// The forward mode for one layer: layer `index` gets the decorrelated
    /// stream derived from `(pass_seed, index)`. Callers pass a *global*
    /// index (`shard_index · layer_count + layer`, or
    /// `candidate · layer_count + layer` during prediction) so no two
    /// shards or candidates share a stream.
    pub fn for_layer(self, index: usize) -> ForwardMode {
        match self {
            PassMode::Fp32 => ForwardMode::Fp32,
            PassMode::Int8 { base } => ForwardMode::Int8(base.derive(index as u64)),
        }
    }
}

/// A label-embedded batch with its positive/negative pass seeds, ready to
/// be trained on directly or cut into [`ShardTask`]s.
///
/// Produced by [`crate::FfTrainer::prepare_batch`], which draws from the
/// trainer RNG in the exact historic order (negative-label draws, then the
/// positive pass seed, then the negative pass seed) so a 1-shard run is
/// bit-identical to every run recorded before sharding existed.
#[derive(Debug, Clone)]
pub struct PreparedBatch {
    /// The positive (correctly label-embedded) inputs, already reshaped for
    /// the network's first layer.
    pub pos: Tensor,
    /// The negative (wrongly label-embedded) inputs, same shape as `pos`.
    pub neg: Tensor,
    /// Pass seed for the positive pass (`0` in FP32, which draws nothing).
    pub pos_seed: u64,
    /// Pass seed for the negative pass.
    pub neg_seed: u64,
}

/// Everything one worker needs to compute one shard's gradients — a pure
/// function of this struct plus the current network parameters.
#[derive(Debug, Clone)]
pub struct ShardTask {
    /// This shard's rows of the positive inputs.
    pub pos: Tensor,
    /// This shard's rows of the negative inputs.
    pub neg: Tensor,
    /// The batch's positive pass seed (shared by all shards; per-shard
    /// streams are derived via the layer-index offset).
    pub pos_seed: u64,
    /// The batch's negative pass seed.
    pub neg_seed: u64,
    /// Position of this shard in the batch (fixes its rounding streams and
    /// its slot in the reduction order).
    pub shard_index: usize,
    /// Number of layers in the network (the stride of the per-shard
    /// rounding-stream derivation).
    pub layer_count: usize,
    /// Row count of the **full** batch. Dividing each shard's loss and
    /// per-sample gradients by this (instead of the shard's own row count)
    /// makes shard quantities partial sums of the batch mean.
    pub loss_divisor: usize,
    /// The goodness threshold θ.
    pub theta: f32,
    /// The look-ahead weight λ for this epoch (0 disables the relay).
    pub lambda: f32,
    /// Numeric precision of the pass.
    pub precision: Precision,
}

/// One shard's contribution to a step: its summed FF loss partial and one
/// gradient tensor per network parameter, in parameter order.
#[derive(Debug, Clone)]
pub struct ShardGrads {
    /// Positive-pass loss partial (already divided by the full batch size).
    pub loss_pos: f32,
    /// Negative-pass loss partial.
    pub loss_neg: f32,
    /// Gradients in [`Sequential::params_mut`] order.
    pub grads: Vec<Tensor>,
}

/// Splits `rows` into `shards` contiguous balanced ranges.
///
/// Earlier shards take the remainder (sizes differ by at most one); empty
/// tail ranges (when `shards > rows`) are dropped, so the returned
/// vector's positions coincide with shard indices.
///
/// This is the **canonical split**: every execution of a `grad_shards = W`
/// step — local or data-parallel — must cut the batch exactly here, or
/// runs stop being comparable bit-for-bit.
pub fn shard_ranges(rows: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.max(1);
    let base = rows / shards;
    let extra = rows % shards;
    let mut ranges = Vec::with_capacity(shards.min(rows));
    let mut start = 0;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        if len == 0 {
            break;
        }
        ranges.push((start, start + len));
        start += len;
    }
    ranges
}

/// Cuts a prepared batch into per-shard tasks along [`shard_ranges`].
///
/// # Errors
///
/// Propagates tensor row-selection errors.
pub fn shard_tasks(
    prepared: &PreparedBatch,
    shards: usize,
    layer_count: usize,
    theta: f32,
    lambda: f32,
    precision: Precision,
) -> Result<Vec<ShardTask>> {
    let rows = prepared.pos.rows();
    let mut tasks = Vec::new();
    for (shard_index, (start, end)) in shard_ranges(rows, shards).into_iter().enumerate() {
        let indices: Vec<usize> = (start..end).collect();
        tasks.push(ShardTask {
            pos: prepared.pos.select_rows(&indices)?,
            neg: prepared.neg.select_rows(&indices)?,
            pos_seed: prepared.pos_seed,
            neg_seed: prepared.neg_seed,
            shard_index,
            layer_count,
            loss_divisor: rows,
            theta,
            lambda,
            precision,
        });
    }
    Ok(tasks)
}

/// Evaluates one shard: zeroes the network's gradient accumulators, runs
/// the positive and negative passes with this shard's derived rounding
/// streams and the full-batch loss divisor, clones out the accumulated
/// gradients and zeroes the accumulators again (leaving the network clean
/// for the next shard or the reduced write-back).
///
/// This is the function data-parallel workers run remotely; because it is
/// a pure function of `(task, parameters)`, a coordinator that loses a
/// worker mid-step can recompute the same shard locally (or on a survivor)
/// and obtain bit-identical gradients.
///
/// # Errors
///
/// Propagates layer and tensor errors.
pub fn compute_shard(net: &mut Sequential, task: &ShardTask) -> Result<ShardGrads> {
    net.zero_grad();
    let offset = task.shard_index * task.layer_count;
    let pos_pass = PassMode::from_seed(task.precision, task.pos_seed);
    let neg_pass = PassMode::from_seed(task.precision, task.neg_seed);
    let loss_pos = accumulate_ff_pass(
        net,
        &task.pos,
        FfLossKind::Positive,
        task.theta,
        task.lambda,
        pos_pass,
        offset,
        task.loss_divisor,
    )?;
    let loss_neg = accumulate_ff_pass(
        net,
        &task.neg,
        FfLossKind::Negative,
        task.theta,
        task.lambda,
        neg_pass,
        offset,
        task.loss_divisor,
    )?;
    let mut grads = Vec::new();
    for p in net.params_mut() {
        grads.push(p.grad.clone());
    }
    net.zero_grad();
    Ok(ShardGrads {
        loss_pos,
        loss_neg,
        grads,
    })
}

/// Order-fixed gradient reduction: folds `incoming` (shard `s`) into the
/// running accumulator, which must hold shards `0..s` already.
///
/// Callers collect results in any order the transport delivers them but
/// **must** reduce in ascending shard index — floating-point addition is
/// not associative, and the reduction order is part of the determinism
/// contract.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] when the gradient counts disagree,
/// and propagates shape errors from the tensor addition.
pub fn reduce_shard_grads(
    accumulator: &mut Option<ShardGrads>,
    incoming: &ShardGrads,
) -> Result<()> {
    match accumulator {
        None => {
            *accumulator = Some(incoming.clone());
            Ok(())
        }
        Some(acc) => {
            if acc.grads.len() != incoming.grads.len() {
                return Err(CoreError::InvalidConfig {
                    message: format!(
                        "shard gradient reduction mismatch: accumulator holds {} tensors, \
                         incoming shard holds {}",
                        acc.grads.len(),
                        incoming.grads.len()
                    ),
                });
            }
            acc.loss_pos += incoming.loss_pos;
            acc.loss_neg += incoming.loss_neg;
            for (a, g) in acc.grads.iter_mut().zip(&incoming.grads) {
                a.add_assign(g)?;
            }
            Ok(())
        }
    }
}

/// One forward pass plus per-unit gradient accumulation for one side
/// (positive or negative) of the FF objective, over a full network.
///
/// This is the sequential trainer's historic `accumulate_pass` with two
/// generalisations: the rounding stream for layer `i` is derived from
/// `layer_index_offset + i` (shard 0 passes offset 0 and reproduces the
/// unsharded stream), and the loss divisor is explicit (pass the input's
/// own row count to reproduce the unsharded objective).
///
/// # Errors
///
/// Propagates layer and tensor errors.
#[allow(clippy::too_many_arguments)]
pub fn accumulate_ff_pass(
    net: &mut Sequential,
    input: &Tensor,
    kind: FfLossKind,
    theta: f32,
    lambda: f32,
    pass: PassMode,
    layer_index_offset: usize,
    loss_divisor: usize,
) -> Result<f32> {
    let layer_count = net.len();
    // Forward pass, collecting the raw output of every layer. The input
    // of the next layer is the row-normalised output of the previous
    // trainable layer (Hinton's layer normalisation) so goodness cannot
    // be trivially copied forward.
    let mut outputs: Vec<Tensor> = Vec::with_capacity(layer_count);
    let mut x = input.clone();
    {
        let layers = net.layers_mut();
        for (i, layer) in layers.iter_mut().enumerate() {
            let y = layer.forward(&x, pass.for_layer(layer_index_offset + i))?;
            x = if layer.param_count() > 0 {
                normalize_activations(&y)?
            } else {
                y.clone()
            };
            outputs.push(y);
        }
    }
    // Per-unit FF losses and gradients w.r.t. each unit's own output.
    let mut total_loss = 0.0f32;
    let mut own_grads: Vec<Option<Tensor>> = Vec::with_capacity(layer_count);
    {
        let layers = net.layers_mut();
        for (layer, output) in layers.iter_mut().zip(&outputs) {
            if layer.param_count() == 0 {
                own_grads.push(None);
                continue;
            }
            let rows = output.rows();
            let flat = output.reshape(&[rows, output.cols()])?;
            let g = goodness(&flat);
            let (loss, dg) = ff_loss_scaled(&g, theta, kind, loss_divisor);
            total_loss += loss;
            let grad_flat = goodness_gradient(&flat, &dg);
            own_grads.push(Some(grad_flat.reshape(output.shape())?));
        }
    }
    // Backward sweep from the last unit to the first. `relay` carries
    // λ-weighted gradients of *later* units' losses w.r.t. the current
    // layer's output (Eq. 4); it is empty in vanilla FF mode (λ = 0).
    // An input gradient is computed only where the relay consumes it: never
    // at layer 0, and nowhere when λ = 0 — FF has no backward chain to pay
    // for, so those layers take the parameter-only backward.
    let mut relay: Option<Tensor> = None;
    let layers = net.layers_mut();
    for i in (0..layer_count).rev() {
        let own = own_grads[i].take();
        let incoming_relay = relay.take();
        let relays_onward = lambda > 0.0 && i > 0;
        match (own, incoming_relay) {
            (Some(own_grad), maybe_relay) if relays_onward => {
                let mut r = layers[i].backward(&own_grad)?.scale(lambda);
                if let Some(incoming) = maybe_relay {
                    r.add_assign(&layers[i].backward(&incoming)?)?;
                }
                relay = Some(r);
            }
            (Some(own_grad), maybe_relay) => {
                layers[i].backward_params_only(&own_grad)?;
                if let Some(incoming) = maybe_relay {
                    layers[i].backward_params_only(&incoming)?;
                }
            }
            // Parameter-free layer: relay the gradient through its backward
            // pass unchanged.
            (None, Some(r)) if i > 0 => relay = Some(layers[i].backward(&r)?),
            (None, Some(r)) => layers[i].backward_params_only(&r)?,
            (None, None) => {}
        }
    }
    Ok(total_loss)
}

/// Row-normalises activations (flattened per sample) before they feed the
/// next FF unit.
pub(crate) fn normalize_activations(output: &Tensor) -> Result<Tensor> {
    let rows = output.rows();
    let flat = output.reshape(&[rows, output.cols()])?;
    Ok(flat.normalize_rows(1e-6).reshape(output.shape())?)
}

/// Reshapes a flattened (label-embedded) batch back to the input shape the
/// network expects: flat `[batch, features]` when the first layer is
/// dense, the original image shape otherwise.
pub(crate) fn reshape_for_input(
    flat: &Tensor,
    original_shape: &[usize],
    first_is_dense: bool,
) -> Result<Tensor> {
    if first_is_dense {
        Ok(flat.clone())
    } else {
        Ok(flat.reshape(original_shape)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_are_contiguous_balanced_and_cover() {
        for rows in [0usize, 1, 2, 7, 16, 33] {
            for shards in [1usize, 2, 3, 4, 8, 40] {
                let ranges = shard_ranges(rows, shards);
                let mut expected_start = 0;
                for &(start, end) in &ranges {
                    assert_eq!(start, expected_start, "rows={rows} shards={shards}");
                    assert!(end > start, "empty range leaked");
                    expected_start = end;
                }
                assert_eq!(expected_start, rows, "rows={rows} shards={shards}");
                if !ranges.is_empty() {
                    let sizes: Vec<usize> = ranges.iter().map(|(s, e)| e - s).collect();
                    let max = *sizes.iter().max().unwrap();
                    let min = *sizes.iter().min().unwrap();
                    assert!(max - min <= 1, "unbalanced split {sizes:?}");
                }
            }
        }
    }

    #[test]
    fn pass_mode_derivation_is_per_global_index() {
        let pass = PassMode::from_seed(Precision::Int8, 99);
        // Distinct global layer indices get distinct rounding streams, so
        // shard 1's layers never share a stream with shard 0's.
        let layer_count = 3;
        for i in 0..layer_count {
            assert_ne!(pass.for_layer(i), pass.for_layer(layer_count + i));
        }
        // FP32 ignores indices entirely.
        assert_eq!(
            PassMode::from_seed(Precision::Fp32, 7).for_layer(5),
            ForwardMode::Fp32
        );
    }

    #[test]
    fn reduce_rejects_mismatched_grad_counts() {
        let a = ShardGrads {
            loss_pos: 1.0,
            loss_neg: 1.0,
            grads: vec![Tensor::zeros(&[2])],
        };
        let b = ShardGrads {
            loss_pos: 1.0,
            loss_neg: 1.0,
            grads: Vec::new(),
        };
        let mut acc = None;
        reduce_shard_grads(&mut acc, &a).unwrap();
        assert!(matches!(
            reduce_shard_grads(&mut acc, &b),
            Err(CoreError::InvalidConfig { .. })
        ));
    }
}
