//! The [`Layer`] trait, shared parameter handles, and frozen-layer
//! snapshots for inference export.

use crate::Result;
use ff_quant::{QuantTensor, Rounding};
use ff_tensor::Tensor;

/// Numeric mode of a forward pass.
///
/// [`ForwardMode::Int8`] quantizes the layer's inputs and weights with
/// symmetric uniform quantization and performs the MAC phase with `i8`
/// operands and `i32` accumulation, mirroring the FF-INT8 dataflow
/// (paper Fig. 4). Layers without MACs (pooling, flatten, ...) behave the
/// same in both modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ForwardMode {
    /// Full 32-bit floating-point arithmetic.
    #[default]
    Fp32,
    /// INT8 MACs with the given rounding mode for input/gradient quantization.
    Int8(Rounding),
}

impl ForwardMode {
    /// `true` when the mode performs INT8 MACs.
    pub fn is_int8(&self) -> bool {
        matches!(self, ForwardMode::Int8(_))
    }
}

/// Mutable handles onto one parameter tensor and its gradient accumulator.
///
/// Optimizers iterate over these; gradient-quantizing trainers (BP-INT8, UI8,
/// GDAI8) mutate `grad` in place before stepping.
#[derive(Debug)]
pub struct ParamRefMut<'a> {
    /// The parameter values.
    pub value: &'a mut Tensor,
    /// The accumulated gradient (same shape as `value`).
    pub grad: &'a mut Tensor,
    /// Monotonic parameter-version counter, bumped by [`crate::Optimizer`]
    /// implementations every time they write `value`. Layers that keep
    /// cached quantized state keyed to a parameter (e.g. a packed INT8
    /// weight plan, see `ff_quant::plan`) expose `Some(counter)` here and
    /// rebuild the cache when the counter has moved; parameters with no
    /// derived cache pass `None`.
    pub version: Option<&'a mut u64>,
}

impl ParamRefMut<'_> {
    /// Records that `value` was mutated by bumping the version counter (if
    /// the owning layer tracks one). Every optimizer must call this (or bump
    /// the counter itself) after writing `value`, otherwise layers may keep
    /// serving stale cached quantized weights.
    pub fn mark_updated(&mut self) {
        if let Some(version) = self.version.as_deref_mut() {
            *version = version.wrapping_add(1);
        }
    }
}

/// An immutable, training-free description of one layer, extracted by
/// [`Layer::snapshot`] for inference export.
///
/// A snapshot captures exactly what a *serving* engine needs — INT8 weight
/// codes with their scale, the fp32 bias, the activation flag, and shape
/// metadata — and nothing the training loop needs (gradients, caches,
/// optimizer state). `ff-serve` turns a `Vec<LayerSnapshot>` into a frozen
/// model and a versioned binary artifact.
#[derive(Debug, Clone)]
pub enum LayerSnapshot {
    /// A dense layer: `y = act(x · Wᵀ + b)` with `W` stored `[out, in]` and
    /// quantized to INT8 with deterministic nearest rounding.
    Dense {
        /// The quantized weight matrix, shape `[out_features, in_features]`.
        weight: QuantTensor,
        /// The fp32 bias vector, length `out_features`.
        bias: Tensor,
        /// `true` when the layer applies a fused ReLU.
        relu: bool,
    },
    /// A flatten layer: reshapes `[batch, ...]` to `[batch, features]`
    /// (a no-op on already-flat serving inputs).
    Flatten,
}

impl LayerSnapshot {
    /// Short human-readable kind name (used in error messages and reports).
    pub fn kind(&self) -> &'static str {
        match self {
            LayerSnapshot::Dense { .. } => "dense",
            LayerSnapshot::Flatten => "flatten",
        }
    }
}

/// A neural-network layer with an explicit backward pass.
///
/// Layers cache whatever their own backward pass needs during `forward`;
/// `backward` consumes the gradient w.r.t. the layer output, **accumulates**
/// parameter gradients (`+=`) and returns the gradient w.r.t. the layer
/// input. Accumulation (rather than overwrite) is what lets the look-ahead
/// scheme add `λ · ∂L_j/∂W_i` contributions from several later layers.
pub trait Layer: Send {
    /// Short human-readable layer name (used in error messages and reports).
    fn name(&self) -> &'static str;

    /// Runs the layer on a mini-batch.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError`] when the input shape is incompatible.
    fn forward(&mut self, input: &Tensor, mode: ForwardMode) -> Result<Tensor>;

    /// Propagates `grad_output` (gradient w.r.t. this layer's output) back to
    /// the layer input, accumulating parameter gradients along the way.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::MissingForwardState`] if called before
    /// `forward`, or a shape error if `grad_output` does not match the cached
    /// output shape.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor>;

    /// [`Layer::backward`] for callers that drop the input gradient:
    /// accumulates exactly the same parameter gradients (and advances any
    /// per-call state, such as seeded rounding streams, identically) but may
    /// skip computing the gradient w.r.t. the layer input.
    ///
    /// Forward-Forward training needs this for every layer whose input
    /// gradient nobody consumes — all of them without look-ahead, the first
    /// one always. The default just discards what `backward` returns;
    /// layers whose input-gradient product is expensive override it.
    ///
    /// # Errors
    ///
    /// Same as [`Layer::backward`].
    fn backward_params_only(&mut self, grad_output: &Tensor) -> Result<()> {
        self.backward(grad_output).map(drop)
    }

    /// Mutable access to every parameter/gradient pair of the layer.
    fn params_mut(&mut self) -> Vec<ParamRefMut<'_>> {
        Vec::new()
    }

    /// Total number of trainable scalar parameters.
    fn param_count(&self) -> usize {
        0
    }

    /// Resets every accumulated gradient to zero.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.grad.scale_inplace(0.0);
        }
    }

    /// Number of fused multiply–accumulate operations performed by one
    /// forward pass over a batch of `batch` samples, given the layer's input
    /// feature geometry. Used by the analytic cost model.
    fn forward_macs(&self, batch: usize) -> u64 {
        let _ = batch;
        0
    }

    /// Extracts an immutable inference snapshot of this layer, or `None`
    /// when the layer type has no frozen representation yet (convolutions,
    /// normalization, residual blocks). [`crate::Sequential::snapshots`]
    /// turns a `None` into a typed error naming the layer.
    fn snapshot(&self) -> Option<LayerSnapshot> {
        None
    }
}

/// Test helper shared by the layers that override
/// [`Layer::backward_params_only`]: in FP32 and in seeded INT8, after one
/// forward, feeds `grads` to `backward` on one layer from `build` and to
/// `backward_params_only` on another and requires bit-identical parameter
/// gradients after every call. `build` must return identical layers (a clone
/// of one, or a construction from one seed); the seeded forward then leaves
/// both in the same state. Several `grads` model the look-ahead relay: later
/// calls draw from the next seeded rounding stream and accumulate onto a
/// non-zero gradient. Also checks the missing-forward error.
#[cfg(test)]
pub(crate) fn assert_params_only_matches_backward<L: Layer>(
    build: impl Fn() -> L,
    input: &Tensor,
    grads: &[&Tensor],
) {
    fn grad_bits(layer: &mut impl Layer) -> Vec<Vec<u32>> {
        let params = layer.params_mut();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect();
        params.iter().map(|p| bits(p.grad)).collect()
    }
    for mode in [
        ForwardMode::Fp32,
        ForwardMode::Int8(Rounding::StochasticSeeded(9)),
    ] {
        let (mut full, mut params_only) = (build(), build());
        full.forward(input, mode).unwrap();
        params_only.forward(input, mode).unwrap();
        for grad in grads {
            full.backward(grad).unwrap();
            params_only.backward_params_only(grad).unwrap();
            assert_eq!(
                grad_bits(&mut full),
                grad_bits(&mut params_only),
                "{mode:?}"
            );
        }
    }
    assert!(matches!(
        build().backward_params_only(grads[0]),
        Err(crate::NnError::MissingForwardState { .. })
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_mode_queries() {
        assert!(!ForwardMode::Fp32.is_int8());
        assert!(ForwardMode::Int8(Rounding::Nearest).is_int8());
        assert_eq!(ForwardMode::default(), ForwardMode::Fp32);
    }
}
