//! Frozen models: immutable, thread-shareable INT8 inference networks.
//!
//! # Freezing
//!
//! [`FrozenModel::freeze`] walks a trained [`ff_nn::Sequential`] through
//! [`ff_nn::Sequential::snapshots`] and turns every layer into its serving
//! form: dense weights become eagerly packed [`SharedGemmPlan`]s (INT8
//! codes with their per-tensor scale and `A·Bᵀ` panels), biases stay fp32,
//! the fused-ReLU flag is preserved, and shape metadata is validated to
//! chain correctly.
//! The result borrows nothing from the network and exposes **only `&self`**
//! methods, so one `Arc<FrozenModel>` serves every worker thread of the
//! micro-batching engine.
//!
//! # Numerics: per-row activation quantization
//!
//! Training quantizes activations with one scale per *batch tensor*, which
//! couples samples: a sample's INT8 codes depend on what else is in the
//! batch. A serving engine that coalesces arbitrary requests into batches
//! cannot afford that — results would depend on scheduling. Frozen models
//! therefore quantize activations **per row** ([`RowQuantTensor`]) and run
//! the GEMM with a per-row dequantization scale
//! ([`int8_matmul_a_bt_shared_rows`]), making every output row a pure
//! function of its own input row and the weights. Predictions are
//! bit-identical no matter how requests are batched — the property the
//! batcher tests assert and the micro-batching scheduler relies on.
//!
//! # Classification modes
//!
//! * [`FrozenModel::predict_logits`] — plain forward chain, row-wise argmax
//!   of the final layer (the backprop-trained-network convention).
//! * [`FrozenModel::predict_goodness`] — the FF-native sweep: every
//!   candidate label is embedded into the input, per-layer goodness is
//!   accumulated with [`GoodnessSweep`], and the best-scoring label wins.
//!   This mirrors `ff_core::FfTrainer::predict` (label embedding, per-unit
//!   goodness, activation normalization between units). The `C` candidate
//!   overlays of one sample differ only in their label slots, and they share
//!   one per-row scale (`max(1, max|rest|) / 127`), so their first-layer
//!   INT8 codes differ only by where the one-hot code sits. The first dense
//!   layer therefore runs **once per request row** and fans out to all `C`
//!   candidates through an exact integer correction in the GEMM epilogue
//!   ([`int8_matmul_a_bt_shared_rows_fanout`]); every later layer runs one
//!   GEMM over all `batch · C` candidate rows, sample-major. Labels are
//!   bit-identical to scoring every overlay separately.

use crate::{Result, ServeError};
use ff_core::{goodness, GoodnessSweep};
use ff_nn::{LayerSnapshot, Sequential};
use ff_quant::{
    int8_matmul_a_bt_shared_rows, int8_matmul_a_bt_shared_rows_fanout, QuantTensor, RowQuantTensor,
    SharedGemmPlan,
};
use ff_tensor::Tensor;

/// One frozen layer of a [`FrozenModel`].
#[derive(Debug, Clone)]
pub enum FrozenLayer {
    /// A dense layer with an eagerly packed shared weight plan.
    Dense(FrozenDense),
    /// A flatten layer (no-op on the already-flat serving inputs).
    Flatten,
}

impl FrozenLayer {
    /// Short human-readable kind name.
    pub fn kind(&self) -> &'static str {
        match self {
            FrozenLayer::Dense(_) => "dense",
            FrozenLayer::Flatten => "flatten",
        }
    }
}

/// A frozen dense layer: `y = act(x · Wᵀ + b)` with INT8 weights.
#[derive(Debug, Clone)]
pub struct FrozenDense {
    plan: SharedGemmPlan,
    bias: Tensor,
    relu: bool,
}

impl FrozenDense {
    /// Builds a frozen dense layer, validating the bias length against the
    /// weight's output dimension.
    pub(crate) fn new(weight: QuantTensor, bias: Tensor, relu: bool) -> Result<Self> {
        let plan = SharedGemmPlan::from_quant(weight)?;
        if bias.ndim() != 1 || bias.len() != plan.shape()[0] {
            return Err(ServeError::InvalidModel {
                message: format!(
                    "dense bias shape {:?} does not match {} output features",
                    bias.shape(),
                    plan.shape()[0]
                ),
            });
        }
        if !plan.scale().is_finite() || plan.scale() <= 0.0 {
            return Err(ServeError::InvalidModel {
                message: format!("dense weight scale {} is not positive finite", plan.scale()),
            });
        }
        Ok(FrozenDense { plan, bias, relu })
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.plan.shape()[1]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.plan.shape()[0]
    }

    /// `true` when the layer applies a fused ReLU.
    pub fn has_relu(&self) -> bool {
        self.relu
    }

    /// The shared packed weight plan.
    pub fn plan(&self) -> &SharedGemmPlan {
        &self.plan
    }

    /// The fp32 bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    fn forward(&self, x: &Tensor, threads: Option<usize>) -> Result<Tensor> {
        let rows = RowQuantTensor::quantize(x)?;
        Ok(int8_matmul_a_bt_shared_rows(
            &rows,
            &self.plan,
            Some(&self.bias),
            self.relu,
            threads,
        )?)
    }

    /// The goodness sweep's first layer: row `r·classes + c` of the result is
    /// input row `r` with candidate label `c` embedded (label slots
    /// `0..classes` cleared, slot `c` set to 1) through this layer.
    ///
    /// Only the candidate-0 overlays are quantized. Every candidate overlay
    /// of a row has the same max-abs (its label slots hold one 1 and zeros,
    /// and the max skips NaN), hence the same scale, and its codes are the
    /// candidate-0 codes with the slot-0 code moved to slot `c`, which is
    /// exactly the fan-out the GEMM epilogue applies.
    fn forward_candidates(
        &self,
        input: &Tensor,
        classes: usize,
        threads: Option<usize>,
    ) -> Result<Tensor> {
        let mut overlay = input.clone();
        for row in 0..overlay.rows() {
            let slots = &mut overlay.row_mut(row)[..classes];
            slots.fill(0.0);
            slots[0] = 1.0;
        }
        let rows = RowQuantTensor::quantize(&overlay)?;
        Ok(int8_matmul_a_bt_shared_rows_fanout(
            &rows,
            &self.plan,
            classes,
            Some(&self.bias),
            self.relu,
            threads,
        )?)
    }
}

/// An immutable INT8 inference network.
///
/// See the crate docs ([`crate`]) for the freezing and numerics contract. All
/// methods take `&self`; the type is `Send + Sync` so one instance (behind
/// an `Arc`) serves any number of threads.
///
/// # Examples
///
/// ```
/// use ff_models::small_mlp;
/// use ff_serve::FrozenModel;
/// use ff_tensor::Tensor;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), ff_serve::ServeError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let net = small_mlp(20, &[16], 4, &mut rng);
/// let model = FrozenModel::freeze(&net, 4)?;
/// let x = Tensor::ones(&[3, 20]);
/// assert_eq!(model.predict_logits(&x)?.len(), 3);
/// assert_eq!(model.predict_goodness(&x)?.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FrozenModel {
    layers: Vec<FrozenLayer>,
    input_features: usize,
    num_classes: usize,
}

impl FrozenModel {
    /// Freezes a trained network into its immutable serving form.
    ///
    /// `num_classes` is recorded for the goodness sweep (how many candidate
    /// labels to embed); it must fit within the model's input features.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnsupportedLayer`] when the network contains a
    /// layer with no frozen representation, and
    /// [`ServeError::InvalidModel`] when the layer dimensions do not chain,
    /// no dense layer exists, or `num_classes` is unusable.
    pub fn freeze(net: &Sequential, num_classes: usize) -> Result<Self> {
        let snapshots = net.snapshots().map_err(|e| match e {
            ff_nn::NnError::UnsupportedLayer { layer, .. } => ServeError::UnsupportedLayer {
                layer: layer.to_string(),
            },
            other => ServeError::InvalidModel {
                message: other.to_string(),
            },
        })?;
        let mut layers = Vec::with_capacity(snapshots.len());
        for snapshot in snapshots {
            layers.push(match snapshot {
                LayerSnapshot::Dense { weight, bias, relu } => {
                    FrozenLayer::Dense(FrozenDense::new(weight, bias, relu)?)
                }
                LayerSnapshot::Flatten => FrozenLayer::Flatten,
            });
        }
        Self::from_layers(layers, num_classes)
    }

    /// Warm-restart freezing: restores a mid-training `FF8C`
    /// [`ff_core::Checkpoint`]'s parameters into `net` (the caller rebuilds
    /// the architecture with any RNG — every parameter is overwritten) and
    /// freezes the result, without ever constructing a training session.
    ///
    /// This is the eval-while-training deployment path: a trainer
    /// auto-checkpoints every *n* steps, and a serving process picks up
    /// `checkpoint::latest` and starts answering traffic from it. The
    /// frozen model is **bit-identical** to freezing a
    /// [`ff_core::TrainSession::resume`]d session's network, because both
    /// go through [`ff_core::Checkpoint::restore_params`] — the property
    /// the warm-restart test suite asserts.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidModel`] when the checkpoint's parameter
    /// count or shapes do not fit `net`, plus every [`FrozenModel::freeze`]
    /// error.
    pub fn from_checkpoint(
        checkpoint: &ff_core::Checkpoint,
        net: &mut Sequential,
        num_classes: usize,
    ) -> Result<Self> {
        checkpoint
            .restore_params(net)
            .map_err(|e| ServeError::InvalidModel {
                message: format!("checkpoint does not fit the network: {e}"),
            })?;
        Self::freeze(net, num_classes)
    }

    /// Assembles a frozen model from already-built layers (the artifact
    /// loader's entry point), validating the dimension chain.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidModel`] when the dimensions do not
    /// chain, no dense layer exists, or `num_classes` does not fit.
    pub(crate) fn from_layers(layers: Vec<FrozenLayer>, num_classes: usize) -> Result<Self> {
        let mut input_features = None;
        let mut prev_out = None;
        for (i, layer) in layers.iter().enumerate() {
            if let FrozenLayer::Dense(dense) = layer {
                if let Some(out) = prev_out {
                    if dense.in_features() != out {
                        return Err(ServeError::InvalidModel {
                            message: format!(
                                "layer {i} expects {} input features but the previous \
                                 dense layer produces {out}",
                                dense.in_features()
                            ),
                        });
                    }
                }
                if input_features.is_none() {
                    input_features = Some(dense.in_features());
                }
                prev_out = Some(dense.out_features());
            }
        }
        let Some(input_features) = input_features else {
            return Err(ServeError::InvalidModel {
                message: "model has no dense layer to serve".to_string(),
            });
        };
        if num_classes == 0 {
            return Err(ServeError::InvalidModel {
                message: "num_classes must be positive".to_string(),
            });
        }
        if num_classes > input_features {
            return Err(ServeError::InvalidModel {
                message: format!(
                    "cannot embed {num_classes} candidate labels into \
                     {input_features} input features"
                ),
            });
        }
        Ok(FrozenModel {
            layers,
            input_features,
            num_classes,
        })
    }

    /// The frozen layer stack.
    pub fn layers(&self) -> &[FrozenLayer] {
        &self.layers
    }

    /// Number of input features a request must provide.
    pub fn input_features(&self) -> usize {
        self.input_features
    }

    /// Number of candidate labels the goodness sweep tries.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Total bytes held by packed weight panels (diagnostics).
    pub fn packed_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match l {
                FrozenLayer::Dense(d) => d.plan().packed_bytes(),
                FrozenLayer::Flatten => 0,
            })
            .sum()
    }

    fn check_input(&self, input: &Tensor) -> Result<()> {
        if input.ndim() != 2 || input.shape()[1] != self.input_features {
            return Err(ServeError::BadRequest {
                message: format!(
                    "expected [batch, {}], got {:?}",
                    self.input_features,
                    input.shape()
                ),
            });
        }
        Ok(())
    }

    /// Runs the plain forward chain (no inter-layer normalization) and
    /// returns the final activations — the logits path.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] when `input` is not
    /// `[batch, input_features]`.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        self.forward_threads(input, None)
    }

    /// [`FrozenModel::forward`] with an explicit GEMM thread count
    /// (`Some(1)` inside server workers, whose parallelism comes from
    /// concurrent batches instead).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] when `input` is not
    /// `[batch, input_features]`.
    pub fn forward_threads(&self, input: &Tensor, threads: Option<usize>) -> Result<Tensor> {
        self.check_input(input)?;
        let mut x: Option<Tensor> = None;
        for layer in &self.layers {
            if let FrozenLayer::Dense(dense) = layer {
                x = Some(dense.forward(x.as_ref().unwrap_or(input), threads)?);
            }
        }
        // A model with no dense layer is unconstructible, but stay total.
        Ok(x.unwrap_or_else(|| input.clone()))
    }

    /// Classifies by forward pass + row-wise argmax of the final logits.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] when `input` is not
    /// `[batch, input_features]`.
    pub fn predict_logits(&self, input: &Tensor) -> Result<Vec<usize>> {
        self.predict_logits_threads(input, None)
    }

    /// [`FrozenModel::predict_logits`] with an explicit GEMM thread count.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] when `input` is not
    /// `[batch, input_features]`.
    pub fn predict_logits_threads(
        &self,
        input: &Tensor,
        threads: Option<usize>,
    ) -> Result<Vec<usize>> {
        Ok(self.forward_threads(input, threads)?.argmax_rows())
    }

    /// FF-native classification: embeds every candidate label and picks the
    /// label with the highest goodness summed over all dense units. The first
    /// dense layer runs once per input row and fans out to the
    /// `num_classes` candidates in its GEMM epilogue; each later layer runs
    /// one GEMM over all `batch · num_classes` candidate rows (see the
    /// module docs).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] when `input` is not
    /// `[batch, input_features]`.
    pub fn predict_goodness(&self, input: &Tensor) -> Result<Vec<usize>> {
        self.predict_goodness_threads(input, None)
    }

    /// [`FrozenModel::predict_goodness`] with an explicit GEMM thread count.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] when `input` is not
    /// `[batch, input_features]`.
    pub fn predict_goodness_threads(
        &self,
        input: &Tensor,
        threads: Option<usize>,
    ) -> Result<Vec<usize>> {
        self.check_input(input)?;
        let batch = input.rows();
        if batch == 0 {
            return Ok(Vec::new());
        }
        let classes = self.num_classes;
        let mut sweep = GoodnessSweep::new(batch, classes);
        // Sample-major candidate rows: row r·classes + c is sample r under
        // candidate label c.
        let mut x: Option<Tensor> = None;
        for layer in &self.layers {
            let FrozenLayer::Dense(dense) = layer else {
                continue;
            };
            let y = match &x {
                None => dense.forward_candidates(input, classes, threads)?,
                Some(x) => dense.forward(x, threads)?,
            };
            // Per-sample goodness of this unit, added into the sweep cell of
            // (sample, candidate) the row belongs to.
            for (cell, g) in goodness(&y).into_iter().enumerate() {
                sweep.add(cell / classes, cell % classes, g);
            }
            // Hinton's inter-unit normalization, row-wise and therefore
            // batching-invariant.
            x = Some(y.normalize_rows(1e-6));
        }
        Ok(sweep.predictions())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_models::small_mlp;
    use ff_nn::{Dense, ForwardMode, Sequential};
    use ff_quant::Rounding;
    use ff_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(17)
    }

    fn frozen(
        input: usize,
        hidden: &[usize],
        classes: usize,
        seed: u64,
    ) -> (Sequential, FrozenModel) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = small_mlp(input, hidden, classes, &mut rng);
        let model = FrozenModel::freeze(&net, classes).unwrap();
        (net, model)
    }

    /// The overlay sweep: all `batch · classes` candidate overlays
    /// (candidate-major, rows `[c·batch, (c+1)·batch)` carry label `c`)
    /// through every dense layer. The oracle for the prefix path; returns
    /// the first dense layer's activations and the labels.
    fn overlay_sweep(
        model: &FrozenModel,
        input: &Tensor,
        threads: Option<usize>,
    ) -> (Tensor, Vec<usize>) {
        let (batch, classes) = (input.rows(), model.num_classes());
        let features = model.input_features();
        let mut overlay = Vec::with_capacity(batch * classes * features);
        for candidate in 0..classes {
            for row in 0..batch {
                let base = overlay.len();
                overlay.extend_from_slice(input.row(row));
                overlay[base..base + classes].fill(0.0);
                overlay[base + candidate] = 1.0;
            }
        }
        let mut x = Tensor::from_vec(&[batch * classes, features], overlay).unwrap();
        let mut first = None;
        let mut sweep = GoodnessSweep::new(batch, classes);
        for layer in model.layers() {
            if let FrozenLayer::Dense(dense) = layer {
                let y = dense.forward(&x, threads).unwrap();
                let g = goodness(&y);
                for candidate in 0..classes {
                    for row in 0..batch {
                        sweep.add(row, candidate, g[candidate * batch + row]);
                    }
                }
                x = y.normalize_rows(1e-6);
                first.get_or_insert(y);
            }
        }
        (first.unwrap(), sweep.predictions())
    }

    /// `batch` request rows that stress the shared-scale argument: mostly
    /// uniform in [−1, 1], plus rows with `max|x| > 1` (slot-0 code below
    /// 127, down to 0 past 254), an all-zero row, NaN and ±inf entries, and
    /// non-zero values in the label slots the overlay overwrites.
    fn stress_rows(batch: usize, features: usize, classes: usize, seed: u64) -> Tensor {
        let mut x = init::uniform(
            &[batch, features],
            -1.0,
            1.0,
            &mut StdRng::seed_from_u64(seed),
        );
        let last = features - 1;
        for row in 0..batch {
            let r = x.row_mut(row);
            match row % 8 {
                1 => r.iter_mut().for_each(|v| *v *= 3.0),
                2 => r.fill(0.0),
                3 => r[last] = f32::NAN,
                4 => r[last] = f32::INFINITY,
                5 => r[last] = f32::NEG_INFINITY,
                6 => {
                    r[..classes].fill(-7.5);
                    r[0] = 900.0;
                }
                7 => r[last] = 300.0,
                _ => {}
            }
        }
        x
    }

    #[test]
    fn prefix_path_matches_overlay_sweep_bit_for_bit() {
        let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let check = |model: &FrozenModel, batch: usize, threads: Option<usize>| {
            let classes = model.num_classes();
            let x = stress_rows(batch, model.input_features(), classes, batch as u64);
            let FrozenLayer::Dense(first) = &model.layers()[0] else {
                panic!("first layer is dense");
            };
            let prefix = first.forward_candidates(&x, classes, threads).unwrap();
            let (overlay, labels) = overlay_sweep(model, &x, threads);
            assert_eq!(prefix.shape(), overlay.shape());
            for row in 0..batch {
                for c in 0..classes {
                    assert_eq!(
                        bits(prefix.row(row * classes + c)),
                        bits(overlay.row(c * batch + row)),
                        "layer 1, row {row}, candidate {c}, batch {batch}, {threads:?}"
                    );
                }
            }
            let got = model.predict_goodness_threads(&x, threads).unwrap();
            assert_eq!(got, labels, "labels, batch {batch}, {threads:?}");
        };
        for (input, hidden, classes, seed) in [
            (16, &[14][..], 6, 3),
            (24, &[20, 9], 8, 6),
            (5, &[7], 5, 8),
            (40, &[33, 65, 17], 10, 9),
        ] {
            let (_, model) = frozen(input, hidden, classes, seed);
            for batch in [1, 7, 16] {
                for threads in [Some(1), Some(2), None] {
                    check(&model, batch, threads);
                }
            }
        }
        // The paper MLP, at the serving wave size and one row.
        let (_, model) = frozen(784, &[2000, 2000], 10, 1);
        check(&model, 16, None);
        check(&model, 1, Some(1));
        check(&model, 7, Some(2));
    }

    #[test]
    fn frozen_model_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FrozenModel>();
    }

    #[test]
    fn freeze_preserves_structure_and_metadata() {
        let (net, model) = frozen(20, &[16, 12], 5, 1);
        assert_eq!(model.layers().len(), net.len());
        assert_eq!(model.input_features(), 20);
        assert_eq!(model.num_classes(), 5);
        assert!(model.packed_bytes() > 0, "plans are packed eagerly");
        let FrozenLayer::Dense(first) = &model.layers()[0] else {
            panic!("first layer is dense");
        };
        assert_eq!(first.in_features(), 20);
        assert_eq!(first.out_features(), 16);
        assert!(first.has_relu());
        assert_eq!(model.layers()[0].kind(), "dense");
        assert_eq!(first.bias().len(), 16);
    }

    #[test]
    fn freeze_rejects_unsupported_and_invalid() {
        let mut net = Sequential::new();
        net.push(Box::new(
            ff_nn::Conv2d::new(1, 2, 3, 1, 1, false, &mut rng()).unwrap(),
        ));
        assert!(matches!(
            FrozenModel::freeze(&net, 2),
            Err(ServeError::UnsupportedLayer { .. })
        ));
        // No dense layer at all.
        let mut flat_only = Sequential::new();
        flat_only.push(Box::new(ff_nn::Flatten::new()));
        assert!(matches!(
            FrozenModel::freeze(&flat_only, 2),
            Err(ServeError::InvalidModel { .. })
        ));
        // num_classes out of range.
        let net = small_mlp(4, &[8], 3, &mut rng());
        assert!(FrozenModel::freeze(&net, 0).is_err());
        assert!(FrozenModel::freeze(&net, 5).is_err());
    }

    #[test]
    fn forward_matches_sequential_int8_nearest_on_single_rows() {
        // For a one-row input, per-row and per-tensor activation scales
        // coincide, so the frozen forward must reproduce the training-time
        // INT8 (nearest) forward bit-exactly.
        let (mut net, model) = frozen(12, &[10, 8], 4, 2);
        let mut r = rng();
        for _ in 0..5 {
            let x = init::uniform(&[1, 12], -1.0, 1.0, &mut r);
            let frozen_y = model.forward(&x).unwrap();
            let train_y = net
                .forward(&x, ForwardMode::Int8(Rounding::Nearest))
                .unwrap();
            assert_eq!(frozen_y.data(), train_y.data());
        }
    }

    #[test]
    fn predictions_are_batching_invariant() {
        let (_, model) = frozen(16, &[14], 6, 3);
        let x = init::uniform(&[7, 16], -1.0, 1.0, &mut rng());
        let batched_logits = model.predict_logits(&x).unwrap();
        let batched_goodness = model.predict_goodness(&x).unwrap();
        for i in 0..7 {
            let row = x.slice_rows(i, i + 1).unwrap();
            assert_eq!(model.predict_logits(&row).unwrap()[0], batched_logits[i]);
            assert_eq!(
                model.predict_goodness(&row).unwrap()[0],
                batched_goodness[i]
            );
        }
    }

    #[test]
    fn goodness_sweep_prefers_amplified_label_slot() {
        // A diagonal layer whose gain is largest on label slot 2: the
        // candidate overlay that lights up slot 2 accumulates the highest
        // goodness, so the sweep must pick label 2.
        let mut net = Sequential::new();
        let mut dense = Dense::new(6, 6, true, &mut rng());
        let mut w = Tensor::zeros(&[6, 6]);
        for i in 0..6 {
            w.set2(i, i, if i == 2 { 3.0 } else { 1.0 }).unwrap();
        }
        dense.set_weight(w).unwrap();
        net.push(Box::new(dense));
        let model = FrozenModel::freeze(&net, 3).unwrap();
        let x = Tensor::zeros(&[1, 6]);
        assert_eq!(model.predict_goodness(&x).unwrap(), vec![2]);
    }

    #[test]
    fn rejects_wrong_feature_count() {
        let (_, model) = frozen(10, &[8], 4, 4);
        assert!(matches!(
            model.forward(&Tensor::ones(&[2, 9])),
            Err(ServeError::BadRequest { .. })
        ));
        assert!(model.predict_goodness(&Tensor::ones(&[4])).is_err());
    }

    #[test]
    fn empty_batch_predicts_nothing() {
        let (_, model) = frozen(10, &[8], 4, 5);
        let empty = Tensor::zeros(&[0, 10]);
        assert!(model.predict_goodness(&empty).unwrap().is_empty());
        assert!(model.predict_logits(&empty).unwrap().is_empty());
    }

    #[test]
    fn thread_count_does_not_change_predictions() {
        let (_, model) = frozen(24, &[20], 8, 6);
        let x = init::uniform(&[9, 24], -1.0, 1.0, &mut rng());
        let auto = model.predict_goodness(&x).unwrap();
        for threads in [1usize, 2, 4, 8] {
            assert_eq!(
                model.predict_goodness_threads(&x, Some(threads)).unwrap(),
                auto
            );
        }
    }
}
