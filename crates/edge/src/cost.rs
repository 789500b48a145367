//! Time, energy and memory estimation for a full training run.

use crate::device::DeviceSpec;
use crate::opcount::{bp_fp32_batch_ops, bp_int8_batch_ops, ff_int8_batch_ops, OpCounts};
use ff_models::ModelSpec;
use serde::{Deserialize, Serialize};

/// The training algorithms the cost model can account for (the Table V
/// lineup).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AlgorithmKind {
    /// FP32 backpropagation.
    BpFp32,
    /// Backpropagation with directly quantized INT8 gradients.
    BpInt8,
    /// Unified INT8 training (UI8).
    BpUi8,
    /// Gradient-distribution-aware INT8 training (GDAI8).
    BpGdai8,
    /// Forward-Forward INT8 training with look-ahead (the paper's method).
    FfInt8,
}

impl AlgorithmKind {
    /// Report label matching the paper's Table V rows.
    pub fn label(&self) -> &'static str {
        match self {
            AlgorithmKind::BpFp32 => "BP-FP32",
            AlgorithmKind::BpInt8 => "BP-INT8",
            AlgorithmKind::BpUi8 => "BP-UI8",
            AlgorithmKind::BpGdai8 => "BP-GDAI8",
            AlgorithmKind::FfInt8 => "FF-INT8",
        }
    }

    /// All five algorithms in Table V order.
    pub fn table5_lineup() -> [AlgorithmKind; 5] {
        [
            AlgorithmKind::BpFp32,
            AlgorithmKind::BpInt8,
            AlgorithmKind::BpUi8,
            AlgorithmKind::BpGdai8,
            AlgorithmKind::FfInt8,
        ]
    }

    /// FP32 gradient-analysis overhead per gradient element (ops): zero for
    /// plain quantization, larger for the distribution-aware schemes.
    fn analysis_overhead(&self) -> u64 {
        match self {
            AlgorithmKind::BpFp32 => 0,
            AlgorithmKind::BpInt8 => 2,
            AlgorithmKind::BpUi8 => 8,
            AlgorithmKind::BpGdai8 => 12,
            AlgorithmKind::FfInt8 => 2,
        }
    }
}

/// Shape of one training run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrainingRun {
    /// Mini-batch size (the paper uses 32).
    pub batch_size: usize,
    /// Mini-batches per epoch.
    pub batches_per_epoch: usize,
    /// Number of epochs.
    pub epochs: usize,
}

impl TrainingRun {
    /// Total number of mini-batches processed.
    pub fn total_batches(&self) -> u64 {
        (self.batches_per_epoch * self.epochs) as u64
    }
}

/// Estimated cost of one full training run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainingCost {
    /// Wall-clock training time in seconds.
    pub time_s: f64,
    /// Energy in joules.
    pub energy_j: f64,
    /// Peak memory footprint in bytes.
    pub memory_bytes: u64,
    /// Operation counts for a single mini-batch.
    pub batch_ops: OpCounts,
}

/// The analytic cost model: a device spec plus accounting rules.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    device: DeviceSpec,
    /// Fixed runtime overhead resident in memory (framework, kernels, I/O
    /// buffers) in bytes.
    pub runtime_overhead_bytes: u64,
}

impl CostModel {
    /// Cost model for the paper's Jetson Orin Nano setup.
    pub fn jetson_orin_nano() -> Self {
        CostModel {
            device: DeviceSpec::jetson_orin_nano(),
            runtime_overhead_bytes: 96 * 1024 * 1024,
        }
    }

    /// Builds a cost model around a custom device.
    pub fn new(device: DeviceSpec) -> Self {
        CostModel {
            device,
            runtime_overhead_bytes: 96 * 1024 * 1024,
        }
    }

    /// The underlying device specification.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Per-mini-batch operation counts for an algorithm on a model.
    pub fn batch_ops(
        &self,
        algorithm: AlgorithmKind,
        spec: &ModelSpec,
        batch_size: usize,
    ) -> OpCounts {
        match algorithm {
            AlgorithmKind::FfInt8 => ff_int8_batch_ops(spec, batch_size),
            AlgorithmKind::BpFp32 => bp_fp32_batch_ops(spec, batch_size),
            AlgorithmKind::BpInt8 | AlgorithmKind::BpUi8 | AlgorithmKind::BpGdai8 => {
                bp_int8_batch_ops(spec, batch_size, algorithm.analysis_overhead())
            }
        }
    }

    /// Wall-clock time of one mini-batch in seconds (roofline of compute and
    /// memory traffic).
    fn batch_time_s(&self, algorithm: AlgorithmKind, spec: &ModelSpec, batch_size: usize) -> f64 {
        let ops = self.batch_ops(algorithm, spec, batch_size);
        let d = &self.device;
        let int8_time = (ops.int8_mul + ops.int8_add) as f64 / d.sustained_int8_ops_per_s();
        let fp32_time =
            (ops.fp32_mul + ops.fp32_add + ops.cmp32) as f64 / d.sustained_fp32_flops_per_s();
        // Backpropagation spends two of its three GEMM families in the
        // backward pass, which runs at reduced efficiency compared to the
        // inference-optimised forward kernels (paper Section V-C). The FF
        // algorithm only executes forward-style GEMMs.
        let compute = match algorithm {
            AlgorithmKind::FfInt8 => int8_time + fp32_time,
            AlgorithmKind::BpFp32
            | AlgorithmKind::BpInt8
            | AlgorithmKind::BpUi8
            | AlgorithmKind::BpGdai8 => {
                let mac_time = int8_time.max(fp32_time.min(f64::MAX));
                let forward_share = mac_time / 3.0;
                let backward_share = 2.0 * mac_time / 3.0;
                forward_share
                    + backward_share / d.backward_efficiency
                    + if ops.int8_mul > 0 { fp32_time } else { 0.0 }
            }
        };
        let traffic = self.batch_dram_bytes(algorithm, spec, batch_size) as f64
            / d.memory_bandwidth_bytes_per_s;
        compute.max(traffic)
    }

    /// DRAM traffic of one mini-batch in bytes.
    ///
    /// Backpropagation touches the weights once per GEMM family (forward,
    /// gradient back-propagation, weight-gradient write) plus the optimizer
    /// update, and moves FP32 activations *and* activation gradients. The FF
    /// algorithm reads the weights only for its two forward passes (there is
    /// no gA GEMM) and moves INT8 activations with no activation-gradient
    /// chain.
    fn batch_dram_bytes(
        &self,
        algorithm: AlgorithmKind,
        spec: &ModelSpec,
        batch_size: usize,
    ) -> u64 {
        let weight_bytes = spec.param_count() * 4;
        let act_elements = spec.activation_elements() * batch_size as u64;
        let (weight_traffic, act_bytes_per_elem) = match algorithm {
            AlgorithmKind::FfInt8 => (3, 2),
            AlgorithmKind::BpFp32 => (4, 8),
            AlgorithmKind::BpInt8 | AlgorithmKind::BpUi8 | AlgorithmKind::BpGdai8 => (4, 6),
        };
        weight_traffic * weight_bytes + act_elements * act_bytes_per_elem
    }

    /// Peak memory footprint in bytes.
    pub fn memory_footprint(
        &self,
        algorithm: AlgorithmKind,
        spec: &ModelSpec,
        batch_size: usize,
    ) -> u64 {
        let params = spec.param_count();
        let batch = batch_size as u64;
        let weights = params * 4;
        let momentum = params * 4;
        let input = spec.input_elements as u64 * batch * 4;
        let activations = spec.activation_elements() * batch;
        let max_layer_activation = spec.max_layer_activation() * batch;
        let (grad_bytes, act_footprint) = match algorithm {
            AlgorithmKind::BpFp32 => {
                // FP32 activations + activation gradients + autograd graph
                // bookkeeping (~50% of activation storage).
                (
                    params * 4,
                    activations * 4 + activations * 4 + activations * 2,
                )
            }
            AlgorithmKind::BpInt8 => (params, activations * 4 + activations * 4 + activations * 2),
            AlgorithmKind::BpUi8 => {
                // UI8 keeps activations in INT8 but still needs the FP32
                // activation-gradient chain and graph bookkeeping.
                (params, activations + activations * 4 + activations * 2)
            }
            AlgorithmKind::BpGdai8 => (params, activations + activations * 4 + activations),
            AlgorithmKind::FfInt8 => {
                // Look-ahead keeps one INT8 copy of each layer's activations
                // for the current batch (needed for the per-layer gW GEMMs)
                // but no activation-gradient chain and no autograd graph.
                // The goodness relay only ever materialises two layers at a
                // time in FP32.
                (params, activations + max_layer_activation * 2 * 4)
            }
        };
        self.runtime_overhead_bytes + weights + momentum + grad_bytes + input + act_footprint
    }

    /// Energy of one mini-batch in joules: dynamic compute energy + DRAM
    /// traffic energy + idle power over the batch duration.
    fn batch_energy_j(&self, algorithm: AlgorithmKind, spec: &ModelSpec, batch_size: usize) -> f64 {
        let ops = self.batch_ops(algorithm, spec, batch_size);
        let d = &self.device;
        let dynamic = ops.int8_mul as f64 * d.energy_per_int8_mac_j
            + (ops.fp32_mul + ops.fp32_add + ops.cmp32) as f64 * d.energy_per_fp32_flop_j;
        let dram =
            self.batch_dram_bytes(algorithm, spec, batch_size) as f64 * d.energy_per_dram_byte_j;
        let idle = d.idle_power_w * self.batch_time_s(algorithm, spec, batch_size);
        dynamic + dram + idle
    }

    /// Estimates the full-run cost of training `spec` with `algorithm`.
    pub fn estimate(
        &self,
        algorithm: AlgorithmKind,
        spec: &ModelSpec,
        run: &TrainingRun,
    ) -> TrainingCost {
        let batches = run.total_batches() as f64;
        let time_s = self.batch_time_s(algorithm, spec, run.batch_size) * batches;
        let energy_j = self.batch_energy_j(algorithm, spec, run.batch_size) * batches;
        let memory_bytes = self.memory_footprint(algorithm, spec, run.batch_size);
        TrainingCost {
            time_s,
            energy_j,
            memory_bytes,
            batch_ops: self.batch_ops(algorithm, spec, run.batch_size),
        }
    }

    /// `true` when the estimated footprint fits in the device DRAM.
    pub fn fits_in_memory(
        &self,
        algorithm: AlgorithmKind,
        spec: &ModelSpec,
        batch_size: usize,
    ) -> bool {
        self.memory_footprint(algorithm, spec, batch_size) <= self.device.memory_bytes
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::jetson_orin_nano()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_models::specs;

    fn run() -> TrainingRun {
        TrainingRun {
            batch_size: 32,
            batches_per_epoch: 1563, // CIFAR-10 50k / 32
            epochs: 30,
        }
    }

    #[test]
    fn labels_and_lineup() {
        assert_eq!(AlgorithmKind::FfInt8.label(), "FF-INT8");
        assert_eq!(AlgorithmKind::table5_lineup().len(), 5);
        assert_eq!(
            TrainingRun {
                batch_size: 1,
                batches_per_epoch: 10,
                epochs: 3
            }
            .total_batches(),
            30
        );
    }

    #[test]
    fn ff_int8_beats_bp_fp32_on_every_axis() {
        // Table V, "Avg. difference between FF-INT8 and BP-FP32": FF-INT8
        // saves time, energy and memory.
        let model = CostModel::jetson_orin_nano();
        for spec in specs::table2_specs() {
            let ff = model.estimate(AlgorithmKind::FfInt8, &spec, &run());
            let bp = model.estimate(AlgorithmKind::BpFp32, &spec, &run());
            assert!(ff.time_s < bp.time_s, "{}: time", spec.name);
            assert!(ff.energy_j < bp.energy_j, "{}: energy", spec.name);
            assert!(ff.memory_bytes < bp.memory_bytes, "{}: memory", spec.name);
        }
    }

    #[test]
    fn ff_int8_beats_gdai8_on_every_axis() {
        // Table V, state-of-the-art comparison: FF-INT8 saves time, energy
        // and (especially) memory relative to BP-GDAI8.
        let model = CostModel::jetson_orin_nano();
        for spec in specs::table2_specs() {
            let ff = model.estimate(AlgorithmKind::FfInt8, &spec, &run());
            let gdai8 = model.estimate(AlgorithmKind::BpGdai8, &spec, &run());
            assert!(ff.time_s < gdai8.time_s, "{}: time", spec.name);
            assert!(ff.energy_j < gdai8.energy_j, "{}: energy", spec.name);
            assert!(
                ff.memory_bytes < gdai8.memory_bytes,
                "{}: memory",
                spec.name
            );
        }
    }

    #[test]
    fn int8_backprop_is_cheaper_than_fp32_backprop() {
        let model = CostModel::jetson_orin_nano();
        let spec = specs::resnet18_spec();
        let fp32 = model.estimate(AlgorithmKind::BpFp32, &spec, &run());
        let int8 = model.estimate(AlgorithmKind::BpInt8, &spec, &run());
        assert!(int8.time_s < fp32.time_s);
        assert!(int8.energy_j < fp32.energy_j);
        assert!(int8.memory_bytes < fp32.memory_bytes);
    }

    #[test]
    fn gdai8_overhead_exceeds_plain_int8() {
        let model = CostModel::jetson_orin_nano();
        let spec = specs::mobilenet_v2_spec();
        let plain = model.estimate(AlgorithmKind::BpInt8, &spec, &run());
        let gdai8 = model.estimate(AlgorithmKind::BpGdai8, &spec, &run());
        assert!(gdai8.time_s >= plain.time_s);
    }

    #[test]
    fn memory_fits_on_the_board() {
        let model = CostModel::jetson_orin_nano();
        for spec in specs::table2_specs() {
            assert!(
                model.fits_in_memory(AlgorithmKind::BpFp32, &spec, 32),
                "{} should fit in 4 GB",
                spec.name
            );
        }
    }

    #[test]
    fn cost_scales_linearly_with_epochs() {
        let model = CostModel::jetson_orin_nano();
        let spec = specs::mlp_spec(&[1000, 1000]);
        let short = model.estimate(
            AlgorithmKind::FfInt8,
            &spec,
            &TrainingRun {
                batch_size: 32,
                batches_per_epoch: 100,
                epochs: 1,
            },
        );
        let long = model.estimate(
            AlgorithmKind::FfInt8,
            &spec,
            &TrainingRun {
                batch_size: 32,
                batches_per_epoch: 100,
                epochs: 10,
            },
        );
        assert!((long.time_s / short.time_s - 10.0).abs() < 1e-6);
        assert_eq!(long.memory_bytes, short.memory_bytes);
    }
}
