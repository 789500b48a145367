//! # ff-quant
//!
//! Symmetric uniform quantization (SUQ) to INT8, stochastic rounding, the
//! packed/blocked/multi-threaded INT8 GEMM engine, and gradient-distribution
//! statistics.
//!
//! This crate implements the numerical substrate of the FF-INT8 paper
//! (Section IV-B): activations, weights and gradients are quantized with a
//! per-tensor symmetric scale `s = max|x| / 127`, optionally with stochastic
//! rounding (Gupta et al., 2015), and the MAC phase runs on `i8` inputs with
//! `i32` accumulators.
//!
//! The MAC phase is served by a single blocked micro-kernel shared by all
//! three GEMM variants (`A·B`, `A·Bᵀ`, `Aᵀ·B`): operands are repacked into
//! `i16` panels ([`pack`]), tiled `NC → KC → MC`, sharded across worker
//! threads by output row panels, and dequantized in a fused epilogue that
//! either stores (with an optional bias and ReLU) or accumulates into a
//! gradient buffer. One crate-private engine call runs it; the public way
//! in is six entry points over a plan ([`plan`]). Operands that persist
//! across steps — layer weights above all — are quantized and packed
//! **once** into a cached [`QGemmPlan`], so per-step GEMM cost scales with
//! the activations only; the plan is rebuilt lazily when the optimizer
//! bumps the owning layer's parameter version. Training runs
//! [`int8_matmul_a_bt_planned`] (dense/conv forward, fused bias + ReLU) and
//! [`int8_matmul_at_b_planned_accumulate`] (weight gradient, added onto the
//! layer's accumulator in the epilogue); [`int8_matmul_planned`] and
//! [`int8_matmul_at_b_planned`] return a product as a new tensor. For
//! inference, the immutable [`SharedGemmPlan`] packs a weight's panels
//! eagerly and is `Sync`, and [`int8_matmul_a_bt_shared_rows`] runs it
//! against a **per-row-quantized** activation batch ([`RowQuantTensor`])
//! through the per-row-scale epilogue — making results independent of how
//! samples are batched, the contract `ff-serve`'s micro-batcher is built
//! on; [`int8_matmul_a_bt_shared_rows_fanout`] runs it once per row and
//! fans each row out to `fan` rows that differ in one moved code (the
//! goodness sweep's candidate labels) through an exact integer correction. The naive triple-loop kernels survive as test oracles in
//! [`gemm::reference`]; every entry point matches them bit-exactly for
//! every shape. See [`gemm`] for the kernel design, [`pack`] for the panel
//! layout, and [`plan`] for the caching and invalidation contract.
//!
//! # Examples
//!
//! ```
//! use ff_quant::{QuantTensor, Rounding};
//! use ff_tensor::Tensor;
//!
//! # fn main() -> Result<(), ff_tensor::TensorError> {
//! let x = Tensor::from_vec(&[2, 2], vec![0.5, -1.0, 0.25, 1.0])?;
//! let q = QuantTensor::quantize(&x, Rounding::Nearest);
//! let back = q.dequantize();
//! for (a, b) in x.data().iter().zip(back.data()) {
//!     assert!((a - b).abs() <= q.scale() / 2.0 + 1e-6);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod qtensor;
mod suq;

pub mod gemm;
pub mod pack;
pub mod plan;
pub mod stats;

pub use gemm::int8_gemm_op_count;
pub use plan::{
    int8_matmul_a_bt_planned, int8_matmul_a_bt_shared_rows, int8_matmul_a_bt_shared_rows_fanout,
    int8_matmul_at_b_planned, int8_matmul_at_b_planned_accumulate, int8_matmul_planned, QGemmPlan,
    SharedGemmPlan,
};
pub use qtensor::{QuantTensor, RowQuantTensor};
pub use suq::{
    compute_scale, dequantize_value, quantize_slice, quantize_value, QuantConfig, Rounding, QMAX,
    QMIN,
};

/// Convenience result alias (errors are shared with `ff-tensor`).
pub type Result<T> = std::result::Result<T, ff_tensor::TensorError>;
