//! Cached packed-weight GEMM plans for the INT8 training hot path.
//!
//! # Why plans exist
//!
//! Every INT8 GEMM needs its operands quantized and repacked into the
//! engine's `i16` panel layout ([`crate::pack`]) — an `O(mk + kn)` tax per
//! call. For *activations* that tax is unavoidable (the data changes every
//! step), but a layer's *weight matrix* only changes when the optimizer
//! steps. The FF-INT8 dataflow (paper Fig. 4) keeps weights resident in INT8
//! precisely so per-step cost scales with the activations alone; a
//! [`QGemmPlan`] is the code-level realisation of that idea: quantize and
//! pack a tensor **once**, then reuse the panels across every
//! `int8_matmul_*` call until the underlying values change.
//!
//! The plan always plays the `B` operand; the other operand (activations or
//! output gradients) is packed per call by the entry point. These entry
//! points are the crate's only way into the GEMM engine ([`crate::gemm`]).
//!
//! # What a plan holds
//!
//! A [`QGemmPlan`] owns the quantized codes and per-tensor scale (a
//! [`QuantTensor`]) plus up to two lazily-built panel packings — one per
//! `B` role the tensor can play:
//!
//! | accessor                              | role                | variant(s)     |
//! |---------------------------------------|---------------------|----------------|
//! | [`QGemmPlan::packed_as_b`]            | `B`, stored `[k,n]` | `A·B`, `Aᵀ·B`  |
//! | [`QGemmPlan::packed_as_b_transposed`] | `B`, stored `[n,k]` | `A·Bᵀ`         |
//!
//! Each packing is built on first use and cached for the plan's lifetime, so
//! a dense layer's weight plan pays the `[n,k]`-transposed B packing once
//! per optimizer step instead of once per forward, and an input plan built
//! during the forward pass serves both look-ahead backward calls without
//! repacking. Those backward calls add their weight gradient onto the
//! layer's accumulator inside the GEMM epilogue
//! ([`int8_matmul_at_b_planned_accumulate`]).
//!
//! # Invalidation
//!
//! Plans are immutable snapshots: they never observe later edits to the
//! tensor they were built from. Callers key a plan to the parameter state it
//! captured via the [`QGemmPlan::version`] tag — layers store a `u64`
//! parameter version that optimizers bump through
//! `ParamRefMut::version` on every step, and rebuild the plan iff the tag no
//! longer matches. Quantization uses deterministic nearest rounding, so a
//! rebuilt plan over unchanged weights is bit-identical, and every planned
//! entry point matches the naive [`crate::gemm::reference`] oracle exactly
//! (enforced by the property tests in `tests/proptests.rs`).
//!
//! # Examples
//!
//! A weight plan reused across forward calls (the dense-layer hot path):
//!
//! ```
//! use ff_quant::{int8_matmul_a_bt_planned, QGemmPlan, QuantTensor, Rounding};
//! use ff_tensor::Tensor;
//!
//! # fn main() -> Result<(), ff_tensor::TensorError> {
//! // Weights stored [out, in] = [2, 3], quantized and packed once.
//! let w = Tensor::from_vec(&[2, 3], vec![0.5, -0.25, 1.0, 0.75, -0.5, 0.25])?;
//! let mut plan = QGemmPlan::from_tensor(&w, 0)?;
//! // Two "steps" with different activations reuse the same packed panels.
//! for step in 0..2 {
//!     let x = Tensor::from_vec(&[1, 3], vec![1.0, step as f32, -1.0])?;
//!     let qx = QuantTensor::quantize(&x, Rounding::Nearest);
//!     let (y, _) = int8_matmul_a_bt_planned(&qx, &mut plan, None, false)?;
//!     assert_eq!(y.shape(), &[1, 2]);
//! }
//! # Ok(())
//! # }
//! ```
//!
//! The planned path is bit-exact with the naive reference kernel:
//!
//! ```
//! use ff_quant::gemm::reference;
//! use ff_quant::{int8_matmul_a_bt_planned, QGemmPlan, QuantTensor, Rounding};
//! use ff_tensor::Tensor;
//!
//! # fn main() -> Result<(), ff_tensor::TensorError> {
//! let w = Tensor::from_vec(&[2, 4], vec![0.9, -0.1, 0.4, 0.2, -0.7, 0.3, 0.8, -0.6])?;
//! let x = Tensor::from_vec(&[3, 4], (0..12).map(|i| i as f32 / 6.0 - 1.0).collect())?;
//! let qw = QuantTensor::quantize(&w, Rounding::Nearest);
//! let qx = QuantTensor::quantize(&x, Rounding::Nearest);
//! let mut plan = QGemmPlan::from_quant(qw.clone(), 7)?;
//! let (planned, _) = int8_matmul_a_bt_planned(&qx, &mut plan, None, false)?;
//! let naive = reference::int8_matmul_a_bt(&qx, &qw)?;
//! assert_eq!(planned.data(), naive.data());
//! # Ok(())
//! # }
//! ```

use crate::gemm::{check_operands, int8_gemm_prepacked_into, rank2, Epilogue, Scale};
use crate::pack::{PackSource, PackedA, PackedB};
use crate::{QuantTensor, Result, Rounding, RowQuantTensor};
use ff_tensor::{Tensor, TensorError};

/// A reusable GEMM `B` operand: quantized codes, per-tensor scale, and
/// cached packed panels for both `B` roles the tensor can play in the INT8
/// engine.
///
/// See the [module docs](self) for the caching and invalidation contract.
#[derive(Debug, Clone)]
pub struct QGemmPlan {
    quant: QuantTensor,
    version: u64,
    packed_b: Option<PackedB>,
    packed_b_t: Option<PackedB>,
}

impl QGemmPlan {
    /// Quantizes a rank-2 tensor with deterministic nearest rounding and
    /// wraps it in an (initially unpacked) plan tagged with `version`.
    ///
    /// Nearest rounding makes the plan a pure function of the tensor values,
    /// so rebuilding over unchanged weights yields bit-identical panels.
    ///
    /// # Errors
    ///
    /// Returns [`ff_tensor::TensorError::RankMismatch`] when `tensor` is not rank 2.
    pub fn from_tensor(tensor: &Tensor, version: u64) -> Result<Self> {
        rank2(tensor.shape(), "QGemmPlan")?;
        Self::from_quant(QuantTensor::quantize(tensor, Rounding::Nearest), version)
    }

    /// Wraps an already-quantized rank-2 tensor in a plan tagged with
    /// `version` (used for activation plans, where the caller picked the
    /// rounding mode).
    ///
    /// # Errors
    ///
    /// Returns [`ff_tensor::TensorError::RankMismatch`] when `quant` is not rank 2.
    pub fn from_quant(quant: QuantTensor, version: u64) -> Result<Self> {
        rank2(quant.shape(), "QGemmPlan")?;
        Ok(QGemmPlan {
            quant,
            version,
            packed_b: None,
            packed_b_t: None,
        })
    }

    /// The parameter-version tag this plan was built against. Callers compare
    /// it to their current version counter to decide whether to rebuild.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The quantized tensor the plan wraps.
    pub fn quant(&self) -> &QuantTensor {
        &self.quant
    }

    /// The per-tensor symmetric scale of the quantized codes.
    pub fn scale(&self) -> f32 {
        self.quant.scale()
    }

    /// The stored (row-major) shape of the planned tensor.
    pub fn shape(&self) -> &[usize] {
        self.quant.shape()
    }

    /// Panels for the `B` role of `A·B` / `Aᵀ·B` (stored `[k, n]`), built on
    /// first use and cached.
    pub fn packed_as_b(&mut self) -> &PackedB {
        if self.packed_b.is_none() {
            let (k, n) = (self.quant.shape()[0], self.quant.shape()[1]);
            self.packed_b = Some(PackedB::pack(
                self.quant.codes(),
                k,
                n,
                PackSource::RowMajor,
            ));
        }
        self.packed_b.as_ref().expect("packed_b just built")
    }

    /// Panels for the `B` role of `A·Bᵀ` (stored `[n, k]`), built on first
    /// use and cached. This is the packing a dense/conv layer's weight uses
    /// in the forward GEMM.
    pub fn packed_as_b_transposed(&mut self) -> &PackedB {
        if self.packed_b_t.is_none() {
            let (n, k) = (self.quant.shape()[0], self.quant.shape()[1]);
            self.packed_b_t = Some(PackedB::pack(
                self.quant.codes(),
                k,
                n,
                PackSource::Transposed,
            ));
        }
        self.packed_b_t.as_ref().expect("packed_b_t just built")
    }

    /// Bytes currently held by cached panels (diagnostics: each packed `i16`
    /// panel is roughly twice the size of the INT8 codes it covers, padded to
    /// tile boundaries).
    pub fn packed_bytes(&self) -> usize {
        let b = self.packed_b.as_ref().map_or(0, PackedB::byte_size);
        let bt = self.packed_b_t.as_ref().map_or(0, PackedB::byte_size);
        b + bt
    }
}

/// An immutable, thread-shareable (`Send + Sync`) packed-weight plan.
///
/// [`QGemmPlan`] is built for *training*: it is owned by one layer, its
/// panel packings build lazily behind `&mut self`, and it is invalidated and
/// rebuilt whenever the optimizer moves the weights. Inference has the
/// opposite profile — weights never change, but **many threads** need the
/// same packed panels concurrently. `SharedGemmPlan` serves that case: it
/// quantizes (deterministic nearest) and packs the weight's transposed-`B`
/// panels **eagerly at construction**, then exposes everything through
/// `&self`, so one plan wrapped in an `Arc` can feed every worker of a
/// serving engine through [`int8_matmul_a_bt_shared_rows`] with zero
/// synchronization.
///
/// Only the `A·Bᵀ` role is packed because that is the only GEMM inference
/// runs (`activations [m, k] × weightᵀ [n, k]`); training's other roles stay
/// on [`QGemmPlan`].
///
/// # Examples
///
/// ```
/// use ff_quant::{int8_matmul_a_bt_shared_rows, RowQuantTensor, SharedGemmPlan};
/// use ff_tensor::Tensor;
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), ff_tensor::TensorError> {
/// let w = Tensor::from_vec(&[2, 3], vec![0.5, -0.25, 1.0, 0.75, -0.5, 0.25])?;
/// let plan = Arc::new(SharedGemmPlan::from_tensor(&w)?);
/// // Any number of threads can now run GEMMs against `plan` concurrently.
/// let x = RowQuantTensor::quantize(&Tensor::from_vec(&[1, 3], vec![1.0, 0.5, -1.0])?)?;
/// let y = int8_matmul_a_bt_shared_rows(&x, &plan, None, false, None)?;
/// assert_eq!(y.shape(), &[1, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SharedGemmPlan {
    quant: QuantTensor,
    packed_b_t: PackedB,
}

impl SharedGemmPlan {
    /// Quantizes a rank-2 weight tensor (stored `[n, k]`, deterministic
    /// nearest rounding) and packs its transposed-`B` panels eagerly.
    ///
    /// # Errors
    ///
    /// Returns [`ff_tensor::TensorError::RankMismatch`] when `tensor` is not rank 2.
    pub fn from_tensor(tensor: &Tensor) -> Result<Self> {
        rank2(tensor.shape(), "QGemmPlan")?;
        Self::from_quant(QuantTensor::quantize(tensor, Rounding::Nearest))
    }

    /// Wraps an already-quantized rank-2 tensor (e.g. codes loaded from a
    /// frozen model artifact), packing its transposed-`B` panels eagerly.
    ///
    /// # Errors
    ///
    /// Returns [`ff_tensor::TensorError::RankMismatch`] when `quant` is not rank 2.
    pub fn from_quant(quant: QuantTensor) -> Result<Self> {
        let [n, k] = rank2(quant.shape(), "QGemmPlan")?;
        let packed_b_t = PackedB::pack(quant.codes(), k, n, PackSource::Transposed);
        Ok(SharedGemmPlan { quant, packed_b_t })
    }

    /// The quantized tensor the plan wraps.
    pub fn quant(&self) -> &QuantTensor {
        &self.quant
    }

    /// The per-tensor symmetric scale of the quantized codes.
    pub fn scale(&self) -> f32 {
        self.quant.scale()
    }

    /// The stored (row-major) shape of the planned tensor, `[n, k]`.
    pub fn shape(&self) -> &[usize] {
        self.quant.shape()
    }

    /// The eagerly packed transposed-`B` panels (the `A·Bᵀ` role).
    pub fn packed_as_b_transposed(&self) -> &PackedB {
        &self.packed_b_t
    }

    /// Bytes held by the packed panels (diagnostics).
    pub fn packed_bytes(&self) -> usize {
        self.packed_b_t.byte_size()
    }
}

/// `a [m, k] × planᵀ` with a **per-row-quantized** activation batch against
/// an immutable shared weight plan — the inference GEMM.
///
/// Each output row `i` is dequantized with `a.scales()[i] · plan.scale()`,
/// so the result for a sample is a pure function of that sample and the
/// weights: batching any set of samples together produces bit-identical
/// rows (the foundation of `ff-serve`'s micro-batching correctness).
/// Bias/ReLU fuse into the epilogue; no gradient mask is produced.
///
/// `threads`: `None` picks the worker count automatically, `Some(t)` forces
/// `t` workers (serving engines pin this to `1` and get their parallelism
/// from concurrent worker threads instead).
///
/// # Errors
///
/// Returns rank/shape errors when `a` and the plan are not conformable or
/// `bias` is not a length-`n` vector.
pub fn int8_matmul_a_bt_shared_rows(
    a: &RowQuantTensor,
    plan: &SharedGemmPlan,
    bias: Option<&Tensor>,
    relu: bool,
    threads: Option<usize>,
) -> Result<Tensor> {
    let ([m, k], [n, _]) = check_operands(
        &[a.rows(), a.cols()],
        1,
        plan.shape(),
        1,
        "int8_matmul_a_bt_shared_rows",
    )?;
    let packed_a = PackedA::pack(a.codes(), m, k, PackSource::RowMajor);
    let epilogue = Epilogue::Store {
        scale: Scale::PerRow {
            row_scales: a.scales(),
            b_scale: plan.scale(),
        },
        bias,
        relu,
    };
    let mut out = vec![0.0f32; m * n];
    int8_gemm_prepacked_into(
        &packed_a,
        plan.packed_as_b_transposed(),
        epilogue,
        &mut out,
        None,
        threads,
    )?;
    Tensor::from_vec(&[m, n], out)
}

/// [`int8_matmul_a_bt_shared_rows`] over `fan` variants of every row of
/// `a` — the first layer of `ff-serve`'s goodness sweep, where the
/// candidate label overlays of one sample differ only in which label slot
/// holds the one-hot code.
///
/// Row `i·fan + v` of the `[m · fan, n]` result is the product of row `i`
/// of `a` with its column-0 code `q` moved onto column `v` (codes
/// `a_i + q·(e_v − e_0)`; `v = 0` is row `i` itself), dequantized with row
/// `i`'s scale, `bias` and `relu` like [`int8_matmul_a_bt_shared_rows`].
/// The move changes each accumulator by exactly `q·(W[o, v] − W[o, 0])`, so
/// the GEMM runs once over `a`'s `m` rows and the fan-out epilogue adds that
/// integer correction per output row: `m·n·k + m·fan·n` MACs instead of
/// `m·fan·n·k`, and every output row is bit-identical to the shared-rows
/// product of its expanded row under the same scale. The correction rows
/// are read from the plan's codes on each call (`fan · n` values).
///
/// # Errors
///
/// Returns rank/shape errors when `a` and the plan are not conformable,
/// `bias` is not a length-`n` vector, or `fan` exceeds `a`'s column count.
pub fn int8_matmul_a_bt_shared_rows_fanout(
    a: &RowQuantTensor,
    plan: &SharedGemmPlan,
    fan: usize,
    bias: Option<&Tensor>,
    relu: bool,
    threads: Option<usize>,
) -> Result<Tensor> {
    let op = "int8_matmul_a_bt_shared_rows_fanout";
    let ([m, k], [n, _]) = check_operands(&[a.rows(), a.cols()], 1, plan.shape(), 1, op)?;
    if fan > k {
        return Err(TensorError::ShapeMismatch {
            left: vec![fan],
            right: vec![k],
            op,
        });
    }
    let codes = a.codes();
    let coefs: Vec<i8> = (0..m)
        .map(|i| codes.get(i * k).copied().unwrap_or(0))
        .collect();
    // One pass over the weight rows, reading only each row's first `fan`
    // codes: the serving GEMM reads the packed panels, so these are cold.
    let mut deltas = vec![0i16; fan * n];
    if fan > 0 {
        for (o, w_row) in plan.quant().codes().chunks(k).enumerate() {
            for (v, &code) in w_row[..fan].iter().enumerate() {
                deltas[v * n + o] = i16::from(code) - i16::from(w_row[0]);
            }
        }
    }
    let packed_a = PackedA::pack(codes, m, k, PackSource::RowMajor);
    let epilogue = Epilogue::FanOut {
        scale: Scale::PerRow {
            row_scales: a.scales(),
            b_scale: plan.scale(),
        },
        bias,
        relu,
        coefs: &coefs,
        deltas: &deltas,
        fan,
    };
    let mut out = vec![0.0f32; m * fan * n];
    int8_gemm_prepacked_into(
        &packed_a,
        plan.packed_as_b_transposed(),
        epilogue,
        &mut out,
        None,
        threads,
    )?;
    Tensor::from_vec(&[m * fan, n], out)
}

/// `a [m, k] × planᵀ` where the plan wraps a `[n, k]` tensor — the forward
/// GEMM of the dense/conv layers, with a cached weight plan.
///
/// `a` is packed per call (activations change every step); the plan's
/// transposed-`B` panels are reused across calls. The epilogue dequantizes
/// with `a.scale() · plan.scale()`, adds the per-column `bias` and, with
/// `relu`, clamps negatives and returns the ReLU gradient mask (`1.0` where
/// the pre-activation was positive) beside the output.
///
/// # Errors
///
/// Returns rank/shape errors when `a` and the plan are not conformable or
/// `bias` is not a length-`n` vector.
pub fn int8_matmul_a_bt_planned(
    a: &QuantTensor,
    plan: &mut QGemmPlan,
    bias: Option<&Tensor>,
    relu: bool,
) -> Result<(Tensor, Option<Tensor>)> {
    let ([m, k], [n, _]) =
        check_operands(a.shape(), 1, plan.shape(), 1, "int8_matmul_a_bt_planned")?;
    let packed_a = PackedA::pack(a.codes(), m, k, PackSource::RowMajor);
    let epilogue = Epilogue::Store {
        scale: Scale::PerTensor(a.scale() * plan.scale()),
        bias,
        relu,
    };
    let mut out = vec![0.0f32; m * n];
    let mut mask = relu.then(|| vec![0.0f32; m * n]);
    int8_gemm_prepacked_into(
        &packed_a,
        plan.packed_as_b_transposed(),
        epilogue,
        &mut out,
        mask.as_deref_mut(),
        None,
    )?;
    let mask = mask
        .map(|mask| Tensor::from_vec(&[m, n], mask))
        .transpose()?;
    Ok((Tensor::from_vec(&[m, n], out)?, mask))
}

/// `aᵀ × plan` where `a` is stored `[k, m]` and the plan wraps a `[k, n]`
/// tensor — the weight gradient `gW = gYᵀ · X` with the forward pass's
/// cached input plan, returned as a new tensor.
///
/// `a` (the output gradient) is packed per call; the plan's row-major `B`
/// panels are built on the first backward call and reused by later ones —
/// the look-ahead scheme backpropagates through each layer twice per step,
/// so the second call gets the input packing for free.
///
/// Layers accumulating into an existing gradient use
/// [`int8_matmul_at_b_planned_accumulate`] instead, which skips the
/// temporary this function returns.
///
/// # Errors
///
/// Returns rank/shape errors when the operands are not conformable.
pub fn int8_matmul_at_b_planned(a: &QuantTensor, plan: &mut QGemmPlan) -> Result<Tensor> {
    let (packed_a, packed_b, scale) = at_b_operands(a, plan)?;
    let (m, n) = (packed_a.m, packed_b.n);
    let mut out = vec![0.0f32; m * n];
    int8_gemm_prepacked_into(
        &packed_a,
        packed_b,
        Epilogue::store(scale),
        &mut out,
        None,
        None,
    )?;
    Tensor::from_vec(&[m, n], out)
}

/// [`int8_matmul_at_b_planned`] in accumulate mode: adds `aᵀ × plan` into
/// `out` inside the GEMM epilogue (`out[i, j] += acc · scale`) — how the
/// dense/conv layers add a backward call's weight gradient onto their
/// accumulator with no temporary and no second pass.
///
/// Per element this is the same two roundings — the `acc · scale` product,
/// then the add — as [`int8_matmul_at_b_planned`] followed by
/// `Tensor::add_assign`, hence bit-identical to that sequence. `out` is read
/// as the row-major `[m, n]` product; only its length is checked, so a conv
/// weight gradient `[oc, ic, kh, kw]` can be passed as is.
///
/// # Errors
///
/// Returns rank/shape errors when the operands are not conformable or `out`
/// does not hold `m · n` elements.
pub fn int8_matmul_at_b_planned_accumulate(
    a: &QuantTensor,
    plan: &mut QGemmPlan,
    out: &mut [f32],
) -> Result<()> {
    let (packed_a, packed_b, scale) = at_b_operands(a, plan)?;
    int8_gemm_prepacked_into(
        &packed_a,
        packed_b,
        Epilogue::Accumulate { scale },
        out,
        None,
        None,
    )
}

/// Validates and packs the operands of `aᵀ × plan`: the per-call transposed
/// `A` panels, the plan's cached row-major `B` panels, and the combined
/// dequantization scale.
fn at_b_operands<'p>(
    a: &QuantTensor,
    plan: &'p mut QGemmPlan,
) -> Result<(PackedA, &'p PackedB, f32)> {
    let ([k, m], _) = check_operands(a.shape(), 0, plan.shape(), 0, "int8_matmul_at_b_planned")?;
    let packed_a = PackedA::pack(a.codes(), m, k, PackSource::Transposed);
    let scale = a.scale() * plan.scale();
    Ok((packed_a, plan.packed_as_b(), scale))
}

/// `a [m, k] × plan` where the plan wraps a `[k, n]` tensor.
///
/// # Errors
///
/// Returns rank/shape errors when the operands are not conformable.
pub fn int8_matmul_planned(a: &QuantTensor, plan: &mut QGemmPlan) -> Result<Tensor> {
    let ([m, k], [_, n]) = check_operands(a.shape(), 1, plan.shape(), 0, "int8_matmul_planned")?;
    let packed_a = PackedA::pack(a.codes(), m, k, PackSource::RowMajor);
    let scale = a.scale() * plan.scale();
    let mut out = vec![0.0f32; m * n];
    int8_gemm_prepacked_into(
        &packed_a,
        plan.packed_as_b(),
        Epilogue::store(scale),
        &mut out,
        None,
        None,
    )?;
    Tensor::from_vec(&[m, n], out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::reference;
    use crate::QuantConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_quant(shape: &[usize], seed: u64) -> QuantTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = ff_tensor::init::uniform(shape, -1.0, 1.0, &mut rng);
        QuantTensor::quantize_with_rng(&t, QuantConfig::new(Rounding::Nearest), &mut rng)
    }

    #[test]
    fn plan_rejects_non_rank2() {
        assert!(QGemmPlan::from_tensor(&Tensor::ones(&[4]), 0).is_err());
        let q = QuantTensor::from_codes(&[2, 2, 2], vec![0; 8], 0.1).unwrap();
        assert!(QGemmPlan::from_quant(q, 0).is_err());
    }

    #[test]
    fn plan_metadata_roundtrip() {
        let q = random_quant(&[3, 5], 1);
        let plan = QGemmPlan::from_quant(q.clone(), 42).unwrap();
        assert_eq!(plan.version(), 42);
        assert_eq!(plan.shape(), &[3, 5]);
        assert_eq!(plan.scale(), q.scale());
        assert_eq!(plan.quant().codes(), q.codes());
        assert_eq!(plan.packed_bytes(), 0, "no panels built yet");
    }

    #[test]
    fn packings_are_built_lazily_and_cached() {
        let mut plan = QGemmPlan::from_quant(random_quant(&[6, 10], 2), 0).unwrap();
        assert_eq!(plan.packed_bytes(), 0);
        let after_bt = {
            plan.packed_as_b_transposed();
            plan.packed_bytes()
        };
        assert!(after_bt > 0);
        // Re-requesting the same packing allocates nothing new.
        plan.packed_as_b_transposed();
        assert_eq!(plan.packed_bytes(), after_bt);
        // A different role adds its own panels.
        plan.packed_as_b();
        assert!(plan.packed_bytes() > after_bt);
    }

    #[test]
    fn planned_a_bt_matches_unplanned_with_fused_epilogue() {
        let qa = random_quant(&[9, 31], 3);
        let qw = random_quant(&[7, 31], 4);
        let bias = Tensor::from_vec(&[7], (0..7).map(|i| i as f32 / 3.0 - 1.0).collect()).unwrap();
        let biased = reference::int8_matmul_a_bt(&qa, &qw)
            .unwrap()
            .add_row_broadcast(&bias)
            .unwrap();
        let mut plan = QGemmPlan::from_quant(qw, 0).unwrap();
        for _ in 0..2 {
            let (planned, mask) =
                int8_matmul_a_bt_planned(&qa, &mut plan, Some(&bias), true).unwrap();
            let mask = mask.unwrap();
            for ((&p, &b), &mk) in planned.data().iter().zip(biased.data()).zip(mask.data()) {
                let positive = b > 0.0;
                assert_eq!(p, if positive { b } else { 0.0 });
                assert_eq!(mk, if positive { 1.0 } else { 0.0 });
            }
            // Bias-only epilogue: no mask, negatives retained.
            let (planned, mask) =
                int8_matmul_a_bt_planned(&qa, &mut plan, Some(&bias), false).unwrap();
            assert!(mask.is_none());
            assert_eq!(planned.data(), biased.data());
        }
        let bad_bias = Tensor::ones(&[4]);
        assert!(int8_matmul_a_bt_planned(&qa, &mut plan, Some(&bad_bias), false).is_err());
    }

    #[test]
    fn planned_at_b_matches_unplanned() {
        let q_grad = random_quant(&[33, 70], 5);
        let q_input = random_quant(&[33, 27], 6);
        let unplanned = reference::int8_matmul_at_b(&q_grad, &q_input).unwrap();
        let mut plan = QGemmPlan::from_quant(q_input, 0).unwrap();
        for _ in 0..2 {
            let planned = int8_matmul_at_b_planned(&q_grad, &mut plan).unwrap();
            assert_eq!(planned.data(), unplanned.data());
        }
    }

    #[test]
    fn planned_ab_matches_unplanned() {
        let qa = random_quant(&[5, 12], 7);
        let qb = random_quant(&[12, 9], 8);
        let unplanned = reference::int8_matmul(&qa, &qb).unwrap();
        let mut plan = QGemmPlan::from_quant(qb, 0).unwrap();
        let planned = int8_matmul_planned(&qa, &mut plan).unwrap();
        assert_eq!(planned.data(), unplanned.data());
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let qa = random_quant(&[4, 8], 9);
        let mut plan_bad = QGemmPlan::from_quant(random_quant(&[3, 9], 10), 0).unwrap();
        assert!(int8_matmul_a_bt_planned(&qa, &mut plan_bad, None, false).is_err());
        assert!(int8_matmul_at_b_planned(&qa, &mut plan_bad).is_err());
        assert!(int8_matmul_planned(&qa, &mut plan_bad).is_err());
        let qv = QuantTensor::from_codes(&[4], vec![1; 4], 0.1).unwrap();
        let mut plan = QGemmPlan::from_quant(random_quant(&[8, 3], 11), 0).unwrap();
        assert!(int8_matmul_a_bt_planned(&qv, &mut plan, None, false).is_err());
    }

    #[test]
    fn shared_plan_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedGemmPlan>();
    }

    #[test]
    fn shared_plan_matches_mutable_plan_on_shared_scale_inputs() {
        // A single-row input has identical per-row and per-tensor scales, so
        // the shared (row-scale) path must agree bit-exactly with the
        // training-time planned path.
        let mut rng = StdRng::seed_from_u64(21);
        let w = ff_tensor::init::uniform(&[7, 13], -1.0, 1.0, &mut rng);
        let x = ff_tensor::init::uniform(&[1, 13], -1.0, 1.0, &mut rng);
        let bias = ff_tensor::init::uniform(&[7], -0.5, 0.5, &mut rng);
        let shared = SharedGemmPlan::from_tensor(&w).unwrap();
        let rows = RowQuantTensor::quantize(&x).unwrap();
        let got = int8_matmul_a_bt_shared_rows(&rows, &shared, Some(&bias), true, None).unwrap();
        let mut plan = QGemmPlan::from_tensor(&w, 0).unwrap();
        let qx = QuantTensor::quantize(&x, Rounding::Nearest);
        let (expect, _) = int8_matmul_a_bt_planned(&qx, &mut plan, Some(&bias), true).unwrap();
        assert_eq!(got.data(), expect.data());
    }

    #[test]
    fn shared_rows_results_are_batching_invariant() {
        // Row i of a batched GEMM must equal the single-row GEMM of row i:
        // the correctness foundation of micro-batched serving.
        let mut rng = StdRng::seed_from_u64(22);
        let w = ff_tensor::init::uniform(&[9, 17], -1.0, 1.0, &mut rng);
        let shared = SharedGemmPlan::from_tensor(&w).unwrap();
        let batch = ff_tensor::init::uniform(&[5, 17], -2.0, 2.0, &mut rng);
        let q_batch = RowQuantTensor::quantize(&batch).unwrap();
        let batched = int8_matmul_a_bt_shared_rows(&q_batch, &shared, None, false, None).unwrap();
        for i in 0..5 {
            let row = batch.slice_rows(i, i + 1).unwrap();
            let q_row = RowQuantTensor::quantize(&row).unwrap();
            let single = int8_matmul_a_bt_shared_rows(&q_row, &shared, None, false, None).unwrap();
            assert_eq!(single.data(), batched.row(i), "row {i}");
        }
    }

    #[test]
    fn shared_plan_metadata_and_errors() {
        let mut rng = StdRng::seed_from_u64(23);
        let w = ff_tensor::init::uniform(&[4, 6], -1.0, 1.0, &mut rng);
        let shared = SharedGemmPlan::from_tensor(&w).unwrap();
        assert_eq!(shared.shape(), &[4, 6]);
        assert!(shared.scale() > 0.0);
        assert!(shared.packed_bytes() > 0, "panels are packed eagerly");
        assert_eq!(shared.quant().shape(), &[4, 6]);
        assert!(SharedGemmPlan::from_tensor(&Tensor::ones(&[4])).is_err());
        // Mismatched activation width is rejected.
        let bad = RowQuantTensor::quantize(&Tensor::ones(&[2, 5])).unwrap();
        assert!(int8_matmul_a_bt_shared_rows(&bad, &shared, None, false, None).is_err());
        // Bad bias length is rejected.
        let ok = RowQuantTensor::quantize(&Tensor::ones(&[2, 6])).unwrap();
        assert!(
            int8_matmul_a_bt_shared_rows(&ok, &shared, Some(&Tensor::ones(&[3])), false, None)
                .is_err()
        );
    }

    #[test]
    fn shared_rows_fanout_matches_shared_rows_over_moved_codes() {
        // Rows whose label-like slots 1..4 are zero and whose slot 0 holds the
        // row maximum: moving that value to slot v keeps every row's scale,
        // so the fan-out must equal the shared-rows GEMM over the moved rows.
        let (fan, k) = (4, 9);
        let mut rng = StdRng::seed_from_u64(24);
        let w = ff_tensor::init::uniform(&[6, k], -1.0, 1.0, &mut rng);
        let bias = ff_tensor::init::uniform(&[6], -0.5, 0.5, &mut rng);
        let shared = SharedGemmPlan::from_tensor(&w).unwrap();
        let mut x = ff_tensor::init::uniform(&[3, k], -1.0, 1.0, &mut rng);
        for row in 0..3 {
            x.row_mut(row)[..fan].fill(0.0);
            x.row_mut(row)[0] = 1.5;
        }
        let mut moved = Vec::new();
        for row in 0..3 {
            for v in 0..fan {
                let start = moved.len();
                moved.extend_from_slice(x.row(row));
                moved[start] = 0.0;
                moved[start + v] = 1.5;
            }
        }
        let moved = Tensor::from_vec(&[3 * fan, k], moved).unwrap();
        let rows = RowQuantTensor::quantize(&x).unwrap();
        let expect = int8_matmul_a_bt_shared_rows(
            &RowQuantTensor::quantize(&moved).unwrap(),
            &shared,
            Some(&bias),
            true,
            None,
        )
        .unwrap();
        let got = int8_matmul_a_bt_shared_rows_fanout(&rows, &shared, fan, Some(&bias), true, None)
            .unwrap();
        assert_eq!(got.shape(), &[3 * fan, 6]);
        assert_eq!(got.data(), expect.data());
        assert!(
            int8_matmul_a_bt_shared_rows_fanout(&rows, &shared, k + 1, None, false, None).is_err()
        );
    }

    #[test]
    fn from_tensor_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(12);
        let w = ff_tensor::init::uniform(&[5, 7], -1.0, 1.0, &mut rng);
        let p1 = QGemmPlan::from_tensor(&w, 0).unwrap();
        let p2 = QGemmPlan::from_tensor(&w, 1).unwrap();
        assert_eq!(p1.quant().codes(), p2.quant().codes());
        assert_eq!(p1.scale(), p2.scale());
    }
}
