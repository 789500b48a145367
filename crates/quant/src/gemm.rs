//! Packed, blocked, multi-threaded INT8 GEMM with INT32 accumulation.
//!
//! This is the MAC phase of the FF-INT8 dataflow (paper Fig. 4): `i8 × i8 →
//! i32` products accumulated in `i32`, dequantized once per output element
//! with the product of the two operand scales.
//!
//! # Engine structure
//!
//! All three kernel variants route through **one** blocked micro-kernel:
//!
//! | entry point          | operands            | packing                          |
//! |----------------------|---------------------|----------------------------------|
//! | [`int8_matmul`]      | `A[m,k] · B[k,n]`   | `A` row-major, `B` row-major     |
//! | [`int8_matmul_a_bt`] | `A[m,k] · B[n,k]ᵀ`  | `A` row-major, `B` transposed    |
//! | [`int8_matmul_at_b`] | `A[k,m]ᵀ · B[k,n]`  | `A` transposed, `B` row-major    |
//!
//! Operands are repacked into contiguous `i16` panels ([`crate::pack`]):
//! `A` into [`crate::pack::MR`]-row strips, `B` into strips of the width its
//! column count calls for ([`crate::pack::PackedB::strip_width`]: 16, 32, 48
//! or [`crate::pack::NR`] = 64), both with depth laid out in **pairs** and
//! zero-padded at the edges. The
//! `int8_matmul_*` entry points pack both operands per call;
//! [`int8_gemm_prepacked`] accepts operands that are already in panel form,
//! which is how the plan cache ([`crate::plan`]) amortizes weight packing
//! across training steps. Either way the engine then runs the classic
//! three-level blocking ([`crate::pack::NC`] columns → [`crate::pack::KC`] depth →
//! [`crate::pack::MC`] rows) with an `MR × strip-width` register tile
//! accumulated into a per-thread `i32` staging buffer, and shards output row
//! panels across worker threads with [`ff_tensor::par::shard_rows`] above the
//! parallel threshold. The micro-kernel, its tile store and the worker loop
//! are one body, const-generic over the strip width and instantiated once
//! per width; the packed `B` operand says which instance runs.
//!
//! # The pairwise `i16` micro-kernel
//!
//! Symmetric INT8 quantization emits codes in `[−127, 127]`
//! ([`crate::QMIN`]..=[`crate::QMAX`]), so a product of two codes is at most
//! `127² = 16129` and a **sum of two products** is at most `32258` — which
//! still fits in an `i16`. The hot kernel exploits this: for each depth
//! pair it computes `a₀·b₀ + a₁·b₁` entirely in `i16` lanes (compiling to
//! cheap 1-µop vector `i16` multiplies/adds, the same arithmetic shape as
//! x86's `pmaddwd`) and only then widens into the `i32` accumulator —
//! folding two MACs into roughly half the vector work of a widening `i32`
//! multiply. Tensors built via [`QuantTensor::from_codes`] may contain
//! `−128`; when **both** operands do, a pair sum can reach `2·(−128)² =
//! 32768` and overflow. Packing detects this
//! ([`crate::pack::PackedA::has_i8_min`]) and the engine falls back to a
//! plain `i32` kernel on the same layout, so results stay exact for every
//! input (a single `−128`-bearing operand is safe: `2·128·127 = 32512`
//! still fits).
//!
//! Integer addition is associative, so the blocked accumulation order is
//! **bit-identical** to the naive triple loop (the [`mod@reference`] kernels)
//! in both kernels, which the property tests in `tests/proptests.rs` assert
//! exactly.
//!
//! # Fused epilogue
//!
//! Dequantization (`acc · scale_a·scale_b`) happens in the epilogue while an
//! output tile is still cache-hot, optionally fused with a per-column bias
//! add and ReLU (+ gradient-mask capture) via [`int8_matmul_a_bt_fused`] —
//! the hook the dense/conv layers use to avoid separate bias/activation
//! passes over the output. For gradient accumulators the epilogue also has
//! an **accumulate mode** ([`int8_gemm_prepacked_accumulate`]): `out += acc ·
//! scale` straight into the caller's buffer, bit-identical to storing the
//! product and adding it afterwards but without the temporary or the second
//! pass.

use crate::pack::{PackSource, PackedA, PackedB, KC, MC, MR, NC};
use crate::{QuantTensor, Result};
use ff_tensor::par::{shard_rows, worker_count};
use ff_tensor::{Tensor, TensorError};

/// Which of the three GEMM shapes to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmVariant {
    /// `C = A · B` with `A [m, k]`, `B [k, n]`.
    AB,
    /// `C = A · Bᵀ` with `A [m, k]`, `B [n, k]` (dense/conv forward).
    ABt,
    /// `C = Aᵀ · B` with `A [k, m]`, `B [k, n]` (weight gradients).
    AtB,
}

fn check_rank2(q: &QuantTensor, op: &'static str) -> Result<(usize, usize)> {
    if q.shape().len() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: q.shape().len(),
            op,
        });
    }
    Ok((q.shape()[0], q.shape()[1]))
}

fn resolve_dims(
    variant: GemmVariant,
    a: &QuantTensor,
    b: &QuantTensor,
) -> Result<(usize, usize, usize)> {
    let op = match variant {
        GemmVariant::AB => "int8_matmul",
        GemmVariant::ABt => "int8_matmul_a_bt",
        GemmVariant::AtB => "int8_matmul_at_b",
    };
    let (a0, a1) = check_rank2(a, op)?;
    let (b0, b1) = check_rank2(b, op)?;
    let (m, ka, kb, n) = match variant {
        GemmVariant::AB => (a0, a1, b0, b1),
        GemmVariant::ABt => (a0, a1, b1, b0),
        GemmVariant::AtB => (a1, a0, b0, b1),
    };
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            left: a.shape().to_vec(),
            right: b.shape().to_vec(),
            op,
        });
    }
    Ok((m, ka, n))
}

/// The full-control engine entry point: computes the requested variant with
/// an optional fused epilogue and an optional explicit thread count.
///
/// - `bias`: per-column bias (length `n`) added after dequantization.
/// - `relu`: clamp negatives to zero; the returned second tensor is the
///   gradient mask (`1.0` where the pre-activation was positive).
/// - `threads`: `None` picks automatically ([`ff_tensor::par::worker_count`]);
///   `Some(t)` forces `t` workers (benchmarks use this for thread sweeps).
///
/// # Errors
///
/// Returns rank/shape errors when the operands are not conformable or the
/// bias length is not `n`.
pub fn int8_gemm(
    variant: GemmVariant,
    a: &QuantTensor,
    b: &QuantTensor,
    bias: Option<&Tensor>,
    relu: bool,
    threads: Option<usize>,
) -> Result<(Tensor, Option<Tensor>)> {
    let (m, k, n) = resolve_dims(variant, a, b)?;
    let (packed_a, packed_b) = match variant {
        GemmVariant::AB => (
            PackedA::pack(a.codes(), m, k, PackSource::RowMajor),
            PackedB::pack(b.codes(), k, n, PackSource::RowMajor),
        ),
        GemmVariant::ABt => (
            PackedA::pack(a.codes(), m, k, PackSource::RowMajor),
            PackedB::pack(b.codes(), k, n, PackSource::Transposed),
        ),
        GemmVariant::AtB => (
            PackedA::pack(a.codes(), m, k, PackSource::Transposed),
            PackedB::pack(b.codes(), k, n, PackSource::RowMajor),
        ),
    };
    int8_gemm_prepacked(
        &packed_a,
        &packed_b,
        a.scale() * b.scale(),
        bias,
        relu,
        threads,
    )
}

/// The pre-packed engine entry point: runs the blocked kernel over operands
/// that are **already** in panel form, skipping the per-call `O(mk + kn)`
/// quantize-and-pack tax.
///
/// This is the primitive the plan cache ([`crate::plan`]) builds on: a
/// layer's weight is packed once per optimizer step and this function is
/// called with the cached panels every forward/backward. The logical GEMM
/// shape is recovered from the panels (`m` from `packed_a`, `n` from
/// `packed_b`); which of the three variants is computed was decided at pack
/// time by the [`PackSource`] the operands were packed with.
///
/// `scale` is the product of the two operands' quantization scales, applied
/// during the dequantization epilogue. `bias`, `relu` and `threads` behave
/// exactly as in [`int8_gemm`].
///
/// # Errors
///
/// Returns a shape error when the operands' packed depths disagree or the
/// bias length is not `n`.
pub fn int8_gemm_prepacked(
    packed_a: &PackedA,
    packed_b: &PackedB,
    scale: f32,
    bias: Option<&Tensor>,
    relu: bool,
    threads: Option<usize>,
) -> Result<(Tensor, Option<Tensor>)> {
    let epilogue = Epilogue {
        scale: ScaleSpec::Uniform(scale),
        bias,
        relu,
        accumulate: false,
    };
    int8_gemm_prepacked_inner(packed_a, packed_b, &epilogue, relu, threads)
}

/// [`int8_gemm_prepacked`] with a **per-row** dequantization scale and no
/// gradient-mask output — the inference entry point.
///
/// Output row `i` is dequantized with `row_scales[i] * b_scale`, which is
/// what a per-row-quantized activation batch ([`crate::RowQuantTensor`])
/// against a shared per-tensor weight plan needs: every output row then
/// depends only on its own input row, so results are bit-identical no matter
/// how rows are batched together. `relu` clamps negatives in the epilogue;
/// no mask is produced because inference has no backward pass.
///
/// # Errors
///
/// Returns shape errors when the packed depths disagree, `row_scales` is not
/// one scale per output row, or the bias length is not `n`.
pub fn int8_gemm_prepacked_rowscale(
    packed_a: &PackedA,
    packed_b: &PackedB,
    row_scales: &[f32],
    b_scale: f32,
    bias: Option<&Tensor>,
    relu: bool,
    threads: Option<usize>,
) -> Result<Tensor> {
    if row_scales.len() != packed_a.m {
        return Err(TensorError::ShapeMismatch {
            left: vec![row_scales.len()],
            right: vec![packed_a.m],
            op: "int8_gemm_prepacked_rowscale row_scales",
        });
    }
    let epilogue = Epilogue {
        scale: ScaleSpec::PerRow {
            row_scales,
            b_scale,
        },
        bias,
        relu,
        accumulate: false,
    };
    Ok(int8_gemm_prepacked_inner(packed_a, packed_b, &epilogue, false, threads)?.0)
}

/// [`int8_gemm_prepacked`] in **accumulate mode**: the epilogue adds each
/// dequantized element into `out` (`out[i, j] += acc · scale`) instead of
/// storing it, so a gradient accumulator receives the product without a
/// temporary `m × n` tensor or a second pass over it.
///
/// Per element this is the same two roundings — the `acc · scale` product,
/// then the add — as [`int8_gemm_prepacked`] followed by
/// `Tensor::add_assign`, hence bit-identical to that sequence.
///
/// `out` is read as the row-major `m × n` product; only its length is
/// checked, so a higher-rank accumulator with the same flat layout (a conv
/// weight gradient `[oc, ic, kh, kw]`) can be passed as is.
///
/// # Errors
///
/// Returns a shape error when the operands' packed depths disagree or `out`
/// does not hold `m · n` elements.
pub fn int8_gemm_prepacked_accumulate(
    packed_a: &PackedA,
    packed_b: &PackedB,
    scale: f32,
    out: &mut [f32],
    threads: Option<usize>,
) -> Result<()> {
    let epilogue = Epilogue {
        scale: ScaleSpec::Uniform(scale),
        bias: None,
        relu: false,
        accumulate: true,
    };
    int8_gemm_prepacked_into(packed_a, packed_b, &epilogue, out, None, threads)
}

fn int8_gemm_prepacked_inner(
    packed_a: &PackedA,
    packed_b: &PackedB,
    epilogue: &Epilogue<'_>,
    want_mask: bool,
    threads: Option<usize>,
) -> Result<(Tensor, Option<Tensor>)> {
    let (m, n) = (packed_a.m, packed_b.n);
    let mut out = vec![0.0f32; m * n];
    let mut mask = want_mask.then(|| vec![0.0f32; m * n]);
    int8_gemm_prepacked_into(
        packed_a,
        packed_b,
        epilogue,
        &mut out,
        mask.as_deref_mut(),
        threads,
    )?;
    let out = Tensor::from_vec(&[m, n], out)?;
    let mask = mask
        .map(|mask| Tensor::from_vec(&[m, n], mask))
        .transpose()?;
    Ok((out, mask))
}

/// The one engine driver: validates shapes, shards `out` (and `mask`) into
/// row panels and runs [`gemm_worker`] on each. `out` is overwritten or
/// accumulated into as the epilogue says.
fn int8_gemm_prepacked_into(
    packed_a: &PackedA,
    packed_b: &PackedB,
    epilogue: &Epilogue<'_>,
    out: &mut [f32],
    mask: Option<&mut [f32]>,
    threads: Option<usize>,
) -> Result<()> {
    let (m, k, n) = (packed_a.m, packed_a.k, packed_b.n);
    if packed_a.k != packed_b.k {
        return Err(TensorError::ShapeMismatch {
            left: vec![m, packed_a.k],
            right: vec![packed_b.k, n],
            op: "int8_gemm_prepacked",
        });
    }
    if out.len() != m * n {
        return Err(TensorError::ShapeMismatch {
            left: vec![out.len()],
            right: vec![m, n],
            op: "int8_gemm_prepacked output",
        });
    }
    if let Some(bias) = epilogue.bias {
        if bias.len() != n {
            return Err(TensorError::ShapeMismatch {
                left: bias.shape().to_vec(),
                right: vec![n],
                op: "int8_gemm bias",
            });
        }
    }
    let threads = threads.unwrap_or_else(|| worker_count(m * n * k, m.div_ceil(MR)));
    shard_rows(
        out,
        mask,
        n.max(1),
        MR,
        threads,
        |first_row, panel, mask_panel| {
            // The one place the tile width turns from data into a type.
            let worker = match packed_b.strip_width() {
                16 => gemm_worker::<16>,
                32 => gemm_worker::<32>,
                48 => gemm_worker::<48>,
                64 => gemm_worker::<64>,
                width => unreachable!("PackedB never packs {width}-column strips"),
            };
            worker(packed_a, packed_b, first_row, panel, mask_panel, epilogue);
        },
    )
}

/// How the epilogue dequantizes `i32` accumulators into `f32` output.
#[derive(Debug, Clone, Copy)]
enum ScaleSpec<'a> {
    /// One scale for the whole output (product of two per-tensor scales).
    Uniform(f32),
    /// Per-output-row scales: row `i` uses `row_scales[i] * b_scale`
    /// (per-row-quantized `A` against a per-tensor-quantized `B`).
    PerRow { row_scales: &'a [f32], b_scale: f32 },
}

impl ScaleSpec<'_> {
    #[inline]
    fn for_row(&self, row: usize) -> f32 {
        match *self {
            ScaleSpec::Uniform(s) => s,
            ScaleSpec::PerRow {
                row_scales,
                b_scale,
            } => row_scales[row] * b_scale,
        }
    }
}

/// The fused post-GEMM pass: dequantization scale(s), optional per-column
/// bias, optional ReLU clamp — stored into the output, or (without bias and
/// ReLU) added onto it.
#[derive(Debug, Clone, Copy)]
struct Epilogue<'a> {
    scale: ScaleSpec<'a>,
    bias: Option<&'a Tensor>,
    relu: bool,
    /// `out += acc · scale` instead of `out = …`; only built by
    /// [`int8_gemm_prepacked_accumulate`], which sets neither bias nor ReLU.
    accumulate: bool,
}

/// Runs the blocked kernel for one thread's panel of output rows.
///
/// Loop nest (GotoBLAS-style): `jc` over column blocks of at most [`NC`]
/// columns → `ic` over [`MC`]-row blocks → `pc2` over [`KC`]-depth blocks
/// (in pairs) → `MR × NR` register tiles accumulated into an `i32` staging
/// buffer, followed by the dequantize(+bias+ReLU) epilogue over the finished
/// block. `NR` is `packed_b`'s strip width.
fn gemm_worker<const NR: usize>(
    packed_a: &PackedA,
    packed_b: &PackedB,
    first_row: usize,
    panel: &mut [f32],
    mut mask_panel: Option<&mut [f32]>,
    epilogue: &Epilogue<'_>,
) {
    let bias = epilogue.bias.map(Tensor::data);
    let n = packed_b.n;
    let k2 = packed_a.k2;
    if n == 0 {
        return;
    }
    // A pair sum can only overflow i16 when BOTH factors can be −128
    // (2·(−128)² = 32768; with one operand bounded by 127 the worst case is
    // 2·128·127 = 32512, still in range). −128 codes are only possible via
    // `from_codes`, so this almost always stays on the fast kernel.
    let pairwise = !(packed_a.has_i8_min() && packed_b.has_i8_min());
    let rows = panel.len() / n;
    debug_assert_eq!(first_row % MR, 0, "panels must be MR-aligned");
    debug_assert_eq!(packed_b.strip_width(), NR);
    let first_strip = first_row / MR;
    // Whole strips per column block.
    let nc = NC / NR * NR;
    // i32 staging tile for one MC × nc block.
    let mut cbuf = vec![0i32; MC * nc];
    for jc in (0..n).step_by(nc) {
        let nc_real = nc.min(n - jc);
        let nc_pad = nc_real.div_ceil(NR) * NR;
        for ic in (0..rows).step_by(MC) {
            let mc_real = MC.min(rows - ic);
            let mc_pad = mc_real.div_ceil(MR) * MR;
            if k2 == 0 {
                cbuf[..mc_pad * nc_pad].fill(0);
            }
            for pc2 in (0..k2).step_by(KC / 2) {
                let kc2 = (KC / 2).min(k2 - pc2);
                // The first depth block overwrites the staging tile instead
                // of accumulating, which saves zero-filling `cbuf`.
                let overwrite = pc2 == 0;
                // GotoBLAS loop order: B strip outer, A strips inner, so one
                // `b_slab` stays cache-resident across every A strip of the
                // row block — the reuse that makes batched inference GEMMs
                // (several A strips, shared weights) scale past single-row
                // cost. Tile results are independent, so this ordering is
                // bit-identical to any other.
                for js in 0..nc_pad / NR {
                    let b_slab = packed_b.strip_at(jc / NR + js, pc2, kc2);
                    for is in 0..mc_pad / MR {
                        let a_slab = packed_a.strip_at(first_strip + (ic / MR) + is, pc2, kc2);
                        let c_tile = &mut cbuf[(is * MR) * nc_pad + js * NR..];
                        if pairwise {
                            micro_kernel_pairwise::<NR>(
                                a_slab, b_slab, kc2, c_tile, nc_pad, overwrite,
                            );
                        } else {
                            micro_kernel_i32::<NR>(a_slab, b_slab, kc2, c_tile, nc_pad, overwrite);
                        }
                    }
                }
            }
            // Epilogue: dequantize the finished block while it is cache-hot,
            // fusing bias and ReLU(+mask) when requested.
            for r in 0..mc_real {
                let acc_row = &cbuf[r * nc_pad..r * nc_pad + nc_real];
                let row = ic + r;
                let scale = epilogue.scale.for_row(first_row + row);
                let out_row = &mut panel[row * n + jc..row * n + jc + nc_real];
                match bias {
                    // Accumulate mode carries neither bias nor ReLU.
                    None if epilogue.accumulate => {
                        for (o, &acc) in out_row.iter_mut().zip(acc_row) {
                            *o += acc as f32 * scale;
                        }
                    }
                    Some(bias) => {
                        let bias_seg = &bias[jc..jc + nc_real];
                        for ((o, &acc), &bj) in out_row.iter_mut().zip(acc_row).zip(bias_seg) {
                            *o = acc as f32 * scale + bj;
                        }
                    }
                    None => {
                        for (o, &acc) in out_row.iter_mut().zip(acc_row) {
                            *o = acc as f32 * scale;
                        }
                    }
                }
                if epilogue.relu {
                    match mask_panel.as_deref_mut() {
                        Some(mask_panel) => {
                            let mask_row = &mut mask_panel[row * n + jc..row * n + jc + nc_real];
                            for (o, mk) in out_row.iter_mut().zip(mask_row) {
                                if *o > 0.0 {
                                    *mk = 1.0;
                                } else {
                                    *o = 0.0;
                                    *mk = 0.0;
                                }
                            }
                        }
                        None => {
                            // Same predicate as the mask path (`> 0.0`
                            // keeps, everything else — including −0.0 and
                            // NaN — becomes +0.0) so the two ReLU paths stay
                            // bit-identical for every input.
                            for o in out_row.iter_mut() {
                                *o = if *o > 0.0 { *o } else { 0.0 };
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The hot `MR × NR` micro-kernel shared by every variant and, through its
/// const parameter, every strip width: multiplies a
/// `kc2 × 2 × MR` A-slab against a `kc2 × 2 × NR` B-slab, folding each depth
/// pair into one `i16` lane sum (`a₀·b₀ + a₁·b₁ ≤ 2·127² = 32258`, which
/// cannot wrap for codes in `[−127, 127]`) before widening into the register
/// tile, which is added to the `i32` staging buffer once per invocation.
#[inline]
fn micro_kernel_pairwise<const NR: usize>(
    a_slab: &[i16],
    b_slab: &[i16],
    kc2: usize,
    c: &mut [i32],
    c_stride: usize,
    overwrite: bool,
) {
    let mut acc = [[0i32; NR]; MR];
    for p2 in 0..kc2 {
        let a_pair = &a_slab[p2 * 2 * MR..(p2 + 1) * 2 * MR];
        let b_even = &b_slab[p2 * 2 * NR..p2 * 2 * NR + NR];
        let b_odd = &b_slab[p2 * 2 * NR + NR..(p2 + 1) * 2 * NR];
        for (ir, acc_row) in acc.iter_mut().enumerate() {
            let a_even = a_pair[ir];
            let a_odd = a_pair[MR + ir];
            for ((acc_elem, &b0), &b1) in acc_row.iter_mut().zip(b_even).zip(b_odd) {
                // In-range codes make both wrapping ops exact; see above.
                let pair_sum = a_even.wrapping_mul(b0).wrapping_add(a_odd.wrapping_mul(b1));
                *acc_elem += pair_sum as i32;
            }
        }
    }
    store_tile(&acc, c, c_stride, overwrite);
}

/// Fallback micro-kernel with `i32` lane arithmetic, used when an operand
/// contains `i8::MIN` and the pairwise `i16` sums could wrap. Same slab
/// layout and same (order-independent) integer result.
#[inline]
fn micro_kernel_i32<const NR: usize>(
    a_slab: &[i16],
    b_slab: &[i16],
    kc2: usize,
    c: &mut [i32],
    c_stride: usize,
    overwrite: bool,
) {
    let mut acc = [[0i32; NR]; MR];
    for p2 in 0..kc2 {
        let a_pair = &a_slab[p2 * 2 * MR..(p2 + 1) * 2 * MR];
        let b_even = &b_slab[p2 * 2 * NR..p2 * 2 * NR + NR];
        let b_odd = &b_slab[p2 * 2 * NR + NR..(p2 + 1) * 2 * NR];
        for (ir, acc_row) in acc.iter_mut().enumerate() {
            let a_even = a_pair[ir] as i32;
            let a_odd = a_pair[MR + ir] as i32;
            for ((acc_elem, &b0), &b1) in acc_row.iter_mut().zip(b_even).zip(b_odd) {
                *acc_elem += a_even * b0 as i32 + a_odd * b1 as i32;
            }
        }
    }
    store_tile(&acc, c, c_stride, overwrite);
}

#[inline]
fn store_tile<const NR: usize>(
    acc: &[[i32; NR]; MR],
    c: &mut [i32],
    c_stride: usize,
    overwrite: bool,
) {
    for (ir, acc_row) in acc.iter().enumerate() {
        let c_row = &mut c[ir * c_stride..ir * c_stride + NR];
        if overwrite {
            c_row.copy_from_slice(acc_row);
        } else {
            for (c_elem, &a) in c_row.iter_mut().zip(acc_row) {
                *c_elem += a;
            }
        }
    }
}

/// Multiplies two quantized matrices `[m, k] × [k, n]`, accumulating in `i32`
/// and returning the dequantized `f32` result.
///
/// # Errors
///
/// Returns rank or shape errors when the operands are not conformable.
///
/// # Examples
///
/// ```
/// use ff_quant::{int8_matmul, QuantTensor, Rounding};
/// use ff_tensor::Tensor;
///
/// # fn main() -> Result<(), ff_tensor::TensorError> {
/// let a = QuantTensor::quantize(&Tensor::from_vec(&[1, 2], vec![1.0, 2.0])?, Rounding::Nearest);
/// let b = QuantTensor::quantize(&Tensor::from_vec(&[2, 1], vec![0.5, 0.25])?, Rounding::Nearest);
/// let c = int8_matmul(&a, &b)?;
/// assert!((c.data()[0] - 1.0).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
pub fn int8_matmul(a: &QuantTensor, b: &QuantTensor) -> Result<Tensor> {
    Ok(int8_gemm(GemmVariant::AB, a, b, None, false, None)?.0)
}

/// Multiplies `a [m, k]` by the transpose of `b [n, k]`, i.e. `a × bᵀ`,
/// accumulating in `i32` and dequantizing the result.
///
/// This is the kernel used by dense layers whose weights are stored
/// `[out, in]` and by the im2col convolution path.
///
/// # Errors
///
/// Returns rank or shape errors when the operands are not conformable.
pub fn int8_matmul_a_bt(a: &QuantTensor, b: &QuantTensor) -> Result<Tensor> {
    Ok(int8_gemm(GemmVariant::ABt, a, b, None, false, None)?.0)
}

/// [`int8_matmul_a_bt`] with the fused epilogue: per-column `bias` added
/// after dequantization and an optional ReLU whose gradient mask is returned
/// alongside the output. This is the entry point the dense/conv forward
/// passes use so no separate bias/activation pass touches the output again.
///
/// # Errors
///
/// Returns rank/shape errors when operands are not conformable or `bias` is
/// not a length-`n` vector.
///
/// # Examples
///
/// ```
/// use ff_quant::{int8_matmul_a_bt_fused, QuantTensor, Rounding};
/// use ff_tensor::Tensor;
///
/// # fn main() -> Result<(), ff_tensor::TensorError> {
/// let x = QuantTensor::quantize(&Tensor::from_vec(&[1, 2], vec![1.0, -1.0])?, Rounding::Nearest);
/// let w = QuantTensor::quantize(&Tensor::from_vec(&[2, 2], vec![1.0, 0.0, 0.0, 1.0])?, Rounding::Nearest);
/// let bias = Tensor::from_vec(&[2], vec![0.0, 0.0])?;
/// let (y, mask) = int8_matmul_a_bt_fused(&x, &w, Some(&bias), true)?;
/// assert!(y.data()[1] == 0.0); // ReLU clamped the negative lane
/// assert_eq!(mask.unwrap().data()[1], 0.0);
/// # Ok(())
/// # }
/// ```
pub fn int8_matmul_a_bt_fused(
    a: &QuantTensor,
    b: &QuantTensor,
    bias: Option<&Tensor>,
    relu: bool,
) -> Result<(Tensor, Option<Tensor>)> {
    int8_gemm(GemmVariant::ABt, a, b, bias, relu, None)
}

/// Multiplies the transpose of `a [k, m]` by `b [k, n]`, i.e. `aᵀ × b`,
/// accumulating in `i32` and dequantizing the result.
///
/// This is the kernel used for weight gradients `gW = gYᵀ · A` where both the
/// output gradient and the cached input are INT8 (paper Fig. 4).
///
/// # Errors
///
/// Returns rank or shape errors when the operands are not conformable.
pub fn int8_matmul_at_b(a: &QuantTensor, b: &QuantTensor) -> Result<Tensor> {
    Ok(int8_gemm(GemmVariant::AtB, a, b, None, false, None)?.0)
}

/// Counts the `i8` multiply and add operations performed by an
/// `[m, k] × [k, n]` INT8 GEMM, matching the accounting used in the paper's
/// Table IV (one MUL and one ADD per fused MAC).
pub fn int8_gemm_op_count(m: usize, k: usize, n: usize) -> (u64, u64) {
    let macs = (m * k * n) as u64;
    (macs, macs)
}

pub mod reference {
    //! Naive single-threaded triple-loop kernels.
    //!
    //! These are the **test oracles** for the packed engine: integer
    //! accumulation is order-independent, so the blocked kernels must match
    //! them bit-exactly for every shape (asserted by the property tests and
    //! compared against in `bench_gemm`). They are not used on any hot path.

    use super::{check_rank2, resolve_dims, GemmVariant};
    use crate::{QuantTensor, Result};
    use ff_tensor::Tensor;

    /// Naive `A[m,k] · B[k,n]` with `i32` accumulation.
    ///
    /// # Errors
    ///
    /// Returns rank or shape errors when the operands are not conformable.
    pub fn int8_matmul(a: &QuantTensor, b: &QuantTensor) -> Result<Tensor> {
        let (m, k, n) = resolve_dims(GemmVariant::AB, a, b)?;
        let mut acc = vec![0i32; m * n];
        let a_codes = a.codes();
        let b_codes = b.codes();
        for i in 0..m {
            let a_row = &a_codes[i * k..(i + 1) * k];
            let out_row = &mut acc[i * n..(i + 1) * n];
            for (p, &a_ip) in a_row.iter().enumerate() {
                if a_ip == 0 {
                    continue;
                }
                let a_ip = a_ip as i32;
                let b_row = &b_codes[p * n..(p + 1) * n];
                for (o, &b_pj) in out_row.iter_mut().zip(b_row) {
                    *o += a_ip * b_pj as i32;
                }
            }
        }
        dequantize(acc, m, n, a.scale() * b.scale())
    }

    /// Naive `A[m,k] · B[n,k]ᵀ` with `i32` accumulation.
    ///
    /// # Errors
    ///
    /// Returns rank or shape errors when the operands are not conformable.
    pub fn int8_matmul_a_bt(a: &QuantTensor, b: &QuantTensor) -> Result<Tensor> {
        let (m, ka) = check_rank2(a, "int8_matmul_a_bt")?;
        let (_, k, n) = resolve_dims(GemmVariant::ABt, a, b)?;
        debug_assert_eq!(ka, k);
        let a_codes = a.codes();
        let b_codes = b.codes();
        let mut out = vec![0.0f32; m * n];
        let scale = a.scale() * b.scale();
        for i in 0..m {
            let a_row = &a_codes[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &b_codes[j * k..(j + 1) * k];
                let acc: i32 = a_row
                    .iter()
                    .zip(b_row)
                    .map(|(&x, &y)| x as i32 * y as i32)
                    .sum();
                out[i * n + j] = acc as f32 * scale;
            }
        }
        Tensor::from_vec(&[m, n], out)
    }

    /// Naive `A[k,m]ᵀ · B[k,n]` with `i32` accumulation.
    ///
    /// # Errors
    ///
    /// Returns rank or shape errors when the operands are not conformable.
    pub fn int8_matmul_at_b(a: &QuantTensor, b: &QuantTensor) -> Result<Tensor> {
        let (m, k, n) = resolve_dims(GemmVariant::AtB, a, b)?;
        let a_codes = a.codes();
        let b_codes = b.codes();
        let mut acc = vec![0i32; m * n];
        for p in 0..k {
            let a_row = &a_codes[p * m..(p + 1) * m];
            let b_row = &b_codes[p * n..(p + 1) * n];
            for (i, &a_pi) in a_row.iter().enumerate() {
                if a_pi == 0 {
                    continue;
                }
                let a_pi = a_pi as i32;
                let out_row = &mut acc[i * n..(i + 1) * n];
                for (o, &b_pj) in out_row.iter_mut().zip(b_row) {
                    *o += a_pi * b_pj as i32;
                }
            }
        }
        dequantize(acc, m, n, a.scale() * b.scale())
    }

    fn dequantize(acc: Vec<i32>, m: usize, n: usize, scale: f32) -> Result<Tensor> {
        let data: Vec<f32> = acc.into_iter().map(|v| v as f32 * scale).collect();
        Tensor::from_vec(&[m, n], data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QuantConfig, Rounding};
    use ff_tensor::linalg;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quantize(t: &Tensor, seed: u64) -> QuantTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        QuantTensor::quantize_with_rng(t, QuantConfig::new(Rounding::Nearest), &mut rng)
    }

    fn random_quant(shape: &[usize], seed: u64) -> QuantTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = ff_tensor::init::uniform(shape, -1.0, 1.0, &mut rng);
        quantize(&t, seed)
    }

    #[test]
    fn int8_matmul_approximates_fp32_matmul() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = ff_tensor::init::uniform(&[8, 16], -1.0, 1.0, &mut rng);
        let b = ff_tensor::init::uniform(&[16, 4], -1.0, 1.0, &mut rng);
        let exact = linalg::matmul(&a, &b).unwrap();
        let approx = int8_matmul(&quantize(&a, 1), &quantize(&b, 2)).unwrap();
        let rel_err = exact.sub(&approx).unwrap().frobenius_norm() / exact.frobenius_norm();
        assert!(rel_err < 0.05, "relative error {rel_err}");
    }

    #[test]
    fn transposed_variant_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = ff_tensor::init::uniform(&[5, 7], -1.0, 1.0, &mut rng);
        let b = ff_tensor::init::uniform(&[3, 7], -1.0, 1.0, &mut rng);
        let qa = quantize(&a, 1);
        let qb = quantize(&b, 2);
        let direct = int8_matmul_a_bt(&qa, &qb).unwrap();
        let bt = linalg::transpose(&b).unwrap();
        let explicit = int8_matmul(&qa, &quantize(&bt, 2)).unwrap();
        let diff = direct.sub(&explicit).unwrap().max_abs();
        assert!(diff < 1e-2, "diff {diff}");
    }

    #[test]
    fn shape_errors_are_reported() {
        let a = quantize(&Tensor::ones(&[2, 3]), 0);
        let b = quantize(&Tensor::ones(&[4, 5]), 0);
        assert!(int8_matmul(&a, &b).is_err());
        assert!(int8_matmul_a_bt(&a, &b).is_err());
        let v = quantize(&Tensor::ones(&[3]), 0);
        assert!(int8_matmul(&v, &a).is_err());
    }

    #[test]
    fn at_b_variant_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(17);
        let a = ff_tensor::init::uniform(&[6, 4], -1.0, 1.0, &mut rng);
        let b = ff_tensor::init::uniform(&[6, 5], -1.0, 1.0, &mut rng);
        let qa = quantize(&a, 1);
        let qb = quantize(&b, 2);
        let direct = int8_matmul_at_b(&qa, &qb).unwrap();
        let at = linalg::transpose(&a).unwrap();
        let explicit = int8_matmul(&quantize(&at, 1), &qb).unwrap();
        let diff = direct.sub(&explicit).unwrap().max_abs();
        assert!(diff < 2e-2, "diff {diff}");
        assert!(int8_matmul_at_b(&qa, &quantize(&Tensor::ones(&[3, 3]), 0)).is_err());
    }

    #[test]
    fn packed_engine_matches_reference_exactly() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (1, 17, 9),
            (8, 8, 8),
            (13, 33, 21),
            (70, 129, 65),
        ] {
            let qa = random_quant(&[m, k], (m * 1000 + k) as u64);
            let qb = random_quant(&[k, n], (k * 1000 + n) as u64);
            let packed = int8_matmul(&qa, &qb).unwrap();
            let naive = reference::int8_matmul(&qa, &qb).unwrap();
            assert_eq!(packed.data(), naive.data(), "AB shape ({m},{k},{n})");

            let qbt = random_quant(&[n, k], (n * 999 + k) as u64);
            let packed = int8_matmul_a_bt(&qa, &qbt).unwrap();
            let naive = reference::int8_matmul_a_bt(&qa, &qbt).unwrap();
            assert_eq!(packed.data(), naive.data(), "ABt shape ({m},{k},{n})");

            let qat = random_quant(&[k, m], (k * 998 + m) as u64);
            let packed = int8_matmul_at_b(&qat, &qb).unwrap();
            let naive = reference::int8_matmul_at_b(&qat, &qb).unwrap();
            assert_eq!(packed.data(), naive.data(), "AtB shape ({m},{k},{n})");
        }
    }

    #[test]
    fn explicit_thread_counts_are_exact() {
        let qa = random_quant(&[37, 65], 5);
        let qb = random_quant(&[29, 65], 6);
        let naive = reference::int8_matmul_a_bt(&qa, &qb).unwrap();
        for threads in [1, 2, 4, 8] {
            let (out, _) =
                int8_gemm(GemmVariant::ABt, &qa, &qb, None, false, Some(threads)).unwrap();
            assert_eq!(out.data(), naive.data(), "threads={threads}");
        }
    }

    #[test]
    fn fused_epilogue_matches_separate_passes() {
        let qa = random_quant(&[12, 31], 7);
        let qb = random_quant(&[9, 31], 8);
        let bias = Tensor::from_vec(&[9], (0..9).map(|i| i as f32 / 4.0 - 1.0).collect()).unwrap();
        let (fused, mask) = int8_matmul_a_bt_fused(&qa, &qb, Some(&bias), true).unwrap();
        let mask = mask.unwrap();
        let separate = reference::int8_matmul_a_bt(&qa, &qb)
            .unwrap()
            .add_row_broadcast(&bias)
            .unwrap();
        for ((&f, &s), &mk) in fused.data().iter().zip(separate.data()).zip(mask.data()) {
            if s > 0.0 {
                assert_eq!(f, s);
                assert_eq!(mk, 1.0);
            } else {
                assert_eq!(f, 0.0);
                assert_eq!(mk, 0.0);
            }
        }
        // Bias-only epilogue: no mask, negatives retained.
        let (biased, mask) = int8_matmul_a_bt_fused(&qa, &qb, Some(&bias), false).unwrap();
        assert!(mask.is_none());
        assert_eq!(biased.data(), separate.data());
        // Bad bias length.
        assert!(int8_matmul_a_bt_fused(&qa, &qb, Some(&Tensor::ones(&[4])), false).is_err());
    }

    #[test]
    fn i8_min_codes_fall_back_to_exact_kernel() {
        // −128 can only enter via `from_codes`; the pairwise i16 kernel
        // would overflow on it, so the engine must switch kernels and still
        // match the naive reference bit-exactly.
        let k = 19;
        let a_codes: Vec<i8> = (0..6 * k)
            .map(|i| if i % 5 == 0 { i8::MIN } else { 73 })
            .collect();
        let b_codes: Vec<i8> = (0..k * 9)
            .map(|i| if i % 7 == 0 { i8::MIN } else { -90 })
            .collect();
        let qa = QuantTensor::from_codes(&[6, k], a_codes, 0.01).unwrap();
        let qb = QuantTensor::from_codes(&[k, 9], b_codes, 0.02).unwrap();
        let packed = int8_matmul(&qa, &qb).unwrap();
        let naive = reference::int8_matmul(&qa, &qb).unwrap();
        assert_eq!(packed.data(), naive.data());

        // −128 in only ONE operand keeps the fast pairwise kernel (the pair
        // sum is bounded by 2·128·127 = 32512) and must still be exact.
        let worst: Vec<i8> = vec![i8::MIN; 6 * k];
        let qa_min = QuantTensor::from_codes(&[6, k], worst, 0.01).unwrap();
        let qb_max = QuantTensor::from_codes(&[k, 9], vec![127i8; k * 9], 0.02).unwrap();
        let packed = int8_matmul(&qa_min, &qb_max).unwrap();
        let naive = reference::int8_matmul(&qa_min, &qb_max).unwrap();
        assert_eq!(packed.data(), naive.data());
    }

    /// Every strip width the packer can choose, their edges, and widths that
    /// span several column blocks — for all three variants and all three
    /// epilogue kinds, on the pairwise kernel and on the `i8::MIN` fallback.
    #[test]
    fn every_strip_width_matches_reference_in_every_variant_and_epilogue() {
        let codes = |len: usize, salt: usize, with_min: bool| -> Vec<i8> {
            (0..len)
                .map(|i| match (i * 31 + salt) % 255 {
                    0 if with_min => i8::MIN,
                    v => (v as i16 - 127) as i8,
                })
                .collect()
        };
        let transpose = |src: &[i8], rows: usize, cols: usize| -> Vec<i8> {
            let mut out = vec![0i8; src.len()];
            for r in 0..rows {
                for c in 0..cols {
                    out[c * rows + r] = src[r * cols + c];
                }
            }
            out
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (sa, sb) = (0.013f32, 0.0071f32);
        for n in [1usize, 15, 16, 17, 27, 32, 33, 48, 49, 144, 255, 256, 2000] {
            // m = 70 crosses the MC row block on the im2col width.
            let (m, k) = if n == 144 { (70, 27) } else { (5, 19) };
            for with_min in [false, true] {
                let a = codes(m * k, n, with_min);
                let b = codes(k * n, n + 7, with_min);
                let (a_t, b_t) = (transpose(&a, m, k), transpose(&b, k, n));
                let qa = QuantTensor::from_codes(&[m, k], a.clone(), sa).unwrap();
                let qb = QuantTensor::from_codes(&[k, n], b.clone(), sb).unwrap();
                let qa_t = QuantTensor::from_codes(&[k, m], a_t.clone(), sa).unwrap();
                let qb_t = QuantTensor::from_codes(&[n, k], b_t.clone(), sb).unwrap();
                let expected = reference::int8_matmul(&qa, &qb).unwrap();
                let case = format!("n={n} i8::MIN={with_min}");
                for (variant, naive, packed) in [
                    ("AB", expected.clone(), int8_matmul(&qa, &qb).unwrap()),
                    (
                        "ABt",
                        reference::int8_matmul_a_bt(&qa, &qb_t).unwrap(),
                        int8_matmul_a_bt(&qa, &qb_t).unwrap(),
                    ),
                    (
                        "AtB",
                        reference::int8_matmul_at_b(&qa_t, &qb).unwrap(),
                        int8_matmul_at_b(&qa_t, &qb).unwrap(),
                    ),
                ] {
                    assert_eq!(
                        bits(naive.data()),
                        bits(expected.data()),
                        "{case} {variant} oracle"
                    );
                    assert_eq!(
                        bits(packed.data()),
                        bits(expected.data()),
                        "{case} {variant}"
                    );
                }

                // The other two epilogues, over each way of packing the
                // same logical operands.
                let acc: Vec<i32> = (0..m * n)
                    .map(|idx| {
                        let (i, j) = (idx / n, idx % n);
                        (0..k)
                            .map(|p| a[i * k + p] as i32 * b[p * n + j] as i32)
                            .sum()
                    })
                    .collect();
                let init: Vec<f32> = (0..m * n).map(|i| (i % 13) as f32 * 0.37 - 2.0).collect();
                let row_scales: Vec<f32> = (0..m).map(|i| 0.002 + i as f32 * 0.0007).collect();
                let bias =
                    Tensor::from_vec(&[n], (0..n).map(|j| (j % 9) as f32 * 0.5 - 2.0).collect())
                        .unwrap();
                let accumulated: Vec<f32> = init
                    .iter()
                    .zip(&acc)
                    .map(|(&o, &v)| o + v as f32 * (sa * sb))
                    .collect();
                let row_scaled: Vec<f32> = (0..m * n)
                    .map(|idx| {
                        let (i, j) = (idx / n, idx % n);
                        let v = acc[idx] as f32 * (row_scales[i] * sb) + bias.data()[j];
                        if v > 0.0 {
                            v
                        } else {
                            0.0
                        }
                    })
                    .collect();
                for (packing, packed_a, packed_b) in [
                    (
                        "row-major",
                        PackedA::pack(&a, m, k, PackSource::RowMajor),
                        PackedB::pack(&b, k, n, PackSource::RowMajor),
                    ),
                    (
                        "transposed",
                        PackedA::pack(&a_t, m, k, PackSource::Transposed),
                        PackedB::pack(&b_t, k, n, PackSource::Transposed),
                    ),
                ] {
                    let mut out = init.clone();
                    int8_gemm_prepacked_accumulate(&packed_a, &packed_b, sa * sb, &mut out, None)
                        .unwrap();
                    assert_eq!(
                        bits(&out),
                        bits(&accumulated),
                        "{case} {packing} accumulate"
                    );
                    let out = int8_gemm_prepacked_rowscale(
                        &packed_a,
                        &packed_b,
                        &row_scales,
                        sb,
                        Some(&bias),
                        true,
                        Some(2),
                    )
                    .unwrap();
                    assert_eq!(
                        bits(out.data()),
                        bits(&row_scaled),
                        "{case} {packing} row scale"
                    );
                }
            }
        }
    }

    #[test]
    fn op_count_matches_mk_n() {
        let (mul, add) = int8_gemm_op_count(10, 20, 30);
        assert_eq!(mul, 6000);
        assert_eq!(add, 6000);
    }

    #[test]
    fn identity_quantized_matmul_is_near_exact() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 0.5, -0.5, 0.25]).unwrap();
        let id = Tensor::from_vec(&[2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let out = int8_matmul(&quantize(&a, 1), &quantize(&id, 2)).unwrap();
        for (x, y) in out.data().iter().zip(a.data()) {
            assert!((x - y).abs() < 0.02);
        }
    }
}
