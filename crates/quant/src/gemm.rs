//! Packed, blocked, multi-threaded INT8 GEMM with INT32 accumulation.
//!
//! This is the MAC phase of the FF-INT8 dataflow (paper Fig. 4): `i8 × i8 →
//! i32` products accumulated in `i32`, dequantized once per output element
//! with the product of the two operand scales.
//!
//! # Engine structure
//!
//! Every INT8 GEMM goes through **one** engine call, the crate-private
//! `int8_gemm_prepacked_into(&PackedA, &PackedB, Epilogue, out, mask,
//! threads)`. The public entry points live in [`crate::plan`]; each packs
//! its per-call operand, takes the other one from a cached plan, and picks
//! an epilogue:
//!
//! | entry point                                     | operands           | epilogue                          |
//! |-------------------------------------------------|--------------------|-----------------------------------|
//! | [`crate::int8_matmul_a_bt_planned`]             | `A[m,k] · W[n,k]ᵀ` | store, per-tensor scale, bias, ReLU + mask |
//! | [`crate::int8_matmul_at_b_planned_accumulate`]  | `A[k,m]ᵀ · X[k,n]` | accumulate into the caller's buffer |
//! | [`crate::int8_matmul_a_bt_shared_rows`]         | `A[m,k] · W[n,k]ᵀ` | store, per-row scale, bias, ReLU  |
//! | [`crate::int8_matmul_a_bt_shared_rows_fanout`]  | `A[m,k] · W[n,k]ᵀ` | fan-out store: `fan` rows per row of `A`, per-row scale, bias, ReLU |
//! | [`crate::int8_matmul_planned`]                  | `A[m,k] · B[k,n]`  | store, per-tensor scale           |
//! | [`crate::int8_matmul_at_b_planned`]             | `A[k,m]ᵀ · X[k,n]` | store, per-tensor scale           |
//!
//! The first four are the product paths (dense/conv forward, weight
//! gradient, serving, the goodness sweep's first layer); the last two return
//! the product as a new tensor.
//!
//! Operands are repacked into contiguous `i16` panels ([`crate::pack`]):
//! `A` into [`crate::pack::MR`]-row strips, `B` into strips of the width its
//! column count calls for ([`crate::pack::PackedB::strip_width`]: 16, 32, 48
//! or [`crate::pack::NR`] = 64), both with depth laid out in **pairs** and
//! zero-padded at the edges. Which of `A·B`, `A·Bᵀ` and `Aᵀ·B` is computed
//! is decided at pack time by each operand's [`crate::pack::PackSource`].
//! The engine then runs the classic three-level blocking
//! ([`crate::pack::NC`] columns → [`crate::pack::KC`] depth →
//! [`crate::pack::MC`] rows) with an `MR × strip-width` register tile
//! accumulated into a per-thread `i32` staging buffer. Above the parallel
//! threshold it splits the output across threads with
//! [`ff_tensor::par::shard_rows`] (the calling thread runs one share): by
//! `MR`-aligned row panels, or — when every output row comes from one `MR`
//! strip of `A`, as in a one- or two-row serving batch — by ranges of whole
//! `B` strips, each computed into a staging copy of its window of the output
//! and copied back. Both splits are bit-identical to the serial engine. The
//! micro-kernel, its tile store and the worker loop are one body,
//! const-generic over the strip width and instantiated once per width; the
//! packed `B` operand says which instance runs.
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
//! multiply. Tensors built via [`crate::QuantTensor::from_codes`] may
//! contain `−128`; when **both** operands do, a pair sum can reach
//! `2·(−128)² = 32768` and overflow. Packing detects this
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
//! Dequantization happens in the epilogue while an output tile is still
//! cache-hot. The epilogue has three kinds:
//!
//! - **store**: `out = acc · scale`, where the scale is per-tensor
//!   (`scale_a · scale_b`) or per output row (`row_scale[i] · scale_b`, for
//!   a per-row-quantized activation batch), optionally fused with a
//!   per-column bias add and ReLU (+ gradient-mask capture). This is how
//!   the dense/conv layers avoid separate bias/activation passes over the
//!   output.
//! - **fan-out store**: row `i` of `A` stores `fan` output rows, row
//!   `i·fan + v` being the store of `acc_i + coef_i · delta_v` — an exact
//!   integer rank-one correction with the same per-row scale, bias and ReLU.
//!   Rows of `A` that stand for `fan` rows differing in one moved code (the
//!   goodness sweep's candidate label overlays) pay the GEMM once instead of
//!   `fan` times. Output is sample-major, so each row panel a thread owns
//!   holds whole groups of `fan` rows.
//! - **accumulate**: `out += acc · scale` straight into the caller's
//!   gradient buffer, bit-identical to storing the product and adding it
//!   afterwards but without the temporary or the second pass. It carries
//!   neither bias nor ReLU, and its type says so.

use crate::pack::{PackedA, PackedB, KC, MC, MR, NC};
use crate::Result;
use ff_tensor::par::{shard_rows, worker_count};
use ff_tensor::{Tensor, TensorError};
use std::ops::Range;

/// Returns `shape` as `[rows, cols]`, or a rank error naming `op`.
pub(crate) fn rank2(shape: &[usize], op: &'static str) -> Result<[usize; 2]> {
    match *shape {
        [rows, cols] => Ok([rows, cols]),
        _ => Err(TensorError::RankMismatch {
            expected: 2,
            actual: shape.len(),
            op,
        }),
    }
}

/// The shape check behind every GEMM entry point: `a` and `b` must be rank 2
/// and agree on the shared depth, which is axis `a_k` of `a` and axis `b_k`
/// of `b` (`A·B`: 1, 0; `A·Bᵀ`: 1, 1; `Aᵀ·B`: 0, 0). Returns both shapes;
/// errors name `op`.
pub(crate) fn check_operands(
    a: &[usize],
    a_k: usize,
    b: &[usize],
    b_k: usize,
    op: &'static str,
) -> Result<([usize; 2], [usize; 2])> {
    let (a2, b2) = (rank2(a, op)?, rank2(b, op)?);
    if a2[a_k] != b2[b_k] {
        return Err(TensorError::ShapeMismatch {
            left: a.to_vec(),
            right: b.to_vec(),
            op,
        });
    }
    Ok((a2, b2))
}

/// The one engine call: validates shapes, shards `out` (and `mask`) into
/// row panels — or, when `A` is one `MR` strip, into column ranges (see
/// `shard_columns`) — and runs [`gemm_worker`] on each. `out` is the row-major
/// `m × n` product (`m · fan × n` under a fan-out epilogue, whose panels
/// keep each row of `A`'s `fan` output rows together), overwritten or
/// accumulated into as the epilogue says;
/// only its length is checked, so a higher-rank accumulator with the same
/// flat layout (a conv weight gradient `[oc, ic, kh, kw]`) can be passed as
/// is. `mask`, when given with a ReLU store epilogue, receives the ReLU
/// gradient mask (`1.0` where the pre-activation was positive).
///
/// The logical shape comes from the panels (`m` from `packed_a`, `n` from
/// `packed_b`). `threads`: `None` picks automatically
/// ([`ff_tensor::par::worker_count`] over row strips, or over column strips
/// for a one-strip `A`); `Some(t)` forces up to `t` workers.
///
/// # Errors
///
/// Returns a shape error when the packed depths disagree, `out` does not
/// hold `m · fan · n` elements (`fan` is 1 except for
/// [`Epilogue::FanOut`]), the bias length is not `n`, a per-row scale slice
/// is not one scale per row of `A`, or a fan-out epilogue does not carry
/// one coefficient per row of `A` and `fan · n` deltas.
pub(crate) fn int8_gemm_prepacked_into(
    packed_a: &PackedA,
    packed_b: &PackedB,
    epilogue: Epilogue<'_>,
    out: &mut [f32],
    mask: Option<&mut [f32]>,
    threads: Option<usize>,
) -> Result<()> {
    let (m, k, n) = (packed_a.m, packed_a.k, packed_b.n);
    let fan = epilogue.fan();
    if packed_a.k != packed_b.k {
        return Err(TensorError::ShapeMismatch {
            left: vec![m, packed_a.k],
            right: vec![packed_b.k, n],
            op: "int8_gemm_prepacked_into",
        });
    }
    if out.len() != m * fan * n {
        return Err(TensorError::ShapeMismatch {
            left: vec![out.len()],
            right: vec![m * fan, n],
            op: "int8_gemm_prepacked_into output",
        });
    }
    if let Epilogue::Store { scale, bias, .. } | Epilogue::FanOut { scale, bias, .. } = epilogue {
        if let Some(bias) = bias.filter(|bias| bias.len() != n) {
            return Err(TensorError::ShapeMismatch {
                left: bias.shape().to_vec(),
                right: vec![n],
                op: "int8_gemm_prepacked_into bias",
            });
        }
        if let Scale::PerRow { row_scales, .. } = scale {
            if row_scales.len() != m {
                return Err(TensorError::ShapeMismatch {
                    left: vec![row_scales.len()],
                    right: vec![m],
                    op: "int8_gemm_prepacked_into row_scales",
                });
            }
        }
    }
    if let Epilogue::FanOut { coefs, deltas, .. } = epilogue {
        if coefs.len() != m || deltas.len() != fan * n {
            return Err(TensorError::ShapeMismatch {
                left: vec![coefs.len(), deltas.len()],
                right: vec![m, fan * n],
                op: "int8_gemm_prepacked_into fan-out",
            });
        }
    }
    let width = packed_b.strip_width();
    // An output of one `MR` strip has one row panel: it splits by column.
    let by_column = m.div_ceil(MR) == 1;
    let shards = if by_column {
        n.div_ceil(width)
    } else {
        m.div_ceil(MR)
    };
    let threads = threads.unwrap_or_else(|| worker_count(m * n * k, shards));
    let run =
        |first_row: usize, cols: Range<usize>, panel: &mut [f32], mask: Option<&mut [f32]>| {
            // The one place the tile width turns from data into a type.
            let worker = match width {
                16 => gemm_worker::<16>,
                32 => gemm_worker::<32>,
                48 => gemm_worker::<48>,
                64 => gemm_worker::<64>,
                width => unreachable!("PackedB never packs {width}-column strips"),
            };
            worker(packed_a, packed_b, first_row, cols, panel, mask, &epilogue);
        };
    if by_column && threads > 1 && shards > 1 {
        return shard_columns(
            out,
            mask,
            m * fan,
            n,
            width,
            threads,
            |cols, panel, mask| run(0, cols, panel, mask),
        );
    }
    // One shard row is one row of `A` with all the output rows it stores.
    shard_rows(
        out,
        mask,
        (fan * n).max(1),
        MR,
        threads,
        |first_row, panel, mask_panel| run(first_row, 0..n, panel, mask_panel),
    )
}

/// Runs a GEMM whose `rows` output rows (`m · fan`, `m ≤ MR`) all come from
/// one strip of `A` as `threads` column ranges of whole `width`-column `B`
/// strips, one per thread. Each range works in its own staging panel, a
/// dense `rows × range` copy of its window of `out` (and of `mask`), so
/// accumulation and untouched mask entries see what the caller left there;
/// the panels are run through [`shard_rows`] (one staging row per range, the
/// caller running the last) and copied back once all are done.
/// `run(cols, panel, mask_panel)` computes columns `cols` into a panel.
fn shard_columns(
    out: &mut [f32],
    mask: Option<&mut [f32]>,
    rows: usize,
    n: usize,
    width: usize,
    threads: usize,
    run: impl Fn(Range<usize>, &mut [f32], Option<&mut [f32]>) + Sync,
) -> Result<()> {
    let span = n.div_ceil(width).div_ceil(threads) * width;
    let ranges = n.div_ceil(span);
    let stage_len = rows * span;
    let cols = |range: usize| range * span..n.min((range + 1) * span);
    // (staging offset, output offset, length) of every row of every window.
    let segments = || {
        (0..ranges).flat_map(move |range| {
            let (start, len) = (range * span, cols(range).len());
            (0..rows).map(move |row| (range * stage_len + row * len, row * n + start, len))
        })
    };
    let gather = |src: &[f32]| {
        let mut stage = vec![0.0; ranges * stage_len];
        for (at, from, len) in segments() {
            stage[at..at + len].copy_from_slice(&src[from..from + len]);
        }
        stage
    };
    let scatter = |stage: &[f32], dst: &mut [f32]| {
        for (at, to, len) in segments() {
            dst[to..to + len].copy_from_slice(&stage[at..at + len]);
        }
    };
    let mut stage = gather(out);
    let mut stage_mask = mask.as_deref().map(gather);
    shard_rows(
        &mut stage,
        stage_mask.as_deref_mut(),
        stage_len,
        1,
        ranges,
        |range, panel, mask_panel| {
            let cols = cols(range);
            let len = rows * cols.len();
            run(cols, &mut panel[..len], mask_panel.map(|m| &mut m[..len]));
        },
    )?;
    scatter(&stage, out);
    if let (Some(stage_mask), Some(mask)) = (stage_mask, mask) {
        scatter(&stage_mask, mask);
    }
    Ok(())
}

/// How the epilogue dequantizes `i32` accumulators into `f32` output.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Scale<'a> {
    /// One scale for the whole output (product of two per-tensor scales).
    PerTensor(f32),
    /// Per-output-row scales: row `i` uses `row_scales[i] * b_scale`
    /// (per-row-quantized `A` against a per-tensor-quantized `B`).
    PerRow { row_scales: &'a [f32], b_scale: f32 },
}

impl Scale<'_> {
    #[inline]
    fn for_row(&self, row: usize) -> f32 {
        match *self {
            Scale::PerTensor(s) => s,
            Scale::PerRow {
                row_scales,
                b_scale,
            } => row_scales[row] * b_scale,
        }
    }
}

/// The fused post-GEMM pass.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Epilogue<'a> {
    /// `out = acc · scale (+ bias[j])`, then clamped by ReLU if `relu`.
    Store {
        /// Dequantization scale(s).
        scale: Scale<'a>,
        /// Optional per-column bias (length `n`).
        bias: Option<&'a Tensor>,
        /// Clamp negatives to zero (and fill the mask, when one is given).
        relu: bool,
    },
    /// `Store` fanned out: row `i` of `A` stores `fan` output rows, row
    /// `i·fan + v` being `acc_i + coefs[i] · deltas[v]` stored with row
    /// `i`'s scale, the bias and ReLU exactly as `Store` stores `acc_i`. An
    /// exact integer rank-one correction, so each output row equals the
    /// `Store` of the GEMM over its own explicitly expanded `A` row.
    FanOut {
        /// Dequantization scale(s), indexed by row of `A`.
        scale: Scale<'a>,
        /// Optional per-column bias (length `n`).
        bias: Option<&'a Tensor>,
        /// Clamp negatives to zero (and fill the mask, when one is given).
        relu: bool,
        /// One correction coefficient per row of `A`.
        coefs: &'a [i8],
        /// `fan` correction rows of `n` values, row-major.
        deltas: &'a [i16],
        /// Output rows per row of `A`.
        fan: usize,
    },
    /// `out += acc · scale` — a gradient accumulator; no bias, no ReLU.
    Accumulate {
        /// The per-tensor dequantization scale.
        scale: f32,
    },
}

impl Epilogue<'_> {
    /// The plain per-tensor store: `out = acc · scale`.
    pub(crate) fn store(scale: f32) -> Self {
        Epilogue::Store {
            scale: Scale::PerTensor(scale),
            bias: None,
            relu: false,
        }
    }

    /// Output rows stored per row of `A`.
    fn fan(&self) -> usize {
        match self {
            Epilogue::FanOut { fan, .. } => *fan,
            Epilogue::Store { .. } | Epilogue::Accumulate { .. } => 1,
        }
    }

    #[inline]
    fn scale_for_row(&self, row: usize) -> f32 {
        match self {
            Epilogue::Store { scale, .. } | Epilogue::FanOut { scale, .. } => scale.for_row(row),
            Epilogue::Accumulate { scale } => *scale,
        }
    }
}

/// Runs the blocked kernel for one thread's panel: output rows from
/// `first_row` on, columns `cols` (strip-aligned; `panel` is dense, its rows
/// `cols.len()` wide).
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
    cols: Range<usize>,
    panel: &mut [f32],
    mut mask_panel: Option<&mut [f32]>,
    epilogue: &Epilogue<'_>,
) {
    let relu = matches!(
        epilogue,
        Epilogue::Store { relu: true, .. } | Epilogue::FanOut { relu: true, .. }
    );
    let n = packed_b.n;
    let width = cols.len();
    let k2 = packed_a.k2;
    let fan = epilogue.fan();
    if width == 0 || fan == 0 {
        return;
    }
    // A pair sum can only overflow i16 when BOTH factors can be −128
    // (2·(−128)² = 32768; with one operand bounded by 127 the worst case is
    // 2·128·127 = 32512, still in range). −128 codes are only possible via
    // `from_codes`, so this almost always stays on the fast kernel.
    let pairwise = !(packed_a.has_i8_min() && packed_b.has_i8_min());
    let rows = panel.len() / (fan * width);
    debug_assert_eq!(first_row % MR, 0, "panels must be MR-aligned");
    debug_assert_eq!(cols.start % NR, 0, "column ranges must be strip-aligned");
    debug_assert_eq!(packed_b.strip_width(), NR);
    let first_strip = first_row / MR;
    // Whole strips per column block.
    let nc = NC / NR * NR;
    // i32 staging tile for one MC × nc block (fewer rows for a short panel).
    let mut cbuf = vec![0i32; MC.min(rows.div_ceil(MR) * MR) * nc];
    for jc in (0..width).step_by(nc) {
        let nc_real = nc.min(width - jc);
        // `jc` is local to the panel; `j` is the absolute column.
        let j = cols.start + jc;
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
                    let b_slab = packed_b.strip_at(j / NR + js, pc2, kc2);
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
                let scale = epilogue.scale_for_row(first_row + row);
                match *epilogue {
                    Epilogue::Accumulate { .. } => {
                        let at = row * width + jc;
                        let out_row = &mut panel[at..at + nc_real];
                        for (o, &acc) in out_row.iter_mut().zip(acc_row) {
                            *o += acc as f32 * scale;
                        }
                    }
                    Epilogue::Store { bias, .. } => {
                        let at = row * width + jc;
                        store_row(
                            &mut panel[at..at + nc_real],
                            mask_panel.as_deref_mut().map(|m| &mut m[at..at + nc_real]),
                            acc_row.iter().copied(),
                            scale,
                            bias.map(|b| &b.data()[j..j + nc_real]),
                            relu,
                        );
                    }
                    Epilogue::FanOut {
                        bias,
                        coefs,
                        deltas,
                        ..
                    } => {
                        let coef = i32::from(coefs[first_row + row]);
                        for v in 0..fan {
                            let at = (row * fan + v) * width + jc;
                            let delta = &deltas[v * n + j..v * n + j + nc_real];
                            store_row(
                                &mut panel[at..at + nc_real],
                                mask_panel.as_deref_mut().map(|m| &mut m[at..at + nc_real]),
                                acc_row
                                    .iter()
                                    .zip(delta)
                                    .map(|(&acc, &d)| acc + coef * i32::from(d)),
                                scale,
                                bias.map(|b| &b.data()[j..j + nc_real]),
                                relu,
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The store epilogue of one output row segment: `out = acc · scale
/// (+ bias)`, then, with `relu`, negatives clamped to zero and `mask` (when
/// given) filled with the ReLU gradient mask.
#[inline]
fn store_row(
    out: &mut [f32],
    mask: Option<&mut [f32]>,
    acc: impl Iterator<Item = i32>,
    scale: f32,
    bias: Option<&[f32]>,
    relu: bool,
) {
    match bias {
        Some(bias) => {
            for ((o, acc), &bj) in out.iter_mut().zip(acc).zip(bias) {
                *o = acc as f32 * scale + bj;
            }
        }
        None => {
            for (o, acc) in out.iter_mut().zip(acc) {
                *o = acc as f32 * scale;
            }
        }
    }
    if !relu {
        return;
    }
    match mask {
        Some(mask) => {
            for (o, mk) in out.iter_mut().zip(mask) {
                if *o > 0.0 {
                    *mk = 1.0;
                } else {
                    *o = 0.0;
                    *mk = 0.0;
                }
            }
        }
        None => {
            // Same predicate as the mask path (`> 0.0` keeps, everything
            // else — including −0.0 and NaN — becomes +0.0) so the two ReLU
            // paths stay bit-identical for every input.
            for o in out.iter_mut() {
                *o = if *o > 0.0 { *o } else { 0.0 };
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

    use super::check_operands;
    use crate::{QuantTensor, Result};
    use ff_tensor::Tensor;

    /// Naive `A[m,k] · B[k,n]` with `i32` accumulation.
    ///
    /// # Errors
    ///
    /// Returns rank or shape errors when the operands are not conformable.
    ///
    /// # Examples
    ///
    /// ```
    /// use ff_quant::gemm::reference;
    /// use ff_quant::{QuantTensor, Rounding};
    /// use ff_tensor::Tensor;
    ///
    /// # fn main() -> Result<(), ff_tensor::TensorError> {
    /// let a = QuantTensor::quantize(&Tensor::from_vec(&[1, 2], vec![1.0, 2.0])?, Rounding::Nearest);
    /// let b = QuantTensor::quantize(&Tensor::from_vec(&[2, 1], vec![0.5, 0.25])?, Rounding::Nearest);
    /// let c = reference::int8_matmul(&a, &b)?;
    /// assert!((c.data()[0] - 1.0).abs() < 0.05);
    /// # Ok(())
    /// # }
    /// ```
    pub fn int8_matmul(a: &QuantTensor, b: &QuantTensor) -> Result<Tensor> {
        let ([m, k], [_, n]) = check_operands(a.shape(), 1, b.shape(), 0, "int8_matmul")?;
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
        let ([m, k], [n, _]) = check_operands(a.shape(), 1, b.shape(), 1, "int8_matmul_a_bt")?;
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
        let ([k, m], [_, n]) = check_operands(a.shape(), 0, b.shape(), 0, "int8_matmul_at_b")?;
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
    use crate::pack::PackSource;
    use crate::{
        int8_matmul_a_bt_planned, int8_matmul_at_b_planned, int8_matmul_planned, QGemmPlan,
        QuantConfig, QuantTensor, Rounding,
    };
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

    fn plan(b: &QuantTensor) -> QGemmPlan {
        QGemmPlan::from_quant(b.clone(), 0).unwrap()
    }

    /// `a · b` through the engine, `b` served from a fresh plan.
    fn packed_ab(a: &QuantTensor, b: &QuantTensor) -> Result<Tensor> {
        int8_matmul_planned(a, &mut plan(b))
    }

    /// `a · bᵀ` through the engine, `b` served from a fresh plan.
    fn packed_a_bt(a: &QuantTensor, b: &QuantTensor) -> Result<Tensor> {
        Ok(int8_matmul_a_bt_planned(a, &mut plan(b), None, false)?.0)
    }

    /// `aᵀ · b` through the engine, `b` served from a fresh plan.
    fn packed_at_b(a: &QuantTensor, b: &QuantTensor) -> Result<Tensor> {
        int8_matmul_at_b_planned(a, &mut plan(b))
    }

    #[test]
    fn int8_matmul_approximates_fp32_matmul() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = ff_tensor::init::uniform(&[8, 16], -1.0, 1.0, &mut rng);
        let b = ff_tensor::init::uniform(&[16, 4], -1.0, 1.0, &mut rng);
        let exact = linalg::matmul(&a, &b).unwrap();
        let approx = packed_ab(&quantize(&a, 1), &quantize(&b, 2)).unwrap();
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
        let direct = packed_a_bt(&qa, &qb).unwrap();
        let bt = linalg::transpose(&b).unwrap();
        let explicit = packed_ab(&qa, &quantize(&bt, 2)).unwrap();
        let diff = direct.sub(&explicit).unwrap().max_abs();
        assert!(diff < 1e-2, "diff {diff}");
    }

    #[test]
    fn shape_errors_are_reported() {
        let a = quantize(&Tensor::ones(&[2, 3]), 0);
        let b = quantize(&Tensor::ones(&[4, 5]), 0);
        assert!(packed_ab(&a, &b).is_err());
        assert!(packed_a_bt(&a, &b).is_err());
        assert!(reference::int8_matmul(&a, &b).is_err());
        assert!(reference::int8_matmul_a_bt(&a, &b).is_err());
        let v = quantize(&Tensor::ones(&[3]), 0);
        assert!(packed_ab(&v, &a).is_err());
        assert!(reference::int8_matmul(&v, &a).is_err());
    }

    #[test]
    fn at_b_variant_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(17);
        let a = ff_tensor::init::uniform(&[6, 4], -1.0, 1.0, &mut rng);
        let b = ff_tensor::init::uniform(&[6, 5], -1.0, 1.0, &mut rng);
        let qa = quantize(&a, 1);
        let qb = quantize(&b, 2);
        let direct = packed_at_b(&qa, &qb).unwrap();
        let at = linalg::transpose(&a).unwrap();
        let explicit = packed_ab(&quantize(&at, 1), &qb).unwrap();
        let diff = direct.sub(&explicit).unwrap().max_abs();
        assert!(diff < 2e-2, "diff {diff}");
        let ones = quantize(&Tensor::ones(&[3, 3]), 0);
        assert!(packed_at_b(&qa, &ones).is_err());
        assert!(reference::int8_matmul_at_b(&qa, &ones).is_err());
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
            let packed = packed_ab(&qa, &qb).unwrap();
            let naive = reference::int8_matmul(&qa, &qb).unwrap();
            assert_eq!(packed.data(), naive.data(), "AB shape ({m},{k},{n})");

            let qbt = random_quant(&[n, k], (n * 999 + k) as u64);
            let packed = packed_a_bt(&qa, &qbt).unwrap();
            let naive = reference::int8_matmul_a_bt(&qa, &qbt).unwrap();
            assert_eq!(packed.data(), naive.data(), "ABt shape ({m},{k},{n})");

            let qat = random_quant(&[k, m], (k * 998 + m) as u64);
            let packed = packed_at_b(&qat, &qb).unwrap();
            let naive = reference::int8_matmul_at_b(&qat, &qb).unwrap();
            assert_eq!(packed.data(), naive.data(), "AtB shape ({m},{k},{n})");
        }
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
        let packed = packed_ab(&qa, &qb).unwrap();
        let naive = reference::int8_matmul(&qa, &qb).unwrap();
        assert_eq!(packed.data(), naive.data());

        // −128 in only ONE operand keeps the fast pairwise kernel (the pair
        // sum is bounded by 2·128·127 = 32512) and must still be exact.
        let worst: Vec<i8> = vec![i8::MIN; 6 * k];
        let qa_min = QuantTensor::from_codes(&[6, k], worst, 0.01).unwrap();
        let qb_max = QuantTensor::from_codes(&[k, 9], vec![127i8; k * 9], 0.02).unwrap();
        let packed = packed_ab(&qa_min, &qb_max).unwrap();
        let naive = reference::int8_matmul(&qa_min, &qb_max).unwrap();
        assert_eq!(packed.data(), naive.data());
    }

    /// Every strip width the packer can choose, their edges, and widths that
    /// span several column blocks — for all three variants and every
    /// epilogue (per-tensor store with bias, ReLU and mask; per-row store;
    /// accumulate), on the pairwise kernel and on the `i8::MIN` fallback,
    /// with caller-set thread counts splitting the output into row panels.
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
        let relu = |v: f32| if v > 0.0 { v } else { 0.0 };
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
                    ("AB", expected.clone(), packed_ab(&qa, &qb).unwrap()),
                    (
                        "ABt",
                        reference::int8_matmul_a_bt(&qa, &qb_t).unwrap(),
                        packed_a_bt(&qa, &qb_t).unwrap(),
                    ),
                    (
                        "AtB",
                        reference::int8_matmul_at_b(&qa_t, &qb).unwrap(),
                        packed_at_b(&qa_t, &qb).unwrap(),
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

                // Each epilogue straight through the engine, over each way
                // of packing the same logical operands.
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
                let biased: Vec<f32> = (0..m * n)
                    .map(|idx| acc[idx] as f32 * (sa * sb) + bias.data()[idx % n])
                    .collect();
                let stored: Vec<f32> = biased.iter().map(|&v| relu(v)).collect();
                let stored_mask: Vec<f32> = biased
                    .iter()
                    .map(|&v| if v > 0.0 { 1.0 } else { 0.0 })
                    .collect();
                let accumulated: Vec<f32> = init
                    .iter()
                    .zip(&acc)
                    .map(|(&o, &v)| o + v as f32 * (sa * sb))
                    .collect();
                let row_scaled: Vec<f32> = (0..m * n)
                    .map(|idx| {
                        let (i, j) = (idx / n, idx % n);
                        relu(acc[idx] as f32 * (row_scales[i] * sb) + bias.data()[j])
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
                    for threads in [1, 3] {
                        let case = format!("{case} {packing} threads={threads}");
                        let run = |epilogue, out: &mut [f32], mask: Option<&mut [f32]>| {
                            int8_gemm_prepacked_into(
                                &packed_a,
                                &packed_b,
                                epilogue,
                                out,
                                mask,
                                Some(threads),
                            )
                            .unwrap();
                        };
                        let (mut out, mut mask) = (vec![0.0; m * n], vec![0.0; m * n]);
                        let store = Epilogue::Store {
                            scale: Scale::PerTensor(sa * sb),
                            bias: Some(&bias),
                            relu: true,
                        };
                        run(store, &mut out, Some(&mut mask));
                        assert_eq!(bits(&out), bits(&stored), "{case} store");
                        assert_eq!(bits(&mask), bits(&stored_mask), "{case} store mask");

                        let mut out = vec![0.0; m * n];
                        let per_row = Epilogue::Store {
                            scale: Scale::PerRow {
                                row_scales: &row_scales,
                                b_scale: sb,
                            },
                            bias: Some(&bias),
                            relu: true,
                        };
                        run(per_row, &mut out, None);
                        assert_eq!(bits(&out), bits(&row_scaled), "{case} row scale");

                        let mut out = init.clone();
                        run(Epilogue::Accumulate { scale: sa * sb }, &mut out, None);
                        assert_eq!(bits(&out), bits(&accumulated), "{case} accumulate");
                    }
                }
            }
        }
    }

    /// Fan-out operands: row `i` of `A` (`k` codes) carries `coefs[i]` in
    /// column 0, zeros in the other columns it moves to and `code(idx)`
    /// elsewhere. Returns `A`, the exact accumulators of its explicitly
    /// expanded rows (row `i·fan + v` with the coefficient moved to column
    /// `v`) against `b` (`n × k`), and the `fan · n` fan-out deltas.
    fn fan_out_operands(
        coefs: &[i8],
        k: usize,
        fan: usize,
        b: &[i8],
        code: impl Fn(usize) -> i8,
    ) -> (Vec<i8>, Vec<f32>, Vec<i16>) {
        let m = coefs.len();
        let a: Vec<i8> = (0..m * k)
            .map(|idx| match idx % k {
                0 => coefs[idx / k],
                col if col < fan => 0,
                _ => code(idx),
            })
            .collect();
        let mut expanded = Vec::with_capacity(m * fan * k);
        for (row, &coef) in a.chunks(k).zip(coefs) {
            for v in 0..fan {
                let start = expanded.len();
                expanded.extend_from_slice(row);
                expanded[start] = 0;
                expanded[start + v] = coef;
            }
        }
        // Unit scales make the oracle's output the exact accumulator (every
        // |acc| in these tests is below 2^24).
        let expanded = QuantTensor::from_codes(&[m * fan, k], expanded, 1.0).unwrap();
        let qb = QuantTensor::from_codes(&[b.len() / k, k], b.to_vec(), 1.0).unwrap();
        let acc = reference::int8_matmul_a_bt(&expanded, &qb).unwrap();
        let deltas = (0..fan)
            .flat_map(|v| b.chunks(k).map(move |w| i16::from(w[v]) - i16::from(w[0])))
            .collect();
        (a, acc.data().to_vec(), deltas)
    }

    /// The fan-out store against the reference GEMM over the explicitly
    /// expanded rows: output row `i·fan + v` must be `A` row `i` with its
    /// column-0 code (the coefficient) moved to column `v`, stored with row
    /// `i`'s scale. Every strip width, `m` across the `MC` row block,
    /// coefficients 0 and ±127, ReLU on and off, the `i8::MIN` fallback
    /// kernel, and one or two threads.
    #[test]
    fn fan_out_epilogue_matches_reference_over_expanded_rows() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let k = 23;
        let sb = 0.0071f32;
        let mut fallback_cases = 0;
        for n in [10usize, 16, 32, 48, 2000] {
            for m in [1usize, 5, 70] {
                for fan in [1usize, 2, 10] {
                    for with_min in [false, true] {
                        let code = |i: usize, salt: usize| match (i * 31 + salt) % 255 {
                            0 if with_min => i8::MIN,
                            v => (v as i16 - 127) as i8,
                        };
                        let coefs: Vec<i8> =
                            (0..m).map(|i| [127, 0, -127, 45, -3][i % 5]).collect();
                        let b: Vec<i8> = (0..n * k).map(|idx| code(idx, m + 7)).collect();
                        let (a, acc, deltas) =
                            fan_out_operands(&coefs, k, fan, &b, |idx| code(idx, n + fan));
                        let row_scales: Vec<f32> =
                            (0..m).map(|i| 0.002 + i as f32 * 0.0007).collect();
                        let bias = Tensor::from_vec(
                            &[n],
                            (0..n).map(|j| (j % 9) as f32 * 0.5 - 2.0).collect(),
                        )
                        .unwrap();
                        let packed_a = PackedA::pack(&a, m, k, PackSource::RowMajor);
                        let packed_b = PackedB::pack(&b, k, n, PackSource::Transposed);
                        fallback_cases +=
                            usize::from(packed_a.has_i8_min() && packed_b.has_i8_min());
                        for relu in [false, true] {
                            let expected: Vec<f32> = (0..m * fan * n)
                                .map(|idx| {
                                    let (i, j) = (idx / (fan * n), idx % n);
                                    let v = acc[idx] * (row_scales[i] * sb) + bias.data()[j];
                                    if relu && v <= 0.0 {
                                        0.0
                                    } else {
                                        v
                                    }
                                })
                                .collect();
                            for threads in [1, 2] {
                                let mut out = vec![f32::NAN; m * fan * n];
                                let epilogue = Epilogue::FanOut {
                                    scale: Scale::PerRow {
                                        row_scales: &row_scales,
                                        b_scale: sb,
                                    },
                                    bias: Some(&bias),
                                    relu,
                                    coefs: &coefs,
                                    deltas: &deltas,
                                    fan,
                                };
                                int8_gemm_prepacked_into(
                                    &packed_a,
                                    &packed_b,
                                    epilogue,
                                    &mut out,
                                    None,
                                    Some(threads),
                                )
                                .unwrap();
                                assert_eq!(
                                    bits(&out),
                                    bits(&expected),
                                    "n={n} m={m} fan={fan} i8::MIN={with_min} relu={relu} threads={threads}"
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(fallback_cases > 0, "no case ran the i8::MIN kernel");
    }

    /// Outputs of one `MR` strip (`m ≤ 2`) split their columns across
    /// threads, so every range must index bias, deltas and `B` strips by
    /// absolute column and hand back what it did not write. Every epilogue
    /// (per-tensor and per-row stores with bias, ReLU and mask, a store that
    /// must leave a mask alone, fan-out, accumulate over `−0.0`), fan 1 and
    /// 10, `n` from one strip to several column blocks, not a multiple of the
    /// strip width, below and above `strip_width × threads`, depth across
    /// [`KC`]: bit-equal to `Some(1)` and to the reference.
    #[test]
    fn one_strip_column_split_is_bit_identical() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let relu = |v: f32| if v > 0.0 { v } else { 0.0 };
        let positive = |v: f32| if v > 0.0 { 1.0 } else { 0.0 };
        let code = |i: usize, salt: usize| (((i * 31 + salt) % 255) as i16 - 127) as i8;
        let (k, sa, sb) = (300, 0.013f32, 0.0071f32);
        for n in [10usize, 96, 100, 130, 300, 2000] {
            let bias = Tensor::from_vec(&[n], (0..n).map(|j| (j % 9) as f32 * 0.5 - 2.0).collect())
                .unwrap();
            let b: Vec<i8> = (0..n * k).map(|idx| code(idx, n)).collect();
            let packed_b = PackedB::pack(&b, k, n, PackSource::Transposed);
            for m in [1usize, 2] {
                let coefs = &[127i8, -45][..m];
                let row_scales: Vec<f32> = (0..m).map(|i| 0.002 + i as f32 * 0.0007).collect();
                for fan in [1usize, 10] {
                    let (a, acc, deltas) =
                        fan_out_operands(coefs, k, fan, &b, |idx| code(idx, m + 7));
                    let packed_a = PackedA::pack(&a, m, k, PackSource::RowMajor);
                    let len = m * fan * n;
                    let at = |idx: usize| (idx / (fan * n), idx % n);
                    let per_tensor = |idx: usize| acc[idx] * (sa * sb) + bias.data()[at(idx).1];
                    let per_row = |idx: usize| {
                        let (i, j) = at(idx);
                        acc[idx] * (row_scales[i] * sb) + bias.data()[j]
                    };
                    let sentinel: Vec<f32> = (0..len).map(|i| i as f32 * 0.25 - 3.0).collect();
                    let init: Vec<f32> = (0..len)
                        .map(|i| {
                            if i % 3 == 0 {
                                -0.0
                            } else {
                                (i % 13) as f32 * 0.37 - 2.0
                            }
                        })
                        .collect();
                    let scale_rows = Scale::PerRow {
                        row_scales: &row_scales,
                        b_scale: sb,
                    };
                    let expect = |f: &dyn Fn(usize) -> f32| (0..len).map(f).collect::<Vec<_>>();
                    let nan = vec![f32::NAN; len];
                    let mut cases = vec![(
                        "fan-out",
                        Epilogue::FanOut {
                            scale: scale_rows,
                            bias: Some(&bias),
                            relu: true,
                            coefs,
                            deltas: &deltas,
                            fan,
                        },
                        nan.clone(),
                        expect(&|i| relu(per_row(i))),
                        expect(&|i| positive(per_row(i))),
                    )];
                    if fan == 1 {
                        cases.extend([
                            (
                                "per-tensor store",
                                Epilogue::Store {
                                    scale: Scale::PerTensor(sa * sb),
                                    bias: Some(&bias),
                                    relu: true,
                                },
                                nan.clone(),
                                expect(&|i| relu(per_tensor(i))),
                                expect(&|i| positive(per_tensor(i))),
                            ),
                            (
                                "per-row store",
                                Epilogue::Store {
                                    scale: scale_rows,
                                    bias: Some(&bias),
                                    relu: true,
                                },
                                nan.clone(),
                                expect(&|i| relu(per_row(i))),
                                expect(&|i| positive(per_row(i))),
                            ),
                            (
                                "store without ReLU",
                                Epilogue::Store {
                                    scale: Scale::PerTensor(sa * sb),
                                    bias: Some(&bias),
                                    relu: false,
                                },
                                nan.clone(),
                                expect(&per_tensor),
                                sentinel.clone(),
                            ),
                            (
                                "accumulate",
                                Epilogue::Accumulate { scale: sa * sb },
                                init.clone(),
                                expect(&|i| init[i] + acc[i] * (sa * sb)),
                                sentinel.clone(),
                            ),
                        ]);
                    }
                    for (epilogue_name, epilogue, start, expected, expected_mask) in cases {
                        let run = |threads| {
                            let (mut out, mut mask) = (start.clone(), sentinel.clone());
                            int8_gemm_prepacked_into(
                                &packed_a,
                                &packed_b,
                                epilogue,
                                &mut out,
                                Some(&mut mask),
                                Some(threads),
                            )
                            .unwrap();
                            (bits(&out), bits(&mask))
                        };
                        let serial = run(1);
                        let case = format!("{epilogue_name} m={m} fan={fan} n={n}");
                        assert_eq!(serial.0, bits(&expected), "{case} threads=1");
                        assert_eq!(serial.1, bits(&expected_mask), "{case} threads=1 mask");
                        for threads in 2..=4 {
                            assert_eq!(run(threads), serial, "{case} threads={threads}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fan_out_epilogue_checks_its_operands() {
        let (m, k, n, fan) = (3, 4, 5, 2);
        let packed_a = PackedA::pack(&[1i8; 12], m, k, PackSource::RowMajor);
        let packed_b = PackedB::pack(&[1i8; 20], k, n, PackSource::Transposed);
        let fan_out = |coefs, deltas| Epilogue::FanOut {
            scale: Scale::PerTensor(1.0),
            bias: None,
            relu: false,
            coefs,
            deltas,
            fan,
        };
        let run = |epilogue, len: usize| {
            let mut out = vec![0.0; len];
            int8_gemm_prepacked_into(&packed_a, &packed_b, epilogue, &mut out, None, Some(1))
        };
        let (coefs, deltas) = ([1i8; 3], [0i16; 10]);
        assert!(run(fan_out(&coefs, &deltas), m * fan * n).is_ok());
        assert!(
            run(fan_out(&coefs, &deltas), m * n).is_err(),
            "output sized without the fan"
        );
        assert!(
            run(fan_out(&coefs[..2], &deltas), m * fan * n).is_err(),
            "one coefficient per row"
        );
        assert!(
            run(fan_out(&coefs, &deltas[..5]), m * fan * n).is_err(),
            "fan · n deltas"
        );
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
        let out = packed_ab(&quantize(&a, 1), &quantize(&id, 2)).unwrap();
        for (x, y) in out.data().iter().zip(a.data()) {
            assert!((x - y).abs() < 0.02);
        }
    }
}
