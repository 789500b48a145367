//! Dense linear-algebra kernels: matrix multiplication and transposition.
//!
//! All three product variants ([`matmul`], [`matmul_a_bt`], [`matmul_at_b`])
//! shard their output into row panels with [`crate::par::shard_rows`] once
//! the work exceeds [`crate::par::PARALLEL_THRESHOLD`] fused multiply-adds;
//! smaller products run single-threaded to avoid thread start-up overhead.
//! Per output element the accumulation order is independent of the thread
//! count, so parallel and serial runs produce bit-identical results.
//!
//! [`matmul_a_bt_fused`] additionally applies a per-column bias and an
//! optional ReLU (recording its gradient mask) inside the worker while the
//! output panel is still cache-hot — the fused epilogue used by the dense
//! and convolution layers.

use crate::par::{shard_rows, worker_count};
use crate::{Result, Tensor, TensorError};

fn check_rank2(t: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    if t.ndim() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: t.ndim(),
            op,
        });
    }
    Ok((t.shape()[0], t.shape()[1]))
}

/// Multiplies `[m, k] × [k, n] → [m, n]`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if either operand is not rank-2 and
/// [`TensorError::ShapeMismatch`] if the inner dimensions disagree.
///
/// # Examples
///
/// ```
/// use ff_tensor::{linalg, Tensor};
///
/// # fn main() -> Result<(), ff_tensor::TensorError> {
/// let a = Tensor::from_vec(&[1, 2], vec![1.0, 2.0])?;
/// let b = Tensor::from_vec(&[2, 1], vec![3.0, 4.0])?;
/// assert_eq!(linalg::matmul(&a, &b)?.data(), &[11.0]);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, ka) = check_rank2(a, "matmul")?;
    let (kb, n) = check_rank2(b, "matmul")?;
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            left: a.shape().to_vec(),
            right: b.shape().to_vec(),
            op: "matmul",
        });
    }
    let mut out = vec![0.0f32; m * n];
    let threads = worker_count(m * n * ka, m);
    let (a_data, b_data) = (a.data(), b.data());
    shard_rows(&mut out, None, n, 1, threads, |first_row, panel, _| {
        let rows = panel.len() / n;
        let a_panel = &a_data[first_row * ka..(first_row + rows) * ka];
        serial_matmul(a_panel, b_data, panel, rows, ka, n);
    })?;
    Tensor::from_vec(&[m, n], out)
}

/// `k·n` (elements of `B`) above which [`serial_matmul`] cache-blocks: a `B`
/// this large (≥ 1 MiB) no longer stays resident in a per-core L2 between
/// output rows, so the plain loop re-streams all of it from the outer cache
/// levels once per row.
const BLOCKED_MIN_B_ELEMS: usize = 1 << 18;
/// Output rows per block: one `B` row segment is reused across this many rows.
const ROW_BLOCK: usize = 16;
/// Output columns per block: a `ROW_BLOCK × COL_BLOCK` f32 out tile is 16 KiB
/// and stays L1-resident while `p` sweeps the whole depth.
const COL_BLOCK: usize = 256;

/// `out[m, n] += a[m, k] · b[k, n]`, skipping zero `a` elements.
///
/// Every output element accumulates its `p = 0..k` terms in ascending `p`
/// in both loops below, so the blocked and the plain loop (and any row
/// sharding above them) are bit-identical.
fn serial_matmul(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    if m > 1 && k * n >= BLOCKED_MIN_B_ELEMS {
        // Large `B`: stream it once per row *block* instead of once per row.
        for i0 in (0..m).step_by(ROW_BLOCK) {
            let i1 = (i0 + ROW_BLOCK).min(m);
            for j0 in (0..n).step_by(COL_BLOCK) {
                let j1 = (j0 + COL_BLOCK).min(n);
                for p in 0..k {
                    let b_seg = &b[p * n + j0..p * n + j1];
                    for i in i0..i1 {
                        let a_ip = a[i * k + p];
                        if a_ip == 0.0 {
                            continue;
                        }
                        let out_seg = &mut out[i * n + j0..i * n + j1];
                        for (o, &b_pj) in out_seg.iter_mut().zip(b_seg) {
                            *o += a_ip * b_pj;
                        }
                    }
                }
            }
        }
        return;
    }
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &b_pj) in out_row.iter_mut().zip(b_row) {
                *o += a_ip * b_pj;
            }
        }
    }
}

/// Multiplies `aᵀ × b` where `a` is `[k, m]` and `b` is `[k, n]`, yielding
/// `[m, n]` without materialising the transpose.
///
/// Sharded across threads by output row panels above the parallel threshold,
/// like [`matmul`].
///
/// # Errors
///
/// Returns the same errors as [`matmul`].
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (ka, m) = check_rank2(a, "matmul_at_b")?;
    let (kb, n) = check_rank2(b, "matmul_at_b")?;
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            left: a.shape().to_vec(),
            right: b.shape().to_vec(),
            op: "matmul_at_b",
        });
    }
    let mut out = vec![0.0f32; m * n];
    let threads = worker_count(m * n * ka, m);
    let (a_data, b_data) = (a.data(), b.data());
    shard_rows(&mut out, None, n, 1, threads, |first_row, panel, _| {
        let rows = panel.len() / n;
        // out[i, j] = Σ_p a[p, i] · b[p, j]; the p loop stays outermost so b
        // rows stream sequentially and per-element accumulation order matches
        // the serial kernel exactly.
        for p in 0..ka {
            let a_row = &a_data[p * m..(p + 1) * m];
            let b_row = &b_data[p * n..(p + 1) * n];
            for i in 0..rows {
                let a_pi = a_row[first_row + i];
                if a_pi == 0.0 {
                    continue;
                }
                let out_row = &mut panel[i * n..(i + 1) * n];
                for (o, &b_pj) in out_row.iter_mut().zip(b_row) {
                    *o += a_pi * b_pj;
                }
            }
        }
    })?;
    Tensor::from_vec(&[m, n], out)
}

/// Multiplies `a × bᵀ` where `a` is `[m, k]` and `b` is `[n, k]`, yielding
/// `[m, n]` without materialising the transpose.
///
/// Sharded across threads by output row panels above the parallel threshold,
/// like [`matmul`].
///
/// # Errors
///
/// Returns the same errors as [`matmul`].
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (out, _) = matmul_a_bt_fused(a, b, None, false)?;
    Ok(out)
}

/// [`matmul_a_bt`] with a fused epilogue: adds a per-column `bias`, applies
/// an optional ReLU, and (when `relu` is set) records the ReLU gradient mask
/// — all while the output panel is cache-hot inside the GEMM worker.
///
/// Returns the output and, when `relu` is true, the mask tensor whose
/// elements are `1.0` where the pre-activation was positive.
///
/// # Errors
///
/// Returns the same shape errors as [`matmul`], plus
/// [`TensorError::ShapeMismatch`] when `bias` is not a length-`n` vector.
///
/// # Examples
///
/// ```
/// use ff_tensor::{linalg, Tensor};
///
/// # fn main() -> Result<(), ff_tensor::TensorError> {
/// let x = Tensor::from_vec(&[1, 2], vec![1.0, -3.0])?;
/// let w = Tensor::from_vec(&[2, 2], vec![1.0, 0.0, 0.0, 1.0])?; // identity, stored [out, in]
/// let bias = Tensor::from_vec(&[2], vec![0.5, 0.5])?;
/// let (y, mask) = linalg::matmul_a_bt_fused(&x, &w, Some(&bias), true)?;
/// assert_eq!(y.data(), &[1.5, 0.0]);
/// assert_eq!(mask.unwrap().data(), &[1.0, 0.0]);
/// # Ok(())
/// # }
/// ```
pub fn matmul_a_bt_fused(
    a: &Tensor,
    b: &Tensor,
    bias: Option<&Tensor>,
    relu: bool,
) -> Result<(Tensor, Option<Tensor>)> {
    let (m, ka) = check_rank2(a, "matmul_a_bt")?;
    let (n, kb) = check_rank2(b, "matmul_a_bt")?;
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            left: a.shape().to_vec(),
            right: b.shape().to_vec(),
            op: "matmul_a_bt",
        });
    }
    let bias_data = match bias {
        Some(bias) if bias.len() != n => {
            return Err(TensorError::ShapeMismatch {
                left: bias.shape().to_vec(),
                right: vec![n],
                op: "matmul_a_bt_fused bias",
            });
        }
        Some(bias) => Some(bias.data()),
        None => None,
    };
    let mut out = vec![0.0f32; m * n];
    let mut mask = if relu {
        vec![0.0f32; m * n]
    } else {
        Vec::new()
    };
    let threads = worker_count(m * n * ka, m);
    let (a_data, b_data) = (a.data(), b.data());
    let mask_slice = if relu { Some(&mut mask[..]) } else { None };
    shard_rows(
        &mut out,
        mask_slice,
        n,
        1,
        threads,
        |first_row, panel, mut mask_panel| {
            let rows = panel.len() / n;
            for i in 0..rows {
                let a_row = &a_data[(first_row + i) * ka..(first_row + i + 1) * ka];
                let out_row = &mut panel[i * n..(i + 1) * n];
                for (j, o) in out_row.iter_mut().enumerate() {
                    let b_row = &b_data[j * kb..(j + 1) * kb];
                    *o = a_row.iter().zip(b_row).map(|(x, y)| x * y).sum();
                }
                if let Some(bias) = bias_data {
                    for (o, &bj) in out_row.iter_mut().zip(bias) {
                        *o += bj;
                    }
                }
                if let Some(mask_panel) = mask_panel.as_deref_mut() {
                    let mask_row = &mut mask_panel[i * n..(i + 1) * n];
                    for (o, mk) in out_row.iter_mut().zip(mask_row) {
                        if *o > 0.0 {
                            *mk = 1.0;
                        } else {
                            *o = 0.0;
                            *mk = 0.0;
                        }
                    }
                }
            }
        },
    )?;
    let out = Tensor::from_vec(&[m, n], out)?;
    let mask = if relu {
        Some(Tensor::from_vec(&[m, n], mask)?)
    } else {
        None
    };
    Ok((out, mask))
}

/// Transposes a rank-2 tensor.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-rank-2 input.
///
/// # Examples
///
/// ```
/// use ff_tensor::{linalg, Tensor};
///
/// # fn main() -> Result<(), ff_tensor::TensorError> {
/// let t = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.])?;
/// assert_eq!(linalg::transpose(&t)?.shape(), &[3, 2]);
/// # Ok(())
/// # }
/// ```
pub fn transpose(t: &Tensor) -> Result<Tensor> {
    let (rows, cols) = check_rank2(t, "transpose")?;
    let mut out = vec![0.0f32; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            out[c * rows + r] = t.data()[r * cols + c];
        }
    }
    Tensor::from_vec(&[cols, rows], out)
}

impl Tensor {
    /// Matrix product, see [`matmul`].
    ///
    /// # Errors
    ///
    /// See [`matmul`].
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        matmul(self, other)
    }

    /// Transposed matrix, see [`transpose`].
    ///
    /// # Errors
    ///
    /// See [`transpose`].
    pub fn transpose2(&self) -> Result<Tensor> {
        transpose(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]).unwrap();
        let id = Tensor::from_vec(&[2, 2], vec![1., 0., 0., 1.]).unwrap();
        assert_eq!(matmul(&a, &id).unwrap().data(), a.data());
        assert_eq!(matmul(&id, &a).unwrap().data(), a.data());
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec(&[3, 2], vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_shape_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul(&Tensor::zeros(&[2]), &b).is_err());
    }

    #[test]
    fn transposed_variants_match_explicit_transpose() {
        let a = Tensor::from_vec(&[3, 2], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec(&[3, 4], (0..12).map(|x| x as f32).collect()).unwrap();
        let direct = matmul_at_b(&a, &b).unwrap();
        let explicit = matmul(&transpose(&a).unwrap(), &b).unwrap();
        assert_eq!(direct.data(), explicit.data());

        let c = Tensor::from_vec(&[2, 3], vec![1., 0., 2., -1., 3., 1.]).unwrap();
        let d = Tensor::from_vec(&[4, 3], (0..12).map(|x| x as f32 / 2.0).collect()).unwrap();
        let direct = matmul_a_bt(&c, &d).unwrap();
        let explicit = matmul(&c, &transpose(&d).unwrap()).unwrap();
        for (x, y) in direct.data().iter().zip(explicit.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let tt = transpose(&transpose(&a).unwrap()).unwrap();
        assert_eq!(tt.data(), a.data());
        assert!(transpose(&Tensor::zeros(&[2, 2, 2])).is_err());
    }

    #[test]
    fn large_matmul_parallel_matches_serial() {
        let m = 64;
        let k = 300;
        let n = 70;
        let a_data: Vec<f32> = (0..m * k).map(|i| ((i * 7919) % 13) as f32 - 6.0).collect();
        let b_data: Vec<f32> = (0..k * n)
            .map(|i| ((i * 104729) % 11) as f32 - 5.0)
            .collect();
        let a = Tensor::from_vec(&[m, k], a_data).unwrap();
        let b = Tensor::from_vec(&[k, n], b_data).unwrap();
        let par = matmul(&a, &b).unwrap();
        let mut serial = vec![0.0f32; m * n];
        serial_matmul(a.data(), b.data(), &mut serial, m, k, n);
        assert_eq!(par.data(), &serial[..]);
    }

    #[test]
    fn transposed_variants_parallel_match_serial_order() {
        // Large enough to cross PARALLEL_THRESHOLD (m·n·k ≥ 2^20).
        let m = 128;
        let k = 96;
        let n = 96;
        let a_data: Vec<f32> = (0..m * k).map(|i| ((i * 31) % 17) as f32 - 8.0).collect();
        let bt_data: Vec<f32> = (0..n * k).map(|i| ((i * 57) % 19) as f32 - 9.0).collect();
        let a = Tensor::from_vec(&[m, k], a_data).unwrap();
        let bt = Tensor::from_vec(&[n, k], bt_data).unwrap();
        let direct = matmul_a_bt(&a, &bt).unwrap();
        let explicit = matmul(&a, &transpose(&bt).unwrap()).unwrap();
        for (x, y) in direct.data().iter().zip(explicit.data()) {
            assert!((x - y).abs() < 1e-3);
        }

        let at = transpose(&a).unwrap(); // [k=?]: a^T is [k, m]
        let b2 =
            Tensor::from_vec(&[m, n], (0..m * n).map(|x| (x % 23) as f32 * 0.5).collect()).unwrap();
        let direct = matmul_at_b(&a, &b2).unwrap(); // aᵀ·b2: [k, n]... a is [m, k] so aᵀ is [k dims]
        let explicit = matmul(&at, &b2).unwrap();
        assert_eq!(direct.data(), explicit.data());
    }

    #[test]
    fn fused_epilogue_matches_unfused() {
        let m = 5;
        let k = 7;
        let n = 4;
        let a = Tensor::from_vec(
            &[m, k],
            (0..m * k).map(|i| (i as f32 - 15.0) / 7.0).collect(),
        )
        .unwrap();
        let b = Tensor::from_vec(
            &[n, k],
            (0..n * k).map(|i| (i as f32 - 12.0) / 9.0).collect(),
        )
        .unwrap();
        let bias = Tensor::from_vec(&[n], vec![0.5, -0.25, 0.0, 1.0]).unwrap();
        let (fused, mask) = matmul_a_bt_fused(&a, &b, Some(&bias), true).unwrap();
        let mask = mask.unwrap();
        let unfused = matmul_a_bt(&a, &b)
            .unwrap()
            .add_row_broadcast(&bias)
            .unwrap();
        for ((&f, &u), &mk) in fused.data().iter().zip(unfused.data()).zip(mask.data()) {
            if u > 0.0 {
                assert_eq!(f, u);
                assert_eq!(mk, 1.0);
            } else {
                assert_eq!(f, 0.0);
                assert_eq!(mk, 0.0);
            }
        }

        // Without relu: bias only, no mask.
        let (fused, mask) = matmul_a_bt_fused(&a, &b, Some(&bias), false).unwrap();
        assert!(mask.is_none());
        assert_eq!(fused.data(), unfused.data());
    }

    #[test]
    fn fused_epilogue_rejects_bad_bias() {
        let a = Tensor::ones(&[2, 3]);
        let b = Tensor::ones(&[4, 3]);
        let bias = Tensor::ones(&[5]);
        assert!(matmul_a_bt_fused(&a, &b, Some(&bias), false).is_err());
    }

    #[test]
    fn method_wrappers_delegate() {
        let a = Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]).unwrap();
        assert_eq!(a.matmul(&a).unwrap().data(), &[7., 10., 15., 22.]);
        assert_eq!(a.transpose2().unwrap().data(), &[1., 3., 2., 4.]);
    }
}
