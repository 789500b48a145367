//! Row-panel work sharding shared by every GEMM in the workspace.
//!
//! Both the fp32 kernels in [`crate::linalg`] and the packed INT8 engine in
//! `ff-quant` — whether its operands are packed per call or served from a
//! cached plan — split their output matrix into contiguous panels of rows
//! and run each panel on its own thread (via `crossbeam::scope`): `t` panels
//! spawn `t − 1` threads and the calling thread runs the last panel itself
//! instead of only waiting. This module centralises that pattern so
//! thresholds, thread-count selection and panel alignment behave identically
//! everywhere. (The INT8 engine splits an output too short for two row
//! panels by column instead, through the same function.)
//!
//! # Examples
//!
//! ```
//! use ff_tensor::par::shard_rows;
//!
//! # fn main() -> Result<(), ff_tensor::TensorError> {
//! // Fill a 4×3 row-major buffer, one panel per worker.
//! let mut out = vec![0.0f32; 12];
//! shard_rows(&mut out, None, 3, 1, 2, |first_row, panel, _aux| {
//!     for (r, row) in panel.chunks_mut(3).enumerate() {
//!         row.fill((first_row + r) as f32);
//!     }
//! })?;
//! assert_eq!(out[3..6], [1.0, 1.0, 1.0]);
//! # Ok(())
//! # }
//! ```

use crate::Result;
use std::sync::OnceLock;

/// Minimum number of fused multiply-adds before a GEMM is parallelised.
///
/// Below this, thread start-up costs more than the arithmetic saves. A
/// two-way split costs one spawn round trip (35–45 µs on a 2-core x86 box,
/// the calling thread running the other half). There, the packed INT8
/// engine ran a one-row `1 × 1024 × 1024` GEMM (2²⁰ MACs) in about 240 µs
/// serially and 160 µs split by column, while at 2¹⁸ MACs (`1 × 512 × 512`,
/// about 60 µs) the split was slower (about 70 µs).
pub const PARALLEL_THRESHOLD: usize = 1 << 20;

/// Picks the number of worker threads for a GEMM of `work = m·n·k` MACs whose
/// output can be split into at most `max_shards` row panels.
///
/// Returns `1` (serial) when the product is below [`PARALLEL_THRESHOLD`] or
/// only one shard exists; otherwise the machine's available parallelism
/// capped by `max_shards`.
pub fn worker_count(work: usize, max_shards: usize) -> usize {
    // `available_parallelism` re-reads the cgroup files on every call
    // (≈ 10 µs), and a training step asks dozens of times.
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    if work < PARALLEL_THRESHOLD || max_shards <= 1 {
        return 1;
    }
    let available =
        *AVAILABLE.get_or_init(|| std::thread::available_parallelism().map_or(4, |p| p.get()));
    available.min(max_shards).max(1)
}

/// Splits `out` (a row-major `rows × row_width` buffer) into contiguous row
/// panels and runs `body(first_row, panel, aux_panel)` for each, one panel
/// per thread: at most `threads` panels, the last run on the calling thread,
/// so at most `threads − 1` threads are spawned.
///
/// - Panel boundaries are aligned to multiples of `granule` rows so blocked
///   kernels can keep their micro-panel alignment (pass `1` for no
///   constraint).
/// - `aux` is an optional second buffer of identical shape (e.g. a ReLU mask
///   written alongside the output); it is sharded with the same boundaries.
/// - With `threads <= 1` the body runs inline on the calling thread, so the
///   serial path stays allocation- and thread-free.
///
/// # Errors
///
/// Returns [`crate::TensorError::InvalidParameter`] when `row_width` is zero,
/// `out.len()` is not a multiple of `row_width`, or `aux` has a different
/// length than `out`.
pub fn shard_rows<T, F>(
    out: &mut [T],
    mut aux: Option<&mut [T]>,
    row_width: usize,
    granule: usize,
    threads: usize,
    body: F,
) -> Result<()>
where
    T: Send,
    F: Fn(usize, &mut [T], Option<&mut [T]>) + Sync,
{
    if row_width == 0 || !out.len().is_multiple_of(row_width) {
        return Err(crate::TensorError::InvalidParameter {
            message: format!(
                "shard_rows: buffer of {} elements is not rows × {row_width}",
                out.len()
            ),
        });
    }
    if let Some(ref a) = aux {
        if a.len() != out.len() {
            return Err(crate::TensorError::InvalidParameter {
                message: format!(
                    "shard_rows: aux buffer {} != out buffer {}",
                    a.len(),
                    out.len()
                ),
            });
        }
    }
    let rows = out.len() / row_width;
    let granule = granule.max(1);
    if threads <= 1 || rows <= granule {
        body(0, out, aux.as_deref_mut());
        return Ok(());
    }
    let rows_per_panel = rows.div_ceil(threads).div_ceil(granule) * granule;
    let chunk = rows_per_panel * row_width;
    let mut aux_panels = aux.map(|aux| aux.chunks_mut(chunk));
    let mut panels: Vec<_> = out
        .chunks_mut(chunk)
        .enumerate()
        .map(|(idx, panel)| {
            let aux_panel = aux_panels.as_mut().and_then(Iterator::next);
            (idx * rows_per_panel, panel, aux_panel)
        })
        .collect();
    // `rows > granule`, so there are at least two panels.
    let (first_row, panel, aux_panel) = panels.pop().expect("at least one panel");
    let body = &body;
    crossbeam::scope(|scope| {
        for (first_row, panel, aux_panel) in panels {
            scope.spawn(move |_| body(first_row, panel, aux_panel));
        }
        // The calling thread runs the last panel instead of only waiting.
        body(first_row, panel, aux_panel);
    })
    .expect("shard_rows worker thread panicked");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_path_covers_everything() {
        let mut out = vec![0usize; 12];
        shard_rows(&mut out, None, 3, 1, 1, |first_row, panel, _| {
            for (r, row) in panel.chunks_mut(3).enumerate() {
                row.fill(first_row + r);
            }
        })
        .unwrap();
        assert_eq!(out, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn threaded_path_matches_serial() {
        for threads in [2, 3, 4, 7] {
            let mut out = vec![0usize; 10 * 4];
            shard_rows(&mut out, None, 4, 1, threads, |first_row, panel, _| {
                for (r, row) in panel.chunks_mut(4).enumerate() {
                    for (c, v) in row.iter_mut().enumerate() {
                        *v = (first_row + r) * 100 + c;
                    }
                }
            })
            .unwrap();
            for r in 0..10 {
                for c in 0..4 {
                    assert_eq!(out[r * 4 + c], r * 100 + c, "threads={threads}");
                }
            }
        }
    }

    /// `t` panels cost `t − 1` spawns: the calling thread runs exactly one
    /// panel and every other panel runs on a thread of its own.
    #[test]
    fn caller_runs_one_panel_and_spawns_the_rest() {
        let caller = std::thread::current().id();
        // (rows, granule, threads, panels)
        for (rows, granule, threads, panels) in [
            (12, 1, 2, 2),
            (12, 1, 3, 3),
            (12, 1, 4, 4),
            (5, 2, 4, 3),
            (3, 2, 4, 2),
        ] {
            let ids = std::sync::Mutex::new(Vec::new());
            let mut out = vec![0usize; rows * 2];
            shard_rows(
                &mut out,
                None,
                2,
                granule,
                threads,
                |first_row, panel, _| {
                    ids.lock().unwrap().push(std::thread::current().id());
                    panel.fill(first_row + 1);
                },
            )
            .unwrap();
            assert!(out.iter().all(|&v| v != 0), "every row covered");
            let ids = ids.into_inner().unwrap();
            let case = format!("rows={rows} granule={granule} threads={threads}");
            assert_eq!(ids.len(), panels, "{case}: one body call per panel");
            assert_eq!(
                ids.iter().filter(|&&id| id == caller).count(),
                1,
                "{case}: the caller runs exactly one panel"
            );
            let spawned: std::collections::HashSet<_> =
                ids.iter().filter(|&&id| id != caller).collect();
            assert_eq!(
                spawned.len(),
                panels - 1,
                "{case}: one spawn per other panel"
            );
            assert!(
                spawned.len() < threads,
                "{case}: at most threads − 1 spawns"
            );
        }
    }

    #[test]
    fn granule_alignment_respected() {
        let mut out = vec![0usize; 20 * 2];
        let granule = 8;
        shard_rows(&mut out, None, 2, granule, 3, |first_row, panel, _| {
            assert_eq!(
                first_row % granule,
                0,
                "panel start must be granule-aligned"
            );
            panel.fill(first_row + 1);
        })
        .unwrap();
        assert!(out.iter().all(|&v| v != 0));
    }

    #[test]
    fn aux_buffer_sharded_identically() {
        let mut out = vec![0usize; 9 * 3];
        let mut aux = vec![0usize; 9 * 3];
        shard_rows(
            &mut out,
            Some(&mut aux),
            3,
            1,
            4,
            |first_row, panel, aux| {
                let aux = aux.expect("aux panel present");
                assert_eq!(panel.len(), aux.len());
                panel.fill(first_row);
                aux.fill(first_row + 1000);
            },
        )
        .unwrap();
        for (o, a) in out.iter().zip(&aux) {
            assert_eq!(o + 1000, *a);
        }
    }

    #[test]
    fn invalid_shapes_error() {
        let mut out = vec![0u8; 7];
        assert!(shard_rows(&mut out, None, 3, 1, 1, |_, _, _| {}).is_err());
        assert!(shard_rows(&mut out, None, 0, 1, 1, |_, _, _| {}).is_err());
        let mut out = vec![0u8; 6];
        let mut aux = vec![0u8; 3];
        assert!(shard_rows(&mut out, Some(&mut aux), 3, 1, 1, |_, _, _| {}).is_err());
    }

    #[test]
    fn worker_count_thresholds() {
        assert_eq!(worker_count(PARALLEL_THRESHOLD - 1, 64), 1);
        assert_eq!(worker_count(PARALLEL_THRESHOLD, 1), 1);
        assert!(worker_count(PARALLEL_THRESHOLD, 64) >= 1);
    }
}
