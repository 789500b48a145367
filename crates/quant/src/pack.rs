//! Panel packing for the blocked INT8 GEMM engine.
//!
//! The engine in [`crate::gemm`] computes `C[m, n] = Σ_p Â[i, p] · B̂[p, j]`
//! for all three kernel variants (`A·B`, `A·Bᵀ`, `Aᵀ·B`) by first repacking
//! both operands into contiguous `i16` panels.
//!
//! # Layout
//!
//! Depth is processed in **pairs** (`p2 = p / 2`) so the micro-kernel can
//! fold two multiply-adds into one `i16` lane operation (see
//! [`crate::gemm`]'s kernel notes). With `k2 = ⌈k / 2⌉`:
//!
//! - [`PackedA`] stores `Â` as strips of [`MR`] rows. Strip `s` is laid out
//!   `[k2][2][MR]`: element `(i, p)` lives at
//!   `s·k2·2·MR + (p/2)·2·MR + (p%2)·MR + (i − s·MR)`.
//! - [`PackedB`] stores `B̂` as strips of `nr` columns, laid out
//!   `[k2][2][nr]` the same way. One micro-kernel step therefore reads two
//!   adjacent full rows of a strip (`p` even, then `p` odd) as contiguous
//!   `i16` runs — ideal for vector loads. The strip width `nr` is a property
//!   of the packed operand ([`PackedB::strip_width`]), chosen from `n` so
//!   narrow outputs (a 16-channel conv, a 10-class head) do not pay for a
//!   [`NR`]-wide tile of zero padding.
//!
//! Rows/columns beyond the matrix edge — and the odd-`k` tail pair — are
//! zero-padded; zeros contribute nothing to an integer accumulator, which
//! keeps the blocked result bit-identical to the naive kernels.
//!
//! Both packers widen the INT8 codes to `i16` **at pack time**, so the
//! micro-kernel never widens in its innermost loop, and they record whether
//! any code equals `i8::MIN` (−128): the fast pairwise kernel's `i16` pair
//! sums can overflow only when **both** operands carry `−128` (the
//! symmetric quantizer never emits it), in which case the engine falls back
//! to a plain `i32` kernel (see [`PackedA::has_i8_min`]).
//!
//! Transposed variants are handled entirely here: packing `A` from a
//! `[k, m]` buffer (for `Aᵀ·B`) or `B̂` from an `[n, k]` buffer (for `A·Bᵀ`)
//! only changes the gather indices, after which the engine runs one single
//! micro-kernel for every variant.

use ff_tensor::par::{shard_rows, worker_count};

/// Rows per A micro-panel (micro-kernel tile height).
pub const MR: usize = 2;

/// Widest B micro-panel (micro-kernel tile width); every `n ≥ 256` uses it.
pub const NR: usize = 64;

/// Columns per B micro-panel for an `n`-column operand; see
/// [`PackedB::strip_width`].
fn strip_width_for(n: usize) -> usize {
    if n <= 48 {
        return n.div_ceil(16).max(1) * 16;
    }
    if n < NC && n.div_ceil(48) * 48 < n.div_ceil(NR) * NR {
        48
    } else {
        NR
    }
}

/// Row-block size: rows of `C` accumulated per `i32` staging buffer pass.
pub const MC: usize = 64;

/// Depth-block size: `k` values processed per micro-kernel invocation
/// (always even, so it contains whole pairs).
pub const KC: usize = 256;

/// Column-block size: at most this many columns of `C` (and of the packed
/// `B` panel) per outermost block — the largest whole number of strips that
/// fits, so 240 for 48-wide strips.
pub const NC: usize = 256;

/// Depths packed per pass over a strip's source rows by the transposed `B`
/// packer (even, so blocks hold whole pairs): `128 × NR` `i16`s are 16 KiB
/// of destination.
const TRANSPOSE_DEPTH_BLOCK: usize = 128;

/// How a packed operand's source buffer is laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackSource {
    /// The logical matrix equals the stored row-major matrix.
    RowMajor,
    /// The logical matrix is the transpose of the stored row-major matrix.
    Transposed,
}

/// Scans codes for `i8::MIN` separately from the copy loops so the packing
/// copies stay side-effect-free and auto-vectorize. The fold is branch-free
/// on purpose: an early-exit `any` compiles to a scalar loop, while this
/// min-reduction vectorizes.
fn contains_i8_min(codes: &[i8]) -> bool {
    codes.iter().fold(0i8, |lowest, &v| lowest.min(v)) == i8::MIN
}

/// `Â` widened to `i16` and repacked into [`MR`]-row, depth-paired strips.
#[derive(Debug, Clone)]
pub struct PackedA {
    /// Logical row count of `Â` (`m`).
    pub m: usize,
    /// Logical depth (`k`).
    pub k: usize,
    /// Padded pair count, `⌈k / 2⌉`.
    pub k2: usize,
    data: Vec<i16>,
    has_i8_min: bool,
}

impl PackedA {
    /// Packs the logical `m × k` matrix `Â`.
    ///
    /// With [`PackSource::RowMajor`], `codes` is `Â` stored `[m, k]`; with
    /// [`PackSource::Transposed`], `codes` is stored `[k, m]` and is packed
    /// as its transpose (the `Aᵀ·B` variant) without materialising it.
    pub fn pack(codes: &[i8], m: usize, k: usize, source: PackSource) -> Self {
        debug_assert_eq!(codes.len(), m * k);
        let strips = m.div_ceil(MR);
        let k2 = k.div_ceil(2);
        let mut data = vec![0i16; strips * k2 * 2 * MR];
        let has_i8_min = contains_i8_min(codes);
        match source {
            PackSource::RowMajor => {
                // Interleave whole MR-row groups pair-by-pair with forward
                // destination writes so the copy vectorizes as a shuffle.
                for s in 0..strips {
                    let rows = MR.min(m - s * MR);
                    let dst = &mut data[s * k2 * 2 * MR..(s + 1) * k2 * 2 * MR];
                    for ir in 0..rows {
                        let src_row = &codes[(s * MR + ir) * k..(s * MR + ir + 1) * k];
                        let mut chunks = src_row.chunks_exact(2);
                        for (p2, pair) in chunks.by_ref().enumerate() {
                            dst[p2 * 2 * MR + ir] = pair[0] as i16;
                            dst[p2 * 2 * MR + MR + ir] = pair[1] as i16;
                        }
                        if let [tail] = *chunks.remainder() {
                            dst[(k / 2) * 2 * MR + ir] = tail as i16;
                        }
                    }
                }
            }
            PackSource::Transposed => {
                // Depth outermost: each `[k, m]` source row is read once,
                // front to back, and feeds every strip — one forward write
                // stream per strip — instead of the source being re-walked
                // with stride `m` once per strip (`k` is 32 768 for a conv
                // weight gradient).
                let strip_len = k2 * 2 * MR;
                for (p, src_row) in codes.chunks_exact(m.max(1)).enumerate() {
                    let pair_base = (p / 2) * 2 * MR + (p % 2) * MR;
                    for (s, src) in src_row.chunks(MR).enumerate() {
                        let dst = &mut data[s * strip_len + pair_base..][..src.len()];
                        for (d, &v) in dst.iter_mut().zip(src) {
                            *d = v as i16;
                        }
                    }
                }
            }
        }
        PackedA {
            m,
            k,
            k2,
            data,
            has_i8_min,
        }
    }

    /// `true` when any packed code was `i8::MIN` (−128), which rules out the
    /// pairwise `i16` micro-kernel.
    pub fn has_i8_min(&self) -> bool {
        self.has_i8_min
    }

    /// The `kc2 × 2 × MR` slab of strip `s` covering depth pairs
    /// `[pc2, pc2 + kc2)`.
    #[inline]
    pub fn strip_at(&self, s: usize, pc2: usize, kc2: usize) -> &[i16] {
        let base = s * self.k2 * 2 * MR + pc2 * 2 * MR;
        &self.data[base..base + kc2 * 2 * MR]
    }

    /// Bytes held by the packed panels (padded `i16` storage).
    pub fn byte_size(&self) -> usize {
        self.data.len() * std::mem::size_of::<i16>()
    }
}

/// `B̂` widened to `i16` and repacked into depth-paired strips of
/// [`PackedB::strip_width`] columns.
#[derive(Debug, Clone)]
pub struct PackedB {
    /// Logical depth (`k`).
    pub k: usize,
    /// Logical column count of `B̂` (`n`).
    pub n: usize,
    /// Padded pair count, `⌈k / 2⌉`.
    pub k2: usize,
    /// Columns per strip, `strip_width_for(n)`.
    nr: usize,
    data: Vec<i16>,
    has_i8_min: bool,
}

impl PackedB {
    /// Packs the logical `k × n` matrix `B̂`.
    ///
    /// With [`PackSource::RowMajor`], `codes` is `B̂` stored `[k, n]`; with
    /// [`PackSource::Transposed`], `codes` is stored `[n, k]` and is packed
    /// as its transpose (the `A·Bᵀ` variant) without materialising it.
    pub fn pack(codes: &[i8], k: usize, n: usize, source: PackSource) -> Self {
        debug_assert_eq!(codes.len(), k * n);
        let nr = strip_width_for(n);
        let strips = n.div_ceil(nr);
        let k2 = k.div_ceil(2);
        let mut data = vec![0i16; strips * k2 * 2 * nr];
        let has_i8_min = contains_i8_min(codes);
        match source {
            PackSource::RowMajor => {
                for t in 0..strips {
                    let base = t * k2 * 2 * nr;
                    let cols = nr.min(n - t * nr);
                    for p in 0..k {
                        let src = &codes[p * n + t * nr..p * n + t * nr + cols];
                        let dst = &mut data[base + (p / 2) * 2 * nr + (p % 2) * nr..][..cols];
                        for (d, &v) in dst.iter_mut().zip(src) {
                            *d = v as i16;
                        }
                    }
                }
            }
            PackSource::Transposed => {
                // Strips are disjoint destination ranges, so they shard across
                // workers like GEMM row panels. Within a strip the depth is
                // walked in blocks: a source row scatters with a stride of
                // one strip-wide row per element, and a block of
                // `TRANSPOSE_DEPTH_BLOCK` depths keeps the destination span
                // L1-resident while all the strip's source rows fill it.
                // (`max(1)`: with `k == 0` there is nothing to pack and no
                // strip length to shard by.)
                let strip_len = (k2 * 2 * nr).max(1);
                let threads = worker_count(k * n, strips);
                shard_rows(&mut data, None, strip_len, 1, threads, |first, panel, _| {
                    for (t, dst) in panel.chunks_mut(strip_len).enumerate() {
                        let first_col = (first + t) * nr;
                        let cols = nr.min(n - first_col);
                        for p0 in (0..k).step_by(TRANSPOSE_DEPTH_BLOCK) {
                            let p1 = (p0 + TRANSPOSE_DEPTH_BLOCK).min(k);
                            for jr in 0..cols {
                                let src_row = &codes[(first_col + jr) * k..][p0..p1];
                                for (p, &v) in (p0..p1).zip(src_row) {
                                    dst[(p / 2) * 2 * nr + (p % 2) * nr + jr] = v as i16;
                                }
                            }
                        }
                    }
                })
                .expect("packed B storage is whole strips");
            }
        }
        PackedB {
            k,
            n,
            k2,
            nr,
            data,
            has_i8_min,
        }
    }

    /// Columns per strip — the micro-kernel tile width this operand was
    /// packed for: one of 16, 32, 48 or [`NR`], chosen from `n`.
    ///
    /// Up to 48 columns one strip of the next multiple of 16 holds the whole
    /// operand. From there to [`NC`] the choice is 48 or 64, whichever pads
    /// `n` less (144 im2col columns are three exact 48-strips but would fill
    /// three 64-strips to 192); ties and everything wider take [`NR`], whose
    /// tile amortises the most `A` loads per multiply.
    pub fn strip_width(&self) -> usize {
        self.nr
    }

    /// `true` when any packed code was `i8::MIN` (−128), which rules out the
    /// pairwise `i16` micro-kernel.
    pub fn has_i8_min(&self) -> bool {
        self.has_i8_min
    }

    /// The `kc2 × 2 × strip_width` slab of strip `t` covering depth pairs
    /// `[pc2, pc2 + kc2)`.
    #[inline]
    pub fn strip_at(&self, t: usize, pc2: usize, kc2: usize) -> &[i16] {
        let base = (t * self.k2 + pc2) * 2 * self.nr;
        &self.data[base..base + kc2 * 2 * self.nr]
    }

    /// Bytes held by the packed panels (padded `i16` storage).
    pub fn byte_size(&self) -> usize {
        self.data.len() * std::mem::size_of::<i16>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_codes(len: usize) -> Vec<i8> {
        (0..len)
            .map(|i| (((i * 37 + 11) % 255) as i8).max(-127))
            .collect()
    }

    fn a_elem(packed: &PackedA, i: usize, p: usize) -> i16 {
        let slab = packed.strip_at(i / MR, p / 2, 1);
        slab[(p % 2) * MR + i % MR]
    }

    fn b_elem(packed: &PackedB, p: usize, j: usize) -> i16 {
        let nr = packed.strip_width();
        let slab = packed.strip_at(j / nr, p / 2, 1);
        slab[(p % 2) * nr + j % nr]
    }

    #[test]
    fn packed_a_row_major_roundtrip() {
        let (m, k) = (11, 5); // non-multiples of MR and of the pair size
        let codes = sample_codes(m * k);
        let packed = PackedA::pack(&codes, m, k, PackSource::RowMajor);
        for i in 0..m {
            for p in 0..k {
                assert_eq!(a_elem(&packed, i, p), codes[i * k + p] as i16, "({i}, {p})");
            }
        }
        // Padding rows and the odd-k tail half-pair are zero.
        let last = packed.strip_at(m / MR, 0, packed.k2);
        for p in 0..k {
            for ir in (m % MR)..MR {
                assert_eq!(last[(p / 2) * 2 * MR + (p % 2) * MR + ir], 0);
            }
        }
        if k % 2 == 1 {
            for i in 0..m {
                assert_eq!(
                    a_elem(&packed, i, k),
                    0,
                    "odd-k tail half-pair must be zero"
                );
            }
        }
    }

    #[test]
    fn packed_a_transposed_matches_row_major_of_transpose() {
        // One strip, a ragged last strip, whole strips, and a dense-layer
        // width; odd depths leave a half-filled tail pair.
        for (m, k) in [(1, 7), (2, 1), (3, 5), (9, 7), (16, 33), (2001, 3), (4, 0)] {
            // `stored` is [k, m]; logical A is its transpose [m, k].
            let stored = sample_codes(k * m);
            let mut logical = vec![0i8; m * k];
            for p in 0..k {
                for i in 0..m {
                    logical[i * k + p] = stored[p * m + i];
                }
            }
            let via_transpose = PackedA::pack(&stored, m, k, PackSource::Transposed);
            let via_row_major = PackedA::pack(&logical, m, k, PackSource::RowMajor);
            assert!(via_transpose.data == via_row_major.data, "m={m} k={k}");
        }
    }

    #[test]
    fn strip_width_follows_the_operand() {
        for (n, width) in [
            (0, 16),
            (1, 16),
            (10, 16),
            (16, 16),
            (17, 32),
            (27, 32),
            (33, 48),
            (48, 48),
            (49, 64),
            (64, 64),
            (96, 48),
            (100, 64),
            (144, 48),
            (255, 64),
            (256, 64),
            (2000, 64),
        ] {
            assert_eq!(strip_width_for(n), width, "n={n}");
            let packed = PackedB::pack(&sample_codes(3 * n), 3, n, PackSource::RowMajor);
            assert_eq!(packed.strip_width(), width, "n={n}");
            // Padded storage is whole strips of that width and no more of
            // them than `n` needs.
            assert_eq!(packed.byte_size(), n.div_ceil(width) * 2 * 2 * width * 2);
        }
    }

    #[test]
    fn packed_b_row_major_roundtrip() {
        let (k, n) = (7, 70); // non-multiples of the pair size and of NR
        let codes = sample_codes(k * n);
        let packed = PackedB::pack(&codes, k, n, PackSource::RowMajor);
        for p in 0..k {
            for j in 0..n {
                assert_eq!(b_elem(&packed, p, j), codes[p * n + j] as i16, "({p}, {j})");
            }
        }
    }

    #[test]
    fn packed_b_transposed_matches_row_major_of_transpose() {
        // Depths below, at, just above and well above the transposed
        // packer's depth block, with a ragged last strip; the last shape is
        // large enough to shard strips across worker threads.
        for (k, n) in [
            (5, 66),
            (TRANSPOSE_DEPTH_BLOCK - 1, 70),
            (TRANSPOSE_DEPTH_BLOCK, 64),
            (TRANSPOSE_DEPTH_BLOCK + 1, 130),
            (3 * TRANSPOSE_DEPTH_BLOCK + 7, 65),
            (2100, 520),
            (0, 3),
        ] {
            // `stored` is [n, k]; logical B̂ is its transpose [k, n].
            let stored = sample_codes(n * k);
            let mut logical = vec![0i8; k * n];
            for j in 0..n {
                for p in 0..k {
                    logical[p * n + j] = stored[j * k + p];
                }
            }
            let via_transpose = PackedB::pack(&stored, k, n, PackSource::Transposed);
            let via_row_major = PackedB::pack(&logical, k, n, PackSource::RowMajor);
            assert!(via_transpose.data == via_row_major.data, "k={k} n={n}");
        }
    }

    #[test]
    fn strip_at_pair_offsets_are_contiguous() {
        let (k, n) = (64, NR);
        let codes = sample_codes(k * n);
        let packed = PackedB::pack(&codes, k, n, PackSource::RowMajor);
        let full = packed.strip_at(0, 0, packed.k2);
        let tail = packed.strip_at(0, 8, packed.k2 - 8);
        assert_eq!(&full[8 * 2 * NR..], tail);
    }

    #[test]
    fn i8_min_detection() {
        let mut codes = sample_codes(4 * 4);
        assert!(!PackedA::pack(&codes, 4, 4, PackSource::RowMajor).has_i8_min());
        assert!(!PackedB::pack(&codes, 4, 4, PackSource::RowMajor).has_i8_min());
        codes[7] = i8::MIN;
        assert!(PackedA::pack(&codes, 4, 4, PackSource::RowMajor).has_i8_min());
        assert!(PackedB::pack(&codes, 4, 4, PackSource::Transposed).has_i8_min());
    }
}
