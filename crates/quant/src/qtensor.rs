//! The [`QuantTensor`] container: INT8 codes plus a per-tensor scale, and
//! the per-row variant [`RowQuantTensor`] used by batching-invariant
//! inference.

use crate::suq::{
    compute_scale, quantize_nearest_into, quantize_stochastic_into, QuantConfig, Rounding, QMAX,
    QMIN,
};
use crate::Result;
use ff_tensor::par::{shard_rows, worker_count};
use ff_tensor::{Tensor, TensorError};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// An INT8-quantized tensor with symmetric per-tensor scale.
///
/// `real_value ≈ code · scale`. Shapes follow the same row-major conventions
/// as [`ff_tensor::Tensor`].
///
/// # Examples
///
/// ```
/// use ff_quant::{QuantTensor, Rounding};
/// use ff_tensor::Tensor;
///
/// # fn main() -> Result<(), ff_tensor::TensorError> {
/// let w = Tensor::from_vec(&[2, 2], vec![0.1, -0.2, 0.3, -0.4])?;
/// let q = QuantTensor::quantize(&w, Rounding::Nearest);
/// assert_eq!(q.shape(), &[2, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantTensor {
    shape: Vec<usize>,
    codes: Vec<i8>,
    scale: f32,
}

impl QuantTensor {
    /// Quantizes a real tensor with the per-tensor max-abs scale.
    ///
    /// Plain [`Rounding::Stochastic`] uses the thread-local RNG; for
    /// reproducible experiments prefer [`QuantTensor::quantize_with_rng`] or
    /// a [`Rounding::StochasticSeeded`] mode (which is deterministic through
    /// any entry point).
    pub fn quantize(tensor: &Tensor, rounding: Rounding) -> Self {
        Self::quantize_seeded(tensor, rounding, 0)
    }

    /// Quantizes with the RNG the rounding mode itself dictates.
    ///
    /// [`Rounding::StochasticSeeded`] builds a [`rand::rngs::StdRng`] from
    /// the carried seed mixed with `site_salt`, so the result is a pure
    /// function of `(tensor, rounding, site_salt)` — the property that makes
    /// INT8 training checkpoints resumable bit-exactly. Distinct call sites
    /// (e.g. a layer's forward input vs. its backward gradient) pass
    /// distinct salts so their rounding streams are decorrelated.
    /// [`Rounding::Nearest`] ignores the salt entirely, and plain
    /// [`Rounding::Stochastic`] keeps its historical thread-local draws.
    pub fn quantize_seeded(tensor: &Tensor, rounding: Rounding, site_salt: u64) -> Self {
        let stochastic = QuantConfig::new(Rounding::Stochastic);
        match rounding.derive(site_salt) {
            Rounding::Nearest => Self::quantize_nearest(tensor, None),
            Rounding::StochasticSeeded(seed) => {
                use rand::SeedableRng;
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                Self::quantize_with_rng(tensor, stochastic, &mut rng)
            }
            Rounding::Stochastic => {
                Self::quantize_with_rng(tensor, stochastic, &mut rand::thread_rng())
            }
        }
    }

    /// Quantizes with an explicit configuration (rounding mode and optional
    /// clipping threshold) and RNG. [`Rounding::Nearest`] never draws from
    /// `rng`.
    pub fn quantize_with_rng<R: Rng + ?Sized>(
        tensor: &Tensor,
        config: QuantConfig,
        rng: &mut R,
    ) -> Self {
        if config.rounding == Rounding::Nearest {
            return Self::quantize_nearest(tensor, config.clip);
        }
        let clip = config.clip.unwrap_or_else(|| tensor.max_abs());
        let scale = compute_scale(clip);
        // The draws are one sequential stream, so this path stays on the
        // calling thread; only the rounding arithmetic runs in lanes.
        let mut codes = vec![0i8; tensor.len()];
        quantize_stochastic_into(tensor.data(), clip, scale, rng, &mut codes);
        QuantTensor {
            shape: tensor.shape().to_vec(),
            codes,
            scale,
        }
    }

    /// Deterministic nearest rounding in one pass over the tensor: no
    /// clipped copy, no RNG, element ranges sharded across worker threads
    /// (each code depends on its own element only, so the split cannot
    /// change a code).
    fn quantize_nearest(tensor: &Tensor, clip: Option<f32>) -> Self {
        let clip = clip.unwrap_or_else(|| tensor.max_abs());
        let scale = compute_scale(clip);
        let values = tensor.data();
        let mut codes = vec![0i8; values.len()];
        let threads = worker_count(values.len(), values.len());
        shard_rows(&mut codes, None, 1, 1, threads, |first, panel, _| {
            quantize_nearest_into(&values[first..first + panel.len()], clip, scale, panel);
        })
        .expect("a unit row width divides every length");
        QuantTensor {
            shape: tensor.shape().to_vec(),
            codes,
            scale,
        }
    }

    /// Builds a quantized tensor directly from codes and a scale.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ElementCountMismatch`] when `codes.len()` does
    /// not match the shape.
    pub fn from_codes(shape: &[usize], codes: Vec<i8>, scale: f32) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if codes.len() != expected {
            return Err(TensorError::ElementCountMismatch {
                shape: shape.to_vec(),
                provided: codes.len(),
            });
        }
        Ok(QuantTensor {
            shape: shape.to_vec(),
            codes,
            scale,
        })
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The INT8 codes.
    pub fn codes(&self) -> &[i8] {
        &self.codes
    }

    /// The symmetric per-tensor scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Memory footprint of the codes in bytes (one byte per element).
    pub fn byte_size(&self) -> usize {
        self.codes.len()
    }

    /// Reconstructs the real-valued tensor `codes · scale`.
    pub fn dequantize(&self) -> Tensor {
        let data: Vec<f32> = self.codes.iter().map(|&c| c as f32 * self.scale).collect();
        Tensor::from_vec(&self.shape, data).expect("dequantize preserves element count")
    }

    /// Mean squared error introduced by quantizing `original` into `self`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn quantization_mse(&self, original: &Tensor) -> Result<f32> {
        if original.shape() != self.shape.as_slice() {
            return Err(TensorError::ShapeMismatch {
                left: original.shape().to_vec(),
                right: self.shape.clone(),
                op: "quantization_mse",
            });
        }
        let deq = self.dequantize();
        let mse = original
            .data()
            .iter()
            .zip(deq.data())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            / original.len().max(1) as f32;
        Ok(mse)
    }

    /// Fraction of elements whose code underflowed to zero even though the
    /// original value was non-zero.
    ///
    /// This is the quantity that explains why sharp gradient distributions
    /// (paper Fig. 3) break naive INT8 backpropagation: most small gradients
    /// collapse to exactly zero.
    pub fn underflow_fraction(&self, original: &Tensor) -> f32 {
        let mut zeroed = 0usize;
        let mut nonzero = 0usize;
        for (&code, &orig) in self.codes.iter().zip(original.data()) {
            if orig != 0.0 {
                nonzero += 1;
                if code == 0 {
                    zeroed += 1;
                }
            }
        }
        if nonzero == 0 {
            0.0
        } else {
            zeroed as f32 / nonzero as f32
        }
    }
}

/// A rank-2 tensor quantized to INT8 with one symmetric scale **per row**.
///
/// The per-tensor [`QuantTensor`] couples every sample in a batch through a
/// single shared scale, so the quantized codes of one row depend on which
/// other rows happen to share the batch. Per-row quantization removes that
/// coupling: row `i`'s codes and scale are a pure function of row `i` alone,
/// which is what makes micro-batched inference (`ff-serve`) **bit-exact**
/// regardless of how concurrent requests are coalesced into batches.
///
/// Rounding is always deterministic nearest (the mode the paper uses for
/// activations), so quantization itself is reproducible.
///
/// # Examples
///
/// ```
/// use ff_quant::RowQuantTensor;
/// use ff_tensor::Tensor;
///
/// # fn main() -> Result<(), ff_tensor::TensorError> {
/// let x = Tensor::from_vec(&[2, 3], vec![1.0, -0.5, 0.25, 100.0, 50.0, -25.0])?;
/// let q = RowQuantTensor::quantize(&x)?;
/// // Each row uses its own max-abs scale, so the small first row is not
/// // crushed by the large second row.
/// assert!(q.scales()[0] < q.scales()[1]);
/// assert_eq!(q.codes()[0], 127); // row max quantizes to QMAX
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RowQuantTensor {
    rows: usize,
    cols: usize,
    codes: Vec<i8>,
    scales: Vec<f32>,
}

impl RowQuantTensor {
    /// Quantizes a rank-2 tensor row by row with nearest rounding and one
    /// max-abs symmetric scale per row.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] when `tensor` is not rank 2.
    pub fn quantize(tensor: &Tensor) -> Result<Self> {
        if tensor.ndim() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: tensor.ndim(),
                op: "RowQuantTensor",
            });
        }
        let rows = tensor.shape()[0];
        let cols = tensor.shape()[1];
        let mut codes = Vec::with_capacity(rows * cols);
        let mut scales = Vec::with_capacity(rows);
        for i in 0..rows {
            let row = tensor.row(i);
            let max_abs = row.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let scale = compute_scale(max_abs);
            codes.extend(row.iter().map(|&v| {
                // Same arithmetic as `quantize_value` with `Rounding::Nearest`,
                // inlined so no RNG has to be threaded through.
                (v / scale).round().clamp(QMIN as f32, QMAX as f32) as i8
            }));
            scales.push(scale);
        }
        Ok(RowQuantTensor {
            rows,
            cols,
            codes,
            scales,
        })
    }

    /// Number of rows (samples).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (features).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The row-major INT8 codes.
    pub fn codes(&self) -> &[i8] {
        &self.codes
    }

    /// One symmetric scale per row.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Reconstructs the real-valued tensor `codes[i, j] · scales[i]`.
    pub fn dequantize(&self) -> Tensor {
        let data: Vec<f32> = self
            .codes
            .chunks(self.cols.max(1))
            .zip(&self.scales)
            .flat_map(|(row, &s)| row.iter().map(move |&c| c as f32 * s))
            .collect();
        Tensor::from_vec(&[self.rows, self.cols], data).expect("dequantize preserves element count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suq::{quantize_value, STOCHASTIC_BLOCK};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn roundtrip_error_bounded_by_half_scale() {
        let t = Tensor::from_vec(&[2, 3], vec![0.9, -0.5, 0.1, -0.01, 0.77, -0.33]).unwrap();
        let q = QuantTensor::quantize_with_rng(&t, QuantConfig::default(), &mut rng());
        let back = q.dequantize();
        for (a, b) in t.data().iter().zip(back.data()) {
            assert!((a - b).abs() <= q.scale() / 2.0 + 1e-6);
        }
    }

    #[test]
    fn from_codes_validates_length() {
        assert!(QuantTensor::from_codes(&[2, 2], vec![1, 2, 3], 0.1).is_err());
        let q = QuantTensor::from_codes(&[2, 2], vec![1, 2, 3, 4], 0.5).unwrap();
        assert_eq!(q.dequantize().data(), &[0.5, 1.0, 1.5, 2.0]);
        assert_eq!(q.byte_size(), 4);
        assert!(!q.is_empty());
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn clipping_limits_scale() {
        let t = Tensor::from_vec(&[4], vec![100.0, 0.1, -0.2, 0.05]).unwrap();
        let unclipped = QuantTensor::quantize_with_rng(&t, QuantConfig::default(), &mut rng());
        let clipped = QuantTensor::quantize_with_rng(
            &t,
            QuantConfig::default().with_clip(Some(0.5)),
            &mut rng(),
        );
        assert!(clipped.scale() < unclipped.scale());
        // small values are preserved much better under clipping
        let small_err_clipped = (clipped.dequantize().data()[1] - 0.1).abs();
        let small_err_unclipped = (unclipped.dequantize().data()[1] - 0.1).abs();
        assert!(small_err_clipped < small_err_unclipped);
    }

    #[test]
    fn underflow_fraction_detects_collapsed_gradients() {
        // One huge outlier forces a large scale; everything else quantizes to 0.
        let mut data = vec![1e-4f32; 99];
        data.push(10.0);
        let t = Tensor::from_vec(&[100], data).unwrap();
        let q = QuantTensor::quantize_with_rng(&t, QuantConfig::default(), &mut rng());
        assert!(q.underflow_fraction(&t) > 0.9);
    }

    #[test]
    fn quantization_mse_checks_shape() {
        let t = Tensor::ones(&[2, 2]);
        let q = QuantTensor::quantize_with_rng(&t, QuantConfig::default(), &mut rng());
        assert!(q.quantization_mse(&Tensor::ones(&[4])).is_err());
        assert!(q.quantization_mse(&t).unwrap() < 1e-4);
    }

    /// Exact ties in both directions, the ±clip edges, the largest value
    /// below one half (where `x + 0.5` would round the wrong way), exact
    /// grid points, signed zeros, subnormals and non-finite values, followed
    /// by `filler` in-range values off the grid.
    fn adversarial_values(filler: usize) -> Vec<f32> {
        let scale = compute_scale(1.0);
        let mut data = vec![
            0.0,
            -0.0,
            0.5 * scale,
            -0.5 * scale,
            1.5 * scale,
            -1.5 * scale,
            2.5 * scale,
            126.5 * scale,
            -126.5 * scale,
            3.0 * scale,
            -126.0 * scale,
            0.499_999_97 * scale,
            -0.499_999_97 * scale,
            0.499_999_97,
            1.0,
            -1.0,
            1.000_000_1,
            -1.000_000_1,
            7.0,
            -7.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::MIN_POSITIVE / 4.0,
            1e-45,
            -1e-45,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        data.extend((0..filler).map(|i| ((i * 2_654_435_761) % 4001) as f32 / 2000.0 - 1.0));
        data
    }

    #[test]
    fn nearest_fast_path_matches_quantize_value_on_adversarial_values() {
        // Enough filler to cross the multi-thread sharding threshold.
        let data = adversarial_values((1usize << 20) + 77);
        let t = Tensor::from_vec(&[data.len()], data).unwrap();
        for clip in [Some(1.0f32), Some(0.3), None] {
            let config = QuantConfig::new(Rounding::Nearest).with_clip(clip);
            let q = QuantTensor::quantize_with_rng(&t, config, &mut rng());
            let clip = clip.unwrap_or_else(|| t.max_abs());
            assert_eq!(q.scale().to_bits(), compute_scale(clip).to_bits());
            for (i, (&code, &v)) in q.codes().iter().zip(t.data()).enumerate() {
                let expected = quantize_value(
                    v.clamp(-clip, clip),
                    q.scale(),
                    Rounding::Nearest,
                    &mut rng(),
                );
                assert_eq!(code, expected, "element {i} = {v:e}, clip {clip}");
            }
        }
        // The seeded entry point takes the same path and never needs an RNG.
        let finite = Tensor::from_vec(&[4], vec![0.5, -0.25, 0.125, 1.0]).unwrap();
        assert_eq!(
            QuantTensor::quantize_seeded(&finite, Rounding::Nearest, 3),
            QuantTensor::quantize_with_rng(&finite, QuantConfig::default(), &mut rng())
        );
    }

    #[test]
    fn block_stochastic_matches_per_element_quantize_value_and_rng_state() {
        let adversarial = adversarial_values(3 * STOCHASTIC_BLOCK + 77);
        for len in [
            0,
            1,
            STOCHASTIC_BLOCK - 1,
            STOCHASTIC_BLOCK,
            STOCHASTIC_BLOCK + 1,
            adversarial.len(),
        ] {
            let mut data = adversarial[..len].to_vec();
            if len > 2 * STOCHASTIC_BLOCK {
                // The adversarial head straddles the first block boundary.
                data.rotate_right(STOCHASTIC_BLOCK - 10);
            }
            let t = Tensor::from_vec(&[len], data).unwrap();
            for clip in [None, Some(1.0f32), Some(0.3), Some(0.0)] {
                for rounding in [Rounding::Stochastic, Rounding::StochasticSeeded(5)] {
                    let config = QuantConfig::new(rounding).with_clip(clip);
                    let (mut block_rng, mut scalar_rng) = (rng(), rng());
                    let q = QuantTensor::quantize_with_rng(&t, config, &mut block_rng);
                    let clip = clip.unwrap_or_else(|| t.max_abs());
                    assert_eq!(q.scale().to_bits(), compute_scale(clip).to_bits());
                    assert_eq!(q.shape(), &[len]);
                    for (i, (&code, &v)) in q.codes().iter().zip(t.data()).enumerate() {
                        let expected = quantize_value(
                            v.clamp(-clip, clip),
                            q.scale(),
                            rounding,
                            &mut scalar_rng,
                        );
                        assert_eq!(code, expected, "len {len} element {i} = {v:e}, clip {clip}");
                    }
                    assert_eq!(
                        block_rng.gen::<u64>(),
                        scalar_rng.gen::<u64>(),
                        "len {len}: one draw per element, so the next draw is equal"
                    );
                }
            }
        }
    }

    #[test]
    fn thread_rng_constructor_works() {
        let t = Tensor::from_vec(&[3], vec![0.5, -0.5, 0.25]).unwrap();
        let q = QuantTensor::quantize(&t, Rounding::Stochastic);
        assert_eq!(q.shape(), &[3]);
    }

    #[test]
    fn seeded_stochastic_rounding_is_deterministic() {
        // Values sitting between grid points, so rounding direction is
        // genuinely random.
        let t = Tensor::from_vec(&[64], (0..64).map(|i| 0.013 * i as f32).collect()).unwrap();
        let mode = Rounding::StochasticSeeded(42);
        let a = QuantTensor::quantize_seeded(&t, mode, 1);
        let b = QuantTensor::quantize_seeded(&t, mode, 1);
        assert_eq!(a.codes(), b.codes(), "same seed + salt → same codes");
        // A different site salt (or seed) produces a different stream.
        let c = QuantTensor::quantize_seeded(&t, mode, 2);
        let d = QuantTensor::quantize_seeded(&t, Rounding::StochasticSeeded(43), 1);
        assert!(a.codes() != c.codes() || a.codes() != d.codes());
        // Still a valid stochastic rounding: codes stay on adjacent grid
        // points of the nearest quantization.
        let nearest = QuantTensor::quantize_seeded(&t, Rounding::Nearest, 0);
        for (s, n) in a.codes().iter().zip(nearest.codes()) {
            assert!((*s as i16 - *n as i16).abs() <= 1);
        }
    }

    #[test]
    fn rounding_derive_mixes_seed_and_salt() {
        let base = Rounding::StochasticSeeded(7);
        assert_ne!(base.derive(0), base.derive(1));
        assert_eq!(base.derive(3), base.derive(3));
        assert_eq!(Rounding::Nearest.derive(9), Rounding::Nearest);
        assert_eq!(Rounding::Stochastic.derive(9), Rounding::Stochastic);
        assert!(base.is_stochastic());
        assert!(Rounding::Stochastic.is_stochastic());
        assert!(!Rounding::Nearest.is_stochastic());
    }

    #[test]
    fn row_quant_rejects_non_rank2() {
        assert!(RowQuantTensor::quantize(&Tensor::ones(&[4])).is_err());
        assert!(RowQuantTensor::quantize(&Tensor::ones(&[2, 2, 2])).is_err());
    }

    #[test]
    fn row_quant_is_independent_per_row() {
        // A row's codes must not change when it is batched with other rows —
        // the property micro-batched serving relies on.
        let a = Tensor::from_vec(&[1, 4], vec![0.1, -0.05, 0.02, 0.08]).unwrap();
        let b = Tensor::from_vec(&[1, 4], vec![50.0, -20.0, 10.0, 5.0]).unwrap();
        let stacked = a.concat_rows(&b).unwrap();
        let qa = RowQuantTensor::quantize(&a).unwrap();
        let qs = RowQuantTensor::quantize(&stacked).unwrap();
        assert_eq!(qa.codes(), &qs.codes()[..4]);
        assert_eq!(qa.scales()[0], qs.scales()[0]);
    }

    #[test]
    fn row_quant_roundtrip_error_bounded_per_row() {
        let t = Tensor::from_vec(&[2, 3], vec![0.9, -0.5, 0.1, 90.0, -50.0, 10.0]).unwrap();
        let q = RowQuantTensor::quantize(&t).unwrap();
        assert_eq!(q.rows(), 2);
        assert_eq!(q.cols(), 3);
        let back = q.dequantize();
        for i in 0..2 {
            for (a, b) in t.row(i).iter().zip(back.row(i)) {
                assert!((a - b).abs() <= q.scales()[i] / 2.0 + 1e-6);
            }
        }
    }

    #[test]
    fn row_quant_matches_per_tensor_path_on_single_row() {
        // For a single row the per-row and per-tensor quantizers see the same
        // max-abs, so their codes must agree bit-exactly.
        let t = Tensor::from_vec(&[1, 5], vec![0.3, -0.9, 0.45, 0.0, 0.9]).unwrap();
        let per_row = RowQuantTensor::quantize(&t).unwrap();
        let per_tensor = QuantTensor::quantize_with_rng(&t, QuantConfig::default(), &mut rng());
        assert_eq!(per_row.codes(), per_tensor.codes());
        assert_eq!(per_row.scales()[0], per_tensor.scale());
    }

    #[test]
    fn row_quant_zero_row_stays_zero() {
        let t = Tensor::zeros(&[2, 3]);
        let q = RowQuantTensor::quantize(&t).unwrap();
        assert!(q.codes().iter().all(|&c| c == 0));
        assert!(q.scales().iter().all(|&s| s > 0.0));
    }
}
