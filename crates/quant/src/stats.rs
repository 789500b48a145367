//! Gradient-distribution statistics (paper Section IV-A and Fig. 3).
//!
//! The FF-INT8 paper motivates layer-local training by showing that the
//! first-layer gradient distribution becomes sharper (heavier-tailed, more
//! mass near zero) as networks get deeper, which makes direct per-tensor INT8
//! quantization lossy. [`GradientHistogram`] and [`DistributionStats`]
//! reproduce those measurements.

use ff_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A fixed-width histogram over a tensor's values.
///
/// # Examples
///
/// ```
/// use ff_quant::stats::GradientHistogram;
/// use ff_tensor::Tensor;
///
/// let g = Tensor::from_slice(&[4], &[-1.0, -0.1, 0.1, 1.0]).unwrap();
/// let hist = GradientHistogram::from_tensor(&g, 4);
/// assert_eq!(hist.counts().iter().sum::<usize>(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GradientHistogram {
    lo: f32,
    hi: f32,
    counts: Vec<usize>,
}

impl GradientHistogram {
    /// Builds a histogram with `bins` equal-width bins spanning the tensor's
    /// symmetric range `[-max_abs, max_abs]`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`.
    pub fn from_tensor(tensor: &Tensor, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        let max_abs = tensor.max_abs().max(f32::MIN_POSITIVE);
        let lo = -max_abs;
        let hi = max_abs;
        let width = (hi - lo) / bins as f32;
        let mut counts = vec![0usize; bins];
        for &v in tensor.data() {
            let idx = (((v - lo) / width) as usize).min(bins - 1);
            counts[idx] += 1;
        }
        GradientHistogram { lo, hi, counts }
    }

    /// Lower edge of the histogram range.
    pub fn lo(&self) -> f32 {
        self.lo
    }

    /// Upper edge of the histogram range.
    pub fn hi(&self) -> f32 {
        self.hi
    }

    /// Per-bin element counts.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Fraction of all elements that fall into the central `central_bins`
    /// bins — the paper's "most gradients gather in a small range" measure.
    pub fn central_mass(&self, central_bins: usize) -> f32 {
        let total: usize = self.counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let n = self.counts.len();
        let central = central_bins.min(n);
        let start = (n - central) / 2;
        let mass: usize = self.counts[start..start + central].iter().sum();
        mass as f32 / total as f32
    }
}

/// Summary statistics of a gradient tensor's distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DistributionStats {
    /// Arithmetic mean.
    pub mean: f32,
    /// Standard deviation.
    pub std: f32,
    /// Largest absolute value (the extreme that dominates the SUQ scale).
    pub max_abs: f32,
    /// Excess kurtosis; large values indicate a sharp peak with heavy tails.
    pub kurtosis: f32,
    /// Fraction of values whose magnitude is below `max_abs / 127` — these
    /// collapse to zero under direct INT8 quantization.
    pub underflow_fraction: f32,
}

impl DistributionStats {
    /// Computes the statistics of a tensor (typically a weight-gradient).
    pub fn from_tensor(tensor: &Tensor) -> Self {
        let n = tensor.len().max(1) as f32;
        let mean = tensor.mean();
        let var = tensor
            .data()
            .iter()
            .map(|x| (x - mean).powi(2))
            .sum::<f32>()
            / n;
        let std = var.sqrt();
        let max_abs = tensor.max_abs();
        let kurtosis = if var > 0.0 {
            tensor
                .data()
                .iter()
                .map(|x| ((x - mean) / std).powi(4))
                .sum::<f32>()
                / n
                - 3.0
        } else {
            0.0
        };
        let threshold = max_abs / 127.0;
        let underflow = tensor
            .data()
            .iter()
            .filter(|x| x.abs() < threshold && **x != 0.0)
            .count() as f32
            / n;
        DistributionStats {
            mean,
            std,
            max_abs,
            kurtosis,
            underflow_fraction: underflow,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn histogram_counts_all_elements() {
        let t = Tensor::from_slice(&[6], &[-3.0, -1.0, 0.0, 0.5, 1.0, 3.0]).unwrap();
        let h = GradientHistogram::from_tensor(&t, 6);
        assert_eq!(h.counts().iter().sum::<usize>(), 6);
        assert_eq!(h.lo(), -3.0);
        assert_eq!(h.hi(), 3.0);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_rejects_zero_bins() {
        GradientHistogram::from_tensor(&Tensor::ones(&[3]), 0);
    }

    #[test]
    fn central_mass_detects_sharp_distribution() {
        let mut rng = StdRng::seed_from_u64(0);
        // sharp: tiny values plus one outlier
        let mut sharp = init::randn(&[1000], 0.0, 0.001, &mut rng).into_vec();
        sharp.push(1.0);
        let sharp = Tensor::from_vec(&[1001], sharp).unwrap();
        let flat = init::uniform(&[1001], -1.0, 1.0, &mut rng);
        let hs = GradientHistogram::from_tensor(&sharp, 21);
        let hf = GradientHistogram::from_tensor(&flat, 21);
        assert!(hs.central_mass(3) > hf.central_mass(3));
    }

    #[test]
    fn stats_of_gaussian() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = init::randn(&[20_000], 0.0, 0.5, &mut rng);
        let s = DistributionStats::from_tensor(&t);
        assert!(s.mean.abs() < 0.02);
        assert!((s.std - 0.5).abs() < 0.02);
        assert!(
            s.kurtosis.abs() < 0.3,
            "gaussian excess kurtosis ~0, got {}",
            s.kurtosis
        );
    }

    #[test]
    fn heavy_tailed_distribution_has_high_kurtosis_and_underflow() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut data = init::randn(&[5000], 0.0, 0.001, &mut rng).into_vec();
        data.push(5.0);
        data.push(-5.0);
        let t = Tensor::from_vec(&[5002], data).unwrap();
        let s = DistributionStats::from_tensor(&t);
        assert!(s.kurtosis > 10.0);
        assert!(s.underflow_fraction > 0.9);
    }

    #[test]
    fn constant_tensor_has_zero_kurtosis() {
        let s = DistributionStats::from_tensor(&Tensor::full(&[16], 2.0));
        assert_eq!(s.kurtosis, 0.0);
        assert_eq!(s.std, 0.0);
    }
}
