//! Symmetric uniform quantization primitives.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Largest representable quantized magnitude (symmetric range `[-127, 127]`).
pub const QMAX: i8 = 127;
/// Smallest representable quantized value.
pub const QMIN: i8 = -127;

/// Rounding mode used when mapping real values onto the INT8 grid.
///
/// The FF-INT8 paper uses *stochastic* rounding for gradients (following
/// Gupta et al., 2015) because it is unbiased in expectation, and nearest
/// rounding for weights and activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Rounding {
    /// Round to the nearest grid point (ties away from zero).
    #[default]
    Nearest,
    /// Round up or down with probability proportional to the distance, so the
    /// expected quantized value equals the real value. Draws come from the
    /// RNG the call site supplies (the thread-local generator at the
    /// convenience entry points), so two runs are **not** reproducible.
    Stochastic,
    /// Stochastic rounding whose draws come from a generator seeded with the
    /// carried value, making the rounding a pure function of `(tensor,
    /// seed)`. Trainers that must be checkpointable derive one seed per
    /// quantization site from their own seeded RNG (see
    /// [`Rounding::derive`]), which is what makes INT8 training runs
    /// bit-exactly reproducible and resumable.
    StochasticSeeded(u64),
}

impl Rounding {
    /// `true` for either stochastic variant.
    pub fn is_stochastic(&self) -> bool {
        !matches!(self, Rounding::Nearest)
    }

    /// Derives a decorrelated seeded-stochastic mode from this one.
    ///
    /// For [`Rounding::StochasticSeeded`] the salt is mixed into the seed
    /// through a SplitMix64 finalizer, so per-layer / per-site streams are
    /// statistically independent; the other variants pass through
    /// unchanged (they carry no seed to vary).
    pub fn derive(self, salt: u64) -> Rounding {
        match self {
            Rounding::StochasticSeeded(seed) => {
                let mut z = seed
                    .wrapping_add(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(salt.wrapping_mul(0xA24B_AED4_963E_E407));
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                Rounding::StochasticSeeded(z ^ (z >> 31))
            }
            other => other,
        }
    }
}

/// Configuration for a symmetric uniform quantizer.
///
/// # Examples
///
/// ```
/// use ff_quant::{QuantConfig, Rounding};
///
/// let cfg = QuantConfig::new(Rounding::Stochastic).with_clip(Some(1.0));
/// assert_eq!(cfg.clip, Some(1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct QuantConfig {
    /// Rounding mode applied to every element.
    pub rounding: Rounding,
    /// Optional clipping threshold: values are clamped to `[-clip, clip]`
    /// before the scale is computed. `None` uses the tensor's max-abs.
    pub clip: Option<f32>,
}

impl QuantConfig {
    /// Creates a configuration with the given rounding mode and no clipping.
    pub fn new(rounding: Rounding) -> Self {
        QuantConfig {
            rounding,
            clip: None,
        }
    }

    /// Sets the clipping threshold.
    pub fn with_clip(mut self, clip: Option<f32>) -> Self {
        self.clip = clip;
        self
    }
}

/// Computes the symmetric per-tensor scale `s = max_abs / 127`.
///
/// A tiny floor keeps the scale strictly positive so that all-zero tensors
/// still round-trip.
///
/// # Examples
///
/// ```
/// let s = ff_quant::compute_scale(12.7);
/// assert!((s - 0.1).abs() < 1e-6);
/// ```
pub fn compute_scale(max_abs: f32) -> f32 {
    (max_abs / QMAX as f32)
        .max(f32::MIN_POSITIVE * 128.0)
        .max(1e-12)
}

/// Quantizes a single value given a scale.
///
/// Stochastic rounding draws from the supplied RNG; nearest rounding ignores
/// it.
pub fn quantize_value<R: Rng + ?Sized>(
    value: f32,
    scale: f32,
    rounding: Rounding,
    rng: &mut R,
) -> i8 {
    let x = value / scale;
    let rounded = match rounding {
        Rounding::Nearest => x.round(),
        // A seeded mode reaching this level draws from the supplied RNG just
        // like plain `Stochastic`: the seed was already consumed to build
        // that RNG (see `QuantTensor::quantize_seeded`).
        Rounding::Stochastic | Rounding::StochasticSeeded(_) => {
            let floor = x.floor();
            let frac = x - floor;
            if rng.gen::<f32>() < frac {
                floor + 1.0
            } else {
                floor
            }
        }
    };
    rounded.clamp(QMIN as f32, QMAX as f32) as i8
}

/// Converts an `f32` that is an integer in `[−127, 127]` (or NaN) to its
/// INT8 code with integer lanes.
///
/// `f32 as i8` is a saturating cast LLVM scalarises. For such a value adding
/// 1.5·2²³ is exact and leaves the integer in the low mantissa bits:
/// subtracting the bias's bit pattern converts it with plain integer
/// arithmetic. NaN maps to 0, as the saturating cast does.
#[inline(always)]
fn code_of_clamped(rounded: f32) -> i8 {
    const BIAS: f32 = 12_582_912.0; // 1.5 · 2^23
    let biased = (rounded + BIAS).to_bits() as i32;
    if rounded.is_nan() {
        0
    } else {
        biased.wrapping_sub(BIAS.to_bits() as i32) as i8
    }
}

/// Nearest-rounding quantization of a whole slice: `codes[i]` is exactly
/// `quantize_value(values[i].clamp(-clip, clip), scale, Rounding::Nearest, _)`
/// — the same clamp, divide, `round` (ties away from zero) and clamp per
/// element — written as one straight loop with no RNG and no per-element
/// mode dispatch so it vectorizes.
pub(crate) fn quantize_nearest_into(values: &[f32], clip: f32, scale: f32, codes: &mut [i8]) {
    for (code, &v) in codes.iter_mut().zip(values) {
        let x = v.clamp(-clip, clip) / scale;
        *code = code_of_clamped(x.round().clamp(QMIN as f32, QMAX as f32));
    }
}

/// Elements per block of [`quantize_stochastic_into`]: 4 KiB of draws, which
/// stay L1-resident between the serial draw loop and the rounding loop.
pub(crate) const STOCHASTIC_BLOCK: usize = 1024;

/// Stochastic-rounding quantization of a whole slice: `codes[i]` is exactly
/// `quantize_value(values[i].clamp(-clip, clip), scale, Rounding::Stochastic,
/// rng)` called for `i = 0, 1, 2, …` — one `rng.gen::<f32>()` per element,
/// in element order, so the codes and the generator's final state are those
/// of the per-element loop for any `R`.
///
/// Only the draws are inherently serial. Each block takes its draws first
/// and then rounds in a second loop that has no RNG in it — the same clamp,
/// divide, `floor`, `draw < frac` and clamp per element — so that loop
/// vectorizes beside [`quantize_nearest_into`].
pub(crate) fn quantize_stochastic_into<R: Rng + ?Sized>(
    values: &[f32],
    clip: f32,
    scale: f32,
    rng: &mut R,
    codes: &mut [i8],
) {
    let mut draws = [0.0f32; STOCHASTIC_BLOCK];
    for (codes, values) in codes
        .chunks_mut(STOCHASTIC_BLOCK)
        .zip(values.chunks(STOCHASTIC_BLOCK))
    {
        let draws = &mut draws[..values.len()];
        for draw in draws.iter_mut() {
            *draw = rng.gen::<f32>();
        }
        for ((code, &v), &draw) in codes.iter_mut().zip(values).zip(draws.iter()) {
            let x = v.clamp(-clip, clip) / scale;
            let floor = x.floor();
            let rounded = if draw < x - floor { floor + 1.0 } else { floor };
            *code = code_of_clamped(rounded.clamp(QMIN as f32, QMAX as f32));
        }
    }
}

/// Converts a quantized value back to its real approximation.
pub fn dequantize_value(q: i8, scale: f32) -> f32 {
    q as f32 * scale
}

/// Quantizes an entire slice with one shared scale, returning the codes.
pub fn quantize_slice<R: Rng + ?Sized>(
    values: &[f32],
    scale: f32,
    rounding: Rounding,
    rng: &mut R,
) -> Vec<i8> {
    values
        .iter()
        .map(|&v| quantize_value(v, scale, rounding, rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn scale_is_max_abs_over_127() {
        assert!((compute_scale(127.0) - 1.0).abs() < 1e-6);
        assert!(compute_scale(0.0) > 0.0, "scale must stay positive");
    }

    #[test]
    fn nearest_rounding_roundtrip_error_bounded() {
        let mut rng = StdRng::seed_from_u64(0);
        let scale = compute_scale(2.0);
        for i in -200..=200 {
            let v = i as f32 / 100.0;
            let q = quantize_value(v, scale, Rounding::Nearest, &mut rng);
            let back = dequantize_value(q, scale);
            assert!((v - back).abs() <= scale / 2.0 + 1e-6, "v={v} back={back}");
        }
    }

    #[test]
    fn values_clamp_to_range() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(quantize_value(1e9, 1.0, Rounding::Nearest, &mut rng), QMAX);
        assert_eq!(quantize_value(-1e9, 1.0, Rounding::Nearest, &mut rng), QMIN);
    }

    #[test]
    fn stochastic_rounding_is_unbiased() {
        let mut rng = StdRng::seed_from_u64(123);
        let scale = 1.0;
        let v = 0.3;
        let n = 20_000;
        let sum: f64 = (0..n)
            .map(|_| quantize_value(v, scale, Rounding::Stochastic, &mut rng) as f64)
            .sum();
        let mean = sum / n as f64;
        assert!((mean - 0.3).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn stochastic_rounding_only_adjacent_grid_points() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            let q = quantize_value(2.4, 1.0, Rounding::Stochastic, &mut rng);
            assert!(q == 2 || q == 3);
        }
    }

    #[test]
    fn quantize_slice_uses_shared_scale() {
        let mut rng = StdRng::seed_from_u64(1);
        let values = [1.0, -2.0, 0.5];
        let scale = compute_scale(2.0);
        let codes = quantize_slice(&values, scale, Rounding::Nearest, &mut rng);
        assert_eq!(codes.len(), 3);
        assert_eq!(codes[1], QMIN);
    }

    #[test]
    fn config_builder() {
        let cfg = QuantConfig::new(Rounding::Stochastic).with_clip(Some(0.5));
        assert_eq!(cfg.rounding, Rounding::Stochastic);
        assert_eq!(cfg.clip, Some(0.5));
        assert_eq!(QuantConfig::default().rounding, Rounding::Nearest);
    }
}
