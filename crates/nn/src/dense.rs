//! Fully-connected layer with optional fused ReLU and INT8 forward support.

use crate::layer::{ForwardMode, Layer, ParamRefMut};
use crate::{NnError, Result};
use ff_quant::plan::{int8_matmul_a_bt_planned, int8_matmul_at_b_planned_accumulate, QGemmPlan};
use ff_quant::QuantTensor;
use ff_tensor::{init, linalg, Tensor};
use rand::Rng;

/// Site salt decorrelating the forward input-quantization stream from other
/// seeded-stochastic-rounding sites (see [`QuantTensor::quantize_seeded`]).
const SALT_FORWARD_INPUT: u64 = 0xD1;
/// Site salt for the backward gradient-quantization stream. Each backward
/// call in a step bumps a counter into the salt so the look-ahead scheme's
/// repeated backwards through one layer draw independent streams.
const SALT_BACKWARD_GRAD: u64 = 0xD2;

/// A dense (fully-connected) layer `y = act(W·x + b)`.
///
/// Weights are stored `[out_features, in_features]`. When `fused_relu` is
/// enabled the activation and its mask are handled inside the layer, which is
/// the granularity at which the Forward-Forward algorithm trains (one
/// goodness per ReLU block).
///
/// In [`ForwardMode::Int8`] the layer keeps a cached [`QGemmPlan`] for its
/// weight matrix: the weight is quantized and packed into GEMM panels once,
/// then reused by every forward pass (and, during prediction, by every
/// candidate-label pass) until an optimizer bumps the layer's parameter
/// version. The quantized input of the most recent INT8 forward is likewise
/// wrapped in a plan so the backward weight-gradient GEMM — which the
/// look-ahead scheme runs twice per step — packs the input at most once.
/// That plan is the only forward state an INT8 step retains: the FP32 input
/// is kept for the FP32 backward alone.
///
/// # Examples
///
/// ```
/// use ff_nn::{Dense, ForwardMode, Layer};
/// use ff_tensor::Tensor;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), ff_nn::NnError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut dense = Dense::new(8, 4, true, &mut rng);
/// let y = dense.forward(&Tensor::ones(&[3, 8]), ForwardMode::Fp32)?;
/// assert_eq!(y.shape(), &[3, 4]);
/// assert!(y.min_value() >= 0.0); // fused ReLU
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    in_features: usize,
    out_features: usize,
    fused_relu: bool,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    /// Bumped whenever `weight` changes (optimizer steps via
    /// [`ParamRefMut::mark_updated`], `set_weight`); keys `weight_plan`.
    weight_version: u64,
    /// Cached quantized + packed weight panels, valid while its version tag
    /// equals `weight_version`.
    weight_plan: Option<QGemmPlan>,
    /// How many times the weight plan has been (re)built — exposed for tests
    /// asserting the cache is neither stale nor rebuilt needlessly.
    weight_plan_builds: u64,
    /// Input of the latest FP32 forward (`None` after an INT8 forward, whose
    /// backward reads `input_plan` instead).
    cached_input: Option<Tensor>,
    /// Quantized input of the latest INT8 forward, wrapped in a plan so the
    /// backward `gW` GEMM packs it at most once per step.
    input_plan: Option<QGemmPlan>,
    cached_mask: Option<Tensor>,
    last_mode: ForwardMode,
    /// Backward calls since the last forward (the look-ahead scheme runs up
    /// to two per step); folded into the gradient-quantization salt so each
    /// call draws an independent seeded rounding stream.
    backward_calls: u64,
}

impl Dense {
    /// Creates a dense layer with Kaiming-normal weights and zero bias.
    pub fn new<R: Rng + ?Sized>(
        in_features: usize,
        out_features: usize,
        fused_relu: bool,
        rng: &mut R,
    ) -> Self {
        let weight = init::kaiming_normal(&[out_features, in_features], in_features, rng);
        Dense {
            in_features,
            out_features,
            fused_relu,
            weight,
            bias: Tensor::zeros(&[out_features]),
            grad_weight: Tensor::zeros(&[out_features, in_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            weight_version: 0,
            weight_plan: None,
            weight_plan_builds: 0,
            cached_input: None,
            input_plan: None,
            cached_mask: None,
            last_mode: ForwardMode::Fp32,
            backward_calls: 0,
        }
    }

    /// The seeded-rounding salt for the next backward gradient quantization.
    fn backward_salt(&self) -> u64 {
        SALT_BACKWARD_GRAD.wrapping_add(self.backward_calls.wrapping_mul(0x100))
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// `true` when the layer applies a fused ReLU.
    pub fn has_fused_relu(&self) -> bool {
        self.fused_relu
    }

    /// Immutable access to the weight matrix `[out, in]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Immutable access to the accumulated weight gradient.
    pub fn grad_weight(&self) -> &Tensor {
        &self.grad_weight
    }

    /// Immutable access to the bias vector `[out]`.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// The layer's parameter version: bumped whenever the weight matrix is
    /// mutated through [`set_weight`](Dense::set_weight) or an optimizer step.
    pub fn weight_version(&self) -> u64 {
        self.weight_version
    }

    /// How many times the cached INT8 weight plan has been built. Stays
    /// constant across repeated forwards with unchanged weights; increments
    /// exactly once after each weight update (lazily, on the next INT8
    /// forward).
    pub fn weight_plan_builds(&self) -> u64 {
        self.weight_plan_builds
    }

    /// Replaces the weight matrix (used by tests and model surgery).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidInput`] when the shape differs from
    /// `[out_features, in_features]`.
    pub fn set_weight(&mut self, weight: Tensor) -> Result<()> {
        if weight.shape() != [self.out_features, self.in_features] {
            return Err(NnError::InvalidInput {
                layer: "dense",
                message: format!(
                    "weight shape {:?} does not match [{}, {}]",
                    weight.shape(),
                    self.out_features,
                    self.in_features
                ),
            });
        }
        self.weight = weight;
        self.weight_version = self.weight_version.wrapping_add(1);
        Ok(())
    }

    /// The one backward body: accumulates `gW`/`gb` and, when asked, returns
    /// the input gradient. Skipping it drops the `grad · W` product only —
    /// the call counter, the gradient quantization and both parameter
    /// gradients are the same either way.
    fn backward_impl(
        &mut self,
        grad_output: &Tensor,
        want_input_grad: bool,
    ) -> Result<Option<Tensor>> {
        const MISSING: NnError = NnError::MissingForwardState { layer: "dense" };
        self.backward_calls = self.backward_calls.wrapping_add(1);
        let salt = self.backward_salt();
        let grad_pre = match &self.cached_mask {
            Some(mask) => grad_output.mul_elem(mask)?,
            None => grad_output.clone(),
        };
        // Parameter gradients. In INT8 mode both operands of the gW GEMM are
        // quantized, matching the paper's dataflow (Fig. 4) — and the input
        // gradient reads the gradient after its round trip through the
        // quantizer (`requantized`).
        let requantized = match self.last_mode {
            ForwardMode::Fp32 => {
                let input = self.cached_input.as_ref().ok_or(MISSING)?;
                // An fp32 sum folded term by term into a non-zero accumulator
                // would round differently, so this path keeps its temporary.
                let gw = linalg::matmul_at_b(&grad_pre, input)?;
                self.grad_weight.add_assign(&gw)?;
                None
            }
            ForwardMode::Int8(rounding) => {
                let input_plan = self.input_plan.as_mut().ok_or(MISSING)?;
                let q_grad = QuantTensor::quantize_seeded(&grad_pre, rounding, salt);
                // gW[o, i] += Σ_batch gY[b, o] · A[b, i] — an INT8 GEMM with i32
                // accumulation over the quantized gradient and the forward
                // pass's cached input plan (packed once, reused by the second
                // look-ahead backward), added onto the accumulator inside
                // the GEMM epilogue.
                int8_matmul_at_b_planned_accumulate(
                    &q_grad,
                    input_plan,
                    self.grad_weight.data_mut(),
                )?;
                want_input_grad.then(|| q_grad.dequantize())
            }
        };
        self.grad_bias.add_assign(&grad_pre.sum_axis0())?;
        if !want_input_grad {
            return Ok(None);
        }
        let dgrad = requantized.as_ref().unwrap_or(&grad_pre);
        Ok(Some(linalg::matmul(dgrad, &self.weight)?))
    }

    fn check_input(&self, input: &Tensor) -> Result<()> {
        if input.ndim() != 2 || input.shape()[1] != self.in_features {
            return Err(NnError::InvalidInput {
                layer: "dense",
                message: format!(
                    "expected [batch, {}], got {:?}",
                    self.in_features,
                    input.shape()
                ),
            });
        }
        Ok(())
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn forward(&mut self, input: &Tensor, mode: ForwardMode) -> Result<Tensor> {
        self.check_input(input)?;
        if mode != self.last_mode {
            // A mode switch invalidates every cached forward artefact so a
            // later backward can never mix FP32 state with INT8 state (or
            // read a quantized input left over from before the switch).
            self.cached_input = None;
            self.input_plan = None;
            self.cached_mask = None;
        }
        self.last_mode = mode;
        // Bias add and ReLU (+ gradient mask) are fused into the GEMM
        // epilogue, so no separate pass touches the output afterwards.
        let (out, mask) = match mode {
            ForwardMode::Fp32 => {
                self.input_plan = None;
                self.cached_input = Some(input.clone());
                linalg::matmul_a_bt_fused(input, &self.weight, Some(&self.bias), self.fused_relu)?
            }
            ForwardMode::Int8(rounding) => {
                let q_input = QuantTensor::quantize_seeded(input, rounding, SALT_FORWARD_INPUT);
                // Reuse the packed weight panels while the weights are
                // unchanged; rebuild (deterministically) once per optimizer
                // step, so the per-step cost scales with activations only.
                if self.weight_plan.as_ref().map(QGemmPlan::version) != Some(self.weight_version) {
                    self.weight_plan =
                        Some(QGemmPlan::from_tensor(&self.weight, self.weight_version)?);
                    self.weight_plan_builds += 1;
                }
                let plan = self.weight_plan.as_mut().expect("weight plan just ensured");
                let out =
                    int8_matmul_a_bt_planned(&q_input, plan, Some(&self.bias), self.fused_relu)?;
                self.input_plan = Some(QGemmPlan::from_quant(q_input, 0)?);
                out
            }
        };
        self.cached_mask = mask;
        self.backward_calls = 0;
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let grad_input = self.backward_impl(grad_output, true)?;
        Ok(grad_input.expect("input gradient was requested"))
    }

    fn backward_params_only(&mut self, grad_output: &Tensor) -> Result<()> {
        self.backward_impl(grad_output, false).map(drop)
    }

    fn params_mut(&mut self) -> Vec<ParamRefMut<'_>> {
        vec![
            ParamRefMut {
                value: &mut self.weight,
                grad: &mut self.grad_weight,
                version: Some(&mut self.weight_version),
            },
            ParamRefMut {
                value: &mut self.bias,
                grad: &mut self.grad_bias,
                // Bias is applied in fp32 during the epilogue, so bias
                // updates never invalidate the packed weight plan.
                version: None,
            },
        ]
    }

    fn param_count(&self) -> usize {
        self.out_features * self.in_features + self.out_features
    }

    fn forward_macs(&self, batch: usize) -> u64 {
        (batch * self.in_features * self.out_features) as u64
    }

    fn snapshot(&self) -> Option<crate::LayerSnapshot> {
        // Deterministic nearest rounding: the same codes a cached weight
        // plan ([`QGemmPlan::from_tensor`]) would hold for these weights, so
        // freezing is a pure function of the trained parameters.
        Some(crate::LayerSnapshot::Dense {
            weight: QuantTensor::quantize(&self.weight, ff_quant::Rounding::Nearest),
            bias: self.bias.clone(),
            relu: self.fused_relu,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Optimizer, Sgd};
    use ff_quant::Rounding;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    /// What an uncached INT8 forward would produce for the layer's current
    /// parameters: quantize weight and input from scratch into a fresh plan,
    /// independent of the layer's cached one.
    fn uncached_int8_forward(layer: &Dense, x: &Tensor) -> Tensor {
        let q_x = QuantTensor::quantize(x, Rounding::Nearest);
        let mut plan = QGemmPlan::from_tensor(layer.weight(), 0).unwrap();
        int8_matmul_a_bt_planned(&q_x, &mut plan, Some(layer.bias()), layer.has_fused_relu())
            .unwrap()
            .0
    }

    #[test]
    fn forward_shape_and_relu() {
        let mut layer = Dense::new(3, 2, true, &mut rng());
        let x = Tensor::from_vec(&[2, 3], vec![1., -1., 0.5, -0.5, 2., -2.]).unwrap();
        let y = layer.forward(&x, ForwardMode::Fp32).unwrap();
        assert_eq!(y.shape(), &[2, 2]);
        assert!(y.min_value() >= 0.0);
    }

    #[test]
    fn rejects_bad_input_shape() {
        let mut layer = Dense::new(3, 2, false, &mut rng());
        assert!(layer
            .forward(&Tensor::ones(&[2, 4]), ForwardMode::Fp32)
            .is_err());
        assert!(layer
            .forward(&Tensor::ones(&[4]), ForwardMode::Fp32)
            .is_err());
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut layer = Dense::new(3, 2, false, &mut rng());
        assert!(matches!(
            layer.backward(&Tensor::ones(&[1, 2])),
            Err(NnError::MissingForwardState { .. })
        ));
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut layer = Dense::new(4, 3, false, &mut rng());
        let x = init::uniform(&[2, 4], -1.0, 1.0, &mut rng());
        // scalar loss L = sum(y)
        let y = layer.forward(&x, ForwardMode::Fp32).unwrap();
        let grad_out = Tensor::ones(y.shape());
        layer.zero_grad();
        let grad_in = layer.backward(&grad_out).unwrap();

        let eps = 1e-3f32;
        // check dL/dW[0,1]
        let analytic = layer.grad_weight().at2(0, 1).unwrap();
        let mut plus = layer.clone();
        let mut w = plus.weight().clone();
        w.set2(0, 1, w.at2(0, 1).unwrap() + eps).unwrap();
        plus.set_weight(w).unwrap();
        let y_plus = plus.forward(&x, ForwardMode::Fp32).unwrap().sum();
        let mut minus = layer.clone();
        let mut w = minus.weight().clone();
        w.set2(0, 1, w.at2(0, 1).unwrap() - eps).unwrap();
        minus.set_weight(w).unwrap();
        let y_minus = minus.forward(&x, ForwardMode::Fp32).unwrap().sum();
        let numeric = (y_plus - y_minus) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 1e-2,
            "analytic {analytic} vs numeric {numeric}"
        );

        // check dL/dx[0,2] numerically
        let analytic_in = grad_in.at2(0, 2).unwrap();
        let mut x_plus = x.clone();
        x_plus.set2(0, 2, x.at2(0, 2).unwrap() + eps).unwrap();
        let mut x_minus = x.clone();
        x_minus.set2(0, 2, x.at2(0, 2).unwrap() - eps).unwrap();
        let mut probe = layer.clone();
        let lp = probe.forward(&x_plus, ForwardMode::Fp32).unwrap().sum();
        let lm = probe.forward(&x_minus, ForwardMode::Fp32).unwrap().sum();
        let numeric_in = (lp - lm) / (2.0 * eps);
        assert!((analytic_in - numeric_in).abs() < 1e-2);
    }

    #[test]
    fn int8_forward_approximates_fp32() {
        let mut layer = Dense::new(16, 8, true, &mut rng());
        let x = init::uniform(&[4, 16], -1.0, 1.0, &mut rng());
        let y32 = layer.forward(&x, ForwardMode::Fp32).unwrap();
        let y8 = layer
            .forward(&x, ForwardMode::Int8(Rounding::Nearest))
            .unwrap();
        let rel = y32.sub(&y8).unwrap().frobenius_norm() / (y32.frobenius_norm() + 1e-6);
        assert!(rel < 0.1, "relative error {rel}");
    }

    #[test]
    fn int8_backward_accumulates_grads() {
        let mut layer = Dense::new(8, 4, true, &mut rng());
        let x = init::uniform(&[4, 8], -1.0, 1.0, &mut rng());
        let y = layer
            .forward(&x, ForwardMode::Int8(Rounding::Stochastic))
            .unwrap();
        layer.backward(&Tensor::ones(y.shape())).unwrap();
        assert!(layer.grad_weight().max_abs() > 0.0);
    }

    #[test]
    fn zero_grad_resets_accumulators() {
        let mut layer = Dense::new(4, 2, false, &mut rng());
        let x = Tensor::ones(&[2, 4]);
        let y = layer.forward(&x, ForwardMode::Fp32).unwrap();
        layer.backward(&Tensor::ones(y.shape())).unwrap();
        assert!(layer.grad_weight().max_abs() > 0.0);
        layer.zero_grad();
        assert_eq!(layer.grad_weight().max_abs(), 0.0);
    }

    #[test]
    fn param_count_and_macs() {
        let layer = Dense::new(10, 5, false, &mut rng());
        assert_eq!(layer.param_count(), 55);
        assert_eq!(layer.forward_macs(2), 100);
    }

    #[test]
    fn set_weight_validates_shape() {
        let mut layer = Dense::new(3, 2, false, &mut rng());
        assert!(layer.set_weight(Tensor::zeros(&[2, 3])).is_ok());
        assert!(layer.set_weight(Tensor::zeros(&[3, 2])).is_err());
    }

    #[test]
    fn weight_plan_rebuilt_exactly_once_per_step() {
        let mut layer = Dense::new(12, 6, true, &mut rng());
        let x = init::uniform(&[4, 12], -1.0, 1.0, &mut rng());
        assert_eq!(layer.weight_plan_builds(), 0);
        // Back-to-back forwards (the predict path runs one per candidate
        // label) must share one plan build.
        for _ in 0..3 {
            layer
                .forward(&x, ForwardMode::Int8(Rounding::Nearest))
                .unwrap();
        }
        assert_eq!(layer.weight_plan_builds(), 1);
        let v0 = layer.weight_version();
        // An optimizer step bumps the version and forces exactly one rebuild
        // on the next forward.
        let y = layer
            .forward(&x, ForwardMode::Int8(Rounding::Nearest))
            .unwrap();
        layer.backward(&Tensor::ones(y.shape())).unwrap();
        let mut sgd = Sgd::new(0.1, 0.0);
        sgd.step(&mut layer.params_mut());
        assert_eq!(layer.weight_version(), v0 + 1);
        assert_eq!(layer.weight_plan_builds(), 1, "rebuild is lazy");
        layer
            .forward(&x, ForwardMode::Int8(Rounding::Nearest))
            .unwrap();
        layer
            .forward(&x, ForwardMode::Int8(Rounding::Nearest))
            .unwrap();
        assert_eq!(layer.weight_plan_builds(), 2);
    }

    #[test]
    fn cached_plan_forward_is_bit_exact_with_uncached() {
        let mut layer = Dense::new(16, 8, true, &mut rng());
        let x = init::uniform(&[4, 16], -1.0, 1.0, &mut rng());
        // Cached path (second forward reuses the plan) must equal a
        // from-scratch quantize + GEMM of the same parameters.
        layer
            .forward(&x, ForwardMode::Int8(Rounding::Nearest))
            .unwrap();
        let cached = layer
            .forward(&x, ForwardMode::Int8(Rounding::Nearest))
            .unwrap();
        assert_eq!(cached.data(), uncached_int8_forward(&layer, &x).data());
    }

    #[test]
    fn set_weight_invalidates_cached_plan() {
        let mut layer = Dense::new(8, 4, false, &mut rng());
        let x = init::uniform(&[2, 8], -1.0, 1.0, &mut rng());
        layer
            .forward(&x, ForwardMode::Int8(Rounding::Nearest))
            .unwrap();
        let w2 = init::uniform(&[4, 8], -1.0, 1.0, &mut rng());
        layer.set_weight(w2).unwrap();
        let y = layer
            .forward(&x, ForwardMode::Int8(Rounding::Nearest))
            .unwrap();
        assert_eq!(layer.weight_plan_builds(), 2);
        assert_eq!(y.data(), uncached_int8_forward(&layer, &x).data());
    }

    #[test]
    fn alternating_fp32_int8_steps_stay_consistent() {
        // Regression test for the stale-cache footgun: mode switches must
        // invalidate all cached quantized state, and optimizer steps taken in
        // *either* mode must invalidate the weight plan, so an INT8 forward
        // after any interleaving matches an uncached computation bit-exactly.
        let mut layer = Dense::new(10, 5, true, &mut rng());
        let x = init::uniform(&[3, 10], -1.0, 1.0, &mut rng());
        let mut sgd = Sgd::new(0.05, 0.0);
        for step in 0..6 {
            let mode = if step % 2 == 0 {
                ForwardMode::Fp32
            } else {
                ForwardMode::Int8(Rounding::Nearest)
            };
            let y = layer.forward(&x, mode).unwrap();
            if mode.is_int8() {
                assert_eq!(
                    y.data(),
                    uncached_int8_forward(&layer, &x).data(),
                    "stale plan surfaced at step {step}"
                );
            }
            layer.backward(&Tensor::ones(y.shape())).unwrap();
            sgd.step(&mut layer.params_mut());
            layer.zero_grad();
        }
    }

    #[test]
    fn mode_switch_clears_quantized_state() {
        let mut layer = Dense::new(6, 3, false, &mut rng());
        let x = init::uniform(&[2, 6], -1.0, 1.0, &mut rng());
        layer
            .forward(&x, ForwardMode::Int8(Rounding::Nearest))
            .unwrap();
        assert!(layer.input_plan.is_some());
        layer.forward(&x, ForwardMode::Fp32).unwrap();
        assert!(
            layer.input_plan.is_none(),
            "switching to Fp32 must drop the quantized input plan"
        );
        // Backward after the switch uses the fp32 path and succeeds.
        layer.backward(&Tensor::ones(&[2, 3])).unwrap();
    }

    #[test]
    fn snapshot_is_deterministic_and_matches_weight_plan_codes() {
        let layer = Dense::new(6, 4, true, &mut rng());
        let (s1, s2) = (layer.snapshot().unwrap(), layer.snapshot().unwrap());
        let (
            crate::LayerSnapshot::Dense { weight: w1, .. },
            crate::LayerSnapshot::Dense {
                weight: w2,
                bias,
                relu,
            },
        ) = (s1, s2)
        else {
            panic!("dense layers snapshot as Dense");
        };
        assert_eq!(w1.codes(), w2.codes(), "freezing is deterministic");
        assert_eq!(w1.scale(), w2.scale());
        assert_eq!(bias.data(), layer.bias().data());
        assert!(relu);
        // Identical to the codes a training-time weight plan would cache.
        let plan = ff_quant::QGemmPlan::from_tensor(layer.weight(), 0).unwrap();
        assert_eq!(w1.codes(), plan.quant().codes());
        assert_eq!(w1.scale(), plan.scale());
    }

    #[test]
    fn backward_params_only_matches_backward_on_parameter_gradients() {
        let x = init::uniform(&[5, 12], -1.0, 1.0, &mut rng());
        let g1 = init::uniform(&[5, 7], -1.0, 1.0, &mut rng());
        let g2 = init::uniform(&[5, 7], -0.1, 0.1, &mut rng());
        let layer = Dense::new(12, 7, true, &mut rng());
        crate::layer::assert_params_only_matches_backward(|| layer.clone(), &x, &[&g1, &g2]);
    }

    #[test]
    fn int8_forward_retains_no_fp32_input() {
        let mut layer = Dense::new(6, 3, false, &mut rng());
        let x = init::uniform(&[2, 6], -1.0, 1.0, &mut rng());
        layer.forward(&x, ForwardMode::Fp32).unwrap();
        assert!(layer.cached_input.is_some());
        layer
            .forward(&x, ForwardMode::Int8(Rounding::Nearest))
            .unwrap();
        assert!(layer.cached_input.is_none(), "INT8 keeps only the plan");
        layer.backward(&Tensor::ones(&[2, 3])).unwrap();
    }

    #[test]
    fn backward_accumulates_across_calls() {
        let mut layer = Dense::new(3, 2, false, &mut rng());
        let x = Tensor::ones(&[1, 3]);
        let y = layer.forward(&x, ForwardMode::Fp32).unwrap();
        layer.backward(&Tensor::ones(y.shape())).unwrap();
        let once = layer.grad_weight().clone();
        layer.backward(&Tensor::ones(y.shape())).unwrap();
        let twice = layer.grad_weight().clone();
        for (a, b) in once.data().iter().zip(twice.data()) {
            assert!((2.0 * a - b).abs() < 1e-6);
        }
    }
}
