//! 2-D convolution layer with optional fused ReLU and INT8 forward support.

use crate::layer::{ForwardMode, Layer, ParamRefMut};
use crate::{NnError, Result};
use ff_quant::plan::{int8_matmul_a_bt_planned, int8_matmul_at_b_planned_accumulate, QGemmPlan};
use ff_quant::QuantTensor;
use ff_tensor::conv::{conv2d_input_grad, im2col, ConvGeometry};
use ff_tensor::{init, linalg, Tensor, TensorError};
use rand::Rng;

/// A 2-D convolution `y = act(conv(x, W) + b)` implemented via im2col.
///
/// Weights are `[out_ch, in_ch, kh, kw]`. Activations follow the
/// `[batch, channels, height, width]` convention of `ff-tensor`.
///
/// In [`ForwardMode::Int8`] the `[oc, ic·kh·kw]` weight matrix is quantized
/// and packed once into a cached [`QGemmPlan`] and reused by every im2col
/// GEMM until an optimizer bumps the layer's parameter version; the
/// quantized im2col column matrix of the latest forward is wrapped in a plan
/// for the backward weight-gradient GEMM — the only copy of the columns an
/// INT8 step retains (the FP32 column matrix is kept for the FP32 backward
/// alone).
///
/// # Examples
///
/// ```
/// use ff_nn::{Conv2d, ForwardMode, Layer};
/// use ff_tensor::Tensor;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), ff_nn::NnError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut conv = Conv2d::new(3, 8, 3, 1, 1, true, &mut rng)?;
/// let y = conv.forward(&Tensor::ones(&[2, 3, 8, 8]), ForwardMode::Fp32)?;
/// assert_eq!(y.shape(), &[2, 8, 8, 8]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    geom: ConvGeometry,
    fused_relu: bool,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    /// Bumped whenever `weight` changes (optimizer steps via
    /// [`ParamRefMut::mark_updated`]); keys `weight_plan`.
    weight_version: u64,
    /// Cached quantized + packed panels of the `[oc, ic·kh·kw]` weight
    /// matrix, valid while its version tag equals `weight_version`.
    weight_plan: Option<QGemmPlan>,
    /// How many times the weight plan has been (re)built.
    weight_plan_builds: u64,
    /// im2col columns of the latest FP32 forward (`None` after an INT8
    /// forward, whose backward reads `cols_plan` instead).
    cached_cols: Option<Tensor>,
    /// Quantized im2col columns of the latest INT8 forward, wrapped in a
    /// plan so the backward `gW` GEMM packs them at most once per step.
    cols_plan: Option<QGemmPlan>,
    /// ReLU gradient mask of the latest forward, kept as the GEMM epilogue
    /// wrote it: `[n·oh·ow, oc]` rows.
    cached_mask: Option<Tensor>,
    cached_input_shape: Option<Vec<usize>>,
    cached_output_hw: (usize, usize),
    last_mode: ForwardMode,
    /// Backward calls since the last forward; folded into the gradient
    /// quantization salt so the look-ahead scheme's repeated backwards draw
    /// independent seeded rounding streams.
    backward_calls: u64,
}

/// Site salt decorrelating the forward im2col-quantization stream from other
/// seeded-stochastic-rounding sites (see [`QuantTensor::quantize_seeded`]).
const SALT_FORWARD_COLS: u64 = 0xC1;
/// Site salt for the backward gradient-quantization stream.
const SALT_BACKWARD_GRAD: u64 = 0xC2;

impl Conv2d {
    /// Creates a convolution layer with Kaiming-normal weights and zero bias.
    ///
    /// # Errors
    ///
    /// Returns an error when `kernel` or `stride` is zero.
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        fused_relu: bool,
        rng: &mut R,
    ) -> Result<Self> {
        let geom = ConvGeometry::new(kernel, stride, padding)?;
        let fan_in = in_channels * kernel * kernel;
        let weight =
            init::kaiming_normal(&[out_channels, in_channels, kernel, kernel], fan_in, rng);
        Ok(Conv2d {
            in_channels,
            out_channels,
            geom,
            fused_relu,
            weight,
            bias: Tensor::zeros(&[out_channels]),
            grad_weight: Tensor::zeros(&[out_channels, in_channels, kernel, kernel]),
            grad_bias: Tensor::zeros(&[out_channels]),
            weight_version: 0,
            weight_plan: None,
            weight_plan_builds: 0,
            cached_cols: None,
            cols_plan: None,
            cached_mask: None,
            cached_input_shape: None,
            cached_output_hw: (0, 0),
            last_mode: ForwardMode::Fp32,
            backward_calls: 0,
        })
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Convolution geometry (kernel, stride, padding).
    pub fn geometry(&self) -> ConvGeometry {
        self.geom
    }

    /// Immutable access to the accumulated weight gradient.
    pub fn grad_weight(&self) -> &Tensor {
        &self.grad_weight
    }

    /// The layer's parameter version: bumped whenever the weight tensor is
    /// mutated through an optimizer step.
    pub fn weight_version(&self) -> u64 {
        self.weight_version
    }

    /// How many times the cached INT8 weight plan has been built.
    pub fn weight_plan_builds(&self) -> u64 {
        self.weight_plan_builds
    }

    fn weight_matrix(&self) -> Result<Tensor> {
        Ok(self.weight.reshape(&[
            self.out_channels,
            self.in_channels * self.geom.kh * self.geom.kw,
        ])?)
    }

    /// The one backward body: accumulates `gW`/`gb` and, when asked, returns
    /// the input gradient. Skipping it drops the `grad · W` fold — the call
    /// counter, the gradient quantization and both parameter gradients are
    /// the same either way.
    fn backward_impl(
        &mut self,
        grad_output: &Tensor,
        want_input_grad: bool,
    ) -> Result<Option<Tensor>> {
        const MISSING: NnError = NnError::MissingForwardState { layer: "conv2d" };
        self.backward_calls = self.backward_calls.wrapping_add(1);
        let input_shape = self.cached_input_shape.as_ref().ok_or(MISSING)?;
        let (n, h, w) = (input_shape[0], input_shape[2], input_shape[3]);
        let (oh, ow) = self.cached_output_hw;
        let output_shape = [n, self.out_channels, oh, ow];
        if grad_output.shape() != output_shape {
            return Err(TensorError::ShapeMismatch {
                left: grad_output.shape().to_vec(),
                right: output_shape.to_vec(),
                op: "conv2d backward",
            }
            .into());
        }
        // The mask is already in rows layout, so the gradient is gathered to
        // rows once and masked there.
        let mut grad_rows = self.nchw_to_rows(grad_output, n, oh, ow);
        if let Some(mask) = &self.cached_mask {
            for (g, &keep) in grad_rows.data_mut().iter_mut().zip(mask.data()) {
                *g *= keep;
            }
        }
        // INT8 only: the gradient rows after their round trip through the
        // quantizer, which is what the input-gradient product reads there.
        let requantized = match self.last_mode {
            ForwardMode::Fp32 => {
                let cols = self.cached_cols.as_ref().ok_or(MISSING)?;
                // gW = grad_rowsᵀ · cols → [oc, ic·kh·kw], the flat layout
                // of `grad_weight`. An fp32 sum folded term by term into a
                // non-zero accumulator would round differently, so this path
                // keeps its temporary.
                let gw = linalg::matmul_at_b(&grad_rows, cols)?;
                self.grad_weight
                    .add_assign(&gw.reshape(self.grad_weight.shape())?)?;
                None
            }
            ForwardMode::Int8(rounding) => {
                let cols_plan = self.cols_plan.as_mut().ok_or(MISSING)?;
                let salt = SALT_BACKWARD_GRAD.wrapping_add(self.backward_calls.wrapping_mul(0x100));
                let q_grad = QuantTensor::quantize_seeded(&grad_rows, rounding, salt);
                // Added onto the accumulator inside the GEMM epilogue.
                int8_matmul_at_b_planned_accumulate(
                    &q_grad,
                    cols_plan,
                    self.grad_weight.data_mut(),
                )?;
                want_input_grad.then(|| q_grad.dequantize())
            }
        };
        self.grad_bias.add_assign(&grad_rows.sum_axis0())?;
        if !want_input_grad {
            return Ok(None);
        }
        let dgrad_rows = requantized.as_ref().unwrap_or(&grad_rows);
        Ok(Some(conv2d_input_grad(
            dgrad_rows,
            &self.weight,
            n,
            h,
            w,
            self.geom,
        )?))
    }

    /// Reorders `[n·oh·ow, oc]` rows into `[n, oc, oh, ow]`.
    fn rows_to_nchw(&self, rows: &Tensor, n: usize, oh: usize, ow: usize) -> Tensor {
        let oc = self.out_channels;
        let out = transpose_each(rows.data(), oh * ow, oc);
        Tensor::from_vec(&[n, oc, oh, ow], out).expect("rows_to_nchw shape")
    }

    /// Reorders `[n, oc, oh, ow]` into `[n·oh·ow, oc]` rows.
    fn nchw_to_rows(&self, t: &Tensor, n: usize, oh: usize, ow: usize) -> Tensor {
        let oc = self.out_channels;
        let out = transpose_each(t.data(), oc, oh * ow);
        Tensor::from_vec(&[n * oh * ow, oc], out).expect("nchw_to_rows shape")
    }
}

/// Transposes every consecutive row-major `[rows, cols]` matrix of `src`
/// (one per image) into `[cols, rows]`.
///
/// One side is the channel count (tens), the other the pixel count
/// (thousands). The long side is walked in tiles with the short side inside,
/// so a tile's short-stride side stays within a kilobyte or two and its
/// long-stride side is touched one whole cache line at a time — a plain
/// double loop instead scatters single floats a page apart.
fn transpose_each(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    const TILE: usize = 16;
    let mut out = vec![0.0f32; src.len()];
    let (long, short) = (rows.max(cols), rows.min(cols));
    let images = src.chunks_exact((rows * cols).max(1));
    for (src, out) in images.zip(out.chunks_exact_mut((rows * cols).max(1))) {
        for tile in (0..long).step_by(TILE) {
            for s in 0..short {
                for l in tile..(tile + TILE).min(long) {
                    let (r, c) = if rows >= cols { (l, s) } else { (s, l) };
                    out[c * rows + r] = src[r * cols + c];
                }
            }
        }
    }
    out
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&mut self, input: &Tensor, mode: ForwardMode) -> Result<Tensor> {
        if input.ndim() != 4 || input.shape()[1] != self.in_channels {
            return Err(NnError::InvalidInput {
                layer: "conv2d",
                message: format!(
                    "expected [batch, {}, h, w], got {:?}",
                    self.in_channels,
                    input.shape()
                ),
            });
        }
        if mode != self.last_mode {
            // A mode switch invalidates every cached forward artefact so a
            // later backward can never mix FP32 state with INT8 state.
            self.cached_cols = None;
            self.cols_plan = None;
            self.cached_mask = None;
            self.cached_input_shape = None;
        }
        self.last_mode = mode;
        let n = input.shape()[0];
        let (cols, oh, ow) = im2col(input, self.geom)?;
        // Bias and ReLU (+ gradient mask) are fused into the GEMM epilogue
        // over the `[n·oh·ow, oc]` row matrix; ReLU commutes with the NCHW
        // reorder, so only the already-activated rows are rearranged
        // afterwards. The mask stays in rows layout for `backward`.
        let (rows, rows_mask) = match mode {
            ForwardMode::Fp32 => {
                self.cols_plan = None;
                let weight_mat = self.weight_matrix()?;
                let out = linalg::matmul_a_bt_fused(
                    &cols,
                    &weight_mat,
                    Some(&self.bias),
                    self.fused_relu,
                )?;
                self.cached_cols = Some(cols);
                out
            }
            ForwardMode::Int8(rounding) => {
                let q_cols = QuantTensor::quantize_seeded(&cols, rounding, SALT_FORWARD_COLS);
                // Reuse the packed weight-matrix panels (reshape + quantize
                // + pack) while the weights are unchanged.
                if self.weight_plan.as_ref().map(QGemmPlan::version) != Some(self.weight_version) {
                    let weight_mat = self.weight_matrix()?;
                    self.weight_plan =
                        Some(QGemmPlan::from_tensor(&weight_mat, self.weight_version)?);
                    self.weight_plan_builds += 1;
                }
                let plan = self.weight_plan.as_mut().expect("weight plan just ensured");
                let out =
                    int8_matmul_a_bt_planned(&q_cols, plan, Some(&self.bias), self.fused_relu)?;
                self.cols_plan = Some(QGemmPlan::from_quant(q_cols, 0)?);
                out
            }
        };
        let out = self.rows_to_nchw(&rows, n, oh, ow);
        self.backward_calls = 0;
        self.cached_input_shape = Some(input.shape().to_vec());
        self.cached_output_hw = (oh, ow);
        self.cached_mask = rows_mask;
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
        self.out_channels * self.in_channels * self.geom.kh * self.geom.kw + self.out_channels
    }

    fn forward_macs(&self, batch: usize) -> u64 {
        // MACs depend on the spatial output size, which we only know after a
        // forward pass; use the cached geometry when available.
        let (oh, ow) = self.cached_output_hw;
        (batch * self.out_channels * oh * ow * self.in_channels * self.geom.kh * self.geom.kw)
            as u64
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
        StdRng::seed_from_u64(9)
    }

    #[test]
    fn forward_shape() {
        let mut conv = Conv2d::new(2, 4, 3, 1, 1, false, &mut rng()).unwrap();
        let y = conv
            .forward(&Tensor::ones(&[1, 2, 6, 6]), ForwardMode::Fp32)
            .unwrap();
        assert_eq!(y.shape(), &[1, 4, 6, 6]);
        assert_eq!(conv.param_count(), 4 * 2 * 9 + 4);
    }

    #[test]
    fn stride_reduces_spatial_size() {
        let mut conv = Conv2d::new(1, 1, 3, 2, 1, false, &mut rng()).unwrap();
        let y = conv
            .forward(&Tensor::ones(&[1, 1, 8, 8]), ForwardMode::Fp32)
            .unwrap();
        assert_eq!(y.shape(), &[1, 1, 4, 4]);
    }

    #[test]
    fn rejects_wrong_channel_count() {
        let mut conv = Conv2d::new(3, 4, 3, 1, 1, false, &mut rng()).unwrap();
        assert!(conv
            .forward(&Tensor::ones(&[1, 2, 6, 6]), ForwardMode::Fp32)
            .is_err());
        assert!(conv
            .forward(&Tensor::ones(&[6, 6]), ForwardMode::Fp32)
            .is_err());
    }

    #[test]
    fn backward_weight_grad_matches_finite_difference() {
        let mut conv = Conv2d::new(1, 2, 3, 1, 0, false, &mut rng()).unwrap();
        let x = init::uniform(&[1, 1, 4, 4], -1.0, 1.0, &mut rng());
        let y = conv.forward(&x, ForwardMode::Fp32).unwrap();
        conv.zero_grad();
        conv.backward(&Tensor::ones(y.shape())).unwrap();
        let analytic = conv.grad_weight().data()[3];

        let eps = 1e-3f32;
        let mut plus = conv.clone();
        plus.weight.data_mut()[3] += eps;
        let lp = plus.forward(&x, ForwardMode::Fp32).unwrap().sum();
        let mut minus = conv.clone();
        minus.weight.data_mut()[3] -= eps;
        let lm = minus.forward(&x, ForwardMode::Fp32).unwrap().sum();
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 1e-2,
            "analytic {analytic} numeric {numeric}"
        );
    }

    #[test]
    fn backward_input_grad_matches_finite_difference() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, true, &mut rng()).unwrap();
        let x = init::uniform(&[1, 1, 4, 4], -1.0, 1.0, &mut rng());
        let y = conv.forward(&x, ForwardMode::Fp32).unwrap();
        let gi = conv.backward(&Tensor::ones(y.shape())).unwrap();
        let idx = 5;
        let analytic = gi.data()[idx];
        let eps = 1e-3f32;
        let mut xp = x.clone();
        xp.data_mut()[idx] += eps;
        let mut xm = x.clone();
        xm.data_mut()[idx] -= eps;
        let mut probe = conv.clone();
        let lp = probe.forward(&xp, ForwardMode::Fp32).unwrap().sum();
        let lm = probe.forward(&xm, ForwardMode::Fp32).unwrap().sum();
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 2e-2,
            "analytic {analytic} numeric {numeric}"
        );
    }

    #[test]
    fn int8_forward_tracks_fp32() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, true, &mut rng()).unwrap();
        let x = init::uniform(&[1, 2, 6, 6], -1.0, 1.0, &mut rng());
        let y32 = conv.forward(&x, ForwardMode::Fp32).unwrap();
        let y8 = conv
            .forward(&x, ForwardMode::Int8(Rounding::Nearest))
            .unwrap();
        let rel = y32.sub(&y8).unwrap().frobenius_norm() / (y32.frobenius_norm() + 1e-6);
        assert!(rel < 0.12, "relative error {rel}");
    }

    #[test]
    fn int8_backward_accumulates() {
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, true, &mut rng()).unwrap();
        let x = init::uniform(&[1, 1, 5, 5], -1.0, 1.0, &mut rng());
        let y = conv
            .forward(&x, ForwardMode::Int8(Rounding::Stochastic))
            .unwrap();
        conv.backward(&Tensor::ones(y.shape())).unwrap();
        assert!(conv.grad_weight().max_abs() > 0.0);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, false, &mut rng()).unwrap();
        assert!(conv.backward(&Tensor::ones(&[1, 1, 4, 4])).is_err());
    }

    #[test]
    fn relu_mask_stays_in_rows_layout_and_gradient_shape_is_checked() {
        for mode in [ForwardMode::Fp32, ForwardMode::Int8(Rounding::Nearest)] {
            for fused_relu in [true, false] {
                let mut conv = Conv2d::new(2, 3, 3, 2, 1, fused_relu, &mut rng()).unwrap();
                let x = init::uniform(&[2, 2, 6, 6], -1.0, 1.0, &mut rng());
                let y = conv.forward(&x, mode).unwrap();
                assert_eq!(y.shape(), &[2, 3, 3, 3]);
                let mask_shape = conv.cached_mask.as_ref().map(|m| m.shape().to_vec());
                assert_eq!(mask_shape, fused_relu.then(|| vec![2 * 3 * 3, 3]));
                // Same element count, wrong layout: still rejected.
                for bad in [[2, 3, 3, 4], [3, 2, 3, 3]] {
                    assert!(matches!(
                        conv.backward(&Tensor::ones(&bad)),
                        Err(NnError::Tensor(TensorError::ShapeMismatch { .. }))
                    ));
                }
                let gi = conv.backward(&Tensor::ones(y.shape())).unwrap();
                assert_eq!(gi.shape(), x.shape());
            }
        }
    }

    #[test]
    fn transpose_each_matches_the_index_formula() {
        // Long side first and second, tiles that do not divide it, several
        // images, a single row/column, and nothing at all.
        for (images, rows, cols) in [(3, 37, 5), (3, 5, 37), (2, 16, 16), (1, 1, 9), (4, 0, 3)] {
            let src: Vec<f32> = (0..images * rows * cols).map(|i| i as f32).collect();
            let out = transpose_each(&src, rows, cols);
            assert_eq!(out.len(), src.len());
            for img in 0..images {
                for r in 0..rows {
                    for c in 0..cols {
                        let base = img * rows * cols;
                        assert_eq!(out[base + c * rows + r], src[base + r * cols + c]);
                    }
                }
            }
        }
    }

    #[test]
    fn weight_plan_rebuilt_only_after_step() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, true, &mut rng()).unwrap();
        let x = init::uniform(&[1, 2, 6, 6], -1.0, 1.0, &mut rng());
        let y1 = conv
            .forward(&x, ForwardMode::Int8(Rounding::Nearest))
            .unwrap();
        let y2 = conv
            .forward(&x, ForwardMode::Int8(Rounding::Nearest))
            .unwrap();
        assert_eq!(conv.weight_plan_builds(), 1);
        assert_eq!(y1.data(), y2.data(), "cached plan must be bit-stable");
        conv.backward(&Tensor::ones(y2.shape())).unwrap();
        let mut sgd = Sgd::new(0.1, 0.0);
        sgd.step(&mut conv.params_mut());
        let y3 = conv
            .forward(&x, ForwardMode::Int8(Rounding::Nearest))
            .unwrap();
        assert_eq!(conv.weight_plan_builds(), 2);
        assert!(
            y3.sub(&y2).unwrap().max_abs() > 0.0,
            "post-step forward must see the updated weights"
        );
    }

    #[test]
    fn mode_switch_clears_quantized_state() {
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, false, &mut rng()).unwrap();
        let x = init::uniform(&[1, 1, 5, 5], -1.0, 1.0, &mut rng());
        conv.forward(&x, ForwardMode::Int8(Rounding::Nearest))
            .unwrap();
        assert!(conv.cols_plan.is_some());
        conv.forward(&x, ForwardMode::Fp32).unwrap();
        assert!(
            conv.cols_plan.is_none(),
            "switching to Fp32 must drop the quantized column plan"
        );
        conv.backward(&Tensor::ones(&[1, 2, 5, 5])).unwrap();
    }

    #[test]
    fn backward_params_only_matches_backward_on_parameter_gradients() {
        let x = init::uniform(&[2, 2, 6, 6], -1.0, 1.0, &mut rng());
        let g1 = init::uniform(&[2, 3, 3, 3], -1.0, 1.0, &mut rng());
        let g2 = init::uniform(&[2, 3, 3, 3], -0.1, 0.1, &mut rng());
        let conv = Conv2d::new(2, 3, 3, 2, 1, true, &mut rng()).unwrap();
        crate::layer::assert_params_only_matches_backward(|| conv.clone(), &x, &[&g1, &g2]);
    }

    #[test]
    fn int8_forward_retains_no_fp32_columns() {
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, false, &mut rng()).unwrap();
        let x = init::uniform(&[1, 1, 5, 5], -1.0, 1.0, &mut rng());
        conv.forward(&x, ForwardMode::Fp32).unwrap();
        assert!(conv.cached_cols.is_some());
        conv.forward(&x, ForwardMode::Int8(Rounding::Nearest))
            .unwrap();
        assert!(conv.cached_cols.is_none(), "INT8 keeps only the plan");
        conv.backward(&Tensor::ones(&[1, 2, 5, 5])).unwrap();
    }

    #[test]
    fn macs_counted_after_forward() {
        let mut conv = Conv2d::new(1, 2, 3, 1, 0, false, &mut rng()).unwrap();
        conv.forward(&Tensor::ones(&[1, 1, 5, 5]), ForwardMode::Fp32)
            .unwrap();
        // output 3x3, 2 out channels, 1x3x3 kernel
        assert_eq!(conv.forward_macs(1), (2 * 3 * 3 * 9) as u64);
    }
}
