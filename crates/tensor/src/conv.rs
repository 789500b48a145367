//! Convolution and pooling kernels (im2col-based).
//!
//! Layout conventions: activations are `[batch, channels, height, width]`,
//! convolution weights are `[out_ch, in_ch, kh, kw]`.

use crate::par::{shard_rows, worker_count};
use crate::{linalg, Result, Tensor, TensorError};

/// Spatial geometry of a 2-D convolution or pooling operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding added to each spatial border.
    pub padding: usize,
}

impl ConvGeometry {
    /// Creates a square-kernel geometry.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] when `kernel` or `stride` is
    /// zero.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Result<Self> {
        if kernel == 0 || stride == 0 {
            return Err(TensorError::InvalidParameter {
                message: format!("kernel ({kernel}) and stride ({stride}) must be non-zero"),
            });
        }
        Ok(ConvGeometry {
            kh: kernel,
            kw: kernel,
            stride,
            padding,
        })
    }

    /// Output spatial size for an input of `h × w`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] when the kernel does not fit
    /// in the padded input.
    pub fn output_size(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        let ph = h + 2 * self.padding;
        let pw = w + 2 * self.padding;
        if ph < self.kh || pw < self.kw {
            return Err(TensorError::InvalidParameter {
                message: format!(
                    "kernel {}x{} larger than padded input {ph}x{pw}",
                    self.kh, self.kw
                ),
            });
        }
        Ok((
            (ph - self.kh) / self.stride + 1,
            (pw - self.kw) / self.stride + 1,
        ))
    }
}

fn expect_rank4(t: &Tensor, op: &'static str) -> Result<(usize, usize, usize, usize)> {
    if t.ndim() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: t.ndim(),
            op,
        });
    }
    let s = t.shape();
    Ok((s[0], s[1], s[2], s[3]))
}

/// Unfolds an `[n, c, h, w]` input into a `[n·oh·ow, c·kh·kw]` patch matrix.
///
/// Each row holds one receptive field so that convolution reduces to a single
/// matrix product with the flattened weights.
///
/// # Errors
///
/// Returns a rank or parameter error when the input is not rank-4 or the
/// kernel does not fit.
pub fn im2col(input: &Tensor, geom: ConvGeometry) -> Result<(Tensor, usize, usize)> {
    let (n, c, h, w) = expect_rank4(input, "im2col")?;
    let (oh, ow) = geom.output_size(h, w)?;
    let row_len = c * geom.kh * geom.kw;
    let mut out = vec![0.0f32; n * oh * ow * row_len];
    let data = input.data();
    for img in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row_idx = (img * oh + oy) * ow + ox;
                let row = &mut out[row_idx * row_len..(row_idx + 1) * row_len];
                let mut col = 0;
                for ch in 0..c {
                    for ky in 0..geom.kh {
                        let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                        for kx in 0..geom.kw {
                            let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                            if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                                let src = ((img * c + ch) * h + iy as usize) * w + ix as usize;
                                row[col] = data[src];
                            }
                            col += 1;
                        }
                    }
                }
            }
        }
    }
    Ok((Tensor::from_vec(&[n * oh * ow, row_len], out)?, oh, ow))
}

/// Folds a `[n·oh·ow, c·kh·kw]` patch-gradient matrix back into an
/// `[n, c, h, w]` input gradient (the adjoint of [`im2col`]).
///
/// # Errors
///
/// Returns [`TensorError::ElementCountMismatch`] when the column matrix does
/// not match the given geometry.
pub fn col2im(
    cols: &Tensor,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    geom: ConvGeometry,
) -> Result<Tensor> {
    let (oh, ow) = geom.output_size(h, w)?;
    let row_len = c * geom.kh * geom.kw;
    if cols.len() != n * oh * ow * row_len {
        return Err(TensorError::ElementCountMismatch {
            shape: vec![n * oh * ow, row_len],
            provided: cols.len(),
        });
    }
    let mut out = vec![0.0f32; n * c * h * w];
    let data = cols.data();
    for img in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row_idx = (img * oh + oy) * ow + ox;
                let row = &data[row_idx * row_len..(row_idx + 1) * row_len];
                let mut col = 0;
                for ch in 0..c {
                    for ky in 0..geom.kh {
                        let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                        for kx in 0..geom.kw {
                            let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                            if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                                let dst = ((img * c + ch) * h + iy as usize) * w + ix as usize;
                                out[dst] += row[col];
                            }
                            col += 1;
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(&[n, c, h, w], out)
}

/// Input gradient of a convolution: `col2im(matmul(grad_rows, W))` for
/// `grad_rows [n·oh·ow, oc]` (output gradient, one row per output position)
/// and `weight [oc, c, kh, kw]` read as the `[oc, c·kh·kw]` matrix `W` —
/// without materialising the `[n·oh·ow, c·kh·kw]` column-gradient matrix.
///
/// Each output position's `c·kh·kw` products are formed in a small buffer
/// exactly as [`linalg::matmul`] forms that row (start at 0.0, ascending
/// `oc`, zero gradients skipped) and folded into the image straight away, in
/// [`col2im`]'s `(img, oy, ox)` order, so every element sees the additions of
/// the two-call sequence in the same order: the result is bit-identical to
/// it. Images write disjoint output and are sharded across worker threads.
///
/// # Errors
///
/// Returns rank/shape errors when `weight` does not match `geom`, the kernel
/// does not fit the `h × w` input, or `grad_rows` is not `[n·oh·ow, oc]`.
pub fn conv2d_input_grad(
    grad_rows: &Tensor,
    weight: &Tensor,
    n: usize,
    h: usize,
    w: usize,
    geom: ConvGeometry,
) -> Result<Tensor> {
    input_grad_on(grad_rows, weight, (n, h, w), geom, None)
}

/// [`conv2d_input_grad`] on `threads` workers (`None` picks by work size).
fn input_grad_on(
    grad_rows: &Tensor,
    weight: &Tensor,
    (n, h, w): (usize, usize, usize),
    geom: ConvGeometry,
    threads: Option<usize>,
) -> Result<Tensor> {
    let (oc, c, wkh, wkw) = expect_rank4(weight, "conv2d_input_grad")?;
    let (oh, ow) = geom.output_size(h, w)?;
    if wkh != geom.kh || wkw != geom.kw || grad_rows.shape() != [n * oh * ow, oc] {
        return Err(TensorError::ShapeMismatch {
            left: grad_rows.shape().to_vec(),
            right: weight.shape().to_vec(),
            op: "conv2d_input_grad",
        });
    }
    let row_len = c * geom.kh * geom.kw;
    let image_len = c * h * w;
    let (grad, weight) = (grad_rows.data(), weight.data());
    let threads = threads.unwrap_or_else(|| worker_count(grad.len() * row_len, n));
    let mut out = vec![0.0f32; n * image_len];
    let fold_images = |first_img: usize, panel: &mut [f32], _: Option<&mut [f32]>| {
        let mut patch = vec![0.0f32; row_len];
        for (i, image) in panel.chunks_mut(image_len).enumerate() {
            let first_row = (first_img + i) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let row_idx = first_row + oy * ow + ox;
                    patch.fill(0.0);
                    for (p, &g) in grad[row_idx * oc..(row_idx + 1) * oc].iter().enumerate() {
                        if g == 0.0 {
                            continue;
                        }
                        let w_row = &weight[p * row_len..(p + 1) * row_len];
                        for (acc, &w_pj) in patch.iter_mut().zip(w_row) {
                            *acc += g * w_pj;
                        }
                    }
                    fold_patch(&patch, image, (c, h, w), (oy, ox), geom);
                }
            }
        }
    };
    // An empty image has nothing to fold (and no row width to shard by).
    if image_len > 0 {
        shard_rows(&mut out, None, image_len, 1, threads, fold_images)?;
    }
    Tensor::from_vec(&[n, c, h, w], out)
}

/// Adds one output position's `[c, kh, kw]` patch gradient onto its
/// receptive field in a `[c, h, w]` image. A patch touches each pixel at most
/// once, so only the order *between* patches is observable; within one the
/// in-bounds part of every kernel row is a contiguous run of pixels.
fn fold_patch(
    patch: &[f32],
    image: &mut [f32],
    (c, h, w): (usize, usize, usize),
    (oy, ox): (usize, usize),
    geom: ConvGeometry,
) {
    let (y0, x0) = (oy * geom.stride, ox * geom.stride);
    // Kernel columns whose pixel `x0 + kx − padding` lies in `0..w`.
    let kx_lo = geom.padding.saturating_sub(x0).min(geom.kw);
    let kx_hi = (w + geom.padding).saturating_sub(x0).min(geom.kw);
    if kx_lo >= kx_hi {
        return;
    }
    for ch in 0..c {
        for ky in 0..geom.kh {
            let iy = match (y0 + ky).checked_sub(geom.padding) {
                Some(iy) if iy < h => iy,
                _ => continue,
            };
            let src = &patch[(ch * geom.kh + ky) * geom.kw..][kx_lo..kx_hi];
            let dst_first = (ch * h + iy) * w + x0 + kx_lo - geom.padding;
            for (d, &s) in image[dst_first..].iter_mut().zip(src) {
                *d += s;
            }
        }
    }
}

/// 2-D convolution of `input [n, c, h, w]` with `weight [oc, c, kh, kw]` and an
/// optional `[oc]` bias, producing `[n, oc, oh, ow]`.
///
/// # Errors
///
/// Returns shape/rank errors when operands are inconsistent with `geom`.
///
/// # Examples
///
/// ```
/// use ff_tensor::conv::{conv2d, ConvGeometry};
/// use ff_tensor::Tensor;
///
/// # fn main() -> Result<(), ff_tensor::TensorError> {
/// let input = Tensor::ones(&[1, 1, 3, 3]);
/// let weight = Tensor::ones(&[1, 1, 3, 3]);
/// let out = conv2d(&input, &weight, None, ConvGeometry::new(3, 1, 0)?)?;
/// assert_eq!(out.data(), &[9.0]);
/// # Ok(())
/// # }
/// ```
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    geom: ConvGeometry,
) -> Result<Tensor> {
    let (n, c, _h, _w) = expect_rank4(input, "conv2d")?;
    let (oc, wc, wkh, wkw) = expect_rank4(weight, "conv2d")?;
    if wc != c || wkh != geom.kh || wkw != geom.kw {
        return Err(TensorError::ShapeMismatch {
            left: input.shape().to_vec(),
            right: weight.shape().to_vec(),
            op: "conv2d",
        });
    }
    let (cols, oh, ow) = im2col(input, geom)?;
    let weight_mat = weight.reshape(&[oc, c * geom.kh * geom.kw])?;
    // [n·oh·ow, row_len] × [row_len, oc]  (via a·bᵀ with weight rows)
    let out_mat = linalg::matmul_a_bt(&cols, &weight_mat)?;
    let mut out = vec![0.0f32; n * oc * oh * ow];
    let src = out_mat.data();
    for img in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row_idx = (img * oh + oy) * ow + ox;
                for ch in 0..oc {
                    let mut v = src[row_idx * oc + ch];
                    if let Some(b) = bias {
                        v += b.data()[ch];
                    }
                    out[((img * oc + ch) * oh + oy) * ow + ox] = v;
                }
            }
        }
    }
    Tensor::from_vec(&[n, oc, oh, ow], out)
}

/// Output of [`max_pool2d`]: pooled activations plus the flat input index of
/// every selected maximum (needed for the backward pass).
#[derive(Debug, Clone, PartialEq)]
pub struct MaxPoolOutput {
    /// Pooled `[n, c, oh, ow]` activations.
    pub output: Tensor,
    /// For each pooled element, the flat index into the input buffer that won.
    pub argmax: Vec<usize>,
}

/// 2-D max pooling.
///
/// # Errors
///
/// Returns rank/parameter errors when the input is not rank-4 or the window
/// does not fit.
pub fn max_pool2d(input: &Tensor, geom: ConvGeometry) -> Result<MaxPoolOutput> {
    let (n, c, h, w) = expect_rank4(input, "max_pool2d")?;
    let (oh, ow) = geom.output_size(h, w)?;
    let mut out = vec![f32::NEG_INFINITY; n * c * oh * ow];
    let mut argmax = vec![0usize; n * c * oh * ow];
    let data = input.data();
    for img in 0..n {
        for ch in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let dst = ((img * c + ch) * oh + oy) * ow + ox;
                    for ky in 0..geom.kh {
                        let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                        if iy < 0 || iy as usize >= h {
                            continue;
                        }
                        for kx in 0..geom.kw {
                            let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                            if ix < 0 || ix as usize >= w {
                                continue;
                            }
                            let src = ((img * c + ch) * h + iy as usize) * w + ix as usize;
                            if data[src] > out[dst] {
                                out[dst] = data[src];
                                argmax[dst] = src;
                            }
                        }
                    }
                    if out[dst] == f32::NEG_INFINITY {
                        out[dst] = 0.0;
                    }
                }
            }
        }
    }
    Ok(MaxPoolOutput {
        output: Tensor::from_vec(&[n, c, oh, ow], out)?,
        argmax,
    })
}

/// 2-D average pooling.
///
/// # Errors
///
/// Returns rank/parameter errors when the input is not rank-4 or the window
/// does not fit.
pub fn avg_pool2d(input: &Tensor, geom: ConvGeometry) -> Result<Tensor> {
    let (n, c, h, w) = expect_rank4(input, "avg_pool2d")?;
    let (oh, ow) = geom.output_size(h, w)?;
    let mut out = vec![0.0f32; n * c * oh * ow];
    let data = input.data();
    let window = (geom.kh * geom.kw) as f32;
    for img in 0..n {
        for ch in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0;
                    for ky in 0..geom.kh {
                        let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                        if iy < 0 || iy as usize >= h {
                            continue;
                        }
                        for kx in 0..geom.kw {
                            let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                            if ix < 0 || ix as usize >= w {
                                continue;
                            }
                            acc += data[((img * c + ch) * h + iy as usize) * w + ix as usize];
                        }
                    }
                    out[((img * c + ch) * oh + oy) * ow + ox] = acc / window;
                }
            }
        }
    }
    Tensor::from_vec(&[n, c, oh, ow], out)
}

/// Global average pooling: `[n, c, h, w] → [n, c]`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-rank-4 input.
pub fn global_avg_pool(input: &Tensor) -> Result<Tensor> {
    let (n, c, h, w) = expect_rank4(input, "global_avg_pool")?;
    let area = (h * w) as f32;
    let mut out = vec![0.0f32; n * c];
    let data = input.data();
    for img in 0..n {
        for ch in 0..c {
            let base = (img * c + ch) * h * w;
            out[img * c + ch] = data[base..base + h * w].iter().sum::<f32>() / area;
        }
    }
    Tensor::from_vec(&[n, c], out)
}

/// Distributes a `[n, c]` gradient uniformly back over `[n, c, h, w]`
/// (the adjoint of [`global_avg_pool`]).
///
/// # Errors
///
/// Returns [`TensorError::ElementCountMismatch`] when the gradient does not
/// have `n · c` elements.
pub fn global_avg_pool_backward(
    grad: &Tensor,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
) -> Result<Tensor> {
    if grad.len() != n * c {
        return Err(TensorError::ElementCountMismatch {
            shape: vec![n, c],
            provided: grad.len(),
        });
    }
    let area = (h * w) as f32;
    let mut out = vec![0.0f32; n * c * h * w];
    for img in 0..n {
        for ch in 0..c {
            let g = grad.data()[img * c + ch] / area;
            let base = (img * c + ch) * h * w;
            for v in &mut out[base..base + h * w] {
                *v = g;
            }
        }
    }
    Tensor::from_vec(&[n, c, h, w], out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_tensor(shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::from_vec(shape, (0..n).map(|x| x as f32).collect()).unwrap()
    }

    #[test]
    fn geometry_validation() {
        assert!(ConvGeometry::new(0, 1, 0).is_err());
        assert!(ConvGeometry::new(3, 0, 0).is_err());
        let g = ConvGeometry::new(3, 1, 1).unwrap();
        assert_eq!(g.output_size(4, 4).unwrap(), (4, 4));
        assert!(g.output_size(0, 0).is_err());
    }

    #[test]
    fn im2col_shape_and_content() {
        let input = seq_tensor(&[1, 1, 3, 3]);
        let (cols, oh, ow) = im2col(&input, ConvGeometry::new(2, 1, 0).unwrap()).unwrap();
        assert_eq!((oh, ow), (2, 2));
        assert_eq!(cols.shape(), &[4, 4]);
        // first patch is rows [0 1; 3 4]
        assert_eq!(cols.row(0), &[0., 1., 3., 4.]);
        assert_eq!(cols.row(3), &[4., 5., 7., 8.]);
    }

    #[test]
    fn conv2d_matches_direct_computation() {
        let input = seq_tensor(&[1, 1, 3, 3]);
        let weight = Tensor::from_vec(&[1, 1, 2, 2], vec![1., 0., 0., 1.]).unwrap();
        let out = conv2d(&input, &weight, None, ConvGeometry::new(2, 1, 0).unwrap()).unwrap();
        // each output = top-left + bottom-right of the 2x2 window
        assert_eq!(out.data(), &[4., 6., 10., 12.]);
    }

    #[test]
    fn conv2d_bias_and_padding() {
        let input = Tensor::ones(&[1, 1, 2, 2]);
        let weight = Tensor::ones(&[2, 1, 3, 3]);
        let bias = Tensor::from_slice(&[2], &[1.0, -1.0]).unwrap();
        let out = conv2d(
            &input,
            &weight,
            Some(&bias),
            ConvGeometry::new(3, 1, 1).unwrap(),
        )
        .unwrap();
        assert_eq!(out.shape(), &[1, 2, 2, 2]);
        // centre of padded 2x2 ones covered by 3x3 kernel sums 4 ones
        assert_eq!(out.data()[0], 5.0);
        assert_eq!(out.data()[4], 3.0);
    }

    #[test]
    fn conv2d_rejects_mismatched_weight() {
        let input = Tensor::ones(&[1, 2, 4, 4]);
        let weight = Tensor::ones(&[1, 3, 3, 3]);
        assert!(conv2d(&input, &weight, None, ConvGeometry::new(3, 1, 0).unwrap()).is_err());
    }

    #[test]
    fn col2im_is_adjoint_of_im2col_for_ones() {
        // For stride 1 / no padding, col2im(im2col(x)) counts how many patches
        // cover each pixel.
        let input = Tensor::ones(&[1, 1, 3, 3]);
        let geom = ConvGeometry::new(2, 1, 0).unwrap();
        let (cols, _, _) = im2col(&input, geom).unwrap();
        let folded = col2im(&cols, 1, 1, 3, 3, geom).unwrap();
        assert_eq!(folded.data(), &[1., 2., 1., 2., 4., 2., 1., 2., 1.]);
    }

    #[test]
    fn input_grad_is_bit_identical_to_matmul_then_col2im() {
        // Values with long mantissas so any reordering of the additions
        // would show; `keep_every` zeroes gradients to exercise the skip.
        let values = |len: usize, salt: usize, keep_every: usize| -> Vec<f32> {
            (0..len)
                .map(|i| {
                    if keep_every == 0 || i % keep_every != 0 {
                        return 0.0;
                    }
                    (((i * 2_654_435_761 + salt) % 20_011) as f32 - 10_005.0) / 7_919.0
                })
                .collect()
        };
        let (c, oc, h, w) = (3, 5, 7, 6);
        for kernel in [1, 3] {
            for stride in [1, 2, 3] {
                for padding in [0, 1] {
                    let geom = ConvGeometry::new(kernel, stride, padding).unwrap();
                    let (oh, ow) = geom.output_size(h, w).unwrap();
                    let weight = Tensor::from_vec(
                        &[oc, c, kernel, kernel],
                        values(oc * c * kernel * kernel, 7, 1),
                    )
                    .unwrap();
                    let weight_mat = weight.reshape(&[oc, c * kernel * kernel]).unwrap();
                    for n in [1, 5] {
                        // Dense, half-zero and all-zero gradients.
                        for keep_every in [1, 2, 0] {
                            let rows = n * oh * ow;
                            let grad =
                                Tensor::from_vec(&[rows, oc], values(rows * oc, 3, keep_every))
                                    .unwrap();
                            let cols = linalg::matmul(&grad, &weight_mat).unwrap();
                            let expected = col2im(&cols, n, c, h, w, geom).unwrap();
                            let case =
                                format!("k{kernel} s{stride} p{padding} n{n} keep{keep_every}");
                            let bits = |t: &Tensor| {
                                t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                            };
                            let auto = conv2d_input_grad(&grad, &weight, n, h, w, geom).unwrap();
                            assert_eq!(auto.shape(), expected.shape(), "{case}");
                            assert_eq!(bits(&auto), bits(&expected), "{case}");
                            for threads in [1, 2, 3, 8] {
                                let forced =
                                    input_grad_on(&grad, &weight, (n, h, w), geom, Some(threads))
                                        .unwrap();
                                assert_eq!(
                                    bits(&forced),
                                    bits(&expected),
                                    "{case} threads {threads}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn input_grad_rejects_inconsistent_operands() {
        let geom = ConvGeometry::new(3, 1, 1).unwrap();
        let weight = Tensor::ones(&[2, 1, 3, 3]);
        let grad = Tensor::ones(&[16, 2]);
        assert!(conv2d_input_grad(&grad, &weight, 1, 4, 4, geom).is_ok());
        // Wrong row count, wrong channel count, kernel ≠ geometry, rank.
        assert!(conv2d_input_grad(&grad, &weight, 2, 4, 4, geom).is_err());
        assert!(conv2d_input_grad(&Tensor::ones(&[16, 3]), &weight, 1, 4, 4, geom).is_err());
        assert!(conv2d_input_grad(&grad, &Tensor::ones(&[2, 1, 1, 1]), 1, 4, 4, geom).is_err());
        assert!(conv2d_input_grad(&grad, &Tensor::ones(&[2, 9]), 1, 4, 4, geom).is_err());
        // No images: an empty gradient of the right shape.
        let empty = conv2d_input_grad(&Tensor::zeros(&[0, 2]), &weight, 0, 4, 4, geom).unwrap();
        assert_eq!(empty.shape(), &[0, 1, 4, 4]);
    }

    #[test]
    fn max_pool_tracks_argmax() {
        let input = seq_tensor(&[1, 1, 4, 4]);
        let pooled = max_pool2d(&input, ConvGeometry::new(2, 2, 0).unwrap()).unwrap();
        assert_eq!(pooled.output.data(), &[5., 7., 13., 15.]);
        assert_eq!(pooled.argmax, vec![5, 7, 13, 15]);
    }

    #[test]
    fn avg_pool_averages_window() {
        let input = seq_tensor(&[1, 1, 2, 2]);
        let out = avg_pool2d(&input, ConvGeometry::new(2, 2, 0).unwrap()).unwrap();
        assert_eq!(out.data(), &[1.5]);
    }

    #[test]
    fn global_avg_pool_and_backward() {
        let input = seq_tensor(&[2, 2, 2, 2]);
        let pooled = global_avg_pool(&input).unwrap();
        assert_eq!(pooled.shape(), &[2, 2]);
        assert_eq!(pooled.data()[0], 1.5);
        let grad = Tensor::ones(&[2, 2]);
        let back = global_avg_pool_backward(&grad, 2, 2, 2, 2).unwrap();
        assert_eq!(back.data()[0], 0.25);
        assert!(global_avg_pool_backward(&grad, 3, 3, 2, 2).is_err());
    }

    #[test]
    fn pooling_rejects_wrong_rank() {
        let input = Tensor::ones(&[2, 2]);
        let geom = ConvGeometry::new(2, 2, 0).unwrap();
        assert!(max_pool2d(&input, geom).is_err());
        assert!(avg_pool2d(&input, geom).is_err());
        assert!(global_avg_pool(&input).is_err());
    }
}
