//! Element-wise operations, reductions and broadcasting helpers on [`Tensor`].

use crate::{Result, Tensor, TensorError};

impl Tensor {
    fn check_same_shape(&self, other: &Tensor, op: &'static str) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().to_vec(),
                right: other.shape().to_vec(),
                op,
            });
        }
        Ok(())
    }

    /// Element-wise sum of two tensors of identical shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    ///
    /// # Examples
    ///
    /// ```
    /// # use ff_tensor::Tensor;
    /// # fn main() -> Result<(), ff_tensor::TensorError> {
    /// let s = Tensor::ones(&[2]).add(&Tensor::ones(&[2]))?;
    /// assert_eq!(s.data(), &[2.0, 2.0]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other, "add")?;
        let data = self
            .data()
            .iter()
            .zip(other.data())
            .map(|(a, b)| a + b)
            .collect();
        Tensor::from_vec(self.shape(), data)
    }

    /// In-place element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        self.check_same_shape(other, "add_assign")?;
        for (a, b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += b;
        }
        Ok(())
    }

    /// In-place `self += alpha * other` (axpy).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add_scaled_assign(&mut self, other: &Tensor, alpha: f32) -> Result<()> {
        self.check_same_shape(other, "add_scaled_assign")?;
        for (a, b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Element-wise difference of two tensors of identical shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other, "sub")?;
        let data = self
            .data()
            .iter()
            .zip(other.data())
            .map(|(a, b)| a - b)
            .collect();
        Tensor::from_vec(self.shape(), data)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn mul_elem(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other, "mul_elem")?;
        let data = self
            .data()
            .iter()
            .zip(other.data())
            .map(|(a, b)| a * b)
            .collect();
        Tensor::from_vec(self.shape(), data)
    }

    /// Multiplies every element by `factor`, returning a new tensor.
    pub fn scale(&self, factor: f32) -> Tensor {
        self.map(|x| x * factor)
    }

    /// Multiplies every element by `factor` in place.
    pub fn scale_inplace(&mut self, factor: f32) {
        for v in self.data_mut() {
            *v *= factor;
        }
    }

    /// Adds `value` to every element, returning a new tensor.
    pub fn add_scalar(&self, value: f32) -> Tensor {
        self.map(|x| x + value)
    }

    /// Applies `f` to every element, returning a new tensor.
    ///
    /// # Examples
    ///
    /// ```
    /// # use ff_tensor::Tensor;
    /// let sq = Tensor::from_slice(&[2], &[2.0, 3.0]).unwrap().map(|x| x * x);
    /// assert_eq!(sq.data(), &[4.0, 9.0]);
    /// ```
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        let data = self.data().iter().map(|&x| f(x)).collect();
        Tensor::from_vec(self.shape(), data).expect("map preserves element count")
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for v in self.data_mut() {
            *v = f(*v);
        }
    }

    /// Rectified linear unit applied element-wise.
    pub fn relu(&self) -> Tensor {
        self.map(|x| x.max(0.0))
    }

    /// Mask of the ReLU derivative: `1.0` where the element is positive,
    /// `0.0` otherwise.
    pub fn relu_grad_mask(&self) -> Tensor {
        self.map(|x| if x > 0.0 { 1.0 } else { 0.0 })
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Arithmetic mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Largest absolute value (0 for an empty tensor); NaNs are ignored.
    pub fn max_abs(&self) -> f32 {
        // Independent running maxima per lane let the reduction vectorize; a
        // single serial `fold` is a loop-carried dependency LLVM must keep
        // scalar. `max` over non-negative values is order-independent and
        // `f32::max` drops NaN operands, so the result equals the serial fold.
        const LANES: usize = 16;
        let mut lanes = [0.0f32; LANES];
        let mut chunks = self.data().chunks_exact(LANES);
        for chunk in chunks.by_ref() {
            for (m, &x) in lanes.iter_mut().zip(chunk) {
                *m = m.max(x.abs());
            }
        }
        chunks
            .remainder()
            .iter()
            .chain(&lanes)
            .fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Minimum element value.
    pub fn min_value(&self) -> f32 {
        self.data().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Maximum element value.
    pub fn max_value(&self) -> f32 {
        self.data()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Frobenius norm (square root of the sum of squares).
    pub fn frobenius_norm(&self) -> f32 {
        self.data().iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Column sums of a `[rows, cols]` view: returns a `[cols]` tensor.
    ///
    /// Used for bias gradients (sum over the batch dimension).
    pub fn sum_axis0(&self) -> Tensor {
        let rows = self.rows();
        let cols = self.cols();
        let mut out = vec![0.0f32; cols];
        for r in 0..rows {
            for (o, v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        Tensor::from_vec(&[cols], out).expect("sum_axis0 shape")
    }

    /// Per-row sums of a `[rows, cols]` view: returns a `[rows]` tensor.
    pub fn sum_rows(&self) -> Tensor {
        let rows = self.rows();
        let data: Vec<f32> = (0..rows).map(|r| self.row(r).iter().sum()).collect();
        Tensor::from_vec(&[rows], data).expect("sum_rows shape")
    }

    /// Per-row sum of squares of a `[rows, cols]` view.
    ///
    /// This is the Forward-Forward "goodness" of each sample when applied to a
    /// layer-activation matrix.
    pub fn sum_squares_rows(&self) -> Vec<f32> {
        let rows = self.rows();
        (0..rows)
            .map(|r| self.row(r).iter().map(|x| x * x).sum())
            .collect()
    }

    /// Index of the maximum element in each row of a `[rows, cols]` view.
    pub fn argmax_rows(&self) -> Vec<usize> {
        let rows = self.rows();
        (0..rows)
            .map(|r| {
                self.row(r)
                    .iter()
                    .enumerate()
                    .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
                        if v > bv {
                            (i, v)
                        } else {
                            (bi, bv)
                        }
                    })
                    .0
            })
            .collect()
    }

    /// L2-normalises each row of a `[rows, cols]` view.
    ///
    /// This is the layer-normalisation step used between Forward-Forward
    /// layers so later layers cannot trivially inherit goodness magnitude.
    pub fn normalize_rows(&self, epsilon: f32) -> Tensor {
        let rows = self.rows();
        let cols = self.cols();
        let mut out = self.clone();
        for r in 0..rows {
            let norm = (self.row(r).iter().map(|x| x * x).sum::<f32>()).sqrt() + epsilon;
            for c in 0..cols {
                out.data_mut()[r * cols + c] = self.data()[r * cols + c] / norm;
            }
        }
        out
    }

    /// Broadcast-adds a `[cols]` bias vector to every row of a `[rows, cols]`
    /// tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the bias length differs
    /// from the number of columns.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Result<Tensor> {
        let cols = self.cols();
        if bias.len() != cols {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().to_vec(),
                right: bias.shape().to_vec(),
                op: "add_row_broadcast",
            });
        }
        let rows = self.rows();
        let mut out = self.clone();
        for r in 0..rows {
            for (o, b) in out.row_mut(r).iter_mut().zip(bias.data()) {
                *o += b;
            }
        }
        Ok(out)
    }

    /// Clamps every element into `[lo, hi]`, returning a new tensor.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|x| x.clamp(lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2() -> Tensor {
        Tensor::from_vec(&[2, 3], vec![1., -2., 3., 4., -5., 6.]).unwrap()
    }

    #[test]
    fn add_sub_mul() {
        let a = t2();
        let b = Tensor::ones(&[2, 3]);
        assert_eq!(a.add(&b).unwrap().data()[1], -1.0);
        assert_eq!(a.sub(&b).unwrap().data()[0], 0.0);
        assert_eq!(a.mul_elem(&b).unwrap().data(), a.data());
        assert!(a.add(&Tensor::ones(&[3, 2])).is_err());
    }

    #[test]
    fn add_assign_and_axpy() {
        let mut a = Tensor::zeros(&[2, 2]);
        a.add_assign(&Tensor::ones(&[2, 2])).unwrap();
        a.add_scaled_assign(&Tensor::ones(&[2, 2]), 0.5).unwrap();
        assert_eq!(a.data(), &[1.5; 4]);
        assert!(a.add_assign(&Tensor::ones(&[3])).is_err());
    }

    #[test]
    fn scale_and_map() {
        let a = t2();
        assert_eq!(a.scale(2.0).data()[0], 2.0);
        let mut b = a.clone();
        b.scale_inplace(0.0);
        assert_eq!(b.sum(), 0.0);
        assert_eq!(a.add_scalar(1.0).data()[1], -1.0);
        let mut c = a.clone();
        c.map_inplace(f32::abs);
        assert!(c.min_value() >= 0.0);
    }

    #[test]
    fn relu_and_mask() {
        let a = t2();
        let r = a.relu();
        assert_eq!(r.data(), &[1., 0., 3., 4., 0., 6.]);
        let m = a.relu_grad_mask();
        assert_eq!(m.data(), &[1., 0., 1., 1., 0., 1.]);
    }

    #[test]
    fn reductions() {
        let a = t2();
        assert_eq!(a.sum(), 7.0);
        assert!((a.mean() - 7.0 / 6.0).abs() < 1e-6);
        assert_eq!(a.max_abs(), 6.0);
        assert_eq!(a.min_value(), -5.0);
        assert_eq!(a.max_value(), 6.0);
        let expected = (1f32 + 4. + 9. + 16. + 25. + 36.).sqrt();
        assert!((a.frobenius_norm() - expected).abs() < 1e-5);
    }

    #[test]
    fn max_abs_matches_serial_fold_and_ignores_nan() {
        for len in [0usize, 1, 15, 16, 17, 100] {
            let mut data: Vec<f32> = (0..len).map(|i| ((i * 37) % 23) as f32 - 11.5).collect();
            if len > 3 {
                data[3] = f32::NAN;
                data[len - 1] = -0.0;
            }
            let serial = data.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            let t = Tensor::from_vec(&[len], data).unwrap();
            assert_eq!(t.max_abs().to_bits(), serial.to_bits(), "len {len}");
        }
    }

    #[test]
    fn axis_reductions() {
        let a = t2();
        assert_eq!(a.sum_axis0().data(), &[5., -7., 9.]);
        assert_eq!(a.sum_rows().data(), &[2., 5.]);
        assert_eq!(a.sum_squares_rows(), vec![14., 77.]);
    }

    #[test]
    fn argmax_rows_finds_max() {
        let a = t2();
        assert_eq!(a.argmax_rows(), vec![2, 2]);
    }

    #[test]
    fn normalize_rows_has_unit_norm() {
        let a = t2();
        let n = a.normalize_rows(0.0);
        for r in 0..2 {
            let norm: f32 = n.row(r).iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!((norm - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn row_broadcast_bias() {
        let a = Tensor::zeros(&[2, 3]);
        let bias = Tensor::from_slice(&[3], &[1., 2., 3.]).unwrap();
        let out = a.add_row_broadcast(&bias).unwrap();
        assert_eq!(out.row(1), &[1., 2., 3.]);
        assert!(a.add_row_broadcast(&Tensor::ones(&[4])).is_err());
    }

    #[test]
    fn clamp_bounds_values() {
        let a = t2();
        let c = a.clamp(-1.0, 1.0);
        assert_eq!(c.min_value(), -1.0);
        assert_eq!(c.max_value(), 1.0);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(Tensor::zeros(&[0]).mean(), 0.0);
    }
}
