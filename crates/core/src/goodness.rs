//! Goodness functions and the Forward-Forward losses (paper Eq. 1–2).

use ff_tensor::Tensor;

/// Which side of the Forward-Forward objective a batch belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FfLossKind {
    /// Positive samples: goodness should rise above the threshold θ.
    Positive,
    /// Negative samples: goodness should fall below the threshold θ.
    Negative,
}

/// Per-sample goodness of a layer-activation matrix `[batch, features]`
/// (spatial activations are flattened per sample).
///
/// The paper defines goodness as the sum of squared neural activities
/// (Section III); as in Hinton's reference implementation the value used for
/// training is normalised by the layer width (mean of squares) so that the
/// threshold θ = 2.0 is meaningful independently of how many units a layer
/// has. [`goodness_sum`] exposes the unnormalised variant.
///
/// # Examples
///
/// ```
/// use ff_core::goodness;
/// use ff_tensor::Tensor;
///
/// let y = Tensor::from_vec(&[2, 2], vec![1.0, 3.0, 0.0, 2.0]).unwrap();
/// assert_eq!(goodness(&y), vec![5.0, 2.0]);
/// ```
pub fn goodness(output: &Tensor) -> Vec<f32> {
    let width = output.cols().max(1) as f32;
    output
        .sum_squares_rows()
        .into_iter()
        .map(|g| g / width)
        .collect()
}

/// Per-sample goodness as the raw sum of squared activities `G = Σ y²`
/// (the formulation written in the paper's Section III).
///
/// # Examples
///
/// ```
/// use ff_core::goodness_sum;
/// use ff_tensor::Tensor;
///
/// let y = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 0.0, 0.0, 0.0, 3.0]).unwrap();
/// assert_eq!(goodness_sum(&y), vec![5.0, 9.0]);
/// ```
pub fn goodness_sum(output: &Tensor) -> Vec<f32> {
    output.sum_squares_rows()
}

/// Numerically stable `softplus(x) = ln(1 + eˣ)`.
fn softplus(x: f32) -> f32 {
    if x > 20.0 {
        x
    } else if x < -20.0 {
        x.exp()
    } else {
        (1.0 + x.exp()).ln()
    }
}

/// Numerically stable logistic sigmoid.
fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// The Forward-Forward loss of one batch (paper Eq. 1 for positive samples,
/// Eq. 2 for negative samples), returned together with `∂L/∂G` for each
/// sample.
///
/// * positive: `L = softplus(-(G − θ))`, `∂L/∂G = −σ(−(G − θ))`
/// * negative: `L = softplus(G − θ)`,    `∂L/∂G = σ(G − θ)`
///
/// The loss is averaged over the batch and the per-sample gradients are
/// already divided by the batch size.
pub fn ff_loss(goodness_values: &[f32], theta: f32, kind: FfLossKind) -> (f32, Vec<f32>) {
    ff_loss_scaled(goodness_values, theta, kind, goodness_values.len())
}

/// [`ff_loss`] with an explicit normalisation divisor.
///
/// This is the sharded form of the FF loss: when a batch of `divisor`
/// samples is processed as several contiguous row shards (see
/// [`crate::TrainOptions::grad_shards`] and [`crate::shard`]), each shard
/// passes its *own* goodness values but the *full batch's* row count as
/// `divisor`, so summing the per-shard losses and gradients over all shards
/// reproduces the whole-batch mean objective — the per-shard quantities are
/// partial sums of the batch mean, not means of the shard. With
/// `divisor == goodness_values.len()` this is exactly [`ff_loss`].
pub fn ff_loss_scaled(
    goodness_values: &[f32],
    theta: f32,
    kind: FfLossKind,
    divisor: usize,
) -> (f32, Vec<f32>) {
    let n = divisor.max(1) as f32;
    let mut loss = 0.0f32;
    let mut grad = Vec::with_capacity(goodness_values.len());
    for &g in goodness_values {
        let margin = g - theta;
        match kind {
            FfLossKind::Positive => {
                loss += softplus(-margin);
                grad.push(-sigmoid(-margin) / n);
            }
            FfLossKind::Negative => {
                loss += softplus(margin);
                grad.push(sigmoid(margin) / n);
            }
        }
    }
    (loss / n, grad)
}

/// Converts per-sample `∂L/∂G` values into the gradient w.r.t. the layer
/// output for the width-normalised [`goodness`]:
/// `∂L/∂y = ∂L/∂G · 2y / width`, row by row.
///
/// # Panics
///
/// Panics when `grad_goodness.len()` differs from the number of rows.
pub fn goodness_gradient(output: &Tensor, grad_goodness: &[f32]) -> Tensor {
    assert_eq!(
        output.rows(),
        grad_goodness.len(),
        "one goodness gradient per sample required"
    );
    let mut grad = output.clone();
    let cols = output.cols();
    let width = cols.max(1) as f32;
    for (i, &g) in grad_goodness.iter().enumerate() {
        for v in grad.data_mut()[i * cols..(i + 1) * cols].iter_mut() {
            *v *= 2.0 * g / width;
        }
    }
    grad
}

/// Accumulates per-candidate-label goodness scores for FF-native
/// classification.
///
/// The Forward-Forward classifier tries every candidate label embedding and
/// picks, per sample, the label whose forward pass accumulated the highest
/// total goodness across all trainable units. This accumulator is the shared
/// half of that sweep: [`crate::FfTrainer::predict`] feeds it one candidate
/// at a time during training-time evaluation, while `ff-serve`'s frozen
/// models feed it from a single batched forward pass over **all** candidate
/// overlays at once (its first layer computed once per sample and fanned out
/// to the candidates). Scores are added in layer order either way, so both
/// paths perform the identical sequence of `f32` additions per
/// (sample, candidate) cell.
///
/// # Examples
///
/// ```
/// use ff_core::GoodnessSweep;
///
/// let mut sweep = GoodnessSweep::new(2, 3);
/// sweep.accumulate(0, &[1.0, 5.0]);
/// sweep.accumulate(2, &[9.0, 2.0]);
/// assert_eq!(sweep.predictions(), vec![2, 0]);
/// ```
#[derive(Debug, Clone)]
pub struct GoodnessSweep {
    rows: usize,
    num_classes: usize,
    /// Row-major `[rows, num_classes]` accumulated goodness.
    scores: Vec<f32>,
}

impl GoodnessSweep {
    /// Creates a zero-initialised sweep over `rows` samples and
    /// `num_classes` candidate labels.
    pub fn new(rows: usize, num_classes: usize) -> Self {
        GoodnessSweep {
            rows,
            num_classes,
            scores: vec![0.0; rows * num_classes],
        }
    }

    /// Number of samples.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of candidate labels.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Adds one layer's per-sample goodness for candidate label `candidate`.
    ///
    /// # Panics
    ///
    /// Panics when `candidate` is out of range or `per_sample` does not hold
    /// one value per row.
    pub fn accumulate(&mut self, candidate: usize, per_sample: &[f32]) {
        assert!(
            candidate < self.num_classes,
            "candidate {candidate} out of range for {} classes",
            self.num_classes
        );
        assert_eq!(
            per_sample.len(),
            self.rows,
            "one goodness value per sample required"
        );
        for (row, &g) in per_sample.iter().enumerate() {
            self.scores[row * self.num_classes + candidate] += g;
        }
    }

    /// Adds a single (sample, candidate) goodness contribution.
    ///
    /// # Panics
    ///
    /// Panics when `row` or `candidate` is out of range.
    pub fn add(&mut self, row: usize, candidate: usize, goodness: f32) {
        assert!(row < self.rows && candidate < self.num_classes);
        self.scores[row * self.num_classes + candidate] += goodness;
    }

    /// The accumulated per-candidate scores of one sample.
    ///
    /// # Panics
    ///
    /// Panics when `row` is out of range.
    pub fn scores(&self, row: usize) -> &[f32] {
        &self.scores[row * self.num_classes..(row + 1) * self.num_classes]
    }

    /// Per-sample argmax over candidates (first maximum wins on ties,
    /// matching the trainer's historical behaviour).
    pub fn predictions(&self) -> Vec<usize> {
        self.scores
            .chunks(self.num_classes.max(1))
            .map(|row| {
                row.iter()
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodness_is_mean_of_squares() {
        let y = Tensor::from_vec(&[2, 2], vec![3.0, 4.0, 0.0, 0.0]).unwrap();
        assert_eq!(goodness(&y), vec![12.5, 0.0]);
        assert_eq!(goodness_sum(&y), vec![25.0, 0.0]);
    }

    #[test]
    fn goodness_gradient_matches_goodness_finite_difference() {
        let y = Tensor::from_vec(&[1, 3], vec![0.5, -1.0, 2.0]).unwrap();
        // L = G (i.e. dL/dG = 1): gradient should equal dG/dy = 2y/width.
        let grad = goodness_gradient(&y, &[1.0]);
        let eps = 1e-3f32;
        for j in 0..3 {
            let mut yp = y.clone();
            yp.data_mut()[j] += eps;
            let mut ym = y.clone();
            ym.data_mut()[j] -= eps;
            let numeric = (goodness(&yp)[0] - goodness(&ym)[0]) / (2.0 * eps);
            assert!((grad.data()[j] - numeric).abs() < 1e-3);
        }
    }

    #[test]
    fn positive_loss_decreases_with_goodness() {
        let (low, _) = ff_loss(&[0.0], 2.0, FfLossKind::Positive);
        let (high, _) = ff_loss(&[10.0], 2.0, FfLossKind::Positive);
        assert!(high < low);
    }

    #[test]
    fn negative_loss_increases_with_goodness() {
        let (low, _) = ff_loss(&[0.0], 2.0, FfLossKind::Negative);
        let (high, _) = ff_loss(&[10.0], 2.0, FfLossKind::Negative);
        assert!(high > low);
    }

    #[test]
    fn gradients_have_correct_sign() {
        let (_, gp) = ff_loss(&[1.0, 5.0], 2.0, FfLossKind::Positive);
        assert!(
            gp.iter().all(|&g| g < 0.0),
            "positive pass pushes goodness up"
        );
        let (_, gn) = ff_loss(&[1.0, 5.0], 2.0, FfLossKind::Negative);
        assert!(
            gn.iter().all(|&g| g > 0.0),
            "negative pass pushes goodness down"
        );
    }

    #[test]
    fn loss_gradient_matches_finite_difference() {
        let theta = 2.0;
        for &kind in &[FfLossKind::Positive, FfLossKind::Negative] {
            for &g in &[0.5f32, 2.0, 4.0] {
                let (_, grad) = ff_loss(&[g], theta, kind);
                let eps = 1e-3;
                let (lp, _) = ff_loss(&[g + eps], theta, kind);
                let (lm, _) = ff_loss(&[g - eps], theta, kind);
                let numeric = (lp - lm) / (2.0 * eps);
                assert!(
                    (grad[0] - numeric).abs() < 1e-3,
                    "kind {kind:?} g {g}: {} vs {numeric}",
                    grad[0]
                );
            }
        }
    }

    #[test]
    fn extreme_goodness_is_numerically_stable() {
        let (loss, grad) = ff_loss(&[1e6], 2.0, FfLossKind::Negative);
        assert!(loss.is_finite());
        assert!(grad[0].is_finite());
        let (loss, grad) = ff_loss(&[1e6], 2.0, FfLossKind::Positive);
        assert!(loss.is_finite() && loss >= 0.0);
        assert!(grad[0].abs() < 1e-3);
    }

    #[test]
    fn goodness_gradient_scales_rows() {
        let y = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let grad = goodness_gradient(&y, &[0.5, -1.0]);
        assert_eq!(grad.data(), &[0.5, 1.0, -3.0, -4.0]);
    }

    #[test]
    #[should_panic(expected = "one goodness gradient per sample")]
    fn goodness_gradient_checks_length() {
        goodness_gradient(&Tensor::ones(&[2, 2]), &[1.0]);
    }

    #[test]
    fn batch_loss_is_mean() {
        let (l1, _) = ff_loss(&[3.0], 2.0, FfLossKind::Positive);
        let (l2, _) = ff_loss(&[3.0, 3.0, 3.0], 2.0, FfLossKind::Positive);
        assert!((l1 - l2).abs() < 1e-6);
    }

    #[test]
    fn sweep_accumulates_across_layers_and_picks_argmax() {
        let mut sweep = GoodnessSweep::new(2, 3);
        assert_eq!(sweep.rows(), 2);
        assert_eq!(sweep.num_classes(), 3);
        // Two "layers" contribute to candidate 1.
        sweep.accumulate(1, &[1.0, 0.5]);
        sweep.accumulate(1, &[2.0, 0.25]);
        sweep.add(0, 2, 2.5);
        assert_eq!(sweep.scores(0), &[0.0, 3.0, 2.5]);
        assert_eq!(sweep.predictions(), vec![1, 1]);
    }

    #[test]
    fn sweep_ties_resolve_to_first_candidate() {
        let mut sweep = GoodnessSweep::new(1, 4);
        sweep.accumulate(1, &[7.0]);
        sweep.accumulate(3, &[7.0]);
        assert_eq!(sweep.predictions(), vec![1]);
    }

    #[test]
    #[should_panic(expected = "one goodness value per sample")]
    fn sweep_checks_sample_count() {
        GoodnessSweep::new(3, 2).accumulate(0, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sweep_checks_candidate_range() {
        GoodnessSweep::new(1, 2).accumulate(5, &[1.0]);
    }
}
