//! Per-epoch training records.

use serde::{Deserialize, Serialize};

/// Classification accuracy of `predictions` against `labels`, in `[0, 1]`.
///
/// # Panics
///
/// Panics when the two slices have different lengths.
///
/// # Examples
///
/// ```
/// assert_eq!(ff_metrics::accuracy(&[1, 2, 3], &[1, 0, 3]), 2.0 / 3.0);
/// ```
pub fn accuracy(predictions: &[usize], labels: &[usize]) -> f32 {
    assert_eq!(
        predictions.len(),
        labels.len(),
        "predictions and labels must have equal length"
    );
    if predictions.is_empty() {
        return 0.0;
    }
    let correct = predictions
        .iter()
        .zip(labels)
        .filter(|(p, l)| p == l)
        .count();
    correct as f32 / predictions.len() as f32
}

/// One epoch of training statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub train_loss: f32,
    /// Training-set accuracy in `[0, 1]`.
    pub train_accuracy: f32,
    /// Held-out test accuracy, when evaluated this epoch.
    pub test_accuracy: Option<f32>,
    /// Wall-clock seconds the epoch took (training steps + evaluation).
    /// `0.0` when the producer did not measure time.
    ///
    /// Timing is *measurement metadata*: determinism comparisons such as
    /// [`TrainingHistory::same_trajectory`] deliberately ignore it, because
    /// two bit-identical training runs still take different wall-clock time.
    pub seconds: f64,
}

/// The full loss/accuracy trajectory of one training run.
///
/// Used to regenerate the accuracy-vs-epoch figures of the paper (Fig. 2 and
/// Fig. 6) and the accuracy column of Table V.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TrainingHistory {
    /// Human-readable name of the algorithm/model that produced the run.
    pub name: String,
    records: Vec<EpochRecord>,
}

impl TrainingHistory {
    /// Creates an empty history labelled `name`.
    pub fn new(name: impl Into<String>) -> Self {
        TrainingHistory {
            name: name.into(),
            records: Vec::new(),
        }
    }

    /// Appends one epoch record without timing information.
    pub fn record(
        &mut self,
        epoch: usize,
        train_loss: f32,
        train_accuracy: f32,
        test_accuracy: Option<f32>,
    ) {
        self.record_timed(epoch, train_loss, train_accuracy, test_accuracy, 0.0);
    }

    /// Appends one epoch record with its measured wall-clock duration.
    pub fn record_timed(
        &mut self,
        epoch: usize,
        train_loss: f32,
        train_accuracy: f32,
        test_accuracy: Option<f32>,
        seconds: f64,
    ) {
        self.records.push(EpochRecord {
            epoch,
            train_loss,
            train_accuracy,
            test_accuracy,
            seconds,
        });
    }

    /// All epoch records in order.
    pub fn records(&self) -> &[EpochRecord] {
        &self.records
    }

    /// Number of recorded epochs.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no epochs have been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The final epoch's training loss.
    pub fn final_loss(&self) -> Option<f32> {
        self.records.last().map(|r| r.train_loss)
    }

    /// The final epoch's test accuracy (or train accuracy when no test
    /// evaluation was recorded).
    pub fn final_accuracy(&self) -> Option<f32> {
        self.records
            .last()
            .map(|r| r.test_accuracy.unwrap_or(r.train_accuracy))
    }

    /// Best test accuracy seen across all epochs.
    pub fn best_test_accuracy(&self) -> Option<f32> {
        self.records
            .iter()
            .filter_map(|r| r.test_accuracy)
            .fold(None, |best, acc| {
                Some(best.map_or(acc, |b: f32| b.max(acc)))
            })
    }

    /// First epoch whose test accuracy reaches `threshold`, if any.
    ///
    /// This is the convergence-speed metric used to compare FF-INT8 with and
    /// without look-ahead (paper Fig. 6: ~130 vs ~180 epochs).
    pub fn epochs_to_reach(&self, threshold: f32) -> Option<usize> {
        self.records
            .iter()
            .find(|r| r.test_accuracy.unwrap_or(0.0) >= threshold)
            .map(|r| r.epoch)
    }

    /// `true` when the training loss diverged (grew by more than `factor`
    /// relative to the first epoch or became non-finite) — the behaviour the
    /// paper observes for naive INT8 backpropagation in Fig. 2.
    pub fn diverged(&self, factor: f32) -> bool {
        let Some(first) = self.records.first() else {
            return false;
        };
        self.records
            .iter()
            .any(|r| !r.train_loss.is_finite() || r.train_loss > first.train_loss * factor)
    }

    /// Total measured wall-clock seconds across all recorded epochs.
    pub fn total_seconds(&self) -> f64 {
        self.records.iter().map(|r| r.seconds).sum()
    }

    /// `true` when two histories describe the **same training trajectory**:
    /// same name and, per epoch, bit-identical loss and accuracy values
    /// (`f32::to_bits` comparison, so `NaN == NaN` and `-0.0 != 0.0`).
    ///
    /// Wall-clock [`EpochRecord::seconds`] is ignored — it is measurement
    /// metadata, not part of the trajectory. This is the comparison the
    /// checkpoint/resume determinism guarantees are stated in: a run resumed
    /// from an `FF8C` checkpoint must satisfy `same_trajectory` against the
    /// uninterrupted run (plain `==` would fail on timing alone).
    pub fn same_trajectory(&self, other: &TrainingHistory) -> bool {
        self.name == other.name
            && self.records.len() == other.records.len()
            && self.records.iter().zip(&other.records).all(|(a, b)| {
                a.epoch == b.epoch
                    && a.train_loss.to_bits() == b.train_loss.to_bits()
                    && a.train_accuracy.to_bits() == b.train_accuracy.to_bits()
                    && a.test_accuracy.map(f32::to_bits) == b.test_accuracy.map(f32::to_bits)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_history() -> TrainingHistory {
        let mut h = TrainingHistory::new("test");
        h.record(0, 2.0, 0.2, Some(0.18));
        h.record(1, 1.0, 0.5, None);
        h.record(2, 0.5, 0.8, Some(0.75));
        h.record(3, 0.4, 0.85, Some(0.83));
        h
    }

    #[test]
    fn accuracy_counts_matches() {
        assert_eq!(accuracy(&[0, 1, 2, 3], &[0, 1, 0, 3]), 0.75);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn accuracy_panics_on_length_mismatch() {
        accuracy(&[1], &[1, 2]);
    }

    #[test]
    fn final_and_best_metrics() {
        let h = sample_history();
        assert_eq!(h.len(), 4);
        assert!(!h.is_empty());
        assert_eq!(h.final_loss(), Some(0.4));
        assert_eq!(h.final_accuracy(), Some(0.83));
        assert_eq!(h.best_test_accuracy(), Some(0.83));
    }

    #[test]
    fn final_accuracy_falls_back_to_train() {
        let mut h = TrainingHistory::new("x");
        h.record(0, 1.0, 0.4, None);
        assert_eq!(h.final_accuracy(), Some(0.4));
        assert_eq!(h.best_test_accuracy(), None);
    }

    #[test]
    fn epochs_to_reach_threshold() {
        let h = sample_history();
        assert_eq!(h.epochs_to_reach(0.7), Some(2));
        assert_eq!(h.epochs_to_reach(0.9), None);
    }

    #[test]
    fn divergence_detection() {
        let mut h = TrainingHistory::new("diverging");
        h.record(0, 1.0, 0.3, None);
        h.record(1, 100.0, 0.1, None);
        assert!(h.diverged(10.0));
        assert!(!sample_history().diverged(10.0));
        assert!(!TrainingHistory::new("empty").diverged(10.0));
        let mut nan = TrainingHistory::new("nan");
        nan.record(0, f32::NAN, 0.0, None);
        assert!(nan.diverged(10.0));
    }

    #[test]
    fn timed_records_accumulate_seconds() {
        let mut h = TrainingHistory::new("timed");
        h.record_timed(0, 1.0, 0.5, None, 1.25);
        h.record_timed(1, 0.9, 0.6, Some(0.55), 0.75);
        h.record(2, 0.8, 0.7, None); // untimed → 0.0 s
        assert_eq!(h.total_seconds(), 2.0);
        assert_eq!(h.records()[0].seconds, 1.25);
        assert_eq!(h.records()[2].seconds, 0.0);
    }

    #[test]
    fn same_trajectory_ignores_timing_only() {
        let mut a = TrainingHistory::new("run");
        let mut b = TrainingHistory::new("run");
        a.record_timed(0, 1.0, 0.5, Some(0.4), 10.0);
        b.record_timed(0, 1.0, 0.5, Some(0.4), 99.0);
        assert!(a.same_trajectory(&b), "timing must not break equality");
        assert_ne!(a, b, "plain equality still sees the timing");

        let mut c = TrainingHistory::new("run");
        c.record_timed(0, 1.0, 0.5, Some(0.40001), 10.0);
        assert!(!a.same_trajectory(&c), "accuracy drift must be detected");
        let mut d = TrainingHistory::new("other");
        d.record_timed(0, 1.0, 0.5, Some(0.4), 10.0);
        assert!(!a.same_trajectory(&d), "name mismatch must be detected");
        let mut nan_a = TrainingHistory::new("n");
        let mut nan_b = TrainingHistory::new("n");
        nan_a.record(0, f32::NAN, 0.0, None);
        nan_b.record(0, f32::NAN, 0.0, None);
        assert!(nan_a.same_trajectory(&nan_b), "bitwise: NaN equals NaN");
    }
}
