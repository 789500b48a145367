//! Unified training entry point dispatching over all five algorithms.

use crate::config::{Algorithm, TrainOptions};
use crate::session::TrainSession;
use crate::Result;
use ff_data::Dataset;
use ff_metrics::TrainingHistory;
use ff_nn::Sequential;

/// Trains `net` on `train_set` with the requested algorithm and returns the
/// per-epoch history (the same network is used for evaluation on `test_set`).
///
/// The paper-claim tests (`tests/paper_claims.rs`) train through this entry
/// point. It is a thin wrapper over
/// [`TrainSession::run`]; construct a [`TrainSession`] directly to step a
/// run batch by batch, observe typed [`crate::TrainEvent`]s, stop early, or
/// checkpoint/resume it.
///
/// # Errors
///
/// Returns an error when the options are invalid, the dataset is empty or
/// incompatible with the network, or a layer operation fails.
///
/// # Examples
///
/// ```
/// use ff_core::{train, Algorithm, TrainOptions};
/// use ff_data::{synthetic_mnist, SyntheticConfig};
/// use ff_models::small_mlp;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), ff_core::CoreError> {
/// let (train_set, test_set) = synthetic_mnist(&SyntheticConfig::small());
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut net = small_mlp(784, &[32], 10, &mut rng);
/// let history = train(&mut net, &train_set, &test_set, Algorithm::BpFp32, &TrainOptions::fast_test())?;
/// assert!(!history.is_empty());
/// # Ok(())
/// # }
/// ```
pub fn train(
    net: &mut Sequential,
    train_set: &Dataset,
    test_set: &Dataset,
    algorithm: Algorithm,
    options: &TrainOptions,
) -> Result<TrainingHistory> {
    TrainSession::new(net, train_set, test_set, algorithm, options)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_data::{synthetic_mnist, SyntheticConfig};
    use ff_models::small_mlp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dispatch_covers_all_algorithms() {
        let (train_set, test_set) = synthetic_mnist(&SyntheticConfig {
            train_size: 80,
            test_size: 40,
            noise_std: 0.2,
            max_shift: 0,
            seed: 1,
        });
        let options = TrainOptions {
            epochs: 1,
            max_eval_samples: 20,
            ..TrainOptions::fast_test()
        };
        for algorithm in [
            Algorithm::BpFp32,
            Algorithm::BpInt8,
            Algorithm::BpUi8,
            Algorithm::BpGdai8,
            Algorithm::FfInt8 { lookahead: true },
            Algorithm::FfFp32 { lookahead: false },
        ] {
            let mut rng = StdRng::seed_from_u64(0);
            let mut net = small_mlp(784, &[16], 10, &mut rng);
            let history = train(&mut net, &train_set, &test_set, algorithm, &options).unwrap();
            assert_eq!(history.len(), 1, "{}", algorithm.label());
        }
    }
}
