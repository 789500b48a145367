//! The paper's qualitative claims as seeded regression tests.
//!
//! Each test re-runs one artefact of the FF-INT8 paper at test scale on the
//! synthetic datasets and asserts what happens on a fixed seed. Every run is
//! a pure function of its seeds, so the assertions are exact regression
//! checks, not statistical statements. Where a claim reproduces, the test
//! asserts the paper's direction; where it does not, the test pins what this
//! implementation does instead and says so. The README's "Reproduction
//! status" table quotes the numbers; `-- --nocapture` prints them.

use ff_int8::core::{train, Algorithm, TrainOptions};
use ff_int8::data::{synthetic_cifar10, synthetic_mnist, Dataset, SyntheticConfig};
use ff_int8::metrics::TrainingHistory;
use ff_int8::models::{small_mlp, small_resnet, SmallModelConfig};
use ff_int8::nn::{softmax_cross_entropy, ForwardMode, Sequential};
use ff_int8::quant::stats::{DistributionStats, GradientHistogram};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn mnist(train_size: usize, test_size: usize) -> (Dataset, Dataset) {
    synthetic_mnist(&SyntheticConfig {
        train_size,
        test_size,
        noise_std: 0.35,
        max_shift: 2,
        seed: 42,
    })
}

fn options(epochs: usize, learning_rate: f32) -> TrainOptions {
    TrainOptions {
        epochs,
        learning_rate,
        max_eval_samples: 120,
        ..TrainOptions::default()
    }
}

fn run(
    net: &mut Sequential,
    (train_set, test_set): &(Dataset, Dataset),
    algorithm: Algorithm,
    options: &TrainOptions,
) -> TrainingHistory {
    train(net, train_set, test_set, algorithm, options)
        .unwrap_or_else(|e| panic!("{algorithm} failed: {e}"))
}

/// Table I: direct INT8 backpropagation loses more accuracy against FP32
/// backpropagation at 3 hidden layers than at 0.
#[test]
fn table1_int8_backprop_deficit_grows_with_depth() {
    let data = mnist(256, 100);
    let deficits: Vec<f32> = (0..=3usize)
        .map(|hidden_layers| {
            let [fp32, int8] = [Algorithm::BpFp32, Algorithm::BpInt8].map(|algorithm| {
                let mut rng = StdRng::seed_from_u64(11);
                let mut net = small_mlp(784, &vec![64; hidden_layers], 10, &mut rng);
                run(&mut net, &data, algorithm, &options(6, 0.05))
                    .final_accuracy()
                    .expect("evaluated every epoch")
            });
            println!("table1: {hidden_layers} hidden, BP-FP32 {fp32:.4}, BP-INT8 {int8:.4}");
            fp32 - int8
        })
        .collect();
    assert!(
        deficits[3] > deficits[0],
        "BP-INT8 deficit by depth {deficits:?}"
    );
}

/// Fig. 2, not reproduced here: the paper's BP-INT8 loss rises on a
/// residual CNN. This implementation's direct INT8 policy (per-tensor
/// max-abs scale, nearest rounding) tracks BP-FP32 instead, so the test pins
/// that neither run diverges and both lower their loss.
#[test]
fn fig2_int8_backprop_does_not_diverge_on_a_residual_cnn() {
    let data = synthetic_cifar10(&SyntheticConfig {
        train_size: 64,
        test_size: 32,
        noise_std: 0.3,
        max_shift: 2,
        seed: 42,
    });
    let config = SmallModelConfig::default()
        .with_base_channels(4)
        .with_stages(2);
    for algorithm in [Algorithm::BpFp32, Algorithm::BpInt8] {
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = small_resnet(&config, &mut rng);
        let history = run(
            &mut net,
            &data,
            algorithm,
            &options(4, 0.05).with_batch_size(16),
        );
        let losses: Vec<f32> = history.records().iter().map(|r| r.train_loss).collect();
        println!("fig2: {algorithm} train loss {losses:?}");
        assert!(!history.diverged(5.0), "{algorithm} losses {losses:?}");
        assert!(
            losses.last() < losses.first(),
            "{algorithm} losses {losses:?}"
        );
    }
}

/// Fig. 3: after one FP32 backprop epoch (8 batches), the first layer's
/// accumulated gradient is sharper in a deeper network — more of it
/// underflows direct INT8 quantization, its tails are heavier and more of its
/// mass sits in the central bins of its histogram.
#[test]
fn fig3_first_layer_gradients_sharpen_with_depth() {
    let (train_set, _) = mnist(256, 100);
    let first_layer = |hidden_layers: usize| {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = small_mlp(784, &vec![64; hidden_layers], 10, &mut rng);
        for batch in &train_set.batches(32, true, &mut rng) {
            let input = batch
                .images
                .reshape(&[batch.images.rows(), batch.images.cols()])
                .expect("flatten");
            let logits = net.forward(&input, ForwardMode::Fp32).expect("forward");
            let loss = softmax_cross_entropy(&logits, &batch.labels).expect("loss");
            net.backward(&loss.grad).expect("backward");
        }
        let grad = net.params_mut()[0].grad.clone();
        let stats = DistributionStats::from_tensor(&grad);
        let central_mass = GradientHistogram::from_tensor(&grad, 41).central_mass(3);
        println!(
            "fig3: {hidden_layers} hidden, underflow {:.4}, kurtosis {:.2}, central mass {:.4}",
            stats.underflow_fraction, stats.kurtosis, central_mass
        );
        (stats, central_mass)
    };
    let (shallow, shallow_mass) = first_layer(0);
    let (deep, deep_mass) = first_layer(3);
    assert!(deep.underflow_fraction > shallow.underflow_fraction);
    assert!(deep.kurtosis > shallow.kurtosis);
    assert!(deep_mass > shallow_mass);
}

/// Fig. 6: FF-INT8 with look-ahead reaches 80 % of the better run's best
/// accuracy in no more epochs than without it, and its best accuracy is not
/// worse by more than 0.1.
#[test]
fn fig6_lookahead_converges_no_slower() {
    let data = mnist(400, 120);
    let [without, with] = [false, true].map(|lookahead| {
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = small_mlp(784, &[48, 48], 10, &mut rng);
        run(
            &mut net,
            &data,
            Algorithm::FfInt8 { lookahead },
            &options(8, 0.2),
        )
    });
    let best = |h: &TrainingHistory| h.best_test_accuracy().expect("evaluated every epoch");
    let threshold = 0.8 * best(&with).max(best(&without));
    let epochs = |h: &TrainingHistory| h.epochs_to_reach(threshold).unwrap_or(usize::MAX);
    println!(
        "fig6: threshold {threshold:.4}; without look-ahead best {:.4} at epoch {}, \
         with look-ahead best {:.4} at epoch {}",
        best(&without),
        epochs(&without),
        best(&with),
        epochs(&with)
    );
    assert!(epochs(&with) <= epochs(&without));
    assert!(best(&with) + 0.1 >= best(&without));
}
