//! Golden bit-identity gate for the FF-INT8 training step.
//!
//! Every case trains a small fixed-seed FF-INT8 model for a few steps and
//! compares the per-step loss bits and an FNV-1a checksum over every
//! parameter's bit pattern against pinned constants. The constants were
//! recorded from the commit *before* the dead-dgrad / accumulate-epilogue /
//! blocked-dgrad / one-pass-plan kernels landed, so "bit-identical to the
//! previous kernels" is an executable gate: any change to rounding streams,
//! accumulation order or epilogue arithmetic moves a constant.
//!
//! The `resnet_lookahead` and `conv_fp32_lookahead` cases were recorded the
//! same way from the commit before the block-drawn quantizer, the folded conv
//! input gradient, the rows-layout ReLU mask and per-operand strip widths.
//!
//! To re-record after an *intended* numeric change, run
//! `cargo test -p ff-core --test golden -- --nocapture` and copy the printed
//! `observed` lines.

use ff_core::{Algorithm, SessionControl, SessionStatus, TrainEvent, TrainOptions, TrainSession};
use ff_data::{synthetic_cifar10, synthetic_mnist, Dataset, SyntheticConfig};
use ff_models::{small_cnn, small_mlp, small_resnet, SmallModelConfig};
use ff_nn::Sequential;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::rc::Rc;

/// FNV-1a over the bit patterns of every parameter, in parameter order.
fn weight_checksum(net: &mut Sequential) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for param in net.params_mut() {
        for value in param.value.data() {
            hash = (hash ^ u64::from(value.to_bits())).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

fn dataset(conv: bool, rows: usize) -> (Dataset, Dataset) {
    let config = SyntheticConfig {
        train_size: rows,
        test_size: 8,
        noise_std: 0.2,
        max_shift: 0,
        seed: 31,
    };
    if conv {
        synthetic_cifar10(&config)
    } else {
        synthetic_mnist(&config)
    }
}

fn mlp(hidden: &[usize]) -> Sequential {
    small_mlp(784, hidden, 10, &mut StdRng::seed_from_u64(5))
}

fn cnn() -> Sequential {
    let config = SmallModelConfig {
        input_channels: 3,
        input_hw: 32,
        base_channels: 4,
        stages: 2,
        num_classes: 10,
    };
    small_cnn(&config, &mut StdRng::seed_from_u64(6))
}

/// Stem conv, an identity-skip block and a stride-2 block whose 1×1
/// projection shortcut leaves input pixels uncovered.
fn resnet() -> Sequential {
    let config = SmallModelConfig {
        input_channels: 3,
        input_hw: 32,
        base_channels: 4,
        stages: 2,
        num_classes: 10,
    };
    small_resnet(&config, &mut StdRng::seed_from_u64(8))
}

fn options(batch: usize, lambda: f32, shards: usize) -> TrainOptions {
    TrainOptions {
        epochs: 1,
        batch_size: batch,
        lambda_init: lambda,
        seed: 77,
        grad_shards: shards,
        ..TrainOptions::default()
    }
}

/// Steps an FF-INT8 `TrainSession` `steps` times; returns the loss bits of
/// each step and the final weight checksum.
fn session_run(
    net: Sequential,
    conv: bool,
    steps: usize,
    options: &TrainOptions,
) -> (Vec<u32>, u64) {
    let algorithm = Algorithm::FfInt8 {
        lookahead: options.lambda_init > 0.0,
    };
    algorithm_run(net, conv, steps, options, algorithm)
}

fn algorithm_run(
    mut net: Sequential,
    conv: bool,
    steps: usize,
    options: &TrainOptions,
    algorithm: Algorithm,
) -> (Vec<u32>, u64) {
    let (train_set, test_set) = dataset(conv, steps * options.batch_size + options.batch_size);
    let losses: Rc<RefCell<Vec<u32>>> = Rc::default();
    {
        let mut session =
            TrainSession::new(&mut net, &train_set, &test_set, algorithm, options).unwrap();
        let sink = Rc::clone(&losses);
        session.on_event(move |event| {
            if let TrainEvent::StepEnd { loss, .. } = event {
                sink.borrow_mut().push(loss.to_bits());
            }
            SessionControl::Continue
        });
        for _ in 0..steps {
            assert_eq!(session.step().unwrap(), SessionStatus::Running);
        }
    }
    let losses = losses.borrow().clone();
    (losses, weight_checksum(&mut net))
}

fn check(name: &str, observed: (Vec<u32>, u64), golden_losses: &[u32], golden_checksum: u64) {
    let hex: Vec<String> = observed.0.iter().map(|b| format!("{b:#010x}")).collect();
    println!(
        "observed {name}: losses [{}] checksum {:#018x}",
        hex.join(", "),
        observed.1
    );
    assert_eq!(observed.0, golden_losses, "{name}: loss bits moved");
    assert_eq!(
        observed.1, golden_checksum,
        "{name}: weight checksum moved ({:#018x} vs golden {golden_checksum:#018x})",
        observed.1
    );
}

#[test]
fn dense_lambda_zero_one_shard() {
    check(
        "dense λ=0 shards=1",
        session_run(mlp(&[48, 40]), false, 3, &options(16, 0.0, 1)),
        &[0x40d0f9e8, 0x40d0ab18, 0x40cf81ca],
        0xff6b_4aad_a735_00f7,
    );
}

#[test]
fn dense_lookahead_one_shard() {
    check(
        "dense λ=0.02 shards=1",
        session_run(mlp(&[48, 40]), false, 3, &options(16, 0.02, 1)),
        &[0x40d0f9e8, 0x40d0a626, 0x40cf7155],
        0x4eb6_b09b_c564_13ae,
    );
}

#[test]
fn dense_lambda_zero_two_shards() {
    check(
        "dense λ=0 shards=2",
        session_run(mlp(&[48, 40]), false, 3, &options(16, 0.0, 2)),
        &[0x40d0f9ef, 0x40d0a98d, 0x40cf807d],
        0x3ebe_63f2_9109_c62b,
    );
}

#[test]
fn dense_lookahead_two_shards() {
    check(
        "dense λ=0.02 shards=2",
        session_run(mlp(&[48, 40]), false, 3, &options(16, 0.02, 2)),
        &[0x40d0f9ef, 0x40d0a6f2, 0x40cf71ce],
        0x652c_b58e_a07d_f506,
    );
}

/// Hidden width 640: the second layer's `[640, 640]` weight is large enough
/// that its live input-gradient product takes the cache-blocked loop.
#[test]
fn dense_wide_lookahead() {
    check(
        "dense 640 λ=0.02 shards=1",
        session_run(mlp(&[640, 640]), false, 2, &options(32, 0.02, 1)),
        &[0x40d1c77a, 0x40d1b5a0],
        0x7103_c4b2_93a0_9dfd,
    );
}

#[test]
fn conv_lookahead_one_shard() {
    check(
        "conv λ=0.02 shards=1",
        session_run(cnn(), true, 2, &options(4, 0.02, 1)),
        &[0x40d7dce7, 0x40d7c19b],
        0x4e1b_8d2b_eef7_8415,
    );
}

#[test]
fn conv_lambda_zero_two_shards() {
    check(
        "conv λ=0 shards=2",
        session_run(cnn(), true, 2, &options(4, 0.0, 2)),
        &[0x40d7dcfd, 0x40d7c1a0],
        0xa646_0900_941d_906d,
    );
}

/// `ResidualBlock` under look-ahead: `Conv2d::backward` reached through a
/// block, both shortcut kinds, and the stride-2 1×1 projection whose input
/// gradient has uncovered pixels.
#[test]
fn resnet_lookahead() {
    check(
        "resnet λ=0.02 shards=1",
        session_run(resnet(), true, 2, &options(4, 0.02, 1)),
        &[0x410fa274, 0x410fa4d4],
        0x4dda_1399_a302_08b9,
    );
}

/// The FP32 conv step shares the input-gradient fold and the rows-layout
/// ReLU mask with the INT8 one.
#[test]
fn conv_fp32_lookahead() {
    check(
        "conv FF-FP32 λ=0.02 shards=1",
        algorithm_run(
            cnn(),
            true,
            2,
            &options(4, 0.02, 1),
            Algorithm::FfFp32 { lookahead: true },
        ),
        &[0x40d7defb, 0x40d7c33b],
        0x8f58_15f9_20c4_fc3d,
    );
}
