//! Property tests for the distributed determinism contract and the `FF8D`
//! decoder's canonical form.
//!
//! The socketed 2-worker parity run and the chaos (worker-death) cases live
//! in `parity.rs`; here the *parameter space* gets swept — RNG seeds, shard
//! counts, worker counts — asserting the one invariant everything in this
//! crate hangs off: distributed execution is bit-identical to the
//! sequential trainer.
//!
//! Training cases are expensive (each runs two full trainings), so the
//! sweep drives the proptest strategies through an explicit seeded
//! [`TestRng`] over a handful of cases instead of the `proptest!` macro's
//! fixed 64. The decoder is swept exhaustively: the shared
//! [`ff_codec::wire::sweep`] tries every prefix and every byte offset
//! under every non-zero XOR mask of every sample message, the same regime
//! `FF8P` runs. Beside it, every cut of the framed stream, arbitrary bytes
//! and three-byte corruptions run as cheap properties of their own.

use ff_core::{Algorithm, Precision, TrainOptions, TrainSession};
use ff_data::{synthetic_mnist, Dataset, SyntheticConfig};
use ff_dist::protocol::{decode_msg, encode_msg, read_msg, sample_msgs, write_msg};
use ff_dist::{Coordinator, CoordinatorConfig, DistError, Worker};
use ff_models::small_mlp;
use ff_nn::Sequential;
use proptest::prelude::*;
use proptest::test_runner::{base_seed, TestRng};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn tiny_dataset() -> (Dataset, Dataset) {
    synthetic_mnist(&SyntheticConfig {
        train_size: 48,
        test_size: 16,
        noise_std: 0.2,
        max_shift: 0,
        seed: 23,
    })
}

fn tiny_net(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    small_mlp(784, &[8, 8], 10, &mut rng)
}

fn tiny_options(seed: u64, grad_shards: usize) -> TrainOptions {
    TrainOptions {
        epochs: 1,
        batch_size: 16,
        max_eval_samples: 16,
        seed,
        grad_shards,
        ..TrainOptions::fast_test()
    }
}

fn weight_bits(net: &mut Sequential) -> Vec<Vec<u32>> {
    net.params_mut()
        .iter()
        .map(|p| p.value.data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn sequential_bits(
    options: &TrainOptions,
    train_set: &Dataset,
    test_set: &Dataset,
) -> Vec<Vec<u32>> {
    let mut net = tiny_net(1);
    TrainSession::new(
        &mut net,
        train_set,
        test_set,
        Algorithm::FfInt8 { lookahead: false },
        options,
    )
    .unwrap()
    .run()
    .unwrap();
    weight_bits(&mut net)
}

/// A cluster of 0, 1 or 2 live workers produces bit-identical weights to
/// the sequential `grad_shards = W` run for random seeds — zero workers
/// exercises the all-local fallback, one worker the single-peer path, two
/// the round-robin split.
#[test]
fn data_parallel_is_bit_exact_across_seeds_and_worker_counts() {
    let mut rng = TestRng::new(base_seed(
        "data_parallel_is_bit_exact_across_seeds_and_worker_counts",
    ));
    let (train_set, test_set) = tiny_dataset();
    for worker_count in 0usize..3 {
        let seed = (0u64..1000).generate(&mut rng);
        let grad_shards = (1usize..4).generate(&mut rng);
        let options = tiny_options(seed, grad_shards);
        let reference = sequential_bits(&options, &train_set, &test_set);

        let mut coordinator =
            Coordinator::bind("127.0.0.1:0", CoordinatorConfig::default()).unwrap();
        let addr = coordinator.addr();
        let workers: Vec<_> = (0..worker_count)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut replica = tiny_net(2000 + i as u64);
                    Worker::connect(addr, "", &mut replica)
                })
            })
            .collect();
        while coordinator.worker_count() < worker_count {
            std::thread::sleep(Duration::from_millis(2));
        }

        let trainer = coordinator
            .trainer(Precision::Int8, false, options)
            .unwrap();
        let mut net = tiny_net(1);
        TrainSession::with_trainer(&mut net, &train_set, &test_set, trainer)
            .unwrap()
            .run()
            .unwrap();
        coordinator.shutdown();
        for handle in workers {
            handle.join().unwrap().unwrap();
        }
        assert_eq!(
            weight_bits(&mut net),
            reference,
            "seed {seed}, {worker_count} workers, {grad_shards} shards: \
             data-parallel diverged from sequential"
        );
    }
}

/// `FF8D` decoding is panic-free and canonical: the exhaustive
/// [`ff_codec::wire::sweep`] over every sample message — every strict
/// prefix is a typed error, and every byte offset under every non-zero XOR
/// mask is a typed error or a message that re-encodes to exactly the
/// corrupted bytes.
#[test]
fn decoded_messages_reencode_canonically() {
    let samples: Vec<Vec<u8>> = sample_msgs().iter().map(encode_msg).collect();
    ff_codec::wire::sweep(
        &samples,
        |bytes| decode_msg(bytes).map(|msg| encode_msg(&msg)),
        |error| matches!(error, DistError::Protocol { .. }),
    );
}

/// The length-prefixed stream around each sample: a cut inside the prefix
/// or the body ends in a typed error, never a message.
#[test]
fn decoder_rejects_every_truncation() {
    for msg in sample_msgs() {
        let mut wire = Vec::new();
        write_msg(&mut wire, &msg).unwrap();
        for len in 0..wire.len() {
            match read_msg(&mut &wire[..len]) {
                Err(DistError::Io { .. }) | Err(DistError::Protocol { .. }) => {}
                other => panic!("a {len}-byte stream prefix gave {other:?}"),
            }
        }
    }
}

proptest! {
    // Arbitrary bytes (mostly a bad magic or header, unlike the sweep's
    // corrupted samples) never panic the decoder: a typed error, or a
    // message that re-encodes to exactly those bytes.
    #[test]
    fn decoder_never_panics_on_arbitrary_bytes(
        len in 0usize..512,
        fill in proptest::collection::vec(0u8..=255, 512),
    ) {
        match decode_msg(&fill[..len]) {
            Ok(msg) => prop_assert_eq!(encode_msg(&msg), fill[..len].to_vec()),
            Err(DistError::Protocol { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error kind: {other:?}"),
        }
    }

    // Three bytes corrupted at once (the sweep corrupts one at a time)
    // land deeper in the payload parsers: still a typed error or a
    // canonical decode.
    #[test]
    fn decoder_never_panics_on_corrupted_valid_frames(
        pick in 0usize..64,
        flips in proptest::collection::vec((0.0f64..1.0, 1u8..=255), 3),
    ) {
        let msgs = sample_msgs();
        let mut bytes = encode_msg(&msgs[pick % msgs.len()]);
        let len = bytes.len();
        for (position_fraction, mask) in flips {
            bytes[((len as f64) * position_fraction) as usize % len] ^= mask;
        }
        match decode_msg(&bytes) {
            Ok(msg) => prop_assert_eq!(encode_msg(&msg), bytes),
            Err(DistError::Protocol { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error kind: {other:?}"),
        }
    }
}
