//! The ff-dist determinism contract, end to end: data-parallel training
//! must be **bit-identical** to the sequential [`FfTrainer`] run from the
//! same seed — across worker counts, checkpoint/resume boundaries and
//! worker death.

use ff_core::checkpoint::{load_bytes, save_bytes};
use ff_core::{Algorithm, Precision, SessionStatus, TrainOptions, TrainSession};
use ff_data::{synthetic_mnist, Dataset, SyntheticConfig};
use ff_dist::protocol::{read_msg, write_msg, TrainMsg};
use ff_dist::{Coordinator, CoordinatorConfig, DistError, Worker};
use ff_models::small_mlp;
use ff_net::fault::{FaultPlan, FaultyStream};
use ff_nn::Sequential;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::TcpStream;
use std::time::Duration;

fn tiny_dataset() -> (Dataset, Dataset) {
    synthetic_mnist(&SyntheticConfig {
        train_size: 64,
        test_size: 16,
        noise_std: 0.2,
        max_shift: 0,
        seed: 17,
    })
}

fn tiny_net(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    small_mlp(784, &[16, 16], 10, &mut rng)
}

fn tiny_options(epochs: usize) -> TrainOptions {
    TrainOptions {
        epochs,
        batch_size: 32,
        max_eval_samples: 16,
        ..TrainOptions::fast_test()
    }
}

/// Every parameter, as exact bit patterns.
fn weight_bits(net: &mut Sequential) -> Vec<Vec<u32>> {
    net.params_mut()
        .iter()
        .map(|p| p.value.data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Runs the sequential reference trainer to completion.
fn sequential_run(
    precision: Precision,
    options: &TrainOptions,
    train_set: &Dataset,
    test_set: &Dataset,
) -> (ff_metrics::TrainingHistory, Vec<Vec<u32>>) {
    let algorithm = match precision {
        Precision::Int8 => Algorithm::FfInt8 { lookahead: false },
        Precision::Fp32 => Algorithm::FfFp32 { lookahead: false },
    };
    let mut net = tiny_net(1);
    let history = {
        TrainSession::new(&mut net, train_set, test_set, algorithm, options)
            .unwrap()
            .run()
            .unwrap()
    };
    (history, weight_bits(&mut net))
}

#[test]
fn data_parallel_two_workers_matches_sequential() {
    let (train_set, test_set) = tiny_dataset();
    let options = TrainOptions {
        grad_shards: 2,
        ..tiny_options(2)
    };
    let (reference_history, reference_bits) =
        sequential_run(Precision::Int8, &options, &train_set, &test_set);

    let mut coordinator = Coordinator::bind("127.0.0.1:0", CoordinatorConfig::default()).unwrap();
    let addr = coordinator.addr();
    let workers: Vec<_> = (0..2)
        .map(|i| {
            std::thread::spawn(move || {
                let mut replica = tiny_net(1000 + i); // overwritten by ParamSync
                Worker::connect(addr, "", &mut replica)
            })
        })
        .collect();
    while coordinator.worker_count() < 2 {
        std::thread::sleep(Duration::from_millis(5));
    }

    let trainer = coordinator
        .trainer(Precision::Int8, false, options.clone())
        .unwrap();
    let mut net = tiny_net(1);
    let history = {
        TrainSession::with_trainer(&mut net, &train_set, &test_set, trainer)
            .unwrap()
            .run()
            .unwrap()
    };
    coordinator.shutdown();
    let mut shards_remote = 0;
    for handle in workers {
        let report = handle.join().unwrap().unwrap();
        shards_remote += report.shards_computed;
    }

    assert!(
        history.same_trajectory(&reference_history),
        "data-parallel history diverged from sequential"
    );
    assert_eq!(
        weight_bits(&mut net),
        reference_bits,
        "data-parallel weights diverged from sequential"
    );
    assert!(
        shards_remote > 0,
        "the cluster never computed a shard remotely — the test proved nothing"
    );
}

#[test]
fn data_parallel_survives_worker_death_and_resumes_mid_epoch() {
    let (train_set, test_set) = tiny_dataset();
    let options = TrainOptions {
        grad_shards: 2,
        ..tiny_options(2)
    };
    let (reference_history, reference_bits) =
        sequential_run(Precision::Int8, &options, &train_set, &test_set);

    let mut coordinator = Coordinator::bind("127.0.0.1:0", CoordinatorConfig::default()).unwrap();
    let addr = coordinator.addr();
    // One healthy worker, one whose transport is hard-cut mid-service by
    // the chaos plan — like a peer dying between frames.
    let healthy = std::thread::spawn(move || {
        let mut replica = tiny_net(1000);
        Worker::connect(addr, "", &mut replica)
    });
    let doomed = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).unwrap();
        let mut chaotic = FaultyStream::new(
            stream,
            FaultPlan {
                cut_at_op: Some(9),
                ..FaultPlan::benign(7)
            },
        );
        let mut replica = tiny_net(1001);
        Worker::run(&mut chaotic, "", &mut replica)
    });
    while coordinator.worker_count() < 2 {
        std::thread::sleep(Duration::from_millis(5));
    }

    let trainer = coordinator
        .trainer(Precision::Int8, false, options.clone())
        .unwrap();
    let mut net = tiny_net(1);
    // Train 3 of the 4 total batches (mid-epoch 1) with the cluster — the
    // doomed worker dies along the way and its shards get recomputed —
    // then checkpoint and finish sequentially.
    let checkpoint = {
        let mut session =
            TrainSession::with_trainer(&mut net, &train_set, &test_set, trainer).unwrap();
        let mut batches = 0;
        while batches < 3 {
            match session.step().unwrap() {
                SessionStatus::Running | SessionStatus::EpochFinished { .. } => batches += 1,
                other => panic!("session ended early at batch {batches}: {other:?}"),
            }
        }
        session.checkpoint()
    };
    coordinator.shutdown();
    healthy.join().unwrap().unwrap();
    doomed.join().unwrap().unwrap();

    let checkpoint = load_bytes(&save_bytes(&checkpoint)).unwrap();
    let mut resumed_net = tiny_net(99);
    let history = {
        TrainSession::resume(&mut resumed_net, &train_set, &test_set, &checkpoint)
            .unwrap()
            .run()
            .unwrap()
    };
    assert!(
        history.same_trajectory(&reference_history),
        "crashing a worker mid-epoch changed the trajectory"
    );
    assert_eq!(
        weight_bits(&mut resumed_net),
        reference_bits,
        "crashing a worker mid-epoch changed the weights"
    );
}

#[test]
fn join_token_is_enforced() {
    let mut coordinator = Coordinator::bind(
        "127.0.0.1:0",
        CoordinatorConfig {
            token: Some("right".to_string()),
            ..CoordinatorConfig::default()
        },
    )
    .unwrap();
    let addr = coordinator.addr();

    let mut replica = tiny_net(3);
    let rejected = Worker::connect(addr, "wrong", &mut replica);
    assert!(
        matches!(rejected, Err(DistError::Protocol { .. })),
        "a bad token must be rejected, got {rejected:?}"
    );
    assert_eq!(coordinator.worker_count(), 0);
    coordinator.shutdown();
}

#[test]
fn checkpoint_pull_and_event_stream_over_the_wire() {
    let mut coordinator = Coordinator::bind("127.0.0.1:0", CoordinatorConfig::default()).unwrap();
    let addr = coordinator.addr();

    // No checkpoint published yet: a typed error, not a hang.
    let mut puller = TcpStream::connect(addr).unwrap();
    write_msg(&mut puller, &TrainMsg::PullCheckpoint).unwrap();
    assert!(matches!(
        read_msg(&mut puller).unwrap(),
        TrainMsg::Error { .. }
    ));

    // Publish a (stand-in) artifact and pull it back verbatim.
    coordinator.publish_checkpoint(vec![1, 2, 3, 4, 5]);
    let mut puller = TcpStream::connect(addr).unwrap();
    write_msg(&mut puller, &TrainMsg::PullCheckpoint).unwrap();
    match read_msg(&mut puller).unwrap() {
        TrainMsg::CheckpointReply { bytes } => assert_eq!(bytes, vec![1, 2, 3, 4, 5]),
        other => panic!("expected CheckpointReply, got {other:?}"),
    }

    // Subscribe, then receive a broadcast training event, typed.
    let mut observer = TcpStream::connect(addr).unwrap();
    write_msg(&mut observer, &TrainMsg::Subscribe).unwrap();
    let event = ff_core::TrainEvent::EpochStart {
        epoch: 3,
        lambda: 0.5,
    };
    // The subscriber registers asynchronously; retry until the broadcast
    // lands on it.
    observer
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let mut received = None;
    for _ in 0..50 {
        coordinator.broadcast_event(&event);
        match read_msg(&mut observer) {
            Ok(TrainMsg::Event { event }) => {
                received = Some(event);
                break;
            }
            Ok(other) => panic!("expected Event, got {other:?}"),
            Err(_) => continue,
        }
    }
    assert_eq!(received, Some(event));
    coordinator.shutdown();
}
