//! Distributed-training walkthrough: train the paper's 3-layer FF-INT8 MLP
//! twice — sequentially, and data-parallel over a loopback `FF8D` cluster —
//! and verify both produce **bit-identical weights** from the same seed.
//!
//! The cluster demo runs a coordinator with two in-process TCP workers, a
//! raw-socket event subscriber, and a checkpoint publish/pull round trip —
//! the same moving parts a multi-host deployment would use, with
//! `127.0.0.1` standing in for the fleet network.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example train_cluster
//! ```

use ff_int8::core::checkpoint::{load_bytes, save_bytes};
use ff_int8::core::{Algorithm, Precision, SessionControl, TrainOptions, TrainSession};
use ff_int8::data::{synthetic_mnist, SyntheticConfig};
use ff_int8::dist::protocol::{read_msg, write_msg, TrainMsg};
use ff_int8::dist::{Coordinator, CoordinatorConfig, Worker};
use ff_int8::models::small_mlp;
use ff_int8::nn::Sequential;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::TcpStream;
use std::time::Duration;

const CLUSTER_TOKEN: &str = "demo-cluster-key";

/// Every run starts from the identical initialisation: same seed, same
/// architecture — the precondition for bit-exact comparison.
fn fresh_net() -> Sequential {
    let mut rng = StdRng::seed_from_u64(1);
    small_mlp(784, &[64, 64], 10, &mut rng)
}

/// Two row shards per step, one per worker. The shard count is part of the
/// deterministic math (it fixes the reduction tree), so the sequential
/// baseline runs with the same options as the cluster.
fn options() -> TrainOptions {
    TrainOptions {
        epochs: 2,
        batch_size: 32,
        max_eval_samples: 64,
        seed: 9,
        grad_shards: 2,
        ..TrainOptions::fast_test()
    }
}

/// The exact bit pattern of every trained parameter — equality here is the
/// strongest possible parity claim, immune to "close enough" float drift.
fn weight_bits(net: &mut Sequential) -> Vec<Vec<u32>> {
    net.params_mut()
        .iter()
        .map(|p| p.value.data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (train_set, test_set) = synthetic_mnist(&SyntheticConfig {
        train_size: 256,
        test_size: 64,
        noise_std: 0.2,
        max_shift: 0,
        seed: 23,
    });

    // 1. The sequential baseline.
    println!("== sequential baseline ==");
    let mut baseline = fresh_net();
    TrainSession::new(
        &mut baseline,
        &train_set,
        &test_set,
        Algorithm::FfInt8 { lookahead: false },
        &options(),
    )?
    .run()?;
    let cluster_reference = weight_bits(&mut baseline);

    // 2. A data-parallel cluster: coordinator + two token-authenticated
    //    TCP workers. Each training step is cut into two row shards; the
    //    coordinator syncs parameters, farms the shards out round-robin,
    //    and reduces the returned gradients in fixed shard order — so the
    //    wire changes wall-clock time, never the weights.
    println!("== data-parallel cluster (2 workers over loopback FF8D) ==");
    let mut coordinator = Coordinator::bind(
        "127.0.0.1:0",
        CoordinatorConfig {
            token: Some(CLUSTER_TOKEN.to_string()),
            ..CoordinatorConfig::default()
        },
    )?;
    let addr = coordinator.addr();
    println!("coordinator on {addr}");

    // Workers would normally run on other machines; here each gets its own
    // thread and a cold replica that ParamSync overwrites before step 0.
    let workers: Vec<_> = (0..2)
        .map(|i| {
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + i);
                let mut replica = small_mlp(784, &[64, 64], 10, &mut rng);
                Worker::connect(addr, CLUSTER_TOKEN, &mut replica)
            })
        })
        .collect();
    while coordinator.worker_count() < 2 {
        std::thread::sleep(Duration::from_millis(2));
    }

    // A monitoring process subscribes over a plain socket and receives the
    // typed event stream the coordinator broadcasts.
    let subscriber = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("subscribe connect");
        write_msg(&mut stream, &TrainMsg::Subscribe).expect("subscribe");
        let mut events = 0usize;
        while let Ok(TrainMsg::Event { .. }) = read_msg(&mut stream) {
            events += 1;
        }
        events
    });

    let trainer = coordinator.trainer(Precision::Int8, false, options())?;
    let mut clustered = fresh_net();
    let mut session = TrainSession::with_trainer(&mut clustered, &train_set, &test_set, trainer)?;
    session.on_event(|event| {
        coordinator.broadcast_event(event);
        SessionControl::Continue
    });

    // Train three steps, publish a mid-epoch FF8C checkpoint to the
    // cluster, then let the run finish.
    for _ in 0..3 {
        session.step()?;
    }
    let published = save_bytes(&session.checkpoint());
    coordinator.publish_checkpoint(published.clone());
    let history = session.run()?;
    assert_eq!(
        weight_bits(&mut clustered),
        cluster_reference,
        "data-parallel must be bit-exact vs sequential"
    );
    println!(
        "cluster trained {} epochs, final accuracy {:.1}%, weights bit-identical",
        history.len(),
        history.final_accuracy().unwrap_or(0.0) * 100.0
    );

    // Any peer can pull the published checkpoint over the wire — e.g. a
    // late-joining worker warm-starting, or an operator taking a backup.
    let mut puller = TcpStream::connect(addr)?;
    write_msg(&mut puller, &TrainMsg::PullCheckpoint)?;
    match read_msg(&mut puller)? {
        TrainMsg::CheckpointReply { bytes } => {
            assert_eq!(bytes, published, "checkpoint must round-trip verbatim");
            let restored = load_bytes(&bytes)?;
            println!(
                "pulled checkpoint: {} bytes, algorithm {}, resumable via TrainSession::resume",
                bytes.len(),
                restored.algorithm.label()
            );
        }
        other => panic!("expected CheckpointReply, got {other:?}"),
    }

    // 3. Drain the cluster: workers leave cleanly and report their share.
    coordinator.shutdown();
    for (index, handle) in workers.into_iter().enumerate() {
        let report = handle.join().expect("worker thread")?;
        println!(
            "worker {index}: computed {} shards across {} parameter syncs",
            report.shards_computed, report.params_synced
        );
    }
    let events = subscriber.join().expect("subscriber thread");
    println!("subscriber saw {events} broadcast events");
    Ok(())
}
