//! End-to-end cluster observability: a capture-all data-parallel run must
//! produce one wire-dumpable [`ClusterSpan`] per training step with every
//! coordinator phase and worker stamp present and monotonic, the per-kind
//! wire accounting must add up against the protocol's known frame counts,
//! and none of it may perturb the determinism contract — the traced run's
//! weights stay bit-identical to the sequential reference.

use ff_core::{Algorithm, Precision, TrainOptions, TrainSession};
use ff_data::{synthetic_mnist, Dataset, SyntheticConfig};
use ff_dist::protocol::{decode_msg, read_msg, write_msg, ErrorCode, TrainMsg, MAX_FRAME_BYTES};
use ff_dist::{pull_cluster_traces, Coordinator, CoordinatorConfig, Worker};
use ff_models::small_mlp;
use ff_nn::Sequential;
use ff_trace::{ClusterFlightRecorder, ClusterSpan, MetricsRegistry, TraceSettings};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Read;
use std::net::TcpStream;
use std::time::Duration;

const STEPS: u64 = 4; // 64 samples / batch 32 = 2 batches/epoch, 2 epochs

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

fn tiny_options() -> TrainOptions {
    TrainOptions {
        epochs: 2,
        batch_size: 32,
        max_eval_samples: 16,
        grad_shards: 2,
        ..TrainOptions::fast_test()
    }
}

fn weight_bits(net: &mut Sequential) -> Vec<Vec<u32>> {
    net.params_mut()
        .iter()
        .map(|p| p.value.data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn sequential_bits(options: &TrainOptions, train: &Dataset, test: &Dataset) -> Vec<Vec<u32>> {
    let mut net = tiny_net(1);
    TrainSession::new(
        &mut net,
        train,
        test,
        Algorithm::FfInt8 { lookahead: false },
        options,
    )
    .unwrap()
    .run()
    .unwrap();
    weight_bits(&mut net)
}

/// Deterministic capture-all tracing: every step sampled, ids replayable.
fn capture_all() -> TraceSettings {
    TraceSettings {
        capacity: 64,
        sample_per_sec: u32::MAX,
        seed: 0xC1A5,
        ..TraceSettings::default()
    }
}

/// Runs a 2-worker data-parallel training to completion and returns the
/// trained weights plus the wire-pulled trace dump, leaving the registry
/// populated for wire-accounting assertions.
fn traced_cluster_run(registry: &MetricsRegistry) -> (Vec<Vec<u32>>, u64, Vec<ClusterSpan>) {
    let (train_set, test_set) = tiny_dataset();
    let options = tiny_options();
    let mut coordinator = Coordinator::bind(
        "127.0.0.1:0",
        CoordinatorConfig {
            metrics: Some(registry.clone()),
            trace: capture_all(),
            ..CoordinatorConfig::default()
        },
    )
    .unwrap();
    let addr = coordinator.addr();
    let workers: Vec<_> = (0..2)
        .map(|i| {
            std::thread::spawn(move || {
                let mut replica = tiny_net(1000 + i);
                Worker::connect(addr, "", &mut replica)
            })
        })
        .collect();
    while coordinator.worker_count() < 2 {
        std::thread::sleep(Duration::from_millis(5));
    }

    let trainer = coordinator
        .trainer(Precision::Int8, false, options)
        .unwrap();
    let mut net = tiny_net(1);
    TrainSession::with_trainer(&mut net, &train_set, &test_set, trainer)
        .unwrap()
        .run()
        .unwrap();

    // Dump over the wire while the cluster is still up, and check the
    // local accessor agrees with what crossed the socket.
    let (dropped, spans) = pull_cluster_traces(addr, 0).unwrap();
    assert_eq!(spans, coordinator.cluster_traces(0));
    assert_eq!(dropped, coordinator.cluster_traces_dropped());

    coordinator.shutdown();
    for handle in workers {
        handle.join().unwrap().unwrap();
    }
    (weight_bits(&mut net), dropped, spans)
}

#[test]
fn capture_all_run_spans_every_step_and_stays_bit_exact() {
    let (train_set, test_set) = tiny_dataset();
    let reference_bits = sequential_bits(&tiny_options(), &train_set, &test_set);

    let registry = MetricsRegistry::new();
    let (bits, dropped, spans) = traced_cluster_run(&registry);
    assert_eq!(
        bits, reference_bits,
        "tracing must not perturb the determinism contract"
    );

    // One complete, monotonic span per training step, in step order.
    assert_eq!(dropped, 0, "uncontended run must not drop spans");
    assert_eq!(spans.len(), STEPS as usize, "one span per step");
    for (expected_step, span) in spans.iter().enumerate() {
        assert_eq!(span.step, expected_step as u64);
        assert_ne!(span.trace_id, 0);
        assert!(span.is_complete(), "incomplete span: {span:?}");
        assert!(span.is_monotonic(), "non-monotonic span: {span:?}");
        assert_eq!(span.shards.len(), 2, "grad_shards = 2");
        assert!(
            span.has_worker_stamps(),
            "workers must stamp decode/compute/encode: {span:?}"
        );
        for shard in &span.shards {
            if shard.worker_id.is_some() {
                assert!(shard.dispatched_ns > 0, "remote shard never dispatched");
            }
        }
    }
    // Trace ids are a pure function of (seed, step): a second recorder
    // with the same settings replays them.
    let replay = ClusterFlightRecorder::new(capture_all());
    for span in &spans {
        assert_eq!(span.trace_id, replay.trace_id(span.step));
    }

    // Wire accounting adds up against the protocol's known frame counts.
    let frames = |kind: &str| registry.counter(&format!("dist.wire.{kind}.frames")).get();
    let bytes = |kind: &str| registry.counter(&format!("dist.wire.{kind}.bytes")).get();
    assert_eq!(frames("join"), 2);
    assert_eq!(frames("join_ack"), 2);
    assert_eq!(
        frames("param_sync"),
        STEPS * 2,
        "one sync per worker per step"
    );
    assert_eq!(frames("submit_batch"), STEPS * 2, "two shards per step");
    assert_eq!(frames("shard_result"), STEPS * 2);
    assert_eq!(frames("trace_dump"), 1);
    assert_eq!(frames("trace_dump_reply"), 1);
    assert_eq!(frames("shutdown"), 2);
    assert_eq!(frames("error"), 0);

    // The ParamSync byte share is measurable and physically plausible: each
    // sync carries every parameter as f32, to each worker, every step.
    let param_floats: u64 = tiny_net(1)
        .params_mut()
        .iter()
        .map(|p| p.value.data().len() as u64)
        .sum();
    let sync_bytes = bytes("param_sync");
    assert!(
        sync_bytes >= STEPS * 2 * param_floats * 4,
        "param_sync accounted {sync_bytes} bytes for {param_floats} parameters"
    );
    let kinds = TrainMsg::kind_names();
    let total: u64 = kinds.iter().map(|kind| bytes(kind)).sum();
    let share = sync_bytes as f64 / total as f64;
    assert!(
        (0.05..1.0).contains(&share),
        "param_sync share {share:.3} of {total} wire bytes is implausible"
    );

    // No worker died, so nothing was recomputed and nothing was dropped.
    assert_eq!(
        registry.counter("dist.coord.recompute.worker_death").get(),
        0
    );
    assert_eq!(registry.counter("dist.coord.trace.dropped").get(), 0);
    assert_eq!(registry.counter("dist.coord.traces_pulled").get(), 1);
}

#[test]
fn rejected_joins_and_malformed_hellos_bump_error_counters() {
    let registry = MetricsRegistry::new();
    let mut coordinator = Coordinator::bind(
        "127.0.0.1:0",
        CoordinatorConfig {
            token: Some("right".to_string()),
            metrics: Some(registry.clone()),
            ..CoordinatorConfig::default()
        },
    )
    .unwrap();
    let addr = coordinator.addr();

    let mut replica = tiny_net(3);
    assert!(Worker::connect(addr, "wrong", &mut replica).is_err());
    assert_eq!(registry.counter("dist.coord.errors.bad_token").get(), 1);

    // A non-hello first frame is answered with a typed UnexpectedHello.
    let mut stream = TcpStream::connect(addr).unwrap();
    write_msg(&mut stream, &TrainMsg::Leave).unwrap();
    match read_msg(&mut stream).unwrap() {
        TrainMsg::Error { message, .. } => assert!(message.contains("expected Join")),
        other => panic!("expected a typed error, got {other:?}"),
    }
    assert_eq!(
        registry.counter("dist.coord.errors.unexpected_hello").get(),
        1
    );
    assert_eq!(registry.counter("dist.coord.errors.bad_token").get(), 1);
    assert_eq!(registry.counter("dist.wire.error.frames").get(), 2);
    coordinator.shutdown();
}

#[test]
fn a_previous_version_hello_is_refused_by_name() {
    let registry = MetricsRegistry::new();
    let mut coordinator = Coordinator::bind(
        "127.0.0.1:0",
        CoordinatorConfig {
            metrics: Some(registry.clone()),
            ..CoordinatorConfig::default()
        },
    )
    .unwrap();
    let addr = coordinator.addr();

    // A hand-built FF8D version-1 `Join` with an empty token: magic,
    // version, reserved flags, one record of kind byte + string length.
    let mut hello = b"FF8D\x01\x00\x00\x00\x05\x00\x00\x00\x01\x00\x00\x00\x00".to_vec();
    let mut stream = TcpStream::connect(addr).unwrap();
    ff_codec::wire::write_frame(&mut stream, &hello, MAX_FRAME_BYTES).unwrap();

    // One typed reply naming the version, then a closed stream.
    match read_msg(&mut stream).unwrap() {
        TrainMsg::Error { code, message } => {
            assert_eq!(code, ErrorCode::UnexpectedHello);
            assert!(
                message.contains("unsupported format version 1"),
                "{message}"
            );
        }
        other => panic!("expected a typed error, got {other:?}"),
    }
    assert_eq!(stream.read(&mut [0u8; 1]).unwrap(), 0, "stream stays open");
    assert_eq!(
        registry.counter("dist.coord.errors.unexpected_hello").get(),
        1
    );

    // Only the version was wrong with that frame, and the coordinator
    // still serves the next connection.
    hello[4] = 2;
    assert!(matches!(decode_msg(&hello), Ok(TrainMsg::Join { .. })));
    assert!(pull_cluster_traces(addr, 0).is_ok());
    coordinator.shutdown();
}
