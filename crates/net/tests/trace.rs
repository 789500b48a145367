//! Wire-level smoke gate for the observability surfaces: serve under load,
//! dump traces and metrics over FF8P, and hold the flight-recorder
//! invariants — every completed trace's stage stamps are monotonic, the
//! reply-written stamp lands at (just under) the end-to-end latency, and
//! the per-stage histograms folded into `StatsReply` account for every
//! served request.

use ff_models::small_mlp;
use ff_net::{Client, ClientConfig, NetConfig, NetServer};
use ff_serve::{FrozenModel, ServeConfig, Stage, TraceSettings};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const FEATURES: usize = 12;
const CLASSES: usize = 3;
const REQUESTS: usize = 120;

fn frozen(seed: u64) -> FrozenModel {
    let mut rng = StdRng::seed_from_u64(seed);
    FrozenModel::freeze(&small_mlp(FEATURES, &[10], CLASSES, &mut rng), CLASSES).unwrap()
}

fn traced_config(trace: TraceSettings) -> NetConfig {
    NetConfig {
        serve: ServeConfig {
            workers: 2,
            trace,
            ..ServeConfig::default()
        },
        ..NetConfig::default()
    }
}

/// The stage order every complete trace must respect.
const PATH: [Stage; 6] = [
    Stage::Recv,
    Stage::Admit,
    Stage::Enqueue,
    Stage::WaveStart,
    Stage::GemmDone,
    Stage::ReplyWritten,
];

#[test]
fn trace_dump_over_the_wire_is_monotonic_and_accounts_for_latency() {
    let server = NetServer::bind(
        frozen(21),
        "127.0.0.1:0",
        traced_config(TraceSettings {
            capacity: 256,
            // u32::MAX admits every request deterministically (no token
            // bucket), so the dump below must hold ALL of them.
            sample_per_sec: u32::MAX,
            ..TraceSettings::default()
        }),
    )
    .unwrap();
    let addr = server.local_addr();

    // Load from two concurrent connections so rows coalesce into batches.
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for _ in 0..REQUESTS / 2 {
                    assert!(client.predict(&[0.4; FEATURES]).unwrap() < CLASSES);
                }
                client.close();
            });
        }
    });

    let mut client = Client::connect(addr).unwrap();
    let (dropped, traces) = client.trace_dump(0).unwrap();
    assert_eq!(dropped, 0, "uncontended run must not drop traces");
    assert_eq!(
        traces.len(),
        REQUESTS,
        "every request was sampled and fits the ring"
    );
    // Traces commit when their last handle drops, so concurrent
    // connections interleave commit order — but every sequence number
    // appears exactly once.
    let mut seqs: Vec<u64> = traces.iter().map(|t| t.seq).collect();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), REQUESTS, "duplicate or missing trace seqs");
    for trace in &traces {
        assert!(trace.sampled && trace.completed, "half-stamped trace");
        assert!(trace.is_monotonic(), "non-monotonic stamps: {trace:?}");
        // All six stages stamped, in path order.
        let mut previous = 0;
        for stage in PATH {
            let at = trace
                .stamp(stage)
                .unwrap_or_else(|| panic!("completed trace missing {}: {trace:?}", stage.name()));
            assert!(at >= previous, "{} precedes its predecessor", stage.name());
            previous = at;
        }
        // The stamps are offsets from recv, so the last one must land at
        // (just under) the end-to-end latency: the walk through the stages
        // accounts for the whole request, with only the commit-on-drop gap
        // (well under a millisecond) unaccounted.
        let reply = trace.stamp(Stage::ReplyWritten).unwrap();
        assert!(reply <= trace.end_to_end_ns);
        assert!(
            trace.end_to_end_ns - reply < 50_000_000,
            "commit lagged the reply by {}ns",
            trace.end_to_end_ns - reply
        );
    }

    // The per-stage histograms folded into StatsReply account for every
    // served row, and the metrics dump agrees with the stats counters.
    let stats = client.stats().unwrap();
    assert_eq!(stats.requests, REQUESTS as u64);
    for (name, stage) in stats.stages.named() {
        assert_eq!(stage.count, REQUESTS as u64, "stage {name} missed rows");
        assert!(stage.max >= stage.p50, "stage {name} summary inconsistent");
    }
    let text = client.metrics_dump().unwrap();
    assert!(text.contains(&format!("serve.requests counter {REQUESTS}")));
    assert!(text.contains("serve.stage.gemm_ns histogram count"));
    assert!(text.contains("trace.dropped counter 0"));
    client.close();
    server.shutdown();
}

#[test]
fn slow_requests_are_always_retained_even_with_sampling_off() {
    // sample_per_sec = 0 turns sampling off; a zero slow threshold makes
    // every request "slow", so the recorder must retain them all, flagged.
    let server = NetServer::bind(
        frozen(22),
        "127.0.0.1:0",
        traced_config(TraceSettings {
            capacity: 64,
            sample_per_sec: 0,
            slow_threshold: Some(Duration::ZERO),
            ..TraceSettings::default()
        }),
    )
    .unwrap();
    let addr = server.local_addr();

    let mut client = Client::connect_with(
        addr,
        ClientConfig {
            // A roomy budget: requests carry a deadline so the slow log can
            // report the remaining budget at admission.
            deadline: Some(Duration::from_secs(5)),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    for _ in 0..10 {
        assert!(client.predict(&[0.1; FEATURES]).unwrap() < CLASSES);
    }
    let (_, traces) = client.trace_dump(0).unwrap();
    assert_eq!(traces.len(), 10);
    for trace in &traces {
        assert!(trace.slow, "zero threshold flags every request slow");
        assert!(!trace.sampled, "sampling is off");
        assert!(trace.completed && trace.is_monotonic());
        let remaining = trace
            .deadline_remaining_micros
            .expect("deadline-stamped request records its remaining budget");
        assert!(
            remaining > 0 && remaining <= 5_000_000,
            "remaining budget {remaining}µs out of range"
        );
    }
    client.close();
    server.shutdown();
}

/// Pulls the value of `name counter <n>` out of a metrics dump.
fn counter_value(text: &str, name: &str) -> u64 {
    let prefix = format!("{name} counter ");
    text.lines()
        .find_map(|line| line.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("metrics dump missing {name}:\n{text}"))
        .trim()
        .parse()
        .unwrap()
}

#[test]
fn wire_counters_account_every_frame_and_byte() {
    let server = NetServer::bind(
        frozen(24),
        "127.0.0.1:0",
        traced_config(TraceSettings::disabled()),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for _ in 0..10 {
        assert!(client.predict(&[0.2; FEATURES]).unwrap() < CLASSES);
    }
    let _ = client.stats().unwrap();
    let text = client.metrics_dump().unwrap();

    // Request kinds accumulate on the read path. The metrics_dump request
    // itself is accounted before its reply is rendered, so it shows up too.
    assert_eq!(counter_value(&text, "net.wire.predict.frames"), 10);
    assert_eq!(counter_value(&text, "net.wire.stats.frames"), 1);
    assert_eq!(counter_value(&text, "net.wire.metrics_dump.frames"), 1);
    // Reply kinds accumulate on the write path.
    assert_eq!(counter_value(&text, "net.wire.labels.frames"), 10);
    assert_eq!(counter_value(&text, "net.wire.stats_reply.frames"), 1);
    // Byte counts include the 4-byte length prefix, so every accounted
    // frame contributes strictly more than the prefix alone.
    let predict_bytes = counter_value(&text, "net.wire.predict.bytes");
    assert!(
        predict_bytes > 10 * (4 + FEATURES as u64 * 4),
        "10 predict frames of {FEATURES} f32 features accounted only {predict_bytes} bytes"
    );
    let labels_bytes = counter_value(&text, "net.wire.labels.bytes");
    assert!(labels_bytes > 10 * 4, "labels replies under-accounted");
    // Kinds that never crossed the wire stay at zero.
    assert_eq!(counter_value(&text, "net.wire.shutdown.frames"), 0);
    assert_eq!(counter_value(&text, "net.wire.error.bytes"), 0);
    // Every prediction reply's socket write is timed after it succeeds;
    // the stats reply written since proves the tenth one finished.
    assert!(text.contains("net.reply.send_ns histogram count 10 "));
    assert_eq!(counter_value(&text, "net.reply.unsent"), 0);
    client.close();
    server.shutdown();
}

#[test]
fn disabled_tracing_serves_and_dumps_empty() {
    let server = NetServer::bind(
        frozen(23),
        "127.0.0.1:0",
        traced_config(TraceSettings::disabled()),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for _ in 0..5 {
        assert!(client.predict(&[0.3; FEATURES]).unwrap() < CLASSES);
    }
    let (dropped, traces) = client.trace_dump(0).unwrap();
    assert_eq!((dropped, traces.len()), (0, 0));
    // The always-on metrics and stage histograms still work.
    let stats = client.stats().unwrap();
    assert_eq!(stats.requests, 5);
    assert_eq!(stats.stages.gemm.count, 5);
    assert!(client
        .metrics_dump()
        .unwrap()
        .contains("serve.requests counter 5"));
    client.close();
    server.shutdown();
}
