//! Observability walkthrough: serve a frozen FF-INT8 model over TCP, put
//! it under pipelined load, then query the two wire-level observability
//! surfaces added by `ff-trace` —
//!
//! - `MetricsDump`: the server's whole metrics registry in its sorted text
//!   exposition format, and
//! - `TraceDump`: recent per-request traces from the bounded flight
//!   recorder, each stamped at recv / admit / enqueue / wave-start /
//!   gemm-done / reply-written —
//!
//! and print a per-stage latency breakdown (queue wait, batch assembly,
//! GEMM, reply write) from the `StatsReply` stage histograms.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example trace_dump
//! ```

use ff_int8::metrics::format_table;
use ff_int8::models::small_mlp;
use ff_int8::net::{Client, NetConfig, NetServer};
use ff_int8::serve::{FrozenModel, ServeConfig, ServeMode, Stage, TraceSettings};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Freeze a small random model and serve it with tracing on:
    //    every request is sampled (`sample_per_sec: u32::MAX` admits them
    //    deterministically) and anything over 5 ms end-to-end is retained
    //    as a flagged slow request even when sampling would have skipped it.
    let mut rng = StdRng::seed_from_u64(7);
    let frozen = FrozenModel::freeze(&small_mlp(32, &[24], 4, &mut rng), 4)?;
    let server = NetServer::bind(
        frozen,
        "127.0.0.1:0",
        NetConfig {
            serve: ServeConfig {
                workers: 2,
                mode: ServeMode::Goodness,
                trace: TraceSettings {
                    capacity: 128,
                    sample_per_sec: u32::MAX,
                    slow_threshold: Some(Duration::from_millis(5)),
                    ..TraceSettings::default()
                },
                ..ServeConfig::default()
            },
            ..NetConfig::default()
        },
    )?;
    let addr = server.local_addr();

    // 2. Load: a few hundred predictions across two connections so rows
    //    coalesce into shared GEMM batches.
    let mut workers = Vec::new();
    for seed in 0..2u64 {
        workers.push(std::thread::spawn(move || -> Result<(), String> {
            let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
            let features = [0.25f32; 32];
            for _ in 0..150 {
                client.predict(&features).map_err(|e| e.to_string())?;
            }
            let _ = seed;
            client.close();
            Ok(())
        }));
    }
    for worker in workers {
        worker.join().expect("load worker panicked")?;
    }

    let mut client = Client::connect(addr)?;

    // 3. Per-stage latency breakdown, folded into the ordinary StatsReply.
    let stats = client.stats()?;
    println!("== per-stage latency (from StatsReply) ==");
    let rows: Vec<Vec<String>> = stats
        .stages
        .named()
        .iter()
        .map(|(name, stage)| {
            vec![
                (*name).to_string(),
                stage.count.to_string(),
                format!("{:?}", stage.mean),
                format!("{:?}", stage.p50),
                format!("{:?}", stage.p95),
                format!("{:?}", stage.p99),
                format!("{:?}", stage.max),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &["stage", "count", "mean", "p50", "p95", "p99", "max"],
            &rows
        )
    );

    // 4. The flight recorder: recent per-request traces, oldest first.
    let (dropped, traces) = client.trace_dump(8)?;
    println!(
        "== flight recorder: {} recent traces ({} dropped under contention) ==",
        traces.len(),
        dropped
    );
    for trace in &traces {
        let stamp = |stage: Stage| {
            trace
                .stamp(stage)
                .map_or_else(|| "-".to_string(), |ns| format!("{ns}"))
        };
        println!(
            "seq {:>4}  model {}  {}{}  e2e {:>9} ns  recv {} admit {} enqueue {} \
             wave {} gemm {} reply {}",
            trace.seq,
            trace.model_id,
            if trace.completed { "done" } else { "open" },
            if trace.slow { "/slow" } else { "" },
            trace.end_to_end_ns,
            stamp(Stage::Recv),
            stamp(Stage::Admit),
            stamp(Stage::Enqueue),
            stamp(Stage::WaveStart),
            stamp(Stage::GemmDone),
            stamp(Stage::ReplyWritten),
        );
    }

    // 5. The full metrics registry, one sorted line per metric.
    println!("== metrics registry (MetricsDump) ==");
    print!("{}", client.metrics_dump()?);

    client.close();
    server.shutdown();
    Ok(())
}
