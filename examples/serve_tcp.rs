//! Network-serving walkthrough: train an FF-INT8 MLP, freeze it, expose it
//! over TCP with the `FF8P` wire protocol, and drive it with concurrent
//! clients — single predictions, pipelined waves and one-frame batches —
//! before shutting the server down over the wire.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example serve_tcp
//! ```

use ff_int8::core::{FfTrainer, Precision, TrainOptions};
use ff_int8::data::{synthetic_mnist, SyntheticConfig};
use ff_int8::metrics::accuracy;
use ff_int8::models::small_mlp;
use ff_int8::net::{AdmissionConfig, Client, ClientConfig, NetConfig, NetServer, RetryPolicy};
use ff_int8::serve::{FrozenModel, ServeConfig, ServeMode};
use ff_int8::trace::MetricsExporter;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Read;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train a small MLP with FF-INT8 + look-ahead.
    println!("== training FF-INT8 MLP on synthetic MNIST ==");
    let (train_set, test_set) = synthetic_mnist(&SyntheticConfig {
        train_size: 600,
        test_size: 200,
        noise_std: 0.15,
        max_shift: 0,
        seed: 3,
    });
    let mut rng = StdRng::seed_from_u64(1);
    let mut net = small_mlp(784, &[128], 10, &mut rng);
    let mut trainer = FfTrainer::new(
        Precision::Int8,
        true,
        TrainOptions {
            epochs: 6,
            learning_rate: 0.2,
            max_eval_samples: 200,
            ..TrainOptions::default()
        },
    );
    let history = trainer.train(&mut net, &train_set, &test_set)?;
    println!(
        "trained: final test accuracy {:.1}%",
        history.final_accuracy().unwrap_or(0.0) * 100.0
    );

    // 2. Freeze and bind the TCP front-end on an ephemeral loopback port.
    //    (A real deployment passes "0.0.0.0:7878" and runs clients on
    //    other machines — the protocol is the same.)
    let frozen = FrozenModel::freeze(&net, 10)?;
    let server = NetServer::bind(
        frozen,
        "127.0.0.1:0",
        NetConfig {
            conn_threads: 4,
            read_timeout: Duration::from_millis(250),
            // Bound in-flight work: beyond this many rows the server sheds
            // with a typed `Overloaded` reply + retry hint instead of
            // letting the batch queue grow without limit.
            admission: AdmissionConfig {
                max_in_flight_rows: 2048,
                retry_after: Duration::from_millis(10),
                ..AdmissionConfig::default()
            },
            serve: ServeConfig {
                workers: 2,
                mode: ServeMode::Goodness,
                ..ServeConfig::default()
            },
            ..NetConfig::default()
        },
    )?;
    let addr = server.local_addr();
    println!("== serving FF8P on {addr} ==");

    // Alongside the binary protocol, expose the server's whole metrics
    // registry on a second plaintext port — `nc host port` (or any poller)
    // gets one live snapshot per connection, no FF8P client required.
    let mut exporter = MetricsExporter::bind("127.0.0.1:0", server.handle().metrics())?;
    println!("== metrics exposition on {} ==", exporter.addr());

    // 3. A client probes the server, then four concurrent clients classify
    //    the test set over the wire.
    // The probe opts into resilience: a 250 ms budget per request (carried
    // on the wire, shed server-side once expired) and seeded jittered
    // retries for transient failures — reruns reproduce the same schedule.
    let mut probe = Client::connect_with(
        addr,
        ClientConfig {
            deadline: Some(Duration::from_millis(250)),
            retry: RetryPolicy::standard(7),
            ..ClientConfig::default()
        },
    )?;
    let info = probe.health()?;
    println!(
        "health: {} features, {} classes, {:?} mode, {:?} state",
        info.input_features, info.num_classes, info.mode, info.state
    );

    let subset = test_set.take(200)?;
    let x = subset.flattened()?;
    let mut predictions = vec![0usize; subset.len()];
    std::thread::scope(|scope| {
        let chunk = subset.len() / 4;
        for (client_index, slots) in predictions.chunks_mut(chunk).enumerate() {
            let x = &x;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let base = client_index * chunk;
                // A third each: single predicts, a pipelined wave, one
                // batch frame — all three produce bit-identical answers.
                let third = chunk / 3;
                for (offset, slot) in slots.iter_mut().enumerate().take(third) {
                    *slot = client.predict(x.row(base + offset)).expect("predict");
                }
                let wave = client
                    .predict_pipelined((third..2 * third).map(|o| x.row(base + o)))
                    .expect("pipelined");
                slots[third..2 * third].copy_from_slice(&wave);
                let flat: Vec<f32> = (2 * third..chunk)
                    .flat_map(|o| x.row(base + o).to_vec())
                    .collect();
                let batched = client.predict_batch(x.cols(), &flat).expect("batch");
                slots[2 * third..].copy_from_slice(&batched);
                client.close();
            });
        }
    });

    let served_accuracy = accuracy(&predictions, subset.labels());
    let stats = probe.stats()?;
    println!(
        "served {} rows in {} GEMM batches (mean batch {:.1}, largest {})",
        stats.requests, stats.batches, stats.mean_batch, stats.max_batch
    );
    println!("queue-to-reply latency: {}", stats.latency);
    println!(
        "load shedding: {} expired in queue, {} refused overloaded, {} refused expired",
        stats.shed_expired, stats.rejected_overload, stats.rejected_deadline
    );
    println!("served accuracy over TCP: {:.1}%", served_accuracy * 100.0);

    // 4. Scrape the plaintext metrics port the way a fleet poller would.
    let mut scrape = String::new();
    std::net::TcpStream::connect(exporter.addr())?.read_to_string(&mut scrape)?;
    println!(
        "metrics scrape: {} lines, e.g. {}",
        scrape.lines().count(),
        scrape
            .lines()
            .find(|l| l.starts_with("serve.requests"))
            .unwrap_or("<serve.requests missing>")
    );
    exporter.shutdown();

    // 5. Shut the server down over the wire.
    probe.shutdown_server()?;
    server.shutdown();
    println!("server drained and shut down");
    Ok(())
}
