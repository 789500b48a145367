//! End-to-end serving walkthrough: train an FF-INT8 MLP on the synthetic
//! MNIST stand-in, freeze it to a binary artifact, reload it, and serve
//! concurrent traffic through the micro-batching engine.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example serve_mnist
//! ```

use ff_int8::core::{FfTrainer, Precision, TrainOptions};
use ff_int8::data::{synthetic_mnist, SyntheticConfig};
use ff_int8::metrics::accuracy;
use ff_int8::models::small_mlp;
use ff_int8::serve::{load_bytes, save_bytes, FrozenModel, ServeConfig, ServeMode, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;

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
            epochs: 8,
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

    // 2. Freeze to an immutable INT8 artifact and round-trip it.
    let frozen = FrozenModel::freeze(&net, 10)?;
    let artifact = save_bytes(&frozen);
    println!(
        "frozen: {} layers, {} artifact bytes, {} packed-panel bytes",
        frozen.layers().len(),
        artifact.len(),
        frozen.packed_bytes()
    );
    let model = load_bytes(&artifact)?;

    // 3. Serve concurrent traffic with the FF-native goodness sweep.
    let server = Server::start(
        model,
        ServeConfig {
            workers: 2,
            mode: ServeMode::Goodness,
            ..ServeConfig::default()
        },
    )?;
    let subset = test_set.take(200)?;
    server.warmup(subset.iter_batches(32).take(1))?;

    let x = subset.flattened()?;
    let mut predictions = vec![0usize; subset.len()];
    std::thread::scope(|scope| {
        let chunk = subset.len() / 4;
        for (client, slots) in predictions.chunks_mut(chunk).enumerate() {
            let handle = server.handle();
            let x = &x;
            scope.spawn(move || {
                for (offset, slot) in slots.iter_mut().enumerate() {
                    *slot = handle
                        .predict(x.row(client * chunk + offset))
                        .expect("prediction")
                        .label;
                }
            });
        }
    });

    let served_accuracy = accuracy(&predictions, subset.labels());
    let stats = server.stats();
    println!(
        "served {} requests in {} batches (mean batch {:.1}, largest {})",
        stats.requests, stats.batches, stats.mean_batch, stats.max_batch
    );
    println!("latency: {}", stats.latency);
    println!("served accuracy: {:.1}%", served_accuracy * 100.0);
    server.shutdown();
    Ok(())
}
