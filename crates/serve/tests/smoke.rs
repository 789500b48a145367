//! The serve smoke gate run by `scripts/check.sh`: train a tiny FF-INT8
//! model, freeze it, round-trip the artifact, answer 100 concurrent
//! requests through the micro-batching server, and assert accuracy parity
//! with direct in-memory evaluation.

use ff_core::{FfTrainer, Precision, TrainOptions};
use ff_data::{synthetic_mnist, SyntheticConfig};
use ff_metrics::accuracy;
use ff_models::small_mlp;
use ff_serve::{load_bytes, save_bytes, BatchPolicy, FrozenModel, ServeConfig, ServeMode, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

#[test]
fn serve_smoke_gate() {
    // 1. Train a tiny model with FF-INT8 (+ look-ahead).
    let (train_set, test_set) = synthetic_mnist(&SyntheticConfig {
        train_size: 300,
        test_size: 100,
        noise_std: 0.15,
        max_shift: 0,
        seed: 5,
    });
    let mut rng = StdRng::seed_from_u64(1);
    let mut net = small_mlp(784, &[64], 10, &mut rng);
    let options = TrainOptions {
        epochs: 6,
        learning_rate: 0.2,
        max_eval_samples: 100,
        ..TrainOptions::default()
    };
    let mut trainer = FfTrainer::new(Precision::Int8, true, options);
    let history = trainer
        .train(&mut net, &train_set, &test_set)
        .expect("training");
    let trained_accuracy = history.final_accuracy().expect("history has accuracy");
    assert!(
        trained_accuracy > 0.5,
        "training collapsed: accuracy {trained_accuracy}"
    );

    // 2. Freeze → save → load.
    let frozen = FrozenModel::freeze(&net, 10).expect("freeze");
    let artifact = save_bytes(&frozen);
    let served_model = load_bytes(&artifact).expect("load");

    // 3. Direct in-memory evaluation of the frozen model.
    let request_count = 100usize;
    let subset = test_set.take(request_count).expect("subset");
    let x = subset.flattened().expect("flatten");
    let direct_predictions = frozen.predict_goodness(&x).expect("direct predictions");
    let direct_accuracy = accuracy(&direct_predictions, subset.labels());

    // 4. 100 requests through the micro-batching server, 4 client threads.
    let server = Server::start(
        served_model,
        ServeConfig {
            workers: 2,
            mode: ServeMode::Goodness,
            policy: BatchPolicy {
                max_batch: 16,
                max_wait: Duration::from_micros(500),
            },
            trace: ff_serve::TraceSettings::default(),
        },
    )
    .expect("server start");
    server
        .warmup(subset.iter_batches(32).take(1))
        .expect("warmup");
    let mut served_predictions = vec![0usize; request_count];
    std::thread::scope(|scope| {
        let chunks = request_count / 4;
        for (client, predictions) in served_predictions.chunks_mut(chunks).enumerate() {
            let handle = server.handle();
            let x = &x;
            scope.spawn(move || {
                for (offset, slot) in predictions.iter_mut().enumerate() {
                    let i = client * chunks + offset;
                    *slot = handle.predict(x.row(i)).expect("request").label;
                }
            });
        }
    });

    // 5. Parity: the served predictions are bit-identical to direct
    //    in-memory inference, so accuracy parity is exact.
    assert_eq!(
        served_predictions, direct_predictions,
        "served predictions diverged from direct frozen inference"
    );
    let served_accuracy = accuracy(&served_predictions, subset.labels());
    assert_eq!(served_accuracy, direct_accuracy, "accuracy parity violated");
    // The INT8-frozen model must stay in the same accuracy regime as the
    // network it was frozen from (weights are already INT8-trained; only
    // activation quantization granularity differs).
    assert!(
        (served_accuracy - trained_accuracy).abs() <= 0.15,
        "frozen accuracy {served_accuracy} too far from trained accuracy {trained_accuracy}"
    );

    let stats = server.stats();
    assert_eq!(stats.requests, request_count as u64);
    assert!(stats.latency.count == stats.requests);
    println!(
        "serve smoke: trained={trained_accuracy:.3} served={served_accuracy:.3} \
         batches={} mean_batch={:.2} latency[{}]",
        stats.batches, stats.mean_batch, stats.latency
    );
    server.shutdown();
}
