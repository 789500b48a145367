//! Micro-batcher equivalence tests: N client threads × M concurrent
//! requests must produce predictions identical to single-threaded direct
//! evaluation, across batch-cap and wait-policy settings — the guarantee
//! that batching is a throughput optimization, never a behaviour change —
//! nor is the thread count the engine picks for a batch's GEMMs.

use ff_models::small_mlp;
use ff_quant::pack::{MR, NR};
use ff_serve::{BatchPolicy, FrozenModel, ServeConfig, ServeMode, Server};
use ff_tensor::par::worker_count;
use ff_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn frozen(seed: u64) -> FrozenModel {
    let mut rng = StdRng::seed_from_u64(seed);
    FrozenModel::freeze(&small_mlp(24, &[20, 16], 5, &mut rng), 5).unwrap()
}

fn samples(count: usize, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    init::uniform(&[count, 24], -1.0, 1.0, &mut rng)
}

/// Runs `clients` threads, each predicting every sample through its own
/// handle, and checks every answer against the single-threaded reference.
fn assert_concurrent_equivalence(config: ServeConfig, clients: usize) {
    let model = frozen(1);
    let x = samples(12, 2);
    let reference = match config.mode {
        ServeMode::Logits => model.predict_logits(&x).unwrap(),
        ServeMode::Goodness => model.predict_goodness(&x).unwrap(),
    };
    let server = Server::start(model, config).unwrap();
    std::thread::scope(|scope| {
        for client in 0..clients {
            let handle = server.handle();
            let x = &x;
            let reference = &reference;
            scope.spawn(move || {
                // Stagger start order per client so batches mix samples.
                for step in 0..x.rows() {
                    let i = (step + client) % x.rows();
                    let prediction = handle.predict(x.row(i)).unwrap();
                    assert_eq!(
                        prediction.label, reference[i],
                        "client {client} sample {i} diverged from single-threaded eval"
                    );
                }
            });
        }
    });
    let stats = server.stats();
    assert_eq!(stats.requests, (clients * x.rows()) as u64);
    assert_eq!(stats.latency.count, stats.requests);
    assert!(stats.batches >= 1 && stats.batches <= stats.requests);
    assert!(stats.max_batch <= config.policy.max_batch.max(1));
    server.shutdown();
}

#[test]
fn concurrent_goodness_predictions_match_single_threaded_eval() {
    for (workers, max_batch, max_wait_us) in [
        (1usize, 1usize, 0u64), // strict one-at-a-time baseline
        (1, 8, 500),            // single worker, coalescing
        (4, 4, 0),              // pool, opportunistic batching only
        (4, 32, 1000),          // pool, aggressive coalescing
    ] {
        assert_concurrent_equivalence(
            ServeConfig {
                workers,
                mode: ServeMode::Goodness,
                policy: BatchPolicy {
                    max_batch,
                    max_wait: Duration::from_micros(max_wait_us),
                },
                trace: ff_serve::TraceSettings::default(),
            },
            8,
        );
    }
}

#[test]
fn concurrent_logits_predictions_match_single_threaded_eval() {
    for (workers, max_batch) in [(1usize, 16usize), (4, 16)] {
        assert_concurrent_equivalence(
            ServeConfig {
                workers,
                mode: ServeMode::Logits,
                policy: BatchPolicy {
                    max_batch,
                    max_wait: Duration::from_micros(300),
                },
                trace: ff_serve::TraceSettings::default(),
            },
            6,
        );
    }
}

#[test]
fn coalescing_actually_batches_under_load() {
    // With many clients hammering one slow-waiting worker, at least one
    // multi-request batch must form (otherwise the micro-batcher is a
    // no-op and the throughput claims are fiction).
    let model = frozen(3);
    let x = samples(4, 4);
    let server = Server::start(
        model,
        ServeConfig {
            workers: 1,
            mode: ServeMode::Goodness,
            policy: BatchPolicy {
                max_batch: 16,
                max_wait: Duration::from_millis(5),
            },
            trace: ff_serve::TraceSettings::default(),
        },
    )
    .unwrap();
    std::thread::scope(|scope| {
        for client in 0..8 {
            let handle = server.handle();
            let x = &x;
            scope.spawn(move || {
                for _ in 0..4 {
                    handle.predict(x.row(client % x.rows())).unwrap();
                }
            });
        }
    });
    let stats = server.stats();
    assert_eq!(stats.requests, 32);
    assert!(
        stats.max_batch > 1,
        "no batch ever coalesced: {stats:?} — scheduler is broken"
    );
    server.shutdown();
}

#[test]
fn mixed_valid_and_invalid_requests_do_not_poison_batches() {
    let model = frozen(5);
    let x = samples(2, 6);
    let reference = model.predict_goodness(&x).unwrap();
    let server = Server::start(
        model,
        ServeConfig {
            workers: 2,
            mode: ServeMode::Goodness,
            policy: BatchPolicy {
                max_batch: 8,
                max_wait: Duration::from_millis(2),
            },
            trace: ff_serve::TraceSettings::default(),
        },
    )
    .unwrap();
    std::thread::scope(|scope| {
        for client in 0..6 {
            let handle = server.handle();
            let x = &x;
            let reference = &reference;
            scope.spawn(move || {
                for (i, &expected) in reference.iter().enumerate() {
                    if client % 2 == 0 {
                        assert_eq!(handle.predict(x.row(i)).unwrap().label, expected);
                    } else {
                        // Wrong width: must fail individually without
                        // affecting the valid requests sharing its batch.
                        assert!(handle.predict(&[0.0; 3]).is_err());
                    }
                }
            });
        }
    });
    let stats = server.stats();
    assert_eq!(
        stats.requests, 6,
        "only the 3 valid clients' requests count"
    );
    server.shutdown();
}

/// Batches wide enough for the engine to shard their row panels over
/// threads must answer exactly what the serial engine answers, in both modes
/// and with one or two workers. A 16-row wave's first layer here is
/// 16 × 256 × 512 MACs, past `PARALLEL_THRESHOLD`. In goodness mode that
/// layer is the fan-out GEMM, whose per-row coefficient (the code of the
/// one-hot label value under the row's scale) a panel must index by absolute
/// row; rows of eleven amplitudes make those coefficients differ between
/// any two rows a panel boundary could confuse.
#[test]
fn threaded_waves_match_serial_eval() {
    const FEATURES: usize = 256;
    const HIDDEN: usize = 512;
    const WAVE: usize = 16;
    const CLIENTS: usize = 2;
    const ROUNDS: usize = 4;
    let mut rng = StdRng::seed_from_u64(21);
    let model =
        FrozenModel::freeze(&small_mlp(FEATURES, &[HIDDEN, HIDDEN], 10, &mut rng), 10).unwrap();
    let mut rng = StdRng::seed_from_u64(22);
    let mut x = init::uniform(&[2 * CLIENTS * WAVE, FEATURES], -1.0, 1.0, &mut rng);
    for i in 0..x.rows() {
        let amplitude = 1.0 + (i * 7 % 11) as f32 * 0.4;
        x.row_mut(i).iter_mut().for_each(|v| *v *= amplitude);
    }
    // The smallest batch whose first-layer GEMM the engine runs on more
    // than one thread on this host, if any.
    let threads_for = |rows: usize| worker_count(rows * HIDDEN * FEATURES, rows.div_ceil(MR));
    let threaded_rows = (1..=WAVE).find(|&rows| threads_for(rows) >= 2);
    if threaded_rows.is_none() {
        println!(
            "threaded serving path SKIPPED: the engine runs a {WAVE}-row wave on {} thread(s) \
             on this host, so these waves were checked on the serial path only",
            threads_for(WAVE)
        );
    }
    for mode in [ServeMode::Logits, ServeMode::Goodness] {
        let oracle = match mode {
            ServeMode::Logits => model.predict_logits_threads(&x, Some(1)),
            ServeMode::Goodness => model.predict_goodness_threads(&x, Some(1)),
        }
        .unwrap();
        for workers in [1, 2] {
            let config = ServeConfig {
                workers,
                mode,
                policy: BatchPolicy {
                    max_batch: WAVE,
                    max_wait: Duration::from_millis(2),
                },
                trace: ff_serve::TraceSettings::default(),
            };
            let server = Server::start(model.clone(), config).unwrap();
            let mut threaded_served = 0;
            for round in 0..ROUNDS {
                std::thread::scope(|scope| {
                    let clients: Vec<_> = (0..CLIENTS)
                        .map(|client| {
                            let handle = server.handle();
                            let (x, oracle) = (&x, &oracle);
                            scope.spawn(move || {
                                let first = (round * CLIENTS + client) * WAVE % x.rows();
                                let rows = (first..first + WAVE).map(|i| x.row(i));
                                let predictions = handle.predict_many(rows).unwrap();
                                for (i, prediction) in (first..).zip(&predictions) {
                                    assert_eq!(
                                        prediction.label, oracle[i],
                                        "{mode:?} workers={workers} sample {i} (batch of {}) \
                                         diverged from the serial engine",
                                        prediction.batch_size
                                    );
                                }
                                predictions
                                    .iter()
                                    .filter(|p| threaded_rows.is_some_and(|t| p.batch_size >= t))
                                    .count()
                            })
                        })
                        .collect();
                    for client in clients {
                        threaded_served += client.join().unwrap();
                    }
                });
            }
            server.shutdown();
            if let Some(rows) = threaded_rows {
                assert!(
                    threaded_served > 0,
                    "{mode:?} workers={workers}: no batch reached {rows} rows, so the \
                     threaded path never ran"
                );
            }
        }
    }
}

/// Batches of one and two rows fill one `MR` row strip, which the engine
/// splits by column. They must answer exactly what the serial engine
/// answers — straight through the model and through a default-policy server
/// (no batching wait), in both modes. The first two layers' one-row GEMMs
/// here are 1 × 1024 × 1024 MACs, at `PARALLEL_THRESHOLD`; in goodness mode
/// the first is the fan-out GEMM.
#[test]
fn one_strip_batches_match_serial_eval() {
    const FEATURES: usize = 1024;
    const HIDDEN: usize = 1024;
    const SAMPLES: usize = 6;
    let mut rng = StdRng::seed_from_u64(31);
    let model =
        FrozenModel::freeze(&small_mlp(FEATURES, &[HIDDEN, HIDDEN], 10, &mut rng), 10).unwrap();
    let mut rng = StdRng::seed_from_u64(32);
    let x = init::uniform(&[SAMPLES, FEATURES], -1.0, 1.0, &mut rng);
    let threads = worker_count(HIDDEN * FEATURES, HIDDEN.div_ceil(NR));
    if threads < 2 {
        println!(
            "column-split serving path SKIPPED: the engine runs a one-row layer on {threads} \
             thread(s) on this host, so these batches were checked on the serial path only"
        );
    }
    let rows = |range: std::ops::Range<usize>| {
        let data = range.clone().flat_map(|i| x.row(i).to_vec()).collect();
        Tensor::from_vec(&[range.len(), FEATURES], data).unwrap()
    };
    for mode in [ServeMode::Logits, ServeMode::Goodness] {
        let predict = |input: &Tensor, threads| match mode {
            ServeMode::Logits => model.predict_logits_threads(input, threads),
            ServeMode::Goodness => model.predict_goodness_threads(input, threads),
        };
        let oracle = predict(&x, Some(1)).unwrap();
        let server = Server::start(
            model.clone(),
            ServeConfig {
                mode,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let handle = server.handle();
        for first in 0..SAMPLES - 1 {
            for batch in [first..first + 1, first..first + 2] {
                let input = rows(batch.clone());
                let case = format!("{mode:?} rows {batch:?}");
                let serial = predict(&input, Some(1)).unwrap();
                assert_eq!(serial, oracle[batch.clone()], "{case}: Some(1) per batch");
                assert_eq!(predict(&input, None).unwrap(), serial, "{case}: automatic");
                if mode == ServeMode::Logits {
                    let bits = |threads| -> Vec<u32> {
                        let logits = model.forward_threads(&input, threads).unwrap();
                        logits.data().iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(bits(None), bits(Some(1)), "{case}: logit bits");
                }
                let served = handle
                    .predict_many(batch.clone().map(|i| x.row(i)))
                    .unwrap();
                let labels: Vec<usize> = served.iter().map(|p| p.label).collect();
                assert_eq!(labels, serial, "{case}: served");
            }
        }
        server.shutdown();
    }
}
