//! Hot-swap determinism: concurrent clients hammer a registry entry while
//! it is swapped between two frozen models many times. Every reply must be
//! bit-identical to exactly one of the two models' direct answers — never
//! a mix within one wave — and no request may be dropped or errored by the
//! swaps.
//!
//! The probe inputs are chosen (by search) so the two models *disagree* on
//! every one of them, which makes each reply attributable: a wave whose
//! labels match neither direct answer vector would prove a torn read.

use ff_models::small_mlp;
use ff_serve::{
    BatchPolicy, FrozenModel, ModelRegistry, ServeConfig, ServeMode, Server, DEFAULT_MODEL_ID,
};
use ff_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

const FEATURES: usize = 8;
const CLASSES: usize = 3;
const SEED_A: u64 = 5;
const SEED_B: u64 = 77;

/// Freezing is deterministic, so the same seed always yields the same
/// model — tests keep one instance for direct answers and hand others to
/// the registry.
fn model_seeded(seed: u64) -> FrozenModel {
    let mut rng = StdRng::seed_from_u64(seed);
    FrozenModel::freeze(&small_mlp(FEATURES, &[6], CLASSES, &mut rng), CLASSES).unwrap()
}

fn probe_row(index: usize) -> Vec<f32> {
    (0..FEATURES)
        .map(|j| ((index * FEATURES + j) as f32 * 0.37).sin())
        .collect()
}

/// Searches the probe space for `want` inputs the two models label
/// differently, returning the inputs plus each model's direct labels.
fn disagreeing_probes(
    a: &FrozenModel,
    b: &FrozenModel,
    want: usize,
) -> (Vec<Vec<f32>>, Vec<usize>, Vec<usize>) {
    let mut probes = Vec::new();
    let mut labels_a = Vec::new();
    let mut labels_b = Vec::new();
    for index in 0..4096 {
        let row = probe_row(index);
        let x = Tensor::from_vec(&[1, FEATURES], row.clone()).unwrap();
        let la = a.predict_logits(&x).unwrap()[0];
        let lb = b.predict_logits(&x).unwrap()[0];
        if la != lb {
            probes.push(row);
            labels_a.push(la);
            labels_b.push(lb);
            if probes.len() == want {
                return (probes, labels_a, labels_b);
            }
        }
    }
    panic!("two differently-seeded models agree on 4096 probes");
}

#[test]
fn concurrent_swaps_never_tear_or_drop_replies() {
    const SWAPS: u64 = 12;
    const CLIENTS: usize = 4;

    let a = model_seeded(SEED_A);
    let b = model_seeded(SEED_B);
    let (probes, labels_a, labels_b) = disagreeing_probes(&a, &b, 12);

    let registry = ModelRegistry::new(model_seeded(SEED_A));
    let server = Server::start_registry(
        registry.clone(),
        ServeConfig {
            workers: 2,
            mode: ServeMode::Logits,
            policy: BatchPolicy {
                max_batch: 16,
                max_wait: Duration::from_micros(200),
            },
            trace: ff_serve::TraceSettings::default(),
        },
    )
    .unwrap();
    let handle = server.handle();

    let swapping = AtomicBool::new(true);
    let waves_a = AtomicU64::new(0);
    let waves_b = AtomicU64::new(0);
    let submitted = AtomicU64::new(0);
    std::thread::scope(|scope| {
        // The swapper: replace the entry back and forth while clients run.
        scope.spawn(|| {
            for swap in 0..SWAPS {
                let seed = if swap % 2 == 0 { SEED_B } else { SEED_A };
                registry.swap(DEFAULT_MODEL_ID, model_seeded(seed)).unwrap();
                std::thread::sleep(Duration::from_millis(2));
            }
            swapping.store(false, Ordering::Release);
        });
        // Clients: waves of the full probe set, each wave pinned to one
        // model epoch by `predict_many_to` — its labels must equal one
        // model's direct answers *exactly*.
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let rows: Vec<&[f32]> = probes.iter().map(Vec::as_slice).collect();
                while swapping.load(Ordering::Acquire) {
                    let wave = handle
                        .predict_many_to(DEFAULT_MODEL_ID, rows.iter().copied())
                        .expect("swaps must not fail requests");
                    submitted.fetch_add(rows.len() as u64, Ordering::Relaxed);
                    let labels: Vec<usize> = wave.into_iter().map(|p| p.label).collect();
                    if labels == labels_a {
                        waves_a.fetch_add(1, Ordering::Relaxed);
                    } else if labels == labels_b {
                        waves_b.fetch_add(1, Ordering::Relaxed);
                    } else {
                        panic!(
                            "torn wave: {labels:?} matches neither model \
                             ({labels_a:?} / {labels_b:?})"
                        );
                    }
                }
            });
        }
    });

    // Both sides of the swap boundary were actually observed…
    assert!(waves_a.load(Ordering::Relaxed) > 0, "model A never served");
    assert!(waves_b.load(Ordering::Relaxed) > 0, "model B never served");
    // …no request was dropped…
    let stats = handle.stats();
    assert_eq!(stats.requests, submitted.load(Ordering::Relaxed));
    assert_eq!(stats.shed_expired, 0);
    // …and the entry's swap bookkeeping is exact.
    let entry = registry.entry(DEFAULT_MODEL_ID).unwrap();
    assert_eq!(entry.version(), 1 + SWAPS);
    let model_stats = &stats.models[0];
    assert_eq!(model_stats.swaps, SWAPS);
    assert_eq!(model_stats.requests, stats.requests);
    server.shutdown();
}

#[test]
fn swap_is_bit_exact_on_both_sides_of_the_boundary() {
    let a = model_seeded(SEED_A);
    let b = model_seeded(SEED_B);
    let (probes, labels_a, labels_b) = disagreeing_probes(&a, &b, 8);

    let registry = ModelRegistry::new(model_seeded(SEED_A));
    let server = Server::start_registry(
        registry.clone(),
        ServeConfig {
            workers: 1,
            mode: ServeMode::Logits,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let handle = server.handle();
    let rows: Vec<&[f32]> = probes.iter().map(Vec::as_slice).collect();

    let before: Vec<usize> = handle
        .predict_many_to(DEFAULT_MODEL_ID, rows.iter().copied())
        .unwrap()
        .into_iter()
        .map(|p| p.label)
        .collect();
    assert_eq!(before, labels_a, "pre-swap answers must be model A's");

    // A snapshot pinned *before* the swap keeps answering as model A even
    // after the entry moves on — readers never observe a half-swapped
    // model.
    let pinned = handle.resolve(DEFAULT_MODEL_ID).unwrap();
    let new_version = registry
        .swap(DEFAULT_MODEL_ID, model_seeded(SEED_B))
        .unwrap();
    assert_eq!(new_version, 2);

    let after: Vec<usize> = handle
        .predict_many_to(DEFAULT_MODEL_ID, rows.iter().copied())
        .unwrap()
        .into_iter()
        .map(|p| p.label)
        .collect();
    assert_eq!(after, labels_b, "post-swap answers must be model B's");

    let via_pin: Vec<usize> = rows
        .iter()
        .map(|row| handle.submit_snapshot(&pinned, row, None).unwrap())
        .collect::<Vec<_>>()
        .into_iter()
        .map(|pending| pending.wait().unwrap().label)
        .collect();
    assert_eq!(via_pin, labels_a, "a pinned epoch must stay bit-stable");
    server.shutdown();
}
