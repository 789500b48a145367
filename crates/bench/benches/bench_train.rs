//! Training-throughput benchmark: the paper's 3-layer MLP (784 → 2000 →
//! 2000 → 10) trained one epoch sequentially and data-parallel over a
//! 2-worker loopback `FF8D` cluster.
//!
//! Both configurations produce **bit-identical weights** (asserted every
//! run, smoke and measure alike — this bench doubles as a parity check on
//! the paper-scale net), so the only question is wall-clock.
//!
//! The `dense_backward/*`, `wgrad/*` and `plan_build/*` rows time the pieces
//! of one dense FF-INT8 step at the paper's 2000-wide shape that ISSUE 13
//! changed — full vs parameter-only backward, allocate-then-add vs
//! epilogue-accumulated weight gradient, one weight-plan build — and the
//! `conv_backward/*` and `quantize/stochastic_seeded_4M` rows the pieces of
//! a conv step that ISSUE 15 changed (the second `small_cnn` convolution at
//! batch 32, whose backward folds a live input gradient; one seeded
//! stochastic quantization of 4 Mi elements). The core count
//! (`step_kernels/nproc`) is recorded beside them, since all but the
//! quantizer shard across worker threads.
//! `step_kernels/{dense,conv}_minor_faults_per_step` count the pages a
//! whole training step touches for the first time (`/proc/self/stat`; off
//! Linux `step_kernels/minor_faults_skipped = 1` says the count was not
//! taken) — fresh activation-sized temporaries show up here before they
//! show up in a timer.
//!
//! `host/stolen_s` is the processor time the host withheld from this
//! machine while the groups ran (`steal` in `/proc/stat`; off Linux
//! `host/stolen_skipped = 1`), so a re-recorded row that moved on a busy host
//! can be told apart from a regression.
//!
//! Running with `--bench` (what `cargo bench` passes) writes a
//! `BENCH_train.json` baseline into `crates/bench/`.

use criterion::Criterion;
use ff_core::{Algorithm, Precision, TrainOptions, TrainSession, TrainerCore};
use ff_data::{synthetic_cifar10, synthetic_mnist, Dataset, SyntheticConfig};
use ff_dist::protocol::TrainMsg;
use ff_dist::{Coordinator, CoordinatorConfig, Worker};
use ff_models::{small_cnn, small_mlp, SmallModelConfig};
use ff_nn::{Conv2d, Dense, ForwardMode, Layer, Sequential};
use ff_quant::{
    int8_matmul_at_b_planned, int8_matmul_at_b_planned_accumulate, QGemmPlan, QuantTensor, Rounding,
};
use ff_serve::{MetricsRegistry, TraceSettings};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// The paper's MNIST architecture: two 2000-wide hidden layers plus the
/// class head — three FF layers.
const HIDDEN: [usize; 2] = [2000, 2000];

fn paper_net() -> Sequential {
    let mut rng = StdRng::seed_from_u64(42);
    small_mlp(784, &HIDDEN, 10, &mut rng)
}

fn train_options(grad_shards: usize) -> TrainOptions {
    TrainOptions {
        epochs: 1,
        batch_size: 32,
        max_eval_samples: 32,
        seed: 11,
        grad_shards,
        ..TrainOptions::fast_test()
    }
}

/// Sizes the dataset so one measured iteration is a few batches of real
/// GEMM work, not minutes of it.
fn dataset(measuring: bool) -> (Dataset, Dataset) {
    synthetic_mnist(&SyntheticConfig {
        train_size: if measuring { 96 } else { 32 },
        test_size: 32,
        noise_std: 0.3,
        max_shift: 0,
        seed: 7,
    })
}

fn weight_bits(net: &mut Sequential) -> Vec<Vec<u32>> {
    net.params_mut()
        .iter()
        .map(|p| p.value.data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn bench_train(c: &mut Criterion) {
    let measuring = c.measuring();
    let (train_set, test_set) = dataset(measuring);
    let options = train_options(1);

    // Reference run once, outside measurement: every benched configuration
    // must land on exactly these bits.
    let mut reference_net = paper_net();
    TrainSession::new(
        &mut reference_net,
        &train_set,
        &test_set,
        Algorithm::FfInt8 { lookahead: false },
        &options,
    )
    .expect("session")
    .run()
    .expect("reference run");
    let reference = weight_bits(&mut reference_net);

    let mut group = c.benchmark_group("train");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| {
            let mut net = paper_net();
            TrainSession::new(
                &mut net,
                &train_set,
                &test_set,
                Algorithm::FfInt8 { lookahead: false },
                &options,
            )
            .expect("session")
            .run()
            .expect("sequential epoch");
            assert_eq!(weight_bits(&mut net), reference, "sequential diverged");
        });
    });
    group.finish();
}

/// Minor page faults of this process so far (field 10 of
/// `/proc/self/stat`); `None` where there is no such file.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may itself contain spaces and parentheses.
    let after_comm = &stat[stat.rfind(')')? + 1..];
    after_comm.split_whitespace().nth(7)?.parse().ok()
}

/// Minor faults per FF-INT8 look-ahead step of `net`, after two warm steps.
fn minor_faults_per_step(mut net: Sequential, train_set: &Dataset, test_set: &Dataset) -> f64 {
    const STEPS: usize = 8;
    let options = TrainOptions {
        lambda_init: 0.02,
        ..train_options(1)
    };
    let algorithm = Algorithm::FfInt8 { lookahead: true };
    let mut session =
        TrainSession::new(&mut net, train_set, test_set, algorithm, &options).expect("session");
    for _ in 0..2 {
        session.step().expect("warm step");
    }
    let before = minor_faults().expect("checked by the caller");
    for _ in 0..STEPS {
        session.step().expect("step");
    }
    (minor_faults().expect("checked by the caller") - before) as f64 / STEPS as f64
}

/// The per-step pieces of one 2000 → 2000 dense FF-INT8 layer and of one
/// 16 → 32 stride-2 convolution, both at batch 32.
fn bench_step_kernels(c: &mut Criterion) {
    let width = if c.measuring() { HIDDEN[0] } else { 64 };
    let mut rng = StdRng::seed_from_u64(13);
    let input = ff_tensor::init::uniform(&[32, width], -1.0, 1.0, &mut rng);
    let grad = ff_tensor::init::randn(&[32, width], 0.0, 0.01, &mut rng);

    let mut layer = Dense::new(width, width, true, &mut rng);
    let mode = ForwardMode::Int8(Rounding::StochasticSeeded(17));
    layer.forward(&input, mode).expect("forward");
    let mut group = c.benchmark_group("dense_backward");
    group.bench_function("full", |b| {
        b.iter(|| layer.backward(&grad).expect("backward"));
    });
    group.bench_function("params_only", |b| {
        b.iter(|| layer.backward_params_only(&grad).expect("backward"));
    });
    group.finish();

    let q_grad = QuantTensor::quantize(&grad, Rounding::Nearest);
    let q_input = QuantTensor::quantize(&input, Rounding::Nearest);
    let mut input_plan = QGemmPlan::from_quant(q_input, 0).expect("input plan");
    let mut accumulator = ff_tensor::Tensor::zeros(&[width, width]);
    let mut group = c.benchmark_group("wgrad");
    group.bench_function("alloc_add", |b| {
        b.iter(|| {
            let gw = int8_matmul_at_b_planned(&q_grad, &mut input_plan).expect("wgrad");
            accumulator.add_assign(&gw).expect("add");
        });
    });
    group.bench_function("accumulate", |b| {
        b.iter(|| {
            int8_matmul_at_b_planned_accumulate(&q_grad, &mut input_plan, accumulator.data_mut())
                .expect("wgrad");
        });
    });
    group.finish();

    let weight = ff_tensor::init::kaiming_normal(&[width, width], width, &mut rng);
    let mut group = c.benchmark_group("plan_build");
    group.bench_function(format!("{width}x{width}"), |b| {
        b.iter(|| {
            let mut plan = QGemmPlan::from_tensor(&weight, 0).expect("weight plan");
            plan.packed_as_b_transposed();
            plan
        });
    });
    group.finish();

    // The second convolution of `small_cnn(base_channels = 16)` on 32×32
    // inputs: 8192 output positions × 144 columns.
    let (in_ch, hw) = if c.measuring() { (16, 32) } else { (2, 8) };
    let image = ff_tensor::init::uniform(&[32, in_ch, hw, hw], -1.0, 1.0, &mut rng);
    let mut conv = Conv2d::new(in_ch, 2 * in_ch, 3, 2, 1, true, &mut rng).expect("geometry");
    let output = conv.forward(&image, mode).expect("forward");
    let grad = ff_tensor::init::randn(output.shape(), 0.0, 0.01, &mut rng);
    let mut group = c.benchmark_group("conv_backward");
    group.bench_function("full", |b| {
        b.iter(|| conv.backward(&grad).expect("backward"));
    });
    group.bench_function("params_only", |b| {
        b.iter(|| conv.backward_params_only(&grad).expect("backward"));
    });
    group.finish();

    let elements = if c.measuring() { 1 << 22 } else { 1 << 10 };
    let values = ff_tensor::init::randn(&[elements], 0.0, 1.0, &mut rng);
    let mut group = c.benchmark_group("quantize");
    group.bench_function("stochastic_seeded_4M", |b| {
        b.iter(|| QuantTensor::quantize_seeded(&values, Rounding::StochasticSeeded(17), 3));
    });
    group.finish();

    if c.measuring() {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        c.record_metric("step_kernels/nproc", cores as f64);
    }
}

/// Minor faults per training step, conv then dense. Runs before every other
/// group: what a step faults in depends on what the allocator already
/// holds, and a fresh process is what a training run is. (The dense row
/// inherits the heap the conv steps grew, so read it as a floor.)
fn bench_minor_faults(c: &mut Criterion) {
    let skipped = minor_faults().is_none();
    c.record_metric("step_kernels/minor_faults_skipped", f64::from(skipped));
    if skipped {
        return;
    }
    let sizes = SyntheticConfig {
        train_size: 32 * 11,
        test_size: 32,
        noise_std: 0.3,
        max_shift: 0,
        seed: 7,
    };
    let mut rng = StdRng::seed_from_u64(42);
    // The smoke run only checks the counting path, on toy widths.
    let (channels, dense) = if c.measuring() {
        (16, paper_net())
    } else {
        (2, small_mlp(784, &[16], 10, &mut rng))
    };
    let (train_set, test_set) = synthetic_cifar10(&sizes);
    let cnn = small_cnn(
        &SmallModelConfig::default().with_base_channels(channels),
        &mut rng,
    );
    c.record_metric(
        "step_kernels/conv_minor_faults_per_step",
        minor_faults_per_step(cnn, &train_set, &test_set),
    );
    let (train_set, test_set) = synthetic_mnist(&sizes);
    c.record_metric(
        "step_kernels/dense_minor_faults_per_step",
        minor_faults_per_step(dense, &train_set, &test_set),
    );
}

fn bench_train_cluster(c: &mut Criterion) {
    let measuring = c.measuring();
    let (train_set, test_set) = dataset(measuring);
    let options = train_options(2);

    let mut reference_net = paper_net();
    TrainSession::new(
        &mut reference_net,
        &train_set,
        &test_set,
        Algorithm::FfInt8 { lookahead: false },
        &options,
    )
    .expect("session")
    .run()
    .expect("reference run");
    let reference = weight_bits(&mut reference_net);

    // One persistent cluster across iterations — workers join once, every
    // measured epoch reuses them (rebuilding TCP workers per sample would
    // measure connection setup, not training).
    let mut coordinator =
        Coordinator::bind("127.0.0.1:0", CoordinatorConfig::default()).expect("bind");
    let addr = coordinator.addr();
    let workers: Vec<_> = (0..2)
        .map(|i| {
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(9000 + i);
                let mut replica = small_mlp(784, &HIDDEN, 10, &mut rng);
                Worker::connect(addr, "", &mut replica)
            })
        })
        .collect();
    while coordinator.worker_count() < 2 {
        std::thread::sleep(Duration::from_millis(2));
    }

    // A coordinator hands out exactly one trainer, so the trainer lives
    // across iterations and is rewound to its pristine state (RNG +
    // optimizer slots) before each measured epoch — the reset is what
    // makes every iteration bit-identical to the reference.
    let mut trainer = coordinator
        .trainer(Precision::Int8, false, options.clone())
        .expect("dist trainer");
    let pristine = trainer.export_state();

    let mut group = c.benchmark_group("train_cluster");
    group.sample_size(10);
    group.bench_function("data_parallel_2_workers", |b| {
        b.iter(|| {
            let mut net = paper_net();
            trainer
                .import_state(&pristine, &mut net)
                .expect("rewind trainer");
            TrainSession::with_trainer(&mut net, &train_set, &test_set, &mut trainer)
                .expect("session")
                .run()
                .expect("cluster epoch");
            assert_eq!(weight_bits(&mut net), reference, "cluster diverged");
        });
    });
    group.finish();
    coordinator.shutdown();
    for handle in workers {
        handle.join().expect("worker thread").expect("worker run");
    }
}

/// Cluster-tracing overhead gate (ISSUE 10): the same 2-worker loopback
/// epoch with observability fully off vs capture-all tracing (every step
/// sampled, every frame and byte accounted, every span committed) — the
/// *worst-case* instrumented configuration, not the production sampled one.
/// The gate is `dist_trace_overhead ≤ 3%`.
///
/// Each configuration is timed as the **best of `waves`** epochs over a
/// persistent cluster (minimum is the noise-robust estimator for a fixed
/// workload — both configurations train the exact same batches to the
/// exact same bits, asserted every wave). The signed overhead is recorded
/// beside the disabled run's own wave-to-wave spread (slowest / fastest
/// wave − 1), so a reader can tell an overhead from this box's noise; the
/// gate itself is checked in `main`, after `BENCH_train.json` is written.
fn bench_dist_trace_overhead(c: &mut Criterion) {
    let measuring = c.measuring();
    let waves: usize = if measuring { 10 } else { 2 };
    let (train_set, test_set) = dataset(measuring);
    let options = train_options(2);

    let mut reference_net = paper_net();
    TrainSession::new(
        &mut reference_net,
        &train_set,
        &test_set,
        Algorithm::FfInt8 { lookahead: false },
        &options,
    )
    .expect("session")
    .run()
    .expect("reference run");
    let reference = weight_bits(&mut reference_net);

    let wave_secs = |config: CoordinatorConfig| -> Vec<f64> {
        let mut coordinator = Coordinator::bind("127.0.0.1:0", config).expect("bind");
        let addr = coordinator.addr();
        let workers: Vec<_> = (0..2)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(9500 + i);
                    let mut replica = small_mlp(784, &HIDDEN, 10, &mut rng);
                    Worker::connect(addr, "", &mut replica)
                })
            })
            .collect();
        while coordinator.worker_count() < 2 {
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut trainer = coordinator
            .trainer(Precision::Int8, false, options.clone())
            .expect("dist trainer");
        let pristine = trainer.export_state();
        let mut epoch = |net: &mut Sequential| {
            trainer.import_state(&pristine, net).expect("rewind");
            TrainSession::with_trainer(net, &train_set, &test_set, &mut trainer)
                .expect("session")
                .run()
                .expect("cluster epoch");
            assert_eq!(weight_bits(net), reference, "traced cluster diverged");
        };
        let mut net = paper_net();
        epoch(&mut net); // warm caches, packed panels, worker replicas
        let secs = (0..waves)
            .map(|_| {
                let mut net = paper_net();
                let start = Instant::now();
                epoch(&mut net);
                start.elapsed().as_secs_f64()
            })
            .collect();
        coordinator.shutdown();
        for handle in workers {
            handle.join().expect("worker thread").expect("worker run");
        }
        secs
    };
    let fastest = |secs: &[f64]| secs.iter().copied().fold(f64::INFINITY, f64::min);

    let disabled_waves = wave_secs(CoordinatorConfig::default());
    let disabled = fastest(&disabled_waves);
    let disabled_spread = disabled_waves.iter().copied().fold(0.0, f64::max) / disabled - 1.0;
    let registry = MetricsRegistry::new();
    let instrumented = fastest(&wave_secs(CoordinatorConfig {
        metrics: Some(registry.clone()),
        trace: TraceSettings {
            capacity: 256,
            sample_per_sec: u32::MAX, // capture-all: every step spans
            ..TraceSettings::default()
        },
        ..CoordinatorConfig::default()
    }));
    let overhead = instrumented / disabled - 1.0;

    // Surface what the instrumented run measured: how the cluster's bytes
    // split across message kinds (ParamSync is the broadcast the paper's
    // edge budget cares about) and whether any shard needed recomputing.
    let bytes = |kind: &str| registry.counter(&format!("dist.wire.{kind}.bytes")).get();
    let total: u64 = TrainMsg::kind_names().iter().map(|kind| bytes(kind)).sum();
    let sync_share = bytes("param_sync") as f64 / total.max(1) as f64;
    let recomputed = registry.counter("dist.coord.recompute.worker_death").get();
    println!(
        "    dist_trace: disabled {:.3}ms instrumented {:.3}ms overhead {:+.2}% \
         (disabled spread {:.2}%; param_sync {:.1}% of {} wire bytes, {} shard(s) recomputed)",
        disabled * 1e3,
        instrumented * 1e3,
        overhead * 100.0,
        disabled_spread * 100.0,
        sync_share * 100.0,
        total,
        recomputed
    );
    if measuring {
        c.record_metric(DIST_TRACE_OVERHEAD, overhead);
        c.record_metric("train_cluster/dist_trace_disabled_spread", disabled_spread);
        c.record_metric("train_cluster/param_sync_byte_share", sync_share);
        c.record_metric("train_cluster/worker_death_recomputes", recomputed as f64);
    }
}

const DIST_TRACE_OVERHEAD: &str = "train_cluster/dist_trace_overhead";

criterion::criterion_group!(
    benches,
    bench_minor_faults,
    bench_train,
    bench_step_kernels,
    bench_train_cluster,
    bench_dist_trace_overhead
);

/// Processor time the host withheld from this machine since boot, in
/// seconds (`steal` in `/proc/stat`, at the usual 100 ticks a second);
/// `None` where there is no such file.
fn stolen_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks / 100.0)
}

/// `criterion_main!` plus the host's stolen time and the cluster-tracing
/// gate, checked only after the baseline is on disk so a tripped gate still
/// leaves the value it tripped on.
fn main() {
    let mut criterion = Criterion::default();
    let stolen_before = stolen_s();
    benches(&mut criterion);
    match (stolen_before, stolen_s()) {
        (Some(before), Some(after)) => criterion.record_metric("host/stolen_s", after - before),
        _ => criterion.record_metric("host/stolen_skipped", 1.0),
    }
    criterion.write_json_baseline(&criterion::default_baseline_path());
    if let Some(overhead) = criterion
        .metrics()
        .iter()
        .find(|m| m.id == DIST_TRACE_OVERHEAD)
        .map(|m| m.value)
    {
        assert!(
            overhead <= 0.03,
            "cluster tracing costs {:.1}% of epoch throughput (gate: 3%)",
            overhead * 100.0
        );
    }
}
