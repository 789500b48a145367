//! The three training workloads: `train_mlp`, `train_cnn`, `train_cluster`.
//!
//! The untraced run times `TrainSession::step()` for the window on its
//! first set-up, then repeats set-up for `setup_s`. The traced run takes a fixed number of steps twice (once
//! with every instrument off, once with harness spans, a step observer and,
//! on the cluster, capture-all `ClusterSpan`s), checks both land on the same
//! weights, and then replays the lower crates' public functions on the same
//! batch shapes so the step time decomposes, residual included.

use crate::fixtures::{LayerShape, TrainKind, BATCH, CLASSES, SETUP_REPS, TRAIN_ROWS, WARMUP_OPS};
use crate::ledger::{Ledger, Outcome};
use crate::spans::Recorder;
use crate::stats::{latencies_ms, latency_ms, median, percentile, rows_per_s, Op, GROUPS};
use ff_core::checkpoint::save_bytes;
use ff_core::shard::{compute_shard, reduce_shard_grads, shard_tasks, PassMode, PreparedBatch};
use ff_core::{
    ff_loss_scaled, first_layer_is_dense, goodness, goodness_gradient, Algorithm, FfLossKind,
    FfTrainer, Precision, SessionControl, SessionStatus, StepSpans, TrainEvent, TrainOptions,
    TrainSession,
};
use ff_data::{positive_negative_sets, Dataset};
use ff_dist::protocol::{decode_msg, encode_msg, TrainMsg};
use ff_dist::worker::WorkerReport;
use ff_dist::{pull_cluster_traces, Coordinator, CoordinatorConfig, DistTrainer, Worker};
use ff_edge::{AlgorithmKind, CostModel, TrainingRun};
use ff_nn::{Optimizer, Sequential, Sgd};
use ff_quant::gemm::reference;
use ff_quant::pack::{PackSource, PackedA};
use ff_quant::{
    int8_gemm_op_count, int8_matmul_a_bt_planned, int8_matmul_at_b_planned, int8_matmul_planned,
    QGemmPlan, QuantTensor, Rounding,
};
use ff_tensor::conv::{im2col, ConvGeometry};
use ff_tensor::{init, linalg, Tensor};
use ff_trace::{ClusterSpan, MetricsRegistry, TraceSettings};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::rc::Rc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Steps a window may take before it would leave epoch 0.
const MAX_WINDOW_STEPS: usize = TRAIN_ROWS / BATCH - WARMUP_OPS - 2;
/// Passes of each replayed call; the median is reported.
const REPLAY_REPS: usize = 5;
/// The trainers' tail percentile: a 10 s window holds 50-90 steps, so p75
/// is the highest of p75/p90/p99 with at least ten samples beyond it.
const TAIL: f64 = 0.75;

/// Steps of the traced run, fixed by `--seconds` alone so that the loss and
/// the accuracy after them repeat exactly per seed.
fn traced_steps(seconds: f64) -> usize {
    ((seconds * 1.2).round() as usize).clamp(3, 30)
}

/// Two loopback workers joined to one coordinator.
struct Cluster {
    coordinator: Coordinator,
    workers: Vec<JoinHandle<ff_dist::Result<WorkerReport>>>,
    join_ms: f64,
}

impl Cluster {
    fn start(kind: TrainKind, seed: u64, config: CoordinatorConfig) -> Self {
        let started = Instant::now();
        let coordinator = Coordinator::bind("127.0.0.1:0", config).expect("bind coordinator");
        let addr = coordinator.addr();
        let workers = (1..=2)
            .map(|index| {
                std::thread::spawn(move || {
                    // Replica values are irrelevant: the first ParamSync
                    // overwrites them.
                    let mut replica = kind.net(seed.wrapping_add(index));
                    Worker::connect(addr, "", &mut replica)
                })
            })
            .collect();
        while coordinator.worker_count() < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        Cluster {
            coordinator,
            workers,
            join_ms: started.elapsed().as_secs_f64() * 1e3,
        }
    }

    fn stop(mut self) {
        self.coordinator.shutdown();
        for worker in self.workers {
            worker
                .join()
                .expect("worker thread panicked")
                .expect("worker failed");
        }
    }
}

/// A warmed-up session, handed to the body of [`with_rig`].
struct Rig<'a> {
    session: TrainSession<'a>,
    train_set: &'a Dataset,
    cluster_addr: Option<SocketAddr>,
}

/// What one set-up (and whatever ran on it) left behind.
struct RigReport<R> {
    setup_s: f64,
    gen_s: f64,
    dataset_mb: f64,
    join_ms: f64,
    /// FNV-1a over the bit patterns of every parameter after the body ran.
    checksum: u64,
    weights_finite: bool,
    body: R,
}

/// Set-up as a user pays it: generate the data, build the model, join the
/// cluster if `cluster` is given, open the session, take the warm-up steps.
/// Then runs `body` on the live session and tears everything down.
fn with_rig<R>(
    kind: TrainKind,
    seed: u64,
    cluster: Option<CoordinatorConfig>,
    body: impl FnOnce(&mut Rig<'_>) -> R,
) -> RigReport<R> {
    let started = Instant::now();
    let (train_set, test_set) = kind.datasets(seed);
    let gen_s = started.elapsed().as_secs_f64();
    let mut net = kind.net(seed);
    let options = kind.options(seed);
    let mut cluster = cluster.map(|config| Cluster::start(kind, seed, config));
    let mut trainer: Option<DistTrainer> = cluster.as_mut().map(|cluster| {
        cluster
            .coordinator
            .trainer(Precision::Int8, false, options.clone())
            .expect("dist trainer")
    });
    let session = match trainer.as_mut() {
        Some(trainer) => TrainSession::with_trainer(&mut net, &train_set, &test_set, trainer),
        None => TrainSession::new(&mut net, &train_set, &test_set, kind.algorithm(), &options),
    }
    .expect("session");
    let mut rig = Rig {
        session,
        train_set: &train_set,
        cluster_addr: cluster.as_ref().map(|cluster| cluster.coordinator.addr()),
    };
    for _ in 0..WARMUP_OPS {
        rig.session.step().expect("warm-up step");
    }
    let setup_s = started.elapsed().as_secs_f64();
    let body = body(&mut rig);
    drop(rig);
    drop(trainer);
    let join_ms = cluster.as_ref().map_or(0.0, |cluster| cluster.join_ms);
    if let Some(cluster) = cluster {
        cluster.stop();
    }
    let (checksum, weights_finite) = weight_checksum(&mut net);
    RigReport {
        setup_s,
        gen_s,
        dataset_mb: (train_set.images().len() + test_set.images().len()) as f64 * 4.0 / 1e6,
        join_ms,
        checksum,
        weights_finite,
        body,
    }
}

fn weight_checksum(net: &mut Sequential) -> (u64, bool) {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut finite = true;
    for param in net.params_mut() {
        for value in param.value.data() {
            finite &= value.is_finite();
            hash = (hash ^ u64::from(value.to_bits())).wrapping_mul(0x0100_0000_01b3);
        }
    }
    (hash, finite)
}

/// Steps `session` until `seconds` have passed or `max_steps` were taken.
/// Returns the ops completed and how many steps failed (a failure ends the
/// window: the session cannot be trusted past it).
fn step_window(session: &mut TrainSession<'_>, seconds: f64, max_steps: usize) -> (Vec<Op>, u64) {
    let window = Instant::now();
    let mut ops = Vec::new();
    while window.elapsed().as_secs_f64() < seconds && ops.len() < max_steps {
        let start_ns = window.elapsed().as_nanos() as u64;
        match session.step() {
            Ok(SessionStatus::Running) => ops.push(Op {
                start_ns,
                end_ns: window.elapsed().as_nanos() as u64,
                rows: BATCH as u32,
            }),
            Ok(status) => panic!("window left epoch 0: {status:?}"),
            Err(error) => {
                eprintln!("step failed: {error}");
                return (ops, 1);
            }
        }
    }
    (ops, 0)
}

pub fn run(kind: TrainKind, seed: u64, seconds: f64, trace: bool) -> Outcome {
    if trace {
        return traced(kind, seed, seconds);
    }
    let cluster = || (kind == TrainKind::Cluster).then(CoordinatorConfig::default);
    // The window runs on the first set-up, in a process that has done
    // nothing else, and the peak is read before the repeats: on a heap that
    // earlier set-ups have churned, `VmHWM` jumps by a 2000x2000 buffer in
    // about one run in eight.
    let report = with_rig(kind, seed, cluster(), |rig| {
        let window = step_window(&mut rig.session, seconds, MAX_WINDOW_STEPS);
        (window, crate::peak_rss_mb())
    });
    let mut setups = vec![report.setup_s];
    for _ in 1..SETUP_REPS {
        setups.push(with_rig(kind, seed, cluster(), |_| ()).setup_s);
    }
    let ((ops, failed), peak_rss_mb) = report.body;

    let mut ledger = Ledger::default();
    ledger.set("setup_s", median(setups));
    ledger.set("rows_per_s", rows_per_s(&ops));
    ledger.set("op_p50_ms", latency_ms(&ops, 0.5));
    ledger.set("op_tail_ms", latency_ms(&ops, TAIL));
    ledger.set("peak_rss_mb", peak_rss_mb);
    Outcome {
        correct: failed == 0 && report.weights_finite,
        attempted: ops.len() as u64 + failed,
        failed,
        ledger,
        notes: vec![format!(
            "op_tail_ms is the quiet-quartile p{:.0} over {GROUPS} groups of {} steps in all; weights finite: {}",
            TAIL * 100.0,
            ops.len(),
            report.weights_finite
        )],
    }
}

/// What the step observer saw: each step's loss and the trainer's own
/// three-phase clock.
type StepLog = Rc<RefCell<Vec<(f32, StepSpans)>>>;

/// What the traced run read off the live session once its steps were done.
struct AfterSteps {
    /// The coordinator's drop counter and its capture-all spans.
    cluster_spans: Option<(u64, Vec<ClusterSpan>)>,
    accuracy: f32,
    eval_ms: f64,
    checkpoint_bytes: usize,
    checkpoint_ms: f64,
    /// The batch the replays run on.
    batch: (Tensor, Vec<usize>),
}

fn traced(kind: TrainKind, seed: u64, seconds: f64) -> Outcome {
    let steps = traced_steps(seconds);
    let mut recorder = Recorder::new();
    let mut ledger = Ledger::default();
    let mut notes = Vec::new();
    let mut correct = true;

    // Every instrument off: the reference for both the overhead figure and
    // the determinism check.
    let plain_cluster = (kind == TrainKind::Cluster).then(CoordinatorConfig::default);
    let plain = with_rig(kind, seed, plain_cluster, |rig| {
        step_window(&mut rig.session, f64::INFINITY, steps)
    });

    let registry = MetricsRegistry::new();
    let traced_cluster = (kind == TrainKind::Cluster).then(|| CoordinatorConfig {
        metrics: Some(registry.clone()),
        trace: TraceSettings {
            capacity: 4096,
            sample_per_sec: u32::MAX, // capture-all
            ..TraceSettings::default()
        },
        ..CoordinatorConfig::default()
    });
    let log: StepLog = Rc::default();
    let root = recorder.enter("traced_run", 0);
    let traced = with_rig(kind, seed, traced_cluster, |rig| {
        let sink = Rc::clone(&log);
        rig.session.on_event(move |event| {
            if let TrainEvent::StepEnd { loss, spans, .. } = event {
                sink.borrow_mut().push((*loss, *spans));
            }
            SessionControl::Continue
        });
        for step in 0..steps {
            let (status, _) = recorder.time("core.step", step as u64, || rig.session.step());
            assert_eq!(status.expect("traced step"), SessionStatus::Running);
        }
        let cluster_spans = rig
            .cluster_addr
            .map(|addr| pull_cluster_traces(addr, 0).expect("pull cluster traces"));
        let op = steps as u64;
        let (accuracy, eval_ms) = recorder.time("core.eval", op, || rig.session.eval());
        let (checkpoint_bytes, checkpoint_ms) = recorder.time("core.checkpoint", op, || {
            save_bytes(&rig.session.checkpoint()).len()
        });
        AfterSteps {
            cluster_spans,
            accuracy: accuracy.expect("eval"),
            eval_ms,
            checkpoint_bytes,
            checkpoint_ms,
            batch: first_batch(rig.train_set),
        }
    });
    recorder.exit(root);
    let after = &traced.body;

    let log = log.borrow();
    let losses_finite = log.iter().all(|(loss, _)| loss.is_finite());
    if traced.checksum != plain.checksum || !losses_finite || !traced.weights_finite {
        correct = false;
        notes.push(format!(
            "determinism check failed: untraced {:016x} vs traced {:016x}, losses finite {losses_finite}",
            plain.checksum, traced.checksum
        ));
    }
    let phase = |pick: fn(&StepSpans) -> u64| {
        median(
            log.iter()
                .map(|(_, spans)| pick(spans) as f64 / 1e6)
                .collect(),
        )
    };
    let step_ms = recorder.median_ms("core.step");
    let plain_p50 = percentile(&latencies_ms(&plain.body.0), 0.5);
    ledger.set("core.step_ms", step_ms);
    ledger.set("core.prepare_ms", phase(|spans| spans.quantize_ns));
    ledger.set("core.forward_ms", phase(|spans| spans.forward_ns));
    ledger.set("core.update_ms", phase(|spans| spans.update_ns));
    ledger.set("core.eval_ms", after.eval_ms);
    ledger.set("core.test_accuracy", f64::from(after.accuracy));
    ledger.set("core.checkpoint_ms", after.checkpoint_ms);
    ledger.set("core.checkpoint_bytes", after.checkpoint_bytes as f64);
    ledger.set(
        "core.loss_at_end",
        f64::from(log.last().expect("steps ran").0),
    );
    ledger.set("data.gen_s", traced.gen_s);
    ledger.set("data.dataset_mb", traced.dataset_mb);
    ledger.set("trace.overhead_share", step_ms / plain_p50 - 1.0);

    if kind == TrainKind::Cluster {
        let (dropped, spans) = after.cluster_spans.as_ref().expect("cluster ran");
        ledger.set("trace.dropped", *dropped as f64);
        ledger.set("dist.join_ms", traced.join_ms);
        cluster_ledger(&mut ledger, spans, &registry, steps);
        correct &= cluster_parity(&mut ledger, &mut notes, kind, seed, steps, &traced, step_ms);
        shard_replay(&mut ledger, &mut recorder, kind, seed, &after.batch);
    } else {
        layer_replay(&mut ledger, &mut recorder, kind, seed, &after.batch);
        let leaves = ledger.get("data.batch_prep_ms")
            + ledger.get("nn.forward_ms")
            + ledger.get("nn.backward_ms")
            + ledger.get("nn.optimizer_ms");
        ledger.set("core.step_residual_ms", step_ms - leaves);
        for (name, algorithm) in [
            (
                "core.step_ms_ff_fp32",
                Algorithm::FfFp32 { lookahead: true },
            ),
            ("core.step_ms_bp_gdai8", Algorithm::BpGdai8),
        ] {
            ledger.set(name, column_step_ms(kind, seed, algorithm));
        }
        edge_model(&mut ledger, kind);
    }

    ledger.set("trace.spans_recorded", recorder.len() as f64);
    crate::write_trace(&recorder, kind.name());
    Outcome {
        correct,
        attempted: (2 * steps) as u64,
        failed: 0,
        ledger,
        notes,
    }
}

/// The first `BATCH` rows, in dataset order: the batch the replays use.
fn first_batch(train_set: &Dataset) -> (Tensor, Vec<usize>) {
    let rows: Vec<usize> = (0..BATCH).collect();
    (
        train_set.images().select_rows(&rows).expect("batch rows"),
        train_set.labels()[..BATCH].to_vec(),
    )
}

/// Per-phase medians from the coordinator's capture-all spans, and the wire
/// ledger from its `dist.wire.*` counters.
fn cluster_ledger(
    ledger: &mut Ledger,
    spans: &[ClusterSpan],
    registry: &MetricsRegistry,
    steps: usize,
) {
    // The ring also holds the warm-up steps; the traced steps are the last.
    let spans = &spans[spans.len().saturating_sub(steps)..];
    let phase = |pick: &dyn Fn(&ClusterSpan) -> u64| {
        median(spans.iter().map(|span| pick(span) as f64 / 1e6).collect())
    };
    let worker = |pick: &dyn Fn(&ff_trace::ShardSpan) -> u64| {
        phase(&|span| {
            let remote: Vec<u64> = span
                .shards
                .iter()
                .filter(|shard| shard.has_worker_stamps())
                .map(pick)
                .collect();
            remote.iter().sum::<u64>() / remote.len().max(1) as u64
        })
    };
    ledger.set("dist.prepare_ms", phase(&|s| s.prepare_done_ns));
    ledger.set(
        "dist.sync_ms",
        phase(&|s| s.sync_done_ns - s.prepare_done_ns),
    );
    ledger.set(
        "dist.dispatch_ms",
        phase(&|s| s.dispatch_done_ns - s.sync_done_ns),
    );
    ledger.set(
        "dist.collect_ms",
        phase(&|s| s.collect_done_ns - s.dispatch_done_ns),
    );
    ledger.set(
        "dist.reduce_ms",
        phase(&|s| s.reduce_done_ns - s.collect_done_ns),
    );
    ledger.set(
        "dist.apply_ms",
        phase(&|s| s.apply_done_ns - s.reduce_done_ns),
    );
    ledger.set("dist.worker_decode_ms", worker(&|s| s.decoded_ns));
    ledger.set(
        "dist.worker_compute_ms",
        worker(&|s| s.computed_ns - s.decoded_ns),
    );
    ledger.set(
        "dist.worker_encode_ms",
        worker(&|s| s.encoded_ns - s.computed_ns),
    );

    let all_steps = registry.counter("dist.coord.steps").get().max(1) as f64;
    let count =
        |kind: &str, what: &str| registry.counter(&format!("dist.wire.{kind}.{what}")).get() as f64;
    let total = |what: &str| -> f64 {
        TrainMsg::kind_names()
            .iter()
            .map(|kind| count(kind, what))
            .sum()
    };
    ledger.set("dist.wire_bytes_per_step", total("bytes") / all_steps);
    ledger.set("dist.frames_per_step", total("frames") / all_steps);
    ledger.set(
        "dist.param_sync_byte_share",
        count("param_sync", "bytes") / total("bytes").max(1.0),
    );
    ledger.set(
        "dist.local_recomputes",
        registry.counter("dist.coord.shards_local").get() as f64,
    );
}

/// The cluster's contract: its weights after the traced steps are
/// bit-identical to a local trainer with the same two gradient shards on
/// the same batches, and no shard fell back to the coordinator.
fn cluster_parity(
    ledger: &mut Ledger,
    notes: &mut Vec<String>,
    kind: TrainKind,
    seed: u64,
    steps: usize,
    traced: &RigReport<impl Sized>,
    step_ms: f64,
) -> bool {
    let local = with_rig(kind, seed, None, |rig| {
        step_window(&mut rig.session, f64::INFINITY, steps)
    });
    let sequential_ms = percentile(&latencies_ms(&local.body.0), 0.5);
    ledger.set("dist.sequential_step_ms", sequential_ms);
    ledger.set("dist.vs_sequential_x", sequential_ms / step_ms);
    let recomputes = ledger.get("dist.local_recomputes");
    let same = local.checksum == traced.checksum && recomputes == 0.0;
    if !same {
        notes.push(format!(
            "cluster parity failed: local {:016x} vs cluster {:016x}, {recomputes} local recomputes",
            local.checksum, traced.checksum
        ));
    }
    same
}

/// One prepared batch, built the way `FfTrainer::step_batch` builds it.
fn prepared_batch(
    kind: TrainKind,
    seed: u64,
    net: &Sequential,
    batch: &(Tensor, Vec<usize>),
) -> PreparedBatch {
    let mut trainer = FfTrainer::new(Precision::Int8, false, kind.options(seed));
    let dense_first = first_layer_is_dense(net);
    trainer
        .prepare_batch(&batch.0, &batch.1, CLASSES, dense_first)
        .expect("prepare batch")
}

/// `core.compute_shard_ms` / `core.reduce_ms`: what one of the two shards
/// costs when computed in-process, and what folding both together costs —
/// plus the codec cost of this model's `ParamSync`.
fn shard_replay(
    ledger: &mut Ledger,
    recorder: &mut Recorder,
    kind: TrainKind,
    seed: u64,
    batch: &(Tensor, Vec<usize>),
) {
    let options = kind.options(seed);
    let mut net = kind.net(seed);
    let prepared = prepared_batch(kind, seed, &net, batch);
    let tasks = shard_tasks(
        &prepared,
        options.grad_shards,
        net.len(),
        options.theta,
        0.0,
        Precision::Int8,
    )
    .expect("shard tasks");
    let root = recorder.enter("replay", 0);
    let (mut compute, mut reduce, mut encode, mut decode) = (vec![], vec![], vec![], vec![]);
    for rep in 0..REPLAY_REPS as u64 {
        let mut reduced = None;
        for task in &tasks {
            let (grads, ms) =
                recorder.time("core.compute_shard", rep, || compute_shard(&mut net, task));
            compute.push(ms);
            let grads = grads.expect("compute shard");
            let (_, ms) = recorder.time("core.reduce", rep, || {
                reduce_shard_grads(&mut reduced, &grads).expect("reduce")
            });
            reduce.push(ms);
        }
        let sync = TrainMsg::ParamSync {
            version: rep,
            params: net.params_mut().iter().map(|p| p.value.clone()).collect(),
        };
        let (bytes, ms) = recorder.time("dist.encode_param_sync", rep, || encode_msg(&sync));
        encode.push(ms);
        let (_, ms) = recorder.time("dist.decode_param_sync", rep, || {
            decode_msg(&bytes).expect("decode ParamSync")
        });
        decode.push(ms);
    }
    recorder.exit(root);
    ledger.set("core.compute_shard_ms", median(compute));
    ledger.set("core.reduce_ms", median(reduce));
    ledger.set("dist.encode_param_sync_ms", median(encode));
    ledger.set("dist.decode_param_sync_ms", median(decode));
    ledger.set("nn.param_bytes", net.param_count() as f64 * 4.0);
}

/// Row-normalises a trainable layer's output the way the FF pass does
/// before feeding the next layer.
fn normalized(output: &Tensor) -> Tensor {
    output
        .reshape(&[output.rows(), output.cols()])
        .expect("flatten")
        .normalize_rows(1e-6)
        .reshape(output.shape())
        .expect("restore shape")
}

/// Replays one training step's calls into `ff-data`, `ff-nn`, `ff-quant`
/// and `ff-tensor` on the same batch and shapes, each call in its own span.
/// Per-step figures are medians over [`REPLAY_REPS`] passes.
fn layer_replay(
    ledger: &mut Ledger,
    recorder: &mut Recorder,
    kind: TrainKind,
    seed: u64,
    batch: &(Tensor, Vec<usize>),
) {
    let options = kind.options(seed);
    let root = recorder.enter("replay", 0);

    // ff-data: cut the batch out of the dataset and build the positive and
    // negative overlays.
    let (train_set, _) = kind.datasets(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut prep = Vec::new();
    for rep in 0..REPLAY_REPS as u64 {
        let rows: Vec<usize> = (0..BATCH)
            .map(|i| (i * 7 + rep as usize) % TRAIN_ROWS)
            .collect();
        let (_, ms) = recorder.time("data.batch_prep", rep, || {
            let images = train_set.images().select_rows(&rows).expect("rows");
            let labels: Vec<usize> = rows.iter().map(|&i| train_set.labels()[i]).collect();
            let flat = images
                .reshape(&[images.rows(), images.cols()])
                .expect("flat");
            let (pos, neg) =
                positive_negative_sets(&flat, &labels, CLASSES, &mut rng).expect("overlays");
            (pos.reshape(images.shape()), neg.reshape(images.shape()))
        });
        prep.push(ms);
    }
    ledger.set("data.batch_prep_ms", median(prep));

    // ff-nn: every Layer::forward / Layer::backward of the positive and the
    // negative pass, then the per-layer SGD step.
    let mut net = kind.net(seed);
    let prepared = prepared_batch(kind, seed, &net, batch);
    let mut optimizers: Vec<Sgd> = (0..net.len())
        .map(|_| Sgd::new(options.learning_rate, options.momentum))
        .collect();
    let lambda = options.lambda_init;
    let mut layer_inputs: Vec<Tensor> = Vec::new();
    let (mut forward, mut backward, mut optimizer) = (vec![], vec![], vec![]);
    for rep in 0..REPLAY_REPS as u64 {
        net.zero_grad();
        let (mut forward_ms, mut backward_ms) = (0.0, 0.0);
        for (input, loss_kind, pass_seed) in [
            (&prepared.pos, FfLossKind::Positive, prepared.pos_seed),
            (&prepared.neg, FfLossKind::Negative, prepared.neg_seed),
        ] {
            let pass = PassMode::from_seed(Precision::Int8, pass_seed);
            let capture = layer_inputs.is_empty();
            let mut outputs = Vec::new();
            let mut x = input.clone();
            for (index, layer) in net.layers_mut().iter_mut().enumerate() {
                if capture {
                    layer_inputs.push(x.clone());
                }
                let (y, ms) = recorder.time("nn.forward", rep, || {
                    layer.forward(&x, pass.for_layer(index))
                });
                forward_ms += ms;
                let y = y.expect("forward");
                x = if layer.param_count() > 0 {
                    normalized(&y)
                } else {
                    y.clone()
                };
                outputs.push(y);
            }
            // Each unit's own goodness gradient; then the look-ahead relay
            // backwards, exactly the calls `accumulate_ff_pass` makes.
            let mut relay: Option<Tensor> = None;
            for index in (0..outputs.len()).rev() {
                let layer = &mut net.layers_mut()[index];
                let own = (layer.param_count() > 0).then(|| {
                    let output = &outputs[index];
                    let flat = output
                        .reshape(&[output.rows(), output.cols()])
                        .expect("flat");
                    let (_, dg) = ff_loss_scaled(&goodness(&flat), options.theta, loss_kind, BATCH);
                    goodness_gradient(&flat, &dg)
                        .reshape(output.shape())
                        .expect("restore shape")
                });
                let mut call = |grad: &Tensor| {
                    let (out, ms) = recorder.time("nn.backward", rep, || layer.backward(grad));
                    backward_ms += ms;
                    out.expect("backward")
                };
                let incoming = relay.take();
                relay = match (own, incoming) {
                    (Some(own), incoming) => {
                        let d_own = call(&own);
                        let d_relay = incoming.map(|grad| call(&grad));
                        (lambda > 0.0 && index > 0).then(|| {
                            let mut next = d_own.scale(lambda);
                            if let Some(d_relay) = d_relay {
                                next.add_assign(&d_relay).expect("relay shapes");
                            }
                            next
                        })
                    }
                    (None, Some(incoming)) => {
                        let passed = call(&incoming);
                        (index > 0).then_some(passed)
                    }
                    (None, None) => None,
                };
            }
        }
        let (_, ms) = recorder.time("nn.optimizer", rep, || {
            for (layer, sgd) in net.layers_mut().iter_mut().zip(&mut optimizers) {
                let mut params = layer.params_mut();
                if !params.is_empty() {
                    sgd.step(&mut params);
                }
                drop(params);
                layer.zero_grad();
            }
        });
        forward.push(forward_ms);
        backward.push(backward_ms);
        optimizer.push(ms);
    }
    ledger.set("nn.forward_ms", median(forward));
    ledger.set("nn.backward_ms", median(backward));
    ledger.set("nn.optimizer_ms", median(optimizer));
    ledger.set("nn.param_bytes", net.param_count() as f64 * 4.0);

    let kernels = kernel_replay(ledger, recorder, kind, seed, &layer_inputs, lambda > 0.0);
    ledger.set(
        "nn.self_ms",
        ledger.get("nn.forward_ms") + ledger.get("nn.backward_ms") - kernels,
    );
    recorder.exit(root);
}

/// Replays the `ff-quant` / `ff-tensor` calls under every dense and conv
/// layer of one step. Returns the per-step total of the calls the layers
/// really make (so the caller can state `ff-nn`'s self time).
fn kernel_replay(
    ledger: &mut Ledger,
    recorder: &mut Recorder,
    kind: TrainKind,
    seed: u64,
    layer_inputs: &[Tensor],
    lookahead: bool,
) -> f64 {
    let shapes = kind.shapes();
    let last_mac = shapes
        .iter()
        .rposition(|shape| *shape != LayerShape::GlobalPool)
        .expect("a trainable layer");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b65_726e);
    let rounding = Rounding::StochasticSeeded(seed);
    // Per-step milliseconds by span name, one entry per rep.
    let mut totals: BTreeMap<&str, [f64; REPLAY_REPS]> = BTreeMap::new();
    let (mut macs, mut packed_bytes, mut im2col_bytes) = (0u64, 0usize, 0usize);
    let mut naive_ms = 0.0;

    for (index, shape) in shapes.iter().enumerate() {
        let (n, geom) = match *shape {
            LayerShape::Dense { outputs, .. } => (outputs, None),
            LayerShape::Conv { out_ch, stride, .. } => (
                out_ch,
                Some(ConvGeometry::new(3, stride, 1).expect("geometry")),
            ),
            LayerShape::GlobalPool => continue,
        };
        let relu = index != last_mac;
        // Every layer but the last is backpropagated through twice per pass
        // when the look-ahead relay runs: its own goodness, then the relay.
        let backward_calls = if lookahead && index != last_mac { 2 } else { 1 };
        let input = &layer_inputs[index];
        let columns = |recorder: &mut Recorder, rep: u64| match geom {
            Some(geom) => {
                let (cols, ms) = recorder.time("tensor.im2col", rep, || im2col(input, geom));
                (cols.expect("im2col").0, ms)
            }
            None => (input.clone(), 0.0),
        };
        let (m, k) = {
            let (cols, _) = columns(&mut Recorder::new(), 0);
            (cols.rows(), cols.cols())
        };
        let weight = init::kaiming_normal(&[n, k], k, &mut rng);
        let bias = Tensor::zeros(&[n]);
        let grad = init::randn(&[m, n], 0.0, 0.01, &mut rng);
        // Both passes (positive, negative) make the same calls.
        let passes = 2.0;
        let calls = backward_calls as f64;
        macs += int8_gemm_op_count(m, k, n).0 * 2 * (1 + backward_calls as u64);

        for rep in 0..REPLAY_REPS {
            let op = rep as u64;
            let mut add = |name: &'static str, ms: f64| {
                totals.entry(name).or_insert([0.0; REPLAY_REPS])[rep] += ms;
            };
            let (cols, ms) = columns(recorder, op);
            add("tensor.im2col", ms * passes);
            let (q_x, ms) = recorder.time("quant.quantize", op, || {
                QuantTensor::quantize_seeded(&cols, rounding, 0xD1)
            });
            add("quant.quantize", ms * passes);
            let (mut plan, ms) = recorder.time("quant.plan_build", op, || {
                let mut plan = QGemmPlan::from_tensor(&weight, op).expect("weight plan");
                plan.packed_as_b_transposed();
                plan
            });
            add("quant.plan_build", ms);
            let (_, ms) = recorder.time("quant.gemm_fwd", op, || {
                int8_matmul_a_bt_planned(&q_x, &mut plan, Some(&bias), relu).expect("forward gemm")
            });
            add("quant.gemm_fwd", ms * passes);
            let (_, ms) = recorder.time("quant.pack", op, || {
                PackedA::pack(q_x.codes(), m, k, PackSource::RowMajor)
            });
            add("quant.pack", ms * passes);
            if rep == 0 {
                // The naive oracle is slow; once is enough for a ratio.
                let (_, ms) = recorder.time("quant.gemm_naive", op, || {
                    reference::int8_matmul_a_bt(&q_x, plan.quant()).expect("naive gemm")
                });
                naive_ms += ms * passes;
            }
            let mut input_plan = QGemmPlan::from_quant(q_x, 0).expect("input plan");
            for call in 0..backward_calls as u64 {
                // The first backward call of a pass packs the cached input
                // once; the relay's second call reuses the panels.
                let (q_g, ms) = recorder.time("quant.quantize", op, || {
                    QuantTensor::quantize_seeded(&grad, rounding, 0xD2 + call)
                });
                add("quant.quantize", ms * passes);
                let (_, ms) = recorder.time("quant.gemm_wgrad", op, || {
                    int8_matmul_at_b_planned(&q_g, &mut input_plan).expect("wgrad gemm")
                });
                add("quant.gemm_wgrad", ms * passes);
                let (_, ms) = recorder.time("tensor.dgrad_fp32", op, || {
                    linalg::matmul(&q_g.dequantize(), &weight).expect("dgrad matmul")
                });
                add("tensor.dgrad_fp32", ms * passes);
                if call == 0 {
                    let (_, ms) = recorder.time("quant.gemm_dgrad", op, || {
                        int8_matmul_planned(&q_g, &mut plan).expect("int8 dgrad gemm")
                    });
                    add("quant.gemm_dgrad", ms * passes * calls);
                    let (_, ms) = recorder.time("quant.pack", op, || {
                        PackedA::pack(q_g.codes(), n, m, PackSource::Transposed)
                    });
                    add("quant.pack", ms * passes * calls);
                }
            }
            if rep + 1 == REPLAY_REPS {
                packed_bytes += plan.packed_bytes() + input_plan.packed_bytes();
                if geom.is_some() {
                    im2col_bytes += cols.len() * 4 * 2;
                }
            }
        }
    }

    // A model without conv layers never opens an im2col span.
    let per_step = |name: &str| totals.get(name).map_or(0.0, |reps| median(reps.to_vec()));
    ledger.set("tensor.im2col_ms", per_step("tensor.im2col"));
    ledger.set("tensor.im2col_bytes_per_step", im2col_bytes as f64);
    ledger.set("tensor.dgrad_fp32_ms", per_step("tensor.dgrad_fp32"));
    ledger.set("quant.quantize_ms", per_step("quant.quantize"));
    ledger.set("quant.pack_ms", per_step("quant.pack"));
    ledger.set("quant.plan_build_ms", per_step("quant.plan_build"));
    ledger.set("quant.gemm_fwd_ms", per_step("quant.gemm_fwd"));
    ledger.set("quant.gemm_wgrad_ms", per_step("quant.gemm_wgrad"));
    ledger.set("quant.gemm_dgrad_ms", per_step("quant.gemm_dgrad"));
    ledger.set("quant.gemm_naive_ms", naive_ms);
    ledger.set(
        "quant.packed_vs_naive_x",
        naive_ms / per_step("quant.gemm_fwd"),
    );
    ledger.set("quant.int8_macs_per_step", macs as f64);
    ledger.set("quant.packed_bytes", packed_bytes as f64);
    // `quant.pack` is already inside the planned GEMM calls and
    // `quant.gemm_dgrad` is the INT8 alternative the layers do not run:
    // neither is part of what the layers spend.
    [
        "tensor.im2col",
        "quant.quantize",
        "quant.plan_build",
        "quant.gemm_fwd",
        "quant.gemm_wgrad",
        "tensor.dgrad_fp32",
    ]
    .iter()
    .map(|name| per_step(name))
    .sum()
}

/// Median step time of `algorithm` on the same net and data: the paper's
/// comparison columns, for reference only.
fn column_step_ms(kind: TrainKind, seed: u64, algorithm: Algorithm) -> f64 {
    let (train_set, test_set) = kind.datasets(seed);
    let mut net = kind.net(seed);
    let options = TrainOptions {
        grad_shards: 1,
        ..kind.options(seed)
    };
    let mut session =
        TrainSession::new(&mut net, &train_set, &test_set, algorithm, &options).expect("session");
    session.step().expect("warm-up step");
    let (ops, failed) = step_window(&mut session, f64::INFINITY, 3);
    assert_eq!(failed, 0, "{} step failed", algorithm.label());
    percentile(&latencies_ms(&ops), 0.5)
}

/// `ff-edge`'s analytic figures for this workload's spec on the paper's
/// board. Modelled, not measured: they sit beside the measured step time
/// and peak RSS so the two can be compared.
fn edge_model(ledger: &mut Ledger, kind: TrainKind) {
    let model = CostModel::jetson_orin_nano();
    let one_step = TrainingRun {
        batch_size: BATCH,
        batches_per_epoch: 1,
        epochs: 1,
    };
    let cost = model.estimate(AlgorithmKind::FfInt8, &kind.spec(), &one_step);
    let model_mb = cost.memory_bytes as f64 / 1e6;
    ledger.set("edge.model_step_ms", cost.time_s * 1e3);
    ledger.set("edge.model_energy_mj", cost.energy_j * 1e3);
    ledger.set("edge.model_mem_mb", model_mb);
    ledger.set("edge.rss_vs_model_x", crate::peak_rss_mb() / model_mb);
}
