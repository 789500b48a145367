//! The four serving workloads: `serve_lone`, `serve_open`, `serve_sat`,
//! `serve_goodness`. All serve the frozen paper MLP through `ff-net`'s TCP
//! front-end on loopback; server and load generator share the process.
//!
//! Every returned label is compared with `FrozenModel::predict_*` on the
//! same pool row, precomputed in set-up: a mismatch is a failed op.

use crate::fixtures::{
    request_pool, serving_net, CLASSES, MNIST_FEATURES, POOL_ROWS, SETUP_REPS, WARMUP_OPS, WAVE,
};
use crate::ledger::{Ledger, Outcome};
use crate::spans::Recorder;
use crate::stats::{latencies_ms, latency_ms, median, percentile, rows_per_s, Op, GROUPS};
use ff_net::protocol::{read_frame, write_frame};
use ff_net::{Client, Frame, NetConfig, NetServer, DEFAULT_MAX_FRAME_BYTES};
use ff_quant::{int8_matmul_a_bt_shared_rows, RowQuantTensor};
use ff_serve::{load_bytes, save_bytes, FrozenLayer, FrozenModel, ServeConfig, ServeMode};
use ff_tensor::{init, Tensor};
use ff_trace::TraceSettings;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Open-loop arrival rate, requests per second: about 45 % of what the one
/// worker sustains, the load at which batches start to form.
const OPEN_RATE: f64 = 1000.0;
/// Open-loop replies later than this count towards `net.late_share_50ms`.
const LATE_MS: f64 = 50.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    /// One closed-loop caller, one request in flight.
    Lone,
    /// Seeded Poisson arrivals at [`OPEN_RATE`] on one connection.
    Open,
    /// Two closed-loop connections, pipelined waves of [`WAVE`].
    Sat,
    /// One closed-loop connection, waves of [`WAVE`], goodness mode.
    Goodness,
}

impl ServeKind {
    pub fn name(self) -> &'static str {
        match self {
            ServeKind::Lone => "serve_lone",
            ServeKind::Open => "serve_open",
            ServeKind::Sat => "serve_sat",
            ServeKind::Goodness => "serve_goodness",
        }
    }

    fn mode(self) -> ServeMode {
        match self {
            ServeKind::Goodness => ServeMode::Goodness,
            _ => ServeMode::Logits,
        }
    }

    /// The highest percentile with at least ten samples beyond it in a
    /// 10 s window: thousands of requests, or a few hundred goodness waves.
    /// The open loop stops at p90: on a shared box its p99 swings by half
    /// between identical runs (it is still printed, as `net.open_p99_ms`).
    fn tail(self) -> f64 {
        match self {
            ServeKind::Goodness | ServeKind::Open => 0.90,
            _ => 0.99,
        }
    }

    fn connections(self) -> usize {
        match self {
            ServeKind::Sat => 2,
            _ => 1,
        }
    }
}

/// A bound server, its request pool and oracle, and connected clients.
struct Stack {
    server: NetServer,
    model: FrozenModel,
    pool: Tensor,
    expected: Vec<usize>,
    clients: Vec<Client>,
    freeze_ms: f64,
    save_load_ms: f64,
    artifact_bytes: usize,
    connect_ms: f64,
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The model's own answer for `rows`, on one GEMM thread like the server's
/// worker.
fn direct(model: &FrozenModel, mode: ServeMode, rows: &Tensor) -> Vec<usize> {
    match mode {
        ServeMode::Logits => model.predict_logits_threads(rows, Some(1)),
        ServeMode::Goodness => model.predict_goodness_threads(rows, Some(1)),
    }
    .expect("direct prediction")
}

impl Stack {
    /// Set-up as a deployment pays it: generate the requests, build and
    /// freeze the model, round-trip it through its `FF8S` artifact, compute
    /// the oracle, bind, connect, warm up. Returns the stack and the
    /// seconds all of that took.
    fn start(kind: ServeKind, seed: u64, trace: TraceSettings) -> (Stack, f64) {
        let started = Instant::now();
        let pool = request_pool(seed);
        let net = serving_net(seed);
        let clock = Instant::now();
        let frozen = FrozenModel::freeze(&net, CLASSES).expect("freeze");
        let freeze_ms = ms_since(clock);
        let clock = Instant::now();
        let artifact = save_bytes(&frozen);
        let model = load_bytes(&artifact).expect("load artifact");
        let save_load_ms = ms_since(clock);
        let expected = direct(&model, kind.mode(), &pool);
        let config = NetConfig {
            serve: ServeConfig {
                mode: kind.mode(),
                trace,
                ..ServeConfig::default()
            },
            ..NetConfig::default()
        };
        let server = NetServer::bind(model.clone(), "127.0.0.1:0", config).expect("bind");
        let clock = Instant::now();
        let clients: Vec<Client> = (0..kind.connections())
            .map(|_| Client::connect(server.local_addr()).expect("connect"))
            .collect();
        let connect_ms = ms_since(clock) / clients.len() as f64;
        let mut stack = Stack {
            server,
            model,
            pool,
            expected,
            clients,
            freeze_ms,
            save_load_ms,
            artifact_bytes: artifact.len(),
            connect_ms,
        };
        let warm_up = stack.window(kind, seed, Limit::Ops(WARMUP_OPS));
        assert_eq!(warm_up.failed, 0, "warm-up op failed");
        let setup_s = started.elapsed().as_secs_f64();
        (stack, setup_s)
    }

    fn stop(mut self) {
        for client in &mut self.clients {
            client.close();
        }
        self.server.shutdown();
    }

    /// Runs this workload's load shape until `limit`.
    fn window(&mut self, kind: ServeKind, seed: u64, limit: Limit) -> Load {
        let origin = Instant::now();
        let (pool, expected) = (&self.pool, &self.expected);
        match kind {
            ServeKind::Lone => {
                closed_loop(&mut self.clients[0], pool, expected, origin, limit, 1, 0)
            }
            ServeKind::Goodness => {
                closed_loop(&mut self.clients[0], pool, expected, origin, limit, WAVE, 0)
            }
            ServeKind::Sat => std::thread::scope(|scope| {
                let lanes: Vec<_> = self
                    .clients
                    .iter_mut()
                    .enumerate()
                    .map(|(lane, client)| {
                        // Each connection starts elsewhere in the pool.
                        let offset = lane * POOL_ROWS / 2;
                        scope.spawn(move || {
                            closed_loop(client, pool, expected, origin, limit, WAVE, offset)
                        })
                    })
                    .collect();
                let mut merged = Load::default();
                for lane in lanes {
                    let load = lane.join().expect("load thread panicked");
                    merged.ops.extend(load.ops);
                    merged.failed += load.failed;
                }
                merged
            }),
            ServeKind::Open => open_loop(
                self.server.local_addr(),
                pool,
                expected,
                seed,
                origin,
                limit,
            ),
        }
    }
}

/// When a window ends: after a duration (measured runs) or an op count
/// (warm-up). Each connection of a multi-connection workload applies the
/// limit itself.
#[derive(Debug, Clone, Copy)]
enum Limit {
    Seconds(f64),
    Ops(usize),
}

impl Limit {
    fn reached(self, origin: Instant, done: usize) -> bool {
        match self {
            Limit::Seconds(seconds) => origin.elapsed().as_secs_f64() >= seconds,
            Limit::Ops(ops) => done >= ops,
        }
    }
}

/// One caller that sends its next op only after the previous one answered.
/// An op is `rows` pool rows: one `predict`, or one pipelined wave.
fn closed_loop(
    client: &mut Client,
    pool: &Tensor,
    expected: &[usize],
    origin: Instant,
    limit: Limit,
    rows: usize,
    offset: usize,
) -> Load {
    let mut ops = Vec::new();
    let mut failed = 0;
    let mut cursor = offset;
    while !limit.reached(origin, ops.len() + failed as usize) {
        let indices: Vec<usize> = (0..rows).map(|i| (cursor + i) % POOL_ROWS).collect();
        cursor += rows;
        let start_ns = origin.elapsed().as_nanos() as u64;
        let labels = if rows == 1 {
            client
                .predict(pool.row(indices[0]))
                .map(|label| vec![label])
        } else {
            client.predict_pipelined(indices.iter().map(|&i| pool.row(i)))
        };
        let end_ns = origin.elapsed().as_nanos() as u64;
        let right = labels.is_ok_and(|labels| {
            labels.len() == rows && labels.iter().zip(&indices).all(|(l, &i)| *l == expected[i])
        });
        if right {
            ops.push(Op {
                start_ns,
                end_ns,
                rows: rows as u32,
            });
        } else {
            failed += 1;
        }
    }
    Load {
        ops,
        failed,
        ..Load::default()
    }
}

/// What one window of load completed.
#[derive(Default)]
struct Load {
    /// Ops answered, and answered right.
    ops: Vec<Op>,
    /// Ops that errored, were shed, or came back with the wrong label.
    failed: u64,
    /// Open loop only: how late the generator wrote each request, in ms
    /// after it was due.
    gen_late_ms: Vec<f64>,
}

/// Independent users: a writer thread sends `Predict` frames at seeded
/// Poisson arrivals whether or not earlier ones were answered; this thread
/// pairs the in-order replies. Latency runs from each request's *due* time.
fn open_loop(
    addr: SocketAddr,
    pool: &Tensor,
    expected: &[usize],
    seed: u64,
    origin: Instant,
    limit: Limit,
) -> Load {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6f70_656e);
    let mut due_ns = Vec::new();
    let mut clock = 0.0f64;
    loop {
        // Exponential gaps by inverse transform.
        let uniform: f64 = rng.gen();
        clock += -(1.0 - uniform).ln() / OPEN_RATE;
        let done = match limit {
            Limit::Seconds(seconds) => clock >= seconds,
            Limit::Ops(ops) => due_ns.len() >= ops,
        };
        if done {
            break;
        }
        due_ns.push((clock * 1e9) as u64);
    }

    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut writer = BufWriter::new(stream.try_clone().expect("clone stream"));
    let mut reader = BufReader::new(stream);
    let due = &due_ns;
    let mut ops = Vec::with_capacity(due.len());
    let mut failed = 0u64;
    let gen_late_ms = std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut late_ms = Vec::with_capacity(due.len());
            for (index, &due_ns) in due.iter().enumerate() {
                let due_at = origin + Duration::from_nanos(due_ns);
                if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let frame = Frame::Predict {
                    id: index as u64 + 1,
                    deadline_micros: 0,
                    features: pool.row(index % POOL_ROWS).to_vec(),
                };
                late_ms.push(due_at.elapsed().as_secs_f64() * 1e3);
                if write_frame(&mut writer, &frame, DEFAULT_MAX_FRAME_BYTES).is_err() {
                    break;
                }
            }
            late_ms
        });
        for (index, &start_ns) in due.iter().enumerate() {
            let right = match read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES) {
                Ok(Frame::Labels { labels, .. }) => {
                    labels.len() == 1 && labels[0] as usize == expected[index % POOL_ROWS]
                }
                // A typed error reply is a shed request; the stream stays
                // in step.
                Ok(_) => false,
                Err(_) => {
                    failed += (due.len() - index) as u64;
                    break;
                }
            };
            if right {
                ops.push(Op {
                    start_ns,
                    end_ns: origin.elapsed().as_nanos() as u64,
                    rows: 1,
                });
            } else {
                failed += 1;
            }
        }
        generator.join().expect("generator thread panicked")
    });
    Load {
        ops,
        failed,
        gen_late_ms,
    }
}

pub fn run(kind: ServeKind, seed: u64, seconds: f64, trace: bool) -> Outcome {
    if trace {
        return traced(kind, seed, seconds);
    }
    // The window runs on the first set-up and the peak is read before the
    // repeats, for the reason given in `train::run`.
    let (mut stack, setup_s) = Stack::start(kind, seed, TraceSettings::disabled());
    let Load { ops, failed, .. } = stack.window(kind, seed, Limit::Seconds(seconds));
    let peak_rss_mb = crate::peak_rss_mb();
    stack.stop();
    let mut setups = vec![setup_s];
    for _ in 1..SETUP_REPS {
        let (stack, setup_s) = Stack::start(kind, seed, TraceSettings::disabled());
        stack.stop();
        setups.push(setup_s);
    }

    let mut ledger = Ledger::default();
    ledger.set("setup_s", median(setups));
    ledger.set("rows_per_s", rows_per_s(&ops));
    ledger.set("op_p50_ms", latency_ms(&ops, 0.5));
    ledger.set("op_tail_ms", latency_ms(&ops, kind.tail()));
    ledger.set("peak_rss_mb", peak_rss_mb);
    Outcome {
        correct: failed == 0,
        attempted: ops.len() as u64 + failed,
        failed,
        ledger,
        notes: vec![format!(
            "op_tail_ms is the quiet-quartile p{:.0} over {GROUPS} groups of {} ops in all",
            kind.tail() * 100.0,
            ops.len()
        )],
    }
}

/// The share of the traced run's budget each of its two windows gets.
const TRACED_WINDOW_SHARE: f64 = 0.3;

fn traced(kind: ServeKind, seed: u64, seconds: f64) -> Outcome {
    let mut recorder = Recorder::new();
    let mut ledger = Ledger::default();
    let window = Limit::Seconds(seconds * TRACED_WINDOW_SHARE);
    let root = recorder.enter("traced_run", 0);

    // Window one: every instrument off. Its p50 is the base of the
    // overhead figure, and its server answers the lone-caller probes.
    let (mut plain, _) = Stack::start(kind, seed, TraceSettings::disabled());
    let origin_ns = recorder.now_ns();
    let untraced = plain.window(kind, seed, window);
    recorder.push_ops("op.untraced", origin_ns, &untraced.ops);
    let plain_p50 = percentile(&latencies_ms(&untraced.ops), 0.5);
    ledger.set("serve.freeze_ms", plain.freeze_ms);
    ledger.set("serve.save_load_ms", plain.save_load_ms);
    ledger.set("serve.artifact_bytes", plain.artifact_bytes as f64);
    ledger.set("net.connect_ms", plain.connect_ms);
    probes(
        &mut ledger,
        &mut recorder,
        kind,
        &mut plain,
        plain_p50,
        seconds,
    );
    plain.stop();

    // Window two: the server records a trace for every request.
    let capture_all = TraceSettings {
        capacity: 1 << 15,
        sample_per_sec: u32::MAX,
        ..TraceSettings::default()
    };
    let (mut stack, _) = Stack::start(kind, seed, capture_all);
    let handle = stack.server.handle();
    let before = handle.stats();
    let wire_bytes = |handle: &ff_serve::ServeHandle| -> u64 {
        let metrics = handle.metrics();
        Frame::kind_names()
            .iter()
            .map(|kind| metrics.counter(&format!("net.wire.{kind}.bytes")).get())
            .sum()
    };
    let bytes_before = wire_bytes(&handle);
    let origin_ns = recorder.now_ns();
    let Load {
        ops,
        failed,
        gen_late_ms,
    } = stack.window(kind, seed, window);
    recorder.push_ops("op.traced", origin_ns, &ops);
    if kind == ServeKind::Open {
        // Tail percentiles of an open loop on a shared box swing by an
        // order of magnitude between identical runs: information only.
        let latencies = latencies_ms(&ops);
        let late = latencies.iter().filter(|ms| **ms > LATE_MS).count();
        ledger.set("net.open_p90_ms", percentile(&latencies, 0.90));
        ledger.set("net.open_p99_ms", percentile(&latencies, 0.99));
        ledger.set(
            "net.late_share_50ms",
            late as f64 / latencies.len().max(1) as f64,
        );
        ledger.set(
            "net.gen_late_max_ms",
            gen_late_ms.iter().copied().fold(0.0, f64::max),
        );
    }
    let after = handle.stats();
    let requests = (after.requests - before.requests).max(1) as f64;
    let batches = (after.batches - before.batches).max(1) as f64;
    let stages = handle.stage_histograms().summaries();
    let ms = |duration: Duration| duration.as_secs_f64() * 1e3;
    ledger.set("serve.batch_rows_mean", requests / batches);
    ledger.set("serve.queue_wait_p50_ms", ms(stages.queue.p50));
    ledger.set("serve.assemble_p50_ms", ms(stages.assembly.p50));
    ledger.set("serve.gemm_p50_ms", ms(stages.gemm.p50));
    ledger.set("serve.reply_write_p50_ms", ms(stages.write.p50));
    ledger.set(
        "net.wire_bytes_per_req",
        (wire_bytes(&handle) - bytes_before) as f64 / requests,
    );
    let attempted = ops.len() as u64 + failed;
    ledger.set("net.shed_share", failed as f64 / attempted.max(1) as f64);
    let traced_p50 = percentile(&latencies_ms(&ops), 0.5);
    ledger.set("trace.overhead_share", traced_p50 / plain_p50 - 1.0);
    // Read after the last reply was paired: a trace commits when its last
    // handle drops, which the server does after writing the reply.
    ledger.set("trace.dropped", handle.flight_recorder().dropped() as f64);
    stack.stop();
    recorder.exit(root);

    ledger.set("trace.spans_recorded", recorder.len() as f64);
    crate::write_trace(&recorder, kind.name());
    let failed = failed + untraced.failed;
    Outcome {
        correct: failed == 0,
        attempted: attempted + untraced.ops.len() as u64 + untraced.failed,
        failed,
        ledger,
        notes: Vec::new(),
    }
}

/// Times `call` until `budget_s` is spent or `max` calls were made (at
/// least three); returns the median in ms.
fn probe(
    recorder: &mut Recorder,
    name: &'static str,
    budget_s: f64,
    max: usize,
    mut call: impl FnMut(usize),
) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || (samples.len() < max && started.elapsed().as_secs_f64() < budget_s) {
        let index = samples.len();
        let (_, ms) = recorder.time(name, index as u64, || call(index));
        samples.push(ms);
    }
    median(samples)
}

/// The request path taken apart from the outside in: a lone caller over TCP,
/// the same caller in-process (no socket), the model called directly (no
/// batcher), and the quantize + GEMM calls under the model.
fn probes(
    ledger: &mut Ledger,
    recorder: &mut Recorder,
    kind: ServeKind,
    stack: &mut Stack,
    window_p50: f64,
    seconds: f64,
) {
    let budget = seconds * 0.04;
    let mode = kind.mode();
    let pool = stack.pool.clone();
    let root = recorder.enter("probes", 0);

    let lone_tcp = if kind == ServeKind::Lone {
        window_p50
    } else {
        let client = &mut stack.clients[0];
        probe(recorder, "net.lone_tcp", budget, 300, |i| {
            client
                .predict(pool.row(i % POOL_ROWS))
                .expect("lone predict");
        })
    };
    let handle = stack.server.handle();
    let inproc = probe(recorder, "serve.inproc", budget, 300, |i| {
        handle
            .predict(pool.row(i % POOL_ROWS))
            .expect("in-process predict");
    });
    let rows_of = |count: usize| pool.slice_rows(0, count).expect("pool rows");
    let (one, wave) = (rows_of(1), rows_of(WAVE));
    let direct_b1 = probe(recorder, "serve.direct_b1", budget, 300, |_| {
        direct(&stack.model, mode, &one);
    });
    let direct_b16 = probe(recorder, "serve.direct_b16", budget, 100, |_| {
        direct(&stack.model, mode, &wave);
    });
    ledger.set("serve.inproc_p50_ms", inproc);
    ledger.set("serve.direct_ms_b1", direct_b1);
    ledger.set("serve.direct_ms_b16", direct_b16);
    ledger.set("serve.batcher_overhead_ms", inproc - direct_b1);
    ledger.set("net.socket_tax_ms", lone_tcp - inproc);

    // ff-quant under the model: goodness mode sweeps every candidate label,
    // so its GEMMs see `CLASSES` rows per request.
    let fan_out = if mode == ServeMode::Goodness {
        CLASSES
    } else {
        1
    };
    let mut rng = StdRng::seed_from_u64(0x7175_616e);
    for (name, batch) in [
        ("quant.gemm_rows_ms_b1", 1),
        ("quant.gemm_rows_ms_b16", WAVE),
    ] {
        let rows = batch * fan_out;
        let mut total = 0.0;
        for layer in stack.model.layers() {
            let FrozenLayer::Dense(dense) = layer else {
                continue;
            };
            let input = init::uniform(&[rows, dense.in_features()], -1.0, 1.0, &mut rng);
            let quantized = RowQuantTensor::quantize(&input).expect("row quantize");
            total += probe(recorder, "quant.gemm_rows", budget / 6.0, 100, |_| {
                int8_matmul_a_bt_shared_rows(
                    &quantized,
                    dense.plan(),
                    Some(dense.bias()),
                    dense.has_relu(),
                    Some(1),
                )
                .expect("shared-rows gemm");
            });
        }
        ledger.set(name, total);
    }
    let request = init::uniform(&[fan_out, MNIST_FEATURES], -1.0, 1.0, &mut rng);
    let rowquant_ms = probe(recorder, "quant.rowquant", budget / 2.0, 1000, |_| {
        RowQuantTensor::quantize(&request).expect("row quantize");
    });
    ledger.set("quant.rowquant_us", rowquant_ms * 1e3);

    // ff-net's codec on a memory buffer: one Predict frame.
    let frame = Frame::Predict {
        id: 1,
        deadline_micros: 0,
        features: pool.row(0).to_vec(),
    };
    let mut wire = Vec::new();
    let encode_ms = probe(recorder, "net.encode", budget / 2.0, 1000, |_| {
        wire.clear();
        write_frame(&mut wire, &frame, DEFAULT_MAX_FRAME_BYTES).expect("encode");
    });
    let decode_ms = probe(recorder, "net.decode", budget / 2.0, 1000, |_| {
        read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME_BYTES).expect("decode");
    });
    ledger.set("net.encode_us", encode_ms * 1e3);
    ledger.set("net.decode_us", decode_ms * 1e3);
    recorder.exit(root);
}
