//! The data-parallel training coordinator and its [`DistTrainer`].
//!
//! The [`Coordinator`] owns a TCP listener whose accept thread classifies
//! each connection by its first frame: `Join` makes it a worker (a reader
//! thread pumps its `ShardResult`s into the trainer's pulse channel),
//! `Subscribe` makes it a training-event observer, `PullCheckpoint` serves
//! the latest published `FF8C` artifact and hangs up.
//!
//! [`DistTrainer`] is a [`TrainerCore`]: drop it into
//! [`ff_core::TrainSession`] and the session logic (shuffling, epochs,
//! checkpoints, events) is untouched. Each step it prepares the batch with
//! the wrapped sequential [`FfTrainer`] (so the RNG stream is the
//! sequential stream), cuts it into the canonical shard tasks, farms the
//! tasks round-robin over live workers, and reduces gradients **in
//! ascending shard order** regardless of arrival order. Any shard a worker
//! fails to return — death, hang, or never having been dispatched because
//! no workers are connected — is recomputed locally with the same pure
//! [`compute_shard`], so the resulting weights are bit-identical to the
//! sequential `grad_shards = W` run no matter how the cluster behaves.

use crate::protocol::{
    decode_msg, encode_msg, read_msg, read_msg_bytes, write_msg, write_msg_bytes, ErrorCode,
    ShardStamps, TrainMsg, CODES, TRAIN_KIND_COUNT,
};
use crate::{DistError, Result};
use ff_core::shard::{compute_shard, reduce_shard_grads, shard_tasks, ShardGrads};
use ff_core::{
    first_layer_is_dense, Algorithm, FfTrainer, Precision, StepSpans, StepStats, TrainEvent,
    TrainOptions, TrainerCore, TrainerState,
};
use ff_data::{Batch, Dataset};
use ff_metrics::Counter;
use ff_nn::Sequential;
use ff_tensor::Tensor;
use ff_trace::{ClusterFlightRecorder, ClusterSpan, MetricsRegistry, ShardSpan, TraceSettings};
use rand::rngs::StdRng;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the accept thread waits for a connection's classifying first
/// frame before giving up on it.
const HELLO_TIMEOUT: Duration = Duration::from_secs(5);

/// Coordinator tuning knobs.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Shared-secret token workers must present in `Join`; `None` accepts
    /// any token.
    pub token: Option<String>,
    /// How long one step waits for outstanding remote shards before
    /// recomputing them locally. Purely a latency/throughput trade-off —
    /// the weights are identical either way.
    pub shard_timeout: Duration,
    /// Metrics registry for coordinator counters (`dist.coord.*`) and
    /// per-kind wire accounting (`dist.wire.*`).
    pub metrics: Option<MetricsRegistry>,
    /// Cluster-trace sampling and ring capacity. Disabled by default —
    /// when off, `trace_id` is always 0 and steps carry no span at all.
    pub trace: TraceSettings,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            token: None,
            shard_timeout: Duration::from_secs(5),
            metrics: None,
            trace: TraceSettings::disabled(),
        }
    }
}

/// One joined worker: its id, the write half (shared between the trainer's
/// dispatch and shutdown), and a liveness flag flipped by whichever side
/// sees the connection fail first.
#[derive(Debug)]
struct WorkerLink {
    id: u64,
    stream: Mutex<TcpStream>,
    alive: AtomicBool,
}

/// What worker reader threads report to the trainer.
enum Pulse {
    /// A worker returned one shard's gradients.
    Result {
        step: u64,
        shard_index: usize,
        grads: ShardGrads,
        stamps: ShardStamps,
    },
    /// A worker's connection ended (its unreturned shards need local
    /// recompute).
    Down { worker_id: u64 },
}

/// Pre-minted per-kind frame/byte counters for the FF8D transport.
///
/// Indexed by [`TrainMsg::kind_index`], so a hot-path account is two
/// atomic adds with no registry lock or name formatting. Counters exist
/// (and stay coherent) even with no registry configured; registration
/// under `dist.wire.<kind>.{frames,bytes}` happens only when one is.
///
/// An outgoing frame is accounted once encoded, before its send, so a peer
/// holding the frame already sees it counted; a frame whose write then
/// fails stays counted.
#[derive(Debug)]
struct WireCounters {
    frames: Vec<Counter>,
    bytes: Vec<Counter>,
}

impl WireCounters {
    fn new(metrics: Option<&MetricsRegistry>) -> Self {
        let mut frames = Vec::with_capacity(TRAIN_KIND_COUNT);
        let mut bytes = Vec::with_capacity(TRAIN_KIND_COUNT);
        for name in TrainMsg::kind_names() {
            let f = Counter::new();
            let b = Counter::new();
            if let Some(metrics) = metrics {
                metrics.register_counter(&format!("dist.wire.{name}.frames"), f.clone());
                metrics.register_counter(&format!("dist.wire.{name}.bytes"), b.clone());
            }
            frames.push(f);
            bytes.push(b);
        }
        WireCounters { frames, bytes }
    }

    /// Accounts one frame of `kind_index` whose full wire footprint
    /// (length prefix included) was `wire_bytes`.
    fn account(&self, kind_index: usize, wire_bytes: u64) {
        self.frames[kind_index].inc();
        self.bytes[kind_index].add(wire_bytes);
    }
}

#[derive(Debug)]
struct Shared {
    config: CoordinatorConfig,
    workers: Mutex<Vec<Arc<WorkerLink>>>,
    subscribers: Mutex<Vec<TcpStream>>,
    checkpoint: Mutex<Option<Vec<u8>>>,
    shutdown: AtomicBool,
    cluster: ClusterFlightRecorder,
    wire: WireCounters,
    /// Per-[`ErrorCode`] counters, parallel to [`ErrorCode::all`].
    errors: Vec<Counter>,
}

impl Shared {
    fn count(&self, name: &str, delta: u64) {
        if let Some(metrics) = &self.config.metrics {
            metrics.counter(name).add(delta);
        }
    }

    /// Encodes `msg`, accounts the frame under its kind, then writes it.
    fn wire_write(&self, stream: &mut TcpStream, msg: &TrainMsg) -> Result<()> {
        self.send_encoded(stream, msg.kind_index(), &encode_msg(msg))
    }

    /// Accounts one pre-encoded frame of `kind_index` (4-byte length
    /// prefix included), then writes it.
    fn send_encoded(&self, stream: &mut TcpStream, kind_index: usize, bytes: &[u8]) -> Result<()> {
        self.wire.account(kind_index, bytes.len() as u64 + 4);
        write_msg_bytes(stream, bytes)?;
        Ok(())
    }

    /// Bumps the `dist.coord.errors.<code>` counter, then sends a coded
    /// [`TrainMsg::Error`] reply (best effort).
    fn send_error(&self, stream: &mut TcpStream, code: ErrorCode, message: &str) {
        self.errors[CODES.index(code)].inc();
        let _ = self.wire_write(
            stream,
            &TrainMsg::Error {
                code,
                message: message.to_string(),
            },
        );
    }
}

/// The serving half of the data-parallel cluster. See the module docs.
#[derive(Debug)]
pub struct Coordinator {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    pulses: Option<mpsc::Receiver<Pulse>>,
}

impl Coordinator {
    /// Binds the cluster listener and starts the accept thread.
    ///
    /// # Errors
    ///
    /// [`DistError::Io`] when the address cannot be bound.
    pub fn bind(addr: impl ToSocketAddrs, config: CoordinatorConfig) -> Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let cluster = ClusterFlightRecorder::new(config.trace);
        let wire = WireCounters::new(config.metrics.as_ref());
        let errors: Vec<Counter> = ErrorCode::all()
            .map(|code| {
                let counter = Counter::new();
                if let Some(metrics) = &config.metrics {
                    metrics.register_counter(
                        &format!("dist.coord.errors.{}", code.name()),
                        counter.clone(),
                    );
                }
                counter
            })
            .collect();
        if let Some(metrics) = &config.metrics {
            metrics.register_counter("dist.coord.trace.dropped", cluster.dropped_counter());
        }
        let shared = Arc::new(Shared {
            config,
            workers: Mutex::new(Vec::new()),
            subscribers: Mutex::new(Vec::new()),
            checkpoint: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            cluster,
            wire,
            errors,
        });
        let (pulse_tx, pulse_rx) = mpsc::channel();
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("ff-dist-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared, pulse_tx))
            .map_err(|e| DistError::Io {
                message: format!("spawning the accept thread failed: {e}"),
            })?;
        Ok(Coordinator {
            addr,
            shared,
            accept: Some(accept),
            pulses: Some(pulse_rx),
        })
    }

    /// The bound listener address (use for workers when binding port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many workers are currently joined and believed alive.
    pub fn worker_count(&self) -> usize {
        self.shared
            .workers
            .lock()
            .map(|w| w.iter().filter(|l| l.alive.load(Ordering::SeqCst)).count())
            .unwrap_or(0)
    }

    /// Publishes a checkpoint artifact; subsequent `PullCheckpoint`
    /// requests receive these bytes.
    pub fn publish_checkpoint(&self, bytes: Vec<u8>) {
        if let Ok(mut slot) = self.shared.checkpoint.lock() {
            *slot = Some(bytes);
        }
        self.shared.count("dist.coord.checkpoints_published", 1);
    }

    /// Streams one typed training event to every subscriber, dropping
    /// subscribers whose connection has gone away.
    pub fn broadcast_event(&self, event: &TrainEvent) {
        let msg = TrainMsg::Event {
            event: event.clone(),
        };
        let kind_index = msg.kind_index();
        let bytes = encode_msg(&msg);
        if let Ok(mut subs) = self.shared.subscribers.lock() {
            subs.retain_mut(|stream| self.shared.send_encoded(stream, kind_index, &bytes).is_ok());
        }
        self.shared.count("dist.coord.events_broadcast", 1);
    }

    /// The most recent committed [`ClusterSpan`]s (newest last), straight
    /// from the coordinator-side ring. `max == 0` returns everything
    /// retained. The wire `TraceDump` request serves the same data to
    /// remote pullers; this accessor is for in-process harnesses.
    pub fn cluster_traces(&self, max: usize) -> Vec<ClusterSpan> {
        self.shared.cluster.recent(max)
    }

    /// How many spans the cluster trace ring has dropped under commit
    /// contention or zero capacity.
    pub fn cluster_traces_dropped(&self) -> u64 {
        self.shared.cluster.dropped()
    }

    /// Builds the cluster's trainer. Callable once — the trainer owns the
    /// result channel the worker readers feed.
    ///
    /// With zero workers connected the trainer degrades to the sequential
    /// sharded step (every shard computed locally) — same weights, no
    /// cluster required.
    ///
    /// # Errors
    ///
    /// [`DistError::Core`] on invalid options; [`DistError::Protocol`] on a
    /// second call.
    pub fn trainer(
        &mut self,
        precision: Precision,
        lookahead: bool,
        options: TrainOptions,
    ) -> Result<DistTrainer> {
        options.validate()?;
        let pulses = self.pulses.take().ok_or_else(|| DistError::Protocol {
            message: "this coordinator's trainer was already taken".to_string(),
        })?;
        Ok(DistTrainer {
            inner: FfTrainer::new(precision, lookahead, options),
            shared: Arc::clone(&self.shared),
            pulses,
            next_step: 0,
        })
    }

    /// Stops the cluster: tells every worker to shut down, closes
    /// subscriber connections, and joins the accept thread.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Ok(mut workers) = self.shared.workers.lock() {
            for link in workers.drain(..) {
                link.alive.store(false, Ordering::SeqCst);
                if let Ok(mut stream) = link.stream.lock() {
                    let _ = self.shared.wire_write(&mut stream, &TrainMsg::Shutdown);
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                }
            }
        }
        if let Ok(mut subs) = self.shared.subscribers.lock() {
            subs.clear();
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, pulse_tx: mpsc::Sender<Pulse>) {
    let next_worker_id = AtomicU64::new(0);
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        handle_hello(stream, &shared, &pulse_tx, &next_worker_id);
    }
}

/// Classifies a fresh connection by its first frame.
fn handle_hello(
    mut stream: TcpStream,
    shared: &Arc<Shared>,
    pulse_tx: &mpsc::Sender<Pulse>,
    next_worker_id: &AtomicU64,
) {
    let _ = stream.set_read_timeout(Some(HELLO_TIMEOUT));
    let Ok(bytes) = read_msg_bytes(&mut stream) else {
        return;
    };
    let hello = match decode_msg(&bytes) {
        Ok(hello) => hello,
        Err(error) => {
            // Garbage, or a peer built from another commit: say why, close.
            shared.send_error(&mut stream, ErrorCode::UnexpectedHello, &error.to_string());
            return;
        }
    };
    shared
        .wire
        .account(hello.kind_index(), bytes.len() as u64 + 4);
    let _ = stream.set_read_timeout(None);
    match hello {
        TrainMsg::Join { token } => {
            if let Some(expected) = &shared.config.token {
                if &token != expected {
                    shared.send_error(
                        &mut stream,
                        ErrorCode::BadToken,
                        "join rejected: bad cluster token",
                    );
                    return;
                }
            }
            let id = next_worker_id.fetch_add(1, Ordering::Relaxed);
            if shared
                .wire_write(&mut stream, &TrainMsg::JoinAck { worker_id: id })
                .is_err()
            {
                return;
            }
            let Ok(read_half) = stream.try_clone() else {
                return;
            };
            let link = Arc::new(WorkerLink {
                id,
                stream: Mutex::new(stream),
                alive: AtomicBool::new(true),
            });
            if let Ok(mut workers) = shared.workers.lock() {
                workers.push(Arc::clone(&link));
            }
            shared.count("dist.coord.workers_joined", 1);
            let reader_shared = Arc::clone(shared);
            let tx = pulse_tx.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("ff-dist-worker-{id}"))
                .spawn(move || worker_reader(read_half, link, reader_shared, tx));
            if spawned.is_err() {
                // Could not watch the worker; forget it rather than hand it
                // work whose results nobody would collect.
                if let Ok(mut workers) = shared.workers.lock() {
                    workers.retain(|w| w.id != id);
                }
            }
        }
        TrainMsg::Subscribe => {
            if let Ok(mut subs) = shared.subscribers.lock() {
                subs.push(stream);
            }
            shared.count("dist.coord.subscribers_joined", 1);
        }
        TrainMsg::PullCheckpoint => {
            match shared.checkpoint.lock().ok().and_then(|slot| slot.clone()) {
                Some(bytes) => {
                    let _ = shared.wire_write(&mut stream, &TrainMsg::CheckpointReply { bytes });
                }
                None => shared.send_error(
                    &mut stream,
                    ErrorCode::NoCheckpoint,
                    "no checkpoint published yet",
                ),
            }
            shared.count("dist.coord.checkpoints_pulled", 1);
        }
        TrainMsg::TraceDump { max } => {
            let reply = TrainMsg::TraceDumpReply {
                dropped: shared.cluster.dropped(),
                spans: shared.cluster.recent(max as usize),
            };
            let _ = shared.wire_write(&mut stream, &reply);
            shared.count("dist.coord.traces_pulled", 1);
        }
        _ => {
            shared.send_error(
                &mut stream,
                ErrorCode::UnexpectedHello,
                "expected Join, Subscribe, PullCheckpoint or TraceDump",
            );
        }
    }
}

/// Pumps one worker's results into the pulse channel until its connection
/// ends, then reports it down.
fn worker_reader(
    mut stream: TcpStream,
    link: Arc<WorkerLink>,
    shared: Arc<Shared>,
    tx: mpsc::Sender<Pulse>,
) {
    while let Ok(bytes) = read_msg_bytes(&mut stream) {
        let msg = match decode_msg(&bytes) {
            Ok(msg) => {
                shared
                    .wire
                    .account(msg.kind_index(), bytes.len() as u64 + 4);
                msg
            }
            Err(_) => break,
        };
        match msg {
            TrainMsg::ShardResult {
                step,
                shard_index,
                grads,
                stamps,
            } => {
                let _ = tx.send(Pulse::Result {
                    step,
                    shard_index: shard_index as usize,
                    grads,
                    stamps,
                });
            }
            TrainMsg::Leave => break,
            _ => continue,
        }
    }
    link.alive.store(false, Ordering::SeqCst);
    if let Ok(mut workers) = shared.workers.lock() {
        workers.retain(|w| w.id != link.id);
    }
    shared.count("dist.coord.workers_lost", 1);
    let _ = tx.send(Pulse::Down { worker_id: link.id });
}

/// A [`TrainerCore`] that runs the canonical sharded FF step across the
/// cluster. See the module docs for the determinism argument.
pub struct DistTrainer {
    inner: FfTrainer,
    shared: Arc<Shared>,
    pulses: mpsc::Receiver<Pulse>,
    next_step: u64,
}

impl std::fmt::Debug for DistTrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistTrainer")
            .field("next_step", &self.next_step)
            .finish_non_exhaustive()
    }
}

impl DistTrainer {
    /// The wrapped sequential trainer (for evaluation helpers).
    pub fn inner_mut(&mut self) -> &mut FfTrainer {
        &mut self.inner
    }

    /// Dispatches tasks round-robin over live workers. Returns, per shard,
    /// the id of the worker that accepted it (`None` = compute locally).
    ///
    /// When `span` is present, stamps `sync_done_ns` / `dispatch_done_ns`
    /// and each dispatched shard's `dispatched_ns` + `worker_id`, all
    /// relative to `step_start`.
    fn dispatch(
        &mut self,
        net: &mut Sequential,
        step: u64,
        tasks: &[ff_core::shard::ShardTask],
        trace_id: u64,
        span: &mut Option<ClusterSpan>,
        step_start: Instant,
    ) -> Vec<Option<u64>> {
        let mut assignment: Vec<Option<u64>> = vec![None; tasks.len()];
        let live: Vec<Arc<WorkerLink>> = self
            .shared
            .workers
            .lock()
            .map(|w| {
                w.iter()
                    .filter(|l| l.alive.load(Ordering::SeqCst))
                    .cloned()
                    .collect()
            })
            .unwrap_or_default();
        let mut synced: Vec<Arc<WorkerLink>> = Vec::new();
        if !live.is_empty() && !tasks.is_empty() {
            let params: Vec<Tensor> = net.params_mut().iter().map(|p| p.value.clone()).collect();
            let sync = TrainMsg::ParamSync {
                version: step,
                params,
            };
            let sync_kind = sync.kind_index();
            // ParamSync dominates cluster bytes; encode it once, not once
            // per worker.
            let bytes = encode_msg(&sync);
            for link in live {
                let wrote = link
                    .stream
                    .lock()
                    .map(|mut s| self.shared.send_encoded(&mut s, sync_kind, &bytes))
                    .unwrap_or(Err(DistError::Protocol {
                        message: "worker stream lock poisoned".to_string(),
                    }));
                match wrote {
                    Ok(()) => synced.push(link),
                    Err(_) => link.alive.store(false, Ordering::SeqCst),
                }
            }
        }
        if let Some(span) = span.as_mut() {
            span.sync_done_ns = saturating_elapsed_ns(step_start);
        }
        if !synced.is_empty() {
            for (index, task) in tasks.iter().enumerate() {
                let link = &synced[index % synced.len()];
                if !link.alive.load(Ordering::SeqCst) {
                    continue;
                }
                let msg = TrainMsg::SubmitBatch {
                    step,
                    task: task.clone(),
                    trace_id,
                };
                let ok = link
                    .stream
                    .lock()
                    .map(|mut s| self.shared.wire_write(&mut s, &msg).is_ok())
                    .unwrap_or(false);
                if ok {
                    assignment[index] = Some(link.id);
                    if let Some(span) = span.as_mut() {
                        span.shards[index].worker_id = Some(link.id);
                        span.shards[index].dispatched_ns = saturating_elapsed_ns(step_start);
                    }
                } else {
                    link.alive.store(false, Ordering::SeqCst);
                }
            }
        }
        if let Some(span) = span.as_mut() {
            span.dispatch_done_ns = saturating_elapsed_ns(step_start);
        }
        assignment
    }

    /// Collects dispatched shard results until all arrive, their workers
    /// die, or the shard timeout elapses. Stale results from earlier steps
    /// are discarded by the step tag.
    ///
    /// When `span` is present, each accepted result stamps its shard's
    /// `completed_ns` (relative to `step_start`) and copies the worker's
    /// own decode/compute/encode stamps.
    fn collect(
        &mut self,
        step: u64,
        assignment: &mut [Option<u64>],
        slots: &mut [Option<ShardGrads>],
        span: &mut Option<ClusterSpan>,
        step_start: Instant,
    ) {
        let deadline = Instant::now() + self.shared.config.shard_timeout;
        loop {
            let pending = assignment
                .iter()
                .zip(slots.iter())
                .any(|(owner, slot)| owner.is_some() && slot.is_none());
            if !pending {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match self.pulses.recv_timeout(deadline - now) {
                Ok(Pulse::Result {
                    step: result_step,
                    shard_index,
                    grads,
                    stamps,
                }) => {
                    if result_step == step
                        && shard_index < slots.len()
                        && assignment[shard_index].is_some()
                        && slots[shard_index].is_none()
                    {
                        slots[shard_index] = Some(grads);
                        if let Some(span) = span.as_mut() {
                            let shard = &mut span.shards[shard_index];
                            shard.completed_ns = saturating_elapsed_ns(step_start);
                            shard.decoded_ns = stamps.decoded_ns;
                            shard.computed_ns = stamps.computed_ns;
                            shard.encoded_ns = stamps.encoded_ns;
                        }
                    }
                }
                Ok(Pulse::Down { worker_id }) => {
                    let mut orphaned = 0u64;
                    for (owner, slot) in assignment.iter_mut().zip(slots.iter()) {
                        if *owner == Some(worker_id) && slot.is_none() {
                            *owner = None;
                            orphaned += 1;
                        }
                    }
                    if orphaned > 0 {
                        self.shared
                            .count("dist.coord.recompute.worker_death", orphaned);
                    }
                }
                Err(_) => break,
            }
        }
    }
}

impl TrainerCore for DistTrainer {
    fn algorithm(&self) -> Algorithm {
        self.inner.algorithm()
    }

    fn options(&self) -> &TrainOptions {
        self.inner.options()
    }

    fn step_batch(
        &mut self,
        net: &mut Sequential,
        batch: &Batch,
        num_classes: usize,
        lambda: f32,
    ) -> ff_core::Result<StepStats> {
        let prep_start = Instant::now();
        let first_is_dense = first_layer_is_dense(net);
        let prepared =
            self.inner
                .prepare_batch(&batch.images, &batch.labels, num_classes, first_is_dense)?;
        let quantize_ns = saturating_elapsed_ns(prep_start);
        let shards = self.inner.options().grad_shards.max(1);
        let theta = self.inner.options().theta;
        let tasks = shard_tasks(
            &prepared,
            shards,
            net.len(),
            theta,
            lambda,
            self.inner.precision(),
        )?;
        let step = self.next_step;
        self.next_step += 1;

        // Open the step's cluster span (if this step is sampled). All
        // span stamps are nanoseconds since `prep_start`, so phase
        // windows and shard intervals share one clock.
        let trace_id = self.shared.cluster.trace_id(step);
        let mut span = (trace_id != 0).then(|| ClusterSpan {
            step,
            trace_id,
            shards: (0..tasks.len())
                .map(|i| ShardSpan {
                    shard_index: i as u64,
                    ..ShardSpan::default()
                })
                .collect(),
            ..ClusterSpan::default()
        });
        if let Some(span) = span.as_mut() {
            span.prepare_done_ns = saturating_elapsed_ns(prep_start);
        }

        let forward_start = Instant::now();
        let mut assignment = self.dispatch(net, step, &tasks, trace_id, &mut span, prep_start);
        let mut slots: Vec<Option<ShardGrads>> = (0..tasks.len()).map(|_| None).collect();
        self.collect(step, &mut assignment, &mut slots, &mut span, prep_start);
        if let Some(span) = span.as_mut() {
            span.collect_done_ns = saturating_elapsed_ns(prep_start);
        }

        // Order-fixed reduction with local recompute of anything missing.
        // `compute_shard` is a pure function of (parameters, task), and the
        // parameters a live worker saw are exactly the parameters this net
        // holds right now (the step has not been applied yet), so a locally
        // recomputed shard is bit-identical to the remote one it replaces.
        let mut remote = 0u64;
        let mut local = 0u64;
        let mut reduced: Option<ShardGrads> = None;
        for (index, task) in tasks.iter().enumerate() {
            let grads = match slots[index].take() {
                Some(grads) => {
                    remote += 1;
                    grads
                }
                None => {
                    local += 1;
                    let grads = compute_shard(net, task)?;
                    if let Some(span) = span.as_mut() {
                        // Locally recomputed: the shard is ours now, even
                        // if it was dispatched first (dispatched_ns then
                        // records the wasted send). Worker stamps stay 0.
                        let shard = &mut span.shards[index];
                        shard.worker_id = None;
                        shard.completed_ns = saturating_elapsed_ns(prep_start);
                    }
                    grads
                }
            };
            reduce_shard_grads(&mut reduced, &grads)?;
        }
        if let Some(span) = span.as_mut() {
            span.reduce_done_ns = saturating_elapsed_ns(prep_start);
        }
        let forward_ns = saturating_elapsed_ns(forward_start);

        let update_start = Instant::now();
        let loss = match reduced {
            Some(result) => {
                self.inner.apply_reduced_grads(net, &result.grads)?;
                result.loss_pos + result.loss_neg
            }
            None => 0.0,
        };
        if let Some(mut span) = span {
            span.apply_done_ns = saturating_elapsed_ns(prep_start);
            self.shared.cluster.commit(span);
        }
        self.shared.count("dist.coord.steps", 1);
        self.shared.count("dist.coord.shards_remote", remote);
        self.shared.count("dist.coord.shards_local", local);
        Ok(StepStats {
            loss,
            correct: 0,
            seen: 0,
            spans: StepSpans {
                quantize_ns,
                forward_ns,
                update_ns: saturating_elapsed_ns(update_start),
            },
        })
    }

    fn evaluate(&mut self, net: &mut Sequential, dataset: &Dataset) -> ff_core::Result<f32> {
        self.inner.evaluate(net, dataset)
    }

    fn tracks_running_accuracy(&self) -> bool {
        false
    }

    fn rng_mut(&mut self) -> &mut StdRng {
        self.inner.rng_mut()
    }

    fn export_state(&self) -> TrainerState {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: &TrainerState, net: &mut Sequential) -> ff_core::Result<()> {
        self.inner.import_state(state, net)
    }
}

/// Pulls the coordinator's recent [`ClusterSpan`]s over the wire.
///
/// One-shot connection, like checkpoint pulling: connect, send
/// `TraceDump { max }` (`max == 0` asks for everything retained), read the
/// `TraceDumpReply`, hang up. Returns `(dropped, spans)` — the ring's
/// drop count plus the spans oldest-first.
///
/// # Errors
///
/// [`DistError::Io`] on connection failure; [`DistError::Protocol`] when
/// the peer replies with an error or an unexpected kind.
pub fn pull_cluster_traces(addr: impl ToSocketAddrs, max: u32) -> Result<(u64, Vec<ClusterSpan>)> {
    let mut stream = TcpStream::connect(addr)?;
    write_msg(&mut stream, &TrainMsg::TraceDump { max })?;
    match read_msg(&mut stream)? {
        TrainMsg::TraceDumpReply { dropped, spans } => Ok((dropped, spans)),
        TrainMsg::Error { message, .. } => Err(DistError::Protocol { message }),
        other => Err(DistError::Protocol {
            message: format!("unexpected reply to TraceDump: {other:?}"),
        }),
    }
}

fn saturating_elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos().min(u64::MAX as u128) as u64
}
