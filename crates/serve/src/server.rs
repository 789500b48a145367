//! The multi-threaded micro-batching inference server.
//!
//! # Architecture
//!
//! ```text
//!  clients (any thread)            worker pool (config.workers threads)
//!  ───────────────────             ─────────────────────────────────────
//!  handle.predict(x) ──┐
//!  handle.predict(y) ──┼──▶ mpsc request queue ──▶ worker locks the
//!  handle.predict(z) ──┘                           receiver, takes one
//!                                                  request, then drains
//!                                                  what is already queued
//!                                                  (≤ max_batch) ──▶ one
//!                                                  batched INT8 GEMM per
//!                                                  layer, per model epoch
//!                                                  ──▶ per-request reply
//!                                                  channels
//! ```
//!
//! Requests are submitted through a cloneable [`ServeHandle`] and answered
//! through a per-request channel, so any number of client threads can block
//! on their own predictions concurrently. Workers coalesce whatever is
//! queued into one batch (bounded by [`BatchPolicy::max_batch`]) and
//! dispatch it at once: under load a batch is whatever arrived during the
//! previous batch's GEMMs, and a lone request on an idle server waits for
//! nothing. [`BatchPolicy::max_wait`] opts in to holding a lone request for
//! company.
//!
//! # Many models, one queue
//!
//! The server fronts a whole [`crate::ModelRegistry`]: requests address a
//! model id ([`ServeHandle::submit_to`]) and share one queue and one worker
//! pool, so capacity flows to whichever model is hot. Each request pins its
//! model epoch at submit time (a [`crate::ModelSnapshot`]); a worker groups
//! an assembled batch by pinned epoch and runs **one GEMM per group**, so a
//! hot-swap landing mid-batch can never mix two models' weights in one
//! answer wave.
//!
//! Because frozen models quantize per row (see [`crate::FrozenModel`]), a
//! request's prediction is **bit-identical no matter which batch it lands
//! in** — batching is purely a throughput optimization, verified by the
//! batcher equivalence tests.
//!
//! Each worker runs its batch GEMMs at the engine's automatic thread count
//! ([`ff_tensor::par::worker_count`]): a large wave splits its rows over
//! every core, a batch of one or two rows (one row strip) splits its columns,
//! and a layer below the parallel threshold stays serial; concurrent workers
//! share the cores via the OS.

use crate::{FrozenModel, ModelRegistry, ModelSnapshot, ModelStats, Result, ServeError};
use ff_metrics::{Counter, Gauge, LatencySummary};
use ff_tensor::Tensor;
use ff_trace::{
    FlightRecorder, MetricsRegistry, SharedHistogram, Stage, StageHistograms, StageSummaries,
    TraceHandle, TraceSettings,
};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How aggressively workers coalesce queued requests into batches.
///
/// A worker drains whatever is already queued (up to `max_batch`) and
/// dispatches it the moment the queue is momentarily empty; a full
/// `max_batch` dispatches immediately. Under sustained load batches
/// therefore self-regulate to roughly "whatever arrived during the previous
/// batch's GEMM", and an idle server never stalls a ready batch.
///
/// The default `max_wait` is zero: a lone request is served at once, its
/// GEMMs split over the cores by column. A nonzero `max_wait` makes a
/// **lone** request wait at most that long for one batch-mate, trading its
/// latency for larger batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Largest number of requests fused into one GEMM batch.
    pub max_batch: usize,
    /// How long a lone request waits for a batch-mate. Zero (the default)
    /// means "take only what is already queued".
    pub max_wait: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 32,
            max_wait: Duration::ZERO,
        }
    }
}

/// Which classification mode the server runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeMode {
    /// Forward chain + argmax of the final logits.
    #[default]
    Logits,
    /// FF-native per-label goodness sweep (all candidates in one GEMM per
    /// layer).
    Goodness,
}

/// Server configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Number of worker threads executing batches — the one concurrency
    /// setting (a large batch's GEMMs already use every core).
    pub workers: usize,
    /// Classification mode.
    pub mode: ServeMode,
    /// Micro-batching policy.
    pub policy: BatchPolicy,
    /// Per-request tracing and flight-recorder settings (see
    /// [`TraceSettings`]). The always-on stage histograms are unaffected
    /// by this knob; it governs only sampled per-request traces.
    pub trace: TraceSettings,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 1,
            mode: ServeMode::Logits,
            policy: BatchPolicy::default(),
            trace: TraceSettings::default(),
        }
    }
}

/// One answered prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// The predicted class label.
    pub label: usize,
    /// The size of the same-model GEMM group this request was served in
    /// (1 = rode alone).
    pub batch_size: usize,
}

struct Request {
    /// The (entry, model-epoch) pair pinned at submit time — the worker
    /// serves exactly this epoch no matter how many swaps land while the
    /// request queues.
    snapshot: ModelSnapshot,
    features: Vec<f32>,
    enqueued: Instant,
    /// Absolute point after which the answer is worthless: the worker sheds
    /// the request (typed [`ServeError::DeadlineExceeded`]) instead of
    /// spending a GEMM row on it.
    deadline: Option<Instant>,
    /// Per-request trace handle, if the flight recorder sampled this
    /// request. Dropped (committing the trace) when the request is
    /// answered, shed, or abandoned.
    trace: Option<TraceHandle>,
    reply: Sender<Result<Prediction>>,
}

/// Queue item: a client request, or a shutdown poison pill (one per worker).
enum Job {
    Run(Request),
    Poison,
}

/// Aggregate serving statistics, readable at any time.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Requests answered successfully.
    pub requests: u64,
    /// Same-model GEMM groups executed.
    pub batches: u64,
    /// Mean requests per batch.
    pub mean_batch: f64,
    /// Largest batch observed.
    pub max_batch: usize,
    /// Requests shed by a worker because their deadline expired in the
    /// queue (dropped before any GEMM work).
    pub shed_expired: u64,
    /// Requests refused admission under overload (counted by a front-end
    /// through [`ShedCounters`]).
    pub rejected_overload: u64,
    /// Requests refused because they arrived with an already-expired
    /// deadline (counted by a front-end through [`ShedCounters`]).
    pub rejected_deadline: u64,
    /// Queue-to-reply latency distribution (served requests only).
    pub latency: LatencySummary,
    /// Always-on per-stage latency summaries (queue wait, batch assembly,
    /// GEMM, reply write) — where end-to-end time actually went.
    pub stages: StageSummaries,
    /// Per-model statistics for every registry entry, ascending by id.
    pub models: Vec<ModelStats>,
}

/// Cloneable handles onto the server's load-shedding counters.
///
/// The `shed_expired` counter is bumped by the workers themselves; the
/// `rejected_*` counters exist so a front-end (the `ff-net` admission gate)
/// can record refusals **it** makes into the same [`ServerStats`] snapshot
/// every [`ServeHandle::stats`] caller sees. Per-model front-ends should
/// additionally bump the addressed entry's counters
/// ([`crate::ModelEntry::shed_counters`]).
#[derive(Debug, Clone, Default)]
pub struct ShedCounters {
    /// Deadline expired while queued; shed by a worker before the GEMM.
    pub shed_expired: Counter,
    /// Refused admission because the pending-request bound was reached.
    pub rejected_overload: Counter,
    /// Refused because the deadline had already expired on arrival.
    pub rejected_deadline: Counter,
}

/// The server's observability bundle: every serve-side counter and
/// histogram, pre-registered under stable names in one [`MetricsRegistry`],
/// plus the flight recorder behind sampled per-request traces. Built once
/// at startup; the hot path only touches the (lock-free or short-mutex)
/// handles, never the registry itself.
struct Telemetry {
    metrics: MetricsRegistry,
    recorder: FlightRecorder,
    stages: StageHistograms,
    requests: Counter,
    batches: Counter,
    max_batch: Gauge,
    latency: SharedHistogram,
}

impl Telemetry {
    fn new(settings: TraceSettings, counters: &ShedCounters, registry: &ModelRegistry) -> Self {
        let metrics = MetricsRegistry::new();
        let recorder = FlightRecorder::new(settings);
        let stages = StageHistograms::new();
        let requests = metrics.counter("serve.requests");
        let batches = metrics.counter("serve.batches");
        let max_batch = metrics.gauge("serve.max_batch");
        let latency = metrics.histogram("serve.latency_ns");
        // The shed counters pre-date the registry; publish the existing
        // handles so front-ends keep bumping the cells they already hold.
        metrics.register_counter("serve.shed_expired", counters.shed_expired.clone());
        metrics.register_counter(
            "serve.rejected_overload",
            counters.rejected_overload.clone(),
        );
        metrics.register_counter(
            "serve.rejected_deadline",
            counters.rejected_deadline.clone(),
        );
        metrics.register_histogram("serve.stage.queue_ns", stages.queue.clone());
        metrics.register_histogram("serve.stage.assembly_ns", stages.assembly.clone());
        metrics.register_histogram("serve.stage.gemm_ns", stages.gemm.clone());
        metrics.register_histogram("serve.stage.write_ns", stages.write.clone());
        metrics.register_counter("trace.dropped", recorder.dropped_counter());
        registry.bind_metrics(&metrics);
        Telemetry {
            metrics,
            recorder,
            stages,
            requests,
            batches,
            max_batch,
            latency,
        }
    }
}

struct Shared {
    registry: ModelRegistry,
    config: ServeConfig,
    /// Taken (and dropped) by [`Server::shutdown`] after the workers join,
    /// which closes the channel: late sends fail and any still-queued
    /// request's reply channel drops, so no client can hang.
    queue: Mutex<Option<Receiver<Job>>>,
    telemetry: Telemetry,
    counters: ShedCounters,
}

/// A cloneable client handle onto a running [`Server`].
///
/// Handles are `Send`, so each client thread clones one and calls
/// [`ServeHandle::predict`], which blocks until its reply arrives. Dropping
/// every handle (including the server's own) shuts the workers down.
#[derive(Clone)]
pub struct ServeHandle {
    tx: Sender<Job>,
    shared: Arc<Shared>,
}

/// A submitted-but-not-yet-answered prediction (see
/// [`ServeHandle::submit`]).
///
/// The request is already in the micro-batch queue; [`PendingPrediction::wait`]
/// blocks until its reply arrives. Dropping it abandons the request (the
/// worker's reply send fails harmlessly).
#[derive(Debug)]
pub struct PendingPrediction {
    rx: Receiver<Result<Prediction>>,
    /// Present only on the in-process convenience path (where delivery to
    /// the caller *is* the reply-written stage); the network path keeps its
    /// own handle and stamps once the reply is encoded, before the send.
    trace: Option<TraceHandle>,
}

impl PendingPrediction {
    /// Blocks until the prediction is ready.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] when the submitted features did
    /// not match the model's input width, and [`ServeError::ServerClosed`]
    /// when the server shut down before answering.
    pub fn wait(self) -> Result<Prediction> {
        let result = self.rx.recv().map_err(|_| ServeError::ServerClosed)?;
        if let Some(trace) = self.trace {
            if result.is_ok() {
                trace.stamp(Stage::ReplyWritten);
            }
            // The worker dropped its handle before replying, so this is
            // the last one: the trace commits before the caller sees the
            // result.
            drop(trace);
        }
        result
    }
}

impl ServeHandle {
    /// Enqueues one sample for the **default model** without waiting and
    /// returns a [`PendingPrediction`] to collect later.
    ///
    /// This is the building block of every pipelined path: submitting many
    /// samples before waiting lets the worker pool coalesce them into large
    /// GEMM batches ([`ServeHandle::predict_many`] and the `ff-net`
    /// connection loop both use it).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ServerClosed`] when the server has shut down.
    pub fn submit(&self, features: &[f32]) -> Result<PendingPrediction> {
        self.submit_with_deadline(features, None)
    }

    /// [`ServeHandle::submit`] with an absolute deadline: if it expires
    /// while the request waits in the batch queue, a worker sheds the
    /// request with [`ServeError::DeadlineExceeded`] **before** it occupies
    /// a GEMM row — under overload the engine spends its compute only on
    /// answers someone is still waiting for.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ServerClosed`] when the server has shut down.
    pub fn submit_with_deadline(
        &self,
        features: &[f32],
        deadline: Option<Instant>,
    ) -> Result<PendingPrediction> {
        self.submit_to(self.shared.registry.default_id(), features, deadline)
    }

    /// [`ServeHandle::submit_with_deadline`] addressed to a registry model.
    ///
    /// The model epoch is pinned here, at submit time; callers submitting a
    /// related wave of rows should resolve once ([`ServeHandle::resolve`])
    /// and use [`ServeHandle::submit_snapshot`] so the whole wave is
    /// guaranteed to be answered by one epoch even if a hot-swap lands
    /// mid-wave.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] for an unregistered id and
    /// [`ServeError::ServerClosed`] when the server has shut down.
    pub fn submit_to(
        &self,
        model_id: u16,
        features: &[f32],
        deadline: Option<Instant>,
    ) -> Result<PendingPrediction> {
        let snapshot = self.shared.registry.resolve(model_id)?;
        self.submit_snapshot(&snapshot, features, deadline)
    }

    /// Enqueues one sample against an already-resolved model epoch — the
    /// torn-reply-prevention primitive (see [`ModelSnapshot`]).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ServerClosed`] when the server has shut down.
    pub fn submit_snapshot(
        &self,
        snapshot: &ModelSnapshot,
        features: &[f32],
        deadline: Option<Instant>,
    ) -> Result<PendingPrediction> {
        let trace = self.begin_trace(snapshot.model_id());
        if let Some(trace) = &trace {
            // In-process submission has no auth/admission step: the admit
            // stage coincides with receive.
            trace.stamp(Stage::Admit);
        }
        let mut pending =
            self.submit_snapshot_traced(snapshot, features, deadline, trace.clone())?;
        // Delivery to the caller is this path's "reply written" stage.
        pending.trace = trace;
        Ok(pending)
    }

    /// [`ServeHandle::submit_snapshot`] with a caller-begun [`TraceHandle`]
    /// — the network front-end begins the trace at frame receive (so the
    /// recv→admit span covers auth and admission) and threads the handle
    /// through here, keeping a clone to stamp [`Stage::ReplyWritten`] once
    /// the reply is encoded. Stamps [`Stage::Enqueue`] as the request enters
    /// the batch queue.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ServerClosed`] when the server has shut down.
    pub fn submit_snapshot_traced(
        &self,
        snapshot: &ModelSnapshot,
        features: &[f32],
        deadline: Option<Instant>,
        trace: Option<TraceHandle>,
    ) -> Result<PendingPrediction> {
        if let Some(trace) = &trace {
            trace.stamp(Stage::Enqueue);
        }
        let (reply_tx, reply_rx) = mpsc::channel();
        let request = Request {
            snapshot: snapshot.clone(),
            features: features.to_vec(),
            enqueued: Instant::now(),
            deadline,
            trace,
            reply: reply_tx,
        };
        self.tx
            .send(Job::Run(request))
            .map_err(|_| ServeError::ServerClosed)?;
        Ok(PendingPrediction {
            rx: reply_rx,
            trace: None,
        })
    }

    /// Resolves a model id to a pinned (entry, epoch) snapshot — resolve
    /// once per request wave, then submit every row through it.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] for an unregistered id.
    pub fn resolve(&self, model_id: u16) -> Result<ModelSnapshot> {
        self.shared.registry.resolve(model_id)
    }

    /// Submits one sample to the default model and blocks until its
    /// prediction is ready.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] when `features` does not match the
    /// model's input width, and [`ServeError::ServerClosed`] when the server
    /// has shut down.
    pub fn predict(&self, features: &[f32]) -> Result<Prediction> {
        self.submit(features)?.wait()
    }

    /// Submits many samples at once and blocks until every prediction is
    /// ready, preserving input order — the default-model form of
    /// [`ServeHandle::predict_many_to`].
    ///
    /// # Errors
    ///
    /// As [`ServeHandle::predict_many_to`].
    pub fn predict_many<'r, I>(&self, rows: I) -> Result<Vec<Prediction>>
    where
        I: IntoIterator<Item = &'r [f32]>,
    {
        self.predict_many_to(self.shared.registry.default_id(), rows)
    }

    /// Submits many samples against one model and blocks until every
    /// prediction is ready, preserving input order.
    ///
    /// All requests enter the queue **before** the first reply is awaited,
    /// so the worker pool coalesces them into large GEMM batches — this is
    /// the in-process half of the pipelined network path (`ff-net` funnels
    /// `PredictBatch` frames through it). The model epoch is resolved
    /// **once** for the whole wave, so every answer comes from the same
    /// model even when a hot-swap lands mid-wave; per-row quantization
    /// keeps every answer bit-identical to a lone [`ServeHandle::predict`]
    /// call.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] for an unregistered id, the
    /// first per-row error ([`ServeError::BadRequest`] for a wrong-width
    /// row), or [`ServeError::ServerClosed`] when the server has shut down;
    /// rows are all-or-nothing from the caller's perspective.
    pub fn predict_many_to<'r, I>(&self, model_id: u16, rows: I) -> Result<Vec<Prediction>>
    where
        I: IntoIterator<Item = &'r [f32]>,
    {
        let snapshot = self.resolve(model_id)?;
        let mut replies = Vec::new();
        for features in rows {
            replies.push(self.submit_snapshot(&snapshot, features, None)?);
        }
        let mut predictions = Vec::with_capacity(replies.len());
        let mut first_error = None;
        // Drain every reply even after an error so the stats count the
        // whole wave consistently.
        for reply in replies {
            match reply.wait() {
                Ok(prediction) => predictions.push(prediction),
                Err(error) => {
                    first_error.get_or_insert(error);
                }
            }
        }
        match first_error {
            None => Ok(predictions),
            Some(error) => Err(error),
        }
    }

    /// Current aggregate statistics — readable from any handle, which is
    /// what lets a network front-end answer stats requests without a
    /// reference to the owning [`Server`].
    pub fn stats(&self) -> ServerStats {
        let models = self.shared.registry.model_stats();
        let telemetry = &self.shared.telemetry;
        let requests = telemetry.requests.get();
        let batches = telemetry.batches.get();
        ServerStats {
            requests,
            batches,
            mean_batch: if batches == 0 {
                0.0
            } else {
                requests as f64 / batches as f64
            },
            max_batch: telemetry.max_batch.get() as usize,
            shed_expired: self.shared.counters.shed_expired.get(),
            rejected_overload: self.shared.counters.rejected_overload.get(),
            rejected_deadline: self.shared.counters.rejected_deadline.get(),
            latency: telemetry.latency.summary(),
            stages: telemetry.stages.summaries(),
            models,
        }
    }

    /// The unified metrics registry behind this server: every serve-side
    /// counter, gauge and histogram (including per-model entries and the
    /// stage histograms), snapshot-able in one call and renderable in the
    /// stable exposition format.
    pub fn metrics(&self) -> MetricsRegistry {
        self.shared.telemetry.metrics.clone()
    }

    /// The flight recorder holding recently committed per-request traces.
    pub fn flight_recorder(&self) -> FlightRecorder {
        self.shared.telemetry.recorder.clone()
    }

    /// The always-on per-stage histograms. A network front-end clones
    /// `write` into its reply writer so socket-write time lands in the same
    /// snapshot as the in-engine stages.
    pub fn stage_histograms(&self) -> StageHistograms {
        self.shared.telemetry.stages.clone()
    }

    /// Begins a per-request trace against `model_id`, stamping
    /// [`Stage::Recv`] now. `None` (at the cost of one atomic increment)
    /// when tracing is disabled or the request was not sampled — callers
    /// thread the `Option` through untouched.
    pub fn begin_trace(&self, model_id: u16) -> Option<TraceHandle> {
        self.shared.telemetry.recorder.begin(model_id)
    }

    /// Cloneable handles onto the load-shedding counters reported by
    /// [`ServeHandle::stats`] — a front-end bumps the `rejected_*` pair for
    /// refusals it makes before a request ever reaches the queue.
    pub fn shed_counters(&self) -> ShedCounters {
        self.shared.counters.clone()
    }

    /// The model currently served under the default id.
    pub fn model(&self) -> Arc<FrozenModel> {
        self.shared.registry.default_model()
    }

    /// The model registry behind this server — register, inspect, and
    /// hot-swap models while the server runs.
    pub fn registry(&self) -> &ModelRegistry {
        &self.shared.registry
    }
}

/// A running micro-batching inference server.
///
/// # Examples
///
/// ```
/// use ff_models::small_mlp;
/// use ff_serve::{FrozenModel, ServeConfig, ServeMode, Server};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), ff_serve::ServeError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let model = FrozenModel::freeze(&small_mlp(12, &[8], 4, &mut rng), 4)?;
/// let server = Server::start(
///     model,
///     ServeConfig {
///         workers: 2,
///         mode: ServeMode::Goodness,
///         ..ServeConfig::default()
///     },
/// )?;
/// let prediction = server.handle().predict(&[0.5; 12])?;
/// assert!(prediction.label < 4);
/// server.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct Server {
    handle: ServeHandle,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Spawns the worker pool around a single-model registry (the model
    /// becomes the default entry) and returns the running server.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] when the configuration is
    /// unusable (zero workers or zero `max_batch`).
    pub fn start(model: FrozenModel, config: ServeConfig) -> Result<Self> {
        Self::start_registry(ModelRegistry::new(model), config)
    }

    /// Spawns the worker pool in front of an existing [`ModelRegistry`] —
    /// many models behind one queue, addressable per request
    /// ([`ServeHandle::submit_to`]) and hot-swappable while serving.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] when the configuration is
    /// unusable (zero workers or zero `max_batch`).
    pub fn start_registry(registry: ModelRegistry, config: ServeConfig) -> Result<Self> {
        if config.workers == 0 {
            return Err(ServeError::BadRequest {
                message: "config.workers must be positive".to_string(),
            });
        }
        if config.policy.max_batch == 0 {
            return Err(ServeError::BadRequest {
                message: "config.policy.max_batch must be positive".to_string(),
            });
        }
        let (tx, rx) = mpsc::channel();
        let counters = ShedCounters::default();
        let telemetry = Telemetry::new(config.trace, &counters, &registry);
        let shared = Arc::new(Shared {
            registry,
            config,
            queue: Mutex::new(Some(rx)),
            telemetry,
            counters,
        });
        let workers = (0..config.workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ff-serve-worker-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a named worker thread cannot fail")
            })
            .collect();
        Ok(Server {
            handle: ServeHandle { tx, shared },
            workers,
        })
    }

    /// A cloneable client handle.
    pub fn handle(&self) -> ServeHandle {
        self.handle.clone()
    }

    /// Convenience: submit one sample through the server's own handle.
    ///
    /// # Errors
    ///
    /// As [`ServeHandle::predict`].
    pub fn predict(&self, features: &[f32]) -> Result<Prediction> {
        self.handle.predict(features)
    }

    /// Current aggregate statistics (the "stats endpoint").
    pub fn stats(&self) -> ServerStats {
        self.handle.stats()
    }

    /// Runs every sample of an in-order batch iterator through the default
    /// model once — used to pre-fault weight panels and warm caches before
    /// opening the server to traffic.
    ///
    /// # Errors
    ///
    /// Propagates model errors (wrong feature width in the warmup set).
    pub fn warmup<I: Iterator<Item = ff_data::Batch>>(&self, batches: I) -> Result<usize> {
        let model = self.handle.shared.registry.default_model();
        let mut samples = 0;
        for batch in batches {
            let rows = batch.images.rows();
            let flat = batch
                .images
                .reshape(&[rows, batch.images.len() / rows.max(1)])?;
            match self.handle.shared.config.mode {
                ServeMode::Logits => model.predict_logits(&flat)?,
                ServeMode::Goodness => model.predict_goodness(&flat)?,
            };
            samples += rows;
        }
        Ok(samples)
    }

    /// Stops the worker pool and closes the request queue.
    ///
    /// One poison pill per worker is enqueued behind all already-submitted
    /// work, so in-flight requests are still answered; the queue is then
    /// closed, after which any [`ServeHandle::predict`] — including calls
    /// racing with the shutdown — returns [`ServeError::ServerClosed`]
    /// instead of hanging.
    pub fn shutdown(self) {
        let Server { handle, workers } = self;
        for _ in 0..workers.len() {
            // Send failures mean every worker already exited; fine.
            let _ = handle.tx.send(Job::Poison);
        }
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
        // Close the channel: late sends now fail, and dropping any queued
        // `Job::Run` drops its reply sender, waking its client with
        // `ServerClosed`.
        let receiver = handle.shared.queue.lock().expect("queue lock").take();
        drop(receiver);
        drop(handle);
    }
}

/// One worker: pull a batch off the shared queue, run it, reply. Exits on
/// the first poison pill it consumes (or when the channel closes).
fn worker_loop(shared: &Shared) {
    let policy = shared.config.policy;
    loop {
        let mut poisoned = false;
        let batch = {
            let guard = shared.queue.lock().expect("queue lock");
            let Some(queue) = guard.as_ref() else {
                return; // queue already closed
            };
            let first = match queue.recv() {
                Ok(Job::Run(request)) => request,
                Ok(Job::Poison) | Err(_) => return,
            };
            let mut batch = vec![first];
            if policy.max_batch > 1 {
                let deadline = Instant::now() + policy.max_wait;
                while batch.len() < policy.max_batch {
                    let job = match queue.try_recv() {
                        Ok(job) => Some(job),
                        Err(_) if batch.len() > 1 => None, // company found: go
                        Err(_) => {
                            // Lone request: wait out the remaining budget
                            // for one batch-mate.
                            match deadline
                                .checked_duration_since(Instant::now())
                                .filter(|d| !d.is_zero())
                            {
                                None => None,
                                Some(budget) => queue.recv_timeout(budget).ok(),
                            }
                        }
                    };
                    match job {
                        Some(Job::Run(request)) => batch.push(request),
                        Some(Job::Poison) => {
                            // Exactly one pill per worker: finish this batch,
                            // then exit.
                            poisoned = true;
                            break;
                        }
                        None => break,
                    }
                }
            }
            batch
            // queue lock released here: the next worker can assemble its
            // batch while this one computes.
        };
        run_batch(shared, batch);
        if poisoned {
            return;
        }
    }
}

/// Validates an assembled batch, groups it by pinned model epoch, and runs
/// one GEMM wave per group.
fn run_batch(shared: &Shared, batch: Vec<Request>) {
    // Reject malformed requests individually and shed the ones whose
    // deadline expired while queued — both before any GEMM work; the rest
    // still batch. The deadline check runs *after* batch assembly (which
    // may have waited `max_wait`), so queue time counts against the budget.
    // This instant also closes the queue-wait stage for every request in
    // the batch: enqueue → here is time spent waiting for a worker.
    let assembled = Instant::now();
    let mut groups: Vec<(Arc<FrozenModel>, Vec<Request>)> = Vec::new();
    for request in batch {
        if request
            .deadline
            .is_some_and(|deadline| assembled > deadline)
        {
            shared.counters.shed_expired.inc();
            request.snapshot.entry().shed_counters().shed_expired.inc();
            drop(request.trace);
            let _ = request.reply.send(Err(ServeError::DeadlineExceeded));
            continue;
        }
        let features = request.snapshot.model().input_features();
        if request.features.len() != features {
            let error = ServeError::BadRequest {
                message: format!(
                    "expected {features} features, got {}",
                    request.features.len()
                ),
            };
            drop(request.trace);
            let _ = request.reply.send(Err(error));
            continue;
        }
        // Group by pinned epoch (pointer identity): two requests share a
        // GEMM only when they were resolved against the *same* frozen
        // weights, so a swap landing mid-batch can never mix models.
        let model = Arc::clone(request.snapshot.model());
        match groups.iter_mut().find(|(m, _)| Arc::ptr_eq(m, &model)) {
            Some((_, group)) => group.push(request),
            None => groups.push((model, vec![request])),
        }
    }
    for (model, group) in groups {
        run_group(shared, &model, group, assembled);
    }
}

/// Executes and answers one same-epoch group. `assembled` is the instant
/// batch assembly completed (queue wait ends there; validation, grouping
/// and input flattening between it and the GEMM are the assembly stage).
fn run_group(shared: &Shared, model: &FrozenModel, group: Vec<Request>, assembled: Instant) {
    let features = model.input_features();
    let rows = group.len();
    let mut data = Vec::with_capacity(rows * features);
    for request in &group {
        data.extend_from_slice(&request.features);
    }
    let wave_start = Instant::now();
    for request in &group {
        if let Some(trace) = &request.trace {
            trace.stamp_at(Stage::WaveStart, wave_start);
        }
    }
    let outcome = Tensor::from_vec(&[rows, features], data)
        .map_err(ServeError::from)
        .and_then(|input| match shared.config.mode {
            ServeMode::Logits => model.predict_logits(&input),
            ServeMode::Goodness => model.predict_goodness(&input),
        });
    match outcome {
        Ok(labels) => {
            let gemm_done = Instant::now();
            let latencies: Vec<Duration> = group.iter().map(|r| r.enqueued.elapsed()).collect();
            // Record stats *before* replying: once the last reply of a wave
            // is delivered, `Server::stats` must already reflect it (tests
            // and the smoke gate assert exact request counts).
            let telemetry = &shared.telemetry;
            telemetry.batches.inc();
            telemetry.requests.add(rows as u64);
            telemetry.max_batch.max_of(rows as u64);
            telemetry.latency.record_all(latencies.iter().copied());
            // One lock acquisition per stage histogram for the whole wave.
            telemetry.stages.queue.record_all(
                group
                    .iter()
                    .map(|r| assembled.saturating_duration_since(r.enqueued)),
            );
            let assembly = wave_start.saturating_duration_since(assembled);
            telemetry
                .stages
                .assembly
                .record_all(std::iter::repeat_n(assembly, rows));
            let gemm = gemm_done.saturating_duration_since(wave_start);
            telemetry
                .stages
                .gemm
                .record_all(std::iter::repeat_n(gemm, rows));
            for ((request, label), latency) in group.into_iter().zip(labels).zip(latencies) {
                // The worker's handle drops before the reply is sent, so the
                // caller's handle is the last and commits the trace before
                // anyone can read the reply.
                if let Some(trace) = request.trace {
                    trace.stamp_at(Stage::GemmDone, gemm_done);
                }
                request.snapshot.entry().record_served(latency);
                let _ = request.reply.send(Ok(Prediction {
                    label,
                    batch_size: rows,
                }));
            }
        }
        Err(error) => {
            // Failed requests drop their trace handles unstamped past
            // wave-start: the committed trace stays incomplete, which is
            // exactly what the dump should show for an errored request.
            for request in group {
                drop(request.trace);
                let _ = request.reply.send(Err(error.clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_models::small_mlp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> FrozenModel {
        model_seeded(5)
    }

    fn model_seeded(seed: u64) -> FrozenModel {
        let mut rng = StdRng::seed_from_u64(seed);
        FrozenModel::freeze(&small_mlp(8, &[6], 3, &mut rng), 3).unwrap()
    }

    #[test]
    fn start_validates_config() {
        assert!(Server::start(
            model(),
            ServeConfig {
                workers: 0,
                ..ServeConfig::default()
            }
        )
        .is_err());
        assert!(Server::start(
            model(),
            ServeConfig {
                policy: BatchPolicy {
                    max_batch: 0,
                    max_wait: Duration::ZERO
                },
                ..ServeConfig::default()
            }
        )
        .is_err());
    }

    #[test]
    fn serves_a_request_and_counts_it() {
        let server = Server::start(model(), ServeConfig::default()).unwrap();
        let prediction = server.predict(&[0.25; 8]).unwrap();
        assert!(prediction.label < 3);
        assert!(prediction.batch_size >= 1);
        let stats = server.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.latency.count, 1);
        assert!(stats.mean_batch >= 1.0);
        // Per-model accounting flows into the same snapshot.
        assert_eq!(stats.models.len(), 1);
        assert_eq!(stats.models[0].requests, 1);
        assert_eq!(stats.models[0].latency.count, 1);
        server.shutdown();
    }

    #[test]
    fn predict_many_matches_individual_predictions() {
        let server = Server::start(model(), ServeConfig::default()).unwrap();
        let rows: Vec<Vec<f32>> = (0..10)
            .map(|i| (0..8).map(|j| ((i * 8 + j) as f32).sin()).collect())
            .collect();
        let individually: Vec<usize> = rows
            .iter()
            .map(|row| server.predict(row).unwrap().label)
            .collect();
        let many = server
            .handle()
            .predict_many(rows.iter().map(Vec::as_slice))
            .unwrap();
        let labels: Vec<usize> = many.iter().map(|p| p.label).collect();
        assert_eq!(
            labels, individually,
            "pipelined answers must be bit-identical"
        );
        assert_eq!(server.handle().stats().requests, 20);
        // A bad row fails the whole call with its typed error.
        let bad = [vec![0.0f32; 8], vec![0.0f32; 7]];
        assert!(matches!(
            server.handle().predict_many(bad.iter().map(Vec::as_slice)),
            Err(ServeError::BadRequest { .. })
        ));
        server.shutdown();
    }

    #[test]
    fn routes_requests_to_the_addressed_model() {
        let server = Server::start(model_seeded(5), ServeConfig::default()).unwrap();
        let handle = server.handle();
        handle
            .registry()
            .register(2, "b", model_seeded(77))
            .unwrap();
        // Find an input the two models disagree on, then check routing.
        let model_a = handle.registry().get(0).unwrap();
        let model_b = handle.registry().get(2).unwrap();
        let mut probe = None;
        for i in 0..256u32 {
            let row: Vec<f32> = (0..8).map(|j| ((i * 8 + j) as f32 * 0.37).sin()).collect();
            let input = Tensor::from_vec(&[1, 8], row.clone()).unwrap();
            let a = model_a.predict_logits(&input).unwrap()[0];
            let b = model_b.predict_logits(&input).unwrap()[0];
            if a != b {
                probe = Some((row, a, b));
                break;
            }
        }
        let (row, label_a, label_b) = probe.expect("differently-seeded models must disagree");
        assert_eq!(handle.predict(&row).unwrap().label, label_a);
        let via_b = handle.submit_to(2, &row, None).unwrap().wait().unwrap();
        assert_eq!(via_b.label, label_b);
        assert_eq!(
            handle.submit_to(9, &row, None).unwrap_err(),
            ServeError::UnknownModel { id: 9 }
        );
        let stats = handle.stats();
        assert_eq!(stats.models.len(), 2);
        assert_eq!(stats.models[0].requests, 1);
        assert_eq!(stats.models[1].requests, 1);
        server.shutdown();
    }

    #[test]
    fn mixed_model_batches_never_share_a_gemm() {
        // One worker, generous wait: waves to both models interleave in one
        // queue, yet each reply's batch_size only counts same-model rows.
        let server = Server::start(
            model_seeded(5),
            ServeConfig {
                policy: BatchPolicy {
                    max_batch: 64,
                    max_wait: Duration::from_millis(5),
                },
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let handle = server.handle();
        handle
            .registry()
            .register(1, "b", model_seeded(77))
            .unwrap();
        let mut pending = Vec::new();
        for i in 0..12 {
            let row = [i as f32 * 0.1; 8];
            pending.push((0u16, handle.submit_to(0, &row, None).unwrap()));
            pending.push((1u16, handle.submit_to(1, &row, None).unwrap()));
        }
        for (_, reply) in pending {
            let prediction = reply.wait().unwrap();
            assert!(prediction.batch_size <= 12, "groups must not mix models");
        }
        let stats = handle.stats();
        assert_eq!(stats.requests, 24);
        assert_eq!(stats.models[0].requests, 12);
        assert_eq!(stats.models[1].requests, 12);
        server.shutdown();
    }

    #[test]
    fn wrong_feature_count_is_rejected_per_request() {
        let server = Server::start(model(), ServeConfig::default()).unwrap();
        assert!(matches!(
            server.predict(&[0.0; 7]),
            Err(ServeError::BadRequest { .. })
        ));
        // A valid request still succeeds afterwards.
        assert!(server.predict(&[0.0; 8]).is_ok());
        server.shutdown();
    }

    #[test]
    fn expired_deadlines_are_shed_before_the_gemm() {
        let server = Server::start(model(), ServeConfig::default()).unwrap();
        let handle = server.handle();
        // A deadline already in the past: the worker must shed, not serve.
        let expired = Instant::now() - Duration::from_millis(5);
        let pending = handle
            .submit_with_deadline(&[0.25; 8], Some(expired))
            .unwrap();
        assert_eq!(pending.wait().unwrap_err(), ServeError::DeadlineExceeded);
        // A generous deadline serves normally.
        let roomy = Instant::now() + Duration::from_secs(30);
        let prediction = handle
            .submit_with_deadline(&[0.25; 8], Some(roomy))
            .unwrap()
            .wait()
            .unwrap();
        assert!(prediction.label < 3);
        let stats = handle.stats();
        assert_eq!(stats.shed_expired, 1);
        assert_eq!(stats.requests, 1, "shed requests are not 'served'");
        // The shed is attributed to the addressed model as well.
        assert_eq!(stats.models[0].shed_expired, 1);
        assert_eq!(stats.models[0].requests, 1);
        // Front-end rejection counters flow into the same snapshot.
        let counters = handle.shed_counters();
        counters.rejected_overload.add(3);
        counters.rejected_deadline.inc();
        let stats = handle.stats();
        assert_eq!(stats.rejected_overload, 3);
        assert_eq!(stats.rejected_deadline, 1);
        server.shutdown();
    }

    #[test]
    fn predict_after_shutdown_fails_cleanly() {
        let server = Server::start(model(), ServeConfig::default()).unwrap();
        let handle = server.handle();
        server.shutdown();
        assert_eq!(
            handle.predict(&[0.0; 8]).unwrap_err(),
            ServeError::ServerClosed
        );
    }

    #[test]
    fn warmup_touches_every_sample() {
        let images = ff_tensor::Tensor::ones(&[10, 8]);
        let dataset = ff_data::Dataset::new(images, vec![0; 10], 3).unwrap();
        let server = Server::start(
            model(),
            ServeConfig {
                mode: ServeMode::Goodness,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let warmed = server.warmup(dataset.iter_batches(4)).unwrap();
        assert_eq!(warmed, 10);
        assert_eq!(server.handle().model().num_classes(), 3);
        server.shutdown();
    }
}
