//! # ff-serve
//!
//! Frozen INT8 model artifacts and a multi-threaded micro-batching
//! inference engine for FF-INT8-trained networks.
//!
//! Training (in `ff-core`/`ff-nn`) produces a mutable [`ff_nn::Sequential`]
//! that dies with the process and cannot be shared across threads. This
//! crate adds the serving half of the system:
//!
//! 1. **Freeze** — [`FrozenModel::freeze`] extracts each layer's INT8
//!    weight codes, scale, fp32 bias, activation flag and shape metadata
//!    into an immutable, `Send + Sync` model whose weight panels are packed
//!    once ([`ff_quant::SharedGemmPlan`]) and shared by every thread.
//! 2. **Persist** — [`save_bytes`] / [`load_bytes`] serialize a frozen
//!    model into the versioned, length-prefixed `FF8S` binary format.
//!    Round-trips are bit-exact; malformed input yields typed
//!    [`ServeError`]s, never panics.
//! 3. **Serve** — [`Server`] runs a worker pool over an mpsc request
//!    queue, coalescing concurrent single-sample requests into batched
//!    INT8 GEMMs under a max-batch/max-wait [`BatchPolicy`], replying
//!    through per-request channels and recording latency percentiles
//!    ([`ff_metrics::LatencyHistogram`]).
//! 4. **Multi-model** — a [`ModelRegistry`] puts many named, versioned
//!    frozen models behind one worker pool, addressed per request by a
//!    `u16` model id, each entry **atomically hot-swappable** from a
//!    training checkpoint ([`ModelRegistry::swap_from_checkpoint`]) with
//!    zero downtime and no torn replies (see the registry module docs for
//!    the epoch-pointer memory-ordering contract).
//!
//! Both classification modes are supported: logits argmax and the FF-native
//! per-label goodness sweep, whose first dense layer runs once per request
//! row and fans out to every candidate label in the GEMM epilogue, and whose
//! later layers run one GEMM over all candidate rows. Activations are
//! quantized **per row**, which makes every
//! prediction independent of how requests were batched — micro-batching
//! changes throughput, never answers.
//!
//! # Examples
//!
//! Train-free quick start (random weights): freeze, round-trip, serve.
//!
//! ```
//! use ff_models::small_mlp;
//! use ff_serve::{load_bytes, save_bytes, FrozenModel, ServeConfig, ServeMode, Server};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), ff_serve::ServeError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let net = small_mlp(20, &[16], 4, &mut rng);
//!
//! // Freeze and persist.
//! let frozen = FrozenModel::freeze(&net, 4)?;
//! let artifact = save_bytes(&frozen);
//! let model = load_bytes(&artifact)?;
//!
//! // Serve with micro-batching across 2 workers.
//! let server = Server::start(
//!     model,
//!     ServeConfig {
//!         workers: 2,
//!         mode: ServeMode::Goodness,
//!         ..ServeConfig::default()
//!     },
//! )?;
//! let prediction = server.predict(&[0.1; 20])?;
//! assert!(prediction.label < 4);
//! println!("{}", server.stats().latency);
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod format;
mod model;
mod registry;
mod server;

pub use error::ServeError;
pub use format::{load_bytes, save_bytes, FORMAT_VERSION, MAGIC};
pub use model::{FrozenDense, FrozenLayer, FrozenModel};
pub use registry::{ModelEntry, ModelRegistry, ModelSnapshot, ModelStats, DEFAULT_MODEL_ID};
pub use server::{
    BatchPolicy, PendingPrediction, Prediction, ServeConfig, ServeHandle, ServeMode, Server,
    ServerStats, ShedCounters,
};
// The observability vocabulary the serve API speaks (`ServeConfig::trace`,
// `ServerStats::stages`, `ServeHandle::begin_trace`), re-exported so
// callers need not depend on `ff-trace` directly.
pub use ff_trace::{
    FlightRecorder, MetricsRegistry, RequestTrace, SharedHistogram, Stage, StageHistograms,
    StageSummaries, TraceHandle, TraceSettings, STAGE_COUNT,
};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ServeError>;
