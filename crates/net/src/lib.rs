//! # ff-net
//!
//! The TCP network front-end that turns the in-process INT8 inference
//! engine ([`ff_serve::Server`]) into a real network service — std-only, no
//! async runtime, matching the workspace's dependency-free edge-deployment
//! stance.
//!
//! Layers:
//!
//! 1. **Protocol** ([`protocol`]) — the length-prefixed `FF8P` binary wire
//!    format (Predict / PredictBatch / Stats / Health / Shutdown requests,
//!    typed replies and error frames, per-request deadline budgets,
//!    retry-after hints, drain state, shed counters, per-frame model
//!    addressing and auth tokens; one live version — a frame at any other
//!    gets one typed error and a closed stream), built on the shared
//!    [`ff_codec`] machinery with the same panic-free truncation/byte-flip
//!    hardening as the `FF8S` and `FF8C` loaders.
//! 2. **Server** ([`NetServer`]) — accept loop + bounded connection thread
//!    pool + per-connection framed codec with read/write timeouts,
//!    max-frame-size limits, idle-connection reaping, a bounded
//!    [`AdmissionGate`] that load-sheds overload with typed `Overloaded` /
//!    `DeadlineExceeded` replies, and two-phase graceful drain. Every
//!    admitted prediction funnels into the existing micro-batching engine,
//!    so rows from different connections coalesce into shared GEMM batches
//!    and answers stay **bit-identical** to direct
//!    [`ff_serve::FrozenModel`] calls (per-row quantization). A server can
//!    front a whole [`ff_serve::ModelRegistry`]
//!    ([`NetServer::bind_registry`]): requests route by the model id in
//!    their frame header, models hot-swap under live traffic, and
//!    bearer-token auth with per-model ACLs ([`AuthPolicy`]) guards
//!    predictions.
//! 3. **Client** ([`Client`]) — blocking connect/reconnect,
//!    single-prediction and one-frame-batch calls, pipelined request waves
//!    that collapse N round-trips into one, deadline stamping, model
//!    selection and auth tokens ([`ClientConfig::model`] /
//!    [`ClientConfig::token`]), and opt-in seeded-backoff retries
//!    ([`RetryPolicy`]) for idempotent requests.
//! 4. **Fault injection** ([`fault`]) — a deterministic, seeded faulty
//!    transport wrapper for chaos tests: partial I/O, stalls, mid-frame
//!    resets and garbage injection from a reproducible [`fault::FaultPlan`].
//!
//! # Examples
//!
//! Freeze a model, serve it over TCP on an ephemeral port, and classify
//! from a client — in one process for the doc-test, two in real life:
//!
//! ```
//! use ff_models::small_mlp;
//! use ff_net::{Client, NetConfig, NetServer};
//! use ff_serve::FrozenModel;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let model = FrozenModel::freeze(&small_mlp(20, &[16], 4, &mut rng), 4)?;
//! let server = NetServer::bind(model, "127.0.0.1:0", NetConfig::default())?;
//!
//! let mut client = Client::connect(server.local_addr())?;
//! let info = client.health()?;
//! assert_eq!(info.input_features, 20);
//!
//! // One call, one frame, many rows — or pipeline single predictions.
//! let rows = vec![vec![0.25f32; 20]; 3];
//! let labels = client.predict_batch(20, &rows.concat())?;
//! assert_eq!(labels.len(), 3);
//! let pipelined = client.predict_pipelined(rows.iter().map(Vec::as_slice))?;
//! assert_eq!(pipelined, labels);
//!
//! println!("served: {}", client.stats()?.requests);
//! client.close();
//! server.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! Deadlines and retries are plain configuration:
//!
//! ```no_run
//! use ff_net::{Client, ClientConfig, RetryPolicy};
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut client = Client::connect_with(
//!     "127.0.0.1:9000",
//!     ClientConfig {
//!         deadline: Some(Duration::from_millis(50)),
//!         retry: RetryPolicy::standard(42),
//!         ..ClientConfig::default()
//!     },
//! )?;
//! let label = client.predict(&[0.5; 20])?;
//! # let _ = label;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod auth;
mod client;
mod error;
pub mod fault;
pub mod protocol;
mod retry;
mod server;

pub use admission::{AdmissionConfig, AdmissionGate, AdmitError, OverloadPolicy, Permit};
pub use auth::{AuthPolicy, AuthToken};
pub use client::{Client, ClientConfig, ServerInfo};
pub use error::{ErrorCode, NetError};
pub use protocol::{
    Frame, FrameMeta, WireHealthState, WireMode, WireModelStats, WireStats,
    DEFAULT_MAX_FRAME_BYTES, MAGIC, PROTOCOL_VERSION,
};
pub use retry::RetryPolicy;
pub use server::{NetConfig, NetServer};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, NetError>;
