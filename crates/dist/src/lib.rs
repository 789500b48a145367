//! # ff-dist
//!
//! Distributed Forward-Forward training over the workspace's determinism
//! contract: every distributed execution is **bit-identical** to the
//! sequential [`ff_core::FfTrainer`] run from the same seed and options.
//!
//! The crate is a data-parallel training service built on the canonical step
//! decomposition in [`ff_core::shard`]: the `FF8D` protocol in
//! [`protocol`], the [`coordinator`] and the [`worker`]. A coordinator cuts
//! each prepared batch into row shards, farms them to TCP workers, reduces
//! gradients in **fixed shard order**, and recomputes the shards of a
//! crashed worker locally — so worker death changes wall-clock time, never
//! the resulting weights.
//!
//! The service is observable end to end: each sampled training step opens
//! an [`ff_trace::ClusterSpan`] whose trace id rides the `FF8D` frames to
//! workers and back (coordinator phase stamps plus worker-local
//! decode/compute/encode stamps in one record, pullable over the wire with
//! [`pull_cluster_traces`]), and the transport counts every frame and byte
//! per message kind (`dist.wire.*`).
//!
//! See `ARCHITECTURE.md` ("Distributed training") for why Forward-Forward
//! makes the sharded step exact rather than approximate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
mod error;
pub mod protocol;
pub mod worker;

pub use coordinator::{pull_cluster_traces, Coordinator, CoordinatorConfig, DistTrainer};
pub use error::DistError;
pub use worker::Worker;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, DistError>;
