//! # ff-metrics
//!
//! Training histories, accuracy helpers, plain-text table formatting, the
//! bounded-memory latency histogram and the shared atomic [`Counter`] and
//! [`Gauge`] that the `ff-trace` metrics registry and the `ff-serve` /
//! `ff-net` stats endpoints are built on.
//!
//! # Examples
//!
//! ```
//! use ff_metrics::TrainingHistory;
//!
//! let mut history = TrainingHistory::new("ff-int8");
//! history.record(0, 2.3, 0.11, Some(0.10));
//! history.record(1, 1.1, 0.55, Some(0.52));
//! assert_eq!(history.best_test_accuracy(), Some(0.52));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counter;
mod gauge;
mod history;
mod latency;
mod table;

pub use counter::Counter;
pub use gauge::Gauge;
pub use history::{accuracy, EpochRecord, TrainingHistory};
pub use latency::{LatencyHistogram, LatencySummary};
pub use table::format_table;
