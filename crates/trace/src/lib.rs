//! # ff-trace
//!
//! Observability substrate for the FF-INT8 serving stack: a unified
//! [`MetricsRegistry`] of named metric handles, per-request stage tracing
//! ([`TraceHandle`] / [`RequestTrace`]), and the bounded-memory
//! [`FlightRecorder`] the `FF8P` `TraceDump` endpoint reads.
//!
//! The stack spans accept → auth → admission → micro-batch queue → GEMM
//! wave → reply writer; endpoint-level counters cannot say *where* time
//! went when queueing delay explodes near saturation. This crate adds that
//! attribution in two complementary forms:
//!
//! 1. **Always-on stage histograms** ([`StageHistograms`]): every served
//!    request records queue-wait, batch-assembly, GEMM and reply-write
//!    durations into shared log-linear histograms — cheap enough to leave
//!    on (a handful of atomics plus one short mutex per batch), and folded
//!    into the `FF8P` stats reply.
//! 2. **Sampled per-request traces**: a [`FlightRecorder`] hands out
//!    [`TraceHandle`]s stamped with monotonic timestamps at each
//!    [`Stage`]; completed (or abandoned) traces land in a fixed-capacity
//!    ring. Sampling is seeded and deterministic ([`Sampler`]), with an
//!    always-capture path for requests slower than a configurable
//!    threshold — bounded memory, replayable decisions.
//!
//! Everything is std-only, `forbid(unsafe_code)`, and free of background
//! threads: stamping is a compare-exchange per stage, and a trace commits
//! to the ring when its last handle drops — so a connection killed
//! mid-request still commits its (incomplete, flagged) trace.
//!
//! The contract the serving stack keeps with it: **a reply never precedes
//! its own bookkeeping.** Every other handle is dropped before the reply
//! writer's, which stamps, commits and accounts the reply before sending
//! it, and a commit waits out a reader's bounded clone of the ring rather
//! than being dropped — so whoever holds reply N can already see N's wire
//! accounting, stage histograms and committed trace.
//!
//! The same substrate extends past serving into cluster-wide training
//! observability: [`ClusterFlightRecorder`] rings per-step
//! [`ClusterSpan`]s whose trace ids ride the `FF8D` training protocol and
//! collect stamps from coordinator *and* workers, and [`WindowedSeries`]
//! turns any registry's lifetime totals into per-window rates and
//! percentiles, surfaced by [`MetricsExporter::bind_windowed`].
//!
//! # Examples
//!
//! ```
//! use ff_trace::{FlightRecorder, MetricsRegistry, Stage, TraceSettings};
//!
//! let metrics = MetricsRegistry::new();
//! metrics.counter("serve.requests").add(3);
//! assert!(metrics.expose().contains("serve.requests counter 3"));
//!
//! let recorder = FlightRecorder::new(TraceSettings {
//!     sample_per_sec: u32::MAX, // deterministic: every request sampled
//!     ..TraceSettings::default()
//! });
//! let trace = recorder.begin(0).expect("sampled");
//! trace.stamp(Stage::Admit);
//! trace.stamp(Stage::Enqueue);
//! trace.stamp(Stage::WaveStart);
//! trace.stamp(Stage::GemmDone);
//! trace.stamp(Stage::ReplyWritten);
//! drop(trace); // last handle gone: the trace commits to the ring
//! let recent = recorder.recent(0);
//! assert_eq!(recent.len(), 1);
//! assert!(recent[0].completed && recent[0].is_monotonic());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod exporter;
mod recorder;
mod registry;
mod series;
mod stage;
mod trace;

pub use cluster::{ClusterFlightRecorder, ClusterSpan, ShardSpan};
pub use exporter::MetricsExporter;
pub use recorder::{FlightRecorder, Sampler};
pub use registry::{
    DeepMetricValue, MetricValue, MetricsRegistry, MetricsSnapshot, SharedHistogram,
};
pub use series::WindowedSeries;
pub use stage::{Stage, StageHistograms, StageSummaries, STAGE_COUNT};
pub use trace::{RequestTrace, TraceHandle, TraceSettings};
