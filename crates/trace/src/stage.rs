//! The stage taxonomy of the serving path and the always-on per-stage
//! histograms.
//!
//! A request moves through six observable points: socket receive, auth +
//! admission, micro-batch enqueue, GEMM wave start, GEMM done, reply
//! written. The four intervals between the last four points — queue wait,
//! batch assembly, GEMM, reply write — are where latency hides near
//! saturation, so [`StageHistograms`] records each of them for **every**
//! served request (not just sampled ones) into shared log-linear
//! histograms.

use crate::SharedHistogram;
use ff_metrics::LatencySummary;
use std::time::Duration;

/// Number of stamped points on the request path (the length of
/// [`crate::RequestTrace::stamps`]).
pub const STAGE_COUNT: usize = 6;

/// An observable point on the serving path, in path order.
///
/// Stage *timestamps* are stamped at these points; stage *durations* are
/// the intervals between consecutive points (queue wait is
/// `WaveStart − Enqueue` less assembly, and so on — see
/// [`StageHistograms`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Stage {
    /// Request bytes fully received (or, in-process, the submit call).
    Recv = 0,
    /// Authentication and admission-gate decision made.
    Admit = 1,
    /// Request handed to the micro-batcher queue.
    Enqueue = 2,
    /// A worker picked the request into a GEMM wave.
    WaveStart = 3,
    /// The wave's GEMM (and activation walk) finished.
    GemmDone = 4,
    /// The reply is encoded and ready for its one socket write (or,
    /// in-process, was delivered).
    ReplyWritten = 5,
}

impl Stage {
    /// Every stage in path order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Recv,
        Stage::Admit,
        Stage::Enqueue,
        Stage::WaveStart,
        Stage::GemmDone,
        Stage::ReplyWritten,
    ];

    /// The stage's index into [`crate::RequestTrace::stamps`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short stable name used in tables and the exposition format.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Recv => "recv",
            Stage::Admit => "admit",
            Stage::Enqueue => "enqueue",
            Stage::WaveStart => "wave_start",
            Stage::GemmDone => "gemm_done",
            Stage::ReplyWritten => "reply_written",
        }
    }
}

/// Always-on shared histograms for the four stage durations. Cloneable;
/// clones share the same histograms.
///
/// The batch engine records `queue`, `assembly` and `gemm` once per wave
/// (one lock acquisition per histogram for the whole wave); the reply
/// writer records `write` per reply. All durations are wall-clock
/// (monotonic-clock) nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct StageHistograms {
    /// Enqueue → wave assembly began: time spent waiting in the
    /// micro-batcher queue, including any deliberate `max_wait` hold.
    pub queue: SharedHistogram,
    /// Assembly began → GEMM wave start: validation, model grouping and
    /// input flattening.
    pub assembly: SharedHistogram,
    /// Wave start → GEMM done: the INT8 GEMM plus the layer walk.
    pub gemm: SharedHistogram,
    /// Reply ready at the writer → encoded in memory (the send syscall
    /// follows the trace commit and is not in this stage).
    pub write: SharedHistogram,
}

impl StageHistograms {
    /// Creates four empty histograms.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copyable summaries of all four stages.
    pub fn summaries(&self) -> StageSummaries {
        StageSummaries {
            queue: self.queue.summary(),
            assembly: self.assembly.summary(),
            gemm: self.gemm.summary(),
            write: self.write.summary(),
        }
    }
}

/// Copyable headline statistics for the four stage durations — the form
/// that travels inside `ServerStats` and the FF8P stats reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSummaries {
    /// Queue-wait summary.
    pub queue: LatencySummary,
    /// Batch-assembly summary.
    pub assembly: LatencySummary,
    /// GEMM summary.
    pub gemm: LatencySummary,
    /// Reply-write summary.
    pub write: LatencySummary,
}

fn zero_summary() -> LatencySummary {
    LatencySummary {
        count: 0,
        mean: Duration::ZERO,
        p50: Duration::ZERO,
        p95: Duration::ZERO,
        p99: Duration::ZERO,
        max: Duration::ZERO,
    }
}

impl Default for StageSummaries {
    fn default() -> Self {
        StageSummaries {
            queue: zero_summary(),
            assembly: zero_summary(),
            gemm: zero_summary(),
            write: zero_summary(),
        }
    }
}

impl StageSummaries {
    /// `(short name, summary)` for each stage duration, in path order —
    /// convenient for building tables.
    pub fn named(&self) -> [(&'static str, LatencySummary); 4] {
        [
            ("queue", self.queue),
            ("assembly", self.assembly),
            ("gemm", self.gemm),
            ("write", self.write),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_indices_match_path_order() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
        assert_eq!(Stage::ALL.len(), STAGE_COUNT);
        assert_eq!(Stage::ReplyWritten.name(), "reply_written");
    }

    #[test]
    fn histograms_are_shared_across_clones() {
        let stages = StageHistograms::new();
        let writer = stages.clone();
        writer.queue.record(Duration::from_micros(100));
        writer
            .gemm
            .record_all([Duration::from_micros(50), Duration::from_micros(60)]);
        let summaries = stages.summaries();
        assert_eq!(summaries.queue.count, 1);
        assert_eq!(summaries.gemm.count, 2);
        assert_eq!(summaries.assembly.count, 0);
        assert_eq!(summaries.write, StageSummaries::default().write);
    }

    #[test]
    fn named_summaries_follow_path_order() {
        let names: Vec<&str> = StageSummaries::default()
            .named()
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(names, ["queue", "assembly", "gemm", "write"]);
    }
}
