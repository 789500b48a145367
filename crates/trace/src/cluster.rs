//! Cluster-step spans: the distributed-training counterpart of the
//! per-request [`crate::FlightRecorder`].
//!
//! The data-parallel coordinator drives every training step through the
//! same phases — prepare/quantize, param-sync broadcast, shard dispatch,
//! wire wait, reduce (with local recompute for dead workers' shards),
//! apply — and each remote shard additionally spends worker-side time in
//! decode/compute/encode. A [`ClusterSpan`] records all of it as
//! nanosecond offsets: coordinator stamps on the coordinator's clock
//! (offsets from step start), worker stamps on each worker's clock
//! (offsets from task receipt), so no cross-host clock sync is needed and
//! every sequence is monotonic by construction.
//!
//! Sampling reuses the recorder's seeded splitmix64 decision, keyed on the
//! **step number**: [`ClusterFlightRecorder::trace_id`] returns `0` for
//! unsampled steps and a deterministic nonzero id otherwise — the id that
//! rides on `SubmitBatch`/`ShardResult` frames so workers know which
//! results to stamp. Committed spans land in a bounded ring with the same
//! commit discipline as the serving recorder: a commit takes the lock,
//! which a reader holds for one bounded clone, so no span is lost to
//! contention.

use crate::recorder::splitmix64;
use crate::{Sampler, TraceSettings};
use ff_metrics::Counter;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// One shard's timeline within a [`ClusterSpan`].
///
/// `dispatched_ns`/`completed_ns` are coordinator-clock offsets from step
/// start; `decoded_ns`/`computed_ns`/`encoded_ns` are worker-clock offsets
/// from the moment the worker received the task bytes (zero only for
/// shards the coordinator computed locally).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardSpan {
    /// Index of the shard within the step's task list.
    pub shard_index: u64,
    /// Worker that produced the gradients, `None` when the coordinator
    /// recomputed the shard locally (never dispatched, or owner died).
    pub worker_id: Option<u64>,
    /// When the task was written to the worker's socket (coordinator
    /// clock); zero for shards that were never dispatched.
    pub dispatched_ns: u64,
    /// When the gradients became available to the reducer (coordinator
    /// clock) — result received for remote shards, recompute finished for
    /// local ones.
    pub completed_ns: u64,
    /// Worker-side: task bytes decoded (worker clock).
    pub decoded_ns: u64,
    /// Worker-side: shard gradients computed (worker clock).
    pub computed_ns: u64,
    /// Worker-side: result frame encoded, ready to write (worker clock).
    pub encoded_ns: u64,
}

impl ShardSpan {
    /// `true` when the worker-clock stamps form a non-decreasing sequence
    /// and the coordinator saw dispatch before completion.
    pub fn is_monotonic(&self) -> bool {
        self.dispatched_ns <= self.completed_ns
            && self.decoded_ns <= self.computed_ns
            && self.computed_ns <= self.encoded_ns
    }

    /// `true` when a remote worker stamped all three of its offsets.
    pub fn has_worker_stamps(&self) -> bool {
        self.decoded_ns > 0 && self.computed_ns > 0 && self.encoded_ns > 0
    }
}

/// One training step's full timeline across the cluster.
///
/// All `*_done_ns` fields are coordinator-clock offsets from step start,
/// stamped in phase order; [`ClusterSpan::is_monotonic`] asserts the
/// ordering, [`ClusterSpan::is_complete`] that nothing was skipped.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClusterSpan {
    /// The global step number the span covers.
    pub step: u64,
    /// Deterministic nonzero sampling id (`0` never occurs in a committed
    /// span — unsampled steps produce no span at all).
    pub trace_id: u64,
    /// Batch prepared and quantized, shard tasks built.
    pub prepare_done_ns: u64,
    /// `ParamSync` encoded and written to every live worker.
    pub sync_done_ns: u64,
    /// Every dispatchable shard task written to its worker.
    pub dispatch_done_ns: u64,
    /// All remote results received (or their owners declared dead) — the
    /// wire-wait phase ends here.
    pub collect_done_ns: u64,
    /// Gradients reduced in fixed shard order, including any local
    /// recompute of undelivered shards.
    pub reduce_done_ns: u64,
    /// Optimizer update applied; the step is over.
    pub apply_done_ns: u64,
    /// Per-shard timelines, indexed by shard.
    pub shards: Vec<ShardSpan>,
}

impl ClusterSpan {
    /// Number of shards whose gradients came over the wire.
    pub fn remote_count(&self) -> usize {
        self.shards.iter().filter(|s| s.worker_id.is_some()).count()
    }

    /// Number of shards the coordinator computed locally.
    pub fn local_count(&self) -> usize {
        self.shards.len() - self.remote_count()
    }

    /// `true` when the coordinator phases are in non-decreasing order and
    /// every shard's own timeline is monotonic and finishes by the end of
    /// the reduce phase.
    pub fn is_monotonic(&self) -> bool {
        let phases = [
            self.prepare_done_ns,
            self.sync_done_ns,
            self.dispatch_done_ns,
            self.collect_done_ns,
            self.reduce_done_ns,
            self.apply_done_ns,
        ];
        phases.windows(2).all(|w| w[0] <= w[1])
            && self
                .shards
                .iter()
                .all(|s| s.is_monotonic() && s.completed_ns <= self.reduce_done_ns)
    }

    /// `true` when every coordinator phase was stamped and every shard
    /// reached completion — no phase skipped, no shard lost.
    pub fn is_complete(&self) -> bool {
        self.trace_id != 0
            && self.prepare_done_ns > 0
            && self.sync_done_ns > 0
            && self.dispatch_done_ns > 0
            && self.collect_done_ns > 0
            && self.reduce_done_ns > 0
            && self.apply_done_ns > 0
            && !self.shards.is_empty()
            && self.shards.iter().all(|s| s.completed_ns > 0)
    }

    /// `true` when every remote shard carries all three worker-side stamps.
    pub fn has_worker_stamps(&self) -> bool {
        self.shards
            .iter()
            .filter(|s| s.worker_id.is_some())
            .all(ShardSpan::has_worker_stamps)
    }
}

struct ClusterInner {
    settings: TraceSettings,
    sampler: Sampler,
    ring: Mutex<VecDeque<ClusterSpan>>,
    dropped: Counter,
}

/// The bounded ring of committed [`ClusterSpan`]s.
///
/// Cheap to clone (an [`Arc`]); all clones share one ring. A reader
/// dumping the ring over the wire holds its lock for one bounded clone,
/// so the trainer's commit waits at most that long and is never lost.
#[derive(Clone)]
pub struct ClusterFlightRecorder {
    inner: Arc<ClusterInner>,
}

impl std::fmt::Debug for ClusterFlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterFlightRecorder")
            .field("settings", &self.inner.settings)
            .field("len", &self.len())
            .finish()
    }
}

impl ClusterFlightRecorder {
    /// Creates a recorder with the given settings.
    pub fn new(settings: TraceSettings) -> Self {
        ClusterFlightRecorder {
            inner: Arc::new(ClusterInner {
                sampler: Sampler::new(&settings),
                settings,
                ring: Mutex::new(VecDeque::new()),
                dropped: Counter::new(),
            }),
        }
    }

    /// The settings the recorder was built with.
    pub fn settings(&self) -> TraceSettings {
        self.inner.settings
    }

    /// The sampling decision for `step`, folded into the id that rides the
    /// wire: `0` when the step is not traced, otherwise a deterministic
    /// nonzero id (`splitmix64(seed ^ step) | 1`). With
    /// `sample_per_sec == u32::MAX` the sequence is a pure function of
    /// `(seed, step)` — replayable in tests.
    pub fn trace_id(&self, step: u64) -> u64 {
        if !self.inner.settings.enabled || !self.inner.sampler.admit(step) {
            return 0;
        }
        splitmix64(self.inner.settings.seed ^ step) | 1
    }

    /// Commits a finished span into the ring, evicting oldest-first. A
    /// zero-capacity ring discards the span and counts it in
    /// [`ClusterFlightRecorder::dropped`].
    pub fn commit(&self, span: ClusterSpan) {
        if self.inner.settings.capacity == 0 {
            self.inner.dropped.inc();
            return;
        }
        let mut ring = self.lock_ring();
        while ring.len() >= self.inner.settings.capacity {
            ring.pop_front();
        }
        ring.push_back(span);
    }

    /// The most recent `max` committed spans in commit order; `0` returns
    /// everything in the ring.
    pub fn recent(&self, max: usize) -> Vec<ClusterSpan> {
        let ring = self.lock_ring();
        let take = if max == 0 {
            ring.len()
        } else {
            max.min(ring.len())
        };
        ring.iter().skip(ring.len() - take).cloned().collect()
    }

    /// Number of committed spans currently in the ring.
    pub fn len(&self) -> usize {
        self.lock_ring().len()
    }

    /// `true` when the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.lock_ring().is_empty()
    }

    /// The configured ring capacity.
    pub fn capacity(&self) -> usize {
        self.inner.settings.capacity
    }

    /// Spans discarded by a zero-capacity ring.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.get()
    }

    /// The shared counter behind [`ClusterFlightRecorder::dropped`], for
    /// registration in a [`crate::MetricsRegistry`].
    pub fn dropped_counter(&self) -> Counter {
        self.inner.dropped.clone()
    }

    fn lock_ring(&self) -> std::sync::MutexGuard<'_, VecDeque<ClusterSpan>> {
        self.inner
            .ring
            .lock()
            .expect("cluster recorder ring lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capture_all() -> TraceSettings {
        TraceSettings {
            sample_per_sec: u32::MAX,
            ..TraceSettings::default()
        }
    }

    fn sample_span(step: u64, trace_id: u64) -> ClusterSpan {
        ClusterSpan {
            step,
            trace_id,
            prepare_done_ns: 10,
            sync_done_ns: 20,
            dispatch_done_ns: 30,
            collect_done_ns: 50,
            reduce_done_ns: 60,
            apply_done_ns: 70,
            shards: vec![
                ShardSpan {
                    shard_index: 0,
                    worker_id: Some(0),
                    dispatched_ns: 25,
                    completed_ns: 45,
                    decoded_ns: 3,
                    computed_ns: 12,
                    encoded_ns: 14,
                },
                ShardSpan {
                    shard_index: 1,
                    worker_id: None,
                    dispatched_ns: 0,
                    completed_ns: 58,
                    decoded_ns: 0,
                    computed_ns: 0,
                    encoded_ns: 0,
                },
            ],
        }
    }

    #[test]
    fn disabled_recorder_never_samples() {
        let recorder = ClusterFlightRecorder::new(TraceSettings::disabled());
        for step in 0..100 {
            assert_eq!(recorder.trace_id(step), 0);
        }
        let off = ClusterFlightRecorder::new(TraceSettings {
            sample_per_sec: 0,
            ..TraceSettings::default()
        });
        assert_eq!(off.trace_id(7), 0);
    }

    #[test]
    fn trace_ids_are_deterministic_and_nonzero() {
        let settings = TraceSettings {
            seed: 0xFEED,
            ..capture_all()
        };
        let a = ClusterFlightRecorder::new(settings);
        let b = ClusterFlightRecorder::new(settings);
        for step in 0..50 {
            let id = a.trace_id(step);
            assert_ne!(id, 0, "sampled steps always get a nonzero id");
            assert_eq!(id, b.trace_id(step), "same seed, same ids");
        }
        let other_seed = ClusterFlightRecorder::new(TraceSettings {
            seed: 0xBEEF,
            ..capture_all()
        });
        assert_ne!(other_seed.trace_id(0), a.trace_id(0));
    }

    #[test]
    fn stride_thins_steps_deterministically() {
        let recorder = ClusterFlightRecorder::new(TraceSettings {
            sample_stride: 4,
            ..capture_all()
        });
        let sampled: Vec<u64> = (0..200).filter(|&s| recorder.trace_id(s) != 0).collect();
        assert!(!sampled.is_empty() && sampled.len() < 200, "stride thins");
        let sampler = Sampler::new(&recorder.settings());
        for step in 0..200u64 {
            assert_eq!(sampled.contains(&step), sampler.stride_admits(step));
        }
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let recorder = ClusterFlightRecorder::new(TraceSettings {
            capacity: 3,
            ..capture_all()
        });
        for step in 0..8u64 {
            recorder.commit(sample_span(step, recorder.trace_id(step)));
        }
        let recent = recorder.recent(0);
        assert_eq!(recent.len(), 3);
        let steps: Vec<u64> = recent.iter().map(|s| s.step).collect();
        assert_eq!(steps, [5, 6, 7]);
        assert_eq!(recorder.recent(2)[0].step, 6);
        assert_eq!(recorder.dropped(), 0);
    }

    #[test]
    fn commit_survives_a_reader_holding_the_ring() {
        let recorder = ClusterFlightRecorder::new(capture_all());
        let guard = recorder.inner.ring.lock().unwrap();
        // The commit waits out the reader instead of dropping the span.
        let committer = {
            let recorder = recorder.clone();
            std::thread::spawn(move || recorder.commit(sample_span(0, 1)))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(guard.is_empty(), "nothing commits under a held reader");
        drop(guard);
        committer.join().unwrap();
        assert_eq!(recorder.dropped(), 0);
        assert_eq!(recorder.len(), 1);
    }

    #[test]
    fn monotonic_and_complete_helpers() {
        let span = sample_span(3, 9);
        assert!(span.is_monotonic());
        assert!(span.is_complete());
        assert!(span.has_worker_stamps());
        assert_eq!(span.remote_count(), 1);
        assert_eq!(span.local_count(), 1);

        let mut regressed = span.clone();
        regressed.collect_done_ns = regressed.dispatch_done_ns - 1;
        assert!(!regressed.is_monotonic());

        let mut late_shard = span.clone();
        late_shard.shards[0].completed_ns = late_shard.reduce_done_ns + 1;
        assert!(!late_shard.is_monotonic());

        let mut skipped = span.clone();
        skipped.sync_done_ns = 0;
        assert!(!skipped.is_complete());

        let mut unstamped = span;
        unstamped.shards[0].decoded_ns = 0;
        assert!(!unstamped.has_worker_stamps());
    }
}
