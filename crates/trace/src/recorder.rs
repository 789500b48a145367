//! The bounded-memory flight recorder and its deterministic sampler.
//!
//! The recorder is the only place traces are stored: a fixed-capacity ring
//! of committed [`RequestTrace`]s, evicting oldest-first, plus the seeded
//! sampling decision that picks which requests get a trace at all. Memory
//! is bounded by `capacity × sizeof(RequestTrace)` regardless of load, and
//! with the per-second bucket bypassed (`sample_per_sec == u32::MAX`) the
//! decision sequence is a pure function of `(seed, sequence number)` —
//! replayable in tests.

use crate::trace::{TraceCell, TraceHandle, TraceSettings};
use crate::RequestTrace;
use ff_metrics::Counter;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// SplitMix64: a tiny, statistically solid mixer — one multiply-xor-shift
/// chain per decision, no state beyond the input. Shared with the cluster
/// recorder, which derives per-step trace ids from the same mixer.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded, deterministic sampling decision.
///
/// Two independent filters, both of which must pass:
///
/// 1. **Stride** (deterministic): sample iff
///    `splitmix64(seed ^ seq) % stride == 0` — a pseudo-random but fully
///    replayable 1-in-`stride` thinning keyed by the request's sequence
///    number.
/// 2. **Budget** (wall-clock): a token bucket of `sample_per_sec` tokens
///    refilled each second, so a traffic spike cannot flood the ring with
///    near-identical traces. `u32::MAX` bypasses the bucket entirely,
///    making the whole decision deterministic.
#[derive(Debug)]
pub struct Sampler {
    per_sec: u32,
    stride: u64,
    seed: u64,
    /// `(window start, tokens spent in window)` — touched only after the
    /// stride filter passes, so the common non-sampled path is lock-free.
    bucket: Mutex<(Instant, u32)>,
}

impl Sampler {
    /// Builds the sampler for `settings`.
    pub fn new(settings: &TraceSettings) -> Self {
        Sampler {
            per_sec: settings.sample_per_sec,
            stride: settings.sample_stride.max(1),
            seed: settings.seed,
            bucket: Mutex::new((Instant::now(), 0)),
        }
    }

    /// The deterministic part of the decision alone — what tests replay.
    pub fn stride_admits(&self, seq: u64) -> bool {
        self.stride <= 1 || splitmix64(self.seed ^ seq).is_multiple_of(self.stride)
    }

    /// Full sampling decision for sequence number `seq`.
    pub fn admit(&self, seq: u64) -> bool {
        if self.per_sec == 0 || !self.stride_admits(seq) {
            return false;
        }
        if self.per_sec == u32::MAX {
            return true;
        }
        let mut bucket = self.bucket.lock().expect("sampler bucket lock poisoned");
        let (window_start, spent) = &mut *bucket;
        if window_start.elapsed().as_secs() >= 1 {
            *window_start = Instant::now();
            *spent = 0;
        }
        if *spent < self.per_sec {
            *spent += 1;
            true
        } else {
            false
        }
    }
}

pub(crate) struct RecorderInner {
    pub(crate) settings: TraceSettings,
    ring: Mutex<VecDeque<RequestTrace>>,
    seq: AtomicU64,
    /// Traces begun but not yet committed — chaos tests assert this drains
    /// to zero, proving killed connections don't leak cells.
    pub(crate) live: AtomicU64,
    dropped: Counter,
    sampler: Sampler,
}

impl RecorderInner {
    /// Commits a finished trace into the ring. Takes the lock: a reader
    /// holds it for one bounded clone of the ring, so a commit waits at
    /// most that long and is never lost to contention — only a
    /// zero-capacity ring drops (and counts) commits.
    pub(crate) fn commit(&self, trace: RequestTrace) {
        if self.settings.capacity == 0 {
            self.dropped.inc();
            return;
        }
        let mut ring = self.ring.lock().expect("recorder ring lock poisoned");
        while ring.len() >= self.settings.capacity {
            ring.pop_front();
        }
        ring.push_back(trace);
    }
}

/// The fixed-capacity, concurrent ring of committed request traces.
///
/// Cheap to clone (an [`Arc`]); all clones share one ring. Readers hold
/// the ring's lock for one bounded clone, so a committing writer waits at
/// most that long and no commit is lost. See the [crate docs](crate) for
/// the begin → stamp → drop lifecycle.
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<RecorderInner>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("settings", &self.inner.settings)
            .field("len", &self.len())
            .field("live", &self.live())
            .finish()
    }
}

impl FlightRecorder {
    /// Creates a recorder with the given settings.
    pub fn new(settings: TraceSettings) -> Self {
        FlightRecorder {
            inner: Arc::new(RecorderInner {
                sampler: Sampler::new(&settings),
                settings,
                ring: Mutex::new(VecDeque::new()),
                seq: AtomicU64::new(0),
                live: AtomicU64::new(0),
                dropped: Counter::new(),
            }),
        }
    }

    /// The settings the recorder was built with.
    pub fn settings(&self) -> TraceSettings {
        self.inner.settings
    }

    /// Starts a trace for a new request against `model_id`, stamping
    /// [`crate::Stage::Recv`] implicitly at time zero.
    ///
    /// Returns `None` — costing one atomic increment and no allocation —
    /// when tracing is disabled, or when the request is not sampled and no
    /// slow threshold is armed (nothing could ever retain the trace).
    pub fn begin(&self, model_id: u16) -> Option<TraceHandle> {
        if !self.inner.settings.enabled {
            return None;
        }
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let sampled = self.inner.sampler.admit(seq);
        if !sampled && self.inner.settings.slow_threshold.is_none() {
            return None;
        }
        self.inner.live.fetch_add(1, Ordering::AcqRel);
        let cell = TraceCell::new(seq, model_id, sampled, Arc::clone(&self.inner));
        let handle = TraceHandle {
            cell: Arc::new(cell),
        };
        handle.stamp_at(crate::Stage::Recv, handle.cell.start);
        Some(handle)
    }

    /// The most recent `max` committed traces in commit (chronological)
    /// order; `0` returns everything in the ring.
    pub fn recent(&self, max: usize) -> Vec<RequestTrace> {
        let ring = self.lock_ring();
        let take = if max == 0 {
            ring.len()
        } else {
            max.min(ring.len())
        };
        ring.iter().skip(ring.len() - take).cloned().collect()
    }

    /// Number of committed traces currently in the ring.
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

    /// Traces begun but not yet committed. Drains to zero once every
    /// in-flight request's handles drop — the chaos suite's leak check.
    pub fn live(&self) -> u64 {
        self.inner.live.load(Ordering::Acquire)
    }

    /// Commits discarded by a zero-capacity ring.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.get()
    }

    /// The shared counter behind [`FlightRecorder::dropped`], for
    /// registration in a [`crate::MetricsRegistry`].
    pub fn dropped_counter(&self) -> Counter {
        self.inner.dropped.clone()
    }

    /// Total traces begun (sampled or not) — the sequence-number
    /// high-water mark.
    pub fn begun(&self) -> u64 {
        self.inner.seq.load(Ordering::Relaxed)
    }

    fn lock_ring(&self) -> std::sync::MutexGuard<'_, VecDeque<RequestTrace>> {
        self.inner.ring.lock().expect("recorder ring lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Stage;
    use std::time::Duration;

    fn deterministic(stride: u64, seed: u64) -> TraceSettings {
        TraceSettings {
            sample_per_sec: u32::MAX,
            sample_stride: stride,
            seed,
            ..TraceSettings::default()
        }
    }

    #[test]
    fn disabled_recorder_hands_out_nothing() {
        let recorder = FlightRecorder::new(TraceSettings::disabled());
        assert!(recorder.begin(0).is_none());
        assert_eq!(recorder.live(), 0);
        assert_eq!(recorder.begun(), 0);
    }

    #[test]
    fn sampling_off_without_slow_threshold_traces_nothing() {
        let recorder = FlightRecorder::new(TraceSettings {
            sample_per_sec: 0,
            ..TraceSettings::default()
        });
        assert!(recorder.begin(0).is_none());
        // Sequence numbers still advance so a later re-enable stays aligned.
        assert_eq!(recorder.begun(), 1);
    }

    #[test]
    fn slow_threshold_retains_unsampled_requests() {
        let recorder = FlightRecorder::new(TraceSettings {
            sample_per_sec: 0,
            slow_threshold: Some(Duration::from_millis(5)),
            ..TraceSettings::default()
        });
        let trace = recorder.begin(2).expect("slow threshold arms tracing");
        assert!(!trace.sampled());
        std::thread::sleep(Duration::from_millis(10));
        drop(trace);
        let committed = recorder.recent(0);
        assert_eq!(committed.len(), 1);
        assert!(committed[0].slow && !committed[0].sampled);

        // A fast request under the same settings is discarded at commit.
        let trace = recorder.begin(2).expect("armed");
        drop(trace);
        assert_eq!(recorder.len(), 1);
        assert_eq!(recorder.live(), 0);
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let recorder = FlightRecorder::new(TraceSettings {
            capacity: 4,
            ..deterministic(1, 0)
        });
        for model in 0..10u16 {
            let trace = recorder.begin(model).expect("sampled");
            trace.stamp(Stage::ReplyWritten);
            drop(trace);
        }
        let recent = recorder.recent(0);
        assert_eq!(recent.len(), 4);
        let seqs: Vec<u64> = recent.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, [6, 7, 8, 9], "oldest evicted, order preserved");
        assert_eq!(recorder.recent(2).len(), 2);
        assert_eq!(recorder.recent(2)[0].seq, 8);
        assert_eq!(recorder.recent(100).len(), 4);
    }

    #[test]
    fn stride_sampling_is_deterministic_from_the_seed() {
        let settings = deterministic(4, 0xFEED);
        let a = FlightRecorder::new(settings);
        let b = FlightRecorder::new(settings);
        let run = |recorder: &FlightRecorder| -> Vec<u64> {
            let mut kept = Vec::new();
            for model in 0..200u16 {
                if let Some(trace) = recorder.begin(model) {
                    kept.push(trace.seq());
                }
            }
            kept
        };
        let kept_a = run(&a);
        let kept_b = run(&b);
        assert_eq!(kept_a, kept_b, "same seed, same decisions");
        assert!(!kept_a.is_empty() && kept_a.len() < 200, "stride thins");
        // A different seed picks a different subset.
        let c = FlightRecorder::new(deterministic(4, 0xBEEF));
        assert_ne!(run(&c), kept_a);
        // The replayable decision matches the public stride predicate.
        let sampler = Sampler::new(&settings);
        for seq in 0..200u64 {
            assert_eq!(kept_a.contains(&seq), sampler.stride_admits(seq));
        }
    }

    #[test]
    fn token_bucket_caps_samples_per_window() {
        let recorder = FlightRecorder::new(TraceSettings {
            sample_per_sec: 3,
            ..TraceSettings::default()
        });
        let sampled = (0..50).filter(|_| recorder.begin(0).is_some()).count();
        assert_eq!(sampled, 3, "bucket admits exactly per_sec in one window");
    }

    #[test]
    fn concurrent_writers_never_block_or_tear() {
        let recorder = FlightRecorder::new(TraceSettings {
            capacity: 64,
            ..deterministic(1, 0)
        });
        std::thread::scope(|scope| {
            for thread in 0..8u16 {
                let recorder = recorder.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        let trace = recorder.begin(thread).expect("sampled");
                        trace.stamp(Stage::Admit);
                        trace.stamp(Stage::Enqueue);
                        trace.stamp(Stage::WaveStart);
                        trace.stamp(Stage::GemmDone);
                        trace.stamp(Stage::ReplyWritten);
                    }
                });
            }
        });
        assert_eq!(recorder.live(), 0, "every begun trace committed");
        let committed = 800 - recorder.dropped();
        assert_eq!(
            recorder.len() as u64,
            committed.min(64),
            "ring holds the newest committed traces up to capacity"
        );
        // No torn entries: every committed trace is internally consistent.
        for trace in recorder.recent(0) {
            assert!(trace.completed, "all stages were stamped before drop");
            assert!(trace.is_monotonic());
        }
        assert_eq!(recorder.begun(), 800);
    }

    #[test]
    fn commit_survives_a_reader_holding_the_ring() {
        let recorder = FlightRecorder::new(deterministic(1, 0));
        let guard = recorder.inner.ring.lock().unwrap();
        let trace = recorder.begin(0).expect("sampled");
        // The commit waits out the reader instead of dropping the trace.
        let committer = std::thread::spawn(move || drop(trace));
        std::thread::sleep(Duration::from_millis(20));
        assert!(guard.is_empty(), "nothing commits under a held reader");
        drop(guard);
        committer.join().unwrap();
        assert_eq!(recorder.dropped(), 0);
        assert_eq!(recorder.len(), 1);
        assert_eq!(recorder.live(), 0);
    }
}
