//! The versioned `FF8P` wire protocol.
//!
//! `FF8P` is a member of the workspace's `FF8*` artifact family (with the
//! `FF8S` frozen-model and `FF8C` checkpoint formats and the `FF8D`
//! cluster protocol) and reuses the same [`ff_codec`] conventions: 4-byte
//! magic, little-endian `u16` version, flags word, length-prefixed records,
//! panic-free checked reads. It shares the [`ff_codec::wire`] core with
//! `FF8D`: the length-prefixed envelope, the `(value, tag, name)` code
//! table its frame kinds and error codes are declared in, and the
//! exhaustive canonical-decoding sweep its tests run.
//!
//! # Framing
//!
//! On a TCP stream, every message is one **frame**:
//!
//! ```text
//! frame_len        u32       — bytes that follow (the shared envelope,
//!                              bounded by the peer's max-frame-size limit)
//! frame            frame_len × u8 — a complete FF8P artifact:
//!   magic          4 × u8    = "FF8P"
//!   version        u16       = 3
//!   flags          u16       = model id
//!   record "auth":
//!     token        string (u32 length + UTF-8, ≤ 128 bytes; empty = none)
//!   record "body":
//!     kind         u8        — see below
//!     kind-specific payload
//! ```
//!
//! # Frame kinds
//!
//! Requests (client → server):
//!
//! ```text
//! 1 Predict       id u64, deadline_micros u32,
//!                 count u32, features count × f32
//! 2 PredictBatch  id u64, deadline_micros u32,
//!                 rows u32, cols u32, data rows·cols × f32
//! 3 Stats         id u64
//! 4 Health        id u64
//! 5 Shutdown      id u64
//! 6 TraceDump     id u64, max u32 (0 = everything in the ring)
//! 7 MetricsDump   id u64
//! ```
//!
//! Replies (server → client) echo the request's `id`:
//!
//! ```text
//! 129 Labels       id u64, count u32, labels count × u32
//! 130 StatsReply   id u64, requests u64, batches u64, max_batch u64,
//!                  mean_batch f64, latency: count u64 +
//!                  mean/p50/p95/p99/max as u64 nanoseconds,
//!                  shed_expired u64, rejected_overload u64,
//!                  rejected_deadline u64,
//!                  model count u32, then per model: id u32,
//!                  name string (≤ 64 bytes), version u64, swaps u64,
//!                  requests u64, shed_expired u64, rejected_overload u64,
//!                  rejected_deadline u64, latency count u64 +
//!                  mean/p50/p95/p99/max as u64 nanoseconds,
//!                  4 stage blocks (queue, assembly, gemm, write),
//!                  each count u64 + mean/p50/p95/p99/max as u64
//!                  nanoseconds
//! 131 HealthReply  id u64, input_features u32, num_classes u32, mode u8,
//!                  state u8 (0 = ok, 1 = draining), model_version u64
//! 132 ShutdownAck  id u64
//! 133 Error        id u64, code u8, retry_after_millis u32,
//!                  message string (u32 length + UTF-8)
//! 134 TraceDumpReply   id u64, dropped u64, count u32, then per trace:
//!                      seq u64, model_id u32, flags u8 (bit0 sampled,
//!                      bit1 slow, bit2 completed, bits 3–7 zero),
//!                      deadline_micros i64
//!                      (i64::MIN = none), end_to_end_ns u64, 6 stage
//!                      stamps as u64 ns since recv (u64::MAX = missing)
//! 135 MetricsDumpReply id u64, text string (u32 length + UTF-8,
//!                      ≤ 64 KiB — the stable metrics exposition format)
//! ```
//!
//! # One live version
//!
//! Peers are built from one commit, so there is one layout: every frame is
//! written at [`PROTOCOL_VERSION`], and a frame declaring any other version
//! is refused with the typed [`ff_codec::CodecError::UnsupportedVersion`] —
//! a server answers it with one `Protocol` error frame and closes the
//! stream. (The on-disk `FF8C` / `FF8S` versions are a separate, still
//! ranged contract: files outlive builds, wire peers do not.)
//! `deadline_micros` is the request's *remaining* latency budget at send
//! time (0 = unbounded) — a relative budget survives clock skew between
//! peers, unlike an absolute timestamp.
//!
//! # Multi-model addressing and auth
//!
//! The header **flags word is the model id** and a header-level **auth
//! record** carries an optional bearer token, both available on *every*
//! frame kind through [`FrameMeta`]. [`FrameMeta::default`] (model id 0 —
//! the registry's default model — and no token) is what callers that do not
//! care send. Replies echo the request's model id; servers never echo the
//! token back.
//!
//! Decoding is hardened exactly like the sibling loaders: every declared
//! count is bounded by the remaining payload before allocation
//! ([`ff_codec::Reader::ensure_fits`]), and unknown kinds/codes, reserved
//! bits and trailing bytes are typed [`NetError`]s. Decoding is also
//! **canonical**: a frame that decodes re-encodes to exactly its bytes.
//! `tests/protocol.rs` holds every sample frame to both properties with
//! [`ff_codec::wire::sweep`] — every prefix, and every byte offset under
//! every non-zero XOR mask, under default and populated [`FrameMeta`].

use crate::error::CODES;
use crate::{ErrorCode, NetError, Result};
use ff_codec::wire::{self, CodeTable};
use ff_codec::{Reader, Writer};
use ff_metrics::LatencySummary;
use ff_serve::{RequestTrace, StageSummaries};
use std::io::Read;
use std::time::Duration;

/// The four magic bytes every `FF8P` frame starts with.
pub const MAGIC: [u8; 4] = *b"FF8P";

/// The one protocol version this build speaks: written on every frame,
/// and the only one accepted.
pub const PROTOCOL_VERSION: u16 = 3;

/// Default upper bound on one frame's length (16 MiB — a 5000-row batch of
/// 784 features is ~15 MiB; anything larger should be split).
pub const DEFAULT_MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

// One row per frame kind: its wire tag (high bit set on replies) and its
// `net.wire.<kind>.*` name. The row position is `Frame::kind_index` — new
// kinds append.
ff_codec::wire_kinds! {
    Frame => FrameKind in KINDS {
        Predict = 1, "predict";
        PredictBatch = 2, "predict_batch";
        Stats = 3, "stats";
        Health = 4, "health";
        Shutdown = 5, "shutdown";
        TraceDump = 6, "trace_dump";
        MetricsDump = 7, "metrics_dump";
        Labels = 129, "labels";
        StatsReply = 130, "stats_reply";
        HealthReply = 131, "health_reply";
        ShutdownAck = 132, "shutdown_ack";
        Error = 133, "error";
        TraceDumpReply = 134, "trace_dump_reply";
        MetricsDumpReply = 135, "metrics_dump_reply";
    }
}

/// How many distinct frame kinds [`Frame::kind_index`] enumerates.
pub const FRAME_KIND_COUNT: usize = KINDS.0.len();

/// Bound on the length of an error reply's message string.
const MAX_ERROR_MESSAGE_LEN: usize = 4096;

/// Bound on the length of a metrics-dump reply's exposition text (64 KiB
/// covers thousands of metric lines; encoders truncate on a line feed if a
/// registry somehow exceeds it).
const MAX_METRICS_TEXT_LEN: usize = 64 * 1024;

/// Fixed wire size of one trace entry in a [`Frame::TraceDumpReply`]:
/// seq(8) + model_id(4) + flags(1) + deadline(8) + end_to_end(8) + 6
/// stamps(48).
const TRACE_ENTRY_BYTES: usize = 77;

/// Sentinel meaning "stage never reached" in a trace entry's stamp slots.
const TRACE_STAMP_MISSING: u64 = u64::MAX;

/// Sentinel meaning "no deadline" in a trace entry's deadline slot.
const TRACE_NO_DEADLINE: i64 = i64::MIN;

/// Bound on the byte length of an auth token (generous for any
/// reasonable shared secret, small enough that the fixed header cost stays
/// negligible against feature payloads).
pub const MAX_AUTH_TOKEN_LEN: usize = 128;

/// Bound on the byte length of a model name in a stats reply.
const MAX_MODEL_NAME_LEN: usize = 64;

/// Per-frame header metadata: which registry model the frame addresses
/// (carried in the header flags word) and an optional bearer auth token
/// (carried in the header-level auth record).
///
/// [`FrameMeta::default`] — model id 0, no token — is what writers emit
/// when the caller does not care: the frame addresses the server's default
/// model.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FrameMeta {
    /// The registry model id this frame addresses (requests) or answers
    /// for (replies). 0 is the registry's default model.
    pub model_id: u16,
    /// Bearer auth token, at most [`MAX_AUTH_TOKEN_LEN`] bytes. Replies
    /// never carry one — a server must not echo secrets.
    pub token: Option<String>,
}

impl FrameMeta {
    /// Meta addressing `model_id` with no token.
    pub fn for_model(model_id: u16) -> Self {
        FrameMeta {
            model_id,
            token: None,
        }
    }
}

/// Which classification mode the remote server runs, as reported by
/// [`Frame::HealthReply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireMode {
    /// Forward chain + argmax of the final logits.
    Logits,
    /// FF-native per-label goodness sweep.
    Goodness,
}

/// Wire tags of [`WireMode`].
const MODES: CodeTable<WireMode> = CodeTable(&[
    (WireMode::Logits, 0, "logits"),
    (WireMode::Goodness, 1, "goodness"),
]);

/// The remote server's lifecycle phase, as reported by
/// [`Frame::HealthReply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireHealthState {
    /// Accepting and serving requests normally.
    Ok,
    /// Graceful shutdown in progress: in-flight requests finish, new
    /// predictions are refused with [`ErrorCode::Draining`].
    Draining,
}

/// Wire tags of [`WireHealthState`].
const HEALTH_STATES: CodeTable<WireHealthState> = CodeTable(&[
    (WireHealthState::Ok, 0, "ok"),
    (WireHealthState::Draining, 1, "draining"),
]);

/// One registry model's serving statistics as carried by a
/// [`Frame::StatsReply`] — the wire form of [`ff_serve::ModelStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireModelStats {
    /// The registry id requests address this model by.
    pub id: u16,
    /// Human-readable entry name (at most 64 bytes on the wire; longer
    /// names are truncated on a UTF-8 boundary when encoding).
    pub name: String,
    /// Current model version (1 at registration, +1 per hot-swap).
    pub version: u64,
    /// Successful hot-swaps performed on this entry.
    pub swaps: u64,
    /// Requests this model answered successfully.
    pub requests: u64,
    /// Requests shed in the batch queue on an expired deadline.
    pub shed_expired: u64,
    /// Requests refused admission under overload.
    pub rejected_overload: u64,
    /// Requests refused on arrival with an already-expired deadline.
    pub rejected_deadline: u64,
    /// Queue-to-reply latency distribution (served requests only).
    pub latency: LatencySummary,
}

impl From<ff_serve::ModelStats> for WireModelStats {
    fn from(stats: ff_serve::ModelStats) -> Self {
        WireModelStats {
            id: stats.id,
            name: stats.name,
            version: stats.version,
            swaps: stats.swaps,
            requests: stats.requests,
            shed_expired: stats.shed_expired,
            rejected_overload: stats.rejected_overload,
            rejected_deadline: stats.rejected_deadline,
            latency: stats.latency,
        }
    }
}

/// Aggregate serving statistics as carried by [`Frame::StatsReply`] — the
/// wire form of [`ff_serve::ServerStats`], with the latency summary
/// flattened to nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct WireStats {
    /// Requests answered successfully.
    pub requests: u64,
    /// Batches executed.
    pub batches: u64,
    /// Largest batch observed.
    pub max_batch: u64,
    /// Mean requests per batch.
    pub mean_batch: f64,
    /// Queue-to-reply latency distribution.
    pub latency: LatencySummary,
    /// Requests whose deadline expired in the batch queue and were shed
    /// before the GEMM.
    pub shed_expired: u64,
    /// Requests refused at admission because the queue was full.
    pub rejected_overload: u64,
    /// Requests refused at admission because their deadline had already
    /// expired.
    pub rejected_deadline: u64,
    /// Per-model statistics, ascending by id.
    pub models: Vec<WireModelStats>,
    /// Always-on per-stage latency summaries — queue wait, batch assembly,
    /// GEMM, reply write.
    pub stages: StageSummaries,
}

impl From<ff_serve::ServerStats> for WireStats {
    fn from(stats: ff_serve::ServerStats) -> Self {
        WireStats {
            requests: stats.requests,
            batches: stats.batches,
            max_batch: stats.max_batch as u64,
            mean_batch: stats.mean_batch,
            latency: stats.latency,
            shed_expired: stats.shed_expired,
            rejected_overload: stats.rejected_overload,
            rejected_deadline: stats.rejected_deadline,
            models: stats.models.into_iter().map(WireModelStats::from).collect(),
            stages: stats.stages,
        }
    }
}

/// One `FF8P` message (request or reply). See the [module docs](self) for
/// the byte layout of every kind.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Classify one sample.
    Predict {
        /// Caller-chosen id echoed by the reply.
        id: u64,
        /// Remaining latency budget in microseconds at send time; 0 means
        /// unbounded.
        deadline_micros: u32,
        /// The sample's features.
        features: Vec<f32>,
    },
    /// Classify a whole row-major batch in one frame.
    PredictBatch {
        /// Caller-chosen id echoed by the reply.
        id: u64,
        /// Remaining latency budget in microseconds at send time; 0 means
        /// unbounded.
        deadline_micros: u32,
        /// Features per row (must be positive).
        cols: u32,
        /// Row-major `rows × cols` feature data.
        data: Vec<f32>,
    },
    /// Read the server's aggregate statistics.
    Stats {
        /// Caller-chosen id echoed by the reply.
        id: u64,
    },
    /// Probe the server's identity and liveness.
    Health {
        /// Caller-chosen id echoed by the reply.
        id: u64,
    },
    /// Ask the server to stop accepting connections.
    Shutdown {
        /// Caller-chosen id echoed by the reply.
        id: u64,
    },
    /// Read the server's recent per-request traces from the flight
    /// recorder. Open like [`Frame::Stats`] — traces carry timings, never
    /// payloads or secrets.
    TraceDump {
        /// Caller-chosen id echoed by the reply.
        id: u64,
        /// Most recent traces to return; 0 means everything in the ring.
        max: u32,
    },
    /// Read the server's full metrics registry in the stable text
    /// exposition format. Open like [`Frame::Stats`].
    MetricsDump {
        /// Caller-chosen id echoed by the reply.
        id: u64,
    },
    /// Reply to [`Frame::Predict`] / [`Frame::PredictBatch`]: one label per
    /// input row, in input order.
    Labels {
        /// The request's id.
        id: u64,
        /// Predicted class labels.
        labels: Vec<u32>,
    },
    /// Reply to [`Frame::Stats`].
    StatsReply {
        /// The request's id.
        id: u64,
        /// The statistics snapshot (boxed: the stage and per-model blocks
        /// make this by far the widest variant, and replies are moved
        /// through channels).
        stats: Box<WireStats>,
    },
    /// Reply to [`Frame::Health`].
    HealthReply {
        /// The request's id.
        id: u64,
        /// Features a request row must provide.
        input_features: u32,
        /// Number of classes the model scores.
        num_classes: u32,
        /// Classification mode the server runs.
        mode: WireMode,
        /// Lifecycle phase.
        state: WireHealthState,
        /// Version of the addressed model (1 at registration, bumped by
        /// every hot-swap).
        model_version: u64,
    },
    /// Reply to [`Frame::Shutdown`].
    ShutdownAck {
        /// The request's id.
        id: u64,
    },
    /// Typed error reply to any request.
    Error {
        /// The request's id (0 when the request id could not be decoded).
        id: u64,
        /// Machine-readable category.
        code: ErrorCode,
        /// Server's hint for when a retry might succeed, in milliseconds;
        /// 0 means no hint.
        retry_after_millis: u32,
        /// Human-readable detail.
        message: String,
    },
    /// Reply to [`Frame::TraceDump`].
    TraceDumpReply {
        /// The request's id.
        id: u64,
        /// Trace commits the recorder discarded (zero-capacity ring).
        dropped: u64,
        /// Recent committed traces, oldest first.
        traces: Vec<RequestTrace>,
    },
    /// Reply to [`Frame::MetricsDump`].
    MetricsDumpReply {
        /// The request's id.
        id: u64,
        /// The registry snapshot in the stable exposition format (one
        /// metric per line, sorted by name).
        text: String,
    },
}

impl Frame {
    /// The frame's correlation id.
    pub fn id(&self) -> u64 {
        match self {
            Frame::Predict { id, .. }
            | Frame::PredictBatch { id, .. }
            | Frame::Stats { id }
            | Frame::Health { id }
            | Frame::Shutdown { id }
            | Frame::TraceDump { id, .. }
            | Frame::MetricsDump { id }
            | Frame::Labels { id, .. }
            | Frame::StatsReply { id, .. }
            | Frame::HealthReply { id, .. }
            | Frame::ShutdownAck { id }
            | Frame::Error { id, .. }
            | Frame::TraceDumpReply { id, .. }
            | Frame::MetricsDumpReply { id, .. } => *id,
        }
    }

    /// `true` for the request kinds a server handles — the kinds whose
    /// wire tag has the high bit clear.
    pub fn is_request(&self) -> bool {
        KINDS.tag(self.kind()) < 0x80
    }

    /// A dense 0-based index for this frame's kind — the row into
    /// [`Frame::kind_names`] and any per-kind counter array (see
    /// [`FRAME_KIND_COUNT`]). Stable across releases: new kinds append.
    pub fn kind_index(&self) -> usize {
        KINDS.index(self.kind())
    }

    /// This kind's stable snake_case name, as used in `net.wire.<kind>.*`
    /// metric names.
    pub fn kind_name(&self) -> &'static str {
        KINDS.name(self.kind())
    }

    /// Every kind's name, indexed by [`Frame::kind_index`].
    pub fn kind_names() -> [&'static str; FRAME_KIND_COUNT] {
        std::array::from_fn(|index| KINDS.0[index].2)
    }
}

/// Truncates a string to `bound` bytes on a UTF-8 boundary, so a frame
/// this module *encodes* is always decodable by its peer.
fn bounded_str(s: &str, bound: usize) -> &str {
    if s.len() <= bound {
        return s;
    }
    let mut end = bound;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

/// [`bounded_str`] at the error-message bound [`decode_frame`] enforces.
fn bounded_error_message(message: &str) -> &str {
    bounded_str(message, MAX_ERROR_MESSAGE_LEN)
}

/// Truncates oversized metrics exposition text at the last complete line
/// within the decode bound, so a peer never receives a torn metric line.
fn bounded_metrics_text(text: &str) -> &str {
    if text.len() <= MAX_METRICS_TEXT_LEN {
        return text;
    }
    let head = bounded_str(text, MAX_METRICS_TEXT_LEN);
    match head.rfind('\n') {
        Some(end) => &head[..=end],
        None => head,
    }
}

/// Encodes a latency summary as count + five u64 nanosecond fields — the
/// layout every stats/stage block shares.
fn put_latency_summary(r: &mut ff_codec::RecordWriter, summary: &LatencySummary) {
    r.put_u64(summary.count);
    for duration in [
        summary.mean,
        summary.p50,
        summary.p95,
        summary.p99,
        summary.max,
    ] {
        r.put_u64(duration.as_nanos().min(u64::MAX as u128) as u64);
    }
}

/// Decodes the layout written by [`put_latency_summary`].
fn get_latency_summary(
    body: &mut ff_codec::Reader<'_>,
    context: &'static str,
) -> Result<LatencySummary> {
    let count = body.get_u64(context)?;
    let mut nanos = [0u64; 5];
    for slot in &mut nanos {
        *slot = body.get_u64(context)?;
    }
    Ok(LatencySummary {
        count,
        mean: Duration::from_nanos(nanos[0]),
        p50: Duration::from_nanos(nanos[1]),
        p95: Duration::from_nanos(nanos[2]),
        p99: Duration::from_nanos(nanos[3]),
        max: Duration::from_nanos(nanos[4]),
    })
}

/// [`encode_frame_meta`] with default [`FrameMeta`]: the frame addresses
/// the default model and carries no auth token (without the outer `u32`
/// length prefix — [`write_frame`] adds that).
///
/// # Panics
///
/// As for [`encode_frame_meta`].
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    encode_frame_meta(frame, &FrameMeta::default())
}

/// Serializes a frame into its `FF8P` bytes under the given header
/// metadata.
///
/// Error messages longer than the decoder's 4096-byte bound and model
/// names longer than 64 bytes are truncated (on a UTF-8 boundary) so every
/// emitted frame is decodable by the peer.
///
/// # Panics
///
/// Panics when `meta.token` exceeds [`MAX_AUTH_TOKEN_LEN`] bytes
/// (truncating a secret would send a *different* secret — a loud local
/// failure is the only safe option), or when a [`Frame::PredictBatch`]'s
/// `data` does not divide into positive `cols`-sized rows — a loud local
/// failure instead of a frame whose declared geometry silently drops the
/// ragged tail and fails with an opaque trailing-bytes error on the
/// *peer*. [`crate::Client`] validates its inputs before constructing the
/// frame.
pub fn encode_frame_meta(frame: &Frame, meta: &FrameMeta) -> Vec<u8> {
    let token = meta.token.as_deref().unwrap_or("");
    assert!(
        token.len() <= MAX_AUTH_TOKEN_LEN,
        "auth token of {} bytes exceeds the {MAX_AUTH_TOKEN_LEN}-byte limit",
        token.len()
    );
    let mut writer = Writer::with_flags(
        &MAGIC,
        PROTOCOL_VERSION,
        meta.model_id,
        frame_bytes(frame, token),
    );
    writer.record(|r| r.put_string(token));
    writer.record(|r| {
        r.put_u8(KINDS.tag(frame.kind()));
        r.put_u64(frame.id());
        encode_body(r, frame);
    });
    writer.into_vec()
}

/// The artifact size of `frame` under `token`, from its element counts, so
/// [`encode_frame_meta`] never grows its buffer for the bulk kinds.
fn frame_bytes(frame: &Frame, token: &str) -> usize {
    let payload = match frame {
        Frame::Predict { features, .. } => 20 + 4 * features.len(),
        Frame::PredictBatch { data, .. } => 24 + 4 * data.len(),
        Frame::Labels { labels, .. } => 16 + 4 * labels.len(),
        Frame::Error { message, .. } => 24 + message.len(),
        Frame::StatsReply { stats, .. } => 392 + 160 * stats.models.len(),
        Frame::TraceDumpReply { traces, .. } => 32 + TRACE_ENTRY_BYTES * traces.len(),
        Frame::MetricsDumpReply { text, .. } => 24 + text.len(),
        _ => 104,
    };
    24 + token.len() + payload
}

/// Writes a frame's kind-specific body fields (everything after the kind
/// tag and the id).
fn encode_body(r: &mut ff_codec::RecordWriter, frame: &Frame) {
    match frame {
        Frame::Predict {
            deadline_micros,
            features,
            ..
        } => {
            r.put_u32(*deadline_micros);
            r.put_u32(features.len() as u32);
            r.put_f32s(features);
        }
        Frame::PredictBatch {
            deadline_micros,
            cols,
            data,
            ..
        } => {
            assert!(
                *cols > 0 && data.len() % *cols as usize == 0,
                "PredictBatch data ({} values) must divide into positive rows of {cols}",
                data.len()
            );
            r.put_u32(*deadline_micros);
            r.put_u32((data.len() / *cols as usize) as u32);
            r.put_u32(*cols);
            r.put_f32s(data);
        }
        Frame::Labels { labels, .. } => {
            r.put_u32(labels.len() as u32);
            for &label in labels {
                r.put_u32(label);
            }
        }
        Frame::TraceDump { max, .. } => r.put_u32(*max),
        Frame::StatsReply { stats, .. } => {
            r.put_u64(stats.requests);
            r.put_u64(stats.batches);
            r.put_u64(stats.max_batch);
            r.put_f64(stats.mean_batch);
            put_latency_summary(r, &stats.latency);
            r.put_u64(stats.shed_expired);
            r.put_u64(stats.rejected_overload);
            r.put_u64(stats.rejected_deadline);
            r.put_u32(stats.models.len() as u32);
            for model in &stats.models {
                r.put_u32(u32::from(model.id));
                r.put_string(bounded_str(&model.name, MAX_MODEL_NAME_LEN));
                r.put_u64(model.version);
                r.put_u64(model.swaps);
                r.put_u64(model.requests);
                r.put_u64(model.shed_expired);
                r.put_u64(model.rejected_overload);
                r.put_u64(model.rejected_deadline);
                put_latency_summary(r, &model.latency);
            }
            for (_, stage) in stats.stages.named() {
                put_latency_summary(r, &stage);
            }
        }
        Frame::HealthReply {
            input_features,
            num_classes,
            mode,
            state,
            model_version,
            ..
        } => {
            r.put_u32(*input_features);
            r.put_u32(*num_classes);
            r.put_u8(MODES.tag(*mode));
            r.put_u8(HEALTH_STATES.tag(*state));
            r.put_u64(*model_version);
        }
        Frame::Error {
            code,
            retry_after_millis,
            message,
            ..
        } => {
            r.put_u8(CODES.tag(*code));
            r.put_u32(*retry_after_millis);
            r.put_string(bounded_error_message(message));
        }
        Frame::TraceDumpReply {
            dropped, traces, ..
        } => {
            r.put_u64(*dropped);
            r.put_u32(traces.len() as u32);
            for trace in traces {
                r.put_u64(trace.seq);
                r.put_u32(u32::from(trace.model_id));
                let mut trace_flags = 0u8;
                if trace.sampled {
                    trace_flags |= 0b001;
                }
                if trace.slow {
                    trace_flags |= 0b010;
                }
                if trace.completed {
                    trace_flags |= 0b100;
                }
                r.put_u8(trace_flags);
                let deadline = trace.deadline_remaining_micros.unwrap_or(TRACE_NO_DEADLINE);
                r.put_u64(deadline as u64);
                r.put_u64(trace.end_to_end_ns);
                for stamp in &trace.stamps {
                    r.put_u64(stamp.unwrap_or(TRACE_STAMP_MISSING));
                }
            }
        }
        Frame::MetricsDumpReply { text, .. } => r.put_string(bounded_metrics_text(text)),
        Frame::Stats { .. }
        | Frame::Health { .. }
        | Frame::Shutdown { .. }
        | Frame::MetricsDump { .. }
        | Frame::ShutdownAck { .. } => {}
    }
}

/// Deserializes the bytes produced by [`encode_frame`], discarding the
/// header metadata — for callers that do not route by model or check
/// tokens.
///
/// # Errors
///
/// Never panics: malformed input maps to [`NetError::Codec`] (header or
/// truncation problems, a version other than [`PROTOCOL_VERSION`], an
/// unknown kind or code tag) or [`NetError::Frame`] (structural
/// violations).
pub fn decode_frame(bytes: &[u8]) -> Result<Frame> {
    decode_frame_meta(bytes).map(|(frame, _)| frame)
}

/// Deserializes a frame plus its header metadata ([`FrameMeta`]).
///
/// # Errors
///
/// As for [`decode_frame`].
pub fn decode_frame_meta(bytes: &[u8]) -> Result<(Frame, FrameMeta)> {
    let (mut reader, _, model_id) =
        Reader::with_versions_flags(bytes, &MAGIC, PROTOCOL_VERSION..=PROTOCOL_VERSION)?;
    let mut auth = reader.record("auth record")?;
    let token = auth.get_string(MAX_AUTH_TOKEN_LEN, "auth token")?;
    auth.finish("auth record")?;
    let meta = FrameMeta {
        model_id,
        token: if token.is_empty() { None } else { Some(token) },
    };
    let mut body = reader.record("frame body")?;
    let kind = KINDS.read(&mut body, "frame kind")?;
    let id = body.get_u64("frame id")?;
    let frame = match kind {
        FrameKind::Predict => {
            let deadline_micros = body.get_u32("predict deadline")?;
            let count = body.get_u32("feature count")? as usize;
            if count == 0 {
                return Err(NetError::Frame {
                    message: "predict frame with zero features".to_string(),
                });
            }
            let features = body.get_f32s(count, "features")?;
            Frame::Predict {
                id,
                deadline_micros,
                features,
            }
        }
        FrameKind::PredictBatch => {
            let deadline_micros = body.get_u32("batch deadline")?;
            let rows = body.get_u32("batch rows")? as usize;
            let cols = body.get_u32("batch cols")?;
            if rows == 0 || cols == 0 {
                return Err(NetError::Frame {
                    message: format!("predict-batch frame with empty geometry [{rows}, {cols}]"),
                });
            }
            let len = rows.checked_mul(cols as usize).ok_or(NetError::Frame {
                message: format!("batch geometry [{rows}, {cols}] overflows"),
            })?;
            let data = body.get_f32s(len, "batch data")?;
            Frame::PredictBatch {
                id,
                deadline_micros,
                cols,
                data,
            }
        }
        FrameKind::Stats => Frame::Stats { id },
        FrameKind::Health => Frame::Health { id },
        FrameKind::Shutdown => Frame::Shutdown { id },
        FrameKind::Labels => {
            let count = body.get_u32("label count")? as usize;
            body.ensure_fits(count, 4, "labels")?;
            let mut labels = Vec::with_capacity(count);
            for _ in 0..count {
                labels.push(body.get_u32("labels")?);
            }
            Frame::Labels { id, labels }
        }
        FrameKind::StatsReply => {
            let requests = body.get_u64("stats requests")?;
            let batches = body.get_u64("stats batches")?;
            let max_batch = body.get_u64("stats max batch")?;
            let mean_batch = body.get_f64("stats mean batch")?;
            let latency = get_latency_summary(&mut body, "latency quantile")?;
            let shed_expired = body.get_u64("stats shed expired")?;
            let rejected_overload = body.get_u64("stats rejected overload")?;
            let rejected_deadline = body.get_u64("stats rejected deadline")?;
            let model_count = body.get_u32("model stats count")? as usize;
            // Smallest possible per-model entry: id(4) + empty name(4)
            // + 12 × u64.
            body.ensure_fits(model_count, 104, "model stats")?;
            let mut models = Vec::with_capacity(model_count);
            for _ in 0..model_count {
                let wire_id = body.get_u32("model stats id")?;
                let model_id = u16::try_from(wire_id).map_err(|_| NetError::Frame {
                    message: format!("model stats id {wire_id} exceeds u16"),
                })?;
                let name = body.get_string(MAX_MODEL_NAME_LEN, "model stats name")?;
                let model_version = body.get_u64("model stats version")?;
                let swaps = body.get_u64("model stats swaps")?;
                let model_requests = body.get_u64("model stats requests")?;
                let model_shed = body.get_u64("model stats shed expired")?;
                let model_overload = body.get_u64("model stats rejected overload")?;
                let model_deadline = body.get_u64("model stats rejected deadline")?;
                let latency = get_latency_summary(&mut body, "model latency quantile")?;
                models.push(WireModelStats {
                    id: model_id,
                    name,
                    version: model_version,
                    swaps,
                    requests: model_requests,
                    shed_expired: model_shed,
                    rejected_overload: model_overload,
                    rejected_deadline: model_deadline,
                    latency,
                });
            }
            let stages = StageSummaries {
                queue: get_latency_summary(&mut body, "stage queue")?,
                assembly: get_latency_summary(&mut body, "stage assembly")?,
                gemm: get_latency_summary(&mut body, "stage gemm")?,
                write: get_latency_summary(&mut body, "stage write")?,
            };
            Frame::StatsReply {
                id,
                stats: Box::new(WireStats {
                    requests,
                    batches,
                    max_batch,
                    mean_batch,
                    latency,
                    shed_expired,
                    rejected_overload,
                    rejected_deadline,
                    models,
                    stages,
                }),
            }
        }
        FrameKind::HealthReply => Frame::HealthReply {
            id,
            input_features: body.get_u32("health input features")?,
            num_classes: body.get_u32("health num classes")?,
            mode: MODES.read(&mut body, "serve mode")?,
            state: HEALTH_STATES.read(&mut body, "health state")?,
            model_version: body.get_u64("health model version")?,
        },
        FrameKind::TraceDump => Frame::TraceDump {
            id,
            max: body.get_u32("trace dump max")?,
        },
        FrameKind::MetricsDump => Frame::MetricsDump { id },
        FrameKind::TraceDumpReply => {
            let dropped = body.get_u64("trace dump dropped")?;
            let count = body.get_u32("trace count")? as usize;
            body.ensure_fits(count, TRACE_ENTRY_BYTES, "traces")?;
            let mut traces = Vec::with_capacity(count);
            for _ in 0..count {
                let seq = body.get_u64("trace seq")?;
                let wire_id = body.get_u32("trace model id")?;
                let model_id = u16::try_from(wire_id).map_err(|_| NetError::Frame {
                    message: format!("trace model id {wire_id} exceeds u16"),
                })?;
                let trace_flags = body.get_u8("trace flags")?;
                if trace_flags & !0b111 != 0 {
                    return Err(NetError::Frame {
                        message: format!("trace flags {trace_flags:#04x} set reserved bits"),
                    });
                }
                let deadline = body.get_u64("trace deadline")? as i64;
                let end_to_end_ns = body.get_u64("trace end-to-end")?;
                let mut stamps = [None; ff_serve::STAGE_COUNT];
                for stamp in &mut stamps {
                    let ns = body.get_u64("trace stamp")?;
                    if ns != TRACE_STAMP_MISSING {
                        *stamp = Some(ns);
                    }
                }
                traces.push(RequestTrace {
                    seq,
                    model_id,
                    sampled: trace_flags & 0b001 != 0,
                    slow: trace_flags & 0b010 != 0,
                    completed: trace_flags & 0b100 != 0,
                    end_to_end_ns,
                    deadline_remaining_micros: (deadline != TRACE_NO_DEADLINE).then_some(deadline),
                    stamps,
                });
            }
            Frame::TraceDumpReply {
                id,
                dropped,
                traces,
            }
        }
        FrameKind::MetricsDumpReply => Frame::MetricsDumpReply {
            id,
            text: body.get_string(MAX_METRICS_TEXT_LEN, "metrics text")?,
        },
        FrameKind::ShutdownAck => Frame::ShutdownAck { id },
        FrameKind::Error => {
            let code = CODES.read(&mut body, "error code")?;
            let retry_after_millis = body.get_u32("error retry hint")?;
            let message = body.get_string(MAX_ERROR_MESSAGE_LEN, "error message")?;
            Frame::Error {
                id,
                code,
                retry_after_millis,
                message,
            }
        }
    };
    body.finish("frame body")?;
    reader.finish("frame")?;
    Ok((frame, meta))
}

/// Writes one length-prefixed frame to `writer` with default
/// [`FrameMeta`] and returns the frame's full wire footprint in bytes
/// (payload plus the 4-byte length prefix — what a per-kind byte counter
/// should account).
///
/// # Errors
///
/// Returns [`NetError::FrameTooLarge`] when the encoded frame exceeds
/// `max_frame_bytes` (checked **before** anything is written, so the
/// stream stays synchronized), and socket-level [`NetError`]s otherwise.
///
/// # Panics
///
/// As for [`encode_frame_meta`] (ragged batch).
pub fn write_frame(
    writer: &mut impl std::io::Write,
    frame: &Frame,
    max_frame_bytes: usize,
) -> Result<usize> {
    write_frame_meta(writer, frame, &FrameMeta::default(), max_frame_bytes)
}

/// Writes one length-prefixed frame to `writer` with explicit header
/// metadata — the model-addressed, token-carrying form a client stamps on
/// every request. Returns the wire footprint as [`write_frame`] does.
///
/// # Errors
///
/// As for [`write_frame`].
///
/// # Panics
///
/// As for [`encode_frame_meta`] (oversized token, ragged batch).
pub fn write_frame_meta(
    writer: &mut impl std::io::Write,
    frame: &Frame,
    meta: &FrameMeta,
    max_frame_bytes: usize,
) -> Result<usize> {
    let bytes = encode_frame_meta(frame, meta);
    Ok(wire::write_frame(writer, &bytes, max_frame_bytes)?)
}

/// Reads one length-prefixed frame from `reader`.
///
/// # Errors
///
/// [`NetError::Closed`] on EOF before or inside a frame,
/// [`NetError::Timeout`] when the socket's read timeout expires,
/// [`NetError::FrameTooLarge`] when the declared length exceeds
/// `max_frame_bytes` (the connection cannot be resynchronized afterwards —
/// callers close it), and decode errors as in [`decode_frame`].
pub fn read_frame(reader: &mut impl Read, max_frame_bytes: usize) -> Result<Frame> {
    decode_frame(&wire::read_frame(reader, max_frame_bytes)?)
}

/// Reads one length-prefixed frame plus its header metadata from `reader`
/// — the server-side form that learns which model a request addresses and
/// which token it presented.
///
/// # Errors
///
/// As for [`read_frame`].
pub fn read_frame_meta(
    reader: &mut impl Read,
    max_frame_bytes: usize,
) -> Result<(Frame, FrameMeta)> {
    decode_frame_meta(&wire::read_frame(reader, max_frame_bytes)?)
}

/// Every frame kind, with representative payloads — shared by the unit
/// tests and the canonical-decoding sweep (and usable by downstream
/// protocol tooling) so new kinds are automatically covered.
pub fn sample_frames() -> Vec<Frame> {
    vec![
        Frame::Predict {
            id: 1,
            deadline_micros: 2_500,
            features: vec![0.5, -1.25, 3.0],
        },
        Frame::PredictBatch {
            id: 2,
            deadline_micros: 0,
            cols: 3,
            data: vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
        },
        Frame::Stats { id: 3 },
        Frame::Health { id: 4 },
        Frame::Shutdown { id: 5 },
        Frame::TraceDump { id: 6, max: 16 },
        Frame::MetricsDump { id: 7 },
        Frame::Labels {
            id: 8,
            labels: vec![7, 0, 9],
        },
        Frame::StatsReply {
            id: 9,
            stats: Box::new(WireStats {
                requests: 100,
                batches: 10,
                max_batch: 32,
                mean_batch: 10.0,
                latency: LatencySummary {
                    count: 100,
                    mean: Duration::from_micros(150),
                    p50: Duration::from_micros(120),
                    p95: Duration::from_micros(400),
                    p99: Duration::from_micros(900),
                    max: Duration::from_millis(2),
                },
                shed_expired: 3,
                rejected_overload: 17,
                rejected_deadline: 2,
                models: vec![
                    WireModelStats {
                        id: 0,
                        name: "default".to_string(),
                        version: 4,
                        swaps: 3,
                        requests: 80,
                        shed_expired: 3,
                        rejected_overload: 17,
                        rejected_deadline: 2,
                        latency: LatencySummary {
                            count: 80,
                            mean: Duration::from_micros(140),
                            p50: Duration::from_micros(110),
                            p95: Duration::from_micros(380),
                            p99: Duration::from_micros(850),
                            max: Duration::from_millis(2),
                        },
                    },
                    WireModelStats {
                        id: 7,
                        name: "candidate".to_string(),
                        version: 1,
                        swaps: 0,
                        requests: 20,
                        shed_expired: 0,
                        rejected_overload: 0,
                        rejected_deadline: 0,
                        latency: LatencySummary {
                            count: 20,
                            mean: Duration::from_micros(180),
                            p50: Duration::from_micros(150),
                            p95: Duration::from_micros(420),
                            p99: Duration::from_micros(950),
                            max: Duration::from_millis(1),
                        },
                    },
                ],
                stages: StageSummaries {
                    queue: LatencySummary {
                        count: 100,
                        mean: Duration::from_micros(40),
                        p50: Duration::from_micros(30),
                        p95: Duration::from_micros(120),
                        p99: Duration::from_micros(300),
                        max: Duration::from_micros(600),
                    },
                    assembly: LatencySummary {
                        count: 100,
                        mean: Duration::from_micros(5),
                        p50: Duration::from_micros(4),
                        p95: Duration::from_micros(12),
                        p99: Duration::from_micros(20),
                        max: Duration::from_micros(45),
                    },
                    gemm: LatencySummary {
                        count: 100,
                        mean: Duration::from_micros(80),
                        p50: Duration::from_micros(70),
                        p95: Duration::from_micros(200),
                        p99: Duration::from_micros(400),
                        max: Duration::from_millis(1),
                    },
                    write: LatencySummary {
                        count: 100,
                        mean: Duration::from_micros(15),
                        p50: Duration::from_micros(12),
                        p95: Duration::from_micros(40),
                        p99: Duration::from_micros(90),
                        max: Duration::from_micros(250),
                    },
                },
            }),
        },
        Frame::HealthReply {
            id: 10,
            input_features: 784,
            num_classes: 10,
            mode: WireMode::Goodness,
            state: WireHealthState::Draining,
            model_version: 4,
        },
        Frame::ShutdownAck { id: 11 },
        Frame::Error {
            id: 12,
            code: ErrorCode::Overloaded,
            retry_after_millis: 25,
            message: "admission queue full".to_string(),
        },
        Frame::TraceDumpReply {
            id: 13,
            dropped: 2,
            traces: vec![
                RequestTrace {
                    seq: 41,
                    model_id: 0,
                    sampled: true,
                    slow: false,
                    completed: true,
                    end_to_end_ns: 910_000,
                    deadline_remaining_micros: Some(4_200),
                    stamps: [
                        Some(0),
                        Some(12_000),
                        Some(18_000),
                        Some(250_000),
                        Some(700_000),
                        Some(900_000),
                    ],
                },
                RequestTrace {
                    seq: 42,
                    model_id: 7,
                    sampled: false,
                    slow: true,
                    completed: false,
                    end_to_end_ns: 12_400_000,
                    deadline_remaining_micros: None,
                    stamps: [Some(0), Some(9_000), Some(15_000), None, None, None],
                },
            ],
        },
        Frame::MetricsDumpReply {
            id: 14,
            text: "serve.batches counter 10\nserve.requests counter 100\n".to_string(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_frame_kind_roundtrips() {
        for frame in sample_frames() {
            let bytes = encode_frame(&frame);
            let decoded = decode_frame(&bytes).unwrap_or_else(|e| panic!("{frame:?}: {e}"));
            assert_eq!(decoded, frame);
            // Re-encoding is verbatim, like every FF8* format.
            assert_eq!(encode_frame(&decoded), bytes);
        }
    }

    /// The live wire bytes, pinned: FNV-1a-64 over the concatenated
    /// encoding of every sample frame, under default meta and under a
    /// populated one (model id + token). Recorded before the per-version
    /// forks were deleted; a change to either constant is a wire-format
    /// change.
    #[test]
    fn live_wire_bytes_are_pinned() {
        let populated = FrameMeta {
            model_id: 513,
            token: Some("s3cret-token".to_string()),
        };
        for (meta, pinned) in [
            (FrameMeta::default(), 0xecca_4f39_df3e_2351u64),
            (populated, 0x34d2_77fd_fa2e_0cd7u64),
        ] {
            let hash = sample_frames()
                .iter()
                .flat_map(|frame| encode_frame_meta(frame, &meta))
                .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                });
            assert_eq!(
                hash, pinned,
                "FF8P bytes moved under {meta:?}: {hash:#018x}"
            );
        }
    }

    #[test]
    fn bulk_kinds_fit_their_presized_buffer() {
        let token = "s3cret-token";
        let meta = FrameMeta {
            model_id: 513,
            token: Some(token.to_string()),
        };
        for frame in sample_frames() {
            if let Frame::Predict { .. } | Frame::PredictBatch { .. } | Frame::Labels { .. } = frame
            {
                let len = encode_frame_meta(&frame, &meta).len();
                assert!(len <= frame_bytes(&frame, token), "{frame:?}: {len} bytes");
            }
        }
    }

    #[test]
    fn frame_meta_roundtrips_model_id_and_token() {
        let meta = FrameMeta {
            model_id: 513,
            token: Some("s3cret-token".to_string()),
        };
        for frame in sample_frames() {
            let bytes = encode_frame_meta(&frame, &meta);
            let (decoded, decoded_meta) =
                decode_frame_meta(&bytes).unwrap_or_else(|e| panic!("{frame:?}: {e}"));
            assert_eq!(decoded, frame);
            assert_eq!(decoded_meta, meta);
        }
        // An absent token encodes as the empty string and decodes to None.
        let bytes = encode_frame_meta(&Frame::Stats { id: 1 }, &FrameMeta::for_model(9));
        let (_, decoded_meta) = decode_frame_meta(&bytes).unwrap();
        assert_eq!(decoded_meta, FrameMeta::for_model(9));
        assert_eq!(decoded_meta.token, None);
    }

    #[test]
    #[should_panic(expected = "exceeds the 128-byte limit")]
    fn oversized_auth_tokens_panic_at_encode_time() {
        // Truncating a secret would present a *different* secret.
        let meta = FrameMeta {
            model_id: 0,
            token: Some("x".repeat(MAX_AUTH_TOKEN_LEN + 1)),
        };
        encode_frame_meta(&Frame::Stats { id: 1 }, &meta);
    }

    #[test]
    fn oversized_auth_tokens_are_rejected_at_decode_time() {
        // Craft a frame whose auth record declares a token longer than the
        // bound: the decoder must refuse before allocating.
        let meta = FrameMeta {
            model_id: 0,
            token: Some("x".repeat(MAX_AUTH_TOKEN_LEN)),
        };
        let mut bytes = encode_frame_meta(&Frame::Stats { id: 1 }, &meta);
        // Token string length sits after header(8) + auth record len(4).
        let len_offset = 12;
        bytes[len_offset..len_offset + 4]
            .copy_from_slice(&((MAX_AUTH_TOKEN_LEN + 1) as u32).to_le_bytes());
        assert!(decode_frame_meta(&bytes).is_err());
    }

    #[test]
    fn kind_indices_are_dense_and_names_are_stable() {
        let mut seen = [false; FRAME_KIND_COUNT];
        for frame in sample_frames() {
            let index = frame.kind_index();
            assert!(!seen[index], "duplicate kind index {index}");
            seen[index] = true;
            assert_eq!(frame.kind_name(), Frame::kind_names()[index]);
        }
        assert!(
            seen.iter().all(|&s| s),
            "sample_frames must cover every kind index"
        );
        assert_eq!(Frame::kind_names()[0], "predict");
        assert_eq!(
            Frame::kind_names()[FRAME_KIND_COUNT - 1],
            "metrics_dump_reply"
        );
    }

    #[test]
    fn frame_ids_and_request_classification() {
        for (index, frame) in sample_frames().into_iter().enumerate() {
            assert_eq!(frame.id(), index as u64 + 1);
            assert_eq!(frame.is_request(), index < 7, "{frame:?}");
        }
    }

    #[test]
    fn stream_framing_roundtrips_multiple_frames() {
        let frames = sample_frames();
        let mut wire = Vec::new();
        for frame in &frames {
            write_frame(&mut wire, frame, DEFAULT_MAX_FRAME_BYTES).unwrap();
        }
        let mut cursor = std::io::Cursor::new(wire);
        for frame in &frames {
            assert_eq!(
                &read_frame(&mut cursor, DEFAULT_MAX_FRAME_BYTES).unwrap(),
                frame
            );
        }
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME_BYTES),
            Err(NetError::Closed)
        );
    }

    #[test]
    fn frame_size_limit_is_enforced_both_ways() {
        let frame = Frame::Predict {
            id: 1,
            deadline_micros: 0,
            features: vec![0.0; 100],
        };
        let mut wire = Vec::new();
        assert!(matches!(
            write_frame(&mut wire, &frame, 16),
            Err(NetError::FrameTooLarge { .. })
        ));
        assert!(wire.is_empty(), "nothing written for an oversized frame");
        write_frame(&mut wire, &frame, DEFAULT_MAX_FRAME_BYTES).unwrap();
        let mut cursor = std::io::Cursor::new(&wire);
        assert!(matches!(
            read_frame(&mut cursor, 16),
            Err(NetError::FrameTooLarge { len: _, max: 16 })
        ));
        // End of stream inside the length prefix or the body is `Closed`.
        for len in [0, 2, wire.len() - 1] {
            assert_eq!(
                read_frame(&mut &wire[..len], DEFAULT_MAX_FRAME_BYTES),
                Err(NetError::Closed)
            );
        }
    }

    #[test]
    fn structural_violations_are_typed_errors() {
        // Zero features.
        let empty = Frame::Predict {
            id: 1,
            deadline_micros: 0,
            features: Vec::new(),
        };
        assert!(matches!(
            decode_frame(&encode_frame(&empty)),
            Err(NetError::Frame { .. })
        ));
        // Zero-geometry batch: patch the rows field (offset 33: header 8 +
        // empty auth record 8 + record len 4 + kind 1 + id 8 + deadline 4)
        // of a valid frame to zero — the encoder refuses to build such a
        // frame itself.
        let batch = Frame::PredictBatch {
            id: 1,
            deadline_micros: 0,
            cols: 3,
            data: vec![0.0; 3],
        };
        let mut degenerate = encode_frame(&batch);
        degenerate[33..37].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            decode_frame(&degenerate),
            Err(NetError::Frame { .. })
        ));
        // Unknown kind byte: header(8) + empty auth record(8) + record
        // len(4), kind is byte 20. Tags resolve through the shared code
        // table, whose unknown-tag error is the codec's.
        let mut bytes = encode_frame(&Frame::Stats { id: 1 });
        bytes[20] = 77;
        assert!(matches!(decode_frame(&bytes), Err(NetError::Codec(_))));
        // Wrong magic / version.
        let mut wrong = encode_frame(&Frame::Stats { id: 1 });
        wrong[0] = b'X';
        assert!(matches!(decode_frame(&wrong), Err(NetError::Codec(_))));
        let mut wrong = encode_frame(&Frame::Stats { id: 1 });
        wrong[4] = 9;
        assert!(matches!(decode_frame(&wrong), Err(NetError::Codec(_))));
        // Trailing garbage.
        let mut long = encode_frame(&Frame::Stats { id: 1 });
        long.push(0);
        assert!(matches!(decode_frame(&long), Err(NetError::Codec(_))));
    }

    #[test]
    fn long_error_messages_truncate_to_the_decode_bound() {
        // The server embeds peer-controlled detail in error messages; the
        // encoder must never emit a frame its own clients cannot decode.
        let frame = Frame::Error {
            id: 1,
            code: ErrorCode::Internal,
            retry_after_millis: 0,
            message: "é".repeat(3000), // 6000 bytes, boundary mid-char
        };
        let decoded = decode_frame(&encode_frame(&frame)).unwrap();
        let Frame::Error { message, .. } = decoded else {
            panic!("expected an error frame");
        };
        assert!(message.len() <= MAX_ERROR_MESSAGE_LEN);
        assert!(!message.is_empty());
        assert!(message.chars().all(|c| c == 'é'), "clean UTF-8 boundary");
    }

    #[test]
    #[should_panic(expected = "divide into positive rows")]
    fn ragged_predict_batch_panics_at_encode_time() {
        encode_frame(&Frame::PredictBatch {
            id: 1,
            deadline_micros: 0,
            cols: 3,
            data: vec![0.0; 4],
        });
    }

    #[test]
    fn declared_counts_are_bounded_by_payload() {
        // A corrupt count must fail before allocating, not reserve gigabytes.
        let frame = Frame::Predict {
            id: 1,
            deadline_micros: 0,
            features: vec![1.0, 2.0],
        };
        let mut bytes = encode_frame(&frame);
        // Feature count sits after header(8) + empty auth record(8) +
        // record len(4) + kind(1) + id(8) + deadline(4).
        let count_offset = 33;
        bytes[count_offset..count_offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_frame(&bytes), Err(NetError::Codec(_))));
    }
}
