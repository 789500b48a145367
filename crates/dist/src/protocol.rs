//! The `FF8D` distributed-training wire protocol.
//!
//! One frame = the shared [`ff_codec::wire`] envelope (a `u32`
//! little-endian byte length, capped at [`MAX_FRAME_BYTES`]) around an
//! `FF8D` artifact built with the shared [`ff_codec`] writer: 4 magic
//! bytes, a `u16` version, a flags word that must be zero, then a single
//! length-prefixed record whose first byte is the message kind. Kinds and
//! [`ErrorCode`]s are declared in `(value, tag, name)`
//! [`ff_codec::wire::CodeTable`]s, like `FF8P`'s. Everything rides the same
//! panic-free codec as the `FF8C`/`FF8S`/`FF8P` formats: malformed input —
//! unknown tags and non-zero flags included — maps to a typed error, never
//! a panic, and a message that decodes re-encodes to exactly its bytes.
//! `tests/determinism_prop.rs` asserts both with the exhaustive
//! [`ff_codec::wire::sweep`] over [`sample_msgs`].
//!
//! Message flow:
//!
//! - workers: `Join` → `JoinAck`, then a stream of `ParamSync` +
//!   `SubmitBatch` from the coordinator answered by `ShardResult`s, ended
//!   by `Leave` (worker-initiated) or `Shutdown` (coordinator-initiated);
//! - observers: `Subscribe`, then a stream of typed [`TrainEvent`] frames;
//! - checkpoint pullers: `PullCheckpoint` → `CheckpointReply` carrying a
//!   complete `FF8C` artifact (or `Error` when none is published yet);
//! - trace pullers: `TraceDump` → `TraceDumpReply` carrying the
//!   coordinator's recent [`ClusterSpan`]s.
//!
//! # One live version
//!
//! A worker and its coordinator are built from one commit, so there is one
//! layout: every frame is written at [`TRAIN_PROTOCOL_VERSION`], and a
//! frame declaring any other version is refused with the typed
//! [`ff_codec::CodecError::UnsupportedVersion`] — the coordinator answers
//! such a hello with one [`ErrorCode::UnexpectedHello`] error frame and
//! closes the stream. (The on-disk `FF8C` / `FF8S` versions are a
//! separate, still ranged contract: files outlive builds, wire peers do
//! not.)

use crate::{DistError, Result};
use ff_codec::wire::{self, CodeTable};
use ff_codec::{Reader, Writer};
use ff_core::shard::{ShardGrads, ShardTask};
use ff_core::{EvalSplit, Precision, StepSpans, TrainEvent};
use ff_tensor::Tensor;
use ff_trace::{ClusterSpan, ShardSpan};
use std::io::{Read, Write};

/// Magic bytes of every `FF8D` frame.
pub const TRAIN_MAGIC: [u8; 4] = *b"FF8D";

/// The one `FF8D` protocol version this build speaks: written on every
/// frame, and the only one accepted.
pub const TRAIN_PROTOCOL_VERSION: u16 = 2;

/// Upper bound on one frame's encoded size (64 MiB) — enough for a full
/// parameter sync of any model this workspace trains, small enough that a
/// hostile length prefix cannot drive a huge allocation.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Upper bound on decoded string lengths (tokens, error messages).
const MAX_STRING: usize = 4096;

/// Upper bound on tensor rank accepted off the wire.
const MAX_DIMS: usize = 8;

// One row per message kind: its wire tag (the first byte of every frame's
// record) and its `dist.wire.<kind>.*` name. The row position is
// `TrainMsg::kind_index`.
ff_codec::wire_kinds! {
    TrainMsg => MsgKind in KINDS {
        Join = 1, "join";
        JoinAck = 2, "join_ack";
        ParamSync = 3, "param_sync";
        SubmitBatch = 4, "submit_batch";
        ShardResult = 5, "shard_result";
        Event = 6, "event";
        PullCheckpoint = 7, "pull_checkpoint";
        CheckpointReply = 8, "checkpoint_reply";
        Subscribe = 9, "subscribe";
        Leave = 10, "leave";
        Shutdown = 11, "shutdown";
        Error = 12, "error";
        TraceDump = 13, "trace_dump";
        TraceDumpReply = 14, "trace_dump_reply";
    }
}

/// Number of message kinds — sizes the per-kind wire counters.
pub const TRAIN_KIND_COUNT: usize = KINDS.0.len();

/// A machine-readable reason on [`TrainMsg::Error`] frames, so the
/// coordinator can count rejections per cause instead of one aggregate.
/// Peers are built from one commit, so a tag without a row is a typed
/// decode error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorCode {
    /// No specific code.
    #[default]
    Unspecified,
    /// The presented cluster token did not match.
    BadToken,
    /// `PullCheckpoint` before any checkpoint was published.
    NoCheckpoint,
    /// A connection opened with a frame that is not a valid hello.
    UnexpectedHello,
}

/// One row per code: variant, wire tag, and the `<code>` in the
/// coordinator's `dist.coord.errors.<code>` counters.
pub(crate) const CODES: CodeTable<ErrorCode> = CodeTable(&[
    (ErrorCode::Unspecified, 0, "unspecified"),
    (ErrorCode::BadToken, 1, "bad_token"),
    (ErrorCode::NoCheckpoint, 2, "no_checkpoint"),
    (ErrorCode::UnexpectedHello, 3, "unexpected_hello"),
]);

impl ErrorCode {
    /// Stable snake_case name — the `<code>` in the coordinator's
    /// `dist.coord.errors.<code>` counters.
    pub fn name(self) -> &'static str {
        CODES.name(self)
    }

    /// Every code, in wire order, for pre-minting one counter per cause.
    pub fn all() -> impl Iterator<Item = ErrorCode> {
        CODES.values()
    }
}

/// Worker-side trace stamps riding on a `ShardResult`: nanosecond offsets
/// on the **worker's** clock, measured from the moment the task bytes were
/// received — monotonic by construction, no clock sync needed. A worker
/// floors its stamps at 1 ns, so all-zero stamps
/// ([`ShardStamps::default`]) mean only "recomputed locally".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStamps {
    /// The step's cluster trace id, echoed from `SubmitBatch` (`0` when
    /// the step was not sampled).
    pub trace_id: u64,
    /// Task frame decoded.
    pub decoded_ns: u64,
    /// Shard gradients computed.
    pub computed_ns: u64,
    /// Result frame encoded, ready to write.
    pub encoded_ns: u64,
}

/// One `FF8D` message.
#[derive(Debug, Clone)]
pub enum TrainMsg {
    /// A worker announces itself, presenting the cluster token (empty when
    /// the coordinator requires none).
    Join {
        /// Shared-secret cluster token.
        token: String,
    },
    /// The coordinator accepts a worker and assigns its id.
    JoinAck {
        /// The worker's id for the rest of the connection.
        worker_id: u64,
    },
    /// Full parameter sync: the worker overwrites its replica with these
    /// tensors (in [`ff_nn::Sequential::params_mut`] order) before the
    /// batch of the same `version` runs.
    ParamSync {
        /// The global step these parameters belong to.
        version: u64,
        /// Every trainable parameter tensor, in network order.
        params: Vec<Tensor>,
    },
    /// One shard of one training batch for the worker to compute.
    SubmitBatch {
        /// The global step this shard belongs to (matches `ParamSync`).
        step: u64,
        /// The canonical shard task ([`ff_core::shard::compute_shard`]).
        task: ShardTask,
        /// The step's cluster trace id (`0` = step not sampled).
        trace_id: u64,
    },
    /// A worker returns one shard's gradients.
    ShardResult {
        /// The global step the shard belongs to.
        step: u64,
        /// Which shard of the batch this is.
        shard_index: u64,
        /// The shard's loss partials and gradient tensors.
        grads: ShardGrads,
        /// Worker-side trace stamps.
        stamps: ShardStamps,
    },
    /// A typed training event streamed to subscribers.
    Event {
        /// The event, verbatim from the training session.
        event: TrainEvent,
    },
    /// Requests the latest published checkpoint.
    PullCheckpoint,
    /// Carries a complete `FF8C` checkpoint artifact.
    CheckpointReply {
        /// The artifact bytes ([`ff_core::checkpoint::load_bytes`] reads
        /// them).
        bytes: Vec<u8>,
    },
    /// Registers this connection as a training-event observer.
    Subscribe,
    /// A worker leaves the cluster cleanly.
    Leave,
    /// The coordinator tells a worker to exit.
    Shutdown,
    /// A typed error reply (bad token, no checkpoint yet, ...).
    Error {
        /// Machine-readable cause.
        code: ErrorCode,
        /// What went wrong, human-readable.
        message: String,
    },
    /// Requests the coordinator's recent cluster-step spans.
    TraceDump {
        /// Maximum number of spans to return; `0` = everything retained.
        max: u32,
    },
    /// Carries the coordinator's recent [`ClusterSpan`]s.
    TraceDumpReply {
        /// Spans lost to ring contention or capacity zero.
        dropped: u64,
        /// Most recent spans in commit (chronological) order.
        spans: Vec<ClusterSpan>,
    },
}

impl TrainMsg {
    /// Zero-based kind index, aligned with [`TrainMsg::kind_names`] —
    /// what the per-kind wire counters are indexed by.
    pub fn kind_index(&self) -> usize {
        KINDS.index(self.kind())
    }

    /// Stable snake_case kind name — the `<kind>` in `dist.wire.<kind>.*`
    /// metric names.
    pub fn kind_name(&self) -> &'static str {
        KINDS.name(self.kind())
    }

    /// Every kind name, indexed by [`TrainMsg::kind_index`].
    pub fn kind_names() -> [&'static str; TRAIN_KIND_COUNT] {
        std::array::from_fn(|index| KINDS.0[index].2)
    }
}

fn put_tensor(r: &mut ff_codec::RecordWriter, t: &Tensor) {
    let shape = t.shape();
    r.put_u32(shape.len() as u32);
    for &d in shape {
        r.put_u64(d as u64);
    }
    r.put_f32s(t.data());
}

fn get_tensor(r: &mut Reader<'_>) -> Result<Tensor> {
    let rank = r.get_u32("tensor rank")? as usize;
    if rank > MAX_DIMS {
        return Err(DistError::Protocol {
            message: format!("tensor rank {rank} exceeds limit {MAX_DIMS}"),
        });
    }
    r.ensure_fits(rank, 8, "tensor shape")?;
    let mut shape = Vec::with_capacity(rank);
    let mut count: usize = 1;
    for _ in 0..rank {
        let d = r.get_u64("tensor dim")? as usize;
        count = count.checked_mul(d).ok_or_else(|| DistError::Protocol {
            message: "tensor element count overflows".to_string(),
        })?;
        shape.push(d);
    }
    let data = r.get_f32s(count, "tensor data")?;
    Tensor::from_vec(&shape, data).map_err(|e| DistError::Protocol {
        message: format!("tensor reassembly failed: {e}"),
    })
}

/// Wire tags of a shard task's [`Precision`].
const PRECISIONS: CodeTable<Precision> =
    CodeTable(&[(Precision::Fp32, 0, "fp32"), (Precision::Int8, 1, "int8")]);

/// Wire tags of an eval event's [`EvalSplit`].
const SPLITS: CodeTable<EvalSplit> =
    CodeTable(&[(EvalSplit::Train, 0, "train"), (EvalSplit::Test, 1, "test")]);

fn put_event(r: &mut ff_codec::RecordWriter, event: &TrainEvent) {
    match event {
        TrainEvent::EpochStart { epoch, lambda } => {
            r.put_u8(1);
            r.put_u64(*epoch as u64);
            r.put_f32(*lambda);
        }
        TrainEvent::LambdaChanged { epoch, lambda } => {
            r.put_u8(2);
            r.put_u64(*epoch as u64);
            r.put_f32(*lambda);
        }
        TrainEvent::StepEnd {
            epoch,
            step_in_epoch,
            global_step,
            loss,
            spans,
        } => {
            r.put_u8(3);
            r.put_u64(*epoch as u64);
            r.put_u64(*step_in_epoch as u64);
            r.put_u64(*global_step);
            r.put_f32(*loss);
            r.put_u64(spans.quantize_ns);
            r.put_u64(spans.forward_ns);
            r.put_u64(spans.update_ns);
        }
        TrainEvent::Eval {
            epoch,
            split,
            accuracy,
        } => {
            r.put_u8(4);
            r.put_u64(*epoch as u64);
            r.put_u8(SPLITS.tag(*split));
            r.put_f32(*accuracy);
        }
        TrainEvent::EpochEnd {
            epoch,
            mean_loss,
            train_accuracy,
            test_accuracy,
            seconds,
        } => {
            r.put_u8(5);
            r.put_u64(*epoch as u64);
            r.put_f32(*mean_loss);
            r.put_f32(*train_accuracy);
            match test_accuracy {
                Some(acc) => {
                    r.put_u8(1);
                    r.put_f32(*acc);
                }
                None => r.put_u8(0),
            }
            r.put_f64(*seconds);
        }
    }
}

fn get_event(r: &mut Reader<'_>) -> Result<TrainEvent> {
    match r.get_u8("event tag")? {
        1 => Ok(TrainEvent::EpochStart {
            epoch: r.get_u64("epoch")? as usize,
            lambda: r.get_f32("lambda")?,
        }),
        2 => Ok(TrainEvent::LambdaChanged {
            epoch: r.get_u64("epoch")? as usize,
            lambda: r.get_f32("lambda")?,
        }),
        3 => Ok(TrainEvent::StepEnd {
            epoch: r.get_u64("epoch")? as usize,
            step_in_epoch: r.get_u64("step in epoch")? as usize,
            global_step: r.get_u64("global step")?,
            loss: r.get_f32("loss")?,
            spans: StepSpans {
                quantize_ns: r.get_u64("quantize ns")?,
                forward_ns: r.get_u64("forward ns")?,
                update_ns: r.get_u64("update ns")?,
            },
        }),
        4 => Ok(TrainEvent::Eval {
            epoch: r.get_u64("epoch")? as usize,
            split: SPLITS.read(r, "eval split")?,
            accuracy: r.get_f32("accuracy")?,
        }),
        5 => {
            let epoch = r.get_u64("epoch")? as usize;
            let mean_loss = r.get_f32("mean loss")?;
            let train_accuracy = r.get_f32("train accuracy")?;
            let test_accuracy = match r.get_u8("test accuracy flag")? {
                0 => None,
                1 => Some(r.get_f32("test accuracy")?),
                other => {
                    return Err(DistError::Protocol {
                        message: format!("bad option flag {other}"),
                    })
                }
            };
            Ok(TrainEvent::EpochEnd {
                epoch,
                mean_loss,
                train_accuracy,
                test_accuracy,
                seconds: r.get_f64("seconds")?,
            })
        }
        other => Err(DistError::Protocol {
            message: format!("unknown event tag {other}"),
        }),
    }
}

fn put_span(r: &mut ff_codec::RecordWriter, span: &ClusterSpan) {
    r.put_u64(span.step);
    r.put_u64(span.trace_id);
    r.put_u64(span.prepare_done_ns);
    r.put_u64(span.sync_done_ns);
    r.put_u64(span.dispatch_done_ns);
    r.put_u64(span.collect_done_ns);
    r.put_u64(span.reduce_done_ns);
    r.put_u64(span.apply_done_ns);
    r.put_u32(span.shards.len() as u32);
    for shard in &span.shards {
        r.put_u64(shard.shard_index);
        match shard.worker_id {
            Some(id) => {
                r.put_u8(1);
                r.put_u64(id);
            }
            None => r.put_u8(0),
        }
        r.put_u64(shard.dispatched_ns);
        r.put_u64(shard.completed_ns);
        r.put_u64(shard.decoded_ns);
        r.put_u64(shard.computed_ns);
        r.put_u64(shard.encoded_ns);
    }
}

fn get_span(r: &mut Reader<'_>) -> Result<ClusterSpan> {
    let mut span = ClusterSpan {
        step: r.get_u64("span step")?,
        trace_id: r.get_u64("span trace id")?,
        prepare_done_ns: r.get_u64("prepare done ns")?,
        sync_done_ns: r.get_u64("sync done ns")?,
        dispatch_done_ns: r.get_u64("dispatch done ns")?,
        collect_done_ns: r.get_u64("collect done ns")?,
        reduce_done_ns: r.get_u64("reduce done ns")?,
        apply_done_ns: r.get_u64("apply done ns")?,
        shards: Vec::new(),
    };
    let count = r.get_u32("shard span count")? as usize;
    // 8 (index) + 1 (owner flag) + 5 × 8 (stamps) minimum per shard.
    r.ensure_fits(count, 49, "shard spans")?;
    span.shards.reserve(count);
    for _ in 0..count {
        let shard_index = r.get_u64("shard index")?;
        let worker_id = match r.get_u8("shard owner flag")? {
            0 => None,
            1 => Some(r.get_u64("shard worker id")?),
            other => {
                return Err(DistError::Protocol {
                    message: format!("bad shard owner flag {other}"),
                })
            }
        };
        span.shards.push(ShardSpan {
            shard_index,
            worker_id,
            dispatched_ns: r.get_u64("shard dispatched ns")?,
            completed_ns: r.get_u64("shard completed ns")?,
            decoded_ns: r.get_u64("shard decoded ns")?,
            computed_ns: r.get_u64("shard computed ns")?,
            encoded_ns: r.get_u64("shard encoded ns")?,
        });
    }
    Ok(span)
}

/// Covers a bulk kind's bytes outside its tensors and checkpoint bytes:
/// header, record prefix, kind tag and the largest such kind's scalars.
const FIXED_BYTES: usize = 128;

/// Encoded size of one [`put_tensor`]: rank, dims, elements.
fn tensor_bytes(t: &Tensor) -> usize {
    4 + 8 * t.shape().len() + 4 * t.data().len()
}

/// The artifact size of the bulk message kinds, from their element counts,
/// so [`encode_msg`] never grows its buffer for them.
fn msg_bytes(msg: &TrainMsg) -> usize {
    FIXED_BYTES
        + match msg {
            TrainMsg::ParamSync { params, .. } => params.iter().map(tensor_bytes).sum(),
            TrainMsg::SubmitBatch { task, .. } => tensor_bytes(&task.pos) + tensor_bytes(&task.neg),
            TrainMsg::ShardResult { grads, .. } => grads.grads.iter().map(tensor_bytes).sum(),
            TrainMsg::CheckpointReply { bytes } => bytes.len(),
            _ => 0,
        }
}

/// Encodes one message into a standalone `FF8D` artifact (no length
/// prefix; [`write_msg`] adds it).
pub fn encode_msg(msg: &TrainMsg) -> Vec<u8> {
    let mut w = Writer::with_capacity(&TRAIN_MAGIC, TRAIN_PROTOCOL_VERSION, msg_bytes(msg));
    w.record(|r| {
        r.put_u8(KINDS.tag(msg.kind()));
        encode_body(r, msg);
    });
    w.into_vec()
}

/// Writes a message's kind-specific fields (everything after the kind tag).
fn encode_body(r: &mut ff_codec::RecordWriter, msg: &TrainMsg) {
    match msg {
        TrainMsg::Join { token } => r.put_string(token),
        TrainMsg::JoinAck { worker_id } => r.put_u64(*worker_id),
        TrainMsg::ParamSync { version, params } => {
            r.put_u64(*version);
            r.put_u32(params.len() as u32);
            for t in params {
                put_tensor(r, t);
            }
        }
        TrainMsg::SubmitBatch {
            step,
            task,
            trace_id,
        } => {
            r.put_u64(*step);
            put_tensor(r, &task.pos);
            put_tensor(r, &task.neg);
            r.put_u64(task.pos_seed);
            r.put_u64(task.neg_seed);
            r.put_u64(task.shard_index as u64);
            r.put_u64(task.layer_count as u64);
            r.put_u64(task.loss_divisor as u64);
            r.put_f32(task.theta);
            r.put_f32(task.lambda);
            r.put_u8(PRECISIONS.tag(task.precision));
            r.put_u64(*trace_id);
        }
        TrainMsg::ShardResult {
            step,
            shard_index,
            grads,
            stamps,
        } => {
            r.put_u64(*step);
            r.put_u64(*shard_index);
            r.put_f32(grads.loss_pos);
            r.put_f32(grads.loss_neg);
            r.put_u32(grads.grads.len() as u32);
            for t in &grads.grads {
                put_tensor(r, t);
            }
            // `encoded_ns` is deliberately the final field of the
            // artifact so `stamp_shard_result_encoded_ns` can patch it
            // after the encode clock stops.
            r.put_u64(stamps.trace_id);
            r.put_u64(stamps.decoded_ns);
            r.put_u64(stamps.computed_ns);
            r.put_u64(stamps.encoded_ns);
        }
        TrainMsg::Event { event } => put_event(r, event),
        TrainMsg::PullCheckpoint | TrainMsg::Subscribe | TrainMsg::Leave | TrainMsg::Shutdown => {}
        TrainMsg::CheckpointReply { bytes } => {
            r.put_u32(bytes.len() as u32);
            r.put_slice(bytes);
        }
        TrainMsg::Error { code, message } => {
            r.put_string(message);
            r.put_u8(CODES.tag(*code));
        }
        TrainMsg::TraceDump { max } => r.put_u32(*max),
        TrainMsg::TraceDumpReply { dropped, spans } => {
            r.put_u64(*dropped);
            r.put_u32(spans.len() as u32);
            for span in spans {
                put_span(r, span);
            }
        }
    }
}

/// Overwrites the trailing `encoded_ns` stamp of an encoded `ShardResult`
/// artifact in place.
///
/// The encode clock cannot include its own final read any other way: the
/// worker encodes with a zero placeholder, stops the clock, then patches
/// the measurement into the last 8 bytes. The `FF8D` codec carries no
/// checksum or footer, so the patched artifact is exactly what
/// [`encode_msg`] would have produced with the final value — canonical
/// re-encoding holds, as the protocol tests assert.
pub fn stamp_shard_result_encoded_ns(bytes: &mut [u8], encoded_ns: u64) {
    let len = bytes.len();
    assert!(len >= 8, "not an encoded ShardResult");
    bytes[len - 8..].copy_from_slice(&encoded_ns.to_le_bytes());
}

/// Decodes one `FF8D` artifact. Panic-free: every malformed input maps to
/// [`DistError::Protocol`].
///
/// # Errors
///
/// [`DistError::Protocol`] on bad magic/version, non-zero header flags,
/// truncation, unknown tags, out-of-range lengths or trailing bytes.
pub fn decode_msg(bytes: &[u8]) -> Result<TrainMsg> {
    let version = TRAIN_PROTOCOL_VERSION..=TRAIN_PROTOCOL_VERSION;
    let (mut reader, _, flags) = Reader::with_versions_flags(bytes, &TRAIN_MAGIC, version)?;
    if flags != 0 {
        return Err(DistError::Protocol {
            message: format!("header flags {flags:#06x} are reserved"),
        });
    }
    let mut r = reader.record("message")?;
    let msg = match KINDS.read(&mut r, "message kind")? {
        MsgKind::Join => TrainMsg::Join {
            token: r.get_string(MAX_STRING, "token")?,
        },
        MsgKind::JoinAck => TrainMsg::JoinAck {
            worker_id: r.get_u64("worker id")?,
        },
        MsgKind::ParamSync => {
            let version = r.get_u64("param version")?;
            let count = r.get_u32("param count")? as usize;
            r.ensure_fits(count, 4, "param tensors")?;
            let mut params = Vec::with_capacity(count);
            for _ in 0..count {
                params.push(get_tensor(&mut r)?);
            }
            TrainMsg::ParamSync { version, params }
        }
        MsgKind::SubmitBatch => {
            let step = r.get_u64("step")?;
            let pos = get_tensor(&mut r)?;
            let neg = get_tensor(&mut r)?;
            let pos_seed = r.get_u64("positive pass seed")?;
            let neg_seed = r.get_u64("negative pass seed")?;
            let shard_index = r.get_u64("shard index")? as usize;
            let layer_count = r.get_u64("layer count")? as usize;
            let loss_divisor = r.get_u64("loss divisor")? as usize;
            let theta = r.get_f32("theta")?;
            let lambda = r.get_f32("lambda")?;
            let precision = PRECISIONS.read(&mut r, "precision")?;
            let trace_id = r.get_u64("trace id")?;
            TrainMsg::SubmitBatch {
                step,
                task: ShardTask {
                    pos,
                    neg,
                    pos_seed,
                    neg_seed,
                    shard_index,
                    layer_count,
                    loss_divisor,
                    theta,
                    lambda,
                    precision,
                },
                trace_id,
            }
        }
        MsgKind::ShardResult => {
            let step = r.get_u64("step")?;
            let shard_index = r.get_u64("shard index")?;
            let loss_pos = r.get_f32("positive loss")?;
            let loss_neg = r.get_f32("negative loss")?;
            let count = r.get_u32("grad count")? as usize;
            r.ensure_fits(count, 4, "grad tensors")?;
            let mut grads = Vec::with_capacity(count);
            for _ in 0..count {
                grads.push(get_tensor(&mut r)?);
            }
            let stamps = ShardStamps {
                trace_id: r.get_u64("result trace id")?,
                decoded_ns: r.get_u64("decoded ns")?,
                computed_ns: r.get_u64("computed ns")?,
                encoded_ns: r.get_u64("encoded ns")?,
            };
            TrainMsg::ShardResult {
                step,
                shard_index,
                grads: ShardGrads {
                    loss_pos,
                    loss_neg,
                    grads,
                },
                stamps,
            }
        }
        MsgKind::Event => TrainMsg::Event {
            event: get_event(&mut r)?,
        },
        MsgKind::PullCheckpoint => TrainMsg::PullCheckpoint,
        MsgKind::CheckpointReply => {
            let len = r.get_u32("checkpoint length")? as usize;
            r.ensure_fits(len, 1, "checkpoint bytes")?;
            let mut bytes = vec![0u8; len];
            r.get_slice(&mut bytes, "checkpoint bytes")?;
            TrainMsg::CheckpointReply { bytes }
        }
        MsgKind::Subscribe => TrainMsg::Subscribe,
        MsgKind::Leave => TrainMsg::Leave,
        MsgKind::Shutdown => TrainMsg::Shutdown,
        MsgKind::Error => {
            let message = r.get_string(MAX_STRING, "error message")?;
            let code = CODES.read(&mut r, "error code")?;
            TrainMsg::Error { code, message }
        }
        MsgKind::TraceDump => TrainMsg::TraceDump {
            max: r.get_u32("trace dump max")?,
        },
        MsgKind::TraceDumpReply => {
            let dropped = r.get_u64("dropped spans")?;
            let count = r.get_u32("span count")? as usize;
            // 8 × u64 + u32 shard count minimum per span.
            r.ensure_fits(count, 68, "cluster spans")?;
            let mut spans = Vec::with_capacity(count);
            for _ in 0..count {
                spans.push(get_span(&mut r)?);
            }
            TrainMsg::TraceDumpReply { dropped, spans }
        }
    };
    r.finish("message")?;
    reader.finish("frame")?;
    Ok(msg)
}

/// Writes one length-prefixed `FF8D` frame, returning the wire bytes
/// written (payload + 4-byte prefix) — what the per-kind byte counters
/// record.
///
/// # Errors
///
/// [`DistError::Protocol`] when the encoded frame exceeds
/// [`MAX_FRAME_BYTES`] (checked before anything is written, so the stream
/// stays synchronized); socket errors as [`DistError::Io`].
pub fn write_msg(writer: &mut impl Write, msg: &TrainMsg) -> Result<usize> {
    write_msg_bytes(writer, &encode_msg(msg))
}

/// Writes pre-encoded `FF8D` artifact bytes as one length-prefixed frame,
/// returning the wire bytes written — how a worker ships a `ShardResult`
/// it already encoded (and stamped), and how the coordinator reuses one
/// `ParamSync` encoding across workers.
///
/// # Errors
///
/// See [`write_msg`].
pub fn write_msg_bytes(writer: &mut impl Write, bytes: &[u8]) -> Result<usize> {
    Ok(wire::write_frame(writer, bytes, MAX_FRAME_BYTES)?)
}

/// Reads one length-prefixed `FF8D` frame.
///
/// # Errors
///
/// [`DistError::Io`] on EOF or socket errors, [`DistError::Protocol`] on an
/// oversized length prefix or a malformed payload.
pub fn read_msg(reader: &mut impl Read) -> Result<TrainMsg> {
    decode_msg(&read_msg_bytes(reader)?)
}

/// Reads one length-prefixed frame's raw artifact bytes without decoding —
/// so a caller can time the decode separately (the worker's `decoded_ns`
/// stamp) or account wire bytes before parsing.
///
/// # Errors
///
/// [`DistError::Io`] on EOF or socket errors, [`DistError::Protocol`] on
/// an oversized length prefix.
pub fn read_msg_bytes(reader: &mut impl Read) -> Result<Vec<u8>> {
    Ok(wire::read_frame(reader, MAX_FRAME_BYTES)?)
}

/// Every message kind with representative payloads — shared by the unit
/// tests and the canonical-decoding sweep so new kinds are automatically
/// covered.
pub fn sample_msgs() -> Vec<TrainMsg> {
    let tensor = Tensor::from_vec(&[2, 2], vec![0.5, -1.0, 2.0, 0.25]).expect("literal tensor");
    vec![
        TrainMsg::Join {
            token: "cluster-secret".to_string(),
        },
        TrainMsg::JoinAck { worker_id: 7 },
        TrainMsg::ParamSync {
            version: 42,
            params: vec![tensor.clone(), Tensor::zeros(&[3])],
        },
        TrainMsg::SubmitBatch {
            step: 42,
            task: ShardTask {
                pos: tensor.clone(),
                neg: tensor.clone(),
                pos_seed: 1,
                neg_seed: 2,
                shard_index: 1,
                layer_count: 3,
                loss_divisor: 32,
                theta: 2.0,
                lambda: 0.25,
                precision: Precision::Int8,
            },
            trace_id: 0x00C0_FFEE,
        },
        TrainMsg::ShardResult {
            step: 42,
            shard_index: 1,
            grads: ShardGrads {
                loss_pos: 0.5,
                loss_neg: 0.25,
                grads: vec![tensor],
            },
            stamps: ShardStamps {
                trace_id: 0x00C0_FFEE,
                decoded_ns: 1_200,
                computed_ns: 940_000,
                encoded_ns: 951_000,
            },
        },
        TrainMsg::Event {
            event: TrainEvent::StepEnd {
                epoch: 1,
                step_in_epoch: 2,
                global_step: 3,
                loss: 0.5,
                spans: StepSpans {
                    quantize_ns: 10,
                    forward_ns: 20,
                    update_ns: 30,
                },
            },
        },
        TrainMsg::Event {
            event: TrainEvent::EpochEnd {
                epoch: 1,
                mean_loss: 0.5,
                train_accuracy: 0.9,
                test_accuracy: Some(0.8),
                seconds: 1.5,
            },
        },
        TrainMsg::PullCheckpoint,
        TrainMsg::CheckpointReply {
            bytes: vec![1, 2, 3, 4],
        },
        TrainMsg::Subscribe,
        TrainMsg::Leave,
        TrainMsg::Shutdown,
        TrainMsg::Error {
            code: ErrorCode::NoCheckpoint,
            message: "no checkpoint published yet".to_string(),
        },
        TrainMsg::TraceDump { max: 16 },
        TrainMsg::TraceDumpReply {
            dropped: 2,
            spans: vec![ClusterSpan {
                step: 7,
                trace_id: 0x00C0_FFEE,
                prepare_done_ns: 100,
                sync_done_ns: 300,
                dispatch_done_ns: 450,
                collect_done_ns: 2_000,
                reduce_done_ns: 2_400,
                apply_done_ns: 2_600,
                shards: vec![
                    ShardSpan {
                        shard_index: 0,
                        worker_id: Some(3),
                        dispatched_ns: 400,
                        completed_ns: 1_900,
                        decoded_ns: 50,
                        computed_ns: 1_200,
                        encoded_ns: 1_300,
                    },
                    ShardSpan {
                        shard_index: 1,
                        worker_id: None,
                        dispatched_ns: 0,
                        completed_ns: 2_300,
                        decoded_ns: 0,
                        computed_ns: 0,
                        encoded_ns: 0,
                    },
                ],
            }],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_message_kind_roundtrips() {
        for msg in sample_msgs() {
            let bytes = encode_msg(&msg);
            let decoded = decode_msg(&bytes).expect("decode what we encoded");
            // Structural equality via re-encoding (tensors carry no
            // PartialEq across the shard structs).
            assert_eq!(encode_msg(&decoded), bytes);
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        for msg in sample_msgs() {
            let bytes = encode_msg(&msg);
            for len in 0..bytes.len() {
                assert!(
                    matches!(decode_msg(&bytes[..len]), Err(DistError::Protocol { .. })),
                    "a {len}-byte prefix must be a typed error"
                );
            }
        }
    }

    #[test]
    fn bulk_kinds_fit_their_presized_buffer() {
        for msg in sample_msgs() {
            if let TrainMsg::ParamSync { .. }
            | TrainMsg::SubmitBatch { .. }
            | TrainMsg::ShardResult { .. }
            | TrainMsg::CheckpointReply { .. } = msg
            {
                let len = encode_msg(&msg).len();
                assert!(len <= msg_bytes(&msg), "{}: {len} bytes", msg.kind_name());
            }
        }
    }

    #[test]
    fn trace_kinds_require_v2_headers() {
        // Trace kinds or any other: the header version is checked first,
        // so a previous-version header is refused whatever follows it.
        for msg in sample_msgs() {
            let mut bytes = encode_msg(&msg);
            bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
            assert!(
                matches!(decode_msg(&bytes), Err(DistError::Protocol { .. })),
                "a v1-headered frame must be rejected"
            );
        }
    }

    /// The live wire bytes, pinned: FNV-1a-64 over the concatenated
    /// encoding of every sample message. Recorded before the per-version
    /// forks were deleted; a change to the constant is a wire-format change.
    #[test]
    fn live_wire_bytes_are_pinned() {
        let hash = sample_msgs()
            .iter()
            .flat_map(encode_msg)
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        assert_eq!(
            hash, 0x1803_403f_e53e_166e,
            "FF8D bytes moved: {hash:#018x}"
        );
    }

    #[test]
    fn frame_io_roundtrips_over_a_buffer() {
        let mut wire = Vec::new();
        for msg in sample_msgs() {
            write_msg(&mut wire, &msg).unwrap();
        }
        let mut cursor = &wire[..];
        for msg in sample_msgs() {
            let decoded = read_msg(&mut cursor).unwrap();
            assert_eq!(encode_msg(&decoded), encode_msg(&msg));
        }
        assert!(read_msg(&mut cursor).is_err(), "EOF must be a typed error");
    }

    #[test]
    fn envelope_errors_map_to_io_and_protocol() {
        let mut wire = Vec::new();
        write_msg(&mut wire, &TrainMsg::Leave).unwrap();
        for len in [0, 2, wire.len() - 1] {
            assert!(matches!(
                read_msg(&mut &wire[..len]),
                Err(DistError::Io { .. })
            ));
        }
        let oversized = vec![0u8; MAX_FRAME_BYTES + 1];
        let mut sink = Vec::new();
        assert!(matches!(
            write_msg_bytes(&mut sink, &oversized),
            Err(DistError::Protocol { .. })
        ));
        assert!(sink.is_empty(), "nothing written for an oversized frame");
        let mut hostile = u32::MAX.to_le_bytes().to_vec();
        hostile.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            read_msg(&mut &hostile[..]),
            Err(DistError::Protocol { .. })
        ));
    }

    #[test]
    fn stamped_encoded_ns_patch_is_canonical() {
        let msg = TrainMsg::ShardResult {
            step: 9,
            shard_index: 0,
            grads: ShardGrads {
                loss_pos: 1.0,
                loss_neg: 2.0,
                grads: vec![Tensor::zeros(&[2, 3])],
            },
            stamps: ShardStamps {
                trace_id: 77,
                decoded_ns: 10,
                computed_ns: 20,
                encoded_ns: 0, // placeholder, patched below
            },
        };
        let mut bytes = encode_msg(&msg);
        stamp_shard_result_encoded_ns(&mut bytes, 123_456);
        let decoded = decode_msg(&bytes).expect("patched frame decodes");
        match &decoded {
            TrainMsg::ShardResult { stamps, .. } => {
                assert_eq!(stamps.encoded_ns, 123_456);
                assert_eq!(stamps.trace_id, 77);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        assert_eq!(
            encode_msg(&decoded),
            bytes,
            "the patched artifact is exactly the canonical encoding"
        );
    }

    #[test]
    fn kind_names_align_with_kind_indices() {
        let msgs = sample_msgs();
        // sample_msgs carries two Event samples; dedupe by index.
        let mut seen = [false; TRAIN_KIND_COUNT];
        for msg in &msgs {
            let index = msg.kind_index();
            assert_eq!(TrainMsg::kind_names()[index], msg.kind_name());
            seen[index] = true;
        }
        assert!(seen.iter().all(|&s| s), "sample_msgs covers every kind");
    }

    #[test]
    fn error_codes_roundtrip_and_name_stably() {
        for code in ErrorCode::all() {
            assert_eq!(CODES.from_tag(CODES.tag(code)), Some(code));
            let msg = TrainMsg::Error {
                code,
                message: "x".into(),
            };
            match decode_msg(&encode_msg(&msg)).unwrap() {
                TrainMsg::Error { code: decoded, .. } => assert_eq!(decoded, code),
                other => panic!("wrong kind: {other:?}"),
            }
        }
        // Peers share one build: an unknown tag fails the frame.
        let mut bytes = encode_msg(&TrainMsg::Error {
            code: ErrorCode::BadToken,
            message: "x".into(),
        });
        *bytes.last_mut().unwrap() = 200;
        assert!(matches!(
            decode_msg(&bytes),
            Err(DistError::Protocol { .. })
        ));
        assert_eq!(ErrorCode::BadToken.name(), "bad_token");
    }
}
