//! The data-parallel training worker.
//!
//! A worker joins a [`crate::Coordinator`], then serves a loop of
//! `ParamSync` (overwrite the local parameter replica) and `SubmitBatch`
//! (evaluate [`compute_shard`] — a pure function of the synced parameters
//! and the task) answered with `ShardResult` frames. Because every shard's
//! rounding streams are derived from seeds carried *in the task*, a shard
//! computed here is bit-identical to the same shard computed on the
//! coordinator or on any other worker — which is what lets the coordinator
//! treat worker death as a scheduling event rather than a correctness
//! event.

use crate::protocol::{
    decode_msg, encode_msg, read_msg_bytes, stamp_shard_result_encoded_ns, write_msg_bytes,
    ShardStamps, TrainMsg,
};
use crate::{DistError, Result};
use ff_core::shard::compute_shard;
use ff_nn::Sequential;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Instant;

/// What a worker did before its connection ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerReport {
    /// The id the coordinator assigned at join.
    pub worker_id: u64,
    /// How many shard tasks this worker computed and returned.
    pub shards_computed: u64,
    /// How many full parameter syncs it applied.
    pub params_synced: u64,
}

/// A data-parallel training worker (stateless; the model replica is the
/// caller's).
#[derive(Debug, Clone, Copy, Default)]
pub struct Worker;

impl Worker {
    /// Connects to a coordinator and serves shard tasks until the
    /// coordinator shuts the cluster down (or the connection drops).
    ///
    /// `net` must have the same architecture as the coordinator's model;
    /// its parameter *values* are irrelevant — the first `ParamSync`
    /// overwrites them.
    ///
    /// # Errors
    ///
    /// Connection setup errors as [`DistError::Io`]; join rejection and
    /// malformed frames as [`DistError::Protocol`]; shard math errors as
    /// [`DistError::Core`].
    pub fn connect(
        addr: impl ToSocketAddrs,
        token: &str,
        net: &mut Sequential,
    ) -> Result<WorkerReport> {
        let mut stream = TcpStream::connect(addr)?;
        Self::run(&mut stream, token, net)
    }

    /// Runs the worker loop over an already-established stream.
    ///
    /// Generic over `Read + Write` so tests can interpose
    /// `ff_net::FaultyStream` (or any in-memory transport) between worker
    /// and coordinator. A connection loss mid-service returns `Ok` with the
    /// report so far — the coordinator recomputes whatever this worker
    /// still owed, and "my socket died" is not a worker-side failure.
    ///
    /// Every `ShardResult` carries the worker-local decode/compute/encode
    /// stamps: one clock starts when the frame's bytes are fully read, and
    /// `encoded_ns` is patched into the already-encoded reply so the stamp
    /// covers the encode itself.
    ///
    /// # Errors
    ///
    /// Same as [`Worker::connect`], minus connection setup.
    pub fn run<S: Read + Write>(
        stream: &mut S,
        token: &str,
        net: &mut Sequential,
    ) -> Result<WorkerReport> {
        let join = TrainMsg::Join {
            token: token.to_string(),
        };
        write_msg_bytes(stream, &encode_msg(&join))?;
        let worker_id = match decode_msg(&read_msg_bytes(stream)?)? {
            TrainMsg::JoinAck { worker_id } => worker_id,
            TrainMsg::Error { message, .. } => {
                return Err(DistError::Protocol {
                    message: format!("coordinator rejected join: {message}"),
                })
            }
            other => {
                return Err(DistError::Protocol {
                    message: format!("expected JoinAck, got {other:?}"),
                })
            }
        };
        let mut report = WorkerReport {
            worker_id,
            ..WorkerReport::default()
        };
        loop {
            let bytes = match read_msg_bytes(stream) {
                Ok(bytes) => bytes,
                // A dropped socket ends service; the coordinator's reader
                // thread notices the same break and reassigns.
                Err(DistError::Io { .. }) => return Ok(report),
                Err(e) => return Err(e),
            };
            // One clock per frame: decoded/computed/encoded stamps are
            // cumulative offsets from the moment the bytes were in hand.
            let clock = Instant::now();
            match decode_msg(&bytes)? {
                TrainMsg::ParamSync { params, .. } => {
                    apply_param_sync(net, params)?;
                    report.params_synced += 1;
                }
                TrainMsg::SubmitBatch {
                    step,
                    task,
                    trace_id,
                } => {
                    let decoded_ns = elapsed_ns(clock);
                    let shard_index = task.shard_index as u64;
                    let grads = compute_shard(net, &task)?;
                    let computed_ns = elapsed_ns(clock);
                    let reply = TrainMsg::ShardResult {
                        step,
                        shard_index,
                        grads,
                        stamps: ShardStamps {
                            trace_id,
                            decoded_ns,
                            computed_ns,
                            encoded_ns: 0, // patched below, post-encode
                        },
                    };
                    let mut out = encode_msg(&reply);
                    stamp_shard_result_encoded_ns(&mut out, elapsed_ns(clock));
                    if write_msg_bytes(stream, &out).is_err() {
                        return Ok(report);
                    }
                    report.shards_computed += 1;
                }
                TrainMsg::Shutdown | TrainMsg::Leave => return Ok(report),
                // Unknown-but-well-formed traffic is ignored so protocol
                // growth does not strand old workers.
                _ => continue,
            }
        }
    }
}

/// Nanoseconds since `start`, floored at 1 so a stamped phase is always
/// distinguishable from the neutral "never stamped" zero even on coarse
/// clocks.
fn elapsed_ns(start: Instant) -> u64 {
    (start.elapsed().as_nanos().min(u64::MAX as u128) as u64).max(1)
}

/// Overwrites `net`'s parameters with a synced replica by moving each
/// decoded tensor in, bumping each parameter's version so cached packed
/// INT8 weight plans requantize.
fn apply_param_sync(net: &mut Sequential, params: Vec<ff_tensor::Tensor>) -> Result<()> {
    let mut targets = net.params_mut();
    if targets.len() != params.len() {
        return Err(DistError::Protocol {
            message: format!(
                "parameter sync carries {} tensors but the local replica has {}",
                params.len(),
                targets.len()
            ),
        });
    }
    for (target, incoming) in targets.iter_mut().zip(params) {
        if target.value.shape() != incoming.shape() {
            return Err(DistError::Protocol {
                message: format!(
                    "parameter sync shape {:?} does not match local shape {:?}",
                    incoming.shape(),
                    target.value.shape()
                ),
            });
        }
        *target.value = incoming;
        target.mark_updated();
    }
    Ok(())
}
