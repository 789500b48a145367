//! The versioned `FF8C` training-checkpoint format.
//!
//! A checkpoint captures **everything** a training run's future depends on,
//! so `save → load → resume` is bit-identical to never having stopped:
//!
//! - the algorithm and full [`TrainOptions`] (including the optimizer
//!   family);
//! - epoch / global-step counters, and — for mid-epoch checkpoints — the
//!   epoch's shuffled sample order, cursor and loss/accuracy accumulators;
//! - the trainer's RNG stream position (shuffling, negative-label sampling
//!   and seeded stochastic rounding all draw from this one generator);
//! - per-optimizer state: SGD momentum buffers, or Adam first/second
//!   moments plus the bias-correction step count
//!   ([`crate::optimizer::OptimizerSlot`]);
//! - every layer parameter tensor, stored as IEEE-754 bit patterns;
//! - the [`TrainingHistory`] recorded so far (including per-epoch
//!   wall-clock seconds).
//!
//! # Byte layout (version 3, all integers little-endian)
//!
//! Built on [`ff_codec`]'s length-prefixed record machinery (shared with
//! the `FF8S` serving format and the `FF8P` wire protocol). Version 2
//! extends version 1 with the optimizer-family byte in the options record
//! and a per-slot optimizer-kind byte (version-1 artifacts implicitly held
//! SGD state only, so there is no in-place upgrade path — retrain or
//! re-checkpoint). Version 3 appends the `grad_shards` word to the options
//! record; version-2 artifacts still load (their runs were by definition
//! unsharded, so `grad_shards` defaults to 1) — the same minor-version-bump
//! evolution the `FF8P` deadline fields used.
//!
//! ```text
//! header:
//!   magic            4 × u8   = "FF8C"
//!   format_version   u16      = 3 (2 still readable)
//!   flags            u16      = 0 (reserved)
//! record "meta":
//!   algorithm_kind   u8       — 0..=3 BP policies, 4 FF-INT8, 5 FF-FP32
//!   lookahead        u8       — 0/1 (FF kinds only)
//!   epoch            u64
//!   global_step      u64
//!   rng_state        4 × u64  — xoshiro256++ state, non-zero
//! record "options":
//!   epochs, batch_size               u64
//!   learning_rate, momentum, theta   f32
//!   lambda_init, lambda_step, lambda_max  f32
//!   eval_every, max_eval_samples, seed    u64
//!   optimizer        u8       — 0 = SGD, 1 = Adam
//!   grad_shards      u64      — version ≥ 3 only (v2 implies 1)
//! record "history":
//!   name             string   — u32 length + UTF-8
//!   count            u32
//!   per record: epoch u64, train_loss f32, train_accuracy f32,
//!               has_test u8, test_accuracy f32, seconds f64
//! record "params":
//!   count            u32
//!   per tensor: ndim u32, dims ndim × u32, data Π·dims × f32
//! record "optimizers":
//!   count            u32      — optimizer slots
//!   per slot: kind u8 (0 = SGD, 1 = Adam), then
//!     SGD:  count u32, then tensors as above (momentum buffers)
//!     Adam: step_count u64, count u32, then count first-moment tensors
//!           followed by count second-moment tensors
//! record "progress":
//!   present          u8       — 0 = checkpoint at an epoch boundary
//!   order_len        u32, order order_len × u32
//!   next             u64      — sample cursor within order
//!   loss_sum         f32
//!   batch_count, correct, seen  u64
//!   elapsed_seconds  f64
//! ```
//!
//! Like `FF8S`, loading never panics: every malformed input maps to a typed
//! [`CoreError`] ([`CoreError::Checkpoint`] wrapping the codec error), which
//! the truncation/byte-flip fuzz suite in `crates/core/tests/checkpoint.rs`
//! exercises.

use crate::config::{Algorithm, OptimizerKind, TrainOptions};
use crate::optimizer::OptimizerSlot;
use crate::session::TrainerState;
use crate::{CoreError, Result};
use ff_codec::{CodecError, Reader, RecordWriter, Writer};
use ff_metrics::TrainingHistory;
use ff_nn::Sequential;
use ff_tensor::Tensor;
use std::path::{Path, PathBuf};

/// The four magic bytes every training checkpoint starts with.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"FF8C";

/// The checkpoint format version this build writes.
pub const CHECKPOINT_VERSION: u16 = 3;

/// The oldest checkpoint format version this build still reads
/// (version 2 predates the `grad_shards` option, which defaults to 1).
pub const CHECKPOINT_MIN_VERSION: u16 = 2;

/// Wire code of [`OptimizerKind::Sgd`] in the options and optimizers
/// records.
const OPTIMIZER_SGD: u8 = 0;
/// Wire code of [`OptimizerKind::Adam`].
const OPTIMIZER_ADAM: u8 = 1;

/// Upper bound on the persisted history-name length (sanity bound for the
/// loader; real names are short algorithm labels).
const MAX_NAME_LEN: usize = 1024;
/// Upper bound on tensor rank in a checkpoint (conv weights are rank 4).
const MAX_NDIM: usize = 8;

/// Mid-epoch progress: what a checkpoint taken between two steps of an
/// epoch needs so the resumed session finishes that epoch identically.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochProgress {
    /// The epoch's full shuffled sample order (a permutation of the
    /// training-set indices).
    pub order: Vec<usize>,
    /// Offset of the next batch's first sample within `order`.
    pub next: usize,
    /// Sum of batch losses accumulated so far this epoch.
    pub loss_sum: f32,
    /// Batches trained so far this epoch.
    pub batch_count: u64,
    /// Running correctly-classified count (backpropagation trainers).
    pub correct: u64,
    /// Running scored-sample count (backpropagation trainers).
    pub seen: u64,
    /// Wall-clock seconds already spent on this epoch.
    pub elapsed_seconds: f64,
}

/// A complete, serializable snapshot of a [`crate::TrainSession`].
///
/// Produced by [`crate::TrainSession::checkpoint`]; consumed by
/// [`crate::TrainSession::resume`]. [`save_bytes`] / [`load_bytes`] move it
/// through the versioned `FF8C` binary format (see the [module
/// docs](self)); [`Checkpoint::save`] / [`Checkpoint::load`] add the file
/// I/O.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The algorithm the run trains with.
    pub algorithm: Algorithm,
    /// The run's full hyperparameters.
    pub options: TrainOptions,
    /// Index of the epoch the next step belongs to.
    pub epoch: u64,
    /// Mini-batches trained so far across the run.
    pub global_step: u64,
    /// Trainer-owned state: RNG stream position + optimizer momentum.
    pub trainer: TrainerState,
    /// Per-epoch history recorded so far.
    pub history: TrainingHistory,
    /// Every layer parameter tensor, in `Sequential::params_mut` order.
    pub params: Vec<Tensor>,
    /// Mid-epoch progress, `None` when taken at an epoch boundary.
    pub progress: Option<EpochProgress>,
}

impl Checkpoint {
    /// Serializes and writes this checkpoint to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] on filesystem failures.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        let path = path.as_ref();
        std::fs::write(path, save_bytes(self)).map_err(|e| CoreError::Io {
            message: format!("writing {}: {e}", path.display()),
        })
    }

    /// Reads and deserializes a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] on filesystem failures and
    /// [`CoreError::Checkpoint`] on malformed artifacts.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Checkpoint> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| CoreError::Io {
            message: format!("reading {}: {e}", path.display()),
        })?;
        load_bytes(&bytes)
    }

    /// Restores this checkpoint's parameter tensors into `net`, validating
    /// count and shapes.
    ///
    /// This is the parameter half of [`crate::TrainSession::resume`],
    /// exposed separately so a checkpoint can feed *serving* directly —
    /// [`FrozenModel::from_checkpoint`] rebuilds the architecture, calls
    /// this, and freezes, without ever constructing a training session.
    /// Restored parameters have their gradients cleared and their versions
    /// bumped (stale cached packed weight plans are invalidated).
    ///
    /// [`FrozenModel::from_checkpoint`]: https://docs.rs/ff-serve
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CheckpointMismatch`] when the parameter count or
    /// any shape disagrees with the network.
    pub fn restore_params(&self, net: &mut Sequential) -> Result<()> {
        let mut params = net.params_mut();
        if params.len() != self.params.len() {
            return Err(CoreError::CheckpointMismatch {
                message: format!(
                    "checkpoint holds {} parameter tensors but the network has {}",
                    self.params.len(),
                    params.len()
                ),
            });
        }
        for (index, (param, saved)) in params.iter_mut().zip(&self.params).enumerate() {
            if param.value.shape() != saved.shape() {
                return Err(CoreError::CheckpointMismatch {
                    message: format!(
                        "parameter {index} has shape {:?} in the network but {:?} in the \
                         checkpoint",
                        param.value.shape(),
                        saved.shape()
                    ),
                });
            }
            *param.value = saved.clone();
            // Stale gradients never survive a step boundary; make that
            // explicit, and invalidate any cached packed weight plans.
            param.grad.scale_inplace(0.0);
            param.mark_updated();
        }
        Ok(())
    }
}

/// The canonical file name of a checkpoint taken at `global_step`
/// (`step-0000000042.ff8c`): zero-padded so lexicographic and numeric order
/// agree, which is what [`rotate`] and [`latest`] key on.
pub fn step_file_name(global_step: u64) -> String {
    format!("step-{global_step:010}.ff8c")
}

/// Parses a file name produced by [`step_file_name`] back into its step.
///
/// Returns `None` for anything else, so foreign files in a checkpoint
/// directory are never touched by [`rotate`].
pub fn parse_step_file_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("step-")?.strip_suffix(".ff8c")?;
    if digits.len() != 10 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Lists the step-named checkpoints in `dir`, sorted oldest → newest.
fn step_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let entries = std::fs::read_dir(dir).map_err(|e| CoreError::Io {
        message: format!("listing {}: {e}", dir.display()),
    })?;
    let mut found = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| CoreError::Io {
            message: format!("listing {}: {e}", dir.display()),
        })?;
        let name = entry.file_name();
        if let Some(step) = name.to_str().and_then(parse_step_file_name) {
            found.push((step, entry.path()));
        }
    }
    found.sort();
    Ok(found)
}

/// Deletes all but the newest `keep_last` step-named checkpoints
/// (`step-<step>.ff8c`, see [`step_file_name`]) in `dir` and returns the
/// removed paths, oldest first.
///
/// Files not matching the step naming scheme are ignored, so a checkpoint
/// directory can hold other artifacts safely. Edge devices checkpoint
/// often and have small disks — this is the GC half of the auto-checkpoint
/// story ([`crate::TrainSession::auto_checkpoint`] calls it after every
/// save).
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] when `keep_last` is zero (rotating
/// away every checkpoint is never what a caller wants) and
/// [`CoreError::Io`] on filesystem failures.
pub fn rotate(dir: impl AsRef<Path>, keep_last: usize) -> Result<Vec<PathBuf>> {
    if keep_last == 0 {
        return Err(CoreError::InvalidConfig {
            message: "rotate keep_last must be at least 1".to_string(),
        });
    }
    let found = step_checkpoints(dir.as_ref())?;
    let excess = found.len().saturating_sub(keep_last);
    let mut removed = Vec::with_capacity(excess);
    for (_, path) in found.into_iter().take(excess) {
        std::fs::remove_file(&path).map_err(|e| CoreError::Io {
            message: format!("removing {}: {e}", path.display()),
        })?;
        removed.push(path);
    }
    Ok(removed)
}

/// The newest step-named checkpoint in `dir` (by step, not mtime), or
/// `None` when the directory holds none — the resume entry point after a
/// crash: `latest(dir)? → Checkpoint::load → TrainSession::resume`.
///
/// # Errors
///
/// Returns [`CoreError::Io`] when the directory cannot be listed.
pub fn latest(dir: impl AsRef<Path>) -> Result<Option<PathBuf>> {
    Ok(step_checkpoints(dir.as_ref())?.pop().map(|(_, path)| path))
}

fn algorithm_code(algorithm: Algorithm) -> (u8, u8) {
    match algorithm {
        Algorithm::BpFp32 => (0, 0),
        Algorithm::BpInt8 => (1, 0),
        Algorithm::BpUi8 => (2, 0),
        Algorithm::BpGdai8 => (3, 0),
        Algorithm::FfInt8 { lookahead } => (4, u8::from(lookahead)),
        Algorithm::FfFp32 { lookahead } => (5, u8::from(lookahead)),
    }
}

fn algorithm_from_code(kind: u8, lookahead: u8) -> Result<Algorithm> {
    if lookahead > 1 {
        return Err(corrupt(format!("lookahead flag {lookahead} is not 0/1")));
    }
    let lookahead = lookahead == 1;
    match kind {
        0 => Ok(Algorithm::BpFp32),
        1 => Ok(Algorithm::BpInt8),
        2 => Ok(Algorithm::BpUi8),
        3 => Ok(Algorithm::BpGdai8),
        4 => Ok(Algorithm::FfInt8 { lookahead }),
        5 => Ok(Algorithm::FfFp32 { lookahead }),
        _ => Err(corrupt(format!("unknown algorithm kind {kind}"))),
    }
}

fn corrupt(message: String) -> CoreError {
    CoreError::Checkpoint(CodecError::Corrupt { message })
}

/// Serialized size of `tensors` in a record: rank + dims + f32 payload each.
fn tensors_bytes(tensors: &[Tensor]) -> usize {
    tensors
        .iter()
        .map(|t| 4 + 4 * t.ndim() + 4 * t.data().len())
        .sum()
}

fn write_tensor(record: &mut RecordWriter, tensor: &Tensor) {
    record.put_u32(tensor.ndim() as u32);
    for &dim in tensor.shape() {
        record.put_u32(dim as u32);
    }
    record.put_f32s(tensor.data());
}

fn read_tensor(record: &mut Reader<'_>, context: &'static str) -> Result<Tensor> {
    let ndim = record.get_u32(context)? as usize;
    if ndim == 0 || ndim > MAX_NDIM {
        return Err(corrupt(format!(
            "{context}: tensor rank {ndim} out of range"
        )));
    }
    let mut shape = Vec::with_capacity(ndim);
    let mut len: usize = 1;
    for _ in 0..ndim {
        let dim = record.get_u32(context)? as usize;
        len = len
            .checked_mul(dim)
            .ok_or_else(|| corrupt(format!("{context}: tensor dimensions overflow")))?;
        shape.push(dim);
    }
    let data = record.get_f32s(len, context)?;
    Ok(Tensor::from_vec(&shape, data)?)
}

/// Serializes a checkpoint into its versioned `FF8C` byte artifact.
///
/// Round-trips through [`load_bytes`] are bit-exact: every `f32`/`f64` is
/// stored as its IEEE-754 bit pattern and re-serializing a loaded
/// checkpoint reproduces the artifact verbatim.
pub fn save_bytes(checkpoint: &Checkpoint) -> Vec<u8> {
    let params_bytes = 4 + tensors_bytes(&checkpoint.params);
    let optim_bytes = 4 + checkpoint
        .trainer
        .slots
        .iter()
        .map(|slot| match slot {
            OptimizerSlot::Sgd { velocity } => 1 + 4 + tensors_bytes(velocity),
            OptimizerSlot::Adam { m, v, .. } => 1 + 8 + 4 + tensors_bytes(m) + tensors_bytes(v),
        })
        .sum::<usize>();
    let progress_bytes = match &checkpoint.progress {
        Some(progress) => 1 + 4 + 4 * progress.order.len() + 8 + 4 + 8 * 3 + 8,
        None => 1,
    };
    // Header + meta/options/history records (small) + the sized records.
    let estimate =
        512 + 17 * checkpoint.history.len() + params_bytes + optim_bytes + progress_bytes;
    let mut writer = Writer::with_capacity(&CHECKPOINT_MAGIC, CHECKPOINT_VERSION, estimate);
    let (kind, lookahead) = algorithm_code(checkpoint.algorithm);
    writer.record(|r| {
        r.put_u8(kind);
        r.put_u8(lookahead);
        r.put_u64(checkpoint.epoch);
        r.put_u64(checkpoint.global_step);
        for word in checkpoint.trainer.rng {
            r.put_u64(word);
        }
    });
    let o = &checkpoint.options;
    writer.record(|r| {
        r.put_u64(o.epochs as u64);
        r.put_u64(o.batch_size as u64);
        r.put_f32(o.learning_rate);
        r.put_f32(o.momentum);
        r.put_f32(o.theta);
        r.put_f32(o.lambda_init);
        r.put_f32(o.lambda_step);
        r.put_f32(o.lambda_max);
        r.put_u64(o.eval_every as u64);
        r.put_u64(o.max_eval_samples as u64);
        r.put_u64(o.seed);
        r.put_u8(match o.optimizer {
            OptimizerKind::Sgd => OPTIMIZER_SGD,
            OptimizerKind::Adam => OPTIMIZER_ADAM,
        });
        r.put_u64(o.grad_shards as u64);
    });
    writer.record(|r| {
        r.put_string(&checkpoint.history.name);
        r.put_u32(checkpoint.history.len() as u32);
        for record in checkpoint.history.records() {
            r.put_u64(record.epoch as u64);
            r.put_f32(record.train_loss);
            r.put_f32(record.train_accuracy);
            r.put_u8(u8::from(record.test_accuracy.is_some()));
            r.put_f32(record.test_accuracy.unwrap_or(0.0));
            r.put_f64(record.seconds);
        }
    });
    writer.record(|r| {
        r.put_u32(checkpoint.params.len() as u32);
        for tensor in &checkpoint.params {
            write_tensor(r, tensor);
        }
    });
    writer.record(|r| {
        r.put_u32(checkpoint.trainer.slots.len() as u32);
        for slot in &checkpoint.trainer.slots {
            match slot {
                OptimizerSlot::Sgd { velocity } => {
                    r.put_u8(OPTIMIZER_SGD);
                    r.put_u32(velocity.len() as u32);
                    for tensor in velocity {
                        write_tensor(r, tensor);
                    }
                }
                OptimizerSlot::Adam { m, v, step_count } => {
                    r.put_u8(OPTIMIZER_ADAM);
                    r.put_u64(*step_count);
                    // m and v grow in lockstep, so one count covers both; an
                    // uneven hand-built slot fails the record-length check
                    // at load with a typed error.
                    r.put_u32(m.len() as u32);
                    for tensor in m {
                        write_tensor(r, tensor);
                    }
                    for tensor in v {
                        write_tensor(r, tensor);
                    }
                }
            }
        }
    });
    writer.record(|r| match &checkpoint.progress {
        None => r.put_u8(0),
        Some(progress) => {
            r.put_u8(1);
            r.put_u32(progress.order.len() as u32);
            for &index in &progress.order {
                r.put_u32(index as u32);
            }
            r.put_u64(progress.next as u64);
            r.put_f32(progress.loss_sum);
            r.put_u64(progress.batch_count);
            r.put_u64(progress.correct);
            r.put_u64(progress.seen);
            r.put_f64(progress.elapsed_seconds);
        }
    });
    writer.into_vec()
}

/// Deserializes an artifact produced by [`save_bytes`].
///
/// # Errors
///
/// Never panics: any malformed, truncated or trailing-garbage input maps to
/// a typed [`CoreError::Checkpoint`]. Structural sanity (algorithm kind,
/// RNG state, option validity, permutation bounds against the actual
/// dataset) is checked here or at [`crate::TrainSession::resume`] time.
pub fn load_bytes(bytes: &[u8]) -> Result<Checkpoint> {
    let map_header = |e: CodecError| CoreError::Checkpoint(e);
    let (mut reader, version) = Reader::with_versions(
        bytes,
        &CHECKPOINT_MAGIC,
        CHECKPOINT_MIN_VERSION..=CHECKPOINT_VERSION,
    )
    .map_err(map_header)?;

    let mut meta = reader.record("meta record")?;
    let kind = meta.get_u8("algorithm kind")?;
    let lookahead = meta.get_u8("lookahead flag")?;
    let algorithm = algorithm_from_code(kind, lookahead)?;
    let epoch = meta.get_u64("epoch counter")?;
    let global_step = meta.get_u64("global step counter")?;
    let mut rng = [0u64; 4];
    for word in &mut rng {
        *word = meta.get_u64("rng state")?;
    }
    if rng == [0; 4] {
        return Err(corrupt("all-zero RNG state".to_string()));
    }
    meta.finish("meta record")?;

    let mut opt = reader.record("options record")?;
    let mut options = TrainOptions {
        epochs: opt.get_u64("epochs")? as usize,
        batch_size: opt.get_u64("batch_size")? as usize,
        learning_rate: opt.get_f32("learning_rate")?,
        momentum: opt.get_f32("momentum")?,
        theta: opt.get_f32("theta")?,
        lambda_init: opt.get_f32("lambda_init")?,
        lambda_step: opt.get_f32("lambda_step")?,
        lambda_max: opt.get_f32("lambda_max")?,
        eval_every: opt.get_u64("eval_every")? as usize,
        max_eval_samples: opt.get_u64("max_eval_samples")? as usize,
        seed: opt.get_u64("seed")?,
        optimizer: match opt.get_u8("optimizer kind")? {
            OPTIMIZER_SGD => OptimizerKind::Sgd,
            OPTIMIZER_ADAM => OptimizerKind::Adam,
            other => return Err(corrupt(format!("unknown optimizer kind {other}"))),
        },
        grad_shards: 1,
    };
    if version >= 3 {
        options.grad_shards = opt.get_u64("grad_shards")? as usize;
    }
    opt.finish("options record")?;
    options
        .validate()
        .map_err(|e| corrupt(format!("stored options are invalid: {e}")))?;

    let mut hist = reader.record("history record")?;
    let name = hist.get_string(MAX_NAME_LEN, "history name")?;
    let mut history = TrainingHistory::new(name);
    let count = hist.get_u32("history length")?;
    for _ in 0..count {
        let record_epoch = hist.get_u64("history epoch")? as usize;
        let train_loss = hist.get_f32("history train loss")?;
        let train_accuracy = hist.get_f32("history train accuracy")?;
        let has_test = hist.get_u8("history test flag")?;
        let test_value = hist.get_f32("history test accuracy")?;
        let seconds = hist.get_f64("history seconds")?;
        if has_test > 1 {
            return Err(corrupt(format!("history test flag {has_test} is not 0/1")));
        }
        let test_accuracy = (has_test == 1).then_some(test_value);
        history.record_timed(
            record_epoch,
            train_loss,
            train_accuracy,
            test_accuracy,
            seconds,
        );
    }
    hist.finish("history record")?;

    let mut params_record = reader.record("params record")?;
    let param_count = params_record.get_u32("param count")?;
    let mut params = Vec::new();
    for _ in 0..param_count {
        params.push(read_tensor(&mut params_record, "param tensor")?);
    }
    params_record.finish("params record")?;

    let mut optim = reader.record("optimizers record")?;
    let slot_count = optim.get_u32("optimizer count")?;
    let mut slots = Vec::new();
    for _ in 0..slot_count {
        let slot = match optim.get_u8("optimizer slot kind")? {
            OPTIMIZER_SGD => {
                let buffer_count = optim.get_u32("momentum buffer count")?;
                let mut velocity = Vec::new();
                for _ in 0..buffer_count {
                    velocity.push(read_tensor(&mut optim, "momentum tensor")?);
                }
                OptimizerSlot::Sgd { velocity }
            }
            OPTIMIZER_ADAM => {
                let step_count = optim.get_u64("Adam step count")?;
                let moment_count = optim.get_u32("Adam moment count")?;
                let mut m = Vec::new();
                for _ in 0..moment_count {
                    m.push(read_tensor(&mut optim, "Adam first-moment tensor")?);
                }
                let mut v = Vec::new();
                for _ in 0..moment_count {
                    v.push(read_tensor(&mut optim, "Adam second-moment tensor")?);
                }
                for (index, (a, b)) in m.iter().zip(&v).enumerate() {
                    if a.shape() != b.shape() {
                        return Err(corrupt(format!(
                            "Adam moment pair {index} has mismatched shapes {:?} vs {:?}",
                            a.shape(),
                            b.shape()
                        )));
                    }
                }
                OptimizerSlot::Adam { m, v, step_count }
            }
            other => return Err(corrupt(format!("unknown optimizer slot kind {other}"))),
        };
        slots.push(slot);
    }
    optim.finish("optimizers record")?;

    let mut prog = reader.record("progress record")?;
    let present = prog.get_u8("progress flag")?;
    let progress = match present {
        0 => None,
        1 => {
            let order_len = prog.get_u32("epoch order length")? as usize;
            prog.ensure_fits(order_len, 4, "epoch order")?;
            let mut order = Vec::with_capacity(order_len);
            for _ in 0..order_len {
                order.push(prog.get_u32("epoch order index")? as usize);
            }
            Some(EpochProgress {
                order,
                next: prog.get_u64("epoch cursor")? as usize,
                loss_sum: prog.get_f32("epoch loss sum")?,
                batch_count: prog.get_u64("epoch batch count")?,
                correct: prog.get_u64("epoch correct count")?,
                seen: prog.get_u64("epoch seen count")?,
                elapsed_seconds: prog.get_f64("epoch elapsed seconds")?,
            })
        }
        other => return Err(corrupt(format!("progress flag {other} is not 0/1"))),
    };
    prog.finish("progress record")?;
    reader.finish("checkpoint")?;

    Ok(Checkpoint {
        algorithm,
        options,
        epoch,
        global_step,
        trainer: TrainerState { rng, slots },
        history,
        params,
        progress,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint() -> Checkpoint {
        let mut history = TrainingHistory::new("FF-INT8");
        history.record_timed(0, 1.25, 0.5, Some(0.45), 3.5);
        history.record_timed(1, 0.75, 0.0, None, 2.25);
        Checkpoint {
            algorithm: Algorithm::FfInt8 { lookahead: true },
            options: TrainOptions::fast_test(),
            epoch: 2,
            global_step: 40,
            trainer: TrainerState {
                rng: [1, 2, 3, 4],
                slots: vec![
                    OptimizerSlot::Sgd {
                        velocity: vec![Tensor::ones(&[2, 3]), Tensor::zeros(&[3])],
                    },
                    OptimizerSlot::Adam {
                        m: vec![Tensor::ones(&[4])],
                        v: vec![Tensor::zeros(&[4])],
                        step_count: 17,
                    },
                ],
            },
            history,
            params: vec![Tensor::ones(&[2, 3]), Tensor::zeros(&[3])],
            progress: Some(EpochProgress {
                order: vec![3, 1, 0, 2],
                next: 2,
                loss_sum: 0.5,
                batch_count: 1,
                correct: 0,
                seen: 0,
                elapsed_seconds: 0.125,
            }),
        }
    }

    /// Serializes `checkpoint` in the historic version-2 layout (no
    /// `grad_shards` word) — the artifacts every pre-sharding build wrote.
    fn save_bytes_v2(checkpoint: &Checkpoint) -> Vec<u8> {
        let mut writer = Writer::new(&CHECKPOINT_MAGIC, 2);
        let (kind, lookahead) = algorithm_code(checkpoint.algorithm);
        writer.record(|r| {
            r.put_u8(kind);
            r.put_u8(lookahead);
            r.put_u64(checkpoint.epoch);
            r.put_u64(checkpoint.global_step);
            for word in checkpoint.trainer.rng {
                r.put_u64(word);
            }
        });
        let o = &checkpoint.options;
        writer.record(|r| {
            r.put_u64(o.epochs as u64);
            r.put_u64(o.batch_size as u64);
            r.put_f32(o.learning_rate);
            r.put_f32(o.momentum);
            r.put_f32(o.theta);
            r.put_f32(o.lambda_init);
            r.put_f32(o.lambda_step);
            r.put_f32(o.lambda_max);
            r.put_u64(o.eval_every as u64);
            r.put_u64(o.max_eval_samples as u64);
            r.put_u64(o.seed);
            r.put_u8(match o.optimizer {
                OptimizerKind::Sgd => OPTIMIZER_SGD,
                OptimizerKind::Adam => OPTIMIZER_ADAM,
            });
        });
        writer.record(|r| {
            r.put_string(&checkpoint.history.name);
            r.put_u32(checkpoint.history.len() as u32);
            for record in checkpoint.history.records() {
                r.put_u64(record.epoch as u64);
                r.put_f32(record.train_loss);
                r.put_f32(record.train_accuracy);
                r.put_u8(u8::from(record.test_accuracy.is_some()));
                r.put_f32(record.test_accuracy.unwrap_or(0.0));
                r.put_f64(record.seconds);
            }
        });
        writer.record(|r| {
            r.put_u32(checkpoint.params.len() as u32);
            for tensor in &checkpoint.params {
                write_tensor(r, tensor);
            }
        });
        writer.record(|r| {
            r.put_u32(checkpoint.trainer.slots.len() as u32);
            for slot in &checkpoint.trainer.slots {
                match slot {
                    OptimizerSlot::Sgd { velocity } => {
                        r.put_u8(OPTIMIZER_SGD);
                        r.put_u32(velocity.len() as u32);
                        for tensor in velocity {
                            write_tensor(r, tensor);
                        }
                    }
                    OptimizerSlot::Adam { m, v, step_count } => {
                        r.put_u8(OPTIMIZER_ADAM);
                        r.put_u64(*step_count);
                        r.put_u32(m.len() as u32);
                        for tensor in m {
                            write_tensor(r, tensor);
                        }
                        for tensor in v {
                            write_tensor(r, tensor);
                        }
                    }
                }
            }
        });
        writer.record(|r| match &checkpoint.progress {
            None => r.put_u8(0),
            Some(progress) => {
                r.put_u8(1);
                r.put_u32(progress.order.len() as u32);
                for &index in &progress.order {
                    r.put_u32(index as u32);
                }
                r.put_u64(progress.next as u64);
                r.put_f32(progress.loss_sum);
                r.put_u64(progress.batch_count);
                r.put_u64(progress.correct);
                r.put_u64(progress.seen);
                r.put_f64(progress.elapsed_seconds);
            }
        });
        writer.into_vec()
    }

    #[test]
    fn version_2_artifacts_load_with_default_grad_shards() {
        // Pre-sharding builds wrote version 2 without the grad_shards word;
        // their runs were by definition unsharded, so loading one must give
        // grad_shards = 1 and everything else verbatim.
        let mut checkpoint = sample_checkpoint();
        checkpoint.options.grad_shards = 1;
        let v2_bytes = save_bytes_v2(&checkpoint);
        let restored = load_bytes(&v2_bytes).unwrap();
        assert_eq!(restored, checkpoint);
        assert_eq!(restored.options.grad_shards, 1);
        // Version 1 (and future versions) stay rejected.
        let mut too_old = v2_bytes.clone();
        too_old[4] = 1;
        assert!(matches!(
            load_bytes(&too_old),
            Err(CoreError::Checkpoint(CodecError::UnsupportedVersion { .. }))
        ));
        let mut too_new = v2_bytes;
        too_new[4] = (CHECKPOINT_VERSION + 1) as u8;
        assert!(load_bytes(&too_new).is_err());
    }

    #[test]
    fn sharded_options_roundtrip_in_version_3() {
        let mut checkpoint = sample_checkpoint();
        checkpoint.options.grad_shards = 4;
        let bytes = save_bytes(&checkpoint);
        let restored = load_bytes(&bytes).unwrap();
        assert_eq!(restored.options.grad_shards, 4);
        assert_eq!(restored, checkpoint);
        assert_eq!(save_bytes(&restored), bytes);
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let checkpoint = sample_checkpoint();
        let bytes = save_bytes(&checkpoint);
        let restored = load_bytes(&bytes).unwrap();
        assert_eq!(restored, checkpoint);
        assert_eq!(save_bytes(&restored), bytes, "re-serialization is verbatim");
    }

    #[test]
    fn boundary_checkpoint_roundtrips_without_progress() {
        let mut checkpoint = sample_checkpoint();
        checkpoint.progress = None;
        checkpoint.algorithm = Algorithm::BpGdai8;
        let restored = load_bytes(&save_bytes(&checkpoint)).unwrap();
        assert_eq!(restored, checkpoint);
    }

    #[test]
    fn algorithm_codes_roundtrip() {
        for algorithm in [
            Algorithm::BpFp32,
            Algorithm::BpInt8,
            Algorithm::BpUi8,
            Algorithm::BpGdai8,
            Algorithm::FfInt8 { lookahead: true },
            Algorithm::FfInt8 { lookahead: false },
            Algorithm::FfFp32 { lookahead: true },
            Algorithm::FfFp32 { lookahead: false },
        ] {
            let (kind, lookahead) = algorithm_code(algorithm);
            assert_eq!(algorithm_from_code(kind, lookahead).unwrap(), algorithm);
        }
        assert!(algorithm_from_code(9, 0).is_err());
        assert!(algorithm_from_code(4, 2).is_err());
    }

    #[test]
    fn zero_rng_state_is_rejected() {
        let mut checkpoint = sample_checkpoint();
        checkpoint.trainer.rng = [0; 4];
        assert!(matches!(
            load_bytes(&save_bytes(&checkpoint)),
            Err(CoreError::Checkpoint(_))
        ));
    }

    #[test]
    fn invalid_stored_options_are_rejected() {
        let mut checkpoint = sample_checkpoint();
        checkpoint.options.learning_rate = f32::NAN;
        assert!(matches!(
            load_bytes(&save_bytes(&checkpoint)),
            Err(CoreError::Checkpoint(_))
        ));
    }

    #[test]
    fn adam_options_and_slots_roundtrip() {
        let mut checkpoint = sample_checkpoint();
        checkpoint.options.optimizer = OptimizerKind::Adam;
        checkpoint.trainer.slots = vec![OptimizerSlot::Adam {
            m: vec![Tensor::ones(&[2, 3]), Tensor::zeros(&[3])],
            v: vec![Tensor::zeros(&[2, 3]), Tensor::ones(&[3])],
            step_count: 123,
        }];
        let bytes = save_bytes(&checkpoint);
        let restored = load_bytes(&bytes).unwrap();
        assert_eq!(restored, checkpoint);
        assert_eq!(save_bytes(&restored), bytes);
    }

    #[test]
    fn uneven_adam_moments_fail_to_load_with_typed_error() {
        let mut checkpoint = sample_checkpoint();
        checkpoint.trainer.slots = vec![OptimizerSlot::Adam {
            m: vec![Tensor::ones(&[3])],
            v: Vec::new(),
            step_count: 1,
        }];
        assert!(matches!(
            load_bytes(&save_bytes(&checkpoint)),
            Err(CoreError::Checkpoint(_))
        ));
    }

    #[test]
    fn step_file_names_roundtrip_and_reject_foreign_names() {
        assert_eq!(step_file_name(42), "step-0000000042.ff8c");
        assert_eq!(parse_step_file_name("step-0000000042.ff8c"), Some(42));
        assert_eq!(
            parse_step_file_name(&step_file_name(u32::MAX as u64)),
            Some(u32::MAX as u64)
        );
        for foreign in [
            "step-42.ff8c",         // unpadded
            "step-00000000xx.ff8c", // non-digits
            "model.ff8c",           // no step prefix
            "step-0000000042.ff8s", // wrong extension
            "step-0000000042",      // no extension
        ] {
            assert_eq!(parse_step_file_name(foreign), None, "{foreign}");
        }
    }

    #[test]
    fn rotate_keeps_newest_and_ignores_foreign_files() {
        let dir = std::env::temp_dir().join("ff8c_rotate_unit");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        for step in [2u64, 30, 4, 100] {
            std::fs::write(dir.join(step_file_name(step)), b"x").unwrap();
        }
        std::fs::write(dir.join("keep-me.txt"), b"y").unwrap();
        assert_eq!(latest(&dir).unwrap(), Some(dir.join(step_file_name(100))));
        let removed = rotate(&dir, 2).unwrap();
        assert_eq!(
            removed,
            vec![dir.join(step_file_name(2)), dir.join(step_file_name(4))]
        );
        assert!(dir.join(step_file_name(30)).exists());
        assert!(dir.join(step_file_name(100)).exists());
        assert!(dir.join("keep-me.txt").exists());
        // Already within budget: nothing to do.
        assert!(rotate(&dir, 2).unwrap().is_empty());
        assert!(matches!(
            rotate(&dir, 0),
            Err(CoreError::InvalidConfig { .. })
        ));
        assert!(matches!(
            rotate(dir.join("missing-subdir"), 1),
            Err(CoreError::Io { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_save_load_roundtrip() {
        let checkpoint = sample_checkpoint();
        let path = std::env::temp_dir().join("ff8c_unit_roundtrip.ff8c");
        checkpoint.save(&path).unwrap();
        let restored = Checkpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(restored, checkpoint);
        assert!(matches!(
            Checkpoint::load("/nonexistent/dir/x.ff8c"),
            Err(CoreError::Io { .. })
        ));
    }
}
