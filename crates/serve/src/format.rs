//! The versioned `FF8S` binary artifact format.
//!
//! # Byte layout (version 1, all integers little-endian)
//!
//! ```text
//! header:
//!   magic            4 × u8   = "FF8S"
//!   format_version   u16      = 1
//!   flags            u16      = 0 (reserved)
//!   input_features   u32
//!   num_classes      u32
//!   layer_count      u32
//! then, per layer, one length-prefixed record:
//!   record_len       u32      — bytes in the record after this prefix
//!   kind             u8       — 1 = dense, 2 = flatten
//!   dense payload (kind = 1):
//!     layer_flags    u8       — bit 0: fused ReLU
//!     out_features   u32
//!     in_features    u32
//!     weight_scale   f32      — per-tensor symmetric scale, positive finite
//!     bias           out × f32
//!     weight_codes   out·in × i8  — row-major [out, in]
//!   flatten payload (kind = 2): empty
//! ```
//!
//! The format is a *frozen snapshot*, so round-tripping is **bit-exact**:
//! INT8 codes are stored verbatim and every `f32` is stored as its IEEE-754
//! bit pattern. A loaded model therefore produces predictions identical to
//! the model that was saved (property-tested in `tests/roundtrip.rs`).
//!
//! # Robustness
//!
//! [`load_bytes`] never panics on malformed input. Every read is preceded by
//! a remaining-length check ([`ServeError::Truncated`]); structural
//! inconsistencies — wrong magic, unknown version or layer kind, a record
//! length that disagrees with its payload, non-finite scales, dimension
//! overflow, trailing garbage — map to typed [`ServeError`] variants.
//!
//! The header/record/checked-read machinery is the shared [`ff_codec`]
//! crate, which the `FF8C` training-checkpoint format (`ff-core`) builds on
//! too; [`ff_codec::CodecError`]s convert losslessly into the matching
//! [`ServeError`] variants.

use crate::model::{FrozenDense, FrozenLayer, FrozenModel};
use crate::{Result, ServeError};
use ff_codec::{Reader, Writer};
use ff_quant::QuantTensor;
use ff_tensor::Tensor;

/// The four magic bytes every artifact starts with.
pub const MAGIC: [u8; 4] = *b"FF8S";

/// The artifact format version this build writes and reads.
pub const FORMAT_VERSION: u16 = 1;

const KIND_DENSE: u8 = 1;
const KIND_FLATTEN: u8 = 2;

/// Serializes a frozen model into its versioned binary artifact.
///
/// # Examples
///
/// ```
/// use ff_models::small_mlp;
/// use ff_serve::{load_bytes, save_bytes, FrozenModel};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), ff_serve::ServeError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let model = FrozenModel::freeze(&small_mlp(12, &[8], 4, &mut rng), 4)?;
/// let bytes = save_bytes(&model);
/// let restored = load_bytes(&bytes)?;
/// assert_eq!(restored.input_features(), 12);
/// # Ok(())
/// # }
/// ```
pub fn save_bytes(model: &FrozenModel) -> Vec<u8> {
    // Record size: kind + flags + dims + scale + f32 biases + i8 codes.
    let record_bytes = |layer: &FrozenLayer| match layer {
        FrozenLayer::Dense(dense) => {
            14 + 4 * dense.out_features() + dense.out_features() * dense.in_features()
        }
        FrozenLayer::Flatten => 1,
    };
    let estimate = 32
        + model
            .layers()
            .iter()
            .map(|l| 4 + record_bytes(l))
            .sum::<usize>();
    let mut writer = Writer::with_capacity(&MAGIC, FORMAT_VERSION, estimate);
    writer.put_u32(model.input_features() as u32);
    writer.put_u32(model.num_classes() as u32);
    writer.put_u32(model.layers().len() as u32);
    for layer in model.layers() {
        writer.record(|record| match layer {
            FrozenLayer::Dense(dense) => {
                record.put_u8(KIND_DENSE);
                record.put_u8(u8::from(dense.has_relu()));
                record.put_u32(dense.out_features() as u32);
                record.put_u32(dense.in_features() as u32);
                record.put_f32(dense.plan().scale());
                record.put_f32s(dense.bias().data());
                record.put_i8s(dense.plan().quant().codes());
            }
            FrozenLayer::Flatten => record.put_u8(KIND_FLATTEN),
        });
    }
    writer.into_vec()
}

/// Deserializes an artifact produced by [`save_bytes`].
///
/// The returned model is fully validated (dimension chain, scales, label
/// capacity) and its weight panels are re-packed eagerly, so it is ready to
/// serve. Round-trips are bit-exact; the byte layout and robustness
/// guarantees are documented at the top of this module's source.
///
/// # Errors
///
/// Returns a typed [`ServeError`] — never panics — for any malformed,
/// truncated, or trailing-garbage input.
pub fn load_bytes(bytes: &[u8]) -> Result<FrozenModel> {
    let mut reader = Reader::new(bytes, &MAGIC, FORMAT_VERSION)?;
    let input_features = reader.get_u32("header")? as usize;
    let num_classes = reader.get_u32("header")? as usize;
    let layer_count = reader.get_u32("header")? as usize;
    let mut layers = Vec::new();
    for index in 0..layer_count {
        let mut record = reader.record("layer record")?;
        layers.push(read_layer(&mut record, index)?);
        if record.remaining() != 0 {
            return Err(ServeError::Corrupt {
                message: format!(
                    "layer {index} record has {} unread trailing bytes",
                    record.remaining()
                ),
            });
        }
    }
    if reader.remaining() != 0 {
        return Err(ServeError::Corrupt {
            message: format!("{} trailing bytes after last layer", reader.remaining()),
        });
    }
    let model = FrozenModel::from_layers(layers, num_classes)?;
    if model.input_features() != input_features {
        return Err(ServeError::Corrupt {
            message: format!(
                "header declares {input_features} input features but the first \
                 dense layer expects {}",
                model.input_features()
            ),
        });
    }
    Ok(model)
}

fn read_layer(record: &mut Reader<'_>, index: usize) -> Result<FrozenLayer> {
    match record.get_u8("layer kind")? {
        KIND_DENSE => read_dense(record, index),
        KIND_FLATTEN => Ok(FrozenLayer::Flatten),
        kind => Err(ServeError::Corrupt {
            message: format!("layer {index} has unknown kind {kind}"),
        }),
    }
}

fn read_dense(record: &mut Reader<'_>, index: usize) -> Result<FrozenLayer> {
    let flags = record.get_u8("dense layer header")?;
    if flags > 1 {
        return Err(ServeError::Corrupt {
            message: format!("dense layer {index} has unknown flag bits {flags:#x}"),
        });
    }
    let relu = flags & 1 == 1;
    let out = record.get_u32("dense layer header")? as usize;
    let inp = record.get_u32("dense layer header")? as usize;
    let scale = record.get_f32("dense layer header")?;
    if out == 0 || inp == 0 {
        return Err(ServeError::Corrupt {
            message: format!("dense layer {index} has zero dimension [{out}, {inp}]"),
        });
    }
    let Some(weight_len) = out.checked_mul(inp) else {
        return Err(ServeError::Corrupt {
            message: format!("dense layer {index} dimensions [{out}, {inp}] overflow"),
        });
    };
    if !scale.is_finite() || scale <= 0.0 {
        return Err(ServeError::Corrupt {
            message: format!("dense layer {index} weight scale {scale} is not positive finite"),
        });
    }
    // The slice readers bound each allocation by what the record can
    // actually hold, so a corrupt header cannot force a huge reservation.
    let bias = record.get_f32s(out, "dense bias")?;
    let codes = record.get_i8s(weight_len, "dense weight codes")?;
    let weight = QuantTensor::from_codes(&[out, inp], codes, scale)?;
    let bias = Tensor::from_vec(&[out], bias)?;
    Ok(FrozenLayer::Dense(FrozenDense::new(weight, bias, relu)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_models::small_mlp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_model() -> FrozenModel {
        let mut rng = StdRng::seed_from_u64(3);
        let net = small_mlp(10, &[8, 6], 4, &mut rng);
        FrozenModel::freeze(&net, 4).unwrap()
    }

    #[test]
    fn save_load_roundtrip_preserves_bytes_and_structure() {
        let model = sample_model();
        let bytes = save_bytes(&model);
        let restored = load_bytes(&bytes).unwrap();
        assert_eq!(restored.layers().len(), model.layers().len());
        assert_eq!(restored.input_features(), model.input_features());
        assert_eq!(restored.num_classes(), model.num_classes());
        // Re-serializing the loaded model reproduces the artifact verbatim.
        assert_eq!(save_bytes(&restored), bytes);
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = save_bytes(&sample_model());
        for len in 0..bytes.len() {
            match load_bytes(&bytes[..len]) {
                Err(ServeError::Truncated { .. }) | Err(ServeError::Corrupt { .. }) => {}
                other => panic!("prefix of {len} bytes: expected error, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut bytes = save_bytes(&sample_model());
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert!(matches!(load_bytes(&wrong), Err(ServeError::BadMagic)));
        bytes[4] = 0xFF; // version low byte
        assert!(matches!(
            load_bytes(&bytes),
            Err(ServeError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = save_bytes(&sample_model());
        bytes.push(0);
        assert!(matches!(
            load_bytes(&bytes),
            Err(ServeError::Corrupt { .. })
        ));
    }

    #[test]
    fn unknown_layer_kind_is_rejected() {
        let model = sample_model();
        let bytes = save_bytes(&model);
        // First record starts right after the 20-byte header; its kind byte
        // is at offset 24 (after the u32 record length).
        let mut bad = bytes.clone();
        bad[24] = 9;
        assert!(matches!(load_bytes(&bad), Err(ServeError::Corrupt { .. })));
    }
}
