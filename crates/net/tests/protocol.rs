//! `FF8P` decoding is panic-free and canonical: the exhaustive
//! [`ff_codec::wire::sweep`] over every sample frame — every strict prefix
//! is a typed error, and every byte offset under every non-zero XOR mask
//! is a typed error or a frame that re-encodes to exactly the corrupted
//! bytes. The envelope around the frames is tested once, in `ff-codec`.

use ff_net::protocol::{
    decode_frame, decode_frame_meta, encode_frame, encode_frame_meta, sample_frames,
};
use ff_net::{FrameMeta, NetError};

/// The populated header meta: a non-default model id (both bytes of the
/// flags word set) and a real token, so every later offset shifts.
fn populated_meta() -> FrameMeta {
    FrameMeta {
        model_id: 0x0201,
        token: Some("tenant-a-secret".to_string()),
    }
}

fn sweep_under(meta: &FrameMeta) {
    let samples: Vec<Vec<u8>> = sample_frames()
        .iter()
        .map(|frame| encode_frame_meta(frame, meta))
        .collect();
    ff_codec::wire::sweep(
        &samples,
        |bytes| decode_frame_meta(bytes).map(|(frame, meta)| encode_frame_meta(&frame, &meta)),
        |error| matches!(error, NetError::Codec(_) | NetError::Frame { .. }),
    );
}

/// Every kind under default meta (empty auth record, model id 0).
#[test]
fn single_byte_flips_never_panic() {
    sweep_under(&FrameMeta::default());
}

/// The populated meta, so the sweep traverses model-id and auth bytes.
#[test]
fn every_byte_flip_over_model_id_and_auth_fields_is_safe() {
    sweep_under(&populated_meta());
}

/// The meta-less entry points (`encode_frame` / `decode_frame`) hold the
/// same prefix contract as the sweep's meta-carrying ones.
#[test]
fn every_truncation_of_every_kind_is_a_typed_error() {
    for frame in sample_frames() {
        let bytes = encode_frame(&frame);
        for len in 0..bytes.len() {
            match decode_frame(&bytes[..len]) {
                Err(NetError::Codec(_)) | Err(NetError::Frame { .. }) => {}
                other => panic!("{frame:?}: prefix of {len} bytes gave {other:?}"),
            }
        }
    }
}

/// The same prefix contract under the populated meta, whose model-id
/// flags word and auth record shift every later offset.
#[test]
fn every_truncation_of_v3_metadata_frames_is_a_typed_error() {
    for frame in sample_frames() {
        let bytes = encode_frame_meta(&frame, &populated_meta());
        for len in 0..bytes.len() {
            match decode_frame_meta(&bytes[..len]) {
                Err(NetError::Codec(_)) | Err(NetError::Frame { .. }) => {}
                other => panic!("{frame:?}: v3 meta prefix of {len} bytes gave {other:?}"),
            }
        }
    }
}
