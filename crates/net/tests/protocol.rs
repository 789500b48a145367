//! `FF8P` loader robustness: the same bar the `FF8S` and `FF8C` fuzz
//! suites set — truncation at every byte offset and random single-byte
//! flips yield typed errors (or a different but valid frame), never a
//! panic, for **every** frame kind.

use ff_net::protocol::{
    decode_frame, decode_frame_meta, encode_frame, encode_frame_meta, read_frame, sample_frames,
};
use ff_net::{FrameMeta, NetError, DEFAULT_MAX_FRAME_BYTES};
use proptest::prelude::*;

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

#[test]
fn every_stream_truncation_is_a_typed_error() {
    // The outer length-prefixed framing layer: cutting the stream anywhere
    // (inside the length prefix or the frame) is Closed or a decode error.
    for frame in sample_frames() {
        let mut wire = Vec::new();
        ff_net::protocol::write_frame(&mut wire, &frame, DEFAULT_MAX_FRAME_BYTES).unwrap();
        for len in 0..wire.len() {
            let mut cursor = std::io::Cursor::new(&wire[..len]);
            assert!(
                read_frame(&mut cursor, DEFAULT_MAX_FRAME_BYTES).is_err(),
                "{frame:?}: stream prefix of {len} bytes must not parse"
            );
        }
    }
}

/// The header meta every metadata-fuzz case uses: a non-default model
/// id (both bytes of the flags word populated) and a real token, so the
/// sweeps below actually traverse model-id and auth bytes.
fn fuzz_meta() -> FrameMeta {
    FrameMeta {
        model_id: 0x0201,
        token: Some("tenant-a-secret".to_string()),
    }
}

#[test]
fn every_truncation_of_v3_metadata_frames_is_a_typed_error() {
    // The sweep above encodes with *default* meta (empty auth record);
    // this sweep re-runs every truncation with the model-id flags
    // word and a populated auth token in the header, which shifts every
    // later offset.
    for frame in sample_frames() {
        let bytes = encode_frame_meta(&frame, &fuzz_meta());
        for len in 0..bytes.len() {
            match decode_frame_meta(&bytes[..len]) {
                Err(NetError::Codec(_)) | Err(NetError::Frame { .. }) => {}
                other => panic!("{frame:?}: v3 meta prefix of {len} bytes gave {other:?}"),
            }
        }
    }
}

#[test]
fn every_byte_flip_over_model_id_and_auth_fields_is_safe() {
    // Deterministic single-byte flips across the v3 header: magic, version,
    // the model-id flags word, the auth record length and every token byte.
    // Each flip must decode to a typed error or a *valid* frame whose meta
    // simply differs (a flipped model id / token is a different credential,
    // not a crash) — and never to the original token with a mutated byte
    // accepted silently.
    let meta = fuzz_meta();
    let header_span = 8 + 4 + 4 + meta.token.as_ref().unwrap().len() + 4;
    for frame in sample_frames() {
        let bytes = encode_frame_meta(&frame, &meta);
        for offset in 0..header_span.min(bytes.len()) {
            for flip in [0x01u8, 0x80, 0xA5, 0xFF] {
                let mut corrupted = bytes.clone();
                corrupted[offset] ^= flip;
                match decode_frame_meta(&corrupted) {
                    Ok((decoded_frame, decoded_meta)) => {
                        // A surviving decode is internally consistent: the
                        // flip landed in the meta (different model id or
                        // token) or in the payload (different frame) —
                        // re-encoding reproduces the corrupted bytes.
                        assert_eq!(
                            encode_frame_meta(&decoded_frame, &decoded_meta),
                            corrupted,
                            "{frame:?}: flip {flip:#x} at {offset} decoded inconsistently"
                        );
                    }
                    Err(NetError::Codec(_)) | Err(NetError::Frame { .. }) => {}
                    Err(other) => {
                        panic!("{frame:?}: flip {flip:#x} at {offset} gave {other:?}")
                    }
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn single_byte_flips_never_panic(
        kind_index in 0usize..10,
        position_fraction in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let frames = sample_frames();
        let frame = &frames[kind_index % frames.len()];
        let mut bytes = encode_frame(frame);
        let position = ((bytes.len() as f64) * position_fraction) as usize % bytes.len();
        bytes[position] ^= flip;
        match decode_frame(&bytes) {
            // Flips landing in value payloads legitimately decode to a
            // different frame; anything structural must be a typed error.
            Ok(_) | Err(NetError::Codec(_)) | Err(NetError::Frame { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error kind: {other:?}"),
        }
    }

    #[test]
    fn random_bytes_never_panic_the_stream_reader(
        len in 0usize..256,
        seed in 0u64..u64::MAX,
    ) {
        // Arbitrary garbage: must produce SOME result without panicking,
        // with allocations bounded by the frame limit.
        let mut state = seed | 1;
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        let mut cursor = std::io::Cursor::new(bytes);
        let _ = read_frame(&mut cursor, 4096);
    }
}
