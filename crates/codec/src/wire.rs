//! The wire core shared by the `FF8P` (serving, `ff-net`) and `FF8D`
//! (cluster training, `ff-dist`) socket protocols:
//!
//! - **one envelope**: a little-endian `u32` byte length, then exactly that
//!   many artifact bytes. [`write_frame`] checks the cap before writing
//!   anything, [`read_frame`] before allocating; [`frame_len`] is the check
//!   alone, for readers that fill the prefix themselves;
//! - **one code table**: [`CodeTable`] holds one `(value, tag, name)` row
//!   per variant of a wire enum ([`wire_kinds!`](crate::wire_kinds)
//!   declares message kinds with it), so wire tag, dense counter index and
//!   metric name cannot disagree;
//! - **one canonical-decoding sweep**: [`sweep`], the exhaustive fuzz
//!   regime both protocols' tests run.
//!
//! Each protocol maps [`FrameError`] into its own error type with one
//! `From` impl, so callers keep seeing the variants they always did.

use crate::{CodecError, Reader};
use std::fmt;
use std::io::{Read, Write};

/// Why a length-prefixed frame could not be written or read.
#[derive(Debug)]
pub enum FrameError {
    /// The frame — about to be written, or declared by a peer's length
    /// prefix — exceeds the cap.
    TooLarge {
        /// The frame's length in bytes.
        len: usize,
        /// The cap in force.
        max: usize,
    },
    /// The stream failed; an end of stream before or inside a frame is
    /// [`std::io::ErrorKind::UnexpectedEof`].
    Io(std::io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            FrameError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// The one frame-length check: `len` must fit the cap and the `u32` prefix.
fn check_len(len: usize, max: usize) -> Result<u32, FrameError> {
    match u32::try_from(len) {
        Ok(prefix) if len <= max => Ok(prefix),
        _ => Err(FrameError::TooLarge { len, max }),
    }
}

/// Decodes a frame's 4-byte length prefix and checks it against `max`.
///
/// # Errors
///
/// [`FrameError::TooLarge`] when the declared length exceeds `max`.
pub fn frame_len(prefix: [u8; 4], max: usize) -> Result<usize, FrameError> {
    let len = u32::from_le_bytes(prefix) as usize;
    check_len(len, max)?;
    Ok(len)
}

/// Writes `artifact` as one length-prefixed frame and flushes, returning
/// the frame's wire footprint (artifact plus the 4-byte prefix).
///
/// # Errors
///
/// [`FrameError::TooLarge`] when `artifact` exceeds `max` (nothing is
/// written), [`FrameError::Io`] when the stream fails.
pub fn write_frame(w: &mut impl Write, artifact: &[u8], max: usize) -> Result<usize, FrameError> {
    let prefix = check_len(artifact.len(), max)?;
    w.write_all(&prefix.to_le_bytes())?;
    w.write_all(artifact)?;
    w.flush()?;
    Ok(artifact.len() + 4)
}

/// Reads one length-prefixed frame and returns its artifact bytes.
///
/// # Errors
///
/// [`FrameError::TooLarge`] when the declared length exceeds `max`
/// (checked before allocating; the stream cannot be resynchronized
/// afterwards), [`FrameError::Io`] on end of stream or a stream failure.
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Vec<u8>, FrameError> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let mut artifact = vec![0u8; frame_len(prefix, max)?];
    r.read_exact(&mut artifact)?;
    Ok(artifact)
}

/// One `(value, tag, name)` row per variant of a fieldless wire enum: the
/// value, its wire tag and its stable snake_case (or display) name. A
/// row's position is the value's dense index — what per-kind counter
/// arrays are indexed by — so appending a row is the only way to add a
/// variant.
#[derive(Debug)]
pub struct CodeTable<T: 'static>(pub &'static [(T, u8, &'static str)]);

impl<T: Copy + PartialEq> CodeTable<T> {
    /// The dense index (row position) of `value`.
    ///
    /// # Panics
    ///
    /// Panics when `value` has no row — a table missing a variant is a
    /// build defect that the first test touching that variant reports.
    pub fn index(&self, value: T) -> usize {
        self.0
            .iter()
            .position(|row| row.0 == value)
            .expect("every value has a code-table row")
    }

    /// The wire tag of `value`.
    pub fn tag(&self, value: T) -> u8 {
        self.0[self.index(value)].1
    }

    /// The stable name of `value`.
    pub fn name(&self, value: T) -> &'static str {
        self.0[self.index(value)].2
    }

    /// The value a wire tag stands for; `None` for a tag no row carries.
    pub fn from_tag(&self, tag: u8) -> Option<T> {
        self.0.iter().find(|row| row.1 == tag).map(|row| row.0)
    }

    /// Reads a one-byte tag and resolves it through the table.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when the buffer is exhausted,
    /// [`CodecError::Corrupt`] naming `what` for a tag no row carries.
    pub fn read(&self, r: &mut Reader<'_>, what: &'static str) -> Result<T, CodecError> {
        let tag = r.get_u8(what)?;
        self.from_tag(tag).ok_or_else(|| CodecError::Corrupt {
            message: format!("unknown {what} {tag}"),
        })
    }

    /// Every value, in row order.
    pub fn values(&self) -> impl Iterator<Item = T> {
        let rows: &'static [(T, u8, &'static str)] = self.0;
        rows.iter().map(|row| row.0)
    }
}

/// Declares a message enum's kind set from one row per kind: a private
/// fieldless `$kind` enum, the `$table` [`CodeTable`] of
/// `(variant, tag, name)` rows, and a private `$msg::kind(&self)` mapping
/// each `$msg` variant to the row of the same name.
///
/// ```
/// enum Msg {
///     Ping { id: u64 },
///     Bye,
/// }
/// ff_codec::wire_kinds! {
///     Msg => MsgKind in KINDS {
///         Ping = 1, "ping";
///         Bye = 9, "bye";
///     }
/// }
/// assert_eq!(KINDS.tag(Msg::Bye.kind()), 9);
/// assert_eq!(KINDS.index(Msg::Bye.kind()), 1);
/// assert_eq!(KINDS.name(Msg::Ping { id: 3 }.kind()), "ping");
/// assert_eq!(KINDS.from_tag(1), Some(MsgKind::Ping));
/// assert_eq!(KINDS.from_tag(2), None);
/// assert_eq!(KINDS.values().count(), 2);
/// ```
#[macro_export]
macro_rules! wire_kinds {
    ($msg:ident => $kind:ident in $table:ident {
        $($variant:ident = $tag:literal, $name:literal;)+
    }) => {
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum $kind {
            $($variant,)+
        }

        const $table: $crate::wire::CodeTable<$kind> =
            $crate::wire::CodeTable(&[$(($kind::$variant, $tag, $name),)+]);

        impl $msg {
            fn kind(&self) -> $kind {
                match self {
                    $($msg::$variant { .. } => $kind::$variant,)+
                }
            }
        }
    };
}

/// The exhaustive canonical-decoding sweep over encoded `samples`.
///
/// `roundtrip` decodes bytes and re-encodes the result; `typed` accepts
/// the decode errors the protocol promises. The sweep asserts:
///
/// - every sample round-trips verbatim;
/// - every strict prefix of a sample is a typed error;
/// - for every offset and every non-zero XOR mask, the corrupted sample is
///   a typed error **or** decodes to a value that re-encodes to exactly
///   the corrupted bytes — one canonical form, no silently dropped bits.
///
/// # Panics
///
/// Panics on the first violation, naming the sample, offset and mask.
pub fn sweep<E: fmt::Debug>(
    samples: &[Vec<u8>],
    roundtrip: impl Fn(&[u8]) -> Result<Vec<u8>, E>,
    typed: impl Fn(&E) -> bool,
) {
    for (i, sample) in samples.iter().enumerate() {
        match roundtrip(sample) {
            Ok(again) => assert!(again == *sample, "sample {i} does not round-trip verbatim"),
            Err(e) => panic!("sample {i} does not decode: {e:?}"),
        }
        for len in 0..sample.len() {
            match roundtrip(&sample[..len]) {
                Err(e) if typed(&e) => {}
                other => panic!("sample {i}: {len}-byte prefix gave {other:?}"),
            }
        }
        let mut corrupted = sample.clone();
        for offset in 0..sample.len() {
            for mask in 1..=u8::MAX {
                corrupted[offset] ^= mask;
                match roundtrip(&corrupted) {
                    Ok(again) if again == corrupted => {}
                    Err(e) if typed(&e) => {}
                    other => {
                        panic!("sample {i}: mask {mask:#04x} at offset {offset} gave {other:?}")
                    }
                }
                corrupted[offset] ^= mask;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Cursor, ErrorKind};

    fn is_eof(e: &FrameError) -> bool {
        matches!(e, FrameError::Io(io) if io.kind() == ErrorKind::UnexpectedEof)
    }

    #[test]
    fn the_write_cap_is_checked_before_anything_is_written() {
        let mut wire = Vec::new();
        let error = write_frame(&mut wire, &[7; 17], 16).unwrap_err();
        assert!(matches!(error, FrameError::TooLarge { len: 17, max: 16 }));
        assert!(wire.is_empty(), "nothing written for an oversized frame");
        assert_eq!(write_frame(&mut wire, &[7; 16], 16).unwrap(), 20);
    }

    #[test]
    fn a_hostile_prefix_is_rejected_before_allocation() {
        let mut cursor = Cursor::new([u32::MAX.to_le_bytes(), [0; 4]].concat());
        let error = read_frame(&mut cursor, 1 << 20).unwrap_err();
        assert!(matches!(error, FrameError::TooLarge { len, .. } if len == u32::MAX as usize));
        assert_eq!(cursor.position(), 4, "the body was never read");
    }

    #[test]
    fn eof_inside_the_prefix_or_the_body_is_an_io_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload", 64).unwrap();
        for len in 0..wire.len() {
            let error = read_frame(&mut &wire[..len], 64).unwrap_err();
            assert!(is_eof(&error), "{len}-byte stream gave {error:?}");
        }
    }

    #[test]
    fn a_stream_of_frames_roundtrips() {
        let artifacts: Vec<Vec<u8>> = (0..5u8).map(|n| vec![n; usize::from(n) * 3]).collect();
        let mut wire = Vec::new();
        for artifact in &artifacts {
            write_frame(&mut wire, artifact, 64).unwrap();
        }
        let mut cursor = &wire[..];
        for artifact in &artifacts {
            assert_eq!(&read_frame(&mut cursor, 64).unwrap(), artifact);
        }
        assert!(is_eof(&read_frame(&mut cursor, 64).unwrap_err()));
    }

    #[test]
    fn seeded_garbage_streams_end_in_typed_errors() {
        for seed in 0..256u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            // Mostly zero bytes, so prefixes under the cap are common.
            let garbage: Vec<u8> = (0..seed)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1);
                    let byte = (state >> 56) as u8;
                    if byte & 3 == 0 {
                        byte >> 3
                    } else {
                        0
                    }
                })
                .collect();
            let mut cursor = &garbage[..];
            let error = loop {
                match read_frame(&mut cursor, 32) {
                    Ok(artifact) => assert!(artifact.len() <= 32),
                    Err(e) => break e,
                }
            };
            let too_large = matches!(error, FrameError::TooLarge { max: 32, .. });
            assert!(too_large || is_eof(&error), "seed {seed}: {error:?}");
        }
    }

    #[test]
    #[should_panic(expected = "mask 0x80 at offset 0")]
    fn the_sweep_reports_a_silently_dropped_bit() {
        // One length byte, then that many payload bytes — but the decoder
        // ignores the length byte's high bit, so the 0x80 flip decodes to
        // bytes that re-encode differently.
        let lax = |bytes: &[u8]| match bytes.split_first() {
            Some((&len, body)) if body.len() == usize::from(len & 0x7F) => {
                Ok([&[len & 0x7F], body].concat())
            }
            _ => Err("length mismatch"),
        };
        sweep(&[vec![2, 5, 6]], lax, |_| true);
    }
}
