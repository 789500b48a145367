//! # ff-codec
//!
//! The shared binary-codec machinery behind the workspace's `FF8*` family:
//! the `FF8S` frozen-model and `FF8C` training-checkpoint files (`ff-serve`,
//! `ff-core`) and the `FF8P` serving and `FF8D` cluster-training wire
//! protocols (`ff-net`, `ff-dist`).
//!
//! All four follow the same conventions, which this crate encodes once:
//!
//! - a 4-byte magic followed by a little-endian `u16` format version and a
//!   `u16` flags word;
//! - **length-prefixed records**: every variable-sized section is written as
//!   a `u32` byte length followed by exactly that many payload bytes, so a
//!   reader can skip or bound-check a section before parsing it;
//! - all integers little-endian, all `f32`/`f64` stored as their IEEE-754
//!   bit patterns (round-trips are bit-exact by construction);
//! - **panic-free reading**: every read is preceded by a remaining-length
//!   check and malformed input maps to a typed [`CodecError`], never a
//!   panic.
//!
//! The two wire protocols additionally share the [`wire`] core: one
//! length-prefixed envelope with a frame cap, one `(value, tag, name)`
//! [`wire::CodeTable`] behind their message kinds and error codes, and one
//! exhaustive [`wire::sweep`] that holds both to the canonical-form
//! contract — a decode that succeeds re-encodes to exactly the bytes it
//! came from.
//!
//! [`Writer`] builds an artifact in one buffer, each record written in
//! place; [`Reader`] walks one. Tensor data goes through the slice codecs
//! ([`RecordWriter::put_f32s`], [`RecordWriter::put_i8s`],
//! [`Reader::get_f32s`], [`Reader::get_i8s`]), which produce exactly the
//! bytes of the per-element calls in one pass. Consumers wrap
//! [`CodecError`] in their own error type (`ServeError`, `CoreError`) via a
//! `From` impl so the typed variants survive the crate boundary.
//!
//! # Examples
//!
//! ```
//! use ff_codec::{CodecError, Reader, Writer};
//!
//! const MAGIC: [u8; 4] = *b"FF8X";
//!
//! let mut w = Writer::new(&MAGIC, 1);
//! w.record(|r| {
//!     r.put_u32(7);
//!     r.put_f32(1.5);
//! });
//! let bytes = w.into_vec();
//!
//! let mut reader = Reader::new(&bytes, &MAGIC, 1)?;
//! let mut rec = reader.record("payload")?;
//! assert_eq!(rec.get_u32("count")?, 7);
//! assert_eq!(rec.get_f32("value")?, 1.5);
//! rec.finish("payload")?;
//! reader.finish("artifact")?;
//! # Ok::<(), CodecError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bytes::{Buf, BufMut};
use std::fmt;

pub mod wire;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CodecError>;

/// Typed error surface shared by every `FF8*` loader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer does not start with the expected magic bytes.
    BadMagic {
        /// The magic the reader expected.
        expected: [u8; 4],
    },
    /// The artifact declares a format version this build cannot read.
    UnsupportedVersion {
        /// The version found in the header.
        version: u16,
    },
    /// The buffer ends before a required field.
    Truncated {
        /// Which field or section was being read.
        context: &'static str,
    },
    /// The artifact is structurally invalid (bad lengths, out-of-range
    /// values, trailing garbage, ...).
    Corrupt {
        /// What is inconsistent.
        message: String,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic { expected } => write!(
                f,
                "bad magic (expected {:?})",
                std::str::from_utf8(expected).unwrap_or("????")
            ),
            CodecError::UnsupportedVersion { version } => {
                write!(f, "unsupported format version {version}")
            }
            CodecError::Truncated { context } => write!(f, "truncated while reading {context}"),
            CodecError::Corrupt { message } => write!(f, "corrupt artifact: {message}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Builds an `FF8*` artifact: magic + version header, then any mix of flat
/// fields and length-prefixed records.
///
/// The artifact lives in one buffer: a record reserves its 4-byte length
/// prefix, its payload is written straight after it, and the prefix is
/// patched once the payload is complete — no payload is ever copied.
#[derive(Debug)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Starts an artifact with the standard header: 4 magic bytes, a
    /// little-endian `u16` format version and a zero `u16` reserved-flags
    /// word.
    pub fn new(magic: &[u8; 4], version: u16) -> Self {
        Self::with_capacity(magic, version, 64)
    }

    /// Like [`Writer::new`], but pre-sizes the artifact buffer. Callers that
    /// can estimate the serialized size (e.g. from tensor element counts)
    /// avoid the doubling reallocations of growing from scratch.
    pub fn with_capacity(magic: &[u8; 4], version: u16, capacity: usize) -> Self {
        Self::with_flags(magic, version, 0, capacity)
    }

    /// Like [`Writer::with_capacity`], but writes an explicit `flags` word
    /// instead of the reserved zero — for formats that promote the header
    /// flags into a real field (the `FF8P` model id in protocol version 3).
    pub fn with_flags(magic: &[u8; 4], version: u16, flags: u16, capacity: usize) -> Self {
        let mut buf = Vec::with_capacity(capacity.max(8));
        buf.put_slice(magic);
        buf.put_u16_le(version);
        buf.put_u16_le(flags);
        Writer { buf }
    }

    /// Appends a length-prefixed record whose payload is produced by `f`,
    /// written in place in the artifact's buffer.
    ///
    /// # Panics
    ///
    /// Panics when the payload exceeds the `u32` length prefix (4 GiB) —
    /// a loud save-time failure instead of a silently corrupt artifact.
    pub fn record<F: FnOnce(&mut RecordWriter<'_>)>(&mut self, f: F) {
        let prefix = self.buf.len();
        self.buf.put_u32_le(0);
        f(&mut RecordWriter { buf: &mut self.buf });
        let len = u32::try_from(self.buf.len() - prefix - 4)
            .expect("record payload exceeds the u32 length prefix (4 GiB)");
        self.buf[prefix..prefix + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Appends a `u32` outside any record (header-level field).
    pub fn put_u32(&mut self, value: u32) {
        self.buf.put_u32_le(value);
    }

    /// Finishes the artifact and returns its bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Elements [`RecordWriter::put_f32s`] encodes per staging pass: 4 KiB of
/// bytes, small enough to stay in L1 on the way to the artifact buffer.
const F32_CHUNK: usize = 1024;

/// Writes one record's payload (see [`Writer::record`]) at the end of the
/// artifact's buffer.
#[derive(Debug)]
pub struct RecordWriter<'a> {
    buf: &'a mut Vec<u8>,
}

impl RecordWriter<'_> {
    /// Appends a single byte.
    pub fn put_u8(&mut self, value: u8) {
        self.buf.put_u8(value);
    }

    /// Appends a signed byte (two's complement).
    pub fn put_i8(&mut self, value: i8) {
        self.buf.put_i8(value);
    }

    /// Appends every byte of `values` (two's complement) — the bytes of one
    /// [`RecordWriter::put_i8`] per element, in one pass.
    pub fn put_i8s(&mut self, values: &[i8]) {
        self.buf.extend(values.iter().map(|&v| v as u8));
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, value: u32) {
        self.buf.put_u32_le(value);
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, value: u64) {
        self.buf.put_u64_le(value);
    }

    /// Appends an `f32` as its IEEE-754 bit pattern.
    pub fn put_f32(&mut self, value: f32) {
        self.buf.put_f32_le(value);
    }

    /// Appends every `f32` of `values` as its IEEE-754 bit pattern — the
    /// bytes of one [`RecordWriter::put_f32`] per element, in one pass.
    pub fn put_f32s(&mut self, values: &[f32]) {
        self.buf.reserve(4 * values.len());
        let mut staged = [[0u8; 4]; F32_CHUNK];
        for chunk in values.chunks(F32_CHUNK) {
            for (dst, v) in staged.iter_mut().zip(chunk) {
                *dst = v.to_le_bytes();
            }
            self.buf
                .extend_from_slice(staged[..chunk.len()].as_flattened());
        }
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, value: f64) {
        self.buf.put_f64_le(value);
    }

    /// Appends raw bytes.
    pub fn put_slice(&mut self, src: &[u8]) {
        self.buf.put_slice(src);
    }

    /// Appends a `u32`-length-prefixed UTF-8 string.
    ///
    /// # Panics
    ///
    /// Panics when the string exceeds the `u32` length prefix (4 GiB).
    pub fn put_string(&mut self, s: &str) {
        let len = u32::try_from(s.len()).expect("string exceeds the u32 length prefix (4 GiB)");
        self.buf.put_u32_le(len);
        self.buf.put_slice(s.as_bytes());
    }
}

/// Walks an `FF8*` artifact with checked, panic-free reads.
///
/// Created by [`Reader::new`], which validates the magic and version.
/// Sections are consumed in order; [`Reader::finish`] asserts no trailing
/// bytes remain.
#[derive(Debug)]
pub struct Reader<'a> {
    cursor: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Opens an artifact, validating the 4-byte magic, the format version
    /// and the reserved flags word.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadMagic`] / [`CodecError::UnsupportedVersion`] /
    /// [`CodecError::Truncated`] when the header is wrong or incomplete.
    pub fn new(bytes: &'a [u8], magic: &[u8; 4], version: u16) -> Result<Self> {
        Self::with_versions(bytes, magic, version..=version).map(|(reader, _)| reader)
    }

    /// Like [`Reader::new`], but accepts any format version inside
    /// `supported` and returns the version actually declared by the
    /// artifact — the hook for formats that evolve by **minor-version
    /// bump**, where a current build keeps decoding artifacts written by
    /// older peers (`FF8P` deadline fields, future `FF8C`/`FF8S` columns).
    ///
    /// # Errors
    ///
    /// As [`Reader::new`]; a declared version outside `supported` is
    /// [`CodecError::UnsupportedVersion`].
    pub fn with_versions(
        bytes: &'a [u8],
        magic: &[u8; 4],
        supported: std::ops::RangeInclusive<u16>,
    ) -> Result<(Self, u16)> {
        Self::with_versions_flags(bytes, magic, supported)
            .map(|(reader, version, _flags)| (reader, version))
    }

    /// Like [`Reader::with_versions`], but also returns the header's flags
    /// word instead of discarding it — the counterpart of
    /// [`Writer::with_flags`] for formats whose flags carry data.
    ///
    /// # Errors
    ///
    /// As [`Reader::with_versions`].
    pub fn with_versions_flags(
        bytes: &'a [u8],
        magic: &[u8; 4],
        supported: std::ops::RangeInclusive<u16>,
    ) -> Result<(Self, u16, u16)> {
        let mut reader = Reader { cursor: bytes };
        reader.need(4, "magic")?;
        let mut found = [0u8; 4];
        reader.cursor.copy_to_slice(&mut found);
        if &found != magic {
            return Err(CodecError::BadMagic { expected: *magic });
        }
        let declared = reader.get_u16("format version")?;
        if !supported.contains(&declared) {
            return Err(CodecError::UnsupportedVersion { version: declared });
        }
        let flags = reader.get_u16("header flags")?;
        Ok((reader, declared, flags))
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.cursor.remaining()
    }

    /// Checks that `count` elements of `elem_size` bytes each can still be
    /// read from this reader.
    ///
    /// Call it **before** allocating for a count decoded from the artifact:
    /// it bounds the allocation by what the payload can actually hold, so a
    /// corrupt length field yields a typed error instead of a huge
    /// speculative reservation.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when the product overflows or exceeds the
    /// remaining payload.
    pub fn ensure_fits(&self, count: usize, elem_size: usize, context: &'static str) -> Result<()> {
        match count.checked_mul(elem_size) {
            Some(bytes) if bytes <= self.remaining() => Ok(()),
            _ => Err(CodecError::Truncated { context }),
        }
    }

    fn need(&self, needed: usize, context: &'static str) -> Result<()> {
        if self.cursor.remaining() < needed {
            return Err(CodecError::Truncated { context });
        }
        Ok(())
    }

    /// Splits the next `count * elem_size` bytes off the cursor, after the
    /// [`Reader::ensure_fits`] bound.
    fn take(&mut self, count: usize, elem_size: usize, context: &'static str) -> Result<&'a [u8]> {
        self.ensure_fits(count, elem_size, context)?;
        let (bytes, rest) = self.cursor.split_at(count * elem_size);
        self.cursor = rest;
        Ok(bytes)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self, context: &'static str) -> Result<u8> {
        self.need(1, context)?;
        Ok(self.cursor.get_u8())
    }

    /// Reads a signed byte.
    pub fn get_i8(&mut self, context: &'static str) -> Result<i8> {
        self.need(1, context)?;
        Ok(self.cursor.get_i8())
    }

    /// Reads `count` signed bytes — what `count` [`Reader::get_i8`] calls
    /// return, in one pass.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`], before anything is allocated, when the
    /// payload holds fewer than `count` bytes.
    pub fn get_i8s(&mut self, count: usize, context: &'static str) -> Result<Vec<i8>> {
        Ok(self
            .take(count, 1, context)?
            .iter()
            .map(|&b| b as i8)
            .collect())
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self, context: &'static str) -> Result<u16> {
        self.need(2, context)?;
        Ok(self.cursor.get_u16_le())
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self, context: &'static str) -> Result<u32> {
        self.need(4, context)?;
        Ok(self.cursor.get_u32_le())
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self, context: &'static str) -> Result<u64> {
        self.need(8, context)?;
        Ok(self.cursor.get_u64_le())
    }

    /// Reads a little-endian IEEE-754 `f32`.
    pub fn get_f32(&mut self, context: &'static str) -> Result<f32> {
        self.need(4, context)?;
        Ok(self.cursor.get_f32_le())
    }

    /// Reads `count` little-endian IEEE-754 `f32`s — what `count`
    /// [`Reader::get_f32`] calls return, in one pass.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`], before anything is allocated, when the
    /// payload holds fewer than `count` values or `4 * count` overflows.
    pub fn get_f32s(&mut self, count: usize, context: &'static str) -> Result<Vec<f32>> {
        let (words, _) = self.take(count, 4, context)?.as_chunks::<4>();
        Ok(words.iter().map(|&w| f32::from_le_bytes(w)).collect())
    }

    /// Reads a little-endian IEEE-754 `f64`.
    pub fn get_f64(&mut self, context: &'static str) -> Result<f64> {
        self.need(8, context)?;
        Ok(self.cursor.get_f64_le())
    }

    /// Reads a `u32`-length-prefixed UTF-8 string, bounding its size.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] when the declared length exceeds `max_len`
    /// or the bytes are not valid UTF-8.
    pub fn get_string(&mut self, max_len: usize, context: &'static str) -> Result<String> {
        let len = self.get_u32(context)? as usize;
        if len > max_len {
            return Err(CodecError::Corrupt {
                message: format!("{context}: string length {len} exceeds limit {max_len}"),
            });
        }
        let bytes = self.take(len, 1, context)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Corrupt {
            message: format!("{context}: invalid UTF-8"),
        })
    }

    /// Reads a `u32`-length-prefixed record and returns a sub-reader scoped
    /// to exactly its payload.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when the buffer ends before the declared
    /// record length.
    pub fn record(&mut self, context: &'static str) -> Result<Reader<'a>> {
        let len = self.get_u32(context)? as usize;
        let payload = self.take(len, 1, context)?;
        Ok(Reader { cursor: payload })
    }

    /// Copies `dst.len()` raw bytes out.
    pub fn get_slice(&mut self, dst: &mut [u8], context: &'static str) -> Result<()> {
        self.need(dst.len(), context)?;
        self.cursor.copy_to_slice(dst);
        Ok(())
    }

    /// Asserts that every byte has been consumed.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] naming the trailing byte count otherwise.
    pub fn finish(&self, context: &'static str) -> Result<()> {
        if self.cursor.remaining() != 0 {
            return Err(CodecError::Corrupt {
                message: format!(
                    "{context}: {} unread trailing bytes",
                    self.cursor.remaining()
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 4] = *b"FF8T";

    fn sample() -> Vec<u8> {
        let mut w = Writer::new(&MAGIC, 3);
        w.put_u32(42);
        w.record(|r| {
            r.put_u8(1);
            r.put_i8(-2);
            r.put_u32(3);
            r.put_u64(4);
            r.put_f32(5.5);
            r.put_f64(-6.25);
            r.put_string("seven");
            r.put_slice(&[8, 9]);
        });
        w.into_vec()
    }

    #[test]
    fn roundtrip_every_field_kind() {
        let bytes = sample();
        let mut reader = Reader::new(&bytes, &MAGIC, 3).unwrap();
        assert_eq!(reader.get_u32("header field").unwrap(), 42);
        let mut rec = reader.record("record").unwrap();
        assert_eq!(rec.get_u8("u8").unwrap(), 1);
        assert_eq!(rec.get_i8("i8").unwrap(), -2);
        assert_eq!(rec.get_u32("u32").unwrap(), 3);
        assert_eq!(rec.get_u64("u64").unwrap(), 4);
        assert_eq!(rec.get_f32("f32").unwrap(), 5.5);
        assert_eq!(rec.get_f64("f64").unwrap(), -6.25);
        assert_eq!(rec.get_string(16, "string").unwrap(), "seven");
        let mut two = [0u8; 2];
        rec.get_slice(&mut two, "slice").unwrap();
        assert_eq!(two, [8, 9]);
        rec.finish("record").unwrap();
        reader.finish("artifact").unwrap();
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = sample();
        for len in 0..bytes.len() {
            let outcome = (|| -> Result<()> {
                let mut reader = Reader::new(&bytes[..len], &MAGIC, 3)?;
                reader.get_u32("header field")?;
                let mut rec = reader.record("record")?;
                rec.get_u8("u8")?;
                rec.get_string(16, "string")?;
                reader.finish("artifact")
            })();
            assert!(outcome.is_err(), "prefix of {len} bytes must not parse");
        }
    }

    #[test]
    fn magic_and_version_are_validated() {
        let mut bytes = sample();
        bytes[0] = b'X';
        assert!(matches!(
            Reader::new(&bytes, &MAGIC, 3),
            Err(CodecError::BadMagic { .. })
        ));
        let bytes = sample();
        assert!(matches!(
            Reader::new(&bytes, &MAGIC, 4),
            Err(CodecError::UnsupportedVersion { version: 3 })
        ));
    }

    #[test]
    fn version_ranges_accept_minor_versions() {
        let bytes = sample(); // declares version 3
        let (_, declared) = Reader::with_versions(&bytes, &MAGIC, 1..=3).unwrap();
        assert_eq!(declared, 3);
        let (_, declared) = Reader::with_versions(&bytes, &MAGIC, 3..=7).unwrap();
        assert_eq!(declared, 3);
        assert!(matches!(
            Reader::with_versions(&bytes, &MAGIC, 4..=7),
            Err(CodecError::UnsupportedVersion { version: 3 })
        ));
        assert!(matches!(
            Reader::with_versions(&bytes, &MAGIC, 1..=2),
            Err(CodecError::UnsupportedVersion { version: 3 })
        ));
    }

    #[test]
    fn header_flags_roundtrip_and_default_to_zero() {
        let mut w = Writer::with_flags(&MAGIC, 2, 0xBEEF, 16);
        w.record(|r| r.put_u32(5));
        let bytes = w.into_vec();
        let (mut reader, version, flags) =
            Reader::with_versions_flags(&bytes, &MAGIC, 1..=3).unwrap();
        assert_eq!((version, flags), (2, 0xBEEF));
        let mut rec = reader.record("record").unwrap();
        assert_eq!(rec.get_u32("value").unwrap(), 5);
        // The flag-blind reader still accepts the artifact (flags are
        // ignored, not validated, exactly as before).
        assert!(Reader::new(&bytes, &MAGIC, 2).is_ok());
        // And the default writer emits zero flags.
        let plain = Writer::new(&MAGIC, 1).into_vec();
        let (_, _, flags) = Reader::with_versions_flags(&plain, &MAGIC, 1..=1).unwrap();
        assert_eq!(flags, 0);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample();
        bytes.push(0);
        let mut reader = Reader::new(&bytes, &MAGIC, 3).unwrap();
        reader.get_u32("header field").unwrap();
        let _ = reader.record("record").unwrap();
        assert!(matches!(
            reader.finish("artifact"),
            Err(CodecError::Corrupt { .. })
        ));
    }

    #[test]
    fn string_length_is_bounded() {
        let mut w = Writer::new(&MAGIC, 1);
        w.record(|r| r.put_string("abcdef"));
        let bytes = w.into_vec();
        let mut reader = Reader::new(&bytes, &MAGIC, 1).unwrap();
        let mut rec = reader.record("record").unwrap();
        assert!(matches!(
            rec.get_string(3, "bounded"),
            Err(CodecError::Corrupt { .. })
        ));
    }

    #[test]
    fn record_scopes_its_payload() {
        let mut w = Writer::new(&MAGIC, 1);
        w.record(|r| r.put_u32(1));
        w.record(|r| r.put_u32(2));
        let bytes = w.into_vec();
        let mut reader = Reader::new(&bytes, &MAGIC, 1).unwrap();
        let mut first = reader.record("first").unwrap();
        assert_eq!(first.get_u32("one").unwrap(), 1);
        // Reading past the record's payload is a truncation, not a bleed
        // into the next record.
        assert!(matches!(
            first.get_u32("past end"),
            Err(CodecError::Truncated { .. })
        ));
        let mut second = reader.record("second").unwrap();
        assert_eq!(second.get_u32("two").unwrap(), 2);
        reader.finish("artifact").unwrap();
    }

    /// `len` floats cycling through NaN payloads, signed zeros, subnormals,
    /// infinities and seeded arbitrary bit patterns.
    fn awkward_f32s(len: usize) -> Vec<f32> {
        const SPECIAL: [u32; 8] = [
            0x7fc0_0001, // quiet NaN with a payload
            0xffbf_ffff, // negative signalling NaN
            0x8000_0000, // -0.0
            0x0000_0001, // smallest subnormal
            0x807f_ffff, // largest negative subnormal
            0x7f80_0000, // +inf
            0xff80_0000, // -inf
            0x3fc0_0000, // 1.5
        ];
        let mut state = 0x9e37_79b9_u32;
        (0..len)
            .map(|i| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                let bits = if i % 3 == 0 {
                    SPECIAL[i / 3 % 8]
                } else {
                    state
                };
                f32::from_bits(bits)
            })
            .collect()
    }

    fn written(f: impl FnOnce(&mut RecordWriter<'_>)) -> Vec<u8> {
        let mut w = Writer::new(&MAGIC, 1);
        w.record(f);
        w.into_vec()
    }

    const SLICE_LENS: [usize; 7] = [0, 1, 2, 1023, 1024, 1025, 3 * 1024 + 7];

    #[test]
    fn put_f32s_writes_the_bytes_of_put_f32() {
        for len in SLICE_LENS {
            let values = awkward_f32s(len);
            let bulk = written(|r| r.put_f32s(&values));
            let single = written(|r| values.iter().for_each(|&v| r.put_f32(v)));
            assert_eq!(bulk, single, "{len} values");

            let mut reader = Reader::new(&bulk, &MAGIC, 1).unwrap();
            let mut rec = reader.record("record").unwrap();
            let back = rec.get_f32s(len, "values").unwrap();
            rec.finish("record").unwrap();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(&values), "{len} values");
        }
    }

    #[test]
    fn put_i8s_writes_the_bytes_of_put_i8() {
        for len in SLICE_LENS {
            let values: Vec<i8> = (0..len).map(|i| (i * 37 % 256) as u8 as i8).collect();
            let bulk = written(|r| r.put_i8s(&values));
            let single = written(|r| values.iter().for_each(|&v| r.put_i8(v)));
            assert_eq!(bulk, single, "{len} values");

            let mut reader = Reader::new(&bulk, &MAGIC, 1).unwrap();
            let mut rec = reader.record("record").unwrap();
            assert_eq!(rec.get_i8s(len, "values").unwrap(), values);
            rec.finish("record").unwrap();
        }
    }

    #[test]
    fn records_written_in_place_get_their_length_prefixes() {
        let big = awkward_f32s(3 * 1024 + 7);
        let mut w = Writer::new(&MAGIC, 1);
        w.record(|r| r.put_u32(7));
        w.record(|_| {});
        w.record(|r| r.put_f32s(&big));
        w.record(|r| r.put_u8(9));
        let bytes = w.into_vec();

        let prefix = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let big_len = 4 * big.len();
        assert_eq!(bytes.len(), 8 + (4 + 4) + 4 + (4 + big_len) + (4 + 1));
        assert_eq!(prefix(8), 4);
        assert_eq!(prefix(16), 0);
        assert_eq!(prefix(20) as usize, big_len);
        assert_eq!(prefix(24 + big_len), 1);

        let mut reader = Reader::new(&bytes, &MAGIC, 1).unwrap();
        assert_eq!(reader.record("first").unwrap().get_u32("seven").unwrap(), 7);
        reader.record("empty").unwrap().finish("empty").unwrap();
        assert_eq!(reader.record("big").unwrap().remaining(), big_len);
        assert_eq!(reader.record("last").unwrap().get_u8("nine").unwrap(), 9);
        reader.finish("artifact").unwrap();
    }

    #[test]
    fn display_covers_every_variant() {
        for e in [
            CodecError::BadMagic { expected: MAGIC },
            CodecError::UnsupportedVersion { version: 9 },
            CodecError::Truncated { context: "header" },
            CodecError::Corrupt {
                message: "trailing".into(),
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
