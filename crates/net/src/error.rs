//! The typed error surface of the network crate.
//!
//! Frame decoding never panics: every way bytes off the wire can be
//! malformed maps to a [`NetError`] variant, which the shared
//! canonical-decoding sweep ([`ff_codec::wire::sweep`]) exercises
//! exhaustively. I/O failures are carried as rendered text so `NetError` stays
//! `Clone + PartialEq` like every other error type in the workspace.
//!
//! Error **codes** are one [`ff_codec::wire::CodeTable`]: wire byte and
//! display name live in a single row per code, and the retry
//! classification is one method beside it, so the server's replies and the
//! client's retry policy can never disagree about which failures are safe
//! to retry.

use ff_codec::wire::{CodeTable, FrameError};
use ff_codec::CodecError;
use std::fmt;
use std::time::Duration;

/// Machine-readable error category carried by an `FF8P` error reply, so a
/// client can react (retry, fix the request, give up) without parsing the
/// human-readable message.
///
/// Every code's wire byte and display name come from one shared table —
/// the single source of truth for both sides of the connection.
/// "Retryable" means the failure is **transient server state** (overload,
/// drain, restart), so re-sending an *idempotent* request
/// (Predict / Stats / Health) may succeed; request defects
/// ([`ErrorCode::BadRequest`], [`ErrorCode::Protocol`], ...) and expired
/// budgets ([`ErrorCode::DeadlineExceeded`]) never are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request does not match the served model (wrong feature count,
    /// zero rows, ...).
    BadRequest,
    /// The inference engine behind the front-end has shut down.
    ServerClosed,
    /// The request frame declared a length above the server's frame limit.
    FrameTooLarge,
    /// The server could not decode the request frame.
    Protocol,
    /// Any other server-side failure.
    Internal,
    /// The admission queue is full: the request was refused *before*
    /// queuing so the server stays responsive. Retry after the hint carried
    /// by the error reply.
    Overloaded,
    /// The request's deadline budget expired before (or while) the server
    /// could serve it; the answer would be worthless, so none was computed.
    DeadlineExceeded,
    /// The server is draining for shutdown: in-flight requests finish, new
    /// ones are refused. Another instance (or a restart) may serve a retry.
    Draining,
    /// The request's auth token is missing, wrong, or not authorized for
    /// the addressed model. Retrying with the same credentials cannot
    /// succeed.
    Unauthorized,
    /// The request addressed a model id the server's registry does not
    /// hold. Deterministic for a given server configuration, so never
    /// retried.
    UnknownModel,
}

/// One row per code: variant, wire byte, display name.
pub(crate) const CODES: CodeTable<ErrorCode> = CodeTable(&[
    (ErrorCode::BadRequest, 1, "bad request"),
    (ErrorCode::ServerClosed, 2, "server closed"),
    (ErrorCode::FrameTooLarge, 3, "frame too large"),
    (ErrorCode::Protocol, 4, "protocol error"),
    (ErrorCode::Internal, 5, "internal error"),
    (ErrorCode::Overloaded, 6, "overloaded"),
    (ErrorCode::DeadlineExceeded, 7, "deadline exceeded"),
    (ErrorCode::Draining, 8, "draining"),
    (ErrorCode::Unauthorized, 9, "unauthorized"),
    (ErrorCode::UnknownModel, 10, "unknown model"),
]);

impl ErrorCode {
    /// Every defined code, in wire order.
    pub fn all() -> impl Iterator<Item = ErrorCode> {
        CODES.values()
    }

    /// `true` when re-sending an **idempotent** request may succeed — the
    /// shared classification used by server replies and the client's
    /// [`crate::RetryPolicy`].
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::ServerClosed | ErrorCode::Overloaded | ErrorCode::Draining
        )
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(CODES.name(*self))
    }
}

/// Error type for `FF8P` framing, the network server and the client.
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// A frame failed to decode (bad magic/version, truncation, an unknown
    /// kind or code tag, structural corruption) — wraps the shared codec
    /// error.
    Codec(CodecError),
    /// A frame decoded structurally but violates the protocol (zero rows,
    /// reply id mismatch, ...).
    Frame {
        /// What is wrong with the frame.
        message: String,
    },
    /// A peer declared (or a caller tried to send) a frame larger than the
    /// configured limit.
    FrameTooLarge {
        /// Declared frame length in bytes.
        len: usize,
        /// The configured limit.
        max: usize,
    },
    /// The peer replied with a typed `FF8P` error frame.
    Remote {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail from the server.
        message: String,
        /// Server's hint for when a retry might succeed (overload/drain
        /// replies); `None` when the server offered no hint.
        retry_after: Option<Duration>,
    },
    /// The connection was closed by the peer (EOF mid-frame or before one).
    Closed,
    /// A read or write hit the configured timeout.
    Timeout,
    /// Any other socket-level failure, rendered as text.
    Io {
        /// The underlying I/O failure.
        message: String,
    },
}

impl NetError {
    /// `true` when re-sending an **idempotent** request may succeed.
    ///
    /// Transport failures ([`NetError::Closed`], [`NetError::Timeout`],
    /// [`NetError::Io`]) are retryable — the server may have restarted or
    /// the network recovered. Remote errors defer to
    /// [`ErrorCode::is_retryable`]. Frame/codec violations and local
    /// size-limit breaches are deterministic and never retried.
    pub fn is_retryable(&self) -> bool {
        match self {
            NetError::Remote { code, .. } => code.is_retryable(),
            NetError::Closed | NetError::Timeout | NetError::Io { .. } => true,
            NetError::Codec(_) | NetError::Frame { .. } | NetError::FrameTooLarge { .. } => false,
        }
    }

    /// The retry-after hint carried by an overload/drain reply, if any.
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            NetError::Remote { retry_after, .. } => *retry_after,
            _ => None,
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Codec(e) => write!(f, "frame codec error: {e}"),
            NetError::Frame { message } => write!(f, "protocol violation: {message}"),
            NetError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            NetError::Remote {
                code,
                message,
                retry_after,
            } => {
                write!(f, "server error ({code}): {message}")?;
                if let Some(hint) = retry_after {
                    write!(f, " (retry after {hint:?})")?;
                }
                Ok(())
            }
            NetError::Closed => write!(f, "connection closed"),
            NetError::Timeout => write!(f, "socket operation timed out"),
            NetError::Io { message } => write!(f, "socket error: {message}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> Self {
        NetError::Codec(e)
    }
}

/// The shared envelope's failures: end of stream is [`NetError::Closed`]
/// (through the `io::Error` mapping below), the cap is
/// [`NetError::FrameTooLarge`].
impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::TooLarge { len, max } => NetError::FrameTooLarge { len, max },
            FrameError::Io(e) => e.into(),
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        use std::io::ErrorKind;
        match e.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut => NetError::Timeout,
            ErrorKind::UnexpectedEof
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe => NetError::Closed,
            _ => NetError::Io {
                message: e.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        let variants: Vec<NetError> = vec![
            CodecError::Truncated { context: "frame" }.into(),
            NetError::Frame {
                message: "unknown kind".into(),
            },
            NetError::FrameTooLarge { len: 10, max: 5 },
            NetError::Remote {
                code: ErrorCode::BadRequest,
                message: "wrong width".into(),
                retry_after: None,
            },
            NetError::Remote {
                code: ErrorCode::Overloaded,
                message: "queue full".into(),
                retry_after: Some(Duration::from_millis(25)),
            },
            NetError::Closed,
            NetError::Timeout,
            NetError::Io {
                message: "refused".into(),
            },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn error_codes_roundtrip_the_wire() {
        for code in ErrorCode::all() {
            assert_eq!(CODES.from_tag(CODES.tag(code)), Some(code));
            assert!(!code.to_string().is_empty());
        }
        assert_eq!(CODES.from_tag(0), None);
        assert_eq!(CODES.from_tag(99), None);
        // Wire bytes are unique (one row per byte).
        let mut bytes: Vec<u8> = ErrorCode::all().map(|code| CODES.tag(code)).collect();
        bytes.sort_unstable();
        bytes.dedup();
        assert_eq!(bytes.len(), ErrorCode::all().count());
    }

    #[test]
    fn retry_classification_is_shared_and_stable() {
        // Transient server states retry; request defects and expired
        // budgets do not. The client retry policy and the chaos suite both
        // lean on exactly this split.
        for (code, retryable) in [
            (ErrorCode::BadRequest, false),
            (ErrorCode::ServerClosed, true),
            (ErrorCode::FrameTooLarge, false),
            (ErrorCode::Protocol, false),
            (ErrorCode::Internal, false),
            (ErrorCode::Overloaded, true),
            (ErrorCode::DeadlineExceeded, false),
            (ErrorCode::Draining, true),
            (ErrorCode::Unauthorized, false),
            (ErrorCode::UnknownModel, false),
        ] {
            assert_eq!(code.is_retryable(), retryable, "{code}");
            assert_eq!(
                NetError::Remote {
                    code,
                    message: String::new(),
                    retry_after: None,
                }
                .is_retryable(),
                retryable
            );
        }
        assert!(NetError::Closed.is_retryable());
        assert!(NetError::Timeout.is_retryable());
        assert!(NetError::Io {
            message: "x".into()
        }
        .is_retryable());
        assert!(!NetError::Frame {
            message: "x".into()
        }
        .is_retryable());
        assert!(!NetError::FrameTooLarge { len: 2, max: 1 }.is_retryable());
        assert!(!NetError::from(CodecError::Truncated { context: "c" }).is_retryable());
    }

    #[test]
    fn retry_after_hint_is_exposed() {
        let hinted = NetError::Remote {
            code: ErrorCode::Overloaded,
            message: "full".into(),
            retry_after: Some(Duration::from_millis(40)),
        };
        assert_eq!(hinted.retry_after(), Some(Duration::from_millis(40)));
        assert_eq!(NetError::Timeout.retry_after(), None);
    }

    #[test]
    fn io_errors_map_to_typed_variants() {
        use std::io::{Error, ErrorKind};
        assert_eq!(
            NetError::from(Error::new(ErrorKind::TimedOut, "t")),
            NetError::Timeout
        );
        assert_eq!(
            NetError::from(Error::new(ErrorKind::WouldBlock, "w")),
            NetError::Timeout
        );
        assert_eq!(
            NetError::from(Error::new(ErrorKind::UnexpectedEof, "e")),
            NetError::Closed
        );
        assert!(matches!(
            NetError::from(Error::new(ErrorKind::PermissionDenied, "p")),
            NetError::Io { .. }
        ));
    }

    #[test]
    fn source_points_to_codec_error() {
        use std::error::Error;
        let e: NetError = CodecError::Truncated { context: "x" }.into();
        assert!(e.source().is_some());
        assert!(NetError::Closed.source().is_none());
    }
}
