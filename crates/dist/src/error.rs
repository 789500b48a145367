//! The distributed-training error type.

use ff_codec::wire::FrameError;
use ff_core::CoreError;

/// Errors produced by the distributed training stack.
#[derive(Debug)]
pub enum DistError {
    /// An error from the core training machinery (layers, tensors,
    /// checkpoints, configuration).
    Core(CoreError),
    /// A malformed or out-of-contract `FF8D` protocol frame.
    Protocol {
        /// Human-readable description of the violation.
        message: String,
    },
    /// A socket or file operation failed.
    Io {
        /// Human-readable description including the operation.
        message: String,
    },
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Core(e) => write!(f, "core error: {e}"),
            DistError::Protocol { message } => write!(f, "protocol error: {message}"),
            DistError::Io { message } => write!(f, "io error: {message}"),
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for DistError {
    fn from(e: CoreError) -> Self {
        DistError::Core(e)
    }
}

impl From<ff_codec::CodecError> for DistError {
    fn from(e: ff_codec::CodecError) -> Self {
        DistError::Protocol {
            message: e.to_string(),
        }
    }
}

/// The shared envelope's failures: end of stream and socket errors are
/// [`DistError::Io`], the frame cap is [`DistError::Protocol`].
impl From<FrameError> for DistError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => e.into(),
            e @ FrameError::TooLarge { .. } => DistError::Protocol {
                message: e.to_string(),
            },
        }
    }
}

impl From<std::io::Error> for DistError {
    fn from(e: std::io::Error) -> Self {
        DistError::Io {
            message: e.to_string(),
        }
    }
}
