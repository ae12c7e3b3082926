//! Error type of the facade.

use std::fmt;

use bed_stream::StreamError;

/// Errors surfaced by [`crate::BurstDetector`].
#[derive(Debug, Clone, PartialEq)]
pub enum BedError {
    /// An underlying stream/parameter error.
    Stream(StreamError),
    /// A multi-event operation was invoked on a detector built without a
    /// universe (single-event mode), or vice versa.
    WrongMode {
        /// The operation attempted.
        operation: &'static str,
        /// What the detector was built for.
        built_for: &'static str,
    },
    /// A sharded detector needs at least one shard.
    InvalidShardCount {
        /// The shard count requested.
        got: usize,
    },
    /// A write-ahead-log operation failed; the arrival was NOT ingested
    /// (durability before state — see [`crate::wal::WalSink`]).
    Wal(
        /// The rendered [`crate::checkpoint::RecoveryError`] (stringly so
        /// `BedError` stays `Clone + PartialEq`).
        String,
    ),
}

impl fmt::Display for BedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BedError::Stream(e) => write!(f, "{e}"),
            BedError::WrongMode { operation, built_for } => {
                write!(f, "{operation} is unavailable: detector was built for {built_for}")
            }
            BedError::InvalidShardCount { got } => {
                write!(f, "shard count must be at least 1, got {got}")
            }
            BedError::Wal(e) => write!(f, "write-ahead log failure (arrival not ingested): {e}"),
        }
    }
}

impl std::error::Error for BedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BedError::Stream(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StreamError> for BedError {
    fn from(e: StreamError) -> Self {
        BedError::Stream(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e: BedError = StreamError::ZeroBurstSpan.into();
        assert!(e.to_string().contains("τ"));
        assert!(std::error::Error::source(&e).is_some());
        let e = BedError::WrongMode { operation: "ingest", built_for: "single-event streams" };
        assert!(e.to_string().contains("ingest"));
        assert!(std::error::Error::source(&e).is_none());
    }
}
