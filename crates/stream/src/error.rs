//! Error types shared across the stream substrate.

use std::fmt;

use crate::time::Timestamp;

/// Errors produced by stream construction and querying.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// A time range was constructed with `start > end`.
    InvertedRange {
        /// Offending lower bound.
        start: Timestamp,
        /// Offending upper bound.
        end: Timestamp,
    },
    /// The burst span τ must be strictly positive.
    ZeroBurstSpan,
    /// An element arrived with a timestamp earlier than its predecessor.
    ///
    /// Streams are defined with `t_i ≤ t_j` iff `i < j` (Section II-A);
    /// ingestion enforces this.
    NonMonotonicTimestamp {
        /// Timestamp of the previous element.
        previous: Timestamp,
        /// Timestamp of the rejected element.
        offered: Timestamp,
    },
    /// An event id fell outside the configured universe `[0, K)`.
    EventOutOfUniverse {
        /// Offending event id value.
        event: u32,
        /// Universe size K.
        universe: u32,
    },
    /// A space budget parameter was too small to be meaningful (e.g. PBE-1
    /// needs η ≥ 2 to keep both boundary points; a CM sketch needs at least
    /// one row and one column).
    BudgetTooSmall {
        /// Human-readable name of the parameter.
        parameter: &'static str,
        /// Value supplied by the caller.
        got: usize,
        /// Minimum accepted value.
        min: usize,
    },
    /// A sketch accuracy parameter (ε or δ) was outside `(0, 1)`.
    InvalidProbability {
        /// Human-readable name of the parameter.
        parameter: &'static str,
        /// Value supplied by the caller.
        got: f64,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::InvertedRange { start, end } => {
                write!(f, "inverted time range: start {start} > end {end}")
            }
            StreamError::ZeroBurstSpan => write!(f, "burst span τ must be > 0"),
            StreamError::NonMonotonicTimestamp { previous, offered } => {
                write!(f, "non-monotonic timestamp: {offered} arrived after {previous}")
            }
            StreamError::EventOutOfUniverse { event, universe } => {
                write!(f, "event id {event} outside universe [0, {universe})")
            }
            StreamError::BudgetTooSmall { parameter, got, min } => {
                write!(f, "{parameter} = {got} too small (minimum {min})")
            }
            StreamError::InvalidProbability { parameter, got } => {
                write!(f, "{parameter} = {got} must lie in (0, 1)")
            }
        }
    }
}

impl std::error::Error for StreamError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e =
            StreamError::NonMonotonicTimestamp { previous: Timestamp(10), offered: Timestamp(3) };
        let msg = e.to_string();
        assert!(msg.contains("t3"));
        assert!(msg.contains("t10"));

        let e = StreamError::BudgetTooSmall { parameter: "eta", got: 1, min: 2 };
        assert!(e.to_string().contains("eta"));

        let e = StreamError::InvalidProbability { parameter: "epsilon", got: 1.5 };
        assert!(e.to_string().contains("epsilon"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: E) {}
        assert_err(StreamError::ZeroBurstSpan);
    }
}
