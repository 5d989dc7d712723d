//! Error type shared by the automaton-construction and matching APIs.

use std::fmt;

/// Errors produced while validating patterns or configuring matchers.
///
/// Construction and matching themselves are total functions — once a
/// [`crate::PatternSet`] has been validated there is no way for building or
/// running the automaton to fail — so errors are concentrated at the API
/// boundaries that accept user input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AcError {
    /// The pattern set was empty. An automaton over zero patterns would be a
    /// single state that never matches; callers almost certainly did not
    /// intend that, so we reject it loudly.
    EmptyPatternSet,
    /// A pattern was the empty string, which would match at every position.
    EmptyPattern {
        /// Index of the offending pattern in the input slice.
        index: usize,
    },
    /// A chunking plan was requested with a zero-byte chunk size.
    ZeroChunkSize,
    /// A parallel or interleaved matcher was asked to run with zero
    /// workers.
    ZeroWorkers,
    /// A chunking plan's overlap is too small for the pattern set: patterns
    /// straddling a chunk boundary would be silently missed.
    OverlapTooSmall {
        /// Overlap the caller asked for.
        requested: usize,
        /// Minimum overlap required by the longest pattern (`max_len - 1`).
        required: usize,
    },
    /// Too many patterns or states to index with the 32-bit ids used by the
    /// dense STT (and by the GPU texture layout).
    CapacityExceeded {
        /// Human-readable description of which capacity overflowed.
        what: &'static str,
    },
}

impl fmt::Display for AcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AcError::EmptyPatternSet => write!(f, "pattern set must contain at least one pattern"),
            AcError::EmptyPattern { index } => {
                write!(
                    f,
                    "pattern at index {index} is empty; empty patterns are not allowed"
                )
            }
            AcError::ZeroChunkSize => write!(f, "chunk size must be at least 1 byte"),
            AcError::ZeroWorkers => write!(f, "a parallel matcher needs at least 1 worker"),
            AcError::OverlapTooSmall {
                requested,
                required,
            } => write!(
                f,
                "chunk overlap {requested} is smaller than the {required} bytes required by the \
                 longest pattern; boundary-straddling matches would be missed"
            ),
            AcError::CapacityExceeded { what } => {
                write!(f, "capacity exceeded: {what} does not fit in 32-bit ids")
            }
        }
    }
}

impl std::error::Error for AcError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_actionable() {
        let msgs = [
            AcError::EmptyPatternSet.to_string(),
            AcError::EmptyPattern { index: 3 }.to_string(),
            AcError::ZeroChunkSize.to_string(),
            AcError::ZeroWorkers.to_string(),
            AcError::OverlapTooSmall {
                requested: 2,
                required: 7,
            }
            .to_string(),
            AcError::CapacityExceeded {
                what: "state count",
            }
            .to_string(),
        ];
        for m in &msgs {
            assert!(!m.is_empty());
        }
        assert!(msgs[4].contains('7'));
        assert!(msgs[1].contains('3'));
    }
}
