//! Error types for index construction and configuration validation.

use std::fmt;

/// Errors raised by `serenade-core`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The click log contained no usable sessions (e.g. it was empty or all
    /// sessions were filtered out).
    EmptyDataset,
    /// A configuration parameter was out of range.
    InvalidConfig {
        /// Name of the offending parameter.
        parameter: &'static str,
        /// Human-readable explanation.
        reason: String,
    },
    /// The number of historical sessions exceeded the dense-id space
    /// (`u32::MAX` sessions).
    TooManySessions(usize),
    /// An index assembled from pre-built parts (deserialisation, the build)
    /// violated a structural invariant.
    CorruptIndex(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::EmptyDataset => {
                write!(f, "click log contains no usable sessions")
            }
            CoreError::InvalidConfig { parameter, reason } => {
                write!(f, "invalid configuration: {parameter}: {reason}")
            }
            CoreError::TooManySessions(n) => {
                write!(f, "{n} historical sessions exceed the 32-bit session-id space")
            }
            CoreError::CorruptIndex(detail) => {
                write!(f, "corrupt session index: {detail}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(CoreError::EmptyDataset.to_string().contains("no usable sessions"));
        let e = CoreError::InvalidConfig { parameter: "m", reason: "must be positive".into() };
        assert!(e.to_string().contains('m'));
        assert!(e.to_string().contains("positive"));
        assert!(CoreError::TooManySessions(5).to_string().contains('5'));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<CoreError>();
    }
}
