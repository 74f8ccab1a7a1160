//! Error type shared across the Atum crates.

use std::fmt;

/// Convenience alias for results with [`AtumError`].
pub type Result<T> = std::result::Result<T, AtumError>;

/// Errors produced by Atum operations.
///
/// The middleware masks most remote faults by design (that is the point of
/// volatile groups); errors therefore concern local misuse only: invalid
/// configuration, or calling an operation in the wrong state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AtumError {
    /// A configuration parameter (Table 1) is out of range or inconsistent.
    InvalidConfig {
        /// Which constraint was violated.
        reason: String,
    },
    /// The node attempted an operation that is only valid after joining
    /// (e.g. `broadcast` before `join`/`bootstrap` completed).
    NotJoined,
    /// The node attempted to join or bootstrap while already part of a
    /// system instance.
    AlreadyJoined,
}

impl AtumError {
    /// Shorthand constructor for [`AtumError::InvalidConfig`].
    pub fn invalid_config(reason: impl Into<String>) -> Self {
        AtumError::InvalidConfig {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for AtumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtumError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            AtumError::NotJoined => write!(f, "node has not joined a system instance"),
            AtumError::AlreadyJoined => write!(f, "node already belongs to a system instance"),
        }
    }
}

impl std::error::Error for AtumError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(AtumError, &str)> = vec![
            (AtumError::invalid_config("hc must be at least 1"), "hc"),
            (AtumError::NotJoined, "not joined"),
            (AtumError::AlreadyJoined, "already"),
        ];
        for (err, needle) in cases {
            assert!(
                err.to_string()
                    .to_lowercase()
                    .contains(&needle.to_lowercase()),
                "{err} should mention {needle}"
            );
        }
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<AtumError>();
    }
}
