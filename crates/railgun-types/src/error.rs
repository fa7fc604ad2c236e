//! Error types shared across Railgun crates.

use std::fmt;
use std::io;

/// Result alias used throughout Railgun.
pub type Result<T> = std::result::Result<T, RailgunError>;

/// The error type shared by all Railgun crates.
#[derive(Debug)]
pub enum RailgunError {
    /// Schema definition or validation failure.
    Schema(String),
    /// On-disk or wire format corruption (bad magic, CRC mismatch, ...).
    Corruption(String),
    /// Underlying I/O failure.
    Io(io::Error),
    /// Query language parse failure.
    Parse(String),
    /// Filter / expression evaluation failure.
    Expr(String),
    /// Storage-layer failure (state store, reservoir).
    Storage(String),
    /// Messaging-layer failure (unknown topic, closed consumer, ...).
    Messaging(String),
    /// Engine-level configuration or lifecycle failure.
    Engine(String),
    /// Requested entity does not exist.
    NotFound(String),
    /// Invalid argument provided by the caller.
    InvalidArgument(String),
    /// The caller exceeded a bounded in-flight capacity and must retry
    /// after collecting outstanding work (front-end backpressure, §3.1).
    Backpressure(String),
}

impl fmt::Display for RailgunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RailgunError::Schema(m) => write!(f, "schema error: {m}"),
            RailgunError::Corruption(m) => write!(f, "corruption: {m}"),
            RailgunError::Io(e) => write!(f, "io error: {e}"),
            RailgunError::Parse(m) => write!(f, "parse error: {m}"),
            RailgunError::Expr(m) => write!(f, "expression error: {m}"),
            RailgunError::Storage(m) => write!(f, "storage error: {m}"),
            RailgunError::Messaging(m) => write!(f, "messaging error: {m}"),
            RailgunError::Engine(m) => write!(f, "engine error: {m}"),
            RailgunError::NotFound(m) => write!(f, "not found: {m}"),
            RailgunError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            RailgunError::Backpressure(m) => write!(f, "backpressure: {m}"),
        }
    }
}

impl std::error::Error for RailgunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RailgunError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for RailgunError {
    fn from(e: io::Error) -> Self {
        RailgunError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_category_and_message() {
        let e = RailgunError::Schema("bad".into());
        assert_eq!(e.to_string(), "schema error: bad");
        let e = RailgunError::Messaging("no topic".into());
        assert!(e.to_string().contains("no topic"));
    }

    #[test]
    fn io_error_converts_and_sources() {
        use std::error::Error;
        let e: RailgunError = io::Error::other("disk gone").into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("disk gone"));
    }
}
