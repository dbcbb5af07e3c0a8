//! Typed request-path errors.
//!
//! The serving pipeline never panics on a request: invariant violations
//! surface as a [`ServingError`] that the HTTP layer turns into a `500`
//! response on a connection that stays usable. (A panic would unwind the
//! worker's keep-alive loop and kill every in-flight request multiplexed
//! on that connection.) `xtask analyze` enforces the no-panic rule
//! statically; this type is what the fallible paths return instead.

use std::fmt;

/// A request that could not be served. Always maps to an HTTP 5xx; the
/// request itself was well-formed (malformed requests are rejected with
/// 4xx before reaching the engine).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServingError {
    /// An internal pipeline invariant failed (a bug, not an input error).
    Internal(&'static str),
    /// A panic crossed the worker's unwind barrier while handling the
    /// request; the payload is the panic message when extractable.
    Panicked(String),
}

impl ServingError {
    /// HTTP status code this error maps to.
    pub fn status(&self) -> u16 {
        500
    }
}

impl fmt::Display for ServingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServingError::Internal(what) => write!(f, "internal serving error: {what}"),
            ServingError::Panicked(msg) => write!(f, "request handler panicked: {msg}"),
        }
    }
}

impl std::error::Error for ServingError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_are_server_errors() {
        assert_eq!(ServingError::Internal("x").status(), 500);
        assert_eq!(ServingError::Panicked(String::from("boom")).status(), 500);
    }

    #[test]
    fn display_is_informative() {
        let e = ServingError::Internal("session view empty after update");
        assert!(e.to_string().contains("session view empty"));
        let p = ServingError::Panicked(String::from("index out of bounds"));
        assert!(p.to_string().contains("index out of bounds"));
    }
}
