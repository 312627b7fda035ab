//! Typed service-level errors.
//!
//! The service distinguishes *backpressure* (queue full — retry later,
//! nothing was admitted) from an unmeetable deadline and from *malformed
//! input* (the request itself is wrong and retrying cannot help). Callers branch on the variant; an
//! open-loop client treats [`ServiceError::QueueFull`] as a signal to back
//! off, exactly like an HTTP 429.

use core::fmt;
use std::time::Duration;
use tridiag_core::TridiagError;

/// Why the service refused (or failed) a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// `capacity` admitted requests already wait in buckets. Nothing was
    /// admitted; the caller should back off and retry. This is load shedding, not
    /// failure — the alternative (blocking the submitter) would propagate
    /// the stall upstream.
    QueueFull {
        /// Configured queue capacity that was hit.
        capacity: usize,
        /// Suggested back-off before retrying, derived from the service's
        /// observed drain rate (`None` before any request has completed).
        /// The analogue of HTTP 429's `Retry-After` header.
        retry_after: Option<Duration>,
    },
    /// The request's deadline is already unmeetable at admission time
    /// (zero, or shorter than the time a solve could possibly take).
    /// Nothing was admitted; retrying with the same deadline cannot help.
    DeadlineExceeded {
        /// The deadline budget the caller asked for.
        deadline: Duration,
    },
    /// The request itself is invalid (e.g. a system smaller than 2
    /// unknowns). Retrying the same request can never succeed.
    InvalidRequest(TridiagError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::QueueFull { capacity, retry_after } => {
                write!(f, "admission queue full (capacity {capacity}); retry ")?;
                match retry_after {
                    Some(hint) => write!(f, "in ~{} us", hint.as_micros()),
                    None => f.write_str("later"),
                }
            }
            ServiceError::DeadlineExceeded { deadline } => {
                write!(
                    f,
                    "deadline of {} us is already unmeetable at admission",
                    deadline.as_micros()
                )
            }
            ServiceError::InvalidRequest(e) => write!(f, "invalid request: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::InvalidRequest(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TridiagError> for ServiceError {
    fn from(e: TridiagError) -> Self {
        ServiceError::InvalidRequest(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure_mode() {
        let full = ServiceError::QueueFull { capacity: 8, retry_after: None }.to_string();
        assert!(full.contains("capacity 8"), "{full}");
        assert!(full.contains("retry later"), "{full}");
        let hinted =
            ServiceError::QueueFull { capacity: 8, retry_after: Some(Duration::from_micros(250)) }
                .to_string();
        assert!(hinted.contains("250 us"), "{hinted}");
        let late =
            ServiceError::DeadlineExceeded { deadline: Duration::from_micros(5) }.to_string();
        assert!(late.contains("deadline") && late.contains("5 us"), "{late}");
    }

    #[test]
    fn invalid_request_wraps_the_domain_error() {
        let e: ServiceError = TridiagError::NotPowerOfTwo { n: 48 }.into();
        assert!(matches!(e, ServiceError::InvalidRequest(_)));
        assert!(e.to_string().contains("invalid request"));
    }
}
