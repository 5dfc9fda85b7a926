//! Unified error type.

use std::fmt;

/// Errors surfaced by the DLHub public API.
#[derive(Debug, Clone, PartialEq)]
pub enum DlhubError {
    /// Authentication/authorization failure.
    Auth(String),
    /// The caller's token lacks access to the servable (or it does not
    /// exist — the two are indistinguishable by design, so restricted
    /// models do not leak their existence).
    NotFound(String),
    /// Publication rejected (schema violation, dependency conflict…).
    Publication(String),
    /// A servable failed while executing.
    Execution {
        /// Servable that failed.
        servable: String,
        /// Failure description.
        message: String,
    },
    /// The input did not match the servable's declared input type.
    InvalidInput {
        /// Servable that rejected the input.
        servable: String,
        /// What was expected.
        expected: String,
    },
    /// Queueing/transport failure between MS and Task Managers.
    Transport(String),
    /// The request timed out waiting for a Task Manager.
    Timeout,
    /// The request's retry budget (or deadline) ran out; every attempt
    /// failed, the last one with `last_error`.
    Exhausted {
        /// Servable the request targeted.
        servable: String,
        /// Attempts made before giving up (>= 1).
        attempts: u32,
        /// The final attempt's failure.
        last_error: String,
    },
    /// The admission controller shed this request before dispatch: the
    /// service is at capacity (bounded-queue occupancy, queue-wait or
    /// burn-rate breach) or the caller's tenant is over its fair share.
    /// 429-style: the caller should back off for `retry_after_ms`
    /// before retrying. Distinct from [`DlhubError::Exhausted`] — no
    /// attempt was ever dispatched, so nothing deep in the stack timed
    /// out.
    Overloaded {
        /// Suggested client back-off before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// Async task id unknown — it was never registered with this
    /// service.
    UnknownTask(String),
    /// Async task id belonged to a task whose record has since been
    /// released — its result was delivered, forgotten, or left
    /// unretrieved past the table's cap; the result is gone but the id
    /// was real.
    ExpiredTask(String),
    /// Pipeline definition invalid (empty, or references missing
    /// servables).
    Pipeline(String),
}

impl fmt::Display for DlhubError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DlhubError::Auth(m) => write!(f, "auth: {m}"),
            DlhubError::NotFound(s) => write!(f, "no such servable: {s}"),
            DlhubError::Publication(m) => write!(f, "publication rejected: {m}"),
            DlhubError::Execution { servable, message } => {
                write!(f, "execution failed in {servable}: {message}")
            }
            DlhubError::InvalidInput { servable, expected } => {
                write!(f, "invalid input for {servable}: expected {expected}")
            }
            DlhubError::Transport(m) => write!(f, "transport: {m}"),
            DlhubError::Timeout => write!(f, "request timed out"),
            DlhubError::Exhausted {
                servable,
                attempts,
                last_error,
            } => write!(
                f,
                "request to {servable} exhausted after {attempts} attempts: {last_error}"
            ),
            DlhubError::Overloaded { retry_after_ms } => {
                write!(f, "overloaded: retry after {retry_after_ms} ms")
            }
            DlhubError::UnknownTask(id) => write!(f, "unknown task: {id}"),
            DlhubError::ExpiredTask(id) => write!(f, "task expired: {id}"),
            DlhubError::Pipeline(m) => write!(f, "invalid pipeline: {m}"),
        }
    }
}

impl DlhubError {
    /// How many dispatch attempts stand behind this error: the recorded
    /// count for [`DlhubError::Exhausted`], 0 for a shed request
    /// ([`DlhubError::Overloaded`] never dispatched anything), 1 for
    /// everything else (an error that was not retried).
    pub fn attempts(&self) -> u32 {
        match self {
            DlhubError::Exhausted { attempts, .. } => *attempts,
            DlhubError::Overloaded { .. } => 0,
            _ => 1,
        }
    }
}

impl std::error::Error for DlhubError {}

impl From<dlhub_auth::AuthError> for DlhubError {
    fn from(e: dlhub_auth::AuthError) -> Self {
        DlhubError::Auth(e.to_string())
    }
}

impl From<dlhub_queue::QueueError> for DlhubError {
    fn from(e: dlhub_queue::QueueError) -> Self {
        DlhubError::Transport(e.to_string())
    }
}

impl From<dlhub_queue::RpcError> for DlhubError {
    fn from(e: dlhub_queue::RpcError) -> Self {
        match e {
            dlhub_queue::RpcError::Timeout => DlhubError::Timeout,
            other => DlhubError::Transport(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = DlhubError::Execution {
            servable: "m".into(),
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "execution failed in m: boom");
        assert!(DlhubError::Timeout.to_string().contains("timed out"));
    }

    #[test]
    fn conversions_preserve_meaning() {
        let e: DlhubError = dlhub_queue::RpcError::Timeout.into();
        assert_eq!(e, DlhubError::Timeout);
        let e: DlhubError = dlhub_queue::QueueError::NoSuchTopic("t".into()).into();
        assert!(matches!(e, DlhubError::Transport(_)));
    }
}
