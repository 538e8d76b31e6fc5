//! Serving errors.

use tfe_runtime::RuntimeError;

/// Errors surfaced by the model server.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// No model registered under this name.
    UnknownModel(String),
    /// The model exists but not at this version.
    UnknownVersion {
        /// Model name.
        model: String,
        /// Requested version.
        version: u64,
    },
    /// A (name, version) pair was registered twice. Versions are immutable;
    /// publish a fix as a new version and let `latest` swing to it.
    DuplicateVersion {
        /// Model name.
        model: String,
        /// The already-taken version.
        version: u64,
    },
    /// The request itself is malformed (arity, missing batch dimension,
    /// inconsistent leading dimensions). Rejected at the front door, before
    /// the request can poison a batch.
    BadRequest(String),
    /// The staged call executing this request's batch failed. Every member
    /// of the batch observes the same error; `op` names the operation that
    /// faulted (exactly, when the runtime attributes it — an arity error,
    /// an unknown op or function — otherwise the entry function).
    Batch {
        /// Best-effort name of the faulting op.
        op: String,
        /// The underlying runtime error.
        source: RuntimeError,
    },
    /// The staged call (or the batching around it) panicked. The worker
    /// catches the unwind and fails every member of the batch — a panic
    /// degrades the one batch, it never kills the worker or strands parked
    /// callers.
    Panic {
        /// Model name.
        model: String,
        /// Stringified panic payload, best effort.
        message: String,
    },
    /// The model was unregistered (or the registry dropped) while this
    /// request was still queued.
    Shutdown {
        /// Model name.
        model: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownModel(name) => write!(f, "unknown model `{name}`"),
            ServeError::UnknownVersion { model, version } => {
                write!(f, "model `{model}` has no version {version}")
            }
            ServeError::DuplicateVersion { model, version } => {
                write!(f, "model `{model}` version {version} already registered")
            }
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Batch { op, source } => {
                write!(f, "batched call failed at op `{op}`: {source}")
            }
            ServeError::Panic { model, message } => {
                write!(f, "batched call for model `{model}` panicked: {message}")
            }
            ServeError::Shutdown { model } => {
                write!(f, "model `{model}` was shut down while the request was queued")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Best-effort extraction of the faulting op's name from a runtime error.
/// Errors that carry an op or function name report it; otherwise fall back
/// to the model's entry function so the error always names *something*
/// actionable.
pub(crate) fn fault_op(e: &RuntimeError, fallback: &str) -> String {
    match e {
        RuntimeError::Op(tfe_ops::OpError::Arity { op, .. }) => op.clone(),
        RuntimeError::Op(tfe_ops::OpError::UnknownOp(op)) => op.clone(),
        RuntimeError::UnknownFunction(name) => name.clone(),
        _ => fallback.to_string(),
    }
}
