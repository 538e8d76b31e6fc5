//! Runtime error type.

use std::fmt;
use tfe_ops::OpError;
use tfe_tensor::TensorError;

/// Errors raised while executing operations (eagerly or staged).
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// An op-definition problem (unknown op, arity, attrs, inference).
    Op(OpError),
    /// A kernel-level tensor math failure.
    Tensor(TensorError),
    /// Device resolution/placement failure.
    Device(String),
    /// A symbolic tensor was used where a concrete value is required
    /// (e.g. calling `.value()` during tracing — the moral equivalent of
    /// calling `.numpy()` on a graph tensor).
    SymbolicValue(String),
    /// A variable was used after its owning object was dropped (§4.3:
    /// "unique identifiers ... are no longer usable if the Python variable
    /// objects they reference do not exist").
    VariableDead(u64),
    /// A node names a graph function it does not hold, so it cannot run it.
    UnknownFunction(String),
    /// The operation is valid but deliberately unsupported (documented
    /// limitations, e.g. the gradient of `while_loop`).
    Unsupported(String),
    /// A non-persistent `GradientTape` was asked for a second gradient.
    /// Exactly one caller wins the tape; everyone else gets this.
    TapeConsumed,
    /// Anything else.
    Internal(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Op(e) => write!(f, "{e}"),
            RuntimeError::Tensor(e) => write!(f, "{e}"),
            RuntimeError::Device(msg) => write!(f, "device error: {msg}"),
            RuntimeError::SymbolicValue(msg) => {
                write!(f, "cannot read a concrete value during tracing: {msg}")
            }
            RuntimeError::VariableDead(id) => {
                write!(f, "variable {id} no longer exists (owning object was dropped)")
            }
            RuntimeError::UnknownFunction(name) => {
                write!(f, "graph function `{name}` is named but not held, so it cannot run")
            }
            RuntimeError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            RuntimeError::TapeConsumed => write!(
                f,
                "a non-persistent GradientTape can only be used to compute one set of gradients"
            ),
            RuntimeError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<OpError> for RuntimeError {
    fn from(e: OpError) -> RuntimeError {
        RuntimeError::Op(e)
    }
}

impl From<TensorError> for RuntimeError {
    fn from(e: TensorError) -> RuntimeError {
        RuntimeError::Tensor(e)
    }
}

/// Result alias for runtime operations.
pub type Result<T, E = RuntimeError> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(RuntimeError::VariableDead(3).to_string().contains("variable 3"));
        assert!(RuntimeError::UnknownFunction("f".into()).to_string().contains("`f`"));
        let e: RuntimeError = OpError::UnknownOp("x".into()).into();
        assert!(e.to_string().contains("unknown operation"));
        let e: RuntimeError = TensorError::InvalidArgument("bad".into()).into();
        assert!(e.to_string().contains("bad"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RuntimeError>();
    }
}
