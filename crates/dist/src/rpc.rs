//! The RPC layer: a request/response state machine over a [`Transport`],
//! with per-call deadlines, bounded retries with exponential backoff, and
//! typed failures. Every call resolves to `Ok` or a [`DistError`] within
//! `deadline` (plus bounded backoff sleeps) — never a hang.
//!
//! ## Retry policy
//!
//! - **Connect failures** are always retried (the request was never sent,
//!   so retrying cannot double-execute), up to `retries` times with
//!   doubling backoff, while the overall deadline allows.
//! - **Timeouts and lost connections after a send** are retried only for
//!   *idempotent* requests (`fetch`, `ping`): an `execute_op` or
//!   `call_function` whose response was lost may already have run on the
//!   worker, and silently re-executing a stateful op would corrupt state.
//!   Non-idempotent requests surface the typed error instead.
//!
//! A request is encoded once; each attempt re-sends those bytes under a
//! fresh call id.

use crate::error::DistError;
use crate::transport::{Transport, TransportError};
use crate::wire::{set_call_id, Frame, WireError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tfe_encode::Value;

/// Tunables for one worker connection.
#[derive(Debug, Clone)]
pub struct RpcOptions {
    /// Overall per-call deadline (covers all attempts and backoff).
    pub deadline: Duration,
    /// Per-attempt timeout; a retryable attempt gives up this early so a
    /// later attempt still fits inside `deadline`.
    pub attempt_timeout: Duration,
    /// Maximum number of *re*-attempts after the first (0 = no retries).
    pub retries: u32,
    /// Initial backoff between attempts; doubles each retry.
    pub backoff: Duration,
}

impl Default for RpcOptions {
    fn default() -> RpcOptions {
        RpcOptions {
            deadline: Duration::from_secs(10),
            attempt_timeout: Duration::from_secs(3),
            retries: 2,
            backoff: Duration::from_millis(20),
        }
    }
}

impl RpcOptions {
    /// Short-fuse options for tests and chaos probes.
    pub fn with_deadline(deadline: Duration) -> RpcOptions {
        RpcOptions {
            deadline,
            attempt_timeout: deadline.div_f64(2.0).max(Duration::from_millis(50)),
            ..RpcOptions::default()
        }
    }
}

/// A client for one worker: owns the transport and the retry/deadline
/// state machine.
pub struct RpcClient {
    transport: Arc<dyn Transport>,
    opts: RpcOptions,
    worker: String,
    next_call: AtomicU64,
}

/// Build a `{"err": msg}` response body.
pub(crate) fn err_body(msg: &str) -> Value {
    Value::object([("err".to_string(), Value::str(msg))])
}

/// Build a `{"ok": payload}` response body.
pub(crate) fn ok_body(payload: Value) -> Value {
    Value::object([("ok".to_string(), payload)])
}

impl RpcClient {
    /// Wrap a transport to `worker` (a `job/task` label).
    pub fn new(transport: Arc<dyn Transport>, worker: String, opts: RpcOptions) -> RpcClient {
        RpcClient { transport, opts, worker, next_call: AtomicU64::new(1) }
    }

    /// The `job/task` label this client talks to.
    pub fn worker(&self) -> &str {
        &self.worker
    }

    /// The transport kind (`"in_process"` / `"tcp"`).
    pub fn transport_kind(&self) -> &'static str {
        self.transport.kind()
    }

    /// One RPC: send `body`, await the matching response, unwrap `ok`/`err`.
    ///
    /// `op` labels the call in errors and metrics (e.g. `execute:add`).
    /// `idempotent` gates retries after a send (see module docs).
    ///
    /// # Errors
    /// Typed [`DistError`] within the configured deadline.
    pub fn call(&self, op: &str, body: Value, idempotent: bool) -> Result<Value, DistError> {
        self.call_with(op, body, idempotent, &self.opts)
    }

    /// Like [`RpcClient::call`] but with one-off options — used for
    /// best-effort cleanup (`shutdown`) that must not block long.
    pub fn call_with(
        &self,
        op: &str,
        body: Value,
        idempotent: bool,
        opts: &RpcOptions,
    ) -> Result<Value, DistError> {
        let started = Instant::now();
        let overall = started + opts.deadline;
        let mut request = Frame::new(0, Frame::current_trace(), body).encode();
        let mut backoff = opts.backoff;
        let mut attempt = 0u32;
        loop {
            let call_id = self.next_call.fetch_add(1, Ordering::Relaxed);
            set_call_id(&mut request, call_id);
            let attempt_deadline = overall.min(Instant::now() + opts.attempt_timeout);
            let result = self.transport.round_trip(&request, attempt_deadline);
            match result {
                Ok(reply) => {
                    if reply.call_id != call_id && reply.call_id != 0 {
                        return Err(DistError::Wire(WireError::Payload(format!(
                            "response call id {} does not match request {}",
                            reply.call_id, call_id
                        ))));
                    }
                    self.observe(op, started, attempt);
                    let mut fields = match reply.body {
                        Value::Object(fields) => fields,
                        _ => Default::default(),
                    };
                    if let Some(Value::Str(detail)) = fields.remove("err") {
                        return Err(DistError::RemoteFault { worker: self.worker.clone(), detail });
                    }
                    return fields.remove("ok").ok_or_else(|| {
                        DistError::Wire(WireError::Payload(
                            "response body has neither `ok` nor `err`".to_string(),
                        ))
                    });
                }
                Err(e) => {
                    let retryable = match &e {
                        TransportError::Connect(_) => true,
                        TransportError::Timeout | TransportError::ConnectionLost(_) => idempotent,
                        TransportError::Wire(_) => false,
                    };
                    let out_of_time = Instant::now() + backoff >= overall;
                    if !retryable || attempt >= opts.retries || out_of_time {
                        return Err(self.typed_error(op, e, started));
                    }
                    self.count("tfe_dist_rpc_retries_total", "RPC attempts retried per worker");
                    std::thread::sleep(backoff);
                    backoff *= 2;
                    attempt += 1;
                }
            }
        }
    }

    fn typed_error(&self, op: &str, e: TransportError, started: Instant) -> DistError {
        match e {
            TransportError::Timeout => {
                self.count("tfe_dist_rpc_timeouts_total", "RPCs that hit their deadline");
                DistError::Timeout {
                    worker: self.worker.clone(),
                    op: op.to_string(),
                    after: started.elapsed(),
                }
            }
            TransportError::Connect(detail) | TransportError::ConnectionLost(detail) => {
                self.count("tfe_dist_rpc_failures_total", "RPCs that lost their connection");
                DistError::ConnectionLost {
                    worker: self.worker.clone(),
                    op: op.to_string(),
                    detail,
                }
            }
            TransportError::Wire(w) => DistError::Wire(w),
        }
    }

    fn count(&self, name: &'static str, help: &'static str) {
        tfe_metrics::counter_vec(name, help, "worker").with(&self.worker).inc();
    }

    /// Per-worker RPC telemetry: one count plus one round-trip latency
    /// sample per completed request, so a slow or chatty worker stands out.
    fn observe(&self, op: &str, started: Instant, attempts: u32) {
        let _ = op;
        let _ = attempts;
        tfe_metrics::counter_vec(
            "tfe_dist_rpcs_total",
            "Completed coordinator-to-worker RPCs",
            "worker",
        )
        .with(&self.worker)
        .inc();
        tfe_metrics::histogram_vec(
            "tfe_dist_rpc_ns",
            "Round-trip nanoseconds for coordinator-to-worker RPCs",
            "worker",
            tfe_metrics::DEFAULT_NS_BUCKETS,
        )
        .with(&self.worker)
        .observe(started.elapsed().as_nanos() as u64);
    }
}
