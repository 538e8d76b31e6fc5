//! The RPC layer: a request/response state machine over a [`Transport`],
//! with per-call deadlines, bounded retries with exponential backoff, and
//! typed failures. Every call resolves to `Ok` or a [`DistError`] within
//! its deadline (plus bounded backoff sleeps) — never a hang.
//!
//! A call has two halves, like the transport under it: [`RpcClient::send`]
//! encodes and writes the request and returns an [`InFlight`];
//! [`InFlight::receive`] reads the reply. A round (`cluster.rs`) sends to
//! every worker, under one absolute deadline, before it receives from any.
//!
//! ## Retry policy
//!
//! - **Connect failures** are always retried (the request was never sent,
//!   so retrying cannot double-execute), up to `retries` times with
//!   doubling backoff, while the deadline allows.
//! - **Timeouts and lost connections after a send** are retried only for
//!   *idempotent* requests. Idempotency is a property of the program the
//!   request carries (`cluster::Program`): one that keeps nothing on the
//!   worker and calls no function can be run twice; `ping` can. A program
//!   that keeps an output or calls a function may already have run when
//!   its reply was lost, and silently running it again would leak a
//!   resident tensor or repeat a stateful update, so it surfaces the typed
//!   error instead.
//! - **An oversized request** is refused here, as
//!   [`WireError::Oversized`], before a byte is written: the worker would
//!   refuse the frame and hang up, which the caller could not tell from a
//!   dead worker.
//!
//! A request is encoded once; each attempt re-sends those bytes under a
//! fresh call id.

use crate::error::DistError;
use crate::transport::{PendingReply, Transport, TransportError};
use crate::wire::{set_call_id, Frame, WireError, HEADER_LEN, MAX_FRAME_LEN};
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

    /// The options this client was built with.
    pub fn options(&self) -> &RpcOptions {
        &self.opts
    }

    /// The send half of a call: encode `body`, refuse it if no receiver
    /// would take it, write it (retrying connect failures). `op` labels the
    /// call in errors (e.g. `run[3]`), `idempotent` gates retries after a
    /// send (module docs), `overall` is the absolute deadline of the whole
    /// call: both halves, every attempt.
    ///
    /// # Errors
    /// [`WireError::Oversized`] before anything is written; otherwise a
    /// typed [`DistError`] within the deadline.
    pub fn send<'a>(
        &'a self,
        op: &str,
        body: Value,
        idempotent: bool,
        opts: &'a RpcOptions,
        overall: Instant,
    ) -> Result<InFlight<'a>, DistError> {
        let request = Frame::new(0, Frame::current_trace(), body).encode();
        let len = request.len() - HEADER_LEN;
        if len > MAX_FRAME_LEN {
            return Err(DistError::Wire(WireError::Oversized { len, max: MAX_FRAME_LEN }));
        }
        let mut call = Call {
            op: op.to_string(),
            request,
            idempotent,
            opts,
            started: Instant::now(),
            overall,
            backoff: opts.backoff,
            attempt: 0,
        };
        let written = self.write(&mut call)?;
        Ok(InFlight { client: self, call, written })
    }

    /// Write `call`'s request under a fresh call id until a write succeeds
    /// or the retry policy gives up.
    fn write<'a>(&'a self, call: &mut Call<'_>) -> Result<Written<'a>, DistError> {
        loop {
            let call_id = self.next_call.fetch_add(1, Ordering::Relaxed);
            set_call_id(&mut call.request, call_id);
            let at = Instant::now();
            match self.transport.send(&call.request, call.attempt_deadline(at)) {
                Ok(reply) => return Ok(Written { call_id, at, reply }),
                Err(e) => self.back_off(call, e)?,
            }
        }
    }

    /// After a failed attempt: sleep out the backoff if the policy allows
    /// another, or give the failure its type.
    fn back_off(&self, call: &mut Call<'_>, e: TransportError) -> Result<(), DistError> {
        let retryable = match &e {
            TransportError::Connect(_) => true,
            TransportError::Timeout | TransportError::ConnectionLost(_) => call.idempotent,
            TransportError::Wire(_) => false,
        };
        let out_of_time = Instant::now() + call.backoff >= call.overall;
        if !retryable || call.attempt >= call.opts.retries || out_of_time {
            return Err(self.typed_error(&call.op, e, call.started));
        }
        self.count("tfe_dist_rpc_retries_total", "RPC attempts retried per worker");
        std::thread::sleep(call.backoff);
        call.backoff *= 2;
        call.attempt += 1;
        Ok(())
    }

    /// Check a reply against the request it answers and unwrap `ok`/`err`.
    fn complete(&self, reply: Frame, call_id: u64, written: Instant) -> Result<Value, DistError> {
        if reply.call_id != call_id && reply.call_id != 0 {
            return Err(DistError::Wire(WireError::Payload(format!(
                "response call id {} does not match request {}",
                reply.call_id, call_id
            ))));
        }
        self.observe(written);
        let mut fields = match reply.body {
            Value::Object(fields) => fields,
            _ => Default::default(),
        };
        if let Some(Value::Str(detail)) = fields.remove("err") {
            return Err(DistError::RemoteFault { worker: self.worker.clone(), detail });
        }
        fields.remove("ok").ok_or_else(|| {
            DistError::Wire(WireError::Payload(
                "response body has neither `ok` nor `err`".to_string(),
            ))
        })
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

    /// Per-worker RPC telemetry: one count plus one latency sample per
    /// completed request, from its write to its reply being read, so a slow
    /// or chatty worker stands out.
    fn observe(&self, written: Instant) {
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
        .observe(written.elapsed().as_nanos() as u64);
    }
}

/// What one call carries from attempt to attempt.
struct Call<'a> {
    op: String,
    request: Vec<u8>,
    idempotent: bool,
    opts: &'a RpcOptions,
    started: Instant,
    overall: Instant,
    backoff: Duration,
    attempt: u32,
}

impl Call<'_> {
    /// An attempt written at `at` gives up this early, so that a later one
    /// still fits inside the call's deadline.
    fn attempt_deadline(&self, at: Instant) -> Instant {
        self.overall.min(at + self.opts.attempt_timeout)
    }
}

/// One attempt's request on the wire.
struct Written<'a> {
    call_id: u64,
    at: Instant,
    reply: Box<dyn PendingReply + 'a>,
}

/// The receive half of a call: a request that has been written. Dropping
/// it abandons the reply (see [`PendingReply`]).
pub struct InFlight<'a> {
    client: &'a RpcClient,
    call: Call<'a>,
    written: Written<'a>,
}

impl InFlight<'_> {
    /// Read the reply; a retryable failure re-sends and reads again.
    ///
    /// # Errors
    /// Typed [`DistError`] within the call's deadline.
    pub fn receive(self) -> Result<Value, DistError> {
        let InFlight { client, mut call, mut written } = self;
        loop {
            let Written { call_id, at, reply } = written;
            match reply.receive(call.attempt_deadline(at)) {
                Ok(frame) => return client.complete(frame, call_id, at),
                Err(e) => {
                    client.back_off(&mut call, e)?;
                    written = client.write(&mut call)?;
                }
            }
        }
    }
}
