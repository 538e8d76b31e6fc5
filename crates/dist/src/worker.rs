//! Worker-side request handling: decode a protocol body, run it against
//! the worker's resident-tensor table, encode the reply.
//!
//! ## Protocol bodies
//!
//! Requests are objects dispatched on `"type"`:
//!
//! | type            | fields                              | `ok` payload |
//! |-----------------|-------------------------------------|--------------|
//! | `execute_op`    | `op`, `attrs`, `inputs`             | `{tensors: [{id, dtype, dims}]}` |
//! | `call_function` | `name`, `inputs`                    | `{tensors: [{id, dtype, dims}]}` |
//! | `fetch`         | `id`                                | serialized tensor |
//! | `ping`          |                                     | `"pong"` |
//! | `shutdown`      |                                     | `null` (and the worker exits) |
//!
//! Any request may also carry `free: [ids]`: resident tensors the
//! coordinator holds no handle to any more. They are dropped before the
//! request itself runs, so releasing a tensor never costs a round trip of
//! its own.
//!
//! `inputs` entries are `{"inline": <tensor>}` (shipped over the wire) or
//! `{"resident": <id>}` (already living on this worker). Responses are
//! `{"ok": ...}` or `{"err": "detail"}` — a malformed request is a typed
//! remote fault, never a worker crash.

use crate::rpc::{err_body, ok_body};
use crate::wire::Frame;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tfe_encode::Value;
use tfe_graph::serial::{attrs_from_value, tensor_from_value, tensor_to_value};
use tfe_runtime::{context, ExecMode};
use tfe_tensor::TensorData;

/// Shared mutable state of one worker: the resident-tensor table.
///
/// TCP workers serve each connection from its own thread, so the table is
/// behind a lock; the in-process worker is single-threaded but reuses the
/// same state type so both transports exercise identical handler code.
pub struct WorkerState {
    resident: Mutex<HashMap<u64, Arc<TensorData>>>,
    next_id: AtomicU64,
    /// `tfe_dist_resident_tensors{worker}`: moved by the size of every
    /// change to the table, so workers sharing a label add up.
    resident_gauge: Arc<tfe_metrics::Gauge>,
}

impl WorkerState {
    /// Fresh state with an empty resident table, for the worker labelled
    /// `worker` (`job/task`) in metrics.
    pub fn new(worker: &str) -> WorkerState {
        let resident_gauge = tfe_metrics::gauge_vec(
            "tfe_dist_resident_tensors",
            "Tensors resident on each worker",
            "worker",
        )
        .with(worker);
        WorkerState {
            resident: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            resident_gauge,
        }
    }

    /// Handle one request frame; returns the reply frame and whether the
    /// worker should shut down after sending it.
    pub fn handle_frame(&self, frame: &Frame) -> (Frame, bool) {
        let _trace = tfe_profile::adopt_remote(frame.trace, "rpc");
        let (body, shutdown) = match self.dispatch(&frame.body) {
            Ok((payload, shutdown)) => (ok_body(payload), shutdown),
            Err(msg) => (err_body(&msg), false),
        };
        (Frame::new(frame.call_id, frame.trace, body), shutdown)
    }

    fn dispatch(&self, body: &Value) -> Result<(Value, bool), String> {
        let ty = body
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| "request has no `type` field".to_string())?;
        if let Some(free) = body.get("free") {
            let ids =
                free.as_i64_array().ok_or_else(|| "`free` is not a list of ids".to_string())?;
            let mut resident = self.resident.lock();
            let before = resident.len();
            for id in ids {
                resident.remove(&(id as u64));
            }
            self.resident_gauge.sub((before - resident.len()) as i64);
        }
        match ty {
            "execute_op" => {
                let op = body
                    .get("op")
                    .and_then(Value::as_str)
                    .ok_or_else(|| "execute_op: missing `op`".to_string())?;
                let attrs = attrs_from_value(
                    body.get("attrs").ok_or_else(|| "execute_op: missing `attrs`".to_string())?,
                )
                .map_err(|e| e.to_string())?;
                let op = tfe_ops::Op::from_name(op).map_err(|e| format!("execute_op: {e}"))?;
                let inputs = self.decode_inputs(body)?;
                let out = tfe_runtime::kernels::run_kernel(op, &attrs, &inputs)
                    .map_err(|e| e.to_string())?;
                Ok((self.adopt(out.into_iter().map(Arc::new)), false))
            }
            "call_function" => {
                let name = body
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| "call_function: missing `name`".to_string())?;
                let f = context::library()
                    .get(name)
                    .ok_or_else(|| format!("function `{name}` not in library"))?;
                if f.num_captures > 0 {
                    return Err(format!(
                        "function `{name}` closes over {} captured value(s); workers only \
                         execute capture-free functions",
                        f.num_captures
                    ));
                }
                let inputs = self.decode_inputs(body)?;
                let device = context::device_manager().host_cpu();
                let out = tfe_runtime::executor::run_function(
                    &f,
                    &inputs,
                    &device,
                    ExecMode::SerialPlanned,
                )
                .map_err(|e| e.to_string())?;
                Ok((self.adopt(out.into_iter()), false))
            }
            "fetch" => {
                let id = req_id(body, "fetch")?;
                let data = self
                    .resident
                    .lock()
                    .get(&id)
                    .cloned()
                    .ok_or_else(|| format!("tensor {id} is not resident on this worker"))?;
                Ok((tensor_to_value(&data), false))
            }
            "ping" => Ok((Value::str("pong"), false)),
            "shutdown" => Ok((Value::Null, true)),
            other => Err(format!("unknown request type `{other}`")),
        }
    }

    fn decode_inputs(&self, body: &Value) -> Result<Vec<Arc<TensorData>>, String> {
        let inputs = body
            .get("inputs")
            .and_then(Value::as_array)
            .ok_or_else(|| "request: missing `inputs` array".to_string())?;
        inputs
            .iter()
            .map(|arg| {
                if let Some(inline) = arg.get("inline") {
                    tensor_from_value(inline).map(Arc::new).map_err(|e| e.to_string())
                } else if let Some(id) = arg.get("resident").and_then(Value::as_i64) {
                    self.resident
                        .lock()
                        .get(&(id as u64))
                        .cloned()
                        .ok_or_else(|| format!("tensor {id} is not resident on this worker"))
                } else {
                    Err("input is neither `inline` nor `resident`".to_string())
                }
            })
            .collect()
    }

    /// Store outputs in the resident table and describe them for the
    /// coordinator.
    fn adopt(&self, tensors: impl Iterator<Item = Arc<TensorData>>) -> Value {
        let mut resident = self.resident.lock();
        let metas: Vec<Value> = tensors
            .map(|t| {
                let id = self.next_id.fetch_add(1, Ordering::Relaxed);
                let meta = Value::object([
                    ("id".to_string(), Value::Int(id as i64)),
                    ("dtype".to_string(), Value::str(t.dtype().name())),
                    (
                        "dims".to_string(),
                        Value::Array(
                            t.shape().dims().iter().map(|&d| Value::Int(d as i64)).collect(),
                        ),
                    ),
                ]);
                resident.insert(id, t);
                meta
            })
            .collect();
        self.resident_gauge.add(metas.len() as i64);
        Value::object([("tensors".to_string(), Value::Array(metas))])
    }
}

impl Drop for WorkerState {
    /// A worker that is gone holds nothing.
    fn drop(&mut self) {
        self.resident_gauge.sub(self.resident.lock().len() as i64);
    }
}

fn req_id(body: &Value, what: &str) -> Result<u64, String> {
    body.get("id")
        .and_then(Value::as_i64)
        .filter(|id| *id >= 0)
        .map(|id| id as u64)
        .ok_or_else(|| format!("{what}: missing or negative `id`"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfe_ops::Attrs;
    use tfe_runtime::api;

    fn exec_body(op: &str, inputs: Vec<Value>) -> Value {
        Value::object([
            ("type".to_string(), Value::str("execute_op")),
            ("op".to_string(), Value::str(op)),
            ("attrs".to_string(), tfe_graph::serial::attrs_to_value(&Attrs::new())),
            ("inputs".to_string(), Value::Array(inputs)),
        ])
    }

    fn inline(t: &tfe_runtime::Tensor) -> Value {
        Value::object([("inline".to_string(), tensor_to_value(&t.value().unwrap()))])
    }

    #[test]
    fn execute_fetch_free_round_trip() {
        let state = WorkerState::new("unit/0");
        let a = api::constant(vec![1.0f32, 2.0], [2]).unwrap();
        let body = exec_body("square", vec![inline(&a)]);
        let (reply, shutdown) = state.handle_frame(&Frame::new(7, None, body));
        assert!(!shutdown);
        assert_eq!(reply.call_id, 7);
        let ok = reply.body.get("ok").expect("ok reply");
        let metas = ok.get("tensors").and_then(Value::as_array).unwrap();
        assert_eq!(metas.len(), 1);
        let id = metas[0].get("id").and_then(Value::as_i64).unwrap();
        assert_eq!(
            metas[0].get("dtype").and_then(Value::as_str),
            Some(tfe_tensor::DType::F32.name())
        );

        let fetch = Value::object([
            ("type".to_string(), Value::str("fetch")),
            ("id".to_string(), Value::Int(id)),
        ]);
        let (reply, _) = state.handle_frame(&Frame::new(8, None, fetch.clone()));
        let t = tensor_from_value(reply.body.get("ok").unwrap()).unwrap();
        assert_eq!(t.to_f64_vec(), vec![1.0, 4.0]);

        // The id rides on an unrelated request and is gone before it runs.
        let ping = Value::object([
            ("type".to_string(), Value::str("ping")),
            ("free".to_string(), Value::from(vec![id])),
        ]);
        let (reply, _) = state.handle_frame(&Frame::new(9, None, ping));
        assert!(reply.body.get("ok").is_some());
        // Fetch after the free is a typed remote fault.
        let (reply, _) = state.handle_frame(&Frame::new(10, None, fetch));
        assert!(reply.body.get("err").is_some());
    }

    #[test]
    fn malformed_requests_are_faults_not_panics() {
        let state = WorkerState::new("unit/1");
        for body in [
            Value::Null,
            Value::object([("type".to_string(), Value::str("warp"))]),
            Value::object([("type".to_string(), Value::str("execute_op"))]),
            Value::object([
                ("type".to_string(), Value::str("fetch")),
                ("id".to_string(), Value::Int(-3)),
            ]),
            Value::object([
                ("type".to_string(), Value::str("ping")),
                ("free".to_string(), Value::str("everything")),
            ]),
        ] {
            let (reply, shutdown) = state.handle_frame(&Frame::new(1, None, body));
            assert!(!shutdown);
            assert!(reply.body.get("err").is_some());
        }
    }

    #[test]
    fn shutdown_flag() {
        let state = WorkerState::new("unit/2");
        let body = Value::object([("type".to_string(), Value::str("shutdown"))]);
        let (reply, shutdown) = state.handle_frame(&Frame::new(1, None, body));
        assert!(shutdown);
        assert!(reply.body.get("ok").is_some());
    }
}
