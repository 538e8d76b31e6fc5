//! Worker-side request handling: decode a protocol body, run it against
//! the worker's resident-tensor table, encode the reply.
//!
//! ## Protocol bodies
//!
//! Requests are objects dispatched on `"type"`:
//!
//! | type       | fields                    | `ok` payload |
//! |------------|---------------------------|--------------|
//! | `run`      | `steps`, `keep`, `return` | `{kept: [{id, dtype, dims}], returned: [tensor]}` |
//! | `ping`     |                           | `"pong"` |
//! | `shutdown` |                           | `null` (and the worker exits) |
//!
//! Any request may also carry `free: [ids]`: resident tensors the
//! coordinator holds no handle to any more. They are dropped before the
//! request itself runs, so releasing a tensor never costs a round trip of
//! its own.
//!
//! ## Programs
//!
//! `run` carries a small program. `steps` is an ordered list; a step is
//! `{op, attrs, inputs}` (one primitive kernel) or `{call, inputs}` (a
//! whole graph function, by library name). A *reference* names a tensor:
//!
//! | reference                | names |
//! |--------------------------|-------|
//! | `{inline: <tensor>}`     | a tensor shipped in the request |
//! | `{resident: id}`         | a tensor in this worker's table |
//! | `{step: k, output: j}`   | output `j` of step `k` of this request |
//! | `{step: k}`              | every output of step `k`, in order |
//!
//! A step's `inputs` are references, and may only name steps *before* it.
//! `keep` and `return` are lists of references resolved after the last
//! step: a kept tensor is adopted into the resident table and described in
//! `kept`; a returned one is serialized into `returned`; both in request
//! order. A step output that is neither is dropped when the request ends
//! and never enters the table. A program with no steps that returns a
//! resident tensor is how the coordinator fetches one.
//!
//! Nothing is adopted until every step has run and every reference has
//! resolved, so a failed program leaves the table as it found it.
//! Responses are `{"ok": ...}` or `{"err": "detail"}` — a malformed
//! request is a typed remote fault, never a worker crash.

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

type Tensors = Vec<Arc<TensorData>>;

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
    /// `tfe_dist_program_steps_total{worker}`: over `tfe_dist_rpcs_total`
    /// it is the batching factor.
    steps_run: Arc<tfe_metrics::Counter>,
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
        let steps_run = tfe_metrics::counter_vec(
            "tfe_dist_program_steps_total",
            "Program steps executed by each worker",
            "worker",
        )
        .with(worker);
        WorkerState {
            resident: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            resident_gauge,
            steps_run,
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
            "run" => Ok((self.run(body)?, false)),
            "ping" => Ok((Value::str("pong"), false)),
            "shutdown" => Ok((Value::Null, true)),
            other => Err(format!("unknown request type `{other}`")),
        }
    }

    /// Run a program (module docs): every step, then the references it
    /// keeps and returns, then — nothing having failed — the adoption.
    fn run(&self, body: &Value) -> Result<Value, String> {
        let steps = list(body, "steps")?;
        let mut outputs: Vec<Tensors> = Vec::with_capacity(steps.len());
        for step in steps {
            let inputs = self.resolve(list(step, "inputs")?, &outputs)?;
            outputs.push(run_step(step, &inputs)?);
            self.steps_run.inc();
        }
        let kept = self.resolve(list(body, "keep")?, &outputs)?;
        let returned = self.resolve(list(body, "return")?, &outputs)?;
        Ok(Value::object([
            ("kept".to_string(), self.adopt(kept)),
            (
                "returned".to_string(),
                Value::Array(returned.iter().map(|t| tensor_to_value(t)).collect()),
            ),
        ]))
    }

    /// The tensors `refs` name, given the outputs of the steps run so far.
    fn resolve(&self, refs: &[Value], outputs: &[Tensors]) -> Result<Tensors, String> {
        let mut tensors = Vec::with_capacity(refs.len());
        for r in refs {
            if let Some(inline) = r.get("inline") {
                tensors.push(Arc::new(tensor_from_value(inline).map_err(|e| e.to_string())?));
            } else if let Some(id) = r.get("resident").and_then(Value::as_i64) {
                let found = self.resident.lock().get(&(id as u64)).cloned();
                tensors.push(
                    found.ok_or_else(|| format!("tensor {id} is not resident on this worker"))?,
                );
            } else if let Some(k) = r.get("step").and_then(Value::as_i64) {
                let outs = usize::try_from(k)
                    .ok()
                    .and_then(|k| outputs.get(k))
                    .ok_or_else(|| format!("step {k} has not run when its output is read"))?;
                match r.get("output") {
                    None => tensors.extend(outs.iter().cloned()),
                    Some(j) => {
                        let out = j.as_i64().and_then(|j| outs.get(usize::try_from(j).ok()?));
                        tensors.push(out.cloned().ok_or_else(|| {
                            format!("step {k} has {} output(s); `output` is {j:?}", outs.len())
                        })?);
                    }
                }
            } else {
                return Err("reference is not `inline`, `resident` or `step`".to_string());
            }
        }
        Ok(tensors)
    }

    /// Store tensors in the resident table and describe them for the
    /// coordinator.
    fn adopt(&self, tensors: Tensors) -> Value {
        let mut resident = self.resident.lock();
        self.resident_gauge.add(tensors.len() as i64);
        let metas = tensors.into_iter().map(|t| {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            let meta = Value::object([
                ("id".to_string(), Value::Int(id as i64)),
                ("dtype".to_string(), Value::str(t.dtype().name())),
                (
                    "dims".to_string(),
                    Value::Array(t.shape().dims().iter().map(|&d| Value::Int(d as i64)).collect()),
                ),
            ]);
            resident.insert(id, t);
            meta
        });
        Value::Array(metas.collect())
    }
}

impl Drop for WorkerState {
    /// A worker that is gone holds nothing.
    fn drop(&mut self) {
        self.resident_gauge.sub(self.resident.lock().len() as i64);
    }
}

fn list<'a>(of: &'a Value, key: &str) -> Result<&'a [Value], String> {
    of.get(key).and_then(Value::as_array).ok_or_else(|| format!("`{key}` is not a list"))
}

/// One step: a graph function by name, or a primitive kernel.
fn run_step(step: &Value, inputs: &[Arc<TensorData>]) -> Result<Tensors, String> {
    if let Some(name) = step.get("call").and_then(Value::as_str) {
        let f = context::library()
            .get(name)
            .ok_or_else(|| format!("function `{name}` not in library"))?;
        if f.num_captures > 0 {
            return Err(format!(
                "function `{name}` closes over {} captured value(s); workers only execute \
                 capture-free functions",
                f.num_captures
            ));
        }
        let device = context::device_manager().host_cpu();
        return tfe_runtime::executor::run_function(&f, inputs, &device, ExecMode::SerialPlanned)
            .map_err(|e| e.to_string());
    }
    let op = step
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| "step has neither `op` nor `call`".to_string())?;
    let op = tfe_ops::Op::from_name(op).map_err(|e| e.to_string())?;
    let attrs =
        attrs_from_value(step.get("attrs").ok_or_else(|| "step has no `attrs`".to_string())?)
            .map_err(|e| e.to_string())?;
    let out = tfe_runtime::kernels::run_kernel(op, &attrs, inputs).map_err(|e| e.to_string())?;
    Ok(out.into_iter().map(Arc::new).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfe_ops::Attrs;
    use tfe_runtime::api;

    fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
        Value::object(fields.map(|(k, v)| (k.to_string(), v)))
    }

    fn op_step(op: &str, inputs: Vec<Value>) -> Value {
        obj([
            ("op", Value::str(op)),
            ("attrs", tfe_graph::serial::attrs_to_value(&Attrs::new())),
            ("inputs", Value::Array(inputs)),
        ])
    }

    fn run_body(steps: Value, keep: Vec<Value>, give: Vec<Value>) -> Value {
        obj([
            ("type", Value::str("run")),
            ("steps", steps),
            ("keep", Value::Array(keep)),
            ("return", Value::Array(give)),
        ])
    }

    fn inline(values: Vec<f32>) -> Value {
        let n = values.len();
        let t = api::constant(values, [n]).unwrap();
        obj([("inline", tensor_to_value(&t.value().unwrap()))])
    }

    fn resident(id: i64) -> Value {
        obj([("resident", Value::Int(id))])
    }

    fn output(step: i64, output: i64) -> Value {
        obj([("step", Value::Int(step)), ("output", Value::Int(output))])
    }

    fn held(worker: &str) -> i64 {
        let snap = tfe_metrics::snapshot();
        let family = snap.family("tfe_dist_resident_tensors").expect("gauge family");
        let sample =
            family.samples.iter().find(|s| s.label.as_ref().is_some_and(|(_, v)| v == worker));
        match sample.map(|s| &s.value) {
            Some(tfe_metrics::SampleValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    #[test]
    fn run_keep_return_free_round_trip() {
        let state = WorkerState::new("unit/0");
        // square, then add the square to itself: the middle tensor is
        // neither kept nor returned, the last one is both.
        let steps = Value::Array(vec![
            op_step("square", vec![inline(vec![1.0, 2.0])]),
            op_step("add", vec![output(0, 0), output(0, 0)]),
        ]);
        let body = run_body(steps, vec![output(1, 0)], vec![output(1, 0)]);
        let (reply, shutdown) = state.handle_frame(&Frame::new(7, None, body));
        assert!(!shutdown);
        assert_eq!(reply.call_id, 7);
        let ok = reply.body.get("ok").expect("ok reply");
        let metas = ok.get("kept").and_then(Value::as_array).unwrap();
        assert_eq!(metas.len(), 1);
        assert_eq!(held("unit/0"), 1, "the square never entered the table");
        let id = metas[0].get("id").and_then(Value::as_i64).unwrap();
        assert_eq!(
            metas[0].get("dtype").and_then(Value::as_str),
            Some(tfe_tensor::DType::F32.name())
        );
        let returned = ok.get("returned").and_then(Value::as_array).unwrap();
        assert_eq!(tensor_from_value(&returned[0]).unwrap().to_f64_vec(), vec![2.0, 8.0]);

        // A program of no steps returns a resident tensor: a fetch.
        let fetch = run_body(Value::Array(vec![]), vec![], vec![resident(id)]);
        let (reply, _) = state.handle_frame(&Frame::new(8, None, fetch.clone()));
        let returned = reply.body.get("ok").unwrap().get("returned").unwrap().as_array().unwrap();
        assert_eq!(tensor_from_value(&returned[0]).unwrap().to_f64_vec(), vec![2.0, 8.0]);

        // The id rides on an unrelated request and is gone before it runs.
        let ping = obj([("type", Value::str("ping")), ("free", Value::from(vec![id]))]);
        let (reply, _) = state.handle_frame(&Frame::new(9, None, ping));
        assert!(reply.body.get("ok").is_some());
        assert_eq!(held("unit/0"), 0);
        // Fetch after the free is a typed remote fault.
        let (reply, _) = state.handle_frame(&Frame::new(10, None, fetch));
        assert!(reply.body.get("err").is_some());
    }

    /// Every way a program can be wrong is an `{err}` reply, and none of
    /// them leaves anything behind in the table.
    #[test]
    fn bad_programs_are_faults_and_adopt_nothing() {
        tfe_core::init();
        let state = WorkerState::new("unit/1");
        let x = || inline(vec![3.0]);
        let square = |input: Value| op_step("square", vec![input]);
        let keep_first = || vec![output(0, 0)];
        let one = obj([("inline", tensor_to_value(&api::scalar(1i32).value().unwrap()))]);
        let mismatched = op_step("add", vec![x(), one]);
        let call = obj([("call", Value::str("no_such_fn")), ("inputs", Value::Array(vec![]))]);
        for (what, body) in [
            ("no body", Value::Null),
            ("unknown type", obj([("type", Value::str("warp"))])),
            ("no steps", obj([("type", Value::str("run"))])),
            ("steps not a list", run_body(Value::str("square"), vec![], vec![])),
            (
                "keep not a list",
                obj([
                    ("type", Value::str("run")),
                    ("steps", Value::Array(vec![])),
                    ("keep", Value::Int(1)),
                ]),
            ),
            (
                "reads itself",
                run_body(Value::Array(vec![square(output(0, 0))]), keep_first(), vec![]),
            ),
            (
                "reads a later step",
                run_body(
                    Value::Array(vec![square(output(1, 0)), square(x())]),
                    keep_first(),
                    vec![],
                ),
            ),
            (
                "output out of range",
                run_body(
                    Value::Array(vec![square(x()), square(output(0, 1))]),
                    keep_first(),
                    vec![],
                ),
            ),
            (
                "kept output out of range",
                run_body(Value::Array(vec![square(x())]), vec![output(0, 0), output(0, 5)], vec![]),
            ),
            (
                "negative step",
                run_body(Value::Array(vec![square(x())]), vec![output(-1, 0)], vec![]),
            ),
            (
                "unknown resident",
                run_body(
                    Value::Array(vec![square(x()), square(resident(99))]),
                    keep_first(),
                    vec![],
                ),
            ),
            (
                "returned unknown resident",
                run_body(Value::Array(vec![square(x())]), keep_first(), vec![resident(-3)]),
            ),
            (
                "unknown op",
                run_body(
                    Value::Array(vec![square(x()), op_step("nope", vec![x()])]),
                    keep_first(),
                    vec![],
                ),
            ),
            (
                "unknown function",
                run_body(Value::Array(vec![square(x()), call]), keep_first(), vec![]),
            ),
            (
                "kernel error mid-program",
                run_body(
                    Value::Array(vec![square(x()), mismatched, square(x())]),
                    vec![output(0, 0), output(2, 0)],
                    vec![],
                ),
            ),
            (
                "reference of no kind",
                run_body(Value::Array(vec![square(Value::Int(4))]), vec![], vec![]),
            ),
            (
                "bad free list",
                obj([("type", Value::str("ping")), ("free", Value::str("everything"))]),
            ),
        ] {
            let (reply, shutdown) = state.handle_frame(&Frame::new(1, None, body));
            assert!(!shutdown, "{what}");
            assert!(reply.body.get("err").is_some(), "{what}: {:?}", reply.body);
            assert_eq!(held("unit/1"), 0, "{what} adopted something");
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
