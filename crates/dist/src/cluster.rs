//! The coordinator: cluster layout, worker lifecycle, remote execution,
//! and remote-resident tensors — rebuilt on the RPC layer so both
//! transports (in-process channels and real TCP sockets) run identical
//! protocol code.
//!
//! Everything the coordinator asks a worker to compute is a [`Program`]
//! (the `run` request of `worker.rs`), and every program travels in a
//! *round* ([`Cluster::round`]): at most one program per worker, all of
//! them written before any reply is read, so the workers run at the same
//! time and a phase of a distributed step costs one round trip, not one
//! per worker or per op. [`Cluster::execute`], [`Cluster::call_function`]
//! and [`RemoteTensor::fetch`] are one-request rounds of one- or zero-step
//! programs.

use crate::error::DistError;
use crate::rpc::{InFlight, RpcClient, RpcOptions};
use crate::transport::{spawn_in_process, spawn_tcp, Transport, WorkerControl};
use crate::wire::WireError;
use crate::worker::WorkerState;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tfe_device::{DeviceName, DeviceType};
use tfe_encode::Value;
use tfe_graph::serial::{attrs_to_value, tensor_from_value, tensor_to_value};
use tfe_ops::Attrs;
use tfe_parallel::lock;
use tfe_runtime::Tensor;

/// Result alias for coordinator-side operations.
pub type Result<T, E = DistError> = std::result::Result<T, E>;

/// Which byte transport a cluster's workers speak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Worker threads fed by channels; frames still round-trip through
    /// their wire-byte encoding. The bitwise differential reference.
    InProcess,
    /// Worker threads serving real localhost TCP listeners.
    Tcp,
}

/// The cluster layout: job name → number of worker tasks.
///
/// ```
/// use tfe_dist::ClusterSpec;
/// let spec = ClusterSpec::new().with_job("training", 3).unwrap();
/// assert_eq!(spec.num_tasks("training"), 3);
/// assert!(spec.with_job("training", 1).is_err()); // duplicate job
/// ```
#[derive(Debug, Clone, Default)]
pub struct ClusterSpec {
    jobs: Vec<(String, usize)>,
}

impl ClusterSpec {
    /// An empty spec.
    pub fn new() -> ClusterSpec {
        ClusterSpec::default()
    }

    /// Add a job with `tasks` worker tasks.
    ///
    /// # Errors
    /// [`DistError::DuplicateJob`] if `name` is already declared, and
    /// [`DistError::EmptyJob`] when `tasks` is zero.
    pub fn with_job(mut self, name: &str, tasks: usize) -> Result<ClusterSpec> {
        if self.jobs.iter().any(|(n, _)| n == name) {
            return Err(DistError::DuplicateJob(name.to_string()));
        }
        if tasks == 0 {
            return Err(DistError::EmptyJob(name.to_string()));
        }
        self.jobs.push((name.to_string(), tasks));
        Ok(self)
    }

    /// Number of tasks in `job` (0 when absent).
    pub fn num_tasks(&self, job: &str) -> usize {
        self.jobs.iter().find(|(n, _)| n == job).map(|(_, t)| *t).unwrap_or(0)
    }

    /// All (job, task) pairs, in declaration order.
    pub fn tasks(&self) -> Vec<(String, usize)> {
        self.jobs
            .iter()
            .flat_map(|(name, tasks)| (0..*tasks).map(move |t| (name.clone(), t)))
            .collect()
    }

    /// Resolve a device string against this spec: the device must parse,
    /// name a declared job, a task inside its range, and the worker's one
    /// contributed device (`CPU:0`).
    ///
    /// # Errors
    /// [`DistError::BadDevice`] for parse failures and non-CPU:0 devices,
    /// [`DistError::NoSuchWorker`] for unknown jobs and out-of-range tasks.
    pub fn resolve(&self, device: &str) -> Result<DeviceName> {
        let name = DeviceName::parse(device).map_err(DistError::BadDevice)?;
        if name.device_type != DeviceType::Cpu || name.index != 0 {
            return Err(DistError::BadDevice(format!(
                "workers contribute exactly one device (CPU:0); `{device}` names another"
            )));
        }
        let tasks = self.num_tasks(&name.job);
        if tasks == 0 {
            return Err(DistError::NoSuchWorker(format!(
                "job `{}` is not in the cluster",
                name.job
            )));
        }
        if name.task >= tasks {
            return Err(DistError::NoSuchWorker(format!(
                "job `{}` has {} task(s); task {} is out of range",
                name.job, tasks, name.task
            )));
        }
        Ok(name)
    }
}

/// An argument to a remote operation: a local value (shipped over the
/// wire) or a tensor already resident on the target worker.
#[derive(Debug, Clone)]
pub enum RemoteArg {
    /// Serialize and send this local tensor.
    Local(Tensor),
    /// Reference a tensor resident on a worker.
    Remote(RemoteTensor),
}

impl From<&Tensor> for RemoteArg {
    fn from(t: &Tensor) -> RemoteArg {
        RemoteArg::Local(t.clone())
    }
}

impl From<&RemoteTensor> for RemoteArg {
    fn from(t: &RemoteTensor) -> RemoteArg {
        RemoteArg::Remote(t.clone())
    }
}

struct WorkerEntry {
    client: Arc<RpcClient>,
    control: Mutex<WorkerControl>,
    addr: Option<SocketAddr>,
    /// Ids of resident tensors whose last handle dropped; the next request
    /// to this worker carries them as its `free` field.
    free: Mutex<Vec<u64>>,
}

impl WorkerEntry {
    /// The send half of one RPC to this worker, with the pending frees
    /// riding along. The worker drops them before it runs the request, so
    /// only a transport failure can lose them: then they go back on the
    /// list.
    fn send<'a>(
        &'a self,
        op: &str,
        mut body: Value,
        idempotent: bool,
        opts: &'a RpcOptions,
        overall: Instant,
    ) -> Result<Sent<'a>> {
        let freed = std::mem::take(&mut *lock(&self.free));
        if !freed.is_empty() {
            let ids = freed.iter().map(|&id| Value::Int(id as i64)).collect();
            if let Value::Object(fields) = &mut body {
                fields.insert("free".to_string(), Value::Array(ids));
            }
        }
        match self.client.send(op, body, idempotent, opts, overall) {
            Ok(flight) => Ok(Sent { entry: self, freed, flight }),
            Err(e) => {
                lock(&self.free).extend(freed);
                Err(e)
            }
        }
    }

    /// Both halves in sequence, under the client's own options.
    fn call(&self, op: &str, body: Value, idempotent: bool) -> Result<Value> {
        let opts = self.client.options();
        self.send(op, body, idempotent, opts, Instant::now() + opts.deadline)?.receive()
    }
}

/// The receive half of [`WorkerEntry::send`].
struct Sent<'a> {
    entry: &'a WorkerEntry,
    freed: Vec<u64>,
    flight: InFlight<'a>,
}

impl Sent<'_> {
    fn receive(self) -> Result<Value> {
        let result = self.flight.receive();
        if !matches!(result, Ok(_) | Err(DistError::RemoteFault { .. })) {
            lock(&self.entry.free).extend(self.freed);
        }
        result
    }
}

struct ClusterInner {
    workers: HashMap<(String, usize), WorkerEntry>,
    /// In spec order, which is the order a round writes and reads in.
    devices: Vec<DeviceName>,
    spec: ClusterSpec,
}

impl ClusterInner {
    fn entry(&self, device: &DeviceName) -> Result<&WorkerEntry> {
        self.workers
            .get(&(device.job.clone(), device.task))
            .ok_or_else(|| DistError::NoSuchWorker(device.to_string()))
    }

    /// One round (see [`Cluster::round`]); replies in the order of
    /// `programs`.
    fn round(self: &Arc<Self>, programs: Vec<(DeviceName, Program)>) -> Result<Vec<Reply>> {
        let _root = tfe_profile::request_scope("dist", || format!("rpc:round[{}]", programs.len()));
        // Spec order, on every coordinator thread: a pending reply holds its
        // worker's connection, so two rounds must take them in one order.
        let mut slots = Vec::with_capacity(programs.len());
        for (at, (device, program)) in programs.into_iter().enumerate() {
            let worker = self.devices.iter().position(|d| *d == device);
            let worker = worker.ok_or_else(|| DistError::NoSuchWorker(device.to_string()))?;
            slots.push((worker, at, program));
        }
        slots.sort_by_key(|&(worker, ..)| worker);
        if slots.windows(2).any(|pair| pair[0].0 == pair[1].0) {
            return Err(DistError::Spec("a round takes at most one program per worker".into()));
        }

        // Write every request, then read every reply — also after a
        // failure, so that no reply of this round is left for a later one.
        let mut replies: Vec<Option<Reply>> = slots.iter().map(|_| None).collect();
        let started = Instant::now();
        let mut sent = Vec::with_capacity(slots.len());
        let mut unsent = None;
        for (worker, at, program) in slots {
            let device = &self.devices[worker];
            let entry = self.entry(device)?;
            let opts = entry.client.options();
            let steps = program.steps.len();
            let span = tfe_profile::span("dist", || format!("rpc:run[{steps}]@{device}"));
            let (op, idempotent) = (format!("run[{steps}]"), program.idempotent());
            match entry.send(&op, program.into_body(), idempotent, opts, started + opts.deadline) {
                Ok(flight) => sent.push((at, device, flight, span)),
                Err(e) => {
                    unsent = Some(e);
                    break;
                }
            }
        }
        let mut failed = None;
        for (at, device, flight, span) in sent {
            match flight.receive().and_then(|payload| self.reply(device, payload)) {
                Ok(reply) => replies[at] = Some(reply),
                Err(e) => failed = failed.or(Some(e)),
            }
            drop(span);
        }
        // The request that was not written is the last in worker order.
        match failed.or(unsent) {
            Some(e) => Err(e),
            None => {
                Ok(replies.into_iter().map(|r| r.expect("every request was answered")).collect())
            }
        }
    }

    /// Turn the `ok` payload of a `run` request to `device` into handles and
    /// values.
    fn reply(self: &Arc<Self>, device: &DeviceName, payload: Value) -> Result<Reply> {
        let Value::Object(mut fields) = payload else {
            return Err(bad_reply("not an object"));
        };
        let kept = parse_metas(&fields.remove("kept").unwrap_or(Value::Null))?
            .into_iter()
            .map(|(id, dtype, dims)| RemoteTensor {
                device: device.clone(),
                id,
                dtype,
                dims,
                buffer: Arc::new(Buffer { device: device.clone(), id, cluster: self.clone() }),
            })
            .collect();
        match fields.remove("returned") {
            Some(Value::Array(returned)) => Ok(Reply { kept, returned }),
            _ => Err(bad_reply("no `returned` list")),
        }
    }
}

/// A running cluster: the coordinator's handle to its worker servers.
pub struct Cluster {
    inner: Arc<ClusterInner>,
}

/// A tensor resident on a remote device (§4.5: results "stay on the remote
/// device" until more ops consume them or the coordinator fetches them).
/// Clones share the worker-side buffer; it is released after the last one
/// drops.
#[derive(Clone)]
pub struct RemoteTensor {
    /// Where the tensor lives.
    pub device: DeviceName,
    /// Worker-local tensor id.
    pub id: u64,
    /// Element dtype.
    pub dtype: tfe_tensor::DType,
    /// Shape.
    pub dims: Vec<usize>,
    buffer: Arc<Buffer>,
}

/// The coordinator's one claim on a worker-side buffer.
struct Buffer {
    device: DeviceName,
    id: u64,
    cluster: Arc<ClusterInner>,
}

impl Drop for Buffer {
    /// Queue the buffer for release with the next request to its worker.
    /// No round trip here, so a dead worker cannot stall a drop.
    fn drop(&mut self) {
        if let Ok(entry) = self.cluster.entry(&self.device) {
            lock(&entry.free).push(self.id);
        }
    }
}

impl std::fmt::Debug for RemoteTensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "RemoteTensor(id={}, {:?}{:?} on {})",
            self.id, self.dtype, self.dims, self.device
        )
    }
}

impl RemoteTensor {
    /// Copy the value back to the coordinator (§4.5: "copy them to the
    /// central server, e.g. to use their value in an if statement").
    ///
    /// # Errors
    /// Typed [`DistError`] within the RPC deadline.
    pub fn fetch(&self) -> Result<Tensor> {
        decode_tensor(&self.fetch_value()?)
    }

    /// The serialized tensor exactly as the worker sent it: a program of no
    /// steps that returns the resident tensor.
    fn fetch_value(&self) -> Result<Value> {
        let mut program = Program::new();
        program.give(Input::Resident(self.id));
        let replies = self.buffer.cluster.round(vec![(self.device.clone(), program)])?;
        let returned = replies.into_iter().next().and_then(|r| r.returned.into_iter().next());
        returned.ok_or_else(|| bad_reply("nothing returned"))
    }
}

fn bad_reply(what: &str) -> DistError {
    DistError::Wire(WireError::Payload(format!("`run` reply: {what}")))
}

/// Decode a tensor a worker returned inline.
///
/// # Errors
/// [`DistError::Wire`] when the value is not a well-formed tensor.
pub fn decode_tensor(value: &Value) -> Result<Tensor> {
    let data =
        tensor_from_value(value).map_err(|e| DistError::Wire(WireError::Payload(e.to_string())))?;
    Ok(Tensor::from_data(data))
}

/// A reference to a tensor, as a worker's `run` request names one (the
/// table in `worker.rs`).
#[derive(Debug, Clone)]
pub enum Input {
    /// A serialized tensor shipped in the request. A value a worker
    /// returned goes back out as it came in, never decoded in between.
    Inline(Value),
    /// The id of a tensor resident on the worker the program is sent to.
    Resident(u64),
    /// Output `.1` of step `.0` of the same program.
    Step(usize, usize),
}

impl Input {
    /// Serialize a local tensor.
    ///
    /// # Errors
    /// A symbolic tensor (one being traced) has no value to send.
    pub fn tensor(t: &Tensor) -> Result<Input> {
        Ok(Input::Inline(tensor_to_value(&*t.value().map_err(DistError::from)?)))
    }

    fn into_value(self) -> Value {
        match self {
            Input::Inline(tensor) => Value::object([("inline".to_string(), tensor)]),
            Input::Resident(id) => Value::object([("resident".to_string(), Value::Int(id as i64))]),
            Input::Step(step, output) => Value::object([
                ("step".to_string(), Value::Int(step as i64)),
                ("output".to_string(), Value::Int(output as i64)),
            ]),
        }
    }
}

/// What one worker is asked to do in one request: an ordered list of steps
/// whose inputs may be earlier steps' outputs, and the tensors to keep
/// resident or to return inline when the last step has run. Whatever is
/// neither kept nor returned never outlives the request.
#[derive(Debug, Default)]
pub struct Program {
    steps: Vec<Value>,
    keep: Vec<Value>,
    give: Vec<Value>,
    calls: bool,
}

impl Program {
    /// A program that does nothing yet.
    pub fn new() -> Program {
        Program::default()
    }

    /// Append a primitive op; returns the step's index.
    pub fn op(&mut self, op: &str, attrs: &Attrs, inputs: Vec<Input>) -> usize {
        self.step(inputs, [("op", Value::str(op)), ("attrs", attrs_to_value(attrs))])
    }

    /// Append a call of a graph function by library name; returns the
    /// step's index.
    pub fn call(&mut self, name: &str, inputs: Vec<Input>) -> usize {
        self.calls = true;
        self.step(inputs, [("call", Value::str(name))])
    }

    fn step<const N: usize>(&mut self, inputs: Vec<Input>, what: [(&str, Value); N]) -> usize {
        let inputs = Value::Array(inputs.into_iter().map(Input::into_value).collect());
        let fields = what.into_iter().chain([("inputs", inputs)]);
        self.steps.push(Value::object(fields.map(|(key, value)| (key.to_string(), value))));
        self.steps.len() - 1
    }

    /// Keep `tensor` resident on the worker; the reply's `kept` lists what
    /// was kept in the order asked.
    pub fn keep(&mut self, tensor: Input) {
        self.keep.push(tensor.into_value());
    }

    /// Keep every output of `step`.
    pub fn keep_all(&mut self, step: usize) {
        self.keep.push(Value::object([("step".to_string(), Value::Int(step as i64))]));
    }

    /// Return `tensor` inline; the reply's `returned` lists what was
    /// returned in the order asked.
    pub fn give(&mut self, tensor: Input) {
        self.give.push(tensor.into_value());
    }

    /// How many tensors the reply will return.
    pub fn given(&self) -> usize {
        self.give.len()
    }

    /// Whether there is anything to send: a worker with nothing to do in a
    /// round gets no request.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty() && self.keep.is_empty() && self.give.is_empty()
    }

    /// Running it twice is harmless: it leaves nothing on the worker and
    /// calls no function, which might update a variable.
    fn idempotent(&self) -> bool {
        self.keep.is_empty() && !self.calls
    }

    fn into_body(self) -> Value {
        Value::object([
            ("type".to_string(), Value::str("run")),
            ("steps".to_string(), Value::Array(self.steps)),
            ("keep".to_string(), Value::Array(self.keep)),
            ("return".to_string(), Value::Array(self.give)),
        ])
    }
}

/// A worker's answer to one [`Program`].
#[derive(Debug, Default)]
pub struct Reply {
    /// Handles to what the program kept, in the order it asked.
    pub kept: Vec<RemoteTensor>,
    /// What the program returned, still serialized, in the order it asked.
    pub returned: Vec<Value>,
}

fn encode_args(args: &[RemoteArg], target: &DeviceName) -> Result<Vec<Input>> {
    args.iter()
        .map(|a| match a {
            RemoteArg::Local(t) => Input::tensor(t),
            // Cross-worker: fetch then re-ship (the coordinator relays,
            // like TF's transparent copies in §4.4). The fetched value goes
            // out as it came in; the target worker is the one to decode it.
            RemoteArg::Remote(r) if &r.device != target => Ok(Input::Inline(r.fetch_value()?)),
            RemoteArg::Remote(r) => Ok(Input::Resident(r.id)),
        })
        .collect()
}

/// Parse the `[{id, dtype, dims}]` list of a `run` reply.
fn parse_metas(kept: &Value) -> Result<Vec<(u64, tfe_tensor::DType, Vec<usize>)>> {
    kept.as_array()
        .ok_or_else(|| bad_reply("no `kept` list"))?
        .iter()
        .map(|m| {
            let id = m
                .get("id")
                .and_then(Value::as_i64)
                .filter(|id| *id >= 0)
                .ok_or_else(|| bad_reply("tensor meta has no valid `id`"))?;
            let dtype = m
                .get("dtype")
                .and_then(Value::as_str)
                .and_then(tfe_tensor::DType::from_name)
                .ok_or_else(|| bad_reply("tensor meta has no valid `dtype`"))?;
            let dims = m
                .get("dims")
                .and_then(Value::as_i64_array)
                .ok_or_else(|| bad_reply("tensor meta has no valid `dims`"))?
                .into_iter()
                .map(|d| d as usize)
                .collect();
            Ok((id as u64, dtype, dims))
        })
        .collect()
}

impl Cluster {
    /// Bring up one in-process worker per task in the spec (the bitwise
    /// differential reference for the TCP transport).
    pub fn start(spec: &ClusterSpec) -> Cluster {
        Cluster::start_with(spec, TransportKind::InProcess, RpcOptions::default())
            .expect("in-process workers cannot fail to start")
    }

    /// Bring up one TCP worker per task, each serving a real localhost
    /// listener.
    ///
    /// # Errors
    /// Socket bind failures.
    pub fn start_tcp(spec: &ClusterSpec) -> Result<Cluster> {
        Cluster::start_with(spec, TransportKind::Tcp, RpcOptions::default())
    }

    /// Bring up a cluster with an explicit transport and RPC policy.
    ///
    /// # Errors
    /// Socket bind failures (TCP only).
    pub fn start_with(
        spec: &ClusterSpec,
        kind: TransportKind,
        opts: RpcOptions,
    ) -> Result<Cluster> {
        let mut workers = HashMap::new();
        let mut devices = Vec::new();
        for (job, task) in spec.tasks() {
            let label = format!("{job}/{task}");
            let state = Arc::new(WorkerState::new(&label));
            let (transport, control): (Arc<dyn Transport>, WorkerControl) = match kind {
                TransportKind::InProcess => {
                    let (t, c) = spawn_in_process(&label, move |frame| state.handle_frame(&frame));
                    (Arc::new(t), c)
                }
                TransportKind::Tcp => {
                    let (t, c) = spawn_tcp(&label, move |frame| state.handle_frame(&frame))
                        .map_err(|e| DistError::Spec(format!("bind worker listener: {e}")))?;
                    (Arc::new(t), c)
                }
            };
            let addr = control.addr;
            let client = Arc::new(RpcClient::new(transport, label, opts.clone()));
            workers.insert(
                (job.clone(), task),
                WorkerEntry { client, control: Mutex::new(control), addr, free: Mutex::default() },
            );
            devices.push(DeviceName { job, task, device_type: DeviceType::Cpu, index: 0 });
        }
        Ok(Cluster { inner: Arc::new(ClusterInner { workers, devices, spec: spec.clone() }) })
    }

    /// All remote devices contributed by the workers (each task adds its
    /// local CPU to the pool, §4.5).
    pub fn list_devices(&self) -> Vec<DeviceName> {
        self.inner.devices.clone()
    }

    /// The transport this cluster's workers speak.
    pub fn transport_kind(&self) -> &'static str {
        self.inner
            .workers
            .values()
            .next()
            .map(|e| e.client.transport_kind())
            .unwrap_or("in_process")
    }

    /// The bound listener address of a worker (TCP clusters only).
    ///
    /// # Errors
    /// Unknown devices.
    pub fn worker_addr(&self, device: &str) -> Result<Option<SocketAddr>> {
        let target = self.inner.spec.resolve(device)?;
        Ok(self.inner.entry(&target)?.addr)
    }

    /// One round: send each worker its program, **every request written
    /// before any reply is read**, then read the replies in worker (spec)
    /// order — so the workers run at the same time, on the one coordinator
    /// thread. At most one program per worker; the replies come back in the
    /// order of `programs`. The whole round has one absolute deadline, the
    /// cluster's RPC deadline from its start.
    ///
    /// The retry rule is the RPC layer's: a connect failure is retried
    /// before the send; after a send only a program that keeps nothing and
    /// calls no function is sent again. A round reads (or gives up on, which
    /// abandons the connection) the reply to every request it wrote before
    /// it returns, whatever failed, and then reports the first failure in
    /// worker order.
    ///
    /// # Errors
    /// Unknown devices, two programs for one worker, or any typed RPC
    /// failure, within the deadline.
    pub fn round(&self, programs: Vec<(&str, Program)>) -> Result<Vec<Reply>> {
        let programs: Result<Vec<_>> = programs
            .into_iter()
            .map(|(device, program)| Ok((self.inner.spec.resolve(device)?, program)))
            .collect();
        self.inner.round(programs?)
    }

    /// A round of one request: `program` on `device`, everything it makes
    /// kept.
    fn run_one(
        &self,
        device: &str,
        build: impl FnOnce(&mut Program, Vec<Input>) -> usize,
        args: &[RemoteArg],
    ) -> Result<Vec<RemoteTensor>> {
        let target = self.inner.spec.resolve(device)?;
        let mut program = Program::new();
        let step = build(&mut program, encode_args(args, &target)?);
        program.keep_all(step);
        let replies = self.inner.round(vec![(target, program)])?;
        Ok(replies.into_iter().next().map(|r| r.kept).unwrap_or_default())
    }

    /// Execute one primitive op on the named remote device; outputs stay
    /// remote.
    ///
    /// # Errors
    /// Unknown devices, wire/transport failures, or kernel errors on the
    /// worker — all typed, all within the RPC deadline.
    pub fn execute(
        &self,
        device: &str,
        op: &str,
        args: &[RemoteArg],
        attrs: Attrs,
    ) -> Result<Vec<RemoteTensor>> {
        self.run_one(device, |program, inputs| program.op(op, &attrs, inputs), args)
    }

    /// Execute a whole graph function (by library name) on a remote device
    /// — §4.5: "execute operations or whole graph functions on remote
    /// devices through the worker servers".
    ///
    /// # Errors
    /// Unknown devices/functions or worker failures, all typed.
    pub fn call_function(
        &self,
        device: &str,
        name: &str,
        args: &[RemoteArg],
    ) -> Result<Vec<RemoteTensor>> {
        self.run_one(device, |program, inputs| program.call(name, inputs), args)
    }

    /// Liveness probe: a round-trip that exercises the full wire path.
    ///
    /// # Errors
    /// Typed transport failures within the RPC deadline.
    pub fn ping(&self, device: &str) -> Result<()> {
        let target = self.inner.spec.resolve(device)?;
        let body = Value::object([("type".to_string(), Value::str("ping"))]);
        self.inner.entry(&target)?.call("ping", body, true)?;
        Ok(())
    }

    /// Abruptly kill one worker (chaos testing): its server stops without
    /// draining, so in-flight and subsequent RPCs to it surface typed
    /// [`DistError::Timeout`] / [`DistError::ConnectionLost`] — the worker
    /// stays in the cluster map precisely so those RPCs fail loudly rather
    /// than with `NoSuchWorker`.
    ///
    /// # Errors
    /// Unknown devices.
    pub fn kill_worker(&self, device: &str) -> Result<()> {
        let target = self.inner.spec.resolve(device)?;
        lock(&self.inner.entry(&target)?.control).kill();
        Ok(())
    }

    /// Shut down all workers gracefully and join their threads.
    pub fn shutdown(&self) {
        let opts = RpcOptions {
            deadline: Duration::from_secs(2),
            attempt_timeout: Duration::from_secs(2),
            retries: 0,
            backoff: Duration::from_millis(1),
        };
        for entry in self.inner.workers.values() {
            let body = Value::object([("type".to_string(), Value::str("shutdown"))]);
            let sent = entry.send("shutdown", body, false, &opts, Instant::now() + opts.deadline);
            let _ = sent.and_then(Sent::receive);
        }
        for entry in self.inner.workers.values() {
            lock(&entry.control).kill();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Cluster({} {} workers)", self.inner.devices.len(), self.transport_kind())
    }
}
