//! The coordinator: cluster layout, worker lifecycle, remote execution,
//! and remote-resident tensors — rebuilt on the RPC layer so both
//! transports (in-process channels and real TCP sockets) run identical
//! protocol code.

use crate::error::DistError;
use crate::rpc::{RpcClient, RpcOptions};
use crate::transport::{spawn_in_process, spawn_tcp, Transport, WorkerControl};
use crate::worker::WorkerState;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tfe_device::{DeviceName, DeviceType};
use tfe_encode::Value;
use tfe_graph::serial::{attrs_to_value, tensor_from_value, tensor_to_value};
use tfe_ops::Attrs;
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
    /// One RPC to this worker, with the pending frees riding along. The
    /// worker drops them before it runs the request, so only a transport
    /// failure can lose them: then they go back on the list.
    fn call(
        &self,
        op: &str,
        mut body: Value,
        idempotent: bool,
        opts: Option<&RpcOptions>,
    ) -> Result<Value> {
        let freed = std::mem::take(&mut *self.free.lock());
        if !freed.is_empty() {
            let ids = freed.iter().map(|&id| Value::Int(id as i64)).collect();
            if let Value::Object(fields) = &mut body {
                fields.insert("free".to_string(), Value::Array(ids));
            }
        }
        let result = match opts {
            Some(opts) => self.client.call_with(op, body, idempotent, opts),
            None => self.client.call(op, body, idempotent),
        };
        if !matches!(result, Ok(_) | Err(DistError::RemoteFault { .. })) {
            self.free.lock().extend(freed);
        }
        result
    }
}

struct ClusterInner {
    workers: HashMap<(String, usize), WorkerEntry>,
    devices: Vec<DeviceName>,
    spec: ClusterSpec,
}

impl ClusterInner {
    fn entry(&self, device: &DeviceName) -> Result<&WorkerEntry> {
        self.workers
            .get(&(device.job.clone(), device.task))
            .ok_or_else(|| DistError::NoSuchWorker(device.to_string()))
    }
}

/// A running cluster: the coordinator's handle to its worker servers.
pub struct Cluster {
    inner: Arc<ClusterInner>,
}

/// A tensor resident on a remote device (§4.5: results "stay on the remote
/// device" until more ops consume them or the coordinator fetches them).
pub struct RemoteTensor {
    /// Where the tensor lives.
    pub device: DeviceName,
    /// Worker-local tensor id.
    pub id: u64,
    /// Element dtype.
    pub dtype: tfe_tensor::DType,
    /// Shape.
    pub dims: Vec<usize>,
    cluster: Arc<ClusterInner>,
    owned: Arc<AtomicU64>, // refcount-ish marker for Drop-based deletion
}

impl Clone for RemoteTensor {
    fn clone(&self) -> RemoteTensor {
        self.owned.fetch_add(1, Ordering::Relaxed);
        RemoteTensor {
            device: self.device.clone(),
            id: self.id,
            dtype: self.dtype,
            dims: self.dims.clone(),
            cluster: self.cluster.clone(),
            owned: self.owned.clone(),
        }
    }
}

impl Drop for RemoteTensor {
    fn drop(&mut self) {
        if self.owned.fetch_sub(1, Ordering::Relaxed) == 1 {
            // Last handle: queue the worker-side buffer for release with
            // the next request to that worker. No round trip here, so a
            // dead worker cannot stall a drop.
            if let Ok(entry) = self.cluster.entry(&self.device) {
                entry.free.lock().push(self.id);
            }
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
        let data = tensor_from_value(&self.fetch_value()?)
            .map_err(|e| DistError::Wire(crate::wire::WireError::Payload(e.to_string())))?;
        Ok(Tensor::from_data(data))
    }

    /// The serialized tensor exactly as the worker sent it.
    fn fetch_value(&self) -> Result<Value> {
        // An RPC is a request entry point (nested fetches — e.g. the
        // coordinator relaying cross-worker args — inherit the ambient
        // request instead).
        let _root = tfe_profile::request_scope("dist", || format!("rpc:fetch:{}", self.id));
        let body = Value::object([
            ("type".to_string(), Value::str("fetch")),
            ("id".to_string(), Value::Int(self.id as i64)),
        ]);
        self.cluster.entry(&self.device)?.call("fetch", body, true, None)
    }
}

fn encode_args(args: &[RemoteArg], target: &DeviceName) -> Result<Vec<Value>> {
    args.iter()
        .map(|a| match a {
            RemoteArg::Local(t) => {
                let data = t.value().map_err(DistError::from)?;
                Ok(Value::object([("inline".to_string(), tensor_to_value(&data))]))
            }
            // Cross-worker: fetch then re-ship (the coordinator relays,
            // like TF's transparent copies in §4.4). The fetched value goes
            // out as it came in; the target worker is the one to decode it.
            RemoteArg::Remote(r) if &r.device != target => {
                Ok(Value::object([("inline".to_string(), r.fetch_value()?)]))
            }
            RemoteArg::Remote(r) => {
                Ok(Value::object([("resident".to_string(), Value::Int(r.id as i64))]))
            }
        })
        .collect()
}

/// Parse the `{tensors: [{id, dtype, dims}]}` payload of an execute/call
/// response.
fn parse_metas(payload: &Value) -> Result<Vec<(u64, tfe_tensor::DType, Vec<usize>)>> {
    let bad = |msg: &str| DistError::Wire(crate::wire::WireError::Payload(msg.to_string()));
    payload
        .get("tensors")
        .and_then(Value::as_array)
        .ok_or_else(|| bad("response has no `tensors` array"))?
        .iter()
        .map(|m| {
            let id = m
                .get("id")
                .and_then(Value::as_i64)
                .filter(|id| *id >= 0)
                .ok_or_else(|| bad("tensor meta has no valid `id`"))?;
            let dtype = m
                .get("dtype")
                .and_then(Value::as_str)
                .and_then(tfe_tensor::DType::from_name)
                .ok_or_else(|| bad("tensor meta has no valid `dtype`"))?;
            let dims = m
                .get("dims")
                .and_then(Value::as_i64_array)
                .ok_or_else(|| bad("tensor meta has no valid `dims`"))?
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

    fn run(&self, target: &DeviceName, op: &str, body: Value) -> Result<Vec<RemoteTensor>> {
        let payload = self.inner.entry(target)?.call(op, body, false, None)?;
        Ok(parse_metas(&payload)?
            .into_iter()
            .map(|(id, dtype, dims)| RemoteTensor {
                device: target.clone(),
                id,
                dtype,
                dims,
                cluster: self.inner.clone(),
                owned: Arc::new(AtomicU64::new(1)),
            })
            .collect())
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
        let _root = tfe_profile::request_scope("dist", || format!("rpc:execute:{op}@{device}"));
        let target = self.inner.spec.resolve(device)?;
        let inputs = encode_args(args, &target)?;
        let body = Value::object([
            ("type".to_string(), Value::str("execute_op")),
            ("op".to_string(), Value::str(op)),
            ("attrs".to_string(), attrs_to_value(&attrs)),
            ("inputs".to_string(), Value::Array(inputs)),
        ]);
        self.run(&target, &format!("execute:{op}"), body)
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
        let _root = tfe_profile::request_scope("dist", || format!("rpc:call:{name}@{device}"));
        let target = self.inner.spec.resolve(device)?;
        let inputs = encode_args(args, &target)?;
        let body = Value::object([
            ("type".to_string(), Value::str("call_function")),
            ("name".to_string(), Value::str(name)),
            ("inputs".to_string(), Value::Array(inputs)),
        ]);
        self.run(&target, &format!("call:{name}"), body)
    }

    /// Liveness probe: a round-trip that exercises the full wire path.
    ///
    /// # Errors
    /// Typed transport failures within the RPC deadline.
    pub fn ping(&self, device: &str) -> Result<()> {
        let target = self.inner.spec.resolve(device)?;
        let body = Value::object([("type".to_string(), Value::str("ping"))]);
        self.inner.entry(&target)?.call("ping", body, true, None)?;
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
        self.inner.entry(&target)?.control.lock().kill();
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
            let _ = entry.call("shutdown", body, false, Some(&opts));
        }
        for entry in self.inner.workers.values() {
            entry.control.lock().kill();
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
