//! The virtual clock behind Figure 3, Table 1 and Figure 4: analytic cost
//! models, the clocks they charge, and the [`Simulator`] that charges them.
//!
//! The paper's benchmarks (§6) measure the interplay between per-operation
//! *dispatch* overhead (CPython in their case) and *kernel* execution time
//! on real accelerators. Neither CPython nor a GTX 1080/Cloud TPU is
//! available here, so the harness runs the real executors with a
//! [`Simulator`] installed as the thread's runtime [`Observer`]: every
//! dispatch, node and kernel it sees charges nanoseconds computed from the
//! models below. DESIGN.md §3 documents this substitution.

use crate::calibrate::SimProfile;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
use tfe_device::{Device, DeviceName};
use tfe_ops::{InferCtx, Op, Params, SymShape, WorkEstimate};
use tfe_parallel::lock;
use tfe_runtime::context::{Observer, Site};
use tfe_runtime::{Result, RuntimeError};
use tfe_tensor::{DType, Shape, TensorData};

/// Roofline-style device compute model.
///
/// `kernel_time = launch + max(min_kernel, max(flops/throughput,
/// bytes/bandwidth) / utilization(parallel_work))`.
///
/// The utilization ramp models small-batch under-utilization of wide
/// accelerators, which is what makes the paper's Figure 3 speed-ups vanish
/// at batch 32: kernel time stops shrinking as work shrinks, while the
/// per-op dispatch overhead stays constant.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeModel {
    /// Peak effective FLOP/s.
    pub flops_per_sec: f64,
    /// Peak effective memory bandwidth, bytes/s.
    pub bytes_per_sec: f64,
    /// Fixed per-kernel launch latency, ns.
    pub launch_ns: f64,
    /// Lower bound on any kernel's execution time, ns.
    pub min_kernel_ns: f64,
    /// Work (flops) needed to reach full utilization; below this the
    /// device runs at `flops/saturation_flops` of peak (floored at
    /// `min_utilization`).
    pub saturation_flops: f64,
    /// Utilization floor for tiny kernels.
    pub min_utilization: f64,
}

impl ComputeModel {
    /// Execution time of one kernel doing `work`, in nanoseconds (excluding
    /// dispatch overheads, including launch latency).
    pub fn kernel_time_ns(&self, work: WorkEstimate) -> f64 {
        let util = if self.saturation_flops > 0.0 {
            (work.flops / self.saturation_flops).clamp(self.min_utilization, 1.0)
        } else {
            1.0
        };
        let compute_ns = work.flops / (self.flops_per_sec * util) * 1e9;
        let memory_ns = work.bytes / self.bytes_per_sec * 1e9;
        self.launch_ns + compute_ns.max(memory_ns).max(self.min_kernel_ns)
    }
}

/// Per-dispatch host-side overheads for the two execution modes.
///
/// `interpreter_ns` stands in for the CPython interpreter the paper's eager
/// front-end pays per operation; `executor_node_ns` is the C++ dataflow
/// executor's per-node cost; `function_call_ns` is charged once per staged
/// function invocation; `eager_compile_ns` is the per-op compile+dispatch
/// penalty for running single ops on a compile-required device (§4.4's TPU
/// caveat); `staged_call_latency_ns` is the per-call device round-trip for
/// compiled programs (the Cloud-TPU RPC in Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchModel {
    /// Host interpreter cost per eager op, ns.
    pub interpreter_ns: f64,
    /// Dataflow-executor cost per staged node, ns.
    pub executor_node_ns: f64,
    /// Fixed cost per staged function call, ns.
    pub function_call_ns: f64,
    /// Per-op compile+dispatch penalty in eager mode on compile-required
    /// devices, ns.
    pub eager_compile_ns: f64,
    /// Per-call latency for launching a compiled program, ns.
    pub staged_call_latency_ns: f64,
}

/// A monotonically-advancing virtual clock, in nanoseconds.
///
/// Cloneable handles share the same underlying counter.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    ns: Arc<AtomicU64>,
}

impl VirtualClock {
    /// Advance by `ns` nanoseconds (fractions round to nearest).
    pub fn advance(&self, ns: f64) {
        self.ns.fetch_add(ns.max(0.0).round() as u64, Ordering::Relaxed);
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Current virtual time in seconds.
    pub fn now_secs(&self) -> f64 {
        self.now_ns() as f64 / 1e9
    }

    /// Reset to zero.
    pub fn reset(&self) {
        self.ns.store(0, Ordering::Relaxed);
    }
}

/// Aggregated simulation counters, shared by cloned handles.
///
/// The [`Simulator`] charges time here; the harness reads
/// `examples/sec = n / span`.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Host-side virtual time (interpreter, executor bookkeeping,
    /// per-op compilation).
    pub clock: VirtualClock,
    /// Device-stream virtual time (kernel execution, program launches).
    /// Dispatch is modeled as pipelined: a run's span is
    /// `max(host, device)` — the asynchronous-dispatch behavior of real
    /// accelerators, and the reason Figure 3's speed-ups vanish once the
    /// kernels are long enough to hide the interpreter.
    pub device_clock: VirtualClock,
    inner: Arc<Mutex<SimCounters>>,
}

#[derive(Debug, Default, Clone, PartialEq, Eq)]
/// Raw event counters recorded during simulated execution.
pub struct SimCounters {
    /// Ops dispatched eagerly.
    pub eager_ops: u64,
    /// Nodes executed inside staged functions.
    pub staged_nodes: u64,
    /// Staged function calls.
    pub function_calls: u64,
    /// Kernel launches on the simulated device.
    pub kernel_launches: u64,
}

impl SimStats {
    /// A fresh stats block at time zero.
    pub fn new() -> SimStats {
        SimStats::default()
    }

    /// Record an eagerly-dispatched op.
    pub fn count_eager_op(&self) {
        lock(&self.inner).eager_ops += 1;
    }

    /// Record a staged node execution.
    pub fn count_staged_node(&self) {
        lock(&self.inner).staged_nodes += 1;
    }

    /// Record a staged function call.
    pub fn count_function_call(&self) {
        lock(&self.inner).function_calls += 1;
    }

    /// Record a kernel launch.
    pub fn count_kernel(&self) {
        lock(&self.inner).kernel_launches += 1;
    }

    /// Snapshot the counters.
    pub fn counters(&self) -> SimCounters {
        lock(&self.inner).clone()
    }

    /// Reset counters and clocks.
    pub fn reset(&self) {
        *lock(&self.inner) = SimCounters::default();
        self.clock.reset();
        self.device_clock.reset();
    }
}

/// The virtual-clock simulator: a runtime [`Observer`] that charges
/// `stats` for what its thread runs and, in cost-only mode, stands in for
/// the kernels of the simulated device.
///
/// Its rules, by [`Site`]:
/// - an eager op pays `interpreter_ns` on the host clock, plus
///   `eager_compile_ns` on device kinds that require compilation;
/// - a graph node (`call`, `cond`, `while_loop` and `const` included) pays
///   `executor_node_ns` on the host clock;
/// - an op or node on the simulated device pays its kernel time under
///   `compute` on the device clock;
/// - an eager `call` pays `function_call_ns` on the host clock, plus
///   `staged_call_latency_ns` on the device clock on kinds that require
///   compilation.
#[derive(Debug)]
pub struct Simulator {
    /// Counters and clocks charged.
    pub stats: SimStats,
    /// Host-side overheads.
    pub dispatch: DispatchModel,
    /// Kernel time on the simulated device.
    pub compute: ComputeModel,
    /// The simulated device: what runs anywhere else pays no kernel time.
    pub device: DeviceName,
    /// Skip the simulated device's kernels, returning shared zeros of the
    /// inferred shapes instead — for paper-scale benchmarks (ResNet-50 at
    /// batch 32) whose numeric output is irrelevant. `call`, `cond` and
    /// `while_loop` nodes still run: the nodes of their bodies are zeroed.
    pub cost_only: bool,
}

impl Simulator {
    /// A simulator at time zero for `device` under `profile`, charging the
    /// host overheads of `dispatch`.
    pub fn new(profile: &SimProfile, dispatch: DispatchModel, device: &Device) -> Simulator {
        Simulator {
            stats: SimStats::new(),
            dispatch,
            compute: profile.compute.clone(),
            device: device.name().clone(),
            cost_only: profile.cost_only,
        }
    }
}

impl Observer for Simulator {
    fn observe(
        &self,
        site: Site,
        device: &Device,
        op: Op,
        params: &Params,
        inputs: &[Arc<TensorData>],
    ) -> Result<Option<Vec<Arc<TensorData>>>> {
        let (stats, dispatch) = (&self.stats, &self.dispatch);
        let compiles = device.device_type().requires_compilation();
        if site == Site::Call {
            stats.count_function_call();
            stats.clock.advance(dispatch.function_call_ns);
            if compiles {
                // Round-trip launch of the compiled program (device stream).
                stats.device_clock.advance(dispatch.staged_call_latency_ns);
            }
            return Ok(None);
        }
        let (dtypes, shapes): (Vec<_>, Vec<_>) =
            inputs.iter().map(|d| (d.dtype(), SymShape::known(d.shape()))).unzip();
        let ctx = InferCtx { dtypes: &dtypes, shapes: &shapes, params };
        let sigs = op.infer(&ctx)?;
        if site == Site::Eager {
            stats.count_eager_op();
            stats.clock.advance(dispatch.interpreter_ns);
            if compiles {
                stats.clock.advance(dispatch.eager_compile_ns);
            }
        } else {
            stats.count_staged_node();
            stats.clock.advance(dispatch.executor_node_ns);
        }
        if device.name() != &self.device {
            return Ok(None);
        }
        stats.device_clock.advance(self.compute.kernel_time_ns(op.work(&ctx, &sigs)));
        stats.count_kernel();
        if !self.cost_only || matches!(op, Op::Call | Op::Cond | Op::WhileLoop) {
            return Ok(None);
        }
        let zeros = sigs.into_iter().map(|(dtype, shape)| {
            shape.to_shape().map(|shape| zero_value(dtype, shape)).ok_or_else(|| {
                RuntimeError::Internal(format!(
                    "cost-only execution needs fully-defined shapes (op {op})"
                ))
            })
        });
        zeros.collect::<Result<_>>().map(Some)
    }
}

/// Shared zero tensors for cost-only execution: allocating a fresh
/// multi-hundred-megabyte buffer per op causes severe mmap churn, so
/// identical (dtype, shape) zeros share one immutable allocation.
fn zero_value(dtype: DType, shape: Shape) -> Arc<TensorData> {
    type ZeroCache = Mutex<HashMap<(DType, Vec<usize>), Arc<TensorData>>>;
    static CACHE: std::sync::OnceLock<ZeroCache> = std::sync::OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    lock(cache)
        .entry((dtype, shape.dims().to_vec()))
        .or_insert_with(|| Arc::new(TensorData::zeros(dtype, shape)))
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate;
    use crate::harness::sim_device;
    use std::rc::Rc;
    use tfe_graph::GraphBuilder;
    use tfe_ops::Attrs;
    use tfe_runtime::context;
    use tfe_runtime::{api, Tensor};

    fn model() -> ComputeModel {
        ComputeModel {
            flops_per_sec: 1e12,
            bytes_per_sec: 1e11,
            launch_ns: 1000.0,
            min_kernel_ns: 500.0,
            saturation_flops: 1e9,
            min_utilization: 0.01,
        }
    }

    fn work(flops: f64, bytes: f64) -> WorkEstimate {
        WorkEstimate { flops, bytes }
    }

    #[test]
    fn kernel_time_compute_bound() {
        // 1e12 flops at full utilization on a 1e12 flop/s device ~ 1s.
        let t = model().kernel_time_ns(work(1e12, 0.0));
        assert!((t - 1e9 - 1000.0).abs() < 1.0);
    }

    #[test]
    fn kernel_time_memory_bound() {
        // Tiny flops, huge bytes: memory term dominates.
        let t = model().kernel_time_ns(work(1e9, 1e11));
        assert!(t > 0.9e9);
    }

    #[test]
    fn kernel_time_floor() {
        let t = model().kernel_time_ns(work(1.0, 1.0));
        // utilization floor 0.01 -> 1 flop takes 100 flop-times = 0.1ns,
        // below min_kernel_ns, so floor applies: launch + min_kernel.
        assert!((t - 1500.0).abs() < 1.0);
    }

    #[test]
    fn utilization_ramp_flattens_small_work() {
        let m = model();
        // Work at 1/100 of saturation runs at 1% utilization: same time as
        // work at saturation.
        let small = m.kernel_time_ns(work(1e7, 0.0));
        let tiny = m.kernel_time_ns(work(1e6, 0.0));
        // t(small) = 1e7/(1e12*0.01) = 1ms; t(tiny) = 1e6/(1e12*0.001->clamped 0.01)
        assert!(small > tiny, "ramp must keep monotonicity: {small} vs {tiny}");
        let saturated = m.kernel_time_ns(work(1e9, 0.0));
        let double = m.kernel_time_ns(work(2e9, 0.0));
        // Past saturation time scales linearly.
        assert!((double - m.launch_ns) / (saturated - m.launch_ns) > 1.9);
    }

    #[test]
    fn clock_shared_between_clones() {
        let c = VirtualClock::default();
        let c2 = c.clone();
        c.advance(100.0);
        c2.advance(50.4);
        assert_eq!(c.now_ns(), 150);
        assert!((c.now_secs() - 150e-9).abs() < 1e-15);
        c.reset();
        assert_eq!(c2.now_ns(), 0);
    }

    #[test]
    fn negative_advance_ignored() {
        let c = VirtualClock::default();
        c.advance(-5.0);
        assert_eq!(c.now_ns(), 0);
    }

    #[test]
    fn stats_counters() {
        let s = SimStats::new();
        let s2 = s.clone();
        s.count_eager_op();
        s2.count_eager_op();
        s.count_staged_node();
        s.count_function_call();
        s.count_kernel();
        let c = s.counters();
        assert_eq!(c.eager_ops, 2);
        assert_eq!(c.staged_nodes, 1);
        assert_eq!(c.function_calls, 1);
        assert_eq!(c.kernel_launches, 1);
        s.reset();
        assert_eq!(s2.counters(), SimCounters::default());
    }

    /// Every charge distinct and nonzero, so the pinned clocks say which
    /// were made.
    fn dispatch() -> DispatchModel {
        DispatchModel {
            interpreter_ns: 1_000.0,
            executor_node_ns: 100.0,
            function_call_ns: 10_000.0,
            eager_compile_ns: 100_000.0,
            staged_call_latency_ns: 1_000_000.0,
        }
    }

    /// A call of `f(x, y) = relu(x * y + y)`: three nodes to run.
    fn call_params(name: &str) -> Params {
        let known = SymShape::known(&Shape::from([2, 3]));
        let mut b = GraphBuilder::new(name);
        let x = b.placeholder(DType::F32, known.clone()).unwrap();
        let y = b.placeholder(DType::F32, known).unwrap();
        let m = b.add_node("mul", vec![x, y], Attrs::new()).unwrap()[0];
        let s = b.add_node("add", vec![m, y], Attrs::new()).unwrap()[0];
        let r = b.add_node("relu", vec![s], Attrs::new()).unwrap()[0];
        let f = b.finish(vec![r], 0);
        Params::Call {
            outputs: f.output_sigs(),
            function: Arc::new(f).handle(),
            concrete: None,
            stateful: false,
            var_ids: Vec::new(),
        }
    }

    /// Run `f` on a fresh device `name` under a simulator; what it charged,
    /// and what `f` computed.
    fn run(
        name: &str,
        compute: ComputeModel,
        cost_only: bool,
        f: impl FnOnce() -> Vec<f64>,
    ) -> (SimCounters, u64, u64, Vec<f64>) {
        let device = sim_device(name);
        let sim = Rc::new(Simulator {
            stats: SimStats::new(),
            dispatch: dispatch(),
            compute,
            device: device.name().clone(),
            cost_only,
        });
        let _observer = context::observer_scope(sim.clone());
        let out = context::with_device(name, f).unwrap();
        (sim.stats.counters(), sim.stats.clock.now_ns(), sim.stats.device_clock.now_ns(), out)
    }

    fn counters(eager: u64, nodes: u64, calls: u64, kernels: u64) -> SimCounters {
        SimCounters {
            eager_ops: eager,
            staged_nodes: nodes,
            function_calls: calls,
            kernel_launches: kernels,
        }
    }

    /// Every charging rule, pinned in ns: Figure 3, Table 1 and Figure 4
    /// are sums of exactly these charges, so a change to any rule fails
    /// here before it moves a figure.
    #[test]
    fn charges_are_pinned() {
        tfe_core::init();
        let x = api::constant(vec![1.0f32, -2.0, 3.0, -4.0, 5.0, -6.0], [2, 3]).unwrap();
        let gpu = calibrate::figure3_gpu().compute;
        let tpu = calibrate::table1_tpu().compute;
        let add = || api::add(&x, &x).unwrap().to_f64_vec().unwrap();
        let call = |params: Params| {
            let args: Vec<Tensor> = vec![x.clone(), x.clone()];
            move || context::execute(Op::Call, &args, params).unwrap()[0].to_f64_vec().unwrap()
        };

        let sums = vec![2.0, -4.0, 6.0, -8.0, 10.0, -12.0];
        assert_eq!(
            run("/gpu:21", gpu.clone(), false, add),
            (counters(1, 0, 0, 1), 1000, 3000, sums)
        );

        let relu = vec![2.0, 2.0, 12.0, 12.0, 30.0, 30.0];
        let simulated = run("/gpu:22", gpu.clone(), false, call(call_params("sim_pin_a")));
        assert_eq!(simulated, (counters(0, 3, 1, 3), 10_300, 9_000, relu));
        let cost_only = run("/gpu:23", gpu, true, call(call_params("sim_pin_b")));
        assert_eq!(cost_only, (counters(0, 3, 1, 3), 10_300, 9_000, vec![0.0; 6]));

        // A compile-required kind: the eager op pays its compile, the call
        // its program launch.
        let on_tpu = call(call_params("sim_pin_c"));
        let tpu_run = run("/tpu:21", tpu, true, || [add(), on_tpu()].concat());
        assert_eq!(tpu_run, (counters(1, 3, 1, 4), 111_300, 1_002_800, vec![0.0; 12]));
    }
}
