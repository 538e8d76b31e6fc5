//! Differential testing of the executor: for every randomly generated
//! graph, SerialPlanned, Parallel, and the optimized (pruned/CSE'd/folded/
//! fused) graph must agree on every output. The generator is seeded, so
//! every failure is reproducible from its case number.
//!
//! Covers elementwise chains, matmul, reductions, multi-output `split`,
//! every structural op (nested `call`, data-dependent `cond`, bounded
//! `while_loop`, `host_func`, `copy`), and (separately) stateful
//! variable read/write graphs, which the parallel scheduler must execute
//! in program order via sequencing edges — bit-identical to serial.

mod common;

use common::{
    counter_loop, eager_interpret, fuzz_cases, generate, generate_stateful, known, make_args, Avail,
};
use std::sync::Arc;
use tf_eager::graph::passes::{self, OptimizeOptions};
use tf_eager::graph::{GraphBuilder, GraphFunction};
use tf_eager::ExecMode;
use tfe_ops::Attrs;
use tfe_runtime::executor;
use tfe_tensor::{DType, Shape, TensorData};

#[test]
fn serial_parallel_and_optimized_agree_on_random_graphs() {
    tf_eager::init();
    let device = tfe_runtime::context::device_manager().host_cpu();
    let evaluator = |node: &tf_eager::graph::Node,
                     ins: &[Arc<TensorData>]|
     -> Result<Vec<TensorData>, String> {
        tfe_runtime::kernels::run_kernel(node.op, &node.attrs, ins).map_err(|e| e.to_string())
    };
    for seed in 0..fuzz_cases(120) {
        let (f, shapes) = generate(seed);
        let args = make_args(seed, &shapes);
        let serial = executor::run_function(&f, &args, &device, ExecMode::SerialPlanned)
            .unwrap_or_else(|e| panic!("case {seed} serial failed: {e}\n{}", f.dump()));
        let parallel = executor::run_function(&f, &args, &device, ExecMode::Parallel)
            .unwrap_or_else(|e| panic!("case {seed} parallel failed: {e}\n{}", f.dump()));
        // Same kernels, same operands: serial vs parallel is bit-identical.
        for (k, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert!(
                s.all_close(p, 0.0, 0.0),
                "case {seed} output {k}: serial {s:?} vs parallel {p:?}\n{}",
                f.dump()
            );
        }
        // The optimized graph may reassociate through fusion/folding:
        // allow 1e-6.
        let optimized = passes::optimize(&f, &OptimizeOptions::default(), Some(&evaluator));
        for mode in [ExecMode::SerialPlanned, ExecMode::Parallel] {
            let opt_out =
                executor::run_function(&optimized, &args, &device, mode).unwrap_or_else(|e| {
                    panic!("case {seed} optimized {mode:?} failed: {e}\n{}", optimized.dump())
                });
            for (k, (s, o)) in serial.iter().zip(&opt_out).enumerate() {
                assert!(
                    s.all_close(o, 1e-6, 1e-6),
                    "case {seed} output {k} ({mode:?}): raw {s:?} vs optimized {o:?}\n{}\n{}",
                    f.dump(),
                    optimized.dump()
                );
            }
        }
    }
}

/// Eager dispatch differential: the same random graphs, interpreted as
/// chains of eager ops, must match the serial graph executor bitwise — in
/// synchronous dispatch *and* under `async_scope`, where every op becomes
/// a pending handle on the device's dispatch stream. With `TFE_ASYNC=1`
/// the "sync" interpretation dispatches asynchronously too, so a CI run
/// under that variable covers env-driven async as well.
#[test]
fn eager_sync_and_async_match_serial_on_random_graphs() {
    tf_eager::init();
    let device = tfe_runtime::context::device_manager().host_cpu();
    for seed in 0..fuzz_cases(120) {
        let (f, shapes) = generate(seed);
        let args = make_args(seed, &shapes);
        let serial = executor::run_function(&f, &args, &device, ExecMode::SerialPlanned)
            .unwrap_or_else(|e| panic!("case {seed} serial failed: {e}\n{}", f.dump()));
        let eager = eager_interpret(&f, &args)
            .unwrap_or_else(|e| panic!("case {seed} eager failed: {e}\n{}", f.dump()));
        let eager_async = tf_eager::async_scope(|| eager_interpret(&f, &args))
            .unwrap_or_else(|e| panic!("case {seed} async scope failed: {e}\n{}", f.dump()))
            .unwrap_or_else(|e| panic!("case {seed} async eager failed: {e}\n{}", f.dump()));
        for (k, ((s, e), a)) in serial.iter().zip(&eager).zip(&eager_async).enumerate() {
            assert!(
                s.all_close(e, 0.0, 0.0),
                "case {seed} output {k}: serial {s:?} vs eager {e:?}\n{}",
                f.dump()
            );
            assert!(
                s.all_close(a, 0.0, 0.0),
                "case {seed} output {k}: serial {s:?} vs async eager {a:?}\n{}",
                f.dump()
            );
        }
    }
}

/// Stateful graphs: random interleavings of variable reads, writes, and
/// stateless math. Parallel must match serial bit-for-bit on outputs *and*
/// on final variable state — sequencing edges, not luck.
#[test]
fn stateful_graphs_match_serial_bit_for_bit() {
    tf_eager::init();
    let device = tfe_runtime::context::device_manager().host_cpu();
    for seed in 0..fuzz_cases(40) {
        let vars: Vec<tf_eager::Variable> =
            (0..2).map(|k| tf_eager::Variable::new(TensorData::scalar(k as f64 + 1.0))).collect();
        let initial: Vec<Arc<TensorData>> = vars.iter().map(|v| v.peek()).collect();
        let var_ids: Vec<i64> = vars.iter().map(|v| v.id() as i64).collect();
        let f = generate_stateful(seed, &var_ids);
        assert!(f.is_stateful());

        let serial = executor::run_function(&f, &[], &device, ExecMode::SerialPlanned)
            .unwrap_or_else(|e| panic!("case {seed} serial failed: {e}\n{}", f.dump()));
        let serial_state: Vec<f64> = vars.iter().map(|v| v.peek().scalar_f64().unwrap()).collect();

        // Reset and replay in parallel.
        for (v, init) in vars.iter().zip(&initial) {
            v.restore((**init).clone()).unwrap();
        }
        let parallel = executor::run_function(&f, &[], &device, ExecMode::Parallel)
            .unwrap_or_else(|e| panic!("case {seed} parallel failed: {e}\n{}", f.dump()));
        let parallel_state: Vec<f64> =
            vars.iter().map(|v| v.peek().scalar_f64().unwrap()).collect();

        for (k, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert!(
                s.all_close(p, 0.0, 0.0),
                "case {seed} output {k}: serial {s:?} vs parallel {p:?}\n{}",
                f.dump()
            );
        }
        assert_eq!(serial_state, parallel_state, "case {seed} variable state\n{}", f.dump());
    }
}

/// Async eager dispatch over stateful programs: reads and writes enqueued
/// on the device stream execute in program order, so interpreting the same
/// random read/write interleavings eagerly inside an `async_scope` must
/// reproduce the serial graph executor bit-for-bit — outputs *and* final
/// variable state.
#[test]
fn async_eager_stateful_interleavings_match_serial() {
    tf_eager::init();
    let device = tfe_runtime::context::device_manager().host_cpu();
    for seed in 0..fuzz_cases(40) {
        let vars: Vec<tf_eager::Variable> =
            (0..2).map(|k| tf_eager::Variable::new(TensorData::scalar(k as f64 + 1.0))).collect();
        let initial: Vec<Arc<TensorData>> = vars.iter().map(|v| v.peek()).collect();
        let var_ids: Vec<i64> = vars.iter().map(|v| v.id() as i64).collect();
        let f = generate_stateful(seed, &var_ids);

        let serial = executor::run_function(&f, &[], &device, ExecMode::SerialPlanned)
            .unwrap_or_else(|e| panic!("case {seed} serial failed: {e}\n{}", f.dump()));
        let serial_state: Vec<f64> = vars.iter().map(|v| v.peek().scalar_f64().unwrap()).collect();

        // Reset and replay the same program as async eager ops.
        for (v, init) in vars.iter().zip(&initial) {
            v.restore((**init).clone()).unwrap();
        }
        let eager_async = tf_eager::async_scope(|| eager_interpret(&f, &[]))
            .unwrap_or_else(|e| panic!("case {seed} async scope failed: {e}\n{}", f.dump()))
            .unwrap_or_else(|e| panic!("case {seed} async eager failed: {e}\n{}", f.dump()));
        let async_state: Vec<f64> = vars.iter().map(|v| v.peek().scalar_f64().unwrap()).collect();

        for (k, (s, a)) in serial.iter().zip(&eager_async).enumerate() {
            assert!(
                s.all_close(a, 0.0, 0.0),
                "case {seed} output {k}: serial {s:?} vs async eager {a:?}\n{}",
                f.dump()
            );
        }
        assert_eq!(serial_state, async_state, "case {seed} variable state\n{}", f.dump());
    }
}

// ---------------------------------------------------------------------------
// Failure paths: fault injection via gather nodes whose constant indices are
// out of range — a typed runtime error that only fires at execution time, so
// the scheduler (not the builder) has to cope with it.
// ---------------------------------------------------------------------------

/// A wide graph of 8 independent branches joined by adds. Branches listed in
/// `fail_branches` dispatch `gather(x, [10 + i])` on a 4-element input — each
/// produces a distinct "index out of range" error message.
fn build_faulty(tag: &str, fail_branches: &[usize]) -> GraphFunction {
    let mut b = GraphBuilder::new(tag);
    let x = b.placeholder(DType::F64, known(&[4])).unwrap();
    let mut branches = Vec::new();
    for i in 0..8usize {
        let val = if fail_branches.contains(&i) {
            let idx = b
                .constant(Arc::new(
                    TensorData::from_vec(vec![(10 + i) as i64], Shape::from([1])).unwrap(),
                ))
                .unwrap();
            b.add_node("gather", vec![x, idx], Attrs::new().with("axis", 0i64)).unwrap()[0]
        } else {
            let mut t = x;
            for _ in 0..3 {
                t = b.add_node("tanh", vec![t], Attrs::new()).unwrap()[0];
            }
            t
        };
        let s =
            b.add_node("reduce_sum", vec![val], Attrs::new().with("axes", vec![0i64])).unwrap()[0];
        branches.push(s);
    }
    let mut acc = branches[0];
    for &t in &branches[1..] {
        acc = b.add_node("add", vec![acc, t], Attrs::new()).unwrap()[0];
    }
    b.finish(vec![acc], 0)
}

fn fault_args() -> Vec<Arc<TensorData>> {
    vec![Arc::new(TensorData::from_vec(vec![0.1f64, 0.2, 0.3, 0.4], Shape::from([4])).unwrap())]
}

/// A single faulty node produces the identical typed error serially and in
/// parallel, and the parallel run drains (returns at all) every time.
#[test]
fn faulty_graphs_error_identically_serial_and_parallel() {
    tf_eager::init();
    let device = tfe_runtime::context::device_manager().host_cpu();
    let f = build_faulty("fault_single", &[3]);
    let args = fault_args();
    let serial_err = executor::run_function(&f, &args, &device, ExecMode::SerialPlanned)
        .expect_err("serial must fail")
        .to_string();
    assert!(serial_err.contains("gather index 13 out of range"), "{serial_err}");
    for _ in 0..25 {
        let parallel_err = executor::run_function(&f, &args, &device, ExecMode::Parallel)
            .expect_err("parallel must fail")
            .to_string();
        assert_eq!(parallel_err, serial_err, "same typed error in both modes");
    }
}

/// With several racing faults the parallel run reports exactly one of them
/// (first error wins; later failures don't overwrite it), still drains, and
/// never reports a secondary artifact like a missing-slot internal error.
#[test]
fn first_error_wins_among_racing_faults() {
    tf_eager::init();
    let device = tfe_runtime::context::device_manager().host_cpu();
    let f = build_faulty("fault_multi", &[1, 5]);
    let args = fault_args();
    let expected =
        ["gather index 11 out of range".to_string(), "gather index 15 out of range".to_string()];
    for round in 0..30 {
        let err = executor::run_function(&f, &args, &device, ExecMode::Parallel)
            .expect_err("must fail")
            .to_string();
        assert!(
            expected.iter().any(|e| err.contains(e.as_str())),
            "round {round}: got a non-injected error: {err}"
        );
    }
}

/// Aborted runs must not poison the shared worker pool or leak value slots:
/// failing and healthy runs interleaved for many rounds keep producing
/// bit-identical healthy outputs in both modes.
#[test]
fn pool_survives_repeated_aborts() {
    tf_eager::init();
    let device = tfe_runtime::context::device_manager().host_cpu();
    let faulty = build_faulty("fault_interleaved", &[0, 7]);
    let healthy = build_faulty("fault_none", &[]);
    let args = fault_args();
    let want = executor::run_function(&healthy, &args, &device, ExecMode::SerialPlanned)
        .expect("healthy serial run");
    for _ in 0..20 {
        executor::run_function(&faulty, &args, &device, ExecMode::Parallel)
            .expect_err("faulty run must fail");
        let got = executor::run_function(&healthy, &args, &device, ExecMode::Parallel)
            .expect("healthy parallel run after an abort");
        for (s, p) in want.iter().zip(&got) {
            assert!(s.all_close(p, 0.0, 0.0), "healthy output drifted after aborts");
        }
    }
}

// ---------------------------------------------------------------------------
// Structural ops at their limits. Eager dispatch and both graph drivers run
// the same implementation, so they must agree on values and on the typed
// error.
// ---------------------------------------------------------------------------

type Outcome = Result<Vec<Arc<TensorData>>, tf_eager::RuntimeError>;

/// `f` interpreted eagerly, run serially, and run in parallel.
fn three_ways(f: &GraphFunction, args: &[Arc<TensorData>]) -> [Outcome; 3] {
    let device = tfe_runtime::context::device_manager().host_cpu();
    [
        eager_interpret(f, args),
        executor::run_function(f, args, &device, ExecMode::SerialPlanned),
        executor::run_function(f, args, &device, ExecMode::Parallel),
    ]
}

/// A graph whose only op is a `trips`-trip counter loop over its argument,
/// limited to three iterations.
fn limited_loop(tag: &str, trips: f64) -> GraphFunction {
    let mut b = GraphBuilder::new(tag);
    let x = Avail { tref: b.placeholder(DType::F64, known(&[4])).unwrap(), dims: vec![4] };
    let limit = Attrs::new().with("max_iterations", 3i64);
    let out = counter_loop(&mut b, tag, &x, trips, limit);
    b.finish(vec![out], 0)
}

/// `max_iterations` bounds the trips a loop may make; a loop that ends after
/// exactly that many is within its limit.
#[test]
fn while_loop_may_make_max_iterations_trips() {
    tf_eager::init();
    let mut want = fault_args()[0].to_f64_vec();
    for _ in 0..3 {
        want.iter_mut().for_each(|v| *v = v.sin());
    }
    for outcome in three_ways(&limited_loop("loop_at_limit", 3.0), &fault_args()) {
        assert_eq!(outcome.expect("three trips are within the limit")[0].to_f64_vec(), want);
    }
}

#[test]
fn over_limit_loop_fails_alike_in_every_mode() {
    tf_eager::init();
    for outcome in three_ways(&limited_loop("loop_over_limit", 4.0), &fault_args()) {
        assert_eq!(
            outcome.expect_err("a fourth trip exceeds the limit"),
            tf_eager::RuntimeError::Internal("while_loop exceeded max_iterations=3".into())
        );
    }
}

#[test]
fn unknown_callee_fails_alike_in_every_mode() {
    tf_eager::init();
    let mut b = GraphBuilder::new("calls_nothing");
    let x = b.placeholder(DType::F64, known(&[4])).unwrap();
    let (d, s) = tfe_ops::catalog::encode_sig(&[(DType::F64, known(&[4]))]);
    let attrs = Attrs::new()
        .with("function", "diff_no_such_fn")
        .with("out_dtypes", d)
        .with("out_shapes", s);
    let out = b.add_node("call", vec![x], attrs).unwrap()[0];
    let f = b.finish(vec![out], 0);
    for outcome in three_ways(&f, &fault_args()) {
        assert_eq!(
            outcome.expect_err("the callee is not in the library"),
            tf_eager::RuntimeError::UnknownFunction("diff_no_such_fn".into())
        );
    }
}
