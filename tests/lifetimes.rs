//! Function lifetime (DESIGN.md §7 "Function lifetime"): the process-global
//! tables that resolve a name or an id are indexes, the handles own.
//!
//! Four claims. *Leaves nothing*: a dropped `Func` gives back its graphs,
//! its captured tensors, its gauge counts and its metric series — by count,
//! not by RSS, so the check is exact. *Still reachable means still alive*:
//! whatever can still follow one of a function's names (a tape, an outer
//! graph, a queued call, a data-parallel trainer) keeps it, so programs that
//! drop a `Func` early compute what they computed before. *Gone means
//! typed*: a name whose owner is gone is `UnknownFunction` / a `DistError`,
//! in every mode. And the frozen benchmark's pattern — build a trainer from
//! a name, drop every handle — keeps working.
//!
//! The counts are process-wide, so the tests of this file take turns.

use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};

use tf_eager::dist::{Cluster, ClusterSpec, DistError};
use tf_eager::graph::GraphBuilder;
use tf_eager::nn::{
    mlp, mse_grad_fn, Activation, DataParallel, Initializer, Layer, Reduction, Sgd,
};
use tf_eager::prelude::*;
use tf_eager::{context, Attrs, ExecMode, Op, RuntimeError};
use tfe_ops::SymShape;

static TURN: Mutex<()> = Mutex::new(());

fn turn() -> MutexGuard<'static, ()> {
    let g = TURN.lock().unwrap_or_else(|p| p.into_inner());
    tf_eager::init();
    g
}

fn bits(t: &Tensor) -> Vec<u8> {
    t.value().unwrap().to_le_bytes()
}

/// Everything a `Func` used to leave behind, counted.
#[derive(Debug, PartialEq, Eq)]
struct Residue {
    library: usize,
    live_tensors: i64,
    live_tensor_bytes: i64,
    cached_concrete_functions: i64,
    func_series: usize,
}

fn residue() -> Residue {
    // Under an ambient TFE_ASYNC=1 the last handles may die on the stream.
    tf_eager::sync().expect("no deferred error");
    let snap = tf_eager::metrics::snapshot();
    let gauge = |name: &str| snap.gauge_value(name).unwrap_or(0);
    Residue {
        library: context::library().len(),
        live_tensors: gauge("tfe_live_tensors"),
        live_tensor_bytes: gauge("tfe_live_tensor_bytes"),
        cached_concrete_functions: gauge("tfe_trace_cache_concrete_functions"),
        func_series: snap
            .families
            .iter()
            .filter(|f| f.name.starts_with("tfe_func_"))
            .map(|f| f.samples.len())
            .sum(),
    }
}

// ---------------------------------------------------------------------------
// (i) Leaves nothing
// ---------------------------------------------------------------------------

/// At the parent commit the loop left +150 library entries, +50 live tensors
/// (52 MB), +50 cached concrete functions and +200 metric series.
#[test]
fn a_dropped_func_leaves_nothing_behind() {
    let _t = turn();
    let before = residue();
    for _ in 0..50 {
        let weight = api::ones(DType::F32, [512, 512]); // 1 MiB
        let f = function1("lt_leak", move |x| api::reduce_sum(&api::mul(x, &weight)?, &[], false));
        let x = api::ones(DType::F32, [512, 512]);
        let tape = GradientTape::new();
        tape.watch(&x);
        let y = f.call1(&x).unwrap();
        let g = tape.gradient1(&y, &x).unwrap();
        assert_eq!(g.shape().unwrap().dims(), &[512, 512]);
        assert!(context::library().len() > before.library, "the function is there while held");
    }
    assert_eq!(residue(), before);
}

// ---------------------------------------------------------------------------
// (ii) Still reachable means still alive
// ---------------------------------------------------------------------------

fn cube(name: &str) -> Func {
    function1(name, |x| api::mul(&api::mul(x, x)?, x))
}

#[test]
fn a_tape_keeps_the_function_it_recorded() {
    let _t = turn();
    let x = api::scalar(2.0f64);

    // One tape; the `Func` is a temporary of the forward statement.
    let tape = GradientTape::new();
    tape.watch(&x);
    let y = cube("lt_tmp1").call1(&x).unwrap();
    assert_eq!(tape.gradient1(&y, &x).unwrap().scalar_f64().unwrap(), 12.0);

    // Two nested tapes, second order.
    let outer = GradientTape::new();
    outer.watch(&x);
    let inner = GradientTape::new();
    inner.watch(&x);
    let y = cube("lt_tmp2").call1(&x).unwrap();
    let dy = inner.gradient1(&y, &x).unwrap();
    assert_eq!(dy.scalar_f64().unwrap(), 12.0);
    assert_eq!(outer.gradient1(&dy, &x).unwrap().scalar_f64().unwrap(), 12.0);

    // A persistent tape, used twice.
    let tape = GradientTape::persistent();
    tape.watch(&x);
    let y = cube("lt_tmp3").call1(&x).unwrap();
    for _ in 0..2 {
        assert_eq!(tape.gradient1(&y, &x).unwrap().scalar_f64().unwrap(), 12.0);
    }

    // An eager `cond` whose branches are temporaries too.
    let tape = GradientTape::new();
    tape.watch(&x);
    let y = tf_eager::cond(
        &api::scalar(true),
        &cube("lt_then"),
        &function1("lt_else", api::neg),
        &[&x],
    )
    .unwrap()
    .remove(0);
    assert_eq!(tape.gradient1(&y, &x).unwrap().scalar_f64().unwrap(), 12.0);
}

/// A slot the outer closure traces through and the test then empties: the
/// only way to drop an inner `Func` while the closure that used it lives on.
type Slot<T> = Arc<Mutex<Option<T>>>;

fn slot<T>(value: T) -> Slot<T> {
    Arc::new(Mutex::new(Some(value)))
}

fn gone() -> RuntimeError {
    RuntimeError::Internal("retraced after the inner handle was dropped".to_string())
}

/// `outer(x) = inner(x) * x` with `inner(x) = x^3`; value, first and second
/// derivative at `x`, the inner `Func` dropped after the outer trace or not.
fn nested_call_run(drop_inner: bool) -> [Vec<u8>; 3] {
    let inner = slot(cube("lt_inner"));
    let outer = {
        let inner = inner.clone();
        function1("lt_outer", move |x| {
            let y = inner.lock().unwrap().as_ref().ok_or_else(gone)?.call1(x)?;
            api::mul(&y, x)
        })
    };
    let x = api::scalar(1.5f64);
    outer.concrete_for(&[Arg::from(&x)]).unwrap();
    if drop_inner {
        inner.lock().unwrap().take();
    }
    let t2 = GradientTape::new();
    t2.watch(&x);
    let t1 = GradientTape::new();
    t1.watch(&x);
    let y = outer.call1(&x).unwrap();
    let dy = t1.gradient1(&y, &x).unwrap();
    let ddy = t2.gradient1(&dy, &x).unwrap();
    [bits(&y), bits(&dy), bits(&ddy)]
}

#[test]
fn an_outer_graph_keeps_the_functions_it_calls() {
    let _t = turn();
    let alive = nested_call_run(false);
    assert_eq!(nested_call_run(true), alive);
    // x^4 at 1.5: 5.0625, 13.5, 27.
    assert_eq!(alive[2], 27.0f64.to_le_bytes().to_vec());
}

/// An outer function whose body is a `cond` over a `while_loop`'s result;
/// all four callees dropped after the outer trace, or not.
fn control_flow_run(drop_callees: bool) -> Vec<Vec<u8>> {
    let callees = slot([
        function1("lt_cf_then", |x| api::mul(x, &api::scalar(10.0f64))),
        function1("lt_cf_else", api::neg),
        function("lt_cf_cond", |args| {
            Ok(vec![api::less(args[0].as_tensor().expect("i"), &api::scalar(3.0f64))?])
        }),
        function("lt_cf_body", |args| {
            let i = args[0].as_tensor().expect("i");
            let acc = args[1].as_tensor().expect("acc");
            Ok(vec![api::add(i, &api::scalar(1.0f64))?, api::mul(acc, &api::scalar(2.0f64))?])
        }),
    ]);
    let outer = {
        let callees = callees.clone();
        function1("lt_cf_outer", move |x| {
            let guard = callees.lock().unwrap();
            let [then_f, else_f, cond_f, body_f] = guard.as_ref().ok_or_else(gone)?;
            let looped = tf_eager::while_loop(cond_f, body_f, &[&api::scalar(0.0f64), x])?;
            let pred = api::greater(&looped[1], &api::scalar(0.0f64))?;
            Ok(tf_eager::cond(&pred, then_f, else_f, &[&looped[1]])?.remove(0))
        })
    };
    outer.concrete_for(&[Arg::from(&api::scalar(0.0f64))]).unwrap();
    if drop_callees {
        callees.lock().unwrap().take();
    }
    [1.25f64, -1.25].iter().map(|&v| bits(&outer.call1(&api::scalar(v)).unwrap())).collect()
}

#[test]
fn an_outer_graph_keeps_its_branches_and_loop_bodies() {
    let _t = turn();
    let alive = control_flow_run(false);
    assert_eq!(control_flow_run(true), alive);
    assert_eq!(alive, vec![100.0f64.to_le_bytes().to_vec(), 10.0f64.to_le_bytes().to_vec()]);
}

#[test]
fn a_graph_keeps_the_host_closure_traced_into_it() {
    let _t = turn();
    let host = slot(HostFunc::new(
        |xs| Ok(vec![api::mul(&xs[0], &xs[0])?]),
        vec![(DType::F64, SymShape::scalar())],
    ));
    let id = host.lock().unwrap().as_ref().unwrap().id();
    let f = {
        let host = host.clone();
        function1("lt_hosty", move |x| {
            Ok(host.lock().unwrap().as_ref().ok_or_else(gone)?.call(&[x])?.remove(0))
        })
    };
    let x = api::scalar(3.0f64);
    f.concrete_for(&[Arg::from(&x)]).unwrap();
    host.lock().unwrap().take();

    assert_eq!(f.call1(&x).unwrap().scalar_f64().unwrap(), 9.0);
    let tape = GradientTape::new();
    tape.watch(&x);
    let y = f.call1(&x).unwrap();
    assert_eq!(tape.gradient1(&y, &x).unwrap().scalar_f64().unwrap(), 6.0);

    // The graph was the last holder.
    drop((f, tape, y));
    assert!(
        matches!(context::host_fn(id), Err(RuntimeError::UnknownHostFunction(got)) if got == id)
    );
}

/// An outer function with an inner `call` and a `cond`, every handle dropped
/// while its staged call is still queued behind a blocked one.
#[test]
fn a_queued_call_keeps_the_functions_it_will_resolve() {
    let _t = turn();
    let build = || {
        let inner = cube("lt_q_inner");
        let then_f = function1("lt_q_then", |x| api::add(x, &api::scalar(1.0f64)));
        let else_f = function1("lt_q_else", api::neg);
        function1("lt_q_outer", move |x| {
            let y = inner.call1(x)?;
            let pred = api::greater(&y, &api::scalar(0.0f64))?;
            Ok(tf_eager::cond(&pred, &then_f, &else_f, &[&y])?.remove(0))
        })
    };
    let x = api::scalar(2.0f64);
    let want = tf_eager::sync_scope(|| bits(&build().call1(&x).unwrap()));
    assert_eq!(want, 9.0f64.to_le_bytes().to_vec());

    // A staged call that holds the stream until the test lets it go.
    let (open, gate) = mpsc::channel::<()>();
    let gate = Mutex::new(gate);
    let wait = HostFunc::new(
        move |xs| {
            gate.lock().unwrap().recv().expect("the test opens the gate");
            Ok(xs.to_vec())
        },
        vec![(DType::F64, SymShape::scalar())],
    );
    let blocker = function1("lt_q_blocker", move |x| Ok(wait.call(&[x])?.remove(0)));

    let before = context::library().len();
    let got = tf_eager::async_scope(|| {
        let held = blocker.call1(&x).unwrap();
        let y = {
            let outer = build();
            outer.concrete_for(&[Arg::from(&x)]).unwrap();
            outer.call1(&x).unwrap()
        };
        // Every handle to `outer` and its callees is gone; its call is not.
        assert!(tf_eager::context::async_pending());
        assert!(context::library().len() > before, "the queued call still holds its graphs");
        open.send(()).unwrap();
        (held.value().unwrap(), bits(&y))
    })
    .expect("no deferred error");
    assert_eq!(got.1, want);
    drop(blocker);
    tf_eager::sync().unwrap();
    assert_eq!(context::library().len(), before, "and gives them back once it has run");
}

// ---------------------------------------------------------------------------
// (iii) Gone means typed
// ---------------------------------------------------------------------------

#[test]
fn a_name_whose_owner_is_gone_is_a_typed_error_in_every_mode() {
    let _t = turn();
    let x = api::ones(DType::F64, [2]);
    let (name, attrs) = {
        let f = function1("lt_gone", api::relu);
        let conc = f.concrete_for(&[Arg::from(&x)]).unwrap();
        let (d, s) = tfe_ops::catalog::encode_sig(&conc.function.output_sigs());
        let name = conc.function.name.clone();
        assert!(context::library().get(&name).is_some());
        (
            name.clone(),
            Attrs::new().with("function", name).with("out_dtypes", d).with("out_shapes", s),
        )
    };
    assert!(context::library().get(&name).is_none(), "the name went with the Func");
    assert!(tfe_core::concrete_named(&name).is_none());
    let unknown = |e: &RuntimeError| matches!(e, RuntimeError::UnknownFunction(n) if *n == name);

    // A hand-built graph that still names it, on both drivers.
    let mut b = GraphBuilder::new("lt_names_a_gone_function");
    let a = b.placeholder(DType::F64, SymShape::known(&Shape::from([2]))).unwrap();
    let out = b.add_op(Op::Call, vec![a], attrs.clone()).unwrap()[0];
    let g = b.finish(vec![out], 0);
    let device = context::device_manager().host_cpu();
    for mode in [ExecMode::SerialPlanned, ExecMode::Parallel] {
        let err = tfe_runtime::executor::run_function(&g, &[x.value().unwrap()], &device, mode)
            .expect_err("callee is gone");
        assert!(unknown(&err), "{mode:?}: {err}");
    }
    // The eager dispatcher, synchronous and asynchronous (the callee is
    // resolved at enqueue, so the error is immediate there too).
    let err = tf_eager::sync_scope(|| {
        context::execute(Op::Call, std::slice::from_ref(&x), attrs.clone())
    })
    .expect_err("callee is gone");
    assert!(unknown(&err), "eager: {err}");
    let err = tf_eager::async_scope(|| {
        context::execute(Op::Call, std::slice::from_ref(&x), attrs.clone())
    })
    .expect("nothing was enqueued")
    .expect_err("callee is gone");
    assert!(unknown(&err), "async: {err}");

    // A worker asked for it by name.
    let cluster = Cluster::start(&ClusterSpec::new().with_job("worker", 1).unwrap());
    let err = cluster
        .call_function("/job:worker/task:0/device:CPU:0", &name, &[(&x).into()])
        .expect_err("callee is gone");
    assert!(
        matches!(&err, DistError::RemoteFault { detail, .. } if detail.contains(&name)),
        "{err}"
    );
}

// ---------------------------------------------------------------------------
// (iv) The benchmark's pattern
// ---------------------------------------------------------------------------

/// `benchmark/src/workloads/dist.rs::Replica::new`: trace a gradient
/// function, hand its *name* to `DataParallel::new`, drop every handle.
fn replica(tag: &str) -> (Vec<Variable>, DataParallel) {
    let model = Arc::new(mlp(4, &[8], 1, Activation::Tanh, &mut Initializer::seeded(42)));
    let vars = model.variables();
    let func = mse_grad_fn(&format!("lt_dp_{tag}"), model, vars.clone());
    let conc = func
        .concrete_for(&[
            Arg::from(&api::zeros(DType::F32, [4, 4])),
            Arg::from(&api::zeros(DType::F32, [4, 1])),
        ])
        .unwrap();
    let spec = ClusterSpec::new().with_job("train", 2).unwrap();
    let workers = (0..2).map(|t| format!("/job:train/task:{t}/device:CPU:0")).collect();
    let trainer = DataParallel::new(
        Cluster::start(&spec),
        workers,
        Reduction::Ring,
        &conc.function.name,
        vars.clone(),
        Arc::new(Sgd::new(0.05)),
    )
    .unwrap();
    (vars, trainer)
}

#[test]
fn a_trainer_built_from_a_name_keeps_the_function() {
    let _t = turn();
    let (vars_dist, dist) = replica("dist");
    let (vars_local, local) = replica("local");
    let var_bits = |vars: &[Variable]| -> Vec<Vec<u8>> {
        vars.iter().map(|v| v.peek().to_le_bytes()).collect()
    };
    let mut rng = tfe_tensor::rng::TensorRng::seed_from_u64(7);
    for _ in 0..3 {
        let x = Tensor::from_data(rng.uniform(DType::F32, Shape::from([8, 4]), -1.0, 1.0).unwrap());
        let y = Tensor::from_data(rng.uniform(DType::F32, Shape::from([8, 1]), -1.0, 1.0).unwrap());
        let (d, l) = (dist.step(&x, &y).unwrap(), local.local_step(&x, &y).unwrap());
        assert_eq!(d.to_bits(), l.to_bits());
        assert_eq!(var_bits(&vars_dist), var_bits(&vars_local));
    }
}
