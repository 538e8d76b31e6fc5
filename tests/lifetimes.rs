//! Function lifetime (DESIGN.md §7 "Function lifetime"): a node holds what
//! it runs, and one weak name index serves the callers that hold a name.
//!
//! Four claims. *Leaves nothing*: a dropped `Func` gives back its graphs,
//! its captured tensors, its gauge counts and its metric series — by count,
//! not by RSS, so the check is exact. *Still reachable means still alive*:
//! whatever can still run a function (a tape, an outer graph, a
//! data-parallel trainer) holds it, so programs that drop a `Func` early
//! compute what they computed before. *Gone means typed*: a name whose
//! function is gone is a `DistError` for a remote call, and a bundle that
//! calls a function it lacks does not load. And the frozen benchmark's
//! pattern — build a trainer from a name, drop every handle — keeps working.
//!
//! The counts are process-wide, so the tests of this file take turns.

mod common;

use common::{bits, tensor_bits, Bits};
use std::sync::{Arc, Mutex, MutexGuard, Weak};

use tf_eager::dist::{Cluster, ClusterSpec, DistError};
use tf_eager::encode::Value;
use tf_eager::graph::{GraphBuilder, GraphFunction};
use tf_eager::nn::{
    mlp, mse_grad_fn, Activation, DataParallel, Initializer, Layer, Reduction, Sgd,
};
use tf_eager::prelude::*;
use tf_eager::state::saved::{self, SavedError};
use tf_eager::{context, ExecMode, Op, Params, RuntimeError};
use tfe_ops::SymShape;

static TURN: Mutex<()> = Mutex::new(());

fn turn() -> MutexGuard<'static, ()> {
    let g = TURN.lock().unwrap_or_else(|p| p.into_inner());
    tf_eager::init();
    g
}

/// Everything a `Func` used to leave behind, counted.
#[derive(Debug, PartialEq, Eq)]
struct Residue {
    live_tensors: i64,
    live_tensor_bytes: i64,
    cached_concrete_functions: i64,
    func_series: usize,
}

fn residue() -> Residue {
    let snap = tf_eager::metrics::snapshot();
    let gauge = |name: &str| snap.gauge_value(name).unwrap_or(0);
    Residue {
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

/// Before functions were held by handle, the loop left +150 function-table
/// entries, +50 live tensors (52 MB), +50 cached concrete functions and +200
/// metric series.
#[test]
fn a_dropped_func_leaves_nothing_behind() {
    let _t = turn();
    let before = residue();
    let mut graphs: Vec<Weak<GraphFunction>> = Vec::new();
    for _ in 0..50 {
        let weight = api::ones(DType::F32, [512, 512]); // 1 MiB
        let f = function1("lt_leak", move |x| api::reduce_sum(&api::mul(x, &weight)?, &[], false));
        let x = api::ones(DType::F32, [512, 512]);
        let tape = GradientTape::new();
        tape.watch(&x);
        let y = f.call1(&x).unwrap();
        let g = tape.gradient1(&y, &x).unwrap();
        assert_eq!(g.shape().unwrap().dims(), &[512, 512]);
        // The inference graph, the forward variant and the backward.
        let conc = f.concrete_for(&[Arg::from(&x)]).unwrap();
        let pair = conc.forward_bundle().unwrap();
        let held = [&conc.function, &pair.fwd, &pair.bwd.function].map(Arc::downgrade);
        assert!(held.iter().all(|w| w.strong_count() > 0), "the graphs are there while held");
        graphs.extend(held);
    }
    assert!(graphs.iter().all(|w| w.strong_count() == 0), "a graph outlived its Func");
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
fn nested_call_run(drop_inner: bool) -> [Bits; 3] {
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
    [tensor_bits(&y), tensor_bits(&dy), tensor_bits(&ddy)]
}

#[test]
fn an_outer_graph_keeps_the_functions_it_calls() {
    let _t = turn();
    let alive = nested_call_run(false);
    assert_eq!(nested_call_run(true), alive);
    // x^4 at 1.5: 5.0625, 13.5, 27.
    assert_eq!(alive[2], bits(&TensorData::scalar(27.0f64)));
}

/// An outer function whose body is a `cond` over a `while_loop`'s result;
/// all four callees dropped after the outer trace, or not.
fn control_flow_run(drop_callees: bool) -> Vec<Bits> {
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
    [1.25f64, -1.25].iter().map(|&v| tensor_bits(&outer.call1(&api::scalar(v)).unwrap())).collect()
}

#[test]
fn an_outer_graph_keeps_its_branches_and_loop_bodies() {
    let _t = turn();
    let alive = control_flow_run(false);
    assert_eq!(control_flow_run(true), alive);
    assert_eq!(alive, [100.0f64, 10.0].map(|v| bits(&TensorData::scalar(v))));
}

#[test]
fn a_graph_keeps_the_host_closure_traced_into_it() {
    let _t = turn();
    // Owned by the closure alone, so it lives exactly as long.
    let probe = Arc::new(());
    let closure: Weak<()> = Arc::downgrade(&probe);
    let host = slot(HostFunc::new(
        move |xs| {
            let _ = &probe;
            Ok(vec![api::mul(&xs[0], &xs[0])?])
        },
        vec![(DType::F64, SymShape::scalar())],
    ));
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
    assert!(closure.upgrade().is_none(), "the closure went with the graph");
}

// ---------------------------------------------------------------------------
// (iii) Gone means typed
// ---------------------------------------------------------------------------

#[test]
fn a_name_whose_owner_is_gone_is_a_typed_error_in_every_mode() {
    let _t = turn();
    let x = api::ones(DType::F64, [2]);
    let device = context::device_manager().host_cpu();
    // A hand-built graph calling the function, run on both drivers and
    // eagerly; the node holds the callee, so dropping its `Func` changes no
    // bit of what it computes.
    let run = |g: &GraphFunction, attrs: &Params| -> Vec<Bits> {
        let mut out: Vec<Bits> = [ExecMode::SerialPlanned, ExecMode::Parallel]
            .map(|mode| {
                let y =
                    tfe_runtime::executor::run_function(g, &[x.value().unwrap()], &device, mode);
                bits(&y.unwrap()[0])
            })
            .to_vec();
        let eager = context::execute(Op::Call, std::slice::from_ref(&x), attrs.clone());
        out.push(tensor_bits(&eager.unwrap()[0]));
        out
    };
    let (name, graph, attrs, alive) = {
        let f = function1("lt_gone", api::relu);
        let conc = f.concrete_for(&[Arg::from(&x)]).unwrap();
        let attrs = Params::Call {
            function: conc.function.handle(),
            concrete: None,
            stateful: false,
            outputs: conc.function.output_sigs(),
            var_ids: Vec::new(),
        };
        let mut b = GraphBuilder::new("lt_holds_a_dropped_function");
        let a = b.placeholder(DType::F64, SymShape::known(&Shape::from([2]))).unwrap();
        let out = b.add_op(Op::Call, vec![a], attrs.clone()).unwrap()[0];
        let g = b.finish(vec![out], 0);
        assert!(tfe_core::concrete_named(&conc.name).is_some());
        let alive = run(&g, &attrs);
        (conc.name.clone(), g, attrs, alive)
    };
    assert!(tfe_core::concrete_named(&name).is_none(), "the name went with the Func");
    assert_eq!(run(&graph, &attrs), alive);
    assert_eq!(alive[0], bits(&TensorData::from_vec(vec![1.0f64, 1.0], Shape::from([2])).unwrap()));

    // A worker asked for it by name.
    let cluster = Cluster::start(&ClusterSpec::new().with_job("worker", 1).unwrap());
    let err = cluster
        .call_function("/job:worker/task:0/device:CPU:0", &name, &[(&x).into()])
        .expect_err("callee is gone");
    assert!(
        matches!(&err, DistError::RemoteFault { detail, .. } if detail.contains(&name)),
        "{err}"
    );

    // A bundle whose entry calls a function the bundle lacks.
    let inner = cube("lt_missing_inner");
    let outer = function1("lt_missing_outer", move |x| inner.call1(x));
    let conc = outer.concrete_for(&[Arg::from(&x)]).unwrap();
    let mut bundle = saved::export_to_value(&conc).unwrap();
    let callee = conc.function.callees()[0].name.clone();
    if let Value::Object(fields) = &mut bundle {
        if let Some(Value::Array(functions)) = fields.get_mut("functions") {
            functions.retain(|f| f.get("name").and_then(Value::as_str) != Some(callee.as_str()));
        }
    }
    match saved::import_from_value(&bundle) {
        Err(SavedError::Decode(detail)) => assert!(detail.contains(&callee), "{detail}"),
        other => panic!("loaded a bundle without `{callee}`: {:?}", other.err()),
    }
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
    let var_bits =
        |vars: &[Variable]| -> Vec<Bits> { vars.iter().map(|v| bits(&v.peek())).collect() };
    let mut rng = tfe_tensor::rng::TensorRng::seed_from_u64(7);
    for _ in 0..3 {
        let x = Tensor::from_data(rng.uniform(DType::F32, Shape::from([8, 4]), -1.0, 1.0).unwrap());
        let y = Tensor::from_data(rng.uniform(DType::F32, Shape::from([8, 1]), -1.0, 1.0).unwrap());
        let (d, l) = (dist.step(&x, &y).unwrap(), local.local_step(&x, &y).unwrap());
        assert_eq!(d.to_bits(), l.to_bits());
        assert_eq!(var_bits(&vars_dist), var_bits(&vars_local));
    }
}
