//! Deeper staging semantics: tensor-dependent control flow *inside*
//! traces, the §4.2 backward-work invariance claim, device ops in graphs,
//! executor modes, and trace-time error behavior.

mod common;

use std::sync::Arc;
use tf_eager::prelude::*;
use tf_eager::RuntimeError;
use tfe_runtime::context;

/// `cond` used inside a traced function becomes a `cond` *node* whose
/// branch is chosen at execution time — unlike a host `if`, which §4.1
/// warns is baked in at trace time.
#[test]
fn cond_inside_trace_stays_dynamic() {
    tf_eager::init();
    let then_f = function1("ct_then", |x| api::mul(x, &api::scalar(10.0f64)));
    let else_f = function1("ct_else", api::neg);
    let outer = {
        let then_f = then_f.clone();
        let else_f = else_f.clone();
        function("ct_outer", move |args| {
            let x = args[0].as_tensor().expect("x");
            let pred = api::greater(x, &api::scalar(0.0f64))?;
            tf_eager::cond(&pred, &then_f, &else_f, &[x])
        })
    };
    // One trace serves both branch outcomes.
    assert_eq!(outer.call_tensors(&[&api::scalar(3.0f64)]).unwrap()[0].scalar_f64().unwrap(), 30.0);
    assert_eq!(outer.call_tensors(&[&api::scalar(-3.0f64)]).unwrap()[0].scalar_f64().unwrap(), 3.0);
    assert_eq!(outer.num_concrete(), 1, "host if would have required two traces");
    // The cond survived as a node in the graph.
    let conc = outer.concrete_for(&[Arg::from(&api::scalar(0.0f64))]).unwrap();
    assert!(conc.raw.nodes.iter().any(|n| n.op == "cond"));
}

/// Likewise `while_loop` inside a trace: the trip count depends on the
/// runtime value, not on the traced one.
#[test]
fn while_inside_trace_stays_dynamic() {
    tf_eager::init();
    let cond_f = function("wt_cond", |args| {
        let i = args[0].as_tensor().expect("i");
        let limit = args[1].as_tensor().expect("limit");
        Ok(vec![api::less(i, limit)?])
    });
    let body_f = function("wt_body", |args| {
        let i = args[0].as_tensor().expect("i");
        let limit = args[1].as_tensor().expect("limit");
        Ok(vec![api::add(i, &api::scalar(1.0f64))?, limit.clone()])
    });
    let outer = {
        let cond_f = cond_f.clone();
        let body_f = body_f.clone();
        function("wt_outer", move |args| {
            let limit = args[0].as_tensor().expect("limit");
            let zero = api::scalar(0.0f64);
            let out = tf_eager::while_loop(&cond_f, &body_f, &[&zero, limit])?;
            Ok(vec![out[0].clone()])
        })
    };
    assert_eq!(outer.call_tensors(&[&api::scalar(4.0f64)]).unwrap()[0].scalar_f64().unwrap(), 4.0);
    assert_eq!(outer.call_tensors(&[&api::scalar(9.0f64)]).unwrap()[0].scalar_f64().unwrap(), 9.0);
    assert_eq!(outer.num_concrete(), 1);
}

/// The names of the primitive ops `f` dispatches eagerly on this thread,
/// read from a profile (the process-wide counters also count the tests
/// running beside this one). One profiling scope at a time.
fn eager_ops_of<R>(f: impl FnOnce() -> R) -> (R, Vec<String>) {
    static ONE_SCOPE: parking_lot::Mutex<()> = parking_lot::Mutex::new(());
    let _one = ONE_SCOPE.lock();
    tf_eager::profile::start();
    let out = f();
    let profile = tf_eager::profile::stop();
    let me = std::thread::current();
    let names = profile
        .threads
        .iter()
        .filter(|t| Some(t.name.as_str()) == me.name())
        .flat_map(|t| &t.events)
        .filter(|e| e.cat == "eager" && matches!(e.kind, tf_eager::profile::EventKind::Span { .. }))
        .map(|e| e.name.clone())
        .collect();
    (out, names)
}

fn bits(t: &Tensor) -> Vec<u8> {
    t.value().unwrap().to_le_bytes()
}

/// §4.2: "there is no meaningful change in the amount of computation ...
/// needed in the backward pass by staging or unstaging a particular
/// function". Under one tape the staged call is held to exactly that: its
/// backward has no more nodes than the eager backward dispatched ops, takes
/// only the forward values it reads, and no zero gradient is made for a
/// value no gradient reaches. Under two tapes the any-order pair runs,
/// which offers every intermediate and still recomputes nothing.
#[test]
fn staged_backward_work_matches_eager() {
    tf_eager::init();
    let program = |x: &Tensor| -> Result<Tensor, RuntimeError> {
        let mut h = x.clone();
        for _ in 0..6 {
            h = api::tanh(&api::mul(&h, &h)?)?;
        }
        api::reduce_sum(&h, &[], false)
    };

    // Eager: count ops recorded for forward, then count backward ops via a
    // second tape observing the gradient computation.
    let x = api::constant(vec![0.3f64, -0.2, 0.7], [3]).unwrap();
    let (fwd_ops, bwd_ops) = {
        let outer = GradientTape::persistent();
        outer.watch(&x);
        let inner = GradientTape::new();
        inner.watch(&x);
        let y = program(&x).unwrap();
        let fwd_ops = inner.num_recorded();
        let before = outer.num_recorded();
        let _g = inner.gradient1(&y, &x).unwrap();
        (fwd_ops, outer.num_recorded() - before)
    };
    assert!(fwd_ops >= 13, "forward should be ~13 ops, got {fwd_ops}");
    assert!(bwd_ops > fwd_ops, "backward does more work than forward");

    let f = function1("work_invariance", move |x| program(x));
    let conc = f.concrete_for(&[Arg::from(&x)]).unwrap();
    let raw_nodes = conc.raw.executable_node_count();
    let all_intermediates: usize = conc.raw.nodes.iter().map(|n| n.outputs.len()).sum();

    // One tape: the only primary output carries a gradient, so the call and
    // its gradient dispatch the seed and nothing else — no `zeros_like`.
    let (_, eager_ops) = eager_ops_of(|| {
        let tape = GradientTape::new();
        tape.watch(&x);
        let y = f.call1(&x).unwrap();
        tape.gradient1(&y, &x).unwrap()
    });
    assert_eq!(eager_ops, ["ones_like"], "a staged call under one tape makes no zero gradient");

    let first = conc.first_order_bundle().unwrap();
    let fwd = context::library().get(&first.fwd_name).unwrap();
    let bwd = context::library().get(&first.bwd_name).unwrap();
    let kept = fwd.outputs.len() - first.n_primary;
    assert!(kept < all_intermediates, "{kept} kept of {all_intermediates} intermediates");
    assert!(fwd.executable_node_count() <= raw_nodes, "the forward variant is optimized");
    assert_eq!(bwd.inputs.len(), kept + first.n_primary + first.bwd_captures.len());
    assert!(
        bwd.executable_node_count() <= bwd_ops,
        "first-order backward ({} nodes) exceeds the eager backward ({bwd_ops} ops)",
        bwd.executable_node_count()
    );

    // Two tapes: every intermediate is returned and takes a gradient, on the
    // trace as it is, and the backward is still within a small factor of the
    // eager one (no forward recomputation, which would double it).
    let any = conc.forward_bundle().unwrap();
    let fwd = context::library().get(&any.fwd_name).unwrap();
    let bwd = context::library().get(&any.bwd_name).unwrap();
    assert_eq!(fwd.outputs.len(), any.n_primary + all_intermediates);
    assert_eq!(fwd.executable_node_count(), raw_nodes, "must not recompute anything");
    assert_eq!(bwd.inputs.len(), 2 * all_intermediates + any.n_primary + any.bwd_captures.len());
    assert!(
        bwd.executable_node_count() as f64 <= 1.5 * bwd_ops as f64 + 10.0,
        "any-order backward ({} nodes) should not exceed eager backward ({bwd_ops} ops)",
        bwd.executable_node_count()
    );
}

/// The benchmark's LSTM: the cell called from a host loop under one tape,
/// the loss reading only the last `h`. Gradients through the staged cell
/// equal the eager cell's bit for bit, and the only zeros made are for the
/// primary outputs the loss never used (`out` at every position, `c` at the
/// last).
#[test]
fn lstm_cell_under_one_tape_matches_eager_bitwise() {
    use tf_eager::nn::rnn::{LstmCell, LstmState};
    tf_eager::init();
    const POSITIONS: usize = 3;
    let init = &mut tf_eager::nn::Initializer::seeded(7);
    let cell = Arc::new(LstmCell::new(16, 32, init));
    let staged = {
        let cell = cell.clone();
        function("lstm_cell_semantics", move |args| {
            let t = |i: usize| args[i].as_tensor().cloned().expect("tensor argument");
            let (out, next) = cell.step(&t(0), &LstmState { h: t(1), c: t(2) })?;
            Ok(vec![out, next.h, next.c])
        })
    };
    let mut rng = tfe_tensor::rng::TensorRng::seed_from_u64(11);
    let xs: Vec<Tensor> = (0..POSITIONS)
        .map(|_| Tensor::from_data(rng.normal(DType::F32, Shape::from([4, 16]), 0.0, 1.0).unwrap()))
        .collect();
    let gradients = |staged: Option<&Func>| -> Vec<Vec<u8>> {
        let tape = GradientTape::persistent();
        for x in &xs {
            tape.watch(x);
        }
        let mut state = cell.zero_state(4);
        for x in &xs {
            state = match staged {
                Some(f) => {
                    let mut out = f.call_tensors(&[x, &state.h, &state.c]).unwrap();
                    let c = out.remove(2);
                    LstmState { h: out.remove(1), c }
                }
                None => cell.step(x, &state).unwrap().1,
            };
        }
        let loss = api::reduce_sum(&api::square(&state.h).unwrap(), &[], false).unwrap();
        let vars = cell.variables();
        let mut grads = tape.gradient_vars(&loss, &vars.iter().collect::<Vec<_>>()).unwrap();
        grads.extend(tape.gradient(&loss, &xs.iter().collect::<Vec<_>>()).unwrap());
        std::iter::once(bits(&loss))
            .chain(grads.iter().map(|g| bits(g.as_ref().unwrap())))
            .collect()
    };
    let eager = gradients(None);
    let (through_staged, eager_ops) = eager_ops_of(|| gradients(Some(&staged)));
    assert_eq!(eager, through_staged);
    // Two gradient calls walked the tape, each: one zero per `out`, one for
    // the last `c`.
    let zeros = eager_ops.iter().filter(|name| *name == "zeros_like").count();
    assert_eq!(zeros, 2 * (POSITIONS + 1), "{eager_ops:?}");
}

/// Tape over eager ops == tape over the staged call, bit for bit, for the
/// shared random-graph corpus (the graphs whose every op has a gradient in
/// both modes), under one tape.
#[test]
fn corpus_gradients_under_one_tape_match_eager_bitwise() {
    tf_eager::init();
    // `while_loop` has no gradient, a `cond` inside a trace has none (its
    // predicate is symbolic), and the corpus' `call` nodes name callees
    // that were not made by `function`.
    let no_gradient = ["while_loop", "cond", "call"];
    let mut checked = 0;
    for seed in 0..common::fuzz_cases(120) {
        let (graph, shapes) = common::generate(seed);
        if graph.nodes.iter().any(|n| no_gradient.contains(&n.op.name())) {
            continue;
        }
        let graph = Arc::new(graph);
        let args: Vec<Tensor> = common::make_args(seed, &shapes)
            .iter()
            .map(|a| Tensor::from_data((**a).clone()))
            .collect();
        let staged = {
            let graph = graph.clone();
            function(&format!("corpus_grad_{seed}"), move |args| {
                let tensors: Vec<Tensor> =
                    args.iter().map(|a| a.as_tensor().cloned().expect("tensor")).collect();
                common::replay(&graph, &tensors)
            })
        };
        let gradients = |through_staged: bool| -> Vec<Vec<u8>> {
            let tape = GradientTape::new();
            for a in &args {
                tape.watch(a);
            }
            let outs = if through_staged {
                staged.call_tensors(&args.iter().collect::<Vec<_>>()).unwrap()
            } else {
                common::replay(&graph, &args).unwrap()
            };
            // Weight the first output so the two do not get the same `dy`.
            let first = api::reduce_sum(&api::square(&outs[0]).unwrap(), &[], false).unwrap();
            let second = api::reduce_sum(&outs[1], &[], false).unwrap();
            let loss = api::add(&first, &second).unwrap();
            let grads = tape.gradient(&loss, &args.iter().collect::<Vec<_>>()).unwrap();
            // An input the outputs do not depend on has no gradient eagerly
            // and a zero one through the call, whose record names every input.
            let zeros = |a: &Tensor| vec![0u8; bits(a).len()];
            grads
                .iter()
                .zip(&args)
                .map(|(g, a)| g.as_ref().map_or_else(|| zeros(a), bits))
                .collect()
        };
        assert_eq!(gradients(false), gradients(true), "corpus graph {seed}:\n{}", graph.dump());
        checked += 1;
    }
    assert!(checked >= 20, "only {checked} corpus graphs had gradients");
}

/// A tape opened *between* a one-tape forward and its `gradient` call
/// records the first-order backward call and differentiates it — with
/// respect to `dy`, the only input of that call it can hold — and agrees
/// with the same program run eagerly.
#[test]
fn tape_opened_after_the_forward_differentiates_the_backward_call() {
    tf_eager::init();
    let program = |x: &Tensor| api::tanh(&api::mul(x, x)?);
    let staged = function1("late_tape", program);
    let x = api::constant(vec![0.3f64, -0.2, 0.7], [3]).unwrap();
    let dy = api::constant(vec![1.5f64, -0.5, 2.0], [3]).unwrap();
    let run = |f: &dyn Fn(&Tensor) -> Tensor| -> (Vec<u8>, Vec<u8>) {
        let first = GradientTape::new();
        first.watch(&x);
        let y = f(&x);
        let late = GradientTape::new();
        late.watch(&dy);
        let g = first.gradient_with_output_grad(&y, Some(dy.clone()), &[&x]).unwrap().remove(0);
        let g = g.unwrap();
        // g = dy * f'(x), so d sum(g * g) / d dy = 2 * g * f'(x).
        let target = api::reduce_sum(&api::mul(&g, &g).unwrap(), &[], false).unwrap();
        (bits(&g), bits(&late.gradient1(&target, &dy).unwrap()))
    };
    let eager = run(&|x| program(x).unwrap());
    let through_staged = run(&|x| staged.call1(x).unwrap());
    assert_eq!(eager, through_staged);
}

/// `(2x)^3` through two levels of staged calls, the inner one a `call` node
/// of the outer one's graph: d/dx = 24 x^2, d2/dx2 = 48 x.
fn nested_cube(name: &str) -> tf_eager::Func {
    let cube = function1(&format!("{name}_cube"), |x| api::mul(&api::mul(x, x)?, x));
    function1(name, move |x| cube.call1(&api::mul(x, &api::scalar(2.0f64))?))
}

/// First and second derivative of `f` at `x`, under two tapes.
fn two_tape_derivatives(f: &tf_eager::Func, x: &Tensor) -> (f64, f64) {
    let t1 = GradientTape::new();
    t1.watch(x);
    let t2 = GradientTape::new();
    t2.watch(x);
    let y = f.call1(x).unwrap();
    let d1 = t2.gradient1(&y, x).unwrap();
    let d2 = t1.gradient1(&d1, x).unwrap();
    (d1.scalar_f64().unwrap(), d2.scalar_f64().unwrap())
}

/// An open trace observes every call made into it, so whatever the tapes at
/// trace time the graph holds `call` nodes of inference functions and
/// any-order variants only: a function traced under one tape and called
/// later under two gives the right second-order gradient through both levels.
#[test]
fn second_order_through_a_function_traced_under_one_tape() {
    tf_eager::init();
    let outer = nested_cube("nested_one_tape");
    let x = api::scalar(1.5f64);
    let tape = GradientTape::new();
    tape.watch(&x);
    let y = outer.call1(&x).unwrap();
    assert_eq!(tape.gradient1(&y, &x).unwrap().scalar_f64().unwrap(), 54.0);
    drop(tape);
    let conc = outer.concrete_for(&[Arg::from(&x)]).unwrap();
    let callees = conc.raw.callee_names();
    assert!(callees.iter().all(|name| !name.ends_with("__fwd1")), "{callees:?}");
    assert_eq!(two_tape_derivatives(&outer, &x), (54.0, 72.0));
    assert_eq!(outer.num_concrete(), 1);
}

/// Traced under no tape, the outer graph calls the inner inference function;
/// its backward re-runs the inner call and differentiates it *inside a
/// trace*, which holds both of those calls: they are the any-order pair, and
/// the backward graph can itself be differentiated.
#[test]
fn second_order_through_a_function_traced_under_no_tape() {
    tf_eager::init();
    let outer = nested_cube("nested_no_tape");
    let x = api::scalar(1.5f64);
    assert_eq!(outer.call1(&x).unwrap().scalar_f64().unwrap(), 27.0);
    assert_eq!(two_tape_derivatives(&outer, &x), (54.0, 72.0));
    // One tape first, then two: the first-order pair of the outer function
    // does not get in the way of its any-order one.
    let late = nested_cube("nested_no_tape_late");
    late.call1(&x).unwrap();
    let tape = GradientTape::new();
    tape.watch(&x);
    let y = late.call1(&x).unwrap();
    assert_eq!(tape.gradient1(&y, &x).unwrap().scalar_f64().unwrap(), 54.0);
    drop(tape);
    assert_eq!(two_tape_derivatives(&late, &x), (54.0, 72.0));
}

/// A function that takes a gradient through a nested function inside its own
/// trace, under a tape of its own, puts the inner forward and backward calls
/// side by side in its graph. Differentiated from outside, one tape or two,
/// it agrees with the same program run eagerly.
#[test]
fn gradient_inside_a_trace_is_differentiable_from_outside() {
    tf_eager::init();
    let cube = function1("inner_grad_cube", |x| api::mul(&api::mul(x, x)?, x));
    // d/dx x^3 = 3 x^2, as a program.
    let slope = move |x: &Tensor| -> tfe_runtime::Result<Tensor> {
        let tape = GradientTape::new();
        tape.watch(x);
        let y = cube.call1(x)?;
        tape.gradient1(&y, x)
    };
    let staged = function1("inner_grad_outer", slope.clone());
    let x = api::scalar(1.5f64);
    assert_eq!(staged.call1(&x).unwrap().scalar_f64().unwrap(), 6.75);
    let derivatives = |f: &dyn Fn(&Tensor) -> Tensor| -> (Vec<u8>, Vec<u8>) {
        let t1 = GradientTape::new();
        t1.watch(&x);
        let t2 = GradientTape::new();
        t2.watch(&x);
        let d1 = t2.gradient1(&f(&x), &x).unwrap();
        (bits(&d1), bits(&t1.gradient1(&d1, &x).unwrap()))
    };
    // d2/dx2 = 6 x, d3/dx3 = 6.
    let eager = derivatives(&|x| slope(x).unwrap());
    assert_eq!(eager, (bits(&api::scalar(9.0f64)), bits(&api::scalar(6.0f64))));
    assert_eq!(derivatives(&|x| staged.call1(x).unwrap()), eager);
    let tape = GradientTape::new();
    tape.watch(&x);
    let y = staged.call1(&x).unwrap();
    assert_eq!(tape.gradient1(&y, &x).unwrap().scalar_f64().unwrap(), 9.0);
}

/// A gradient cannot reach an intermediate of a first-order record; if one
/// is handed to it all the same, the answer is a typed error, not a
/// gradient with that term missing.
#[test]
fn gradient_into_a_first_order_intermediate_is_a_typed_error() {
    tf_eager::init();
    let f = function1("first_order_only", |x| api::tanh(&api::mul(x, x)?));
    let x = api::constant(vec![0.3f64, -0.2], [2]).unwrap();
    let conc = f.concrete_for(&[Arg::from(&x)]).unwrap();
    let pair = conc.first_order_bundle().unwrap();
    let fwd = context::library().get(&pair.fwd_name).unwrap();
    assert!(fwd.outputs.len() > pair.n_primary, "the backward of tanh(x*x) reads forward values");
    let (d, s) = tfe_ops::catalog::encode_sig(&fwd.output_sigs());
    let attrs = tfe_ops::Attrs::new()
        .with("function", pair.fwd_name.clone())
        .with("stateful", false)
        .with("out_dtypes", d)
        .with("out_shapes", s)
        .with("var_ids", Vec::<i64>::new());
    let outputs =
        context::execute(tfe_ops::Op::Call, std::slice::from_ref(&x), attrs.clone()).unwrap();
    let record = Arc::new(tfe_runtime::TapeRecord::new(
        tfe_ops::Op::Call,
        attrs,
        std::slice::from_ref(&x),
        &outputs,
    ));
    // A gradient for the primary output alone is the ordinary case.
    let seed = |t: &Tensor| std::collections::HashMap::from([(t.id(), api::ones(DType::F64, [2]))]);
    let grads =
        tfe_autodiff::accumulate_many(std::slice::from_ref(&record), seed(&outputs[0])).unwrap();
    assert!(grads.contains_key(&x.id()));
    let err = tfe_autodiff::accumulate_many(&[record], seed(&outputs[pair.n_primary])).unwrap_err();
    assert!(matches!(err, RuntimeError::Internal(_)), "want Internal, got {err:?}");
    assert!(err.to_string().contains("first-order"), "{err}");
}

/// The one program that sends a gradient to a first-order intermediate: the
/// only tape's `gradient` call is staged into a function (which captures the
/// kept intermediates) and that function is called under the same tape. The
/// answer is the typed error; with a second tape around the forward it is
/// the second derivative.
#[test]
fn staged_gradient_call_under_its_own_persistent_tape() {
    tf_eager::init();
    let cube = function1("own_tape_cube", |x| api::mul(&api::mul(x, x)?, x));
    let x = api::scalar(1.5f64);
    let second_derivative = |tapes: usize| {
        let outer: Vec<GradientTape> = (1..tapes).map(|_| GradientTape::new()).collect();
        let tape = Arc::new(GradientTape::persistent());
        tape.watch(&x);
        let y = cube.call1(&x).unwrap();
        let slope = {
            let (tape, y, x) = (tape.clone(), y.clone(), x.clone());
            function("own_tape_slope", move |_| Ok(vec![tape.gradient1(&y, &x)?]))
        };
        let d1 = slope.call(&[]).unwrap().remove(0);
        assert_eq!(d1.scalar_f64().unwrap(), 6.75);
        let d2 = tape.gradient1(&d1, &x);
        drop(outer);
        d2
    };
    let err = second_derivative(1).unwrap_err();
    assert!(matches!(err, RuntimeError::Internal(_)), "want Internal, got {err:?}");
    assert!(err.to_string().contains("second tape"), "{err}");
    assert_eq!(second_derivative(2).unwrap().scalar_f64().unwrap(), 9.0);
}

/// Device copies recorded inside traces execute as `copy` nodes.
#[test]
fn copy_nodes_in_graphs() {
    tf_eager::init();
    tf_eager::register_sim_device(
        "/gpu:1",
        tf_eager::device::profiles::gtx1080(),
        tf_eager::device::KernelMode::Simulated,
    )
    .ok();
    let f = function1("copies", |x| {
        let on_gpu = api::copy_to(x, "/gpu:1")?;
        let back = api::copy_to(&api::square(&on_gpu)?, "/cpu:0")?;
        api::add(&back, &api::scalar(1.0f32))
    });
    let out = f.call1(&api::scalar(3.0f32)).unwrap();
    assert_eq!(out.scalar_f64().unwrap(), 10.0);
    let conc = f.concrete_for(&[Arg::from(&api::scalar(0.0f32))]).unwrap();
    assert_eq!(conc.raw.nodes.iter().filter(|n| n.op == "copy").count(), 2);
}

/// `print` is stateful: it survives pruning even though nothing consumes
/// it, and passes values through unchanged.
#[test]
fn print_is_kept_by_pruning() {
    tf_eager::init();
    let f = function1("printer", |x| {
        let _side_effect = api::print(x, "traced value: ")?;
        api::neg(x)
    });
    let out = f.call1(&api::scalar(5.0f64)).unwrap();
    assert_eq!(out.scalar_f64().unwrap(), -5.0);
    let conc = f.concrete_for(&[Arg::from(&api::scalar(0.0f64))]).unwrap();
    assert!(
        conc.function.nodes.iter().any(|n| n.op == "print"),
        "stateful print must survive optimization"
    );
}

/// Parallel executor mode produces the same results as serial for a
/// staged stateless function.
#[test]
fn parallel_exec_mode_for_calls() {
    tf_eager::init();
    let f = function1("par_mode", |x| {
        let mut branches = Vec::new();
        for i in 0..6 {
            let c = api::scalar(i as f64);
            branches.push(api::tanh(&api::add(x, &c)?)?);
        }
        let mut acc = branches[0].clone();
        for b in &branches[1..] {
            acc = api::add(&acc, b)?;
        }
        Ok(acc)
    });
    let x = api::constant(vec![0.1f64, 0.2], [2]).unwrap();
    let serial = f.call1(&x).unwrap().to_f64_vec().unwrap();
    let prev = context::set_exec_mode(tf_eager::ExecMode::Parallel);
    let parallel = f.call1(&x).unwrap().to_f64_vec().unwrap();
    context::set_exec_mode(prev);
    assert_eq!(serial, parallel);
}

/// Trace-time errors surface immediately with the same classification an
/// eager run would produce (§4.1: validation happens while tracing).
#[test]
fn trace_time_errors_match_eager_errors() {
    tf_eager::init();
    let bad = function("bad_shapes", |args| {
        let x = args[0].as_tensor().expect("x");
        // (2,3) @ (2,3) is invalid.
        Ok(vec![api::matmul(x, x)?])
    });
    let x = api::zeros(DType::F32, [2, 3]);
    let staged_err = bad.call(&[Arg::from(&x)]).unwrap_err().to_string();
    let eager_err = api::matmul(&x, &x).unwrap_err().to_string();
    assert_eq!(staged_err, eager_err, "same validation either way");
}

/// Dead variable ids fail staged execution, matching §4.3's contract:
/// "staged computations reference variables by unique identifiers, which
/// are no longer usable if the Python variable objects they reference do
/// not exist". (A `Func` whose closure clones the variable keeps it alive
/// — that is the by-reference capture working as intended — so this test
/// builds the graph directly, as a deserialized trace would.)
#[test]
fn dead_variable_in_graph_fails() {
    tf_eager::init();
    use tf_eager::graph::GraphBuilder;
    use tfe_ops::Attrs;
    let dead_id = {
        let v = Variable::new(TensorData::scalar(2.0f32));
        v.id() // v drops here; the id dangles
    };
    let mut b = GraphBuilder::new("dead_var_graph");
    let out = b
        .add_node(
            "read_variable",
            vec![],
            Attrs::new()
                .with("var_id", dead_id as i64)
                .with("dtype", DType::F32)
                .with("shape", Vec::<i64>::new()),
        )
        .unwrap()[0];
    let g = b.finish(vec![out], 0);
    let device = context::device_manager().host_cpu();
    let err =
        tfe_runtime::executor::run_function(&g, &[], &device, tf_eager::ExecMode::SerialPlanned)
            .unwrap_err();
    assert!(matches!(err, RuntimeError::VariableDead(_)), "expected VariableDead, got {err}");

    // Conversely: a live clone inside a Func's closure keeps the variable
    // usable even after the original handle drops.
    let f = {
        let v = Variable::new(TensorData::scalar(7.0f32));
        let cv = v.clone();
        let f = function("keeps_var_alive", move |_| Ok(vec![cv.read()?]));
        f.call(&[]).unwrap();
        drop(v);
        f
    };
    assert_eq!(f.call(&[]).unwrap()[0].scalar_f64().unwrap(), 7.0);
}

/// Eager dispatch on a cost-only device yields shape-correct placeholder
/// values and never runs kernels.
#[test]
fn cost_only_devices_produce_placeholders() {
    tf_eager::init();
    tf_eager::register_sim_device(
        "/gpu:2",
        tf_eager::device::profiles::gtx1080(),
        tf_eager::device::KernelMode::CostOnly,
    )
    .ok();
    let a = api::constant(vec![5.0f32, 5.0], [2]).unwrap();
    let out = context::with_device("/gpu:2", || api::add(&a, &a)).unwrap().unwrap();
    assert_eq!(out.shape().unwrap().dims(), &[2]);
    // Values are zeros (kernel skipped), device is the simulated GPU.
    assert_eq!(out.to_f64_vec().unwrap(), vec![0.0, 0.0]);
    assert_eq!(out.device().unwrap().to_string(), "/job:localhost/task:0/device:GPU:2");
}

/// Stacked device scopes restore correctly, and placement follows the
/// innermost scope (§4.4).
#[test]
fn nested_device_scopes() {
    tf_eager::init();
    tf_eager::register_sim_device(
        "/gpu:4",
        tf_eager::device::profiles::gtx1080(),
        tf_eager::device::KernelMode::Simulated,
    )
    .ok();
    let x = api::scalar(1.0f32);
    let (inner_dev, outer_dev) = context::with_device("/gpu:4", || {
        let inner =
            context::with_device("/cpu:0", || api::add(&x, &x).unwrap().device().unwrap()).unwrap();
        let outer = api::add(&x, &x).unwrap().device().unwrap();
        (inner, outer)
    })
    .unwrap();
    assert_eq!(inner_dev, tf_eager::device::DeviceName::local_cpu());
    assert_eq!(outer_dev.device_type, tf_eager::device::DeviceType::Gpu);
    // Scope fully popped.
    assert_eq!(
        api::add(&x, &x).unwrap().device().unwrap(),
        tf_eager::device::DeviceName::local_cpu()
    );
}

/// An `Arc`'d model shared by two staged functions does not retrace when
/// called through either (trace caches are per-Func).
#[test]
fn shared_state_across_funcs() {
    tf_eager::init();
    let v = Arc::new(Variable::new(TensorData::scalar(1.0f32)));
    let bump = {
        let v = v.clone();
        function("shared_bump", move |_| {
            v.assign_add(&api::scalar(1.0f32))?;
            Ok(vec![v.read()?])
        })
    };
    let read = {
        let v = v.clone();
        function("shared_read", move |_| Ok(vec![v.read()?]))
    };
    assert_eq!(bump.call(&[]).unwrap()[0].scalar_f64().unwrap(), 2.0);
    assert_eq!(read.call(&[]).unwrap()[0].scalar_f64().unwrap(), 2.0);
    assert_eq!(bump.call(&[]).unwrap()[0].scalar_f64().unwrap(), 3.0);
    assert_eq!(read.call(&[]).unwrap()[0].scalar_f64().unwrap(), 3.0);
}

/// Creating variables inside `init_scope` lifts the creation *out* of the
/// trace — the state-creation contract sees no in-trace creation, so the
/// function traces only once (this is exactly what `init_scope` is for:
/// "we use this scope to implement function's state-creation contract").
#[test]
fn init_scope_lifts_state_creation() {
    tf_eager::init();
    use parking_lot::Mutex;
    let slot: Arc<Mutex<Option<Variable>>> = Arc::new(Mutex::new(None));
    let trace_count = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let f = {
        let slot = slot.clone();
        let trace_count = trace_count.clone();
        function("init_scope_state", move |_| {
            trace_count.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            tf_eager::init_scope(|| {
                let mut guard = slot.lock();
                if guard.is_none() {
                    *guard = Some(Variable::new(TensorData::scalar(9.0f32)));
                }
            });
            slot.lock().as_ref().unwrap().read().map(|t| vec![t])
        })
    };
    assert_eq!(f.call(&[]).unwrap()[0].scalar_f64().unwrap(), 9.0);
    // One trace, not two: the creation was invisible to the contract.
    assert_eq!(trace_count.load(std::sync::atomic::Ordering::SeqCst), 1);
}

/// Out-of-range gather indices are a typed runtime error — never a panic —
/// and the classification and message are identical eagerly, staged
/// serially, and staged in parallel. Indices are data, so the staged error
/// surfaces at execution time (tracing only sees shapes).
#[test]
fn gather_out_of_range_is_typed_and_mode_invariant() {
    tf_eager::init();
    let params = api::constant(vec![1.0f64, 2.0, 3.0], [3]).unwrap();
    let idx = Tensor::from_data(TensorData::from_vec(vec![0i64, 7], Shape::from([2])).unwrap());

    let eager_err = api::gather(&params, &idx, 0).unwrap_err();
    assert!(
        matches!(eager_err, RuntimeError::Tensor(tfe_tensor::TensorError::InvalidArgument(_))),
        "want typed InvalidArgument, got {eager_err:?}"
    );
    assert!(eager_err.to_string().contains("out of range"), "{eager_err}");

    let f = function("gather_oob", |args| {
        let p = args[0].as_tensor().expect("params");
        let i = args[1].as_tensor().expect("indices");
        Ok(vec![api::gather(p, i, 0)?])
    });
    let staged_err = f.call(&[Arg::from(&params), Arg::from(&idx)]).unwrap_err();
    let prev = context::set_exec_mode(tf_eager::ExecMode::Parallel);
    let parallel_err = f.call(&[Arg::from(&params), Arg::from(&idx)]).unwrap_err();
    context::set_exec_mode(prev);
    assert_eq!(staged_err.to_string(), eager_err.to_string());
    assert_eq!(parallel_err.to_string(), eager_err.to_string());

    // In-range calls still work in both modes after the failures.
    let ok_idx = Tensor::from_data(TensorData::from_vec(vec![2i64, 0], Shape::from([2])).unwrap());
    let out = f.call(&[Arg::from(&params), Arg::from(&ok_idx)]).unwrap().remove(0);
    assert_eq!(out.to_f64_vec().unwrap(), vec![3.0, 1.0]);
}

/// The gather *gradient* is only implemented for axis 0; asking for another
/// axis is a typed Unsupported error, eager and staged alike.
#[test]
fn gather_gradient_unsupported_axis_is_typed() {
    tf_eager::init();
    let params = api::constant(vec![1.0f64, 2.0, 3.0, 4.0], [2, 2]).unwrap();
    let idx = Tensor::from_data(TensorData::from_vec(vec![1i64, 0], Shape::from([2])).unwrap());

    let tape = GradientTape::new();
    tape.watch(&params);
    let y = api::gather(&params, &idx, 1).unwrap();
    let s = api::reduce_sum(&y, &[], false).unwrap();
    let err = tape.gradient1(&s, &params).unwrap_err();
    assert!(matches!(err, RuntimeError::Unsupported(_)), "want Unsupported, got {err:?}");
    assert!(err.to_string().contains("axis 0"), "{err}");
}

/// A negative gather axis is normalized against the params rank before the
/// gradient dispatches, so axis=-1 on rank-1 params takes the supported
/// axis-0 scatter path instead of erroring.
#[test]
fn gather_gradient_negative_axis_normalizes() {
    tf_eager::init();
    let params = api::constant(vec![1.0f64, 2.0, 3.0], [3]).unwrap();
    let idx = Tensor::from_data(TensorData::from_vec(vec![2i64, 0, 2], Shape::from([3])).unwrap());

    let tape = GradientTape::new();
    tape.watch(&params);
    let y = api::gather(&params, &idx, -1).unwrap();
    let s = api::reduce_sum(&y, &[], false).unwrap();
    let g = tape.gradient1(&s, &params).unwrap();
    // Rows 2, 0, 2 were taken: grads accumulate [1, 0, 2].
    assert_eq!(g.to_f64_vec().unwrap(), vec![1.0, 0.0, 2.0]);
}
