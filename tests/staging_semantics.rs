//! Deeper staging semantics: tensor-dependent control flow *inside*
//! traces, the §4.2 backward-work invariance claim, device ops in graphs,
//! executor modes, and trace-time error behavior.

mod common;

use common::{tensor_bits, Bits};
use std::sync::Arc;
use tf_eager::prelude::*;
use tf_eager::RuntimeError;
use tfe_bench::sim::Simulator;
use tfe_parallel::lock;
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
    static ONE_SCOPE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _one = lock(&ONE_SCOPE);
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
        .map(|e| e.name.to_string())
        .collect();
    (out, names)
}

/// §4.2: "there is no meaningful change in the amount of computation ...
/// needed in the backward pass by staging or unstaging a particular
/// function". The staged call is held to exactly that: its backward has no
/// more nodes than the eager backward dispatched ops, takes only the forward
/// values it reads, and no zero gradient is made for a value no gradient
/// reaches. Under two tapes the same forward variant runs, and the backward
/// seeded at its kept values adds at most one node per seed.
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

    let pair = conc.forward_bundle().unwrap();
    let (fwd, bwd) = (&pair.fwd, &pair.bwd.function);
    let kept = fwd.outputs.len() - pair.n_primary;
    assert!(kept < all_intermediates, "{kept} kept of {all_intermediates} intermediates");
    assert!(fwd.executable_node_count() <= raw_nodes, "the forward variant is optimized");
    assert_eq!(bwd.inputs.len(), kept + pair.n_primary + bwd.num_captures);
    assert!(
        bwd.executable_node_count() <= bwd_ops,
        "first-order backward ({} nodes) exceeds the eager backward ({bwd_ops} ops)",
        bwd.executable_node_count()
    );

    // Two tapes: differentiating the gradient sends gradients into the kept
    // values of the forward record, whose gradient then runs the backward
    // with one more seed per kept value.
    let t1 = GradientTape::new();
    t1.watch(&x);
    let t2 = GradientTape::new();
    t2.watch(&x);
    let d1 = t2.gradient1(&f.call1(&x).unwrap(), &x).unwrap();
    let loss = api::reduce_sum(&api::square(&d1).unwrap(), &[], false).unwrap();
    let (_, called) = called_during(|| t1.gradient1(&loss, &x).unwrap());
    let name = format!("{}__bwd2", conc.name);
    let seeded = called.into_iter().find(|f| f.name == name).expect("the seeded backward ran");
    assert_eq!(seeded.inputs.len(), 2 * kept + pair.n_primary + seeded.num_captures);
    assert!(
        seeded.executable_node_count() <= bwd.executable_node_count() + kept,
        "seeded backward ({} nodes) adds more than one node per seed to the first-order one \
         ({} nodes, {kept} seeds)",
        seeded.executable_node_count(),
        bwd.executable_node_count()
    );
}

/// The benchmark's LSTM: the cell called from a host loop, the loss reading
/// only the last `h`. Gradients through the staged cell equal the eager
/// cell's bit for bit: under one tape, where the only zeros made are for the
/// primary outputs the loss never used (`out` at every position, `c` at the
/// last), and under two, with the second derivatives of the input
/// gradients' squared norm.
fn lstm_cell_matches_eager_bitwise(tapes: usize) {
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
    let gradients = |staged: Option<&Func>| -> Vec<Bits> {
        let outer = (tapes > 1).then(GradientTape::new);
        let tape = GradientTape::persistent();
        for x in &xs {
            if let Some(outer) = &outer {
                outer.watch(x);
            }
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
        let sources: Vec<&Tensor> = xs.iter().collect();
        let mut grads = tape.gradient_vars(&loss, &vars.iter().collect::<Vec<_>>()).unwrap();
        let dxs = tape.gradient(&loss, &sources).unwrap();
        if let Some(outer) = outer {
            let mut norm = api::scalar(0.0f32);
            for dx in dxs.iter().flatten() {
                let square = api::reduce_sum(&api::square(dx).unwrap(), &[], false).unwrap();
                norm = api::add(&norm, &square).unwrap();
            }
            grads.extend(outer.gradient(&norm, &sources).unwrap());
        }
        grads.extend(dxs);
        std::iter::once(tensor_bits(&loss))
            .chain(grads.iter().map(|g| tensor_bits(g.as_ref().unwrap())))
            .collect()
    };
    let eager = gradients(None);
    let (through_staged, eager_ops) = eager_ops_of(|| gradients(Some(&staged)));
    assert_eq!(eager, through_staged);
    if tapes == 1 {
        // Two gradient calls walked the tape, each: one zero per `out`, one
        // for the last `c`.
        let zeros = eager_ops.iter().filter(|name| *name == "zeros_like").count();
        assert_eq!(zeros, 2 * (POSITIONS + 1), "{eager_ops:?}");
    }
}

#[test]
fn lstm_cell_under_one_tape_matches_eager_bitwise() {
    lstm_cell_matches_eager_bitwise(1);
}

#[test]
fn lstm_cell_under_two_tapes_matches_eager_bitwise() {
    lstm_cell_matches_eager_bitwise(2);
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
    let run = |f: &dyn Fn(&Tensor) -> Tensor| -> (Bits, Bits) {
        let first = GradientTape::new();
        first.watch(&x);
        let y = f(&x);
        let late = GradientTape::new();
        late.watch(&dy);
        let g = first.gradient_with_output_grad(&y, Some(dy.clone()), &[&x]).unwrap().remove(0);
        let g = g.unwrap();
        // g = dy * f'(x), so d sum(g * g) / d dy = 2 * g * f'(x).
        let target = api::reduce_sum(&api::mul(&g, &g).unwrap(), &[], false).unwrap();
        (tensor_bits(&g), tensor_bits(&late.gradient1(&target, &dy).unwrap()))
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

/// Traced under one tape, the outer graph calls the inner forward variant,
/// the one every call under a tape runs; called later under two tapes, it
/// gives the right second-order gradient through both levels.
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
    let callees: Vec<String> = conc.raw.callees().iter().map(|f| f.name.clone()).collect();
    assert!(callees.iter().all(|name| name.ends_with("__fwd")), "{callees:?}");
    assert_eq!(two_tape_derivatives(&outer, &x), (54.0, 72.0));
    assert_eq!(outer.num_concrete(), 1);
}

/// Traced under no tape, the outer graph calls the inner inference function;
/// its backward re-runs the inner call as its forward variant and
/// differentiates it *inside a trace*, and that backward graph can itself be
/// differentiated.
#[test]
fn second_order_through_a_function_traced_under_no_tape() {
    tf_eager::init();
    let outer = nested_cube("nested_no_tape");
    let x = api::scalar(1.5f64);
    assert_eq!(outer.call1(&x).unwrap().scalar_f64().unwrap(), 27.0);
    assert_eq!(two_tape_derivatives(&outer, &x), (54.0, 72.0));
    // One tape first, then two: one forward variant serves both.
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
    let derivatives = |f: &dyn Fn(&Tensor) -> Tensor| -> (Bits, Bits) {
        let t1 = GradientTape::new();
        t1.watch(&x);
        let t2 = GradientTape::new();
        t2.watch(&x);
        let d1 = t2.gradient1(&f(&x), &x).unwrap();
        (tensor_bits(&d1), tensor_bits(&t1.gradient1(&d1, &x).unwrap()))
    };
    // d2/dx2 = 6 x, d3/dx3 = 6.
    let eager = derivatives(&|x| slope(x).unwrap());
    assert_eq!(eager, (tensor_bits(&api::scalar(9.0f64)), tensor_bits(&api::scalar(6.0f64))));
    assert_eq!(derivatives(&|x| staged.call1(x).unwrap()), eager);
    let tape = GradientTape::new();
    tape.watch(&x);
    let y = staged.call1(&x).unwrap();
    assert_eq!(tape.gradient1(&y, &x).unwrap().scalar_f64().unwrap(), 9.0);
}

/// What `f` returns, and the graph functions the `call`s it makes eagerly
/// run, read from the nodes' own handles.
fn called_during<R>(f: impl FnOnce() -> R) -> (R, Vec<Arc<tf_eager::graph::GraphFunction>>) {
    use std::cell::RefCell;
    use tf_eager::device::Device;
    use tfe_runtime::context::{Observer, Site};
    #[derive(Default)]
    struct Calls(RefCell<Vec<Arc<tf_eager::graph::GraphFunction>>>);
    impl Observer for Calls {
        fn observe(
            &self,
            site: Site,
            _device: &Device,
            _op: tf_eager::Op,
            params: &tf_eager::Params,
            _inputs: &[Arc<TensorData>],
        ) -> Result<Option<Vec<Arc<TensorData>>>, RuntimeError> {
            if let (Site::Call, tf_eager::Params::Call { function, .. }) = (site, params) {
                self.0.borrow_mut().push(function.get().expect("a call holds its body"));
            }
            Ok(None)
        }
    }
    let calls = std::rc::Rc::new(Calls::default());
    let out = {
        let _scope = context::observer_scope(calls.clone());
        f()
    };
    let called = calls.0.take();
    (out, called)
}

/// Two hand-built graphs of one name, each called from its own node of one
/// outer graph: each call runs its own body, under both executor drivers and
/// eagerly. A call that resolved its callee by name would run one body for
/// both.
#[test]
fn two_callees_of_one_name_each_run_their_own_body() {
    use tf_eager::graph::{GraphBuilder, GraphFunction};
    use tf_eager::{Attrs, ExecMode, Op, Params};
    use tfe_ops::SymShape;
    tf_eager::init();
    let shape = SymShape::known(&Shape::from([2]));
    let callee = |op: &str| {
        let mut b = GraphBuilder::new("one_name");
        let x = b.placeholder(DType::F64, shape.clone()).unwrap();
        let y = b.add_node(op, vec![x], Attrs::new()).unwrap()[0];
        Arc::new(b.finish(vec![y], 0))
    };
    let (neg, square) = (callee("neg"), callee("square"));
    let call = |f: &Arc<GraphFunction>| Params::Call {
        function: f.handle(),
        concrete: None,
        stateful: false,
        outputs: neg.output_sigs(),
        var_ids: Vec::new(),
    };
    let mut b = GraphBuilder::new("calls_both");
    let x = b.placeholder(DType::F64, shape.clone()).unwrap();
    let first = b.add_op(Op::Call, vec![x], call(&neg)).unwrap()[0];
    let second = b.add_op(Op::Call, vec![x], call(&square)).unwrap()[0];
    let outer = b.finish(vec![first, second], 0);

    let x = api::constant(vec![3.0f64, -0.5], [2]).unwrap();
    let want = [vec![-3.0, 0.5], vec![9.0, 0.25]];
    let device = context::device_manager().host_cpu();
    for mode in [ExecMode::SerialPlanned, ExecMode::Parallel] {
        let args = [x.value().unwrap()];
        let out = tfe_runtime::executor::run_function(&outer, &args, &device, mode).unwrap();
        assert_eq!([out[0].to_f64_vec(), out[1].to_f64_vec()], want, "{mode:?}");
    }
    let eager = [call(&neg), call(&square)].map(|attrs| {
        context::execute(Op::Call, std::slice::from_ref(&x), attrs).unwrap()[0]
            .to_f64_vec()
            .unwrap()
    });
    assert_eq!(eager, want, "eager");
}

/// A gradient that reaches a kept intermediate of a forward record — here
/// handed to it directly — runs the backward seeded there too, and the
/// input gradient equals the one eager reverse mode computes from the same
/// seeds on the same values, bit for bit.
#[test]
fn gradient_into_a_kept_intermediate_matches_eager() {
    use std::collections::HashMap;
    use tfe_ops::{BinaryOp, Op, Params, UnaryOp};
    use tfe_runtime::TapeRecord;
    tf_eager::init();
    let f = function1("kept_seed", |x| api::tanh(&api::mul(x, x)?));
    let x = api::constant(vec![0.3f64, -0.2], [2]).unwrap();
    let conc = f.concrete_for(&[Arg::from(&x)]).unwrap();
    let pair = conc.forward_bundle().unwrap();
    let attrs = Params::Call {
        function: pair.fwd.handle(),
        concrete: Some(conc.handle()),
        stateful: false,
        outputs: pair.fwd.output_sigs(),
        var_ids: Vec::new(),
    };
    let outputs = context::execute(Op::Call, std::slice::from_ref(&x), attrs.clone()).unwrap();
    // The backward of tanh(x*x) reads x and the tanh: they are kept.
    assert_eq!(outputs.len(), 3);
    assert_eq!(
        (tensor_bits(&outputs[1]), tensor_bits(&outputs[2])),
        (tensor_bits(&x), tensor_bits(&outputs[0]))
    );
    let record = Arc::new(TapeRecord::new(Op::Call, attrs, std::slice::from_ref(&x), &outputs));
    let constant = |v: [f64; 2]| api::constant(v.to_vec(), [2]).unwrap();
    let (dy, dx_kept, dy_kept) =
        (constant([1.5, -0.5]), constant([0.25, 2.0]), constant([-1.0, 0.75]));
    let seeds = HashMap::from([
        (outputs[0].id(), dy.clone()),
        (outputs[1].id(), dx_kept.clone()),
        (outputs[2].id(), dy_kept.clone()),
    ]);
    let (staged, called) =
        called_during(|| tfe_autodiff::accumulate_many(&[record], seeds).unwrap());
    let name = format!("{}__bwd2", conc.name);
    assert!(called.iter().any(|f| f.name == name), "the seeded backward ran");

    // Eager: the same two ops, with the seeds on the values they stand for.
    let u = api::mul(&x, &x).unwrap();
    let y = api::tanh(&u).unwrap();
    let (u, y) = (std::slice::from_ref(&u), std::slice::from_ref(&y));
    let records = [
        TapeRecord::new(Op::Binary(BinaryOp::Mul), Params::None, &[x.clone(), x.clone()], u),
        TapeRecord::new(Op::Unary(UnaryOp::Tanh), Params::None, u, y),
    ]
    .map(Arc::new);
    let seeds = HashMap::from([(y[0].id(), api::add(&dy, &dy_kept).unwrap()), (x.id(), dx_kept)]);
    let eager = tfe_autodiff::accumulate_many(&records, seeds).unwrap();
    assert_eq!(tensor_bits(&staged[&x.id()]), tensor_bits(&eager[&x.id()]));
}

/// The condition a `select` gradient reads is a boolean kept value: the
/// backward call hands it no gradient, and it takes no seed, since the
/// table sends no gradient into an integer or boolean value. Second
/// derivatives through the staged call are eager's.
#[test]
fn second_order_past_a_boolean_kept_value_matches_eager() {
    tf_eager::init();
    let program = |x: &Tensor| {
        let positive = api::greater(x, &api::scalar(0.0f64))?;
        api::select(&positive, &api::mul(&api::mul(x, x)?, x)?, &api::neg(x)?)
    };
    let staged = function1("select_cube", program);
    let x = api::constant(vec![0.5f64, -1.5, 2.0], [3]).unwrap();
    let derivatives = |f: &dyn Fn(&Tensor) -> Tensor| -> (Bits, Bits) {
        let t1 = GradientTape::new();
        t1.watch(&x);
        let t2 = GradientTape::new();
        t2.watch(&x);
        let d1 = t2.gradient1(&api::reduce_sum(&f(&x), &[], false).unwrap(), &x).unwrap();
        let d2 = t1.gradient1(&api::reduce_sum(&d1, &[], false).unwrap(), &x).unwrap();
        (tensor_bits(&d1), tensor_bits(&d2))
    };
    let eager = derivatives(&|x| program(x).unwrap());
    assert_eq!(derivatives(&|x| staged.call1(x).unwrap()), eager);
}

/// `minimum(x, m)` with `m < 0`: the first and second derivatives are
/// `-0.0` at every `x` the minimum did not select. Of the kept values, the
/// backward call sends a gradient into `c + c` (a zero) and none into `x`,
/// so the seeded backward takes a seed at `c + c` only: a `+0.0` seed at
/// `x` would turn its `-0.0` into `+0.0`.
#[test]
fn second_order_keeps_the_sign_of_a_zero() {
    tf_eager::init();
    let program =
        |x: &Tensor, c: &Tensor| api::minimum(x, &api::reduce_mean(&api::add(c, c)?, &[0], false)?);
    let staged = function("minimum_of_mean", move |args| {
        let t = |i: usize| args[i].as_tensor().expect("tensor argument");
        Ok(vec![program(t(0), t(1))?])
    });
    let x = api::constant(vec![1.0f64, 2.0, -3.0, 0.5, 1.5, -4.0], [2, 3]).unwrap();
    let c = api::constant(vec![-0.5f64; 4], [4]).unwrap();
    let derivatives = |f: &dyn Fn(&Tensor, &Tensor) -> Tensor| -> Vec<Bits> {
        let (t1, t2) = (GradientTape::new(), GradientTape::new());
        for t in [&t1, &t2] {
            t.watch(&x);
            t.watch(&c);
        }
        let y = f(&x, &c);
        let loss = api::reduce_sum(&api::square(&y).unwrap(), &[], false).unwrap();
        let d1 = t2.gradient(&loss, &[&x, &c]).unwrap();
        let mut norm = api::scalar(0.0f64);
        for g in d1.iter().flatten() {
            let square = api::reduce_sum(&api::square(g).unwrap(), &[], false).unwrap();
            norm = api::add(&norm, &square).unwrap();
        }
        let d2 = t1.gradient(&norm, &[&x, &c]).unwrap();
        d1.iter().chain(&d2).map(|g| tensor_bits(g.as_ref().unwrap())).collect()
    };
    let eager = derivatives(&|x, c| program(x, c).unwrap());
    let d2x = f64::from_le_bytes(eager[2].2[..8].try_into().unwrap());
    assert!(d2x == 0.0 && d2x.is_sign_negative(), "eager's d²/dx at x[0] is -0.0, got {d2x}");
    let through_staged = |x: &Tensor, c: &Tensor| staged.call_tensors(&[x, c]).unwrap().remove(0);
    assert_eq!(derivatives(&through_staged), eager);
}

/// The only tape's `gradient` call is staged into a function (which
/// captures the kept intermediates), and that function is called under the
/// same persistent tape, whose second `gradient` then hands the captures'
/// gradients back to the forward record: the second derivative, with one
/// tape as with two.
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
    assert_eq!(second_derivative(1).unwrap().scalar_f64().unwrap(), 9.0);
    assert_eq!(second_derivative(2).unwrap().scalar_f64().unwrap(), 9.0);
}

/// A variable read inside a `cond` branch gets its gradient through the
/// `cond`, bit for bit the one it gets eagerly, whichever branch runs; a
/// variable only the other branch reads gets none, as eagerly.
#[test]
fn cond_branch_variables_get_eager_gradients() {
    tf_eager::init();
    let v = Variable::new(TensorData::scalar(1.5f64));
    let w = Variable::new(TensorData::scalar(-0.5f64));
    let then_branch = |v: &Variable, x: &Tensor| api::mul(&v.read()?, x);
    let else_branch = |w: &Variable, x: &Tensor| api::mul(&api::mul(&w.read()?, x)?, x);
    let then_f = {
        let v = v.clone();
        function1("cond_var_then", move |x| then_branch(&v, x))
    };
    let else_f = {
        let w = w.clone();
        function1("cond_var_else", move |x| else_branch(&w, x))
    };
    let x = api::scalar(0.7f64);
    for taken in [true, false] {
        let gradients = |y: &dyn Fn() -> Tensor| -> Vec<Option<Bits>> {
            let tape = GradientTape::new();
            let grads = tape.gradient_vars(&y(), &[&v, &w]).unwrap();
            grads.iter().map(|g| g.as_ref().map(tensor_bits)).collect()
        };
        let eager =
            gradients(&|| if taken { then_branch(&v, &x) } else { else_branch(&w, &x) }.unwrap());
        let through_cond = gradients(&|| {
            tf_eager::cond(&api::scalar(taken), &then_f, &else_f, &[&x]).unwrap().remove(0)
        });
        assert_eq!(eager, through_cond, "then branch taken: {taken}");
    }
}

/// Device copies recorded inside traces execute as `copy` nodes.
#[test]
fn copy_nodes_in_graphs() {
    tf_eager::init();
    tf_eager::register_device("/gpu:1").ok();
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

/// Eager dispatch on the device of a cost-only simulator yields
/// shape-correct placeholder values and never runs kernels.
#[test]
fn cost_only_devices_produce_placeholders() {
    tf_eager::init();
    let profile = tfe_bench::calibrate::figure3_gpu();
    let device = tfe_bench::harness::sim_device("/gpu:2");
    let sim = Simulator::new(&profile, profile.eager.clone(), &device);
    assert!(sim.cost_only);
    let _observer = context::observer_scope(std::rc::Rc::new(sim));
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
    tf_eager::register_device("/gpu:4").ok();
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

/// §4.6 input signatures: a constrained variant is a function of its own.
/// Its traces must not replace the original's graphs — a cache hit on the
/// original would then run the variant's — and two variants of one `Func`
/// keep separate metric series, so dropping one leaves the other's.
#[test]
fn input_signature_variant_never_replaces_its_origin() {
    use std::sync::atomic::{AtomicBool, Ordering};
    tf_eager::init();
    static DOUBLE: AtomicBool = AtomicBool::new(true);
    // A host branch, baked in at trace time.
    let origin = function1("sig_origin", |x| {
        if DOUBLE.load(Ordering::SeqCst) {
            api::mul(x, &api::scalar(2.0f64))
        } else {
            api::add(x, &api::scalar(100.0f64))
        }
    });
    let x = api::scalar(1.0f64);
    let first = origin.call1(&x).unwrap().scalar_f64().unwrap();
    assert_eq!(first, 2.0);

    DOUBLE.store(false, Ordering::SeqCst);
    let sig = vec![TensorSpec::new(DType::F64, vec![])];
    let variant = origin.clone().with_input_signature(sig.clone());
    assert_eq!(variant.call1(&x).unwrap().scalar_f64().unwrap(), 101.0);
    let again = origin.call1(&x).unwrap().scalar_f64().unwrap();
    assert_eq!(again.to_bits(), first.to_bits(), "the origin ran its variant's graph");
    assert_eq!((origin.stats().hits, origin.stats().misses), (1, 1));

    let other = origin.clone().with_input_signature(sig);
    other.call1(&x).unwrap();
    assert_ne!(variant.name(), other.name());
    assert_eq!(variant.stats().misses, 1);
    assert_eq!(other.stats().misses, 1);
    let label = other.name().to_string();
    drop(variant);
    let series = tf_eager::metrics::snapshot().counter_with("tfe_func_cache_misses_total", &label);
    assert_eq!(series, Some(1), "dropping one variant removed the other's series");
}

/// A read hands on the variable's value without copying it, so an assign
/// must not reach a value read before it: that read keeps the old contents
/// and the read after sees the new ones, eagerly and staged.
#[test]
fn a_read_before_an_assign_keeps_the_old_value() {
    tf_eager::init();
    let v = Arc::new(Variable::new(TensorData::from_vec(vec![1.0f32, 2.0], [2]).unwrap()));
    let step = api::constant(vec![10.0f32, 20.0], [2]).unwrap();
    let values =
        |ts: &[Tensor]| -> Vec<Vec<f64>> { ts.iter().map(|t| t.to_f64_vec().unwrap()).collect() };

    let before = v.read().unwrap();
    v.assign_add(&step).unwrap();
    let after_add = v.read().unwrap();
    v.assign(&api::constant(vec![7.0f32, 8.0], [2]).unwrap()).unwrap();
    assert_eq!(
        values(&[before, after_add, v.read().unwrap()]),
        [vec![1.0, 2.0], vec![11.0, 22.0], vec![7.0, 8.0]]
    );

    let staged = {
        let (v, step) = (v.clone(), step.clone());
        function("read_assign_read", move |_| {
            let before = v.read()?;
            v.assign_add(&step)?;
            let after_add = v.read()?;
            v.assign(&api::constant(vec![0.5f32, 0.5], [2])?)?;
            Ok(vec![before, after_add, v.read()?])
        })
    };
    for mode in [tf_eager::ExecMode::SerialPlanned, tf_eager::ExecMode::Parallel] {
        v.assign(&api::constant(vec![7.0f32, 8.0], [2]).unwrap()).unwrap();
        let prev = context::set_exec_mode(mode);
        let out = staged.call(&[]).unwrap();
        context::set_exec_mode(prev);
        assert_eq!(values(&out), [vec![7.0, 8.0], vec![17.0, 28.0], vec![0.5, 0.5]], "{mode:?}");
    }
}

/// Eager validation remembers only what it accepted: an arity, dtype or
/// shape error is the op definition's typed error, and an identical call
/// after it fails the same way, before and after the op once succeeded.
#[test]
fn eager_validation_errors_are_typed_and_repeat() {
    tf_eager::init();
    let add = tf_eager::Op::Binary(tfe_tensor::elementwise::BinaryOp::Add);
    let x = api::constant(vec![1.0f32, 2.0, 3.0], [3]).unwrap();
    let bad = [
        vec![x.clone()],
        vec![x.clone(), api::scalar(1.0f64)],
        vec![x.clone(), api::constant(vec![1.0f32, 2.0], [2]).unwrap()],
    ];
    let fail = |inputs: &[Tensor]| {
        let err = context::execute(add, inputs, tf_eager::Params::None).unwrap_err();
        assert!(matches!(err, RuntimeError::Op(_)), "typed op error: {err:?}");
        format!("{err:?}")
    };
    let first: Vec<String> = bad.iter().map(|inputs| fail(inputs)).collect();
    api::add(&x, &x).unwrap();
    for (inputs, first) in bad.iter().zip(&first) {
        assert_eq!(&fail(inputs), first);
        assert_eq!(&fail(inputs), first);
    }
}

/// Creating variables inside `init_scope` lifts the creation *out* of the
/// trace — the state-creation contract sees no in-trace creation, so the
/// function traces only once (this is exactly what `init_scope` is for:
/// "we use this scope to implement function's state-creation contract").
#[test]
fn init_scope_lifts_state_creation() {
    tf_eager::init();
    use std::sync::Mutex;
    let slot: Arc<Mutex<Option<Variable>>> = Arc::new(Mutex::new(None));
    let trace_count = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let f = {
        let slot = slot.clone();
        let trace_count = trace_count.clone();
        function("init_scope_state", move |_| {
            trace_count.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            tf_eager::init_scope(|| {
                let mut guard = lock(&slot);
                if guard.is_none() {
                    *guard = Some(Variable::new(TensorData::scalar(9.0f32)));
                }
            });
            lock(&slot).as_ref().unwrap().read().map(|t| vec![t])
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
    // The inline error names the kernel that faulted.
    assert!(staged_err.to_string().contains("gather index 7 out of range"), "{staged_err}");

    // In-range calls still work in both modes after the failures.
    let ok_idx = Tensor::from_data(TensorData::from_vec(vec![2i64, 0], Shape::from([2])).unwrap());
    let out = f.call(&[Arg::from(&params), Arg::from(&ok_idx)]).unwrap().remove(0);
    assert_eq!(out.to_f64_vec().unwrap(), vec![3.0, 1.0]);
}

/// An eager op failing inside a host closure traced into a staged call is
/// the call's inline error, naming the op that faulted, under both executor
/// modes.
#[test]
fn host_func_failure_inside_staged_call_names_the_op() {
    tf_eager::init();
    let hf = HostFunc::new(
        |xs| {
            // Gather index 19 on a 4-element tensor.
            let idx = api::constant(vec![19i64], [1])?;
            api::gather(&xs[0], &idx, 0)?;
            unreachable!("gather must fail")
        },
        vec![(DType::F64, tfe_ops::SymShape::known(&Shape::from([1])))],
    );
    let staged = function("hostfunc_fault", move |args: &[Arg]| {
        let t = api::tanh(args[0].as_tensor().expect("tensor arg"))?;
        Ok(vec![hf.call(&[&t])?.remove(0)])
    });
    let x = api::constant(vec![0.1f64, 0.2, 0.3, 0.4], [4]).unwrap();
    for mode in [tf_eager::ExecMode::SerialPlanned, tf_eager::ExecMode::Parallel] {
        let prev = context::set_exec_mode(mode);
        let err = staged.call_tensors(&[&x]).expect_err("traced host fault");
        context::set_exec_mode(prev);
        assert!(err.to_string().contains("gather index 19 out of range"), "{mode:?}: {err}");
    }
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
