//! The corpus differential: seeded corpus graphs of `tests/common` run
//! through the modes of the oracle's table (`common::oracle`) and must
//! agree bit for bit, outputs and final variable state, with the raw graph
//! on the serial planner. On a mismatch the driver shrinks the graph and
//! panics with a dot artifact naming the corpus, seed and mode. The
//! rewrite counters each corpus was built to trip must be nonzero: a
//! differential that never triggers the rewrites it gates proves nothing.
//!
//! The stateless and stateful rows are split between suites, each a call
//! into the same driver: the raw graph's executors in
//! `exec_differential.rs`, the cluster in `dist_differential.rs`, the
//! optimizer configs in `pass_pipeline.rs`, and every other mode here.
//!
//! Also here: the executor's failure paths, which the serial planner, the
//! parallel scheduler and eager dispatch must report alike.

mod common;

use common::oracle::{
    check, check_corpus, check_with, divergence, optimized, run, Case, Config, Corpus, Failure,
    Mode,
};
use common::{counter_loop, known, Avail};
use std::sync::Arc;
use tf_eager::graph::{GraphBuilder, GraphFunction};
use tf_eager::{Op, RuntimeError};
use tfe_ops::Attrs;
use tfe_tensor::{DType, Shape, TensorData};

/// The modes of the stateless and stateful rows that the other suites
/// check. Every other mode of those rows runs here, so a new one is
/// checked without a new test.
fn checked_elsewhere(mode: &Mode) -> bool {
    matches!(mode, Mode::Parallel | Mode::Eager | Mode::Dist(_) | Mode::Optimized(..))
}

/// Every structural op, traced into a `function` and called, and exported,
/// saved, loaded and called.
#[test]
fn stateless_corpus_agrees_staged_and_saved() {
    check_corpus(Corpus::Stateless, |m| !checked_elsewhere(m), |_, _| {});
}

/// The algebraic-biased corpus on `±0.0` inputs, in every mode of its row:
/// every rewrite that is right only up to the sign of zero shows here.
#[test]
fn algebraic_corpus_is_simplified_and_preserved() {
    let (mut algebraic, mut propagated, mut removed) = (0, 0, 0);
    check_corpus(
        Corpus::Algebraic,
        |_| true,
        |case, report| {
            let fixpoint = optimized(report, Config::Fixpoint);
            algebraic += fixpoint.stats.rewrites_for("simplify_algebraic");
            propagated += fixpoint.stats.rewrites_for("propagate_constants");
            removed += case.graph.executable_node_count() - fixpoint.graph.executable_node_count();
        },
    );
    assert!(algebraic > 0, "biased corpus never triggered algebraic simplification");
    assert!(propagated > 0, "biased corpus never triggered constant propagation");
    assert!(removed > 0, "optimization never shrank a biased graph");
}

/// Bursts of clobbered stores, in every mode of their row: dead-store
/// elimination drops only what no read observes. Every graph opens with a
/// guaranteed dead store.
#[test]
fn dead_store_corpus_is_eliminated_and_preserved() {
    let mut dse_rewrites = 0;
    check_corpus(
        Corpus::DeadStore,
        |_| true,
        |_, report| {
            dse_rewrites +=
                optimized(report, Config::Fixpoint).stats.rewrites_for("eliminate_dead_stores");
        },
    );
    assert!(dse_rewrites > 0, "biased corpus never triggered dead-store elimination");
}

/// A tape over the staged call against a tape over eager replay, for the
/// stateless graphs whose every op has a gradient in both modes.
fn corpus_gradients_match_eager_bitwise(tapes: usize) {
    tf_eager::init();
    // `while_loop` has no gradient, a `cond` inside a trace has none (its
    // predicate is symbolic), and the corpus' `call` nodes name callees
    // that were not made by `function`.
    let no_gradient = [Op::WhileLoop, Op::Cond, Op::Call];
    let mut checked = 0;
    for seed in 0..Corpus::Stateless.cases() {
        let case = Corpus::Stateless.case(seed);
        if case.graph.nodes.iter().any(|n| no_gradient.contains(&n.op)) {
            continue;
        }
        check(Corpus::Stateless, seed, &case, &[Mode::StagedTape(tapes)]);
        checked += 1;
    }
    assert!(checked >= 20, "only {checked} corpus graphs had gradients");
}

#[test]
fn corpus_gradients_under_one_tape_match_eager_bitwise() {
    corpus_gradients_match_eager_bitwise(1);
}

#[test]
fn corpus_gradients_under_two_tapes_match_eager_bitwise() {
    corpus_gradients_match_eager_bitwise(2);
}

/// The driver fails loudly: a mode that runs a copy of the graph with its
/// first `add` made a `sub` is caught, shrunk past the unrelated tail, and
/// reported by corpus, seed and mode with an artifact on disk.
#[test]
fn a_planted_divergence_is_shrunk_and_reported() {
    tf_eager::init();
    let first_add = |g: &GraphFunction| g.nodes.iter().position(|n| n.op == "add");
    let planted = |case: &Case, mode: Mode| match (mode, first_add(&case.graph)) {
        (Mode::Parallel, Some(i)) => {
            let mut swapped = case.graph.clone();
            swapped.nodes[i].op = Op::from_name("sub").unwrap();
            run(&case.with_graph(swapped), mode)
        }
        _ => run(case, mode),
    };
    let corpus = Corpus::Stateless;
    // The first graph where the swap shows and leaves a tail to shrink.
    let (seed, case) = (0..200)
        .map(|seed| (seed, corpus.case(seed)))
        .find(|(_, case)| {
            first_add(&case.graph).is_some_and(|i| i + 2 < case.graph.nodes.len())
                && divergence(
                    case,
                    Mode::Parallel,
                    &run(case, Mode::Serial),
                    &planted(case, Mode::Parallel),
                )
                .is_some()
        })
        .expect("a corpus graph with an add that reaches an output");
    let modes = [Mode::Eager, Mode::Parallel];
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        check_with(corpus, seed, &case, &modes, &planted)
    }))
    .expect_err("the divergence is caught");
    let msg = panic.downcast_ref::<String>().expect("a formatted panic message");
    assert!(
        msg.starts_with(&format!("corpus Stateless seed {seed} mode Parallel: output ")),
        "{msg}"
    );
    let path = msg.split(" written to ").nth(1).and_then(|rest| rest.lines().next()).expect(msg);
    let dot = std::fs::read_to_string(path).expect("artifact readable");
    std::fs::remove_file(path).ok();
    let nodes = dot.lines().filter(|line| line.contains("[label=\"%")).count();
    assert!(nodes < case.graph.nodes.len(), "{nodes} of {} nodes:\n{dot}", case.graph.nodes.len());
}

// ---------------------------------------------------------------------------
// Failure paths: fault injection via gather nodes whose constant indices are
// out of range — a typed runtime error that only fires at execution time, so
// the scheduler (not the builder) has to cope with it.
// ---------------------------------------------------------------------------

/// A wide graph of 8 independent branches joined by adds. Branches listed in
/// `fail_branches` dispatch `gather(x, [10 + i])` on a 4-element input — each
/// produces a distinct "index out of range" error message.
fn faulty(tag: &str, fail_branches: &[usize]) -> Case {
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
    with_fault_args(b.finish(vec![acc], 0))
}

fn with_fault_args(graph: GraphFunction) -> Case {
    let x = TensorData::from_vec(vec![0.1f64, 0.2, 0.3, 0.4], Shape::from([4])).unwrap();
    Case { graph, args: vec![Arc::new(x)], variables: Vec::new() }
}

fn runtime_error(outcome: &common::oracle::Outcome) -> &RuntimeError {
    match outcome {
        Err(Failure::Runtime(e)) => e,
        other => panic!("expected a runtime error, got {other:?}"),
    }
}

/// A single faulty node produces the identical typed error serially and in
/// parallel, and the parallel run drains (returns at all) every time.
#[test]
fn faulty_graphs_error_identically_serial_and_parallel() {
    tf_eager::init();
    let case = faulty("fault_single", &[3]);
    let serial = run(&case, Mode::Serial);
    let err = runtime_error(&serial).to_string();
    assert!(err.contains("gather index 13 out of range"), "{err}");
    for _ in 0..25 {
        let parallel = run(&case, Mode::Parallel);
        assert_eq!(divergence(&case, Mode::Parallel, &serial, &parallel), None);
    }
}

/// With several racing faults the parallel run reports exactly one of them
/// (first error wins; later failures don't overwrite it), still drains, and
/// never reports a secondary artifact like a missing-slot internal error.
#[test]
fn first_error_wins_among_racing_faults() {
    tf_eager::init();
    let case = faulty("fault_multi", &[1, 5]);
    let expected = ["gather index 11 out of range", "gather index 15 out of range"];
    for round in 0..30 {
        let err = runtime_error(&run(&case, Mode::Parallel)).to_string();
        assert!(
            expected.iter().any(|e| err.contains(e)),
            "round {round}: got a non-injected error: {err}"
        );
    }
}

/// Aborted runs must not poison the shared worker pool or leak value slots:
/// failing and healthy runs interleaved for many rounds keep producing
/// bit-identical healthy outputs.
#[test]
fn pool_survives_repeated_aborts() {
    tf_eager::init();
    let faulty_case = faulty("fault_interleaved", &[0, 7]);
    let healthy = faulty("fault_none", &[]);
    let want = run(&healthy, Mode::Serial);
    assert!(want.is_ok(), "healthy serial run: {want:?}");
    for _ in 0..20 {
        runtime_error(&run(&faulty_case, Mode::Parallel));
        let got = run(&healthy, Mode::Parallel);
        assert_eq!(divergence(&healthy, Mode::Parallel, &want, &got), None, "after aborts");
    }
}

// ---------------------------------------------------------------------------
// Structural ops at their limits. Eager dispatch and both graph drivers run
// the same implementation, so they must agree on values and on the typed
// error.
// ---------------------------------------------------------------------------

const EVERY_DRIVER: [Mode; 3] = [Mode::Eager, Mode::Serial, Mode::Parallel];

/// A graph whose only op is a `trips`-trip counter loop over its argument,
/// limited to three iterations.
fn limited_loop(tag: &str, trips: f64) -> Case {
    let mut b = GraphBuilder::new(tag);
    let x = Avail { tref: b.placeholder(DType::F64, known(&[4])).unwrap(), dims: vec![4] };
    let limit = Attrs::new().with("max_iterations", 3i64);
    let out = counter_loop(&mut b, tag, &x, DType::F64, trips, limit);
    with_fault_args(b.finish(vec![out], 0))
}

/// `max_iterations` bounds the trips a loop may make; a loop that ends after
/// exactly that many is within its limit.
#[test]
fn while_loop_may_make_max_iterations_trips() {
    tf_eager::init();
    let case = limited_loop("loop_at_limit", 3.0);
    let mut want = case.args[0].to_f64_vec();
    for _ in 0..3 {
        want.iter_mut().for_each(|v| *v = v.sin());
    }
    for mode in EVERY_DRIVER {
        let got = run(&case, mode).expect("three trips are within the limit");
        assert_eq!(got.outputs[0].to_f64_vec(), want, "{mode:?}");
    }
}

#[test]
fn over_limit_loop_fails_alike_in_every_mode() {
    tf_eager::init();
    let case = limited_loop("loop_over_limit", 4.0);
    for mode in EVERY_DRIVER {
        assert_eq!(
            runtime_error(&run(&case, mode)),
            &RuntimeError::Internal("while_loop exceeded max_iterations=3".into()),
            "{mode:?}"
        );
    }
}

#[test]
fn unknown_callee_fails_alike_in_every_mode() {
    tf_eager::init();
    let mut b = GraphBuilder::new("calls_nothing");
    let x = b.placeholder(DType::F64, known(&[4])).unwrap();
    let (d, s) = tfe_ops::encode_sig(&[(DType::F64, known(&[4]))]);
    let attrs = Attrs::new()
        .with("function", "diff_no_such_fn")
        .with("out_dtypes", d)
        .with("out_shapes", s);
    let out = b.add_node("call", vec![x], attrs).unwrap()[0];
    let case = with_fault_args(b.finish(vec![out], 0));
    for mode in EVERY_DRIVER {
        assert_eq!(
            runtime_error(&run(&case, mode)),
            &RuntimeError::UnknownFunction("diff_no_such_fn".into()),
            "{mode:?}"
        );
    }
}
