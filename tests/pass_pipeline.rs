//! Differential fuzz harness for the graph optimizer: every random graph
//! from the `exec_differential` corpus generator is optimized under {no
//! rule, each rewrite family alone, the default pipeline without fusion,
//! the default pipeline} and every configuration must agree with the
//! unoptimized serial run — across the serial planner, the parallel
//! scheduler, and eager interpretation. Stateful graphs additionally
//! require bit-identical final variable state.
//!
//! Two corpora are biased toward particular rewrites (algebraic identities
//! and dead stores) and assert their rewrite counters actually fired, and
//! the stateful corpus asserts that redundant loads were merged — a
//! differential harness that never triggers the rewrites it gates proves
//! nothing. The algebraic corpus feeds `±0.0` and compares bit patterns
//! wherever nothing is folded or fused. Every optimized graph's constant
//! pool holds exactly the constants its nodes name. On a mismatch the
//! failing graph is shrunk (output narrowing + prefix truncation) and
//! persisted as Graphviz dot; the panic names the artifact.
//! `TFE_FUZZ_CASES` scales every corpus.

mod common;

use common::{fuzz_cases, same_bits, tensor_bits};
use std::sync::Arc;
use tf_eager::graph::passes::{self, OptimizeOptions, OptimizeStats, PASS_NAMES};
use tf_eager::graph::{GraphFunction, Node};
use tf_eager::ExecMode;
use tfe_device::Device;
use tfe_runtime::executor;
use tfe_tensor::TensorData;

fn evaluator(node: &Node, ins: &[Arc<TensorData>]) -> Result<Vec<TensorData>, String> {
    tfe_runtime::kernels::run_kernel(node.op, &node.attrs, ins).map_err(|e| e.to_string())
}

/// Every optimization configuration under differential test. `only_*`
/// configs enable one rewrite family; `fixpoint` is every simplification
/// without the lowering; `fixpoint_fused` is the default pipeline, which
/// then lowers elementwise islands into fused kernels.
fn configs() -> Vec<(String, OptimizeOptions)> {
    let mut v = vec![("none".to_string(), OptimizeOptions::none())];
    for pass in PASS_NAMES {
        v.push((format!("only_{pass}"), OptimizeOptions::only(pass)));
    }
    v.push(("fixpoint".to_string(), unfused()));
    v.push(("fixpoint_fused".to_string(), OptimizeOptions::default()));
    v
}

/// The default pipeline minus the fusion lowering.
fn unfused() -> OptimizeOptions {
    OptimizeOptions { fuse_elementwise: false, ..Default::default() }
}

/// The constant pool holds what the graph uses: one entry per `const` node.
fn pool_matches_nodes(g: &GraphFunction) -> Result<(), String> {
    let nodes = count_op(g, "const");
    if g.constants.len() != nodes {
        return Err(format!("{} pool entries for {nodes} const nodes", g.constants.len()));
    }
    Ok(())
}

/// Optimize `f` under `opts` and compare against the unoptimized serial
/// baseline `want` in serial, parallel, and eager interpretation — bit for
/// bit when `bitwise` is asked for and `opts` neither folds nor fuses.
/// Returns a description of the first divergence instead of panicking so
/// the caller can shrink the graph before reporting.
fn check_config(
    f: &GraphFunction,
    args: &[Arc<TensorData>],
    want: &[Arc<TensorData>],
    opts: &OptimizeOptions,
    device: &Device,
    bitwise: bool,
) -> Result<OptimizeStats, String> {
    let (g, stats) = passes::optimize_with_stats(f, opts, Some(&evaluator));
    if !stats.converged {
        return Err(format!("did not converge in {} rounds", stats.sweeps));
    }
    if stats.rewrites_for("eliminate_dead_stores") == 0 && stats.sweeps != 1 {
        return Err(format!("{} rounds with no store dropped", stats.sweeps));
    }
    pool_matches_nodes(&g)?;
    // Folding/fusion may reassociate floating point: 1e-6, like the
    // executor differential. Everything else is exact.
    let exact = bitwise && !opts.fold_constants && !opts.fuse_elementwise;
    let agree = |w: &TensorData, o: &TensorData| {
        if exact {
            same_bits(w, o)
        } else {
            w.all_close(o, 1e-6, 1e-6)
        }
    };
    for mode in [ExecMode::SerialPlanned, ExecMode::Parallel] {
        let got = executor::run_function(&g, args, device, mode)
            .map_err(|e| format!("{mode:?} failed on optimized graph: {e}"))?;
        for (k, (w, o)) in want.iter().zip(&got).enumerate() {
            if !agree(w, o) {
                return Err(format!("output {k} ({mode:?}): want {w:?} got {o:?}"));
            }
        }
    }
    let eager = common::eager_interpret(&g, args)
        .map_err(|e| format!("eager interpretation of optimized graph failed: {e}"))?;
    for (k, (w, o)) in want.iter().zip(&eager).enumerate() {
        if !agree(w, o) {
            return Err(format!("output {k} (eager): want {w:?} got {o:?}"));
        }
    }
    Ok(stats)
}

/// Shrink a failing (graph, config) pair and panic with the dot artifact.
fn fail_with_artifact(
    seed: u64,
    config: &str,
    err: &str,
    f: &GraphFunction,
    args: &[Arc<TensorData>],
    opts: &OptimizeOptions,
    bitwise: bool,
) -> ! {
    let device = &tfe_runtime::context::device_manager().host_cpu();
    let shrunk = common::shrink_failing_graph(f, &|cand| {
        executor::run_function(cand, args, device, ExecMode::SerialPlanned)
            .ok()
            .map(|want| check_config(cand, args, &want, opts, device, bitwise).is_err())
            .unwrap_or(false)
    });
    let path = common::dot_artifact(&shrunk);
    panic!(
        "case {seed} config {config}: {err}\nshrunk failing graph written to {}\n{}",
        path.display(),
        shrunk.dump()
    );
}

/// The headline differential: all stateless corpus graphs, all pass
/// configurations, all three execution paths.
#[test]
fn all_pass_configs_agree_on_random_graphs() {
    tf_eager::init();
    let device = tfe_runtime::context::device_manager().host_cpu();
    let mut merged = 0u64;
    for seed in 0..fuzz_cases(120) {
        let (f, shapes) = common::generate(seed);
        let args = common::make_args(seed, &shapes);
        let want = executor::run_function(&f, &args, &device, ExecMode::SerialPlanned)
            .unwrap_or_else(|e| panic!("case {seed} baseline failed: {e}\n{}", f.dump()));
        for (name, opts) in configs() {
            match check_config(&f, &args, &want, &opts, &device, false) {
                Err(err) => fail_with_artifact(seed, &name, &err, &f, &args, &opts, false),
                Ok(stats) => merged += stats.rewrites_for("cse"),
            }
        }
    }
    assert!(merged > 0, "corpus never triggered CSE");
}

/// CSE keys a constant on its bytes: two `i64` constants that round to the
/// same `f64` stay two constants through trace, optimize and execute.
#[test]
fn cse_keeps_distinct_integer_constants_apart() {
    use tf_eager::api;
    let f = tf_eager::function1("i64_consts", |x| {
        let a = api::add(x, &api::scalar(9_007_199_254_740_993i64))?;
        let b = api::add(x, &api::scalar(9_007_199_254_740_992i64))?;
        api::sub(&a, &b)
    });
    let diff = f.call1(&api::scalar(0i64)).unwrap();
    assert_eq!(diff.value().unwrap().as_slice::<i64>().unwrap(), &[1]);
}

/// Stateful corpus: every pass configuration must preserve outputs *and*
/// final variable state bit-for-bit, in both executors. This is the test
/// that keeps dead-store elimination honest about liveness.
#[test]
fn all_pass_configs_preserve_variable_state() {
    let mut merged_loads = 0usize;
    run_stateful_differential(common::generate_stateful, fuzz_cases(40), &mut |f, g, _| {
        merged_loads += count_op(f, "read_variable") - count_op(g, "read_variable");
    });
    assert!(merged_loads > 0, "stateful corpus never triggered redundant-load elimination");
}

fn count_op(f: &GraphFunction, op: &str) -> usize {
    f.nodes.iter().filter(|n| n.op == op).count()
}

/// Dead-store-biased corpus: same obligations as the stateful
/// differential, plus the eliminator must actually fire — every graph
/// opens with a guaranteed clobbered store.
#[test]
fn dead_store_corpus_is_eliminated_and_preserved() {
    let mut dse_rewrites = 0u64;
    run_stateful_differential(common::generate_dead_store, fuzz_cases(40), &mut |_, _, stats| {
        dse_rewrites += stats.rewrites_for("eliminate_dead_stores");
    });
    assert!(dse_rewrites > 0, "biased corpus never triggered dead-store elimination");
}

fn run_stateful_differential(
    gen: fn(u64, &[i64]) -> GraphFunction,
    cases: u64,
    on_fixpoint: &mut dyn FnMut(&GraphFunction, &GraphFunction, &OptimizeStats),
) {
    tf_eager::init();
    let device = tfe_runtime::context::device_manager().host_cpu();
    for seed in 0..cases {
        let vars: Vec<tf_eager::Variable> =
            (0..2).map(|k| tf_eager::Variable::new(TensorData::scalar(k as f64 + 1.0))).collect();
        let initial: Vec<Arc<TensorData>> = vars.iter().map(|v| v.peek()).collect();
        let var_ids: Vec<i64> = vars.iter().map(|v| v.id() as i64).collect();
        let f = gen(seed, &var_ids);
        let reset = |vars: &[tf_eager::Variable]| {
            for (v, init) in vars.iter().zip(&initial) {
                v.restore((**init).clone()).unwrap();
            }
        };

        let want = executor::run_function(&f, &[], &device, ExecMode::SerialPlanned)
            .unwrap_or_else(|e| panic!("case {seed} baseline failed: {e}\n{}", f.dump()));
        let want_state: Vec<f64> = vars.iter().map(|v| v.peek().scalar_f64().unwrap()).collect();

        for (name, opts) in configs() {
            let (g, stats) = passes::optimize_with_stats(&f, &opts, Some(&evaluator));
            assert!(stats.converged, "case {seed} config {name}: no fixpoint\n{}", f.dump());
            if stats.rewrites_for("eliminate_dead_stores") == 0 {
                assert_eq!(stats.sweeps, 1, "case {seed} config {name}: a round for nothing");
            }
            if let Err(e) = pool_matches_nodes(&g) {
                panic!("case {seed} config {name}: {e}\n{}", g.dump());
            }
            if name == "fixpoint" {
                on_fixpoint(&f, &g, &stats);
            }
            for mode in [ExecMode::SerialPlanned, ExecMode::Parallel] {
                reset(&vars);
                let got = executor::run_function(&g, &[], &device, mode).unwrap_or_else(|e| {
                    panic!("case {seed} config {name} {mode:?} failed: {e}\n{}", g.dump())
                });
                let state: Vec<f64> = vars.iter().map(|v| v.peek().scalar_f64().unwrap()).collect();
                for (k, (w, o)) in want.iter().zip(&got).enumerate() {
                    assert!(
                        w.all_close(o, 0.0, 0.0),
                        "case {seed} config {name} output {k} ({mode:?}): {w:?} vs {o:?}\n{}\n{}",
                        f.dump(),
                        g.dump()
                    );
                }
                assert_eq!(
                    want_state,
                    state,
                    "case {seed} config {name} ({mode:?}) variable state\n{}\n{}",
                    f.dump(),
                    g.dump()
                );
            }
        }
    }
}

/// Algebraic-biased corpus: the differential holds, the fixpoint
/// converges, and the rewrite counters for both new stateless passes are
/// nonzero across the corpus — the harness demonstrably gates the
/// rewrites it claims to.
#[test]
fn algebraic_corpus_is_simplified_and_preserved() {
    tf_eager::init();
    let device = tfe_runtime::context::device_manager().host_cpu();
    let mut algebraic = 0u64;
    let mut propagated = 0u64;
    let mut removed = 0usize;
    for seed in 0..fuzz_cases(60) {
        let (f, shapes) = common::generate_algebraic(seed);
        let args = common::make_signed_zero_args(seed ^ 0xa19, &shapes);
        let want = executor::run_function(&f, &args, &device, ExecMode::SerialPlanned)
            .unwrap_or_else(|e| panic!("case {seed} baseline failed: {e}\n{}", f.dump()));
        for (name, opts) in configs() {
            match check_config(&f, &args, &want, &opts, &device, true) {
                Err(err) => fail_with_artifact(seed, &name, &err, &f, &args, &opts, true),
                Ok(stats) => {
                    if name == "fixpoint" {
                        algebraic += stats.rewrites_for("simplify_algebraic");
                        propagated += stats.rewrites_for("propagate_constants");
                    }
                }
            }
        }
        let optimized = passes::optimize(&f, &unfused(), Some(&evaluator));
        removed += f.executable_node_count().saturating_sub(optimized.executable_node_count());
    }
    assert!(algebraic > 0, "biased corpus never triggered algebraic simplification");
    assert!(propagated > 0, "biased corpus never triggered constant propagation");
    assert!(removed > 0, "optimization never shrank a biased graph");
}

/// Fusion's claim, over every fused graph the corpus produces: optimize
/// with fusion on and with fusion off (otherwise the same pipeline), run
/// both, and require bit-identical outputs — the fused kernel's tile
/// executor against the op-by-op nodes it replaced. Also asserts fusion
/// actually fires on the corpus.
#[test]
fn fused_and_unfused_graphs_agree_bitwise() {
    tf_eager::init();
    let device = tfe_runtime::context::device_manager().host_cpu();
    let opts = OptimizeOptions::default();
    let mut fused_graphs = 0u64;
    for seed in 0..fuzz_cases(60) {
        let (f, shapes) = common::generate(seed);
        let args = common::make_args(seed, &shapes);
        let (g, stats) = passes::optimize_with_stats(&f, &opts, Some(&evaluator));
        if stats.rewrites_for("fuse_elementwise") == 0 {
            continue;
        }
        fused_graphs += 1;
        let unfused = passes::optimize(&f, &unfused(), Some(&evaluator));
        for mode in [ExecMode::SerialPlanned, ExecMode::Parallel] {
            let tiled = executor::run_function(&g, &args, &device, mode)
                .unwrap_or_else(|e| panic!("case {seed} fused {mode:?} failed: {e}\n{}", g.dump()));
            let plain =
                executor::run_function(&unfused, &args, &device, mode).unwrap_or_else(|e| {
                    panic!("case {seed} unfused {mode:?} failed: {e}\n{}", unfused.dump())
                });
            for (k, (t, u)) in tiled.iter().zip(&plain).enumerate() {
                assert!(
                    same_bits(t, u),
                    "case {seed} output {k} ({mode:?}): fused and unfused graphs diverged\n{}\n{}",
                    g.dump(),
                    unfused.dump()
                );
            }
        }
    }
    assert!(fused_graphs > 0, "corpus never produced a fused kernel");
}

/// Redundant-load elimination on the program `read, read, assign, read`:
/// the second read merges into the first, the read after the store stays,
/// and both executors still observe program order.
#[test]
fn redundant_loads_merge_up_to_the_next_store() {
    use tf_eager::Attrs;
    use tfe_graph::GraphBuilder;
    use tfe_tensor::DType;
    tf_eager::init();
    let device = tfe_runtime::context::device_manager().host_cpu();
    let var = tf_eager::Variable::new(TensorData::scalar(3.0f64));
    let vid = var.id() as i64;
    let read = |b: &mut GraphBuilder| {
        let attrs = Attrs::new()
            .with("var_id", vid)
            .with("dtype", DType::F64)
            .with("shape", Vec::<i64>::new());
        b.add_node("read_variable", vec![], attrs).unwrap()[0]
    };
    let mut b = GraphBuilder::new("rrar");
    let r1 = read(&mut b);
    let r2 = read(&mut b);
    let sum = b.add_node("add", vec![r1, r2], Attrs::new()).unwrap()[0];
    b.add_node("assign", vec![sum], Attrs::new().with("var_id", vid)).unwrap();
    let r3 = read(&mut b);
    let f = b.finish(vec![r1, r2, r3], 0);

    for (name, opts) in
        [("only_cse", OptimizeOptions::only("cse")), ("default", Default::default())]
    {
        let (g, stats) = passes::optimize_with_stats(&f, &opts, Some(&evaluator));
        assert_eq!(count_op(&g, "read_variable"), 2, "{name}\n{}", g.dump());
        assert!(stats.rewrites_for("cse") >= 1, "{name}");
        // The surviving edges are the sequencing model's own.
        let recomputed = tfe_graph::sequencing::sequence_control_edges(&g.nodes);
        for (i, n) in g.nodes.iter().enumerate() {
            assert_eq!(n.control_inputs, recomputed[i], "{name} node {i}\n{}", g.dump());
        }
        for mode in [ExecMode::SerialPlanned, ExecMode::Parallel] {
            var.restore(TensorData::scalar(3.0f64)).unwrap();
            let out = executor::run_function(&g, &[], &device, mode).unwrap();
            let got: Vec<f64> = out.iter().map(|t| t.scalar_f64().unwrap()).collect();
            assert_eq!(got, vec![3.0, 3.0, 6.0], "{name} {mode:?}");
            assert_eq!(var.peek().scalar_f64().unwrap(), 6.0, "{name} {mode:?}");
        }
    }
}

/// A round that drops a store is followed by one more, which scans the graph
/// that round left; a graph with no dead store is done in one. Here the
/// dead store sits between two reads of `v` — it writes `u`: a store to `v`
/// itself would be read by the second and so not dead — and the reads end
/// as one.
#[test]
fn a_dropped_store_costs_one_more_round() {
    use tf_eager::Attrs;
    use tfe_graph::GraphBuilder;
    use tfe_tensor::DType;
    tf_eager::init();
    let device = tfe_runtime::context::device_manager().host_cpu();
    let v = tf_eager::Variable::new(TensorData::scalar(3.0f64));
    let u = tf_eager::Variable::new(TensorData::scalar(0.0f64));
    let read = |b: &mut GraphBuilder| {
        let attrs = Attrs::new()
            .with("var_id", v.id() as i64)
            .with("dtype", DType::F64)
            .with("shape", Vec::<i64>::new());
        b.add_node("read_variable", vec![], attrs).unwrap()[0]
    };
    let store = |b: &mut GraphBuilder, value| {
        b.add_node("assign", vec![value], Attrs::new().with("var_id", u.id() as i64)).unwrap();
    };
    let mut b = GraphBuilder::new("read_store_read_store");
    let r1 = read(&mut b);
    let doubled = b.add_node("add", vec![r1, r1], Attrs::new()).unwrap()[0];
    store(&mut b, doubled); // overwritten below, `u` unread in between
    let r2 = read(&mut b);
    store(&mut b, r2);
    let f = b.finish(vec![r1, r2], 0);

    let (g, stats) = passes::optimize_with_stats(&f, &OptimizeOptions::default(), Some(&evaluator));
    assert_eq!(stats.sweeps, 2, "{}", g.dump());
    assert_eq!(stats.rewrites_for("eliminate_dead_stores"), 1);
    assert_eq!(count_op(&g, "read_variable"), 1, "{}", g.dump());
    assert_eq!(count_op(&g, "assign"), 1, "{}", g.dump());
    assert_eq!(count_op(&g, "add"), 0, "what fed the dead store is pruned\n{}", g.dump());
    for mode in [ExecMode::SerialPlanned, ExecMode::Parallel] {
        u.restore(TensorData::scalar(0.0f64)).unwrap();
        let out = executor::run_function(&g, &[], &device, mode).unwrap();
        let got: Vec<f64> = out.iter().map(|t| t.scalar_f64().unwrap()).collect();
        assert_eq!(got, vec![3.0, 3.0], "{mode:?}");
        assert_eq!(u.peek().scalar_f64().unwrap(), 3.0, "{mode:?}");
    }
    let without = OptimizeOptions { dead_store_elim: false, ..Default::default() };
    assert_eq!(passes::optimize_with_stats(&f, &without, Some(&evaluator)).1.sweeps, 1);
}

/// `x + 0` and `x - 0` are `x` only for the zero that is the op's identity:
/// `-0.0 + +0.0` and `-0.0 - -0.0` are `+0.0`. Staged equals eager bit for
/// bit on all four spellings (and the commuted sums), and the two exact
/// ones are still rewritten away.
#[test]
fn additive_identity_keeps_the_sign_of_zero() {
    use tf_eager::{api, Arg};
    tf_eager::init();
    let x = api::constant(vec![-0.0f32, 0.0, 1.0], [3]).unwrap();
    type Spelling = fn(&tf_eager::Tensor, f32) -> Result<tf_eager::Tensor, tf_eager::RuntimeError>;
    let spellings: [(&str, Spelling, f32); 3] = [
        ("x + z", |x, z| api::add(x, &api::scalar(z)), -0.0),
        ("z + x", |x, z| api::add(&api::scalar(z), x), -0.0),
        ("x - z", |x, z| api::sub(x, &api::scalar(z)), 0.0),
    ];
    for (name, spell, identity) in spellings {
        for z in [0.0f32, -0.0] {
            let eager = spell(&x, z).unwrap();
            let staged = tf_eager::function1("signed_zero", move |x| spell(x, z));
            assert_eq!(
                tensor_bits(&staged.call1(&x).unwrap()),
                tensor_bits(&eager),
                "{name}, z = {z:?}"
            );
            let nodes =
                staged.concrete_for(&[Arg::from(&x)]).unwrap().function.executable_node_count();
            let exact = z.to_bits() == identity.to_bits();
            assert_eq!(nodes == 0, exact, "{name}, z = {z:?}: {nodes} nodes");
        }
    }
}

/// A barrier between two reads — a host function or a stateful call, either
/// of which may write the variable — blocks the merge, and the second read
/// observes what the barrier wrote.
#[test]
fn barriers_block_redundant_load_elimination() {
    use tf_eager::{api, function, Arg, HostFunc, Variable};
    tf_eager::init();
    let bump_by_host = {
        let var = Variable::new(TensorData::scalar(1.0f64));
        let host = {
            let var = var.clone();
            HostFunc::new(
                move |_| {
                    var.assign_add(&api::scalar(10.0f64))?;
                    Ok(vec![api::scalar(0.0f64)])
                },
                vec![(tfe_tensor::DType::F64, tfe_ops::SymShape::scalar())],
            )
        };
        function("reads_around_host_func", move |_| {
            let before = var.read()?;
            host.call(&[&before])?;
            Ok(vec![before, var.read()?])
        })
    };
    let bump_by_call = {
        let var = Variable::new(TensorData::scalar(1.0f64));
        let callee = {
            let var = var.clone();
            function("bump", move |_| {
                var.assign_add(&api::scalar(10.0f64))?;
                Ok(vec![])
            })
        };
        function("reads_around_stateful_call", move |_| {
            let before = var.read()?;
            callee.call(&[])?;
            Ok(vec![before, var.read()?])
        })
    };
    for f in [bump_by_host, bump_by_call] {
        let none: [Arg; 0] = [];
        let out = f.call(&none).unwrap();
        let got: Vec<f64> = out.iter().map(|t| t.scalar_f64().unwrap()).collect();
        assert_eq!(got, vec![1.0, 11.0], "{}", f.name());
        let c = f.concrete_for(&none).unwrap();
        assert_eq!(
            count_op(&c.function, "read_variable"),
            2,
            "{}\n{}",
            f.name(),
            c.function.dump()
        );
    }
}

/// Applying any single pass twice must equal applying it once —
/// structural hash equality, table-driven over all seven passes, on both
/// the general and the algebraic-biased corpus.
#[test]
fn single_passes_are_idempotent() {
    tf_eager::init();
    for seed in 0..fuzz_cases(30) {
        let graphs = [common::generate(seed).0, common::generate_algebraic(seed).0];
        for f in &graphs {
            for pass in PASS_NAMES {
                let opts = OptimizeOptions::only(pass);
                let once = passes::optimize(f, &opts, Some(&evaluator));
                let twice = passes::optimize(&once, &opts, Some(&evaluator));
                assert_eq!(
                    once.structural_hash(),
                    twice.structural_hash(),
                    "pass {pass} not idempotent on seed {seed}\nonce:\n{}\ntwice:\n{}",
                    once.dump(),
                    twice.dump()
                );
            }
        }
    }
}

/// Optimizing an optimized graph changes nothing — one walk leaves nothing
/// for a second to find — with and without the fusion lowering, on both
/// the general and the algebraic-biased corpus.
#[test]
fn optimizing_twice_changes_nothing() {
    tf_eager::init();
    for seed in 0..fuzz_cases(30) {
        let graphs = [common::generate(seed).0, common::generate_algebraic(seed).0];
        for f in &graphs {
            for opts in [unfused(), OptimizeOptions::default()] {
                let once = passes::optimize(f, &opts, Some(&evaluator));
                let (twice, stats) = passes::optimize_with_stats(&once, &opts, Some(&evaluator));
                assert_eq!(
                    once.structural_hash(),
                    twice.structural_hash(),
                    "seed {seed}: a second optimize found {:?}\nonce:\n{}\ntwice:\n{}",
                    stats.rewrites,
                    once.dump(),
                    twice.dump()
                );
                assert_eq!(stats.sweeps, 1, "seed {seed}");
            }
        }
    }
}

/// Graph hashes after optimization are reproducible run-to-run: nothing in
/// the builder's tables or the fusion grouping depends on iteration order.
#[test]
fn optimized_hashes_are_reproducible() {
    tf_eager::init();
    for seed in 0..fuzz_cases(20) {
        let (f, _) = common::generate(seed);
        let base =
            passes::optimize(&f, &OptimizeOptions::default(), Some(&evaluator)).structural_hash();
        for round in 0..4 {
            let again = passes::optimize(&f, &OptimizeOptions::default(), Some(&evaluator))
                .structural_hash();
            assert_eq!(base, again, "seed {seed} round {round}: optimized hash drifted");
        }
    }
}

/// The shrinker itself: a graph whose failure is confined to an early
/// prefix must shrink past the unrelated tail, and the artifact must be
/// valid dot on disk.
#[test]
fn shrinker_truncates_to_failing_prefix() {
    tf_eager::init();
    let (f, _) = common::generate(7);
    // "Failure" = the graph still contains its first non-placeholder node.
    let marker = f
        .nodes
        .iter()
        .position(|n| n.op != "placeholder")
        .expect("corpus graphs have executable nodes");
    let shrunk = common::shrink_failing_graph(&f, &|cand| cand.nodes.len() > marker);
    assert!(shrunk.nodes.len() < f.nodes.len(), "shrinker failed to drop the unrelated tail");
    assert_eq!(shrunk.outputs.len(), 1, "shrunk graph keeps a single output");
    let path = common::dot_artifact(&shrunk);
    let dot = std::fs::read_to_string(&path).expect("artifact readable");
    assert!(dot.starts_with("digraph"), "artifact is dot: {dot:.40}");
    std::fs::remove_file(&path).ok();
}
