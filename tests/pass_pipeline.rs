//! The graph optimizer: every stateless and stateful corpus graph under
//! every config, in every runner, bit for bit with the unoptimized serial
//! run, outputs and variables (calls into `common::oracle`; the biased
//! corpora are `tests/differential.rs`'s). Beside it: single rewrites
//! pinned on hand-built programs — redundant loads up to the next store,
//! one more round per dropped store, the sign of zero through the additive
//! identities, barriers that block a merge — and, over the general and
//! algebraic corpora, that each pass is idempotent, that optimizing twice
//! changes nothing and that optimized hashes are reproducible. The
//! shrinker the differential's failures go through is tested here too.

mod common;

use common::oracle::{check_corpus, evaluator, optimized, Config, Corpus, Mode};
use common::{control_edges, count_op, fuzz_cases, tensor_bits};
use tf_eager::graph::passes::{self, OptimizeOptions, PASS_NAMES};
use tf_eager::graph::{GraphFunction, Node, NodeId, TensorRef};
use tf_eager::{metrics, DType, ExecMode, Op};
use tfe_runtime::executor;
use tfe_tensor::TensorData;

/// The headline differential: every stateless corpus graph under `none`
/// and each rewrite family alone, in all three runners. `fixpoint` and
/// `fused` are [`fused_and_unfused_graphs_agree_bitwise`]'s.
#[test]
fn all_pass_configs_agree_on_random_graphs() {
    let mut merged = 0;
    let single = |m: &Mode| matches!(m, Mode::Optimized(Config::None | Config::Only(_), _));
    check_corpus(Corpus::Stateless, single, |_, report| {
        merged += report.iter().map(|o| o.stats.rewrites_for("cse")).sum::<u64>();
    });
    assert!(merged > 0, "corpus never triggered CSE");
}

/// The default pipeline, which lowers elementwise islands into fused
/// kernels, and the same pipeline without the lowering: both bit for bit
/// with the raw graph in all three runners, so the fused kernel's tile
/// executor agrees with the op-by-op nodes it replaced. Over the corpus
/// (half of it f32) fusion must fire, fused kernels must run on tiles, and
/// fusion must refuse a group the tiles would not take (a `[n, 1]` column),
/// whose nodes then run one by one.
#[test]
fn fused_and_unfused_graphs_agree_bitwise() {
    let tiled = || metrics::snapshot().counter_value("tfe_fused_tiled_evals_total").unwrap_or(0);
    let tiled_before = tiled();
    let (mut fused, mut refused) = (0, 0);
    let pipeline = |m: &Mode| matches!(m, Mode::Optimized(Config::Fixpoint | Config::Fused, _));
    check_corpus(Corpus::Stateless, pipeline, |_, report| {
        let optimization = optimized(report, Config::Fused);
        fused += optimization.stats.rewrites_for("fuse_elementwise");
        refused += refused_members(&optimization.graph);
    });
    assert!(fused > 0, "corpus never produced a fused kernel");
    assert!(tiled() > tiled_before, "no fused kernel ran on tiles");
    assert!(refused > 0, "corpus never made a group that fusion refuses");
}

/// The f32 unary and binary nodes of a fused graph whose one consumer is
/// another: members of a group that fusion refused, since it fuses every
/// other such pair.
fn refused_members(g: &GraphFunction) -> usize {
    let consumers = g.consumers();
    let fusible =
        |n: &Node| matches!(n.op, Op::Unary(_) | Op::Binary(_)) && n.outputs[0].0 == DType::F32;
    (0..g.nodes.len())
        .map(|i| TensorRef::first(NodeId(i)))
        .filter(|&out| fusible(g.node(out.node)) && !g.outputs.contains(&out))
        .filter(|out| {
            consumers
                .get(out)
                .is_some_and(|cs| cs.iter().all(|&(c, _)| c == cs[0].0) && fusible(g.node(cs[0].0)))
        })
        .count()
}

/// Stateful corpus: every config preserves outputs *and* final variable
/// state bit for bit, in all three runners. This keeps dead-store
/// elimination honest about liveness; redundant loads must merge.
#[test]
fn all_pass_configs_preserve_variable_state() {
    let mut merged_loads = 0;
    check_corpus(
        Corpus::Stateful,
        |m| matches!(m, Mode::Optimized(..)),
        |case, report| {
            let reads = |g| count_op(g, "read_variable");
            merged_loads += reads(&case.graph) - reads(&optimized(report, Config::Fixpoint).graph);
        },
    );
    assert!(merged_loads > 0, "stateful corpus never triggered redundant-load elimination");
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
        let recomputed = control_edges(&g.nodes);
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
        let graphs = [common::generate(seed), common::generate_algebraic(seed)];
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
        let graphs = [common::generate(seed), common::generate_algebraic(seed)];
        for f in &graphs {
            for opts in [Config::Fixpoint.options(), OptimizeOptions::default()] {
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
        let f = common::generate(seed);
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
    let f = common::generate(7);
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
