//! The graph optimizer.
//!
//! These are the optimizations the paper attributes to staging (§4.1:
//! "inter-op parallelism and optimizations like constant-folding and buffer
//! reuse"; §5: "non-stateful operations that are not reachable from the
//! outputs of a function are pruned"). Fusion is the XLA stand-in (§4.4),
//! and it is the default lowering for every device, the real CPU included:
//! one pipeline, so a traced function is optimized the same way wherever it
//! is placed.
//!
//! The local rewrites — constant propagation and folding, the algebraic
//! identities, common subexpressions and redundant loads — need only the
//! node in hand and the nodes it reads, so they are not passes: they are
//! the rules of [`GraphBuilder::simplifying`], applied to each node once as
//! the graph is **replayed** through that builder in program order. A
//! node's producers are simplified before it is, so one walk reaches the
//! fixpoint a sweep of separate passes would iterate to, with one table
//! from old references to new ones.
//!
//! What needs the whole graph stays here, each as a mark over the nodes
//! followed by a replay that leaves the marked ones out: the reverse scan
//! that finds dead stores (the simplifying replay skips them, and its
//! builder sequences what survives), the prune by reachability after it,
//! and elementwise fusion — a lowering whose `fused_elementwise` programs
//! are opaque to the rules, run once at the end. `replay` is the only
//! code that rewires a graph.

use crate::builder::GraphBuilder;
use crate::ir::{GraphFunction, Node, NodeId, TensorRef};
use crate::program::{Instr, Program, Programs};
use crate::sequencing::{classify, Access, Resource};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use tfe_ops::{Op, Params};
use tfe_tensor::{DType, TensorData};

/// The seven rewrite families: the four rule families of the simplifying
/// builder in the order it tries them, then the whole-graph steps in the
/// order the driver runs them. These are the keys of
/// [`OptimizeStats::rewrites`], the `pass` label values of
/// `tfe_pass_pipeline_rewrites_total` and the names
/// [`OptimizeOptions::only`] takes.
pub const PASS_NAMES: [&str; 7] = [
    "propagate_constants",
    "fold_constants",
    "simplify_algebraic",
    "cse",
    "eliminate_dead_stores",
    "prune",
    "fuse_elementwise",
];

/// Constant folding keeps no result larger than this many elements.
pub const FOLD_SIZE_LIMIT: usize = 65_536;

/// Which rewrite families [`optimize`] applies.
#[derive(Debug, Clone, Copy)]
pub struct OptimizeOptions {
    /// Drop stateless nodes unreachable from the outputs.
    pub prune: bool,
    /// Deduplicate identical stateless nodes, and `read_variable`s that
    /// must observe the same value as an earlier read (redundant-load
    /// elimination).
    pub cse: bool,
    /// Evaluate stateless nodes with all-constant inputs at optimization
    /// time (requires an evaluator; skipped otherwise).
    pub fold_constants: bool,
    /// Fold tensor-metadata ops (`shape_of`, `rank_of`, `size_of`) whose
    /// answer is statically known from the inferred signatures.
    pub propagate_constants: bool,
    /// Algebraic identities: `x + 0`, `x - 0`, `x * 1`, `x / 1`, `identity`
    /// bypass, double-transpose cancellation, and absorbing rank-2
    /// transposes into `matmul`'s `transpose_a`/`transpose_b` flags.
    pub algebraic_simplify: bool,
    /// Drop variable stores that are overwritten before any read.
    pub dead_store_elim: bool,
    /// Fuse chains of elementwise ops into `fused_elementwise` nodes.
    pub fuse_elementwise: bool,
}

impl Default for OptimizeOptions {
    fn default() -> OptimizeOptions {
        OptimizeOptions {
            prune: true,
            cse: true,
            fold_constants: true,
            propagate_constants: true,
            algebraic_simplify: true,
            dead_store_elim: true,
            fuse_elementwise: true,
        }
    }
}

impl OptimizeOptions {
    /// Everything off (identity pipeline), for ablations.
    pub fn none() -> OptimizeOptions {
        OptimizeOptions {
            prune: false,
            cse: false,
            fold_constants: false,
            propagate_constants: false,
            algebraic_simplify: false,
            dead_store_elim: false,
            fuse_elementwise: false,
        }
    }

    /// Exactly one named family enabled (see [`PASS_NAMES`]) — the
    /// configuration the differential fuzz harness runs per family.
    ///
    /// # Panics
    /// Unknown name.
    pub fn only(pass: &str) -> OptimizeOptions {
        let mut o = OptimizeOptions::none();
        match pass {
            "prune" => o.prune = true,
            "cse" => o.cse = true,
            "fold_constants" => o.fold_constants = true,
            "propagate_constants" => o.propagate_constants = true,
            "simplify_algebraic" => o.algebraic_simplify = true,
            "eliminate_dead_stores" => o.dead_store_elim = true,
            "fuse_elementwise" => o.fuse_elementwise = true,
            other => panic!("unknown pass {other:?}"),
        }
        o
    }
}

/// What one [`optimize_with_stats`] run did: how many replay rounds it
/// took and how many rewrites each family applied, keyed by [`PASS_NAMES`]
/// entries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptimizeStats {
    /// Replay rounds: one, plus one after each round that dropped a store.
    pub sweeps: u64,
    /// Whether the run reached its fixpoint. Always true: the rounds end by
    /// construction, not at a cap.
    pub converged: bool,
    /// Rewrites per family (absent key = zero).
    pub rewrites: BTreeMap<&'static str, u64>,
}

impl OptimizeStats {
    /// Rewrites applied by one family (0 when it never fired).
    pub fn rewrites_for(&self, pass: &str) -> u64 {
        self.rewrites.get(pass).copied().unwrap_or(0)
    }

    /// Total rewrites across all families.
    pub fn total_rewrites(&self) -> u64 {
        self.rewrites.values().sum()
    }
}

fn record(stats: &mut OptimizeStats, pass: &'static str, count: u64) {
    if count == 0 {
        return;
    }
    *stats.rewrites.entry(pass).or_insert(0) += count;
    tfe_metrics::counter_vec(
        "tfe_pass_pipeline_rewrites_total",
        "Graph rewrites applied by the optimizer, by pass",
        "pass",
    )
    .with(pass)
    .add(count);
}

/// Evaluates a single node on constant inputs (supplied by the runtime,
/// which owns the kernels). Returning `Err` skips folding that node.
pub type NodeEvaluator<'a> =
    dyn Fn(&Node, &[Arc<TensorData>]) -> Result<Vec<TensorData>, String> + 'a;

/// Optimize `f`. See [`optimize_with_stats`] for the variant that also
/// reports round and rewrite counts.
pub fn optimize(
    f: &GraphFunction,
    options: &OptimizeOptions,
    evaluator: Option<&NodeEvaluator>,
) -> GraphFunction {
    optimize_with_stats(f, options, evaluator).0
}

/// Optimize `f` and report what happened. One round marks the dead stores,
/// replays every other node through a simplifying builder and prunes what
/// the outputs no longer reach. A round that dropped a store is followed by
/// another — the graph it scanned is not the graph it left — so the rounds
/// end when a scan finds nothing, after at most one more than there are
/// stores. Elementwise fusion then runs once (it is a lowering, not a
/// simplification — see the module docs).
pub fn optimize_with_stats(
    f: &GraphFunction,
    options: &OptimizeOptions,
    evaluator: Option<&NodeEvaluator>,
) -> (GraphFunction, OptimizeStats) {
    tfe_metrics::static_counter!(
        "tfe_pass_pipeline_runs_total",
        "Functions run through the optimizer pass pipeline"
    )
    .inc();
    let mut stats = OptimizeStats { converged: true, ..OptimizeStats::default() };
    let mut g = f.clone();
    loop {
        let dead = if options.dead_store_elim { dead_stores(&g) } else { Vec::new() };
        let dropped = dead.iter().filter(|&&d| d).count() as u64;
        record(&mut stats, "eliminate_dead_stores", dropped);
        let rules = GraphBuilder::simplifying(&g.name, evaluator, options);
        g = replay(g, &dead, rules, &mut stats);
        if options.prune {
            g = prune_counted(g, &mut stats);
        }
        stats.sweeps += 1;
        tfe_metrics::static_counter!(
            "tfe_pass_pipeline_sweeps_total",
            "Optimizer replay rounds executed"
        )
        .inc();
        if dropped == 0 {
            break;
        }
    }
    if options.fuse_elementwise {
        g = fuse_elementwise(g, &mut stats);
    }
    (g, stats)
}

/// Rebuild `f` node by node through `b`, leaving out the nodes flagged in
/// `skip` (which nothing that stays may read). This is the one way a graph
/// is rewired: whatever rules `b` has are applied on the way, the stateful
/// nodes that survive are sequenced afresh, and the constant pool comes out
/// with one entry per `const` node `b` kept.
fn replay(
    f: GraphFunction,
    skip: &[bool],
    mut b: GraphBuilder,
    stats: &mut OptimizeStats,
) -> GraphFunction {
    // The one table: output `k` of old node `i` is now `table[first[i] + k]`.
    let mut first: Vec<Option<usize>> = Vec::with_capacity(f.nodes.len());
    let mut table: Vec<TensorRef> = Vec::with_capacity(f.nodes.len());
    let at = |first: &[Option<usize>], table: &[TensorRef], t: TensorRef| {
        table[first[t.node.0].expect("a kept node reads a skipped one") + t.output]
    };
    for (i, mut node) in f.nodes.into_iter().enumerate() {
        if skip.get(i) == Some(&true) {
            first.push(None);
            continue;
        }
        first.push(Some(table.len()));
        for t in &mut node.inputs {
            *t = at(&first, &table, *t);
        }
        let constant = match node.params {
            Params::Const { index, .. } if node.op == Op::Const => f.constants.get(index),
            _ => None,
        };
        match constant {
            Some(value) => table.push(b.intern(value.clone())),
            // With the signature it was recorded with: no rule changes one.
            None => table.extend(b.append(node)),
        }
    }
    for (pass, n) in b.rewrites() {
        record(stats, pass, n);
    }
    let outputs = f.outputs.iter().map(|&t| at(&first, &table, t)).collect();
    let mut g = b.finish(outputs, f.num_captures);
    // In `f`'s argument order, which need not be its node order.
    g.inputs = f.inputs.iter().map(|&id| at(&first, &table, TensorRef::first(id)).node).collect();
    g
}

/// `f` without the inputs flagged in `drop` (one flag per input, none of
/// them a capture): their placeholders leave the node list and the call
/// signature. For a caller that built `f` with inputs it turned out not to
/// need — [`prune`] never does this, placeholders being the signature.
///
/// # Panics
/// A node or an output of `f` still reads a dropped input.
pub fn drop_inputs(f: &GraphFunction, drop: &[bool]) -> GraphFunction {
    let mut g = f.clone();
    let mut skip = vec![false; f.nodes.len()];
    for (id, _) in f.inputs.iter().zip(drop).filter(|(_, &d)| d) {
        skip[id.0] = true;
    }
    g.inputs.retain(|id| !skip[id.0]);
    let plain = GraphBuilder::new(&g.name);
    replay(g, &skip, plain, &mut OptimizeStats::default())
}

/// Drop stateless nodes not reachable from the outputs (or from stateful
/// nodes). Placeholders always survive: they define the call signature.
pub fn prune(f: &GraphFunction) -> GraphFunction {
    prune_counted(f.clone(), &mut OptimizeStats::default())
}

fn prune_counted(f: GraphFunction, stats: &mut OptimizeStats) -> GraphFunction {
    let mut skip = vec![true; f.nodes.len()];
    let mut stack: Vec<usize> = f.outputs.iter().map(|t| t.node.0).collect();
    for (i, n) in f.nodes.iter().enumerate() {
        if n.stateful || n.op == Op::Placeholder {
            stack.push(i);
        }
    }
    while let Some(i) = stack.pop() {
        if skip[i] {
            skip[i] = false;
            stack.extend(f.nodes[i].inputs.iter().map(|t| t.node.0));
        }
    }
    let dropped = skip.iter().filter(|&&s| s).count() as u64;
    if dropped == 0 {
        return f;
    }
    record(stats, "prune", dropped);
    let plain = GraphBuilder::new(&f.name);
    replay(f, &skip, plain, stats)
}

/// Dead-store scan over the sequencing model, one flag per node: an
/// `assign`/`assign_add`/`assign_sub` is dead when a *later* plain `assign`
/// to the same variable overwrites it with no intervening read of that
/// variable and no intervening barrier. The final store to each variable
/// always survives — variables outlive the function, so its value is
/// observable. RNG and IO writes are never dropped. The value chain that
/// fed a dropped store is left to the pruner.
fn dead_stores(f: &GraphFunction) -> Vec<bool> {
    let mut dead = vec![false; f.nodes.len()];
    // Variables a later plain `assign` fully overwrites, with no read or
    // barrier in between (reverse program-order scan).
    let mut clobbered: HashSet<i64> = HashSet::new();
    for i in (0..f.nodes.len()).rev() {
        let n = &f.nodes[i];
        match classify(n.op, &n.params, n.stateful) {
            Access::Pure => {}
            Access::Barrier => clobbered.clear(),
            Access::Read(Resource::Var(v)) => {
                clobbered.remove(&v);
            }
            Access::Read(_) => {}
            Access::Write(Resource::Var(v)) => {
                if clobbered.contains(&v) {
                    // A dropped read-modify-write also drops its read, so
                    // the clobber window stays open past it.
                    dead[i] = true;
                } else if n.op == Op::Assign {
                    clobbered.insert(v);
                }
            }
            // RNG and IO writes advance observable streams; keep them.
            Access::Write(_) => {}
        }
    }
    // A store whose outputs are consumed or returned must stay, whatever
    // the chain says (assign ops produce no outputs today; this guards a
    // future change).
    if dead.iter().any(|&d| d) {
        let consumed: HashSet<usize> =
            f.nodes.iter().flat_map(|n| n.inputs.iter().map(|t| t.node.0)).collect();
        let escaped: HashSet<usize> = f.outputs.iter().map(|t| t.node.0).collect();
        for (i, d) in dead.iter_mut().enumerate() {
            if *d && (consumed.contains(&i) || escaped.contains(&i)) {
                *d = false;
            }
        }
    }
    dead
}

/// Whether `node` may join a fusion group: a unary or binary map with one
/// f32 output, the one dtype the tile executor runs.
fn fusible(node: &Node) -> bool {
    node.outputs.len() == 1
        && node.outputs[0].0 == DType::F32
        && match node.op {
            Op::Unary(_) => node.inputs.len() == 1,
            Op::Binary(_) => node.inputs.len() == 2,
            _ => false,
        }
}

/// What the reverse walk of [`fuse_elementwise`] knows of a node's consumers.
#[derive(Clone, Copy)]
enum Consumers {
    /// None visited yet.
    Unseen,
    /// Every one visited is in group `g`.
    One(usize),
    /// Two groups, or a consumer in none.
    Mixed,
}

/// Fuse maximal groups of elementwise nodes into `fused_elementwise` nodes.
///
/// A [`fusible`] node joins its consumer's group when every consumer is the
/// same group and the node is not a function output — so each group has a
/// single sink whose value escapes. Every group of two or more is fused:
/// its members' shape inference makes every input f32 and broadcast into
/// the sink's output, which is all the tiles ask, and they read each input
/// through the same `lanes::Operand` as the unfused kernels. So every fused
/// node runs on tiles, and nothing else evaluates a fused program.
///
/// Group assignment and emission use ordered (BTree) containers keyed by
/// node index, so the output node order — and therefore
/// [`GraphFunction::structural_hash`] — is a pure function of the input
/// graph: the fused-program cache and the idempotence tests depend on it.
///
/// The one place outside the builder that writes a node by hand: a fused
/// node stands for nodes that were already checked, and its output is its
/// sink's. It takes the sink's place, and the [`replay`] that drops the
/// other members rewires it.
fn fuse_elementwise(mut f: GraphFunction, stats: &mut OptimizeStats) -> GraphFunction {
    let output_set: HashSet<TensorRef> = f.outputs.iter().copied().collect();
    let n = f.nodes.len();
    // group id per node (sink's node index).
    let mut group: Vec<Option<usize>> = vec![None; n];
    // The groups of each node's consumers seen so far. Consumers come after
    // their producers, so the reverse walk has seen them all by the time it
    // reaches the producer.
    let mut consumers = vec![Consumers::Unseen; n];
    for i in (0..n).rev() {
        let node = &f.nodes[i];
        if fusible(node) {
            group[i] = match consumers[i] {
                Consumers::One(g) if !output_set.contains(&TensorRef::first(NodeId(i))) => Some(g),
                _ => Some(i), // start a group with this node as sink
            };
        }
        for input in &node.inputs {
            let seen = &mut consumers[input.node.0];
            *seen = match (*seen, group[i]) {
                (Consumers::Unseen, Some(g)) => Consumers::One(g),
                (Consumers::One(h), Some(g)) if h == g => Consumers::One(g),
                _ => Consumers::Mixed,
            };
        }
    }
    // Collect members per sink, in topological order.
    let mut members: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, g) in group.iter().enumerate() {
        if let Some(g) = g {
            members.entry(*g).or_default().push(i);
        }
    }
    let fuse_groups: BTreeMap<usize, Vec<usize>> =
        members.into_iter().filter(|(_, m)| m.len() >= 2).collect();
    if fuse_groups.is_empty() {
        return f;
    }
    // Each sink becomes its group's fused node, still reading the group's
    // external inputs by their old references; the other members go. (No
    // group reads another's members, only their outputs by reference.)
    let mut skip = vec![false; n];
    // The nodes that run the same program hold the same compiled one.
    let mut programs = Programs::default();
    for (&sink, members) in &fuse_groups {
        let mut inputs: Vec<TensorRef> = Vec::new();
        let mut reg_of: HashMap<TensorRef, usize> = HashMap::new();
        let mut instrs: Vec<Instr> = Vec::new();
        for &m in members {
            skip[m] = m != sink;
            let member = &f.nodes[m];
            let mut arg_regs = Vec::with_capacity(member.inputs.len());
            for &input in &member.inputs {
                // Members come in topological order, so a register exists
                // for every value made inside the group; the rest is input.
                let reg = *reg_of.entry(input).or_insert_with(|| {
                    inputs.push(input);
                    instrs.push(Instr::Input(inputs.len() - 1));
                    instrs.len() - 1
                });
                arg_regs.push(reg);
            }
            instrs.push(match member.op {
                Op::Unary(op) => Instr::Unary(op, arg_regs[0]),
                Op::Binary(op) => Instr::Binary(op, arg_regs[0], arg_regs[1]),
                _ => unreachable!("non-elementwise node in fusion group"),
            });
            reg_of.insert(TensorRef::first(NodeId(m)), instrs.len() - 1);
        }
        let output = reg_of[&TensorRef::first(NodeId(sink))];
        // Compiled here, from the program in hand, and held by the node: no
        // kernel invocation ever parses or looks up the program.
        let program = programs.compiled(Program { instrs, output });
        let outputs = f.nodes[sink].outputs.clone();
        f.nodes[sink] = Node {
            op: Op::FusedElementwise,
            inputs,
            params: Params::Fused { program },
            outputs,
            stateful: false,
            control_inputs: Vec::new(),
        };
    }
    record(stats, "fuse_elementwise", fuse_groups.len() as u64);
    let plain = GraphBuilder::new(&f.name);
    replay(f, &skip, plain, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::CompiledProgram;
    use crate::sequencing::sequence_control_edges;
    use tfe_ops::{Attrs, Handle, Params, SymShape};
    use tfe_tensor::Shape;

    /// One rewrite family, then the prune that clears what it orphaned.
    fn run(f: &GraphFunction, pass: &str) -> GraphFunction {
        let opts = OptimizeOptions { prune: true, ..OptimizeOptions::only(pass) };
        optimize(f, &opts, Some(&toy_evaluator))
    }

    fn known(dims: &[usize]) -> SymShape {
        SymShape::known(&Shape::from(dims))
    }

    #[test]
    fn prune_drops_dead_stateless_nodes() {
        let mut b = GraphBuilder::new("f");
        let x = b.placeholder(DType::F32, known(&[2])).unwrap();
        let used = b.add_node("relu", vec![x], Attrs::new()).unwrap()[0];
        let _dead = b.add_node("exp", vec![x], Attrs::new()).unwrap();
        let f = b.finish(vec![used], 0);
        assert_eq!(f.executable_node_count(), 2);
        let g = prune(&f);
        assert_eq!(g.executable_node_count(), 1);
        assert_eq!(g.inputs.len(), 1);
        assert_eq!(g.output_sigs(), f.output_sigs());
    }

    #[test]
    fn prune_keeps_stateful_nodes() {
        let mut b = GraphBuilder::new("f");
        let x = b.placeholder(DType::F32, known(&[2])).unwrap();
        let y = b.add_node("relu", vec![x], Attrs::new()).unwrap()[0];
        // Dead assign (stateful) must survive.
        b.add_node("assign", vec![x], Attrs::new().with("var_id", 7i64)).unwrap();
        let f = b.finish(vec![y], 0);
        let g = prune(&f);
        assert!(g.nodes.iter().any(|n| n.op == "assign"));
    }

    #[test]
    fn cse_merges_duplicates() {
        let mut b = GraphBuilder::new("f");
        let x = b.placeholder(DType::F32, known(&[2])).unwrap();
        let a = b.add_node("relu", vec![x], Attrs::new()).unwrap()[0];
        let c = b.add_node("relu", vec![x], Attrs::new()).unwrap()[0];
        let out = b.add_node("add", vec![a, c], Attrs::new()).unwrap()[0];
        let f = b.finish(vec![out], 0);
        let g = run(&f, "cse");
        assert_eq!(g.nodes.iter().filter(|n| n.op == "relu").count(), 1);
        // add now consumes the same ref twice
        let add = g.nodes.iter().find(|n| n.op == "add").unwrap();
        assert_eq!(add.inputs[0], add.inputs[1]);
    }

    #[test]
    fn cse_respects_attrs_and_statefulness() {
        let mut b = GraphBuilder::new("f");
        let x = b.placeholder(DType::F32, known(&[2, 2])).unwrap();
        let t1 =
            b.add_node("reduce_sum", vec![x], Attrs::new().with("axes", vec![0i64])).unwrap()[0];
        let t2 =
            b.add_node("reduce_sum", vec![x], Attrs::new().with("axes", vec![1i64])).unwrap()[0];
        // Two RNG nodes must never merge.
        let r1 = b
            .add_node(
                "random_normal",
                vec![],
                Attrs::new().with("dtype", DType::F32).with("shape", vec![2i64]),
            )
            .unwrap()[0];
        let r2 = b
            .add_node(
                "random_normal",
                vec![],
                Attrs::new().with("dtype", DType::F32).with("shape", vec![2i64]),
            )
            .unwrap()[0];
        let s = b.add_node("add", vec![t1, t2], Attrs::new()).unwrap()[0];
        let s2 = b.add_node("add", vec![r1, r2], Attrs::new()).unwrap()[0];
        let out = b.add_node("add", vec![s, s2], Attrs::new()).unwrap()[0];
        let f = b.finish(vec![out], 0);
        let g = run(&f, "cse");
        assert_eq!(g.nodes.iter().filter(|n| n.op == "reduce_sum").count(), 2);
        assert_eq!(g.nodes.iter().filter(|n| n.op == "random_normal").count(), 2);
    }

    #[test]
    fn cse_dedupes_equal_constants() {
        let mut b = GraphBuilder::new("f");
        let c1 = b.constant(Arc::new(TensorData::scalar(5.0f32))).unwrap();
        let c2 = b.constant(Arc::new(TensorData::scalar(5.0f32))).unwrap();
        let out = b.add_node("add", vec![c1, c2], Attrs::new()).unwrap()[0];
        let f = b.finish(vec![out], 0);
        let g = run(&f, "cse");
        assert_eq!(g.nodes.iter().filter(|n| n.op == "const").count(), 1);

        // Equal means equal bytes: these two i64s round to the same f64.
        let mut b = GraphBuilder::new("f");
        let c1 = b.constant(Arc::new(TensorData::scalar(9_007_199_254_740_993i64))).unwrap();
        let c2 = b.constant(Arc::new(TensorData::scalar(9_007_199_254_740_992i64))).unwrap();
        let out = b.add_node("sub", vec![c1, c2], Attrs::new()).unwrap()[0];
        let f = b.finish(vec![out], 0);
        let g = run(&f, "cse");
        assert_eq!(g.nodes.iter().filter(|n| n.op == "const").count(), 2, "{}", g.dump());
        let mut same = f.clone();
        same.constants[0] = same.constants[1].clone();
        assert_ne!(f.structural_hash(), same.structural_hash());
    }

    #[test]
    fn cse_compares_parameters_not_their_spelling() {
        // Parameter floats compare by bits: two NaN payloads print alike
        // and stay apart. An int attribute where a float is read decodes to
        // the same parameter as the float, so those two nodes are one.
        let fill = |b: &mut GraphBuilder, value: tfe_ops::AttrValue| {
            let attrs = Attrs::new().with("dtype", DType::F32).with("shape", vec![2i64]);
            b.add_node("fill", vec![], attrs.with("value", value)).unwrap()[0]
        };
        let quiet_nan = f64::from_bits(0x7ff8_0000_0000_0000);
        let payload_nan = f64::from_bits(0x7ff8_0000_0000_0001);
        for (v1, v2, kept) in [
            (tfe_ops::AttrValue::Float(quiet_nan), tfe_ops::AttrValue::Float(payload_nan), 2),
            (tfe_ops::AttrValue::Int(1), tfe_ops::AttrValue::Float(1.0), 1),
        ] {
            let mut b = GraphBuilder::new("f");
            let (a, c) = (fill(&mut b, v1.clone()), fill(&mut b, v2));
            let same = fill(&mut b, v1);
            let f = b.finish(vec![a, c, same], 0);
            let g = run(&f, "cse");
            assert_eq!(g.nodes.iter().filter(|n| n.op == "fill").count(), kept, "{}", g.dump());
            assert_eq!(g.outputs[0], g.outputs[2], "the exact duplicate merges");
            assert_eq!(g.outputs[0] == g.outputs[1], kept == 1);
        }
    }

    fn toy_evaluator(node: &Node, inputs: &[Arc<TensorData>]) -> Result<Vec<TensorData>, String> {
        // Enough kernels to test folding: add/sub/mul/relu on concrete data.
        use tfe_ops::{BinaryOp, UnaryOp};
        let out = match node.op {
            Op::Binary(op @ (BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul)) => {
                tfe_tensor::elementwise::binary(&inputs[0], &inputs[1], op)
            }
            Op::Unary(UnaryOp::Relu) => tfe_tensor::elementwise::unary(&inputs[0], UnaryOp::Relu),
            other => return Err(format!("no fold kernel for {other}")),
        };
        Ok(vec![out.map_err(|e| e.to_string())?])
    }

    #[test]
    fn fold_constant_subgraph() {
        let mut b = GraphBuilder::new("f");
        let x = b.placeholder(DType::F32, known(&[2])).unwrap();
        let c1 = b.constant(Arc::new(TensorData::scalar(2.0f32))).unwrap();
        let c2 = b.constant(Arc::new(TensorData::scalar(3.0f32))).unwrap();
        let c3 = b.add_node("mul", vec![c1, c2], Attrs::new()).unwrap()[0]; // 6.0, foldable
        let out = b.add_node("add", vec![x, c3], Attrs::new()).unwrap()[0];
        let f = b.finish(vec![out], 0);
        let g = run(&f, "fold_constants");
        // mul is gone; its value became a const.
        assert!(!g.nodes.iter().any(|n| n.op == "mul"));
        let add = g.nodes.iter().find(|n| n.op == "add").unwrap();
        let const_input = add.inputs[1];
        let cnode = g.node(const_input.node);
        assert_eq!(cnode.op, "const");
        let Params::Const { index: idx, .. } = cnode.params else { panic!("a const") };
        assert_eq!(g.constants[idx].scalar_f64().unwrap(), 6.0);
    }

    #[test]
    fn fold_skips_unsupported_and_stateful() {
        let mut b = GraphBuilder::new("f");
        let c1 = b.constant(Arc::new(TensorData::scalar(2.0f32))).unwrap();
        let e = b.add_node("exp", vec![c1], Attrs::new()).unwrap()[0]; // evaluator lacks exp
        let r = b
            .add_node(
                "random_normal",
                vec![],
                Attrs::new().with("dtype", DType::F32).with("shape", Vec::<i64>::new()),
            )
            .unwrap()[0];
        let out = b.add_node("add", vec![e, r], Attrs::new()).unwrap()[0];
        let f = b.finish(vec![out], 0);
        let g = run(&f, "fold_constants");
        assert!(g.nodes.iter().any(|n| n.op == "exp"));
        assert!(g.nodes.iter().any(|n| n.op == "random_normal"));
    }

    #[test]
    fn fuse_simple_chain() {
        let mut b = GraphBuilder::new("f");
        let x = b.placeholder(DType::F32, known(&[4])).unwrap();
        let y = b.placeholder(DType::F32, known(&[4])).unwrap();
        let s = b.add_node("add", vec![x, y], Attrs::new()).unwrap()[0];
        let r = b.add_node("relu", vec![s], Attrs::new()).unwrap()[0];
        let e = b.add_node("exp", vec![r], Attrs::new()).unwrap()[0];
        let f = b.finish(vec![e], 0);
        let g = run(&f, "fuse_elementwise");
        let fused: Vec<&Node> = g.nodes.iter().filter(|n| n.op == "fused_elementwise").collect();
        assert_eq!(fused.len(), 1);
        assert_eq!(fused[0].inputs.len(), 2);
        let Params::Fused { program } = &fused[0].params else { panic!("a fused node") };
        assert_eq!(program.label(), "in:0;in:1;b:add:0:1;u:relu:2;u:exp:3|4");
        let program = program.get::<CompiledProgram>().unwrap();
        assert_eq!(program.op_count(), 3);
        // Executable count dropped from 3 to 1.
        assert_eq!(g.executable_node_count(), 1);
    }

    #[test]
    fn fuse_respects_escaping_intermediates() {
        let mut b = GraphBuilder::new("f");
        let x = b.placeholder(DType::F32, known(&[4])).unwrap();
        let s = b.add_node("relu", vec![x], Attrs::new()).unwrap()[0];
        let e = b.add_node("exp", vec![s], Attrs::new()).unwrap()[0];
        // s escapes as a second output: the chain cannot fully fuse.
        let f = b.finish(vec![e, s], 0);
        let g = run(&f, "fuse_elementwise");
        // relu must survive as its own node.
        assert!(g.nodes.iter().any(|n| n.op == "relu"));
        assert_eq!(g.outputs.len(), 2);
    }

    #[test]
    fn fuse_keeps_non_elementwise_boundaries() {
        let mut b = GraphBuilder::new("f");
        let x = b.placeholder(DType::F32, known(&[4, 4])).unwrap();
        let r = b.add_node("relu", vec![x], Attrs::new()).unwrap()[0];
        let m = b.add_node("matmul", vec![r, r], Attrs::new()).unwrap()[0];
        let t = b.add_node("tanh", vec![m], Attrs::new()).unwrap()[0];
        let f = b.finish(vec![t], 0);
        let g = run(&f, "fuse_elementwise");
        // Nothing to fuse: single elementwise nodes on each side of matmul.
        assert!(g.nodes.iter().any(|n| n.op == "matmul"));
        assert!(!g.nodes.iter().any(|n| n.op == "fused_elementwise"));
    }

    #[test]
    fn fused_program_evaluates_like_original() {
        let mut b = GraphBuilder::new("f");
        let x = b.placeholder(DType::F32, known(&[4])).unwrap();
        let y = b.placeholder(DType::F32, known(&[4])).unwrap();
        let s = b.add_node("add", vec![x, y], Attrs::new()).unwrap()[0];
        let sq = b.add_node("square", vec![s], Attrs::new()).unwrap()[0];
        let f = b.finish(vec![sq], 0);
        let g = run(&f, "fuse_elementwise");
        let fused = g.nodes.iter().find(|n| n.op == "fused_elementwise").unwrap();
        let Params::Fused { program } = &fused.params else { panic!("a fused node") };
        let program = program.get::<CompiledProgram>().unwrap();
        let a = TensorData::from_vec(vec![1.0f32, 2.0, 3.0, -1.0], Shape::from([4])).unwrap();
        let c = TensorData::from_vec(vec![1.0f32, 1.0, 1.0, 1.0], Shape::from([4])).unwrap();
        let r = program.eval(&[&a, &c]).unwrap();
        assert_eq!(r.to_f64_vec(), vec![4.0, 9.0, 16.0, 0.0]);
    }

    /// `-(x * w + w)` over inputs of `dtype` and the given shapes, with
    /// fusion alone, and what fusion did.
    fn fuse_dense_chain(dtype: DType, x: SymShape, w: SymShape) -> (GraphFunction, u64) {
        let mut b = GraphBuilder::new("f");
        let x = b.placeholder(dtype, x).unwrap();
        let w = b.placeholder(dtype, w).unwrap();
        let m = b.add_node("mul", vec![x, w], Attrs::new()).unwrap()[0];
        let s = b.add_node("add", vec![m, w], Attrs::new()).unwrap()[0];
        let t = b.add_node("neg", vec![s], Attrs::new()).unwrap()[0];
        let f = b.finish(vec![t], 0);
        let (g, stats) = optimize_with_stats(&f, &OptimizeOptions::only("fuse_elementwise"), None);
        (g, stats.rewrites_for("fuse_elementwise"))
    }

    #[test]
    fn fusion_takes_every_f32_group() {
        let batch = SymShape::new(vec![None, Some(4)]);
        // Not f32: the chain stays three nodes.
        for dtype in [DType::F64, DType::I64] {
            let (g, fused) = fuse_dense_chain(dtype, known(&[8, 4]), known(&[8, 4]));
            assert_eq!((fused, g.executable_node_count()), (0, 3), "{dtype:?}\n{}", g.dump());
        }
        // A dynamic batch with a `[D]` bias, a scalar, a `[n, 1]` column,
        // known or not, and an operand whose unknown dim is not its first:
        // one node each.
        for (x, w) in [
            (batch.clone(), known(&[4])),
            (batch.clone(), SymShape::scalar()),
            (known(&[8, 4]), known(&[8, 1])),
            (batch.clone(), SymShape::new(vec![None, Some(1)])),
            (known(&[8, 4]), SymShape::new(vec![Some(8), None])),
        ] {
            let (g, fused) = fuse_dense_chain(DType::F32, x.clone(), w.clone());
            assert_eq!((fused, g.executable_node_count()), (1, 1), "{x} with {w}\n{}", g.dump());
            assert_eq!(g.output_sigs(), vec![(DType::F32, x.broadcast(&w).unwrap())]);
        }
    }

    #[test]
    fn optimize_pipeline_composes() {
        let mut b = GraphBuilder::new("f");
        let x = b.placeholder(DType::F32, known(&[4])).unwrap();
        let c1 = b.constant(Arc::new(TensorData::scalar(1.0f32))).unwrap();
        let c2 = b.constant(Arc::new(TensorData::scalar(1.0f32))).unwrap();
        let folded = b.add_node("add", vec![c1, c2], Attrs::new()).unwrap()[0];
        let a1 = b.add_node("add", vec![x, folded], Attrs::new()).unwrap()[0];
        let a2 = b.add_node("relu", vec![a1], Attrs::new()).unwrap()[0];
        let _dead = b.add_node("exp", vec![x], Attrs::new()).unwrap();
        let f = b.finish(vec![a2], 0);
        let g = optimize(&f, &OptimizeOptions::default(), Some(&toy_evaluator));
        // dead exp pruned, consts folded+deduped, add+relu fused.
        assert!(!g.nodes.iter().any(|n| n.op == "exp"));
        assert!(g.nodes.iter().any(|n| n.op == "fused_elementwise"));
        assert!(g.executable_node_count() <= 2);
        // identity pipeline really is the identity
        let same = optimize(&f, &OptimizeOptions::none(), None);
        assert_eq!(same.nodes.len(), f.nodes.len());
    }

    fn const_payload(g: &GraphFunction, t: TensorRef) -> Vec<f64> {
        let n = g.node(t.node);
        assert_eq!(n.op, "const", "expected a const, got {}", n.op);
        match n.params {
            Params::Const { index, .. } => g.constants[index].to_f64_vec(),
            _ => panic!("const without a pool index"),
        }
    }

    #[test]
    fn propagate_folds_static_metadata() {
        let mut b = GraphBuilder::new("f");
        let x = b.placeholder(DType::F32, known(&[2, 3])).unwrap();
        let y = b.placeholder(DType::F32, SymShape::new(vec![None, Some(3)])).unwrap();
        let sx = b.add_node("shape_of", vec![x], Attrs::new()).unwrap()[0];
        let ry = b.add_node("rank_of", vec![y], Attrs::new()).unwrap()[0];
        let sy = b.add_node("shape_of", vec![y], Attrs::new()).unwrap()[0];
        let zy = b.add_node("size_of", vec![y], Attrs::new()).unwrap()[0];
        let f = b.finish(vec![sx, ry, sy, zy], 0);
        let g = run(&f, "propagate_constants");
        // Fully-known shape and (always-static) rank fold; the shape and
        // size of a partially-unknown input must survive to runtime.
        assert_eq!(const_payload(&g, g.outputs[0]), vec![2.0, 3.0]);
        assert_eq!(const_payload(&g, g.outputs[1]), vec![2.0]);
        assert_eq!(g.node(g.outputs[2].node).op, "shape_of");
        assert_eq!(g.node(g.outputs[3].node).op, "size_of");
    }

    #[test]
    fn algebraic_removes_identity_elements() {
        let mut b = GraphBuilder::new("f");
        let x = b.placeholder(DType::F32, known(&[2])).unwrap();
        let one = b.constant(Arc::new(TensorData::scalar(1.0f32))).unwrap();
        let zero = b.constant(Arc::new(TensorData::scalar(0.0f32))).unwrap();
        let m = b.add_node("mul", vec![one, x], Attrs::new()).unwrap()[0];
        let s = b.add_node("sub", vec![m, zero], Attrs::new()).unwrap()[0];
        let d = b.add_node("div", vec![s, one], Attrs::new()).unwrap()[0];
        let f = b.finish(vec![d], 0);
        let g = run(&f, "simplify_algebraic");
        // 1*x, -0, /1 all cancel; the output is the placeholder itself.
        assert_eq!(g.executable_node_count(), 0);
        assert_eq!(g.node(g.outputs[0].node).op, "placeholder");
    }

    #[test]
    fn algebraic_keeps_broadcasting_identities() {
        let mut b = GraphBuilder::new("f");
        let x = b.placeholder(DType::F32, SymShape::scalar()).unwrap();
        let ones = b
            .constant(Arc::new(TensorData::from_vec(vec![1.0f32, 1.0], Shape::from([2])).unwrap()))
            .unwrap();
        let m = b.add_node("mul", vec![x, ones], Attrs::new()).unwrap()[0];
        let f = b.finish(vec![m], 0);
        let g = run(&f, "simplify_algebraic");
        // mul(scalar, ones[2]) broadcasts to shape [2]; dropping it would
        // change the output shape.
        assert!(g.nodes.iter().any(|n| n.op == "mul"));
    }

    #[test]
    fn algebraic_cancels_double_transpose() {
        let mut b = GraphBuilder::new("f");
        let x = b.placeholder(DType::F32, known(&[2, 3])).unwrap();
        let perm = vec![1i64, 0];
        let t1 =
            b.add_node("transpose", vec![x], Attrs::new().with("perm", perm.clone())).unwrap()[0];
        let t2 = b.add_node("transpose", vec![t1], Attrs::new().with("perm", perm)).unwrap()[0];
        let f = b.finish(vec![t2], 0);
        let g = run(&f, "simplify_algebraic");
        assert!(!g.nodes.iter().any(|n| n.op == "transpose"));
        assert_eq!(g.node(g.outputs[0].node).op, "placeholder");
    }

    #[test]
    fn algebraic_absorbs_transpose_into_matmul() {
        let mut b = GraphBuilder::new("f");
        let a = b.placeholder(DType::F32, known(&[2, 3])).unwrap();
        let c = b.placeholder(DType::F32, known(&[2, 4])).unwrap();
        let t =
            b.add_node("transpose", vec![a], Attrs::new().with("perm", vec![1i64, 0])).unwrap()[0];
        let m = b.add_node("matmul", vec![t, c], Attrs::new()).unwrap()[0];
        let f = b.finish(vec![m], 0);
        assert_eq!(f.sig(m).1, known(&[3, 4]));
        let g = run(&f, "simplify_algebraic");
        assert!(!g.nodes.iter().any(|n| n.op == "transpose"));
        let mm = g.nodes.iter().find(|n| n.op == "matmul").unwrap();
        assert_eq!(mm.params, Params::Matmul { transpose_a: true, transpose_b: false });
        // Result signature is unchanged by the absorption.
        assert_eq!(g.output_sigs(), f.output_sigs());
    }

    fn var_write(b: &mut GraphBuilder, op: &str, var: i64, value: TensorRef) {
        b.add_node(op, vec![value], Attrs::new().with("var_id", var)).unwrap();
    }

    #[test]
    fn dse_drops_overwritten_stores() {
        let mut b = GraphBuilder::new("f");
        let x = b.placeholder(DType::F32, SymShape::scalar()).unwrap();
        let y = b.add_node("relu", vec![x], Attrs::new()).unwrap()[0];
        var_write(&mut b, "assign", 7, y); // clobbered below, never read
        var_write(&mut b, "assign_add", 7, x); // also clobbered
        var_write(&mut b, "assign", 7, x); // final store: must survive
        var_write(&mut b, "assign", 8, x); // different variable: untouched
        let f = b.finish(vec![x], 0);
        let g = run(&f, "eliminate_dead_stores");
        assert_eq!(g.nodes.iter().filter(|n| n.op == "assign").count(), 2);
        assert!(!g.nodes.iter().any(|n| n.op == "assign_add"));
        // The relu that only fed the dead store is gone too.
        assert!(!g.nodes.iter().any(|n| n.op == "relu"));
    }

    #[test]
    fn dse_keeps_read_and_rmw_stores() {
        let mut b = GraphBuilder::new("f");
        let x = b.placeholder(DType::F32, SymShape::scalar()).unwrap();
        var_write(&mut b, "assign", 7, x);
        let r = b
            .add_node(
                "read_variable",
                vec![],
                Attrs::new()
                    .with("var_id", 7i64)
                    .with("dtype", DType::F32)
                    .with("shape", Vec::<i64>::new()),
            )
            .unwrap()[0];
        var_write(&mut b, "assign", 7, x); // ok: read intervenes
        var_write(&mut b, "assign", 9, x);
        var_write(&mut b, "assign_add", 9, x); // reads 9: earlier store live
        let f = b.finish(vec![r], 0);
        let g = run(&f, "eliminate_dead_stores");
        assert_eq!(g.nodes.len(), f.nodes.len());
        // Control edges survive re-sequencing: the read still waits on the
        // first assign.
        let recomputed = sequence_control_edges(&g.nodes);
        for (i, n) in g.nodes.iter().enumerate() {
            assert_eq!(n.control_inputs, recomputed[i], "node {i}");
        }
    }

    #[test]
    fn dse_treats_barriers_as_reads() {
        let mut b = GraphBuilder::new("f");
        let x = b.placeholder(DType::F32, SymShape::scalar()).unwrap();
        var_write(&mut b, "assign", 7, x);
        // A barrier (opaque stateful op) may read any variable.
        let sig = tfe_ops::encode_sig(&[(DType::F32, SymShape::scalar())]);
        b.add_node(
            "host_func",
            vec![x],
            Attrs::new()
                .with("host_fn", Handle::new(Arc::new(()), "host_fn"))
                .with("out_dtypes", sig.0)
                .with("out_shapes", sig.1),
        )
        .unwrap();
        var_write(&mut b, "assign", 7, x);
        let f = b.finish(vec![x], 0);
        let g = run(&f, "eliminate_dead_stores");
        assert_eq!(g.nodes.iter().filter(|n| n.op == "assign").count(), 2);
    }

    fn no_mul_evaluator(
        node: &Node,
        inputs: &[Arc<TensorData>],
    ) -> Result<Vec<TensorData>, String> {
        if node.op == "mul" {
            return Err("mul withheld so that only the identity rule can remove it".into());
        }
        toy_evaluator(node, inputs)
    }

    #[test]
    fn one_walk_reaches_the_local_fixpoint() {
        // x - ((2 * 1) - 2): the evaluator refuses `mul`, so 2*1 -> 2 is
        // the identity rule's; then 2-2 folds to 0; then x-0 -> x. Each
        // step needs the one before it, and each node is visited once.
        let mut b = GraphBuilder::new("f");
        let x = b.placeholder(DType::F32, known(&[2])).unwrap();
        let two = b.constant(Arc::new(TensorData::scalar(2.0f32))).unwrap();
        let one = b.constant(Arc::new(TensorData::scalar(1.0f32))).unwrap();
        let m = b.add_node("mul", vec![two, one], Attrs::new()).unwrap()[0];
        let d = b.add_node("sub", vec![m, two], Attrs::new()).unwrap()[0];
        let out = b.add_node("sub", vec![x, d], Attrs::new()).unwrap()[0];
        let f = b.finish(vec![out], 0);

        let (g, stats) =
            optimize_with_stats(&f, &OptimizeOptions::default(), Some(&no_mul_evaluator));
        assert!(stats.converged);
        assert_eq!(stats.sweeps, 1);
        assert_eq!(g.executable_node_count(), 0, "{}", g.dump());
        assert_eq!(g.node(g.outputs[0].node).op, "placeholder");
        assert_eq!(stats.rewrites_for("simplify_algebraic"), 2);
        assert_eq!(stats.rewrites_for("fold_constants"), 1);
        assert!(g.constants.is_empty(), "the pool holds what the graph uses");

        // Four families chained inside one replay: shape_of(x) is the
        // constant [1]; ([1] + [1]) - [1] folds, twice, to a [1] that is
        // the constant already there; x * [1] is x.
        let mut b = GraphBuilder::new("f");
        let x = b.placeholder(DType::I64, known(&[1])).unwrap();
        let k = b.constant(Arc::new(TensorData::from_vec(vec![1i64], [1]).unwrap())).unwrap();
        let s = b.add_node("shape_of", vec![x], Attrs::new()).unwrap()[0];
        let twice = b.add_node("add", vec![s, s], Attrs::new()).unwrap()[0];
        let once = b.add_node("sub", vec![twice, s], Attrs::new()).unwrap()[0];
        let y = b.add_node("mul", vec![x, once], Attrs::new()).unwrap()[0];
        let f = b.finish(vec![y, k], 0);
        let (g, stats) = optimize_with_stats(&f, &OptimizeOptions::default(), Some(&toy_evaluator));
        assert_eq!(stats.sweeps, 1);
        assert_eq!(g.node(g.outputs[0].node).op, "placeholder", "{}", g.dump());
        assert_eq!(g.executable_node_count(), 1, "only `k` is left\n{}", g.dump());
        assert_eq!(g.constants.len(), 1);
        assert_eq!(stats.rewrites_for("propagate_constants"), 1);
        assert_eq!(stats.rewrites_for("fold_constants"), 2);
        assert_eq!(stats.rewrites_for("simplify_algebraic"), 1);
        // shape_of's [1] and the folded [1] both are `k`; the [2] is new.
        assert_eq!(stats.rewrites_for("cse"), 2);
    }

    #[test]
    fn only_options_enable_a_single_pass() {
        let mut b = GraphBuilder::new("f");
        let x = b.placeholder(DType::F32, known(&[2])).unwrap();
        let a = b.add_node("relu", vec![x], Attrs::new()).unwrap()[0];
        let c = b.add_node("relu", vec![x], Attrs::new()).unwrap()[0];
        let out = b.add_node("add", vec![a, c], Attrs::new()).unwrap()[0];
        let _dead = b.add_node("exp", vec![x], Attrs::new()).unwrap();
        let f = b.finish(vec![out], 0);
        let pruned = optimize(&f, &OptimizeOptions::only("prune"), None);
        assert!(!pruned.nodes.iter().any(|n| n.op == "exp"));
        assert_eq!(pruned.nodes.iter().filter(|n| n.op == "relu").count(), 2);
        let deduped = optimize(&f, &OptimizeOptions::only("cse"), None);
        assert_eq!(deduped.nodes.iter().filter(|n| n.op == "relu").count(), 1);
    }

    #[test]
    fn fuse_hash_is_reproducible() {
        // A graph with several fusion groups and shared inputs; the fused
        // output must hash identically run after run.
        let mut b = GraphBuilder::new("f");
        let x = b.placeholder(DType::F32, known(&[4])).unwrap();
        let y = b.placeholder(DType::F32, known(&[4])).unwrap();
        let s = b.add_node("add", vec![x, y], Attrs::new()).unwrap()[0];
        let r = b.add_node("relu", vec![s], Attrs::new()).unwrap()[0];
        let e = b.add_node("exp", vec![y], Attrs::new()).unwrap()[0];
        let t = b.add_node("tanh", vec![e], Attrs::new()).unwrap()[0];
        let f = b.finish(vec![r, t], 0);
        let h0 = run(&f, "fuse_elementwise").structural_hash();
        for _ in 0..16 {
            assert_eq!(run(&f, "fuse_elementwise").structural_hash(), h0);
        }
    }
}
