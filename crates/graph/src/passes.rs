//! Graph optimization passes.
//!
//! These are the optimizations the paper attributes to staging (§4.1:
//! "inter-op parallelism and optimizations like constant-folding and buffer
//! reuse"; §5: "non-stateful operations that are not reachable from the
//! outputs of a function are pruned"). Fusion is the XLA stand-in (§4.4),
//! and it is the default lowering for every device, the real CPU included:
//! one pipeline, so a traced function is optimized the same way wherever it
//! is placed.
//!
//! The driver is a *fixpoint loop*: one sweep runs every enabled pass once,
//! the graph is fingerprinted with [`GraphFunction::structural_hash`], and
//! sweeps repeat until the hash stabilizes (or
//! [`OptimizeOptions::max_sweeps`] is hit). Iteration is what lets the
//! passes compound — an algebraic rewrite exposes a constant subgraph that
//! folds on the next sweep, folding exposes dead work for the pruner, and
//! so on. Every pass is monotone (it only removes or simplifies work), so
//! the loop cannot oscillate; the cap is a backstop, not a tuning knob.
//!
//! Elementwise fusion is deliberately *outside* the loop: it is a backend
//! lowering whose `fused_elementwise` programs are opaque to the scalar
//! passes, so it runs once after convergence.
//!
//! Passes take the graph by value and hand it back untouched when they
//! have nothing to rewrite, so the sweep that proves convergence — and
//! every pass that does not apply to a given function — copies nothing.

use crate::ir::{GraphFunction, Node, NodeId, TensorRef};
use crate::program::{Instr, Program};
use crate::sequencing::{classify, sequence_control_edges, Access, Resource};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use tfe_ops::algebra::{
    compose_perms, identity_operand, is_identity_perm, is_swap_perm, IdentitySide,
};
use tfe_ops::{AttrValue, Attrs, Op};
use tfe_tensor::{DType, Shape, TensorData};

/// Names of the seven pipeline passes, in sweep order (fusion last, outside
/// the fixpoint loop). These are the keys of [`OptimizeStats::rewrites`]
/// and the `pass` label values of `tfe_pass_pipeline_rewrites_total`.
pub const PASS_NAMES: [&str; 7] = [
    "propagate_constants",
    "fold_constants",
    "simplify_algebraic",
    "cse",
    "eliminate_dead_stores",
    "prune",
    "fuse_elementwise",
];

/// Options controlling [`optimize`].
#[derive(Debug, Clone)]
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
    /// Skip folding results larger than this many elements.
    pub fold_size_limit: usize,
    /// Upper bound on sweeps (at least 1 is always run; 1 means a single
    /// sweep, no iteration). The loop normally exits much earlier via the
    /// hash check.
    pub max_sweeps: usize,
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
            fold_size_limit: 65_536,
            max_sweeps: 8,
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
            fold_size_limit: 0,
            max_sweeps: 1,
        }
    }

    /// Exactly one named pass enabled (see [`PASS_NAMES`]), single sweep —
    /// the configuration the differential fuzz harness runs per-pass.
    ///
    /// # Panics
    /// Unknown pass name.
    pub fn only(pass: &str) -> OptimizeOptions {
        let mut o = OptimizeOptions {
            fold_size_limit: OptimizeOptions::default().fold_size_limit,
            ..OptimizeOptions::none()
        };
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

/// What one [`optimize_with_stats`] run did: how many sweeps the fixpoint
/// loop took, whether it actually converged (as opposed to hitting
/// [`OptimizeOptions::max_sweeps`]), and how many rewrites each pass
/// applied, keyed by [`PASS_NAMES`] entries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptimizeStats {
    /// Full sweeps executed (the last one is the no-change sweep that
    /// proves convergence).
    pub sweeps: u64,
    /// Whether the structural hash stabilized before the sweep cap.
    pub converged: bool,
    /// Rewrites per pass (absent key = zero).
    pub rewrites: BTreeMap<&'static str, u64>,
}

impl OptimizeStats {
    /// Rewrites applied by one pass (0 when the pass never fired).
    pub fn rewrites_for(&self, pass: &str) -> u64 {
        self.rewrites.get(pass).copied().unwrap_or(0)
    }

    /// Total rewrites across all passes.
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

/// Run the configured pass pipeline. See [`optimize_with_stats`] for the
/// variant that also reports sweep and rewrite counts.
pub fn optimize(
    f: &GraphFunction,
    options: &OptimizeOptions,
    evaluator: Option<&NodeEvaluator>,
) -> GraphFunction {
    optimize_with_stats(f, options, evaluator).0
}

/// Run the pass pipeline to a structural-hash fixpoint and report what
/// happened. Each sweep runs the enabled passes once in [`PASS_NAMES`]
/// order; sweeps repeat until the hash stops changing or `max_sweeps` is
/// reached. Elementwise fusion runs once after the loop (it is a lowering,
/// not a simplification — see the module docs).
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
    let mut stats = OptimizeStats::default();
    let mut g = f.clone();
    let cap = options.max_sweeps.max(1) as u64;
    // The hash after sweep k is the hash before sweep k + 1.
    let mut before = g.structural_hash();
    loop {
        g = sweep(g, options, evaluator, &mut stats);
        stats.sweeps += 1;
        tfe_metrics::static_counter!(
            "tfe_pass_pipeline_sweeps_total",
            "Optimizer pass-pipeline sweeps executed"
        )
        .inc();
        let after = g.structural_hash();
        if after == before {
            stats.converged = true;
            break;
        }
        before = after;
        if stats.sweeps >= cap {
            break;
        }
    }
    if !stats.converged {
        tfe_metrics::static_counter!(
            "tfe_pass_pipeline_capped_total",
            "Optimizer runs that hit the sweep cap before converging"
        )
        .inc();
    }
    if options.fuse_elementwise {
        let (h, n) = fuse_elementwise_counted(g);
        record(&mut stats, "fuse_elementwise", n);
        g = h;
    }
    (g, stats)
}

/// One full pass sweep, in [`PASS_NAMES`] order (minus fusion).
fn sweep(
    mut g: GraphFunction,
    options: &OptimizeOptions,
    evaluator: Option<&NodeEvaluator>,
    stats: &mut OptimizeStats,
) -> GraphFunction {
    if options.propagate_constants {
        let (h, n) = propagate_constants_counted(g);
        record(stats, "propagate_constants", n);
        g = h;
    }
    if options.fold_constants {
        if let Some(eval) = evaluator {
            let (h, n) = fold_constants_counted(g, eval, options.fold_size_limit);
            record(stats, "fold_constants", n);
            g = h;
        }
    }
    if options.algebraic_simplify {
        let (h, n) = simplify_algebraic_counted(g);
        record(stats, "simplify_algebraic", n);
        g = h;
    }
    if options.cse {
        let (h, n) = cse_counted(g);
        record(stats, "cse", n);
        g = h;
    }
    if options.dead_store_elim {
        let (h, n) = eliminate_dead_stores_counted(g);
        record(stats, "eliminate_dead_stores", n);
        g = h;
    }
    if options.prune {
        let (h, n) = prune_counted(g);
        record(stats, "prune", n);
        g = h;
    }
    g
}

/// Rebuild a function keeping only nodes in `keep` (which must be closed
/// under input dependencies), remapping references.
fn rebuild(f: &GraphFunction, keep: &[bool]) -> GraphFunction {
    let mut remap: HashMap<usize, usize> = HashMap::new();
    let mut nodes = Vec::new();
    for (i, node) in f.nodes.iter().enumerate() {
        if keep[i] {
            let mut n = node.clone();
            for input in &mut n.inputs {
                input.node = NodeId(remap[&input.node.0]);
            }
            // Control targets are stateful, which `keep` always retains.
            for ctrl in &mut n.control_inputs {
                *ctrl = NodeId(remap[&ctrl.0]);
            }
            remap.insert(i, nodes.len());
            nodes.push(n);
        }
    }
    let inputs = f.inputs.iter().map(|id| NodeId(remap[&id.0])).collect();
    let outputs = f
        .outputs
        .iter()
        .map(|t| TensorRef { node: NodeId(remap[&t.node.0]), output: t.output })
        .collect();
    GraphFunction {
        name: f.name.clone(),
        nodes,
        inputs,
        outputs,
        num_captures: f.num_captures,
        constants: f.constants.clone(),
    }
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
    let mut keep = vec![true; f.nodes.len()];
    for (id, _) in f.inputs.iter().zip(drop).filter(|(_, &d)| d) {
        keep[id.0] = false;
    }
    g.inputs.retain(|id| keep[id.0]);
    rebuild(&g, &keep)
}

/// Remove the stateful nodes flagged in `dead` (none of which may still be
/// consumed) and recompute the control edges for the surviving program
/// order — the back half of dead-store and redundant-load elimination.
fn drop_stateful(mut f: GraphFunction, dead: &[bool]) -> GraphFunction {
    // Old edges may name a dropped node; all are recomputed below.
    for n in &mut f.nodes {
        n.control_inputs.clear();
    }
    let keep: Vec<bool> = dead.iter().map(|d| !d).collect();
    let mut g = rebuild(&f, &keep);
    let ctrl = sequence_control_edges(&g.nodes);
    for (n, c) in g.nodes.iter_mut().zip(ctrl) {
        n.control_inputs = c;
    }
    g
}

/// Drop stateless nodes not reachable from the outputs (or from stateful
/// nodes). Placeholders always survive: they define the call signature.
pub fn prune(f: &GraphFunction) -> GraphFunction {
    prune_counted(f.clone()).0
}

fn prune_counted(f: GraphFunction) -> (GraphFunction, u64) {
    let mut keep = vec![false; f.nodes.len()];
    let mut stack: Vec<usize> = Vec::new();
    for t in &f.outputs {
        stack.push(t.node.0);
    }
    for (i, n) in f.nodes.iter().enumerate() {
        if n.stateful || n.op == Op::Placeholder {
            stack.push(i);
        }
    }
    while let Some(i) = stack.pop() {
        if keep[i] {
            continue;
        }
        keep[i] = true;
        for input in &f.nodes[i].inputs {
            stack.push(input.node.0);
        }
    }
    let dropped = keep.iter().filter(|&&k| !k).count() as u64;
    if dropped == 0 {
        return (f, 0);
    }
    (rebuild(&f, &keep), dropped)
}

/// What makes two stateless nodes the same computation. Compared through
/// the fields' own `Eq`/`Hash` — attribute floats by bits, constants by
/// their exact bytes — so nothing that differs in a bit can merge.
#[derive(PartialEq, Eq, Hash)]
enum CseKey<'a> {
    /// A small constant: dtype, shape and little-endian payload.
    Const(DType, &'a Shape, Vec<u8>),
    /// Any other op over inputs already rewritten to their representatives.
    Node(Op, Vec<TensorRef>, &'a Attrs),
}

fn const_key<'a>(f: &'a GraphFunction, node: &Node) -> Option<CseKey<'a>> {
    let idx = match node.attrs.get("value_index") {
        Some(AttrValue::Int(i)) => *i as usize,
        _ => return None,
    };
    let value = f.constants.get(idx)?;
    if value.num_elements() > 1024 {
        return None; // don't hash big constants
    }
    // The exact bytes, not `to_f64_vec`: integers beyond 2^53 that differ
    // must not share a key.
    Some(CseKey::Const(value.dtype(), value.shape(), value.to_le_bytes()))
}

/// Common-subexpression elimination: identical stateless nodes merge, and
/// so do redundant loads — a `read_variable` observes the same value as an
/// earlier read of the same variable when no write to it and no barrier
/// lies between them in program order (the forward twin of
/// [`eliminate_dead_stores`], over the same [`classify`] model). A merged
/// load is removed and the control edges are recomputed, so later writes
/// wait on the read that survives.
pub fn cse(f: &GraphFunction) -> GraphFunction {
    cse_counted(f.clone()).0
}

fn cse_counted(mut f: GraphFunction) -> (GraphFunction, u64) {
    let mut replacement: HashMap<usize, usize> = HashMap::new(); // old -> old
    let mut seen: HashMap<CseKey, usize> = HashMap::new();
    // Per variable, the read whose value is still current.
    let mut loads: HashMap<i64, usize> = HashMap::new();
    let mut merged_load = false;
    for (i, node) in f.nodes.iter().enumerate() {
        if node.op == Op::Placeholder {
            continue;
        }
        if node.stateful {
            match classify(node.op, &node.attrs, true) {
                Access::Barrier => loads.clear(),
                Access::Write(Resource::Var(v)) => {
                    loads.remove(&v);
                }
                Access::Read(Resource::Var(v)) if node.op == Op::ReadVariable => {
                    match loads.get(&v) {
                        Some(&first)
                            if f.nodes[first].attrs == node.attrs
                                && f.nodes[first].outputs == node.outputs =>
                        {
                            replacement.insert(i, first);
                            merged_load = true;
                        }
                        _ => {
                            loads.insert(v, i);
                        }
                    }
                }
                _ => {}
            }
            continue;
        }
        let key = if node.op == Op::Const {
            match const_key(&f, node) {
                Some(k) => k,
                None => continue,
            }
        } else {
            let root = |t: &TensorRef| TensorRef {
                node: NodeId(*replacement.get(&t.node.0).unwrap_or(&t.node.0)),
                output: t.output,
            };
            CseKey::Node(node.op, node.inputs.iter().map(root).collect(), &node.attrs)
        };
        match seen.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                replacement.insert(i, *e.get());
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(i);
            }
        }
    }
    if replacement.is_empty() {
        return (f, 0);
    }
    let merged = replacement.len() as u64;
    for node in &mut f.nodes {
        for input in &mut node.inputs {
            if let Some(&r) = replacement.get(&input.node.0) {
                input.node = NodeId(r);
            }
        }
    }
    for out in &mut f.outputs {
        if let Some(&r) = replacement.get(&out.node.0) {
            out.node = NodeId(r);
        }
    }
    if merged_load {
        // The pruner keeps every stateful node, so merged loads go here.
        let dead: Vec<bool> = (0..f.nodes.len())
            .map(|i| f.nodes[i].stateful && replacement.contains_key(&i))
            .collect();
        f = drop_stateful(f, &dead);
    }
    (prune_counted(f).0, merged)
}

/// Evaluate stateless nodes whose inputs are all constants, replacing their
/// outputs with `const` nodes.
pub fn fold_constants(
    f: &GraphFunction,
    evaluator: &NodeEvaluator,
    size_limit: usize,
) -> GraphFunction {
    fold_constants_counted(f.clone(), evaluator, size_limit).0
}

fn fold_constants_counted(
    f: GraphFunction,
    evaluator: &NodeEvaluator,
    size_limit: usize,
) -> (GraphFunction, u64) {
    // Map from (node, output) to the constant value it produces, if known.
    let mut known: HashMap<TensorRef, Arc<TensorData>> = HashMap::new();
    for (i, node) in f.nodes.iter().enumerate() {
        if node.op == Op::Const {
            if let Some(AttrValue::Int(idx)) = node.attrs.get("value_index") {
                known.insert(TensorRef::first(NodeId(i)), f.constants[*idx as usize].clone());
            }
            continue;
        }
        if node.stateful
            || matches!(
                node.op,
                Op::Placeholder | Op::Call | Op::Cond | Op::WhileLoop | Op::HostFunc | Op::Copy
            )
        {
            continue;
        }
        let inputs: Option<Vec<Arc<TensorData>>> =
            node.inputs.iter().map(|t| known.get(t).cloned()).collect();
        let Some(inputs) = inputs else { continue };
        if node.inputs.is_empty() && !matches!(node.op, Op::Fill | Op::Eye | Op::Range) {
            continue; // placeholders handled above; other 0-ary ops stateful
        }
        let Ok(values) = evaluator(node, &inputs) else { continue };
        if values.iter().any(|v| v.num_elements() > size_limit) {
            continue;
        }
        for (out, value) in values.into_iter().enumerate() {
            known.insert(TensorRef { node: NodeId(i), output: out }, Arc::new(value));
        }
    }
    materialize_known(f, &known)
}

/// Replace every non-`const` node all of whose outputs appear in `known`
/// with fresh `const` nodes, then prune. The shared back half of
/// [`fold_constants`] and [`propagate_constants`]; returns the rewritten
/// graph plus the number of nodes replaced (0 hands `f` back untouched).
fn materialize_known(
    f: GraphFunction,
    known: &HashMap<TensorRef, Arc<TensorData>>,
) -> (GraphFunction, u64) {
    let fully_known = |i: usize, node: &Node| {
        node.op != Op::Const
            && !node.outputs.is_empty()
            && (0..node.outputs.len())
                .all(|out| known.contains_key(&TensorRef { node: NodeId(i), output: out }))
    };
    if !f.nodes.iter().enumerate().any(|(i, n)| fully_known(i, n)) {
        return (f, 0);
    }
    let mut folded_nodes = 0u64;
    // Replace references to folded outputs (of non-const nodes) with fresh
    // const nodes, then prune. Appending the const nodes at the end would
    // break the "inputs reference earlier nodes" invariant for consumers in
    // between, so we instead rebuild the node list with const nodes
    // inserted at the folded node's position.
    let mut new_nodes: Vec<Node> = Vec::new();
    let mut remap: HashMap<TensorRef, TensorRef> = HashMap::new();
    let mut node_remap: HashMap<usize, usize> = HashMap::new();
    let mut constants = f.constants.clone();
    for (i, node) in f.nodes.iter().enumerate() {
        let folded: Vec<(usize, Arc<TensorData>)> = (0..node.outputs.len())
            .filter_map(|out| {
                known.get(&TensorRef { node: NodeId(i), output: out }).map(|v| (out, v.clone()))
            })
            .collect();
        if node.op != Op::Const && folded.len() == node.outputs.len() && !folded.is_empty() {
            // Fully folded: emit const nodes instead of the op.
            folded_nodes += 1;
            for (out, value) in folded {
                let dims: Vec<i64> = value.shape().dims().iter().map(|&d| d as i64).collect();
                let idx = constants.len();
                constants.push(value.clone());
                let sig = (value.dtype(), tfe_ops::SymShape::known(value.shape()));
                let cnode = Node {
                    op: Op::Const,
                    inputs: Vec::new(),
                    attrs: Attrs::new()
                        .with("dtype", value.dtype())
                        .with("shape", dims)
                        .with("value_index", idx as i64),
                    outputs: vec![sig],
                    stateful: false,
                    control_inputs: Vec::new(),
                };
                let new_id = NodeId(new_nodes.len());
                new_nodes.push(cnode);
                remap.insert(TensorRef { node: NodeId(i), output: out }, TensorRef::first(new_id));
            }
        } else {
            let mut n = node.clone();
            for input in &mut n.inputs {
                // Producers are earlier in the list, so remap is populated.
                *input = remap[input];
            }
            // Control targets are stateful and never folded, so they are
            // always present in node_remap.
            for ctrl in &mut n.control_inputs {
                *ctrl = NodeId(node_remap[&ctrl.0]);
            }
            let new_id = NodeId(new_nodes.len());
            node_remap.insert(i, new_id.0);
            for out in 0..n.outputs.len() {
                remap.insert(
                    TensorRef { node: NodeId(i), output: out },
                    TensorRef { node: new_id, output: out },
                );
            }
            new_nodes.push(n);
        }
    }
    let g = GraphFunction {
        inputs: f.inputs.iter().map(|id| remap[&TensorRef::first(*id)].node).collect(),
        outputs: f.outputs.iter().map(|t| remap[t]).collect(),
        name: f.name,
        nodes: new_nodes,
        num_captures: f.num_captures,
        constants,
    };
    (prune_counted(g).0, folded_nodes)
}

/// Fold tensor-metadata ops whose answer is already statically known from
/// the inferred signatures: `shape_of` and `size_of` when every dimension
/// of the input is known, `rank_of` always (rank is static in this IR).
/// The folded scalars then feed [`fold_constants`] on the next sweep —
/// this pass is the canonical reason the driver iterates.
pub fn propagate_constants(f: &GraphFunction) -> GraphFunction {
    propagate_constants_counted(f.clone()).0
}

fn propagate_constants_counted(f: GraphFunction) -> (GraphFunction, u64) {
    let mut known: HashMap<TensorRef, Arc<TensorData>> = HashMap::new();
    for (i, node) in f.nodes.iter().enumerate() {
        if node.stateful || node.inputs.len() != 1 {
            continue;
        }
        let (_, shape) = f.sig(node.inputs[0]);
        let value = match node.op {
            Op::ShapeOf => {
                let dims: Option<Vec<i64>> =
                    shape.dims().iter().map(|d| d.map(|x| x as i64)).collect();
                dims.and_then(|d| {
                    let rank = d.len();
                    TensorData::from_vec(d, Shape::from([rank])).ok()
                })
            }
            Op::RankOf => Some(TensorData::scalar(shape.rank() as i64)),
            Op::SizeOf => shape.num_elements().map(|n| TensorData::scalar(n as i64)),
            _ => None,
        };
        if let Some(v) = value {
            known.insert(TensorRef::first(NodeId(i)), Arc::new(v));
        }
    }
    materialize_known(f, &known)
}

/// Algebraic simplification: identity-element rewrites (`x + 0`, `x - 0`,
/// `x * 1`, `x / 1`, honoring commutativity via the op's
/// [`identity_operand`] table), `identity` bypass, double-transpose
/// composition/cancellation, and absorption of rank-2 transposes into
/// `matmul`'s `transpose_a`/`transpose_b` flags (the packed gemm handles
/// all four combinations natively).
///
/// Identity-element rewrites only fire when the surviving operand's
/// signature equals the node's output signature — a broadcast like
/// `mul(scalar_x, ones_of_shape_2)` changes shape and must stay.
/// `x * 0` is deliberately not rewritten: it is an annihilator, not an
/// identity, and folding it would change NaN/Inf propagation.
pub fn simplify_algebraic(f: &GraphFunction) -> GraphFunction {
    simplify_algebraic_counted(f.clone()).0
}

fn simplify_algebraic_counted(mut g: GraphFunction) -> (GraphFunction, u64) {
    fn resolve(redirect: &HashMap<TensorRef, TensorRef>, mut t: TensorRef) -> TensorRef {
        while let Some(&r) = redirect.get(&t) {
            t = r;
        }
        t
    }
    fn const_value(f: &GraphFunction, t: TensorRef) -> Option<Arc<TensorData>> {
        if t.output != 0 {
            return None;
        }
        let n = &f.nodes[t.node.0];
        if n.op != Op::Const {
            return None;
        }
        match n.attrs.get("value_index") {
            Some(AttrValue::Int(i)) => f.constants.get(*i as usize).cloned(),
            _ => None,
        }
    }
    fn is_uniform(v: &TensorData, c: f64) -> bool {
        if v.dtype() == DType::Bool || v.num_elements() == 0 || v.num_elements() > 4096 {
            return false;
        }
        v.to_f64_vec().iter().all(|&x| x == c)
    }
    fn perm_of(n: &Node) -> Option<Vec<i64>> {
        n.attrs.int_list("perm").ok().map(<[i64]>::to_vec)
    }

    let mut redirect: HashMap<TensorRef, TensorRef> = HashMap::new();
    let mut rewrites = 0u64;
    for i in 0..g.nodes.len() {
        // Rewire this node through every redirect recorded so far (its
        // producers all have smaller indices, so their redirects exist).
        let inputs: Vec<TensorRef> =
            g.nodes[i].inputs.iter().map(|&t| resolve(&redirect, t)).collect();
        g.nodes[i].inputs = inputs.clone();
        if g.nodes[i].stateful {
            continue;
        }
        let out = TensorRef::first(NodeId(i));
        match g.nodes[i].op {
            Op::Identity
                if inputs.len() == 1
                    && g.nodes[i].outputs.len() == 1
                    && g.sig(inputs[0]) == g.nodes[i].output_sig(0) =>
            {
                redirect.insert(out, inputs[0]);
                rewrites += 1;
            }
            Op::Transpose if inputs.len() == 1 && inputs[0].output == 0 => {
                let src = inputs[0].node.0;
                if g.nodes[src].op == Op::Transpose {
                    let composed = match (perm_of(&g.nodes[src]), perm_of(&g.nodes[i])) {
                        (Some(pi), Some(po)) => compose_perms(&pi, &po),
                        _ => None,
                    };
                    if let Some(q) = composed {
                        let inner_in = g.nodes[src].inputs[0];
                        if is_identity_perm(&q) {
                            redirect.insert(out, inner_in);
                        } else {
                            g.nodes[i].inputs[0] = inner_in;
                            g.nodes[i].attrs.set("perm", q);
                        }
                        rewrites += 1;
                    }
                }
            }
            Op::Matmul if inputs.len() == 2 => {
                for (slot, flag) in [(0usize, "transpose_a"), (1usize, "transpose_b")] {
                    let src = g.nodes[i].inputs[slot];
                    if src.output != 0 || g.nodes[src.node.0].op != Op::Transpose {
                        continue;
                    }
                    let Some(p) = perm_of(&g.nodes[src.node.0]) else { continue };
                    if !is_swap_perm(&p) {
                        continue;
                    }
                    let absorbed = g.nodes[src.node.0].inputs[0];
                    let cur = g.nodes[i].attrs.bool_or(flag, false).unwrap_or(false);
                    g.nodes[i].inputs[slot] = absorbed;
                    g.nodes[i].attrs.set(flag, !cur);
                    rewrites += 1;
                }
            }
            Op::Binary(op) => {
                let Some((side, ident)) = identity_operand(op) else { continue };
                if inputs.len() != 2 || g.nodes[i].outputs.len() != 1 {
                    continue;
                }
                let candidates: &[(usize, usize)] = match side {
                    IdentitySide::Either => &[(0, 1), (1, 0)],
                    IdentitySide::Rhs => &[(1, 0)],
                };
                for &(ci, xi) in candidates {
                    let Some(v) = const_value(&g, inputs[ci]) else { continue };
                    if !is_uniform(&v, ident) {
                        continue;
                    }
                    if g.sig(inputs[xi]) != g.nodes[i].output_sig(0) {
                        continue;
                    }
                    redirect.insert(out, inputs[xi]);
                    rewrites += 1;
                    break;
                }
            }
            _ => {}
        }
    }
    if rewrites == 0 {
        // Nothing was redirected, so the rewiring above changed nothing.
        return (g, 0);
    }
    let outs: Vec<TensorRef> = g.outputs.iter().map(|&t| resolve(&redirect, t)).collect();
    g.outputs = outs;
    // Bypassed nodes are now unreferenced; prune keeps the pass idempotent.
    (prune_counted(g).0, rewrites)
}

/// Dead-store elimination over the sequencing model: an `assign`/
/// `assign_add`/`assign_sub` is dead when a *later* plain `assign` to the
/// same variable overwrites it with no intervening read of that variable
/// and no intervening barrier. The final store to each variable always
/// survives — variables outlive the function, so its value is observable.
/// RNG and IO writes are never dropped. Control edges are recomputed for
/// the surviving program order, and the value chain that fed a dropped
/// store is left to the pruner (which this pass invokes).
pub fn eliminate_dead_stores(f: &GraphFunction) -> GraphFunction {
    eliminate_dead_stores_counted(f.clone()).0
}

fn eliminate_dead_stores_counted(f: GraphFunction) -> (GraphFunction, u64) {
    let mut dead = vec![false; f.nodes.len()];
    // Variables a later plain `assign` fully overwrites, with no read or
    // barrier in between (reverse program-order scan).
    let mut clobbered: HashSet<i64> = HashSet::new();
    for i in (0..f.nodes.len()).rev() {
        let n = &f.nodes[i];
        match classify(n.op, &n.attrs, n.stateful) {
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
    let count = dead.iter().filter(|&&d| d).count() as u64;
    if count == 0 {
        return (f, 0);
    }
    (prune_counted(drop_stateful(f, &dead)).0, count)
}

fn elementwise_kind(node: &Node) -> Option<()> {
    if node.outputs.len() != 1 {
        return None;
    }
    let dt = node.outputs[0].0;
    if dt == DType::Bool {
        return None;
    }
    match node.op {
        Op::Unary(_) if node.inputs.len() == 1 => Some(()),
        Op::Binary(_) if node.inputs.len() == 2 => Some(()),
        _ => None,
    }
}

/// Fuse maximal groups of elementwise nodes into `fused_elementwise` nodes.
///
/// A node joins its consumer's group when every consumer is the same group
/// and the node is not a function output — so each group has a single sink
/// whose value escapes.
///
/// Group assignment and emission use ordered (BTree) containers keyed by
/// node index, so the output node order — and therefore
/// [`GraphFunction::structural_hash`] — is a pure function of the input
/// graph. The fixpoint driver depends on that reproducibility.
pub fn fuse_elementwise(f: &GraphFunction) -> GraphFunction {
    fuse_elementwise_counted(f.clone()).0
}

fn fuse_elementwise_counted(f: GraphFunction) -> (GraphFunction, u64) {
    let consumers = f.consumers();
    let output_set: HashSet<TensorRef> = f.outputs.iter().copied().collect();
    let n = f.nodes.len();
    // group id per node (sink's node index).
    let mut group: Vec<Option<usize>> = vec![None; n];
    for i in (0..n).rev() {
        let node = &f.nodes[i];
        if elementwise_kind(node).is_none() {
            continue;
        }
        let out_ref = TensorRef::first(NodeId(i));
        let cons = consumers.get(&out_ref);
        let escapes = output_set.contains(&out_ref);
        let consumer_groups: Option<BTreeSet<usize>> = cons
            .map(|list| list.iter().filter_map(|(c, _)| group[c.0]).collect::<BTreeSet<usize>>());
        let all_consumers_one_group = match (&cons, &consumer_groups) {
            (Some(list), Some(gs)) if !list.is_empty() => {
                gs.len() == 1 && list.iter().all(|(c, _)| group[c.0].is_some())
            }
            _ => false,
        };
        if !escapes && all_consumers_one_group {
            group[i] = consumer_groups.and_then(|gs| gs.into_iter().next());
        } else {
            group[i] = Some(i); // start a group with this node as sink
        }
    }
    // Collect members per sink, in topological order.
    let mut members: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, g) in group.iter().enumerate() {
        if let Some(g) = g {
            members.entry(*g).or_default().push(i);
        }
    }
    // Only fuse groups with >= 2 members.
    let fuse_groups: BTreeMap<usize, Vec<usize>> =
        members.into_iter().filter(|(_, m)| m.len() >= 2).collect();
    if fuse_groups.is_empty() {
        return (f, 0);
    }
    let in_fused: BTreeSet<usize> = fuse_groups.values().flatten().copied().collect();

    let mut new_nodes: Vec<Node> = Vec::new();
    let mut remap: HashMap<TensorRef, TensorRef> = HashMap::new();
    let mut node_remap: HashMap<usize, usize> = HashMap::new();
    for (i, node) in f.nodes.iter().enumerate() {
        if in_fused.contains(&i) && !fuse_groups.contains_key(&i) {
            continue; // interior member: folded into its sink
        }
        if let Some(member_list) = fuse_groups.get(&i) {
            // Emit the fused node at the sink's position.
            let mut prog_inputs: Vec<TensorRef> = Vec::new(); // external, old refs
            let mut reg_of: HashMap<TensorRef, usize> = HashMap::new();
            let mut instrs: Vec<Instr> = Vec::new();
            for &m in member_list {
                let mnode = &f.nodes[m];
                let mut arg_regs = Vec::with_capacity(mnode.inputs.len());
                for &input in &mnode.inputs {
                    let reg = if let Some(&r) = reg_of.get(&input) {
                        r
                    } else if in_fused.contains(&input.node.0) && group[input.node.0] == Some(i) {
                        unreachable!("group member consumed before definition")
                    } else {
                        // external input
                        let k = prog_inputs.iter().position(|&p| p == input).unwrap_or_else(|| {
                            prog_inputs.push(input);
                            prog_inputs.len() - 1
                        });
                        let reg = instrs.len();
                        instrs.push(Instr::Input(k));
                        reg_of.insert(input, reg);
                        reg
                    };
                    arg_regs.push(reg);
                }
                let reg = instrs.len();
                instrs.push(match mnode.op {
                    Op::Unary(op) => Instr::Unary(op, arg_regs[0]),
                    Op::Binary(op) => Instr::Binary(op, arg_regs[0], arg_regs[1]),
                    _ => unreachable!("non-elementwise node in fusion group"),
                });
                reg_of.insert(TensorRef::first(NodeId(m)), reg);
            }
            let output_reg = reg_of[&TensorRef::first(NodeId(i))];
            // Compile at fusion time, from the program in hand, so the
            // first kernel invocation — and every one after — finds the
            // slot-planned form in the cache and the attribute string is
            // never parsed.
            let encoded = crate::program::intern(Program { instrs, output: output_reg });
            let sink = &f.nodes[i];
            let mapped_inputs: Vec<TensorRef> =
                prog_inputs.iter().map(|t| *remap.get(t).unwrap_or(t)).collect();
            let fused = Node {
                op: Op::FusedElementwise,
                inputs: mapped_inputs,
                attrs: Attrs::new().with("program", encoded).with("out_dtype", sink.outputs[0].0),
                outputs: sink.outputs.clone(),
                stateful: false,
                control_inputs: Vec::new(),
            };
            let new_id = NodeId(new_nodes.len());
            node_remap.insert(i, new_id.0);
            new_nodes.push(fused);
            remap.insert(TensorRef::first(NodeId(i)), TensorRef::first(new_id));
        } else {
            let mut nclone = node.clone();
            for input in &mut nclone.inputs {
                if let Some(&r) = remap.get(input) {
                    *input = r;
                }
            }
            // Control targets are stateful and never fused away.
            for ctrl in &mut nclone.control_inputs {
                *ctrl = NodeId(node_remap[&ctrl.0]);
            }
            let new_id = NodeId(new_nodes.len());
            node_remap.insert(i, new_id.0);
            for out in 0..nclone.outputs.len() {
                remap.insert(
                    TensorRef { node: NodeId(i), output: out },
                    TensorRef { node: new_id, output: out },
                );
            }
            new_nodes.push(nclone);
        }
    }
    let fused_count = fuse_groups.len() as u64;
    let g = GraphFunction {
        inputs: f.inputs.iter().map(|id| TensorRef::first(*id)).map(|t| remap[&t].node).collect(),
        outputs: f.outputs.iter().map(|t| remap[t]).collect(),
        name: f.name,
        nodes: new_nodes,
        num_captures: f.num_captures,
        constants: f.constants,
    };
    (g, fused_count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use tfe_ops::SymShape;
    use tfe_tensor::Shape;

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
        let g = cse(&f);
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
        let g = cse(&f);
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
        let g = cse(&f);
        assert_eq!(g.nodes.iter().filter(|n| n.op == "const").count(), 1);

        // Equal means equal bytes: these two i64s round to the same f64.
        let mut b = GraphBuilder::new("f");
        let c1 = b.constant(Arc::new(TensorData::scalar(9_007_199_254_740_993i64))).unwrap();
        let c2 = b.constant(Arc::new(TensorData::scalar(9_007_199_254_740_992i64))).unwrap();
        let out = b.add_node("sub", vec![c1, c2], Attrs::new()).unwrap()[0];
        let f = b.finish(vec![out], 0);
        let g = cse(&f);
        assert_eq!(g.nodes.iter().filter(|n| n.op == "const").count(), 2, "{}", g.dump());
        let mut same = f.clone();
        same.constants[0] = same.constants[1].clone();
        assert_ne!(f.structural_hash(), same.structural_hash());
    }

    #[test]
    fn cse_keeps_nodes_whose_attrs_differ_only_in_bits_or_type() {
        // `AttrValue` compares floats by bits and `Int(1)` is not
        // `Float(1.0)`, though both pairs print alike.
        let fill = |b: &mut GraphBuilder, value: tfe_ops::AttrValue| {
            let attrs = Attrs::new().with("dtype", DType::F32).with("shape", vec![2i64]);
            b.add_node("fill", vec![], attrs.with("value", value)).unwrap()[0]
        };
        let quiet_nan = f64::from_bits(0x7ff8_0000_0000_0000);
        let payload_nan = f64::from_bits(0x7ff8_0000_0000_0001);
        for (v1, v2) in [
            (tfe_ops::AttrValue::Float(quiet_nan), tfe_ops::AttrValue::Float(payload_nan)),
            (tfe_ops::AttrValue::Int(1), tfe_ops::AttrValue::Float(1.0)),
        ] {
            let mut b = GraphBuilder::new("f");
            let (a, c) = (fill(&mut b, v1.clone()), fill(&mut b, v2));
            let same = fill(&mut b, v1);
            let f = b.finish(vec![a, c, same], 0);
            let g = cse(&f);
            // The exact duplicate merges; the look-alike does not.
            assert_eq!(g.nodes.iter().filter(|n| n.op == "fill").count(), 2, "{}", g.dump());
            assert_eq!(g.outputs[0], g.outputs[2]);
            assert_ne!(g.outputs[0], g.outputs[1]);
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
        let g = fold_constants(&f, &toy_evaluator, 1024);
        // mul is gone; its value became a const.
        assert!(!g.nodes.iter().any(|n| n.op == "mul"));
        let add = g.nodes.iter().find(|n| n.op == "add").unwrap();
        let const_input = add.inputs[1];
        let cnode = g.node(const_input.node);
        assert_eq!(cnode.op, "const");
        let idx = match cnode.attrs.get("value_index") {
            Some(AttrValue::Int(i)) => *i as usize,
            _ => panic!("missing value_index"),
        };
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
        let g = fold_constants(&f, &toy_evaluator, 1024);
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
        let g = fuse_elementwise(&f);
        let fused: Vec<&Node> = g.nodes.iter().filter(|n| n.op == "fused_elementwise").collect();
        assert_eq!(fused.len(), 1);
        assert_eq!(fused[0].inputs.len(), 2);
        let program = Program::decode(match fused[0].attrs.get("program") {
            Some(AttrValue::Str(s)) => s,
            _ => panic!("missing program"),
        })
        .unwrap();
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
        let g = fuse_elementwise(&f);
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
        let g = fuse_elementwise(&f);
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
        let g = fuse_elementwise(&f);
        let fused = g.nodes.iter().find(|n| n.op == "fused_elementwise").unwrap();
        let program = Program::decode(match fused.attrs.get("program") {
            Some(AttrValue::Str(s)) => s,
            _ => panic!(),
        })
        .unwrap();
        let a = TensorData::from_vec(vec![1.0f32, 2.0, 3.0, -1.0], Shape::from([4])).unwrap();
        let c = TensorData::from_vec(vec![1.0f32, 1.0, 1.0, 1.0], Shape::from([4])).unwrap();
        let r = program.eval(&[&a, &c]).unwrap();
        assert_eq!(r.to_f64_vec(), vec![4.0, 9.0, 16.0, 0.0]);
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
        match n.attrs.get("value_index") {
            Some(AttrValue::Int(i)) => g.constants[*i as usize].to_f64_vec(),
            _ => panic!("const without value_index"),
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
        let g = propagate_constants(&f);
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
        let g = simplify_algebraic(&f);
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
        let g = simplify_algebraic(&f);
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
        let g = simplify_algebraic(&f);
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
        let g = simplify_algebraic(&f);
        assert!(!g.nodes.iter().any(|n| n.op == "transpose"));
        let mm = g.nodes.iter().find(|n| n.op == "matmul").unwrap();
        assert_eq!(mm.attrs.bool_or("transpose_a", false), Ok(true));
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
        let g = eliminate_dead_stores(&f);
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
        let g = eliminate_dead_stores(&f);
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
        let sig = tfe_ops::catalog::encode_sig(&[(DType::F32, SymShape::scalar())]);
        b.add_node(
            "host_func",
            vec![x],
            Attrs::new().with("fn_id", 0i64).with("out_dtypes", sig.0).with("out_shapes", sig.1),
        )
        .unwrap();
        var_write(&mut b, "assign", 7, x);
        let f = b.finish(vec![x], 0);
        let g = eliminate_dead_stores(&f);
        assert_eq!(g.nodes.iter().filter(|n| n.op == "assign").count(), 2);
    }

    fn no_mul_evaluator(
        node: &Node,
        inputs: &[Arc<TensorData>],
    ) -> Result<Vec<TensorData>, String> {
        if node.op == "mul" {
            return Err("mul withheld to force multi-sweep folding".into());
        }
        toy_evaluator(node, inputs)
    }

    #[test]
    fn fixpoint_compounds_across_sweeps() {
        // x + ((2 * 1) - 2): the evaluator refuses `mul`, so sweep 1 can
        // only simplify 2*1 -> 2 algebraically; sweep 2 folds 2-2 -> 0;
        // then x+0 -> x. A single sweep cannot finish this.
        let mut b = GraphBuilder::new("f");
        let x = b.placeholder(DType::F32, known(&[2])).unwrap();
        let two = b.constant(Arc::new(TensorData::scalar(2.0f32))).unwrap();
        let one = b.constant(Arc::new(TensorData::scalar(1.0f32))).unwrap();
        let m = b.add_node("mul", vec![two, one], Attrs::new()).unwrap()[0];
        let d = b.add_node("sub", vec![m, two], Attrs::new()).unwrap()[0];
        let out = b.add_node("add", vec![x, d], Attrs::new()).unwrap()[0];
        let f = b.finish(vec![out], 0);

        let single = OptimizeOptions { max_sweeps: 1, ..OptimizeOptions::default() };
        let (g1, s1) = optimize_with_stats(&f, &single, Some(&no_mul_evaluator));
        assert_eq!(s1.sweeps, 1);
        assert!(g1.executable_node_count() > 0, "one sweep must not finish");

        let (g, stats) =
            optimize_with_stats(&f, &OptimizeOptions::default(), Some(&no_mul_evaluator));
        assert!(stats.converged);
        assert_eq!(stats.sweeps, 3); // two productive sweeps + the proof sweep
        assert_eq!(g.executable_node_count(), 0);
        assert_eq!(g.node(g.outputs[0].node).op, "placeholder");
        assert_eq!(stats.rewrites_for("simplify_algebraic"), 2);
        assert_eq!(stats.rewrites_for("fold_constants"), 1);
        assert!(stats.total_rewrites() >= 3);
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
        let h0 = fuse_elementwise(&f).structural_hash();
        for _ in 0..16 {
            assert_eq!(fuse_elementwise(&f).structural_hash(), h0);
        }
    }
}
