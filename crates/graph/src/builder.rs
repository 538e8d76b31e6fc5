//! Incremental graph construction — the object a tracing context writes
//! into while it executes a Python(-style) function in a graph-building
//! context (§4.1, §4.6) — and the one door a node goes through on its way
//! into a graph.
//!
//! There are two builders. [`GraphBuilder::new`] appends exactly what it is
//! given: it is the tracer's door, and the decoder's (a serialized graph is
//! replayed through it, see [`serial`](crate::serial)), and what it records
//! (`raw`) is what gradients are built from and what every differential
//! suite compares against. [`GraphBuilder::simplifying`] is the optimizer:
//! each node passes one rule function before it is appended — *smart
//! constructors* — so a graph replayed through it (see
//! [`passes`](crate::passes)) comes out locally simplified in one walk, with
//! no pass to run afterwards.
//!
//! The rules, in the order they are tried on a node whose inputs have
//! already been through them:
//!
//! 1. **Constant propagation.** `shape_of` / `size_of` over a fully known
//!    signature and `rank_of` over any become constants; so do `ones_like`
//!    / `zeros_like` over a fully known signature of at most
//!    [`FOLD_SIZE_LIMIT`] elements.
//! 2. **Constant folding.** A stateless node all of whose inputs are
//!    constants is evaluated (not `call`, `cond`, `while_loop`, `host_func`
//!    or `copy`; not when a result exceeds [`FOLD_SIZE_LIMIT`] elements).
//! 3. **Algebraic identities.** `x + 0`, `x - 0`, `x * 1`, `x / 1` and
//!    `identity` return `x` when that changes neither dtype nor shape;
//!    `transpose(transpose(x))` composes or cancels; a rank-2 transpose
//!    feeding `matmul` becomes its `transpose_a` / `transpose_b` flag.
//!    `x * 0` is not a rule: an annihilator changes NaN/Inf propagation.
//! 4. **Hash-consing.** What is left is looked up by value — `(Op, inputs,
//!    &Params)`, parameter floats by bits; a constant by dtype, shape and
//!    exact bytes — among the nodes already built, and an equal node stands
//!    in for it. A `read_variable` merges with an earlier read of the same
//!    variable when the [`SequencingState`] says no write to it and no
//!    barrier lies between them.
//!
//! Never merged: placeholders (they are the signature), stateful nodes
//! other than that redundant load (two `random_normal`s are two draws, two
//! `assign`s two effects), and so anything carrying sequencing edges.
//!
//! A rule may only return a reference to an existing output or adjust the
//! node in hand, and only so that every output keeps its dtype and shape:
//! consumers recorded against the old signature stay valid, which is what
//! lets a replay carry recorded signatures over instead of re-inferring.

use crate::ir::{GraphFunction, Node, NodeId, TensorRef};
use crate::passes::{NodeEvaluator, OptimizeOptions, FOLD_SIZE_LIMIT, PASS_NAMES};
use crate::sequencing::{self, Access, SequencingState};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use tfe_ops::algebra::{
    compose_perms, identity_operand, is_identity_perm, is_swap_perm, IdentitySide,
};
use tfe_ops::{Attrs, InferCtx, Op, OpError, Params, SymShape};
use tfe_tensor::{DType, Shape, TensorData};

/// Constants above this many elements are not hashed for merging.
const CONST_MERGE_LIMIT: usize = 1024;
/// Constants above this many elements are not scanned for an identity.
const IDENTITY_SCAN_LIMIT: usize = 4096;

/// The rule families, as indices into [`PASS_NAMES`] and [`Rules::rewrites`].
const PROPAGATE: usize = 0;
const FOLD: usize = 1;
const ALGEBRAIC: usize = 2;
const CSE: usize = 3;

/// Builds a [`GraphFunction`] node by node, running shape inference as it
/// goes (ops are validated at trace time, exactly as in TensorFlow Eager).
pub struct GraphBuilder<'e> {
    name: String,
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    constants: Vec<Arc<TensorData>>,
    sequencing: SequencingState,
    /// `None` in the plain builder, which applies no rule.
    rules: Option<Rules<'e>>,
}

/// What a simplifying builder carries beside the graph.
struct Rules<'e> {
    on: OptimizeOptions,
    evaluator: Option<&'e NodeEvaluator<'e>>,
    /// Hash-consing buckets: the hash of a node's value (see [`node_hash`],
    /// [`const_hash`]) to the nodes built so far that have it. A lookup
    /// compares against the stored node, so a collision costs a compare.
    seen: HashMap<u64, Vec<usize>>,
    /// Rewrites made, by rule family.
    rewrites: [u64; 4],
}

fn node_hash(node: &Node) -> u64 {
    let mut h = DefaultHasher::new();
    node.op.hash(&mut h);
    node.inputs.hash(&mut h);
    node.params.hash(&mut h);
    h.finish()
}

/// The exact bytes, not `to_f64_vec`: integers beyond 2^53 that differ, and
/// `0.0` and `-0.0`, must not share a constant.
fn const_hash(value: &TensorData, bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    Op::Const.hash(&mut h);
    value.dtype().hash(&mut h);
    value.shape().dims().hash(&mut h);
    h.write(bytes);
    h.finish()
}

/// Whether every element of `v` is `identity` exactly: the same bits in a
/// float (widening `f32` keeps them), the same value in an integer.
fn is_filled_with(v: &TensorData, identity: f64) -> bool {
    if v.dtype() == DType::Bool || v.num_elements() == 0 || v.num_elements() > IDENTITY_SCAN_LIMIT {
        return false;
    }
    let float = v.dtype().is_float();
    v.to_f64_vec()
        .iter()
        .all(|&x| if float { x.to_bits() == identity.to_bits() } else { x == identity })
}

fn perm_of(n: &Node) -> Option<&[usize]> {
    if let Params::Transpose { perm } = &n.params {
        Some(perm)
    } else {
        None
    }
}

impl<'e> GraphBuilder<'e> {
    /// Start a new function named `name`. This builder applies no rule:
    /// the graph it finishes is node for node what was added.
    pub fn new(name: &str) -> GraphBuilder<'e> {
        GraphBuilder {
            name: name.to_string(),
            nodes: Vec::new(),
            inputs: Vec::new(),
            constants: Vec::new(),
            sequencing: SequencingState::new(),
            rules: None,
        }
    }

    /// Start a new function whose nodes are simplified as they are added
    /// (the module docs give the rules). `options` selects the rule
    /// families; folding also needs an `evaluator`.
    pub fn simplifying(
        name: &str,
        evaluator: Option<&'e NodeEvaluator<'e>>,
        options: &OptimizeOptions,
    ) -> GraphBuilder<'e> {
        let rules = Rules { on: *options, evaluator, seen: HashMap::new(), rewrites: [0; 4] };
        GraphBuilder { rules: Some(rules), ..GraphBuilder::new(name) }
    }

    /// Rewrites made so far by each rule family of a simplifying builder,
    /// under its [`PASS_NAMES`] key.
    pub fn rewrites(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let counts = self.rules.as_ref().map_or([0; 4], |r| r.rewrites);
        PASS_NAMES.into_iter().zip(counts)
    }

    /// The function name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes so far.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Add an argument placeholder.
    ///
    /// # Errors
    /// Propagates inference errors (none in practice for placeholders).
    pub fn placeholder(&mut self, dtype: DType, shape: SymShape) -> Result<TensorRef, OpError> {
        Ok(self.add_op(Op::Placeholder, Vec::new(), Params::Placeholder { dtype, shape })?[0])
    }

    /// Intern a constant tensor and add a `const` node for it (in a
    /// simplifying builder, unless an equal constant is already there).
    ///
    /// # Errors
    /// None today; the signature predates that.
    pub fn constant(&mut self, value: Arc<TensorData>) -> Result<TensorRef, OpError> {
        Ok(self.intern(value))
    }

    pub(crate) fn intern(&mut self, value: Arc<TensorData>) -> TensorRef {
        let mut key = None;
        let merging = self.rules.as_ref().is_some_and(|r| r.on.cse);
        if merging && value.num_elements() <= CONST_MERGE_LIMIT {
            let bytes = value.to_le_bytes();
            let hash = const_hash(&value, &bytes);
            let same = |n: &Node| {
                self.const_value(n).is_some_and(|v| {
                    v.dtype() == value.dtype()
                        && v.shape() == value.shape()
                        && (Arc::ptr_eq(v, &value) || v.to_le_bytes() == bytes)
                })
            };
            if let Some(existing) = self.find(hash, same) {
                self.count(CSE, 1);
                return TensorRef::first(NodeId(existing));
            }
            key = Some(hash);
        }
        let params = Params::Const {
            dtype: value.dtype(),
            shape: value.shape().dims().to_vec(),
            index: self.constants.len(),
        };
        let outputs = vec![(value.dtype(), SymShape::known(value.shape()))];
        self.constants.push(value);
        let node = Node {
            op: Op::Const,
            inputs: Vec::new(),
            params,
            outputs,
            stateful: false,
            control_inputs: Vec::new(),
        };
        self.push(node, key)[0]
    }

    /// [`add_op`](GraphBuilder::add_op) for an op given by name and
    /// attributes — one of the places a name becomes an [`Op`] and its
    /// attributes become [`Params`].
    ///
    /// # Errors
    /// [`OpError::UnknownOp`], what [`Params::decode`] refuses, or what
    /// `add_op` reports.
    pub fn add_node(
        &mut self,
        op: &str,
        inputs: Vec<TensorRef>,
        attrs: Attrs,
    ) -> Result<Vec<TensorRef>, OpError> {
        let op = Op::from_name(op)?;
        self.add_op(op, inputs, Params::decode(op, &attrs)?)
    }

    /// Append an op node; returns references to its outputs — in a
    /// simplifying builder, possibly those of a node already there.
    ///
    /// # Errors
    /// Arity violations or shape-inference failures — i.e. the same errors
    /// eager execution would raise, surfaced at trace time.
    pub fn add_op(
        &mut self,
        op: Op,
        inputs: Vec<TensorRef>,
        params: Params,
    ) -> Result<Vec<TensorRef>, OpError> {
        let mut dtypes = Vec::with_capacity(inputs.len());
        let mut shapes = Vec::with_capacity(inputs.len());
        for t in &inputs {
            let node = self
                .nodes
                .get(t.node.0)
                .ok_or_else(|| OpError::Invalid(format!("dangling input {:?}", t)))?;
            let (d, s) = node
                .outputs
                .get(t.output)
                .cloned()
                .ok_or_else(|| OpError::Invalid(format!("bad output index {:?}", t)))?;
            dtypes.push(d);
            shapes.push(s);
        }
        let outputs = op.infer(&InferCtx { dtypes: &dtypes, shapes: &shapes, params: &params })?;
        // `call`-like nodes carry statefulness in their parameters, set by
        // the tracer from the callee's own statefulness.
        let stateful = op.def().is_stateful() || params.is_stateful();
        Ok(self.append(Node { op, inputs, params, outputs, stateful, control_inputs: Vec::new() }))
    }

    /// Add a node whose output signature and statefulness are already known
    /// — `add_op` after inference, or a replay handing over a recorded node
    /// with its inputs rewired into this graph — through the rules, if this
    /// builder has any. Sequencing edges are computed here, never taken.
    pub(crate) fn append(&mut self, mut node: Node) -> Vec<TensorRef> {
        let mut key = None;
        // Placeholders are the signature; a `const` is merged by `intern`.
        if self.rules.is_some() && !matches!(node.op, Op::Placeholder | Op::Const) {
            if let Some(refs) = self.simplify(&mut node) {
                return refs;
            }
            if !node.stateful && self.rules.as_ref().is_some_and(|r| r.on.cse) {
                let hash = node_hash(&node);
                let same = |n: &Node| {
                    n.op == node.op && n.inputs == node.inputs && n.params == node.params
                };
                if let Some(existing) = self.find(hash, same) {
                    self.count(CSE, 1);
                    return self.outputs_of(existing);
                }
                key = Some(hash);
            }
        }
        self.push(node, key)
    }

    /// Append `node` as it is, registered under `key` for later lookups.
    fn push(&mut self, mut node: Node, key: Option<u64>) -> Vec<TensorRef> {
        let id = NodeId(self.nodes.len());
        // Sequencing edges keep stateful ops in program order (per
        // resource) so the parallel executor never needs a serial fallback.
        let access = sequencing::classify(node.op, &node.params, node.stateful);
        node.control_inputs = if access == Access::Pure {
            Vec::new()
        } else {
            let data_inputs: Vec<NodeId> = node.inputs.iter().map(|t| t.node).collect();
            self.sequencing.sequence(id, access, &data_inputs)
        };
        if node.op == Op::Placeholder {
            self.inputs.push(id);
        }
        if let (Some(key), Some(rules)) = (key, &mut self.rules) {
            rules.seen.entry(key).or_default().push(id.0);
        }
        self.nodes.push(node);
        self.outputs_of(id.0)
    }

    fn outputs_of(&self, node: usize) -> Vec<TensorRef> {
        let n_out = self.nodes[node].outputs.len();
        (0..n_out).map(|output| TensorRef { node: NodeId(node), output }).collect()
    }

    /// The first node registered under `hash` that `same` accepts.
    fn find(&self, hash: u64, same: impl Fn(&Node) -> bool) -> Option<usize> {
        let bucket = self.rules.as_ref()?.seen.get(&hash)?;
        bucket.iter().copied().find(|&i| same(&self.nodes[i]))
    }

    fn count(&mut self, family: usize, rewrites: u64) {
        if let Some(rules) = &mut self.rules {
            rules.rewrites[family] += rewrites;
        }
    }

    /// The value of a `const` node of this graph.
    fn const_value(&self, node: &Node) -> Option<&Arc<TensorData>> {
        let Params::Const { index, .. } = node.params else { return None };
        self.constants.get(index)
    }

    fn sig_is(&self, t: TensorRef, sig: &(DType, SymShape)) -> bool {
        self.nodes[t.node.0].outputs[t.output] == *sig
    }

    /// Rules 1–3 on a node about to be appended, its inputs already in this
    /// graph. `Some(refs)` stands for the node's outputs and nothing is
    /// appended; `None` leaves `node`, possibly adjusted, to be hash-consed.
    fn simplify(&mut self, node: &mut Node) -> Option<Vec<TensorRef>> {
        let rules = self.rules.as_ref()?;
        let (on, evaluator) = (rules.on, rules.evaluator);
        if node.stateful {
            // A load observes what an earlier load of the same variable
            // did when no write to it and no barrier came since.
            let Access::Read(var) = sequencing::classify(node.op, &node.params, true) else {
                return None;
            };
            if !on.cse {
                return None;
            }
            let same = |id: &&NodeId| {
                let n = &self.nodes[id.0];
                n.params == node.params && n.outputs == node.outputs
            };
            let earlier = *self.sequencing.reads_since_write(var).iter().find(same)?;
            self.count(CSE, 1);
            return Some(vec![TensorRef::first(earlier)]);
        }
        if on.propagate_constants {
            if let Some(value) = self.static_metadata(node) {
                self.count(PROPAGATE, 1);
                return Some(vec![self.intern(Arc::new(value))]);
            }
        }
        if let (true, Some(evaluator)) = (on.fold_constants, evaluator) {
            if let Some(values) = self.fold(node, evaluator) {
                self.count(FOLD, 1);
                return Some(values.into_iter().map(|v| self.intern(Arc::new(v))).collect());
            }
        }
        if on.algebraic_simplify {
            let (applied, bypass) = self.algebraic(node);
            self.count(ALGEBRAIC, applied);
            return bypass.map(|t| vec![t]);
        }
        None
    }

    /// Tensor-metadata ops whose answer the input's signature already holds,
    /// and `ones_like` / `zeros_like` over a fully known one (no larger than
    /// a fold may be).
    fn static_metadata(&self, node: &Node) -> Option<TensorData> {
        let [input] = node.inputs[..] else { return None };
        let (dtype, shape) = &self.nodes[input.node.0].outputs[input.output];
        match node.op {
            Op::OnesLike | Op::ZerosLike => {
                let shape = shape.to_shape().filter(|s| s.num_elements() <= FOLD_SIZE_LIMIT)?;
                Some(if node.op == Op::OnesLike {
                    TensorData::ones(*dtype, shape)
                } else {
                    TensorData::zeros(*dtype, shape)
                })
            }
            Op::ShapeOf => {
                let dims: Vec<i64> =
                    shape.dims().iter().map(|d| d.map(|x| x as i64)).collect::<Option<_>>()?;
                let rank = dims.len();
                TensorData::from_vec(dims, Shape::from([rank])).ok()
            }
            Op::RankOf => Some(TensorData::scalar(shape.rank() as i64)),
            Op::SizeOf => shape.num_elements().map(|n| TensorData::scalar(n as i64)),
            _ => None,
        }
    }

    /// Evaluate a stateless node over constant inputs. `None` when an input
    /// is not a constant, the op is not one to run at build time, the
    /// evaluator declines, or a result is too large to keep.
    fn fold(&self, node: &Node, evaluator: &NodeEvaluator) -> Option<Vec<TensorData>> {
        if matches!(node.op, Op::Call | Op::Cond | Op::WhileLoop | Op::HostFunc | Op::Copy) {
            return None;
        }
        // Other 0-ary ops are stateful (or placeholders and constants).
        if node.inputs.is_empty() && !matches!(node.op, Op::Fill | Op::Eye | Op::Range) {
            return None;
        }
        let constant = |t: &TensorRef| {
            // A `const` has one output, so `t.output` is 0.
            self.const_value(&self.nodes[t.node.0]).cloned()
        };
        let inputs: Vec<Arc<TensorData>> =
            node.inputs.iter().map(constant).collect::<Option<_>>()?;
        let values = evaluator(node, &inputs).ok()?;
        let kept = values.len() == node.outputs.len()
            && !values.is_empty()
            && values.iter().all(|v| v.num_elements() <= FOLD_SIZE_LIMIT);
        kept.then_some(values)
    }

    /// The algebraic identities. Returns how many it applied and, when the
    /// node reduces to an existing tensor, that tensor; otherwise `node` has
    /// been adjusted in place (or left alone).
    fn algebraic(&self, node: &mut Node) -> (u64, Option<TensorRef>) {
        let producer = |t: TensorRef| &self.nodes[t.node.0];
        match node.op {
            Op::Identity
                if node.inputs.len() == 1
                    && node.outputs.len() == 1
                    && self.sig_is(node.inputs[0], &node.outputs[0]) =>
            {
                (1, Some(node.inputs[0]))
            }
            Op::Transpose if node.inputs.len() == 1 && node.inputs[0].output == 0 => {
                let inner = producer(node.inputs[0]);
                if inner.op != Op::Transpose {
                    return (0, None);
                }
                let composed = match (perm_of(inner), perm_of(node)) {
                    (Some(pi), Some(po)) => compose_perms(pi, po),
                    _ => None,
                };
                let Some(q) = composed else { return (0, None) };
                if is_identity_perm(&q) {
                    return (1, Some(inner.inputs[0]));
                }
                node.inputs[0] = inner.inputs[0];
                node.params = Params::Transpose { perm: q };
                (1, None)
            }
            Op::Matmul if node.inputs.len() == 2 => {
                let Params::Matmul { transpose_a, transpose_b } = &mut node.params else {
                    return (0, None);
                };
                let mut absorbed = 0;
                for (slot, flag) in [(0usize, transpose_a), (1usize, transpose_b)] {
                    let src = node.inputs[slot];
                    let t = producer(src);
                    if src.output != 0 || t.op != Op::Transpose {
                        continue;
                    }
                    if !perm_of(t).is_some_and(is_swap_perm) {
                        continue;
                    }
                    node.inputs[slot] = t.inputs[0];
                    *flag = !*flag;
                    absorbed += 1;
                }
                (absorbed, None)
            }
            Op::Binary(op) if node.inputs.len() == 2 && node.outputs.len() == 1 => {
                let Some((side, identity)) = identity_operand(op) else { return (0, None) };
                let candidates: &[(usize, usize)] = match side {
                    IdentitySide::Either => &[(0, 1), (1, 0)],
                    IdentitySide::Rhs => &[(1, 0)],
                };
                for &(ci, xi) in candidates {
                    let c = node.inputs[ci];
                    // Only a surviving operand of the node's own signature:
                    // `mul(scalar_x, ones[2])` broadcasts and must stay.
                    if self.const_value(producer(c)).is_some_and(|v| is_filled_with(v, identity))
                        && self.sig_is(node.inputs[xi], &node.outputs[0])
                    {
                        return (1, Some(node.inputs[xi]));
                    }
                }
                (0, None)
            }
            _ => (0, None),
        }
    }

    /// dtype/shape of an existing tensor reference.
    ///
    /// # Panics
    /// Dangling reference.
    pub fn sig(&self, t: TensorRef) -> (DType, SymShape) {
        self.nodes[t.node.0].output_sig(t.output)
    }

    /// Finalize into a [`GraphFunction`], declaring `outputs`. The last
    /// `num_captures` placeholders are marked as captured inputs.
    pub fn finish(self, outputs: Vec<TensorRef>, num_captures: usize) -> GraphFunction {
        assert!(
            num_captures <= self.inputs.len(),
            "num_captures {} exceeds input count {}",
            num_captures,
            self.inputs.len()
        );
        GraphFunction {
            name: self.name,
            nodes: self.nodes,
            inputs: self.inputs,
            outputs,
            num_captures,
            constants: self.constants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfe_tensor::Shape;

    #[test]
    fn build_and_infer() {
        let mut b = GraphBuilder::new("t");
        let x = b.placeholder(DType::F32, SymShape::known(&Shape::from([4]))).unwrap();
        let y = b.constant(Arc::new(TensorData::scalar(2.0f32))).unwrap();
        let m = b.add_node("mul", vec![x, y], Attrs::new()).unwrap()[0];
        assert_eq!(b.sig(m).0, DType::F32);
        assert_eq!(b.sig(m).1, SymShape::known(&Shape::from([4])));
        let f = b.finish(vec![m], 0);
        assert_eq!(f.inputs.len(), 1);
        assert_eq!(f.constants.len(), 1);
        assert_eq!(f.outputs.len(), 1);
    }

    #[test]
    fn trace_time_errors() {
        let mut b = GraphBuilder::new("t");
        let x = b.placeholder(DType::F32, SymShape::known(&Shape::from([4]))).unwrap();
        let y = b.placeholder(DType::I32, SymShape::known(&Shape::from([4]))).unwrap();
        // dtype mismatch caught during tracing
        assert!(b.add_node("add", vec![x, y], Attrs::new()).is_err());
        // unknown op: a typed error, never a panic
        assert_eq!(
            b.add_node("nope", vec![x], Attrs::new()),
            Err(OpError::UnknownOp("nope".to_string()))
        );
        // dangling ref
        let dangling = TensorRef::first(NodeId(99));
        assert!(b.add_node("relu", vec![dangling], Attrs::new()).is_err());
    }

    #[test]
    fn multi_output_nodes() {
        let mut b = GraphBuilder::new("t");
        let x = b.placeholder(DType::F32, SymShape::known(&Shape::from([2, 6]))).unwrap();
        let parts = b
            .add_node("split", vec![x], Attrs::new().with("num", 3i64).with("axis", 1i64))
            .unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[2].output, 2);
        assert_eq!(b.sig(parts[1]).1, SymShape::known(&Shape::from([2, 2])));
    }

    #[test]
    fn unknown_batch_flows_through() {
        let mut b = GraphBuilder::new("t");
        let x = b.placeholder(DType::F32, SymShape::new(vec![None, Some(3)])).unwrap();
        let w = b.placeholder(DType::F32, SymShape::known(&Shape::from([3, 5]))).unwrap();
        let y = b.add_node("matmul", vec![x, w], Attrs::new()).unwrap()[0];
        assert_eq!(b.sig(y).1, SymShape::new(vec![None, Some(5)]));
    }

    #[test]
    fn simplifying_builder_returns_what_is_already_there() {
        let on = OptimizeOptions::default();
        let mut b = GraphBuilder::simplifying("t", None, &on);
        let x = b.placeholder(DType::F32, SymShape::known(&Shape::from([4]))).unwrap();
        let y = b.placeholder(DType::F32, SymShape::known(&Shape::from([4]))).unwrap();
        assert_ne!(x, y, "placeholders are the signature");
        let one = b.constant(Arc::new(TensorData::scalar(1.0f32))).unwrap();
        assert_eq!(b.constant(Arc::new(TensorData::scalar(1.0f32))).unwrap(), one);
        assert_ne!(b.constant(Arc::new(TensorData::scalar(1.0f64))).unwrap(), one);
        // An identity is its operand, a repeated node the first of its kind.
        assert_eq!(b.add_node("mul", vec![one, x], Attrs::new()).unwrap(), vec![x]);
        let r = b.add_node("relu", vec![x], Attrs::new()).unwrap();
        assert_eq!(b.add_node("relu", vec![x], Attrs::new()).unwrap(), r);
        assert_ne!(b.add_node("relu", vec![y], Attrs::new()).unwrap(), r);
        // Metadata over a static signature is a constant.
        let rank = b.add_node("rank_of", vec![x], Attrs::new()).unwrap()[0];
        assert_eq!(b.nodes[rank.node.0].op, Op::Const);

        // Loads merge until something may have written; draws never do.
        let read = |b: &mut GraphBuilder| {
            let attrs = Attrs::new()
                .with("var_id", 7i64)
                .with("dtype", DType::F32)
                .with("shape", vec![4i64]);
            b.add_node("read_variable", vec![], attrs).unwrap()[0]
        };
        let first = read(&mut b);
        assert_eq!(read(&mut b), first);
        b.add_node("assign", vec![x], Attrs::new().with("var_id", 7i64)).unwrap();
        let after = read(&mut b);
        assert_ne!(after, first);
        assert_eq!(b.nodes[after.node.0].control_inputs.len(), 1, "waits on the assign");
        let draw = |b: &mut GraphBuilder| {
            let attrs = Attrs::new().with("dtype", DType::F32).with("shape", vec![4i64]);
            b.add_node("random_normal", vec![], attrs).unwrap()[0]
        };
        assert_ne!(draw(&mut b), draw(&mut b));

        let counts: Vec<(&str, u64)> = b.rewrites().collect();
        assert_eq!(
            counts,
            [
                ("propagate_constants", 1),
                ("fold_constants", 0),
                ("simplify_algebraic", 1),
                ("cse", 3)
            ]
        );
        let f = b.finish(vec![r[0], after], 0);
        assert_eq!(f.inputs.len(), 2);
        assert_eq!(f.constants.len(), f.nodes.iter().filter(|n| n.op == Op::Const).count());
    }

    #[test]
    fn ones_and_zeros_like_over_a_static_shape_are_constants() {
        let on = OptimizeOptions::default();
        let mut b = GraphBuilder::simplifying("t", None, &on);
        let x = b.placeholder(DType::F32, SymShape::known(&Shape::from([64, 2]))).unwrap();
        let dynamic = b.placeholder(DType::F32, SymShape::new(vec![None, Some(2)])).unwrap();
        let big = Shape::from([FOLD_SIZE_LIMIT + 1]);
        let big = b.placeholder(DType::I32, SymShape::known(&big)).unwrap();
        let ones = b.add_node("ones_like", vec![x], Attrs::new()).unwrap()[0];
        let zeros = b.add_node("zeros_like", vec![x], Attrs::new()).unwrap()[0];
        for (t, want) in [
            (ones, TensorData::ones(DType::F32, [64, 2])),
            (zeros, TensorData::zeros(DType::F32, [64, 2])),
        ] {
            let value = b.const_value(&b.nodes[t.node.0]).expect("a constant");
            assert_eq!(value.to_le_bytes(), want.to_le_bytes());
        }
        // `x * ones_like(x)` is then `x`.
        assert_eq!(b.add_node("mul", vec![x, ones], Attrs::new()).unwrap(), vec![x]);
        for input in [dynamic, big] {
            let t = b.add_node("ones_like", vec![input], Attrs::new()).unwrap()[0];
            assert_eq!(b.nodes[t.node.0].op, Op::OnesLike);
        }
        assert_eq!(b.rewrites().next(), Some(("propagate_constants", 2)));
    }

    #[test]
    fn stateful_attr_propagates() {
        let g = Arc::new(GraphBuilder::new("g").finish(Vec::new(), 0));
        let mut b = GraphBuilder::new("t");
        let (d, s) = tfe_ops::encode_sig(&[(DType::F32, SymShape::scalar())]);
        let refs = b
            .add_node(
                "call",
                vec![],
                Attrs::new()
                    .with("function", g.handle())
                    .with("stateful", true)
                    .with("out_dtypes", d)
                    .with("out_shapes", s),
            )
            .unwrap();
        let f = b.finish(vec![refs[0]], 0);
        assert!(f.is_stateful());
        let callees = f.callees();
        assert!(callees.len() == 1 && Arc::ptr_eq(&callees[0], &g));
    }
}
