//! The dataflow-graph intermediate representation.
//!
//! A [`GraphFunction`] is the paper's central staged artifact (§4.1, §4.6):
//! "a graph with named inputs and outputs, representing the exact
//! computation of interest".

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use tfe_ops::{Attrs, Op, SymShape};
use tfe_tensor::{DType, TensorData};

/// Index of a node within its graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// A reference to the `output`-th output of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TensorRef {
    /// Producing node.
    pub node: NodeId,
    /// Output index on that node.
    pub output: usize,
}

impl TensorRef {
    /// Output 0 of `node` — the overwhelmingly common case.
    pub fn first(node: NodeId) -> TensorRef {
        TensorRef { node, output: 0 }
    }
}

/// One operation instance in a graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// The operation. A name becomes an [`Op`] where the node is made
    /// ([`GraphBuilder::add_node`](crate::GraphBuilder::add_node),
    /// deserialization); printed forms use [`Op::name`].
    pub op: Op,
    /// Input tensors.
    pub inputs: Vec<TensorRef>,
    /// Static attributes.
    pub attrs: Attrs,
    /// Inferred output signature.
    pub outputs: Vec<(DType, SymShape)>,
    /// Whether this node has side effects (resolved at build time; `call`
    /// nodes take it from their `stateful` attribute).
    pub stateful: bool,
    /// Sequencing (control) edges: earlier stateful nodes that must finish
    /// before this node runs, beyond its data inputs. Always empty on
    /// stateless nodes; computed by the builder (see `sequencing`).
    pub control_inputs: Vec<NodeId>,
}

impl Node {
    /// dtype/shape of output `i`.
    ///
    /// # Panics
    /// `i` out of range.
    pub fn output_sig(&self, i: usize) -> (DType, SymShape) {
        (self.outputs[i].0, self.outputs[i].1.clone())
    }
}

/// A dataflow graph function: nodes plus named inputs and outputs.
#[derive(Clone)]
pub struct GraphFunction {
    /// Function name (unique within a [`FunctionLibrary`]).
    pub name: String,
    /// Nodes in topological (construction) order. Node `inputs` always
    /// reference earlier nodes.
    pub nodes: Vec<Node>,
    /// Input placeholders, in argument order. The last
    /// [`num_captures`](GraphFunction::num_captures) are lexically captured
    /// values appended by the tracer (§4.6 "Lexical closure").
    pub inputs: Vec<NodeId>,
    /// Output tensors.
    pub outputs: Vec<TensorRef>,
    /// How many trailing inputs are captures.
    pub num_captures: usize,
    /// Constant pool: `const` nodes hold an index into this vector (attr
    /// `value_index`).
    pub constants: Vec<Arc<TensorData>>,
}

impl GraphFunction {
    /// Whether any node is stateful (the function has side effects).
    pub fn is_stateful(&self) -> bool {
        self.nodes.iter().any(|n| n.stateful)
    }

    /// The node behind a [`NodeId`].
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Stable human-readable label for one node of the plan, e.g.
    /// `train_step__0/%3:matmul` — the name profiler timelines thread into
    /// their per-node spans.
    ///
    /// # Panics
    /// `id` out of range.
    pub fn node_label(&self, id: NodeId) -> String {
        format!("{}/%{}:{}", self.name, id.0, self.nodes[id.0].op)
    }

    /// dtype/shape of a tensor reference.
    pub fn sig(&self, t: TensorRef) -> (DType, SymShape) {
        self.node(t.node).output_sig(t.output)
    }

    /// Signature of the function's declared (non-capture) arguments.
    pub fn arg_sigs(&self) -> Vec<(DType, SymShape)> {
        self.inputs[..self.inputs.len() - self.num_captures]
            .iter()
            .map(|&id| self.node(id).output_sig(0))
            .collect()
    }

    /// Signature of the function outputs.
    pub fn output_sigs(&self) -> Vec<(DType, SymShape)> {
        self.outputs.iter().map(|&t| self.sig(t)).collect()
    }

    /// Number of op nodes that the dataflow executor would run (everything
    /// except placeholders).
    pub fn executable_node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.op != Op::Placeholder).count()
    }

    /// Names of callee functions referenced by `call`/`cond`/`while_loop`
    /// nodes (non-recursive).
    pub fn callee_names(&self) -> Vec<String> {
        let mut out = Vec::new();
        for n in &self.nodes {
            for key in ["function", "then_fn", "else_fn", "cond_fn", "body_fn"] {
                if let Some(tfe_ops::AttrValue::Str(s)) = n.attrs.get(key) {
                    if !out.contains(s) {
                        out.push(s.clone());
                    }
                }
            }
        }
        out
    }

    /// Consumers of every node output: map from (node, output) to the list
    /// of (consumer node, input index).
    pub fn consumers(&self) -> HashMap<TensorRef, Vec<(NodeId, usize)>> {
        let mut map: HashMap<TensorRef, Vec<(NodeId, usize)>> = HashMap::new();
        for (i, n) in self.nodes.iter().enumerate() {
            for (slot, &input) in n.inputs.iter().enumerate() {
                map.entry(input).or_default().push((NodeId(i), slot));
            }
        }
        map
    }

    /// Deduplicated predecessor nodes of `id`: the producers of its data
    /// inputs plus its control inputs. This is the dependency set the
    /// scheduler counts down before a node becomes ready.
    pub fn predecessors(&self, id: NodeId) -> Vec<NodeId> {
        let n = self.node(id);
        let mut preds: Vec<NodeId> = n.inputs.iter().map(|t| t.node).collect();
        preds.extend(n.control_inputs.iter().copied());
        preds.sort_unstable();
        preds.dedup();
        preds
    }

    /// A structural fingerprint of the whole function: ops, dataflow,
    /// attributes, signatures, control edges, outputs, and constant values.
    /// Two functions with equal hashes are (modulo collisions) the same
    /// graph: what the idempotence and reproducibility tests of the
    /// optimizer compare. Uses `DefaultHasher` with its fixed default keys,
    /// so the value is stable across processes.
    pub fn structural_hash(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.nodes.len().hash(&mut h);
        for n in &self.nodes {
            n.op.hash(&mut h);
            for t in &n.inputs {
                t.node.0.hash(&mut h);
                t.output.hash(&mut h);
            }
            n.attrs.hash(&mut h);
            n.outputs.hash(&mut h);
            n.stateful.hash(&mut h);
            for c in &n.control_inputs {
                c.0.hash(&mut h);
            }
        }
        for id in &self.inputs {
            id.0.hash(&mut h);
        }
        for t in &self.outputs {
            t.node.0.hash(&mut h);
            t.output.hash(&mut h);
        }
        self.num_captures.hash(&mut h);
        self.constants.len().hash(&mut h);
        for c in &self.constants {
            c.dtype().hash(&mut h);
            c.shape().dims().hash(&mut h);
            // A bounded prefix (plus dtype/shape/pool position above), so a
            // big weight is not rehashed whole. The exact bytes: integers
            // beyond 2^53 must not collide.
            let bytes = c.to_le_bytes();
            h.write(&bytes[..bytes.len().min(32 * 1024)]);
        }
        h.finish()
    }

    /// Render a compact, human-readable listing (one node per line) — the
    /// debugging view of Figure 2's graphs.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "function {}({} args, {} captures) -> {} outputs\n",
            self.name,
            self.inputs.len() - self.num_captures,
            self.num_captures,
            self.outputs.len()
        ));
        for (i, n) in self.nodes.iter().enumerate() {
            let ins: Vec<String> = n
                .inputs
                .iter()
                .map(|t| {
                    if t.output == 0 {
                        format!("%{}", t.node.0)
                    } else {
                        format!("%{}:{}", t.node.0, t.output)
                    }
                })
                .collect();
            let attrs = if n.attrs.is_empty() {
                String::new()
            } else {
                let parts: Vec<String> = n.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
                format!(" {{{}}}", parts.join(", "))
            };
            let ctrl = if n.control_inputs.is_empty() {
                String::new()
            } else {
                let deps: Vec<String> =
                    n.control_inputs.iter().map(|c| format!("^%{}", c.0)).collect();
                format!(" after [{}]", deps.join(", "))
            };
            let sig: Vec<String> = n.outputs.iter().map(|(d, s)| format!("{d}{s}")).collect();
            out.push_str(&format!(
                "  %{i} = {}({}){attrs}{ctrl} : [{}]\n",
                n.op,
                ins.join(", "),
                sig.join(", ")
            ));
        }
        let outs: Vec<String> = self.outputs.iter().map(|t| format!("%{}", t.node.0)).collect();
        out.push_str(&format!("  return {}\n", outs.join(", ")));
        out
    }

    /// Render the graph in Graphviz DOT format, for inspecting a suspicious
    /// concrete function (`dot -Tsvg`): one box per node labeled with its
    /// op and output signature, solid edges for dataflow (labeled with the
    /// output index when not 0), dashed edges for sequencing (control)
    /// dependencies, and double-drawn boxes for the function outputs.
    pub fn to_dot(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut out = String::new();
        out.push_str(&format!("digraph \"{}\" {{\n", esc(&self.name)));
        out.push_str("  rankdir=TB;\n  node [shape=box, fontsize=10];\n");
        let output_nodes: std::collections::HashSet<usize> =
            self.outputs.iter().map(|t| t.node.0).collect();
        for (i, n) in self.nodes.iter().enumerate() {
            let sig: Vec<String> = n.outputs.iter().map(|(d, s)| format!("{d}{s}")).collect();
            let label = format!("%{i} {}\\n{}", n.op, esc(&sig.join(", ")));
            let mut style = Vec::new();
            if n.op == Op::Placeholder {
                style.push("style=filled, fillcolor=lightblue");
            } else if n.stateful {
                style.push("style=filled, fillcolor=mistyrose");
            }
            if output_nodes.contains(&i) {
                style.push("peripheries=2");
            }
            let style =
                if style.is_empty() { String::new() } else { format!(", {}", style.join(", ")) };
            out.push_str(&format!("  n{i} [label=\"{label}\"{style}];\n"));
            for t in &n.inputs {
                if t.output == 0 {
                    out.push_str(&format!("  n{} -> n{i};\n", t.node.0));
                } else {
                    out.push_str(&format!("  n{} -> n{i} [label=\":{}\"];\n", t.node.0, t.output));
                }
            }
            for c in &n.control_inputs {
                out.push_str(&format!("  n{} -> n{i} [style=dashed];\n", c.0));
            }
        }
        out.push_str("}\n");
        out
    }
}

impl fmt::Debug for GraphFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GraphFunction({}, {} nodes, {} inputs, {} outputs)",
            self.name,
            self.nodes.len(),
            self.inputs.len(),
            self.outputs.len()
        )
    }
}

/// A shared library of graph functions, used to resolve `call` nodes.
///
/// §5 notes that function composition falls out of executing functions via
/// an operation; the library is the name→function mapping that operation
/// consults. It is also the unit serialized for deployment (§4.3).
///
/// The library is an index, not an owner: whoever inserts a function
/// decides how long it lives and takes it out again ([`remove`]
/// (FunctionLibrary::remove)) when it is done — a traced function when its
/// `ConcreteFunction` drops, a loaded bundle with its `LoadedFunction`. A
/// name stops resolving once its owner is gone. A function inserted by hand
/// and never removed has no owner and stays for the process.
#[derive(Default, Clone)]
pub struct FunctionLibrary {
    inner: Arc<parking_lot::RwLock<HashMap<String, Arc<GraphFunction>>>>,
}

impl FunctionLibrary {
    /// An empty library.
    pub fn new() -> FunctionLibrary {
        FunctionLibrary::default()
    }

    /// Insert (or replace) a function.
    pub fn insert(&self, f: GraphFunction) -> Arc<GraphFunction> {
        let f = Arc::new(f);
        self.inner.write().insert(f.name.clone(), f.clone());
        f
    }

    /// Look up by name.
    pub fn get(&self, name: &str) -> Option<Arc<GraphFunction>> {
        self.inner.read().get(name).cloned()
    }

    /// Take `f` out, if its name still resolves to it (a later `insert`
    /// under the same name is left alone). Returns whether it was there.
    pub fn remove(&self, f: &Arc<GraphFunction>) -> bool {
        let mut map = self.inner.write();
        let same = map.get(&f.name).is_some_and(|g| Arc::ptr_eq(g, f));
        // `f` is a second handle, so nothing is freed under the lock.
        same && map.remove(&f.name).is_some()
    }

    /// All registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }
}

impl fmt::Debug for FunctionLibrary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FunctionLibrary({:?})", self.names())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use tfe_tensor::Shape;

    fn simple_fn() -> GraphFunction {
        // f(a, b) = relu(a + b)
        let mut b = GraphBuilder::new("f");
        let x = b.placeholder(DType::F32, SymShape::known(&Shape::from([2]))).unwrap();
        let y = b.placeholder(DType::F32, SymShape::known(&Shape::from([2]))).unwrap();
        let s = b.add_node("add", vec![x, y], Attrs::new()).unwrap()[0];
        let r = b.add_node("relu", vec![s], Attrs::new()).unwrap()[0];
        b.finish(vec![r], 0)
    }

    #[test]
    fn signatures() {
        let f = simple_fn();
        assert_eq!(f.arg_sigs().len(), 2);
        assert_eq!(f.output_sigs().len(), 1);
        assert_eq!(f.output_sigs()[0].0, DType::F32);
        assert!(!f.is_stateful());
        assert_eq!(f.executable_node_count(), 2);
    }

    #[test]
    fn consumers_map() {
        let f = simple_fn();
        let consumers = f.consumers();
        // The add node output feeds relu.
        let add_ref = TensorRef::first(NodeId(2));
        assert_eq!(consumers.get(&add_ref).map(|v| v.len()), Some(1));
    }

    #[test]
    fn dump_is_readable() {
        let f = simple_fn();
        let d = f.dump();
        assert!(d.contains("function f(2 args, 0 captures) -> 1 outputs"));
        assert!(d.contains("add(%0, %1)"));
        assert!(d.contains("return %3"));
    }

    #[test]
    fn library_round_trip() {
        let lib = FunctionLibrary::new();
        assert!(lib.is_empty());
        lib.insert(simple_fn());
        assert_eq!(lib.len(), 1);
        assert!(lib.get("f").is_some());
        assert!(lib.get("g").is_none());
        assert_eq!(lib.names(), vec!["f".to_string()]);
        // Clones share contents.
        let lib2 = lib.clone();
        assert!(lib2.get("f").is_some());
    }

    #[test]
    fn remove_takes_out_only_what_the_name_still_resolves_to() {
        let lib = FunctionLibrary::new();
        let first = lib.insert(simple_fn());
        let second = lib.insert(simple_fn());
        assert!(!lib.remove(&first), "a replaced function is no longer in the library");
        assert_eq!(lib.len(), 1);
        assert!(lib.remove(&second));
        assert!(lib.get("f").is_none());
        assert!(!lib.remove(&second));
    }
}
