//! Incremental graph construction — the object a tracing context writes
//! into while it executes a Python(-style) function in a graph-building
//! context (§4.1, §4.6).

use crate::ir::{GraphFunction, Node, NodeId, TensorRef};
use crate::sequencing::{self, SequencingState};
use std::sync::Arc;
use tfe_ops::{AttrValue, Attrs, InferCtx, Op, OpError, SymShape};
use tfe_tensor::{DType, TensorData};

/// Builds a [`GraphFunction`] node by node, running shape inference as it
/// goes (ops are validated at trace time, exactly as in TensorFlow Eager).
#[derive(Debug)]
pub struct GraphBuilder {
    name: String,
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    constants: Vec<Arc<TensorData>>,
    sequencing: SequencingState,
}

impl GraphBuilder {
    /// Start a new function named `name`.
    pub fn new(name: &str) -> GraphBuilder {
        GraphBuilder {
            name: name.to_string(),
            nodes: Vec::new(),
            inputs: Vec::new(),
            constants: Vec::new(),
            sequencing: SequencingState::new(),
        }
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
        let dims: Vec<i64> = shape.dims().iter().map(|d| d.map_or(-1, |v| v as i64)).collect();
        let attrs = Attrs::new().with("dtype", dtype).with("shape", dims);
        let refs = self.add_op(Op::Placeholder, Vec::new(), attrs)?;
        let id = refs[0].node;
        self.inputs.push(id);
        Ok(refs[0])
    }

    /// Intern a constant tensor and add a `const` node for it.
    ///
    /// # Errors
    /// Propagates inference errors (none in practice).
    pub fn constant(&mut self, value: Arc<TensorData>) -> Result<TensorRef, OpError> {
        let dims: Vec<i64> = value.shape().dims().iter().map(|&d| d as i64).collect();
        let index = self.constants.len();
        self.constants.push(value.clone());
        let attrs = Attrs::new()
            .with("dtype", value.dtype())
            .with("shape", dims)
            .with("value_index", index as i64);
        let refs = self.add_op(Op::Const, Vec::new(), attrs)?;
        Ok(refs[0])
    }

    /// [`add_op`](GraphBuilder::add_op) for an op given by name — one of
    /// the places a name becomes an [`Op`].
    ///
    /// # Errors
    /// [`OpError::UnknownOp`], or what `add_op` reports.
    pub fn add_node(
        &mut self,
        op: &str,
        inputs: Vec<TensorRef>,
        attrs: Attrs,
    ) -> Result<Vec<TensorRef>, OpError> {
        self.add_op(Op::from_name(op)?, inputs, attrs)
    }

    /// Append an op node; returns references to its outputs.
    ///
    /// # Errors
    /// Arity violations or shape-inference failures — i.e. the same errors
    /// eager execution would raise, surfaced at trace time.
    pub fn add_op(
        &mut self,
        op: Op,
        inputs: Vec<TensorRef>,
        attrs: Attrs,
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
        let outputs = op.infer(&InferCtx { dtypes: &dtypes, shapes: &shapes, attrs: &attrs })?;
        // `call`-like nodes carry statefulness as an attribute set by the
        // tracer from the callee's own statefulness.
        let attr_stateful = matches!(attrs.get("stateful"), Some(AttrValue::Bool(true)));
        let stateful = op.def().is_stateful() || attr_stateful;
        let id = NodeId(self.nodes.len());
        // Sequencing edges keep stateful ops in program order (per
        // resource) so the parallel executor never needs a serial fallback.
        let access = sequencing::classify(op, &attrs, stateful);
        let data_inputs: Vec<NodeId> = inputs.iter().map(|t| t.node).collect();
        let control_inputs = self.sequencing.sequence(id, access, &data_inputs);
        self.nodes.push(Node { op, inputs, attrs, outputs, stateful, control_inputs });
        let n_out = self.nodes[id.0].outputs.len();
        Ok((0..n_out).map(|output| TensorRef { node: id, output }).collect())
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
    fn stateful_attr_propagates() {
        let mut b = GraphBuilder::new("t");
        let (d, s) = tfe_ops::catalog::encode_sig(&[(DType::F32, SymShape::scalar())]);
        let refs = b
            .add_node(
                "call",
                vec![],
                Attrs::new()
                    .with("function", "g")
                    .with("stateful", true)
                    .with("out_dtypes", d)
                    .with("out_shapes", s),
            )
            .unwrap();
        let f = b.finish(vec![refs[0]], 0);
        assert!(f.is_stateful());
        assert_eq!(f.callee_names(), vec!["g".to_string()]);
    }
}
