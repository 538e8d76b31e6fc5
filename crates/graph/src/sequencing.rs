//! Sequencing (control) edges between stateful operations.
//!
//! TensorFlow Eager keeps program order for side-effecting operations by
//! threading control dependencies through the trace (§4.2 "state"): a
//! variable read must observe the most recent write, writes must wait for
//! earlier reads, and opaque effects (host calls, stateful function calls)
//! act as barriers. This module computes those edges so that the parallel
//! executor can run stateful graphs concurrently — stateless work proceeds
//! dataflow-style while each resource's access chain keeps program order —
//! instead of falling back to fully serial execution.
//!
//! The model is per-resource access chains:
//!
//! - `read_variable(var_id)` is a **read** of that variable,
//! - `assign`/`assign_add`/`assign_sub(var_id)` are **writes** to it,
//! - random ops (`random_normal`, `random_uniform`, `truncated_normal`,
//!   `dropout_mask`) are writes to the shared RNG stream,
//! - `print` is a write to the host's output stream,
//! - everything else stateful (`host_func`, stateful `call`/`cond`/
//!   `while_loop`, or a stateful op with no `var_id`) is a **barrier**
//!   touching the whole world.
//!
//! A read depends on the previous write to its resource; a write depends
//! on every read since the previous write (and on that write when there
//! were none); a barrier depends on every stateful node since the previous
//! barrier. Reads of the same resource, and any stateless work, carry no
//! mutual edges and may run concurrently. Every stateful graph is
//! sequenceable under this model — there is no fallback.

use crate::ir::NodeId;
use std::collections::HashMap;
use tfe_ops::{Op, Params};

/// A unit of mutable state a node may touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// A runtime variable, keyed by its id.
    Var(i64),
    /// The global random-number stream.
    Rng,
    /// The host's output stream (`print`).
    Io,
}

/// How a node interacts with mutable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// No side effects; never sequenced.
    Pure,
    /// Observes a resource without changing it.
    Read(Resource),
    /// Mutates a resource.
    Write(Resource),
    /// Opaque effects: ordered against every other stateful node.
    Barrier,
}

/// Classify a node's interaction with mutable state.
pub fn classify(op: Op, params: &Params, stateful: bool) -> Access {
    if !stateful {
        return Access::Pure;
    }
    let var = || params.var_id().map(Resource::Var);
    match op {
        Op::ReadVariable => var().map_or(Access::Barrier, Access::Read),
        Op::Assign | Op::AssignAdd | Op::AssignSub => var().map_or(Access::Barrier, Access::Write),
        Op::RandomNormal | Op::RandomUniform | Op::TruncatedNormal | Op::DropoutMask => {
            Access::Write(Resource::Rng)
        }
        Op::Print => Access::Write(Resource::Io),
        // host_func, stateful call/cond/while_loop, and anything else
        // stateful we cannot see inside.
        _ => Access::Barrier,
    }
}

/// Incremental sequencing state: feed nodes in program order, get each
/// node's control dependencies back. `GraphBuilder` holds one, so every
/// graph — traced, optimized or decoded — is sequenced by it.
#[derive(Debug, Default)]
pub struct SequencingState {
    last_write: HashMap<Resource, NodeId>,
    reads_since_write: HashMap<Resource, Vec<NodeId>>,
    last_barrier: Option<NodeId>,
    stateful_since_barrier: Vec<NodeId>,
}

impl SequencingState {
    /// Fresh state (no stateful history).
    pub fn new() -> SequencingState {
        SequencingState::default()
    }

    /// The reads of `resource` that still observe its current value: those
    /// recorded since the last write to it and the last barrier.
    pub fn reads_since_write(&self, resource: Resource) -> &[NodeId] {
        self.reads_since_write.get(&resource).map_or(&[], Vec::as_slice)
    }

    /// Record node `id` with the given access pattern and return the
    /// control dependencies it must wait on. `data_inputs` lets the state
    /// drop edges already implied by a direct data input.
    pub fn sequence(&mut self, id: NodeId, access: Access, data_inputs: &[NodeId]) -> Vec<NodeId> {
        let mut deps: Vec<NodeId> = Vec::new();
        match access {
            Access::Pure => return deps,
            Access::Read(r) => {
                match self.last_write.get(&r) {
                    Some(&w) => deps.push(w),
                    None => deps.extend(self.last_barrier),
                }
                self.reads_since_write.entry(r).or_default().push(id);
            }
            Access::Write(r) => {
                let reads = self.reads_since_write.entry(r).or_default();
                if reads.is_empty() {
                    // No intervening reads: chain directly on the previous
                    // write (or the barrier that reset the chain).
                    match self.last_write.get(&r) {
                        Some(&w) => deps.push(w),
                        None => deps.extend(self.last_barrier),
                    }
                } else {
                    // Reads already depend on the previous write, so
                    // ordering behind them is enough.
                    deps.append(reads);
                }
                self.last_write.insert(r, id);
            }
            Access::Barrier => {
                if self.stateful_since_barrier.is_empty() {
                    deps.extend(self.last_barrier);
                } else {
                    deps.extend(self.stateful_since_barrier.iter().copied());
                }
                self.last_write.clear();
                self.reads_since_write.clear();
                self.stateful_since_barrier.clear();
                self.last_barrier = Some(id);
            }
        }
        if access != Access::Barrier {
            self.stateful_since_barrier.push(id);
        }
        deps.sort_unstable();
        deps.dedup();
        deps.retain(|d| !data_inputs.contains(d));
        deps
    }
}

/// Recompute the control edges of a whole node list (program order): the
/// reference the builder's incremental edges are checked against.
#[cfg(test)]
pub(crate) fn sequence_control_edges(nodes: &[crate::ir::Node]) -> Vec<Vec<NodeId>> {
    let mut state = SequencingState::new();
    nodes
        .iter()
        .enumerate()
        .map(|(i, n)| {
            let access = classify(n.op, &n.params, n.stateful);
            let data: Vec<NodeId> = n.inputs.iter().map(|t| t.node).collect();
            state.sequence(NodeId(i), access, &data)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use tfe_ops::{Attrs, Handle, SymShape};
    use tfe_tensor::DType;

    fn read(b: &mut GraphBuilder, var: i64) -> crate::ir::TensorRef {
        b.add_node(
            "read_variable",
            vec![],
            Attrs::new()
                .with("var_id", var)
                .with("dtype", DType::F32)
                .with("shape", Vec::<i64>::new()),
        )
        .unwrap()[0]
    }

    fn assign(b: &mut GraphBuilder, var: i64, value: crate::ir::TensorRef) -> NodeId {
        let id = NodeId(b.num_nodes());
        b.add_node("assign", vec![value], Attrs::new().with("var_id", var)).unwrap();
        id
    }

    #[test]
    fn classify_covers_the_catalog() {
        let v = Params::Assign { var_id: 3 };
        let none = Params::None;
        assert_eq!(classify(Op::Binary(tfe_ops::BinaryOp::Add), &none, false), Access::Pure);
        assert_eq!(classify(Op::ReadVariable, &v, true), Access::Read(Resource::Var(3)));
        assert_eq!(classify(Op::AssignAdd, &v, true), Access::Write(Resource::Var(3)));
        assert_eq!(classify(Op::RandomNormal, &none, true), Access::Write(Resource::Rng));
        assert_eq!(classify(Op::Print, &none, true), Access::Write(Resource::Io));
        assert_eq!(classify(Op::HostFunc, &none, true), Access::Barrier);
        assert_eq!(classify(Op::Call, &none, true), Access::Barrier);
        // Parameters without a variable degrade to a barrier, never to Pure.
        assert_eq!(classify(Op::Assign, &none, true), Access::Barrier);
    }

    #[test]
    fn read_write_read_chains_in_program_order() {
        let mut b = GraphBuilder::new("f");
        let r1 = read(&mut b, 1);
        let w = assign(&mut b, 1, r1);
        let r2 = read(&mut b, 1);
        let f = b.finish(vec![r2], 0);
        // Write waits on the first read via its data edge (no duplicate
        // control edge), second read waits on the write.
        assert!(f.nodes[w.0].control_inputs.is_empty());
        assert_eq!(f.nodes[r2.node.0].control_inputs, vec![w]);
    }

    #[test]
    fn independent_variables_do_not_interfere() {
        let mut b = GraphBuilder::new("f");
        let r1 = read(&mut b, 1);
        let r2 = read(&mut b, 2);
        let w2 = assign(&mut b, 2, r2);
        let r1b = read(&mut b, 1);
        let f = b.finish(vec![r1, r1b], 0);
        assert!(f.nodes[r1.node.0].control_inputs.is_empty());
        assert!(f.nodes[r1b.node.0].control_inputs.is_empty());
        assert!(f.nodes[w2.0].control_inputs.is_empty()); // data edge on r2
    }

    #[test]
    fn concurrent_reads_then_write() {
        let mut b = GraphBuilder::new("f");
        let r1 = read(&mut b, 1);
        let r2 = read(&mut b, 1);
        let sum = b.add_node("add", vec![r1, r2], Attrs::new()).unwrap()[0];
        let w = assign(&mut b, 1, sum);
        let f = b.finish(vec![sum], 0);
        // Reads are unordered with each other; the write waits on both
        // (via control edges — its data input is the add node).
        assert!(f.nodes[r1.node.0].control_inputs.is_empty());
        assert!(f.nodes[r2.node.0].control_inputs.is_empty());
        assert_eq!(f.nodes[w.0].control_inputs, vec![r1.node, r2.node]);
    }

    #[test]
    fn rng_ops_form_a_chain() {
        let mut b = GraphBuilder::new("f");
        let shape: Vec<i64> = vec![2];
        let attrs = || Attrs::new().with("dtype", DType::F32).with("shape", shape.clone());
        let a = b.add_node("random_normal", vec![], attrs()).unwrap()[0];
        let c = b.add_node("random_uniform", vec![], attrs()).unwrap()[0];
        let s = b.add_node("add", vec![a, c], Attrs::new()).unwrap()[0];
        let f = b.finish(vec![s], 0);
        assert_eq!(f.nodes[c.node.0].control_inputs, vec![a.node]);
    }

    #[test]
    fn barriers_partition_the_chains() {
        let mut b = GraphBuilder::new("f");
        let r1 = read(&mut b, 1);
        let sig = tfe_ops::encode_sig(&[(DType::F32, SymShape::scalar())]);
        let h = b
            .add_node(
                "host_func",
                vec![r1],
                Attrs::new()
                    .with("host_fn", Handle::new(std::sync::Arc::new(()), "host_fn"))
                    .with("out_dtypes", sig.0)
                    .with("out_shapes", sig.1),
            )
            .unwrap()[0];
        let r2 = read(&mut b, 1);
        let f = b.finish(vec![h, r2], 0);
        // The barrier waits on the read via its data edge; the read after
        // the barrier waits on the barrier.
        assert!(f.nodes[h.node.0].control_inputs.is_empty());
        assert_eq!(f.nodes[r2.node.0].control_inputs, vec![h.node]);
    }

    #[test]
    fn recompute_matches_builder() {
        let mut b = GraphBuilder::new("f");
        let r1 = read(&mut b, 1);
        let w = assign(&mut b, 1, r1);
        let r2 = read(&mut b, 1);
        let _ = w;
        let f = b.finish(vec![r2], 0);
        let recomputed = sequence_control_edges(&f.nodes);
        for (i, n) in f.nodes.iter().enumerate() {
            assert_eq!(n.control_inputs, recomputed[i], "node {i}");
        }
    }
}
