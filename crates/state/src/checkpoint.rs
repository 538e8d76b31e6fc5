//! Checkpoint save/restore with graph-based state matching (§4.3).
//!
//! Saving serializes the trackable object graph — nodes, named edges, and
//! leaf values. Restoring walks the serialized graph and the live object
//! graph *together* from the root, greedily matching children by edge name;
//! the correspondence "depends only on the objects being saved and
//! restored, not on other parts of the program", so two copies of one model
//! restore correctly regardless of variable-creation order.

use crate::trackable::{Trackable, TrackableChild};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use tfe_encode::Value;
use tfe_graph::serial::{tensor_from_value, tensor_to_value};

/// A checkpoint error.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointError(pub String);

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "checkpoint error: {}", self.0)
    }
}

impl std::error::Error for CheckpointError {}

fn err(msg: impl Into<String>) -> CheckpointError {
    CheckpointError(msg.into())
}

/// Outcome of a restore: what matched and what did not.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RestoreStatus {
    /// Variables whose values were restored.
    pub restored_variables: usize,
    /// Miscellaneous state cells restored.
    pub restored_state: usize,
    /// Edge paths present in the checkpoint but absent on the live object.
    pub unmatched_in_checkpoint: Vec<String>,
    /// Edge paths on the live object with no checkpoint counterpart.
    pub unmatched_in_object: Vec<String>,
}

impl RestoreStatus {
    /// True when everything matched both ways.
    pub fn is_complete(&self) -> bool {
        self.unmatched_in_checkpoint.is_empty() && self.unmatched_in_object.is_empty()
    }
}

#[derive(Debug)]
enum SavedNode {
    Object { edges: Vec<(String, usize)> },
    Variable(Value),
    State(Value),
}

/// Serialize a trackable graph to a JSON value.
fn save_graph(root: &dyn Trackable) -> Vec<SavedNode> {
    let mut nodes: Vec<SavedNode> = Vec::new();
    // Deduplicate shared objects / variables so diamonds stay diamonds.
    let mut object_index: HashMap<usize, usize> = HashMap::new(); // Arc ptr -> node
    let mut variable_index: HashMap<u64, usize> = HashMap::new();

    fn visit(
        node: &dyn Trackable,
        nodes: &mut Vec<SavedNode>,
        object_index: &mut HashMap<usize, usize>,
        variable_index: &mut HashMap<u64, usize>,
    ) -> usize {
        let my_index = nodes.len();
        nodes.push(SavedNode::Object { edges: Vec::new() });
        let mut edges = Vec::new();
        for (name, child) in node.children() {
            let child_index = match child {
                TrackableChild::Variable(v) => {
                    if let Some(&i) = variable_index.get(&v.id()) {
                        i
                    } else {
                        let i = nodes.len();
                        nodes.push(SavedNode::Variable(tensor_to_value(&v.peek())));
                        variable_index.insert(v.id(), i);
                        i
                    }
                }
                TrackableChild::Node(t) => {
                    let ptr = Arc::as_ptr(&t) as *const () as usize;
                    if let Some(&i) = object_index.get(&ptr) {
                        i
                    } else {
                        let i = visit(t.as_ref(), nodes, object_index, variable_index);
                        object_index.insert(ptr, i);
                        i
                    }
                }
                TrackableChild::State(s) => {
                    let i = nodes.len();
                    nodes.push(SavedNode::State(s.save_state()));
                    i
                }
            };
            edges.push((name, child_index));
        }
        nodes[my_index] = SavedNode::Object { edges };
        my_index
    }

    visit(root, &mut nodes, &mut object_index, &mut variable_index);
    nodes
}

fn nodes_to_value(nodes: &[SavedNode]) -> Value {
    let encoded: Vec<Value> = nodes
        .iter()
        .map(|n| match n {
            SavedNode::Object { edges } => Value::object([
                ("kind".to_string(), Value::str("object")),
                (
                    "edges".to_string(),
                    Value::Array(
                        edges
                            .iter()
                            .map(|(name, idx)| {
                                Value::Array(vec![
                                    Value::str(name.clone()),
                                    Value::Int(*idx as i64),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            SavedNode::Variable(v) => Value::object([
                ("kind".to_string(), Value::str("variable")),
                ("value".to_string(), v.clone()),
            ]),
            SavedNode::State(v) => Value::object([
                ("kind".to_string(), Value::str("state")),
                ("value".to_string(), v.clone()),
            ]),
        })
        .collect();
    Value::object([
        ("format".to_string(), Value::str("tfe-checkpoint-v1")),
        ("nodes".to_string(), Value::Array(encoded)),
    ])
}

fn nodes_from_value(v: &Value) -> Result<Vec<SavedNode>, CheckpointError> {
    if v.get("format").and_then(Value::as_str) != Some("tfe-checkpoint-v1") {
        return Err(err("not a tfe checkpoint"));
    }
    v.get("nodes")
        .and_then(Value::as_array)
        .ok_or_else(|| err("missing nodes"))?
        .iter()
        .map(|nv| match nv.get("kind").and_then(Value::as_str) {
            Some("object") => {
                let edges = nv
                    .get("edges")
                    .and_then(Value::as_array)
                    .ok_or_else(|| err("missing edges"))?
                    .iter()
                    .map(|ev| {
                        let pair = ev.as_array().ok_or_else(|| err("bad edge"))?;
                        let name = pair
                            .first()
                            .and_then(Value::as_str)
                            .ok_or_else(|| err("bad edge name"))?;
                        let idx = pair
                            .get(1)
                            .and_then(Value::as_i64)
                            .ok_or_else(|| err("bad edge index"))?;
                        Ok((name.to_string(), idx as usize))
                    })
                    .collect::<Result<Vec<_>, CheckpointError>>()?;
                Ok(SavedNode::Object { edges })
            }
            Some("variable") => Ok(SavedNode::Variable(
                nv.get("value").cloned().ok_or_else(|| err("missing value"))?,
            )),
            Some("state") => {
                Ok(SavedNode::State(nv.get("value").cloned().ok_or_else(|| err("missing value"))?))
            }
            _ => Err(err("unknown node kind")),
        })
        .collect()
}

/// Save the object graph rooted at `root` as a JSON value.
pub fn save_to_value(root: &dyn Trackable) -> Value {
    nodes_to_value(&save_graph(root))
}

/// Save to a file.
///
/// # Errors
/// I/O failures.
pub fn save(root: &dyn Trackable, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    let v = save_to_value(root);
    std::fs::write(path, v.to_json_pretty()).map_err(|e| err(format!("write failed: {e}")))
}

/// Restore the object graph rooted at `root` from a serialized value.
///
/// Matching is greedy and local: starting at the two roots, children are
/// paired by edge name and recursion proceeds only through paired nodes.
///
/// # Errors
/// Structural decode failures, or value mismatches (wrong dtype/shape).
pub fn restore_from_value(
    root: &dyn Trackable,
    value: &Value,
) -> Result<RestoreStatus, CheckpointError> {
    let nodes = nodes_from_value(value)?;
    let mut status = RestoreStatus::default();
    let mut visited: HashMap<usize, ()> = HashMap::new();

    fn walk(
        node: &dyn Trackable,
        saved_index: usize,
        nodes: &[SavedNode],
        path: &str,
        status: &mut RestoreStatus,
        visited: &mut HashMap<usize, ()>,
    ) -> Result<(), CheckpointError> {
        let SavedNode::Object { edges } = &nodes[saved_index] else {
            return Err(err(format!("checkpoint node at `{path}` is not an object")));
        };
        let saved_edges: HashMap<&str, usize> =
            edges.iter().map(|(n, i)| (n.as_str(), *i)).collect();
        let mut live_names: Vec<String> = Vec::new();
        for (name, child) in node.children() {
            let child_path = if path.is_empty() { name.clone() } else { format!("{path}/{name}") };
            live_names.push(name.clone());
            let Some(&saved_child) = saved_edges.get(name.as_str()) else {
                status.unmatched_in_object.push(child_path);
                continue;
            };
            match (&child, &nodes[saved_child]) {
                (TrackableChild::Variable(v), SavedNode::Variable(payload)) => {
                    let data = tensor_from_value(payload)
                        .map_err(|e| err(format!("at `{child_path}`: {e}")))?;
                    v.restore(data).map_err(|e| err(format!("at `{child_path}`: {e}")))?;
                    status.restored_variables += 1;
                }
                (TrackableChild::State(s), SavedNode::State(payload)) => {
                    s.restore_state(payload).map_err(|e| err(format!("at `{child_path}`: {e}")))?;
                    status.restored_state += 1;
                }
                (TrackableChild::Node(t), SavedNode::Object { .. }) => {
                    // A shared saved node may be reached through several
                    // edges; restore through the first path only.
                    if visited.insert(saved_child, ()).is_none() {
                        walk(t.as_ref(), saved_child, nodes, &child_path, status, visited)?;
                    }
                }
                _ => {
                    return Err(err(format!(
                        "kind mismatch at `{child_path}` between checkpoint and object"
                    )))
                }
            }
        }
        for (name, idx) in edges {
            if !live_names.iter().any(|n| n == name) {
                let child_path =
                    if path.is_empty() { name.clone() } else { format!("{path}/{name}") };
                status.unmatched_in_checkpoint.push(child_path);
                let _ = idx;
            }
        }
        Ok(())
    }

    walk(root, 0, &nodes, "", &mut status, &mut visited)?;
    Ok(status)
}

/// Restore from a file.
///
/// # Errors
/// I/O or decode failures, or value mismatches.
pub fn restore(
    root: &dyn Trackable,
    path: impl AsRef<Path>,
) -> Result<RestoreStatus, CheckpointError> {
    let text = std::fs::read_to_string(path).map_err(|e| err(format!("read failed: {e}")))?;
    let v = Value::parse(&text).map_err(|e| err(format!("parse failed: {e}")))?;
    restore_from_value(root, &v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trackable::{MutableState, TrackableGroup};
    use std::sync::Mutex;
    use tfe_runtime::Variable;
    use tfe_tensor::{DType, TensorData};

    fn model() -> (TrackableGroup, Variable, Variable) {
        let w = Variable::new(
            TensorData::from_vec(vec![1.0f32, 2.0], tfe_tensor::Shape::from([2])).unwrap(),
        );
        let b = Variable::new(TensorData::scalar(0.5f32));
        let layer =
            Arc::new(TrackableGroup::new().with_variable("kernel", &w).with_variable("bias", &b));
        // Listing 3's structure: v plus an `out` layer with kernel/bias.
        let v = Variable::new(TensorData::scalar(1.0f32));
        let net = TrackableGroup::new().with_variable("v", &v).with_node("out", layer);
        (net, w, b)
    }

    #[test]
    fn save_restore_round_trip() {
        let (net, w, b) = model();
        let saved = save_to_value(&net);
        // Perturb and restore.
        w.restore(TensorData::from_vec(vec![9.0f32, 9.0], tfe_tensor::Shape::from([2])).unwrap())
            .unwrap();
        b.restore(TensorData::scalar(9.0f32)).unwrap();
        let status = restore_from_value(&net, &saved).unwrap();
        assert!(status.is_complete(), "{status:?}");
        assert_eq!(status.restored_variables, 3);
        assert_eq!(w.peek().to_f64_vec(), vec![1.0, 2.0]);
        assert_eq!(b.peek().scalar_f64().unwrap(), 0.5);
    }

    #[test]
    fn matching_is_structural_not_order_based() {
        // Save one model, restore into a fresh copy whose variables were
        // created in a different order — graph matching must not care.
        let (net, _w, _b) = model();
        let saved = save_to_value(&net);

        // Build the same structure, creating variables in reverse order.
        let b2 = Variable::new(TensorData::scalar(0.0f32));
        let w2 = Variable::new(TensorData::zeros(DType::F32, [2]));
        let v2 = Variable::new(TensorData::scalar(0.0f32));
        let layer2 =
            Arc::new(TrackableGroup::new().with_variable("kernel", &w2).with_variable("bias", &b2));
        let net2 = TrackableGroup::new().with_variable("v", &v2).with_node("out", layer2);

        let status = restore_from_value(&net2, &saved).unwrap();
        assert!(status.is_complete());
        assert_eq!(w2.peek().to_f64_vec(), vec![1.0, 2.0]);
        assert_eq!(b2.peek().scalar_f64().unwrap(), 0.5);
        assert_eq!(v2.peek().scalar_f64().unwrap(), 1.0);
    }

    #[test]
    fn partial_matches_reported() {
        let (net, _w, _b) = model();
        let saved = save_to_value(&net);
        // Restore into an object with an extra edge and a missing one.
        let w2 = Variable::new(TensorData::zeros(DType::F32, [2]));
        let extra = Variable::new(TensorData::scalar(0.0f32));
        let layer2 = Arc::new(
            TrackableGroup::new().with_variable("kernel", &w2).with_variable("gamma", &extra),
        );
        let net2 = TrackableGroup::new().with_node("out", layer2);
        let status = restore_from_value(&net2, &saved).unwrap();
        assert_eq!(status.restored_variables, 1);
        assert!(status.unmatched_in_object.contains(&"out/gamma".to_string()));
        assert!(status.unmatched_in_checkpoint.contains(&"v".to_string()));
        assert!(status.unmatched_in_checkpoint.iter().any(|p| p == "out/bias"));
        assert!(!status.is_complete());
    }

    #[test]
    fn shape_mismatch_fails() {
        let (net, _, _) = model();
        let saved = save_to_value(&net);
        let wrong = Variable::new(TensorData::zeros(DType::F32, [3]));
        let layer = Arc::new(TrackableGroup::new().with_variable("kernel", &wrong));
        let net2 = TrackableGroup::new()
            .with_variable("v", &Variable::new(TensorData::scalar(0.0f32)))
            .with_node("out", layer);
        assert!(restore_from_value(&net2, &saved).is_err());
    }

    #[test]
    fn misc_state_round_trips() {
        struct Counter(Mutex<i64>);
        impl MutableState for Counter {
            fn save_state(&self) -> Value {
                Value::Int(*self.0.lock().unwrap())
            }
            fn restore_state(&self, v: &Value) -> Result<(), String> {
                *self.0.lock().unwrap() = v.as_i64().ok_or("expected int")?;
                Ok(())
            }
        }
        let counter = Arc::new(Counter(Mutex::new(42)));
        let g = TrackableGroup::new().with_state("step", counter.clone());
        let saved = save_to_value(&g);
        *counter.0.lock().unwrap() = 0;
        let status = restore_from_value(&g, &saved).unwrap();
        assert_eq!(status.restored_state, 1);
        assert_eq!(*counter.0.lock().unwrap(), 42);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("tfe_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        let (net, w, _) = model();
        save(&net, &path).unwrap();
        w.restore(TensorData::zeros(DType::F32, [2])).unwrap();
        let status = restore(&net, &path).unwrap();
        assert!(status.is_complete());
        assert_eq!(w.peek().to_f64_vec(), vec![1.0, 2.0]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shared_variables_saved_once() {
        let shared = Variable::new(TensorData::scalar(7.0f32));
        let a = Arc::new(TrackableGroup::new().with_variable("w", &shared));
        let g = TrackableGroup::new().with_node("left", a.clone()).with_node("right", a);
        let v = save_to_value(&g);
        // One object root + one shared child object + one variable node.
        let nodes = v.get("nodes").and_then(Value::as_array).unwrap();
        let var_nodes = nodes
            .iter()
            .filter(|n| n.get("kind").and_then(Value::as_str) == Some("variable"))
            .count();
        assert_eq!(var_nodes, 1);
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use crate::trackable::TrackableGroup;
    use tfe_runtime::Variable;
    use tfe_tensor::rng::{each_seed, Rng};
    use tfe_tensor::{DType, TensorData};

    /// Recipe for a random trackable tree.
    #[derive(Debug, Clone)]
    enum TreeSpec {
        Var(Vec<f64>),
        Group(Vec<(String, TreeSpec)>),
    }

    /// A variable of one to three values, or with odds two in three (while
    /// `depth` lasts) a group of one to three uniquely named subtrees.
    fn arb_tree(rng: &mut Rng, depth: u32) -> TreeSpec {
        if depth == 0 || rng.range(0u32..3) == 0 {
            return TreeSpec::Var(
                (0..rng.range(1usize..4)).map(|_| rng.range(-10.0..10.0)).collect(),
            );
        }
        let mut children = std::collections::BTreeMap::new();
        for _ in 0..rng.range(1usize..4) {
            let name: String =
                (0..rng.range(1usize..=5)).map(|_| rng.range(b'a'..=b'z') as char).collect();
            children.insert(name, arb_tree(rng, depth - 1));
        }
        TreeSpec::Group(children.into_iter().collect())
    }

    fn build(spec: &TreeSpec, vars: &mut Vec<Variable>) -> TrackableGroup {
        match spec {
            TreeSpec::Var(vals) => {
                let v = Variable::new(TensorData::from_f64_vec(
                    DType::F64,
                    vals.clone(),
                    tfe_tensor::Shape::from([vals.len()]),
                ));
                vars.push(v.clone());
                TrackableGroup::new().with_variable("value", &v)
            }
            TreeSpec::Group(children) => {
                let mut g = TrackableGroup::new();
                for (name, child) in children {
                    g = g.with_node(name, Arc::new(build(child, vars)));
                }
                g
            }
        }
    }

    /// Save → perturb → restore recovers every variable, and the status
    /// reports a complete two-way match, for arbitrary trees.
    #[test]
    fn random_trees_round_trip() {
        each_seed(32, |rng| {
            let spec = arb_tree(rng, 3);
            let mut vars = Vec::new();
            let root = build(&spec, &mut vars);
            let originals: Vec<Vec<f64>> = vars.iter().map(|v| v.peek().to_f64_vec()).collect();
            let saved = save_to_value(&root);
            for v in &vars {
                v.restore(TensorData::zeros(v.dtype(), v.shape().clone())).unwrap();
            }
            let status = restore_from_value(&root, &saved).unwrap();
            assert!(status.is_complete(), "{status:?}");
            assert_eq!(status.restored_variables, vars.len());
            for (v, orig) in vars.iter().zip(&originals) {
                assert_eq!(&v.peek().to_f64_vec(), orig);
            }
            // Round trip through actual JSON text as well.
            let text = saved.to_json();
            let reparsed = tfe_encode::Value::parse(&text).unwrap();
            let status2 = restore_from_value(&root, &reparsed).unwrap();
            assert!(status2.is_complete());
        });
    }

    /// Restoring into a *structurally identical* tree with fresh variables
    /// works regardless of creation order (the §4.3 claim).
    #[test]
    fn random_trees_restore_into_fresh_copies() {
        each_seed(32, |rng| {
            let spec = arb_tree(rng, 3);
            let mut vars_a = Vec::new();
            let root_a = build(&spec, &mut vars_a);
            let saved = save_to_value(&root_a);
            let mut vars_b = Vec::new();
            let root_b = build(&spec, &mut vars_b);
            for v in &vars_b {
                v.restore(TensorData::zeros(v.dtype(), v.shape().clone())).unwrap();
            }
            let status = restore_from_value(&root_b, &saved).unwrap();
            assert!(status.is_complete());
            for (a, b) in vars_a.iter().zip(&vars_b) {
                assert_eq!(a.peek().to_f64_vec(), b.peek().to_f64_vec());
            }
        });
    }
}
