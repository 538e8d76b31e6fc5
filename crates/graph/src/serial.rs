//! Graph (de)serialization — the basis of "serializing the program for use
//! without a Python interpreter" (§4.3): a trace plus its constants can be
//! written to disk and executed by a runtime with no tracer present.
//!
//! A node is written as what was given to the builder — its op, inputs and
//! parameters, as the attributes [`Params::to_attrs`] writes — and read back
//! through [`Params::decode`] and [`GraphBuilder`], the doors every traced
//! node takes, so a decoded graph's output signatures, statefulness
//! and sequencing edges are the builder's own, never the payload's. Older
//! payloads that also carry per-node `outputs`, `stateful` and `control`
//! fields load the same: those fields are not read.
//!
//! Names exist only here. A node holds what it runs as a handle, and a
//! handle is written as its label: a callee as its function's name, a fused
//! program as its text. A decoded node holds a handle with only that label
//! (`Handle::name`) until reading turns it back: [`function_from_value`]
//! compiles program texts, and [`link`] makes each callee name a handle to
//! the function of that name in the same set ([`closure`] is the set one
//! function needs).

use crate::builder::GraphBuilder;
use crate::ir::{GraphFunction, NodeId, TensorRef};
use crate::program::Programs;
use std::collections::BTreeMap;
use std::sync::Arc;
use tfe_encode::Value;
use tfe_ops::{AttrValue, Attrs, Op, OpError, Params};
use tfe_tensor::{DType, Shape, TensorData};

/// Serialization failures.
#[derive(Debug, Clone, PartialEq)]
pub struct SerialError(pub String);

impl std::fmt::Display for SerialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "graph serialization error: {}", self.0)
    }
}

impl std::error::Error for SerialError {}

fn err(msg: impl Into<String>) -> SerialError {
    SerialError(msg.into())
}

/// Encode a tensor as `{dtype, shape, data}`, where `data` is one
/// [`Value::Bytes`] leaf holding [`TensorData::to_le_bytes`]: the elements
/// at their own width, bit for bit. The binary syntax ships that leaf raw;
/// the text syntax renders it as a base64 string.
pub fn tensor_to_value(t: &TensorData) -> Value {
    Value::object([
        ("dtype".to_string(), Value::str(t.dtype().name())),
        (
            "shape".to_string(),
            Value::Array(t.shape().dims().iter().map(|&d| Value::Int(d as i64)).collect()),
        ),
        ("data".to_string(), Value::Bytes(t.to_le_bytes().into())),
    ])
}

/// Decode a tensor produced by [`tensor_to_value`]: `data` as the bytes
/// leaf, or as the string the text syntax turns it into.
///
/// Bundles and checkpoints written before the byte payload carry `data` as
/// an array of decimal numbers; that form is still read, never written.
///
/// # Errors
/// Malformed structure, or a payload that does not fill the shape.
pub fn tensor_from_value(v: &Value) -> Result<TensorData, SerialError> {
    let dtype = v
        .get("dtype")
        .and_then(Value::as_str)
        .and_then(DType::from_name)
        .ok_or_else(|| err("bad tensor dtype"))?;
    let dims =
        v.get("shape").and_then(Value::as_i64_array).ok_or_else(|| err("bad tensor shape"))?;
    if dims.iter().any(|&d| d < 0) {
        return Err(err("negative tensor dimension"));
    }
    // Checked product: a hostile shape like [i64::MAX, 8] must not overflow
    // into a bogus (or panicking) element count.
    dims.iter()
        .try_fold(1usize, |n, &d| n.checked_mul(d as usize))
        .ok_or_else(|| err("tensor shape overflows"))?;
    let shape = Shape::new(dims.iter().map(|&d| d as usize).collect::<Vec<_>>());
    let data = v.get("data").ok_or_else(|| err("bad tensor data"))?;
    if let Value::Array(elements) = data {
        return legacy_elements(dtype, shape, elements);
    }
    let bytes = data.as_bytes().ok_or_else(|| err("bad tensor data"))?;
    TensorData::from_le_bytes(dtype, shape, &bytes).map_err(|e| err(e.to_string()))
}

/// The pre-byte-payload `data`: one JSON number (or bool) per element.
/// Integers are read as integers, so an i64 beyond 2^53 keeps its value.
fn legacy_elements(
    dtype: DType,
    shape: Shape,
    elements: &[Value],
) -> Result<TensorData, SerialError> {
    fn read<T: tfe_tensor::Scalar>(
        elements: &[Value],
        shape: Shape,
        one: impl Fn(&Value) -> Option<T>,
    ) -> Result<TensorData, SerialError> {
        let data: Option<Vec<T>> = elements.iter().map(one).collect();
        TensorData::from_vec(data.ok_or_else(|| err("bad tensor element"))?, shape)
            .map_err(|e| err(e.to_string()))
    }
    let number = |e: &Value| e.as_f64().or_else(|| e.as_bool().map(|b| b as u8 as f64));
    match dtype {
        DType::F32 => read(elements, shape, |e| number(e).map(|v| v as f32)),
        DType::F64 => read(elements, shape, number),
        DType::I32 => read(elements, shape, |e| e.as_i64().map(|v| v as i32)),
        DType::I64 => read(elements, shape, Value::as_i64),
        DType::Bool => read(elements, shape, |e| number(e).map(|v| v != 0.0)),
    }
}

fn attr_to_value(a: &AttrValue) -> Value {
    let (t, v) = match a {
        AttrValue::Int(v) => ("i", Value::Int(*v)),
        AttrValue::Float(v) => ("f", Value::Float(*v)),
        AttrValue::Bool(v) => ("b", Value::Bool(*v)),
        AttrValue::Str(v) => ("s", Value::str(v.clone())),
        AttrValue::Handle(h) => ("s", Value::str(h.label())),
        AttrValue::IntList(v) => ("il", Value::Array(v.iter().map(|&i| Value::Int(i)).collect())),
        AttrValue::FloatList(v) => {
            ("fl", Value::Array(v.iter().map(|&f| Value::Float(f)).collect()))
        }
        AttrValue::DType(v) => ("dt", Value::str(v.name())),
    };
    Value::object([("t".to_string(), Value::str(t)), ("v".to_string(), v)])
}

fn attr_from_value(v: &Value) -> Result<AttrValue, SerialError> {
    let t = v.get("t").and_then(Value::as_str).ok_or_else(|| err("missing attr tag"))?;
    let payload = v.get("v").ok_or_else(|| err("missing attr payload"))?;
    Ok(match t {
        "i" => AttrValue::Int(payload.as_i64().ok_or_else(|| err("bad int attr"))?),
        "f" => AttrValue::Float(payload.as_f64().ok_or_else(|| err("bad float attr"))?),
        "b" => AttrValue::Bool(payload.as_bool().ok_or_else(|| err("bad bool attr"))?),
        "s" => AttrValue::Str(payload.as_str().ok_or_else(|| err("bad str attr"))?.to_string()),
        "il" => AttrValue::IntList(payload.as_i64_array().ok_or_else(|| err("bad int list"))?),
        "fl" => AttrValue::FloatList(payload.as_f64_array().ok_or_else(|| err("bad float list"))?),
        "dt" => AttrValue::DType(
            payload.as_str().and_then(DType::from_name).ok_or_else(|| err("bad dtype attr"))?,
        ),
        other => return Err(err(format!("unknown attr tag `{other}`"))),
    })
}

/// The attributes through which a node holds what it runs: the only
/// handles bytes carry, as their labels.
const RUN_KEYS: [&str; 7] =
    ["function", "then_fn", "else_fn", "cond_fn", "body_fn", "program", "host_fn"];

/// Encode an attribute map as a JSON object (used by the distributed wire
/// protocol as well as graph serialization). Bytes carry every plain value
/// and, of the handles, what the node runs (its callee, fused program or
/// host closure) as its label. Any other handle, such as the
/// `ConcreteFunction` a traced call holds for its gradient, belongs to this
/// process and is left out.
pub fn attrs_to_value(attrs: &Attrs) -> Value {
    let written = |key: &str, value: &AttrValue| {
        !matches!(value, AttrValue::Handle(_)) || RUN_KEYS.contains(&key)
    };
    Value::object(
        attrs.iter().filter(|(k, v)| written(k, v)).map(|(k, v)| (k.clone(), attr_to_value(v))),
    )
}

/// Decode an attribute map produced by [`attrs_to_value`].
///
/// # Errors
/// Malformed structure or unknown attribute tags.
pub fn attrs_from_value(v: &Value) -> Result<Attrs, SerialError> {
    let obj = v.as_object().ok_or_else(|| err("attrs must be an object"))?;
    let mut attrs = Attrs::new();
    for (k, av) in obj {
        attrs.set(k, attr_from_value(av)?);
    }
    Ok(attrs)
}

fn tensor_ref_to_value(t: &TensorRef) -> Value {
    Value::Array(vec![Value::Int(t.node.0 as i64), Value::Int(t.output as i64)])
}

fn tensor_ref_from_value(v: &Value) -> Result<TensorRef, SerialError> {
    let pair = v.as_i64_array().ok_or_else(|| err("bad tensor ref"))?;
    if pair.len() != 2 {
        return Err(err("tensor ref must be [node, output]"));
    }
    Ok(TensorRef { node: NodeId(pair[0] as usize), output: pair[1] as usize })
}

/// Serialize one graph function: each node as its op, inputs and
/// parameters, written as attributes ([`Params::to_attrs`]). What the
/// builder derives from those — output signatures,
/// statefulness, sequencing edges — is derived again when it is read.
pub fn function_to_value(f: &GraphFunction) -> Value {
    let nodes: Vec<Value> = f
        .nodes
        .iter()
        .map(|n| {
            Value::object([
                ("op".to_string(), Value::str(n.op.name())),
                (
                    "inputs".to_string(),
                    Value::Array(n.inputs.iter().map(tensor_ref_to_value).collect()),
                ),
                ("attrs".to_string(), attrs_to_value(&n.params.to_attrs())),
            ])
        })
        .collect();
    Value::object([
        ("name".to_string(), Value::str(f.name.clone())),
        ("nodes".to_string(), Value::Array(nodes)),
        (
            "inputs".to_string(),
            Value::Array(f.inputs.iter().map(|id| Value::Int(id.0 as i64)).collect()),
        ),
        ("outputs".to_string(), Value::Array(f.outputs.iter().map(tensor_ref_to_value).collect())),
        ("num_captures".to_string(), Value::Int(f.num_captures as i64)),
        (
            "constants".to_string(),
            Value::Array(f.constants.iter().map(|c| tensor_to_value(c)).collect()),
        ),
    ])
}

/// Deserialize one graph function by replaying its nodes through a plain
/// [`GraphBuilder`], the door every traced node takes: each node's
/// attributes become its [`Params`] ([`Params::decode`]), inference gives
/// it its output signature, the op and its parameters' `stateful` its
/// statefulness, and the sequencing model its control edges. A `const`
/// node is its entry of the constant pool. A fused node's program is
/// compiled here, once per distinct text; a callee stays a name until
/// [`link`].
///
/// # Errors
/// Structural problems in the encoded value, a node the builder refuses
/// (unknown op, an input that is not an earlier node's output, failed
/// inference), or a malformed program.
pub fn function_from_value(v: &Value) -> Result<GraphFunction, SerialError> {
    let name = v.get("name").and_then(Value::as_str).ok_or_else(|| err("missing name"))?;
    let nodes_v = v.get("nodes").and_then(Value::as_array).ok_or_else(|| err("missing nodes"))?;
    let constants: Vec<Arc<TensorData>> = v
        .get("constants")
        .and_then(Value::as_array)
        .ok_or_else(|| err("missing constants"))?
        .iter()
        .map(|c| tensor_from_value(c).map(Arc::new))
        .collect::<Result<_, _>>()?;
    let mut b = GraphBuilder::new(name);
    let mut programs = Programs::default();
    for (i, nv) in nodes_v.iter().enumerate() {
        let op = nv.get("op").and_then(Value::as_str).ok_or_else(|| err("missing op"))?;
        let op = Op::from_name(op).map_err(|e| err(e.to_string()))?;
        let attrs = attrs_from_value(nv.get("attrs").ok_or_else(|| err("missing attrs"))?)?;
        let refused = |e: OpError| err(format!("node {i}: {e}"));
        let mut params = Params::decode(op, &attrs).map_err(refused)?;
        if let Params::Const { index, .. } = params {
            let value = constants
                .get(index)
                .ok_or_else(|| err(format!("node {i}: constant index out of range")))?;
            b.constant(value.clone()).map_err(refused)?;
            continue;
        }
        let inputs: Vec<TensorRef> = nv
            .get("inputs")
            .and_then(Value::as_array)
            .ok_or_else(|| err("missing inputs"))?
            .iter()
            .map(tensor_ref_from_value)
            .collect::<Result<_, _>>()?;
        programs.link(&mut params).map_err(err)?;
        b.add_op(op, inputs, params).map_err(refused)?;
    }
    let inputs: Vec<NodeId> = v
        .get("inputs")
        .and_then(Value::as_i64_array)
        .ok_or_else(|| err("missing input list"))?
        .into_iter()
        .map(|i| NodeId(i as usize))
        .collect();
    let outputs: Vec<TensorRef> = v
        .get("outputs")
        .and_then(Value::as_array)
        .ok_or_else(|| err("missing output list"))?
        .iter()
        .map(tensor_ref_from_value)
        .collect::<Result<_, _>>()?;
    let num_captures =
        v.get("num_captures").and_then(Value::as_i64).ok_or_else(|| err("missing num_captures"))?
            as usize;
    // The builder's inputs are the placeholders in node order, which is what
    // the writer wrote. `finish` asserts on more captures than inputs, so
    // the count is set once checked (a negative one wraps to a huge one).
    let mut f = b.finish(outputs, 0);
    if f.inputs != inputs {
        return Err(err("function inputs are not its placeholders"));
    }
    if num_captures > f.inputs.len() {
        return Err(err(format!(
            "num_captures {num_captures} exceeds input count {}",
            f.inputs.len()
        )));
    }
    f.num_captures = num_captures;
    if f.outputs.iter().any(|t| f.nodes.get(t.node.0).is_none_or(|n| t.output >= n.outputs.len())) {
        return Err(err("function output out of range"));
    }
    Ok(f)
}

/// `entry` and, transitively, every function its nodes hold, each once,
/// `entry` first: the set bytes must carry for it to run.
///
/// # Errors
/// Two different functions under one name, which bytes could not tell apart.
pub fn closure(entry: &Arc<GraphFunction>) -> Result<Vec<Arc<GraphFunction>>, SerialError> {
    let mut out = vec![entry.clone()];
    let mut next = 0;
    while next < out.len() {
        for callee in out[next].callees() {
            match out.iter().find(|g| g.name == callee.name) {
                Some(g) if Arc::ptr_eq(g, &callee) => {}
                Some(_) => return Err(err(format!("two functions are named `{}`", callee.name))),
                None => out.push(callee),
            }
        }
        next += 1;
    }
    Ok(out)
}

/// The callee names `f`'s nodes carry in place of functions.
fn callee_names(f: &GraphFunction) -> impl Iterator<Item = &str> {
    let named = |h: &&tfe_ops::Handle| h.get::<GraphFunction>().is_none();
    f.nodes.iter().flat_map(move |n| n.params.callees().filter(named).map(|h| h.label()))
}

/// Link decoded functions into one set, by name: every callee name a node
/// carries becomes the handle of the function of that name in `functions`.
/// Callees are linked first, so each function is shared once it holds all
/// of its own.
///
/// # Errors
/// Two functions under one name, a callee name no function in the set has,
/// or calls that form a cycle.
pub fn link(
    functions: Vec<GraphFunction>,
) -> Result<BTreeMap<String, Arc<GraphFunction>>, SerialError> {
    let mut pending: BTreeMap<String, GraphFunction> = BTreeMap::new();
    for f in functions {
        if pending.contains_key(&f.name) {
            return Err(err(format!("two functions are named `{}`", f.name)));
        }
        pending.insert(f.name.clone(), f);
    }
    let mut linked: BTreeMap<String, Arc<GraphFunction>> = BTreeMap::new();
    while let Some(name) = pending
        .iter()
        .find(|(_, f)| callee_names(f).all(|c| linked.contains_key(c)))
        .map(|(name, _)| name.clone())
    {
        let mut f = pending.remove(&name).expect("found above");
        for (id, node) in f.nodes.iter_mut().enumerate() {
            for callee in node.params.callees_mut() {
                if callee.get::<GraphFunction>().is_none() {
                    *callee = linked[callee.label()].handle();
                }
            }
            check_declared(&name, id, node.op, &node.params)?;
        }
        linked.insert(name, Arc::new(f));
    }
    match pending.iter().find_map(|(name, f)| {
        callee_names(f).find(|c| !pending.contains_key(*c)).map(|c| (name, c))
    }) {
        Some((name, callee)) => {
            Err(err(format!("function `{name}` calls `{callee}`, which is not in the set")))
        }
        None => match pending.keys().next() {
            Some(name) => Err(err(format!("function `{name}` is in a cycle of calls"))),
            None => Ok(linked),
        },
    }
}

/// What a decoded `call`, `cond` or `while_loop` declares must be what its
/// linked callees give: its statefulness, and a `call`'s outputs. The
/// builder has already taken the node's sequencing edges and signature from
/// the declaration, so a bundle that declared a side-effecting call
/// stateless would let common-subexpression elimination merge two of them.
fn check_declared(function: &str, id: usize, op: Op, params: &Params) -> Result<(), SerialError> {
    let callees: Vec<Arc<GraphFunction>> =
        params.callees().filter_map(|c| c.get::<GraphFunction>()).collect();
    if callees.is_empty() {
        return Ok(());
    }
    let refuse = |what: String| {
        Err(err(format!("function `{function}` node {id} (`{}`) {what}", op.name())))
    };
    let stateful = callees.iter().any(|c| c.is_stateful());
    if params.is_stateful() != stateful {
        return refuse(format!(
            "declares stateful {}, but its callees are stateful {stateful}",
            params.is_stateful()
        ));
    }
    if let Params::Call { outputs, .. } = params {
        let sigs = callees[0].output_sigs();
        if *outputs != sigs {
            return refuse(format!("declares outputs {outputs:?}, but its callee gives {sigs:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfe_ops::SymShape;

    fn sample_fn() -> GraphFunction {
        let mut b = GraphBuilder::new("sample");
        let x = b.placeholder(DType::F32, SymShape::new(vec![None, Some(3)])).unwrap();
        let c = b.constant(Arc::new(TensorData::scalar(2.5f32))).unwrap();
        let m = b.add_node("mul", vec![x, c], Attrs::new()).unwrap()[0];
        let r =
            b.add_node("reduce_sum", vec![m], Attrs::new().with("axes", vec![1i64])).unwrap()[0];
        b.finish(vec![r], 0)
    }

    /// Bytes carry what a node runs, by label, and leave out a handle the
    /// node only holds for this process.
    #[test]
    fn attrs_write_only_the_handles_a_node_runs() {
        let callee = Arc::new(sample_fn());
        let attrs = Attrs::new()
            .with("function", callee.handle())
            .with("concrete", tfe_ops::Handle::new(Arc::new(()), "sample"))
            .with("stateful", false);
        let back = attrs_from_value(&attrs_to_value(&attrs)).unwrap();
        assert_eq!(back.get("function"), Some(&AttrValue::Str("sample".to_string())));
        assert_eq!(back.get("stateful"), Some(&AttrValue::Bool(false)));
        assert_eq!(back.get("concrete"), None);
    }

    #[test]
    fn tensor_round_trip_all_dtypes() {
        for t in [
            TensorData::from_vec(vec![1.5f32, -2.0], Shape::from([2])).unwrap(),
            TensorData::from_vec(vec![1.5f64, -2.0], Shape::from([2])).unwrap(),
            TensorData::from_vec(vec![1i32, -2], Shape::from([2])).unwrap(),
            TensorData::from_vec(vec![i64::from(i32::MAX) + 1, -2], Shape::from([2])).unwrap(),
            TensorData::from_vec(vec![true, false], Shape::from([2])).unwrap(),
            TensorData::scalar(7.0f32),
        ] {
            let v = tensor_to_value(&t);
            let back = tensor_from_value(&v).unwrap();
            assert_eq!(back, t);
            // And through actual JSON text.
            let reparsed = Value::parse(&v.to_json()).unwrap();
            assert_eq!(tensor_from_value(&reparsed).unwrap(), t);
        }
    }

    #[test]
    fn function_round_trip() {
        let f = sample_fn();
        let v = function_to_value(&f);
        let text = v.to_json_pretty();
        let back = function_from_value(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(back.name, f.name);
        assert_eq!(back.nodes.len(), f.nodes.len());
        assert_eq!(back.inputs, f.inputs);
        assert_eq!(back.outputs, f.outputs);
        assert_eq!(back.output_sigs(), f.output_sigs());
        assert_eq!(back.constants.len(), 1);
        assert_eq!(back.constants[0].scalar_f64().unwrap(), 2.5);
        // Parameters survive.
        let rs = back.nodes.iter().find(|n| n.op == "reduce_sum").unwrap();
        assert_eq!(rs.params, Params::Reduce { axes: vec![1], keep_dims: false });
        // Unknown dim survives.
        assert_eq!(back.arg_sigs()[0].1, SymShape::new(vec![None, Some(3)]));
    }

    #[test]
    fn closure_and_link_round_trip_call_edges() {
        let callee = Arc::new(sample_fn());
        let (d, s) = tfe_ops::encode_sig(&callee.output_sigs());
        let mut b = GraphBuilder::new("caller");
        let x = b.placeholder(DType::F32, SymShape::new(vec![None, Some(3)])).unwrap();
        let attrs = Attrs::new()
            .with("function", callee.handle())
            .with("out_dtypes", d)
            .with("out_shapes", s);
        let y = b.add_node("call", vec![x], attrs).unwrap()[0];
        let caller = Arc::new(b.finish(vec![y], 0));
        let set = closure(&caller).unwrap();
        assert_eq!(set.len(), 2);
        // Through text, in the order written: the caller before its callee.
        let decoded: Vec<GraphFunction> = set
            .iter()
            .map(|f| {
                function_from_value(&Value::parse(&function_to_value(f).to_json()).unwrap())
                    .unwrap()
            })
            .collect();
        let linked = link(decoded.clone()).unwrap();
        assert_eq!(linked.keys().collect::<Vec<_>>(), ["caller", "sample"]);
        let held = linked["caller"].callees();
        assert!(held.len() == 1 && Arc::ptr_eq(&held[0], &linked["sample"]));
        assert_eq!(linked["caller"].structural_hash(), caller.structural_hash());
        // A set without the callee, or with two of one name, does not link.
        assert!(link(decoded[..1].to_vec()).unwrap_err().0.contains("`sample`"));
        assert!(link(vec![decoded[1].clone(), decoded[1].clone()]).is_err());
    }

    fn stateful_fn() -> GraphFunction {
        // read v1 -> assign v1 -> read v1: the second read carries a
        // control edge on the assign.
        let mut b = GraphBuilder::new("stateful");
        let read_attrs = || {
            Attrs::new()
                .with("var_id", 1i64)
                .with("dtype", DType::F32)
                .with("shape", Vec::<i64>::new())
        };
        let r1 = b.add_node("read_variable", vec![], read_attrs()).unwrap()[0];
        let _w = b.add_node("assign", vec![r1], Attrs::new().with("var_id", 1i64)).unwrap();
        let r2 = b.add_node("read_variable", vec![], read_attrs()).unwrap()[0];
        b.finish(vec![r2], 0)
    }

    #[test]
    fn control_edges_round_trip() {
        let f = stateful_fn();
        assert!(f.nodes.iter().any(|n| !n.control_inputs.is_empty()));
        let v = function_to_value(&f);
        let back = function_from_value(&Value::parse(&v.to_json()).unwrap()).unwrap();
        for (a, b) in f.nodes.iter().zip(&back.nodes) {
            assert_eq!(a.control_inputs, b.control_inputs);
        }
    }

    /// The fields the builder derives are neither written nor read. A
    /// payload that carries them — as older writers did — with an `assign`
    /// marked stateless, control lists emptied or pointing forward, and
    /// output signatures that disagree with the attributes, decodes to the
    /// graph the builder makes of its ops, inputs and attributes.
    #[test]
    fn decoded_control_edges_are_the_builders() {
        let f = stateful_fn();
        let mut v = function_to_value(&f);
        let Value::Object(map) = &mut v else { panic!("a function is an object") };
        let Some(Value::Array(nodes)) = map.get_mut("nodes") else { panic!("a node list") };
        for (i, nv) in nodes.iter_mut().enumerate() {
            let Value::Object(n) = nv else { panic!("a node is an object") };
            assert!(["outputs", "stateful", "control"].iter().all(|k| !n.contains_key(*k)));
            let control = if i == 0 { vec![Value::Int(99)] } else { Vec::new() };
            n.insert("control".to_string(), Value::Array(control));
            n.insert("stateful".to_string(), Value::Bool(false));
            n.insert("outputs".to_string(), Value::Array(vec![Value::str("int32")]));
        }
        let back = function_from_value(&v).unwrap();
        assert!(back.nodes.iter().any(|n| !n.control_inputs.is_empty()));
        for (a, b) in f.nodes.iter().zip(&back.nodes) {
            assert_eq!(a.control_inputs, b.control_inputs);
            assert_eq!(a.stateful, b.stateful);
            assert_eq!(a.outputs, b.outputs);
        }
    }

    #[test]
    fn validation_rejects_corrupt_graphs() {
        let f = sample_fn();
        let mut v = function_to_value(&f);
        // Corrupt an input reference to point forward.
        if let Value::Object(map) = &mut v {
            if let Some(Value::Array(nodes)) = map.get_mut("nodes") {
                if let Value::Object(n1) = &mut nodes[2] {
                    n1.insert(
                        "inputs".to_string(),
                        Value::Array(vec![Value::Array(vec![Value::Int(99), Value::Int(0)])]),
                    );
                }
            }
        }
        assert!(function_from_value(&v).is_err());
        assert!(function_from_value(&Value::Null).is_err());
        // A constant past the pool, an input list that is not the
        // placeholders, more captures than inputs, an output past its node.
        let with = |key: &str, value: Value| {
            let mut v = function_to_value(&f);
            if let Value::Object(map) = &mut v {
                map.insert(key.to_string(), value);
            }
            function_from_value(&v)
        };
        assert!(with("constants", Value::Array(Vec::new())).is_err());
        assert!(with("inputs", Value::Array(Vec::new())).is_err());
        assert!(with("num_captures", Value::Int(2)).is_err());
        assert!(with("num_captures", Value::Int(-1)).is_err());
        let past = Value::Array(vec![Value::Array(vec![Value::Int(3), Value::Int(1)])]);
        assert!(with("outputs", past).is_err());
        assert!(with("num_captures", Value::Int(1)).is_ok());
        assert!(tensor_from_value(
            &Value::parse(r#"{"dtype":"f99","shape":[],"data":[]}"#).unwrap()
        )
        .is_err());
    }
}
