//! Graph (de)serialization — the basis of "serializing the program for use
//! without a Python interpreter" (§4.3): a trace plus its constants can be
//! written to disk and executed by a runtime with no tracer present.

use crate::ir::{FunctionLibrary, GraphFunction, Node, NodeId, TensorRef};
use std::sync::Arc;
use tfe_encode::Value;
use tfe_ops::{AttrValue, Attrs, Op, SymShape};
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
    match a {
        AttrValue::Int(v) => {
            Value::object([("t".to_string(), Value::str("i")), ("v".to_string(), Value::Int(*v))])
        }
        AttrValue::Float(v) => {
            Value::object([("t".to_string(), Value::str("f")), ("v".to_string(), Value::Float(*v))])
        }
        AttrValue::Bool(v) => {
            Value::object([("t".to_string(), Value::str("b")), ("v".to_string(), Value::Bool(*v))])
        }
        AttrValue::Str(v) => Value::object([
            ("t".to_string(), Value::str("s")),
            ("v".to_string(), Value::str(v.clone())),
        ]),
        AttrValue::IntList(v) => Value::object([
            ("t".to_string(), Value::str("il")),
            ("v".to_string(), Value::Array(v.iter().map(|&i| Value::Int(i)).collect())),
        ]),
        AttrValue::FloatList(v) => Value::object([
            ("t".to_string(), Value::str("fl")),
            ("v".to_string(), Value::Array(v.iter().map(|&f| Value::Float(f)).collect())),
        ]),
        AttrValue::DType(v) => Value::object([
            ("t".to_string(), Value::str("dt")),
            ("v".to_string(), Value::str(v.name())),
        ]),
    }
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

fn sym_shape_to_value(s: &SymShape) -> Value {
    Value::Array(s.dims().iter().map(|d| d.map_or(Value::Null, |v| Value::Int(v as i64))).collect())
}

fn sym_shape_from_value(v: &Value) -> Result<SymShape, SerialError> {
    let arr = v.as_array().ok_or_else(|| err("bad shape"))?;
    let dims: Result<Vec<Option<usize>>, SerialError> = arr
        .iter()
        .map(|d| match d {
            Value::Null => Ok(None),
            other => other.as_i64().map(|v| Some(v as usize)).ok_or_else(|| err("bad shape dim")),
        })
        .collect();
    Ok(SymShape::new(dims?))
}

/// Encode a full attribute map as a JSON object (used by the distributed
/// wire protocol as well as graph serialization).
pub fn attrs_to_value(attrs: &Attrs) -> Value {
    Value::object(attrs.iter().map(|(k, v)| (k.clone(), attr_to_value(v))))
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

/// Serialize one graph function.
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
                (
                    "attrs".to_string(),
                    Value::object(n.attrs.iter().map(|(k, v)| (k.clone(), attr_to_value(v)))),
                ),
                (
                    "outputs".to_string(),
                    Value::Array(
                        n.outputs
                            .iter()
                            .map(|(d, s)| {
                                Value::Array(vec![Value::str(d.name()), sym_shape_to_value(s)])
                            })
                            .collect(),
                    ),
                ),
                ("stateful".to_string(), Value::Bool(n.stateful)),
                (
                    "control".to_string(),
                    Value::Array(n.control_inputs.iter().map(|c| Value::Int(c.0 as i64)).collect()),
                ),
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

/// Deserialize one graph function.
///
/// # Errors
/// Structural problems in the encoded value.
pub fn function_from_value(v: &Value) -> Result<GraphFunction, SerialError> {
    let name = v.get("name").and_then(Value::as_str).ok_or_else(|| err("missing name"))?;
    let nodes_v = v.get("nodes").and_then(Value::as_array).ok_or_else(|| err("missing nodes"))?;
    let mut nodes = Vec::with_capacity(nodes_v.len());
    // Payloads written before sequencing edges existed lack the per-node
    // "control" field; re-derive the edges from program order in that case.
    let mut legacy_controls = true;
    for nv in nodes_v {
        let op = nv.get("op").and_then(Value::as_str).ok_or_else(|| err("missing op"))?;
        let op = Op::from_name(op).map_err(|e| err(e.to_string()))?;
        let inputs: Result<Vec<TensorRef>, SerialError> = nv
            .get("inputs")
            .and_then(Value::as_array)
            .ok_or_else(|| err("missing inputs"))?
            .iter()
            .map(tensor_ref_from_value)
            .collect();
        let attrs_obj =
            nv.get("attrs").and_then(Value::as_object).ok_or_else(|| err("missing attrs"))?;
        let mut attrs = Attrs::new();
        for (k, av) in attrs_obj {
            attrs.set(k, attr_from_value(av)?);
        }
        let outputs: Result<Vec<(DType, SymShape)>, SerialError> = nv
            .get("outputs")
            .and_then(Value::as_array)
            .ok_or_else(|| err("missing outputs"))?
            .iter()
            .map(|ov| {
                let pair = ov.as_array().ok_or_else(|| err("bad output sig"))?;
                if pair.len() != 2 {
                    return Err(err("bad output sig arity"));
                }
                let dt = pair[0]
                    .as_str()
                    .and_then(DType::from_name)
                    .ok_or_else(|| err("bad output dtype"))?;
                Ok((dt, sym_shape_from_value(&pair[1])?))
            })
            .collect();
        let stateful =
            nv.get("stateful").and_then(Value::as_bool).ok_or_else(|| err("missing stateful"))?;
        let control_inputs = match nv.get("control") {
            Some(cv) => {
                legacy_controls = false;
                cv.as_i64_array()
                    .ok_or_else(|| err("bad control list"))?
                    .into_iter()
                    .map(|i| NodeId(i as usize))
                    .collect()
            }
            // Payload predates control edges; recomputed below once all
            // nodes are decoded.
            None => Vec::new(),
        };
        nodes.push(Node {
            op,
            inputs: inputs?,
            attrs,
            outputs: outputs?,
            stateful,
            control_inputs,
        });
    }
    if legacy_controls {
        let recomputed = crate::sequencing::sequence_control_edges(&nodes);
        for (n, ctrl) in nodes.iter_mut().zip(recomputed) {
            n.control_inputs = ctrl;
        }
    }
    let inputs: Vec<NodeId> = v
        .get("inputs")
        .and_then(Value::as_i64_array)
        .ok_or_else(|| err("missing input list"))?
        .into_iter()
        .map(|i| NodeId(i as usize))
        .collect();
    let outputs: Result<Vec<TensorRef>, SerialError> = v
        .get("outputs")
        .and_then(Value::as_array)
        .ok_or_else(|| err("missing output list"))?
        .iter()
        .map(tensor_ref_from_value)
        .collect();
    let num_captures =
        v.get("num_captures").and_then(Value::as_i64).ok_or_else(|| err("missing num_captures"))?
            as usize;
    let constants: Result<Vec<Arc<TensorData>>, SerialError> = v
        .get("constants")
        .and_then(Value::as_array)
        .ok_or_else(|| err("missing constants"))?
        .iter()
        .map(|c| tensor_from_value(c).map(Arc::new))
        .collect();
    let f = GraphFunction {
        name: name.to_string(),
        nodes,
        inputs,
        outputs: outputs?,
        num_captures,
        constants: constants?,
    };
    // Structural validation: every reference must be in range and point
    // backwards (topological order).
    for (i, node) in f.nodes.iter().enumerate() {
        for t in &node.inputs {
            if t.node.0 >= i {
                return Err(err(format!("node {i} has forward/self reference")));
            }
            if t.output >= f.nodes[t.node.0].outputs.len() {
                return Err(err(format!("node {i} references bad output {t:?}")));
            }
        }
        for c in &node.control_inputs {
            if c.0 >= i {
                return Err(err(format!("node {i} has forward/self control reference")));
            }
        }
    }
    for t in &f.outputs {
        if t.node.0 >= f.nodes.len() || t.output >= f.nodes[t.node.0].outputs.len() {
            return Err(err("function output out of range"));
        }
    }
    for id in &f.inputs {
        if id.0 >= f.nodes.len() || f.nodes[id.0].op != Op::Placeholder {
            return Err(err("function input is not a placeholder"));
        }
    }
    // A negative serialized num_captures wraps to a huge usize; either way it
    // must not exceed the input count or arg-signature slicing underflows.
    if f.num_captures > f.inputs.len() {
        return Err(err(format!(
            "num_captures {} exceeds input count {}",
            f.num_captures,
            f.inputs.len()
        )));
    }
    Ok(f)
}

/// Serialize a whole library (a function plus its callees).
pub fn library_to_value(lib: &FunctionLibrary) -> Value {
    let functions: Vec<Value> = lib
        .names()
        .into_iter()
        .filter_map(|n| lib.get(&n))
        .map(|f| function_to_value(&f))
        .collect();
    Value::object([("functions".to_string(), Value::Array(functions))])
}

/// Deserialize a library.
///
/// # Errors
/// Structural problems in any function.
pub fn library_from_value(v: &Value) -> Result<FunctionLibrary, SerialError> {
    let lib = FunctionLibrary::new();
    let funcs =
        v.get("functions").and_then(Value::as_array).ok_or_else(|| err("missing functions"))?;
    for fv in funcs {
        lib.insert(function_from_value(fv)?);
    }
    Ok(lib)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
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
        // Attrs survive.
        let rs = back.nodes.iter().find(|n| n.op == "reduce_sum").unwrap();
        assert_eq!(rs.attrs.int_list("axes").unwrap(), &[1]);
        // Unknown dim survives.
        assert_eq!(back.arg_sigs()[0].1, SymShape::new(vec![None, Some(3)]));
    }

    #[test]
    fn library_round_trip() {
        let lib = FunctionLibrary::new();
        lib.insert(sample_fn());
        let mut b = GraphBuilder::new("other");
        let x = b.placeholder(DType::F64, SymShape::scalar()).unwrap();
        let y = b.add_node("neg", vec![x], Attrs::new()).unwrap()[0];
        lib.insert(b.finish(vec![y], 0));
        let v = library_to_value(&lib);
        let back = library_from_value(&Value::parse(&v.to_json()).unwrap()).unwrap();
        assert_eq!(back.names(), vec!["other".to_string(), "sample".to_string()]);
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

    #[test]
    fn legacy_payload_recomputes_control_edges() {
        let f = stateful_fn();
        let mut v = function_to_value(&f);
        // Strip the "control" field to mimic a payload written before
        // sequencing edges existed.
        if let Value::Object(map) = &mut v {
            if let Some(Value::Array(nodes)) = map.get_mut("nodes") {
                for nv in nodes {
                    if let Value::Object(n) = nv {
                        n.remove("control");
                    }
                }
            }
        }
        let back = function_from_value(&v).unwrap();
        for (a, b) in f.nodes.iter().zip(&back.nodes) {
            assert_eq!(a.control_inputs, b.control_inputs);
        }
    }

    #[test]
    fn validation_rejects_forward_control_reference() {
        let f = stateful_fn();
        let mut v = function_to_value(&f);
        if let Value::Object(map) = &mut v {
            if let Some(Value::Array(nodes)) = map.get_mut("nodes") {
                if let Value::Object(n0) = &mut nodes[0] {
                    n0.insert("control".to_string(), Value::Array(vec![Value::Int(99)]));
                }
            }
        }
        assert!(function_from_value(&v).is_err());
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
        assert!(tensor_from_value(
            &Value::parse(r#"{"dtype":"f99","shape":[],"data":[]}"#).unwrap()
        )
        .is_err());
    }
}
