//! SavedFunction load/call hardening: `import_from_value` must survive
//! systematically mutated bundles (deleted fields, type swaps, negative
//! dims, truncated JSON) without panicking, and `LoadedFunction::call` must
//! reject malformed requests with typed errors instead of unwinding deep in
//! the executor.

use tf_eager::encode::Value;
use tf_eager::prelude::*;
use tf_eager::state::saved::{self, SavedError};
use tf_eager::{OpError, RuntimeError, TensorError};

/// A representative bundle: entry + nested callee, a by-value capture, and
/// a variable, so every importer code path sees mutations. Names are
/// uniqued per call so parallel tests don't race on the function library.
fn bundle() -> Value {
    static N: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let v = Variable::new(TensorData::scalar(2.0f32));
    let k = api::constant(vec![3.0f32, 4.0], [2]).unwrap();
    let inner = function1(&format!("fuzz_inner_{n}"), api::square);
    let f = {
        let v = v.clone();
        let k = k.clone();
        let inner = inner.clone();
        function1(&format!("fuzz_outer_{n}"), move |x| {
            let scaled = api::mul(x, &k)?;
            let squared = inner.call_tensors(&[&scaled])?.remove(0);
            api::mul(&squared, &v.read()?)
        })
    };
    let probe = api::constant(vec![1.0f32, 2.0], [2]).unwrap();
    let conc = f.concrete_for(&[Arg::from(&probe)]).unwrap();
    saved::export_to_value(&conc).unwrap()
}

/// Every (path, mutated_value) pair obtained by replacing or deleting one
/// node of the JSON tree.
fn mutations(v: &Value) -> Vec<(String, Value)> {
    let replacements = [Value::Null, Value::Int(-1), Value::str("bogus"), Value::Array(vec![])];
    let mut out = Vec::new();
    collect_paths(v, String::new(), &mut out);
    let mut result = Vec::new();
    for path in out {
        for r in &replacements {
            let mut m = v.clone();
            if set_at(&mut m, &path, Some(r.clone())) {
                result.push((format!("{path} := {r:?}"), m));
            }
        }
        let mut m = v.clone();
        if set_at(&mut m, &path, None) {
            result.push((format!("delete {path}"), m));
        }
    }
    result
}

fn collect_paths(v: &Value, prefix: String, out: &mut Vec<String>) {
    out.push(prefix.clone());
    match v {
        Value::Object(map) => {
            for (k, child) in map {
                let p = if prefix.is_empty() { format!("/{k}") } else { format!("{prefix}/{k}") };
                collect_paths(child, p, out);
            }
        }
        Value::Array(items) => {
            // Mutating the first element exercises per-element decode paths
            // without exploding the cross product.
            if let Some(first) = items.first() {
                collect_paths(first, format!("{prefix}/0"), out);
            }
        }
        _ => {}
    }
}

/// The node at `path`.
fn get_at<'a>(v: &'a Value, path: &str) -> &'a Value {
    path.split('/').skip(1).fold(v, |node, key| match node {
        Value::Array(items) => &items[key.parse::<usize>().expect("array index")],
        other => other.get(key).unwrap_or_else(|| panic!("no `{key}` on the way to {path}")),
    })
}

/// Replace (`Some`) or delete (`None`) the node at `path`. Returns false if
/// the path can't be resolved (e.g. deleting an array element is modeled as
/// replacement-only).
fn set_at(v: &mut Value, path: &str, replacement: Option<Value>) -> bool {
    if path.is_empty() {
        return match replacement {
            Some(r) => {
                *v = r;
                true
            }
            None => false,
        };
    }
    let (head, rest) = match path[1..].split_once('/') {
        Some((h, r)) => (h, format!("/{r}")),
        None => (&path[1..], String::new()),
    };
    match v {
        Value::Object(map) => {
            if rest.is_empty() && replacement.is_none() {
                return map.remove(head).is_some();
            }
            match map.get_mut(head) {
                Some(child) => set_at(child, &rest, replacement),
                None => false,
            }
        }
        Value::Array(items) => {
            let idx: usize = match head.parse() {
                Ok(i) => i,
                Err(_) => return false,
            };
            match items.get_mut(idx) {
                Some(child) if !(rest.is_empty() && replacement.is_none()) => {
                    set_at(child, &rest, replacement)
                }
                _ => false,
            }
        }
        _ => false,
    }
}

/// The importer must return `Ok` or a typed `SavedError` for every one-node
/// mutation of a valid bundle — the test fails by panicking if any mutation
/// unwinds instead.
#[test]
fn importer_survives_single_node_mutations() {
    let b = bundle();
    let muts = mutations(&b);
    assert!(muts.len() > 100, "expected a broad mutation set, got {}", muts.len());
    let mut rejected = 0usize;
    for (desc, m) in muts {
        match saved::import_from_value(&m) {
            Ok(loaded) => {
                // Survivable mutation: the loaded function must still be
                // callable (or cleanly refuse).
                let x = api::constant(vec![1.0f32, 2.0], [2]).unwrap();
                let _ = loaded.call(&[&x]);
            }
            Err(_) => rejected += 1,
        }
        let _ = desc;
    }
    assert!(rejected > 0, "mutations should trip the validators");
}

/// Truncating the serialized text at every prefix length must never panic:
/// either the parse fails or the import returns a typed error.
#[test]
fn importer_survives_truncation() {
    let text = bundle().to_json();
    let step = (text.len() / 200).max(1);
    for end in (0..text.len()).step_by(step) {
        let prefix = &text[..end];
        if let Ok(v) = Value::parse(prefix) {
            let _ = saved::import_from_value(&v);
        }
    }
}

/// Targeted malformed bundles hit specific typed variants.
#[test]
fn importer_typed_errors() {
    // Not a bundle at all.
    assert!(matches!(saved::import_from_value(&Value::Null), Err(SavedError::Format)));
    let b = bundle();
    // Wrong format tag.
    let mut m = b.clone();
    assert!(set_at(&mut m, "/format", Some(Value::str("tfe-saved-function-v999"))));
    assert!(matches!(saved::import_from_value(&m), Err(SavedError::Format)));
    // Missing field.
    let mut m = b.clone();
    assert!(set_at(&mut m, "/captures", None));
    assert!(matches!(saved::import_from_value(&m), Err(SavedError::Missing("captures"))));
    // Negative dims inside a serialized tensor (the by-value capture) are a
    // decode error, not a shape-overflow panic.
    let mut m = b.clone();
    assert!(set_at(&mut m, "/captures/0/shape", Some(Value::Array(vec![Value::Int(-2)]))));
    assert!(matches!(saved::import_from_value(&m), Err(SavedError::Decode(_))));
    // Huge dims must not overflow the element count.
    let mut m = b.clone();
    let huge = Value::Array(vec![Value::Int(4611686018427387904), Value::Int(8)]);
    assert!(set_at(&mut m, "/captures/0/shape", Some(huge)));
    assert!(saved::import_from_value(&m).is_err());
    // A bundle-relative variable id with no matching definition.
    let mut m = b.clone();
    assert!(set_at(&mut m, "/variables/0/id", Some(Value::Int(424242))));
    assert!(matches!(saved::import_from_value(&m), Err(SavedError::UnknownVariable(_))));
    // A node naming an op the catalog does not have: a name becomes an
    // `Op` while the bundle is decoded, so this is a decode error here, not
    // a failure at the first call.
    let mut m = b.clone();
    assert!(set_at(&mut m, "/functions/0/nodes/0/op", Some(Value::str("nope"))));
    match saved::import_from_value(&m) {
        Err(SavedError::Decode(why)) => assert!(why.contains("unknown operation `nope`"), "{why}"),
        other => panic!("want a decode error, got {:?}", other.map(|_| ())),
    }
    // Dropping a capture trips the arity check against the entry signature.
    let mut m = b.clone();
    assert!(set_at(&mut m, "/captures", Some(Value::Array(vec![]))));
    assert!(matches!(saved::import_from_value(&m), Err(SavedError::CaptureArity { got: 0, .. })));
}

/// A tensor's `data` may arrive as the bytes leaf (in memory), as the base64
/// string the text syntax turns that into, or as the decimal array older
/// bundles hold. Swapping one form for another changes nothing; a payload
/// that does not fit is a typed decode error in every form.
#[test]
fn tensor_data_forms_are_interchangeable() {
    use tf_eager::graph::serial::tensor_from_value;
    let b = bundle();
    let x = api::constant(vec![1.0f32, 2.0], [2]).unwrap();
    let output = |bundle: &Value| {
        let loaded = saved::import_from_value(bundle).expect("bundle loads");
        let y = loaded.call(&[&x]).expect("loaded function runs");
        y[0].to_f64_vec().unwrap().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    };
    let expected = output(&b);

    for tensor_path in ["/captures/0", "/variables/0/value"] {
        let data_path = format!("{tensor_path}/data");
        let tensor = get_at(&b, tensor_path);
        let as_bytes = tensor.get("data").unwrap().clone();
        assert!(matches!(as_bytes, Value::Bytes(_)));
        let as_text = Value::parse(&as_bytes.to_json()).unwrap();
        assert!(matches!(as_text, Value::Str(_)));
        let elements = tensor_from_value(tensor).unwrap().to_f64_vec();
        let as_array = Value::from(elements.clone());
        for form in [as_bytes, as_text, as_array] {
            let mut m = b.clone();
            assert!(set_at(&mut m, &data_path, Some(form)));
            assert_eq!(output(&m), expected, "{data_path}");
        }

        let mut long = elements;
        long.push(0.0);
        for misfit in [
            Value::Bytes(vec![0u8; 3].into()),
            Value::str("AAA"),
            Value::str("not base64!"),
            Value::from(long),
            Value::Array(vec![Value::str("1.0"); 2]),
            Value::Null,
        ] {
            let mut m = b.clone();
            assert!(set_at(&mut m, &data_path, Some(misfit.clone())));
            assert!(
                matches!(saved::import_from_value(&m), Err(SavedError::Decode(_))),
                "{data_path} := {misfit:?}"
            );
        }
    }
}

/// Two million open brackets in a bundle or checkpoint file are a typed
/// error from the parser's nesting limit, not a stack overflow.
#[test]
fn nesting_bomb_in_a_file_is_a_typed_error() {
    use tf_eager::state::{checkpoint, TrackableGroup};
    let dir = std::env::temp_dir().join(format!("tfe_bomb_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, bomb) in [("array", "[".repeat(2_000_000)), ("object", "{\"a\":".repeat(2_000_000))]
    {
        let path = dir.join(name);
        std::fs::write(&path, bomb).unwrap();
        assert!(matches!(saved::import(&path), Err(SavedError::Io(_))));
        assert!(checkpoint::restore(&TrackableGroup::new(), &path).is_err());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `LoadedFunction::call` validates arity, dtype, and shape up front with
/// typed errors.
#[test]
fn loaded_call_rejects_malformed_requests() {
    let loaded = saved::import_from_value(&bundle()).unwrap();
    assert_eq!(loaded.num_args(), 1);
    let good = api::constant(vec![1.0f32, 2.0], [2]).unwrap();
    assert!(loaded.call(&[&good]).is_ok());

    // Wrong arity.
    assert!(matches!(loaded.call(&[]), Err(RuntimeError::Op(OpError::Arity { got: 0, .. }))));
    assert!(matches!(
        loaded.call(&[&good, &good]),
        Err(RuntimeError::Op(OpError::Arity { got: 2, .. }))
    ));
    // Wrong dtype.
    let f64_arg = api::constant(vec![1.0f64, 2.0], [2]).unwrap();
    assert!(matches!(
        loaded.call(&[&f64_arg]),
        Err(RuntimeError::Tensor(TensorError::DTypeMismatch { .. }))
    ));
    // Wrong shape.
    let wide = api::constant(vec![1.0f32, 2.0, 3.0], [3]).unwrap();
    assert!(matches!(
        loaded.call(&[&wide]),
        Err(RuntimeError::Tensor(TensorError::ShapeMismatch { .. }))
    ));
}
