//! SavedFunction export/import: serialize a trace for execution without the
//! tracer (§4.3: "staging enables serializing the program for use without a
//! Python interpreter ... a production environment that executes the trace
//! using TensorFlow's C++ API").
//!
//! A bundle contains the entry graph function, the transitive closure of
//! the graph functions it calls, the values of its captured tensors, and
//! the values of every variable it references. Importing recreates fresh
//! variables and rewrites variable references, so a bundle is
//! self-contained and independent of the process that produced it. A host
//! closure (`host_func`) is host code, not part of the trace, so a function
//! that embeds one is not exported.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use tfe_core::ConcreteFunction;
use tfe_encode::Value;
use tfe_graph::serial::{
    self, function_from_value, function_to_value, tensor_from_value, tensor_to_value,
};
use tfe_graph::GraphFunction;
use tfe_ops::{Op, Params};
use tfe_runtime::{context, RuntimeError, Tensor, Variable};

/// Errors from SavedFunction export/import.
#[derive(Debug, Clone, PartialEq)]
pub enum SavedError {
    /// The value is not a saved-function bundle (wrong/missing format tag).
    Format,
    /// A required bundle field is missing or has the wrong type.
    Missing(&'static str),
    /// A nested tensor or function failed structural decode.
    Decode(String),
    /// The bundle references a variable id it does not define.
    UnknownVariable(i64),
    /// Capture count disagrees with the entry function's signature.
    CaptureArity {
        /// Captures the entry signature declares.
        expected: usize,
        /// Captures the bundle actually carries.
        got: usize,
    },
    /// Export-side failure (symbolic capture, dead variable, missing
    /// function).
    Export(String),
    /// File I/O or JSON parse failure.
    Io(String),
}

impl std::fmt::Display for SavedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SavedError::Format => {
                write!(f, "saved function error: not a tfe saved-function bundle")
            }
            SavedError::Missing(field) => {
                write!(f, "saved function error: missing or malformed field `{field}`")
            }
            SavedError::Decode(msg) => write!(f, "saved function error: {msg}"),
            SavedError::UnknownVariable(id) => {
                write!(f, "saved function error: bundle references unknown variable {id}")
            }
            SavedError::CaptureArity { expected, got } => {
                write!(
                    f,
                    "saved function error: bundle has {got} captures, entry expects {expected}"
                )
            }
            SavedError::Export(msg) => write!(f, "saved function export error: {msg}"),
            SavedError::Io(msg) => write!(f, "saved function error: {msg}"),
        }
    }
}

impl std::error::Error for SavedError {}

fn err(msg: impl Into<String>) -> SavedError {
    SavedError::Export(msg.into())
}

/// Export a concrete function (and everything it needs) to a JSON value.
///
/// # Errors
/// Symbolic captures (the function must be traced at the top level), dead
/// variables, an embedded host closure, or two callees of one name.
pub fn export_to_value(concrete: &ConcreteFunction) -> Result<Value, SavedError> {
    let functions = serial::closure(&concrete.function).map_err(|e| err(e.0))?;
    if let Some(f) = functions.iter().find(|f| f.nodes.iter().any(|n| n.op == Op::HostFunc)) {
        return Err(err(format!(
            "function `{}` embeds a host closure, which a bundle cannot carry",
            f.name
        )));
    }

    // Captured tensors (must be concrete).
    let captures: Vec<Value> = concrete
        .captures
        .iter()
        .map(|t| {
            t.value()
                .map(|d| tensor_to_value(&d))
                .map_err(|e| err(format!("cannot export symbolic capture: {e}")))
        })
        .collect::<Result<_, _>>()?;

    // Referenced variables (ids collected from every function in the
    // closure, not just the entry).
    let mut var_ids: HashSet<i64> = concrete.var_ids.iter().copied().collect();
    for f in &functions {
        for node in &f.nodes {
            var_ids.extend(node.params.var_id());
        }
    }
    let mut var_ids: Vec<i64> = var_ids.into_iter().collect();
    var_ids.sort_unstable();
    let variables: Vec<Value> = var_ids
        .iter()
        .map(|&id| {
            let storage = tfe_runtime::variable_registry()
                .resolve(id as u64)
                .map_err(|e| err(format!("variable {id}: {e}")))?;
            Ok(Value::object([
                ("id".to_string(), Value::Int(id)),
                ("value".to_string(), tensor_to_value(&storage.value())),
            ]))
        })
        .collect::<Result<_, SavedError>>()?;

    Ok(Value::object([
        ("format".to_string(), Value::str("tfe-saved-function-v1")),
        ("entry".to_string(), Value::str(concrete.function.name.clone())),
        (
            "functions".to_string(),
            Value::Array(functions.iter().map(|f| function_to_value(f)).collect()),
        ),
        ("captures".to_string(), Value::Array(captures)),
        ("variables".to_string(), Value::Array(variables)),
    ]))
}

/// Export to a file.
///
/// # Errors
/// Export or I/O failures.
pub fn export(concrete: &ConcreteFunction, path: impl AsRef<Path>) -> Result<(), SavedError> {
    let v = export_to_value(concrete)?;
    std::fs::write(path, v.to_json()).map_err(|e| err(format!("write failed: {e}")))
}

/// A function loaded from a SavedFunction bundle, ready to execute. It owns
/// what the load created — the graph functions, the recreated variables,
/// the captures — and all of it goes when this is dropped.
pub struct LoadedFunction {
    entry: Arc<GraphFunction>,
    /// The attributes of a call of `entry`, which they hold.
    call_params: Params,
    n_args: usize,
    /// Expected (dtype, symbolic shape) per non-capture argument.
    arg_sigs: Vec<(tfe_tensor::DType, tfe_ops::SymShape)>,
    captures: Vec<Tensor>,
    /// Recreated variables, keyed by their id in the *bundle*.
    pub variables: HashMap<i64, Variable>,
}

impl LoadedFunction {
    /// Number of (non-capture) tensor arguments the entry function takes.
    pub fn num_args(&self) -> usize {
        self.n_args
    }

    /// The entry function's name.
    pub fn entry_name(&self) -> &str {
        &self.entry.name
    }

    /// The entry function, which holds every function it calls.
    pub fn entry(&self) -> &Arc<GraphFunction> {
        &self.entry
    }

    /// Expected (dtype, symbolic shape) of each non-capture argument.
    pub fn arg_sigs(&self) -> &[(tfe_tensor::DType, tfe_ops::SymShape)] {
        &self.arg_sigs
    }

    /// Invoke the loaded graph function.
    ///
    /// Arguments are validated up front against the entry signature so a
    /// malformed request fails with a typed error here rather than a panic
    /// (or an opaque internal error) deep inside the executor.
    ///
    /// # Errors
    /// Arity, dtype, or shape mismatches; execution failures.
    pub fn call(&self, args: &[&Tensor]) -> Result<Vec<Tensor>, RuntimeError> {
        if args.len() != self.n_args {
            return Err(RuntimeError::Op(tfe_ops::OpError::Arity {
                op: self.entry.name.clone(),
                expected: format!("{} arguments", self.n_args),
                got: args.len(),
            }));
        }
        for (i, (arg, (dtype, shape))) in args.iter().zip(&self.arg_sigs).enumerate() {
            if arg.dtype() != *dtype {
                return Err(tfe_tensor::TensorError::DTypeMismatch {
                    expected: format!("{dtype:?} for argument {i} of `{}`", self.entry.name),
                    got: arg.dtype(),
                }
                .into());
            }
            let got = arg.shape()?;
            if !shape.matches(&got) {
                return Err(tfe_tensor::TensorError::ShapeMismatch {
                    expected: format!("{shape} for argument {i} of `{}`", self.entry.name),
                    got,
                }
                .into());
            }
        }
        let mut inputs: Vec<Tensor> = args.iter().map(|&t| t.clone()).collect();
        inputs.extend(self.captures.iter().cloned());
        context::execute(Op::Call, &inputs, self.call_params.clone())
    }
}

/// Import a bundle, recreating variables and linking each function's calls
/// to the functions of the bundle.
///
/// # Errors
/// Malformed bundles, including a call of a function the bundle lacks.
pub fn import_from_value(v: &Value) -> Result<LoadedFunction, SavedError> {
    tfe_core::init();
    if v.get("format").and_then(Value::as_str) != Some("tfe-saved-function-v1") {
        return Err(SavedError::Format);
    }
    let entry = v.get("entry").and_then(Value::as_str).ok_or(SavedError::Missing("entry"))?;

    // Recreate variables with fresh ids.
    let mut var_map: HashMap<i64, Variable> = HashMap::new();
    for vv in
        v.get("variables").and_then(Value::as_array).ok_or(SavedError::Missing("variables"))?
    {
        let id =
            vv.get("id").and_then(Value::as_i64).ok_or(SavedError::Missing("variables[].id"))?;
        let data =
            tensor_from_value(vv.get("value").ok_or(SavedError::Missing("variables[].value"))?)
                .map_err(|e| SavedError::Decode(e.to_string()))?;
        var_map.insert(id, Variable::new(data));
    }
    let id_map: HashMap<i64, i64> = var_map.iter().map(|(old, v)| (*old, v.id() as i64)).collect();

    // Decode the functions, rewrite their variable references, and link
    // their calls. Each bundle id maps to its own fresh variable, so the
    // sequencing edges the decoder derived from the bundle's ids still hold.
    let functions =
        v.get("functions").and_then(Value::as_array).ok_or(SavedError::Missing("functions"))?;
    let mut decoded = Vec::with_capacity(functions.len());
    for fv in functions {
        let mut f = function_from_value(fv).map_err(|e| SavedError::Decode(e.to_string()))?;
        for id in f.nodes.iter_mut().flat_map(|n| n.params.var_ids_mut()) {
            *id = *id_map.get(id).ok_or(SavedError::UnknownVariable(*id))?;
        }
        decoded.push(f);
    }
    let linked = serial::link(decoded).map_err(|e| SavedError::Decode(e.to_string()))?;
    let entry_fn = linked
        .get(entry)
        .cloned()
        .ok_or_else(|| SavedError::Decode(format!("entry function `{entry}` not in bundle")))?;
    let captures: Vec<Tensor> = v
        .get("captures")
        .and_then(Value::as_array)
        .ok_or(SavedError::Missing("captures"))?
        .iter()
        .map(|cv| {
            tensor_from_value(cv)
                .map(Tensor::from_data)
                .map_err(|e| SavedError::Decode(e.to_string()))
        })
        .collect::<Result<_, _>>()?;
    if captures.len() != entry_fn.num_captures {
        return Err(SavedError::CaptureArity {
            expected: entry_fn.num_captures,
            got: captures.len(),
        });
    }
    let call_params = Params::Call {
        function: entry_fn.handle(),
        concrete: None,
        stateful: entry_fn.is_stateful(),
        outputs: entry_fn.output_sigs(),
        var_ids: Vec::new(),
    };
    // `function_from_value` guarantees num_captures <= inputs.len().
    Ok(LoadedFunction {
        n_args: entry_fn.inputs.len() - entry_fn.num_captures,
        arg_sigs: entry_fn.arg_sigs(),
        entry: entry_fn,
        call_params,
        captures,
        variables: var_map,
    })
}

/// Import from a file.
///
/// # Errors
/// I/O or decode failures.
pub fn import(path: impl AsRef<Path>) -> Result<LoadedFunction, SavedError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| SavedError::Io(format!("read failed: {e}")))?;
    let v = Value::parse(&text).map_err(|e| SavedError::Io(format!("parse failed: {e}")))?;
    import_from_value(&v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfe_core::{function, function1, Arg};
    use tfe_runtime::api;
    use tfe_tensor::{DType, TensorData};

    #[test]
    fn stateless_function_round_trips() {
        let f = function1("savable", |x| api::relu(&api::add(x, x)?));
        let conc = f.concrete_for(&[Arg::from(&api::zeros(DType::F32, [3]))]).unwrap();
        let bundle = export_to_value(&conc).unwrap();
        let loaded = import_from_value(&bundle).unwrap();
        assert_eq!(loaded.num_args(), 1);
        let x = api::constant(vec![-1.0f32, 0.5, 2.0], [3]).unwrap();
        let y = loaded.call(&[&x]).unwrap();
        assert_eq!(y[0].to_f64_vec().unwrap(), vec![0.0, 1.0, 4.0]);
    }

    #[test]
    fn captures_serialized_by_value() {
        let k = api::constant(vec![10.0f32, 100.0], [2]).unwrap();
        let f = {
            let k = k.clone();
            function1("cap_save", move |x| api::mul(x, &k))
        };
        let conc = f.concrete_for(&[Arg::from(&api::zeros(DType::F32, [2]))]).unwrap();
        let bundle = export_to_value(&conc).unwrap();
        let loaded = import_from_value(&bundle).unwrap();
        let y = loaded.call(&[&api::ones(DType::F32, [2])]).unwrap();
        assert_eq!(y[0].to_f64_vec().unwrap(), vec![10.0, 100.0]);
    }

    #[test]
    fn variables_recreated_and_rewired() {
        let v = Variable::new(TensorData::scalar(5.0f32));
        let f = {
            let v = v.clone();
            function("var_save", move |args| {
                let x = args[0].as_tensor().unwrap();
                v.assign_add(x)?;
                Ok(vec![v.read()?])
            })
        };
        let conc = f.concrete_for(&[Arg::from(&api::scalar(0.0f32))]).unwrap();
        let bundle = export_to_value(&conc).unwrap();
        let loaded = import_from_value(&bundle).unwrap();
        assert_eq!(loaded.variables.len(), 1);
        // The loaded copy has its own storage seeded from the export.
        let y = loaded.call(&[&api::scalar(1.0f32)]).unwrap();
        assert_eq!(y[0].scalar_f64().unwrap(), 6.0);
        let y = loaded.call(&[&api::scalar(1.0f32)]).unwrap();
        assert_eq!(y[0].scalar_f64().unwrap(), 7.0);
        // Original untouched.
        assert_eq!(v.peek().scalar_f64().unwrap(), 5.0);
    }

    #[test]
    fn nested_functions_exported_transitively() {
        let inner = function1("saved_inner", api::square);
        let outer = {
            let inner = inner.clone();
            function1("saved_outer", move |x| Ok(inner.call_tensors(&[x])?.remove(0)))
        };
        let conc = outer.concrete_for(&[Arg::from(&api::scalar(3.0f64))]).unwrap();
        let bundle = export_to_value(&conc).unwrap();
        let n_functions = bundle.get("functions").and_then(Value::as_array).unwrap().len();
        assert!(n_functions >= 2, "expected entry + callee, got {n_functions}");
        let loaded = import_from_value(&bundle).unwrap();
        let y = loaded.call(&[&api::scalar(4.0f64)]).unwrap();
        assert_eq!(y[0].scalar_f64().unwrap(), 16.0);
    }

    #[test]
    fn file_round_trip_and_validation() {
        let f = function1("file_save", api::neg);
        let conc = f.concrete_for(&[Arg::from(&api::scalar(1.0f32))]).unwrap();
        let dir = std::env::temp_dir().join(format!("tfe_saved_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fn.json");
        export(&conc, &path).unwrap();
        let loaded = import(&path).unwrap();
        assert_eq!(loaded.call(&[&api::scalar(2.0f32)]).unwrap()[0].scalar_f64().unwrap(), -2.0);
        // Wrong arity rejected.
        assert!(loaded.call(&[]).is_err());
        // Garbage rejected.
        assert!(import_from_value(&Value::Null).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
