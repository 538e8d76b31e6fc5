//! Operation attributes: the static (compile-time, in staging terms)
//! parameters of a primitive operation.
//!
//! Attribute values are part of trace-cache keys (§4.6's binding-time
//! analysis specializes on them), so they implement `Eq`/`Hash` — floats
//! hash by bit pattern.
//!
//! A node that runs something — a callee graph, a compiled fused program, a
//! host closure — holds it as a [`Handle`]: the object itself, plus the
//! label that stands for it where bytes are written or printed.

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use tfe_tensor::DType;

/// What a node runs, held by the node: a shared object and its label (a
/// function name, a program text, `host_fn`).
///
/// Two handles are equal when they hold the same object. A handle hashes and
/// prints as the string of its label, so a graph's structural hash and its
/// listing do not depend on where the object lives, and a handle serializes
/// as its label.
#[derive(Clone)]
pub struct Handle {
    object: Arc<dyn Any + Send + Sync>,
    label: Arc<str>,
}

impl Handle {
    /// Hold `object` under `label`.
    pub fn new<T: Any + Send + Sync>(object: Arc<T>, label: impl Into<Arc<str>>) -> Handle {
        Handle { object, label: label.into() }
    }

    /// The label bytes carry in place of the object.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The object, if it is a `T`.
    pub fn get<T: Any + Send + Sync>(&self) -> Option<Arc<T>> {
        self.object.clone().downcast().ok()
    }
}

impl PartialEq for Handle {
    fn eq(&self, other: &Handle) -> bool {
        std::ptr::addr_eq(Arc::as_ptr(&self.object), Arc::as_ptr(&other.object))
    }
}

impl fmt::Debug for Handle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Handle({:?})", self.label)
    }
}

/// A single attribute value.
#[derive(Debug, Clone)]
pub enum AttrValue {
    /// Integer.
    Int(i64),
    /// Float (compared and hashed by bit pattern).
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
    /// List of integers (shapes, axes, strides...).
    IntList(Vec<i64>),
    /// List of floats.
    FloatList(Vec<f64>),
    /// A tensor dtype.
    DType(DType),
    /// What the node runs, held by it.
    Handle(Handle),
}

impl PartialEq for AttrValue {
    fn eq(&self, other: &AttrValue) -> bool {
        use AttrValue::*;
        match (self, other) {
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a.to_bits() == b.to_bits(),
            (Bool(a), Bool(b)) => a == b,
            (Str(a), Str(b)) => a == b,
            (IntList(a), IntList(b)) => a == b,
            (FloatList(a), FloatList(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (DType(a), DType(b)) => a == b,
            (Handle(a), Handle(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for AttrValue {}

impl std::hash::Hash for AttrValue {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        use AttrValue::*;
        match self {
            Int(v) => {
                0u8.hash(state);
                v.hash(state);
            }
            Float(v) => {
                1u8.hash(state);
                v.to_bits().hash(state);
            }
            Bool(v) => {
                2u8.hash(state);
                v.hash(state);
            }
            Str(v) => {
                3u8.hash(state);
                v.hash(state);
            }
            // As the string of its label (see [`Handle`]).
            Handle(h) => {
                3u8.hash(state);
                h.label().hash(state);
            }
            IntList(v) => {
                4u8.hash(state);
                v.hash(state);
            }
            FloatList(v) => {
                5u8.hash(state);
                for f in v {
                    f.to_bits().hash(state);
                }
            }
            DType(v) => {
                6u8.hash(state);
                v.hash(state);
            }
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::Float(v) => write!(f, "{v}"),
            AttrValue::Bool(v) => write!(f, "{v}"),
            AttrValue::Str(v) => write!(f, "{v:?}"),
            AttrValue::IntList(v) => write!(f, "{v:?}"),
            AttrValue::FloatList(v) => write!(f, "{v:?}"),
            AttrValue::DType(v) => write!(f, "{v}"),
            AttrValue::Handle(h) => write!(f, "{:?}", h.label()),
        }
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> AttrValue {
        AttrValue::Int(v)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> AttrValue {
        AttrValue::Int(v as i64)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> AttrValue {
        AttrValue::Float(v)
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> AttrValue {
        AttrValue::Bool(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> AttrValue {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> AttrValue {
        AttrValue::Str(v)
    }
}

impl From<Vec<i64>> for AttrValue {
    fn from(v: Vec<i64>) -> AttrValue {
        AttrValue::IntList(v)
    }
}

impl From<Vec<f64>> for AttrValue {
    fn from(v: Vec<f64>) -> AttrValue {
        AttrValue::FloatList(v)
    }
}

impl From<DType> for AttrValue {
    fn from(v: DType) -> AttrValue {
        AttrValue::DType(v)
    }
}

impl From<Handle> for AttrValue {
    fn from(v: Handle) -> AttrValue {
        AttrValue::Handle(v)
    }
}

/// An ordered attribute map with typed accessors.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Attrs(BTreeMap<String, AttrValue>);

impl Attrs {
    /// An empty attribute map.
    pub fn new() -> Attrs {
        Attrs::default()
    }

    /// Builder-style insertion.
    pub fn with(mut self, key: &str, value: impl Into<AttrValue>) -> Attrs {
        self.0.insert(key.to_string(), value.into());
        self
    }

    /// Insert a value.
    pub fn set(&mut self, key: &str, value: impl Into<AttrValue>) {
        self.0.insert(key.to_string(), value.into());
    }

    /// Raw lookup.
    pub fn get(&self, key: &str) -> Option<&AttrValue> {
        self.0.get(key)
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterate entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &AttrValue)> {
        self.0.iter()
    }

    /// Typed integer accessor.
    ///
    /// # Errors
    /// Missing key or wrong type.
    pub fn int(&self, key: &str) -> Result<i64, AttrError> {
        match self.get(key) {
            Some(AttrValue::Int(v)) => Ok(*v),
            other => Err(AttrError::new(key, "int", other)),
        }
    }

    /// Integer with a default when absent.
    ///
    /// # Errors
    /// Present but wrong type.
    pub fn int_or(&self, key: &str, default: i64) -> Result<i64, AttrError> {
        match self.get(key) {
            None => Ok(default),
            Some(AttrValue::Int(v)) => Ok(*v),
            other => Err(AttrError::new(key, "int", other)),
        }
    }

    /// Typed float accessor (accepts ints).
    ///
    /// # Errors
    /// Missing key or wrong type.
    pub fn float(&self, key: &str) -> Result<f64, AttrError> {
        match self.get(key) {
            Some(AttrValue::Float(v)) => Ok(*v),
            Some(AttrValue::Int(v)) => Ok(*v as f64),
            other => Err(AttrError::new(key, "float", other)),
        }
    }

    /// Float with a default when absent.
    ///
    /// # Errors
    /// Present but wrong type.
    pub fn float_or(&self, key: &str, default: f64) -> Result<f64, AttrError> {
        match self.get(key) {
            None => Ok(default),
            _ => self.float(key),
        }
    }

    /// Typed bool accessor.
    ///
    /// # Errors
    /// Missing key or wrong type.
    pub fn bool(&self, key: &str) -> Result<bool, AttrError> {
        match self.get(key) {
            Some(AttrValue::Bool(v)) => Ok(*v),
            other => Err(AttrError::new(key, "bool", other)),
        }
    }

    /// Bool with a default when absent.
    ///
    /// # Errors
    /// Present but wrong type.
    pub fn bool_or(&self, key: &str, default: bool) -> Result<bool, AttrError> {
        match self.get(key) {
            None => Ok(default),
            _ => self.bool(key),
        }
    }

    /// Typed string accessor.
    ///
    /// # Errors
    /// Missing key or wrong type.
    pub fn str(&self, key: &str) -> Result<&str, AttrError> {
        match self.get(key) {
            Some(AttrValue::Str(v)) => Ok(v),
            other => Err(AttrError::new(key, "str", other)),
        }
    }

    /// The object held at `key`, if it is a `T`.
    ///
    /// # Errors
    /// Missing key, or anything but a handle to a `T` (a name included).
    pub fn handle<T: Any + Send + Sync>(&self, key: &str) -> Result<Arc<T>, AttrError> {
        let found = self.get(key);
        match found {
            Some(AttrValue::Handle(h)) => h.get(),
            _ => None,
        }
        .ok_or_else(|| AttrError::new(key, std::any::type_name::<T>(), found))
    }

    /// What the node names at `key`: a handle's label, or a string.
    ///
    /// # Errors
    /// Missing key or wrong type.
    pub fn label(&self, key: &str) -> Result<&str, AttrError> {
        match self.get(key) {
            Some(AttrValue::Handle(h)) => Ok(h.label()),
            Some(AttrValue::Str(v)) => Ok(v),
            other => Err(AttrError::new(key, "handle or str", other)),
        }
    }

    /// Typed int-list accessor.
    ///
    /// # Errors
    /// Missing key or wrong type.
    pub fn int_list(&self, key: &str) -> Result<&[i64], AttrError> {
        match self.get(key) {
            Some(AttrValue::IntList(v)) => Ok(v),
            other => Err(AttrError::new(key, "int list", other)),
        }
    }

    /// Int list with a default when absent.
    ///
    /// # Errors
    /// Present but wrong type.
    pub fn int_list_or<'a>(
        &'a self,
        key: &str,
        default: &'a [i64],
    ) -> Result<&'a [i64], AttrError> {
        match self.get(key) {
            None => Ok(default),
            _ => self.int_list(key),
        }
    }

    /// Typed dtype accessor.
    ///
    /// # Errors
    /// Missing key or wrong type.
    pub fn dtype(&self, key: &str) -> Result<DType, AttrError> {
        match self.get(key) {
            Some(AttrValue::DType(v)) => Ok(*v),
            other => Err(AttrError::new(key, "dtype", other)),
        }
    }
}

impl FromIterator<(String, AttrValue)> for Attrs {
    fn from_iter<I: IntoIterator<Item = (String, AttrValue)>>(iter: I) -> Attrs {
        Attrs(iter.into_iter().collect())
    }
}

/// A missing or mistyped attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrError {
    /// The attribute key.
    pub key: String,
    /// What the op expected.
    pub expected: &'static str,
    /// What was found, if anything.
    pub found: Option<String>,
}

impl AttrError {
    fn new(key: &str, expected: &'static str, found: Option<&AttrValue>) -> AttrError {
        AttrError { key: key.to_string(), expected, found: found.map(|v| v.to_string()) }
    }
}

impl fmt::Display for AttrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.found {
            Some(v) => write!(f, "attribute `{}` expected {} but was {v}", self.key, self.expected),
            None => write!(f, "missing required attribute `{}` ({})", self.key, self.expected),
        }
    }
}

impl std::error::Error for AttrError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &AttrValue) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn typed_accessors() {
        let a = Attrs::new()
            .with("n", 3i64)
            .with("rate", 0.5)
            .with("flag", true)
            .with("name", "x")
            .with("dims", vec![1i64, 2])
            .with("dt", DType::F32);
        assert_eq!(a.int("n").unwrap(), 3);
        assert_eq!(a.float("rate").unwrap(), 0.5);
        assert_eq!(a.float("n").unwrap(), 3.0); // int widens to float
        assert!(a.bool("flag").unwrap());
        assert_eq!(a.str("name").unwrap(), "x");
        assert_eq!(a.int_list("dims").unwrap(), &[1, 2]);
        assert_eq!(a.dtype("dt").unwrap(), DType::F32);
    }

    #[test]
    fn defaults_and_errors() {
        let a = Attrs::new().with("n", 3i64);
        assert_eq!(a.int_or("missing", 7).unwrap(), 7);
        assert!(a.bool_or("missing", true).unwrap());
        assert_eq!(a.float_or("missing", 1.5).unwrap(), 1.5);
        let err = a.int("missing").unwrap_err();
        assert!(err.to_string().contains("missing"));
        let err = a.bool("n").unwrap_err();
        assert!(err.to_string().contains("expected bool"));
        assert!(a.int_or("n", 0).is_ok());
        assert!(a.bool_or("n", false).is_err()); // present but wrong type
    }

    #[test]
    fn float_equality_by_bits() {
        assert_eq!(AttrValue::Float(f64::NAN), AttrValue::Float(f64::NAN));
        assert_ne!(AttrValue::Float(0.0), AttrValue::Float(-0.0));
        assert_eq!(hash_of(&AttrValue::Float(1.5)), hash_of(&AttrValue::Float(1.5)));
    }

    #[test]
    fn attrs_equal_independent_of_insertion_order() {
        let a = Attrs::new().with("x", 1i64).with("y", 2i64);
        let b = Attrs::new().with("y", 2i64).with("x", 1i64);
        assert_eq!(a, b);
    }

    #[test]
    fn cross_type_inequality() {
        assert_ne!(AttrValue::Int(1), AttrValue::Float(1.0));
        assert_ne!(AttrValue::Bool(true), AttrValue::Int(1));
        assert_ne!(hash_of(&AttrValue::Int(1)), hash_of(&AttrValue::Float(1.0)));
    }

    #[test]
    fn handles_are_equal_by_object_and_hash_as_their_label() {
        let object = Arc::new(5u32);
        let a = AttrValue::Handle(Handle::new(object.clone(), "f"));
        let b = AttrValue::Handle(Handle::new(object, "g"));
        let c = AttrValue::Handle(Handle::new(Arc::new(5u32), "f"));
        assert_eq!(a, b, "one object");
        assert_ne!(a, c, "two objects under one label");
        assert_eq!(hash_of(&a), hash_of(&c));
        assert_eq!(hash_of(&a), hash_of(&AttrValue::Str("f".into())));
        assert_eq!(a.to_string(), AttrValue::Str("f".into()).to_string());
    }

    #[test]
    fn a_handle_is_read_by_type_and_a_name_is_not_a_handle() {
        let attrs = Attrs::new().with("f", Handle::new(Arc::new(7u32), "seven")).with("n", "seven");
        assert_eq!(*attrs.handle::<u32>("f").unwrap(), 7);
        assert_eq!(attrs.label("f").unwrap(), "seven");
        assert_eq!(attrs.label("n").unwrap(), "seven");
        let wrong_type = attrs.handle::<u64>("f").unwrap_err();
        assert_eq!(wrong_type.found.as_deref(), Some("\"seven\""));
        let name = attrs.handle::<u32>("n").unwrap_err();
        assert_eq!((name.key.as_str(), name.found.as_deref()), ("n", Some("\"seven\"")));
        assert!(attrs.handle::<u32>("missing").unwrap_err().found.is_none());
    }
}
