//! Operation attributes: the boundary form of an op's parameters — what
//! bundles, wire frames and `GraphBuilder::add_node` carry, keyed by name.
//!
//! Inside the process an op's parameters are a typed
//! [`Params`](crate::Params), decoded from an [`Attrs`] once where the op
//! enters (the `params` module says where) and written back only where
//! bytes or listings leave. Attribute values implement `Eq`/`Hash` — floats
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

    /// A handle that holds nothing but `label`: what a decoded node names
    /// in place of the object until it is linked.
    pub fn name(label: &str) -> Handle {
        Handle::new(Arc::new(()), label)
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

impl Eq for Handle {}

/// As its label, like the [`AttrValue`] that carries it.
impl std::hash::Hash for Handle {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.label.hash(state);
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

/// An ordered attribute map: the boundary form of an op's parameters, which
/// [`Params::decode`](crate::Params::decode) reads and
/// [`Params::to_attrs`](crate::Params::to_attrs) writes.
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
    pub(crate) fn new(key: &str, expected: &'static str, found: Option<&AttrValue>) -> AttrError {
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
    fn a_named_handle_holds_only_its_label() {
        let named = Handle::name("seven");
        assert_eq!(named.label(), "seven");
        assert!(named.get::<u32>().is_none());
        let held = Handle::new(Arc::new(7u32), "seven");
        assert_eq!(held.get::<u32>().as_deref(), Some(&7));
        assert!(held.get::<u64>().is_none());
        assert_ne!(named, held, "two objects under one label");
    }
}
