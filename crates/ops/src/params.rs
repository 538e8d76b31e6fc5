//! Op parameters as typed values: [`Params`], and the one place where the
//! string-keyed [`Attrs`] of the boundary become them and back.
//!
//! They are decoded where an op's name becomes an [`Op`]
//! (`GraphBuilder::add_node`, a decoded graph, the distributed worker's op
//! step); the eager API builds them typed. Nodes, tape records, kernels,
//! inference and gradients then read fields, as TensorFlow's kernels read
//! their attributes once, at construction.
//!
//! The table below is the contract: per variant the ops that take it, per
//! field its attribute key and its default when absent (none: required).
//! [`Params::decode`], the only reader of keys, applies every default and
//! range check once and refuses a missing, mistyped or out-of-range value
//! with a typed [`OpError`]. [`Params::to_attrs`], the only writer (bundles,
//! wire frames, listings), writes every field, except
//! `matmul`'s flags when neither is set and an `unless` field holding that
//! value. An output signature is the texts `out_dtypes`/`out_shapes`.

use crate::attr::{AttrError, AttrValue, Attrs, Handle};
use crate::opdef::{Op, OpError, OutputSig};
use crate::symshape::SymShape;
use std::hash::{Hash, Hasher};
use tfe_tensor::conv::Padding;
use tfe_tensor::DType;

/// A float parameter, compared and hashed by bit pattern (as attribute
/// floats are), so that parameters can key a cache.
#[derive(Debug, Clone, Copy)]
pub struct Float(pub f64);

impl PartialEq for Float {
    fn eq(&self, other: &Float) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}

impl Eq for Float {}

impl Hash for Float {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

/// `while_loop`'s trip limit when the node does not name one.
pub const DEFAULT_MAX_ITERATIONS: usize = 1_000_000;

/// Declares [`Params`] from the table below, with its decoder and writer.
macro_rules! params {
    ($(
        $(#[$doc:meta])*
        $variant:ident [$($op:pat),+] $({
            $($field:ident: $ty:ty = $key:literal $($mode:ident $default:expr)?),*
        })?
    )*) => {
        /// The parameters of one op instance: one variant per parameter
        /// family, each field named after the attribute it is written as.
        #[derive(Debug, Clone, PartialEq, Eq, Hash)]
        pub enum Params {
            $($(#[$doc])* $variant $({
                $(#[doc = concat!("Attribute `", $key, "`.")] $field: $ty),*
            })?,)*
        }

        impl Params {
            fn read(op: Op, a: &Attrs) -> Result<Params, OpError> {
                Ok(match op {
                    $($($op)|+ => Params::$variant $({$(
                        $field: Param::read(a, $key, params!(@or $($default)?))?,
                    )*})?,)*
                })
            }

            /// Whether these are parameters `op` takes.
            pub fn fits(&self, op: Op) -> bool {
                matches!((op, self), $(($($op)|+, Params::$variant { .. }))|*)
            }

            fn write(&self) -> Attrs {
                let mut a = Attrs::new();
                match self {
                    $(Params::$variant $({ $($field),* })? => {$($(
                        if params!(@kept $field $($mode $default)?) {
                            a = $field.write(a, $key);
                        }
                    )*)?})*
                }
                a
            }
        }
    };
    (@or) => { None };
    (@or $default:expr) => { Some($default) };
    (@kept $field:ident $(or $default:expr)?) => { true };
    (@kept $field:ident unless $default:expr) => { *$field != $default };
}

params! {
    /// The op takes no parameter.
    None [
        Op::Unary(_), Op::Binary(_), Op::Compare(_), Op::Logical(_), Op::LogicalNot, Op::Select,
        Op::Identity, Op::ZerosLike, Op::OnesLike, Op::ShapeOf, Op::RankOf, Op::SizeOf,
        Op::SumToLike, Op::Softmax, Op::LogSoftmax, Op::SparseSoftmaxXent, Op::SoftmaxXentGrad
    ]
    /// `cast`: the result dtype.
    Cast [Op::Cast] { dtype: DType = "dtype" }
    /// `fused_elementwise`: the compiled program, labelled with its text.
    Fused [Op::FusedElementwise] { program: Handle = "program" }
    /// `const`: an entry of the function's constant pool.
    Const [Op::Const] {
        dtype: DType = "dtype", shape: Vec<usize> = "shape", index: usize = "value_index"
    }
    /// `placeholder`: an argument's signature (an unknown dim is `-1`).
    Placeholder [Op::Placeholder] { dtype: DType = "dtype", shape: SymShape = "shape" }
    /// `fill`: every element `value`.
    Fill [Op::Fill] {
        dtype: DType = "dtype", shape: Vec<usize> = "shape", value: Float = "value" or Float(0.0)
    }
    /// `eye`: an `n`×`n` identity.
    Eye [Op::Eye] { dtype: DType = "dtype", n: usize = "n" }
    /// `range`: `count` values from `start` by `step`.
    Range [Op::Range] {
        dtype: DType = "dtype", start: Float = "start" or Float(0.0),
        step: Float = "step" or Float(1.0), count: usize = "count"
    }
    /// `reshape`: the target dims, at most one of them `-1`.
    Reshape [Op::Reshape] { shape: Vec<i64> = "shape" }
    /// `broadcast_to`: the target dims.
    BroadcastTo [Op::BroadcastTo] { shape: Vec<usize> = "shape" }
    /// `transpose`: output axis `i` is input axis `perm[i]`.
    Transpose [Op::Transpose] { perm: Vec<usize> = "perm" }
    /// `tile`: repeats per axis.
    Tile [Op::Tile] { multiples: Vec<usize> = "multiples" }
    /// One axis, negative from the end.
    Axis [
        Op::ExpandDims, Op::Concat, Op::Gather, Op::GatherGrad, Op::Reverse, Op::Cumsum,
        Op::Argmax, Op::Argmin
    ] { axis: i64 = "axis" or 0 }
    /// `squeeze`: the axes to drop; every axis of extent 1 when empty.
    Squeeze [Op::Squeeze] { axes: Vec<i64> = "axes" or Vec::new() }
    /// The reductions: the axes (every axis when empty), and whether they
    /// stay with extent 1.
    Reduce [
        Op::ReduceSum, Op::ReduceMean, Op::ReduceMax, Op::ReduceMin, Op::ReduceProd,
        Op::ReduceAny, Op::ReduceAll
    ] { axes: Vec<i64> = "axes" or Vec::new(), keep_dims: bool = "keep_dims" or false }
    /// `split` into `num` (at least 1) equal parts.
    Split [Op::Split] { num: usize = "num", axis: i64 = "axis" }
    /// `slice`: start and extent per axis (`-1` runs to the end).
    Slice [Op::Slice] { begin: Vec<i64> = "begin", size: Vec<i64> = "size" }
    /// `slice_grad`: where the slice started.
    SliceGrad [Op::SliceGrad] { begin: Vec<i64> = "begin" }
    /// `pad`: (before, after) per axis.
    Pad [Op::Pad] {
        paddings: Vec<(usize, usize)> = "paddings", value: Float = "value" or Float(0.0)
    }
    /// `one_hot`: the length of the new last axis.
    OneHot [Op::OneHot] { depth: usize = "depth", dtype: DType = "dtype" }
    /// `print`: printed before the value.
    Print [Op::Print] { message: String = "message" or String::new() }
    /// `copy` to the device of that name.
    Copy [Op::Copy] { device: String = "device" }
    /// `matmul`, `batch_matmul`: use an operand transposed.
    Matmul [Op::Matmul, Op::BatchMatmul] {
        transpose_a: bool = "transpose_a" or false, transpose_b: bool = "transpose_b" or false
    }
    /// `conv2d` and its backprops: positive strides.
    Conv [Op::Conv2d, Op::Conv2dBackpropInput, Op::Conv2dBackpropFilter] {
        strides: (usize, usize) = "strides" or (1, 1), padding: Padding = "padding" or Padding::Same
    }
    /// The pools and their gradients: a positive window and strides.
    Pool [Op::MaxPool, Op::AvgPool, Op::MaxPoolGrad, Op::AvgPoolGrad] {
        ksize: (usize, usize) = "ksize", strides: (usize, usize) = "strides" or (1, 1),
        padding: Padding = "padding" or Padding::Same
    }
    /// `random_normal`, `truncated_normal`.
    Normal [Op::RandomNormal, Op::TruncatedNormal] {
        dtype: DType = "dtype", shape: Vec<usize> = "shape", mean: Float = "mean" or Float(0.0),
        stddev: Float = "stddev" or Float(1.0)
    }
    /// `random_uniform` over `[low, high)`.
    Uniform [Op::RandomUniform] {
        dtype: DType = "dtype", shape: Vec<usize> = "shape", low: Float = "low" or Float(0.0),
        high: Float = "high" or Float(1.0)
    }
    /// `dropout_mask`: the probability of keeping an element, in (0, 1].
    Dropout [Op::DropoutMask] { keep_prob: Float = "keep_prob" }
    /// `read_variable`: the variable and its signature.
    ReadVariable [Op::ReadVariable] {
        var_id: i64 = "var_id", dtype: DType = "dtype", shape: Vec<usize> = "shape"
    }
    /// The assigns.
    Assign [Op::Assign, Op::AssignAdd, Op::AssignSub] { var_id: i64 = "var_id" }
    /// `call` of a graph function (§4.6): the callee (only its name before a
    /// decoded graph is linked), the traced function its gradient
    /// differentiates (never written to bytes), and the variables it
    /// touches.
    Call [Op::Call] {
        function: Handle = "function", concrete: Option<Handle> = "concrete" or None,
        stateful: bool = "stateful" or false, outputs: OutputSig = "out",
        var_ids: Vec<i64> = "var_ids" or Vec::new()
    }
    /// `host_func` (§4.7): the host closure (a name only, once decoded).
    HostFunc [Op::HostFunc] { closure: Handle = "host_fn", outputs: OutputSig = "out" }
    /// `cond`: the branches, and the traced functions their gradients
    /// differentiate (never written to bytes).
    Cond [Op::Cond] {
        then_fn: Handle = "then_fn", else_fn: Handle = "else_fn",
        then_concrete: Option<Handle> = "then_concrete" or None,
        else_concrete: Option<Handle> = "else_concrete" or None, outputs: OutputSig = "out",
        stateful: bool = "stateful" or false, var_ids: Vec<i64> = "var_ids" or Vec::new()
    }
    /// `while_loop`: trips beyond `max_iterations` fail the loop.
    WhileLoop [Op::WhileLoop] {
        cond_fn: Handle = "cond_fn", body_fn: Handle = "body_fn",
        stateful: bool = "stateful" or false,
        max_iterations: usize = "max_iterations" unless DEFAULT_MAX_ITERATIONS
    }
}

fn refused(key: &str, expected: &'static str, found: Option<&AttrValue>) -> OpError {
    OpError::Attr(AttrError::new(key, expected, found))
}

/// A field type of the table: how it is read from and written to attributes.
trait Param: Sized {
    fn read(a: &Attrs, key: &str, default: Option<Self>) -> Result<Self, OpError>;
    fn write(&self, a: Attrs, key: &str) -> Attrs;
}

/// `key`'s value through `from`, `default` when absent.
fn read_with<T>(
    a: &Attrs,
    key: &str,
    default: Option<T>,
    expected: &'static str,
    from: impl Fn(&AttrValue) -> Option<T>,
) -> Result<T, OpError> {
    match a.get(key) {
        None => default.ok_or_else(|| refused(key, expected, None)),
        Some(v) => from(v).ok_or_else(|| refused(key, expected, Some(v))),
    }
}

/// A field type held by one attribute value: the values it is read from,
/// and the value it is written as.
macro_rules! param {
    ($ty:ty, $expected:literal, [$($pat:pat $(if $if:expr)? => $from:expr),+], |$x:ident| $to:expr)
        => {
        impl Param for $ty {
            fn read(a: &Attrs, key: &str, default: Option<$ty>) -> Result<$ty, OpError> {
                read_with(a, key, default, $expected, |v| match v {
                    $($pat $(if $if)? => $from,)+
                    _ => None,
                })
            }
            fn write(&self, a: Attrs, key: &str) -> Attrs {
                let $x = self;
                a.with(key, $to)
            }
        }
    };
}

fn counts(list: &[i64]) -> Option<Vec<usize>> {
    list.iter().map(|&d| usize::try_from(d).ok()).collect()
}

fn int_list(values: impl IntoIterator<Item = usize>) -> AttrValue {
    AttrValue::IntList(values.into_iter().map(|v| v as i64).collect())
}

use AttrValue::{Bool, Int, IntList, Str};
param!(bool, "bool", [Bool(b) => Some(*b)], |x| *x);
param!(i64, "int", [Int(i) => Some(*i)], |x| *x);
param!(usize, "a non-negative int", [Int(i) => usize::try_from(*i).ok()], |x| *x);
param!(Float, "float", [AttrValue::Float(f) => Some(Float(*f)), Int(i) => Some(Float(*i as f64))],
    |x| x.0);
param!(String, "str", [Str(s) => Some(s.clone())], |x| x.as_str());
param!(DType, "dtype", [AttrValue::DType(d) => Some(*d)], |x| *x);
param!(Padding, "SAME or VALID", [Str(s) => Padding::from_name(s)], |x| x.name());
param!(Vec<i64>, "int list", [IntList(l) => Some(l.clone())], |x| x.clone());
param!(Vec<usize>, "a list of non-negative ints", [IntList(l) => counts(l)],
    |x| int_list(x.iter().copied()));
param!(Vec<(usize, usize)>, "(before, after) pairs of non-negative ints",
    [IntList(l) if l.len() % 2 == 0 => Some(counts(l)?.chunks(2).map(|p| (p[0], p[1])).collect())],
    |x| int_list(x.iter().flat_map(|&(b, e)| [b, e])));
param!((usize, usize), "two positive ints",
    [IntList(l) => match counts(l)?[..] { [a, b] if a > 0 && b > 0 => Some((a, b)), _ => None }],
    |x| int_list([x.0, x.1]));
// An unknown dim is any negative entry, and is written as -1.
param!(SymShape, "int list",
    [IntList(l) => Some(SymShape::new(l.iter().map(|&d| d.try_into().ok()).collect::<Vec<_>>()))],
    |x| IntList(x.dims().iter().map(|d| d.map_or(-1, |v| v as i64)).collect()));
// What a node holds; bytes carry a name in its place, which reads as a
// handle that holds nothing else.
param!(Handle, "handle or str",
    [AttrValue::Handle(h) => Some(h.clone()), Str(name) => Some(Handle::name(name))],
    |x| x.clone());

/// A handle held only in this process: absent unless set.
impl Param for Option<Handle> {
    fn read(a: &Attrs, key: &str, default: Option<Self>) -> Result<Self, OpError> {
        read_with(a, key, default, "handle", |v| match v {
            AttrValue::Handle(h) => Some(Some(h.clone())),
            _ => None,
        })
    }
    fn write(&self, a: Attrs, key: &str) -> Attrs {
        match self {
            Some(h) => a.with(key, h.clone()),
            None => a,
        }
    }
}

/// An output signature: the texts `{key}_dtypes` and `{key}_shapes`.
impl Param for OutputSig {
    fn read(a: &Attrs, key: &str, _: Option<Self>) -> Result<Self, OpError> {
        let text = |part: &str| String::read(a, &format!("{key}_{part}"), None);
        decode_sig(&text("dtypes")?, &text("shapes")?)
    }
    fn write(&self, a: Attrs, key: &str) -> Attrs {
        let (dtypes, shapes) = encode_sig(self);
        a.with(&format!("{key}_dtypes"), dtypes).with(&format!("{key}_shapes"), shapes)
    }
}

/// The callee handles of `params`, by reference or by mutable reference.
macro_rules! callees {
    ($params:expr) => {
        match $params {
            Params::Call { function, .. } => [Some(function), None],
            Params::Cond { then_fn, else_fn, .. } => [Some(then_fn), Some(else_fn)],
            Params::WhileLoop { cond_fn, body_fn, .. } => [Some(cond_fn), Some(body_fn)],
            _ => [None, None],
        }
    };
}

impl Params {
    /// The parameters of `op` from its attributes: every key of the op's
    /// row of the table, its default when absent, and its range.
    ///
    /// # Errors
    /// [`OpError::Attr`] for a missing, mistyped or out-of-range value;
    /// whatever [`Params::check`] refuses.
    pub fn decode(op: Op, attrs: &Attrs) -> Result<Params, OpError> {
        let p = Params::read(op, attrs)?;
        p.check()?;
        Ok(p)
    }

    /// The attribute form of these parameters (the module docs say which
    /// keys), handles included: bytes write a handle as its label and
    /// leave out the ones that never travel.
    pub fn to_attrs(&self) -> Attrs {
        match self {
            // As the eager API writes a plain product.
            Params::Matmul { transpose_a: false, transpose_b: false } => Attrs::new(),
            _ => self.write(),
        }
    }

    /// The ranges a typed value can still break: what `decode` checks after
    /// reading, and what shape inference checks of a value the eager API
    /// built itself.
    ///
    /// # Errors
    /// [`OpError::Invalid`] naming the rule.
    pub fn check(&self) -> Result<(), OpError> {
        let elements = |dims: &[usize]| dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
        let positive = |(a, b): (usize, usize)| a > 0 && b > 0;
        let wildcards = |dims: &[i64]| dims.iter().filter(|&&d| d == -1).count();
        let broken = match self {
            Params::Const { shape, .. }
            | Params::Fill { shape, .. }
            | Params::BroadcastTo { shape }
            | Params::Normal { shape, .. }
            | Params::Uniform { shape, .. }
            | Params::ReadVariable { shape, .. }
                if elements(shape).is_none() =>
            {
                "more elements than fit in memory"
            }
            Params::Eye { n, .. } if n.checked_mul(*n).is_none() => {
                "more elements than fit in memory"
            }
            Params::Reshape { shape } if shape.iter().any(|&d| d < -1) || wildcards(shape) > 1 => {
                "a reshape target takes no negative dim but one -1"
            }
            Params::Split { num: 0, .. } => "split num must be >= 1",
            Params::Conv { strides, .. } | Params::Pool { strides, .. } if !positive(*strides) => {
                "strides must be two positive ints"
            }
            Params::Pool { ksize, .. } if !positive(*ksize) => "ksize must be two positive ints",
            Params::Dropout { keep_prob: Float(p) } if !(*p > 0.0 && *p <= 1.0) => {
                "keep_prob must lie in (0, 1]"
            }
            _ => return Ok(()),
        };
        Err(OpError::Invalid(format!("{broken}: {self:?}")))
    }

    /// The error a reader gives when the parameters are not its op's.
    pub fn mismatch(&self) -> OpError {
        OpError::Invalid(format!("the parameters {self:?} are not this op's"))
    }

    /// The one axis of an op that takes one.
    ///
    /// # Errors
    /// Parameters of another family.
    pub fn axis(&self) -> Result<i64, OpError> {
        match self {
            Params::Axis { axis } => Ok(*axis),
            p => Err(p.mismatch()),
        }
    }

    /// A reduction's axes and `keep_dims`.
    ///
    /// # Errors
    /// Parameters of another family.
    pub fn reduction(&self) -> Result<(&[i64], bool), OpError> {
        match self {
            Params::Reduce { axes, keep_dims } => Ok((axes, *keep_dims)),
            p => Err(p.mismatch()),
        }
    }

    /// A product's transpose flags.
    ///
    /// # Errors
    /// Parameters of another family.
    pub fn transposes(&self) -> Result<(bool, bool), OpError> {
        match self {
            Params::Matmul { transpose_a, transpose_b } => Ok((*transpose_a, *transpose_b)),
            p => Err(p.mismatch()),
        }
    }

    /// Whether the parameters declare side effects: a `call`, `cond` or
    /// `while_loop` of a stateful function.
    pub fn is_stateful(&self) -> bool {
        matches!(
            self,
            Params::Call { stateful: true, .. }
                | Params::Cond { stateful: true, .. }
                | Params::WhileLoop { stateful: true, .. }
        )
    }

    /// The variable a `read_variable` or an assign names.
    pub fn var_id(&self) -> Option<i64> {
        match self {
            Params::ReadVariable { var_id, .. } | Params::Assign { var_id } => Some(*var_id),
            _ => None,
        }
    }

    /// The variables a `call` or `cond` names.
    pub fn var_ids(&self) -> &[i64] {
        match self {
            Params::Call { var_ids, .. } | Params::Cond { var_ids, .. } => var_ids,
            _ => &[],
        }
    }

    /// Every variable named, with a mutable hold on it: what a load remaps.
    pub fn var_ids_mut(&mut self) -> Vec<&mut i64> {
        match self {
            Params::ReadVariable { var_id, .. } | Params::Assign { var_id } => vec![var_id],
            Params::Call { var_ids, .. } | Params::Cond { var_ids, .. } => {
                var_ids.iter_mut().collect()
            }
            _ => Vec::new(),
        }
    }

    /// The graph functions a `call`, `cond` or `while_loop` holds.
    pub fn callees(&self) -> impl Iterator<Item = &Handle> {
        callees!(self).into_iter().flatten()
    }

    /// [`Params::callees`], to link.
    pub fn callees_mut(&mut self) -> impl Iterator<Item = &mut Handle> {
        callees!(self).into_iter().flatten()
    }
}

/// Encode an output signature as the `out_dtypes`/`out_shapes` texts of a
/// `call`, `host_func` or `cond`: `f32,i64` and `(?,3);()`.
pub fn encode_sig(sig: &[(DType, SymShape)]) -> (String, String) {
    let dim = |d: &Option<usize>| d.map_or("?".to_string(), |v| v.to_string());
    let shape =
        |s: &SymShape| format!("({})", s.dims().iter().map(dim).collect::<Vec<_>>().join(","));
    let dtypes = sig.iter().map(|(d, _)| d.name()).collect::<Vec<_>>().join(",");
    (dtypes, sig.iter().map(|(_, s)| shape(s)).collect::<Vec<_>>().join(";"))
}

/// Decode the texts [`encode_sig`] writes.
fn decode_sig(dtypes: &str, shapes: &str) -> Result<OutputSig, OpError> {
    if dtypes.is_empty() {
        return Ok(Vec::new());
    }
    let bad = |what: &str, text: &str| OpError::Invalid(format!("bad {what} `{text}`"));
    let dim = |p: &str| match p {
        "?" => Ok(None),
        _ => p.parse::<usize>().map(Some).map_err(|_| bad("dim", p)),
    };
    let shape = |s: &str| -> Result<SymShape, OpError> {
        let inner = s.strip_prefix('(').and_then(|s| s.strip_suffix(')'));
        let dims =
            inner.ok_or_else(|| bad("shape encoding", s))?.split(',').filter(|p| !p.is_empty());
        Ok(SymShape::new(dims.map(dim).collect::<Result<Vec<_>, _>>()?))
    };
    let dts = dtypes.split(',').map(|n| DType::from_name(n).ok_or_else(|| bad("dtype name", n)));
    let (dts, shs): (Vec<_>, Vec<_>) = (dts.collect(), shapes.split(';').map(shape).collect());
    if dts.len() != shs.len() {
        let counts = format!("{} dtypes vs {} shapes", dts.len(), shs.len());
        return Err(OpError::Invalid(format!("signature mismatch: {counts}")));
    }
    dts.into_iter().zip(shs).map(|(d, s)| Ok((d?, s?))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Representative parameters of `op`: every field off its default.
    fn representative(op: Op) -> Params {
        let sig = vec![
            (DType::F32, SymShape::new(vec![None, Some(3)])),
            (DType::I64, SymShape::scalar()),
        ];
        let h = |label: &str| Handle::new(Arc::new(7u32), label);
        let attrs = match op {
            Op::Cast => Attrs::new().with("dtype", DType::F64),
            Op::FusedElementwise => Attrs::new().with("program", h("in:0;neg:0")),
            Op::Const => Attrs::new()
                .with("dtype", DType::I32)
                .with("shape", vec![2i64, 3])
                .with("value_index", 4i64),
            Op::Placeholder => Attrs::new().with("dtype", DType::F32).with("shape", vec![-1i64, 3]),
            Op::Fill => {
                Attrs::new().with("dtype", DType::F64).with("shape", vec![2i64]).with("value", 2.5)
            }
            Op::Eye => Attrs::new().with("dtype", DType::F32).with("n", 3i64),
            Op::Range => Attrs::new()
                .with("dtype", DType::I64)
                .with("start", 1.0)
                .with("step", 2.0)
                .with("count", 5i64),
            Op::Reshape => Attrs::new().with("shape", vec![2i64, -1]),
            Op::BroadcastTo => Attrs::new().with("shape", vec![4i64, 3]),
            Op::Transpose => Attrs::new().with("perm", vec![1i64, 0]),
            Op::Tile => Attrs::new().with("multiples", vec![2i64, 1]),
            Op::Squeeze => Attrs::new().with("axes", vec![0i64]),
            Op::Split => Attrs::new().with("num", 2i64).with("axis", -1i64),
            Op::Slice => Attrs::new().with("begin", vec![1i64]).with("size", vec![-1i64]),
            Op::SliceGrad => Attrs::new().with("begin", vec![1i64]),
            Op::Pad => Attrs::new().with("paddings", vec![1i64, 2]).with("value", -1.0),
            Op::OneHot => Attrs::new().with("depth", 4i64).with("dtype", DType::F32),
            Op::Print => Attrs::new().with("message", "x = "),
            Op::Copy => Attrs::new().with("device", "/cpu:1"),
            Op::Matmul | Op::BatchMatmul => {
                Attrs::new().with("transpose_a", true).with("transpose_b", false)
            }
            Op::Conv2d | Op::Conv2dBackpropInput | Op::Conv2dBackpropFilter => {
                Attrs::new().with("strides", vec![2i64, 1]).with("padding", "VALID")
            }
            Op::MaxPool | Op::AvgPool | Op::MaxPoolGrad | Op::AvgPoolGrad => Attrs::new()
                .with("ksize", vec![3i64, 2])
                .with("strides", vec![2i64, 1])
                .with("padding", "VALID"),
            Op::RandomNormal | Op::TruncatedNormal => Attrs::new()
                .with("dtype", DType::F32)
                .with("shape", vec![2i64])
                .with("mean", 1.0)
                .with("stddev", 0.5),
            Op::RandomUniform => Attrs::new()
                .with("dtype", DType::F32)
                .with("shape", vec![2i64])
                .with("low", -1.0)
                .with("high", 2.0),
            Op::DropoutMask => Attrs::new().with("keep_prob", 0.25),
            Op::ReadVariable => Attrs::new()
                .with("var_id", 9i64)
                .with("dtype", DType::F32)
                .with("shape", vec![2i64]),
            Op::Assign | Op::AssignAdd | Op::AssignSub => Attrs::new().with("var_id", 9i64),
            Op::Call => Params::Call {
                function: h("f"),
                concrete: Some(h("f")),
                stateful: true,
                outputs: sig.clone(),
                var_ids: vec![1, 2],
            }
            .to_attrs(),
            Op::HostFunc => {
                Params::HostFunc { closure: h("host_fn"), outputs: sig.clone() }.to_attrs()
            }
            Op::Cond => Params::Cond {
                then_fn: h("t"),
                else_fn: h("e"),
                then_concrete: Some(h("t")),
                else_concrete: None,
                outputs: sig.clone(),
                stateful: true,
                var_ids: vec![3],
            }
            .to_attrs(),
            Op::WhileLoop => Attrs::new()
                .with("cond_fn", h("c"))
                .with("body_fn", h("b"))
                .with("stateful", true)
                .with("max_iterations", 10i64),
            _ if matches!(Params::decode(op, &Attrs::new()), Ok(Params::Axis { .. })) => {
                Attrs::new().with("axis", -2i64)
            }
            _ if matches!(Params::decode(op, &Attrs::new()), Ok(Params::Reduce { .. })) => {
                Attrs::new().with("axes", vec![1i64, 0]).with("keep_dims", true)
            }
            _ => Attrs::new().with("axis", 1i64), // ignored by ops without parameters
        };
        Params::decode(op, &attrs).unwrap_or_else(|e| panic!("{op}: {e}"))
    }

    #[test]
    fn every_op_round_trips_through_its_attributes() {
        for op in Op::all() {
            let p = representative(op);
            assert_eq!(Params::decode(op, &p.to_attrs()).as_ref(), Ok(&p), "{op}");
            if p != Params::None {
                assert_ne!(
                    p,
                    Params::decode(op, &Params::None.to_attrs()).unwrap_or(Params::None),
                    "{op}"
                );
            }
        }
    }

    #[test]
    fn defaults_apply_once_and_mistyped_values_are_refused() {
        assert_eq!(
            Params::decode(Op::Conv2d, &Attrs::new()),
            Ok(Params::Conv { strides: (1, 1), padding: Padding::Same })
        );
        let mistyped = Params::decode(Op::Conv2d, &Attrs::new().with("padding", 7i64));
        assert!(
            matches!(mistyped, Err(OpError::Attr(ref e)) if e.key == "padding"),
            "{mistyped:?}"
        );
        let message = Params::decode(Op::Print, &Attrs::new().with("message", 3i64));
        assert!(matches!(message, Err(OpError::Attr(ref e)) if e.key == "message"));
        assert!(Params::decode(Op::Matmul, &Attrs::new().with("transpose_a", 1i64)).is_err());
        for (op, key) in
            [(Op::Eye, "n"), (Op::Range, "count"), (Op::OneHot, "depth"), (Op::Split, "num")]
        {
            let attrs = Attrs::new().with(key, -1i64).with("dtype", DType::F32).with("axis", 0i64);
            let e = Params::decode(op, &attrs).unwrap_err();
            assert!(matches!(&e, OpError::Attr(a) if a.key == key), "{op}: {e}");
        }
        assert!(
            Params::decode(Op::Split, &Attrs::new().with("num", 0i64).with("axis", 0i64)).is_err()
        );
        let huge = Attrs::new().with("dtype", DType::F32).with("n", i64::MAX);
        assert!(matches!(Params::decode(Op::Eye, &huge), Err(OpError::Invalid(_))));
    }

    #[test]
    fn a_callee_name_is_a_handle_that_holds_nothing_else() {
        let attrs = Params::Call {
            function: Handle::name("f"),
            concrete: None,
            stateful: false,
            outputs: Vec::new(),
            var_ids: Vec::new(),
        }
        .to_attrs();
        let Params::Call { function, .. } = Params::decode(Op::Call, &attrs).unwrap() else {
            panic!("a call");
        };
        assert_eq!(function.label(), "f");
        assert!(function.get::<u32>().is_none());
        let named = Params::decode(
            Op::Call,
            &Attrs::new().with("function", "g").with("out_dtypes", "").with("out_shapes", ""),
        );
        assert!(matches!(named, Ok(Params::Call { function, .. }) if function.label() == "g"));
    }

    #[test]
    fn sig_encoding_round_trips() {
        let sig = vec![
            (DType::F32, SymShape::new(vec![Some(2), None])),
            (DType::Bool, SymShape::scalar()),
            (DType::I32, SymShape::new(vec![Some(7)])),
        ];
        let (d, s) = encode_sig(&sig);
        assert_eq!(decode_sig(&d, &s).unwrap(), sig);
        let (d, s) = encode_sig(&[]);
        assert_eq!(decode_sig(&d, &s).unwrap(), vec![]);
        assert!(decode_sig("f32", "(1);(2)").is_err());
    }
}
