//! The op set as a type: [`Op`], and what every op declares about itself
//! ([`OpDef`]).
//!
//! The paper's central implementation claim (§1, §5) is that imperative and
//! staged execution *share a single set of primitive operations*. In this
//! workspace that set is the closed enum [`Op`]: the eager dispatcher, the
//! graph IR, shape inference, the kernel table and the gradient table are
//! all `match`es over it, so an op that lacks a definition, a kernel or a
//! gradient decision does not compile. An op has a *name* only at the
//! edges of the process — `GraphBuilder::add_node`, deserialized graphs and
//! the distributed worker's op step — where [`Op::from_name`] turns it
//! into the value everything else carries, and
//! [`Params::decode`](crate::Params::decode) its attributes into typed
//! parameters beside it.

use crate::attr::AttrError;
use crate::params::Params;
use crate::symshape::SymShape;
use std::fmt;
use tfe_tensor::elementwise::{BinaryOp, CmpOp, LogicalOp, UnaryOp};
use tfe_tensor::{DType, TensorError};

/// Errors from op lookup, validation, or shape inference.
#[derive(Debug, Clone, PartialEq)]
pub enum OpError {
    /// The name is not an op of the catalog.
    UnknownOp(String),
    /// Wrong number of inputs.
    Arity {
        /// Op name.
        op: String,
        /// Human-readable expectation.
        expected: String,
        /// Actual count.
        got: usize,
    },
    /// A missing or mistyped attribute.
    Attr(AttrError),
    /// A shape/dtype error surfaced during inference.
    Shape(TensorError),
    /// Anything else.
    Invalid(String),
}

impl fmt::Display for OpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpError::UnknownOp(name) => write!(f, "unknown operation `{name}`"),
            OpError::Arity { op, expected, got } => {
                write!(f, "op `{op}` expected {expected} inputs, got {got}")
            }
            OpError::Attr(e) => write!(f, "{e}"),
            OpError::Shape(e) => write!(f, "{e}"),
            OpError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for OpError {}

impl From<TensorError> for OpError {
    fn from(e: TensorError) -> OpError {
        OpError::Shape(e)
    }
}

/// Number-of-inputs contract for an op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arity {
    /// Exactly `n` inputs.
    Exact(usize),
    /// At least `n` inputs (variadic ops like `concat`).
    AtLeast(usize),
}

impl Arity {
    /// Validate an input count.
    ///
    /// # Errors
    /// [`OpError::Arity`] when violated.
    pub fn check(self, op: &str, got: usize) -> Result<(), OpError> {
        let ok = match self {
            Arity::Exact(n) => got == n,
            Arity::AtLeast(n) => got >= n,
        };
        if ok {
            Ok(())
        } else {
            let expected = match self {
                Arity::Exact(n) => format!("exactly {n}"),
                Arity::AtLeast(n) => format!("at least {n}"),
            };
            Err(OpError::Arity { op: op.to_string(), expected, got })
        }
    }
}

/// What shape inference sees: input types/shapes plus the op's parameters.
#[derive(Debug)]
pub struct InferCtx<'a> {
    /// Input dtypes.
    pub dtypes: &'a [DType],
    /// Input (possibly symbolic) shapes.
    pub shapes: &'a [SymShape],
    /// Op parameters.
    pub params: &'a Params,
}

impl<'a> InferCtx<'a> {
    /// dtype of input `i`.
    ///
    /// # Errors
    /// Index out of range.
    pub fn dtype(&self, i: usize) -> Result<DType, OpError> {
        self.dtypes.get(i).copied().ok_or_else(|| OpError::Invalid(format!("missing input {i}")))
    }

    /// shape of input `i`.
    ///
    /// # Errors
    /// Index out of range.
    pub fn shape(&self, i: usize) -> Result<&SymShape, OpError> {
        self.shapes.get(i).ok_or_else(|| OpError::Invalid(format!("missing input {i}")))
    }
}

/// Estimated work for one execution of an op (device-independent; the
/// simulator in `tfe-bench` turns it into time).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WorkEstimate {
    /// Floating-point (or equivalent) operations.
    pub flops: f64,
    /// Bytes of memory traffic.
    pub bytes: f64,
}

/// Inferred output signature: dtype and symbolic shape per output.
pub type OutputSig = Vec<(DType, SymShape)>;

type InferFn = fn(&InferCtx) -> Result<OutputSig, OpError>;
type WorkFn = fn(&InferCtx, &OutputSig) -> WorkEstimate;

/// What a primitive operation declares about itself: arity, statefulness,
/// shape inference and an analytic work estimate. One `'static` value per
/// op (or per elementwise family), handed out by [`Op::def`].
#[derive(Debug)]
pub struct OpDef {
    arity: Arity,
    stateful: bool,
    infer: InferFn,
    work: Option<WorkFn>,
}

impl OpDef {
    /// A stateless definition with the default work estimate.
    pub(crate) const fn new(arity: Arity, infer: InferFn) -> OpDef {
        OpDef { arity, stateful: false, infer, work: None }
    }

    /// Mark the op stateful (random ops, variable ops, `host_func`...).
    /// Stateful ops are never pruned, folded, or deduplicated.
    pub(crate) const fn stateful(mut self) -> OpDef {
        self.stateful = true;
        self
    }

    /// Attach a custom work estimate (default: one flop per output element
    /// and read+write memory traffic).
    pub(crate) const fn with_work(mut self, work: WorkFn) -> OpDef {
        self.work = Some(work);
        self
    }

    /// Arity contract.
    pub fn arity(&self) -> Arity {
        self.arity
    }

    /// Whether the op has side effects.
    pub fn is_stateful(&self) -> bool {
        self.stateful
    }
}

/// Element count of a symbolic shape, substituting `unknown_as` for every
/// unknown dimension (work estimates use 1... callers pick).
pub fn elems_or(s: &SymShape, unknown_as: usize) -> usize {
    s.dims().iter().map(|d| d.unwrap_or(unknown_as)).product::<usize>().max(1)
}

/// Declares [`Op`]: the four elementwise families reuse the kernel enums of
/// `tfe_tensor::elementwise`; every other op is one variant, named once.
macro_rules! ops {
    ($($variant:ident => $name:literal,)*) => {
        /// A primitive operation of the catalog — `Copy`, comparable and
        /// hashable, so op identity costs nothing to carry or to key on.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Op {
            /// A unary elementwise op (`neg`, `exp`, `relu`...).
            Unary(UnaryOp),
            /// A binary elementwise op (`add`, `mul`, `maximum`...).
            Binary(BinaryOp),
            /// A comparison producing booleans (`equal`, `less`...).
            Compare(CmpOp),
            /// A boolean binary op (`logical_and`...).
            Logical(LogicalOp),
            $(#[doc = concat!("`", $name, "`")] $variant,)*
        }

        const PLAIN_OPS: &[Op] = &[$(Op::$variant,)*];

        impl Op {
            /// The stable lowercase name: what graph dumps, bundles and
            /// wire frames print.
            pub fn name(self) -> &'static str {
                match self {
                    Op::Unary(op) => op.name(),
                    Op::Binary(op) => op.name(),
                    Op::Compare(op) => op.name(),
                    Op::Logical(op) => op.name(),
                    $(Op::$variant => $name,)*
                }
            }

            /// Inverse of [`Op::name`], for the places a name enters the
            /// process (see the module docs).
            ///
            /// # Errors
            /// [`OpError::UnknownOp`].
            pub fn from_name(name: &str) -> Result<Op, OpError> {
                let plain = match name {
                    $($name => Some(Op::$variant),)*
                    _ => None,
                };
                plain
                    .or_else(|| BinaryOp::from_name(name).map(Op::Binary))
                    .or_else(|| UnaryOp::from_name(name).map(Op::Unary))
                    .or_else(|| CmpOp::from_name(name).map(Op::Compare))
                    .or_else(|| LogicalOp::from_name(name).map(Op::Logical))
                    .ok_or_else(|| OpError::UnknownOp(name.to_string()))
            }
        }
    };
}

ops! {
    LogicalNot => "logical_not",
    Select => "select",
    Cast => "cast",
    FusedElementwise => "fused_elementwise",
    Const => "const",
    Placeholder => "placeholder",
    Identity => "identity",
    ZerosLike => "zeros_like",
    OnesLike => "ones_like",
    Fill => "fill",
    Eye => "eye",
    Range => "range",
    ShapeOf => "shape_of",
    RankOf => "rank_of",
    SizeOf => "size_of",
    Reshape => "reshape",
    Transpose => "transpose",
    ExpandDims => "expand_dims",
    Squeeze => "squeeze",
    Concat => "concat",
    Split => "split",
    Slice => "slice",
    SliceGrad => "slice_grad",
    Pad => "pad",
    Gather => "gather",
    GatherGrad => "gather_grad",
    Tile => "tile",
    BroadcastTo => "broadcast_to",
    SumToLike => "sum_to_like",
    OneHot => "one_hot",
    Reverse => "reverse",
    Copy => "copy",
    Print => "print",
    Matmul => "matmul",
    BatchMatmul => "batch_matmul",
    ReduceSum => "reduce_sum",
    ReduceMean => "reduce_mean",
    ReduceMax => "reduce_max",
    ReduceMin => "reduce_min",
    ReduceProd => "reduce_prod",
    ReduceAny => "reduce_any",
    ReduceAll => "reduce_all",
    Argmax => "argmax",
    Argmin => "argmin",
    Cumsum => "cumsum",
    Conv2d => "conv2d",
    Conv2dBackpropInput => "conv2d_backprop_input",
    Conv2dBackpropFilter => "conv2d_backprop_filter",
    MaxPool => "max_pool",
    AvgPool => "avg_pool",
    MaxPoolGrad => "max_pool_grad",
    AvgPoolGrad => "avg_pool_grad",
    Softmax => "softmax",
    LogSoftmax => "log_softmax",
    SparseSoftmaxXent => "sparse_softmax_xent",
    SoftmaxXentGrad => "softmax_xent_grad",
    RandomNormal => "random_normal",
    RandomUniform => "random_uniform",
    TruncatedNormal => "truncated_normal",
    DropoutMask => "dropout_mask",
    ReadVariable => "read_variable",
    Assign => "assign",
    AssignAdd => "assign_add",
    AssignSub => "assign_sub",
    Call => "call",
    HostFunc => "host_func",
    Cond => "cond",
    WhileLoop => "while_loop",
}

impl Op {
    /// Every op of the catalog.
    pub fn all() -> impl Iterator<Item = Op> {
        let unary = UnaryOp::all().iter().map(|&op| Op::Unary(op));
        let binary = BinaryOp::all().iter().map(|&op| Op::Binary(op));
        let compare = CmpOp::all().iter().map(|&op| Op::Compare(op));
        let logical = LogicalOp::all().iter().map(|&op| Op::Logical(op));
        unary.chain(binary).chain(compare).chain(logical).chain(PLAIN_OPS.iter().copied())
    }

    /// The op's definition. Total: every op has one, and finding it takes
    /// no lock and no lookup.
    pub fn def(self) -> &'static OpDef {
        crate::catalog::def(self)
    }

    /// Run shape inference (validates arity and the parameters' ranges
    /// first).
    ///
    /// # Errors
    /// Arity violations, parameters out of range or not the op's, or shape
    /// incompatibilities.
    pub fn infer(self, ctx: &InferCtx) -> Result<OutputSig, OpError> {
        let def = self.def();
        def.arity.check(self.name(), ctx.dtypes.len())?;
        if !ctx.params.fits(self) {
            return Err(ctx.params.mismatch());
        }
        ctx.params.check()?;
        if ctx.dtypes.len() != ctx.shapes.len() {
            return Err(OpError::Invalid("dtype/shape count mismatch".to_string()));
        }
        (def.infer)(ctx)
    }

    /// Estimate the work of one execution given inferred outputs.
    pub fn work(self, ctx: &InferCtx, outputs: &OutputSig) -> WorkEstimate {
        if let Some(work) = self.def().work {
            return work(ctx, outputs);
        }
        // Default: elementwise over outputs; inputs and outputs traffic.
        let out_elems: f64 =
            outputs.iter().map(|(dt, s)| elems_or(s, 1) as f64 * dt.size_bytes() as f64).sum();
        let in_bytes: f64 = ctx
            .dtypes
            .iter()
            .zip(ctx.shapes)
            .map(|(dt, s)| elems_or(s, 1) as f64 * dt.size_bytes() as f64)
            .sum();
        let out_flops: f64 = outputs.iter().map(|(_, s)| elems_or(s, 1) as f64).sum();
        WorkEstimate { flops: out_flops, bytes: in_bytes + out_elems }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// `node.op == "relu"`: an op equals its name.
impl PartialEq<&str> for Op {
    fn eq(&self, name: &&str) -> bool {
        self.name() == *name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_checks() {
        assert!(Arity::Exact(2).check("x", 2).is_ok());
        assert!(Arity::Exact(2).check("x", 3).is_err());
        assert!(Arity::AtLeast(1).check("x", 5).is_ok());
        assert!(Arity::AtLeast(1).check("x", 0).is_err());
    }

    #[test]
    fn every_op_round_trips_through_its_unique_name_and_has_a_def() {
        let mut names = std::collections::HashSet::new();
        for op in Op::all() {
            assert_eq!(Op::from_name(op.name()), Ok(op));
            assert!(names.insert(op.name()), "name `{}` is used twice", op.name());
            assert_eq!(op, op.name());
            assert_eq!(op.to_string(), op.name());
            // Total: answers for every op, stateful or not.
            let _ = (op.def().arity(), op.def().is_stateful());
        }
        assert_eq!(names.len(), 107);
        assert_eq!(Op::from_name("nope"), Err(OpError::UnknownOp("nope".to_string())));
        assert_eq!(Op::from_name(""), Err(OpError::UnknownOp(String::new())));
    }

    #[test]
    fn infer_validates_arity() {
        let ctx = InferCtx { dtypes: &[], shapes: &[], params: &Params::None };
        assert!(matches!(Op::RankOf.infer(&ctx), Err(OpError::Arity { .. })));
    }

    #[test]
    fn default_work_estimate() {
        let shapes = [SymShape::known(&tfe_tensor::Shape::from([8]))];
        let ctx = InferCtx { dtypes: &[DType::F32], shapes: &shapes, params: &Params::None };
        let out = Op::RankOf.infer(&ctx).unwrap();
        let w = Op::RankOf.work(&ctx, &out);
        assert_eq!(w.flops, 1.0); // scalar output
        assert!(w.bytes >= 32.0); // read 8 f32
    }
}
