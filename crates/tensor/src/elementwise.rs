//! Elementwise binary/unary/comparison kernels with NumPy-style broadcasting.
//!
//! Every kernel fills its output through [`Tiler`], the one tiler of every
//! elementwise map (the fused tile executor in `tfe-graph` runs on it too),
//! and reads and writes typed slices: a comparison runs in the operands' own
//! type. Every operand is read through [`lanes::Operand`], as the fused tile
//! executor reads its inputs: one whose shape is a suffix of the output's
//! through contiguous windows, any other gathered along the crate's one
//! index walk, `shape::strided`, into tile scratch.
//!
//! The op enums here double as the instruction set of the fused-elementwise
//! interpreter in `tfe-graph` (our XLA stand-in), so every op is a small,
//! named, pure function.

use crate::data::{Scalar, Scratch};
use crate::lanes::{self, map_binary, map_unary, Operand, Tiler};
use crate::shape::broadcast_shapes;
use crate::{DType, Result, TensorData, TensorError};

/// Floating-point scalars with transcendental math.
pub trait FloatScalar: Scalar {
    /// e^x
    fn fexp(self) -> Self;
    /// natural log
    fn fln(self) -> Self;
    /// ln(1+x)
    fn fln_1p(self) -> Self;
    /// square root
    fn fsqrt(self) -> Self;
    /// |x|
    fn fabs(self) -> Self;
    /// tanh
    fn ftanh(self) -> Self;
    /// sin
    fn fsin(self) -> Self;
    /// cos
    fn fcos(self) -> Self;
    /// floor
    fn ffloor(self) -> Self;
    /// ceil
    fn fceil(self) -> Self;
    /// round half away from zero
    fn fround(self) -> Self;
    /// x^y
    fn fpowf(self, y: Self) -> Self;
    /// maximum treating NaN as missing
    fn fmax(self, y: Self) -> Self;
    /// minimum treating NaN as missing
    fn fmin(self, y: Self) -> Self;
}

macro_rules! impl_float_scalar {
    ($ty:ty) => {
        impl FloatScalar for $ty {
            fn fexp(self) -> Self {
                self.exp()
            }
            fn fln(self) -> Self {
                self.ln()
            }
            fn fln_1p(self) -> Self {
                self.ln_1p()
            }
            fn fsqrt(self) -> Self {
                self.sqrt()
            }
            fn fabs(self) -> Self {
                self.abs()
            }
            fn ftanh(self) -> Self {
                self.tanh()
            }
            fn fsin(self) -> Self {
                self.sin()
            }
            fn fcos(self) -> Self {
                self.cos()
            }
            fn ffloor(self) -> Self {
                self.floor()
            }
            fn fceil(self) -> Self {
                self.ceil()
            }
            fn fround(self) -> Self {
                self.round()
            }
            fn fpowf(self, y: Self) -> Self {
                self.powf(y)
            }
            fn fmax(self, y: Self) -> Self {
                self.max(y)
            }
            fn fmin(self, y: Self) -> Self {
                self.min(y)
            }
        }
    };
}

impl_float_scalar!(f32);
impl_float_scalar!(f64);

/// Binary elementwise operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// a + b
    Add,
    /// a - b
    Sub,
    /// a * b
    Mul,
    /// a / b (true division for floats, truncating for ints)
    Div,
    /// floor(a / b)
    FloorDiv,
    /// a mod b (sign of divisor, Python style, for floats; `%` for ints)
    Mod,
    /// a ^ b
    Pow,
    /// max(a, b)
    Maximum,
    /// min(a, b)
    Minimum,
    /// a * b for the residual-add pattern? No: squared difference (a-b)^2
    SquaredDifference,
}

impl BinaryOp {
    /// Stable lowercase name (used in op registries and serialized graphs).
    pub fn name(self) -> &'static str {
        match self {
            BinaryOp::Add => "add",
            BinaryOp::Sub => "sub",
            BinaryOp::Mul => "mul",
            BinaryOp::Div => "div",
            BinaryOp::FloorDiv => "floor_div",
            BinaryOp::Mod => "mod",
            BinaryOp::Pow => "pow",
            BinaryOp::Maximum => "maximum",
            BinaryOp::Minimum => "minimum",
            BinaryOp::SquaredDifference => "squared_difference",
        }
    }

    /// Inverse of [`BinaryOp::name`].
    pub fn from_name(name: &str) -> Option<BinaryOp> {
        BinaryOp::all().iter().copied().find(|op| op.name() == name)
    }

    /// All binary ops (for registration loops and property tests).
    pub fn all() -> &'static [BinaryOp] {
        &[
            BinaryOp::Add,
            BinaryOp::Sub,
            BinaryOp::Mul,
            BinaryOp::Div,
            BinaryOp::FloorDiv,
            BinaryOp::Mod,
            BinaryOp::Pow,
            BinaryOp::Maximum,
            BinaryOp::Minimum,
            BinaryOp::SquaredDifference,
        ]
    }

    /// Per-element evaluation on `f32`, bit-identical to the tensor
    /// kernel's math (used by the fused-kernel fast path in `tfe-graph`).
    pub fn eval_f32(self, a: f32, b: f32) -> f32 {
        self.eval_float(a, b)
    }

    fn eval_float<T: FloatScalar>(self, a: T, b: T) -> T {
        match self {
            BinaryOp::Add => T::from_f64(a.to_f64() + b.to_f64()),
            BinaryOp::Sub => T::from_f64(a.to_f64() - b.to_f64()),
            BinaryOp::Mul => T::from_f64(a.to_f64() * b.to_f64()),
            BinaryOp::Div => T::from_f64(a.to_f64() / b.to_f64()),
            BinaryOp::FloorDiv => T::from_f64((a.to_f64() / b.to_f64()).floor()),
            BinaryOp::Mod => {
                let r = a.to_f64() % b.to_f64();
                let r =
                    if r != 0.0 && (r < 0.0) != (b.to_f64() < 0.0) { r + b.to_f64() } else { r };
                T::from_f64(r)
            }
            BinaryOp::Pow => a.fpowf(b),
            BinaryOp::Maximum => a.fmax(b),
            BinaryOp::Minimum => a.fmin(b),
            BinaryOp::SquaredDifference => {
                let d = a.to_f64() - b.to_f64();
                T::from_f64(d * d)
            }
        }
    }

    /// What an integer `self` refuses as its right operand `b`, if anything.
    fn int_refusal(self, b: i64) -> Option<&'static str> {
        match self {
            BinaryOp::Div | BinaryOp::FloorDiv if b == 0 => Some("integer division by zero"),
            BinaryOp::Mod if b == 0 => Some("integer modulo by zero"),
            BinaryOp::Pow if b < 0 => Some("negative integer exponent"),
            _ => None,
        }
    }

    /// Integer evaluation of an operand pair [`BinaryOp::int_refusal`]
    /// passed.
    fn eval_int(self, a: i64, b: i64) -> i64 {
        match self {
            BinaryOp::Add => a.wrapping_add(b),
            BinaryOp::Sub => a.wrapping_sub(b),
            BinaryOp::Mul => a.wrapping_mul(b),
            BinaryOp::Div | BinaryOp::FloorDiv => a.div_euclid(b),
            BinaryOp::Mod => a.rem_euclid(b),
            BinaryOp::Pow => a.wrapping_pow(b.min(u32::MAX as i64) as u32),
            BinaryOp::Maximum => a.max(b),
            BinaryOp::Minimum => a.min(b),
            BinaryOp::SquaredDifference => {
                let d = a.wrapping_sub(b);
                d.wrapping_mul(d)
            }
        }
    }
}

/// Unary elementwise operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// -x
    Neg,
    /// |x|
    Abs,
    /// sign(x) in {-1, 0, 1}
    Sign,
    /// e^x
    Exp,
    /// ln(x)
    Log,
    /// ln(1 + x)
    Log1p,
    /// sqrt(x)
    Sqrt,
    /// 1/sqrt(x)
    Rsqrt,
    /// x^2
    Square,
    /// 1/x
    Reciprocal,
    /// max(x, 0)
    Relu,
    /// 1/(1+e^-x), numerically stable
    Sigmoid,
    /// tanh(x)
    Tanh,
    /// ln(1+e^x), numerically stable
    Softplus,
    /// floor(x)
    Floor,
    /// ceil(x)
    Ceil,
    /// round(x)
    Round,
    /// sin(x)
    Sin,
    /// cos(x)
    Cos,
    /// Gauss error function (Abramowitz–Stegun 7.1.26 approximation)
    Erf,
}

impl UnaryOp {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            UnaryOp::Neg => "neg",
            UnaryOp::Abs => "abs",
            UnaryOp::Sign => "sign",
            UnaryOp::Exp => "exp",
            UnaryOp::Log => "log",
            UnaryOp::Log1p => "log1p",
            UnaryOp::Sqrt => "sqrt",
            UnaryOp::Rsqrt => "rsqrt",
            UnaryOp::Square => "square",
            UnaryOp::Reciprocal => "reciprocal",
            UnaryOp::Relu => "relu",
            UnaryOp::Sigmoid => "sigmoid",
            UnaryOp::Tanh => "tanh",
            UnaryOp::Softplus => "softplus",
            UnaryOp::Floor => "floor",
            UnaryOp::Ceil => "ceil",
            UnaryOp::Round => "round",
            UnaryOp::Sin => "sin",
            UnaryOp::Cos => "cos",
            UnaryOp::Erf => "erf",
        }
    }

    /// Inverse of [`UnaryOp::name`].
    pub fn from_name(name: &str) -> Option<UnaryOp> {
        UnaryOp::all().iter().copied().find(|op| op.name() == name)
    }

    /// All unary ops.
    pub fn all() -> &'static [UnaryOp] {
        &[
            UnaryOp::Neg,
            UnaryOp::Abs,
            UnaryOp::Sign,
            UnaryOp::Exp,
            UnaryOp::Log,
            UnaryOp::Log1p,
            UnaryOp::Sqrt,
            UnaryOp::Rsqrt,
            UnaryOp::Square,
            UnaryOp::Reciprocal,
            UnaryOp::Relu,
            UnaryOp::Sigmoid,
            UnaryOp::Tanh,
            UnaryOp::Softplus,
            UnaryOp::Floor,
            UnaryOp::Ceil,
            UnaryOp::Round,
            UnaryOp::Sin,
            UnaryOp::Cos,
            UnaryOp::Erf,
        ]
    }

    /// Whether the op is defined for integer dtypes.
    pub fn supports_int(self) -> bool {
        matches!(
            self,
            UnaryOp::Neg | UnaryOp::Abs | UnaryOp::Sign | UnaryOp::Square | UnaryOp::Relu
        )
    }

    /// Per-element evaluation on `f32`, bit-identical to the tensor
    /// kernel's math (used by the fused-kernel fast path in `tfe-graph`).
    pub fn eval_f32(self, x: f32) -> f32 {
        self.eval_float(x)
    }

    fn eval_float<T: FloatScalar>(self, x: T) -> T {
        let xf = x.to_f64();
        match self {
            UnaryOp::Neg => T::from_f64(-xf),
            UnaryOp::Abs => x.fabs(),
            UnaryOp::Sign => T::from_f64(if xf > 0.0 {
                1.0
            } else if xf < 0.0 {
                -1.0
            } else {
                xf // preserves ±0 and NaN
            }),
            UnaryOp::Exp => x.fexp(),
            UnaryOp::Log => x.fln(),
            UnaryOp::Log1p => x.fln_1p(),
            UnaryOp::Sqrt => x.fsqrt(),
            UnaryOp::Rsqrt => T::from_f64(1.0 / xf.sqrt()),
            UnaryOp::Square => T::from_f64(xf * xf),
            UnaryOp::Reciprocal => T::from_f64(1.0 / xf),
            UnaryOp::Relu => T::from_f64(if xf > 0.0 { xf } else { 0.0 }),
            UnaryOp::Sigmoid => T::from_f64(stable_sigmoid(xf)),
            UnaryOp::Tanh => x.ftanh(),
            UnaryOp::Softplus => T::from_f64(stable_softplus(xf)),
            UnaryOp::Floor => x.ffloor(),
            UnaryOp::Ceil => x.fceil(),
            UnaryOp::Round => x.fround(),
            UnaryOp::Sin => x.fsin(),
            UnaryOp::Cos => x.fcos(),
            UnaryOp::Erf => T::from_f64(erf(xf)),
        }
    }

    fn eval_int(self, x: i64) -> i64 {
        match self {
            UnaryOp::Neg => x.wrapping_neg(),
            UnaryOp::Abs => x.wrapping_abs(),
            UnaryOp::Sign => x.signum(),
            UnaryOp::Square => x.wrapping_mul(x),
            UnaryOp::Relu => x.max(0),
            _ => unreachable!("eval_int called for float-only op {:?}", self),
        }
    }
}

/// Comparison operations producing boolean tensors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// a == b
    Eq,
    /// a != b
    Ne,
    /// a < b
    Lt,
    /// a <= b
    Le,
    /// a > b
    Gt,
    /// a >= b
    Ge,
}

impl CmpOp {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            CmpOp::Eq => "equal",
            CmpOp::Ne => "not_equal",
            CmpOp::Lt => "less",
            CmpOp::Le => "less_equal",
            CmpOp::Gt => "greater",
            CmpOp::Ge => "greater_equal",
        }
    }

    /// Inverse of [`CmpOp::name`].
    pub fn from_name(name: &str) -> Option<CmpOp> {
        CmpOp::all().iter().copied().find(|op| op.name() == name)
    }

    /// All comparison ops.
    pub fn all() -> &'static [CmpOp] {
        &[CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge]
    }

    fn eval<T: PartialOrd>(self, a: T, b: T) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// Boolean binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogicalOp {
    /// a && b
    And,
    /// a || b
    Or,
    /// a ^ b
    Xor,
}

impl LogicalOp {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            LogicalOp::And => "logical_and",
            LogicalOp::Or => "logical_or",
            LogicalOp::Xor => "logical_xor",
        }
    }

    /// Inverse of [`LogicalOp::name`].
    pub fn from_name(name: &str) -> Option<LogicalOp> {
        LogicalOp::all().iter().copied().find(|op| op.name() == name)
    }

    /// All boolean binary ops.
    pub fn all() -> &'static [LogicalOp] {
        &[LogicalOp::And, LogicalOp::Or, LogicalOp::Xor]
    }

    fn eval(self, a: bool, b: bool) -> bool {
        match self {
            LogicalOp::And => a && b,
            LogicalOp::Or => a || b,
            LogicalOp::Xor => a ^ b,
        }
    }
}

fn stable_sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        let z = (-x).exp();
        1.0 / (1.0 + z)
    } else {
        let z = x.exp();
        z / (1.0 + z)
    }
}

/// A NaN comes back as it went in, sign and payload included.
fn stable_softplus(x: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    x.max(0.0) + (-x.abs()).exp().ln_1p()
}

/// Abramowitz–Stegun 7.1.26 rational approximation of erf (|err| < 1.5e-7).
/// A NaN comes back as it went in, sign and payload included.
pub fn erf(x: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

fn check_same_dtype(a: &TensorData, b: &TensorData) -> Result<DType> {
    if a.dtype() != b.dtype() {
        return Err(TensorError::DTypeMismatch {
            expected: a.dtype().name().to_string(),
            got: b.dtype(),
        });
    }
    Ok(a.dtype())
}

/// `f` over the tiles of `a`'s and `b`'s broadcast, into a new tensor: the
/// [`Tiler`] of every two-operand map.
fn tiled2<T: Scalar, U: Scalar + Default + Send>(
    a: &TensorData,
    b: &TensorData,
    f: impl Fn(&[T], &[T], &mut [U]) + Sync,
) -> Result<TensorData> {
    let shape = broadcast_shapes(a.shape(), b.shape())?;
    let n = shape.num_elements();
    let tiler = Tiler::new(n, std::mem::size_of::<T>(), 3);
    let x = Operand::new(a.as_slice::<T>()?, a.shape(), &shape, &tiler);
    let y = Operand::new(b.as_slice::<T>()?, b.shape(), &shape, &tiler);
    let mut out = vec![U::default(); n];
    tiler.run(&mut out, |at, o| {
        let (mut bx, mut by) = (Scratch::take(), Scratch::take());
        f(x.read(at, o.len(), &mut bx), y.read(at, o.len(), &mut by), o)
    });
    TensorData::from_vec(out, shape)
}

/// Apply a binary elementwise op with broadcasting.
///
/// # Errors
/// Shape/broadcast mismatches, dtype mismatches, unsupported dtypes
/// (e.g. `pow` on bool), and integer division by zero.
pub fn binary(a: &TensorData, b: &TensorData, op: BinaryOp) -> Result<TensorData> {
    match check_same_dtype(a, b)? {
        DType::F32 => tiled2(a, b, |x, y, o: &mut [f32]| lanes::binary_f32(op, x, y, o)),
        DType::F64 => {
            tiled2(a, b, |x, y, o| map_binary(x, y, o, |p, q| op.eval_float::<f64>(p, q)))
        }
        DType::I32 => binary_int::<i32>(a, b, op, i64::from, |v| v as i32),
        DType::I64 => binary_int::<i64>(a, b, op, |v| v, |v| v),
        DType::Bool => Err(TensorError::DTypeMismatch {
            expected: "a numeric dtype".to_string(),
            got: DType::Bool,
        }),
    }
}

/// [`binary`] on integers, in i64. A non-empty output reads every element
/// of `b`, so a zero divisor or a negative exponent in it is refused before
/// any element is computed; an empty one reads none.
fn binary_int<T: Scalar + Default>(
    a: &TensorData,
    b: &TensorData,
    op: BinaryOp,
    wide: fn(T) -> i64,
    narrow: fn(i64) -> T,
) -> Result<TensorData> {
    if broadcast_shapes(a.shape(), b.shape())?.num_elements() > 0 {
        if let Some(why) = b.as_slice::<T>()?.iter().find_map(|&q| op.int_refusal(wide(q))) {
            return Err(TensorError::InvalidArgument(why.into()));
        }
    }
    tiled2(a, b, |x, y, o| map_binary(x, y, o, |p, q| narrow(op.eval_int(wide(p), wide(q)))))
}

/// Apply a unary elementwise op.
///
/// # Errors
/// Unsupported dtype (bool always; ints for transcendental ops).
pub fn unary(a: &TensorData, op: UnaryOp) -> Result<TensorData> {
    match a.dtype() {
        DType::F32 => tiled1(a, |x, o: &mut [f32]| lanes::unary_f32(op, x, o)),
        DType::F64 => tiled1(a, |x, o| map_unary(x, o, |v: f64| op.eval_float(v))),
        DType::I32 if op.supports_int() => {
            tiled1(a, |x, o| map_unary(x, o, |v: i32| op.eval_int(v as i64) as i32))
        }
        DType::I64 if op.supports_int() => tiled1(a, |x, o| map_unary(x, o, |v| op.eval_int(v))),
        got => Err(TensorError::DTypeMismatch {
            expected: format!("a dtype supporting `{}`", op.name()),
            got,
        }),
    }
}

/// `f` over the tiles of `a`, into a new tensor of its shape.
fn tiled1<T: Scalar, U: Scalar + Default + Send>(
    a: &TensorData,
    f: impl Fn(&[T], &mut [U]) + Sync,
) -> Result<TensorData> {
    let v = a.as_slice::<T>()?;
    let mut out = vec![U::default(); v.len()];
    Tiler::new(v.len(), std::mem::size_of::<T>(), 2)
        .run(&mut out, |at, o| f(&v[at..at + o.len()], o));
    TensorData::from_vec(out, a.shape().clone())
}

/// Elementwise comparison with broadcasting, producing a bool tensor. The
/// predicate runs in the operands' own type, so an i64 beyond 2^53 compares
/// exactly.
///
/// # Errors
/// Dtype mismatch between operands; ordering comparisons on bool.
pub fn compare(a: &TensorData, b: &TensorData, op: CmpOp) -> Result<TensorData> {
    let dt = check_same_dtype(a, b)?;
    if dt == DType::Bool && !matches!(op, CmpOp::Eq | CmpOp::Ne) {
        return Err(TensorError::DTypeMismatch {
            expected: "a numeric dtype for ordering comparison".to_string(),
            got: DType::Bool,
        });
    }
    typed!(dt, |T| tiled2::<T, bool>(a, b, |x, y, o| compare_block(op, x, y, o)))
}

/// One tile of [`compare`]: one `match` per tile, a lane loop with the
/// predicate inlined in each arm.
fn compare_block<T: Copy + PartialOrd>(op: CmpOp, x: &[T], y: &[T], o: &mut [bool]) {
    macro_rules! dispatch {
        ($($v:ident),*) => {
            match op {
                $(CmpOp::$v => map_binary(x, y, o, |p, q| CmpOp::$v.eval(p, q)),)*
            }
        };
    }
    dispatch!(Eq, Ne, Lt, Le, Gt, Ge)
}

/// Elementwise boolean logic with broadcasting.
///
/// # Errors
/// Either operand not bool.
pub fn logical(a: &TensorData, b: &TensorData, op: LogicalOp) -> Result<TensorData> {
    if a.dtype() != DType::Bool || b.dtype() != DType::Bool {
        return Err(TensorError::DTypeMismatch {
            expected: "bool".to_string(),
            got: if a.dtype() != DType::Bool { a.dtype() } else { b.dtype() },
        });
    }
    tiled2(a, b, |x, y, o| map_binary(x, y, o, |p, q| op.eval(p, q)))
}

/// Elementwise boolean negation.
///
/// # Errors
/// Operand not bool.
pub fn logical_not(a: &TensorData) -> Result<TensorData> {
    tiled1(a, |x, o| map_unary(x, o, |v: bool| !v))
}

/// `where(cond, a, b)` with three-way broadcasting. Every element moves
/// as it is: an i64 beyond 2^53, a signalling NaN and `-0.0` keep their
/// bits.
///
/// # Errors
/// `cond` not bool; `a`/`b` dtype mismatch; incompatible shapes.
pub fn select(cond: &TensorData, a: &TensorData, b: &TensorData) -> Result<TensorData> {
    if cond.dtype() != DType::Bool {
        return Err(TensorError::DTypeMismatch { expected: "bool".to_string(), got: cond.dtype() });
    }
    typed!(check_same_dtype(a, b)?, |T| select_typed::<T>(cond, a, b))
}

/// [`select`] over typed slices, each operand read on its own terms.
fn select_typed<T: Scalar + Default>(
    cond: &TensorData,
    a: &TensorData,
    b: &TensorData,
) -> Result<TensorData> {
    let s = broadcast_shapes(cond.shape(), &broadcast_shapes(a.shape(), b.shape())?)?;
    let n = s.num_elements();
    let tiler = Tiler::new(n, std::mem::size_of::<T>(), 4);
    let c = Operand::new(cond.as_slice::<bool>()?, cond.shape(), &s, &tiler);
    let x = Operand::new(a.as_slice::<T>()?, a.shape(), &s, &tiler);
    let y = Operand::new(b.as_slice::<T>()?, b.shape(), &s, &tiler);
    let mut out = vec![T::default(); n];
    tiler.run(&mut out, |at, o| {
        let len = o.len();
        let (mut bc, mut bx, mut by) = (Scratch::take(), Scratch::take(), Scratch::take());
        let (c, x) = (c.read(at, len, &mut bc), x.read(at, len, &mut bx));
        select_block(c, x, y.read(at, len, &mut by), o)
    });
    TensorData::from_vec(out, s)
}

/// One tile of [`select`].
fn select_block<T: Copy>(c: &[bool], x: &[T], y: &[T], o: &mut [T]) {
    for (((o, &c), &x), &y) in o.iter_mut().zip(c).zip(x).zip(y) {
        *o = if c { x } else { y };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{each_seed, Rng};
    use crate::Shape;

    fn t(v: Vec<f32>, s: impl Into<Shape>) -> TensorData {
        TensorData::from_vec(v, s).unwrap()
    }

    #[test]
    fn add_same_shape() {
        let a = t(vec![1.0, 2.0], [2]);
        let b = t(vec![10.0, 20.0], [2]);
        assert_eq!(binary(&a, &b, BinaryOp::Add).unwrap().to_f64_vec(), vec![11.0, 22.0]);
    }

    #[test]
    fn add_broadcast_scalar() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let b = TensorData::scalar(10.0f32);
        let r = binary(&a, &b, BinaryOp::Add).unwrap();
        assert_eq!(r.shape().dims(), &[2, 2]);
        assert_eq!(r.to_f64_vec(), vec![11.0, 12.0, 13.0, 14.0]);
    }

    #[test]
    fn mul_broadcast_row_col() {
        let a = t(vec![1.0, 2.0, 3.0], [3]);
        let b = t(vec![10.0, 100.0], [2, 1]);
        let r = binary(&b, &a, BinaryOp::Mul).unwrap();
        assert_eq!(r.shape().dims(), &[2, 3]);
        assert_eq!(r.to_f64_vec(), vec![10.0, 20.0, 30.0, 100.0, 200.0, 300.0]);
    }

    #[test]
    fn dtype_mismatch_rejected() {
        let a = t(vec![1.0], [1]);
        let b = TensorData::from_vec(vec![1i32], Shape::from([1])).unwrap();
        assert!(binary(&a, &b, BinaryOp::Add).is_err());
    }

    #[test]
    fn int_division_semantics() {
        let a = TensorData::from_vec(vec![7i64, -7], Shape::from([2])).unwrap();
        let b = TensorData::from_vec(vec![2i64, 2], Shape::from([2])).unwrap();
        let r = binary(&a, &b, BinaryOp::FloorDiv).unwrap();
        assert_eq!(r.to_i64_vec(), vec![3, -4]);
        let z = TensorData::from_vec(vec![0i64, 0], Shape::from([2])).unwrap();
        assert!(binary(&a, &z, BinaryOp::Div).is_err());
    }

    #[test]
    fn python_style_float_mod() {
        let a = TensorData::from_vec(vec![-7.0f64, 7.0], Shape::from([2])).unwrap();
        let b = TensorData::from_vec(vec![3.0f64, -3.0], Shape::from([2])).unwrap();
        let r = binary(&a, &b, BinaryOp::Mod).unwrap();
        assert_eq!(r.to_f64_vec(), vec![2.0, -2.0]);
    }

    #[test]
    fn bool_arithmetic_rejected() {
        let a = TensorData::from_vec(vec![true], Shape::from([1])).unwrap();
        assert!(binary(&a, &a, BinaryOp::Add).is_err());
    }

    #[test]
    fn unary_float_ops() {
        let a = t(vec![-1.0, 0.0, 2.0], [3]);
        assert_eq!(unary(&a, UnaryOp::Relu).unwrap().to_f64_vec(), vec![0.0, 0.0, 2.0]);
        assert_eq!(unary(&a, UnaryOp::Neg).unwrap().to_f64_vec(), vec![1.0, 0.0, -2.0]);
        assert_eq!(unary(&a, UnaryOp::Square).unwrap().to_f64_vec(), vec![1.0, 0.0, 4.0]);
        assert_eq!(unary(&a, UnaryOp::Sign).unwrap().to_f64_vec(), vec![-1.0, 0.0, 1.0]);
    }

    #[test]
    fn sigmoid_stable_at_extremes() {
        let a = TensorData::from_vec(vec![-1000.0f64, 0.0, 1000.0], Shape::from([3])).unwrap();
        let r = unary(&a, UnaryOp::Sigmoid).unwrap().to_f64_vec();
        assert_eq!(r[0], 0.0);
        assert_eq!(r[1], 0.5);
        assert_eq!(r[2], 1.0);
    }

    #[test]
    fn softplus_stable_and_positive() {
        let a = TensorData::from_vec(vec![-1000.0f64, 0.0, 1000.0], Shape::from([3])).unwrap();
        let r = unary(&a, UnaryOp::Softplus).unwrap().to_f64_vec();
        assert_eq!(r[0], 0.0);
        assert!((r[1] - 2.0f64.ln()).abs() < 1e-12);
        assert_eq!(r[2], 1000.0);
    }

    #[test]
    fn int_unary_subset() {
        let a = TensorData::from_vec(vec![-3i32, 4], Shape::from([2])).unwrap();
        assert_eq!(unary(&a, UnaryOp::Abs).unwrap().to_i64_vec(), vec![3, 4]);
        assert!(unary(&a, UnaryOp::Exp).is_err());
    }

    #[test]
    fn compare_broadcast() {
        let a = t(vec![1.0, 5.0], [2]);
        let b = TensorData::scalar(3.0f32);
        let r = compare(&a, &b, CmpOp::Gt).unwrap();
        assert_eq!(r.dtype(), DType::Bool);
        assert_eq!(r.to_f64_vec(), vec![0.0, 1.0]);
    }

    #[test]
    fn bool_ordering_rejected() {
        let a = TensorData::from_vec(vec![true], Shape::from([1])).unwrap();
        assert!(compare(&a, &a, CmpOp::Lt).is_err());
        assert!(compare(&a, &a, CmpOp::Eq).is_ok());
    }

    #[test]
    fn logic_ops() {
        let a = TensorData::from_vec(vec![true, true, false, false], Shape::from([4])).unwrap();
        let b = TensorData::from_vec(vec![true, false, true, false], Shape::from([4])).unwrap();
        assert_eq!(logical(&a, &b, LogicalOp::And).unwrap().to_f64_vec(), vec![1.0, 0.0, 0.0, 0.0]);
        assert_eq!(logical(&a, &b, LogicalOp::Or).unwrap().to_f64_vec(), vec![1.0, 1.0, 1.0, 0.0]);
        assert_eq!(logical(&a, &b, LogicalOp::Xor).unwrap().to_f64_vec(), vec![0.0, 1.0, 1.0, 0.0]);
        assert_eq!(logical_not(&a).unwrap().to_f64_vec(), vec![0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn select_broadcasts_condition() {
        let cond = TensorData::from_vec(vec![true, false], Shape::from([2, 1])).unwrap();
        let a = t(vec![1.0, 2.0], [2]);
        let b = t(vec![9.0, 8.0], [2]);
        let r = select(&cond, &a, &b).unwrap();
        assert_eq!(r.shape().dims(), &[2, 2]);
        assert_eq!(r.to_f64_vec(), vec![1.0, 2.0, 9.0, 8.0]);
    }

    #[test]
    fn erf_reference_points() {
        assert!((erf(0.0)).abs() < 1e-9);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((erf(3.0) - 0.9999779095).abs() < 1e-6);
    }

    #[test]
    fn erf_and_softplus_return_a_nan_unchanged() {
        let nan32 = TensorData::scalar(-f32::NAN);
        let nan64 = TensorData::scalar(f64::from_bits(0xfff8_0000_0000_0123));
        for op in [UnaryOp::Erf, UnaryOp::Softplus] {
            let out = unary(&nan32, op).unwrap();
            assert_eq!(
                out.as_slice::<f32>().unwrap()[0].to_bits(),
                (-f32::NAN).to_bits(),
                "{op:?}"
            );
            let out = unary(&nan64, op).unwrap();
            assert_eq!(
                out.as_slice::<f64>().unwrap()[0].to_bits(),
                0xfff8_0000_0000_0123,
                "{op:?}"
            );
        }
    }

    #[test]
    fn names_round_trip() {
        for op in BinaryOp::all() {
            assert_eq!(BinaryOp::from_name(op.name()), Some(*op));
        }
        for op in UnaryOp::all() {
            assert_eq!(UnaryOp::from_name(op.name()), Some(*op));
        }
        for op in CmpOp::all() {
            assert_eq!(CmpOp::from_name(op.name()), Some(*op));
        }
    }

    fn f64s(rng: &mut Rng, bound: f64) -> Vec<f64> {
        let n = rng.range(1usize..16);
        (0..n).map(|_| rng.range(-bound..bound)).collect()
    }

    #[test]
    fn add_commutes() {
        each_seed(64, |rng| {
            let xs = f64s(rng, 1e3);
            let n = xs.len();
            let a = TensorData::from_vec(xs.clone(), Shape::from([n])).unwrap();
            let rev: Vec<f64> = xs.iter().rev().copied().collect();
            let b = TensorData::from_vec(rev, Shape::from([n])).unwrap();
            let ab = binary(&a, &b, BinaryOp::Add).unwrap();
            let ba = binary(&b, &a, BinaryOp::Add).unwrap();
            assert_eq!(ab.to_f64_vec(), ba.to_f64_vec());
        });
    }

    #[test]
    fn relu_idempotent() {
        each_seed(64, |rng| {
            let n = rng.range(1..16);
            let xs: Vec<f32> = (0..n).map(|_| rng.range(-1e3f32..1e3)).collect();
            let a = TensorData::from_vec(xs, Shape::from([n])).unwrap();
            let once = unary(&a, UnaryOp::Relu).unwrap();
            let twice = unary(&once, UnaryOp::Relu).unwrap();
            assert_eq!(once.to_f64_vec(), twice.to_f64_vec());
        });
    }

    #[test]
    fn sigmoid_bounded() {
        each_seed(64, |rng| {
            let xs = f64s(rng, 50.0);
            let n = xs.len();
            let a = TensorData::from_vec(xs, Shape::from([n])).unwrap();
            for v in unary(&a, UnaryOp::Sigmoid).unwrap().to_f64_vec() {
                assert!((0.0..=1.0).contains(&v));
            }
        });
    }

    #[test]
    fn select_matches_manual() {
        each_seed(64, |rng| {
            let n = rng.range(1..16);
            let mask: Vec<bool> = (0..n).map(|_| rng.bool(0.5)).collect();
            let cond = TensorData::from_vec(mask.clone(), Shape::from([n])).unwrap();
            let ramp = |sign: f64| (0..n).map(|i| sign * i as f64).collect();
            let a = TensorData::from_f64_vec(DType::F64, ramp(1.0), Shape::from([n]));
            let b = TensorData::from_f64_vec(DType::F64, ramp(-1.0), Shape::from([n]));
            let r = select(&cond, &a, &b).unwrap();
            for (i, m) in mask.iter().enumerate() {
                let expect = if *m { i as f64 } else { -(i as f64) };
                assert_eq!(r.as_slice::<f64>().unwrap()[i], expect);
            }
        });
    }
}
