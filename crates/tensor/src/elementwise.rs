//! Elementwise binary/unary/comparison kernels with NumPy-style broadcasting.
//!
//! The op enums here double as the instruction set of the fused-elementwise
//! interpreter in `tfe-graph` (our XLA stand-in), so every op is a small,
//! named, pure function.

use crate::data::Scalar;
use crate::lanes::Periodic;
use crate::shape::{broadcast_shapes, BroadcastWalker};
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
    /// 0, 1 and -1 constants
    fn zero() -> Self;
    /// 1
    fn one() -> Self;
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
            fn zero() -> Self {
                0.0
            }
            fn one() -> Self {
                1.0
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
        Some(match name {
            "add" => BinaryOp::Add,
            "sub" => BinaryOp::Sub,
            "mul" => BinaryOp::Mul,
            "div" => BinaryOp::Div,
            "floor_div" => BinaryOp::FloorDiv,
            "mod" => BinaryOp::Mod,
            "pow" => BinaryOp::Pow,
            "maximum" => BinaryOp::Maximum,
            "minimum" => BinaryOp::Minimum,
            "squared_difference" => BinaryOp::SquaredDifference,
            _ => return None,
        })
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

    fn eval_int(self, a: i64, b: i64) -> Result<i64> {
        Ok(match self {
            BinaryOp::Add => a.wrapping_add(b),
            BinaryOp::Sub => a.wrapping_sub(b),
            BinaryOp::Mul => a.wrapping_mul(b),
            BinaryOp::Div | BinaryOp::FloorDiv => {
                if b == 0 {
                    return Err(TensorError::InvalidArgument("integer division by zero".into()));
                }
                a.div_euclid(b)
            }
            BinaryOp::Mod => {
                if b == 0 {
                    return Err(TensorError::InvalidArgument("integer modulo by zero".into()));
                }
                a.rem_euclid(b)
            }
            BinaryOp::Pow => {
                if b < 0 {
                    return Err(TensorError::InvalidArgument("negative integer exponent".into()));
                }
                a.wrapping_pow(b.min(u32::MAX as i64) as u32)
            }
            BinaryOp::Maximum => a.max(b),
            BinaryOp::Minimum => a.min(b),
            BinaryOp::SquaredDifference => {
                let d = a.wrapping_sub(b);
                d.wrapping_mul(d)
            }
        })
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

    fn eval(self, a: f64, b: f64) -> bool {
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

fn stable_softplus(x: f64) -> f64 {
    x.max(0.0) + (-x.abs()).exp().ln_1p()
}

/// Abramowitz–Stegun 7.1.26 rational approximation of erf (|err| < 1.5e-7).
pub fn erf(x: f64) -> f64 {
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

fn map2<T: Scalar, U: Scalar>(
    a: &TensorData,
    b: &TensorData,
    f: impl Fn(T, T) -> Result<U>,
) -> Result<TensorData> {
    let out_shape = broadcast_shapes(a.shape(), b.shape())?;
    let av = a.as_slice::<T>()?;
    let bv = b.as_slice::<T>()?;
    let n = out_shape.num_elements();
    let mut out = Vec::with_capacity(n);
    if a.shape() == b.shape() {
        for i in 0..n {
            out.push(f(av[i], bv[i])?);
        }
    } else {
        let wa = BroadcastWalker::new(&out_shape, a.shape());
        let wb = BroadcastWalker::new(&out_shape, b.shape());
        for (ia, ib) in wa.zip(wb) {
            out.push(f(av[ia], bv[ib])?);
        }
    }
    TensorData::from_vec(out, out_shape)
}

/// Infallible variant of [`map2`] that splits the output across the shared
/// pool; each tile walks its own [`BroadcastWalker::new_at`] cursor.
/// Element results are independent, so any partition gives identical bits.
fn map2_par<T: Scalar, U: Scalar + Default>(
    a: &TensorData,
    b: &TensorData,
    f: impl Fn(T, T) -> U + Sync,
) -> Result<TensorData> {
    let out_shape = broadcast_shapes(a.shape(), b.shape())?;
    let av = a.as_slice::<T>()?;
    let bv = b.as_slice::<T>()?;
    let mut out = vec![U::default(); out_shape.num_elements()];
    if a.shape() == b.shape() {
        tfe_parallel::par_chunks_mut(&mut out, 1, crate::par::GRAIN_ELEMWISE, |r, chunk| {
            for ((o, &x), &y) in chunk.iter_mut().zip(&av[r.clone()]).zip(&bv[r]) {
                *o = f(x, y);
            }
        });
    } else {
        tfe_parallel::par_chunks_mut(&mut out, 1, crate::par::GRAIN_ELEMWISE, |r, chunk| {
            let wa = BroadcastWalker::new_at(&out_shape, a.shape(), r.start);
            let wb = BroadcastWalker::new_at(&out_shape, b.shape(), r.start);
            for ((o, ia), ib) in chunk.iter_mut().zip(wa).zip(wb) {
                *o = f(av[ia], bv[ib]);
            }
        });
    }
    TensorData::from_vec(out, out_shape)
}

/// Apply a binary elementwise op with broadcasting.
///
/// # Errors
/// Shape/broadcast mismatches, dtype mismatches, unsupported dtypes
/// (e.g. `pow` on bool), and integer division by zero.
pub fn binary(a: &TensorData, b: &TensorData, op: BinaryOp) -> Result<TensorData> {
    match check_same_dtype(a, b)? {
        DType::F32 => binary_f32_lanes(a, b, op),
        DType::F64 => map2_par::<f64, f64>(a, b, |x, y| op.eval_float(x, y)),
        DType::I32 => {
            map2::<i32, i32>(a, b, |x, y| op.eval_int(x as i64, y as i64).map(|v| v as i32))
        }
        DType::I64 => map2::<i64, i64>(a, b, |x, y| op.eval_int(x, y)),
        DType::Bool => Err(TensorError::DTypeMismatch {
            expected: "a numeric dtype".to_string(),
            got: DType::Bool,
        }),
    }
}

/// Apply a unary elementwise op.
///
/// # Errors
/// Unsupported dtype (bool always; ints for transcendental ops).
pub fn unary(a: &TensorData, op: UnaryOp) -> Result<TensorData> {
    match a.dtype() {
        DType::F32 => {
            // Lane fast path: op dispatch hoisted per tile, 8-wide blocks.
            // Bit-identical to the scalar map (no cross-element math).
            let v = a.as_slice::<f32>()?;
            let mut out = vec![0.0f32; v.len()];
            tfe_parallel::par_chunks_mut(&mut out, 1, crate::par::GRAIN_ELEMWISE, |r, chunk| {
                crate::lanes::unary_f32(op, &v[r], chunk);
            });
            TensorData::from_vec(out, a.shape().clone())
        }
        DType::F64 => {
            let v = a.as_slice::<f64>()?;
            TensorData::from_vec(unary_par(v, |x| op.eval_float(x)), a.shape().clone())
        }
        DType::I32 | DType::I64 if op.supports_int() => {
            if a.dtype() == DType::I32 {
                let v = a.as_slice::<i32>()?;
                TensorData::from_vec(
                    v.iter().map(|&x| op.eval_int(x as i64) as i32).collect(),
                    a.shape().clone(),
                )
            } else {
                let v = a.as_slice::<i64>()?;
                TensorData::from_vec(v.iter().map(|&x| op.eval_int(x)).collect(), a.shape().clone())
            }
        }
        got => Err(TensorError::DTypeMismatch {
            expected: format!("a dtype supporting `{}`", op.name()),
            got,
        }),
    }
}

/// Elementwise comparison with broadcasting, producing a bool tensor.
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
    // Same-shape and periodic numeric operands compare over typed slices;
    // `to_f64` is the widening `get_f64_linear` applies, so the predicate —
    // and every result — is the walker's.
    let typed = match dt {
        DType::F32 => compare_periodic::<f32>(a, b, op)?,
        DType::F64 => compare_periodic::<f64>(a, b, op)?,
        DType::I32 => compare_periodic::<i32>(a, b, op)?,
        DType::I64 => compare_periodic::<i64>(a, b, op)?,
        DType::Bool => None,
    };
    if let Some(out) = typed {
        return Ok(out);
    }
    let out_shape = broadcast_shapes(a.shape(), b.shape())?;
    let n = out_shape.num_elements();
    let mut out = Vec::with_capacity(n);
    let wa = BroadcastWalker::new(&out_shape, a.shape());
    let wb = BroadcastWalker::new(&out_shape, b.shape());
    for (ia, ib) in wa.zip(wb) {
        out.push(op.eval(a.get_f64_linear(ia), b.get_f64_linear(ib)));
    }
    TensorData::from_vec(out, out_shape)
}

/// Typed fast path of [`compare`]; `None` when an operand is not periodic.
fn compare_periodic<T: Scalar>(
    a: &TensorData,
    b: &TensorData,
    op: CmpOp,
) -> Result<Option<TensorData>> {
    let Some(out_shape) = periodic_out_shape(a, b)? else { return Ok(None) };
    let n = out_shape.num_elements();
    let av = Periodic::new(a.as_slice::<T>()?, n, PERIODIC_WINDOW);
    let bv = Periodic::new(b.as_slice::<T>()?, n, PERIODIC_WINDOW);
    let mut out = Vec::with_capacity(n);
    // One `match` per call, not per element: each arm is a loop over slices
    // with the predicate inlined.
    macro_rules! dispatch {
        ($($v:ident),*) => {
            match op {
                $(CmpOp::$v => {
                    for at in (0..n).step_by(PERIODIC_WINDOW) {
                        let len = PERIODIC_WINDOW.min(n - at);
                        let (x, y) = (av.window(at, len), bv.window(at, len));
                        out.extend(x.iter().zip(y).map(|(p, q)| CmpOp::$v.eval(p.to_f64(), q.to_f64())));
                    }
                })*
            }
        };
    }
    dispatch!(Eq, Ne, Lt, Le, Gt, Ge);
    TensorData::from_vec(out, out_shape).map(Some)
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
    map2_par::<bool, bool>(a, b, |x, y| op.eval(x, y))
}

/// The output shape when both operands of a broadcasting map are periodic
/// in it (and so can be read through [`Periodic`] windows), or `None` when
/// either needs a [`BroadcastWalker`] (a `[n, 1]` column, two partial
/// operands). Same-shape operands are the common case and never compute
/// the broadcast.
fn periodic_out_shape(a: &TensorData, b: &TensorData) -> Result<Option<crate::Shape>> {
    if a.shape() == b.shape() {
        return Ok(Some(a.shape().clone()));
    }
    let out = broadcast_shapes(a.shape(), b.shape())?;
    let periodic = a.shape().is_periodic_in(&out) && b.shape().is_periodic_in(&out);
    Ok(periodic.then_some(out))
}

/// Longest slice the periodic fast paths read at once: one L1-resident
/// block, which also bounds the repeated pattern a short operand costs.
const PERIODIC_WINDOW: usize = 4096;

/// F32 fast path for [`binary`]: same-shape and periodic operands (scalars,
/// biases, masks over trailing axes) run the fixed-width lane kernel
/// ([`crate::lanes::binary_f32`], op dispatch hoisted per block) over
/// contiguous [`Periodic`] windows; other broadcasts keep the walker-based
/// map. Both are bit-identical to scalar evaluation — lanes only
/// restructure an element-independent map.
fn binary_f32_lanes(a: &TensorData, b: &TensorData, op: BinaryOp) -> Result<TensorData> {
    let Some(out_shape) = periodic_out_shape(a, b)? else {
        return map2_par::<f32, f32>(a, b, |x, y| op.eval_float(x, y));
    };
    let n = out_shape.num_elements();
    let av = Periodic::new(a.as_slice::<f32>()?, n, PERIODIC_WINDOW);
    let bv = Periodic::new(b.as_slice::<f32>()?, n, PERIODIC_WINDOW);
    let mut out = vec![0.0f32; n];
    tfe_parallel::par_chunks_mut(&mut out, 1, crate::par::GRAIN_ELEMWISE, |r, chunk| {
        for (k, block) in chunk.chunks_mut(PERIODIC_WINDOW).enumerate() {
            let at = r.start + k * PERIODIC_WINDOW;
            let len = block.len();
            crate::lanes::binary_f32(op, av.window(at, len), bv.window(at, len), block);
        }
    });
    TensorData::from_vec(out, out_shape)
}

/// Parallel map over a contiguous slice (the unary fast path).
fn unary_par<T: Scalar, U: Scalar + Default>(v: &[T], f: impl Fn(T) -> U + Sync) -> Vec<U> {
    let mut out = vec![U::default(); v.len()];
    tfe_parallel::par_chunks_mut(&mut out, 1, crate::par::GRAIN_ELEMWISE, |r, chunk| {
        for (o, &x) in chunk.iter_mut().zip(&v[r]) {
            *o = f(x);
        }
    });
    out
}

/// Elementwise boolean negation.
///
/// # Errors
/// Operand not bool.
pub fn logical_not(a: &TensorData) -> Result<TensorData> {
    let v = a.as_slice::<bool>()?;
    TensorData::from_vec(unary_par(v, |x: bool| !x), a.shape().clone())
}

/// `where(cond, a, b)` with three-way broadcasting.
///
/// # Errors
/// `cond` not bool; `a`/`b` dtype mismatch; incompatible shapes.
pub fn select(cond: &TensorData, a: &TensorData, b: &TensorData) -> Result<TensorData> {
    if cond.dtype() != DType::Bool {
        return Err(TensorError::DTypeMismatch { expected: "bool".to_string(), got: cond.dtype() });
    }
    let dt = check_same_dtype(a, b)?;
    let s = broadcast_shapes(cond.shape(), &broadcast_shapes(a.shape(), b.shape())?)?;
    let n = s.num_elements();
    let cv = cond.as_slice::<bool>()?;
    let wc = BroadcastWalker::new(&s, cond.shape());
    let wa = BroadcastWalker::new(&s, a.shape());
    let wb = BroadcastWalker::new(&s, b.shape());
    let mut out = TensorData::zeros(dt, s.clone());
    for (i, ((ic, ia), ib)) in wc.zip(wa).zip(wb).enumerate() {
        let v = if cv[ic] { a.get_f64_linear(ia) } else { b.get_f64_linear(ib) };
        out.set_f64_linear(i, v);
    }
    let _ = n;
    Ok(out)
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
                assert_eq!(r.get_f64_linear(i), expect);
            }
        });
    }
}
