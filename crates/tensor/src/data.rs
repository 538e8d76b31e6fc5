//! Concrete tensor storage: a contiguous row-major buffer plus a shape.

use crate::{DType, Result, Shape, TensorError};
use std::cell::RefCell;
use std::fmt;
use std::thread::LocalKey;

/// Marker trait connecting Rust scalar types to [`DType`]s.
///
/// Sealed in practice: only the five buffer element types implement it.
pub trait Scalar: Copy + PartialEq + PartialOrd + fmt::Debug + Send + Sync + 'static {
    /// The dtype corresponding to this Rust type.
    const DTYPE: DType;
    /// Lossy conversion to `f64` (bool maps to 0.0/1.0).
    fn to_f64(self) -> f64;
    /// Lossy conversion from `f64` (bool is `v != 0.0`; ints truncate).
    fn from_f64(v: f64) -> Self;
    /// View a buffer as a slice of this type, if the dtype matches.
    fn slice(buf: &Buffer) -> Option<&[Self]>;
    /// Mutable variant of [`Scalar::slice`].
    fn slice_mut(buf: &mut Buffer) -> Option<&mut [Self]>;
    /// Wrap a vector of this type into a buffer.
    fn into_buffer(v: Vec<Self>) -> Buffer;
    /// This type's per-thread pool of elementwise tile scratch
    /// ([`crate::lanes::Tiler`]), reused across tiles and calls.
    fn scratch() -> &'static LocalKey<RefCell<Vec<Vec<Self>>>>;
}

macro_rules! impl_scalar {
    ($ty:ty, $dtype:expr, $variant:ident, $to:expr, $from:expr) => {
        impl Scalar for $ty {
            const DTYPE: DType = $dtype;
            fn to_f64(self) -> f64 {
                ($to)(self)
            }
            fn from_f64(v: f64) -> Self {
                ($from)(v)
            }
            fn slice(buf: &Buffer) -> Option<&[Self]> {
                match buf {
                    Buffer::$variant(v) => Some(v),
                    _ => None,
                }
            }
            fn slice_mut(buf: &mut Buffer) -> Option<&mut [Self]> {
                match buf {
                    Buffer::$variant(v) => Some(v),
                    _ => None,
                }
            }
            fn into_buffer(v: Vec<Self>) -> Buffer {
                Buffer::$variant(v)
            }
            fn scratch() -> &'static LocalKey<RefCell<Vec<Vec<Self>>>> {
                thread_local! {
                    static SCRATCH: RefCell<Vec<Vec<$ty>>> = const { RefCell::new(Vec::new()) };
                }
                &SCRATCH
            }
        }
    };
}

impl_scalar!(f32, DType::F32, F32, |x: f32| x as f64, |v: f64| v as f32);
impl_scalar!(f64, DType::F64, F64, |x: f64| x, |v: f64| v);
impl_scalar!(i32, DType::I32, I32, |x: i32| x as f64, |v: f64| v as i32);
impl_scalar!(i64, DType::I64, I64, |x: i64| x as f64, |v: f64| v as i64);
impl_scalar!(bool, DType::Bool, Bool, |x: bool| if x { 1.0 } else { 0.0 }, |v: f64| v != 0.0);

/// A buffer on loan from this thread's [`Scalar::scratch`] pool: empty when
/// taken (its capacity kept), handed back to the pool on drop. Kernels that
/// run many tiles or calls on one thread take their scratch here instead of
/// allocating it.
pub(crate) struct Scratch<U: Scalar>(Vec<U>);

impl<U: Scalar> Scratch<U> {
    /// An empty buffer from the pool.
    pub(crate) fn take() -> Self {
        let mut v = U::scratch().with(|s| s.borrow_mut().pop()).unwrap_or_default();
        v.clear();
        Scratch(v)
    }

    /// A buffer from the pool holding `len` copies of `value`.
    pub(crate) fn filled(len: usize, value: U) -> Self {
        let mut s = Scratch::take();
        s.0.resize(len, value);
        s
    }
}

impl<U: Scalar> Drop for Scratch<U> {
    fn drop(&mut self) {
        let v = std::mem::take(&mut self.0);
        // A thread being torn down has no pool left to return it to.
        let _ = U::scratch().try_with(|s| s.borrow_mut().push(v));
    }
}

impl<U: Scalar> std::ops::Deref for Scratch<U> {
    type Target = Vec<U>;
    fn deref(&self) -> &Vec<U> {
        &self.0
    }
}

impl<U: Scalar> std::ops::DerefMut for Scratch<U> {
    fn deref_mut(&mut self) -> &mut Vec<U> {
        &mut self.0
    }
}

/// Typed contiguous storage for tensor elements.
#[derive(Clone, PartialEq)]
pub enum Buffer {
    /// 32-bit floats.
    F32(Vec<f32>),
    /// 64-bit floats.
    F64(Vec<f64>),
    /// 32-bit ints.
    I32(Vec<i32>),
    /// 64-bit ints.
    I64(Vec<i64>),
    /// Booleans.
    Bool(Vec<bool>),
}

impl Buffer {
    /// The dtype stored by this buffer.
    pub fn dtype(&self) -> DType {
        match self {
            Buffer::F32(_) => DType::F32,
            Buffer::F64(_) => DType::F64,
            Buffer::I32(_) => DType::I32,
            Buffer::I64(_) => DType::I64,
            Buffer::Bool(_) => DType::Bool,
        }
    }

    /// Number of stored elements.
    pub fn len(&self) -> usize {
        match self {
            Buffer::F32(v) => v.len(),
            Buffer::F64(v) => v.len(),
            Buffer::I32(v) => v.len(),
            Buffer::I64(v) => v.len(),
            Buffer::Bool(v) => v.len(),
        }
    }

    /// Whether the buffer holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocate a zero-filled buffer of `len` elements of `dtype`.
    pub fn zeros(dtype: DType, len: usize) -> Buffer {
        match dtype {
            DType::F32 => Buffer::F32(vec![0.0; len]),
            DType::F64 => Buffer::F64(vec![0.0; len]),
            DType::I32 => Buffer::I32(vec![0; len]),
            DType::I64 => Buffer::I64(vec![0; len]),
            DType::Bool => Buffer::Bool(vec![false; len]),
        }
    }
}

impl fmt::Debug for Buffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Buffer<{}>[{}]", self.dtype(), self.len())
    }
}

/// A dense, contiguous, row-major multi-dimensional array.
///
/// `TensorData` is the concrete value produced by executing a kernel; the
/// runtime wraps it in device-placed handles. It is immutable by convention:
/// operations return new `TensorData` values (variables swap whole buffers).
///
/// # Examples
///
/// ```
/// use tfe_tensor::{TensorData, Shape, DType};
/// let t = TensorData::from_vec(vec![1.0f32, 2.0, 3.0, 4.0], Shape::from([2, 2])).unwrap();
/// assert_eq!(t.dtype(), DType::F32);
/// assert_eq!(t.shape().dims(), &[2, 2]);
/// assert_eq!(t.get_f64(&[1, 0]).unwrap(), 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct TensorData {
    shape: Shape,
    buf: Buffer,
}

impl TensorData {
    /// Build a tensor from a flat vector and a shape.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] when the element count does not
    /// match the shape.
    pub fn from_vec<T: Scalar>(data: Vec<T>, shape: impl Into<Shape>) -> Result<TensorData> {
        let shape = shape.into();
        if data.len() != shape.num_elements() {
            return Err(TensorError::ShapeMismatch {
                expected: format!("{} elements for shape {shape}", shape.num_elements()),
                got: Shape::from([data.len()]),
            });
        }
        Ok(TensorData { shape, buf: T::into_buffer(data) })
    }

    /// Build a tensor from an existing buffer and shape.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] on element-count mismatch.
    pub fn from_buffer(buf: Buffer, shape: impl Into<Shape>) -> Result<TensorData> {
        let shape = shape.into();
        if buf.len() != shape.num_elements() {
            return Err(TensorError::ShapeMismatch {
                expected: format!("{} elements for shape {shape}", shape.num_elements()),
                got: Shape::from([buf.len()]),
            });
        }
        Ok(TensorData { shape, buf })
    }

    /// A rank-0 tensor holding one value.
    pub fn scalar<T: Scalar>(value: T) -> TensorData {
        TensorData { shape: Shape::scalar(), buf: T::into_buffer(vec![value]) }
    }

    /// A zero-filled tensor.
    pub fn zeros(dtype: DType, shape: impl Into<Shape>) -> TensorData {
        let shape = shape.into();
        let buf = Buffer::zeros(dtype, shape.num_elements());
        TensorData { shape, buf }
    }

    /// A one-filled tensor.
    pub fn ones(dtype: DType, shape: impl Into<Shape>) -> TensorData {
        TensorData::fill_f64(dtype, shape, 1.0)
    }

    /// A tensor filled with `value`, converted into `dtype`.
    pub fn fill_f64(dtype: DType, shape: impl Into<Shape>, value: f64) -> TensorData {
        let shape = shape.into();
        let n = shape.num_elements();
        let buf = match dtype {
            DType::F32 => Buffer::F32(vec![value as f32; n]),
            DType::F64 => Buffer::F64(vec![value; n]),
            DType::I32 => Buffer::I32(vec![value as i32; n]),
            DType::I64 => Buffer::I64(vec![value as i64; n]),
            DType::Bool => Buffer::Bool(vec![value != 0.0; n]),
        };
        TensorData { shape, buf }
    }

    /// The identity matrix of size `n` with the given float dtype.
    pub fn eye(dtype: DType, n: usize) -> TensorData {
        let mut t = TensorData::zeros(dtype, [n, n]);
        for i in 0..n {
            t.set_f64_linear(i * n + i, 1.0);
        }
        t
    }

    /// `[start, start+step, ...)` with `count` elements, like `tf.range`.
    pub fn range_f64(dtype: DType, start: f64, step: f64, count: usize) -> TensorData {
        let vals: Vec<f64> = (0..count).map(|i| start + step * i as f64).collect();
        TensorData::from_f64_vec(dtype, vals, Shape::from([count]))
    }

    /// Build a tensor of `dtype` from `f64` values (converted per element).
    ///
    /// # Panics
    /// Panics if `vals.len()` does not match `shape` (internal constructor).
    pub fn from_f64_vec(dtype: DType, vals: Vec<f64>, shape: impl Into<Shape>) -> TensorData {
        let shape = shape.into();
        assert_eq!(vals.len(), shape.num_elements(), "from_f64_vec length mismatch");
        let buf = match dtype {
            DType::F32 => Buffer::F32(vals.iter().map(|&v| v as f32).collect()),
            DType::F64 => Buffer::F64(vals),
            DType::I32 => Buffer::I32(vals.iter().map(|&v| v as i32).collect()),
            DType::I64 => Buffer::I64(vals.iter().map(|&v| v as i64).collect()),
            DType::Bool => Buffer::Bool(vals.iter().map(|&v| v != 0.0).collect()),
        };
        TensorData { shape, buf }
    }

    /// The element dtype.
    pub fn dtype(&self) -> DType {
        self.buf.dtype()
    }

    /// The tensor shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn num_elements(&self) -> usize {
        self.shape.num_elements()
    }

    /// The underlying buffer.
    pub fn buffer(&self) -> &Buffer {
        &self.buf
    }

    /// The underlying buffer, for kernels that move whole runs of elements.
    pub(crate) fn buffer_mut(&mut self) -> &mut Buffer {
        &mut self.buf
    }

    /// Consume into the underlying buffer and shape.
    pub fn into_parts(self) -> (Buffer, Shape) {
        (self.buf, self.shape)
    }

    /// Typed view of the elements.
    ///
    /// # Errors
    /// Returns [`TensorError::DTypeMismatch`] when `T` does not match.
    pub fn as_slice<T: Scalar>(&self) -> Result<&[T]> {
        T::slice(&self.buf).ok_or_else(|| TensorError::DTypeMismatch {
            expected: T::DTYPE.name().to_string(),
            got: self.dtype(),
        })
    }

    /// Mutable typed view of the elements.
    ///
    /// # Errors
    /// Returns [`TensorError::DTypeMismatch`] when `T` does not match.
    pub fn as_slice_mut<T: Scalar>(&mut self) -> Result<&mut [T]> {
        let dtype = self.dtype();
        T::slice_mut(&mut self.buf).ok_or_else(|| TensorError::DTypeMismatch {
            expected: T::DTYPE.name().to_string(),
            got: dtype,
        })
    }

    /// Read one element at a multi-index, converted to `f64`.
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidArgument`] for a bad index.
    pub fn get_f64(&self, index: &[usize]) -> Result<f64> {
        if index.len() != self.shape.rank() {
            return Err(TensorError::InvalidArgument(format!(
                "index rank {} does not match tensor rank {}",
                index.len(),
                self.shape.rank()
            )));
        }
        let strides = self.shape.strides();
        let mut linear = 0;
        for (i, (&ix, &d)) in index.iter().zip(self.shape.dims()).enumerate() {
            if ix >= d {
                return Err(TensorError::InvalidArgument(format!(
                    "index {ix} out of bounds for dim {i} of size {d}"
                )));
            }
            linear += ix * strides[i];
        }
        Ok(self.get_f64_linear(linear))
    }

    /// Read the element at a linear (row-major) offset as `f64`.
    ///
    /// # Panics
    /// Panics if `linear` is out of bounds.
    pub fn get_f64_linear(&self, linear: usize) -> f64 {
        match &self.buf {
            Buffer::F32(v) => v[linear] as f64,
            Buffer::F64(v) => v[linear],
            Buffer::I32(v) => v[linear] as f64,
            Buffer::I64(v) => v[linear] as f64,
            Buffer::Bool(v) => {
                if v[linear] {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Write the element at a linear offset from an `f64` value.
    ///
    /// # Panics
    /// Panics if `linear` is out of bounds.
    pub fn set_f64_linear(&mut self, linear: usize, value: f64) {
        match &mut self.buf {
            Buffer::F32(v) => v[linear] = value as f32,
            Buffer::F64(v) => v[linear] = value,
            Buffer::I32(v) => v[linear] = value as i32,
            Buffer::I64(v) => v[linear] = value as i64,
            Buffer::Bool(v) => v[linear] = value != 0.0,
        }
    }

    /// The single value of a rank-0 or single-element tensor, as `f64`.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] when the tensor has more than
    /// one element.
    pub fn scalar_f64(&self) -> Result<f64> {
        if self.num_elements() != 1 {
            return Err(TensorError::ShapeMismatch {
                expected: "a single-element tensor".to_string(),
                got: self.shape.clone(),
            });
        }
        Ok(self.get_f64_linear(0))
    }

    /// All elements converted to `f64`, in row-major order.
    pub fn to_f64_vec(&self) -> Vec<f64> {
        (0..self.num_elements()).map(|i| self.get_f64_linear(i)).collect()
    }

    /// All elements converted to `i64`, in row-major order.
    ///
    /// Float values are truncated toward zero.
    pub fn to_i64_vec(&self) -> Vec<i64> {
        match &self.buf {
            Buffer::F32(v) => v.iter().map(|&x| x as i64).collect(),
            Buffer::F64(v) => v.iter().map(|&x| x as i64).collect(),
            Buffer::I32(v) => v.iter().map(|&x| x as i64).collect(),
            Buffer::I64(v) => v.clone(),
            Buffer::Bool(v) => v.iter().map(|&x| x as i64).collect(),
        }
    }

    /// Convert this tensor to another dtype, element by element.
    ///
    /// Float→int truncates toward zero; anything→bool is `!= 0`;
    /// bool→numeric is 0/1. Casting to the same dtype is a cheap clone.
    pub fn cast(&self, dtype: DType) -> TensorData {
        if dtype == self.dtype() {
            return self.clone();
        }
        /// Each element through `f64` (`Scalar::to_f64`, then `from_f64`),
        /// one element at a time: the value a trip through a `Vec<f64>`
        /// gives, without the `Vec`.
        fn each<T: Scalar>(v: &[T], dtype: DType) -> Buffer {
            fn to<T: Scalar, U: Scalar>(v: &[T]) -> Buffer {
                U::into_buffer(v.iter().map(|&x| U::from_f64(x.to_f64())).collect())
            }
            match dtype {
                DType::F32 => to::<T, f32>(v),
                DType::F64 => to::<T, f64>(v),
                DType::I32 => to::<T, i32>(v),
                DType::I64 => to::<T, i64>(v),
                DType::Bool => to::<T, bool>(v),
            }
        }
        let buf = match (&self.buf, dtype) {
            // Int64 values above 2^53 would lose precision through f64;
            // the int-to-int paths are exact.
            (Buffer::I64(v), DType::I32) => Buffer::I32(v.iter().map(|&x| x as i32).collect()),
            (Buffer::I32(v), DType::I64) => Buffer::I64(v.iter().map(|&x| x as i64).collect()),
            (Buffer::F32(v), _) => each(v, dtype),
            (Buffer::F64(v), _) => each(v, dtype),
            (Buffer::I32(v), _) => each(v, dtype),
            (Buffer::I64(v), _) => each(v, dtype),
            (Buffer::Bool(v), _) => each(v, dtype),
        };
        TensorData { shape: self.shape.clone(), buf }
    }

    /// Reinterpret the data with a new shape of equal element count.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] when counts differ.
    pub fn with_shape(&self, shape: impl Into<Shape>) -> Result<TensorData> {
        let shape = shape.into();
        if shape.num_elements() != self.num_elements() {
            return Err(TensorError::ShapeMismatch {
                expected: format!("{} elements", self.num_elements()),
                got: shape,
            });
        }
        Ok(TensorData { shape, buf: self.buf.clone() })
    }

    /// Approximate equality for float tensors (exact for other dtypes).
    ///
    /// Useful in tests; `rtol`/`atol` follow the NumPy `allclose` convention.
    pub fn all_close(&self, other: &TensorData, rtol: f64, atol: f64) -> bool {
        if self.shape != other.shape || self.dtype() != other.dtype() {
            return false;
        }
        (0..self.num_elements()).all(|i| {
            let a = self.get_f64_linear(i);
            let b = other.get_f64_linear(i);
            if a.is_nan() && b.is_nan() {
                return true;
            }
            (a - b).abs() <= atol + rtol * b.abs()
        })
    }
}

impl fmt::Debug for TensorData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TensorData(shape={}, dtype={}, ", self.shape, self.dtype())?;
        let n = self.num_elements();
        let show = n.min(8);
        write!(f, "[")?;
        for i in 0..show {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", self.get_f64_linear(i))?;
        }
        if n > show {
            write!(f, ", ...")?;
        }
        write!(f, "])")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        assert!(TensorData::from_vec(vec![1.0f32, 2.0], Shape::from([3])).is_err());
        assert!(TensorData::from_vec(vec![1.0f32, 2.0, 3.0], Shape::from([3])).is_ok());
    }

    #[test]
    fn scalar_round_trip() {
        let t = TensorData::scalar(3.5f32);
        assert_eq!(t.shape().rank(), 0);
        assert_eq!(t.scalar_f64().unwrap(), 3.5);
    }

    #[test]
    fn zeros_ones_fill() {
        let z = TensorData::zeros(DType::I32, [2, 2]);
        assert_eq!(z.to_f64_vec(), vec![0.0; 4]);
        let o = TensorData::ones(DType::F64, [3]);
        assert_eq!(o.to_f64_vec(), vec![1.0; 3]);
        let f = TensorData::fill_f64(DType::F32, [2], 2.5);
        assert_eq!(f.to_f64_vec(), vec![2.5, 2.5]);
    }

    #[test]
    fn eye_matrix() {
        let e = TensorData::eye(DType::F32, 3);
        assert_eq!(e.get_f64(&[0, 0]).unwrap(), 1.0);
        assert_eq!(e.get_f64(&[0, 1]).unwrap(), 0.0);
        assert_eq!(e.get_f64(&[2, 2]).unwrap(), 1.0);
    }

    #[test]
    fn range_values() {
        let r = TensorData::range_f64(DType::I64, 2.0, 3.0, 4);
        assert_eq!(r.to_i64_vec(), vec![2, 5, 8, 11]);
    }

    #[test]
    fn get_set_multi_index() {
        let mut t = TensorData::zeros(DType::F32, [2, 3]);
        t.set_f64_linear(4, 7.0);
        assert_eq!(t.get_f64(&[1, 1]).unwrap(), 7.0);
        assert!(t.get_f64(&[2, 0]).is_err());
        assert!(t.get_f64(&[0]).is_err());
    }

    #[test]
    fn cast_paths() {
        let t = TensorData::from_vec(vec![1.7f32, -2.3, 0.0], Shape::from([3])).unwrap();
        assert_eq!(t.cast(DType::I32).to_i64_vec(), vec![1, -2, 0]);
        assert_eq!(t.cast(DType::Bool).to_f64_vec(), vec![1.0, 1.0, 0.0]);
        let b = TensorData::from_vec(vec![true, false], Shape::from([2])).unwrap();
        assert_eq!(b.cast(DType::F32).to_f64_vec(), vec![1.0, 0.0]);
        // Exact int64 -> int32 path.
        let big = TensorData::from_vec(vec![i64::from(i32::MAX)], Shape::from([1])).unwrap();
        assert_eq!(big.cast(DType::I32).to_i64_vec(), vec![i64::from(i32::MAX)]);
    }

    #[test]
    fn cast_same_dtype_is_identity() {
        let t = TensorData::from_vec(vec![1.0f64, 2.0], Shape::from([2])).unwrap();
        assert_eq!(t.cast(DType::F64), t);
    }

    #[test]
    fn as_slice_type_checked() {
        let t = TensorData::from_vec(vec![1i32, 2], Shape::from([2])).unwrap();
        assert!(t.as_slice::<i32>().is_ok());
        assert!(t.as_slice::<f32>().is_err());
    }

    #[test]
    fn with_shape_preserves_data() {
        let t = TensorData::from_vec(vec![1.0f32, 2.0, 3.0, 4.0], Shape::from([4])).unwrap();
        let r = t.with_shape([2, 2]).unwrap();
        assert_eq!(r.get_f64(&[1, 0]).unwrap(), 3.0);
        assert!(t.with_shape([3]).is_err());
    }

    #[test]
    fn all_close_tolerances() {
        let a = TensorData::from_vec(vec![1.0f32, 2.0], Shape::from([2])).unwrap();
        let b = TensorData::from_vec(vec![1.0f32 + 1e-7, 2.0], Shape::from([2])).unwrap();
        assert!(a.all_close(&b, 1e-5, 1e-6));
        let c = TensorData::from_vec(vec![1.1f32, 2.0], Shape::from([2])).unwrap();
        assert!(!a.all_close(&c, 1e-5, 1e-6));
    }

    #[test]
    fn debug_truncates() {
        let t = TensorData::zeros(DType::F32, [100]);
        let s = format!("{t:?}");
        assert!(s.contains("..."));
        assert!(s.contains("float32"));
    }
}
