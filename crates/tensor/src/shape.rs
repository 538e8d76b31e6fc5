//! Tensor shapes, row-major strides, index arithmetic and broadcasting.
//!
//! `strided` is the crate's one index walk: every kernel that visits an
//! index space in row-major order — a broadcasting map, `select`, the
//! batch offsets of `batch_matmul`, the data-movement kernels, a
//! reduction's output index — runs on it, with per-axis strides (0 to
//! broadcast, repeat or reduce) and a start position for parallel tiles.

use crate::{Result, TensorError};
use std::fmt;

/// The shape of a tensor: a list of non-negative dimension sizes.
///
/// A rank-0 (scalar) tensor has an empty dimension list and one element.
#[derive(Clone, Eq, Default)]
pub struct Shape(Vec<usize>);

impl PartialEq for Shape {
    /// An element loop rather than the derived `Vec == Vec`: that lowers
    /// to `memcmp`, and a zero-length `memcmp` on an empty `Vec`'s dangling
    /// pointer — every scalar-against-scalar shape check — was measured at
    /// ~100 ns with glibc's masked-load implementation on AVX-512 hosts,
    /// against ~2 ns for the loop at the ranks shapes have.
    fn eq(&self, other: &Shape) -> bool {
        self.0.len() == other.0.len() && self.0.iter().zip(&other.0).all(|(a, b)| a == b)
    }
}

impl std::hash::Hash for Shape {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl Shape {
    /// Shape of a scalar (rank 0, one element).
    pub fn scalar() -> Shape {
        Shape(Vec::new())
    }

    /// Create a shape from dimension sizes.
    pub fn new(dims: impl Into<Vec<usize>>) -> Shape {
        Shape(dims.into())
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of dimensions; 1 for scalars).
    pub fn num_elements(&self) -> usize {
        self.0.iter().product()
    }

    /// Size of dimension `axis`.
    ///
    /// # Panics
    /// Panics if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> usize {
        self.0[axis]
    }

    /// Resolve a possibly-negative axis (Python style) against this rank.
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidAxis`] when out of range.
    pub fn resolve_axis(&self, axis: i64) -> Result<usize> {
        let rank = self.rank() as i64;
        let a = if axis < 0 { axis + rank } else { axis };
        if a < 0 || a >= rank {
            return Err(TensorError::InvalidAxis { axis, rank: self.rank() });
        }
        Ok(a as usize)
    }

    /// Row-major (C order) strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![0; self.rank()];
        let mut acc = 1;
        for i in (0..self.rank()).rev() {
            strides[i] = acc;
            acc *= self.0[i];
        }
        strides
    }

    /// Whether this shape broadcasts with `other` under NumPy rules.
    pub fn broadcasts_with(&self, other: &Shape) -> bool {
        broadcast_shapes(self, other).is_ok()
    }

    /// Whether an operand of this shape is *periodic* when broadcast to
    /// `out`: flat element `i` of the result reads flat element `i % p` of
    /// the operand, `p` being this shape's element count. That holds
    /// exactly when this shape, leading 1s stripped, is a suffix of `out` —
    /// scalars (`p = 1`), biases and masks over trailing axes, and `out`
    /// itself (`p` = every element). Anything else (a `[n, 1]` column
    /// against `[n, k]`) is read through a `strided` walk.
    pub fn is_periodic_in(&self, out: &Shape) -> bool {
        let lead = self.0.iter().take_while(|&&d| d == 1).count();
        let tail = &self.0[lead..];
        // Ranks are tiny: an element loop beats `ends_with`'s `memcmp` call
        // (measured at ~80 ns for an empty needle, which is every scalar).
        tail.len() <= out.0.len() && tail.iter().rev().zip(out.0.iter().rev()).all(|(a, b)| a == b)
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape({:?})", self.0)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        if self.0.len() == 1 {
            write!(f, ",")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(v: Vec<usize>) -> Shape {
        Shape(v)
    }
}

impl From<&[usize]> for Shape {
    fn from(v: &[usize]) -> Shape {
        Shape(v.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(v: [usize; N]) -> Shape {
        Shape(v.to_vec())
    }
}

/// Compute the broadcast of two shapes under NumPy rules.
///
/// Missing leading dimensions are treated as 1; a dimension of size 1
/// stretches to match the other operand.
///
/// # Errors
/// Returns [`TensorError::BroadcastMismatch`] when a pair of dimensions is
/// incompatible.
pub fn broadcast_shapes(a: &Shape, b: &Shape) -> Result<Shape> {
    let rank = a.rank().max(b.rank());
    let mut dims = vec![0usize; rank];
    for (i, dim) in dims.iter_mut().enumerate() {
        let da = if i < rank - a.rank() { 1 } else { a.dims()[i - (rank - a.rank())] };
        let db = if i < rank - b.rank() { 1 } else { b.dims()[i - (rank - b.rank())] };
        *dim = if da == db {
            da
        } else if da == 1 {
            db
        } else if db == 1 {
            da
        } else {
            return Err(TensorError::BroadcastMismatch { lhs: a.clone(), rhs: b.clone() });
        };
    }
    Ok(Shape(dims))
}

/// Iterator-free index math: convert a linear index into `shape` to the
/// linear index of the corresponding (broadcast) element of a tensor whose
/// shape broadcasts to `shape`.
///
/// `src_dims` are the source dimensions right-aligned against `out_dims`.
/// The kernels walk with `strided`; this per-index form is the
/// independent reference the tests hold that walk to.
pub fn broadcast_source_index(out_dims: &[usize], src_dims: &[usize], linear: usize) -> usize {
    let rank = out_dims.len();
    let offset = rank - src_dims.len();
    let mut rem = linear;
    let mut src_index = 0;
    let mut src_stride = 1;
    // Walk dimensions from the innermost outwards, accumulating the source
    // index with stride-0 semantics for broadcast dimensions.
    let mut src_strides = vec![0usize; src_dims.len()];
    {
        let mut acc = 1;
        for i in (0..src_dims.len()).rev() {
            src_strides[i] = acc;
            acc *= src_dims[i];
        }
    }
    for i in (0..rank).rev() {
        let coord = rem % out_dims[i];
        rem /= out_dims[i];
        if i >= offset {
            let sd = src_dims[i - offset];
            if sd != 1 {
                src_index += coord * src_strides[i - offset];
            }
        }
        src_stride *= out_dims[i];
    }
    let _ = src_stride;
    src_index
}

/// The crate's one row-major walk: the offsets `Σ coords[i]·strides[i]`
/// of every index of `extents` in row-major order, from linear position
/// `start` on (a parallel tile's first element). A stride of 0 repeats an
/// axis: a broadcast operand ([`broadcast_strides`]), a tiled one, or the
/// output of a reduction, whose index is this walk over the input with
/// stride 0 on the reduced axes. The walk borrows `extents` and `strides`;
/// its one allocation is the coordinate odometer.
pub(crate) fn strided<'a>(
    extents: &'a [usize],
    strides: &'a [usize],
    start: usize,
) -> impl Iterator<Item = usize> + 'a {
    let total: usize = extents.iter().product();
    debug_assert!(start <= total);
    let mut coords = vec![0usize; extents.len()];
    let mut offset = 0;
    if start < total {
        let mut rem = start;
        for i in (0..extents.len()).rev() {
            coords[i] = rem % extents[i];
            rem /= extents[i];
            offset += coords[i] * strides[i];
        }
    }
    let mut left = total.saturating_sub(start);
    std::iter::from_fn(move || {
        if left == 0 {
            return None;
        }
        left -= 1;
        let current = offset;
        for i in (0..extents.len()).rev() {
            coords[i] += 1;
            offset += strides[i];
            if coords[i] < extents[i] {
                break;
            }
            offset -= strides[i] * extents[i];
            coords[i] = 0;
        }
        Some(current)
    })
}

/// The strides that read a source of shape `src` as if broadcast to `out`:
/// `src`'s row-major strides right-aligned against `out`, 0 on every axis
/// `src` stretches (extent 1) or lacks.
pub(crate) fn broadcast_strides(out: &Shape, src: &Shape) -> Vec<usize> {
    let mut strides = vec![0; out.rank()];
    let mut acc = 1;
    for (s, &d) in strides.iter_mut().rev().zip(src.dims().iter().rev()) {
        if d != 1 {
            *s = acc;
        }
        acc *= d;
    }
    strides
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{each_seed, Rng};

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.num_elements(), 1);
        assert_eq!(s.to_string(), "()");
    }

    #[test]
    fn display_forms() {
        assert_eq!(Shape::from([3]).to_string(), "(3,)");
        assert_eq!(Shape::from([2, 3]).to_string(), "(2, 3)");
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::from([2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::scalar().strides(), Vec::<usize>::new());
    }

    #[test]
    fn broadcast_basic() {
        let a = Shape::from([2, 1, 4]);
        let b = Shape::from([3, 1]);
        assert_eq!(broadcast_shapes(&a, &b).unwrap(), Shape::from([2, 3, 4]));
    }

    #[test]
    fn broadcast_scalar() {
        let a = Shape::scalar();
        let b = Shape::from([5, 2]);
        assert_eq!(broadcast_shapes(&a, &b).unwrap(), Shape::from([5, 2]));
        assert_eq!(broadcast_shapes(&b, &a).unwrap(), Shape::from([5, 2]));
    }

    #[test]
    fn broadcast_mismatch() {
        let a = Shape::from([2, 3]);
        let b = Shape::from([4, 3]);
        assert!(broadcast_shapes(&a, &b).is_err());
    }

    #[test]
    fn resolve_axis_negative() {
        let s = Shape::from([2, 3, 4]);
        assert_eq!(s.resolve_axis(-1).unwrap(), 2);
        assert_eq!(s.resolve_axis(0).unwrap(), 0);
        assert!(s.resolve_axis(3).is_err());
        assert!(s.resolve_axis(-4).is_err());
    }

    fn walk(out: &[usize], src: &[usize], start: usize) -> Vec<usize> {
        strided(out, &broadcast_strides(&Shape::from(out), &Shape::from(src)), start).collect()
    }

    #[test]
    fn walk_identity_row_col_and_scalar() {
        assert_eq!(walk(&[2, 3], &[2, 3], 0), (0..6).collect::<Vec<_>>());
        assert_eq!(walk(&[2, 3], &[3], 0), vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(walk(&[2, 3], &[2, 1], 0), vec![0, 0, 0, 1, 1, 1]);
        assert_eq!(walk(&[2, 2], &[], 0), vec![0, 0, 0, 0]);
        assert_eq!(walk(&[2, 0], &[2, 1], 0), Vec::<usize>::new());
    }

    #[test]
    fn strided_repeats_and_offsets() {
        // `tile`'s form: a repeated axis reads at stride 0.
        let got: Vec<usize> = strided(&[2, 3], &[0, 1], 0).collect();
        assert_eq!(got, vec![0, 1, 2, 0, 1, 2]);
        let got: Vec<usize> = strided(&[2, 2], &[10, 1], 1).collect();
        assert_eq!(got, vec![1, 10, 11]);
    }

    fn small_dims(rng: &mut Rng) -> Shape {
        let rank = rng.range(0usize..4);
        Shape::new((0..rank).map(|_| rng.range(1..4)).collect::<Vec<usize>>())
    }

    #[test]
    fn broadcast_commutes() {
        each_seed(64, |rng| {
            let (sa, sb) = (small_dims(rng), small_dims(rng));
            match (broadcast_shapes(&sa, &sb), broadcast_shapes(&sb, &sa)) {
                (Ok(x), Ok(y)) => assert_eq!(x, y),
                (Err(_), Err(_)) => {}
                _ => panic!("broadcast not symmetric"),
            }
        });
    }

    #[test]
    fn broadcast_with_self_is_identity() {
        each_seed(64, |rng| {
            let s = small_dims(rng);
            assert_eq!(broadcast_shapes(&s, &s).unwrap(), s);
        });
    }

    #[test]
    fn walk_matches_per_index_math_from_every_start() {
        each_seed(64, |rng| {
            let (sa, sb) = (small_dims(rng), small_dims(rng));
            if let Ok(out) = broadcast_shapes(&sa, &sb) {
                let n = out.num_elements();
                let direct: Vec<usize> =
                    (0..n).map(|i| broadcast_source_index(out.dims(), sa.dims(), i)).collect();
                for start in 0..=n {
                    let strides = broadcast_strides(&out, &sa);
                    let walked: Vec<usize> = strided(out.dims(), &strides, start).collect();
                    assert_eq!(walked, direct[start..]);
                }
                assert!(direct.iter().all(|&idx| idx < sa.num_elements()));
            }
        });
    }
}
