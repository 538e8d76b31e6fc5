//! Reductions over axes: sum, mean, max, min, prod, any/all, argmax/argmin,
//! and the running sum `cumsum`.
//!
//! Every kernel reads and writes typed slices, and every one that adds
//! elements up holds them by one rule, `Accumulate`: a float in `f64`, an
//! int in `i64` (exact; an `i32` result saturates when it is narrowed
//! back), a bool in a bool fold for any/all.
//!
//! The fold order per axis pattern is the table in DESIGN.md ("Exactness
//! policy"). Full and suffix-axis (row) float sum/mean/prod fold through
//! [`crate::lanes::lane_fold_f64`]'s fixed 8-lane order, full ones also
//! through [`tfe_parallel::par_reduce`]'s fixed chunks: deterministic and
//! thread-count invariant, but reassociated versus a left fold. Every other
//! pattern folds each output in linear order: prefix axes by column in
//! parallel, the rest along `shape::strided`, the crate's one
//! walk, whose output index is stride 0 on the reduced axes. max/min are
//! value-exact on every pattern (NaN-free input assumed), and ints exact.

use crate::data::Scalar;
use crate::shape::{broadcast_strides, strided};
use crate::{DType, Result, Shape, TensorData, TensorError};

/// The supported reduction kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Sum of elements.
    Sum,
    /// Arithmetic mean.
    Mean,
    /// Maximum element.
    Max,
    /// Minimum element.
    Min,
    /// Product of elements.
    Prod,
}

impl ReduceOp {
    /// Stable lowercase name (`reduce_sum`, ...).
    pub fn name(self) -> &'static str {
        match self {
            ReduceOp::Sum => "reduce_sum",
            ReduceOp::Mean => "reduce_mean",
            ReduceOp::Max => "reduce_max",
            ReduceOp::Min => "reduce_min",
            ReduceOp::Prod => "reduce_prod",
        }
    }

    /// Inverse of [`ReduceOp::name`].
    pub fn from_name(name: &str) -> Option<ReduceOp> {
        ReduceOp::all().iter().copied().find(|op| op.name() == name)
    }

    /// All reduce ops.
    pub fn all() -> &'static [ReduceOp] {
        &[ReduceOp::Sum, ReduceOp::Mean, ReduceOp::Max, ReduceOp::Min, ReduceOp::Prod]
    }
}

/// An accumulator: `f64` for floats, `i64` for ints.
pub(crate) trait Wide: Copy + Send + Sync {
    /// `op`'s identity.
    fn identity(op: ReduceOp) -> Self;
    /// One step of `op`'s fold (a sum for `Mean`).
    fn fold(op: ReduceOp, acc: Self, x: Self) -> Self;
    /// A sum over `count` elements divided by `count` (at least 1); an int
    /// truncates toward zero, like `tf.reduce_mean` on integer tensors.
    fn mean(self, count: usize) -> Self;
    /// The parallel contiguous-axes paths, where the pattern has one (floats
    /// only): `acc` arrives holding the identity. False leaves it to the
    /// linear walk.
    fn fold_contiguous<T: Scalar>(
        _v: &[T],
        _s: &Shape,
        _axes: &[usize],
        _op: ReduceOp,
        _acc: &mut [Self],
    ) -> bool {
        false
    }
}

impl Wide for f64 {
    fn identity(op: ReduceOp) -> f64 {
        match op {
            ReduceOp::Sum | ReduceOp::Mean => 0.0,
            ReduceOp::Prod => 1.0,
            ReduceOp::Max => f64::NEG_INFINITY,
            ReduceOp::Min => f64::INFINITY,
        }
    }
    fn fold(op: ReduceOp, acc: f64, x: f64) -> f64 {
        match op {
            ReduceOp::Sum | ReduceOp::Mean => acc + x,
            ReduceOp::Prod => acc * x,
            ReduceOp::Max => acc.max(x),
            ReduceOp::Min => acc.min(x),
        }
    }
    fn mean(self, count: usize) -> f64 {
        self / count.max(1) as f64
    }
    fn fold_contiguous<T: Scalar>(
        v: &[T],
        shape: &Shape,
        axes: &[usize],
        op: ReduceOp,
        acc: &mut [f64],
    ) -> bool {
        let rank = shape.rank();
        let la = axes.len();
        // `axes` is sorted; classify contiguous patterns.
        let all = la == rank;
        let suffix = axes.iter().enumerate().all(|(i, &ax)| ax == rank - la + i);
        let prefix = axes.iter().enumerate().all(|(i, &ax)| ax == i);
        let fold = |a, b| f64::fold(op, a, b);
        if all {
            // Full reduction: fixed-chunk tree, each chunk folded through the
            // 8-lane accumulator order, chunks combined in ascending order —
            // deterministic for every thread count; reassociated vs. a left
            // fold for sum/mean/prod (tolerance mode), value-exact for max/min.
            let init = acc[0];
            acc[0] = tfe_parallel::par_reduce(
                v.len(),
                crate::par::GRAIN_REDUCE,
                |r| crate::lanes::lane_fold_f64(&v[r], init, fold),
                fold,
            )
            .unwrap_or(init);
        } else if suffix {
            // Trailing axes: each output element folds one contiguous row
            // through the fixed 8-lane order (`lane_fold_f64`) — deterministic
            // and thread-invariant, tolerance mode for sum/mean/prod.
            let row: usize = shape.dims()[rank - la..].iter().product();
            if row == 0 {
                return true;
            }
            let grain = (crate::par::GRAIN_ELEMWISE / row).max(1);
            tfe_parallel::par_chunks_mut(acc, 1, grain, |rs, chunk| {
                for (o, r) in chunk.iter_mut().zip(v[rs.start * row..].chunks_exact(row)) {
                    *o = crate::lanes::lane_fold_f64(r, *o, fold);
                }
            });
        } else if prefix {
            // Leading axes: column reduction. Each output element accumulates
            // strided entries with the outer index ascending — the linear order
            // per element (lane blocks only reschedule columns, never reorder
            // within one), so this branch stays bit-for-bit.
            let inner: usize = shape.dims()[la..].iter().product();
            let outer = v.len() / inner;
            let grain = (crate::par::GRAIN_ELEMWISE / outer.max(1)).max(1);
            tfe_parallel::par_chunks_mut(acc, 1, grain, |r, chunk| {
                for k in 0..outer {
                    let src = &v[k * inner + r.start..][..chunk.len()];
                    crate::lanes::fold_columns_f64(chunk, src, fold);
                }
            });
        } else {
            return false;
        }
        true
    }
}

impl Wide for i64 {
    fn identity(op: ReduceOp) -> i64 {
        match op {
            ReduceOp::Sum | ReduceOp::Mean => 0,
            ReduceOp::Prod => 1,
            ReduceOp::Max => i64::MIN,
            ReduceOp::Min => i64::MAX,
        }
    }
    fn fold(op: ReduceOp, acc: i64, x: i64) -> i64 {
        match op {
            ReduceOp::Sum | ReduceOp::Mean => acc.wrapping_add(x),
            ReduceOp::Prod => acc.wrapping_mul(x),
            ReduceOp::Max => acc.max(x),
            ReduceOp::Min => acc.min(x),
        }
    }
    fn mean(self, count: usize) -> i64 {
        self / count.max(1) as i64
    }
}

/// How an element type is accumulated: widened into its [`Wide`] type and
/// narrowed back, an `f32` by rounding and an `i32` by saturating.
pub(crate) trait Accumulate: Scalar + Default {
    /// The accumulator type.
    type Wide: Wide;
    /// The element as an accumulator (exact).
    fn widen(self) -> Self::Wide;
    /// An accumulator as an element.
    fn narrow(w: Self::Wide) -> Self;
}

macro_rules! accumulate {
    ($($t:ty => $w:ty, $narrow:expr;)*) => {$(
        impl Accumulate for $t {
            type Wide = $w;
            fn widen(self) -> $w {
                self as $w
            }
            fn narrow(w: $w) -> $t {
                $narrow(w)
            }
        }
    )*};
}

accumulate! {
    f32 => f64, |w: f64| w as f32;
    f64 => f64, |w: f64| w;
    i32 => i64, |w: i64| w.clamp(i32::MIN.into(), i32::MAX.into()) as i32;
    i64 => i64, |w: i64| w;
}

/// Normalize and validate a reduction axis list.
///
/// Empty `axes` means "reduce over all axes". Axes may be negative.
///
/// # Errors
/// Invalid or duplicate axes.
pub fn normalize_axes(shape: &Shape, axes: &[i64]) -> Result<Vec<usize>> {
    if axes.is_empty() {
        return Ok((0..shape.rank()).collect());
    }
    let mut out = Vec::with_capacity(axes.len());
    for &a in axes {
        let r = shape.resolve_axis(a)?;
        if out.contains(&r) {
            return Err(TensorError::InvalidArgument(format!("duplicate reduction axis {a}")));
        }
        out.push(r);
    }
    out.sort_unstable();
    Ok(out)
}

/// Shape after reducing `axes` (normalized) with or without kept dims.
pub fn reduced_shape(shape: &Shape, axes: &[usize], keep_dims: bool) -> Shape {
    let mut dims = Vec::new();
    for (i, &d) in shape.dims().iter().enumerate() {
        if axes.contains(&i) {
            if keep_dims {
                dims.push(1);
            }
        } else {
            dims.push(d);
        }
    }
    Shape::new(dims)
}

/// Fold every element of `v` (of shape `s`) into `acc[o]`, `o` its output
/// index: the linear walk over the input, with stride 0 on the reduced
/// `axes`.
fn fold_linear<T: Copy, A>(
    v: &[T],
    s: &Shape,
    axes: &[usize],
    acc: &mut [A],
    f: impl Fn(&mut A, T),
) {
    let to_out = broadcast_strides(s, &reduced_shape(s, axes, true));
    for (&x, o) in v.iter().zip(strided(s.dims(), &to_out, 0)) {
        f(&mut acc[o], x);
    }
}

/// Reduce `a` over `axes` (empty = all axes).
///
/// Follows `tf.reduce_*` semantics: the reduced dimensions are removed
/// unless `keep_dims` is set. Max/Min over floats propagate the actual
/// values (NaN-free inputs assumed, as in TF's default kernels).
///
/// # Errors
/// Invalid axes; bool inputs for arithmetic reductions; empty reduction
/// extent for max/min.
pub fn reduce(a: &TensorData, axes: &[i64], keep_dims: bool, op: ReduceOp) -> Result<TensorData> {
    typed!(numeric a.dtype(), |T| reduce_typed::<T>(a, axes, keep_dims, op))
}

fn reduce_typed<T: Accumulate>(
    a: &TensorData,
    axes: &[i64],
    keep_dims: bool,
    op: ReduceOp,
) -> Result<TensorData> {
    let axes = normalize_axes(a.shape(), axes)?;
    let out_shape = reduced_shape(a.shape(), &axes, keep_dims);
    let count: usize = axes.iter().map(|&i| a.shape().dim(i)).product();
    if count == 0 && matches!(op, ReduceOp::Max | ReduceOp::Min) {
        return Err(TensorError::InvalidArgument(
            "max/min reduction over an empty extent".to_string(),
        ));
    }
    let v = a.as_slice::<T>()?;
    let mut acc = vec![T::Wide::identity(op); out_shape.num_elements()];
    // A zero-extent kept dimension leaves nothing to fold into.
    if !acc.is_empty() && !T::Wide::fold_contiguous(v, a.shape(), &axes, op, &mut acc) {
        fold_linear(v, a.shape(), &axes, &mut acc, |w, x| *w = Wide::fold(op, *w, x.widen()));
    }
    let mean = op == ReduceOp::Mean;
    let out = acc.into_iter().map(|w| T::narrow(if mean { w.mean(count) } else { w }));
    TensorData::from_vec(out.collect(), out_shape)
}

/// `reduce_any` / `reduce_all` over bool tensors, folded as bools. Over an
/// empty extent, `any` is false and `all` is true.
///
/// # Errors
/// Non-bool input or invalid axes.
pub fn reduce_bool(a: &TensorData, axes: &[i64], keep_dims: bool, all: bool) -> Result<TensorData> {
    if a.dtype() != DType::Bool {
        return Err(TensorError::DTypeMismatch { expected: "bool".to_string(), got: a.dtype() });
    }
    let axes = normalize_axes(a.shape(), axes)?;
    let out_shape = reduced_shape(a.shape(), &axes, keep_dims);
    let mut acc = vec![all; out_shape.num_elements()];
    fold_linear(a.as_slice::<bool>()?, a.shape(), &axes, &mut acc, |w, x| {
        *w = if all { *w && x } else { *w || x }
    });
    TensorData::from_vec(acc, out_shape)
}

/// Index of the maximum (or minimum) element along `axis`, compared in the
/// element type; result is `int64`.
///
/// Ties resolve to the lowest index, matching `tf.argmax`.
///
/// # Errors
/// Invalid axis, bool input, or empty extent.
pub fn argminmax(a: &TensorData, axis: i64, max: bool) -> Result<TensorData> {
    typed!(numeric a.dtype(), |T| argminmax_typed::<T>(a, axis, max))
}

fn argminmax_typed<T: Scalar>(a: &TensorData, axis: i64, max: bool) -> Result<TensorData> {
    let ax = a.shape().resolve_axis(axis)?;
    let (outer, extent, inner) = around_axis(a.shape(), ax);
    if extent == 0 {
        return Err(TensorError::InvalidArgument("argmax over an empty axis".to_string()));
    }
    let v = a.as_slice::<T>()?;
    let mut out = Vec::with_capacity(outer * inner);
    for block in v.chunks_exact((extent * inner).max(1)) {
        for i in 0..inner {
            let mut best = (0, block[i]);
            for k in 1..extent {
                let x = block[k * inner + i];
                if if max { x > best.1 } else { x < best.1 } {
                    best = (k as i64, x);
                }
            }
            out.push(best.0);
        }
    }
    TensorData::from_vec(out, reduced_shape(a.shape(), &[ax], false))
}

/// Cumulative sum along `axis` (exclusive=false, reverse=false variant),
/// accumulated by the `Accumulate` rule.
///
/// # Errors
/// Invalid axis or bool input.
pub fn cumsum(a: &TensorData, axis: i64) -> Result<TensorData> {
    typed!(numeric a.dtype(), |T| cumsum_typed::<T>(a, axis))
}

fn cumsum_typed<T: Accumulate>(a: &TensorData, axis: i64) -> Result<TensorData> {
    let (_, extent, inner) = around_axis(a.shape(), a.shape().resolve_axis(axis)?);
    let (v, run) = (a.as_slice::<T>()?, (extent * inner).max(1));
    let mut out = vec![T::default(); v.len()];
    for (src, dst) in v.chunks_exact(run).zip(out.chunks_exact_mut(run)) {
        for i in 0..inner {
            let mut acc = T::Wide::identity(ReduceOp::Sum);
            for k in 0..extent {
                acc = Wide::fold(ReduceOp::Sum, acc, src[k * inner + i].widen());
                dst[k * inner + i] = T::narrow(acc);
            }
        }
    }
    TensorData::from_vec(out, a.shape().clone())
}

/// The element counts before, along and after axis `ax`.
fn around_axis(s: &Shape, ax: usize) -> (usize, usize, usize) {
    let (before, after) = (&s.dims()[..ax], &s.dims()[ax + 1..]);
    (before.iter().product(), s.dim(ax), after.iter().product())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::each_seed;

    fn t23() -> TensorData {
        TensorData::from_vec(vec![1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0], Shape::from([2, 3])).unwrap()
    }

    #[test]
    fn sum_all() {
        let r = reduce(&t23(), &[], false, ReduceOp::Sum).unwrap();
        assert_eq!(r.shape().rank(), 0);
        assert_eq!(r.scalar_f64().unwrap(), 21.0);
    }

    #[test]
    fn sum_axis0() {
        let r = reduce(&t23(), &[0], false, ReduceOp::Sum).unwrap();
        assert_eq!(r.shape().dims(), &[3]);
        assert_eq!(r.to_f64_vec(), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn sum_axis1_keepdims() {
        let r = reduce(&t23(), &[1], true, ReduceOp::Sum).unwrap();
        assert_eq!(r.shape().dims(), &[2, 1]);
        assert_eq!(r.to_f64_vec(), vec![6.0, 15.0]);
    }

    #[test]
    fn sum_negative_axis() {
        let r = reduce(&t23(), &[-1], false, ReduceOp::Sum).unwrap();
        assert_eq!(r.to_f64_vec(), vec![6.0, 15.0]);
    }

    #[test]
    fn mean_max_min_prod() {
        let a = t23();
        assert_eq!(reduce(&a, &[], false, ReduceOp::Mean).unwrap().scalar_f64().unwrap(), 3.5);
        assert_eq!(reduce(&a, &[], false, ReduceOp::Max).unwrap().scalar_f64().unwrap(), 6.0);
        assert_eq!(reduce(&a, &[], false, ReduceOp::Min).unwrap().scalar_f64().unwrap(), 1.0);
        assert_eq!(reduce(&a, &[], false, ReduceOp::Prod).unwrap().scalar_f64().unwrap(), 720.0);
    }

    #[test]
    fn multi_axis() {
        let a = TensorData::from_f64_vec(
            DType::F64,
            (0..24).map(|i| i as f64).collect(),
            Shape::from([2, 3, 4]),
        );
        let r = reduce(&a, &[0, 2], false, ReduceOp::Sum).unwrap();
        assert_eq!(r.shape().dims(), &[3]);
        // axis-1 groups: rows {0..4,12..16}, {4..8,16..20}, {8..12,20..24}
        assert_eq!(r.to_f64_vec(), vec![60.0, 92.0, 124.0]);
    }

    #[test]
    fn duplicate_axis_rejected() {
        assert!(reduce(&t23(), &[0, 0], false, ReduceOp::Sum).is_err());
        assert!(reduce(&t23(), &[0, -2], false, ReduceOp::Sum).is_err());
    }

    #[test]
    fn int_reductions_exact() {
        let a = TensorData::from_vec(vec![3i64, 5, 7], Shape::from([3])).unwrap();
        assert_eq!(reduce(&a, &[], false, ReduceOp::Sum).unwrap().to_i64_vec(), vec![15]);
        assert_eq!(reduce(&a, &[], false, ReduceOp::Mean).unwrap().to_i64_vec(), vec![5]);
        assert_eq!(reduce(&a, &[], false, ReduceOp::Max).unwrap().to_i64_vec(), vec![7]);
    }

    #[test]
    fn bool_reduce_any_all() {
        let a = TensorData::from_vec(vec![true, false, true, true], Shape::from([2, 2])).unwrap();
        let any = reduce_bool(&a, &[1], false, false).unwrap();
        assert_eq!(any.to_f64_vec(), vec![1.0, 1.0]);
        let all = reduce_bool(&a, &[1], false, true).unwrap();
        assert_eq!(all.to_f64_vec(), vec![0.0, 1.0]);
    }

    #[test]
    fn bool_reduce_over_an_empty_extent_is_the_identity() {
        let a = TensorData::from_vec(Vec::<bool>::new(), Shape::from([2, 0])).unwrap();
        let any = reduce_bool(&a, &[1], false, false).unwrap();
        assert_eq!(any.as_slice::<bool>().unwrap(), &[false, false]);
        let all = reduce_bool(&a, &[1], false, true).unwrap();
        assert_eq!(all.as_slice::<bool>().unwrap(), &[true, true]);
    }

    #[test]
    fn argmax_basic_and_ties() {
        let a = TensorData::from_vec(vec![1.0f32, 3.0, 3.0, 0.0, -1.0, 2.0], Shape::from([2, 3]))
            .unwrap();
        let r = argminmax(&a, 1, true).unwrap();
        assert_eq!(r.dtype(), DType::I64);
        assert_eq!(r.to_i64_vec(), vec![1, 2]); // tie at row 0 -> first index
        let r0 = argminmax(&a, 0, true).unwrap();
        assert_eq!(r0.to_i64_vec(), vec![0, 0, 0]);
        let rmin = argminmax(&a, 1, false).unwrap();
        assert_eq!(rmin.to_i64_vec(), vec![0, 1]);
    }

    #[test]
    fn cumsum_axis() {
        let a = t23();
        let r = cumsum(&a, 1).unwrap();
        assert_eq!(r.to_f64_vec(), vec![1.0, 3.0, 6.0, 4.0, 9.0, 15.0]);
        let r0 = cumsum(&a, 0).unwrap();
        assert_eq!(r0.to_f64_vec(), vec![1.0, 2.0, 3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn sum_matches_iterator() {
        each_seed(64, |rng| {
            let n = rng.range(1..32);
            let xs: Vec<f64> = (0..n).map(|_| rng.range(-100.0..100.0)).collect();
            let a = TensorData::from_vec(xs.clone(), Shape::from([n])).unwrap();
            let r = reduce(&a, &[], false, ReduceOp::Sum).unwrap().scalar_f64().unwrap();
            let expect: f64 = xs.iter().sum();
            assert!((r - expect).abs() < 1e-9);
        });
    }

    #[test]
    fn axis_sums_compose() {
        each_seed(64, |rng| {
            // Reducing both axes one at a time equals reducing all at once.
            let xs: Vec<f64> = (0..12).map(|_| rng.range(-10.0..10.0)).collect();
            let a = TensorData::from_vec(xs, Shape::from([3, 4])).unwrap();
            let rows = reduce(&a, &[0], false, ReduceOp::Sum).unwrap();
            let two_step = reduce(&rows, &[0], false, ReduceOp::Sum).unwrap();
            let one_step = reduce(&a, &[], false, ReduceOp::Sum).unwrap();
            let (two, one) = (two_step.scalar_f64().unwrap(), one_step.scalar_f64().unwrap());
            assert!((two - one).abs() < 1e-9);
        });
    }

    #[test]
    fn max_ge_mean() {
        each_seed(64, |rng| {
            let n = rng.range(1..32);
            let xs: Vec<f64> = (0..n).map(|_| rng.range(-100.0..100.0)).collect();
            let a = TensorData::from_vec(xs, Shape::from([n])).unwrap();
            let mx = reduce(&a, &[], false, ReduceOp::Max).unwrap().scalar_f64().unwrap();
            let mn = reduce(&a, &[], false, ReduceOp::Mean).unwrap().scalar_f64().unwrap();
            assert!(mx >= mn - 1e-9);
        });
    }
}
