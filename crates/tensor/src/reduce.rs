//! Reductions over axes: sum, mean, max, min, prod, any/all, argmax/argmin.
//!
//! Float reductions over contiguous leading or trailing axes run in
//! parallel on the shared pool. Full and trailing-axis (row) reductions
//! fold through [`crate::lanes::lane_fold_f64`]'s fixed 8-lane accumulator
//! order, and full reductions additionally use
//! [`tfe_parallel::par_reduce`]'s fixed chunking — both depend only on the
//! element count, so results are **deterministic and thread-count
//! invariant**, but the accumulation order is reassociated relative to a
//! strict left fold: `sum`/`mean`/`prod` carry a documented rounding
//! tolerance versus the serial odometer, while `max`/`min` stay
//! value-exact (NaN-free inputs assumed). Leading-axis (column)
//! reductions keep the exact serial per-element fold order, bit-for-bit.
//! See DESIGN.md ("Exactness vs. tolerance policy").

use crate::data::Scalar;
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
    if a.dtype() == DType::Bool {
        return Err(TensorError::DTypeMismatch {
            expected: "a numeric dtype (use reduce_any/reduce_all for bool)".to_string(),
            got: DType::Bool,
        });
    }
    let axes = normalize_axes(a.shape(), axes)?;
    let out_shape = reduced_shape(a.shape(), &axes, keep_dims);
    let reduce_count: usize = axes.iter().map(|&i| a.shape().dim(i)).product();
    if reduce_count == 0 && matches!(op, ReduceOp::Max | ReduceOp::Min) {
        return Err(TensorError::InvalidArgument(
            "max/min reduction over an empty extent".to_string(),
        ));
    }

    // A zero-extent kept dimension means the output itself is empty; there
    // is nothing to accumulate, and sizing the accumulator `max(out_n, 1)`
    // would desync it from the output length.
    if out_shape.num_elements() == 0 {
        return Ok(TensorData::zeros(a.dtype(), out_shape));
    }

    // Accumulate in f64 for floats, i64 for ints.
    let out_n = out_shape.num_elements();
    let init = match op {
        ReduceOp::Sum | ReduceOp::Mean => 0.0,
        ReduceOp::Prod => 1.0,
        ReduceOp::Max => f64::NEG_INFINITY,
        ReduceOp::Min => f64::INFINITY,
    };
    let mut acc = vec![init; out_n];
    let mut iacc: Vec<i64> = match op {
        ReduceOp::Prod => vec![1; out_n],
        ReduceOp::Max => vec![i64::MIN; out_n],
        ReduceOp::Min => vec![i64::MAX; out_n],
        _ => vec![0; out_n],
    };
    let is_int = a.dtype().is_int();

    let in_dims = a.shape().dims();
    let rank = in_dims.len();
    // Strides of the *output* aligned to input dims: 0 on reduced axes.
    let full_out_shape = reduced_shape(a.shape(), &axes, true);
    let out_strides_kept = full_out_shape.strides();
    let mut aligned = vec![0usize; rank];
    for i in 0..rank {
        if !axes.contains(&i) {
            aligned[i] = out_strides_kept[i];
        }
    }

    let n = a.num_elements();
    let int_vals: Option<Vec<i64>> = if is_int { Some(a.to_i64_vec()) } else { None };
    if int_vals.is_none() && n > 0 && float_fast_reduce(a, &axes, op, &mut acc) {
        return Ok(finish_reduce(a.dtype(), acc, iacc, is_int, op, reduce_count, out_shape));
    }
    let mut coords = vec![0usize; rank];
    let mut out_idx = 0usize;
    for lin in 0..n {
        if let Some(iv) = &int_vals {
            let v = iv[lin];
            match op {
                ReduceOp::Sum | ReduceOp::Mean => iacc[out_idx] = iacc[out_idx].wrapping_add(v),
                ReduceOp::Prod => iacc[out_idx] = iacc[out_idx].wrapping_mul(v),
                ReduceOp::Max => iacc[out_idx] = iacc[out_idx].max(v),
                ReduceOp::Min => iacc[out_idx] = iacc[out_idx].min(v),
            }
        } else {
            let v = a.get_f64_linear(lin);
            match op {
                ReduceOp::Sum | ReduceOp::Mean => acc[out_idx] += v,
                ReduceOp::Prod => acc[out_idx] *= v,
                ReduceOp::Max => acc[out_idx] = acc[out_idx].max(v),
                ReduceOp::Min => acc[out_idx] = acc[out_idx].min(v),
            }
        }
        // Advance odometer and the aligned output index together.
        for i in (0..rank).rev() {
            coords[i] += 1;
            out_idx += aligned[i];
            if coords[i] < in_dims[i] {
                break;
            }
            out_idx -= aligned[i] * in_dims[i];
            coords[i] = 0;
        }
    }

    Ok(finish_reduce(a.dtype(), acc, iacc, is_int, op, reduce_count, out_shape))
}

/// Final Mean division / int truncation and materialization, shared by the
/// odometer path and the parallel float fast paths.
fn finish_reduce(
    dtype: DType,
    acc: Vec<f64>,
    iacc: Vec<i64>,
    is_int: bool,
    op: ReduceOp,
    reduce_count: usize,
    out_shape: Shape,
) -> TensorData {
    let vals: Vec<f64> = if is_int {
        let mut v: Vec<f64> = iacc.iter().map(|&x| x as f64).collect();
        if op == ReduceOp::Mean {
            for x in &mut v {
                *x /= reduce_count.max(1) as f64;
            }
        }
        // Mean on ints truncates, like tf.reduce_mean on integer tensors.
        if op == ReduceOp::Mean {
            for x in &mut v {
                *x = x.trunc();
            }
        }
        v
    } else {
        let mut v = acc;
        if op == ReduceOp::Mean {
            for x in &mut v {
                *x /= reduce_count.max(1) as f64;
            }
        }
        v
    };
    TensorData::from_f64_vec(dtype, vals, out_shape)
}

fn fold(op: ReduceOp, acc: f64, v: f64) -> f64 {
    match op {
        ReduceOp::Sum | ReduceOp::Mean => acc + v,
        ReduceOp::Prod => acc * v,
        ReduceOp::Max => acc.max(v),
        ReduceOp::Min => acc.min(v),
    }
}

/// Parallel float fast paths. `acc` arrives pre-filled with the op's
/// identity and receives the (pre-Mean-division) per-element accumulators.
/// Returns false when the axis pattern has no fast path (mixed interior
/// axes fall back to the serial odometer).
fn float_fast_reduce(a: &TensorData, axes: &[usize], op: ReduceOp, acc: &mut [f64]) -> bool {
    let rank = a.shape().rank();
    let la = axes.len();
    // `axes` is sorted; classify contiguous patterns.
    let all = la == rank;
    let suffix = axes.iter().enumerate().all(|(i, &ax)| ax == rank - la + i);
    let prefix = axes.iter().enumerate().all(|(i, &ax)| ax == i);
    if !(all || suffix || prefix) {
        return false;
    }
    match a.dtype() {
        DType::F32 => {
            float_fast_typed(a.as_slice::<f32>().unwrap(), a.shape(), la, op, acc, all, suffix)
        }
        DType::F64 => {
            float_fast_typed(a.as_slice::<f64>().unwrap(), a.shape(), la, op, acc, all, suffix)
        }
        _ => return false,
    }
    true
}

fn float_fast_typed<T: Scalar>(
    v: &[T],
    shape: &Shape,
    num_axes: usize,
    op: ReduceOp,
    acc: &mut [f64],
    all: bool,
    suffix: bool,
) {
    let rank = shape.rank();
    if all {
        // Full reduction: fixed-chunk tree, each chunk folded through the
        // 8-lane accumulator order, chunks combined in ascending order —
        // deterministic for every thread count; reassociated vs. a left
        // fold for sum/mean/prod (tolerance mode), value-exact for max/min.
        let init = acc[0];
        acc[0] = tfe_parallel::par_reduce(
            v.len(),
            crate::par::GRAIN_REDUCE,
            |r| crate::lanes::lane_fold_f64(&v[r], init, |a, b| fold(op, a, b)),
            |a, b| match op {
                ReduceOp::Sum | ReduceOp::Mean => a + b,
                ReduceOp::Prod => a * b,
                ReduceOp::Max => a.max(b),
                ReduceOp::Min => a.min(b),
            },
        )
        .unwrap_or(init);
    } else if suffix {
        // Trailing axes: each output element folds one contiguous row
        // through the fixed 8-lane order (`lane_fold_f64`) — deterministic
        // and thread-invariant, tolerance mode for sum/mean/prod.
        let row: usize = shape.dims()[rank - num_axes..].iter().product();
        if row == 0 {
            return;
        }
        let grain = (crate::par::GRAIN_ELEMWISE / row).max(1);
        crate::par::par_fill(acc, grain, |start, chunk| {
            for (off, o) in chunk.iter_mut().enumerate() {
                let r = &v[(start + off) * row..][..row];
                *o = crate::lanes::lane_fold_f64(r, *o, |a, b| fold(op, a, b));
            }
        });
    } else {
        // Leading axes: column reduction. Each output element accumulates
        // strided entries with the outer index ascending — the exact serial
        // odometer order per element (lane blocks only reschedule columns,
        // never reorder within one), so this branch stays bit-for-bit.
        let inner: usize = shape.dims()[num_axes..].iter().product();
        let outer = v.len() / inner;
        let grain = (crate::par::GRAIN_ELEMWISE / outer.max(1)).max(1);
        crate::par::par_fill(acc, grain, |start, chunk| {
            for k in 0..outer {
                let src = &v[k * inner + start..][..chunk.len()];
                crate::lanes::fold_columns_f64(chunk, src, |a, b| fold(op, a, b));
            }
        });
    }
}

/// `reduce_any` / `reduce_all` over bool tensors.
///
/// # Errors
/// Non-bool input or invalid axes.
pub fn reduce_bool(a: &TensorData, axes: &[i64], keep_dims: bool, all: bool) -> Result<TensorData> {
    if a.dtype() != DType::Bool {
        return Err(TensorError::DTypeMismatch { expected: "bool".to_string(), got: a.dtype() });
    }
    let as_i = a.cast(DType::I64);
    let red = reduce(&as_i, axes, keep_dims, if all { ReduceOp::Min } else { ReduceOp::Max })?;
    Ok(red.cast(DType::Bool))
}

/// Index of the maximum (or minimum) element along `axis`; result is `int64`.
///
/// Ties resolve to the lowest index, matching `tf.argmax`.
///
/// # Errors
/// Invalid axis, bool input, or empty extent.
pub fn argminmax(a: &TensorData, axis: i64, max: bool) -> Result<TensorData> {
    if a.dtype() == DType::Bool {
        return Err(TensorError::DTypeMismatch {
            expected: "a numeric dtype".to_string(),
            got: DType::Bool,
        });
    }
    let ax = a.shape().resolve_axis(axis)?;
    let extent = a.shape().dim(ax);
    if extent == 0 {
        return Err(TensorError::InvalidArgument("argmax over an empty axis".to_string()));
    }
    let out_shape = reduced_shape(a.shape(), &[ax], false);
    let outer: usize = a.shape().dims()[..ax].iter().product();
    let inner: usize = a.shape().dims()[ax + 1..].iter().product();
    let mut out = Vec::with_capacity(outer * inner);
    for o in 0..outer {
        for i in 0..inner {
            let mut best_idx = 0i64;
            let mut best = a.get_f64_linear(o * extent * inner + i);
            for k in 1..extent {
                let v = a.get_f64_linear((o * extent + k) * inner + i);
                let better = if max { v > best } else { v < best };
                if better {
                    best = v;
                    best_idx = k as i64;
                }
            }
            out.push(best_idx);
        }
    }
    TensorData::from_vec(out, out_shape)
}

/// Cumulative sum along `axis` (exclusive=false, reverse=false variant).
///
/// # Errors
/// Invalid axis or bool input.
pub fn cumsum(a: &TensorData, axis: i64) -> Result<TensorData> {
    if a.dtype() == DType::Bool {
        return Err(TensorError::DTypeMismatch {
            expected: "a numeric dtype".to_string(),
            got: DType::Bool,
        });
    }
    let ax = a.shape().resolve_axis(axis)?;
    let extent = a.shape().dim(ax);
    let outer: usize = a.shape().dims()[..ax].iter().product();
    let inner: usize = a.shape().dims()[ax + 1..].iter().product();
    let mut out = TensorData::zeros(a.dtype(), a.shape().clone());
    for o in 0..outer {
        for i in 0..inner {
            let mut acc = 0.0;
            for k in 0..extent {
                let lin = (o * extent + k) * inner + i;
                acc += a.get_f64_linear(lin);
                out.set_f64_linear(lin, acc);
            }
        }
    }
    Ok(out)
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
