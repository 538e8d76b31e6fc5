//! Shape-manipulating kernels: reshape, transpose, concat, split, slice,
//! pad, gather/scatter, tile, broadcast_to, one-hot, stack/unstack.
//!
//! The data-movement kernels move typed runs through `copy_runs`, each at
//! offsets from `shape::strided`, the crate's one index walk.
//! `scatter_add_rows` adds by the reductions' accumulator rule
//! ([`crate::reduce`]), and `one_hot` writes a typed 1: no kernel here
//! converts an element through `f64`.

use crate::reduce::{Accumulate, ReduceOp, Wide};
use crate::shape::{broadcast_shapes, broadcast_strides, strided};
use crate::{Buffer, DType, Result, Scalar, Shape, TensorData, TensorError};

/// Reshape with a single optional `-1` wildcard dimension (like
/// `tf.reshape`).
///
/// # Errors
/// More than one `-1`, a negative dimension other than `-1`, or an element
/// count mismatch.
pub fn reshape(a: &TensorData, dims: &[i64]) -> Result<TensorData> {
    let n = a.num_elements();
    let mut wildcard = None;
    let mut known = 1usize;
    for (i, &d) in dims.iter().enumerate() {
        if d == -1 {
            if wildcard.is_some() {
                return Err(TensorError::InvalidArgument(
                    "reshape accepts at most one -1 dimension".to_string(),
                ));
            }
            wildcard = Some(i);
        } else if d < 0 {
            return Err(TensorError::InvalidArgument(format!("invalid dimension {d}")));
        } else {
            known = known.saturating_mul(d as usize);
        }
    }
    let mut out: Vec<usize> = dims.iter().map(|&d| d.max(0) as usize).collect();
    if let Some(w) = wildcard {
        if known == 0 || !n.is_multiple_of(known) {
            return Err(TensorError::ShapeMismatch {
                expected: format!("a shape dividing {n} elements"),
                got: Shape::new(out),
            });
        }
        out[w] = n / known;
    }
    a.with_shape(out)
}

/// Copy runs of `run` contiguous elements from `src` into `dst`, one run
/// per `(dst_offset, src_offset)` pair. The two buffers hold one dtype; it
/// is matched once per call and a run moves as one `copy_from_slice`, so
/// every value arrives with the bits it had (an i64 beyond 2^53, a
/// signalling NaN) and no element is converted. Every data-movement kernel
/// below is this call plus its own offsets.
fn copy_runs(
    dst: &mut TensorData,
    src: &TensorData,
    run: usize,
    offsets: impl Iterator<Item = (usize, usize)>,
) {
    fn typed<T: Copy>(
        dst: &mut [T],
        src: &[T],
        run: usize,
        offsets: impl Iterator<Item = (usize, usize)>,
    ) {
        if run == 1 {
            for (d, s) in offsets {
                dst[d] = src[s];
            }
        } else {
            for (d, s) in offsets {
                dst[d..d + run].copy_from_slice(&src[s..s + run]);
            }
        }
    }
    if run == 0 {
        return;
    }
    match (dst.buffer_mut(), src.buffer()) {
        (Buffer::F32(d), Buffer::F32(s)) => typed(d, s, run, offsets),
        (Buffer::F64(d), Buffer::F64(s)) => typed(d, s, run, offsets),
        (Buffer::I32(d), Buffer::I32(s)) => typed(d, s, run, offsets),
        (Buffer::I64(d), Buffer::I64(s)) => typed(d, s, run, offsets),
        (Buffer::Bool(d), Buffer::Bool(s)) => typed(d, s, run, offsets),
        (d, s) => unreachable!("copy_runs between {} and {}", d.dtype(), s.dtype()),
    }
}

/// Copy the box of `extents` elements at `src_begin` of `src` to
/// `dst_begin` of `dst` (slice, pad and concat are all this). Trailing axes
/// the box spans whole on both sides fold into the run, together with the
/// first axis it spans in part.
fn copy_box(
    dst: &mut TensorData,
    dst_begin: &[usize],
    src: &TensorData,
    src_begin: &[usize],
    extents: &[usize],
) {
    let (dst_dims, dst_strides) = (dst.shape().dims().to_vec(), dst.shape().strides());
    let (src_dims, src_strides) = (src.shape().dims(), src.shape().strides());
    let base = |begin: &[usize], strides: &[usize]| -> usize {
        begin.iter().zip(strides).map(|(b, s)| b * s).sum()
    };
    let (dst_base, src_base) = (base(dst_begin, &dst_strides), base(src_begin, &src_strides));
    let mut outer = extents.len();
    let mut run = 1;
    while outer > 0 {
        outer -= 1;
        run *= extents[outer];
        if extents[outer] != dst_dims[outer] || extents[outer] != src_dims[outer] {
            break;
        }
    }
    let offsets = strided(&extents[..outer], &dst_strides[..outer], 0)
        .zip(strided(&extents[..outer], &src_strides[..outer], 0))
        .map(|(d, s)| (dst_base + d, src_base + s));
    copy_runs(dst, src, run, offsets);
}

/// Permute dimensions. `perm` must be a permutation of `0..rank`.
///
/// # Errors
/// `perm` is not a permutation of the operand's axes.
pub fn transpose(a: &TensorData, perm: &[usize]) -> Result<TensorData> {
    let rank = a.shape().rank();
    if perm.len() != rank {
        return Err(TensorError::InvalidArgument(format!(
            "permutation length {} != rank {rank}",
            perm.len()
        )));
    }
    let mut seen = vec![false; rank];
    for &p in perm {
        if p >= rank || seen[p] {
            return Err(TensorError::InvalidArgument(format!("bad permutation {perm:?}")));
        }
        seen[p] = true;
    }
    let in_dims = a.shape().dims();
    let in_strides = a.shape().strides();
    let out_dims: Vec<usize> = perm.iter().map(|&p| in_dims[p]).collect();
    let src_strides: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
    let mut out = TensorData::zeros(a.dtype(), Shape::new(out_dims.clone()));
    // Trailing axes the permutation leaves in place move as one run.
    let mut outer = rank;
    while outer > 0 && perm[outer - 1] == outer - 1 {
        outer -= 1;
    }
    let run: usize = out_dims[outer..].iter().product();
    let offsets = strided(&out_dims[..outer], &src_strides[..outer], 0)
        .enumerate()
        .map(|(r, s)| (r * run, s));
    copy_runs(&mut out, a, run, offsets);
    Ok(out)
}

/// Insert a size-1 dimension at `axis` (may be `rank`, i.e. append).
///
/// # Errors
/// Axis out of range.
pub fn expand_dims(a: &TensorData, axis: i64) -> Result<TensorData> {
    let rank = a.shape().rank() as i64;
    let ax = if axis < 0 { axis + rank + 1 } else { axis };
    if ax < 0 || ax > rank {
        return Err(TensorError::InvalidAxis { axis, rank: a.shape().rank() });
    }
    let mut dims = a.shape().dims().to_vec();
    dims.insert(ax as usize, 1);
    a.with_shape(dims)
}

/// Remove size-1 dimensions; with `axes` empty, removes all of them.
///
/// # Errors
/// A named axis is not size 1, or out of range.
pub fn squeeze(a: &TensorData, axes: &[i64]) -> Result<TensorData> {
    let dims = a.shape().dims();
    let mut drop = vec![false; dims.len()];
    if axes.is_empty() {
        for (i, &d) in dims.iter().enumerate() {
            drop[i] = d == 1;
        }
    } else {
        for &ax in axes {
            let r = a.shape().resolve_axis(ax)?;
            if dims[r] != 1 {
                return Err(TensorError::InvalidArgument(format!(
                    "cannot squeeze axis {ax} of size {}",
                    dims[r]
                )));
            }
            drop[r] = true;
        }
    }
    let out: Vec<usize> =
        dims.iter().enumerate().filter(|(i, _)| !drop[*i]).map(|(_, &d)| d).collect();
    a.with_shape(out)
}

/// Concatenate tensors along `axis`.
///
/// # Errors
/// Empty input list, dtype/rank mismatches, or non-`axis` dims differing.
pub fn concat(parts: &[&TensorData], axis: i64) -> Result<TensorData> {
    let first = parts.first().ok_or_else(|| {
        TensorError::InvalidArgument("concat requires at least one input".to_string())
    })?;
    let ax = first.shape().resolve_axis(axis)?;
    let rank = first.shape().rank();
    let mut axis_total = 0usize;
    for p in parts {
        if p.dtype() != first.dtype() {
            return Err(TensorError::DTypeMismatch {
                expected: first.dtype().name().to_string(),
                got: p.dtype(),
            });
        }
        if p.shape().rank() != rank {
            return Err(TensorError::ShapeMismatch {
                expected: format!("rank {rank}"),
                got: p.shape().clone(),
            });
        }
        for i in 0..rank {
            if i != ax && p.shape().dim(i) != first.shape().dim(i) {
                return Err(TensorError::ShapeMismatch {
                    expected: format!("dim {i} == {}", first.shape().dim(i)),
                    got: p.shape().clone(),
                });
            }
        }
        axis_total += p.shape().dim(ax);
    }
    let mut out_dims = first.shape().dims().to_vec();
    out_dims[ax] = axis_total;
    let mut out = TensorData::zeros(first.dtype(), Shape::new(out_dims));
    let zeros = vec![0usize; rank];
    let mut begin = zeros.clone();
    for p in parts {
        copy_box(&mut out, &begin, p, &zeros, p.shape().dims());
        begin[ax] += p.shape().dim(ax);
    }
    Ok(out)
}

/// Split a tensor into equal parts along `axis`.
///
/// # Errors
/// `num` does not divide the axis extent.
pub fn split(a: &TensorData, num: usize, axis: i64) -> Result<Vec<TensorData>> {
    let ax = a.shape().resolve_axis(axis)?;
    let extent = a.shape().dim(ax);
    if num == 0 || !extent.is_multiple_of(num) {
        return Err(TensorError::InvalidArgument(format!(
            "cannot split axis of size {extent} into {num} equal parts"
        )));
    }
    let part = extent / num;
    let mut begins = vec![0i64; a.shape().rank()];
    let mut sizes: Vec<i64> = a.shape().dims().iter().map(|&d| d as i64).collect();
    sizes[ax] = part as i64;
    let mut out = Vec::with_capacity(num);
    for i in 0..num {
        begins[ax] = (i * part) as i64;
        out.push(slice(a, &begins, &sizes)?);
    }
    Ok(out)
}

/// Extract a contiguous slice: `begin[i] .. begin[i] + size[i]` per axis.
/// A size of `-1` means "to the end of the axis".
///
/// # Errors
/// Out-of-range begin/size.
pub fn slice(a: &TensorData, begin: &[i64], size: &[i64]) -> Result<TensorData> {
    let rank = a.shape().rank();
    if begin.len() != rank || size.len() != rank {
        return Err(TensorError::InvalidArgument(format!(
            "slice begin/size must have rank {rank}"
        )));
    }
    let dims = a.shape().dims();
    let mut b = vec![0usize; rank];
    let mut s = vec![0usize; rank];
    for i in 0..rank {
        if begin[i] < 0 || begin[i] as usize > dims[i] {
            return Err(TensorError::InvalidArgument(format!(
                "slice begin {} out of range for dim {i} of size {}",
                begin[i], dims[i]
            )));
        }
        b[i] = begin[i] as usize;
        let sz = if size[i] == -1 { dims[i] - b[i] } else { size[i] as usize };
        if size[i] < -1 || b[i] + sz > dims[i] {
            return Err(TensorError::InvalidArgument(format!(
                "slice size {} out of range for dim {i} of size {}",
                size[i], dims[i]
            )));
        }
        s[i] = sz;
    }
    let mut out = TensorData::zeros(a.dtype(), Shape::new(s.clone()));
    copy_box(&mut out, &vec![0; rank], a, &b, &s);
    Ok(out)
}

/// Scatter a slice back into a zero tensor of shape `full` (the adjoint of
/// [`slice()`](fn@slice)): output is zero everywhere except the slice region.
///
/// # Errors
/// Region out of range.
pub fn pad_to(a: &TensorData, begin: &[i64], full: &Shape) -> Result<TensorData> {
    let rank = full.rank();
    if a.shape().rank() != rank || begin.len() != rank {
        return Err(TensorError::InvalidArgument("pad_to rank mismatch".to_string()));
    }
    let dims = a.shape().dims();
    for i in 0..rank {
        if begin[i] < 0 || begin[i] as usize + dims[i] > full.dim(i) {
            return Err(TensorError::InvalidArgument("pad_to region out of range".to_string()));
        }
    }
    let begin: Vec<usize> = begin.iter().map(|&b| b as usize).collect();
    let mut out = TensorData::zeros(a.dtype(), full.clone());
    copy_box(&mut out, &begin, a, &vec![0; rank], dims);
    Ok(out)
}

/// Constant-pad: `paddings[i] = (before, after)` per axis.
///
/// # Errors
/// Rank mismatch.
pub fn pad(a: &TensorData, paddings: &[(usize, usize)], value: f64) -> Result<TensorData> {
    let rank = a.shape().rank();
    if paddings.len() != rank {
        return Err(TensorError::InvalidArgument(format!("paddings must have rank {rank}")));
    }
    let out_dims: Vec<usize> =
        a.shape().dims().iter().zip(paddings).map(|(&d, &(b, e))| d + b + e).collect();
    let mut out = TensorData::fill_f64(a.dtype(), Shape::new(out_dims), value);
    let begin: Vec<usize> = paddings.iter().map(|&(before, _)| before).collect();
    copy_box(&mut out, &begin, a, &vec![0; rank], a.shape().dims());
    Ok(out)
}

/// Gather rows (general `axis`) by integer indices, like `tf.gather`.
///
/// # Errors
/// Non-integer indices, axis problems, or out-of-range index values.
pub fn gather(a: &TensorData, indices: &TensorData, axis: i64) -> Result<TensorData> {
    if !indices.dtype().is_int() {
        return Err(TensorError::DTypeMismatch {
            expected: "an integer dtype for indices".to_string(),
            got: indices.dtype(),
        });
    }
    let ax = a.shape().resolve_axis(axis)?;
    let extent = a.shape().dim(ax);
    let idx = indices.to_i64_vec();
    for &i in &idx {
        if i < 0 || i as usize >= extent {
            return Err(TensorError::InvalidArgument(format!(
                "gather index {i} out of range for axis of size {extent}"
            )));
        }
    }
    let outer: usize = a.shape().dims()[..ax].iter().product();
    let inner: usize = a.shape().dims()[ax + 1..].iter().product();
    let mut out_dims = a.shape().dims()[..ax].to_vec();
    out_dims.extend_from_slice(indices.shape().dims());
    out_dims.extend_from_slice(&a.shape().dims()[ax + 1..]);
    let out_shape = Shape::new(out_dims);
    let mut out = TensorData::zeros(a.dtype(), out_shape);
    let rows = (0..outer).flat_map(|o| idx.iter().map(move |&i| o * extent + i as usize));
    copy_runs(&mut out, a, inner, rows.enumerate().map(|(r, row)| (r * inner, row * inner)));
    Ok(out)
}

/// Scatter-add `updates` rows into a zero tensor with `dim0` rows (the
/// adjoint of axis-0 [`gather`]): row `indices[j]` accumulates row `j` of
/// `updates`.
///
/// # Errors
/// Shape/index problems.
pub fn scatter_add_rows(
    indices: &TensorData,
    updates: &TensorData,
    dim0: usize,
) -> Result<TensorData> {
    if !indices.dtype().is_int() {
        return Err(TensorError::DTypeMismatch {
            expected: "an integer dtype for indices".to_string(),
            got: indices.dtype(),
        });
    }
    let idx = indices.to_i64_vec();
    if updates.shape().rank() < 1 || updates.shape().dim(0) != idx.len() {
        return Err(TensorError::ShapeMismatch {
            expected: format!("updates with leading dim {}", idx.len()),
            got: updates.shape().clone(),
        });
    }
    if let Some(i) = idx.iter().find(|&&i| i < 0 || i as usize >= dim0) {
        return Err(TensorError::InvalidArgument(format!(
            "scatter index {i} out of range for {dim0} rows"
        )));
    }
    let mut out_dims = vec![dim0];
    out_dims.extend_from_slice(&updates.shape().dims()[1..]);
    typed!(numeric updates.dtype(), |T| scatter_typed::<T>(&idx, updates, out_dims))
}

/// Each update row added into its output row in update order, in the
/// accumulator type ([`Accumulate`]): an integer row sums in i64 and
/// narrows once, saturating as `reduce_sum` and `cumsum` do, whatever the
/// update order; a float row rounds every addition to the element type.
fn scatter_typed<T: Accumulate>(
    idx: &[i64],
    updates: &TensorData,
    out_dims: Vec<usize>,
) -> Result<TensorData> {
    let inner: usize = out_dims[1..].iter().product();
    let mut acc = vec![T::Wide::identity(ReduceOp::Sum); out_dims[0] * inner];
    for (&i, row) in idx.iter().zip(updates.as_slice::<T>()?.chunks_exact(inner.max(1))) {
        for (a, &u) in acc[i as usize * inner..].iter_mut().zip(row) {
            let sum = Wide::fold(ReduceOp::Sum, *a, u.widen());
            *a = if T::DTYPE.is_int() { sum } else { T::narrow(sum).widen() };
        }
    }
    TensorData::from_vec(acc.into_iter().map(T::narrow).collect::<Vec<T>>(), out_dims)
}

/// Reverse the order of elements along `axis`.
///
/// # Errors
/// Invalid axis.
pub fn reverse(a: &TensorData, axis: i64) -> Result<TensorData> {
    let ax = a.shape().resolve_axis(axis)?;
    let extent = a.shape().dim(ax);
    let outer: usize = a.shape().dims()[..ax].iter().product();
    let inner: usize = a.shape().dims()[ax + 1..].iter().product();
    let mut out = TensorData::zeros(a.dtype(), a.shape().clone());
    let rows = (0..outer).flat_map(|o| (0..extent).map(move |k| o * extent + (extent - 1 - k)));
    copy_runs(&mut out, a, inner, rows.enumerate().map(|(r, row)| (r * inner, row * inner)));
    Ok(out)
}

/// Tile (repeat) each axis `multiples[i]` times.
///
/// # Errors
/// Rank mismatch.
pub fn tile(a: &TensorData, multiples: &[usize]) -> Result<TensorData> {
    let rank = a.shape().rank();
    if multiples.len() != rank {
        return Err(TensorError::InvalidArgument(format!("multiples must have rank {rank}")));
    }
    let out_dims: Vec<usize> =
        a.shape().dims().iter().zip(multiples).map(|(&d, &m)| d * m).collect();
    let in_dims = a.shape().dims();
    let in_strides = a.shape().strides();
    let mut out = TensorData::zeros(a.dtype(), Shape::new(out_dims));
    // Output axis i is (multiples[i], in_dims[i]) row-major, the repeat
    // reading at stride 0. Trailing axes that are not repeated fold into
    // the run, with the extent of the first one that is.
    let mut outer = rank;
    let mut run = 1;
    while outer > 0 {
        outer -= 1;
        run *= in_dims[outer];
        if multiples[outer] != 1 {
            break;
        }
    }
    let mut extents = Vec::with_capacity(2 * rank);
    let mut strides = Vec::with_capacity(2 * rank);
    for i in 0..outer {
        extents.extend([multiples[i], in_dims[i]]);
        strides.extend([0, in_strides[i]]);
    }
    if rank > 0 {
        extents.push(multiples[outer]);
        strides.push(0);
    }
    let offsets = strided(&extents, &strides, 0).enumerate().map(|(r, s)| (r * run, s));
    copy_runs(&mut out, a, run, offsets);
    Ok(out)
}

/// Materialize a broadcast of `a` to `shape`.
///
/// # Errors
/// Shapes not broadcast-compatible, or `shape` smaller than `a`'s.
pub fn broadcast_to(a: &TensorData, shape: &Shape) -> Result<TensorData> {
    let merged = broadcast_shapes(a.shape(), shape)?;
    if &merged != shape {
        return Err(TensorError::BroadcastMismatch { lhs: a.shape().clone(), rhs: shape.clone() });
    }
    let mut out = TensorData::zeros(a.dtype(), shape.clone());
    let rank = shape.rank();
    let lead = rank - a.shape().rank();
    let src_strides = broadcast_strides(shape, a.shape());
    // Trailing axes that `a` has and does not stretch fold into the run.
    let stretched = |i: usize| i < lead || a.shape().dim(i - lead) != shape.dim(i);
    let mut outer = rank;
    while outer > 0 && !stretched(outer - 1) {
        outer -= 1;
    }
    let run: usize = shape.dims()[outer..].iter().product();
    let offsets = strided(&shape.dims()[..outer], &src_strides[..outer], 0)
        .enumerate()
        .map(|(r, s)| (r * run, s));
    copy_runs(&mut out, a, run, offsets);
    Ok(out)
}

/// One-hot encode integer `indices` to `depth` classes with given dtype.
/// Appends the class axis at the end, like `tf.one_hot`.
///
/// # Errors
/// Non-integer indices.
pub fn one_hot(indices: &TensorData, depth: usize, dtype: DType) -> Result<TensorData> {
    if !indices.dtype().is_int() {
        return Err(TensorError::DTypeMismatch {
            expected: "an integer dtype for indices".to_string(),
            got: indices.dtype(),
        });
    }
    let mut out_dims = indices.shape().dims().to_vec();
    out_dims.push(depth);
    typed!(dtype, |T| one_hot_typed::<T>(&indices.to_i64_vec(), depth, out_dims))
}

/// One `1` of the output type per row, where the index is in range.
fn one_hot_typed<T: Scalar + Default>(
    idx: &[i64],
    depth: usize,
    out_dims: Vec<usize>,
) -> Result<TensorData> {
    let mut out = vec![T::default(); idx.len() * depth];
    for (row, &i) in out.chunks_exact_mut(depth.max(1)).zip(idx) {
        if let Some(o) = usize::try_from(i).ok().and_then(|i| row.get_mut(i)) {
            *o = T::from_f64(1.0);
        }
    }
    TensorData::from_vec(out, out_dims)
}

/// Stack tensors of identical shape along a new leading `axis`.
///
/// # Errors
/// Empty input or shape/dtype mismatches.
pub fn stack(parts: &[&TensorData], axis: i64) -> Result<TensorData> {
    let first = parts.first().ok_or_else(|| {
        TensorError::InvalidArgument("stack requires at least one input".to_string())
    })?;
    let expanded: Vec<TensorData> =
        parts.iter().map(|p| expand_dims(p, axis)).collect::<Result<_>>()?;
    let refs: Vec<&TensorData> = expanded.iter().collect();
    let _ = first;
    concat(&refs, axis)
}

/// Unstack along `axis` into `dim(axis)` tensors with that axis removed.
///
/// # Errors
/// Axis out of range.
pub fn unstack(a: &TensorData, axis: i64) -> Result<Vec<TensorData>> {
    let ax = a.shape().resolve_axis(axis)?;
    let extent = a.shape().dim(ax);
    let parts = split(a, extent, axis)?;
    parts.into_iter().map(|p| squeeze(&p, &[ax as i64])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::each_seed;

    fn t6() -> TensorData {
        TensorData::from_vec(vec![1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0], Shape::from([2, 3])).unwrap()
    }

    #[test]
    fn reshape_wildcard() {
        let r = reshape(&t6(), &[3, -1]).unwrap();
        assert_eq!(r.shape().dims(), &[3, 2]);
        assert_eq!(r.to_f64_vec(), t6().to_f64_vec());
        assert!(reshape(&t6(), &[-1, -1]).is_err());
        assert!(reshape(&t6(), &[4, -1]).is_err());
    }

    #[test]
    fn transpose_2d() {
        let r = transpose(&t6(), &[1, 0]).unwrap();
        assert_eq!(r.shape().dims(), &[3, 2]);
        assert_eq!(r.to_f64_vec(), vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn transpose_3d_and_validation() {
        let a = TensorData::from_f64_vec(
            DType::F64,
            (0..24).map(|i| i as f64).collect(),
            Shape::from([2, 3, 4]),
        );
        let r = transpose(&a, &[2, 0, 1]).unwrap();
        assert_eq!(r.shape().dims(), &[4, 2, 3]);
        assert_eq!(r.get_f64(&[1, 0, 2]).unwrap(), a.get_f64(&[0, 2, 1]).unwrap());
        assert!(transpose(&a, &[0, 1]).is_err());
        assert!(transpose(&a, &[0, 0, 1]).is_err());
    }

    #[test]
    fn transpose_int_exact() {
        let a = TensorData::from_vec(vec![1i64, 2, 3, 4], Shape::from([2, 2])).unwrap();
        let r = transpose(&a, &[1, 0]).unwrap();
        assert_eq!(r.to_i64_vec(), vec![1, 3, 2, 4]);
        assert_eq!(r.dtype(), DType::I64);
    }

    #[test]
    fn expand_squeeze_round_trip() {
        let a = t6();
        let e = expand_dims(&a, 1).unwrap();
        assert_eq!(e.shape().dims(), &[2, 1, 3]);
        let s = squeeze(&e, &[1]).unwrap();
        assert_eq!(s.shape().dims(), &[2, 3]);
        let e2 = expand_dims(&a, -1).unwrap();
        assert_eq!(e2.shape().dims(), &[2, 3, 1]);
        assert!(squeeze(&a, &[0]).is_err());
        let all = squeeze(&expand_dims(&e, 0).unwrap(), &[]).unwrap();
        assert_eq!(all.shape().dims(), &[2, 3]);
    }

    #[test]
    fn concat_axis0_axis1() {
        let a = t6();
        let r0 = concat(&[&a, &a], 0).unwrap();
        assert_eq!(r0.shape().dims(), &[4, 3]);
        assert_eq!(r0.get_f64(&[2, 0]).unwrap(), 1.0);
        let r1 = concat(&[&a, &a], 1).unwrap();
        assert_eq!(r1.shape().dims(), &[2, 6]);
        assert_eq!(r1.get_f64(&[0, 3]).unwrap(), 1.0);
        assert_eq!(r1.get_f64(&[1, 5]).unwrap(), 6.0);
    }

    #[test]
    fn concat_validation() {
        let a = t6();
        let b = TensorData::zeros(DType::F32, [2, 2]);
        assert!(concat(&[&a, &b], 0).is_err());
        assert!(concat(&[&a, &b], 1).is_ok());
        let c = TensorData::zeros(DType::F64, [2, 3]);
        assert!(concat(&[&a, &c], 0).is_err());
        assert!(concat(&[], 0).is_err());
    }

    #[test]
    fn split_round_trips_concat() {
        let a = t6();
        let parts = split(&a, 3, 1).unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].shape().dims(), &[2, 1]);
        let refs: Vec<&TensorData> = parts.iter().collect();
        assert_eq!(concat(&refs, 1).unwrap(), a);
        assert!(split(&a, 4, 1).is_err());
    }

    #[test]
    fn slice_basic() {
        let a = t6();
        let r = slice(&a, &[0, 1], &[2, 2]).unwrap();
        assert_eq!(r.shape().dims(), &[2, 2]);
        assert_eq!(r.to_f64_vec(), vec![2.0, 3.0, 5.0, 6.0]);
        let full = slice(&a, &[1, 0], &[-1, -1]).unwrap();
        assert_eq!(full.shape().dims(), &[1, 3]);
        assert!(slice(&a, &[0, 2], &[1, 2]).is_err());
    }

    #[test]
    fn pad_and_pad_to() {
        let a = TensorData::from_vec(vec![1.0f32, 2.0], Shape::from([2])).unwrap();
        let p = pad(&a, &[(1, 2)], 0.5).unwrap();
        assert_eq!(p.to_f64_vec(), vec![0.5, 1.0, 2.0, 0.5, 0.5]);
        let back = pad_to(&a, &[1], &Shape::from([4])).unwrap();
        assert_eq!(back.to_f64_vec(), vec![0.0, 1.0, 2.0, 0.0]);
    }

    #[test]
    fn gather_rows_and_axis1() {
        let a = t6();
        let i = TensorData::from_vec(vec![1i64, 0, 1], Shape::from([3])).unwrap();
        let r = gather(&a, &i, 0).unwrap();
        assert_eq!(r.shape().dims(), &[3, 3]);
        assert_eq!(r.get_f64(&[0, 0]).unwrap(), 4.0);
        let j = TensorData::from_vec(vec![2i64, 2], Shape::from([2])).unwrap();
        let r1 = gather(&a, &j, 1).unwrap();
        assert_eq!(r1.shape().dims(), &[2, 2]);
        assert_eq!(r1.to_f64_vec(), vec![3.0, 3.0, 6.0, 6.0]);
        let bad = TensorData::from_vec(vec![5i64], Shape::from([1])).unwrap();
        assert!(gather(&a, &bad, 0).is_err());
    }

    #[test]
    fn scatter_add_accumulates() {
        let idx = TensorData::from_vec(vec![1i64, 1, 0], Shape::from([3])).unwrap();
        let upd = TensorData::from_vec(vec![1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0], Shape::from([3, 2]))
            .unwrap();
        let r = scatter_add_rows(&idx, &upd, 3).unwrap();
        assert_eq!(r.shape().dims(), &[3, 2]);
        assert_eq!(r.to_f64_vec(), vec![5.0, 6.0, 4.0, 6.0, 0.0, 0.0]);
    }

    #[test]
    fn gather_scatter_adjoint_property() {
        // scatter_add(gather(x)) sums duplicate rows — check one case.
        let a = TensorData::from_vec(vec![1.0f32, 2.0, 3.0, 4.0], Shape::from([2, 2])).unwrap();
        let i = TensorData::from_vec(vec![0i64, 0], Shape::from([2])).unwrap();
        let g = gather(&a, &i, 0).unwrap();
        let s = scatter_add_rows(&i, &g, 2).unwrap();
        assert_eq!(s.to_f64_vec(), vec![2.0, 4.0, 0.0, 0.0]);
    }

    #[test]
    fn reverse_axes() {
        let a = t6();
        let r = reverse(&a, 1).unwrap();
        assert_eq!(r.to_f64_vec(), vec![3.0, 2.0, 1.0, 6.0, 5.0, 4.0]);
        let r0 = reverse(&a, 0).unwrap();
        assert_eq!(r0.to_f64_vec(), vec![4.0, 5.0, 6.0, 1.0, 2.0, 3.0]);
        // Involution.
        assert_eq!(reverse(&reverse(&a, -1).unwrap(), -1).unwrap(), a);
        assert!(reverse(&a, 2).is_err());
    }

    #[test]
    fn tile_2d() {
        let a = TensorData::from_vec(vec![1.0f32, 2.0], Shape::from([1, 2])).unwrap();
        let r = tile(&a, &[2, 2]).unwrap();
        assert_eq!(r.shape().dims(), &[2, 4]);
        assert_eq!(r.to_f64_vec(), vec![1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn broadcast_to_materializes() {
        let a = TensorData::from_vec(vec![1.0f32, 2.0], Shape::from([2, 1])).unwrap();
        let r = broadcast_to(&a, &Shape::from([2, 3])).unwrap();
        assert_eq!(r.to_f64_vec(), vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
        assert!(broadcast_to(&r, &Shape::from([2, 1])).is_err());
    }

    #[test]
    fn one_hot_encodes() {
        let i = TensorData::from_vec(vec![0i64, 2, 1], Shape::from([3])).unwrap();
        let r = one_hot(&i, 3, DType::F32).unwrap();
        assert_eq!(r.shape().dims(), &[3, 3]);
        assert_eq!(r.to_f64_vec(), vec![1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn stack_unstack_round_trip() {
        let a = TensorData::from_vec(vec![1.0f32, 2.0], Shape::from([2])).unwrap();
        let b = TensorData::from_vec(vec![3.0f32, 4.0], Shape::from([2])).unwrap();
        let s = stack(&[&a, &b], 0).unwrap();
        assert_eq!(s.shape().dims(), &[2, 2]);
        let parts = unstack(&s, 0).unwrap();
        assert_eq!(parts, vec![a, b]);
    }

    #[test]
    fn reshape_preserves_order() {
        each_seed(64, |rng| {
            let xs: Vec<f64> = (0..12).map(|_| rng.range(-10.0..10.0)).collect();
            let a = TensorData::from_vec(xs.clone(), Shape::from([12])).unwrap();
            let r = reshape(&a, &[3, 4]).unwrap();
            assert_eq!(r.to_f64_vec(), xs);
        });
    }

    #[test]
    fn transpose_involution() {
        each_seed(64, |rng| {
            let xs: Vec<f64> = (0..6).map(|_| rng.range(-10.0..10.0)).collect();
            let a = TensorData::from_vec(xs, Shape::from([2, 3])).unwrap();
            let tt = transpose(&transpose(&a, &[1, 0]).unwrap(), &[1, 0]).unwrap();
            assert_eq!(tt, a);
        });
    }

    #[test]
    fn slice_of_pad_recovers() {
        each_seed(64, |rng| {
            let xs: Vec<f64> = (0..4).map(|_| rng.range(-10.0..10.0)).collect();
            let a = TensorData::from_vec(xs, Shape::from([4])).unwrap();
            let p = pad(&a, &[(2, 3)], 0.0).unwrap();
            let s = slice(&p, &[2], &[4]).unwrap();
            assert_eq!(s, a);
        });
    }

    #[test]
    fn tile_multiplies_elements() {
        each_seed(64, |rng| {
            let (m, n) = (rng.range(1..4), rng.range(1..4));
            let a = TensorData::ones(DType::F32, [2, 2]);
            let r = tile(&a, &[m, n]).unwrap();
            assert_eq!(r.num_elements(), 4 * m * n);
        });
    }
}
