//! Max/average 2-D pooling and gradients, NHWC layout.
//!
//! Both kernels read and write typed slices in the input's own dtype, the
//! channel run innermost and contiguous: a window folds one `C`-long pixel
//! row per tap, taps in `(ky, kx)` order, into a `C`-long accumulator row.
//!
//! - max forward: the row starts at `-inf` and takes a tap where it is
//!   strictly greater, in the element type. That is exact, drops a NaN as
//!   `f64::max` does, and keeps the first of equal taps (`-0.0` and `+0.0`
//!   are equal);
//! - avg forward: the taps add up in an `f64` row from `+0.0`, divided by
//!   the window's valid count and narrowed once;
//! - gradients: each window routes `grad_out` to the first strict maximum
//!   per channel (found in the element type), or `g / count` to every valid
//!   tap, and an input element's sum is kept in `f64` in `(b, oy, ox)`
//!   order and narrowed once. Where stride ≥ ksize on both axes the windows
//!   are disjoint, each element takes at most one `0 + v`, and it is written
//!   in place; where they overlap, the sums run in a per-task `f64` block.
//!
//! The forward splits over output rows, the gradients over input rows, with
//! `par_chunks_mut`; a task that shares a window with its neighbour reads
//! that window again, so each element's arithmetic is fixed by the geometry
//! alone. The results are bitwise [`pool2d_reference`] and
//! [`pool2d_grad_reference`] — the direct `f64` loops these replaced — at
//! every thread count (`tests/kernel_parity.rs`), except where the
//! references leave a choice to the compiler (DESIGN.md §9): where two NaNs
//! meet in a sum (an average, or overlapping windows' gradients), which
//! one's sign and payload come out, and where `-0.0` and `+0.0` tie for a
//! max, which zero `f64::max` returns. The references' own builds differ
//! there; the first tap's zero is this kernel's rule. The `C`-long scratch
//! rows come from the per-thread `Scalar::scratch` pools.

use crate::conv::Padding;
use crate::data::Scratch;
use crate::{DType, Result, Scalar, Shape, TensorData, TensorError};
use std::ops::Range;
use tfe_parallel::par_chunks_mut;

/// Pooling kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Maximum over the window.
    Max,
    /// Mean over the window (dividing by the full window size, as TF does
    /// for interior windows; border windows divide by the valid count).
    Avg,
}

struct PoolGeometry {
    n: usize,
    h: usize,
    w: usize,
    c: usize,
    kh: usize,
    kw: usize,
    sh: usize,
    sw: usize,
    oh: usize,
    ow: usize,
    ph: usize,
    pw: usize,
}

fn geometry(
    input: &Shape,
    ksize: (usize, usize),
    strides: (usize, usize),
    padding: Padding,
) -> Result<PoolGeometry> {
    if input.rank() != 4 {
        return Err(TensorError::ShapeMismatch {
            expected: "NHWC rank-4 input".to_string(),
            got: input.clone(),
        });
    }
    let (kh, kw) = ksize;
    let (sh, sw) = strides;
    if kh == 0 || kw == 0 || sh == 0 || sw == 0 {
        return Err(TensorError::InvalidArgument(
            "pool window and strides must be positive".to_string(),
        ));
    }
    let (n, h, w, c) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    let (oh, ph) = padding.resolve(h, kh, sh);
    let (ow, pw) = padding.resolve(w, kw, sw);
    Ok(PoolGeometry { n, h, w, c, kh, kw, sh, sw, oh, ow, ph, pw })
}

impl PoolGeometry {
    /// The input rows window row `oy` covers inside the image.
    fn rows(&self, oy: usize) -> Range<usize> {
        inside(oy * self.sh, self.ph, self.kh, self.h)
    }

    /// The input columns window column `ox` covers inside the image.
    fn cols(&self, ox: usize) -> Range<usize> {
        inside(ox * self.sw, self.pw, self.kw, self.w)
    }

    /// Offset of pixel `(b, iy, ix)`'s channel row in the input.
    fn pixel(&self, b: usize, iy: usize, ix: usize) -> usize {
        ((b * self.h + iy) * self.w + ix) * self.c
    }

    /// Whether no input element lies in two windows.
    fn disjoint(&self) -> bool {
        self.sh >= self.kh && self.sw >= self.kw
    }
}

/// `start - pad .. start - pad + k`, clipped to `0..extent`: one window
/// axis's in-bounds taps, ascending.
fn inside(start: usize, pad: usize, k: usize, extent: usize) -> Range<usize> {
    let lo = start.saturating_sub(pad).min(extent);
    let hi = (start + k).saturating_sub(pad).min(extent);
    lo..hi.max(lo)
}

/// Units (rows of `unit` elements) per parallel task.
fn grain(unit: usize) -> usize {
    crate::par::GRAIN_ELEMWISE.div_ceil(unit.max(1))
}

/// Forward pooling.
///
/// # Errors
/// Non-float input or invalid geometry.
pub fn pool2d(
    input: &TensorData,
    ksize: (usize, usize),
    strides: (usize, usize),
    padding: Padding,
    kind: PoolKind,
) -> Result<TensorData> {
    if !input.dtype().is_float() {
        return Err(TensorError::DTypeMismatch {
            expected: "a float dtype".to_string(),
            got: input.dtype(),
        });
    }
    let g = geometry(input.shape(), ksize, strides, padding)?;
    let dims = Shape::from([g.n, g.oh, g.ow, g.c]);
    match input.dtype() {
        DType::F32 => TensorData::from_vec(pool_typed::<f32>(input.as_slice()?, &g, kind), dims),
        _ => TensorData::from_vec(pool_typed::<f64>(input.as_slice()?, &g, kind), dims),
    }
}

/// [`pool2d`] over a typed input, one task per group of output rows.
fn pool_typed<T: Scalar>(x: &[T], g: &PoolGeometry, kind: PoolKind) -> Vec<T> {
    let row = g.ow * g.c;
    let mut out = vec![T::from_f64(0.0); g.n * g.oh * row];
    par_chunks_mut(&mut out, row, grain(row), |rows, block| {
        let mut acc = Scratch::filled(if kind == PoolKind::Avg { g.c } else { 0 }, 0.0f64);
        for (r, orow) in rows.zip(block.chunks_exact_mut(row)) {
            let (b, iys) = (r / g.oh, g.rows(r % g.oh));
            for (ox, o) in orow.chunks_exact_mut(g.c).enumerate() {
                let ixs = g.cols(ox);
                match kind {
                    PoolKind::Max => {
                        o.fill(T::from_f64(f64::NEG_INFINITY));
                        for iy in iys.clone() {
                            for ix in ixs.clone() {
                                for (m, &v) in o.iter_mut().zip(&x[g.pixel(b, iy, ix)..][..g.c]) {
                                    *m = if v > *m { v } else { *m };
                                }
                            }
                        }
                    }
                    PoolKind::Avg => {
                        acc.fill(0.0);
                        for iy in iys.clone() {
                            for ix in ixs.clone() {
                                let taps = acc.iter_mut().zip(&x[g.pixel(b, iy, ix)..][..g.c]);
                                for (a, &v) in taps {
                                    *a += v.to_f64();
                                }
                            }
                        }
                        let count = iys.len() * ixs.len();
                        for (o, &a) in o.iter_mut().zip(acc.iter()) {
                            *o = T::from_f64(if count == 0 { 0.0 } else { a / count as f64 });
                        }
                    }
                }
            }
        }
    });
    out
}

/// Gradient of [`pool2d`] with respect to its input.
///
/// For max pooling the gradient routes to the (first) argmax element of each
/// window; for average pooling it spreads uniformly over the valid window.
///
/// # Errors
/// Shape or dtype mismatches.
pub fn pool2d_grad(
    input: &TensorData,
    grad_out: &TensorData,
    ksize: (usize, usize),
    strides: (usize, usize),
    padding: Padding,
    kind: PoolKind,
) -> Result<TensorData> {
    let g = geometry(input.shape(), ksize, strides, padding)?;
    if grad_out.shape().dims() != [g.n, g.oh, g.ow, g.c] {
        return Err(TensorError::ShapeMismatch {
            expected: format!("pool output shape ({},{},{},{})", g.n, g.oh, g.ow, g.c),
            got: grad_out.shape().clone(),
        });
    }
    if !input.dtype().is_float() || grad_out.dtype() != input.dtype() {
        return Err(TensorError::DTypeMismatch {
            expected: format!("a float grad_out of the input's dtype {}", input.dtype().name()),
            got: grad_out.dtype(),
        });
    }
    let (x, go, dims) = (input, grad_out, input.shape().clone());
    match input.dtype() {
        DType::F32 => {
            TensorData::from_vec(grad_typed::<f32>(x.as_slice()?, go.as_slice()?, &g, kind), dims)
        }
        _ => TensorData::from_vec(grad_typed::<f64>(x.as_slice()?, go.as_slice()?, &g, kind), dims),
    }
}

/// [`pool2d_grad`] over typed operands, one task per group of input rows.
fn grad_typed<T: Scalar>(x: &[T], go: &[T], g: &PoolGeometry, kind: PoolKind) -> Vec<T> {
    let row = g.w * g.c;
    let mut gx = vec![T::from_f64(0.0); g.n * g.h * row];
    par_chunks_mut(&mut gx, row, grain(row), |rows, block| {
        let lo = rows.start * row;
        if g.disjoint() {
            route(x, go, g, kind, rows, |i, v| block[i - lo] = T::from_f64(0.0 + v));
        } else {
            // As large as the task's block, so not kept in a per-thread pool.
            let mut acc = vec![0.0f64; block.len()];
            route(x, go, g, kind, rows, |i, v| acc[i - lo] += v);
            for (o, &a) in block.iter_mut().zip(&acc) {
                *o = T::from_f64(a);
            }
        }
    });
    gx
}

/// Hand `add(i, v)` every gradient contribution `v` that lands on an input
/// element `i` of the input rows `rows` (`b * h + iy`), in `(b, oy, ox)`
/// order: per window, `grad_out` to the first strict maximum of each
/// channel (max), or `g / count` to each valid tap (avg).
fn route<T: Scalar>(
    x: &[T],
    go: &[T],
    g: &PoolGeometry,
    kind: PoolKind,
    rows: Range<usize>,
    mut add: impl FnMut(usize, f64),
) {
    let c = g.c;
    let elems = rows.start * g.w * c..rows.end * g.w * c;
    let mut best = Scratch::filled(c, T::from_f64(0.0));
    let mut arg = Scratch::filled(c, 0i64);
    let mut share = Scratch::filled(c, 0.0f64);
    for b in rows.start / g.h..rows.end.div_ceil(g.h) {
        // This task's input rows of batch `b`.
        let ys = rows.start.max(b * g.h) - b * g.h..rows.end.min((b + 1) * g.h) - b * g.h;
        for oy in 0..g.oh {
            let iys = g.rows(oy);
            if iys.end <= ys.start || iys.start >= ys.end {
                continue;
            }
            for ox in 0..g.ow {
                let ixs = g.cols(ox);
                let gorow = &go[((b * g.oh + oy) * g.ow + ox) * c..][..c];
                match kind {
                    PoolKind::Max => {
                        best.fill(T::from_f64(f64::NEG_INFINITY));
                        arg.fill(-1);
                        for iy in iys.clone() {
                            for ix in ixs.clone() {
                                let p = g.pixel(b, iy, ix);
                                let taps = best.iter_mut().zip(arg.iter_mut()).zip(&x[p..][..c]);
                                for ((m, a), &v) in taps {
                                    let above = v > *m;
                                    *m = if above { v } else { *m };
                                    *a = if above { p as i64 } else { *a };
                                }
                            }
                        }
                        for (ci, (&p, &gv)) in arg.iter().zip(gorow).enumerate() {
                            if p >= 0 && elems.contains(&(p as usize)) {
                                add(p as usize + ci, gv.to_f64());
                            }
                        }
                    }
                    PoolKind::Avg => {
                        let count = (iys.len() * ixs.len()) as f64;
                        for (s, &gv) in share.iter_mut().zip(gorow) {
                            *s = gv.to_f64() / count;
                        }
                        for iy in iys.start.max(ys.start)..iys.end.min(ys.end) {
                            for ix in ixs.clone() {
                                let p = g.pixel(b, iy, ix);
                                for (ci, &s) in share.iter().enumerate() {
                                    add(p + ci, s);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Direct-loop reference forward pooling: every element widened to `f64`,
/// one serial scalar loop per output element. Kept for parity testing of
/// [`pool2d`] (`tests/kernel_parity.rs`).
///
/// # Errors
/// Non-float input or invalid geometry.
pub fn pool2d_reference(
    input: &TensorData,
    ksize: (usize, usize),
    strides: (usize, usize),
    padding: Padding,
    kind: PoolKind,
) -> Result<TensorData> {
    if !input.dtype().is_float() {
        return Err(TensorError::DTypeMismatch {
            expected: "a float dtype".to_string(),
            got: input.dtype(),
        });
    }
    let g = geometry(input.shape(), ksize, strides, padding)?;
    let x = input.to_f64_vec();
    let mut out = vec![0.0f64; g.n * g.oh * g.ow * g.c];
    for b in 0..g.n {
        for oy in 0..g.oh {
            for ox in 0..g.ow {
                for ci in 0..g.c {
                    let mut acc = match kind {
                        PoolKind::Max => f64::NEG_INFINITY,
                        PoolKind::Avg => 0.0,
                    };
                    let mut count = 0usize;
                    for ky in 0..g.kh {
                        let iy = (oy * g.sh + ky) as isize - g.ph as isize;
                        if iy < 0 || iy as usize >= g.h {
                            continue;
                        }
                        for kx in 0..g.kw {
                            let ix = (ox * g.sw + kx) as isize - g.pw as isize;
                            if ix < 0 || ix as usize >= g.w {
                                continue;
                            }
                            let v = x[((b * g.h + iy as usize) * g.w + ix as usize) * g.c + ci];
                            match kind {
                                PoolKind::Max => acc = acc.max(v),
                                PoolKind::Avg => acc += v,
                            }
                            count += 1;
                        }
                    }
                    let v = match kind {
                        PoolKind::Max => acc,
                        PoolKind::Avg => {
                            if count == 0 {
                                0.0
                            } else {
                                acc / count as f64
                            }
                        }
                    };
                    out[((b * g.oh + oy) * g.ow + ox) * g.c + ci] = v;
                }
            }
        }
    }
    Ok(TensorData::from_f64_vec(input.dtype(), out, Shape::from([g.n, g.oh, g.ow, g.c])))
}

/// Direct-loop reference pooling gradient: each output element's window
/// searched again (max) or collected into a `Vec` (avg), added in `f64` in
/// `(b, oy, ox, ci)` order. Kept for parity testing of [`pool2d_grad`].
///
/// # Errors
/// Shape or dtype mismatches.
pub fn pool2d_grad_reference(
    input: &TensorData,
    grad_out: &TensorData,
    ksize: (usize, usize),
    strides: (usize, usize),
    padding: Padding,
    kind: PoolKind,
) -> Result<TensorData> {
    let g = geometry(input.shape(), ksize, strides, padding)?;
    if grad_out.shape().dims() != [g.n, g.oh, g.ow, g.c] {
        return Err(TensorError::ShapeMismatch {
            expected: format!("pool output shape ({},{},{},{})", g.n, g.oh, g.ow, g.c),
            got: grad_out.shape().clone(),
        });
    }
    let x = input.to_f64_vec();
    let go = grad_out.to_f64_vec();
    let mut gx = vec![0.0f64; x.len()];
    for b in 0..g.n {
        for oy in 0..g.oh {
            for ox in 0..g.ow {
                for ci in 0..g.c {
                    let gov = go[((b * g.oh + oy) * g.ow + ox) * g.c + ci];
                    match kind {
                        PoolKind::Max => {
                            let mut best = f64::NEG_INFINITY;
                            let mut best_lin = None;
                            for ky in 0..g.kh {
                                let iy = (oy * g.sh + ky) as isize - g.ph as isize;
                                if iy < 0 || iy as usize >= g.h {
                                    continue;
                                }
                                for kx in 0..g.kw {
                                    let ix = (ox * g.sw + kx) as isize - g.pw as isize;
                                    if ix < 0 || ix as usize >= g.w {
                                        continue;
                                    }
                                    let lin =
                                        ((b * g.h + iy as usize) * g.w + ix as usize) * g.c + ci;
                                    if x[lin] > best {
                                        best = x[lin];
                                        best_lin = Some(lin);
                                    }
                                }
                            }
                            if let Some(lin) = best_lin {
                                gx[lin] += gov;
                            }
                        }
                        PoolKind::Avg => {
                            let mut lins = Vec::new();
                            for ky in 0..g.kh {
                                let iy = (oy * g.sh + ky) as isize - g.ph as isize;
                                if iy < 0 || iy as usize >= g.h {
                                    continue;
                                }
                                for kx in 0..g.kw {
                                    let ix = (ox * g.sw + kx) as isize - g.pw as isize;
                                    if ix < 0 || ix as usize >= g.w {
                                        continue;
                                    }
                                    lins.push(
                                        ((b * g.h + iy as usize) * g.w + ix as usize) * g.c + ci,
                                    );
                                }
                            }
                            if !lins.is_empty() {
                                let share = gov / lins.len() as f64;
                                for lin in lins {
                                    gx[lin] += share;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(TensorData::from_f64_vec(input.dtype(), gx, input.shape().clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DType;

    fn image_4x4() -> TensorData {
        TensorData::from_f64_vec(
            DType::F32,
            (0..16).map(|i| i as f64).collect(),
            Shape::from([1, 4, 4, 1]),
        )
    }

    #[test]
    fn max_pool_2x2() {
        let y = pool2d(&image_4x4(), (2, 2), (2, 2), Padding::Valid, PoolKind::Max).unwrap();
        assert_eq!(y.shape().dims(), &[1, 2, 2, 1]);
        assert_eq!(y.to_f64_vec(), vec![5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn avg_pool_2x2() {
        let y = pool2d(&image_4x4(), (2, 2), (2, 2), Padding::Valid, PoolKind::Avg).unwrap();
        assert_eq!(y.to_f64_vec(), vec![2.5, 4.5, 10.5, 12.5]);
    }

    #[test]
    fn same_padding_pool() {
        let x = TensorData::ones(DType::F32, [1, 3, 3, 1]);
        let y = pool2d(&x, (2, 2), (2, 2), Padding::Same, PoolKind::Avg).unwrap();
        assert_eq!(y.shape().dims(), &[1, 2, 2, 1]);
        // Border windows average only valid elements -> still 1.0 everywhere.
        assert_eq!(y.to_f64_vec(), vec![1.0; 4]);
    }

    #[test]
    fn global_avg_pool() {
        let y = pool2d(&image_4x4(), (4, 4), (1, 1), Padding::Valid, PoolKind::Avg).unwrap();
        assert_eq!(y.shape().dims(), &[1, 1, 1, 1]);
        assert_eq!(y.scalar_f64().unwrap(), 7.5);
    }

    #[test]
    fn max_pool_grad_routes_to_argmax() {
        let x = image_4x4();
        let go = TensorData::ones(DType::F32, [1, 2, 2, 1]);
        let gx = pool2d_grad(&x, &go, (2, 2), (2, 2), Padding::Valid, PoolKind::Max).unwrap();
        let v = gx.to_f64_vec();
        // Max of each window is its bottom-right element: 5, 7, 13, 15.
        assert_eq!(v.iter().filter(|&&x| x == 1.0).count(), 4);
        assert_eq!(v[5], 1.0);
        assert_eq!(v[7], 1.0);
        assert_eq!(v[13], 1.0);
        assert_eq!(v[15], 1.0);
    }

    #[test]
    fn avg_pool_grad_uniform() {
        let x = image_4x4();
        let go = TensorData::ones(DType::F32, [1, 2, 2, 1]);
        let gx = pool2d_grad(&x, &go, (2, 2), (2, 2), Padding::Valid, PoolKind::Avg).unwrap();
        assert_eq!(gx.to_f64_vec(), vec![0.25; 16]);
    }

    #[test]
    fn avg_pool_grad_finite_difference() {
        let xs: Vec<f64> = (0..16).map(|i| (i as f64) * 0.3 - 2.0).collect();
        let x = TensorData::from_vec(xs.clone(), Shape::from([1, 4, 4, 1])).unwrap();
        let loss = |x: &TensorData| -> f64 {
            pool2d(x, (3, 3), (1, 1), Padding::Same, PoolKind::Avg)
                .unwrap()
                .to_f64_vec()
                .iter()
                .sum()
        };
        let y = pool2d(&x, (3, 3), (1, 1), Padding::Same, PoolKind::Avg).unwrap();
        let go = TensorData::ones(DType::F64, y.shape().clone());
        let gx = pool2d_grad(&x, &go, (3, 3), (1, 1), Padding::Same, PoolKind::Avg).unwrap();
        let eps = 1e-6;
        for i in 0..xs.len() {
            let mut xp = xs.clone();
            xp[i] += eps;
            let xp = TensorData::from_vec(xp, Shape::from([1, 4, 4, 1])).unwrap();
            let num = (loss(&xp) - loss(&x)) / eps;
            assert!((num - gx.get_f64_linear(i)).abs() < 1e-4, "elem {i}");
        }
    }

    #[test]
    fn int_pool_rejected() {
        let x = TensorData::zeros(DType::I32, [1, 2, 2, 1]);
        assert!(pool2d(&x, (2, 2), (1, 1), Padding::Valid, PoolKind::Max).is_err());
    }

    #[test]
    fn bad_grad_shape_rejected() {
        let x = image_4x4();
        let go = TensorData::ones(DType::F32, [1, 3, 3, 1]);
        assert!(pool2d_grad(&x, &go, (2, 2), (2, 2), Padding::Valid, PoolKind::Max).is_err());
    }
}
