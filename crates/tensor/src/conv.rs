//! 2-D convolution and its gradients, NHWC layout with HWIO filters.
//!
//! All three kernels run on the packed [`crate::gemm`] micro-kernel in f64
//! (the accumulation dtype of the direct loops they replaced), each over a
//! per-batch patch matrix:
//!
//! - forward: im2col, then `patches · f`, parallel over batches (or, for
//!   few large batches, over output rows and the gemm's row blocks);
//! - input gradient: `go_b · fᵀ`, then col2im scatter-adds the patch
//!   gradient back in the direct loop's `(oy, ox, ky, kx, ci)` order —
//!   parallel over batches (disjoint outputs), bitwise equal to
//!   [`conv2d_backprop_input_reference`] at every thread count;
//! - filter gradient: `part += patchesᵀ · go_b`, the gemm resuming each
//!   tap's accumulator across the batches of a chunk, with per-chunk
//!   partials tree-reduced over fixed batch chunks — deterministic for
//!   every thread count, bitwise equal to the serial fold
//!   [`conv2d_backprop_filter_reference`] when there is one chunk.
//!
//! Padding enters the gemms as exact `+0.0` patch entries. On finite data
//! they never change a bit (an accumulator that starts at `+0.0` never
//! reaches `-0.0`); a ±inf or NaN gradient at a border position makes the
//! filter gradient's padded taps `0 · g = NaN`, where the direct loop
//! skipped them. Operands are widened to f64 one batch slice at a time,
//! into scratch that each parallel task reuses across its batches.

use crate::elementwise::FloatScalar;
use crate::gemm::gemm_into;
use crate::{Buffer, Result, Shape, TensorData, TensorError};
use tfe_parallel::par_chunks_mut;

/// Multiply-adds per batch above which conv kernels parallelize across
/// rather than within batches (and at all).
const CONV_PAR_MADDS: usize = 1 << 18;

/// Spatial padding scheme, as in TensorFlow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Padding {
    /// Output size `ceil(in / stride)`; zero-pads as evenly as possible.
    Same,
    /// No padding; output size `ceil((in - k + 1) / stride)`.
    Valid,
}

impl Padding {
    /// Stable name ("SAME"/"VALID"), matching TensorFlow attr spelling.
    pub fn name(self) -> &'static str {
        match self {
            Padding::Same => "SAME",
            Padding::Valid => "VALID",
        }
    }

    /// Inverse of [`Padding::name`] (case-insensitive).
    pub fn from_name(name: &str) -> Option<Padding> {
        match name.to_ascii_uppercase().as_str() {
            "SAME" => Some(Padding::Same),
            "VALID" => Some(Padding::Valid),
            _ => None,
        }
    }

    /// (output extent, pad_before) for one spatial dimension.
    pub fn resolve(self, input: usize, k: usize, stride: usize) -> (usize, usize) {
        match self {
            Padding::Same => {
                let out = input.div_ceil(stride);
                if out == 0 {
                    return (0, 0);
                }
                let needed = ((out - 1) * stride + k).saturating_sub(input);
                (out, needed / 2)
            }
            Padding::Valid => {
                let out = (input + 1).saturating_sub(k).div_ceil(stride);
                (out, 0)
            }
        }
    }
}

/// Validated convolution geometry shared by forward and backward kernels.
#[derive(Debug, Clone, Copy)]
pub struct Conv2dGeometry {
    /// batch
    pub n: usize,
    /// input height/width
    pub h: usize,
    /// input width
    pub w: usize,
    /// input channels
    pub c_in: usize,
    /// filter height
    pub kh: usize,
    /// filter width
    pub kw: usize,
    /// output channels
    pub c_out: usize,
    /// strides
    pub sh: usize,
    /// stride width
    pub sw: usize,
    /// output height
    pub oh: usize,
    /// output width
    pub ow: usize,
    /// padding before (top)
    pub ph: usize,
    /// padding before (left)
    pub pw: usize,
}

/// Compute and validate conv geometry from input/filter shapes.
///
/// # Errors
/// Wrong ranks, channel mismatch, or zero strides.
pub fn conv2d_geometry(
    input: &Shape,
    filter: &Shape,
    strides: (usize, usize),
    padding: Padding,
) -> Result<Conv2dGeometry> {
    if input.rank() != 4 {
        return Err(TensorError::ShapeMismatch {
            expected: "NHWC rank-4 input".to_string(),
            got: input.clone(),
        });
    }
    if filter.rank() != 4 {
        return Err(TensorError::ShapeMismatch {
            expected: "HWIO rank-4 filter".to_string(),
            got: filter.clone(),
        });
    }
    let (sh, sw) = strides;
    if sh == 0 || sw == 0 {
        return Err(TensorError::InvalidArgument("conv2d strides must be positive".to_string()));
    }
    let (n, h, w, c_in) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    let (kh, kw, fc_in, c_out) = (filter.dim(0), filter.dim(1), filter.dim(2), filter.dim(3));
    if fc_in != c_in {
        return Err(TensorError::ShapeMismatch {
            expected: format!("filter input channels == {c_in}"),
            got: filter.clone(),
        });
    }
    let (oh, ph) = padding.resolve(h, kh, sh);
    let (ow, pw) = padding.resolve(w, kw, sw);
    Ok(Conv2dGeometry { n, h, w, c_in, kh, kw, c_out, sh, sw, oh, ow, ph, pw })
}

/// Direct-loop reference convolution, kept for parity testing of the
/// im2col + gemm fast path (`tests/kernel_parity.rs`).
pub fn conv2d_reference<T: FloatScalar>(x: &[T], f: &[T], g: &Conv2dGeometry) -> Vec<f64> {
    let mut out = vec![0.0f64; g.n * g.oh * g.ow * g.c_out];
    for b in 0..g.n {
        for_each_tap(g, |oy, ox, ky, kx, iy, ix| {
            let xin = ((b * g.h + iy) * g.w + ix) * g.c_in;
            let fin = (ky * g.kw + kx) * g.c_in;
            let oout = ((b * g.oh + oy) * g.ow + ox) * g.c_out;
            for ci in 0..g.c_in {
                let xv = x[xin + ci].to_f64();
                let frow = (fin + ci) * g.c_out;
                for co in 0..g.c_out {
                    out[oout + co] += xv * f[frow + co].to_f64();
                }
            }
        });
    }
    out
}

/// Direct-loop reference input gradient, kept for parity testing of the
/// gemm + col2im path: each in-bounds tap adds its serial dot over
/// `c_out`, in `(oy, ox, ky, kx, ci)` order.
pub fn conv2d_backprop_input_reference<T: FloatScalar>(
    f: &[T],
    go: &[T],
    g: &Conv2dGeometry,
) -> Vec<f64> {
    let mut gx = vec![0.0f64; g.n * g.h * g.w * g.c_in];
    for b in 0..g.n {
        for_each_tap(g, |oy, ox, ky, kx, iy, ix| {
            let xin = ((b * g.h + iy) * g.w + ix) * g.c_in;
            let fin = (ky * g.kw + kx) * g.c_in;
            let oout = ((b * g.oh + oy) * g.ow + ox) * g.c_out;
            for ci in 0..g.c_in {
                let frow = (fin + ci) * g.c_out;
                let mut acc = 0.0;
                for co in 0..g.c_out {
                    acc += go[oout + co].to_f64() * f[frow + co].to_f64();
                }
                gx[xin + ci] += acc;
            }
        });
    }
    gx
}

/// Direct-loop reference filter gradient, kept for parity testing of the
/// gemm path: one serial fold over batches, then output positions, of the
/// in-bounds taps only.
pub fn conv2d_backprop_filter_reference<T: FloatScalar>(
    x: &[T],
    go: &[T],
    g: &Conv2dGeometry,
) -> Vec<f64> {
    let mut gf = vec![0.0f64; g.kh * g.kw * g.c_in * g.c_out];
    for b in 0..g.n {
        for_each_tap(g, |oy, ox, ky, kx, iy, ix| {
            let xin = ((b * g.h + iy) * g.w + ix) * g.c_in;
            let fin = (ky * g.kw + kx) * g.c_in;
            let oout = ((b * g.oh + oy) * g.ow + ox) * g.c_out;
            for ci in 0..g.c_in {
                let xv = x[xin + ci].to_f64();
                let frow = (fin + ci) * g.c_out;
                for co in 0..g.c_out {
                    gf[frow + co] += xv * go[oout + co].to_f64();
                }
            }
        });
    }
    gf
}

/// Visit every tap of one batch that lands inside the input, in
/// `(oy, ox, ky, kx)` order, as `visit(oy, ox, ky, kx, iy, ix)`.
fn for_each_tap(
    g: &Conv2dGeometry,
    mut visit: impl FnMut(usize, usize, usize, usize, usize, usize),
) {
    for oy in 0..g.oh {
        for ox in 0..g.ow {
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
                    visit(oy, ox, ky, kx, iy as usize, ix as usize);
                }
            }
        }
    }
}

/// Widen `t`'s elements `start..start + dst.len()` (row-major) into `dst`:
/// the kernels below convert one batch's slice of an operand at a time.
fn widen_into(t: &TensorData, start: usize, dst: &mut [f64]) {
    match t.buffer() {
        Buffer::F32(v) => {
            let src = &v[start..][..dst.len()];
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = f64::from(s);
            }
        }
        Buffer::F64(v) => dst.copy_from_slice(&v[start..][..dst.len()]),
        _ => unreachable!("conv operands are checked to be float"),
    }
}

/// Copy the im2col patch rows `rows` (flat `oy * ow + ox` indices) of one
/// batch's input `xb` (its `h*w*c_in` slice) into `dst` (one
/// `kh*kw*c_in`-wide row per output position, zeros where the window
/// hangs over the padding).
fn pack_patch_rows(xb: &[f64], g: &Conv2dGeometry, rows: std::ops::Range<usize>, dst: &mut [f64]) {
    let k = g.kh * g.kw * g.c_in;
    for (ri, prow) in rows.zip(dst.chunks_exact_mut(k)) {
        let (oy, ox) = (ri / g.ow, ri % g.ow);
        prow.fill(0.0);
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
                let src = &xb[(iy as usize * g.w + ix as usize) * g.c_in..][..g.c_in];
                prow[(ky * g.kw + kx) * g.c_in..][..g.c_in].copy_from_slice(src);
            }
        }
    }
}

/// The transpose of [`pack_patch_rows`] over a whole batch: scatter-add
/// each patch-gradient row of `dpatch` onto that batch's input gradient
/// `gxb`, in `(oy, ox, ky, kx, ci)` order, dropping the taps that hang
/// over the padding.
fn col2im_add(dpatch: &[f64], g: &Conv2dGeometry, gxb: &mut [f64]) {
    let k = g.kh * g.kw * g.c_in;
    for_each_tap(g, |oy, ox, ky, kx, iy, ix| {
        let src = &dpatch[(oy * g.ow + ox) * k + (ky * g.kw + kx) * g.c_in..][..g.c_in];
        for (d, s) in gxb[(iy * g.w + ix) * g.c_in..][..g.c_in].iter_mut().zip(src) {
            *d += s;
        }
    });
}

/// im2col + gemm forward pass: per batch, gather the `oh*ow x kh*kw*c_in`
/// patch matrix and multiply by the `kh*kw*c_in x c_out` filter matrix
/// (HWIO is already that layout). Accumulation order per output element is
/// (ky, kx, ci) ascending — the same as the direct loop, plus exact-zero
/// padding terms.
fn conv2d_im2col(input: &TensorData, f: &[f64], g: &Conv2dGeometry) -> Vec<f64> {
    let k = g.kh * g.kw * g.c_in;
    let m = g.oh * g.ow;
    let x_elems = g.h * g.w * g.c_in;
    let mut out = vec![0.0f64; g.n * m * g.c_out];
    if k == 0 || m == 0 || g.c_out == 0 || g.n == 0 {
        return out;
    }
    let per_batch = m * k * g.c_out;
    if per_batch >= CONV_PAR_MADDS {
        // Few large batches: parallelize the patch gather over output rows
        // and let the gemm split its row blocks across the pool.
        let mut xb = vec![0.0f64; x_elems];
        let mut patches = vec![0.0f64; m * k];
        for b in 0..g.n {
            widen_into(input, b * x_elems, &mut xb);
            par_chunks_mut(&mut patches, g.ow * k, crate::par::GRAIN_ROWS, |rows, chunk| {
                pack_patch_rows(&xb, g, rows.start * g.ow..rows.end * g.ow, chunk);
            });
            gemm_into(
                m,
                k,
                g.c_out,
                &patches,
                false,
                f,
                false,
                &mut out[b * m * g.c_out..][..m * g.c_out],
                true,
            );
        }
    } else {
        // Many small batches: one task per group of batches, serial inside.
        let grain = (CONV_PAR_MADDS / per_batch.max(1)).max(1);
        par_chunks_mut(&mut out, m * g.c_out, grain, |bs, block| {
            let mut xb = vec![0.0f64; x_elems];
            let mut patches = vec![0.0f64; m * k];
            for (b, ob) in bs.zip(block.chunks_exact_mut(m * g.c_out)) {
                widen_into(input, b * x_elems, &mut xb);
                pack_patch_rows(&xb, g, 0..m, &mut patches);
                gemm_into(m, k, g.c_out, &patches, false, f, false, ob, false);
            }
        });
    }
    out
}

/// Forward 2-D convolution (NHWC input, HWIO filter).
///
/// # Errors
/// Geometry validation failures or non-float/matching dtypes.
pub fn conv2d(
    input: &TensorData,
    filter: &TensorData,
    strides: (usize, usize),
    padding: Padding,
) -> Result<TensorData> {
    let _sp = tfe_profile::span("intra", || "conv2d_im2col");
    check_float_pair(input, filter)?;
    let g = conv2d_geometry(input.shape(), filter.shape(), strides, padding)?;
    let out = conv2d_im2col(input, &filter.to_f64_vec(), &g);
    Ok(TensorData::from_f64_vec(input.dtype(), out, Shape::from([g.n, g.oh, g.ow, g.c_out])))
}

/// Gradient of [`conv2d`] with respect to its input.
///
/// Per batch, `dpatch = go_b · fᵀ` (the HWIO filter read transposed),
/// then [`col2im_add`]. Each patch-gradient element is the ascending dot
/// over `c_out` from `+0.0`, and col2im adds them in the direct loop's
/// order, so the result is bitwise [`conv2d_backprop_input_reference`].
///
/// # Errors
/// Geometry or dtype failures; `grad_out` shape must match the forward
/// output shape.
pub fn conv2d_backprop_input(
    input_shape: &Shape,
    filter: &TensorData,
    grad_out: &TensorData,
    strides: (usize, usize),
    padding: Padding,
) -> Result<TensorData> {
    check_float_pair(filter, grad_out)?;
    let g = conv2d_geometry(input_shape, filter.shape(), strides, padding)?;
    expect_shape(grad_out, &[g.n, g.oh, g.ow, g.c_out])?;
    let (m, k) = (g.oh * g.ow, g.kh * g.kw * g.c_in);
    let batch_elems = g.h * g.w * g.c_in;
    let mut gx = vec![0.0f64; g.n * batch_elems];
    if !gx.is_empty() && m > 0 && k > 0 {
        let f = filter.to_f64_vec();
        // Batches write disjoint regions of gx, so they run in parallel
        // with the per-batch math untouched (bitwise equal to serial).
        let grain = if m * k * g.c_out >= CONV_PAR_MADDS { 1 } else { g.n };
        par_chunks_mut(&mut gx, batch_elems, grain, |bs, block| {
            let mut go_b = vec![0.0f64; m * g.c_out];
            let mut dpatch = vec![0.0f64; m * k];
            for (b, gxb) in bs.zip(block.chunks_exact_mut(batch_elems)) {
                widen_into(grad_out, b * m * g.c_out, &mut go_b);
                dpatch.fill(0.0);
                gemm_into(m, g.c_out, k, &go_b, false, &f, true, &mut dpatch, false);
                col2im_add(&dpatch, &g, gxb);
            }
        });
    }
    Ok(TensorData::from_f64_vec(filter.dtype(), gx, input_shape.clone()))
}

/// Gradient of [`conv2d`] with respect to its filter.
///
/// Per batch, `part += patchesᵀ · go_b`: the gemm resumes each tap's
/// accumulator from `part`, so within a chunk of batches every element is
/// the direct loop's serial fold, plus `0 · g` terms for padded taps that
/// leave a finite sum's bits alone. Chunk partials then combine in
/// ascending batch order.
///
/// # Errors
/// Geometry or dtype failures.
pub fn conv2d_backprop_filter(
    input: &TensorData,
    filter_shape: &Shape,
    grad_out: &TensorData,
    strides: (usize, usize),
    padding: Padding,
) -> Result<TensorData> {
    check_float_pair(input, grad_out)?;
    let g = conv2d_geometry(input.shape(), filter_shape, strides, padding)?;
    expect_shape(grad_out, &[g.n, g.oh, g.ow, g.c_out])?;
    let (m, k) = (g.oh * g.ow, g.kh * g.kw * g.c_in);
    let x_elems = g.h * g.w * g.c_in;
    let flen = k * g.c_out;
    if m == 0 || flen == 0 {
        let zeros = vec![0.0f64; flen];
        return Ok(TensorData::from_f64_vec(input.dtype(), zeros, filter_shape.clone()));
    }
    // All batches accumulate into the same filter gradient, so this is a
    // tree reduction over per-batch-group partials. Chunk boundaries are
    // fixed by (n, grain) and partials combine in ascending batch order —
    // deterministic for every thread count (though with more than one
    // chunk the grouping changes the float sum versus the serial fold).
    let grain = if m * k * g.c_out >= CONV_PAR_MADDS { 1 } else { g.n.max(1) };
    let gf = tfe_parallel::par_reduce(
        g.n,
        grain,
        |bs| {
            let mut part = vec![0.0f64; flen];
            let mut xb = vec![0.0f64; x_elems];
            let mut go_b = vec![0.0f64; m * g.c_out];
            let mut patches = vec![0.0f64; m * k];
            for b in bs {
                widen_into(input, b * x_elems, &mut xb);
                widen_into(grad_out, b * m * g.c_out, &mut go_b);
                pack_patch_rows(&xb, &g, 0..m, &mut patches);
                gemm_into(k, m, g.c_out, &patches, true, &go_b, false, &mut part, false);
            }
            part
        },
        |mut a, b| {
            for (av, bv) in a.iter_mut().zip(&b) {
                *av += bv;
            }
            a
        },
    )
    .unwrap_or_else(|| vec![0.0f64; flen]);
    Ok(TensorData::from_f64_vec(input.dtype(), gf, filter_shape.clone()))
}

fn check_float_pair(a: &TensorData, b: &TensorData) -> Result<()> {
    if a.dtype() != b.dtype() {
        return Err(TensorError::DTypeMismatch {
            expected: a.dtype().name().to_string(),
            got: b.dtype(),
        });
    }
    if !a.dtype().is_float() {
        return Err(TensorError::DTypeMismatch {
            expected: "a float dtype".to_string(),
            got: a.dtype(),
        });
    }
    Ok(())
}

fn expect_shape(t: &TensorData, dims: &[usize]) -> Result<()> {
    if t.shape().dims() != dims {
        return Err(TensorError::ShapeMismatch {
            expected: format!("shape {:?}", dims),
            got: t.shape().clone(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DType;

    #[test]
    fn padding_resolution() {
        assert_eq!(Padding::Valid.resolve(5, 3, 1), (3, 0));
        assert_eq!(Padding::Same.resolve(5, 3, 1), (5, 1));
        assert_eq!(Padding::Same.resolve(5, 3, 2), (3, 1));
        assert_eq!(Padding::Valid.resolve(5, 3, 2), (2, 0));
        // An empty extent has no output and no padding (no underflow).
        assert_eq!(Padding::Same.resolve(0, 3, 1), (0, 0));
        assert_eq!(Padding::Same.resolve(0, 1, 2), (0, 0));
        assert_eq!(Padding::Valid.resolve(0, 3, 1), (0, 0));
        assert_eq!(Padding::from_name("same"), Some(Padding::Same));
        assert_eq!(Padding::from_name("x"), None);
    }

    #[test]
    fn identity_kernel() {
        // 1x1 filter with weight 1 is identity.
        let x = TensorData::from_f64_vec(
            DType::F32,
            (0..16).map(|i| i as f64).collect(),
            Shape::from([1, 4, 4, 1]),
        );
        let f = TensorData::ones(DType::F32, [1, 1, 1, 1]);
        let y = conv2d(&x, &f, (1, 1), Padding::Valid).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    fn box_filter_valid() {
        // 2x2 box filter over a 3x3 image of ones -> all 4s, 2x2 output.
        let x = TensorData::ones(DType::F32, [1, 3, 3, 1]);
        let f = TensorData::ones(DType::F32, [2, 2, 1, 1]);
        let y = conv2d(&x, &f, (1, 1), Padding::Valid).unwrap();
        assert_eq!(y.shape().dims(), &[1, 2, 2, 1]);
        assert_eq!(y.to_f64_vec(), vec![4.0; 4]);
    }

    #[test]
    fn same_padding_shape_and_borders() {
        let x = TensorData::ones(DType::F32, [1, 3, 3, 1]);
        let f = TensorData::ones(DType::F32, [3, 3, 1, 1]);
        let y = conv2d(&x, &f, (1, 1), Padding::Same).unwrap();
        assert_eq!(y.shape().dims(), &[1, 3, 3, 1]);
        // Corner sees a 2x2 window, edge 2x3, center 3x3.
        assert_eq!(y.get_f64(&[0, 0, 0, 0]).unwrap(), 4.0);
        assert_eq!(y.get_f64(&[0, 0, 1, 0]).unwrap(), 6.0);
        assert_eq!(y.get_f64(&[0, 1, 1, 0]).unwrap(), 9.0);
    }

    #[test]
    fn strided_conv() {
        let x = TensorData::from_f64_vec(
            DType::F32,
            (0..16).map(|i| i as f64).collect(),
            Shape::from([1, 4, 4, 1]),
        );
        let f = TensorData::ones(DType::F32, [1, 1, 1, 1]);
        let y = conv2d(&x, &f, (2, 2), Padding::Valid).unwrap();
        assert_eq!(y.shape().dims(), &[1, 2, 2, 1]);
        assert_eq!(y.to_f64_vec(), vec![0.0, 2.0, 8.0, 10.0]);
    }

    #[test]
    fn multi_channel() {
        // 2 input channels summed into 1 output channel.
        let x =
            TensorData::from_vec(vec![1.0f32, 10.0, 2.0, 20.0], Shape::from([1, 1, 2, 2])).unwrap();
        let f = TensorData::ones(DType::F32, [1, 1, 2, 1]);
        let y = conv2d(&x, &f, (1, 1), Padding::Valid).unwrap();
        assert_eq!(y.to_f64_vec(), vec![11.0, 22.0]);
    }

    #[test]
    fn channel_mismatch_rejected() {
        let x = TensorData::ones(DType::F32, [1, 3, 3, 2]);
        let f = TensorData::ones(DType::F32, [2, 2, 3, 1]);
        assert!(conv2d(&x, &f, (1, 1), Padding::Valid).is_err());
    }

    /// Finite-difference check of both gradients on a tiny conv.
    #[test]
    fn gradients_match_finite_differences() {
        let xs: Vec<f64> = (0..18).map(|i| (i as f64) * 0.1 - 0.9).collect();
        let fs: Vec<f64> = (0..8).map(|i| (i as f64) * 0.2 - 0.8).collect();
        let x = TensorData::from_vec(xs.clone(), Shape::from([1, 3, 3, 2])).unwrap();
        let f = TensorData::from_vec(fs.clone(), Shape::from([2, 2, 2, 1])).unwrap();
        let strides = (1, 1);
        let pad = Padding::Valid;

        let loss = |x: &TensorData, f: &TensorData| -> f64 {
            conv2d(x, f, strides, pad).unwrap().to_f64_vec().iter().sum()
        };
        // grad_out = ones since loss = sum(output)
        let y = conv2d(&x, &f, strides, pad).unwrap();
        let go = TensorData::ones(DType::F64, y.shape().clone());

        let gx = conv2d_backprop_input(x.shape(), &f, &go, strides, pad).unwrap();
        let gf = conv2d_backprop_filter(&x, f.shape(), &go, strides, pad).unwrap();

        let eps = 1e-5;
        for i in 0..xs.len() {
            let mut xp = xs.clone();
            xp[i] += eps;
            let xp = TensorData::from_vec(xp, Shape::from([1, 3, 3, 2])).unwrap();
            let num = (loss(&xp, &f) - loss(&x, &f)) / eps;
            assert!(
                (num - gx.get_f64_linear(i)).abs() < 1e-4,
                "input grad {i}: fd={num} analytic={}",
                gx.get_f64_linear(i)
            );
        }
        for i in 0..fs.len() {
            let mut fp = fs.clone();
            fp[i] += eps;
            let fp = TensorData::from_vec(fp, Shape::from([2, 2, 2, 1])).unwrap();
            let num = (loss(&x, &fp) - loss(&x, &f)) / eps;
            assert!(
                (num - gf.get_f64_linear(i)).abs() < 1e-4,
                "filter grad {i}: fd={num} analytic={}",
                gf.get_f64_linear(i)
            );
        }
    }

    #[test]
    fn backprop_shapes_validated() {
        let x = TensorData::ones(DType::F32, [1, 4, 4, 1]);
        let f = TensorData::ones(DType::F32, [2, 2, 1, 3]);
        let bad_go = TensorData::ones(DType::F32, [1, 4, 4, 3]);
        assert!(conv2d_backprop_input(x.shape(), &f, &bad_go, (1, 1), Padding::Valid).is_err());
        assert!(conv2d_backprop_filter(&x, f.shape(), &bad_go, (1, 1), Padding::Valid).is_err());
    }
}
