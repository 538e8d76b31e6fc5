//! 2-D convolution and its gradients, NHWC layout with HWIO filters.
//!
//! The forward pass lowers to im2col + the packed [`crate::gemm`]
//! micro-kernel (accumulating in f64, like the direct loop it replaced)
//! and parallelizes over batch and output rows; the input gradient is
//! parallel over batches (disjoint outputs, bitwise equal to serial); the
//! filter gradient tree-reduces per-batch partials with fixed chunking
//! (deterministic for every thread count, but the partial-sum order
//! differs from the serial fold — parity tests use a 1e-6 tolerance).

use crate::elementwise::FloatScalar;
use crate::gemm::gemm_into;
use crate::par::{par_fill_rows, SendPtr};
use crate::{Result, Shape, TensorData, TensorError};

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
                        let xin = ((b * g.h + iy as usize) * g.w + ix as usize) * g.c_in;
                        let fin = (ky * g.kw + kx) * g.c_in;
                        let oout = ((b * g.oh + oy) * g.ow + ox) * g.c_out;
                        for ci in 0..g.c_in {
                            let xv = x[xin + ci].to_f64();
                            let frow = (fin + ci) * g.c_out;
                            for co in 0..g.c_out {
                                out[oout + co] += xv * f[frow + co].to_f64();
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Copy the im2col patch rows `rows` (flat `oy * ow + ox` indices) of
/// batch `b` into `dst` (one `kh*kw*c_in`-wide row per output position,
/// zeros where the window hangs over the padding).
fn pack_patch_rows(
    x: &[f64],
    g: &Conv2dGeometry,
    b: usize,
    rows: std::ops::Range<usize>,
    dst: &mut [f64],
) {
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
                let src = &x[((b * g.h + iy as usize) * g.w + ix as usize) * g.c_in..][..g.c_in];
                prow[(ky * g.kw + kx) * g.c_in..][..g.c_in].copy_from_slice(src);
            }
        }
    }
}

/// im2col + gemm forward pass: per batch, gather the `oh*ow x kh*kw*c_in`
/// patch matrix and multiply by the `kh*kw*c_in x c_out` filter matrix
/// (HWIO is already that layout). Accumulation order per output element is
/// (ky, kx, ci) ascending — the same as the direct loop, plus exact-zero
/// padding terms.
fn conv2d_im2col(x: &[f64], f: &[f64], g: &Conv2dGeometry) -> Vec<f64> {
    let k = g.kh * g.kw * g.c_in;
    let m = g.oh * g.ow;
    let mut out = vec![0.0f64; g.n * m * g.c_out];
    if k == 0 || m == 0 || g.c_out == 0 || g.n == 0 {
        return out;
    }
    let per_batch = m * k * g.c_out;
    if per_batch >= CONV_PAR_MADDS {
        // Few large batches: parallelize the patch gather over output rows
        // and let the gemm split its row blocks across the pool.
        let mut patches = vec![0.0f64; m * k];
        for b in 0..g.n {
            par_fill_rows(&mut patches, g.ow * k, crate::par::GRAIN_ROWS, |rows, chunk| {
                pack_patch_rows(x, g, b, rows.start * g.ow..rows.end * g.ow, chunk);
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
        let ptr = SendPtr::new(out.as_mut_ptr());
        tfe_parallel::par_for(g.n, grain, |bs| {
            let mut patches = vec![0.0f64; m * k];
            for b in bs {
                pack_patch_rows(x, g, b, 0..m, &mut patches);
                // SAFETY: per-batch output slices are disjoint; par_for
                // joins before `out` is read.
                let ob = unsafe { ptr.slice_mut(b * m * g.c_out, m * g.c_out) };
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
    let out = conv2d_im2col(&input.to_f64_vec(), &filter.to_f64_vec(), &g);
    Ok(TensorData::from_f64_vec(input.dtype(), out, Shape::from([g.n, g.oh, g.ow, g.c_out])))
}

/// Gradient of [`conv2d`] with respect to its input.
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
    let f = filter.to_f64_vec();
    let go = grad_out.to_f64_vec();
    let mut gx = vec![0.0f64; g.n * g.h * g.w * g.c_in];
    let batch_elems = g.h * g.w * g.c_in;
    if !gx.is_empty() {
        // Batches write disjoint regions of gx, so they run in parallel
        // with the per-batch loop untouched (bitwise equal to serial).
        let per_batch = g.oh * g.ow * g.kh * g.kw * g.c_in * g.c_out;
        let grain = if per_batch >= CONV_PAR_MADDS { 1 } else { g.n };
        par_fill_rows(&mut gx, batch_elems, grain, |bs, chunk| {
            for b in bs.clone() {
                let gxb = &mut chunk[(b - bs.start) * batch_elems..][..batch_elems];
                input_grad_batch(&f, &go, &g, b, gxb);
            }
        });
    }
    Ok(TensorData::from_f64_vec(filter.dtype(), gx, input_shape.clone()))
}

/// Accumulate one batch's input gradient into `gxb` (that batch's
/// `h*w*c_in` slice, already zeroed).
fn input_grad_batch(f: &[f64], go: &[f64], g: &Conv2dGeometry, b: usize, gxb: &mut [f64]) {
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
                    let xin = (iy as usize * g.w + ix as usize) * g.c_in;
                    let fin = (ky * g.kw + kx) * g.c_in;
                    let oout = ((b * g.oh + oy) * g.ow + ox) * g.c_out;
                    for ci in 0..g.c_in {
                        let frow = (fin + ci) * g.c_out;
                        let mut acc = 0.0;
                        for co in 0..g.c_out {
                            acc += go[oout + co] * f[frow + co];
                        }
                        gxb[xin + ci] += acc;
                    }
                }
            }
        }
    }
}

/// Gradient of [`conv2d`] with respect to its filter.
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
    let x = input.to_f64_vec();
    let go = grad_out.to_f64_vec();
    let flen = g.kh * g.kw * g.c_in * g.c_out;
    // All batches accumulate into the same filter gradient, so this is a
    // tree reduction over per-batch-group partials. Chunk boundaries are
    // fixed by (n, grain) and partials combine in ascending batch order —
    // deterministic for every thread count (though the grouping changes
    // the float sum versus the serial fold; parity tests use tolerance).
    let per_batch = g.oh * g.ow * g.kh * g.kw * g.c_in * g.c_out;
    let grain = if per_batch >= CONV_PAR_MADDS { 1 } else { g.n.max(1) };
    let gf = tfe_parallel::par_reduce(
        g.n,
        grain,
        |bs| {
            let mut part = vec![0.0f64; flen];
            for b in bs {
                filter_grad_batch(&x, &go, &g, b, &mut part);
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

/// Accumulate one batch's filter-gradient contribution into `gf`.
fn filter_grad_batch(x: &[f64], go: &[f64], g: &Conv2dGeometry, b: usize, gf: &mut [f64]) {
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
                    let xin = ((b * g.h + iy as usize) * g.w + ix as usize) * g.c_in;
                    let fin = (ky * g.kw + kx) * g.c_in;
                    let oout = ((b * g.oh + oy) * g.ow + ox) * g.c_out;
                    for ci in 0..g.c_in {
                        let xv = x[xin + ci];
                        let frow = (fin + ci) * g.c_out;
                        for co in 0..g.c_out {
                            gf[frow + co] += xv * go[oout + co];
                        }
                    }
                }
            }
        }
    }
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
