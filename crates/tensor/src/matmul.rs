//! Matrix multiplication: 2-D `matmul` with transpose flags and batched
//! matmul with broadcast batch dimensions.
//!
//! Products run on the register tiles of [`crate::gemm`]: those below
//! [`DIRECT_MADDS`] multiply-adds on the operands in place
//! ([`gemm_unpacked_into`]), the rest on packed panels ([`gemm_into`]),
//! where the packing absorbs the transposes and large products split
//! across the shared worker pool. Every result is bit-for-bit identical to
//! the serial reference loop regardless of path and thread count.

use crate::gemm::{gemm_into, gemm_unpacked_into, GemmScalar};
use crate::shape::{broadcast_strides, strided};
use crate::{DType, Result, Shape, TensorData, TensorError};

/// Multiply-adds per batch above which `batch_matmul` parallelizes inside
/// each product rather than across batches.
const BATCH_INNER_PAR_MADDS: usize = 1 << 18;

/// Multiply-adds below which a product reads its operands in place rather
/// than packing them (`kernel_bench`'s `small_matmul` row; DESIGN.md §9).
pub const DIRECT_MADDS: usize = 1 << 14;

/// Naive serial triple loop, kept as the reference implementation the
/// packed and unpacked tiles are tested against (`crates/tensor/src/gemm.rs`
/// tests and `tests/kernel_parity.rs`).
#[allow(clippy::too_many_arguments)]
pub fn matmul_reference<T: GemmScalar>(
    a: &[T],
    b: &[T],
    m: usize,
    k: usize,
    n: usize,
    ta: bool,
    tb: bool,
    out: &mut [T],
) {
    let a_at = |i: usize, p: usize| if ta { a[p * m + i] } else { a[i * k + p] };
    let b_at = |p: usize, j: usize| if tb { b[j * k + p] } else { b[p * n + j] };
    for i in 0..m {
        for j in 0..n {
            let mut acc = T::default();
            for p in 0..k {
                acc = acc + a_at(i, p) * b_at(p, j);
            }
            out[i * n + j] = acc;
        }
    }
}

/// 2-D matrix product `op(a) @ op(b)` where `op` optionally transposes.
///
/// Shapes: `a` is `(m, k)` (or `(k, m)` when `transpose_a`), `b` is `(k, n)`
/// (or `(n, k)` when `transpose_b`); the result is `(m, n)`.
///
/// # Errors
/// Non-rank-2 operands, dtype mismatch, non-float dtype, or inner-dimension
/// mismatch.
pub fn matmul(
    a: &TensorData,
    b: &TensorData,
    transpose_a: bool,
    transpose_b: bool,
) -> Result<TensorData> {
    let _sp = tfe_profile::span("intra", || "gemm");
    if a.shape().rank() != 2 || b.shape().rank() != 2 {
        return Err(TensorError::ShapeMismatch {
            expected: "rank-2 operands for matmul (use batch_matmul for higher ranks)".to_string(),
            got: if a.shape().rank() != 2 { a.shape().clone() } else { b.shape().clone() },
        });
    }
    check_float_pair(a, b)?;
    let (m, k1) = dims2(a, transpose_a);
    let (kb, n) = dims2(b, transpose_b);
    if k1 != kb {
        return Err(TensorError::ShapeMismatch {
            expected: format!("inner dimensions to match ({k1} vs {kb})"),
            got: b.shape().clone(),
        });
    }
    let shape = Shape::from([m, n]);
    match a.dtype() {
        DType::F32 => {
            products::<f32>(a, b, (&[0], &[0]), (m, k1, n), (transpose_a, transpose_b), shape)
        }
        DType::F64 => {
            products::<f64>(a, b, (&[0], &[0]), (m, k1, n), (transpose_a, transpose_b), shape)
        }
        _ => unreachable!("check_float_pair verified dtype"),
    }
}

/// The last two dimensions of `t` as `op` sees them.
fn dims2(t: &TensorData, transpose: bool) -> (usize, usize) {
    let d = t.shape().dims();
    let (rows, cols) = (d[d.len() - 2], d[d.len() - 1]);
    if transpose {
        (cols, rows)
    } else {
        (rows, cols)
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

/// Batched matmul over the last two dimensions, broadcasting leading batch
/// dimensions NumPy-style. Rank ≥ 2 on both operands.
///
/// # Errors
/// Rank < 2, dtype problems, inner-dimension mismatch, or batch dims that do
/// not broadcast.
pub fn batch_matmul(
    a: &TensorData,
    b: &TensorData,
    transpose_a: bool,
    transpose_b: bool,
) -> Result<TensorData> {
    if a.shape().rank() < 2 || b.shape().rank() < 2 {
        return Err(TensorError::ShapeMismatch {
            expected: "rank >= 2 operands for batch_matmul".to_string(),
            got: if a.shape().rank() < 2 { a.shape().clone() } else { b.shape().clone() },
        });
    }
    if a.shape().rank() == 2 && b.shape().rank() == 2 {
        return matmul(a, b, transpose_a, transpose_b);
    }
    check_float_pair(a, b)?;
    let ar = a.shape().rank();
    let br = b.shape().rank();
    let a_batch = Shape::new(a.shape().dims()[..ar - 2].to_vec());
    let b_batch = Shape::new(b.shape().dims()[..br - 2].to_vec());
    let batch = crate::shape::broadcast_shapes(&a_batch, &b_batch)?;
    let (m, k1) = dims2(a, transpose_a);
    let (kb, n) = dims2(b, transpose_b);
    if k1 != kb {
        return Err(TensorError::ShapeMismatch {
            expected: format!("inner dimensions to match ({k1} vs {kb})"),
            got: b.shape().clone(),
        });
    }
    let mut out_dims = batch.dims().to_vec();
    out_dims.extend_from_slice(&[m, n]);
    let walk = |src: &Shape| -> Vec<usize> {
        strided(batch.dims(), &broadcast_strides(&batch, src), 0).collect()
    };
    let walks = (&walk(&a_batch)[..], &walk(&b_batch)[..]);
    let flags = (transpose_a, transpose_b);
    match a.dtype() {
        DType::F32 => products::<f32>(a, b, walks, (m, k1, n), flags, Shape::new(out_dims)),
        DType::F64 => products::<f64>(a, b, walks, (m, k1, n), flags, Shape::new(out_dims)),
        _ => unreachable!("check_float_pair verified dtype"),
    }
}

/// `op(a) @ op(b)` for each batch `i` of the output `shape`: matrix `wa[i]`
/// of `a` times matrix `wb[i]` of `b`, on the operands in place below
/// [`DIRECT_MADDS`] and packed above. One product, or a few large ones,
/// keep the batch loop serial and parallelize inside each gemm; many small
/// products parallelize across batches (grain sized so each task has enough
/// work) and run each gemm serially. Either way every batch's result is the
/// same bits.
fn products<T: GemmScalar>(
    a: &TensorData,
    b: &TensorData,
    (wa, wb): (&[usize], &[usize]),
    (m, k, n): (usize, usize, usize),
    (ta, tb): (bool, bool),
    shape: Shape,
) -> Result<TensorData> {
    let (av, bv) = (a.as_slice::<T>()?, b.as_slice::<T>()?);
    let mut out = vec![T::default(); wa.len() * m * n];
    let per = m * n * k;
    let one = |i: usize, o: &mut [T], par: bool| {
        let (a, b) = (&av[wa[i] * m * k..][..m * k], &bv[wb[i] * k * n..][..k * n]);
        if per < DIRECT_MADDS {
            gemm_unpacked_into(m, k, n, a, ta, b, tb, o);
        } else {
            gemm_into(m, k, n, a, ta, b, tb, o, par);
        }
    };
    if per > 0 && (per >= BATCH_INNER_PAR_MADDS || wa.len() == 1) {
        for (i, o) in out.chunks_exact_mut(m * n).enumerate() {
            one(i, o, true);
        }
    } else if let Some(grain) = BATCH_INNER_PAR_MADDS.checked_div(per) {
        tfe_parallel::par_chunks_mut(&mut out, m * n, grain, |bs, block| {
            for (i, o) in bs.zip(block.chunks_exact_mut(m * n)) {
                one(i, o, false);
            }
        });
    }
    TensorData::from_vec(out, shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::each_seed;

    fn t(v: Vec<f32>, s: impl Into<Shape>) -> TensorData {
        TensorData::from_vec(v, s).unwrap()
    }

    #[test]
    fn identity_matmul() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let i = TensorData::eye(DType::F32, 2);
        assert_eq!(matmul(&a, &i, false, false).unwrap(), a);
        assert_eq!(matmul(&i, &a, false, false).unwrap(), a);
    }

    #[test]
    fn known_product() {
        // [[1,2],[3,4]] @ [[5,6],[7,8]] = [[19,22],[43,50]]
        let a = t(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let b = t(vec![5.0, 6.0, 7.0, 8.0], [2, 2]);
        let r = matmul(&a, &b, false, false).unwrap();
        assert_eq!(r.to_f64_vec(), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn rectangular() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let b = t(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], [3, 2]);
        let r = matmul(&a, &b, false, false).unwrap();
        assert_eq!(r.shape().dims(), &[2, 2]);
        assert_eq!(r.to_f64_vec(), vec![4.0, 5.0, 10.0, 11.0]);
    }

    #[test]
    fn transpose_flags_consistent() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let b = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [3, 2]);
        let plain = matmul(&a, &b, false, false).unwrap();
        // a^T has shape (3,2); (a^T)^T @ b == a @ b
        let at = crate::shape_ops::transpose(&a, &[1, 0]).unwrap();
        let via_ta = matmul(&at, &b, true, false).unwrap();
        assert_eq!(plain, via_ta);
        let bt = crate::shape_ops::transpose(&b, &[1, 0]).unwrap();
        let via_tb = matmul(&a, &bt, false, true).unwrap();
        assert_eq!(plain, via_tb);
        let via_both = matmul(&at, &bt, true, true).unwrap();
        assert_eq!(plain, via_both);
    }

    #[test]
    fn inner_dim_mismatch() {
        let a = t(vec![0.0; 6], [2, 3]);
        let b = t(vec![0.0; 8], [4, 2]);
        assert!(matmul(&a, &b, false, false).is_err());
    }

    #[test]
    fn int_matmul_rejected() {
        let a = TensorData::zeros(DType::I32, [2, 2]);
        assert!(matmul(&a, &a, false, false).is_err());
    }

    #[test]
    fn batch_matmul_basic() {
        // Two batches of 2x2 identity times a.
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], [2, 2, 2]);
        let eye2 = TensorData::eye(DType::F32, 2);
        let i = crate::shape_ops::tile(&eye2.with_shape([1, 2, 2]).unwrap(), &[2, 1, 1]).unwrap();
        let r = batch_matmul(&a, &i, false, false).unwrap();
        assert_eq!(r, a);
    }

    #[test]
    fn batch_matmul_broadcasts_batch_dims() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], [2, 2, 2]);
        let b = TensorData::eye(DType::F32, 2).with_shape([1, 2, 2]).unwrap();
        let r = batch_matmul(&a, &b, false, false).unwrap();
        assert_eq!(r.shape().dims(), &[2, 2, 2]);
        assert_eq!(r, a);
    }

    #[test]
    fn batch_matmul_rank2_falls_back() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let b = TensorData::eye(DType::F32, 2);
        assert_eq!(batch_matmul(&a, &b, false, false).unwrap(), a);
    }

    #[test]
    fn matmul_matches_naive() {
        each_seed(64, |rng| {
            let (m, k, n) = (rng.range(1..4), rng.range(1..4), rng.range(1..4));
            let mut next = || rng.f64() - 0.5;
            let av: Vec<f64> = (0..m * k).map(|_| next()).collect();
            let bv: Vec<f64> = (0..k * n).map(|_| next()).collect();
            let a = TensorData::from_vec(av.clone(), Shape::from([m, k])).unwrap();
            let b = TensorData::from_vec(bv.clone(), Shape::from([k, n])).unwrap();
            let r = matmul(&a, &b, false, false).unwrap();
            for i in 0..m {
                for j in 0..n {
                    let acc: f64 = (0..k).map(|p| av[i * k + p] * bv[p * n + j]).sum();
                    assert!((r.get_f64(&[i, j]).unwrap() - acc).abs() < 1e-9);
                }
            }
        });
    }

    #[test]
    fn matmul_left_distributes() {
        each_seed(64, |rng| {
            let (m, k, n) = (3, 2, 3);
            let mut t = |rows: usize, cols: usize| {
                let v: Vec<f64> = (0..rows * cols).map(|_| rng.f64() - 0.5).collect();
                TensorData::from_vec(v, Shape::from([rows, cols])).unwrap()
            };
            let (a, b, c) = (t(m, k), t(k, n), t(k, n));
            let add = |x: &TensorData, y: &TensorData| {
                crate::elementwise::binary(x, y, crate::elementwise::BinaryOp::Add).unwrap()
            };
            let lhs = matmul(&a, &add(&b, &c), false, false).unwrap();
            let ab = matmul(&a, &b, false, false).unwrap();
            let ac = matmul(&a, &c, false, false).unwrap();
            assert!(lhs.all_close(&add(&ab, &ac), 1e-9, 1e-9));
        });
    }
}
