//! Softmax, log-softmax and softmax cross-entropy kernels (last axis),
//! implemented with the usual max-subtraction stabilization.
//!
//! Rows are independent, so the forward kernels split row blocks across
//! the shared worker pool; per-row math depends only on the row itself,
//! making results bit-for-bit identical for every thread count. Within a
//! row, the max and the normalizer fold through
//! [`crate::lanes::lane_fold_f64`]'s fixed 8-lane order: the row max is
//! value-exact (NaN-free inputs), while the exp-sum is reassociated
//! relative to a strict left fold (tolerance mode — see DESIGN.md
//! "Exactness policy").

use crate::par::GRAIN_ROWS;
use crate::{Result, Shape, TensorData, TensorError};
use tfe_parallel::par_chunks_mut;

fn check_float_min_rank(a: &TensorData, min_rank: usize) -> Result<(usize, usize)> {
    if !a.dtype().is_float() {
        return Err(TensorError::DTypeMismatch {
            expected: "a float dtype".to_string(),
            got: a.dtype(),
        });
    }
    if a.shape().rank() < min_rank {
        return Err(TensorError::ShapeMismatch {
            expected: format!("rank >= {min_rank}"),
            got: a.shape().clone(),
        });
    }
    let rank = a.shape().rank();
    let classes = a.shape().dim(rank - 1);
    let rows = a.num_elements() / classes.max(1);
    Ok((rows, classes))
}

/// Softmax over the last axis.
///
/// # Errors
/// Non-float input or rank 0.
pub fn softmax(a: &TensorData) -> Result<TensorData> {
    let (rows, classes) = check_float_min_rank(a, 1)?;
    let x = a.to_f64_vec();
    let mut out = vec![0.0f64; x.len()];
    if classes > 0 && rows > 0 {
        par_chunks_mut(&mut out, classes, GRAIN_ROWS, |rs, chunk| {
            for (ri, orow) in rs.zip(chunk.chunks_exact_mut(classes)) {
                let row = &x[ri * classes..(ri + 1) * classes];
                let m = crate::lanes::lane_fold_f64(row, f64::NEG_INFINITY, f64::max);
                for (o, &v) in orow.iter_mut().zip(row) {
                    *o = (v - m).exp();
                }
                let z = crate::lanes::lane_fold_f64(orow, 0.0, |a, b| a + b);
                for o in orow.iter_mut() {
                    *o /= z;
                }
            }
        });
    }
    Ok(TensorData::from_f64_vec(a.dtype(), out, a.shape().clone()))
}

/// Log-softmax over the last axis.
///
/// # Errors
/// Non-float input or rank 0.
pub fn log_softmax(a: &TensorData) -> Result<TensorData> {
    let (rows, classes) = check_float_min_rank(a, 1)?;
    let x = a.to_f64_vec();
    let mut out = vec![0.0f64; x.len()];
    if classes > 0 && rows > 0 {
        par_chunks_mut(&mut out, classes, GRAIN_ROWS, |rs, chunk| {
            for (ri, orow) in rs.zip(chunk.chunks_exact_mut(classes)) {
                let row = &x[ri * classes..(ri + 1) * classes];
                let m = crate::lanes::lane_fold_f64(row, f64::NEG_INFINITY, f64::max);
                // Stage the exp terms in the output row so the normalizer
                // can fold them in the fixed lane order.
                for (o, &v) in orow.iter_mut().zip(row) {
                    *o = (v - m).exp();
                }
                let z = crate::lanes::lane_fold_f64(orow, 0.0, |a, b| a + b);
                let lse = m + z.ln();
                for (o, &v) in orow.iter_mut().zip(row) {
                    *o = v - lse;
                }
            }
        });
    }
    Ok(TensorData::from_f64_vec(a.dtype(), out, a.shape().clone()))
}

/// Sparse softmax cross-entropy with integer labels.
///
/// `logits` is `(batch..., classes)`; `labels` holds class indices with
/// shape `(batch...)`. Returns per-example losses of shape `(batch...)` and
/// is paired with [`softmax_xent_grad`] for the backward pass.
///
/// # Errors
/// Dtype/shape mismatches or out-of-range labels.
pub fn sparse_softmax_xent(logits: &TensorData, labels: &TensorData) -> Result<TensorData> {
    let (rows, classes) = check_float_min_rank(logits, 1)?;
    if !labels.dtype().is_int() {
        return Err(TensorError::DTypeMismatch {
            expected: "an integer dtype for labels".to_string(),
            got: labels.dtype(),
        });
    }
    let expected_label_dims = &logits.shape().dims()[..logits.shape().rank() - 1];
    if labels.shape().dims() != expected_label_dims {
        return Err(TensorError::ShapeMismatch {
            expected: format!("labels shape {:?}", expected_label_dims),
            got: labels.shape().clone(),
        });
    }
    let ls = log_softmax(logits)?;
    let lsv = ls.to_f64_vec();
    let lbl = labels.to_i64_vec();
    let mut out = Vec::with_capacity(rows);
    for r in 0..rows {
        let c = lbl[r];
        if c < 0 || c as usize >= classes {
            return Err(TensorError::InvalidArgument(format!(
                "label {c} out of range for {classes} classes"
            )));
        }
        out.push(-lsv[r * classes + c as usize]);
    }
    Ok(TensorData::from_f64_vec(logits.dtype(), out, Shape::new(expected_label_dims.to_vec())))
}

/// Gradient of [`sparse_softmax_xent`] with respect to the logits:
/// `(softmax(logits) - one_hot(labels)) * grad_loss[..., None]`.
///
/// # Errors
/// Same conditions as the forward kernel.
pub fn softmax_xent_grad(
    logits: &TensorData,
    labels: &TensorData,
    grad_loss: &TensorData,
) -> Result<TensorData> {
    let (rows, classes) = check_float_min_rank(logits, 1)?;
    let sm = softmax(logits)?;
    let mut g = sm.to_f64_vec();
    let lbl = labels.to_i64_vec();
    let gl = grad_loss.to_f64_vec();
    if gl.len() != rows {
        return Err(TensorError::ShapeMismatch {
            expected: format!("{rows} per-example loss gradients"),
            got: grad_loss.shape().clone(),
        });
    }
    for r in 0..rows {
        let c = lbl[r];
        if c < 0 || c as usize >= classes {
            return Err(TensorError::InvalidArgument(format!(
                "label {c} out of range for {classes} classes"
            )));
        }
        g[r * classes + c as usize] -= 1.0;
        for j in 0..classes {
            g[r * classes + j] *= gl[r];
        }
    }
    Ok(TensorData::from_f64_vec(logits.dtype(), g, logits.shape().clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::each_seed;
    use crate::DType;

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = TensorData::from_vec(vec![1.0f64, 2.0, 3.0, 1.0, 1.0, 1.0], Shape::from([2, 3]))
            .unwrap();
        let s = softmax(&a).unwrap();
        let v = s.to_f64_vec();
        assert!((v[0] + v[1] + v[2] - 1.0).abs() < 1e-12);
        assert!((v[3] - 1.0 / 3.0).abs() < 1e-12);
        assert!(v[2] > v[1] && v[1] > v[0]);
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let a = TensorData::from_vec(vec![1000.0f64, 1001.0], Shape::from([2])).unwrap();
        let s = softmax(&a).unwrap().to_f64_vec();
        assert!(s.iter().all(|v| v.is_finite()));
        assert!((s[0] + s[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let a = TensorData::from_vec(vec![0.5f64, -1.0, 2.0], Shape::from([3])).unwrap();
        let s = softmax(&a).unwrap().to_f64_vec();
        let ls = log_softmax(&a).unwrap().to_f64_vec();
        for (p, lp) in s.iter().zip(&ls) {
            assert!((p.ln() - lp).abs() < 1e-10);
        }
    }

    #[test]
    fn xent_uniform_logits() {
        let logits = TensorData::zeros(DType::F64, [2, 4]);
        let labels = TensorData::from_vec(vec![0i64, 3], Shape::from([2])).unwrap();
        let loss = sparse_softmax_xent(&logits, &labels).unwrap();
        for v in loss.to_f64_vec() {
            assert!((v - 4.0f64.ln()).abs() < 1e-12);
        }
    }

    #[test]
    fn xent_label_validation() {
        let logits = TensorData::zeros(DType::F64, [1, 3]);
        let bad = TensorData::from_vec(vec![3i64], Shape::from([1])).unwrap();
        assert!(sparse_softmax_xent(&logits, &bad).is_err());
        let wrong_shape = TensorData::from_vec(vec![0i64, 1], Shape::from([2])).unwrap();
        assert!(sparse_softmax_xent(&logits, &wrong_shape).is_err());
        let float_labels = TensorData::zeros(DType::F32, [1]);
        assert!(sparse_softmax_xent(&logits, &float_labels).is_err());
    }

    #[test]
    fn xent_grad_finite_difference() {
        let xs = vec![0.3f64, -0.7, 1.2, 0.0, 0.5, -0.1];
        let logits = TensorData::from_vec(xs.clone(), Shape::from([2, 3])).unwrap();
        let labels = TensorData::from_vec(vec![2i64, 0], Shape::from([2])).unwrap();
        let ones = TensorData::ones(DType::F64, [2]);
        let g = softmax_xent_grad(&logits, &labels, &ones).unwrap();
        let loss_sum = |l: &TensorData| -> f64 {
            sparse_softmax_xent(l, &labels).unwrap().to_f64_vec().iter().sum()
        };
        let eps = 1e-6;
        for i in 0..xs.len() {
            let mut xp = xs.clone();
            xp[i] += eps;
            let lp = TensorData::from_vec(xp, Shape::from([2, 3])).unwrap();
            let num = (loss_sum(&lp) - loss_sum(&logits)) / eps;
            assert!((num - g.get_f64_linear(i)).abs() < 1e-5, "logit {i}");
        }
    }

    #[test]
    fn xent_grad_rows_sum_to_zero() {
        let logits =
            TensorData::from_vec(vec![0.3f64, -0.7, 1.2, 0.0, 0.5, -0.1], Shape::from([2, 3]))
                .unwrap();
        let labels = TensorData::from_vec(vec![1i64, 2], Shape::from([2])).unwrap();
        let ones = TensorData::ones(DType::F64, [2]);
        let g = softmax_xent_grad(&logits, &labels, &ones).unwrap().to_f64_vec();
        assert!((g[0] + g[1] + g[2]).abs() < 1e-12);
        assert!((g[3] + g[4] + g[5]).abs() < 1e-12);
    }

    #[test]
    fn softmax_invariant_to_shift() {
        each_seed(64, |rng| {
            let xs: Vec<f64> = (0..4).map(|_| rng.range(-5.0..5.0)).collect();
            let c = rng.range(-10.0..10.0);
            let a = TensorData::from_vec(xs.clone(), Shape::from([4])).unwrap();
            let shifted: Vec<f64> = xs.iter().map(|v| v + c).collect();
            let shifted = TensorData::from_vec(shifted, Shape::from([4])).unwrap();
            let s1 = softmax(&a).unwrap();
            let s2 = softmax(&shifted).unwrap();
            assert!(s1.all_close(&s2, 1e-9, 1e-9));
        });
    }

    #[test]
    fn softmax_outputs_are_probabilities() {
        each_seed(64, |rng| {
            let n = rng.range(1..8);
            let xs: Vec<f64> = (0..n).map(|_| rng.range(-20.0..20.0)).collect();
            let a = TensorData::from_vec(xs, Shape::from([n])).unwrap();
            let s = softmax(&a).unwrap().to_f64_vec();
            let total: f64 = s.iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
            assert!(s.iter().all(|&p| (0.0..=1.0).contains(&p)));
        });
    }
}
