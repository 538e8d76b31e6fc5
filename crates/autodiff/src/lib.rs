//! # tfe-autodiff
//!
//! Tape-based reverse-mode automatic differentiation (§4.2 of the
//! TensorFlow Eager paper): the user-visible [`GradientTape`], a gradient
//! registry covering every differentiable primitive op, and the backprop
//! accumulator. Gradient computations are expressed in primitive ops
//! executed through the shared dispatcher, so they can be nested (tapes
//! watching tapes → higher-order derivatives) and staged (traced into graph
//! functions by `tfe-core`).
//!
//! ```
//! use tfe_autodiff::GradientTape;
//! use tfe_runtime::{api, Variable};
//! use tfe_tensor::TensorData;
//! # fn main() -> Result<(), tfe_runtime::RuntimeError> {
//! // Listing 2: variables are watched automatically.
//! let x = Variable::new(TensorData::scalar(3.0f32));
//! let tape = GradientTape::new();
//! let xv = x.read()?;
//! let y = api::mul(&xv, &xv)?;
//! let grads = tape.gradient_vars(&y, &[&x])?;
//! assert_eq!(grads[0].as_ref().unwrap().scalar_f64()?, 6.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod backprop;
pub mod registry;
mod tape_api;

pub use backprop::{accumulate, accumulate_many};
pub use registry::{gradient_fn, install_staged_gradients, GradCtx, GradFn};
pub use tape_api::{value_and_grad, GradientTape};

#[cfg(test)]
mod tests {
    use super::*;
    use tfe_runtime::{api, Variable};
    use tfe_tensor::{DType, TensorData};

    #[test]
    fn variables_auto_watched() {
        // Listing 2 without explicit watch calls.
        let x = Variable::new(TensorData::scalar(3.0f32));
        let t1 = GradientTape::new();
        let t2 = GradientTape::new();
        let xv = x.read().unwrap();
        let y = api::mul(&xv, &xv).unwrap();
        let dy = t2.gradient_vars(&y, &[&x]).unwrap();
        let dy = dy[0].clone().unwrap();
        assert_eq!(dy.scalar_f64().unwrap(), 6.0);
        let d2y = t1.gradient_vars(&dy, &[&x]).unwrap();
        assert_eq!(d2y[0].clone().unwrap().scalar_f64().unwrap(), 2.0);
    }

    #[test]
    fn multiple_reads_accumulate() {
        // y = read(v) * read(v): two separate reads, one variable gradient.
        let v = Variable::new(TensorData::scalar(4.0f64));
        let tape = GradientTape::new();
        let a = v.read().unwrap();
        let b = v.read().unwrap();
        let y = api::mul(&a, &b).unwrap();
        let g = tape.gradient_vars(&y, &[&v]).unwrap();
        assert_eq!(g[0].clone().unwrap().scalar_f64().unwrap(), 8.0);
    }

    #[test]
    fn matmul_gradient_matches_formula() {
        // y = sum(A @ B): dA = ones @ B^T, dB = A^T @ ones
        let a = api::constant(vec![1.0f64, 2.0, 3.0, 4.0], [2, 2]).unwrap();
        let b = api::constant(vec![5.0f64, 6.0, 7.0, 8.0], [2, 2]).unwrap();
        let tape = GradientTape::new();
        tape.watch(&a);
        tape.watch(&b);
        let y = api::matmul(&a, &b).unwrap();
        let loss = api::reduce_sum(&y, &[], false).unwrap();
        let grads = tape.gradient(&loss, &[&a, &b]).unwrap();
        let ga = grads[0].clone().unwrap();
        let gb = grads[1].clone().unwrap();
        assert_eq!(ga.to_f64_vec().unwrap(), vec![11.0, 15.0, 11.0, 15.0]);
        assert_eq!(gb.to_f64_vec().unwrap(), vec![4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn broadcast_gradients_reduce() {
        // y = sum(a + b) with a: (2,3), b: (3,). db must be summed over rows.
        let a = api::zeros(DType::F64, [2, 3]);
        let b = api::zeros(DType::F64, [3]);
        let tape = GradientTape::new();
        tape.watch(&a);
        tape.watch(&b);
        let y = api::reduce_sum(&api::add(&a, &b).unwrap(), &[], false).unwrap();
        let grads = tape.gradient(&y, &[&a, &b]).unwrap();
        assert_eq!(grads[0].clone().unwrap().shape().unwrap().dims(), &[2, 3]);
        let gb = grads[1].clone().unwrap();
        assert_eq!(gb.shape().unwrap().dims(), &[3]);
        assert_eq!(gb.to_f64_vec().unwrap(), vec![2.0, 2.0, 2.0]);
    }

    fn finite_diff_check(
        f: impl Fn(&tfe_runtime::Tensor) -> tfe_runtime::Tensor,
        xs: Vec<f64>,
        tol: f64,
    ) {
        let n = xs.len();
        let x = api::constant(xs.clone(), [n]).unwrap();
        let tape = GradientTape::new();
        tape.watch(&x);
        let y = f(&x);
        let loss = api::reduce_sum(&y, &[], false).unwrap();
        let g = tape.gradient1(&loss, &x).unwrap().to_f64_vec().unwrap();
        let eps = 1e-6;
        let base: f64 = {
            let y = f(&api::constant(xs.clone(), [n]).unwrap());
            api::reduce_sum(&y, &[], false).unwrap().scalar_f64().unwrap()
        };
        for i in 0..n {
            let mut xp = xs.clone();
            xp[i] += eps;
            let yp = f(&api::constant(xp, [n]).unwrap());
            let lp = api::reduce_sum(&yp, &[], false).unwrap().scalar_f64().unwrap();
            let fd = (lp - base) / eps;
            assert!((fd - g[i]).abs() < tol, "element {i}: fd={fd} analytic={}", g[i]);
        }
    }

    #[test]
    fn finite_differences_unary_suite() {
        let xs = vec![0.3, -0.7, 1.2, 0.01, -1.5];
        finite_diff_check(|x| api::sigmoid(x).unwrap(), xs.clone(), 1e-4);
        finite_diff_check(|x| api::tanh(x).unwrap(), xs.clone(), 1e-4);
        finite_diff_check(|x| api::exp(x).unwrap(), xs.clone(), 1e-4);
        finite_diff_check(|x| api::softplus(x).unwrap(), xs.clone(), 1e-4);
        finite_diff_check(|x| api::square(x).unwrap(), xs.clone(), 1e-4);
        finite_diff_check(|x| api::sin(x).unwrap(), xs.clone(), 1e-4);
        finite_diff_check(|x| api::cos(x).unwrap(), xs.clone(), 1e-4);
        finite_diff_check(|x| api::erf(x).unwrap(), xs.clone(), 1e-4);
        finite_diff_check(|x| api::abs(x).unwrap(), xs, 1e-4);
    }

    #[test]
    fn finite_differences_positive_domain() {
        let xs = vec![0.5, 1.3, 2.0, 0.1];
        finite_diff_check(|x| api::log(x).unwrap(), xs.clone(), 1e-4);
        finite_diff_check(|x| api::sqrt(x).unwrap(), xs.clone(), 1e-4);
        finite_diff_check(|x| api::rsqrt(x).unwrap(), xs.clone(), 1e-3);
        finite_diff_check(|x| api::reciprocal(x).unwrap(), xs, 1e-3);
    }

    #[test]
    fn finite_differences_softmax() {
        let xs = vec![0.3, -0.7, 1.2];
        // softmax composed with a weighting so the gradient is non-trivial.
        finite_diff_check(
            |x| {
                let s = api::softmax(x).unwrap();
                api::mul(&s, &s).unwrap()
            },
            xs,
            1e-4,
        );
    }

    #[test]
    fn reduce_mean_gradient() {
        let x = api::constant(vec![1.0f64, 2.0, 3.0, 4.0], [2, 2]).unwrap();
        let tape = GradientTape::new();
        tape.watch(&x);
        let y = api::reduce_mean(&x, &[], false).unwrap();
        let g = tape.gradient1(&y, &x).unwrap();
        assert_eq!(g.to_f64_vec().unwrap(), vec![0.25; 4]);
    }

    #[test]
    fn reduce_max_gradient_splits_ties() {
        let x = api::constant(vec![3.0f64, 1.0, 3.0], [3]).unwrap();
        let tape = GradientTape::new();
        tape.watch(&x);
        let y = api::reduce_max(&x, &[], false).unwrap();
        let g = tape.gradient1(&y, &x).unwrap();
        assert_eq!(g.to_f64_vec().unwrap(), vec![0.5, 0.0, 0.5]);
    }

    #[test]
    fn gather_and_concat_gradients() {
        let x = api::constant(vec![1.0f64, 2.0, 3.0, 4.0], [4]).unwrap();
        let tape = GradientTape::persistent();
        tape.watch(&x);
        let idx = api::constant(vec![1i64, 1, 3], [3]).unwrap();
        let g1 = api::gather(&x, &idx, 0).unwrap();
        let loss = api::reduce_sum(&g1, &[], false).unwrap();
        let g = tape.gradient1(&loss, &x).unwrap();
        assert_eq!(g.to_f64_vec().unwrap(), vec![0.0, 2.0, 0.0, 1.0]);

        let c = api::concat(&[&x, &x], 0).unwrap();
        let loss2 = api::reduce_sum(&c, &[], false).unwrap();
        let g2 = tape.gradient1(&loss2, &x).unwrap();
        assert_eq!(g2.to_f64_vec().unwrap(), vec![2.0; 4]);
    }

    #[test]
    fn slice_pad_reshape_gradients() {
        let x = api::constant(vec![1.0f64, 2.0, 3.0, 4.0], [4]).unwrap();
        let tape = GradientTape::persistent();
        tape.watch(&x);
        let s = api::slice(&x, &[1], &[2]).unwrap();
        let l = api::reduce_sum(&s, &[], false).unwrap();
        assert_eq!(tape.gradient1(&l, &x).unwrap().to_f64_vec().unwrap(), vec![0.0, 1.0, 1.0, 0.0]);
        let p = api::pad(&x, &[(2, 1)], 0.0).unwrap();
        let l2 = api::reduce_sum(&p, &[], false).unwrap();
        assert_eq!(tape.gradient1(&l2, &x).unwrap().to_f64_vec().unwrap(), vec![1.0; 4]);
        let r = api::reshape(&x, &[2, 2]).unwrap();
        let l3 = api::reduce_sum(&api::mul(&r, &r).unwrap(), &[], false).unwrap();
        assert_eq!(
            tape.gradient1(&l3, &x).unwrap().to_f64_vec().unwrap(),
            vec![2.0, 4.0, 6.0, 8.0]
        );
    }

    #[test]
    fn conv_and_pool_gradients_shapes() {
        let x = api::constant((0..32).map(|i| i as f64 * 0.1).collect::<Vec<_>>(), [1, 4, 4, 2])
            .unwrap();
        let f = api::constant((0..16).map(|i| i as f64 * 0.05).collect::<Vec<_>>(), [2, 2, 2, 2])
            .unwrap();
        let tape = GradientTape::new();
        tape.watch(&x);
        tape.watch(&f);
        let y = api::conv2d(&x, &f, (1, 1), "VALID").unwrap();
        let p = api::max_pool(&y, (2, 2), (2, 2), "VALID").unwrap();
        let loss = api::reduce_sum(&p, &[], false).unwrap();
        let grads = tape.gradient(&loss, &[&x, &f]).unwrap();
        assert_eq!(grads[0].clone().unwrap().shape().unwrap().dims(), &[1, 4, 4, 2]);
        assert_eq!(grads[1].clone().unwrap().shape().unwrap().dims(), &[2, 2, 2, 2]);
    }

    #[test]
    fn xent_gradient_shape_and_sign() {
        let logits = api::constant(vec![2.0f64, 0.5, -1.0], [1, 3]).unwrap();
        let labels = api::constant(vec![0i64], [1]).unwrap();
        let tape = GradientTape::new();
        tape.watch(&logits);
        let loss_vec = api::sparse_softmax_xent(&logits, &labels).unwrap();
        let loss = api::reduce_sum(&loss_vec, &[], false).unwrap();
        let g = tape.gradient1(&loss, &logits).unwrap();
        let v = g.to_f64_vec().unwrap();
        assert!(v[0] < 0.0); // correct class pushed up
        assert!(v[1] > 0.0 && v[2] > 0.0);
        assert!((v.iter().sum::<f64>()).abs() < 1e-10);
    }

    #[test]
    fn third_derivative() {
        // f = x^4; f''' = 24x -> at x=2: 48
        let x = api::scalar(2.0f64);
        let t1 = GradientTape::new();
        t1.watch(&x);
        let t2 = GradientTape::new();
        t2.watch(&x);
        let t3 = GradientTape::new();
        t3.watch(&x);
        let x2 = api::square(&x).unwrap();
        let y = api::square(&x2).unwrap();
        let d1 = t3.gradient1(&y, &x).unwrap(); // 4x^3 = 32
        let d2 = t2.gradient1(&d1, &x).unwrap(); // 12x^2 = 48
        let d3 = t1.gradient1(&d2, &x).unwrap(); // 24x = 48
        assert_eq!(d1.scalar_f64().unwrap(), 32.0);
        assert_eq!(d2.scalar_f64().unwrap(), 48.0);
        assert_eq!(d3.scalar_f64().unwrap(), 48.0);
    }

    #[test]
    fn host_func_differentiable_eagerly() {
        // §4.7: wrapping in host_func has "essentially no effect" eagerly —
        // gradients flow through the closure's internal ops.
        let f: tfe_runtime::context::HostFn = std::sync::Arc::new(|xs| {
            let x = &xs[0];
            api::mul(x, x).map(|t| vec![t])
        });
        let x = api::scalar(3.0f64);
        let tape = GradientTape::new();
        tape.watch(&x);
        let params = tfe_ops::Params::HostFunc {
            closure: tfe_runtime::context::host_fn_handle(f),
            outputs: vec![(DType::F64, tfe_ops::SymShape::scalar())],
        };
        let y =
            tfe_runtime::context::execute(tfe_ops::Op::HostFunc, std::slice::from_ref(&x), params)
                .unwrap()
                .remove(0);
        assert_eq!(y.scalar_f64().unwrap(), 9.0);
        let g = tape.gradient1(&y, &x).unwrap();
        assert_eq!(g.scalar_f64().unwrap(), 6.0);
    }
}

#[cfg(test)]
mod lazy_zero_tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Arc;
    use tfe_ops::{Op, Params};
    use tfe_runtime::{api, context, TapeRecord, Tensor};
    use tfe_tensor::DType;

    fn ones(n: usize) -> Tensor {
        api::ones(DType::F64, [n])
    }

    #[test]
    fn grad_makes_a_zero_once_and_only_when_asked() {
        let x = api::constant(vec![1.0f64, 2.0, 3.0, 4.0], [4]).unwrap();
        let parts = api::split(&x, 4, 0).unwrap();
        let params = Params::Split { num: 4, axis: 0 };
        let record = TapeRecord::new(Op::Split, params, std::slice::from_ref(&x), &parts);
        let grads = [None, Some(api::constant(vec![3.0f64], [1]).unwrap()), None, None];
        let ctx = GradCtx::new(&record, &grads);
        assert_eq!(ctx.grad(1).unwrap().id(), grads[1].as_ref().unwrap().id());
        let zero = ctx.grad(0).unwrap();
        assert_eq!(zero.to_f64_vec().unwrap(), vec![0.0]);
        assert_eq!(ctx.grad(0).unwrap().id(), zero.id(), "the zero is made once");
        assert!(ctx.grad(4).is_err());
        // `split` asks for all four: three zeros around the one gradient.
        let dx = gradient_fn(Op::Split).unwrap()(&ctx).unwrap().remove(0).unwrap();
        assert_eq!(dx.to_f64_vec().unwrap(), vec![0.0, 3.0, 0.0, 0.0]);
    }

    #[test]
    fn split_with_one_used_output_through_a_tape() {
        let x = api::constant(vec![1.0f64, 2.0, 3.0, 4.0], [4]).unwrap();
        let tape = GradientTape::new();
        tape.watch(&x);
        let parts = api::split(&x, 4, 0).unwrap();
        let y = api::mul(&parts[2], &api::scalar(5.0f64)).unwrap();
        let g = tape.gradient1(&api::reduce_sum(&y, &[], false).unwrap(), &x).unwrap();
        assert_eq!(g.to_f64_vec().unwrap(), vec![0.0, 0.0, 5.0, 0.0]);
    }

    #[test]
    fn host_func_with_one_used_output_gets_a_zero_for_the_other() {
        // Eagerly a host closure is pass-through and never recorded; the
        // record below is what a staged backward is built from.
        let f: context::HostFn = Arc::new(|xs| {
            Ok(vec![api::mul(&xs[0], &api::scalar(2.0f64))?, api::mul(&xs[0], &xs[0])?])
        });
        let x = api::constant(vec![1.0f64, 3.0], [2]).unwrap();
        let outputs = f(std::slice::from_ref(&x)).unwrap();
        let record = Arc::new(TapeRecord::new(
            Op::HostFunc,
            Params::HostFunc {
                closure: context::host_fn_handle(f),
                outputs: outputs.iter().map(|t| (t.dtype(), t.sym_shape())).collect(),
            },
            std::slice::from_ref(&x),
            &outputs,
        ));
        // Only x*x carries a gradient: d/dx = 2x, and 0 from the silent 2x.
        let seeds = HashMap::from([(outputs[1].id(), ones(2))]);
        let grads = accumulate_many(&[record], seeds).unwrap();
        assert_eq!(grads[&x.id()].to_f64_vec().unwrap(), vec![2.0, 6.0]);
    }

    #[test]
    fn record_without_any_output_gradient_is_skipped() {
        // `while_loop` has no gradient function: reaching it would fail.
        let x = api::scalar(1.0f64);
        let y = api::scalar(2.0f64);
        let dead = Arc::new(TapeRecord::new(
            Op::WhileLoop,
            Params::None,
            std::slice::from_ref(&x),
            std::slice::from_ref(&y),
        ));
        let live = api::neg(&x).unwrap();
        let record = Arc::new(TapeRecord::new(
            Op::Unary(tfe_ops::UnaryOp::Neg),
            Params::None,
            std::slice::from_ref(&x),
            std::slice::from_ref(&live),
        ));
        let seeds = HashMap::from([(live.id(), api::scalar(1.0f64))]);
        let grads = accumulate_many(&[dead.clone(), record], seeds).unwrap();
        assert_eq!(grads[&x.id()].scalar_f64().unwrap(), -1.0);
        let seeds = HashMap::from([(y.id(), api::scalar(1.0f64))]);
        assert!(accumulate_many(&[dead], seeds).is_err(), "with a gradient it is reached");
    }
}

#[cfg(test)]
mod extended_gradient_tests {
    use super::*;
    use tfe_runtime::api;

    #[test]
    fn cumsum_gradient_matches_finite_difference() {
        let xs = vec![0.5f64, -1.0, 2.0, 0.3];
        let x = api::constant(xs.clone(), [4]).unwrap();
        let w = api::constant(vec![1.0f64, 2.0, 3.0, 4.0], [4]).unwrap();
        let tape = GradientTape::new();
        tape.watch(&x);
        // loss = sum(w * cumsum(x)) so the gradient is non-uniform.
        let loss =
            api::reduce_sum(&api::mul(&w, &api::cumsum(&x, 0).unwrap()).unwrap(), &[], false)
                .unwrap();
        let g = tape.gradient1(&loss, &x).unwrap().to_f64_vec().unwrap();
        // d/dx_i = sum_{j >= i} w_j (suffix sums of w).
        assert_eq!(g, vec![10.0, 9.0, 7.0, 4.0]);
    }

    #[test]
    fn reverse_gradient_is_reverse() {
        let x = api::constant(vec![1.0f64, 2.0, 3.0], [3]).unwrap();
        let w = api::constant(vec![1.0f64, 10.0, 100.0], [3]).unwrap();
        let tape = GradientTape::new();
        tape.watch(&x);
        let loss =
            api::reduce_sum(&api::mul(&w, &api::reverse(&x, 0).unwrap()).unwrap(), &[], false)
                .unwrap();
        let g = tape.gradient1(&loss, &x).unwrap().to_f64_vec().unwrap();
        assert_eq!(g, vec![100.0, 10.0, 1.0]);
    }

    #[test]
    fn batch_matmul_transposed_gradients() {
        // Finite-difference check for every transpose combination.
        let a_dims = |ta: bool| if ta { [2usize, 3, 2] } else { [2usize, 2, 3] };
        let b_dims = |tb: bool| if tb { [2usize, 4, 3] } else { [2usize, 3, 4] };
        for (ta, tb) in [(false, false), (true, false), (false, true), (true, true)] {
            let na: usize = a_dims(ta).iter().product();
            let nb: usize = b_dims(tb).iter().product();
            let av: Vec<f64> = (0..na).map(|i| (i as f64) * 0.1 - 0.5).collect();
            let bv: Vec<f64> = (0..nb).map(|i| (i as f64) * 0.07 - 0.4).collect();
            let make = |av: &[f64], bv: &[f64]| {
                let a = api::constant(av.to_vec(), a_dims(ta)).unwrap();
                let b = api::constant(bv.to_vec(), b_dims(tb)).unwrap();
                (a, b)
            };
            let loss = |av: &[f64], bv: &[f64]| -> f64 {
                let (a, b) = make(av, bv);
                let y = tfe_runtime::context::execute(
                    tfe_ops::Op::BatchMatmul,
                    &[a, b],
                    tfe_ops::Params::Matmul { transpose_a: ta, transpose_b: tb },
                )
                .unwrap()
                .remove(0);
                api::reduce_sum(&y, &[], false).unwrap().scalar_f64().unwrap()
            };
            let (a, b) = make(&av, &bv);
            let tape = GradientTape::new();
            tape.watch(&a);
            tape.watch(&b);
            let y = tfe_runtime::context::execute(
                tfe_ops::Op::BatchMatmul,
                &[a.clone(), b.clone()],
                tfe_ops::Params::Matmul { transpose_a: ta, transpose_b: tb },
            )
            .unwrap()
            .remove(0);
            let l = api::reduce_sum(&y, &[], false).unwrap();
            let grads = tape.gradient(&l, &[&a, &b]).unwrap();
            let ga = grads[0].clone().unwrap().to_f64_vec().unwrap();
            let gb = grads[1].clone().unwrap().to_f64_vec().unwrap();
            let eps = 1e-6;
            for i in 0..na {
                let mut p = av.clone();
                p[i] += eps;
                let fd = (loss(&p, &bv) - loss(&av, &bv)) / eps;
                assert!((fd - ga[i]).abs() < 1e-4, "ta={ta} tb={tb} a[{i}]: {fd} vs {}", ga[i]);
            }
            for i in 0..nb {
                let mut p = bv.clone();
                p[i] += eps;
                let fd = (loss(&av, &p) - loss(&av, &bv)) / eps;
                assert!((fd - gb[i]).abs() < 1e-4, "ta={ta} tb={tb} b[{i}]: {fd} vs {}", gb[i]);
            }
        }
    }
}
