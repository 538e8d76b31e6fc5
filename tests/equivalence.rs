//! The core correctness property of the multi-stage model: for programs
//! whose op set does not depend on host state, **staging must not change
//! results** (§4.1: "as long as the set of operations in the trace does
//! not depend on Python state we can generate a correct trace").
//!
//! Random program generator → run eagerly → run staged (optimized graphs,
//! trace-cache hit the second time) → compare bit for bit; also compare
//! gradients, and fused-vs-unfused execution, bit for bit. The generator
//! covers what the corpus of `tests/common` does not emit: broadcasting,
//! `reshape`, and unary ops beyond the corpus' set.

mod common;

use common::oracle::{divergence, run, Case, Config, Mode, Runner};
use common::{fuzz_cases, same_bits};
use std::sync::Arc;
use tf_eager::prelude::*;
use tf_eager::RuntimeError;
use tfe_tensor::rng::{each_seed, Rng};

/// A tiny random-program AST over well-conditioned float ops.
#[derive(Debug, Clone)]
enum Expr {
    Input(usize),
    Unary(&'static str, Box<Expr>),
    Binary(&'static str, Box<Expr>, Box<Expr>),
    Reduce(Box<Expr>, bool),
    Reshape(Box<Expr>),
}

const UNARY: &[&str] = &["tanh", "sigmoid", "softplus", "sin", "cos", "relu", "neg", "erf"];
const BINARY: &[&str] = &["add", "sub", "mul", "maximum", "minimum"];

/// An input, or with odds two in three (while `depth` lasts) one of four
/// ops over subtrees.
fn arb_expr(rng: &mut Rng, inputs: usize, depth: u32) -> Expr {
    if depth == 0 || rng.range(0u32..3) == 0 {
        return Expr::Input(rng.range(0..inputs));
    }
    let sub = |rng: &mut Rng| Box::new(arb_expr(rng, inputs, depth - 1));
    match rng.range(0u32..4) {
        0 => Expr::Unary(UNARY[rng.range(0..UNARY.len())], sub(rng)),
        1 => Expr::Binary(BINARY[rng.range(0..BINARY.len())], sub(rng), sub(rng)),
        2 => Expr::Reduce(sub(rng), rng.bool(0.5)),
        _ => Expr::Reshape(sub(rng)),
    }
}

fn eval(expr: &Expr, inputs: &[Tensor]) -> Result<Tensor, RuntimeError> {
    match expr {
        Expr::Input(i) => Ok(inputs[*i % inputs.len()].clone()),
        Expr::Unary(op, e) => {
            let x = eval(e, inputs)?;
            let op = tfe_ops::Op::from_name(op).expect("a catalog op");
            tfe_runtime::context::execute(op, &[x], tfe_ops::Params::None).map(|mut v| v.remove(0))
        }
        Expr::Binary(op, a, b) => {
            let a = eval(a, inputs)?;
            let b = eval(b, inputs)?;
            let op = tfe_ops::Op::from_name(op).expect("a catalog op");
            tfe_runtime::context::execute(op, &[a, b], tfe_ops::Params::None)
                .map(|mut v| v.remove(0))
        }
        Expr::Reduce(e, keep) => {
            let x = eval(e, inputs)?;
            // Reduce the last axis if there is one; broadcasting keeps the
            // program well-formed either way.
            if x.rank() > 0 {
                api::reduce_mean(&x, &[-1], *keep)
            } else {
                Ok(x)
            }
        }
        Expr::Reshape(e) => {
            let x = eval(e, inputs)?;
            let n = x.shape()?.num_elements() as i64;
            let r = api::reshape(&x, &[n])?;
            api::reshape(&r, &x.shape()?.dims().iter().map(|&d| d as i64).collect::<Vec<_>>())
        }
    }
}

fn input_tensors(seed: u64) -> Vec<Tensor> {
    let mut rng = tfe_tensor::rng::TensorRng::seed_from_u64(seed);
    vec![
        Tensor::from_data(rng.uniform(DType::F64, Shape::from([2, 3]), -1.0, 1.0).unwrap()),
        Tensor::from_data(rng.uniform(DType::F64, Shape::from([3]), -1.0, 1.0).unwrap()),
        Tensor::from_data(rng.uniform(DType::F64, Shape::scalar(), -1.0, 1.0).unwrap()),
    ]
}

#[test]
fn staging_preserves_results() {
    each_seed(fuzz_cases(64), |rng| {
        let (expr, seed) = (arb_expr(rng, 3, 4), rng.range(0..500));
        tf_eager::init();
        let inputs = input_tensors(seed);
        let Ok(eager) = eval(&expr, &inputs) else { return };

        let expr2 = expr.clone();
        let staged_fn = function("prop_equiv", move |args: &[Arg]| {
            let tensors: Vec<Tensor> = args.iter().filter_map(|a| a.as_tensor().cloned()).collect();
            Ok(vec![eval(&expr2, &tensors)?])
        });
        let args: Vec<Arg> = inputs.iter().map(Arg::from).collect();
        let staged = staged_fn.call(&args).unwrap().remove(0);
        let e = eager.value().unwrap();
        let s = staged.value().unwrap();
        assert!(same_bits(&e, &s), "eager {e:?} vs staged {s:?} for {expr:?}");
        // Cache hit must agree too.
        let again = staged_fn.call(&args).unwrap().remove(0);
        assert!(same_bits(&s, &again.value().unwrap()));
        assert_eq!(staged_fn.num_concrete(), 1);
    });
}

#[test]
fn staging_preserves_gradients() {
    each_seed(fuzz_cases(64), |rng| {
        let (expr, seed) = (arb_expr(rng, 2, 4), rng.range(0..500));
        tf_eager::init();
        let inputs = input_tensors(seed);
        // Scalar loss = mean of the program output.
        let loss_of = |xs: &[Tensor]| -> Result<Tensor, RuntimeError> {
            let y = eval(&expr, xs)?;
            api::reduce_mean(&y, &[], false)
        };
        let Ok(_) = loss_of(&inputs) else { return };

        // Eager gradient.
        let tape = GradientTape::new();
        for t in &inputs {
            tape.watch(t);
        }
        let loss = loss_of(&inputs).unwrap();
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let eager_grads = tape.gradient(&loss, &refs).unwrap();

        // Gradient through a staged call.
        let expr2 = expr.clone();
        let staged_fn = function("prop_grad", move |args: &[Arg]| {
            let tensors: Vec<Tensor> = args.iter().filter_map(|a| a.as_tensor().cloned()).collect();
            let y = eval(&expr2, &tensors)?;
            Ok(vec![api::reduce_mean(&y, &[], false)?])
        });
        let tape = GradientTape::new();
        for t in &inputs {
            tape.watch(t);
        }
        let args: Vec<Arg> = inputs.iter().map(Arg::from).collect();
        let loss = staged_fn.call(&args).unwrap().remove(0);
        let staged_grads = tape.gradient(&loss, &refs).unwrap();

        // An input the loss does not depend on has no gradient eagerly and a
        // zero one through the call, whose record names every input.
        let dense = |g: &Option<Tensor>, x: &Tensor| match g {
            Some(g) => g.value().unwrap(),
            None => Arc::new(TensorData::zeros(x.dtype(), x.shape().unwrap())),
        };
        for (i, ((e, s), x)) in eager_grads.iter().zip(&staged_grads).zip(&inputs).enumerate() {
            let (e, s) = (dense(e, x), dense(s, x));
            assert!(same_bits(&e, &s), "grad {i}: eager {e:?} vs staged {s:?} for {expr:?}");
        }
    });
}

#[test]
fn fusion_preserves_results() {
    each_seed(fuzz_cases(64), |rng| {
        let (expr, seed) = (arb_expr(rng, 3, 4), rng.range(0..500));
        // The raw trace, fused by the default pipeline and on the parallel
        // executor, bit for bit its serial run.
        tf_eager::init();
        let inputs = input_tensors(seed);
        let Ok(_) = eval(&expr, &inputs) else { return };
        let expr2 = expr.clone();
        let f = function("prop_fuse", move |args: &[Arg]| {
            let tensors: Vec<Tensor> = args.iter().filter_map(|a| a.as_tensor().cloned()).collect();
            Ok(vec![eval(&expr2, &tensors)?])
        });
        let args: Vec<Arg> = inputs.iter().map(Arg::from).collect();
        let graph = (*f.concrete_for(&args).unwrap().raw).clone();
        let args = inputs.iter().map(|t| t.value().unwrap()).collect();
        let case = Case { graph, args, variables: Vec::new() };
        let serial = run(&case, Mode::Serial);
        assert!(serial.is_ok(), "{serial:?}");
        for mode in [Mode::Optimized(Config::Fused, Runner::Serial), Mode::Parallel] {
            let diff = divergence(&case, mode, &serial, &run(&case, mode));
            assert!(diff.is_none(), "{mode:?} changed the result for {expr:?}: {diff:?}");
        }
    });
}
