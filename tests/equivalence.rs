//! The core correctness property of the multi-stage model: for programs
//! whose op set does not depend on host state, **staging must not change
//! results** (§4.1: "as long as the set of operations in the trace does
//! not depend on Python state we can generate a correct trace").
//!
//! Random program generator → run eagerly → run staged (optimized graphs,
//! trace-cache hit the second time) → compare bitwise-ish; also compare
//! gradients, and fused-vs-unfused execution.

use proptest::prelude::*;
use tf_eager::prelude::*;
use tf_eager::RuntimeError;

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

fn arb_expr(inputs: usize) -> impl Strategy<Value = Expr> {
    let leaf = (0..inputs).prop_map(Expr::Input);
    leaf.prop_recursive(4, 24, 3, move |inner| {
        prop_oneof![
            (0..UNARY.len(), inner.clone()).prop_map(|(i, e)| Expr::Unary(UNARY[i], Box::new(e))),
            (0..BINARY.len(), inner.clone(), inner.clone()).prop_map(|(i, a, b)| Expr::Binary(
                BINARY[i],
                Box::new(a),
                Box::new(b)
            )),
            (inner.clone(), any::<bool>()).prop_map(|(e, k)| Expr::Reduce(Box::new(e), k)),
            inner.prop_map(|e| Expr::Reshape(Box::new(e))),
        ]
    })
}

fn eval(expr: &Expr, inputs: &[Tensor]) -> Result<Tensor, RuntimeError> {
    match expr {
        Expr::Input(i) => Ok(inputs[*i % inputs.len()].clone()),
        Expr::Unary(op, e) => {
            let x = eval(e, inputs)?;
            let op = tfe_ops::Op::from_name(op).expect("a catalog op");
            tfe_runtime::context::execute(op, &[x], tfe_ops::Attrs::new()).map(|mut v| v.remove(0))
        }
        Expr::Binary(op, a, b) => {
            let a = eval(a, inputs)?;
            let b = eval(b, inputs)?;
            let op = tfe_ops::Op::from_name(op).expect("a catalog op");
            tfe_runtime::context::execute(op, &[a, b], tfe_ops::Attrs::new())
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn staging_preserves_results(expr in arb_expr(3), seed in 0u64..500) {
        tf_eager::init();
        let inputs = input_tensors(seed);
        let Ok(eager) = eval(&expr, &inputs) else { return Ok(()) };

        let expr2 = expr.clone();
        let staged_fn = function("prop_equiv", move |args: &[Arg]| {
            let tensors: Vec<Tensor> =
                args.iter().filter_map(|a| a.as_tensor().cloned()).collect();
            Ok(vec![eval(&expr2, &tensors)?])
        });
        let args: Vec<Arg> = inputs.iter().map(Arg::from).collect();
        let staged = staged_fn.call(&args).unwrap().remove(0);
        let e = eager.value().unwrap();
        let s = staged.value().unwrap();
        prop_assert!(
            e.all_close(&s, 1e-12, 1e-12),
            "eager {:?} vs staged {:?} for {:?}",
            e, s, expr
        );
        // Cache hit must agree too.
        let again = staged_fn.call(&args).unwrap().remove(0);
        prop_assert!(s.all_close(&again.value().unwrap(), 0.0, 0.0));
        prop_assert_eq!(staged_fn.num_concrete(), 1);
    }

    #[test]
    fn staging_preserves_gradients(expr in arb_expr(2), seed in 0u64..500) {
        tf_eager::init();
        let inputs = input_tensors(seed);
        // Scalar loss = mean of the program output.
        let loss_of = |xs: &[Tensor]| -> Result<Tensor, RuntimeError> {
            let y = eval(&expr, xs)?;
            api::reduce_mean(&y, &[], false)
        };
        let Ok(_) = loss_of(&inputs) else { return Ok(()) };

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
            let tensors: Vec<Tensor> =
                args.iter().filter_map(|a| a.as_tensor().cloned()).collect();
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

        for (i, (e, s)) in eager_grads.iter().zip(&staged_grads).enumerate() {
            match (e, s) {
                (Some(e), Some(s)) => {
                    let (e, s) = (e.value().unwrap(), s.value().unwrap());
                    prop_assert!(
                        e.all_close(&s, 1e-9, 1e-9),
                        "grad {i}: eager {:?} vs staged {:?} for {:?}",
                        e, s, expr
                    );
                }
                // Staged zeros-for-unconnected vs eager None both mean "no
                // dependence"; verify the staged one is all zero then.
                (None, Some(s)) => {
                    let s = s.value().unwrap();
                    prop_assert!(
                        s.to_f64_vec().iter().all(|&v| v == 0.0),
                        "staged grad {i} should be zero for {:?}", expr
                    );
                }
                (Some(e), None) => {
                    let e = e.value().unwrap();
                    prop_assert!(e.to_f64_vec().iter().all(|&v| v == 0.0));
                }
                (None, None) => {}
            }
        }
    }

    #[test]
    fn fusion_preserves_results(expr in arb_expr(3), seed in 0u64..500) {
        // Build the raw trace, run it unoptimized and with the default
        // (fusing) pipeline through the executor; results must agree.
        tf_eager::init();
        let inputs = input_tensors(seed);
        let Ok(_) = eval(&expr, &inputs) else { return Ok(()) };
        let expr2 = expr.clone();
        let f = function("prop_fuse", move |args: &[Arg]| {
            let tensors: Vec<Tensor> =
                args.iter().filter_map(|a| a.as_tensor().cloned()).collect();
            Ok(vec![eval(&expr2, &tensors)?])
        });
        let args: Vec<Arg> = inputs.iter().map(Arg::from).collect();
        let conc = f.concrete_for(&args).unwrap();
        let evaluator = |node: &tf_eager::graph::Node,
                         ins: &[std::sync::Arc<TensorData>]|
         -> Result<Vec<TensorData>, String> {
            tfe_runtime::kernels::run_kernel(node.op, &node.attrs, ins)
                .map_err(|e| e.to_string())
        };
        let fused = tf_eager::graph::passes::optimize(
            &conc.raw,
            &tf_eager::graph::passes::OptimizeOptions::default(),
            Some(&evaluator),
        );
        let device = tfe_runtime::context::device_manager().host_cpu();
        let arg_data: Vec<std::sync::Arc<TensorData>> =
            inputs.iter().map(|t| t.value().unwrap()).collect();
        let raw_out = tfe_runtime::executor::run_function(
            &conc.raw,
            &arg_data,
            &device,
            tf_eager::ExecMode::SerialPlanned,
        )
        .unwrap();
        let fused_out = tfe_runtime::executor::run_function(
            &fused,
            &arg_data,
            &device,
            tf_eager::ExecMode::SerialPlanned,
        )
        .unwrap();
        prop_assert!(
            raw_out[0].all_close(&fused_out[0], 1e-12, 1e-12),
            "fusion changed the result for {:?}", expr
        );
        // And the parallel executor agrees with the serial one.
        let par_out = tfe_runtime::executor::run_function(
            &conc.raw,
            &arg_data,
            &device,
            tf_eager::ExecMode::Parallel,
        )
        .unwrap();
        prop_assert!(raw_out[0].all_close(&par_out[0], 0.0, 0.0));
    }
}
