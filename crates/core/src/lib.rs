//! # tfe-core
//!
//! The multi-stage programming front-end — the primary contribution of
//! *TensorFlow Eager* (MLSys 2019). [`function`] is the `@tf.function`
//! analog: a JIT tracer that runs a host closure in a graph-building
//! context and returns a polymorphic callable backed by a trace cache
//! (§4.6), with:
//!
//! - binding-time analysis: tensors become placeholders, static values
//!   specialize the trace (Listing 6);
//! - lexical capture of closed-over tensors and by-reference capture of
//!   variables (Listing 7);
//! - composition via `call` nodes (Listing 8 / Figure 2);
//! - the state-creation contract (trace twice when variables are created);
//! - optional explicit input signatures (single trace, dynamic dims);
//! - staged backward passes: calling a graph function under a tape runs a
//!   forward variant returning intermediates, and its gradient invokes a
//!   backward graph function (§4.2);
//! - escape hatches: [`HostFunc`] (`py_func`) and [`init_scope`] (§4.7).
//!
//! ```
//! use tfe_core::{function1};
//! use tfe_runtime::api;
//! # fn main() -> Result<(), tfe_runtime::RuntimeError> {
//! let f = function1("double_relu", |x| api::relu(&api::add(x, x)?));
//! let y = f.call1(&api::constant(vec![-1.0f32, 2.0], [2])?)?;
//! assert_eq!(y.to_f64_vec()?, vec![0.0, 4.0]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod arg;
mod call_grad;
mod control;
mod func;

pub use arg::{Arg, ArgKey, TensorSpec};
pub use call_grad::{concrete_named, ForwardBundle};
pub use control::{cond, init_scope, while_loop, HostFunc};
pub use func::{
    function, function1, ConcreteFunction, Func, FuncStats, RetraceCause, RetraceEvent,
};

/// Install the gradients of `call` and `cond`, which this crate owns, into
/// the autodiff table — the one piece of set-up the op set needs, since the
/// ops, kernels and every other gradient are compiled-in `match`es.
/// Idempotent; invoked automatically by the public entry points.
pub fn init() {
    tfe_autodiff::install_staged_gradients(call_grad::call_gradient, call_grad::cond_gradient);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tfe_autodiff::GradientTape;
    use tfe_runtime::{api, Variable};
    use tfe_tensor::{DType, TensorData};

    #[test]
    fn staged_matches_eager() {
        let f = function1("poly", |x| {
            let x2 = api::mul(x, x)?;
            api::add(&x2, x)
        });
        let x = api::constant(vec![1.0f32, 2.0, 3.0], [3]).unwrap();
        let staged = f.call1(&x).unwrap();
        assert_eq!(staged.to_f64_vec().unwrap(), vec![2.0, 6.0, 12.0]);
        assert_eq!(f.num_concrete(), 1);
    }

    #[test]
    fn trace_cache_polymorphism() {
        let f = function1("id_relu", api::relu);
        // Same signature -> one trace; new shape/dtype -> new traces.
        f.call1(&api::zeros(DType::F32, [2])).unwrap();
        f.call1(&api::ones(DType::F32, [2])).unwrap();
        assert_eq!(f.num_concrete(), 1);
        f.call1(&api::zeros(DType::F32, [3])).unwrap();
        assert_eq!(f.num_concrete(), 2);
        f.call1(&api::zeros(DType::F64, [2])).unwrap();
        assert_eq!(f.num_concrete(), 3);
    }

    #[test]
    fn static_args_specialize_like_listing6() {
        // lossy_matmul(W, x, training): the bool is baked into the trace.
        let lossy = function("lossy", |args| {
            let w = args[0].as_tensor().unwrap();
            let x = args[1].as_tensor().unwrap();
            let training = args[2].as_bool().unwrap();
            let y = api::matmul(w, x)?;
            if training {
                api::dropout(&y, 0.5).map(|t| vec![t])
            } else {
                Ok(vec![y])
            }
        });
        let w = api::ones(DType::F32, [3, 5]);
        let x = api::ones(DType::F32, [5, 1]);
        lossy.call(&[Arg::from(&w), Arg::from(&x), Arg::from(true)]).unwrap();
        lossy.call(&[Arg::from(&w), Arg::from(&x), Arg::from(false)]).unwrap();
        // Two concrete functions, one per boolean value.
        assert_eq!(lossy.num_concrete(), 2);
        // The training=false one is deterministic ones*5.
        let out = lossy.call(&[Arg::from(&w), Arg::from(&x), Arg::from(false)]).unwrap();
        assert_eq!(out[0].to_f64_vec().unwrap(), vec![5.0, 5.0, 5.0]);
        assert_eq!(lossy.num_concrete(), 2); // cache hit
    }

    #[test]
    fn captures_closed_over_tensors() {
        let a = api::constant(vec![10.0f32, 20.0], [2]).unwrap();
        let f = {
            let a = a.clone();
            function1("captures", move |x| api::add(x, &a))
        };
        let y = f.call1(&api::constant(vec![1.0f32, 2.0], [2]).unwrap()).unwrap();
        assert_eq!(y.to_f64_vec().unwrap(), vec![11.0, 22.0]);
        let c = f.concrete_for(&[Arg::from(&api::zeros(DType::F32, [2]))]).unwrap();
        assert_eq!(c.captures.len(), 1);
        assert_eq!(c.function.num_captures, 1);
    }

    #[test]
    fn variables_mutated_by_reference_listing7() {
        let v = Variable::new(TensorData::scalar(0.0f32));
        let mutate = {
            let v = v.clone();
            function("mutate", move |_args| {
                let one = api::scalar(1.0f32);
                v.assign_add(&one)?;
                Ok(vec![v.read()?])
            })
        };
        let r = mutate.call(&[]).unwrap();
        assert_eq!(r[0].scalar_f64().unwrap(), 1.0);
        assert_eq!(v.peek().scalar_f64().unwrap(), 1.0);
        // Eager mutation interleaves with staged mutation.
        v.assign_add(&api::scalar(1.0f32)).unwrap();
        assert_eq!(v.peek().scalar_f64().unwrap(), 2.0);
        mutate.call(&[]).unwrap();
        assert_eq!(v.peek().scalar_f64().unwrap(), 3.0);
    }

    #[test]
    fn composition_creates_call_node_listing8() {
        let inner = function1("inner8", api::relu);
        let outer = {
            let inner = inner.clone();
            function("outer8", move |args| {
                let a = args[0].as_tensor().unwrap();
                let b = args[1].as_tensor().unwrap();
                let m = api::matmul(a, b)?;
                inner.call_tensors(&[&m])
            })
        };
        let eye = api::eye(DType::F32, 3).unwrap();
        let d =
            api::constant(vec![-1.0f32, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0], [3, 3]).unwrap();
        let out = outer.call_tensors(&[&eye, &d]).unwrap();
        assert_eq!(out[0].to_f64_vec().unwrap(), vec![0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0]);
        // The outer graph contains a call node referencing the inner one.
        let c = outer
            .concrete_for(&[
                Arg::from(&api::zeros(DType::F32, [3, 3])),
                Arg::from(&api::zeros(DType::F32, [3, 3])),
            ])
            .unwrap();
        assert!(c.raw.nodes.iter().any(|n| n.op == "call"));
    }

    #[test]
    fn state_creation_contract() {
        use parking_lot::Mutex;
        // Creates a variable on every call: must fail the second-trace rule.
        let created: Arc<Mutex<Vec<Variable>>> = Arc::new(Mutex::new(Vec::new()));
        let bad = {
            let created = created.clone();
            function("bad_state", move |_args| {
                let v = Variable::new(TensorData::scalar(1.0f32));
                let out = v.read()?;
                created.lock().push(v);
                Ok(vec![out])
            })
        };
        assert!(bad.call(&[]).is_err());

        // Creates state only on the first call: traced twice, then cached.
        let slot: Arc<Mutex<Option<Variable>>> = Arc::new(Mutex::new(None));
        let good = {
            let slot = slot.clone();
            function("good_state", move |_args| {
                let mut guard = slot.lock();
                if guard.is_none() {
                    *guard = Some(Variable::new(TensorData::scalar(5.0f32)));
                }
                guard.as_ref().unwrap().read().map(|t| vec![t])
            })
        };
        let out = good.call(&[]).unwrap();
        assert_eq!(out[0].scalar_f64().unwrap(), 5.0);
        let out = good.call(&[]).unwrap();
        assert_eq!(out[0].scalar_f64().unwrap(), 5.0);
    }

    #[test]
    fn host_rng_baked_vs_op_rng() {
        // §4.1 `add_noise`: host randomness becomes a constant in the trace;
        // op randomness stays random.
        let host_noise = {
            let rng = parking_lot::Mutex::new(tfe_tensor::rng::Rng::seed_from_u64(1));
            function("host_noise", move |_args| {
                let eye = api::eye(DType::F64, 2)?;
                let n = rng.lock().f64();
                let noise = api::scalar(n);
                Ok(vec![api::add(&eye, &noise)?])
            })
        };
        let a = host_noise.call(&[]).unwrap()[0].to_f64_vec().unwrap();
        let b = host_noise.call(&[]).unwrap()[0].to_f64_vec().unwrap();
        assert_eq!(a, b); // baked in

        let op_noise = function("op_noise", |_args| {
            let eye = api::eye(DType::F64, 2)?;
            let noise = api::random_normal(DType::F64, tfe_tensor::Shape::from([2, 2]), 0.0, 1.0)?;
            Ok(vec![api::add(&eye, &noise)?])
        });
        let a = op_noise.call(&[]).unwrap()[0].to_f64_vec().unwrap();
        let b = op_noise.call(&[]).unwrap()[0].to_f64_vec().unwrap();
        assert_ne!(a, b); // stays an op
    }

    #[test]
    fn gradient_through_staged_call() {
        let f = function1("sq", |x| api::mul(x, x));
        let x = api::scalar(3.0f64);
        let tape = GradientTape::new();
        tape.watch(&x);
        let y = f.call1(&x).unwrap();
        assert_eq!(y.scalar_f64().unwrap(), 9.0);
        let g = tape.gradient1(&y, &x).unwrap();
        assert_eq!(g.scalar_f64().unwrap(), 6.0);
    }

    #[test]
    fn gradient_through_staged_call_with_variable() {
        let v = Variable::new(TensorData::scalar(4.0f64));
        let f = {
            let v = v.clone();
            function("vsq", move |args| {
                let x = args[0].as_tensor().unwrap();
                let val = v.read()?;
                Ok(vec![api::mul(&api::mul(&val, &val)?, x)?]) // v^2 * x
            })
        };
        let x = api::scalar(2.0f64);
        let tape = GradientTape::new();
        tape.watch(&x);
        let y = f.call1(&x).unwrap();
        assert_eq!(y.scalar_f64().unwrap(), 32.0);
        let grads = tape.gradient_vars(&y, &[&v]).unwrap();
        // d(v^2 x)/dv = 2vx = 16
        assert_eq!(grads[0].clone().unwrap().scalar_f64().unwrap(), 16.0);
    }

    #[test]
    fn second_order_through_staged_call() {
        let f = function1("cube", |x| {
            let x2 = api::mul(x, x)?;
            api::mul(&x2, x)
        });
        let x = api::scalar(2.0f64);
        let t1 = GradientTape::new();
        t1.watch(&x);
        let t2 = GradientTape::new();
        t2.watch(&x);
        let y = f.call1(&x).unwrap(); // 8
        let d1 = t2.gradient1(&y, &x).unwrap(); // 3x^2 = 12
        let d2 = t1.gradient1(&d1, &x).unwrap(); // 6x = 12
        assert_eq!(d1.scalar_f64().unwrap(), 12.0);
        assert_eq!(d2.scalar_f64().unwrap(), 12.0);
    }

    #[test]
    fn input_signature_dynamic_batch() {
        let f = function1("batchy", |x| api::reduce_sum(x, &[1], false))
            .with_input_signature(vec![TensorSpec::new(DType::F32, vec![None, Some(3)])]);
        let a = api::ones(DType::F32, [2, 3]);
        let b = api::ones(DType::F32, [7, 3]);
        assert_eq!(f.call1(&a).unwrap().to_f64_vec().unwrap(), vec![3.0, 3.0]);
        assert_eq!(f.call1(&b).unwrap().to_f64_vec().unwrap(), vec![3.0; 7]);
        // One trace handled both batch sizes.
        assert_eq!(f.num_concrete(), 1);
        // Mismatched signature rejected.
        let c = api::ones(DType::F32, [2, 4]);
        assert!(f.call1(&c).is_err());
    }

    #[test]
    fn cond_picks_branch_dynamically() {
        let then_f = function1("then_b", |x| api::mul(x, &api::scalar(2.0f64)));
        let else_f = function1("else_b", api::neg);
        let x = api::scalar(5.0f64);
        let t = cond(&api::scalar(true), &then_f, &else_f, &[&x]).unwrap();
        assert_eq!(t[0].scalar_f64().unwrap(), 10.0);
        let e = cond(&api::scalar(false), &then_f, &else_f, &[&x]).unwrap();
        assert_eq!(e[0].scalar_f64().unwrap(), -5.0);
    }

    #[test]
    fn while_loop_runs_to_fixpoint() {
        // state = (i, acc): while i < 5 { acc *= 2; i += 1 }
        let cond_f = function("wcond", |args| {
            let i = args[0].as_tensor().unwrap();
            Ok(vec![api::less(i, &api::scalar(5.0f64))?])
        });
        let body_f = function("wbody", |args| {
            let i = args[0].as_tensor().unwrap();
            let acc = args[1].as_tensor().unwrap();
            Ok(vec![api::add(i, &api::scalar(1.0f64))?, api::mul(acc, &api::scalar(2.0f64))?])
        });
        let out =
            while_loop(&cond_f, &body_f, &[&api::scalar(0.0f64), &api::scalar(1.0f64)]).unwrap();
        assert_eq!(out[0].scalar_f64().unwrap(), 5.0);
        assert_eq!(out[1].scalar_f64().unwrap(), 32.0);
    }

    #[test]
    fn host_func_escapes_trace() {
        // A data-dependent host computation embedded in a staged function.
        let host = HostFunc::new(
            |xs| {
                // Arbitrary host logic: recursive halving count (not
                // expressible as a fixed graph without tf.while).
                let v = xs[0].scalar_f64()?;
                fn halvings(x: f64) -> f64 {
                    if x.abs() < 1.0 {
                        0.0
                    } else {
                        1.0 + halvings(x / 2.0)
                    }
                }
                Ok(vec![api::scalar(halvings(v))])
            },
            vec![(DType::F64, tfe_ops::SymShape::scalar())],
        );
        let f = {
            let host = host.clone();
            function1("hosty", move |x| {
                let doubled = api::mul(x, &api::scalar(2.0f64))?;
                Ok(host.call(&[&doubled])?.remove(0))
            })
        };
        let y = f.call1(&api::scalar(8.0f64)).unwrap();
        assert_eq!(y.scalar_f64().unwrap(), 5.0); // halvings(16) = 5
        let y = f.call1(&api::scalar(1.0f64)).unwrap();
        assert_eq!(y.scalar_f64().unwrap(), 2.0); // halvings(2) = 2
    }

    #[test]
    fn init_scope_escapes_to_eager() {
        let f = function1("scoped", |x| {
            // Inside the trace, jump out and compute something eagerly.
            let host_value = init_scope(|| {
                assert!(!tfe_runtime::context::is_tracing());
                21.0
            });
            api::mul(x, &api::scalar(host_value))
        });
        let y = f.call1(&api::scalar(2.0f64)).unwrap();
        assert_eq!(y.scalar_f64().unwrap(), 42.0);
    }

    #[test]
    fn optimizer_prunes_dead_work() {
        let f = function1("deadwork", |x| {
            let _dead = api::exp(x)?; // unused, stateless -> pruned
            api::relu(x)
        });
        let c = f.concrete_for(&[Arg::from(&api::zeros(DType::F32, [4]))]).unwrap();
        assert_eq!(c.raw.executable_node_count(), 2);
        assert_eq!(c.function.executable_node_count(), 1);
    }

    /// The broadcasting adjoint is resolved at trace time: equal, fully
    /// defined shapes record no `sum_to_like`; an unknown dimension keeps it.
    #[test]
    fn identity_sum_to_like_is_not_recorded() {
        fn mul_grad(name: &str, dims: Vec<Option<usize>>) -> Func {
            function1(name, |x| {
                let tape = tfe_autodiff::GradientTape::new();
                tape.watch(x);
                let y = api::mul(x, x)?;
                tape.gradient1(&y, x)
            })
            .with_input_signature(vec![TensorSpec::new(DType::F32, dims)])
        }
        let x = api::ones(DType::F32, [3, 2]);
        let count = |f: &Func| {
            assert_eq!(f.call1(&x).unwrap().to_f64_vec().unwrap(), vec![2.0; 6]);
            let c = f.concrete_for(&[Arg::from(&x)]).unwrap();
            c.raw.nodes.iter().filter(|n| n.op == "sum_to_like").count()
        };
        assert_eq!(count(&mul_grad("stl_static", vec![Some(3), Some(2)])), 0);
        assert!(count(&mul_grad("stl_dynamic", vec![None, Some(2)])) > 0);
    }

    #[test]
    fn device_is_part_of_cache_key() {
        tfe_runtime::context::device_manager()
            .register(tfe_device::Device::new(tfe_device::DeviceName::local(
                tfe_device::DeviceType::Gpu,
                7,
            )))
            .ok();
        let f = function1("devkey", api::relu);
        f.call1(&api::zeros(DType::F32, [2])).unwrap();
        assert_eq!(f.num_concrete(), 1);
        tfe_runtime::context::with_device("/gpu:7", || {
            f.call1(&api::zeros(DType::F32, [2])).unwrap();
        })
        .unwrap();
        assert_eq!(f.num_concrete(), 2);
    }
}

#[cfg(test)]
mod control_gradient_tests {
    use super::*;
    use tfe_autodiff::GradientTape;
    use tfe_runtime::api;

    #[test]
    fn cond_gradient_follows_taken_branch() {
        // y = if x > 0 { x^2 } else { -3x }; dy/dx is branch-dependent.
        let then_f = function1("cg_then", |x| api::mul(x, x));
        let else_f = function1("cg_else", |x| api::mul(x, &api::scalar(-3.0f64)));

        for (input, expect) in [(4.0f64, 8.0), (-2.0, -3.0)] {
            let x = api::scalar(input);
            let tape = GradientTape::new();
            tape.watch(&x);
            let pred = api::greater(&x, &api::scalar(0.0f64)).unwrap();
            let y = cond(&pred, &then_f, &else_f, &[&x]).unwrap().remove(0);
            let g = tape.gradient1(&y, &x).unwrap();
            assert_eq!(g.scalar_f64().unwrap(), expect, "at x={input}");
        }
    }

    #[test]
    fn cond_gradient_multi_arg() {
        // z = if p { a*b } else { a+b }
        let then_f = function("cgm_then", |args| {
            let a = args[0].as_tensor().unwrap();
            let b = args[1].as_tensor().unwrap();
            Ok(vec![api::mul(a, b)?])
        });
        let else_f = function("cgm_else", |args| {
            let a = args[0].as_tensor().unwrap();
            let b = args[1].as_tensor().unwrap();
            Ok(vec![api::add(a, b)?])
        });
        let a = api::scalar(3.0f64);
        let b = api::scalar(5.0f64);
        let tape = GradientTape::new();
        tape.watch(&a);
        tape.watch(&b);
        let z = cond(&api::scalar(true), &then_f, &else_f, &[&a, &b]).unwrap().remove(0);
        let grads = tape.gradient(&z, &[&a, &b]).unwrap();
        assert_eq!(grads[0].clone().unwrap().scalar_f64().unwrap(), 5.0); // d(ab)/da = b
        assert_eq!(grads[1].clone().unwrap().scalar_f64().unwrap(), 3.0);
    }

    #[test]
    fn while_gradient_reports_unsupported() {
        let cond_f = function("wg_cond", |args| {
            let i = args[0].as_tensor().unwrap();
            Ok(vec![api::less(i, &api::scalar(3.0f64))?])
        });
        let body_f = function("wg_body", |args| {
            let i = args[0].as_tensor().unwrap();
            Ok(vec![api::mul(i, &api::scalar(2.0f64))?])
        });
        let x = api::scalar(1.0f64);
        let tape = GradientTape::new();
        tape.watch(&x);
        let out = while_loop(&cond_f, &body_f, &[&x]).unwrap().remove(0);
        let err = tape.gradient1(&out, &x).unwrap_err();
        assert!(err.to_string().contains("while_loop"), "{err}");
    }
}
