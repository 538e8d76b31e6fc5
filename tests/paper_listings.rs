//! Every listing and inline example from the paper, reproduced as a test.
//!
//! - §4.1 `select` example and the `add_noise` staging caveat
//! - Listing 1: nested tapes / higher-order derivatives
//! - Listing 2: variables are watched automatically
//! - Listing 4/5: device copies and device-scoped execution
//! - Listing 6: static-argument specialization (two graph functions)
//! - Listing 7: `function` mutates closed-over variables by reference
//! - Listing 8 / Figure 2: nested graph functions via `call` operations
//! - §4.6 state-creation contract (double trace, late creation errors)

use tf_eager::prelude::*;
use tf_eager::{device, Arg};
use tfe_parallel::lock;

fn ensure_gpu() {
    tf_eager::register_device("/gpu:0").ok();
}

#[test]
fn section_4_1_select_example() {
    // def select(vector): return tf.matmul([[1.0, 0.0]], vector)
    // print(select([[2.0], [-2.0]])) -> [[2.]]
    let select = |vector: &Tensor| -> Result<Tensor, tf_eager::RuntimeError> {
        let a = api::constant(vec![1.0f32, 0.0], [1, 2])?;
        api::matmul(&a, vector)
    };
    let x = api::constant(vec![2.0f32, -2.0], [2, 1]).unwrap();
    let y = select(&x).unwrap();
    assert_eq!(y.shape().unwrap().dims(), &[1, 1]);
    assert_eq!(y.scalar_f64().unwrap(), 2.0);

    // Decorated with @function, invoking it is syntactically identical.
    let staged = function1("select", select);
    let y = staged.call1(&x).unwrap();
    assert_eq!(y.scalar_f64().unwrap(), 2.0);
}

#[test]
fn listing_1_nested_tapes() {
    let x = api::scalar(3.0f32);
    let t1 = GradientTape::new();
    let t2 = GradientTape::new();
    t1.watch(&x);
    t2.watch(&x);
    let y = api::mul(&x, &x).unwrap();
    let dy_dx = t2.gradient1(&y, &x).unwrap();
    let d2y_dx2 = t1.gradient1(&dy_dx, &x).unwrap();
    assert_eq!(dy_dx.scalar_f64().unwrap(), 6.0);
    assert_eq!(d2y_dx2.scalar_f64().unwrap(), 2.0);
}

#[test]
fn listing_2_variables_watched_automatically() {
    let x = Variable::new(TensorData::scalar(3.0f32));
    let t1 = GradientTape::new();
    let t2 = GradientTape::new();
    let xv = x.read().unwrap();
    let y = api::mul(&xv, &xv).unwrap();
    let dy_dx = t2.gradient_vars(&y, &[&x]).unwrap()[0].clone().unwrap();
    let d2y_dx2 = t1.gradient_vars(&dy_dx, &[&x]).unwrap()[0].clone().unwrap();
    assert_eq!(dy_dx.scalar_f64().unwrap(), 6.0);
    assert_eq!(d2y_dx2.scalar_f64().unwrap(), 2.0);
}

#[test]
fn listing_4_tensor_copies_between_devices() {
    ensure_gpu();
    let a = api::scalar(1.0f32); // stored on CPU
    assert_eq!(a.device().unwrap(), device::DeviceName::local_cpu());
    let b = a.gpu().unwrap(); // stored on GPU
    assert_eq!(b.device().unwrap().device_type, device::DeviceType::Gpu);
    assert_eq!(b.scalar_f64().unwrap(), 1.0);
    let c = b.cpu().unwrap();
    assert_eq!(c.device().unwrap(), device::DeviceName::local_cpu());
}

#[test]
fn listing_5_device_scope_with_cpu_inputs() {
    ensure_gpu();
    let a = api::scalar(1.0f32);
    let b = api::scalar(2.0f32);
    let c = tf_eager::context::with_device("/gpu:0", || api::add(&a, &b)).unwrap().unwrap();
    // The runtime transparently copied the CPU inputs.
    assert_eq!(c.scalar_f64().unwrap(), 3.0);
    assert_eq!(c.device().unwrap().device_type, device::DeviceType::Gpu);
}

#[test]
fn listing_6_static_argument_specialization() {
    let lossy_matmul = tf_eager::function("lossy_matmul", |args| {
        let w = args[0].as_tensor().expect("W");
        let x = args[1].as_tensor().expect("x");
        let training = args[2].as_bool().expect("training");
        let outputs = api::matmul(w, x)?;
        if training {
            Ok(vec![api::dropout(&outputs, 0.8)?])
        } else {
            Ok(vec![outputs])
        }
    });
    tf_eager::context::set_random_seed(0);
    let w = api::ones(DType::F32, [3, 5]);
    let x = api::ones(DType::F32, [5, 1]);
    let lossy = lossy_matmul.call(&[Arg::from(&w), Arg::from(&x), Arg::from(true)]).unwrap();
    let exact = lossy_matmul.call(&[Arg::from(&w), Arg::from(&x), Arg::from(false)]).unwrap();
    // "This code transparently makes two graph functions."
    assert_eq!(lossy_matmul.num_concrete(), 2);
    assert_eq!(exact[0].to_f64_vec().unwrap(), vec![5.0; 3]);
    assert_eq!(lossy[0].shape().unwrap().dims(), &[3, 1]);
}

#[test]
fn listing_7_function_mutates_variables() {
    let v = Variable::new(TensorData::scalar(0.0f32));
    let mutate = {
        let v = v.clone();
        tf_eager::function("mutate", move |_| {
            v.assign_add(&api::scalar(1.0f32))?;
            Ok(vec![v.read()?])
        })
    };
    mutate.call(&[]).unwrap();
    assert_eq!(v.read().unwrap().scalar_f64().unwrap(), 1.0);
    v.assign_add(&api::scalar(1.0f32)).unwrap();
    assert_eq!(v.read().unwrap().scalar_f64().unwrap(), 2.0);
    mutate.call(&[]).unwrap();
    assert_eq!(v.read().unwrap().scalar_f64().unwrap(), 3.0);
}

#[test]
fn listing_8_figure_2_function_composition() {
    let inner = function1("inner", api::relu);
    let outer = {
        let inner = inner.clone();
        tf_eager::function("outer", move |args| {
            let a = args[0].as_tensor().expect("a");
            let b = args[1].as_tensor().expect("b");
            inner.call_tensors(&[&api::matmul(a, b)?])
        })
    };
    // outer(eye(3), diag([-1, 1, 2]))
    let eye = api::eye(DType::F32, 3).unwrap();
    let diag =
        api::constant(vec![-1.0f32, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0], [3, 3]).unwrap();
    let out = outer.call_tensors(&[&eye, &diag]).unwrap();
    assert_eq!(out[0].to_f64_vec().unwrap(), vec![0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0]);
    // Figure 2a: outer's graph contains a call op executing inner's graph.
    let conc = outer
        .concrete_for(&[
            Arg::from(&api::zeros(DType::F32, [3, 3])),
            Arg::from(&api::zeros(DType::F32, [3, 3])),
        ])
        .unwrap();
    let call_node = conc.raw.nodes.iter().find(|n| n.op == "call").expect("call node");
    let callee = call_node.attrs.str("function").unwrap();
    // Figure 2b: the callee's graph exists in the library and is a relu.
    let inner_graph = tf_eager::context::library().get(callee).expect("inner graph");
    assert!(inner_graph.nodes.iter().any(|n| n.op == "relu"));
}

#[test]
fn section_4_1_add_noise_semantics() {
    // Host randomness: inserted into the graph as a constant.
    let host = {
        let rng = std::sync::Mutex::new(tfe_tensor::rng::Rng::seed_from_u64(7));
        tf_eager::function("add_noise_host", move |_| {
            let eye = api::eye(DType::F64, 5)?;
            let noise = api::scalar(lock(&rng).f64());
            Ok(vec![api::add(&eye, &noise)?])
        })
    };
    let a = host.call(&[]).unwrap()[0].to_f64_vec().unwrap();
    let b = host.call(&[]).unwrap()[0].to_f64_vec().unwrap();
    assert_eq!(a, b, "host randomness must be baked into the trace");

    // Op randomness: stays random across invocations of the graph function.
    let op = tf_eager::function("add_noise_op", |_| {
        let eye = api::eye(DType::F64, 5)?;
        let noise = api::random_normal(DType::F64, Shape::from([5, 5]), 0.0, 1.0)?;
        Ok(vec![api::add(&eye, &noise)?])
    });
    let a = op.call(&[]).unwrap()[0].to_f64_vec().unwrap();
    let b = op.call(&[]).unwrap()[0].to_f64_vec().unwrap();
    assert_ne!(a, b, "tf.random_normal must remain an operation");
}

#[test]
fn section_4_6_state_creation_contract() {
    use std::sync::Arc;
    use std::sync::Mutex;
    // Good citizen: creates variables only on the first call.
    let slot: Arc<Mutex<Option<Variable>>> = Arc::new(Mutex::new(None));
    let good = {
        let slot = slot.clone();
        tf_eager::function("state_once", move |_| {
            let mut guard = lock(&slot);
            if guard.is_none() {
                *guard = Some(Variable::new(TensorData::scalar(2.0f32)));
            }
            guard.as_ref().unwrap().read().map(|t| vec![t])
        })
    };
    assert_eq!(good.call(&[]).unwrap()[0].scalar_f64().unwrap(), 2.0);
    assert_eq!(good.call(&[]).unwrap()[0].scalar_f64().unwrap(), 2.0);

    // Violator: creates a variable on every trace.
    let hoard: Arc<Mutex<Vec<Variable>>> = Arc::new(Mutex::new(Vec::new()));
    let bad = {
        let hoard = hoard.clone();
        tf_eager::function("state_always", move |_| {
            let v = Variable::new(TensorData::scalar(0.0f32));
            let out = v.read()?;
            lock(&hoard).push(v);
            Ok(vec![out])
        })
    };
    let err = bad.call(&[]).unwrap_err();
    assert!(err.to_string().contains("second trace"), "{err}");
}

#[test]
fn section_4_7_py_func_in_graph() {
    // Wrap a data-dependent recursive host function in a host_func and
    // stage the surrounding computation (§4.7's motivating scenario).
    let recursive = tf_eager::HostFunc::new(
        |xs| {
            fn collatz_steps(mut n: i64) -> i64 {
                let mut steps = 0;
                while n > 1 {
                    n = if n % 2 == 0 { n / 2 } else { 3 * n + 1 };
                    steps += 1;
                }
                steps
            }
            let n = xs[0].value()?.to_i64_vec()[0];
            Ok(vec![Tensor::from_data(TensorData::scalar(collatz_steps(n)))])
        },
        vec![(DType::I64, tfe_ops::SymShape::scalar())],
    );
    let staged = {
        let recursive = recursive.clone();
        tf_eager::function("uses_py_func", move |args| {
            let x = args[0].as_tensor().expect("x");
            let doubled = api::mul(x, &api::constant(vec![2i64], [1])?)?;
            let steps = recursive.call(&[&doubled])?.remove(0);
            Ok(vec![steps])
        })
    };
    let x = api::constant(vec![3i64], [1]).unwrap();
    // collatz(6) = 8 steps
    assert_eq!(staged.call_tensors(&[&x]).unwrap()[0].scalar_f64().unwrap(), 8.0);
}
