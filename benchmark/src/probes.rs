//! Probes: fixed micro-loops over one public function of one layer. They run
//! only in a traced run, after the cycles, and feed per-layer metrics that
//! say which layer a change to an end-to-end number came from.

use crate::estimate::median;
use crate::registry::Reading;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tf_eager::encode::Value;
use tf_eager::graph::serial::{
    function_from_value, function_to_value, tensor_from_value, tensor_to_value,
};
use tf_eager::graph::GraphBuilder;
use tf_eager::{api, async_scope, context, function1, Attrs, ConcreteFunction, DType};
use tf_eager::{GradientTape, Tensor, Variable};

use crate::rng::{f32_tensor, Rng};

/// How long one probe may measure.
const BUDGET: Duration = Duration::from_millis(30);

/// Nanoseconds per call of `f`: the median over batches of about a
/// millisecond each, after one warm-up call.
pub fn per_call_ns(mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    f();
    let one = t.elapsed().as_nanos().max(1);
    let per_batch = (1_000_000 / one).clamp(1, 100_000) as usize;
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || (start.elapsed() < BUDGET && samples.len() < 200) {
        let t = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    median(&samples)
}

/// Nanoseconds for the timed part of `f`, which times itself (its set-up is
/// not measured): the median of five.
pub fn self_timed_ns(mut f: impl FnMut() -> Duration) -> f64 {
    f();
    median(&(0..5).map(|_| f().as_nanos() as f64).collect::<Vec<_>>())
}

fn unwrap<T, E: std::fmt::Display>(r: Result<T, E>) -> T {
    r.unwrap_or_else(|e| panic!("probe failed: {e}"))
}

/// A `[128, 128]` f32 tensor: the largest gradient the dist workload sends.
pub fn gradient_tensor() -> Tensor {
    f32_tensor(Rng::new(7).normal_vec(128 * 128, 1.0), &[128, 128])
}

/// The body of a frame that carries one gradient, as the wire sees it.
pub fn gradient_frame_body() -> Value {
    let data = unwrap(gradient_tensor().value());
    Value::object([
        ("type".to_string(), Value::str("execute_op")),
        ("op".to_string(), Value::str("identity")),
        ("inputs".to_string(), Value::Array(vec![tensor_to_value(&data)])),
    ])
}

/// Probes every workload runs: fixed shapes, no workload state.
pub fn generic(out: &mut Vec<(&'static str, f64)>) {
    let a = api::scalar(1.5f32);
    let b = api::scalar(0.25f32);

    let eager_op_ns = per_call_ns(|| {
        black_box(unwrap(api::add(&a, &b)));
    });
    out.push(("runtime.eager_op_ns", eager_op_ns));

    // A tape that watches an input records every op on it; a fresh tape per
    // batch keeps the record short.
    let taped = {
        let mut samples = Vec::new();
        for _ in 0..20 {
            let tape = GradientTape::new();
            tape.watch(&a);
            let t = Instant::now();
            for _ in 0..500 {
                black_box(unwrap(api::add(&a, &b)));
            }
            samples.push(t.elapsed().as_nanos() as f64 / 500.0);
        }
        median(&samples)
    };
    out.push(("runtime.eager_op_taped_ns", taped));

    let async_ns = per_call_ns(|| {
        unwrap(async_scope(|| {
            let mut x = a.clone();
            for _ in 0..200 {
                x = unwrap(api::add(&x, &b));
            }
            black_box(unwrap(x.value()));
        }));
    });
    out.push(("runtime.async_op_ns", async_ns / 200.0));

    let variable = Variable::new(unwrap(gradient_tensor().value()).as_ref().clone());
    let value = gradient_tensor();
    let assign_ns = per_call_ns(|| unwrap(variable.assign(&value)));
    out.push(("runtime.variable_assign_us", assign_ns / 1e3));

    {
        let host = context::device_manager().host_cpu().name().to_string();
        let _scope = unwrap(context::device_scope(&host));
        let placed = per_call_ns(|| {
            black_box(unwrap(api::add(&a, &b)));
        });
        out.push(("device.placed_op_ns", placed - eager_op_ns));
    }

    {
        tf_eager::profile::start();
        let profiled = per_call_ns(|| {
            black_box(unwrap(api::add(&a, &b)));
        });
        drop(tf_eager::profile::stop());
        out.push(("profile.enabled_op_overhead_ns", profiled - eager_op_ns));
    }

    let snapshot_ns = per_call_ns(|| {
        black_box(tf_eager::metrics::snapshot());
    });
    out.push(("metrics.snapshot_us", snapshot_ns / 1e3));

    // Catalog lookup + shape inference, through the graph builder (the
    // facade's only door to them): one `add` and one `matmul` node.
    let x = api::zeros(DType::F32, [64, 10]);
    let w = api::zeros(DType::F32, [10, 10]);
    let infer_ns = per_call_ns(|| {
        let mut g = GraphBuilder::new("probe");
        let px = unwrap(g.placeholder(DType::F32, x.sym_shape()));
        let pw = unwrap(g.placeholder(DType::F32, w.sym_shape()));
        for _ in 0..50 {
            unwrap(g.add_node("add", vec![px, px], Attrs::new()));
            unwrap(g.add_node("matmul", vec![px, pw], Attrs::new()));
        }
        black_box(g.num_nodes());
    });
    out.push(("ops.infer_ns", infer_ns / 100.0));

    // Kernel alone, read from the program's kernel-time histogram so that
    // dispatch is not in it.
    let small = f32_tensor(Rng::new(3).normal_vec(640, 1.0), &[64, 10]);
    let before = Reading::now();
    for _ in 0..2000 {
        black_box(unwrap(api::add(&small, &small)));
    }
    let kernel = Reading::now().since(&before).hist("tfe_kernel_time_ns");
    out.push(("tensor.add_small_ns", kernel.mean()));

    let m = f32_tensor(Rng::new(4).normal_vec(256 * 256, 1.0), &[256, 256]);
    let matmul_ns = per_call_ns(|| {
        black_box(unwrap(unwrap(api::matmul(&m, &m)).value()));
    });
    out.push(("tensor.matmul_256_us", matmul_ns / 1e3));

    // Gradient of a 1000-op scalar chain; building the chain is not timed.
    let backward_ns = self_timed_ns(|| {
        let tape = GradientTape::new();
        tape.watch(&a);
        let mut y = a.clone();
        for i in 0..1000 {
            y = unwrap(if i % 2 == 0 { api::mul(&y, &b) } else { api::add(&y, &b) });
        }
        let t = Instant::now();
        black_box(unwrap(tape.gradient1(&y, &a)));
        t.elapsed()
    });
    out.push(("autodiff.backward_ns_per_op", backward_ns / 1000.0));

    let f = function1("probe_call", |t| api::add(t, t));
    unwrap(f.call1(&a));
    let call_ns = per_call_ns(|| {
        black_box(unwrap(f.call1(&a)));
    });
    out.push(("core.call_hit_us", call_ns / 1e3));
}

/// Encode and decode of the function the workload stages.
pub fn function_codec(concrete: &ConcreteFunction, out: &mut Vec<(&'static str, f64)>) {
    let text = function_to_value(&concrete.function).to_json();
    let encode_ns = per_call_ns(|| {
        black_box(function_to_value(&concrete.function).to_json());
    });
    let decode_ns = per_call_ns(|| {
        black_box(unwrap(function_from_value(&unwrap(Value::parse(&text)))));
    });
    out.push(("graph.function_encode_ms", encode_ns / 1e6));
    out.push(("graph.function_decode_ms", decode_ns / 1e6));
}

/// The JSON tensor codec on one gradient, in raw (f32) megabytes a second,
/// and the text writer and parser under it, in megabytes of text a second.
pub fn tensor_codec(out: &mut Vec<(&'static str, f64)>) {
    let data = unwrap(gradient_tensor().value());
    let raw_mb = (128 * 128 * 4) as f64 / 1e6;
    let text = tensor_to_value(&data).to_json();
    let encode_ns = per_call_ns(|| {
        black_box(tensor_to_value(&data).to_json());
    });
    let decode_ns = per_call_ns(|| {
        black_box(unwrap(tensor_from_value(&unwrap(Value::parse(&text)))));
    });
    out.push(("graph.tensor_encode_mb_s", raw_mb / (encode_ns / 1e9)));
    out.push(("graph.tensor_decode_mb_s", raw_mb / (decode_ns / 1e9)));

    let body = gradient_frame_body();
    let payload = body.to_json();
    let text_mb = payload.len() as f64 / 1e6;
    let write_ns = per_call_ns(|| {
        black_box(body.to_json());
    });
    let parse_ns = per_call_ns(|| {
        black_box(unwrap(Value::parse(&payload)));
    });
    out.push(("encode.write_mb_s", text_mb / (write_ns / 1e9)));
    out.push(("encode.parse_mb_s", text_mb / (parse_ns / 1e9)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_call_is_positive_and_grows_with_the_work() {
        let spin = |n: u64| {
            per_call_ns(move || {
                let mut x = 0u64;
                for i in 0..n {
                    x = black_box(x.wrapping_add(i));
                }
            })
        };
        let (short, long) = (spin(1_000), spin(100_000));
        assert!(short > 0.0);
        assert!(long > short * 5.0, "{long} vs {short}");
    }
}
