//! Wall-clock micro-benchmarks for the intra-op parallel kernel layer:
//! each kernel is timed twice — pinned to one intra-op thread (serial
//! baseline) and with the full worker pool — and the ratio is the
//! intra-op speedup. Results land in `BENCH_kernels.json`.
//!
//! Run with `cargo run --release -p tfe-bench --bin kernel_bench`
//! (add `--quick` for a smoke run with fewer iterations). Set
//! `TFE_PROFILE=trace.json` to additionally record an op-level profile of
//! the benchmark run: a chrome://tracing timeline at that path, plus a
//! metrics summary printed to stderr and embedded in `BENCH_kernels.json`.

use std::sync::Arc;
use std::time::Instant;

use tfe_bench::alloc::allocations_per_call;
use tfe_core::ConcreteFunction;
use tfe_parallel::{intra_threads, set_intra_threads};
use tfe_tensor::elementwise::{binary, BinaryOp};
use tfe_tensor::reduce::{reduce, ReduceOp};
use tfe_tensor::{conv, matmul, softmax, Shape, TensorData};

/// One benchmarked kernel invocation.
struct Case {
    /// Identifier used in the report and JSON rows.
    name: &'static str,
    /// Human-readable shape summary.
    shape: String,
    /// The kernel call being timed.
    run: Box<dyn Fn()>,
    /// The seed implementation of the same kernel (pre-blocking naive
    /// loop), when one is kept around as a reference; timed to record the
    /// speedup of the cache-blocked layer independent of threading.
    seed: Option<Box<dyn Fn()>>,
}

fn f32_tensor(dims: &[usize]) -> TensorData {
    let n: usize = dims.iter().product();
    // Deterministic, non-trivial values; avoids denormals.
    let v: Vec<f32> = (0..n).map(|i| ((i % 97) as f32 - 48.0) * 0.125).collect();
    TensorData::from_vec(v, Shape::new(dims.to_vec())).expect("f32 tensor")
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();

    for (m, k, n) in [(512usize, 512usize, 512usize), (192, 192, 192), (64, 64, 64)] {
        let a = f32_tensor(&[m, k]);
        let b = f32_tensor(&[k, n]);
        let (ar, br) = (a.clone(), b.clone());
        out.push(Case {
            name: match m {
                512 => "matmul_512",
                192 => "matmul_192",
                _ => "matmul_64",
            },
            shape: format!("({m}x{k})x({k}x{n}) f32"),
            run: Box::new(move || {
                matmul::matmul(&a, &b, false, false).expect("matmul");
            }),
            seed: Some(Box::new(move || {
                let mut out = vec![0.0f32; m * n];
                matmul::matmul_reference(
                    ar.as_slice::<f32>().unwrap(),
                    br.as_slice::<f32>().unwrap(),
                    m,
                    k,
                    n,
                    false,
                    false,
                    &mut out,
                );
            })),
        });
    }

    {
        let a = f32_tensor(&[512, 256]);
        let b = f32_tensor(&[512, 256]);
        let (ar, br) = (a.clone(), b.clone());
        out.push(Case {
            name: "matmul_tn_512x256",
            shape: "(512x256)^T x (512x256) f32".to_string(),
            run: Box::new(move || {
                matmul::matmul(&a, &b, true, false).expect("matmul_tn");
            }),
            seed: Some(Box::new(move || {
                let mut out = vec![0.0f32; 256 * 256];
                matmul::matmul_reference(
                    ar.as_slice::<f32>().unwrap(),
                    br.as_slice::<f32>().unwrap(),
                    256,
                    512,
                    256,
                    true,
                    false,
                    &mut out,
                );
            })),
        });
    }

    {
        let x = f32_tensor(&[8, 32, 32, 16]);
        let f = f32_tensor(&[3, 3, 16, 32]);
        let (xr, fr) = (x.clone(), f.clone());
        let g = conv::conv2d_geometry(x.shape(), f.shape(), (1, 1), conv::Padding::Same)
            .expect("conv geometry");
        out.push(Case {
            name: "conv2d_8x32x32x16_k3x3x32",
            shape: "NHWC 8x32x32x16, HWIO 3x3x16x32, same".to_string(),
            run: Box::new(move || {
                conv::conv2d(&x, &f, (1, 1), conv::Padding::Same).expect("conv2d");
            }),
            seed: Some(Box::new(move || {
                conv::conv2d_reference(
                    xr.as_slice::<f32>().unwrap(),
                    fr.as_slice::<f32>().unwrap(),
                    &g,
                );
            })),
        });
    }

    {
        let a = f32_tensor(&[1 << 20]);
        out.push(Case {
            name: "reduce_sum_1m",
            shape: "1048576 f32, all axes".to_string(),
            run: Box::new(move || {
                reduce(&a, &[], false, ReduceOp::Sum).expect("reduce");
            }),
            seed: None,
        });
    }

    {
        let a = f32_tensor(&[2048, 512]);
        out.push(Case {
            name: "reduce_sum_rows_2048x512",
            shape: "2048x512 f32, axis 1".to_string(),
            run: Box::new(move || {
                reduce(&a, &[1], false, ReduceOp::Sum).expect("reduce rows");
            }),
            seed: None,
        });
    }

    {
        let a = f32_tensor(&[256, 1024]);
        out.push(Case {
            name: "softmax_256x1024",
            shape: "256x1024 f32".to_string(),
            run: Box::new(move || {
                softmax::softmax(&a).expect("softmax");
            }),
            seed: None,
        });
    }

    {
        let a = f32_tensor(&[1 << 20]);
        let b = f32_tensor(&[1 << 20]);
        out.push(Case {
            name: "add_1m",
            shape: "1048576 f32".to_string(),
            run: Box::new(move || {
                binary(&a, &b, BinaryOp::Add).expect("add");
            }),
            seed: None,
        });
    }

    {
        let a = f32_tensor(&[256, 1, 512]);
        let b = f32_tensor(&[1, 64, 512]);
        out.push(Case {
            name: "mul_broadcast_256x64x512",
            shape: "(256x1x512) * (1x64x512) f32".to_string(),
            run: Box::new(move || {
                binary(&a, &b, BinaryOp::Mul).expect("broadcast mul");
            }),
            seed: None,
        });
    }

    out
}

/// Fused-elementwise executor: a 10-op f32 chain over 1M elements, timed
/// unfused (one eager kernel per op, ten passes over memory) and fused-tiled (the compiled tile executor:
/// one pass over memory in cache-resident tiles). The two must agree
/// bitwise before anything is timed, and tiled must win by >= 2x. The row
/// also records the one-time decode+compile cost a fused node pays when it
/// is made or decoded.
fn bench_fused_chain(iters: usize, reps: usize, quick: bool) -> tfe_encode::Value {
    use tfe_graph::program::Program;
    use tfe_tensor::elementwise::{unary, UnaryOp};

    const N: usize = 1 << 20;
    let text = "in:0;in:1;b:mul:0:1;b:add:2:1;u:abs:3;u:neg:4;b:add:5:0;\
                u:relu:6;b:sub:7:1;u:square:8;b:maximum:9:0;u:neg:10|11";
    let a = f32_tensor(&[N]);
    let b = {
        let v: Vec<f32> = (0..N).map(|i| ((i % 89) as f32 - 44.0) * 0.25).collect();
        TensorData::from_vec(v, Shape::new(vec![N])).expect("b tensor")
    };

    let compiled = Program::decode(text).expect("fused chain decodes").compile();
    let ops = compiled.op_count();

    let unfused = {
        let (a, b) = (a.clone(), b.clone());
        move || -> TensorData {
            let t = binary(&a, &b, BinaryOp::Mul).unwrap();
            let t = binary(&t, &b, BinaryOp::Add).unwrap();
            let t = unary(&t, UnaryOp::Abs).unwrap();
            let t = unary(&t, UnaryOp::Neg).unwrap();
            let t = binary(&t, &a, BinaryOp::Add).unwrap();
            let t = unary(&t, UnaryOp::Relu).unwrap();
            let t = binary(&t, &b, BinaryOp::Sub).unwrap();
            let t = unary(&t, UnaryOp::Square).unwrap();
            let t = binary(&t, &a, BinaryOp::Maximum).unwrap();
            unary(&t, UnaryOp::Neg).unwrap()
        }
    };

    // Bitwise agreement before timing anything.
    let bits = |t: &TensorData| -> Vec<u32> {
        t.as_slice::<f32>().unwrap().iter().map(|x| x.to_bits()).collect()
    };
    let want = bits(&unfused());
    let tiled_out = compiled.eval(&[&a, &b]).expect("tiled eval");
    assert_eq!(want, bits(&tiled_out), "fused-tiled must match the unfused chain bitwise");

    let unfused_ns = time_ns(iters, reps, &|| {
        unfused();
    });
    let tiled_ns = time_ns(iters, reps, &|| {
        compiled.eval(&[&a, &b]).expect("tiled eval");
    });

    // The string parse + register planning happen once per fused node, when
    // it is made or decoded; the node holds the result.
    let decode_ns = time_ns(iters.max(100), reps, &|| {
        Program::decode(text).expect("decode").compile();
    });

    let vs_unfused = unfused_ns / tiled_ns;
    println!(
        "{:<26} {:>14} {:>14.0} {:>14.0} {:>7.2}x {:>8}   {ops}-op chain, {N} f32",
        "fused_chain", "-", unfused_ns, tiled_ns, vs_unfused, "-"
    );
    // (for this row "serial ns/op" = unfused chain, "par ns/op" = tiled)

    assert!(
        vs_unfused >= 2.0,
        "fused-tiled must be >=2x over op-by-op on a {ops}-op {N}-element chain: \
         unfused {unfused_ns:.0} ns vs tiled {tiled_ns:.0} ns ({vs_unfused:.2}x)"
    );

    tfe_encode::Value::object(vec![
        ("ops".to_string(), tfe_encode::Value::Int(ops as i64)),
        ("elements".to_string(), tfe_encode::Value::Int(N as i64)),
        ("shape".to_string(), tfe_encode::Value::str("10-op 1M-element f32 chain")),
        ("unfused_ns_per_call".to_string(), tfe_encode::Value::Float(unfused_ns)),
        ("tiled_ns_per_call".to_string(), tfe_encode::Value::Float(tiled_ns)),
        ("tiled_speedup_vs_unfused".to_string(), tfe_encode::Value::Float(vs_unfused)),
        ("decode_compile_ns".to_string(), tfe_encode::Value::Float(decode_ns)),
        ("scratch_buffers".to_string(), tfe_encode::Value::Int(compiled.scratch_buffers() as i64)),
        ("environment".to_string(), environment(quick)),
    ])
}

/// Fused broadcasting chain: `tanh(x * w + bias) * scale`, the chain behind
/// a dense layer, with a trailing-axis bias and a scalar scale — staged as
/// a graph and run through the executor with fusion off (four nodes) and on
/// (one `fused_elementwise` node on the periodic-operand tile path), at the
/// L2HMC size and at a multi-tile size. The two graphs must agree bitwise
/// and fused must not be slower. The row also times the bias add alone
/// through `binary`'s periodic slice path and through a per-element map
/// that finds each operand's element with `broadcast_source_index`, the
/// reference the bits are checked against.
fn bench_fused_broadcast_chain(quick: bool) -> tfe_encode::Value {
    use tfe_graph::passes::{self, OptimizeOptions};
    use tfe_graph::GraphBuilder;
    use tfe_ops::{Attrs, SymShape};
    use tfe_runtime::{executor, ExecMode};
    use tfe_tensor::shape::broadcast_source_index;
    use tfe_tensor::DType;

    let device = tfe_runtime::context::device_manager().host_cpu();
    let reps = if quick { 3 } else { 7 };
    let mut cases = Vec::new();
    for dims in [vec![64usize, 10], vec![32, 32, 32, 16]] {
        let n: usize = dims.iter().product();
        // About 20 ms of calls per repetition at either size.
        let iters = (if quick { 400_000 } else { 2_000_000 } / n).max(3);
        let bias_dims = [dims[dims.len() - 1]];
        let known = |d: &[usize]| SymShape::known(&Shape::new(d.to_vec()));
        let mut b = GraphBuilder::new("bench_fused_broadcast_chain");
        let x = b.placeholder(DType::F32, known(&dims)).expect("x");
        let w = b.placeholder(DType::F32, known(&dims)).expect("w");
        let bias = b.placeholder(DType::F32, known(&bias_dims)).expect("bias");
        let scale = b.placeholder(DType::F32, SymShape::scalar()).expect("scale");
        let t = b.add_node("mul", vec![x, w], Attrs::new()).expect("mul")[0];
        let t = b.add_node("add", vec![t, bias], Attrs::new()).expect("add")[0];
        let t = b.add_node("tanh", vec![t], Attrs::new()).expect("tanh")[0];
        let t = b.add_node("mul", vec![t, scale], Attrs::new()).expect("mul")[0];
        let f = b.finish(vec![t], 0);
        let unfused_opts = OptimizeOptions { fuse_elementwise: false, ..Default::default() };
        let unfused = passes::optimize(&f, &unfused_opts, None);
        let fused = passes::optimize(&f, &OptimizeOptions::default(), None);
        assert_eq!((unfused.executable_node_count(), fused.executable_node_count()), (4, 1));

        let (xt, bt) = (f32_tensor(&dims), f32_tensor(&bias_dims));
        let args: Vec<Arc<TensorData>> = vec![
            Arc::new(xt.clone()),
            Arc::new(f32_tensor(&dims)),
            Arc::new(bt.clone()),
            Arc::new(TensorData::scalar(0.5f32)),
        ];
        let run = |g: &tfe_graph::GraphFunction| {
            executor::run_function(g, &args, &device, ExecMode::SerialPlanned).expect("staged run")
        };
        let bits = |t: &TensorData| -> Vec<u32> {
            t.as_slice::<f32>().unwrap().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(
            bits(&run(&unfused)[0]),
            bits(&run(&fused)[0]),
            "fused and unfused graphs must agree bitwise at {dims:?}"
        );
        let (unfused_ns, fused_ns) = time_pair_ns(
            iters,
            reps,
            &|| {
                run(&unfused);
            },
            &|| {
                run(&fused);
            },
        );
        // Equal within timer noise counts as not slower.
        assert!(
            fused_ns <= unfused_ns * 1.05,
            "fused must not be slower than unfused at {dims:?}: {fused_ns:.0} vs {unfused_ns:.0} ns"
        );

        let periodic_ns = time_ns(iters, reps, &|| {
            binary(&xt, &bt, BinaryOp::Add).expect("bias add");
        });
        let walker_add = || -> Vec<f32> {
            let (xv, bv) = (xt.as_slice::<f32>().unwrap(), bt.as_slice::<f32>().unwrap());
            let j = |i| broadcast_source_index(xt.shape().dims(), bt.shape().dims(), i);
            xv.iter().enumerate().map(|(i, &x)| BinaryOp::Add.eval_f32(x, bv[j(i)])).collect()
        };
        assert_eq!(
            bits(&binary(&xt, &bt, BinaryOp::Add).expect("bias add")),
            walker_add().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "periodic bias add must match the walker bitwise at {dims:?}"
        );
        let walker_ns = time_ns(iters, reps, &|| {
            std::hint::black_box(walker_add());
        });

        let shape = format!("{dims:?} f32, bias {bias_dims:?}, scalar scale");
        println!(
            "{:<26} {:>14} {:>14.0} {:>14.0} {:>8} {:>8}   {shape}; bias add periodic {:.0} ns, walker {:.0} ns",
            "fused_broadcast_chain", "-", unfused_ns, fused_ns, "-", "-", periodic_ns, walker_ns
        );
        // (for this row "serial ns/op" = unfused graph, "par ns/op" = fused)
        cases.push(tfe_encode::Value::object(vec![
            ("shape".to_string(), tfe_encode::Value::str(shape)),
            ("unfused_ns_per_call".to_string(), tfe_encode::Value::Float(unfused_ns)),
            ("fused_ns_per_call".to_string(), tfe_encode::Value::Float(fused_ns)),
            ("bias_add_periodic_ns".to_string(), tfe_encode::Value::Float(periodic_ns)),
            ("bias_add_walker_ns".to_string(), tfe_encode::Value::Float(walker_ns)),
        ]));
    }
    tfe_encode::Value::object(vec![
        ("program".to_string(), tfe_encode::Value::str("tanh(x * w + bias) * scale")),
        ("cases".to_string(), tfe_encode::Value::Array(cases)),
        ("environment".to_string(), environment(quick)),
    ])
}

/// What the optimizer folds constants with: the runtime's own kernels.
fn kernel_evaluator(
    node: &tfe_graph::Node,
    ins: &[std::sync::Arc<TensorData>],
) -> Result<Vec<TensorData>, String> {
    tfe_runtime::kernels::run_kernel(node.op, &node.params, ins).map_err(|e| e.to_string())
}

/// The training step of the repo benchmark's `l2hmc_small_ops` (64 chains,
/// 10 leapfrog steps, hidden 10; loss, `gradient_vars`, Adam), traced once.
fn l2hmc_train_step() -> Arc<ConcreteFunction> {
    use tfe_autodiff::GradientTape;
    use tfe_core::Arg;
    use tfe_nn::l2hmc::{L2hmc, StronglyCorrelatedGaussian};
    use tfe_nn::{Adam, Initializer, Optimizer};
    use tfe_runtime::{Tensor, Variable};

    let target = Arc::new(StronglyCorrelatedGaussian::new());
    let sampler = L2hmc::new(target, 10, 10, 0.1, &mut Initializer::seeded(1));
    let vars = sampler.variables();
    let opt = Adam::new(1e-3);
    let step = tfe_core::function("l2hmc_train_step", move |args| {
        let x = args[0].as_tensor().expect("x");
        let tape = GradientTape::new();
        let loss = sampler.loss(x, 1.0)?;
        let refs: Vec<&Variable> = vars.iter().collect();
        let grads = tape.gradient_vars(&loss, &refs)?;
        let pairs: Vec<(Tensor, Variable)> =
            grads.into_iter().zip(&vars).filter_map(|(g, v)| g.map(|g| (g, v.clone()))).collect();
        opt.apply(&pairs)?;
        Ok(vec![loss])
    });
    let x = Tensor::from_data(f32_tensor(&[64, 2]));
    step.concrete_for(&[Arg::from(&x)]).expect("trace the l2hmc step")
}

/// The optimizer's own cost on an L2HMC-sized graph: the median time of
/// `optimize_with_stats` over the raw graph of [`l2hmc_train_step`] — most
/// of what a first call of that step costs.
fn l2hmc_step_optimize(concrete: &ConcreteFunction, runs: usize) -> tfe_encode::Value {
    use tfe_graph::passes::{self, OptimizeOptions};

    let optimize = || {
        passes::optimize_with_stats(
            &concrete.raw,
            &OptimizeOptions::default(),
            Some(&kernel_evaluator),
        )
    };
    let mut ms: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(optimize());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    let (optimized, stats) = optimize();
    tfe_encode::Value::object(vec![
        ("optimize_ms".to_string(), tfe_encode::Value::Float(ms[runs / 2])),
        ("runs".to_string(), tfe_encode::Value::Int(runs as i64)),
        ("nodes_before".to_string(), int(concrete.raw.executable_node_count())),
        ("nodes_after".to_string(), int(optimized.executable_node_count())),
        ("rounds".to_string(), tfe_encode::Value::Int(stats.sweeps as i64)),
        ("total_rewrites".to_string(), tfe_encode::Value::Int(stats.total_rewrites() as i64)),
    ])
}

fn int(n: usize) -> tfe_encode::Value {
    tfe_encode::Value::Int(n as i64)
}

/// What a row was measured on: hardware threads, intra-op pool size, and
/// whether this was a `--quick` smoke run.
fn environment(quick: bool) -> tfe_encode::Value {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    tfe_encode::Value::object(vec![
        ("nproc".to_string(), int(nproc)),
        ("intra_op_threads".to_string(), int(intra_threads())),
        ("quick".to_string(), tfe_encode::Value::Bool(quick)),
    ])
}

/// Optimized-vs-unoptimized staged step: a graph deliberately rich in
/// rewrite opportunities (identity chains, `x*1`/`x+-0` constants, double
/// transposes, a transpose feeding matmul, duplicated subexpressions and
/// a static `shape_of`) is executed as traced and after the optimizer. The
/// delta is what the optimizer buys per staged step; the row also records
/// how many replay rounds it took, how many nodes it removed, what it costs
/// on an L2HMC-sized step, and the environment all of that was measured in.
fn bench_pass_pipeline(
    l2hmc_step: &ConcreteFunction,
    iters: usize,
    reps: usize,
    quick: bool,
) -> tfe_encode::Value {
    use tfe_graph::passes::{self, OptimizeOptions};
    use tfe_graph::GraphBuilder;
    use tfe_ops::{Attrs, SymShape};
    use tfe_runtime::{executor, ExecMode};
    use tfe_tensor::DType;

    let dims = [32usize, 32];
    let mut b = GraphBuilder::new("bench_pass_pipeline");
    let x = b
        .placeholder(DType::F64, SymShape::known(&tfe_tensor::Shape::new(dims.to_vec())))
        .expect("placeholder");
    let mut t = x;
    // Identity-element noise: every op here is removable by the algebraic
    // pass, and every constant is CSE/prune fodder once its consumer dies.
    for _ in 0..12 {
        let one = b.constant(Arc::new(TensorData::scalar(1.0f64))).expect("const 1");
        t = b.add_node("mul", vec![t, one], Attrs::new()).expect("mul")[0];
        // `-0.0`: the zero that leaves every `x`, a `-0.0` included, as it is.
        let zero = b.constant(Arc::new(TensorData::scalar(-0.0f64))).expect("const -0");
        t = b.add_node("add", vec![t, zero], Attrs::new()).expect("add")[0];
        t = b.add_node("identity", vec![t], Attrs::new()).expect("identity")[0];
    }
    // Double transposes cancel, each pair against the one before it.
    let perm = || Attrs::new().with("perm", vec![1i64, 0]);
    for _ in 0..4 {
        let inner = b.add_node("transpose", vec![t], perm()).expect("transpose")[0];
        t = b.add_node("transpose", vec![inner], perm()).expect("transpose")[0];
    }
    // Duplicate subexpressions for CSE, then a transpose absorbed into
    // the matmul as `transpose_a`.
    let u1 = b.add_node("tanh", vec![t], Attrs::new()).expect("tanh")[0];
    let u2 = b.add_node("tanh", vec![t], Attrs::new()).expect("tanh")[0];
    let s = b.add_node("add", vec![u1, u2], Attrs::new()).expect("add")[0];
    let tr = b.add_node("transpose", vec![s], perm()).expect("transpose")[0];
    let m = b.add_node("matmul", vec![tr, s], Attrs::new()).expect("matmul")[0];
    // Static metadata: folds to a constant under propagate_constants.
    let sh = b.add_node("shape_of", vec![x], Attrs::new()).expect("shape_of")[0];
    let f = b.finish(vec![m, sh], 0);

    let (optimized, stats) =
        passes::optimize_with_stats(&f, &OptimizeOptions::default(), Some(&kernel_evaluator));

    let device = tfe_runtime::context::device_manager().host_cpu();
    let args: Vec<Arc<TensorData>> = vec![Arc::new(f32_tensor(&dims).cast(DType::F64))];

    // Agreement first: a faster pipeline that changes answers is a bug,
    // not a speedup. Matmul via `transpose_a` may reassociate: allow 1e-9.
    let raw_out = executor::run_function(&f, &args, &device, ExecMode::SerialPlanned)
        .expect("raw staged run");
    let opt_out = executor::run_function(&optimized, &args, &device, ExecMode::SerialPlanned)
        .expect("optimized staged run");
    for (k, (r, o)) in raw_out.iter().zip(&opt_out).enumerate() {
        assert!(r.all_close(o, 1e-9, 1e-9), "pass_pipeline output {k} diverged");
    }

    let raw_ns = time_ns(iters, reps, &|| {
        executor::run_function(&f, &args, &device, ExecMode::SerialPlanned).expect("raw step");
    });
    let opt_ns = time_ns(iters, reps, &|| {
        executor::run_function(&optimized, &args, &device, ExecMode::SerialPlanned)
            .expect("optimized step");
    });
    let speedup = raw_ns / opt_ns;
    let (before, after) = (f.executable_node_count(), optimized.executable_node_count());
    println!(
        "{:<26} {:>14} {:>14.0} {:>14.0} {:>7.2}x {:>8}   {} -> {} nodes, {} rounds",
        "pass_pipeline", "-", raw_ns, opt_ns, speedup, "-", before, after, stats.sweeps
    );
    // (for this row "serial ns/op" = unoptimized staged step, "par ns/op"
    //  = optimized staged step)
    let l2hmc = l2hmc_step_optimize(l2hmc_step, if quick { 5 } else { 15 });
    println!("{:<26} l2hmc-sized step: {}", "pass_pipeline", l2hmc.to_json());

    let rewrites: Vec<tfe_encode::Value> = stats
        .rewrites
        .iter()
        .map(|(pass, n)| {
            tfe_encode::Value::object(vec![
                ("pass".to_string(), tfe_encode::Value::str(*pass)),
                ("rewrites".to_string(), tfe_encode::Value::Int(*n as i64)),
            ])
        })
        .collect();
    tfe_encode::Value::object(vec![
        ("environment".to_string(), environment(quick)),
        ("l2hmc_step".to_string(), l2hmc),
        ("shape".to_string(), tfe_encode::Value::str("32x32 f64 rewrite-rich staged step")),
        ("unoptimized_ns_per_step".to_string(), tfe_encode::Value::Float(raw_ns)),
        ("optimized_ns_per_step".to_string(), tfe_encode::Value::Float(opt_ns)),
        ("speedup".to_string(), tfe_encode::Value::Float(speedup)),
        ("nodes_before".to_string(), int(before)),
        ("nodes_after".to_string(), int(after)),
        ("sweeps".to_string(), tfe_encode::Value::Int(stats.sweeps as i64)),
        ("converged".to_string(), tfe_encode::Value::Bool(stats.converged)),
        ("total_rewrites".to_string(), tfe_encode::Value::Int(stats.total_rewrites() as i64)),
        ("rewrites".to_string(), tfe_encode::Value::Array(rewrites)),
    ])
}

/// Serial vs parallel executor driver on a wide graph: 12 independent
/// `tanh(exp(x))` branches over 65 536 f32 elements, summed, run whole by
/// the inline driver (`SerialPlanned`) and by the pool driver (`Parallel`),
/// which has inter-op parallelism to use here. The two must agree bitwise
/// before either is timed.
fn bench_wide_graph(iters: usize, reps: usize, quick: bool) -> tfe_encode::Value {
    use tfe_graph::GraphBuilder;
    use tfe_ops::{Attrs, SymShape};
    use tfe_runtime::{executor, ExecMode};
    use tfe_tensor::DType;

    const N: usize = 65_536;
    const BRANCHES: usize = 12;
    let mut b = GraphBuilder::new("bench_wide_graph");
    let x = b.placeholder(DType::F32, SymShape::known(&Shape::from([N]))).expect("x");
    let mut sum = None;
    for _ in 0..BRANCHES {
        let t = b.add_node("exp", vec![x], Attrs::new()).expect("exp")[0];
        let t = b.add_node("tanh", vec![t], Attrs::new()).expect("tanh")[0];
        sum = Some(match sum {
            None => t,
            Some(acc) => b.add_node("add", vec![acc, t], Attrs::new()).expect("add")[0],
        });
    }
    let f = b.finish(vec![sum.expect("at least one branch")], 0);
    let device = tfe_runtime::context::device_manager().host_cpu();
    let args = [Arc::new(f32_tensor(&[N]))];
    let run = |mode| executor::run_function(&f, &args, &device, mode).expect("wide graph run");
    let bits = |t: &TensorData| -> Vec<u32> {
        t.as_slice::<f32>().unwrap().iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(
        bits(&run(ExecMode::SerialPlanned)[0]),
        bits(&run(ExecMode::Parallel)[0]),
        "serial and parallel drivers must agree bitwise on the wide graph"
    );

    let serial_ns = time_ns(iters, reps, &|| {
        run(ExecMode::SerialPlanned);
    });
    let parallel_ns = time_ns(iters, reps, &|| {
        run(ExecMode::Parallel);
    });
    let speedup = serial_ns / parallel_ns;
    let shape = format!("{BRANCHES} branches of tanh(exp(x)) over {N} f32, summed");
    println!(
        "{:<26} {:>14} {:>14.0} {:>14.0} {:>7.2}x {:>8}   {shape}",
        "wide_graph", "-", serial_ns, parallel_ns, speedup, "-"
    );
    // (for this row "serial ns/op" = a SerialPlanned run, "par ns/op" = a
    //  Parallel run)
    tfe_encode::Value::object(vec![
        ("shape".to_string(), tfe_encode::Value::str(shape)),
        ("nodes".to_string(), int(f.executable_node_count())),
        ("serial_ns_per_run".to_string(), tfe_encode::Value::Float(serial_ns)),
        ("parallel_ns_per_run".to_string(), tfe_encode::Value::Float(parallel_ns)),
        ("speedup".to_string(), tfe_encode::Value::Float(speedup)),
        ("environment".to_string(), environment(quick)),
    ])
}

/// Small products, unpacked against packed: every distinct `matmul` of the
/// staged L2HMC training step ([`l2hmc_train_step`]'s optimized graph), run
/// through the register tiles on the operands in place
/// (`gemm_unpacked_into`, what `matmul` runs below `DIRECT_MADDS`
/// multiply-adds) and on packed panels (`gemm_into`), each allocating its
/// zeroed output as `matmul` does. Both must give
/// `matmul_reference`'s bits before either is timed. The per-step totals
/// weigh each shape by how often the step runs it.
fn bench_small_matmul(l2hmc_step: &ConcreteFunction, quick: bool) -> tfe_encode::Value {
    use std::collections::BTreeMap;
    use tfe_ops::Op;
    use tfe_tensor::gemm::{gemm_into, gemm_unpacked_into};

    let g = &l2hmc_step.function;
    let mut shapes: BTreeMap<(usize, usize, usize, bool, bool), usize> = BTreeMap::new();
    for node in g.nodes.iter().filter(|n| n.op == Op::Matmul) {
        let dims = |i: usize| {
            let t = node.inputs[i];
            g.node(t.node).outputs[t.output].1.to_shape().expect("a static operand shape")
        };
        let tfe_ops::Params::Matmul { transpose_a: ta, transpose_b: tb } = node.params else {
            panic!("a matmul holds its transpose flags");
        };
        let (a, b) = (dims(0), dims(1));
        let (m, k) = if ta { (a.dim(1), a.dim(0)) } else { (a.dim(0), a.dim(1)) };
        let n = if tb { b.dim(0) } else { b.dim(1) };
        *shapes.entry((m, k, n, ta, tb)).or_default() += 1;
    }
    let (iters, reps) = if quick { (500, 3) } else { (5_000, 7) };
    let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
    let (mut cases, mut direct_step, mut packed_step) = (Vec::new(), 0.0, 0.0);
    for (&(m, k, n, ta, tb), &calls) in &shapes {
        assert!(m * k * n < matmul::DIRECT_MADDS, "{m}x{k}x{n} is not a direct product");
        let (a, b) = (f32_tensor(&[m * k]), f32_tensor(&[k * n]));
        let (av, bv) = (a.as_slice::<f32>().unwrap(), b.as_slice::<f32>().unwrap());
        let direct = || {
            let mut out = vec![0.0f32; m * n];
            gemm_unpacked_into(m, k, n, av, ta, bv, tb, &mut out);
            out
        };
        let packed = || {
            let mut out = vec![0.0f32; m * n];
            gemm_into(m, k, n, av, ta, bv, tb, &mut out, true);
            out
        };
        let mut want = vec![0.0f32; m * n];
        matmul::matmul_reference(av, bv, m, k, n, ta, tb, &mut want);
        let shape = format!(
            "({m}x{k}){} x ({k}x{n}){}",
            if ta { " from (k,m)" } else { "" },
            if tb { " from (n,k)" } else { "" }
        );
        assert_eq!(bits(&direct()), bits(&want), "direct {shape} must be the reference's bits");
        assert_eq!(bits(&packed()), bits(&want), "packed {shape} must be the reference's bits");
        let direct_ns = time_ns(iters, reps, &|| {
            std::hint::black_box(direct());
        });
        let packed_ns = time_ns(iters, reps, &|| {
            std::hint::black_box(packed());
        });
        println!(
            "{:<26} {:>14} {:>14.0} {:>14.0} {:>7.2}x {:>8}   {shape} f32, {calls} a step",
            "small_matmul",
            "-",
            packed_ns,
            direct_ns,
            packed_ns / direct_ns,
            "-"
        );
        // (for this row "serial ns/op" = packed, "par ns/op" = unpacked)
        direct_step += direct_ns * calls as f64;
        packed_step += packed_ns * calls as f64;
        cases.push(tfe_encode::Value::object(vec![
            ("shape".to_string(), tfe_encode::Value::str(shape)),
            ("calls_per_step".to_string(), int(calls)),
            ("direct_ns".to_string(), tfe_encode::Value::Float(direct_ns)),
            ("packed_ns".to_string(), tfe_encode::Value::Float(packed_ns)),
            ("speedup".to_string(), tfe_encode::Value::Float(packed_ns / direct_ns)),
        ]));
    }
    tfe_encode::Value::object(vec![
        ("threshold_madds".to_string(), int(matmul::DIRECT_MADDS)),
        ("cases".to_string(), tfe_encode::Value::Array(cases)),
        ("direct_us_per_step".to_string(), tfe_encode::Value::Float(direct_step / 1e3)),
        ("packed_us_per_step".to_string(), tfe_encode::Value::Float(packed_step / 1e3)),
        ("environment".to_string(), environment(quick)),
    ])
}

/// Counts heap allocations for the `eager_dispatch` row.
#[global_allocator]
static GLOBAL: tfe_bench::alloc::CountingAlloc = tfe_bench::alloc::CountingAlloc;

/// Eager dispatch, per op: wall-clock ns of an untaped and a taped scalar
/// f32 `add` and an untaped `[64,2]` f32 `mul` (an l2hmc operand shape),
/// backward ns per op over a 200-op `mul`/`add` chain, and heap allocations
/// per op for those three, a `Variable::read` and a cache-hit `Func::call1`
/// of a one-op function. `tests/eager_allocations.rs` gates the first three
/// counts.
fn bench_eager_dispatch(quick: bool) -> tfe_encode::Value {
    use tfe_autodiff::GradientTape;
    use tfe_runtime::{api, Variable};

    const CHAIN: usize = 200;
    let (iters, reps) = if quick { (2_000, 3) } else { (20_000, 7) };
    let (a, b) = (api::scalar(1.5f32), api::scalar(0.25f32));
    let x = api::constant((0..128).map(|i| i as f32 * 0.5).collect::<Vec<_>>(), [64, 2])
        .expect("[64,2] operand");
    let add = || {
        std::hint::black_box(api::add(&a, &b).expect("add"));
    };
    let mul = || {
        std::hint::black_box(api::mul(&x, &x).expect("mul"));
    };
    let add_ns = time_ns(iters, reps, &add);
    let mul_ns = time_ns(iters, reps, &mul);
    // A fresh tape per 500 ops keeps what it records short.
    let taped_ns = (0..reps)
        .map(|_| {
            let tape = GradientTape::new();
            tape.watch(&a);
            let t = Instant::now();
            for _ in 0..500 {
                add();
            }
            t.elapsed().as_nanos() as f64 / 500.0
        })
        .fold(f64::INFINITY, f64::min);
    let backward_ns = (0..reps)
        .map(|_| {
            let tape = GradientTape::new();
            tape.watch(&a);
            let mut y = a.clone();
            for i in 0..CHAIN {
                y = if i % 2 == 0 { api::mul(&y, &b) } else { api::add(&y, &b) }.expect("chain op");
            }
            let t = Instant::now();
            std::hint::black_box(tape.gradient1(&y, &a).expect("gradient"));
            t.elapsed().as_nanos() as f64 / CHAIN as f64
        })
        .fold(f64::INFINITY, f64::min);

    let n = if quick { 200 } else { 1_000 };
    let add_allocs = allocations_per_call(n, add);
    let mul_allocs = allocations_per_call(n, mul);
    let taped_allocs = {
        let tape = GradientTape::new();
        tape.watch(&a);
        allocations_per_call(n, add)
    };
    let v = Variable::new(TensorData::scalar(2.0f32));
    let read_allocs = allocations_per_call(n, || {
        std::hint::black_box(v.read().expect("read"));
    });
    let f = tfe_core::function1("kernel_bench_eager_call", |t| api::add(t, t));
    let call_allocs = allocations_per_call(n, || {
        std::hint::black_box(f.call1(&a).expect("call"));
    });
    println!(
        "{:<26} {:>14} {:>14.0} {:>14.0} {:>8} {:>9}   ns/op scalar add untaped / taped; \
         [64,2] mul {mul_ns:.0} ns; backward {backward_ns:.0} ns/op; allocations/op: add \
         {add_allocs}, mul {mul_allocs}, taped add {taped_allocs}, read {read_allocs}, call1 \
         {call_allocs}",
        "eager_dispatch", "-", add_ns, taped_ns, "-", "-"
    );
    let float = tfe_encode::Value::Float;
    tfe_encode::Value::object(vec![
        ("add_ns_per_op".to_string(), float(add_ns)),
        ("add_taped_ns_per_op".to_string(), float(taped_ns)),
        ("mul_64x2_ns_per_op".to_string(), float(mul_ns)),
        ("backward_ns_per_op".to_string(), float(backward_ns)),
        ("backward_chain_ops".to_string(), int(CHAIN)),
        (
            "allocations_per_op".to_string(),
            tfe_encode::Value::object(vec![
                ("add".to_string(), float(add_allocs)),
                ("mul_64x2".to_string(), float(mul_allocs)),
                ("add_taped".to_string(), float(taped_allocs)),
                ("variable_read".to_string(), float(read_allocs)),
                ("call1_cache_hit".to_string(), float(call_allocs)),
            ]),
        ),
        ("environment".to_string(), environment(quick)),
    ])
}

/// Serving throughput: a small MLP behind the `tfe-serve` registry, hit by
/// 8 concurrent single-example clients. Three configurations — direct
/// staged calls from the client threads (no serving stack at all),
/// `max_batch = 1` through the serving front (queueing but no coalescing),
/// and the adaptive micro-batcher — and all three must agree bitwise on a
/// probe request before anything is timed. Batching pays twice here: the
/// per-call dispatch overhead amortizes across the batch, and the weight
/// matrices are read once per batch instead of once per request.
fn bench_serving(quick: bool) -> tfe_encode::Value {
    use std::sync::Barrier;
    use std::time::Duration;
    use tfe_core::{function1, Func, TensorSpec};
    use tfe_runtime::{api, Tensor};
    use tfe_serve::{BatchPolicy, ModelRegistry};
    use tfe_tensor::DType;

    const D: usize = 256;
    const CONCURRENCY: usize = 8;
    let reqs_per_client = if quick { 25 } else { 150 };
    let total = CONCURRENCY * reqs_per_client;

    let mlp = |name: &str| -> Func {
        function1(name, move |x| {
            let w1 = api::constant(
                (0..D * D).map(|i| ((i % 13) as f32 - 6.0) * 0.02).collect::<Vec<f32>>(),
                [D, D],
            )?;
            let b1 = api::constant(vec![0.05f32; D], [D])?;
            let w2 = api::constant(
                (0..D * D).map(|i| ((i % 17) as f32 - 8.0) * 0.02).collect::<Vec<f32>>(),
                [D, D],
            )?;
            let h = api::relu(&api::add(&api::matmul(x, &w1)?, &b1)?)?;
            api::softmax(&api::matmul(&h, &w2)?)
        })
        .with_input_signature(vec![TensorSpec::new(DType::F32, vec![None, Some(D)])])
    };
    let example = |i: usize| -> Tensor {
        let vals: Vec<f32> = (0..D).map(|j| ((i * 7 + j * 3) % 13) as f32 * 0.37 - 1.5).collect();
        api::constant(vals, [1, D]).expect("example")
    };

    type Client = Arc<dyn Fn(usize, &Tensor) -> Vec<f64> + Send + Sync>;
    // One wall-clock measurement: `CONCURRENCY` clients, each firing
    // `reqs_per_client` sequential single-example requests through `go`.
    let run_clients = |go: Client| -> f64 {
        let barrier = Arc::new(Barrier::new(CONCURRENCY + 1));
        let handles: Vec<_> = (0..CONCURRENCY)
            .map(|c| {
                let go = Arc::clone(&go);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for r in 0..reqs_per_client {
                        let i = c * reqs_per_client + r;
                        let out = go(i, &example(i));
                        assert_eq!(out.len(), D, "request {i} returned a malformed row");
                    }
                })
            })
            .collect();
        barrier.wait();
        let t = Instant::now();
        for h in handles {
            h.join().expect("serving client");
        }
        t.elapsed().as_nanos() as f64 / total as f64
    };

    let direct_fn = mlp("serving_bench_direct");
    let registry = Arc::new(ModelRegistry::new());
    let policy = |max_batch: usize| BatchPolicy { max_batch, budget: Duration::from_millis(2) };
    registry
        .register_with("serving_bench_unbatched", 1, mlp("serving_bench_unbatched"), policy(1))
        .expect("register unbatched");
    registry
        .register_with(
            "serving_bench_batched",
            1,
            mlp("serving_bench_batched"),
            policy(CONCURRENCY),
        )
        .expect("register batched");

    // Bitwise agreement across all three paths before timing any of them.
    let probe = example(7);
    let want = direct_fn.call_tensors(&[&probe]).expect("direct probe")[0]
        .to_f64_vec()
        .expect("probe row");
    for name in ["serving_bench_unbatched", "serving_bench_batched"] {
        let got = registry.infer(name, &[&probe]).expect("probe infer")[0]
            .to_f64_vec()
            .expect("probe row");
        assert_eq!(want, got, "{name} must match the direct staged call bitwise");
    }

    let direct_ns = run_clients(Arc::new(move |_i, x: &Tensor| {
        direct_fn.call_tensors(&[x]).expect("direct call")[0].to_f64_vec().expect("row")
    }));
    let unbatched_ns = {
        let registry = Arc::clone(&registry);
        run_clients(Arc::new(move |_i, x: &Tensor| {
            registry.infer("serving_bench_unbatched", &[x]).expect("unbatched infer")[0]
                .to_f64_vec()
                .expect("row")
        }))
    };
    let batched_ns = {
        let registry = Arc::clone(&registry);
        run_clients(Arc::new(move |_i, x: &Tensor| {
            registry.infer("serving_bench_batched", &[x]).expect("batched infer")[0]
                .to_f64_vec()
                .expect("row")
        }))
    };

    // Observed coalescing, from the model's own metric family.
    let snap = tfe_metrics::snapshot();
    let mean_rows = snap
        .family("tfe_serve_batch_rows")
        .and_then(|fam| {
            fam.samples
                .iter()
                .find(|s| s.label.as_ref().is_some_and(|(_, v)| v == "serving_bench_batched@v1"))
                .and_then(|s| match &s.value {
                    tfe_metrics::SampleValue::Histogram(h) => Some(h.mean()),
                    _ => None,
                })
        })
        .unwrap_or(0.0);

    let speedup = unbatched_ns / batched_ns;
    let vs_direct = direct_ns / batched_ns;
    println!(
        "{:<26} {:>14.0} {:>14.0} {:>14.0} {:>7.2}x {:>7.2}x   {CONCURRENCY} clients x \
         {reqs_per_client} reqs, {D}-wide MLP, mean batch {mean_rows:.1} rows \
         (direct / unbatched / batched)",
        "serving", direct_ns, unbatched_ns, batched_ns, speedup, vs_direct
    );

    // The >=2x claim is a wall-clock ratio that needs real concurrency to
    // hold; on a loaded or low-core runner it flakes, so the assertion is
    // gated on hardware threads.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 4 {
        assert!(
            speedup >= 2.0,
            "batched serving must be >=2x over the unbatched front at concurrency \
             {CONCURRENCY} on {cores} cores: unbatched {unbatched_ns:.0} ns/req vs batched \
             {batched_ns:.0} ns/req ({speedup:.2}x, mean batch {mean_rows:.1} rows)"
        );
        assert!(
            mean_rows > 1.5,
            "the adaptive batcher must actually coalesce at concurrency {CONCURRENCY}: \
             mean batch was {mean_rows:.2} rows"
        );
        eprintln!(
            "serving asserted: {speedup:.2}x over unbatched, mean batch {mean_rows:.1} rows \
             on {cores} cores"
        );
    } else {
        eprintln!("serving assertion skipped: {cores} hardware thread(s) < 4");
    }

    tfe_encode::Value::object(vec![
        ("concurrency".to_string(), tfe_encode::Value::Int(CONCURRENCY as i64)),
        ("requests".to_string(), tfe_encode::Value::Int(total as i64)),
        (
            "shape".to_string(),
            tfe_encode::Value::str(format!("2-layer {D}-wide f32 MLP, 1 row/req")),
        ),
        ("direct_ns_per_req".to_string(), tfe_encode::Value::Float(direct_ns)),
        ("unbatched_ns_per_req".to_string(), tfe_encode::Value::Float(unbatched_ns)),
        ("batched_ns_per_req".to_string(), tfe_encode::Value::Float(batched_ns)),
        ("speedup_vs_unbatched".to_string(), tfe_encode::Value::Float(speedup)),
        ("speedup_vs_direct".to_string(), tfe_encode::Value::Float(vs_direct)),
        ("mean_batch_rows".to_string(), tfe_encode::Value::Float(mean_rows)),
        ("environment".to_string(), environment(quick)),
    ])
}

/// Best-of-`reps` mean ns/op over `iters` iterations each.
fn time_ns(iters: usize, reps: usize, f: &dyn Fn()) -> f64 {
    f(); // warm caches / allocator outside the timed region
    (0..reps).map(|_| block_ns(iters, f)).fold(f64::INFINITY, f64::min)
}

/// [`time_ns`] of `a` and of `b`, interleaved: each rep times one block of
/// each, alternating which goes first, so a slow stretch of a loaded host
/// lands on both sides rather than on whichever was timed second.
fn time_pair_ns(iters: usize, reps: usize, a: &dyn Fn(), b: &dyn Fn()) -> (f64, f64) {
    a();
    b();
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for rep in 0..reps {
        if rep % 2 == 0 {
            best_a = best_a.min(block_ns(iters, a));
            best_b = best_b.min(block_ns(iters, b));
        } else {
            best_b = best_b.min(block_ns(iters, b));
            best_a = best_a.min(block_ns(iters, a));
        }
    }
    (best_a, best_b)
}

/// Mean ns/op of one block of `iters` calls.
fn block_ns(iters: usize, f: &dyn Fn()) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

fn main() {
    tfe_core::init();
    let quick = std::env::args().any(|a| a == "--quick");
    let (iters, reps) = if quick { (2, 1) } else { (10, 3) };
    let trace_path = tfe_profile::env_trace_path();
    if trace_path.is_some() {
        tfe_profile::start();
    }

    println!(
        "{:<26} {:>14} {:>14} {:>14} {:>8} {:>9}   shape",
        "kernel", "seed ns/op", "serial ns/op", "par ns/op", "par x", "vs seed"
    );
    let mut rows: Vec<tfe_encode::Value> = Vec::new();
    for case in cases() {
        let prev = set_intra_threads(Some(1));
        let serial_ns = time_ns(iters, reps, &*case.run);
        let seed_ns = case.seed.as_deref().map(|s| time_ns(iters, reps, s));
        set_intra_threads(prev);
        let parallel_ns = time_ns(iters, reps, &*case.run);
        let speedup = serial_ns / parallel_ns;
        let vs_seed = seed_ns.map(|s| s / parallel_ns);
        println!(
            "{:<26} {:>14} {:>14.0} {:>14.0} {:>7.2}x {:>8}   {}",
            case.name,
            seed_ns.map_or("-".to_string(), |s| format!("{s:.0}")),
            serial_ns,
            parallel_ns,
            speedup,
            vs_seed.map_or("-".to_string(), |s| format!("{s:.2}x")),
            case.shape
        );
        let mut fields = vec![
            ("kernel".to_string(), tfe_encode::Value::str(case.name)),
            ("shape".to_string(), tfe_encode::Value::str(case.shape.clone())),
            ("serial_ns_per_op".to_string(), tfe_encode::Value::Float(serial_ns)),
            ("parallel_ns_per_op".to_string(), tfe_encode::Value::Float(parallel_ns)),
            ("speedup".to_string(), tfe_encode::Value::Float(speedup)),
        ];
        if let (Some(seed), Some(vs)) = (seed_ns, vs_seed) {
            fields.push(("seed_ns_per_op".to_string(), tfe_encode::Value::Float(seed)));
            fields.push(("speedup_vs_seed".to_string(), tfe_encode::Value::Float(vs)));
        }
        fields.push(("environment".to_string(), environment(quick)));
        rows.push(tfe_encode::Value::object(fields));
    }

    let fused_row = bench_fused_chain(iters, reps, quick);
    let fused_broadcast_row = bench_fused_broadcast_chain(quick);
    let l2hmc_step = l2hmc_train_step();
    let pass_row = bench_pass_pipeline(&l2hmc_step, iters * 20, reps, quick);
    let small_matmul_row = bench_small_matmul(&l2hmc_step, quick);
    let wide_row = bench_wide_graph(iters, reps, quick);
    let eager_row = bench_eager_dispatch(quick);
    let serving_row = bench_serving(quick);

    let mut fields = vec![
        ("experiment".to_string(), tfe_encode::Value::str("kernels")),
        ("fused_chain".to_string(), fused_row),
        ("fused_broadcast_chain".to_string(), fused_broadcast_row),
        ("pass_pipeline".to_string(), pass_row),
        ("small_matmul".to_string(), small_matmul_row),
        ("wide_graph".to_string(), wide_row),
        ("eager_dispatch".to_string(), eager_row),
        ("serving".to_string(), serving_row),
        ("rows".to_string(), tfe_encode::Value::Array(rows)),
    ];
    if let Some(path) = trace_path {
        let profile = tfe_profile::stop();
        profile.write_chrome_trace(&path).expect("write chrome trace");
        let summary = profile.summary();
        eprintln!("{summary}");
        eprintln!(
            "wrote {path} ({} spans on {} threads)",
            profile.span_count(),
            profile.thread_count()
        );
        fields.push(("profile".to_string(), summary.to_value()));
    }
    let json = tfe_encode::Value::object(fields);
    std::fs::write("BENCH_kernels.json", json.to_json_pretty()).expect("write BENCH_kernels.json");
    eprintln!("wrote BENCH_kernels.json (intra-op threads: {})", intra_threads());
}
