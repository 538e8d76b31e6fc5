//! Real wall-clock micro-benchmarks of the dispatch path: eager op
//! execution across tensor sizes and the cost of gradient machinery.
//!
//! These complement the virtual-clock figure harness: they measure what
//! *this* runtime actually costs per operation — the quantity the
//! interpreter-overhead model of DESIGN.md §3 abstracts for the paper's
//! Python front-end.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tfe_runtime::{api, context, ExecMode};
use tfe_tensor::DType;

fn bench_eager_dispatch(c: &mut Criterion) {
    tfe_core::init();
    let mut group = c.benchmark_group("eager_dispatch");
    for n in [1usize, 64, 4096, 262_144] {
        let a = api::zeros(DType::F32, [n]);
        let b = api::ones(DType::F32, [n]);
        group.bench_with_input(BenchmarkId::new("add", n), &n, |bench, _| {
            bench.iter(|| api::add(&a, &b).unwrap());
        });
    }
    let m = api::zeros(DType::F32, [64, 64]);
    group.bench_function("matmul_64x64", |bench| {
        bench.iter(|| api::matmul(&m, &m).unwrap());
    });
    group.finish();
}

fn bench_staged_dispatch(c: &mut Criterion) {
    tfe_core::init();
    let before = context::exec_stats();
    // The same op chain dispatched through the graph executor instead of
    // per-op eager dispatch, in both scheduling modes; the exec-stats line
    // printed afterwards shows nodes/kernels per call and queue behaviour.
    let mut group = c.benchmark_group("staged_dispatch");
    let f = tfe_core::function1("bench_staged_dispatch", |x| {
        let mut branches = Vec::new();
        for _ in 0..8 {
            branches.push(api::tanh(&api::exp(x)?)?);
        }
        let mut acc = branches[0].clone();
        for b in &branches[1..] {
            acc = api::add(&acc, b)?;
        }
        Ok(acc)
    });
    let x = api::zeros(DType::F32, [16_384]);
    f.call1(&x).unwrap(); // trace outside the timed region
    for (name, mode) in [("serial", ExecMode::SerialPlanned), ("parallel", ExecMode::Parallel)] {
        group.bench_function(name, |bench| {
            let prev = context::set_exec_mode(mode);
            bench.iter(|| f.call1(&x).unwrap());
            context::set_exec_mode(prev);
        });
    }
    group.finish();
    tfe_bench::report_exec_stats("staged_dispatch", &before);
}

fn bench_profiler_overhead(c: &mut Criterion) {
    tfe_core::init();
    // The same eager dispatch with the profiler off (one relaxed atomic
    // load per probe site — the everyone-pays cost) and on (span recording
    // into the thread-local buffer). `profiler_smoke` asserts the disabled
    // delta stays under 2%; this group keeps both numbers visible.
    let mut group = c.benchmark_group("profiler_overhead");
    let a = api::zeros(DType::F32, [64]);
    let b = api::ones(DType::F32, [64]);
    group.bench_function("add_64_disabled", |bench| {
        bench.iter(|| api::add(&a, &b).unwrap());
    });
    group.bench_function("add_64_enabled", |bench| {
        tfe_profile::start();
        bench.iter(|| api::add(&a, &b).unwrap());
        tfe_profile::stop();
    });
    group.finish();
}

fn bench_gradient(c: &mut Criterion) {
    tfe_core::init();
    let mut group = c.benchmark_group("gradient");
    let x = api::zeros(DType::F32, [256]);
    group.bench_function("chain3_backward", |bench| {
        bench.iter(|| {
            let tape = tfe_autodiff::GradientTape::new();
            tape.watch(&x);
            let h = api::relu(&x).unwrap();
            let h = api::tanh(&h).unwrap();
            let y = api::reduce_sum(&api::square(&h).unwrap(), &[], false).unwrap();
            tape.gradient1(&y, &x).unwrap()
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(12)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900));
    targets = bench_eager_dispatch, bench_staged_dispatch, bench_profiler_overhead, bench_gradient
}
criterion_main!(benches);
