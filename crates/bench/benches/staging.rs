//! Real wall-clock eager-vs-staged comparison (the §6 phenomenon measured
//! on this runtime itself, without the interpreter-overhead model): a small
//! MLP forward pass and the L2HMC update, run imperatively and through
//! `function`. Staging wins here too — from trace-cache hits replacing
//! per-op dispatch, pruning, and const folding — just by a smaller factor
//! than with a CPython front-end.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use tfe_bench::workloads::L2hmcWorkload;
use tfe_nn::layers::Layer;
use tfe_nn::{mlp, Activation, Initializer};
use tfe_runtime::api;
use tfe_tensor::DType;

fn bench_mlp(c: &mut Criterion) {
    tfe_core::init();
    let before = tfe_runtime::context::exec_stats();
    let mut group = c.benchmark_group("mlp_forward");
    let model = Arc::new(mlp(32, &[64, 64, 64], 8, Activation::Relu, &mut Initializer::seeded(3)));
    let staged = {
        let model = model.clone();
        tfe_core::function1("bench_mlp", move |x| model.call(x, false))
    };
    for batch in [1usize, 32] {
        let x = api::zeros(DType::F32, [batch, 32]);
        group.bench_with_input(BenchmarkId::new("eager", batch), &batch, |b, _| {
            b.iter(|| model.call(&x, false).unwrap());
        });
        staged.call1(&x).unwrap(); // trace outside the timed region
        group.bench_with_input(BenchmarkId::new("staged", batch), &batch, |b, _| {
            b.iter(|| staged.call1(&x).unwrap());
        });
    }
    group.finish();
    tfe_bench::report_exec_stats("mlp_forward", &before);
}

fn bench_l2hmc(c: &mut Criterion) {
    tfe_core::init();
    let before = tfe_runtime::context::exec_stats();
    let mut group = c.benchmark_group("l2hmc_step");
    group.sample_size(20);
    let w = L2hmcWorkload::new(5, 10);
    let x = w.chain(32);
    group.bench_function("eager", |b| {
        b.iter(|| w.eager_step(&x).unwrap());
    });
    w.staged_step(&x).unwrap(); // trace
    group.bench_function("staged", |b| {
        b.iter(|| w.staged_step(&x).unwrap());
    });
    group.finish();
    tfe_bench::report_exec_stats("l2hmc_step", &before);
}

fn bench_trace_cache(c: &mut Criterion) {
    tfe_core::init();
    let mut group = c.benchmark_group("trace_cache");
    let f = tfe_core::function1("bench_cache", api::relu);
    let x = api::zeros(DType::F32, [16]);
    f.call1(&x).unwrap();
    group.bench_function("hit", |b| {
        b.iter(|| f.call1(&x).unwrap());
    });
    group.bench_function("miss_retrace", |b| {
        // Each iteration uses a fresh Func so every call is a cache miss:
        // measures binding-time analysis + tracing + optimization.
        b.iter_with_setup(
            || tfe_core::function1("bench_miss", api::relu),
            |f| f.call1(&x).unwrap(),
        );
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(12)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900));
    targets = bench_mlp, bench_l2hmc, bench_trace_cache
}
criterion_main!(benches);
