//! Ablations of the graph-optimization passes (DESIGN.md §6): each pass
//! on/off, measured as real executor wall-clock on a representative graph,
//! plus the pass pipelines themselves.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use tfe_graph::{passes, GraphBuilder, GraphFunction};
use tfe_ops::{Attrs, SymShape};
use tfe_runtime::{executor, ExecMode};
use tfe_tensor::{DType, Shape, TensorData};

/// A graph with dead branches, duplicate subexpressions, constant
/// subgraphs, and a long fusable elementwise chain.
fn build_messy(n_chain: usize) -> GraphFunction {
    let mut b = GraphBuilder::new("messy");
    let x = b.placeholder(DType::F32, SymShape::known(&Shape::from([4096]))).unwrap();
    // Constant subgraph (foldable).
    let c1 = b.constant(Arc::new(TensorData::scalar(2.0f32))).unwrap();
    let c2 = b.constant(Arc::new(TensorData::scalar(3.0f32))).unwrap();
    let c = b.add_node("mul", vec![c1, c2], Attrs::new()).unwrap()[0];
    // Duplicate subexpressions (CSE fodder).
    let r1 = b.add_node("relu", vec![x], Attrs::new()).unwrap()[0];
    let r2 = b.add_node("relu", vec![x], Attrs::new()).unwrap()[0];
    let mut cur = b.add_node("add", vec![r1, r2], Attrs::new()).unwrap()[0];
    cur = b.add_node("mul", vec![cur, c], Attrs::new()).unwrap()[0];
    // Long elementwise chain (fusion fodder).
    for i in 0..n_chain {
        let op = ["tanh", "sigmoid", "square", "softplus"][i % 4];
        cur = b.add_node(op, vec![cur], Attrs::new()).unwrap()[0];
    }
    // Dead work (pruning fodder).
    let _dead = b.add_node("exp", vec![x], Attrs::new()).unwrap();
    let _dead2 = b.add_node("sin", vec![x], Attrs::new()).unwrap();
    b.finish(vec![cur], 0)
}

fn evaluator(
    node: &tfe_graph::Node,
    inputs: &[Arc<TensorData>],
) -> Result<Vec<TensorData>, String> {
    tfe_runtime::kernels::run_kernel(node.op, &node.attrs, inputs).map_err(|e| e.to_string())
}

/// The default pipeline minus the fusion lowering.
fn unfused() -> passes::OptimizeOptions {
    passes::OptimizeOptions { fuse_elementwise: false, ..Default::default() }
}

fn bench_pass_pipelines(c: &mut Criterion) {
    tfe_core::init();
    let f = build_messy(16);
    let mut group = c.benchmark_group("optimize_pipeline");
    group.bench_function("none", |b| {
        b.iter(|| passes::optimize(&f, &passes::OptimizeOptions::none(), None));
    });
    group.bench_function("without_fusion", |b| {
        b.iter(|| passes::optimize(&f, &unfused(), Some(&evaluator)));
    });
    group.bench_function("default", |b| {
        b.iter(|| passes::optimize(&f, &passes::OptimizeOptions::default(), Some(&evaluator)));
    });
    group.finish();
}

fn bench_executor_ablation(c: &mut Criterion) {
    tfe_core::init();
    let f = build_messy(16);
    let device = tfe_runtime::context::device_manager().host_cpu();
    let unopt = passes::optimize(&f, &passes::OptimizeOptions::none(), None);
    let opt = passes::optimize(&f, &unfused(), Some(&evaluator));
    let fused = passes::optimize(&f, &passes::OptimizeOptions::default(), Some(&evaluator));
    let x = Arc::new(TensorData::zeros(DType::F32, [4096]));
    let mut group = c.benchmark_group("executor_graph_variants");
    for (name, g) in [("unoptimized", &unopt), ("optimized", &opt), ("fused", &fused)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                executor::run_function(
                    g,
                    std::slice::from_ref(&x),
                    &device,
                    ExecMode::SerialPlanned,
                )
                .unwrap()
            });
        });
    }
    // Serial (buffer reuse) vs parallel scheduling on a wide graph.
    let wide = {
        let mut b = GraphBuilder::new("wide");
        let x = b.placeholder(DType::F32, SymShape::known(&Shape::from([65_536]))).unwrap();
        let mut outs = Vec::new();
        for _ in 0..12 {
            let t = b.add_node("exp", vec![x], Attrs::new()).unwrap()[0];
            let t = b.add_node("tanh", vec![t], Attrs::new()).unwrap()[0];
            outs.push(t);
        }
        let mut acc = outs[0];
        for &o in &outs[1..] {
            acc = b.add_node("add", vec![acc, o], Attrs::new()).unwrap()[0];
        }
        b.finish(vec![acc], 0)
    };
    let big = Arc::new(TensorData::zeros(DType::F32, [65_536]));
    let before = tfe_runtime::context::exec_stats();
    group.bench_function("wide_serial", |b| {
        b.iter(|| {
            executor::run_function(
                &wide,
                std::slice::from_ref(&big),
                &device,
                ExecMode::SerialPlanned,
            )
            .unwrap()
        });
    });
    group.bench_function("wide_parallel", |b| {
        b.iter(|| {
            executor::run_function(&wide, std::slice::from_ref(&big), &device, ExecMode::Parallel)
                .unwrap()
        });
    });
    group.finish();
    tfe_bench::report_exec_stats("wide_graph", &before);
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(12)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900));
    targets = bench_pass_pipelines, bench_executor_ablation
}
criterion_main!(benches);
