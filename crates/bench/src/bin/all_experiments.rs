//! Runs the complete §6 evaluation — Figure 3, Table 1, Figure 4 — and
//! writes one consolidated `experiments.json` next to the per-experiment
//! text output. Accepts `--quick` (reduced protocol) and `--tiny`
//! (miniature ResNet).
//!
//! `cargo run --release -p tfe-bench --bin all_experiments`

use tfe_bench::calibrate;
use tfe_bench::harness::{measure, render_table, sim_device, ExecutionConfig, Measurement};
use tfe_bench::workloads::{L2hmcWorkload, ResnetWorkload};
use tfe_encode::Value;

fn main() {
    tfe_core::init();
    let tiny = std::env::args().any(|a| a == "--tiny");
    let quick = std::env::args().any(|a| a == "--quick");
    let (warmup, runs, iters) = if tiny || quick { (2, 1, 3) } else { (2, 3, 10) };
    let mut report: Vec<Value> = Vec::new();

    // ---- Figure 3 + Table 1 share the ResNet workload --------------------
    eprintln!("building {} ...", if tiny { "tiny ResNet" } else { "ResNet-50" });
    let resnet = if tiny { ResnetWorkload::tiny() } else { ResnetWorkload::resnet50() };
    let batches: &[usize] = &[1, 2, 4, 8, 16, 32];

    let fig3 = calibrate::figure3_gpu();
    let gpu = sim_device("/gpu:0");
    let mut rows: Vec<Measurement> = Vec::new();
    for &batch in batches {
        let (x, y) = resnet.batch(batch).expect("inputs");
        for config in [ExecutionConfig::Eager, ExecutionConfig::Staged, ExecutionConfig::GraphMode]
        {
            eprintln!("figure3 batch {batch:>2} {}", config.label());
            rows.push(
                measure(config, &fig3, &gpu, batch, warmup, runs, iters, || match config {
                    ExecutionConfig::Eager => resnet.eager_step(&x, &y),
                    _ => resnet.staged_step(&x, &y),
                })
                .expect("figure3"),
            );
        }
    }
    println!("{}", render_table("Figure 3: ResNet-50 on GPU (examples/sec)", batches, &rows));
    report.push(tfe_bench::harness::to_json("figure3", &rows));

    let tab1 = calibrate::table1_tpu();
    let tpu = sim_device("/tpu:0");
    let mut rows: Vec<Measurement> = Vec::new();
    for &batch in batches {
        let (x, y) = resnet.batch(batch).expect("inputs");
        for config in [ExecutionConfig::Eager, ExecutionConfig::Staged] {
            eprintln!("table1 batch {batch:>2} {}", config.label());
            rows.push(
                measure(config, &tab1, &tpu, batch, warmup, runs, iters, || match config {
                    ExecutionConfig::Eager => resnet.eager_step(&x, &y),
                    _ => resnet.staged_step(&x, &y),
                })
                .expect("table1"),
            );
        }
    }
    println!("{}", render_table("Table 1: ResNet-50 on TPU (examples/sec)", batches, &rows));
    report.push(tfe_bench::harness::to_json("table1", &rows));

    // ---- Figure 4 -----------------------------------------------------------
    let fig4 = calibrate::figure4_cpu();
    let cpu = sim_device("/job:localhost/task:0/device:CPU:1");
    let l2hmc = if quick || tiny { L2hmcWorkload::new(2, 4) } else { L2hmcWorkload::paper() };
    let samples: &[usize] = &[10, 25, 50, 100, 200];
    let mut rows: Vec<Measurement> = Vec::new();
    for &n in samples {
        let x = l2hmc.chain(n);
        for config in [ExecutionConfig::Eager, ExecutionConfig::Staged, ExecutionConfig::GraphMode]
        {
            eprintln!("figure4 samples {n:>3} {}", config.label());
            rows.push(
                measure(config, &fig4, &cpu, n, warmup, runs, iters, || match config {
                    ExecutionConfig::Eager => l2hmc.eager_step(&x),
                    _ => l2hmc.staged_step(&x),
                })
                .expect("figure4"),
            );
        }
    }
    println!("{}", render_table("Figure 4: L2HMC on CPU (examples/sec)", samples, &rows));
    report.push(tfe_bench::harness::to_json("figure4", &rows));

    let out = Value::Array(report);
    std::fs::write("experiments.json", out.to_json_pretty()).ok();
    eprintln!("wrote experiments.json");
}
