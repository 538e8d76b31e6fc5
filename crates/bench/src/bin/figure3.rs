//! Regenerates **Figure 3**: examples/second training ResNet-50 on a
//! (simulated) GTX-1080-class GPU for batch sizes 1–32, comparing TFE,
//! TFE + `function`, and TF, plus the percent-improvement panel.
//!
//! Run with `cargo run --release -p tfe-bench --bin figure3`.
//! Pass `--tiny` for a fast smoke run on the miniature ResNet.

use tfe_bench::calibrate;
use tfe_bench::harness::{measure, render_table, sim_device, ExecutionConfig, Measurement};
use tfe_bench::workloads::ResnetWorkload;

fn main() {
    tfe_core::init();
    let tiny = std::env::args().any(|a| a == "--tiny");
    let profile = calibrate::figure3_gpu();
    let device = sim_device("/gpu:0");

    eprintln!("building {} ...", if tiny { "tiny ResNet" } else { "ResNet-50" });
    let workload = if tiny { ResnetWorkload::tiny() } else { ResnetWorkload::resnet50() };
    let batches: &[usize] = &[1, 2, 4, 8, 16, 32];
    // Paper protocol: 10 iterations per run, average of 3 runs.
    let quick = std::env::args().any(|a| a == "--quick");
    let (warmup, runs, iters) = if tiny || quick { (2, 1, 3) } else { (2, 3, 10) };

    let mut rows: Vec<Measurement> = Vec::new();
    for &batch in batches {
        let (x, y) = workload.batch(batch).expect("inputs");
        for config in [ExecutionConfig::Eager, ExecutionConfig::Staged, ExecutionConfig::GraphMode]
        {
            eprintln!("  batch {batch:>2}  {}", config.label());
            let m =
                measure(config, &profile, &device, batch, warmup, runs, iters, || match config {
                    ExecutionConfig::Eager => workload.eager_step(&x, &y),
                    _ => workload.staged_step(&x, &y),
                })
                .expect("measurement");
            rows.push(m);
        }
    }
    println!(
        "{}",
        render_table("Figure 3: ResNet-50 training on GPU (examples/sec)", batches, &rows)
    );
    println!(
        "paper (GTX 1080): TFE ~120 and TF ~125 ex/s at batch 32; staging wins \
         most at batch 1 and the gap vanishes as batch size grows."
    );
    let json = tfe_bench::harness::to_json("figure3", &rows);
    std::fs::write("figure3.json", json.to_json_pretty()).ok();
    eprintln!("wrote figure3.json");
}
