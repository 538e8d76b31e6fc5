//! Regenerates **Figure 4**: examples/second running L2HMC (2-D target,
//! 10 leapfrog steps) on a (simulated) Xeon-class CPU for 10–200 parallel
//! samples, comparing TFE, TFE + `function`, and TF.
//!
//! Run with `cargo run --release -p tfe-bench --bin figure4`.

use tfe_bench::calibrate;
use tfe_bench::harness::{measure, render_table, sim_device, ExecutionConfig, Measurement};
use tfe_bench::workloads::L2hmcWorkload;

fn main() {
    tfe_core::init();
    let quick = std::env::args().any(|a| a == "--tiny");
    let profile = calibrate::figure4_cpu();
    // The simulated CPU (index 1): kernels run for real on either CPU, but
    // only those placed here charge the virtual clock.
    let device = sim_device("/job:localhost/task:0/device:CPU:1");

    let workload = if quick { L2hmcWorkload::new(2, 4) } else { L2hmcWorkload::paper() };
    let sample_counts: &[usize] = &[10, 25, 50, 100, 200];
    let (warmup, runs, iters) = if quick { (2, 1, 2) } else { (2, 3, 10) };

    let mut rows: Vec<Measurement> = Vec::new();
    for &samples in sample_counts {
        let x = workload.chain(samples);
        for config in [ExecutionConfig::Eager, ExecutionConfig::Staged, ExecutionConfig::GraphMode]
        {
            eprintln!("  samples {samples:>3}  {}", config.label());
            let m =
                measure(config, &profile, &device, samples, warmup, runs, iters, || match config {
                    ExecutionConfig::Eager => workload.eager_step(&x),
                    _ => workload.staged_step(&x),
                })
                .expect("measurement");
            rows.push(m);
        }
    }
    println!(
        "{}",
        render_table(
            "Figure 4: L2HMC on CPU (examples/sec, 10 leapfrog steps)",
            sample_counts,
            &rows
        )
    );
    println!(
        "paper: staging increases examples/sec by at least an order of magnitude \
         at every sample count; TF and TFE+function are nearly identical."
    );
    let json = tfe_bench::harness::to_json("figure4", &rows);
    std::fs::write("figure4.json", json.to_json_pretty()).ok();
    eprintln!("wrote figure4.json");
}
