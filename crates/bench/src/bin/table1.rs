//! Regenerates **Table 1**: examples/second training ResNet-50 on a
//! (simulated) Cloud-TPU-class accelerator, eager vs staged, batch 1–32.
//! Eager execution pays a per-op compile+dispatch penalty (§4.4); staging
//! compiles once (excluded, as in the paper) and amortizes a per-call
//! launch latency.
//!
//! Run with `cargo run --release -p tfe-bench --bin table1` (add `--tiny`
//! for a smoke run).

use tfe_bench::calibrate;
use tfe_bench::harness::{measure, sim_device, ExecutionConfig, Measurement};
use tfe_bench::workloads::ResnetWorkload;

fn main() {
    tfe_core::init();
    let tiny = std::env::args().any(|a| a == "--tiny");
    let profile = calibrate::table1_tpu();
    let device = sim_device("/tpu:0");

    eprintln!("building {} ...", if tiny { "tiny ResNet" } else { "ResNet-50" });
    let workload = if tiny { ResnetWorkload::tiny() } else { ResnetWorkload::resnet50() };
    let batches: &[usize] = &[1, 2, 4, 8, 16, 32];
    let quick = std::env::args().any(|a| a == "--quick");
    let (warmup, runs, iters) = if tiny || quick { (2, 1, 3) } else { (2, 3, 10) };

    let mut rows: Vec<Measurement> = Vec::new();
    for &batch in batches {
        let (x, y) = workload.batch(batch).expect("inputs");
        for config in [ExecutionConfig::Eager, ExecutionConfig::Staged] {
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

    println!("## Table 1: ResNet-50 training on TPU (examples/sec)\n");
    print!("{:<28}", "batch size");
    for b in batches {
        print!("{b:>9}");
    }
    println!();
    for (label, config) in [
        ("TensorFlow Eager", ExecutionConfig::Eager),
        ("TFE with function", ExecutionConfig::Staged),
    ] {
        print!("{label:<28}");
        for b in batches {
            let m = rows.iter().find(|m| m.config == config && m.batch == *b);
            match m {
                Some(m) => print!("{:>9.1}", m.examples_per_sec),
                None => print!("{:>9}", "-"),
            }
        }
        println!();
    }
    println!(
        "\npaper: eager 1.06 → 30.3 ex/s, staged 21.7 → 241.9 ex/s across batch \
         1→32 — staging is an order of magnitude faster at every batch size."
    );
    let json = tfe_bench::harness::to_json("table1", &rows);
    std::fs::write("table1.json", json.to_json_pretty()).ok();
    eprintln!("wrote table1.json");
}
