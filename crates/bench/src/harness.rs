//! Measurement machinery: run a step function under the virtual clock and
//! report examples/second, following the paper's protocol ("each benchmark
//! run was 10 iterations, and an average of 3 runs was reported"; build and
//! optimization times excluded).

use crate::calibrate::SimProfile;
use crate::sim::{DispatchModel, Simulator};
use std::rc::Rc;
use tfe_device::{Device, DeviceName};
use tfe_runtime::context;
use tfe_runtime::Result;

/// Which execution mode a measurement exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionConfig {
    /// Imperative TensorFlow Eager.
    Eager,
    /// TensorFlow Eager with the step staged via `function`.
    Staged,
    /// Classic graph mode (`TF`): same staged graph, session.run-style
    /// per-call costs.
    GraphMode,
}

impl ExecutionConfig {
    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            ExecutionConfig::Eager => "TFE",
            ExecutionConfig::Staged => "TFE + function",
            ExecutionConfig::GraphMode => "TF",
        }
    }

    /// The dispatch model this mode uses from a profile.
    pub fn dispatch(self, profile: &SimProfile) -> DispatchModel {
        match self {
            ExecutionConfig::Eager => profile.eager.clone(),
            ExecutionConfig::Staged => profile.staged.clone(),
            ExecutionConfig::GraphMode => profile.graph_mode.clone(),
        }
    }
}

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Mode label.
    pub config: ExecutionConfig,
    /// Batch size (or sample count for L2HMC).
    pub batch: usize,
    /// Examples per virtual second (mean over runs).
    pub examples_per_sec: f64,
    /// Virtual seconds per step (mean).
    pub step_seconds: f64,
    /// Ops dispatched eagerly per step.
    pub eager_ops_per_step: f64,
    /// Staged nodes executed per step.
    pub staged_nodes_per_step: f64,
}

/// Register (idempotently) the device a measurement simulates and return
/// it: a plain name, since what it costs travels with the measurement.
///
/// # Panics
/// Invalid device names (programmer error in the harness).
pub fn sim_device(name: &str) -> Device {
    let device = Device::new(DeviceName::parse(name).expect("valid device name"));
    context::device_manager().register(device.clone()).ok();
    device
}

/// Run `step` under the profile's virtual clock and measure throughput.
///
/// `warmup` iterations run first (tracing/compilation happens there, and is
/// excluded, as in the paper); then `runs` runs of `iters` iterations each
/// are averaged.
///
/// # Errors
/// Propagates step failures.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    config: ExecutionConfig,
    profile: &SimProfile,
    device: &Device,
    batch: usize,
    warmup: usize,
    runs: usize,
    iters: usize,
    mut step: impl FnMut() -> Result<()>,
) -> Result<Measurement> {
    let sim = Rc::new(Simulator::new(profile, config.dispatch(profile), device));
    let _observer = context::observer_scope(sim.clone());
    let stats = &sim.stats;
    context::with_device_obj(device.clone(), || -> Result<()> {
        for _ in 0..warmup {
            step()?;
        }
        Ok(())
    })?;
    let mut total_secs = 0.0;
    let mut eager_ops = 0u64;
    let mut staged_nodes = 0u64;
    for _ in 0..runs {
        stats.reset();
        context::with_device_obj(device.clone(), || -> Result<()> {
            for _ in 0..iters {
                step()?;
            }
            Ok(())
        })?;
        let host = stats.clock.now_secs();
        let device = stats.device_clock.now_secs();
        total_secs += host.max(device) + (1.0 - profile.overlap) * host.min(device);
        let counters = stats.counters();
        eager_ops += counters.eager_ops;
        staged_nodes += counters.staged_nodes;
    }
    let steps = (runs * iters) as f64;
    let step_seconds = total_secs / steps;
    Ok(Measurement {
        config,
        batch,
        examples_per_sec: batch as f64 / step_seconds,
        step_seconds,
        eager_ops_per_step: eager_ops as f64 / steps,
        staged_nodes_per_step: staged_nodes as f64 / steps,
    })
}

/// Render a list of measurements as an aligned text table, grouped by mode.
pub fn render_table(title: &str, batches: &[usize], rows: &[Measurement]) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n\n"));
    out.push_str(&format!("{:<16}", "config"));
    for b in batches {
        out.push_str(&format!("{b:>10}"));
    }
    out.push('\n');
    for config in [ExecutionConfig::Eager, ExecutionConfig::Staged, ExecutionConfig::GraphMode] {
        let line: Vec<&Measurement> = rows.iter().filter(|m| m.config == config).collect();
        if line.is_empty() {
            continue;
        }
        out.push_str(&format!("{:<16}", config.label()));
        for b in batches {
            match line.iter().find(|m| m.batch == *b) {
                Some(m) => out.push_str(&format!("{:>10.1}", m.examples_per_sec)),
                None => out.push_str(&format!("{:>10}", "-")),
            }
        }
        out.push('\n');
    }
    // Percent improvement over eager (the bottom panel of Figure 3).
    let eager: Vec<&Measurement> =
        rows.iter().filter(|m| m.config == ExecutionConfig::Eager).collect();
    if !eager.is_empty() {
        out.push('\n');
        out.push_str(&format!("{:<16}", "% over TFE"));
        out.push('\n');
        for config in [ExecutionConfig::Staged, ExecutionConfig::GraphMode] {
            let line: Vec<&Measurement> = rows.iter().filter(|m| m.config == config).collect();
            if line.is_empty() {
                continue;
            }
            out.push_str(&format!("{:<16}", config.label()));
            for b in batches {
                let m = line.iter().find(|m| m.batch == *b);
                let e = eager.iter().find(|m| m.batch == *b);
                match (m, e) {
                    (Some(m), Some(e)) => {
                        let pct = (m.examples_per_sec / e.examples_per_sec - 1.0) * 100.0;
                        out.push_str(&format!("{pct:>9.1}%"));
                    }
                    _ => out.push_str(&format!("{:>10}", "-")),
                }
            }
            out.push('\n');
        }
    }
    out
}

/// Encode measurements as a JSON value (for EXPERIMENTS.md bookkeeping).
pub fn to_json(experiment: &str, rows: &[Measurement]) -> tfe_encode::Value {
    use tfe_encode::Value;
    Value::object([
        ("experiment".to_string(), Value::str(experiment)),
        (
            "rows".to_string(),
            Value::Array(
                rows.iter()
                    .map(|m| {
                        Value::object([
                            ("config".to_string(), Value::str(m.config.label())),
                            ("batch".to_string(), Value::Int(m.batch as i64)),
                            ("examples_per_sec".to_string(), Value::Float(m.examples_per_sec)),
                            ("step_seconds".to_string(), Value::Float(m.step_seconds)),
                            ("eager_ops".to_string(), Value::Float(m.eager_ops_per_step)),
                            ("staged_nodes".to_string(), Value::Float(m.staged_nodes_per_step)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::figure4_cpu;
    use tfe_runtime::api;

    #[test]
    fn measure_counts_and_charges_time() {
        let profile = figure4_cpu();
        let device = sim_device("/job:localhost/task:0/device:CPU:9");
        let a = api::scalar(1.0f32);
        let m = measure(ExecutionConfig::Eager, &profile, &device, 4, 1, 2, 5, || {
            let _ = api::add(&a, &a)?;
            Ok(())
        })
        .unwrap();
        assert!(m.examples_per_sec > 0.0);
        assert!(m.step_seconds > 0.0);
        assert!((m.eager_ops_per_step - 1.0).abs() < 1e-9);
        // Virtual, not wall-clock: one tiny op must cost at least the
        // interpreter overhead.
        assert!(m.step_seconds >= profile.eager.interpreter_ns / 1e9);
    }

    #[test]
    fn table_rendering_contains_modes() {
        let rows = vec![
            Measurement {
                config: ExecutionConfig::Eager,
                batch: 1,
                examples_per_sec: 10.0,
                step_seconds: 0.1,
                eager_ops_per_step: 5.0,
                staged_nodes_per_step: 0.0,
            },
            Measurement {
                config: ExecutionConfig::Staged,
                batch: 1,
                examples_per_sec: 20.0,
                step_seconds: 0.05,
                eager_ops_per_step: 1.0,
                staged_nodes_per_step: 5.0,
            },
        ];
        let t = render_table("Test", &[1], &rows);
        assert!(t.contains("TFE"));
        assert!(t.contains("TFE + function"));
        assert!(t.contains("100.0%"));
        let j = to_json("test", &rows);
        assert_eq!(j.get("experiment").and_then(tfe_encode::Value::as_str), Some("test"));
    }
}
