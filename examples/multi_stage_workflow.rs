//! The §4.1 multi-stage workflow on the L2HMC sampler, with the virtual
//! clock showing the payoff: **implement** imperatively, **analyze** where
//! the time goes, **stage** the hot block.
//!
//! Run with `cargo run --release --example multi_stage_workflow`.
//! Set `TFE_PROFILE=/tmp/workflow.json` to export a chrome trace of the
//! whole workflow (eager dispatch, trace-cache activity, staged calls)
//! with per-request causal flows.

use std::sync::Arc;
use tf_eager::nn::l2hmc::{L2hmc, StronglyCorrelatedGaussian};
use tf_eager::nn::Initializer;
use tf_eager::prelude::*;
use tf_eager::RuntimeError;
use tfe_bench::calibrate;
use tfe_bench::harness::{measure, sim_device, ExecutionConfig};

fn main() -> Result<(), RuntimeError> {
    tf_eager::init();
    tf_eager::context::set_random_seed(42);

    // Opt-in profiling: TFE_PROFILE names the chrome-trace output path.
    let trace_path = tf_eager::profile::env_trace_path();
    if trace_path.is_some() {
        tf_eager::profile::start();
    }

    // Step 1 — IMPLEMENT: a single-stage imperative program. Develop,
    // debug, test: every intermediate value is inspectable.
    let sampler = Arc::new(L2hmc::new(
        Arc::new(StronglyCorrelatedGaussian::new()),
        10,
        10,
        0.1,
        &mut Initializer::seeded(0),
    ));
    let mut x = api::zeros(DType::F32, [64, 2]);
    let (x_next, accept) = sampler.sample_step(&x)?;
    println!(
        "imperative step ok: mean accept prob {:.3}, first chain now at {:?}",
        api::reduce_mean(&accept, &[], false)?.scalar_f64()?,
        &x_next.to_f64_vec()?[..2]
    );

    // Step 2 — ANALYZE: profile. The Figure 4 simulator (DESIGN.md §3)
    // charges a virtual clock with a CPython-like per-op cost and the
    // kernels of a Xeon-class CPU, and counts how many primitive dispatches
    // one update costs.
    let profile = calibrate::figure4_cpu();
    let device = sim_device("/job:localhost/task:0/device:CPU:1");
    let chains = 64;
    let analysis = measure(ExecutionConfig::Eager, &profile, &device, chains, 0, 1, 1, || {
        sampler.sample_step(&x).map(|_| ())
    })?;
    println!(
        "analysis: one update dispatches {:.0} primitive ops -> {:.1} ms of \
         simulated time per step",
        analysis.eager_ops_per_step,
        analysis.step_seconds * 1e3,
    );
    println!("          -> the update loop is the block to stage (§4.1 step 2)");

    // Step 3 — STAGE: decorate the update with `function`. One line.
    let staged = {
        let sampler = sampler.clone();
        function1("l2hmc_update", move |state| Ok(sampler.sample_step(state)?.0))
    };

    // Compare simulated throughput, eager vs staged. The staged update is
    // traced in a warm-up call the measurement excludes, like the paper's
    // build time.
    let eager = measure(ExecutionConfig::Eager, &profile, &device, chains, 0, 1, 5, || {
        x = sampler.sample_step(&x)?.0;
        Ok(())
    })?;
    let staged_run = measure(ExecutionConfig::Staged, &profile, &device, chains, 1, 1, 5, || {
        x = staged.call1(&x)?;
        Ok(())
    })?;
    println!(
        "staging payoff: {:.1} ms/step imperative -> {:.2} ms/step staged ({:.0}x)",
        eager.step_seconds * 1e3,
        staged_run.step_seconds * 1e3,
        eager.step_seconds / staged_run.step_seconds
    );
    println!("chains are still healthy: x[0] = {:?}", &x.to_f64_vec()?[..2]);

    // End-of-run metrics summary: the always-on registry has been counting
    // the whole time — no profiler, no opt-in.
    let stats = staged.stats();
    let snap = tf_eager::metrics::snapshot();
    let p99 =
        snap.histogram_value("tfe_kernel_time_ns").and_then(|h| h.quantile(0.99)).unwrap_or(0);
    let peak = snap.gauge_value("tfe_live_tensor_bytes_peak").unwrap_or(0);
    println!(
        "metrics: l2hmc_update cache hit rate {:.1}% ({} hits / {} calls, {} retrace(s)), \
         p99 kernel {:.1} µs, peak live tensor bytes {:.2} MiB",
        stats.hit_rate() * 100.0,
        stats.hits,
        stats.calls(),
        stats.retraces,
        p99 as f64 / 1e3,
        peak as f64 / (1024.0 * 1024.0)
    );
    if stats.retraces > 0 {
        println!("{}", staged.retrace_report());
    }

    if let Some(path) = &trace_path {
        let profile = tf_eager::profile::stop();
        profile
            .write_chrome_trace(path)
            .map_err(|e| RuntimeError::Internal(format!("write chrome trace: {e}")))?;
        println!("chrome trace written to {path} (load it in chrome://tracing or Perfetto)");
    }
    Ok(())
}
