//! One run of one workload: set-ups, then `--seconds` cycles of a
//! calibration slice and one round of each phase, then the checks.

use crate::calib::Calib;
use crate::estimate::{median, paired_median, spread, tail, Timed};
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::registry::Reading;
use crate::spans::{self, Span};
use crate::workloads::{self, Check, Workload, STEP_SPANS};
use crate::{probes, report};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tf_eager::encode::Value;
use tf_eager::ConcreteFunction;

const SLICE: Duration = Duration::from_millis(100);
const ROUND: Duration = Duration::from_millis(450);
/// First calls of fresh `Func`s are timed on every third cycle: one, or as
/// many as fit this time, so that a function that traces in under a
/// millisecond is not judged by nine single samples a run.
const TRACE_EVERY: u64 = 3;
const FIRST_CALLS_TIME: Duration = Duration::from_millis(20);
const MAX_FIRST_CALLS: u64 = 16;

/// A workload is set up `Workload::setups` times. The first `EARLY_SETUPS`
/// run back to back before the cycles. The rest are fresh instances built
/// and dropped before every `REPEAT_SETUP_EVERY`-th cycle: the host changes
/// speed for seconds at a time, and fifteen 70 ms set-ups back to back all
/// fall inside one such spell.
const EARLY_SETUPS: usize = 3;
const REPEAT_SETUP_EVERY: u64 = 2;

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Threads in the process while the workload was alive.
    pub process_threads: i64,
    /// Everything else worth keeping: checks, counts, the raw series.
    pub details: Value,
}

/// What the cycles measured.
struct Cycles {
    /// Units per second of every slice, in order.
    slices: Vec<f64>,
    rounds: [Vec<Timed>; 2],
    traces: Vec<Timed>,
    /// Seconds per operation, pooled over a phase's rounds.
    latencies: [Vec<f64>; 2],
    steps: [u64; 2],
    failed_steps: u64,
    failed_first_calls: u64,
    /// Registry deltas summed over a phase's rounds (traced runs only).
    deltas: [Reading; 2],
    /// Registry delta over all the cycles, traces included.
    whole: Reading,
    last_trace: Option<Arc<ConcreteFunction>>,
    errors: Vec<String>,
}

impl Cycles {
    /// Keep the first few error messages; every failure is counted anyway.
    fn note(&mut self, error: String) {
        if self.errors.len() < 20 {
            self.errors.push(error);
        }
    }
}

fn set_up(cfg: &Config) -> Result<(Box<dyn Workload>, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut workload = None;
    while times.len() < EARLY_SETUPS {
        // The previous set-up goes first, so that two never hold sockets
        // and worker threads at once.
        drop(workload.take());
        let t = Instant::now();
        workload = Some(workloads::build(&cfg.workload, cfg.seed)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((workload.expect("at least one set-up"), times))
}

fn cycles(
    cfg: &Config,
    w: &mut dyn Workload,
    calib: &mut Calib,
    setups: &mut Vec<f64>,
) -> Result<Cycles, String> {
    let mut c = Cycles {
        slices: Vec::new(),
        rounds: [Vec::new(), Vec::new()],
        traces: Vec::new(),
        latencies: [Vec::new(), Vec::new()],
        steps: [0; 2],
        failed_steps: 0,
        failed_first_calls: 0,
        deltas: [Reading::default(), Reading::default()],
        whole: Reading::default(),
        last_trace: None,
        errors: Vec::new(),
    };
    let examples = w.examples();
    let all_setups = w.setups();
    let start = Reading::now();
    for cycle in 0..cfg.seconds {
        if cycle % REPEAT_SETUP_EVERY == 1 && setups.len() < all_setups {
            // Beside the live workload, and before the slice, so that what
            // dropping it leaves behind does not land in a round. It puts
            // the program's random stream back where every set-up leaves it.
            let t = Instant::now();
            let fresh = spans::scope("set_up", || workloads::build(&cfg.workload, cfg.seed))?;
            setups.push(t.elapsed().as_secs_f64());
            drop(fresh);
        }
        c.slices.push(calib.slice(SLICE).units_per_s());
        if cycle % TRACE_EVERY == 0 {
            // Its own slice on either side, so the rounds keep theirs.
            let mut timed = Duration::ZERO;
            let mut calls = 0u64;
            while calls == 0 || (timed < FIRST_CALLS_TIME && calls < MAX_FIRST_CALLS) {
                let traced = w.first_call_args().and_then(|args| {
                    let t = Instant::now();
                    let concrete = spans::scope("first_call", || w.first_call(&args))?;
                    timed += t.elapsed();
                    Ok(concrete)
                });
                match traced {
                    Ok(concrete) => {
                        calls += 1;
                        c.last_trace = Some(concrete);
                    }
                    Err(e) => {
                        c.failed_first_calls += 1;
                        c.note(format!("first call: {e}"));
                        break;
                    }
                }
            }
            if calls > 0 {
                let slice_before = c.slices.len() - 1;
                c.traces.push(Timed {
                    work: calls as f64,
                    seconds: timed.as_secs_f64(),
                    slice_before,
                });
            }
            c.slices.push(calib.slice(SLICE).units_per_s());
        }
        for phase in 0..2 {
            let before = cfg.trace.then(Reading::now);
            let t = Instant::now();
            let mut steps = 0u64;
            // A round ends with the operation that crosses its time.
            while t.elapsed() < ROUND {
                let op = Instant::now();
                match w.step(phase) {
                    Ok(loss) if loss.is_finite() => {}
                    Ok(loss) => {
                        c.failed_steps += 1;
                        c.note(format!("phase {} loss {loss}", phase + 1));
                    }
                    Err(e) => {
                        c.failed_steps += 1;
                        c.note(format!("phase {} step: {e}", phase + 1));
                    }
                }
                c.latencies[phase].push(op.elapsed().as_secs_f64());
                steps += 1;
            }
            let seconds = t.elapsed().as_secs_f64();
            if let Some(before) = before {
                c.deltas[phase].accumulate(&Reading::now().since(&before));
            }
            c.steps[phase] += steps;
            let slice_before = c.slices.len() - 1;
            c.rounds[phase].push(Timed { work: steps as f64 * examples, seconds, slice_before });
        }
    }
    c.slices.push(calib.slice(SLICE).units_per_s());
    c.whole = Reading::now().since(&start);
    Ok(c)
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let (mut workload, mut setups) = set_up(cfg)?;
    let w = workload.as_mut();
    let mut calib = Calib::new();
    calib.slice(SLICE); // touch the calibration tables once before they count
    if cfg.trace {
        spans::enable();
    }
    let c = cycles(cfg, w, &mut calib, &mut setups)?;
    let all_spans = spans::take();
    let process_threads = report::process_threads();

    let mut checks = w.setup_checks();
    checks.extend(w.final_checks(c.steps));
    let retraces = c.whole.counter("tfe_trace_cache_retraces_total");
    checks.push(Check {
        name: "no_retraces_in_timed_cycles".to_string(),
        ok: retraces == 0,
        detail: format!("{retraces} retraces"),
    });
    let failed_checks = checks.iter().filter(|c| !c.ok).count() as u64;
    let first_calls = c.traces.iter().map(|t| t.work as u64).sum::<u64>() + c.failed_first_calls;
    let attempted = c.steps[0] + c.steps[1] + first_calls + checks.len() as u64;
    let failed = c.failed_steps + c.failed_first_calls + failed_checks;
    if c.traces.is_empty() {
        return Err(format!("no first call succeeded: {:?}", c.errors));
    }

    let per_kcu = [0, 1].map(|p| paired_median(&c.rounds[p], |t| t.per_kcu(&c.slices)));
    let trace_cu = paired_median(&c.traces, |t| t.cu(&c.slices));
    let mut metrics = Metrics::new();
    if cfg.trace {
        per_layer(cfg, w, &c, &all_spans, per_kcu, &mut metrics)?;
        metrics.check_against(PER_LAYER)?;
    } else {
        metrics.set("setup_s", median(&setups));
        metrics.set("phase1_per_kcu", per_kcu[0]);
        metrics.set("phase2_per_kcu", per_kcu[1]);
        metrics.set("trace_cu", trace_cu);
        metrics.set("peak_rss_mb", peak_rss_mb());
        metrics.check_against(END_TO_END)?;
    }

    let floats =
        |values: &mut dyn Iterator<Item = f64>| Value::Array(values.map(Value::Float).collect());
    let raw_rate = |t: &Timed| t.work / t.seconds;
    let details = report::object([
        (
            "checks",
            Value::Array(
                checks
                    .iter()
                    .map(|k| {
                        report::object([
                            ("name", Value::str(&k.name)),
                            ("ok", Value::Bool(k.ok)),
                            ("detail", Value::str(&k.detail)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("errors", Value::Array(c.errors.iter().map(Value::str).collect())),
        ("setups_s", floats(&mut setups.iter().copied())),
        ("steps_phase1", Value::Int(c.steps[0] as i64)),
        ("steps_phase2", Value::Int(c.steps[1] as i64)),
        ("first_calls", Value::Int(first_calls as i64)),
        ("slices_units_per_s", floats(&mut c.slices.iter().copied())),
        ("phase1_per_kcu_by_cycle", floats(&mut c.rounds[0].iter().map(|t| t.per_kcu(&c.slices)))),
        ("phase2_per_kcu_by_cycle", floats(&mut c.rounds[1].iter().map(|t| t.per_kcu(&c.slices)))),
        ("trace_cu_by_call", floats(&mut c.traces.iter().map(|t| t.cu(&c.slices)))),
        // The same estimates without the calibration loop, for RESULTS.md.
        ("raw_phase1_per_s", Value::Float(paired_median(&c.rounds[0], raw_rate))),
        ("raw_phase2_per_s", Value::Float(paired_median(&c.rounds[1], raw_rate))),
        ("raw_trace_ms", Value::Float(paired_median(&c.traces, |t| t.seconds / t.work * 1e3))),
        ("calib_units_per_s", Value::Float(median(&c.slices))),
        ("calib_slice_spread", Value::Float(spread(&c.slices))),
    ]);
    Ok(Outcome { correct: failed == 0, attempted, failed, metrics, process_threads, details })
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn per_layer(
    cfg: &Config,
    w: &mut dyn Workload,
    c: &Cycles,
    all_spans: &[Span],
    per_kcu: [f64; 2],
    m: &mut Metrics,
) -> Result<(), String> {
    let steps = [c.steps[0] as f64, c.steps[1] as f64];
    let window_ns = [0, 1].map(|p| c.rounds[p].iter().map(|t| t.seconds * 1e9).sum::<f64>());
    let count = |p: usize, name: &str| c.deltas[p].counter(name) as f64;
    let mut rounds = Reading::default();
    rounds.accumulate(&c.deltas[0]);
    rounds.accumulate(&c.deltas[1]);
    let both = |name: &str| rounds.counter(name) as f64;
    let kernel_ns = [0, 1].map(|p| c.deltas[p].hist("tfe_kernel_time_ns").sum as f64);
    // Steps that go over RPC run their nodes on worker threads.
    let over_rpc = both("tfe_dist_rpcs_total") > 0.0;

    // Every per-layer metric starts at 0: a workload that does not exercise
    // a layer prints 0 for it.
    for (name, _, _) in PER_LAYER {
        m.set(name, 0.0);
    }

    // Probes first: the step models below use their numbers.
    let mut probed = Vec::new();
    probes::generic(&mut probed);
    if let Some(concrete) = &c.last_trace {
        probes::function_codec(concrete, &mut probed);
    }
    probed.extend(w.layer_probes()?);
    for (name, value) in probed {
        m.set(name, value);
    }

    m.set("tensor.kernel_time_share_phase1", ratio(kernel_ns[0], window_ns[0]));
    m.set("tensor.kernel_time_share_phase2", ratio(kernel_ns[1], window_ns[1]));

    let eager_ops_per_step = ratio(count(0, "tfe_eager_ops_dispatched_total"), steps[0]);
    m.set("runtime.eager_ops_per_step", eager_ops_per_step);
    m.set(
        "runtime.bytes_allocated_per_step",
        ratio(count(0, "tfe_eager_bytes_allocated_total"), steps[0]),
    );
    let nodes = count(1, "tfe_executor_nodes_run_total");
    if !over_rpc {
        // Beside the codec on worker threads, the nodes' share of the window
        // says nothing about the executor: unresolved.
        m.set("runtime.staged_nodes_per_step", ratio(nodes, steps[1]));
        m.set("runtime.executor_overhead_ns_per_node", ratio(window_ns[1] - kernel_ns[1], nodes));
    }
    let peak = rounds.gauges.get("tfe_live_tensor_bytes_peak").copied().unwrap_or(0);
    m.set("runtime.live_tensor_bytes_peak", peak as f64);

    let calls = count(1, "tfe_trace_cache_hits_total") + count(1, "tfe_trace_cache_misses_total");
    m.set("core.staged_calls_per_step", ratio(calls, steps[1]));
    m.set("core.cache_hits", c.whole.counter("tfe_trace_cache_hits_total") as f64);
    m.set("core.cache_misses", c.whole.counter("tfe_trace_cache_misses_total") as f64);
    m.set("core.retraces", c.whole.counter("tfe_trace_cache_retraces_total") as f64);
    let raw_trace_s = paired_median(&c.traces, |t| t.seconds / t.work);
    if let Some(concrete) = &c.last_trace {
        let traced_ops = concrete.raw.executable_node_count() as f64;
        m.set("core.trace_us_per_op", ratio(raw_trace_s * 1e6, traced_ops));
        m.set("graph.nodes_after", concrete.function.executable_node_count() as f64);
        m.set("graph.sweeps", concrete.opt_stats.sweeps as f64);
        m.set("graph.rewrites_total", concrete.opt_stats.total_rewrites() as f64);
    }
    m.set(
        "graph.fused_elements_per_step",
        ratio(count(1, "tfe_fused_tiled_elements_total"), steps[1]),
    );

    let all_steps = steps[0] + steps[1];
    if over_rpc {
        let wire = both("tfe_dist_bytes_sent_total") + both("tfe_dist_bytes_received_total");
        m.set("dist.rpcs_per_step", ratio(both("tfe_dist_rpcs_total"), all_steps));
        m.set("dist.wire_bytes_per_step", ratio(wire, all_steps));
        m.set(
            "dist.wire_amplification",
            ratio(wire, all_steps * workloads::dist::raw_bytes_per_step()),
        );
        let rpc = rounds.hist("tfe_dist_rpc_ns");
        m.set("dist.rpc_p50_us", rpc.quantile(0.5).unwrap_or(0) as f64 / 1e3);
        m.set("dist.rpc_p99_us", rpc.quantile(0.99).unwrap_or(0) as f64 / 1e3);
        m.set("dist.retries", both("tfe_dist_rpc_retries_total"));
        m.set("dist.timeouts", both("tfe_dist_rpc_timeouts_total"));
        m.set("dist.failures", both("tfe_dist_rpc_failures_total"));
    }

    m.set("parallel.pool_jobs_per_step", ratio(both("tfe_pool_jobs_total"), all_steps));
    m.set(
        "parallel.queue_wait_p50_us",
        rounds.hist("tfe_pool_queue_wait_ns").quantile(0.5).unwrap_or(0) as f64 / 1e3,
    );
    let par = both("tfe_intra_par_kernels_total");
    m.set("parallel.par_kernel_ratio", ratio(par, par + both("tfe_intra_serial_kernels_total")));

    // The eager step's budget, from the spans: forward + backward + apply +
    // input + residual = step.
    let eager = spans::totals_under(all_spans, STEP_SPANS[0]);
    let total_of = |name: &str| eager.get(name).map_or(0.0, |t| t.total_ns as f64);
    let step = eager.get(STEP_SPANS[0]).copied().unwrap_or_default();
    let (step_count, step_ns) = (step.count, step.total_ns as f64);
    m.set("nn.forward_share", ratio(total_of("forward"), step_ns));
    m.set("autodiff.backward_share", ratio(total_of("gradient_vars"), step_ns));
    m.set("nn.optimizer_share", ratio(total_of("apply"), step_ns));
    m.set("nn.input_ms_per_step", ratio(total_of("input") / 1e6, step_count as f64));
    m.set("budget.step_residual_share", ratio(step.self_ns as f64, step_ns));
    // The dispatch model of the same step: ops × cost of one taped eager
    // op + kernel time, against the step as measured.
    let modelled =
        eager_ops_per_step * m.get("runtime.eager_op_taped_ns") + ratio(kernel_ns[0], steps[0]);
    let measured = ratio(window_ns[0], steps[0]);
    m.set("budget.dispatch_model_share", ratio(modelled, measured));

    m.set("raw.phase1_per_s", paired_median(&c.rounds[0], |t| t.work / t.seconds));
    m.set("raw.phase2_per_s", paired_median(&c.rounds[1], |t| t.work / t.seconds));
    m.set("raw.trace_ms", raw_trace_s * 1e3);
    m.set("calib.units_per_s", median(&c.slices));
    m.set("calib.slice_spread", spread(&c.slices));
    let mut tails = Vec::new();
    for (p, (p50, tail_name)) in [
        ("latency.phase1_p50_ms", "latency.phase1_tail_ms"),
        ("latency.phase2_p50_ms", "latency.phase2_tail_ms"),
    ]
    .into_iter()
    .enumerate()
    {
        let (percentile, value) = tail(&c.latencies[p]);
        m.set(p50, median(&c.latencies[p]) * 1e3);
        m.set(tail_name, value * 1e3);
        tails.push((percentile, c.latencies[p].len()));
    }
    m.set("traced.phase1_per_kcu", per_kcu[0]);
    m.set("traced.phase2_per_kcu", per_kcu[1]);

    println!(
        "eager step budget ({}; {} steps, {:.3} ms a step):",
        cfg.workload,
        step_count,
        measured / 1e6
    );
    for name in ["input", "forward", "gradient_vars", "apply", "dist_step"] {
        if eager.contains_key(name) {
            println!("  {name:<14} {:6.1}%", 100.0 * ratio(total_of(name), step_ns));
        }
    }
    println!("  {:<14} {:6.1}%", "residual", 100.0 * m.get("budget.step_residual_share"));
    println!(
        "dispatch model: {:.0} ops x {:.0} ns + {:.3} ms kernels = {:.3} ms, {:.1}% of the measured step",
        eager_ops_per_step,
        m.get("runtime.eager_op_taped_ns"),
        ratio(kernel_ns[0], steps[0]) / 1e6,
        modelled / 1e6,
        100.0 * m.get("budget.dispatch_model_share")
    );
    for (p, (percentile, samples)) in tails.iter().enumerate() {
        println!("latency phase {}: tail is p{percentile} of {samples} operations", p + 1);
    }

    let dir = report::out_dir()?;
    let path = dir.join(format!("{}-seed{}.trace.json", cfg.workload, cfg.seed));
    std::fs::write(&path, spans::chrome_trace(all_spans)).map_err(|e| format!("{path:?}: {e}"))?;
    println!("spans: {} written to {}", all_spans.len(), path.display());
    Ok(())
}
