//! The names, units and directions of every metric the benchmark prints.
//! BENCHMARK.json lists the same; `check.sh` fails if the two disagree.

use std::collections::BTreeMap;
use tf_eager::encode::Value;

/// `(name, unit, better)`.
pub type Spec = (&'static str, &'static str, &'static str);

pub const END_TO_END: &[Spec] = &[
    ("setup_s", "s", "lower"),
    ("phase1_per_kcu", "1/kcu", "higher"),
    ("phase2_per_kcu", "1/kcu", "higher"),
    ("trace_cu", "cu", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

pub const PER_LAYER: &[Spec] = &[
    ("tensor.kernel_time_share_phase1", "share", "lower"),
    ("tensor.kernel_time_share_phase2", "share", "lower"),
    ("tensor.conv2d_fwd_ms", "ms", "lower"),
    ("tensor.conv2d_bwd_ms", "ms", "lower"),
    ("tensor.matmul_256_us", "us", "lower"),
    ("tensor.add_small_ns", "ns", "lower"),
    ("ops.infer_ns", "ns", "lower"),
    ("runtime.eager_op_ns", "ns", "lower"),
    ("runtime.eager_op_taped_ns", "ns", "lower"),
    ("runtime.async_op_ns", "ns", "lower"),
    ("runtime.eager_ops_per_step", "count", "lower"),
    ("runtime.staged_nodes_per_step", "count", "lower"),
    ("runtime.executor_overhead_ns_per_node", "ns", "lower"),
    ("runtime.variable_assign_us", "us", "lower"),
    ("runtime.bytes_allocated_per_step", "bytes", "lower"),
    ("runtime.live_tensor_bytes_peak", "bytes", "lower"),
    ("autodiff.backward_share", "share", "lower"),
    ("autodiff.backward_ns_per_op", "ns", "lower"),
    ("core.call_hit_us", "us", "lower"),
    ("core.staged_calls_per_step", "count", "lower"),
    ("core.cache_hits", "count", "higher"),
    ("core.cache_misses", "count", "lower"),
    ("core.retraces", "count", "lower"),
    ("core.trace_us_per_op", "us", "lower"),
    ("graph.nodes_after", "count", "lower"),
    ("graph.sweeps", "count", "lower"),
    ("graph.rewrites_total", "count", "higher"),
    ("graph.fused_elements_per_step", "count", "higher"),
    ("graph.function_encode_ms", "ms", "lower"),
    ("graph.function_decode_ms", "ms", "lower"),
    ("graph.tensor_encode_mb_s", "MB/s", "higher"),
    ("graph.tensor_decode_mb_s", "MB/s", "higher"),
    ("encode.write_mb_s", "MB/s", "higher"),
    ("encode.parse_mb_s", "MB/s", "higher"),
    ("dist.frame_encode_us", "us", "lower"),
    ("dist.frame_decode_us", "us", "lower"),
    ("dist.rpc_ping_us", "us", "lower"),
    ("dist.rpcs_per_step", "count", "lower"),
    ("dist.wire_bytes_per_step", "bytes", "lower"),
    ("dist.wire_amplification", "ratio", "lower"),
    ("dist.rpc_p50_us", "us", "lower"),
    ("dist.rpc_p99_us", "us", "lower"),
    ("dist.allreduce_ps_ms", "ms", "lower"),
    ("dist.allreduce_ring_ms", "ms", "lower"),
    ("dist.local_step_ms", "ms", "lower"),
    ("dist.retries", "count", "lower"),
    ("dist.timeouts", "count", "lower"),
    ("dist.failures", "count", "lower"),
    ("nn.forward_share", "share", "lower"),
    ("nn.optimizer_share", "share", "lower"),
    ("nn.input_ms_per_step", "ms", "lower"),
    ("parallel.pool_jobs_per_step", "count", "lower"),
    ("parallel.queue_wait_p50_us", "us", "lower"),
    ("parallel.par_kernel_ratio", "ratio", "higher"),
    ("device.placed_op_ns", "ns", "lower"),
    ("profile.enabled_op_overhead_ns", "ns", "lower"),
    ("metrics.snapshot_us", "us", "lower"),
    ("raw.phase1_per_s", "1/s", "higher"),
    ("raw.phase2_per_s", "1/s", "higher"),
    ("raw.trace_ms", "ms", "lower"),
    ("calib.units_per_s", "cu/s", "higher"),
    ("calib.slice_spread", "share", "lower"),
    ("latency.phase1_p50_ms", "ms", "lower"),
    ("latency.phase1_tail_ms", "ms", "lower"),
    ("latency.phase2_p50_ms", "ms", "lower"),
    ("latency.phase2_tail_ms", "ms", "lower"),
    ("traced.phase1_per_kcu", "1/kcu", "higher"),
    ("traced.phase2_per_kcu", "1/kcu", "higher"),
    ("budget.step_residual_share", "share", "lower"),
    ("budget.dispatch_model_share", "share", "higher"),
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().chain(PER_LAYER).find(|s| s.0 == name)
}

/// The metrics of one run, by name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// # Panics
    /// A name that is not in the tables above: a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let spec = spec(name).unwrap_or_else(|| panic!("`{name}` is not a metric"));
        self.0.insert(spec.0, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The run must print exactly the names of `table`, each a number.
    pub fn check_against(&self, table: &[Spec]) -> Result<(), String> {
        for (name, _, _) in table {
            match self.0.get(name) {
                Some(v) if v.is_finite() => {}
                other => return Err(format!("metric `{name}` is {other:?}")),
            }
        }
        match self.0.keys().find(|k| !table.iter().any(|s| s.0 == **k)) {
            Some(extra) => Err(format!("metric `{extra}` does not belong to this run")),
            None => Ok(()),
        }
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`
    pub fn to_value(&self) -> Value {
        Value::object(self.0.iter().map(|(name, value)| {
            let unit = spec(name).expect("set() checked the name").1;
            let entry = Value::object([
                ("value".to_string(), Value::Float(*value)),
                ("unit".to_string(), Value::str(unit)),
            ]);
            (name.to_string(), entry)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_used_once_and_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(["lower", "higher"].contains(better));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn a_run_must_print_exactly_its_table() {
        let mut m = Metrics::new();
        for (name, _, _) in END_TO_END {
            m.set(name, 1.0);
        }
        assert!(m.check_against(END_TO_END).is_ok());
        m.set("raw.trace_ms", 1.0);
        assert!(m.check_against(END_TO_END).unwrap_err().contains("raw.trace_ms"));
        let mut m = Metrics::new();
        m.set("setup_s", f64::NAN);
        assert!(m.check_against(END_TO_END).is_err());
    }
}
