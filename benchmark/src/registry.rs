//! Readings of the program's always-on metrics registry, and the difference
//! between two of them. A family that has labels is summed over its labels.
//! The families named here are the whole list the benchmark depends on.

use std::collections::BTreeMap;
use tf_eager::metrics::{HistogramSnapshot, SampleValue, Snapshot};

pub const COUNTERS: &[&str] = &[
    "tfe_eager_ops_dispatched_total",
    "tfe_eager_bytes_allocated_total",
    "tfe_executor_nodes_run_total",
    "tfe_trace_cache_hits_total",
    "tfe_trace_cache_misses_total",
    "tfe_trace_cache_retraces_total",
    "tfe_fused_tiled_elements_total",
    "tfe_pool_jobs_total",
    "tfe_intra_par_kernels_total",
    "tfe_intra_serial_kernels_total",
    "tfe_dist_rpcs_total",
    "tfe_dist_bytes_sent_total",
    "tfe_dist_bytes_received_total",
    "tfe_dist_rpc_retries_total",
    "tfe_dist_rpc_timeouts_total",
    "tfe_dist_rpc_failures_total",
];

pub const HISTOGRAMS: &[&str] =
    &["tfe_kernel_time_ns", "tfe_dist_rpc_ns", "tfe_pool_queue_wait_ns"];

pub const GAUGES: &[&str] = &["tfe_live_tensor_bytes_peak"];

/// A histogram with nothing in it: what a missing family reads as.
fn empty_hist() -> HistogramSnapshot {
    HistogramSnapshot { bounds: Vec::new(), counts: Vec::new(), count: 0, sum: 0 }
}

/// Bucket by bucket; an empty side takes the other's buckets.
fn add_hist(total: &mut HistogramSnapshot, other: &HistogramSnapshot) {
    if total.counts.is_empty() {
        *total = other.clone();
        return;
    }
    for (a, b) in total.counts.iter_mut().zip(&other.counts) {
        *a += b;
    }
    total.count += other.count;
    total.sum += other.sum;
}

#[derive(Clone, Debug, Default)]
pub struct Reading {
    pub counters: BTreeMap<&'static str, u64>,
    pub hists: BTreeMap<&'static str, HistogramSnapshot>,
    pub gauges: BTreeMap<&'static str, i64>,
}

impl Reading {
    pub fn now() -> Reading {
        Reading::of(&tf_eager::metrics::snapshot())
    }

    /// A family the program has not registered yet reads as zero.
    pub fn of(snapshot: &Snapshot) -> Reading {
        let mut r = Reading::default();
        for &name in COUNTERS {
            let mut total = 0;
            for s in snapshot.family(name).map_or(&[][..], |f| &f.samples) {
                if let SampleValue::Counter(v) = s.value {
                    total += v;
                }
            }
            r.counters.insert(name, total);
        }
        for &name in HISTOGRAMS {
            let mut total = empty_hist();
            for s in snapshot.family(name).map_or(&[][..], |f| &f.samples) {
                if let SampleValue::Histogram(h) = &s.value {
                    add_hist(&mut total, h);
                }
            }
            r.hists.insert(name, total);
        }
        for &name in GAUGES {
            let v = snapshot.gauge_value(name).unwrap_or(0);
            r.gauges.insert(name, v);
        }
        r
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn hist(&self, name: &str) -> HistogramSnapshot {
        self.hists.get(name).cloned().unwrap_or_else(empty_hist)
    }

    /// What happened between `earlier` and `self`. Counters and histograms
    /// subtract; a gauge keeps the later value.
    pub fn since(&self, earlier: &Reading) -> Reading {
        let mut d = self.clone();
        for (name, v) in d.counters.iter_mut() {
            *v -= earlier.counter(name);
        }
        for (name, h) in d.hists.iter_mut() {
            let e = earlier.hist(name);
            for (a, b) in h.counts.iter_mut().zip(&e.counts) {
                *a -= b;
            }
            h.count -= e.count;
            h.sum -= e.sum;
        }
        d
    }

    /// Add another difference to this one (rounds of one phase).
    pub fn accumulate(&mut self, other: &Reading) {
        for (name, v) in &other.counters {
            *self.counters.entry(name).or_default() += v;
        }
        for (name, h) in &other.hists {
            add_hist(self.hists.entry(name).or_insert_with(empty_hist), h);
        }
        for (name, v) in &other.gauges {
            let g = self.gauges.entry(name).or_default();
            *g = (*g).max(*v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(ops: u64, kernel: (&[u64], u64)) -> Reading {
        let mut r = Reading::default();
        r.counters.insert("tfe_eager_ops_dispatched_total", ops);
        r.hists.insert(
            "tfe_kernel_time_ns",
            HistogramSnapshot {
                bounds: vec![100, 1000],
                counts: kernel.0.to_vec(),
                count: kernel.0.iter().sum(),
                sum: kernel.1,
            },
        );
        r.gauges.insert("tfe_live_tensor_bytes_peak", ops as i64);
        r
    }

    #[test]
    fn deltas_subtract_counters_and_histograms_and_keep_the_later_gauge() {
        let a = reading(10, (&[1, 2, 0], 900));
        let b = reading(25, (&[4, 2, 1], 5_900));
        let d = b.since(&a);
        assert_eq!(d.counter("tfe_eager_ops_dispatched_total"), 15);
        let h = d.hist("tfe_kernel_time_ns");
        assert_eq!((h.counts.clone(), h.sum, h.count), (vec![3, 0, 1], 5_000, 4));
        assert_eq!(d.gauges["tfe_live_tensor_bytes_peak"], 25);
        // A family missing from the earlier reading counts from zero.
        assert_eq!(b.since(&Reading::default()).counter("tfe_eager_ops_dispatched_total"), 25);
    }

    #[test]
    fn deltas_accumulate_over_rounds() {
        let zero = reading(0, (&[0, 0, 0], 0));
        let mut total = Reading::default();
        total.accumulate(&reading(5, (&[1, 0, 0], 50)).since(&zero));
        total.accumulate(&reading(7, (&[0, 2, 0], 700)).since(&zero));
        assert_eq!(total.counter("tfe_eager_ops_dispatched_total"), 12);
        assert_eq!(total.hist("tfe_kernel_time_ns").counts, vec![1, 2, 0]);
        assert_eq!(total.hist("tfe_kernel_time_ns").sum, 750);
    }

    #[test]
    fn reads_the_live_registry() {
        let before = Reading::now();
        let x = tf_eager::api::scalar(1.0f32);
        tf_eager::api::add(&x, &x).unwrap();
        let d = Reading::now().since(&before);
        // At least: other tests in this process may dispatch meanwhile.
        assert!(d.counter("tfe_eager_ops_dispatched_total") >= 1);
        assert!(d.hist("tfe_kernel_time_ns").count >= 1);
    }
}
