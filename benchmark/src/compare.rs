//! `compare a.json b.json`: two set files of `suite`, one row per metric ×
//! workload. `a` is the base; every ratio is `b ÷ a`.

use crate::estimate::{median, spread};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::report::COMPARABLE;
use crate::suite::contract;
use crate::workloads::NAMES;
use tf_eager::encode::Value;

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Regression,
    /// Within the bound, but a set spreads wider than the bound, so "no
    /// change" cannot be told from noise.
    Unresolved,
}

/// The rule. `a` is the base set's values, `b` the other's.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if lower_is_better { (mb - ma) / ma } else { (ma - mb) / ma };
    let widest = [a, b].iter().filter(|v| v.len() >= 2).map(|v| spread(v)).fold(0.0, f64::max);
    if worse_by > bound {
        Verdict::Regression
    } else if widest > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn runs<'a>(set: &'a Value, workload: &str, trace: i64) -> Vec<&'a Value> {
    set.get("runs")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Value::as_str) == Some(workload)
                && r.get("trace").and_then(Value::as_i64) == Some(trace)
        })
        .collect()
}

fn values(runs: &[&Value], metric: &str) -> Vec<f64> {
    runs.iter().filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64()).collect()
}

fn failed_share(runs: &[&Value]) -> f64 {
    let sum = |k: &str| runs.iter().filter_map(|r| r.get(k)?.as_f64()).sum::<f64>();
    sum("failed") / sum("attempted").max(1.0)
}

pub fn compare(paths: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = paths else {
        return Err("compare takes two set files".to_string());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    for key in COMPARABLE {
        let of = |set: &Value| set.get("env").and_then(|e| e.get(key)).cloned();
        if of(&a) != of(&b) {
            return Err(format!(
                "refusing to compare: environments differ on `{key}`: {:?} vs {:?}",
                of(&a),
                of(&b)
            ));
        }
    }
    let contract = contract()?;
    let bound_of = |metric: &str| {
        contract
            .get("end_to_end")
            .and_then(Value::as_array)
            .and_then(|list| {
                list.iter().find(|e| e.get("name").and_then(Value::as_str) == Some(metric))
            })
            .and_then(|e| e.get("bound"))
            .and_then(Value::as_f64)
    };

    let mut all_ok = true;
    println!(
        "{:<24} {:<22} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "metric", "workload", "median a", "median b", "b/a", "spread a", "spread b", "bound"
    );
    for workload in NAMES {
        let (ra, rb) = (runs(&a, workload, 0), runs(&b, workload, 0));
        for (metric, _, better) in END_TO_END {
            let (va, vb) = (values(&ra, metric), values(&rb, metric));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{metric} on {workload}: a set has no untraced run"));
            }
            let bound =
                bound_of(metric).ok_or(format!("BENCHMARK.json has no bound for {metric}"))?;
            let verdict = judge(&va, &vb, *better == "lower", bound);
            all_ok &= verdict != Verdict::Regression;
            let sp =
                |v: &[f64]| if v.len() >= 2 { format!("{:.3}", spread(v)) } else { "-".into() };
            println!(
                "{metric:<24} {workload:<22} {:>12.5} {:>12.5} {:>8.3} {:>8} {:>8} {bound:>6.2}  {}",
                median(&va),
                median(&vb),
                median(&vb) / median(&va),
                sp(&va),
                sp(&vb),
                format!("{verdict:?}").to_lowercase()
            );
        }
        let (fa, fb) = (failed_share(&ra), failed_share(&rb));
        let failed_more = fb > fa;
        all_ok &= !failed_more;
        println!(
            "{:<24} {workload:<22} {fa:>12.5} {fb:>12.5} {:>8} {:>8} {:>8} {:>6}  {}",
            "failed_share",
            "-",
            "-",
            "-",
            "-",
            if failed_more { "regression" } else { "ok" }
        );
    }
    // Per-layer numbers come from one traced run a set: they say where a
    // change came from, and carry no verdict.
    for workload in NAMES {
        let (ra, rb) = (runs(&a, workload, 1), runs(&b, workload, 1));
        for (metric, _, _) in PER_LAYER {
            let (va, vb) = (values(&ra, metric), values(&rb, metric));
            if let (Some(x), Some(y)) = (va.first(), vb.first()) {
                let ratio = if *x != 0.0 { format!("{:.3}", y / x) } else { "-".to_string() };
                println!("{metric:<40} {workload:<22} {x:>14.5} {y:>14.5} {ratio:>8}  info");
            }
        }
    }
    println!("{{\"regression\": {}, \"base\": \"{a_path}\", \"claim\": null}}", !all_ok);
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_compare_rule() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let up = steady.map(|v| v * 1.2);
        let down = steady.map(|v| v * 0.8);
        // Higher is better: 20% lower is a regression at a 10% bound, 20%
        // higher is not.
        assert_eq!(judge(&steady, &down, false, 0.10), Verdict::Regression);
        assert_eq!(judge(&steady, &up, false, 0.10), Verdict::Ok);
        // Lower is better: the other way round.
        assert_eq!(judge(&steady, &up, true, 0.10), Verdict::Regression);
        assert_eq!(judge(&steady, &down, true, 0.10), Verdict::Ok);
        // Within the bound is ok only while both sets are steadier than it.
        assert_eq!(judge(&steady, &steady.map(|v| v * 0.95), false, 0.10), Verdict::Ok);
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(judge(&steady, &noisy, false, 0.10), Verdict::Unresolved);
        // A regression stays a regression however noisy.
        assert_eq!(judge(&noisy, &noisy.map(|v| v * 0.5), false, 0.10), Verdict::Regression);
    }
}
