//! `suite`: every workload, N untraced runs and one traced run, each in a
//! fresh process with seeds n, n+1, …, gathered into one set file.
//! `suite --smoke` is the short form `check.sh` uses: 2 s a run, and every
//! run must print exactly the names and units BENCHMARK.json lists.

use crate::metrics::{Spec, END_TO_END, PER_LAYER};
use crate::report::{self, COMPARABLE};
use crate::workloads::NAMES;
use crate::Args;
use std::process::Command;
use tf_eager::encode::Value;

/// BENCHMARK.json, next to the benchmark's directory.
pub fn contract() -> Result<Value, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// One run in a fresh process; returns the result file it wrote. A run
/// whose checks failed exits non-zero but still writes its file.
fn child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let name = format!("{workload}-seed{seed}-trace{}.json", trace as u8);
    let path = report::out_dir()?.join(name);
    let _ = std::fs::remove_file(&path); // never mistake an older run's file for this one's
    eprintln!("suite: {workload} seed {seed} trace {}", trace as u8);
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let text = std::fs::read_to_string(&path).map_err(|_| {
        let stderr = String::from_utf8_lossy(&out.stderr);
        format!("{workload} seed {seed} exited with {} and no result:\n{stderr}", out.status)
    })?;
    Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The run printed exactly the contract's names for its mode, each with the
/// contract's unit, and the contract agrees with the tables in metrics.rs.
fn check_names(run: &Value, contract: &Value, trace: bool) -> Result<(), String> {
    let (key, table): (&str, &[Spec]) =
        if trace { ("per_layer", PER_LAYER) } else { ("end_to_end", END_TO_END) };
    let listed = contract.get(key).and_then(Value::as_array).ok_or(format!("no `{key}`"))?;
    let printed = run.get("metrics").and_then(Value::as_object).ok_or("no metrics")?;
    if listed.len() != printed.len() || listed.len() != table.len() {
        return Err(format!(
            "{key}: BENCHMARK.json lists {}, metrics.rs {}, the run printed {}",
            listed.len(),
            table.len(),
            printed.len()
        ));
    }
    for (entry, spec) in listed.iter().zip(table) {
        let field = |f: &str| entry.get(f).and_then(Value::as_str).unwrap_or("?");
        if (field("name"), field("unit"), field("better")) != *spec {
            return Err(format!(
                "{key}: BENCHMARK.json has {entry:?} where metrics.rs has {spec:?}"
            ));
        }
        let unit = printed.get(spec.0).and_then(|m| m.get("unit")).and_then(Value::as_str);
        if unit != Some(spec.1) {
            return Err(format!("{key}: `{}` printed with unit {unit:?}", spec.0));
        }
    }
    Ok(())
}

pub fn suite(args: &Args) -> Result<bool, String> {
    let contract = contract()?;
    let smoke = args.get("smoke").is_some();
    let listed: Vec<&str> = contract
        .get("workloads")
        .and_then(Value::as_array)
        .map(|w| w.iter().filter_map(|e| e.get("name").and_then(Value::as_str)).collect())
        .unwrap_or_default();
    if listed != NAMES {
        return Err(format!(
            "BENCHMARK.json lists workloads {listed:?}, the benchmark has {NAMES:?}"
        ));
    }
    let run_seconds =
        contract.get("run_seconds").and_then(Value::as_i64).ok_or("no run_seconds")?;
    let (runs, seconds) = if smoke {
        (1, 2)
    } else {
        (args.number("runs", None)?, args.number("seconds", Some(run_seconds as u64))?)
    };
    let first_seed = args.number("seed", Some(1))?;

    let mut all = Vec::new();
    let mut correct = true;
    for workload in NAMES {
        for (seed, trace) in
            (first_seed..first_seed + runs).map(|s| (s, false)).chain([(first_seed, true)])
        {
            let run = child(workload, seed, seconds, trace)?;
            if smoke {
                check_names(&run, &contract, trace)?;
            }
            correct &= run.get("correct") == Some(&Value::Bool(true));
            all.push(run);
        }
    }

    // One environment for the set: every run's must agree on it.
    let env_of = |run: &Value| {
        let env = run.get("env").cloned().unwrap_or(Value::Null);
        report::object(COMPARABLE.map(|k| (k, env.get(k).cloned().unwrap_or(Value::Null))))
    };
    let env = env_of(&all[0]);
    if let Some(other) = all.iter().find(|r| env_of(r) != env) {
        return Err(format!("runs of one set disagree on the environment: {:?}", other.get("env")));
    }
    let mut env = env.as_object().expect("an object").clone();
    env.insert(
        "commit".to_string(),
        all[0].get("env").and_then(|e| e.get("commit")).cloned().unwrap_or(Value::Null),
    );
    // The set's seeds are `seed`, `seed` + 1, … for `runs` of them.
    env.insert("seed".to_string(), Value::Int(first_seed as i64));
    env.insert("runs".to_string(), Value::Int(runs as i64));
    env.insert("claim".to_string(), Value::Null);
    let set = report::object([
        ("env", Value::Object(env)),
        ("runs", Value::Array(all)),
        ("claim", Value::Null),
    ]);
    if let Some(path) = args.get("out") {
        std::fs::write(path, set.to_json_pretty()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("suite: wrote {path}");
    }
    println!(
        "{}",
        if correct { "suite: every run correct" } else { "suite: a run was NOT correct" }
    );
    Ok(correct)
}
