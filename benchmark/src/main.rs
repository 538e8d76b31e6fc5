//! The repo benchmark. See README.md.
//!
//! ```text
//! tfe-benchmark --workload NAME --seed N --seconds N --trace 0|1
//! tfe-benchmark suite --runs N --out set.json [--seed N] [--seconds N] [--smoke]
//! tfe-benchmark compare a.json b.json
//! ```

mod calib;
mod compare;
mod estimate;
mod metrics;
mod probes;
mod registry;
mod report;
mod rng;
mod run;
mod spans;
mod suite;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use tf_eager::encode::Value;

/// `--flag value` pairs after the subcommand, plus bare words.
pub struct Args {
    flags: BTreeMap<String, String>,
    words: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut words = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some("smoke") => drop(flags.insert("smoke".to_string(), "1".to_string())),
                Some(name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.insert(name.to_string(), value.clone());
                }
                None => words.push(a.clone()),
            }
        }
        Ok(Args { flags, words })
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    pub fn number(&self, name: &str, default: Option<u64>) -> Result<u64, String> {
        match (self.get(name), default) {
            (Some(v), _) => v.parse().map_err(|_| format!("--{name} {v}: not a whole number")),
            (None, Some(d)) => Ok(d),
            (None, None) => Err(format!("--{name} is required")),
        }
    }
}

fn run_one(args: &Args) -> Result<bool, String> {
    let cleared = report::clear_tfe_env();
    let cfg = run::Config {
        workload: args.get("workload").ok_or("--workload is required")?.to_string(),
        seed: args.number("seed", None)?,
        seconds: args.number("seconds", None)?.max(1),
        trace: match args.get("trace") {
            Some("0") => false,
            Some("1") => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    };
    let outcome = run::run(&cfg)?;
    let line = report::object([
        ("correct", Value::Bool(outcome.correct)),
        ("attempted", Value::Int(outcome.attempted as i64)),
        ("failed", Value::Int(outcome.failed as i64)),
        ("metrics", outcome.metrics.to_value()),
    ]);
    // The whole result, with its environment, beside the trace.
    let mut file = line.as_object().expect("an object").clone();
    file.insert("workload".to_string(), Value::str(&cfg.workload));
    file.insert("trace".to_string(), Value::Int(cfg.trace as i64));
    file.insert("details".to_string(), outcome.details);
    let env = report::environment(cfg.seed, cfg.seconds, outcome.process_threads, &cleared);
    file.insert("env".to_string(), env);
    file.insert("claim".to_string(), Value::Null);
    let name = format!("{}-seed{}-trace{}.json", cfg.workload, cfg.seed, cfg.trace as u8);
    let path = report::out_dir()?.join(name);
    std::fs::write(&path, Value::Object(file).to_json_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", line.to_json());
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some("suite") => ("suite", &argv[1..]),
        Some("compare") => ("compare", &argv[1..]),
        _ => ("run", &argv[..]),
    };
    let done = Args::parse(rest).and_then(|args| match command {
        "suite" => suite::suite(&args),
        "compare" => compare::compare(&args.words),
        _ => run_one(&args),
    });
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("tfe-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
