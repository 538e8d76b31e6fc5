//! Result files: the environment block every one of them carries, and where
//! they go.

use std::path::PathBuf;
use std::process::Command;
use tf_eager::encode::Value;

pub fn object<'a>(pairs: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)))
}

/// `benchmark/out/`, made on first use.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Remove every `TFE_*` variable, so that no knob of the program is set, and
/// say which were there. Call before anything touches the program.
pub fn clear_tfe_env() -> Vec<String> {
    let mut names: Vec<String> =
        std::env::vars_os().filter_map(|(k, _)| k.into_string().ok()).collect();
    names.retain(|k| k.starts_with("TFE_"));
    names.sort();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

/// The commit under test: git's answer for the checkout this was built
/// from, or `unknown` where that is not a repository. Git is not asked then,
/// because it would look for one in the directories above.
fn commit() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    if !std::path::Path::new(root).join(".git").exists() {
        return "unknown".to_string();
    }
    Command::new("git")
        .args(["-C", root, "rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The program's intra-op pool keeps its default: the host's parallelism,
/// at most 16. The facade has no door to the pool, so this repeats the rule.
fn intra_op_threads(nproc: usize) -> usize {
    nproc.clamp(1, 16)
}

/// Threads in this process now: the program's pool and, on dist, its
/// workers. The harness itself has one. Read while the workload is alive:
/// dropping it takes the clusters' threads with it.
pub fn process_threads() -> i64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| l.strip_prefix("Threads:")).and_then(|n| n.trim().parse().ok())
        })
        .unwrap_or(0)
}

pub fn environment(seed: u64, cycles: u64, process_threads: i64, cleared: &[String]) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    object([
        ("nproc", Value::Int(nproc as i64)),
        ("intra_op_threads", Value::Int(intra_op_threads(nproc) as i64)),
        ("process_threads", Value::Int(process_threads)),
        ("seed", Value::Int(seed as i64)),
        ("cycles", Value::Int(cycles as i64)),
        ("commit", Value::str(commit())),
        // The compiler that built this binary, as build.rs asked it.
        ("rustc", Value::str(env!("BENCH_RUSTC"))),
        ("tfe_cleared", Value::Array(cleared.iter().map(Value::str).collect())),
        ("claim", Value::Null),
    ])
}

/// The parts of two environment blocks that must agree before their numbers
/// may be compared. The seed and the commit are what a comparison varies;
/// the `TFE_*` names were cleared before the program ran, so they are
/// recorded and change nothing.
pub const COMPARABLE: [&str; 4] = ["nproc", "intra_op_threads", "cycles", "rustc"];
