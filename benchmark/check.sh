#!/bin/bash
# The benchmark's own CI: format, lints, unit tests (paired-median
# estimator, percentile rule, span self-time, registry deltas, compare
# rule), then a smoke suite of at most 2 s per workload, traced and
# untraced, that fails unless every run prints exactly the names and units
# BENCHMARK.json lists.
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --release --offline --all-targets -- -D warnings
cargo test --release --offline
cargo run --release --offline --quiet -- suite --smoke
echo "benchmark check: OK"
