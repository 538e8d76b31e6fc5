#!/usr/bin/env bash
# CI gate for the tf-eager workspace.
#
# Order is cheap-to-expensive: formatting, then clippy with warnings
# denied, then the full (multi-threaded) test suite in debug, then the
# executor differential + concurrency stress suites again in release —
# the scheduler races worth catching only show up with optimized codegen
# and real thread interleavings.
set -euo pipefail
cd "$(dirname "$0")/.."

THREADS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

# Knob count gate: every TFE_* environment variable the crates read must be
# a row of the table in README "Operating it", so an option cannot be added
# without being counted.
echo "==> every TFE_* variable read in crates/*/src is in README's table"
undocumented=0
for v in $(grep -rhE -A2 'env::var(_os)?\(' crates/*/src | grep -oE 'TFE_[A-Z0-9_]+' | sort -u); do
    grep -q "^| \`${v}\` |" README.md || { echo "not in README's table: ${v}"; undocumented=1; }
done
[ "${undocumented}" = 0 ]

# One-op-table gate: the op set is the `tfe_ops::Op` enum, and definitions,
# kernels and gradients are `match`es over it. The string-keyed registries
# it replaced, their lazy-init calls and their lookups must not come back.
echo "==> no op/kernel/gradient registry, no lazy init, no lookup by name"
gone='ensure_kernels|ensure_gradients|ensure_standard_ops|ensure_init\(|OpRegistry|global\(\)\.lookup|has_kernel|register_gradient\("'
if grep -rnE "${gone}" crates src tests; then exit 1; fi
if grep -n 'RwLock<HashMap' crates/ops/src/opdef.rs crates/runtime/src/kernels.rs \
    crates/autodiff/src/registry.rs; then exit 1; fi

# One-door gate: a graph node is written by hand where it is made from
# checked parts — `GraphBuilder` (every traced and every replayed node) and
# the deserializer, which validates what it builds — plus the one fused node
# `fuse_elementwise` emits for members that were already checked. The
# per-pass rewiring the replay replaced must not come back under its names.
echo "==> Node literals only in graph/{builder,serial}.rs and fuse_elementwise; no per-pass rewiring"
if grep -rnE '(^|[^A-Za-z_&])Node \{' --include='*.rs' crates src tests examples \
    | grep -vE '(struct|impl|enum) Node \{' \
    | grep -vE '^crates/graph/src/(builder|serial)\.rs:' \
    | grep -vE '^crates/graph/src/passes\.rs:[0-9]+: *f\.nodes\[sink\] = Node \{'; then exit 1; fi
if grep -rnE 'materialize_known|cse_counted|simplify_algebraic_counted|drop_stateful' \
    --include='*.rs' crates src tests examples; then exit 1; fi

# Function-lifetime gate: the tables that resolve a name are indexes. A
# traced function is owned by its `ConcreteFunction` and held by what can
# still reach it (DESIGN.md §7); a strong name -> function map in core is the
# immortal second owner coming back.
echo "==> no name -> Arc<ConcreteFunction> table in crates/core/src"
if grep -rnE 'HashMap<String, *Arc<ConcreteFunction>>' crates/core/src; then exit 1; fi

# Copy-kernel gate: the data-movement kernels move typed runs through one
# helper (`copy_runs`); an element that goes out through `f64` and back
# loses an i64 beyond 2^53 and quiets a signalling NaN.
echo "==> no set_f64_linear(get_f64_linear(..)) copy in tensor/src/shape_ops.rs"
if grep -nE 'set_f64_linear\([^,]*, *[A-Za-z_.]*get_f64_linear\(' crates/tensor/src/shape_ops.rs; then exit 1; fi

# Synchronous-dispatch gate: an eager op runs on the caller before
# `execute` returns. The async streams, pending handles, deferred errors,
# the dispatch-mode switches and the serve dispatch option must not come
# back; `async_scope` survives only as a pass-through, defined once and
# re-exported by the facade for the repository benchmark.
echo "==> no async eager dispatch; async_scope only at its definition and facade re-export"
async_gone='TFE_ASYNC|AsyncSlot|PendingValue|Deferred \{|\bsync_scope|async_enabled|async_pending|is_pending|Dispatch::'
if grep -rnE "${async_gone}" crates src tests examples; then exit 1; fi
if grep -rn 'async_scope' crates src tests examples \
    | grep -vE '^crates/runtime/src/context\.rs:[0-9]+:pub fn async_scope<' \
    | grep -vE '^src/lib\.rs:[0-9]+:pub use tfe_runtime::context::async_scope;$'; then exit 1; fi

# Observer gate: the simulator behind Figure 3, Table 1 and Figure 4 (the
# virtual clock, the cost models, the cost-only zeros) lives in tfe-bench and
# reaches the runtime only through its one observer hook; a device is a name.
# Its names must not come back anywhere else.
echo "==> simulator names only under crates/bench"
sim_gone='SimConfig|set_sim|simulate_op|SimOp|compute_model|KernelMode|produces_real_values|zero_value|VirtualClock|SimStats|DispatchModel|ComputeModel'
if grep -rnE "${sim_gone}" crates/*/src src | grep -v '^crates/bench/'; then exit 1; fi

# One-pair gate: a concrete function has one forward variant, and the
# gradients that arrive at its record pick the backward (DESIGN.md §7). The
# forward-time observer rule and the second, any-order pair must not come
# back under their names.
echo "==> one forward variant per staged specialization"
if grep -rnE 'GradTargets|observed_by|first_order_bundle|__fwd1|__bwd1' crates src tests examples; then exit 1; fi

# One-store gate: a staged run's values are plain data — owned by the inline
# driver, behind one lock for the pool driver (DESIGN.md §9). A lock per
# slot must not come back.
echo "==> no per-slot lock in the executor's value store"
if grep -n 'Mutex<Option<Arc<TensorData>>>' crates/runtime/src/executor.rs; then exit 1; fi

# One-generator gate: random numbers — initializers, random ops, dropout and
# every property test — come from the seeded generator in tfe_tensor::rng,
# whose streams its `stream_golden` test pins. The vendored rand and
# proptest stand-ins it replaced must not come back.
echo "==> no rand or proptest; one seeded generator in tfe_tensor::rng"
rng_gone='proptest|(^|[^A-Za-z_])rand::|rand\.workspace|shims/(proptest|rand)'
if grep -rnE "${rng_gone}" crates src tests examples Cargo.toml; then exit 1; fi

# No-vendored-crate gate: the workspace is `crates/*` on std alone. Locks
# are std's, acquired through tfe_parallel's non-poisoning `lock`/`read`/
# `write`; a kernel's disjoint output is split by `par_chunks_mut`. The
# stand-in crate and the raw output pointers they replaced must not come
# back.
echo "==> no vendored crate, no parking_lot, no SendPtr"
if grep -rnE 'parking_lot|shims/|SendPtr' crates src tests examples Cargo.toml; then exit 1; fi

# Unsafe allowlist: the pool's lifetime extension in `scope_chunks` and the
# counting allocator are the only `unsafe` code, each with its SAFETY
# argument and a test (DESIGN.md §9). Anything else is a new argument to
# make there first.
echo "==> unsafe only in tfe_parallel::scope_chunks and tfe_bench::alloc"
if grep -rn unsafe crates/*/src src tests examples \
    | grep -vE '^crates/(parallel/src/lib|bench/src/alloc)\.rs:'; then exit 1; fi

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test (debug, ${THREADS} threads)"
cargo test --workspace -q -- --test-threads "${THREADS}"

# With them, gradients through staged calls: the one forward variant with
# its first-order and seeded backwards, under one tape and two, against the
# eager tape (bitwise) and against finite differences.
# And function lifetime: a dropped `Func`
# leaves nothing behind (by count), whatever can still reach a function
# keeps it, a name whose owner is gone is a typed error.
echo "==> executor differential + concurrency stress + staged gradients + lifetimes (release, ${THREADS} threads)"
cargo test --release -q --test exec_differential --test concurrency --test staging_semantics \
    --test gradcheck --test lifetimes -- --test-threads "${THREADS}"

# Same differential suite with the worker pool collapsed to one thread:
# kernels promise identical bits at every intra-op thread count, so the
# serial==parallel guarantees must also hold when nothing actually runs
# concurrently (and when the pool has no helpers to steal tiles).
echo "==> differential + kernel parity with TFE_NUM_THREADS=1 (release)"
TFE_NUM_THREADS=1 cargo test --release -q --test exec_differential --test kernel_parity

# AddressSanitizer gate: the kernels that hand tiles disjoint blocks of a
# borrowed output, the executors that run them and the pool underneath,
# built with ASan on the nightly toolchain (doctests do not link under ASan,
# hence --lib --tests). Without a nightly toolchain the step cannot run, and
# says so.
echo "==> AddressSanitizer: tensor, parallel, graph crates + kernel/executor/concurrency suites"
if cargo +nightly --version > /dev/null 2>&1; then
    asan=(env RUSTFLAGS=-Zsanitizer=address cargo +nightly test -q
        --target x86_64-unknown-linux-gnu)
    "${asan[@]}" -p tfe-tensor -p tfe-parallel -p tfe-graph --lib --tests
    "${asan[@]}" --test kernel_parity --test fused_executor --test exec_differential \
        --test concurrency -- --test-threads "${THREADS}"
else
    echo "SKIPPED: AddressSanitizer step (no nightly toolchain; install one to run it)"
fi

# Pass-pipeline gate: the optimizer's differential fuzz harness in
# release — every corpus graph (stateless, stateful, algebraic-biased,
# dead-store-biased; all seeds fixed) must agree with the unoptimized
# serial baseline under every configuration (bit for bit on the
# algebraic corpus wherever nothing folds or fuses), a graph with no dead
# store must be done in one replay round, every constant pool must hold
# exactly what its graph names, and the rewrite counters must be nonzero
# on the biased corpora.
# TFE_FUZZ_CASES scales the corpora (default sizes here; raise for
# overnight soaks, lower for a smoke run).
echo "==> pass-pipeline differential fuzz gate (release)"
cargo test --release -q --test pass_pipeline -- --test-threads "${THREADS}"

# Fused-executor gate: the compiled tile executor must stay bitwise
# against per-instruction evaluation (every op variant, random chains,
# periodic operands, several thread counts, generic fallback,
# compile-cache identity) with release codegen — the lane kernels only
# vectorize there.
echo "==> fused executor differential (release)"
cargo test --release -q --test fused_executor -- --test-threads "${THREADS}"

# Fusion is the default lowering, so both gates above also run with the
# worker pool collapsed to one thread (tiles and periodic windows must
# not depend on a split).
echo "==> pass pipeline + fused executor with TFE_NUM_THREADS=1 (release)"
TFE_NUM_THREADS=1 cargo test --release -q --test pass_pipeline --test fused_executor

# Serving gate: the differential suite proves N
# concurrent batched requests are bitwise identical to N sequential
# unbatched calls (across batch sizes, zero-row members, version swaps,
# poisoned batches fanning the typed error to every member), the
# degenerate-shape suite pins the concat/split/reduce edge cases the
# batcher leans on, and the importer fuzz suite feeds the registry's
# bundle loader mutated/truncated bundles.
echo "==> serving differential + degenerate shapes + importer fuzz (release)"
cargo test --release -q --test serving --test degenerate_shapes --test saved_hardening \
    -- --test-threads "${THREADS}"

# Serving smoke: a SavedFunction bundle behind the registry under 8
# concurrent clients — responses must match the direct staged call
# bitwise, the batcher must actually coalesce (mean batch rows > 1.5),
# and the tfe_serve_* metric families must account for every request.
echo "==> serving smoke (bundle behind the batcher, metrics audited)"
cargo run --release -q -p tfe-bench --bin serving_smoke > /dev/null

# The kernel bench doubles as the fused-executor perf gate, and asserts
# its gates on every run. It times a 10-op fused f32 chain unfused vs
# tiled (the fused_chain entry of BENCH_kernels.json): the tiled executor
# must beat op-by-op by >= 2x and a compile-cache hit must beat a
# re-parse. It stages a dense layer's broadcasting chain (the
# fused_broadcast_chain entry) with fusion off and on: bitwise equal,
# fused not slower. It times the adaptive micro-batcher against the
# unbatched serving front at concurrency 8 (the serving entry): with >= 4
# hardware threads batching must win by >= 2x; on smaller runners, where
# that wall-clock ratio flakes, it is skipped. It runs a 12-branch wide
# graph through the inline and the pool driver (the wide_graph entry):
# bitwise equal before either is timed.
echo "==> kernel bench smoke (--quick, fused + serving asserted)"
cargo run --release -q -p tfe-bench --bin kernel_bench -- --quick > /dev/null

# Figures gate: Figure 3, Table 1 and Figure 4 are reproduced on the
# virtual clock, deterministically, so the committed experiments.json must
# come out of all_experiments byte for byte. It runs in a temporary
# directory, where it writes its own copy, so the committed file is never
# overwritten.
echo "==> all_experiments reproduces experiments.json byte for byte"
root="${PWD}"
figures="$(mktemp -d)"
(cd "${figures}" && cargo run --release -q --manifest-path "${root}/Cargo.toml" \
    -p tfe-bench --bin all_experiments > /dev/null 2> stderr) \
    || { cat "${figures}/stderr"; exit 1; }
cmp "${figures}/experiments.json" experiments.json
rm -rf "${figures}"

# Profiler gate: asserts the disabled probe costs < 2% of an eager
# dispatch, then profiles two staged parallel training steps and
# validates the chrome trace (JSON parses, spans land on >= 2 thread
# rows, spans per thread nest, cache miss/hit instants present).
echo "==> profiler smoke (overhead + trace validation)"
cargo run --release -q -p tfe-bench --bin profiler_smoke > /dev/null

# Metrics gate: asserts a counter bump costs < 5 ns, trains a staged model
# briefly, and validates the always-on registry (Prometheus text parses,
# histograms internally consistent, no counter decreases between scrapes,
# trace_cache_retraces_total flat during steady-state training).
echo "==> metrics smoke (probe overhead + exposition validation)"
cargo run --release -q -p tfe-bench --bin metrics_smoke > /dev/null

# Distribution gate: the trainer's unit tests (requests, rounds' worth of
# bytes and resident tensors per step pinned; step == local_step bitwise)
# and the integration suite over both transports — one-request rounds
# (execute, call_function, fetch) and many-request rounds (both
# collectives, all tensors at once and one at a time, bitwise against
# their references for 1-3 workers), a round with a killed worker failing
# typed inside its deadline with the survivor's connection still in step,
# an oversized request refused before it is sent — then the wire-format
# hardening fuzz (truncations, single-byte mutations handed on to a
# worker, hostile lengths) and the dist differential: every sampled corpus
# graph must execute bitwise-identically locally, over the in-process
# transport, and over real TCP. The trainer and the integration suite are
# repeated with TFE_NUM_THREADS=1: a round's workers run at the same time,
# and must not wait on the intra-op pool, or on each other, to make
# progress.
echo "==> distribution suite + wire hardening + dist differential (release)"
cargo test --release -q -p tfe-nn dist_train
cargo test --release -q --test distributed --test wire_hardening --test dist_differential \
    -- --test-threads "${THREADS}"
echo "==> distribution suite with TFE_NUM_THREADS=1 (release)"
TFE_NUM_THREADS=1 cargo test --release -q -p tfe-nn dist_train
TFE_NUM_THREADS=1 cargo test --release -q --test distributed -- --test-threads "${THREADS}"

# Distribution smoke: boots real TCP workers on localhost, trains
# data-parallel through both collectives bitwise-equal to the
# single-process reference, counts a step's requests and rounds (3 in 2
# through the parameter server, 6 in 3 around the ring), reconciles the
# tfe_dist_* metric families (RPC completions == latency samples, bytes
# moved both ways, more program steps than requests), and kills a worker
# mid-run — every request shape must surface a typed DistError within the
# deadline while the survivor keeps serving.
echo "==> dist smoke (TCP workers, bitwise training parity, chaos)"
cargo run --release -q -p tfe-bench --bin dist_smoke > /dev/null

# Causal-tracing gate: asserts the flight recorder's disabled path costs
# < 5 ns per probe site, runs a batched serve workload (parallel
# executor) under profiling and checks every request's flow events form
# one connected s -> t* -> f chain across >= 2 thread rows (front door,
# batcher; >= 3 on at least one, reaching a pool worker), that thread
# rows carry role names, and that a poisoned batch leaves a flight dump
# naming the failing op with the request's trace id.
echo "==> trace smoke (flight overhead + causal chain validation)"
cargo run --release -q -p tfe-bench --bin trace_smoke > /dev/null

echo "CI gate passed."
