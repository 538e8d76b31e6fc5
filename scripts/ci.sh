#!/usr/bin/env bash
# CI gate for the tf-eager workspace.
#
# Order is cheap-to-expensive: formatting, then clippy with warnings
# denied, then the full (multi-threaded) test suite in debug, then the
# corpus differential + concurrency stress suites again in release —
# the scheduler races worth catching only show up with optimized codegen
# and real thread interleavings — and last the differential on an
# enlarged corpus.
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

# One-door gate: a graph node is written by hand only in `GraphBuilder`,
# which every traced, replayed and decoded node goes through, and in the one
# fused node `fuse_elementwise` emits for members that were already checked.
# The per-pass rewiring the replay replaced must not come back under its
# names.
echo "==> Node literals only in graph/builder.rs and fuse_elementwise; no per-pass rewiring"
if grep -rnE '(^|[^A-Za-z_&])Node \{' --include='*.rs' crates src tests examples \
    | grep -vE '(struct|impl|enum) Node \{' \
    | grep -vE '^crates/graph/src/builder\.rs:' \
    | grep -vE '^crates/graph/src/passes\.rs:[0-9]+: *f\.nodes\[sink\] = Node \{'; then exit 1; fi
if grep -rnE 'materialize_known|cse_counted|simplify_algebraic_counted|drop_stateful' \
    --include='*.rs' crates src tests examples; then exit 1; fi

# Decoder gate: a decoded graph is replayed through the builder, so its
# output signatures, statefulness and sequencing edges are derived, never
# read from the bytes, and the recomputation that re-sequenced old payloads
# is a test reference only. A file's library part is what comes before its
# first `#[cfg(test)]`.
echo "==> graph/serial.rs reads no derived field; sequence_control_edges only under cfg(test)"
library_part() { sed '/^#\[cfg(test)\]/,$d' "$1"; }
if library_part crates/graph/src/serial.rs \
    | grep -nE '"control"|"stateful"|legacy_controls|GraphFunction \{'; then exit 1; fi
for f in $(grep -rl 'sequence_control_edges' crates src); do
    if library_part "${f}" | grep -n 'sequence_control_edges'; then exit 1; fi
done

# Typed-parameter gate: an op's attributes are read by key in one place,
# `Params::decode` (crates/ops/src/params.rs), which applies every default
# and range check; the attribute map's own module and the graph codec are the
# boundary around it. Kernels, inference, gradients, passes and the
# executor read typed fields, so no other library part may read an
# attribute by key.
echo "==> string-keyed attribute reads only in ops/attr.rs, ops/params.rs and graph/serial.rs"
keyed_read='\.(int|float|bool|str|int_list|dtype|label|handle)(_or)?(::<[^>]*>)?\("'
keyed=0
for f in $(grep -rlE "${keyed_read}" --include='*.rs' crates/*/src src); do
    case "${f}" in
        crates/ops/src/attr.rs | crates/ops/src/params.rs | crates/graph/src/serial.rs) continue ;;
    esac
    if library_part "${f}" | grep -nE "${keyed_read}" | sed "s|^|${f}:|" | grep .; then keyed=1; fi
done
[ "${keyed}" = 0 ]

# Function-lifetime gate: a node holds what it runs — its callee graph, its
# compiled fused program, its host closure — by handle, and one weak name
# index (`tfe_core::concrete_named`) serves the callers that hold only a name
# (DESIGN.md §7). A strong name -> function map in core is the immortal
# second owner coming back; the function library, the fused-program compile
# cache, the host-closure table, the owner side channel that kept their
# names resolving and the per-load renaming must not come back either.
echo "==> no table between a node and what it runs; no name -> Arc<ConcreteFunction> in core"
if grep -rnE 'HashMap<String, *Arc<ConcreteFunction>>' crates/core/src; then exit 1; fi
lifetime_gone='library\(\)|FunctionLibrary|COMPILED|retain_in_trace|keep_alive|register_host_fn|HostFnHandle|\bOwner\b|__loaded'
if grep -rnE "${lifetime_gone}" crates src tests examples; then exit 1; fi

# One-evaluator gate: the fusion pass fuses every group of f32 unary and
# binary nodes, all of which the tile executor takes, and the tiles are the
# only library code that evaluates a fused program (DESIGN.md §14). The per-instruction fallback beside them, its
# counter and the fused node's output-dtype attribute (f32 is the only one)
# must not come back; per-instruction evaluation is a test reference under
# tests/common. `out_dtypes` of call nodes is another attribute.
echo "==> one fused evaluator: no fallback, no out_dtype, no Program::eval in crates/ or src/"
if grep -rnE 'tfe_fused_fallback_evals_total|"out_dtype"|program\(\)\.eval|\bProgram::eval' \
    crates src; then exit 1; fi

# Typed-element gate: the tensor kernels read and write typed slices (the
# data-movement ones move typed runs through `copy_runs`), and walk an index
# space with `shape::strided`, the crate's one walk. An element that goes
# out through `f64` and back loses an i64 beyond 2^53 and quiets a
# signalling NaN, so only `data.rs`, which defines the conversions, may
# call them; the second walk they replaced must not come back anywhere.
echo "==> tensor kernels: no get_f64_linear/set_f64_linear outside data.rs, no BroadcastWalker"
f64_route=0
for f in crates/tensor/src/*.rs; do
    [ "${f}" = crates/tensor/src/data.rs ] && continue
    if library_part "${f}" | grep -nE 'get_f64_linear|set_f64_linear' | sed "s|^|${f}:|" | grep .; then
        f64_route=1
    fi
done
[ "${f64_route}" = 0 ]
if grep -rn 'BroadcastWalker' crates src tests examples; then exit 1; fi

# One-tiler gate: every elementwise map — the unfused kernels of every dtype
# and the fused tile executor — fills its output through
# `tfe_tensor::lanes::Tiler`, whose lane-multiple tiles make an element's
# bits (a NaN's included) depend on its index, not on the split or on who ran
# it (DESIGN.md §9). The per-dtype loops it replaced must not come back, and
# neither file may split an output itself. Library parts only: each file cut
# at its first `#[cfg(test)]`.
echo "==> one elementwise tiler: no per-dtype map loops, no par_chunks_mut in elementwise.rs or program.rs"
tiler=0
for f in $(grep -rlE 'map2_par|binary_f32_lanes|unary_par|PERIODIC_WINDOW' crates src tests); do
    if library_part "${f}" | grep -nE 'map2_par|binary_f32_lanes|unary_par|PERIODIC_WINDOW' \
        | sed "s|^|${f}:|" | grep .; then tiler=1; fi
done
for f in crates/tensor/src/elementwise.rs crates/graph/src/program.rs; do
    if library_part "${f}" | grep -n 'par_chunks_mut' | sed "s|^|${f}:|" | grep .; then tiler=1; fi
done
[ "${tiler}" = 0 ]

# One-operand-reader gate: the fused tile executor reads its inputs through
# `tfe_tensor::lanes::Operand`, as every unfused elementwise kernel does, so
# fusion needs no shape rule of its own (DESIGN.md §14). The static periodic
# rule, the group check built on it and a periodic reader outside lanes.rs
# must not come back. Library parts only: each file cut at its first
# `#[cfg(test)]`.
echo "==> one operand reader: no static periodic rule, no tiles_take, Periodic only in lanes.rs"
reader=0
for f in $(grep -rl 'is_periodic_in' crates/ops/src crates/graph/src); do
    if library_part "${f}" | grep -n 'is_periodic_in' | sed "s|^|${f}:|" | grep .; then reader=1; fi
done
for f in $(grep -rl 'tiles_take' crates src tests); do
    if library_part "${f}" | grep -n 'tiles_take' | sed "s|^|${f}:|" | grep .; then reader=1; fi
done
for f in $(grep -rlw 'Periodic' crates src); do
    [ "${f}" = crates/tensor/src/lanes.rs ] && continue
    if library_part "${f}" | grep -nw 'Periodic' | sed "s|^|${f}:|" | grep .; then reader=1; fi
done
[ "${reader}" = 0 ]

# One-product-kernel gate: every matrix product runs on gemm.rs's register
# tile, reading packed panels or the operands in place (DESIGN.md §9). The
# separate small-product loop it replaced must not come back under its
# name. Library parts only: each file cut at its first `#[cfg(test)]`.
echo "==> one product kernel: no matmul_direct"
direct=0
for f in $(grep -rl 'matmul_direct' crates src tests); do
    if library_part "${f}" | grep -n 'matmul_direct' | sed "s|^|${f}:|" | grep .; then direct=1; fi
done
[ "${direct}" = 0 ]

# Typed-pooling gate: `pool2d` and `pool2d_grad` read and write typed slices
# in the input's dtype, their scratch rows from the per-thread pools
# (DESIGN.md §9). Only the two direct-loop references kept for the parity
# tests may widen a whole tensor to `f64` and back or build a `Vec` per
# window. Library part only.
echo "==> pool.rs: no to_f64_vec, from_f64_vec or Vec::new() outside the *_reference functions"
if library_part crates/tensor/src/pool.rs \
    | awk '/^pub fn pool2d(_grad)?_reference\(/ { skip = 1 } !skip { print NR ": " $0 } skip && /^}/ { skip = 0 }' \
    | grep -E 'to_f64_vec|from_f64_vec|Vec::new\(\)'; then exit 1; fi

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

# One-recorder gate: the profiler's per-thread buffer is the only event
# store; the flight recorder is a bounded window of it (DESIGN.md §16). The
# second per-thread ring it replaced — its packed slots, its thread
# registry and tid counter — must not come back.
echo "==> one per-thread event recorder in crates/profile/src"
if grep -rnE 'NEXT_RING_TID|SLOT_WORDS|fn rings\(' crates/profile/src; then exit 1; fi

# One-tally gate: the metrics registry is the only place a count lives and
# the only way to read one (DESIGN.md §11). The typed mirrors of the
# executor and intra-op families, the profile summary's re-count of
# trace-cache and abort instants, and the `#sig` series label of an
# input-signature variant (which now gets a fresh name) must not come back.
# Word boundaries keep test names such as `exec_stats_snapshot_is_never_torn`.
echo "==> one tally per event: no stats mirror beside the metrics registry"
if grep -rnE '\b(exec_stats|intra_stats|ExecStats|IntraStats|cache_hit_rate)\b|#sig' \
    crates src tests examples; then exit 1; fi

# Unsafe allowlist: the pool's lifetime extension in `scope_chunks` and the
# counting allocator are the only `unsafe` code, each with its SAFETY
# argument and a test (DESIGN.md §9). Anything else is a new argument to
# make there first.
echo "==> unsafe only in tfe_parallel::scope_chunks and tfe_bench::alloc"
if grep -rn unsafe crates/*/src src tests examples \
    | grep -vE '^crates/(parallel/src/lib|bench/src/alloc)\.rs:'; then exit 1; fi

# Bitwise gate: every differential compares bits (`common::same_bits`). A
# tolerance of zero reads as exact but is not: it takes -0.0 for +0.0 and
# any NaN for any other.
echo "==> no all_close(.., 0.0, 0.0) under tests/"
if grep -rnE 'all_close\([^)]*0\.0, *0\.0' tests; then exit 1; fi

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
echo "==> corpus differential + concurrency stress + staged gradients + lifetimes (release, ${THREADS} threads)"
cargo test --release -q --test differential --test exec_differential --test concurrency \
    --test staging_semantics --test gradcheck --test lifetimes -- --test-threads "${THREADS}"

# Same differential suite with the worker pool collapsed to one thread:
# kernels promise identical bits at every intra-op thread count, so the
# serial==parallel guarantees must also hold when nothing actually runs
# concurrently (and when the pool has no helpers to steal tiles).
echo "==> differential + kernel parity with TFE_NUM_THREADS=1 (release)"
TFE_NUM_THREADS=1 cargo test --release -q --test differential --test exec_differential \
    --test kernel_parity

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
    "${asan[@]}" --test kernel_parity --test fused_executor --test differential \
        --test exec_differential --test concurrency -- --test-threads "${THREADS}"
else
    echo "SKIPPED: AddressSanitizer step (no nightly toolchain; install one to run it)"
fi

# Pass-pipeline gate: the optimizer's differential in release — every
# corpus graph (stateless, stateful, algebraic-biased, dead-store-biased;
# all seeds fixed) must agree bit for bit with the unoptimized serial
# baseline under every configuration and runner, a graph with no dead
# store must be done in one replay round, every constant pool must hold
# exactly what its graph names, and the rewrite counters must be nonzero
# on the biased corpora — plus the optimizer's own properties
# (idempotence, reproducible hashes, the hand-built rewrites).
# TFE_FUZZ_CASES scales the corpora (default sizes here; raise for
# overnight soaks, lower for a smoke run).
echo "==> pass-pipeline differential fuzz gate (release)"
cargo test --release -q --test differential --test pass_pipeline -- --test-threads "${THREADS}"

# Fused-executor gate: the compiled tile executor must stay bitwise
# against per-instruction evaluation (every op variant, random chains,
# periodic and gathered operands, NaN bits, several thread counts), give
# gathered operands the eager bits locally, in optimized graphs and from a
# dist worker, refuse non-f32 inputs and an input that does not broadcast
# into the output with a typed error (locally and from a dist worker), keep
# non-f32 groups unfused and bitwise eager, and reject malformed program
# text, with release codegen — the lane kernels only vectorize there. Then
# its random chains again at 1500 cases, which reach NaN inputs of `erf` and
# `softplus` (each returns a NaN unchanged).
echo "==> fused executor differential (release)"
cargo test --release -q --test fused_executor -- --test-threads "${THREADS}"
echo "==> fused executor random chains at TFE_FUZZ_CASES=1500 (release)"
TFE_FUZZ_CASES=1500 cargo test --release -q --test fused_executor -- --test-threads "${THREADS}"

# Fusion is the default lowering, so both gates above also run with the
# worker pool collapsed to one thread (tiles, periodic windows and gathered
# operands must not depend on a split).
echo "==> pass pipeline + fused executor with TFE_NUM_THREADS=1 (release)"
TFE_NUM_THREADS=1 cargo test --release -q --test differential --test pass_pipeline \
    --test fused_executor

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
# must beat op-by-op by >= 2x. It stages a dense layer's broadcasting chain (the
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

# Observability gate: the probe budgets (a disabled profiler probe < 2% of
# an eager dispatch, a counter bump < 5 ns over an atomic increment, a
# probe site with profiler and flight recorder off < 5 ns), then one staged
# parallel training workload feeding both the profiler checks (chrome
# trace parses, spans on >= 2 thread rows nest per row, cache miss/hit
# instants, a matmul row, no aborts) and the registry checks (Prometheus
# text parses, histograms consistent, counters monotone, retraces flat, a
# shape change diagnosed), and a batched serve workload (parallel
# executor) whose requests' flow events must each form one s -> t* -> f
# chain across >= 2 thread rows (>= 3, reaching a pool worker, on at least
# one) on role-named rows; last, a poisoned batch must leave a flight dump
# naming the failing op with the request's trace id.
echo "==> observability smoke (probe budgets, profiler, registry, causal chains, flight dump)"
cargo run --release -q -p tfe-bench --bin observability_smoke > /dev/null

# Distribution gate: the trainer's unit tests (requests, rounds' worth of
# bytes and resident tensors per step pinned; step == local_step bitwise)
# and the integration suite over both transports — one-request rounds
# (execute, call_function, fetch) and many-request rounds (both
# collectives, all tensors at once and one at a time, bitwise against
# their references for 1-3 workers), a round with a killed worker failing
# typed inside its deadline with the survivor's connection still in step,
# an oversized request refused before it is sent — then the wire-format
# hardening fuzz (truncations, single-byte mutations handed on to a
# worker, hostile lengths) and the corpus differential, whose stateless
# graphs must execute bitwise-identically locally, over the in-process
# transport, and over real TCP. The trainer and the integration suite are
# repeated with TFE_NUM_THREADS=1: a round's workers run at the same time,
# and must not wait on the intra-op pool, or on each other, to make
# progress.
echo "==> distribution suite + wire hardening + dist differential (release)"
cargo test --release -q -p tfe-nn dist_train
cargo test --release -q --test distributed --test wire_hardening --test dist_differential \
    --test differential -- --test-threads "${THREADS}"
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

# Enlarged corpus: the corpus suites at 1000 cases a corpus, every mode of
# the oracle's table, and the kernel parity fuzz at 1000 random geometries
# a kernel — among them both conv gradients, bitwise against their direct
# loops (≈ 10 s on 2 vCPUs, release; --no-fail-fast, so one suite's
# failure does not hide the others').
echo "==> corpus differential + kernel parity on an enlarged corpus (TFE_FUZZ_CASES=1000, release)"
TFE_FUZZ_CASES=1000 cargo test --release -q --no-fail-fast --test differential --test exec_differential \
    --test dist_differential --test pass_pipeline --test kernel_parity
# The fused executor's random chains at 5000 cases: NaN inputs meet in
# binary ops there, and the fused and unfused bits must still agree exactly
# (`common::same_bits`), which the lane-aligned tiles make hold.
echo "==> fused executor random chains at TFE_FUZZ_CASES=5000 (release)"
TFE_FUZZ_CASES=5000 cargo test --release -q --test fused_executor -- --test-threads "${THREADS}"

echo "CI gate passed."
