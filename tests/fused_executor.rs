//! Differential tests for the compiled fused-elementwise tile executor
//! (`tfe_graph::program::CompiledProgram`), the one evaluator of a fused
//! program: the tiled path must be bit-identical to per-instruction
//! evaluation (`common::per_instruction`, the unfused nodes' kernels) for
//! every unary/binary op, at every length (odd tails, multi-tile sizes)
//! and at every intra-op thread count — for same-shape and for periodic
//! operands (scalars, biases and masks over trailing axes). Non-f32,
//! column and two-partial operands are a typed error, locally and from a
//! dist worker; the fusion pass leaves such groups unfused, and they run
//! bitwise as eager does. A malformed program text is rejected at decode.

mod common;

use common::oracle::{self, Case, Config, Mode, Runner};
use common::{count_op, fuzz_cases, known, per_instruction, same_bits};
use std::sync::Arc;
use tf_eager::dist::{Cluster, ClusterSpec, DistError, RemoteArg, RpcOptions, TransportKind};
use tf_eager::graph::GraphBuilder;
use tf_eager::{Attrs, Tensor};
use tfe_graph::program::{CompiledProgram, Instr, Program};
use tfe_parallel::set_intra_threads;
use tfe_tensor::elementwise::{binary, unary, BinaryOp, UnaryOp};
use tfe_tensor::rng::each_seed;
use tfe_tensor::{Shape, TensorData, TensorError};

/// Run `f` under a forced intra-op thread count, restoring it afterwards.
fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let prev = set_intra_threads(Some(threads));
    let r = f();
    set_intra_threads(prev);
    r
}

fn f32s(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 2048) as f32 - 1024.0) / 256.0
        })
        .collect()
}

fn tensor_f32(n: usize, seed: u64) -> TensorData {
    TensorData::from_vec(f32s(n, seed), Shape::from([n])).unwrap()
}

fn bits32(t: &TensorData) -> Vec<u32> {
    t.as_slice::<f32>().unwrap().iter().map(|x| x.to_bits()).collect()
}

/// Decode and compile `text`, as a fused node made from it is.
fn compiled(text: &str) -> Result<CompiledProgram, String> {
    Ok(Program::decode(text)?.compile())
}

/// Evaluate `text` on `inputs` through the compiled tile executor and
/// through the per-instruction reference (one `elementwise` call per
/// instruction); both must agree bitwise. Returns the tiled result for
/// further checks.
fn tiled_vs_interpreted(text: &str, inputs: &[&TensorData], ctx: &str) -> TensorData {
    let program = Program::decode(text).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let tiled =
        program.clone().compile().eval(inputs).unwrap_or_else(|e| panic!("{ctx} tiled: {e}"));
    let reference =
        per_instruction(&program, inputs).unwrap_or_else(|e| panic!("{ctx} per-instruction: {e}"));
    assert_eq!(bits32(&tiled), bits32(&reference), "{ctx}: tiled vs per-instruction bits");
    tiled
}

/// Every unary op, one-op programs, lengths straddling the lane width and
/// the tile size: tiled == interpreter == direct eager kernel, bitwise.
/// (Domain-breaking inputs are part of the contract: `log`/`sqrt` of a
/// negative must produce identical NaN bits on both paths.)
#[test]
fn unary_ops_tiled_matches_interpreter_and_eager_bitwise() {
    for &op in UnaryOp::all() {
        let text = format!("in:0;u:{}:0|1", op.name());
        for n in [1usize, 7, 8, 9, 4095, 4096, 4097, 10_000] {
            let a = tensor_f32(n, 3 + n as u64);
            let ctx = format!("u:{} n={n}", op.name());
            let tiled = tiled_vs_interpreted(&text, &[&a], &ctx);
            let eager = unary(&a, op).unwrap();
            assert_eq!(bits32(&tiled), bits32(&eager), "{ctx}: tiled vs eager bits");
        }
    }
}

/// Every binary op, same contract.
#[test]
fn binary_ops_tiled_matches_interpreter_and_eager_bitwise() {
    for &op in BinaryOp::all() {
        let text = format!("in:0;in:1;b:{}:0:1|2", op.name());
        for n in [1usize, 9, 4097, 10_000] {
            let a = tensor_f32(n, 5 + n as u64);
            let b = tensor_f32(n, 11 + n as u64);
            let ctx = format!("b:{} n={n}", op.name());
            let tiled = tiled_vs_interpreted(&text, &[&a, &b], &ctx);
            let eager = binary(&a, &b, op).unwrap();
            assert_eq!(bits32(&tiled), bits32(&eager), "{ctx}: tiled vs eager bits");
        }
    }
}

/// Random multi-op programs over 1-3 inputs: registers get recycled, the
/// output may or may not be the last instruction, lengths include lane
/// tails and multiple tiles. Tiled == interpreter bitwise.
#[test]
fn random_chains_tiled_matches_interpreter() {
    each_seed(fuzz_cases(48), |rng| {
        let num_inputs = rng.range(1..4);
        let ops: Vec<(usize, usize, usize)> = (0..rng.range(1usize..12))
            .map(|_| (rng.range(0..30), rng.range(0..64), rng.range(0..64)))
            .collect();
        let n = [1usize, 3, 8, 100, 2048, 4099, 9001][rng.range(0usize..7)];
        let (out_back, seed) = (rng.range(0usize..4), rng.range(0u64..1000));
        let unaries = UnaryOp::all();
        let binaries = BinaryOp::all();
        let mut instrs: Vec<Instr> = (0..num_inputs).map(Instr::Input).collect();
        for (sel, a, b) in ops {
            let a = a % instrs.len();
            let b = b % instrs.len();
            // ~2/3 unary, ~1/3 binary, both drawing sources from any
            // earlier register so lifetimes overlap and buffers recycle.
            if sel < 20 {
                instrs.push(Instr::Unary(unaries[sel % unaries.len()], a));
            } else {
                instrs.push(Instr::Binary(binaries[sel % binaries.len()], a, b));
            }
        }
        let output = instrs.len() - 1 - out_back.min(instrs.len() - 1);
        let p = Program { instrs, output };
        // Valid by construction: sources always reference earlier registers.
        assert!(p.validate(num_inputs).is_ok(), "generator produced an invalid program");
        let text = p.encode();
        let inputs: Vec<TensorData> =
            (0..num_inputs).map(|k| tensor_f32(n, seed + k as u64)).collect();
        let refs: Vec<&TensorData> = inputs.iter().collect();
        let ctx = format!("chain {text} n={n}");
        let tiled = tiled_vs_interpreted(&text, &refs, &ctx);
        // Decoding the text loses nothing: the generated program itself
        // evaluates to the same bits.
        let direct = per_instruction(&p, &refs).unwrap();
        assert_eq!(bits32(&tiled), bits32(&direct), "chain {} n={}", text, n);
    });
}

/// The tiled executor parallelizes over fixed tile boundaries, so the
/// result is bit-identical at every thread count — including lengths that
/// leave partial tiles and partial lanes.
#[test]
fn tiled_execution_is_thread_count_invariant() {
    let text = "in:0;in:1;b:mul:0:1;u:tanh:2;b:add:3:1;u:sigmoid:4;b:sub:5:0;\
                u:exp:6;b:minimum:7:1;u:sqrt:3;b:add:8:9|10";
    for n in [1usize, 9, 4097, 100_003] {
        let a = tensor_f32(n, 21);
        let b = tensor_f32(n, 22);
        let base = with_threads(1, || tiled_vs_interpreted(text, &[&a, &b], "threads=1"));
        for threads in [2usize, 3, 5, 8] {
            let got = with_threads(threads, || compiled(text).unwrap().eval(&[&a, &b]).unwrap());
            assert_eq!(
                bits32(&base),
                bits32(&got),
                "fused-tiled must be bit-identical at n={n} threads={threads}"
            );
        }
    }
}

/// `n` elements: quiet NaNs of the given bits, every fifth one a number.
fn nans_f32(n: usize, bits: u32, seed: u64) -> TensorData {
    let v = f32s(n, seed)
        .into_iter()
        .enumerate()
        .map(|(i, x)| if i % 5 == 4 { x } else { f32::from_bits(bits) })
        .collect();
    TensorData::from_vec(v, Shape::from([n])).unwrap()
}

/// A fused program and the unfused kernels it replaces run on the same
/// lane-aligned tiles, so opposite-sign NaN operands give the same bits
/// through both, at 1 and at 4 intra-op threads: which NaN an element
/// propagates depends only on its index, the length and the op.
#[test]
fn fused_and_unfused_agree_on_nan_bits_at_every_thread_count() {
    for n in [4099usize, 40_001, 100_005] {
        let a = nans_f32(n, 0x7fc0_0001, 31);
        let b = nans_f32(n, 0xffc0_0002, 32);
        for &op in BinaryOp::all() {
            let text = format!("in:0;in:1;b:{}:0:1;u:neg:2;b:{}:3:1|4", op.name(), op.name());
            let program = Program::decode(&text).unwrap();
            let fused = program.clone().compile();
            for threads in [1usize, 4] {
                let ctx = format!("{text} n={n} threads={threads}");
                let (tiled, unfused) = with_threads(threads, || {
                    (fused.eval(&[&a, &b]).unwrap(), per_instruction(&program, &[&a, &b]).unwrap())
                });
                assert_eq!(bits32(&tiled), bits32(&unfused), "{ctx}: fused vs unfused");
                let one = with_threads(1, || binary(&a, &b, op).unwrap());
                let many = with_threads(threads, || binary(&a, &b, op).unwrap());
                assert_eq!(bits32(&one), bits32(&many), "{ctx}: unfused at 1 thread");
            }
        }
    }
}

fn shaped_f32(dims: &[usize], seed: u64) -> TensorData {
    TensorData::from_vec(f32s(dims.iter().product(), seed), Shape::from(dims)).unwrap()
}

/// Periodic operands — scalars, `[k]` and `[1, k]` biases, periods longer
/// than a tile and periods that do not divide it — take the tile path and
/// agree bitwise with per-instruction evaluation at 1 and N intra-op
/// threads. Degenerate outputs (empty, size-1 axes) included.
#[test]
fn periodic_operands_tile_and_match_interpreter_bitwise() {
    // tanh(x * w + bias) * scale: a dense layer's chain. 1170-element tiles
    // (one scratch register, four inputs, the output).
    let dense = "in:0;in:1;b:mul:0:1;in:2;b:add:2:3;u:tanh:4;in:3;b:mul:5:6|7";
    // [out, w, bias, scale]
    let cases: [[&[usize]; 4]; 8] = [
        [&[64, 10], &[64, 10], &[10], &[]],
        [&[64, 10], &[1, 10], &[10], &[1, 1]],
        [&[64, 10], &[], &[1, 10], &[64, 10]],
        [&[3, 5000], &[3, 5000], &[5000], &[]], // period > tile
        [&[700, 7], &[7], &[1, 7], &[]],        // period does not divide the tile
        [&[2, 3, 1000], &[1000], &[3, 1000], &[1, 1, 1]],
        [&[0, 4], &[0, 4], &[4], &[]],
        [&[5, 1], &[5, 1], &[1], &[]],
    ];
    for [out, w, bias, scale] in cases {
        let inputs =
            [shaped_f32(out, 41), shaped_f32(w, 42), shaped_f32(bias, 43), shaped_f32(scale, 44)];
        let refs: Vec<&TensorData> = inputs.iter().collect();
        let base = with_threads(1, || tiled_vs_interpreted(dense, &refs, &format!("{out:?} t=1")));
        assert_eq!(base.shape().dims(), out);
        for threads in [2usize, 5] {
            let got = with_threads(threads, || {
                tiled_vs_interpreted(dense, &refs, &format!("{out:?} t={threads}"))
            });
            assert_eq!(bits32(&base), bits32(&got), "{out:?} threads={threads}");
        }
    }

    // A register smaller than the output (`tanh(bias)` is `[k]` when
    // evaluated per instruction) is computed at full length on tiles.
    let small_reg = "in:0;u:tanh:0;in:1;b:mul:1:2|3";
    let (bias, x) = (shaped_f32(&[9], 51), shaped_f32(&[300, 9], 52));
    let tiled = tiled_vs_interpreted(small_reg, &[&bias, &x], "tanh(bias) * x");
    assert_eq!(tiled.shape().dims(), &[300, 9]);
}

/// A scalar operand tiles. A column against a row is two partial
/// operands: the per-instruction reference would broadcast them, the tiles
/// refuse them, typed (the fusion pass never builds such a node).
#[test]
fn compiled_scalar_operand_tiles_and_column_is_refused() {
    let text = "in:0;in:1;b:mul:0:1|2";
    let a = TensorData::from_vec(vec![1.0f32, 2.0], Shape::from([2, 1])).unwrap();
    let b = TensorData::scalar(10.0f32);
    let r = tiled_vs_interpreted(text, &[&a, &b], "column * scalar");
    assert_eq!(r.shape().dims(), &[2, 1]);
    assert_eq!(r.to_f64_vec(), vec![10.0, 20.0]);
    let row = TensorData::from_vec(vec![1.0f32, 2.0, 3.0], Shape::from([3])).unwrap();
    match compiled(text).unwrap().eval(&[&a, &row]) {
        Err(TensorError::InvalidArgument(e)) => assert!(e.contains("periodic"), "{e}"),
        other => panic!("want a typed refusal, got {other:?}"),
    }
}

/// The inputs the output register depends on decide the output shape: in
/// `in:0;in:1;u:neg:0;b:add:0:1|2` input 1 feeds only a dead instruction,
/// so the output is input 0's shape, and a dead input larger than that is
/// not a periodic operand of it.
#[test]
fn live_inputs_decide_the_output_shape() {
    let text = "in:0;in:1;u:neg:0;b:add:0:1|2";
    let small = tensor_f32(3, 61);
    let big = shaped_f32(&[2, 3], 62);
    let r = tiled_vs_interpreted(text, &[&small, &small], "dead input of the same shape");
    assert_eq!(r.shape().dims(), &[3]);
    assert!(matches!(
        compiled(text).unwrap().eval(&[&small, &big]),
        Err(TensorError::InvalidArgument(_))
    ));
}

/// `tanh(a + b)`: the program of the refusal tests.
const ADD_TANH: &str = "in:0;in:1;b:add:0:1;u:tanh:2|3";

/// Operand pairs the tiles do not take, each with the eager value of
/// `tanh(a + b)`: f64 operands, two partial operands, and a `[n, 1]`
/// column against the full shape on either side.
fn refused_operands() -> Vec<([TensorData; 2], TensorData)> {
    let f64s = |f: fn(f64) -> f64| {
        TensorData::from_vec(
            (0..100).map(|i| f(i as f64)).collect::<Vec<f64>>(),
            Shape::from([100]),
        )
        .unwrap()
    };
    let (a64, b64) = (f64s(|i| i * 0.25 - 12.0), f64s(|i| 3.0 - i * 0.125));
    let col = shaped_f32(&[6, 1], 31);
    let row = shaped_f32(&[1, 5], 32);
    let full = shaped_f32(&[6, 5], 33);
    [[a64, b64], [col.clone(), row], [col.clone(), full.clone()], [full, col]]
        .into_iter()
        .map(|[a, b]| {
            let want = unary(&binary(&a, &b, BinaryOp::Add).unwrap(), UnaryOp::Tanh).unwrap();
            ([a, b], want)
        })
        .collect()
}

/// Inputs the tiles do not take are a typed error from
/// `CompiledProgram::eval`, and from a dist worker handed the fused op as
/// bytes a `RemoteFault` — never a panic, never another evaluator's answer.
#[test]
fn inputs_the_tiles_refuse_are_typed_errors_locally_and_remotely() {
    tf_eager::init();
    let compiled = compiled(ADD_TANH).unwrap();
    let cases = refused_operands();
    for ([a, b], _) in &cases {
        let ctx = format!("{:?} {} + {:?} {}", a.dtype(), a.shape(), b.dtype(), b.shape());
        match compiled.eval(&[a, b]) {
            Err(TensorError::InvalidArgument(e)) => assert!(e.contains("fused program"), "{e}"),
            other => panic!("{ctx}: want a typed refusal, got {other:?}"),
        }
    }
    let spec = ClusterSpec::new().with_job("w", 1).unwrap();
    for kind in [TransportKind::InProcess, TransportKind::Tcp] {
        let cluster = Cluster::start_with(&spec, kind, RpcOptions::default()).expect("starts");
        let dev = "/job:w/task:0/device:CPU:0";
        for ([a, b], _) in &cases {
            let args = [a, b].map(|t| RemoteArg::from(&Tensor::from_data(t.clone())));
            let attrs = Attrs::new().with("program", ADD_TANH);
            match cluster.execute(dev, "fused_elementwise", &args, attrs) {
                Err(DistError::RemoteFault { detail, .. }) => {
                    assert!(detail.contains("fused program"), "{kind:?}: {detail}");
                }
                other => panic!("{kind:?}: want a remote fault, got {:?}", other.map(|_| ())),
            }
        }
        cluster.shutdown();
    }
}

/// The same operands as graph arguments: the default pipeline leaves the
/// `add -> tanh` group unfused, and the optimized graph, run by the serial
/// planner and replayed eagerly, is bitwise the eager kernels.
#[test]
fn groups_the_tiles_refuse_stay_unfused_and_match_eager_bitwise() {
    tf_eager::init();
    for ([a, b], want) in refused_operands() {
        let mut g = GraphBuilder::new("refused_add_tanh");
        let x = g.placeholder(a.dtype(), known(a.shape().dims())).unwrap();
        let y = g.placeholder(b.dtype(), known(b.shape().dims())).unwrap();
        let s = g.add_node("add", vec![x, y], Attrs::new()).unwrap()[0];
        let t = g.add_node("tanh", vec![s], Attrs::new()).unwrap()[0];
        let ctx = format!("{:?} {} + {}", a.dtype(), a.shape(), b.shape());
        let case = Case {
            graph: g.finish(vec![t], 0),
            args: vec![Arc::new(a), Arc::new(b)],
            variables: Vec::new(),
        };
        let fused = oracle::optimize(&case.graph, Config::Fused).unwrap();
        assert_eq!(count_op(&fused.graph, "fused_elementwise"), 0, "{ctx}\n{}", fused.graph.dump());
        assert_eq!(fused.stats.rewrites_for("fuse_elementwise"), 0, "{ctx}");
        for runner in [Runner::Serial, Runner::Eager] {
            let got = oracle::run(&case, Mode::Optimized(Config::Fused, runner)).unwrap();
            assert!(same_bits(&got.outputs[0], &want), "{ctx} {runner:?}");
        }
    }
}

/// A malformed program text is rejected when it is decoded, before
/// anything could compile or run it.
#[test]
fn compile_cache_deduplicates_by_text() {
    assert!(compiled("in:0;u:nosuch:0|1").is_err());
}
