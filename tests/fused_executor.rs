//! Differential tests for the compiled fused-elementwise tile executor
//! (`tfe_graph::program::CompiledProgram`): the tiled path must be
//! bit-identical to per-instruction evaluation (`Program::eval`) for every
//! unary/binary op, at every length (odd tails, multi-tile sizes) and at
//! every intra-op thread count — for same-shape and for periodic operands
//! (scalars, biases and masks over trailing axes); non-f32, column and
//! two-partial operands must take the generic fallback and still agree
//! with direct eager evaluation; and
//! the per-node compile cache must hand back the same `Arc` for the same
//! encoded program.

use proptest::prelude::*;
use tfe_graph::program::{self, Instr, Program};
use tfe_parallel::set_intra_threads;
use tfe_tensor::elementwise::{binary, unary, BinaryOp, UnaryOp};
use tfe_tensor::{DType, Shape, TensorData};

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

/// Evaluate `text` on `inputs` through the compiled tile executor and
/// through the per-instruction reference (`Program::eval`, one
/// `elementwise` call per instruction); both must agree bitwise.
/// Returns the tiled result for further checks.
fn tiled_vs_interpreted(text: &str, inputs: &[&TensorData], ctx: &str) -> TensorData {
    let compiled = program::compiled(text).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let tiled = compiled.eval(inputs).unwrap_or_else(|e| panic!("{ctx} tiled: {e}"));
    let reference =
        compiled.program().eval(inputs).unwrap_or_else(|e| panic!("{ctx} per-instruction: {e}"));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random multi-op programs over 1-3 inputs: registers get recycled,
    /// the output may or may not be the last instruction, lengths include
    /// lane tails and multiple tiles. Tiled == interpreter bitwise.
    #[test]
    fn random_chains_tiled_matches_interpreter(
        num_inputs in 1usize..4,
        ops in prop::collection::vec((0usize..30, 0usize..64, 0usize..64), 1..12),
        n_ix in 0usize..7,
        out_back in 0usize..4,
        seed in 0u64..1000,
    ) {
        let n = [1usize, 3, 8, 100, 2048, 4099, 9001][n_ix];
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
        prop_assert!(p.validate(num_inputs).is_ok(), "generator produced an invalid program");
        let text = p.encode();
        let inputs: Vec<TensorData> =
            (0..num_inputs).map(|k| tensor_f32(n, seed + k as u64)).collect();
        let refs: Vec<&TensorData> = inputs.iter().collect();
        let ctx = format!("chain {text} n={n}");
        let tiled = tiled_vs_interpreted(&text, &refs, &ctx);
        // Decoding the text loses nothing: the generated program itself
        // evaluates to the same bits.
        let direct = p.eval(&refs).unwrap();
        prop_assert_eq!(bits32(&tiled), bits32(&direct), "chain {} n={}", text, n);
    }
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
            let got =
                with_threads(threads, || program::compiled(text).unwrap().eval(&[&a, &b]).unwrap());
            assert_eq!(
                bits32(&base),
                bits32(&got),
                "fused-tiled must be bit-identical at n={n} threads={threads}"
            );
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
        let compiled = program::compiled(dense).unwrap();
        assert_eq!(
            compiled.tile_output_shape(&refs),
            Some(Shape::from(out)),
            "{out:?} * {w:?} + {bias:?}, * {scale:?} must tile"
        );
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
    assert!(program::compiled(small_reg).unwrap().tile_output_shape(&[&bias, &x]).is_some());
    tiled_vs_interpreted(small_reg, &[&bias, &x], "tanh(bias) * x");
}

/// Non-f32 dtypes, a `[n, 1]` column operand, and two partial operands
/// that only together span the output don't qualify for the tile executor:
/// `CompiledProgram::eval` must fall back to the generic per-instruction
/// path and still match direct eager evaluation (broadcast included).
#[test]
fn mixed_dtype_and_shape_take_generic_fallback() {
    let text = "in:0;in:1;b:add:0:1;u:tanh:2|3";
    let compiled = program::compiled(text).unwrap();

    // f64 operands: exact same arithmetic as the eager kernels.
    let a64 = TensorData::from_vec(
        (0..100).map(|i| i as f64 * 0.25 - 12.0).collect(),
        Shape::from([100]),
    )
    .unwrap();
    let b64 = TensorData::from_vec(
        (0..100).map(|i| 3.0 - i as f64 * 0.125).collect(),
        Shape::from([100]),
    )
    .unwrap();
    assert_eq!(compiled.tile_output_shape(&[&a64, &b64]), None);
    let got = compiled.eval(&[&a64, &b64]).unwrap();
    assert_eq!(got.dtype(), DType::F64);
    let want = unary(&binary(&a64, &b64, BinaryOp::Add).unwrap(), UnaryOp::Tanh).unwrap();
    assert!(want.all_close(&got, 0.0, 0.0), "f64 fallback must match eager exactly");

    // Two partial operands, and a column against the full shape: the
    // broadcast goes through the generic path.
    let col = shaped_f32(&[6, 1], 31);
    let row = shaped_f32(&[1, 5], 32);
    let full = shaped_f32(&[6, 5], 33);
    for (a, b) in [(&col, &row), (&col, &full), (&full, &col)] {
        assert_eq!(compiled.tile_output_shape(&[a, b]), None, "{:?} + {:?}", a.shape(), b.shape());
        let got = compiled.eval(&[a, b]).unwrap();
        assert_eq!(got.shape().dims(), &[6, 5]);
        let want = unary(&binary(a, b, BinaryOp::Add).unwrap(), UnaryOp::Tanh).unwrap();
        assert_eq!(bits32(&want), bits32(&got), "broadcast fallback must match eager bitwise");
    }
}

/// The compile cache is keyed on the encoded text: repeated lookups hand
/// back the same `Arc` (no re-parse, no re-plan), distinct programs get
/// distinct entries, and garbage never poisons the cache.
#[test]
fn compile_cache_deduplicates_by_text() {
    let a = program::compiled("in:0;u:relu:0;u:neg:1|2").unwrap();
    let b = program::compiled("in:0;u:relu:0;u:neg:1|2").unwrap();
    assert!(std::sync::Arc::ptr_eq(&a, &b), "same text must share one compiled program");
    let c = program::compiled("in:0;u:neg:0;u:relu:1|2").unwrap();
    assert!(!std::sync::Arc::ptr_eq(&a, &c), "different text must not share");
    assert!(program::compiled("in:0;u:nosuch:0|1").is_err());
    assert!(program::compiled("in:0;u:relu:0;u:neg:1|2").is_ok(), "errors must not poison");
}
