//! Differential tests for the compiled fused-elementwise tile executor
//! (`tfe_graph::program::CompiledProgram`): the tiled path must be
//! bit-identical to per-instruction evaluation (`Program::eval`) for every
//! unary/binary op, at every length (odd tails, multi-tile sizes) and at
//! every intra-op thread count; non-f32 and mixed-shape operands must take
//! the generic fallback and still agree with direct eager evaluation; and
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

/// Non-f32 dtypes and mixed shapes don't qualify for the tile executor:
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
    let got = compiled.eval(&[&a64, &b64]).unwrap();
    assert_eq!(got.dtype(), DType::F64);
    let want = unary(&binary(&a64, &b64, BinaryOp::Add).unwrap(), UnaryOp::Tanh).unwrap();
    assert!(want.all_close(&got, 0.0, 0.0), "f64 fallback must match eager exactly");

    // Mixed shapes: broadcast goes through the generic path.
    let col = TensorData::from_vec(f32s(6, 31), Shape::from([6, 1])).unwrap();
    let row = TensorData::from_vec(f32s(5, 32), Shape::from([1, 5])).unwrap();
    let got = compiled.eval(&[&col, &row]).unwrap();
    assert_eq!(got.shape().dims(), &[6, 5]);
    let want = unary(&binary(&col, &row, BinaryOp::Add).unwrap(), UnaryOp::Tanh).unwrap();
    assert_eq!(bits32(&want), bits32(&got), "broadcast fallback must match eager bitwise");
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
