//! Parity tests for the intra-op parallel kernel layer: every parallel,
//! cache-blocked kernel must agree with its naive serial reference, and
//! must produce identical bits at every intra-op thread count.
//!
//! Determinism contract (see DESIGN.md "Two-level parallelism"):
//!
//! * **Bitwise** vs the serial reference at any thread count: matmul /
//!   batch matmul (the packed register tile resumes its accumulators from
//!   the output tile, and the unpacked one for small products starts them
//!   at `+0.0`, so per-element accumulation is the plain ascending fold),
//!   elementwise + broadcast ops (the 8-wide lane fast path applies
//!   the identical per-element function), prefix-axis float reductions,
//!   and `conv2d_backprop_input` (gemm then col2im, bitwise
//!   `conv2d_backprop_input_reference`; batches are disjoint). `max`/`min`
//!   reductions stay bitwise on every axis pattern — reassociating max is
//!   value-exact on NaN-free input.
//! * **Bitwise vs the documented lane order** (DESIGN.md §14, reproduced
//!   by `lane_fold_ref` below) at any thread count: suffix-axis and full
//!   `sum`/`mean`/`prod` reductions fold each row/chunk through 8 fixed
//!   accumulator lanes — deterministic and thread-invariant, but
//!   reassociated vs the serial odometer, so they carry a small documented
//!   tolerance against the pure left fold (asserted below).
//! * **Thread-invariant but chunk-grouped**: full float reductions over
//!   more than one grain of elements, and `conv2d_backprop_filter`
//!   (fixed-chunk tree over batches; bitwise its serial-fold reference
//!   `conv2d_backprop_filter_reference` at batch 1, within 1e-9 of it
//!   otherwise). On non-finite gradients its padded taps add `0 · g`,
//!   which the reference skips: pinned by
//!   `conv2d_backprop_filter_nonfinite_reaches_padded_taps`.
//! * `conv2d` forward accumulates in f64 in the same (ky, kx, ci) order
//!   as the reference, with exact `+0.0` padding terms; compared here by
//!   value (a `-0.0` vs `+0.0` sign difference is tolerated).
//! * `pool2d` and `pool2d_grad` are bitwise `pool2d_reference` and
//!   `pool2d_grad_reference` at any thread count, NaN payloads included,
//!   except where the references leave a choice to the compiler: where two
//!   NaNs meet in a sum (an average, or overlapping windows' gradients)
//!   only NaN-ness is compared, and where `-0.0` and `+0.0` tie for a
//!   window's max (the reference's `f64::max` may return either) only the
//!   value. The kernel's own tie rule, the first tap, is pinned apart.

mod common;

use common::{fuzz_cases, same_bits};
use tfe_parallel::set_intra_threads;
use tfe_tensor::elementwise::{binary, compare, BinaryOp, CmpOp, FloatScalar};
use tfe_tensor::gemm::{gemm_into, GemmScalar};
use tfe_tensor::matmul::{batch_matmul, matmul, matmul_reference};
use tfe_tensor::reduce::{reduce, ReduceOp};
use tfe_tensor::rng::{each_seed, Rng};
use tfe_tensor::shape::broadcast_source_index;
use tfe_tensor::softmax::{log_softmax, softmax};
use tfe_tensor::{broadcast_shapes, conv, pool, DType, Scalar, Shape, TensorData};

/// Run `f` under a forced intra-op thread count, restoring the previous
/// setting afterwards. Kernels are thread-count invariant by design, so
/// concurrently running tests that also flip the override cannot change
/// any result — this only steers which splitting path executes.
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

fn bits32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

// ---------------------------------------------------------------------------
// Matmul: all four transpose combos, exact bits vs the naive reference.
// ---------------------------------------------------------------------------

#[test]
fn matmul_all_transpose_combos_bitwise() {
    // Shapes straddling the MR/NR/KC/MC block boundaries, plus odd primes.
    for &(m, k, n) in
        &[(1usize, 1usize, 1usize), (3, 5, 7), (4, 8, 8), (5, 9, 17), (33, 257, 19), (64, 300, 65)]
    {
        let av = f32s(m * k, 1);
        let bv = f32s(k * n, 2);
        for (ta, tb) in [(false, false), (true, false), (false, true), (true, true)] {
            let a_dims = if ta { [k, m] } else { [m, k] };
            let b_dims = if tb { [n, k] } else { [k, n] };
            let a = TensorData::from_vec(av.clone(), Shape::from(a_dims)).unwrap();
            let b = TensorData::from_vec(bv.clone(), Shape::from(b_dims)).unwrap();
            let mut want = vec![0.0f32; m * n];
            matmul_reference(&av, &bv, m, k, n, ta, tb, &mut want);
            for threads in [1usize, 3, 8] {
                let got = with_threads(threads, || matmul(&a, &b, ta, tb).unwrap());
                assert_eq!(
                    bits32(got.as_slice::<f32>().unwrap()),
                    bits32(&want),
                    "matmul {m}x{k}x{n} ta={ta} tb={tb} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn batch_matmul_bitwise_vs_reference() {
    let (bsz, m, k, n) = (6usize, 9usize, 17usize, 11usize);
    let av = f32s(bsz * m * k, 3);
    let bv = f32s(bsz * k * n, 4);
    let a = TensorData::from_vec(av.clone(), Shape::from([bsz, m, k])).unwrap();
    let b = TensorData::from_vec(bv.clone(), Shape::from([bsz, k, n])).unwrap();
    let mut want = vec![0.0f32; bsz * m * n];
    for i in 0..bsz {
        matmul_reference(
            &av[i * m * k..(i + 1) * m * k],
            &bv[i * k * n..(i + 1) * k * n],
            m,
            k,
            n,
            false,
            false,
            &mut want[i * m * n..(i + 1) * m * n],
        );
    }
    for threads in [1usize, 4] {
        let got = with_threads(threads, || batch_matmul(&a, &b, false, false).unwrap());
        assert_eq!(bits32(got.as_slice::<f32>().unwrap()), bits32(&want), "threads={threads}");
    }
}

#[test]
fn gemm_accumulates_across_kc_blocks_bitwise() {
    // k > KC (256) exercises accumulator resume across KC slices; the
    // result must still be the plain ascending fold.
    let (m, k, n) = (7usize, 521usize, 13usize);
    let av = f32s(m * k, 5);
    let bv = f32s(k * n, 6);
    let mut want = vec![0.0f32; m * n];
    matmul_reference(&av, &bv, m, k, n, false, false, &mut want);
    let mut got = vec![0.0f32; m * n];
    gemm_into(m, k, n, &av, false, &bv, false, &mut got, true);
    assert_eq!(bits32(&got), bits32(&want));
}

#[test]
fn matmul_parity_random_shapes() {
    each_seed(fuzz_cases(24), |rng| {
        let (m, k, n) = (rng.range(1..24), rng.range(1..40), rng.range(1..24));
        let (ta, tb, seed) = (rng.bool(0.5), rng.bool(0.5), rng.range(0..1000));
        let av = f32s(m * k, seed);
        let bv = f32s(k * n, seed + 1);
        let a_dims = if ta { [k, m] } else { [m, k] };
        let b_dims = if tb { [n, k] } else { [k, n] };
        let a = TensorData::from_vec(av.clone(), Shape::from(a_dims)).unwrap();
        let b = TensorData::from_vec(bv.clone(), Shape::from(b_dims)).unwrap();
        let mut want = vec![0.0f32; m * n];
        matmul_reference(&av, &bv, m, k, n, ta, tb, &mut want);
        let got = with_threads(5, || matmul(&a, &b, ta, tb).unwrap());
        assert_eq!(bits32(got.as_slice::<f32>().unwrap()), bits32(&want));
    });
}

// ---------------------------------------------------------------------------
// Small products: below `DIRECT_MADDS` (2^14 multiply-adds) `matmul` runs
// the register tiles on the operands in place instead of packing them; both
// must give the reference's bits, specials included.
// ---------------------------------------------------------------------------

/// Finite values with, one in 32, a special: both zeros, both infinities,
/// NaN, subnormals of either width. Row 0 of the `m x k` matrix (as `op`
/// sees it, with `transpose`) is all `-0.0`, whose products sum to `+0.0`
/// only if each sum starts from `+0.0`.
fn small_operand(m: usize, k: usize, transpose: bool, seed: u64) -> Vec<f64> {
    const SPECIALS: [f64; 8] =
        [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1e-40, -1e-310, 5e-324];
    let mut v: Vec<f64> = f32s(m * k, seed)
        .into_iter()
        .enumerate()
        .map(|(i, x)| match (i * 7 + seed as usize) % 256 {
            s if s < 8 => SPECIALS[s],
            _ => f64::from(x),
        })
        .collect();
    for p in (0..k).filter(|_| m > 0) {
        v[if transpose { p * m } else { p }] = -0.0;
    }
    v
}

/// `matmul` on `op(a) (m x k) @ op(b) (k x n)` against `matmul_reference`,
/// bit for bit at one intra-op thread, four, and the default — except that
/// where the reference is NaN only NaN-ness is required: which payload
/// survives `NaN + NaN` depends on the operand order the compiler picked.
fn assert_matmul_is_reference<T: GemmScalar>(
    (m, k, n): (usize, usize, usize),
    (ta, tb): (bool, bool),
    convert: fn(f64) -> T,
) {
    let av: Vec<T> =
        small_operand(m, k, ta, (m * 31 + k) as u64).into_iter().map(convert).collect();
    let bv: Vec<T> =
        small_operand(n, k, !tb, (n * 17 + k) as u64).into_iter().map(convert).collect();
    let a =
        TensorData::from_vec(av.clone(), Shape::from(if ta { [k, m] } else { [m, k] })).unwrap();
    let b =
        TensorData::from_vec(bv.clone(), Shape::from(if tb { [n, k] } else { [k, n] })).unwrap();
    let mut want = vec![T::default(); m * n];
    matmul_reference(&av, &bv, m, k, n, ta, tb, &mut want);
    for threads in [Some(1usize), Some(4), None] {
        let prev = set_intra_threads(threads);
        let got = matmul(&a, &b, ta, tb).unwrap();
        set_intra_threads(prev);
        for (i, (g, w)) in got.as_slice::<T>().unwrap().iter().zip(&want).enumerate() {
            // Widening to f64 keeps every non-NaN f32 apart, -0.0 included.
            let (g, w) = (g.to_f64(), w.to_f64());
            assert!(
                if w.is_nan() { g.is_nan() } else { g.to_bits() == w.to_bits() },
                "{m}x{k}x{n} ta={ta} tb={tb} {:?} threads={threads:?} element {i}: {g} vs {w}",
                T::DTYPE
            );
        }
    }
}

#[test]
fn small_matmul_matches_reference_bitwise() {
    // `(m, k, n)` of every product the staged L2HMC training step runs (64
    // chains, 2-D state, hidden 10; `kernel_bench`'s `small_matmul` row).
    let mut shapes = vec![
        (64usize, 10usize, 10usize),
        (64, 10, 2),
        (64, 10, 5),
        (10, 64, 10),
        (10, 64, 2),
        (64, 2, 10),
        (64, 2, 2),
        (64, 5, 10),
        (5, 64, 10),
    ];
    let grid = [1usize, 2, 3, 5, 8, 13];
    for m in grid {
        for k in grid {
            shapes.extend(grid.map(|n| (m, k, n)));
        }
    }
    // Every (MR, NR) remainder of the unpacked tiles: rows and columns
    // 1..=17 (NR steps 8, 4, 2, 1 by the columns left; MR 8, 4, 2, 1 by the
    // rows left), at depths from none to several tiles' worth.
    for m in 1..=17 {
        for n in 1..=17 {
            shapes.extend([0, 1, 2, 7, 64].map(|k| (m, k, n)));
        }
    }
    // Either side of the threshold, and empty dimensions.
    shapes.extend([
        (1, 1, 16383),
        (1, 1, 16384),
        (64, 16, 15),
        (64, 16, 16),
        (17, 31, 31),
        (17, 32, 31),
        (127, 129, 1),
        (128, 128, 1),
        (4, 0, 3),
        (0, 3, 4),
        (3, 4, 0),
    ]);
    for (m, k, n) in shapes {
        for flags in [(false, false), (true, false), (false, true), (true, true)] {
            assert_matmul_is_reference::<f32>((m, k, n), flags, |x| x as f32);
            assert_matmul_is_reference::<f64>((m, k, n), flags, |x| x);
        }
    }
}

// ---------------------------------------------------------------------------
// Elementwise: grain boundaries and broadcasts, exact bits.
// ---------------------------------------------------------------------------

#[test]
fn elementwise_add_grain_boundaries_bitwise() {
    // GRAIN_ELEMWISE is 4096: straddle it (serial path below, split above).
    for n in [1usize, 4095, 4096, 4097, 8193] {
        let av = f32s(n, 7);
        let bv = f32s(n, 8);
        let a = TensorData::from_vec(av.clone(), Shape::from([n])).unwrap();
        let b = TensorData::from_vec(bv.clone(), Shape::from([n])).unwrap();
        let want: Vec<f32> = av.iter().zip(&bv).map(|(x, y)| x + y).collect();
        for threads in [1usize, 2, 8] {
            let got = with_threads(threads, || binary(&a, &b, BinaryOp::Add).unwrap());
            assert_eq!(
                bits32(got.as_slice::<f32>().unwrap()),
                bits32(&want),
                "n={n} threads={threads}"
            );
        }
    }
}

#[test]
fn broadcast_binary_parity() {
    each_seed(fuzz_cases(24), |rng| {
        let (rows, cols) = (rng.range(1..80), rng.range(1..80));
        let (a_bcast, b_bcast, seed) = (rng.bool(0.5), rng.bool(0.5), rng.range(0..1000));
        // (rows|1, cols) op (rows|1, cols) — broadcast along axis 0. When
        // both sides have a size-1 axis the broadcast output keeps it.
        let ar = if a_bcast { 1 } else { rows };
        let br = if b_bcast { 1 } else { rows };
        let out_rows = ar.max(br);
        let av = f32s(ar * cols, seed);
        let bv = f32s(br * cols, seed + 1);
        let a = TensorData::from_vec(av.clone(), Shape::from([ar, cols])).unwrap();
        let b = TensorData::from_vec(bv.clone(), Shape::from([br, cols])).unwrap();
        let mut want = vec![0.0f32; out_rows * cols];
        for r in 0..out_rows {
            for c in 0..cols {
                let x = av[(if a_bcast { 0 } else { r }) * cols + c];
                let y = bv[(if b_bcast { 0 } else { r }) * cols + c];
                want[r * cols + c] = x * y;
            }
        }
        let got = with_threads(6, || binary(&a, &b, BinaryOp::Mul).unwrap());
        assert_eq!(bits32(got.as_slice::<f32>().unwrap()), bits32(&want));
    });
}

// ---------------------------------------------------------------------------
// NaN bits at every thread count: an elementwise map's tiles are lane
// multiples fixed by its length, so whether an element runs in a lane block
// or in the scalar tail does not depend on how the map is split.
// ---------------------------------------------------------------------------

/// Every elementwise kernel, f32 and f64, at 1 and at 4 intra-op threads,
/// on opposite-sign quiet NaNs with distinct payloads (every fifth element
/// a number): the same bits.
#[test]
fn elementwise_nan_bits_do_not_depend_on_the_thread_count() {
    use tfe_tensor::elementwise::{select, unary, UnaryOp};
    for n in [4099usize, 40_001, 100_005] {
        let shape = Shape::from([n]);
        let numbers = f32s(n, n as u64);
        let nans32 = |bits: u32| {
            let v = numbers.iter().enumerate();
            let v = v.map(|(i, &x)| if i % 5 == 4 { x } else { f32::from_bits(bits) }).collect();
            TensorData::from_vec::<f32>(v, shape.clone()).unwrap()
        };
        let nans64 = |bits: u64| {
            let v = numbers.iter().enumerate();
            let v = v.map(|(i, &x)| if i % 5 == 4 { x as f64 } else { f64::from_bits(bits) });
            TensorData::from_vec::<f64>(v.collect(), shape.clone()).unwrap()
        };
        let pairs = [
            (nans32(0x7fc0_0001), nans32(0xffc0_0002)),
            (nans64(0x7ff8_0000_0000_0001), nans64(0xfff8_0000_0000_0002)),
        ];
        let cond = (0..n).map(|i| i % 3 == 0).collect::<Vec<bool>>();
        let cond = TensorData::from_vec(cond, shape.clone()).unwrap();
        let mut kernels: Vec<(String, Box<dyn Fn() -> TensorData + '_>)> = Vec::new();
        for (a, b) in &pairs {
            let dt = a.dtype().name();
            for &op in BinaryOp::all() {
                kernels.push((format!("{op:?} {dt}"), Box::new(move || binary(a, b, op).unwrap())));
            }
            for &op in UnaryOp::all() {
                kernels.push((format!("{op:?} {dt}"), Box::new(move || unary(a, op).unwrap())));
            }
            for &op in CmpOp::all() {
                kernels
                    .push((format!("{op:?} {dt}"), Box::new(move || compare(a, b, op).unwrap())));
            }
            let cond = &cond;
            kernels.push((format!("select {dt}"), Box::new(move || select(cond, a, b).unwrap())));
        }
        for (name, kernel) in &kernels {
            let one = with_threads(1, kernel);
            let four = with_threads(4, kernel);
            assert!(same_bits(&one, &four), "{name} n={n}: 1 vs 4 intra-op threads");
        }
    }
}

// ---------------------------------------------------------------------------
// Periodic operands: the slice fast path of `binary` and `compare` against
// a per-index `broadcast_source_index` reference, exact bits.
// ---------------------------------------------------------------------------

/// Values with every special the fast path could mishandle: NaNs with
/// distinct payloads and signs, both infinities, both zeros, a subnormal.
fn special_f32s(n: usize, seed: u64) -> Vec<f32> {
    const SPECIALS: [u32; 8] = [
        0x7fc0_0001, // quiet NaN, payload 1
        0xffc1_2345, // negative quiet NaN, another payload
        0x7f80_0000, // +inf
        0xff80_0000, // -inf
        0x8000_0000, // -0.0
        0x0000_0000, // +0.0
        0x0000_0001, // smallest subnormal
        0x3f80_0000, // 1.0
    ];
    f32s(n, seed)
        .into_iter()
        .enumerate()
        .map(|(i, x)| {
            let pick = (seed as usize).wrapping_mul(31).wrapping_add(i * 7) % 24;
            SPECIALS.get(pick).map_or(x, |&b| f32::from_bits(b))
        })
        .collect()
}

/// What the kernel must compute: each operand's element at the index
/// `broadcast_source_index` gives, the op's scalar function per element. The result is compared bit for bit —
/// a NaN operand's payload must come through — except where *both*
/// operands are NaN: which payload survives then depends on the operand
/// order the compiler chose for a commutative instruction, so there the
/// reference is `None` and only NaN-ness is required.
fn walker_binary_f32(a: &TensorData, b: &TensorData, op: BinaryOp) -> (Shape, Vec<Option<u32>>) {
    let out = broadcast_shapes(a.shape(), b.shape()).unwrap();
    let (av, bv) = (a.as_slice::<f32>().unwrap(), b.as_slice::<f32>().unwrap());
    let v = (0..out.num_elements())
        .map(|i| {
            let x = av[broadcast_source_index(out.dims(), a.shape().dims(), i)];
            let y = bv[broadcast_source_index(out.dims(), b.shape().dims(), i)];
            (!(x.is_nan() && y.is_nan())).then(|| op.eval_f32(x, y).to_bits())
        })
        .collect();
    (out, v)
}

fn assert_matches_walker(got: &TensorData, want: &[Option<u32>], ctx: &str) {
    let got = got.as_slice::<f32>().unwrap();
    assert_eq!(got.len(), want.len(), "{ctx}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        match w {
            Some(bits) => assert_eq!(g.to_bits(), *bits, "{ctx} element {i}"),
            None => assert!(g.is_nan(), "{ctx} element {i}: NaN op NaN gave {g}"),
        }
    }
}

/// The comparison predicate in the operands' own type, per element, at the
/// indices `broadcast_source_index` gives.
fn walker_compare(a: &TensorData, b: &TensorData, op: CmpOp) -> (Shape, Vec<bool>) {
    fn typed<T: Scalar>(a: &TensorData, b: &TensorData, out: &Shape, op: CmpOp) -> Vec<bool> {
        let (av, bv) = (a.as_slice::<T>().unwrap(), b.as_slice::<T>().unwrap());
        (0..out.num_elements())
            .map(|i| {
                let x = av[broadcast_source_index(out.dims(), a.shape().dims(), i)];
                let y = bv[broadcast_source_index(out.dims(), b.shape().dims(), i)];
                match op {
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                    CmpOp::Lt => x < y,
                    CmpOp::Le => x <= y,
                    CmpOp::Gt => x > y,
                    CmpOp::Ge => x >= y,
                }
            })
            .collect()
    }
    let out = broadcast_shapes(a.shape(), b.shape()).unwrap();
    let v = match a.dtype() {
        DType::F32 => typed::<f32>(a, b, &out, op),
        DType::F64 => typed::<f64>(a, b, &out, op),
        DType::I32 => typed::<i32>(a, b, &out, op),
        DType::I64 => typed::<i64>(a, b, &out, op),
        DType::Bool => typed::<bool>(a, b, &out, op),
    };
    (out, v)
}

/// An output shape (empty and size-1 axes included) and an operand shape
/// that is periodic in it: a suffix of the output behind `lead` 1s.
fn periodic_shapes(rng: &mut Rng) -> (Vec<usize>, Vec<usize>) {
    let out: Vec<usize> = (0..rng.range(0usize..4)).map(|_| rng.range(0..6)).collect();
    let keep = rng.range(0usize..5).min(out.len());
    let mut operand = vec![1usize; rng.range(0usize..3).min(out.len() - keep)];
    operand.extend_from_slice(&out[out.len() - keep..]);
    (out, operand)
}

/// Every binary op, periodic operand on either side, specials in the
/// data: the slice path and the walker agree bit for bit.
#[test]
fn binary_periodic_matches_walker_bitwise() {
    each_seed(fuzz_cases(256), |rng| {
        let (out, operand) = periodic_shapes(rng);
        let (op_ix, swap, seed) = (rng.range(0usize..10), rng.bool(0.5), rng.range(0..1000));
        let op = BinaryOp::all()[op_ix];
        let full =
            TensorData::from_vec(special_f32s(out.iter().product(), seed), Shape::new(out.clone()))
                .unwrap();
        let part = TensorData::from_vec(
            special_f32s(operand.iter().product(), seed + 1),
            Shape::new(operand.clone()),
        )
        .unwrap();
        assert!(part.shape().is_periodic_in(full.shape()));
        let (a, b) = if swap { (&part, &full) } else { (&full, &part) };
        let (want_shape, want) = walker_binary_f32(a, b, op);
        let got = binary(a, b, op).unwrap();
        assert_eq!(got.shape(), &want_shape);
        assert_matches_walker(&got, &want, &format!("{op:?} {:?} {:?}", a.shape(), b.shape()));
    });
}

/// Every comparison on f32 (specials included), f64, i32 and i64 (beyond
/// 2^53, where widening to f64 would round): the predicate in the operands'
/// own type, as the reference evaluates it.
#[test]
fn compare_periodic_matches_walker() {
    each_seed(fuzz_cases(256), |rng| {
        let (out, operand) = periodic_shapes(rng);
        let (op_ix, dtype_ix) = (rng.range(0usize..6), rng.range(0u32..4));
        let (swap, seed) = (rng.bool(0.5), rng.range(0..1000));
        let op = CmpOp::all()[op_ix];
        let make = |dims: &[usize], seed: u64| -> TensorData {
            let n: usize = dims.iter().product();
            let shape = Shape::new(dims.to_vec());
            let ints = || f32s(n, seed).into_iter().map(|x| (x * 2.0) as i64);
            match dtype_ix {
                0 => TensorData::from_vec(special_f32s(n, seed), shape),
                1 => TensorData::from_vec(
                    special_f32s(n, seed).into_iter().map(f64::from).collect::<Vec<_>>(),
                    shape,
                ),
                2 => TensorData::from_vec(ints().map(|x| x as i32).collect::<Vec<_>>(), shape),
                _ => TensorData::from_vec(
                    ints().map(|x| (1i64 << 53) + x).collect::<Vec<_>>(),
                    shape,
                ),
            }
            .unwrap()
        };
        let (full, part) = (make(&out, seed), make(&operand, seed + 1));
        let (a, b) = if swap { (&part, &full) } else { (&full, &part) };
        let (want_shape, want) = walker_compare(a, b, op);
        let got = compare(a, b, op).unwrap();
        assert_eq!(got.shape(), &want_shape);
        assert_eq!(got.as_slice::<bool>().unwrap(), &want[..], "{:?}", op);
    });
}

/// Periods around the 4096-element window and the parallel grain — shorter,
/// longer, dividing and not dividing them — at several thread counts.
#[test]
fn binary_periodic_window_and_grain_boundaries_bitwise() {
    for (out, operand) in [
        ([9usize, 1000], vec![1000usize]),
        ([3, 5000], vec![5000]),
        ([2, 4096], vec![1, 4096]),
        ([1300, 7], vec![7]),
        ([8200, 1], vec![]),
    ] {
        let full =
            TensorData::from_vec(special_f32s(out.iter().product(), 61), Shape::from(out)).unwrap();
        let part = TensorData::from_vec(
            special_f32s(operand.iter().product(), 62),
            Shape::new(operand.clone()),
        )
        .unwrap();
        for (a, b) in [(&full, &part), (&part, &full)] {
            let (_, want) = walker_binary_f32(a, b, BinaryOp::Sub);
            let (_, want_cmp) = walker_compare(a, b, CmpOp::Le);
            for threads in [1usize, 2, 7] {
                let got = with_threads(threads, || binary(a, b, BinaryOp::Sub).unwrap());
                assert_matches_walker(
                    &got,
                    &want,
                    &format!("{out:?} vs {operand:?} threads={threads}"),
                );
                let got = with_threads(threads, || compare(a, b, CmpOp::Le).unwrap());
                assert_eq!(got.as_slice::<bool>().unwrap(), &want_cmp[..]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reductions: suffix/prefix axes bitwise vs the linear fold; full
// reductions thread-invariant (and bitwise below one grain).
// ---------------------------------------------------------------------------

/// The pre-parallel serial semantics: accumulate every element in linear
/// input order into its f64 output slot.
fn reduce_reference_f32(v: &[f32], dims: &[usize], axes: &[usize], op: ReduceOp) -> Vec<f32> {
    let rank = dims.len();
    let mut out_dims: Vec<usize> = dims.to_vec();
    for &a in axes {
        out_dims[a] = 1;
    }
    let out_n: usize = out_dims.iter().product();
    let init = match op {
        ReduceOp::Sum | ReduceOp::Mean => 0.0f64,
        ReduceOp::Prod => 1.0,
        ReduceOp::Max => f64::NEG_INFINITY,
        ReduceOp::Min => f64::INFINITY,
    };
    let mut acc = vec![init; out_n.max(1)];
    let mut out_strides = vec![0usize; rank];
    let mut s = 1;
    for i in (0..rank).rev() {
        out_strides[i] = if out_dims[i] == 1 { 0 } else { s };
        s *= out_dims[i];
    }
    for (lin, &x) in v.iter().enumerate() {
        let mut rem = lin;
        let mut oi = 0;
        for i in (0..rank).rev() {
            let c = rem % dims[i];
            rem /= dims[i];
            if !axes.contains(&i) {
                oi += c * out_strides[i];
            }
        }
        let x = f64::from(x);
        match op {
            ReduceOp::Sum | ReduceOp::Mean => acc[oi] += x,
            ReduceOp::Prod => acc[oi] *= x,
            ReduceOp::Max => acc[oi] = acc[oi].max(x),
            ReduceOp::Min => acc[oi] = acc[oi].min(x),
        }
    }
    let count: usize = axes.iter().map(|&a| dims[a]).product();
    acc.iter()
        .map(|&x| if op == ReduceOp::Mean { (x / count.max(1) as f64) as f32 } else { x as f32 })
        .collect()
}

/// The documented lane-fold combine order (DESIGN.md §14): 8 accumulators
/// seeded with the identity take elements j, j+8, j+16, … of the
/// lane-aligned prefix, the lanes combine left to right, then the tail
/// folds in ascending order. This is an independent transcription of the
/// contract — it must match `tfe_tensor::lanes::lane_fold_f64` bit for bit.
fn lane_fold_ref(row: &[f32], init: f64, f: impl Fn(f64, f64) -> f64) -> f64 {
    const LANES: usize = 8;
    let m = row.len() - row.len() % LANES;
    let mut lanes = [init; LANES];
    for (i, &x) in row[..m].iter().enumerate() {
        lanes[i % LANES] = f(lanes[i % LANES], f64::from(x));
    }
    let mut acc = lanes[0];
    for &l in &lanes[1..] {
        acc = f(acc, l);
    }
    for &x in &row[m..] {
        acc = f(acc, f64::from(x));
    }
    acc
}

/// Reference for the lane-restructured fast paths: suffix-axis reductions
/// lane-fold each contiguous row; full reductions split into fixed
/// GRAIN_REDUCE(8192) chunks, lane-fold each chunk, and combine the chunk
/// partials in ascending order. Only valid for suffix or all-axes patterns.
fn reduce_lane_reference_f32(v: &[f32], dims: &[usize], axes: &[usize], op: ReduceOp) -> Vec<f32> {
    let (init, f): (f64, fn(f64, f64) -> f64) = match op {
        ReduceOp::Sum | ReduceOp::Mean => (0.0, |a, b| a + b),
        ReduceOp::Prod => (1.0, |a, b| a * b),
        ReduceOp::Max => (f64::NEG_INFINITY, f64::max),
        ReduceOp::Min => (f64::INFINITY, f64::min),
    };
    let acc: Vec<f64> = if axes.len() == dims.len() {
        const GRAIN_REDUCE: usize = 8192;
        let total = v.chunks(GRAIN_REDUCE).map(|c| lane_fold_ref(c, init, f)).fold(init, f);
        vec![total]
    } else {
        let row: usize = axes.iter().map(|&a| dims[a]).product();
        v.chunks(row.max(1)).map(|r| lane_fold_ref(r, init, f)).collect()
    };
    let count: usize = axes.iter().map(|&a| dims[a]).product();
    acc.iter()
        .map(|&x| if op == ReduceOp::Mean { (x / count.max(1) as f64) as f32 } else { x as f32 })
        .collect()
}

/// Sum/mean/prod over a suffix (or full) axis pattern run the 8-lane fold,
/// which reassociates vs the serial odometer; everything else is bitwise
/// against the serial reference.
fn reduce_want_f32(v: &[f32], dims: &[usize], axes: &[usize], op: ReduceOp) -> Vec<f32> {
    let suffix = axes.first().map(|&a| a + axes.len() == dims.len()).unwrap_or(false);
    let lane_mode = suffix && matches!(op, ReduceOp::Sum | ReduceOp::Mean | ReduceOp::Prod);
    if lane_mode {
        reduce_lane_reference_f32(v, dims, axes, op)
    } else {
        reduce_reference_f32(v, dims, axes, op)
    }
}

#[test]
fn reduce_suffix_and_prefix_axes_bitwise() {
    let dims = [12usize, 33, 130];
    let v = f32s(dims.iter().product(), 9);
    let a = TensorData::from_vec(v.clone(), Shape::from(dims)).unwrap();
    for op in [ReduceOp::Sum, ReduceOp::Mean, ReduceOp::Max, ReduceOp::Min, ReduceOp::Prod] {
        for axes in [vec![2i64], vec![1, 2], vec![0], vec![0, 1]] {
            let uaxes: Vec<usize> = axes.iter().map(|&x| x as usize).collect();
            let want = reduce_want_f32(&v, &dims, &uaxes, op);
            for threads in [1usize, 7] {
                let got = with_threads(threads, || reduce(&a, &axes, false, op).unwrap());
                assert_eq!(
                    bits32(got.as_slice::<f32>().unwrap()),
                    bits32(&want),
                    "op={op:?} axes={axes:?} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn reduce_lane_fold_within_documented_bound_of_serial_fold() {
    // The tolerance-mode kernels (suffix/full sum, mean, prod) reassociate
    // across 8 lanes; DESIGN.md §14 bounds the drift vs the serial fold at
    // ~n*eps_f64 relative before the f32 round-off. 1e-9*n is generous.
    let dims = [12usize, 33, 130];
    let v = f32s(dims.iter().product(), 9);
    let a = TensorData::from_vec(v.clone(), Shape::from(dims)).unwrap();
    for op in [ReduceOp::Sum, ReduceOp::Mean, ReduceOp::Prod] {
        // Keep Prod on the short axis: a 4290-element product of |x|~2
        // overflows f64 mid-fold, where reassociation is meaningless.
        let axes: &[usize] = if op == ReduceOp::Prod { &[2] } else { &[1, 2] };
        let iaxes: Vec<i64> = axes.iter().map(|&x| x as i64).collect();
        let serial = reduce_reference_f32(&v, &dims, axes, op);
        let got = with_threads(4, || reduce(&a, &iaxes, false, op).unwrap());
        let bound = 1e-9 * axes.iter().map(|&x| dims[x]).product::<usize>() as f64;
        for (g, w) in got.as_slice::<f32>().unwrap().iter().zip(&serial) {
            // Long products overflow f32 to ±inf/NaN identically on both
            // sides; the relative bound only applies to finite outputs.
            if g.to_bits() == w.to_bits() {
                continue;
            }
            let rel = f64::from((g - w).abs()) / f64::from(w.abs()).max(1.0);
            assert!(rel <= bound, "op={op:?} got={g} want={w} rel={rel}");
        }
    }
}

#[test]
fn reduce_all_axes_below_one_grain_bitwise() {
    // GRAIN_REDUCE is 8192: a full reduction under it is one chunk, i.e.
    // exactly one lane fold in the documented order.
    let v = f32s(8000, 10);
    let a = TensorData::from_vec(v.clone(), Shape::from([8000])).unwrap();
    let want = reduce_lane_reference_f32(&v, &[8000], &[0], ReduceOp::Sum);
    let got = with_threads(8, || reduce(&a, &[], false, ReduceOp::Sum).unwrap());
    assert_eq!(bits32(got.as_slice::<f32>().unwrap()), bits32(&want));
}

#[test]
fn reduce_full_sum_thread_invariant_and_close_to_fold() {
    // Above one grain the chunked tree differs from the pure left fold
    // only by a grouping tolerance — but is bit-identical across thread
    // counts (fixed chunking).
    let n = 100_000usize;
    let v = f32s(n, 11);
    let a = TensorData::from_vec(v.clone(), Shape::from([n])).unwrap();
    let t1 = with_threads(1, || reduce(&a, &[], false, ReduceOp::Sum).unwrap());
    let t8 = with_threads(8, || reduce(&a, &[], false, ReduceOp::Sum).unwrap());
    assert_eq!(
        bits32(t1.as_slice::<f32>().unwrap()),
        bits32(t8.as_slice::<f32>().unwrap()),
        "fixed chunking must make full reductions thread-invariant"
    );
    let want = reduce_reference_f32(&v, &[n], &[0], ReduceOp::Sum);
    let got = t8.as_slice::<f32>().unwrap()[0] as f64;
    assert!(
        (got - f64::from(want[0])).abs() <= 1e-6 * f64::from(want[0].abs()).max(1.0),
        "chunked sum {got} vs fold {}",
        want[0]
    );
}

#[test]
fn reduce_parity_random() {
    each_seed(fuzz_cases(24), |rng| {
        let (d0, d1, d2) = (rng.range(1..10), rng.range(1..14), rng.range(1..20));
        let (which, op_ix, seed) = (rng.range(0u32..4), rng.range(0usize..5), rng.range(0..1000));
        let ops = [ReduceOp::Sum, ReduceOp::Mean, ReduceOp::Max, ReduceOp::Min, ReduceOp::Prod];
        let op = ops[op_ix];
        let dims = [d0, d1, d2];
        let axes: Vec<i64> = match which {
            0 => vec![2],
            1 => vec![1, 2],
            2 => vec![0],
            _ => vec![0, 1, 2],
        };
        let v = f32s(dims.iter().product(), seed);
        let a = TensorData::from_vec(v.clone(), Shape::from(dims)).unwrap();
        let uaxes: Vec<usize> = axes.iter().map(|&x| x as usize).collect();
        // All these stay under one grain, so the expected bits are either
        // the serial fold or a single documented lane fold per row.
        let want = reduce_want_f32(&v, &dims, &uaxes, op);
        let got = with_threads(3, || reduce(&a, &axes, false, op).unwrap());
        assert_eq!(bits32(got.as_slice::<f32>().unwrap()), bits32(&want));
    });
}

// ---------------------------------------------------------------------------
// Softmax: rows split across the pool, identical bits per row.
// ---------------------------------------------------------------------------

#[test]
fn softmax_thread_invariant_bitwise() {
    // GRAIN_ROWS is 8: 37 rows forces several row chunks.
    let (rows, classes) = (37usize, 19usize);
    let v = f32s(rows * classes, 12);
    let a = TensorData::from_vec(v, Shape::from([rows, classes])).unwrap();
    for f in [softmax, log_softmax] {
        let t1 = with_threads(1, || f(&a).unwrap());
        let t8 = with_threads(8, || f(&a).unwrap());
        assert_eq!(bits32(t1.as_slice::<f32>().unwrap()), bits32(t8.as_slice::<f32>().unwrap()));
    }
}

// ---------------------------------------------------------------------------
// Conv2d: forward vs direct-loop reference; backprops thread-invariant.
// ---------------------------------------------------------------------------

/// `conv2d` at 1 and 4 threads: bitwise equal to each other, and equal in
/// value to the direct loop (the im2col path's +0.0 padding terms can flip
/// a -0.0 to +0.0, which `==` treats as equal).
fn check_conv2d_forward(x: &TensorData, f: &TensorData, stride: usize, padding: conv::Padding) {
    let Ok(g) = conv::conv2d_geometry(x.shape(), f.shape(), (stride, stride), padding) else {
        // Valid padding can make the output empty; nothing to compare.
        return;
    };
    let want =
        conv::conv2d_reference(x.as_slice::<f32>().unwrap(), f.as_slice::<f32>().unwrap(), &g);
    let one = with_threads(1, || conv::conv2d(x, f, (stride, stride), padding).unwrap());
    let four = with_threads(4, || conv::conv2d(x, f, (stride, stride), padding).unwrap());
    let got = four.as_slice::<f32>().unwrap();
    assert_eq!(bits32(one.as_slice::<f32>().unwrap()), bits32(got), "{g:?}: 1 vs 4 threads");
    assert_eq!(got.len(), want.len());
    for (i, (&gv, &wv)) in got.iter().zip(&want).enumerate() {
        assert!(gv == wv as f32, "{g:?} element {i}: got {gv} want {wv}");
    }
}

#[test]
fn conv2d_forward_parity_random_geometry() {
    each_seed(fuzz_cases(16), |rng| {
        let (n, h, w) = (rng.range(1..3), rng.range(1..8), rng.range(1..8));
        let (kh, kw) = (rng.range(1..4), rng.range(1..4));
        let (c_in, c_out) = (rng.range(1..4), rng.range(1..4));
        let (stride, same, seed) = (rng.range(1..3), rng.bool(0.5), rng.range(0..1000));
        let padding = if same { conv::Padding::Same } else { conv::Padding::Valid };
        let x = TensorData::from_vec(f32s(n * h * w * c_in, seed), Shape::from([n, h, w, c_in]))
            .unwrap();
        let f = TensorData::from_vec(
            f32s(kh * kw * c_in * c_out, seed + 1),
            Shape::from([kh, kw, c_in, c_out]),
        )
        .unwrap();
        check_conv2d_forward(&x, &f, stride, padding);
    });
    // The convnet's first layer: batches large enough that the patch gather
    // and the gemm split within a batch.
    let x = TensorData::from_vec(f32s(2 * 32 * 32 * 3, 7), Shape::from([2, 32, 32, 3])).unwrap();
    let f = TensorData::from_vec(f32s(3 * 3 * 3 * 16, 8), Shape::from([3, 3, 3, 16])).unwrap();
    check_conv2d_forward(&x, &f, 1, conv::Padding::Same);
}

#[test]
fn conv2d_backprops_thread_invariant() {
    let x_shape = Shape::from([3usize, 9, 9, 4]);
    let f = TensorData::from_vec(f32s(3 * 3 * 4 * 6, 13), Shape::from([3, 3, 4, 6])).unwrap();
    let x = TensorData::from_vec(f32s(3 * 9 * 9 * 4, 14), x_shape.clone()).unwrap();
    let fwd = conv::conv2d(&x, &f, (1, 1), conv::Padding::Same).unwrap();
    let go = TensorData::from_vec(f32s(fwd.num_elements(), 15), fwd.shape().clone()).unwrap();
    let gi1 = with_threads(1, || {
        conv::conv2d_backprop_input(&x_shape, &f, &go, (1, 1), conv::Padding::Same).unwrap()
    });
    let gi8 = with_threads(8, || {
        conv::conv2d_backprop_input(&x_shape, &f, &go, (1, 1), conv::Padding::Same).unwrap()
    });
    assert_eq!(bits32(gi1.as_slice::<f32>().unwrap()), bits32(gi8.as_slice::<f32>().unwrap()));
    let gf1 = with_threads(1, || {
        conv::conv2d_backprop_filter(&x, f.shape(), &go, (1, 1), conv::Padding::Same).unwrap()
    });
    let gf8 = with_threads(8, || {
        conv::conv2d_backprop_filter(&x, f.shape(), &go, (1, 1), conv::Padding::Same).unwrap()
    });
    assert_eq!(bits32(gf1.as_slice::<f32>().unwrap()), bits32(gf8.as_slice::<f32>().unwrap()));
}

/// One random tensor of `dims`: full-mantissa values in `[-2, 2)`, so
/// products and sums round and a changed accumulation order shows in the
/// bits (the `f32s` grid of 1/256 steps sums exactly in f64).
fn rounding_tensor(rng: &mut Rng, dtype: DType, dims: &[usize]) -> TensorData {
    let vals = (0..dims.iter().product()).map(|_| rng.f64() * 4.0 - 2.0).collect();
    TensorData::from_f64_vec(dtype, vals, Shape::from(dims))
}

/// Both direct-loop backprop references for typed tensors, narrowed to
/// their dtype (the kernels narrow their f64 accumulators the same way).
fn conv_backprop_references(
    x: &TensorData,
    f: &TensorData,
    go: &TensorData,
    g: &conv::Conv2dGeometry,
) -> (TensorData, TensorData) {
    fn typed<T: FloatScalar>(
        x: &TensorData,
        f: &TensorData,
        go: &TensorData,
        g: &conv::Conv2dGeometry,
    ) -> (Vec<f64>, Vec<f64>) {
        let (x, f, go) = (x.as_slice::<T>(), f.as_slice::<T>(), go.as_slice::<T>());
        let (x, f, go) = (x.unwrap(), f.unwrap(), go.unwrap());
        (
            conv::conv2d_backprop_input_reference(f, go, g),
            conv::conv2d_backprop_filter_reference(x, go, g),
        )
    }
    let (gx, gf) = match x.dtype() {
        DType::F32 => typed::<f32>(x, f, go, g),
        _ => typed::<f64>(x, f, go, g),
    };
    (
        TensorData::from_f64_vec(x.dtype(), gx, x.shape().clone()),
        TensorData::from_f64_vec(x.dtype(), gf, f.shape().clone()),
    )
}

/// Both backprops of one geometry against their references: the input
/// gradient bitwise at 1 and 4 threads; the filter gradient bitwise at
/// batch 1, and otherwise identical at 1 and 4 threads and within 1e-9 of
/// the serial fold.
#[allow(clippy::too_many_arguments)]
fn check_conv_backprops(
    rng: &mut Rng,
    dtype: DType,
    [n, h, w, c_in]: [usize; 4],
    [kh, kw, c_out]: [usize; 3],
    stride: usize,
    padding: conv::Padding,
) {
    let x = rounding_tensor(rng, dtype, &[n, h, w, c_in]);
    let f = rounding_tensor(rng, dtype, &[kh, kw, c_in, c_out]);
    let strides = (stride, stride);
    let g = conv::conv2d_geometry(x.shape(), f.shape(), strides, padding).unwrap();
    let go = rounding_tensor(rng, dtype, &[n, g.oh, g.ow, c_out]);
    let case = format!("{dtype:?} x{:?} f{:?} stride {stride} {padding:?}", x.shape(), f.shape());
    let (want_gx, want_gf) = conv_backprop_references(&x, &f, &go, &g);
    let gx = |t| {
        with_threads(t, || conv::conv2d_backprop_input(x.shape(), &f, &go, strides, padding))
            .unwrap()
    };
    let gf = |t| {
        with_threads(t, || conv::conv2d_backprop_filter(&x, f.shape(), &go, strides, padding))
            .unwrap()
    };
    for t in [1, 4] {
        assert!(same_bits(&gx(t), &want_gx), "input gradient, {t} threads: {case}");
    }
    let (gf1, gf4) = (gf(1), gf(4));
    assert!(same_bits(&gf1, &gf4), "filter gradient thread-variant: {case}");
    if n == 1 {
        assert!(same_bits(&gf1, &want_gf), "filter gradient at batch 1: {case}");
    } else {
        for (i, (a, b)) in gf1.to_f64_vec().iter().zip(want_gf.to_f64_vec()).enumerate() {
            assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()), "filter {i}: {a} vs {b}: {case}");
        }
    }
}

#[test]
fn conv2d_backprops_match_references_random_geometry() {
    // Shapes across the gemm's block edges: the filter gradient's depth is
    // oh*ow (> 256 = KC crosses a depth slice), its rows kh*kw*c_in
    // (> 128 = MC crosses a row block), and c_out is not a multiple of 8
    // (NR). The batch-2 shapes take the fixed-chunk tree.
    let edges = [
        ([1, 18, 17, 9], [4, 4, 7], 1, conv::Padding::Same),
        ([2, 24, 24, 15], [3, 3, 9], 1, conv::Padding::Same),
        ([1, 33, 31, 6], [3, 4, 5], 2, conv::Padding::Same),
        ([2, 19, 21, 9], [4, 4, 12], 1, conv::Padding::Valid),
    ];
    let mut rng = Rng::seed_from_u64(37);
    for (x_dims, f_dims, stride, padding) in edges {
        for dtype in [DType::F32, DType::F64] {
            check_conv_backprops(&mut rng, dtype, x_dims, f_dims, stride, padding);
        }
    }
    each_seed(fuzz_cases(16), |rng| {
        let x_dims = [rng.range(1..4), rng.range(1..20), rng.range(1..20), rng.range(1..9)];
        let f_dims = [rng.range(1..5), rng.range(1..5), rng.range(1..9)];
        let (stride, same) = (rng.range(1..3), rng.bool(0.5));
        let padding = if same { conv::Padding::Same } else { conv::Padding::Valid };
        let dtype = if rng.bool(0.5) { DType::F32 } else { DType::F64 };
        check_conv_backprops(rng, dtype, x_dims, f_dims, stride, padding);
    });
}

/// The non-finite contract: padding enters the filter gradient's gemm as
/// `+0.0` patch entries, so a ±inf in `grad_out` at a border position
/// makes exactly that position's padded taps `0 · inf = NaN` — the direct
/// loop skipped them and stays finite there. The in-bounds taps are `+inf`
/// in both, every other channel is bitwise the reference, and the input
/// gradient (col2im drops padded taps) is bitwise the reference throughout.
#[test]
fn conv2d_backprop_filter_nonfinite_reaches_padded_taps() {
    let x = TensorData::ones(DType::F32, [1, 3, 3, 1]);
    let f = TensorData::ones(DType::F32, [3, 3, 1, 2]);
    let mut gov = vec![1.0f32; 3 * 3 * 2];
    gov[0] = f32::INFINITY; // position (0, 0), channel 0: the top-left corner
    let go = TensorData::from_vec(gov, Shape::from([1, 3, 3, 2])).unwrap();
    let (strides, same) = ((1, 1), conv::Padding::Same);
    let g = conv::conv2d_geometry(x.shape(), f.shape(), strides, same).unwrap();
    let (want_gx, want_gf) = conv_backprop_references(&x, &f, &go, &g);
    let gx = conv::conv2d_backprop_input(x.shape(), &f, &go, strides, same).unwrap();
    assert!(same_bits(&gx, &want_gx));
    let gf = conv::conv2d_backprop_filter(&x, f.shape(), &go, strides, same).unwrap();
    let (got, want) = (gf.as_slice::<f32>().unwrap(), want_gf.as_slice::<f32>().unwrap());
    for ky in 0..3 {
        for kx in 0..3 {
            // At the corner, tap (ky, kx) reads input (ky - 1, kx - 1).
            let padded = ky == 0 || kx == 0;
            let (c0, c1) = ((ky * 3 + kx) * 2, (ky * 3 + kx) * 2 + 1);
            if padded {
                assert!(got[c0].is_nan(), "padded tap ({ky}, {kx}): {}", got[c0]);
                assert!(want[c0].is_finite(), "reference skips padded tap ({ky}, {kx})");
            } else {
                assert_eq!(got[c0], f32::INFINITY, "in-bounds tap ({ky}, {kx})");
                assert_eq!(want[c0], f32::INFINITY);
            }
            assert_eq!(got[c1].to_bits(), want[c1].to_bits(), "channel 1 tap ({ky}, {kx})");
        }
    }
}

// ---------------------------------------------------------------------------
// Pooling: the non-finite contract, pinned on the loops it was first
// written against, then the kernels against those loops bit for bit.
// ---------------------------------------------------------------------------

/// One `[1, 2, 2, 1]` image with the given elements, pooled by one 2×2
/// window (its four taps in `(ky, kx)` order).
fn window_2x2<T: Scalar>(taps: [T; 4]) -> TensorData {
    TensorData::from_vec(taps.to_vec(), Shape::from([1, 2, 2, 1])).unwrap()
}

fn max_pool_2x2(x: &TensorData) -> (TensorData, TensorData) {
    let (k, s, valid, max) = ((2, 2), (2, 2), conv::Padding::Valid, pool::PoolKind::Max);
    let y = pool::pool2d(x, k, s, valid, max).unwrap();
    let go = TensorData::ones(x.dtype(), [1, 1, 1, 1]);
    (y, pool::pool2d_grad(x, &go, k, s, valid, max).unwrap())
}

/// Max pooling drops a NaN as `f64::max` does: a window of only NaN pools
/// to `-inf`, a NaN never takes the gradient, and a window with no element
/// above `-inf` routes its gradient nowhere.
#[test]
fn max_pool_drops_nan() {
    let nan = f32::from_bits(0xffc1_2345);
    let (y, gx) = max_pool_2x2(&window_2x2([f32::NAN, nan, f32::NAN, nan]));
    assert_eq!(y.as_slice::<f32>().unwrap(), [f32::NEG_INFINITY]);
    assert_eq!(bits32(gx.as_slice::<f32>().unwrap()), [0; 4], "an all-NaN window routes nothing");

    let (y, gx) = max_pool_2x2(&window_2x2([f64::NAN, -3.0, f64::NAN, -5.0]));
    assert_eq!(y.as_slice::<f64>().unwrap(), [-3.0]);
    assert_eq!(gx.as_slice::<f64>().unwrap(), [0.0, 1.0, 0.0, 0.0], "NaN never takes the max");

    let (y, gx) = max_pool_2x2(&window_2x2([f32::NEG_INFINITY, f32::NAN, f32::NEG_INFINITY, nan]));
    assert_eq!(y.as_slice::<f32>().unwrap(), [f32::NEG_INFINITY]);
    assert_eq!(bits32(gx.as_slice::<f32>().unwrap()), [0; 4], "-inf is no strict maximum");
}

/// A lone NaN in a sum comes out with its sign and payload: in an average
/// window, and in an input element that two overlapping windows' gradients
/// reach.
#[test]
fn pool_sums_carry_a_lone_nan() {
    let nan = f32::from_bits(0xffc1_2345);
    let x = window_2x2([1.0f32, nan, 2.0, 3.0]);
    let avg = pool::PoolKind::Avg;
    let y = pool::pool2d(&x, (2, 2), (2, 2), conv::Padding::Valid, avg).unwrap();
    assert_eq!(bits32(y.as_slice::<f32>().unwrap()), [nan.to_bits()]);
    // 2×2 windows at stride 1 over a 3×1 image: the middle row is in both.
    let x = TensorData::from_vec(vec![1.0f32, 2.0, 3.0], Shape::from([1, 3, 1, 1])).unwrap();
    let go = TensorData::from_vec(vec![nan, 4.0], Shape::from([1, 2, 1, 1])).unwrap();
    let gx = pool::pool2d_grad(&x, &go, (2, 1), (1, 1), conv::Padding::Valid, avg).unwrap();
    let gx = bits32(gx.as_slice::<f32>().unwrap());
    assert_eq!(gx, [nan.to_bits(), nan.to_bits(), 2.0f32.to_bits()]);
}

/// A `-0.0`/`+0.0` tie is a tie: the first tap keeps the max, its sign
/// included, and takes the gradient. (The direct loop's `f64::max` gave
/// the same here with the stable toolchain, but may return either zero.)
#[test]
fn max_pool_signed_zero_ties_go_to_the_first_tap() {
    for (taps, first) in [([-0.0f32, 0.0, -1.0, 0.0], 0), ([-2.0f32, 0.0, -0.0, 0.0], 1)] {
        let (y, gx) = max_pool_2x2(&window_2x2(taps));
        assert_eq!(bits32(y.as_slice::<f32>().unwrap()), [taps[first].to_bits()], "{taps:?}");
        let mut want = [0.0f32; 4];
        want[first] = 1.0;
        assert_eq!(bits32(gx.as_slice::<f32>().unwrap()), bits32(&want), "{taps:?}");
    }
    let (y, gx) = max_pool_2x2(&window_2x2([0.0f64, -0.0, -0.0, 0.0]));
    assert_eq!(y.as_slice::<f64>().unwrap()[0].to_bits(), 0.0f64.to_bits());
    assert_eq!(gx.as_slice::<f64>().unwrap(), [1.0, 0.0, 0.0, 0.0]);
}

/// Pool operands with ties and every special: NaNs of both signs (one
/// with a payload), both infinities, both zeros, repeated small integers
/// (equal taps), otherwise full-mantissa values in `[-2, 2)`.
fn pool_tensor(rng: &mut Rng, dtype: DType, dims: &[usize]) -> TensorData {
    let specials = [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0];
    let vals = (0..dims.iter().product())
        .map(|_| match rng.range(0..50usize) {
            i @ 0..=2 => specials[i * 2 + rng.range(0..2usize)],
            3..=14 => rng.range(0..4usize) as f64 - 2.0,
            _ => rng.f64() * 4.0 - 2.0,
        })
        .collect();
    let t = TensorData::from_f64_vec(dtype, vals, Shape::from(dims));
    if dtype != DType::F32 {
        return t;
    }
    // A NaN payload must come through the gradient's `0 + g` as it is.
    let mut v = t.as_slice::<f32>().unwrap().to_vec();
    for x in v.iter_mut().filter(|x| x.is_nan()).step_by(2) {
        *x = f32::from_bits(0xffc1_2345);
    }
    TensorData::from_vec(v, Shape::from(dims)).unwrap()
}

/// Whether `got` is `want` bit for bit, except for two choices the
/// direct loops leave to the compiler. Where `nan_sums`, an element NaN in
/// both may differ in sign and payload: where two NaNs meet in a sum, which
/// one comes out depends on the operand order, and the references' own
/// debug and release builds differ there. Where `zero_max`, an element zero
/// in both may differ in sign: `f64::max` may return either of `-0.0` and
/// `+0.0`, and which one it does varies with the toolchain (stable and
/// nightly differ) and the optimization level.
fn pool_bits(got: &TensorData, want: &TensorData, nan_sums: bool, zero_max: bool) -> bool {
    if !nan_sums && !zero_max {
        return same_bits(got, want);
    }
    // Widening keeps a non-NaN's bits apart, and a NaN a NaN.
    let (a, b) = (got.to_f64_vec(), want.to_f64_vec());
    got.dtype() == want.dtype()
        && got.shape() == want.shape()
        && a.iter().zip(&b).all(|(&x, &y)| {
            x.to_bits() == y.to_bits()
                || nan_sums && x.is_nan() && y.is_nan()
                || zero_max && x == 0.0 && y == 0.0
        })
}

/// Both pool kinds of one geometry, forward and gradient, against the
/// direct loops bit for bit at 1 and 4 threads. A max and a disjoint
/// window's gradient add at most one NaN to anything, so there a NaN's
/// payload must come through too; the gradients find the first strict
/// maximum with `>` in both, so a zero's sign must come through as well.
fn check_pool(
    rng: &mut Rng,
    dtype: DType,
    dims: [usize; 4],
    ksize: (usize, usize),
    strides: (usize, usize),
    padding: conv::Padding,
) {
    let x = pool_tensor(rng, dtype, &dims);
    let disjoint = strides.0 >= ksize.0 && strides.1 >= ksize.1;
    for kind in [pool::PoolKind::Max, pool::PoolKind::Avg] {
        let case = format!("{kind:?} {dtype:?} x{dims:?} k{ksize:?} s{strides:?} {padding:?}");
        let want = pool::pool2d_reference(&x, ksize, strides, padding, kind).unwrap();
        let go = pool_tensor(rng, dtype, want.shape().dims());
        let want_gx = pool::pool2d_grad_reference(&x, &go, ksize, strides, padding, kind).unwrap();
        for t in [1, 4] {
            let y = with_threads(t, || pool::pool2d(&x, ksize, strides, padding, kind)).unwrap();
            let avg = kind == pool::PoolKind::Avg;
            assert!(pool_bits(&y, &want, avg, !avg), "forward, {t} threads: {case}");
            let gx = with_threads(t, || pool::pool2d_grad(&x, &go, ksize, strides, padding, kind))
                .unwrap();
            assert!(pool_bits(&gx, &want_gx, !disjoint, false), "gradient, {t} threads: {case}");
        }
    }
}

#[test]
fn pool_matches_reference_bitwise() {
    use conv::Padding::{Same, Valid};
    // The convnet's pools (disjoint 2×2 / 2), the ResNet stem's (3×3 / 2,
    // overlapping), a stride above the window (gaps), a window taller than
    // its stride on one axis only, empty spatial extents and batch 0.
    let fixed = [
        ([4, 32, 32, 16], (2, 2), (2, 2), Valid),
        ([2, 17, 15, 8], (2, 2), (2, 2), Same),
        ([3, 23, 21, 5], (3, 3), (2, 2), Same),
        ([2, 14, 13, 3], (3, 3), (1, 1), Valid),
        ([2, 11, 10, 4], (2, 3), (3, 4), Same),
        ([2, 12, 12, 6], (3, 2), (2, 2), Valid),
        ([2, 0, 5, 3], (2, 2), (2, 2), Same),
        ([2, 5, 0, 3], (2, 2), (1, 1), Valid),
        ([2, 1, 1, 3], (2, 2), (2, 2), Valid),
        ([0, 6, 6, 3], (2, 2), (2, 2), Same),
        ([2, 6, 6, 0], (3, 3), (2, 2), Same),
    ];
    let mut rng = Rng::seed_from_u64(44);
    for (dims, k, s, padding) in fixed {
        for dtype in [DType::F32, DType::F64] {
            check_pool(&mut rng, dtype, dims, k, s, padding);
        }
    }
    each_seed(fuzz_cases(24), |rng| {
        let dims = [rng.range(0..4), rng.range(0..20), rng.range(0..20), rng.range(1..10)];
        let k = (rng.range(1..5), rng.range(1..5));
        let s = (rng.range(1..5), rng.range(1..5));
        let padding = if rng.bool(0.5) { Same } else { Valid };
        let dtype = if rng.bool(0.5) { DType::F32 } else { DType::F64 };
        check_pool(rng, dtype, dims, k, s, padding);
    });
}

// ---------------------------------------------------------------------------
// Typed elements: the comparison, `select` and reduction kernels read and
// write elements in their own type, so an int64 beyond 2^53 keeps its
// value, a signalling NaN and -0.0 keep their bits, and an i32 result
// saturates as it always has.
// ---------------------------------------------------------------------------

const BIG: i64 = 1 << 53;

fn i64s(v: &[i64], dims: &[usize]) -> TensorData {
    TensorData::from_vec(v.to_vec(), Shape::from(dims)).unwrap()
}

fn i32s(v: &[i32], dims: &[usize]) -> TensorData {
    TensorData::from_vec(v.to_vec(), Shape::from(dims)).unwrap()
}

/// Same-shape, periodic (a scalar, a row) and `[n, 1]` x `[1, m]` operands,
/// each way round, every predicate: the exact i64 comparison.
#[test]
fn compare_int64_beyond_2_53_exact() {
    let cases = [
        (i64s(&[BIG + 1, BIG, BIG - 1], &[3]), i64s(&[BIG, BIG, BIG], &[3])),
        (i64s(&[BIG + 1, BIG, BIG + 2, BIG + 3], &[2, 2]), i64s(&[BIG + 2], &[])),
        (i64s(&[BIG + 1, BIG, BIG + 2, BIG + 3], &[2, 2]), i64s(&[BIG + 1, BIG + 3], &[2])),
        (i64s(&[BIG + 1, BIG], &[2, 1]), i64s(&[BIG, BIG + 1], &[1, 2])),
    ];
    for (a, b) in &cases {
        for &op in CmpOp::all() {
            for (x, y) in [(a, b), (b, a)] {
                let (shape, want) = walker_compare(x, y, op);
                let got = compare(x, y, op).unwrap();
                assert_eq!(got.shape(), &shape);
                let ctx = format!("{op:?} {:?} {:?}", x.shape(), y.shape());
                assert_eq!(got.as_slice::<bool>().unwrap(), &want[..], "{ctx}");
            }
        }
    }
    let eq = compare(&i64s(&[BIG + 1], &[]), &i64s(&[BIG], &[]), CmpOp::Eq).unwrap();
    assert_eq!(eq.as_slice::<bool>().unwrap(), &[false]);
    let gt = compare(&cases[3].0, &cases[3].1, CmpOp::Gt).unwrap();
    assert_eq!(gt.as_slice::<bool>().unwrap(), &[true, false, false, false]);
}

/// `select` moves elements as they are: int64 beyond 2^53 under l2hmc's
/// `[n, 1]` condition against a `[n, m]` and a periodic operand, and a
/// signalling NaN and -0.0 in f32 and f64, checked by their bits.
#[test]
fn select_moves_elements_as_they_are() {
    use tfe_tensor::elementwise::select;
    let cond = TensorData::from_vec(vec![true, false, true], Shape::from([3, 1])).unwrap();
    let a = i64s(&[BIG + 1, BIG + 3, BIG + 5, BIG + 7, BIG + 9, BIG + 11], &[3, 2]);
    let b = i64s(&[-BIG - 1, -BIG - 3], &[2]);
    let got = select(&cond, &a, &b).unwrap();
    let want = [BIG + 1, BIG + 3, -BIG - 1, -BIG - 3, BIG + 9, BIG + 11];
    assert_eq!(got.as_slice::<i64>().unwrap(), &want);
    let got = select(&cond, &b, &a).unwrap();
    let want = [-BIG - 1, -BIG - 3, BIG + 5, BIG + 7, -BIG - 1, -BIG - 3];
    assert_eq!(got.as_slice::<i64>().unwrap(), &want);

    let picks = TensorData::from_vec(vec![true, false, true, false], Shape::from([2, 2])).unwrap();
    let x32 = [0x7f80_0001u32, 0x8000_0000];
    let y32 = [0xff80_0001u32, 0x8000_0000];
    let f32s_of = |bits: &[u32], dims: &[usize]| {
        let v: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        TensorData::from_vec(v, Shape::from(dims)).unwrap()
    };
    let got = select(&picks, &f32s_of(&x32, &[2]), &f32s_of(&y32, &[2, 1])).unwrap();
    let got: Vec<u32> = got.as_slice::<f32>().unwrap().iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, [0x7f80_0001, 0xff80_0001, 0x7f80_0001, 0x8000_0000]);

    let x64 = [0x7ff0_0000_0000_0001u64, 0x8000_0000_0000_0000];
    let v: Vec<f64> = x64.iter().map(|&b| f64::from_bits(b)).collect();
    let x = TensorData::from_vec(v, Shape::from([2])).unwrap();
    let got = select(&picks, &x, &TensorData::scalar(1.0f64)).unwrap();
    let got: Vec<u64> = got.as_slice::<f64>().unwrap().iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, [x64[0], 1.0f64.to_bits(), x64[0], 1.0f64.to_bits()]);
}

/// The exact int reference: each element folded into its output slot in
/// linear order, in i64 with wrapping arithmetic; a mean truncates.
fn reduce_i64_reference(v: &[i64], dims: &[usize], axes: &[usize], op: ReduceOp) -> Vec<i64> {
    let kept: Vec<usize> =
        dims.iter().enumerate().map(|(i, &d)| if axes.contains(&i) { 1 } else { d }).collect();
    let init = match op {
        ReduceOp::Sum | ReduceOp::Mean => 0,
        ReduceOp::Prod => 1,
        ReduceOp::Max => i64::MIN,
        ReduceOp::Min => i64::MAX,
    };
    let mut acc = vec![init; kept.iter().product()];
    for (i, &x) in v.iter().enumerate() {
        let o = &mut acc[broadcast_source_index(dims, &kept, i)];
        *o = match op {
            ReduceOp::Sum | ReduceOp::Mean => o.wrapping_add(x),
            ReduceOp::Prod => o.wrapping_mul(x),
            ReduceOp::Max => (*o).max(x),
            ReduceOp::Min => (*o).min(x),
        };
    }
    let count: usize = axes.iter().map(|&a| dims[a]).product();
    if op == ReduceOp::Mean {
        acc.iter_mut().for_each(|x| *x /= count.max(1) as i64);
    }
    acc
}

/// Every reduction over int64 beyond 2^53 on every axis pattern of a
/// `[2, 2, 2]` tensor — all, suffix, prefix, middle and mixed — is exact,
/// and so are `reduce_any`/`reduce_all` over an exact comparison, argmax,
/// argmin, cumsum and `scatter_add_rows`.
#[test]
fn reductions_exact_for_int64_beyond_2_53() {
    use tfe_tensor::reduce::{argminmax, cumsum, reduce_bool};
    use tfe_tensor::shape_ops::scatter_add_rows;
    let dims = [2usize, 2, 2];
    let big: Vec<i64> = [1, 0, 3, 2, 5, -1, 7, 2].iter().map(|k| BIG + k).collect();
    let small: Vec<i64> = [1, 3, 1, 5, 7, 1, 3, 1].iter().map(|k| (1 << 27) + k).collect();
    let axis_sets: [&[usize]; 7] = [&[0, 1, 2], &[2], &[1, 2], &[0], &[0, 1], &[1], &[0, 2]];
    for op in ReduceOp::all().iter().copied() {
        // A product of values near 2^53 wraps; near 2^27 it is exact.
        let v = if op == ReduceOp::Prod { &small } else { &big };
        for axes in axis_sets {
            let as_i64: Vec<i64> = axes.iter().map(|&a| a as i64).collect();
            let got = reduce(&i64s(v, &dims), &as_i64, false, op).unwrap();
            let want = reduce_i64_reference(v, &dims, axes, op);
            assert_eq!(got.as_slice::<i64>().unwrap(), &want[..], "{op:?} over {axes:?}");
        }
    }
    assert_eq!(
        reduce(&i64s(&[BIG, 1], &[2]), &[], false, ReduceOp::Sum).unwrap().to_i64_vec(),
        [BIG + 1]
    );

    // No element equals 2^53, though 2^53 + 1 would in f64.
    let x = i64s(&[BIG + 1, BIG + 3, BIG + 5, BIG + 1], &[2, 2]);
    let eq = compare(&x, &i64s(&[BIG], &[]), CmpOp::Eq).unwrap();
    let any = reduce_bool(&eq, &[0], false, false).unwrap();
    assert_eq!(any.as_slice::<bool>().unwrap(), &[false, false]);
    let ne = compare(&x, &i64s(&[BIG], &[]), CmpOp::Ne).unwrap();
    let all = reduce_bool(&ne, &[1], false, true).unwrap();
    assert_eq!(all.as_slice::<bool>().unwrap(), &[true, true]);

    let x = i64s(&[BIG, BIG + 1, BIG - 1], &[3]);
    assert_eq!(argminmax(&x, 0, true).unwrap().to_i64_vec(), [1]);
    assert_eq!(argminmax(&i64s(&[BIG + 1, BIG], &[2]), 0, false).unwrap().to_i64_vec(), [1]);
    assert_eq!(argminmax(&i64s(&big, &dims), 1, true).unwrap().to_i64_vec(), [1, 1, 1, 1]);

    let sums = cumsum(&i64s(&[BIG, 1, 1, -3], &[4]), 0).unwrap();
    assert_eq!(sums.as_slice::<i64>().unwrap(), &[BIG, BIG + 1, BIG + 2, BIG - 1]);

    let rows = i64s(&[0, 0, 1], &[3]);
    let updates = i64s(&[BIG, BIG + 2, 1, 3, BIG - 1, 5], &[3, 2]);
    let out = scatter_add_rows(&rows, &updates, 2).unwrap();
    assert_eq!(out.as_slice::<i64>().unwrap(), &[BIG + 1, BIG + 5, BIG - 1, 5]);
}

/// An i32 sum that leaves the i32 range saturates: `reduce_sum` and
/// `cumsum` narrow each result once, from an exact i64 running sum;
/// `scatter_add_rows` narrows after every addition.
#[test]
fn int32_overflow_saturates() {
    use tfe_tensor::reduce::cumsum;
    use tfe_tensor::shape_ops::scatter_add_rows;
    let (max, min) = (i32::MAX, i32::MIN);
    let sum = |v: &[i32]| {
        reduce(&i32s(v, &[v.len()]), &[], false, ReduceOp::Sum).unwrap().to_i64_vec()[0]
    };
    assert_eq!(sum(&[max, 1]), i64::from(max));
    assert_eq!(sum(&[min, -1]), i64::from(min));
    assert_eq!(sum(&[max, 1, -1]), i64::from(max) + 1 - 1);
    assert_eq!(sum(&[max, max, min]), i64::from(max) - 1);
    let rows = reduce(&i32s(&[max, 1, min, -1], &[2, 2]), &[1], false, ReduceOp::Sum).unwrap();
    assert_eq!(rows.as_slice::<i32>().unwrap(), &[max, min]);

    let sums = cumsum(&i32s(&[max, 1, -2, min], &[4]), 0).unwrap();
    assert_eq!(sums.as_slice::<i32>().unwrap(), &[max, max, max - 1, -2]);

    // A row sums in i64 and saturates once, so the update order does not
    // matter: `[MAX, 1, -1]` is MAX in any order.
    let rows = i32s(&[0, 0, 0, 1, 1], &[5]);
    for updates in [[max, 1, -1, min, -1], [1, max, -1, -1, min], [-1, 1, max, min, -1]] {
        let out = scatter_add_rows(&rows, &i32s(&updates, &[5, 1]), 2).unwrap();
        assert_eq!(out.as_slice::<i32>().unwrap(), &[max, min], "updates {updates:?}");
    }
}

// ---------------------------------------------------------------------------
// Kernel sharing: eager and staged execution hit the same kernels, so a
// staged matmul must match the eager (and reference) bits too.
// ---------------------------------------------------------------------------

#[test]
fn staged_matmul_matches_eager_bitwise() {
    tf_eager::init();
    use tf_eager::prelude::*;
    let (m, k, n) = (23usize, 31usize, 17usize);
    let av = f32s(m * k, 16);
    let bv = f32s(k * n, 17);
    let a = api::constant(av.clone(), [m, k]).unwrap();
    let b = api::constant(bv.clone(), [k, n]).unwrap();
    let mut want = vec![0.0f32; m * n];
    matmul_reference(&av, &bv, m, k, n, false, false, &mut want);
    let eager = api::matmul(&a, &b).unwrap();
    let bc = b.clone();
    let f = function1("kernel_parity_mm", move |x| api::matmul(x, &bc));
    let staged = f.call1(&a).unwrap();
    let ev: Vec<f32> = eager.to_f64_vec().unwrap().iter().map(|&x| x as f32).collect();
    let sv: Vec<f32> = staged.to_f64_vec().unwrap().iter().map(|&x| x as f32).collect();
    assert_eq!(bits32(&ev), bits32(&want));
    assert_eq!(bits32(&sv), bits32(&want));
}

// ---------------------------------------------------------------------------
// Data-movement kernels: every element arrives with the bits it had, in
// every dtype. The reference below addresses one element at a time by its
// multi-index and moves its little-endian bytes.
// ---------------------------------------------------------------------------

mod copy_kernels {
    use tfe_tensor::shape_ops;
    use tfe_tensor::{DType, Shape, TensorData};

    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// Rank 0–4, extents 0–4 (an empty extent one time in six).
        fn dims(&mut self) -> Vec<usize> {
            (0..self.below(5))
                .map(|_| if self.below(6) == 0 { 0 } else { 1 + self.below(4) })
                .collect()
        }
    }

    const F32_SNAN: u32 = 0x7fa0_0001;
    const F64_SNAN: u64 = 0x7ff4_0000_0000_0001;
    const BIG: i64 = (1 << 53) + 1;

    /// `dims` full of distinct-looking values of `dtype`, the ones a trip
    /// through `f64` would change first.
    fn tensor(dtype: DType, dims: &[usize], rng: &mut Rng) -> TensorData {
        let n: usize = dims.iter().product();
        let shape = Shape::new(dims.to_vec());
        match dtype {
            DType::F32 => {
                let special = [F32_SNAN, 0xffa0_0001, 0x8000_0000, 1, 0x7f80_0000];
                let v = (0..n).map(|i| match special.get(i) {
                    Some(&bits) => f32::from_bits(bits),
                    None => f32::from_bits(rng.next() as u32),
                });
                TensorData::from_vec(v.collect(), shape)
            }
            DType::F64 => {
                let special = [F64_SNAN, 0xfff4_0000_0000_0001, 1 << 63, 1];
                let v = (0..n).map(|i| match special.get(i) {
                    Some(&bits) => f64::from_bits(bits),
                    None => f64::from_bits(rng.next()),
                });
                TensorData::from_vec(v.collect(), shape)
            }
            DType::I32 => {
                let special = [i32::MIN, i32::MAX, -1];
                let v = (0..n).map(|i| special.get(i).copied().unwrap_or(rng.next() as i32));
                TensorData::from_vec(v.collect(), shape)
            }
            DType::I64 => {
                let special = [BIG, -BIG, i64::MIN, i64::MAX];
                let v = (0..n).map(|i| special.get(i).copied().unwrap_or(rng.next() as i64));
                TensorData::from_vec(v.collect(), shape)
            }
            DType::Bool => TensorData::from_vec((0..n).map(|_| rng.below(2) == 1).collect(), shape),
        }
        .unwrap()
    }

    /// The tensor of `out_dims` whose element at each multi-index is the
    /// element of `src` at the linear index `pick` names, or `fill`.
    fn reference(
        src: &[&TensorData],
        out_dims: &[usize],
        fill: &TensorData,
        pick: impl Fn(&[usize]) -> Option<(usize, usize)>,
    ) -> TensorData {
        let dtype = fill.dtype();
        let width = dtype.size_bytes();
        let bytes: Vec<Vec<u8>> = src.iter().map(|t| t.to_le_bytes()).collect();
        let fill = fill.to_le_bytes();
        let n: usize = out_dims.iter().product();
        let mut out = Vec::with_capacity(n * width);
        let mut index = vec![0usize; out_dims.len()];
        for _ in 0..n {
            match pick(&index) {
                Some((part, at)) => out.extend_from_slice(&bytes[part][at * width..][..width]),
                None => out.extend_from_slice(&fill),
            }
            for axis in (0..out_dims.len()).rev() {
                index[axis] += 1;
                if index[axis] < out_dims[axis] {
                    break;
                }
                index[axis] = 0;
            }
        }
        TensorData::from_le_bytes(dtype, Shape::new(out_dims.to_vec()), &out).unwrap()
    }

    fn linear(dims: &[usize], index: impl Iterator<Item = usize>) -> usize {
        dims.iter().zip(index).fold(0, |acc, (&d, i)| acc * d + i)
    }

    fn assert_same_bits(got: &TensorData, want: &TensorData, what: &str) {
        assert_eq!(got.dtype(), want.dtype(), "{what}");
        assert_eq!(got.shape(), want.shape(), "{what}");
        assert_eq!(got.to_le_bytes(), want.to_le_bytes(), "{what}");
    }

    #[test]
    fn every_dtype_moves_bit_for_bit() {
        let mut rng = Rng(0x5eed_c0de);
        for dtype in DType::all() {
            let zero = TensorData::zeros(dtype, Shape::scalar());
            for case in 0..150 {
                let dims = rng.dims();
                let rank = dims.len();
                let a = tensor(dtype, &dims, &mut rng);
                let what = |op: &str| format!("{op} {dtype} {dims:?} case {case}");

                // slice: a partial window on every axis, middle ones too.
                let begin: Vec<usize> = dims.iter().map(|&d| rng.below(d + 1)).collect();
                let size: Vec<usize> =
                    dims.iter().zip(&begin).map(|(&d, &b)| rng.below(d - b + 1)).collect();
                let got = shape_ops::slice(
                    &a,
                    &begin.iter().map(|&b| b as i64).collect::<Vec<_>>(),
                    &size.iter().map(|&s| s as i64).collect::<Vec<_>>(),
                )
                .unwrap();
                let want = reference(&[&a], &size, &zero, |ix| {
                    Some((0, linear(&dims, ix.iter().zip(&begin).map(|(i, b)| i + b))))
                });
                assert_same_bits(&got, &want, &what("slice"));

                // pad_to is slice's adjoint: the window back into zeros.
                let got = shape_ops::pad_to(
                    &got,
                    &begin.iter().map(|&b| b as i64).collect::<Vec<_>>(),
                    a.shape(),
                )
                .unwrap();
                let want_back = reference(&[&want], &dims, &zero, |ix| {
                    let inside =
                        ix.iter().zip(&begin).zip(&size).all(|((i, b), s)| i >= b && i < &(b + s));
                    inside.then(|| (0, linear(&size, ix.iter().zip(&begin).map(|(i, b)| i - b))))
                });
                assert_same_bits(&got, &want_back, &what("pad_to"));

                // pad: the fill goes through `fill_f64`, the body does not.
                let pads: Vec<(usize, usize)> =
                    dims.iter().map(|_| (rng.below(3), rng.below(3))).collect();
                let padded: Vec<usize> =
                    dims.iter().zip(&pads).map(|(&d, &(b, e))| d + b + e).collect();
                let got = shape_ops::pad(&a, &pads, 1.0).unwrap();
                let one = TensorData::fill_f64(dtype, Shape::scalar(), 1.0);
                let want = reference(&[&a], &padded, &one, |ix| {
                    let inside = ix
                        .iter()
                        .zip(&pads)
                        .zip(&dims)
                        .all(|((i, p), d)| *i >= p.0 && *i < p.0 + d);
                    inside.then(|| (0, linear(&dims, ix.iter().zip(&pads).map(|(i, p)| i - p.0))))
                });
                assert_same_bits(&got, &want, &what("pad"));

                // transpose by a random permutation.
                let mut perm: Vec<usize> = (0..rank).collect();
                for i in (1..rank).rev() {
                    perm.swap(i, rng.below(i + 1));
                }
                let out_dims: Vec<usize> = perm.iter().map(|&p| dims[p]).collect();
                let got = shape_ops::transpose(&a, &perm).unwrap();
                let want = reference(&[&a], &out_dims, &zero, |ix| {
                    let mut src = vec![0; rank];
                    for (i, &p) in perm.iter().enumerate() {
                        src[p] = ix[i];
                    }
                    Some((0, linear(&dims, src.into_iter())))
                });
                assert_same_bits(&got, &want, &what(&format!("transpose {perm:?}")));

                // tile.
                let multiples: Vec<usize> = dims.iter().map(|_| rng.below(4)).collect();
                let tiled: Vec<usize> = dims.iter().zip(&multiples).map(|(d, m)| d * m).collect();
                let got = shape_ops::tile(&a, &multiples).unwrap();
                let want = reference(&[&a], &tiled, &zero, |ix| {
                    Some((0, linear(&dims, ix.iter().zip(&dims).map(|(i, d)| i % d))))
                });
                assert_same_bits(&got, &want, &what(&format!("tile {multiples:?}")));

                // broadcast_to: new leading axes, and every extent-1 axis stretched.
                let lead: Vec<usize> = (0..rng.below(3)).map(|_| rng.below(4)).collect();
                let target: Vec<usize> = lead
                    .iter()
                    .copied()
                    .chain(dims.iter().map(|&d| if d == 1 { rng.below(4) } else { d }))
                    .collect();
                let got = shape_ops::broadcast_to(&a, &Shape::new(target.clone())).unwrap();
                let want = reference(&[&a], &target, &zero, |ix| {
                    let own = ix[lead.len()..]
                        .iter()
                        .zip(&dims)
                        .map(|(&i, &d)| if d == 1 { 0 } else { i });
                    Some((0, linear(&dims, own)))
                });
                assert_same_bits(&got, &want, &what(&format!("broadcast_to {target:?}")));

                // cast converts each element as a trip through a Vec<f64>
                // would, apart from the exact int32 <-> int64 arms.
                for to in DType::all() {
                    let ints = [DType::I32, DType::I64];
                    if to == dtype || (ints.contains(&dtype) && ints.contains(&to)) {
                        continue;
                    }
                    let via_f64 = TensorData::from_f64_vec(to, a.to_f64_vec(), a.shape().clone());
                    assert_same_bits(&a.cast(to), &via_f64, &what(&format!("cast to {to}")));
                }

                if rank == 0 {
                    continue;
                }
                let axis = rng.below(rank);
                let extent = dims[axis];

                // reverse.
                let got = shape_ops::reverse(&a, axis as i64).unwrap();
                let want = reference(&[&a], &dims, &zero, |ix| {
                    let flipped =
                        ix.iter()
                            .enumerate()
                            .map(|(k, &i)| if k == axis { extent - 1 - i } else { i });
                    Some((0, linear(&dims, flipped)))
                });
                assert_same_bits(&got, &want, &what(&format!("reverse {axis}")));

                // concat of three parts that differ along `axis`.
                let mut parts = vec![a.clone()];
                for _ in 0..2 {
                    let mut d = dims.clone();
                    d[axis] = rng.below(4);
                    parts.push(tensor(dtype, &d, &mut rng));
                }
                let refs: Vec<&TensorData> = parts.iter().collect();
                let mut joined = dims.clone();
                joined[axis] = parts.iter().map(|p| p.shape().dim(axis)).sum();
                let got = shape_ops::concat(&refs, axis as i64).unwrap();
                let want = reference(&refs, &joined, &zero, |ix| {
                    let mut at = ix[axis];
                    let mut part = 0;
                    while at >= parts[part].shape().dim(axis) {
                        at -= parts[part].shape().dim(axis);
                        part += 1;
                    }
                    let own = ix.iter().enumerate().map(|(k, &i)| if k == axis { at } else { i });
                    Some((part, linear(parts[part].shape().dims(), own)))
                });
                assert_same_bits(&got, &want, &what(&format!("concat {axis}")));

                // split is the inverse of that concat when the parts are equal.
                if extent > 0 {
                    let num = (1..=extent)
                        .rev()
                        .find(|&n| extent.is_multiple_of(n) && rng.below(2) == 0)
                        .unwrap_or(1);
                    let mut piece = dims.clone();
                    piece[axis] = extent / num;
                    for (k, got) in
                        shape_ops::split(&a, num, axis as i64).unwrap().iter().enumerate()
                    {
                        let want = reference(&[&a], &piece, &zero, |ix| {
                            let own = ix.iter().enumerate().map(|(d, &i)| {
                                if d == axis {
                                    i + k * piece[axis]
                                } else {
                                    i
                                }
                            });
                            Some((0, linear(&dims, own)))
                        });
                        assert_same_bits(
                            got,
                            &want,
                            &what(&format!("split {num} along {axis}, part {k}")),
                        );
                    }
                }

                // gather with a rank-2 index tensor, repeats included.
                if extent > 0 {
                    let idx_dims = [rng.below(3), 1 + rng.below(3)];
                    let idx: Vec<i64> =
                        (0..idx_dims[0] * idx_dims[1]).map(|_| rng.below(extent) as i64).collect();
                    let indices = TensorData::from_vec(idx.clone(), Shape::from(idx_dims)).unwrap();
                    let mut out_dims = dims[..axis].to_vec();
                    out_dims.extend(idx_dims);
                    out_dims.extend(&dims[axis + 1..]);
                    let got = shape_ops::gather(&a, &indices, axis as i64).unwrap();
                    let want = reference(&[&a], &out_dims, &zero, |ix| {
                        let row = idx[ix[axis] * idx_dims[1] + ix[axis + 1]] as usize;
                        let own = ix[..axis]
                            .iter()
                            .copied()
                            .chain([row])
                            .chain(ix[axis + 2..].iter().copied());
                        Some((0, linear(&dims, own)))
                    });
                    assert_same_bits(&got, &want, &what(&format!("gather {axis}")));
                }
            }
        }
    }

    /// The values a trip through `f64` changes, named: they fail at any
    /// kernel that converts. (At PR 18 `slice` returned 2^53 for 2^53 + 1
    /// and `concat` quieted the f32 signalling NaN.)
    #[test]
    fn payloads_survive_each_kernel() {
        let ints = TensorData::from_vec(vec![BIG, -BIG, i64::MIN, i64::MAX], [2, 2]).unwrap();
        let f32s = TensorData::from_vec(
            [F32_SNAN, 0xffa0_0001, 0x7fc0_0000, 0x8000_0000].map(f32::from_bits).to_vec(),
            [2, 2],
        )
        .unwrap();
        let f64s = TensorData::from_vec(
            [F64_SNAN, 0xfff4_0000_0000_0001, 0x7ff8_0000_0000_0000, 1 << 63]
                .map(f64::from_bits)
                .to_vec(),
            [2, 2],
        )
        .unwrap();
        let index = TensorData::from_vec(vec![0i64, 1], [2]).unwrap();
        for t in [&ints, &f32s, &f64s] {
            let same = |got: TensorData, what: &str| assert_same_bits(&got, t, what);
            same(shape_ops::slice(t, &[0, 0], &[-1, -1]).unwrap(), "slice");
            same(shape_ops::pad_to(t, &[0, 0], t.shape()).unwrap(), "pad_to");
            same(shape_ops::pad(t, &[(0, 0), (0, 0)], 0.0).unwrap(), "pad");
            same(shape_ops::gather(t, &index, 0).unwrap(), "gather");
            same(shape_ops::tile(t, &[1, 1]).unwrap(), "tile");
            same(shape_ops::broadcast_to(t, t.shape()).unwrap(), "broadcast_to");
            let halves = shape_ops::split(t, 2, 1).unwrap();
            same(
                shape_ops::concat(&halves.iter().collect::<Vec<_>>(), 1).unwrap(),
                "split + concat",
            );
            same(
                shape_ops::reverse(&shape_ops::reverse(t, 0).unwrap(), 0).unwrap(),
                "reverse twice",
            );
            let tt =
                shape_ops::transpose(&shape_ops::transpose(t, &[1, 0]).unwrap(), &[1, 0]).unwrap();
            same(tt, "transpose twice");
            // And one element at a time, so a whole-buffer shortcut cannot hide a converting path.
            let corner = shape_ops::slice(t, &[0, 0], &[1, 1]).unwrap();
            assert_eq!(
                corner.to_le_bytes(),
                t.to_le_bytes()[..t.dtype().size_bytes()],
                "slice of one"
            );
            let joined = shape_ops::concat(&[&corner, &corner], 0).unwrap();
            assert_eq!(
                joined.to_le_bytes()[..t.dtype().size_bytes()],
                corner.to_le_bytes(),
                "concat of one"
            );
        }
    }
}
