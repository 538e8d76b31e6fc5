//! Parity tests for the intra-op parallel kernel layer: every parallel,
//! cache-blocked kernel must agree with its naive serial reference, and
//! must produce identical bits at every intra-op thread count.
//!
//! Determinism contract (see DESIGN.md "Two-level parallelism"):
//!
//! * **Bitwise** vs the serial reference at any thread count: matmul /
//!   batch matmul (the packed micro-kernel resumes its accumulators from
//!   the output tile, so per-element accumulation is the plain ascending
//!   fold), elementwise + broadcast ops (the 8-wide lane fast path applies
//!   the identical per-element function), prefix-axis float reductions,
//!   and `conv2d_backprop_input` (batches are disjoint). `max`/`min`
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
//!   (fixed-chunk tree over batches).
//! * `conv2d` forward accumulates in f64 in the same (ky, kx, ci) order
//!   as the reference, with exact `+0.0` padding terms; compared here by
//!   value (a `-0.0` vs `+0.0` sign difference is tolerated).

use proptest::prelude::*;
use tfe_parallel::set_intra_threads;
use tfe_tensor::elementwise::{binary, compare, BinaryOp, CmpOp};
use tfe_tensor::gemm::gemm_into;
use tfe_tensor::matmul::{batch_matmul, matmul, matmul_reference};
use tfe_tensor::reduce::{reduce, ReduceOp};
use tfe_tensor::shape::BroadcastWalker;
use tfe_tensor::softmax::{log_softmax, softmax};
use tfe_tensor::{broadcast_shapes, conv, Shape, TensorData};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_parity_random_shapes(
        m in 1usize..24, k in 1usize..40, n in 1usize..24,
        ta in any::<bool>(), tb in any::<bool>(), seed in 0u64..1000,
    ) {
        let av = f32s(m * k, seed);
        let bv = f32s(k * n, seed + 1);
        let a_dims = if ta { [k, m] } else { [m, k] };
        let b_dims = if tb { [n, k] } else { [k, n] };
        let a = TensorData::from_vec(av.clone(), Shape::from(a_dims)).unwrap();
        let b = TensorData::from_vec(bv.clone(), Shape::from(b_dims)).unwrap();
        let mut want = vec![0.0f32; m * n];
        matmul_reference(&av, &bv, m, k, n, ta, tb, &mut want);
        let got = with_threads(5, || matmul(&a, &b, ta, tb).unwrap());
        prop_assert_eq!(bits32(got.as_slice::<f32>().unwrap()), bits32(&want));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn broadcast_binary_parity(
        rows in 1usize..80, cols in 1usize..80,
        a_bcast in any::<bool>(), b_bcast in any::<bool>(), seed in 0u64..1000,
    ) {
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
        prop_assert_eq!(bits32(got.as_slice::<f32>().unwrap()), bits32(&want));
    }
}

// ---------------------------------------------------------------------------
// Periodic operands: the slice fast path of `binary` and `compare` against
// a per-element BroadcastWalker reference, exact bits.
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

/// What the walker path computes: one `BroadcastWalker` per operand, the
/// op's scalar function per element. The result is compared bit for bit —
/// a NaN operand's payload must come through — except where *both*
/// operands are NaN: which payload survives then depends on the operand
/// order the compiler chose for a commutative instruction, so there the
/// reference is `None` and only NaN-ness is required.
fn walker_binary_f32(a: &TensorData, b: &TensorData, op: BinaryOp) -> (Shape, Vec<Option<u32>>) {
    let out = broadcast_shapes(a.shape(), b.shape()).unwrap();
    let (av, bv) = (a.as_slice::<f32>().unwrap(), b.as_slice::<f32>().unwrap());
    let wa = BroadcastWalker::new(&out, a.shape());
    let wb = BroadcastWalker::new(&out, b.shape());
    let v = wa
        .zip(wb)
        .map(|(ia, ib)| {
            let (x, y) = (av[ia], bv[ib]);
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

/// The comparison predicate on operands widened to `f64`, per element.
fn walker_compare(a: &TensorData, b: &TensorData, op: CmpOp) -> (Shape, Vec<bool>) {
    let out = broadcast_shapes(a.shape(), b.shape()).unwrap();
    let wa = BroadcastWalker::new(&out, a.shape());
    let wb = BroadcastWalker::new(&out, b.shape());
    let v = wa
        .zip(wb)
        .map(|(ia, ib)| {
            let (x, y) = (a.get_f64_linear(ia), b.get_f64_linear(ib));
            match op {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            }
        })
        .collect();
    (out, v)
}

/// An output shape (empty and size-1 axes included) and an operand shape
/// that is periodic in it: a suffix of the output behind `lead` 1s.
fn periodic_shapes() -> impl Strategy<Value = (Vec<usize>, Vec<usize>)> {
    (prop::collection::vec(0usize..6, 0..4), 0usize..5, 0usize..3).prop_map(|(out, keep, lead)| {
        let keep = keep.min(out.len());
        let mut operand = vec![1usize; lead.min(out.len() - keep)];
        operand.extend_from_slice(&out[out.len() - keep..]);
        (out, operand)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every binary op, periodic operand on either side, specials in the
    /// data: the slice path and the walker agree bit for bit.
    #[test]
    fn binary_periodic_matches_walker_bitwise(
        shapes in periodic_shapes(),
        op_ix in 0usize..10, swap in any::<bool>(), seed in 0u64..1000,
    ) {
        let (out, operand) = shapes;
        let op = BinaryOp::all()[op_ix];
        let full = TensorData::from_vec(
            special_f32s(out.iter().product(), seed), Shape::new(out.clone())).unwrap();
        let part = TensorData::from_vec(
            special_f32s(operand.iter().product(), seed + 1), Shape::new(operand.clone())).unwrap();
        prop_assert!(part.shape().is_periodic_in(full.shape()));
        let (a, b) = if swap { (&part, &full) } else { (&full, &part) };
        let (want_shape, want) = walker_binary_f32(a, b, op);
        let got = binary(a, b, op).unwrap();
        prop_assert_eq!(got.shape(), &want_shape);
        assert_matches_walker(&got, &want, &format!("{op:?} {:?} {:?}", a.shape(), b.shape()));
    }

    /// Every comparison on f32 (specials included), f64, i32 and i64
    /// (beyond 2^53, where widening to f64 rounds): same predicate, same
    /// answers as the walker.
    #[test]
    fn compare_periodic_matches_walker(
        shapes in periodic_shapes(),
        op_ix in 0usize..6, dtype_ix in 0usize..4, swap in any::<bool>(), seed in 0u64..1000,
    ) {
        let (out, operand) = shapes;
        let op = CmpOp::all()[op_ix];
        let make = |dims: &[usize], seed: u64| -> TensorData {
            let n: usize = dims.iter().product();
            let shape = Shape::new(dims.to_vec());
            let ints = || f32s(n, seed).into_iter().map(|x| (x * 2.0) as i64);
            match dtype_ix {
                0 => TensorData::from_vec(special_f32s(n, seed), shape),
                1 => TensorData::from_vec(
                    special_f32s(n, seed).into_iter().map(f64::from).collect::<Vec<_>>(), shape),
                2 => TensorData::from_vec(ints().map(|x| x as i32).collect::<Vec<_>>(), shape),
                _ => TensorData::from_vec(
                    ints().map(|x| (1i64 << 53) + x).collect::<Vec<_>>(), shape),
            }
            .unwrap()
        };
        let (full, part) = (make(&out, seed), make(&operand, seed + 1));
        let (a, b) = if swap { (&part, &full) } else { (&full, &part) };
        let (want_shape, want) = walker_compare(a, b, op);
        let got = compare(a, b, op).unwrap();
        prop_assert_eq!(got.shape(), &want_shape);
        prop_assert_eq!(got.as_slice::<bool>().unwrap(), &want[..], "{:?}", op);
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn reduce_parity_random(
        d0 in 1usize..10, d1 in 1usize..14, d2 in 1usize..20,
        which in 0usize..4, op_ix in 0usize..5, seed in 0u64..1000,
    ) {
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
        prop_assert_eq!(bits32(got.as_slice::<f32>().unwrap()), bits32(&want));
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn conv2d_forward_parity_random_geometry(
        n in 1usize..3, h in 1usize..8, w in 1usize..8,
        kh in 1usize..4, kw in 1usize..4, c_in in 1usize..4, c_out in 1usize..4,
        stride in 1usize..3, same in any::<bool>(), seed in 0u64..1000,
    ) {
        let padding = if same { conv::Padding::Same } else { conv::Padding::Valid };
        let x = TensorData::from_vec(f32s(n * h * w * c_in, seed), Shape::from([n, h, w, c_in])).unwrap();
        let f = TensorData::from_vec(f32s(kh * kw * c_in * c_out, seed + 1), Shape::from([kh, kw, c_in, c_out])).unwrap();
        let Ok(g) = conv::conv2d_geometry(x.shape(), f.shape(), (stride, stride), padding) else {
            // Valid padding can make the output empty; nothing to compare.
            return Ok(());
        };
        let want = conv::conv2d_reference(
            x.as_slice::<f32>().unwrap(), f.as_slice::<f32>().unwrap(), &g);
        let got = with_threads(4, || conv::conv2d(&x, &f, (stride, stride), padding).unwrap());
        let got = got.as_slice::<f32>().unwrap();
        prop_assert_eq!(got.len(), want.len());
        for (i, (&gv, &wv)) in got.iter().zip(&want).enumerate() {
            // Value equality: the im2col path's +0.0 padding terms can
            // flip a -0.0 to +0.0, which `==` treats as equal.
            prop_assert!(gv == wv as f32, "element {i}: got {gv} want {wv}");
        }
    }
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
