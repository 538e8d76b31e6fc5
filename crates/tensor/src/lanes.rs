//! Fixed-width lane inner loops for the elementwise and reduction kernels.
//!
//! Every hot f32 loop in this crate funnels through the helpers here, which
//! restructure the work into [`LANES`]-wide blocks (8 × f32 = one 256-bit
//! vector register) that the compiler can autovectorize:
//!
//! - [`unary_f32`] / [`binary_f32`] hoist the op dispatch out of the loop
//!   (one `match` per tile, not per element) and run the op body over
//!   fixed-size `[f32; LANES]` blocks. Each lane applies exactly the same
//!   per-element function as the scalar path ([`UnaryOp::eval_f32`] /
//!   [`BinaryOp::eval_f32`]), so results are **bit-identical** to scalar
//!   evaluation — maps have no cross-element dependence to reassociate.
//! - [`Periodic`] is how broadcasting reaches those loops: an operand whose
//!   shape is a suffix of the output's (a scalar, a bias, a mask over
//!   trailing axes) is read as `src[i % p]`, and `Periodic::window` hands
//!   the loops a contiguous slice of that sequence — repeated once per
//!   call into a pattern at most one window longer than the operand. The
//!   `binary`/`compare` kernels and the fused tile executor in `tfe-graph`
//!   share it, so a broadcast op costs about what a same-shape op does and
//!   produces the bits the same-shape loops produce. Operands that are not
//!   periodic (a `[n, 1]` column) keep the per-element `BroadcastWalker`.
//! - [`lane_fold_f64`] folds a row through `LANES` independent accumulators.
//!   This **reassociates** the fold, so for non-associative ops (float
//!   `add`/`mul`) the bits differ from a strict left fold; the combine order
//!   is fixed and documented below, so results are still deterministic and
//!   thread-count invariant. Callers with an exactness contract must not use
//!   it (see DESIGN.md "Exactness vs. tolerance policy").
//! - [`fold_columns_f64`] folds one source row into per-column accumulators.
//!   Per-column fold order is unchanged from the scalar loop (column `j`
//!   still sees its elements in the same sequence), so it stays bitwise.
//!
//! # `lane_fold_f64` combine order (stable contract, tested)
//!
//! For a row of length `n` with `m = n - n % LANES`:
//! 1. lane `j` folds elements `j, j+LANES, j+2*LANES, …` of `row[..m]`
//!    (ascending), starting from `init`;
//! 2. lane accumulators are combined left to right:
//!    `f(f(…f(lane0, lane1)…), lane7)`;
//! 3. tail elements `row[m..]` are folded into that result in ascending
//!    order.

use crate::data::Scalar;
use crate::elementwise::{BinaryOp, UnaryOp};

/// Lane width of the restructured inner loops: 8 × f32 fills one 256-bit
/// vector register, and 8 × f64 accumulators fill two — enough independent
/// chains to hide FMA latency on current cores.
pub const LANES: usize = 8;

/// Apply `f` to every element of `src`, writing `dst` (equal lengths), in
/// [`LANES`]-wide blocks plus a scalar tail. Bit-identical to a plain loop.
#[inline(always)]
fn map_unary(src: &[f32], dst: &mut [f32], f: impl Fn(f32) -> f32) {
    debug_assert_eq!(src.len(), dst.len());
    let m = src.len() - src.len() % LANES;
    let (sb, st) = src.split_at(m);
    let (db, dt) = dst.split_at_mut(m);
    for (d, s) in db.chunks_exact_mut(LANES).zip(sb.chunks_exact(LANES)) {
        // Fixed-size views let the compiler fully unroll the lane loop.
        let d: &mut [f32; LANES] = d.try_into().unwrap();
        let s: &[f32; LANES] = s.try_into().unwrap();
        for (o, &x) in d.iter_mut().zip(s.iter()) {
            *o = f(x);
        }
    }
    for (o, &x) in dt.iter_mut().zip(st.iter()) {
        *o = f(x);
    }
}

/// Two-source variant of [`map_unary`].
#[inline(always)]
fn map_binary(a: &[f32], b: &[f32], dst: &mut [f32], f: impl Fn(f32, f32) -> f32) {
    debug_assert_eq!(a.len(), dst.len());
    debug_assert_eq!(b.len(), dst.len());
    let m = dst.len() - dst.len() % LANES;
    let (ab, at) = a.split_at(m);
    let (bb, bt) = b.split_at(m);
    let (db, dt) = dst.split_at_mut(m);
    for ((d, x), y) in
        db.chunks_exact_mut(LANES).zip(ab.chunks_exact(LANES)).zip(bb.chunks_exact(LANES))
    {
        let d: &mut [f32; LANES] = d.try_into().unwrap();
        let x: &[f32; LANES] = x.try_into().unwrap();
        let y: &[f32; LANES] = y.try_into().unwrap();
        for ((o, &p), &q) in d.iter_mut().zip(x.iter()).zip(y.iter()) {
            *o = f(p, q);
        }
    }
    for ((o, &p), &q) in dt.iter_mut().zip(at.iter()).zip(bt.iter()) {
        *o = f(p, q);
    }
}

/// `dst[i] = op(src[i])` over lane blocks, dispatching on `op` **once**.
///
/// Each match arm closes over a compile-time-constant op, so
/// `eval_f32`'s inner match folds away and the loop body is the bare op
/// formula — same math, same bits as the scalar path.
pub fn unary_f32(op: UnaryOp, src: &[f32], dst: &mut [f32]) {
    macro_rules! dispatch {
        ($($v:ident),* $(,)?) => {
            match op {
                $(UnaryOp::$v => map_unary(src, dst, |x| UnaryOp::$v.eval_f32(x)),)*
            }
        };
    }
    dispatch!(
        Neg, Abs, Sign, Exp, Log, Log1p, Sqrt, Rsqrt, Square, Reciprocal, Relu, Sigmoid, Tanh,
        Softplus, Floor, Ceil, Round, Sin, Cos, Erf,
    )
}

/// `dst[i] = op(a[i], b[i])` over lane blocks, dispatching on `op` once.
/// Bit-identical to the scalar path (see [`unary_f32`]).
pub fn binary_f32(op: BinaryOp, a: &[f32], b: &[f32], dst: &mut [f32]) {
    macro_rules! dispatch {
        ($($v:ident),* $(,)?) => {
            match op {
                $(BinaryOp::$v => map_binary(a, b, dst, |x, y| BinaryOp::$v.eval_f32(x, y)),)*
            }
        };
    }
    dispatch!(Add, Sub, Mul, Div, FloorDiv, Mod, Pow, Maximum, Minimum, SquaredDifference,)
}

/// A *periodic operand* of a flat elementwise map with `n` outputs: output
/// `i` reads `src[i % src.len()]` (see [`crate::Shape::is_periodic_in`] for which
/// broadcasts are of that form). [`Periodic::window`] hands out contiguous
/// slices of that virtual length-`n` sequence, so broadcasting kernels run
/// the same slice loops — and produce the same bits — as same-shape ones.
///
/// An operand that already has `n` elements is borrowed. A shorter one is
/// repeated once, at construction, into a pattern long enough that any
/// window of up to `max_window` elements is contiguous in it; that costs
/// `src.len() + min(max_window, n)` elements per call, however large `n`.
pub struct Periodic<'a, T: Copy> {
    buf: std::borrow::Cow<'a, [T]>,
    period: usize,
}

impl<'a, T: Copy> Periodic<'a, T> {
    /// View `src` as a periodic operand of an `n`-element map that will be
    /// read in windows of at most `max_window` elements. `src.len()` must
    /// divide `n` (it does whenever `is_periodic_in` accepted the shapes).
    pub fn new(src: &'a [T], n: usize, max_window: usize) -> Self {
        let period = src.len();
        if period == n || period == 0 {
            return Periodic { buf: src.into(), period: period.max(1) };
        }
        debug_assert!(n.is_multiple_of(period));
        // A window starts at a phase below `period` and is at most
        // `min(max_window, n)` long.
        let want = period + max_window.min(n);
        if period == 1 {
            return Periodic { buf: vec![src[0]; want].into(), period };
        }
        let mut pattern = Vec::with_capacity(want + period);
        pattern.extend_from_slice(src);
        while pattern.len() < want {
            // Doubling copies: O(log) memcpys however short the period.
            // Whole periods only, so the pattern stays periodic.
            let take = pattern.len().min(want - pattern.len()).next_multiple_of(period);
            pattern.extend_from_within(..take);
        }
        Periodic { buf: pattern.into(), period }
    }

    /// Elements `start .. start + len` of the virtual sequence, contiguous.
    /// `len` must not exceed the `max_window` given to [`Periodic::new`].
    #[inline]
    pub fn window(&self, start: usize, len: usize) -> &[T] {
        let phase = start % self.period;
        &self.buf[phase..phase + len]
    }
}

/// Fold `row` into an `f64` with [`LANES`] independent accumulator chains.
///
/// `init` must be `f`'s identity (it seeds every lane). The combine order is
/// the stable contract documented at module level: deterministic and
/// independent of thread count, but **reassociated** relative to a strict
/// left fold — for float `add`/`mul` the result can differ from the serial
/// fold by normal rounding-reassociation error. For `max`/`min` (and any
/// associative-commutative `f` without NaN) the value is identical.
pub fn lane_fold_f64<T: Scalar>(row: &[T], init: f64, f: impl Fn(f64, f64) -> f64) -> f64 {
    let mut lanes = [init; LANES];
    let mut chunks = row.chunks_exact(LANES);
    for c in chunks.by_ref() {
        for (acc, x) in lanes.iter_mut().zip(c.iter()) {
            *acc = f(*acc, x.to_f64());
        }
    }
    let mut acc = lanes[0];
    for &l in &lanes[1..] {
        acc = f(acc, l);
    }
    for x in chunks.remainder() {
        acc = f(acc, x.to_f64());
    }
    acc
}

/// Fold one source row into per-column accumulators:
/// `acc[j] = f(acc[j], src[j])` (equal lengths), in lane blocks.
///
/// Column `j`'s fold order is exactly the scalar loop's, so this is
/// **bitwise identical** to the unblocked version — only the instruction
/// schedule changes.
pub fn fold_columns_f64<T: Scalar>(acc: &mut [f64], src: &[T], f: impl Fn(f64, f64) -> f64) {
    debug_assert_eq!(acc.len(), src.len());
    let m = acc.len() - acc.len() % LANES;
    let (ab, at) = acc.split_at_mut(m);
    let (sb, st) = src.split_at(m);
    for (a, s) in ab.chunks_exact_mut(LANES).zip(sb.chunks_exact(LANES)) {
        let a: &mut [f64; LANES] = a.try_into().unwrap();
        for (o, x) in a.iter_mut().zip(s.iter()) {
            *o = f(*o, x.to_f64());
        }
    }
    for (o, x) in at.iter_mut().zip(st.iter()) {
        *o = f(*o, x.to_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i % 97) as f32 - 48.0) * 0.37 + 0.25).collect()
    }

    #[test]
    fn unary_matches_scalar_bitwise_all_ops_odd_lengths() {
        for &n in &[0usize, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let src = vals(n);
            for &op in UnaryOp::all() {
                let mut dst = vec![0.0f32; n];
                unary_f32(op, &src, &mut dst);
                for (i, (&got, &x)) in dst.iter().zip(src.iter()).enumerate() {
                    let want = op.eval_f32(x);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "op {:?} n {} i {}: {} vs {}",
                        op,
                        n,
                        i,
                        got,
                        want
                    );
                }
            }
        }
    }

    #[test]
    fn binary_matches_scalar_bitwise_all_ops_odd_lengths() {
        for &n in &[0usize, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let a = vals(n);
            let b: Vec<f32> = vals(n).iter().map(|x| x * -1.3 + 0.5).collect();
            for &op in BinaryOp::all() {
                let mut dst = vec![0.0f32; n];
                binary_f32(op, &a, &b, &mut dst);
                for i in 0..n {
                    let want = op.eval_f32(a[i], b[i]);
                    let got = dst[i];
                    assert!(
                        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                        "op {:?} n {} i {}: {} vs {}",
                        op,
                        n,
                        i,
                        got,
                        want
                    );
                }
            }
        }
    }

    /// Reference implementation of the documented lane combine order.
    fn lane_fold_reference(row: &[f64], init: f64, f: impl Fn(f64, f64) -> f64) -> f64 {
        let m = row.len() - row.len() % LANES;
        let mut lanes = [init; LANES];
        for (i, &x) in row[..m].iter().enumerate() {
            lanes[i % LANES] = f(lanes[i % LANES], x);
        }
        let mut acc = lanes[0];
        for &l in &lanes[1..] {
            acc = f(acc, l);
        }
        for &x in &row[m..] {
            acc = f(acc, x);
        }
        acc
    }

    #[test]
    fn lane_fold_matches_documented_order_bitwise() {
        for &n in &[0usize, 1, 7, 8, 9, 17, 64, 65, 4097] {
            let row: Vec<f64> = (0..n).map(|i| ((i % 89) as f64 - 44.0) * 0.731).collect();
            let got = lane_fold_f64(&row, 0.0, |a, b| a + b);
            let want = lane_fold_reference(&row, 0.0, |a, b| a + b);
            assert_eq!(got.to_bits(), want.to_bits(), "n = {n}");
        }
    }

    #[test]
    fn lane_fold_max_matches_serial_fold_value() {
        let row: Vec<f64> = (0..1003).map(|i| ((i * 31 % 997) as f64) - 500.0).collect();
        let serial = row.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        let laned = lane_fold_f64(&row, f64::NEG_INFINITY, |a, b| a.max(b));
        assert_eq!(laned.to_bits(), serial.to_bits());
    }

    #[test]
    fn lane_fold_sum_close_to_serial() {
        let row: Vec<f64> = (0..4097).map(|i| ((i % 89) as f64 - 44.0) * 0.731).collect();
        let serial: f64 = row.iter().fold(0.0, |a, &b| a + b);
        let laned = lane_fold_f64(&row, 0.0, |a, b| a + b);
        assert!((laned - serial).abs() <= 1e-9 * row.len() as f64);
    }

    #[test]
    fn fold_columns_bitwise_matches_scalar() {
        for &n in &[0usize, 1, 7, 8, 9, 65, 301] {
            let rows = 5;
            let src: Vec<f64> = (0..rows * n).map(|i| ((i % 53) as f64 - 26.0) * 1.17).collect();
            let mut acc = vec![0.0f64; n];
            let mut want = vec![0.0f64; n];
            for r in 0..rows {
                let row = &src[r * n..(r + 1) * n];
                fold_columns_f64(&mut acc, row, |a, b| a + b);
                for (w, &x) in want.iter_mut().zip(row.iter()) {
                    *w += x;
                }
            }
            for (a, w) in acc.iter().zip(want.iter()) {
                assert_eq!(a.to_bits(), w.to_bits(), "n = {n}");
            }
        }
    }
}
