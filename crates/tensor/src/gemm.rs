//! Register-tiled GEMM: the one micro-kernel behind [`crate::matmul`] and
//! the im2col convolution path.
//!
//! Every product runs on `tile`, an `MR x NR` block of accumulators held
//! in registers across the depth loop, generic over its size and over how
//! it reads the operands at depth `p`: `along` takes the tile's values side
//! by side (a packed panel, a row of `b`, a column of a transposed `a`),
//! `across` one line apart (a row-major `a`, a transposed `b`).
//!
//! - [`gemm_into`] packs, after the GotoBLAS/BLIS decomposition: `NC`
//!   column slabs, `KC` depth slices and `MC` row blocks; per (slab, slice)
//!   B's panel is packed `NR` wide and each row block's panel of A `MR`
//!   tall, into buffers from the per-thread [`Scalar::scratch`] pool. The
//!   packing absorbs the transposes, so every flag combination runs the
//!   same 4 x 8 tile, which resumes from `out` across the slices. Row
//!   blocks run in parallel ([`tfe_parallel::par_chunks_mut`]) when the
//!   product is large enough.
//! - [`gemm_unpacked_into`] reads the operands in place, for products too
//!   small to pay for packing: `NR` ∈ {8, 4, 2, 1} by the columns left,
//!   `MR` = 8 when `NR` ≤ 4 (4 otherwise) stepping down to 1 for the rows
//!   left, so every tile is full and starts from `+0.0`.
//!
//! Either way every element is its start (`+0.0`, or what `out` held) plus
//! the plain left-to-right sum over `p = 0..k`: from a zeroed `out`,
//! bit-for-bit the naive triple loop for every transpose combination,
//! block size, tile size and thread count.

use crate::data::{Scalar, Scratch};
use std::ops::{Add, Mul};

/// Rows per packed register tile.
const MR: usize = 4;
/// Columns per packed register tile.
const NR: usize = 8;
/// Depth (k) block: one packed panel pair stays in cache while the tiles
/// sweep it.
const KC: usize = 256;
/// Row (m) block per parallel task.
const MC: usize = 128;
/// Column (n) slab.
const NC: usize = 2048;

/// Multiply-adds below which the row-block loop stays serial (pool
/// dispatch costs more than it saves on tiny products).
const PAR_MADDS: usize = 1 << 18;

/// Scalar types the gemm kernels accept (both float widths; also integer
/// types for internal reuse, e.g. packed convolution accumulation).
pub trait GemmScalar:
    Scalar + Add<Output = Self> + Mul<Output = Self> + Default + Send + Sync
{
}
impl<T: Scalar + Add<Output = T> + Mul<Output = T> + Default + Send + Sync> GemmScalar for T {}

/// `out += op(a) @ op(b)` for row-major `a`, `b`, `out` where `op`
/// optionally transposes. `a` is `m x k` after `op` (stored `k x m` when
/// `ta`), `b` is `k x n` after `op` (stored `n x k` when `tb`), `out` is
/// `m x n`. Accumulates *into* `out`, so pass a zeroed buffer for a plain
/// product. Packs both operands; parallel over row blocks unless
/// `allow_par` is false or the product is small.
#[allow(clippy::too_many_arguments)]
pub fn gemm_into<T: GemmScalar>(
    m: usize,
    k: usize,
    n: usize,
    a: &[T],
    ta: bool,
    b: &[T],
    tb: bool,
    out: &mut [T],
    allow_par: bool,
) {
    check_sizes(m, k, n, a, b, out);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let a_at = |i: usize, p: usize| if ta { a[p * m + i] } else { a[i * k + p] };
    let b_at = |p: usize, j: usize| if tb { b[j * k + p] } else { b[p * n + j] };

    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            // Pack the B panel once per (jc, pc); every row block reads it.
            // The tile reads all `NR` columns: those past `jw` stay zero.
            let mut bp = Scratch::filled(nc.div_ceil(NR) * kc * NR, T::default());
            for (jp, dst) in bp.chunks_exact_mut(kc * NR).enumerate() {
                let j0 = jc + jp * NR;
                let jw = NR.min(jc + nc - j0);
                for (p, drow) in dst.chunks_exact_mut(NR).enumerate() {
                    for (jr, d) in drow.iter_mut().take(jw).enumerate() {
                        *d = b_at(pc + p, j0 + jr);
                    }
                }
            }
            let n_blocks = m.div_ceil(MC);
            let grain = if allow_par && m * nc * kc >= PAR_MADDS { 1 } else { n_blocks };
            let bp = &bp[..];
            tfe_parallel::par_chunks_mut(out, MC * n, grain, |blocks, rows| {
                let mut ap = Scratch::filled(MC.min(m).div_ceil(MR) * kc * MR, T::default());
                for (ib, row_block) in blocks.zip(rows.chunks_mut(MC * n)) {
                    let ic = ib * MC;
                    let mc = MC.min(m - ic);
                    let ap = &mut ap[..mc.div_ceil(MR) * kc * MR];
                    // Pack this row block of A (transpose absorbed here).
                    for (ip, dst) in ap.chunks_exact_mut(kc * MR).enumerate() {
                        let i0 = ic + ip * MR;
                        let iw = MR.min(m - i0);
                        for (p, drow) in dst.chunks_exact_mut(MR).enumerate() {
                            for (ir, d) in drow.iter_mut().enumerate() {
                                *d = if ir < iw { a_at(i0 + ir, pc + p) } else { T::default() };
                            }
                        }
                    }
                    for (jp, bpan) in bp.chunks_exact(kc * NR).enumerate() {
                        let j0 = jc + jp * NR;
                        let jw = NR.min(jc + nc - j0);
                        for (ip, apan) in ap.chunks_exact(kc * MR).enumerate() {
                            let iw = MR.min(mc - ip * MR);
                            let corner = &mut row_block[ip * MR * n + j0..];
                            // Resume each element's sum from the last KC slice.
                            let mut acc = [[T::default(); NR]; MR];
                            for (row, o) in acc.iter_mut().zip(corner.chunks(n)).take(iw) {
                                row[..jw].copy_from_slice(&o[..jw]);
                            }
                            let acc = tile(acc, kc, along(apan, 0, MR), along(bpan, 0, NR));
                            for (row, o) in acc.iter().zip(corner.chunks_mut(n)).take(iw) {
                                o[..jw].copy_from_slice(&row[..jw]);
                            }
                        }
                    }
                }
            });
        }
    }
}

/// `out = op(a) @ op(b)`, shapes and layouts as in [`gemm_into`], serially
/// and without packing: each tile reads `a` and `b` where they lie and sums
/// from `+0.0`, so `out` need not be zeroed.
#[allow(clippy::too_many_arguments)]
pub fn gemm_unpacked_into<T: GemmScalar>(
    m: usize,
    k: usize,
    n: usize,
    a: &[T],
    ta: bool,
    b: &[T],
    tb: bool,
    out: &mut [T],
) {
    check_sizes(m, k, n, a, b, out);
    // At depth 1 each operand is stored the same either way: read both
    // along their rows, whose values lie side by side.
    let (ta, tb) = (ta || k == 1, tb && k > 1);
    let op = Unpacked { m, k, n, a, ta, b, tb };
    let mut j0 = 0;
    while j0 < n {
        j0 += match n - j0 {
            8.. => op.columns::<8>(out, j0),
            4..=7 => op.columns::<4>(out, j0),
            2 | 3 => op.columns::<2>(out, j0),
            _ => op.columns::<1>(out, j0),
        };
    }
}

/// An unpacked product's operands.
struct Unpacked<'x, T> {
    m: usize,
    k: usize,
    n: usize,
    a: &'x [T],
    ta: bool,
    b: &'x [T],
    tb: bool,
}

impl<T: GemmScalar> Unpacked<'_, T> {
    /// Tiles `NR` columns of `out` from column `j0`, top to bottom; returns
    /// `NR`.
    fn columns<const NR: usize>(&self, out: &mut [T], j0: usize) -> usize {
        let mut i0 = 0;
        while i0 < self.m {
            i0 += match self.m - i0 {
                8.. if NR <= 4 => self.tile::<8, NR>(out, i0, j0),
                4.. => self.tile::<4, NR>(out, i0, j0),
                2 | 3 => self.tile::<2, NR>(out, i0, j0),
                _ => self.tile::<1, NR>(out, i0, j0),
            };
        }
        NR
    }

    /// The full `MR x NR` tile of `out` at (`i0`, `j0`), summed from
    /// `+0.0`; returns `MR`.
    #[inline]
    fn tile<const MR: usize, const NR: usize>(&self, out: &mut [T], i0: usize, j0: usize) -> usize {
        let Unpacked { m, k, n, a, ta, b, tb } = *self;
        let zero = [[T::default(); NR]; MR];
        let acc = match (ta, tb) {
            (false, false) => tile(zero, k, across(a, i0, k), along(b, j0, n)),
            (true, false) => tile(zero, k, along(a, i0, m), along(b, j0, n)),
            (false, true) => tile(zero, k, across(a, i0, k), across(b, j0, k)),
            (true, true) => tile(zero, k, along(a, i0, m), across(b, j0, k)),
        };
        for (row, o) in acc.iter().zip(out[i0 * n + j0..].chunks_mut(n)) {
            o[..NR].copy_from_slice(row);
        }
        MR
    }
}

/// A tile's `W` values at depth `p` of an operand that stores each depth
/// step contiguously, `ld` apart: `v[p * ld + first..][..W]`.
#[inline(always)]
fn along<T: Copy, const W: usize>(
    v: &[T],
    first: usize,
    ld: usize,
) -> impl Fn(usize) -> [T; W] + '_ {
    move |p| v[p * ld + first..][..W].try_into().expect("a slice W long")
}

/// A tile's `W` values at depth `p` of a `k`-deep operand that stores each
/// of its lines contiguously: `v[(first + w) * k + p]`.
#[inline(always)]
fn across<T: Copy, const W: usize>(
    v: &[T],
    first: usize,
    k: usize,
) -> impl Fn(usize) -> [T; W] + '_ {
    let lines = &v[first * k..][..W * k];
    move |p| std::array::from_fn(|w| lines[w * k + p])
}

fn check_sizes<T>(m: usize, k: usize, n: usize, a: &[T], b: &[T], out: &[T]) {
    assert_eq!(out.len(), m * n, "gemm output buffer size");
    assert_eq!(a.len(), m * k, "gemm lhs buffer size");
    assert_eq!(b.len(), k * n, "gemm rhs buffer size");
}

/// One `MR x NR` register tile: adds `a(p)[ir] · b(p)[jr]` to
/// `acc[ir][jr]` for `p` ascending over `0..kc`, where `a(p)` is the
/// tile's `MR` values of column `p` of `op(a)` and `b(p)` its `NR` values
/// of row `p` of `op(b)`.
#[inline(always)]
fn tile<T: GemmScalar, const MR: usize, const NR: usize>(
    mut acc: [[T; NR]; MR],
    kc: usize,
    a: impl Fn(usize) -> [T; MR],
    b: impl Fn(usize) -> [T; NR],
) -> [[T; NR]; MR] {
    for p in 0..kc {
        let (av, bv) = (a(p), b(p));
        for (row, &x) in acc.iter_mut().zip(&av) {
            for (v, &y) in row.iter_mut().zip(&bv) {
                *v = *v + x * y;
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(m: usize, k: usize, n: usize, a: &[f64], ta: bool, b: &[f64], tb: bool) -> Vec<f64> {
        let a_at = |i: usize, p: usize| if ta { a[p * m + i] } else { a[i * k + p] };
        let b_at = |p: usize, j: usize| if tb { b[j * k + p] } else { b[p * n + j] };
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a_at(i, p) * b_at(p, j);
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn fill(len: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as f64 / (1u64 << 31) as f64) - 0.5
            })
            .collect()
    }

    /// Both gemms on `op(a) @ op(b)` under every transpose combination,
    /// bit for bit the naive loop.
    fn check(m: usize, k: usize, n: usize, seed: u64) {
        let (a, b) = (fill(m * k, seed), fill(k * n, seed + 1));
        for (ta, tb) in [(false, false), (true, false), (false, true), (true, true)] {
            let want = naive(m, k, n, &a, ta, &b, tb);
            let mut packed = vec![0.0f64; m * n];
            gemm_into(m, k, n, &a, ta, &b, tb, &mut packed, true);
            // Unpacked tiles overwrite `out`, whatever it held.
            let mut unpacked = vec![f64::NAN; m * n];
            gemm_unpacked_into(m, k, n, &a, ta, &b, tb, &mut unpacked);
            for (what, got) in [("packed", packed), ("unpacked", unpacked)] {
                assert!(
                    got.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "{what} mismatch at m={m} k={k} n={n} ta={ta} tb={tb}"
                );
            }
        }
    }

    #[test]
    fn matches_naive_bitwise_over_blocked_shapes() {
        // Shapes chosen to cross MR/NR/KC/MC edges (including k > KC, which
        // exercises the accumulator-resume path).
        for (m, k, n) in
            [(1, 1, 1), (3, 5, 7), (4, 8, 8), (5, 300, 9), (130, 17, 11), (33, 513, 19)]
        {
            check(m, k, n, (m * 31 + k * 7 + n) as u64);
        }
    }

    #[test]
    fn packed_edge_tiles_match_naive_bitwise() {
        // Rows short of a multiple of MR, columns short of a multiple of NR,
        // depth past KC (the tiles resume across slices), each row and
        // column count against each. A product of NaNs first leaves this
        // thread's pooled packing buffers full of NaNs.
        let k = KC + 5;
        let nans = vec![f64::NAN; 16 * k];
        gemm_into(16, k, 16, &nans, false, &nans, false, &mut vec![0.0; 256], false);
        for m in [1, 2, 3, 5, 6, 7, 9, 11] {
            for n in [1, 2, 3, 5, 6, 7, 9, 12, 15] {
                check(m, k, n, (m * 3 + n) as u64);
            }
        }
    }

    #[test]
    fn thread_count_invariant() {
        let (m, k, n) = (97, 290, 65);
        let a = fill(m * k, 3);
        let b = fill(k * n, 4);
        let mut par = vec![0.0f64; m * n];
        gemm_into(m, k, n, &a, false, &b, false, &mut par, true);
        let prev = tfe_parallel::set_intra_threads(Some(1));
        let mut ser = vec![0.0f64; m * n];
        gemm_into(m, k, n, &a, false, &b, false, &mut ser, true);
        tfe_parallel::set_intra_threads(prev);
        assert!(par.iter().zip(&ser).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn accumulates_into_out() {
        let mut out = vec![1.0f32, 1.0, 1.0, 1.0];
        let a = vec![1.0f32, 0.0, 0.0, 1.0];
        gemm_into(2, 2, 2, &a, false, &a, false, &mut out, false);
        assert_eq!(out, vec![2.0, 1.0, 1.0, 2.0]);
    }
}
