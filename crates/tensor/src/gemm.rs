//! Packed, cache-blocked, register-tiled GEMM — the shared micro-kernel
//! behind [`crate::matmul`] and the im2col convolution path.
//!
//! Structure follows the classic GotoBLAS/BLIS decomposition:
//!
//! - the `n` dimension is split into `NC` column slabs, `k` into `KC`
//!   depth slices, and `m` into `MC` row blocks;
//! - for each (slab, slice) the relevant panel of B is **packed** into a
//!   contiguous `NR`-wide layout, and each row block packs its panel of A
//!   into an `MR`-tall layout — the packing step also absorbs the
//!   transpose flags, so all four `transpose_a`/`transpose_b` combinations
//!   run the same fast loop;
//! - an `MR x NR` register-tiled micro-kernel walks the packed panels.
//!
//! Row blocks are independent, so they run in parallel on the shared pool
//! ([`tfe_parallel::par_chunks_mut`], one `MC x n` block of `out` per unit)
//! when the problem is large enough.
//!
//! # Determinism
//!
//! The micro-kernel *continues* each output element's accumulator from
//! `out` across the sequential `KC` slices, so every element is the plain
//! left-to-right sum over `p = 0..k` — bit-for-bit identical to the naive
//! triple loop, for every transpose combination, block size, and thread
//! count.

use crate::data::Scalar;
use std::ops::{Add, Mul};

/// Rows per register tile.
const MR: usize = 4;
/// Columns per register tile.
const NR: usize = 8;
/// Depth (k) block: one packed panel pair stays in cache while the
/// micro-kernel sweeps it.
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
/// product. Parallel over row blocks unless `allow_par` is false or the
/// product is small.
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
    assert_eq!(out.len(), m * n, "gemm output buffer size");
    assert_eq!(a.len(), m * k, "gemm lhs buffer size");
    assert_eq!(b.len(), k * n, "gemm rhs buffer size");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let a_at = |i: usize, p: usize| if ta { a[p * m + i] } else { a[i * k + p] };
    let b_at = |p: usize, j: usize| if tb { b[j * k + p] } else { b[p * n + j] };

    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let n_panels = nc.div_ceil(NR);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            // Pack the B panel once per (jc, pc); every row block reads it.
            let mut bp = vec![T::default(); n_panels * kc * NR];
            for jp in 0..n_panels {
                let j0 = jc + jp * NR;
                let jw = NR.min(jc + nc - j0);
                let dst = &mut bp[jp * kc * NR..][..kc * NR];
                for (p, drow) in dst.chunks_exact_mut(NR).enumerate() {
                    for (jr, d) in drow.iter_mut().take(jw).enumerate() {
                        *d = b_at(pc + p, j0 + jr);
                    }
                }
            }
            let n_blocks = m.div_ceil(MC);
            let grain = if allow_par && m * nc * kc >= PAR_MADDS { 1 } else { n_blocks };
            let bp = &bp;
            tfe_parallel::par_chunks_mut(out, MC * n, grain, |blocks, rows| {
                let mut ap = vec![T::default(); MC.div_ceil(MR) * kc * MR];
                for (ib, row_block) in blocks.zip(rows.chunks_mut(MC * n)) {
                    let ic = ib * MC;
                    let mc = MC.min(m - ic);
                    let m_panels = mc.div_ceil(MR);
                    // Pack this row block of A (transpose absorbed here).
                    for ipl in 0..m_panels {
                        let i0 = ic + ipl * MR;
                        let iw = MR.min(m - i0);
                        let dst = &mut ap[ipl * kc * MR..][..kc * MR];
                        for (p, drow) in dst.chunks_exact_mut(MR).enumerate() {
                            for (ir, d) in drow.iter_mut().enumerate() {
                                *d = if ir < iw { a_at(i0 + ir, pc + p) } else { T::default() };
                            }
                        }
                    }
                    for jp in 0..n_panels {
                        let j0 = jc + jp * NR;
                        let jw = NR.min(jc + nc - j0);
                        let bpan = &bp[jp * kc * NR..][..kc * NR];
                        for ipl in 0..m_panels {
                            let i0 = ic + ipl * MR;
                            let iw = MR.min(m - i0);
                            let apan = &ap[ipl * kc * MR..][..kc * MR];
                            micro_kernel(apan, bpan, kc, row_block, i0 - ic, j0, iw, jw, n);
                        }
                    }
                }
            });
        }
    }
}

/// One `MR x NR` register tile: resumes the accumulators from `out` (a
/// row block with row stride `ldc`; the tile's corner is row `i0`, column
/// `j0` of it), sweeps the packed panels over `kc` depth steps, writes the
/// valid `iw x jw` corner back.
#[allow(clippy::too_many_arguments)]
#[inline]
fn micro_kernel<T: GemmScalar>(
    apan: &[T],
    bpan: &[T],
    kc: usize,
    out: &mut [T],
    i0: usize,
    j0: usize,
    iw: usize,
    jw: usize,
    ldc: usize,
) {
    let mut acc = [[T::default(); NR]; MR];
    // Resume each element's accumulation chain from the previous KC slice
    // so the final sum is the plain ascending-p fold (bitwise == naive).
    for (ir, row) in acc.iter_mut().enumerate().take(iw) {
        row[..jw].copy_from_slice(&out[(i0 + ir) * ldc + j0..][..jw]);
    }
    for p in 0..kc {
        let av = &apan[p * MR..p * MR + MR];
        let bv = &bpan[p * NR..p * NR + NR];
        for (ir, row) in acc.iter_mut().enumerate() {
            let aval = av[ir];
            for (jr, v) in row.iter_mut().enumerate() {
                *v = *v + aval * bv[jr];
            }
        }
    }
    for (ir, row) in acc.iter().enumerate().take(iw) {
        out[(i0 + ir) * ldc + j0..][..jw].copy_from_slice(&row[..jw]);
    }
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

    #[test]
    fn matches_naive_bitwise_over_blocked_shapes() {
        // Shapes chosen to cross MR/NR/KC/MC edges (including k > KC, which
        // exercises the accumulator-resume path).
        for &(m, k, n) in
            &[(1, 1, 1), (3, 5, 7), (4, 8, 8), (5, 300, 9), (130, 17, 11), (33, 513, 19)]
        {
            let a = fill(m * k, (m * 31 + k * 7 + n) as u64);
            let b = fill(k * n, (n * 13 + k) as u64);
            for &(ta, tb) in &[(false, false), (true, false), (false, true), (true, true)] {
                let mut out = vec![0.0f64; m * n];
                gemm_into(m, k, n, &a, ta, &b, tb, &mut out, true);
                let want = naive(m, k, n, &a, ta, &b, tb);
                assert!(
                    out.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "mismatch at m={m} k={k} n={n} ta={ta} tb={tb}"
                );
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
