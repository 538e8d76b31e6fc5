//! Deterministic random generation: one seeded generator and the random
//! tensors built on it.
//!
//! [`Rng`] draws the random numbers of initializers, random ops, dropout,
//! and the property tests, which run each case on a generator seeded from
//! the case's index ([`each_seed`]). Stateful random
//! ops in the runtime own a [`TensorRng`]; the seed makes eager and staged
//! runs reproducible — the property the paper's `add_noise` example (§4.1)
//! turns on.

use crate::{DType, Result, Shape, TensorData, TensorError};
use std::ops::{Range, RangeInclusive};

/// xoshiro256\*\* seeded through SplitMix64: deterministic and
/// non-cryptographic. Equal seeds yield equal streams, and the streams are
/// pinned by the `stream_golden` test.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Create from a 64-bit seed, expanded to the state by SplitMix64.
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut s = [next(), next(), next(), next()];
        if s == [0, 0, 0, 0] {
            s = [1, 2, 3, 4];
        }
        Rng { s }
    }

    /// Next uniform 64-bit word.
    pub fn u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` from the top 53 bits of one word.
    pub fn f64(&mut self) -> f64 {
        (self.u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, 1)` from the top 24 bits of one word.
    pub fn f32(&mut self) -> f32 {
        (self.u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// `true` with probability `p`.
    pub fn bool(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Uniform draw from an integer range `a..b` or `a..=b`, by the word
    /// modulo the span, or from a float range `a..b`, by scaling a unit draw.
    pub fn range<T, R: Uniform<T>>(&mut self, range: R) -> T {
        range.draw(self)
    }
}

/// A range of `T` that [`Rng::range`] draws from.
pub trait Uniform<T> {
    /// Draw one value in the range.
    fn draw(self, rng: &mut Rng) -> T;
}

macro_rules! int_uniform {
    ($($t:ty),*) => {$(
        impl Uniform<$t> for Range<$t> {
            fn draw(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + ((rng.u64() as u128) % span) as i128) as $t
            }
        }
        impl Uniform<$t> for RangeInclusive<$t> {
            fn draw(self, rng: &mut Rng) -> $t {
                let (start, end) = self.into_inner();
                assert!(start <= end, "empty range");
                let span = (end as i128 - start as i128) as u128 + 1;
                (start as i128 + ((rng.u64() as u128) % span) as i128) as $t
            }
        }
    )*};
}

int_uniform!(u8, u32, u64, usize, i64);

macro_rules! float_uniform {
    ($($t:ident),*) => {$(
        impl Uniform<$t> for Range<$t> {
            fn draw(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range");
                self.start + rng.$t() * (self.end - self.start)
            }
        }
    )*};
}

float_uniform!(f32, f64);

/// Run a property test: `case` once for each seed in `0..cases`, on a
/// generator seeded from that index. A failing case names its seed, which
/// reproduces it.
pub fn each_seed(cases: u64, mut case: impl FnMut(&mut Rng)) {
    for seed in 0..cases {
        let mut rng = Rng::seed_from_u64(seed);
        let run = std::panic::AssertUnwindSafe(|| case(&mut rng));
        if let Err(payload) = std::panic::catch_unwind(run) {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            panic!("case with seed {seed} (of {cases}) failed: {msg}");
        }
    }
}

/// A seedable generator for random tensors.
#[derive(Debug)]
pub struct TensorRng {
    rng: Rng,
}

impl TensorRng {
    /// Create from a 64-bit seed. Equal seeds yield equal streams.
    pub fn seed_from_u64(seed: u64) -> TensorRng {
        TensorRng { rng: Rng::seed_from_u64(seed) }
    }

    fn check_float(dtype: DType) -> Result<()> {
        if !dtype.is_float() {
            return Err(TensorError::DTypeMismatch {
                expected: "a float dtype".to_string(),
                got: dtype,
            });
        }
        Ok(())
    }

    /// Standard-normal samples scaled to `mean + stddev * z` (Box–Muller).
    ///
    /// # Errors
    /// Non-float `dtype`.
    pub fn normal(
        &mut self,
        dtype: DType,
        shape: impl Into<Shape>,
        mean: f64,
        stddev: f64,
    ) -> Result<TensorData> {
        Self::check_float(dtype)?;
        let shape = shape.into();
        let n = shape.num_elements();
        let mut vals = Vec::with_capacity(n);
        while vals.len() < n {
            let u1 = self.rng.range(f64::MIN_POSITIVE..1.0);
            let u2 = self.rng.f64();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            vals.push(mean + stddev * r * theta.cos());
            if vals.len() < n {
                vals.push(mean + stddev * r * theta.sin());
            }
        }
        Ok(TensorData::from_f64_vec(dtype, vals, shape))
    }

    /// Normal samples re-drawn until within two standard deviations, like
    /// `tf.truncated_normal` (used by classic initializers).
    ///
    /// # Errors
    /// Non-float `dtype`.
    pub fn truncated_normal(
        &mut self,
        dtype: DType,
        shape: impl Into<Shape>,
        mean: f64,
        stddev: f64,
    ) -> Result<TensorData> {
        Self::check_float(dtype)?;
        let shape = shape.into();
        let n = shape.num_elements();
        let mut vals = Vec::with_capacity(n);
        while vals.len() < n {
            // Inline Box–Muller; rejection keeps |z| <= 2.
            let u1 = self.rng.range(f64::MIN_POSITIVE..1.0);
            let u2 = self.rng.f64();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            for z in [r * theta.cos(), r * theta.sin()] {
                if z.abs() <= 2.0 && vals.len() < n {
                    vals.push(mean + stddev * z);
                }
            }
        }
        Ok(TensorData::from_f64_vec(dtype, vals, shape))
    }

    /// Uniform samples in `[low, high)`.
    ///
    /// # Errors
    /// Non-float `dtype` or `low >= high`.
    pub fn uniform(
        &mut self,
        dtype: DType,
        shape: impl Into<Shape>,
        low: f64,
        high: f64,
    ) -> Result<TensorData> {
        Self::check_float(dtype)?;
        if low >= high {
            return Err(TensorError::InvalidArgument(format!(
                "uniform range [{low}, {high}) is empty"
            )));
        }
        let shape = shape.into();
        let n = shape.num_elements();
        let vals: Vec<f64> = (0..n).map(|_| self.rng.range(low..high)).collect();
        Ok(TensorData::from_f64_vec(dtype, vals, shape))
    }

    /// Uniform integer samples in `[low, high)`.
    ///
    /// # Errors
    /// Non-integer `dtype` or an empty range.
    pub fn uniform_int(
        &mut self,
        dtype: DType,
        shape: impl Into<Shape>,
        low: i64,
        high: i64,
    ) -> Result<TensorData> {
        if !dtype.is_int() {
            return Err(TensorError::DTypeMismatch {
                expected: "an integer dtype".to_string(),
                got: dtype,
            });
        }
        if low >= high {
            return Err(TensorError::InvalidArgument(format!(
                "uniform range [{low}, {high}) is empty"
            )));
        }
        let shape = shape.into();
        let n = shape.num_elements();
        let vals: Vec<f64> = (0..n).map(|_| self.rng.range(low..high) as f64).collect();
        Ok(TensorData::from_f64_vec(dtype, vals, shape))
    }

    /// Bernoulli(keep_prob) mask scaled by `1/keep_prob` — the dropout mask.
    ///
    /// # Errors
    /// Non-float dtype or `keep_prob` outside `(0, 1]`.
    pub fn dropout_mask(
        &mut self,
        dtype: DType,
        shape: impl Into<Shape>,
        keep_prob: f64,
    ) -> Result<TensorData> {
        Self::check_float(dtype)?;
        if !(keep_prob > 0.0 && keep_prob <= 1.0) {
            return Err(TensorError::InvalidArgument(format!(
                "keep_prob {keep_prob} must be in (0, 1]"
            )));
        }
        let shape = shape.into();
        let n = shape.num_elements();
        let scale = 1.0 / keep_prob;
        let vals: Vec<f64> =
            (0..n).map(|_| if self.rng.bool(keep_prob) { scale } else { 0.0 }).collect();
        Ok(TensorData::from_f64_vec(dtype, vals, shape))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first draws of every kind for seeds 0, 1 and 7, each kind from a
    /// fresh generator. Random initialization, the figures and the
    /// benchmark's bitwise checks all depend on these streams.
    #[test]
    fn stream_golden() {
        let seeds = [0u64, 1, 7];
        let words: [[u64; 4]; 3] = [
            [0x99ec5f36cb75f2b4, 0xbf6e1f784956452a, 0x1a5f849d4933e6e0, 0x6aa594f1262d2d2c],
            [0xb3f2af6d0fc710c5, 0x853b559647364cea, 0x92f89756082a4514, 0x642e1c7bc266a3a7],
            [0xb358faf74ef9765a, 0x475c3d964f482cd2, 0xd6f1d349952c7996, 0xfb2938731e807240],
        ];
        let unit_f64: [[u64; 4]; 3] = [
            [0x3fe33d8be6d96ebe, 0x3fe7edc3ef092ac8, 0x3fba5f849d4933e0, 0x3fdaa9653c498b4a],
            [0x3fe67e55eda1f8e2, 0x3fe0a76ab2c8e6c9, 0x3fe25f12eac10548, 0x3fd90b871ef099a8],
            [0x3fe66b1f5ee9df2e, 0x3fd1d70f6593d20a, 0x3feade3a6932a58f, 0x3fef65270e63d00e],
        ];
        let unit_f32: [[u32; 4]; 3] = [
            [0x3f19ec5f, 0x3f3f6e1f, 0x3dd2fc20, 0x3ed54b28],
            [0x3f33f2af, 0x3f053b55, 0x3f12f897, 0x3ec85c38],
            [0x3f3358fa, 0x3e8eb87a, 0x3f56f1d3, 0x3f7b2938],
        ];
        let bools: [[u8; 8]; 3] =
            [[0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1, 1, 0], [0, 0, 0, 0, 0, 0, 1, 1]];
        let ints: [[i64; 6]; 3] =
            [[3, -3, -1, -1, 4, -3], [-4, 5, 3, 6, 6, 5], [1, -3, 1, -1, 3, 0]];
        let sizes: [[usize; 6]; 3] = [[7, 8, 5, 6, 5, 7], [6, 9, 7, 9, 4, 9], [3, 9, 4, 4, 9, 8]];
        let floats: [[u64; 4]; 3] = [
            [0x4000cf62f9b65bb0, 0x4001fb70fbc24ab2, 0x3ff9a5f849d4933e, 0x3ffeaa594f1262d2],
            [0x40019f957b687e38, 0x400029daacb239b2, 0x400097c4bab04152, 0x3ffe42e1c7bc266a],
            [0x40019ac7d7ba77cc, 0x3ffc75c3d964f482, 0x4002b78e9a4ca964, 0x4003d949c398f404],
        ];
        for (k, seed) in seeds.into_iter().enumerate() {
            let mut r = Rng::seed_from_u64(seed);
            assert_eq!(words[k].map(|_| r.u64()), words[k], "u64, seed {seed}");
            let mut r = Rng::seed_from_u64(seed);
            assert_eq!(unit_f64[k].map(|_| r.f64().to_bits()), unit_f64[k], "f64, seed {seed}");
            let mut r = Rng::seed_from_u64(seed);
            assert_eq!(unit_f32[k].map(|_| r.f32().to_bits()), unit_f32[k], "f32, seed {seed}");
            let mut r = Rng::seed_from_u64(seed);
            assert_eq!(bools[k].map(|_| r.bool(0.25) as u8), bools[k], "bool(0.25), seed {seed}");
            let mut r = Rng::seed_from_u64(seed);
            assert_eq!(ints[k].map(|_| r.range(-5i64..7)), ints[k], "-5..7, seed {seed}");
            let mut r = Rng::seed_from_u64(seed);
            assert_eq!(sizes[k].map(|_| r.range(3usize..=9)), sizes[k], "3..=9, seed {seed}");
            let mut r = Rng::seed_from_u64(seed);
            let drawn = floats[k].map(|_| r.range(1.5f64..2.5).to_bits());
            assert_eq!(drawn, floats[k], "1.5..2.5, seed {seed}");
        }
    }

    #[test]
    fn draws_respect_bounds() {
        let mut r = Rng::seed_from_u64(4);
        for _ in 0..1000 {
            assert!((0.0..1.0).contains(&r.f64()));
            assert!((0.0..1.0).contains(&r.f32()));
            assert!((-5..7).contains(&r.range(-5i64..7)));
            assert_eq!(r.range(2usize..=2), 2);
            assert!((1.5..2.5).contains(&r.range(1.5f64..2.5)));
        }
        let hits = (0..10_000).filter(|_| r.bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits={hits}");
    }

    #[test]
    #[should_panic(expected = "case with seed 3 (of 10) failed: seed was 3")]
    fn each_seed_names_the_failing_seed() {
        let mut seed = 0;
        each_seed(10, |_| {
            assert!(seed != 3, "seed was {seed}");
            seed += 1;
        });
    }

    #[test]
    fn seeded_streams_reproduce() {
        let mut a = TensorRng::seed_from_u64(42);
        let mut b = TensorRng::seed_from_u64(42);
        let ta = a.normal(DType::F32, [16], 0.0, 1.0).unwrap();
        let tb = b.normal(DType::F32, [16], 0.0, 1.0).unwrap();
        assert_eq!(ta, tb);
        let mut c = TensorRng::seed_from_u64(43);
        let tc = c.normal(DType::F32, [16], 0.0, 1.0).unwrap();
        assert_ne!(ta, tc);
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let mut rng = TensorRng::seed_from_u64(7);
        let t = rng.normal(DType::F64, [10_000], 2.0, 3.0).unwrap();
        let v = t.to_f64_vec();
        let mean: f64 = v.iter().sum::<f64>() / v.len() as f64;
        let var: f64 = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / v.len() as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean={mean}");
        assert!((var.sqrt() - 3.0).abs() < 0.1, "std={}", var.sqrt());
    }

    #[test]
    fn truncated_normal_bounded() {
        let mut rng = TensorRng::seed_from_u64(1);
        let t = rng.truncated_normal(DType::F32, [1000], 0.0, 1.0).unwrap();
        assert!(t.to_f64_vec().iter().all(|v| v.abs() <= 2.0 + 1e-6));
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = TensorRng::seed_from_u64(9);
        let t = rng.uniform(DType::F64, [1000], -1.0, 1.0).unwrap();
        assert!(t.to_f64_vec().iter().all(|&v| (-1.0..1.0).contains(&v)));
        assert!(rng.uniform(DType::F64, [1], 1.0, 1.0).is_err());
        assert!(rng.uniform(DType::I32, [1], 0.0, 1.0).is_err());
    }

    #[test]
    fn uniform_int_in_range() {
        let mut rng = TensorRng::seed_from_u64(9);
        let t = rng.uniform_int(DType::I64, [100], 0, 10).unwrap();
        assert!(t.to_i64_vec().iter().all(|&v| (0..10).contains(&v)));
        assert!(rng.uniform_int(DType::F32, [1], 0, 10).is_err());
    }

    #[test]
    fn dropout_mask_values() {
        let mut rng = TensorRng::seed_from_u64(3);
        let m = rng.dropout_mask(DType::F32, [1000], 0.8).unwrap();
        let v = m.to_f64_vec();
        assert!(v.iter().all(|&x| x == 0.0 || (x - 1.25).abs() < 1e-6));
        let kept = v.iter().filter(|&&x| x != 0.0).count();
        assert!((700..900).contains(&kept), "kept={kept}");
        assert!(rng.dropout_mask(DType::F32, [1], 0.0).is_err());
    }
}
