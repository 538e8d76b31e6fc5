//! The harness's own input generator. Inputs are made from `--seed` here,
//! so the program only ever sees the generated tensors.

use tf_eager::{Shape, Tensor, TensorData};

/// SplitMix64: small, fast, and the same stream for the same seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Standard normal (Box–Muller, one value per call).
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    pub fn normal_vec(&mut self, n: usize, scale: f64) -> Vec<f32> {
        (0..n).map(|_| (self.normal() * scale) as f32).collect()
    }
}

pub fn f32_tensor(values: Vec<f32>, dims: &[usize]) -> Tensor {
    Tensor::from_data(TensorData::from_vec(values, Shape::from(dims.to_vec())).expect("dims match"))
}

pub fn i64_tensor(values: Vec<i64>, dims: &[usize]) -> Tensor {
    Tensor::from_data(TensorData::from_vec(values, Shape::from(dims.to_vec())).expect("dims match"))
}
