//! Paper Figure 3's shape at the large-kernel end: a small conv net whose
//! step is almost all im2col and gemm. Phase 1 eager, phase 2 staged.

use super::{Model, Phase2, Probed, TrainPair, TrainParts, Trainer};
use crate::rng::{f32_tensor, i64_tensor, Rng};
use std::sync::Arc;
use tf_eager::nn::layers::{Conv2d, Dense, Flatten, MaxPool2d};
use tf_eager::nn::losses::softmax_cross_entropy;
use tf_eager::nn::{Activation, Initializer, Layer, Sequential};
use tf_eager::{RuntimeError, Tensor, Variable};

pub const BATCH: usize = 32;
pub const SIDE: usize = 32;
pub const CHANNELS: usize = 3;
const CLASSES: usize = 10;
const LEARNING_RATE: f64 = 1e-3;

pub struct ConvNet(Sequential);

impl Model for ConvNet {
    fn loss(&self, batch: &[Tensor]) -> Result<Tensor, RuntimeError> {
        softmax_cross_entropy(&self.0.call(&batch[0], true)?, &batch[1])
    }

    fn variables(&self) -> Vec<Variable> {
        self.0.variables()
    }

    /// Forward and backward of the net's two convolutions at its own
    /// shapes, summed over the two layers.
    fn probes() -> Result<Probed, String> {
        use crate::probes::{per_call_ns, self_timed_ns};
        use std::hint::black_box;
        use tf_eager::{api, GradientTape};
        let mut rng = Rng::new(11);
        let mut forward_ns = 0.0;
        let mut backward_ns = 0.0;
        for (side, cin, cout) in [(SIDE, CHANNELS, 16), (SIDE / 2, 16, 32)] {
            let x = f32_tensor(
                rng.normal_vec(BATCH * side * side * cin, 1.0),
                &[BATCH, side, side, cin],
            );
            let f = f32_tensor(rng.normal_vec(9 * cin * cout, 0.1), &[3, 3, cin, cout]);
            let conv = || api::conv2d(&x, &f, (1, 1), "SAME").expect("conv2d probe");
            forward_ns += per_call_ns(|| {
                black_box(conv().value().expect("conv2d value"));
            });
            backward_ns += self_timed_ns(|| {
                let tape = GradientTape::new();
                tape.watch(&x);
                tape.watch(&f);
                let y = conv();
                let t = std::time::Instant::now();
                black_box(tape.gradient(&y, &[&x, &f]).expect("conv2d gradient"));
                t.elapsed()
            });
        }
        Ok(vec![
            ("tensor.conv2d_fwd_ms", forward_ns / 1e6),
            ("tensor.conv2d_bwd_ms", backward_ns / 1e6),
        ])
    }
}

fn net(seed: u64) -> Arc<Trainer<ConvNet>> {
    let init = &mut Initializer::seeded(seed);
    let conv = |cin, cout, init: &mut Initializer| {
        Conv2d::new(cin, cout, (3, 3), (1, 1), "SAME", Activation::Relu, true, init)
    };
    let pool = || MaxPool2d::new((2, 2), (2, 2), "VALID");
    let flat = (SIDE / 4) * (SIDE / 4) * 32;
    let model = Sequential::new()
        .push(conv(CHANNELS, 16, init))
        .push(pool())
        .push(conv(16, 32, init))
        .push(pool())
        .push(Flatten)
        .push(Dense::new(flat, 64, Activation::Relu, init))
        .push(Dense::new(64, CLASSES, Activation::Linear, init));
    Trainer::new(ConvNet(model), LEARNING_RATE)
}

pub fn build(seed: u64) -> Result<TrainPair<ConvNet>, String> {
    let staged = net(seed);
    let mut rng = Rng::new(seed);
    // An image is its class's template plus noise, so there is something to
    // learn and the loss can be checked to fall.
    let pixels = SIDE * SIDE * CHANNELS;
    let templates: Vec<Vec<f32>> = (0..CLASSES).map(|_| rng.normal_vec(pixels, 0.5)).collect();
    TrainPair::new(TrainParts {
        examples: BATCH,
        // 0.95 s a set-up.
        setups: 3,
        eager: net(seed),
        phase2: Phase2::WholeStep(staged.staged_step("convnet_step")),
        staged,
        batches: Box::new(move || {
            let labels: Vec<i64> = (0..BATCH).map(|_| rng.below(CLASSES as u64) as i64).collect();
            let mut images = Vec::with_capacity(BATCH * pixels);
            for &label in &labels {
                images.extend(templates[label as usize].iter().map(|t| t + rng.normal() as f32));
            }
            vec![f32_tensor(images, &[BATCH, SIDE, SIDE, CHANNELS]), i64_tensor(labels, &[BATCH])]
        }),
        eval_batches: 1,
        seed,
    })
}
