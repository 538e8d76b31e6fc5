//! A host loop of small staged calls: embedding, then an LSTM cell called
//! once per position under one tape, then a dense head. Phase 1 calls the
//! eager cell, phase 2 a staged cell, so the only thing that differs is
//! about 14 tiny `Func` calls per step (cache probe, argument binding,
//! `call_grad`): `core` used the opposite way to l2hmc.

use super::{trace_and_call, Batches, Model, Phase2, TrainPair, TrainParts, Trainer};
use crate::rng::{i64_tensor, Rng};
use std::sync::Arc;
use tf_eager::nn::layers::Dense;
use tf_eager::nn::losses::softmax_cross_entropy;
use tf_eager::nn::rnn::{Embedding, LstmCell, LstmState};
use tf_eager::nn::{Activation, Initializer, Layer};
use tf_eager::{api, function, ConcreteFunction, DType, Func, RuntimeError, Tensor, Variable};

pub const BATCH: usize = 32;
const VOCAB: usize = 32;
const EMBED: usize = 16;
const HIDDEN: usize = 32;
pub const LENGTHS: [usize; 4] = [8, 12, 16, 20];
const LEARNING_RATE: f64 = 5e-3;

pub struct SequenceModel {
    embedding: Embedding,
    cell: Arc<LstmCell>,
    head: Dense,
    /// `Some` in the staged twin: the cell as a `Func`.
    staged_cell: Option<Func>,
}

fn stage_cell(cell: &Arc<LstmCell>, name: &str) -> Func {
    let cell = cell.clone();
    function(name, move |args| {
        let tensor = |i: usize| {
            args[i].as_tensor().cloned().ok_or_else(|| RuntimeError::Internal("tensor".into()))
        };
        let state = LstmState { h: tensor(1)?, c: tensor(2)? };
        let (out, next) = cell.step(&tensor(0)?, &state)?;
        Ok(vec![out, next.h, next.c])
    })
}

impl Model for SequenceModel {
    /// `batch` is `(ids [batch, time], labels [batch])`. The time loop is
    /// the host's, so every length reuses the one cell.
    fn loss(&self, batch: &[Tensor]) -> Result<Tensor, RuntimeError> {
        let time = batch[0].shape()?.dim(1);
        let embedded = self.embedding.lookup(&batch[0])?;
        let mut state = self.cell.zero_state(BATCH);
        for t in 0..time {
            let x = api::squeeze(&api::slice(&embedded, &[0, t as i64, 0], &[-1, 1, -1])?, &[1])?;
            state = match &self.staged_cell {
                Some(cell) => {
                    let mut out = cell.call_tensors(&[&x, &state.h, &state.c])?;
                    let c = out.remove(2);
                    LstmState { h: out.remove(1), c }
                }
                None => self.cell.step(&x, &state)?.1,
            };
        }
        softmax_cross_entropy(&self.head.call(&state.h, true)?, &batch[1])
    }

    fn variables(&self) -> Vec<Variable> {
        let mut v = self.embedding.variables();
        v.extend(self.cell.variables());
        v.extend(self.head.variables());
        v
    }

    /// The function this workload stages is the cell: `(x, h, c)`.
    fn first_call_args(_: &mut Batches) -> Result<Vec<Tensor>, String> {
        Ok(vec![
            api::zeros(DType::F32, [BATCH, EMBED]),
            api::zeros(DType::F32, [BATCH, HIDDEN]),
            api::zeros(DType::F32, [BATCH, HIDDEN]),
        ])
    }

    fn first_call(
        twin: &Arc<Trainer<Self>>,
        args: &[Tensor],
    ) -> Result<Arc<ConcreteFunction>, String> {
        trace_and_call(&stage_cell(&twin.model.cell, "lstm_cell_fresh"), args)
    }
}

fn model(seed: u64, staged: bool) -> Arc<Trainer<SequenceModel>> {
    let init = &mut Initializer::seeded(seed);
    let embedding = Embedding::new(VOCAB, EMBED, init);
    let cell = Arc::new(LstmCell::new(EMBED, HIDDEN, init));
    let head = Dense::new(HIDDEN, 2, Activation::Linear, init);
    let staged_cell = staged.then(|| stage_cell(&cell, "lstm_cell"));
    Trainer::new(SequenceModel { embedding, cell, head, staged_cell }, LEARNING_RATE)
}

pub fn build(seed: u64) -> Result<TrainPair<SequenceModel>, String> {
    let mut rng = Rng::new(seed);
    let mut step = 0usize;
    TrainPair::new(TrainParts {
        examples: BATCH,
        // 0.07 s a set-up.
        setups: 15,
        eager: model(seed, false),
        staged: model(seed, true),
        phase2: Phase2::InsideModel,
        // Lengths cycle, so the staged cell sees every length under one
        // signature. The label is whether the last token is in the lower
        // half of the vocabulary.
        batches: Box::new(move || {
            let time = LENGTHS[step % LENGTHS.len()];
            step += 1;
            let ids: Vec<i64> = (0..BATCH * time).map(|_| rng.below(VOCAB as u64) as i64).collect();
            let labels: Vec<i64> =
                ids.chunks(time).map(|row| i64::from(row[time - 1] < VOCAB as i64 / 2)).collect();
            vec![i64_tensor(ids, &[BATCH, time]), i64_tensor(labels, &[BATCH])]
        }),
        eval_batches: 1,
        seed,
    })
}
