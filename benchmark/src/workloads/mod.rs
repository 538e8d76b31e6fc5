//! The four workloads. Each has two phases that alternate in rounds; one
//! step of a phase is one operation. See README.md for why these four.

pub mod convnet;
pub mod dist;
pub mod l2hmc;
pub mod lstm;

use crate::spans;
use std::sync::Arc;
use tf_eager::nn::{Adam, Optimizer};
use tf_eager::{context, function, ConcreteFunction, Func, GradientTape, RuntimeError, Tensor};
use tf_eager::{Arg, Variable};

pub const NAMES: [&str; 4] =
    ["l2hmc_small_ops", "convnet_large_kernels", "lstm_host_loop", "dist_tcp_mlp"];

/// How many of a phase's first losses the set-up compares bitwise.
pub const CHECK_STEPS: usize = 5;

/// The loss must have fallen once a phase has trained this many steps;
/// below that (a smoke run) the check is reported as skipped.
pub const MIN_STEPS_FOR_LOSS_CHECK: u64 = 30;

/// Span names of the two phases' steps.
pub const STEP_SPANS: [&str; 2] = ["phase1_step", "phase2_step"];

#[derive(Clone, Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

pub trait Workload {
    /// Examples one step processes.
    fn examples(&self) -> f64;

    /// How many times a run sets this workload up: until 3 are done and
    /// 1.5 s are spent, at most 15 times, worked out once from the set-up
    /// time on the reference host. It is not left to each run's clock,
    /// because every set-up leaves memory behind: with the count moving
    /// between 5 and 6 on l2hmc and between 3 and 4 on dist, `peak_rss_mb`
    /// came in two groups 5% and 10% apart.
    fn setups(&self) -> usize;

    /// One operation of phase 0 or 1; returns its loss.
    fn step(&mut self, phase: usize) -> Result<f64, String>;

    /// Arguments for `first_call`, made outside its timing.
    fn first_call_args(&mut self) -> Result<Vec<Tensor>, String>;

    /// Make a fresh `Func` of the function this workload stages and call it
    /// once: trace, pass pipeline, plan, one execution.
    fn first_call(&mut self, args: &[Tensor]) -> Result<Arc<ConcreteFunction>, String>;

    /// Probes over this workload's own shapes (traced runs only): metric
    /// name to value.
    fn layer_probes(&mut self) -> Result<Probed, String>;

    /// The correctness checks the set-up ran.
    fn setup_checks(&self) -> Vec<Check>;

    /// The checks that need the timed cycles behind them. `steps` is how
    /// many operations each phase ran.
    fn final_checks(&mut self, steps: [u64; 2]) -> Vec<Check>;
}

pub fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    match name {
        "l2hmc_small_ops" => Ok(Box::new(l2hmc::build(seed)?)),
        "convnet_large_kernels" => Ok(Box::new(convnet::build(seed)?)),
        "lstm_host_loop" => Ok(Box::new(lstm::build(seed)?)),
        "dist_tcp_mlp" => Ok(Box::new(dist::build(seed)?)),
        other => Err(format!("unknown workload `{other}`; expected one of {NAMES:?}")),
    }
}

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Trace `f` for `args` and run the traced function once, to the end.
pub fn trace_and_call(f: &Func, args: &[Tensor]) -> Result<Arc<ConcreteFunction>, String> {
    let as_args: Vec<Arg> = args.iter().map(Arg::from).collect();
    let concrete = f.concrete_for(&as_args).map_err(err)?;
    for out in concrete.call(args).map_err(err)? {
        out.value().map_err(err)?;
    }
    Ok(concrete)
}

fn bits(losses: &[f64]) -> Vec<u64> {
    losses.iter().map(|l| l.to_bits()).collect()
}

pub fn bitwise_check(name: &str, a: &[f64], b: &[f64]) -> Check {
    Check {
        name: name.to_string(),
        ok: bits(a) == bits(b) && a.iter().all(|l| l.is_finite()),
        detail: format!("{a:?} vs {b:?}"),
    }
}

fn falls_check(name: &str, before: f64, after: f64, steps: u64) -> Check {
    if steps < MIN_STEPS_FOR_LOSS_CHECK {
        return Check {
            name: name.to_string(),
            ok: true,
            detail: format!("skipped: {steps} steps < {MIN_STEPS_FOR_LOSS_CHECK}"),
        };
    }
    Check {
        name: name.to_string(),
        ok: after.is_finite() && after < before,
        detail: format!("{before} -> {after} over {steps} steps"),
    }
}

/// Both phases' `loss_falls` checks, from the losses before the cycles and
/// `after(phase)` now.
pub fn falls_checks(
    before: [f64; 2],
    after: impl Fn(usize) -> Result<f64, String>,
    steps: [u64; 2],
) -> Vec<Check> {
    let names = ["loss_falls_phase1", "loss_falls_phase2"];
    (0..2)
        .map(|phase| match after(phase) {
            Ok(after) => falls_check(names[phase], before[phase], after, steps[phase]),
            Err(e) => Check { name: names[phase].to_string(), ok: false, detail: e },
        })
        .collect()
}

/// A model the three training workloads can share a step over.
pub trait Model: Send + Sync + Sized + 'static {
    fn loss(&self, batch: &[Tensor]) -> Result<Tensor, RuntimeError>;
    fn variables(&self) -> Vec<Variable>;

    /// Arguments for `first_call`, made outside its timing: one more batch,
    /// unless the function the workload stages takes something else.
    fn first_call_args(batches: &mut Batches) -> Result<Vec<Tensor>, String> {
        Ok(batches())
    }

    /// Make a fresh `Func` over the staged twin and call it once: the whole
    /// step, unless the workload stages something smaller.
    fn first_call(
        twin: &Arc<Trainer<Self>>,
        args: &[Tensor],
    ) -> Result<Arc<ConcreteFunction>, String> {
        trace_and_call(&twin.staged_step("fresh_step"), args)
    }

    /// Probes over this model's own shapes.
    fn probes() -> Result<Probed, String> {
        Ok(Vec::new())
    }
}

/// Model, optimizer and the one training step both phases run: loss, then
/// `gradient_vars`, then Adam. The same code runs eagerly and under a trace.
pub struct Trainer<M> {
    pub model: M,
    opt: Adam,
    vars: Vec<Variable>,
}

impl<M: Model> Trainer<M> {
    pub fn new(model: M, learning_rate: f64) -> Arc<Trainer<M>> {
        let vars = model.variables();
        Arc::new(Trainer { model, opt: Adam::new(learning_rate), vars })
    }

    pub fn train_step(&self, batch: &[Tensor]) -> Result<Tensor, RuntimeError> {
        let tape = GradientTape::new();
        let loss = spans::scope("forward", || self.model.loss(batch))?;
        let refs: Vec<&Variable> = self.vars.iter().collect();
        let grads = spans::scope("gradient_vars", || tape.gradient_vars(&loss, &refs))?;
        let pairs: Vec<(Tensor, Variable)> = grads
            .into_iter()
            .zip(&self.vars)
            .filter_map(|(g, v)| g.map(|g| (g, v.clone())))
            .collect();
        spans::scope("apply", || self.opt.apply(&pairs))?;
        Ok(loss)
    }

    /// The whole step as one staged function.
    pub fn staged_step(self: &Arc<Self>, name: &str) -> Func {
        let me = self.clone();
        function(name, move |args| {
            let batch: Vec<Tensor> = args.iter().filter_map(Arg::as_tensor).cloned().collect();
            Ok(vec![me.train_step(&batch)?])
        })
    }
}

/// What phase 2 of a training workload runs.
pub enum Phase2 {
    /// One staged function holding the whole step.
    WholeStep(Func),
    /// The eager step over a model that makes staged calls inside its loss.
    InsideModel,
}

pub type Batches = Box<dyn FnMut() -> Vec<Tensor>>;
/// Metric name and value, as a workload's own probes report them.
pub type Probed = Vec<(&'static str, f64)>;

/// The parts a training workload is put together from.
pub struct TrainParts<M> {
    pub examples: usize,
    pub setups: usize,
    pub eager: Arc<Trainer<M>>,
    pub staged: Arc<Trainer<M>>,
    pub phase2: Phase2,
    pub batches: Batches,
    /// How many fixed batches the loss is evaluated on: one where the loss
    /// is smooth, more where it is heavy-tailed (l2hmc).
    pub eval_batches: usize,
    pub seed: u64,
}

/// An eager model and its staged twin, built from the same seed.
pub struct TrainPair<M> {
    parts: TrainParts<M>,
    eval_batches: Vec<Vec<Tensor>>,
    eval_before: [f64; 2],
    checks: Vec<Check>,
}

impl<M: Model> TrainPair<M> {
    /// Finish set-up: take the evaluation loss both models start from, then
    /// compare the first losses of the two phases bitwise (this is also the
    /// first trace and the warm-up).
    pub fn new(mut parts: TrainParts<M>) -> Result<TrainPair<M>, String> {
        let eval_batches = (0..parts.eval_batches).map(|_| (parts.batches)()).collect();
        let first: Vec<Vec<Tensor>> = (0..CHECK_STEPS).map(|_| (parts.batches)()).collect();
        let seed = parts.seed;
        let mut pair = TrainPair { parts, eval_batches, eval_before: [0.0; 2], checks: Vec::new() };
        pair.eval_before = [pair.eval(0)?, pair.eval(1)?];
        let mut losses = [Vec::new(), Vec::new()];
        for (phase, out) in losses.iter_mut().enumerate() {
            context::set_random_seed(seed);
            for batch in &first {
                out.push(pair.run(phase, batch)?);
            }
        }
        pair.checks.push(bitwise_check("first_losses_bitwise_equal", &losses[0], &losses[1]));
        context::set_random_seed(seed ^ 0x7133);
        Ok(pair)
    }

    fn trainer(&self, phase: usize) -> &Arc<Trainer<M>> {
        [&self.parts.eager, &self.parts.staged][phase]
    }

    fn run(&self, phase: usize, batch: &[Tensor]) -> Result<f64, String> {
        let loss = match (phase, &self.parts.phase2) {
            (1, Phase2::WholeStep(f)) => {
                let refs: Vec<&Tensor> = batch.iter().collect();
                spans::scope("staged_call", || f.call_tensors(&refs)).map_err(err)?.remove(0)
            }
            _ => self.trainer(phase).train_step(batch).map_err(err)?,
        };
        loss.scalar_f64().map_err(err)
    }

    /// Loss of one phase's model on the fixed evaluation batches (their
    /// median), with the program's random stream at a fixed point, so before
    /// and after differ only by the training between them.
    fn eval(&self, phase: usize) -> Result<f64, String> {
        context::set_random_seed(self.parts.seed ^ 0xE7A1);
        let mut losses = Vec::new();
        for batch in &self.eval_batches {
            let loss = self.trainer(phase).model.loss(batch).map_err(err)?;
            losses.push(loss.scalar_f64().map_err(err)?);
        }
        Ok(crate::estimate::median(&losses))
    }
}

impl<M: Model> Workload for TrainPair<M> {
    fn examples(&self) -> f64 {
        self.parts.examples as f64
    }

    fn setups(&self) -> usize {
        self.parts.setups
    }

    fn step(&mut self, phase: usize) -> Result<f64, String> {
        spans::next_step();
        spans::scope(STEP_SPANS[phase], || {
            let batch = spans::scope("input", || (self.parts.batches)());
            self.run(phase, &batch)
        })
    }

    fn first_call_args(&mut self) -> Result<Vec<Tensor>, String> {
        M::first_call_args(&mut self.parts.batches)
    }

    fn first_call(&mut self, args: &[Tensor]) -> Result<Arc<ConcreteFunction>, String> {
        M::first_call(&self.parts.staged, args)
    }

    fn layer_probes(&mut self) -> Result<Probed, String> {
        M::probes()
    }

    fn setup_checks(&self) -> Vec<Check> {
        self.checks.clone()
    }

    fn final_checks(&mut self, steps: [u64; 2]) -> Vec<Check> {
        falls_checks(self.eval_before, |phase| self.eval(phase), steps)
    }
}
