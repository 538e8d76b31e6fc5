//! The differential oracle: one driver runs every corpus graph through one
//! mode table, compares each mode with its reference bit for bit, and on
//! the first mismatch shrinks the graph and panics with a dot artifact.
//!
//! A [`Case`] is a graph, its arguments and its variables with their
//! initial values; [`run`] puts the variables back, runs the case in one
//! [`Mode`] and returns its [`Outcome`]. [`check`] runs a case in every mode
//! it is given. The reference of every mode is the raw graph on the serial
//! planner, except for a tape over the staged call, whose reference is the
//! same tape over eager replay.

use super::{
    dot_artifact, fuzz_cases, generate, generate_algebraic, generate_dead_store, generate_stateful,
    make_args, make_signed_zero_args, replay, same_bits, shrink_failing_graph, without_host_fns,
};
use std::sync::{Arc, OnceLock};
use tf_eager::dist::{Cluster, ClusterSpec, DistError, RemoteArg, TransportKind};
use tf_eager::encode::Value;
use tf_eager::graph::passes::{self, OptimizeOptions, OptimizeStats, PASS_NAMES};
use tf_eager::graph::serial;
use tf_eager::graph::{GraphFunction, Node};
use tf_eager::state::saved::{self, SavedError};
use tf_eager::{api, function, Arg, ExecMode, Func, GradientTape, Op, Params, RuntimeError};
use tf_eager::{DType, Tensor, TensorData, Variable};
use tfe_runtime::{context, executor};

/// One corpus graph, ready to run in any mode.
pub struct Case {
    pub graph: GraphFunction,
    pub args: Vec<Arc<TensorData>>,
    /// Every variable the graph touches, with the value each run starts from.
    pub variables: Vec<(Variable, Arc<TensorData>)>,
}

impl Case {
    /// The same arguments and variables around another graph: a shrinking
    /// candidate, or a planted divergence.
    pub fn with_graph(&self, graph: GraphFunction) -> Case {
        Case { graph, args: self.args.clone(), variables: self.variables.clone() }
    }
}

/// The seeded corpora of `tests/common`. Each has a default size, which
/// `TFE_FUZZ_CASES` replaces, and its row of the mode table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Corpus {
    /// [`generate`]: every structural op, `make_args` inputs, half f32.
    Stateless,
    /// [`generate_algebraic`] on inputs with signed zeros.
    Algebraic,
    /// [`generate_stateful`] over two variables.
    Stateful,
    /// [`generate_dead_store`] over two variables.
    DeadStore,
}

impl Corpus {
    /// How many cases to check.
    pub fn cases(self) -> u64 {
        fuzz_cases(match self {
            Corpus::Stateless => 120,
            Corpus::Algebraic => 60,
            Corpus::Stateful | Corpus::DeadStore => 40,
        })
    }

    /// Case `seed`.
    pub fn case(self, seed: u64) -> Case {
        let generator = match self {
            Corpus::Stateless => {
                let graph = generate(seed);
                return Case { args: make_args(seed, &graph), graph, variables: Vec::new() };
            }
            Corpus::Algebraic => {
                let graph = generate_algebraic(seed);
                let args = make_signed_zero_args(seed ^ 0xa19, &graph);
                return Case { args, graph, variables: Vec::new() };
            }
            Corpus::Stateful => generate_stateful,
            Corpus::DeadStore => generate_dead_store,
        };
        let vars: Vec<Variable> =
            (0..2).map(|k| Variable::new(TensorData::scalar(k as f64 + 1.0))).collect();
        let ids: Vec<i64> = vars.iter().map(|v| v.id() as i64).collect();
        let graph = generator(seed, &ids);
        let variables = vars.into_iter().map(|v| (v.clone(), v.peek())).collect();
        Case { graph, args: Vec::new(), variables }
    }

    /// The corpus' row of the mode table: what it runs besides the serial
    /// reference. Every corpus runs every optimizer config under every
    /// runner; the stateful rows have no staged, saved or remote mode yet.
    /// A test takes its modes from here ([`check_corpus`]).
    pub fn modes(self) -> Vec<Mode> {
        use Mode::*;
        let mut modes = match self {
            Corpus::Stateless => vec![
                Parallel,
                Eager,
                Staged,
                Saved,
                Dist(TransportKind::InProcess),
                Dist(TransportKind::Tcp),
            ],
            Corpus::Algebraic => vec![Parallel, Eager, Staged, Saved],
            Corpus::Stateful | Corpus::DeadStore => vec![Parallel, Eager],
        };
        for config in Config::all() {
            for runner in [Runner::Serial, Runner::Parallel, Runner::Eager] {
                modes.push(Optimized(config, runner));
            }
        }
        modes
    }
}

/// One way to run a case. Adding a mode is a variant here, its arm in
/// [`run`], and its place in the rows of [`Corpus::modes`] it applies to;
/// the test that checks it picks it from the row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// The raw graph on the serial planner: the reference.
    Serial,
    /// The raw graph on the parallel scheduler.
    Parallel,
    /// The nodes replayed as eager ops through `context::execute`: the
    /// same kernels over the same operands, through eager dispatch.
    Eager,
    /// The nodes replayed inside `function` (traced, optimized, fused),
    /// called twice: the trace, then a cache hit that must agree with it.
    Staged,
    /// The staged function exported to a bundle, through JSON text and the
    /// binary syntax, imported and called. A graph with a `host_func`
    /// exports its [`without_host_fns`] twin, after its own export refuses.
    Saved,
    /// The raw graph, called from a traced function that a one-worker
    /// cluster runs by name.
    Dist(TransportKind),
    /// The graph optimized under a config, then run by a runner.
    Optimized(Config, Runner),
    /// Gradients of a loss over the outputs under `n` nested tapes, the
    /// graph replayed eagerly: the reference of [`Mode::StagedTape`].
    EagerTape(usize),
    /// The same gradients with the forward as one staged call.
    StagedTape(usize),
}

impl Mode {
    /// What this mode is compared with.
    pub fn reference(self) -> Mode {
        match self {
            Mode::StagedTape(tapes) => Mode::EagerTape(tapes),
            _ => Mode::Serial,
        }
    }
}

/// An optimizer configuration: no rule, one rewrite family alone, every
/// simplification without the fusion lowering, or the default pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Config {
    None,
    Only(&'static str),
    Fixpoint,
    Fused,
}

impl Config {
    /// `none`, `only_<pass>` for each of [`PASS_NAMES`], `fixpoint`, `fused`.
    pub fn all() -> Vec<Config> {
        let only = PASS_NAMES.iter().map(|&pass| Config::Only(pass));
        std::iter::once(Config::None).chain(only).chain([Config::Fixpoint, Config::Fused]).collect()
    }

    pub fn options(self) -> OptimizeOptions {
        match self {
            Config::None => OptimizeOptions::none(),
            Config::Only(pass) => OptimizeOptions::only(pass),
            Config::Fixpoint => OptimizeOptions { fuse_elementwise: false, ..Default::default() },
            Config::Fused => OptimizeOptions::default(),
        }
    }
}

/// What runs an optimized graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Runner {
    Serial,
    Parallel,
    Eager,
}

/// Everything a run leaves: its outputs and every variable's final value.
#[derive(Debug)]
pub struct Values {
    pub outputs: Vec<Arc<TensorData>>,
    pub variables: Vec<Arc<TensorData>>,
}

/// A run's typed failure. `Check` is what the driver itself finds wrong: an
/// optimizer invariant, a bundle that does not parse back, a cache hit that
/// answers differently from the trace.
#[derive(Debug)]
pub enum Failure {
    Runtime(RuntimeError),
    Dist(DistError),
    Saved(SavedError),
    Check(String),
}

impl From<RuntimeError> for Failure {
    fn from(e: RuntimeError) -> Failure {
        Failure::Runtime(e)
    }
}

pub type Outcome = Result<Values, Failure>;

/// Reset the case's variables and run it in `mode`.
pub fn run(case: &Case, mode: Mode) -> Outcome {
    for (v, init) in &case.variables {
        v.restore((**init).clone()).expect("reset a variable");
    }
    let device = context::device_manager().host_cpu();
    let execute = |mode| executor::run_function(&case.graph, &case.args, &device, mode);
    let outputs = match mode {
        Mode::Serial => execute(ExecMode::SerialPlanned)?,
        Mode::Parallel => execute(ExecMode::Parallel)?,
        Mode::Eager => values(replay(&case.graph, &tensors(case))?)?,
        Mode::Staged => {
            let (f, args) = (staged(case), tensors(case));
            let first = values(f.call_tensors(&refs(&args))?)?;
            let hit = values(f.call_tensors(&refs(&args))?)?;
            if first.iter().zip(&hit).any(|(a, b)| !same_bits(a, b)) {
                return Err(Failure::Check(format!("trace {first:?}, cache hit {hit:?}")));
            }
            hit
        }
        Mode::Saved => {
            let args = tensors(case);
            let sig: Vec<Arg> = args.iter().map(Arg::from).collect();
            let mut concrete = staged(case).concrete_for(&sig)?;
            let mut exported = saved::export_to_value(&concrete);
            if case.graph.nodes.iter().any(|n| n.op == Op::HostFunc) {
                // A host closure is host code, not trace: a bundle cannot
                // carry it, and export must refuse, typed. What is saved and
                // loaded is the twin that runs the closure's `tanh` in its
                // place, whose bits are the reference's.
                match exported {
                    Err(SavedError::Export(e)) if e.contains("host closure") => {}
                    other => {
                        return Err(Failure::Check(format!("exported a host closure: {other:?}")))
                    }
                }
                let twin = case.with_graph(without_host_fns(&case.graph));
                concrete = staged(&twin).concrete_for(&sig)?;
                exported = saved::export_to_value(&concrete);
            }
            let text = exported.map_err(Failure::Saved)?.to_json();
            let bundle = Value::parse(&text)
                .and_then(|v| Value::from_bytes(&v.to_bytes()))
                .map_err(|e| Failure::Check(format!("bundle does not parse back: {e}")))?;
            let loaded = saved::import_from_value(&bundle).map_err(Failure::Saved)?;
            // What was loaded is what was saved, node for node, callees
            // included: the builder the decoder replays through derives
            // what the optimizer recorded.
            let closure = |f| serial::closure(f).map_err(|e| Failure::Check(e.to_string()));
            let (saved, loaded_set) = (closure(&concrete.function)?, closure(loaded.entry())?);
            if saved.len() != loaded_set.len() {
                let (s, l) = (saved.len(), loaded_set.len());
                return Err(Failure::Check(format!("saved {s} functions, loaded {l}")));
            }
            for (s, l) in saved.iter().zip(&loaded_set) {
                if let Some(why) = structural_divergence(s, l) {
                    return Err(Failure::Check(format!("loaded `{}`: {why}", l.name)));
                }
            }
            values(loaded.call(&refs(&args))?)?
        }
        Mode::Dist(kind) => {
            // A worker runs a traced function by name: here one whose body
            // is a single `call` of the case graph, which the node holds.
            let args = tensors(case);
            let concrete =
                called(case).concrete_for(&args.iter().map(Arg::from).collect::<Vec<_>>())?;
            let args: Vec<RemoteArg> = args.into_iter().map(RemoteArg::Local).collect();
            let out = cluster(kind).call_function(DIST_DEVICE, &concrete.name, &args);
            let fetched: Result<Vec<Tensor>, DistError> =
                out.and_then(|out| out.iter().map(|r| r.fetch()).collect());
            values(fetched.map_err(Failure::Dist)?)?
        }
        Mode::Optimized(config, runner) => {
            let graph = optimize(&case.graph, config)?.graph;
            let runner = match runner {
                Runner::Serial => Mode::Serial,
                Runner::Parallel => Mode::Parallel,
                Runner::Eager => Mode::Eager,
            };
            return run(&case.with_graph(graph), runner);
        }
        Mode::EagerTape(tapes) => gradients(case, tapes, None)?,
        Mode::StagedTape(tapes) => gradients(case, tapes, Some(&staged(case)))?,
    };
    let variables = case.variables.iter().map(|(v, _)| v.peek()).collect();
    Ok(Values { outputs, variables })
}

/// What an optimized graph answers with: the runtime's own kernels fold
/// its constants.
pub fn evaluator(node: &Node, ins: &[Arc<TensorData>]) -> Result<Vec<TensorData>, String> {
    tfe_runtime::kernels::run_kernel(node.op, &node.params, ins).map_err(|e| e.to_string())
}

/// One config's optimization of a graph, with what the optimizer did.
#[derive(Debug)]
pub struct Optimization {
    pub config: Config,
    pub graph: GraphFunction,
    pub stats: OptimizeStats,
}

/// Optimize `graph` under `config`, holding the optimizer to its
/// invariants: it converges, takes one round unless a round dropped a
/// store, and leaves a constant pool of exactly the constants its nodes
/// name.
pub fn optimize(graph: &GraphFunction, config: Config) -> Result<Optimization, Failure> {
    let (graph, stats) = passes::optimize_with_stats(graph, &config.options(), Some(&evaluator));
    let consts = graph.nodes.iter().filter(|n| n.op == Op::Const).count();
    let broken = if !stats.converged {
        format!("did not converge in {} rounds", stats.sweeps)
    } else if stats.rewrites_for("eliminate_dead_stores") == 0 && stats.sweeps != 1 {
        format!("{} rounds with no store dropped", stats.sweeps)
    } else if graph.constants.len() != consts {
        format!("{} pool entries for {consts} const nodes", graph.constants.len())
    } else {
        return Ok(Optimization { config, graph, stats });
    };
    Err(Failure::Check(format!("{config:?}: {broken}")))
}

/// The optimization under `config` in a report of [`check`].
pub fn optimized(report: &[Optimization], config: Config) -> &Optimization {
    report.iter().find(|o| o.config == config).unwrap_or_else(|| panic!("{config:?} not checked"))
}

/// Run `case` in every mode of `modes` and compare each with its
/// reference; on a mismatch shrink the graph against that mode and panic
/// with the artifact. Returns every config's optimization of the case, for
/// the tests that count rewrites.
pub fn check(corpus: Corpus, seed: u64, case: &Case, modes: &[Mode]) -> Vec<Optimization> {
    check_with(corpus, seed, case, modes, &run)
}

/// [`check`] with `run` in place of [`run`].
pub fn check_with(
    corpus: Corpus,
    seed: u64,
    case: &Case,
    modes: &[Mode],
    run: &dyn Fn(&Case, Mode) -> Outcome,
) -> Vec<Optimization> {
    let serial = run(case, Mode::Serial);
    let mut report: Vec<Optimization> = Vec::new();
    for &mode in modes {
        let reference = mode.reference();
        let other = (reference != Mode::Serial).then(|| run(case, reference));
        let want = other.as_ref().unwrap_or(&serial);
        if let Err(e) = want {
            let fails = |c: &Case| run(c, reference).is_err();
            fail(corpus, seed, case, reference, &format!("failed: {e:?}"), &fails);
        }
        if let Some(why) = divergence(case, mode, want, &run(case, mode)) {
            let diverges = |c: &Case| {
                let want = run(c, reference);
                want.is_ok() && divergence(c, mode, &want, &run(c, mode)).is_some()
            };
            fail(corpus, seed, case, mode, &why, &diverges);
        }
        if let Mode::Optimized(config, _) = mode {
            if !report.iter().any(|o| o.config == config) {
                report.push(optimize(&case.graph, config).expect("optimized above"));
            }
        }
    }
    // Bytes and back, raw and under every config: the decoder's builder
    // derives what the tracer's and the optimizer's recorded.
    for graph in std::iter::once(&case.graph).chain(report.iter().map(|o| &o.graph)) {
        let text = serial::function_to_value(graph).to_json();
        let decoded = Value::parse(&text)
            .map_err(|e| e.to_string())
            .and_then(|v| serial::function_from_value(&v).map_err(|e| e.to_string()))
            .map(|back| structural_divergence(graph, &back));
        if let Err(why) | Ok(Some(why)) = decoded {
            panic!("corpus {corpus:?} seed {seed}: decoded graph: {why}\n{}", graph.dump());
        }
    }
    report
}

/// Where `got` departs from `want` node for node — op, inputs, output
/// signature, statefulness, control edges — and in its inputs, outputs and
/// captures, or `None`. Attributes are not compared: a load renames
/// variables, and a name read back is not the handle that was written.
pub fn structural_divergence(want: &GraphFunction, got: &GraphFunction) -> Option<String> {
    let shape =
        |f: &GraphFunction| (f.nodes.len(), f.inputs.clone(), f.outputs.clone(), f.num_captures);
    if shape(want) != shape(got) {
        return Some(format!(
            "(nodes, inputs, outputs, captures) {:?}, want {:?}",
            shape(got),
            shape(want)
        ));
    }
    want.nodes.iter().zip(&got.nodes).enumerate().find_map(|(i, (w, g))| {
        let same = w.op == g.op
            && w.inputs == g.inputs
            && w.outputs == g.outputs
            && w.stateful == g.stateful
            && w.control_inputs == g.control_inputs;
        (!same).then(|| format!("node {i} is {g:?}, want {w:?}"))
    })
}

/// Check every case of `corpus` in the modes of its row that `pick`
/// takes, handing each case and its optimizations to `tally`.
pub fn check_corpus(
    corpus: Corpus,
    pick: impl Fn(&Mode) -> bool,
    mut tally: impl FnMut(&Case, &[Optimization]),
) {
    tf_eager::init();
    let modes: Vec<Mode> = corpus.modes().into_iter().filter(pick).collect();
    assert!(!modes.is_empty(), "no mode of the {corpus:?} row picked");
    for seed in 0..corpus.cases() {
        let case = corpus.case(seed);
        tally(&case, &check(corpus, seed, &case, &modes));
    }
}

/// Where `got` departs from `want`, or `None` when they agree: the same
/// bits ([`same_bits`]) in every output and every final variable, or the
/// same error.
pub fn divergence(case: &Case, mode: Mode, want: &Outcome, got: &Outcome) -> Option<String> {
    let (want, got) = match (want, got) {
        (Ok(want), Ok(got)) => (want, got),
        (Err(w), Err(g)) if format!("{w:?}") == format!("{g:?}") => return None,
        _ => return Some(format!("want {want:?}, got {got:?}")),
    };
    if want.outputs.len() != got.outputs.len() {
        return Some(format!("{} outputs, want {}", got.outputs.len(), want.outputs.len()));
    }
    // The one tolerance. A `host_func` gradient re-runs its closure (§4.7),
    // so a second derivative through it forms `a·f′ + b·f′` where eager,
    // which differentiates the one closure body, forms `(a + b)·f′`: equal
    // up to rounding. The first derivatives (one per argument) and every
    // other value are bitwise.
    let host_func = case.graph.nodes.iter().any(|n| n.op == Op::HostFunc);
    let bitwise = match mode {
        Mode::StagedTape(tapes) if tapes > 1 && host_func => case.args.len(),
        _ => want.outputs.len(),
    };
    for (k, (w, g)) in want.outputs.iter().zip(&got.outputs).enumerate() {
        if !(same_bits(w, g) || k >= bitwise && close(w, g)) {
            return Some(format!("output {k}: want {w:?}, got {g:?}"));
        }
    }
    for (k, (w, g)) in want.variables.iter().zip(&got.variables).enumerate() {
        if !same_bits(w, g) {
            return Some(format!("variable {k}: want {w:?}, got {g:?}"));
        }
    }
    None
}

/// Same dtype and shape, every element within 1e-12 relative in f64, and
/// within 1e-5 in f32, where the two sums round at f32's precision.
fn close(a: &TensorData, b: &TensorData) -> bool {
    let tolerance = if a.dtype() == DType::F32 { 1e-5 } else { 1e-12 };
    a.dtype() == b.dtype()
        && a.shape() == b.shape()
        && a.to_f64_vec()
            .iter()
            .zip(b.to_f64_vec())
            .all(|(x, y)| (x - y).abs() <= tolerance * x.abs().max(1.0))
}

/// Shrink `case` while `still_fails`, write the artifact and panic naming
/// the corpus, the seed, the mode and what went wrong in it.
fn fail(
    corpus: Corpus,
    seed: u64,
    case: &Case,
    mode: Mode,
    why: &str,
    still_fails: &dyn Fn(&Case) -> bool,
) -> ! {
    let shrunk = shrink_failing_graph(&case.graph, &|g| still_fails(&case.with_graph(g.clone())));
    let path = dot_artifact(&shrunk);
    panic!(
        "corpus {corpus:?} seed {seed} mode {mode:?}: {why}\n\
         shrunk failing graph ({} of {} nodes) written to {}\n{}",
        shrunk.nodes.len(),
        case.graph.nodes.len(),
        path.display(),
        shrunk.dump()
    );
}

fn tensors(case: &Case) -> Vec<Tensor> {
    case.args.iter().map(|a| Tensor::from_data((**a).clone())).collect()
}

fn refs(tensors: &[Tensor]) -> Vec<&Tensor> {
    tensors.iter().collect()
}

fn values(tensors: Vec<Tensor>) -> Result<Vec<Arc<TensorData>>, RuntimeError> {
    tensors.iter().map(Tensor::value).collect()
}

/// The case's graph as a `function` body: its nodes replayed in the trace.
fn staged(case: &Case) -> Func {
    let graph = Arc::new(case.graph.clone());
    function(&format!("{}_staged", graph.name), move |args| {
        let tensors: Vec<Tensor> =
            args.iter().map(|a| a.as_tensor().cloned().expect("a tensor argument")).collect();
        replay(&graph, &tensors)
    })
}

/// A `function` whose body is one `call` of the case's graph.
fn called(case: &Case) -> Func {
    let graph = Arc::new(case.graph.clone());
    let params = Params::Call {
        function: graph.handle(),
        concrete: None,
        stateful: graph.is_stateful(),
        outputs: graph.output_sigs(),
        var_ids: Vec::new(),
    };
    function(&format!("{}_called", graph.name), move |args| {
        let tensors: Vec<Tensor> =
            args.iter().map(|a| a.as_tensor().cloned().expect("a tensor argument")).collect();
        context::execute(Op::Call, &tensors, params.clone())
    })
}

const DIST_DEVICE: &str = "/job:oracle/task:0/device:CPU:0";

/// One one-worker cluster per transport, started on first use and kept for
/// the test binary's life.
fn cluster(kind: TransportKind) -> &'static Cluster {
    static IN_PROCESS: OnceLock<Cluster> = OnceLock::new();
    static TCP: OnceLock<Cluster> = OnceLock::new();
    let spec = || ClusterSpec::new().with_job("oracle", 1).expect("cluster spec");
    match kind {
        TransportKind::InProcess => IN_PROCESS.get_or_init(|| Cluster::start(&spec())),
        TransportKind::Tcp => TCP.get_or_init(|| Cluster::start_tcp(&spec()).expect("tcp cluster")),
    }
}

/// Gradients of `Σ(first output²) + Σ(each other output)` with respect to
/// every argument under `tapes` nested tapes, the forward replayed eagerly
/// or called through `staged`. Squaring the first output keeps two outputs
/// from getting the same `dy`. Under two tapes, the second derivatives of
/// the gradients' squared norm follow the first.
fn gradients(
    case: &Case,
    tapes: usize,
    staged: Option<&Func>,
) -> Result<Vec<Arc<TensorData>>, RuntimeError> {
    let args = tensors(case);
    let outer = (tapes > 1).then(GradientTape::new);
    let tape = GradientTape::new();
    for a in &args {
        if let Some(outer) = &outer {
            outer.watch(a);
        }
        tape.watch(a);
    }
    let outs = match staged {
        Some(f) => f.call_tensors(&refs(&args))?,
        None => replay(&case.graph, &args)?,
    };
    let mut loss = api::reduce_sum(&api::square(&outs[0])?, &[], false)?;
    for out in &outs[1..] {
        loss = api::add(&loss, &api::reduce_sum(out, &[], false)?)?;
    }
    let sources = refs(&args);
    let grads = tape.gradient(&loss, &sources)?;
    // An argument the outputs do not depend on has no gradient eagerly and
    // a zero one through the call, whose record names every argument.
    let dense = |grads: &[Option<Tensor>]| -> Result<Vec<Arc<TensorData>>, RuntimeError> {
        grads
            .iter()
            .zip(&args)
            .map(|(g, a)| match g {
                Some(g) => g.value(),
                None => Ok(Arc::new(TensorData::zeros(a.dtype(), a.shape()?))),
            })
            .collect()
    };
    let mut out = dense(&grads)?;
    if let Some(outer) = outer {
        // A zero gradient adds a `+0.0` to a sum of squares, which leaves it.
        let mut norm = api::zeros(loss.dtype(), tfe_tensor::Shape::scalar());
        for g in grads.iter().flatten() {
            norm = api::add(&norm, &api::reduce_sum(&api::square(g)?, &[], false)?)?;
        }
        out.extend(dense(&outer.gradient(&norm, &sources)?)?);
    }
    Ok(out)
}
