//! Shared corpus machinery for the differential suites
//! (`exec_differential.rs`, `pass_pipeline.rs`): seeded random-graph
//! generators, the eager reference interpreter, corpora biased toward the
//! optimizer's rewrite patterns, and a graph-level shrinker that persists
//! failing graphs as Graphviz artifacts.
//!
//! Every generator is seeded, so any failure reproduces from its case
//! number; `TFE_FUZZ_CASES` scales corpus sizes without editing tests.
#![allow(dead_code)] // each test binary links a different subset

use rand::{Rng, SeedableRng};
use std::sync::Arc;
use tf_eager::graph::{GraphBuilder, GraphFunction, Node, NodeId, TensorRef};
use tfe_ops::{Attrs, SymShape};
use tfe_tensor::{DType, Shape, TensorData};

/// Corpus size: `TFE_FUZZ_CASES` when set (one knob for CI smoke runs vs.
/// overnight soaks), otherwise the suite's default.
pub fn fuzz_cases(default: u64) -> u64 {
    std::env::var("TFE_FUZZ_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

pub fn known(dims: &[usize]) -> SymShape {
    SymShape::known(&Shape::new(dims.to_vec()))
}

/// One value available to the generator: its graph reference plus its
/// concrete shape.
#[derive(Clone)]
pub struct Avail {
    pub tref: TensorRef,
    pub dims: Vec<usize>,
}

pub const UNARY: &[&str] = &["tanh", "sigmoid", "relu", "neg", "sin", "cos"];
pub const BINARY: &[&str] = &["add", "sub", "mul", "maximum", "minimum"];

/// Register a tiny callee for `dims` and return its name. The body
/// (`tanh(a) * 2 + 0.5`) keeps values bounded so towers of nested calls
/// stay well-conditioned.
pub fn register_inner(tag: &str, dims: &[usize]) -> (String, (String, String)) {
    let name = format!("diff_inner_{tag}");
    let mut b = GraphBuilder::new(&name);
    let a = b.placeholder(DType::F64, known(dims)).unwrap();
    let t = b.add_node("tanh", vec![a], Attrs::new()).unwrap()[0];
    let two = b.constant(Arc::new(TensorData::scalar(2.0f64))).unwrap();
    let m = b.add_node("mul", vec![t, two], Attrs::new()).unwrap()[0];
    let half = b.constant(Arc::new(TensorData::scalar(0.5f64))).unwrap();
    let s = b.add_node("add", vec![m, half], Attrs::new()).unwrap()[0];
    let f = b.finish(vec![s], 0);
    let sig = tfe_ops::catalog::encode_sig(&f.output_sigs());
    tfe_runtime::context::library().insert(f);
    (name, sig)
}

/// Register then/else branches for `dims` (relu vs neg) and return names
/// plus the shared output signature.
pub fn register_branches(tag: &str, dims: &[usize]) -> (String, String, (String, String)) {
    let mk = |name: &str, op: &str| {
        let mut b = GraphBuilder::new(name);
        let a = b.placeholder(DType::F64, known(dims)).unwrap();
        let r = b.add_node(op, vec![a], Attrs::new()).unwrap()[0];
        let f = b.finish(vec![r], 0);
        let sig = tfe_ops::catalog::encode_sig(&f.output_sigs());
        tfe_runtime::context::library().insert(f);
        sig
    };
    let then_name = format!("diff_then_{tag}");
    let else_name = format!("diff_else_{tag}");
    let sig = mk(&then_name, "relu");
    mk(&else_name, "neg");
    (then_name, else_name, sig)
}

/// Register the cond/body pair of a counter loop over `(count, x)` with `x`
/// of `dims`: it runs while `count < trips`, and each trip maps `x` to
/// `sin(x)` (bounded, so towers of loops stay well-conditioned).
pub fn register_counter_loop(tag: &str, dims: &[usize], trips: f64) -> (String, String) {
    let state = |b: &mut GraphBuilder| {
        let c = b.placeholder(DType::F64, known(&[])).unwrap();
        (c, b.placeholder(DType::F64, known(dims)).unwrap())
    };
    let cond_name = format!("diff_loop_cond_{tag}");
    let mut b = GraphBuilder::new(&cond_name);
    let (c, _x) = state(&mut b);
    let limit = b.constant(Arc::new(TensorData::scalar(trips))).unwrap();
    let go = b.add_node("less", vec![c, limit], Attrs::new()).unwrap()[0];
    tfe_runtime::context::library().insert(b.finish(vec![go], 0));

    let body_name = format!("diff_loop_body_{tag}");
    let mut b = GraphBuilder::new(&body_name);
    let (c, x) = state(&mut b);
    let one = b.constant(Arc::new(TensorData::scalar(1.0f64))).unwrap();
    let next = b.add_node("add", vec![c, one], Attrs::new()).unwrap()[0];
    let y = b.add_node("sin", vec![x], Attrs::new()).unwrap()[0];
    tfe_runtime::context::library().insert(b.finish(vec![next, y], 0));
    (cond_name, body_name)
}

/// A `while_loop` node over `(0, x)` that makes `trips` trips of the loop
/// registered by [`register_counter_loop`]; returns the loop's `x` output.
pub fn counter_loop(
    b: &mut GraphBuilder,
    tag: &str,
    x: &Avail,
    trips: f64,
    attrs: Attrs,
) -> TensorRef {
    let (cond_fn, body_fn) = register_counter_loop(tag, &x.dims, trips);
    let zero = b.constant(Arc::new(TensorData::scalar(0.0f64))).unwrap();
    let attrs = attrs.with("cond_fn", cond_fn).with("body_fn", body_fn);
    b.add_node("while_loop", vec![zero, x.tref], attrs).unwrap()[1]
}

/// Id of one registered pure host closure (`x -> tanh(x)`, any shape), the
/// same for every graph so the corpus does not grow the host-fn table.
pub fn pure_host_fn() -> i64 {
    static ID: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *ID.get_or_init(|| {
        tfe_runtime::context::register_host_fn(Arc::new(|xs: &[tf_eager::Tensor]| {
            Ok(vec![tfe_runtime::api::tanh(&xs[0])?])
        }))
    }) as i64
}

/// Generate one random graph: a handful of F64 placeholders, then a
/// seeded walk over op kinds (every structural op among them), always
/// returning the most recent value plus one random survivor.
pub fn generate(seed: u64) -> (GraphFunction, Vec<Vec<usize>>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed * 7919 + 13);
    let mut b = GraphBuilder::new(&format!("diff_case_{seed}"));
    let input_shapes: Vec<Vec<usize>> = vec![vec![2, 3], vec![3, 2], vec![4], vec![]];
    let mut pool: Vec<Avail> = Vec::new();
    for dims in &input_shapes {
        let t = b.placeholder(DType::F64, known(dims)).unwrap();
        pool.push(Avail { tref: t, dims: dims.clone() });
    }
    let steps = rng.gen_range(4usize..14);
    for step in 0..steps {
        let kind = rng.gen_range(0u32..13);
        let pick = rng.gen_range(0usize..pool.len());
        let a = pool[pick].clone();
        match kind {
            // Elementwise unary (weighted: the bread and butter).
            0..=2 => {
                let op = UNARY[rng.gen_range(0usize..UNARY.len())];
                let t = b.add_node(op, vec![a.tref], Attrs::new()).unwrap()[0];
                pool.push(Avail { tref: t, dims: a.dims });
            }
            // Elementwise binary over same-shaped (or scalar) operands.
            3..=4 => {
                let mates: Vec<&Avail> =
                    pool.iter().filter(|c| c.dims == a.dims || c.dims.is_empty()).collect();
                let m = mates[rng.gen_range(0usize..mates.len())].clone();
                let op = BINARY[rng.gen_range(0usize..BINARY.len())];
                let t = b.add_node(op, vec![a.tref, m.tref], Attrs::new()).unwrap()[0];
                pool.push(Avail { tref: t, dims: a.dims });
            }
            // Matmul over compatible rank-2 pairs.
            5 => {
                let pairs: Vec<(Avail, Avail)> = pool
                    .iter()
                    .flat_map(|x| {
                        pool.iter()
                            .filter(|y| {
                                x.dims.len() == 2 && y.dims.len() == 2 && x.dims[1] == y.dims[0]
                            })
                            .map(|y| (x.clone(), y.clone()))
                            .collect::<Vec<_>>()
                    })
                    .collect();
                if pairs.is_empty() {
                    continue;
                }
                let (x, y) = pairs[rng.gen_range(0usize..pairs.len())].clone();
                let t = b.add_node("matmul", vec![x.tref, y.tref], Attrs::new()).unwrap()[0];
                pool.push(Avail { tref: t, dims: vec![x.dims[0], y.dims[1]] });
            }
            // Reduce the last axis away.
            6 => {
                if a.dims.is_empty() {
                    continue;
                }
                let op = if rng.gen_bool(0.5) { "reduce_sum" } else { "reduce_mean" };
                let axis = (a.dims.len() - 1) as i64;
                let t =
                    b.add_node(op, vec![a.tref], Attrs::new().with("axes", vec![axis])).unwrap()[0];
                pool.push(Avail { tref: t, dims: a.dims[..a.dims.len() - 1].to_vec() });
            }
            // Split along an even leading axis; both halves join the pool.
            7 => {
                if a.dims.is_empty() || !a.dims[0].is_multiple_of(2) {
                    continue;
                }
                let parts = b
                    .add_node(
                        "split",
                        vec![a.tref],
                        Attrs::new().with("num", 2i64).with("axis", 0i64),
                    )
                    .unwrap();
                let mut half = a.dims.clone();
                half[0] /= 2;
                for p in parts {
                    pool.push(Avail { tref: p, dims: half.clone() });
                }
            }
            // Nested call.
            8 => {
                let (name, (d, s)) = register_inner(&format!("{seed}_{step}"), &a.dims);
                let t = b
                    .add_node(
                        "call",
                        vec![a.tref],
                        Attrs::new()
                            .with("function", name)
                            .with("out_dtypes", d)
                            .with("out_shapes", s),
                    )
                    .unwrap()[0];
                pool.push(Avail { tref: t, dims: a.dims });
            }
            // Data-dependent cond: predicate is a reduction of a live value.
            9 => {
                let scalars: Vec<&Avail> = pool.iter().filter(|c| c.dims.is_empty()).collect();
                let gate = scalars[rng.gen_range(0usize..scalars.len())].tref;
                let zero = b.constant(Arc::new(TensorData::scalar(0.0f64))).unwrap();
                let pred = b.add_node("greater", vec![gate, zero], Attrs::new()).unwrap()[0];
                let (then_name, else_name, (d, s)) =
                    register_branches(&format!("{seed}_{step}"), &a.dims);
                let t = b
                    .add_node(
                        "cond",
                        vec![pred, a.tref],
                        Attrs::new()
                            .with("then_fn", then_name)
                            .with("else_fn", else_name)
                            .with("out_dtypes", d)
                            .with("out_shapes", s),
                    )
                    .unwrap()[0];
                pool.push(Avail { tref: t, dims: a.dims });
            }
            // Bounded counter loop; its counter output is never read.
            10 => {
                let trips = rng.gen_range(0u32..4) as f64;
                let t = counter_loop(&mut b, &format!("{seed}_{step}"), &a, trips, Attrs::new());
                pool.push(Avail { tref: t, dims: a.dims });
            }
            // Escape to a (pure) host closure.
            11 => {
                let (d, s) = tfe_ops::catalog::encode_sig(&[(DType::F64, known(&a.dims))]);
                let attrs = Attrs::new()
                    .with("fn_id", pure_host_fn())
                    .with("out_dtypes", d)
                    .with("out_shapes", s);
                let t = b.add_node("host_func", vec![a.tref], attrs).unwrap()[0];
                pool.push(Avail { tref: t, dims: a.dims });
            }
            _ => {
                let attrs = Attrs::new().with("device", "/cpu:0");
                let t = b.add_node("copy", vec![a.tref], attrs).unwrap()[0];
                pool.push(Avail { tref: t, dims: a.dims });
            }
        }
    }
    let last = pool.last().unwrap().clone();
    let extra = pool[rng.gen_range(0usize..pool.len())].clone();
    let f = b.finish(vec![last.tref, extra.tref], 0);
    (f, input_shapes)
}

pub fn make_args(seed: u64, shapes: &[Vec<usize>]) -> Vec<Arc<TensorData>> {
    let mut rng = tfe_tensor::rng::TensorRng::seed_from_u64(seed ^ 0x5eed);
    shapes
        .iter()
        .map(|dims| Arc::new(rng.uniform(DType::F64, Shape::new(dims.clone()), -1.0, 1.0).unwrap()))
        .collect()
}

/// [`make_args`] with a `-0.0` first and a `+0.0` second in every tensor (a
/// scalar gets one or the other by `seed`): the inputs on which a rewrite
/// that is right up to the sign of zero shows.
pub fn make_signed_zero_args(seed: u64, shapes: &[Vec<usize>]) -> Vec<Arc<TensorData>> {
    make_args(seed, shapes)
        .iter()
        .map(|t| {
            let mut v = t.to_f64_vec();
            let zeros = if seed.is_multiple_of(2) { [-0.0, 0.0] } else { [0.0, -0.0] };
            for (x, z) in v.iter_mut().zip(zeros) {
                *x = z;
            }
            Arc::new(TensorData::from_vec(v, t.shape().clone()).unwrap())
        })
        .collect()
}

/// Run a generated graph as a chain of ops through the central dispatcher,
/// node by node in program order: eager ops on eager tensors, and inside a
/// trace the same nodes again (which makes any corpus graph a `function`
/// body).
pub fn replay(
    f: &GraphFunction,
    args: &[tf_eager::Tensor],
) -> Result<Vec<tf_eager::Tensor>, tf_eager::RuntimeError> {
    use std::collections::HashMap;
    let mut vals: HashMap<(usize, usize), tf_eager::Tensor> = HashMap::new();
    for (i, nid) in f.inputs.iter().enumerate() {
        vals.insert((nid.0, 0), args[i].clone());
    }
    for (id, node) in f.nodes.iter().enumerate() {
        match node.op.name() {
            "placeholder" => {}
            "const" => {
                let idx = node.attrs.int("value_index").expect("const index") as usize;
                vals.insert((id, 0), tf_eager::Tensor::from_data((*f.constants[idx]).clone()));
            }
            _ => {
                let ins: Vec<tf_eager::Tensor> =
                    node.inputs.iter().map(|r| vals[&(r.node.0, r.output)].clone()).collect();
                let outs = tfe_runtime::context::execute(node.op, &ins, node.attrs.clone())?;
                for (k, t) in outs.into_iter().enumerate() {
                    vals.insert((id, k), t);
                }
            }
        }
    }
    Ok(f.outputs.iter().map(|r| vals[&(r.node.0, r.output)].clone()).collect())
}

/// Interpret a generated graph as a chain of *eager* ops — the same kernels
/// over the same operands as the graph executors, but driven through
/// `context::execute` so the eager dispatch path (sync or async, per the
/// ambient mode) is what's under test.
pub fn eager_interpret(
    f: &GraphFunction,
    args: &[Arc<TensorData>],
) -> Result<Vec<Arc<TensorData>>, tf_eager::RuntimeError> {
    let args: Vec<tf_eager::Tensor> =
        args.iter().map(|a| tf_eager::Tensor::from_data((**a).clone())).collect();
    replay(f, &args)?.iter().map(tf_eager::Tensor::value).collect()
}

/// The stateful-graph generator shared by the graph-mode and async-eager
/// differentials: random interleavings of variable reads, writes, and
/// stateless math over `vars`, always ending on fresh reads so the final
/// state is observable.
pub fn generate_stateful(seed: u64, var_ids: &[i64]) -> GraphFunction {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed * 104729 + 7);
    let mut b = GraphBuilder::new(&format!("diff_stateful_{seed}"));
    let read_attrs = |vid: i64| {
        Attrs::new().with("var_id", vid).with("dtype", DType::F64).with("shape", Vec::<i64>::new())
    };
    let mut latest: Vec<TensorRef> = Vec::new();
    for _ in 0..rng.gen_range(6usize..16) {
        let vid = var_ids[rng.gen_range(0usize..var_ids.len())];
        match rng.gen_range(0u32..4) {
            0 | 1 => {
                let r = b.add_node("read_variable", vec![], read_attrs(vid)).unwrap()[0];
                latest.push(r);
            }
            2 if !latest.is_empty() => {
                let src = latest[rng.gen_range(0usize..latest.len())];
                let t = b.add_node("tanh", vec![src], Attrs::new()).unwrap()[0];
                b.add_node("assign_add", vec![t], Attrs::new().with("var_id", vid)).unwrap();
            }
            _ if !latest.is_empty() => {
                let x = latest[rng.gen_range(0usize..latest.len())];
                let y = latest[rng.gen_range(0usize..latest.len())];
                let s = b.add_node("add", vec![x, y], Attrs::new()).unwrap()[0];
                latest.push(s);
            }
            _ => {
                let r = b.add_node("read_variable", vec![], read_attrs(vid)).unwrap()[0];
                latest.push(r);
            }
        }
    }
    let finals: Vec<TensorRef> = var_ids
        .iter()
        .map(|&vid| b.add_node("read_variable", vec![], read_attrs(vid)).unwrap()[0])
        .collect();
    b.finish(finals, 0)
}

// ---------------------------------------------------------------------------
// Corpora biased toward the optimizer's rewrite patterns. The plain
// `generate` corpus rarely produces `x*1` or back-to-back stores, so the
// pass-level differential also fuzzes graphs built to trip each rewrite —
// and asserts the rewrite counters actually fired across the corpus.
// ---------------------------------------------------------------------------

/// A random graph dense in algebraic-identity shapes: `x*1`, `x+0`,
/// `x-0`, `x/1` (with the constant on either legal side), `identity`
/// chains, double transposes, transposes feeding matmul, and
/// `shape_of`/`rank_of`/`size_of` over statically-known shapes — all
/// interleaved with ordinary math so rewrites have live neighborhoods.
pub fn generate_algebraic(seed: u64) -> (GraphFunction, Vec<Vec<usize>>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed * 6151 + 3);
    let mut b = GraphBuilder::new(&format!("alg_case_{seed}"));
    let input_shapes: Vec<Vec<usize>> = vec![vec![2, 3], vec![3, 3], vec![]];
    let mut pool: Vec<Avail> = Vec::new();
    for dims in &input_shapes {
        let t = b.placeholder(DType::F64, known(dims)).unwrap();
        pool.push(Avail { tref: t, dims: dims.clone() });
    }
    let mut meta: Vec<TensorRef> = Vec::new();
    for _ in 0..rng.gen_range(6usize..18) {
        let kind = rng.gen_range(0u32..10);
        let a = pool[rng.gen_range(0usize..pool.len())].clone();
        match kind {
            // Identity-element binary: the constant sits on whichever side
            // the op allows, so both candidate orders get exercised. A zero
            // takes either sign: only one of them is the op's identity
            // (`x + -0.0`, `x - +0.0`), the other changes a `-0.0` in `x`.
            0..=3 => {
                let zero = if rng.gen_bool(0.5) { 0.0f64 } else { -0.0 };
                let (op, ident, either) = match rng.gen_range(0u32..4) {
                    0 => ("mul", 1.0f64, true),
                    1 => ("add", zero, true),
                    2 => ("sub", zero, false),
                    _ => ("div", 1.0, false),
                };
                let c = b.constant(Arc::new(TensorData::scalar(ident))).unwrap();
                let ins =
                    if either && rng.gen_bool(0.5) { vec![c, a.tref] } else { vec![a.tref, c] };
                let t = b.add_node(op, ins, Attrs::new()).unwrap()[0];
                pool.push(Avail { tref: t, dims: a.dims });
            }
            4 => {
                let t = b.add_node("identity", vec![a.tref], Attrs::new()).unwrap()[0];
                pool.push(Avail { tref: t, dims: a.dims });
            }
            // Double transpose: cancels to nothing under iteration.
            5..=6 => {
                if a.dims.len() != 2 {
                    continue;
                }
                let perm = Attrs::new().with("perm", vec![1i64, 0]);
                let inner = b.add_node("transpose", vec![a.tref], perm.clone()).unwrap()[0];
                let outer = b.add_node("transpose", vec![inner], perm).unwrap()[0];
                pool.push(Avail { tref: outer, dims: a.dims });
            }
            // Transpose feeding matmul: absorbed as `transpose_a`.
            7 => {
                if a.dims.len() != 2 {
                    continue;
                }
                let mates: Vec<&Avail> =
                    pool.iter().filter(|c| c.dims.len() == 2 && c.dims[0] == a.dims[0]).collect();
                if mates.is_empty() {
                    continue;
                }
                let m = mates[rng.gen_range(0usize..mates.len())].clone();
                let tr = b
                    .add_node("transpose", vec![a.tref], Attrs::new().with("perm", vec![1i64, 0]))
                    .unwrap()[0];
                let t = b.add_node("matmul", vec![tr, m.tref], Attrs::new()).unwrap()[0];
                pool.push(Avail { tref: t, dims: vec![a.dims[1], m.dims[1]] });
            }
            // Static metadata: folds to a constant in the pipeline.
            8 => {
                let op = ["shape_of", "rank_of", "size_of"][rng.gen_range(0usize..3)];
                let t = b.add_node(op, vec![a.tref], Attrs::new()).unwrap()[0];
                meta.push(t);
            }
            // Ordinary math keeps the rewrites embedded in live graphs.
            _ => {
                let op = UNARY[rng.gen_range(0usize..UNARY.len())];
                let t = b.add_node(op, vec![a.tref], Attrs::new()).unwrap()[0];
                pool.push(Avail { tref: t, dims: a.dims });
            }
        }
    }
    let last = pool.last().unwrap().clone();
    let extra = pool[rng.gen_range(0usize..pool.len())].clone();
    let mut outs = vec![last.tref, extra.tref];
    outs.extend(meta.into_iter().take(2));
    let f = b.finish(outs, 0);
    (f, input_shapes)
}

/// A stateful program biased toward dead stores: bursts of back-to-back
/// plain `assign`s to the same variable (all but the last are dead),
/// mixed with reads, read-modify-writes, and stateless math that must
/// pin the stores they observe. Ends on fresh reads of every variable so
/// final state stays observable.
pub fn generate_dead_store(seed: u64, var_ids: &[i64]) -> GraphFunction {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed * 31337 + 11);
    let mut b = GraphBuilder::new(&format!("dse_case_{seed}"));
    let read_attrs = |vid: i64| {
        Attrs::new().with("var_id", vid).with("dtype", DType::F64).with("shape", Vec::<i64>::new())
    };
    let mut latest: Vec<TensorRef> =
        vec![b.add_node("read_variable", vec![], read_attrs(var_ids[0])).unwrap()[0]];
    // A guaranteed clobbered store, so the corpus trips the pass on every
    // graph, not just in aggregate.
    for _ in 0..2 {
        let t = b.add_node("tanh", vec![latest[0]], Attrs::new()).unwrap()[0];
        b.add_node("assign", vec![t], Attrs::new().with("var_id", var_ids[0])).unwrap();
    }
    for _ in 0..rng.gen_range(8usize..20) {
        let vid = var_ids[rng.gen_range(0usize..var_ids.len())];
        match rng.gen_range(0u32..6) {
            // Burst of plain assigns: only the last one can live.
            0..=2 => {
                for _ in 0..rng.gen_range(2usize..4) {
                    let src = latest[rng.gen_range(0usize..latest.len())];
                    let v = b.add_node("tanh", vec![src], Attrs::new()).unwrap()[0];
                    b.add_node("assign", vec![v], Attrs::new().with("var_id", vid)).unwrap();
                }
            }
            3 => {
                let r = b.add_node("read_variable", vec![], read_attrs(vid)).unwrap()[0];
                latest.push(r);
            }
            // Read-modify-write: reads the variable, so it pins the store
            // before it even when a later assign clobbers the result.
            4 => {
                let src = latest[rng.gen_range(0usize..latest.len())];
                let t = b.add_node("sin", vec![src], Attrs::new()).unwrap()[0];
                b.add_node("assign_add", vec![t], Attrs::new().with("var_id", vid)).unwrap();
            }
            _ => {
                let x = latest[rng.gen_range(0usize..latest.len())];
                let y = latest[rng.gen_range(0usize..latest.len())];
                let s = b.add_node("add", vec![x, y], Attrs::new()).unwrap()[0];
                latest.push(s);
            }
        }
    }
    let finals: Vec<TensorRef> = var_ids
        .iter()
        .map(|&vid| b.add_node("read_variable", vec![], read_attrs(vid)).unwrap()[0])
        .collect();
    b.finish(finals, 0)
}

// ---------------------------------------------------------------------------
// Failure artifacts: the vendored proptest shim has no shrinking, so the
// differential suites shrink failing graphs themselves — prefix-truncate
// the (topologically ordered) node list and drop outputs while the
// property still fails — and persist the minimized graph as Graphviz dot
// so the panic message names a file, not a wall of text.
// ---------------------------------------------------------------------------

/// Shrink a failing graph: first try narrowing to a single output, then
/// find the shortest node-list prefix on which `still_fails` holds.
/// `still_fails` must be self-contained (reset any variable state it
/// touches); it is re-run once per candidate.
pub fn shrink_failing_graph(
    f: &GraphFunction,
    still_fails: &dyn Fn(&GraphFunction) -> bool,
) -> GraphFunction {
    let mut best = f.clone();
    if best.outputs.len() > 1 {
        for &out in best.outputs.clone().iter() {
            let mut cand = best.clone();
            cand.outputs = vec![out];
            if still_fails(&cand) {
                best = cand;
                break;
            }
        }
    }
    // Placeholders must survive (args bind to them positionally), so the
    // scan starts just past the last one.
    let min_keep = best.inputs.iter().map(|id| id.0 + 1).max().unwrap_or(0);
    for n in min_keep..best.nodes.len() {
        if let Some(cand) = prefix_graph(&best, n) {
            if still_fails(&cand) {
                best = cand;
                break;
            }
        }
    }
    best
}

/// The first `n` nodes of `f` as a standalone graph, returning the last
/// value-producing node. Sound because node inputs and control edges only
/// ever point backwards.
fn prefix_graph(f: &GraphFunction, n: usize) -> Option<GraphFunction> {
    let nodes: Vec<Node> = f.nodes[..n].to_vec();
    let idx =
        (0..n).rev().find(|&i| !nodes[i].outputs.is_empty() && nodes[i].op != "placeholder")?;
    let mut g = f.clone();
    g.nodes = nodes;
    g.outputs = vec![TensorRef::first(NodeId(idx))];
    Some(g)
}

/// Persist `f` as Graphviz dot in the temp dir and return the path — the
/// artifact a differential panic points at.
pub fn dot_artifact(f: &GraphFunction) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("tfe_fail_{}_{}.dot", std::process::id(), f.name));
    std::fs::write(&path, f.to_dot()).expect("write dot artifact");
    path
}
