//! Shared corpus machinery for the differential suites: seeded
//! random-graph generators, corpora biased toward the optimizer's rewrite
//! patterns, the eager replay of a graph, a graph-level shrinker that
//! persists failing graphs as Graphviz artifacts, and [`oracle`], the one
//! driver every corpus suite runs through.
//!
//! The driver's mode table, by corpus ([`oracle::Corpus::modes`]); each
//! mode is compared bit for bit with the raw graph on the serial planner:
//!
//! | corpus | cases | modes |
//! |---|---|---|
//! | stateless ([`generate`]; f32 on even seeds, f64 on odd) | 120 | parallel, eager, staged, saved, dist in-process and TCP |
//! | algebraic ([`generate_algebraic`], signed zeros) | 60 | parallel, eager, staged, saved |
//! | stateful ([`generate_stateful`]), outputs and variables | 40 | parallel, eager |
//! | dead-store ([`generate_dead_store`]), outputs and variables | 40 | parallel, eager |
//!
//! and every corpus also runs each optimizer config (`none`, `only_<pass>`
//! for each pass, `fixpoint`, `fused`) under the serial, parallel and eager
//! runners. Every graph a check sees, raw and under each of its configs,
//! also goes to bytes and back and must decode node for node as it was
//! ([`oracle::structural_divergence`]); the saved mode holds its loaded
//! bundle to the same. The stateless graphs whose every op has a gradient
//! also run a tape over the staged call against a tape over eager replay,
//! under one tape and under two.
//!
//! A suite is a call to [`oracle::check_corpus`] that picks modes from a
//! corpus' row: `exec_differential` takes parallel and eager on the raw
//! stateless and stateful graphs, `dist_differential` the cluster,
//! `pass_pipeline` the optimizer configs on those two rows, and
//! `differential` the algebraic and dead-store rows whole, the tapes, and
//! every stateless mode the others do not take.
//!
//! To add a mode: a variant of [`oracle::Mode`], its arm in
//! [`oracle::run`], and the variant in the rows of
//! [`oracle::Corpus::modes`] it applies to; on the stateless, algebraic
//! and dead-store rows `differential` picks it up, on the stateful row a
//! test picks it. Nothing else changes: the comparison, the shrinking and
//! the artifact are the driver's.
//!
//! Every generator is seeded, so any failure reproduces from its case
//! number; `TFE_FUZZ_CASES` scales corpus sizes without editing tests.
#![allow(dead_code)] // each test binary links a different subset

pub mod oracle;

use std::sync::Arc;
use tf_eager::graph::program::{Instr, Program};
use tf_eager::graph::sequencing::{classify, SequencingState};
use tf_eager::graph::{GraphBuilder, GraphFunction, Node, NodeId, TensorRef};
use tfe_ops::{Attrs, Handle, SymShape};
use tfe_tensor::elementwise::{binary, unary};
use tfe_tensor::rng::Rng;
use tfe_tensor::{DType, Shape, TensorData, TensorError};

/// Corpus size: `TFE_FUZZ_CASES` when set (one knob for CI smoke runs vs.
/// overnight soaks), otherwise the suite's default. Anything but a positive
/// integer is refused: zero cases would pass without testing anything.
pub fn fuzz_cases(default: u64) -> u64 {
    match std::env::var("TFE_FUZZ_CASES") {
        Err(std::env::VarError::NotPresent) => default,
        Ok(v) => match v.parse() {
            Ok(n) if n > 0 => n,
            _ => panic!("TFE_FUZZ_CASES={v:?}: expected a positive integer"),
        },
        Err(e) => panic!("TFE_FUZZ_CASES: {e}"),
    }
}

/// What a bitwise comparison compares: dtype, dims and every element's
/// little-endian bytes. Unlike values widened to `f64`, this tells dtypes
/// and shapes apart, keeps an `i64` beyond 2^53 and a signalling NaN.
pub type Bits = (DType, Vec<usize>, Vec<u8>);

/// The [`Bits`] of `t`.
pub fn bits(t: &TensorData) -> Bits {
    (t.dtype(), t.shape().dims().to_vec(), t.to_le_bytes())
}

/// The [`Bits`] of an eager tensor's value.
pub fn tensor_bits(t: &tf_eager::Tensor) -> Bits {
    bits(&t.value().unwrap())
}

/// Same dtype, same shape, same bit pattern in every element.
pub fn same_bits(a: &TensorData, b: &TensorData) -> bool {
    bits(a) == bits(b)
}

/// How many nodes of `f` run `op`.
pub fn count_op(f: &GraphFunction, op: &str) -> usize {
    f.nodes.iter().filter(|n| n.op == op).count()
}

/// The sequencing model's control edges for `nodes` in program order,
/// recomputed from scratch: the reference a graph's recorded edges are
/// checked against.
pub fn control_edges(nodes: &[Node]) -> Vec<Vec<NodeId>> {
    let mut state = SequencingState::new();
    let edges = nodes.iter().enumerate().map(|(i, n)| {
        let data: Vec<NodeId> = n.inputs.iter().map(|t| t.node).collect();
        state.sequence(NodeId(i), classify(n.op, &n.params, n.stateful), &data)
    });
    edges.collect()
}

pub fn known(dims: &[usize]) -> SymShape {
    SymShape::known(&Shape::new(dims.to_vec()))
}

/// A scalar constant of `dtype`.
fn scalar(dtype: DType, value: f64) -> Arc<TensorData> {
    Arc::new(TensorData::fill_f64(dtype, Shape::scalar(), value))
}

/// The per-instruction reference for fused programs: one whole-tensor
/// `elementwise` call per instruction, exactly what the unfused graph
/// nodes run, over every shape and dtype those kernels take. The tile
/// executor (`CompiledProgram::eval`) is tested against it.
pub fn per_instruction(
    program: &Program,
    inputs: &[&TensorData],
) -> tfe_tensor::Result<TensorData> {
    let mut regs: Vec<TensorData> = Vec::with_capacity(program.instrs.len());
    for instr in &program.instrs {
        let value = match *instr {
            Instr::Input(k) => (*inputs.get(k).ok_or_else(|| {
                TensorError::InvalidArgument(format!("fused program input {k} missing"))
            })?)
            .clone(),
            Instr::Unary(op, a) => unary(&regs[a], op)?,
            Instr::Binary(op, a, b) => binary(&regs[a], &regs[b], op)?,
        };
        regs.push(value);
    }
    Ok(regs.swap_remove(program.output))
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

/// A tiny callee for `dims` of `dtype`, as the handle a `call` node holds,
/// and its output signature. The body (`tanh(a) * 2 + 0.5`) keeps values
/// bounded so towers of nested calls stay well-conditioned.
pub fn inner_callee(tag: &str, dims: &[usize], dtype: DType) -> (Handle, (String, String)) {
    let mut b = GraphBuilder::new(&format!("diff_inner_{tag}"));
    let a = b.placeholder(dtype, known(dims)).unwrap();
    let t = b.add_node("tanh", vec![a], Attrs::new()).unwrap()[0];
    let two = b.constant(scalar(dtype, 2.0)).unwrap();
    let m = b.add_node("mul", vec![t, two], Attrs::new()).unwrap()[0];
    let half = b.constant(scalar(dtype, 0.5)).unwrap();
    let s = b.add_node("add", vec![m, half], Attrs::new()).unwrap()[0];
    let f = b.finish(vec![s], 0);
    let sig = tfe_ops::encode_sig(&f.output_sigs());
    (Arc::new(f).handle(), sig)
}

/// Then/else branches for `dims` of `dtype` (relu vs neg), as handles, plus
/// the shared output signature.
pub fn branch_pair(tag: &str, dims: &[usize], dtype: DType) -> (Handle, Handle, (String, String)) {
    let mk = |name: String, op: &str| {
        let mut b = GraphBuilder::new(&name);
        let a = b.placeholder(dtype, known(dims)).unwrap();
        let r = b.add_node(op, vec![a], Attrs::new()).unwrap()[0];
        Arc::new(b.finish(vec![r], 0))
    };
    let then_fn = mk(format!("diff_then_{tag}"), "relu");
    let else_fn = mk(format!("diff_else_{tag}"), "neg");
    let sig = tfe_ops::encode_sig(&then_fn.output_sigs());
    (then_fn.handle(), else_fn.handle(), sig)
}

/// The cond/body pair of a counter loop over `(count, x)`, both of `dtype`,
/// with `x` of `dims`, as handles: it runs while `count < trips`, and each
/// trip maps `x` to `sin(x)` (bounded, so towers of loops stay
/// well-conditioned).
pub fn counter_loop_pair(tag: &str, dims: &[usize], dtype: DType, trips: f64) -> (Handle, Handle) {
    let state = |b: &mut GraphBuilder| {
        let c = b.placeholder(dtype, known(&[])).unwrap();
        (c, b.placeholder(dtype, known(dims)).unwrap())
    };
    let mut b = GraphBuilder::new(&format!("diff_loop_cond_{tag}"));
    let (c, _x) = state(&mut b);
    let limit = b.constant(scalar(dtype, trips)).unwrap();
    let go = b.add_node("less", vec![c, limit], Attrs::new()).unwrap()[0];
    let cond_fn = Arc::new(b.finish(vec![go], 0));

    let mut b = GraphBuilder::new(&format!("diff_loop_body_{tag}"));
    let (c, x) = state(&mut b);
    let one = b.constant(scalar(dtype, 1.0)).unwrap();
    let next = b.add_node("add", vec![c, one], Attrs::new()).unwrap()[0];
    let y = b.add_node("sin", vec![x], Attrs::new()).unwrap()[0];
    let body_fn = Arc::new(b.finish(vec![next, y], 0));
    (cond_fn.handle(), body_fn.handle())
}

/// A `while_loop` node over `(0, x)`, `x` of `dtype`, that makes `trips`
/// trips of the loop [`counter_loop_pair`] builds; returns the loop's `x`
/// output.
pub fn counter_loop(
    b: &mut GraphBuilder,
    tag: &str,
    x: &Avail,
    dtype: DType,
    trips: f64,
    attrs: Attrs,
) -> TensorRef {
    let (cond_fn, body_fn) = counter_loop_pair(tag, &x.dims, dtype, trips);
    let zero = b.constant(scalar(dtype, 0.0)).unwrap();
    let attrs = attrs.with("cond_fn", cond_fn).with("body_fn", body_fn);
    b.add_node("while_loop", vec![zero, x.tref], attrs).unwrap()[1]
}

/// One pure host closure (`x -> tanh(x)`, any shape), as the handle a
/// `host_func` node holds: the same for every graph.
pub fn pure_host_fn() -> Handle {
    static F: std::sync::OnceLock<Handle> = std::sync::OnceLock::new();
    F.get_or_init(|| {
        tfe_runtime::context::host_fn_handle(Arc::new(|xs: &[tf_eager::Tensor]| {
            Ok(vec![tfe_runtime::api::tanh(&xs[0])?])
        }))
    })
    .clone()
}

/// `graph` with each `host_func` node replaced by the `tanh` its closure
/// ([`pure_host_fn`]) runs: the same values, and a graph a bundle can carry.
/// Only [`replay`] runs the result; it ignores the sequencing edges that
/// pointed at the stateful `host_func`.
pub fn without_host_fns(graph: &GraphFunction) -> GraphFunction {
    let tanh = tf_eager::Op::from_name("tanh").expect("tanh is an op");
    let mut twin = graph.clone();
    for node in twin.nodes.iter_mut().filter(|n| n.op == tf_eager::Op::HostFunc) {
        node.op = tanh;
        node.params = tf_eager::Params::None;
        node.stateful = false;
        node.control_inputs.clear();
    }
    twin
}

/// The dtype of [`generate`]'s case `seed`: f32 on even seeds, whose fused
/// groups run on tiles, f64 on odd ones, which fusion leaves unfused.
pub fn case_dtype(seed: u64) -> DType {
    if seed.is_multiple_of(2) {
        DType::F32
    } else {
        DType::F64
    }
}

/// Generate one random graph: a handful of placeholders of
/// [`case_dtype`], then a seeded walk over op kinds (every structural op
/// among them), always returning the most recent value plus one random
/// survivor. Binary ops broadcast: a mate has the same shape, or is a
/// scalar, a trailing-suffix bias (`[k]` against `[n, k]`) or a `[n, 1]`
/// column, which a reduction with kept dims makes and subtracts from the
/// matrix it came from before a unary op.
pub fn generate(seed: u64) -> GraphFunction {
    let mut rng = Rng::seed_from_u64(seed * 7919 + 13);
    // Which value an op takes, which side a binary op's mate goes on and
    // whether a reduction keeps its axis come from a stream of their own,
    // so the walk over op kinds does not depend on them.
    let mut sides = Rng::seed_from_u64(seed ^ 0x51de);
    let dtype = case_dtype(seed);
    let mut b = GraphBuilder::new(&format!("diff_case_{seed}"));
    let mut pool: Vec<Avail> = Vec::new();
    for dims in [vec![2, 3], vec![3, 2], vec![4], vec![]] {
        let t = b.placeholder(dtype, known(&dims)).unwrap();
        pool.push(Avail { tref: t, dims });
    }
    let steps = rng.range(4usize..14);
    for step in 0..steps {
        let kind = rng.range(0u32..13);
        // Half the time the latest value, so elementwise chains form.
        let pick = rng.range(0usize..pool.len());
        let a = pool[if sides.bool(0.5) { pool.len() - 1 } else { pick }].clone();
        match kind {
            // Elementwise unary (weighted: the bread and butter).
            0..=2 => {
                let op = UNARY[rng.range(0usize..UNARY.len())];
                let t = b.add_node(op, vec![a.tref], Attrs::new()).unwrap()[0];
                pool.push(Avail { tref: t, dims: a.dims });
            }
            // Elementwise binary over a mate that broadcasts to `a`'s shape,
            // on either side.
            3..=4 => {
                let into_a = |c: &&Avail| {
                    let (c, a) = (Shape::new(c.dims.clone()), Shape::new(a.dims.clone()));
                    tfe_tensor::broadcast_shapes(&c, &a).is_ok_and(|s| s == a)
                };
                let mut mates: Vec<&Avail> = pool.iter().filter(into_a).collect();
                if mates.iter().any(|c| c.dims != a.dims) && sides.bool(0.5) {
                    mates.retain(|c| c.dims != a.dims);
                }
                let m = mates[rng.range(0usize..mates.len())].clone();
                let op = BINARY[rng.range(0usize..BINARY.len())];
                let ins = if sides.bool(0.5) { vec![a.tref, m.tref] } else { vec![m.tref, a.tref] };
                let t = b.add_node(op, ins, Attrs::new()).unwrap()[0];
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
                let (x, y) = pairs[rng.range(0usize..pairs.len())].clone();
                let t = b.add_node("matmul", vec![x.tref, y.tref], Attrs::new()).unwrap()[0];
                pool.push(Avail { tref: t, dims: vec![x.dims[0], y.dims[1]] });
            }
            // Reduce the last axis away, or a matrix's rows to a column.
            6 => {
                let Some((_, kept)) = a.dims.split_last() else { continue };
                let axes = Attrs::new().with("axes", vec![kept.len() as i64]);
                let op = if rng.bool(0.5) { "reduce_sum" } else { "reduce_mean" };
                match kept {
                    // `f(x - sum(x))` or `f(x - mean(x))` over rows: a
                    // column against the matrix it came from, in a group
                    // of two that fusion refuses in an f32 case.
                    [n] if sides.bool(0.5) => {
                        let attrs = axes.with("keep_dims", true);
                        let col = b.add_node(op, vec![a.tref], attrs).unwrap()[0];
                        let d = b.add_node("sub", vec![a.tref, col], Attrs::new()).unwrap()[0];
                        let f = UNARY[sides.range(0usize..UNARY.len())];
                        let t = b.add_node(f, vec![d], Attrs::new()).unwrap()[0];
                        pool.push(Avail { tref: col, dims: vec![*n, 1] });
                        pool.push(Avail { tref: t, dims: a.dims });
                    }
                    _ => {
                        let t = b.add_node(op, vec![a.tref], axes).unwrap()[0];
                        pool.push(Avail { tref: t, dims: kept.to_vec() });
                    }
                }
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
                let (callee, (d, s)) = inner_callee(&format!("{seed}_{step}"), &a.dims, dtype);
                let t = b
                    .add_node(
                        "call",
                        vec![a.tref],
                        Attrs::new()
                            .with("function", callee)
                            .with("out_dtypes", d)
                            .with("out_shapes", s),
                    )
                    .unwrap()[0];
                pool.push(Avail { tref: t, dims: a.dims });
            }
            // Data-dependent cond: predicate is a reduction of a live value.
            9 => {
                let scalars: Vec<&Avail> = pool.iter().filter(|c| c.dims.is_empty()).collect();
                let gate = scalars[rng.range(0usize..scalars.len())].tref;
                let zero = b.constant(scalar(dtype, 0.0)).unwrap();
                let pred = b.add_node("greater", vec![gate, zero], Attrs::new()).unwrap()[0];
                let (then_fn, else_fn, (d, s)) =
                    branch_pair(&format!("{seed}_{step}"), &a.dims, dtype);
                let t = b
                    .add_node(
                        "cond",
                        vec![pred, a.tref],
                        Attrs::new()
                            .with("then_fn", then_fn)
                            .with("else_fn", else_fn)
                            .with("out_dtypes", d)
                            .with("out_shapes", s),
                    )
                    .unwrap()[0];
                pool.push(Avail { tref: t, dims: a.dims });
            }
            // Bounded counter loop; its counter output is never read.
            10 => {
                let trips = rng.range(0u32..4) as f64;
                let tag = format!("{seed}_{step}");
                let t = counter_loop(&mut b, &tag, &a, dtype, trips, Attrs::new());
                pool.push(Avail { tref: t, dims: a.dims });
            }
            // Escape to a (pure) host closure.
            11 => {
                let (d, s) = tfe_ops::encode_sig(&[(dtype, known(&a.dims))]);
                let attrs = Attrs::new()
                    .with("host_fn", pure_host_fn())
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
    let extra = pool[rng.range(0usize..pool.len())].clone();
    b.finish(vec![last.tref, extra.tref], 0)
}

/// Uniform values in `[-1, 1]` for every argument of `graph`, of the dtype
/// and shape its placeholder declares.
pub fn make_args(seed: u64, graph: &GraphFunction) -> Vec<Arc<TensorData>> {
    let mut rng = tfe_tensor::rng::TensorRng::seed_from_u64(seed ^ 0x5eed);
    graph
        .arg_sigs()
        .into_iter()
        .map(|(dtype, shape)| {
            let shape = shape.to_shape().expect("corpus placeholders have known shapes");
            Arc::new(rng.uniform(dtype, shape, -1.0, 1.0).unwrap())
        })
        .collect()
}

/// [`make_args`] with a `-0.0` first and a `+0.0` second in every tensor (a
/// scalar gets one or the other by `seed`), each of its own dtype: the
/// inputs on which a rewrite that is right up to the sign of zero shows.
pub fn make_signed_zero_args(seed: u64, graph: &GraphFunction) -> Vec<Arc<TensorData>> {
    make_args(seed, graph)
        .iter()
        .map(|t| {
            let mut v = t.to_f64_vec();
            let zeros = if seed.is_multiple_of(2) { [-0.0, 0.0] } else { [0.0, -0.0] };
            for (x, z) in v.iter_mut().zip(zeros) {
                *x = z;
            }
            Arc::new(TensorData::from_vec(v, t.shape().clone()).unwrap().cast(t.dtype()))
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
                let tf_eager::Params::Const { index, .. } = node.params else {
                    panic!("a const holds its pool index");
                };
                vals.insert((id, 0), tf_eager::Tensor::from_data((*f.constants[index]).clone()));
            }
            _ => {
                let ins: Vec<tf_eager::Tensor> =
                    node.inputs.iter().map(|r| vals[&(r.node.0, r.output)].clone()).collect();
                let outs = tfe_runtime::context::execute(node.op, &ins, node.params.clone())?;
                for (k, t) in outs.into_iter().enumerate() {
                    vals.insert((id, k), t);
                }
            }
        }
    }
    Ok(f.outputs.iter().map(|r| vals[&(r.node.0, r.output)].clone()).collect())
}

/// The attributes of a `read_variable` of the f64 scalar `vid`.
fn read_attrs(vid: i64) -> Attrs {
    Attrs::new().with("var_id", vid).with("dtype", DType::F64).with("shape", Vec::<i64>::new())
}

/// The stateful-graph generator shared by the graph-mode and eager
/// differentials: random interleavings of variable reads, writes, and
/// stateless math over `vars`, always ending on fresh reads so the final
/// state is observable.
pub fn generate_stateful(seed: u64, var_ids: &[i64]) -> GraphFunction {
    let mut rng = Rng::seed_from_u64(seed * 104729 + 7);
    let mut b = GraphBuilder::new(&format!("diff_stateful_{seed}"));
    let mut latest: Vec<TensorRef> = Vec::new();
    for _ in 0..rng.range(6usize..16) {
        let vid = var_ids[rng.range(0usize..var_ids.len())];
        match rng.range(0u32..4) {
            0 | 1 => {
                let r = b.add_node("read_variable", vec![], read_attrs(vid)).unwrap()[0];
                latest.push(r);
            }
            2 if !latest.is_empty() => {
                let src = latest[rng.range(0usize..latest.len())];
                let t = b.add_node("tanh", vec![src], Attrs::new()).unwrap()[0];
                b.add_node("assign_add", vec![t], Attrs::new().with("var_id", vid)).unwrap();
            }
            _ if !latest.is_empty() => {
                let x = latest[rng.range(0usize..latest.len())];
                let y = latest[rng.range(0usize..latest.len())];
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
pub fn generate_algebraic(seed: u64) -> GraphFunction {
    let mut rng = Rng::seed_from_u64(seed * 6151 + 3);
    let mut b = GraphBuilder::new(&format!("alg_case_{seed}"));
    let mut pool: Vec<Avail> = Vec::new();
    for dims in [vec![2, 3], vec![3, 3], vec![]] {
        let t = b.placeholder(DType::F64, known(&dims)).unwrap();
        pool.push(Avail { tref: t, dims });
    }
    let mut meta: Vec<TensorRef> = Vec::new();
    for _ in 0..rng.range(6usize..18) {
        let kind = rng.range(0u32..10);
        let a = pool[rng.range(0usize..pool.len())].clone();
        match kind {
            // Identity-element binary: the constant sits on whichever side
            // the op allows, so both candidate orders get exercised. A zero
            // takes either sign: only one of them is the op's identity
            // (`x + -0.0`, `x - +0.0`), the other changes a `-0.0` in `x`.
            0..=3 => {
                let zero = if rng.bool(0.5) { 0.0f64 } else { -0.0 };
                let (op, ident, either) = match rng.range(0u32..4) {
                    0 => ("mul", 1.0f64, true),
                    1 => ("add", zero, true),
                    2 => ("sub", zero, false),
                    _ => ("div", 1.0, false),
                };
                let c = b.constant(Arc::new(TensorData::scalar(ident))).unwrap();
                let ins = if either && rng.bool(0.5) { vec![c, a.tref] } else { vec![a.tref, c] };
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
                let m = mates[rng.range(0usize..mates.len())].clone();
                let tr = b
                    .add_node("transpose", vec![a.tref], Attrs::new().with("perm", vec![1i64, 0]))
                    .unwrap()[0];
                let t = b.add_node("matmul", vec![tr, m.tref], Attrs::new()).unwrap()[0];
                pool.push(Avail { tref: t, dims: vec![a.dims[1], m.dims[1]] });
            }
            // Static metadata: folds to a constant in the pipeline.
            8 => {
                let op = ["shape_of", "rank_of", "size_of"][rng.range(0usize..3)];
                let t = b.add_node(op, vec![a.tref], Attrs::new()).unwrap()[0];
                meta.push(t);
            }
            // Ordinary math keeps the rewrites embedded in live graphs.
            _ => {
                let op = UNARY[rng.range(0usize..UNARY.len())];
                let t = b.add_node(op, vec![a.tref], Attrs::new()).unwrap()[0];
                pool.push(Avail { tref: t, dims: a.dims });
            }
        }
    }
    let last = pool.last().unwrap().clone();
    let extra = pool[rng.range(0usize..pool.len())].clone();
    let mut outs = vec![last.tref, extra.tref];
    outs.extend(meta.into_iter().take(2));
    b.finish(outs, 0)
}

/// A stateful program biased toward dead stores: bursts of back-to-back
/// plain `assign`s to the same variable (all but the last are dead),
/// mixed with reads, read-modify-writes, and stateless math that must
/// pin the stores they observe. Ends on fresh reads of every variable so
/// final state stays observable.
pub fn generate_dead_store(seed: u64, var_ids: &[i64]) -> GraphFunction {
    let mut rng = Rng::seed_from_u64(seed * 31337 + 11);
    let mut b = GraphBuilder::new(&format!("dse_case_{seed}"));
    let mut latest: Vec<TensorRef> =
        vec![b.add_node("read_variable", vec![], read_attrs(var_ids[0])).unwrap()[0]];
    // A guaranteed clobbered store, so the corpus trips the pass on every
    // graph, not just in aggregate.
    for _ in 0..2 {
        let t = b.add_node("tanh", vec![latest[0]], Attrs::new()).unwrap()[0];
        b.add_node("assign", vec![t], Attrs::new().with("var_id", var_ids[0])).unwrap();
    }
    for _ in 0..rng.range(8usize..20) {
        let vid = var_ids[rng.range(0usize..var_ids.len())];
        match rng.range(0u32..6) {
            // Burst of plain assigns: only the last one can live.
            0..=2 => {
                for _ in 0..rng.range(2usize..4) {
                    let src = latest[rng.range(0usize..latest.len())];
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
                let src = latest[rng.range(0usize..latest.len())];
                let t = b.add_node("sin", vec![src], Attrs::new()).unwrap()[0];
                b.add_node("assign_add", vec![t], Attrs::new().with("var_id", vid)).unwrap();
            }
            _ => {
                let x = latest[rng.range(0usize..latest.len())];
                let y = latest[rng.range(0usize..latest.len())];
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
// Failure artifacts: a failing seed reproduces its case but is not shrunk,
// so the oracle shrinks failing graphs itself — prefix-truncate the
// (topologically ordered) node list and drop outputs while the property
// still fails — and persists the minimized graph as Graphviz dot so the
// panic message names a file, not a wall of text.
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
