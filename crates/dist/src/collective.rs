//! Collectives for data-parallel training: parameter-server and ring
//! all-reduce gradient means, coordinator-driven as a few rounds of batched
//! programs (`cluster.rs`).
//!
//! ## Determinism policy (DESIGN.md §17)
//!
//! Floating-point addition is not associative, so "the" mean of N shard
//! gradients depends on combine order. Each collective therefore *defines*
//! a deterministic order, and ships a local reference emulation
//! ([`ps_reference_mean`], [`ring_reference_mean`]) that executes the same
//! kernel sequence in the same order on the coordinator. Distributed
//! results are required (and tested) to match their reference **bitwise**
//! — this pins down both wire fidelity (floats survive serialization
//! exactly) and combine-order discipline. The order fixes which adds happen
//! and in what association, not how many requests carry them or when they
//! are written.
//!
//! - **Parameter server**: `(((g0 + g1) + g2) + …) / n`, worker order.
//! - **Ring**: the tensor is split along axis 0 into `n` contiguous chunk
//!   ranges; chunk `k` is reduced on worker `k` in ring order
//!   `k, k+1, …` (mod `n`, left-associated), divided by `n`, then
//!   all-gathered by concatenation in chunk order. Tensors with fewer
//!   than `n` leading rows (including scalars) fall back to a single
//!   chunk reduced on worker 0 and broadcast.
//!
//! ## Rounds
//!
//! A collective reduces *all* variables at once ([`all_reduce_means`]); the
//! per-tensor functions are its one-variable case. Every tensor that
//! changes worker passes through the coordinator as the serialized value it
//! arrived as.
//!
//! - **Parameter server**, `n + 1` requests in 2 rounds. A: every worker
//!   returns its shards inline. B: the server runs `add … add, div` per
//!   variable on them and keeps, or returns, the means.
//! - **Ring**, `3n` requests in 3 rounds, for any `n`. A: every worker
//!   slices each shard into the `n` chunk ranges, keeps the piece it owns
//!   and returns the others (for the fallback, workers other than 0 return
//!   the whole tensor). B: owner `k` adds the pieces to its own in ring
//!   order, divides, keeps its chunk mean and returns it. C: every worker
//!   concatenates the chunk means — its own resident, the others inline —
//!   and keeps the result.
//!
//! The first round can ride on a program the caller has already started
//! ([`Shard::program`]): `DataParallel::step` makes it the call of the
//! gradient function, whose outputs are then sliced or returned by later
//! steps of the same request and never become resident at all. A worker
//! with nothing to do in a round gets no request.
//!
//! One request carries every variable, so its frame grows with the model.
//! [`cut`] splits the variables into consecutive groups that each stay
//! under half of [`MAX_FRAME_LEN`], by size alone, and the rounds run once
//! per group. (A single variable whose `n` shards do not fit one frame
//! together is past what the parameter server's round B can carry; the
//! sender refuses it, typed.)

use crate::cluster::{Cluster, Input, Program, RemoteTensor, Reply, Result};
use crate::error::DistError;
use crate::wire::{WireError, MAX_FRAME_LEN};
use std::ops::Range;
use std::sync::Arc;
use tfe_encode::Value;
use tfe_graph::serial::tensor_to_value;
use tfe_ops::{Attrs, BinaryOp, Op, Params};
use tfe_runtime::kernels::run_kernel;
use tfe_tensor::{DType, TensorData};

const ADD: Op = Op::Binary(BinaryOp::Add);
const DIV: Op = Op::Binary(BinaryOp::Div);

fn scalar(dtype: DType, v: f64) -> TensorData {
    TensorData::from_f64_vec(dtype, vec![v], Vec::<usize>::new())
}

fn validate(shards: &[RemoteTensor]) -> Result<()> {
    let first = shards
        .first()
        .ok_or_else(|| DistError::Spec("collective needs at least one shard".to_string()))?;
    for s in &shards[1..] {
        if s.dtype != first.dtype || s.dims != first.dims {
            return Err(DistError::Spec(format!(
                "collective shards disagree: {:?}{:?} vs {:?}{:?}",
                first.dtype, first.dims, s.dtype, s.dims
            )));
        }
    }
    Ok(())
}

/// Split `rows` into `n` contiguous ranges, sized as evenly as possible
/// (the first `rows % n` ranges get one extra row).
fn chunk_ranges(rows: usize, n: usize) -> Vec<(usize, usize)> {
    let base = rows / n;
    let extra = rows % n;
    let mut start = 0;
    (0..n)
        .map(|k| {
            let len = base + usize::from(k < extra);
            let r = (start, len);
            start += len;
            r
        })
        .collect()
}

fn slice_params(dims: &[usize], start: usize, len: usize) -> Params {
    let mut begin = vec![0i64; dims.len()];
    let mut size: Vec<i64> = dims.iter().map(|&d| d as i64).collect();
    begin[0] = start as i64;
    size[0] = len as i64;
    Params::Slice { begin, size }
}

/// Dtype and dims of one variable's gradient.
pub type Spec = (DType, Vec<usize>);

/// One worker's side of a collective.
pub struct Shard {
    /// The worker's device name.
    pub device: String,
    /// What the worker is to run before the first round's steps, in the
    /// same request; empty when its shards are already resident. It keeps
    /// nothing itself; what it returns comes back in [`Reduced::lead`].
    pub program: Program,
    /// The worker's shard of each variable: resident, or an output of
    /// `program`.
    pub grads: Vec<Input>,
}

/// The mean of one variable.
pub struct Mean {
    /// Where it was left resident: on the parameter server (unless
    /// fetched), or on every worker of the ring, in worker order.
    pub resident: Vec<RemoteTensor>,
    /// The serialized value, when the caller asked to fetch it.
    pub value: Option<Value>,
}

/// What [`all_reduce_means`] hands back.
pub struct Reduced {
    /// What each worker's [`Shard::program`] returned, in worker order.
    pub lead: Vec<Vec<Value>>,
    /// One mean per variable.
    pub means: Vec<Mean>,
}

/// All-reduce the mean of every variable at once: through the parameter
/// server `ps_device`, or around the ring of the workers themselves when
/// there is none. `specs[v]` describes variable `v`, `shards[w].grads[v]`
/// is worker `w`'s shard of it. With `fetch` the means also come back to
/// the coordinator, inline in the last round's replies (and the parameter
/// server keeps nothing).
///
/// See the module docs for the rounds and the combine-order contract.
///
/// # Errors
/// No workers, a shard list that does not match `specs`, two shards on one
/// worker, or any typed RPC failure.
pub fn all_reduce_means(
    cluster: &Cluster,
    ps_device: Option<&str>,
    specs: &[Spec],
    shards: Vec<Shard>,
    fetch: bool,
) -> Result<Reduced> {
    all_reduce_cut(cluster, ps_device, specs, shards, fetch, MAX_FRAME_LEN / 2)
}

fn all_reduce_cut(
    cluster: &Cluster,
    ps_device: Option<&str>,
    specs: &[Spec],
    mut shards: Vec<Shard>,
    fetch: bool,
    frame_limit: usize,
) -> Result<Reduced> {
    let n = shards.len();
    if n == 0 || shards.iter().any(|s| s.grads.len() != specs.len()) {
        return Err(DistError::Spec(format!(
            "collective needs at least one worker and {} shard(s) from each",
            specs.len()
        )));
    }
    // The most one variable adds to one frame: the server's round B holds
    // every worker's shard of it, no ring request more than one tensor.
    let copies = if ps_device.is_some() { n } else { 1 };
    let sizes: Vec<usize> = specs
        .iter()
        .map(|(dtype, dims)| {
            dims.iter().fold(dtype.size_bytes() * copies, |bytes, &d| bytes.saturating_mul(d))
        })
        .collect();
    let groups = cut(&sizes, frame_limit);

    let devices: Vec<String> = shards.iter().map(|s| s.device.clone()).collect();
    let mut programs: Vec<Program> =
        shards.iter_mut().map(|s| std::mem::take(&mut s.program)).collect();
    let mut lead: Vec<Vec<Value>> = vec![Vec::new(); n];
    // Handles to shards parked below, until the last group has read them.
    let mut parked = Vec::new();
    if groups.len() > 1 && programs.iter().any(|p| !p.is_empty()) {
        // More than a frame a round: the callers' programs run on their
        // own and park their shards, and every group starts from residents.
        for (program, shard) in programs.iter_mut().zip(&shards) {
            shard.grads.iter().for_each(|g| program.keep(g.clone()));
        }
        let replies = round_of(cluster, &devices, std::mem::take(&mut programs))?;
        for ((shard, reply), lead) in shards.iter_mut().zip(replies).zip(&mut lead) {
            *lead = reply.returned;
            shard.grads = reply.kept.iter().map(|t| Input::Resident(t.id)).collect();
            parked.push(reply.kept);
        }
    }

    let grads: Vec<&[Input]> = shards.iter().map(|s| &s.grads[..]).collect();
    let mut means = Vec::with_capacity(specs.len());
    for group in groups {
        programs.resize_with(n, Program::new);
        let side = Side { cluster, devices: &devices, specs, grads: &grads, group, fetch };
        let first = std::mem::take(&mut programs);
        means.extend(match ps_device {
            Some(ps) => side.through_server(ps, first, &mut lead)?,
            None => side.around_ring(first, &mut lead)?,
        });
    }
    Ok(Reduced { lead, means })
}

/// Cut a list of per-variable frame sizes into consecutive groups whose
/// sizes sum to at most `limit` each; a variable larger than `limit` is a
/// group of its own. Always at least one group.
fn cut(sizes: &[usize], limit: usize) -> Vec<Range<usize>> {
    let mut groups = Vec::new();
    let (mut start, mut total) = (0, 0usize);
    for (v, &size) in sizes.iter().enumerate() {
        if v > start && total.saturating_add(size) > limit {
            groups.push(start..v);
            (start, total) = (v, 0);
        }
        total = total.saturating_add(size);
    }
    groups.push(start..sizes.len());
    groups
}

/// One round over the workers that have something to do: a reply per
/// worker, an empty one for a worker that got no request.
fn round_of(cluster: &Cluster, devices: &[String], programs: Vec<Program>) -> Result<Vec<Reply>> {
    let (busy, requests): (Vec<usize>, Vec<(&str, Program)>) = programs
        .into_iter()
        .enumerate()
        .filter(|(_, program)| !program.is_empty())
        .map(|(w, program)| (w, (devices[w].as_str(), program)))
        .unzip();
    let mut replies: Vec<Reply> = devices.iter().map(|_| Reply::default()).collect();
    for (w, reply) in busy.into_iter().zip(cluster.round(requests)?) {
        replies[w] = reply;
    }
    Ok(replies)
}

/// The next tensor of a reply, which holds as many as its program asked for.
fn next<T>(of: &mut impl Iterator<Item = T>) -> Result<T> {
    of.next().ok_or_else(|| {
        DistError::Wire(WireError::Payload("`run` reply is short of a tensor".to_string()))
    })
}

fn inline(t: &TensorData) -> Input {
    Input::Inline(tensor_to_value(t))
}

type Values = std::vec::IntoIter<Value>;

/// One group of variables going through the rounds of one collective.
struct Side<'a> {
    cluster: &'a Cluster,
    devices: &'a [String],
    specs: &'a [Spec],
    /// `grads[w][v]`, over all variables.
    grads: &'a [&'a [Input]],
    group: Range<usize>,
    fetch: bool,
}

impl Side<'_> {
    /// Round A: `first[w]`, which may start with a program of the caller's
    /// whose own returns go to `lead[w]`. Per worker, what it kept and what
    /// else it returned.
    fn first_round(
        &self,
        first: Vec<Program>,
        given: &[usize],
        lead: &mut [Vec<Value>],
    ) -> Result<Vec<(Vec<RemoteTensor>, Values)>> {
        let replies = round_of(self.cluster, self.devices, first)?;
        Ok(replies
            .into_iter()
            .zip(given)
            .zip(lead)
            .map(|((reply, &given), lead)| {
                let mut returned = reply.returned.into_iter();
                lead.extend(returned.by_ref().take(given));
                (reply.kept, returned)
            })
            .collect())
    }

    /// Parameter server (module docs): round A every worker returns its
    /// shards, round B the server reduces them.
    fn through_server(
        &self,
        ps: &str,
        mut first: Vec<Program>,
        lead: &mut [Vec<Value>],
    ) -> Result<Vec<Mean>> {
        let n = self.devices.len();
        let given: Vec<usize> = first.iter().map(Program::given).collect();
        for (program, grads) in first.iter_mut().zip(self.grads) {
            grads[self.group.clone()].iter().for_each(|g| program.give(g.clone()));
        }
        let mut shards = self.first_round(first, &given, lead)?;

        let mut program = Program::new();
        for (dtype, _) in &self.specs[self.group.clone()] {
            let mut of_workers = Vec::with_capacity(n);
            for (_, shard) in &mut shards {
                of_workers.push(Input::Inline(next(shard)?));
            }
            let mut of_workers = of_workers.into_iter();
            let first = of_workers.next().expect("at least one worker");
            let acc = of_workers.fold(first, |acc, shard| {
                Input::Step(program.op("add", &Attrs::new(), vec![acc, shard]), 0)
            });
            let divisor = inline(&scalar(*dtype, n as f64));
            let mean = Input::Step(program.op("div", &Attrs::new(), vec![acc, divisor]), 0);
            if self.fetch {
                program.give(mean);
            } else {
                program.keep(mean);
            }
        }
        let reply = round_of(self.cluster, &[ps.to_string()], vec![program])?.remove(0);
        let (mut kept, mut returned) = (reply.kept.into_iter(), reply.returned.into_iter());
        self.group
            .clone()
            .map(|_| {
                Ok(match self.fetch {
                    true => Mean { resident: Vec::new(), value: Some(next(&mut returned)?) },
                    false => Mean { resident: vec![next(&mut kept)?], value: None },
                })
            })
            .collect()
    }

    /// Ring (module docs). A variable has `n` chunks, chunk `k` owned by
    /// worker `k` — or, for the fallback, one chunk that is the whole
    /// tensor, owned by worker 0.
    fn around_ring(&self, mut first: Vec<Program>, lead: &mut [Vec<Value>]) -> Result<Vec<Mean>> {
        let n = self.devices.len();
        let plain = Attrs::new();
        let specs = &self.specs[self.group.clone()];
        let chunks: Vec<Option<Vec<(usize, usize)>>> = specs
            .iter()
            .map(|(_, dims)| {
                dims.first().filter(|&&rows| rows >= n).map(|&rows| chunk_ranges(rows, n))
            })
            .collect();
        let owners = |i: usize| if chunks[i].is_some() { n } else { 1 };
        let grad = |w: usize, i: usize| &self.grads[w][self.group.start + i];
        // Tensors kept by one round for the next to read; released, with
        // the next request to their worker, when the collective is done.
        let mut held: Vec<Vec<RemoteTensor>> = Vec::new();

        // Round A: worker w keeps its piece of the chunk it owns and returns
        // its pieces of the others. `mine[w][i]` is the kept piece,
        // `pieces[w][i][k]` the returned one of chunk k.
        let given: Vec<usize> = first.iter().map(Program::given).collect();
        let mut mine: Vec<Vec<Option<Input>>> = vec![vec![None; specs.len()]; n];
        for (w, program) in first.iter_mut().enumerate() {
            for i in 0..specs.len() {
                for k in 0..owners(i) {
                    let piece = match &chunks[i] {
                        None => grad(w, i).clone(),
                        Some(ranges) => {
                            let attrs =
                                slice_params(&specs[i].1, ranges[k].0, ranges[k].1).to_attrs();
                            Input::Step(program.op("slice", &attrs, vec![grad(w, i).clone()]), 0)
                        }
                    };
                    match piece {
                        // Already on its owner.
                        Input::Resident(_) if k == w => mine[w][i] = Some(piece),
                        _ if k == w => program.keep(piece),
                        _ => program.give(piece),
                    }
                }
            }
        }
        let mut pieces: Vec<Vec<Vec<Option<Value>>>> = Vec::with_capacity(n);
        let replies = self.first_round(first, &given, lead)?;
        for (w, ((kept, mut returned), mine)) in replies.into_iter().zip(&mut mine).enumerate() {
            let mut ids = kept.iter().map(|t| t.id);
            let mut of_worker = Vec::with_capacity(specs.len());
            for (i, mine) in mine.iter_mut().enumerate() {
                let mut of_variable = vec![None; owners(i)];
                for (k, piece) in of_variable.iter_mut().enumerate() {
                    if k != w {
                        *piece = Some(next(&mut returned)?);
                    } else if mine.is_none() {
                        *mine = Some(Input::Resident(next(&mut ids)?));
                    }
                }
                of_worker.push(of_variable);
            }
            pieces.push(of_worker);
            held.push(kept);
        }

        // Round B: owner k sums chunk k in ring order k, k+1, …, divides,
        // keeps the chunk mean and (if anyone else needs it) returns it.
        let mut second: Vec<Program> = (0..n).map(|_| Program::new()).collect();
        for (k, program) in second.iter_mut().enumerate() {
            for i in (0..specs.len()).filter(|&i| k < owners(i)) {
                let mut acc = mine[k][i].take().expect("round A kept the owner's piece");
                for j in 1..n {
                    let piece = next(&mut pieces[(k + j) % n][i][k].take().into_iter())?;
                    acc =
                        Input::Step(program.op("add", &plain, vec![acc, Input::Inline(piece)]), 0);
                }
                let divisor = inline(&scalar(specs[i].0, n as f64));
                let mean = Input::Step(program.op("div", &plain, vec![acc, divisor]), 0);
                program.keep(mean.clone());
                if n > 1 {
                    program.give(mean);
                }
            }
        }
        // parts[i][k]: chunk mean k of variable i, resident on worker k, and
        // as the value the other workers get.
        let mut parts: Vec<Vec<(u64, Option<Value>)>> =
            (0..specs.len()).map(|_| Vec::new()).collect();
        for (k, reply) in round_of(self.cluster, self.devices, second)?.into_iter().enumerate() {
            let (mut ids, mut returned) =
                (reply.kept.iter().map(|t| t.id), reply.returned.into_iter());
            for i in (0..specs.len()).filter(|&i| k < owners(i)) {
                let value = if n > 1 { Some(next(&mut returned)?) } else { None };
                parts[i].push((next(&mut ids)?, value));
            }
            held.push(reply.kept);
        }

        // Round C: every worker concatenates the chunk means, its own from
        // its table; a scalar, which cannot concatenate, is `x + 0`.
        let mut third: Vec<Program> = (0..n).map(|_| Program::new()).collect();
        for (w, program) in third.iter_mut().enumerate() {
            for (i, (dtype, dims)) in specs.iter().enumerate() {
                let means = parts[i].iter().enumerate().map(|(k, (id, value))| match value {
                    Some(value) if k != w => Input::Inline(value.clone()),
                    _ => Input::Resident(*id),
                });
                let whole = if dims.is_empty() {
                    let zero = inline(&scalar(*dtype, 0.0));
                    program.op("add", &plain, means.chain([zero]).collect())
                } else {
                    program.op("concat", &Attrs::new().with("axis", 0i64), means.collect())
                };
                program.keep(Input::Step(whole, 0));
                if self.fetch && w == 0 {
                    program.give(Input::Step(whole, 0));
                }
            }
        }
        let mut gathered: Vec<(std::vec::IntoIter<RemoteTensor>, Values)> =
            round_of(self.cluster, self.devices, third)?
                .into_iter()
                .map(|reply| (reply.kept.into_iter(), reply.returned.into_iter()))
                .collect();
        let means = specs.iter().map(|_| {
            let value = if self.fetch { Some(next(&mut gathered[0].1)?) } else { None };
            let resident: Result<Vec<_>> =
                gathered.iter_mut().map(|(kept, _)| next(kept)).collect();
            Ok(Mean { resident: resident?, value })
        });
        means.collect()
    }
}

impl Shard {
    /// The sides of a collective over tensors already on the workers:
    /// `shards[v][w]` is worker `w`'s shard of tensor `v`, one shard per
    /// worker, every tensor's on the same workers. Also each tensor's spec.
    ///
    /// # Errors
    /// Empty or mismatched shards.
    pub fn resident(shards: &[Vec<RemoteTensor>]) -> Result<(Vec<Spec>, Vec<Shard>)> {
        shards.iter().try_for_each(|of_tensor| validate(of_tensor))?;
        let devices = |of_tensor: &[RemoteTensor]| -> Vec<String> {
            of_tensor.iter().map(|s| s.device.to_string()).collect()
        };
        let workers = devices(shards.first().map_or(&[], |first| first));
        if shards.iter().any(|of_tensor| devices(of_tensor) != workers) {
            return Err(DistError::Spec(
                "every tensor's shards must sit on the same workers".into(),
            ));
        }
        let specs = shards.iter().map(|s| (s[0].dtype, s[0].dims.clone())).collect();
        let sides = workers.into_iter().enumerate().map(|(w, device)| Shard {
            device,
            program: Program::new(),
            grads: shards.iter().map(|s| Input::Resident(s[w].id)).collect(),
        });
        Ok((specs, sides.collect()))
    }
}

/// Parameter-server mean of one tensor: relay every shard (each resident on
/// its own worker) to `ps_device`, sum in worker order, divide by the shard
/// count. The result stays resident on the parameter server.
///
/// # Errors
/// Empty/mismatched shards, or any typed RPC failure.
pub fn ps_all_reduce_mean(
    cluster: &Cluster,
    ps_device: &str,
    shards: &[RemoteTensor],
) -> Result<RemoteTensor> {
    let (specs, sides) = Shard::resident(&[shards.to_vec()])?;
    let mut reduced = all_reduce_means(cluster, Some(ps_device), &specs, sides, false)?;
    next(&mut reduced.means.remove(0).resident.into_iter())
}

/// Local bit-reference for [`ps_all_reduce_mean`]: the same kernels in the
/// same order, run on the coordinator.
///
/// # Errors
/// Empty shards or kernel failures.
pub fn ps_reference_mean(shards: &[Arc<TensorData>]) -> Result<TensorData> {
    let first =
        shards.first().ok_or_else(|| DistError::Spec("reference needs shards".to_string()))?;
    let n = shards.len();
    let mut acc = first.clone();
    for s in &shards[1..] {
        let out = run_kernel(ADD, &Params::None, &[acc, s.clone()])?;
        acc = Arc::new(out.into_iter().next().expect("add yields one output"));
    }
    let divisor = Arc::new(scalar(first.dtype(), n as f64));
    let out = run_kernel(DIV, &Params::None, &[acc, divisor])?;
    Ok(out.into_iter().next().expect("div yields one output"))
}

/// Ring all-reduce mean over one same-shaped shard per worker, each
/// resident on its own worker. Returns the reduced mean resident on *every*
/// worker (in shard order).
///
/// See the module docs for the chunking and combine-order contract.
///
/// # Errors
/// Empty/mismatched shards, or any typed RPC failure.
pub fn ring_all_reduce_mean(
    cluster: &Cluster,
    shards: &[RemoteTensor],
) -> Result<Vec<RemoteTensor>> {
    let (specs, sides) = Shard::resident(&[shards.to_vec()])?;
    let mut reduced = all_reduce_means(cluster, None, &specs, sides, false)?;
    Ok(reduced.means.remove(0).resident)
}

/// Local bit-reference for [`ring_all_reduce_mean`]: identical chunking,
/// combine order, and kernel sequence on the coordinator. Returns the one
/// tensor every worker would hold.
///
/// # Errors
/// Empty shards or kernel failures.
pub fn ring_reference_mean(shards: &[Arc<TensorData>]) -> Result<TensorData> {
    let first =
        shards.first().ok_or_else(|| DistError::Spec("reference needs shards".to_string()))?;
    let n = shards.len();
    let dims: Vec<usize> = first.shape().dims().to_vec();
    let dtype = first.dtype();
    let divisor = Arc::new(scalar(dtype, n as f64));
    let one = |out: Vec<TensorData>| Arc::new(out.into_iter().next().expect("one output"));

    let ranges = if !dims.is_empty() && dims[0] >= n { chunk_ranges(dims[0], n) } else { vec![] };

    if ranges.is_empty() {
        let mut acc = first.clone();
        for s in &shards[1..] {
            acc = one(run_kernel(ADD, &Params::None, &[acc, s.clone()])?);
        }
        let mean = one(run_kernel(DIV, &Params::None, &[acc, divisor])?);
        let out = if dims.is_empty() {
            let zero = Arc::new(scalar(dtype, 0.0));
            run_kernel(ADD, &Params::None, &[mean, zero])?
        } else {
            run_kernel(Op::Concat, &Params::Axis { axis: 0 }, &[mean])?
        };
        return Ok(out.into_iter().next().expect("one output"));
    }

    let mut chunk_means = Vec::with_capacity(n);
    for (k, &(start, len)) in ranges.iter().enumerate() {
        let mut acc =
            one(run_kernel(Op::Slice, &slice_params(&dims, start, len), &[shards[k].clone()])?);
        for j in 1..n {
            let w = (k + j) % n;
            let piece =
                one(run_kernel(Op::Slice, &slice_params(&dims, start, len), &[shards[w].clone()])?);
            acc = one(run_kernel(ADD, &Params::None, &[acc, piece])?);
        }
        chunk_means.push(one(run_kernel(DIV, &Params::None, &[acc, divisor.clone()])?));
    }
    let out = run_kernel(Op::Concat, &Params::Axis { axis: 0 }, &chunk_means)?;
    Ok(out.into_iter().next().expect("one output"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use tfe_runtime::Tensor;

    #[test]
    fn chunk_ranges_cover_evenly() {
        assert_eq!(chunk_ranges(6, 2), vec![(0, 3), (3, 3)]);
        assert_eq!(chunk_ranges(7, 3), vec![(0, 3), (3, 2), (5, 2)]);
        assert_eq!(chunk_ranges(2, 2), vec![(0, 1), (1, 1)]);
        let ranges = chunk_ranges(11, 4);
        assert_eq!(ranges.iter().map(|(_, l)| l).sum::<usize>(), 11);
        assert_eq!(ranges[0].0, 0);
    }

    #[test]
    fn cut_groups_by_size_at_variable_boundaries() {
        assert_eq!(cut(&[], 10), vec![0..0]);
        assert_eq!(cut(&[3, 3, 3], 10), vec![0..3]);
        assert_eq!(cut(&[5, 5, 1], 10), vec![0..2, 2..3]);
        assert_eq!(cut(&[6, 5, 5, 6], 10), vec![0..1, 1..3, 3..4]);
        // Larger than a frame: alone, wherever it stands.
        assert_eq!(cut(&[50, 1, 1, 50, 50], 10), vec![0..1, 1..3, 3..4, 4..5]);
        assert_eq!(cut(&[1, usize::MAX, usize::MAX], 10), vec![0..1, 1..2, 2..3]);
        assert_eq!(cut(&[0, 0, 0], 0), vec![0..3]);
    }

    /// With a frame limit of one byte every variable is a group of its own:
    /// the rounds run once a variable, a caller's program runs on its own
    /// first and parks its outputs — and the means are the same bits.
    #[test]
    fn cut_collectives_match_their_references_bitwise() {
        let spec = ClusterSpec::new().with_job("cut", 2).unwrap().with_job("cut_ps", 1).unwrap();
        let cluster = Cluster::start(&spec);
        let devices = ["/job:cut/task:0/device:CPU:0", "/job:cut/task:1/device:CPU:0"];
        let specs: Vec<Spec> =
            vec![(DType::F32, vec![5, 2]), (DType::F32, vec![1]), (DType::F32, vec![])];
        let mut rng = tfe_tensor::rng::TensorRng::seed_from_u64(31);
        let mut shard =
            |dims: &[usize]| Arc::new(rng.uniform(DType::F32, dims.to_vec(), -1.0, 1.0).unwrap());
        let grads: Vec<Vec<Arc<TensorData>>> =
            specs.iter().map(|(_, dims)| vec![shard(dims), shard(dims)]).collect();
        let bits = |t: &TensorData| t.to_f64_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>();

        for ps in [Some("/job:cut_ps/task:0/device:CPU:0"), None] {
            let sides = |w: usize| {
                // Each shard is the output of a step of the caller's
                // program, which also returns a marker of its own.
                let mut program = Program::new();
                let steps: Vec<usize> = grads
                    .iter()
                    .map(|of_variable| {
                        program.op("identity", &Attrs::new(), vec![inline(&of_variable[w])])
                    })
                    .collect();
                program.give(inline(&scalar(DType::F32, w as f64)));
                let grads = steps.into_iter().map(|step| Input::Step(step, 0)).collect();
                Shard { device: devices[w].to_string(), program, grads }
            };
            let reduced =
                all_reduce_cut(&cluster, ps, &specs, vec![sides(0), sides(1)], true, 1).unwrap();
            for (w, lead) in reduced.lead.iter().enumerate() {
                let marker = crate::cluster::decode_tensor(&lead[0]).unwrap();
                assert_eq!((lead.len(), marker.scalar_f64().unwrap()), (1, w as f64));
            }
            for (mean, of_variable) in reduced.means.iter().zip(&grads) {
                let reference = match ps {
                    Some(_) => ps_reference_mean(of_variable).unwrap(),
                    None => ring_reference_mean(of_variable).unwrap(),
                };
                let value: Tensor =
                    crate::cluster::decode_tensor(mean.value.as_ref().unwrap()).unwrap();
                assert_eq!(bits(&value.value().unwrap()), bits(&reference), "{ps:?}");
                assert_eq!(mean.resident.len(), if ps.is_some() { 0 } else { 2 });
            }
        }
        cluster.shutdown();
    }
}
