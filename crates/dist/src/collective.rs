//! Collectives for data-parallel training: parameter-server and ring
//! all-reduce gradient means, coordinator-driven over the RPC layer.
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
//! exactly) and combine-order discipline.
//!
//! - **Parameter server**: `(((g0 + g1) + g2) + …) / n`, worker order.
//! - **Ring**: the tensor is split along axis 0 into `n` contiguous chunk
//!   ranges; chunk `k` is reduced on worker `k` in ring order
//!   `k, k+1, …` (mod `n`, left-associated), divided by `n`, then
//!   all-gathered by concatenation in chunk order. Tensors with fewer
//!   than `n` leading rows (including scalars) fall back to a single
//!   chunk reduced on worker 0 and broadcast.

use crate::cluster::{Cluster, RemoteArg, RemoteTensor, Result};
use crate::error::DistError;
use std::sync::Arc;
use tfe_ops::{Attrs, BinaryOp, Op};
use tfe_runtime::kernels::run_kernel;
use tfe_runtime::Tensor;
use tfe_tensor::{DType, TensorData};

const ADD: Op = Op::Binary(BinaryOp::Add);
const DIV: Op = Op::Binary(BinaryOp::Div);

fn scalar(dtype: DType, v: f64) -> TensorData {
    TensorData::from_f64_vec(dtype, vec![v], Vec::<usize>::new())
}

fn one_output(outs: Vec<RemoteTensor>, op: &str) -> Result<RemoteTensor> {
    outs.into_iter()
        .next()
        .ok_or_else(|| DistError::Spec(format!("collective op `{op}` returned no outputs")))
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

fn slice_attrs(dims: &[usize], start: usize, len: usize) -> Attrs {
    let mut begin = vec![0i64; dims.len()];
    let mut size: Vec<i64> = dims.iter().map(|&d| d as i64).collect();
    begin[0] = start as i64;
    size[0] = len as i64;
    Attrs::new().with("begin", begin).with("size", size)
}

/// Parameter-server mean: relay every shard to `ps_device`, sum in worker
/// order, divide by the shard count. The result stays resident on the
/// parameter server.
///
/// # Errors
/// Empty/mismatched shards, or any typed RPC failure.
pub fn ps_all_reduce_mean(
    cluster: &Cluster,
    ps_device: &str,
    shards: &[RemoteTensor],
) -> Result<RemoteTensor> {
    validate(shards)?;
    let n = shards.len();
    let mut acc = RemoteArg::from(&shards[0]);
    for s in &shards[1..] {
        let out = cluster.execute(ps_device, "add", &[acc, RemoteArg::from(s)], Attrs::new())?;
        acc = RemoteArg::Remote(one_output(out, "add")?);
    }
    let divisor = Tensor::from_data(scalar(shards[0].dtype, n as f64));
    let out = cluster.execute(ps_device, "div", &[acc, RemoteArg::from(&divisor)], Attrs::new())?;
    one_output(out, "div")
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
        let out = run_kernel(ADD, &Attrs::new(), &[acc, s.clone()])?;
        acc = Arc::new(out.into_iter().next().expect("add yields one output"));
    }
    let divisor = Arc::new(scalar(first.dtype(), n as f64));
    let out = run_kernel(DIV, &Attrs::new(), &[acc, divisor])?;
    Ok(out.into_iter().next().expect("div yields one output"))
}

/// Ring all-reduce mean over one same-shaped shard per worker. Returns the
/// reduced mean resident on *every* worker (in shard order).
///
/// See the module docs for the chunking and combine-order contract.
///
/// # Errors
/// Empty/mismatched shards, or any typed RPC failure.
pub fn ring_all_reduce_mean(
    cluster: &Cluster,
    shards: &[RemoteTensor],
) -> Result<Vec<RemoteTensor>> {
    validate(shards)?;
    let n = shards.len();
    let dims = shards[0].dims.clone();
    let dtype = shards[0].dtype;
    let devices: Vec<String> = shards.iter().map(|s| s.device.to_string()).collect();
    let divisor = Tensor::from_data(scalar(dtype, n as f64));

    let ranges = if !dims.is_empty() && dims[0] >= n { chunk_ranges(dims[0], n) } else { vec![] };

    if ranges.is_empty() {
        // Fallback: one chunk, reduced on worker 0, broadcast to all.
        let mut acc = RemoteArg::from(&shards[0]);
        for s in &shards[1..] {
            let out =
                cluster.execute(&devices[0], "add", &[acc, RemoteArg::from(s)], Attrs::new())?;
            acc = RemoteArg::Remote(one_output(out, "add")?);
        }
        let mean = one_output(
            cluster.execute(&devices[0], "div", &[acc, RemoteArg::from(&divisor)], Attrs::new())?,
            "div",
        )?;
        return devices
            .iter()
            .map(|dev| {
                let out = if dims.is_empty() {
                    // Scalars cannot concat; materialize via `x + 0`.
                    let zero = Tensor::from_data(scalar(dtype, 0.0));
                    cluster.execute(
                        dev,
                        "add",
                        &[RemoteArg::from(&mean), RemoteArg::from(&zero)],
                        Attrs::new(),
                    )?
                } else {
                    cluster.execute(
                        dev,
                        "concat",
                        &[RemoteArg::from(&mean)],
                        Attrs::new().with("axis", 0i64),
                    )?
                };
                one_output(out, "broadcast")
            })
            .collect();
    }

    // Reduce-scatter: chunk k is summed on worker k in ring order.
    let mut chunk_means = Vec::with_capacity(n);
    for (k, &(start, len)) in ranges.iter().enumerate() {
        let owner = &devices[k];
        let out = cluster.execute(
            owner,
            "slice",
            &[RemoteArg::from(&shards[k])],
            slice_attrs(&dims, start, len),
        )?;
        let mut acc = RemoteArg::Remote(one_output(out, "slice")?);
        for j in 1..n {
            let w = (k + j) % n;
            let piece = one_output(
                cluster.execute(
                    &devices[w],
                    "slice",
                    &[RemoteArg::from(&shards[w])],
                    slice_attrs(&dims, start, len),
                )?,
                "slice",
            )?;
            let out =
                cluster.execute(owner, "add", &[acc, RemoteArg::from(&piece)], Attrs::new())?;
            acc = RemoteArg::Remote(one_output(out, "add")?);
        }
        let mean = one_output(
            cluster.execute(owner, "div", &[acc, RemoteArg::from(&divisor)], Attrs::new())?,
            "div",
        )?;
        chunk_means.push(mean);
    }

    // All-gather: every worker concatenates the reduced chunks in order.
    devices
        .iter()
        .map(|dev| {
            let args: Vec<RemoteArg> = chunk_means.iter().map(RemoteArg::from).collect();
            one_output(
                cluster.execute(dev, "concat", &args, Attrs::new().with("axis", 0i64))?,
                "concat",
            )
        })
        .collect()
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
            acc = one(run_kernel(ADD, &Attrs::new(), &[acc, s.clone()])?);
        }
        let mean = one(run_kernel(DIV, &Attrs::new(), &[acc, divisor])?);
        let out = if dims.is_empty() {
            let zero = Arc::new(scalar(dtype, 0.0));
            run_kernel(ADD, &Attrs::new(), &[mean, zero])?
        } else {
            run_kernel(Op::Concat, &Attrs::new().with("axis", 0i64), &[mean])?
        };
        return Ok(out.into_iter().next().expect("one output"));
    }

    let mut chunk_means = Vec::with_capacity(n);
    for (k, &(start, len)) in ranges.iter().enumerate() {
        let mut acc =
            one(run_kernel(Op::Slice, &slice_attrs(&dims, start, len), &[shards[k].clone()])?);
        for j in 1..n {
            let w = (k + j) % n;
            let piece =
                one(run_kernel(Op::Slice, &slice_attrs(&dims, start, len), &[shards[w].clone()])?);
            acc = one(run_kernel(ADD, &Attrs::new(), &[acc, piece])?);
        }
        chunk_means.push(one(run_kernel(DIV, &Attrs::new(), &[acc, divisor.clone()])?));
    }
    let out = run_kernel(Op::Concat, &Attrs::new().with("axis", 0i64), &chunk_means)?;
    Ok(out.into_iter().next().expect("one output"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_evenly() {
        assert_eq!(chunk_ranges(6, 2), vec![(0, 3), (3, 3)]);
        assert_eq!(chunk_ranges(7, 3), vec![(0, 3), (3, 2), (5, 2)]);
        assert_eq!(chunk_ranges(2, 2), vec![(0, 1), (1, 1)]);
        let ranges = chunk_ranges(11, 4);
        assert_eq!(ranges.iter().map(|(_, l)| l).sum::<usize>(), 11);
        assert_eq!(ranges[0].0, 0);
    }
}
