//! # tfe-dist
//!
//! Distributed execution substrate (§4.5 of the TensorFlow Eager paper):
//! a single central coordinator plus worker servers, each contributing its
//! devices to the pool. Remote devices are addressed by application-level
//! names (`/job:training/task:2/device:CPU:0`); tensors produced on a
//! remote device *stay* on that device, and the coordinator can either run
//! more operations on them or fetch them.
//!
//! ## Layering (DESIGN.md §17)
//!
//! ```text
//! collective  ring / parameter-server gradient means as rounds + bit references
//! cluster     ClusterSpec, Cluster, RemoteTensor, Program, the round
//! rpc         send / receive, deadlines, bounded retries, typed errors
//! transport   Transport trait: in-process channels | real TCP sockets
//! wire        length-prefixed frames over tfe-encode's binary syntax
//! ```
//!
//! Both transports run the same protocol bytes end to end — the in-process
//! path encodes/decodes every frame exactly like the TCP path and serves
//! as its bitwise differential reference (`tests/dist_differential.rs`).
//!
//! ## Substitution (DESIGN.md §3)
//!
//! The paper's workers are gRPC servers on remote hosts. Here each worker
//! is a thread in this process — behind a channel, or behind a real
//! localhost `TcpListener` with length-prefixed frames — and every tensor
//! crossing the coordinator↔worker boundary is serialized by the same codec
//! the on-disk artifacts use (`tfe_graph::serial`), as raw little-endian
//! bytes. The mechanism (name resolution,
//! remote-resident tensors, explicit fetch, whole-graph-function dispatch,
//! deadline-bounded RPCs with typed failures) is preserved; only the
//! process boundary differs. Graph functions are resolved by *name*
//! against the shared in-process function library, standing in for
//! shipping the serialized function to the worker once.

#![warn(missing_docs)]

pub mod cluster;
pub mod collective;
pub mod error;
pub mod rpc;
pub mod transport;
pub mod wire;
pub mod worker;

pub use cluster::{
    decode_tensor, Cluster, ClusterSpec, Input, Program, RemoteArg, RemoteTensor, Reply, Result,
    TransportKind,
};
pub use collective::{
    all_reduce_means, ps_all_reduce_mean, ps_reference_mean, ring_all_reduce_mean,
    ring_reference_mean, Mean, Reduced, Shard, Spec,
};
pub use error::DistError;
pub use rpc::{InFlight, RpcClient, RpcOptions};
pub use transport::{InProcessTransport, PendingReply, TcpTransport, Transport, TransportError};
pub use wire::{Frame, WireError, MAX_FRAME_LEN};
pub use worker::WorkerState;

#[cfg(test)]
mod tests {
    use super::*;
    use tfe_core::{function1, Arg};
    use tfe_ops::Attrs;
    use tfe_runtime::api;
    use tfe_tensor::DType;

    #[test]
    fn cluster_spec_tasks() {
        let spec = ClusterSpec::new().with_job("training", 2).unwrap().with_job("ps", 1).unwrap();
        assert_eq!(spec.num_tasks("training"), 2);
        assert_eq!(spec.num_tasks("nope"), 0);
        assert_eq!(spec.tasks().len(), 3);
    }

    #[test]
    fn remote_op_and_fetch() {
        let cluster = Cluster::start(&ClusterSpec::new().with_job("w", 1).unwrap());
        assert_eq!(cluster.list_devices().len(), 1);
        let a = api::constant(vec![1.0f32, 2.0], [2]).unwrap();
        let b = api::constant(vec![10.0f32, 20.0], [2]).unwrap();
        let out = cluster
            .execute(
                "/job:w/task:0/device:CPU:0",
                "add",
                &[RemoteArg::from(&a), RemoteArg::from(&b)],
                Attrs::new(),
            )
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dims, vec![2]);
        let fetched = out[0].fetch().unwrap();
        assert_eq!(fetched.to_f64_vec().unwrap(), vec![11.0, 22.0]);
        cluster.shutdown();
    }

    #[test]
    fn tensors_stay_remote_between_ops() {
        let cluster = Cluster::start(&ClusterSpec::new().with_job("w", 1).unwrap());
        let dev = "/job:w/task:0/device:CPU:0";
        let a = api::scalar(3.0f64);
        let r1 = cluster.execute(dev, "square", &[RemoteArg::from(&a)], Attrs::new()).unwrap();
        // Feed the resident tensor into another remote op without fetching.
        let r2 = cluster
            .execute(dev, "add", &[RemoteArg::from(&r1[0]), RemoteArg::from(&r1[0])], Attrs::new())
            .unwrap();
        assert_eq!(r2[0].fetch().unwrap().scalar_f64().unwrap(), 18.0);
        cluster.shutdown();
    }

    #[test]
    fn remote_graph_function_call() {
        let cluster = Cluster::start(&ClusterSpec::new().with_job("w", 1).unwrap());
        let f = function1("remote_fn", |x| api::relu(&api::neg(x)?));
        let conc = f.concrete_for(&[Arg::from(&api::zeros(DType::F32, [3]))]).unwrap();
        let x = api::constant(vec![1.0f32, -2.0, 3.0], [3]).unwrap();
        let out = cluster
            .call_function(
                "/job:w/task:0/device:CPU:0",
                &conc.function.name,
                &[RemoteArg::from(&x)],
            )
            .unwrap();
        assert_eq!(out[0].fetch().unwrap().to_f64_vec().unwrap(), vec![0.0, 2.0, 0.0]);
        cluster.shutdown();
    }

    #[test]
    fn cross_worker_relay() {
        let cluster = Cluster::start(&ClusterSpec::new().with_job("w", 2).unwrap());
        let d0 = "/job:w/task:0/device:CPU:0";
        let d1 = "/job:w/task:1/device:CPU:0";
        let a = api::scalar(5.0f32);
        let r0 = cluster.execute(d0, "square", &[RemoteArg::from(&a)], Attrs::new()).unwrap();
        // Using a task-0 tensor on task 1 relays through the coordinator.
        let r1 = cluster
            .execute(d1, "add", &[RemoteArg::from(&r0[0]), RemoteArg::from(&a)], Attrs::new())
            .unwrap();
        assert_eq!(r1[0].fetch().unwrap().scalar_f64().unwrap(), 30.0);
        cluster.shutdown();
    }

    #[test]
    fn errors_propagate_from_worker() {
        let cluster = Cluster::start(&ClusterSpec::new().with_job("w", 1).unwrap());
        let dev = "/job:w/task:0/device:CPU:0";
        let a = api::scalar(1.0f32);
        let b = api::scalar(1i32);
        // dtype mismatch detected on the worker: a typed remote fault.
        assert!(matches!(
            cluster.execute(dev, "add", &[RemoteArg::from(&a), RemoteArg::from(&b)], Attrs::new()),
            Err(DistError::RemoteFault { .. })
        ));
        // Unknown job.
        assert!(matches!(
            cluster.execute("/job:nope/task:0/device:CPU:0", "add", &[], Attrs::new()),
            Err(DistError::NoSuchWorker(_))
        ));
        // Unknown function.
        assert!(matches!(
            cluster.call_function(dev, "no_such_fn", &[]),
            Err(DistError::RemoteFault { .. })
        ));
        cluster.shutdown();
    }

    #[test]
    fn data_parallel_workers() {
        // A miniature single-coordinator data-parallel step: each worker
        // computes a partial sum; the coordinator averages.
        let cluster = Cluster::start(&ClusterSpec::new().with_job("train", 3).unwrap());
        let mut partials = Vec::new();
        for t in 0..3 {
            let shard = api::constant(vec![t as f32 + 1.0, 2.0 * (t as f32 + 1.0)], [2]).unwrap();
            let dev = format!("/job:train/task:{t}/device:CPU:0");
            let r = cluster
                .execute(
                    &dev,
                    "reduce_sum",
                    &[RemoteArg::from(&shard)],
                    Attrs::new().with("axes", Vec::<i64>::new()).with("keep_dims", false),
                )
                .unwrap();
            partials.push(r.into_iter().next().unwrap());
        }
        let values: Vec<f64> =
            partials.iter().map(|p| p.fetch().unwrap().scalar_f64().unwrap()).collect();
        assert_eq!(values, vec![3.0, 6.0, 9.0]);
        cluster.shutdown();
    }
}
