//! The tensor codec is bit-exact on every surface a tensor can leave the
//! process through: a wire frame, a saved-function bundle, a checkpoint.
//! The corpus is the values a decimal rendering cannot carry: NaNs with
//! payload and sign bits, ±Inf, −0.0, subnormals, i64 beyond 2^53, bools.
//!
//! `tests/fixtures/*_v1.json` were written by the decimal-array encoder this
//! codec replaced; they still load, bit-equal to the tensors they were made
//! from.

use tf_eager::dist::{Cluster, ClusterSpec, Frame, RemoteArg, TransportKind};
use tf_eager::encode::Value;
use tf_eager::graph::serial::{tensor_from_value, tensor_to_value};
use tf_eager::prelude::*;
use tf_eager::state::{checkpoint, saved, TrackableGroup};
use tf_eager::{context, Attrs, Op};

fn edge_tensors() -> Vec<TensorData> {
    let f32s = vec![
        f32::NAN,
        f32::from_bits(0xffc0_1234), // negative quiet NaN with a payload
        f32::from_bits(0x7f80_0001), // signalling NaN
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        f32::from_bits(1), // smallest subnormal
        f32::from_bits(0x007f_ffff),
        1.5,
    ];
    let f64s = vec![
        f64::NAN,
        f64::from_bits(0xfff8_0000_dead_beef),
        f64::from_bits(0x7ff0_0000_0000_0001),
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        f64::from_bits(1),
        f64::from_bits(0x000f_ffff_ffff_ffff),
        0.1,
    ];
    let i64s = vec![i64::MIN, i64::MAX, (1 << 53) + 1, -(1 << 53) - 1, 0];
    vec![
        TensorData::from_vec(f32s, [3, 3]).unwrap(),
        TensorData::from_vec(f64s, [9]).unwrap(),
        TensorData::from_vec(i64s, [5]).unwrap(),
        TensorData::from_vec(vec![i32::MIN, i32::MAX, -1], [3, 1]).unwrap(),
        TensorData::from_vec(vec![true, false, true, true], [2, 2]).unwrap(),
        TensorData::scalar(f32::NEG_INFINITY),
        TensorData::zeros(DType::F32, [0, 3]),
    ]
}

/// What the v1 fixtures hold: the finite edge cases the old encoder could
/// write.
fn v1_fixture_tensors() -> Vec<TensorData> {
    vec![
        TensorData::from_vec(vec![0.1f32, -0.0, f32::from_bits(1), f32::MAX, -2.5, 1e-7], [2, 3])
            .unwrap(),
        TensorData::from_vec(vec![0.1f64, -0.0, f64::from_bits(1), f64::MAX, 1.0 / 3.0], [5])
            .unwrap(),
        TensorData::from_vec(vec![i64::MIN, i64::MAX, (1 << 53) + 1, 0], [4]).unwrap(),
        TensorData::from_vec(vec![i32::MIN, i32::MAX, -1], [3, 1]).unwrap(),
        TensorData::from_vec(vec![true, false, true], [3]).unwrap(),
        TensorData::scalar(0.3f32),
        TensorData::zeros(DType::F32, [0, 3]),
    ]
}

fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Dtype, dims and the raw bit pattern of every element.
fn bits(t: &TensorData) -> (DType, Vec<usize>, Vec<u64>) {
    let raw = match t.dtype() {
        DType::F32 => t.as_slice::<f32>().unwrap().iter().map(|v| v.to_bits() as u64).collect(),
        DType::F64 => t.as_slice::<f64>().unwrap().iter().map(|v| v.to_bits()).collect(),
        DType::I32 => t.as_slice::<i32>().unwrap().iter().map(|&v| v as u32 as u64).collect(),
        DType::I64 => t.as_slice::<i64>().unwrap().iter().map(|&v| v as u64).collect(),
        DType::Bool => t.as_slice::<bool>().unwrap().iter().map(|&v| v as u64).collect(),
    };
    (t.dtype(), t.shape().dims().to_vec(), raw)
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tfe_codec_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn frame_round_trip_is_bitwise() {
    for t in edge_tensors() {
        let frame = Frame::new(7, None, Value::object([("ok".to_string(), tensor_to_value(&t))]));
        let decoded = Frame::decode(&frame.encode()).expect("frame decodes");
        let back = tensor_from_value(decoded.body.get("ok").unwrap()).expect("tensor decodes");
        assert_eq!(bits(&back), bits(&t));
    }
}

/// The same corpus through a live worker on each transport: shipped inline,
/// held resident, fetched back.
#[test]
fn worker_round_trip_is_bitwise() {
    tf_eager::init();
    let spec = ClusterSpec::new().with_job("codec", 1).unwrap();
    let dev = "/job:codec/task:0/device:CPU:0";
    for kind in [TransportKind::InProcess, TransportKind::Tcp] {
        let cluster = Cluster::start_with(&spec, kind, Default::default()).unwrap();
        for t in edge_tensors() {
            let local = Tensor::from_data(t.clone());
            let placed =
                cluster.execute(dev, "identity", &[RemoteArg::from(&local)], Attrs::new()).unwrap();
            let back = placed[0].fetch().unwrap().value().unwrap();
            assert_eq!(bits(&back), bits(&t), "{kind:?}");
        }
        cluster.shutdown();
    }
}

/// A function of one ignored argument that returns every tensor twice:
/// once held as a by-value capture, once as a variable.
fn returns_all(name: &str, tensors: &[TensorData]) -> Func {
    let captures: Vec<Tensor> = tensors.iter().cloned().map(Tensor::from_data).collect();
    let variables: Vec<Variable> = tensors.iter().cloned().map(Variable::new).collect();
    function(name, move |_args| {
        let mut out = Vec::new();
        for c in &captures {
            out.extend(context::execute(Op::Identity, std::slice::from_ref(c), Attrs::new())?);
        }
        for v in &variables {
            out.push(v.read()?);
        }
        Ok(out)
    })
}

/// A bundle of `returns_all(tensors)` returns and holds exactly `tensors`.
fn assert_bundle_holds(loaded: &saved::LoadedFunction, tensors: &[TensorData]) {
    let out = loaded.call(&[&api::scalar(0.0f32)]).unwrap();
    assert_eq!(out.len(), 2 * tensors.len());
    for (i, t) in tensors.iter().enumerate() {
        assert_eq!(bits(&out[i].value().unwrap()), bits(t), "capture {i}");
        assert_eq!(bits(&out[tensors.len() + i].value().unwrap()), bits(t), "variable {i}");
    }
    let mut restored: Vec<_> = loaded.variables.values().map(|v| bits(&v.peek())).collect();
    let mut expected: Vec<_> = tensors.iter().map(bits).collect();
    restored.sort();
    expected.sort();
    assert_eq!(restored, expected);
}

fn group(vars: &[Variable]) -> TrackableGroup {
    vars.iter()
        .enumerate()
        .fold(TrackableGroup::new(), |g, (i, v)| g.with_variable(&format!("v{i}"), v))
}

/// Restoring the checkpoint at `path` into zeroed variables yields `tensors`.
fn assert_checkpoint_holds(path: impl AsRef<std::path::Path>, tensors: &[TensorData]) {
    let fresh: Vec<Variable> = tensors
        .iter()
        .map(|t| Variable::new(TensorData::zeros(t.dtype(), t.shape().clone())))
        .collect();
    let status = checkpoint::restore(&group(&fresh), path).unwrap();
    assert!(status.is_complete(), "{status:?}");
    for (v, t) in fresh.iter().zip(tensors) {
        assert_eq!(bits(&v.peek()), bits(t));
    }
}

#[test]
fn bundle_round_trip_is_bitwise() {
    tf_eager::init();
    let tensors = edge_tensors();
    let f = returns_all("codec_bundle", &tensors);
    let conc = f.concrete_for(&[Arg::from(&api::scalar(0.0f32))]).unwrap();
    let dir = scratch_dir("bundle");
    let path = dir.join("fn.json");
    saved::export(&conc, &path).unwrap();
    let loaded = saved::import(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_bundle_holds(&loaded, &tensors);
}

/// A function the optimizer folded and merged constants in: the bundle
/// holds the optimized graph, whose pool has one entry per `const` node —
/// nothing a fold consumed or a merge orphaned is written out — and the
/// loaded function answers bit-equal to the traced one.
#[test]
fn folded_bundle_round_trips_without_orphan_constants() {
    tf_eager::init();
    let nan = f32::from_bits(0xffc0_1234);
    let f = function1("codec_folded", move |x| {
        // (2 * 3) folds; both `-0.0`s are one constant; the NaN keeps its
        // payload through the pool, the bundle and back.
        let six = api::mul(&api::scalar(2.0f32), &api::scalar(3.0f32))?;
        let y = api::add(&api::mul(x, &six)?, &api::scalar(-0.0f32))?;
        let z = api::maximum(&y, &api::scalar(-0.0f32))?;
        api::concat(&[&z, &api::constant(vec![nan, -0.0], [2])?], 0)
    });
    let x = api::constant(vec![-0.0f32, 1.5], [2]).unwrap();
    let conc = f.concrete_for(&[Arg::from(&x)]).unwrap();
    let const_nodes =
        |g: &tf_eager::graph::GraphFunction| g.nodes.iter().filter(|n| n.op == Op::Const).count();
    assert!(conc.raw.constants.len() > conc.function.constants.len(), "nothing was folded");
    assert_eq!(conc.function.constants.len(), const_nodes(&conc.function));

    let bundle = saved::export_to_value(&conc).unwrap();
    let loaded = saved::import_from_value(&bundle).unwrap();
    let graph = context::library().get(loaded.entry_name()).expect("loaded entry");
    assert_eq!(graph.constants.len(), const_nodes(&graph), "{}", graph.dump());
    assert_eq!(graph.constants.len(), conc.function.constants.len());
    for (a, b) in graph.constants.iter().zip(&conc.function.constants) {
        assert_eq!(bits(a), bits(b));
    }
    let direct = f.call1(&x).unwrap().value().unwrap();
    let through = loaded.call(&[&x]).unwrap()[0].value().unwrap();
    assert_eq!(bits(&through), bits(&direct));
    assert_eq!(bits(&direct).2[2], nan.to_bits() as u64);
}

#[test]
fn v1_bundle_fixture_loads_bit_equal() {
    tf_eager::init();
    let text = std::fs::read_to_string(fixture("bundle_v1.json")).unwrap();
    assert!(text.contains("1.401298464324817e-45"), "fixture holds decimal arrays");
    let loaded = saved::import(fixture("bundle_v1.json")).unwrap();
    assert_bundle_holds(&loaded, &v1_fixture_tensors());
}

#[test]
fn v1_checkpoint_fixture_restores_bit_equal() {
    tf_eager::init();
    assert_checkpoint_holds(fixture("checkpoint_v1.json"), &v1_fixture_tensors());
}

#[test]
fn checkpoint_round_trip_is_bitwise() {
    tf_eager::init();
    let tensors = edge_tensors();
    let saved_vars: Vec<Variable> = tensors.iter().cloned().map(Variable::new).collect();
    let dir = scratch_dir("ckpt");
    let path = dir.join("edge.ckpt");
    checkpoint::save(&group(&saved_vars), &path).unwrap();
    assert_checkpoint_holds(&path, &tensors);
    std::fs::remove_dir_all(&dir).ok();
}
