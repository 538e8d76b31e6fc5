//! Serialization integration: graph functions and whole libraries survive
//! JSON round trips *and still execute*; SavedFunction bundles deploy a
//! ResNet; checkpoints interoperate with the Listing 3 model.

use std::sync::Arc;
use tf_eager::encode::Value;
use tf_eager::graph::serial;
use tf_eager::nn::layers::Layer;
use tf_eager::nn::resnet::resnet_tiny;
use tf_eager::nn::Initializer;
use tf_eager::prelude::*;
use tfe_runtime::{context, executor, ExecMode};

#[test]
fn serialized_graph_still_executes() {
    tf_eager::init();
    let f = function1("serial_exec", |x| {
        let a = api::mul(x, &api::scalar(3.0f64))?;
        api::softplus(&a)
    });
    let conc = f.concrete_for(&[Arg::from(&api::zeros(DType::F64, [4]))]).unwrap();
    // JSON text round trip.
    let text = serial::function_to_value(&conc.function).to_json();
    let back = serial::function_from_value(&Value::parse(&text).unwrap()).unwrap();
    // Ops travel as names and come back as the same `Op`s: same graph.
    assert_eq!(back.structural_hash(), conc.function.structural_hash());
    assert_eq!(back.dump(), conc.function.dump());
    // Execute the deserialized graph directly through the executor.
    let x = Arc::new(TensorData::from_vec(vec![0.0f64, 1.0, -1.0, 2.0], Shape::from([4])).unwrap());
    let device = context::device_manager().host_cpu();
    let out =
        executor::run_function(&back, std::slice::from_ref(&x), &device, ExecMode::SerialPlanned)
            .unwrap();
    let direct = f.call1(&Tensor::from_data(x.as_ref().clone())).unwrap().value().unwrap();
    assert!(out[0].all_close(&direct, 1e-12, 1e-12));
}

#[test]
fn library_round_trip_preserves_call_edges() {
    tf_eager::init();
    let inner = function1("serial_inner", api::square);
    let outer = {
        let inner = inner.clone();
        function1("serial_outer", move |x| Ok(inner.call_tensors(&[x])?.remove(0)))
    };
    let conc = outer.concrete_for(&[Arg::from(&api::scalar(2.0f64))]).unwrap();
    // The entry and what it calls, through JSON text, linked back by name.
    let set = serial::closure(&conc.function).unwrap();
    assert_eq!(set.len(), 2);
    let decoded = set
        .iter()
        .map(|f| {
            let text = serial::function_to_value(f).to_json();
            serial::function_from_value(&Value::parse(&text).unwrap()).unwrap()
        })
        .collect();
    let restored = serial::link(decoded).unwrap();
    let names: Vec<&String> = restored.keys().collect();
    let mut want: Vec<&String> = set.iter().map(|f| &f.name).collect();
    want.sort();
    assert_eq!(names, want);
    let rf = &restored[&conc.function.name];
    assert!(rf.nodes.iter().any(|n| n.op == "call"));
    let callees = rf.callees();
    assert_eq!(callees.len(), 1);
    assert!(Arc::ptr_eq(&callees[0], &restored[&set[1].name]));
}

#[test]
fn saved_function_deploys_a_resnet() {
    tf_eager::init();
    let model = Arc::new(resnet_tiny(3, &mut Initializer::seeded(8)));
    let infer = {
        let model = model.clone();
        function1("resnet_infer", move |x| model.call(x, false))
    };
    let x = Tensor::from_data(
        tfe_tensor::rng::TensorRng::seed_from_u64(4)
            .uniform(DType::F32, Shape::from([2, 8, 8, 3]), 0.0, 1.0)
            .unwrap(),
    );
    let reference = infer.call1(&x).unwrap().to_f64_vec().unwrap();
    let conc = infer.concrete_for(&[Arg::from(&api::zeros(DType::F32, [2, 8, 8, 3]))]).unwrap();
    let bundle = tf_eager::state::saved::export_to_value(&conc).unwrap();
    // The bundle text is a real JSON document.
    let text = bundle.to_json();
    assert!(text.len() > 10_000, "resnet bundle suspiciously small");
    let loaded = tf_eager::state::saved::import_from_value(&Value::parse(&text).unwrap()).unwrap();
    // Batch-norm moving statistics and conv filters all came along.
    assert!(loaded.variables.len() >= 20, "{} variables", loaded.variables.len());
    let served = loaded.call(&[&x]).unwrap()[0].to_f64_vec().unwrap();
    for (a, b) in reference.iter().zip(&served) {
        assert!((a - b).abs() < 1e-5, "deployed resnet diverged: {a} vs {b}");
    }
}

#[test]
fn listing3_net_checkpoint_through_files() {
    tf_eager::init();
    let net = tf_eager::nn::layers::Net::new(&mut Initializer::seeded(2));
    let x = api::constant(vec![1.0f32, -1.0], [2, 1]).unwrap();
    let before = net.call(&x, false).unwrap().to_f64_vec().unwrap();

    let dir = std::env::temp_dir().join(format!("tfe_listing3_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("net.ckpt");
    tf_eager::state::checkpoint::save(net.trackable().as_ref(), &path).unwrap();

    // A brand-new Net (different variable ids, same structure) restores by
    // graph matching, not by names or creation order (§4.3).
    let net2 = tf_eager::nn::layers::Net::new(&mut Initializer::seeded(999));
    let status = tf_eager::state::checkpoint::restore(net2.trackable().as_ref(), &path).unwrap();
    assert!(status.is_complete(), "{status:?}");
    let after = net2.call(&x, false).unwrap().to_f64_vec().unwrap();
    assert_eq!(before, after);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_artifacts_rejected_cleanly() {
    tf_eager::init();
    // Checkpoints and bundles both validate structure before mutating
    // anything.
    assert!(tf_eager::state::saved::import_from_value(&Value::parse("{}").unwrap()).is_err());
    let net = tf_eager::nn::layers::Net::new(&mut Initializer::seeded(1));
    let bogus =
        Value::parse(r#"{"format":"tfe-checkpoint-v1","nodes":[{"kind":"mystery"}]}"#).unwrap();
    assert!(
        tf_eager::state::checkpoint::restore_from_value(net.trackable().as_ref(), &bogus).is_err()
    );
    // Graph with a cycle/forward edge is rejected at decode time.
    let f = function1("validate_me", api::relu);
    let conc = f.concrete_for(&[Arg::from(&api::scalar(1.0f32))]).unwrap();
    let mut v = serial::function_to_value(&conc.function);
    if let Value::Object(map) = &mut v {
        map.insert("inputs".to_string(), Value::Array(vec![Value::Int(999)]));
    }
    assert!(serial::function_from_value(&v).is_err());
}
