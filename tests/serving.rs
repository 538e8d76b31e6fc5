//! Differential serving gate (DESIGN.md §15): concurrent requests routed
//! through the adaptive micro-batcher must be *bitwise identical* to the
//! same requests executed one-by-one against the bare servable — across
//! batch sizes, degenerate member shapes, and version swaps — and a
//! poisoned batch must fail every member with the typed error, never hang.

use std::sync::{Arc, Barrier, Weak};
use std::time::{Duration, Instant};
use tf_eager::graph::GraphFunction;
use tf_eager::prelude::*;
use tf_eager::serve::{BatchPolicy, ModelRegistry, ServeError};
use tf_eager::state::saved;
use tf_eager::RuntimeError;

/// A small MLP (matmul + bias + relu + softmax) traced with a dynamic
/// leading dimension so one trace serves every batch size.
fn mlp(name: &str, scale: f32) -> Func {
    function1(name, move |x| {
        let w = api::constant(
            vec![
                0.7f32 * scale,
                -0.3,
                0.5,
                0.9 * scale,
                -0.2,
                0.8,
                0.1,
                -0.6,
                0.4,
                0.3,
                -0.5 * scale,
                0.2,
                -0.9,
                0.6,
                0.25,
                -0.75,
            ],
            [4, 4],
        )?;
        let b = api::constant(vec![0.05f32, -0.1, 0.2, 0.0], [4])?;
        api::softmax(&api::relu(&api::add(&api::matmul(x, &w)?, &b)?)?)
    })
    .with_input_signature(vec![TensorSpec::new(DType::F32, vec![None, Some(4)])])
}

fn example(i: usize, rows: usize) -> Tensor {
    let vals: Vec<f32> =
        (0..rows * 4).map(|j| ((i * 7 + j * 3) % 13) as f32 * 0.37 - 1.5).collect();
    api::constant(vals, [rows, 4]).unwrap()
}

fn policy(max_batch: usize) -> BatchPolicy {
    BatchPolicy { max_batch, budget: Duration::from_millis(50) }
}

/// N concurrent single-example requests through the batcher vs. N
/// sequential unbatched calls: outputs must match exactly.
fn differential(tag: &str, n: usize, max_batch: usize) {
    let name = format!("serve_diff_{tag}");
    let f = mlp(&name, 1.0);
    let inputs: Vec<Tensor> = (0..n).map(|i| example(i, 1)).collect();
    let expected: Vec<Vec<f64>> =
        inputs.iter().map(|x| f.call_tensors(&[x]).unwrap()[0].to_f64_vec().unwrap()).collect();

    let registry = Arc::new(ModelRegistry::new());
    registry.register_with(&name, 1, f, policy(max_batch)).unwrap();
    let barrier = Arc::new(Barrier::new(n));
    let handles: Vec<_> = inputs
        .into_iter()
        .enumerate()
        .map(|(i, x)| {
            let registry = Arc::clone(&registry);
            let barrier = Arc::clone(&barrier);
            let name = name.clone();
            std::thread::spawn(move || {
                barrier.wait();
                (i, registry.infer(&name, &[&x]).map(|outs| outs[0].to_f64_vec().unwrap()))
            })
        })
        .collect();
    for h in handles {
        let (i, got) = h.join().unwrap();
        assert_eq!(got.unwrap(), expected[i], "member {i} diverged ({tag})");
    }
}

#[test]
fn differential_sync_across_batch_sizes() {
    differential("sync_1x8", 1, 8);
    differential("sync_4x2", 4, 2);
    differential("sync_8x8", 8, 8);
    differential("sync_16x5", 16, 5);
    differential("sync_8x3", 8, 3);
    differential("sync_16x16", 16, 16);
}

/// Mixed row counts per request — including a zero-row member — exercise
/// the slice fan-out path.
#[test]
fn differential_mixed_and_zero_row_members() {
    let name = "serve_diff_mixed";
    let f = mlp(name, 0.8);
    let rows = [0usize, 1, 3, 1, 2, 0];
    let inputs: Vec<Tensor> = rows.iter().enumerate().map(|(i, &r)| example(i, r)).collect();
    let expected: Vec<Vec<f64>> =
        inputs.iter().map(|x| f.call_tensors(&[x]).unwrap()[0].to_f64_vec().unwrap()).collect();
    let registry = Arc::new(ModelRegistry::new());
    registry.register_with(name, 1, f, policy(16)).unwrap();
    let barrier = Arc::new(Barrier::new(rows.len()));
    let handles: Vec<_> = inputs
        .into_iter()
        .enumerate()
        .map(|(i, x)| {
            let registry = Arc::clone(&registry);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                (i, registry.infer("serve_diff_mixed", &[&x]).map(|o| o[0].to_f64_vec().unwrap()))
            })
        })
        .collect();
    for h in handles {
        let (i, got) = h.join().unwrap();
        assert_eq!(got.unwrap(), expected[i], "member {i} diverged");
    }
}

/// A served SavedFunction bundle produces the same bits as the Func it was
/// exported from.
#[test]
fn loaded_bundle_matches_staged() {
    let name = "serve_loaded";
    let f = mlp(name, 1.1);
    let probe = example(0, 1);
    let conc = f.concrete_for(&[Arg::from(&probe)]).unwrap();
    let bundle = saved::export_to_value(&conc).unwrap();
    let loaded = saved::import_from_value(&bundle).unwrap();

    let inputs: Vec<Tensor> = (0..6).map(|i| example(i, 1)).collect();
    let expected: Vec<Vec<f64>> =
        inputs.iter().map(|x| f.call_tensors(&[x]).unwrap()[0].to_f64_vec().unwrap()).collect();
    let registry = Arc::new(ModelRegistry::new());
    registry.register_with(name, 1, loaded, policy(8)).unwrap();
    let barrier = Arc::new(Barrier::new(inputs.len()));
    let handles: Vec<_> = inputs
        .into_iter()
        .enumerate()
        .map(|(i, x)| {
            let registry = Arc::clone(&registry);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                (i, registry.infer("serve_loaded", &[&x]).map(|o| o[0].to_f64_vec().unwrap()))
            })
        })
        .collect();
    for h in handles {
        let (i, got) = h.join().unwrap();
        assert_eq!(got.unwrap(), expected[i], "bundle member {i} diverged");
    }
}

/// A mid-batch fault (out-of-range gather index in one member) fails every
/// member of the batch with the typed error: `op` names the staged entry
/// the batch died in, `source` carries the kernel-level cause (`gather`).
#[test]
fn poisoned_batch_fails_every_member_sync() {
    let name = "serve_fault_sync".to_string();
    let f = {
        let n = name.clone();
        function1(&n.clone(), move |idx| {
            let table = api::constant(vec![10.0f32, 20.0, 30.0, 40.0], [4])?;
            api::gather(&table, idx, 0)
        })
        .with_input_signature(vec![TensorSpec::new(DType::I64, vec![None])])
    };
    let registry = Arc::new(ModelRegistry::new());
    registry
        .register_with(
            &name,
            1,
            f,
            BatchPolicy { max_batch: 4, budget: Duration::from_millis(500) },
        )
        .unwrap();
    let barrier = Arc::new(Barrier::new(4));
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let registry = Arc::clone(&registry);
            let barrier = Arc::clone(&barrier);
            let name = name.clone();
            std::thread::spawn(move || {
                // Member 2 carries a poisoned index.
                let v: i64 = if i == 2 { 99 } else { i };
                let x = api::constant(vec![v], [1]).unwrap();
                barrier.wait();
                registry.infer(&name, &[&x])
            })
        })
        .collect();
    let started = Instant::now();
    for h in handles {
        let r = h.join().unwrap();
        match r {
            Err(ServeError::Batch { op, source }) => {
                assert!(op.contains(&name), "batch error should name the staged entry, got `{op}`");
                assert!(
                    source.to_string().contains("gather"),
                    "source should carry the faulting kernel, got `{source}`"
                );
            }
            other => panic!("expected ServeError::Batch for every member, got {other:?}"),
        }
    }
    // "Never a hang": the whole fan-out resolves promptly.
    assert!(started.elapsed() < Duration::from_secs(10));
}

/// Concurrent requests with mismatched arity against a `Staged` servable
/// (which declares no arity the front door could check) must not poison
/// the batcher: matching requests succeed bitwise, wrong-arity ones fail
/// with a typed error, and nothing hangs. The worker closes
/// arity-homogeneous batches, so a stray 1-arg request can never drive
/// the 2-arg fan-in out of bounds (which used to panic the worker and
/// strand every parked caller).
#[test]
fn mixed_arity_requests_fail_typed_never_hang() {
    let name = "serve_arity";
    let f = function(name, |args| {
        let a = args
            .first()
            .and_then(Arg::as_tensor)
            .ok_or_else(|| RuntimeError::Internal("missing arg 0".to_string()))?;
        let b = args
            .get(1)
            .and_then(Arg::as_tensor)
            .ok_or_else(|| RuntimeError::Internal("missing arg 1".to_string()))?;
        Ok(vec![api::add(a, b)?])
    });
    let expected: Vec<Vec<f64>> = (0..8)
        .map(|i| {
            let (a, b) = (example(i, 1), example(i + 100, 1));
            f.call_tensors(&[&a, &b]).unwrap()[0].to_f64_vec().unwrap()
        })
        .collect();

    let registry = Arc::new(ModelRegistry::new());
    registry.register_with(name, 1, f, policy(8)).unwrap();
    let barrier = Arc::new(Barrier::new(12));
    let good: Vec<_> = (0..8)
        .map(|i| {
            let registry = Arc::clone(&registry);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let (a, b) = (example(i, 1), example(i + 100, 1));
                barrier.wait();
                registry.infer("serve_arity", &[&a, &b]).map(|o| o[0].to_f64_vec().unwrap())
            })
        })
        .collect();
    let bad: Vec<_> = (0..4)
        .map(|i| {
            let registry = Arc::clone(&registry);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                // One input where the servable traces two.
                let a = example(i, 1);
                barrier.wait();
                registry.infer("serve_arity", &[&a])
            })
        })
        .collect();
    let started = Instant::now();
    for (i, h) in good.into_iter().enumerate() {
        assert_eq!(h.join().unwrap().unwrap(), expected[i], "well-formed member {i} diverged");
    }
    for h in bad {
        match h.join().unwrap() {
            Err(ServeError::Batch { .. } | ServeError::Panic { .. }) => {}
            other => panic!("wrong-arity request must fail typed, got {other:?}"),
        }
    }
    assert!(started.elapsed() < Duration::from_secs(10), "mixed-arity fan-out hung");
}

/// A servable whose traced closure panics must fail every member with the
/// typed `ServeError::Panic` — the worker catches the unwind instead of
/// dying with callers parked on a dead queue — and the model keeps
/// answering (with errors) afterwards.
#[test]
fn panicking_servable_fails_members_typed_never_hangs() {
    let f = function1("serve_panics", |_x| panic!("deliberate serving-test panic"));
    let registry = Arc::new(ModelRegistry::new());
    registry.register_with("panics", 1, f, policy(4)).unwrap();
    let barrier = Arc::new(Barrier::new(4));
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let registry = Arc::clone(&registry);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let x = example(i, 1);
                barrier.wait();
                registry.infer("panics", &[&x])
            })
        })
        .collect();
    let started = Instant::now();
    for h in handles {
        match h.join().unwrap() {
            Err(ServeError::Panic { model, message }) => {
                assert_eq!(model, "panics");
                assert!(
                    message.contains("deliberate serving-test panic"),
                    "panic payload should survive, got `{message}`"
                );
            }
            other => panic!("expected ServeError::Panic for every member, got {other:?}"),
        }
    }
    assert!(started.elapsed() < Duration::from_secs(10), "panicked batch left callers parked");
    // The worker survived the unwind: later requests still resolve.
    let x = example(9, 1);
    assert!(matches!(registry.infer("panics", &[&x]), Err(ServeError::Panic { .. })));
}

/// Version registry semantics: `latest` swings atomically to the newest
/// version, pinned versions stay servable, rollback re-points the alias,
/// unregister shuts everything down.
#[test]
fn version_swap_and_rollback() {
    let registry = ModelRegistry::new();
    let x = example(3, 1);
    let f1 = mlp("serve_ver_a", 1.0);
    let f2 = mlp("serve_ver_b", 2.0);
    let y1 = f1.call_tensors(&[&x]).unwrap()[0].to_f64_vec().unwrap();
    let y2 = f2.call_tensors(&[&x]).unwrap()[0].to_f64_vec().unwrap();
    assert_ne!(y1, y2, "the two versions must be distinguishable");

    registry.register_with("m", 1, f1, policy(4)).unwrap();
    assert_eq!(registry.latest("m"), Some(1));
    assert_eq!(registry.infer("m", &[&x]).unwrap()[0].to_f64_vec().unwrap(), y1);

    registry.register_with("m", 2, f2, policy(4)).unwrap();
    assert_eq!(registry.latest("m"), Some(2));
    assert_eq!(registry.versions("m"), vec![1, 2]);
    assert_eq!(registry.infer("m", &[&x]).unwrap()[0].to_f64_vec().unwrap(), y2);
    // Pinned old version still serves.
    assert_eq!(registry.infer_version("m", 1, &[&x]).unwrap()[0].to_f64_vec().unwrap(), y1);

    // Duplicate version rejected.
    let f_dup = mlp("serve_ver_c", 3.0);
    assert!(matches!(registry.register("m", 2, f_dup), Err(ServeError::DuplicateVersion { .. })));

    // Rollback.
    registry.set_latest("m", 1).unwrap();
    assert_eq!(registry.infer("m", &[&x]).unwrap()[0].to_f64_vec().unwrap(), y1);
    assert!(matches!(
        registry.set_latest("m", 9),
        Err(ServeError::UnknownVersion { version: 9, .. })
    ));

    assert!(registry.unregister("m"));
    assert!(!registry.unregister("m"));
    assert!(matches!(registry.infer("m", &[&x]), Err(ServeError::UnknownModel(_))));
}

/// A model version owns the graphs it was loaded with: every function a
/// bundle brought is alive while a version serves from it and gone once the
/// version is unregistered.
#[test]
fn unregister_frees_the_functions_a_loaded_version_brought() {
    let inner = function1("serve_owned_inner", api::tanh);
    let f = function1("serve_owned", move |x| inner.call1(&api::mul(x, &api::scalar(0.5f32))?));
    let x = example(4, 2);
    let want = f.call1(&x).unwrap().to_f64_vec().unwrap();
    let conc = f.concrete_for(&[Arg::from(&x)]).unwrap();
    let loaded = saved::import_from_value(&saved::export_to_value(&conc).unwrap()).unwrap();
    let entry = loaded.entry().clone();
    let of_this_load: Vec<Weak<GraphFunction>> =
        std::iter::once(&entry).chain(&entry.callees()).map(Arc::downgrade).collect();
    drop(entry);
    let alive = || of_this_load.iter().filter(|f| f.strong_count() > 0).count();
    assert_eq!(alive(), 2, "the entry function and the one it calls");

    let registry = ModelRegistry::new();
    registry.register_with("owned", 1, loaded, policy(4)).unwrap();
    assert_eq!(registry.infer("owned", &[&x]).unwrap()[0].to_f64_vec().unwrap(), want);
    assert_eq!(alive(), 2);
    assert!(registry.unregister("owned"));
    assert_eq!(alive(), 0, "the version took its functions with it");
}

/// Malformed requests are rejected at the front door with `BadRequest`.
#[test]
fn front_door_validation() {
    let registry = ModelRegistry::new();
    registry.register_with("v", 1, mlp("serve_val", 1.0), policy(4)).unwrap();
    // Scalar input: no batch dimension.
    let s = api::scalar(1.0f32);
    assert!(matches!(registry.infer("v", &[&s]), Err(ServeError::BadRequest(_))));
    // No inputs.
    assert!(matches!(registry.infer("v", &[]), Err(ServeError::BadRequest(_))));
    // Unknown model.
    let x = example(0, 1);
    assert!(matches!(registry.infer("nope", &[&x]), Err(ServeError::UnknownModel(_))));
}

/// A lone request must not wait for `max_batch`: the latency budget closes
/// the batch.
#[test]
fn budget_closes_partial_batch() {
    let registry = ModelRegistry::new();
    registry
        .register_with(
            "lone",
            1,
            mlp("serve_lone", 1.0),
            BatchPolicy { max_batch: 1024, budget: Duration::from_millis(10) },
        )
        .unwrap();
    let x = example(1, 1);
    let started = Instant::now();
    registry.infer("lone", &[&x]).unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "single request stalled waiting for a full batch"
    );
}

/// The serving layer is the first multi-shape stress consumer of the trace
/// cache: a `Staged` servable without an input signature retraces per batch
/// shape, and the bounded retrace log must not grow past its cap (64).
#[test]
fn staged_stress_keeps_retrace_log_bounded() {
    let f = function1("serve_stress", api::relu);
    let registry = ModelRegistry::new();
    registry
        .register_with(
            "stress",
            1,
            f.clone(),
            BatchPolicy { max_batch: usize::MAX, budget: Duration::from_millis(1) },
        )
        .unwrap();
    // 70 distinct row counts -> 70 distinct traced shapes (no signature).
    for rows in 1..=70usize {
        let x = api::constant(vec![0.5f32; rows * 2], [rows, 2]).unwrap();
        let y = registry.infer("stress", &[&x]).unwrap();
        assert_eq!(y[0].shape().unwrap().dims(), &[rows, 2]);
    }
    let retained = f.retraces().len();
    let dropped = f.dropped_retraces();
    assert!(retained <= 64, "retrace log exceeded its cap: {retained}");
    assert!(dropped > 0, "expected evictions after 69 retraces, dropped={dropped}");
    assert_eq!(retained as u64 + dropped, 69, "ordinal accounting drifted");
    let report = f.retrace_report();
    assert!(report.contains("older retraces dropped"), "report must surface the drop count");
}

// ---------------------------------------------------------------------------
// Queue-depth gauge balance
// ---------------------------------------------------------------------------

/// Read the `tfe_serve_queue_depth` gauge series for one `model@vN` label
/// (the registry keys every serve metric by that label; the snapshot has
/// no labeled-gauge accessor, so search the family's samples).
fn queue_depth(label: &str) -> i64 {
    tf_eager::metrics::snapshot()
        .family("tfe_serve_queue_depth")
        .and_then(|fam| {
            fam.samples.iter().find(|s| s.label.as_ref().is_some_and(|(_, v)| v == label)).map(
                |s| match &s.value {
                    tf_eager::metrics::SampleValue::Gauge(v) => *v,
                    other => panic!("queue depth must be a gauge, got {other:?}"),
                },
            )
        })
        .unwrap_or_else(|| panic!("no tfe_serve_queue_depth series for {label}"))
}

/// The queue-depth gauge must return to zero on *every* exit path, not
/// just the happy one: a panicking servable (batch fan-out after
/// `catch_unwind`), a wrong-arity member rejected with a typed error, a
/// request that blows its latency budget, and a shutdown that drains
/// still-queued requests. A stuck non-zero reading here means an exit
/// path dropped its accounting and dashboards would report phantom
/// backlog forever.
#[test]
fn queue_depth_gauge_returns_to_zero_on_every_exit_path() {
    // 1. Panicked batch: every member fails typed, queue must drain.
    let f = function1("gauge_panics_src", |_x: &Tensor| -> Result<Tensor, RuntimeError> {
        panic!("deliberate gauge-test panic")
    });
    let registry = ModelRegistry::new();
    registry.register_with("gauge_panics", 1, f, policy(4)).unwrap();
    for i in 0..4 {
        let x = example(i, 1);
        assert!(matches!(registry.infer("gauge_panics", &[&x]), Err(ServeError::Panic { .. })));
    }
    assert_eq!(queue_depth("gauge_panics@v1"), 0, "panic fan-out leaked queue depth");
    registry.unregister("gauge_panics");

    // 2. Arity reject: a 1-arg request against a 2-arg staged servable
    // ships as its own batch and fails typed inside the worker.
    let two = function("gauge_arity_src", |args| {
        let a = args
            .first()
            .and_then(Arg::as_tensor)
            .ok_or_else(|| RuntimeError::Internal("missing arg 0".to_string()))?;
        let b = args
            .get(1)
            .and_then(Arg::as_tensor)
            .ok_or_else(|| RuntimeError::Internal("missing arg 1".to_string()))?;
        Ok(vec![api::add(a, b)?])
    });
    registry.register_with("gauge_arity", 1, two, policy(4)).unwrap();
    let a = example(0, 1);
    assert!(registry.infer("gauge_arity", &[&a]).is_err(), "wrong arity must fail");
    let b = example(1, 1);
    registry.infer("gauge_arity", &[&a, &b]).expect("matching arity still serves");
    assert_eq!(queue_depth("gauge_arity@v1"), 0, "arity reject leaked queue depth");
    registry.unregister("gauge_arity");

    // 3. Budget breach: a zero budget makes every request a breach; the
    // request still succeeds and the gauge still drains.
    let f = mlp("gauge_budget_src", 1.0);
    registry
        .register_with(
            "gauge_budget",
            1,
            f,
            BatchPolicy { max_batch: 4, budget: Duration::from_nanos(1) },
        )
        .unwrap();
    let x = example(2, 1);
    registry.infer("gauge_budget", &[&x]).expect("breached request still answers");
    let snap = tf_eager::metrics::snapshot();
    let breaches = snap.counter_with("tfe_serve_budget_breaches_total", "gauge_budget@v1");
    assert!(breaches.unwrap_or(0) > 0, "zero budget must register a breach");
    assert_eq!(queue_depth("gauge_budget@v1"), 0, "budget breach leaked queue depth");
    registry.unregister("gauge_budget");

    // 4. Shutdown drain: a slow servable (fresh shape per request ->
    // retrace -> the traced closure's sleep runs every call) keeps
    // requests queued while unregister fires; drained members observe
    // `Shutdown`, later arrivals are rejected at the front door, and the
    // gauge is pinned back to zero either way.
    let slow = function1("gauge_slow_src", |x: &Tensor| {
        std::thread::sleep(Duration::from_millis(15));
        api::relu(x)
    });
    let registry = Arc::new(ModelRegistry::new());
    registry.register_with("gauge_slow", 1, slow, policy(1)).unwrap();
    let barrier = Arc::new(Barrier::new(7));
    let clients: Vec<_> = (0..6)
        .map(|i| {
            let registry = Arc::clone(&registry);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                // Distinct row count per request: forces a retrace (and
                // its sleep) for each, so the queue stays occupied.
                let x = example(i, i + 1);
                registry.infer("gauge_slow", &[&x])
            })
        })
        .collect();
    barrier.wait();
    std::thread::sleep(Duration::from_millis(20));
    assert!(registry.unregister("gauge_slow"), "model must be registered");
    let mut shutdown_errors = 0;
    for c in clients {
        match c.join().unwrap() {
            Ok(out) => assert_eq!(out.len(), 1),
            Err(ServeError::Shutdown { model }) => {
                assert_eq!(model, "gauge_slow");
                shutdown_errors += 1;
            }
            Err(other) => panic!("expected success or Shutdown, got {other:?}"),
        }
    }
    assert!(shutdown_errors > 0, "shutdown raced past every request; tighten the timing");
    assert_eq!(queue_depth("gauge_slow@v1"), 0, "shutdown drain leaked queue depth");
}
