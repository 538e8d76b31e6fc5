//! Thread-safety: the context is thread-local, but registries (ops,
//! kernels, gradients, the function library, variables) are process-wide.
//! Concurrent eager math, tracing, staged calls and shared-variable
//! updates must all be sound.

use std::sync::Arc;
use tf_eager::prelude::*;
use tf_eager::{context, ExecMode, RuntimeError};

#[test]
fn non_persistent_tape_race_has_exactly_one_winner() {
    // Many threads race `gradient()` on one shared non-persistent tape.
    // consume() checks and sets under a single lock, so exactly one call
    // may succeed; every loser must get the typed TapeConsumed error, and
    // nothing may panic or deadlock.
    tf_eager::init();
    let x = api::scalar(3.0f64);
    let tape = GradientTape::new();
    tape.watch(&x);
    let y = api::mul(&x, &x).unwrap();

    let tape = Arc::new(tape);
    let barrier = Arc::new(std::sync::Barrier::new(8));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let tape = tape.clone();
            let barrier = barrier.clone();
            let x = x.clone();
            let y = y.clone();
            std::thread::spawn(move || {
                barrier.wait();
                tape.gradient1(&y, &x)
            })
        })
        .collect();
    let mut winners = 0;
    for h in handles {
        match h.join().unwrap() {
            Ok(g) => {
                winners += 1;
                assert_eq!(g.scalar_f64().unwrap(), 6.0);
            }
            Err(e) => {
                assert!(matches!(e, RuntimeError::TapeConsumed), "unexpected error: {e}");
            }
        }
    }
    assert_eq!(winners, 1, "exactly one gradient call may win a non-persistent tape");

    // The tape stays consumed afterwards, and a persistent tape never errors.
    assert!(matches!(tape.gradient1(&y, &x), Err(RuntimeError::TapeConsumed)));
    let p = GradientTape::persistent();
    p.watch(&x);
    let y2 = api::mul(&x, &x).unwrap();
    for _ in 0..3 {
        assert_eq!(p.gradient1(&y2, &x).unwrap().scalar_f64().unwrap(), 6.0);
    }
}

#[test]
fn concurrent_eager_math() {
    tf_eager::init();
    let handles: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                let a = api::constant(vec![t as f32; 64], [64]).unwrap();
                let mut acc = a.clone();
                for _ in 0..200 {
                    acc = api::tanh(&api::add(&acc, &a).unwrap()).unwrap();
                }
                acc.to_f64_vec().unwrap()[0]
            })
        })
        .collect();
    for h in handles {
        assert!(h.join().unwrap().is_finite());
    }
}

#[test]
fn concurrent_tracing_and_calls() {
    tf_eager::init();
    // One shared Func called from many threads with distinct signatures:
    // the trace cache must stay consistent.
    let f = function1("concurrent_fn", |x| {
        let y = api::mul(x, x)?;
        api::reduce_sum(&y, &[], false)
    });
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let f = f.clone();
            std::thread::spawn(move || {
                let n = 1 + (t % 4);
                for _ in 0..50 {
                    let x = api::ones(DType::F64, [n]);
                    let y = f.call1(&x).unwrap();
                    assert_eq!(y.scalar_f64().unwrap(), n as f64);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // At most one concrete function per distinct signature (4 sizes), even
    // under racy first-calls (duplicate traces are discarded, not cached).
    assert!(f.num_concrete() <= 4, "{} concretes", f.num_concrete());
}

#[test]
fn concurrent_tapes_are_thread_local() {
    tf_eager::init();
    // A tape on one thread must not record ops from other threads.
    let handles: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let x = api::scalar(t as f64 + 1.0);
                let tape = GradientTape::new();
                tape.watch(&x);
                let mut y = x.clone();
                for _ in 0..5 {
                    y = api::mul(&y, &x).unwrap();
                }
                // y = x^6, dy/dx = 6x^5
                let g = tape.gradient1(&y, &x).unwrap().scalar_f64().unwrap();
                let expect = 6.0 * (t as f64 + 1.0).powi(5);
                assert!((g - expect).abs() < 1e-9 * expect.max(1.0), "{g} vs {expect}");
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn concurrent_variable_updates_are_atomic_per_op() {
    tf_eager::init();
    let v = Arc::new(Variable::new(TensorData::scalar(0.0f32)));
    let per_thread = 100;
    let threads = 8;
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let v = v.clone();
            std::thread::spawn(move || {
                for _ in 0..per_thread {
                    v.assign_add(&api::scalar(1.0f32)).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // assign_add is read-modify-write at kernel granularity; because the
    // storage lock is held per set_value, increments can race and some may
    // be lost — like TF's non-locking assign_add. Assert sanity bounds and
    // document the semantics rather than pretend it's a fetch_add.
    let total = v.peek().scalar_f64().unwrap();
    assert!(total > 0.0 && total <= (per_thread * threads) as f64);
}

#[test]
fn concurrent_parallel_staged_calls_are_deterministic() {
    tf_eager::init();
    // A wide fan-out graph — eight independent branches joined by a sum —
    // so the dependency-counted scheduler has real concurrency to exploit.
    let f = function1("concurrent_parallel_fn", |x| {
        let mut branches = Vec::new();
        for i in 0..8 {
            let scaled = api::mul(x, &api::scalar((i + 1) as f64))?;
            branches.push(api::tanh(&scaled)?);
        }
        let mut acc = branches[0].clone();
        for b in &branches[1..] {
            acc = api::add(&acc, b)?;
        }
        api::reduce_sum(&acc, &[], false)
    });
    // Serial baseline on the main thread.
    let expected = {
        let x = api::ones(DType::F64, [32]);
        f.call1(&x).unwrap().scalar_f64().unwrap()
    };
    // Eight threads hammer the same Func through the shared worker pool;
    // every result must be bit-identical to the serial run.
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let f = f.clone();
            std::thread::spawn(move || {
                context::set_exec_mode(ExecMode::Parallel);
                for _ in 0..30 {
                    let x = api::ones(DType::F64, [32]);
                    let y = f.call1(&x).unwrap().scalar_f64().unwrap();
                    assert_eq!(y.to_bits(), expected.to_bits(), "{y} vs {expected}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn parallel_stateful_train_step_matches_serial() {
    tf_eager::init();
    // A traced train-step-style graph: read the weight, derive an update
    // from it, apply it, read back. Sequencing edges must keep the
    // read/update/read chain in program order on the parallel executor,
    // so the whole trajectory matches the serial one bit for bit.
    let w = Arc::new(Variable::new(TensorData::scalar(2.0f64)));
    let step = {
        let w = w.clone();
        function("parallel_train_step", move |_args| {
            let cur = w.read()?;
            let g = api::sin(&cur)?;
            let upd = api::mul(&g, &api::scalar(0.1f64))?;
            w.assign_sub(&upd)?;
            Ok(vec![w.read()?])
        })
    };
    let steps = 10;
    let serial: Vec<u64> = (0..steps)
        .map(|_| step.call_tensors(&[]).unwrap()[0].scalar_f64().unwrap().to_bits())
        .collect();
    let serial_final = w.peek().scalar_f64().unwrap().to_bits();

    w.restore(TensorData::scalar(2.0f64)).unwrap();
    let prev = context::set_exec_mode(ExecMode::Parallel);
    let before = context::exec_stats().parallel_runs;
    let parallel: Vec<u64> = (0..steps)
        .map(|_| step.call_tensors(&[]).unwrap()[0].scalar_f64().unwrap().to_bits())
        .collect();
    let parallel_final = w.peek().scalar_f64().unwrap().to_bits();
    assert!(context::exec_stats().parallel_runs > before, "stateful step fell back to serial");
    context::set_exec_mode(prev);

    assert_eq!(serial, parallel);
    assert_eq!(serial_final, parallel_final);
}

#[test]
fn concurrent_parallel_stateful_steps_keep_program_order() {
    tf_eager::init();
    // Eight threads, each with a private variable and a private traced step
    // that mixes stateless fan-out with a read/assign_add/read chain, all
    // contending for the one shared worker pool. Program order per variable
    // makes every intermediate read deterministic.
    let handles: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                context::set_exec_mode(ExecMode::Parallel);
                let w = Arc::new(Variable::new(TensorData::scalar(0.0f64)));
                let step = {
                    let w = w.clone();
                    function(&format!("stress_step_{t}"), move |_args| {
                        let cur = w.read()?;
                        let a = api::tanh(&cur)?;
                        let b = api::cos(&cur)?;
                        w.assign_add(&api::scalar(1.0f64))?;
                        let sum = api::add(&a, &b)?;
                        Ok(vec![w.read()?, sum])
                    })
                };
                for i in 0..50 {
                    let out = step.call_tensors(&[]).unwrap();
                    // The read after assign_add must see this step's write.
                    assert_eq!(out[0].scalar_f64().unwrap(), (i + 1) as f64);
                    assert!(out[1].scalar_f64().unwrap().is_finite());
                }
                assert_eq!(w.peek().scalar_f64().unwrap(), 50.0);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn concurrent_staged_training_on_disjoint_models() {
    tf_eager::init();
    use tf_eager::nn::layers::Layer;
    use tf_eager::nn::{mlp, optimizer, Activation, Initializer, Sgd};
    let handles: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let model =
                    Arc::new(mlp(4, &[8], 1, Activation::Tanh, &mut Initializer::seeded(t)));
                let opt = Arc::new(Sgd::new(0.05));
                let vars = model.variables();
                let step = {
                    let model = model.clone();
                    let opt = opt.clone();
                    let vars = vars.clone();
                    function("thread_step", move |args| {
                        let x = args[0].as_tensor().unwrap();
                        let y = args[1].as_tensor().unwrap();
                        let tape = GradientTape::new();
                        let pred = model.call(x, true)?;
                        let loss = tf_eager::nn::losses::mean_squared_error(&pred, y)?;
                        optimizer::minimize(opt.as_ref(), tape, &loss, &vars)?;
                        Ok(vec![loss])
                    })
                };
                let data = tf_eager::nn::data::SyntheticRegression::new(t, 4);
                let (x, y) = data.batch(0, 16).unwrap();
                let first = step.call_tensors(&[&x, &y]).unwrap()[0].scalar_f64().unwrap();
                let mut last = first;
                for _ in 0..15 {
                    last = step.call_tensors(&[&x, &y]).unwrap()[0].scalar_f64().unwrap();
                }
                assert!(last < first, "thread {t}: {first} -> {last}");
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn exec_stats_snapshot_is_never_torn() {
    // Regression test for the torn-view bug: `exec_stats()` used to load
    // each counter independently, so a reader overlapping a writer could
    // observe a kernel bump without its node bump. The seqlock read pass
    // must uphold the cross-field invariant kernels_launched <=
    // nodes_executed (every kernel launch is preceded by its node's bump
    // on the same thread) even while writer threads hammer the cells.
    tf_eager::init();
    let f = function1("seqlock_stress_fn", |x| {
        let y = api::mul(x, x)?;
        api::reduce_sum(&y, &[], false)
    });
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writers: Vec<_> = (0..4)
        .map(|_| {
            let f = f.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                context::set_exec_mode(ExecMode::Parallel);
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let x = api::ones(DType::F64, [16]);
                    f.call1(&x).unwrap();
                }
            })
        })
        .collect();
    // Readers snapshot continuously while the writers run; every snapshot
    // must satisfy the invariant and stay monotone against the previous
    // read on the same thread.
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut prev_nodes = 0u64;
                let mut snaps = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let s = context::exec_stats();
                    assert!(
                        s.kernels_launched <= s.nodes_executed,
                        "torn snapshot: {} kernels > {} nodes",
                        s.kernels_launched,
                        s.nodes_executed
                    );
                    assert!(s.nodes_executed >= prev_nodes, "counters went backwards");
                    prev_nodes = s.nodes_executed;
                    snaps += 1;
                }
                snaps
            })
        })
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(300));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for h in writers {
        h.join().unwrap();
    }
    for h in readers {
        assert!(h.join().unwrap() > 0, "reader never snapshotted");
    }
}

#[test]
fn nested_graph_parallel_and_intra_op_no_deadlock() {
    // The two-level stress case: the graph executor fans independent
    // matmul nodes out across the worker pool (inter-op), and each matmul
    // splits its own row blocks onto the *same* pool (intra-op). Workers
    // waiting on tiles help execute queued jobs instead of blocking, so
    // this must finish — from several client threads at once — without
    // deadlock, and bit-identical to the serial schedule.
    tf_eager::init();
    let f = function1("nested_intra_stress", |x| {
        // Four independent 96x96 matmul chains joined at the end: wide
        // enough for inter-op parallelism, each node big enough for the
        // splitter to go parallel.
        let mut branches = Vec::new();
        for _ in 0..4 {
            let y = api::matmul(x, x)?;
            let y = api::mul(&y, &api::scalar(1e-3f32))?;
            branches.push(api::matmul(&y, x)?);
        }
        let mut acc = branches[0].clone();
        for b in &branches[1..] {
            acc = api::add(&acc, b)?;
        }
        api::reduce_sum(&acc, &[], false)
    });
    let x = api::constant(vec![0.01f32; 96 * 96], [96, 96]).unwrap();
    let prev = context::set_exec_mode(ExecMode::SerialPlanned);
    let want = f.call1(&x).unwrap().scalar_f64().unwrap();
    context::set_exec_mode(ExecMode::Parallel);
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let f = f.clone();
            let x = x.clone();
            std::thread::spawn(move || {
                let prev = context::set_exec_mode(ExecMode::Parallel);
                for _ in 0..10 {
                    let got = f.call1(&x).unwrap().scalar_f64().unwrap();
                    assert_eq!(got.to_bits(), want.to_bits());
                }
                context::set_exec_mode(prev);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    context::set_exec_mode(prev);
}

/// Function lifetime under contention (DESIGN.md §7): eight threads create,
/// call, differentiate and drop `Func`s — every drop takes both name tables
/// for writing — while two threads call and differentiate a long-lived one.
/// No deadlock, and the live function never stops resolving.
#[test]
fn dropping_funcs_never_disturbs_a_live_one() {
    tf_eager::init();
    let live = function1("lt_long_lived", |x| api::mul(&api::tanh(x)?, x));
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    let churners = (0..8).map(|t| {
        std::thread::spawn(move || {
            let x = api::scalar(0.25f64 + t as f64);
            let mut made = 0u64;
            while std::time::Instant::now() < deadline {
                let f = function1("lt_churn", |x| api::mul(&api::mul(x, x)?, x));
                let tape = GradientTape::new();
                tape.watch(&x);
                let y = f.call1(&x).expect("a fresh function resolves");
                drop(f);
                let g = tape.gradient1(&y, &x).expect("the tape keeps what it recorded");
                assert_eq!(g.scalar_f64().unwrap(), 3.0 * (0.25 + t as f64).powi(2));
                made += 1;
            }
            made
        })
    });
    let callers = (0..2).map(|_| {
        let live = live.clone();
        std::thread::spawn(move || {
            let x = api::scalar(0.5f64);
            let want = live.call1(&x).unwrap().scalar_f64().unwrap();
            let mut calls = 0u64;
            while std::time::Instant::now() < deadline {
                let tape = GradientTape::new();
                tape.watch(&x);
                let y = match live.call1(&x) {
                    Ok(y) => y,
                    Err(e) => panic!("the live function stopped resolving: {e}"),
                };
                assert_eq!(y.scalar_f64().unwrap(), want);
                tape.gradient1(&y, &x).expect("and stays differentiable");
                calls += 1;
            }
            calls
        })
    });
    let handles: Vec<_> = churners.chain(callers).collect();
    for h in handles {
        assert!(h.join().expect("no thread panicked") > 0);
    }
    assert_eq!(live.num_concrete(), 1);
}
