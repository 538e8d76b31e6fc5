//! Heap allocations of one eager op, counted by a counting global allocator
//! after warm-up, with the flight recorder at its default (on). Every check
//! is one test, the only one in this binary, so nothing else allocates while
//! it counts.

use std::hint::black_box;
use tf_eager::prelude::*;
use tf_eager::{function1, GradientTape};
use tfe_bench::alloc::{allocations_per_call, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn an_eager_op_allocates_its_output_and_little_else() {
    tf_eager::init();
    const N: usize = 1000;
    let (a, b) = (api::scalar(1.5f32), api::scalar(0.25f32));
    let x = api::constant((0..128).map(|i| i as f32 * 0.5).collect::<Vec<_>>(), [64, 2]).unwrap();

    let add = allocations_per_call(N, || {
        black_box(api::add(&a, &b).unwrap());
    });
    let mul = allocations_per_call(N, || {
        black_box(api::mul(&x, &x).unwrap());
    });
    let taped_add = {
        let tape = GradientTape::new();
        tape.watch(&a);
        allocations_per_call(N, || {
            black_box(api::add(&a, &b).unwrap());
        })
    };
    let v = Variable::new(TensorData::scalar(2.0f32));
    let read = allocations_per_call(N, || {
        black_box(v.read().unwrap());
    });
    let f = function1("eager_allocations_call", |t| api::add(t, t));
    let call = allocations_per_call(N, || {
        black_box(f.call1(&a).unwrap());
    });
    println!(
        "allocations per op: scalar add {add}, [64,2] mul {mul}, taped scalar add {taped_add}, \
         Variable::read {read}, cache-hit call1 {call}"
    );

    assert!(add <= 5.0, "an untaped scalar add makes {add} allocations (at most 5)");
    assert!(mul <= 7.0, "an untaped [64,2] mul makes {mul} allocations (at most 7)");
    assert!(taped_add <= 10.0, "a taped scalar add makes {taped_add} allocations (at most 10)");
}
