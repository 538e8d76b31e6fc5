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
    // A product, the same product with its transpose flags spelled out, and
    // one through a transposed operand. The flags are typed parameters and
    // cost no allocation; a transposed `b` costs none either, since the
    // register tiles read it in place (DESIGN.md §9).
    let w = api::constant((0..6).map(|i| i as f32 * 0.25).collect::<Vec<_>>(), [2, 3]).unwrap();
    let wt = api::transpose(&w, &[1, 0]).unwrap();
    let products = || {
        let plain = allocations_per_call(N, || {
            black_box(api::matmul(&x, &w).unwrap());
        });
        let flagged = allocations_per_call(N, || {
            black_box(api::matmul_t(&x, &w, false, false).unwrap());
        });
        let transposed = allocations_per_call(N, || {
            black_box(api::matmul_t(&x, &wt, false, true).unwrap());
        });
        (plain, flagged, transposed)
    };
    let (matmul, matmul_t, matmul_tb) = products();
    let (taped_matmul, taped_matmul_t, taped_matmul_tb) = {
        let tape = GradientTape::new();
        tape.watch(&x);
        products()
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
         matmul {matmul} / flags spelled {matmul_t} / transposed b {matmul_tb}, taped matmul \
         {taped_matmul} / {taped_matmul_t} / {taped_matmul_tb}, Variable::read {read}, \
         cache-hit call1 {call}"
    );

    assert!(add <= 5.0, "an untaped scalar add makes {add} allocations (at most 5)");
    assert!(mul <= 7.0, "an untaped [64,2] mul makes {mul} allocations (at most 7)");
    assert!(taped_add <= 10.0, "a taped scalar add makes {taped_add} allocations (at most 10)");
    // Pinned where the register tiles left them: the output and the
    // dispatch's own, nothing per product, whatever the flags.
    for (what, count, pin) in [
        ("an untaped matmul", matmul, 5.0),
        ("an untaped matmul_t", matmul_t, 5.0),
        ("an untaped product with a transposed b", matmul_tb, 5.0),
        ("a taped matmul", taped_matmul, 10.0),
        ("a taped matmul_t", taped_matmul_t, 10.0),
        ("a taped product with a transposed b", taped_matmul_tb, 10.0),
    ] {
        assert!(count <= pin + 0.5, "{what} makes {count} allocations ({pin})");
    }
    assert!(matmul_t <= matmul, "matmul_t makes {matmul_t} allocations, matmul {matmul}");
    assert!(
        taped_matmul_t <= taped_matmul,
        "taped, matmul_t makes {taped_matmul_t} allocations, matmul {taped_matmul}"
    );
    assert!(matmul_tb <= matmul, "a transposed b makes {matmul_tb}, matmul {matmul}");
    assert!(
        taped_matmul_tb <= taped_matmul,
        "taped, a transposed b makes {taped_matmul_tb}, matmul {taped_matmul}"
    );
    // Pinned where typed parameters left them: a read builds no attribute
    // map, and a cache-hit call clones none. The fraction allows for a rare
    // one-off allocation among the calls averaged; one more per call fails.
    assert!(read <= 3.5, "Variable::read makes {read} allocations (3)");
    assert!(call <= 23.5, "a cache-hit call1 makes {call} allocations (23)");
}
