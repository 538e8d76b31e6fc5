//! The executors against the serial planner, bit for bit: the parallel
//! scheduler and eager dispatch on every stateless corpus graph, and on
//! every stateful one, whose final variable state the parallel scheduler
//! keeps in program order through sequencing edges. Calls into
//! `common::oracle`; the optimized graphs are `pass_pipeline.rs`'s.

mod common;

use common::oracle::{check_corpus, Corpus, Mode};

#[test]
fn serial_parallel_and_optimized_agree_on_random_graphs() {
    check_corpus(Corpus::Stateless, |m| *m == Mode::Parallel, |_, _| {});
}

#[test]
fn eager_matches_serial_on_random_graphs() {
    check_corpus(Corpus::Stateless, |m| *m == Mode::Eager, |_, _| {});
}

#[test]
fn stateful_graphs_match_serial_bit_for_bit() {
    check_corpus(Corpus::Stateful, |m| *m == Mode::Parallel, |_, _| {});
}

#[test]
fn eager_stateful_interleavings_match_serial() {
    check_corpus(Corpus::Stateful, |m| *m == Mode::Eager, |_, _| {});
}
