//! Every stateless corpus graph called on a one-worker cluster, over the
//! in-process transport and over TCP, bit for bit with local execution:
//! serialization, framing and the worker's executor keep every bit. Calls
//! into `common::oracle`.

mod common;

use common::oracle::{check_corpus, Corpus, Mode};

#[test]
fn cluster_matches_local_bitwise() {
    check_corpus(Corpus::Stateless, |m| matches!(m, Mode::Dist(_)), |_, _| {});
}
