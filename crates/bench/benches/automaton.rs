//! Construction-phase benchmarks: trie → failure links → DFA → STT, at
//! several dictionary sizes.
//!
//! The paper excludes construction from its measurements ("the STT
//! construction and data copy are performed only once"); these benches
//! exist to keep the one-time cost visible and regression-pinned.

use ac_core::{AcAutomaton, Dfa, NfaTables, PatternSet, Stt, Trie};
use bench::workload::Workload;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn dictionaries() -> Vec<(usize, PatternSet)> {
    let w = Workload::prepare(64 * 1024, 7);
    [100usize, 1_000, 5_000]
        .iter()
        .map(|&n| (n, w.dictionary(n)))
        .collect()
}

fn bench_full_build(c: &mut Criterion) {
    let dicts = dictionaries();
    let mut g = c.benchmark_group("automaton_build");
    g.sample_size(10);
    for (n, ps) in &dicts {
        g.bench_with_input(BenchmarkId::new("full", n), ps, |b, ps| {
            b.iter(|| AcAutomaton::build(std::hint::black_box(ps)))
        });
    }
    g.finish();
}

fn bench_stages(c: &mut Criterion) {
    let (_, ps) = dictionaries()
        .into_iter()
        .last()
        .expect("non-empty dictionary list");
    let trie = Trie::build(&ps);
    let nfa = NfaTables::build(&trie);
    let dfa = Dfa::build(&trie, &nfa);
    let mut g = c.benchmark_group("automaton_stages_5000");
    g.sample_size(10);
    g.bench_function("trie", |b| {
        b.iter(|| Trie::build(std::hint::black_box(&ps)))
    });
    g.bench_function("failure_links", |b| {
        b.iter(|| NfaTables::build(std::hint::black_box(&trie)))
    });
    g.bench_function("dfa", |b| {
        b.iter(|| Dfa::build(std::hint::black_box(&trie), std::hint::black_box(&nfa)))
    });
    g.bench_function("stt", |b| {
        b.iter(|| Stt::from_dfa(std::hint::black_box(&dfa)))
    });
    g.finish();
}

criterion_group!(benches, bench_full_build, bench_stages);
criterion_main!(benches);
