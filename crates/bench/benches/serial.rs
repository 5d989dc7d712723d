//! Real (wall-clock) serial matching throughput — the measured counterpart
//! of the modelled Fig. 13/16 baseline, on this host's CPU.

use ac_core::matcher;
use bench::workload::Workload;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_serial_matching(c: &mut Criterion) {
    let w = Workload::prepare(1024 * 1024, 21);
    let text = w.input(1024 * 1024);
    let mut g = c.benchmark_group("serial_matching_1MB");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(text.len() as u64));
    for n in [100usize, 1_000, 5_000] {
        let ac = w.automaton(n);
        g.bench_with_input(BenchmarkId::new("count_all", n), &ac, |b, ac| {
            b.iter(|| matcher::count_all(std::hint::black_box(ac), std::hint::black_box(text)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_serial_matching);
criterion_main!(benches);
