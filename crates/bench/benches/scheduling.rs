//! Throughput of the scheduling algorithms on the paper benchmarks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pchls_cdfg::benchmarks;
use pchls_fulib::{paper_library, SelectionPolicy};
use pchls_sched::{alap, asap, force_directed, palap, pasap, two_step, PowerBudget, TimingMap};

fn bench_scheduling(c: &mut Criterion) {
    let lib = paper_library();
    let mut group = c.benchmark_group("scheduling");
    for g in benchmarks::paper_set() {
        let t = TimingMap::from_policy(&g, &lib, SelectionPolicy::Fastest);
        let cp = asap(&g, &t).latency(&t);
        let bound = PowerBudget::constant(30.0);
        group.bench_with_input(BenchmarkId::new("asap", g.name()), &g, |b, g| {
            b.iter(|| asap(g, &t));
        });
        group.bench_with_input(BenchmarkId::new("alap", g.name()), &g, |b, g| {
            b.iter(|| alap(g, &t, cp + 4).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("pasap", g.name()), &g, |b, g| {
            b.iter(|| pasap(g, &t, &bound, 200).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("palap", g.name()), &g, |b, g| {
            b.iter(|| palap(g, &t, &bound, cp + 10).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("two_step", g.name()), &g, |b, g| {
            b.iter(|| two_step(g, &t, cp + 6, &bound).unwrap());
        });
        let modules: Vec<_> = g
            .nodes()
            .iter()
            .map(|n| lib.select(n.kind(), SelectionPolicy::Fastest).unwrap())
            .collect();
        group.bench_with_input(BenchmarkId::new("force_directed", g.name()), &g, |b, g| {
            b.iter(|| force_directed(g, &lib, &modules, cp + 2).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scheduling);
criterion_main!(benches);
