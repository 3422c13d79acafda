//! Offline solver performance: the exact branch-and-bound and the Dinic
//! flow relaxation, as the job count grows.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use cslack_kernel::Instance;
use cslack_opt::{exact, flow};
use cslack_workloads::WorkloadSpec;

fn instance(n: usize) -> Instance {
    WorkloadSpec::default_spec(3, 0.25, n, 7)
        .generate()
        .expect("bench workload")
}

fn exact_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_max_load");
    group.sample_size(10);
    for &n in &[10usize, 14, 17] {
        let inst = instance(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| black_box(exact::max_load(black_box(inst))));
        });
    }
    group.finish();
}

fn flow_bound(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_relaxation");
    for &n in &[50usize, 200, 800] {
        let inst = instance(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| black_box(flow::preemptive_load_bound(black_box(inst))));
        });
    }
    group.finish();
}

criterion_group!(benches, exact_solver, flow_bound);
criterion_main!(benches);
