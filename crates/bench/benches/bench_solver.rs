//! End-to-end solver bench (E7): the full 9/5 pipeline per LP strategy,
//! plus the individual non-LP stages.

use atsched_core::canonical::canonicalize;
use atsched_core::lp_model::build;
use atsched_core::opt23;
use atsched_core::rounding::round;
use atsched_core::solver::{solve_nested, SolverOptions};
use atsched_core::transform::push_down;
use atsched_core::tree::Forest;
use atsched_num::Ratio;
use atsched_workloads::generators::{random_laminar, LaminarConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn cfg(horizon: i64) -> LaminarConfig {
    LaminarConfig {
        g: 3,
        horizon,
        max_depth: 3,
        max_children: 3,
        jobs_per_node: (1, 2),
        max_processing: 3,
        child_percent: 70,
    }
}

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/pipeline");
    group.sample_size(10);
    for horizon in [16i64, 32, 64] {
        let inst = random_laminar(&cfg(horizon), 5);
        group.bench_with_input(BenchmarkId::new("certified", horizon), &horizon, |b, _| {
            b.iter(|| solve_nested(&inst, &SolverOptions::exact()).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("f64", horizon), &horizon, |b, _| {
            b.iter(|| solve_nested(&inst, &SolverOptions::float()).unwrap())
        });
    }
    group.finish();
}

fn bench_stages(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/stages");
    let inst = random_laminar(&cfg(48), 5);
    let forest = Forest::build(&inst).unwrap();
    group.bench_function("forest_build", |b| b.iter(|| Forest::build(&inst).unwrap()));
    group.bench_function("canonicalize", |b| b.iter(|| canonicalize(&forest, &inst)));
    let canon = canonicalize(&forest, &inst);
    group.bench_function("opt23", |b| b.iter(|| opt23::compute(&canon, &inst)));
    let bounds = opt23::compute(&canon, &inst);
    let sol = build::<Ratio>(&canon, &inst, &bounds).solve().unwrap();
    group.bench_function("transform", |b| b.iter(|| push_down(&canon, sol.clone())));
    let out = push_down(&canon, sol);
    group
        .bench_function("rounding", |b| b.iter(|| round(&canon, &out.solution, &out.top_positive)));
    group.finish();
}

criterion_group!(benches, bench_pipeline, bench_stages);
criterion_main!(benches);
