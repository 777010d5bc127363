//! LP-solver bench: the strengthened nested LP, exact rationals vs f64
//! (E7's dominant stage), and the hybrid simplex on the corpus trees the
//! tree DP declines (the LP work the default strategy still does).

use atsched_core::canonical::canonicalize;
use atsched_core::lp_model::build;
use atsched_core::opt23;
use atsched_core::tree::Forest;
use atsched_core::treelp::TreeDp;
use atsched_num::Ratio;
use atsched_workloads::generators::{random_laminar, LaminarConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_nested_lp(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp/nested");
    group.sample_size(10);
    for horizon in [16i64, 32, 64] {
        let cfg = LaminarConfig {
            g: 3,
            horizon,
            max_depth: 3,
            max_children: 3,
            jobs_per_node: (1, 2),
            max_processing: 3,
            child_percent: 70,
        };
        let inst = random_laminar(&cfg, 11);
        let forest = Forest::build(&inst).unwrap();
        let canon = canonicalize(&forest, &inst);
        let bounds = opt23::compute(&canon, &inst);
        group.bench_with_input(BenchmarkId::new("exact", horizon), &horizon, |b, _| {
            b.iter(|| build::<Ratio>(&canon, &inst, &bounds).solve().unwrap())
        });
        group.bench_with_input(BenchmarkId::new("f64", horizon), &horizon, |b, _| {
            b.iter(|| build::<f64>(&canon, &inst, &bounds).solve().unwrap())
        });
    }
    group.finish();
}

/// `Model::solve_hybrid` on the first 8 corpus trees
/// (`random_laminar(g = 4, horizon = 48)` from seed 10000) whose tree
/// attempt declines.
fn bench_hybrid_declined(c: &mut Criterion) {
    let cfg = LaminarConfig { g: 4, horizon: 48, ..Default::default() };
    let mut group = c.benchmark_group("lp/hybrid_declined");
    group.sample_size(10);
    let mut found = 0;
    for seed in 10000u64.. {
        let inst = random_laminar(&cfg, seed);
        let canon = canonicalize(&Forest::build(&inst).unwrap(), &inst);
        let bounds = opt23::compute(&canon, &inst);
        let dp = TreeDp::new(&canon, &inst, &bounds, true, 3);
        if dp.solve(&canon, &inst).is_ok() {
            continue;
        }
        let lp = build::<Ratio>(&canon, &inst, &bounds);
        group.bench_with_input(BenchmarkId::new("solve_hybrid", seed), &seed, |b, _| {
            b.iter(|| lp.model.solve_hybrid().unwrap())
        });
        found += 1;
        if found == 8 {
            break;
        }
    }
    group.finish();
}

criterion_group!(benches, bench_nested_lp, bench_hybrid_declined);
criterion_main!(benches);
