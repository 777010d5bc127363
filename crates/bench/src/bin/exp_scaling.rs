//! E7: runtime scaling of the pipeline stages for each LP strategy,
//! measured through the batch engine's per-stage instrumentation.
//!
//! For each horizon a small corpus of random laminar instances is pushed
//! through [`atsched_engine::Engine::solve_batch`] once per strategy; the
//! batch report's stage percentiles (canonicalize / LP / transform /
//! round / extract / verify) come from [`atsched_core::StageTimings`]
//! recorded inside `solve_nested` itself, so there is no wrapper-timing
//! skew.
//!
//! Usage: `exp_scaling [instances_per_cell]` (default 8).

use atsched_bench::table::Table;
use atsched_core::solver::{LpStrategy, SolverOptions};
use atsched_engine::{Engine, EngineConfig, Outcome};
use atsched_workloads::generators::{random_laminar, LaminarConfig};

fn main() {
    let per_cell: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(8);
    println!("E7: pipeline runtime vs instance size (batch engine, {per_cell} instances/cell)\n");
    let mut t = Table::new(&[
        "horizon",
        "jobs",
        "lp",
        "solve p50 ms",
        "solve max ms",
        "lp p50 ms",
        "round p50 ms",
        "active",
    ]);
    let engine = Engine::new(EngineConfig::default().cache(false));
    for horizon in [16i64, 32, 64, 128] {
        let cfg = LaminarConfig {
            g: 3,
            horizon,
            max_depth: 4,
            max_children: 4,
            jobs_per_node: (1, 3),
            max_processing: 4,
            child_percent: 70,
        };
        let corpus: Vec<_> =
            (0..per_cell).map(|seed| random_laminar(&cfg, 42 + seed as u64)).collect();
        let jobs = corpus.iter().map(|i| i.num_jobs()).sum::<usize>() / corpus.len();

        let mut lp_values: Vec<Vec<f64>> = Vec::new();
        for lp in [LpStrategy::Certified, LpStrategy::Exact, LpStrategy::Float] {
            let opts = SolverOptions { lp, ..SolverOptions::exact() };
            let batch = engine.solve_batch(&corpus, &opts);
            assert_eq!(batch.report.solved, corpus.len(), "generator guarantees feasibility");
            let solved: Vec<_> = batch.outcomes.iter().filter_map(Outcome::as_solved).collect();
            lp_values.push(solved.iter().map(|s| s.result.stats.lp_objective).collect());
            let active = solved.iter().map(|s| s.result.stats.active_slots).sum::<usize>();
            t.row(vec![
                horizon.to_string(),
                jobs.to_string(),
                lp.label().to_string(),
                format!("{:.1}", batch.report.latency_ms.p50),
                format!("{:.1}", batch.report.latency_ms.max),
                format!("{:.2}", batch.report.stages_ms.lp.p50),
                format!("{:.2}", batch.report.stages_ms.round.p50),
                active.to_string(),
            ]);
        }
        // Certified is bit-identical to exact; float agrees to rounding.
        assert_eq!(lp_values[0], lp_values[1], "certified vs exact LP mismatch");
        for (a, b) in lp_values[1].iter().zip(&lp_values[2]) {
            assert!((a - b).abs() / a.max(1.0) < 1e-6, "exact vs float LP mismatch: {a} vs {b}");
        }
    }
    println!("{}", t.render());
    println!(
        "Expected shape: the exact simplex dominates and grows fastest; certified stays within \
         a small factor of float; certified equals exact bit for bit, float agrees to 1e-6."
    );
}
