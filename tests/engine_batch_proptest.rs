//! Property: the parallel batch engine is observationally identical to
//! sequential solving — for any corpus of laminar instances, any worker
//! count, cache on or off, sharding auto or forced, and with or without
//! an engine budget, `Engine::solve_batch` yields elementwise exactly
//! the schedules and LP openings that `solve_nested` produces one
//! instance at a time.
//!
//! Instances use the dyadic-window strategy (laminar by construction,
//! shrink-safe); feasibility is *not* filtered, so infeasible inputs
//! exercise the `Outcome::Infeasible` path against the sequential
//! `SolveError::Infeasible`. An instance without an `[0, 8)` job is
//! multi-root, so forced sharding runs the engine's root solve, budgeted
//! or not.

use nested_active_time::core::instance::{Instance, Job};
use nested_active_time::core::solver::{
    solve_nested, ShardMode, SolveError, SolveResult, SolverOptions,
};
use nested_active_time::engine::{Engine, EngineConfig, Outcome};
use proptest::prelude::*;
use std::time::Duration;

const LEVELS: u32 = 3; // horizon 8

fn dyadic_job() -> impl Strategy<Value = Job> {
    (0..=LEVELS, any::<u32>(), 1i64..4).prop_map(|(level, idx, p)| {
        let width = 1i64 << (LEVELS - level);
        let positions = 1u32 << level;
        let i = (idx % positions) as i64;
        Job::new(i * width, (i + 1) * width, p.min(width))
    })
}

fn laminar_instance() -> impl Strategy<Value = Instance> {
    (1i64..4, proptest::collection::vec(dyadic_job(), 1..8))
        .prop_filter_map("instance must validate", |(g, jobs)| Instance::new(g, jobs).ok())
}

/// `z` keyed by its canonical node's window, in window order: a merged
/// solve lists its nodes root by root, the monolith in its own order.
fn z_by_window(r: &SolveResult) -> Vec<((i64, i64), i64)> {
    let mut z: Vec<_> =
        r.forest.nodes.iter().map(|n| n.interval).zip(r.z.iter().copied()).collect();
    z.sort_unstable();
    z
}

proptest! {
    #[test]
    fn batch_is_elementwise_identical_to_sequential(
        instances in proptest::collection::vec(laminar_instance(), 1..6),
        workers in 1usize..5,
        cache in any::<bool>(),
        shard_force in any::<bool>(),
        budget in any::<bool>(),
    ) {
        let opts = SolverOptions {
            shard: if shard_force { ShardMode::Force } else { ShardMode::Auto },
            ..SolverOptions::exact()
        };
        let mut cfg = EngineConfig::default().workers(workers).cache(cache);
        if budget {
            cfg = cfg.timeout(Duration::from_secs(60));
        }
        let engine = Engine::new(cfg);
        let batch = engine.solve_batch(&instances, &opts);
        prop_assert_eq!(batch.outcomes.len(), instances.len());
        prop_assert_eq!(batch.report.total, instances.len());

        for (inst, outcome) in instances.iter().zip(&batch.outcomes) {
            match solve_nested(inst, &opts) {
                Ok(seq) => {
                    let item = match outcome {
                        Outcome::Solved(item) => item,
                        other => return Err(TestCaseError::Fail(format!(
                            "sequential solved but batch said {}", other.label()
                        ))),
                    };
                    prop_assert_eq!(&item.result.schedule, &seq.schedule);
                    prop_assert_eq!(z_by_window(&item.result), z_by_window(&seq));
                    if !shard_force {
                        prop_assert_eq!(&item.result.z, &seq.z);
                    }
                    prop_assert_eq!(
                        item.result.stats.active_slots,
                        seq.stats.active_slots
                    );
                }
                Err(SolveError::Infeasible) => {
                    prop_assert!(matches!(outcome, Outcome::Infeasible));
                }
                Err(_) => {
                    prop_assert!(matches!(outcome, Outcome::Failed(_)));
                }
            }
        }

        let solved = batch.outcomes.iter().filter(|o| o.is_solved()).count();
        prop_assert_eq!(batch.report.solved, solved);
    }
}
