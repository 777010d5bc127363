//! Equivalence oracle for the LP-free combinatorial tree path.
//!
//! The tree DP's only legal behaviors are (a) solving with a
//! *bit-identical* exact objective and schedule to the `lp=exact`
//! strategy (the simplex, re-pinned root by root by the same split
//! rule), (b) proving infeasibility exactly when the simplex does, or
//! (c) declining — never "solving differently". `lp=certified` (the
//! default, tree first) must therefore be observationally
//! indistinguishable from `lp=exact` on every instance, which is what
//! these properties pin down, over the same dyadic shrinkable strategy
//! as the pipeline proptests plus the workloads generators: tie-heavy
//! trees and small multi-root forests among them.

use nested_active_time::core::canonical::canonicalize;
use nested_active_time::core::instance::{Instance, Job};
use nested_active_time::core::lp_model::build;
use nested_active_time::core::opt23;
use nested_active_time::core::solver::{
    solve_nested, LpAnswer, LpStrategy, SolveError, SolverOptions,
};
use nested_active_time::core::tree::Forest;
use nested_active_time::engine::shard::AUTO_MIN_JOBS;
use nested_active_time::lp::HybridOutcome;
use nested_active_time::num::Ratio;
use nested_active_time::obs;
use nested_active_time::workloads::families::{shallow_nest, unit_blocks};
use nested_active_time::workloads::generators::{
    random_laminar, random_multi_root, LaminarConfig, MultiRootConfig,
};
use proptest::prelude::*;
use std::sync::Arc;

const LEVELS: u32 = 3; // horizon 8

fn opts(lp: LpStrategy) -> SolverOptions {
    SolverOptions { lp, ..SolverOptions::exact() }
}

fn dyadic_job() -> impl Strategy<Value = Job> {
    (0..=LEVELS, any::<u32>(), 1i64..4).prop_map(|(level, idx, p)| {
        let width = 1i64 << (LEVELS - level);
        let positions = 1u32 << level;
        let i = (idx % positions) as i64;
        Job::new(i * width, (i + 1) * width, p.min(width))
    })
}

/// Laminar by construction but *not* filtered for feasibility: the
/// oracle must also agree on infeasibility verdicts.
fn any_instance() -> impl Strategy<Value = Instance> {
    (1i64..4, proptest::collection::vec(dyadic_job(), 1..8))
        .prop_filter_map("well-formed", |(g, jobs)| Instance::new(g, jobs).ok())
}

/// Certified and Exact must agree observationally: the same verdict,
/// and on success a bit-identical exact LP objective, open counts and
/// schedule, slot for slot and job for job. The certified solve must
/// also never need the solver's repair guard, which would re-solve it
/// exactly and hide the divergence from the comparison.
fn assert_paths_agree(inst: &Instance) -> Result<(), TestCaseError> {
    let registry = Arc::new(obs::Registry::new());
    let certified = obs::with_collector(obs::Collector::new(Arc::clone(&registry)), || {
        solve_nested(inst, &opts(LpStrategy::Certified))
    });
    prop_assert_eq!(registry.snapshot().counter("solver.certified_repair_fallbacks"), None);
    let exact = solve_nested(inst, &opts(LpStrategy::Exact));
    match (&certified, &exact) {
        (Ok(a), Ok(s)) => {
            prop_assert_eq!(&a.stats.lp_objective_exact, &s.stats.lp_objective_exact);
            prop_assert_eq!(&a.z, &s.z);
            prop_assert_eq!(&a.schedule.slots, &s.schedule.slots);
            prop_assert_eq!(&a.schedule.assignment, &s.schedule.assignment);
            a.schedule.verify(inst).unwrap();
        }
        (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
        (a, s) => {
            let label = |r: &Result<_, SolveError>| match r {
                Ok(_) => "solved".to_string(),
                Err(e) => format!("error: {e}"),
            };
            prop_assert!(false, "verdicts diverged: certified={}, exact={}", label(a), label(s));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Shrinkable dyadic instances, feasible and infeasible alike.
    #[test]
    fn prop_tree_path_matches_simplex_on_dyadic(inst in any_instance()) {
        assert_paths_agree(&inst)?;
    }

    /// Random laminar trees and multi-root forests from the workloads
    /// generators — deeper nesting and group structure than the dyadic
    /// strategy reaches.
    #[test]
    fn prop_tree_path_matches_simplex_on_generated(seed in any::<u64>()) {
        let cfg = LaminarConfig { g: 2, horizon: 16, ..Default::default() };
        assert_paths_agree(&random_laminar(&cfg, seed))?;
        let mcfg = MultiRootConfig { roots: 3, ..Default::default() };
        assert_paths_agree(&random_multi_root(&mcfg, seed))?;
    }

    /// Tie-heavy trees: at g = 2 and short horizons most optima leave
    /// slack that several nodes could absorb, so nearly every answer is
    /// the split rule's pin, from the tree or from a re-pinned simplex.
    #[test]
    fn prop_tree_path_matches_simplex_on_tie_heavy_trees(
        horizon in 4i64..=16,
        seed in any::<u64>(),
    ) {
        let cfg = LaminarConfig { g: 2, horizon, ..Default::default() };
        assert_paths_agree(&random_laminar(&cfg, seed))?;
    }

    /// Small forests of 2–3 roots, under [`AUTO_MIN_JOBS`] jobs so the
    /// engine and the facade solve them whole too: one root's block may
    /// be pinned while another keeps its simplex vertex.
    #[test]
    fn prop_tree_path_matches_simplex_on_small_forests(
        roots in 2usize..=3,
        g in 1i64..=4,
        horizon in 4i64..=12,
        seed in any::<u64>(),
    ) {
        let base = LaminarConfig { g, horizon, ..Default::default() };
        let inst = random_multi_root(&MultiRootConfig { base, roots, gap: 1 }, seed);
        prop_assume!(inst.num_jobs() < AUTO_MIN_JOBS);
        assert_paths_agree(&inst)?;
    }

    /// The unit-blocks family is 100% tree-handled: the tree DP must
    /// answer every instance, and the result must still be
    /// bit-identical to the simplex.
    #[test]
    fn prop_unit_blocks_family_is_fully_tree_handled(
        blocks in 1usize..5,
        jobs in 1usize..9,
        width in 1i64..4,
        g in 1i64..5,
    ) {
        prop_assume!(jobs as i64 <= g * width);
        let inst = unit_blocks(blocks, jobs, width, g);
        let tree = solve_nested(&inst, &opts(LpStrategy::Certified)).unwrap();
        prop_assert_eq!(tree.stats.lp_answer, LpAnswer::Tree, "unit-blocks must be tree-handled");
        let simplex = solve_nested(&inst, &opts(LpStrategy::Exact)).unwrap();
        prop_assert_eq!(&tree.stats.lp_objective_exact, &simplex.stats.lp_objective_exact);
        prop_assert_eq!(&tree.schedule.slots, &simplex.schedule.slots);
    }

    /// Likewise for the shallow-nest family: the saturated rigid leaf
    /// pins the root uniquely, so the tree path owns the whole family.
    #[test]
    fn prop_shallow_nest_family_is_fully_tree_handled(
        blocks in 1usize..4,
        top in 1usize..7,
        g in 1i64..4,
    ) {
        prop_assume!((top as i64) < 4 * g);
        let inst = shallow_nest(blocks, top, g);
        let tree = solve_nested(&inst, &opts(LpStrategy::Certified)).unwrap();
        prop_assert_eq!(tree.stats.lp_answer, LpAnswer::Tree, "shallow-nest must be tree-handled");
        let simplex = solve_nested(&inst, &opts(LpStrategy::Exact)).unwrap();
        prop_assert_eq!(&tree.stats.lp_objective_exact, &simplex.stats.lp_objective_exact);
        prop_assert_eq!(&tree.schedule.slots, &simplex.schedule.slots);
    }
}

/// Seeds of corpus-shape trees (`random_laminar(g = 4, horizon = 48)`)
/// the tree DP declines, so the hybrid simplex answers them.
const DECLINED_CORPUS_SEEDS: [u64; 12] =
    [10003, 10006, 10058, 10194, 10202, 10218, 10288, 10300, 10330, 10353, 10364, 10404];

/// On the trees the simplex still answers, the f64 walk lands on the
/// exact walk's vertex (the same `x`, `y` and objective, before any
/// re-pin) and certifies it without falling back, and the pipeline's
/// certified answer is the exact strategy's. A fallback would keep
/// every answer exact, so the zero-fallback check is what catches a
/// walk that stopped mirroring the exact one.
#[test]
fn declined_corpus_trees_certify_without_fallback() {
    let cfg = LaminarConfig { g: 4, horizon: 48, ..Default::default() };
    for seed in DECLINED_CORPUS_SEEDS {
        let inst = random_laminar(&cfg, seed);
        let canon = canonicalize(&Forest::build(&inst).unwrap(), &inst);
        let lp = build::<Ratio>(&canon, &inst, &opt23::compute(&canon, &inst));
        let (hybrid, outcome) = lp.solve_hybrid().unwrap();
        let exact = lp.solve().unwrap();
        assert_eq!(outcome, HybridOutcome::Verified, "seed {seed}");
        assert_eq!(hybrid.x, exact.x, "seed {seed}");
        assert_eq!(hybrid.y, exact.y, "seed {seed}");
        assert_eq!(hybrid.objective, exact.objective, "seed {seed}");

        let registry = Arc::new(obs::Registry::new());
        let certified = obs::with_collector(obs::Collector::new(Arc::clone(&registry)), || {
            solve_nested(&inst, &opts(LpStrategy::Certified)).unwrap()
        });
        let snap = registry.snapshot();
        assert_eq!(certified.stats.lp_answer, LpAnswer::Hybrid, "seed {seed}");
        assert_eq!(snap.counter("lp.hybrid_fallbacks"), None, "seed {seed}");
        assert_eq!(snap.counter("solver.certified_repair_fallbacks"), None, "seed {seed}");
        let exact = solve_nested(&inst, &opts(LpStrategy::Exact)).unwrap();
        assert_eq!(certified.z, exact.z, "seed {seed}");
        assert_eq!(certified.schedule.slots, exact.schedule.slots, "seed {seed}");
        assert_eq!(certified.schedule.assignment, exact.schedule.assignment, "seed {seed}");
        assert_eq!(
            certified.stats.lp_objective_exact, exact.stats.lp_objective_exact,
            "seed {seed}"
        );
    }
}
