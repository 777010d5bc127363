//! LP-free combinatorial fast path: a bottom-up tree DP that solves the
//! strengthened LP of Figure 1(a) directly on the laminar forest, and
//! the *pin* that makes every LP strategy answer the same optimum.
//!
//! The strengthened LP lives entirely on the laminar tree, so general
//! simplex machinery is structurally overkill (cf. the flow/combinatorial
//! treatments of active-time LPs in Chang–Khuller–Mukherjee and
//! Chang–Gabow–Khuller). [`TreeDp`] computes, per node `i`, a *demand*
//! `D(i)` — a lower bound on `x(Des(i))` implied by the LP constraints —
//! and a *capacity* `M(i) = Σ_{Des(i)} L`.
//!
//! **The pin.** Pinning a root at a total `t` distributes `t` top-down by
//! one rule: at each node, the slack above the children's demands goes
//! to the children in index order, each up to its capacity, and the
//! remainder goes to the node's own width. The constraints
//! `x(Des(i)) ≥ D(i)` and `0 ≤ x(i) ≤ L(i)` form a relaxation of the LP's
//! `x`-projection, and with the root total fixed the pin is that
//! relaxation's lexicographic optimum (node by node in topological
//! order: minimum own `x`, then maximum children's totals in index
//! order). A pin that the laminar greedy certifies
//! ([`GroupTree::certify`]: the `g`-scaled Lemma 4.1 network over job
//! groups, seen as micro-slots, which also yields an exact `y`) is
//! LP-feasible, so it is the LP's own lexicographic optimum at that
//! total, whichever computation found the total.
//!
//! The pin runs twice:
//!
//! 1. [`TreeDp::solve`] — the tree attempt — pins every root at
//!    `D(root)`. `D(root)` is an LP lower bound, so a certified pin is
//!    optimal.
//! 2. [`TreeDp::repin`] re-pins a simplex optimum root by root at each
//!    root's own optimal total. The LP is block-diagonal across roots, so
//!    every optimum has the same root totals; a root whose pin certifies
//!    takes the pinned block, any other keeps the simplex vertex.
//!
//! The tree attempt either returns an LP optimum, proves the instance
//! infeasible (`D(i) > M(i)` somewhere), or declines with a typed
//! [`TreeDecline`] — a demand DP that undershoots the true optimum
//! (possible: constraints (3) and (5) can bind through nodes the DP does
//! not model, such as a child saturated by its own jobs) fails the
//! certification — and the caller falls back to simplex. A decline is
//! never a verdict.

use crate::feasibility::GroupTree;
use crate::instance::Instance;
use crate::lp_model::{group_jobs, FractionalSolution, JobGroup};
use crate::opt23::OptBounds;
use crate::tree::Forest;
use atsched_num::Ratio;

/// Why the tree path declined an instance (the caller falls back to
/// simplex; each variant has a stable label and counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeDecline {
    /// The pinned candidate is not `y`-feasible (the demand DP undershot
    /// the LP optimum; e.g. constraint (5) binding through an empty or
    /// saturated node).
    FlowInfeasible,
    /// A pinned `x(i)` is not an integer multiple of `1/g` (the
    /// certification counts `g·x(i)` micro-slots).
    NonIntegralScale {
        /// The node with the non-`1/g`-integral value.
        node: usize,
    },
    /// Scaled capacities would overflow `i64`.
    Overflow,
}

impl TreeDecline {
    /// Stable label used in `lp.tree_fallback.<label>` counters.
    pub fn label(&self) -> &'static str {
        match self {
            TreeDecline::FlowInfeasible => "flow",
            TreeDecline::NonIntegralScale { .. } => "scale",
            TreeDecline::Overflow => "overflow",
        }
    }

    /// The `lp.tree_fallback.<label>` counter this decline bumps.
    pub fn counter(&self) -> &'static str {
        match self {
            TreeDecline::FlowInfeasible => "lp.tree_fallback.flow",
            TreeDecline::NonIntegralScale { .. } => "lp.tree_fallback.scale",
            TreeDecline::Overflow => "lp.tree_fallback.overflow",
        }
    }
}

impl std::fmt::Display for TreeDecline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeDecline::FlowInfeasible => {
                write!(f, "demand-DP candidate is not y-feasible")
            }
            TreeDecline::NonIntegralScale { node } => {
                write!(f, "x at node {node} is not a multiple of 1/g")
            }
            TreeDecline::Overflow => write!(f, "scaled capacities overflow i64"),
        }
    }
}

/// What [`TreeDp::repin`] did with one root block of a simplex optimum
/// (each outcome bumps its own counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repin {
    /// The pin at the root's optimal total certified and replaced the
    /// block.
    Pinned,
    /// The pin did not certify; the block stays at the simplex vertex.
    Kept,
}

impl Repin {
    /// The `lp.repin.<outcome>` counter this outcome bumps.
    pub fn counter(&self) -> &'static str {
        match self {
            Repin::Pinned => "lp.repin.pinned",
            Repin::Kept => "lp.repin.kept",
        }
    }
}

/// A successful tree-path outcome.
#[derive(Debug, Clone)]
pub enum TreeOutcome {
    /// The pinned LP optimum, with the `y` its certification found.
    /// Bit-identical (in `x` and objective) to what the exact
    /// strategy returns after its re-pin.
    Solved(FractionalSolution<Ratio>),
    /// `D(i) > M(i)` for some node: demanded open mass exceeds the
    /// subtree's total slots, so the instance (and the LP) is infeasible.
    Infeasible,
}

/// The demand DP of a canonical forest: everything the pin and its
/// certificate need, computed once per solve.
#[derive(Debug)]
pub struct TreeDp {
    groups: Vec<JobGroup>,
    /// `D(i)`.
    demand: Vec<Ratio>,
    /// `M(i) = Σ_{Des(i)} L`.
    cap: Vec<i64>,
    /// Some node has `D(i) > M(i)`.
    infeasible: bool,
    /// One root's subtree each: the LP's diagonal blocks.
    blocks: Vec<GroupTree>,
}

impl TreeDp {
    /// Run the bottom-up demand DP.
    ///
    /// `use_ceiling` / `ceiling_depth` must match what
    /// [`build_opts`](crate::lp_model::build_opts) /
    /// [`add_deep_ceilings`](crate::lp_model::add_deep_ceilings) would
    /// receive, so the demand DP mirrors exactly the constraint set the
    /// simplex path would solve.
    pub fn new(
        forest: &Forest,
        inst: &Instance,
        bounds: &OptBounds,
        use_ceiling: bool,
        ceiling_depth: i64,
    ) -> Self {
        let m = forest.num_nodes();
        let g = inst.g;
        let groups = group_jobs(forest, inst);

        // --- Per-node demand inputs, mirroring the LP's constraint set. ---
        // Ceiling constraints (7)/(8) and the deep extension: only the
        // constraints the LP actually emits become DP bounds.
        let mut ceil_bound = vec![0i64; m];
        if use_ceiling {
            for (i, cb) in ceil_bound.iter_mut().enumerate() {
                if bounds.ge3[i] {
                    *cb = 3;
                } else if bounds.ge2[i] {
                    *cb = 2;
                }
            }
            if ceiling_depth > 3 {
                let deep = crate::opt23::compute_deep(forest, inst, ceiling_depth);
                for (i, cb) in ceil_bound.iter_mut().enumerate() {
                    if deep.lower[i] > 3 {
                        *cb = (*cb).max(deep.lower[i]);
                    }
                }
            }
        }
        // Constraint (2)+(5): a group with processing p forces x(Des(k)) ≥ p.
        let mut group_bound = vec![0i64; m];
        for grp in &groups {
            group_bound[grp.node] = group_bound[grp.node].max(grp.processing);
        }

        // --- Bottom-up DP: volume, capacity M, demand D. ---
        let mut vol = vec![0i64; m]; // Σ p over jobs in the subtree
        let mut cap = vec![0i64; m];
        let mut demand = vec![Ratio::from_i64(0); m];
        let mut infeasible = false;
        for i in forest.post_order() {
            let node = &forest.nodes[i];
            let own_vol: i64 = node.jobs.iter().map(|&j| inst.jobs[j].processing).sum();
            vol[i] = own_vol + node.children.iter().map(|&c| vol[c]).sum::<i64>();
            cap[i] = node.len() + node.children.iter().map(|&c| cap[c]).sum::<i64>();
            let kids: Ratio = node.children.iter().map(|&c| &demand[c]).sum();
            // Constraint (2)+(3) summed: g·x(Des(i)) ≥ volume in the subtree.
            demand[i] = kids
                .max(Ratio::from_frac(vol[i], g))
                .max(Ratio::from_i64(ceil_bound[i].max(group_bound[i])));
            // x(Des(i)) ≥ D(i) cannot fit in M(i) slots: infeasible.
            infeasible |= demand[i] > Ratio::from_i64(cap[i]);
        }

        let blocks = GroupTree::forest(forest, &groups);
        TreeDp { groups, demand, cap, infeasible, blocks }
    }

    /// The tree attempt: pin every root at `D(root)` and certify it.
    ///
    /// Returns the LP optimum, proves the instance infeasible, or
    /// declines at the first root whose pin does not certify.
    pub fn solve(&self, forest: &Forest, inst: &Instance) -> Result<TreeOutcome, TreeDecline> {
        if self.infeasible {
            return Ok(TreeOutcome::Infeasible);
        }
        let m = forest.num_nodes();
        let mut x = vec![Ratio::from_i64(0); m];
        let mut y = vec![Vec::new(); m];
        for block in &self.blocks {
            self.split(forest, block, &self.demand[block.root()], &mut x);
            let harvested = block.certify(forest, &self.groups, inst.g, &x)?;
            for (&i, yi) in block.nodes().iter().zip(harvested) {
                y[i] = yi;
            }
        }
        let objective = self.blocks.iter().map(|b| &self.demand[b.root()]).sum();
        Ok(TreeOutcome::Solved(FractionalSolution { x, y, objective }))
    }

    /// The tree attempt's candidate, certified or not: every root pinned
    /// at `D(root)`. Meaningful only when no node has `D(i) > M(i)`
    /// ([`TreeOutcome::Infeasible`]).
    pub fn pinned(&self, forest: &Forest) -> Vec<Ratio> {
        let mut x = vec![Ratio::from_i64(0); forest.num_nodes()];
        for block in &self.blocks {
            self.split(forest, block, &self.demand[block.root()], &mut x);
        }
        x
    }

    /// Re-pin a simplex optimum root by root, each at that root's own
    /// optimal total: a root whose pin certifies takes the pinned block
    /// of `x` and `y`, any other keeps the simplex vertex. The objective
    /// is unchanged. Returns what happened to each root, in root order.
    ///
    /// Per root, not per forest: whether a block is pinned then depends
    /// on that block alone, as it does when the roots are solved apart.
    pub fn repin(
        &self,
        forest: &Forest,
        inst: &Instance,
        sol: &mut FractionalSolution<Ratio>,
    ) -> Vec<Repin> {
        let mut x = sol.x.clone();
        let mut outcomes = Vec::with_capacity(self.blocks.len());
        for block in &self.blocks {
            let total: Ratio = block.nodes().iter().map(|&i| &sol.x[i]).sum();
            self.split(forest, block, &total, &mut x);
            let outcome = match block.certify(forest, &self.groups, inst.g, &x) {
                Ok(harvested) => {
                    for (&i, yi) in block.nodes().iter().zip(harvested) {
                        sol.x[i] = x[i].clone();
                        sol.y[i] = yi;
                    }
                    Repin::Pinned
                }
                Err(_) => Repin::Kept,
            };
            outcomes.push(outcome);
        }
        outcomes
    }

    /// Pin `block` at root total `total` into `x` by the split rule.
    ///
    /// `total` must lie in `[D(root), M(root)]`, as every LP-feasible
    /// total does; then every child total stays in `[D(c), M(c)]` and
    /// every own `x` in `[0, L]`.
    fn split(&self, forest: &Forest, block: &GroupTree, total: &Ratio, x: &mut [Ratio]) {
        // Preorder visits a parent before its children, so `x[c]` holds
        // child `c`'s subtree total until `c` itself is split.
        x[block.root()] = total.clone();
        for &i in block.nodes() {
            let node = &forest.nodes[i];
            let kids_demand: Ratio = node.children.iter().map(|&c| &self.demand[c]).sum();
            let mut slack = &x[i] - &kids_demand;
            for &c in &node.children {
                let room = &Ratio::from_i64(self.cap[c]) - &self.demand[c];
                let take = if slack < room { slack.clone() } else { room };
                slack -= &take;
                x[c] = &self.demand[c] + &take;
            }
            debug_assert!(!slack.is_negative() && slack <= Ratio::from_i64(node.len()));
            x[i] = slack;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::canonicalize;
    use crate::instance::Job;
    use crate::lp_model::build;
    use crate::opt23;
    use crate::solver::{solve_lp, LpOptimum, LpStrategy, SolverOptions, StageTimings};

    type Cases = Vec<(i64, Vec<(i64, i64, i64)>)>;

    fn prep(g: i64, jobs: Vec<(i64, i64, i64)>) -> (Instance, Forest, OptBounds) {
        let inst = Instance::new(g, jobs.into_iter().map(|(r, d, p)| Job::new(r, d, p)).collect())
            .unwrap();
        let forest = Forest::build(&inst).unwrap();
        let canon = canonicalize(&forest, &inst);
        let bounds = opt23::compute(&canon, &inst);
        (inst, canon, bounds)
    }

    fn dp(inst: &Instance, canon: &Forest, bounds: &OptBounds) -> TreeDp {
        TreeDp::new(canon, inst, bounds, true, 3)
    }

    fn tree(g: i64, jobs: Vec<(i64, i64, i64)>) -> Result<TreeOutcome, TreeDecline> {
        let (inst, canon, bounds) = prep(g, jobs);
        dp(&inst, &canon, &bounds).solve(&canon, &inst)
    }

    /// The LP optimum the [`LpStrategy::Exact`] strategy answers: the
    /// exact simplex, re-pinned.
    fn exact_strategy(
        inst: &Instance,
        canon: &Forest,
        bounds: &OptBounds,
    ) -> FractionalSolution<Ratio> {
        let opts = SolverOptions { lp: LpStrategy::Exact, ..SolverOptions::exact() };
        let timings = &mut StageTimings::default();
        match solve_lp(inst, canon, bounds, &opts, LpStrategy::Exact, timings) {
            Ok(LpOptimum::Rational(sol, _)) => sol,
            _ => panic!("the exact strategy answers a rational optimum"),
        }
    }

    #[test]
    fn single_rigid_job_is_solved_exactly() {
        match tree(1, vec![(0, 3, 3)]).unwrap() {
            TreeOutcome::Solved(sol) => assert_eq!(sol.objective, Ratio::from_i64(3)),
            other => panic!("expected solved, got {other:?}"),
        }
    }

    #[test]
    fn gap2_family_matches_the_strengthened_lp() {
        // g+1 unit jobs in a width-2 window: strengthened LP gives 2.
        for g in [2i64, 3, 5] {
            match tree(g, vec![(0, 2, 1); (g + 1) as usize]).unwrap() {
                TreeOutcome::Solved(sol) => {
                    assert_eq!(sol.objective, Ratio::from_i64(2), "g = {g}")
                }
                other => panic!("expected solved for g = {g}, got {other:?}"),
            }
        }
    }

    #[test]
    fn solved_instances_match_the_exact_strategy_bit_for_bit() {
        let cases: Cases = vec![
            (1, vec![(0, 3, 3)]),
            (2, vec![(0, 2, 1); 3]),
            (2, vec![(0, 6, 1); 5]),
            (3, vec![(0, 4, 1); 7]),
            (2, vec![(0, 4, 4), (0, 4, 4)]),
            // Two independent roots.
            (2, vec![(0, 2, 1), (0, 2, 1), (0, 2, 1), (10, 12, 1), (10, 12, 1), (10, 12, 1)]),
            // Slack that several variables could absorb.
            (2, vec![(0, 10, 2), (1, 6, 2), (2, 5, 1), (7, 9, 1)]),
            (2, vec![(0, 12, 3), (1, 6, 2), (2, 5, 1), (7, 11, 2)]),
        ];
        for (g, jobs) in cases {
            let (inst, canon, bounds) = prep(g, jobs.clone());
            match dp(&inst, &canon, &bounds).solve(&canon, &inst) {
                Ok(TreeOutcome::Solved(sol)) => {
                    let exact = exact_strategy(&inst, &canon, &bounds);
                    assert_eq!(sol.objective, exact.objective, "{g} {jobs:?}");
                    assert_eq!(sol.x, exact.x, "{g} {jobs:?}");
                    sol.check(&canon, &inst, &build::<Ratio>(&canon, &inst, &bounds).groups)
                        .unwrap();
                }
                other => panic!("{g} {jobs:?}: expected solved, got {other:?}"),
            }
        }
    }

    #[test]
    fn infeasible_instances_are_proven_infeasible() {
        // Volume 3 > capacity 1·2 within window [0,2); the second case
        // overloads a child window under a root with room to spare.
        let cases: Cases =
            vec![(1, vec![(0, 2, 1); 3]), (1, vec![(0, 2, 1), (0, 2, 1), (0, 2, 1), (0, 10, 1)])];
        for (g, jobs) in cases {
            match tree(g, jobs.clone()).unwrap() {
                TreeOutcome::Infeasible => {}
                other => panic!("{jobs:?}: expected infeasible, got {other:?}"),
            }
        }
    }

    #[test]
    fn ambiguous_split_is_pinned_like_the_exact_strategy() {
        // Unit jobs spread over a wide window with two wide children: the
        // LP optimum can place the fractional mass in several ways, and
        // the split rule picks one that the exact strategy re-pins to.
        let (inst, canon, bounds) = prep(2, vec![(0, 8, 1), (0, 8, 1), (1, 3, 1), (5, 7, 1)]);
        let Ok(TreeOutcome::Solved(sol)) = dp(&inst, &canon, &bounds).solve(&canon, &inst) else {
            panic!("the pin answers an ambiguous split");
        };
        let exact = exact_strategy(&inst, &canon, &bounds);
        assert_eq!(sol.objective, exact.objective);
        assert_eq!(sol.x, exact.x);
        sol.check(&canon, &inst, &build::<Ratio>(&canon, &inst, &bounds).groups).unwrap();
    }

    #[test]
    fn repin_decides_each_root_on_its_own_block() {
        // Root 0: a p = 4 job around a rigid pair the DP undershoots
        // (demand 4, optimum 5), which the pin at 5 certifies. Root 1:
        // an optimum whose pin does not certify, so its block keeps the
        // simplex vertex.
        let pinned = vec![(0, 8, 4), (4, 5, 1), (4, 5, 1)];
        let kept = vec![(10, 22, 4), (10, 19, 1), (20, 22, 1), (20, 22, 1)];
        let both: Vec<_> = pinned.iter().chain(&kept).copied().collect();
        let (inst, canon, bounds) = prep(2, both);
        let tree = dp(&inst, &canon, &bounds);
        assert_eq!(tree.solve(&canon, &inst).unwrap_err(), TreeDecline::FlowInfeasible);
        let vertex = build::<Ratio>(&canon, &inst, &bounds).solve().unwrap();
        let mut sol = vertex.clone();
        assert_eq!(tree.repin(&canon, &inst, &mut sol), vec![Repin::Pinned, Repin::Kept]);
        assert_eq!(sol.objective, vertex.objective);
        sol.check(&canon, &inst, &build::<Ratio>(&canon, &inst, &bounds).groups).unwrap();
        for i in canon.descendants(canon.roots[1]) {
            assert_eq!((&sol.x[i], &sol.y[i]), (&vertex.x[i], &vertex.y[i]), "node {i}");
        }

        // Each root alone re-pins the same way.
        for (jobs, want) in [(pinned, Repin::Pinned), (kept, Repin::Kept)] {
            let (inst, canon, bounds) = prep(2, jobs);
            let mut alone = build::<Ratio>(&canon, &inst, &bounds).solve().unwrap();
            assert_eq!(dp(&inst, &canon, &bounds).repin(&canon, &inst, &mut alone), vec![want]);
            assert_eq!(alone.x, exact_strategy(&inst, &canon, &bounds).x);
        }
    }

    #[test]
    fn decline_and_repin_labels_are_stable() {
        for (decline, label) in [
            (TreeDecline::FlowInfeasible, "flow"),
            (TreeDecline::NonIntegralScale { node: 0 }, "scale"),
            (TreeDecline::Overflow, "overflow"),
        ] {
            assert_eq!(decline.label(), label);
            assert_eq!(decline.counter(), format!("lp.tree_fallback.{label}"));
        }
        assert_eq!(Repin::Pinned.counter(), "lp.repin.pinned");
        assert_eq!(Repin::Kept.counter(), "lp.repin.kept");
    }
}
