//! LP-free combinatorial fast path: a bottom-up tree DP that solves the
//! strengthened LP of Figure 1(a) directly on the laminar forest.
//!
//! The strengthened LP lives entirely on the laminar tree, so general
//! simplex machinery is structurally overkill (cf. the flow/combinatorial
//! treatments of active-time LPs in Chang–Khuller–Mukherjee and
//! Chang–Gabow–Khuller). This module computes, per node `i`, a *demand*
//! `D(i)` — a lower bound on `x(Des(i))` implied by the LP constraints —
//! and a *capacity* `M(i) = Σ_{Des(i)} L`, then tries to pin the unique
//! `x`-vector attaining `Σ_roots D(root)` by propagating residual slack
//! top-down. The candidate is certified two ways:
//!
//! 1. **Feasibility** — a `g`-scaled integral max-flow (the Lemma 4.1
//!    deficiency network over job groups) proves a valid `y` exists for
//!    the candidate `x`, and harvests that `y` exactly.
//! 2. **Optimality + uniqueness** — `D(root)` is a valid LP lower bound
//!    by construction, so a feasible candidate with objective
//!    `Σ D(root)` is optimal; the top-down pinning only succeeds when
//!    every split is *forced*, which proves the optimal face is a single
//!    vertex, hence the exact simplex would return bit-identical `x`.
//!
//! Whenever any of this fails — a slack split that several nodes could
//! absorb, a demand DP that undershoots the true optimum (possible:
//! constraint (5) can bind through empty-but-positive nodes the DP does
//! not model), or an infeasible flow — the module *declines* with a
//! typed [`TreeDecline`] and the caller falls back to simplex. A decline
//! is never a verdict: the tree path either returns the provably-unique
//! LP optimum, proves the instance infeasible (`D(root) > M(root)`), or
//! says nothing.

use crate::instance::Instance;
use crate::lp_model::{group_jobs, FractionalSolution, JobGroup};
use crate::opt23::OptBounds;
use crate::tree::Forest;
use atsched_flow::FlowNetwork;
use atsched_num::Ratio;

/// Why the tree path declined an instance (the caller falls back to
/// simplex; each variant has a stable label and counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeDecline {
    /// Residual slack at this node could be split between two or more
    /// variables — the optimal face may not be a single vertex, so
    /// bit-identity with simplex cannot be certified.
    NonUniqueSplit {
        /// The node whose slack split is ambiguous.
        node: usize,
    },
    /// The pinned candidate is not `y`-feasible (the demand DP undershot
    /// the LP optimum; e.g. constraint (5) binding through an empty
    /// node).
    FlowInfeasible,
    /// A pinned `x(i)` is not an integer multiple of `1/g` (cannot build
    /// the integral certification network).
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
            TreeDecline::NonUniqueSplit { .. } => "nonunique",
            TreeDecline::FlowInfeasible => "flow",
            TreeDecline::NonIntegralScale { .. } => "scale",
            TreeDecline::Overflow => "overflow",
        }
    }

    /// The `lp.tree_fallback.<label>` counter this decline bumps.
    pub fn counter(&self) -> &'static str {
        match self {
            TreeDecline::NonUniqueSplit { .. } => "lp.tree_fallback.nonunique",
            TreeDecline::FlowInfeasible => "lp.tree_fallback.flow",
            TreeDecline::NonIntegralScale { .. } => "lp.tree_fallback.scale",
            TreeDecline::Overflow => "lp.tree_fallback.overflow",
        }
    }
}

impl std::fmt::Display for TreeDecline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeDecline::NonUniqueSplit { node } => {
                write!(f, "slack split at node {node} is not forced")
            }
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

/// A successful tree-path outcome.
#[derive(Debug, Clone)]
pub enum TreeOutcome {
    /// The provably-unique LP optimum, with `y` harvested from the
    /// certification flow. Bit-identical (in `x` and objective) to what
    /// the exact simplex returns.
    Solved(FractionalSolution<Ratio>),
    /// `D(root) > M(root)` for some root: demanded open mass exceeds the
    /// subtree's total slots, so the instance (and the LP) is infeasible.
    Infeasible,
}

/// Solve the strengthened LP combinatorially on the laminar forest, or
/// decline.
///
/// `use_ceiling` / `ceiling_depth` must match what
/// [`build_opts`](crate::lp_model::build_opts) /
/// [`add_deep_ceilings`](crate::lp_model::add_deep_ceilings) would
/// receive, so the demand DP mirrors exactly the constraint set the
/// simplex path would solve.
pub fn solve_tree(
    forest: &Forest,
    inst: &Instance,
    bounds: &OptBounds,
    use_ceiling: bool,
    ceiling_depth: i64,
) -> Result<TreeOutcome, TreeDecline> {
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
    let order = forest.post_order();
    let mut vol = vec![0i64; m]; // Σ p over jobs in the subtree
    let mut cap = vec![0i64; m]; // M(i) = Σ_{Des(i)} L
    let mut demand = vec![Ratio::from_i64(0); m]; // D(i)
    for &i in &order {
        let node = &forest.nodes[i];
        let own_vol: i64 = node.jobs.iter().map(|&j| inst.jobs[j].processing).sum();
        vol[i] = own_vol + node.children.iter().map(|&c| vol[c]).sum::<i64>();
        cap[i] = node.len() + node.children.iter().map(|&c| cap[c]).sum::<i64>();
        let kids: Ratio = node.children.iter().map(|&c| demand[c].clone()).sum();
        // Constraint (2)+(3) summed: g·x(Des(i)) ≥ volume in the subtree.
        let d = kids
            .max(Ratio::from_frac(vol[i], g))
            .max(Ratio::from_i64(ceil_bound[i].max(group_bound[i])));
        demand[i] = d;
    }

    // --- Infeasibility: demanded mass exceeds available slots. ---
    for &r in &forest.roots {
        if demand[r] > Ratio::from_i64(cap[r]) {
            return Ok(TreeOutcome::Infeasible);
        }
    }

    // --- Top-down pinning: the split at every node must be forced. ---
    // Subtree totals t(i); processing parents before children
    // (topological order) so t(i) is known when node i is split.
    let mut total = vec![Ratio::from_i64(0); m];
    for &r in &forest.roots {
        total[r] = demand[r].clone();
    }
    let mut x = vec![Ratio::from_i64(0); m];
    for i in forest.topological_order() {
        let node = &forest.nodes[i];
        let own_len = Ratio::from_i64(node.len());
        let kids_demand: Ratio = node.children.iter().map(|&c| demand[c].clone()).sum();
        let slack = &total[i] - &kids_demand;
        if slack.is_negative() {
            // t(i) < Σ D(children) cannot happen for a consistently
            // pinned t; decline defensively rather than trust it.
            return Err(TreeDecline::NonUniqueSplit { node: i });
        }
        let kids_range: Ratio =
            node.children.iter().map(|&c| &Ratio::from_i64(cap[c]) - &demand[c]).sum();
        let full_range = &own_len + &kids_range;
        if slack > full_range {
            return Err(TreeDecline::NonUniqueSplit { node: i });
        }
        if slack.is_zero() {
            // Every variable pinned at its lower end.
            x[i] = Ratio::from_i64(0);
            for &c in &node.children {
                total[c] = demand[c].clone();
            }
        } else if slack == full_range {
            // Every variable pinned at its upper end.
            x[i] = own_len;
            for &c in &node.children {
                total[c] = Ratio::from_i64(cap[c]);
            }
        } else {
            // Slack is strictly interior: forced only if exactly one
            // variable has room to absorb it.
            let mut wide_child: Option<usize> = None;
            let mut wide = 0usize;
            for &c in &node.children {
                if Ratio::from_i64(cap[c]) > demand[c] {
                    wide += 1;
                    wide_child = Some(c);
                }
            }
            if !node.is_empty() {
                wide += 1;
            }
            if wide != 1 {
                return Err(TreeDecline::NonUniqueSplit { node: i });
            }
            for &c in &node.children {
                total[c] = demand[c].clone();
            }
            match wide_child {
                Some(c) if node.is_empty() => {
                    x[i] = Ratio::from_i64(0);
                    total[c] = &demand[c] + &slack;
                }
                _ => x[i] = slack,
            }
        }
    }

    // --- Certification: g-scaled integral flow over the group network.
    // Feasible iff a valid y exists for this x; the flow *is* that y. ---
    let sol = certify_flow(forest, inst, &groups, &x)?;
    debug_assert_eq!(sol.objective, forest.roots.iter().map(|&r| &demand[r]).sum::<Ratio>());
    Ok(TreeOutcome::Solved(sol))
}

/// Build the `g`-scaled group/node flow network for a candidate `x`,
/// check `y`-feasibility by max-flow, and harvest the exact `y`.
///
/// Scaling by `g` makes every capacity integral (each `x(i)` is a
/// multiple of `1/g` by construction): source→G carries `q·p·g`,
/// G→i carries `q·(g·x(i))` (constraint (5)), i→sink carries
/// `g·(g·x(i))` (constraint (3)). Saturating the source side is exactly
/// constraint (2); dividing the harvested flow by `g` yields a rational
/// `y` that satisfies the LP verbatim.
fn certify_flow(
    forest: &Forest,
    inst: &Instance,
    groups: &[JobGroup],
    x: &[Ratio],
) -> Result<FractionalSolution<Ratio>, TreeDecline> {
    let m = forest.num_nodes();
    let g = inst.g;
    // g·x(i) as exact integers.
    let mut xs = vec![0i64; m];
    for i in 0..m {
        let scaled = &x[i] * &Ratio::from_i64(g);
        if !scaled.is_integer() {
            return Err(TreeDecline::NonIntegralScale { node: i });
        }
        xs[i] = scaled.floor().to_i64().ok_or(TreeDecline::Overflow)?;
    }

    let mut net = FlowNetwork::new(2 + groups.len() + m);
    let (source, sink) = (0usize, 1usize);
    let group_node = |gid: usize| 2 + gid;
    let forest_node = |i: usize| 2 + groups.len() + i;

    let mut demand_total = 0i64;
    let mut y_edges: Vec<(usize, usize, atsched_flow::EdgeRef)> = Vec::new();
    for (gid, grp) in groups.iter().enumerate() {
        let need = grp
            .count()
            .checked_mul(grp.processing)
            .and_then(|v| v.checked_mul(g))
            .ok_or(TreeDecline::Overflow)?;
        demand_total = demand_total.checked_add(need).ok_or(TreeDecline::Overflow)?;
        net.add_edge(source, group_node(gid), need);
        for i in forest.descendants(grp.node) {
            if forest.nodes[i].is_empty() {
                continue;
            }
            let cap = grp.count().checked_mul(xs[i]).ok_or(TreeDecline::Overflow)?;
            let e = net.add_edge(group_node(gid), forest_node(i), cap);
            y_edges.push((i, gid, e));
        }
    }
    for (i, &xsi) in xs.iter().enumerate() {
        if forest.nodes[i].is_empty() {
            continue;
        }
        let cap = g.checked_mul(xsi).ok_or(TreeDecline::Overflow)?;
        net.add_edge(forest_node(i), sink, cap);
    }

    if net.max_flow(source, sink) != demand_total {
        return Err(TreeDecline::FlowInfeasible);
    }

    // Harvest y in the same (node, ascending-gid) layout the LP
    // projection produces.
    let mut y: Vec<Vec<(usize, Ratio)>> = vec![Vec::new(); m];
    for (i, gid, e) in y_edges {
        y[i].push((gid, Ratio::from_frac(net.flow_on(e), g)));
    }
    for per_node in &mut y {
        per_node.sort_by_key(|(gid, _)| *gid);
    }

    let objective: Ratio = x.iter().sum();
    Ok(FractionalSolution { x: x.to_vec(), y, objective })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::canonicalize;
    use crate::instance::Job;
    use crate::lp_model::build;
    use crate::opt23;

    type Cases = Vec<(i64, Vec<(i64, i64, i64)>)>;

    fn prep(g: i64, jobs: Vec<(i64, i64, i64)>) -> (Instance, Forest, OptBounds) {
        let inst = Instance::new(g, jobs.into_iter().map(|(r, d, p)| Job::new(r, d, p)).collect())
            .unwrap();
        let forest = Forest::build(&inst).unwrap();
        let canon = canonicalize(&forest, &inst);
        let bounds = opt23::compute(&canon, &inst);
        (inst, canon, bounds)
    }

    fn tree(g: i64, jobs: Vec<(i64, i64, i64)>) -> Result<TreeOutcome, TreeDecline> {
        let (inst, canon, bounds) = prep(g, jobs);
        solve_tree(&canon, &inst, &bounds, true, 3)
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
    fn solved_instances_match_simplex_bit_for_bit() {
        let cases: Cases = vec![
            (1, vec![(0, 3, 3)]),
            (2, vec![(0, 2, 1); 3]),
            (2, vec![(0, 6, 1); 5]),
            (3, vec![(0, 4, 1); 7]),
            (2, vec![(0, 4, 4), (0, 4, 4)]),
            // Two independent roots.
            (2, vec![(0, 2, 1), (0, 2, 1), (0, 2, 1), (10, 12, 1), (10, 12, 1), (10, 12, 1)]),
        ];
        let mut solved = 0usize;
        for (g, jobs) in cases {
            let (inst, canon, bounds) = prep(g, jobs.clone());
            match solve_tree(&canon, &inst, &bounds, true, 3) {
                Ok(TreeOutcome::Solved(sol)) => {
                    let lp = build::<Ratio>(&canon, &inst, &bounds);
                    let simplex = lp.solve().unwrap();
                    assert_eq!(sol.objective, simplex.objective, "{g} {jobs:?}");
                    assert_eq!(sol.x, simplex.x, "{g} {jobs:?}");
                    sol.check(&canon, &inst, &lp.groups).unwrap();
                    solved += 1;
                }
                Ok(TreeOutcome::Infeasible) => panic!("feasible case flagged infeasible"),
                Err(_) => {} // declining is always allowed
            }
        }
        assert!(solved >= 4, "tree path solved only {solved} of the easy cases");
    }

    #[test]
    fn infeasible_instances_are_proven_infeasible() {
        // Volume 3 > capacity 1·2 within window [0,2).
        match tree(1, vec![(0, 2, 1); 3]).unwrap() {
            TreeOutcome::Infeasible => {}
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn ambiguous_split_declines_instead_of_guessing() {
        // 5 unit jobs spread over a wide window with two wide children:
        // the LP optimum 5/2 can place the fractional mass in several
        // ways, so the tree path must decline, not pick one.
        let (inst, canon, bounds) = prep(2, vec![(0, 8, 1), (0, 8, 1), (1, 3, 1), (5, 7, 1)]);
        match solve_tree(&canon, &inst, &bounds, true, 3) {
            Err(d) => assert_eq!(d.label(), "nonunique"),
            Ok(TreeOutcome::Solved(sol)) => {
                // If it *did* pin a unique optimum, it must match simplex.
                let lp = build::<Ratio>(&canon, &inst, &bounds);
                let simplex = lp.solve().unwrap();
                assert_eq!(sol.x, simplex.x);
            }
            Ok(TreeOutcome::Infeasible) => panic!("feasible case flagged infeasible"),
        }
    }

    #[test]
    fn decline_labels_are_stable() {
        for (decline, label) in [
            (TreeDecline::NonUniqueSplit { node: 0 }, "nonunique"),
            (TreeDecline::FlowInfeasible, "flow"),
            (TreeDecline::NonIntegralScale { node: 0 }, "scale"),
            (TreeDecline::Overflow, "overflow"),
        ] {
            assert_eq!(decline.label(), label);
            assert_eq!(decline.counter(), format!("lp.tree_fallback.{label}"));
        }
    }
}
