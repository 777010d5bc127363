//! The strengthened linear program of Figure 1(a) (paper §3.1).
//!
//! Variables: `x(i)` = fractional number of open slots in node `i`;
//! `y(i,j)` = amount of job `j` scheduled in node `i`'s own slots.
//! Constraints (numbers as in the paper):
//!
//! * (2) `Σ_{i ∈ Des(k(j))} y(i,j) ≥ p_j` — jobs fully scheduled;
//! * (3) `Σ_{j ∈ J(Anc(i))} y(i,j) ≤ g·x(i)` — slot capacity;
//! * (4) `x(i) ≤ L(i)` — a node cannot open more than its own slots;
//! * (5) `y(i,j) ≤ x(i)` — one unit of a job per slot;
//! * (6) `y(i,j) = 0` elsewhere — encoded by not creating the variable;
//! * (7)/(8) `Σ_{i' ∈ Des(i)} x(i') ≥ 2 (resp. 3)` whenever the
//!   [`opt23`](crate::opt23) oracle proves `OPT_i ≥ 2 (resp. 3)` —
//!   the *ceiling constraints* that push the integrality gap below 2 on
//!   nested instances.
//!
//! ### Job grouping
//!
//! Jobs sharing the same node and processing time are interchangeable, so
//! they are aggregated into *groups*: a group of `q` identical jobs gets
//! one `y(i,G)` variable with `(2) Σ y(i,G) ≥ q·p` and `(5) y(i,G) ≤
//! q·x(i)`. Splitting a group solution evenly recovers a per-job solution
//! and vice versa, so the projection onto `x` — all the rounding pipeline
//! consumes — is exactly preserved while the LP shrinks dramatically on
//! the adversarial families (e.g. the Lemma 5.1 instance has `g` groups
//! of `g` identical unit jobs).

use crate::instance::Instance;
use crate::opt23::OptBounds;
use crate::tree::Forest;
use atsched_lp::{Cmp, HybridOutcome, LpStatus, Model, Scalar, VarId};
use atsched_num::Ratio;

/// A maximal set of interchangeable jobs: same node, same processing time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobGroup {
    /// The node the group belongs to (`k(G)`).
    pub node: usize,
    /// Common processing time.
    pub processing: i64,
    /// Member job ids.
    pub jobs: Vec<usize>,
}

impl JobGroup {
    /// Number of jobs in the group.
    pub fn count(&self) -> i64 {
        self.jobs.len() as i64
    }
}

/// Group the instance's jobs by `(k(j), p_j)`.
pub fn group_jobs(forest: &Forest, inst: &Instance) -> Vec<JobGroup> {
    let mut groups: Vec<JobGroup> = Vec::new();
    for (j, job) in inst.jobs.iter().enumerate() {
        let node = forest.job_node[j];
        match groups.iter_mut().find(|g| g.node == node && g.processing == job.processing) {
            Some(g) => g.jobs.push(j),
            None => groups.push(JobGroup { node, processing: job.processing, jobs: vec![j] }),
        }
    }
    groups
}

/// The assembled LP plus the variable layout needed to read solutions
/// back.
#[derive(Debug, Clone)]
pub struct NestedLp<S> {
    /// The underlying model (minimize `Σ x(i)`).
    pub model: Model<S>,
    /// `x(i)` variable per node.
    pub x_vars: Vec<VarId>,
    /// `y(i, G)` variables: per node, the `(group id, var)` pairs.
    pub y_vars: Vec<Vec<(usize, VarId)>>,
    /// The job groups.
    pub groups: Vec<JobGroup>,
}

/// A fractional solution in node space, as consumed by the
/// [`transform`](crate::transform) and [`rounding`](crate::rounding)
/// stages.
#[derive(Debug, Clone)]
pub struct FractionalSolution<S> {
    /// `x(i)` per node.
    pub x: Vec<S>,
    /// Per node: `(group id, y mass)` pairs.
    pub y: Vec<Vec<(usize, S)>>,
    /// `Σ x(i)`.
    pub objective: S,
}

/// Errors from building/solving the nested LP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NestedLpError {
    /// The LP is infeasible — equivalently, the instance itself is
    /// infeasible (the flow polytope underlying (2)/(3)/(5) is integral).
    Infeasible,
    /// The simplex solver gave up (only possible on the `f64` path).
    Solver(atsched_lp::LpError),
}

impl std::fmt::Display for NestedLpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NestedLpError::Infeasible => write!(f, "instance (and hence LP) is infeasible"),
            NestedLpError::Solver(e) => write!(f, "LP solver failure: {e}"),
        }
    }
}

impl std::error::Error for NestedLpError {}

/// Build the strengthened LP for a (canonical) forest (ceiling
/// constraints included — the paper's Figure 1(a)).
pub fn build<S: Scalar>(forest: &Forest, inst: &Instance, bounds: &OptBounds) -> NestedLp<S> {
    build_opts(forest, inst, bounds, true)
}

/// Build the LP with or without the ceiling constraints (7)/(8).
///
/// Disabling them yields the *natural* tree LP, whose integrality gap is
/// 2 on nested instances — used by the ablation experiment (E10) to show
/// the constraints are what makes 9/5 possible.
pub fn build_opts<S: Scalar>(
    forest: &Forest,
    inst: &Instance,
    bounds: &OptBounds,
    use_ceiling: bool,
) -> NestedLp<S> {
    let m = forest.num_nodes();
    let groups = group_jobs(forest, inst);
    let mut model: Model<S> = Model::new();

    let x_vars: Vec<VarId> = (0..m).map(|i| model.add_var(format!("x{i}"), S::one())).collect();

    // y variables only where the node can actually hold work: L(i) > 0.
    let mut y_vars: Vec<Vec<(usize, VarId)>> = vec![Vec::new(); m];
    for (gid, grp) in groups.iter().enumerate() {
        for i in forest.descendants(grp.node) {
            if !forest.nodes[i].is_empty() {
                let v = model.add_var(format!("y{i}g{gid}"), S::zero());
                y_vars[i].push((gid, v));
            }
        }
    }

    // (2) every group fully scheduled: Σ_i y(i,G) ≥ q·p.
    for (gid, grp) in groups.iter().enumerate() {
        let mut terms = Vec::new();
        for i in forest.descendants(grp.node) {
            if let Some((_, v)) = y_vars[i].iter().find(|(g, _)| *g == gid) {
                terms.push((*v, S::one()));
            }
        }
        model.add_constraint(terms, Cmp::Ge, S::from_i64(grp.count() * grp.processing));
    }

    // (3) capacity per node: Σ_G y(i,G) − g·x(i) ≤ 0.
    for i in 0..m {
        if forest.nodes[i].is_empty() {
            continue;
        }
        let mut terms: Vec<(VarId, S)> = y_vars[i].iter().map(|(_, v)| (*v, S::one())).collect();
        terms.push((x_vars[i], S::from_i64(-inst.g)));
        model.add_constraint(terms, Cmp::Le, S::zero());
    }

    // (4) x(i) ≤ L(i).
    for (i, &xv) in x_vars.iter().enumerate().take(m) {
        model.add_constraint(vec![(xv, S::one())], Cmp::Le, S::from_i64(forest.nodes[i].len()));
    }

    // (5) y(i,G) ≤ q·x(i).
    for i in 0..m {
        for (gid, v) in &y_vars[i] {
            let q = groups[*gid].count();
            model.add_constraint(
                vec![(*v, S::one()), (x_vars[i], S::from_i64(-q))],
                Cmp::Le,
                S::zero(),
            );
        }
    }

    // (7)/(8) ceiling constraints from the OPT_i oracles.
    for i in 0..m {
        if use_ceiling && (bounds.ge2[i] || bounds.ge3[i]) {
            let terms: Vec<(VarId, S)> =
                forest.descendants(i).into_iter().map(|d| (x_vars[d], S::one())).collect();
            let rhs = if bounds.ge3[i] { 3 } else { 2 };
            model.add_constraint(terms, Cmp::Ge, S::from_i64(rhs));
        }
    }

    NestedLp { model, x_vars, y_vars, groups }
}

/// Paper extension: append generalized ceiling constraints
/// `Σ_{i' ∈ Des(i)} x(i') ≥ k` for every node whose
/// [`DeepBounds`](crate::opt23::DeepBounds) lower bound `k` exceeds 3
/// (levels 2 and 3 are already present when the LP was built with the
/// standard ceiling constraints).
pub fn add_deep_ceilings<S: Scalar>(
    lp: &mut NestedLp<S>,
    forest: &Forest,
    deep: &crate::opt23::DeepBounds,
) {
    for i in 0..forest.num_nodes() {
        if deep.lower[i] <= 3 {
            continue;
        }
        let terms: Vec<(VarId, S)> =
            forest.descendants(i).into_iter().map(|d| (lp.x_vars[d], S::one())).collect();
        lp.model.add_constraint(terms, Cmp::Ge, S::from_i64(deep.lower[i]));
    }
}

impl<S: Scalar> NestedLp<S> {
    /// Solve and project onto node space.
    pub fn solve(&self) -> Result<FractionalSolution<S>, NestedLpError> {
        let sol = self.model.solve().map_err(NestedLpError::Solver)?;
        match sol.status {
            LpStatus::Optimal => {}
            LpStatus::Infeasible => return Err(NestedLpError::Infeasible),
            LpStatus::Unbounded => unreachable!("objective Σx ≥ 0 is bounded below"),
        }
        Ok(self.project(&sol))
    }

    fn project(&self, sol: &atsched_lp::Solution<S>) -> FractionalSolution<S> {
        let x: Vec<S> = self.x_vars.iter().map(|v| sol.value(*v).clone()).collect();
        let y: Vec<Vec<(usize, S)>> = self
            .y_vars
            .iter()
            .map(|per_node| per_node.iter().map(|(gid, v)| (*gid, sol.value(*v).clone())).collect())
            .collect();
        FractionalSolution { objective: sol.objective.clone(), x, y }
    }
}

impl NestedLp<Ratio> {
    /// Solve via the f64-first, exactly-verified hybrid pipeline
    /// ([`Model::solve_hybrid`]) and project onto node space.
    ///
    /// With `certify = true` the projected solution is bit-identical to
    /// [`NestedLp::solve`]: either the optimality-and-uniqueness
    /// certificate proves the float basis yields the exact solver's
    /// vertex, or the pipeline already fell back to the exact simplex.
    /// The returned [`HybridOutcome`] says which path was taken.
    pub fn solve_hybrid(
        &self,
        certify: bool,
    ) -> Result<(FractionalSolution<Ratio>, HybridOutcome), NestedLpError> {
        let (sol, _info, outcome) =
            self.model.solve_hybrid(certify).map_err(NestedLpError::Solver)?;
        match sol.status {
            LpStatus::Optimal => Ok((self.project(&sol), outcome)),
            LpStatus::Infeasible => Err(NestedLpError::Infeasible),
            LpStatus::Unbounded => unreachable!("objective Σx ≥ 0 is bounded below"),
        }
    }
}

impl<S: Scalar> FractionalSolution<S> {
    /// Re-check LP feasibility of this solution against the forest
    /// (used after the Lemma 3.1 transformation in tests/debug).
    pub fn check(
        &self,
        forest: &Forest,
        inst: &Instance,
        groups: &[JobGroup],
    ) -> Result<(), String> {
        let m = forest.num_nodes();
        let bad = |msg: String| -> Result<(), String> { Err(msg) };
        for i in 0..m {
            if self.x[i].is_negative() {
                return bad(format!("x[{i}] negative"));
            }
            if self.x[i].sub(&S::from_i64(forest.nodes[i].len())).is_positive() {
                return bad(format!("x[{i}] exceeds L"));
            }
            let mut used = S::zero();
            for (gid, yv) in &self.y[i] {
                if yv.is_negative() {
                    return bad(format!("y[{i},{gid}] negative"));
                }
                let cap = S::from_i64(groups[*gid].count()).mul(&self.x[i]);
                if yv.sub(&cap).is_positive() {
                    return bad(format!("y[{i},{gid}] exceeds q·x"));
                }
                used = used.add(yv);
            }
            let cap = S::from_i64(inst.g).mul(&self.x[i]);
            if used.sub(&cap).is_positive() {
                return bad(format!("node {i} over capacity"));
            }
        }
        for (gid, grp) in groups.iter().enumerate() {
            let mut got = S::zero();
            for i in forest.descendants(grp.node) {
                if let Some((_, yv)) = self.y[i].iter().find(|(g, _)| *g == gid) {
                    got = got.add(yv);
                }
            }
            let need = S::from_i64(grp.count() * grp.processing);
            if need.sub(&got).is_positive() {
                return bad(format!("group {gid} under-scheduled"));
            }
        }
        Ok(())
    }

    /// `x(Des(i))` — the fractional open mass in a subtree.
    pub fn x_subtree(&self, forest: &Forest, i: usize) -> S {
        let mut acc = S::zero();
        for d in forest.descendants(i) {
            acc = acc.add(&self.x[d]);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::canonicalize;
    use crate::instance::Job;
    use crate::opt23;
    use atsched_num::Ratio;

    fn pipeline(
        g: i64,
        jobs: Vec<(i64, i64, i64)>,
    ) -> (Instance, Forest, FractionalSolution<Ratio>) {
        let inst = Instance::new(g, jobs.into_iter().map(|(r, d, p)| Job::new(r, d, p)).collect())
            .unwrap();
        let forest = Forest::build(&inst).unwrap();
        let canon = canonicalize(&forest, &inst);
        let bounds = opt23::compute(&canon, &inst);
        let lp = build::<Ratio>(&canon, &inst, &bounds);
        let sol = lp.solve().unwrap();
        sol.check(&canon, &inst, &lp.groups).unwrap();
        (inst, canon, sol)
    }

    #[test]
    fn grouping_merges_identical_jobs() {
        let inst = Instance::new(2, vec![Job::new(0, 4, 1), Job::new(0, 4, 1), Job::new(0, 4, 2)])
            .unwrap();
        let forest = Forest::build(&inst).unwrap();
        let groups = group_jobs(&forest, &inst);
        assert_eq!(groups.len(), 2);
        let unit = groups.iter().find(|g| g.processing == 1).unwrap();
        assert_eq!(unit.jobs.len(), 2);
    }

    #[test]
    fn single_rigid_job_gives_exact_lp() {
        let (_, _, sol) = pipeline(1, vec![(0, 3, 3)]);
        assert_eq!(sol.objective, Ratio::from_i64(3));
    }

    #[test]
    fn lp_lower_bounds_volume_over_g() {
        // 5 unit jobs, g = 2 → LP ≥ ceil-free volume bound 5/2.
        let (_, _, sol) = pipeline(2, vec![(0, 6, 1); 5]);
        assert!(sol.objective >= Ratio::from_frac(5, 2));
    }

    #[test]
    fn ceiling_constraint_closes_gap2_family() {
        // g+1 unit jobs in a width-2 window: natural LP would give
        // 1 + 1/g, the strengthened LP must give exactly 2 (= OPT).
        for g in [2i64, 3, 5] {
            let (_, _, sol) = pipeline(g, vec![(0, 2, 1); (g + 1) as usize]);
            assert_eq!(sol.objective, Ratio::from_i64(2), "g = {g}");
        }
    }

    #[test]
    fn infeasible_instance_reported() {
        // Volume 3 > capacity 1·2 within window [0,2).
        let inst = Instance::new(1, vec![Job::new(0, 2, 1); 3]).unwrap();
        let forest = Forest::build(&inst).unwrap();
        let canon = canonicalize(&forest, &inst);
        let bounds = opt23::compute(&canon, &inst);
        let lp = build::<Ratio>(&canon, &inst, &bounds);
        assert_eq!(lp.solve().unwrap_err(), NestedLpError::Infeasible);
    }

    #[test]
    fn lp_is_a_lower_bound_on_known_opt() {
        // Nested instance where OPT = 4: long job p=2 in [0,6), and two
        // rigid pairs [1,3), [4,6) hmm — verify only LP ≤ 4 here; exact
        // OPT checks live in the baselines crate.
        let (_, _, sol) = pipeline(2, vec![(0, 6, 2), (1, 3, 2), (3, 5, 2)]);
        assert!(sol.objective <= Ratio::from_i64(6));
        assert!(sol.objective >= Ratio::from_i64(4)); // rigid leaves force 2+2
    }

    #[test]
    fn f64_backend_close_to_exact() {
        let inst = Instance::new(
            2,
            vec![Job::new(0, 8, 2), Job::new(1, 4, 1), Job::new(1, 4, 1), Job::new(5, 7, 2)],
        )
        .unwrap();
        let forest = Forest::build(&inst).unwrap();
        let canon = canonicalize(&forest, &inst);
        let bounds = opt23::compute(&canon, &inst);
        let exact = build::<Ratio>(&canon, &inst, &bounds).solve().unwrap();
        let fl = build::<f64>(&canon, &inst, &bounds).solve().unwrap();
        assert!((exact.objective.to_f64() - fl.objective).abs() < 1e-6);
    }
}
