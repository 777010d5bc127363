//! Algorithm 1: rounding the transformed LP solution to an integral
//! per-node open count `x̃ ∈ ℕ^m` (paper §3.3).
//!
//! Start from `x̃(i) = ⌊x(i)⌋` on the antichain `I` and `x̃(i) = x(i)`
//! elsewhere (integral there by Claim 1: strict descendants of `I` are
//! fully open, strict ancestors are zero). Then walk `Anc(I)` bottom-up;
//! at each node `i`, while the subtree budget
//! `(9/5)·x(Des(i)) ≥ x̃(Des(i)) + 1` permits, round one floored
//! descendant back up to its ceiling. Lemma 3.3 gives
//! `x̃([m]) ≤ (9/5)·x([m])`, and §4 of the paper proves the result is
//! always feasible.
//!
//! The paper's "choose such an i′ arbitrarily" is resolved by picking the
//! descendant with the largest fractional part (ties by node id) — the
//! feasibility proof is choice-independent, and this heuristic recovers
//! the most value per round-up.

use crate::lp_model::FractionalSolution;
use crate::tree::Forest;
use atsched_lp::Scalar;

/// Result of Algorithm 1.
#[derive(Debug, Clone)]
pub struct Rounded {
    /// Integral open count per node (`x̃`).
    pub z: Vec<i64>,
    /// Nodes of `I` that were rounded up to their ceiling.
    pub rounded_up: Vec<usize>,
    /// Nodes of `I` left at their floor.
    pub left_floored: Vec<usize>,
}

impl Rounded {
    /// `Σ x̃(i)` — the number of slots the integral solution opens.
    pub fn total_open(&self) -> i64 {
        self.z.iter().sum()
    }
}

/// How Algorithm 1 resolves the paper's "choose such an i′ arbitrarily".
///
/// The feasibility theorem (§4) is choice-independent; exposing the
/// choice lets the ablation experiment confirm that empirically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundingChoice {
    /// Round up the descendant with the largest fractional part
    /// (default: recovers the most value per round-up).
    LargestFraction,
    /// Smallest node id (a literal reading of "arbitrary").
    FirstId,
    /// Deterministic pseudo-random pick from the given seed.
    Shuffled(u64),
}

/// Run Algorithm 1 with the default tie-breaking.
///
/// `top` is the antichain `I` produced by
/// [`transform::push_down`](crate::transform::push_down).
///
/// # Panics
/// Panics if a non-`I` node carries a non-integral `x` (that would mean
/// the Lemma 3.1 transformation was skipped or broken).
pub fn round<S: Scalar>(forest: &Forest, sol: &FractionalSolution<S>, top: &[usize]) -> Rounded {
    round_with(forest, sol, top, RoundingChoice::LargestFraction)
}

/// Run Algorithm 1 with an explicit tie-breaking rule.
pub fn round_with<S: Scalar>(
    forest: &Forest,
    sol: &FractionalSolution<S>,
    top: &[usize],
    choice: RoundingChoice,
) -> Rounded {
    let m = forest.num_nodes();
    let is_top = {
        let mut v = vec![false; m];
        for &i in top {
            v[i] = true;
        }
        v
    };

    // Line 1: floors on I, exact values elsewhere.
    let mut z: Vec<i64> = Vec::with_capacity(m);
    for (i, &top) in is_top.iter().enumerate().take(m) {
        let xi = &sol.x[i];
        if top {
            z.push(xi.floor_int());
        } else {
            let v = xi.floor_int();
            let back = S::from_i64(v);
            let frac = xi.sub(&back);
            assert!(frac.is_zero() || top, "node {i} outside I has fractional x = {xi}");
            z.push(v);
        }
    }

    // Anc(I): every node having an I-descendant (I nodes included),
    // processed bottom-to-top.
    let mut anc_of_top: Vec<usize> =
        (0..m).filter(|&i| top.iter().any(|&t| forest.is_ancestor(i, t))).collect();
    anc_of_top.sort_by_key(|&i| std::cmp::Reverse(forest.nodes[i].depth));

    let mut rounded_up: Vec<usize> = Vec::new();
    let five = S::from_i64(5);
    let nine = S::from_i64(9);
    let mut rng_state = match choice {
        RoundingChoice::Shuffled(seed) => seed.wrapping_add(0x9E3779B97F4A7C15),
        _ => 0,
    };
    for &i in &anc_of_top {
        let des = forest.descendants(i);
        // x(Des(i)) is fixed; x̃(Des(i)) grows as we round up.
        let x_des: S = des.iter().fold(S::zero(), |a, &d| a.add(&sol.x[d]));
        let budget = nine.mul(&x_des); // compare 9·x(Des) ≥ 5·(x̃(Des)+1)
        loop {
            let z_des: i64 = des.iter().map(|&d| z[d]).sum();
            let need = five.mul(&S::from_i64(z_des + 1));
            if need.sub(&budget).is_positive() {
                break; // budget exhausted at this node
            }
            // Candidates: floored I-descendants still below their x.
            let mut candidates: Vec<(usize, S)> = Vec::new();
            for &d in &des {
                if !is_top[d] {
                    continue;
                }
                let frac = sol.x[d].sub(&S::from_i64(z[d]));
                if frac.is_positive() {
                    candidates.push((d, frac));
                }
            }
            if candidates.is_empty() {
                break; // line 8: nothing left to round up
            }
            let pick = match choice {
                // Total order, not `partial_cmp(..).expect(..)`: a NaN
                // fraction from a degenerate `lp=float` solve must
                // pick deterministically, not panic the solver thread
                // (the final schedule is re-verified regardless).
                RoundingChoice::LargestFraction => candidates
                    .iter()
                    .enumerate()
                    .max_by(|(_, (_, a)), (_, (_, b))| a.total_cmp(b))
                    .map(|(idx, _)| idx)
                    .expect("nonempty"),
                RoundingChoice::FirstId => 0, // candidates follow preorder; take first
                RoundingChoice::Shuffled(_) => {
                    rng_state = rng_state.wrapping_add(0x9E3779B97F4A7C15);
                    let mut s = rng_state;
                    s = (s ^ (s >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                    s = (s ^ (s >> 27)).wrapping_mul(0x94D049BB133111EB);
                    ((s ^ (s >> 31)) % candidates.len() as u64) as usize
                }
            };
            let d = candidates[pick].0;
            z[d] = sol.x[d].ceil_int();
            rounded_up.push(d);
        }
    }

    let left_floored = top.iter().copied().filter(|&i| !rounded_up.contains(&i)).collect();
    Rounded { z, rounded_up, left_floored }
}

/// Check Lemma 3.3: `x̃([m]) ≤ (9/5)·x([m])`, per tree of the forest.
pub fn check_budget<S: Scalar>(
    forest: &Forest,
    sol: &FractionalSolution<S>,
    rounded: &Rounded,
) -> Result<(), String> {
    for &root in &forest.roots {
        let des = forest.descendants(root);
        let x_tot: S = des.iter().fold(S::zero(), |a, &d| a.add(&sol.x[d]));
        let z_tot: i64 = des.iter().map(|&d| rounded.z[d]).sum();
        let lhs = S::from_i64(5 * z_tot);
        let rhs = S::from_i64(9).mul(&x_tot);
        if lhs.sub(&rhs).is_positive() {
            return Err(format!(
                "tree at {root}: x̃ = {z_tot} exceeds (9/5)·x = {}",
                rhs.to_f64() / 5.0
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test-case table: (g, [(release, deadline, processing)]).
    type Cases = Vec<(i64, Vec<(i64, i64, i64)>)>;
    use crate::canonical::canonicalize;
    use crate::instance::{Instance, Job};
    use crate::lp_model::build;
    use crate::opt23;
    use crate::transform::push_down;
    use atsched_num::Ratio;

    fn run(
        g: i64,
        jobs: Vec<(i64, i64, i64)>,
    ) -> (Instance, Forest, FractionalSolution<Ratio>, Vec<usize>, Rounded) {
        let inst = Instance::new(g, jobs.into_iter().map(|(r, d, p)| Job::new(r, d, p)).collect())
            .unwrap();
        let forest = Forest::build(&inst).unwrap();
        let canon = canonicalize(&forest, &inst);
        let bounds = opt23::compute(&canon, &inst);
        let lp = build::<Ratio>(&canon, &inst, &bounds);
        let sol = lp.solve().unwrap();
        let out = push_down(&canon, sol);
        let rounded = round(&canon, &out.solution, &out.top_positive);
        check_budget(&canon, &out.solution, &rounded).unwrap();
        (inst, canon, out.solution, out.top_positive, rounded)
    }

    #[test]
    fn integral_lp_rounds_to_itself() {
        // A single rigid job: LP is integral, nothing to round.
        let (_, canon, sol, _, rounded) = run(1, vec![(0, 3, 3)]);
        for i in 0..canon.num_nodes() {
            assert_eq!(Ratio::from_i64(rounded.z[i]), sol.x[i]);
        }
        assert!(rounded.rounded_up.is_empty());
    }

    #[test]
    fn z_respects_node_capacity() {
        let (_, canon, _, _, rounded) =
            run(2, vec![(0, 12, 2), (1, 5, 2), (1, 5, 1), (6, 11, 3), (7, 10, 1)]);
        for i in 0..canon.num_nodes() {
            assert!(rounded.z[i] >= 0);
            assert!(rounded.z[i] <= canon.nodes[i].len());
        }
    }

    #[test]
    fn budget_lemma_3_3_holds() {
        // A handful of shapes; check_budget runs inside run().
        run(2, vec![(0, 6, 1); 5]);
        run(3, vec![(0, 20, 4), (2, 9, 3), (2, 9, 1), (12, 18, 2)]);
        run(1, vec![(0, 4, 1), (1, 3, 1)]);
    }

    #[test]
    fn fractional_mass_gets_rounded_somewhere() {
        // g+1 unit jobs in width-2 window: LP = 2 (integral thanks to the
        // ceiling constraint) → z total = 2.
        let (_, _, _, _, rounded) = run(3, vec![(0, 2, 1); 4]);
        assert_eq!(rounded.total_open(), 2);
    }

    #[test]
    fn budget_boundary_is_inclusive() {
        // Hand-built solution on a two-node chain (root + rigid leaf):
        // x(leaf) = 1, x(root) = f, I = {root}. Algorithm 1's condition
        // at the root is 9·(1+f) ≥ 5·(x̃+1) with x̃ = 1 initially, i.e.
        // f ≥ 1/9 — *inclusive* at the boundary.
        let inst = Instance::new(2, vec![Job::new(0, 1, 1), Job::new(0, 3, 1)]).unwrap();
        let forest = Forest::build(&inst).unwrap();
        let root = forest.roots[0];
        let leaf = forest.nodes[root].children[0];
        let mk = |f: Ratio| {
            let mut x = vec![Ratio::zero(); forest.num_nodes()];
            x[leaf] = Ratio::one();
            x[root] = f;
            FractionalSolution {
                objective: x.iter().sum(),
                x,
                y: vec![Vec::new(); forest.num_nodes()],
            }
        };
        // Exactly 1/9: rounds up (9·(10/9) = 10 ≥ 10).
        let sol = mk(Ratio::from_frac(1, 9));
        let r = round(&forest, &sol, &[root]);
        assert_eq!(r.z[root], 1, "boundary case must round up");
        assert_eq!(r.z[leaf], 1);
        // Slightly below: stays floored.
        let sol = mk(Ratio::from_frac(1, 9) - Ratio::from_frac(1, 1000));
        let r = round(&forest, &sol, &[root]);
        assert_eq!(r.z[root], 0, "below the boundary must stay floored");
        // Slightly above: rounds up.
        let sol = mk(Ratio::from_frac(1, 9) + Ratio::from_frac(1, 1000));
        let r = round(&forest, &sol, &[root]);
        assert_eq!(r.z[root], 1);
    }

    #[test]
    fn exact_boundary_differs_from_f64_noise() {
        // The same boundary with f64 scalars: a value that *prints* as
        // 1/9 but carries float error can fall on either side; the exact
        // path is deterministic. This documents why the reference
        // pipeline is rational.
        let inst = Instance::new(2, vec![Job::new(0, 1, 1), Job::new(0, 3, 1)]).unwrap();
        let forest = Forest::build(&inst).unwrap();
        let root = forest.roots[0];
        let leaf = forest.nodes[root].children[0];
        let mut x = vec![0.0f64; forest.num_nodes()];
        x[leaf] = 1.0;
        x[root] = 1.0 / 9.0; // not exactly 1/9 in binary
        let sol = FractionalSolution {
            objective: x.iter().sum(),
            x,
            y: vec![Vec::new(); forest.num_nodes()],
        };
        let r = round(&forest, &sol, &[root]);
        // Either outcome is *feasibility*-safe; assert only that the
        // result is a valid floor/ceil bracket.
        assert!(r.z[root] == 0 || r.z[root] == 1);
    }

    #[test]
    fn nan_fraction_does_not_panic_the_rounder() {
        // A degenerate `lp=float` solve can hand the rounder a NaN
        // open count. The candidate picker must stay total — the old
        // `partial_cmp(..).expect("scalars are ordered")` turned that
        // into a solver-thread panic. With `total_cmp` the NaN floors
        // to 0, the NaN budget reads as exhausted, and the caller's
        // schedule check decides whether the solve survives.
        let inst = Instance::new(2, vec![Job::new(0, 1, 1), Job::new(0, 3, 1)]).unwrap();
        let forest = Forest::build(&inst).unwrap();
        let root = forest.roots[0];
        let leaf = forest.nodes[root].children[0];
        let mut x = vec![0.0f64; forest.num_nodes()];
        x[leaf] = 1.0;
        x[root] = f64::NAN;
        let sol = FractionalSolution {
            objective: x.iter().sum(),
            x,
            y: vec![Vec::new(); forest.num_nodes()],
        };
        let r = round(&forest, &sol, &[root]);
        assert_eq!(r.z[root], 0, "NaN must floor to 0, not panic");
        assert_eq!(r.z[leaf], 1);
        // Tie-break variants walk the same candidate path; none may
        // panic on the poisoned scalar either.
        for choice in [RoundingChoice::FirstId, RoundingChoice::Shuffled(7)] {
            let r = round_with(&forest, &sol, &[root], choice);
            assert_eq!(r.z[root], 0);
        }
    }

    #[test]
    fn z_brackets_x_per_node() {
        let cases: Cases = vec![
            (2, vec![(0, 8, 2), (1, 4, 1), (5, 7, 1)]),
            (3, vec![(0, 10, 1), (0, 10, 1), (2, 6, 2), (7, 9, 2)]),
        ];
        for (g, jobs) in cases {
            let (_, canon, sol, _, rounded) = run(g, jobs);
            for i in 0..canon.num_nodes() {
                // floor(x) ≤ z ≤ ceil(x): Algorithm 1 only floors or ceils.
                assert!(Ratio::from_i64(rounded.z[i]) >= Ratio::from_int(sol.x[i].floor()));
                assert!(Ratio::from_i64(rounded.z[i]) <= Ratio::from_int(sol.x[i].ceil()));
            }
        }
    }
}
