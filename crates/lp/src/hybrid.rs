//! The f64-first, exactly-verified solve pipeline.
//!
//! Exact rational simplex dominates solve time, yet on well-behaved
//! instances the float simplex finds the *same basis* orders of
//! magnitude faster. The hybrid path exploits that:
//!
//! 1. presolve exactly (presolve is field-generic and stays rational);
//! 2. run the two-phase simplex on an `f64` image of the reduced model
//!    and keep only the final basis — a purely combinatorial object;
//! 3. re-derive the primal/dual pair for that basis in exact arithmetic
//!    ([`crate::verify`]): one sparse factorization of the structural
//!    core solves both systems, no pivoting;
//! 4. certify the pair — exact primal feasibility (checked by the
//!    re-derivation), dual feasibility, and strong duality (which
//!    implies complementary slackness), the conditions of
//!    [`Model::check_duality`]. A certified pair proves the re-derived
//!    point is an exact optimum, so the **objective is bit-identical**
//!    to what the cold exact simplex would return. The *vertex* is not
//!    required to be unique — nested active-time LPs are massively
//!    degenerate, so a uniqueness demand would decline essentially
//!    every real instance. Vertex identity comes from the pivot
//!    trajectory instead: the float run follows the same deterministic
//!    pivot rule as the exact one and flags itself *tie-suspect*
//!    whenever any pivot decision was made inside the tolerance band
//!    (where exact arithmetic could have decided differently); a
//!    certified non-suspect run made every decision by a clear margin
//!    and therefore walked the exact solver's own pivot path. Suspect
//!    runs fall back. Schedule-level identity is additionally guarded
//!    one layer up: the solver re-solves exactly any answer whose
//!    rounded counts needed repair (`solver.certified_repair_fallbacks`),
//!    and the corpus-wide `batch --check` gate compares against the
//!    exact simplex and fails if that guard ever fired;
//! 5. on any typed failure ([`FallbackReason`]), fall back to the cold
//!    exact simplex. Fallbacks are counted in the obs registry under
//!    `lp.hybrid_fallbacks` (with a per-reason breakdown under
//!    `lp.hybrid_fallback.*`); verified fast paths under
//!    `lp.hybrid_verified`.
//!
//! Each stage runs under its own span: `lp.hybrid.presolve`,
//! `lp.hybrid.walk` (the `f64` image and its simplex),
//! `lp.hybrid.rederive`, `lp.hybrid.certify` and, around the exact
//! re-run, `lp.hybrid.fallback`.

use crate::model::{Constraint, LpError, LpStatus, Model, Solution, SolveInfo};
use crate::presolve::{inflate, presolve};
use crate::simplex::{solve_core, solve_core_with};
use crate::verify::{rederive, VerifyError};
use atsched_num::Ratio;
use atsched_obs as obs;
use std::fmt;

/// How a hybrid solve reached its answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HybridOutcome {
    /// The float basis was re-derived and certified exactly; the result
    /// is bit-identical to a cold exact solve.
    Verified,
    /// The float basis could not be certified; the result comes from
    /// the cold exact simplex (still exact, just slower).
    Fallback(FallbackReason),
}

impl HybridOutcome {
    /// Did this solve pay for the exact simplex?
    pub fn fell_back(&self) -> bool {
        matches!(self, HybridOutcome::Fallback(_))
    }
}

/// Why the fast path was abandoned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FallbackReason {
    /// The float simplex hit its iteration cap.
    FloatIterationLimit,
    /// Some pivot decision in the float run was decided inside the
    /// tolerance band: the exact simplex could legitimately have pivoted
    /// differently and reached a different (equally optimal) vertex, so
    /// vertex identity with the cold solve is not assured.
    TieSuspect,
    /// The float simplex reported a non-optimal status, which is never
    /// trusted (the exact solve decides infeasibility/unboundedness).
    FloatStatus(LpStatus),
    /// Exact re-derivation of the float basis failed.
    Verify(VerifyError),
    /// The re-derived pair failed the exact optimality certificate
    /// (dual feasibility or strong duality); the message names the
    /// first violated condition.
    Certificate(String),
}

impl fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FallbackReason::FloatIterationLimit => write!(f, "float simplex iteration limit"),
            FallbackReason::TieSuspect => {
                write!(f, "float pivot decided inside the tolerance band")
            }
            FallbackReason::FloatStatus(s) => write!(f, "float simplex status {s:?}"),
            FallbackReason::Verify(e) => write!(f, "{e}"),
            FallbackReason::Certificate(msg) => write!(f, "certificate rejected: {msg}"),
        }
    }
}

impl Model<Ratio> {
    /// Solve via the f64-first pipeline, falling back to the exact
    /// simplex whenever the float basis cannot be certified.
    ///
    /// The returned solution is a *proven exact optimum*: the objective
    /// is bit-identical to [`Model::solve_detailed`] in every case (on
    /// the fast path the duality certificate proves it; on fallback it
    /// *is* the exact solve). On degenerate models the certified vertex
    /// is not required to coincide with the cold solve's choice, though
    /// the tie-suspect guard and the shared deterministic pivot rule
    /// make it do so in practice.
    pub fn solve_hybrid(&self) -> Result<(Solution<Ratio>, SolveInfo, HybridOutcome), LpError> {
        solve_hybrid_impl(self)
    }
}

fn solve_hybrid_impl(
    model: &Model<Ratio>,
) -> Result<(Solution<Ratio>, SolveInfo, HybridOutcome), LpError> {
    obs::counter_add("lp.solves", 1);
    let mut info =
        SolveInfo { vars: model.num_vars(), rows: model.num_constraints(), ..SolveInfo::default() };
    let span = obs::Span::enter("lp.hybrid.presolve");
    let presolved = presolve(model);
    drop(span);
    let pre = match presolved {
        Err(()) => {
            // Presolve is exact: this infeasibility needs no float input
            // and no fallback.
            return Ok((
                Solution {
                    status: LpStatus::Infeasible,
                    objective: Ratio::zero(),
                    values: vec![Ratio::zero(); model.num_vars()],
                },
                info,
                HybridOutcome::Verified,
            ));
        }
        Ok(p) => p,
    };
    info.presolve_fixed = pre.vars_fixed;
    info.presolve_rows_dropped = pre.rows_dropped;
    obs::counter_add("lp.presolve_fixed", pre.vars_fixed as u64);
    obs::counter_add("lp.presolve_rows_dropped", pre.rows_dropped as u64);

    // --- fast path: float solve, exact re-derivation, certificate ----------
    let mut reduced: Option<Solution<Ratio>> = None;
    let mut reason: Option<FallbackReason> = None;
    // Equilibration off: the probe must walk the *same* LP as the exact
    // solver for the tie-suspect guard to imply vertex identity (see
    // [`solve_core_with`]).
    let span = obs::Span::enter("lp.hybrid.walk");
    let walk = solve_core_with(&to_f64_model(&pre.model), false, false);
    drop(span);
    match walk {
        Err(LpError::IterationLimit) => reason = Some(FallbackReason::FloatIterationLimit),
        Ok(core) => {
            info.pivots += core.pivots;
            if core.solution.status != LpStatus::Optimal {
                reason = Some(FallbackReason::FloatStatus(core.solution.status));
            } else if core.marginal {
                // A tie-suspect basis may still be exactly optimal, but
                // it may be a *different* optimal vertex than the cold
                // solve's — and the hybrid path promises the cold
                // solve's answer. Skip the exact re-derivation entirely.
                reason = Some(FallbackReason::TieSuspect);
            } else {
                let fb = core.basis.expect("optimal core solve carries a basis");
                let span = obs::Span::enter("lp.hybrid.rederive");
                let rederived = rederive(&pre.model, &fb);
                drop(span);
                match rederived {
                    Err(e) => reason = Some(FallbackReason::Verify(e)),
                    Ok(red) => {
                        // `rederive` already proved exact primal
                        // feasibility; dual feasibility and strong
                        // duality complete the certificate.
                        let _span = obs::Span::enter("lp.hybrid.certify");
                        match pre.model.check_dual(&red.solution, &red.duals) {
                            Ok(()) => reduced = Some(red.solution),
                            Err(msg) => reason = Some(FallbackReason::Certificate(msg)),
                        }
                    }
                }
            }
        }
    }

    if let Some(reduced) = reduced {
        obs::counter_add("lp.hybrid_verified", 1);
        let values = inflate(&pre.var_disposition, &reduced.values);
        let objective = model.objective_at(&values);
        let solution = Solution { status: LpStatus::Optimal, objective, values };
        return Ok((solution, info, HybridOutcome::Verified));
    }

    // --- fallback: cold exact simplex on the presolved model ---------------
    let reason = reason.expect("no reduced solution implies a recorded reason");
    obs::counter_add("lp.hybrid_fallbacks", 1);
    obs::counter_add(
        match &reason {
            FallbackReason::FloatIterationLimit => "lp.hybrid_fallback.iteration_limit",
            FallbackReason::TieSuspect => "lp.hybrid_fallback.tie_suspect",
            FallbackReason::FloatStatus(_) => "lp.hybrid_fallback.float_status",
            FallbackReason::Verify(_) => "lp.hybrid_fallback.verify",
            FallbackReason::Certificate(_) => "lp.hybrid_fallback.certificate",
        },
        1,
    );
    let span = obs::Span::enter("lp.hybrid.fallback");
    let core = solve_core(&pre.model, false)?;
    drop(span);
    info.pivots += core.pivots;
    let solution = match core.solution.status {
        LpStatus::Optimal => {
            let values = inflate(&pre.var_disposition, &core.solution.values);
            let objective = model.objective_at(&values);
            Solution { status: LpStatus::Optimal, objective, values }
        }
        status => Solution {
            status,
            objective: Ratio::zero(),
            values: vec![Ratio::zero(); model.num_vars()],
        },
    };
    Ok((solution, info, HybridOutcome::Fallback(reason)))
}

/// Lossy, unnamed image of an exact model, used only to pick a basis.
/// Any damage the conversion does (overflow to ±inf, sub-tolerance
/// coefficients rounding to zero) is caught by the exact verification
/// and routed to the fallback.
fn to_f64_model(m: &Model<Ratio>) -> Model<f64> {
    Model::unnamed(
        m.objective.iter().map(Ratio::to_f64).collect(),
        m.constraints
            .iter()
            .map(|c| Constraint {
                terms: c.terms.iter().map(|(i, v)| (*i, v.to_f64())).collect(),
                cmp: c.cmp,
                rhs: c.rhs.to_f64(),
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cmp;
    use proptest::prelude::*;

    fn ri(v: i64) -> Ratio {
        Ratio::from_i64(v)
    }

    fn rf(a: i64, b: i64) -> Ratio {
        Ratio::from_frac(a, b)
    }

    #[test]
    fn hybrid_matches_exact_bit_for_bit_on_unique_optimum() {
        let mut m: Model<Ratio> = Model::new();
        let x = m.add_var("x", ri(2));
        let y = m.add_var("y", ri(3));
        m.add_constraint(vec![(x, ri(1)), (y, ri(1))], Cmp::Ge, ri(1));
        m.add_constraint(vec![(x, ri(1)), (y, ri(-1))], Cmp::Eq, rf(1, 3));
        let (hy, _, outcome) = m.solve_hybrid().unwrap();
        assert_eq!(outcome, HybridOutcome::Verified);
        let cold = m.solve().unwrap();
        assert_eq!(hy.status, LpStatus::Optimal);
        assert_eq!(hy.objective, cold.objective);
        assert_eq!(hy.values, cold.values);
        assert_eq!(hy.objective, rf(7, 3));
    }

    #[test]
    fn hybrid_certifies_degenerate_optimum_without_fallback() {
        // min x + y s.t. x + y ≥ 1 — a whole optimal segment. The
        // duality certificate proves optimality without demanding a
        // unique vertex, so the fast path must hold (real nested LPs
        // are degenerate like this essentially always), and the shared
        // pivot rule lands on the same vertex as the cold solve.
        let mut m: Model<Ratio> = Model::new();
        let x = m.add_var("x", ri(1));
        let y = m.add_var("y", ri(1));
        m.add_constraint(vec![(x, ri(1)), (y, ri(1))], Cmp::Ge, ri(1));
        let (hy, _, outcome) = m.solve_hybrid().unwrap();
        assert_eq!(outcome, HybridOutcome::Verified, "degenerate optimum must still certify");
        let cold = m.solve().unwrap();
        assert_eq!(hy.objective, cold.objective);
        assert_eq!(hy.values, cold.values);
    }

    #[test]
    fn hybrid_handles_infeasible_and_unbounded() {
        let mut inf: Model<Ratio> = Model::new();
        let x = inf.add_var("x", ri(0));
        inf.add_constraint(vec![(x, ri(1))], Cmp::Ge, ri(2));
        inf.add_constraint(vec![(x, ri(1))], Cmp::Le, ri(1));
        let (sol, _, _) = inf.solve_hybrid().unwrap();
        assert_eq!(sol.status, LpStatus::Infeasible);

        let mut unb: Model<Ratio> = Model::new();
        let x = unb.add_var("x", ri(-1));
        unb.add_constraint(vec![(x, ri(1))], Cmp::Ge, ri(1));
        let (sol, _, outcome) = unb.solve_hybrid().unwrap();
        assert_eq!(sol.status, LpStatus::Unbounded);
        assert!(outcome.fell_back(), "non-optimal float status is never trusted");
    }

    #[test]
    fn presolve_infeasibility_needs_no_float_run() {
        let mut m: Model<Ratio> = Model::new();
        let x = m.add_var("x", ri(1));
        m.add_constraint(vec![(x, ri(1))], Cmp::Le, ri(-1));
        let (sol, _, outcome) = m.solve_hybrid().unwrap();
        assert_eq!(sol.status, LpStatus::Infeasible);
        assert_eq!(outcome, HybridOutcome::Verified);
    }

    proptest! {
        /// Hybrid ≡ exact on random feasible LPs: same status, bit-equal
        /// objective, and an exactly feasible point. The vertex is only
        /// *expected* to match (shared pivot rule), not contractually —
        /// the certificate proves optimality, so on alternate-optima
        /// models a differing vertex would still be exact; the generator
        /// is biased toward exactly those degenerate/near-tie cases.
        #[test]
        fn prop_hybrid_equals_exact(
            seed_rows in proptest::collection::vec(
                proptest::collection::vec(-4i64..5, 3), 1..6),
            x0 in proptest::collection::vec(0i64..4, 3),
            costs in proptest::collection::vec(0i64..6, 3),
            senses in proptest::collection::vec(0u8..3, 1..6),
            // Near-tie knob: duplicate a row with an off-by-one RHS to
            // force degenerate vertices and close ratio-test ties.
            dup in any::<bool>(),
        ) {
            let mut m: Model<Ratio> = Model::new();
            let vars: Vec<_> = (0..3).map(|i| m.add_var(format!("x{i}"), ri(costs[i]))).collect();
            for (row, s) in seed_rows.iter().zip(senses.iter()) {
                let dot: i64 = row.iter().zip(&x0).map(|(a, b)| a * b).sum();
                let terms: Vec<_> = vars.iter().zip(row).map(|(v, c)| (*v, ri(*c))).collect();
                match s {
                    0 => m.add_constraint(terms, Cmp::Ge, ri(dot - 1)),
                    1 => m.add_constraint(terms, Cmp::Le, ri(dot + 1)),
                    _ => m.add_constraint(terms, Cmp::Eq, ri(dot)),
                }
            }
            if dup && !seed_rows.is_empty() {
                let row = &seed_rows[0];
                let dot: i64 = row.iter().zip(&x0).map(|(a, b)| a * b).sum();
                let terms: Vec<_> = vars.iter().zip(row).map(|(v, c)| (*v, ri(*c))).collect();
                m.add_constraint(terms, Cmp::Ge, ri(dot));
            }
            let (hy, _, _) = m.solve_hybrid().unwrap();
            let cold = m.solve().unwrap();
            prop_assert_eq!(hy.status, cold.status);
            if cold.status == LpStatus::Optimal {
                prop_assert_eq!(&hy.objective, &cold.objective);
                prop_assert!(m.is_feasible(&hy.values));
                prop_assert_eq!(m.objective_at(&hy.values), cold.objective);
            }
        }
    }
}
