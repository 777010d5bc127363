//! LP presolve: cheap, exactness-preserving reductions applied before the
//! simplex method.
//!
//! The nested-scheduling LPs are full of structure a presolver eats for
//! breakfast: virtual tree nodes contribute `x ≤ 0` rows (fix the
//! variable, drop the column), equal windows produce duplicate rows, and
//! substituted fixed variables empty out further rows. Reductions:
//!
//! 1. single-term constraints become variable bounds; an upper bound of 0
//!    (or an equality pin) *fixes* the variable, removing its column;
//! 2. rows that become empty after substitution are checked for
//!    consistency and dropped (inconsistent ⇒ infeasible);
//! 3. duplicate rows are deduplicated.
//!
//! Everything is generic over the [`Scalar`], so the exact path stays
//! exact.

use crate::model::{Cmp, Constraint, Model};
use crate::scalar::Scalar;

/// Outcome of presolving.
pub(crate) struct Presolved<S> {
    /// The reduced model.
    pub model: Model<S>,
    /// For each original variable: `Ok(new_index)` or `Err(fixed_value)`.
    pub var_disposition: Vec<Result<usize, S>>,
    /// Rows removed (empty or duplicate).
    pub rows_dropped: usize,
    /// Variables eliminated.
    pub vars_fixed: usize,
}

/// `Err(())` means presolve proved the model infeasible.
pub(crate) fn presolve<S: Scalar>(model: &Model<S>) -> Result<Presolved<S>, ()> {
    let n = model.num_vars();

    // Pass 1: derive fixings from single-term rows.
    let mut fixed: Vec<Option<S>> = vec![None; n];
    for c in &model.constraints {
        if c.terms.len() != 1 {
            continue;
        }
        let (v, a) = (c.terms[0].0, &c.terms[0].1);
        debug_assert!(!a.is_zero());
        let bound = c.rhs.div(a);
        let effective = if a.is_negative() {
            // a·x ≤ b ⇔ x ≥ b/a, etc. — flip the sense.
            match c.cmp {
                Cmp::Le => Cmp::Ge,
                Cmp::Ge => Cmp::Le,
                Cmp::Eq => Cmp::Eq,
            }
        } else {
            c.cmp
        };
        match effective {
            Cmp::Le => {
                // x ≤ bound with x ≥ 0: bound < 0 infeasible; = 0 fixes.
                if bound.is_negative() {
                    return Err(());
                }
                if bound.is_zero() {
                    match &fixed[v] {
                        Some(prev) if !prev.is_zero() => return Err(()),
                        _ => fixed[v] = Some(S::zero()),
                    }
                }
            }
            Cmp::Eq => {
                if bound.is_negative() {
                    return Err(());
                }
                match &fixed[v] {
                    Some(prev) if !prev.sub(&bound).is_zero() => return Err(()),
                    _ => fixed[v] = Some(bound),
                }
            }
            Cmp::Ge => {
                // Only useful for infeasibility together with an x ≤ 0 or
                // pin; checked in pass 2 when the row survives.
            }
        }
    }

    // Pass 2: rebuild the model with fixed variables substituted out.
    // The reduced model is internal and never printed, so it carries no
    // variable names.
    let mut var_disposition: Vec<Result<usize, S>> = Vec::with_capacity(n);
    let mut objective: Vec<S> = Vec::with_capacity(n);
    for (v, fx) in fixed.iter().enumerate() {
        match fx {
            Some(val) => var_disposition.push(Err(val.clone())),
            None => {
                var_disposition.push(Ok(objective.len()));
                objective.push(model.objective[v].clone());
            }
        }
    }

    // (terms, cmp, rhs), scale-normalized, for duplicate-row detection.
    type RowKey<K> = (Vec<(usize, K)>, Cmp, K);
    let mut rows_dropped = 0usize;
    let mut constraints: Vec<Constraint<S>> = Vec::with_capacity(model.constraints.len());
    let mut seen_rows: std::collections::HashSet<RowKey<S::Key>> = std::collections::HashSet::new();
    for c in &model.constraints {
        // The row's terms are merged and nonzero, and the renumbering is
        // injective, so the substituted row is too.
        let mut new_terms: Vec<(usize, S)> = Vec::with_capacity(c.terms.len());
        let mut rhs = c.rhs.clone();
        for (v, coef) in &c.terms {
            match &var_disposition[*v] {
                Ok(idx) => new_terms.push((*idx, coef.clone())),
                Err(val) => rhs = rhs.sub(&coef.mul(val)),
            }
        }
        if new_terms.is_empty() {
            // 0 cmp rhs.
            let ok = match c.cmp {
                Cmp::Le => !rhs.is_negative(),
                Cmp::Ge => !rhs.is_positive(),
                Cmp::Eq => rhs.is_zero(),
            };
            if !ok {
                return Err(());
            }
            rows_dropped += 1;
            continue;
        }
        // Dedup on the exact scale-normalized row: every row is divided
        // through by the absolute value of its lowest-index coefficient,
        // so scalar multiples (2x + 2y ≥ 4 vs x + y ≥ 2) collapse to one
        // key. The divisor is positive, preserving the sense. Exact for
        // Ratio; for f64 the sub-tolerance rounding of the division only
        // merges rows that are equal well below the solver's 1e-9
        // tolerance, which is sound.
        let mut sorted: Vec<(usize, &S)> = new_terms.iter().map(|(v, coef)| (*v, coef)).collect();
        sorted.sort_by_key(|(v, _)| *v);
        let lead = sorted[0].1;
        let scale = if lead.is_negative() { lead.neg() } else { lead.clone() };
        let key_terms: Vec<(usize, S::Key)> =
            sorted.iter().map(|(v, coef)| (*v, coef.div(&scale).key())).collect();
        let key = (key_terms, c.cmp, rhs.div(&scale).key());
        if !seen_rows.insert(key) {
            rows_dropped += 1;
            continue;
        }
        constraints.push(Constraint { terms: new_terms, cmp: c.cmp, rhs });
    }

    let vars_fixed = var_disposition.iter().filter(|d| d.is_err()).count();
    let model = Model::unnamed(objective, constraints);
    Ok(Presolved { model, var_disposition, rows_dropped, vars_fixed })
}

/// Expand a reduced-space solution back to original variable order.
pub(crate) fn inflate<S: Scalar>(disposition: &[Result<usize, S>], reduced_values: &[S]) -> Vec<S> {
    disposition
        .iter()
        .map(|d| match d {
            Ok(idx) => reduced_values[*idx].clone(),
            Err(val) => val.clone(),
        })
        .collect()
}

/// Used by tests: count constraints that are pure single-term bounds.
#[allow(dead_code)]
pub(crate) fn count_bound_rows<S: Scalar>(model: &Model<S>) -> usize {
    model.constraints.iter().filter(|c: &&Constraint<S>| c.terms.len() == 1).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cmp, LpStatus, Model};
    use atsched_num::Ratio;

    fn ri(v: i64) -> Ratio {
        Ratio::from_i64(v)
    }

    #[test]
    fn fixes_zero_upper_bound_vars() {
        let mut m: Model<Ratio> = Model::new();
        let x = m.add_var("x", ri(1));
        let y = m.add_var("y", ri(1));
        m.add_constraint(vec![(x, ri(1))], Cmp::Le, ri(0)); // x ≤ 0 → fix
        m.add_constraint(vec![(x, ri(1)), (y, ri(1))], Cmp::Ge, ri(3));
        let p = presolve(&m).unwrap();
        assert_eq!(p.vars_fixed, 1);
        assert_eq!(p.model.num_vars(), 1);
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective, ri(3));
        assert_eq!(sol.value(x), &Ratio::zero());
        assert_eq!(sol.value(y), &ri(3));
    }

    #[test]
    fn equality_pin_substitutes_value() {
        let mut m: Model<Ratio> = Model::new();
        let x = m.add_var("x", ri(2));
        let y = m.add_var("y", ri(1));
        m.add_constraint(vec![(x, ri(2))], Cmp::Eq, ri(4)); // x = 2
        m.add_constraint(vec![(x, ri(1)), (y, ri(1))], Cmp::Ge, ri(5));
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.value(x), &ri(2));
        assert_eq!(sol.value(y), &ri(3));
        assert_eq!(sol.objective, ri(7));
    }

    #[test]
    fn detects_trivial_infeasibility() {
        let mut m: Model<Ratio> = Model::new();
        let x = m.add_var("x", ri(1));
        m.add_constraint(vec![(x, ri(1))], Cmp::Le, ri(0));
        m.add_constraint(vec![(x, ri(1))], Cmp::Ge, ri(1)); // 0 ≥ 1 after subst
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Infeasible);
    }

    #[test]
    fn conflicting_pins_infeasible() {
        let mut m: Model<Ratio> = Model::new();
        let x = m.add_var("x", ri(0));
        m.add_constraint(vec![(x, ri(1))], Cmp::Eq, ri(1));
        m.add_constraint(vec![(x, ri(1))], Cmp::Eq, ri(2));
        assert_eq!(m.solve().unwrap().status, LpStatus::Infeasible);
    }

    #[test]
    fn negative_upper_bound_infeasible() {
        let mut m: Model<Ratio> = Model::new();
        let x = m.add_var("x", ri(0));
        m.add_constraint(vec![(x, ri(1))], Cmp::Le, ri(-1));
        assert_eq!(m.solve().unwrap().status, LpStatus::Infeasible);
    }

    #[test]
    fn duplicate_rows_dropped() {
        let mut m: Model<Ratio> = Model::new();
        let x = m.add_var("x", ri(1));
        let y = m.add_var("y", ri(1));
        for _ in 0..3 {
            m.add_constraint(vec![(x, ri(1)), (y, ri(2))], Cmp::Ge, ri(4));
        }
        let p = presolve(&m).unwrap();
        assert_eq!(p.rows_dropped, 2);
        assert_eq!(m.solve().unwrap().objective, ri(2));
    }

    #[test]
    fn scaled_duplicate_rows_dropped() {
        // 2x + 2y ≥ 4 and 3x + 3y ≥ 6 are scalar multiples of x + y ≥ 2;
        // the scale-normalized key must collapse all three.
        let mut m: Model<Ratio> = Model::new();
        let x = m.add_var("x", ri(1));
        let y = m.add_var("y", ri(1));
        m.add_constraint(vec![(x, ri(1)), (y, ri(1))], Cmp::Ge, ri(2));
        m.add_constraint(vec![(x, ri(2)), (y, ri(2))], Cmp::Ge, ri(4));
        m.add_constraint(vec![(x, ri(3)), (y, ri(3))], Cmp::Ge, ri(6));
        // Negated-leading-coefficient multiple of the same row: the
        // divisor is |lead|, so the sense stays distinct and it is kept.
        m.add_constraint(vec![(x, ri(-1)), (y, ri(-1))], Cmp::Le, ri(-2));
        let p = presolve(&m).unwrap();
        assert_eq!(p.rows_dropped, 2);
        assert_eq!(m.solve().unwrap().objective, ri(2));
    }

    #[test]
    fn inflate_roundtrip() {
        let disposition: Vec<Result<usize, Ratio>> = vec![Ok(0), Err(ri(7)), Ok(1)];
        let out = inflate(&disposition, &[ri(1), ri(2)]);
        assert_eq!(out, vec![ri(1), ri(7), ri(2)]);
    }

    #[test]
    fn negative_coefficient_bound() {
        // -2x ≥ -6  ⇔  x ≤ 3 (not fixing); -2x ≥ 0 ⇔ x ≤ 0 (fixing).
        let mut m: Model<Ratio> = Model::new();
        let x = m.add_var("x", ri(-1)); // maximize x
        m.add_constraint(vec![(x, ri(-2))], Cmp::Ge, ri(-6));
        let sol = m.solve().unwrap();
        assert_eq!(sol.objective, ri(-3));

        let mut m2: Model<Ratio> = Model::new();
        let x2 = m2.add_var("x", ri(-1));
        m2.add_constraint(vec![(x2, ri(-2))], Cmp::Ge, ri(0));
        let p = presolve(&m2).unwrap();
        assert_eq!(p.vars_fixed, 1);
        assert_eq!(m2.solve().unwrap().objective, Ratio::zero());
    }
}
