//! Exact re-derivation of a simplex basis found in floating point.
//!
//! The hybrid pipeline runs the simplex in `f64` and keeps only its
//! *final basis* — a combinatorial object (which columns are basic in
//! which surviving rows) that is immune to rounding noise whenever the
//! float run pivoted correctly. This module re-derives the primal/dual
//! pair for that basis from scratch in the caller's scalar field:
//!
//! * primal: solve `B·x_B = b`, no simplex pivoting;
//! * dual:   solve `Bᵀ·ŷ = c_B` and map back through the row-sign
//!   normalization, matching the convention of
//!   [`Model::solve_with_duals`](crate::Model::solve_with_duals).
//!
//! Neither solve is dense in the basis dimension `k`. A simplex basis
//! is dominated by slack/surplus columns, each a single `±1` in its
//! owner row; eliminating those first (exactly, by substitution)
//! shrinks both systems to the same `t×t` core over the *structural*
//! basic columns and the rows that own no basic slack — and `t`, the
//! number of positive variables at the vertex, is far below `k` on
//! nested active-time LPs. The slack elimination also pins the duals of
//! slack-owning rows to exactly zero (complementary slackness in
//! action: a row with positive surplus cannot carry a multiplier).
//!
//! The core is assembled from each row's own terms and factored once,
//! sparsely ([`SparseLu`]); both systems are solved from that one
//! factorization. In exact arithmetic the solution of a nonsingular
//! system does not depend on the pivot order, so the factorization
//! picks pivots only to limit fill-in, and it finds the core singular
//! exactly when no pivot order could factor it.
//!
//! Every failure mode is a typed [`VerifyError`]; callers treat any of
//! them as "the float basis cannot be trusted" and fall back to the
//! exact simplex. Nothing here panics on a bad basis — a singular or
//! artificial-contaminated basis is an expected input, not a bug.

use crate::model::{Cmp, LpStatus, Model, Solution};
use crate::scalar::Scalar;
use crate::simplex::{effective_cmp, FinalBasis};
use std::fmt;

/// Why a floating-point basis could not be certified exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The final basis still contains an artificial column — the float
    /// run never found a genuine feasible basis.
    ArtificialInBasis,
    /// The basis matrix is singular in exact arithmetic (the float
    /// pivots divided by values that are exactly zero).
    SingularBasis,
    /// The re-derived point violates a constraint or a non-negativity
    /// bound (e.g. phase 1 dropped a row that is not exactly redundant).
    PrimalInfeasible,
    /// The re-derived pair is feasible but fails the optimality
    /// certificate (dual feasibility or strong duality); the message
    /// names the first violation.
    NotCertified(String),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::ArtificialInBasis => write!(f, "artificial column in final basis"),
            VerifyError::SingularBasis => write!(f, "basis singular in exact arithmetic"),
            VerifyError::PrimalInfeasible => write!(f, "re-derived point is infeasible"),
            VerifyError::NotCertified(msg) => write!(f, "certificate rejected: {msg}"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Exactly re-derived primal/dual pair for a basis.
pub(crate) struct Rederived<S> {
    pub solution: Solution<S>,
    pub duals: Vec<S>,
}

/// Re-derive the vertex selected by `fb` on `model`, in `model`'s own
/// scalar field, and check primal feasibility. Optimality is *not*
/// checked here — see [`Model::check_duality`] for the certificate.
pub(crate) fn rederive<S: Scalar>(
    model: &Model<S>,
    fb: &FinalBasis,
) -> Result<Rederived<S>, VerifyError> {
    let n = model.num_vars();
    let m = model.num_constraints();
    if fb.n != n || fb.basis.iter().any(|&c| c >= fb.n + fb.num_slack) {
        return Err(VerifyError::ArtificialInBasis);
    }
    if fb.row_ids.iter().any(|&id| id >= m) || fb.row_ids.len() != fb.basis.len() {
        return Err(VerifyError::SingularBasis);
    }

    // Row-sign normalization and slack-column ownership, derived from
    // *this* model (exactly), mirroring the tableau layout of
    // `solve_core_inner`. If the float model normalized differently
    // (possible only when a RHS sign is decided by sub-tolerance noise),
    // the mismatch surfaces as a singular/infeasible system below —
    // never as a wrong answer.
    let flips: Vec<bool> = model.constraints.iter().map(|c| c.rhs.is_negative()).collect();
    let senses: Vec<Cmp> = model.constraints.iter().map(effective_cmp).collect();
    let mut owner_of_slack: Vec<usize> = Vec::new();
    for (i, s) in senses.iter().enumerate() {
        if matches!(s, Cmp::Le | Cmp::Ge) {
            owner_of_slack.push(i);
        }
    }
    if owner_of_slack.len() != fb.num_slack {
        return Err(VerifyError::SingularBasis);
    }

    let k = fb.basis.len();
    let mut pos_of_row = vec![usize::MAX; m];
    for (p, &id) in fb.row_ids.iter().enumerate() {
        if pos_of_row[id] != usize::MAX {
            return Err(VerifyError::SingularBasis);
        }
        pos_of_row[id] = p;
    }

    // Eliminate basic slack columns by substitution before touching a
    // Gaussian solve. Each one is a single `±1` in its owner row, so it
    // pins that row (primal) and zeroes that row's multiplier (dual);
    // what is left is the t×t structural core. A basic slack whose
    // owner row was dropped in phase 1 is an all-zero column, and two
    // basic slacks can never share an owner — both are singular bases.
    let mut struct_cols: Vec<usize> = Vec::new();
    let mut owner_taken = vec![false; k];
    for &col in &fb.basis {
        if col < n {
            struct_cols.push(col);
            continue;
        }
        let row_id = owner_of_slack[col - n];
        let p = pos_of_row[row_id];
        if p == usize::MAX || owner_taken[p] {
            return Err(VerifyError::SingularBasis);
        }
        owner_taken[p] = true;
    }
    let core_rows: Vec<usize> =
        (0..k).filter(|&p| !owner_taken[p]).map(|p| fb.row_ids[p]).collect();
    debug_assert_eq!(core_rows.len(), struct_cols.len());

    // The core M over the slack-free rows, row by row from each row's
    // normalized terms: `core_col[v]` is structural column v's position
    // in the core. A column listed twice keeps one position, leaving
    // the other empty, and the factorization finds M singular.
    let mut core_col = vec![usize::MAX; n];
    for (j, &col) in struct_cols.iter().enumerate() {
        core_col[col] = j;
    }
    let normalized = |id: usize, v: &S| if flips[id] { v.neg() } else { v.clone() };
    let mmat: Vec<Vec<(usize, S)>> = core_rows
        .iter()
        .map(|&id| {
            let terms = &model.constraints[id].terms;
            terms
                .iter()
                .filter(|(col, _)| core_col[*col] != usize::MAX)
                .map(|(col, coef)| (core_col[*col], normalized(id, coef)))
                .collect()
        })
        .collect();
    let lu = SparseLu::factor(mmat).ok_or(VerifyError::SingularBasis)?;

    // Primal core: M·x_struct = b̃. Slack values need no
    // back-substitution — a slack is non-negative iff its owner row
    // holds at the vertex, and the full `is_feasible` sweep below
    // checks exactly that (plus the rows phase 1 dropped as
    // "redundant" based on float arithmetic).
    let crhs: Vec<S> =
        core_rows.iter().map(|&id| normalized(id, &model.constraints[id].rhs)).collect();
    let xs = lu.solve(crhs);
    if xs.iter().any(|v| v.is_negative()) {
        return Err(VerifyError::PrimalInfeasible);
    }
    let mut values = vec![S::zero(); n];
    for (j, &col) in struct_cols.iter().enumerate() {
        values[col] = xs[j].clone();
    }
    if !model.is_feasible(&values) {
        return Err(VerifyError::PrimalInfeasible);
    }

    // Dual core: Mᵀ·ŷ = c_struct from the same factorization, then undo
    // the row-sign normalization. Matches the marker-column extraction
    // in `solve_core_inner` (there, y_i = ŷ_i for every sense, negated
    // for flipped rows). Slack-owning and dropped rows keep multiplier 0.
    let cs: Vec<S> = struct_cols.iter().map(|&col| model.objective[col].clone()).collect();
    let ys = lu.solve_transposed(cs);
    let mut duals = vec![S::zero(); m];
    for (y, &id) in ys.iter().zip(&core_rows) {
        duals[id] = normalized(id, y);
    }

    let objective = model.objective_at(&values);
    Ok(Rederived { solution: Solution { status: LpStatus::Optimal, objective, values }, duals })
}

/// A sparse LU factorization of a square matrix given by rows of
/// `(column, value)` entries: `M = L̃·U`, where step `s` pivots on
/// `order[s] = (row, col)`, `U`'s row for that step is the pivot row as
/// it stood then, and `L̃` holds the multipliers that step subtracted
/// the pivot row with.
///
/// Pivots are chosen by the Markowitz count `(row nnz − 1)·(col nnz −
/// 1)`, first found on ties, which keeps the fill-in of the LP cores
/// near zero; any nonzero pivot would do, since the solutions are exact.
struct SparseLu<S> {
    /// Per step: the pivot's row and column.
    order: Vec<(usize, usize)>,
    /// Per step: the pivot value.
    pivot: Vec<S>,
    /// Per step: the pivot row's other entries (all in columns pivoted
    /// later).
    upper: Vec<Vec<(usize, S)>>,
    /// Per step: `(row, multiplier)` for every row the step eliminated
    /// the pivot column from (all rows pivoted later).
    lower: Vec<Vec<(usize, S)>>,
}

impl<S: Scalar> SparseLu<S> {
    /// Factor the `t×t` matrix with these `t` rows. `None` iff it is
    /// singular.
    fn factor(mut rows: Vec<Vec<(usize, S)>>) -> Option<SparseLu<S>> {
        let t = rows.len();
        let mut col_count = vec![0usize; t];
        for row in &rows {
            for (c, _) in row {
                col_count[*c] += 1;
            }
        }
        let mut active = vec![true; t];
        let mut lu = SparseLu {
            order: Vec::with_capacity(t),
            pivot: Vec::with_capacity(t),
            upper: Vec::with_capacity(t),
            lower: Vec::with_capacity(t),
        };
        for _ in 0..t {
            // Active rows hold only active columns and no zeros, so no
            // entry left means M is singular.
            let mut best: Option<(usize, usize, usize)> = None; // (cost, row, entry)
            'scan: for (r, row) in rows.iter().enumerate().filter(|(r, _)| active[*r]) {
                for (e, (c, _)) in row.iter().enumerate() {
                    let cost = (row.len() - 1) * (col_count[*c] - 1);
                    if best.is_none_or(|(b, _, _)| cost < b) {
                        best = Some((cost, r, e));
                        if cost == 0 {
                            break 'scan;
                        }
                    }
                }
            }
            let (_, r, e) = best?;
            active[r] = false;
            let mut prow = std::mem::take(&mut rows[r]);
            let (c, pv) = prow.swap_remove(e);
            col_count[c] -= 1;
            for (cc, _) in &prow {
                col_count[*cc] -= 1;
            }
            let mut mults = Vec::new();
            for (i, row) in rows.iter_mut().enumerate().filter(|(i, _)| active[*i]) {
                let Some(at) = row.iter().position(|(cc, _)| *cc == c) else {
                    continue;
                };
                let f = row.swap_remove(at).1.div(&pv);
                col_count[c] -= 1;
                for (cc, u) in &prow {
                    match row.iter().position(|(x, _)| x == cc) {
                        Some(q) => {
                            row[q].1.sub_mul_in_place(&f, u);
                            if row[q].1.is_zero() {
                                row.swap_remove(q);
                                col_count[*cc] -= 1;
                            }
                        }
                        None => {
                            row.push((*cc, f.mul(u).neg()));
                            col_count[*cc] += 1;
                        }
                    }
                }
                mults.push((i, f));
            }
            lu.order.push((r, c));
            lu.pivot.push(pv);
            lu.upper.push(prow);
            lu.lower.push(mults);
        }
        Some(lu)
    }

    /// Solve `M·x = b` (`b` indexed by row, `x` by column).
    fn solve(&self, mut b: Vec<S>) -> Vec<S> {
        // Forward: apply each step's row operations to b.
        for (s, &(r, _)) in self.order.iter().enumerate() {
            if b[r].is_zero() {
                continue;
            }
            let br = b[r].clone();
            for (i, f) in &self.lower[s] {
                b[*i].sub_mul_in_place(f, &br);
            }
        }
        // Back: U·x = b, last pivot first.
        let mut x = vec![S::zero(); b.len()];
        for s in (0..self.order.len()).rev() {
            let (r, c) = self.order[s];
            let mut acc = std::mem::replace(&mut b[r], S::zero());
            for (cc, u) in &self.upper[s] {
                acc.sub_mul_in_place(u, &x[*cc]);
            }
            x[c] = acc.div(&self.pivot[s]);
        }
        x
    }

    /// Solve `Mᵀ·y = c` (`c` indexed by column, `y` by row):
    /// `Uᵀ·w = c` forward, then `L̃ᵀ·y = w` backward.
    fn solve_transposed(&self, mut c: Vec<S>) -> Vec<S> {
        let mut y = vec![S::zero(); c.len()];
        for (s, &(r, col)) in self.order.iter().enumerate() {
            let w = c[col].div(&self.pivot[s]);
            if !w.is_zero() {
                for (cc, u) in &self.upper[s] {
                    c[*cc].sub_mul_in_place(&w, u);
                }
            }
            y[r] = w;
        }
        for s in (0..self.order.len()).rev() {
            let r = self.order[s].0;
            let mut acc = std::mem::replace(&mut y[r], S::zero());
            for (i, f) in &self.lower[s] {
                acc.sub_mul_in_place(f, &y[*i]);
            }
            y[r] = acc;
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::solve_core;
    use atsched_num::Ratio;
    use proptest::prelude::*;

    fn ri(v: i64) -> Ratio {
        Ratio::from_i64(v)
    }

    /// Solve a model in f64, re-derive the basis exactly, and check the
    /// pair against the exact solve and the duality certificate.
    fn roundtrip(mr: &Model<Ratio>, mf: &Model<f64>) {
        let core = solve_core(mf, false).unwrap();
        assert_eq!(core.solution.status, LpStatus::Optimal);
        let fb = core.basis.expect("optimal solve returns a basis");
        let red = rederive(mr, &fb).expect("basis re-derives exactly");
        mr.check_duality(&red.solution, &red.duals).expect("re-derived pair certifies");
        let exact = mr.solve_with_duals().unwrap().0;
        assert_eq!(red.solution.objective, exact.objective);
    }

    #[test]
    fn rederives_mixed_sense_model() {
        let mut mr: Model<Ratio> = Model::new();
        let mut mf: Model<f64> = Model::new();
        let xr = mr.add_var("x", ri(2));
        let yr = mr.add_var("y", ri(3));
        let xf = mf.add_var("x", 2.0);
        let yf = mf.add_var("y", 3.0);
        mr.add_constraint(vec![(xr, ri(1)), (yr, ri(1))], Cmp::Ge, ri(1));
        mf.add_constraint(vec![(xf, 1.0), (yf, 1.0)], Cmp::Ge, 1.0);
        mr.add_constraint(vec![(xr, ri(3)), (yr, ri(-3))], Cmp::Eq, ri(1));
        mf.add_constraint(vec![(xf, 3.0), (yf, -3.0)], Cmp::Eq, 1.0);
        roundtrip(&mr, &mf);
    }

    #[test]
    fn rederives_flipped_and_le_rows() {
        let mut mr: Model<Ratio> = Model::new();
        let mut mf: Model<f64> = Model::new();
        let xr = mr.add_var("x", ri(-1));
        let yr = mr.add_var("y", ri(-1));
        let xf = mf.add_var("x", -1.0);
        let yf = mf.add_var("y", -1.0);
        mr.add_constraint(vec![(xr, ri(1)), (yr, ri(2))], Cmp::Le, ri(4));
        mf.add_constraint(vec![(xf, 1.0), (yf, 2.0)], Cmp::Le, 4.0);
        mr.add_constraint(vec![(xr, ri(-1))], Cmp::Ge, ri(-2)); // x ≤ 2, flipped
        mf.add_constraint(vec![(xf, -1.0)], Cmp::Ge, -2.0);
        roundtrip(&mr, &mf);
    }

    #[test]
    fn rejects_garbage_bases_with_typed_errors() {
        let mut m: Model<Ratio> = Model::new();
        let x = m.add_var("x", ri(1));
        let y = m.add_var("y", ri(1));
        m.add_constraint(vec![(x, ri(1)), (y, ri(2))], Cmp::Ge, ri(3));
        m.add_constraint(vec![(x, ri(3)), (y, ri(1))], Cmp::Ge, ri(4));
        // Artificial column (index ≥ n + num_slack = 4) in the basis.
        let fb = FinalBasis { basis: vec![0, 4], row_ids: vec![0, 1], n: 2, num_slack: 2 };
        assert_eq!(rederive(&m, &fb).err(), Some(VerifyError::ArtificialInBasis));
        // Repeated column → singular basis matrix.
        let fb = FinalBasis { basis: vec![0, 0], row_ids: vec![0, 1], n: 2, num_slack: 2 };
        assert_eq!(rederive(&m, &fb).err(), Some(VerifyError::SingularBasis));
        // A basis whose vertex is infeasible for the model: x from row 0
        // only, slack basic in row 1 → x = 3, but then row 1 surplus is
        // 3·3 − 4 = 5 ≥ 0 fine; force infeasibility via both slacks.
        let fb = FinalBasis { basis: vec![2, 3], row_ids: vec![0, 1], n: 2, num_slack: 2 };
        // x = y = 0, surpluses would need to be negative.
        assert_eq!(rederive(&m, &fb).err(), Some(VerifyError::PrimalInfeasible));
    }

    #[test]
    fn error_display_is_stable() {
        assert_eq!(VerifyError::SingularBasis.to_string(), "basis singular in exact arithmetic");
        assert!(VerifyError::NotCertified("gap".into()).to_string().contains("gap"));
    }

    /// The sparse rows of a dense matrix.
    fn sparse(dense: &[Vec<i64>]) -> Vec<Vec<(usize, Ratio)>> {
        dense
            .iter()
            .map(|row| {
                row.iter().enumerate().filter(|(_, v)| **v != 0).map(|(j, v)| (j, ri(*v))).collect()
            })
            .collect()
    }

    /// Is the dense matrix singular? (Plain elimination, first nonzero
    /// pivot.)
    fn singular(dense: &[Vec<i64>]) -> bool {
        let mut a: Vec<Vec<Ratio>> =
            dense.iter().map(|r| r.iter().map(|v| ri(*v)).collect()).collect();
        let t = a.len();
        for col in 0..t {
            let Some(p) = (col..t).find(|&r| !a[r][col].is_zero()) else {
                return true;
            };
            a.swap(col, p);
            let (top, rest) = a.split_at_mut(col + 1);
            let pivot = &top[col];
            for row in rest {
                let f = &row[col] / &pivot[col];
                for (v, u) in row[col..].iter_mut().zip(&pivot[col..]) {
                    *v -= &(&f * u);
                }
            }
        }
        false
    }

    /// `M·x = b` and `Mᵀ·y = c` hold exactly.
    fn check_solves(dense: &[Vec<i64>], lu: &SparseLu<Ratio>, b: &[i64], c: &[i64]) {
        let t = dense.len();
        let x = lu.solve(b.iter().map(|v| ri(*v)).collect());
        let y = lu.solve_transposed(c.iter().map(|v| ri(*v)).collect());
        for i in 0..t {
            let row: Ratio = (0..t).map(|j| &ri(dense[i][j]) * &x[j]).sum();
            assert_eq!(row, ri(b[i]), "row {i} of M·x");
            let col: Ratio = (0..t).map(|j| &ri(dense[j][i]) * &y[j]).sum();
            assert_eq!(col, ri(c[i]), "column {i} of Mᵀ·y");
        }
    }

    #[test]
    fn sparse_lu_permutes_around_zero_pivots_and_fills_in() {
        // A zero leading entry, and a pivot row whose elimination fills
        // in entries the other rows lacked.
        let dense = vec![vec![0, 2, 1, 0], vec![3, 0, 0, 1], vec![1, 1, 0, 0], vec![0, 0, 5, 2]];
        let lu = SparseLu::factor(sparse(&dense)).expect("nonsingular");
        check_solves(&dense, &lu, &[1, -2, 3, 4], &[5, 0, -1, 2]);
        // Rows 0 and 2 equal up to scale: singular.
        let dense = vec![vec![1, 2, 0], vec![0, 1, 1], vec![2, 4, 0]];
        assert!(SparseLu::factor(sparse(&dense)).is_none());
        // An empty core factors trivially.
        let lu = SparseLu::<Ratio>::factor(Vec::new()).unwrap();
        assert!(lu.solve(Vec::new()).is_empty());
    }

    proptest! {
        /// On random sparse integer matrices, the factorization exists
        /// exactly when the matrix is nonsingular, and then solves both
        /// systems exactly.
        #[test]
        fn prop_sparse_lu_matches_dense_elimination(
            (dense, b, c) in (1usize..7).prop_flat_map(|t| {
                // About half the entries are zero.
                let entry = (-7i64..4).prop_map(|v| if v < -3 { 0 } else { v });
                (
                    proptest::collection::vec(proptest::collection::vec(entry, t), t),
                    proptest::collection::vec(-5i64..6, t),
                    proptest::collection::vec(-5i64..6, t),
                )
            }),
        ) {
            match SparseLu::factor(sparse(&dense)) {
                None => prop_assert!(singular(&dense)),
                Some(lu) => {
                    prop_assert!(!singular(&dense));
                    check_solves(&dense, &lu, &b, &c);
                }
            }
        }
    }
}
