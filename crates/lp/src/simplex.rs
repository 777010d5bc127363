//! Dense two-phase primal simplex.
//!
//! Pivot selection is Dantzig's rule (most negative reduced cost) for an
//! initial budget of iterations, then falls back to Bland's rule, which
//! guarantees termination on degenerate programs — essential for the exact
//! rational instantiation, where cycling would otherwise loop forever.

use crate::model::{Cmp, Constraint, LpError, LpStatus, Model, Solution, SolveInfo};
use crate::presolve::{inflate, presolve};
use crate::scalar::Scalar;
use atsched_obs as obs;

/// Hard iteration cap (per phase). Protects the `f64` instantiation from
/// tolerance-induced stalls; never reached by the exact path in practice.
const MAX_ITERS: usize = 200_000;

struct Tableau<S> {
    /// `rows × (cols + 1)`; last entry of each row is the RHS.
    rows: Vec<Vec<S>>,
    /// Basic variable (column index) of each row.
    basis: Vec<usize>,
    /// Original constraint index of each row (tracks phase-1 removals).
    row_ids: Vec<usize>,
    /// Total structural+slack+artificial columns (excludes RHS).
    cols: usize,
    /// Columns that may never (re-)enter the basis (artificials).
    banned: Vec<bool>,
    /// Set when any pivot decision was made on a value inside the
    /// tolerance band ([`Scalar::sign_is_marginal`] /
    /// [`Scalar::order_is_marginal`]): an exact field might have decided
    /// that pivot differently, so the final basis — while still checked
    /// for exact optimality by the hybrid pipeline — is not guaranteed
    /// to be the one the exact simplex would reach. Never set for exact
    /// fields.
    marginal: bool,
}

impl<S: Scalar> Tableau<S> {
    fn rhs(&self, i: usize) -> &S {
        &self.rows[i][self.cols]
    }

    /// Gauss-pivot on `(row, col)`: row is scaled so the pivot becomes 1,
    /// then eliminated from every other row and from `red` (the reduced
    /// cost row, with its own RHS = -objective).
    ///
    /// Only the pivot row's exactly-nonzero columns are touched: `v / p`
    /// and `x − f·v` with `v = 0` leave a zero and `x` (up to the sign
    /// of a zero, which no pivot decision reads), so on a finite tableau
    /// every entry comes out as a dense sweep would leave it. The pivot
    /// row is moved out of the tableau for the duration of the sweep
    /// (`rows[row]` is briefly an empty `Vec`), so no full-row clone is
    /// ever made; all updates run through the in-place [`Scalar`]
    /// kernels.
    fn pivot(&mut self, row: usize, col: usize, red: &mut [S]) {
        let mut pivot_row = std::mem::take(&mut self.rows[row]);
        let pivot_val = pivot_row[col].clone();
        debug_assert!(!pivot_val.is_zero());
        let mut nonzero = Vec::new();
        for (j, v) in pivot_row.iter_mut().enumerate() {
            if !v.is_exactly_zero() {
                v.div_in_place(&pivot_val);
                nonzero.push(j);
            }
        }
        let eliminate = |r: &mut [S]| {
            let factor = r[col].clone();
            if !factor.is_zero() {
                for &j in &nonzero {
                    r[j].sub_mul_in_place(&factor, &pivot_row[j]);
                }
            }
        };
        for r in self.rows.iter_mut() {
            // The pivot row's slot is empty for the sweep.
            if !r.is_empty() {
                eliminate(r);
            }
        }
        eliminate(red);
        self.rows[row] = pivot_row;
        self.basis[row] = col;
    }

    /// Run the simplex loop to optimality of the current reduced costs.
    /// Returns the status and the number of pivots performed.
    fn optimize(&mut self, red: &mut [S]) -> Result<(LpStatus, usize), LpError> {
        for iter in 0..MAX_ITERS {
            let use_bland = iter > 8 * (self.rows.len() + self.cols);
            let entering = self.choose_entering(red, use_bland);
            let Some(col) = entering else {
                return Ok((LpStatus::Optimal, iter));
            };
            let Some(row) = self.choose_leaving(col) else {
                return Ok((LpStatus::Unbounded, iter));
            };
            self.pivot(row, col, red);
        }
        Err(LpError::IterationLimit)
    }

    fn choose_entering(&mut self, red: &[S], bland: bool) -> Option<usize> {
        if bland {
            for (j, rj) in red.iter().enumerate().take(self.cols) {
                if self.banned[j] {
                    continue;
                }
                if rj.sign_is_marginal() {
                    self.marginal = true;
                }
                if rj.is_negative() {
                    return Some(j);
                }
            }
            None
        } else {
            let mut best: Option<(usize, &S)> = None;
            let mut marginal = self.marginal;
            for (j, rj) in red.iter().enumerate().take(self.cols) {
                if self.banned[j] {
                    continue;
                }
                if rj.sign_is_marginal() {
                    marginal = true;
                }
                if !rj.is_negative() {
                    continue;
                }
                match &best {
                    None => best = Some((j, rj)),
                    Some((_, b)) => {
                        if rj.order_is_marginal(b) {
                            marginal = true;
                        }
                        if rj.decisively_lt(b) {
                            best = Some((j, rj));
                        }
                    }
                }
            }
            self.marginal = marginal;
            best.map(|(j, _)| j)
        }
    }

    /// Minimum-ratio test; ties broken by smallest basic-variable index
    /// (the Bland tie-break, needed for guaranteed termination).
    fn choose_leaving(&mut self, col: usize) -> Option<usize> {
        let mut best: Option<(usize, S)> = None; // (row, ratio)
        let mut marginal = self.marginal;
        for i in 0..self.rows.len() {
            let a = &self.rows[i][col];
            if a.sign_is_marginal() {
                marginal = true;
            }
            if !a.is_positive() {
                continue;
            }
            let ratio = self.rhs(i).div(a);
            match &best {
                None => best = Some((i, ratio)),
                Some((bi, br)) => {
                    if ratio.order_is_marginal(br) {
                        marginal = true;
                    }
                    // Tie-break (Bland): when the new ratio is not
                    // decisively smaller (exact `<`, plus a noise-floor
                    // margin for f64 so cancellation noise cannot steal
                    // an exact tie from the index rule), it ties iff
                    // `ratio - br` is not positive (for f64 this keeps
                    // the tolerance window of the original two-sided
                    // check, since `ratio ≥ br − noise` already holds
                    // here). Check the cheap index comparison first.
                    if ratio.decisively_lt(br)
                        || (self.basis[i] < self.basis[*bi] && !(ratio.sub(br)).is_positive())
                    {
                        best = Some((i, ratio));
                    }
                }
            }
        }
        self.marginal = marginal;
        best.map(|(i, _)| i)
    }
}

/// Reduced costs `c_j - c_Bᵀ·(tableau column j)`, with `-c_Bᵀ·rhs` in
/// the slot aligned with the RHS column, recomputed from scratch (used
/// at the start of each phase).
///
/// Accumulated row by row over the rows whose basic cost is nonzero, so
/// each row is read once, front to back; every column still adds its
/// products in row order, and an exactly-zero entry adds nothing.
fn reduced_costs<S: Scalar>(tab: &Tableau<S>, costs: &[S]) -> Vec<S> {
    let mut z = vec![S::zero(); tab.cols];
    for (row, &b) in tab.rows.iter().zip(&tab.basis) {
        let cb = &costs[b];
        if cb.is_zero() {
            continue;
        }
        for (zj, a) in z.iter_mut().zip(row) {
            if !a.is_exactly_zero() {
                *zj = zj.add(&cb.mul(a));
            }
        }
    }
    let mut red: Vec<S> = costs.iter().zip(&z).map(|(c, zj)| c.sub(zj)).collect();
    red.push(objective(tab, costs).neg());
    red
}

/// The current objective `c_Bᵀ·rhs`: the RHS column alone.
fn objective<S: Scalar>(tab: &Tableau<S>, costs: &[S]) -> S {
    let mut obj = S::zero();
    for (i, &b) in tab.basis.iter().enumerate() {
        let cb = &costs[b];
        if !cb.is_zero() {
            obj = obj.add(&cb.mul(tab.rhs(i)));
        }
    }
    obj
}

/// Presolve, solve the reduced model, inflate the solution back.
pub(crate) fn solve_detailed<S: Scalar>(
    model: &Model<S>,
) -> Result<(Solution<S>, SolveInfo), LpError> {
    obs::counter_add("lp.solves", 1);
    let mut info =
        SolveInfo { vars: model.num_vars(), rows: model.num_constraints(), ..SolveInfo::default() };
    let pre = match presolve(model) {
        Err(()) => {
            return Ok((
                Solution {
                    status: LpStatus::Infeasible,
                    objective: S::zero(),
                    values: vec![S::zero(); model.num_vars()],
                },
                info,
            ))
        }
        Ok(p) => p,
    };
    info.presolve_fixed = pre.vars_fixed;
    info.presolve_rows_dropped = pre.rows_dropped;
    obs::counter_add("lp.presolve_fixed", pre.vars_fixed as u64);
    obs::counter_add("lp.presolve_rows_dropped", pre.rows_dropped as u64);

    let core = solve_core(&pre.model, false)?;
    let (reduced_sol, pivots) = (core.solution, core.pivots);
    info.pivots = pivots;
    let solution = match reduced_sol.status {
        LpStatus::Optimal => {
            let values = inflate(&pre.var_disposition, &reduced_sol.values);
            let objective = model.objective_at(&values);
            Solution { status: LpStatus::Optimal, objective, values }
        }
        status => {
            Solution { status, objective: S::zero(), values: vec![S::zero(); model.num_vars()] }
        }
    };
    Ok((solution, info))
}

/// Snapshot of the simplex's final basis, enough to re-derive the same
/// vertex in a different scalar field (the hybrid path re-solves it in
/// exact arithmetic — see [`crate::verify`]).
///
/// Column indices refer to the layout of [`solve_core_inner`]'s tableau:
/// `[0..n)` structural, `[n..n+num_slack)` one slack/surplus per
/// inequality in row order, then artificials.
#[derive(Debug, Clone)]
pub(crate) struct FinalBasis {
    /// Basic column of each surviving row.
    pub basis: Vec<usize>,
    /// Original constraint index of each surviving row (phase 1 may have
    /// dropped redundant rows).
    pub row_ids: Vec<usize>,
    /// Structural column count.
    pub n: usize,
    /// Slack/surplus column count.
    pub num_slack: usize,
}

/// Everything a core solve can report.
pub(crate) struct CoreSolve<S> {
    pub solution: Solution<S>,
    pub pivots: usize,
    /// Dual values (when requested and optimal).
    pub duals: Option<Vec<S>>,
    /// Final basis (when optimal).
    pub basis: Option<FinalBasis>,
    /// Some pivot decision was made inside the tolerance band — the
    /// exact simplex might have pivoted differently (see
    /// [`Tableau::marginal`]). Always `false` for exact fields.
    pub marginal: bool,
}

/// [`solve_core_inner`] plus the `lp.pivots` metric: counting in this
/// wrapper covers both the presolved ([`solve_detailed`]) and the dual
/// ([`solve_with_duals`]) entry points, whichever return path the inner
/// solve takes.
pub(crate) fn solve_core<S: Scalar>(
    model: &Model<S>,
    want_duals: bool,
) -> Result<CoreSolve<S>, LpError> {
    solve_core_with(model, want_duals, true)
}

/// [`solve_core`] with row equilibration optional. The hybrid pipeline
/// turns it off for its float probe: scaling structural rows (the unit
/// slack columns go in *after* the scale) reparameterizes the slack
/// variables, which shifts reduced costs and ratio tests enough to send
/// the float walk down a different — equally optimal — pivot path than
/// the unscaled exact solve. Mirroring the exact walk needs the same
/// LP; a badly scaled model then simply fails certification and falls
/// back, it never returns a wrong answer.
pub(crate) fn solve_core_with<S: Scalar>(
    model: &Model<S>,
    want_duals: bool,
    equilibrate: bool,
) -> Result<CoreSolve<S>, LpError> {
    let out = solve_core_inner(model, want_duals, equilibrate)?;
    obs::counter_add("lp.pivots", out.pivots as u64);
    Ok(out)
}

fn solve_core_inner<S: Scalar>(
    model: &Model<S>,
    want_duals: bool,
    equilibrate: bool,
) -> Result<CoreSolve<S>, LpError> {
    let n = model.num_vars();
    let m = model.constraints.len();
    let mut pivots = 0usize;

    // --- assemble the initial tableau -------------------------------------
    // Column layout: [0..n) structural, then one slack/surplus per
    // inequality, then one artificial per Ge/Eq row (or Le row that needed
    // its sign flipped).
    let mut num_slack = 0usize;
    for c in &model.constraints {
        if matches!(effective_cmp(c), Cmp::Le | Cmp::Ge) {
            num_slack += 1;
        }
    }
    let mut num_art = 0usize;
    for c in &model.constraints {
        if matches!(effective_cmp(c), Cmp::Ge | Cmp::Eq) {
            num_art += 1;
        }
    }
    let cols = n + num_slack + num_art;

    let mut tab = Tableau {
        rows: Vec::with_capacity(m),
        basis: vec![0; m],
        row_ids: (0..m).collect(),
        cols,
        banned: vec![false; cols],
        marginal: false,
    };

    let mut slack_cursor = n;
    let mut art_cursor = n + num_slack;
    let mut art_cols: Vec<usize> = Vec::new();
    // Per original row: (marker column, flipped?, normalized sense) for
    // dual extraction.
    let mut markers: Vec<(usize, bool, Cmp)> = Vec::with_capacity(m);
    for (i, c) in model.constraints.iter().enumerate() {
        let mut row = vec![S::zero(); cols + 1];
        let flip = c.rhs.is_negative();
        // Row equilibration (see [`Scalar::row_scale`]): structural
        // coefficients and RHS are rescaled to unit magnitude *before*
        // the unit slack/artificial entries go in, so the initial basis
        // stays an identity and the feasible set in x-space is
        // unchanged. Skipped when duals are requested — the multipliers
        // of a scaled row would certify the scaled model, not this one —
        // and when the caller needs the unscaled pivot walk (hybrid).
        let scale = if want_duals || !equilibrate { None } else { S::row_scale(&row_max_abs(c)) };
        for (idx, coef) in &c.terms {
            let v = if flip { coef.neg() } else { coef.clone() };
            row[*idx] = match &scale {
                Some(s) => v.mul(s),
                None => v,
            };
        }
        let rhs = if flip { c.rhs.neg() } else { c.rhs.clone() };
        row[cols] = match &scale {
            Some(s) => rhs.mul(s),
            None => rhs,
        };
        match effective_cmp(c) {
            Cmp::Le => {
                row[slack_cursor] = S::one();
                tab.basis[i] = slack_cursor;
                markers.push((slack_cursor, flip, Cmp::Le));
                slack_cursor += 1;
            }
            Cmp::Ge => {
                row[slack_cursor] = S::one().neg();
                markers.push((slack_cursor, flip, Cmp::Ge));
                slack_cursor += 1;
                row[art_cursor] = S::one();
                tab.basis[i] = art_cursor;
                art_cols.push(art_cursor);
                art_cursor += 1;
            }
            Cmp::Eq => {
                row[art_cursor] = S::one();
                tab.basis[i] = art_cursor;
                markers.push((art_cursor, flip, Cmp::Eq));
                art_cols.push(art_cursor);
                art_cursor += 1;
            }
        }
        tab.rows.push(row);
    }

    // --- phase 1: drive artificials to zero -------------------------------
    if !art_cols.is_empty() {
        let mut phase1_costs = vec![S::zero(); cols];
        for &j in &art_cols {
            phase1_costs[j] = S::one();
        }
        let mut red = reduced_costs(&tab, &phase1_costs);
        match tab.optimize(&mut red)? {
            (LpStatus::Unbounded, _) => {
                unreachable!("phase-1 objective is bounded below by 0")
            }
            (LpStatus::Optimal, p) => pivots += p,
            (LpStatus::Infeasible, _) => unreachable!(),
        }
        // Recompute the phase-1 objective exactly.
        if objective(&tab, &phase1_costs).is_positive() {
            return Ok(CoreSolve {
                solution: Solution {
                    status: LpStatus::Infeasible,
                    objective: S::zero(),
                    values: vec![S::zero(); n],
                },
                pivots,
                duals: None,
                basis: None,
                marginal: tab.marginal,
            });
        }
        // Pivot basic artificials (necessarily at value 0) out of the
        // basis, or drop redundant rows.
        let is_art = |j: usize| art_cols.binary_search(&j).is_ok();
        // Scratch reduced-cost row for the pivot-out sweeps below: it is
        // all zeros, so every pivot leaves it all zeros — allocate once.
        let mut scratch = vec![S::zero(); cols + 1];
        let mut row_idx = 0;
        while row_idx < tab.rows.len() {
            if is_art(tab.basis[row_idx]) {
                // The drop-vs-pivot decision below rides on `is_zero`
                // classifications: a marginal entry means an exact field
                // might have kept a row this field drops (or vice
                // versa), i.e. a different surviving-row set.
                let (pivot_col, saw_marginal) = {
                    let row = &tab.rows[row_idx];
                    let mut found = None;
                    let mut saw = false;
                    for (j, rj) in row.iter().enumerate().take(n + num_slack) {
                        if rj.sign_is_marginal() {
                            saw = true;
                        }
                        if !rj.is_zero() {
                            found = Some(j);
                            break;
                        }
                    }
                    (found, saw)
                };
                if saw_marginal {
                    tab.marginal = true;
                }
                match pivot_col {
                    Some(j) => {
                        tab.pivot(row_idx, j, &mut scratch);
                        row_idx += 1;
                    }
                    None => {
                        // Redundant constraint: remove the row entirely.
                        tab.rows.swap_remove(row_idx);
                        tab.basis.swap_remove(row_idx);
                        tab.row_ids.swap_remove(row_idx);
                    }
                }
            } else {
                row_idx += 1;
            }
        }
        for &j in &art_cols {
            tab.banned[j] = true;
        }
    }

    // --- phase 2: optimize the real objective ------------------------------
    let mut phase2_costs = vec![S::zero(); cols];
    phase2_costs[..n].clone_from_slice(&model.objective);
    // Equilibrate the cost vector too (uniformly, so pivot choices are
    // unaffected beyond tolerance classification); the reported
    // objective is recomputed from the unscaled model below.
    if !want_duals && equilibrate {
        let mut mx = S::zero();
        for cst in &phase2_costs[..n] {
            let a = abs_of(cst);
            if mx < a {
                mx = a;
            }
        }
        if let Some(s) = S::row_scale(&mx) {
            for cst in phase2_costs[..n].iter_mut() {
                *cst = cst.mul(&s);
            }
        }
    }
    let mut red = reduced_costs(&tab, &phase2_costs);
    match tab.optimize(&mut red)? {
        (LpStatus::Unbounded, p) => {
            return Ok(CoreSolve {
                solution: Solution {
                    status: LpStatus::Unbounded,
                    objective: S::zero(),
                    values: vec![S::zero(); n],
                },
                pivots: pivots + p,
                duals: None,
                basis: None,
                marginal: tab.marginal,
            })
        }
        (LpStatus::Optimal, p) => pivots += p,
        (LpStatus::Infeasible, _) => unreachable!(),
    }

    let mut values = vec![S::zero(); n];
    for (i, &b) in tab.basis.iter().enumerate() {
        if b < n {
            values[b] = tab.rhs(i).clone();
        }
    }
    let objective = model.objective_at(&values);

    // Dual extraction: y = c_Bᵀ·B⁻¹ read off the reduced costs of each
    // row's marker column (slack: y = −red; surplus: y = +red;
    // artificial/Eq: y = −red). Rows removed as redundant in phase 1 get
    // dual 0 (they are linear combinations of surviving rows).
    let duals = if want_duals {
        let red = reduced_costs(&tab, &phase2_costs);
        let surviving: Vec<bool> = {
            let mut v = vec![false; m];
            for &id in &tab.row_ids {
                v[id] = true;
            }
            v
        };
        let mut y = vec![S::zero(); m];
        for (i, &(col, flipped, sense)) in markers.iter().enumerate() {
            if !surviving[i] {
                continue;
            }
            let raw = match sense {
                Cmp::Le => red[col].neg(),
                Cmp::Ge => red[col].clone(),
                Cmp::Eq => red[col].neg(),
            };
            y[i] = if flipped { raw.neg() } else { raw };
        }
        Some(y)
    } else {
        None
    };

    let basis =
        Some(FinalBasis { basis: tab.basis.clone(), row_ids: tab.row_ids.clone(), n, num_slack });
    Ok(CoreSolve {
        solution: Solution { status: LpStatus::Optimal, objective, values },
        pivots,
        duals,
        basis,
        marginal: tab.marginal,
    })
}

/// Solve *without presolve* and return `(primal, duals)`; duals are one
/// multiplier per constraint, valid for the convention
/// `max bᵀy  s.t.  Aᵀy ≤ c,  y_{≥} ≥ 0, y_{≤} ≤ 0, y_{=} free`.
///
/// Exposed for optimality certification (strong duality + complementary
/// slackness); the dual vector is only meaningful when the status is
/// [`LpStatus::Optimal`].
pub(crate) fn solve_with_duals<S: Scalar>(
    model: &Model<S>,
) -> Result<(Solution<S>, Vec<S>), LpError> {
    let core = solve_core(model, true)?;
    let m = model.num_constraints();
    Ok((core.solution, core.duals.unwrap_or_else(|| vec![S::zero(); m])))
}

/// Largest absolute value among a constraint's coefficients and RHS.
fn row_max_abs<S: Scalar>(c: &Constraint<S>) -> S {
    let mut mx = abs_of(&c.rhs);
    for (_, coef) in &c.terms {
        let a = abs_of(coef);
        if mx < a {
            mx = a;
        }
    }
    mx
}

fn abs_of<S: Scalar>(v: &S) -> S {
    if v.is_negative() {
        v.neg()
    } else {
        v.clone()
    }
}

/// The sense of the row *after* RHS sign normalization.
pub(crate) fn effective_cmp<S: Scalar>(c: &Constraint<S>) -> Cmp {
    if c.rhs.is_negative() {
        match c.cmp {
            Cmp::Le => Cmp::Ge,
            Cmp::Ge => Cmp::Le,
            Cmp::Eq => Cmp::Eq,
        }
    } else {
        c.cmp
    }
}

#[cfg(test)]
mod tests {
    use crate::{Cmp, LpStatus, Model};
    use atsched_num::Ratio;
    use proptest::prelude::*;

    fn ri(v: i64) -> Ratio {
        Ratio::from_i64(v)
    }

    fn rf(a: i64, b: i64) -> Ratio {
        Ratio::from_frac(a, b)
    }

    #[test]
    fn trivial_unconstrained_min_is_zero() {
        let mut m: Model<Ratio> = Model::new();
        m.add_var("x", ri(1));
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective, Ratio::zero());
    }

    #[test]
    fn small_exact_optimum() {
        // min x + y s.t. x + 2y >= 3, 3x + y >= 4
        let mut m: Model<Ratio> = Model::new();
        let x = m.add_var("x", ri(1));
        let y = m.add_var("y", ri(1));
        m.add_constraint(vec![(x, ri(1)), (y, ri(2))], Cmp::Ge, ri(3));
        m.add_constraint(vec![(x, ri(3)), (y, ri(1))], Cmp::Ge, ri(4));
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective, ri(2));
        assert_eq!(sol.value(x), &ri(1));
        assert_eq!(sol.value(y), &ri(1));
        assert!(m.is_feasible(&sol.values));
    }

    #[test]
    fn fractional_exact_optimum() {
        // min 2x + 3y s.t. x + y >= 1, x - y = 1/3  → y = ... exact fractions.
        let mut m: Model<Ratio> = Model::new();
        let x = m.add_var("x", ri(2));
        let y = m.add_var("y", ri(3));
        m.add_constraint(vec![(x, ri(1)), (y, ri(1))], Cmp::Ge, ri(1));
        m.add_constraint(vec![(x, ri(1)), (y, ri(-1))], Cmp::Eq, rf(1, 3));
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        // x = 2/3, y = 1/3 → 2·(2/3) + 3·(1/3) = 7/3
        assert_eq!(sol.objective, rf(7, 3));
        assert_eq!(sol.value(x), &rf(2, 3));
        assert_eq!(sol.value(y), &rf(1, 3));
    }

    #[test]
    fn maximization_via_negated_costs() {
        // max x + y s.t. x + 2y <= 4, x <= 2  ⇔ min -(x+y)
        let mut m: Model<Ratio> = Model::new();
        let x = m.add_var("x", ri(-1));
        let y = m.add_var("y", ri(-1));
        m.add_constraint(vec![(x, ri(1)), (y, ri(2))], Cmp::Le, ri(4));
        m.add_constraint(vec![(x, ri(1))], Cmp::Le, ri(2));
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective, ri(-3)); // x = 2, y = 1
    }

    #[test]
    fn infeasible_detected() {
        let mut m: Model<Ratio> = Model::new();
        let x = m.add_var("x", ri(1));
        m.add_constraint(vec![(x, ri(1))], Cmp::Le, ri(-1)); // x <= -1 with x >= 0
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Infeasible);

        let mut m2: Model<Ratio> = Model::new();
        let x = m2.add_var("x", ri(0));
        m2.add_constraint(vec![(x, ri(1))], Cmp::Ge, ri(2));
        m2.add_constraint(vec![(x, ri(1))], Cmp::Le, ri(1));
        assert_eq!(m2.solve().unwrap().status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m: Model<Ratio> = Model::new();
        let x = m.add_var("x", ri(-1)); // min -x, x free upward
        m.add_constraint(vec![(x, ri(1))], Cmp::Ge, ri(1));
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Unbounded);
    }

    #[test]
    fn redundant_equality_rows_are_dropped() {
        // Two copies of the same equality: phase 1 must drop one.
        let mut m: Model<Ratio> = Model::new();
        let x = m.add_var("x", ri(1));
        let y = m.add_var("y", ri(1));
        m.add_constraint(vec![(x, ri(1)), (y, ri(1))], Cmp::Eq, ri(2));
        m.add_constraint(vec![(x, ri(1)), (y, ri(1))], Cmp::Eq, ri(2));
        m.add_constraint(vec![(x, ri(2)), (y, ri(2))], Cmp::Eq, ri(4));
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective, ri(2));
    }

    #[test]
    fn beale_degenerate_terminates() {
        // Beale's classic cycling example; Bland's fallback must terminate.
        // min -3/4 x4 + 150 x5 - 1/50 x6 + 6 x7
        // s.t. 1/4 x4 - 60 x5 - 1/25 x6 + 9 x7 <= 0
        //      1/2 x4 - 90 x5 - 1/50 x6 + 3 x7 <= 0
        //      x6 <= 1
        let mut m: Model<Ratio> = Model::new();
        let x4 = m.add_var("x4", rf(-3, 4));
        let x5 = m.add_var("x5", ri(150));
        let x6 = m.add_var("x6", rf(-1, 50));
        let x7 = m.add_var("x7", ri(6));
        m.add_constraint(
            vec![(x4, rf(1, 4)), (x5, ri(-60)), (x6, rf(-1, 25)), (x7, ri(9))],
            Cmp::Le,
            ri(0),
        );
        m.add_constraint(
            vec![(x4, rf(1, 2)), (x5, ri(-90)), (x6, rf(-1, 50)), (x7, ri(3))],
            Cmp::Le,
            ri(0),
        );
        m.add_constraint(vec![(x6, ri(1))], Cmp::Le, ri(1));
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective, rf(-1, 20));
    }

    #[test]
    fn negative_rhs_is_normalized() {
        // -x <= -2  ⇔  x >= 2
        let mut m: Model<Ratio> = Model::new();
        let x = m.add_var("x", ri(1));
        m.add_constraint(vec![(x, ri(-1))], Cmp::Le, ri(-2));
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective, ri(2));
    }

    #[test]
    fn duplicate_terms_are_merged() {
        let mut m: Model<Ratio> = Model::new();
        let x = m.add_var("x", ri(1));
        // x + x >= 4 → x >= 2
        m.add_constraint(vec![(x, ri(1)), (x, ri(1))], Cmp::Ge, ri(4));
        let sol = m.solve().unwrap();
        assert_eq!(sol.objective, ri(2));
    }

    #[test]
    fn f64_matches_rational_on_small_lp() {
        let mut mr: Model<Ratio> = Model::new();
        let mut mf: Model<f64> = Model::new();
        let xr = mr.add_var("x", ri(1));
        let yr = mr.add_var("y", ri(2));
        let xf = mf.add_var("x", 1.0);
        let yf = mf.add_var("y", 2.0);
        mr.add_constraint(vec![(xr, ri(1)), (yr, ri(1))], Cmp::Ge, ri(3));
        mf.add_constraint(vec![(xf, 1.0), (yf, 1.0)], Cmp::Ge, 3.0);
        mr.add_constraint(vec![(xr, ri(1)), (yr, ri(-1))], Cmp::Le, ri(1));
        mf.add_constraint(vec![(xf, 1.0), (yf, -1.0)], Cmp::Le, 1.0);
        let sr = mr.solve().unwrap();
        let sf = mf.solve().unwrap();
        assert_eq!(sr.status, LpStatus::Optimal);
        assert_eq!(sf.status, LpStatus::Optimal);
        assert!((sr.objective.to_f64() - sf.objective).abs() < 1e-9);
    }

    /// Satellite regression: without row equilibration the absolute
    /// `F64_EPS = 1e-9` misclassifies entries of badly scaled models —
    /// at 1e12 scale, f64 cancellation residue (~1e12·2⁻⁵² ≈ 2e-4) reads
    /// as "nonzero" and derails phase 1; at 1e-6 scale, genuinely
    /// meaningful entries drop below the zero threshold after a few
    /// eliminations. The power-of-two row scaling makes both behave
    /// exactly like the unit-scale model.
    #[test]
    fn f64_coefficients_scaled_by_1e12() {
        // min 2x + 3y s.t. s·(x + y) ≥ s, s·(x − y) = s/3 at s = 1e12;
        // s/3 is not representable, so eliminations leave real rounding
        // noise at absolute magnitude ~1e-4.
        let s = 1e12f64;
        let mut m: Model<f64> = Model::new();
        let x = m.add_var("x", 2.0);
        let y = m.add_var("y", 3.0);
        m.add_constraint(vec![(x, s), (y, s)], Cmp::Ge, s);
        m.add_constraint(vec![(x, s), (y, -s)], Cmp::Eq, s / 3.0);
        // A redundant inexact multiple of the equality: phase 1 must
        // recognize it as dependent and drop it, which needs the
        // tolerance to act relatively.
        m.add_constraint(vec![(x, s / 3.0), (y, -s / 3.0)], Cmp::Eq, s / 9.0);
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        // Exact optimum: x = 2/3, y = 1/3, objective 7/3.
        assert!((sol.objective - 7.0 / 3.0).abs() < 1e-6, "objective {}", sol.objective);
        assert!((sol.values[0] - 2.0 / 3.0).abs() < 1e-6);
        assert!((sol.values[1] - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn f64_coefficients_scaled_by_1e_minus_6() {
        let s = 1e-6f64;
        let mut m: Model<f64> = Model::new();
        let x = m.add_var("x", 2.0);
        let y = m.add_var("y", 3.0);
        m.add_constraint(vec![(x, s), (y, s)], Cmp::Ge, s);
        m.add_constraint(vec![(x, s), (y, -s)], Cmp::Eq, s / 3.0);
        m.add_constraint(vec![(x, s / 3.0), (y, -s / 3.0)], Cmp::Eq, s / 9.0);
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 7.0 / 3.0).abs() < 1e-6, "objective {}", sol.objective);
        assert!((sol.values[0] - 2.0 / 3.0).abs() < 1e-6);
        assert!((sol.values[1] - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn f64_mixed_scale_rows_equilibrate_independently() {
        // One huge row and one tiny row in the same model: each gets its
        // own power-of-two scale.
        let mut m: Model<f64> = Model::new();
        let x = m.add_var("x", 1.0);
        let y = m.add_var("y", 1.0);
        m.add_constraint(vec![(x, 1e12), (y, 2e12)], Cmp::Ge, 3e12);
        m.add_constraint(vec![(x, 3e-6), (y, 1e-6)], Cmp::Ge, 4e-6);
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 2.0).abs() < 1e-6); // x = y = 1
    }

    #[test]
    fn duals_certify_small_lp() {
        // min x + y s.t. x + 2y >= 3, 3x + y >= 4 — both rows tight at
        // the optimum (1,1); duals solve yᵀA = c: y = (2/5, 1/5).
        let mut m: Model<Ratio> = Model::new();
        let x = m.add_var("x", ri(1));
        let y = m.add_var("y", ri(1));
        m.add_constraint(vec![(x, ri(1)), (y, ri(2))], Cmp::Ge, ri(3));
        m.add_constraint(vec![(x, ri(3)), (y, ri(1))], Cmp::Ge, ri(4));
        let (sol, duals) = m.solve_with_duals().unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        m.check_duality(&sol, &duals).unwrap();
        assert_eq!(duals, vec![rf(2, 5), rf(1, 5)]);
    }

    #[test]
    fn duals_with_mixed_senses_and_eq() {
        // min 2x + 3y s.t. x + y >= 1, x - y = 1/3.
        let mut m: Model<Ratio> = Model::new();
        let x = m.add_var("x", ri(2));
        let y = m.add_var("y", ri(3));
        m.add_constraint(vec![(x, ri(1)), (y, ri(1))], Cmp::Ge, ri(1));
        m.add_constraint(vec![(x, ri(1)), (y, ri(-1))], Cmp::Eq, rf(1, 3));
        let (sol, duals) = m.solve_with_duals().unwrap();
        m.check_duality(&sol, &duals).unwrap();
    }

    #[test]
    fn duals_with_le_rows_and_negative_rhs() {
        // max x + y (as min of negation) with ≤ rows and a flipped row.
        let mut m: Model<Ratio> = Model::new();
        let x = m.add_var("x", ri(-1));
        let y = m.add_var("y", ri(-1));
        m.add_constraint(vec![(x, ri(1)), (y, ri(2))], Cmp::Le, ri(4));
        m.add_constraint(vec![(x, ri(-1))], Cmp::Ge, ri(-2)); // x ≤ 2, flipped
        let (sol, duals) = m.solve_with_duals().unwrap();
        assert_eq!(sol.objective, ri(-3));
        m.check_duality(&sol, &duals).unwrap();
    }

    #[test]
    fn duals_with_redundant_rows() {
        // Duplicate equalities: phase 1 drops one; dual 0 for it remains
        // a valid certificate.
        let mut m: Model<Ratio> = Model::new();
        let x = m.add_var("x", ri(1));
        let y = m.add_var("y", ri(1));
        m.add_constraint(vec![(x, ri(1)), (y, ri(1))], Cmp::Eq, ri(2));
        m.add_constraint(vec![(x, ri(1)), (y, ri(1))], Cmp::Eq, ri(2));
        let (sol, duals) = m.solve_with_duals().unwrap();
        m.check_duality(&sol, &duals).unwrap();
    }

    proptest! {
        /// Strong duality bit-for-bit on random feasible exact LPs — a
        /// pivoting-path-independent certificate that the simplex found a
        /// true optimum.
        #[test]
        fn prop_duals_certify_random_lps(
            seed_rows in proptest::collection::vec(
                proptest::collection::vec(-4i64..5, 3), 1..5),
            x0 in proptest::collection::vec(0i64..4, 3),
            costs in proptest::collection::vec(0i64..6, 3),
            senses in proptest::collection::vec(0u8..3, 1..5),
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
            let (sol, duals) = m.solve_with_duals().unwrap();
            prop_assert_eq!(sol.status, LpStatus::Optimal);
            prop_assert!(m.check_duality(&sol, &duals).is_ok(),
                "{:?}", m.check_duality(&sol, &duals));
        }

        /// Random LPs that are feasible by construction: pick x0 >= 0,
        /// then every constraint is `aᵀx >= aᵀx0 - slack` or
        /// `aᵀx <= aᵀx0 + slack`. The solver must (a) report Optimal,
        /// (b) return a feasible point, (c) not exceed the objective at x0.
        #[test]
        fn prop_feasible_lps_solved(
            seed_rows in proptest::collection::vec(
                proptest::collection::vec(-5i64..6, 3), 1..6),
            x0 in proptest::collection::vec(0i64..5, 3),
            costs in proptest::collection::vec(0i64..7, 3),
            senses in proptest::collection::vec(any::<bool>(), 1..6),
        ) {
            let mut m: Model<Ratio> = Model::new();
            let vars: Vec<_> = (0..3).map(|i| m.add_var(format!("x{i}"), ri(costs[i]))).collect();
            for (row, ge) in seed_rows.iter().zip(senses.iter()) {
                let dot: i64 = row.iter().zip(&x0).map(|(a, b)| a * b).sum();
                let terms: Vec<_> = vars.iter().zip(row).map(|(v, c)| (*v, ri(*c))).collect();
                if *ge {
                    m.add_constraint(terms, Cmp::Ge, ri(dot - 1));
                } else {
                    m.add_constraint(terms, Cmp::Le, ri(dot + 1));
                }
            }
            let sol = m.solve().unwrap();
            prop_assert_eq!(sol.status, LpStatus::Optimal);
            prop_assert!(m.is_feasible(&sol.values));
            let x0_pt: Vec<Ratio> = x0.iter().map(|v| ri(*v)).collect();
            prop_assert!(sol.objective <= m.objective_at(&x0_pt));
        }

        /// The f64 instantiation agrees with the exact one on random
        /// feasible LPs (within tolerance).
        #[test]
        fn prop_f64_agrees_with_exact(
            seed_rows in proptest::collection::vec(
                proptest::collection::vec(-4i64..5, 2), 1..5),
            x0 in proptest::collection::vec(0i64..4, 2),
            costs in proptest::collection::vec(1i64..5, 2),
        ) {
            let mut mr: Model<Ratio> = Model::new();
            let mut mf: Model<f64> = Model::new();
            let vr: Vec<_> = (0..2).map(|i| mr.add_var(format!("x{i}"), ri(costs[i]))).collect();
            let vf: Vec<_> = (0..2).map(|i| mf.add_var(format!("x{i}"), costs[i] as f64)).collect();
            for row in &seed_rows {
                let dot: i64 = row.iter().zip(&x0).map(|(a, b)| a * b).sum();
                mr.add_constraint(vr.iter().zip(row).map(|(v, c)| (*v, ri(*c))).collect(), Cmp::Ge, ri(dot));
                mf.add_constraint(vf.iter().zip(row).map(|(v, c)| (*v, *c as f64)).collect(), Cmp::Ge, dot as f64);
            }
            let sr = mr.solve().unwrap();
            let sf = mf.solve().unwrap();
            prop_assert_eq!(sr.status, LpStatus::Optimal);
            prop_assert_eq!(sf.status, LpStatus::Optimal);
            prop_assert!((sr.objective.to_f64() - sf.objective).abs() < 1e-6);
        }
    }
}
