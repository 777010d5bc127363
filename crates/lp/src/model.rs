//! LP model builder: named non-negative variables, a minimization
//! objective, and `≤ / ≥ / =` linear constraints.

use crate::scalar::Scalar;
use crate::simplex;
use std::fmt;

/// Handle to a model variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Index of the variable in [`Solution::values`].
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Constraint sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cmp {
    /// `expr ≤ rhs`
    Le,
    /// `expr ≥ rhs`
    Ge,
    /// `expr = rhs`
    Eq,
}

/// Terminal status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal solution was found.
    Optimal,
    /// The constraint set is empty.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
}

/// Errors surfaced by [`Model::solve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    /// The iteration limit was exceeded (should not happen with Bland's
    /// rule on exact arithmetic; it protects the `f64` instantiation).
    IterationLimit,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl std::error::Error for LpError {}

/// Instrumentation from a solve (sizes, presolve effect, pivot counts).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolveInfo {
    /// Variables in the original model.
    pub vars: usize,
    /// Constraints in the original model.
    pub rows: usize,
    /// Variables eliminated by presolve.
    pub presolve_fixed: usize,
    /// Rows removed by presolve (empty after substitution, or duplicate).
    pub presolve_rows_dropped: usize,
    /// Simplex pivots across both phases.
    pub pivots: usize,
}

/// Result of a successful solve.
#[derive(Debug, Clone)]
pub struct Solution<S> {
    /// Terminal status. `values`/`objective` are meaningful only for
    /// [`LpStatus::Optimal`].
    pub status: LpStatus,
    /// Objective value at the optimum.
    pub objective: S,
    /// One value per variable, indexed by [`VarId::index`].
    pub values: Vec<S>,
}

impl<S: Scalar> Solution<S> {
    /// Value of a single variable.
    pub fn value(&self, v: VarId) -> &S {
        &self.values[v.0]
    }
}

/// A linear program `min cᵀx  s.t.  Ax {≤,≥,=} b,  x ≥ 0`.
#[derive(Debug, Clone)]
pub struct Model<S> {
    /// One name per variable, or none at all for the solver's internal
    /// images (presolved and `f64` models), which are never printed.
    pub(crate) names: Vec<String>,
    pub(crate) objective: Vec<S>,
    pub(crate) constraints: Vec<Constraint<S>>,
}

#[derive(Debug, Clone)]
pub(crate) struct Constraint<S> {
    pub(crate) terms: Vec<(usize, S)>,
    pub(crate) cmp: Cmp,
    pub(crate) rhs: S,
}

impl<S: Scalar> Default for Model<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Scalar> Model<S> {
    /// An empty model.
    pub fn new() -> Self {
        Model { names: Vec::new(), objective: Vec::new(), constraints: Vec::new() }
    }

    /// An internal model without variable names, taking `constraints`
    /// as given: unlike [`Model::add_constraint`], nothing is merged or
    /// filtered.
    pub(crate) fn unnamed(objective: Vec<S>, constraints: Vec<Constraint<S>>) -> Self {
        Model { names: Vec::new(), objective, constraints }
    }

    /// Add a non-negative variable with the given objective coefficient
    /// (the objective is *minimized*).
    pub fn add_var(&mut self, name: impl Into<String>, obj_coef: S) -> VarId {
        self.names.push(name.into());
        self.objective.push(obj_coef);
        VarId(self.objective.len() - 1)
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Name of a variable.
    pub fn var_name(&self, v: VarId) -> &str {
        self.names.get(v.0).map_or("", String::as_str)
    }

    /// Display name of variable `i`: its own, or `v{i}` in an unnamed
    /// model.
    fn display_name(&self, i: usize) -> std::borrow::Cow<'_, str> {
        match self.names.get(i) {
            Some(name) => name.as_str().into(),
            None => format!("v{i}").into(),
        }
    }

    /// Add the constraint `Σ coefᵢ·varᵢ  cmp  rhs`.
    ///
    /// Duplicate variables in `terms` are summed. Empty constraints are
    /// allowed (they become trivially true or falsify the model).
    pub fn add_constraint(&mut self, terms: Vec<(VarId, S)>, cmp: Cmp, rhs: S) {
        let mut dense: Vec<(usize, S)> = Vec::with_capacity(terms.len());
        for (v, c) in terms {
            debug_assert!(v.0 < self.num_vars(), "variable from another model");
            if let Some(slot) = dense.iter_mut().find(|(idx, _)| *idx == v.0) {
                slot.1 = slot.1.add(&c);
            } else {
                dense.push((v.0, c));
            }
        }
        dense.retain(|(_, c)| !c.is_zero());
        self.constraints.push(Constraint { terms: dense, cmp, rhs });
    }

    /// Evaluate `Σ terms` of a constraint at a candidate point.
    pub(crate) fn eval_constraint(&self, c: &Constraint<S>, point: &[S]) -> S {
        let mut acc = S::zero();
        for (idx, coef) in &c.terms {
            acc = acc.add(&coef.mul(&point[*idx]));
        }
        acc
    }

    /// Check a candidate point against all constraints and variable
    /// bounds; used in tests and the verification harness.
    pub fn is_feasible(&self, point: &[S]) -> bool {
        if point.len() != self.num_vars() {
            return false;
        }
        if point.iter().any(|v| v.is_negative()) {
            return false;
        }
        self.constraints.iter().all(|c| {
            let lhs = self.eval_constraint(c, point);
            match c.cmp {
                Cmp::Le => !lhs.sub(&c.rhs).is_positive(),
                Cmp::Ge => !c.rhs.sub(&lhs).is_positive(),
                Cmp::Eq => lhs.sub(&c.rhs).is_zero(),
            }
        })
    }

    /// Objective value at a candidate point.
    pub fn objective_at(&self, point: &[S]) -> S {
        let mut acc = S::zero();
        for (c, v) in self.objective.iter().zip(point) {
            acc = acc.add(&c.mul(v));
        }
        acc
    }

    /// Solve with presolve + the two-phase primal simplex method.
    pub fn solve(&self) -> Result<Solution<S>, LpError> {
        self.solve_detailed().map(|(s, _)| s)
    }

    /// Like [`Model::solve`], also returning instrumentation.
    pub fn solve_detailed(&self) -> Result<(Solution<S>, SolveInfo), LpError> {
        simplex::solve_detailed(self)
    }

    /// Solve (without presolve) and return the primal together with a
    /// dual multiplier per constraint, under the convention
    /// `max bᵀy s.t. Aᵀy ≤ c, y_{≥} ≥ 0, y_{≤} ≤ 0, y_{=} free`.
    ///
    /// With exact scalars, strong duality (`cᵀx* = bᵀy*`) holds
    /// bit-for-bit at optimality — [`Model::check_duality`] verifies it —
    /// which certifies the returned primal optimum independently of the
    /// pivoting path.
    pub fn solve_with_duals(&self) -> Result<(Solution<S>, Vec<S>), LpError> {
        simplex::solve_with_duals(self)
    }

    /// Verify an (x, y) pair as optimality certificate: primal
    /// feasibility, dual feasibility (`Aᵀy ≤ c` + sign conditions), and
    /// strong duality `cᵀx = bᵀy`. Returns a description of the first
    /// violation.
    pub fn check_duality(&self, solution: &Solution<S>, duals: &[S]) -> Result<(), String> {
        if solution.status != LpStatus::Optimal {
            return Err("not an optimal solution".into());
        }
        if duals.len() != self.constraints.len() {
            return Err("dual vector arity mismatch".into());
        }
        if !self.is_feasible(&solution.values) {
            return Err("primal infeasible".into());
        }
        self.check_dual(solution, duals)
    }

    /// The dual half of [`Model::check_duality`], for a primal point
    /// already known to be feasible and one dual per constraint: sign
    /// conditions, dual feasibility and strong duality.
    pub(crate) fn check_dual(&self, solution: &Solution<S>, duals: &[S]) -> Result<(), String> {
        // Sign conditions.
        for (i, (c, y)) in self.constraints.iter().zip(duals).enumerate() {
            match c.cmp {
                Cmp::Ge => {
                    if y.is_negative() {
                        return Err(format!("dual {i} negative on a ≥ row"));
                    }
                }
                Cmp::Le => {
                    if y.is_positive() {
                        return Err(format!("dual {i} positive on a ≤ row"));
                    }
                }
                Cmp::Eq => {}
            }
        }
        // Dual feasibility: Aᵀy ≤ c, formed in one pass over the rows.
        // Each variable still sums its terms in row order; a zero
        // multiplier adds nothing.
        let mut aty = vec![S::zero(); self.num_vars()];
        for (c, y) in self.constraints.iter().zip(duals) {
            if y.is_exactly_zero() {
                continue;
            }
            for (idx, coef) in &c.terms {
                aty[*idx] = aty[*idx].add(&coef.mul(y));
            }
        }
        for (v, (lhs, cost)) in aty.iter().zip(&self.objective).enumerate() {
            if lhs.sub(cost).is_positive() {
                return Err(format!("dual infeasible at variable {v}"));
            }
        }
        // Strong duality.
        let mut dual_obj = S::zero();
        for (c, y) in self.constraints.iter().zip(duals) {
            if !y.is_exactly_zero() {
                dual_obj = dual_obj.add(&c.rhs.mul(y));
            }
        }
        if !dual_obj.sub(&solution.objective).is_zero() {
            return Err(format!("duality gap: primal {} vs dual {}", solution.objective, dual_obj));
        }
        Ok(())
    }
}

impl<S: Scalar> fmt::Display for Model<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "min ")?;
        let mut first = true;
        for (i, c) in self.objective.iter().enumerate() {
            if c.is_zero() {
                continue;
            }
            if !first {
                write!(f, " + ")?;
            }
            write!(f, "{}·{}", c, self.display_name(i))?;
            first = false;
        }
        writeln!(f)?;
        for c in &self.constraints {
            write!(f, "  ")?;
            let mut first = true;
            for (idx, coef) in &c.terms {
                if !first {
                    write!(f, " + ")?;
                }
                write!(f, "{}·{}", coef, self.display_name(*idx))?;
                first = false;
            }
            let op = match c.cmp {
                Cmp::Le => "<=",
                Cmp::Ge => ">=",
                Cmp::Eq => "=",
            };
            writeln!(f, " {} {}", op, c.rhs)?;
        }
        Ok(())
    }
}
