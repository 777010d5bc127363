//! # atsched-lp
//!
//! A from-scratch linear-programming toolkit: a model builder and a
//! two-phase primal simplex solver over a dense tableau, generic over
//! the scalar field.
//!
//! The nested active-time 9/5-approximation (Cao et al., SPAA 2022) begins
//! by solving the strengthened LP of Figure 1(a). No LP solver exists in
//! the approved dependency set, so this crate provides one, with two
//! instantiations:
//!
//! * [`atsched_num::Ratio`] — exact rational arithmetic. Pivoting uses
//!   Bland's rule, so the method terminates on degenerate programs and the
//!   returned optimum is *bit-for-bit exact*. This is what the reference
//!   rounding pipeline consumes: every comparison the paper's Algorithm 1
//!   makes (`x(i) < L(i)`, `9·x(Des(i)) ≥ 5(x̃+1)`, …) is decided exactly.
//! * `f64` — fast approximate solving for large parameter sweeps. The
//!   scheduler built on top verifies every schedule it extracts
//!   independently (`Schedule::verify` in `atsched-core`), so
//!   floating-point noise cannot produce a silently invalid schedule.
//!
//! The two meet in the hybrid pipeline ([`Model::solve_hybrid`]): solve
//! in `f64`, keep only the final basis, re-derive that vertex in exact
//! arithmetic, certify its optimality (exact primal and dual
//! feasibility plus strong duality; the vertex need not be the unique
//! optimum), and fall back to the exact simplex on any typed failure —
//! exact answers at close to float speed on the common path.
//!
//! ## Example
//!
//! ```
//! use atsched_lp::{Model, Cmp, LpStatus};
//! use atsched_num::Ratio;
//!
//! // min x + y  s.t.  x + 2y >= 3,  3x + y >= 4,  x,y >= 0
//! let mut m: Model<Ratio> = Model::new();
//! let x = m.add_var("x", Ratio::one());
//! let y = m.add_var("y", Ratio::one());
//! m.add_constraint(vec![(x, Ratio::one()), (y, Ratio::from_i64(2))], Cmp::Ge, Ratio::from_i64(3));
//! m.add_constraint(vec![(x, Ratio::from_i64(3)), (y, Ratio::one())], Cmp::Ge, Ratio::from_i64(4));
//! let sol = m.solve().unwrap();
//! assert_eq!(sol.status, LpStatus::Optimal);
//! assert_eq!(sol.objective, Ratio::from_i64(2)); // exact: x = 1, y = 1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hybrid;
mod model;
mod presolve;
mod scalar;
mod simplex;
mod verify;

pub use hybrid::{FallbackReason, HybridOutcome};
pub use model::{Cmp, LpError, LpStatus, Model, Solution, SolveInfo, VarId};
pub use scalar::{scalar_from_int, Scalar};
pub use verify::VerifyError;
