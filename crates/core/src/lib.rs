//! # atsched-core
//!
//! The primary contribution of *"Brief Announcement: Nested Active-Time
//! Scheduling"* (Cao, Fineman, Li, Mestre, Russell, Umboh — SPAA 2022):
//! a **9/5-approximation** for active-time scheduling when job windows are
//! laminar (nested), together with every substrate the algorithm needs.
//!
//! ## Problem
//!
//! `n` preemptible jobs; job `j` has processing time `p_j`, release `r_j`
//! and deadline `d_j`. A machine runs up to `g` jobs per integer time
//! slot; preemption only at slot boundaries. Minimize the number of
//! *active* slots (slots with at least one job) subject to every job being
//! fully scheduled inside its window `[r_j, d_j)`.
//!
//! ## Pipeline (paper §§2–4)
//!
//! 1. [`tree`] — build the laminar tree of distinct job windows.
//! 2. [`canonical`] — make the tree *canonical* (binary, rigid leaves;
//!    Definition 2.1).
//! 3. [`lp_model`] — the strengthened LP of Figure 1(a), including the
//!    `OPT_i ≥ 2 / ≥ 3` constraints computed by [`opt23`].
//! 4. [`transform`] — the Lemma 3.1 push-down transformation, after which
//!    the positive nodes form the antichain `I`.
//! 5. [`rounding`] — Algorithm 1: floor on `I`, then bottom-up round-ups
//!    within the `(9/5)·x(Des(i))` budget.
//! 6. [`feasibility`] / [`schedule`] — schedule extraction by the laminar
//!    greedy (exact on laminar windows; Dinic's max-flow stays as the
//!    oracle) and an independent verifier.
//! 7. [`certify`] — an executable version of the paper's *analysis*
//!    (node types B/C₁/C₂, the triples of Algorithm 2, Lemmas 4.7–4.13),
//!    used as a test oracle.
//!
//! The one-call entry point is [`solver::solve_nested`].
//!
//! ## Example
//!
//! ```
//! use atsched_core::instance::{Instance, Job};
//! use atsched_core::solver::{solve_nested, SolverOptions};
//!
//! // Two nested windows: a long job over [0,4) and two unit jobs in [1,3).
//! let inst = Instance::new(2, vec![
//!     Job::new(0, 4, 2),
//!     Job::new(1, 3, 1),
//!     Job::new(1, 3, 1),
//! ]).unwrap();
//! let result = solve_nested(&inst, &SolverOptions::exact()).unwrap();
//! assert!(result.schedule.verify(&inst).is_ok());
//! assert!(result.stats.opened_slots <= 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canonical;
pub mod certify;
pub mod decompose;
pub mod delta;
pub mod energy;
pub mod feasibility;
pub mod instance;
pub mod lp_model;
pub mod opt23;
pub mod render;
pub mod rounding;
pub mod schedule;
pub mod solver;
pub mod transform;
pub mod tree;
pub mod treelp;

pub use delta::{DeltaError, DeltaOp, JobDelta};
pub use instance::{Instance, InstanceError, Job};
pub use schedule::Schedule;
pub use solver::{
    solve_nested, LpAnswer, LpStrategy, ShardMode, SolveError, SolveResult, SolveStats,
    SolverOptions, StageTimings,
};
pub use treelp::TreeDecline;
