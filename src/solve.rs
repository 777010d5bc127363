//! The unified public solving API: the [`Solve`] builder.
//!
//! One entry point for every solving path in the workspace:
//!
//! ```
//! use nested_active_time::{Solve, Method};
//! use nested_active_time::core::instance::{Instance, Job};
//!
//! let inst = Instance::new(2, vec![Job::new(0, 4, 2), Job::new(1, 3, 1)]).unwrap();
//!
//! // Auto-dispatch (laminar → nested 9/5, crossing → certified greedy):
//! let outcome = Solve::new(&inst).run().unwrap();
//! assert!(outcome.schedule().verify(&inst).is_ok());
//!
//! // Explicit configuration, builder-style:
//! let outcome = Solve::new(&inst)
//!     .method(Method::Nested)
//!     .exact()
//!     .polished()
//!     .timeout(std::time::Duration::from_secs(30))
//!     .run()
//!     .unwrap();
//! assert!(outcome.stats().is_some());
//! ```
//!
//! Failures — invalid instances, infeasibility, LP breakdown, timeouts,
//! contained panics — all surface as the unified [`Error`].

use crate::error::Error;
use crate::general::{solve_general_seeded, GeneralResult, DEFAULT_SHUFFLE_SEED};
use atsched_baselines::greedy::ScanOrder;
use atsched_baselines::incremental::minimal_feasible_fast;
use atsched_core::instance::Instance;
use atsched_core::schedule::Schedule;
use atsched_core::solver::{LpStrategy, ShardMode, SolveResult, SolveStats, SolverOptions};
use atsched_engine::{isolated, solve_nested_sharded, with_budget};
use std::time::Duration;

/// Which solving path [`Solve`] takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Method {
    /// Dispatch on laminarity: nested 9/5 when windows nest, certified
    /// greedy otherwise (the default).
    #[default]
    Auto,
    /// The paper's 9/5-approximation; errors on non-laminar windows.
    Nested,
    /// The certified greedy toolbox for arbitrary windows.
    General,
    /// Single greedy deactivation scan (fastest, factor 3 by CKM'17).
    Greedy,
}

impl Method {
    /// Short stable label (`auto` / `nested` / `general` / `greedy`),
    /// the inverse of [`Method::from_str`](std::str::FromStr::from_str).
    pub fn label(&self) -> &'static str {
        match self {
            Method::Auto => "auto",
            Method::Nested => "nested",
            Method::General => "general",
            Method::Greedy => "greedy",
        }
    }

    /// The path this method takes on `inst`: [`Method::Auto`] resolves
    /// to nested when the windows are laminar and general otherwise;
    /// every other method is already concrete.
    pub fn resolve(self, inst: &Instance) -> Method {
        match self {
            Method::Auto if inst.check_laminar().is_ok() => Method::Nested,
            Method::Auto => Method::General,
            other => other,
        }
    }
}

impl std::str::FromStr for Method {
    type Err = String;

    /// Parse the labels used by the CLI and the serve wire protocol.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "auto" => Ok(Method::Auto),
            "nested" => Ok(Method::Nested),
            "general" => Ok(Method::General),
            "greedy" => Ok(Method::Greedy),
            other => Err(format!("unknown method '{other}' (expected auto|nested|general|greedy)")),
        }
    }
}

/// How a [`SolveOutcome`] was produced, with path-specific detail.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub enum SolvePath {
    /// The nested 9/5-approximation ran (laminar windows).
    Nested(Box<SolveResult>),
    /// The certified greedy toolbox ran.
    General(Box<GeneralResult>),
    /// A single greedy deactivation scan ran.
    Greedy {
        /// The verified schedule.
        schedule: Schedule,
        /// The scan order used.
        order: &'static str,
    },
}

/// Result of [`Solve::run`]: a verified schedule plus which path
/// produced it.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The path taken and its details.
    pub path: SolvePath,
}

impl SolveOutcome {
    /// The verified schedule, whichever path produced it.
    pub fn schedule(&self) -> &Schedule {
        match &self.path {
            SolvePath::Nested(r) => &r.schedule,
            SolvePath::General(r) => &r.schedule,
            SolvePath::Greedy { schedule, .. } => schedule,
        }
    }

    /// Active slots of the result.
    pub fn active_time(&self) -> usize {
        self.schedule().active_time()
    }

    /// Pipeline statistics (nested path only).
    pub fn stats(&self) -> Option<&SolveStats> {
        match &self.path {
            SolvePath::Nested(r) => Some(&r.stats),
            _ => None,
        }
    }

    /// Per-instance certified approximation ratio, when one is
    /// available: `opened / LP` for the nested path (≤ 9/5), `active /
    /// natural-LP` for the general path (≤ 3).
    pub fn certified_ratio(&self) -> Option<f64> {
        match &self.path {
            SolvePath::Nested(r) => Some(r.stats.opened_over_lp),
            SolvePath::General(r) => Some(r.certified_ratio),
            SolvePath::Greedy { .. } => None,
        }
    }

    /// Short stable label of the path taken.
    pub fn method_label(&self) -> &'static str {
        match &self.path {
            SolvePath::Nested(_) => "nested",
            SolvePath::General(_) => "general",
            SolvePath::Greedy { .. } => "greedy",
        }
    }
}

/// Builder for a single solve; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct Solve<'a> {
    inst: &'a Instance,
    method: Method,
    opts: SolverOptions,
    seed: u64,
    timeout: Option<Duration>,
}

impl<'a> Solve<'a> {
    /// Start configuring a solve of `inst` (defaults: [`Method::Auto`],
    /// certified LP, no polish, no timeout).
    pub fn new(inst: &'a Instance) -> Self {
        Solve {
            inst,
            method: Method::Auto,
            opts: SolverOptions::exact(),
            seed: DEFAULT_SHUFFLE_SEED,
            timeout: None,
        }
    }

    /// Choose the solving path.
    pub fn method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }

    /// Replace the full nested-solver configuration.
    pub fn options(mut self, opts: SolverOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Exact LP answers ([`LpStrategy::Certified`], the default;
    /// unconditional 9/5).
    pub fn exact(self) -> Self {
        self.lp(LpStrategy::Certified)
    }

    /// Fast `f64` LP and rounding ([`LpStrategy::Float`]).
    pub fn float(self) -> Self {
        self.lp(LpStrategy::Float)
    }

    /// How the LP is solved (default [`LpStrategy::Certified`] — tree
    /// DP, then f64-first certified simplex, then exact simplex;
    /// bit-identical to [`LpStrategy::Exact`]).
    pub fn lp(mut self, strategy: LpStrategy) -> Self {
        self.opts.lp = strategy;
        self
    }

    /// Enable the slot-closing post-optimization.
    pub fn polished(mut self) -> Self {
        self.opts.polish = true;
        self
    }

    /// Seed for the general path's shuffled scan candidate.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Root-decomposition policy for the nested path: multi-root
    /// instances split at the laminar forest roots and solve their
    /// trees concurrently ([`ShardMode::Auto`] by default).
    pub fn shard(mut self, mode: ShardMode) -> Self {
        self.opts.shard = mode;
        self
    }

    /// Wall-clock budget; [`Error::TimedOut`] on overrun.
    pub fn timeout(mut self, budget: Duration) -> Self {
        self.timeout = Some(budget);
        self
    }

    /// Execute the configured solve.
    ///
    /// Panics inside the solver are contained and reported as
    /// [`Error::Panicked`]; with a [`timeout`](Solve::timeout), overruns
    /// report [`Error::TimedOut`] (the abandoned computation finishes in
    /// the background and is discarded).
    pub fn run(self) -> Result<SolveOutcome, Error> {
        let Solve { inst, method, opts, seed, timeout } = self;
        match timeout {
            None => isolated(|| run_inner(inst, method, &opts, seed))?,
            Some(budget) => {
                let inst = inst.clone();
                with_budget(move || run_inner(&inst, method, &opts, seed), budget)?
            }
        }
    }
}

fn run_inner(
    inst: &Instance,
    method: Method,
    opts: &SolverOptions,
    seed: u64,
) -> Result<SolveOutcome, Error> {
    let path = match method.resolve(inst) {
        Method::Auto => unreachable!("resolve never returns auto"),
        Method::Nested => SolvePath::Nested(Box::new(solve_nested_sharded(inst, opts)?)),
        Method::General => {
            SolvePath::General(Box::new(solve_general_seeded(inst, seed).ok_or(Error::Infeasible)?))
        }
        Method::Greedy => {
            // The strongest directional variant (KK'18-style right-to-left).
            let r = minimal_feasible_fast(inst, ScanOrder::RightToLeft).ok_or(Error::Infeasible)?;
            SolvePath::Greedy { schedule: r.schedule, order: "right-to-left" }
        }
    };
    debug_assert!(path_schedule(&path).verify(inst).is_ok());
    Ok(SolveOutcome { path })
}

fn path_schedule(path: &SolvePath) -> &Schedule {
    match path {
        SolvePath::Nested(r) => &r.schedule,
        SolvePath::General(r) => &r.schedule,
        SolvePath::Greedy { schedule, .. } => schedule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atsched_core::instance::{InstanceError, Job};
    use atsched_core::solver::LpAnswer;

    fn inst(g: i64, jobs: Vec<(i64, i64, i64)>) -> Instance {
        Instance::new(g, jobs.into_iter().map(|(r, d, p)| Job::new(r, d, p)).collect()).unwrap()
    }

    #[test]
    fn auto_picks_nested_for_laminar_and_general_for_crossing() {
        let laminar = inst(2, vec![(0, 6, 2), (1, 4, 1)]);
        let out = Solve::new(&laminar).run().unwrap();
        assert_eq!(out.method_label(), "nested");
        out.schedule().verify(&laminar).unwrap();
        assert!(out.certified_ratio().unwrap() <= 1.8 + 1e-9);

        let crossing = inst(2, vec![(0, 5, 2), (3, 8, 2)]);
        let out = Solve::new(&crossing).run().unwrap();
        assert_eq!(out.method_label(), "general");
        out.schedule().verify(&crossing).unwrap();
        assert!(out.certified_ratio().unwrap() <= 3.0 + 1e-9);
    }

    #[test]
    fn builder_options_reach_the_solver() {
        let i = inst(2, vec![(0, 12, 3), (1, 6, 2), (2, 5, 1), (7, 11, 2)]);
        let plain = Solve::new(&i).method(Method::Nested).run().unwrap();
        let polished = Solve::new(&i).method(Method::Nested).polished().run().unwrap();
        assert!(polished.active_time() <= plain.active_time());
        assert!(polished.stats().unwrap().polish_closed >= 0);

        let float = Solve::new(&i).method(Method::Nested).float().run().unwrap();
        float.schedule().verify(&i).unwrap();
        assert_eq!(float.stats().unwrap().lp_answer, LpAnswer::Float);
    }

    #[test]
    fn errors_are_unified() {
        let infeasible = inst(1, vec![(0, 2, 1); 3]);
        assert!(matches!(Solve::new(&infeasible).run(), Err(Error::Infeasible)));
        assert!(matches!(
            Solve::new(&infeasible).method(Method::Greedy).run(),
            Err(Error::Infeasible)
        ));

        let crossing = inst(2, vec![(0, 5, 2), (3, 8, 2)]);
        assert!(matches!(
            Solve::new(&crossing).method(Method::Nested).run(),
            Err(Error::Instance(InstanceError::NotLaminar(_, _)))
        ));
    }

    #[test]
    fn greedy_path_produces_verified_schedule() {
        let i = inst(2, vec![(0, 8, 2), (1, 4, 1), (5, 7, 1)]);
        let out = Solve::new(&i).method(Method::Greedy).run().unwrap();
        assert_eq!(out.method_label(), "greedy");
        out.schedule().verify(&i).unwrap();
        assert!(out.stats().is_none());
        assert!(out.certified_ratio().is_none());
    }

    #[test]
    fn generous_timeout_still_solves() {
        let i = inst(2, vec![(0, 6, 2), (1, 4, 1)]);
        let out = Solve::new(&i).timeout(Duration::from_secs(60)).run().unwrap();
        out.schedule().verify(&i).unwrap();
    }

    #[test]
    fn shard_modes_agree_on_a_multi_root_instance() {
        // Three independent trees, far enough apart to be separate roots.
        let mut jobs = Vec::new();
        for k in 0..3i64 {
            let base = 10 * k;
            jobs.push((base, base + 8, 2));
            jobs.push((base + 1, base + 4, 1));
        }
        let i = inst(2, jobs);
        let off = Solve::new(&i).method(Method::Nested).shard(ShardMode::Off).run().unwrap();
        let forced = Solve::new(&i).method(Method::Nested).shard(ShardMode::Force).run().unwrap();
        assert_eq!(off.active_time(), forced.active_time());
        assert_eq!(
            off.stats().unwrap().opened_slots,
            forced.stats().unwrap().opened_slots,
            "decomposition must not change the objective"
        );
        forced.schedule().verify(&i).unwrap();
    }

    #[test]
    fn precision_modes_agree_through_the_facade() {
        let i = inst(2, vec![(0, 12, 3), (1, 6, 2), (2, 5, 1), (7, 11, 2)]);
        let certified = Solve::new(&i).method(Method::Nested).run().unwrap();
        let pure = Solve::new(&i).method(Method::Nested).lp(LpStrategy::Exact).run().unwrap();
        assert_eq!(certified.schedule().slots, pure.schedule().slots);
        assert_eq!(certified.schedule().assignment, pure.schedule().assignment);
        assert_eq!(
            certified.stats().unwrap().lp_objective_exact,
            pure.stats().unwrap().lp_objective_exact
        );
        assert_eq!(pure.stats().unwrap().lp_answer, LpAnswer::Exact);
    }

    #[test]
    fn lp_paths_agree_through_the_facade() {
        // Tree-friendly (rigid + ceiling-pinned) and tree-declining
        // (a demand the DP undershoots) instances both must match the
        // pure simplex bit-for-bit, and report which attempt answered.
        for (jobs, tree) in [
            (vec![(0, 2, 1), (0, 2, 1), (0, 2, 1)], true),
            (vec![(0, 8, 4), (4, 5, 1), (4, 5, 1)], false),
        ] {
            let i = inst(2, jobs);
            let certified = Solve::new(&i).method(Method::Nested).run().unwrap();
            let exact = Solve::new(&i).method(Method::Nested).lp(LpStrategy::Exact).run().unwrap();
            assert_eq!(certified.schedule().slots, exact.schedule().slots);
            assert_eq!(certified.schedule().assignment, exact.schedule().assignment);
            assert_eq!(
                certified.stats().unwrap().lp_objective_exact,
                exact.stats().unwrap().lp_objective_exact
            );
            assert_eq!(certified.stats().unwrap().lp_answer == LpAnswer::Tree, tree);
        }
    }

    #[test]
    fn method_labels_round_trip() {
        for m in [Method::Auto, Method::Nested, Method::General, Method::Greedy] {
            assert_eq!(m.label().parse::<Method>().unwrap(), m);
        }
        assert!("fancy".parse::<Method>().is_err());
    }

    #[test]
    fn seed_varies_only_the_shuffled_candidate() {
        let crossing = inst(2, vec![(0, 5, 2), (3, 8, 2), (4, 6, 1)]);
        for seed in [0u64, 7, 0x5EED] {
            let out = Solve::new(&crossing).seed(seed).run().unwrap();
            out.schedule().verify(&crossing).unwrap();
        }
    }
}
