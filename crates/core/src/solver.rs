//! The end-to-end 9/5-approximation solver (Theorem 4.15).
//!
//! Pipeline: window forest → canonical forest → strengthened LP →
//! Lemma 3.1 push-down → Algorithm 1 rounding → schedule extraction by
//! the laminar greedy ([`crate::feasibility::Laminar`], no max-flow) →
//! independent verification.
//!
//! The LP stage is picked by one knob, [`LpStrategy`]. The default,
//! [`LpStrategy::Certified`], tries the combinatorial tree DP, then the
//! f64-first exactly-verified simplex, then the exact simplex, and is
//! bit-identical to the pure big-rational [`LpStrategy::Exact`]
//! reference, so every rounding comparison is decided exactly and the
//! 9/5 guarantee is unconditional. [`LpStrategy::Float`] runs the LP and
//! rounding in `f64` for sweeps; because tiny tableau noise could in
//! principle flip a comparison at a boundary, the final schedule is
//! *always* re-verified, and a repair pass (counted in
//! [`SolveStats::repair_opened`], normally zero) can open additional
//! slots if extraction ever falls short. An exact optimum never needs
//! repair, so a tree or hybrid answer that does is re-solved under
//! [`LpStrategy::Exact`] and counted as
//! `solver.certified_repair_fallbacks`.

use crate::canonical::canonicalize;
use crate::feasibility::{counts_to_slots, Laminar};
use crate::instance::Instance;
use crate::lp_model::{build_opts, NestedLpError};
use crate::opt23;
use crate::rounding::check_budget;
use crate::schedule::Schedule;
use crate::transform::push_down;
use crate::tree::Forest;
use crate::treelp::{TreeDp, TreeOutcome};
use atsched_lp::Scalar;
use atsched_num::Ratio;
use atsched_obs as obs;
use std::fmt;
use std::time::{Duration, Instant};

/// How the strengthened LP (Fig. 1a) is solved.
///
/// Rounding reads one optimum of that LP; the strategy picks the
/// ordered attempts that produce it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStrategy {
    /// Tree DP ([`crate::treelp`]), then the f64-first, exactly
    /// verified simplex ([`atsched_lp::Model::solve_hybrid`]), which
    /// itself falls back to the exact simplex (the default). Each
    /// attempt either returns an exact optimum or declines, and a
    /// simplex optimum is re-pinned like [`LpStrategy::Exact`]'s, so the
    /// result is bit-identical to it.
    Certified,
    /// Pure big-rational simplex, re-pinned root by root by the tree
    /// path's split rule (the reference; unconditional 9/5).
    Exact,
    /// `f64` simplex and `f64` rounding, for sweeps. The schedule is
    /// still verified; a repair pass covers float noise.
    Float,
}

impl LpStrategy {
    /// Stable lowercase label (`certified` / `exact` / `float`).
    pub fn label(&self) -> &'static str {
        match self {
            LpStrategy::Certified => "certified",
            LpStrategy::Exact => "exact",
            LpStrategy::Float => "float",
        }
    }
}

impl std::str::FromStr for LpStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "certified" => Ok(LpStrategy::Certified),
            "exact" => Ok(LpStrategy::Exact),
            "float" => Ok(LpStrategy::Float),
            other => Err(format!("unknown lp strategy '{other}' (certified|exact|float)")),
        }
    }
}

/// Which attempt of the [`LpStrategy`] produced the LP optimum.
///
/// Ordered by cost, so a merged multi-shard result reports the costliest
/// attempt any shard needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LpAnswer {
    /// The combinatorial tree DP.
    Tree,
    /// The f64-first simplex, certified exactly.
    Hybrid,
    /// The exact simplex: the [`LpStrategy::Exact`] strategy, or a
    /// hybrid attempt that fell back.
    Exact,
    /// The `f64` simplex ([`LpStrategy::Float`]).
    Float,
}

/// Whether a driver may split an instance at the forest roots and solve
/// the pieces independently (see `crate::decompose`).
///
/// Sharding is a *driver-level* policy: [`solve_nested`] itself always
/// solves the instance it is given monolithically, and the engine/facade
/// layers consult this option to decide whether to decompose first. The
/// decomposition is exact — the strengthened LP is block-diagonal across
/// trees and every later stage acts tree-locally — so the merged result
/// opens exactly the slots the monolithic solve would
/// (`RoundingChoice::Shuffled` is the one exception: its tie-break RNG
/// is global, so sharding is always declined for it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMode {
    /// Decompose when the instance has ≥ 2 roots and enough jobs for the
    /// fan-out to pay for itself (the default).
    Auto,
    /// Never decompose.
    Off,
    /// Decompose whenever the instance has ≥ 2 roots, regardless of size.
    Force,
}

impl ShardMode {
    /// Stable lowercase label (`auto` / `off` / `force`).
    pub fn label(&self) -> &'static str {
        match self {
            ShardMode::Auto => "auto",
            ShardMode::Off => "off",
            ShardMode::Force => "force",
        }
    }
}

impl std::str::FromStr for ShardMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(ShardMode::Auto),
            "off" => Ok(ShardMode::Off),
            "force" => Ok(ShardMode::Force),
            other => Err(format!("unknown shard mode '{other}' (auto|off|force)")),
        }
    }
}

/// Solver configuration.
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// How the LP is solved (default [`LpStrategy::Certified`]).
    pub lp: LpStrategy,
    /// Drop open-but-empty slots from the final schedule (default true).
    pub compact: bool,
    /// Include the ceiling constraints (7)/(8) in the LP (default true —
    /// the paper's algorithm; `false` degrades the LP to the natural tree
    /// relaxation and is provided for the E10 ablation).
    pub use_ceiling: bool,
    /// Post-optimization: greedily close open slots while feasibility is
    /// preserved (default false — the paper's algorithm does not do
    /// this; closing slots can only improve the solution, so the 9/5
    /// guarantee is unaffected when enabled).
    pub polish: bool,
    /// Tie-breaking for Algorithm 1's "choose arbitrarily".
    pub round_choice: crate::rounding::RoundingChoice,
    /// Paper extension: ceiling-constraint depth. 3 = the paper's (7)/(8)
    /// only; higher values also add `Σ_{Des(i)} x ≥ k` wherever the
    /// exhaustive oracle proves `OPT_i ≥ k ≤ ceiling_depth`. Only
    /// meaningful when `use_ceiling` is true.
    pub ceiling_depth: i64,
    /// Root-decomposition policy for drivers that support it (the batch
    /// engine, the `Solve` facade, the CLI and the serve layer).
    /// [`solve_nested`] ignores this field.
    pub shard: ShardMode,
}

impl SolverOptions {
    /// Exact reference configuration (the paper's algorithm verbatim).
    ///
    /// Ships with [`LpStrategy::Certified`]: the tree DP and the
    /// f64-first simplex answer most LPs, but every answer is exact (or
    /// the exact simplex is rerun), so results are bit-identical to
    /// [`LpStrategy::Exact`] while typically much faster.
    pub fn exact() -> Self {
        SolverOptions {
            lp: LpStrategy::Certified,
            compact: true,
            use_ceiling: true,
            polish: false,
            round_choice: crate::rounding::RoundingChoice::LargestFraction,
            ceiling_depth: 3,
            shard: ShardMode::Auto,
        }
    }

    /// Fast floating-point configuration.
    pub fn float() -> Self {
        SolverOptions { lp: LpStrategy::Float, ..SolverOptions::exact() }
    }

    /// Enable the slot-closing post-optimization.
    pub fn polished(mut self) -> Self {
        self.polish = true;
        self
    }

    /// Drop the ceiling constraints (ablation configuration).
    pub fn without_ceiling(mut self) -> Self {
        self.use_ceiling = false;
        self
    }

    /// Enable deeper ceiling constraints up to `OPT_i ≥ k` (extension).
    pub fn with_ceiling_depth(mut self, k: i64) -> Self {
        self.ceiling_depth = k.max(3);
        self
    }
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions::exact()
    }
}

/// Wall-clock time spent in each pipeline stage.
///
/// Filled by [`solve_nested`]; stages that did not run (e.g. on the
/// empty-instance fast path) stay at zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Window-forest construction + canonical transformation + OPT
    /// lower-bound oracle.
    pub canonicalize: Duration,
    /// Building and solving the strengthened LP: the attempt that
    /// answered ([`SolveStats::lp_answer`]) only.
    pub lp: Duration,
    /// A tree-DP attempt that declined before a simplex attempt
    /// answered (zero when the tree answered or was not tried).
    pub lp_declined: Duration,
    /// Lemma 3.1 push-down.
    pub transform: Duration,
    /// Algorithm 1 rounding.
    pub round: Duration,
    /// Slot materialization, greedy extraction, repair and polish.
    pub extract: Duration,
    /// Independent final verification.
    pub verify: Duration,
}

impl StageTimings {
    /// Sum over all stages.
    pub fn total(&self) -> Duration {
        self.canonicalize
            + self.lp
            + self.lp_declined
            + self.transform
            + self.round
            + self.extract
            + self.verify
    }
}

/// Everything the solver learned along the way.
#[derive(Debug, Clone)]
pub struct SolveStats {
    /// Nodes in the raw window forest.
    pub nodes_original: usize,
    /// Nodes after the canonical transformation.
    pub nodes_canonical: usize,
    /// LP optimum (`Σ x`), as `f64` for reporting.
    pub lp_objective: f64,
    /// LP optimum rendered exactly (exact backend only).
    pub lp_objective_exact: Option<String>,
    /// Push-down moves performed by the Lemma 3.1 transformation.
    pub transform_moves: usize,
    /// `I`-nodes rounded up by Algorithm 1.
    pub rounded_up: usize,
    /// Slots opened by the integral solution (`Σ x̃`).
    pub opened_slots: i64,
    /// Active slots in the final schedule (≤ `opened_slots`).
    pub active_slots: usize,
    /// Slots a repair pass had to add beyond `x̃` (0 on the exact path;
    /// a certified answer that needed any is re-solved exactly).
    pub repair_opened: i64,
    /// Slots removed by the polish pass (0 unless
    /// [`SolverOptions::polish`]).
    pub polish_closed: i64,
    /// `opened / lp_objective` — certified ≤ 9/5 by Lemma 3.3 (when the
    /// ceiling constraints are enabled).
    pub opened_over_lp: f64,
    /// Which LP attempt produced the optimum rounding read.
    pub lp_answer: LpAnswer,
    /// Wall-clock time per pipeline stage.
    pub timings: StageTimings,
}

/// Solver output: a verified schedule plus statistics.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// The verified schedule.
    pub schedule: Schedule,
    /// Pipeline statistics.
    pub stats: SolveStats,
    /// Integral per-node open counts on the canonical forest.
    pub z: Vec<i64>,
    /// The canonical forest the counts refer to.
    pub forest: Forest,
}

/// Solver errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// Instance validation failed (e.g. windows are not laminar).
    Instance(crate::instance::InstanceError),
    /// The instance (equivalently the LP) is infeasible.
    Infeasible,
    /// The LP solver gave up (possible only under [`LpStrategy::Float`]).
    Lp(atsched_lp::LpError),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Instance(e) => write!(f, "{e}"),
            SolveError::Infeasible => write!(f, "instance is infeasible"),
            SolveError::Lp(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Solve a nested (laminar) instance with the 9/5-approximation.
///
/// Returns an error if windows are not laminar or the instance is
/// infeasible. The returned schedule always passes
/// [`Schedule::verify`].
pub fn solve_nested(inst: &Instance, opts: &SolverOptions) -> Result<SolveResult, SolveError> {
    if inst.jobs.is_empty() {
        return Ok(SolveResult {
            schedule: Schedule::new(Vec::new(), Vec::new()),
            stats: SolveStats {
                nodes_original: 0,
                nodes_canonical: 0,
                lp_objective: 0.0,
                lp_objective_exact: Some("0".into()),
                transform_moves: 0,
                rounded_up: 0,
                opened_slots: 0,
                active_slots: 0,
                repair_opened: 0,
                polish_closed: 0,
                opened_over_lp: 1.0,
                // The strategy's first attempt answers an empty LP.
                lp_answer: match opts.lp {
                    LpStrategy::Certified => LpAnswer::Tree,
                    LpStrategy::Exact => LpAnswer::Exact,
                    LpStrategy::Float => LpAnswer::Float,
                },
                timings: StageTimings::default(),
            },
            z: Vec::new(),
            forest: Forest { nodes: Vec::new(), roots: Vec::new(), job_node: Vec::new() },
        });
    }
    // Outer span: covers the whole pipeline. Stage spans nest inside it.
    let _solve_span = obs::Span::enter("solve");
    let stage = Instant::now();
    let span = obs::Span::enter("canonicalize");
    let forest = Forest::build(inst).map_err(SolveError::Instance)?;
    let nodes_original = forest.num_nodes();
    let canon = canonicalize(&forest, inst);
    drop(forest); // inside the stage clock
    let bounds = opt23::compute(&canon, inst);
    let mut timings = StageTimings { canonicalize: stage.elapsed(), ..StageTimings::default() };
    drop(span);

    let lp = solve_lp(inst, &canon, &bounds, opts, opts.lp, &mut timings)?;
    let mut result = finish_pipeline(inst, canon, nodes_original, opts, lp, timings);
    if falls_back_to_exact(&result.stats) {
        obs::counter_add("solver.certified_repair_fallbacks", 1);
        timings = StageTimings { canonicalize: timings.canonicalize, ..StageTimings::default() };
        let lp = solve_lp(inst, &result.forest, &bounds, opts, LpStrategy::Exact, &mut timings)?;
        result = finish_pipeline(inst, result.forest, nodes_original, opts, lp, timings);
    }
    Ok(result)
}

/// Whether a certified answer must be re-solved under
/// [`LpStrategy::Exact`]: it needed repair slots, which an exact LP
/// optimum never does (Theorem 4.5; Lemma 4.1 makes extraction of the
/// rounded counts an exact feasibility test). Float answers
/// repair by design, and exact ones have nothing to fall back to.
fn falls_back_to_exact(stats: &SolveStats) -> bool {
    stats.repair_opened > 0 && matches!(stats.lp_answer, LpAnswer::Tree | LpAnswer::Hybrid)
}

/// An LP optimum in the arithmetic it was solved in, tagged with the
/// attempt that produced it.
pub(crate) enum LpOptimum {
    Rational(crate::lp_model::FractionalSolution<Ratio>, LpAnswer),
    Float(crate::lp_model::FractionalSolution<f64>),
}

/// The LP stage: run `strategy`'s attempts in order until one answers.
///
/// Both rational strategies answer [`TreeDp`]'s pin wherever it
/// certifies: the tree attempt pins each root at its demand, and a
/// simplex optimum, hybrid or exact, is re-pinned root by root at that
/// root's optimal total. Each re-pinned root bumps its
/// [`Repin::counter`](crate::treelp::Repin::counter).
///
/// The answering attempt runs under an `lp` span and is timed into
/// [`StageTimings::lp`]. A declined tree attempt runs under its own
/// `lp.tree_declined` span, is timed into [`StageTimings::lp_declined`]
/// and bumps its [`TreeDecline::counter`](crate::treelp::TreeDecline::counter).
pub(crate) fn solve_lp(
    inst: &Instance,
    canon: &Forest,
    bounds: &opt23::OptBounds,
    opts: &SolverOptions,
    strategy: LpStrategy,
    timings: &mut StageTimings,
) -> Result<LpOptimum, SolveError> {
    let dp = || TreeDp::new(canon, inst, bounds, opts.use_ceiling, opts.ceiling_depth);
    let mut declined = None;
    if strategy == LpStrategy::Certified {
        let stage = Instant::now();
        let mut span = obs::Span::enter("lp");
        let tree = dp();
        match tree.solve(canon, inst) {
            Ok(TreeOutcome::Solved(sol)) => {
                drop(tree); // inside the stage clock
                timings.lp = stage.elapsed();
                obs::counter_add("lp.tree_solved", 1);
                return Ok(LpOptimum::Rational(sol, LpAnswer::Tree));
            }
            Ok(TreeOutcome::Infeasible) => return Err(SolveError::Infeasible),
            Err(decline) => {
                obs::counter_add(decline.counter(), 1);
                span.rename("lp.tree_declined");
                timings.lp_declined = stage.elapsed();
                declined = Some(tree);
            }
        }
    }

    let stage = Instant::now();
    let _span = obs::Span::enter("lp");
    let lp_error = |e| match e {
        NestedLpError::Infeasible => SolveError::Infeasible,
        NestedLpError::Solver(e) => SolveError::Lp(e),
    };
    let repinned = |mut sol| {
        for outcome in declined.unwrap_or_else(dp).repin(canon, inst, &mut sol) {
            obs::counter_add(outcome.counter(), 1);
        }
        sol
    };
    let optimum = match strategy {
        LpStrategy::Certified => {
            let (sol, outcome) =
                build_lp::<Ratio>(canon, inst, bounds, opts).solve_hybrid().map_err(lp_error)?;
            let answer = if outcome.fell_back() { LpAnswer::Exact } else { LpAnswer::Hybrid };
            LpOptimum::Rational(repinned(sol), answer)
        }
        LpStrategy::Exact => LpOptimum::Rational(
            repinned(build_lp::<Ratio>(canon, inst, bounds, opts).solve().map_err(lp_error)?),
            LpAnswer::Exact,
        ),
        LpStrategy::Float => {
            LpOptimum::Float(build_lp::<f64>(canon, inst, bounds, opts).solve().map_err(lp_error)?)
        }
    };
    timings.lp = stage.elapsed();
    Ok(optimum)
}

/// The strengthened LP with the configured ceiling constraints.
fn build_lp<S: Scalar>(
    canon: &Forest,
    inst: &Instance,
    bounds: &opt23::OptBounds,
    opts: &SolverOptions,
) -> crate::lp_model::NestedLp<S> {
    let mut lp = build_opts::<S>(canon, inst, bounds, opts.use_ceiling);
    if opts.use_ceiling && opts.ceiling_depth > 3 {
        let deep = crate::opt23::compute_deep(canon, inst, opts.ceiling_depth);
        crate::lp_model::add_deep_ceilings(&mut lp, canon, &deep);
    }
    lp
}

/// Round and extract in the arithmetic the LP optimum was solved in.
fn finish_pipeline(
    inst: &Instance,
    canon: Forest,
    nodes_original: usize,
    opts: &SolverOptions,
    lp: LpOptimum,
    timings: StageTimings,
) -> SolveResult {
    match lp {
        LpOptimum::Rational(sol, answer) => {
            round_and_extract(inst, canon, nodes_original, opts, sol, answer, timings)
        }
        LpOptimum::Float(sol) => {
            round_and_extract(inst, canon, nodes_original, opts, sol, LpAnswer::Float, timings)
        }
    }
}

/// Everything after the LP: Lemma 3.1 transform, Algorithm 1 rounding,
/// schedule extraction and verification.
fn round_and_extract<S: Scalar>(
    inst: &Instance,
    canon: Forest,
    nodes_original: usize,
    opts: &SolverOptions,
    sol: crate::lp_model::FractionalSolution<S>,
    lp_answer: LpAnswer,
    mut timings: StageTimings,
) -> SolveResult {
    let stage = Instant::now();
    let span = obs::Span::enter("transform");
    let lp_objective = sol.objective.to_f64();
    let lp_exact = exact_objective_string(&sol.objective);
    let transformed = push_down(&canon, sol);
    debug_assert!(crate::transform::check_claim1(
        &canon,
        &transformed.solution,
        &transformed.top_positive
    )
    .is_ok());
    timings.transform = stage.elapsed();
    drop(span);

    let stage = Instant::now();
    let span = obs::Span::enter("round");
    let mut rounded = crate::rounding::round_with(
        &canon,
        &transformed.solution,
        &transformed.top_positive,
        opts.round_choice,
    );
    debug_assert!(check_budget(&canon, &transformed.solution, &rounded).is_ok());
    let (transform_moves, rounded_up) = (transformed.moves, rounded.rounded_up.len());
    let mut z = std::mem::take(&mut rounded.z);
    drop((transformed, rounded)); // inside the stage clock
    timings.round = stage.elapsed();
    drop(span);

    let stage = Instant::now();
    let span = obs::Span::enter("extract");
    // Materialize and extract; repair only if extraction falls short
    // (never on the exact path — Theorem 4.5).
    let laminar = Laminar::of(inst);
    let mut repair_opened = 0i64;
    let (slots, assignment) = loop {
        let slots = counts_to_slots(&canon, &z);
        if let Some(a) = laminar.assign(inst.g, &slots) {
            break (slots, a);
        }
        // Open one more slot at the node with spare own slots that most
        // increases schedulable volume (greedy repair).
        let mut best: Option<(usize, i64)> = None;
        for i in 0..canon.num_nodes() {
            if z[i] >= canon.nodes[i].len() {
                continue;
            }
            z[i] += 1;
            let vol =
                crate::feasibility::max_schedulable_volume(inst, &counts_to_slots(&canon, &z));
            z[i] -= 1;
            if best.is_none_or(|(_, bv)| vol > bv) {
                best = Some((i, vol));
            }
        }
        let (node, _) = best.expect("repair impossible: instance infeasible despite feasible LP");
        z[node] += 1;
        repair_opened += 1;
    };

    let mut schedule = Schedule::new(slots, assignment);
    let opened_before_polish: i64 = z.iter().sum();

    // Optional post-optimization: close open slots while the rest stays
    // feasible (can only improve — and re-extraction keeps verifying).
    let mut polish_closed = 0i64;
    if opts.polish {
        let mut open = schedule.slots.clone();
        let mut idx = 0;
        while idx < open.len() {
            let mut trial = open.clone();
            trial.remove(idx);
            if laminar.feasible(inst.g, &trial) {
                open = trial;
                polish_closed += 1;
            } else {
                idx += 1;
            }
        }
        if polish_closed > 0 {
            let assignment =
                laminar.assign(inst.g, &open).expect("polish only keeps feasible sets");
            schedule = Schedule::new(open, assignment);
        }
    }
    drop(laminar); // inside the stage clock

    if opts.compact {
        schedule.compact();
    }
    timings.extract = stage.elapsed();
    drop(span);

    let stage = Instant::now();
    let span = obs::Span::enter("verify");
    schedule.verify(inst).expect("extracted schedule must verify; this is a bug");
    timings.verify = stage.elapsed();
    drop(span);

    let opened_slots: i64 = opened_before_polish - polish_closed;
    let stats = SolveStats {
        nodes_original,
        nodes_canonical: canon.num_nodes(),
        lp_objective,
        lp_objective_exact: lp_exact,
        transform_moves,
        rounded_up,
        opened_slots,
        active_slots: schedule.active_time(),
        repair_opened,
        polish_closed,
        opened_over_lp: if lp_objective > 0.0 { opened_slots as f64 / lp_objective } else { 1.0 },
        lp_answer,
        timings,
    };
    SolveResult { schedule, stats, z, forest: canon }
}

fn exact_objective_string<S: Scalar>(obj: &S) -> Option<String> {
    // Render exactly only when the scalar is the exact type.
    let s = format!("{obj}");
    if std::any::TypeId::of::<S>() == std::any::TypeId::of::<Ratio>() {
        Some(s)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test-case table: (g, [(release, deadline, processing)]).
    type Cases = Vec<(i64, Vec<(i64, i64, i64)>)>;
    use crate::instance::Job;

    fn inst(g: i64, jobs: Vec<(i64, i64, i64)>) -> Instance {
        Instance::new(g, jobs.into_iter().map(|(r, d, p)| Job::new(r, d, p)).collect()).unwrap()
    }

    fn solve_ok(g: i64, jobs: Vec<(i64, i64, i64)>) -> SolveResult {
        let i = inst(g, jobs);
        let r = solve_nested(&i, &SolverOptions::exact()).unwrap();
        r.schedule.verify(&i).unwrap();
        assert_eq!(r.stats.repair_opened, 0, "exact path must never repair");
        assert!(
            r.stats.opened_over_lp <= 1.8 + 1e-9,
            "approximation bound violated: {}",
            r.stats.opened_over_lp
        );
        r
    }

    #[test]
    fn empty_instance() {
        let i = inst(3, vec![]);
        let r = solve_nested(&i, &SolverOptions::exact()).unwrap();
        assert_eq!(r.stats.opened_slots, 0);
    }

    #[test]
    fn single_job() {
        let r = solve_ok(1, vec![(0, 5, 2)]);
        assert_eq!(r.stats.active_slots, 2);
    }

    #[test]
    fn gap2_family_solved_optimally() {
        // g+1 unit jobs, width-2 window: OPT = 2 and our LP = 2.
        for g in [2i64, 3, 4] {
            let r = solve_ok(g, vec![(0, 2, 1); (g + 1) as usize]);
            assert_eq!(r.stats.active_slots, 2, "g = {g}");
        }
    }

    #[test]
    fn nested_three_levels() {
        let r = solve_ok(2, vec![(0, 10, 2), (1, 6, 2), (2, 5, 1), (7, 9, 1)]);
        assert!(r.stats.active_slots >= 3);
        assert!(r.stats.nodes_canonical >= r.stats.nodes_original);
    }

    #[test]
    fn forest_instances_work() {
        let r = solve_ok(2, vec![(0, 3, 2), (5, 9, 1), (5, 9, 1), (12, 14, 2)]);
        assert!(r.stats.active_slots >= 5); // 2 + 1 + 2
    }

    #[test]
    fn infeasible_is_reported() {
        let i = inst(1, vec![(0, 2, 1); 3]);
        assert_eq!(solve_nested(&i, &SolverOptions::exact()).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn non_laminar_is_rejected() {
        let i = inst(1, vec![(0, 5, 1), (3, 8, 1)]);
        assert!(matches!(
            solve_nested(&i, &SolverOptions::exact()).unwrap_err(),
            SolveError::Instance(crate::instance::InstanceError::NotLaminar(_, _))
        ));
    }

    #[test]
    fn float_backend_agrees_on_small_instances() {
        let cases: Cases = vec![
            (2, vec![(0, 8, 2), (1, 4, 1), (5, 7, 1)]),
            (3, vec![(0, 2, 1); 4]),
            (2, vec![(0, 10, 2), (1, 6, 2), (2, 5, 1), (7, 9, 1)]),
        ];
        for (g, jobs) in cases {
            let i = inst(g, jobs);
            let e = solve_nested(&i, &SolverOptions::exact()).unwrap();
            let f = solve_nested(&i, &SolverOptions::float()).unwrap();
            f.schedule.verify(&i).unwrap();
            assert!((e.stats.lp_objective - f.stats.lp_objective).abs() < 1e-6);
        }
    }

    #[test]
    fn polish_never_hurts_and_verifies() {
        let cases: Cases = vec![
            (2, vec![(0, 12, 3), (1, 6, 2), (2, 5, 1), (7, 11, 2)]),
            (3, vec![(0, 2, 1); 4]),
            (2, vec![(0, 10, 2), (1, 6, 2), (2, 5, 1), (7, 9, 1)]),
        ];
        for (g, jobs) in cases {
            let i = inst(g, jobs);
            let plain = solve_nested(&i, &SolverOptions::exact()).unwrap();
            let polished = solve_nested(&i, &SolverOptions::exact().polished()).unwrap();
            polished.schedule.verify(&i).unwrap();
            assert!(polished.stats.active_slots <= plain.stats.active_slots);
            assert!(polished.stats.opened_slots <= plain.stats.opened_slots);
            assert_eq!(
                polished.stats.opened_slots,
                plain.stats.opened_slots - polished.stats.polish_closed
            );
        }
    }

    #[test]
    fn without_ceiling_still_feasible_but_weaker_lp() {
        // On the gap2 family the natural tree LP sits at 1 + 1/g < 2.
        let i = inst(4, vec![(0, 2, 1); 5]);
        let ablated = solve_nested(&i, &SolverOptions::exact().without_ceiling()).unwrap();
        ablated.schedule.verify(&i).unwrap();
        assert!(ablated.stats.lp_objective < 2.0 - 1e-9);
        let full = solve_nested(&i, &SolverOptions::exact()).unwrap();
        assert!((full.stats.lp_objective - 2.0).abs() < 1e-9);
    }

    #[test]
    fn rounding_choices_all_feasible() {
        use crate::rounding::RoundingChoice;
        let i = inst(2, vec![(0, 12, 3), (1, 6, 2), (2, 5, 1), (7, 11, 2)]);
        for choice in [
            RoundingChoice::LargestFraction,
            RoundingChoice::FirstId,
            RoundingChoice::Shuffled(3),
            RoundingChoice::Shuffled(99),
        ] {
            let opts = SolverOptions { round_choice: choice, ..SolverOptions::exact() };
            let r = solve_nested(&i, &opts).unwrap();
            r.schedule.verify(&i).unwrap();
            assert_eq!(r.stats.repair_opened, 0, "{choice:?}");
            assert!(r.stats.opened_over_lp <= 1.8 + 1e-9, "{choice:?}");
        }
    }

    #[test]
    fn stats_are_consistent() {
        let r = solve_ok(2, vec![(0, 12, 3), (1, 6, 2), (2, 5, 1), (7, 11, 2)]);
        assert_eq!(r.stats.opened_slots, r.z.iter().sum::<i64>());
        assert!(r.stats.active_slots as i64 <= r.stats.opened_slots);
        assert!(r.stats.lp_objective > 0.0);
        assert!(r.stats.lp_objective_exact.is_some());
    }

    #[test]
    fn only_repaired_certified_answers_fall_back_to_exact() {
        let stats = |lp_answer, repair_opened| SolveStats {
            lp_answer,
            repair_opened,
            ..solve_nested(&inst(3, vec![]), &SolverOptions::exact()).unwrap().stats
        };
        for answer in [LpAnswer::Tree, LpAnswer::Hybrid, LpAnswer::Exact, LpAnswer::Float] {
            assert!(!falls_back_to_exact(&stats(answer, 0)), "{answer:?} without repair");
        }
        assert!(falls_back_to_exact(&stats(LpAnswer::Tree, 1)));
        assert!(falls_back_to_exact(&stats(LpAnswer::Hybrid, 2)));
        assert!(!falls_back_to_exact(&stats(LpAnswer::Exact, 1)));
        assert!(!falls_back_to_exact(&stats(LpAnswer::Float, 1)));
    }

    #[test]
    fn lp_strategy_labels_round_trip() {
        for lp in [LpStrategy::Certified, LpStrategy::Exact, LpStrategy::Float] {
            assert_eq!(lp.label().parse::<LpStrategy>().unwrap(), lp);
        }
        assert!("hybrid".parse::<LpStrategy>().is_err());
    }

    #[test]
    fn certified_is_bit_identical_to_exact() {
        let cases: Cases = vec![
            (2, vec![(0, 8, 2), (1, 4, 1), (5, 7, 1)]),
            (3, vec![(0, 2, 1); 4]),
            (2, vec![(0, 10, 2), (1, 6, 2), (2, 5, 1), (7, 9, 1)]),
            (2, vec![(0, 12, 3), (1, 6, 2), (2, 5, 1), (7, 11, 2)]),
            (2, vec![(0, 3, 2), (5, 9, 1), (5, 9, 1), (12, 14, 2)]),
            (1, vec![(0, 5, 2)]),
        ];
        let pure = SolverOptions { lp: LpStrategy::Exact, ..SolverOptions::exact() };
        for (g, jobs) in cases {
            let i = inst(g, jobs.clone());
            let e = solve_nested(&i, &pure).unwrap();
            let c = solve_nested(&i, &SolverOptions::exact()).unwrap();
            assert_eq!(c.z, e.z, "{jobs:?}");
            assert_eq!(c.schedule.slots, e.schedule.slots, "{jobs:?}");
            assert_eq!(c.schedule.assignment, e.schedule.assignment, "{jobs:?}");
            assert_eq!(c.stats.lp_objective_exact, e.stats.lp_objective_exact, "{jobs:?}");
            assert_eq!(c.stats.opened_slots, e.stats.opened_slots, "{jobs:?}");
            assert_eq!(e.stats.lp_answer, LpAnswer::Exact, "{jobs:?}");
        }
    }

    #[test]
    fn every_strategy_reports_infeasible() {
        let i = inst(1, vec![(0, 2, 1); 3]);
        for lp in [LpStrategy::Certified, LpStrategy::Exact, LpStrategy::Float] {
            let opts = SolverOptions { lp, ..SolverOptions::exact() };
            assert_eq!(solve_nested(&i, &opts).unwrap_err(), SolveError::Infeasible, "{lp:?}");
        }
    }

    /// Solve under a fresh collector; returns the result and the
    /// number of samples recorded in the `span.<name>.ms` histograms.
    fn solve_traced(i: &Instance, spans: &[&str]) -> (SolveResult, Vec<u64>) {
        let registry = std::sync::Arc::new(obs::Registry::new());
        let collector = obs::Collector::new(std::sync::Arc::clone(&registry));
        let r = obs::with_collector(collector, || solve_nested(i, &SolverOptions::exact()));
        let snap = registry.snapshot();
        let counts = spans
            .iter()
            .map(|name| snap.histogram(&format!("span.{name}.ms")).map_or(0, |h| h.count))
            .collect();
        (r.unwrap(), counts)
    }

    #[test]
    fn declined_tree_attempt_is_timed_and_traced_apart() {
        // Rigid unit jobs pin the LP: the tree DP answers.
        let (tree, spans) = solve_traced(&inst(2, vec![(0, 2, 1); 3]), &["lp", "lp.tree_declined"]);
        assert_eq!(tree.stats.lp_answer, LpAnswer::Tree);
        assert_eq!(tree.stats.timings.lp_declined, Duration::ZERO);
        assert!(tree.stats.timings.lp > Duration::ZERO);
        assert_eq!(spans, vec![1, 0]);

        // A demand the DP undershoots (4 against an optimum of 5, the
        // p = 4 job cannot share the rigid pair's slot): the pin fails
        // certification, the tree declines and the hybrid simplex answers,
        // each attempt under its own span.
        let undershot = inst(2, vec![(0, 8, 4), (4, 5, 1), (4, 5, 1)]);
        let (declined, spans) = solve_traced(&undershot, &["lp", "lp.tree_declined"]);
        assert_ne!(declined.stats.lp_answer, LpAnswer::Tree);
        let t = declined.stats.timings;
        assert!(t.lp_declined > Duration::ZERO);
        assert!(t.lp > Duration::ZERO);
        assert_eq!(
            t.total(),
            t.canonicalize + t.lp + t.lp_declined + t.transform + t.round + t.extract + t.verify
        );
        assert_eq!(spans, vec![1, 1]);
    }

    #[test]
    fn hybrid_stages_are_traced_under_the_lp_span() {
        // The gadget the tree declines (demand 4 against an optimum of
        // 5): the hybrid answers, one sample in each stage's span, and
        // nothing falls back.
        let gadget = inst(2, vec![(0, 8, 4), (4, 5, 1), (4, 5, 1)]);
        let stages = [
            "lp.hybrid.presolve",
            "lp.hybrid.walk",
            "lp.hybrid.rederive",
            "lp.hybrid.certify",
            "lp.hybrid.fallback",
        ];
        let (r, spans) = solve_traced(&gadget, &stages);
        assert_eq!(r.stats.lp_answer, LpAnswer::Hybrid);
        assert_eq!(spans, vec![1, 1, 1, 1, 0]);
    }

    #[test]
    fn lp_answer_names_the_strategy_attempt() {
        let i = inst(2, vec![(0, 12, 3), (1, 6, 2), (2, 5, 1), (7, 11, 2)]);
        let answer =
            |lp| solve_nested(&i, &SolverOptions { lp, ..SolverOptions::exact() }).unwrap();
        assert_eq!(answer(LpStrategy::Exact).stats.lp_answer, LpAnswer::Exact);
        let float = answer(LpStrategy::Float);
        assert_eq!(float.stats.lp_answer, LpAnswer::Float);
        assert!(float.stats.lp_objective_exact.is_none());
        assert_eq!(answer(LpStrategy::Exact).stats.timings.lp_declined, Duration::ZERO);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        /// Certified ≡ pure exact on random laminar instances: same
        /// z-vector, same slots, same assignment, same exact LP
        /// objective — bit for bit. (Generator shape borrowed from the
        /// opt23 oracle test.)
        #[test]
        fn prop_certified_matches_exact(
            g in 1i64..4,
            raw in proptest::collection::vec((0i64..6, 1i64..5, 1i64..3), 1..6),
        ) {
            let mut jobs = vec![(0i64, 12i64, 1i64)];
            for (start, len, p) in raw {
                let d = (start + len.max(p)).min(12);
                let r = start.min(d - p.min(len.max(p)));
                let r2 = r - (r % 3);
                let d2 = (r2 + 3).min(12).max(r2 + p);
                if d2 <= 12 {
                    jobs.push((r2, d2, p.min(d2 - r2)));
                }
            }
            let i = inst(g, jobs);
            proptest::prop_assume!(i.check_laminar().is_ok());
            let pure = SolverOptions { lp: LpStrategy::Exact, ..SolverOptions::exact() };
            match (solve_nested(&i, &SolverOptions::exact()), solve_nested(&i, &pure)) {
                (Ok(h), Ok(e)) => {
                    proptest::prop_assert_eq!(h.z, e.z);
                    proptest::prop_assert_eq!(h.schedule.slots, e.schedule.slots);
                    proptest::prop_assert_eq!(h.schedule.assignment, e.schedule.assignment);
                    proptest::prop_assert_eq!(
                        h.stats.lp_objective_exact, e.stats.lp_objective_exact);
                }
                (Err(a), Err(b)) => proptest::prop_assert_eq!(a, b),
                (h, e) => proptest::prop_assert!(false, "diverged: {:?} vs {:?}", h, e),
            }
        }
    }

    #[test]
    fn stage_timings_are_recorded() {
        let r = solve_ok(2, vec![(0, 12, 3), (1, 6, 2), (2, 5, 1), (7, 11, 2)]);
        let t = r.stats.timings;
        // Stages actually executed must have been measured; LP work
        // dominates and can never be zero on a non-empty instance.
        assert!(t.lp > Duration::ZERO);
        assert!(t.total() >= t.lp);

        // The empty-instance fast path reports all-zero timings.
        let empty = solve_nested(&inst(3, vec![]), &SolverOptions::exact()).unwrap();
        assert_eq!(empty.stats.timings, StageTimings::default());
    }
}
