//! # nested-active-time
//!
//! Facade crate re-exporting the whole workspace: a production-quality
//! reproduction of *"Brief Announcement: Nested Active-Time Scheduling"*
//! (Cao, Fineman, Li, Mestre, Russell, Umboh — SPAA 2022).
//!
//! See the [README](https://example.org/nested-active-time) and
//! `DESIGN.md` for the architecture, and `examples/` for runnable entry
//! points.
//!
//! ## Which entry point?
//!
//! The workspace exposes exactly two solving surfaces; everything else
//! is plumbing they share.
//!
//! - **[`Solve`] — the one-shot facade.** Build it around an instance,
//!   pick a method/LP strategy/deadline, call [`Solve::run`]. It
//!   auto-dispatches nested vs. general windows and needs no held
//!   state. Use this for a single instance in hand.
//! - **[`Engine`](engine::Engine) — the service-grade surface.** One
//!   engine holds the content-keyed solve cache, the worker pool, the
//!   metric registry, and the session table. Use
//!   [`solve_one`](engine::Engine::solve_one) /
//!   [`solve_batch`](engine::Engine::solve_batch) for streams of
//!   instances, and [`open_session`](engine::Engine::open_session) /
//!   [`Session::amend`](engine::Session::amend) when one instance
//!   evolves over time and re-solves should reuse the unchanged parts
//!   (see `DESIGN.md` §12 for the delta contract).
//!
//! Root decomposition is not a separate entry point: both surfaces
//! shard multi-root instances internally, steered by
//! [`SolverOptions::shard`](core::solver::SolverOptions). The older
//! free function `engine::solve_nested_sharded` remains for
//! compatibility but is hidden from the docs — prefer an `Engine`, or
//! `Solve` for one-shots.

#![forbid(unsafe_code)]

pub mod error;
pub mod general;
pub mod solve;

pub use atsched_baselines as baselines;
pub use atsched_core as core;
pub use atsched_engine as engine;
pub use atsched_flow as flow;
pub use atsched_gaps as gaps;
pub use atsched_lp as lp;
pub use atsched_multi as multi;
pub use atsched_npc as npc;
pub use atsched_num as num;
pub use atsched_obs as obs;
pub use atsched_workloads as workloads;

pub use error::Error;
pub use solve::{Method, Solve, SolveOutcome, SolvePath};

/// The one-stop import for typical users of this crate.
///
/// ```
/// use nested_active_time::prelude::*;
///
/// let inst = Instance::new(2, vec![Job::new(0, 4, 2), Job::new(1, 3, 1)]).unwrap();
/// let outcome = Solve::new(&inst).run().unwrap();
/// assert!(outcome.schedule().verify(&inst).is_ok());
/// ```
///
/// Incremental solving rides along: open a session, amend with typed
/// deltas, every re-solve is bit-identical to a cold solve of the
/// amended instance.
///
/// ```
/// use nested_active_time::prelude::*;
///
/// let inst = Instance::new(2, vec![Job::new(0, 4, 2), Job::new(1, 3, 1)]).unwrap();
/// let engine = Engine::new(EngineConfig::default());
/// let session = engine.open_session(inst, &SolverOptions::exact());
/// let outcome = session.amend(&JobDelta::new().add(Job::new(1, 3, 1))).unwrap();
/// assert!(matches!(outcome, Outcome::Solved(_)));
/// ```
pub mod prelude {
    pub use crate::error::Error;
    pub use crate::general::{
        solve_auto, solve_general, solve_general_seeded, AutoResult, GeneralResult,
    };
    pub use crate::solve::{Method, Solve, SolveOutcome, SolvePath};
    pub use atsched_core::delta::{apply as apply_delta, DeltaError, JobDelta};
    pub use atsched_core::instance::{Instance, Job};
    pub use atsched_core::schedule::Schedule;
    pub use atsched_core::solver::{
        solve_nested, LpAnswer, LpStrategy, ShardMode, SolveResult, SolveStats, SolverOptions,
        StageTimings,
    };
    pub use atsched_engine::{BatchReport, Engine, EngineConfig, Outcome, Session, SessionId};
}
