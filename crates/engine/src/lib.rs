//! # atsched-engine
//!
//! Parallel batch-solve engine for nested active-time instances.
//!
//! The solver in [`atsched_core`] handles one instance at a time;
//! everything around it — experiment sweeps, corpus benchmarks, the
//! `atsched batch` CLI — wants to push *streams* of instances through it.
//! This crate provides that layer:
//!
//! - **Dispatcher** ([`Engine::solve_batch`]): [`par_map_workers`] over
//!   the corpus — a bounded-queue fan-out to a fixed worker pool over
//!   crossbeam channels. Workers pull items as they free up (work
//!   stealing via the shared MPMC queue), and results are collected back
//!   in *input order*, so batch output is positionally identical to a
//!   sequential `map`. The batch and its instances' root fan-outs share
//!   the workers, so a batch never runs more solver threads than
//!   [`EngineConfig::workers`].
//! - **Solve cache** ([`cache`]): memoizes deterministic solve results,
//!   keyed by the instance's full content (`g` + the exact job sequence)
//!   plus a fingerprint of the solver options. Content keying — not
//!   hash-only keying — makes false hits impossible. Hit/miss counters
//!   are kept per engine and reported per batch.
//! - **Isolation** ([`Outcome`]): each solve runs under
//!   `catch_unwind`, and optionally under a wall-clock budget
//!   ([`EngineConfig::timeout`], session solves included); a panicking
//!   or overrunning instance yields [`Outcome::Failed`] /
//!   [`Outcome::TimedOut`] without disturbing its neighbors.
//! - **Observability** ([`report`]): every batch produces a
//!   [`BatchReport`] with outcome counts, cache statistics, and p50 / p95
//!   / max latencies — end-to-end and per pipeline stage (canonicalize,
//!   LP, transform, round, extract, verify) via
//!   [`atsched_core::StageTimings`] — serializable to JSON.
//! - **Primitive** ([`par_map`]): the order-preserving parallel map the
//!   rest of the workspace builds sweeps on.
//! - **Sharding** ([`shard`]): multi-root instances are split at the
//!   laminar forest roots and their trees solved concurrently *within*
//!   one solve (policy via `SolverOptions::shard`), with shard-level
//!   cache keys so repeated subtree shapes hit the solve cache.
//!   [`Engine::solve_one`], [`Engine::open_session`] and
//!   [`Session::amend`] share this one root-solve path, budget and
//!   cache included; results are shared `Arc` parts, so a cache hit or
//!   a session splice is a pointer copy.
//!
//! ## Example
//!
//! ```
//! use atsched_core::instance::{Instance, Job};
//! use atsched_core::SolverOptions;
//! use atsched_engine::{Engine, EngineConfig};
//!
//! let inst = Instance::new(2, vec![Job::new(0, 4, 2), Job::new(1, 3, 1)]).unwrap();
//! // One worker: parallel workers may look a repeat up before its twin's
//! // solve lands, so hit counts are only deterministic sequentially.
//! let engine = Engine::new(EngineConfig::default().workers(1));
//! let batch = engine.solve_batch(&[inst.clone(), inst], &SolverOptions::exact());
//! assert_eq!(batch.report.solved, 2);
//! assert_eq!(batch.report.cache.hits, 1); // second instance is a repeat
//! println!("{}", batch.report.to_json_pretty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod isolate;
pub mod par;
pub mod report;
pub mod session;
pub mod shard;

pub use batch::{BatchResult, Engine, EngineConfig, Outcome, SolvedItem};
pub use cache::CacheStats;
pub use isolate::{isolated, with_budget, Interrupt};
pub use par::{par_map, par_map_workers};
pub use report::{BatchReport, EngineTotals, Percentiles};
pub use session::{Session, SessionId};
#[doc(hidden)] // prefer `Engine::solve_one` (or the `Solve` facade): same
// decomposition, plus cache/isolation/observability.
pub use shard::solve_nested_sharded;
pub use shard::AUTO_MIN_JOBS;
