//! Incremental solving: long-lived sessions with delta amends.
//!
//! A [`Session`] pins one instance inside an [`Engine`] and re-solves it
//! after each [`JobDelta`] amendment, reusing as much of the previous
//! solve as correctness allows:
//!
//! 1. **Shard splicing.** The amended instance is re-decomposed at its
//!    laminar forest roots ([`crate::shard::plan`]); shards whose
//!    *normalized content* (machine parallelism + exact job list, after
//!    shifting the root window to slot 0) matches a part of the previous
//!    solve are spliced in without touching the solver. Parts are
//!    shared (`Arc`), so a splice is a pointer copy. Content keying
//!    makes splices bit-identical by construction — there is nothing to
//!    re-verify per shard, and [`atsched_core::decompose::merge`]
//!    re-verifies the assembled schedule end to end anyway.
//! 2. **Engine cache.** Dirty shards first consult the engine's solve
//!    cache (shared with [`Engine::solve_batch`]), so a shard shape seen
//!    anywhere before — by any session or batch, or earlier in the same
//!    solve — is reused.
//! 3. **Cold solve.** A genuinely dirty shard is solved with
//!    [`solve_nested`](atsched_core::solver::solve_nested) under
//!    [`shard_options`](crate::shard::shard_options).
//!
//! Layers 2 and 3 are the root solve every [`Engine::solve_one`] runs,
//! under the same panic isolation and [`EngineConfig::timeout`] budget;
//! a session only adds layer 1. The invariant is absolute: **any amend
//! sequence yields exactly the result a cold solve of the final
//! instance would**. Layers 1 and 2 reuse only content-identical
//! results, and layer 3 is the cold solve.
//!
//! ## Lifecycle
//!
//! [`Engine::open_session`] solves eagerly and registers the session in
//! the engine's table; [`Engine::session`] re-attaches to it by id (the
//! serve layer's correlation handle); [`Engine::close_session`] drops
//! the cached state. The engine keeps sessions until explicitly closed —
//! the serve layer layers TTL eviction on top.
//!
//! ## Metrics
//!
//! When the engine observes, sessions record `engine.open_ms` /
//! `engine.amend_ms` latency histograms, an `engine.amends` counter, an
//! `engine.sessions_open` gauge, per-amend reuse counters
//! (`engine.amend_shards_reused`, `engine.amend_shards_solved`), and a
//! `span.amend.ms` span wrapping the re-solve. Dirty-shard solves bump
//! the same `lp.tree_*` / `lp.hybrid_*` counters as cold solves.
//!
//! `engine.amend_warm_hits` and `engine.amend_warm_misses` are
//! deprecated: sessions no longer warm-start the LP, so the first stays
//! 0 and the second counts every dirty shard solved. Both stay
//! registered for readers that derive a warm-hit rate from them.
//!
//! [`EngineConfig::timeout`]: crate::EngineConfig::timeout

use crate::batch::{Engine, Outcome};
use atsched_core::delta::{apply, DeltaError, JobDelta};
use atsched_core::instance::Instance;
use atsched_core::solver::{SolveResult, SolverOptions};
use atsched_obs as obs;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Opaque session identifier, unique per [`Engine`].
///
/// Stable across [`Engine::session`] lookups; the serve layer uses it to
/// correlate `amend` requests with their `open`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

impl SessionId {
    /// The raw id, for wire protocols and logs.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl From<u64> for SessionId {
    fn from(id: u64) -> Self {
        SessionId(id)
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The engine-side session registry: monotonically increasing ids and
/// the live session states.
#[derive(Debug, Default)]
pub(crate) struct SessionTable {
    next: AtomicU64,
    map: Mutex<HashMap<u64, Arc<Mutex<SessionState>>>>,
}

/// A session's solved parts, keyed by their (normalized) instance: two
/// shards with equal content are the same solver input, so their results
/// are interchangeable bit for bit.
pub(crate) type Parts = HashMap<Instance, Arc<SolveResult>>;

/// Everything a session carries between amends.
#[derive(Debug)]
struct SessionState {
    /// The current (post-amend) instance.
    instance: Instance,
    /// The options the session was opened with (fixed for its lifetime).
    opts: SolverOptions,
    /// Outcome of the most recent solve.
    outcome: Outcome,
    /// Per-part results of the previous solve. Rebuilt on every solve
    /// that is not interrupted, so it never outgrows the current
    /// decomposition.
    parts: Parts,
}

/// A live incremental-solving session (see the [module docs](self)).
///
/// Borrow-tied to its engine; cheap to re-obtain via [`Engine::session`].
/// Cloning the handle is not needed — the state behind it is shared.
#[derive(Debug)]
pub struct Session<'e> {
    engine: &'e Engine,
    id: SessionId,
    state: Arc<Mutex<SessionState>>,
}

impl Engine {
    /// Open a session on `inst`: solve it eagerly under this engine's
    /// policy and keep the per-part results for future amends.
    ///
    /// The options are fixed for the session's lifetime. The initial
    /// solve records into `engine.open_ms`.
    pub fn open_session(&self, inst: Instance, opts: &SolverOptions) -> Session<'_> {
        let start = Instant::now();
        let mut parts = Parts::new();
        let (outcome, _) = self.observed(|| self.solve_roots(&inst, opts, None, Some(&mut parts)));
        self.tally(&outcome);
        let state = SessionState { instance: inst, opts: opts.clone(), outcome, parts };
        if self.cfg.observe {
            self.registry.histogram("engine.open_ms").record(start.elapsed().as_secs_f64() * 1e3);
        }

        let id = SessionId(self.sessions.next.fetch_add(1, Ordering::Relaxed) + 1);
        let state = Arc::new(Mutex::new(state));
        let open = {
            let mut map = self.sessions.map.lock().expect("session table lock");
            map.insert(id.0, Arc::clone(&state));
            map.len()
        };
        if self.cfg.observe {
            self.registry.gauge("engine.sessions_open").set(open as i64);
        }
        Session { engine: self, id, state }
    }

    /// Re-attach to an open session by id.
    pub fn session(&self, id: SessionId) -> Option<Session<'_>> {
        let state = {
            let map = self.sessions.map.lock().expect("session table lock");
            Arc::clone(map.get(&id.0)?)
        };
        Some(Session { engine: self, id, state })
    }

    /// Close a session, dropping its cached parts. Returns whether the
    /// id was open. (Parts shared with the engine's solve cache stay
    /// there.)
    pub fn close_session(&self, id: SessionId) -> bool {
        let (removed, open) = {
            let mut map = self.sessions.map.lock().expect("session table lock");
            (map.remove(&id.0).is_some(), map.len())
        };
        if removed && self.cfg.observe {
            self.registry.gauge("engine.sessions_open").set(open as i64);
        }
        removed
    }

    /// Number of currently open sessions.
    pub fn open_sessions(&self) -> usize {
        self.sessions.map.lock().expect("session table lock").len()
    }
}

impl Session<'_> {
    /// This session's identifier.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// The outcome of the most recent solve (open or amend).
    pub fn outcome(&self) -> Outcome {
        self.state.lock().expect("session lock").outcome.clone()
    }

    /// The current (post-amend) instance.
    pub fn instance(&self) -> Instance {
        self.state.lock().expect("session lock").instance.clone()
    }

    /// Apply `delta` to the session's instance and re-solve
    /// incrementally.
    ///
    /// On a delta error ([`DeltaError`]) the session is untouched. An
    /// amend whose *solve* fails (e.g. the amended instance is
    /// infeasible) keeps the session open on the amended instance —
    /// returning [`Outcome::Infeasible`] — so a later amend can repair
    /// it; reusable parts from earlier solves are retained throughout.
    ///
    /// The returned outcome is bit-identical to what a cold
    /// [`Engine::solve_one`] of the amended instance would produce.
    pub fn amend(&self, delta: &JobDelta) -> Result<Outcome, DeltaError> {
        let mut st = self.state.lock().expect("session lock");
        st.instance = apply(&st.instance, delta)?;
        let start = Instant::now();
        let (outcome, reuse) = self.engine.observed(|| {
            let _span = obs::Span::enter("amend");
            let SessionState { instance, opts, parts, .. } = &mut *st;
            self.engine.solve_roots(instance, opts, None, Some(parts))
        });
        st.outcome = outcome.clone();
        drop(st);
        self.engine.tally(&outcome);
        let engine = self.engine;
        if engine.cfg.observe {
            engine.registry.counter("engine.amends").inc();
            engine.registry.counter("engine.amend_shards_reused").add(reuse.reused);
            engine.registry.counter("engine.amend_shards_solved").add(reuse.solved);
            // Deprecated (see the module docs): no warm starts remain.
            engine.registry.counter("engine.amend_warm_hits").add(0);
            engine.registry.counter("engine.amend_warm_misses").add(reuse.solved);
            engine
                .registry
                .histogram("engine.amend_ms")
                .record(start.elapsed().as_secs_f64() * 1e3);
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::EngineConfig;
    use atsched_core::instance::Job;
    use atsched_core::solver::{LpAnswer, LpStrategy, ShardMode};

    fn inst(g: i64, jobs: Vec<(i64, i64, i64)>) -> Instance {
        Instance::new(g, jobs.into_iter().map(|(r, d, p)| Job::new(r, d, p)).collect()).unwrap()
    }

    /// `roots` copies of a 3-job subtree at disjoint offsets.
    fn many_root(roots: usize) -> Instance {
        let mut jobs = Vec::new();
        for k in 0..roots as i64 {
            let base = 12 * k;
            jobs.push((base, base + 8, 2));
            jobs.push((base + 1, base + 4, 1));
            jobs.push((base + 5, base + 7, 1));
        }
        inst(2, jobs)
    }

    fn assert_bit_identical(a: &Outcome, b: &Outcome) {
        match (a, b) {
            (Outcome::Solved(x), Outcome::Solved(y)) => {
                assert_eq!(x.result.schedule, y.result.schedule);
                assert_eq!(x.result.z, y.result.z);
                assert_eq!(x.result.stats.lp_objective_exact, y.result.stats.lp_objective_exact);
                assert_eq!(x.result.stats.opened_slots, y.result.stats.opened_slots);
            }
            (Outcome::Infeasible, Outcome::Infeasible) => {}
            other => panic!("outcome mismatch: {other:?}"),
        }
    }

    #[test]
    fn open_then_amend_matches_cold_solve() {
        let opts = SolverOptions { shard: ShardMode::Force, ..SolverOptions::exact() };
        let engine = Engine::new(EngineConfig::default().workers(2));
        let session = engine.open_session(many_root(4), &opts);
        assert!(session.outcome().is_solved());

        // Move one job's window inside the second root, then add and
        // remove jobs; after every amend the outcome must be
        // bit-identical to a cold solve of the session's instance.
        let deltas = vec![
            JobDelta::new().modify_window(4, 13, 17),
            JobDelta::new().add(Job::new(1, 4, 1)),
            JobDelta::new().remove(5),
        ];
        let cold_engine = Engine::new(EngineConfig::default().cache(false).workers(2));
        for delta in &deltas {
            let outcome = session.amend(delta).expect("delta applies");
            let cold = cold_engine.solve_one(&session.instance(), &opts);
            assert_bit_identical(&outcome, &cold);
        }
    }

    #[test]
    fn amend_reuses_untouched_shards() {
        let opts = SolverOptions { shard: ShardMode::Force, ..SolverOptions::exact() };
        // Cache off isolates the session's own part splicing from the
        // engine-wide shard cache.
        let engine = Engine::new(EngineConfig::default().workers(1).cache(false));
        let session = engine.open_session(many_root(4), &opts);

        // Dirty only the second root (jobs 3..6 live in it).
        session.amend(&JobDelta::new().modify_window(4, 13, 17)).unwrap();
        let snap = engine.registry().snapshot();
        assert_eq!(snap.counter("engine.amend_shards_reused"), Some(3), "{snap:?}");
        assert_eq!(snap.counter("engine.amend_shards_solved"), Some(1), "{snap:?}");
        assert_eq!(snap.counter("engine.amends"), Some(1));
        assert_eq!(snap.histogram("engine.amend_ms").map(|h| h.count), Some(1));
        assert_eq!(snap.histogram("span.amend.ms").map(|h| h.count), Some(1));
    }

    #[test]
    fn amends_that_split_and_merge_roots_stay_exact() {
        let opts = SolverOptions { shard: ShardMode::Force, ..SolverOptions::exact() };
        let engine = Engine::new(EngineConfig::default().workers(2));
        // Two roots bridged into one by a spanning job, then split again.
        let session = engine.open_session(many_root(2), &opts);
        let cold = Engine::new(EngineConfig::default().cache(false));

        let bridged = session.amend(&JobDelta::new().add(Job::new(0, 20, 1))).unwrap();
        assert_bit_identical(&bridged, &cold.solve_one(&session.instance(), &opts));

        let split = session.amend(&JobDelta::new().remove(6)).unwrap();
        assert_bit_identical(&split, &cold.solve_one(&session.instance(), &opts));
    }

    #[test]
    fn infeasible_amend_keeps_session_repairable() {
        let opts = SolverOptions::exact();
        let engine = Engine::new(EngineConfig::default());
        let session = engine.open_session(inst(1, vec![(0, 4, 2)]), &opts);
        assert!(session.outcome().is_solved());

        // g=1, three unit jobs in a 2-slot window: infeasible.
        let overload =
            JobDelta::new().add(Job::new(0, 2, 1)).add(Job::new(0, 2, 1)).add(Job::new(0, 2, 1));
        let outcome = session.amend(&overload).unwrap();
        assert!(matches!(outcome, Outcome::Infeasible));
        assert_eq!(session.instance().num_jobs(), 4);

        // Removing the overload repairs the session.
        let repaired = session.amend(&JobDelta::new().remove(1).remove(2).remove(3)).unwrap();
        assert!(repaired.is_solved());
    }

    #[test]
    fn bad_delta_leaves_session_untouched() {
        let engine = Engine::new(EngineConfig::default());
        let session =
            engine.open_session(inst(2, vec![(0, 4, 2), (1, 3, 1)]), &SolverOptions::exact());
        let before = session.instance();
        let err = session.amend(&JobDelta::new().remove(9)).unwrap_err();
        assert!(matches!(err, DeltaError::UnknownJob { .. }));
        assert_eq!(session.instance(), before);
        assert!(session.outcome().is_solved());
    }

    #[test]
    fn session_table_lifecycle() {
        let engine = Engine::new(EngineConfig::default());
        let opts = SolverOptions::exact();
        let a = engine.open_session(inst(2, vec![(0, 4, 2)]), &opts).id();
        let b = engine.open_session(inst(2, vec![(0, 5, 3)]), &opts).id();
        assert_ne!(a, b);
        assert_eq!(engine.open_sessions(), 2);
        assert_eq!(engine.registry().snapshot().gauge("engine.sessions_open"), Some(2));

        // Re-attach and amend through the looked-up handle.
        let found = engine.session(a).expect("session a open");
        assert_eq!(found.id(), a);
        assert!(found.amend(&JobDelta::new().add(Job::new(1, 3, 1))).unwrap().is_solved());

        assert!(engine.close_session(a));
        assert!(!engine.close_session(a), "double close is a no-op");
        assert!(engine.session(a).is_none());
        assert_eq!(engine.open_sessions(), 1);
        assert_eq!(engine.registry().snapshot().gauge("engine.sessions_open"), Some(1));
        assert!(engine.close_session(b));
    }

    /// `lp.tree_solved` plus every `lp.tree_fallback.*` reason: one per
    /// feasible solve that reached the LP stage under `lp = certified`.
    fn lp_attempts(snap: &obs::RegistrySnapshot) -> u64 {
        [
            "lp.tree_solved",
            "lp.tree_fallback.nonunique",
            "lp.tree_fallback.flow",
            "lp.tree_fallback.scale",
            "lp.tree_fallback.overflow",
        ]
        .into_iter()
        .map(|name| snap.counter(name).unwrap_or(0))
        .sum()
    }

    #[test]
    fn dirty_shards_run_the_cold_lp_paths() {
        // Cache off: every dirty part reaches the solver, so each one
        // makes exactly one tree attempt, solved or declined.
        let engine = Engine::new(EngineConfig::default().workers(1).cache(false));
        let cold = Engine::new(EngineConfig::default().cache(false));

        // Multi-root: one root re-windowed, one dirty shard.
        let force = SolverOptions { shard: ShardMode::Force, ..SolverOptions::exact() };
        let session = engine.open_session(many_root(4), &force);
        let before = engine.registry().snapshot();
        let outcome = session.amend(&JobDelta::new().modify_window(4, 13, 17)).unwrap();
        let after = engine.registry().snapshot();
        assert_eq!(after.counter("engine.amend_shards_solved"), Some(1), "{after:?}");
        assert_eq!(lp_attempts(&after) - lp_attempts(&before), 1, "{after:?}");
        assert_bit_identical(&outcome, &cold.solve_one(&session.instance(), &force));

        // Rigid single root slid along the timeline: dirty (new content),
        // and its pinned LP optimum is answered by the tree path.
        let opts = SolverOptions::exact();
        let session = engine.open_session(inst(2, vec![(0, 4, 4), (0, 4, 4)]), &opts);
        let before = engine.registry().snapshot();
        let outcome =
            session.amend(&JobDelta::new().modify_window(0, 1, 5).modify_window(1, 1, 5)).unwrap();
        let after = engine.registry().snapshot();
        let solved = |s: &obs::RegistrySnapshot| s.counter("engine.amend_shards_solved").unwrap();
        assert_eq!(solved(&after) - solved(&before), 1);
        assert_eq!(lp_attempts(&after) - lp_attempts(&before), 1, "{after:?}");
        let tree = |s: &obs::RegistrySnapshot| s.counter("lp.tree_solved").unwrap_or(0);
        assert_eq!(tree(&after) - tree(&before), 1, "{after:?}");
        assert_bit_identical(&outcome, &cold.solve_one(&session.instance(), &opts));

        // The deprecated warm-start counters stay registered: no hits,
        // one miss per dirty part.
        assert_eq!(after.counter("engine.amend_warm_hits"), Some(0));
        assert_eq!(after.counter("engine.amend_warm_misses"), Some(solved(&after)));
    }

    #[test]
    fn sessions_honour_the_lp_strategy_like_cold_solves() {
        // The rigid instance is tree-solved under the certified default;
        // an exact-strategy session must not touch the tree path.
        let rigid = inst(2, vec![(0, 4, 4), (0, 4, 4)]);
        for (lp, answer) in
            [(LpStrategy::Certified, LpAnswer::Tree), (LpStrategy::Exact, LpAnswer::Exact)]
        {
            let opts = SolverOptions { lp, ..SolverOptions::exact() };
            let engine = Engine::new(EngineConfig::default().cache(false));
            let session = engine.open_session(rigid.clone(), &opts);
            let tree = engine.registry().snapshot().counter("lp.tree_solved");
            assert_eq!(tree, (answer == LpAnswer::Tree).then_some(1), "{lp:?}");
            let outcome = session.outcome();
            assert_eq!(outcome.as_solved().unwrap().result.stats.lp_answer, answer, "{lp:?}");
            let cold = Engine::new(EngineConfig::default().cache(false)).solve_one(&rigid, &opts);
            assert_bit_identical(&outcome, &cold);
        }
    }

    #[test]
    fn only_undecomposed_session_solves_cache_the_whole_instance() {
        let force = SolverOptions { shard: ShardMode::Force, ..SolverOptions::exact() };

        // Decomposed: the four roots normalize to one shard key, and the
        // shard entries are all the session adds to the cache.
        let engine = Engine::new(EngineConfig::default().workers(1));
        let session = engine.open_session(many_root(4), &force);
        assert_eq!(engine.cache_len(), 1);
        // The open solved the repeated root shape once and hit it thrice.
        let hits = |e: &Engine| e.registry().snapshot().counter("engine.shard_cache_hits");
        assert_eq!(hits(&engine), Some(3));
        session.amend(&JobDelta::new().modify_window(4, 13, 17)).unwrap();
        assert_eq!(engine.cache_len(), 2, "one new shard entry, no merged copy");
        // A cold solve of the session's instance misses the whole-instance
        // key and is rebuilt from the four cached shards plus one merge.
        let before = hits(&engine).unwrap_or(0);
        let cold = engine.solve_one(&session.instance(), &force);
        assert!(!cold.as_solved().expect("solved").cached);
        assert_eq!(hits(&engine), Some(before + 4));
        assert_bit_identical(&session.outcome(), &cold);

        // Undecomposed (one root): the whole instance is the only entry,
        // and a cold solve of it is a cache hit.
        let engine = Engine::new(EngineConfig::default().workers(1));
        let single = inst(2, vec![(0, 8, 2), (1, 4, 1), (5, 7, 1)]);
        let session = engine.open_session(single.clone(), &force);
        assert_eq!(engine.cache_len(), 1);
        let cold = engine.solve_one(&single, &force);
        assert!(cold.as_solved().expect("solved").cached);
        assert_bit_identical(&session.outcome(), &cold);
    }

    #[test]
    fn untouched_roots_share_their_part_across_amends() {
        let force = SolverOptions { shard: ShardMode::Force, ..SolverOptions::exact() };
        let engine = Engine::new(EngineConfig::default().workers(1));
        let session = engine.open_session(many_root(4), &force);
        // The four roots normalize to one shape, the table's one part.
        let part = |session: &Session| {
            let st = session.state.lock().unwrap();
            let (shape, part) = st.parts.iter().next().expect("one part");
            (shape.clone(), Arc::clone(part))
        };
        let (shape, before) = part(&session);
        session.amend(&JobDelta::new().modify_window(4, 13, 17)).unwrap();
        let after = Arc::clone(&session.state.lock().unwrap().parts[&shape]);
        assert!(Arc::ptr_eq(&before, &after), "a splice must not copy the part");
    }

    #[test]
    fn sessions_honour_the_engine_budget() {
        use atsched_workloads::generators::{random_multi_root, LaminarConfig, MultiRootConfig};
        // A 48-root open takes far longer than 1 ms.
        let cfg = MultiRootConfig {
            base: LaminarConfig { g: 4, horizon: 48, ..LaminarConfig::default() },
            roots: 48,
            gap: 1,
        };
        let engine =
            Engine::new(EngineConfig::default().timeout(std::time::Duration::from_millis(1)));
        let session = engine.open_session(random_multi_root(&cfg, 0), &SolverOptions::exact());
        assert!(matches!(session.outcome(), Outcome::TimedOut), "{}", session.outcome().label());
        assert_eq!(engine.totals().timed_out, 1);
    }
}
