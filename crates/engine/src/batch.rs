//! The batch-solve engine: dispatcher, isolation, and outcome model.

use crate::cache::{CacheKey, CacheStats, SolveCache};
use crate::isolate::{isolated, with_budget, Interrupt};
use crate::par::{default_workers, par_map_workers};
use crate::report::{BatchReport, CacheReport, EngineTotals, Percentiles, StageReport};
use crate::session::Parts;
use crate::shard::{Part, Split};
use atsched_core::instance::Instance;
use atsched_core::solver::{SolveError, SolveResult, SolverOptions};
use atsched_obs as obs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine configuration (builder-style).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads; `0` means one per available core.
    pub workers: usize,
    /// Memoize deterministic solve outcomes (default true).
    pub cache: bool,
    /// Maximum memoized entries before FIFO eviction kicks in
    /// (default [`crate::cache::DEFAULT_CACHE_CAPACITY`]; `0` =
    /// unbounded).
    pub cache_capacity: usize,
    /// Per-solve wall-clock budget; `None` means unlimited. It covers
    /// the cold fan-out of every solve, session opens and amends
    /// included.
    pub timeout: Option<Duration>,
    /// Install a metrics collector around each solve (default true).
    /// When false, deep-crate counters/spans see no collector and
    /// reduce to a thread-local null check — the baseline for
    /// measuring instrumentation overhead.
    pub observe: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 0,
            cache: true,
            cache_capacity: crate::cache::DEFAULT_CACHE_CAPACITY,
            timeout: None,
            observe: true,
        }
    }
}

impl EngineConfig {
    /// Set the worker count (`0` = one per core).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Enable or disable the solve cache.
    pub fn cache(mut self, on: bool) -> Self {
        self.cache = on;
        self
    }

    /// Bound the solve cache to `n` entries (`0` = unbounded).
    pub fn cache_capacity(mut self, n: usize) -> Self {
        self.cache_capacity = n;
        self
    }

    /// Set a per-solve wall-clock budget.
    pub fn timeout(mut self, budget: Duration) -> Self {
        self.timeout = Some(budget);
        self
    }

    /// Enable or disable metric collection around each solve.
    pub fn observe(mut self, on: bool) -> Self {
        self.observe = on;
        self
    }

    pub(crate) fn effective_workers(&self) -> usize {
        if self.workers == 0 {
            default_workers()
        } else {
            self.workers
        }
    }
}

/// A successfully solved batch item.
#[derive(Debug, Clone)]
pub struct SolvedItem {
    /// The verified solver output.
    pub result: SolveResult,
    /// Wall-clock spent on this item (≈0 for cache hits).
    pub elapsed: Duration,
    /// Whether the result came from the cache.
    pub cached: bool,
}

/// Per-instance result of a batch solve.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// A verified schedule (boxed: the payload is large).
    Solved(Box<SolvedItem>),
    /// The instance is provably infeasible.
    Infeasible,
    /// The per-solve wall-clock budget ran out.
    TimedOut,
    /// The solve errored (bad instance, LP failure) or panicked.
    Failed(String),
}

impl Outcome {
    /// The solved payload, if any.
    pub fn as_solved(&self) -> Option<&SolvedItem> {
        match self {
            Outcome::Solved(item) => Some(item),
            _ => None,
        }
    }

    /// True for [`Outcome::Solved`].
    pub fn is_solved(&self) -> bool {
        matches!(self, Outcome::Solved(_))
    }

    /// Short stable label (`solved` / `infeasible` / `timed_out` /
    /// `failed`), used in reports and CLI output.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Solved(_) => "solved",
            Outcome::Infeasible => "infeasible",
            Outcome::TimedOut => "timed_out",
            Outcome::Failed(_) => "failed",
        }
    }
}

/// A batch's outcomes (input order) plus its report.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// One outcome per input instance, positionally.
    pub outcomes: Vec<Outcome>,
    /// Aggregated statistics for the batch.
    pub report: BatchReport,
}

/// Parallel batch-solve engine with a solve cache.
///
/// The engine owns its cache, so it can be reused across batches to
/// carry memoized results forward; cheap to construct per batch when
/// that is not wanted.
///
/// Every method takes `&self` and all mutable state (cache, counters)
/// sits behind interior mutability, so one engine can be wrapped in an
/// `Arc` and shared by many threads — the deployment shape of a
/// long-lived solve service, which keeps the cache warm across
/// requests. Lifetime outcome counters are exposed via
/// [`Engine::totals`].
#[derive(Debug, Default)]
pub struct Engine {
    pub(crate) cfg: EngineConfig,
    cache: Arc<SolveCache>,
    totals: TotalCounters,
    pub(crate) registry: Arc<obs::Registry>,
    trace: Option<Arc<obs::TraceBuffer>>,
    pub(crate) sessions: crate::session::SessionTable,
}

/// Lifetime outcome counters, updated lock-free on every finished solve.
#[derive(Debug, Default)]
struct TotalCounters {
    solved: AtomicU64,
    infeasible: AtomicU64,
    timed_out: AtomicU64,
    failed: AtomicU64,
}

impl Engine {
    /// Engine with the given configuration and a fresh metric registry.
    pub fn new(cfg: EngineConfig) -> Self {
        Self::with_registry(cfg, Arc::new(obs::Registry::new()))
    }

    /// Engine writing metrics into a shared registry — the deployment
    /// shape of the serve layer, where server-level counters and
    /// solver-level counters land in one snapshot.
    pub fn with_registry(cfg: EngineConfig, registry: Arc<obs::Registry>) -> Self {
        let cache = Arc::new(SolveCache::with_capacity(cfg.cache_capacity));
        Engine {
            cfg,
            cache,
            totals: TotalCounters::default(),
            registry,
            trace: None,
            sessions: crate::session::SessionTable::default(),
        }
    }

    /// Attach a trace buffer: every solver span is also appended as a
    /// Chrome trace event (see [`obs::TraceBuffer::to_chrome_json`]).
    pub fn with_trace(mut self, trace: Arc<obs::TraceBuffer>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The metric registry this engine writes into.
    pub fn registry(&self) -> &Arc<obs::Registry> {
        &self.registry
    }

    /// The configuration this engine runs with.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Lifetime cache counters (across all batches run on this engine).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Number of memoized solve outcomes currently held.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Lifetime outcome counters (across all batches and all threads
    /// sharing this engine).
    pub fn totals(&self) -> EngineTotals {
        EngineTotals {
            solved: self.totals.solved.load(Ordering::Relaxed),
            infeasible: self.totals.infeasible.load(Ordering::Relaxed),
            timed_out: self.totals.timed_out.load(Ordering::Relaxed),
            failed: self.totals.failed.load(Ordering::Relaxed),
        }
    }

    /// Solve every instance, in parallel, preserving input order.
    ///
    /// Output is positionally identical to solving sequentially: worker
    /// scheduling affects only wall-clock, never results. Panics and
    /// budget overruns are contained to their own item.
    pub fn solve_batch(&self, instances: &[Instance], opts: &SolverOptions) -> BatchResult {
        let start = Instant::now();
        let workers = self.cfg.effective_workers().min(instances.len().max(1));
        let cache_before = self.cache.stats();
        let outcomes =
            par_map_workers(instances.iter().collect(), workers, |inst| self.solve_one(inst, opts));
        let report = self.build_report(&outcomes, workers, start.elapsed(), cache_before);
        BatchResult { outcomes, report }
    }

    /// Solve a single instance under this engine's isolation and cache
    /// policy (the unit of work a batch worker executes).
    pub fn solve_one(&self, inst: &Instance, opts: &SolverOptions) -> Outcome {
        let outcome = self.observed(|| self.solve_one_inner(inst, opts));
        self.tally(&outcome);
        if self.cfg.observe {
            if let Some(item) = outcome.as_solved() {
                // Hits go to their own histogram: folding ~0 ms lookups
                // into `engine.solve_ms` would skew the latency
                // percentiles toward zero on warm caches.
                let histogram = if item.cached { "engine.cache_hit_ms" } else { "engine.solve_ms" };
                self.registry.histogram(histogram).record(item.elapsed.as_secs_f64() * 1e3);
            }
        }
        outcome
    }

    /// Run `work` under this engine's collector policy: when `observe`
    /// is on, a fresh [`obs::Collector`] bound to the engine registry
    /// (and trace buffer, if any) is installed for the duration. A
    /// request trace carried by the caller's collector is kept
    /// attached, so per-stage breadcrumbs from the solve still land on
    /// the admitting request (the serve tier relies on this).
    pub(crate) fn observed<T>(&self, work: impl FnOnce() -> T) -> T {
        if self.cfg.observe {
            let mut collector = obs::Collector::new(Arc::clone(&self.registry));
            if let Some(trace) = &self.trace {
                collector = collector.with_trace(Arc::clone(trace));
            }
            if let Some(request) = obs::current_request() {
                collector = collector.with_request(request);
            }
            obs::with_collector(collector, work)
        } else {
            work()
        }
    }

    /// Count `outcome` into the lifetime totals and (when observing)
    /// the `engine.outcome.<label>` counter.
    pub(crate) fn tally(&self, outcome: &Outcome) {
        let counter = match outcome {
            Outcome::Solved(_) => &self.totals.solved,
            Outcome::Infeasible => &self.totals.infeasible,
            Outcome::TimedOut => &self.totals.timed_out,
            Outcome::Failed(_) => &self.totals.failed,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if self.cfg.observe {
            self.registry.counter(&format!("engine.outcome.{}", outcome.label())).inc();
        }
    }

    fn solve_one_inner(&self, inst: &Instance, opts: &SolverOptions) -> Outcome {
        let start = Instant::now();
        let key = self.cfg.cache.then(|| CacheKey::new(inst, opts));
        if let Some(found) = key.as_ref().and_then(|key| self.cache.get(key)) {
            return settle(found, start.elapsed(), true);
        }
        self.solve_roots(inst, opts, key, None).0
    }

    /// Solve `inst` root by root: the one path behind
    /// [`Engine::solve_one`], [`Engine::open_session`] and
    /// [`Session::amend`](crate::Session::amend).
    ///
    /// The instance splits into units (one per forest root when
    /// [`shard::plan`](crate::shard::plan) decomposes it, else the
    /// whole instance). Given a session's part `table`, units whose
    /// content matches one of its parts are spliced in, and the table is
    /// rebuilt from this solve's units unless the solve is interrupted.
    /// The rest go through one fan-out that looks each root unit up in
    /// the engine cache and solves and caches the misses. The fan-out
    /// runs in place under panic isolation, or, with
    /// [`EngineConfig::timeout`], on one budget helper thread that owns
    /// its inputs and reaches the cache through its `Arc`. `memo` is the
    /// whole-instance key a decomposed instance's merged result is
    /// memoized under; an undecomposed one is cached as its one unit.
    pub(crate) fn solve_roots(
        &self,
        inst: &Instance,
        opts: &SolverOptions,
        memo: Option<CacheKey>,
        table: Option<&mut Parts>,
    ) -> (Outcome, Reuse) {
        let start = Instant::now();
        let split = Split::new(inst.clone(), opts);
        let (units, slots): (Vec<Instance>, Vec<Option<Part>>) = match &table {
            Some(prev) => {
                let units: Vec<Instance> = split.units().into_iter().cloned().collect();
                let slots = units.iter().map(|u| prev.get(u).map(|p| Ok(Arc::clone(p)))).collect();
                (units, slots)
            }
            None => (Vec::new(), vec![None; split.units().len()]),
        };
        let spliced = slots.iter().flatten().count() as u64;
        let cold = slots.len() as u64 - spliced;
        let memo = memo.filter(|_| split.is_decomposed());
        let cache = self.cfg.cache.then(|| Arc::clone(&self.cache));
        let workers = self.cfg.effective_workers();
        let work = move || split.solve(slots, workers, cache.as_deref());
        let run = match self.cfg.timeout {
            None => isolated(work),
            Some(budget) => with_budget(work, budget),
        };
        let (outcome, hits) = match run {
            Ok((combined, parts, hits)) => {
                // Only successful parts are kept, even when a sibling
                // failed: content keys stay valid regardless. Consuming
                // `parts` also drops the last other owner of an
                // undecomposed result before it is unwrapped.
                let next: Parts = units
                    .into_iter()
                    .zip(parts)
                    .filter_map(|(unit, part)| Some((unit, part.ok()?)))
                    .collect();
                if let Some(table) = table {
                    *table = next;
                }
                if let Some(key) = memo {
                    self.cache.insert(key, combined.clone());
                }
                if self.cfg.cache && self.cfg.observe {
                    self.registry.gauge("engine.cache_entries").set(self.cache.len() as i64);
                }
                (settle(combined, start.elapsed(), false), hits)
            }
            // Interrupts are transient and never cached.
            Err(Interrupt::TimedOut) => (Outcome::TimedOut, 0),
            Err(Interrupt::Panicked(msg)) => {
                (Outcome::Failed(format!("solver panicked: {msg}")), 0)
            }
        };
        (outcome, Reuse { reused: spliced + hits, solved: cold - hits })
    }

    fn build_report(
        &self,
        outcomes: &[Outcome],
        workers: usize,
        wall_clock: Duration,
        cache_before: CacheStats,
    ) -> BatchReport {
        let mut solved = 0;
        let mut infeasible = 0;
        let mut timed_out = 0;
        let mut failed = 0;
        let mut latencies = Vec::new();
        let mut timings = Vec::new();
        for outcome in outcomes {
            match outcome {
                Outcome::Solved(item) => {
                    solved += 1;
                    latencies.push(item.elapsed.as_secs_f64() * 1e3);
                    if !item.cached {
                        timings.push(item.result.stats.timings);
                    }
                }
                Outcome::Infeasible => infeasible += 1,
                Outcome::TimedOut => timed_out += 1,
                Outcome::Failed(_) => failed += 1,
            }
        }
        let delta = self.cache.stats().since(cache_before);
        BatchReport {
            total: outcomes.len(),
            solved,
            infeasible,
            timed_out,
            failed,
            wall_clock_ms: wall_clock.as_secs_f64() * 1e3,
            workers,
            cache: CacheReport {
                hits: delta.hits,
                misses: delta.misses,
                hit_rate: delta.hit_rate(),
            },
            latency_ms: Percentiles::summarize(latencies),
            stages_ms: StageReport::from_timings(&timings),
        }
    }
}

/// How one session solve split its units between reuse and the solver.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Reuse {
    /// Units spliced from the previous solve or found in the engine cache.
    pub(crate) reused: u64,
    /// Units handed to the solver.
    pub(crate) solved: u64,
}

/// Map a deterministic solve outcome to an [`Outcome`].
fn settle(res: Part, elapsed: Duration, cached: bool) -> Outcome {
    match res {
        Ok(result) => {
            let result = Arc::unwrap_or_clone(result);
            Outcome::Solved(Box::new(SolvedItem { result, elapsed, cached }))
        }
        Err(SolveError::Infeasible) => Outcome::Infeasible,
        Err(other) => Outcome::Failed(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atsched_core::instance::Job;
    use atsched_core::solver::solve_nested;
    use std::thread;

    fn inst(g: i64, jobs: Vec<(i64, i64, i64)>) -> Instance {
        Instance::new(g, jobs.into_iter().map(|(r, d, p)| Job::new(r, d, p)).collect()).unwrap()
    }

    fn small_corpus() -> Vec<Instance> {
        vec![
            inst(2, vec![(0, 8, 2), (1, 4, 1), (5, 7, 1)]),
            inst(3, vec![(0, 2, 1); 4]),
            inst(2, vec![(0, 10, 2), (1, 6, 2), (2, 5, 1), (7, 9, 1)]),
            inst(1, vec![(0, 2, 1); 3]),                    // infeasible
            inst(2, vec![(0, 8, 2), (1, 4, 1), (5, 7, 1)]), // repeat of [0]
        ]
    }

    #[test]
    fn batch_matches_sequential_and_counts_cache() {
        let corpus = small_corpus();
        let opts = SolverOptions::exact();
        // One worker: with parallel workers a duplicate can be *looked
        // up* before its twin's solve finishes (a legitimate miss), so
        // exact hit counts are only deterministic sequentially.
        let engine = Engine::new(EngineConfig::default().workers(1));
        let batch = engine.solve_batch(&corpus, &opts);

        assert_eq!(batch.report.total, 5);
        assert_eq!(batch.report.solved, 4);
        assert_eq!(batch.report.infeasible, 1);
        assert_eq!(batch.report.failed, 0);
        // Instance 4 repeats instance 0: exactly one hit.
        assert_eq!(batch.report.cache.hits, 1);
        assert_eq!(batch.report.cache.misses, 4);

        for (i, (instance, outcome)) in corpus.iter().zip(&batch.outcomes).enumerate() {
            match solve_nested(instance, &opts) {
                Ok(seq) => {
                    let item = outcome.as_solved().unwrap_or_else(|| panic!("item {i} solved"));
                    assert_eq!(item.result.schedule, seq.schedule, "item {i}");
                    assert_eq!(item.result.z, seq.z, "item {i}");
                }
                Err(SolveError::Infeasible) => {
                    assert!(matches!(outcome, Outcome::Infeasible), "item {i}")
                }
                Err(e) => panic!("unexpected sequential error on {i}: {e}"),
            }
        }
        // The repeat must be served from cache.
        assert!(batch.outcomes[4].as_solved().unwrap().cached);
        assert!(!batch.outcomes[0].as_solved().unwrap().cached);
    }

    #[test]
    fn cache_disabled_never_hits() {
        let corpus = small_corpus();
        let engine = Engine::new(EngineConfig::default().workers(2).cache(false));
        let batch = engine.solve_batch(&corpus, &SolverOptions::exact());
        assert_eq!(batch.report.cache.hits, 0);
        assert_eq!(batch.report.cache.misses, 0);
        assert_eq!(batch.report.solved, 4);
        assert!(batch.outcomes.iter().all(|o| o.as_solved().is_none_or(|s| !s.cached)));
    }

    #[test]
    fn cache_persists_across_batches() {
        let corpus = small_corpus();
        let engine = Engine::new(EngineConfig::default().workers(2));
        engine.solve_batch(&corpus, &SolverOptions::exact());
        let second = engine.solve_batch(&corpus, &SolverOptions::exact());
        // Every deterministic outcome is now memoized (4 solved + 1
        // infeasible content-distinct = 4 distinct keys).
        assert_eq!(second.report.cache.misses, 0);
        assert_eq!(second.report.cache.hits, 5);
        assert_eq!(engine.cache_len(), 4);
    }

    #[test]
    fn cache_capacity_bounds_memory_and_reports_gauge() {
        // Capacity 2 with 4 distinct deterministic outcomes (one of them
        // repeated after its twin has already been displaced): the cache
        // may never exceed the bound, every displacement is counted, and
        // the gauge tracks the live entry count.
        let engine = Engine::new(EngineConfig::default().workers(1).cache_capacity(2));
        let corpus = small_corpus();
        engine.solve_batch(&corpus, &SolverOptions::exact());
        assert_eq!(engine.cache_len(), 2);
        let stats = engine.cache_stats();
        assert_eq!(stats.evictions, 3, "{stats:?}");
        assert_eq!(stats.misses, 5, "the repeat re-solves after eviction: {stats:?}");
        let snap = engine.registry().snapshot();
        assert_eq!(snap.gauge("engine.cache_entries"), Some(2), "{snap:?}");

        // Evicted entries are misses on the next run (bounded ≠ broken:
        // results are still correct, just re-solved).
        let second = engine.solve_batch(&corpus, &SolverOptions::exact());
        assert_eq!(second.report.solved, 4);
        assert!(second.report.cache.misses > 0, "{:?}", second.report);
    }

    #[test]
    fn empty_batch() {
        let engine = Engine::new(EngineConfig::default());
        let batch = engine.solve_batch(&[], &SolverOptions::exact());
        assert_eq!(batch.report.total, 0);
        assert_eq!(batch.report.latency_ms.max, 0.0);
    }

    #[test]
    fn report_counts_and_json() {
        let engine = Engine::new(EngineConfig::default().workers(2));
        let batch = engine.solve_batch(&small_corpus(), &SolverOptions::exact());
        let json = batch.report.to_json();
        assert!(json.contains("\"total\":5"), "{json}");
        assert!(json.contains("\"latency_ms\""), "{json}");
        assert!(json.contains("\"lp\""), "{json}");
        assert!(batch.report.latency_ms.max >= batch.report.latency_ms.p50);
    }

    #[test]
    fn timeout_yields_timed_out_without_affecting_neighbors() {
        // An instance the exact backend cannot finish within the budget,
        // surrounded by trivial neighbors that comfortably can.
        let slow = {
            let mut jobs = Vec::new();
            for k in 0..48i64 {
                jobs.push((k, 20000 - k, 3));
            }
            inst(2, jobs)
        };
        let corpus = vec![inst(1, vec![(0, 5, 2)]), slow, inst(3, vec![(0, 2, 1); 4])];
        let engine =
            Engine::new(EngineConfig::default().workers(2).timeout(Duration::from_millis(60)));
        let batch = engine.solve_batch(&corpus, &SolverOptions::exact());
        assert!(matches!(batch.outcomes[1], Outcome::TimedOut), "{:?}", batch.report);
        assert!(batch.outcomes[0].is_solved(), "{:?}", batch.report);
        assert!(batch.outcomes[2].is_solved(), "{:?}", batch.report);
        assert_eq!(batch.report.timed_out, 1);
        assert_eq!(batch.report.solved, 2);
    }

    #[test]
    fn engine_is_arc_shareable_across_threads() {
        fn assert_sync_send<T: Send + Sync>() {}
        assert_sync_send::<Engine>();

        let engine = std::sync::Arc::new(Engine::new(EngineConfig::default().workers(1)));
        let corpus = small_corpus();
        let opts = SolverOptions::exact();
        thread::scope(|scope| {
            for _ in 0..4 {
                let engine = std::sync::Arc::clone(&engine);
                let corpus = &corpus;
                let opts = &opts;
                scope.spawn(move || {
                    for instance in corpus {
                        engine.solve_one(instance, opts);
                    }
                });
            }
        });
        // 4 threads × 5 instances, every outcome counted exactly once.
        let totals = engine.totals();
        assert_eq!(totals.total(), 20);
        assert_eq!(totals.solved, 16);
        assert_eq!(totals.infeasible, 4);
        assert_eq!(totals.failed, 0);
        // All threads share one cache: only 4 distinct keys were solved.
        assert_eq!(engine.cache_len(), 4);
        let stats = engine.cache_stats();
        assert_eq!(stats.hits + stats.misses, 20);
        // Each thread solves the duplicate item after inserting its twin
        // itself, so at least that lookup is a guaranteed hit per thread;
        // racing first lookups may legitimately miss.
        assert!(stats.hits >= 4, "{stats:?}");
    }

    #[test]
    fn batch_populates_registry_with_stage_spans_and_algorithm_counters() {
        // One worker: the duplicate instance is a deterministic cache
        // hit, making span counts exact.
        let engine = Engine::new(EngineConfig::default().workers(1));
        let batch = engine.solve_batch(&small_corpus(), &SolverOptions::exact());
        assert_eq!(batch.report.solved, 4);
        let snap = engine.registry().snapshot();
        // Outcome counters match the report (cache hits included).
        assert_eq!(snap.counter("engine.outcome.solved"), Some(4));
        assert_eq!(snap.counter("engine.outcome.infeasible"), Some(1));
        // The simplex really pivoted and the LP layer saw solves.
        assert!(snap.counter("lp.pivots").unwrap_or(0) > 0, "{snap:?}");
        assert!(snap.counter("lp.solves").unwrap_or(0) > 0, "{snap:?}");
        // Extraction ran max-flow feasibility checks.
        assert!(snap.counter("flow.max_flow_calls").unwrap_or(0) > 0, "{snap:?}");
        assert!(snap.counter("flow.augmenting_paths").unwrap_or(0) > 0, "{snap:?}");
        // 4 non-cached solver runs, each with one answering `lp` span
        // (the infeasible one is proven infeasible by the tree DP); the
        // declined tree attempt of the fallback gets its own span.
        for stage in ["solve", "canonicalize", "lp"] {
            let h = snap
                .histogram(&format!("span.{stage}.ms"))
                .unwrap_or_else(|| panic!("missing span.{stage}.ms in {snap:?}"));
            assert_eq!(h.count, 4, "stage {stage}");
        }
        assert_eq!(snap.histogram("span.lp.tree_declined.ms").unwrap().count, 1);
        // The tree LP fast path answered part of the corpus and fell
        // back on the rest (the `lp.pivots` assertion above proves the
        // simplex really ran for the remainder).
        assert!(snap.counter("lp.tree_solved").unwrap_or(0) > 0, "{snap:?}");
        assert!(snap.counter("lp.tree_fallback.nonunique").unwrap_or(0) > 0, "{snap:?}");
        for stage in ["transform", "round", "extract", "verify"] {
            let h = snap
                .histogram(&format!("span.{stage}.ms"))
                .unwrap_or_else(|| panic!("missing span.{stage}.ms in {snap:?}"));
            assert_eq!(h.count, 3, "stage {stage}");
        }
        // Nesting: the outer solve span dominates every stage's total.
        let solve = snap.histogram("span.solve.ms").unwrap();
        let lp = snap.histogram("span.lp.ms").unwrap();
        assert!(solve.max >= lp.max);
        // End-to-end engine latency is split: real solves in
        // `engine.solve_ms`, the cache hit in `engine.cache_hit_ms`.
        assert_eq!(snap.histogram("engine.solve_ms").unwrap().count, 3);
        assert_eq!(snap.histogram("engine.cache_hit_ms").unwrap().count, 1);
    }

    #[test]
    fn observe_disabled_leaves_registry_empty() {
        let engine = Engine::new(EngineConfig::default().workers(1).observe(false));
        let batch = engine.solve_batch(&small_corpus(), &SolverOptions::exact());
        assert_eq!(batch.report.solved, 4);
        let snap = engine.registry().snapshot();
        assert!(snap.counters.is_empty(), "{snap:?}");
        assert!(snap.histograms.is_empty(), "{snap:?}");
    }

    #[test]
    fn trace_buffer_collects_nested_stage_events() {
        let trace = std::sync::Arc::new(obs::TraceBuffer::new());
        let engine = Engine::new(EngineConfig::default().workers(1))
            .with_trace(std::sync::Arc::clone(&trace));
        engine.solve_batch(&small_corpus(), &SolverOptions::exact());
        let events = trace.events();
        // Two tree-solved solves × 7 spans, one simplex fallback × 8
        // spans (its declined tree attempt is `lp.tree_declined`), and
        // the infeasible instance × 3 spans (the tree DP proves
        // infeasibility inside its `lp` span); the cache hit skips the
        // solver entirely.
        assert_eq!(events.len(), 25, "{events:?}");
        let json = trace.to_chrome_json();
        assert!(json.contains("\"name\":\"solve\""));
        assert!(json.contains("\"name\":\"lp\""));
        assert!(json.contains("\"name\":\"lp.tree_declined\""));
        assert!(json.contains("\"ph\":\"X\""));
    }

    #[test]
    fn totals_accumulate_across_batches() {
        let engine = Engine::new(EngineConfig::default().workers(2));
        engine.solve_batch(&small_corpus(), &SolverOptions::exact());
        engine.solve_batch(&small_corpus(), &SolverOptions::exact());
        let totals = engine.totals();
        assert_eq!(totals, EngineTotals { solved: 8, infeasible: 2, timed_out: 0, failed: 0 });
        assert_eq!(totals.total(), 10);
    }

    /// 8 roots, 24 jobs: over the Auto floor, and the subtree shape
    /// repeats so normalized shard cache keys must collide.
    fn eight_roots() -> Instance {
        let mut jobs = Vec::new();
        for k in 0..8i64 {
            let base = 12 * k;
            jobs.push((base, base + 8, 2));
            jobs.push((base + 1, base + 4, 1));
            jobs.push((base + 5, base + 7, 1));
        }
        inst(2, jobs)
    }

    #[test]
    fn sharded_solve_matches_monolith_and_hits_shard_cache() {
        use atsched_core::solver::ShardMode;
        let many_root = eight_roots();
        let opts = SolverOptions::exact();
        assert_eq!(opts.shard, ShardMode::Auto);

        // One worker makes the shard cache interplay deterministic:
        // with parallel workers identical shards can all be looked up
        // before the first insert lands (legitimate misses).
        let engine = Engine::new(EngineConfig::default().workers(1));
        let outcome = engine.solve_one(&many_root, &opts);
        let item = outcome.as_solved().expect("solved");
        let seq = solve_nested(&many_root, &opts).unwrap();
        item.result.schedule.verify(&many_root).unwrap();
        assert_eq!(item.result.stats.opened_slots, seq.stats.opened_slots);
        assert_eq!(item.result.stats.active_slots, seq.stats.active_slots);
        assert_eq!(item.result.stats.lp_objective_exact, seq.stats.lp_objective_exact);

        let snap = engine.registry().snapshot();
        assert_eq!(snap.counter("engine.shards"), Some(8));
        // 8 identical normalized shards: one real solve, 7 shard hits.
        assert_eq!(snap.counter("engine.shard_cache_hits"), Some(7), "{snap:?}");
        assert_eq!(snap.histogram("span.solve.decompose.ms").map(|h| h.count), Some(1));
        assert_eq!(snap.histogram("span.solve.merge.ms").map(|h| h.count), Some(1));

        // The merged result is memoized under the whole-instance key:
        // an immediate re-solve is a cache hit, not a re-shard.
        let again = engine.solve_one(&many_root, &opts);
        assert!(again.as_solved().unwrap().cached);
        assert_eq!(engine.registry().snapshot().counter("engine.shards"), Some(8));

        // shard=off on a fresh engine produces the same objectives.
        let off = SolverOptions { shard: ShardMode::Off, ..SolverOptions::exact() };
        let mono = Engine::new(EngineConfig::default()).solve_one(&many_root, &off);
        let mono = mono.as_solved().expect("solved");
        assert_eq!(mono.result.stats.opened_slots, item.result.stats.opened_slots);
        assert_eq!(mono.result.stats.active_slots, item.result.stats.active_slots);
    }

    #[test]
    fn budgeted_solves_keep_the_shard_cache() {
        let engine =
            Engine::new(EngineConfig::default().workers(1).timeout(Duration::from_secs(60)));
        assert!(engine.solve_one(&eight_roots(), &SolverOptions::exact()).is_solved());
        let snap = engine.registry().snapshot();
        assert_eq!(snap.counter("engine.shard_cache_hits"), Some(7), "{snap:?}");
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let corpus = small_corpus();
        let opts = SolverOptions::exact();
        let reference = Engine::new(EngineConfig::default().workers(1)).solve_batch(&corpus, &opts);
        for workers in [2, 4, 8] {
            let batch =
                Engine::new(EngineConfig::default().workers(workers)).solve_batch(&corpus, &opts);
            for (i, (a, b)) in reference.outcomes.iter().zip(&batch.outcomes).enumerate() {
                match (a, b) {
                    (Outcome::Solved(x), Outcome::Solved(y)) => {
                        assert_eq!(x.result.schedule, y.result.schedule, "item {i}")
                    }
                    (Outcome::Infeasible, Outcome::Infeasible) => {}
                    other => panic!("outcome mismatch at {i}: {other:?}"),
                }
            }
        }
    }
}
