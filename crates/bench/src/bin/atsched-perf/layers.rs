//! Per-layer metrics of a traced run, and the checks that reconcile
//! them with each other.
//!
//! Every number is measured by the benchmark itself: around calls into
//! public functions, from values those calls return, or from counters
//! read by name from a registry. Counters are looked up by name at run
//! time, so a renamed counter makes its metric report `null` (absent)
//! rather than break the build.

use crate::stats::Samples;
use crate::trace::{SpanRec, Spans};
use crate::workloads::{History, Phase, ReplaySet, REPLAY_MAX, WORKERS};
use atsched_core::decompose::{decompose, merge};
use atsched_core::solver::{solve_nested, SolverOptions};
use atsched_engine::{Engine, EngineConfig};
use atsched_obs::{self as obs, Collector, Registry, RegistrySnapshot};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Span lane of the in-process replays (client lanes are 0..CLIENTS).
const REPLAY_LANE: u64 = 100;
/// Op ids of replayed solves start here, clear of the measured ops.
const REPLAY_OP: u64 = 1 << 60;

/// A reconciliation check of the traced run.
#[derive(Debug, Clone)]
pub struct Check {
    /// Stable check name.
    pub name: &'static str,
    /// `None` when the run had nothing to check.
    pub ok: Option<bool>,
    /// What was compared.
    pub detail: String,
}

/// Per-layer result of a traced run.
#[derive(Debug, Default)]
pub struct Layers {
    /// Metric values by name; `None` is absent (its counters never
    /// appeared).
    pub metrics: BTreeMap<&'static str, Option<f64>>,
    /// Sample count behind each timing metric family.
    pub counts: Vec<(&'static str, usize)>,
    /// Reconciliation checks.
    pub checks: Vec<Check>,
    /// Spans of the replays.
    pub spans: Vec<SpanRec>,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, Some(value));
    }

    fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        self.metrics.insert(name, value);
    }

    /// `<name>.p50` and `<name>.p99` of `samples` (0 without samples).
    fn timing(&mut self, p50: &'static str, p99: &'static str, samples: &mut Samples) {
        self.set(p50, samples.pct_or_zero(50));
        self.set(p99, samples.pct_or_zero(99));
        self.counts.push((p50.trim_end_matches(".p50"), samples.len()));
    }

    /// Like [`timing`](Self::timing), absent when `present` is false.
    fn timing_if(&mut self, p50: &'static str, p99: &'static str, s: &mut Samples, present: bool) {
        self.timing(p50, p99, s);
        if !present {
            self.metrics.insert(p50, None);
            self.metrics.insert(p99, None);
        }
    }

    fn check(&mut self, name: &'static str, ok: Option<bool>, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Counter movement between two registry snapshots, by name.
struct Delta<'a> {
    before: &'a RegistrySnapshot,
    after: &'a RegistrySnapshot,
}

impl Delta<'_> {
    fn get(&self, name: &str) -> u64 {
        self.after.counter(name).unwrap_or(0) - self.before.counter(name).unwrap_or(0)
    }

    /// Summed over every counter whose name starts with `prefix`.
    fn prefixed(&self, prefix: &str) -> u64 {
        let sum = |s: &RegistrySnapshot| -> u64 {
            s.counters.iter().filter(|(k, _)| k.starts_with(prefix)).map(|(_, v)| v).sum()
        };
        sum(self.after) - sum(self.before)
    }
}

/// Whether any counter named `name`, or starting with a `prefixes`
/// entry, exists in `snap`.
fn seen(snap: &RegistrySnapshot, names: &[&str], prefixes: &[&str]) -> bool {
    snap.counters
        .iter()
        .any(|(k, _)| names.contains(&k.as_str()) || prefixes.iter().any(|p| k.starts_with(p)))
}

/// Per-layer metrics of a traced run: `phase` is the traced measured
/// phase, `replay` what the workload's harness handed over for the
/// in-process replays, `untraced_p50` the untraced phase's `p50_ms`.
pub fn measure(
    phase: &mut Phase,
    replay: &ReplaySet,
    untraced_p50: f64,
    traced_p50: f64,
) -> Layers {
    let mut layers = Layers::default();
    let origin = Instant::now();
    let mut spans = Spans::new(Some(origin), REPLAY_LANE);

    serve(&mut layers, phase, untraced_p50, traced_p50);
    core_and_lp(&mut layers, &replay.trees, &mut spans);
    shards(&mut layers, replay, &mut spans);
    sessions(&mut layers, &replay.histories, &mut spans);
    layers.set("engine.parallel_eff", parallel_eff(&replay.batches));

    // Replay spans are timed from this function's own origin; shift
    // them after the measured phase's spans on the shared timeline.
    let offset = phase.spans.iter().map(|s| s.start_us + s.dur_us).fold(0.0, f64::max);
    layers.spans =
        spans.spans.into_iter().map(|s| SpanRec { start_us: s.start_us + offset, ..s }).collect();
    layers
}

fn serve(layers: &mut Layers, phase: &mut Phase, untraced_p50: f64, traced_p50: f64) {
    layers.timing("serve.rtt_ms.p50", "serve.rtt_ms.p99", &mut phase.rtt);
    layers.timing("serve.overhead_ms.p50", "serve.overhead_ms.p99", &mut phase.overhead);
    layers.timing("serve.health_rtt_ms.p50", "serve.health_rtt_ms.p99", &mut phase.health);
    let (hits, misses) = phase.cache.unwrap_or((0, 0));
    layers.set("serve.cache_hit_frac", ratio(hits, hits + misses));
    layers.timing("engine.solve_ms.p50", "engine.solve_ms.p99", &mut phase.solve);
    let overhead =
        if untraced_p50 > 0.0 { (traced_p50 - untraced_p50) / untraced_p50 * 100.0 } else { 0.0 };
    layers.set("trace.overhead_pct", overhead);

    // `overhead_ms` is rtt − elapsed per op, so rtt = overhead + solve
    // holds by definition; what can fail is a reply whose server-side
    // time exceeds its own round trip.
    match phase.overhead.min() {
        None => layers.check("serve.solve_within_rtt", None, "no round trips".into()),
        Some(min) => {
            let detail = format!("{} ops, min overhead {min:.4} ms", phase.overhead.len());
            layers.check("serve.solve_within_rtt", Some(min >= 0.0), detail);
        }
    }
}

/// In-process `solve_nested` replay of the workload's trees: each tree
/// is solved once timed, with no collector installed, and once counted,
/// under a collector with a registry snapshot before and after.
///
/// Timing without a collector keeps span bookkeeping (two histogram
/// records per stage span, outside the stage clocks) out of the
/// wall − Σ stages gap, so on a declined solve the gap is the discarded
/// tree attempt and not instrumentation.
fn core_and_lp(layers: &mut Layers, trees: &[atsched_core::Instance], spans: &mut Spans) {
    let registry = Arc::new(Registry::new());
    let opts = SolverOptions::default();
    let mut wall = Samples::new();
    let mut stages: [Samples; 6] = Default::default();
    let mut gap = Samples::new();
    let (mut tree_lp, mut simplex_lp, mut declined) =
        (Samples::new(), Samples::new(), Samples::new());
    let (mut tree_gap, mut tree_wall) = (Samples::new(), Samples::new());
    let (mut tree, mut fallback, mut verified, mut hybrid_fallbacks) = (0u64, 0u64, 0u64, 0u64);
    let (mut pivots, mut augmenting, mut solves) = (0u64, 0u64, 0u64);

    let mut before = registry.snapshot();
    for (i, inst) in trees.iter().enumerate() {
        let start = Instant::now();
        let res = solve_nested(inst, &opts);
        let elapsed = start.elapsed();
        let collector = Collector::new(Arc::clone(&registry));
        obs::with_collector(collector, || solve_nested(inst, &opts).map(drop)).ok();
        let after = registry.snapshot();
        let d = Delta { before: &before, after: &after };
        let Ok(res) = res else {
            before = after;
            continue;
        };
        solves += 1;
        let t = res.stats.timings;
        let parts = [t.canonicalize, t.lp, t.transform, t.round, t.extract, t.verify];
        let wall_ms = ms(elapsed);
        let stage_ms: f64 = parts.iter().map(|&p| ms(p)).sum();
        wall.push(wall_ms);
        gap.push(wall_ms - stage_ms);
        for (samples, &p) in stages.iter_mut().zip(&parts) {
            samples.push(ms(p));
        }
        let is_tree = d.get("lp.tree_solved") > 0;
        let is_fallback = d.prefixed("lp.tree_fallback.") > 0;
        tree += u64::from(is_tree);
        fallback += u64::from(is_fallback);
        if is_tree {
            tree_lp.push(ms(t.lp));
            tree_gap.push(wall_ms - stage_ms);
            tree_wall.push(wall_ms);
        } else if is_fallback {
            // `timings.lp` restarts after a declined tree attempt; the
            // attempt lands in the wall-minus-stages gap.
            simplex_lp.push(ms(t.lp));
            declined.push(wall_ms - stage_ms);
        }
        verified += d.get("lp.hybrid_verified");
        hybrid_fallbacks += d.get("lp.hybrid_fallbacks");
        pivots += d.get("lp.pivots");
        augmenting += d.get("flow.augmenting_paths");

        let op = REPLAY_OP + i as u64;
        spans.record_dur("core.solve", op, start, elapsed);
        let mut at = start;
        for (name, &p) in CORE_SPANS.iter().zip(&parts) {
            spans.record_dur(name, op, at, p);
            at += p;
        }
        before = after;
    }

    let names: [(&str, &str, &str); 6] = [
        ("core.canonicalize_ms.p50", "core.canonicalize_ms.p99", "core.canonicalize_share"),
        ("core.lp_ms.p50", "core.lp_ms.p99", "core.lp_share"),
        ("core.transform_ms.p50", "core.transform_ms.p99", "core.transform_share"),
        ("core.round_ms.p50", "core.round_ms.p99", "core.round_share"),
        ("core.extract_ms.p50", "core.extract_ms.p99", "core.extract_share"),
        ("core.verify_ms.p50", "core.verify_ms.p99", "core.verify_share"),
    ];
    let wall_sum = wall.sum();
    for ((p50, p99, share), samples) in names.iter().zip(stages.iter_mut()) {
        let stage_total = samples.sum();
        layers.timing(p50, p99, samples);
        layers.set(share, if wall_sum > 0.0 { stage_total / wall_sum } else { 0.0 });
    }
    layers.timing("core.solve_ms.p50", "core.solve_ms.p99", &mut wall);
    layers.timing("core.unattributed_ms.p50", "core.unattributed_ms.p99", &mut gap);

    let snap = registry.snapshot();
    let tree_seen = seen(&snap, &["lp.tree_solved"], &["lp.tree_fallback."]);
    layers.set_opt("lp.tree_frac", tree_seen.then(|| ratio(tree, tree + fallback)));
    layers.timing_if("lp.tree_ms.p50", "lp.tree_ms.p99", &mut tree_lp, tree_seen);
    layers.timing_if("lp.simplex_ms.p50", "lp.simplex_ms.p99", &mut simplex_lp, tree_seen);
    layers.timing_if(
        "lp.tree_declined_ms.p50",
        "lp.tree_declined_ms.p99",
        &mut declined,
        tree_seen,
    );
    // The simplex runs exactly on the declined solves; without any, its
    // counters are legitimately missing.
    let simplex_seen = |names: &[&str]| fallback == 0 || seen(&snap, names, &[]);
    layers.set_opt(
        "lp.hybrid_fallback_frac",
        simplex_seen(&["lp.hybrid_verified", "lp.hybrid_fallbacks"])
            .then(|| ratio(hybrid_fallbacks, verified + hybrid_fallbacks)),
    );
    layers.set_opt(
        "lp.pivots_per_solve",
        simplex_seen(&["lp.pivots"]).then(|| ratio(pivots, solves)),
    );
    layers.set_opt(
        "flow.augmenting_paths_per_solve",
        seen(&snap, &["flow.augmenting_paths"], &[]).then(|| ratio(augmenting, solves)),
    );

    // Unattributed time is wall − Σ stages per solve, so Σ stages +
    // unattributed = wall holds by definition; what can fail is a stage
    // counted twice, which makes some solve's stages outlast its wall.
    match gap.min() {
        None => layers.check("core.stages_within_wall", None, "no replayed solves".into()),
        Some(min) => {
            let detail = format!("{} solves, min unattributed {min:.5} ms", gap.len());
            layers.check("core.stages_within_wall", Some(min >= 0.0), detail);
        }
    }
    // On tree-solved instances nothing is discarded, so the stage clocks
    // must cover nearly all of the solve: the gap on declined solves is
    // then the discarded tree attempt plus this small residual (result
    // assembly outside the stage clocks).
    match (tree_gap.percentile(50), tree_wall.percentile(50)) {
        (Some(g), Some(w)) => {
            let detail = format!(
                "tree-solved unattributed p50 {g:.5} ms vs their solve p50 {w:.5} ms \
                 ({} solves; tree lp p50 {:.5} ms)",
                tree_gap.len(),
                tree_lp.pct_or_zero(50),
            );
            layers.check("core.tree_gap_under_5pct_of_solve", Some(g < 0.05 * w), detail);
        }
        _ => {
            layers.check("core.tree_gap_under_5pct_of_solve", None, "no tree-solved solves".into())
        }
    }
}

/// Span names of the replayed stages, in `StageTimings` pipeline order.
const CORE_SPANS: [&str; 6] =
    ["core.canonicalize", "core.lp", "core.transform", "core.round", "core.extract", "core.verify"];

/// Timed `decompose` / `merge` over the workload's multi-root instances.
fn shards(layers: &mut Layers, replay: &ReplaySet, spans: &mut Spans) {
    let opts = SolverOptions::default();
    let (mut split, mut join) = (Samples::new(), Samples::new());
    let mut broken = 0usize;
    for (i, inst) in replay.forests.iter().enumerate() {
        let op = REPLAY_OP + (1 << 40) + i as u64;
        let start = Instant::now();
        let Ok(dec) = decompose(inst) else {
            broken += 1;
            continue;
        };
        let took = start.elapsed();
        split.push(ms(took));
        spans.record_dur("engine.shard.decompose", op, start, took);
        let parts: Result<Vec<_>, _> =
            dec.shards.iter().map(|s| solve_nested(&s.instance, &opts)).collect();
        let Ok(parts) = parts else {
            broken += 1;
            continue;
        };
        let start = Instant::now();
        let merged = merge(inst, &dec, &parts);
        let took = start.elapsed();
        join.push(ms(took));
        spans.record_dur("engine.shard.merge", op, start, took);
        broken += usize::from(merged.schedule.verify(inst).is_err());
    }
    layers.timing("engine.shard.decompose_ms.p50", "engine.shard.decompose_ms.p99", &mut split);
    layers.timing("engine.shard.merge_ms.p50", "engine.shard.merge_ms.p99", &mut join);
    layers.set("engine.shards_per_instance", replay.shards_per_instance);
    let detail = format!("{} instances decomposed, {broken} failed", replay.forests.len());
    let ok = (!replay.forests.is_empty()).then_some(broken == 0);
    layers.check("engine.shard.merge_verifies", ok, detail);
}

/// In-process `Session::amend` replay of the recorded amend streams on
/// an engine configured like the server's.
fn sessions(layers: &mut Layers, histories: &[History], spans: &mut Spans) {
    let engine = Engine::new(EngineConfig::default().workers(WORKERS));
    let opts = SolverOptions::default();
    let mut amend_ms = Samples::new();
    let (mut reused, mut solved, mut warm_hits, mut warm_misses, mut cache_hits, mut amends) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let mut budget = REPLAY_MAX;
    for h in histories {
        if budget == 0 {
            break;
        }
        let session = engine.open_session(h.initial.clone(), &opts);
        for spec in h.deltas.iter().take(budget) {
            budget -= 1;
            let before = engine.registry().snapshot();
            let start = Instant::now();
            let outcome = session.amend(&spec.to_delta());
            let took = start.elapsed();
            let after = engine.registry().snapshot();
            if outcome.is_err() {
                continue;
            }
            let d = Delta { before: &before, after: &after };
            amend_ms.push(ms(took));
            spans.record_dur("session.amend", REPLAY_OP + (2 << 40) + amends, start, took);
            amends += d.get("engine.amends");
            reused += d.get("engine.amend_shards_reused");
            solved += d.get("engine.amend_shards_solved");
            warm_hits += d.get("engine.amend_warm_hits");
            warm_misses += d.get("engine.amend_warm_misses");
            cache_hits += d.get("engine.shard_cache_hits");
        }
        engine.close_session(session.id());
    }
    let snap = engine.registry().snapshot();
    let ran = !amend_ms.is_empty();
    let present = |name: &str| !ran || snap.counter(name).is_some();
    layers.timing("session.amend_ms.p50", "session.amend_ms.p99", &mut amend_ms);
    let reuse_seen = present("engine.amend_shards_reused") && present("engine.amend_shards_solved");
    layers.set_opt("session.reuse_frac", reuse_seen.then(|| ratio(reused, reused + solved)));
    layers.set_opt(
        "session.dirty_per_amend",
        (present("engine.amends") && present("engine.amend_shards_solved"))
            .then(|| ratio(solved, amends)),
    );
    layers.set_opt(
        "session.dirty_cache_hit_frac",
        present("engine.amend_shards_solved").then(|| ratio(cache_hits, cache_hits + solved)),
    );
    layers.set_opt(
        "session.warm_hit_frac",
        (present("engine.amend_warm_hits") && present("engine.amend_warm_misses"))
            .then(|| ratio(warm_hits, warm_hits + warm_misses)),
    );
}

/// Σ single-thread replay wall / (batch wall × workers) over recorded
/// batches, each replayed as a batch on the workload's engine
/// configuration and then one instance at a time on one worker, back
/// to back so a drift in host speed hits both sides alike: 1 is perfect
/// scaling of the batch over the pool.
fn parallel_eff(batches: &[Vec<atsched_core::Instance>]) -> f64 {
    let pool = Engine::new(EngineConfig::default().cache(false).workers(WORKERS));
    let one = Engine::new(EngineConfig::default().cache(false).workers(1));
    let opts = SolverOptions::default();
    let (mut single, mut parallel) = (Duration::ZERO, Duration::ZERO);
    for insts in batches {
        let start = Instant::now();
        pool.solve_batch(insts, &opts);
        parallel += start.elapsed();
        for inst in insts {
            let start = Instant::now();
            one.solve_one(inst, &opts);
            single += start.elapsed();
        }
    }
    if parallel.is_zero() {
        0.0
    } else {
        single.as_secs_f64() / (parallel.as_secs_f64() * WORKERS as f64)
    }
}
