//! Root-parallel solving: split a multi-root instance at its laminar
//! forest roots, solve the trees on worker threads, and merge.
//!
//! The decomposition itself lives in [`atsched_core::decompose`]; this
//! module is the driver side: the *policy* deciding when sharding
//! applies ([`plan`]), the options a root is solved under
//! ([`shard_options`]), and the one fan-out and combine every root solve
//! runs. The engine's root solve (behind `Engine::solve_one`,
//! `Engine::open_session` and `Session::amend`) passes its solve cache,
//! giving root-level cache keys: identical subtree shapes (normalized to
//! start at slot 0) hit regardless of where in time they occurred.
//! [`solve_nested_sharded`] is the cache-less caller used by the `Solve`
//! facade and the CLI.
//!
//! Observability: the decomposition is timed under a `solve.decompose`
//! span, the reassembly under `solve.merge`, each root answered by the
//! cache bumps `engine.shard_cache_hits`, and each merged solve bumps
//! the `engine.shards` counter by its root count.

use crate::cache::{CacheKey, SolveCache};
use crate::par::par_map_workers;
use atsched_core::decompose::{decompose, merge, Decomposition};
use atsched_core::instance::Instance;
use atsched_core::rounding::RoundingChoice;
use atsched_core::solver::{solve_nested, ShardMode, SolveError, SolveResult, SolverOptions};
use atsched_obs as obs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Minimum job count before [`ShardMode::Auto`] decomposes. Below this
/// the per-shard LPs are already tiny and the thread fan-out costs more
/// than it saves; `force` ignores the floor.
pub const AUTO_MIN_JOBS: usize = 24;

/// Decide whether `inst` should be solved shard-parallel under `opts`;
/// returns the decomposition when it should.
///
/// Sharding applies when the shard mode allows it, the rounding rule is
/// tree-local (`Shuffled` advances one global RNG across the forest, so
/// it is never sharded — not even under `force`), the instance is
/// laminar, and it actually has ≥ 2 roots. `Auto` additionally requires
/// [`AUTO_MIN_JOBS`] jobs. Non-laminar instances return `None` so the
/// monolithic path reports the validation error.
pub fn plan(inst: &Instance, opts: &SolverOptions) -> Option<Decomposition> {
    if opts.shard == ShardMode::Off {
        return None;
    }
    if matches!(opts.round_choice, RoundingChoice::Shuffled(_)) {
        return None;
    }
    if opts.shard == ShardMode::Auto && inst.num_jobs() < AUTO_MIN_JOBS {
        return None;
    }
    let span = obs::Span::enter("solve.decompose");
    let dec = decompose(inst).ok();
    drop(span);
    dec.filter(|d| d.len() >= 2)
}

/// The options each shard is solved under: the same pipeline with
/// sharding disabled (a shard is single-rooted, and a distinct options
/// fingerprint keeps shard cache entries apart from whole-instance
/// entries).
pub fn shard_options(opts: &SolverOptions) -> SolverOptions {
    SolverOptions { shard: ShardMode::Off, ..opts.clone() }
}

/// One unit's deterministic result. Results are shared, so a splice or
/// a cache hit is a pointer copy.
pub(crate) type Part = Result<Arc<SolveResult>, SolveError>;

/// An instance split into the units of a root solve: one normalized
/// shard per forest root, under [`shard_options`], when [`plan`]
/// decomposes it; else the whole instance under its own options.
///
/// A split owns its instance, so a budgeted solve can move it onto its
/// helper thread.
#[derive(Debug)]
pub(crate) struct Split {
    inst: Instance,
    dec: Option<Decomposition>,
    opts: SolverOptions,
}

impl Split {
    pub(crate) fn new(inst: Instance, opts: &SolverOptions) -> Self {
        let dec = plan(&inst, opts);
        let opts = if dec.is_some() { shard_options(opts) } else { opts.clone() };
        Split { inst, dec, opts }
    }

    /// Whether the instance split at its roots.
    pub(crate) fn is_decomposed(&self) -> bool {
        self.dec.is_some()
    }

    /// The units, in root order.
    pub(crate) fn units(&self) -> Vec<&Instance> {
        match &self.dec {
            Some(dec) => dec.shards.iter().map(|s| &s.instance).collect(),
            None => vec![&self.inst],
        }
    }

    /// Resolve every empty slot on up to `workers` threads (`0` = one
    /// per core), then combine the units in root order.
    ///
    /// `slots` is positionally parallel to [`Split::units`]; filled
    /// slots (a session's splices) are kept as they are. With a `cache`,
    /// each root unit is looked up first and every solved unit is
    /// inserted under its key. An undecomposed unit is not looked up:
    /// its key is the whole instance's, which `Engine::solve_one` has
    /// already looked up.
    ///
    /// The caller's metric collector (if any) is re-installed on the
    /// fan-out threads, so per-root solver spans and counters land in
    /// the same registry as a monolithic solve.
    ///
    /// Returns the combined result, every unit's result and the number
    /// of units the cache answered. The first failing unit in root order
    /// wins, matching what the monolithic solve would report.
    pub(crate) fn solve(
        &self,
        mut slots: Vec<Option<Part>>,
        workers: usize,
        cache: Option<&SolveCache>,
    ) -> (Part, Vec<Part>, u64) {
        let units = self.units();
        let cold: Vec<usize> = (0..units.len()).filter(|&i| slots[i].is_none()).collect();
        let collector = obs::current_collector();
        let hits = AtomicU64::new(0);
        let solved = par_map_workers(cold.clone(), workers, |i| {
            let run = || {
                let keyed = cache.map(|cache| (cache, CacheKey::new(units[i], &self.opts)));
                if let Some((cache, key)) = keyed.as_ref().filter(|_| self.is_decomposed()) {
                    if let Some(found) = cache.get(key) {
                        obs::counter_add("engine.shard_cache_hits", 1);
                        hits.fetch_add(1, Ordering::Relaxed);
                        return found;
                    }
                }
                let part = solve_nested(units[i], &self.opts).map(Arc::new);
                if let Some((cache, key)) = keyed {
                    cache.insert(key, part.clone());
                }
                part
            };
            match &collector {
                Some(c) => obs::with_collector(c.clone(), run),
                None => run(),
            }
        });
        for (i, part) in cold.into_iter().zip(solved) {
            slots[i] = Some(part);
        }
        let parts: Vec<Part> = slots.into_iter().map(|s| s.expect("every unit resolved")).collect();
        (self.combine(&parts), parts, hits.into_inner())
    }

    fn combine(&self, parts: &[Part]) -> Part {
        let Some(dec) = &self.dec else {
            return parts[0].clone();
        };
        let parts: Vec<&SolveResult> = parts
            .iter()
            .map(|p| p.as_deref().map_err(SolveError::clone))
            .collect::<Result<_, _>>()?;
        let span = obs::Span::enter("solve.merge");
        let merged = merge(&self.inst, dec, &parts);
        drop(span);
        obs::counter_add("engine.shards", dec.len() as u64);
        Ok(Arc::new(merged))
    }
}

/// Shard-aware drop-in for [`solve_nested`]: decompose-and-merge when
/// [`plan`] says so, the plain monolithic solve otherwise. No caching —
/// the engine's root solve adds that.
pub fn solve_nested_sharded(
    inst: &Instance,
    opts: &SolverOptions,
) -> Result<SolveResult, SolveError> {
    let split = Split::new(inst.clone(), opts);
    let (combined, parts, _) = split.solve(vec![None; split.units().len()], 0, None);
    drop(parts); // the last other owner of an undecomposed result
    combined.map(Arc::unwrap_or_clone)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atsched_core::instance::Job;

    /// `roots` copies of a 3-job subtree at disjoint offsets: 3·roots
    /// jobs, `roots` forest roots.
    fn many_root(roots: usize) -> Instance {
        let mut jobs = Vec::new();
        for k in 0..roots as i64 {
            let base = 12 * k;
            jobs.push(Job::new(base, base + 8, 2));
            jobs.push(Job::new(base + 1, base + 4, 1));
            jobs.push(Job::new(base + 5, base + 7, 1));
        }
        Instance::new(2, jobs).unwrap()
    }

    #[test]
    fn plan_respects_mode_rounding_and_size() {
        let big = many_root(10); // 30 jobs, 10 roots
        let small = many_root(2); // 6 jobs, 2 roots
        let auto = SolverOptions::exact();
        assert!(auto.shard == ShardMode::Auto);
        assert!(plan(&big, &auto).is_some());
        assert!(plan(&small, &auto).is_none(), "Auto respects the job floor");

        let force = SolverOptions { shard: ShardMode::Force, ..SolverOptions::exact() };
        assert_eq!(plan(&small, &force).map(|d| d.len()), Some(2));

        let off = SolverOptions { shard: ShardMode::Off, ..SolverOptions::exact() };
        assert!(plan(&big, &off).is_none());

        let shuffled = SolverOptions {
            shard: ShardMode::Force,
            round_choice: RoundingChoice::Shuffled(7),
            ..SolverOptions::exact()
        };
        assert!(plan(&big, &shuffled).is_none(), "global-RNG rounding never shards");

        // Single root: nothing to decompose.
        let single = Instance::new(2, vec![Job::new(0, 9, 2), Job::new(1, 5, 1)]).unwrap();
        assert!(plan(&single, &force).is_none());
    }

    #[test]
    fn sharded_matches_monolith_objectives() {
        for roots in [2usize, 3, 8] {
            let inst = many_root(roots);
            let opts = SolverOptions { shard: ShardMode::Force, ..SolverOptions::exact() };
            let whole = solve_nested(&inst, &opts).unwrap();
            let sharded = solve_nested_sharded(&inst, &opts).unwrap();
            sharded.schedule.verify(&inst).unwrap();
            assert_eq!(sharded.stats.opened_slots, whole.stats.opened_slots, "roots={roots}");
            assert_eq!(sharded.stats.active_slots, whole.stats.active_slots, "roots={roots}");
            assert_eq!(
                sharded.stats.lp_objective_exact, whole.stats.lp_objective_exact,
                "roots={roots}"
            );
        }
    }

    #[test]
    fn sharded_error_is_deterministic_first_root() {
        // Second root infeasible: the sharded path reports exactly what
        // the monolith would.
        let inst = Instance::new(
            1,
            vec![
                Job::new(0, 4, 2),
                Job::new(6, 8, 1),
                Job::new(6, 8, 1),
                Job::new(6, 8, 1),
                Job::new(10, 13, 1),
            ],
        )
        .unwrap();
        let opts = SolverOptions { shard: ShardMode::Force, ..SolverOptions::exact() };
        assert!(matches!(solve_nested_sharded(&inst, &opts), Err(SolveError::Infeasible)));
        assert!(matches!(solve_nested(&inst, &opts), Err(SolveError::Infeasible)));
    }

    #[test]
    fn spans_and_counters_are_recorded_under_a_collector() {
        use std::sync::Arc;
        let reg = Arc::new(obs::Registry::new());
        let inst = many_root(4);
        let opts = SolverOptions { shard: ShardMode::Force, ..SolverOptions::exact() };
        obs::with_collector(obs::Collector::new(Arc::clone(&reg)), || {
            solve_nested_sharded(&inst, &opts).unwrap();
        });
        let snap = reg.snapshot();
        assert_eq!(snap.histogram("span.solve.decompose.ms").map(|h| h.count), Some(1));
        assert_eq!(snap.histogram("span.solve.merge.ms").map(|h| h.count), Some(1));
        assert_eq!(snap.counter("engine.shards"), Some(4));
        // Per-shard solver spans landed too (one "solve" per shard).
        assert_eq!(snap.histogram("span.solve.ms").map(|h| h.count), Some(4));
    }
}
