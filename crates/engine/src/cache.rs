//! Solve memoization cache.
//!
//! Experiment corpora routinely contain repeated instances (seed sweeps
//! over small grids, duplicated stress cases, re-solves under the same
//! options). Solving is deterministic given an instance and options, so
//! repeats can be answered from memory.
//!
//! The key is the instance's **full content** — `g` plus the exact job
//! sequence — together with a fingerprint of the solver options. Keying
//! by content rather than by a hash alone means a collision can never
//! hand back the wrong schedule; the `HashMap` underneath still gives
//! O(1) expected lookups. The job *sequence* (not the sorted multiset)
//! is deliberate: `SolveResult` assignments refer to jobs by index, so a
//! result is only valid for the exact order it was solved under.
//!
//! Results are stored as shared `Arc` parts: a hit is a pointer copy, and
//! a root result held by a session's part table is stored once.

use crate::shard::Part;
use atsched_core::instance::{Instance, Job};
use atsched_core::solver::SolverOptions;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default bound on memoized entries. Under sustained serve traffic the
/// cache would otherwise grow without limit; at this size the resident
/// set stays modest while seed-sweep workloads still hit repeatedly.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Cache key: solver-options fingerprint + full instance content.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    /// `Debug` rendering of [`SolverOptions`] — covers every field, so
    /// two option sets collide only when they are behaviorally
    /// identical.
    opts: String,
    g: i64,
    jobs: Vec<Job>,
}

impl CacheKey {
    pub(crate) fn new(inst: &Instance, opts: &SolverOptions) -> Self {
        CacheKey { opts: format!("{opts:?}"), g: inst.g, jobs: inst.jobs.clone() }
    }
}

/// Hit/miss/eviction counters, cheap to snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a real solve.
    pub misses: u64,
    /// Entries displaced to stay within the capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 when there were no lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter-wise difference (`self - earlier`), for per-batch deltas.
    pub fn since(&self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }
}

/// Map plus FIFO insertion order, updated together under one lock.
#[derive(Debug, Default)]
struct CacheTable {
    map: HashMap<CacheKey, Part>,
    /// Keys in insertion order; the front is the next eviction victim.
    order: VecDeque<CacheKey>,
}

/// Thread-safe, capacity-bounded memoization table for deterministic
/// solve outcomes.
///
/// Only deterministic outcomes are stored (solved, infeasible, instance
/// or LP errors); timeouts and panics are transient and never cached.
/// When the table is full the oldest insertion is evicted (FIFO — cheap,
/// and adequate because repeat traffic in experiment corpora arrives in
/// bursts close to the first solve).
#[derive(Debug)]
pub(crate) struct SolveCache {
    table: Mutex<CacheTable>,
    /// Maximum entries held; `0` disables the bound.
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for SolveCache {
    fn default() -> Self {
        SolveCache::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl SolveCache {
    /// Cache bounded to `capacity` entries (`0` = unbounded).
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        SolveCache {
            table: Mutex::new(CacheTable::default()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Look up a key, bumping the hit/miss counters.
    pub(crate) fn get(&self, key: &CacheKey) -> Option<Part> {
        let found = self.table.lock().expect("cache lock").map.get(key).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Store a deterministic outcome, evicting the oldest entries if the
    /// capacity bound would be exceeded.
    pub(crate) fn insert(&self, key: CacheKey, value: Part) {
        let mut table = self.table.lock().expect("cache lock");
        if table.map.insert(key.clone(), value).is_none() {
            table.order.push_back(key);
        }
        if self.capacity > 0 {
            while table.map.len() > self.capacity {
                let victim = table.order.pop_front().expect("order tracks map");
                table.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Snapshot the counters.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Number of cached entries.
    pub(crate) fn len(&self) -> usize {
        self.table.lock().expect("cache lock").map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atsched_core::solver::solve_nested;
    use std::sync::Arc;

    fn solve(i: &Instance, opts: &SolverOptions) -> Part {
        solve_nested(i, opts).map(Arc::new)
    }

    fn inst(g: i64, jobs: Vec<(i64, i64, i64)>) -> Instance {
        Instance::new(g, jobs.into_iter().map(|(r, d, p)| Job::new(r, d, p)).collect()).unwrap()
    }

    #[test]
    fn same_content_same_key_different_order_different_key() {
        let opts = SolverOptions::exact();
        let a = inst(2, vec![(0, 4, 2), (5, 9, 1)]);
        let b = inst(2, vec![(0, 4, 2), (5, 9, 1)]);
        let c = inst(2, vec![(5, 9, 1), (0, 4, 2)]);
        assert_eq!(CacheKey::new(&a, &opts), CacheKey::new(&b, &opts));
        assert_ne!(CacheKey::new(&a, &opts), CacheKey::new(&c, &opts));
    }

    #[test]
    fn options_are_part_of_the_key() {
        let i = inst(2, vec![(0, 4, 2)]);
        let k_exact = CacheKey::new(&i, &SolverOptions::exact());
        let k_float = CacheKey::new(&i, &SolverOptions::float());
        let k_polish = CacheKey::new(&i, &SolverOptions::exact().polished());
        assert_ne!(k_exact, k_float);
        assert_ne!(k_exact, k_polish);
    }

    mod key_distinguishes_mutations {
        //! Property (no false hits): any mutation of the instance
        //! content or of the solver-options fingerprint produces a
        //! *different* cache key, while byte-identical content produces
        //! the same key.

        use super::*;
        use atsched_core::rounding::RoundingChoice;
        use atsched_core::solver::{LpStrategy, ShardMode};
        use proptest::prelude::*;

        fn job() -> impl Strategy<Value = Job> {
            (0i64..16, 1i64..12, 1i64..6).prop_map(|(r, len, p)| Job::new(r, r + len, p.min(len)))
        }

        fn instance() -> impl Strategy<Value = Instance> {
            (1i64..5, proptest::collection::vec(job(), 1..7))
                .prop_filter_map("valid", |(g, jobs)| Instance::new(g, jobs).ok())
        }

        fn options() -> impl Strategy<Value = SolverOptions> {
            (0u8..3, any::<bool>(), any::<bool>(), any::<bool>(), 0u8..3, 3i64..6, 0u8..3).prop_map(
                |(lp, compact, use_ceiling, polish, round, depth, shard)| SolverOptions {
                    lp: match lp {
                        0 => LpStrategy::Certified,
                        1 => LpStrategy::Exact,
                        _ => LpStrategy::Float,
                    },
                    compact,
                    use_ceiling,
                    polish,
                    round_choice: match round {
                        0 => RoundingChoice::LargestFraction,
                        1 => RoundingChoice::FirstId,
                        _ => RoundingChoice::Shuffled(depth as u64),
                    },
                    ceiling_depth: depth,
                    shard: match shard {
                        0 => ShardMode::Auto,
                        1 => ShardMode::Off,
                        _ => ShardMode::Force,
                    },
                },
            )
        }

        /// Apply one of the content mutations; returns `None` when the
        /// mutation does not apply (or would not change the content).
        fn mutate_instance(inst: &Instance, which: u8, delta: i64) -> Option<Instance> {
            let delta = 1 + delta.abs() % 4;
            let mut g = inst.g;
            let mut jobs = inst.jobs.clone();
            match which {
                0 => g += delta,
                1 => jobs[0].deadline += delta,
                2 => {
                    // Shrink processing, keeping the job valid.
                    if jobs[0].processing == 1 {
                        return None;
                    }
                    jobs[0].processing -= 1;
                }
                3 => jobs.push(Job::new(0, 30, 1)),
                4 => {
                    // Reversal only mutates content when it is not a
                    // palindrome (the key is order-sensitive).
                    let mut reversed = jobs.clone();
                    reversed.reverse();
                    if reversed == jobs {
                        return None;
                    }
                    jobs = reversed;
                }
                _ => {
                    if jobs.len() < 2 {
                        return None;
                    }
                    jobs.pop();
                }
            }
            Instance::new(g, jobs).ok()
        }

        fn mutate_options(opts: &SolverOptions, which: u8) -> SolverOptions {
            let mut m = opts.clone();
            match which {
                0 => {
                    m.lp = match m.lp {
                        LpStrategy::Certified => LpStrategy::Exact,
                        LpStrategy::Exact => LpStrategy::Float,
                        LpStrategy::Float => LpStrategy::Certified,
                    }
                }
                1 => m.compact = !m.compact,
                2 => m.use_ceiling = !m.use_ceiling,
                3 => m.polish = !m.polish,
                4 => {
                    m.round_choice = match m.round_choice {
                        RoundingChoice::FirstId => RoundingChoice::LargestFraction,
                        _ => RoundingChoice::FirstId,
                    }
                }
                5 => {
                    m.shard = match m.shard {
                        ShardMode::Off => ShardMode::Auto,
                        _ => ShardMode::Off,
                    }
                }
                _ => m.ceiling_depth += 1,
            }
            m
        }

        proptest! {
            #[test]
            fn identical_content_hits_mutated_content_misses(
                inst in instance(),
                opts in options(),
                which_inst in 0u8..6,
                which_opts in 0u8..7,
                delta in 0i64..8,
            ) {
                // Reflexivity: a clone is the same key (a repeat hits).
                let key = CacheKey::new(&inst, &opts);
                prop_assert_eq!(CacheKey::new(&inst.clone(), &opts.clone()), key.clone());

                // Any instance-content mutation changes the key.
                if let Some(mutated) = mutate_instance(&inst, which_inst, delta) {
                    prop_assert_ne!(CacheKey::new(&mutated, &opts), key.clone());
                }

                // Any options mutation changes the fingerprint, hence the key.
                let mutated_opts = mutate_options(&opts, which_opts);
                prop_assert_ne!(CacheKey::new(&inst, &mutated_opts), key);
            }
        }
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let cache = SolveCache::default();
        let i = inst(2, vec![(0, 4, 2)]);
        let opts = SolverOptions::exact();
        let key = CacheKey::new(&i, &opts);

        assert!(cache.get(&key).is_none());
        cache.insert(key.clone(), solve(&i, &opts));
        assert!(cache.get(&key).is_some());
        assert!(cache.get(&key).is_some());

        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 1, evictions: 0 });
        assert!((cache.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_bound_evicts_oldest_first() {
        let cache = SolveCache::with_capacity(2);
        let opts = SolverOptions::exact();
        let instances: Vec<Instance> =
            (1..=3).map(|g| inst(g, vec![(0, 6, 2), (1, 5, 1)])).collect();
        let keys: Vec<CacheKey> = instances.iter().map(|i| CacheKey::new(i, &opts)).collect();

        for (i, k) in instances.iter().zip(&keys) {
            cache.insert(k.clone(), solve(i, &opts));
        }
        // Capacity 2: the third insert displaced the first key.
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get(&keys[0]).is_none(), "oldest entry must be evicted");
        assert!(cache.get(&keys[1]).is_some());
        assert!(cache.get(&keys[2]).is_some());

        // Re-inserting an existing key replaces in place: no eviction,
        // no duplicate order entry.
        cache.insert(keys[1].clone(), solve(&instances[1], &opts));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);

        // The evicted instance can be cached again afterwards.
        cache.insert(keys[0].clone(), solve(&instances[0], &opts));
        assert!(cache.get(&keys[0]).is_some());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn zero_capacity_means_unbounded() {
        let cache = SolveCache::with_capacity(0);
        let opts = SolverOptions::exact();
        for g in 1..=20 {
            let i = inst(g, vec![(0, 6, 2)]);
            cache.insert(CacheKey::new(&i, &opts), solve(&i, &opts));
        }
        assert_eq!(cache.len(), 20);
        assert_eq!(cache.stats().evictions, 0);
    }
}
