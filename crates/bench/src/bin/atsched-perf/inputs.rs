//! Seeded inputs and reference answers.
//!
//! Everything a workload sends is a pure function of `--seed`: each
//! input stream draws from its own seed derived from `(seed, stream,
//! index)`, so adding draws to one stream never shifts another. What a
//! set-up solves draws from [`SETUP_SEED`] instead.

use atsched_core::decompose::decompose;
use atsched_core::instance::{Instance, Job};
use atsched_core::solver::{solve_nested, SolveError, SolverOptions};
use atsched_serve::DeltaSpec;
use atsched_workloads::generators::{
    random_laminar, random_multi_root, LaminarConfig, MultiRootConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

/// Roots of every multi-root instance (`amend`, `batch-roots`).
pub const ROOTS: usize = 32;

/// The seed of the instances a set-up solves (the `solve-cold` warm-up,
/// the `solve-hot` pool, the `batch-roots` warm-up batch), the same
/// whatever `--seed` is. A set-up solves few instances, so with
/// seed-drawn ones `setup_s` moved by up to 30% from seed to seed; with
/// these it compares runs of different seeds.
pub const SETUP_SEED: u64 = 0;

/// Shape of every tree: g = 4 over a 48-slot horizon, the repository's
/// corpus shape (`atsched-bench`, `results/BENCH_*.json`).
pub fn tree_config() -> LaminarConfig {
    LaminarConfig { g: 4, horizon: 48, ..LaminarConfig::default() }
}

/// [`ROOTS`] trees of [`tree_config`] shape, one slot apart.
pub fn forest_config() -> MultiRootConfig {
    MultiRootConfig { base: tree_config(), roots: ROOTS, gap: 1 }
}

/// Independent input streams of one seed.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// `solve-cold` measured instances.
    Cold = 1,
    /// `solve-hot` instance pool.
    Hot,
    /// `solve-hot` Zipf rank draws.
    Zipf,
    /// `amend` session instances.
    Session,
    /// `amend` choice of the job to widen.
    Widen,
    /// `batch-roots` instance pool.
    Batch,
    /// `solve-cold` set-up warm-up instances.
    Warm,
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generator seed of draw `index` of `stream` under `seed`.
pub fn derive_seed(seed: u64, stream: Stream, index: u64) -> u64 {
    splitmix(splitmix(splitmix(seed) ^ stream as u64) ^ index)
}

/// `count` pairwise-distinct single-root instances from `stream`, so no
/// two requests share a cache key.
pub fn distinct_trees(seed: u64, stream: Stream, count: usize) -> Vec<Instance> {
    let cfg = tree_config();
    let mut seen: HashSet<Vec<Job>> = HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    let mut index = 0;
    while out.len() < count {
        let inst = random_laminar(&cfg, derive_seed(seed, stream, index));
        index += 1;
        if seen.insert(inst.jobs.clone()) {
            out.push(inst);
        }
    }
    out
}

/// A 64-bit key of an instance's content.
fn content_key(inst: &Instance) -> u64 {
    let mut h = DefaultHasher::new();
    inst.jobs.hash(&mut h);
    h.finish()
}

/// The `solve-cold` instances of connection `lane` of `lanes`, made one
/// at a time: the [`Stream::Cold`] draws, in order, whose content key
/// falls in this lane's share and has not come before. No instance is
/// sent twice, on one connection or across them, and none repeats a
/// warm-up instance. A closed loop sends as many requests as the program
/// can answer, so the instances are made on demand rather than up front.
#[derive(Debug)]
pub struct FreshTrees {
    seed: u64,
    lane: u64,
    lanes: u64,
    draw: u64,
    seen: HashSet<u64>,
}

impl FreshTrees {
    /// Lane `lane` of `lanes` on `seed`, never repeating one of `exclude`.
    pub fn new(seed: u64, lane: usize, lanes: usize, exclude: &[Instance]) -> FreshTrees {
        let seen = exclude.iter().map(content_key).collect();
        FreshTrees { seed, lane: lane as u64, lanes: lanes as u64, draw: 0, seen }
    }

    /// The lane's next instance.
    pub fn next_tree(&mut self) -> Instance {
        let cfg = tree_config();
        loop {
            let inst = random_laminar(&cfg, derive_seed(self.seed, Stream::Cold, self.draw));
            self.draw += 1;
            let key = content_key(&inst);
            if key % self.lanes == self.lane && self.seen.insert(key) {
                return inst;
            }
        }
    }
}

/// Multi-root instance `index` of `stream`. Tree seeds of
/// `random_multi_root` are consecutive from its seed; derived seeds are
/// spread over 2^64, so two instances share a tree only by collision.
pub fn forest(seed: u64, stream: Stream, index: u64) -> Instance {
    random_multi_root(&forest_config(), derive_seed(seed, stream, index))
}

/// Zipf(s) over ranks `0..n` by inverse transform on the exact CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Ranks `0..n`, weight of rank `k` proportional to `(k + 1)^-s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// The amend sent next on `inst`: widen one job's window to its parent —
/// the smallest other window of the instance that contains it, which
/// lies in the same tree. The result stays laminar (the parent is
/// already laminar with every window) and feasible (a wider window
/// never removes a schedule). Windows are never restored, so the dirty
/// shard's content rarely repeats. `None` once every job sits in its
/// root window.
pub fn next_widen(inst: &Instance, rng: &mut StdRng) -> Option<DeltaSpec> {
    let n = inst.jobs.len();
    if n == 0 {
        return None;
    }
    let mut windows: Vec<(i64, i64)> = inst.jobs.iter().map(|j| (j.release, j.deadline)).collect();
    windows.sort_unstable();
    windows.dedup();
    let first = rng.gen_range(0..n);
    (0..n).map(|off| (first + off) % n).find_map(|j| {
        let job = inst.jobs[j];
        windows
            .iter()
            .filter(|&&(r, d)| r <= job.release && job.deadline <= d)
            .filter(|&&w| w != (job.release, job.deadline))
            .min_by_key(|&&(r, d)| d - r)
            .map(|&(r, d)| DeltaSpec::new().modify_window(j as u64, r, d))
    })
}

/// What a correct solve of an instance reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// A verified schedule with this many active slots.
    Slots(usize),
    /// The instance has no schedule.
    Infeasible,
}

/// In-process `solve_nested` answer with default options.
pub fn reference(inst: &Instance) -> Result<Answer, String> {
    match solve_nested(inst, &SolverOptions::default()) {
        Ok(res) => Ok(Answer::Slots(res.schedule.active_time())),
        Err(SolveError::Infeasible) => Ok(Answer::Infeasible),
        Err(e) => Err(format!("reference solve failed: {e}")),
    }
}

/// Reference answers for multi-root instances: one `solve_nested` per
/// root tree, memoized by the tree's offset-normalized content, summed.
///
/// Disjoint root windows are independent subproblems (DESIGN.md §11),
/// so the active slots of an instance are the sum over its trees and it
/// is infeasible exactly when one tree is. A monolithic solve of a
/// 32-root instance takes about 0.6 s, which would make the sampled
/// checks cost more than the run; per tree, an amend's reference costs
/// one fresh tree solve.
#[derive(Debug, Default)]
pub struct TreeReferences {
    memo: HashMap<Vec<Job>, Answer>,
}

impl TreeReferences {
    /// The reference answer for `inst`.
    pub fn answer(&mut self, inst: &Instance) -> Result<Answer, String> {
        let dec = decompose(inst).map_err(|e| format!("reference decomposition failed: {e}"))?;
        let mut slots = 0;
        for shard in dec.shards {
            let answer = match self.memo.get(&shard.instance.jobs) {
                Some(&answer) => answer,
                None => {
                    let answer = reference(&shard.instance)?;
                    self.memo.insert(shard.instance.jobs, answer);
                    answer
                }
            };
            match answer {
                Answer::Infeasible => return Ok(Answer::Infeasible),
                Answer::Slots(s) => slots += s,
            }
        }
        Ok(Answer::Slots(slots))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atsched_core::delta::apply;
    use rand::SeedableRng;

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let a = distinct_trees(1, Stream::Cold, 50);
        assert_eq!(a, distinct_trees(1, Stream::Cold, 50));
        assert_ne!(a, distinct_trees(2, Stream::Cold, 50));
        let keys: HashSet<_> = a.iter().map(|i| i.jobs.clone()).collect();
        assert_eq!(keys.len(), a.len());
        assert_ne!(derive_seed(1, Stream::Cold, 0), derive_seed(1, Stream::Hot, 0));
    }

    #[test]
    fn fresh_trees_never_repeat_within_or_across_lanes() {
        let warm = distinct_trees(4, Stream::Warm, 20);
        let mut lanes: Vec<FreshTrees> = (0..2).map(|l| FreshTrees::new(4, l, 2, &warm)).collect();
        let mut keys: HashSet<Vec<Job>> = warm.iter().map(|i| i.jobs.clone()).collect();
        for _ in 0..500 {
            for lane in &mut lanes {
                assert!(keys.insert(lane.next_tree().jobs), "an instance came twice");
            }
        }
        // The same seed makes the same instances.
        let mut a = FreshTrees::new(4, 1, 2, &warm);
        let mut b = FreshTrees::new(4, 1, 2, &warm);
        for _ in 0..20 {
            assert_eq!(a.next_tree(), b.next_tree());
        }
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let z = Zipf::new(32, 1.1);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 32];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[8] && counts[8] > counts[31]);
        assert!(counts[31] > 0);
    }

    #[test]
    fn widening_keeps_instances_laminar_feasible_and_terminates() {
        let mut inst = forest(5, Stream::Session, 0);
        let mut rng = StdRng::seed_from_u64(9);
        let roots = decompose(&inst).unwrap().len();
        let mut steps = 0;
        while let Some(spec) = next_widen(&inst, &mut rng) {
            let w = &spec.modify[0];
            let before = inst.jobs[w.job as usize];
            assert!(w.release <= before.release && before.deadline <= w.deadline);
            inst = apply(&inst, &spec.to_delta()).unwrap();
            assert!(inst.check_laminar().is_ok());
            steps += 1;
            assert!(steps < 10_000, "widening must terminate");
        }
        // Every job ends in its root window, so the tree count is kept
        // and the instance is still solvable.
        assert_eq!(decompose(&inst).unwrap().len(), roots);
        assert!(inst.is_feasible_all_open());
        assert!(steps > 0);
    }

    #[test]
    fn tree_references_match_a_monolithic_solve() {
        let cfg = MultiRootConfig { base: tree_config(), roots: 3, gap: 1 };
        let mut refs = TreeReferences::default();
        for seed in 0..4 {
            let inst = random_multi_root(&cfg, seed * 100);
            assert_eq!(refs.answer(&inst).unwrap(), reference(&inst).unwrap(), "seed {seed}");
        }
    }
}
