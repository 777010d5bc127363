//! Exact statistics over raw samples.
//!
//! Every number the benchmark reports comes from here, computed over
//! the raw samples it kept — never from `obs::Histogram`, whose
//! percentiles are the upper bounds of 2^(1/4)-wide buckets.

use std::ops::Range;

/// Samples a tail percentile must leave beyond it to be reported as
/// measured rather than extrapolated.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Samples per block of [`blocked_percentile`]: the nearest-rank p99 of
/// a block this size leaves exactly [`MIN_TAIL_SAMPLES`] beyond it.
pub const BLOCK: usize = 1000;

/// 1-based nearest rank of the `pct`-th percentile among `n` samples:
/// the smallest rank `r` with `100 · r ≥ pct · n`. Integer arithmetic,
/// so no rounding can move a rank.
pub fn rank(n: usize, pct: u32) -> usize {
    assert!(pct <= 100, "percentile {pct} out of range");
    (pct as usize * n).div_ceil(100).max(1)
}

/// A set of raw samples with exact nearest-rank percentiles.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Empty sample set.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Record one sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sum of the samples.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Smallest sample; `None` without samples.
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().min_by(f64::total_cmp)
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: Samples) {
        self.values.extend(other.values);
        self.sorted = false;
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank `pct`-th percentile; `None` without samples.
    pub fn percentile(&mut self, pct: u32) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        self.sort();
        Some(self.values[rank(self.values.len(), pct) - 1])
    }

    /// Nearest-rank percentile, 0 without samples (a layer that did no
    /// work spent no time).
    pub fn pct_or_zero(&mut self, pct: u32) -> f64 {
        self.percentile(pct).unwrap_or(0.0)
    }
}

impl From<Vec<f64>> for Samples {
    fn from(values: Vec<f64>) -> Self {
        Samples { values, sorted: false }
    }
}

impl From<&[f64]> for Samples {
    fn from(values: &[f64]) -> Self {
        Samples::from(values.to_vec())
    }
}

/// Consecutive blocks of `block` samples covering `0..len`, the last one
/// taking the remainder, so every sample is in exactly one block; a
/// `len` below `block` is a single block.
pub fn blocks(len: usize, block: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let n = (len / block).max(1);
    (0..n).map(|b| b * block..if b + 1 == n { len } else { (b + 1) * block }).collect()
}

/// The median over blocks of each block's nearest-rank `pct`-th
/// percentile. Each sequence (one generator's samples in the order its
/// ops completed) is cut by [`blocks`]. A tail percentile of the whole
/// run is set by whichever stretch of it was slowest: interference over
/// a third of a run moves it as far as interference over all of it. The
/// median over blocks moves only when most blocks do, as a slower
/// program makes them. `None` without samples.
pub fn blocked_percentile(sequences: &[&[f64]], pct: u32, block: usize) -> Option<f64> {
    let per_block: Vec<f64> = sequences
        .iter()
        .flat_map(|seq| blocks(seq.len(), block).into_iter().map(move |r| &seq[r]))
        .map(|b| Samples::from(b).percentile(pct).expect("blocks are never empty"))
        .collect();
    median(&per_block)
}

/// Median of a set of values (mean of the middle two for even counts),
/// as Python's `statistics.median` gives it; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` gives them (the default `exclusive` method), so run-to-run
/// spreads here match the ones computed from the same values in Python.
/// A single value is its own quartiles; `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    match ld {
        0 => None,
        1 => Some((v[0], v[0])),
        _ => {
            let m = ld + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some((cut(1), cut(3)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The definition, by brute force: the smallest sample `x` with at
    /// least `pct`% of the samples at or below it.
    fn oracle(values: &[f64], pct: u32) -> f64 {
        let n = values.len();
        let mut candidates = values.to_vec();
        candidates.sort_by(f64::total_cmp);
        for &x in &candidates {
            let at_or_below = values.iter().filter(|&&v| v <= x).count();
            if 100 * at_or_below >= pct as usize * n {
                return x;
            }
        }
        unreachable!("the maximum has every sample at or below it")
    }

    #[test]
    fn nearest_rank_matches_brute_force_oracle() {
        let mut rng = StdRng::seed_from_u64(7);
        for case in 0..300 {
            let n = rng.gen_range(1usize..=257);
            // Small value range forces ties, which the oracle handles by
            // counting, and rank arithmetic must agree with.
            let values: Vec<f64> = (0..n).map(|_| rng.gen_range(0i64..40) as f64 / 4.0).collect();
            let mut s = Samples::new();
            for &v in &values {
                s.push(v);
            }
            for pct in [1, 25, 50, 75, 90, 95, 99, 100] {
                assert_eq!(
                    s.percentile(pct),
                    Some(oracle(&values, pct)),
                    "case {case} n {n} p{pct}"
                );
            }
        }
    }

    #[test]
    fn rank_is_exact_at_the_p99_boundary() {
        // 1000 samples: p99 is the 990th value, leaving exactly 10 beyond.
        assert_eq!(rank(1000, 99), 990);
        let mut s = Samples::new();
        for i in 1..=1000 {
            s.push(i as f64);
        }
        assert_eq!(s.percentile(99), Some(990.0));
        assert_eq!(1000 - rank(1000, 99), MIN_TAIL_SAMPLES);
        // One sample fewer leaves only 9 beyond p99.
        assert_eq!(999 - rank(999, 99), 9);
        assert_eq!(Samples::new().percentile(50), None);
        assert_eq!(Samples::new().pct_or_zero(99), 0.0);
    }

    #[test]
    fn blocks_cover_every_sample_once() {
        assert_eq!(blocks(0, 1000), Vec::<Range<usize>>::new());
        assert_eq!(blocks(999, 1000), vec![0..999]);
        assert_eq!(blocks(2000, 1000), vec![0..1000, 1000..2000]);
        assert_eq!(blocks(2999, 1000), vec![0..1000, 1000..2999]);
        // Every block of at least BLOCK samples leaves 10 beyond its p99.
        for r in blocks(12_345, BLOCK) {
            assert!(r.len() >= BLOCK && r.len() - rank(r.len(), 99) >= MIN_TAIL_SAMPLES);
        }
    }

    #[test]
    fn blocked_percentile_is_the_median_of_block_percentiles() {
        let mut rng = StdRng::seed_from_u64(11);
        let a: Vec<f64> = (0..2500).map(|_| rng.gen_range(0u32..10_000) as f64).collect();
        let b: Vec<f64> = (0..1700).map(|_| rng.gen_range(0u32..10_000) as f64).collect();
        // By hand: blocks a[..1000], a[1000..], b[..]; three values.
        let mut per_block =
            [oracle(&a[..1000], 99), oracle(&a[1000..], 99), oracle(&b, 99)].to_vec();
        per_block.sort_by(f64::total_cmp);
        assert_eq!(blocked_percentile(&[&a, &b], 99, 1000), Some(per_block[1]));
        assert_eq!(blocked_percentile(&[&[], &[]], 99, 1000), None);
    }

    #[test]
    fn blocked_p99_ignores_a_slow_stretch_but_not_a_slower_program() {
        let mut rng = StdRng::seed_from_u64(5);
        let base: Vec<f64> =
            (0..30_000).map(|_| 1.0 + rng.gen_range(0u32..1_000_000) as f64 / 1e6).collect();
        let p99 = |v: &[f64]| blocked_percentile(&[v], 99, BLOCK).unwrap();
        // A third of the run twice as slow: the whole-run p99 moves to
        // the slow stretch's, the blocked p99 stays.
        let stretch: Vec<f64> =
            base.iter().enumerate().map(|(i, &v)| if i < 10_000 { 2.0 * v } else { v }).collect();
        assert!(Samples::from(&stretch[..]).percentile(99).unwrap() > 3.0);
        assert!((p99(&stretch) - p99(&base)).abs() < 0.05);
        // Every op 1.5× slower: the blocked p99 moves with it.
        let slower: Vec<f64> = base.iter().map(|v| 1.5 * v).collect();
        assert!((p99(&slower) / p99(&base) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), Some((1.5, 4.5)));
        assert_eq!(median(&v), Some(5.5));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(quartiles(&[]), None);
    }
}
