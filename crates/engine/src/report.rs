//! Batch observability: latency percentiles and the JSON batch report.

use atsched_core::solver::StageTimings;
use atsched_obs::{Histogram, HistogramSnapshot};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// p50 / p95 / max summary of a latency sample, in milliseconds.
///
/// Backed by the shared [`atsched_obs::Histogram`] — the workspace's
/// single percentile implementation — so p50/p95 are nearest-rank
/// log-bucket upper bounds (within ~19% of the exact sample value)
/// while `max` stays exact.
///
/// `Deserialize` as well as `Serialize`: the serve layer ships these
/// over the wire inside `stats` replies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Maximum.
    pub max: f64,
}

impl Percentiles {
    /// Summary of a live histogram.
    pub fn from_histogram(h: &Histogram) -> Self {
        Percentiles { p50: h.percentile(0.50), p95: h.percentile(0.95), max: h.max() }
    }

    /// Summary of a frozen histogram snapshot.
    pub fn from_snapshot(s: &HistogramSnapshot) -> Self {
        Percentiles { p50: s.p50, p95: s.p95, max: s.max }
    }

    /// Summarize a sample by routing it through a histogram; all-zero
    /// when empty.
    pub fn summarize(samples: impl IntoIterator<Item = f64>) -> Self {
        let h = Histogram::new();
        for s in samples {
            h.record(s);
        }
        Self::from_histogram(&h)
    }
}

/// Lifetime outcome counters of a long-lived [`crate::Engine`]: how many
/// solves it has finished in each terminal state since construction,
/// across every batch and every thread sharing it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineTotals {
    /// Solves that produced a verified schedule (cache hits included).
    pub solved: u64,
    /// Provably infeasible instances (cache hits included).
    pub infeasible: u64,
    /// Solves cut off by the per-solve wall-clock budget.
    pub timed_out: u64,
    /// Solves that errored or panicked.
    pub failed: u64,
}

impl EngineTotals {
    /// Total solves finished, in any state.
    pub fn total(&self) -> u64 {
        self.solved + self.infeasible + self.timed_out + self.failed
    }
}

/// Cache counters as reported per batch.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct CacheReport {
    /// Lookups answered from the cache during this batch.
    pub hits: u64,
    /// Lookups that fell through to a real solve.
    pub misses: u64,
    /// `hits / (hits + misses)`, 0 when the cache saw no lookups.
    pub hit_rate: f64,
}

/// Per-stage latency percentiles (milliseconds), over non-cached solves.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct StageReport {
    /// Forest build + canonical transformation + OPT oracle.
    pub canonicalize: Percentiles,
    /// LP build + solve: the attempt that answered (a declined tree
    /// attempt is `StageTimings::lp_declined`, not counted here).
    pub lp: Percentiles,
    /// Lemma 3.1 push-down.
    pub transform: Percentiles,
    /// Algorithm 1 rounding.
    pub round: Percentiles,
    /// Slot materialization, flow extraction, repair, polish.
    pub extract: Percentiles,
    /// Independent schedule verification.
    pub verify: Percentiles,
}

impl StageReport {
    /// Summarize a set of per-solve stage timings.
    pub fn from_timings(timings: &[StageTimings]) -> Self {
        let ms = |pick: fn(&StageTimings) -> Duration| {
            Percentiles::summarize(timings.iter().map(|t| pick(t).as_secs_f64() * 1e3))
        };
        StageReport {
            canonicalize: ms(|t| t.canonicalize),
            lp: ms(|t| t.lp),
            transform: ms(|t| t.transform),
            round: ms(|t| t.round),
            extract: ms(|t| t.extract),
            verify: ms(|t| t.verify),
        }
    }
}

/// Everything a batch run reports, serializable to JSON.
///
/// Schema (all latencies in milliseconds):
///
/// ```json
/// {
///   "total": 100, "solved": 97, "infeasible": 2, "timed_out": 1, "failed": 0,
///   "wall_clock_ms": 412.7,
///   "workers": 8,
///   "cache": { "hits": 31, "misses": 69, "hit_rate": 0.31 },
///   "latency_ms": { "p50": 2.1, "p95": 14.9, "max": 55.0 },
///   "stages_ms": {
///     "canonicalize": { "p50": 0.1, "p95": 0.4, "max": 1.2 },
///     "lp":           { "p50": 1.8, "p95": 13.0, "max": 51.3 },
///     "transform":    { "p50": 0.0, "p95": 0.1, "max": 0.3 },
///     "round":        { "p50": 0.0, "p95": 0.1, "max": 0.2 },
///     "extract":      { "p50": 0.2, "p95": 1.1, "max": 2.9 },
///     "verify":       { "p50": 0.0, "p95": 0.1, "max": 0.4 }
///   }
/// }
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct BatchReport {
    /// Instances in the batch.
    pub total: usize,
    /// Outcomes that produced a verified schedule.
    pub solved: usize,
    /// Provably infeasible instances.
    pub infeasible: usize,
    /// Solves cut off by the per-instance wall-clock budget.
    pub timed_out: usize,
    /// Solves that errored or panicked.
    pub failed: usize,
    /// End-to-end batch wall-clock, milliseconds.
    pub wall_clock_ms: f64,
    /// Worker threads used.
    pub workers: usize,
    /// Cache activity during this batch.
    pub cache: CacheReport,
    /// End-to-end per-solve latency (all solved instances, cached ones
    /// included at their ~0 ms lookup cost).
    pub latency_ms: Percentiles,
    /// Per-stage latency percentiles over non-cached solves.
    pub stages_ms: StageReport,
}

impl BatchReport {
    /// Compact JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report serializes")
    }

    /// Pretty JSON rendering.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_sample() {
        let p = Percentiles::summarize((1..=100).map(|x| x as f64));
        // Histogram buckets grow by 2^(1/4): percentiles are upper
        // bounds within ~19% of the exact nearest-rank value; max is
        // tracked exactly.
        assert!(p.p50 >= 50.0 && p.p50 <= 50.0 * 1.19, "p50 = {}", p.p50);
        assert!(p.p95 >= 95.0 && p.p95 <= 95.0 * 1.19, "p95 = {}", p.p95);
        assert_eq!(p.max, 100.0);
        assert!(p.p50 <= p.p95 && p.p95 <= p.max);
        let empty = Percentiles::summarize(Vec::new());
        assert_eq!(empty.p50, 0.0);
        assert_eq!(empty.max, 0.0);
    }

    #[test]
    fn report_serializes_to_json() {
        let report = BatchReport {
            total: 2,
            solved: 2,
            infeasible: 0,
            timed_out: 0,
            failed: 0,
            wall_clock_ms: 1.5,
            workers: 4,
            cache: CacheReport { hits: 1, misses: 1, hit_rate: 0.5 },
            latency_ms: Percentiles { p50: 1.0, p95: 1.0, max: 1.0 },
            stages_ms: StageReport::default(),
        };
        let json = report.to_json();
        assert!(json.contains("\"hit_rate\":0.5"), "{json}");
        assert!(json.contains("\"stages_ms\""), "{json}");
        assert!(json.contains("\"canonicalize\""), "{json}");
    }
}
