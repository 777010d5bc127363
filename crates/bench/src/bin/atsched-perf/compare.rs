//! `compare PARENT_DIR CHANGE_DIR`: a noise-aware comparison of two
//! sets of untraced runs (the `--out` records of `run`).
//!
//! For each workload × end-to-end metric it reports each side's median
//! and quartiles, then one verdict. A metric's tolerance is its bound
//! from `BENCHMARK.json` times the parent median, or its absolute floor
//! when that is larger:
//!
//! - **regression** — the change's median is worse than the parent's by
//!   more than the tolerance;
//! - **unresolved** — the parent's own IQR exceeds the tolerance, so the
//!   runs cannot resolve a change of that size — unless every change run
//!   beats every parent run;
//! - **gain** — the change wins at least 9 in 10 pairs (ties count for
//!   neither) *and* the medians differ by more than the parent's IQR;
//! - **same** — none of the above.
//!
//! `setup_s` has an absolute floor of [`SETUP_FLOOR_S`]. `failed_frac`
//! (from the run records) has bound and floor 0: any increase of the
//! change's median over the parent's is a regression. The command fails
//! when any row is a regression or unresolved.

use crate::report::{field, number, string, Json};
use crate::stats::{median, quartiles};
use serde::value::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// Wins a gain claim needs, as a share of the pairs.
const GAIN_WIN_SHARE: f64 = 0.9;
/// Set-up times within this many seconds of each other are the same:
/// a set-up of a few tens of ms moves by more than its bound's share
/// from one run to the next.
const SETUP_FLOOR_S: f64 = 0.05;

/// How one metric may move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    /// Lower values are better.
    pub lower_is_better: bool,
    /// Largest tolerated worsening, as a share of the parent median.
    pub bound: f64,
    /// Largest worsening tolerated whatever the parent median, in the
    /// metric's unit.
    pub floor: f64,
}

/// Verdict for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse than the bound allows.
    Regression,
    /// The parent's spread exceeds the bound.
    Unresolved,
    /// A gain by the pairs-and-IQR rule.
    Gain,
    /// Within the bound, no gain shown.
    Same,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "UNRESOLVED",
            Verdict::Gain => "gain",
            Verdict::Same => "same",
        }
    }
}

/// Judge `change` runs against `parent` runs, paired by position.
pub fn judge(parent: &[f64], change: &[f64], rule: Rule) -> Verdict {
    let (Some(mp), Some(mc)) = (median(parent), median(change)) else {
        return Verdict::Unresolved;
    };
    let (q1, q3) = quartiles(parent).expect("non-empty");
    let iqr = q3 - q1;
    let tolerance = (rule.bound * mp.abs()).max(rule.floor);
    // Orient so that a positive `worse` means the change got worse.
    let sign = if rule.lower_is_better { 1.0 } else { -1.0 };
    let better = |c: f64, p: f64| sign * (c - p) < 0.0;

    let dominates = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if iqr > tolerance && !dominates {
        return Verdict::Unresolved;
    }
    if sign * (mc - mp) > tolerance {
        return Verdict::Regression;
    }
    let pairs = parent.len().min(change.len());
    let wins = parent.iter().zip(change).filter(|&(&p, &c)| better(c, p)).count();
    let clear = sign * (mp - mc) > iqr;
    if pairs > 0 && wins as f64 >= GAIN_WIN_SHARE * pairs as f64 && clear {
        Verdict::Gain
    } else {
        Verdict::Same
    }
}

/// Rules for every end-to-end metric in `BENCHMARK.json`, plus
/// `failed_frac`.
fn load_rules(path: &Path) -> Result<BTreeMap<String, Rule>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let doc = serde_json::from_str::<Json>(&text)
        .map_err(|e| format!("parsing {}: {e}", path.display()))?
        .0;
    let Some(Value::Seq(metrics)) = field(&doc, "end_to_end") else {
        return Err(format!("{} has no end_to_end list", path.display()));
    };
    let mut rules = BTreeMap::new();
    for m in metrics {
        let name = field(m, "name").and_then(string).ok_or("end_to_end entry without a name")?;
        let better =
            field(m, "better").and_then(string).ok_or("end_to_end entry without better")?;
        let bound = field(m, "bound").and_then(number).ok_or("end_to_end entry without bound")?;
        let floor = if name == "setup_s" { SETUP_FLOOR_S } else { 0.0 };
        rules.insert(name.to_string(), Rule { lower_is_better: better == "lower", bound, floor });
    }
    let failed = Rule { lower_is_better: true, bound: 0.0, floor: 0.0 };
    rules.insert("failed_frac".into(), failed);
    Ok(rules)
}

/// One side's runs: workload → metric → values, in seed order.
type Runs = BTreeMap<String, BTreeMap<String, Vec<(u64, f64)>>>;

fn load_runs(dir: &Path) -> Result<Runs, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut runs = Runs::new();
    for entry in entries {
        let path = entry.map_err(|e| format!("listing {}: {e}", dir.display()))?.path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let record = serde_json::from_str::<Json>(&text)
            .map_err(|e| format!("parsing {}: {e}", path.display()))?
            .0;
        if field(&record, "traced") == Some(&Value::Bool(true)) {
            continue; // traced runs carry layer metrics, not end-to-end ones
        }
        let workload = field(&record, "workload")
            .and_then(string)
            .ok_or_else(|| format!("{}: no workload", path.display()))?;
        let seed = field(&record, "seed").and_then(number).unwrap_or(0.0) as u64;
        let metrics = runs.entry(workload.to_string()).or_default();
        if let Some(ff) = field(&record, "failed_frac").and_then(number) {
            metrics.entry("failed_frac".into()).or_default().push((seed, ff));
        }
        if let Some(Value::Map(ms)) = field(&record, "result").and_then(|r| field(r, "metrics")) {
            for (name, m) in ms {
                if let Some(v) = field(m, "value").and_then(number) {
                    metrics.entry(name.clone()).or_default().push((seed, v));
                }
            }
        }
    }
    for metrics in runs.values_mut() {
        for values in metrics.values_mut() {
            values.sort_by_key(|&(seed, _)| seed);
        }
    }
    Ok(runs)
}

fn summary(values: &[f64]) -> String {
    match (median(values), quartiles(values)) {
        (Some(m), Some((q1, q3))) => format!("{m:>12.4} [{q1:.4}, {q3:.4}]"),
        _ => "no runs".into(),
    }
}

/// `compare PARENT_DIR CHANGE_DIR [--bounds FILE]`; `Ok(false)` when any
/// row is a regression or unresolved.
pub fn main(args: &[String]) -> Result<bool, String> {
    let (dirs, bounds) = match args {
        [p, c] => ([p, c], "BENCHMARK.json"),
        [p, c, flag, file] if flag == "--bounds" => ([p, c], file.as_str()),
        _ => return Err("usage: atsched-perf compare PARENT_DIR CHANGE_DIR [--bounds FILE]".into()),
    };
    let rules = load_rules(Path::new(bounds))?;
    let parent = load_runs(Path::new(dirs[0]))?;
    let change = load_runs(Path::new(dirs[1]))?;
    let mut clean = true;
    println!(
        "{:<12} {:<12} {:>12} {:<22} {:>12} {:<22} verdict",
        "workload", "metric", "parent", "", "change", ""
    );
    for (workload, metrics) in &parent {
        for (metric, rule) in &rules {
            let p: Vec<f64> = metrics.get(metric).into_iter().flatten().map(|&(_, v)| v).collect();
            let c: Vec<f64> = change
                .get(workload)
                .and_then(|m| m.get(metric))
                .into_iter()
                .flatten()
                .map(|&(_, v)| v)
                .collect();
            if p.is_empty() && c.is_empty() {
                continue;
            }
            let verdict = judge(&p, &c, *rule);
            clean &= !matches!(verdict, Verdict::Regression | Verdict::Unresolved);
            println!(
                "{workload:<12} {metric:<12} {} {} {} (n={}/{}, bound {})",
                summary(&p),
                summary(&c),
                verdict.label(),
                p.len(),
                c.len(),
                rule.bound
            );
        }
    }
    for workload in change.keys().filter(|w| !parent.contains_key(*w)) {
        println!("{workload:<12} (no parent runs) UNRESOLVED");
        clean = false;
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const P99: Rule = Rule { lower_is_better: true, bound: 0.15, floor: 0.0 };
    const GOODPUT: Rule = Rule { lower_is_better: false, bound: 0.10, floor: 0.0 };
    const FAILED: Rule = Rule { lower_is_better: true, bound: 0.0, floor: 0.0 };
    const SETUP: Rule = Rule { lower_is_better: true, bound: 0.25, floor: SETUP_FLOOR_S };

    /// Ten `solve-cold/p99_ms` runs with a few percent of spread.
    fn parent() -> Vec<f64> {
        vec![3.10, 3.02, 3.21, 2.95, 3.05, 3.15, 3.00, 3.08, 3.12, 2.98]
    }

    #[test]
    fn identical_sets_pass() {
        let p = parent();
        assert_eq!(judge(&p, &p, P99), Verdict::Same);
        assert_eq!(judge(&[0.0; 10], &[0.0; 10], FAILED), Verdict::Same);
    }

    #[test]
    fn a_synthetic_fifty_percent_p99_regression_fails() {
        let p = parent();
        let c: Vec<f64> = p.iter().map(|v| v * 1.5).collect();
        assert_eq!(judge(&p, &c, P99), Verdict::Regression);
        // Higher-is-better metrics regress downwards.
        let g = vec![800.0, 799.0, 801.0, 800.5, 799.5];
        let worse: Vec<f64> = g.iter().map(|v| v * 0.5).collect();
        assert_eq!(judge(&g, &worse, GOODPUT), Verdict::Regression);
        // Any new failure breaks the absolute floor.
        assert_eq!(judge(&[0.0; 5], &[0.0, 0.0, 0.01, 0.01, 0.01], FAILED), Verdict::Regression);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = vec![2.0, 4.0, 2.5, 3.9, 2.2, 3.6, 2.1, 3.8, 2.4, 3.7];
        assert_eq!(judge(&noisy, &parent(), P99), Verdict::Unresolved);
        // ...unless every change run beats every parent run.
        let fast = vec![1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.02, 0.98, 1.01, 0.99];
        assert_eq!(judge(&noisy, &fast, P99), Verdict::Gain);
    }

    #[test]
    fn set_up_times_are_judged_on_an_absolute_floor() {
        // Tens of ms with a spread far beyond 25%: inside the 0.05 s floor.
        let p = vec![0.026, 0.041, 0.022, 0.035, 0.030, 0.048, 0.025, 0.033, 0.029, 0.038];
        let c: Vec<f64> = p.iter().map(|v| v * 1.6).collect();
        assert_eq!(judge(&p, &c, SETUP), Verdict::Same);
        // A set-up that grows by more than the floor is a regression.
        let slow: Vec<f64> = p.iter().map(|v| v + 0.08).collect();
        assert_eq!(judge(&p, &slow, SETUP), Verdict::Regression);
        // Above the floor the relative bound applies.
        let long = vec![1.60, 1.55, 1.62, 1.58, 1.61];
        let longer: Vec<f64> = long.iter().map(|v| v * 1.3).collect();
        assert_eq!(judge(&long, &longer, SETUP), Verdict::Regression);
    }

    #[test]
    fn gains_need_nine_in_ten_pairs_and_a_gap_beyond_the_iqr() {
        let p = parent();
        let faster: Vec<f64> = p.iter().map(|v| v * 0.8).collect();
        assert_eq!(judge(&p, &faster, P99), Verdict::Gain);
        // A 1% shift is inside the parent IQR: no gain claimed.
        let nudged: Vec<f64> = p.iter().map(|v| v * 0.99).collect();
        assert_eq!(judge(&p, &nudged, P99), Verdict::Same);
    }
}
