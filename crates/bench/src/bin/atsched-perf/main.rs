//! `atsched-perf` — the repository benchmark: exact-sample latency and
//! goodput of the nested active-time solver behind its serve tier, on
//! four workloads, with a traced run that breaks the time down by layer.
//!
//! ```text
//! atsched-perf run --workload <solve-cold|solve-hot|amend|batch-roots|all>
//!                  [--seed N] [--seconds S] [--trace 0|1|FILE] [--out DIR]
//! atsched-perf compare PARENT_DIR CHANGE_DIR [--bounds BENCHMARK.json]
//! ```
//!
//! `run` prints a human summary on stderr and, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed`, and
//! `metrics` — the end-to-end metrics of an untraced run, or with
//! `--trace 1` (or a trace file) the per-layer metrics of a traced run.
//! Reported times are scaled to a reference host speed (`calib.rs`).
//! `--out DIR` also keeps each run's record for `compare`. `all` runs
//! each workload in a fresh process of its own. See README.md in this
//! directory for every metric, workload and bound.

mod calib;
mod compare;
mod inputs;
mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use layers::{Check, Layers};
use report::{END_TO_END, PER_LAYER};
use serde::value::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{Phase, Sizes, Workload};

const USAGE: &str = "usage:
  atsched-perf run --workload <solve-cold|solve-hot|amend|batch-roots|all>
                   [--seed N] [--seconds S] [--trace 0|1|FILE] [--out DIR]
  atsched-perf compare PARENT_DIR CHANGE_DIR [--bounds BENCHMARK.json]";

/// Default measured seconds per run.
const DEFAULT_SECONDS: f64 = 25.0;
/// A run sets up at least `SETUP_MIN` times, then again until it has
/// spent `SETUP_BUDGET_S` on set-ups or reached `SETUP_MAX`; `setup_s`
/// is the median. Cheap set-ups thus get many repeats, costly ones few.
/// The host's speed shifts within a second, so the median over a longer
/// stretch of set-ups moves less from run to run.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 31;
const SETUP_BUDGET_S: f64 = 2.0;
/// An untraced run measures its seconds in this many segments, timing
/// the host's speed between them (`calib.rs`): the host drifts within a
/// run, and a speed taken only at its ends misses that.
const SEGMENTS: usize = 5;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_cmd(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("atsched-perf: {e}");
            ExitCode::from(2)
        }
    }
}

/// How a run is traced.
#[derive(Debug, Clone, PartialEq)]
enum TraceMode {
    Off,
    On,
    File(PathBuf),
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    setup_max: usize,
    sizes: Sizes,
}

/// Parse `--flag value` pairs, refusing unknown flags and repeats.
fn parse_flags(args: &[String], known: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument `{flag}`\n{USAGE}"));
        }
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        if flags.insert(flag.clone(), value.clone()).is_some() {
            return Err(format!("`{flag}` given twice"));
        }
    }
    Ok(flags)
}

fn run_cmd(args: &[String]) -> Result<bool, String> {
    let flags = parse_flags(args, &["--workload", "--seed", "--seconds", "--trace", "--out"])?;
    let workload = flags.get("--workload").ok_or(format!("`--workload` is required\n{USAGE}"))?;
    let seed: u64 = match flags.get("--seed") {
        None => 1,
        Some(s) => s.parse().map_err(|_| format!("invalid --seed `{s}`"))?,
    };
    let seconds: f64 = match flags.get("--seconds") {
        None => DEFAULT_SECONDS,
        Some(s) => s
            .parse()
            .ok()
            .filter(|&v: &f64| v > 0.0 && v.is_finite())
            .ok_or(format!("invalid --seconds `{s}` (a positive number)"))?,
    };
    let trace = match flags.get("--trace").map(String::as_str) {
        None | Some("0") => TraceMode::Off,
        Some("1") => TraceMode::On,
        Some(path) => TraceMode::File(PathBuf::from(path)),
    };
    let out = flags.get("--out").map(PathBuf::from);

    if workload == "all" {
        return run_all(args);
    }
    let workload = Workload::parse(workload).ok_or(format!("unknown workload `{workload}`"))?;
    let cfg = RunConfig {
        workload,
        seed,
        seconds,
        traced: trace != TraceMode::Off,
        setup_max: SETUP_MAX,
        sizes: Sizes::FULL,
    };
    eprintln!(
        "atsched-perf: {} seed {seed}, {seconds} s, {}, {} cores",
        workload.name(),
        if cfg.traced { "traced" } else { "untraced" },
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let report = run(&cfg)?;
    report.print_summary();
    if let TraceMode::File(path) = &trace {
        std::fs::write(path, trace::chrome_json(&report.spans))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("trace: {} spans written to {}", report.spans.len(), path.display());
    }
    if let Some(dir) = out {
        let path = report.save(&dir)?;
        eprintln!("record: {}", path.display());
    }
    println!("{}", report::to_line(report.result()));
    Ok(report.passed())
}

/// `--workload all`: each workload in a fresh process of its own, so
/// each gets fresh server state and its own peak RSS.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let mut passed = true;
    for w in Workload::ALL {
        let mut child_args = vec!["run".to_string()];
        let mut it = args.iter();
        while let (Some(flag), Some(value)) = (it.next(), it.next()) {
            child_args.push(flag.clone());
            child_args.push(if flag == "--workload" {
                w.name().to_string()
            } else {
                value.clone()
            });
        }
        let status = Command::new(&exe)
            .args(&child_args)
            .status()
            .map_err(|e| format!("running {}: {e}", w.name()))?;
        passed &= status.success();
    }
    Ok(passed)
}

/// Everything one run measured.
pub struct RunReport {
    cfg: RunConfig,
    attempted: u64,
    failed: u64,
    incorrect: u64,
    /// Latency samples of the run's own op kind.
    samples: usize,
    /// Blocks the samples were cut into for `p99_ms`.
    blocks: usize,
    /// Fewest samples any block left beyond its nearest-rank p99.
    beyond_p99: usize,
    /// Nearest-rank p99 over all samples at once, ms, as measured (kept
    /// in the record, for diagnosis only).
    whole_p99: Option<f64>,
    /// Wall time of the measured phase, s.
    wall_s: f64,
    setups: usize,
    /// Kernel times at the run's host-speed points, in order, ms
    /// (`calib.rs`).
    kernel_ms: Vec<f64>,
    /// Metrics as measured, before scaling to the reference speed.
    metrics: Vec<(&'static str, &'static str, Option<f64>)>,
    problems: BTreeMap<String, u64>,
    checks: Vec<Check>,
    counts: Vec<(&'static str, usize)>,
    spans: Vec<trace::SpanRec>,
}

/// Run one workload once.
pub fn run(cfg: &RunConfig) -> Result<RunReport, String> {
    let mut harness = workloads::harness(cfg.workload, cfg.seed, cfg.sizes);
    let calls = cfg.sizes.calib_calls;
    let mut kernel = vec![calib::kernel_ms(calls)];
    // A traced run reports no `setup_s`, so it sets up once.
    let setup_max = if cfg.traced { 1 } else { cfg.setup_max };
    let mut setup = Vec::new();
    loop {
        let start = Instant::now();
        harness.setup()?;
        setup.push(start.elapsed().as_secs_f64());
        let spent: f64 = setup.iter().sum();
        let enough = setup.len() >= SETUP_MIN && spent >= SETUP_BUDGET_S;
        if enough || setup.len() >= setup_max {
            break;
        }
        harness.teardown()?;
    }
    let setup_s = stats::median(&setup);

    if !cfg.traced {
        // The host's speed after set-up and after each segment.
        let segment_s = cfg.seconds / SEGMENTS as f64;
        kernel.push(calib::kernel_ms(calls));
        let mut segments = Vec::with_capacity(SEGMENTS);
        for _ in 0..SEGMENTS {
            segments.push(harness.measure(segment_s, None));
            kernel.push(calib::kernel_ms(calls));
        }
        // Read before the segments are joined: joining frees their
        // latency buffers, and the allocator then hands that memory to
        // the program, whose peak RSS would grow by it.
        let rss = report::peak_rss_mb();
        let mut segments = segments.into_iter();
        let mut phase = segments.next().expect("a run has segments");
        segments.for_each(|later| phase.extend(later));
        harness.teardown()?;
        // Goodput after the deferred checks, which can disqualify ops.
        harness.resolve(&mut phase);
        let p50 = phase.latency().percentile(50);
        let p99 = stats::blocked_percentile(&phase.lanes(), 99, stats::BLOCK);
        let values = [p50, p99, Some(phase.goodput()), setup_s, rss];
        let metrics = END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, u, v)).collect();
        let report = RunReport::new(cfg, &phase, None, metrics, kernel);
        return Ok(report.with_setups(setup.len()));
    }

    // Traced: an untraced half for the overhead baseline, then the
    // traced half, then the in-process replays.
    let half = cfg.seconds / 2.0;
    let mut plain = harness.measure(half, None);
    let mut traced = harness.measure(half, Some(Instant::now()));
    harness.teardown()?;
    harness.resolve(&mut plain);
    harness.resolve(&mut traced);
    let replay = harness.replay_set(&traced);
    let untraced_p50 = plain.latency().pct_or_zero(50);
    let traced_p50 = traced.latency().pct_or_zero(50);
    let layers = layers::measure(&mut traced, &replay, untraced_p50, traced_p50);
    kernel.push(calib::kernel_ms(calls));
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = layers.metrics.get(name).copied();
            (name, unit, value.expect("every per-layer metric is measured"))
        })
        .collect();
    plain.absorb_counts(&traced);
    let report = RunReport::new(cfg, &plain, Some(layers), metrics, kernel);
    Ok(report.with_setups(setup.len()).with_spans(traced.spans))
}

impl Phase {
    /// Add `other`'s op counts and problems (the traced run reports
    /// both halves' ops).
    fn absorb_counts(&mut self, other: &Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.incorrect += other.incorrect;
        for (k, v) in &other.problems {
            *self.problems.entry(k.clone()).or_default() += v;
        }
    }
}

impl RunReport {
    fn new(
        cfg: &RunConfig,
        phase: &Phase,
        layers: Option<Layers>,
        metrics: Vec<(&'static str, &'static str, Option<f64>)>,
        kernel_ms: Vec<f64>,
    ) -> RunReport {
        let (checks, counts, spans) =
            layers.map_or_else(Default::default, |l| (l.checks, l.counts, l.spans));
        let mut latency = phase.latency();
        let blocks: Vec<usize> = phase
            .lanes()
            .iter()
            .flat_map(|lane| stats::blocks(lane.len(), stats::BLOCK))
            .map(|r| r.len())
            .collect();
        RunReport {
            cfg: cfg.clone(),
            attempted: phase.attempted,
            failed: phase.failed,
            incorrect: phase.incorrect,
            samples: latency.len(),
            blocks: blocks.len(),
            beyond_p99: blocks.iter().map(|&n| n - stats::rank(n, 99)).min().unwrap_or(0),
            whole_p99: latency.percentile(99),
            wall_s: phase.wall_s,
            setups: 0,
            kernel_ms,
            metrics,
            problems: phase.problems.clone(),
            checks,
            counts,
            spans,
        }
    }

    fn with_setups(mut self, setups: usize) -> RunReport {
        self.setups = setups;
        self
    }

    fn with_spans(mut self, mut phase_spans: Vec<trace::SpanRec>) -> RunReport {
        phase_spans.append(&mut self.spans);
        self.spans = phase_spans;
        self
    }

    /// Ops that failed or were wrong.
    fn failed_total(&self) -> u64 {
        self.failed + self.incorrect
    }

    fn failed_frac(&self) -> f64 {
        self.failed_total() as f64 / self.attempted.max(1) as f64
    }

    /// Every output correct, and in a traced run every check passed.
    fn correct(&self) -> bool {
        self.incorrect == 0 && self.checks.iter().all(|c| c.ok != Some(false))
    }

    fn passed(&self) -> bool {
        self.correct() && self.attempted > 0
    }

    /// The factor scaling this run's times to the reference speed.
    fn scale(&self) -> f64 {
        calib::scale(&self.kernel_ms)
    }

    /// The metrics at the reference speed.
    fn scaled(&self) -> Vec<(&'static str, &'static str, Option<f64>)> {
        let scale = self.scale();
        let at = |v: f64, unit: &str| calib::at_reference(v, unit, scale);
        self.metrics.iter().map(|&(n, u, v)| (n, u, v.map(|v| at(v, u)))).collect()
    }

    /// The result line's value.
    fn result(&self) -> Value {
        report::result_value(self.correct(), self.attempted, self.failed_total(), &self.scaled())
    }

    fn print_summary(&self) {
        let w = self.cfg.workload;
        eprintln!(
            "{}: {} attempted, {} failed, {} incorrect (failed_frac {:.6}); {} set-ups",
            w.name(),
            self.attempted,
            self.failed,
            self.incorrect,
            self.failed_frac(),
            self.setups,
        );
        eprintln!(
            "  {} latency samples over {:.2} s in {} blocks, each with {}+ beyond its p99",
            self.samples, self.wall_s, self.blocks, self.beyond_p99
        );
        if self.beyond_p99 < stats::MIN_TAIL_SAMPLES {
            eprintln!(
                "warning: only {} samples beyond p99 (want {}); run longer",
                self.beyond_p99,
                stats::MIN_TAIL_SAMPLES
            );
        }
        for (problem, count) in &self.problems {
            eprintln!("  {count:>6} × {problem}");
        }
        let points: Vec<String> = self.kernel_ms.iter().map(|k| format!("{k:.3}")).collect();
        eprintln!(
            "  host: kernel {} ms (reference {}, elasticity {}); times × {:.4}",
            points.join(" "),
            calib::REFERENCE_MS,
            calib::ELASTICITY,
            self.scale()
        );
        eprintln!("  {:<34} {:>14} {:>14}", "metric", "at reference", "measured");
        for (&(name, unit, measured), &(_, _, scaled)) in self.metrics.iter().zip(&self.scaled()) {
            match (scaled, measured) {
                (Some(s), Some(m)) => eprintln!("  {name:<34} {s:>14.6} {m:>14.6} {unit}"),
                _ => eprintln!("  {name:<34} {:>14} {:>14} {unit}", "absent", "absent"),
            }
        }
        for (family, n) in &self.counts {
            eprintln!("  samples {family:<30} {n}");
        }
        for c in &self.checks {
            let verdict = match c.ok {
                Some(true) => "ok",
                Some(false) => "FAILED",
                None => "skipped",
            };
            eprintln!("  check {:<40} {verdict}: {}", c.name, c.detail);
        }
    }

    /// Write this run's record into `dir` for `compare`; returns its path.
    fn save(&self, dir: &Path) -> Result<PathBuf, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let stem = format!(
            "{}-seed{}{}",
            self.cfg.workload.name(),
            self.cfg.seed,
            if self.cfg.traced { "-trace" } else { "" }
        );
        let path = (0..)
            .map(|k| dir.join(format!("{stem}-{k}.json")))
            .find(|p| !p.exists())
            .expect("some index is free");
        let problems =
            self.problems.iter().map(|(k, &v)| (k.clone(), Value::UInt(v))).collect::<Vec<_>>();
        let kernel = self.kernel_ms.iter().map(|&k| Value::Float(k)).collect();
        let checks = self
            .checks
            .iter()
            .map(|c| {
                let ok = c.ok.map_or(Value::Null, Value::Bool);
                Value::Map(vec![
                    ("name".into(), Value::Str(c.name.into())),
                    ("ok".into(), ok),
                    ("detail".into(), Value::Str(c.detail.clone())),
                ])
            })
            .collect();
        let record = Value::Map(vec![
            ("workload".into(), Value::Str(self.cfg.workload.name().into())),
            ("seed".into(), Value::UInt(self.cfg.seed)),
            ("seconds".into(), Value::Float(self.cfg.seconds)),
            ("traced".into(), Value::Bool(self.cfg.traced)),
            ("samples".into(), Value::UInt(self.samples as u64)),
            ("blocks".into(), Value::UInt(self.blocks as u64)),
            ("beyond_p99".into(), Value::UInt(self.beyond_p99 as u64)),
            ("whole_run_p99_ms".into(), self.whole_p99.map_or(Value::Null, Value::Float)),
            ("wall_s".into(), Value::Float(self.wall_s)),
            ("setups".into(), Value::UInt(self.setups as u64)),
            ("kernel_ms".into(), Value::Seq(kernel)),
            ("scale".into(), Value::Float(self.scale())),
            ("measured".into(), report::metrics_value(&self.metrics)),
            ("failed_frac".into(), Value::Float(self.failed_frac())),
            ("problems".into(), Value::Map(problems)),
            ("checks".into(), Value::Seq(checks)),
            ("result".into(), self.result()),
        ]);
        std::fs::write(&path, report::to_line(record) + "\n")
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down copy of [`Sizes::FULL`] a debug build finishes in
    /// seconds.
    const SMOKE: Sizes = Sizes {
        cold_warmup: 4,
        hot_pool: 8,
        sessions_per_client: 2,
        calib_calls: 1,
        batch_pool: workloads::BATCH,
    };

    fn smoke(workload: Workload, traced: bool) -> RunReport {
        let cfg = RunConfig { workload, seed: 3, seconds: 1.0, traced, setup_max: 1, sizes: SMOKE };
        run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
    }

    /// Parse a result line back and check it against the contract.
    fn assert_schema(line: &str, names: &[(&str, &str)]) {
        let doc = serde_json::from_str::<report::Json>(line).expect("result line parses").0;
        let Value::Map(top) = &doc else { panic!("result is an object: {line}") };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(report::number(report::field(&doc, "attempted").unwrap()).unwrap() >= 1.0);
        let metrics = report::field(&doc, "metrics").unwrap();
        let Value::Map(entries) = metrics else { panic!("metrics is an object") };
        assert_eq!(entries.len(), names.len());
        for &(name, unit) in names {
            let m = report::field(metrics, name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(report::field(m, "unit").and_then(report::string), Some(unit));
            let value = report::field(m, "value").and_then(report::number);
            assert!(value.is_some_and(f64::is_finite), "{name} is not a number: {line}");
        }
    }

    #[test]
    fn every_workload_runs_clean_with_a_schema_valid_result() {
        for w in Workload::ALL {
            let report = smoke(w, false);
            assert_eq!(report.failed_frac(), 0.0, "{}: {:?}", w.name(), report.problems);
            assert!(report.correct(), "{}: {:?}", w.name(), report.problems);
            assert_schema(&report::to_line(report.result()), &END_TO_END);
        }
    }

    #[test]
    fn traced_runs_reconcile_and_emit_every_layer_metric() {
        for w in Workload::ALL {
            let report = smoke(w, true);
            assert_eq!(report.failed_frac(), 0.0, "{}: {:?}", w.name(), report.problems);
            for c in &report.checks {
                assert_ne!(c.ok, Some(false), "{}: {} — {}", w.name(), c.name, c.detail);
            }
            assert_schema(&report::to_line(report.result()), &PER_LAYER);
            assert!(!report.spans.is_empty(), "{}: traced run recorded no spans", w.name());
        }
    }

    #[test]
    fn unknown_flags_and_bad_values_are_refused() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(parse_flags(&args(&["--bogus", "1"]), &["--seed"]).is_err());
        assert!(parse_flags(&args(&["--seed"]), &["--seed"]).is_err());
        assert!(parse_flags(&args(&["--seed", "1", "--seed", "2"]), &["--seed"]).is_err());
        assert!(run_cmd(&args(&["--workload", "nope"])).is_err());
        assert!(run_cmd(&args(&["--workload", "amend", "--seconds", "0"])).is_err());
    }
}
