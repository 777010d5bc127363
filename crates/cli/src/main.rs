//! `atsched` — command-line front end for the nested active-time
//! scheduling library. `atsched --help` prints the subcommands and their
//! flags ([`USAGE`]); each subcommand refuses a flag it does not take
//! ([`FLAGS`]).
//!
//! Argument parsing is deliberately dependency-free.

mod client_cmd;
mod serve_cmd;
mod top_cmd;

use atsched_obs as obs;
use nested_active_time::baselines::exact::{nested_opt, nested_opt_parallel};
use nested_active_time::baselines::greedy::ScanOrder;
use nested_active_time::baselines::incremental::minimal_feasible_fast;
use nested_active_time::core::instance::Instance;
use nested_active_time::core::schedule::Schedule;
use nested_active_time::core::solver::{
    solve_nested, LpStrategy, ShardMode, SolveResult, SolverOptions,
};
use nested_active_time::engine::{solve_nested_sharded, Engine, EngineConfig, Outcome};
use nested_active_time::workloads::generators::{
    random_laminar, random_multi_root, LaminarConfig, MultiRootConfig,
};
use nested_active_time::workloads::io;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--help") | Some("-h") | None => {
            print!("{}", USAGE);
            Ok(())
        }
        Some(cmd) => run(cmd, &args[1..]),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
atsched — nested active-time scheduling (SPAA 2022 reproduction)

USAGE:
  atsched generate [--g N] [--horizon N] [--seed N] [--roots N] [--gap N] [--child-percent N] [--out FILE]
  atsched solve INSTANCE.{json,txt} [--lp certified|exact|float] [--polish] [--no-ceiling]
                [--shard auto|off|force] [--schedule FILE] [--svg FILE] [--metrics]
  atsched batch [INSTANCE ...] [--count N] [--g N] [--horizon N] [--seed N] [--roots N]
                [--workers N] [--no-cache] [--timeout-ms N] [--lp certified|exact|float] [--polish]
                [--shard auto|off|force] [--check] [--keep-going] [--out FILE] [--trace-out FILE]
  atsched opt INSTANCE.json [--parallel]
  atsched greedy INSTANCE.json [--order ltr|rtl|rand] [--seed N]
  atsched verify INSTANCE.json SCHEDULE.json
  atsched gaps --family lemma51|gap2 --g N
  atsched serve [--addr HOST:PORT] [--workers N] [--queue N] [--timeout-ms N]
                [--max-sessions N] [--session-ttl-ms N] [--delay-ms N]
                [--metrics-addr HOST:PORT] [--slow-ms N]
  atsched top ADDR [--interval-ms N] [--count N] [--no-clear]
  atsched client ADDR solve INSTANCE [--method auto|nested|general|greedy] [--lp certified|exact|float]
                 [--polish] [--seed N] [--shard auto|off|force] [--timeout-ms N] [--schedule FILE]
  atsched client ADDR batch INSTANCE [INSTANCE ...]
  atsched client ADDR open INSTANCE | amend SESSION DELTA.json | close SESSION
  atsched client ADDR stats | metrics | health | shutdown
  atsched amend ADDR INSTANCE --delta DELTA.json [--delta DELTA.json ...] [--keep-open]
";

/// Run one subcommand, once its flags pass [`check_flags`].
fn run(cmd: &str, args: &[String]) -> Result<(), String> {
    let run: fn(&[String]) -> Result<(), String> = match cmd {
        "generate" => cmd_generate,
        "solve" => cmd_solve,
        "batch" => cmd_batch,
        "opt" => cmd_opt,
        "greedy" => cmd_greedy,
        "verify" => cmd_verify,
        "gaps" => cmd_gaps,
        "serve" => serve_cmd::cmd_serve,
        "top" => top_cmd::cmd_top,
        "amend" => client_cmd::cmd_amend,
        // Checks the flags of its verb.
        "client" => return client_cmd::cmd_client(args),
        other => return Err(format!("unknown subcommand '{other}'\n{USAGE}")),
    };
    check_flags(cmd, args)?;
    run(args)
}

/// The flags of each subcommand, and of each `client` verb as
/// `client VERB`: those that take a value, then the switches. A value
/// flag marked `...` may repeat (`amend --delta`); every other flag may
/// be given once.
const FLAGS: &[(&str, &str, &str)] = &[
    ("generate", "--g --horizon --seed --roots --gap --child-percent --out", ""),
    ("solve", "--lp --shard --schedule --svg", "--polish --no-ceiling --metrics"),
    (
        "batch",
        "--count --g --horizon --seed --roots --workers --timeout-ms --lp --shard --out --trace-out",
        "--no-cache --polish --check --keep-going",
    ),
    ("opt", "", "--parallel"),
    ("greedy", "--order --seed", ""),
    ("verify", "", ""),
    ("gaps", "--family --g", ""),
    (
        "serve",
        "--addr --workers --queue --timeout-ms --max-sessions --session-ttl-ms --delay-ms \
         --metrics-addr --slow-ms",
        "",
    ),
    ("top", "--interval-ms --count", "--no-clear"),
    ("client solve", "--method --lp --seed --shard --timeout-ms --schedule", "--polish"),
    ("client batch", "", ""),
    ("client open", "", ""),
    ("client amend", "", ""),
    ("client close", "", ""),
    ("client stats", "", ""),
    ("client metrics", "", ""),
    ("client health", "", ""),
    ("client shutdown", "", ""),
    ("amend", "--delta...", "--keep-open"),
];

/// Refuse any `--flag` that `cmd` does not take (see [`FLAGS`]), a
/// value flag with no value, and a second occurrence of a flag that may
/// not repeat. Returns the positional arguments: every argument that is
/// neither a flag nor a value flag's value.
pub(crate) fn check_flags<'a>(cmd: &str, args: &'a [String]) -> Result<Vec<&'a str>, String> {
    let (_, values, switches) = FLAGS
        .iter()
        .find(|(name, ..)| *name == cmd)
        .ok_or_else(|| format!("unknown subcommand '{cmd}'\n{USAGE}"))?;
    let mut positionals = Vec::new();
    let mut seen: Vec<&str> = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            positionals.push(arg.as_str());
            continue;
        }
        let value = values.split_whitespace().find(|flag| flag.trim_end_matches("...") == arg);
        if let Some(flag) = value {
            args.next().ok_or_else(|| format!("{arg} needs a value (atsched {cmd})"))?;
            if flag.ends_with("...") {
                continue;
            }
        } else if !switches.split_whitespace().any(|flag| flag == arg) {
            return Err(format!("unknown flag {arg} for `atsched {cmd}` (see `atsched --help`)"));
        }
        if seen.contains(&arg.as_str()) {
            return Err(format!("{arg} given more than once (atsched {cmd})"));
        }
        seen.push(arg);
    }
    Ok(positionals)
}

pub(crate) fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

pub(crate) fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

pub(crate) fn parse_num<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: T,
) -> Result<T, String> {
    Ok(parse_opt(args, name)?.unwrap_or(default))
}

/// The value of flag `name`, parsed, when it is given.
pub(crate) fn parse_opt<T: std::str::FromStr>(
    args: &[String],
    name: &str,
) -> Result<Option<T>, String> {
    flag_value(args, name)
        .map(|v| v.parse().map_err(|_| format!("invalid value for {name}: {v}")))
        .transpose()
}

/// Load an instance: `.txt` files use the plain-text exchange format,
/// everything else is JSON.
pub(crate) fn load(path: &str) -> Result<Instance, String> {
    if path.ends_with(".txt") {
        let body = std::fs::read_to_string(path).map_err(|e| format!("loading {path}: {e}"))?;
        io::instance_from_text(&body).map_err(|e| format!("parsing {path}: {e}"))
    } else {
        io::load_instance(Path::new(path)).map_err(|e| format!("loading {path}: {e}"))
    }
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let base = LaminarConfig {
        g: parse_num(args, "--g", 3i64)?,
        horizon: parse_num(args, "--horizon", 24i64)?,
        child_percent: parse_num(args, "--child-percent", 70u32)?,
        ..Default::default()
    }
    .validated()
    .map_err(|e| e.to_string())?;
    let seed: u64 = parse_num(args, "--seed", 0u64)?;
    let roots: usize = parse_num(args, "--roots", 1usize)?;
    let inst = if roots > 1 {
        let cfg = MultiRootConfig { base, roots, gap: parse_num(args, "--gap", 1i64)? }
            .validated()
            .map_err(|e| e.to_string())?;
        random_multi_root(&cfg, seed)
    } else {
        random_laminar(&base, seed)
    };
    match flag_value(args, "--out") {
        Some(path) => {
            io::save_instance(&inst, Path::new(path)).map_err(|e| e.to_string())?;
            eprintln!(
                "wrote {} ({} jobs, g = {}, horizon {:?})",
                path,
                inst.num_jobs(),
                inst.g,
                inst.horizon().unwrap()
            );
        }
        None => println!("{}", io::instance_to_json(&inst)),
    }
    Ok(())
}

/// The `--lp`, `--polish` and `--shard` flags `solve` and `batch` share.
fn solver_options(args: &[String]) -> Result<SolverOptions, String> {
    let mut opts = SolverOptions::exact();
    if let Some(lp) = flag_value(args, "--lp") {
        opts.lp = lp.parse::<LpStrategy>()?;
    }
    opts.polish = has_flag(args, "--polish");
    if let Some(mode) = flag_value(args, "--shard") {
        opts.shard = mode.parse::<ShardMode>()?;
    }
    Ok(opts)
}

fn cmd_solve(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("solve needs an instance file")?;
    let inst = load(path)?;
    let mut opts = solver_options(args)?;
    if has_flag(args, "--no-ceiling") {
        opts.use_ceiling = false;
    }
    let metrics = has_flag(args, "--metrics");
    let registry = Arc::new(obs::Registry::new());
    let result = if metrics {
        let collector = obs::Collector::new(Arc::clone(&registry));
        obs::with_collector(collector, || solve_nested_sharded(&inst, &opts))
    } else {
        solve_nested_sharded(&inst, &opts)
    }
    .map_err(|e| e.to_string())?;
    println!("jobs            : {}", inst.num_jobs());
    println!("g               : {}", inst.g);
    println!("LP lower bound  : {:.4}", result.stats.lp_objective);
    if let Some(exact) = &result.stats.lp_objective_exact {
        println!("LP (exact)      : {exact}");
    }
    println!("opened slots    : {}", result.stats.opened_slots);
    println!("active slots    : {}", result.stats.active_slots);
    println!("ALG/LP          : {:.4}", result.stats.opened_over_lp);
    println!("repair / polish : {} / {}", result.stats.repair_opened, result.stats.polish_closed);
    println!();
    println!("{}", result.schedule.render_timeline(&inst));
    if let Some(out) = flag_value(args, "--schedule") {
        let json = serde_json::to_string_pretty(&result.schedule).map_err(|e| e.to_string())?;
        std::fs::write(out, json).map_err(|e| e.to_string())?;
        eprintln!("schedule written to {out}");
    }
    if let Some(out) = flag_value(args, "--svg") {
        use nested_active_time::core::render::{to_svg, SvgOptions};
        let svg = to_svg(&inst, &result.schedule, &SvgOptions::default());
        std::fs::write(out, svg).map_err(|e| e.to_string())?;
        eprintln!("gantt chart written to {out}");
    }
    if metrics {
        let json = serde_json::to_string_pretty(&registry.snapshot()).map_err(|e| e.to_string())?;
        println!();
        println!("{json}");
    }
    Ok(())
}

/// Solve a corpus of instances through the parallel batch engine and
/// print the JSON batch report (outcome counts, cache hit rate, p50 /
/// p95 / max latencies end-to-end and per pipeline stage).
///
/// The corpus is the positional instance files plus, when `--count N`
/// is given, `N` generated laminar instances (seeds `--seed`,
/// `--seed + 1`, …).
fn cmd_batch(args: &[String]) -> Result<(), String> {
    let mut instances = Vec::new();
    for path in check_flags("batch", args)? {
        instances.push(load(path)?);
    }
    let count: usize = parse_num(args, "--count", 0usize)?;
    if count > 0 {
        let base = LaminarConfig {
            g: parse_num(args, "--g", 3i64)?,
            horizon: parse_num(args, "--horizon", 24i64)?,
            ..Default::default()
        }
        .validated()
        .map_err(|e| e.to_string())?;
        let seed: u64 = parse_num(args, "--seed", 0u64)?;
        let roots: usize = parse_num(args, "--roots", 1usize)?;
        for i in 0..count {
            let s = seed.wrapping_add(i as u64);
            if roots > 1 {
                let cfg = MultiRootConfig { base: base.clone(), roots, gap: 1 }
                    .validated()
                    .map_err(|e| e.to_string())?;
                instances.push(random_multi_root(&cfg, s));
            } else {
                instances.push(random_laminar(&base, s));
            }
        }
    }
    if instances.is_empty() {
        return Err("batch needs instance files and/or --count N".into());
    }

    let opts = solver_options(args)?;
    let mut cfg = EngineConfig::default()
        .workers(parse_num(args, "--workers", 0usize)?)
        .cache(!has_flag(args, "--no-cache"));
    if let Some(ms) = parse_opt(args, "--timeout-ms")? {
        cfg = cfg.timeout(std::time::Duration::from_millis(ms));
    }

    let trace = flag_value(args, "--trace-out")
        .map(|path| (path.to_string(), std::sync::Arc::new(atsched_obs::TraceBuffer::new())));
    // Every engine this command runs records into one registry, so
    // `--check` reads the solver's repair guard across all of them.
    let registry = Arc::new(obs::Registry::new());
    let mut engine = Engine::with_registry(cfg, Arc::clone(&registry));
    if let Some((_, buffer)) = &trace {
        engine = engine.with_trace(std::sync::Arc::clone(buffer));
    }
    let batch = engine.solve_batch(&instances, &opts);
    if let Some((path, buffer)) = &trace {
        std::fs::write(path, buffer.to_chrome_json()).map_err(|e| e.to_string())?;
        eprintln!("trace written to {path} ({} events; load via chrome://tracing)", buffer.len());
    }

    if has_flag(args, "--check") {
        let n = instances.len();
        let pool = |workers| {
            let cfg = EngineConfig::default().workers(workers).cache(false);
            Engine::with_registry(cfg, Arc::clone(&registry))
        };
        let sequential = pool(1).solve_batch(&instances, &opts);
        compare_outcomes(
            "parallel",
            &batch.outcomes,
            "sequential",
            &sequential.outcomes,
            |a, b| a.schedule == b.schedule,
        )?;
        eprintln!("check: parallel results identical to sequential on {n} instances");

        // Shard equivalence: forcing root decomposition must not change
        // the objective relative to the monolithic solve.
        let forced = SolverOptions { shard: ShardMode::Force, ..opts.clone() };
        let off = SolverOptions { shard: ShardMode::Off, ..opts.clone() };
        let fb = pool(0).solve_batch(&instances, &forced);
        let ob = pool(1).solve_batch(&instances, &off);
        compare_outcomes("shard=force", &fb.outcomes, "shard=off", &ob.outcomes, |a, b| {
            a.stats.opened_slots == b.stats.opened_slots
                && a.schedule.active_time() == b.schedule.active_time()
        })?;
        eprintln!("check: shard=force objectives identical to shard=off on {n} instances");

        check_certified_matches_exact(&instances, &opts, &registry)?;
        eprintln!("check: lp=certified schedules bit-identical to lp=exact on {n} instances");

        check_no_certified_repairs(&registry)?;
        eprintln!("check: no certified answer needed repair on {n} instances");
    }

    let json = batch.report.to_json_pretty();
    match flag_value(args, "--out") {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| e.to_string())?;
            eprintln!("report written to {path}");
        }
        None => println!("{json}"),
    }
    eprintln!(
        "batch: {} instances, {} solved, {} infeasible, {} timed out, {} failed ({} workers, {:.0}% cache hits)",
        batch.report.total,
        batch.report.solved,
        batch.report.infeasible,
        batch.report.timed_out,
        batch.report.failed,
        batch.report.workers,
        100.0 * batch.report.cache.hit_rate
    );
    // A batch with lost work must not exit 0 — scripts and CI depend on
    // the status code. `--keep-going` restores the old advisory
    // behavior. (Infeasible is a *result*, not a failure.)
    let lost = batch.report.timed_out + batch.report.failed;
    if lost > 0 && !has_flag(args, "--keep-going") {
        return Err(format!(
            "{} of {} instances did not finish ({} timed out, {} failed); \
             pass --keep-going to exit 0 anyway",
            lost, batch.report.total, batch.report.timed_out, batch.report.failed
        ));
    }
    Ok(())
}

/// Solve `instances` under `lp=certified` and under the `lp=exact`
/// reference (the rest of `opts` unchanged), recording into `registry`:
/// every schedule and every open-count vector must be bit-identical.
fn check_certified_matches_exact(
    instances: &[Instance],
    opts: &SolverOptions,
    registry: &Arc<obs::Registry>,
) -> Result<(), String> {
    let solve = |lp| {
        Engine::with_registry(EngineConfig::default().cache(false), Arc::clone(registry))
            .solve_batch(instances, &SolverOptions { lp, ..opts.clone() })
    };
    let certified = solve(LpStrategy::Certified);
    let exact = solve(LpStrategy::Exact);
    compare_outcomes("lp=certified", &certified.outcomes, "lp=exact", &exact.outcomes, |a, b| {
        a.schedule == b.schedule && a.z == b.z
    })
}

/// Fail when the solver's repair guard fired: a tree or hybrid answer
/// that needed repair slots was re-solved under `lp=exact`. Its schedule
/// then matches the reference, so only the counter shows it.
fn check_no_certified_repairs(registry: &obs::Registry) -> Result<(), String> {
    match registry.snapshot().counter("solver.certified_repair_fallbacks").unwrap_or(0) {
        0 => Ok(()),
        n => Err(format!(
            "{n} certified answers needed repair and were re-solved exactly \
             (solver.certified_repair_fallbacks)"
        )),
    }
}

/// Walk two runs over the same corpus and fail on the first instance
/// whose outcomes differ: both solved but not `same`, or different
/// verdicts. A timeout on either side is racy and passes.
fn compare_outcomes(
    left: &str,
    a: &[Outcome],
    right: &str,
    b: &[Outcome],
    same: impl Fn(&SolveResult, &SolveResult) -> bool,
) -> Result<(), String> {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let agree = match (x, y) {
            (Outcome::Solved(p), Outcome::Solved(q)) => same(&p.result, &q.result),
            (Outcome::Infeasible, Outcome::Infeasible) => true,
            (Outcome::TimedOut, _) | (_, Outcome::TimedOut) => true,
            _ => false,
        };
        if !agree {
            return Err(format!(
                "instance {i}: {left} outcome {} diverges from {right} {}",
                x.label(),
                y.label()
            ));
        }
    }
    Ok(())
}

fn cmd_opt(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("opt needs an instance file")?;
    let inst = load(path)?;
    let opt = if has_flag(args, "--parallel") {
        nested_opt_parallel(&inst, 0)
    } else {
        nested_opt(&inst, 0)
    };
    match opt {
        Some(s) => {
            println!("optimal active slots: {}", s.active_time());
            println!();
            println!("{}", s.render_timeline(&inst));
            Ok(())
        }
        None => Err("instance is infeasible".into()),
    }
}

fn cmd_greedy(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("greedy needs an instance file")?;
    let inst = load(path)?;
    let order = match flag_value(args, "--order").unwrap_or("rtl") {
        "ltr" => ScanOrder::LeftToRight,
        "rtl" => ScanOrder::RightToLeft,
        "rand" => ScanOrder::Shuffled(parse_num(args, "--seed", 0u64)?),
        other => return Err(format!("unknown order '{other}'")),
    };
    match minimal_feasible_fast(&inst, order) {
        Some(r) => {
            println!(
                "greedy active slots: {} ({} deactivated of {})",
                r.schedule.active_time(),
                r.deactivated,
                r.examined
            );
            Ok(())
        }
        None => Err("instance is infeasible".into()),
    }
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    let inst_path = args.first().ok_or("verify needs INSTANCE.json SCHEDULE.json")?;
    let sched_path = args.get(1).ok_or("verify needs INSTANCE.json SCHEDULE.json")?;
    let inst = load(inst_path)?;
    let body = std::fs::read_to_string(sched_path).map_err(|e| e.to_string())?;
    let schedule: Schedule = serde_json::from_str(&body).map_err(|e| e.to_string())?;
    schedule.verify(&inst).map_err(|e| e.to_string())?;
    println!("schedule is valid: {} active slots", schedule.active_time());
    Ok(())
}

fn cmd_gaps(args: &[String]) -> Result<(), String> {
    use nested_active_time::gaps::instances::{gap2_instance, lemma51_instance};
    use nested_active_time::gaps::{cw_lp, natural_lp};
    use nested_active_time::num::Ratio;
    let g: i64 = parse_num(args, "--g", 3i64)?;
    let family = flag_value(args, "--family").unwrap_or("lemma51");
    let inst = match family {
        "lemma51" => lemma51_instance(g),
        "gap2" => gap2_instance(g),
        other => return Err(format!("unknown family '{other}'")),
    };
    let natural = natural_lp::value::<Ratio>(&inst).ok_or("infeasible")?;
    let cw = cw_lp::value::<Ratio>(&inst).ok_or("infeasible")?;
    let tree = solve_nested(&inst, &SolverOptions::exact()).map_err(|e| e.to_string())?;
    let opt = nested_opt(&inst, 0).ok_or("infeasible")?;
    println!("family {family}, g = {g}:");
    println!("  natural LP : {natural}");
    println!("  CW LP      : {cw}");
    println!("  tree LP    : {}", tree.stats.lp_objective_exact.as_deref().unwrap_or("-"));
    println!("  OPT        : {}", opt.active_time());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nested_active_time::core::instance::Job;

    #[test]
    fn certified_exact_check_reports_a_diverging_pair() {
        let declines =
            Instance::new(2, vec![Job::new(0, 10, 2), Job::new(1, 6, 2), Job::new(7, 9, 1)])
                .unwrap();
        let rigid = Instance::new(2, vec![Job::new(0, 2, 1); 3]).unwrap();
        let infeasible = Instance::new(1, vec![Job::new(0, 2, 1); 3]).unwrap();
        let opts = SolverOptions::exact();
        let registry = Arc::new(obs::Registry::new());
        let corpus = [declines.clone(), rigid.clone(), infeasible.clone()];
        check_certified_matches_exact(&corpus, &opts, &registry).unwrap();

        // Line up different instances at one corpus position: the
        // comparison names the first one whose outcomes diverge.
        let engine = Engine::new(EngineConfig::default().workers(1));
        let left = engine.solve_batch(&[rigid.clone(), declines.clone()], &opts).outcomes;
        let same = |x: &SolveResult, y: &SolveResult| x.schedule == y.schedule;
        assert!(compare_outcomes("lp=certified", &left, "lp=exact", &left, same).is_ok());
        let right = engine.solve_batch(&[rigid.clone(), rigid], &opts).outcomes;
        let err = compare_outcomes("lp=certified", &left, "lp=exact", &right, same).unwrap_err();
        assert_eq!(err, "instance 1: lp=certified outcome solved diverges from lp=exact solved");
        let right = engine.solve_batch(&[infeasible, declines], &opts).outcomes;
        let err = compare_outcomes("lp=certified", &left, "lp=exact", &right, same).unwrap_err();
        assert_eq!(
            err,
            "instance 0: lp=certified outcome solved diverges from lp=exact infeasible"
        );
    }

    /// The flags USAGE lists for each subcommand (each `client` verb on
    /// its own, keyed like [`FLAGS`]), each with whether a value
    /// follows it.
    fn usage_flags() -> Vec<(String, Vec<(String, bool)>)> {
        let mut synopses: Vec<String> = Vec::new();
        for line in USAGE.lines() {
            match line.strip_prefix("  atsched ") {
                Some(synopsis) => synopses.push(synopsis.to_string()),
                None if line.starts_with("    ") => synopses.last_mut().unwrap().push_str(line),
                None => {}
            }
        }
        let mut out = Vec::new();
        for synopsis in &synopses {
            let (cmd, rest) = synopsis.split_once(' ').unwrap_or((synopsis, ""));
            let parts: Vec<(String, &str)> = match rest.strip_prefix("ADDR ") {
                Some(verbs) if cmd == "client" => verbs
                    .split(" | ")
                    .map(|part| {
                        let (verb, rest) = part.split_once(' ').unwrap_or((part, ""));
                        (format!("client {verb}"), rest)
                    })
                    .collect(),
                _ => vec![(cmd.to_string(), rest)],
            };
            for (name, text) in parts {
                let words: Vec<&str> = text.split_whitespace().collect();
                let flags = words.iter().enumerate().filter_map(|(i, word)| {
                    let flag = word.trim_start_matches('[');
                    let bare = flag.trim_end_matches(']');
                    let value = |next: &&str| !next.starts_with('[') && !next.starts_with("--");
                    let takes_value = bare == flag && words.get(i + 1).is_some_and(value);
                    flag.starts_with("--").then(|| (bare.to_string(), takes_value))
                });
                out.push((name, flags.collect()));
            }
        }
        out
    }

    #[test]
    fn every_subcommand_takes_exactly_the_flags_usage_lists() {
        let usage = usage_flags();
        assert_eq!(usage.len(), FLAGS.len(), "{usage:?}");
        for (name, listed) in usage {
            let (_, values, switches) = FLAGS
                .iter()
                .find(|(cmd, ..)| *cmd == name)
                .unwrap_or_else(|| panic!("USAGE lists `{name}`, FLAGS does not"));
            let mut want: Vec<(String, bool)> = values
                .split_whitespace()
                .map(|f| (f.trim_end_matches("...").to_string(), true))
                .collect();
            want.extend(switches.split_whitespace().map(|f| (f.to_string(), false)));
            want.sort();
            let mut listed = listed;
            listed.sort();
            // USAGE shows a repeatable flag twice (`amend --delta`).
            let repeatable: Vec<String> =
                listed.windows(2).filter(|w| w[0] == w[1]).map(|w| w[0].0.clone()).collect();
            listed.dedup();
            assert_eq!(listed, want, "`atsched {name}`: USAGE against FLAGS");

            for (flag, takes_value) in &listed {
                let mut args = vec![flag.clone()];
                if *takes_value {
                    args.push("1".into());
                    assert!(check_flags(&name, &args[..1]).unwrap_err().contains("needs a value"));
                }
                assert_eq!(check_flags(&name, &args), Ok(vec![]), "{name} {args:?}");
                args.extend(args.clone());
                let twice = check_flags(&name, &args);
                if repeatable.contains(flag) {
                    assert_eq!(twice, Ok(vec![]), "{name} {args:?}");
                } else {
                    let err = twice.unwrap_err();
                    assert!(err.starts_with(&format!("{flag} given more than once")), "{err}");
                }
            }
            let err = check_flags(&name, &["--polsh".to_string()]).unwrap_err();
            assert!(
                err.starts_with(&format!("unknown flag --polsh for `atsched {name}`")),
                "{err}"
            );
        }
    }

    #[test]
    fn repair_check_names_the_count() {
        let registry = obs::Registry::new();
        assert_eq!(check_no_certified_repairs(&registry), Ok(()));
        registry.counter("solver.certified_repair_fallbacks").add(2);
        assert!(check_no_certified_repairs(&registry).unwrap_err().starts_with("2 certified"));
    }
}
