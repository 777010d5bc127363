//! `atsched-bench` — the default perf-baseline binary (`cargo run -p
//! atsched-bench`).
//!
//! Runs a fixed seeded laminar corpus through the batch engine twice —
//! once with observation recording on, once with it disabled — and
//! emits a `BENCH_<tag>.json` baseline: per-stage p50/p95 latencies
//! from the `span.*` histograms, algorithm counters (LP pivots, flow
//! augmentations), end-to-end solve percentiles, and the measured
//! instrumentation overhead. An `lp_hybrid` section re-runs the corpus
//! once per LP strategy and records the lp-stage p50 under
//! `lp=certified` vs `lp=exact`, the speedup between them, and the
//! hybrid verify/fallback counters (the fallback rate is the honesty
//! figure: how often the f64-first path had to re-solve exactly). An
//! `lp_tree` section prices the LP-free combinatorial path: lp-stage
//! p50 on the pinned-optima unit-blocks/shallow-nest families under
//! `lp=certified` vs `lp=exact`, plus how much of the main corpus the
//! tree DP absorbed and the per-reason fallback counters. CI uploads the file as an artifact so future PRs can diff
//! the perf trajectory.
//!
//! ```text
//! cargo run --release -p atsched-bench -- \
//!     [--tag NAME] [--count N] [--g N] [--horizon N] [--seed N] [--roots N] \
//!     [--runs N] [--out FILE] [--compare PREV.json] [--in REPORT.json] \
//!     [--serve] [--serve-only] [--serve-conns N] [--serve-reqs N] \
//!     [--serve-workers N] [--serve-addr HOST:PORT] \
//!     [--serve-scrape] [--serve-scale-addr HOST:PORT] [--serve-scale-conns N]
//! ```
//!
//! `--tag` names the baseline and derives the default output file
//! (`BENCH_<tag>.json`). `--roots N` switches the corpus to many-root
//! instances (`N` independent laminar trees each) and adds two
//! sections to the report: a single-instance `shard=force` vs
//! `shard=off` wall-clock comparison, and a steady-state session
//! `amend` workload (one job re-windowed inside its root hull per
//! amend) measured against cold full re-solves.
//!
//! `--serve` adds a `serve` section: the reactor load generator
//! ([`atsched_serve::run_load`]) drives `--serve-conns` concurrent
//! connections against an in-process server (or an external one named
//! by `--serve-addr`) and records connect/request latency
//! distributions. `--serve-only` skips the solve corpus and emits just
//! the serve section — CI's load-smoke job uses this. `--serve-scrape`
//! (in-process only) also opens the HTTP scrape listener and polls
//! `GET /metrics` throughout the load run, failing the bench if any
//! exposition fails to parse, the request counter moves backwards, or
//! the last scrape disagrees with the drain snapshot. A separate
//! `--serve-scale-addr` section targets an already-running server for
//! fleet sizes (10k+ connections) that want the client and server in
//! different processes, splitting the per-process fd budget.
//!
//! `--compare PREV.json` gates the run against a previous baseline:
//! the lp-stage p50 must not regress more than 10%, an amend section
//! must keep its ratio at or below 0.5x, an obs section must keep the
//! telemetry plane's solve-p50 overhead at or below +3%, and a serve
//! section must record zero errors and zero request timeouts and keep
//! its request p99 under `1.75x previous + 10 ms` at the same
//! connection count. Reports are stamped with a `schema_version`; a
//! baseline *lacking a section the current report carries* is a hard
//! schema error, never a silently skipped gate. `--in REPORT.json`
//! skips the benchmark and loads an already-written report instead —
//! CI uses this to run the compare as its own step without re-benching.

use atsched_core::delta::JobDelta;
use atsched_core::instance::Instance;
use atsched_core::solver::{solve_nested, LpStrategy, ShardMode, SolverOptions};
use atsched_engine::{solve_nested_sharded, Engine, EngineConfig, Outcome};
use atsched_obs as obs;
use atsched_serve::{run_load, Client, LoadConfig, Server, ServerConfig};
use atsched_workloads::families::{shallow_nest, unit_blocks};
use atsched_workloads::generators::{
    random_laminar, random_multi_root, LaminarConfig, MultiRootConfig,
};
use serde::ser::{Serialize, Serializer};
use serde::value::Value;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Report layout version stamped into every baseline. Bump when the
/// section set or gated fields change shape.
const SCHEMA_VERSION: u64 = 5;

/// Wrapper giving a hand-built [`Value`] tree a `Serialize` impl (the
/// vendored serde stub has none for `Value` itself).
struct Json(Value);

impl Serialize for Json {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(self.0.clone())
    }
}

impl<'de> serde::de::Deserialize<'de> for Json {
    fn deserialize<D: serde::de::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_value().map(Json)
    }
}

fn flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("invalid value for {name}: {v}")),
    }
}

fn opt_flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Load a previously written baseline report.
fn load_report(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str::<Json>(&text).map(|j| j.0).map_err(|e| format!("parsing {path}: {e}"))
}

/// Look up a key in a `Value::Map`.
fn field(v: &Value, key: &str) -> Option<Value> {
    match v {
        Value::Map(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()),
        _ => None,
    }
}

fn as_f64(v: Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(f),
        Value::Int(i) => Some(i as f64),
        Value::UInt(u) => Some(u as f64),
        _ => None,
    }
}

/// Pull `stages.<stage>.p50_ms` out of a report tree.
fn stage_p50(report: &Value, stage: &str) -> Option<f64> {
    as_f64(field(&field(&field(report, "stages")?, stage)?, "p50_ms")?)
}

/// Maximum tolerated lp-stage p50 growth before `--compare` fails.
const REGRESSION_LIMIT_PCT: f64 = 10.0;

/// Maximum tolerated steady-state amend p50 as a fraction of the full
/// re-solve p50 before `--compare` fails (only when the report carries
/// an amend section, i.e. on a many-root corpus).
const AMEND_RATIO_LIMIT: f64 = 0.5;

/// Serve request-p99 gate: the current p99 may not exceed
/// `previous * FACTOR + SLACK`. Generous because short smoke runs on
/// shared CI boxes put few samples in the tail buckets.
const SERVE_P99_FACTOR: f64 = 1.75;
const SERVE_P99_SLACK_MS: f64 = 10.0;

/// Telemetry-plane overhead gate: solve p50 with the full observability
/// plane installed (collector + windowed instruments + request trace)
/// may cost at most this much over the plain solve p50.
const OBS_OVERHEAD_LIMIT_PCT: f64 = 3.0;

/// The tree path must at least match the simplex on the pinned-optima
/// families it was built for — a slower "fast path" means the DP or
/// the flow certification regressed.
const TREE_FAMILY_SPEEDUP_MIN: f64 = 1.0;

/// Sections whose presence in the current report obliges the baseline
/// to carry them too. A baseline missing one of these measured a
/// different workload; silently skipping its gate would wave a
/// regression through, so `--compare` refuses with a schema error.
/// (`obs` is *not* listed: its gate is an absolute limit on the current
/// report, needing no baseline counterpart, so v2 baselines stay
/// comparable.)
const GATED_SECTIONS: &[&str] = &["stages", "shard", "amend", "serve", "serve_scale"];

/// The `schema_version` a report was written with; reports predating
/// the stamp are v1.
fn schema_version_of(report: &Value) -> u64 {
    field(report, "schema_version").and_then(as_f64).map_or(1, |v| v as u64)
}

/// Cross-version and cross-shape sanity for `--compare`.
fn check_schema(cur: &Value, prev: &Value, prev_path: &str) -> Result<(), String> {
    let prev_version = schema_version_of(prev);
    if prev_version > SCHEMA_VERSION {
        return Err(format!(
            "{prev_path} was written by a newer bench (schema v{prev_version}; this binary \
             understands up to v{SCHEMA_VERSION}) — rebuild before comparing"
        ));
    }
    for name in GATED_SECTIONS {
        if field(cur, name).is_some() && field(prev, name).is_none() {
            return Err(format!(
                "{prev_path} (schema v{prev_version}) lacks the `{name}` section this run \
                 recorded — regenerate the baseline with a matching bench invocation; \
                 refusing to silently skip its gate"
            ));
        }
    }
    Ok(())
}

/// Gate the amend-vs-full-re-solve ratio recorded in a report. Reports
/// without an amend section (single-root corpora) pass trivially.
fn check_amend_gate(report: &Value, label: &str) -> Result<(), String> {
    let Some(amend) = field(report, "amend") else { return Ok(()) };
    let ratio =
        as_f64(field(&amend, "ratio").ok_or(format!("{label}: amend section has no ratio"))?)
            .ok_or(format!("{label}: amend ratio is not a number"))?;
    eprintln!(
        "bench-compare: steady-state amend p50 is {:.2}x the full re-solve p50 \
         (limit {AMEND_RATIO_LIMIT:.2}x)",
        ratio
    );
    if ratio > AMEND_RATIO_LIMIT {
        return Err(format!(
            "steady-state amend p50 is {ratio:.2}x the full re-solve p50 \
             (limit {AMEND_RATIO_LIMIT:.2}x): session reuse is not paying off"
        ));
    }
    Ok(())
}

/// Gate the telemetry-plane overhead recorded in a report. Reports
/// without an `obs` section (pre-v3, or `--serve-only`) pass trivially.
fn check_obs_gate(report: &Value, label: &str) -> Result<(), String> {
    let Some(obs) = field(report, "obs") else { return Ok(()) };
    let pct = as_f64(
        field(&obs, "overhead_pct").ok_or(format!("{label}: obs section has no overhead_pct"))?,
    )
    .ok_or(format!("{label}: obs overhead_pct is not a number"))?;
    eprintln!(
        "bench-compare: telemetry plane costs {pct:+.2}% on solve p50 \
         (limit +{OBS_OVERHEAD_LIMIT_PCT:.0}%)"
    );
    if pct > OBS_OVERHEAD_LIMIT_PCT {
        return Err(format!(
            "telemetry-plane overhead is {pct:+.2}% on solve p50 \
             (limit +{OBS_OVERHEAD_LIMIT_PCT:.0}%): the plane is no longer cheap enough \
             to stay on by default"
        ));
    }
    Ok(())
}

/// Gate the LP-free tree path recorded in a report. Reports without an
/// `lp_tree` section (pre-v5, or `--serve-only`) pass trivially. Like
/// the obs gate this is an absolute limit on the current report — no
/// baseline counterpart needed, so v4 baselines stay comparable.
fn check_lp_tree_gate(report: &Value, label: &str) -> Result<(), String> {
    let Some(tree) = field(report, "lp_tree") else { return Ok(()) };
    let num = |key: &str| -> Result<f64, String> {
        as_f64(field(&tree, key).ok_or(format!("{label}: lp_tree section has no {key}"))?)
            .ok_or(format!("{label}: lp_tree {key} is not a number"))
    };
    let speedup = num("speedup")?;
    let family_fallbacks = num("family_fallbacks")?;
    eprintln!(
        "bench-compare: lp-free tree path is {speedup:.2}x the simplex on its families \
         (limit {TREE_FAMILY_SPEEDUP_MIN:.2}x, {family_fallbacks} family fallbacks)"
    );
    if family_fallbacks > 0.0 {
        return Err(format!(
            "the tree path declined {family_fallbacks} pinned-family solves — the \
             unit-blocks/shallow-nest corpus must be 100% tree-handled"
        ));
    }
    if speedup < TREE_FAMILY_SPEEDUP_MIN {
        return Err(format!(
            "lp-free tree path is only {speedup:.2}x the simplex on its families \
             (limit {TREE_FAMILY_SPEEDUP_MIN:.2}x): the fast path is not fast"
        ));
    }
    Ok(())
}

/// Numeric field at `path` inside a serve section, with a schema error
/// naming what is missing rather than a panic or a default.
fn serve_num(section: &Value, label: &str, path: &[&str]) -> Result<f64, String> {
    let mut v = section.clone();
    for key in path {
        v = field(&v, key)
            .ok_or_else(|| format!("{label}: serve section has no `{}`", path.join(".")))?;
    }
    as_f64(v).ok_or_else(|| format!("{label}: serve `{}` is not a number", path.join(".")))
}

/// Gate the serve request p99 against the previous baseline. Only runs
/// when the current report has a `serve` section; [`check_schema`] has
/// already guaranteed the baseline has one too.
fn check_serve_gate(
    cur: &Value,
    cur_label: &str,
    prev: &Value,
    prev_path: &str,
) -> Result<(), String> {
    let Some(cur_s) = field(cur, "serve") else { return Ok(()) };
    let prev_s = field(prev, "serve").ok_or_else(|| format!("{prev_path} has no serve section"))?;

    let errors = serve_num(&cur_s, cur_label, &["errors"])?;
    if errors > 0.0 {
        return Err(format!("{cur_label}: the serve load run recorded {errors} errors"));
    }
    // `timeouts` is split out of `errors` from schema v3 on; gate it the
    // same way (absent on older reports = zero).
    let timeouts = field(&cur_s, "timeouts").and_then(as_f64).unwrap_or(0.0);
    if timeouts > 0.0 {
        return Err(format!(
            "{cur_label}: the serve load run recorded {timeouts} request timeouts"
        ));
    }
    let cur_conns = serve_num(&cur_s, cur_label, &["conns"])?;
    let prev_conns = serve_num(&prev_s, prev_path, &["conns"])?;
    if cur_conns != prev_conns {
        return Err(format!(
            "serve sections are not comparable: {cur_conns} connections ({cur_label}) vs \
             {prev_conns} ({prev_path}) — rerun with --serve-conns {prev_conns}"
        ));
    }
    let cur_p99 = serve_num(&cur_s, cur_label, &["req_ms", "p99_ms"])?;
    let prev_p99 = serve_num(&prev_s, prev_path, &["req_ms", "p99_ms"])?;
    let limit = prev_p99 * SERVE_P99_FACTOR + SERVE_P99_SLACK_MS;
    eprintln!(
        "bench-compare: serve req p99 {prev_p99:.2} ms ({prev_path}) -> {cur_p99:.2} ms \
         ({cur_label}) at {cur_conns} conns, limit {limit:.2} ms"
    );
    if cur_p99 > limit {
        return Err(format!(
            "serve req p99 regressed: {cur_p99:.2} ms exceeds {limit:.2} ms \
             ({SERVE_P99_FACTOR}x previous {prev_p99:.2} ms + {SERVE_P99_SLACK_MS} ms slack)"
        ));
    }
    Ok(())
}

/// Run every gate the current report's sections call for against a
/// previous baseline.
fn compare_reports(cur: &Value, cur_label: &str, prev_path: &str) -> Result<(), String> {
    let prev = load_report(prev_path)?;
    check_schema(cur, &prev, prev_path)?;

    if field(cur, "stages").is_some() {
        let cur_lp =
            stage_p50(cur, "lp").ok_or_else(|| format!("{cur_label} has no lp-stage p50"))?;
        let prev_lp =
            stage_p50(&prev, "lp").ok_or_else(|| format!("{prev_path} has no lp-stage p50"))?;
        if prev_lp <= 0.0 {
            return Err(format!("{prev_path} has a non-positive lp-stage p50 ({prev_lp})"));
        }
        let change_pct = (cur_lp - prev_lp) / prev_lp * 100.0;
        eprintln!(
            "bench-compare: lp p50 {prev_lp:.3} ms ({prev_path}) -> {cur_lp:.3} ms \
             ({cur_label}), {change_pct:+.1}%"
        );
        if change_pct > REGRESSION_LIMIT_PCT {
            return Err(format!(
                "lp-stage p50 regressed {change_pct:+.1}% (limit +{REGRESSION_LIMIT_PCT:.0}%): \
                 {prev_lp:.3} ms -> {cur_lp:.3} ms"
            ));
        }
    }
    check_amend_gate(cur, cur_label)?;
    check_obs_gate(cur, cur_label)?;
    check_lp_tree_gate(cur, cur_label)?;
    check_serve_gate(cur, cur_label, &prev, prev_path)
}

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn hist_map(h: &obs::HistogramSnapshot) -> Value {
    Value::Map(vec![
        ("count".into(), Value::UInt(h.count)),
        ("p50_ms".into(), Value::Float(h.p50)),
        ("p95_ms".into(), Value::Float(h.p95)),
        ("p99_ms".into(), Value::Float(h.p99)),
        ("max_ms".into(), Value::Float(h.max)),
    ])
}

/// One load-generator pass against `addr`; the section value it
/// returns is what the serve p99 gate reads. Any error (connect
/// failure, response timeout, id mismatch) fails the run — an
/// unhealthy pass must not become a baseline.
fn drive_load(
    addr: SocketAddr,
    conns: usize,
    reqs: usize,
    in_process: bool,
    label: &str,
) -> Result<Value, String> {
    let registry = Arc::new(obs::Registry::new());
    let mut cfg = LoadConfig::new(addr);
    cfg.conns = conns;
    cfg.requests_per_conn = reqs;
    cfg.connect_batch = 256;
    let report = run_load(cfg, &registry).map_err(|e| format!("{label} load run: {e}"))?;
    eprintln!(
        "{label}: {}/{} conns (peak {}), {} reqs in {:.0} ms ({:.0} rps), \
         req p50 {:.2} / p99 {:.2} ms, {} errors, {} timeouts",
        report.opened,
        conns,
        report.peak_open,
        report.completed_requests,
        report.wall_ms,
        report.rps,
        report.req_ms.p50,
        report.req_ms.p99,
        report.errors,
        report.timeouts
    );
    if report.errors > 0 {
        return Err(format!("{label}: load run recorded {} errors", report.errors));
    }
    if report.timeouts > 0 {
        return Err(format!("{label}: load run recorded {} request timeouts", report.timeouts));
    }
    Ok(Value::Map(vec![
        ("conns".into(), Value::UInt(conns as u64)),
        ("requests_per_conn".into(), Value::UInt(reqs as u64)),
        ("in_process".into(), Value::Bool(in_process)),
        ("opened".into(), Value::UInt(report.opened as u64)),
        ("peak_open".into(), Value::UInt(report.peak_open as u64)),
        ("completed_requests".into(), Value::UInt(report.completed_requests)),
        ("errors".into(), Value::UInt(report.errors)),
        ("timeouts".into(), Value::UInt(report.timeouts)),
        ("wall_ms".into(), Value::Float(report.wall_ms)),
        ("rps".into(), Value::Float(report.rps)),
        ("open_ms".into(), hist_map(&report.open_ms)),
        ("req_ms".into(), hist_map(&report.req_ms)),
    ]))
}

/// Fetch and sanity-check one `/metrics` scrape: every non-comment
/// line must be `name value` with a numeric value. Returns the parsed
/// counter samples.
fn scrape_once(addr: SocketAddr) -> Result<Vec<(String, f64)>, String> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| format!("scrape: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).map_err(|e| e.to_string())?;
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\nHost: bench\r\n\r\n")
        .map_err(|e| format!("scrape write: {e}"))?;
    let mut response = String::new();
    stream.read_to_string(&mut response).map_err(|e| format!("scrape read: {e}"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .ok_or_else(|| format!("scrape response has no body: {response:?}"))?;
    let mut samples = Vec::new();
    for line in body.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
        let (name, value) =
            line.split_once(' ').ok_or_else(|| format!("unparseable exposition line: {line:?}"))?;
        let value: f64 =
            value.trim().parse().map_err(|_| format!("non-numeric sample: {line:?}"))?;
        samples.push((name.to_string(), value));
    }
    if samples.is_empty() {
        return Err("scrape returned an empty exposition".into());
    }
    Ok(samples)
}

/// Value of one sample in a scrape, by exposition name.
fn sample(samples: &[(String, f64)], name: &str) -> Option<f64> {
    samples.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
}

/// The `--serve` section: spin an in-process server (unless
/// `--serve-addr` points at an external one) and measure a full
/// connection fleet through the reactor load generator.
///
/// With `--serve-scrape` (in-process only), the server also gets an
/// HTTP scrape listener and a background scraper hits `/metrics`
/// throughout the load run: every exposition must parse, the request
/// counter must be monotone across scrapes, and the last scrape must
/// reconcile with the final drain snapshot — proving the scrape surface
/// answers (consistently) *while* the solver pools are saturated.
fn serve_section(args: &[String]) -> Result<Value, String> {
    use std::sync::atomic::{AtomicBool, Ordering};

    let conns: usize = flag(args, "--serve-conns", 256usize)?.max(1);
    let reqs: usize = flag(args, "--serve-reqs", 4usize)?.max(1);
    let workers: usize = flag(args, "--serve-workers", 2usize)?;
    let scrape = has_flag(args, "--serve-scrape");
    let external = opt_flag(args, "--serve-addr");
    if scrape && external.is_some() {
        return Err("--serve-scrape needs the in-process server (drop --serve-addr)".into());
    }
    let (addr, scrape_addr, handle) = match &external {
        Some(a) => {
            let addr = a.parse().map_err(|_| format!("invalid --serve-addr: {a}"))?;
            (addr, None, None)
        }
        None => {
            let mut cfg = ServerConfig::default().addr("127.0.0.1:0").workers(workers);
            if scrape {
                cfg = cfg.metrics_addr("127.0.0.1:0");
            }
            let server = Server::bind(cfg).map_err(|e| format!("serve bind: {e}"))?;
            let scrape_addr = server.metrics_addr();
            let handle = server.spawn();
            (handle.addr(), scrape_addr, Some(handle))
        }
    };

    // Background scraper: polls /metrics for the whole load run.
    let scraper = scrape_addr.map(|scrape_addr| {
        let stop = Arc::new(AtomicBool::new(false));
        let running = Arc::clone(&stop);
        let join = std::thread::spawn(move || -> Result<(u64, f64), String> {
            let mut scrapes = 0u64;
            let mut last_received = -1.0f64;
            loop {
                let samples = scrape_once(scrape_addr)?;
                let received = sample(&samples, "atsched_serve_received")
                    .ok_or("scrape lacks atsched_serve_received")?;
                if received < last_received {
                    return Err(format!(
                        "scraped atsched_serve_received went backwards: \
                         {last_received} -> {received}"
                    ));
                }
                last_received = received;
                scrapes += 1;
                if running.load(Ordering::SeqCst) {
                    return Ok((scrapes, last_received));
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        (stop, join)
    });

    let mut section = drive_load(addr, conns, reqs, external.is_none(), "serve")?;

    // Stop the scraper (its loop always does one final post-load
    // scrape, so the last sample covers the whole run) and fold its
    // verdict into the section.
    let scraped = match scraper {
        Some((stop, join)) => {
            stop.store(true, Ordering::SeqCst);
            let (scrapes, last_received) =
                join.join().map_err(|_| "scraper thread panicked".to_string())??;
            let completed = serve_num(&section, "serve", &["completed_requests"])?;
            if last_received < completed {
                return Err(format!(
                    "final scrape saw atsched_serve_received = {last_received}, \
                     below the {completed} requests the load generator completed"
                ));
            }
            eprintln!(
                "serve-scrape: {scrapes} mid-load scrapes parsed, \
                 last saw received = {last_received}"
            );
            Some((scrapes, last_received))
        }
        None => None,
    };

    if let Some(handle) = handle {
        let mut client =
            Client::connect(addr).map_err(|e| format!("connecting for shutdown: {e}"))?;
        let snapshot =
            client.shutdown().map_err(|e| format!("draining the serve-bench server: {e}"))?;
        handle.join().map_err(|e| format!("serve-bench server: {e}"))?;
        if let Some((scrapes, last_received)) = scraped {
            // Reconcile against the authoritative drain snapshot: the
            // server can only have seen *more* frames since the last
            // scrape (the shutdown request itself, at minimum).
            if (snapshot.received as f64) < last_received {
                return Err(format!(
                    "drain snapshot reports {} received, below the {last_received} \
                     the last scrape observed",
                    snapshot.received
                ));
            }
            if let Value::Map(entries) = &mut section {
                entries.push(("scrapes".into(), Value::UInt(scrapes)));
                entries.push(("scrape_last_received".into(), Value::Float(last_received)));
                entries.push(("drain_received".into(), Value::UInt(snapshot.received)));
            }
        }
    }
    Ok(section)
}

/// The `--serve-scale-addr` section: a large fleet against an
/// *external* server, so client and server each get their own
/// process-wide fd budget. The server is left running — the operator
/// owns its lifecycle.
fn scale_section(args: &[String]) -> Result<Option<Value>, String> {
    let Some(addr) = opt_flag(args, "--serve-scale-addr") else { return Ok(None) };
    let addr: SocketAddr =
        addr.parse().map_err(|_| format!("invalid --serve-scale-addr: {addr}"))?;
    let conns: usize = flag(args, "--serve-scale-conns", 10_000usize)?.max(1);
    let reqs: usize = flag(args, "--serve-scale-reqs", 2usize)?.max(1);
    drive_load(addr, conns, reqs, false, "serve_scale").map(Some)
}

/// The solve-corpus benchmark: the report entries every non
/// `--serve-only` run carries.
fn run_corpus(args: &[String]) -> Result<Vec<(String, Value)>, String> {
    let count: usize = flag(args, "--count", 32usize)?;
    let g: i64 = flag(args, "--g", 4i64)?;
    let horizon: i64 = flag(args, "--horizon", 48i64)?;
    let seed: u64 = flag(args, "--seed", 1u64)?;
    let roots: usize = flag(args, "--roots", 1usize)?.max(1);
    let runs: usize = flag(args, "--runs", 3usize)?.max(1);

    let cfg = LaminarConfig { g, horizon, ..Default::default() }
        .validated()
        .map_err(|e| e.to_string())?;
    let instances: Vec<_> = (0..count)
        .map(|i| {
            let s = seed.wrapping_add(i as u64);
            if roots > 1 {
                let mr = MultiRootConfig { base: cfg.clone(), roots, gap: 1 };
                random_multi_root(&mr, s)
            } else {
                random_laminar(&cfg, s)
            }
        })
        .collect();
    let opts = SolverOptions::exact();

    // The solve cache would turn every run after the first into a
    // lookup benchmark; disable it so each run does the same work.
    let engine_cfg = || EngineConfig::default().cache(false);

    // Warm-up (page in code, stabilize allocator) — not measured.
    Engine::new(engine_cfg().observe(false)).solve_batch(&instances, &opts);

    // Observed runs share one registry so histograms accumulate over
    // `runs x count` solves; wall-clock is the best of the runs.
    let registry = Arc::new(obs::Registry::new());
    let mut observed_best = Duration::MAX;
    for _ in 0..runs {
        let engine = Engine::with_registry(engine_cfg().observe(true), Arc::clone(&registry));
        let start = Instant::now();
        engine.solve_batch(&instances, &opts);
        observed_best = observed_best.min(start.elapsed());
    }

    let mut disabled_best = Duration::MAX;
    for _ in 0..runs {
        let engine = Engine::new(engine_cfg().observe(false));
        let start = Instant::now();
        engine.solve_batch(&instances, &opts);
        disabled_best = disabled_best.min(start.elapsed());
    }

    let observed_ms = observed_best.as_secs_f64() * 1e3;
    let disabled_ms = disabled_best.as_secs_f64() * 1e3;
    let overhead_pct =
        if disabled_ms > 0.0 { (observed_ms - disabled_ms) / disabled_ms * 100.0 } else { 0.0 };

    // Many-root corpus: single-instance wall-clock with root
    // decomposition forced vs off. Best-of-runs per instance and mode,
    // p50 across instances — the shard layer's headline number.
    let shard_section = (roots > 1).then(|| {
        let mut off_opts = opts.clone();
        off_opts.shard = ShardMode::Off;
        let mut force_opts = opts.clone();
        force_opts.shard = ShardMode::Force;
        let mut off_best = vec![f64::MAX; instances.len()];
        let mut force_best = vec![f64::MAX; instances.len()];
        for _ in 0..runs {
            for (i, inst) in instances.iter().enumerate() {
                let start = Instant::now();
                solve_nested(inst, &off_opts).expect("bench corpus is feasible");
                off_best[i] = off_best[i].min(start.elapsed().as_secs_f64() * 1e3);
                let start = Instant::now();
                solve_nested_sharded(inst, &force_opts).expect("bench corpus is feasible");
                force_best[i] = force_best[i].min(start.elapsed().as_secs_f64() * 1e3);
            }
        }
        let p50 = |xs: &mut Vec<f64>| -> f64 {
            xs.sort_by(|a, b| a.total_cmp(b));
            xs[xs.len() / 2]
        };
        let off_p50 = p50(&mut off_best);
        let force_p50 = p50(&mut force_best);
        let speedup = if force_p50 > 0.0 { off_p50 / force_p50 } else { 1.0 };
        eprintln!(
            "shard: single-instance p50 off {off_p50:.1} ms vs force {force_p50:.1} ms \
             ({speedup:.2}x, {} cores)",
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );
        Value::Map(vec![
            ("roots".into(), Value::UInt(roots as u64)),
            ("off_p50_ms".into(), Value::Float(off_p50)),
            ("force_p50_ms".into(), Value::Float(force_p50)),
            ("speedup".into(), Value::Float(speedup)),
            (
                "cores".into(),
                Value::UInt(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
            ),
        ])
    });

    // Steady-state amend workload (sessions): each amend re-windows a
    // single job inside its own root hull — alternately widening it to
    // the hull and restoring it — so exactly one shard goes dirty per
    // amend while the other `roots - 1` splice from the session's part
    // cache. The reference is a cold cache-off `solve_one` of the same
    // amended instance. Sessions keep the cache *on* (reuse is the
    // point); both sides pay the same engine/isolation overhead.
    let amend_section = (roots > 1).then(|| {
        let stride = horizon + 1; // MultiRootConfig { gap: 1 } above
        let amends_per_instance = 8usize;
        let session_engine = Engine::new(EngineConfig::default());
        let cold = Engine::new(engine_cfg());
        let mut amend_ms = Vec::new();
        let mut full_ms = Vec::new();
        for inst in &instances {
            let session = session_engine.open_session(inst.clone(), &opts);
            let n = inst.num_jobs();
            for t in 0..amends_per_instance {
                let j = (t / 2) % n;
                let job = inst.jobs[j];
                let (release, deadline) = if t % 2 == 0 {
                    let k = job.release.div_euclid(stride);
                    (k * stride, k * stride + horizon)
                } else {
                    (job.release, job.deadline)
                };
                let delta = JobDelta::new().modify_window(j, release, deadline);
                let start = Instant::now();
                let outcome = session.amend(&delta).expect("bench delta references live jobs");
                amend_ms.push(start.elapsed().as_secs_f64() * 1e3);
                assert!(
                    matches!(outcome, Outcome::Solved(_)),
                    "widening a window keeps the corpus feasible"
                );
                let amended = session.instance();
                let start = Instant::now();
                cold.solve_one(&amended, &opts);
                full_ms.push(start.elapsed().as_secs_f64() * 1e3);
            }
        }
        let p50 = |xs: &mut Vec<f64>| -> f64 {
            xs.sort_by(|a, b| a.total_cmp(b));
            xs[xs.len() / 2]
        };
        let amend_p50 = p50(&mut amend_ms);
        let full_p50 = p50(&mut full_ms);
        let ratio = if full_p50 > 0.0 { amend_p50 / full_p50 } else { 1.0 };
        eprintln!(
            "amend: steady-state p50 {amend_p50:.2} ms vs full re-solve p50 {full_p50:.2} ms \
             ({ratio:.2}x, {} amends)",
            amend_ms.len()
        );
        Value::Map(vec![
            ("amends".into(), Value::UInt(amend_ms.len() as u64)),
            ("amend_p50_ms".into(), Value::Float(amend_p50)),
            ("full_p50_ms".into(), Value::Float(full_p50)),
            ("ratio".into(), Value::Float(ratio)),
        ])
    });

    // Telemetry-plane cost: the same `solve_nested` call plain vs under
    // the full live plane — an installed collector carrying a request
    // trace (so every stage span doubles as a breadcrumb), plus the
    // windowed counter bump the serve tier charges each request. Best
    // of `runs` per instance, p50 across instances; `--compare` gates
    // `overhead_pct` at [`OBS_OVERHEAD_LIMIT_PCT`].
    let obs_section = {
        let plane = Arc::new(obs::Registry::new());
        let plane_requests = plane.windowed_counter("bench.obs.requests");
        let plane_latency = plane.windowed_histogram("bench.obs.latency_ms");
        let mut plain_best = vec![f64::MAX; instances.len()];
        let mut traced_best = vec![f64::MAX; instances.len()];
        for _ in 0..runs {
            for (i, inst) in instances.iter().enumerate() {
                let start = Instant::now();
                solve_nested(inst, &opts).expect("bench corpus is feasible");
                plain_best[i] = plain_best[i].min(start.elapsed().as_secs_f64() * 1e3);

                let trace = Arc::new(obs::RequestTrace::new(i as u64 + 1, "bench"));
                let collector = obs::Collector::new(Arc::clone(&plane)).with_request(trace);
                let start = Instant::now();
                obs::with_collector(collector, || {
                    solve_nested(inst, &opts).expect("bench corpus is feasible");
                });
                plane_requests.inc();
                let ms = start.elapsed().as_secs_f64() * 1e3;
                plane_latency.record(ms);
                traced_best[i] = traced_best[i].min(ms);
            }
        }
        let p50 = |xs: &mut Vec<f64>| -> f64 {
            xs.sort_by(|a, b| a.total_cmp(b));
            xs[xs.len() / 2]
        };
        let plain_p50 = p50(&mut plain_best);
        let traced_p50 = p50(&mut traced_best);
        let overhead_pct =
            if plain_p50 > 0.0 { (traced_p50 - plain_p50) / plain_p50 * 100.0 } else { 0.0 };
        eprintln!(
            "obs: solve p50 plain {plain_p50:.3} ms vs telemetry plane {traced_p50:.3} ms \
             ({overhead_pct:+.2}%, limit +{OBS_OVERHEAD_LIMIT_PCT:.0}%)"
        );
        Value::Map(vec![
            ("plain_p50_ms".into(), Value::Float(plain_p50)),
            ("traced_p50_ms".into(), Value::Float(traced_p50)),
            ("overhead_pct".into(), Value::Float(overhead_pct)),
        ])
    };

    // Certified LP vs the exact reference: lp-stage p50 of the default
    // tree → f64-first → exact chain against the pure big-rational
    // simplex, plus how often the hybrid certificate declined and the
    // exact fallback ran. Results are bit-identical by construction;
    // this section prices the fast path. The keys keep their pre-
    // `LpStrategy` names so older baselines stay comparable.
    let run_lp = |lp: LpStrategy, insts: &[Instance]| -> obs::RegistrySnapshot {
        let reg = Arc::new(obs::Registry::new());
        let lp_opts = SolverOptions { lp, ..opts.clone() };
        for _ in 0..runs {
            for inst in insts {
                let collector = obs::Collector::new(Arc::clone(&reg));
                obs::with_collector(collector, || {
                    solve_nested(inst, &lp_opts).expect("bench corpus is feasible");
                });
            }
        }
        reg.snapshot()
    };
    let lp_hybrid_section = {
        let hybrid = run_lp(LpStrategy::Certified, &instances);
        let exact = run_lp(LpStrategy::Exact, &instances);
        let hybrid_p50 = hybrid.histogram("span.lp.ms").map_or(0.0, |h| h.p50);
        let exact_p50 = exact.histogram("span.lp.ms").map_or(0.0, |h| h.p50);
        let verified = hybrid.counter("lp.hybrid_verified").unwrap_or(0);
        let fallbacks = hybrid.counter("lp.hybrid_fallbacks").unwrap_or(0);
        let attempts = verified + fallbacks;
        let fallback_rate = if attempts > 0 { fallbacks as f64 / attempts as f64 } else { 0.0 };
        let speedup = if hybrid_p50 > 0.0 { exact_p50 / hybrid_p50 } else { 1.0 };
        eprintln!(
            "lp_hybrid: lp p50 certified {hybrid_p50:.3} ms vs exact {exact_p50:.3} ms \
             ({speedup:.2}x; {fallbacks}/{attempts} fallbacks, rate {fallback_rate:.3})"
        );
        Value::Map(vec![
            ("hybrid_p50_ms".into(), Value::Float(hybrid_p50)),
            ("exact_p50_ms".into(), Value::Float(exact_p50)),
            ("speedup".into(), Value::Float(speedup)),
            ("verified".into(), Value::UInt(verified)),
            ("fallbacks".into(), Value::UInt(fallbacks)),
            ("fallback_rate".into(), Value::Float(fallback_rate)),
        ])
    };

    let snapshot = registry.snapshot();

    // LP-free combinatorial tree path: lp-stage p50 on the pinned-optima
    // families (unit-blocks + shallow-nest) under `lp=certified` vs the
    // exact simplex, plus how much of the *main* corpus the tree path
    // absorbed and why the remainder fell back. Results are
    // bit-identical by construction (`atsched batch --check` proves it
    // corpus-wide); this section prices the fast path.
    let lp_tree_section = {
        let mut families: Vec<Instance> = Vec::new();
        for i in 0..5usize {
            families.push(unit_blocks(3 + i, 4 + i, 3, 3));
            families.push(shallow_nest(2 + i, 4, 2));
        }
        let tree = run_lp(LpStrategy::Certified, &families);
        let simplex = run_lp(LpStrategy::Exact, &families);
        let tree_p50 = tree.histogram("span.lp.ms").map_or(0.0, |h| h.p50);
        let simplex_p50 = simplex.histogram("span.lp.ms").map_or(0.0, |h| h.p50);
        let family_solved = tree.counter("lp.tree_solved").unwrap_or(0);
        let family_fallbacks: u64 = ["flow", "scale", "overflow"]
            .iter()
            .map(|k| tree.counter(&format!("lp.tree_fallback.{k}")).unwrap_or(0))
            .sum();
        let speedup = if tree_p50 > 0.0 { simplex_p50 / tree_p50 } else { 1.0 };
        // Main-corpus absorption, from the instrumented engine run
        // above (`opts` defaults to `lp=certified`).
        let fb = |k: &str| snapshot.counter(&format!("lp.tree_fallback.{k}")).unwrap_or(0);
        let corpus_solved = snapshot.counter("lp.tree_solved").unwrap_or(0);
        let (fb_flow, fb_scale, fb_overflow) = (fb("flow"), fb("scale"), fb("overflow"));
        let corpus_fallbacks = fb_flow + fb_scale + fb_overflow;
        let attempts = corpus_solved + corpus_fallbacks;
        let coverage = if attempts > 0 { corpus_solved as f64 / attempts as f64 } else { 0.0 };
        eprintln!(
            "lp_tree: family lp p50 tree {tree_p50:.3} ms vs simplex {simplex_p50:.3} ms \
             ({speedup:.2}x; families {family_solved} solved / {family_fallbacks} fallbacks; \
             corpus coverage {coverage:.3}, fallbacks flow={fb_flow} scale={fb_scale} \
             overflow={fb_overflow})"
        );
        Value::Map(vec![
            ("tree_p50_ms".into(), Value::Float(tree_p50)),
            ("simplex_p50_ms".into(), Value::Float(simplex_p50)),
            ("speedup".into(), Value::Float(speedup)),
            ("family_count".into(), Value::UInt(families.len() as u64)),
            ("family_solved".into(), Value::UInt(family_solved)),
            ("family_fallbacks".into(), Value::UInt(family_fallbacks)),
            ("corpus_tree_solved".into(), Value::UInt(corpus_solved)),
            ("corpus_fallbacks".into(), Value::UInt(corpus_fallbacks)),
            ("corpus_coverage".into(), Value::Float(coverage)),
            ("fallback_flow".into(), Value::UInt(fb_flow)),
            ("fallback_scale".into(), Value::UInt(fb_scale)),
            ("fallback_overflow".into(), Value::UInt(fb_overflow)),
        ])
    };

    // Per-stage summary: `span.<stage>.ms` histograms (skip the
    // `.self_ms` companions — the full trace keeps those).
    let mut stages = Vec::new();
    for (name, h) in &snapshot.histograms {
        let stage = match name.strip_prefix("span.").and_then(|n| n.strip_suffix(".ms")) {
            Some(s) if !s.ends_with(".self") => s,
            _ => continue,
        };
        stages.push((
            stage.to_string(),
            Value::Map(vec![
                ("count".into(), Value::UInt(h.count)),
                ("p50_ms".into(), Value::Float(h.p50)),
                ("p95_ms".into(), Value::Float(h.p95)),
                ("max_ms".into(), Value::Float(h.max)),
            ]),
        ));
    }

    let counters: Vec<(String, Value)> =
        snapshot.counters.iter().map(|(n, v)| (n.clone(), Value::UInt(*v))).collect();

    eprintln!(
        "corpus: {count} instances x {runs} runs; observed {observed_ms:.1} ms vs \
         disabled {disabled_ms:.1} ms, {overhead_pct:+.2}%"
    );

    let solve = snapshot.histogram("engine.solve_ms");
    let mut entries = vec![
        (
            "corpus".into(),
            Value::Map(vec![
                ("count".into(), Value::UInt(count as u64)),
                ("g".into(), Value::Int(g)),
                ("horizon".into(), Value::Int(horizon)),
                ("seed".into(), Value::UInt(seed)),
                ("roots".into(), Value::UInt(roots as u64)),
            ]),
        ),
        ("runs".into(), Value::UInt(runs as u64)),
        (
            "wall_clock".into(),
            Value::Map(vec![
                ("observed_ms".into(), Value::Float(observed_ms)),
                ("disabled_ms".into(), Value::Float(disabled_ms)),
                ("overhead_pct".into(), Value::Float(overhead_pct)),
            ]),
        ),
        (
            "solve_ms".into(),
            Value::Map(vec![
                ("count".into(), Value::UInt(solve.map_or(0, |s| s.count))),
                ("p50".into(), Value::Float(solve.map_or(0.0, |s| s.p50))),
                ("p95".into(), Value::Float(solve.map_or(0.0, |s| s.p95))),
                ("max".into(), Value::Float(solve.map_or(0.0, |s| s.max))),
            ]),
        ),
        ("stages".into(), Value::Map(stages)),
        ("counters".into(), Value::Map(counters)),
    ];
    if let Some(shard) = shard_section {
        entries.push(("shard".into(), shard));
    }
    if let Some(amend) = amend_section {
        entries.push(("amend".into(), amend));
    }
    entries.push(("obs".into(), obs_section));
    entries.push(("lp_hybrid".into(), lp_hybrid_section));
    entries.push(("lp_tree".into(), lp_tree_section));
    Ok(entries)
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let compare = opt_flag(&args, "--compare");

    // Compare-only mode: load an existing report instead of benching.
    if let Some(input) = opt_flag(&args, "--in") {
        let prev_path = compare.ok_or("--in requires --compare PREV.json")?;
        let report = load_report(&input)?;
        return compare_reports(&report, &input, &prev_path);
    }

    let serve_only = has_flag(&args, "--serve-only");
    let serve = serve_only || has_flag(&args, "--serve");
    let tag: String = flag(&args, "--tag", "pr10".to_string())?;
    let out: String = flag(&args, "--out", format!("BENCH_{tag}.json"))?;

    let mut entries: Vec<(String, Value)> = vec![
        ("bench".into(), Value::Str(format!("atsched-bench baseline ({tag})"))),
        ("schema_version".into(), Value::UInt(SCHEMA_VERSION)),
    ];
    if !serve_only {
        entries.extend(run_corpus(&args)?);
    }
    if serve {
        entries.push(("serve".into(), serve_section(&args)?));
    }
    if let Some(scale) = scale_section(&args)? {
        entries.push(("serve_scale".into(), scale));
    }
    let report = Value::Map(entries);

    let json = serde_json::to_string_pretty(&Json(report.clone())).map_err(|e| e.to_string())?;
    std::fs::write(&out, &json).map_err(|e| format!("writing {out}: {e}"))?;
    println!("{json}");
    eprintln!("baseline written to {out}");

    if let Some(prev_path) = compare {
        compare_reports(&report, &out, &prev_path)?;
    }
    Ok(())
}
