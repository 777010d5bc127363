//! Black-box tests for the `atsched` binary: batch exit-code contract
//! and a serve/client roundtrip over a real socket.

use nested_active_time::core::instance::{Instance, Job};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

fn atsched() -> Command {
    Command::new(env!("CARGO_BIN_EXE_atsched"))
}

/// Write `inst` as JSON under a test-unique name; returns the path.
fn write_instance(name: &str, inst: &Instance) -> PathBuf {
    let path = std::env::temp_dir().join(format!("atsched-cli-{}-{name}.json", std::process::id()));
    std::fs::write(&path, serde_json::to_string(inst).unwrap()).unwrap();
    path
}

fn small_instance() -> Instance {
    Instance::new(2, vec![Job::new(0, 4, 2), Job::new(1, 3, 1)]).unwrap()
}

/// A laminar instance whose LP the tree path declines, so the simplex
/// runs, and runs well past a 1 ms deadline. Sixteen nested windows
/// hold eight gadgets whose demand the tree DP undershoots: a p = 4 job
/// in `[a, a + 8)` around two unit jobs in `[a + 4, a + 5)`, demand 4
/// against an optimum of 5.
fn heavy_instance() -> Instance {
    let mut jobs: Vec<Job> = (0..16).map(|k| Job::new(k, 2000 - k, 3)).collect();
    for a in (0..8).map(|k| 100 + 10 * k) {
        jobs.extend([Job::new(a, a + 8, 4), Job::new(a + 4, a + 5, 1), Job::new(a + 4, a + 5, 1)]);
    }
    Instance::new(2, jobs).unwrap()
}

fn infeasible_instance() -> Instance {
    Instance::new(1, vec![Job::new(0, 2, 1); 3]).unwrap()
}

#[test]
fn batch_exit_code_reflects_lost_work() {
    let heavy = write_instance("heavy", &heavy_instance());
    let heavy = heavy.to_str().unwrap();

    // A timed-out instance must fail the run...
    let out = atsched().args(["batch", heavy, "--timeout-ms", "1"]).output().unwrap();
    assert!(!out.status.success(), "timed-out batch must exit nonzero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("timed out"), "stderr names the cause: {stderr}");
    assert!(stderr.contains("--keep-going"), "stderr suggests the opt-out: {stderr}");

    // ...unless the caller opts out.
    let out =
        atsched().args(["batch", heavy, "--timeout-ms", "1", "--keep-going"]).output().unwrap();
    assert!(out.status.success(), "--keep-going restores exit 0");

    // A clean batch (including infeasible results — those are answers,
    // not failures) exits 0.
    let small = write_instance("small", &small_instance());
    let infeasible = write_instance("infeasible", &infeasible_instance());
    let out = atsched()
        .args(["batch", small.to_str().unwrap(), infeasible.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "infeasible is a result, not lost work");
}

#[test]
fn unknown_flags_fail_before_any_work() {
    // The flag check comes before the instance file is read...
    let out =
        atsched().args(["solve", "missing.json", "--lpp", "exact", "--polsh"]).output().unwrap();
    assert!(!out.status.success(), "a misspelled flag must not be ignored");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --lpp for `atsched solve`"), "{stderr}");

    // ...and before a client connects.
    let out = atsched().args(["client", "127.0.0.1:9", "health", "--polish"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --polish for `atsched client health`"), "{stderr}");
}

#[test]
fn batch_reads_instance_files_given_after_flags() {
    let small = write_instance("after-flags", &small_instance());
    let out = atsched()
        .args(["batch", "--count", "2", "--workers", "1", small.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("batch: 3 instances"), "two generated plus the file: {stderr}");

    // A file named after a flag is read, so a missing one is an error.
    let out = atsched()
        .args(["batch", "--count", "2", "--workers", "1", "missing-after-flags.json"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "a missing instance file must not be skipped");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("loading missing-after-flags.json"), "{stderr}");
}

#[test]
fn a_flag_given_twice_is_refused_unless_it_repeats() {
    let small = write_instance("twice", &small_instance());
    let small = small.to_str().unwrap();
    let out = atsched()
        .args(["batch", small, "--workers", "1", "--lp", "exact", "--lp", "float"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "a repeated --lp must not resolve silently");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--lp given more than once (atsched batch)"), "{stderr}");

    // `amend --delta` repeats: the flag check passes both, and the run
    // fails later, on reading the first (missing) delta file.
    let out = atsched()
        .args(["amend", "127.0.0.1:9", small, "--delta", "missing-1.json", "--delta", "b.json"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("loading missing-1.json"), "{stderr}");
}

/// Spawn `atsched serve` on an ephemeral port and return the child plus
/// the address it printed.
fn spawn_serve(extra: &[&str]) -> (Child, String) {
    let mut child = atsched()
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let stdout = child.stdout.take().unwrap();
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).unwrap();
    let addr = line.trim().strip_prefix("listening on ").expect("ready line").to_string();
    (child, addr)
}

#[test]
fn serve_and_client_roundtrip() {
    let (mut server, addr) = spawn_serve(&[]);

    let out = atsched().args(["client", &addr, "health"]).output().unwrap();
    assert!(out.status.success(), "health: {}", String::from_utf8_lossy(&out.stderr));

    let small = write_instance("roundtrip", &small_instance());
    let out = atsched().args(["client", &addr, "solve", small.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "solve: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("active slots"), "{stdout}");
    assert!(stdout.contains("nested"), "{stdout}");

    // `--lp` goes out as the wire's `lp` field.
    let out = atsched()
        .args(["client", &addr, "solve", small.to_str().unwrap(), "--lp", "exact"])
        .output()
        .unwrap();
    assert!(out.status.success(), "solve --lp exact: {}", String::from_utf8_lossy(&out.stderr));

    // Service errors surface as nonzero exits with the typed kind.
    let bad = write_instance("bad", &infeasible_instance());
    let out = atsched().args(["client", &addr, "solve", bad.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success(), "infeasible solve must exit nonzero");
    assert!(String::from_utf8_lossy(&out.stderr).contains("infeasible"));

    let out = atsched().args(["client", &addr, "stats"]).output().unwrap();
    assert!(out.status.success());
    let stats = String::from_utf8_lossy(&out.stdout);
    assert!(stats.contains("\"accepted\""), "{stats}");

    let out = atsched().args(["client", &addr, "shutdown"]).output().unwrap();
    assert!(out.status.success(), "shutdown: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"completed\""));

    let status = server.wait().unwrap();
    assert!(status.success(), "server drains to exit 0");
}

#[test]
fn amend_command_drives_a_session_end_to_end() {
    let (mut server, addr) = spawn_serve(&[]);

    let inst = write_instance("session-base", &small_instance());
    let delta1 =
        std::env::temp_dir().join(format!("atsched-cli-{}-delta1.json", std::process::id()));
    std::fs::write(&delta1, r#"{"modify":[{"job":1,"release":0,"deadline":4}]}"#).unwrap();
    let delta2 =
        std::env::temp_dir().join(format!("atsched-cli-{}-delta2.json", std::process::id()));
    std::fs::write(&delta2, r#"{"add":[{"release":1,"deadline":3,"processing":1}]}"#).unwrap();

    let out = atsched()
        .args([
            "amend",
            &addr,
            inst.to_str().unwrap(),
            "--delta",
            delta1.to_str().unwrap(),
            "--delta",
            delta2.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "amend: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("opened"), "{stdout}");
    assert!(stdout.contains("amend #1"), "{stdout}");
    assert!(stdout.contains("amend #2"), "{stdout}");

    // The session verbs via `client`: open prints an id usable later.
    let out = atsched().args(["client", &addr, "open", inst.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "open: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let session = stdout
        .split("session ")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .expect("open prints the session id")
        .trim()
        .to_string();
    let out = atsched()
        .args(["client", &addr, "amend", &session, delta2.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "client amend: {}", String::from_utf8_lossy(&out.stderr));
    let out = atsched().args(["client", &addr, "close", &session]).output().unwrap();
    assert!(out.status.success(), "close: {}", String::from_utf8_lossy(&out.stderr));
    // Closing twice is the typed unknown-session error.
    let out = atsched().args(["client", &addr, "close", &session]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown_session"));

    let out = atsched().args(["client", &addr, "shutdown"]).output().unwrap();
    assert!(out.status.success());
    let status = server.wait().unwrap();
    assert!(status.success());
}
