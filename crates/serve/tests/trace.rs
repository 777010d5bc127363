//! Telemetry-plane service tests: request-id propagation, the
//! slow-request log with per-stage span timings, the `metrics` verb,
//! and the plain-HTTP scrape listener.

use atsched_core::instance::{Instance, Job};
use atsched_serve::{Client, DeltaSpec, Request, Server, ServerConfig, StatsReply};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Four independent laminar roots (same shape the session tests use).
fn multi_root() -> Instance {
    let mut jobs = Vec::new();
    for r in 0..4i64 {
        let base = 10 * r;
        jobs.push(Job::new(base, base + 8, 2));
        jobs.push(Job::new(base + 1, base + 5, 1));
        jobs.push(Job::new(base + 2, base + 4, 1));
    }
    Instance::new(2, jobs).unwrap()
}

#[test]
fn requests_carry_ids_and_trace_their_stages() {
    // slow_ms = 0 logs every request, so the assertions below see the
    // full trace of each one.
    let server = Server::bind(ServerConfig::default().addr("127.0.0.1:0").workers(2).slow_ms(0))
        .expect("bind");
    let handle = server.spawn();
    let mut client = Client::connect(handle.addr()).unwrap();

    let inst = multi_root();
    let opened = client.request(Request::open(&inst)).expect("open");
    assert!(opened.error.is_none(), "{opened:?}");
    let session = opened.session.expect("session id");
    let open_rid = opened.request.expect("open response echoes its server-assigned request id");

    // Two amends: each gets its own fresh request id.
    let mut amend_rids = Vec::new();
    for job in [100i64, 200] {
        let delta = DeltaSpec::new().add(Job::new(job, job + 4, 1));
        let resp = client.request(Request::amend(session, &delta)).expect("amend");
        assert!(resp.error.is_none(), "{resp:?}");
        amend_rids.push(resp.request.expect("amend response echoes a request id"));
    }
    assert_ne!(amend_rids[0], amend_rids[1]);
    assert!(!amend_rids.contains(&open_rid));

    let stats = client.stats().expect("stats");

    // The slow log (threshold 0) has every request with its per-stage
    // timings.
    let open_entry = stats.slow.iter().find(|e| e.request == open_rid).expect("open in slow log");
    assert_eq!(open_entry.verb, "open");
    assert!(!open_entry.stages.is_empty(), "open trace has span breadcrumbs: {open_entry:?}");
    for &rid in &amend_rids {
        let entry = stats.slow.iter().find(|e| e.request == rid).expect("amend in slow log");
        assert_eq!(entry.verb, "amend");
        assert!(!entry.stages.is_empty(), "amend trace has span breadcrumbs: {entry:?}");
        assert!(entry.stages.iter().all(|s| s.ms >= 0.0 && !s.stage.is_empty()));
        assert!(entry.total_ms >= 0.0);
        assert!(entry.error.is_none());
    }

    // Windowed request-plane sections are in the registry snapshot.
    assert!(stats.registry.window("serve.received").is_some());
    assert!(stats.registry.window_histogram("serve.latency_ms").is_some());

    client.shutdown().expect("drain");
    handle.join().unwrap();
}

#[test]
fn metrics_verb_returns_parseable_exposition() {
    let server =
        Server::bind(ServerConfig::default().addr("127.0.0.1:0").workers(1)).expect("bind");
    let handle = server.spawn();
    let mut client = Client::connect(handle.addr()).unwrap();

    let inst = Instance::new(2, vec![Job::new(0, 4, 2)]).unwrap();
    client.solve_instance(&inst).expect("solve");

    let text = client.metrics().expect("metrics");
    assert!(text.contains("atsched_serve_received"), "{text}");
    assert!(text.contains("atsched_serve_completed_rate_10s"), "{text}");
    assert!(text.contains("atsched_serve_latency_ms_w10s_p99"), "{text}");
    for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
        let mut parts = line.split_whitespace();
        assert!(parts.next().unwrap().starts_with("atsched_"), "{line}");
        parts.next().unwrap().parse::<f64>().expect(line);
    }

    client.shutdown().expect("drain");
    handle.join().unwrap();
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect scrape listener");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read scrape response");
    response
}

#[test]
fn http_scrape_listener_serves_exposition_and_json() {
    let server = Server::bind(
        ServerConfig::default()
            .addr("127.0.0.1:0")
            .workers(1)
            .metrics_addr("127.0.0.1:0")
            .slow_ms(0),
    )
    .expect("bind");
    let scrape_addr = server.metrics_addr().expect("scrape listener bound");
    let handle = server.spawn();
    assert_eq!(handle.metrics_addr(), Some(scrape_addr));
    let mut client = Client::connect(handle.addr()).unwrap();

    let inst = Instance::new(2, vec![Job::new(0, 4, 2)]).unwrap();
    client.solve_instance(&inst).expect("solve");

    // `GET /metrics` is the text exposition.
    let response = http_get(scrape_addr, "/metrics");
    assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
    assert!(response.contains("text/plain"), "{response}");
    let body = response.split("\r\n\r\n").nth(1).expect("body");
    assert!(body.contains("atsched_serve_completed 1"), "{body}");

    // Any other path is the JSON stats snapshot, wire-compatible with
    // the `stats` verb's payload.
    let response = http_get(scrape_addr, "/stats");
    assert!(response.contains("application/json"), "{response}");
    let body = response.split("\r\n\r\n").nth(1).expect("body");
    let snap: StatsReply = serde_json::from_str(body).expect("scrape JSON parses as StatsReply");
    assert_eq!(snap.completed, 1);
    assert_eq!(snap.slow.len(), 1, "slow_ms = 0 logs the solve");

    client.shutdown().expect("drain");
    handle.join().unwrap();
}
