//! Session-verb service tests: the v2 `open` / `amend` / `close` flow
//! over a real socket, protocol-version enforcement, v1-client
//! compatibility against a v2 server, and TTL eviction.

use atsched_core::instance::{Instance, Job};
use atsched_serve::{
    kind, verb, Client, ClientError, DeltaSpec, Request, Server, ServerConfig, ServerHandle,
    PROTOCOL_VERSION,
};
use nested_active_time::workloads::generators::{
    random_multi_root, LaminarConfig, MultiRootConfig,
};
use nested_active_time::Solve;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

fn spawn_server(cfg: ServerConfig) -> ServerHandle {
    Server::bind(cfg.addr("127.0.0.1:0")).expect("bind").spawn()
}

/// Four independent laminar roots; the session layer shards these and
/// reuses untouched roots across amends.
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

fn cold_active_slots(inst: &Instance) -> u64 {
    Solve::new(inst).run().expect("feasible").active_time() as u64
}

#[test]
fn open_amend_close_flow_matches_cold_solves() {
    let handle = spawn_server(ServerConfig::default().workers(2));
    let mut client = Client::connect(handle.addr()).unwrap();

    let inst = multi_root();
    let (session, opened) = client.open(&inst).expect("open");
    assert_eq!(opened.active_slots, cold_active_slots(&inst));
    assert_eq!(opened.method, "nested");

    // Amend 1: tighten one job's window inside root 0.
    let delta = DeltaSpec::new().modify_window(2, 2, 4);
    let amended = client.amend(session, &delta).expect("amend 1");
    let mut current = atsched_core::delta::apply(&inst, &delta.to_delta()).unwrap();
    assert_eq!(amended.active_slots, cold_active_slots(&current));

    // Amend 2: drop a job from root 3 and add one to root 1.
    let delta = DeltaSpec::new().remove(11).add(Job::new(12, 14, 1));
    let amended = client.amend(session, &delta).expect("amend 2");
    current = atsched_core::delta::apply(&current, &delta.to_delta()).unwrap();
    assert_eq!(amended.active_slots, cold_active_slots(&current));

    // The session registry counters moved.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.registry.counter("serve.sessions_opened"), Some(1));
    assert_eq!(stats.registry.counter("engine.amends"), Some(2));

    client.close(session).expect("close");
    // Closing again (and amending a closed session) is the typed error.
    match client.close(session).unwrap_err() {
        ClientError::Service { kind: k, .. } => assert_eq!(k, kind::UNKNOWN_SESSION),
        other => panic!("expected a service error, got {other}"),
    }
    match client.amend(session, &DeltaSpec::new().remove(0)).unwrap_err() {
        ClientError::Service { kind: k, .. } => assert_eq!(k, kind::UNKNOWN_SESSION),
        other => panic!("expected a service error, got {other}"),
    }

    client.shutdown().expect("drain");
    handle.join().unwrap();
}

#[test]
fn bad_and_infeasible_amends_keep_the_session_usable() {
    let handle = spawn_server(ServerConfig::default().workers(1));
    let mut client = Client::connect(handle.addr()).unwrap();

    let inst = Instance::new(1, vec![Job::new(0, 4, 2), Job::new(0, 4, 1)]).unwrap();
    let (session, _) = client.open(&inst).expect("open");

    // Referencing a job that does not exist is a bad request; the
    // session survives untouched.
    match client.amend(session, &DeltaSpec::new().remove(9)).unwrap_err() {
        ClientError::Service { kind: k, message } => {
            assert_eq!(k, kind::BAD_REQUEST, "{message}");
        }
        other => panic!("expected a service error, got {other}"),
    }

    // Overloading the single machine is infeasible — but the amendment
    // *applies*; the session stays open holding the infeasible instance.
    let overload = DeltaSpec::new().add(Job::new(0, 4, 4));
    match client.amend(session, &overload).unwrap_err() {
        ClientError::Service { kind: k, .. } => assert_eq!(k, kind::INFEASIBLE),
        other => panic!("expected a service error, got {other}"),
    }

    // Removing the overload (now job id 2) repairs it.
    let repaired = client.amend(session, &DeltaSpec::new().remove(2)).expect("repair");
    assert_eq!(repaired.active_slots, cold_active_slots(&inst));

    client.shutdown().expect("drain");
    handle.join().unwrap();
}

#[test]
fn timed_out_opens_leave_no_engine_session_behind() {
    // A 48-root open takes far longer than 1 ms: the opens below time
    // out while their budget threads go on to open engine sessions.
    let handle = spawn_server(ServerConfig::default().workers(2));
    let mut client = Client::connect(handle.addr()).unwrap();
    let cfg = MultiRootConfig {
        base: LaminarConfig { g: 4, horizon: 48, ..LaminarConfig::default() },
        roots: 48,
        gap: 1,
    };
    let mut timed_out = 0;
    for seed in 0..20u64 {
        // Distinct seeds: no open is answered from the solve cache.
        let inst = random_multi_root(&cfg, 1000 * seed);
        let resp = client.request(Request::open(&inst).with_timeout_ms(1)).expect("open reply");
        match resp.error {
            Some(err) if err.kind == kind::TIMED_OUT => timed_out += 1,
            Some(err) => panic!("unexpected open error: {} {}", err.kind, err.message),
            None => client.close(resp.session.expect("session id")).expect("close"),
        }
    }
    assert!(timed_out > 0, "no open timed out; the test needs a bigger instance");

    // Once the abandoned opens finish, the engine holds exactly the wire
    // table's sessions: none.
    let mut engine_open = None;
    for _ in 0..300 {
        let stats = client.stats().expect("stats");
        assert_eq!(stats.sessions_open, 0);
        engine_open = stats.registry.gauge("engine.sessions_open");
        if engine_open == Some(0) {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(engine_open, Some(0), "{timed_out} timed-out opens left engine sessions open");

    client.shutdown().expect("drain");
    handle.join().unwrap();
}

#[test]
fn idle_sessions_are_evicted_by_the_ttl() {
    let handle =
        spawn_server(ServerConfig::default().workers(1).session_ttl(Duration::from_millis(50)));
    let mut client = Client::connect(handle.addr()).unwrap();

    let inst = Instance::new(2, vec![Job::new(0, 4, 2), Job::new(1, 3, 1)]).unwrap();
    let (session, _) = client.open(&inst).expect("open");
    std::thread::sleep(Duration::from_millis(120));

    match client.amend(session, &DeltaSpec::new().remove(0)).unwrap_err() {
        ClientError::Service { kind: k, .. } => assert_eq!(k, kind::UNKNOWN_SESSION),
        other => panic!("expected a service error, got {other}"),
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.registry.counter("serve.sessions_expired"), Some(1));

    client.shutdown().expect("drain");
    handle.join().unwrap();
}

#[test]
fn expiry_advances_without_any_client_traffic() {
    // The router's periodic sweep timer — not request handling, and
    // not the scrape listener (which is strictly read-only) — is what
    // expires idle sessions. Open one, go completely silent on the
    // protocol port, and watch `serve.sessions_expired` move through
    // the HTTP scrape alone.
    let server = atsched_serve::Server::bind(
        ServerConfig::default()
            .addr("127.0.0.1:0")
            .workers(1)
            .session_ttl(Duration::from_millis(50))
            .metrics_addr("127.0.0.1:0"),
    )
    .expect("bind");
    let scrape_addr = server.metrics_addr().expect("scrape listener bound");
    let handle = server.spawn();

    {
        let mut client = Client::connect(handle.addr()).unwrap();
        let inst = Instance::new(2, vec![Job::new(0, 4, 2), Job::new(1, 3, 1)]).unwrap();
        client.open(&inst).expect("open");
        // Client drops here: no amend, no stats, no close — nothing
        // that could piggyback a sweep.
    }

    // ttl 50 ms → sweep period 25 ms. Poll the scrape (read-only, so
    // polling itself cannot be the evictor) until the timer fires.
    let mut expired = 0u64;
    for _ in 0..200 {
        std::thread::sleep(Duration::from_millis(25));
        let body = http_get(scrape_addr, "/metrics");
        expired = body
            .lines()
            .find_map(|l| l.strip_prefix("atsched_serve_sessions_expired "))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        if expired >= 1 {
            break;
        }
    }
    assert!(expired >= 1, "periodic sweep never expired the idle session");

    let mut client = Client::connect(handle.addr()).unwrap();
    client.shutdown().expect("drain");
    handle.join().unwrap();
}

/// `GET path` against the scrape listener, HTTP/1.0, full response as
/// one string (head + body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::Read;
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read scrape response");
    response
}

/// Exchange one raw JSON line with the server, v1-client style: no
/// typed [`Request`], just bytes on the socket. The reply parses into
/// [`atsched_serve::Response`], whose deserializer tolerates fields it
/// does not know — exactly like a v1-era client's parser (that
/// tolerance is unit-tested in the protocol module).
fn raw_exchange(addr: std::net::SocketAddr, line: &str) -> atsched_serve::Response {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    serde_json::from_str(reply.trim_end()).unwrap()
}

#[test]
fn v1_frames_keep_working_against_a_v2_server() {
    let handle = spawn_server(ServerConfig::default().workers(1));
    let addr = handle.addr();

    // A PR 2-era client frame: no `version` field anywhere.
    let resp = raw_exchange(
        addr,
        r#"{"id":1,"verb":"solve","instance":{"g":2,"jobs":[{"release":0,"deadline":4,"processing":2}]}}"#,
    );
    assert!(resp.is_ok(), "{resp:?}");
    assert!(resp.solve.is_some());

    // v1 stats and health still answer.
    assert!(raw_exchange(addr, r#"{"id":2,"verb":"stats"}"#).is_ok());
    assert!(raw_exchange(addr, r#"{"id":3,"verb":"health"}"#).is_ok());

    // Declaring the current version explicitly is also fine.
    assert!(raw_exchange(addr, r#"{"id":4,"verb":"health","version":2}"#).is_ok());

    // A session verb without `version` is refused with the typed kind —
    // not a generic bad_request — so capability probing is reliable.
    let resp = raw_exchange(
        addr,
        r#"{"id":5,"verb":"open","instance":{"g":2,"jobs":[{"release":0,"deadline":4,"processing":2}]}}"#,
    );
    assert_eq!(resp.error_kind(), Some(kind::UNSUPPORTED_VERSION), "{resp:?}");

    // A client from the future is refused the same way.
    let resp = raw_exchange(addr, r#"{"id":6,"verb":"solve","version":99}"#);
    assert_eq!(resp.error_kind(), Some(kind::UNSUPPORTED_VERSION), "{resp:?}");

    let mut client = Client::connect(addr).unwrap();
    client.shutdown().expect("drain");
    handle.join().unwrap();
}

/// A raw newline-delimited connection that stays open across many
/// exchanges — unlike [`raw_exchange`], which dials per frame. Used to
/// prove per-frame fault containment and v1/v2 interleaving on one
/// socket.
struct RawConn {
    reader: BufReader<TcpStream>,
}

impl RawConn {
    fn connect(addr: std::net::SocketAddr) -> RawConn {
        let stream = TcpStream::connect(addr).unwrap();
        RawConn { reader: BufReader::new(stream) }
    }

    fn exchange(&mut self, line: &str) -> atsched_serve::Response {
        let stream = self.reader.get_mut();
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        stream.flush().unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).unwrap();
        assert!(!reply.is_empty(), "server closed the connection");
        serde_json::from_str(reply.trim_end()).unwrap()
    }
}

#[test]
fn malformed_delta_in_an_amend_frame_is_typed_and_keeps_the_connection() {
    let handle = spawn_server(ServerConfig::default().workers(1));
    let mut conn = RawConn::connect(handle.addr());

    let opened = conn.exchange(
        r#"{"id":1,"verb":"open","version":2,"instance":{"g":2,"jobs":[{"release":0,"deadline":4,"processing":2},{"release":1,"deadline":3,"processing":1}]}}"#,
    );
    assert!(opened.is_ok(), "{opened:?}");
    let session = opened.session.expect("session id");

    // The frame is valid JSON and a well-formed amend envelope, but the
    // `delta` inside is not a DeltaSpec. The reply is a typed
    // bad_request — not a dropped connection, not a panic.
    let resp = conn.exchange(&format!(
        r#"{{"id":2,"verb":"amend","version":2,"session":{session},"delta":{{"remove":"third"}}}}"#
    ));
    assert_eq!(resp.error_kind(), Some(kind::BAD_REQUEST), "{resp:?}");

    // So is a delta of the wrong JSON type entirely.
    let resp = conn.exchange(&format!(
        r#"{{"id":3,"verb":"amend","version":2,"session":{session},"delta":[1,2,3]}}"#
    ));
    assert_eq!(resp.error_kind(), Some(kind::BAD_REQUEST), "{resp:?}");

    // The connection is still alive and the session untouched: a
    // well-formed amend on the same socket succeeds.
    let resp = conn.exchange(&format!(
        r#"{{"id":4,"verb":"amend","version":2,"session":{session},"delta":{{"add":[],"remove":[1],"modify":[]}}}}"#
    ));
    assert!(resp.is_ok(), "{resp:?}");
    assert_eq!(resp.id, Some(4));

    let mut client = Client::connect(handle.addr()).unwrap();
    client.shutdown().expect("drain");
    handle.join().unwrap();
}

#[test]
fn v1_and_v2_frames_interleave_on_one_connection() {
    let handle = spawn_server(ServerConfig::default().workers(1));
    let mut conn = RawConn::connect(handle.addr());

    let inst = r#"{"g":2,"jobs":[{"release":0,"deadline":4,"processing":2}]}"#;

    // v1 solve (no version field at all).
    let resp = conn.exchange(&format!(r#"{{"id":1,"verb":"solve","instance":{inst}}}"#));
    assert!(resp.is_ok(), "{resp:?}");
    assert!(resp.solve.is_some());

    // v2 open on the same socket.
    let resp = conn.exchange(&format!(r#"{{"id":2,"verb":"open","version":2,"instance":{inst}}}"#));
    assert!(resp.is_ok(), "{resp:?}");
    let session = resp.session.expect("session id");

    // Back to v1: stats still answers, and sees the open session.
    let resp = conn.exchange(r#"{"id":3,"verb":"stats"}"#);
    assert!(resp.is_ok(), "{resp:?}");

    // v2 amend against the session opened two frames ago.
    let resp = conn.exchange(&format!(
        r#"{{"id":4,"verb":"amend","version":2,"session":{session},"delta":{{"add":[{{"release":1,"deadline":3,"processing":1}}],"remove":[],"modify":[]}}}}"#
    ));
    assert!(resp.is_ok(), "{resp:?}");

    // v1 solve again — version statefulness must not leak between frames.
    let resp = conn.exchange(&format!(r#"{{"id":5,"verb":"solve","instance":{inst}}}"#));
    assert!(resp.is_ok(), "{resp:?}");

    // v2 close ends the session; a second close is the typed error.
    let resp =
        conn.exchange(&format!(r#"{{"id":6,"verb":"close","version":2,"session":{session}}}"#));
    assert!(resp.is_ok(), "{resp:?}");
    let resp =
        conn.exchange(&format!(r#"{{"id":7,"verb":"close","version":2,"session":{session}}}"#));
    assert_eq!(resp.error_kind(), Some(kind::UNKNOWN_SESSION), "{resp:?}");

    let mut client = Client::connect(handle.addr()).unwrap();
    client.shutdown().expect("drain");
    handle.join().unwrap();
}

#[test]
fn v2_session_replies_parse_for_version_blind_readers() {
    let handle = spawn_server(ServerConfig::default().workers(1));
    let mut client = Client::connect(handle.addr()).unwrap();

    let inst = Instance::new(2, vec![Job::new(0, 4, 2)]).unwrap();
    let resp = client.request(Request::open(&inst)).expect("open exchange");
    assert!(resp.is_ok());
    assert_eq!(resp.version, Some(PROTOCOL_VERSION));
    assert_eq!(resp.verb.as_deref(), Some(verb::OPEN));
    let session = resp.session.expect("session id");

    // Round-trip the reply through the wire format with the session
    // fields present: a reader that only knows the v1 fields still
    // gets a well-formed ok response.
    let line = serde_json::to_string(&resp).unwrap();
    let back: atsched_serve::Response = serde_json::from_str(&line).unwrap();
    assert!(back.is_ok());
    assert!(back.solve.is_some());

    client.close(session).expect("close");
    client.shutdown().expect("drain");
    handle.join().unwrap();
}
