//! Load integration tests: the one reactor holding 1k+ concurrent
//! connections, the bind-time refusal of more reactors, and the bounded
//! session table shedding and sweeping (satellite coverage for
//! `max_sessions` and `serve.sessions_evicted`).

use atsched_core::instance::{Instance, Job};
use atsched_obs::Registry;
use atsched_serve::{
    kind, run_load, Client, ClientError, LoadConfig, Payload, Server, ServerConfig, ServerHandle,
};
use std::sync::Arc;

fn spawn_server(cfg: ServerConfig) -> ServerHandle {
    Server::bind(cfg.addr("127.0.0.1:0")).expect("bind").spawn()
}

fn small_instance() -> Instance {
    Instance::new(2, vec![Job::new(0, 4, 2), Job::new(1, 3, 1)]).unwrap()
}

/// The acceptance bar for the reactor rewrite: one reactor worker
/// (the default `router_workers = 1`) multiplexes ≥ 1k concurrent
/// connections, every request answered, zero errors.
#[test]
fn single_reactor_sustains_1k_concurrent_connections() {
    let conns = 1_100;
    let handle = spawn_server(ServerConfig::default().workers(2));

    let registry = Arc::new(Registry::new());
    let mut cfg = LoadConfig::new(handle.addr());
    cfg.conns = conns;
    cfg.requests_per_conn = 2;
    cfg.connect_batch = 128;
    cfg.payload = Payload::Health;
    let report = run_load(cfg, &registry).expect("load run");

    assert_eq!(report.errors, 0, "no failed connections or requests: {report:?}");
    assert_eq!(report.opened, conns);
    assert!(
        report.peak_open >= 1_024,
        "expected >= 1024 simultaneously open connections, saw {}",
        report.peak_open
    );
    assert_eq!(report.completed_requests, (conns * 2) as u64);
    assert!(report.req_ms.count >= (conns * 2) as u64);

    // The server survived the fleet and still answers.
    let mut client = Client::connect(handle.addr()).unwrap();
    let stats = client.stats().expect("stats after load");
    assert!(stats.received >= (conns * 2) as u64, "server counted the frames: {stats:?}");
    let final_stats = client.shutdown().expect("drain");
    assert_eq!(final_stats.inflight, 0);
    handle.join().unwrap();
}

/// The server runs one reactor: asking for more is a configuration
/// error at bind time, not a silently ignored knob.
#[test]
fn bind_refuses_more_than_one_reactor() {
    let err = Server::bind(ServerConfig::default().addr("127.0.0.1:0").router_workers(2))
        .err()
        .expect("two reactors are refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    for n in [0, 1] {
        let handle = spawn_server(ServerConfig::default().workers(1).router_workers(n));
        Client::connect(handle.addr()).unwrap().shutdown().expect("drain");
        handle.join().unwrap();
    }
}

/// Satellite (a): the session table is bounded. Opens beyond
/// `max_sessions` shed with the typed `overloaded` error, and shutdown
/// force-closes every live session, counting them as evicted.
#[test]
fn session_table_cap_sheds_opens_and_shutdown_evicts_live_sessions() {
    let handle = spawn_server(ServerConfig::default().workers(1).max_sessions(2));
    let mut client = Client::connect(handle.addr()).unwrap();

    let inst = small_instance();
    let (first, _) = client.open(&inst).expect("open 1");
    let (_second, _) = client.open(&inst).expect("open 2");

    match client.open(&inst).unwrap_err() {
        ClientError::Service { kind: k, message } => {
            assert_eq!(k, kind::OVERLOADED, "{message}");
            assert!(message.contains("session table full"), "{message}");
        }
        other => panic!("expected a service error, got {other}"),
    }

    // Freeing a slot makes room again.
    client.close(first).expect("close");
    let (_third, _) = client.open(&inst).expect("open after close");

    // Two sessions are still live; drain must not leak them.
    let final_stats = client.shutdown().expect("drain");
    assert_eq!(final_stats.sessions_open, 0, "drain closed the live sessions");
    assert_eq!(final_stats.registry.counter("serve.sessions_evicted"), Some(2));
    handle.join().unwrap();
}
