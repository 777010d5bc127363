//! End-to-end service tests: protocol behavior over a real socket,
//! deterministic overload shedding, deadline enforcement, and a
//! concurrency soak that checks the server against sequential solves.

use atsched_core::instance::{Instance, Job};
use atsched_serve::{kind, Client, ClientError, Request, Server, ServerConfig, ServerHandle};
use nested_active_time::{Method, Solve};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread;

fn spawn_server(cfg: ServerConfig) -> ServerHandle {
    Server::bind(cfg.addr("127.0.0.1:0")).expect("bind").spawn()
}

/// Small laminar instances with precomputed sequential answers, plus
/// infeasible ones (`None`). The soak compares every server reply
/// against these.
fn corpus() -> Vec<(Instance, Option<u64>)> {
    let mut out = Vec::new();
    let feasible = [
        Instance::new(2, vec![Job::new(0, 4, 2), Job::new(1, 3, 1)]).unwrap(),
        Instance::new(1, vec![Job::new(0, 6, 2), Job::new(2, 5, 1), Job::new(2, 4, 1)]).unwrap(),
        Instance::new(3, vec![Job::new(0, 8, 3); 5]).unwrap(),
        Instance::new(2, vec![Job::new(0, 10, 2), Job::new(1, 9, 3), Job::new(3, 7, 2)]).unwrap(),
        Instance::new(1, vec![Job::new(0, 3, 1), Job::new(4, 7, 2), Job::new(4, 6, 1)]).unwrap(),
        Instance::new(4, vec![Job::new(0, 5, 2); 7]).unwrap(),
        // The tree DP undershoots this one (demand 4, optimum 5), so the
        // simplex answers it.
        Instance::new(2, vec![Job::new(0, 8, 4), Job::new(4, 5, 1), Job::new(4, 5, 1)]).unwrap(),
        Instance::new(1, vec![Job::new(0, 2, 1), Job::new(2, 4, 1), Job::new(4, 6, 1)]).unwrap(),
    ];
    for inst in feasible {
        let expected = Solve::new(&inst).run().expect("corpus is feasible").active_time() as u64;
        out.push((inst, Some(expected)));
    }
    // Three unit jobs, identical two-slot window, one machine: provably
    // infeasible but valid on the wire.
    out.push((Instance::new(1, vec![Job::new(0, 2, 1); 3]).unwrap(), None));
    out.push((Instance::new(2, vec![Job::new(0, 2, 2); 3]).unwrap(), None));
    out
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

#[test]
fn solve_stats_shutdown_roundtrip() {
    let handle = spawn_server(ServerConfig::default().workers(2));
    let mut client = Client::connect(handle.addr()).unwrap();
    client.health().expect("healthy before shutdown");

    let inst = Instance::new(2, vec![Job::new(0, 4, 2), Job::new(1, 3, 1)]).unwrap();
    let expected = Solve::new(&inst).run().unwrap().active_time() as u64;

    let first = client.solve_instance(&inst).expect("solve ok");
    assert_eq!(first.active_slots, expected);
    assert_eq!(first.method, "nested");
    assert!(!first.cached, "first solve is a cache miss");
    assert!(first.schedule.is_none(), "schedule only on request");

    let second = client.solve(Request::solve(&inst).with_schedule()).expect("solve ok");
    assert_eq!(second.active_slots, expected);
    assert!(second.cached, "repeat solve hits the shared cache");
    let schedule = second.schedule.expect("schedule was requested");
    assert_eq!(schedule.active_time() as u64, expected);

    // The greedy path answers through the facade, not the engine cache.
    let greedy = client.solve(Request::solve(&inst).with_method("greedy")).expect("greedy ok");
    assert_eq!(greedy.method, "greedy");
    assert_eq!(
        greedy.active_slots,
        Solve::new(&inst).method(Method::Greedy).run().unwrap().active_time() as u64
    );

    // Batch over the wire matches the engine's accounting.
    let batch_insts = vec![inst.clone(), Instance::new(1, vec![Job::new(0, 2, 1); 3]).unwrap()];
    let batch = client.batch(&batch_insts).expect("batch ok");
    assert_eq!(batch.total, 2);
    assert_eq!(batch.solved, 1);
    assert_eq!(batch.infeasible, 1);
    assert_eq!(batch.items[0].active_slots, Some(expected));
    assert_eq!(batch.items[1].outcome, "infeasible");

    // Infeasible single solve is a typed service error.
    match client.solve_instance(&batch_insts[1]) {
        Err(ClientError::Service { kind: k, .. }) => assert_eq!(k, kind::INFEASIBLE),
        other => panic!("expected infeasible, got {other:?}"),
    }

    let stats = client.stats().expect("stats ok");
    assert!(stats.accepted >= 5, "solves and batch were admitted: {stats:?}");
    assert!(stats.cache_hits >= 1, "repeat solve hit: {stats:?}");
    assert_eq!(stats.inflight, 0);

    let snapshot = client.shutdown().expect("shutdown acks with the final snapshot");
    assert_eq!(snapshot.inflight, 0);
    assert_eq!(snapshot.completed, snapshot.accepted);
    let joined = handle.join().expect("server exits cleanly");
    assert_eq!(joined.completed, snapshot.completed);
}

#[test]
fn malformed_frames_poison_the_request_not_the_connection() {
    let handle = spawn_server(ServerConfig { max_line_bytes: 256, ..ServerConfig::default() });
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();

    // Unparseable JSON → bad_request with a null id, connection lives.
    writer.write_all(b"this is not json\n").unwrap();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains("bad_request"), "{reply}");
    assert!(reply.contains("\"id\":null"), "{reply}");

    // Unknown field → bad_request naming the field.
    reply.clear();
    writer.write_all(b"{\"verb\":\"health\",\"bogus\":1}\n").unwrap();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains("bad_request") && reply.contains("bogus"), "{reply}");

    // Oversized line → bad_request, and the stream resyncs after it.
    reply.clear();
    let huge = format!("{{\"verb\":\"health\",\"pad\":\"{}\"}}\n", "x".repeat(500));
    writer.write_all(huge.as_bytes()).unwrap();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains("bad_request"), "{reply}");

    // Unknown verb → bad_request with the id echoed.
    reply.clear();
    writer.write_all(b"{\"id\":42,\"verb\":\"explode\"}\n").unwrap();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains("bad_request") && reply.contains("\"id\":42"), "{reply}");

    // A protocol-2 LP field → bad_request naming the `lp` field that
    // replaced it; there is no mapping.
    reply.clear();
    writer.write_all(b"{\"verb\":\"health\",\"precision\":\"exact\"}\n").unwrap();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains("bad_request"), "{reply}");
    assert!(reply.contains("unknown field `precision`") && reply.contains("`lp`"), "{reply}");

    // A duplicate key → bad_request, not a silent first-or-last pick.
    reply.clear();
    writer.write_all(b"{\"verb\":\"health\",\"verb\":\"shutdown\"}\n").unwrap();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains("bad_request") && reply.contains("duplicate field `verb`"), "{reply}");

    // The same connection still serves well-formed requests.
    reply.clear();
    writer.write_all(b"{\"id\":43,\"verb\":\"health\"}\n").unwrap();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains("\"status\":\"ok\""), "{reply}");

    Client::connect(handle.addr()).unwrap().shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn deeply_nested_frames_are_refused_and_the_connection_lives() {
    // 20,000 levels of `[` fit well inside the default 1 MiB line
    // bound. Parsing them without a nesting bound overflows the
    // reactor thread's stack and aborts the process.
    let handle = spawn_server(ServerConfig::default());
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();

    let frame = format!("{{\"verb\":\"solve\",\"instance\":{}\n", "[".repeat(20_000));
    writer.write_all(frame.as_bytes()).unwrap();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains("bad_request"), "{reply}");
    assert!(reply.contains("recursion limit exceeded"), "{reply}");

    reply.clear();
    writer.write_all(b"{\"id\":1,\"verb\":\"health\"}\n").unwrap();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains("\"status\":\"ok\""), "{reply}");

    Client::connect(handle.addr()).unwrap().shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn deadlines_answer_timed_out() {
    let handle = spawn_server(ServerConfig::default().workers(1));
    let mut client = Client::connect(handle.addr()).unwrap();
    match client.solve(Request::solve(&heavy_instance()).with_timeout_ms(1)) {
        Err(ClientError::Service { kind: k, message }) => {
            assert_eq!(k, kind::TIMED_OUT, "{message}");
        }
        other => panic!("expected timed_out, got {other:?}"),
    }
    // The worker that hit the deadline keeps serving.
    let inst = Instance::new(2, vec![Job::new(0, 4, 2)]).unwrap();
    client.solve_instance(&inst).expect("server still serves after a timeout");
    let snapshot = client.shutdown().unwrap();
    assert_eq!(snapshot.timed_out, 1);
    handle.join().unwrap();
}

#[test]
fn overload_sheds_with_typed_errors_instead_of_queuing() {
    // One worker, one queue slot, and a 300 ms artificial delay: with 8
    // simultaneous solves at most a couple can be executing/queued, so
    // shedding is deterministic.
    let handle = spawn_server(ServerConfig::default().workers(1).queue_depth(1).delay_ms(300));
    let addr = handle.addr();
    let inst = Instance::new(2, vec![Job::new(0, 4, 2), Job::new(1, 3, 1)]).unwrap();
    let mut threads = Vec::new();
    for _ in 0..8 {
        let inst = inst.clone();
        threads.push(thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            match client.solve_instance(&inst) {
                Ok(_) => "ok",
                Err(ClientError::Service { kind: k, .. }) if k == kind::OVERLOADED => "shed",
                Err(e) => panic!("unexpected failure: {e}"),
            }
        }));
    }
    let outcomes: Vec<&str> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    let ok = outcomes.iter().filter(|o| **o == "ok").count();
    let shed = outcomes.iter().filter(|o| **o == "shed").count();
    assert_eq!(ok + shed, 8);
    assert!(ok >= 1, "at least the first request is served: {outcomes:?}");
    assert!(shed >= 1, "a saturated queue must shed: {outcomes:?}");

    let snapshot = Client::connect(addr).unwrap().shutdown().unwrap();
    assert_eq!(snapshot.rejected_overload, shed as u64);
    assert_eq!(snapshot.accepted, ok as u64);
    assert_eq!(snapshot.completed, snapshot.accepted, "every admitted request was answered");
    handle.join().unwrap();
}

#[test]
fn soak_eight_clients_match_sequential_solves_and_drain_cleanly() {
    let corpus = corpus();
    let handle = spawn_server(
        // Deep queue: this test checks equivalence, not shedding.
        ServerConfig::default().workers(4).queue_depth(1024),
    );
    let addr = handle.addr();

    let mut threads = Vec::new();
    for t in 0..8usize {
        let corpus = corpus.clone();
        threads.push(thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut served = 0u64;
            for i in 0..100usize {
                // Interleave observability verbs through the same
                // connections the solves use.
                if i % 17 == 3 {
                    client.health().expect("healthy during the soak");
                    continue;
                }
                if i % 23 == 7 {
                    let stats = client.stats().expect("stats during the soak");
                    assert!(stats.queue_len <= stats.queue_capacity);
                    continue;
                }
                let (inst, expected) = &corpus[(t * 31 + i) % corpus.len()];
                match (client.solve_instance(inst), expected) {
                    (Ok(reply), Some(slots)) => {
                        assert_eq!(
                            reply.active_slots, *slots,
                            "thread {t} request {i}: server disagrees with sequential solve"
                        );
                        served += 1;
                    }
                    (Err(ClientError::Service { kind: k, .. }), None) => {
                        assert_eq!(k, kind::INFEASIBLE, "thread {t} request {i}");
                        served += 1;
                    }
                    (got, want) => panic!("thread {t} request {i}: got {got:?}, want {want:?}"),
                }
            }
            served
        }));
    }
    let served: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
    assert!(served >= 700, "8 threads × ~90 solves each: {served}");

    let mut control = Client::connect(addr).unwrap();
    let stats = control.stats().unwrap();
    assert_eq!(stats.accepted, served, "nothing lost, nothing duplicated");
    assert!(stats.cache_hit_rate > 0.5, "a tiny corpus must mostly hit: {stats:?}");
    assert_eq!(stats.rejected_overload, 0, "the deep queue never shed");

    let snapshot = control.shutdown().expect("drain");
    assert_eq!(snapshot.completed, snapshot.accepted, "clean drain answers everything");
    assert_eq!(snapshot.inflight, 0);
    assert_eq!(snapshot.queue_len, 0);
    assert!(snapshot.engine.infeasible > 0 && snapshot.engine.solved > 0);

    // Post-drain registry reconciliation: the wire snapshot's registry
    // counters must agree with what the clients observed — no lost or
    // double-counted solves.
    let reg = &snapshot.registry;
    assert_eq!(reg.counter("serve.accepted"), Some(served), "{reg:?}");
    assert_eq!(reg.counter("serve.completed"), Some(served), "{reg:?}");
    assert_eq!(reg.gauge("serve.inflight"), Some(0), "{reg:?}");
    // Typed fields and the registry are two views of one source.
    assert_eq!(reg.counter("serve.received"), Some(snapshot.received));
    assert_eq!(reg.counter("serve.bad_requests"), Some(snapshot.bad_requests));
    assert_eq!(reg.counter("serve.rejected_overload"), Some(snapshot.rejected_overload));
    // Every completed request recorded exactly one latency sample.
    let latency = reg.histogram("serve.latency_ms").expect("latency histogram on the wire");
    assert_eq!(latency.count, served);
    assert_eq!(latency.p50, snapshot.latency_ms.p50);
    assert_eq!(latency.max, snapshot.latency_ms.max);
    // Engine outcome counters reconcile with the engine totals, and the
    // solver stack's own instrumentation crossed the wire too: the
    // corpus is LP-bound, so the simplex pivoted, and the laminar greedy
    // that certifies and extracts counted its augmentations.
    assert_eq!(reg.counter("engine.outcome.solved"), Some(snapshot.engine.solved));
    assert_eq!(reg.counter("engine.outcome.infeasible"), Some(snapshot.engine.infeasible));
    assert!(reg.counter("lp.pivots").unwrap_or(0) > 0, "{reg:?}");
    assert!(reg.counter("lp.solves").unwrap_or(0) > 0, "{reg:?}");
    assert!(reg.counter("flow.augmenting_paths").unwrap_or(0) > 0, "{reg:?}");
    // Stage spans were recorded for every non-cached solver run.
    let solve_spans = reg.histogram("span.solve.ms").expect("solve span histogram");
    assert!(solve_spans.count > 0 && solve_spans.count <= served);
    // Cache gauges mirror the typed cache fields.
    assert_eq!(reg.gauge("engine.cache.hits"), Some(snapshot.cache_hits as i64));
    assert_eq!(reg.gauge("engine.cache.misses"), Some(snapshot.cache_misses as i64));
    // Latency split: runs that actually solved record `engine.solve_ms`,
    // cache hits record `engine.cache_hit_ms` — together they account
    // for exactly the solved outcomes (cached *infeasible* replays
    // record neither histogram), so cache hits no longer skew the
    // solve-latency percentiles.
    let solve_ms = reg.histogram("engine.solve_ms").expect("miss-only solve histogram");
    let hit_ms = reg.histogram("engine.cache_hit_ms").expect("cache-hit histogram");
    assert_eq!(solve_ms.count + hit_ms.count, snapshot.engine.solved, "{reg:?}");
    assert!(hit_ms.count > 0, "a >0.5 hit rate must include solved hits: {reg:?}");
    assert!(solve_ms.count < snapshot.engine.solved, "hits must not inflate solve_ms: {reg:?}");

    let joined = handle.join().expect("server thread exits");
    assert_eq!(joined.accepted, served);
}

#[test]
fn second_shutdown_and_post_drain_requests_are_refused() {
    let handle = spawn_server(ServerConfig::default().workers(1));
    let addr = handle.addr();
    // Park a second connection before the drain starts.
    let mut parked = Client::connect(addr).unwrap();
    parked.health().unwrap();

    Client::connect(addr).unwrap().shutdown().unwrap();
    handle.join().unwrap();

    // The parked connection gets EOF (or a refusal) rather than hanging.
    match parked.health() {
        Ok(()) => panic!("health must not succeed after the drain"),
        Err(ClientError::Service { kind: k, .. }) => assert_eq!(k, kind::SHUTTING_DOWN),
        Err(_) => {} // EOF / reset: the server is gone
    }
    assert!(Client::connect(addr).is_err(), "listener is closed after drain");
}
