//! The reactor-based TCP solve server.
//!
//! Architecture (epoll readiness via `atsched-net`, no async runtime):
//!
//! ```text
//!        reactor 0 (owns the listener, accepts)
//!            │ round-robin handoff of connections
//!            ▼
//!   R reactor event loops ── frames ── parse ── validate
//!        │                               │
//!        │ health/stats/close            │ solve/batch/open/amend
//!        ▼                               ▼
//!   answered inline          consistent-hash route to a shard
//!                                        │
//!                            AdmissionQueue[shard] ──full──▶ `overloaded`
//!                                        │
//!                            shard solver threads (Engine + cache)
//!                                        │ per-request deadline
//!                                        ▼
//!                            Remote mailbox ──▶ owning reactor writes
//! ```
//!
//! Request/response is strictly sequential per connection: admitting a
//! request pauses reading on that connection until its reply (or its
//! deadline preemption) resumes it, so replies can never cross-wire.
//! One reactor thread multiplexes thousands of connections; parallelism
//! comes from the solver threads behind each shard's bounded queue.

use crate::admission::AdmissionQueue;
use crate::protocol::{
    kind, verb, BatchItemReply, BatchReply, DeltaSpec, Request, Response, SolveReply,
    PROTOCOL_VERSION,
};
use crate::router::{HashRing, Msg, ServeLoop};
use crate::shutdown::ShutdownGate;
use crate::stats::ServerMetrics;
use atsched_core::instance::Instance;
use atsched_core::solver::{LpStrategy, SolverOptions};
use atsched_engine::{with_budget, Engine, EngineConfig, Interrupt, Outcome, SessionId};
use atsched_net::{ConnId, Reactor, ReactorConfig, Remote};
use atsched_obs::{Collector, EventLog, RequestEvent, RequestTrace, WindowedCounter};
use nested_active_time::{Error, Method, Solve};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Server configuration (builder-style).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Solver worker threads; `0` means one per available core.
    pub workers: usize,
    /// Admission-queue depth — the load-shedding threshold; `0` means
    /// `2 × workers`. Split across router shards.
    pub queue_depth: usize,
    /// Router event-loop workers (each with its own engine shard and
    /// admission queue); `0` means 1.
    pub router_workers: usize,
    /// Deadline applied to requests that do not set `timeout_ms`;
    /// `None` disables the default cap.
    pub default_timeout: Option<Duration>,
    /// Maximum accepted request-frame length; longer lines get a
    /// `bad_request` response and are skipped (the connection survives).
    pub max_line_bytes: usize,
    /// Cap on wire-visible open sessions; `open` beyond it is refused
    /// with a typed `overloaded` response.
    pub max_sessions: usize,
    /// Artificial delay before each admitted request is executed.
    /// Load-testing aid (lets tests saturate the queue
    /// deterministically); keep `0` in production.
    pub delay_ms: u64,
    /// Idle time after which an open session is evicted — swept
    /// periodically by reactor 0 and eagerly on every session verb and
    /// on `stats`.
    pub session_ttl: Duration,
    /// Optional plain-HTTP scrape listener address (`host:port`, port 0
    /// picks an ephemeral port): `GET /metrics` returns Prometheus-style
    /// text exposition, any other path the JSON stats snapshot.
    /// `None` (the default) disables the listener; the `metrics` verb
    /// on the protocol port works either way.
    pub metrics_addr: Option<String>,
    /// Completed requests slower than this (end-to-end, milliseconds)
    /// are recorded in the bounded slow-request log with their
    /// per-stage timings; errored requests are always recorded. `0`
    /// logs every request (tests, debugging).
    pub slow_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7411".into(),
            workers: 0,
            queue_depth: 0,
            router_workers: 0,
            default_timeout: Some(Duration::from_secs(30)),
            max_line_bytes: 1 << 20,
            max_sessions: 4096,
            delay_ms: 0,
            session_ttl: Duration::from_secs(15 * 60),
            metrics_addr: None,
            slow_ms: 500,
        }
    }
}

impl ServerConfig {
    /// Set the listen address.
    pub fn addr(mut self, addr: &str) -> Self {
        self.addr = addr.to_string();
        self
    }

    /// Set the worker count (`0` = one per core).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Set the admission-queue depth (`0` = `2 × workers`).
    pub fn queue_depth(mut self, n: usize) -> Self {
        self.queue_depth = n;
        self
    }

    /// Set the router event-loop worker count (`0` = 1).
    pub fn router_workers(mut self, n: usize) -> Self {
        self.router_workers = n;
        self
    }

    /// Set (or with `None` disable) the default per-request deadline.
    pub fn default_timeout(mut self, budget: Option<Duration>) -> Self {
        self.default_timeout = budget;
        self
    }

    /// Set the open-session cap.
    pub fn max_sessions(mut self, n: usize) -> Self {
        self.max_sessions = n;
        self
    }

    /// Set the artificial pre-execution delay (load-testing aid).
    pub fn delay_ms(mut self, ms: u64) -> Self {
        self.delay_ms = ms;
        self
    }

    /// Set the session idle TTL.
    pub fn session_ttl(mut self, ttl: Duration) -> Self {
        self.session_ttl = ttl;
        self
    }

    /// Enable the plain-HTTP scrape listener on this address.
    pub fn metrics_addr(mut self, addr: &str) -> Self {
        self.metrics_addr = Some(addr.to_string());
        self
    }

    /// Set the slow-request threshold (ms); `0` logs every request.
    pub fn slow_ms(mut self, ms: u64) -> Self {
        self.slow_ms = ms;
        self
    }

    fn effective_workers(&self) -> usize {
        if self.workers != 0 {
            return self.workers;
        }
        thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    }

    fn effective_queue_depth(&self) -> usize {
        if self.queue_depth != 0 {
            return self.queue_depth;
        }
        2 * self.effective_workers()
    }

    fn effective_router_workers(&self) -> usize {
        self.router_workers.max(1)
    }
}

/// `total` split as evenly as possible over `parts`, slot `index`.
fn share(total: usize, parts: usize, index: usize) -> usize {
    total / parts + usize::from(index < total % parts)
}

/// A validated unit of admitted work.
#[derive(Debug)]
pub(crate) enum Work {
    Solve {
        inst: Instance,
        method: Method,
        opts: SolverOptions,
        seed: Option<u64>,
        timeout: Option<Duration>,
        include_schedule: bool,
    },
    Batch {
        instances: Vec<Instance>,
        opts: SolverOptions,
        timeout: Option<Duration>,
    },
    Open {
        inst: Instance,
        opts: SolverOptions,
        timeout: Option<Duration>,
        include_schedule: bool,
    },
    Amend {
        session: u64,
        delta: DeltaSpec,
        timeout: Option<Duration>,
        include_schedule: bool,
    },
}

/// The wall-clock budget of a piece of work.
pub(crate) fn timeout_of(work: &Work) -> Option<Duration> {
    match work {
        Work::Solve { timeout, .. }
        | Work::Batch { timeout, .. }
        | Work::Open { timeout, .. }
        | Work::Amend { timeout, .. } => *timeout,
    }
}

/// A queued request: validated work plus its reply path back to the
/// reactor that owns the connection.
pub(crate) struct Job {
    pub(crate) id: Option<u64>,
    pub(crate) work: Work,
    pub(crate) conn: ConnId,
    pub(crate) seq: u64,
    pub(crate) reply_to: Remote<Msg>,
    pub(crate) admitted: Instant,
    /// Request-trace context created at admission: server-assigned id,
    /// verb, owning shard, and (once executed) per-stage breadcrumbs.
    pub(crate) trace: Arc<RequestTrace>,
}

/// One router shard: an engine (with its own solve cache) fed by a
/// bounded admission queue, drained by `threads` solver threads.
pub(crate) struct ShardState {
    pub(crate) engine: Engine,
    pub(crate) queue: AdmissionQueue<Job>,
    threads: usize,
}

/// A wire-visible session: which shard's engine holds it, under which
/// engine-local id, and when it was last touched (for the idle TTL).
pub(crate) struct SessionEntry {
    pub(crate) shard: usize,
    pub(crate) engine: SessionId,
    pub(crate) touched: Instant,
}

/// Events the reactors raise to the coordinator in [`Server::run`].
pub(crate) enum DrainEvent {
    /// A `shutdown` verb won the gate on `reactor`; answer `conn` with
    /// the final snapshot once the drain completes.
    Request { reactor: usize, conn: ConnId, id: Option<u64> },
    /// A reactor's event loop died with an I/O error.
    ReactorFailed(String),
}

/// Everything shared between the reactors, solver threads, and the
/// coordinator.
pub(crate) struct Shared {
    pub(crate) cfg: ServerConfig,
    pub(crate) metrics: ServerMetrics,
    pub(crate) gate: ShutdownGate,
    pub(crate) started: Instant,
    pub(crate) shards: Vec<ShardState>,
    pub(crate) ring: HashRing,
    /// Wire session id → owning shard + engine session. Wire ids are
    /// allocated server-side ([`Shared::next_session`]) because engine
    /// session ids are only unique per shard.
    pub(crate) sessions: Mutex<HashMap<u64, SessionEntry>>,
    pub(crate) next_session: AtomicU64,
    /// `open` requests admitted but not yet registered in the table;
    /// counted against `max_sessions` so a burst of opens cannot blow
    /// past the cap while in flight.
    pub(crate) open_reservations: AtomicUsize,
    /// One mailbox per reactor; set once by [`Server::run`] before any
    /// reactor thread starts.
    remotes: OnceLock<Vec<Remote<Msg>>>,
    pub(crate) drain_tx: mpsc::Sender<DrainEvent>,
    pub(crate) drain_written_tx: mpsc::Sender<()>,
    /// Server-assigned request ids for admitted work (monotonic,
    /// distinct from client correlation ids).
    pub(crate) next_request_id: AtomicU64,
    /// Bounded log of recent slow or errored requests.
    pub(crate) events: EventLog,
    /// Per-shard windowed request counters
    /// (`serve.shard.{i}.requests`), bumped at admission.
    pub(crate) shard_requests: Vec<Arc<WindowedCounter>>,
}

impl Shared {
    pub(crate) fn remotes(&self) -> &[Remote<Msg>] {
        self.remotes.get().expect("remotes installed before serving")
    }

    pub(crate) fn remote(&self, reactor: usize) -> Remote<Msg> {
        self.remotes()[reactor].clone()
    }
}

/// A bound (but not yet running) solve server.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
    drain_rx: mpsc::Receiver<DrainEvent>,
    written_rx: mpsc::Receiver<()>,
    /// The scrape listener, already accepting (it is read-only and
    /// needs no reactor), when `metrics_addr` was configured.
    scrape: Option<crate::scrape::MetricsListener>,
}

/// Join handle for a server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    join: JoinHandle<io::Result<crate::protocol::StatsReply>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The scrape listener's bound address, when one was configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Wait for the server to drain and return its final snapshot.
    pub fn join(self) -> io::Result<crate::protocol::StatsReply> {
        self.join.join().unwrap_or_else(|_| Err(io::Error::other("server thread panicked")))
    }
}

impl Server {
    /// Bind the listen socket; the server starts serving on
    /// [`run`](Server::run) / [`spawn`](Server::spawn).
    pub fn bind(cfg: ServerConfig) -> io::Result<Server> {
        // Thousands of concurrent connections need fd headroom beyond
        // the usual 1024 soft cap; best-effort raise to the hard limit.
        let _ = atsched_net::raise_nofile_limit();
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let routers = cfg.effective_router_workers();
        let total_threads = cfg.effective_workers();
        let total_depth = cfg.effective_queue_depth();
        // One registry shared by server-level counters and every shard
        // engine's solver instrumentation: `stats` snapshots all of it.
        let registry = Arc::new(atsched_obs::Registry::new());
        let shards = (0..routers)
            .map(|i| {
                let threads = share(total_threads, routers, i).max(1);
                ShardState {
                    engine: Engine::with_registry(
                        EngineConfig::default().workers(threads),
                        Arc::clone(&registry),
                    ),
                    queue: AdmissionQueue::new(share(total_depth, routers, i).max(1)),
                    threads,
                }
            })
            .collect();
        let shard_requests = (0..routers)
            .map(|i| registry.windowed_counter(&format!("serve.shard.{i}.requests")))
            .collect();
        let (drain_tx, drain_rx) = mpsc::channel();
        let (drain_written_tx, written_rx) = mpsc::channel();
        let shared = Arc::new(Shared {
            cfg,
            metrics: ServerMetrics::new(registry),
            gate: ShutdownGate::default(),
            started: Instant::now(),
            ring: HashRing::new(routers),
            shards,
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(0),
            open_reservations: AtomicUsize::new(0),
            remotes: OnceLock::new(),
            drain_tx,
            drain_written_tx,
            next_request_id: AtomicU64::new(0),
            // Enough depth to hold a burst of slow requests without
            // unbounded growth; `stats` reports the newest few.
            events: EventLog::new(64),
            shard_requests,
        });
        // The scrape surface is read-only and independent of the
        // reactors, so it can start answering as soon as the state it
        // snapshots exists.
        let scrape = match &shared.cfg.metrics_addr {
            Some(addr) => Some(crate::scrape::spawn_metrics_listener(Arc::clone(&shared), addr)?),
            None => None,
        };
        Ok(Server { listener, addr, shared, drain_rx, written_rx, scrape })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The scrape listener's bound address, when one was configured
    /// (useful with a port-0 `metrics_addr`).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.scrape.as_ref().map(|s| s.addr)
    }

    /// Serve until a `shutdown` request drains the server; returns the
    /// final stats snapshot.
    pub fn run(self) -> io::Result<crate::protocol::StatsReply> {
        let Server { listener, addr: _, shared, drain_rx, written_rx, scrape } = self;

        // Build every reactor before spawning anything, so a failure
        // here needs no cleanup.
        let rcfg =
            ReactorConfig { max_line_bytes: shared.cfg.max_line_bytes, ..ReactorConfig::default() };
        let mut built = Vec::new();
        let mut remotes = Vec::new();
        for index in 0..shared.shards.len() {
            let (reactor, remote) =
                Reactor::new(rcfg.clone(), ServeLoop::new(Arc::clone(&shared), index))?;
            built.push(reactor);
            remotes.push(remote);
        }
        built[0].listen(listener)?;
        assert!(shared.remotes.set(remotes).is_ok(), "remotes installed once");

        let solvers: Vec<JoinHandle<()>> = shared
            .shards
            .iter()
            .enumerate()
            .flat_map(|(index, shard)| (0..shard.threads).map(move |_| index).collect::<Vec<_>>())
            .map(|index| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared, index))
            })
            .collect();

        let reactors: Vec<JoinHandle<()>> = built
            .into_iter()
            .map(|reactor| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || {
                    if let Err(e) = reactor.run() {
                        let _ = shared.drain_tx.send(DrainEvent::ReactorFailed(e.to_string()));
                    }
                })
            })
            .collect();

        // Coordinator: block until a `shutdown` wins the gate (or a
        // reactor dies), drain, snapshot, answer, stop.
        let event = drain_rx.recv().unwrap_or_else(|_| {
            DrainEvent::ReactorFailed("every reactor exited without draining".into())
        });
        let result = match event {
            DrainEvent::Request { reactor, conn, id } => {
                // The winning reactor already closed every queue;
                // joining the solvers waits out the admitted backlog.
                for solver in solvers {
                    let _ = solver.join();
                }
                // Every reply the workers sent is already in its
                // reactor's mailbox (FIFO), so the snapshot reflects a
                // fully-answered server — and the drain closes all
                // live sessions before reporting.
                drain_sessions(&shared);
                let snapshot = snapshot_all(&shared);
                let resp = Response::ok_stats(id, verb::SHUTDOWN, snapshot.clone());
                if shared.remotes()[reactor].send(Msg::Final { conn, resp: Box::new(resp) }) {
                    // Give the requester a grace window to receive it.
                    let _ = written_rx.recv_timeout(Duration::from_secs(5));
                }
                Ok(snapshot)
            }
            DrainEvent::ReactorFailed(msg) => {
                shared.gate.begin_silent();
                for shard in &shared.shards {
                    shard.queue.close();
                }
                for solver in solvers {
                    let _ = solver.join();
                }
                Err(io::Error::other(msg))
            }
        };
        if let Some(scrape) = scrape {
            scrape.shutdown();
        }
        for remote in shared.remotes() {
            remote.send(Msg::Stop);
        }
        for reactor in reactors {
            let _ = reactor.join();
        }
        result
    }

    /// Run on a background thread (tests, embedding).
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let metrics_addr = self.metrics_addr();
        let join = thread::spawn(move || self.run());
        ServerHandle { addr, metrics_addr, join }
    }
}

// ---------------------------------------------------------------------
// Frame encoding
// ---------------------------------------------------------------------

/// Wire frame sent when a response fails to serialize. Static so it
/// cannot itself fail, and shaped like any other error [`Response`] so
/// clients need no special handling.
const SERIALIZE_FALLBACK_FRAME: &str = concat!(
    r#"{"id":null,"status":"error","error":"#,
    r#"{"kind":"internal","message":"response serialization failed"}}"#,
);

/// Encode one response as a newline-terminated frame.
///
/// A response that fails to serialize must not take the connection (or
/// the server) down with it: the failure is counted under
/// `serve.serialize_errors` and a static `internal` error frame goes
/// out in its place, keeping the request/reply cadence intact.
pub(crate) fn encode_frame<T: serde::ser::Serialize>(resp: &T, metrics: &ServerMetrics) -> String {
    let mut line = match serde_json::to_string(resp) {
        Ok(line) => line,
        Err(_) => {
            metrics.serialize_error();
            SERIALIZE_FALLBACK_FRAME.to_string()
        }
    };
    line.push('\n');
    line
}

// ---------------------------------------------------------------------
// Request validation and inline verbs
// ---------------------------------------------------------------------

/// Version gate: `None` when the request's declared version is fine
/// for its verb, otherwise the typed rejection.
///
/// An absent `version` means v1 — always accepted for the v1 verbs so
/// PR 2-era clients keep working unchanged. Session verbs demand an
/// explicit `version ≥ 2`; versions newer than this build are refused
/// outright (the client expects capabilities we cannot honor).
pub(crate) fn check_version(req: &Request) -> Option<Response> {
    let declared = req.version.unwrap_or(1);
    if declared > PROTOCOL_VERSION {
        return Some(Response::error(
            req.id,
            Some(req.verb.as_str()),
            kind::UNSUPPORTED_VERSION,
            format!("this server speaks protocol {PROTOCOL_VERSION}, request declared {declared}"),
        ));
    }
    let needs_v2 = matches!(req.verb.as_str(), verb::OPEN | verb::AMEND | verb::CLOSE);
    if needs_v2 && declared < 2 {
        return Some(Response::error(
            req.id,
            Some(req.verb.as_str()),
            kind::UNSUPPORTED_VERSION,
            format!("verb '{}' requires `\"version\": 2`", req.verb),
        ));
    }
    None
}

/// Map the wire's `backend` / `precision` / `lp_path` fields onto an
/// [`LpStrategy`] (DESIGN §15.3). `precision=exact` asks for the exact
/// reference and `backend=float` for the float LP; every other accepted
/// value is certified. `snap` and `f64-unchecked` are deprecated
/// aliases: a certified answer meets their contract, an exactly
/// verified schedule. `lp_path=tree` ("fail unless the tree answers")
/// and `backend=float` with either other field have no strategy.
fn lp_strategy(req: &Request) -> Result<LpStrategy, String> {
    let (precision, lp_path) = (req.precision.as_deref(), req.lp_path.as_deref());
    match req.backend.as_deref() {
        None | Some("exact" | "snap") => {}
        Some("float") if precision.is_none() && lp_path.is_none() => return Ok(LpStrategy::Float),
        Some("float") => return Err("backend=float takes no `precision` or `lp_path`".into()),
        Some(other) => return Err(format!("unknown backend '{other}' (exact|float)")),
    }
    match lp_path {
        None | Some("auto" | "simplex") => {}
        Some("tree") => {
            return Err("lp_path=tree is not offered: a declined tree attempt falls back".into())
        }
        Some(other) => return Err(format!("unknown lp path '{other}' (auto|simplex)")),
    }
    match precision {
        None | Some("hybrid" | "f64-unchecked") => Ok(LpStrategy::Certified),
        Some("exact") => Ok(LpStrategy::Exact),
        Some(other) => Err(format!("unknown precision mode '{other}' (hybrid|exact)")),
    }
}

/// Turn a wire request into validated work, applying server defaults.
pub(crate) fn validate(req: &Request, default_timeout: Option<Duration>) -> Result<Work, String> {
    let opts = {
        let mut opts = SolverOptions::exact();
        opts.lp = lp_strategy(req)?;
        opts.polish = req.polish.unwrap_or(false);
        if let Some(shard) = req.shard.as_deref() {
            opts.shard = shard.parse()?;
        }
        opts
    };
    let timeout = req.timeout_ms.map(Duration::from_millis).or(default_timeout);
    match req.verb.as_str() {
        verb::SOLVE => {
            let raw = req.instance.as_ref().ok_or("solve needs an `instance`")?;
            let inst = Instance::new(raw.g, raw.jobs.clone())
                .map_err(|e| format!("invalid instance: {e}"))?;
            let method: Method = req.method.as_deref().unwrap_or("auto").parse()?;
            Ok(Work::Solve {
                inst,
                method,
                opts,
                seed: req.seed,
                timeout,
                include_schedule: req.include_schedule.unwrap_or(false),
            })
        }
        verb::BATCH => {
            let raw = req.instances.as_ref().ok_or("batch needs `instances`")?;
            let mut instances = Vec::with_capacity(raw.len());
            for (i, r) in raw.iter().enumerate() {
                instances.push(
                    Instance::new(r.g, r.jobs.clone())
                        .map_err(|e| format!("invalid instance at index {i}: {e}"))?,
                );
            }
            Ok(Work::Batch { instances, opts, timeout })
        }
        verb::OPEN => {
            let raw = req.instance.as_ref().ok_or("open needs an `instance`")?;
            let inst = Instance::new(raw.g, raw.jobs.clone())
                .map_err(|e| format!("invalid instance: {e}"))?;
            if req.method.as_deref().is_some_and(|m| m != "auto" && m != "nested") {
                return Err("sessions always solve on the nested path; omit `method`".into());
            }
            Ok(Work::Open {
                inst,
                opts,
                timeout,
                include_schedule: req.include_schedule.unwrap_or(false),
            })
        }
        verb::AMEND => {
            let session = req.session.ok_or("amend needs a `session` id")?;
            let delta = req.delta.clone().ok_or("amend needs a `delta`")?;
            if delta.is_empty() {
                return Err("amend `delta` has no ops".into());
            }
            Ok(Work::Amend {
                session,
                delta,
                timeout,
                include_schedule: req.include_schedule.unwrap_or(false),
            })
        }
        other => Err(format!("verb '{other}' is not admittable")),
    }
}

/// Evict sessions idle past the TTL. Called eagerly on session verbs
/// and `stats`, and periodically by reactor 0; counts each eviction
/// under `serve.sessions_expired`.
pub(crate) fn sweep_sessions(shared: &Shared) {
    let ttl = shared.cfg.session_ttl;
    let mut table = shared.sessions.lock().expect("sessions lock");
    let expired: Vec<u64> =
        table.iter().filter(|(_, e)| e.touched.elapsed() > ttl).map(|(&id, _)| id).collect();
    for id in expired {
        if let Some(entry) = table.remove(&id) {
            shared.shards[entry.shard].engine.close_session(entry.engine);
            shared.metrics.session_expired();
        }
    }
}

/// Force-close every live session during the shutdown drain; counts
/// each under `serve.sessions_evicted`.
pub(crate) fn drain_sessions(shared: &Shared) {
    let mut table = shared.sessions.lock().expect("sessions lock");
    for (_, entry) in table.drain() {
        shared.shards[entry.shard].engine.close_session(entry.engine);
        shared.metrics.session_evicted();
    }
}

/// How many slow-request entries a `stats` reply carries (the event
/// log retains more; this bounds the frame size).
const SLOW_REPLY_LIMIT: usize = 8;

/// The merged stats plane: one snapshot summing every router shard,
/// plus per-shard sections and the recent slow-request list.
pub(crate) fn snapshot_all(shared: &Shared) -> crate::protocol::StatsReply {
    let engines: Vec<&Engine> = shared.shards.iter().map(|s| &s.engine).collect();
    let queue_len: usize = shared.shards.iter().map(|s| s.queue.len()).sum();
    let queue_capacity: usize = shared.shards.iter().map(|s| s.queue.capacity()).sum();
    let (sessions_open, sessions_by_shard) = {
        let table = shared.sessions.lock().expect("sessions lock");
        let mut by_shard = vec![0u64; shared.shards.len()];
        for entry in table.values() {
            if let Some(n) = by_shard.get_mut(entry.shard) {
                *n += 1;
            }
        }
        (table.len() as u64, by_shard)
    };
    let shards = shared
        .shards
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let cache = s.engine.cache_stats();
            let rates = shared.shard_requests[i].rates();
            crate::protocol::ShardStats {
                shard: i as u64,
                queue_len: s.queue.len() as u64,
                queue_capacity: s.queue.capacity() as u64,
                sessions_open: sessions_by_shard[i],
                cache_hits: cache.hits,
                cache_misses: cache.misses,
                requests: shared.shard_requests[i].get(),
                rate_10s: rates.rate_10s,
                rate_1m: rates.rate_1m,
                rate_5m: rates.rate_5m,
            }
        })
        .collect();
    let slow = shared
        .events
        .recent(SLOW_REPLY_LIMIT)
        .into_iter()
        .map(|e| crate::protocol::SlowRequest {
            request: e.id,
            verb: e.verb,
            shard: e.shard,
            total_ms: e.total_ms,
            error: e.error,
            stages: e
                .stages
                .into_iter()
                .map(|(stage, ms)| crate::protocol::StageTiming { stage, ms })
                .collect(),
        })
        .collect();
    shared.metrics.snapshot_merged(
        &engines,
        shared.started,
        queue_len,
        queue_capacity,
        sessions_open,
        shared.shards.len() as u64,
        shards,
        slow,
    )
}

/// `close` is answered inline (no solve happens): drop the session from
/// both tables. Closing an unknown (or already-evicted) session is the
/// typed [`kind::UNKNOWN_SESSION`] error so clients can distinguish
/// "closed twice" from "never opened".
pub(crate) fn handle_close(shared: &Shared, req: &Request) -> Response {
    sweep_sessions(shared);
    let Some(session) = req.session else {
        shared.metrics.bad_request();
        return Response::error(
            req.id,
            Some(verb::CLOSE),
            kind::BAD_REQUEST,
            "close needs a `session` id".into(),
        );
    };
    let entry = shared.sessions.lock().expect("sessions lock").remove(&session);
    let closed = entry.is_some_and(|e| shared.shards[e.shard].engine.close_session(e.engine));
    if closed {
        shared.metrics.session_closed();
        Response::ok(req.id, verb::CLOSE).with_version(PROTOCOL_VERSION).with_session(session)
    } else {
        Response::error(
            req.id,
            Some(verb::CLOSE),
            kind::UNKNOWN_SESSION,
            format!("session {session} is not open"),
        )
        .with_version(PROTOCOL_VERSION)
    }
}

// ---------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>, shard_idx: usize) {
    while let Some(job) = shared.shards[shard_idx].queue.pop() {
        if shared.cfg.delay_ms > 0 {
            thread::sleep(Duration::from_millis(shared.cfg.delay_ms));
        }
        let Job { id, work, conn, seq, reply_to, admitted, trace } = job;
        let was_open = matches!(work, Work::Open { .. });
        // Execute under a collector carrying the request trace: spans
        // dropping anywhere in the solve (including on pool and budget
        // helper threads, which re-install this collector) leave their
        // per-stage breadcrumbs on it. The engine's own `observed`
        // wrapper keeps the trace attached when it swaps collectors.
        let collector =
            Collector::new(Arc::clone(shared.metrics.registry())).with_request(Arc::clone(&trace));
        let resp = atsched_obs::with_collector(collector, || match work {
            Work::Solve { inst, method, opts, seed, timeout, include_schedule } => execute_solve(
                shared,
                shard_idx,
                id,
                inst,
                method,
                opts,
                seed,
                timeout,
                include_schedule,
            ),
            Work::Batch { instances, opts, timeout } => {
                execute_batch(shared, shard_idx, id, instances, opts, timeout)
            }
            Work::Open { inst, opts, timeout, include_schedule } => {
                execute_open(shared, shard_idx, id, inst, opts, timeout, include_schedule)
            }
            Work::Amend { session, delta, timeout, include_schedule } => {
                execute_amend(shared, id, session, delta, timeout, include_schedule)
            }
        });
        if was_open {
            // The cap reservation taken at admission is now either a
            // real table entry or moot.
            shared.open_reservations.fetch_sub(1, Ordering::SeqCst);
        }
        let total_ms = admitted.elapsed().as_secs_f64() * 1e3;
        let deadline_overrun = resp.error_kind() == Some(kind::TIMED_OUT);
        let solve_error = matches!(resp.error_kind(), Some(kind::INFEASIBLE) | Some(kind::FAILED));
        shared.metrics.finished(total_ms, deadline_overrun, solve_error);
        // Slow or errored requests keep their full trace in the
        // bounded event log; everything else is counters only.
        if resp.error.is_some() || total_ms > shared.cfg.slow_ms as f64 {
            let error = resp.error.as_ref().map(|e| e.kind.clone());
            shared.events.push(RequestEvent::from_trace(&trace, total_ms, error));
        }
        let resp = resp.with_request(trace.id());
        // Stale replies (deadline-preempted, connection gone) are
        // dropped by the reactor's seq check; nothing to do here.
        let _ = reply_to.send(Msg::Reply { conn, seq, resp: Box::new(resp) });
    }
}

#[allow(clippy::too_many_arguments)]
fn execute_solve(
    shared: &Arc<Shared>,
    shard_idx: usize,
    id: Option<u64>,
    inst: Instance,
    method: Method,
    opts: SolverOptions,
    seed: Option<u64>,
    timeout: Option<Duration>,
    include_schedule: bool,
) -> Response {
    let start = Instant::now();
    let method = method.resolve(&inst);
    if method == Method::Nested {
        // Nested solves go through the shard engine so repeats across
        // requests (and clients) hit its content-keyed cache — and the
        // consistent-hash routing sends repeats to the same shard.
        let outcome =
            within(shared, timeout, move |s| s.shards[shard_idx].engine.solve_one(&inst, &opts))
                .unwrap_or_else(|interrupt| match interrupt {
                    Interrupt::TimedOut => Outcome::TimedOut,
                    Interrupt::Panicked(msg) => Outcome::Failed(msg),
                });
        let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        let infeasible = "instance is infeasible";
        outcome_response(
            id,
            verb::SOLVE,
            outcome,
            elapsed_ms,
            include_schedule,
            timeout,
            infeasible,
        )
    } else {
        let mut solve = Solve::new(&inst).method(method).options(opts);
        if let Some(seed) = seed {
            solve = solve.seed(seed);
        }
        if let Some(budget) = timeout {
            solve = solve.timeout(budget);
        }
        let result = solve.run();
        let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(outcome) => Response::ok_solve(
                id,
                SolveReply {
                    active_slots: outcome.active_time() as u64,
                    method: outcome.method_label().into(),
                    certified_ratio: outcome.certified_ratio(),
                    cached: false,
                    elapsed_ms,
                    schedule: include_schedule.then(|| outcome.schedule().clone()),
                },
            ),
            Err(Error::Infeasible) => Response::error(
                id,
                Some(verb::SOLVE),
                kind::INFEASIBLE,
                "instance is infeasible".into(),
            ),
            Err(Error::TimedOut) => deadline_response(id, verb::SOLVE, timeout),
            Err(Error::Instance(e)) => {
                Response::error(id, Some(verb::SOLVE), kind::BAD_REQUEST, e.to_string())
            }
            Err(e) => Response::error(id, Some(verb::SOLVE), kind::FAILED, e.to_string()),
        }
    }
}

fn execute_batch(
    shared: &Arc<Shared>,
    shard_idx: usize,
    id: Option<u64>,
    instances: Vec<Instance>,
    opts: SolverOptions,
    timeout: Option<Duration>,
) -> Response {
    let result = match within(shared, timeout, move |s| {
        s.shards[shard_idx].engine.solve_batch(&instances, &opts)
    }) {
        Ok(result) => result,
        Err(Interrupt::TimedOut) => return deadline_response(id, verb::BATCH, timeout),
        Err(Interrupt::Panicked(msg)) => {
            return Response::error(id, Some(verb::BATCH), kind::FAILED, msg)
        }
    };
    let items = result
        .outcomes
        .iter()
        .enumerate()
        .map(|(index, outcome)| BatchItemReply {
            index: index as u64,
            outcome: outcome.label().to_string(),
            active_slots: outcome.as_solved().map(|s| s.result.schedule.active_time() as u64),
            cached: outcome.as_solved().map(|s| s.cached),
            message: match outcome {
                Outcome::Failed(msg) => Some(msg.clone()),
                _ => None,
            },
        })
        .collect();
    let report = &result.report;
    Response::ok_batch(
        id,
        BatchReply {
            items,
            total: report.total as u64,
            solved: report.solved as u64,
            infeasible: report.infeasible as u64,
            timed_out: report.timed_out as u64,
            failed: report.failed as u64,
            wall_clock_ms: report.wall_clock_ms,
            cache_hits: report.cache.hits,
            cache_misses: report.cache.misses,
        },
    )
}

/// Run `work` on the shared state, in place without a `timeout` and on
/// a [`with_budget`] helper thread with one. The work owns its inputs,
/// so neither branch copies them.
fn within<T, F>(shared: &Arc<Shared>, timeout: Option<Duration>, work: F) -> Result<T, Interrupt>
where
    T: Send + 'static,
    F: FnOnce(&Shared) -> T + Send + 'static,
{
    match timeout {
        None => Ok(work(shared)),
        Some(budget) => {
            let shared = Arc::clone(shared);
            with_budget(move || work(&shared), budget)
        }
    }
}

/// Shape an engine [`Outcome`] into the reply frame of a nested-solve
/// verb (`solve`, `open`, `amend`); `infeasible` is the message an
/// infeasible outcome reports.
fn outcome_response(
    id: Option<u64>,
    verb_name: &'static str,
    outcome: Outcome,
    elapsed_ms: f64,
    include_schedule: bool,
    timeout: Option<Duration>,
    infeasible: &str,
) -> Response {
    match outcome {
        Outcome::Solved(item) => Response {
            solve: Some(SolveReply {
                active_slots: item.result.schedule.active_time() as u64,
                method: "nested".into(),
                certified_ratio: Some(item.result.stats.opened_over_lp),
                cached: item.cached,
                elapsed_ms,
                schedule: include_schedule.then(|| item.result.schedule.clone()),
            }),
            ..Response::ok(id, verb_name)
        },
        Outcome::Infeasible => {
            Response::error(id, Some(verb_name), kind::INFEASIBLE, infeasible.into())
        }
        Outcome::TimedOut => deadline_response(id, verb_name, timeout),
        Outcome::Failed(msg) => Response::error(id, Some(verb_name), kind::FAILED, msg),
    }
}

/// Shape a session solve outcome into the reply frame. Used by both
/// `open` and `amend`; errors still echo the session id so the client
/// knows the session survives (it does — an infeasible amendment keeps
/// the session open and amendable).
fn session_outcome_response(
    id: Option<u64>,
    verb_name: &'static str,
    session: u64,
    outcome: Outcome,
    elapsed_ms: f64,
    include_schedule: bool,
    timeout: Option<Duration>,
) -> Response {
    let infeasible = "instance is infeasible (the session stays open and amendable)";
    outcome_response(id, verb_name, outcome, elapsed_ms, include_schedule, timeout, infeasible)
        .with_version(PROTOCOL_VERSION)
        .with_session(session)
}

/// Hand-off of an engine session opened under a budget, between the
/// budget thread and the caller waiting on it (see [`execute_open`]).
enum OpenClaim {
    /// Neither side has finished.
    Pending,
    /// The budget thread opened this session before the caller gave up.
    Opened(SessionId),
    /// The caller gave up; the budget thread closes what it opens.
    Abandoned,
}

fn execute_open(
    shared: &Arc<Shared>,
    shard_idx: usize,
    id: Option<u64>,
    inst: Instance,
    opts: SolverOptions,
    timeout: Option<Duration>,
    include_schedule: bool,
) -> Response {
    sweep_sessions(shared);
    let start = Instant::now();
    // A budget thread runs on after a timeout and still opens its engine
    // session. Whichever of it and this caller takes the claim second
    // closes that orphan, so exactly one does.
    let claim = Arc::new(Mutex::new(OpenClaim::Pending));
    let worker_claim = Arc::clone(&claim);
    let opened = within(shared, timeout, move |s| {
        let engine = &s.shards[shard_idx].engine;
        let session = engine.open_session(inst, &opts);
        let mut claim = worker_claim.lock().expect("open claim lock");
        if matches!(*claim, OpenClaim::Abandoned) {
            engine.close_session(session.id());
        } else {
            *claim = OpenClaim::Opened(session.id());
        }
        (session.id(), session.outcome())
    });
    if opened.is_err() {
        let mut claim = claim.lock().expect("open claim lock");
        if let OpenClaim::Opened(orphan) = *claim {
            shared.shards[shard_idx].engine.close_session(orphan);
        }
        *claim = OpenClaim::Abandoned;
    }
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    match opened {
        Ok((engine_id, outcome)) => {
            // Engine session ids are shard-local: allocate the
            // wire-visible id here, where uniqueness is global.
            let wire = shared.next_session.fetch_add(1, Ordering::SeqCst) + 1;
            shared.sessions.lock().expect("sessions lock").insert(
                wire,
                SessionEntry { shard: shard_idx, engine: engine_id, touched: Instant::now() },
            );
            shared.metrics.session_opened();
            session_outcome_response(
                id,
                verb::OPEN,
                wire,
                outcome,
                elapsed_ms,
                include_schedule,
                timeout,
            )
        }
        // The engine session a late budget thread opens is closed by
        // the claim handshake above; it never reaches the wire table.
        Err(Interrupt::TimedOut) => {
            deadline_response(id, verb::OPEN, timeout).with_version(PROTOCOL_VERSION)
        }
        Err(Interrupt::Panicked(msg)) => {
            Response::error(id, Some(verb::OPEN), kind::FAILED, msg).with_version(PROTOCOL_VERSION)
        }
    }
}

fn execute_amend(
    shared: &Arc<Shared>,
    id: Option<u64>,
    session: u64,
    delta: DeltaSpec,
    timeout: Option<Duration>,
    include_schedule: bool,
) -> Response {
    sweep_sessions(shared);
    let unknown = || {
        Response::error(
            id,
            Some(verb::AMEND),
            kind::UNKNOWN_SESSION,
            format!("session {session} is not open"),
        )
        .with_version(PROTOCOL_VERSION)
    };
    // Resolve the wire id to its owning shard. The reactor routed by
    // the table too, but this lookup is the authoritative one (the
    // entry may have expired or closed while the job sat queued).
    let entry = {
        let table = shared.sessions.lock().expect("sessions lock");
        table.get(&session).map(|e| (e.shard, e.engine))
    };
    let Some((shard, engine_id)) = entry else {
        return unknown();
    };
    let start = Instant::now();
    // `None` inside the budget result means the session vanished
    // between the table check and the engine lookup (a concurrent
    // `close` won the race) — that is "unknown session", not an error.
    let amended = within(shared, timeout, move |s| {
        s.shards[shard].engine.session(engine_id).map(|session| session.amend(&delta.to_delta()))
    });
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    match amended {
        Ok(None) => unknown(),
        Ok(Some(Ok(outcome))) => {
            if let Some(e) = shared.sessions.lock().expect("sessions lock").get_mut(&session) {
                e.touched = Instant::now();
            }
            session_outcome_response(
                id,
                verb::AMEND,
                session,
                outcome,
                elapsed_ms,
                include_schedule,
                timeout,
            )
        }
        // A bad delta leaves the session exactly as it was.
        Ok(Some(Err(delta_err))) => {
            Response::error(id, Some(verb::AMEND), kind::BAD_REQUEST, delta_err.to_string())
                .with_version(PROTOCOL_VERSION)
                .with_session(session)
        }
        Err(Interrupt::TimedOut) => {
            deadline_response(id, verb::AMEND, timeout).with_version(PROTOCOL_VERSION)
        }
        Err(Interrupt::Panicked(msg)) => {
            Response::error(id, Some(verb::AMEND), kind::FAILED, msg).with_version(PROTOCOL_VERSION)
        }
    }
}

pub(crate) fn deadline_response(
    id: Option<u64>,
    verb_name: &str,
    timeout: Option<Duration>,
) -> Response {
    let budget = timeout.map(|t| t.as_millis()).unwrap_or(0);
    Response::error(
        id,
        Some(verb_name),
        kind::TIMED_OUT,
        format!("request exceeded its {budget} ms deadline"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_bad_shapes() {
        let err = validate(&Request::new(verb::SOLVE), None).unwrap_err();
        assert!(err.contains("instance"), "{err}");

        let bad = Request {
            instance: Some(Instance { g: 0, jobs: Vec::new() }),
            ..Request::new(verb::SOLVE)
        };
        let err = validate(&bad, None).unwrap_err();
        assert!(err.contains("invalid instance"), "{err}");

        let inst = Instance::new(2, vec![atsched_core::instance::Job::new(0, 4, 2)]).unwrap();
        let err = validate(&Request::solve(&inst).with_method("fancy"), None).unwrap_err();
        assert!(err.contains("unknown method"), "{err}");
        let err = validate(&Request::solve(&inst).with_shard("maybe"), None).unwrap_err();
        assert!(err.contains("unknown shard mode"), "{err}");

        // Defaults flow through.
        match validate(&Request::solve(&inst), Some(Duration::from_secs(1))).unwrap() {
            Work::Solve { timeout, method, include_schedule, opts, .. } => {
                assert_eq!(timeout, Some(Duration::from_secs(1)));
                assert_eq!(method, Method::Auto);
                assert!(!include_schedule);
                assert_eq!(opts.shard, atsched_core::solver::ShardMode::Auto);
                assert_eq!(opts.lp, LpStrategy::Certified);
            }
            _ => panic!("expected solve work"),
        }

        // Explicit shard modes parse onto the options.
        match validate(&Request::solve(&inst).with_shard("force"), None).unwrap() {
            Work::Solve { opts, .. } => {
                assert_eq!(opts.shard, atsched_core::solver::ShardMode::Force);
            }
            _ => panic!("expected solve work"),
        }

        // The legacy `backend` / `precision` / `lp_path` fields map onto
        // one LP strategy (DESIGN §15.3); no new wire field. Rows list
        // the three fields in that order, "" for an absent one.
        let lp = |fields: [&str; 3]| {
            let [backend, precision, lp_path] = fields.map(|v| (!v.is_empty()).then(|| v.into()));
            let req = Request { backend, precision, lp_path, ..Request::solve(&inst) };
            validate(&req, None).map(|work| match work {
                Work::Solve { opts, .. } => opts.lp,
                _ => panic!("expected solve work"),
            })
        };
        use LpStrategy::{Certified, Exact, Float};
        for (fields, want) in [
            (["", "", ""], Certified),
            (["exact", "", ""], Certified),
            (["", "hybrid", ""], Certified),
            (["", "", "auto"], Certified),
            (["", "", "simplex"], Certified),
            (["exact", "hybrid", "auto"], Certified),
            (["snap", "", ""], Certified),
            (["", "f64-unchecked", ""], Certified),
            (["", "exact", ""], Exact),
            (["exact", "exact", "simplex"], Exact),
            (["snap", "exact", ""], Exact),
            (["float", "", ""], Float),
        ] {
            assert_eq!(lp(fields), Ok(want), "{fields:?}");
        }
        // Impossible or unknown combinations are typed bad requests.
        for (fields, needle) in [
            (["", "", "tree"], "lp_path=tree"),
            (["exact", "exact", "tree"], "lp_path=tree"),
            (["float", "exact", ""], "backend=float"),
            (["float", "", "simplex"], "backend=float"),
            (["gpu", "", ""], "unknown backend"),
            (["", "float", ""], "unknown precision mode"),
            (["", "", "dp"], "unknown lp path"),
        ] {
            let err = lp(fields).unwrap_err();
            assert!(err.contains(needle), "{fields:?}: {err}");
        }
    }

    #[test]
    fn work_shares_split_evenly_with_a_floor() {
        assert_eq!((0..3).map(|i| share(7, 3, i)).collect::<Vec<_>>(), vec![3, 2, 2]);
        assert_eq!((0..4).map(|i| share(8, 4, i)).collect::<Vec<_>>(), vec![2, 2, 2, 2]);
        assert_eq!((0..4).map(|i| share(1, 4, i)).sum::<usize>(), 1);
    }

    /// A payload whose serialization always fails, standing in for a
    /// response the encoder cannot represent. (A real [`Response`]
    /// never fails with the vendored writer, so the regression test
    /// injects the failure at the trait boundary `encode_frame` uses.)
    struct Unserializable;

    impl serde::ser::Serialize for Unserializable {
        fn serialize<S: serde::ser::Serializer>(&self, _serializer: S) -> Result<S::Ok, S::Error> {
            Err(serde::ser::Error::custom("injected serialization failure"))
        }
    }

    #[test]
    fn serialization_failure_sends_fallback_frame_instead_of_panicking() {
        let metrics = ServerMetrics::default();

        // Healthy path: no fallback, no counter movement.
        let ok = Response::ok(Some(3), verb::HEALTH);
        let line = encode_frame(&ok, &metrics);
        assert!(line.ends_with('\n'));
        assert!(line.contains("\"ok\""));
        assert_eq!(metrics.registry().counter("serve.serialize_errors").get(), 0);

        // Failure path: the static fallback frame goes out and the
        // failure is counted — previously this was an `expect` panic
        // that took the whole connection handler down.
        let line = encode_frame(&Unserializable, &metrics);
        assert!(line.ends_with('\n'), "frames stay newline-terminated: {line:?}");
        assert_eq!(metrics.registry().counter("serve.serialize_errors").get(), 1);

        // The fallback frame is itself a well-formed error Response.
        let back: Response = serde_json::from_str(line.trim_end()).unwrap();
        assert_eq!(back.status, "error");
        assert_eq!(back.id, None);
        let err = back.error.expect("fallback carries an error payload");
        assert_eq!(err.kind, kind::INTERNAL);
        assert!(err.message.contains("serialization"));
    }
}
