//! The four workloads: their inputs, set-up, and measured phase.
//!
//! Serve workloads run an in-process server (1 reactor, [`WORKERS`]
//! solver workers) and drive it from [`CLIENTS`] blocking connections,
//! one generator thread each, in the same process. The protocol has no
//! pipelining (DESIGN.md §8.1), so at most [`CLIENTS`] requests are in
//! flight. Both are sized to the 2-core machine the bounds in
//! `BENCHMARK.json` were measured on.
//!
//! Every workload is a closed loop: each connection sends its next
//! request as soon as it has checked the previous reply, and latency is
//! the round trip. On that machine, whose speed drifts with its
//! neighbours' load, open loops at 800–4000 req/s left the cores idle
//! between requests and paid the host's wake-up delays: their p99 moved
//! by 0.42–0.49 (IQR / median) from run to run, beyond any bound. The
//! closed loops' p50, p99 and goodput moved by 0.05–0.12.

use crate::inputs::{self, Answer, FreshTrees, Stream, TreeReferences, Zipf};
use crate::stats::Samples;
use crate::trace::{SpanRec, Spans};
use atsched_core::decompose::decompose;
use atsched_core::delta::apply;
use atsched_core::instance::Instance;
use atsched_core::schedule::Schedule;
use atsched_core::solver::SolverOptions;
use atsched_engine::{Engine, EngineConfig, Outcome};
use atsched_serve::{
    kind, Client, ClientError, DeltaSpec, Request, Response, Server, ServerConfig, ServerHandle,
    SolveReply,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Client connections, one generator thread each.
pub const CLIENTS: usize = 2;
/// Solver workers of the in-process server and of the batch engine.
pub const WORKERS: usize = 2;
/// Every `SAMPLE_EVERY`-th op's answer is compared with an in-process
/// reference solve (after the measured phase).
pub const SAMPLE_EVERY: u64 = 16;
/// A traced serve phase sends one `health` probe per this many ops.
pub const HEALTH_EVERY: u64 = 50;
/// Instances per `batch-roots` batch.
pub const BATCH: usize = 8;
/// Most instances a traced run replays in-process per layer.
pub const REPLAY_MAX: usize = 1024;
/// Most multi-root instances timed through decompose/merge.
pub const FOREST_REPLAY_MAX: usize = 64;
/// Most batches replayed for the engine's parallel efficiency.
pub const BATCH_REPLAY_MAX: usize = 8;
/// Latencies a generator's lane has room for before it grows. Growing
/// copies the vector and briefly doubles its resident size, so the peak
/// RSS would follow how many ops the host's speed allowed; untouched
/// capacity costs no resident memory.
const OPS_RESERVED: usize = 1 << 21;

/// A workload: one traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop cold solves of distinct single-root instances.
    SolveCold,
    /// Closed-loop Zipf-distributed solves of a small pre-solved pool.
    SolveHot,
    /// Closed-loop session amends on 32-root instances.
    Amend,
    /// Closed-loop in-process batches of 32-root instances.
    BatchRoots,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] =
        [Workload::SolveCold, Workload::SolveHot, Workload::Amend, Workload::BatchRoots];

    /// Command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveCold => "solve-cold",
            Workload::SolveHot => "solve-hot",
            Workload::Amend => "amend",
            Workload::BatchRoots => "batch-roots",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Latency limit an op must meet to count towards goodput, ms.
    pub fn limit_ms(self) -> f64 {
        match self {
            Workload::SolveCold => 10.0,
            Workload::SolveHot => 2.0,
            Workload::Amend => 25.0,
            Workload::BatchRoots => 250.0,
        }
    }
}

/// Input sizes. [`Sizes::FULL`] is the benchmark; the smoke test runs a
/// scaled-down copy that a debug build can finish in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `solve-cold` warm-up solves during set-up.
    pub cold_warmup: usize,
    /// `solve-hot` pool size.
    pub hot_pool: usize,
    /// `amend` sessions per client. Each amend re-solves one tree, so the
    /// amend p99 is set by a seed's hardest trees; 2 × 32 sessions of 32
    /// trees put 2048 trees behind it rather than 1024.
    pub sessions_per_client: usize,
    /// Kernel calls timed per core at each host-speed point (`calib.rs`);
    /// the median is taken.
    pub calib_calls: usize,
    /// `batch-roots` pool size (a multiple of [`BATCH`]). Each run's p99
    /// is a statement about the pool's slowest instances, so the pool
    /// is large enough that this is a property of the generator, not of
    /// the few instances one seed happens to draw.
    pub batch_pool: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const FULL: Sizes = Sizes {
        cold_warmup: 64,
        hot_pool: 32,
        sessions_per_client: 32,
        calib_calls: 11,
        batch_pool: 256,
    };
}

/// A deferred reference check.
#[derive(Debug)]
pub struct Pending {
    /// What was solved (for a session, its instance at the reply);
    /// shared with the pool on `solve-hot`, so a sample costs no copy.
    pub inst: Arc<Instance>,
    /// What the program answered.
    pub got: Answer,
    /// The op's place in [`Phase::lanes`] (lane, index), when it is one.
    pub op: Option<(usize, usize)>,
}

/// One session's amend stream over a traced phase, replayed in-process.
#[derive(Debug, Clone)]
pub struct History {
    /// The session's instance when the stream starts.
    pub initial: Instance,
    /// The amends applied to it, in order.
    pub deltas: Vec<DeltaSpec>,
}

/// Everything one measured phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency limit of the workload, ms.
    pub limit_ms: f64,
    /// Ops attempted (reopens included).
    pub attempted: u64,
    /// Ops refused, timed out, or failed (typed errors, transport).
    pub failed: u64,
    /// Ops whose output was wrong.
    pub incorrect: u64,
    /// Failure and mismatch reasons with their counts.
    pub problems: BTreeMap<String, u64>,
    /// Latency of every completed op of the workload's own kind, ms, one
    /// lane per generator, each in the order its ops completed.
    lanes: Vec<Vec<f64>>,
    /// Completed ops within the latency limit whose answer a deferred
    /// check found wrong.
    pub disqualified: usize,
    /// Wall time of the measured phase, s: from its start until every
    /// generator finished (summed over the segments of an extended phase).
    pub wall_s: f64,
    /// Request round trips, ms (traced phases).
    pub rtt: Samples,
    /// Round trip minus the reply's server-side `elapsed_ms`, ms.
    pub overhead: Samples,
    /// Engine-side solve time (reply `elapsed_ms`, or a batch item's
    /// `elapsed`), ms.
    pub solve: Samples,
    /// `health` probe round trips, ms.
    pub health: Samples,
    /// Server cache hits and misses over the phase (traced serve runs).
    pub cache: Option<(u64, u64)>,
    /// Deferred reference checks.
    pub pending: Vec<Pending>,
    /// Recorded spans (traced runs).
    pub spans: Vec<SpanRec>,
    /// Instances sent in a traced phase, up to [`REPLAY_MAX`] per
    /// connection (`solve-cold`, `solve-hot`).
    pub sent: Vec<Arc<Instance>>,
    /// Session amend streams (`amend`, traced).
    pub histories: Vec<History>,
    /// Pool offset of every batch sent (`batch-roots`).
    pub batches: Vec<usize>,
}

impl Phase {
    /// A phase that gathers its generators' phases.
    fn new(limit_ms: f64) -> Phase {
        Phase { limit_ms, ..Phase::default() }
    }

    /// One generator's phase: a single lane.
    fn generator(limit_ms: f64) -> Phase {
        Phase { lanes: vec![Vec::with_capacity(OPS_RESERVED)], ..Phase::new(limit_ms) }
    }

    fn fail(&mut self, why: &str) {
        self.failed += 1;
        *self.problems.entry(format!("failed: {why}")).or_default() += 1;
    }

    fn wrong(&mut self, why: &str) {
        self.incorrect += 1;
        *self.problems.entry(format!("incorrect: {why}")).or_default() += 1;
    }

    /// Record a completed op of a generator's phase; returns its place
    /// for a deferred check.
    fn done(&mut self, latency_ms: f64) -> (usize, usize) {
        let lane = self.lanes.first_mut().expect("ops are recorded in a generator's phase");
        lane.push(latency_ms);
        (0, lane.len() - 1)
    }

    /// Latencies of the completed ops, ms.
    pub fn latency(&self) -> Samples {
        Samples::from(self.lanes.concat())
    }

    /// Each generator's latencies, in the order its ops completed.
    pub fn lanes(&self) -> Vec<&[f64]> {
        self.lanes.iter().map(Vec::as_slice).collect()
    }

    /// Ops that completed, were verified correct and met the latency
    /// limit, per second of the phase's wall time.
    pub fn goodput(&self) -> f64 {
        let within = self.lanes.iter().flatten().filter(|&&v| v <= self.limit_ms).count();
        if self.wall_s > 0.0 {
            (within - self.disqualified) as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Record the server-side split of one round trip.
    fn split(&mut self, rtt_ms: f64, reply: &SolveReply) {
        self.rtt.push(rtt_ms);
        self.solve.push(reply.elapsed_ms);
        self.overhead.push(rtt_ms - reply.elapsed_ms);
    }

    /// Check an answer against its reference; a mismatch is incorrect,
    /// and op `op` (if any) no longer counts towards goodput.
    fn settle(
        &mut self,
        got: Answer,
        op: Option<(usize, usize)>,
        expected: Result<Answer, String>,
    ) {
        let verdict = match expected {
            Ok(answer) if answer == got => return,
            Ok(answer) => format!("answered {got:?}, reference {answer:?}"),
            Err(e) => e,
        };
        self.wrong(&verdict);
        if op.is_some_and(|(lane, i)| self.lanes[lane][i] <= self.limit_ms) {
            self.disqualified += 1;
        }
    }

    /// Fold a generator thread's share into this phase, as lanes of
    /// their own.
    fn absorb(&mut self, other: Phase) {
        self.fold(other, self.lanes.len());
    }

    /// Continue this phase with `later`, a phase of the same generators
    /// measured after it: each generator's ops continue its own lane.
    pub fn extend(&mut self, later: Phase) {
        self.wall_s += later.wall_s;
        self.fold(later, 0);
    }

    /// Add `other`'s ops and records, its lane `i` continuing lane
    /// `first_lane + i` of this phase.
    fn fold(&mut self, other: Phase, first_lane: usize) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.incorrect += other.incorrect;
        for (k, v) in other.problems {
            *self.problems.entry(k).or_default() += v;
        }
        let mut offsets = Vec::new();
        for (i, lane) in other.lanes.into_iter().enumerate() {
            if first_lane + i == self.lanes.len() {
                self.lanes.push(Vec::new());
            }
            let into = &mut self.lanes[first_lane + i];
            offsets.push(into.len());
            if into.is_empty() {
                *into = lane;
            } else {
                into.extend(lane);
            }
        }
        self.disqualified += other.disqualified;
        self.pending.extend(other.pending.into_iter().map(|p| Pending {
            op: p.op.map(|(lane, i)| (first_lane + lane, offsets[lane] + i)),
            ..p
        }));
        self.rtt.merge(other.rtt);
        self.overhead.merge(other.overhead);
        self.solve.merge(other.solve);
        self.health.merge(other.health);
        self.spans.extend(other.spans);
        self.sent.extend(other.sent);
        self.histories.extend(other.histories);
        self.batches.extend(other.batches);
    }
}

/// What the traced run replays in-process, per layer.
#[derive(Debug, Default)]
pub struct ReplaySet {
    /// Single-tree instances the workload's solves ran `solve_nested` on.
    pub trees: Vec<Instance>,
    /// Multi-root instances the shard layer split and merged.
    pub forests: Vec<Instance>,
    /// Forest roots per request instance, averaged over requests.
    pub shards_per_instance: f64,
    /// Session amend streams (`amend`).
    pub histories: Vec<History>,
    /// Batches sent (`batch-roots`).
    pub batches: Vec<Vec<Instance>>,
}

/// A workload's system under test and load generator.
pub trait Harness {
    /// Start the system and warm it (server start to first healthy
    /// reply, plus the workload's warm-up); timed as set-up.
    fn setup(&mut self) -> Result<(), String>;
    /// Run one measured phase of `seconds`. With `origin`, record spans
    /// timed from it and probe the layers.
    fn measure(&mut self, seconds: f64, origin: Option<Instant>) -> Phase;
    /// Stop the system (server drain).
    fn teardown(&mut self) -> Result<(), String>;
    /// Check the set-up replies and resolve `phase`'s deferred checks.
    fn resolve(&mut self, phase: &mut Phase);
    /// What a traced run replays from `phase`.
    fn replay_set(&self, phase: &Phase) -> ReplaySet;
}

/// The harness for `workload` on `seed`.
pub fn harness(workload: Workload, seed: u64, sizes: Sizes) -> Box<dyn Harness> {
    match workload {
        Workload::SolveCold | Workload::SolveHot => Box::new(SolveLoop::new(workload, seed, sizes)),
        Workload::Amend => Box::new(AmendLoop::new(seed, sizes)),
        Workload::BatchRoots => Box::new(BatchLoop::new(seed, sizes)),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A reply to a `solve` / `open` / `amend`, classified.
enum Reply {
    Solved(SolveReply),
    Infeasible,
    /// Typed error or transport failure; `true` when the connection is
    /// unusable afterwards.
    Failed(String, bool),
    /// A reply that breaks the protocol contract.
    Malformed(String),
}

fn classify(res: Result<Response, ClientError>) -> Reply {
    let resp = match res {
        Ok(resp) => resp,
        Err(ClientError::Timeout) => return Reply::Failed("client timeout".into(), true),
        Err(ClientError::Io(e)) => return Reply::Failed(format!("io: {}", e.kind()), true),
        Err(ClientError::Protocol(m)) => return Reply::Failed(format!("protocol: {m}"), true),
        Err(ClientError::Service { kind, .. }) => return Reply::Failed(kind, false),
    };
    match (resp.error, resp.solve) {
        (Some(err), _) if err.kind == kind::INFEASIBLE => Reply::Infeasible,
        (Some(err), _) => Reply::Failed(err.kind, false),
        (None, Some(reply)) => Reply::Solved(reply),
        (None, None) => Reply::Malformed("ok reply without a solve payload".into()),
    }
}

/// Check a reply's schedule against the instance the request meant;
/// returns its active slots.
fn check_schedule(
    inst: &Instance,
    schedule: Option<&Schedule>,
    active: u64,
) -> Result<usize, String> {
    let schedule = schedule.ok_or("reply carries no schedule")?;
    schedule.verify(inst).map_err(|e| format!("schedule fails verification: {e}"))?;
    let counted = schedule.active_time();
    if counted as u64 != active {
        return Err(format!("active_slots {active} disagrees with its schedule ({counted})"));
    }
    Ok(counted)
}

/// An in-process server plus its control connection.
struct ServeRig {
    handle: ServerHandle,
    control: Client,
}

impl ServeRig {
    /// Start a server and wait for its first healthy reply.
    fn start() -> Result<ServeRig, String> {
        let cfg = ServerConfig::default().addr("127.0.0.1:0").workers(WORKERS).router_workers(1);
        let handle = Server::bind(cfg).map_err(|e| format!("server bind: {e}"))?.spawn();
        let mut control =
            Client::connect(handle.addr()).map_err(|e| format!("control connect: {e}"))?;
        control
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| format!("control socket: {e}"))?;
        control.health().map_err(|e| format!("first health probe: {e}"))?;
        Ok(ServeRig { handle, control })
    }

    fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    fn cache(&mut self) -> Option<(u64, u64)> {
        self.control.stats().ok().map(|s| (s.cache_hits, s.cache_misses))
    }

    /// Drain the server and wait for it to exit.
    fn stop(mut self) -> Result<(), String> {
        self.control.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        self.handle.join().map(|_| ()).map_err(|e| format!("server exit: {e}"))
    }
}

fn connect(addr: SocketAddr) -> Option<Client> {
    let mut client = Client::connect(addr).ok()?;
    // A safety net against a hung server, far above any latency limit.
    client.set_read_timeout(Some(Duration::from_secs(30))).ok()?;
    Some(client)
}

// ---------------------------------------------------------------------
// solve-cold / solve-hot: closed loop of solves over the wire
// ---------------------------------------------------------------------

/// Where one connection's solve requests come from.
enum Source {
    /// Instances never sent before (`solve-cold`).
    Fresh(FreshTrees),
    /// Zipf draws over the instances solved during set-up (`solve-hot`).
    Pool(StdRng),
}

impl Source {
    fn next(&mut self, pool: &[Arc<Instance>], zipf: &Zipf) -> Arc<Instance> {
        match self {
            Source::Fresh(fresh) => Arc::new(fresh.next_tree()),
            Source::Pool(rng) => Arc::clone(&pool[zipf.sample(rng)]),
        }
    }
}

struct SolveLoop {
    workload: Workload,
    /// Instances solved during set-up: the warm-up on `solve-cold`, on
    /// `solve-hot` the pool every request draws from.
    warm: Vec<Arc<Instance>>,
    zipf: Zipf,
    /// One per connection, kept across phases so that a traced run's
    /// second phase continues the streams of its first.
    sources: Vec<Source>,
    /// Ops sent so far; op ids of the next phase start here.
    sent: u64,
    rig: Option<ServeRig>,
    /// Set-up replies awaiting their checks, by index into `warm`.
    setup_replies: Vec<(usize, Reply)>,
    refs: TreeReferences,
}

impl SolveLoop {
    fn new(workload: Workload, seed: u64, sizes: Sizes) -> SolveLoop {
        let (warm, sources) = if workload == Workload::SolveCold {
            let warm = inputs::distinct_trees(inputs::SETUP_SEED, Stream::Warm, sizes.cold_warmup);
            let sources = (0..CLIENTS)
                .map(|lane| Source::Fresh(FreshTrees::new(seed, lane, CLIENTS, &warm)))
                .collect();
            (warm, sources)
        } else {
            // The pool is solved at set-up; the seed picks the draws.
            let pool = inputs::distinct_trees(inputs::SETUP_SEED, Stream::Hot, sizes.hot_pool);
            let sources = (0..CLIENTS as u64)
                .map(|lane| {
                    Source::Pool(StdRng::seed_from_u64(inputs::derive_seed(
                        seed,
                        Stream::Zipf,
                        lane,
                    )))
                })
                .collect();
            (pool, sources)
        };
        SolveLoop {
            workload,
            zipf: Zipf::new(warm.len(), 1.1),
            warm: warm.into_iter().map(Arc::new).collect(),
            sources,
            sent: 0,
            rig: None,
            setup_replies: Vec::new(),
            refs: TreeReferences::default(),
        }
    }
}

impl Harness for SolveLoop {
    fn setup(&mut self) -> Result<(), String> {
        let mut rig = ServeRig::start()?;
        self.setup_replies.clear();
        for (index, inst) in self.warm.iter().enumerate() {
            let req = Request::solve(inst).with_schedule();
            self.setup_replies.push((index, classify(rig.control.request(req))));
        }
        self.rig = Some(rig);
        Ok(())
    }

    fn measure(&mut self, seconds: f64, origin: Option<Instant>) -> Phase {
        let rig = self.rig.as_mut().expect("measure after setup");
        let addr = rig.addr();
        let cache_before = origin.and_then(|_| rig.cache());
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(seconds);
        let (pool, zipf, limit_ms) = (&self.warm, &self.zipf, self.workload.limit_ms());
        let first_op = self.sent;
        let mut phase = Phase::new(limit_ms);
        thread::scope(|s| {
            let lanes: Vec<_> = self
                .sources
                .iter_mut()
                .enumerate()
                .map(|(lane, source)| {
                    s.spawn(move || {
                        let op_base = (lane as u64) << 40 | first_op;
                        let conn = SolveConn { addr, end, pool, zipf, limit_ms, op_base };
                        conn.run(source, lane, origin)
                    })
                })
                .collect();
            for lane in lanes {
                phase.absorb(lane.join().expect("generator thread panicked"));
            }
        });
        phase.wall_s = start.elapsed().as_secs_f64();
        self.sent += phase.attempted;
        if origin.is_some() {
            let rig = self.rig.as_mut().expect("rig still up");
            phase.cache = cache_before.zip(rig.cache()).map(|(b, a)| (a.0 - b.0, a.1 - b.1));
        }
        phase
    }

    fn teardown(&mut self) -> Result<(), String> {
        self.rig.take().map_or(Ok(()), ServeRig::stop)
    }

    fn resolve(&mut self, phase: &mut Phase) {
        for (index, reply) in std::mem::take(&mut self.setup_replies) {
            let inst = &self.warm[index];
            let got = match reply {
                Reply::Solved(r) => {
                    check_schedule(inst, r.schedule.as_ref(), r.active_slots).map(Answer::Slots)
                }
                Reply::Infeasible => Ok(Answer::Infeasible),
                Reply::Failed(why, _) | Reply::Malformed(why) => Err(why),
            };
            match got {
                Ok(got) => phase.settle(got, None, self.refs.answer(inst)),
                Err(why) => phase.wrong(&format!("set-up: {why}")),
            }
        }
        for pending in std::mem::take(&mut phase.pending) {
            let expected = self.refs.answer(&pending.inst);
            phase.settle(pending.got, pending.op, expected);
        }
    }

    fn replay_set(&self, phase: &Phase) -> ReplaySet {
        let trees: Vec<Instance> =
            phase.sent.iter().take(REPLAY_MAX).map(|t| (**t).clone()).collect();
        let roots: usize = trees.iter().map(|t| decompose(t).map_or(0, |d| d.len())).sum();
        ReplaySet {
            shards_per_instance: roots as f64 / trees.len().max(1) as f64,
            trees,
            ..ReplaySet::default()
        }
    }
}

/// One closed-loop solve client: sends a request as soon as it has
/// checked the previous reply, until `end`.
struct SolveConn<'a> {
    addr: SocketAddr,
    end: Instant,
    pool: &'a [Arc<Instance>],
    zipf: &'a Zipf,
    limit_ms: f64,
    op_base: u64,
}

impl SolveConn<'_> {
    /// Returns the lane's share of the phase.
    fn run(&self, source: &mut Source, lane: usize, origin: Option<Instant>) -> Phase {
        let mut ph = Phase::generator(self.limit_ms);
        let mut spans = Spans::new(origin, lane as u64);
        let mut client = connect(self.addr);
        let mut op = self.op_base;
        while Instant::now() < self.end {
            // Made before the round trip starts, so not part of it.
            let inst = source.next(self.pool, self.zipf);
            op += 1;
            ph.attempted += 1;
            if client.is_none() {
                client = connect(self.addr);
            }
            let Some(c) = client.as_mut() else {
                ph.fail("connect");
                continue;
            };
            let send = Instant::now();
            let reply = classify(c.request(Request::solve(&inst).with_schedule()));
            let recv = Instant::now();
            let rtt = ms(recv - send);
            let got = match reply {
                Reply::Solved(r) => {
                    if spans.on() {
                        ph.split(rtt, &r);
                    }
                    check_schedule(&inst, r.schedule.as_ref(), r.active_slots).map(Answer::Slots)
                }
                Reply::Infeasible => Ok(Answer::Infeasible),
                Reply::Failed(why, broken) => {
                    ph.fail(&why);
                    if broken {
                        client = None;
                    }
                    continue;
                }
                Reply::Malformed(why) => Err(why),
            };
            match got {
                Ok(got) => {
                    let index = ph.done(rtt);
                    // Every instance is feasible: an infeasible answer is
                    // always checked against the reference.
                    if got == Answer::Infeasible || op.is_multiple_of(SAMPLE_EVERY) {
                        ph.pending.push(Pending { inst: Arc::clone(&inst), got, op: Some(index) });
                    }
                }
                Err(why) => ph.wrong(&why),
            }
            if spans.on() {
                spans.record("serve.rtt", op, send, recv);
                spans.record("client.verify", op, recv, Instant::now());
                if ph.sent.len() < REPLAY_MAX {
                    ph.sent.push(inst);
                }
                if op.is_multiple_of(HEALTH_EVERY) {
                    if let Some(c) = client.as_mut() {
                        let probe = Instant::now();
                        if c.health().is_ok() {
                            let end = Instant::now();
                            ph.health.push(ms(end - probe));
                            spans.record("serve.health", op, probe, end);
                        }
                    }
                }
            }
        }
        ph.spans = spans.spans;
        ph
    }
}

// ---------------------------------------------------------------------
// amend: closed loop of session amends over the wire
// ---------------------------------------------------------------------

/// One wire session a client owns.
struct Slot {
    /// Global slot number (client-major).
    index: u64,
    /// Instances this slot has opened so far.
    generation: u64,
    /// Server session id.
    id: u64,
    /// The client's mirror of the session's instance.
    mirror: Instance,
    /// Draws the job each amend widens.
    rng: StdRng,
    /// Amend stream since the traced phase began.
    history: Option<History>,
}

struct AmendLoop {
    seed: u64,
    sizes: Sizes,
    rig: Option<ServeRig>,
    slots: Vec<Vec<Slot>>,
    /// Set-up opens awaiting their checks.
    setup_replies: Vec<(Instance, Reply)>,
    refs: TreeReferences,
    amends: u64,
}

/// Generation `generation` of slot `index`: its instance and widen rng.
fn slot_inputs(seed: u64, index: u64, generation: u64) -> (Instance, StdRng) {
    let draw = index << 32 | generation;
    let rng = StdRng::seed_from_u64(inputs::derive_seed(seed, Stream::Widen, draw));
    (inputs::forest(seed, Stream::Session, draw), rng)
}

/// Open generation `generation` of slot `index`; returns the open's
/// reply with the slot when the server accepted it.
fn open_slot(
    client: &mut Client,
    seed: u64,
    index: u64,
    generation: u64,
) -> (Reply, Instance, Option<Slot>) {
    let (inst, rng) = slot_inputs(seed, index, generation);
    let res = client.request(Request::open(&inst).with_schedule());
    let id = res.as_ref().ok().and_then(|r| r.session);
    let reply = classify(res);
    let slot = match (&reply, id) {
        (Reply::Solved(_), Some(id)) => {
            Some(Slot { index, generation, id, mirror: inst.clone(), rng, history: None })
        }
        _ => None,
    };
    (reply, inst, slot)
}

impl AmendLoop {
    fn new(seed: u64, sizes: Sizes) -> AmendLoop {
        AmendLoop {
            seed,
            sizes,
            rig: None,
            slots: Vec::new(),
            setup_replies: Vec::new(),
            refs: TreeReferences::default(),
            amends: 0,
        }
    }

    fn check_open(&mut self, inst: &Instance, reply: &Reply, phase: &mut Phase) {
        let got = match reply {
            Reply::Solved(r) => match check_schedule(inst, r.schedule.as_ref(), r.active_slots) {
                Ok(slots) => Answer::Slots(slots),
                Err(why) => return phase.wrong(&format!("open: {why}")),
            },
            Reply::Infeasible => Answer::Infeasible,
            Reply::Failed(why, _) | Reply::Malformed(why) => {
                return phase.wrong(&format!("open: {why}"))
            }
        };
        phase.settle(got, None, self.refs.answer(inst));
    }
}

impl Harness for AmendLoop {
    fn setup(&mut self) -> Result<(), String> {
        let rig = ServeRig::start()?;
        let (addr, seed, per_client) = (rig.addr(), self.seed, self.sizes.sessions_per_client);
        let opened: Vec<Result<_, String>> = thread::scope(|s| {
            let lanes: Vec<_> = (0..CLIENTS)
                .map(|lane| {
                    s.spawn(move || {
                        let mut client = connect(addr).ok_or("session client connect")?;
                        let mut slots = Vec::new();
                        let mut replies = Vec::new();
                        for k in 0..per_client {
                            let index = (lane * per_client + k) as u64;
                            let (reply, inst, slot) = open_slot(&mut client, seed, index, 0);
                            slots.push(slot.ok_or_else(|| format!("opening session {index}"))?);
                            replies.push((inst, reply));
                        }
                        Ok((slots, replies))
                    })
                })
                .collect();
            lanes.into_iter().map(|l| l.join().expect("session opener panicked")).collect()
        });
        self.slots.clear();
        self.setup_replies.clear();
        for lane in opened {
            let (slots, replies) = lane?;
            self.slots.push(slots);
            self.setup_replies.extend(replies);
        }
        self.rig = Some(rig);
        Ok(())
    }

    fn measure(&mut self, seconds: f64, origin: Option<Instant>) -> Phase {
        let rig = self.rig.as_ref().expect("measure after setup");
        let (addr, seed, limit_ms) = (rig.addr(), self.seed, Workload::Amend.limit_ms());
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(seconds);
        let first_amend = self.amends;
        let mut phase = Phase::new(limit_ms);
        thread::scope(|s| {
            let lanes: Vec<_> = self
                .slots
                .iter_mut()
                .enumerate()
                .map(|(lane, slots)| {
                    s.spawn(move || {
                        let mut conn = AmendConn {
                            addr,
                            seed,
                            end,
                            spans: Spans::new(origin, lane as u64),
                            ph: Phase::generator(limit_ms),
                            client: connect(addr),
                            amends: 0,
                            op_base: (lane as u64) << 40 | first_amend,
                        };
                        conn.run(slots);
                        conn
                    })
                })
                .collect();
            for lane in lanes {
                let conn = lane.join().expect("amend client panicked");
                self.amends += conn.amends;
                let mut part = conn.ph;
                part.spans = conn.spans.spans;
                phase.absorb(part);
            }
        });
        phase.wall_s = start.elapsed().as_secs_f64();
        if origin.is_some() {
            for slot in self.slots.iter_mut().flatten() {
                phase.histories.extend(slot.history.take());
            }
        }
        phase
    }

    fn teardown(&mut self) -> Result<(), String> {
        self.slots.clear();
        self.rig.take().map_or(Ok(()), ServeRig::stop)
    }

    fn resolve(&mut self, phase: &mut Phase) {
        for (inst, reply) in std::mem::take(&mut self.setup_replies) {
            self.check_open(&inst, &reply, phase);
        }
        for pending in std::mem::take(&mut phase.pending) {
            let expected = self.refs.answer(&pending.inst);
            phase.settle(pending.got, pending.op, expected);
        }
    }

    fn replay_set(&self, phase: &Phase) -> ReplaySet {
        // The dirty shard of each amend: the tree holding the widened job.
        let mut trees = Vec::new();
        let mut forests = Vec::new();
        'streams: for h in &phase.histories {
            let mut inst = h.initial.clone();
            for spec in &h.deltas {
                inst = apply(&inst, &spec.to_delta()).expect("recorded deltas applied before");
                let job = spec.modify[0].job as usize;
                let dec = decompose(&inst).expect("session instances stay laminar");
                if let Some(shard) = dec.shards.iter().find(|s| s.jobs.contains(&job)) {
                    trees.push(shard.instance.clone());
                }
                if forests.len() < FOREST_REPLAY_MAX {
                    forests.push(inst.clone());
                }
                if trees.len() >= REPLAY_MAX {
                    break 'streams;
                }
            }
        }
        let roots: usize = forests.iter().map(|f| decompose(f).map_or(0, |d| d.len())).sum();
        ReplaySet {
            trees,
            shards_per_instance: roots as f64 / forests.len().max(1) as f64,
            forests,
            histories: phase.histories.clone(),
            ..ReplaySet::default()
        }
    }
}

/// One closed-loop amend client: round-robin over its sessions, each
/// amend sent as soon as the previous reply is checked.
struct AmendConn {
    addr: SocketAddr,
    seed: u64,
    end: Instant,
    spans: Spans,
    ph: Phase,
    client: Option<Client>,
    amends: u64,
    op_base: u64,
}

impl AmendConn {
    fn run(&mut self, slots: &mut [Slot]) {
        if self.spans.on() {
            for slot in slots.iter_mut() {
                slot.history = Some(History { initial: slot.mirror.clone(), deltas: Vec::new() });
            }
        }
        let mut turn = 0;
        while Instant::now() < self.end {
            let slot = &mut slots[turn % slots.len()];
            turn += 1;
            match inputs::next_widen(&slot.mirror, &mut slot.rng) {
                Some(spec) => self.amend(slot, spec),
                None => self.reopen(slot),
            }
        }
    }

    fn amend(&mut self, slot: &mut Slot, spec: DeltaSpec) {
        let op = self.op_base + self.amends;
        self.ph.attempted += 1;
        if self.client.is_none() {
            self.client = connect(self.addr);
        }
        let Some(client) = self.client.as_mut() else {
            self.ph.fail("connect");
            return;
        };
        let req = Request::amend(slot.id, &spec).with_schedule();
        let send = Instant::now();
        let reply = classify(client.request(req));
        let recv = Instant::now();
        let rtt = ms(recv - send);
        match reply {
            Reply::Solved(_) | Reply::Infeasible => {
                self.amends += 1;
                slot.mirror = apply(&slot.mirror, &spec.to_delta()).expect("widening deltas apply");
                let got = match &reply {
                    Reply::Solved(r) => {
                        if self.spans.on() {
                            self.ph.split(rtt, r);
                        }
                        check_schedule(&slot.mirror, r.schedule.as_ref(), r.active_slots)
                            .map(Answer::Slots)
                    }
                    _ => Ok(Answer::Infeasible),
                };
                match got {
                    Ok(got) => {
                        let op_index = self.ph.done(rtt);
                        if got == Answer::Infeasible || op.is_multiple_of(SAMPLE_EVERY) {
                            let inst = Arc::new(slot.mirror.clone());
                            self.ph.pending.push(Pending { inst, got, op: Some(op_index) });
                        }
                        if let Some(h) = slot.history.as_mut() {
                            h.deltas.push(spec);
                        }
                    }
                    Err(why) => {
                        self.ph.wrong(&why);
                        self.reopen(slot);
                    }
                }
            }
            Reply::Failed(why, broken) => {
                self.ph.fail(&why);
                if broken {
                    self.client = None;
                }
                // The server may or may not have applied the delta:
                // resynchronize on a fresh session.
                self.reopen(slot);
            }
            Reply::Malformed(why) => {
                self.ph.wrong(&why);
                self.reopen(slot);
            }
        }
        if self.spans.on() {
            let checked = Instant::now();
            self.spans.record("serve.rtt", op, send, recv);
            self.spans.record("client.verify", op, recv, checked);
        }
    }

    /// Close `slot`'s session and open its next instance; an op of its
    /// own kind, excluded from the amend percentiles.
    fn reopen(&mut self, slot: &mut Slot) {
        self.ph.attempted += 1;
        if self.client.is_none() {
            self.client = connect(self.addr);
        }
        let Some(client) = self.client.as_mut() else {
            self.ph.fail("connect");
            return;
        };
        // A failed close is harmless: the session is abandoned either
        // way and the server's TTL sweep reclaims it.
        let _ = client.close(slot.id);
        let (reply, inst, next) = open_slot(client, self.seed, slot.index, slot.generation + 1);
        let (Reply::Solved(r), Some(mut next)) = (&reply, next) else {
            match reply {
                Reply::Failed(why, broken) => {
                    self.ph.fail(&format!("reopen: {why}"));
                    if broken {
                        self.client = None;
                    }
                }
                Reply::Infeasible => self.ph.wrong("reopen: fresh instance answered infeasible"),
                Reply::Solved(_) | Reply::Malformed(_) => {
                    self.ph.wrong("reopen: open reply without a session id")
                }
            }
            return;
        };
        match check_schedule(&inst, r.schedule.as_ref(), r.active_slots) {
            Ok(slots) => {
                let inst = Arc::new(inst);
                self.ph.pending.push(Pending { inst, got: Answer::Slots(slots), op: None });
            }
            Err(why) => self.ph.wrong(&format!("reopen: {why}")),
        }
        if let Some(h) = slot.history.take() {
            self.ph.histories.push(h);
            next.history = Some(History { initial: next.mirror.clone(), deltas: Vec::new() });
        }
        *slot = next;
    }
}

// ---------------------------------------------------------------------
// batch-roots: closed loop of in-process batches
// ---------------------------------------------------------------------

struct BatchLoop {
    pool: Vec<Instance>,
    /// Reference answers of the sampled pool instances (every
    /// [`SAMPLE_EVERY`]-th).
    refs: Vec<Option<Result<Answer, String>>>,
    engine: Option<Engine>,
    cursor: usize,
    /// Set-up warm-up batch outcomes awaiting their checks.
    setup_outcomes: Vec<Outcome>,
}

impl BatchLoop {
    fn new(seed: u64, sizes: Sizes) -> BatchLoop {
        // The first batch is the set-up's warm-up batch.
        let pool: Vec<Instance> = (0..sizes.batch_pool as u64)
            .map(|i| {
                let from = if i < BATCH as u64 { inputs::SETUP_SEED } else { seed };
                inputs::forest(from, Stream::Batch, i)
            })
            .collect();
        // Computing the answers is preparation, not set-up.
        let mut trees = TreeReferences::default();
        let refs = (0..pool.len())
            .map(|i| (i as u64).is_multiple_of(SAMPLE_EVERY).then(|| trees.answer(&pool[i])))
            .collect();
        BatchLoop { pool, refs, engine: None, cursor: 0, setup_outcomes: Vec::new() }
    }

    /// Check one batch item; its latency is the item's own `elapsed`.
    fn check(&self, ph: &mut Phase, index: usize, outcome: &Outcome) {
        let expected = self.refs[index].clone();
        match outcome {
            Outcome::Solved(item) => {
                let schedule = &item.result.schedule;
                let slots = schedule.active_time() as u64;
                match check_schedule(&self.pool[index], Some(schedule), slots) {
                    Ok(slots) => {
                        let latency = ms(item.elapsed);
                        ph.solve.push(latency);
                        let op = ph.done(latency);
                        if let Some(expected) = expected {
                            ph.settle(Answer::Slots(slots), Some(op), expected);
                        }
                    }
                    Err(why) => ph.wrong(&why),
                }
            }
            // Pool instances are feasible by construction; an infeasible
            // answer is checked against the reference whether sampled
            // or not.
            Outcome::Infeasible => {
                let expected = match expected {
                    Some(e) => e,
                    None => TreeReferences::default().answer(&self.pool[index]),
                };
                ph.settle(Answer::Infeasible, None, expected)
            }
            Outcome::TimedOut => ph.fail("timed_out"),
            Outcome::Failed(why) => ph.fail(why),
        }
    }
}

impl Harness for BatchLoop {
    fn setup(&mut self) -> Result<(), String> {
        let engine = Engine::new(EngineConfig::default().cache(false).workers(WORKERS));
        let warm = engine.solve_batch(&self.pool[..BATCH], &SolverOptions::default());
        self.setup_outcomes = warm.outcomes;
        self.engine = Some(engine);
        self.cursor = 0;
        Ok(())
    }

    fn measure(&mut self, seconds: f64, origin: Option<Instant>) -> Phase {
        let mut ph = Phase::generator(Workload::BatchRoots.limit_ms());
        let mut spans = Spans::new(origin, 0);
        let opts = SolverOptions::default();
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(seconds);
        while Instant::now() < end {
            let offset = self.cursor % self.pool.len();
            self.cursor += BATCH;
            let engine = self.engine.as_ref().expect("measure after setup");
            let t = Instant::now();
            let result = engine.solve_batch(&self.pool[offset..offset + BATCH], &opts);
            let wall = t.elapsed();
            spans.record_dur("engine.batch", (self.cursor / BATCH) as u64, t, wall);
            ph.batches.push(offset);
            for (i, outcome) in result.outcomes.iter().enumerate() {
                ph.attempted += 1;
                self.check(&mut ph, offset + i, outcome);
            }
        }
        ph.wall_s = start.elapsed().as_secs_f64();
        ph.spans = spans.spans;
        ph
    }

    fn teardown(&mut self) -> Result<(), String> {
        self.engine = None;
        Ok(())
    }

    fn resolve(&mut self, phase: &mut Phase) {
        // Batch items are checked as they return; only the warm-up
        // batch is left.
        let mut warm = Phase::generator(f64::INFINITY);
        for (i, outcome) in std::mem::take(&mut self.setup_outcomes).iter().enumerate() {
            self.check(&mut warm, i, outcome);
        }
        for (why, count) in warm.problems {
            phase.incorrect += count;
            *phase.problems.entry(format!("set-up: {why}")).or_default() += count;
        }
    }

    fn replay_set(&self, phase: &Phase) -> ReplaySet {
        let mut trees = Vec::new();
        for inst in &self.pool {
            let dec = decompose(inst).expect("pool instances are laminar");
            trees.extend(dec.shards.into_iter().map(|s| s.instance));
            if trees.len() >= REPLAY_MAX {
                break;
            }
        }
        trees.truncate(REPLAY_MAX);
        let forests: Vec<Instance> = self.pool.iter().take(FOREST_REPLAY_MAX).cloned().collect();
        let roots: usize = forests.iter().map(|f| decompose(f).map_or(0, |d| d.len())).sum();
        let batches = phase
            .batches
            .iter()
            .take(BATCH_REPLAY_MAX)
            .map(|&offset| self.pool[offset..offset + BATCH].to_vec())
            .collect();
        ReplaySet {
            trees,
            shards_per_instance: roots as f64 / forests.len().max(1) as f64,
            forests,
            batches,
            ..ReplaySet::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_extended_phase_continues_each_generators_lane() {
        let inst = Arc::new(inputs::distinct_trees(1, Stream::Warm, 1).remove(0));
        // Two generators, three ops each; the middle op awaits a check.
        let segment = |base: f64| {
            let mut phase = Phase::new(f64::INFINITY);
            for g in 0..2 {
                let mut ph = Phase::generator(f64::INFINITY);
                for k in 0..3 {
                    let op = ph.done(base + (10 * g + k) as f64);
                    if k == 1 {
                        let got = Answer::Infeasible;
                        ph.pending.push(Pending { inst: Arc::clone(&inst), got, op: Some(op) });
                    }
                }
                phase.absorb(ph);
            }
            phase.wall_s = 1.0;
            phase
        };
        let mut phase = segment(0.0);
        phase.extend(segment(100.0));
        let lanes: Vec<&[f64]> =
            vec![&[0.0, 1.0, 2.0, 100.0, 101.0, 102.0], &[10.0, 11.0, 12.0, 110.0, 111.0, 112.0]];
        assert_eq!(phase.lanes(), lanes);
        let ops: Vec<_> = phase.pending.iter().map(|p| p.op.expect("an op")).collect();
        assert_eq!(ops, [(0, 1), (1, 1), (0, 4), (1, 4)]);
        assert_eq!(phase.wall_s, 2.0);
        // A wrong answer disqualifies the op it belongs to.
        phase.settle(Answer::Slots(1), Some((1, 4)), Ok(Answer::Slots(2)));
        assert_eq!((phase.incorrect, phase.disqualified), (1, 1));
        assert_eq!(phase.goodput(), 11.0 / 2.0);
    }
}
