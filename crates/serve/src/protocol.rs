//! The wire protocol: newline-delimited JSON frames.
//!
//! One request per line, one response per line, strictly in order per
//! connection. A request is a JSON object with a `verb` and
//! verb-specific fields; a response echoes the request `id` and carries
//! either a payload (on `"status": "ok"`) or a typed error (on
//! `"status": "error"`). See `DESIGN.md` §8 for example frames.
//!
//! ## Encoding
//!
//! Every frame type derives its codec; the `serde(...)` attributes keep
//! upstream serde's spelling. A request or response leaves an absent
//! optional field out (`skip_serializing_if`), and a missing `Option`
//! field reads as `None`, like an explicit `null`. Requests and deltas
//! refuse unknown fields (`deny_unknown_fields`), so a typo, or a field
//! this build no longer speaks, fails loudly instead of being silently
//! ignored. Responses ignore unknown fields, so a client reads a newer
//! server's replies. The session verbs need protocol v2+.

use atsched_core::delta::JobDelta;
use atsched_core::instance::{Instance, Job};
use atsched_core::schedule::Schedule;
use atsched_core::solver::LpStrategy;
use atsched_engine::{EngineTotals, Percentiles};
use atsched_obs::RegistrySnapshot;
use serde::{Deserialize, Serialize};

/// The protocol version this build speaks.
///
/// Version history:
/// - **1** — `solve` / `batch` / `stats` / `health` / `shutdown`.
///   Requests carry no `version` field; its absence *means* v1.
/// - **2** — adds the session verbs `open` / `amend` / `close` and the
///   `version` / `session` / `delta` request fields. Responses gain
///   `version` and `session` echoes (v1 clients ignore unknown response
///   fields by construction, so these are always safe to send).
/// - **3** — one `lp` request field (`certified` | `exact` | `float`,
///   spelled like [`LpStrategy`]) replaces protocol 2's three LP fields.
///   A frame that still names one of them is refused as an unknown
///   field, with no mapping.
///
/// Servers answer requests declaring a *newer* version than they speak
/// with a typed [`kind::UNSUPPORTED_VERSION`] error; session verbs
/// require the client to declare `version ≥ 2` so that a session frame
/// mis-delivered to a v1 deployment fails loudly on the field name
/// rather than on a missing capability.
pub const PROTOCOL_VERSION: u32 = 3;

/// Request verbs.
pub mod verb {
    /// Solve a single instance.
    pub const SOLVE: &str = "solve";
    /// Solve a list of instances through the batch engine.
    pub const BATCH: &str = "batch";
    /// Service counters, cache statistics, and latency percentiles.
    pub const STATS: &str = "stats";
    /// Liveness probe.
    pub const HEALTH: &str = "health";
    /// Graceful shutdown: stop accepting, drain, reply with final stats.
    pub const SHUTDOWN: &str = "shutdown";
    /// Open an incremental-solving session on an instance (v2).
    pub const OPEN: &str = "open";
    /// Amend an open session's instance and re-solve incrementally (v2).
    pub const AMEND: &str = "amend";
    /// Close an open session (v2).
    pub const CLOSE: &str = "close";
    /// Prometheus-style text exposition of the metric registry,
    /// answered inline by the reactor (never touches solver pools).
    pub const METRICS: &str = "metrics";
}

/// Typed error kinds carried by `"status": "error"` responses.
pub mod kind {
    /// Malformed frame, unknown verb/field, or invalid instance.
    pub const BAD_REQUEST: &str = "bad_request";
    /// The admission queue was full; the request was shed, not queued.
    pub const OVERLOADED: &str = "overloaded";
    /// The service is draining and no longer accepts work.
    pub const SHUTTING_DOWN: &str = "shutting_down";
    /// The instance admits no feasible schedule.
    pub const INFEASIBLE: &str = "infeasible";
    /// The per-request wall-clock deadline ran out.
    pub const TIMED_OUT: &str = "timed_out";
    /// The solve errored or panicked (contained).
    pub const FAILED: &str = "failed";
    /// The server lost the worker handling the request.
    pub const INTERNAL: &str = "internal";
    /// The request declared a protocol version this server does not
    /// speak (or used a versioned verb without declaring one).
    pub const UNSUPPORTED_VERSION: &str = "unsupported_version";
    /// The `session` id is not (or no longer) open — never issued,
    /// closed, or evicted by the server's session TTL.
    pub const UNKNOWN_SESSION: &str = "unknown_session";
}

/// Wire form of a [`JobDelta`]: three op lists, all optional on the
/// wire (`{"add": [...], "remove": [...], "modify": [...]}`).
///
/// `remove` and `modify` reference **pre-amend** job ids — every op in
/// one delta names jobs of the same snapshot, so op order within a
/// delta never matters (duplicate references are rejected
/// server-side). Added jobs are appended after the survivors in list
/// order.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct DeltaSpec {
    /// Jobs to append.
    #[serde(skip_serializing_if = "Vec::is_empty")]
    pub add: Vec<Job>,
    /// Pre-amend ids of jobs to remove.
    #[serde(skip_serializing_if = "Vec::is_empty")]
    pub remove: Vec<u64>,
    /// Window changes, by pre-amend id.
    #[serde(skip_serializing_if = "Vec::is_empty")]
    pub modify: Vec<WindowChange>,
}

/// One `modify` entry of a [`DeltaSpec`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowChange {
    /// Pre-amend id of the job to re-window.
    pub job: u64,
    /// New release time.
    pub release: i64,
    /// New deadline.
    pub deadline: i64,
}

impl DeltaSpec {
    /// An empty delta.
    pub fn new() -> DeltaSpec {
        DeltaSpec::default()
    }

    /// Append a job.
    #[allow(clippy::should_implement_trait)] // builder verb, not arithmetic
    pub fn add(mut self, job: Job) -> DeltaSpec {
        self.add.push(job);
        self
    }

    /// Remove the job with this pre-amend id.
    pub fn remove(mut self, job: u64) -> DeltaSpec {
        self.remove.push(job);
        self
    }

    /// Re-window the job with this pre-amend id.
    pub fn modify_window(mut self, job: u64, release: i64, deadline: i64) -> DeltaSpec {
        self.modify.push(WindowChange { job, release, deadline });
        self
    }

    /// True when no op is present.
    pub fn is_empty(&self) -> bool {
        self.add.is_empty() && self.remove.is_empty() && self.modify.is_empty()
    }

    /// Lower onto the engine's typed delta.
    pub fn to_delta(&self) -> JobDelta {
        let mut delta = JobDelta::new();
        for w in &self.modify {
            delta = delta.modify_window(w.job as usize, w.release, w.deadline);
        }
        for &j in &self.remove {
            delta = delta.remove(j as usize);
        }
        for job in &self.add {
            delta = delta.add(*job);
        }
        delta
    }
}

/// A request frame.
///
/// Only `verb` is mandatory; everything else is verb-specific and
/// optional on the wire (server-side defaults apply).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub id: Option<u64>,
    /// One of the [`verb`] constants.
    pub verb: String,
    /// The instance to solve (`solve`).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub instance: Option<Instance>,
    /// The instances to solve (`batch`).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub instances: Option<Vec<Instance>>,
    /// Solving path: `auto` | `nested` | `general` | `greedy` (default `auto`).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub method: Option<String>,
    /// LP strategy: `certified` | `exact` | `float` (default
    /// `certified`), spelled like [`LpStrategy`]; see [`Request::with_lp`].
    #[serde(skip_serializing_if = "Option::is_none")]
    pub lp: Option<String>,
    /// Enable the slot-closing post-optimization (default false).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub polish: Option<bool>,
    /// Seed for the general path's shuffled candidate.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub seed: Option<u64>,
    /// Root-decomposition policy: `auto` | `off` | `force` (default `auto`).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub shard: Option<String>,
    /// Per-request wall-clock deadline in milliseconds (overrides the
    /// server default).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub timeout_ms: Option<u64>,
    /// Return the full schedule in the reply, not just its summary.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub include_schedule: Option<bool>,
    /// Protocol version the client speaks; absent means 1. Required
    /// (≥ 2) for the session verbs.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub version: Option<u32>,
    /// Session id for `amend` / `close`.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub session: Option<u64>,
    /// Instance amendment for `amend`.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub delta: Option<DeltaSpec>,
}

impl Request {
    /// A bare request with the given verb and no payload.
    pub fn new(verb: &str) -> Request {
        Request {
            id: None,
            verb: verb.to_string(),
            instance: None,
            instances: None,
            method: None,
            lp: None,
            polish: None,
            seed: None,
            shard: None,
            timeout_ms: None,
            include_schedule: None,
            version: None,
            session: None,
            delta: None,
        }
    }

    /// A `solve` request for one instance.
    pub fn solve(inst: &Instance) -> Request {
        Request { instance: Some(inst.clone()), ..Request::new(verb::SOLVE) }
    }

    /// A `batch` request for a list of instances.
    pub fn batch(instances: &[Instance]) -> Request {
        Request { instances: Some(instances.to_vec()), ..Request::new(verb::BATCH) }
    }

    /// A `stats` request.
    pub fn stats() -> Request {
        Request::new(verb::STATS)
    }

    /// A `health` request.
    pub fn health() -> Request {
        Request::new(verb::HEALTH)
    }

    /// A `metrics` request (Prometheus-style text exposition).
    pub fn metrics() -> Request {
        Request::new(verb::METRICS)
    }

    /// A `shutdown` request.
    pub fn shutdown() -> Request {
        Request::new(verb::SHUTDOWN)
    }

    /// An `open` request: start an incremental session on an instance.
    /// Declares [`PROTOCOL_VERSION`].
    pub fn open(inst: &Instance) -> Request {
        Request {
            instance: Some(inst.clone()),
            version: Some(PROTOCOL_VERSION),
            ..Request::new(verb::OPEN)
        }
    }

    /// An `amend` request against an open session. Declares
    /// [`PROTOCOL_VERSION`].
    pub fn amend(session: u64, delta: &DeltaSpec) -> Request {
        Request {
            session: Some(session),
            delta: Some(delta.clone()),
            version: Some(PROTOCOL_VERSION),
            ..Request::new(verb::AMEND)
        }
    }

    /// A `close` request for an open session. Declares
    /// [`PROTOCOL_VERSION`].
    pub fn close(session: u64) -> Request {
        Request {
            session: Some(session),
            version: Some(PROTOCOL_VERSION),
            ..Request::new(verb::CLOSE)
        }
    }

    /// Set the correlation id.
    pub fn with_id(mut self, id: u64) -> Request {
        self.id = Some(id);
        self
    }

    /// Set the solving path (`auto` | `nested` | `general` | `greedy`).
    pub fn with_method(mut self, method: &str) -> Request {
        self.method = Some(method.to_string());
        self
    }

    /// Pick the LP strategy (the `lp` field).
    pub fn with_lp(mut self, lp: LpStrategy) -> Request {
        self.lp = Some(lp.label().to_string());
        self
    }

    /// Enable or disable the polish post-optimization.
    pub fn with_polish(mut self, polish: bool) -> Request {
        self.polish = Some(polish);
        self
    }

    /// Set the shuffle seed for the general path.
    pub fn with_seed(mut self, seed: u64) -> Request {
        self.seed = Some(seed);
        self
    }

    /// Set the root-decomposition policy (`auto` | `off` | `force`).
    pub fn with_shard(mut self, shard: &str) -> Request {
        self.shard = Some(shard.to_string());
        self
    }

    /// Set the per-request deadline in milliseconds.
    pub fn with_timeout_ms(mut self, ms: u64) -> Request {
        self.timeout_ms = Some(ms);
        self
    }

    /// Ask for the full schedule in the reply.
    pub fn with_schedule(mut self) -> Request {
        self.include_schedule = Some(true);
        self
    }

    /// Declare an explicit protocol version (tests and forward-compat
    /// probes; the session constructors set this automatically).
    pub fn with_version(mut self, version: u32) -> Request {
        self.version = Some(version);
        self
    }

    /// Set the session id.
    pub fn with_session(mut self, session: u64) -> Request {
        self.session = Some(session);
        self
    }
}

/// Payload of a successful `solve`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveReply {
    /// Active slots of the verified schedule.
    pub active_slots: u64,
    /// Path that produced it: `nested` | `general` | `greedy`.
    pub method: String,
    /// Per-instance certified approximation ratio, when available.
    pub certified_ratio: Option<f64>,
    /// Whether the result came from the engine's solve cache.
    pub cached: bool,
    /// Solve execution time in milliseconds (excludes queue wait).
    pub elapsed_ms: f64,
    /// The schedule itself, when `include_schedule` was set.
    pub schedule: Option<Schedule>,
}

/// One instance's outcome inside a `batch` reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchItemReply {
    /// Position in the request's `instances` array.
    pub index: u64,
    /// `solved` | `infeasible` | `timed_out` | `failed`.
    pub outcome: String,
    /// Active slots, for solved items.
    pub active_slots: Option<u64>,
    /// Whether a solved item came from the cache.
    pub cached: Option<bool>,
    /// Failure detail, for failed items.
    pub message: Option<String>,
}

/// Payload of a successful `batch`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchReply {
    /// Per-instance outcomes, in input order.
    pub items: Vec<BatchItemReply>,
    /// Instances in the batch.
    pub total: u64,
    /// Verified schedules produced.
    pub solved: u64,
    /// Provably infeasible instances.
    pub infeasible: u64,
    /// Items cut off by the per-solve budget.
    pub timed_out: u64,
    /// Items that errored or panicked.
    pub failed: u64,
    /// End-to-end batch wall-clock, milliseconds.
    pub wall_clock_ms: f64,
    /// Cache hits during this batch.
    pub cache_hits: u64,
    /// Cache misses during this batch.
    pub cache_misses: u64,
}

/// One completed stage of a traced request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageTiming {
    /// Span name (`solve`, `lp`, `round`, ...).
    pub stage: String,
    /// Stage wall time, milliseconds.
    pub ms: f64,
}

/// One recent slow or errored request, from the server's bounded event
/// log: identity, outcome, and per-stage timings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlowRequest {
    /// Server-assigned request id (echoed in the reply's `request`).
    pub request: u64,
    /// Request verb.
    pub verb: String,
    /// End-to-end latency (admission → response), milliseconds.
    pub total_ms: f64,
    /// Error kind for failed requests (`None` = success).
    pub error: Option<String>,
    /// Stage breadcrumbs in completion order.
    pub stages: Vec<StageTiming>,
}

/// Payload of a successful `stats` (and of the `shutdown` ack, as the
/// final post-drain snapshot).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StatsReply {
    /// Time since the server started, milliseconds.
    pub uptime_ms: f64,
    /// Frames read off connections (including malformed ones).
    pub received: u64,
    /// Frames rejected before admission (parse errors, unknown verbs,
    /// invalid instances, oversized lines).
    pub bad_requests: u64,
    /// Requests admitted into the solve queue.
    pub accepted: u64,
    /// Requests shed with a typed `overloaded` response.
    pub rejected_overload: u64,
    /// Requests refused because the service was draining.
    pub rejected_shutdown: u64,
    /// Admitted requests that received a response (any outcome).
    pub completed: u64,
    /// Completed requests whose outcome was `infeasible` or `failed`.
    pub solve_errors: u64,
    /// Completed requests that hit their wall-clock deadline.
    pub timed_out: u64,
    /// Admitted requests not yet answered.
    pub inflight: u64,
    /// Requests currently waiting in the admission queue.
    pub queue_len: u64,
    /// Admission queue capacity (the load-shedding threshold).
    pub queue_capacity: u64,
    /// Engine cache hits over the server's lifetime.
    pub cache_hits: u64,
    /// Engine cache misses over the server's lifetime.
    pub cache_misses: u64,
    /// `hits / (hits + misses)`, 0 with no lookups.
    pub cache_hit_rate: f64,
    /// Memoized solve outcomes currently held.
    pub cache_entries: u64,
    /// Wire-visible sessions open right now (reported after an eager
    /// TTL sweep, so no expired stragglers are counted).
    pub sessions_open: u64,
    /// Recent slow or errored requests (newest first) from the bounded
    /// server event log, with per-stage timings.
    pub slow: Vec<SlowRequest>,
    /// Lifetime engine outcome counters.
    pub engine: EngineTotals,
    /// End-to-end latency of completed requests (admission → response),
    /// lifetime histogram percentiles, milliseconds.
    pub latency_ms: Percentiles,
    /// Full metric-registry snapshot: every counter, gauge, and
    /// histogram the server and its solver stack recorded (`serve.*`,
    /// `engine.*`, `lp.*`, `flow.*`, `span.*`).
    pub registry: RegistrySnapshot,
}

/// A typed error payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorInfo {
    /// One of the [`kind`] constants.
    pub kind: String,
    /// Human-readable detail.
    pub message: String,
}

/// A response frame: `id` echo, `status`, and one payload at most.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// The request's correlation id (`null` when the request was too
    /// malformed to recover one). Always written, so clients can
    /// correlate even rejections of unparseable frames.
    pub id: Option<u64>,
    /// `"ok"` or `"error"`.
    pub status: String,
    /// The request verb, echoed for log readability.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub verb: Option<String>,
    /// Error payload (`status == "error"`).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub error: Option<ErrorInfo>,
    /// `solve` payload.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub solve: Option<SolveReply>,
    /// `batch` payload.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub batch: Option<BatchReply>,
    /// `stats` / `shutdown` payload.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub stats: Option<StatsReply>,
    /// `metrics` payload: Prometheus-style text exposition of the
    /// metric registry.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub metrics: Option<String>,
    /// Protocol version the server spoke for this exchange (v2+
    /// servers always set it; v1 clients ignore it).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub version: Option<u32>,
    /// Session id echo for `open` / `amend` / `close` exchanges.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub session: Option<u64>,
    /// Server-assigned request id for admitted work — the handle that
    /// correlates a reply with its entry in the slow-request log.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub request: Option<u64>,
}

impl Response {
    /// An `ok` response with no payload (health, bare acks).
    pub fn ok(id: Option<u64>, verb: &str) -> Response {
        Response {
            id,
            status: "ok".into(),
            verb: Some(verb.to_string()),
            error: None,
            solve: None,
            batch: None,
            stats: None,
            metrics: None,
            version: None,
            session: None,
            request: None,
        }
    }

    /// An `ok` response carrying a solve payload.
    pub fn ok_solve(id: Option<u64>, payload: SolveReply) -> Response {
        Response { solve: Some(payload), ..Response::ok(id, verb::SOLVE) }
    }

    /// An `ok` response carrying a batch payload.
    pub fn ok_batch(id: Option<u64>, payload: BatchReply) -> Response {
        Response { batch: Some(payload), ..Response::ok(id, verb::BATCH) }
    }

    /// An `ok` response carrying a stats payload under the given verb
    /// (`stats`, or `shutdown` for the final snapshot).
    pub fn ok_stats(id: Option<u64>, verb: &str, payload: StatsReply) -> Response {
        Response { stats: Some(payload), ..Response::ok(id, verb) }
    }

    /// An `ok` response carrying a Prometheus-style text exposition.
    pub fn ok_metrics(id: Option<u64>, exposition: String) -> Response {
        Response { metrics: Some(exposition), ..Response::ok(id, verb::METRICS) }
    }

    /// An `error` response with the given typed kind.
    pub fn error(id: Option<u64>, verb: Option<&str>, kind: &str, message: String) -> Response {
        Response {
            id,
            status: "error".into(),
            verb: verb.map(str::to_string),
            error: Some(ErrorInfo { kind: kind.to_string(), message }),
            solve: None,
            batch: None,
            stats: None,
            metrics: None,
            version: None,
            session: None,
            request: None,
        }
    }

    /// Attach a session id echo.
    pub fn with_session(mut self, session: u64) -> Response {
        self.session = Some(session);
        self
    }

    /// Stamp the server-assigned request id.
    pub fn with_request(mut self, request: u64) -> Response {
        self.request = Some(request);
        self
    }

    /// Stamp the protocol version the server speaks.
    pub fn with_version(mut self, version: u32) -> Response {
        self.version = Some(version);
        self
    }

    /// True for `"status": "ok"`.
    pub fn is_ok(&self) -> bool {
        self.status == "ok"
    }

    /// The error kind, when this is an error response.
    pub fn error_kind(&self) -> Option<&str> {
        self.error.as_ref().map(|e| e.kind.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atsched_core::instance::Job;
    use atsched_obs::{HistogramSnapshot, WindowRates, WindowStats, WindowedHistogramSnapshot};

    fn inst() -> Instance {
        Instance::new(2, vec![Job::new(0, 4, 2), Job::new(1, 3, 1)]).unwrap()
    }

    /// Every `Request` constructor, bare and with `with_id`,
    /// `with_schedule` and `with_shard`, plus one frame that sets every
    /// other builder field except the LP strategy.
    fn golden_requests() -> Vec<Request> {
        let inst = inst();
        let delta = DeltaSpec::new().add(Job::new(1, 3, 1)).remove(0).modify_window(1, 0, 4);
        let bare = vec![
            Request::new("bogus"),
            Request::solve(&inst),
            Request::batch(&[inst.clone(), inst.clone()]),
            Request::stats(),
            Request::health(),
            Request::metrics(),
            Request::shutdown(),
            Request::open(&inst),
            Request::amend(42, &delta),
            Request::amend(42, &DeltaSpec::new().remove(1)),
            Request::close(42),
        ];
        let mut all = bare.clone();
        all.extend(bare.into_iter().map(|r| r.with_id(7).with_schedule().with_shard("force")));
        all.push(
            Request::solve(&inst)
                .with_id(3)
                .with_method("general")
                .with_polish(true)
                .with_seed(11)
                .with_timeout_ms(500)
                .with_version(1)
                .with_session(5),
        );
        all
    }

    /// Every `Response` constructor, with `with_version`,
    /// `with_session` and `with_request`; the stats payload holds one
    /// registry instrument of each kind, windowed ones included.
    fn golden_responses() -> Vec<Response> {
        let solve = SolveReply {
            active_slots: 4,
            method: "nested".into(),
            certified_ratio: Some(1.25),
            cached: false,
            elapsed_ms: 1.5,
            schedule: Some(Schedule { slots: vec![0, 1], assignment: vec![vec![0], vec![0, 1]] }),
        };
        let bare_solve =
            SolveReply { certified_ratio: None, cached: true, schedule: None, ..solve.clone() };
        let batch = BatchReply {
            items: vec![
                BatchItemReply {
                    index: 0,
                    outcome: "solved".into(),
                    active_slots: Some(3),
                    cached: Some(false),
                    message: None,
                },
                BatchItemReply {
                    index: 1,
                    outcome: "failed".into(),
                    active_slots: None,
                    cached: None,
                    message: Some("boom".into()),
                },
            ],
            total: 2,
            solved: 1,
            infeasible: 0,
            timed_out: 0,
            failed: 1,
            wall_clock_ms: 2.25,
            cache_hits: 0,
            cache_misses: 2,
        };
        let window = |count, rate| WindowStats { count, rate, p50: 1.0, p95: 2.0, p99: 4.0 };
        let stats = StatsReply {
            uptime_ms: 1000.5,
            received: 9,
            bad_requests: 1,
            accepted: 7,
            rejected_overload: 1,
            rejected_shutdown: 0,
            completed: 6,
            solve_errors: 1,
            timed_out: 1,
            inflight: 1,
            queue_len: 0,
            queue_capacity: 64,
            cache_hits: 2,
            cache_misses: 4,
            cache_hit_rate: 0.5,
            cache_entries: 4,
            sessions_open: 1,
            slow: vec![
                SlowRequest {
                    request: 12,
                    verb: "amend".into(),
                    total_ms: 88.5,
                    error: Some(kind::TIMED_OUT.into()),
                    stages: vec![StageTiming { stage: "lp".into(), ms: 80.0 }],
                },
                SlowRequest {
                    request: 13,
                    verb: "solve".into(),
                    total_ms: 0.25,
                    error: None,
                    stages: Vec::new(),
                },
            ],
            engine: EngineTotals { solved: 3, infeasible: 1, timed_out: 1, failed: 0 },
            latency_ms: Percentiles { p50: 0.5, p95: 2.0, max: 4.0 },
            registry: RegistrySnapshot {
                counters: vec![("serve.accepted".into(), 7)],
                gauges: vec![("serve.inflight".into(), -1)],
                histograms: vec![(
                    "span.lp.ms".into(),
                    HistogramSnapshot {
                        count: 2,
                        sum: 3.5,
                        min: 1.0,
                        max: 2.5,
                        p50: 1.0,
                        p95: 2.5,
                        p99: 2.5,
                    },
                )],
                windows: vec![(
                    "serve.received".into(),
                    WindowRates { rate_10s: 0.5, rate_1m: 0.25, rate_5m: 0.125 },
                )],
                window_histograms: vec![(
                    "serve.latency_ms".into(),
                    WindowedHistogramSnapshot {
                        w10s: window(1, 0.1),
                        w1m: window(3, 0.05),
                        w5m: window(6, 0.02),
                    },
                )],
            },
        };
        vec![
            Response::ok(Some(1), verb::HEALTH),
            Response::ok(None, verb::HEALTH),
            Response::ok_solve(Some(2), solve.clone()),
            Response::ok_solve(None, bare_solve).with_request(17),
            Response::ok_batch(Some(3), batch).with_request(18),
            Response::ok_stats(Some(4), verb::STATS, stats),
            Response::ok_stats(None, verb::SHUTDOWN, StatsReply::default()),
            Response::ok_metrics(Some(5), "atsched_serve_received 2\n".into()),
            Response::error(Some(6), Some(verb::SOLVE), kind::OVERLOADED, "queue full".into()),
            Response::error(None, None, kind::BAD_REQUEST, "expected a JSON value".into()),
            Response::ok_solve(Some(7), solve)
                .with_version(PROTOCOL_VERSION)
                .with_session(9)
                .with_request(19),
            Response::ok(Some(8), verb::CLOSE).with_version(PROTOCOL_VERSION).with_session(9),
            Response::error(Some(9), Some(verb::AMEND), kind::UNKNOWN_SESSION, "gone".into())
                .with_version(PROTOCOL_VERSION)
                .with_session(9),
        ]
    }

    /// [`golden_requests`] as protocol 2's hand-written codec wrote
    /// them, byte for byte.
    const GOLDEN_REQUESTS: [&str; 23] = [
        r#"{"verb":"bogus"}"#,
        r#"{"verb":"solve","instance":{"g":2,"jobs":[{"release":0,"deadline":4,"processing":2},{"release":1,"deadline":3,"processing":1}]}}"#,
        r#"{"verb":"batch","instances":[{"g":2,"jobs":[{"release":0,"deadline":4,"processing":2},{"release":1,"deadline":3,"processing":1}]},{"g":2,"jobs":[{"release":0,"deadline":4,"processing":2},{"release":1,"deadline":3,"processing":1}]}]}"#,
        r#"{"verb":"stats"}"#,
        r#"{"verb":"health"}"#,
        r#"{"verb":"metrics"}"#,
        r#"{"verb":"shutdown"}"#,
        r#"{"verb":"open","instance":{"g":2,"jobs":[{"release":0,"deadline":4,"processing":2},{"release":1,"deadline":3,"processing":1}]},"version":2}"#,
        r#"{"verb":"amend","version":2,"session":42,"delta":{"add":[{"release":1,"deadline":3,"processing":1}],"remove":[0],"modify":[{"job":1,"release":0,"deadline":4}]}}"#,
        r#"{"verb":"amend","version":2,"session":42,"delta":{"remove":[1]}}"#,
        r#"{"verb":"close","version":2,"session":42}"#,
        r#"{"id":7,"verb":"bogus","shard":"force","include_schedule":true}"#,
        r#"{"id":7,"verb":"solve","instance":{"g":2,"jobs":[{"release":0,"deadline":4,"processing":2},{"release":1,"deadline":3,"processing":1}]},"shard":"force","include_schedule":true}"#,
        r#"{"id":7,"verb":"batch","instances":[{"g":2,"jobs":[{"release":0,"deadline":4,"processing":2},{"release":1,"deadline":3,"processing":1}]},{"g":2,"jobs":[{"release":0,"deadline":4,"processing":2},{"release":1,"deadline":3,"processing":1}]}],"shard":"force","include_schedule":true}"#,
        r#"{"id":7,"verb":"stats","shard":"force","include_schedule":true}"#,
        r#"{"id":7,"verb":"health","shard":"force","include_schedule":true}"#,
        r#"{"id":7,"verb":"metrics","shard":"force","include_schedule":true}"#,
        r#"{"id":7,"verb":"shutdown","shard":"force","include_schedule":true}"#,
        r#"{"id":7,"verb":"open","instance":{"g":2,"jobs":[{"release":0,"deadline":4,"processing":2},{"release":1,"deadline":3,"processing":1}]},"shard":"force","include_schedule":true,"version":2}"#,
        r#"{"id":7,"verb":"amend","shard":"force","include_schedule":true,"version":2,"session":42,"delta":{"add":[{"release":1,"deadline":3,"processing":1}],"remove":[0],"modify":[{"job":1,"release":0,"deadline":4}]}}"#,
        r#"{"id":7,"verb":"amend","shard":"force","include_schedule":true,"version":2,"session":42,"delta":{"remove":[1]}}"#,
        r#"{"id":7,"verb":"close","shard":"force","include_schedule":true,"version":2,"session":42}"#,
        r#"{"id":3,"verb":"solve","instance":{"g":2,"jobs":[{"release":0,"deadline":4,"processing":2},{"release":1,"deadline":3,"processing":1}]},"method":"general","polish":true,"seed":11,"timeout_ms":500,"version":1,"session":5}"#,
    ];

    /// [`golden_responses`] as protocol 2's hand-written codec wrote
    /// them, byte for byte.
    const GOLDEN_RESPONSES: [&str; 13] = [
        r#"{"id":1,"status":"ok","verb":"health"}"#,
        r#"{"id":null,"status":"ok","verb":"health"}"#,
        r#"{"id":2,"status":"ok","verb":"solve","solve":{"active_slots":4,"method":"nested","certified_ratio":1.25,"cached":false,"elapsed_ms":1.5,"schedule":{"slots":[0,1],"assignment":[[0],[0,1]]}}}"#,
        r#"{"id":null,"status":"ok","verb":"solve","solve":{"active_slots":4,"method":"nested","certified_ratio":null,"cached":true,"elapsed_ms":1.5,"schedule":null},"request":17}"#,
        r#"{"id":3,"status":"ok","verb":"batch","batch":{"items":[{"index":0,"outcome":"solved","active_slots":3,"cached":false,"message":null},{"index":1,"outcome":"failed","active_slots":null,"cached":null,"message":"boom"}],"total":2,"solved":1,"infeasible":0,"timed_out":0,"failed":1,"wall_clock_ms":2.25,"cache_hits":0,"cache_misses":2},"request":18}"#,
        r#"{"id":4,"status":"ok","verb":"stats","stats":{"uptime_ms":1000.5,"received":9,"bad_requests":1,"accepted":7,"rejected_overload":1,"rejected_shutdown":0,"completed":6,"solve_errors":1,"timed_out":1,"inflight":1,"queue_len":0,"queue_capacity":64,"cache_hits":2,"cache_misses":4,"cache_hit_rate":0.5,"cache_entries":4,"sessions_open":1,"slow":[{"request":12,"verb":"amend","total_ms":88.5,"error":"timed_out","stages":[{"stage":"lp","ms":80.0}]},{"request":13,"verb":"solve","total_ms":0.25,"error":null,"stages":[]}],"engine":{"solved":3,"infeasible":1,"timed_out":1,"failed":0},"latency_ms":{"p50":0.5,"p95":2.0,"max":4.0},"registry":{"counters":{"serve.accepted":7},"gauges":{"serve.inflight":-1},"histograms":{"span.lp.ms":{"count":2,"sum":3.5,"min":1.0,"max":2.5,"p50":1.0,"p95":2.5,"p99":2.5}},"windows":{"serve.received":{"rate_10s":0.5,"rate_1m":0.25,"rate_5m":0.125}},"window_histograms":{"serve.latency_ms":{"10s":{"count":1,"rate":0.1,"p50":1.0,"p95":2.0,"p99":4.0},"1m":{"count":3,"rate":0.05,"p50":1.0,"p95":2.0,"p99":4.0},"5m":{"count":6,"rate":0.02,"p50":1.0,"p95":2.0,"p99":4.0}}}}}}"#,
        r#"{"id":null,"status":"ok","verb":"shutdown","stats":{"uptime_ms":0.0,"received":0,"bad_requests":0,"accepted":0,"rejected_overload":0,"rejected_shutdown":0,"completed":0,"solve_errors":0,"timed_out":0,"inflight":0,"queue_len":0,"queue_capacity":0,"cache_hits":0,"cache_misses":0,"cache_hit_rate":0.0,"cache_entries":0,"sessions_open":0,"slow":[],"engine":{"solved":0,"infeasible":0,"timed_out":0,"failed":0},"latency_ms":{"p50":0.0,"p95":0.0,"max":0.0},"registry":{"counters":{},"gauges":{},"histograms":{},"windows":{},"window_histograms":{}}}}"#,
        r#"{"id":5,"status":"ok","verb":"metrics","metrics":"atsched_serve_received 2\n"}"#,
        r#"{"id":6,"status":"error","verb":"solve","error":{"kind":"overloaded","message":"queue full"}}"#,
        r#"{"id":null,"status":"error","error":{"kind":"bad_request","message":"expected a JSON value"}}"#,
        r#"{"id":7,"status":"ok","verb":"solve","solve":{"active_slots":4,"method":"nested","certified_ratio":1.25,"cached":false,"elapsed_ms":1.5,"schedule":{"slots":[0,1],"assignment":[[0],[0,1]]}},"version":2,"session":9,"request":19}"#,
        r#"{"id":8,"status":"ok","verb":"close","version":2,"session":9}"#,
        r#"{"id":9,"status":"error","verb":"amend","error":{"kind":"unknown_session","message":"gone"},"version":2,"session":9}"#,
    ];

    /// A protocol-2 golden line as this build writes it: the one change
    /// is the version the session constructors declare.
    fn current(golden: &str) -> String {
        golden.replace("\"version\":2", &format!("\"version\":{PROTOCOL_VERSION}"))
    }

    #[test]
    fn request_round_trips_and_skips_absent_fields() {
        let req = Request::solve(&inst())
            .with_id(7)
            .with_method("nested")
            .with_shard("force")
            .with_lp(LpStrategy::Exact)
            .with_timeout_ms(500);
        let line = serde_json::to_string(&req).unwrap();
        assert!(!line.contains('\n'), "frames are single lines: {line}");
        assert!(!line.contains("seed"), "absent fields are omitted: {line}");
        let back: Request = serde_json::from_str(&line).unwrap();
        assert_eq!(back, req);

        let requests = golden_requests();
        assert_eq!(requests.len(), GOLDEN_REQUESTS.len());
        for (req, golden) in requests.into_iter().zip(GOLDEN_REQUESTS) {
            let line = serde_json::to_string(&req).unwrap();
            assert_eq!(line, current(golden));
            assert_eq!(serde_json::from_str::<Request>(&line).unwrap(), req, "{line}");
        }

        // `lp` is the one change to the frame's fields: protocol 2
        // spelled the strategy in two other fields, and wrote nothing
        // for certified.
        let instance = r#"{"g":2,"jobs":[{"release":0,"deadline":4,"processing":2},{"release":1,"deadline":3,"processing":1}]}"#;
        for lp in [LpStrategy::Certified, LpStrategy::Exact, LpStrategy::Float] {
            let req = Request::solve(&inst()).with_method("nested").with_lp(lp).with_polish(true);
            let line = serde_json::to_string(&req).unwrap();
            let label = lp.label();
            let want = format!(
                r#"{{"verb":"solve","instance":{instance},"method":"nested","lp":"{label}","polish":true}}"#
            );
            assert_eq!(line, want);
            assert_eq!(serde_json::from_str::<Request>(&line).unwrap(), req);
        }
    }

    #[test]
    fn sparse_hand_typed_request_parses() {
        let req: Request = serde_json::from_str(r#"{"verb":"stats"}"#).unwrap();
        assert_eq!(req.verb, verb::STATS);
        assert_eq!(req.id, None);
        assert_eq!(req.instance, None);

        let req: Request =
            serde_json::from_str(r#"{"id":3,"verb":"solve","instance":{"g":2,"jobs":[{"release":0,"deadline":4,"processing":2}]},"polish":true}"#)
                .unwrap();
        assert_eq!(req.id, Some(3));
        assert_eq!(req.polish, Some(true));
        assert_eq!(req.instance.unwrap().jobs.len(), 1);
    }

    #[test]
    fn unknown_fields_and_missing_verb_are_rejected() {
        assert!(serde_json::from_str::<Request>(r#"{"verb":"solve","bogus":1}"#).is_err());
        assert!(serde_json::from_str::<Request>(r#"{"id":1}"#).is_err());
        assert!(serde_json::from_str::<Request>(r#"[1,2]"#).is_err());

        // Protocol 2's LP fields are unknown fields, and the error
        // names the one that replaced them.
        for legacy in ["backend", "precision", "lp_path"] {
            let frame = format!(r#"{{"verb":"solve","{legacy}":"exact"}}"#);
            let err = serde_json::from_str::<Request>(&frame).unwrap_err().to_string();
            assert!(
                err.starts_with(&format!("unknown field `{legacy}`, expected one of")),
                "{err}"
            );
            assert!(err.contains("`lp`"), "{err}");
        }
        let err = serde_json::from_str::<Request>(r#"{"verb":"solve","verb":"stats"}"#)
            .unwrap_err()
            .to_string();
        assert_eq!(err, "duplicate field `verb`");
    }

    #[test]
    fn v2_session_requests_round_trip() {
        let req = Request::open(&inst()).with_id(1).with_shard("force");
        let line = serde_json::to_string(&req).unwrap();
        assert!(line.contains(&format!("\"version\":{PROTOCOL_VERSION}")), "{line}");
        let back: Request = serde_json::from_str(&line).unwrap();
        assert_eq!(back, req);

        let delta = DeltaSpec::new().add(Job::new(1, 3, 1)).remove(0).modify_window(1, 0, 4);
        let req = Request::amend(42, &delta).with_id(2);
        let line = serde_json::to_string(&req).unwrap();
        assert!(line.contains("\"session\":42"), "{line}");
        let back: Request = serde_json::from_str(&line).unwrap();
        assert_eq!(back, req);
        let spec = back.delta.unwrap();
        assert_eq!(spec.add.len(), 1);
        assert_eq!(spec.remove, vec![0]);
        assert_eq!(spec.modify.len(), 1);

        let req = Request::close(42).with_id(3);
        let back: Request = serde_json::from_str(&serde_json::to_string(&req).unwrap()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn delta_spec_tolerates_missing_lists_and_rejects_typos() {
        let spec: DeltaSpec = serde_json::from_str(r#"{"remove":[3]}"#).unwrap();
        assert!(spec.add.is_empty());
        assert_eq!(spec.remove, vec![3]);
        assert!(spec.modify.is_empty());

        let empty: DeltaSpec = serde_json::from_str("{}").unwrap();
        assert!(empty.is_empty());
        // An empty delta serializes to the empty object.
        assert_eq!(serde_json::to_string(&DeltaSpec::new()).unwrap(), "{}");

        assert!(serde_json::from_str::<DeltaSpec>(r#"{"removes":[3]}"#).is_err());
    }

    #[test]
    fn version_less_frames_stay_v1_shaped() {
        // A v1 client's frame — no version — still parses, and
        // serializing a v1-style request emits no v2 fields.
        let req: Request = serde_json::from_str(r#"{"id":1,"verb":"stats"}"#).unwrap();
        assert_eq!(req.version, None);
        let line = serde_json::to_string(&Request::stats().with_id(1)).unwrap();
        assert!(!line.contains("version"), "{line}");
        assert!(!line.contains("session"), "{line}");

        // A v2 response with version/session echoes still parses as a
        // plain ok for a reader that ignores the extra fields.
        let resp = Response::ok(Some(5), verb::OPEN).with_version(PROTOCOL_VERSION).with_session(9);
        let line = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert!(back.is_ok());
        assert_eq!(back.session, Some(9));
        assert_eq!(back.version, Some(PROTOCOL_VERSION));
    }

    #[test]
    fn metrics_and_request_id_round_trip() {
        let resp = Response::ok_metrics(Some(4), "atsched_serve_received 2\n".into());
        let line = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert!(back.is_ok());
        assert_eq!(back.metrics.as_deref(), Some("atsched_serve_received 2\n"));

        let resp = Response::ok(Some(1), verb::SOLVE).with_request(99);
        let line = serde_json::to_string(&resp).unwrap();
        assert!(line.contains("\"request\":99"), "{line}");
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back.request, Some(99));

        // Pre-telemetry responses (no `metrics`/`request` keys) still
        // parse — the fields are optional on the wire.
        let back: Response = serde_json::from_str(r#"{"id":1,"status":"ok"}"#).unwrap();
        assert_eq!(back.request, None);
        assert_eq!(back.metrics, None);

        // A missing `Option` field inside a payload reads as `None`
        // too, so a server may drop one without breaking this client.
        let back: Response = serde_json::from_str(
            r#"{"id":2,"status":"ok","solve":{"active_slots":4,"method":"nested","cached":false,"elapsed_ms":1.5}}"#,
        )
        .unwrap();
        let solve = back.solve.unwrap();
        assert_eq!((solve.certified_ratio, solve.schedule), (None, None));
        let slow: SlowRequest =
            serde_json::from_str(r#"{"request":12,"verb":"amend","total_ms":88.5,"stages":[]}"#)
                .unwrap();
        assert_eq!(slow.error, None);
    }

    #[test]
    fn slow_request_entries_round_trip_inside_stats() {
        let slow = SlowRequest {
            request: 12,
            verb: "amend".into(),
            total_ms: 88.5,
            error: None,
            stages: vec![StageTiming { stage: "lp".into(), ms: 80.0 }],
        };
        let line = serde_json::to_string(&slow).unwrap();
        let back: SlowRequest = serde_json::from_str(&line).unwrap();
        assert_eq!(back, slow);
    }

    /// Bytes a mutation inserts or writes: JSON structure, digits and
    /// lowercase letters.
    const MUTATION_BYTES: &[u8] = b"{}[]\":,-0123456789abcdefghijklmnopqrstuvwxyz";

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        /// A golden request line (amends with deltas among them) after
        /// 1-8 byte edits decodes and validates, or fails typed, but
        /// never panics.
        #[test]
        fn mutated_request_frames_decode_and_validate_without_panicking(
            frame in 0..GOLDEN_REQUESTS.len(),
            edits in proptest::collection::vec((0u8..3, 0usize..4096, 0..MUTATION_BYTES.len()), 1..=8),
        ) {
            let mut line = current(GOLDEN_REQUESTS[frame]).into_bytes();
            for (op, at, byte) in edits {
                let (at, byte) = (at % (line.len() + 1), MUTATION_BYTES[byte]);
                match op {
                    0 => line.insert(at, byte),
                    _ if at == line.len() => {}
                    1 => {
                        line.remove(at);
                    }
                    _ => line[at] = byte,
                }
            }
            let line = String::from_utf8(line).expect("ASCII edits of an ASCII line");
            if let Ok(req) = serde_json::from_str::<Request>(&line) {
                let _ = crate::server::validate(&req, None);
            }
        }
    }

    #[test]
    fn delta_spec_lowers_onto_job_delta() {
        let base = inst();
        let spec = DeltaSpec::new().modify_window(0, 0, 5).add(Job::new(1, 3, 1));
        let next = atsched_core::delta::apply(&base, &spec.to_delta()).unwrap();
        assert_eq!(next.jobs.len(), 3);
        assert_eq!(next.jobs[0].deadline, 5);
    }

    #[test]
    fn response_round_trips() {
        let resp = Response::ok_solve(
            Some(9),
            SolveReply {
                active_slots: 4,
                method: "nested".into(),
                certified_ratio: Some(1.25),
                cached: false,
                elapsed_ms: 1.5,
                schedule: None,
            },
        );
        let line = serde_json::to_string(&resp).unwrap();
        assert!(line.contains("\"id\":9"), "{line}");
        assert!(!line.contains("error"), "{line}");
        let back: Response = serde_json::from_str(&line).unwrap();
        assert!(back.is_ok());
        assert_eq!(back.id, Some(9));
        assert_eq!(back.solve.unwrap().active_slots, 4);

        let resp = Response::error(None, Some(verb::SOLVE), kind::OVERLOADED, "queue full".into());
        let line = serde_json::to_string(&resp).unwrap();
        assert!(line.starts_with("{\"id\":null"), "{line}");
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back.error_kind(), Some(kind::OVERLOADED));

        let responses = golden_responses();
        assert_eq!(responses.len(), GOLDEN_RESPONSES.len());
        for (resp, golden) in responses.into_iter().zip(GOLDEN_RESPONSES) {
            let line = serde_json::to_string(&resp).unwrap();
            assert_eq!(line, current(golden));
            assert_eq!(serde_json::from_str::<Response>(&line).unwrap(), resp, "{line}");
        }
    }
}
