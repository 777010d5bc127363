//! The wire protocol: newline-delimited JSON frames.
//!
//! One request per line, one response per line, strictly in order per
//! connection. A request is a JSON object with a `verb` and
//! verb-specific fields; a response echoes the request `id` and carries
//! either a payload (on `"status": "ok"`) or a typed error (on
//! `"status": "error"`). See `DESIGN.md` §8 for example frames.
//!
//! ## Encoding notes
//!
//! Optional request fields may simply be omitted — the hand-written
//! [`Deserialize`] impls treat a missing field and an explicit `null`
//! identically (the vendored serde derive requires every field to be
//! present, which is wrong for a hand-typed wire format). Unknown
//! request fields are rejected so typos fail loudly instead of being
//! silently ignored. Responses likewise omit absent payloads.

use atsched_core::delta::JobDelta;
use atsched_core::instance::{Instance, Job};
use atsched_core::schedule::Schedule;
use atsched_core::solver::LpStrategy;
use atsched_engine::{EngineTotals, Percentiles};
use atsched_obs::RegistrySnapshot;
use serde::de::{from_value, Deserializer};
use serde::ser::{to_value, Serializer};
use serde::value::Value;
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
///
/// Servers answer requests declaring a *newer* version than they speak
/// with a typed [`kind::UNSUPPORTED_VERSION`] error; session verbs
/// require the client to declare `version ≥ 2` so that a v2 frame
/// mis-delivered to a v1 deployment fails loudly on the field name
/// rather than on a missing capability.
pub const PROTOCOL_VERSION: u32 = 2;

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
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DeltaSpec {
    /// Jobs to append.
    pub add: Vec<Job>,
    /// Pre-amend ids of jobs to remove.
    pub remove: Vec<u64>,
    /// Window changes, by pre-amend id.
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
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: Option<u64>,
    /// One of the [`verb`] constants.
    pub verb: String,
    /// The instance to solve (`solve`).
    pub instance: Option<Instance>,
    /// The instances to solve (`batch`).
    pub instances: Option<Vec<Instance>>,
    /// Solving path: `auto` | `nested` | `general` | `greedy` (default `auto`).
    pub method: Option<String>,
    /// LP backend: `exact` | `float` (default `exact`; `snap` is a
    /// deprecated alias of `exact`). With `precision` and `lp_path`
    /// this selects the LP strategy; see [`Request::with_lp`].
    pub backend: Option<String>,
    /// `hybrid` | `exact` (default `hybrid`; `f64-unchecked` is a
    /// deprecated alias of `hybrid`). `exact` asks for the exact
    /// simplex reference.
    pub precision: Option<String>,
    /// `auto` | `simplex` (default `auto`; both certified). `tree` is
    /// refused.
    pub lp_path: Option<String>,
    /// Enable the slot-closing post-optimization (default false).
    pub polish: Option<bool>,
    /// Seed for the general path's shuffled candidate.
    pub seed: Option<u64>,
    /// Root-decomposition policy: `auto` | `off` | `force` (default `auto`).
    pub shard: Option<String>,
    /// Per-request wall-clock deadline in milliseconds (overrides the
    /// server default).
    pub timeout_ms: Option<u64>,
    /// Return the full schedule in the reply, not just its summary.
    pub include_schedule: Option<bool>,
    /// Protocol version the client speaks; absent means 1. Required
    /// (≥ 2) for the session verbs.
    pub version: Option<u32>,
    /// Session id for `amend` / `close`.
    pub session: Option<u64>,
    /// Instance amendment for `amend`.
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
            backend: None,
            precision: None,
            lp_path: None,
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

    /// Pick the LP strategy, spelled in the wire's `backend` /
    /// `precision` fields: `exact` is `precision: "exact"`, `float` is
    /// `backend: "float"`, and `certified` (the server default) is
    /// neither.
    pub fn with_lp(mut self, lp: LpStrategy) -> Request {
        let (backend, precision) = match lp {
            LpStrategy::Certified => (None, None),
            LpStrategy::Exact => (None, Some("exact".to_string())),
            LpStrategy::Float => (Some("float".to_string()), None),
        };
        (self.backend, self.precision, self.lp_path) = (backend, precision, None);
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
#[derive(Debug, Clone, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
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
#[derive(Debug, Clone)]
pub struct Response {
    /// The request's correlation id (absent when the request was too
    /// malformed to recover one).
    pub id: Option<u64>,
    /// `"ok"` or `"error"`.
    pub status: String,
    /// The request verb, echoed for log readability.
    pub verb: Option<String>,
    /// Error payload (`status == "error"`).
    pub error: Option<ErrorInfo>,
    /// `solve` payload.
    pub solve: Option<SolveReply>,
    /// `batch` payload.
    pub batch: Option<BatchReply>,
    /// `stats` / `shutdown` payload.
    pub stats: Option<StatsReply>,
    /// `metrics` payload: Prometheus-style text exposition of the
    /// metric registry.
    pub metrics: Option<String>,
    /// Protocol version the server spoke for this exchange (v2+
    /// servers always set it; v1 clients ignore it).
    pub version: Option<u32>,
    /// Session id echo for `open` / `amend` / `close` exchanges.
    pub session: Option<u64>,
    /// Server-assigned request id for admitted work — the handle that
    /// correlates a reply with its entry in the slow-request log.
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

// ---------------------------------------------------------------------
// Hand-written (de)serialization: omitted field == null, compact frames.
// ---------------------------------------------------------------------

fn take_field(entries: &mut Vec<(String, Value)>, name: &str) -> Option<Value> {
    entries.iter().position(|(k, _)| k == name).map(|i| entries.remove(i).1)
}

fn opt_field<T, E>(entries: &mut Vec<(String, Value)>, name: &str) -> Result<Option<T>, E>
where
    T: for<'a> Deserialize<'a>,
    E: serde::de::Error,
{
    match take_field(entries, name) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => from_value(v).map(Some).map_err(|e| E::custom(format!("field `{name}`: {e}"))),
    }
}

fn push_field<T: Serialize, E: serde::ser::Error>(
    entries: &mut Vec<(String, Value)>,
    name: &str,
    value: &T,
) -> Result<(), E> {
    entries.push((name.to_string(), to_value(value).map_err(E::custom)?));
    Ok(())
}

fn push_opt<T: Serialize, E: serde::ser::Error>(
    entries: &mut Vec<(String, Value)>,
    name: &str,
    value: &Option<T>,
) -> Result<(), E> {
    if let Some(v) = value {
        push_field(entries, name, v)?;
    }
    Ok(())
}

impl Serialize for Request {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut m = Vec::new();
        push_opt(&mut m, "id", &self.id)?;
        push_field(&mut m, "verb", &self.verb)?;
        push_opt(&mut m, "instance", &self.instance)?;
        push_opt(&mut m, "instances", &self.instances)?;
        push_opt(&mut m, "method", &self.method)?;
        push_opt(&mut m, "backend", &self.backend)?;
        push_opt(&mut m, "precision", &self.precision)?;
        push_opt(&mut m, "lp_path", &self.lp_path)?;
        push_opt(&mut m, "polish", &self.polish)?;
        push_opt(&mut m, "seed", &self.seed)?;
        push_opt(&mut m, "shard", &self.shard)?;
        push_opt(&mut m, "timeout_ms", &self.timeout_ms)?;
        push_opt(&mut m, "include_schedule", &self.include_schedule)?;
        push_opt(&mut m, "version", &self.version)?;
        push_opt(&mut m, "session", &self.session)?;
        push_opt(&mut m, "delta", &self.delta)?;
        serializer.serialize_value(Value::Map(m))
    }
}

impl<'de> Deserialize<'de> for Request {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let mut entries = match deserializer.deserialize_value()? {
            Value::Map(m) => m,
            other => {
                return Err(serde::de::Error::custom(format!(
                    "expected a request object, got {}",
                    other.kind()
                )))
            }
        };
        let req = Request {
            id: opt_field(&mut entries, "id")?,
            verb: opt_field::<String, D::Error>(&mut entries, "verb")?
                .ok_or_else(|| serde::de::Error::custom("missing field `verb`"))?,
            instance: opt_field(&mut entries, "instance")?,
            instances: opt_field(&mut entries, "instances")?,
            method: opt_field(&mut entries, "method")?,
            backend: opt_field(&mut entries, "backend")?,
            precision: opt_field(&mut entries, "precision")?,
            lp_path: opt_field(&mut entries, "lp_path")?,
            polish: opt_field(&mut entries, "polish")?,
            seed: opt_field(&mut entries, "seed")?,
            shard: opt_field(&mut entries, "shard")?,
            timeout_ms: opt_field(&mut entries, "timeout_ms")?,
            include_schedule: opt_field(&mut entries, "include_schedule")?,
            version: opt_field(&mut entries, "version")?,
            session: opt_field(&mut entries, "session")?,
            delta: opt_field(&mut entries, "delta")?,
        };
        if let Some((key, _)) = entries.first() {
            return Err(serde::de::Error::custom(format!("unknown field `{key}`")));
        }
        Ok(req)
    }
}

impl Serialize for Response {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut m = Vec::new();
        // `id` is always present (null when unknown) so clients can
        // correlate even rejections of unparseable frames.
        push_field(&mut m, "id", &self.id)?;
        push_field(&mut m, "status", &self.status)?;
        push_opt(&mut m, "verb", &self.verb)?;
        push_opt(&mut m, "error", &self.error)?;
        push_opt(&mut m, "solve", &self.solve)?;
        push_opt(&mut m, "batch", &self.batch)?;
        push_opt(&mut m, "stats", &self.stats)?;
        push_opt(&mut m, "metrics", &self.metrics)?;
        push_opt(&mut m, "version", &self.version)?;
        push_opt(&mut m, "session", &self.session)?;
        push_opt(&mut m, "request", &self.request)?;
        serializer.serialize_value(Value::Map(m))
    }
}

impl<'de> Deserialize<'de> for Response {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let mut entries = match deserializer.deserialize_value()? {
            Value::Map(m) => m,
            other => {
                return Err(serde::de::Error::custom(format!(
                    "expected a response object, got {}",
                    other.kind()
                )))
            }
        };
        Ok(Response {
            id: opt_field(&mut entries, "id")?,
            status: opt_field::<String, D::Error>(&mut entries, "status")?
                .ok_or_else(|| serde::de::Error::custom("missing field `status`"))?,
            verb: opt_field(&mut entries, "verb")?,
            error: opt_field(&mut entries, "error")?,
            solve: opt_field(&mut entries, "solve")?,
            batch: opt_field(&mut entries, "batch")?,
            stats: opt_field(&mut entries, "stats")?,
            metrics: opt_field(&mut entries, "metrics")?,
            version: opt_field(&mut entries, "version")?,
            session: opt_field(&mut entries, "session")?,
            request: opt_field(&mut entries, "request")?,
        })
    }
}

impl Serialize for DeltaSpec {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut m = Vec::new();
        if !self.add.is_empty() {
            push_field(&mut m, "add", &self.add)?;
        }
        if !self.remove.is_empty() {
            push_field(&mut m, "remove", &self.remove)?;
        }
        if !self.modify.is_empty() {
            push_field(&mut m, "modify", &self.modify)?;
        }
        serializer.serialize_value(Value::Map(m))
    }
}

impl<'de> Deserialize<'de> for DeltaSpec {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let mut entries = match deserializer.deserialize_value()? {
            Value::Map(m) => m,
            other => {
                return Err(serde::de::Error::custom(format!(
                    "expected a delta object, got {}",
                    other.kind()
                )))
            }
        };
        let spec = DeltaSpec {
            add: opt_field(&mut entries, "add")?.unwrap_or_default(),
            remove: opt_field(&mut entries, "remove")?.unwrap_or_default(),
            modify: opt_field(&mut entries, "modify")?.unwrap_or_default(),
        };
        // Same loudness contract as Request: a typo'd op list must not
        // silently no-op.
        if let Some((key, _)) = entries.first() {
            return Err(serde::de::Error::custom(format!("unknown delta field `{key}`")));
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atsched_core::instance::Job;

    fn inst() -> Instance {
        Instance::new(2, vec![Job::new(0, 4, 2), Job::new(1, 3, 1)]).unwrap()
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
    }

    #[test]
    fn v2_session_requests_round_trip() {
        let req = Request::open(&inst()).with_id(1).with_shard("force");
        let line = serde_json::to_string(&req).unwrap();
        assert!(line.contains("\"version\":2"), "{line}");
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
    }
}
