//! Router sharding: the reactor-side service loop and consistent-hash
//! placement of instances across worker shards.
//!
//! Each router worker owns one [`atsched_net::Reactor`] (an event loop
//! with its own connections), one admission queue and one [`atsched_engine::Engine`].
//! Accepted connections are distributed round-robin across reactors;
//! *requests* are then routed by content: an instance consistent-hashes
//! — keyed on its dominant [`atsched_core::decompose`] shard so
//! re-solves and amended variants of the same decomposition land on the
//! engine whose cache already knows them — onto a shard's queue, solver
//! threads answer through the owning reactor's mailbox, and `stats`
//! merges every shard into one plane.
//!
//! The per-connection protocol stays strictly sequential: dispatching a
//! request pauses reading on that connection until the reply (or its
//! deadline preemption) resumes it, so replies can never cross-wire.

use crate::protocol::{kind, verb, Request, Response};
use crate::server::{
    deadline_response, encode_frame, handle_close, snapshot_all, sweep_sessions, timeout_of,
    validate, DrainEvent, Job, Shared, Work,
};
use atsched_core::instance::Instance;
use atsched_net::{ConnId, Ctx, FrameError, Service, TimerId};
use atsched_obs::RequestTrace;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Extra grace the reactor-side deadline failsafe allows the worker
/// (whose `with_budget` normally answers first) before preempting.
pub(crate) const DEADLINE_SLACK: Duration = Duration::from_secs(1);

/// Timer payload for the periodic session sweep (cannot collide with a
/// connection id until 2^30 simultaneous slots exist).
const SWEEP_TIMER_DATA: u64 = 1 << 62;

/// Messages other threads inject into a reactor's mailbox.
pub(crate) enum Msg {
    /// A freshly accepted connection handed over by reactor 0.
    Conn(TcpStream),
    /// A solver thread's answer for an in-flight request.
    Reply { conn: ConnId, seq: u64, resp: Box<Response> },
    /// The final drain snapshot: write it, acknowledge the flush to the
    /// coordinator, then close the requester's connection.
    Final { conn: ConnId, resp: Box<Response> },
    /// Exit the event loop.
    Stop,
}

// ---------------------------------------------------------------------
// Consistent-hash placement
// ---------------------------------------------------------------------

/// A consistent-hash ring over shard indices with virtual nodes, so
/// adding a shard at a future N+1 remaps only ~1/N of the key space.
pub struct HashRing {
    /// Sorted `(point, shard)` pairs.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    const VNODES: usize = 64;

    pub fn new(shards: usize) -> HashRing {
        let shards = shards.max(1);
        let mut points = Vec::with_capacity(shards * Self::VNODES);
        for shard in 0..shards {
            for vnode in 0..Self::VNODES {
                let mut h = DefaultHasher::new();
                (shard as u64, vnode as u64, 0x6e61745f72696e67u64).hash(&mut h);
                points.push((h.finish(), shard));
            }
        }
        points.sort_unstable();
        points.dedup_by_key(|p| p.0);
        HashRing { points }
    }

    /// Map a key to its shard: the first ring point clockwise from the
    /// key (wrapping).
    pub fn route(&self, key: u64) -> usize {
        let idx = self.points.partition_point(|&(point, _)| point < key);
        self.points[if idx == self.points.len() { 0 } else { idx }].1
    }
}

fn content_hash(inst: &Instance) -> u64 {
    let mut h = DefaultHasher::new();
    inst.g.hash(&mut h);
    inst.jobs.hash(&mut h);
    h.finish()
}

/// Routing key for an instance: the content hash of its *dominant*
/// decomposition shard (most jobs; ties to the earliest), normalized to
/// offset 0 — so instances sharing their heaviest laminar component
/// reuse one engine's cache. Non-laminar instances key on their whole
/// content.
pub fn route_key(inst: &Instance) -> u64 {
    match atsched_core::decompose::decompose(inst) {
        Ok(dec) => {
            let mut best: Option<&atsched_core::decompose::Shard> = None;
            for shard in &dec.shards {
                if best.is_none_or(|b| shard.jobs.len() > b.jobs.len()) {
                    best = Some(shard);
                }
            }
            match best {
                Some(shard) => content_hash(&shard.instance),
                None => content_hash(inst),
            }
        }
        Err(_) => content_hash(inst),
    }
}

/// Routing key for a batch: combined key of its members, so an
/// identical resubmission lands on the same warmed shard.
pub fn batch_key(instances: &[Instance]) -> u64 {
    let mut h = DefaultHasher::new();
    for inst in instances {
        route_key(inst).hash(&mut h);
    }
    h.finish()
}

// ---------------------------------------------------------------------
// The per-reactor service loop
// ---------------------------------------------------------------------

/// One in-flight (admitted, unanswered) request on a connection.
struct Pending {
    seq: u64,
    timer: Option<TimerId>,
    id: Option<u64>,
    verb: String,
    budget: Option<Duration>,
}

/// The serve-protocol service driven by one reactor.
pub(crate) struct ServeLoop {
    shared: Arc<Shared>,
    /// This reactor's index (reactor 0 owns the listener).
    index: usize,
    /// Round-robin cursor for distributing accepted connections.
    next_rr: usize,
    /// Monotonic per-reactor sequence for matching replies to requests.
    next_seq: u64,
    pending: HashMap<ConnId, Pending>,
    /// Connection whose next flush acknowledges the drain snapshot.
    ack: Option<ConnId>,
}

impl ServeLoop {
    pub(crate) fn new(shared: Arc<Shared>, index: usize) -> ServeLoop {
        ServeLoop { shared, index, next_rr: 0, next_seq: 0, pending: HashMap::new(), ack: None }
    }

    fn reply(&self, ctx: &mut Ctx<'_>, conn: ConnId, resp: &Response) -> bool {
        let line = encode_frame(resp, &self.shared.metrics);
        ctx.send(conn, line.into_bytes())
    }

    fn schedule_sweep(&self, ctx: &mut Ctx<'_>) {
        let ttl = self.shared.cfg.session_ttl;
        let period = (ttl / 2).clamp(Duration::from_millis(10), Duration::from_secs(30));
        ctx.schedule(period, SWEEP_TIMER_DATA);
    }

    /// Route one parsed, non-shutdown request.
    fn handle_request(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, req: Request) {
        if let Some(reject) = crate::server::check_version(&req) {
            self.shared.metrics.bad_request();
            self.reply(ctx, conn, &reject);
            return;
        }
        match req.verb.as_str() {
            verb::HEALTH => {
                let resp = if self.shared.gate.is_draining() {
                    Response::error(
                        req.id,
                        Some(verb::HEALTH),
                        kind::SHUTTING_DOWN,
                        "service is draining".into(),
                    )
                } else {
                    Response::ok(req.id, verb::HEALTH)
                };
                self.reply(ctx, conn, &resp);
            }
            verb::STATS => {
                // Eager sweep: `stats` reports a session table with no
                // TTL-expired stragglers in it.
                sweep_sessions(&self.shared);
                let resp = Response::ok_stats(req.id, verb::STATS, snapshot_all(&self.shared));
                self.reply(ctx, conn, &resp);
            }
            verb::METRICS => {
                // The text scrape over the protocol port: same snapshot
                // as `stats`, rendered as Prometheus exposition. Inline
                // like `stats` — no solver pool is touched.
                sweep_sessions(&self.shared);
                let snap = snapshot_all(&self.shared);
                let resp =
                    Response::ok_metrics(req.id, crate::scrape::render_prometheus(&snap.registry));
                self.reply(ctx, conn, &resp);
            }
            verb::CLOSE => {
                let resp = handle_close(&self.shared, &req);
                self.reply(ctx, conn, &resp);
            }
            verb::SOLVE | verb::BATCH | verb::OPEN | verb::AMEND => self.admit(ctx, conn, req),
            other => {
                self.shared.metrics.bad_request();
                let resp = Response::error(
                    req.id,
                    Some(other),
                    kind::BAD_REQUEST,
                    format!("unknown verb '{other}'"),
                );
                self.reply(ctx, conn, &resp);
            }
        }
    }

    /// Validate, pick a shard, and dispatch to its admission queue; the
    /// connection pauses until the reply (or deadline) resumes it.
    fn admit(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, req: Request) {
        let shared = Arc::clone(&self.shared);
        let id = req.id;
        let verb_name = req.verb.clone();
        if shared.gate.is_draining() {
            shared.metrics.shed_shutdown();
            let resp = Response::error(
                id,
                Some(verb_name.as_str()),
                kind::SHUTTING_DOWN,
                "service is draining".into(),
            );
            self.reply(ctx, conn, &resp);
            return;
        }
        let work = match validate(&req, shared.cfg.default_timeout) {
            Ok(work) => work,
            Err(message) => {
                shared.metrics.bad_request();
                let resp =
                    Response::error(id, Some(verb_name.as_str()), kind::BAD_REQUEST, message);
                self.reply(ctx, conn, &resp);
                return;
            }
        };

        // Satellite: bound the session table. `open` is refused with a
        // typed `overloaded` before touching a queue once the live
        // table (plus in-flight opens) hits the cap.
        let reserved_open = matches!(work, Work::Open { .. });
        if reserved_open {
            sweep_sessions(&shared);
            let live = shared.sessions.lock().expect("sessions lock").len()
                + shared.open_reservations.load(Ordering::SeqCst);
            if live >= shared.cfg.max_sessions {
                shared.metrics.shed_overload();
                let resp = Response::error(
                    id,
                    Some(verb_name.as_str()),
                    kind::OVERLOADED,
                    format!("session table full ({} sessions)", shared.cfg.max_sessions),
                );
                self.reply(ctx, conn, &resp);
                return;
            }
            shared.open_reservations.fetch_add(1, Ordering::SeqCst);
        }

        let shard = match &work {
            Work::Solve { inst, .. } | Work::Open { inst, .. } => {
                shared.ring.route(route_key(inst))
            }
            Work::Batch { instances, .. } => shared.ring.route(batch_key(instances)),
            // Amends run on the shard that opened the session (cache
            // affinity); an unknown session routes by its id and the
            // worker answers the typed error.
            Work::Amend { session, .. } => {
                let table = shared.sessions.lock().expect("sessions lock");
                match table.get(session) {
                    Some(entry) => entry.shard,
                    None => *session as usize % shared.shards.len(),
                }
            }
        };

        let budget = timeout_of(&work);
        let seq = self.next_seq;
        self.next_seq += 1;
        // Birth of the request trace: server-assigned id, verb, and the
        // owning shard travel with the job; solver spans append their
        // stage breadcrumbs to it on the worker.
        let rid = shared.next_request_id.fetch_add(1, Ordering::SeqCst) + 1;
        let trace = Arc::new(RequestTrace::new(rid, verb_name.as_str()));
        trace.set_shard(shard as u64);
        shared.shard_requests[shard].inc();
        let job = Job {
            id,
            work,
            conn,
            seq,
            reply_to: shared.remote(self.index),
            admitted: Instant::now(),
            trace,
        };
        match shared.shards[shard].queue.try_push(job) {
            Ok(()) => {
                shared.metrics.admitted();
                // Failsafe deadline: the worker's `with_budget` answers
                // first in the normal case; this timer only preempts if
                // the worker is wedged or the queue is deeply backed up.
                let timer = budget.map(|b| ctx.schedule(b + DEADLINE_SLACK, conn.as_u64()));
                self.pending.insert(conn, Pending { seq, timer, id, verb: verb_name, budget });
                ctx.pause_reading(conn);
            }
            Err(crate::admission::Admit::Full(_)) => {
                if reserved_open {
                    shared.open_reservations.fetch_sub(1, Ordering::SeqCst);
                }
                shared.metrics.shed_overload();
                let resp = Response::error(
                    id,
                    Some(verb_name.as_str()),
                    kind::OVERLOADED,
                    format!(
                        "admission queue full ({} slots)",
                        shared.shards[shard].queue.capacity()
                    ),
                );
                self.reply(ctx, conn, &resp);
            }
            Err(crate::admission::Admit::Closed(_)) => {
                if reserved_open {
                    shared.open_reservations.fetch_sub(1, Ordering::SeqCst);
                }
                shared.metrics.shed_shutdown();
                let resp = Response::error(
                    id,
                    Some(verb_name.as_str()),
                    kind::SHUTTING_DOWN,
                    "service is draining".into(),
                );
                self.reply(ctx, conn, &resp);
            }
        }
    }

    /// First `shutdown` wins: close every queue and hand the drain to
    /// the coordinator; the response is the final snapshot, delivered
    /// as [`Msg::Final`] once the workers have drained.
    fn handle_shutdown(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, req: Request) {
        let shared = Arc::clone(&self.shared);
        if !shared.gate.begin() {
            shared.metrics.shed_shutdown();
            let resp = Response::error(
                req.id,
                Some(verb::SHUTDOWN),
                kind::SHUTTING_DOWN,
                "service is already draining".into(),
            );
            self.reply(ctx, conn, &resp);
            return;
        }
        for shard in shared.shards.iter() {
            shard.queue.close();
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.insert(
            conn,
            Pending { seq, timer: None, id: req.id, verb: verb::SHUTDOWN.into(), budget: None },
        );
        ctx.pause_reading(conn);
        let _ = shared.drain_tx.send(DrainEvent::Request { reactor: self.index, conn, id: req.id });
    }
}

impl Service for ServeLoop {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.index == 0 {
            self.schedule_sweep(ctx);
        }
    }

    fn on_accept(&mut self, ctx: &mut Ctx<'_>, stream: TcpStream, _peer: SocketAddr) {
        let remotes = self.shared.remotes();
        let n = remotes.len();
        if n > 1 {
            let target = self.next_rr % n;
            self.next_rr += 1;
            if target != self.index {
                let _ = remotes[target].send(Msg::Conn(stream));
                return;
            }
        }
        let _ = ctx.adopt(stream);
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, line: String) {
        if line.trim().is_empty() {
            return; // tolerate blank keep-alive lines
        }
        self.shared.metrics.frame_received();
        let req = match serde_json::from_str::<Request>(&line) {
            Ok(req) => req,
            Err(e) => {
                self.shared.metrics.bad_request();
                let resp = Response::error(None, None, kind::BAD_REQUEST, e.to_string());
                self.reply(ctx, conn, &resp);
                return;
            }
        };
        if req.verb == verb::SHUTDOWN {
            self.handle_shutdown(ctx, conn, req);
        } else {
            self.handle_request(ctx, conn, req);
        }
    }

    fn on_frame_error(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, err: FrameError) {
        self.shared.metrics.frame_received();
        self.shared.metrics.bad_request();
        let resp = Response::error(None, None, kind::BAD_REQUEST, err.to_string());
        self.reply(ctx, conn, &resp);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerId, data: u64) {
        if data == SWEEP_TIMER_DATA {
            sweep_sessions(&self.shared);
            self.schedule_sweep(ctx);
            return;
        }
        // Deadline failsafe fired: answer `timed_out` ourselves and
        // drop the worker's eventual reply (stale seq).
        let conn = ConnId::from_u64(data);
        let stale = matches!(self.pending.get(&conn), Some(p) if p.timer == Some(timer));
        if stale {
            let p = self.pending.remove(&conn).expect("pending checked above");
            self.shared.metrics.deadline_preempt();
            let resp = deadline_response(p.id, &p.verb, p.budget);
            self.reply(ctx, conn, &resp);
            ctx.resume_reading(conn);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg {
            Msg::Conn(stream) => {
                let _ = ctx.adopt(stream);
            }
            Msg::Reply { conn, seq, resp } => {
                let current = self.pending.get(&conn).is_some_and(|p| p.seq == seq);
                if !current {
                    return; // preempted by the deadline, or the conn died
                }
                let p = self.pending.remove(&conn).expect("pending checked above");
                if let Some(t) = p.timer {
                    ctx.cancel_timer(t);
                }
                self.reply(ctx, conn, &resp);
                ctx.resume_reading(conn);
            }
            Msg::Final { conn, resp } => {
                self.pending.remove(&conn);
                if self.reply(ctx, conn, &resp) {
                    // Acknowledge to the coordinator once the snapshot
                    // actually reaches the socket, then close.
                    self.ack = Some(conn);
                    ctx.close_after_flush(conn);
                } else {
                    let _ = self.shared.drain_written_tx.send(());
                }
            }
            Msg::Stop => ctx.stop(),
        }
    }

    fn on_flush(&mut self, _ctx: &mut Ctx<'_>, conn: ConnId) {
        if self.ack == Some(conn) {
            self.ack = None;
            let _ = self.shared.drain_written_tx.send(());
        }
    }

    fn on_close(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        if let Some(p) = self.pending.remove(&conn) {
            if let Some(t) = p.timer {
                ctx.cancel_timer(t);
            }
        }
        if self.ack == Some(conn) {
            // The drain requester died before the flush: unblock the
            // coordinator anyway.
            self.ack = None;
            let _ = self.shared.drain_written_tx.send(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atsched_core::instance::Job as CoreJob;

    fn inst(g: i64, jobs: &[(i64, i64, i64)]) -> Instance {
        Instance::new(g, jobs.iter().map(|&(r, d, p)| CoreJob::new(r, d, p)).collect()).unwrap()
    }

    #[test]
    fn ring_is_deterministic_and_covers_all_shards() {
        let ring = HashRing::new(4);
        let mut hit = [false; 4];
        for key in 0..4096u64 {
            let shard = ring.route(key.wrapping_mul(0x9e3779b97f4a7c15));
            assert!(shard < 4);
            hit[shard] = true;
            assert_eq!(shard, ring.route(key.wrapping_mul(0x9e3779b97f4a7c15)));
        }
        assert!(hit.iter().all(|&h| h), "some shard never selected: {hit:?}");
    }

    #[test]
    fn ring_growth_remaps_only_a_fraction() {
        let small = HashRing::new(4);
        let big = HashRing::new(5);
        let keys: Vec<u64> = (0..4096u64).map(|k| k.wrapping_mul(0x2545f4914f6cdd1d)).collect();
        let moved = keys
            .iter()
            .filter(|&&k| {
                let s = small.route(k);
                let b = big.route(k);
                s != b && b != 4 // moved somewhere other than the new shard
            })
            .count();
        // Consistent hashing: keys either stay or move to the new
        // shard; cross-moves are rare (vnode boundary effects).
        assert!(moved < keys.len() / 10, "{moved} of {} keys cross-moved", keys.len());
    }

    #[test]
    fn identical_instances_share_a_route_key() {
        let a = inst(2, &[(0, 4, 2), (1, 3, 1)]);
        let b = inst(2, &[(0, 4, 2), (1, 3, 1)]);
        assert_eq!(route_key(&a), route_key(&b));
        assert_ne!(route_key(&a), route_key(&inst(2, &[(0, 4, 2)])));
    }

    #[test]
    fn route_key_follows_the_dominant_decompose_shard() {
        // Two disjoint laminar components; the 3-job one dominates.
        let dominant = inst(2, &[(0, 8, 2), (1, 6, 1), (2, 5, 1)]);
        let with_extra = inst(2, &[(0, 8, 2), (1, 6, 1), (2, 5, 1), (100, 104, 1)]);
        // Same dominant component (offset-normalized) => same key, even
        // though the full instances differ.
        assert_eq!(route_key(&dominant), route_key(&with_extra));
    }
}
