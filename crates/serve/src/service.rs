//! The reactor-side service loop: one [`atsched_net::Reactor`] owns the
//! listener and every connection, parses frames, answers the inline
//! verbs itself, and pushes solve work onto the server's one admission
//! queue; solver threads answer through the reactor's mailbox.
//!
//! The per-connection protocol stays strictly sequential: dispatching a
//! request pauses reading on that connection until the reply (or its
//! deadline preemption) resumes it, so replies can never cross-wire.

use crate::protocol::{kind, verb, Request, Response};
use crate::server::{
    deadline_response, encode_frame, handle_close, snapshot, sweep_sessions, timeout_of, validate,
    DrainEvent, Job, Shared, Work,
};
use atsched_net::{ConnId, Ctx, FrameError, Service, TimerId};
use atsched_obs::RequestTrace;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Extra grace the reactor-side deadline failsafe allows the worker
/// (whose `with_budget` normally answers first) before preempting.
pub(crate) const DEADLINE_SLACK: Duration = Duration::from_secs(1);

/// Timer payload for the periodic session sweep (cannot collide with a
/// connection id until 2^30 simultaneous slots exist).
const SWEEP_TIMER_DATA: u64 = 1 << 62;

/// Messages other threads inject into the reactor's mailbox.
pub(crate) enum Msg {
    /// A solver thread's answer for an in-flight request.
    Reply { conn: ConnId, seq: u64, resp: Box<Response> },
    /// The final drain snapshot: write it, acknowledge the flush to the
    /// coordinator, then close the requester's connection.
    Final { conn: ConnId, resp: Box<Response> },
    /// Exit the event loop.
    Stop,
}

// ---------------------------------------------------------------------
// The service loop
// ---------------------------------------------------------------------

/// One in-flight (admitted, unanswered) request on a connection.
struct Pending {
    seq: u64,
    timer: Option<TimerId>,
    id: Option<u64>,
    verb: String,
    budget: Option<Duration>,
}

/// The serve-protocol service driven by the reactor.
pub(crate) struct ServeLoop {
    shared: Arc<Shared>,
    /// Monotonic sequence for matching replies to requests.
    next_seq: u64,
    pending: HashMap<ConnId, Pending>,
    /// Connection whose next flush acknowledges the drain snapshot.
    ack: Option<ConnId>,
}

impl ServeLoop {
    pub(crate) fn new(shared: Arc<Shared>) -> ServeLoop {
        ServeLoop { shared, next_seq: 0, pending: HashMap::new(), ack: None }
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

    /// Answer or admit one parsed, non-shutdown request.
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
                let resp = Response::ok_stats(req.id, verb::STATS, snapshot(&self.shared));
                self.reply(ctx, conn, &resp);
            }
            verb::METRICS => {
                // The text scrape over the protocol port: same snapshot
                // as `stats`, rendered as Prometheus exposition. Inline
                // like `stats` — no solver pool is touched.
                sweep_sessions(&self.shared);
                let snap = snapshot(&self.shared);
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

    /// Validate and push onto the admission queue; the connection pauses
    /// until the reply (or deadline) resumes it.
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

        let budget = timeout_of(&work);
        let seq = self.next_seq;
        self.next_seq += 1;
        // Birth of the request trace: the server-assigned id and verb
        // travel with the job; solver spans append their stage
        // breadcrumbs to it on the worker.
        let rid = shared.next_request_id.fetch_add(1, Ordering::SeqCst) + 1;
        let trace = Arc::new(RequestTrace::new(rid, verb_name.as_str()));
        let job = Job { id, work, conn, seq, admitted: Instant::now(), trace };
        match shared.queue.try_push(job) {
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
                    format!("admission queue full ({} slots)", shared.queue.capacity()),
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

    /// First `shutdown` wins: close the queue and hand the drain to the
    /// coordinator; the response is the final snapshot, delivered
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
        shared.queue.close();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.insert(
            conn,
            Pending { seq, timer: None, id: req.id, verb: verb::SHUTDOWN.into(), budget: None },
        );
        ctx.pause_reading(conn);
        let _ = shared.drain_tx.send(DrainEvent::Request { conn, id: req.id });
    }
}

impl Service for ServeLoop {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.schedule_sweep(ctx);
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
