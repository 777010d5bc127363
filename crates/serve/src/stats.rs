//! Service observability, backed by the shared [`atsched_obs`]
//! registry.
//!
//! The server and its engine write into one [`Registry`]: request
//! counters land under `serve.*`, solver internals (simplex pivots,
//! flow augmentations, stage spans) under their own prefixes, and the
//! `stats` verb ships the whole registry snapshot over the wire
//! alongside the typed [`StatsReply`] fields.

use crate::protocol::{SlowRequest, StatsReply};
use atsched_engine::{Engine, Percentiles};
use atsched_obs::{
    Counter, Gauge, HistogramSnapshot, Registry, WindowedCounter, WindowedHistogram,
};
use std::sync::Arc;
use std::time::Instant;

/// Request counters, all interned in the shared registry so every
/// connection and worker thread shares one instance through an `Arc`.
///
/// The hot instruments are resolved once at construction: emission is a
/// plain atomic bump, never a name lookup. The request-plane
/// instruments (`received`, `completed`, the latency histogram) carry
/// windowed views, so `stats` and the scrape surface report 10s/1m/5m
/// rates and windowed percentiles next to the lifetime values; solver
/// counters stay plain.
pub struct ServerMetrics {
    registry: Arc<Registry>,
    received: Arc<WindowedCounter>,
    bad_requests: Arc<Counter>,
    accepted: Arc<Counter>,
    rejected_overload: Arc<Counter>,
    rejected_shutdown: Arc<Counter>,
    completed: Arc<WindowedCounter>,
    solve_errors: Arc<Counter>,
    serialize_errors: Arc<Counter>,
    timed_out: Arc<Counter>,
    sessions_opened: Arc<Counter>,
    sessions_closed: Arc<Counter>,
    sessions_expired: Arc<Counter>,
    sessions_evicted: Arc<Counter>,
    deadline_preempts: Arc<Counter>,
    inflight: Arc<Gauge>,
    /// End-to-end latency (admission → response): lifetime histogram
    /// plus the 10s/1m/5m windowed view.
    latency: Arc<WindowedHistogram>,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new(Arc::new(Registry::new()))
    }
}

impl ServerMetrics {
    /// Metrics writing into `registry` under the `serve.*` prefix.
    pub fn new(registry: Arc<Registry>) -> Self {
        ServerMetrics {
            received: registry.windowed_counter("serve.received"),
            bad_requests: registry.counter("serve.bad_requests"),
            accepted: registry.counter("serve.accepted"),
            rejected_overload: registry.counter("serve.rejected_overload"),
            rejected_shutdown: registry.counter("serve.rejected_shutdown"),
            completed: registry.windowed_counter("serve.completed"),
            solve_errors: registry.counter("serve.solve_errors"),
            serialize_errors: registry.counter("serve.serialize_errors"),
            timed_out: registry.counter("serve.timed_out"),
            sessions_opened: registry.counter("serve.sessions_opened"),
            sessions_closed: registry.counter("serve.sessions_closed"),
            sessions_expired: registry.counter("serve.sessions_expired"),
            sessions_evicted: registry.counter("serve.sessions_evicted"),
            deadline_preempts: registry.counter("serve.deadline_preempts"),
            inflight: registry.gauge("serve.inflight"),
            latency: registry.windowed_histogram("serve.latency_ms"),
            registry,
        }
    }

    /// The registry this instance writes into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// A frame was read off a connection (well-formed or not).
    pub fn frame_received(&self) {
        self.received.inc();
    }

    /// A frame was rejected before admission.
    pub fn bad_request(&self) {
        self.bad_requests.inc();
    }

    /// A request entered the admission queue.
    pub fn admitted(&self) {
        self.accepted.inc();
        self.inflight.add(1);
    }

    /// A request was shed because the queue was full.
    pub fn shed_overload(&self) {
        self.rejected_overload.inc();
    }

    /// A request was refused because the service is draining.
    pub fn shed_shutdown(&self) {
        self.rejected_shutdown.inc();
    }

    /// A response failed to serialize and a fallback frame was sent
    /// in its place.
    pub fn serialize_error(&self) {
        self.serialize_errors.inc();
    }

    /// An incremental session was opened.
    pub fn session_opened(&self) {
        self.sessions_opened.inc();
    }

    /// A session was closed by explicit client request.
    pub fn session_closed(&self) {
        self.sessions_closed.inc();
    }

    /// An idle session was evicted by the TTL sweep.
    pub fn session_expired(&self) {
        self.sessions_expired.inc();
    }

    /// A live session was force-closed by the shutdown drain.
    pub fn session_evicted(&self) {
        self.sessions_evicted.inc();
    }

    /// A reactor answered `timed_out` for a request whose worker had
    /// not replied by the deadline (plus slack).
    pub fn deadline_preempt(&self) {
        self.deadline_preempts.inc();
    }

    /// An admitted request finished with the given disposition.
    pub fn finished(&self, latency_ms: f64, deadline_overrun: bool, solve_error: bool) {
        self.completed.inc();
        self.inflight.add(-1);
        if deadline_overrun {
            self.timed_out.inc();
        }
        if solve_error {
            self.solve_errors.inc();
        }
        self.latency.record(latency_ms);
    }

    /// Requests admitted but not yet answered.
    pub fn inflight(&self) -> u64 {
        self.inflight.get().max(0) as u64
    }

    /// Build a wire-ready snapshot of everything observable: the
    /// engine's cache and outcome totals, the caller's queue figures,
    /// session count and recent slow-request list (it owns the queue,
    /// session table and event log), and the server-level counters from
    /// the registry the engine also writes into.
    pub fn snapshot(
        &self,
        engine: &Engine,
        started: Instant,
        queue_len: usize,
        queue_capacity: usize,
        sessions_open: u64,
        slow: Vec<SlowRequest>,
    ) -> StatsReply {
        let cache = engine.cache_stats();
        let (hits, misses) = (cache.hits, cache.misses);
        let entries = engine.cache_len() as u64;
        let hit_rate = if hits + misses == 0 { 0.0 } else { hits as f64 / (hits + misses) as f64 };
        // Mirror externally-sourced cache totals into gauges so the
        // registry snapshot is self-contained for generic consumers.
        self.registry.gauge("engine.cache.hits").set(hits as i64);
        self.registry.gauge("engine.cache.misses").set(misses as i64);
        self.registry.gauge("engine.cache.evictions").set(cache.evictions as i64);
        self.registry.gauge("engine.cache.entries").set(entries as i64);
        StatsReply {
            uptime_ms: started.elapsed().as_secs_f64() * 1e3,
            received: self.received.get(),
            bad_requests: self.bad_requests.get(),
            accepted: self.accepted.get(),
            rejected_overload: self.rejected_overload.get(),
            rejected_shutdown: self.rejected_shutdown.get(),
            completed: self.completed.get(),
            solve_errors: self.solve_errors.get(),
            timed_out: self.timed_out.get(),
            inflight: self.inflight(),
            queue_len: queue_len as u64,
            queue_capacity: queue_capacity as u64,
            cache_hits: hits,
            cache_misses: misses,
            cache_hit_rate: hit_rate,
            cache_entries: entries,
            sessions_open,
            slow,
            engine: engine.totals(),
            latency_ms: Percentiles::from_snapshot(&HistogramSnapshot::of(self.latency.lifetime())),
            registry: self.registry.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atsched_engine::EngineConfig;

    #[test]
    fn counters_and_snapshot() {
        let m = ServerMetrics::default();
        m.frame_received();
        m.frame_received();
        m.bad_request();
        m.admitted();
        m.admitted();
        m.shed_overload();
        m.finished(2.0, false, false);
        m.finished(4.0, true, false);
        assert_eq!(m.inflight(), 0);

        let engine = Engine::new(EngineConfig::default());
        let snap = m.snapshot(&engine, Instant::now(), 3, 8, 0, Vec::new());
        assert_eq!(snap.received, 2);
        assert_eq!(snap.bad_requests, 1);
        assert_eq!(snap.accepted, 2);
        assert_eq!(snap.rejected_overload, 1);
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.timed_out, 1);
        assert_eq!(snap.queue_len, 3);
        assert_eq!(snap.queue_capacity, 8);
        assert_eq!(snap.latency_ms.max, 4.0);
        // The registry snapshot carries the same counters.
        assert_eq!(snap.registry.counter("serve.received"), Some(2));
        assert_eq!(snap.registry.counter("serve.accepted"), Some(2));
        assert_eq!(snap.registry.gauge("serve.inflight"), Some(0));
        assert_eq!(snap.registry.histogram("serve.latency_ms").unwrap().count, 2);
        // Request-plane instruments opted into windowing, so the
        // snapshot carries their 10s/1m/5m sections too.
        assert!(snap.registry.window("serve.received").is_some());
        assert!(snap.registry.window("serve.completed").is_some());
        assert_eq!(snap.registry.window_histogram("serve.latency_ms").unwrap().w10s.count, 2);
        assert!(snap.slow.is_empty());
        // The snapshot survives the wire format.
        let line = serde_json::to_string(&snap).unwrap();
        let back: StatsReply = serde_json::from_str(&line).unwrap();
        assert_eq!(back.accepted, 2);
        assert_eq!(back.engine.solved, 0);
        assert_eq!(back.registry, snap.registry);
    }

    #[test]
    fn shared_registry_merges_server_and_engine_metrics() {
        let registry = Arc::new(Registry::new());
        let engine = Engine::with_registry(EngineConfig::default(), Arc::clone(&registry));
        let m = ServerMetrics::new(Arc::clone(&registry));
        m.admitted();
        m.finished(1.0, false, false);
        engine.registry().counter("lp.pivots").add(7);
        let snap = m.snapshot(&engine, Instant::now(), 0, 4, 0, Vec::new());
        assert_eq!(snap.registry.counter("serve.completed"), Some(1));
        assert_eq!(snap.registry.counter("lp.pivots"), Some(7));
        assert_eq!(snap.registry.gauge("engine.cache.entries"), Some(0));
    }
}
