//! Request-scoped tracing: a server-assigned id plus per-stage
//! breadcrumbs, and a bounded structured event log for slow or errored
//! requests.
//!
//! A [`RequestTrace`] is created by whoever admits a request (the serve
//! reactor), attached to the worker's [`crate::Collector`], and filled
//! automatically: every [`crate::Span`] that drops while the collector
//! carries the trace appends a `(stage, duration)` breadcrumb. Because
//! the engine's isolation helpers re-install the caller's collector on
//! helper and pool threads, breadcrumbs from shard solves and budgeted
//! solves land on the same trace as the admitting request — which is
//! what makes one slow solve attributable to its connection, verb, and
//! LP stage.
//!
//! The trace is deliberately cheap enough to be on by default: one
//! `Arc` allocation per request, and one short mutex-guarded push per
//! completed span (spans are per-stage, not per-iteration).

use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// One completed stage inside a request.
#[derive(Debug, Clone, PartialEq)]
pub struct StageBreadcrumb {
    /// Span name (`solve`, `lp`, `round`, ...).
    pub name: &'static str,
    /// Stage wall time, milliseconds.
    pub ms: f64,
}

/// Per-request trace context: a server-assigned id, the request verb,
/// and the per-stage span breadcrumbs collected while it executed.
#[derive(Debug)]
pub struct RequestTrace {
    id: u64,
    verb: String,
    started: Instant,
    stages: Mutex<Vec<StageBreadcrumb>>,
}

fn lock(m: &Mutex<Vec<StageBreadcrumb>>) -> MutexGuard<'_, Vec<StageBreadcrumb>> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl RequestTrace {
    /// A fresh trace for request `id` executing `verb`.
    pub fn new(id: u64, verb: impl Into<String>) -> Self {
        RequestTrace {
            id,
            verb: verb.into(),
            started: Instant::now(),
            stages: Mutex::new(Vec::new()),
        }
    }

    /// The server-assigned request id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The request verb.
    pub fn verb(&self) -> &str {
        &self.verb
    }

    /// Milliseconds since the trace was created.
    pub fn elapsed_ms(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * 1e3
    }

    /// Append one stage breadcrumb (called from [`crate::Span`] drops).
    pub fn record_stage(&self, name: &'static str, ms: f64) {
        lock(&self.stages).push(StageBreadcrumb { name, ms });
    }

    /// Copy of the breadcrumbs, in completion order.
    pub fn stages(&self) -> Vec<StageBreadcrumb> {
        lock(&self.stages).clone()
    }
}

/// One finished request worth keeping: its identity, outcome, and
/// per-stage timings, snapshotted from the [`RequestTrace`] when the
/// reply was sent.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestEvent {
    /// Server-assigned request id.
    pub id: u64,
    /// Request verb.
    pub verb: String,
    /// End-to-end latency, milliseconds.
    pub total_ms: f64,
    /// Error kind for failed requests (`None` = success).
    pub error: Option<String>,
    /// Stage breadcrumbs as `(name, ms)`, in completion order.
    pub stages: Vec<(String, f64)>,
}

impl RequestEvent {
    /// Snapshot a finished trace into an event.
    pub fn from_trace(trace: &RequestTrace, total_ms: f64, error: Option<String>) -> Self {
        RequestEvent {
            id: trace.id(),
            verb: trace.verb().to_string(),
            total_ms,
            error,
            stages: trace.stages().into_iter().map(|s| (s.name.to_string(), s.ms)).collect(),
        }
    }
}

/// Bounded ring of recent noteworthy requests (slow or errored).
///
/// Pushing past the capacity evicts the oldest entry — the log answers
/// "what went wrong *recently*", not "what ever went wrong"; lifetime
/// accounting lives in the registry counters.
#[derive(Debug)]
pub struct EventLog {
    capacity: usize,
    entries: Mutex<std::collections::VecDeque<RequestEvent>>,
}

impl EventLog {
    /// A log keeping at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        EventLog {
            capacity: capacity.max(1),
            entries: Mutex::new(std::collections::VecDeque::new()),
        }
    }

    /// Append an event, evicting the oldest past capacity.
    pub fn push(&self, event: RequestEvent) {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if entries.len() == self.capacity {
            entries.pop_front();
        }
        entries.push_back(event);
    }

    /// The most recent `n` events, newest first.
    pub fn recent(&self, n: usize) -> Vec<RequestEvent> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.iter().rev().take(n).cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{with_collector, Collector};
    use crate::registry::Registry;
    use crate::span::Span;
    use std::sync::Arc;

    #[test]
    fn spans_leave_breadcrumbs_on_the_collectors_request_trace() {
        let reg = Arc::new(Registry::new());
        let trace = Arc::new(RequestTrace::new(42, "solve"));
        let collector = Collector::new(reg).with_request(Arc::clone(&trace));
        with_collector(collector, || {
            let _outer = Span::enter("solve");
            let _inner = Span::enter("lp");
        });
        let stages = trace.stages();
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].name, "lp", "inner drops first");
        assert_eq!(stages[1].name, "solve");
        assert_eq!(trace.id(), 42);
        assert_eq!(trace.verb(), "solve");
    }

    #[test]
    fn event_log_is_bounded_and_newest_first() {
        let log = EventLog::new(2);
        for i in 0..5u64 {
            let trace = RequestTrace::new(i, "solve");
            log.push(RequestEvent::from_trace(&trace, i as f64, None));
        }
        assert_eq!(log.len(), 2);
        let recent = log.recent(10);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].id, 4);
        assert_eq!(recent[1].id, 3);
    }

    #[test]
    fn event_snapshots_carry_error_and_stages() {
        let trace = RequestTrace::new(7, "amend");
        trace.record_stage("amend", 3.5);
        let event = RequestEvent::from_trace(&trace, 4.0, Some("timed_out".into()));
        assert_eq!(event.error.as_deref(), Some("timed_out"));
        assert_eq!(event.stages, vec![("amend".to_string(), 3.5)]);
    }
}
