//! RAII stage spans with self-time accounting.

use crate::collector::{current_collector, Collector};
use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    /// Per-thread stack of "nanoseconds spent in completed child
    /// spans" accumulators, one frame per live span.
    static CHILD_NS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// An RAII timing span around one named stage.
///
/// `Span::enter("lp")` starts the clock; dropping the guard records
/// two histograms in the installed collector's registry —
/// `span.lp.ms` (wall time) and `span.lp.self_ms` (wall minus time
/// spent in spans nested inside it) — and, if the collector carries a
/// [`crate::TraceBuffer`], appends a Chrome complete event. When no
/// collector is installed on the thread, `enter` is a cheap no-op.
///
/// Recording happens in `Drop`, so a span whose body panics still
/// flushes its timing while the panic unwinds through it.
#[must_use = "a span records on drop; binding it to _ ends it immediately"]
#[derive(Debug)]
pub struct Span {
    ctx: Option<SpanCtx>,
}

#[derive(Debug)]
struct SpanCtx {
    name: &'static str,
    start: Instant,
    collector: Collector,
}

impl Span {
    /// Start a span named `name` if a collector is installed on this
    /// thread; otherwise return an inert guard.
    pub fn enter(name: &'static str) -> Span {
        let Some(collector) = current_collector() else {
            return Span { ctx: None };
        };
        CHILD_NS.with(|s| s.borrow_mut().push(0));
        Span { ctx: Some(SpanCtx { name, start: Instant::now(), collector }) }
    }

    /// The stage name, or `None` for an inert guard.
    pub fn name(&self) -> Option<&'static str> {
        self.ctx.as_ref().map(|c| c.name)
    }

    /// Record this span under `name` instead, for a stage whose outcome
    /// decides what it was (e.g. an attempt that turned out discarded).
    pub fn rename(&mut self, name: &'static str) {
        if let Some(ctx) = &mut self.ctx {
            ctx.name = name;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(ctx) = self.ctx.take() else { return };
        let dur = ctx.start.elapsed();
        let dur_ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
        let child_ns = CHILD_NS.with(|s| {
            let mut stack = s.borrow_mut();
            let own_children = stack.pop().unwrap_or(0);
            if let Some(parent) = stack.last_mut() {
                *parent = parent.saturating_add(dur_ns);
            }
            own_children
        });
        let self_ns = dur_ns.saturating_sub(child_ns);
        let reg = &ctx.collector.registry;
        reg.histogram(&format!("span.{}.ms", ctx.name)).record(dur_ns as f64 / 1e6);
        reg.histogram(&format!("span.{}.self_ms", ctx.name)).record(self_ns as f64 / 1e6);
        if let Some(trace) = &ctx.collector.trace {
            if !trace.record(ctx.name, ctx.start, dur) {
                // Overflow is rare (buffer-capacity sized); the interned
                // lookup on this cold path keeps the hot path free of it.
                reg.counter("obs.trace_dropped").inc();
            }
        }
        if let Some(request) = &ctx.collector.request {
            request.record_stage(ctx.name, dur_ns as f64 / 1e6);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::with_collector;
    use crate::registry::Registry;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn span_without_collector_is_inert() {
        let span = Span::enter("idle");
        assert_eq!(span.name(), None);
    }

    #[test]
    fn renamed_span_records_under_its_new_name() {
        let reg = Arc::new(Registry::new());
        with_collector(Collector::new(Arc::clone(&reg)), || {
            let mut span = Span::enter("attempt");
            span.rename("attempt.discarded");
            assert_eq!(span.name(), Some("attempt.discarded"));
        });
        let snap = reg.snapshot();
        assert!(snap.histogram("span.attempt.ms").is_none());
        assert_eq!(snap.histogram("span.attempt.discarded.ms").unwrap().count, 1);
    }

    #[test]
    fn nested_span_self_time_excludes_children() {
        let reg = Arc::new(Registry::new());
        with_collector(Collector::new(Arc::clone(&reg)), || {
            let _outer = Span::enter("outer");
            std::thread::sleep(Duration::from_millis(5));
            {
                let _inner = Span::enter("inner");
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let snap = reg.snapshot();
        let outer_total = snap.histogram("span.outer.ms").unwrap().max;
        let outer_self = snap.histogram("span.outer.self_ms").unwrap().max;
        let inner_total = snap.histogram("span.inner.ms").unwrap().max;
        assert!(outer_total >= 25.0, "outer total {outer_total}");
        assert!(inner_total >= 20.0, "inner total {inner_total}");
        // The accounting identity self = total − child holds exactly
        // regardless of scheduler preemption (which can inflate any
        // individual wall time), so assert that rather than comparing
        // two sleeps against each other.
        assert!(
            (outer_total - (outer_self + inner_total)).abs() < 5.0,
            "total {outer_total} ≠ self {outer_self} + child {inner_total}"
        );
        assert!(
            outer_self < outer_total,
            "self {outer_self} must exclude the child's {inner_total} from total {outer_total}"
        );
    }

    #[test]
    fn span_records_on_drop_during_panic_unwind() {
        let reg = Arc::new(Registry::new());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_collector(Collector::new(Arc::clone(&reg)), || {
                let _span = Span::enter("doomed");
                panic!("solver bug");
            })
        }));
        assert!(result.is_err());
        assert_eq!(reg.snapshot().histogram("span.doomed.ms").unwrap().count, 1);
    }

    #[test]
    fn sibling_spans_accumulate_into_parent_child_time() {
        let reg = Arc::new(Registry::new());
        with_collector(Collector::new(Arc::clone(&reg)), || {
            let _outer = Span::enter("parent");
            for _ in 0..3 {
                let _child = Span::enter("leaf");
                std::thread::sleep(Duration::from_millis(4));
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.histogram("span.leaf.ms").unwrap().count, 3);
        let parent_total = snap.histogram("span.parent.ms").unwrap().max;
        let parent_self = snap.histogram("span.parent.self_ms").unwrap().max;
        assert!(
            parent_self <= parent_total - 10.0,
            "self {parent_self} vs total {parent_total}: three 4ms children must be excluded"
        );
    }
}
