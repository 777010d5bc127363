//! Spans recorded by the benchmark around its calls into each layer,
//! kept in memory and written once at the end as Chrome trace-event
//! JSON (`chrome://tracing`, Perfetto).

use crate::report;
use serde::value::Value;
use std::time::{Duration, Instant};

/// One complete span. All spans of one operation share `op`.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Layer-qualified span name (`serve.rtt`, `core.lp`, ...).
    pub name: &'static str,
    /// Operation id shared by every span of one op.
    pub op: u64,
    /// Lane: client connection, or the replay lane.
    pub lane: u64,
    /// Start, microseconds since the run's origin.
    pub start_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
}

/// Span recorder for one thread; `None` origin means tracing is off and
/// every call is a no-op.
#[derive(Debug, Default)]
pub struct Spans {
    origin: Option<Instant>,
    lane: u64,
    /// Recorded spans.
    pub spans: Vec<SpanRec>,
}

impl Spans {
    /// Recorder for `lane`, timed from `origin` (off when `None`).
    pub fn new(origin: Option<Instant>, lane: u64) -> Spans {
        Spans { origin, lane, spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.origin.is_some()
    }

    /// Record `[start, end)` for operation `op`.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        self.record_dur(name, op, start, end.saturating_duration_since(start));
    }

    /// Record a span of `dur` starting at `start`.
    pub fn record_dur(&mut self, name: &'static str, op: u64, start: Instant, dur: Duration) {
        if let Some(origin) = self.origin {
            let start_us = start.saturating_duration_since(origin).as_secs_f64() * 1e6;
            let dur_us = dur.as_secs_f64() * 1e6;
            self.spans.push(SpanRec { name, op, lane: self.lane, start_us, dur_us });
        }
    }
}

/// Chrome trace-event JSON for `spans` (complete `X` events, one thread
/// lane each, the op id in `args.op`).
pub fn chrome_json(spans: &[SpanRec]) -> String {
    let events = spans
        .iter()
        .map(|s| {
            Value::Map(vec![
                ("name".into(), Value::Str(s.name.into())),
                ("cat".into(), Value::Str(s.name.split('.').next().unwrap_or("").into())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), Value::Float(s.start_us)),
                ("dur".into(), Value::Float(s.dur_us)),
                ("pid".into(), Value::UInt(1)),
                ("tid".into(), Value::UInt(s.lane)),
                ("args".into(), Value::Map(vec![("op".into(), Value::UInt(s.op))])),
            ])
        })
        .collect();
    let doc = Value::Map(vec![
        ("traceEvents".into(), Value::Seq(events)),
        ("displayTimeUnit".into(), Value::Str("ms".into())),
    ]);
    report::to_line(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_recorder_records_nothing_and_on_recorder_exports() {
        let now = Instant::now();
        let mut off = Spans::new(None, 0);
        off.record("serve.rtt", 1, now, now + Duration::from_micros(5));
        assert!(off.spans.is_empty());

        let mut on = Spans::new(Some(now), 2);
        on.record("serve.rtt", 7, now, now + Duration::from_micros(250));
        let json = chrome_json(&on.spans);
        assert!(json.contains(r#""name":"serve.rtt""#), "{json}");
        assert!(json.contains(r#""cat":"serve""#), "{json}");
        assert!(json.contains(r#""op":7"#), "{json}");
        assert!(json.contains(r#""tid":2"#), "{json}");
        assert!(json.contains(r#""dur":250"#), "{json}");
    }
}
