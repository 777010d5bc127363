//! Global-free metric registry and its serializable snapshot types.

use crate::metrics::{Counter, Gauge, Histogram};
use crate::window::{WindowRates, WindowedCounter, WindowedHistogram, WindowedHistogramSnapshot};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// Named home for counters, gauges, and histograms.
///
/// Instruments are created on first use and interned by name, so
/// `registry.counter("lp.pivots")` is cheap after the first call and
/// always returns the same underlying atomic. There is no global
/// registry: owners (the engine, the server) create one and hand out
/// `Arc<Registry>` clones.
///
/// Windowed views are opt-in per instrument:
/// [`windowed_counter`](Self::windowed_counter) /
/// [`windowed_histogram`](Self::windowed_histogram) wrap the same-name
/// lifetime instrument with an epoch-bucket ring, and snapshots then
/// carry 10s/1m/5m sections for exactly those instruments.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<HashMap<String, Arc<Counter>>>,
    gauges: Mutex<HashMap<String, Arc<Gauge>>>,
    histograms: Mutex<HashMap<String, Arc<Histogram>>>,
    windowed_counters: Mutex<HashMap<String, Arc<WindowedCounter>>>,
    windowed_histograms: Mutex<HashMap<String, Arc<WindowedHistogram>>>,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("counters", &lock(&self.counters).len())
            .field("gauges", &lock(&self.gauges).len())
            .field("histograms", &lock(&self.histograms).len())
            .field("windowed_counters", &lock(&self.windowed_counters).len())
            .field("windowed_histograms", &lock(&self.windowed_histograms).len())
            .finish()
    }
}

/// Ignore mutex poisoning: metric maps stay structurally valid even if
/// a panic unwound through an insert.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Registry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = lock(&self.counters);
        if let Some(c) = map.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        map.insert(name.to_string(), Arc::clone(&c));
        c
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = lock(&self.gauges);
        if let Some(g) = map.get(name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::new());
        map.insert(name.to_string(), Arc::clone(&g));
        g
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = lock(&self.histograms);
        if let Some(h) = map.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        map.insert(name.to_string(), Arc::clone(&h));
        h
    }

    /// Get or create a windowed view over the counter named `name`.
    ///
    /// The windowed counter wraps the same-name lifetime counter:
    /// bumping through it updates both the cumulative value and the
    /// 10s/1m/5m ring, and snapshots gain a `windows` entry for it.
    pub fn windowed_counter(&self, name: &str) -> Arc<WindowedCounter> {
        let inner = self.counter(name);
        let mut map = lock(&self.windowed_counters);
        if let Some(w) = map.get(name) {
            return Arc::clone(w);
        }
        let w = Arc::new(WindowedCounter::new(inner));
        map.insert(name.to_string(), Arc::clone(&w));
        w
    }

    /// Get or create a windowed view over the histogram named `name`.
    ///
    /// Recording through it updates both the lifetime histogram and the
    /// ring, and snapshots gain a `window_histograms` entry carrying
    /// windowed p50/p95/p99 and sample rates.
    pub fn windowed_histogram(&self, name: &str) -> Arc<WindowedHistogram> {
        let inner = self.histogram(name);
        let mut map = lock(&self.windowed_histograms);
        if let Some(w) = map.get(name) {
            return Arc::clone(w);
        }
        let w = Arc::new(WindowedHistogram::new(inner));
        map.insert(name.to_string(), Arc::clone(&w));
        w
    }

    /// Point-in-time copy of every instrument, sorted by name.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut counters: Vec<(String, u64)> =
            lock(&self.counters).iter().map(|(k, v)| (k.clone(), v.get())).collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        let mut gauges: Vec<(String, i64)> =
            lock(&self.gauges).iter().map(|(k, v)| (k.clone(), v.get())).collect();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        let mut histograms: Vec<(String, HistogramSnapshot)> = lock(&self.histograms)
            .iter()
            .map(|(k, v)| (k.clone(), HistogramSnapshot::of(v)))
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        let mut windows: Vec<(String, WindowRates)> =
            lock(&self.windowed_counters).iter().map(|(k, v)| (k.clone(), v.rates())).collect();
        windows.sort_by(|a, b| a.0.cmp(&b.0));
        let mut window_histograms: Vec<(String, WindowedHistogramSnapshot)> =
            lock(&self.windowed_histograms)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect();
        window_histograms.sort_by(|a, b| a.0.cmp(&b.0));
        RegistrySnapshot { counters, gauges, histograms, windows, window_histograms }
    }
}

/// Frozen percentile summary of one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Default)]
#[cfg_attr(
    feature = "serde",
    derive(serde::Serialize, serde::Deserialize),
    serde(default, deny_unknown_fields)
)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Exact observed minimum (0.0 when empty).
    pub min: f64,
    /// Exact observed maximum (0.0 when empty).
    pub max: f64,
    /// Nearest-rank 50th percentile (bucket upper bound).
    pub p50: f64,
    /// Nearest-rank 95th percentile (bucket upper bound).
    pub p95: f64,
    /// Nearest-rank 99th percentile (bucket upper bound).
    pub p99: f64,
}

impl HistogramSnapshot {
    /// Summarize a live histogram.
    pub fn of(h: &Histogram) -> Self {
        HistogramSnapshot {
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            p50: h.percentile(0.50),
            p95: h.percentile(0.95),
            p99: h.percentile(0.99),
        }
    }
}

/// Point-in-time copy of a [`Registry`], sorted by instrument name.
///
/// With the `serde` feature this serializes as a five-key map
/// (`counters`, `gauges`, `histograms`, `windows`,
/// `window_histograms`), each a name → value map — the wire format of
/// the serve `stats` verb and `atsched solve --metrics`. The window
/// sections only carry instruments that opted into windowing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegistrySnapshot {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name.
    pub gauges: Vec<(String, i64)>,
    /// Histogram summaries by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Sliding-window rates for windowed counters, by name.
    pub windows: Vec<(String, WindowRates)>,
    /// Sliding-window summaries for windowed histograms, by name.
    pub window_histograms: Vec<(String, WindowedHistogramSnapshot)>,
}

impl RegistrySnapshot {
    /// Counter value by name, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Gauge value by name, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Histogram summary by name, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Windowed counter rates by name, if present.
    pub fn window(&self, name: &str) -> Option<&WindowRates> {
        self.windows.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Windowed histogram summary by name, if present.
    pub fn window_histogram(&self, name: &str) -> Option<&WindowedHistogramSnapshot> {
        self.window_histograms.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn instruments_are_interned_by_name() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("x").get(), 3);
        assert_eq!(reg.snapshot().counter("x"), Some(3));
    }

    #[test]
    fn concurrent_counter_increments_from_eight_threads() {
        let reg = Arc::new(Registry::new());
        let per_thread = 10_000u64;
        thread::scope(|s| {
            for _ in 0..8 {
                let reg = Arc::clone(&reg);
                s.spawn(move || {
                    let c = reg.counter("shared");
                    for _ in 0..per_thread {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(reg.counter("shared").get(), 8 * per_thread);
    }

    #[test]
    fn windowed_instruments_wrap_the_lifetime_instrument() {
        let reg = Registry::new();
        let w = reg.windowed_counter("serve.requests");
        w.add(5);
        // The same-name lifetime counter sees windowed bumps...
        assert_eq!(reg.counter("serve.requests").get(), 5);
        // ...and interning returns the same ring.
        reg.windowed_counter("serve.requests").add(1);
        assert_eq!(w.get(), 6);
        let wh = reg.windowed_histogram("serve.latency_ms");
        wh.record(2.0);
        assert_eq!(reg.histogram("serve.latency_ms").count(), 1);

        let snap = reg.snapshot();
        assert!(snap.window("serve.requests").is_some());
        assert!(snap.window("serve.latency_ms").is_none(), "histograms are not counters");
        let s = snap.window_histogram("serve.latency_ms").unwrap();
        assert_eq!(s.w5m.count, 1);
        // Non-windowed instruments stay out of the window sections.
        reg.counter("lp.pivots").inc();
        assert!(reg.snapshot().window("lp.pivots").is_none());
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let reg = Registry::new();
        reg.counter("b").inc();
        reg.counter("a").inc();
        reg.gauge("g").set(-4);
        reg.histogram("h").record(2.0);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            vec!["a", "b"]
        );
        assert_eq!(snap.gauge("g"), Some(-4));
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.max, 2.0);
        assert!(snap.histogram("missing").is_none());
    }
}
