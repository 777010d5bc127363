//! Sliding-window aggregation: epoch-bucket rings layered over the
//! lifetime instruments, yielding short-horizon rates and windowed
//! percentiles alongside the cumulative values.
//!
//! A windowed instrument wraps the same-name lifetime instrument and
//! additionally files every emission into a ring of [`RING`] buckets,
//! each covering [`BUCKET_SECS`] seconds of wall clock. Reads merge the
//! buckets spanned by a [`Window`] (10 s / 1 m / 5 m), so an operator
//! sees "what is happening *now*" next to "what has happened ever".
//!
//! Windowing is **opt-in per instrument** (see
//! [`Registry::windowed_counter`](crate::Registry::windowed_counter)):
//! hot solver counters like `lp.pivots` stay plain atomic bumps, and
//! only the request-plane instruments pay the extra clock read + ring
//! update (two relaxed atomic ops in the common case).
//!
//! ## Accuracy
//!
//! Bucket rotation is lazy and lock-free: the first writer landing in a
//! stale ring slot CAS-tags it with the new epoch and zeroes the
//! counts. A concurrent writer racing that reset can lose its increment
//! for the *window* view (never for the lifetime value), so windowed
//! figures are approximate at bucket boundaries — the documented and
//! accepted trade for a zero-coordination hot path. Rates over a window
//! shorter than the instrument's uptime divide by the uptime instead,
//! so early readings are not diluted by empty history.
//!
//! Every read/write method has an `_at(epoch, ..)` twin taking an
//! explicit epoch, which is what the rotation tests use to cross epoch
//! boundaries deterministically; the clocked variants just call them
//! with `elapsed_secs / BUCKET_SECS`.

use crate::metrics::{Counter, Histogram, BUCKETS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Seconds of wall clock covered by one ring bucket.
pub const BUCKET_SECS: u64 = 5;

/// Ring length: 64 buckets × 5 s = 320 s of history, comfortably more
/// than the longest [`Window`] (5 minutes).
pub const RING: usize = 64;

/// The three reporting horizons every windowed instrument serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// Last 10 seconds (2 buckets).
    TenSec,
    /// Last minute (12 buckets).
    OneMin,
    /// Last five minutes (60 buckets).
    FiveMin,
}

impl Window {
    /// All horizons, shortest first.
    pub const ALL: [Window; 3] = [Window::TenSec, Window::OneMin, Window::FiveMin];

    /// Horizon length in seconds.
    pub fn secs(self) -> u64 {
        match self {
            Window::TenSec => 10,
            Window::OneMin => 60,
            Window::FiveMin => 300,
        }
    }

    /// Number of ring buckets the horizon spans.
    pub fn buckets(self) -> u64 {
        self.secs() / BUCKET_SECS
    }

    /// Human label used in wire formats (`10s` / `1m` / `5m`).
    pub fn label(self) -> &'static str {
        match self {
            Window::TenSec => "10s",
            Window::OneMin => "1m",
            Window::FiveMin => "5m",
        }
    }
}

/// One ring bucket: `tag` holds `epoch + 1` (0 = never used) so a slot
/// can tell whether its contents belong to the epoch a reader expects.
#[derive(Debug)]
struct Slot {
    tag: AtomicU64,
    count: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Slot { tag: AtomicU64::new(0), count: AtomicU64::new(0) }
    }

    /// Rotate the slot to `epoch` if it is stale. Returns false when the
    /// write belongs to an epoch the ring has already moved past (the
    /// caller should drop the windowed update; the lifetime instrument
    /// already has it).
    fn rotate(&self, epoch: u64) -> bool {
        let want = epoch + 1;
        let seen = self.tag.load(Ordering::Acquire);
        if seen == want {
            return true;
        }
        if seen > want {
            return false; // late writer; the window moved on
        }
        if self.tag.compare_exchange(seen, want, Ordering::AcqRel, Ordering::Acquire).is_ok() {
            self.count.store(0, Ordering::Release);
        }
        true
    }

    fn read(&self, epoch: u64) -> u64 {
        if self.tag.load(Ordering::Acquire) == epoch + 1 {
            self.count.load(Ordering::Relaxed)
        } else {
            0
        }
    }
}

/// Sliding-window rates for one counter, shortest horizon first.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[cfg_attr(
    feature = "serde",
    derive(serde::Serialize, serde::Deserialize),
    serde(default, deny_unknown_fields)
)]
pub struct WindowRates {
    /// Events per second over the last 10 seconds.
    pub rate_10s: f64,
    /// Events per second over the last minute.
    pub rate_1m: f64,
    /// Events per second over the last five minutes.
    pub rate_5m: f64,
}

impl WindowRates {
    /// The rate for one horizon.
    pub fn get(&self, w: Window) -> f64 {
        match w {
            Window::TenSec => self.rate_10s,
            Window::OneMin => self.rate_1m,
            Window::FiveMin => self.rate_5m,
        }
    }
}

/// A counter that also files increments into an epoch-bucket ring so
/// 10 s / 1 m / 5 m rates can be read next to the lifetime total.
///
/// Wraps (and forwards to) the same-name lifetime [`Counter`], so the
/// plain `counters` section of a snapshot still carries the cumulative
/// value.
#[derive(Debug)]
pub struct WindowedCounter {
    inner: Arc<Counter>,
    start: Instant,
    slots: Vec<Slot>,
}

impl WindowedCounter {
    /// Windowed view over `inner`; the ring's epoch 0 starts now.
    pub fn new(inner: Arc<Counter>) -> Self {
        WindowedCounter {
            inner,
            start: Instant::now(),
            slots: (0..RING).map(|_| Slot::new()).collect(),
        }
    }

    /// The current epoch (elapsed seconds / [`BUCKET_SECS`]).
    pub fn epoch(&self) -> u64 {
        self.start.elapsed().as_secs() / BUCKET_SECS
    }

    /// Add `delta` to both the lifetime counter and the current bucket.
    pub fn add(&self, delta: u64) {
        self.add_at(self.epoch(), delta);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Lifetime value (forwards to the wrapped counter).
    pub fn get(&self) -> u64 {
        self.inner.get()
    }

    /// Deterministic-epoch twin of [`add`](Self::add), for tests.
    pub fn add_at(&self, epoch: u64, delta: u64) {
        self.inner.add(delta);
        let slot = &self.slots[(epoch % RING as u64) as usize];
        if slot.rotate(epoch) {
            slot.count.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Events recorded in the buckets `w` spans, ending at `epoch`.
    pub fn window_count_at(&self, epoch: u64, w: Window) -> u64 {
        let lo = epoch.saturating_sub(w.buckets() - 1);
        (lo..=epoch).map(|e| self.slots[(e % RING as u64) as usize].read(e)).sum()
    }

    /// Events per second over `w`, ending at `epoch`. Divides by the
    /// uptime instead when the instrument is younger than the window.
    pub fn rate_at(&self, epoch: u64, w: Window) -> f64 {
        let uptime = (epoch + 1) * BUCKET_SECS;
        let secs = w.secs().min(uptime) as f64;
        self.window_count_at(epoch, w) as f64 / secs
    }

    /// All three windowed rates at the current epoch.
    pub fn rates(&self) -> WindowRates {
        self.rates_at(self.epoch())
    }

    /// Deterministic-epoch twin of [`rates`](Self::rates).
    pub fn rates_at(&self, epoch: u64) -> WindowRates {
        WindowRates {
            rate_10s: self.rate_at(epoch, Window::TenSec),
            rate_1m: self.rate_at(epoch, Window::OneMin),
            rate_5m: self.rate_at(epoch, Window::FiveMin),
        }
    }
}

/// One ring bucket of a [`WindowedHistogram`]: a tag plus a full set of
/// log buckets, so windowed percentiles merge exactly like lifetime
/// ones.
#[derive(Debug)]
struct HistSlot {
    tag: AtomicU64,
    count: AtomicU64,
    overflow: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl HistSlot {
    fn new() -> Self {
        HistSlot {
            tag: AtomicU64::new(0),
            count: AtomicU64::new(0),
            overflow: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn rotate(&self, epoch: u64) -> bool {
        let want = epoch + 1;
        let seen = self.tag.load(Ordering::Acquire);
        if seen == want {
            return true;
        }
        if seen > want {
            return false;
        }
        if self.tag.compare_exchange(seen, want, Ordering::AcqRel, Ordering::Acquire).is_ok() {
            self.count.store(0, Ordering::Release);
            self.overflow.store(0, Ordering::Release);
            for b in &self.buckets {
                b.store(0, Ordering::Release);
            }
        }
        true
    }

    fn live(&self, epoch: u64) -> bool {
        self.tag.load(Ordering::Acquire) == epoch + 1
    }
}

/// Percentile summary of one histogram over one window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[cfg_attr(
    feature = "serde",
    derive(serde::Serialize, serde::Deserialize),
    serde(default, deny_unknown_fields)
)]
pub struct WindowStats {
    /// Samples recorded inside the window.
    pub count: u64,
    /// Samples per second over the window.
    pub rate: f64,
    /// Nearest-rank p50 over the window's merged buckets.
    pub p50: f64,
    /// Nearest-rank p95 over the window's merged buckets.
    pub p95: f64,
    /// Nearest-rank p99 over the window's merged buckets.
    pub p99: f64,
}

/// All three windowed summaries of one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[cfg_attr(
    feature = "serde",
    derive(serde::Serialize, serde::Deserialize),
    serde(default, deny_unknown_fields)
)]
pub struct WindowedHistogramSnapshot {
    /// Last 10 seconds.
    #[cfg_attr(feature = "serde", serde(rename = "10s"))]
    pub w10s: WindowStats,
    /// Last minute.
    #[cfg_attr(feature = "serde", serde(rename = "1m"))]
    pub w1m: WindowStats,
    /// Last five minutes.
    #[cfg_attr(feature = "serde", serde(rename = "5m"))]
    pub w5m: WindowStats,
}

impl WindowedHistogramSnapshot {
    /// The stats for one horizon.
    pub fn get(&self, w: Window) -> &WindowStats {
        match w {
            Window::TenSec => &self.w10s,
            Window::OneMin => &self.w1m,
            Window::FiveMin => &self.w5m,
        }
    }
}

/// A histogram that also files samples into an epoch-bucket ring so
/// windowed p50/p95/p99 and sample rates can be read next to the
/// lifetime percentiles.
///
/// Wraps (and forwards to) the same-name lifetime [`Histogram`]. Each
/// ring bucket carries its own full log-bucket array (64 slots × 128
/// buckets ≈ 64 KB), so windowed percentiles use exactly the lifetime
/// percentile algorithm over the merged live buckets.
#[derive(Debug)]
pub struct WindowedHistogram {
    inner: Arc<Histogram>,
    start: Instant,
    slots: Vec<HistSlot>,
}

impl WindowedHistogram {
    /// Windowed view over `inner`; the ring's epoch 0 starts now.
    pub fn new(inner: Arc<Histogram>) -> Self {
        WindowedHistogram {
            inner,
            start: Instant::now(),
            slots: (0..RING).map(|_| HistSlot::new()).collect(),
        }
    }

    /// The current epoch (elapsed seconds / [`BUCKET_SECS`]).
    pub fn epoch(&self) -> u64 {
        self.start.elapsed().as_secs() / BUCKET_SECS
    }

    /// The wrapped lifetime histogram.
    pub fn lifetime(&self) -> &Arc<Histogram> {
        &self.inner
    }

    /// Record a sample into both the lifetime histogram and the
    /// current bucket. NaN samples are ignored.
    pub fn record(&self, v: f64) {
        self.record_at(self.epoch(), v);
    }

    /// Deterministic-epoch twin of [`record`](Self::record), for tests.
    pub fn record_at(&self, epoch: u64, v: f64) {
        if v.is_nan() {
            return;
        }
        self.inner.record(v);
        let slot = &self.slots[(epoch % RING as u64) as usize];
        if !slot.rotate(epoch) {
            return;
        }
        let idx = Histogram::bucket_index(v);
        if idx >= BUCKETS {
            slot.overflow.fetch_add(1, Ordering::Relaxed);
        } else {
            slot.buckets[idx].fetch_add(1, Ordering::Relaxed);
        }
        slot.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Merged summary of the buckets `w` spans, ending at `epoch`.
    pub fn stats_at(&self, epoch: u64, w: Window) -> WindowStats {
        let mut merged = [0u64; BUCKETS];
        let mut overflow = 0u64;
        let mut count = 0u64;
        let lo = epoch.saturating_sub(w.buckets() - 1);
        for e in lo..=epoch {
            let slot = &self.slots[(e % RING as u64) as usize];
            if !slot.live(e) {
                continue;
            }
            for (m, b) in merged.iter_mut().zip(slot.buckets.iter()) {
                *m += b.load(Ordering::Relaxed);
            }
            overflow += slot.overflow.load(Ordering::Relaxed);
            count += slot.count.load(Ordering::Relaxed);
        }
        let uptime = (epoch + 1) * BUCKET_SECS;
        let secs = w.secs().min(uptime) as f64;
        WindowStats {
            count,
            rate: count as f64 / secs,
            p50: merged_percentile(&merged, overflow, count, 0.50, &self.inner),
            p95: merged_percentile(&merged, overflow, count, 0.95, &self.inner),
            p99: merged_percentile(&merged, overflow, count, 0.99, &self.inner),
        }
    }

    /// All three windowed summaries at the current epoch.
    pub fn snapshot(&self) -> WindowedHistogramSnapshot {
        self.snapshot_at(self.epoch())
    }

    /// Deterministic-epoch twin of [`snapshot`](Self::snapshot).
    pub fn snapshot_at(&self, epoch: u64) -> WindowedHistogramSnapshot {
        WindowedHistogramSnapshot {
            w10s: self.stats_at(epoch, Window::TenSec),
            w1m: self.stats_at(epoch, Window::OneMin),
            w5m: self.stats_at(epoch, Window::FiveMin),
        }
    }
}

/// Nearest-rank percentile over merged window buckets: the same
/// algorithm as [`Histogram::percentile`], except the exact-max clamp
/// uses the lifetime max (the window keeps no exact extremes) and
/// overflow ranks report the lifetime max directly.
fn merged_percentile(
    merged: &[u64; BUCKETS],
    overflow: u64,
    count: u64,
    q: f64,
    lifetime: &Histogram,
) -> f64 {
    let total = count.max(merged.iter().sum::<u64>() + overflow);
    if total == 0 {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, c) in merged.iter().enumerate() {
        seen += c;
        if seen >= rank {
            let max = lifetime.max();
            let bound = Histogram::bound(i);
            return if max > 0.0 { bound.min(max) } else { bound };
        }
    }
    lifetime.max()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter() -> WindowedCounter {
        WindowedCounter::new(Arc::new(Counter::new()))
    }

    #[test]
    fn lifetime_and_window_views_agree_within_one_window() {
        let c = counter();
        c.add_at(0, 10);
        assert_eq!(c.get(), 10);
        assert_eq!(c.window_count_at(0, Window::TenSec), 10);
        assert_eq!(c.window_count_at(0, Window::FiveMin), 10);
        // Uptime (5 s) is shorter than every window: rates divide by it.
        assert_eq!(c.rate_at(0, Window::TenSec), 2.0);
        assert_eq!(c.rate_at(0, Window::FiveMin), 2.0);
    }

    #[test]
    fn buckets_age_out_of_short_windows_first() {
        let c = counter();
        c.add_at(0, 100);
        c.add_at(2, 4); // epoch 2: the 10s window is {1, 2} — excludes 0
        assert_eq!(c.window_count_at(2, Window::TenSec), 4);
        assert_eq!(c.window_count_at(2, Window::OneMin), 104);
        assert_eq!(c.get(), 104);
        // After a full minute the 1m window has aged the burst out too.
        assert_eq!(c.window_count_at(13, Window::OneMin), 4);
        assert_eq!(c.window_count_at(13, Window::FiveMin), 104);
    }

    #[test]
    fn ring_wraparound_reclaims_slots() {
        let c = counter();
        c.add_at(3, 7);
        // One full ring later the same slot index is reused: the stale
        // value must not leak into the new epoch's windows.
        let later = 3 + RING as u64;
        c.add_at(later, 1);
        assert_eq!(c.window_count_at(later, Window::TenSec), 1);
        assert_eq!(c.window_count_at(later, Window::FiveMin), 1);
        assert_eq!(c.get(), 8, "lifetime keeps everything");
    }

    #[test]
    fn late_writers_to_reclaimed_slots_are_dropped_from_windows() {
        let c = counter();
        let later = 5 + RING as u64;
        c.add_at(later, 3); // slot for epoch 5+RING is tagged
        c.add_at(5, 9); // a very late writer to the old epoch
        assert_eq!(c.get(), 12, "lifetime always counts");
        assert_eq!(c.window_count_at(later, Window::FiveMin), 3, "window does not");
    }

    #[test]
    fn windowed_histogram_rotates_and_merges() {
        let h = WindowedHistogram::new(Arc::new(Histogram::new()));
        for v in 1..=100 {
            h.record_at(0, v as f64);
        }
        let s = h.stats_at(0, Window::TenSec);
        assert_eq!(s.count, 100);
        assert!(s.p50 >= 50.0 && s.p50 <= 50.0 * 1.19, "p50 {}", s.p50);
        assert!(s.p99 >= 99.0 && s.p99 <= 100.0, "p99 {}", s.p99);
        // Two epochs later the burst is out of the 10s window but still
        // inside the lifetime histogram and the 1m window.
        h.record_at(2, 7.0);
        let s10 = h.stats_at(2, Window::TenSec);
        assert_eq!(s10.count, 1);
        assert_eq!(h.stats_at(2, Window::OneMin).count, 101);
        assert_eq!(h.lifetime().count(), 101);
    }

    #[test]
    fn empty_window_reports_zeros() {
        let h = WindowedHistogram::new(Arc::new(Histogram::new()));
        let s = h.stats_at(9, Window::TenSec);
        assert_eq!(s.count, 0);
        assert_eq!(s.rate, 0.0);
        assert_eq!(s.p50, 0.0);
    }

    #[test]
    fn concurrent_adds_race_rotation_without_losing_lifetime_counts() {
        use std::thread;
        let c = Arc::new(counter());
        let per_thread = 10_000u64;
        thread::scope(|s| {
            for t in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..per_thread {
                        // Threads disagree about the epoch near the
                        // boundary, racing rotation on purpose.
                        c.add_at(i / 100 + t % 2, 1);
                    }
                });
            }
        });
        assert_eq!(c.get(), 8 * per_thread, "lifetime view is exact");
    }
}
