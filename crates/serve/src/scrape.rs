//! The operational scrape surface: Prometheus-style text exposition of
//! the metric registry, served two ways —
//!
//! * the `metrics` verb on the main protocol port, answered inline by
//!   the reactor (it snapshots and renders without touching a solver
//!   pool), and
//! * an optional plain-HTTP listener (`ServerConfig::metrics_addr`) so
//!   an off-the-shelf scraper can `GET /metrics` without speaking the
//!   JSON-frame protocol. Any other path returns the full
//!   [`StatsReply`](crate::protocol::StatsReply) snapshot as JSON.
//!
//! The exposition is the conventional flat text format: one
//! `name value` line per sample, metric names with dots replaced by
//! underscores and prefixed `atsched_`, histograms expanded into
//! `_count` / `_sum` / quantile-labelled lines, and windowed
//! instruments into `_rate_10s` / `_rate_1m` / `_rate_5m` lines.

use crate::server::{snapshot, Shared};
use atsched_obs::RegistrySnapshot;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// A metric name in exposition form: dots to underscores, `atsched_`
/// prefix (names are ASCII identifiers plus dots throughout the
/// workspace, so no further escaping is needed).
fn flat(name: &str) -> String {
    format!("atsched_{}", name.replace('.', "_"))
}

/// Render a registry snapshot as Prometheus-style text exposition.
pub fn render_prometheus(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let n = flat(name);
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {v}");
    }
    for (name, v) in &snap.gauges {
        let n = flat(name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {v}");
    }
    for (name, h) in &snap.histograms {
        let n = flat(name);
        let _ = writeln!(out, "# TYPE {n} summary");
        let _ = writeln!(out, "{n}{{quantile=\"0.5\"}} {}", h.p50);
        let _ = writeln!(out, "{n}{{quantile=\"0.95\"}} {}", h.p95);
        let _ = writeln!(out, "{n}{{quantile=\"0.99\"}} {}", h.p99);
        let _ = writeln!(out, "{n}_sum {}", h.sum);
        let _ = writeln!(out, "{n}_count {}", h.count);
    }
    for (name, w) in &snap.windows {
        let n = flat(name);
        let _ = writeln!(out, "# TYPE {n}_rate gauge");
        let _ = writeln!(out, "{n}_rate_10s {}", w.rate_10s);
        let _ = writeln!(out, "{n}_rate_1m {}", w.rate_1m);
        let _ = writeln!(out, "{n}_rate_5m {}", w.rate_5m);
    }
    for (name, wh) in &snap.window_histograms {
        let n = flat(name);
        for (label, s) in [("10s", &wh.w10s), ("1m", &wh.w1m), ("5m", &wh.w5m)] {
            let _ = writeln!(out, "{n}_w{label}_count {}", s.count);
            let _ = writeln!(out, "{n}_w{label}_p50 {}", s.p50);
            let _ = writeln!(out, "{n}_w{label}_p95 {}", s.p95);
            let _ = writeln!(out, "{n}_w{label}_p99 {}", s.p99);
        }
    }
    out
}

/// Handle to the background metrics listener: its bound address plus
/// the stop flag [`Server::run`](crate::server::Server::run) flips
/// during the drain.
pub(crate) struct MetricsListener {
    pub(crate) addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: JoinHandle<()>,
}

impl MetricsListener {
    /// Stop accepting scrapes and join the listener thread.
    pub(crate) fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.join.join();
    }
}

/// Spawn the scrape listener on `addr` (port 0 picks an ephemeral
/// port). Runs on its own blocking thread with a non-blocking accept
/// loop — scrapes never contend with the reactor or solver pool for
/// anything but the registry's interning locks.
pub(crate) fn spawn_metrics_listener(
    shared: Arc<Shared>,
    addr: &str,
) -> std::io::Result<MetricsListener> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let join = thread::spawn(move || {
        while !flag.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => serve_scrape(&shared, stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(25));
                }
                Err(_) => thread::sleep(Duration::from_millis(25)),
            }
        }
    });
    Ok(MetricsListener { addr, stop, join })
}

/// Answer one scrape connection: read the request line, pick the body
/// by path, write a minimal HTTP/1.0 response, close.
fn serve_scrape(shared: &Arc<Shared>, mut stream: std::net::TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let mut buf = [0u8; 2048];
    let mut head = Vec::new();
    // Read until the end of the request head (or the buffer bound —
    // scrape requests are a single short GET line).
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let request_line = String::from_utf8_lossy(&head);
    let path = request_line.split_whitespace().nth(1).unwrap_or("/metrics").to_string();
    // Strictly read-only: eviction belongs to the reactor's periodic
    // sweep timer, not to whoever happens to scrape. A monitoring-only
    // observer must not mutate the session table (and a *never*-scraped
    // server must still expire sessions — see the no-traffic test).
    let snapshot = snapshot(shared);
    let (content_type, body) = if path == "/metrics" {
        ("text/plain; version=0.0.4", render_prometheus(&snapshot.registry))
    } else {
        let json = serde_json::to_string(&snapshot)
            .unwrap_or_else(|_| "{\"error\":\"snapshot serialization failed\"}".into());
        ("application/json", json)
    };
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use atsched_obs::Registry;

    #[test]
    fn exposition_flattens_names_and_expands_instruments() {
        let reg = Registry::new();
        reg.counter("serve.received").add(3);
        reg.gauge("serve.inflight").set(1);
        reg.histogram("serve.latency_ms").record(2.0);
        reg.windowed_counter("serve.completed").add(2);
        let text = render_prometheus(&reg.snapshot());
        assert!(text.contains("atsched_serve_received 3"), "{text}");
        assert!(text.contains("atsched_serve_inflight 1"), "{text}");
        assert!(text.contains("atsched_serve_latency_ms_count 1"), "{text}");
        assert!(text.contains("atsched_serve_latency_ms{quantile=\"0.95\"}"), "{text}");
        assert!(text.contains("atsched_serve_completed_rate_10s"), "{text}");
        // Every non-comment line is `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.split_whitespace();
            let name = parts.next().unwrap();
            assert!(name.starts_with("atsched_"), "{line}");
            parts.next().unwrap().parse::<f64>().expect(line);
            assert_eq!(parts.next(), None, "{line}");
        }
    }
}
