//! `atsched top` — a polling terminal dashboard over a running server's
//! `stats` verb: windowed request rates, queue/session/cache figures,
//! windowed latency percentiles, and the recent slow-request log with
//! per-stage timings.

use atsched_serve::{Client, StatsReply};
use std::io::Write;
use std::time::Duration;

/// Poll ADDR every `--interval-ms` (default 2000) and redraw. `--count N`
/// stops after N polls (0 = until the server goes away); `--no-clear`
/// appends frames instead of redrawing in place (logs, piping).
pub(crate) fn cmd_top(args: &[String]) -> Result<(), String> {
    let addr = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("top needs the server ADDR (host:port)")?;
    let interval = Duration::from_millis(crate::parse_num(args, "--interval-ms", 2000u64)?);
    let count: u64 = crate::parse_num(args, "--count", 0u64)?;
    let clear = !crate::has_flag(args, "--no-clear");

    let mut client = Client::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    client
        .set_read_timeout(Some(interval.max(Duration::from_secs(2)) * 2))
        .map_err(|e| e.to_string())?;
    let mut polls = 0u64;
    loop {
        let stats = client.stats().map_err(|e| format!("stats poll failed: {e}"))?;
        let frame = render(addr, &stats);
        if clear {
            // ANSI clear + home, so the dashboard redraws in place.
            print!("\x1b[2J\x1b[H{frame}");
        } else {
            println!("{frame}");
        }
        std::io::stdout().flush().map_err(|e| e.to_string())?;
        polls += 1;
        if count != 0 && polls >= count {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

fn rate_line(stats: &StatsReply, name: &str) -> String {
    match stats.registry.window(name) {
        Some(w) => {
            format!("10s {:>8.1}/s   1m {:>8.1}/s   5m {:>8.1}/s", w.rate_10s, w.rate_1m, w.rate_5m)
        }
        None => "(no windowed view)".into(),
    }
}

/// One dashboard frame as a string (separated from the poll loop so
/// tests can render a canned snapshot).
pub(crate) fn render(addr: &str, stats: &StatsReply) -> String {
    let mut out = String::new();
    let w = &mut out;
    let push = |w: &mut String, line: String| {
        w.push_str(&line);
        w.push('\n');
    };

    push(w, format!("atsched top — {addr}    uptime {:.1}s", stats.uptime_ms / 1e3));
    push(w, String::new());
    push(
        w,
        format!(
            "requests   recv {}   done {}   inflight {}   shed {}   errors {}   timeouts {}",
            stats.received,
            stats.completed,
            stats.inflight,
            stats.rejected_overload + stats.rejected_shutdown,
            stats.solve_errors,
            stats.timed_out,
        ),
    );
    push(w, format!("completed  {}", rate_line(stats, "serve.completed")));
    push(
        w,
        format!(
            "latency    p50 {:.2} ms   p95 {:.2} ms   max {:.2} ms (lifetime)",
            stats.latency_ms.p50, stats.latency_ms.p95, stats.latency_ms.max
        ),
    );
    if let Some(wh) = stats.registry.window_histogram("serve.latency_ms") {
        push(
            w,
            format!(
                "           p50 {:.2} ms   p95 {:.2} ms   p99 {:.2} ms (1m window, n={})",
                wh.w1m.p50, wh.w1m.p95, wh.w1m.p99, wh.w1m.count
            ),
        );
    }
    push(
        w,
        format!(
            "sessions   open {}   queue {}/{}   cache {:.0}% hit ({} entries)",
            stats.sessions_open,
            stats.queue_len,
            stats.queue_capacity,
            100.0 * stats.cache_hit_rate,
            stats.cache_entries
        ),
    );

    if !stats.slow.is_empty() {
        push(w, String::new());
        push(w, "recent slow / errored requests (newest first)".to_string());
        for e in &stats.slow {
            let status = e.error.as_deref().unwrap_or("ok");
            let stages: Vec<String> =
                e.stages.iter().map(|s| format!("{} {:.1}ms", s.stage, s.ms)).collect();
            push(
                w,
                format!(
                    "  #{:<6} {:<6} {:>9.1} ms  {:<10} {}",
                    e.request,
                    e.verb,
                    e.total_ms,
                    status,
                    stages.join(" > ")
                ),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use atsched_serve::{SlowRequest, StageTiming};

    #[test]
    fn render_includes_totals_and_slow_entries() {
        let mut stats =
            StatsReply { received: 10, completed: 9, sessions_open: 1, ..Default::default() };
        stats.slow = vec![SlowRequest {
            request: 7,
            verb: "amend".into(),
            total_ms: 12.5,
            error: None,
            stages: vec![StageTiming { stage: "lp".into(), ms: 9.1 }],
        }];
        let frame = render("127.0.0.1:7411", &stats);
        assert!(frame.contains("atsched top — 127.0.0.1:7411"), "{frame}");
        assert!(frame.contains("recv 10"), "{frame}");
        assert!(frame.contains("open 1"), "{frame}");
        assert!(frame.contains("#7"), "{frame}");
        assert!(frame.contains("amend"), "{frame}");
        assert!(frame.contains("lp 9.1ms"), "{frame}");
    }
}
