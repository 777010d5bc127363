//! `atsched serve` — run the long-lived solve service.

use atsched_serve::{Server, ServerConfig};
use std::io::Write;
use std::time::Duration;

/// Start the service and block until a `shutdown` request drains it.
///
/// Prints exactly one `listening on ADDR` line to stdout once the
/// socket is bound — supervisors (and the CI smoke job) wait for that
/// line before sending traffic.
pub(crate) fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut cfg = ServerConfig::default()
        .workers(crate::parse_num(args, "--workers", 0usize)?)
        .queue_depth(crate::parse_num(args, "--queue", 0usize)?)
        .delay_ms(crate::parse_num(args, "--delay-ms", 0u64)?);
    if let Some(addr) = crate::flag_value(args, "--addr") {
        cfg = cfg.addr(addr);
    }
    if let Some(ms) = crate::parse_opt(args, "--timeout-ms")? {
        cfg = cfg.default_timeout((ms > 0).then(|| Duration::from_millis(ms)));
    }
    if let Some(n) = crate::parse_opt(args, "--max-sessions")? {
        cfg = cfg.max_sessions(n);
    }
    if let Some(ms) = crate::parse_opt(args, "--session-ttl-ms")? {
        cfg = cfg.session_ttl(Duration::from_millis(ms));
    }
    if let Some(addr) = crate::flag_value(args, "--metrics-addr") {
        cfg = cfg.metrics_addr(addr);
    }
    if let Some(ms) = crate::parse_opt(args, "--slow-ms")? {
        cfg = cfg.slow_ms(ms);
    }

    let server = Server::bind(cfg).map_err(|e| format!("bind failed: {e}"))?;
    println!("listening on {}", server.local_addr());
    if let Some(scrape) = server.metrics_addr() {
        eprintln!("metrics on http://{scrape}/metrics");
    }
    std::io::stdout().flush().map_err(|e| e.to_string())?;

    let snapshot = server.run().map_err(|e| format!("server failed: {e}"))?;
    eprintln!(
        "drained: {} received, {} accepted, {} completed, {} shed, {:.0}% cache hits",
        snapshot.received,
        snapshot.accepted,
        snapshot.completed,
        snapshot.rejected_overload + snapshot.rejected_shutdown,
        100.0 * snapshot.cache_hit_rate
    );
    Ok(())
}
