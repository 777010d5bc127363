//! # atsched-serve — a long-running solve service
//!
//! This crate turns the batch-solve engine into a network service: an
//! event-driven TCP server speaking newline-delimited JSON, sharing one
//! [`Engine`](atsched_engine::Engine) (and its content-keyed solve
//! cache) across every connection.
//!
//! Connections are served by one [`atsched_net`] readiness reactor — a
//! single thread multiplexing thousands of sockets — which feeds solve
//! work through one bounded admission queue to the solver threads. No
//! async runtime, no external dependencies.
//!
//! ## Service guarantees
//!
//! - **Bounded admission.** Solve work either takes a slot in a bounded
//!   queue or is shed *immediately* with a typed `overloaded` error
//!   ([`admission`]). The server never queues unboundedly.
//! - **Deadlines.** Every request gets a wall-clock budget (its own
//!   `timeout_ms` or the server default), counted from admission and
//!   enforced with the engine's watchdog isolation; overruns answer
//!   `timed_out`, and work whose budget ran out in the queue never runs.
//! - **Fault containment.** A malformed frame poisons that request, not
//!   the connection; a panicking solve poisons that request, not the
//!   server.
//! - **Graceful shutdown.** The `shutdown` verb stops admissions,
//!   drains everything already accepted, and acks with the final stats
//!   snapshot ([`shutdown`]).
//! - **Observability.** The `stats` verb reports request counters,
//!   cache hit rate, windowed (10s/1m/5m) rates, recent slow requests
//!   with per-stage timings, and end-to-end latency percentiles
//!   ([`stats`]); the `metrics` verb (and the optional `metrics_addr`
//!   HTTP listener) exposes the same registry as Prometheus-style text
//!   ([`scrape`]). Every admitted request carries a server-assigned
//!   trace id, echoed in its response.
//! - **Versioned evolution.** Requests may declare a protocol
//!   `version` (absent means v1); the v2 session verbs `open` /
//!   `amend` / `close` expose the engine's incremental re-solve, and
//!   v1 clients keep working against v2 servers unchanged
//!   ([`protocol::PROTOCOL_VERSION`]).
//!
//! ## Quick start
//!
//! ```no_run
//! use atsched_serve::{Client, Request, Server, ServerConfig};
//! use atsched_core::instance::{Instance, Job};
//!
//! // Spawn a server on an ephemeral port.
//! let server = Server::bind(ServerConfig::default().addr("127.0.0.1:0")).unwrap();
//! let handle = server.spawn();
//!
//! // Talk to it.
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let inst = Instance::new(2, vec![Job::new(0, 4, 2)]).unwrap();
//! let reply = client.solve(Request::solve(&inst).with_timeout_ms(5_000)).unwrap();
//! println!("{} active slots via {}", reply.active_slots, reply.method);
//!
//! // Drain and collect the final snapshot.
//! let final_stats = client.shutdown().unwrap();
//! assert_eq!(final_stats.inflight, 0);
//! handle.join().unwrap();
//! ```
//!
//! The wire protocol (verbs, fields, error kinds, example frames) is
//! documented in [`protocol`] and DESIGN.md §8.

pub mod admission;
pub mod client;
pub mod loadgen;
pub mod protocol;
pub mod scrape;
pub mod server;
mod service;
pub mod shutdown;
pub mod stats;

pub use client::{Client, ClientError};
pub use loadgen::{run_load, LoadConfig, LoadReport, Payload};
pub use protocol::{
    kind, verb, BatchItemReply, BatchReply, DeltaSpec, ErrorInfo, Request, Response, SlowRequest,
    SolveReply, StageTiming, StatsReply, WindowChange, PROTOCOL_VERSION,
};
pub use scrape::render_prometheus;
pub use server::{Server, ServerConfig, ServerHandle};
