//! Blocking client for the solve service.
//!
//! One [`Client`] wraps one TCP connection and issues strictly
//! sequential request/response exchanges. Correlation ids are assigned
//! automatically and verified on every reply, so a cross-wired or
//! out-of-order response surfaces as [`ClientError::Protocol`] instead
//! of silently corrupting results.

use crate::protocol::{DeltaSpec, Request, Response, SolveReply, StatsReply};
use atsched_core::instance::Instance;
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Extra wall-clock allowed beyond a request's own deadline before the
/// socket read gives up — covers queueing, serialization, and network
/// overhead on top of the server-side solve budget.
pub const READ_TIMEOUT_SLACK: Duration = Duration::from_secs(2);

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed (connect, read, or write).
    Io(io::Error),
    /// The server accepted the connection but did not reply within the
    /// socket read timeout. The connection is left in an unknown state —
    /// a late reply would desynchronize correlation ids — so drop the
    /// client and reconnect.
    Timeout,
    /// The server broke the wire protocol (closed mid-exchange, sent an
    /// unparseable frame, or echoed the wrong correlation id).
    Protocol(String),
    /// The server answered with a typed error frame.
    Service {
        /// One of the [`kind`](crate::protocol::kind) constants.
        kind: String,
        /// Human-readable detail from the server.
        message: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Timeout => {
                write!(f, "timed out waiting for the server's reply; reconnect before retrying")
            }
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Service { kind, message } => {
                write!(f, "service error ({kind}): {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Map service failures onto the library's error type so embedders can
/// swap a local [`Solve`](nested_active_time::Solve) for a remote call
/// without changing their error handling.
impl From<ClientError> for nested_active_time::Error {
    fn from(e: ClientError) -> Self {
        use crate::protocol::kind;
        use nested_active_time::Error;
        match e {
            ClientError::Io(io) => Error::Protocol(format!("connection error: {io}")),
            ClientError::Timeout => Error::TimedOut,
            ClientError::Protocol(msg) => Error::Protocol(msg),
            ClientError::Service { kind, message } => match kind.as_str() {
                kind::OVERLOADED => Error::Overloaded,
                kind::SHUTTING_DOWN => Error::ShuttingDown,
                kind::INFEASIBLE => Error::Infeasible,
                kind::TIMED_OUT => Error::TimedOut,
                kind::FAILED | kind::INTERNAL => Error::Panicked(message),
                _ => Error::Protocol(format!("{kind}: {message}")),
            },
        }
    }
}

/// A blocking connection to a solve server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    /// `true` once the caller picked a read timeout (including `None`)
    /// via [`set_read_timeout`](Self::set_read_timeout); the per-request
    /// deadline-derived default then stays out of the way.
    explicit_timeout: bool,
}

impl Client {
    /// Connect to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(stream), writer, next_id: 1, explicit_timeout: false })
    }

    /// Set (or with `None` clear) the socket read timeout — a safety
    /// net against a hung server rather than a solve deadline; prefer
    /// [`Request::with_timeout_ms`] for deadlines.
    ///
    /// Calling this (even with `None`) disables the automatic default:
    /// otherwise, requests carrying a deadline get a read timeout of the
    /// deadline plus [`READ_TIMEOUT_SLACK`], so a server that accepts
    /// and then hangs surfaces as [`ClientError::Timeout`] instead of
    /// blocking the caller forever.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.writer.set_read_timeout(timeout)?;
        self.explicit_timeout = true;
        Ok(())
    }

    /// Send one request and wait for its response frame. A correlation
    /// id is assigned when the request has none; the reply's echo is
    /// verified. Error frames are returned as `Ok` — use the typed
    /// helpers for `Result`-shaped calls.
    pub fn request(&mut self, mut req: Request) -> Result<Response, ClientError> {
        let id = *req.id.get_or_insert_with(|| {
            let id = self.next_id;
            self.next_id += 1;
            id
        });
        let mut line = serde_json::to_string(&req)
            .map_err(|e| ClientError::Protocol(format!("request does not serialize: {e}")))?;
        line.push('\n');
        // Bound the wait for the reply by the request's own deadline
        // (plus slack) unless the caller took over timeout management.
        // Requests without a deadline keep the previous behavior of
        // waiting indefinitely.
        if !self.explicit_timeout {
            let net = req.timeout_ms.map(|ms| Duration::from_millis(ms) + READ_TIMEOUT_SLACK);
            self.writer.set_read_timeout(net)?;
        }
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;

        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply).map_err(|e| match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ClientError::Timeout,
            _ => ClientError::Io(e),
        })?;
        if n == 0 {
            return Err(ClientError::Protocol("server closed the connection".into()));
        }
        let resp: Response = serde_json::from_str(reply.trim_end())
            .map_err(|e| ClientError::Protocol(format!("unparseable response frame: {e}")))?;
        // `id: null` only happens when the server could not recover an id
        // from our frame; anything else must echo ours.
        if let Some(echoed) = resp.id {
            if echoed != id {
                return Err(ClientError::Protocol(format!(
                    "response id {echoed} does not match request id {id}"
                )));
            }
        }
        Ok(resp)
    }

    fn expect_ok(&mut self, req: Request) -> Result<Response, ClientError> {
        let resp = self.request(req)?;
        match resp.error {
            Some(err) => Err(ClientError::Service { kind: err.kind, message: err.message }),
            None => Ok(resp),
        }
    }

    /// Solve one instance with server defaults; see [`solve`](Self::solve)
    /// to control method, LP strategy, seed, or deadline.
    pub fn solve_instance(&mut self, inst: &Instance) -> Result<SolveReply, ClientError> {
        self.solve(Request::solve(inst))
    }

    /// Issue a prepared `solve` request (built via [`Request::solve`]
    /// and its `with_*` helpers).
    pub fn solve(&mut self, req: Request) -> Result<SolveReply, ClientError> {
        let resp = self.expect_ok(req)?;
        resp.solve.ok_or_else(|| ClientError::Protocol("ok response without solve payload".into()))
    }

    /// Solve a list of instances through the server's batch engine.
    pub fn batch(
        &mut self,
        instances: &[Instance],
    ) -> Result<crate::protocol::BatchReply, ClientError> {
        let resp = self.expect_ok(Request::batch(instances))?;
        resp.batch.ok_or_else(|| ClientError::Protocol("ok response without batch payload".into()))
    }

    /// Fetch the server's current stats snapshot.
    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        let resp = self.expect_ok(Request::stats())?;
        resp.stats.ok_or_else(|| ClientError::Protocol("ok response without stats payload".into()))
    }

    /// Fetch the Prometheus-style text exposition of the server's
    /// metric registry (the `metrics` verb over the protocol port; the
    /// same text an HTTP scraper gets from `metrics_addr`).
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let resp = self.expect_ok(Request::metrics())?;
        resp.metrics
            .ok_or_else(|| ClientError::Protocol("ok response without metrics payload".into()))
    }

    /// Liveness probe; `Err(Service { kind: "shutting_down", .. })` once
    /// the server is draining.
    pub fn health(&mut self) -> Result<(), ClientError> {
        self.expect_ok(Request::health()).map(|_| ())
    }

    /// Ask the server to drain and return its final stats snapshot.
    /// Blocks until every admitted request has been answered.
    pub fn shutdown(&mut self) -> Result<StatsReply, ClientError> {
        let resp = self.expect_ok(Request::shutdown())?;
        resp.stats.ok_or_else(|| ClientError::Protocol("shutdown ack without snapshot".into()))
    }

    /// Open an incremental session on an instance (protocol v2); returns
    /// the session id plus the initial solve. Pass a request built via
    /// [`Request::open`] to [`request`](Self::request) directly for
    /// per-call options.
    pub fn open(&mut self, inst: &Instance) -> Result<(u64, SolveReply), ClientError> {
        let resp = self.expect_ok(Request::open(inst))?;
        let session = resp
            .session
            .ok_or_else(|| ClientError::Protocol("open response without session id".into()))?;
        let reply = resp
            .solve
            .ok_or_else(|| ClientError::Protocol("ok response without solve payload".into()))?;
        Ok((session, reply))
    }

    /// Amend an open session and return the incremental re-solve.
    pub fn amend(&mut self, session: u64, delta: &DeltaSpec) -> Result<SolveReply, ClientError> {
        let resp = self.expect_ok(Request::amend(session, delta))?;
        resp.solve.ok_or_else(|| ClientError::Protocol("ok response without solve payload".into()))
    }

    /// Close an open session, releasing its server-side cached state.
    pub fn close(&mut self, session: u64) -> Result<(), ClientError> {
        self.expect_ok(Request::close(session)).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::kind;
    use nested_active_time::Error;

    #[test]
    fn service_errors_map_onto_library_errors() {
        let svc = |k: &str| ClientError::Service { kind: k.into(), message: "m".into() };
        assert!(matches!(Error::from(svc(kind::OVERLOADED)), Error::Overloaded));
        assert!(matches!(Error::from(svc(kind::SHUTTING_DOWN)), Error::ShuttingDown));
        assert!(matches!(Error::from(svc(kind::INFEASIBLE)), Error::Infeasible));
        assert!(matches!(Error::from(svc(kind::TIMED_OUT)), Error::TimedOut));
        assert!(matches!(Error::from(svc(kind::FAILED)), Error::Panicked(_)));
        assert!(matches!(Error::from(svc(kind::BAD_REQUEST)), Error::Protocol(_)));
        assert!(matches!(Error::from(ClientError::Protocol("x".into())), Error::Protocol(_)));
        assert!(matches!(Error::from(ClientError::Timeout), Error::TimedOut));
    }

    /// Accept one connection, read the request, and never reply.
    /// Returns the address plus a guard that keeps the socket open.
    fn silent_server() -> (std::net::SocketAddr, std::thread::JoinHandle<TcpStream>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let guard = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            let _ = std::io::Read::read(&mut sock, &mut buf);
            sock
        });
        (addr, guard)
    }

    #[test]
    fn explicit_read_timeout_fires_against_a_silent_server() {
        use atsched_core::instance::{Instance, Job};
        let (addr, _guard) = silent_server();
        let mut client = Client::connect(addr).unwrap();
        client.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
        let inst = Instance::new(2, vec![Job::new(0, 2, 1)]).unwrap();
        let err = client.solve_instance(&inst).unwrap_err();
        assert!(matches!(err, ClientError::Timeout), "got {err:?}");
    }

    #[test]
    fn request_deadline_bounds_the_socket_wait_by_default() {
        use atsched_core::instance::{Instance, Job};
        let (addr, _guard) = silent_server();
        let mut client = Client::connect(addr).unwrap();
        let inst = Instance::new(2, vec![Job::new(0, 2, 1)]).unwrap();
        // No set_read_timeout call: the 10 ms request deadline plus the
        // slack becomes the socket timeout, so this returns instead of
        // hanging forever (the pre-fix behavior).
        let start = std::time::Instant::now();
        let err = client.solve(Request::solve(&inst).with_timeout_ms(10)).unwrap_err();
        assert!(matches!(err, ClientError::Timeout), "got {err:?}");
        let waited = start.elapsed();
        assert!(waited >= Duration::from_millis(10), "timed out too early: {waited:?}");
        assert!(
            waited < READ_TIMEOUT_SLACK + Duration::from_secs(8),
            "timed out far too late: {waited:?}"
        );
    }

    #[test]
    fn display_formats_are_informative() {
        let err = ClientError::Service { kind: "overloaded".into(), message: "queue full".into() };
        assert_eq!(err.to_string(), "service error (overloaded): queue full");
        assert!(ClientError::Protocol("bad frame".into()).to_string().contains("bad frame"));
    }
}
