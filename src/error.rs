//! The unified error type of the public solving API.
//!
//! Every failure mode across the workspace — instance validation, LP
//! breakdown, infeasibility, I/O and parsing, timeouts, contained
//! panics — funnels into one [`Error`] so callers of [`crate::Solve`]
//! and the CLI match on a single hierarchy. The enum is
//! `#[non_exhaustive]`: downstream matches need a wildcard arm, which
//! lets new failure modes land without a breaking change.

use atsched_core::instance::InstanceError;
use atsched_core::solver::SolveError;
use atsched_engine::Interrupt;
use atsched_lp::LpError;
use atsched_workloads::io::IoError;
use std::fmt;

/// Any failure the public solving API can report.
#[non_exhaustive]
#[derive(Debug)]
pub enum Error {
    /// The instance is invalid (bad parallelism, window too short,
    /// windows not laminar where laminarity is required, …).
    Instance(InstanceError),
    /// The instance admits no feasible schedule.
    Infeasible,
    /// The LP solver gave up (possible only under `LpStrategy::Float`).
    Lp(LpError),
    /// A configured wall-clock budget ran out.
    TimedOut,
    /// The solver panicked; the panic was contained.
    Panicked(String),
    /// Reading, writing, or parsing instances / records failed.
    Io(IoError),
    /// A solve service shed the request: its admission queue was full.
    Overloaded,
    /// A solve service is draining and no longer accepts work.
    ShuttingDown,
    /// A wire-protocol failure talking to a solve service (malformed
    /// frame, unexpected reply, broken connection).
    Protocol(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Instance(e) => write!(f, "{e}"),
            Error::Infeasible => write!(f, "instance is infeasible"),
            Error::Lp(e) => write!(f, "{e}"),
            Error::TimedOut => write!(f, "solve exceeded its wall-clock budget"),
            Error::Panicked(msg) => write!(f, "solver panicked: {msg}"),
            Error::Io(e) => write!(f, "{e}"),
            Error::Overloaded => write!(f, "service overloaded: admission queue is full"),
            Error::ShuttingDown => write!(f, "service is shutting down"),
            Error::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Instance(e) => Some(e),
            Error::Lp(e) => Some(e),
            Error::Io(e) => Some(e),
            Error::Infeasible
            | Error::TimedOut
            | Error::Panicked(_)
            | Error::Overloaded
            | Error::ShuttingDown
            | Error::Protocol(_) => None,
        }
    }
}

impl From<SolveError> for Error {
    fn from(e: SolveError) -> Self {
        match e {
            SolveError::Instance(e) => Error::Instance(e),
            SolveError::Infeasible => Error::Infeasible,
            SolveError::Lp(e) => Error::Lp(e),
        }
    }
}

impl From<InstanceError> for Error {
    fn from(e: InstanceError) -> Self {
        Error::Instance(e)
    }
}

impl From<IoError> for Error {
    fn from(e: IoError) -> Self {
        Error::Io(e)
    }
}

impl From<Interrupt> for Error {
    fn from(i: Interrupt) -> Self {
        match i {
            Interrupt::TimedOut => Error::TimedOut,
            Interrupt::Panicked(msg) => Error::Panicked(msg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: Error = SolveError::Infeasible.into();
        assert!(matches!(e, Error::Infeasible));
        assert_eq!(e.to_string(), "instance is infeasible");

        let e: Error = InstanceError::BadParallelism(0).into();
        assert!(matches!(e, Error::Instance(_)));
        assert!(std::error::Error::source(&e).is_some());

        let e: Error = Interrupt::TimedOut.into();
        assert!(matches!(e, Error::TimedOut));

        let e: Error = Interrupt::Panicked("boom".into()).into();
        assert!(e.to_string().contains("boom"));

        let e: Error = IoError::Parse { line: 3, message: "bad".into() }.into();
        assert!(e.to_string().contains("line 3"));

        assert!(Error::Overloaded.to_string().contains("admission queue"));
        assert!(Error::ShuttingDown.to_string().contains("shutting down"));
        let e = Error::Protocol("bad frame".into());
        assert!(e.to_string().contains("bad frame"));
        assert!(std::error::Error::source(&e).is_none());
    }
}
