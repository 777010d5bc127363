//! Graceful-shutdown coordination.
//!
//! The `shutdown` verb follows a strict sequence:
//!
//! 1. The reactor flips the gate when the verb arrives (first caller
//!    wins) and closes the admission queue — from this instant new work
//!    is refused with `shutting_down`, while everything already
//!    admitted stays poppable.
//! 2. The coordinator (the thread inside [`Server::run`]) joins the
//!    solver workers; joining only returns once the queue is drained
//!    and every in-flight solve has been answered through the reactor.
//! 3. The coordinator evicts all live sessions, builds the final stats
//!    snapshot, and hands it back to the reactor, which writes it as the
//!    `shutdown` response, acknowledges the flush, and lets the
//!    coordinator stop the event loop.
//!
//! A second `shutdown` while draining gets a `shutting_down` error —
//! exactly one requester receives the final snapshot.
//!
//! The gate itself is just the first-wins flag; the snapshot handoff
//! rides the server's coordinator channels ([`Server::run`]), not this
//! type.
//!
//! [`Server::run`]: crate::server::Server::run

use std::sync::atomic::{AtomicBool, Ordering};

/// One-shot drain gate shared by every thread of the server.
#[derive(Default)]
pub struct ShutdownGate {
    draining: AtomicBool,
}

impl ShutdownGate {
    /// Begin draining. Returns `true` for the first caller only; later
    /// callers get `false` (the service is already draining).
    pub fn begin(&self) -> bool {
        !self.draining.swap(true, Ordering::SeqCst)
    }

    /// True once [`begin`](Self::begin) has been called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Flip the gate without caring about winner-ship (used when the
    /// server is shut down programmatically rather than via the verb).
    pub fn begin_silent(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_caller_wins() {
        let gate = ShutdownGate::default();
        assert!(!gate.is_draining());
        assert!(gate.begin(), "first begin wins");
        assert!(gate.is_draining());
        assert!(!gate.begin(), "second begin loses");
        assert!(gate.is_draining());
    }

    #[test]
    fn silent_begin_sets_the_flag_and_spoils_later_winners() {
        let gate = ShutdownGate::default();
        gate.begin_silent();
        assert!(gate.is_draining());
        assert!(!gate.begin(), "silent begin already started the drain");
    }
}
