//! End-to-end operation deadlines.
//!
//! A caller brackets an operation in an [`OpDeadline`] scope; every layer
//! underneath — the minitransaction executor's retry loops, the wire
//! client's per-request timeouts, replication waits — consults the ambient
//! deadline through [`OpDeadline::current`] and gives up with a typed
//! `DeadlineExceeded` instead of retrying past the caller's time budget.
//!
//! The deadline is one field of the thread's operation context
//! ([`minuet_obs::ctx`]: operations are synchronous and thread-bound in
//! this stack), put in force by the context's one scope type,
//! [`OpScope`]:
//!
//! ```
//! use minuet_sinfonia::deadline::OpDeadline;
//! use std::time::Duration;
//!
//! let _scope = OpDeadline::after(Duration::from_millis(250)).enter();
//! // ... every retry loop below here stops at the deadline ...
//! assert!(OpDeadline::current().remaining().is_some());
//! ```
//!
//! Scopes nest: an inner scope may only *tighten* the budget — entering a
//! later deadline than the enclosing one keeps the enclosing one, so a
//! library helper cannot accidentally extend its caller's patience.

use minuet_obs::OpScope;
use std::time::{Duration, Instant};

/// An absolute end-to-end deadline for one operation (`None` = unbounded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpDeadline(Option<Instant>);

impl OpDeadline {
    /// No deadline: the operation may retry as long as its layer's own
    /// retry budget allows.
    pub const NONE: OpDeadline = OpDeadline(None);

    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> OpDeadline {
        OpDeadline(Some(Instant::now() + budget))
    }

    /// A deadline at an absolute instant.
    pub fn at(when: Instant) -> OpDeadline {
        OpDeadline(Some(when))
    }

    /// The deadline currently in scope on this thread.
    pub fn current() -> OpDeadline {
        OpDeadline(minuet_obs::op_deadline())
    }

    /// True when a deadline is set and has already passed.
    pub fn expired(self) -> bool {
        matches!(self.0, Some(t) if Instant::now() >= t)
    }

    /// Time left until the deadline (`None` when unbounded; zero when
    /// already expired).
    pub fn remaining(self) -> Option<Duration> {
        self.0.map(|t| t.saturating_duration_since(Instant::now()))
    }

    /// The absolute instant, when bounded.
    pub fn instant(self) -> Option<Instant> {
        self.0
    }

    /// Caps `d` by the time remaining: the value a layer with its own
    /// timeout (a socket read, a replication poll) should actually use.
    pub fn cap(self, d: Duration) -> Duration {
        match self.remaining() {
            Some(rem) => d.min(rem),
            None => d,
        }
    }

    /// Puts this deadline in force on the current thread until the
    /// returned scope drops. A nested enter can only tighten: if an
    /// enclosing deadline is earlier, it stays in force.
    pub fn enter(self) -> OpScope {
        OpScope::deadline(|outer| match (outer, self.0) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => b.or(a),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_by_default() {
        assert_eq!(OpDeadline::current(), OpDeadline::NONE);
        assert!(!OpDeadline::current().expired());
        assert_eq!(OpDeadline::current().remaining(), None);
        assert_eq!(
            OpDeadline::current().cap(Duration::from_secs(9)),
            Duration::from_secs(9)
        );
    }

    #[test]
    fn scope_installs_and_restores() {
        {
            let _s = OpDeadline::after(Duration::from_secs(60)).enter();
            let rem = OpDeadline::current().remaining().unwrap();
            assert!(rem > Duration::from_secs(50));
            assert!(OpDeadline::current().cap(Duration::from_secs(120)) <= Duration::from_secs(60));
        }
        assert_eq!(OpDeadline::current(), OpDeadline::NONE);
    }

    #[test]
    fn nested_scopes_only_tighten() {
        let _outer = OpDeadline::after(Duration::from_millis(10)).enter();
        let outer_when = OpDeadline::current().instant().unwrap();
        {
            // A *later* inner deadline must not extend the budget.
            let _inner = OpDeadline::after(Duration::from_secs(60)).enter();
            assert_eq!(OpDeadline::current().instant(), Some(outer_when));
        }
        {
            // An earlier inner deadline tightens it.
            let _inner = OpDeadline::at(outer_when - Duration::from_millis(5)).enter();
            assert!(OpDeadline::current().instant().unwrap() < outer_when);
        }
        assert_eq!(OpDeadline::current().instant(), Some(outer_when));
    }

    #[test]
    fn a_lifting_scope_lasts_until_it_drops() {
        let _s = OpDeadline::at(Instant::now() - Duration::from_millis(1)).enter();
        {
            // What an epoch close enters: no deadline, whatever encloses it.
            let _lifted = OpScope::deadline(|_| None);
            assert_eq!(OpDeadline::current(), OpDeadline::NONE);
        }
        assert!(OpDeadline::current().expired());
    }

    #[test]
    fn expiry_is_observable() {
        let _s = OpDeadline::at(Instant::now() - Duration::from_millis(1)).enter();
        assert!(OpDeadline::current().expired());
        assert_eq!(OpDeadline::current().remaining(), Some(Duration::ZERO));
        assert_eq!(
            OpDeadline::current().cap(Duration::from_secs(1)),
            Duration::ZERO
        );
    }
}
