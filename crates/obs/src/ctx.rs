//! The operation context: what one operation carries, in one place.
//!
//! In the paper an operation is a proxy running one dynamic transaction
//! (§2.2, §3), synchronously, on one thread. Everything that operation
//! carries with it — whether the thread is inside one, its end-to-end
//! deadline, the network it has used (an [`OpNet`] ledger), its trace
//! buffer when sampled, and the thread's backoff-jitter state — is one
//! `OpCtx` in one thread-local slot. It changes in one way only: an
//! [`OpScope`] is entered, and on drop restores what it changed, also
//! when unwinding. Six places enter one:
//!
//! | scope | entered by | puts in force |
//! |---|---|---|
//! | op | [`crate::ObsPlane::op`] | at top level: "inside an op", and a sampled op's own trace. Nested: nothing — it joins its enclosing op, sampled or not |
//! | deadline | `OpDeadline::enter` (`minuet-sinfonia`) | a deadline, only ever tighter than the enclosing one |
//! | window | [`with_op_net`] | a measurement window over the ledger |
//! | server dispatch | [`crate::with_server_trace`] | a fresh context holding the client's trace |
//! | epoch close | `EpochService` (`minuet-dyntx`) | no deadline: the leader works for every member |
//! | decision delivery | two-phase `exec` (`minuet-sinfonia`) | no deadline: a participant that voted yes holds its locks until it hears the outcome |
//!
//! Every scope starts a fresh ledger and adds it to the enclosing one on
//! exit, so windows nest and a scope never hides a round trip from the
//! window around it.

use crate::trace::ThreadTrace;
use std::cell::RefCell;
use std::ops::AddAssign;
use std::time::Instant;

/// Network counters observed during one logical operation on the calling
/// thread (e.g. one B-tree get, including all of its retries).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpNet {
    /// Sequential round trips: phases of minitransactions, counted once per
    /// phase regardless of fan-out (messages travel in parallel).
    pub round_trips: u64,
    /// Total messages sent (one per participant per phase).
    pub messages: u64,
    /// Request bytes shipped to memnodes (item descriptors + payloads).
    pub bytes_out: u64,
    /// Response bytes shipped back (read results + framing).
    pub bytes_in: u64,
}

impl OpNet {
    /// Total bytes moved in either direction.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_out + self.bytes_in
    }
}

impl AddAssign for OpNet {
    fn add_assign(&mut self, o: OpNet) {
        self.round_trips += o.round_trips;
        self.messages += o.messages;
        self.bytes_out += o.bytes_out;
        self.bytes_in += o.bytes_in;
    }
}

/// One thread's operation context (see the module docs).
pub(crate) struct OpCtx {
    pub(crate) in_op: bool,
    pub(crate) deadline: Option<Instant>,
    net: OpNet,
    /// The open trace: `Some` exactly while the thread is tracing.
    pub(crate) trace: Option<ThreadTrace>,
    /// Xorshift state of the backoff jitter; 0 until first drawn.
    jitter: u64,
}

thread_local! {
    static CTX: RefCell<OpCtx> = const {
        RefCell::new(OpCtx {
            in_op: false,
            deadline: None,
            net: OpNet { round_trips: 0, messages: 0, bytes_out: 0, bytes_in: 0 },
            trace: None,
            jitter: 0,
        })
    };
}

/// Runs `f` on this thread's context.
#[inline]
pub(crate) fn with_ctx<R>(f: impl FnOnce(&mut OpCtx) -> R) -> R {
    CTX.with_borrow_mut(f)
}

/// True when the current thread has an open trace.
#[inline]
pub fn tracing_active() -> bool {
    CTX.with_borrow(|c| c.trace.is_some())
}

/// The deadline in force on this thread (`None` = unbounded); read
/// through `OpDeadline::current`.
pub fn op_deadline() -> Option<Instant> {
    CTX.with_borrow(|c| c.deadline)
}

/// Books `net` into the current window: what one exchange adds, with one
/// touch of the context.
#[inline]
pub fn book_net(net: OpNet) {
    with_ctx(|c| c.net += net);
}

/// A draw below `bound` (`0` for `bound == 0`) from this thread's jitter
/// sequence: an xorshift seeded from the thread id, so contending
/// retriers do not draw the same sequence and collide again in lock-step.
pub fn jitter(bound: u64) -> u64 {
    with_ctx(|c| {
        let mut x = c.jitter;
        if x == 0 {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            std::thread::current().id().hash(&mut h);
            x = h.finish() | 1;
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        c.jitter = x;
        x.checked_rem(bound).unwrap_or(0)
    })
}

/// Runs `f` in a measurement window and returns its result along with
/// the network it used. Windows nest: on exit the counts are added to the
/// enclosing window.
pub fn with_op_net<R>(f: impl FnOnce() -> R) -> (R, OpNet) {
    let window = OpScope::enter(|_| None);
    let r = f();
    let net = with_ctx(|c| c.net);
    drop(window);
    (r, net)
}

/// The one way to change a thread's `OpCtx` (see the module docs). On
/// drop it restores the in-op mark and the deadline it found, the
/// enclosing trace if it opened one of its own (closing its own: a root
/// op's lands on its plane), and the enclosing ledger plus everything
/// counted inside.
#[must_use = "the scope's changes last until it drops"]
pub struct OpScope {
    in_op: bool,
    deadline: Option<Instant>,
    net: OpNet,
    /// The enclosing trace, when this scope opened one of its own.
    trace: Option<Option<ThreadTrace>>,
}

impl OpScope {
    /// Enters a scope: saves what a scope may change, starts a fresh
    /// ledger, then lets `change` edit the context; a trace it returns is
    /// opened in place of the enclosing one.
    pub(crate) fn enter(change: impl FnOnce(&mut OpCtx) -> Option<ThreadTrace>) -> OpScope {
        with_ctx(|c| {
            let (in_op, deadline, net) = (c.in_op, c.deadline, std::mem::take(&mut c.net));
            let trace = change(c).map(|own| c.trace.replace(own));
            OpScope {
                in_op,
                deadline,
                net,
                trace,
            }
        })
    }

    /// Puts in force the deadline `to` makes of the enclosing one (`None`
    /// = none): `OpDeadline::enter` passes the tighter of the two, the
    /// epoch close none at all.
    pub fn deadline(to: impl FnOnce(Option<Instant>) -> Option<Instant>) -> OpScope {
        OpScope::enter(|c| {
            c.deadline = to(c.deadline);
            None
        })
    }
}

impl Drop for OpScope {
    fn drop(&mut self) {
        let own = with_ctx(|c| {
            c.in_op = self.in_op;
            c.deadline = self.deadline;
            c.net += self.net;
            self.trace
                .take()
                .and_then(|outer| std::mem::replace(&mut c.trace, outer))
        });
        if let Some(tt) = own {
            tt.close();
        }
    }
}
