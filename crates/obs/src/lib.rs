//! # minuet-obs
//!
//! The observability plane shared by every layer of the Minuet stack:
//!
//! - [`hist`]: the log-linear latency [`Histogram`] (promoted from the
//!   workload crate so the server side can use it too) and its
//!   [`LatencySummary`].
//! - [`registry`]: a unified [`Registry`] of named [`Counter`]s and
//!   [`HistHandle`]s. Subsystems keep their own cheap atomic handles and
//!   *register* them, so one [`Registry::snapshot`] call yields every
//!   metric of a process — memnode commit counters, WAL fsync latency,
//!   per-RPC wire latency/size distributions, transport byte totals.
//! - [`ctx`]: the one per-thread operation context — deadline, network
//!   ledger ([`OpNet`]), open trace, backoff jitter — and the one
//!   [`OpScope`] that enters and leaves it.
//! - [`trace`]: lightweight request spans. A sampled tree operation
//!   opens a trace in its context; [`span`] guards dropped along the
//!   way (client route/fetch/commit, server lock-wait/exec/WAL/fsync)
//!   record into it, and the finished trace lands in a bounded buffer on
//!   the [`ObsPlane`]. When sampling is off the hot path pays one
//!   thread-local read per would-be span and allocates nothing.
//!
//! The crate sits at the bottom of the dependency stack (below
//! `minuet-sinfonia`), deliberately knows nothing about wire formats or
//! B-trees, and encodes its snapshot/trace types to plain byte vectors so
//! the wire layer can ship them opaquely.

pub mod ctx;
pub mod hist;
pub mod registry;
pub mod trace;

pub use ctx::{book_net, jitter, op_deadline, tracing_active, with_op_net, OpNet, OpScope};
pub use hist::{Histogram, LatencySummary};
pub use registry::{Counter, HistHandle, ObsSnapshot, Registry};
pub use trace::{
    absorb_spans, current_ctx, event, note, span, span_tagged, with_server_trace, ObsConfig,
    ObsPlane, SpanGuard, SpanKind, SpanRecord, Trace, TraceCtx,
};
