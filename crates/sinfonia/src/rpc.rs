//! The one seam between a coordinator and a memnode.
//!
//! [`NodeRpc`] abstracts "a memnode the coordinator can talk to", and
//! [`crate::client::RemoteNode`] is its one implementation: every call is
//! one request frame of the binary wire protocol ([`crate::wire`]) and
//! one reply frame, over a socket or — for a memnode in this process
//! ([`crate::client::RemoteNode::in_process`]) — over a connection that
//! answers the frame with the server's own step on the caller's thread. The cluster stores
//! [`NodeHandle`]s, so the whole coordinator stack — minitransaction
//! execution, recovery, migration fencing, the B-tree above — runs
//! unchanged in either mode; [`crate::cluster::ClusterConfig::transport`]
//! is the only switch.
//!
//! The trait has two parts. The **data plane** is what Sinfonia draws as
//! one arrow: minitransaction execution, the two-phase decisions, raw
//! bootstrap access, log shipping, and the three hot flag reads — each a
//! required method, each with a [`crate::wire::Request`] row of its own.
//! Everything else a memnode can be asked — fences, crash hooks,
//! checkpoints, counters, traces, fault specs — is an [`AdminOp`] through
//! the single fallible [`NodeRpc::admin`], implemented exactly once, next
//! to the server's dispatch; the client forwards it. The typed
//! conveniences below
//! ([`NodeRpc::checkpoint`], [`NodeRpc::node_stats`], …) are provided
//! methods written once in terms of `admin`, and each says what it does
//! when the node cannot be reached.

use crate::addr::MemNodeId;
use crate::bytes::Bytes;
use crate::lock::TxId;
use crate::memnode::{MemNode, ReplStatus, SingleResult, Unavailable, Vote};
use crate::minitx::LockPolicy;
use crate::recovery::NodeMeta;
use crate::wal::WalSegment;
pub use crate::wire::{AdminOp, AdminReply};
use crate::wire::{WireBatchItem, WireShard};
use minuet_obs::{ObsSnapshot, Trace};
use std::io;
use std::sync::Arc;

/// A shared handle to a memnode, local or remote.
pub type NodeHandle = Arc<dyn NodeRpc>;

/// Owned snapshot of a memnode's operation and durability counters.
///
/// Remote nodes cannot hand out references to their atomics, so the stats
/// surface is an owned snapshot fetched in one RPC.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// One-phase executions that committed.
    pub single_commits: u64,
    /// Prepares that voted Ok.
    pub prepares: u64,
    /// Two-phase commits applied.
    pub commits: u64,
    /// Aborts processed.
    pub aborts: u64,
    /// Lock-busy rejections.
    pub busy: u64,
    /// Lock-free read fast-path hits.
    pub read_fastpath: u64,
    /// Fast-path attempts that fell back to the locked path.
    pub read_fastpath_misses: u64,
    /// Lock-free single-phase write fast-path hits.
    pub write_fastpath: u64,
    /// Write fast-path attempts that fell back to the locked path.
    pub write_fastpath_misses: u64,
    /// Currently prepared (in-doubt) transactions.
    pub in_doubt: u64,
    /// Redo records appended.
    pub wal_appends: u64,
    /// Log bytes appended (frames included).
    pub wal_bytes: u64,
    /// fsync calls issued.
    pub wal_fsyncs: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Log bytes currently retained.
    pub wal_retained_bytes: u64,
    /// True if the node logs to disk.
    pub durable: bool,
}

/// Runs `op` and picks the expected reply out of the answer. A failure
/// the node itself reports ([`AdminReply::Error`]) is logged and, like a
/// reply of the wrong kind, surfaces as [`Unavailable`]: either way the
/// caller did not get what it asked this node for.
fn admin_as<N: NodeRpc + ?Sized, T>(
    node: &N,
    op: AdminOp,
    pick: impl FnOnce(AdminReply) -> Option<T>,
) -> Result<T, Unavailable> {
    match node.admin(op)? {
        AdminReply::Error(msg) => {
            eprintln!("memnode {} admin error: {msg}", node.id());
            Err(Unavailable(node.id()))
        }
        reply => pick(reply).ok_or(Unavailable(node.id())),
    }
}

fn ack(reply: AdminReply) -> Option<()> {
    matches!(reply, AdminReply::Unit).then_some(())
}

/// The full memnode surface a coordinator uses, object-safe so local and
/// wire-backed nodes are interchangeable behind [`NodeHandle`].
///
/// Error convention: calls return [`Unavailable`] when the node is crashed
/// **or unreachable** — a dead connection and a dead process are
/// indistinguishable to a client, and the execution layer's
/// retry/recovery machinery treats them identically.
pub trait NodeRpc: Send + Sync {
    /// This node's id.
    fn id(&self) -> MemNodeId;

    /// Address-space capacity in bytes.
    fn capacity(&self) -> u64;

    /// One-phase (collapsed) minitransaction execution.
    fn exec_single(
        &self,
        txid: TxId,
        shard: &WireShard,
        policy: LockPolicy,
    ) -> Result<SingleResult, Unavailable>;

    /// Executes a batch of independent minitransactions destined for this
    /// node in one round trip, returning per-member results in order. The
    /// members travel, as they are, in one frame — which is why they
    /// arrive owned.
    fn exec_batch(&self, items: Vec<WireBatchItem>) -> Vec<Result<SingleResult, Unavailable>>;

    /// Two-phase prepare: lock, compare, stage. `participants` is the full
    /// participant set, logged for in-doubt resolution.
    fn prepare(
        &self,
        txid: TxId,
        shard: &WireShard,
        policy: LockPolicy,
        participants: &[MemNodeId],
    ) -> Result<Vote, Unavailable>;

    /// Two-phase commit decision (idempotent for unknown ids).
    fn commit(&self, txid: TxId) -> Result<(), Unavailable>;

    /// Two-phase abort decision (idempotent for unknown ids).
    fn abort(&self, txid: TxId) -> Result<(), Unavailable>;

    /// Unsynchronized raw read (bootstrap / GC scans).
    fn raw_read(&self, off: u64, len: u32) -> Result<Bytes, Unavailable>;

    /// Raw bootstrap write.
    fn raw_write(&self, off: u64, data: &[u8]) -> Result<(), Unavailable>;

    /// Reads up to `max` raw framed redo-log bytes from logical offset
    /// `from`, for replication shipping.
    fn wal_fetch(&self, from: u64, max: u32) -> Result<WalSegment, Unavailable>;

    /// Incorporates a chunk of a primary's log stream starting at source
    /// offset `from` (see [`MemNode::repl_apply`]); returns the follower's
    /// status after the chunk.
    fn repl_apply(&self, from: u64, frames: &[u8]) -> Result<ReplStatus, Unavailable>;

    /// This node's replication status (watermark / applied txid / tail).
    fn repl_status(&self) -> Result<ReplStatus, Unavailable>;

    /// True if the node is currently crashed (or unreachable).
    fn is_crashed(&self) -> bool;

    /// True while the node's elastic join is in progress.
    fn is_joining(&self) -> bool;

    /// True while the node is draining for decommissioning.
    fn is_retiring(&self) -> bool;

    /// Performs one admin operation at the node. The single entry point
    /// for everything off the data plane, and fallible like the rest of
    /// it: an unreachable node answers [`Unavailable`], never a default.
    /// A failure of the operation itself, at a node that was reached,
    /// comes back as `Ok(`[`AdminReply::Error`]`)`.
    fn admin(&self, op: AdminOp) -> Result<AdminReply, Unavailable>;

    /// Drops the client-side cache of this node's crashed/joining/retiring
    /// flags, forcing the next check to re-learn them (membership-gate
    /// transitions call this).
    fn invalidate_cached_flags(&self);

    /// The memnode behind this handle, when it is in this process.
    fn as_local(&self) -> Option<&MemNode>;

    // -- Typed conveniences over `admin`, each written once, here. --

    /// Sets / clears the joining fence.
    fn set_joining(&self, joining: bool) -> Result<(), Unavailable> {
        admin_as(self, AdminOp::SetJoining(joining), ack)
    }

    /// Sets / clears the retiring fence.
    fn set_retiring(&self, retiring: bool) -> Result<(), Unavailable> {
        admin_as(self, AdminOp::SetRetiring(retiring), ack)
    }

    /// Injects a crash (volatile state dropped). Best-effort: a node that
    /// cannot be reached is as crashed as this can make it.
    fn crash(&self) {
        let _ = self.admin(AdminOp::Crash);
    }

    /// Recovers by replaying the node's image and log. Best-effort: if the
    /// request does not arrive, or the log cannot be replayed, the node
    /// stays crashed, which every later call reports.
    fn recover(&self) {
        let _ = self.admin(AdminOp::Recover);
    }

    /// Takes a checkpoint; `Ok(false)` when skipped. `Unavailable` and a
    /// checkpoint that failed at the node are both errors, the latter
    /// with the node's message.
    fn checkpoint(&self) -> io::Result<bool> {
        match self.admin(AdminOp::Checkpoint) {
            Ok(AdminReply::Bool(took)) => Ok(took),
            Ok(AdminReply::Error(msg)) => Err(io::Error::other(msg)),
            Ok(other) => Err(io::Error::other(format!(
                "memnode {} answered a checkpoint with {}",
                self.id(),
                other.kind_name()
            ))),
            Err(u) => Err(io::Error::new(io::ErrorKind::ConnectionAborted, u)),
        }
    }

    /// Owned snapshot of the node's counters.
    fn node_stats(&self) -> Result<NodeStats, Unavailable> {
        admin_as(self, AdminOp::Stats, |r| match r {
            AdminReply::Stats(s) => Some(s),
            _ => None,
        })
    }

    /// Number of currently prepared (in-doubt) transactions.
    fn in_doubt(&self) -> Result<usize, Unavailable> {
        Ok(self.node_stats()?.in_doubt as usize)
    }

    /// Bytes currently retained in the redo log.
    fn wal_retained_bytes(&self) -> Result<u64, Unavailable> {
        Ok(self.node_stats()?.wal_retained_bytes)
    }

    /// Recovery metadata for in-doubt resolution. Fallible on purpose: an
    /// unreachable participant has not "voted no", it has not answered.
    fn node_meta(&self) -> Result<NodeMeta, Unavailable> {
        admin_as(self, AdminOp::Meta, |r| match r {
            AdminReply::Meta(m) => Some(m),
            _ => None,
        })
    }

    /// Point-in-time snapshot of every metric the node's observability
    /// plane registers (`memnode.*`, `wal.*`, …). Best-effort: empty when
    /// the node cannot be reached — observability never fails its caller.
    fn obs_snapshot(&self) -> ObsSnapshot {
        match self.admin(AdminOp::ObsSnapshot) {
            Ok(AdminReply::Obs(b)) => ObsSnapshot::decode(&b).unwrap_or_default(),
            _ => ObsSnapshot::default(),
        }
    }

    /// Recent traces from the node's ring buffer (the slow-op buffer when
    /// `slow`), oldest first. Best-effort, like [`NodeRpc::obs_snapshot`].
    fn trace_dump(&self, max: u32, slow: bool) -> Vec<Trace> {
        match self.admin(AdminOp::TraceDump { max, slow }) {
            Ok(AdminReply::Traces(b)) => Trace::decode_many(&b).unwrap_or_default(),
            _ => Vec::new(),
        }
    }

    /// Applies a fault-injection spec inside the node's process
    /// (`minuet_faults::apply_spec` grammar; `"clear"` disarms all).
    /// Returns the number of failpoints armed there afterwards; a spec the
    /// node rejects is an error.
    fn apply_faults(&self, spec: &str) -> Result<u32, Unavailable> {
        let spec = spec.to_string();
        admin_as(self, AdminOp::Faults { spec }, |r| match r {
            AdminReply::Faults { armed } => Some(armed),
            _ => None,
        })
    }

    /// Asks the process serving this node to exit cleanly (orchestration
    /// and the CI smoke test). An in-process node only acknowledges it.
    fn shutdown_server(&self) -> Result<(), Unavailable> {
        admin_as(self, AdminOp::Shutdown, ack)
    }
}
