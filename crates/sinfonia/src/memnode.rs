//! Memnode: a Sinfonia storage node.
//!
//! A memnode owns a [`NodeState`] (the byte-addressable
//! [`PagedSpace`], the staged and decided two-phase transactions), a range
//! [`LockManager`], and participates in the one/two-phase minitransaction
//! protocol. Every mutation is a log [`Record`], and takes effect in one
//! order — validate, log, [`NodeState::redo`] — so a crash never loses a
//! committed minitransaction and never breaks two-phase atomicity.
//!
//! Every memnode keeps one redo log ([`Wal`]) bounded by checkpoint images,
//! and a crashed node gets its state back one way: the image and the log
//! read back and replayed ([`recovery::recover_node`]). Whether those bytes
//! are files that outlive the process (with durability enabled, see
//! [`crate::wal::DurabilityConfig`]) or live in memory is the log's
//! business, not the node's.

use crate::addr::MemNodeId;
use crate::bytes::Bytes;
use crate::lock::{LockAcquire, LockManager, TxId};
use crate::minitx::LockPolicy;
use crate::recovery::{self, NodeMeta};
use crate::space::{OutOfBounds, PagedSpace};
use crate::state::{self, NodeState};
use crate::wal::{
    parse_frames, DurabilityConfig, Record, Wal, WalAppender, WalError, WalSegment, WalStats,
    REPL_WRAP,
};
use crate::wire::WireShard;
use crate::{checkpoint, lock};
use minuet_faults as faults;
use minuet_obs::{span, Counter, ObsPlane, ObsSnapshot, SpanKind};
use parking_lot::{RwLock, RwLockWriteGuard};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A participant's vote in the two-phase protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Vote {
    /// Locks held, compares matched; staged reads are returned eagerly
    /// (they are stable until commit/abort because the locks are held).
    /// Pairs are `(original read-item index, data)`.
    Ok(Vec<(usize, Bytes)>),
    /// One or more compares failed; local locks were already released.
    /// Carries original compare-item indices.
    BadCompare(Vec<usize>),
    /// A lock was busy (or the blocking wait budget expired); local locks
    /// were already released. The coordinator retries the minitransaction.
    Busy,
}

/// Result of the collapsed one-phase protocol at a single memnode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SingleResult {
    /// Committed; read results as `(original index, data)` pairs.
    Committed(Vec<(usize, Bytes)>),
    /// Compares failed (original indices); nothing written.
    BadCompare(Vec<usize>),
    /// Lock contention; caller retries.
    Busy,
}

/// Replication-side status of a memnode, served by
/// [`MemNode::repl_status`] (and the matching wire RPC). On a primary the
/// interesting field is `tail` (where a follower should ship up to); on a
/// follower it is `watermark` and `applied_txid` (how far it has
/// incorporated, for resume and read gating).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplStatus {
    /// Largest source-log offset durably incorporated (follower side).
    pub watermark: u64,
    /// Largest transaction id this node's state has incorporated — through
    /// its own log, a primary's stream, or recovery.
    pub applied_txid: u64,
    /// Logical tail of this node's own redo log.
    pub tail: u64,
    /// Cumulative records incorporated from the stream.
    pub applies: u64,
    /// Cumulative redelivered frames skipped at or below the watermark.
    pub dup_skips: u64,
}

/// Error returned when a memnode is crashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unavailable(pub MemNodeId);

impl std::fmt::Display for Unavailable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "memnode {} is unavailable", self.0)
    }
}

impl std::error::Error for Unavailable {}

/// A prepared (staged) transaction awaiting the coordinator's decision.
#[derive(Clone, Debug)]
pub struct PreparedTx {
    /// Canonical lock spans held at this memnode.
    pub spans: Vec<(u64, u64)>,
    /// Staged `(offset, data)` writes; the payloads share the buffers the
    /// coordinator shipped (no copy at staging time).
    pub writes: Vec<(u64, Bytes)>,
    /// Every memnode participating in the minitransaction (recorded so
    /// recovery can resolve in-doubt outcomes).
    pub participants: Vec<MemNodeId>,
}

/// Per-memnode operation counters. The fields are registered [`Counter`]
/// handles: the node increments its own handles, and the node's
/// [`ObsPlane`] registry exposes the same series under `memnode.*` names,
/// so one registry snapshot covers them.
#[derive(Default)]
pub struct MemNodeCounters {
    /// One-phase executions that committed.
    pub single_commits: Counter,
    /// Prepares that voted Ok.
    pub prepares: Counter,
    /// Two-phase commits applied.
    pub commits: Counter,
    /// Aborts processed (both compare failures and coordinator aborts).
    pub aborts: Counter,
    /// Lock-busy rejections.
    pub busy: Counter,
    /// Read-only one-phase executions served by the lock-free fast path
    /// (no lock acquisition; validated by a span probe + release stamp).
    pub read_fastpath: Counter,
    /// Fast-path attempts that detected a racing writer and fell back to
    /// the locked path.
    pub read_fastpath_misses: Counter,
    /// Single-phase writes served by the lock-free fast path (no lock
    /// acquisition; the space write guard plus a span probe bracket make
    /// the compare+apply atomic against every other execution path).
    pub write_fastpath: Counter,
    /// Write fast-path attempts that found a held or newly-released lock
    /// and fell back to the locked path.
    pub write_fastpath_misses: Counter,
    /// Replicated records incorporated from a primary's log stream.
    pub repl_applies: Counter,
    /// Redelivered stream frames skipped because they were at or below
    /// the replication watermark (exactly-once incorporation).
    pub repl_dup_skips: Counter,
    /// WAL append/fsync failures observed (each one degrades the node to
    /// read-only until it is recovered).
    pub wal_failures: Counter,
    /// Requests whose handler panicked; the server answers each with an
    /// error, so a client sees only `Unavailable`.
    pub handler_panics: Counter,
}

impl MemNodeCounters {
    /// Registers every counter under `memnode.*` in `plane`'s registry.
    fn register(&self, plane: &ObsPlane) {
        let r = &plane.registry;
        r.register_counter("memnode.single_commits", &self.single_commits);
        r.register_counter("memnode.prepares", &self.prepares);
        r.register_counter("memnode.commits", &self.commits);
        r.register_counter("memnode.aborts", &self.aborts);
        r.register_counter("memnode.busy", &self.busy);
        r.register_counter("memnode.read_fastpath", &self.read_fastpath);
        r.register_counter("memnode.read_fastpath_misses", &self.read_fastpath_misses);
        r.register_counter("memnode.write_fastpath", &self.write_fastpath);
        r.register_counter("memnode.write_fastpath_misses", &self.write_fastpath_misses);
        r.register_counter("repl.applies", &self.repl_applies);
        r.register_counter("repl.dup_skips", &self.repl_dup_skips);
        r.register_counter("memnode.wal_failures", &self.wal_failures);
        r.register_counter("memnode.handler_panics", &self.handler_panics);
    }
}

/// A shard's evaluation: the read items, or the failed compares' indices.
type Eval = Result<Vec<(usize, Bytes)>, Vec<usize>>;

/// The guards of one logged mutation. The node's guard order is the log's
/// appender first, then the state; the fields are declared in the order
/// they are released.
struct Held<'a> {
    node: &'a MemNode,
    /// Taken by [`Held::state`]: late on the locked paths, so readers run
    /// during the append; up front on the write fast path, whose compares
    /// must be evaluated under the guard its writes apply under.
    state: Option<RwLockWriteGuard<'a, NodeState>>,
    log: WalAppender<'a>,
}

impl Held<'_> {
    fn state(&mut self) -> &mut NodeState {
        self.state.get_or_insert_with(|| self.node.state.write())
    }

    /// The one way a record takes effect on a live node, and the only
    /// order there is: **check → append → redo**, under one appender
    /// guard. A record the state would refuse is refused before it is
    /// logged; a failed append degrades the node read-only before any
    /// effect; and because the redo happens under the guard the append
    /// happened under, a checkpoint can never pair a log tail past a record
    /// with a state missing its effects. `src` is set for a record
    /// incorporated from a primary's stream: its end offset there and the
    /// payload it arrived as, which is what gets logged (wrapped,
    /// verbatim). Returns the log offset to [`MemNode::wait_durable`] on
    /// before acking.
    fn log(&mut self, src: Option<(u64, &[u8])>, rec: &Record<'_>) -> Result<u64, Unavailable> {
        let node = self.node;
        let refused = |_: OutOfBounds| Unavailable(node.id);
        state::check(rec, node.capacity).map_err(refused)?;
        let wrapped = src.map(|(src_off, payload)| Record::Repl { src_off, payload });
        let appended = {
            let _s = span(SpanKind::SrvWalAppend);
            self.log.append(wrapped.as_ref().unwrap_or(rec))
        };
        let end = appended.map_err(|e| node.degrade(e))?;
        let src_off = src.map(|(off, _)| off);
        self.state().redo(src_off, rec).map_err(refused)?;
        Ok(end)
    }

    /// Logs a shard's writes as one one-phase `Apply`. Arc bumps, not
    /// payload copies: the coordinator's buffers flow into the log and the
    /// space unchanged.
    fn log_writes(&mut self, txid: TxId, shard: &WireShard) -> Result<u64, Unavailable> {
        let writes = &shard.staged_writes();
        self.log(None, &Record::Apply { txid, writes })
    }
}

/// A Sinfonia memnode: a [`NodeState`] and the redo log that describes it.
/// Every logged mutation takes one path (`Held::log`: check → append →
/// redo under the appender guard), and every crashed node comes back one
/// way ([`MemNode::recover`]).
pub struct MemNode {
    /// This node's id.
    pub id: MemNodeId,
    /// Address-space capacity in bytes: the bound every item is held to
    /// before it may lock, log or touch the space.
    capacity: u64,
    locks: LockManager,
    /// Everything the log describes. Readers share the guard; it is
    /// written only by `Held::log`, and replaced wholesale by
    /// [`MemNode::crash`] and [`MemNode::recover`].
    state: RwLock<NodeState>,
    /// The redo log, and the checkpoint image that bounds it.
    wal: Wal,
    crashed: AtomicBool,
    /// Latched when the redo log fails (short write, ENOSPC, fsync error):
    /// the node keeps serving reads but refuses every logged mutation with
    /// `Unavailable` instead of panicking. Cleared by [`MemNode::recover`].
    degraded: AtomicBool,
    /// True while the node is joining an elastic cluster: it already
    /// participates in replicated *writes* but its replicas of
    /// pre-existing replicated objects have not been seeded yet, so it
    /// must not be chosen as a read/validation replica or as an
    /// allocation target (see `SinfoniaCluster::add_memnode`).
    joining: AtomicBool,
    /// True while the node is being drained for decommissioning:
    /// allocators should steer new placements elsewhere.
    retiring: AtomicBool,
    ckpt_running: AtomicBool,
    /// Operation counters.
    pub stats: MemNodeCounters,
    /// This node's observability plane: its registry exposes the
    /// `memnode.*` counters and the `wal.*` series; its trace buffer holds
    /// server-side traces recorded for wire clients.
    pub obs: Arc<ObsPlane>,
}

impl MemNode {
    /// Creates an in-memory memnode with `capacity` bytes of address space:
    /// its log and images live in memory, so it survives [`MemNode::crash`]
    /// but not the process.
    pub fn new(id: MemNodeId, capacity: u64) -> Self {
        Self::build(id, NodeState::new(capacity), Wal::in_memory())
    }

    /// Creates a durable memnode with **fresh** on-disk state (any previous
    /// log or checkpoint at this node's paths is removed). Use
    /// [`MemNode::open_from_disk`] to resume existing state instead.
    pub fn durable(id: MemNodeId, capacity: u64, dcfg: &DurabilityConfig) -> io::Result<Self> {
        let wal = Wal::durable(dcfg, id, true)?;
        Ok(Self::build(id, NodeState::new(capacity), wal))
    }

    /// Reopens a durable memnode from its checkpoint image and redo log.
    /// Returns the node (with in-doubt transactions re-staged and their
    /// locks re-acquired), the recovery metadata for in-doubt resolution,
    /// and the largest transaction id seen on disk.
    pub fn open_from_disk(
        id: MemNodeId,
        capacity: u64,
        dcfg: &DurabilityConfig,
    ) -> io::Result<(Self, NodeMeta, TxId)> {
        let wal = Wal::durable(dcfg, id, false)?;
        let state = recovery::recover_node(&wal, capacity)?;
        let (meta, max_txid) = (state.meta(), state.max_txid);
        Ok((Self::build(id, state, wal), meta, max_txid))
    }

    fn build(id: MemNodeId, state: NodeState, wal: Wal) -> Self {
        let obs = ObsPlane::disabled();
        let stats = MemNodeCounters::default();
        stats.register(&obs);
        wal.stats.register(&obs);
        let node = MemNode {
            id,
            capacity: state.space.capacity(),
            locks: LockManager::new(),
            state: RwLock::new(state),
            wal,
            crashed: AtomicBool::new(false),
            degraded: AtomicBool::new(false),
            joining: AtomicBool::new(false),
            retiring: AtomicBool::new(false),
            ckpt_running: AtomicBool::new(false),
            stats,
            obs,
        };
        node.relock();
        node
    }

    /// Re-takes the locks of every staged transaction. The lock table is
    /// volatile and follows from the state, so whoever installs a state
    /// re-derives it here.
    fn relock(&self) {
        for (txid, tx) in &self.state.read().staged {
            let got = self.locks.try_lock(&tx.spans, *txid);
            debug_assert_eq!(got, LockAcquire::Granted, "recovery lock conflict");
        }
    }

    /// Takes the appender guard for one logged mutation (see [`Held`]),
    /// and looks again, under it, at whether the node is up: `crash` and
    /// `recover` flip the flag under this guard, so a mutation that passed
    /// its entry check just before a crash is refused here rather than run
    /// against the scribbled state — whose empty staged set would turn a
    /// commit into an acknowledged no-op.
    fn hold(&self) -> Result<Held<'_>, Unavailable> {
        let log = self.wal.lock();
        self.check_up()?;
        Ok(Held {
            node: self,
            state: None,
            log,
        })
    }

    /// Blocks until the log offset [`Held::log`] returned is durable per
    /// the sync mode (a failed fsync degrades the node); then, the guards
    /// released, takes the checkpoint a log that has outgrown its bound
    /// asks for ([`Wal::wants_checkpoint`]). A checkpoint that fails leaves
    /// the log whole, and the next mutation asks again.
    fn wait_durable(&self, end: Option<u64>) -> Result<(), Unavailable> {
        let Some(end) = end else {
            return Ok(());
        };
        {
            let _fs = span(SpanKind::SrvFsync);
            self.wal.wait_durable(end).map_err(|e| self.degrade(e))?;
        }
        if self.wal.wants_checkpoint() {
            let _ = self.checkpoint();
        }
        Ok(())
    }

    #[inline]
    fn check_up(&self) -> Result<(), Unavailable> {
        if self.crashed.load(Ordering::Acquire) {
            Err(Unavailable(self.id))
        } else {
            Ok(())
        }
    }

    /// Like [`MemNode::check_up`], but also refuses when the node has
    /// degraded to read-only after a WAL failure. Every logged-mutation
    /// entry point goes through this; plain reads only need `check_up`.
    #[inline]
    fn check_writable(&self) -> Result<(), Unavailable> {
        self.check_up()?;
        if self.degraded.load(Ordering::Acquire) {
            return Err(Unavailable(self.id));
        }
        Ok(())
    }

    /// Latches read-only mode after a WAL failure and returns the
    /// `Unavailable` the failed operation surfaces. The typed cause is
    /// counted (`memnode.wal_failures`) rather than panicking the node.
    fn degrade(&self, _cause: WalError) -> Unavailable {
        self.degraded.store(true, Ordering::Release);
        self.stats.wal_failures.fetch_add(1, Ordering::Relaxed);
        Unavailable(self.id)
    }

    /// True if the node is currently crashed.
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::Acquire)
    }

    /// True once a WAL failure has degraded the node to read-only (see
    /// [`MemNode::recover`] for how it heals).
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// Address-space capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// True while the node's replicated-object replicas are being seeded
    /// (elastic join in progress).
    pub fn is_joining(&self) -> bool {
        self.joining.load(Ordering::Acquire)
    }

    /// Marks / clears the joining state (elastic scale-out).
    pub fn set_joining(&self, joining: bool) {
        self.joining.store(joining, Ordering::Release);
    }

    /// True while the node is being drained for decommissioning.
    pub fn is_retiring(&self) -> bool {
        self.retiring.load(Ordering::Acquire)
    }

    /// Marks / clears the retiring state (elastic drain).
    pub fn set_retiring(&self, retiring: bool) {
        self.retiring.store(retiring, Ordering::Release);
    }

    /// True if this node logs to disk.
    pub fn is_durable(&self) -> bool {
        self.wal.is_durable()
    }

    /// Redo-log counters.
    pub fn wal_stats(&self) -> &WalStats {
        &self.wal.stats
    }

    /// Bytes currently retained in the redo log.
    pub fn wal_retained_bytes(&self) -> u64 {
        self.wal.retained_bytes()
    }

    /// Every series this node exports, at one instant: the registry's
    /// counters and histograms, plus three values read from the node as
    /// the snapshot is taken — `memnode.in_doubt` (prepared transactions),
    /// `wal.retained_bytes` and `wal.durable` (1 when the log is on disk).
    /// This is what [`crate::wire::AdminOp::ObsSnapshot`] answers, in any
    /// state: a crashed node holds nothing in doubt.
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        let mut snap = self.obs.registry.snapshot();
        let read = [
            ("memnode.in_doubt", self.in_doubt() as u64),
            ("wal.durable", u64::from(self.is_durable())),
            ("wal.retained_bytes", self.wal_retained_bytes()),
        ];
        snap.counters
            .extend(read.map(|(name, v)| (name.to_string(), v)));
        snap.counters.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        snap
    }

    fn acquire(&self, spans: &[(u64, u64)], txid: TxId, policy: LockPolicy) -> LockAcquire {
        match policy {
            LockPolicy::AbortOnBusy => self.locks.try_lock(spans, txid),
            LockPolicy::Block(budget) => self.locks.lock_blocking(spans, txid, budget),
        }
    }

    /// Evaluates compares and stages reads. The caller guarantees
    /// stability: either it holds the item locks, or it brackets this call
    /// with [`LockManager::probe`]s (the read fast path), or it holds the
    /// state guard itself (the write fast path). Reads are zero-copy views
    /// of the resident pages.
    ///
    /// The crash flag is read again under the state guard: `crash` raises
    /// it before it swaps in an empty state and `recover` lowers it after
    /// installing the recovered one, so an evaluation that finds it down
    /// read a live state, never a crash's zeroed one.
    fn eval(&self, shard: &WireShard) -> Result<Eval, Unavailable> {
        let state = self.state.read();
        self.check_up()?;
        Ok(Self::eval_in(&state.space, shard))
    }

    /// [`MemNode::eval`] against a state guard the caller already holds.
    fn eval_in(space: &PagedSpace, shard: &WireShard) -> Eval {
        let mut failed = Vec::new();
        for (idx, off, expected) in &shard.compares {
            let ok = space
                .compare(*off, expected)
                .expect("compare item in bounds");
            if !ok {
                failed.push(*idx as usize);
            }
        }
        if !failed.is_empty() {
            return Err(failed);
        }
        let mut reads = Vec::with_capacity(shard.reads.len());
        for (idx, off, len) in &shard.reads {
            let data = space.read(*off, *len).expect("read item in bounds");
            reads.push((*idx as usize, data));
        }
        Ok(reads)
    }

    /// The share's one layout invariant, asserted where it enters the
    /// node — before a lock is taken or a record appended, so a caller's
    /// bug can never reach the log. Callers check first and answer with a
    /// typed error: [`crate::exec`] for a coordinator's own items, the
    /// server for bytes from outside.
    fn assert_in_bounds(&self, shard: &WireShard) {
        let extent = shard.max_extent();
        assert!(
            extent <= self.capacity,
            "share of memnode {} ends at {extent}, past capacity {}",
            self.id,
            self.capacity
        );
    }

    /// One-phase (collapsed) execution: used when a minitransaction touches
    /// only this memnode. Locks, compares, reads, writes, unlocks — one
    /// round trip, and locks are held only for the duration of the call.
    ///
    /// Read-only shards first try a **lock-free fast path**: evaluate
    /// without acquiring item locks, bracketed by two span probes of the
    /// lock table. Equal release stamps with no held lock on either side
    /// prove no conflicting writer was in flight or completed during the
    /// evaluation, so the result is identical to the locked execution —
    /// including strictness (an overlapping prepared-but-undecided
    /// transaction would show up as a held lock). A racing writer fails the
    /// probe and the execution falls back to the ordinary locked path.
    pub fn exec_single(
        &self,
        txid: TxId,
        shard: &WireShard,
        policy: LockPolicy,
    ) -> Result<SingleResult, Unavailable> {
        self.check_up()?;
        self.assert_in_bounds(shard);
        let spans = shard.lock_spans();

        if shard.writes.is_empty() {
            for _ in 0..2 {
                let Some(s1) = self.locks.probe(&spans) else {
                    break; // a lock is held: the slow path sorts it out
                };
                let result = self.eval(shard)?;
                if self.locks.probe(&spans) == Some(s1) {
                    self.stats.read_fastpath.fetch_add(1, Ordering::Relaxed);
                    return Ok(match result {
                        Err(failed) => {
                            self.stats.aborts.fetch_add(1, Ordering::Relaxed);
                            SingleResult::BadCompare(failed)
                        }
                        Ok(reads) => {
                            self.stats.single_commits.fetch_add(1, Ordering::Relaxed);
                            SingleResult::Committed(reads)
                        }
                    });
                }
                self.stats
                    .read_fastpath_misses
                    .fetch_add(1, Ordering::Relaxed);
            }
        } else {
            self.check_writable()?;
            if let Some(result) = self.try_write_fastpath(txid, shard, &spans) {
                return result;
            }
        }

        let busy = {
            let _lw = span(SpanKind::SrvLockWait);
            self.acquire(&spans, txid, policy) == LockAcquire::Busy
        };
        if busy {
            self.stats.busy.fetch_add(1, Ordering::Relaxed);
            return Ok(SingleResult::Busy);
        }
        let mut wait = None;
        let result = {
            let _ex = span(SpanKind::SrvExec);
            match self.eval(shard) {
                Err(down) => Err(down),
                Ok(Err(failed)) => {
                    self.stats.aborts.fetch_add(1, Ordering::Relaxed);
                    Ok(SingleResult::BadCompare(failed))
                }
                Ok(Ok(reads)) => {
                    let logged = if shard.writes.is_empty() {
                        Ok(None)
                    } else {
                        self.hold()
                            .and_then(|mut h| h.log_writes(txid, shard).map(Some))
                    };
                    logged.map(|end| {
                        wait = end;
                        self.stats.single_commits.fetch_add(1, Ordering::Relaxed);
                        SingleResult::Committed(reads)
                    })
                }
            }
        };
        self.locks.release(txid);
        let result = result?;
        self.wait_durable(wait)?;
        Ok(result)
    }

    /// The write analogue of the lock-free read probe: with no lock held
    /// over the shard's spans and the state's write guard in hand, the
    /// compare+log+apply sequence is atomic with respect to every other
    /// execution path — locked transactions cannot evaluate while we hold
    /// the state guard, and prepared-but-undecided transactions show up as
    /// held locks at the probes. Uncontended single-memnode commits (the
    /// fused cached-leaf put) thus skip the lock table entirely. Returns
    /// `None` to fall back to the ordinary locked path.
    fn try_write_fastpath(
        &self,
        txid: TxId,
        shard: &WireShard,
        spans: &[(u64, u64)],
    ) -> Option<Result<SingleResult, Unavailable>> {
        let s1 = self.locks.probe(spans)?;
        // Both guards before the second probe, in the locked paths' order.
        let mut held = match self.hold() {
            Ok(held) => held,
            Err(down) => return Some(Err(down)),
        };
        held.state();
        // A lock acquired (or acquired-and-released) since the first probe
        // means a conflicting transaction may have evaluated before we
        // took the state guard; let the locked path serialize against it.
        if self.locks.probe(spans) != Some(s1) {
            self.stats
                .write_fastpath_misses
                .fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let result = match Self::eval_in(&held.state().space, shard) {
            Err(failed) => {
                self.stats.aborts.fetch_add(1, Ordering::Relaxed);
                Ok(SingleResult::BadCompare(failed))
            }
            Ok(reads) => {
                let _ex = span(SpanKind::SrvExec);
                let logged = held.log_writes(txid, shard);
                drop(held);
                logged
                    .and_then(|end| self.wait_durable(Some(end)))
                    .map(|()| {
                        self.stats.single_commits.fetch_add(1, Ordering::Relaxed);
                        SingleResult::Committed(reads)
                    })
            }
        };
        self.stats.write_fastpath.fetch_add(1, Ordering::Relaxed);
        Some(result)
    }

    /// Phase one of the two-phase protocol: lock, compare, stage writes.
    /// Reads are performed now (safe: locks are held until the decision).
    /// `participants` is the full participant set of the minitransaction;
    /// it is logged with the prepare so crash recovery can resolve the
    /// outcome if the coordinator dies.
    pub fn prepare(
        &self,
        txid: TxId,
        shard: &WireShard,
        policy: LockPolicy,
        participants: &[MemNodeId],
    ) -> Result<Vote, Unavailable> {
        self.check_writable()?;
        self.assert_in_bounds(shard);
        let spans = shard.lock_spans();
        let lock_busy = {
            let _lw = span(SpanKind::SrvLockWait);
            self.acquire(&spans, txid, policy) == LockAcquire::Busy
        };
        if lock_busy {
            self.stats.busy.fetch_add(1, Ordering::Relaxed);
            return Ok(Vote::Busy);
        }
        let reads = match self.eval(shard) {
            Ok(Ok(reads)) => reads,
            Ok(Err(failed)) => {
                self.locks.release(txid);
                self.stats.aborts.fetch_add(1, Ordering::Relaxed);
                return Ok(Vote::BadCompare(failed));
            }
            Err(down) => {
                self.locks.release(txid);
                return Err(down);
            }
        };
        let participants: Vec<u16> = participants.iter().map(|m| m.0).collect();
        let rec = Record::Prepare {
            txid,
            participants: &participants,
            spans: &spans,
            writes: &shard.staged_writes(),
        };
        let staged = self.hold().and_then(|mut h| h.log(None, &rec));
        let end = match staged {
            Ok(end) => end,
            Err(e) => {
                // Refused or not logged: nothing is staged, so release
                // the locks and vote unavailable.
                self.locks.release(txid);
                return Err(e);
            }
        };
        self.stats.prepares.fetch_add(1, Ordering::Relaxed);
        // A failed fsync leaves the vote staged, exactly as the log has
        // it: the node is degraded, and `recover` keeps or drops the
        // transaction according to what reached the log.
        self.wait_durable(Some(end))?;
        Ok(Vote::Ok(reads))
    }

    /// Logs a two-phase decision for `txid` if it is staged here, then
    /// releases its locks. `None` when the id is unknown — the decision
    /// was already applied before a crash or retry, and nothing is logged
    /// — else the offset to wait on. On a failed append the transaction
    /// stays staged with its locks held: the decision did not land, and
    /// recovery (or a restarted node) resolves it.
    fn decide(&self, txid: TxId, rec: &Record<'_>) -> Result<Option<u64>, Unavailable> {
        let mut held = self.hold()?;
        // Stable: staging and un-staging happen under the appender guard.
        let staged = self.state.read().staged.contains_key(&txid);
        let end = if staged {
            Some(held.log(None, rec)?)
        } else {
            None
        };
        drop(held);
        self.locks.release(txid);
        Ok(end)
    }

    /// Phase two, commit: applies the staged writes and releases locks.
    /// Idempotent: committing an unknown txid is a no-op (the decision was
    /// already applied before a crash/retry).
    pub fn commit(&self, txid: TxId) -> Result<(), Unavailable> {
        self.check_writable()?;
        if let Some(end) = self.decide(txid, &Record::Commit { txid })? {
            self.stats.commits.fetch_add(1, Ordering::Relaxed);
            // The commit has applied; an fsync failure degrades the node
            // but the coordinator's retry will see the idempotent no-op.
            self.wait_durable(Some(end))?;
        }
        Ok(())
    }

    /// Phase two, abort: discards staged writes and releases locks.
    /// Safe to call for transactions this node never prepared. The abort
    /// record is appended but never forced: losing it merely leaves an
    /// in-doubt entry that resolution re-aborts (some participant is
    /// guaranteed to have voted no or stayed unknown).
    pub fn abort(&self, txid: TxId) -> Result<(), Unavailable> {
        self.check_up()?;
        self.decide(txid, &Record::Abort { txid })?;
        self.stats.aborts.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Simulates a crash of the primary: everything volatile is dropped —
    /// the lock table, and the whole state (scribbled over with an empty
    /// one, so a buggy post-crash read through stale state is detectable
    /// in tests). What survives is what the log holds.
    pub fn crash(&self) {
        // Under the appender guard, so a concurrent checkpoint cannot
        // capture the scribbled post-crash state.
        let _held = self.wal.lock();
        self.crashed.store(true, Ordering::Release);
        self.locks.clear();
        *self.state.write() = NodeState::new(self.capacity);
    }

    /// Recovers the node: the state comes back wholesale from the image
    /// and log read back and replayed ([`recovery::recover_node`]), staged
    /// transactions re-take their locks, and the coordinator's eventual
    /// commit/abort decision completes them. Also heals a degraded node
    /// (which is unavailable for the duration). When the log cannot be
    /// replayed the error is returned and the node stays crashed.
    pub fn recover(&self) -> io::Result<()> {
        // Fence first (a heal of a live, degraded node included): once the
        // flag is up under the appender guard, no logged mutation runs
        // between reading the log back and installing what it held.
        self.crashed.store(true, Ordering::Release);
        drop(self.wal.lock());
        *self.state.write() = recovery::recover_node(&self.wal, self.capacity)?;
        self.relock();
        self.degraded.store(false, Ordering::Release);
        self.crashed.store(false, Ordering::Release);
        Ok(())
    }

    /// Takes a checkpoint: freezes `(log tail, state)` consistently,
    /// installs the image atomically, then drops the covered log prefix.
    /// Returns `false` when skipped (crashed, or a checkpoint is already
    /// running).
    pub fn checkpoint(&self) -> io::Result<bool> {
        if self.ckpt_running.swap(true, Ordering::AcqRel) {
            return Ok(false);
        }
        let result = self.checkpoint_inner();
        self.ckpt_running.store(false, Ordering::Release);
        result
    }

    fn checkpoint_inner(&self) -> io::Result<bool> {
        // Freeze (tail, state) under the appender lock, but keep the
        // expensive serialization and the install outside it so commits
        // only stall for the duration of the in-memory clone.
        let (frozen, upto) = {
            let g = self.wal.lock();
            if self.is_crashed() {
                return Ok(false);
            }
            (self.state.read().snapshot(), g.tail())
        };
        let image = checkpoint::encode_image(
            &frozen.space,
            &frozen.staged,
            &frozen.decided,
            frozen.repl_watermark,
        );
        self.wal.install_image(image, upto)?;
        Ok(true)
    }

    /// Unsynchronized raw read used for bootstrap and GC candidate scans.
    /// Concurrent minitransactions may be writing; callers must confirm any
    /// decision with a proper minitransaction. Zero-copy: the returned
    /// view shares the resident page.
    /// Like every evaluation, it looks at the crash flag under the state
    /// guard it reads through.
    pub fn raw_read(&self, off: u64, len: u32) -> Result<Bytes, Unavailable> {
        let state = self.state.read();
        self.check_up()?;
        Ok(state
            .space
            .read(off, len)
            .unwrap_or_else(|e| panic!("raw read out of bounds: {e}")))
    }

    /// Raw write used only for cluster bootstrap (before any concurrent
    /// access exists). Logged like any other write (unforced), so
    /// bootstrap images survive a crash or restart.
    pub fn raw_write(&self, off: u64, data: Bytes) -> Result<(), Unavailable> {
        self.check_writable()?;
        let writes = &[(off, data)];
        let txid = lock::BOOTSTRAP_TXID;
        self.hold()?.log(None, &Record::Apply { txid, writes })?;
        Ok(())
    }

    /// Number of currently prepared (in-doubt) transactions.
    pub fn in_doubt(&self) -> usize {
        self.state.read().staged.len()
    }

    /// Recovery metadata of the live node: in-doubt transactions with
    /// their participant lists, plus the decided-commit set. Feeds
    /// [`crate::recovery::resolve_in_doubt`].
    pub fn node_meta(&self) -> NodeMeta {
        self.state.read().meta()
    }

    /// Reads up to `max` raw framed bytes of this node's redo log starting
    /// at logical offset `from`, for shipping to a replication follower.
    /// Any primary serves its log, wherever the log lives.
    pub fn wal_fetch(&self, from: u64, max: u32) -> Result<WalSegment, Unavailable> {
        self.check_up()?;
        if let Some(a) = faults::check_delay(faults::Site::ReplFetch) {
            if a == faults::Action::Panic {
                panic!("injected panic at repl.fetch");
            }
            return Err(Unavailable(self.id));
        }
        self.wal
            .read_from(from, max)
            .map_err(|_| Unavailable(self.id))
    }

    /// This node's replication status (see [`ReplStatus`]).
    pub fn repl_status(&self) -> Result<ReplStatus, Unavailable> {
        self.check_up()?;
        let state = self.state.read();
        Ok(ReplStatus {
            watermark: state.repl_watermark,
            applied_txid: state.max_txid,
            tail: self.wal.tail(),
            applies: self.stats.repl_applies.get(),
            dup_skips: self.stats.repl_dup_skips.get(),
        })
    }

    /// Incorporates a chunk of a primary's log stream. `from` is the
    /// logical offset of `frames[0]` in the primary's log; the bytes are
    /// raw CRC-framed records as returned by [`MemNode::wal_fetch`] (a
    /// torn trailing frame is ignored — the follower re-requests it).
    ///
    /// Each whole frame at source end offset `s`:
    /// - is **skipped** when `s ≤ watermark` (already durably incorporated
    ///   — redelivery after a resume is deduplicated, never re-applied);
    /// - is **refused** (`Unavailable`, the node not degraded) when this
    ///   node cannot apply it — a write past its capacity — *before*
    ///   anything is logged: the watermark stays where the previous frame
    ///   left it, and so does the stream until the pair is reconfigured;
    /// - otherwise goes the way of every logged mutation: logged as a
    ///   [`Record::Repl`] wrapping the primary payload, redone (one-phase
    ///   writes apply; prepares stage, and take their locks; decisions
    ///   finish staged transactions), the watermark advancing to `s`.
    ///
    /// That happens under the appender guard, so checkpoints freeze a
    /// consistent (state, watermark) pair and a restart resumes exactly
    /// where the durable log ends.
    pub fn repl_apply(&self, from: u64, frames: &[u8]) -> Result<ReplStatus, Unavailable> {
        self.check_writable()?;
        if let Some(a) = faults::check_delay(faults::Site::ReplApply) {
            if a == faults::Action::Panic {
                panic!("injected panic at repl.apply");
            }
            return Err(Unavailable(self.id));
        }
        let _s = span(SpanKind::ReplApply);
        let (records, _valid) = parse_frames(frames);
        let mut wait = None;
        for (rel_end, rec, payload) in &records {
            let src_off = from + rel_end;
            if src_off <= self.state.read().repl_watermark {
                self.stats.repl_dup_skips.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            // A chained stream (follower of a follower) carries `Repl`
            // wrappers; incorporate the inner record at *this* stream's
            // offsets. Either way the primary's payload is logged as the
            // bytes that arrived, never a re-spelling of them.
            let (chained, rec) = rec.lend();
            let payload = &payload[chained.map_or(0, |_| REPL_WRAP)..];
            wait = Some(self.hold()?.log(Some((src_off, payload)), &rec)?);
            // The lock table follows the staged set, as on a recovered
            // node. Followers serve no transactions of their own, so a
            // prepare's locks always grant.
            match rec {
                Record::Prepare { txid, spans, .. } => {
                    self.locks.try_lock(spans, txid);
                }
                Record::Commit { txid } | Record::Abort { txid } => {
                    self.locks.release(txid);
                }
                _ => {}
            }
            self.stats.repl_applies.fetch_add(1, Ordering::Relaxed);
        }
        self.wait_durable(wait)?;
        self.repl_status()
    }
}

/// Wait policy helper: default blocking budget used when a caller marks a
/// minitransaction blocking without an explicit budget.
pub const DEFAULT_BLOCKING_WAIT: Duration = Duration::from_millis(50);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::ItemRange;
    use crate::minitx::Minitransaction;
    use crate::wal::SyncMode;

    fn node() -> MemNode {
        MemNode::new(MemNodeId(0), 1 << 20)
    }

    fn durable_node(tag: &str, sync: SyncMode) -> (MemNode, DurabilityConfig) {
        let dcfg = DurabilityConfig::ephemeral(tag, sync);
        let n = MemNode::durable(MemNodeId(0), 1 << 20, &dcfg).unwrap();
        (n, dcfg)
    }

    /// The share of a minitransaction whose items all name one memnode.
    fn only_shard(m: &Minitransaction) -> &WireShard {
        let [(_, shard)] = m.shards() else {
            panic!("expected items at exactly one memnode")
        };
        shard
    }

    fn single(n: &MemNode, txid: TxId, m: &Minitransaction) -> SingleResult {
        n.exec_single(txid, only_shard(m), LockPolicy::AbortOnBusy)
            .unwrap()
    }

    fn prep(n: &MemNode, txid: TxId, m: &Minitransaction) -> Vote {
        n.prepare(txid, only_shard(m), LockPolicy::AbortOnBusy, &[n.id])
            .unwrap()
    }

    #[test]
    fn one_phase_write_then_read() {
        let n = node();
        let mut w = Minitransaction::new();
        w.write(ItemRange::new(n.id, 100, 3), b"abc".to_vec());
        assert!(matches!(single(&n, 1, &w), SingleResult::Committed(_)));

        let mut r = Minitransaction::new();
        r.read(ItemRange::new(n.id, 100, 3));
        match single(&n, 2, &r) {
            SingleResult::Committed(reads) => assert_eq!(reads[0].1, b"abc"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn compare_failure_blocks_write() {
        let n = node();
        let mut m = Minitransaction::new();
        m.compare(ItemRange::new(n.id, 0, 1), vec![7]);
        m.write(ItemRange::new(n.id, 100, 1), vec![1]);
        match single(&n, 1, &m) {
            SingleResult::BadCompare(idx) => assert_eq!(idx, vec![0]),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(n.raw_read(100, 1).unwrap(), vec![0]);
    }

    /// A read racing a crash answers the data it read or `Unavailable`,
    /// never the crash's zeroed state as committed bytes: two readers,
    /// through the fast path, the locked path and `raw_read`, against a
    /// crash/recover loop.
    #[test]
    fn reads_racing_a_crash_never_see_its_zeroed_state() {
        let n = Arc::new(node());
        let mut w = Minitransaction::new();
        w.write(ItemRange::new(n.id, 64, 8), vec![0xAB; 8]);
        assert!(matches!(single(&n, 1, &w), SingleResult::Committed(_)));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..2u64)
            .map(|t| {
                let (n, stop) = (n.clone(), stop.clone());
                std::thread::spawn(move || {
                    let mut r = Minitransaction::new();
                    r.read(ItemRange::new(n.id, 64, 8));
                    let shard = only_shard(&r);
                    let (mut good, mut zeroed) = (0u64, 0u64);
                    let mut see = |b: &Bytes| match b.as_slice() {
                        [0xAB, ..] => good += 1,
                        _ => zeroed += 1,
                    };
                    let mut txid = 1_000 + t;
                    while !stop.load(Ordering::Relaxed) {
                        txid += 2;
                        // A crash between the fast path's probes sends the
                        // read down the locked path.
                        let policy = LockPolicy::AbortOnBusy;
                        if let Ok(SingleResult::Committed(reads)) =
                            n.exec_single(txid, shard, policy)
                        {
                            see(&reads[0].1);
                        }
                        if let Ok(b) = n.raw_read(64, 8) {
                            see(&b);
                        }
                    }
                    (good, zeroed)
                })
            })
            .collect();
        let t0 = std::time::Instant::now();
        let mut cycles = 0;
        while t0.elapsed() < Duration::from_millis(400) {
            n.crash();
            n.recover().unwrap();
            cycles += 1;
        }
        stop.store(true, Ordering::Relaxed);
        let (good, zeroed) = readers
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0, 0), |(g, z), (g1, z1)| (g + g1, z + z1));
        assert!(cycles > 0 && good > 0, "{cycles} cycles, {good} reads");
        assert_eq!(zeroed, 0, "{zeroed} of {} reads saw zeros", good + zeroed);
    }

    #[test]
    fn two_phase_commit_applies() {
        let n = node();
        let mut m = Minitransaction::new();
        m.write(ItemRange::new(n.id, 50, 2), vec![9, 9]);
        assert!(matches!(prep(&n, 7, &m), Vote::Ok(_)));
        assert_eq!(n.in_doubt(), 1);
        // Data not yet visible.
        assert_eq!(n.raw_read(50, 2).unwrap(), vec![0, 0]);
        n.commit(7).unwrap();
        assert_eq!(n.raw_read(50, 2).unwrap(), vec![9, 9]);
        assert_eq!(n.in_doubt(), 0);
    }

    #[test]
    fn two_phase_abort_discards() {
        let n = node();
        let mut m = Minitransaction::new();
        m.write(ItemRange::new(n.id, 50, 2), vec![9, 9]);
        prep(&n, 7, &m);
        n.abort(7).unwrap();
        assert_eq!(n.raw_read(50, 2).unwrap(), vec![0, 0]);
        // Locks released: another txn can take the range.
        let mut m2 = Minitransaction::new();
        m2.write(ItemRange::new(n.id, 50, 2), vec![1, 1]);
        assert!(matches!(single(&n, 8, &m2), SingleResult::Committed(_)));
    }

    #[test]
    fn prepared_locks_block_conflicting() {
        let n = node();
        let mut m = Minitransaction::new();
        m.write(ItemRange::new(n.id, 50, 2), vec![9, 9]);
        prep(&n, 7, &m);
        let mut m2 = Minitransaction::new();
        m2.write(ItemRange::new(n.id, 51, 2), vec![1, 1]);
        assert!(matches!(single(&n, 8, &m2), SingleResult::Busy));
        n.commit(7).unwrap();
        assert!(matches!(single(&n, 9, &m2), SingleResult::Committed(_)));
    }

    #[test]
    fn crash_loses_nothing_committed() {
        let n = node();
        let mut m = Minitransaction::new();
        m.write(ItemRange::new(n.id, 0, 4), vec![1, 2, 3, 4]);
        assert!(matches!(single(&n, 1, &m), SingleResult::Committed(_)));
        n.crash();
        assert!(n.raw_read(0, 4).is_err());
        n.recover().unwrap();
        assert_eq!(n.raw_read(0, 4).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn crash_preserves_prepared_and_locks() {
        let n = node();
        let mut m = Minitransaction::new();
        m.write(ItemRange::new(n.id, 0, 4), vec![1, 2, 3, 4]);
        prep(&n, 42, &m);
        n.crash();
        n.recover().unwrap();
        assert_eq!(n.in_doubt(), 1);
        // Lock still held post-recovery.
        let mut m2 = Minitransaction::new();
        m2.write(ItemRange::new(n.id, 2, 2), vec![5, 5]);
        assert!(matches!(single(&n, 43, &m2), SingleResult::Busy));
        // Coordinator decides commit; write becomes visible.
        n.commit(42).unwrap();
        assert_eq!(n.raw_read(0, 4).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn commit_idempotent_for_unknown_txid() {
        let n = node();
        n.commit(999).unwrap();
        n.abort(999).unwrap();
    }

    #[test]
    fn repeated_reads_share_the_resident_page() {
        // Allocation-free re-reads: both one-phase reads of the same
        // node-image-sized range return views of the same page buffer (no
        // per-read copy). Metadata-sized reads intentionally copy — see
        // `space::SHARE_MIN`.
        let n = node();
        let image = vec![7u8; crate::space::SHARE_MIN];
        let mut w = Minitransaction::new();
        w.write(ItemRange::new(n.id, 0, image.len() as u32), image.clone());
        assert!(matches!(single(&n, 1, &w), SingleResult::Committed(_)));

        let mut r = Minitransaction::new();
        r.read(ItemRange::new(n.id, 0, image.len() as u32));
        let a = match single(&n, 2, &r) {
            SingleResult::Committed(mut reads) => reads.pop().unwrap().1,
            other => panic!("unexpected {other:?}"),
        };
        let b = match single(&n, 3, &r) {
            SingleResult::Committed(mut reads) => reads.pop().unwrap().1,
            other => panic!("unexpected {other:?}"),
        };
        assert!(Bytes::same_buffer(&a, &b), "re-read must not copy");
        assert_eq!(a, image);
    }

    #[test]
    fn prepare_stages_payload_without_copying() {
        // Single-allocation write path: the payload buffer the client
        // allocated is the very buffer staged at the memnode.
        let n = node();
        let payload = Bytes::from(vec![9u8; 64]);
        let mut m = Minitransaction::new();
        m.write(ItemRange::new(n.id, 128, 64), payload.clone());
        assert!(matches!(prep(&n, 5, &m), Vote::Ok(_)));
        {
            let state = n.state.read();
            let tx = state.staged.get(&5).expect("staged");
            assert!(
                Bytes::same_buffer(&tx.writes[0].1, &payload),
                "prepare must stage the caller's buffer, not a copy"
            );
        }
        n.commit(5).unwrap();
        assert_eq!(n.raw_read(128, 64).unwrap(), vec![9u8; 64]);
    }

    #[test]
    fn read_only_single_phase_uses_lock_free_fast_path() {
        let n = node();
        let mut w = Minitransaction::new();
        w.write(ItemRange::new(n.id, 0, 8), vec![7u8; 8]);
        assert!(matches!(single(&n, 1, &w), SingleResult::Committed(_)));
        assert_eq!(n.stats.read_fastpath.load(Ordering::Relaxed), 0);

        let mut r = Minitransaction::new();
        r.compare(ItemRange::new(n.id, 0, 8), vec![7u8; 8]);
        r.read(ItemRange::new(n.id, 0, 8));
        assert!(matches!(single(&n, 2, &r), SingleResult::Committed(_)));
        assert_eq!(n.stats.read_fastpath.load(Ordering::Relaxed), 1);

        // A held conflicting lock diverts reads to the locked path.
        let mut held = Minitransaction::new();
        held.write(ItemRange::new(n.id, 0, 8), vec![1u8; 8]);
        assert!(matches!(prep(&n, 3, &held), Vote::Ok(_)));
        assert!(matches!(single(&n, 4, &r), SingleResult::Busy));
        assert_eq!(n.stats.read_fastpath.load(Ordering::Relaxed), 1);
        n.abort(3).unwrap();
        assert!(matches!(single(&n, 5, &r), SingleResult::Committed(_)));
        assert_eq!(n.stats.read_fastpath.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn durable_crash_recovers_from_disk() {
        let (n, _dcfg) = durable_node("node-disk", SyncMode::Sync);
        let mut m = Minitransaction::new();
        m.write(ItemRange::new(n.id, 64, 4), vec![4, 3, 2, 1]);
        assert!(matches!(single(&n, 1, &m), SingleResult::Committed(_)));
        // Prepared-but-undecided survives too.
        let mut p = Minitransaction::new();
        p.write(ItemRange::new(n.id, 128, 2), vec![8, 8]);
        prep(&n, 2, &p);

        n.crash();
        assert!(n.raw_read(64, 4).is_err());
        n.recover().unwrap();
        assert_eq!(n.raw_read(64, 4).unwrap(), vec![4, 3, 2, 1]);
        assert_eq!(n.in_doubt(), 1);
        // Lock re-held, then the decision lands.
        let mut c = Minitransaction::new();
        c.write(ItemRange::new(n.id, 128, 1), vec![5]);
        assert!(matches!(single(&n, 3, &c), SingleResult::Busy));
        n.commit(2).unwrap();
        assert_eq!(n.raw_read(128, 2).unwrap(), vec![8, 8]);
    }

    #[test]
    fn durable_checkpoint_truncates_log_and_still_recovers() {
        let (n, _dcfg) = durable_node("node-ckpt", SyncMode::None);
        for i in 0..20u8 {
            let mut m = Minitransaction::new();
            m.write(ItemRange::new(n.id, i as u64 * 16, 8), vec![i; 8]);
            assert!(matches!(
                single(&n, i as u64 + 1, &m),
                SingleResult::Committed(_)
            ));
        }
        let before = n.wal_retained_bytes();
        assert!(n.checkpoint().unwrap());
        assert_eq!(n.wal_stats().checkpoints.get(), 1);
        assert!(n.wal_retained_bytes() < before);
        // Post-checkpoint writes land in the (shrunk) log.
        let mut m = Minitransaction::new();
        m.write(ItemRange::new(n.id, 512, 1), vec![0xAB]);
        assert!(matches!(single(&n, 99, &m), SingleResult::Committed(_)));
        n.crash();
        n.recover().unwrap();
        for i in 0..20u8 {
            assert_eq!(n.raw_read(i as u64 * 16, 8).unwrap(), vec![i; 8]);
        }
        assert_eq!(n.raw_read(512, 1).unwrap(), vec![0xAB]);
    }

    /// A follower logs what the primary logged, byte for byte: each
    /// `Repl` record it appends wraps the CRC-checked payload that arrived
    /// — one hop from the primary, and two (a follower of the follower
    /// wraps the *inner* payload, not the first follower's wrapper).
    #[test]
    fn follower_logs_the_primary_payload_verbatim() {
        let payloads = |n: &MemNode| -> (Bytes, Vec<Vec<u8>>) {
            let seg = n.wal_fetch(0, u32::MAX).unwrap();
            let (frames, valid) = parse_frames(&seg.bytes);
            assert_eq!(valid as usize, seg.bytes.len());
            let payloads = frames.iter().map(|(.., p)| p.to_vec()).collect();
            (seg.bytes, payloads)
        };
        let (primary, _d0) = durable_node("repl-verbatim-0", SyncMode::None);
        let mut m = Minitransaction::new();
        m.write(ItemRange::new(primary.id, 64, 4), vec![4, 3, 2, 1]);
        assert!(matches!(
            single(&primary, 1, &m),
            SingleResult::Committed(_)
        ));
        let mut p = Minitransaction::new();
        p.write(ItemRange::new(primary.id, 128, 2), vec![8, 8]);
        assert!(matches!(prep(&primary, 2, &p), Vote::Ok(_)));
        primary.commit(2).unwrap();
        let (stream, logged) = payloads(&primary);
        assert_eq!(logged.len(), 3, "apply, prepare, commit");

        let (one_hop, _d1) = durable_node("repl-verbatim-1", SyncMode::None);
        one_hop.repl_apply(0, &stream).unwrap();
        let (chained, wrapped) = payloads(&one_hop);
        let (two_hops, _d2) = durable_node("repl-verbatim-2", SyncMode::None);
        two_hops.repl_apply(0, &chained).unwrap();
        let (_, rewrapped) = payloads(&two_hops);

        for hop in [wrapped, rewrapped] {
            let inner: Vec<&[u8]> = hop.iter().map(|p| &p[REPL_WRAP..]).collect();
            assert_eq!(inner, logged);
        }
        assert_eq!(two_hops.raw_read(64, 4).unwrap(), vec![4, 3, 2, 1]);
        assert_eq!(two_hops.raw_read(128, 2).unwrap(), vec![8, 8]);
    }
}
