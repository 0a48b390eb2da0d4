//! Memnode: a Sinfonia storage node.
//!
//! A memnode owns a byte-addressable [`PagedSpace`], a range [`LockManager`],
//! and participates in the one/two-phase minitransaction protocol. In
//! primary-backup mode every committed write is synchronously applied to an
//! in-memory backup mirror, and prepared-but-undecided transactions are
//! mirrored too so that a crash never loses a committed minitransaction and
//! never breaks two-phase atomicity.
//!
//! With durability enabled (see [`crate::wal::DurabilityConfig`]) the node
//! additionally **logs before applying**: one-phase commits, prepares
//! (with participant lists), and 2PC decisions all hit a per-node redo log
//! first, checkpoints bound the log, and a crashed node recovers its state
//! from disk instead of from the in-memory mirror — which a durable node
//! therefore does not keep: its second copy is the log and the image.

use crate::addr::MemNodeId;
use crate::bytes::Bytes;
use crate::lock::{LockAcquire, LockManager, TxId};
use crate::minitx::LockPolicy;
use crate::recovery::{self, NodeMeta};
use crate::space::PagedSpace;
use crate::wal::{
    parse_frames, DurabilityConfig, OwnedRecord, Record, Wal, WalError, WalSegment, WalStats,
    REPL_WRAP,
};
use crate::wire::WireShard;
use crate::{checkpoint, lock};
use minuet_faults as faults;
use minuet_obs::{span, Counter, ObsPlane, SpanKind};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
    /// Largest transaction id incorporated via replication (or recovered
    /// from disk at open).
    pub applied_txid: u64,
    /// Logical tail of this node's own redo log (0 when not durable).
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
pub struct MemNodeStats {
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
}

impl MemNodeStats {
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
    }
}

/// Durable state of a memnode: the redo log plus file locations.
struct Durable {
    wal: Wal,
    dir: PathBuf,
    ckpt_path: PathBuf,
}

/// A Sinfonia memnode: the primary space plus its second copy — a
/// synchronous in-memory backup mirror, or, when durable, an on-disk redo
/// log and checkpoint image.
pub struct MemNode {
    /// This node's id.
    pub id: MemNodeId,
    /// Address-space capacity in bytes: the bound every item is held to
    /// before it may lock, log or touch the space.
    capacity: u64,
    locks: LockManager,
    space: RwLock<PagedSpace>,
    /// Synchronous backup of the space; conceptually lives on another
    /// server. Committed writes are applied here before the primary.
    /// `None` on a durable node, which recovers from disk and would only
    /// pay for the mirror: a second resident copy of every page and a
    /// second pass over every written image.
    backup: Option<Mutex<PagedSpace>>,
    /// Prepared transactions, mirrored to the backup as Sinfonia's
    /// in-memory redo state.
    prepared: Mutex<HashMap<TxId, PreparedTx>>,
    /// Two-phase transactions this node committed; persisted across
    /// checkpoints so in-doubt resolution stays sound after the `Commit`
    /// records are truncated. (A production system would prune this via
    /// coordinator acknowledgements; we retain it, bounded by workload
    /// scale.)
    decided: Mutex<HashSet<TxId>>,
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
    /// Serializes modeled service time (see [`MemNode::occupy`]): one
    /// memnode is one server, so injected service latencies queue.
    service_gate: Mutex<()>,
    dur: Option<Durable>,
    ckpt_running: AtomicBool,
    checkpoints: AtomicU64,
    /// Advisory epoch register: the highest epoch a coordinator has
    /// announced to this node (see [`MemNode::epoch_mark`]). Purely
    /// observational — validation batching happens coordinator-side.
    epoch: AtomicU64,
    /// Replication watermark: logical end offset of the last primary-log
    /// frame incorporated (see [`Record::Repl`]). Durable nodes persist it
    /// through their own log and checkpoint image.
    repl_watermark: AtomicU64,
    /// Largest transaction id incorporated via replication (or seen on
    /// disk at open). Follower read gating compares session tokens
    /// against this.
    repl_applied_txid: AtomicU64,
    /// Operation counters.
    pub stats: MemNodeStats,
    /// This node's observability plane: its registry exposes the
    /// `memnode.*` counters and (when durable) the `wal.*` series; its
    /// trace buffer holds server-side traces recorded for wire clients.
    pub obs: Arc<ObsPlane>,
}

impl MemNode {
    /// Creates a purely in-memory memnode with `capacity` bytes of
    /// address space.
    pub fn new(id: MemNodeId, capacity: u64) -> Self {
        Self::build(
            id,
            capacity,
            PagedSpace::new(capacity),
            HashMap::new(),
            HashSet::new(),
            None,
            0,
        )
    }

    /// Creates a durable memnode with **fresh** on-disk state (any previous
    /// log or checkpoint at this node's paths is removed). Use
    /// [`MemNode::open_from_disk`] to resume existing state instead.
    pub fn durable(id: MemNodeId, capacity: u64, dcfg: &DurabilityConfig) -> io::Result<Self> {
        let dir = dcfg.dir.clone().expect("durable memnode needs a directory");
        std::fs::create_dir_all(&dir)?;
        let wal_p = recovery::wal_path(&dir, id);
        let ckpt_p = recovery::ckpt_path(&dir, id);
        let _ = std::fs::remove_file(&wal_p);
        let _ = std::fs::remove_file(&ckpt_p);
        let wal = Wal::open(&wal_p, dcfg.sync)?;
        Ok(Self::build(
            id,
            capacity,
            PagedSpace::new(capacity),
            HashMap::new(),
            HashSet::new(),
            Some(Durable {
                wal,
                dir,
                ckpt_path: ckpt_p,
            }),
            0,
        ))
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
        let dir = dcfg.dir.clone().expect("durable memnode needs a directory");
        std::fs::create_dir_all(&dir)?;
        let rec = recovery::recover_node(&dir, id, capacity)?;
        let meta = NodeMeta {
            staged: rec
                .staged
                .iter()
                .map(|(txid, tx)| (*txid, tx.participants.clone()))
                .collect(),
            decided: rec.decided.clone(),
        };
        let wal_p = recovery::wal_path(&dir, id);
        let ckpt_p = recovery::ckpt_path(&dir, id);
        let wal = Wal::open(&wal_p, dcfg.sync)?;
        let node = Self::build(
            id,
            capacity,
            rec.space,
            rec.staged,
            rec.decided,
            Some(Durable {
                wal,
                dir,
                ckpt_path: ckpt_p,
            }),
            rec.repl_watermark,
        );
        node.repl_applied_txid
            .store(rec.max_txid, Ordering::Release);
        Ok((node, meta, rec.max_txid))
    }

    fn build(
        id: MemNodeId,
        capacity: u64,
        space: PagedSpace,
        staged: HashMap<TxId, PreparedTx>,
        decided: HashSet<TxId>,
        dur: Option<Durable>,
        repl_watermark: u64,
    ) -> Self {
        debug_assert_eq!(space.capacity(), capacity);
        let locks = LockManager::new();
        for (txid, tx) in &staged {
            let got = locks.try_lock(&tx.spans, *txid);
            debug_assert_eq!(got, LockAcquire::Granted, "recovery lock conflict");
        }
        let backup = dur.is_none().then(|| Mutex::new(space.snapshot_clone()));
        let obs = ObsPlane::disabled();
        let stats = MemNodeStats::default();
        stats.register(&obs);
        if let Some(d) = &dur {
            d.wal.stats.register(&obs);
        }
        MemNode {
            id,
            capacity,
            locks,
            space: RwLock::new(space),
            backup,
            prepared: Mutex::new(staged),
            decided: Mutex::new(decided),
            crashed: AtomicBool::new(false),
            degraded: AtomicBool::new(false),
            joining: AtomicBool::new(false),
            retiring: AtomicBool::new(false),
            service_gate: Mutex::new(()),
            dur,
            ckpt_running: AtomicBool::new(false),
            checkpoints: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            repl_watermark: AtomicU64::new(repl_watermark),
            repl_applied_txid: AtomicU64::new(0),
            stats,
            obs,
        }
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

    /// Models one server's occupancy for an injected per-request service
    /// time: the caller sleeps `d` while holding this node's service
    /// gate, so concurrent requests to the *same* memnode queue while
    /// requests to different memnodes proceed in parallel — the effect
    /// scale-out benches measure. No-op when `d` is zero.
    pub fn occupy(&self, d: Duration) {
        if !d.is_zero() {
            let _g = self.service_gate.lock();
            std::thread::sleep(d);
        }
    }

    /// True if this node logs to disk.
    pub fn is_durable(&self) -> bool {
        self.dur.is_some()
    }

    /// Redo-log counters, when durable.
    pub fn wal_stats(&self) -> Option<&WalStats> {
        self.dur.as_ref().map(|d| &*d.wal.stats)
    }

    /// Bytes currently retained in the redo log (0 when not durable).
    pub fn wal_retained_bytes(&self) -> u64 {
        self.dur.as_ref().map_or(0, |d| d.wal.retained_bytes())
    }

    /// Checkpoints taken since this node object was created.
    pub fn checkpoint_count(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
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
    /// space guard itself (the write fast path). Reads are zero-copy views
    /// of the resident pages.
    fn eval(&self, shard: &WireShard) -> Result<Vec<(usize, Bytes)>, Vec<usize>> {
        Self::eval_in(&self.space.read(), shard)
    }

    /// [`MemNode::eval`] against a space guard the caller already holds.
    fn eval_in(space: &PagedSpace, shard: &WireShard) -> Result<Vec<(usize, Bytes)>, Vec<usize>> {
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

    /// Applies writes to the backup mirror first (when there is one), then
    /// the primary (synchronous primary-backup replication).
    fn apply(&self, writes: &[(u64, Bytes)]) {
        if let Some(b) = &self.backup {
            let mut b = b.lock();
            for (off, data) in writes {
                b.write(*off, data)
                    .unwrap_or_else(|e| panic!("write item out of bounds: {e}"));
            }
        }
        let mut s = self.space.write();
        for (off, data) in writes {
            s.write(*off, data)
                .unwrap_or_else(|e| panic!("write item out of bounds: {e}"));
        }
    }

    /// Logs (when durable) and applies a one-phase batch of writes.
    /// Returns the log offset the caller must wait on before acking. A
    /// failed append degrades the node read-only *before* the in-memory
    /// apply, so the log-before-apply contract holds even under faults.
    fn log_and_apply(
        &self,
        txid: TxId,
        writes: &[(u64, Bytes)],
    ) -> Result<Option<u64>, Unavailable> {
        match &self.dur {
            Some(d) => {
                // Hold the appender guard across the apply (as `commit`
                // does): a checkpoint freezes (log tail, space image) under
                // this guard, and a tail past the append paired with a
                // space missing the writes would truncate the record while
                // the image lacks its effects.
                let _s = span(SpanKind::SrvWalAppend);
                let mut g = d.wal.lock();
                let end = g
                    .append(&Record::Apply { txid, writes })
                    .map_err(|e| self.degrade(e))?;
                self.apply(writes);
                Ok(Some(end))
            }
            None => {
                self.apply(writes);
                Ok(None)
            }
        }
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
            for attempt in 0..2 {
                let Some(s1) = self.locks.probe(&spans) else {
                    break; // a lock is held: the slow path sorts it out
                };
                let result = self.eval(shard);
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
                let _ = attempt;
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
                Err(failed) => {
                    self.stats.aborts.fetch_add(1, Ordering::Relaxed);
                    Ok(SingleResult::BadCompare(failed))
                }
                Ok(reads) => {
                    let logged = if shard.writes.is_empty() {
                        Ok(None)
                    } else {
                        // Arc bumps, not payload copies: the coordinator's
                        // buffers flow into the log and the space unchanged.
                        self.log_and_apply(txid, &shard.staged_writes())
                    };
                    match logged {
                        Ok(w) => {
                            wait = w;
                            self.stats.single_commits.fetch_add(1, Ordering::Relaxed);
                            Ok(SingleResult::Committed(reads))
                        }
                        Err(e) => Err(e),
                    }
                }
            }
        };
        self.locks.release(txid);
        let result = result?;
        if let (Some(end), Some(d)) = (wait, &self.dur) {
            let _fs = span(SpanKind::SrvFsync);
            d.wal.wait_durable(end).map_err(|e| self.degrade(e))?;
        }
        Ok(result)
    }

    /// The write analogue of the lock-free read probe: with no lock held
    /// over the shard's spans and the primary's write guard in hand, the
    /// compare+log+apply sequence is atomic with respect to every other
    /// execution path — locked transactions cannot evaluate while we hold
    /// the space guard, and prepared-but-undecided transactions show up as
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
        // Guard order matches the locked path (`commit`, `log_and_apply`):
        // WAL appender, then backup, then primary space.
        let mut wal_g = self.dur.as_ref().map(|d| d.wal.lock());
        let mut backup = self.backup.as_ref().map(|b| b.lock());
        let mut space = self.space.write();
        // A lock acquired (or acquired-and-released) since the first probe
        // means a conflicting transaction may have evaluated before we
        // took the space guard; let the locked path serialize against it.
        if self.locks.probe(spans) != Some(s1) {
            self.stats
                .write_fastpath_misses
                .fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let result = match Self::eval_in(&space, shard) {
            Err(failed) => {
                self.stats.aborts.fetch_add(1, Ordering::Relaxed);
                Ok(SingleResult::BadCompare(failed))
            }
            Ok(reads) => {
                let _ex = span(SpanKind::SrvExec);
                let writes = shard.staged_writes();
                // Log before apply: a failed append degrades the node and
                // surfaces `Unavailable` with no in-memory effect.
                let wait = match wal_g.as_mut() {
                    Some(g) => {
                        let _s = span(SpanKind::SrvWalAppend);
                        match g.append(&Record::Apply {
                            txid,
                            writes: &writes,
                        }) {
                            Ok(end) => Some(end),
                            Err(e) => {
                                self.stats.write_fastpath.fetch_add(1, Ordering::Relaxed);
                                return Some(Err(self.degrade(e)));
                            }
                        }
                    }
                    None => None,
                };
                // Backup before primary, as `apply` does.
                if let Some(backup) = backup.as_mut() {
                    for (off, data) in &writes {
                        backup
                            .write(*off, data)
                            .unwrap_or_else(|e| panic!("write item out of bounds: {e}"));
                    }
                }
                for (off, data) in &writes {
                    space
                        .write(*off, data)
                        .unwrap_or_else(|e| panic!("write item out of bounds: {e}"));
                }
                drop(space);
                drop(backup);
                drop(wal_g);
                if let (Some(end), Some(d)) = (wait, &self.dur) {
                    let _fs = span(SpanKind::SrvFsync);
                    if let Err(e) = d.wal.wait_durable(end) {
                        self.stats.write_fastpath.fetch_add(1, Ordering::Relaxed);
                        return Some(Err(self.degrade(e)));
                    }
                }
                self.stats.single_commits.fetch_add(1, Ordering::Relaxed);
                Ok(SingleResult::Committed(reads))
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
        match self.eval(shard) {
            Err(failed) => {
                self.locks.release(txid);
                self.stats.aborts.fetch_add(1, Ordering::Relaxed);
                Ok(Vote::BadCompare(failed))
            }
            Ok(reads) => {
                let staged = PreparedTx {
                    spans,
                    // Arc bumps: staging shares the shipped payload buffers.
                    writes: shard.staged_writes(),
                    participants: participants.to_vec(),
                };
                let wait = match &self.dur {
                    Some(d) => {
                        let parts: Vec<u16> = participants.iter().map(|m| m.0).collect();
                        let end = {
                            let _s = span(SpanKind::SrvWalAppend);
                            let mut g = d.wal.lock();
                            g.append(&Record::Prepare {
                                txid,
                                participants: &parts,
                                spans: &staged.spans,
                                writes: &staged.writes,
                            })
                        };
                        match end {
                            Ok(end) => {
                                self.prepared.lock().insert(txid, staged);
                                Some(end)
                            }
                            Err(e) => {
                                // Nothing staged, nothing logged: release
                                // the locks and vote unavailable.
                                self.locks.release(txid);
                                return Err(self.degrade(e));
                            }
                        }
                    }
                    None => {
                        self.prepared.lock().insert(txid, staged);
                        None
                    }
                };
                self.stats.prepares.fetch_add(1, Ordering::Relaxed);
                if let (Some(end), Some(d)) = (wait, &self.dur) {
                    let _fs = span(SpanKind::SrvFsync);
                    if let Err(e) = d.wal.wait_durable(end) {
                        // Un-stage: the vote never reaches the coordinator,
                        // so the transaction must not hold locks forever on
                        // a read-only node.
                        self.prepared.lock().remove(&txid);
                        self.locks.release(txid);
                        return Err(self.degrade(e));
                    }
                }
                Ok(Vote::Ok(reads))
            }
        }
    }

    /// Phase two, commit: applies the staged writes and releases locks.
    /// Idempotent: committing an unknown txid is a no-op (the decision was
    /// already applied before a crash/retry).
    pub fn commit(&self, txid: TxId) -> Result<(), Unavailable> {
        self.check_writable()?;
        let wait = match &self.dur {
            Some(d) => {
                let mut g = d.wal.lock();
                let staged = self.prepared.lock().remove(&txid);
                match staged {
                    Some(tx) => match g.append(&Record::Commit { txid }) {
                        Ok(end) => {
                            self.apply(&tx.writes);
                            self.decided.lock().insert(txid);
                            self.stats.commits.fetch_add(1, Ordering::Relaxed);
                            Some(end)
                        }
                        Err(e) => {
                            // Re-stage, keep the locks: the decision did
                            // not land. Recovery (or a restarted node)
                            // resolves the in-doubt transaction.
                            self.prepared.lock().insert(txid, tx);
                            return Err(self.degrade(e));
                        }
                    },
                    None => None,
                }
            }
            None => {
                let staged = self.prepared.lock().remove(&txid);
                if let Some(tx) = staged {
                    self.apply(&tx.writes);
                    self.stats.commits.fetch_add(1, Ordering::Relaxed);
                }
                None
            }
        };
        self.locks.release(txid);
        if let (Some(end), Some(d)) = (wait, &self.dur) {
            let _fs = span(SpanKind::SrvFsync);
            // The commit has applied; an fsync failure degrades the node
            // but the coordinator's retry will see the idempotent no-op.
            d.wal.wait_durable(end).map_err(|e| self.degrade(e))?;
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
        match &self.dur {
            Some(d) => {
                let mut g = d.wal.lock();
                if self.prepared.lock().remove(&txid).is_some() {
                    // The abort record is unforced and losing it is safe
                    // (resolution re-aborts), so a failed append degrades
                    // the node but the in-memory abort still completes.
                    if let Err(e) = g.append(&Record::Abort { txid }) {
                        let _ = self.degrade(e);
                    }
                }
            }
            None => {
                self.prepared.lock().remove(&txid);
            }
        }
        self.locks.release(txid);
        self.stats.aborts.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Simulates a crash of the primary: volatile state is dropped. For an
    /// in-memory node the backup mirror and the replicated prepared set
    /// survive; for a durable node *everything* volatile is lost and only
    /// the on-disk image + log remain.
    pub fn crash(&self) {
        if let Some(d) = &self.dur {
            // Hold the appender lock so a concurrent checkpoint cannot
            // capture the scribbled post-crash state.
            let _g = d.wal.lock();
            self.crashed.store(true, Ordering::Release);
            self.locks.clear();
            *self.space.write() = PagedSpace::new(self.capacity);
            self.prepared.lock().clear();
            self.decided.lock().clear();
            self.repl_watermark.store(0, Ordering::Release);
            self.repl_applied_txid.store(0, Ordering::Release);
        } else {
            self.crashed.store(true, Ordering::Release);
            self.locks.clear();
            // Scribble over the primary space to make any buggy post-crash
            // read through stale state detectable in tests.
            *self.space.write() = PagedSpace::new(self.capacity);
        }
    }

    /// Recovers the node. In-memory nodes restore the primary image from
    /// the backup mirror; durable nodes replay checkpoint + redo log from
    /// disk. Either way prepared transactions are re-staged with their
    /// locks re-acquired, and the coordinator's eventual commit/abort
    /// decision completes them.
    pub fn recover(&self) {
        if let Some(d) = &self.dur {
            d.wal.clear_failed();
            let rec = recovery::recover_node(&d.dir, self.id, self.capacity)
                .expect("disk recovery failed");
            *self.space.write() = rec.space;
            {
                let mut p = self.prepared.lock();
                *p = rec.staged;
                for (txid, tx) in p.iter() {
                    let got = self.locks.try_lock(&tx.spans, *txid);
                    debug_assert_eq!(got, LockAcquire::Granted, "recovery lock conflict");
                }
            }
            *self.decided.lock() = rec.decided;
            self.repl_watermark
                .store(rec.repl_watermark, Ordering::Release);
            self.repl_applied_txid
                .store(rec.max_txid, Ordering::Release);
        } else {
            {
                let backup = self.backup.as_ref().expect("in-memory node keeps a mirror");
                *self.space.write() = backup.lock().snapshot_clone();
            }
            let prepared = self.prepared.lock();
            for (txid, tx) in prepared.iter() {
                let got = self.locks.try_lock(&tx.spans, *txid);
                debug_assert_eq!(got, LockAcquire::Granted, "recovery lock conflict");
            }
        }
        self.degraded.store(false, Ordering::Release);
        self.crashed.store(false, Ordering::Release);
    }

    /// Takes a checkpoint: freezes `(log tail, space, prepared, decided)`
    /// consistently, writes the image atomically, then drops the covered
    /// log prefix. Returns `false` when skipped (not durable, crashed, or
    /// a checkpoint is already running).
    pub fn checkpoint(&self) -> io::Result<bool> {
        let Some(d) = &self.dur else {
            return Ok(false);
        };
        if self.ckpt_running.swap(true, Ordering::AcqRel) {
            return Ok(false);
        }
        let result = self.checkpoint_inner(d);
        self.ckpt_running.store(false, Ordering::Release);
        result
    }

    fn checkpoint_inner(&self, d: &Durable) -> io::Result<bool> {
        // Freeze (tail, state) under the appender lock, but keep the
        // expensive serialization and file write outside it so commits
        // only stall for the duration of the in-memory clone.
        let (space, staged, decided, watermark, upto) = {
            let g = d.wal.lock();
            if self.is_crashed() {
                return Ok(false);
            }
            let space = self.space.read().snapshot_clone();
            let staged = self.prepared.lock().clone();
            let decided = self.decided.lock().clone();
            let watermark = self.repl_watermark.load(Ordering::Acquire);
            (space, staged, decided, watermark, g.tail())
        };
        let bytes = checkpoint::encode_image(&space, &staged, &decided, watermark);
        checkpoint::write_atomic(&d.ckpt_path, &bytes)?;
        d.wal.drop_prefix(upto)?;
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    /// Unsynchronized raw read used for bootstrap and GC candidate scans.
    /// Concurrent minitransactions may be writing; callers must confirm any
    /// decision with a proper minitransaction. Zero-copy: the returned
    /// view shares the resident page.
    pub fn raw_read(&self, off: u64, len: u32) -> Result<Bytes, Unavailable> {
        self.check_up()?;
        Ok(self
            .space
            .read()
            .read(off, len)
            .unwrap_or_else(|e| panic!("raw read out of bounds: {e}")))
    }

    /// Raw write used only for cluster bootstrap (before any concurrent
    /// access exists). Applied to primary and backup mirror, or logged
    /// (unforced) when durable so bootstrap images survive a restart.
    pub fn raw_write(&self, off: u64, data: &[u8]) -> Result<(), Unavailable> {
        self.check_writable()?;
        self.log_and_apply(lock::BOOTSTRAP_TXID, &[(off, Bytes::copy_from_slice(data))])?;
        Ok(())
    }

    /// Number of currently prepared (in-doubt) transactions.
    pub fn in_doubt(&self) -> usize {
        self.prepared.lock().len()
    }

    /// Recovery metadata of the live node: in-doubt transactions with
    /// their participant lists, plus the decided-commit set. Feeds
    /// [`crate::recovery::resolve_in_doubt`].
    pub fn node_meta(&self) -> NodeMeta {
        NodeMeta {
            staged: self
                .prepared
                .lock()
                .iter()
                .map(|(txid, tx)| (*txid, tx.participants.clone()))
                .collect(),
            decided: self.decided.lock().clone(),
        }
    }

    /// Checks that primary and backup images are byte-identical (test
    /// support; only meaningful while quiescent). Trivially true on a
    /// durable node, which keeps no mirror to diverge from.
    pub fn mirror_consistent(&self, probe: &[(u64, u32)]) -> bool {
        let Some(b) = &self.backup else {
            return true;
        };
        let s = self.space.read();
        let b = b.lock();
        probe
            .iter()
            .all(|&(off, len)| s.read(off, len).unwrap() == b.read(off, len).unwrap())
    }

    /// Records an epoch announcement from a coordinator: the register
    /// only moves forward. Returns the register's value before the mark.
    /// Advisory — epoch-batched validation itself happens coordinator-side
    /// (see the `minuet-dyntx` epoch service); the register makes epoch
    /// progress visible in traces and cross-checks that every memnode saw
    /// the close.
    pub fn epoch_mark(&self, epoch: u64, _closing: bool) -> Result<u64, Unavailable> {
        self.check_up()?;
        Ok(self.repl_epoch_mark(epoch))
    }

    fn repl_epoch_mark(&self, epoch: u64) -> u64 {
        self.epoch.fetch_max(epoch, Ordering::AcqRel)
    }

    /// Reads up to `max` raw framed bytes of this node's redo log starting
    /// at logical offset `from`, for shipping to a replication follower.
    /// Non-durable nodes return an empty segment with a zero tail —
    /// replication requires a durable primary.
    pub fn wal_fetch(&self, from: u64, max: u32) -> Result<WalSegment, Unavailable> {
        self.check_up()?;
        if let Some(a) = faults::check_delay(faults::Site::ReplFetch) {
            if a == faults::Action::Panic {
                panic!("injected panic at repl.fetch");
            }
            return Err(Unavailable(self.id));
        }
        match &self.dur {
            Some(d) => d.wal.read_from(from, max).map_err(|_| Unavailable(self.id)),
            None => Ok(WalSegment {
                from,
                base: 0,
                tail: 0,
                bytes: Vec::new(),
            }),
        }
    }

    /// This node's replication status (see [`ReplStatus`]).
    pub fn repl_status(&self) -> Result<ReplStatus, Unavailable> {
        self.check_up()?;
        Ok(ReplStatus {
            watermark: self.repl_watermark.load(Ordering::Acquire),
            applied_txid: self.repl_applied_txid.load(Ordering::Acquire),
            tail: self.dur.as_ref().map_or(0, |d| d.wal.tail()),
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
    /// - otherwise is logged to this node's own redo log as a
    ///   [`Record::Repl`] wrapping the primary payload, its effect is
    ///   applied (one-phase writes apply; prepares stage with their locks;
    ///   decisions finish staged transactions), and the watermark advances
    ///   to `s`.
    ///
    /// The append + apply + watermark advance happens under the appender
    /// guard, so checkpoints freeze a consistent (state, watermark) pair
    /// and a restart resumes exactly where the durable log ends.
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
        for (rel_end, rec, payload) in records {
            let src_off = from + rel_end;
            if src_off <= self.repl_watermark.load(Ordering::Acquire) {
                self.stats.repl_dup_skips.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            // A chained stream (follower of a follower) carries `Repl`
            // wrappers; incorporate the inner record at *this* stream's
            // offsets. Either way the primary's payload is logged as the
            // bytes that arrived, never a re-spelling of them.
            let (rec, payload) = match rec {
                OwnedRecord::Repl { inner, .. } => (*inner, &payload[REPL_WRAP..]),
                other => (other, payload),
            };
            let txid = rec.txid();
            match &self.dur {
                Some(d) => {
                    let mut g = d.wal.lock();
                    let end = g
                        .append(&Record::Repl { src_off, payload })
                        .map_err(|e| self.degrade(e))?;
                    wait = Some(end);
                    self.apply_repl_effect(rec);
                    self.repl_watermark.store(src_off, Ordering::Release);
                }
                None => {
                    self.apply_repl_effect(rec);
                    self.repl_watermark.store(src_off, Ordering::Release);
                }
            }
            self.repl_applied_txid.fetch_max(txid, Ordering::AcqRel);
            self.stats.repl_applies.fetch_add(1, Ordering::Relaxed);
        }
        if let (Some(end), Some(d)) = (wait, &self.dur) {
            let _fs = span(SpanKind::SrvFsync);
            d.wal.wait_durable(end).map_err(|e| self.degrade(e))?;
        }
        self.repl_status()
    }

    /// Applies the in-memory effect of one incorporated primary record,
    /// mirroring what the primary's own execution did: one-phase writes
    /// apply through [`MemNode::apply`], prepares stage
    /// with their locks held, and decisions finish or discard the staged
    /// transaction.
    fn apply_repl_effect(&self, rec: OwnedRecord) {
        match rec {
            OwnedRecord::Apply { writes, .. } => self.apply(&writes),
            OwnedRecord::Prepare {
                txid,
                participants,
                spans,
                writes,
            } => {
                let tx = PreparedTx {
                    spans,
                    writes,
                    participants: participants.into_iter().map(MemNodeId).collect(),
                };
                // Followers serve no transactions of their own, so the
                // lock always grants; holding it keeps the staged set and
                // the lock table consistent with a recovered node.
                let got = self.locks.try_lock(&tx.spans, txid);
                debug_assert_eq!(got, LockAcquire::Granted, "follower lock conflict");
                self.prepared.lock().insert(txid, tx);
            }
            OwnedRecord::Commit { txid } => {
                let staged = self.prepared.lock().remove(&txid);
                if let Some(tx) = staged {
                    self.apply(&tx.writes);
                    self.decided.lock().insert(txid);
                }
                self.locks.release(txid);
            }
            OwnedRecord::Abort { txid } => {
                self.prepared.lock().remove(&txid);
                self.locks.release(txid);
            }
            OwnedRecord::Repl { .. } => unreachable!("never nested"),
        }
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
        n.recover();
        assert_eq!(n.raw_read(0, 4).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn crash_preserves_prepared_and_locks() {
        let n = node();
        let mut m = Minitransaction::new();
        m.write(ItemRange::new(n.id, 0, 4), vec![1, 2, 3, 4]);
        prep(&n, 42, &m);
        n.crash();
        n.recover();
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
    fn mirror_stays_consistent() {
        let n = node();
        for i in 0..10u8 {
            let mut m = Minitransaction::new();
            m.write(ItemRange::new(n.id, i as u64 * 8, 1), vec![i]);
            assert!(matches!(
                single(&n, i as u64, &m),
                SingleResult::Committed(_)
            ));
        }
        assert!(n.mirror_consistent(&[(0, 128)]));
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
            let staged = n.prepared.lock();
            let tx = staged.get(&5).expect("staged");
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
        n.recover();
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
        assert_eq!(n.checkpoint_count(), 1);
        assert!(n.wal_retained_bytes() < before);
        // Post-checkpoint writes land in the (shrunk) log.
        let mut m = Minitransaction::new();
        m.write(ItemRange::new(n.id, 512, 1), vec![0xAB]);
        assert!(matches!(single(&n, 99, &m), SingleResult::Committed(_)));
        n.crash();
        n.recover();
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
        let payloads = |n: &MemNode| -> (Vec<u8>, Vec<Vec<u8>>) {
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
